//! Minimal `--flag value` argument handling.

use std::fmt;

use crate::{err, CliError};

/// A flag the subcommand does not read — most often a typo, which would
/// otherwise be ignored and leave its setting at the default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFlag {
    /// The subcommand the flag was given to.
    pub command: String,
    /// The flag name, without the leading `--`.
    pub flag: String,
}

impl fmt::Display for UnknownFlag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown flag --{} for '{}'", self.flag, self.command)
    }
}

impl std::error::Error for UnknownFlag {}

impl From<UnknownFlag> for CliError {
    fn from(e: UnknownFlag) -> Self {
        CliError(e.to_string())
    }
}

/// Parsed arguments: positional subcommand (+ optional action word, as in
/// `sweep run`) + flag map.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first bare word).
    pub command: String,
    /// A second bare word right after the subcommand (`sweep run`), if any.
    /// Commands that take no action reject it at dispatch.
    pub action: Option<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse a raw argument list (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, CliError> {
        let mut it = raw.into_iter().peekable();
        let command = it.next().unwrap_or_default();
        if command.starts_with("--") {
            return Err(err(format!("expected a subcommand before '{command}'")));
        }
        let action = match it.peek() {
            Some(tok) if !tok.starts_with("--") => Some(it.next().expect("peeked")),
            _ => None,
        };
        let mut flags = Vec::new();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(err(format!("unexpected positional argument '{tok}'")));
            };
            // A flag's value is the next token unless it is another flag.
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => Some(it.next().expect("peeked")),
                _ => None,
            };
            flags.push((name.to_string(), value));
        }
        Ok(Args {
            command,
            action,
            flags,
        })
    }

    /// Reject the first flag not listed in `known`.
    pub fn reject_unknown(&self, known: &[&[&str]]) -> Result<(), UnknownFlag> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !known.iter().any(|set| set.contains(&n.as_str())))
        {
            Some((n, _)) => Err(UnknownFlag {
                command: self.command.clone(),
                flag: n.clone(),
            }),
            None => Ok(()),
        }
    }

    /// String value of a flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Presence of a bare flag (with or without a value).
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Required string flag.
    pub fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| err(format!("missing required flag --{name}")))
    }

    /// Parse a flag as a number (with default).
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{name}: cannot parse '{v}'"))),
        }
    }

    /// Parse a required numeric flag.
    pub fn require_num<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        let v = self.require(name)?;
        v.parse()
            .map_err(|_| err(format!("--{name}: cannot parse '{v}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, CliError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = args("run --topo mesh:4x4 --nodes 8 --temporal").unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get("topo"), Some("mesh:4x4"));
        assert_eq!(a.num::<usize>("nodes", 0).unwrap(), 8);
        assert!(a.has("temporal"));
        assert!(!a.has("trace"));
    }

    #[test]
    fn missing_required_flag_errors() {
        let a = args("run --nodes 8").unwrap();
        assert!(a.require("topo").is_err());
        assert!(a.require_num::<u64>("bytes").is_err());
    }

    #[test]
    fn bad_number_errors() {
        let a = args("run --nodes eight").unwrap();
        assert!(a.num::<usize>("nodes", 1).is_err());
    }

    #[test]
    fn rejects_positional_noise() {
        // A second bare word parses as the action (dispatch rejects it for
        // commands that take none); a third is always noise.
        assert_eq!(args("run mesh").unwrap().action.as_deref(), Some("mesh"));
        assert!(args("sweep run extra").is_err());
        assert!(args("--topo mesh:4x4").is_err());
    }

    #[test]
    fn parses_an_action_word() {
        let a = args("sweep run --spec s.json --jobs 4").unwrap();
        assert_eq!(a.command, "sweep");
        assert_eq!(a.action.as_deref(), Some("run"));
        assert_eq!(a.get("spec"), Some("s.json"));
        assert!(args("sweep --spec s.json").unwrap().action.is_none());
    }

    #[test]
    fn default_when_absent() {
        let a = args("run").unwrap();
        assert_eq!(a.num::<u64>("seed", 1997).unwrap(), 1997);
    }
}
