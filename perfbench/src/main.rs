//! The repository's benchmark of record.
//!
//! ```text
//! perfbench --workload <paper_sweep|certify|plan_serve>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --seed <n> --seconds <s> --steadiness <runs>
//! perfbench --workload <name> --bless
//! ```
//!
//! One process runs one workload: it sets up several times (`setup_s` is
//! the median), runs whole rounds of the seeded operation stream for about
//! `--seconds`, checks every output, prints a human-readable report and,
//! as the last line, one JSON object.  `--trace 1` adds a traced pass over
//! the same rounds and reports per-layer metrics instead.  `--steadiness`
//! reruns the workload in child processes on consecutive seeds and prints
//! each end-to-end metric's median and quartiles.  `--bless` rewrites
//! `expected/<workload>.txt` from one round at the default seed.

mod certify;
mod harness;
mod paper_sweep;
mod plan_serve;
mod steps;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use harness::{Ctx, Outcome, DEFAULT_SEED};

const WORKLOADS: [&str; 3] = ["paper_sweep", "certify", "plan_serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steadiness: Option<usize>,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        steadiness: None,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            a.bless = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse '{value}'");
        match flag.as_str() {
            "--workload" => a.workload.clone_from(&value),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--steadiness" => a.steadiness = Some(value.parse().map_err(|_| bad())?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Where this process may write: beside the build output, inside the
/// checkout, and named after the process so concurrent runs never share.
fn work_dir(workload: &str) -> std::io::Result<std::path::PathBuf> {
    let exe = std::env::current_exe()?;
    let base = exe
        .parent()
        .and_then(std::path::Path::parent)
        .unwrap_or(std::path::Path::new("."))
        .join("perfbench-work");
    let dir = base.join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn run_one(a: &Args, started: Instant) -> Result<Outcome, String> {
    let work = work_dir(&a.workload).map_err(|e| format!("work directory: {e}"))?;
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        work,
        started,
    };
    let out = match a.workload.as_str() {
        "paper_sweep" => harness::run::<paper_sweep::PaperSweep>(&ctx, a.bless),
        "certify" => harness::run::<certify::Certify>(&ctx, a.bless),
        _ => harness::run::<plan_serve::PlanServe>(&ctx, a.bless),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    Ok(out)
}

/// Rerun the workload `runs` times, each in its own process on its own
/// seed, and print every end-to-end metric's median, quartiles and
/// quartile spread as a share of the median.
fn steadiness(a: &Args, runs: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    for i in 0..runs as u64 {
        let seed = a.seed + i;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &a.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &a.seconds.to_string(), "--trace", "0"])
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let v: serde_json::Value =
            serde_json::from_str(last).map_err(|e| format!("seed {seed}: {e:?}: {last}"))?;
        if !out.status.success() || v.get("correct") != Some(&serde_json::Value::Bool(true)) {
            return Err(format!("seed {seed}: run failed\n{stdout}"));
        }
        let metrics = v
            .get("metrics")
            .and_then(serde_json::Value::as_object)
            .ok_or("no metrics")?;
        let mut line = format!("run {} of {runs} (seed {seed}):", i + 1);
        for (name, m) in metrics {
            let x = m
                .get("value")
                .and_then(serde_json::Value::as_f64)
                .unwrap_or(0.0);
            let unit = m
                .get("unit")
                .and_then(serde_json::Value::as_str)
                .unwrap_or("");
            let e = values
                .entry(name.clone())
                .or_insert_with(|| (unit.to_string(), Vec::new()));
            e.1.push(x);
            line.push_str(&format!(" {name}={x:.4}"));
        }
        eprintln!("{line}");
    }
    println!(
        "steadiness: {} x {runs} runs, seeds {}..={}",
        a.workload,
        a.seed,
        a.seed + runs as u64 - 1
    );
    println!(
        "{:<14} {:>14} {:>14} {:>14} {:>8}  unit",
        "metric", "median", "q1", "q3", "spread"
    );
    for (name, (unit, v)) in &values {
        let med = util::median(v);
        let (q1, q3) = util::quartiles(v);
        println!(
            "{name:<14} {med:>14.4} {q1:>14.4} {q3:>14.4} {:>8.4}  {unit}",
            (q3 - q1) / med
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = a.steadiness {
        return match steadiness(&a, runs.max(2)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if a.bless && a.seed != DEFAULT_SEED {
        eprintln!("perfbench: --bless records the default seed {DEFAULT_SEED} only");
        return ExitCode::from(2);
    }
    let out = match run_one(&a, started) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", out.report);
    if a.bless {
        let path = format!("{}/expected/{}.txt", env!("CARGO_MANIFEST_DIR"), a.workload);
        if let Err(e) = std::fs::write(&path, &out.blessed) {
            eprintln!("perfbench: {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("blessed {path}");
    }
    println!("{}", out.json);
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
