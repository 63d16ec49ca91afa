//! Bench-side spans around each call into the program's public API.
//!
//! A [`Tracer`] that is off runs the closure and nothing else; one that is
//! on records a [`Span`] (name, start, end, parent, operation id, thread)
//! in memory.  Spans are written out once, when the workload ends, and
//! self times are derived from them afterwards.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug)]
pub struct Span {
    /// Layer-qualified name (`topo.build`, `flitsim.run`, …); the
    /// operation's root span is named `op`.
    pub name: &'static str,
    /// Nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
    /// Worker thread that recorded it.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    op: u64,
    stack: Vec<usize>,
    /// Recorded spans, parents before children.
    pub spans: Vec<Span>,
    sums: BTreeMap<&'static str, f64>,
    peaks: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            thread: 0,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            sums: BTreeMap::new(),
            peaks: BTreeMap::new(),
        }
    }

    /// A recording tracer; tracers that share `epoch` can be merged.
    pub fn on(epoch: Instant, thread: u32) -> Self {
        Tracer {
            on: true,
            epoch,
            thread,
            ..Tracer::off()
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The shared epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            thread: self.thread,
        });
        self.stack.push(idx);
        self.spans[idx].start_ns = self.now_ns();
        let r = f(self);
        self.spans[idx].end_ns = self.now_ns();
        self.stack.pop();
        r
    }

    /// Run operation `id` inside its root span.
    pub fn op<R>(&mut self, id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        self.op = id;
        self.span("op", f)
    }

    /// Add `v` to counter `name` (recorded only when on).
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.sums.entry(name).or_default() += v;
        }
    }

    /// Raise high-water mark `name` to at least `v` (recorded only when on).
    pub fn peak(&mut self, name: &'static str, v: f64) {
        if self.on {
            let e = self.peaks.entry(name).or_default();
            *e = e.max(v);
        }
    }

    /// A counter's sum or high-water mark; 0 if never recorded.
    pub fn counter(&self, name: &str) -> f64 {
        self.sums
            .get(name)
            .or_else(|| self.peaks.get(name))
            .copied()
            .unwrap_or(0.0)
    }

    /// Append another thread's spans and counters (same epoch), re-basing
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        for (k, v) in other.sums {
            *self.sums.entry(k).or_default() += v;
        }
        for (k, v) in other.peaks {
            self.peak(k, v);
        }
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time (duration minus direct children) of every span, by index.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Share of operation wall time covered by the operations' direct
    /// child spans (the named layer calls).
    pub fn attributed_frac(&self) -> f64 {
        let mut op_ns = 0u64;
        let mut covered = 0u64;
        for s in &self.spans {
            if s.name == "op" {
                op_ns += s.dur_ns();
            } else if s.parent.is_some_and(|p| self.spans[p].name == "op") {
                covered += s.dur_ns();
            }
        }
        if op_ns == 0 {
            0.0
        } else {
            covered as f64 / op_ns as f64
        }
    }

    /// Per-name (calls, total ns, self ns), for the breakdown table.
    pub fn breakdown(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        out
    }

    /// Spans as JSON lines (one object per span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"thread\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.thread
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut off = Tracer::off();
        assert_eq!(off.op(1, |t| t.span("a", |_| 7)), 7);
        assert!(off.spans.is_empty());

        let mut t = Tracer::on(Instant::now(), 0);
        t.op(3, |t| {
            t.span("outer", |t| {
                t.span("inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                });
            });
        });
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[2].parent, Some(1));
        assert!(t.spans.iter().all(|s| s.op == 3));
        let selfs = t.self_times();
        assert!(selfs[1] < t.spans[2].dur_ns());
        assert!(t.attributed_frac() > 0.9);
    }
}
