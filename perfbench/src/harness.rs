//! The workload-independent harness: repeated set-up, the untraced pass
//! (end-to-end metrics), the traced pass (per-layer metrics), output
//! checks against earlier rounds, the traced pass and the committed
//! expectations, and the result line.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use crate::trace::Tracer;
use crate::util::{json_num, median, mix, percentile, proc_status_mb, secs};

/// The seed whose outputs are committed under `expected/`.
pub const DEFAULT_SEED: u64 = 1997;

/// Set-up repetitions per process; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The calibration kernel's time in milliseconds on the reference host (a
/// 2-vCPU KVM guest on a Xeon, release build) at its faster speed.
/// Operation latencies are reported as if the host ran at this speed.
const REFERENCE_CAL_MS: f64 = 0.67;

/// Seconds between calibrations inside a closed loop.
const CAL_EVERY_S: f64 = 0.1;

/// Everything a workload learns from the command line.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for this process (shard stores, span dumps).
    pub work: PathBuf,
    /// Process start, as near as `main` can see it.
    pub started: Instant,
}

/// One operation's checked output.
#[derive(Debug)]
pub struct OpOut {
    /// Human label (`mesh:16x16 opt-arch k=64`).
    pub label: String,
    /// Digest of everything the operation returned that must repeat
    /// exactly (fingerprints, verdict codes, response bytes).
    pub digest: u64,
    /// A violated invariant (wrong output, panic, error response).
    pub error: Option<String>,
}

/// What one round (one pass over the seeded operation stream) produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Host milliseconds per operation, in stream order, so that entry `i`
    /// of every round times the same operation (NaN where it produced no
    /// timing).
    pub op_ms: Vec<f64>,
    /// The calibration kernel's milliseconds measured last before each
    /// operation, parallel to `op_ms`; left empty by workloads that cannot
    /// calibrate between operations, which then get the round's.
    pub op_cal: Vec<f64>,
    /// Timed wall seconds of the round.
    pub wall_s: f64,
    /// Per-operation outputs, in stream order.
    pub outputs: Vec<OpOut>,
    /// Simulator events processed in the round (filled in by the harness
    /// from the engine's process-wide counter).
    pub sim_events: u64,
    /// Exact per-round totals (simulated cycles, figure hashes, …).
    pub sentinels: Vec<(String, u64)>,
    /// Per-layer figures measured outside spans (median over rounds).
    pub extras: Vec<(&'static str, f64)>,
}

/// The program's layers as this benchmark attributes them: metric name,
/// unit, and the span it summarises (`None`: computed by the workload or
/// from counters).  Keep in sync with `BENCHMARK.json` (unit-tested).
pub const PER_LAYER: &[(&str, &str, Option<&str>)] = &[
    ("topo.build_ms", "ms", Some("topo.build")),
    ("topo.route_table_ms", "ms", Some("topo.route_table")),
    ("topo.route_table_rss_mb", "MB", None),
    ("topo.builds", "count", None),
    ("optmc.model_pair_us", "us", Some("optmc.model_pair")),
    ("optmc.chain_us", "us", Some("optmc.chain")),
    (
        "optmc.windowed_check_ms",
        "ms",
        Some("optmc.windowed_check"),
    ),
    ("mtree.dp_us", "us", Some("mtree.dp")),
    ("mtree.schedule_us", "us", Some("mtree.schedule")),
    ("flitsim.engine_new_us", "us", Some("flitsim.engine_new")),
    ("flitsim.run_ms", "ms", Some("flitsim.run")),
    ("flitsim.engine_events_per_s", "1/s", None),
    ("flitsim.events", "count", None),
    ("flitsim.peak_heap_events", "count", None),
    ("flitsim.blocked_cycles", "count", None),
    ("netcheck.cdg_ms", "ms", Some("netcheck.cdg")),
    ("netcheck.cdg_edges", "count", None),
    ("netcheck.lint_ms", "ms", Some("netcheck.lint")),
    (
        "netcheck.validated_run_ms",
        "ms",
        Some("netcheck.validated_run"),
    ),
    ("netcheck.schedset_ms", "ms", Some("netcheck.schedset")),
    ("plansvc.parse_us", "us", None),
    ("plansvc.hit_us", "us", None),
    ("plansvc.miss_us", "us", None),
    ("plansvc.compute_us", "us", Some("plansvc.compute")),
    ("plansvc.engine_us", "us", None),
    ("plansvc.hit_ratio", "ratio", None),
    ("plansvc.dp_runs", "count", None),
    ("campaign.cell_ms", "ms", None),
    ("campaign.pool_overhead_ms", "ms", None),
    ("campaign.worker_busy_frac", "ratio", None),
    ("sim_events_per_s", "1/s", None),
    ("trace.attributed_frac", "ratio", None),
    ("trace.overhead_frac", "ratio", None),
];

/// Counters a traced round accumulates at span boundaries; reported per
/// round (every round is the same stream, so these are exact).
pub const PER_ROUND_COUNTS: &[&str] = &[
    "topo.builds",
    "flitsim.events",
    "flitsim.blocked_cycles",
    "netcheck.cdg_edges",
    "plansvc.dp_runs",
];

/// Time a fixed CPU, cache and allocator workload of the benchmark's own,
/// best of three, in milliseconds: a 4096-entry shuffle, hash-map updates
/// and a sort, then formatting and sorting 1500 short strings — the kinds
/// of work the program's planning and request paths do.  It shares no code
/// or data with the program, so its time follows only the host's speed,
/// which on a shared host changes for seconds or minutes at a time.  (The
/// two halves slow by different factors, the strings more; their sum
/// tracks the plan service's requests better than either alone.)
pub fn calibrate() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut v: Vec<u32> = (0..4096).collect();
        let mut counts: HashMap<u32, u64> = HashMap::new();
        for pass in 0..4 {
            for i in (1..v.len()).rev() {
                x = mix(x);
                v.swap(i, (x % (i as u64 + 1)) as usize);
            }
            for &k in &v[..1024] {
                *counts.entry(k ^ pass).or_default() += u64::from(k);
            }
            let mut keys: Vec<u64> = v.iter().map(|&k| mix(u64::from(k) ^ x)).collect();
            keys.sort_unstable();
            x ^= keys[keys.len() / 2];
        }
        let mut lines: Vec<String> = (0..1500u64)
            .map(|i| format!(r#"{{"id": {}, "k": {i}}}"#, mix(i ^ x)))
            .collect();
        lines.sort_unstable();
        let bytes: usize = lines.iter().map(String::len).sum();
        std::hint::black_box((x, counts.len(), bytes));
        best = best.min(secs(t0) * 1e3);
    }
    best
}

/// Each operation's typical latency over `rounds`, in reference-host
/// milliseconds: the median over rounds of its latency scaled by
/// `REFERENCE_CAL_MS` / the calibration measured before it.  Operations
/// without a finite latency in any round are left out.
pub fn typical_ms(rounds: &[Round]) -> Vec<f64> {
    let n = rounds.first().map_or(0, |r| r.op_ms.len());
    (0..n)
        .filter_map(|i| {
            let scaled: Vec<f64> = rounds
                .iter()
                .filter_map(|r| Some(r.op_ms.get(i)? * REFERENCE_CAL_MS / r.op_cal.get(i)?))
                .filter(|x| x.is_finite())
                .collect();
            (!scaled.is_empty()).then(|| median(&scaled))
        })
        .collect()
}

/// A closed loop of `n` operations on one thread: operation `i` starts
/// once `i - 1` has returned and been checked.  Each runs in its own root
/// span with its panic caught, and `check` receives its index, latency in
/// milliseconds and output.  Before an operation the loop runs
/// [`calibrate`] when `CAL_EVERY_S` has passed since it last did, and
/// pushes the latest calibration onto `cal`.  Returns the seconds spent
/// inside operations, so neither checking nor calibrating counts as
/// operation time.
pub fn closed_loop<T>(
    t: &mut Tracer,
    n: usize,
    cal: &mut Vec<f64>,
    mut op: impl FnMut(&mut Tracer, usize) -> T,
    mut check: impl FnMut(usize, f64, std::thread::Result<T>),
) -> f64 {
    let mut busy = 0.0;
    let mut last: Option<(Instant, f64)> = None;
    for i in 0..n {
        let cal_ms = match last {
            Some((at, ms)) if secs(at) < CAL_EVERY_S => ms,
            _ => {
                let ms = calibrate();
                last = Some((Instant::now(), ms));
                ms
            }
        };
        cal.push(cal_ms);
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| t.op(i as u64, |t| op(t, i))));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        busy += ms;
        check(i, ms, res);
    }
    busy / 1e3
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Workload name, as given to `--workload`.
    const NAME: &'static str;
    /// Loop type and client/worker threads, stated in the output.
    const SHAPE: (&'static str, usize);
    /// Committed outputs for [`DEFAULT_SEED`].
    const EXPECTED: &'static str;

    /// Expand the seeded inputs and warm up.  Called several times; the
    /// last instance runs.
    fn setup(ctx: &Ctx) -> Self;

    /// One pass over the operation stream.  With `tracer` off this calls
    /// the program's composite entry points (what a user runs); with it on,
    /// the same work decomposed into the public calls beneath them, each in
    /// a span, producing identical outputs.
    fn round(&mut self, ctx: &Ctx, tracer: &mut Tracer) -> Round;
}

/// A finished workload run.
pub struct Outcome {
    /// Human-readable report lines.
    pub report: String,
    /// The final JSON line.
    pub json: String,
    /// Whether every output checked out.
    pub correct: bool,
    /// Expected-file text (bless mode).
    pub blessed: String,
}

struct Checker {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checker {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 12 {
            self.notes.push(note);
        }
    }

    /// Check one round's outputs: invariants, then digest equality against
    /// `reference` (an earlier round of the same stream) when given.
    fn round(&mut self, what: &str, r: &Round, reference: Option<&Round>) {
        self.attempted += r.outputs.len() as u64;
        for (i, o) in r.outputs.iter().enumerate() {
            if let Some(e) = &o.error {
                self.fail(format!("{what} op {i} ({}): {e}", o.label));
            } else if let Some(want) = reference.map(|x| &x.outputs[i]) {
                if want.digest != o.digest {
                    self.fail(format!(
                        "{what} op {i} ({}): output {:016x} differs from {:016x}",
                        o.label, o.digest, want.digest
                    ));
                }
            }
        }
        if let Some(reference) = reference {
            if reference.outputs.len() != r.outputs.len() || reference.sentinels != r.sentinels {
                self.fail(format!("{what}: round totals differ from the first round"));
            }
        }
    }
}

fn expected_text(r: &Round) -> String {
    let mut s = format!("# perfbench expected outputs, seed {DEFAULT_SEED}\n");
    for (i, o) in r.outputs.iter().enumerate() {
        let _ = writeln!(s, "op {i} {:016x} {}", o.digest, o.label);
    }
    for (name, v) in &r.sentinels {
        let _ = writeln!(s, "sentinel {name} {v}");
    }
    s
}

fn check_expected(c: &mut Checker, expected: &str, r: &Round) {
    let mut ops: BTreeMap<usize, u64> = BTreeMap::new();
    let mut sentinels: BTreeMap<&str, u64> = BTreeMap::new();
    for line in expected.lines().filter(|l| !l.starts_with('#')) {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some("op"), Some(i), Some(d)) => {
                if let (Ok(i), Ok(d)) = (i.parse(), u64::from_str_radix(d, 16)) {
                    ops.insert(i, d);
                }
            }
            (Some("sentinel"), Some(name), Some(v)) => {
                if let Ok(v) = v.parse() {
                    sentinels.insert(name, v);
                }
            }
            _ => {}
        }
    }
    if ops.len() != r.outputs.len() {
        c.fail(format!(
            "expected/ lists {} operations for seed {DEFAULT_SEED}, the stream has {}",
            ops.len(),
            r.outputs.len()
        ));
    }
    for (i, o) in r.outputs.iter().enumerate() {
        if o.error.is_none() && ops.get(&i).is_some_and(|&d| d != o.digest) {
            c.fail(format!(
                "op {i} ({}): output {:016x} differs from the committed {:016x}",
                o.label, o.digest, ops[&i]
            ));
        }
    }
    for (name, v) in &r.sentinels {
        match sentinels.get(name.as_str()) {
            Some(want) if want == v => {}
            want => c.fail(format!(
                "sentinel {name} = {v}, committed {}",
                want.map_or("nothing".to_string(), u64::to_string)
            )),
        }
    }
}

/// Run rounds until the next one would end past `budget` seconds (at least
/// one), or exactly `fixed` rounds.  Each round is checked as it ends,
/// against `reference` or else the pass's own first round, and only that
/// first round keeps its outputs, so the benchmark's own memory does not
/// grow with the number of rounds.
#[allow(clippy::too_many_arguments)]
fn pass<W: Workload>(
    w: &mut W,
    ctx: &Ctx,
    tracer: &mut Tracer,
    budget: f64,
    fixed: Option<usize>,
    c: &mut Checker,
    what: &str,
    reference: Option<&Round>,
) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let events = flitsim::metrics::EVENTS_PROCESSED.get();
        let before = calibrate();
        let mut r = w.round(ctx, tracer);
        r.sim_events = flitsim::metrics::EVENTS_PROCESSED.get() - events;
        if r.op_cal.is_empty() {
            r.op_cal = vec![(before + calibrate()) / 2.0; r.op_ms.len()];
        }
        let name = format!("{what} {}", rounds.len());
        match reference.or(rounds.first()) {
            None => c.round(&name, &r, None),
            Some(first) => {
                c.round(&name, &r, Some(first));
                r.outputs = Vec::new();
            }
        }
        rounds.push(r);
        let n = rounds.len();
        match fixed {
            Some(f) if n >= f => break,
            Some(_) => {}
            None => {
                let elapsed = secs(start);
                if elapsed + elapsed / n as f64 > budget {
                    break;
                }
            }
        }
    }
    rounds
}

/// Median of span durations called `span`, in `unit` (`ms` or `us`).
fn span_median(t: &Tracer, span: &str, unit: &str) -> f64 {
    let d = t.durations(span);
    let scale = if unit == "ms" { 1e-6 } else { 1e-3 };
    if d.is_empty() {
        0.0
    } else {
        median(&d) * scale
    }
}

/// Run workload `W` end to end and render its result.
pub fn run<W: Workload>(ctx: &Ctx, bless: bool) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut w = None;
    for i in 0..SETUP_REPS {
        let t0 = if i == 0 { ctx.started } else { Instant::now() };
        let built = W::setup(ctx);
        setup_s.push(secs(t0));
        w = Some(built);
    }
    let mut w = w.expect("at least one set-up");

    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let fixed = bless.then_some(1);
    let mut c = Checker {
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
    };
    let untraced = pass(
        &mut w,
        ctx,
        &mut Tracer::off(),
        budget,
        fixed,
        &mut c,
        "round",
        None,
    );
    // The high-water mark before the statistics below copy and sort every
    // latency, so the benchmark's own memory does not grow with speed.
    let peak_rss_mb = proc_status_mb("VmHWM");
    let first = &untraced[0];
    let mut tracer = Tracer::on(Instant::now(), 0);
    let traced = if ctx.trace {
        let rounds = Some(untraced.len());
        pass(
            &mut w,
            ctx,
            &mut tracer,
            budget,
            rounds,
            &mut c,
            "traced round",
            Some(first),
        )
    } else {
        Vec::new()
    };
    if ctx.seed == DEFAULT_SEED && !bless {
        check_expected(&mut c, W::EXPECTED, first);
    }

    // Latencies are scaled to the reference host's speed by the
    // calibration measured next to them, and each operation's is its median
    // over the rounds (every round runs the same operations).
    let (loop_kind, threads) = W::SHAPE;
    let typical = typical_ms(&untraced);
    let n = typical.len();
    let typical_s: f64 = typical.iter().sum::<f64>() / 1e3;
    let cals: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.op_cal.iter().copied())
        .collect();
    let pooled: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.op_ms.iter().copied())
        .filter(|x| x.is_finite())
        .collect();
    let wall: f64 = untraced.iter().map(|r| r.wall_s).sum();
    let events: u64 = untraced.iter().map(|r| r.sim_events).sum();
    let e2e: Vec<(&str, f64, &str)> = vec![
        ("setup_s", median(&setup_s), "s"),
        ("ops_per_s", threads as f64 * n as f64 / typical_s, "1/s"),
        ("op_ms_p50", percentile(&typical, 0.5), "ms"),
        ("op_ms_p90", percentile(&typical, 0.9), "ms"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let sim_events_per_s = events as f64 / wall;
    let error_rate = c.failed as f64 / c.attempted.max(1) as f64;

    let mut report = String::new();
    let _ = writeln!(
        report,
        "workload {}  seed {}  loop {loop_kind}  threads {threads}  rounds {}  ops {n} per round  trace {}",
        W::NAME,
        ctx.seed,
        untraced.len(),
        u8::from(ctx.trace)
    );
    let beyond = |p: f64| typical.iter().filter(|&&x| x > p).count();
    for (name, v, unit) in &e2e {
        let samples = match *name {
            "setup_s" => format!("  (n={SETUP_REPS} set-ups)"),
            "ops_per_s" => format!("  ({threads} x {n} operations / summed latency)"),
            "op_ms_p50" | "op_ms_p90" => format!(
                "  (n={n} operations, median of {} rounds, {} beyond)",
                untraced.len(),
                beyond(*v)
            ),
            _ => String::new(),
        };
        let _ = writeln!(report, "  {name:<20} {v:>14.4} {unit}{samples}");
    }
    if events > 0 {
        let _ = writeln!(
            report,
            "  {:<20} {sim_events_per_s:>14.0} 1/s",
            "sim_events_per_s"
        );
    } else {
        let _ = writeln!(report, "  {:<20} {:>14} 1/s", "sim_events_per_s", "n/a");
    }
    let _ = writeln!(
        report,
        "  {:<20} {error_rate:>14.4} ratio  ({} of {} operations)",
        "error_rate", c.failed, c.attempted
    );
    let _ = writeln!(
        report,
        "  calibration before the operations: median {:.4} ms, min {:.4}, max {:.4} (n={}; reference {REFERENCE_CAL_MS} ms)",
        median(&cals),
        percentile(&cals, 0.0),
        percentile(&cals, 1.0),
        cals.len()
    );
    // The unscaled figures, pooled over every round, for comparison: these
    // follow the host's speed.
    let _ = writeln!(
        report,
        "  unscaled, pooled over {} rounds: ops_per_s {:.4}, op_ms_p50 {:.4}, op_ms_p90 {:.4} (n={})",
        untraced.len(),
        pooled.len() as f64 / wall,
        percentile(&pooled, 0.5),
        percentile(&pooled, 0.9),
        pooled.len()
    );
    // Drift within the run: the spread of the rounds' own medians.
    let per_round: Vec<f64> = untraced.iter().map(|r| median(&r.op_ms)).collect();
    let _ = writeln!(
        report,
        "  per-round op_ms medians: min {:.4}, median {:.4}, max {:.4} ({} rounds)",
        percentile(&per_round, 0.0),
        median(&per_round),
        percentile(&per_round, 1.0),
        per_round.len()
    );
    for note in &c.notes {
        let _ = writeln!(report, "  FAILED {note}");
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if ctx.trace {
        let rounds = traced.len().max(1) as f64;
        let mut extras: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for r in untraced.iter().chain(&traced) {
            for &(k, v) in &r.extras {
                extras.entry(k).or_default().push(v);
            }
        }
        let traced_wall: f64 = traced.iter().map(|r| r.wall_s).sum();
        for &(name, unit, span) in PER_LAYER {
            let v = if let Some(span) = span {
                span_median(&tracer, span, unit)
            } else if PER_ROUND_COUNTS.contains(&name) {
                tracer.counter(name) / rounds
            } else {
                match name {
                    "topo.route_table_rss_mb" | "flitsim.peak_heap_events" => tracer.counter(name),
                    "flitsim.engine_events_per_s" => {
                        let run_ns: f64 = tracer.durations("flitsim.run").iter().sum();
                        if run_ns > 0.0 {
                            tracer.counter("flitsim.events") / (run_ns * 1e-9)
                        } else {
                            0.0
                        }
                    }
                    "sim_events_per_s" => sim_events_per_s,
                    "trace.attributed_frac" => tracer.attributed_frac(),
                    "trace.overhead_frac" => (traced_wall - wall) / wall,
                    _ => extras.get(name).map_or(0.0, |v| median(v)),
                }
            };
            metrics.push((name, v, unit));
        }
        let _ = writeln!(
            report,
            "  per-layer (traced pass, {} rounds):",
            traced.len()
        );
        for (name, v, unit) in &metrics {
            let _ = writeln!(report, "    {name:<28} {v:>16.4} {unit}");
        }
        let _ = writeln!(
            report,
            "  self time by span (calls, total ms, self ms, self share of op time):"
        );
        let bd = tracer.breakdown();
        let op_total = bd.get("op").map_or(1, |e| e.1.max(1)) as f64;
        for (name, (calls, total, own)) in &bd {
            let _ = writeln!(
                report,
                "    {name:<28} {calls:>8} {:>12.3} {:>12.3} {:>7.3}",
                *total as f64 * 1e-6,
                *own as f64 * 1e-6,
                *own as f64 / op_total
            );
        }
        let spans = ctx
            .work
            .with_file_name(format!("spans-{}-seed{}.jsonl", W::NAME, ctx.seed));
        match std::fs::write(&spans, tracer.to_jsonl()) {
            Ok(()) => {
                let _ = writeln!(report, "  spans written to {}", spans.display());
            }
            Err(e) => {
                let _ = writeln!(report, "  could not write spans: {e}");
            }
        }
    } else {
        metrics = e2e;
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        c.failed == 0,
        c.attempted,
        c.failed
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*v)
        );
    }
    json.push_str("}}");
    Outcome {
        report,
        json,
        correct: c.failed == 0,
        blessed: expected_text(first),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_ms_scales_and_takes_each_operations_median() {
        let slow = 2.0 * REFERENCE_CAL_MS;
        let round = |op_ms: Vec<f64>, cal: f64| Round {
            op_cal: vec![cal; op_ms.len()],
            op_ms,
            ..Round::default()
        };
        let rounds = [
            round(vec![3.0, 1.0, f64::NAN], REFERENCE_CAL_MS),
            round(vec![4.0, 4.0, f64::NAN], slow),
            round(vec![5.0, f64::NAN, f64::NAN], REFERENCE_CAL_MS),
        ];
        assert_eq!(typical_ms(&rounds), vec![3.0, 1.5]);
    }

    /// The metric names, units and kinds here and in `BENCHMARK.json` must
    /// agree, or the file describes metrics this binary does not print.
    #[test]
    fn per_layer_table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed: Vec<(String, String)> = v
            .get("per_layer")
            .and_then(serde_json::Value::as_array)
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(serde_json::Value::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, _)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(listed, ours);
        let e2e: Vec<String> = v
            .get("end_to_end")
            .and_then(serde_json::Value::as_array)
            .expect("end_to_end list")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(serde_json::Value::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect();
        assert_eq!(
            e2e,
            [
                "setup_s",
                "ops_per_s",
                "op_ms_p50",
                "op_ms_p90",
                "peak_rss_mb"
            ]
        );
    }
}
