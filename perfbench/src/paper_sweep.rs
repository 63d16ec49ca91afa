//! `paper_sweep`: the paper's figure grids through `campaign::run_campaign`
//! into a fresh shard store, two workers, closed loop.  One operation is
//! one campaign cell (16 placements of one grid point).  This is how the
//! figures are regenerated: the route table, rebuilt in every cell, the
//! engine and per-multicast planning share the time.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use campaign::{expand, CampaignSpec, Cell, CellRecord, CellReport, PoolOptions, ShardStore};
use flitsim::SimConfig;
use optmc::{placement_stream, random_placement, trial_seed, TrialOutcome};

use crate::harness::{Ctx, OpOut, Round, Workload};
use crate::steps;
use crate::trace::Tracer;
use crate::util::{fnv, secs};

const WORKERS: usize = 2;

/// `specs/fig2.json`, `specs/fig3.json`, and the same two sweeps (message
/// size at 32 nodes, node count at 4 KB) on the paper's 128-node BMIN;
/// `SEED` becomes the workload seed.  102 cells per round, so the 90th
/// percentile of the cells' typical latencies has ten cells beyond it.
const SPECS: [&str; 4] = [
    r#"{"name": "fig2", "seed": SEED, "trials": 16, "topos": ["mesh:16x16"],
        "algorithms": ["u-arch", "opt-tree", "opt-arch"], "ks": [32],
        "sizes": [0, 8192, 16384, 24576, 32768, 40960, 49152, 57344, 65536],
        "figure": {"id": "fig2",
                   "title": "Fig 2: 32-node multicast on a 16x16 mesh (16 placements/point)",
                   "x": "bytes", "x_label": "msg bytes", "y_label": "multicast latency (cycles)"}}"#,
    r#"{"name": "fig3", "seed": SEED, "trials": 16, "topos": ["mesh:16x16"],
        "algorithms": ["u-arch", "opt-tree", "opt-arch"],
        "ks": [4, 8, 16, 32, 64, 96, 128, 192, 256], "sizes": [4096],
        "figure": {"id": "fig3",
                   "title": "Fig 3: 4096-byte multicast on a 16x16 mesh (16 placements/point)",
                   "x": "nodes", "x_label": "nodes", "y_label": "multicast latency (cycles)"}}"#,
    r#"{"name": "bmin128_nodes", "seed": SEED, "trials": 16, "topos": ["bmin:128"],
        "algorithms": ["u-arch", "opt-tree", "opt-arch"],
        "ks": [4, 8, 16, 32, 64, 96, 128], "sizes": [4096],
        "figure": {"id": "bmin128_nodes",
                   "title": "4096-byte multicast on a 128-node BMIN (16 placements/point)",
                   "x": "nodes", "x_label": "nodes", "y_label": "multicast latency (cycles)"}}"#,
    r#"{"name": "bmin128_bytes", "seed": SEED, "trials": 16, "topos": ["bmin:128"],
        "algorithms": ["u-arch", "opt-tree", "opt-arch"], "ks": [32],
        "sizes": [0, 8192, 16384, 24576, 32768, 40960, 49152, 57344, 65536],
        "figure": {"id": "bmin128_bytes",
                   "title": "32-node multicast on a 128-node BMIN (16 placements/point)",
                   "x": "bytes", "x_label": "msg bytes", "y_label": "multicast latency (cycles)"}}"#,
];

/// The figure dataset exactly as `Figure::write_json` writes it.
fn figure_json(f: &campaign::Figure) -> String {
    let record = serde_json::json!({
        "id": f.id,
        "title": f.title,
        "x_label": f.x_label,
        "y_label": f.y_label,
        "series": f.series.iter().map(|s| serde_json::json!({
            "label": s.label,
            "points": s.points,
        })).collect::<Vec<_>>(),
    });
    serde_json::to_string_pretty(&record).expect("figure serializes")
}

fn outcome_digest(outcomes: &[TrialOutcome]) -> u64 {
    let mut s = String::new();
    for o in outcomes {
        s.push_str(&format!(
            "{}:{}:{}:{}:{}:{}:{};",
            o.trial,
            o.placement_seed,
            o.latency,
            o.analytic,
            o.blocked,
            o.contention_free,
            o.events
        ));
    }
    fnv(s.as_bytes())
}

pub struct PaperSweep {
    specs: Vec<CampaignSpec>,
    round: usize,
}

/// One resolved cell as the progress callback saw it.
struct Seen {
    key: String,
    thread: std::thread::ThreadId,
    at: Instant,
    wall_ms: u64,
}

impl PaperSweep {
    fn store(ctx: &Ctx, round: usize, spec: &CampaignSpec) -> ShardStore {
        let dir = ctx.work.join(format!("r{round}")).join(&spec.name);
        let _ = std::fs::remove_dir_all(&dir);
        ShardStore::open(dir).expect("shard store opens")
    }

    /// `run_campaign` with two workers; per-cell latency is the interval
    /// between a worker's consecutive resolutions (claim, cell, checkpoint,
    /// heartbeat), the first measured from the campaign's start.  Latencies
    /// are recorded in grid order, whichever worker resolved the cell.
    fn untraced(spec: &CampaignSpec, store: &ShardStore, r: &mut Round) {
        let seen = Mutex::new(Vec::new());
        let progress = |c: &CellReport| {
            seen.lock().expect("progress lock").push(Seen {
                key: c.key.clone(),
                thread: std::thread::current().id(),
                at: Instant::now(),
                wall_ms: c.wall_ms,
            });
        };
        let opts = PoolOptions {
            jobs: WORKERS,
            budget_ms: None,
        };
        let start = Instant::now();
        // Failed cells are left out of the store; `collect` reports them.
        let _ = campaign::run_campaign(spec, store, &opts, &progress);
        let wall = secs(start);
        r.wall_s += wall;
        let seen = seen.into_inner().expect("progress lock");
        let grid: HashMap<String, usize> = expand(spec)
            .iter()
            .enumerate()
            .map(|(i, c)| (c.key(), i))
            .collect();
        let mut op_ms = vec![f64::NAN; grid.len()];
        let mut last: HashMap<std::thread::ThreadId, Instant> = HashMap::new();
        for s in &seen {
            let prev = last.insert(s.thread, s.at).unwrap_or(start);
            if let Some(&i) = grid.get(&s.key) {
                op_ms[i] = (s.at - prev).as_secs_f64() * 1e3;
            }
        }
        r.op_ms.extend(op_ms);
        let cell_ms: u64 = seen.iter().map(|s| s.wall_ms).sum();
        r.extras.push((
            "campaign.cell_ms",
            cell_ms as f64 / seen.len().max(1) as f64,
        ));
        r.extras.push((
            "campaign.pool_overhead_ms",
            WORKERS as f64 * wall * 1e3 - cell_ms as f64,
        ));
        r.extras.push((
            "campaign.worker_busy_frac",
            cell_ms as f64 / (WORKERS as f64 * wall * 1e3),
        ));
    }

    /// The same campaign on a two-worker pool of the benchmark's own that
    /// runs each cell as `campaign::pool::run_cell` does, decomposed, and
    /// checkpoints it to the same shard store.
    fn traced(spec: &CampaignSpec, store: &ShardStore, t: &mut Tracer, r: &mut Round) {
        let first_op = r.outputs.len();
        let cells: Vec<Cell> = expand(spec);
        let total = cells.len();
        let queue = Mutex::new(cells.into_iter().enumerate().collect::<VecDeque<_>>());
        let done = Mutex::new(0usize);
        let epoch = t.epoch();
        let start = Instant::now();
        let logs: Vec<Tracer> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..WORKERS as u32)
                .map(|w| {
                    let (queue, done) = (&queue, &done);
                    scope.spawn(move || {
                        let mut t = Tracer::on(epoch, w + 1);
                        loop {
                            let next = queue.lock().expect("queue lock").pop_front();
                            let Some((i, cell)) = next else { break t };
                            t.op((first_op + i) as u64, |t| {
                                traced_cell(t, &cell, store, done, total);
                            });
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        r.wall_s += secs(start);
        for log in logs {
            t.absorb(log);
        }
    }
}

/// One cell: `run_cell` (topology, then the trials of
/// `run_trials_detailed` one by one) plus the pool's checkpoint and
/// heartbeat.
fn traced_cell(t: &mut Tracer, cell: &Cell, store: &ShardStore, done: &Mutex<usize>, total: usize) {
    let t0 = Instant::now();
    let topo = steps::build_topology(t, &cell.topo);
    steps::build_routes(t, topo.as_ref());
    let cfg = SimConfig::paragon_like();
    let n = topo.graph().n_nodes();
    let stream = placement_stream(&topo.name(), cell.k);
    let outcomes: Vec<TrialOutcome> = (0..cell.trials)
        .map(|trial| {
            let placement_seed = trial_seed(cell.seed, stream, trial);
            let parts = t.span("optmc.placement", |_| {
                random_placement(n, cell.k, placement_seed)
            });
            let out = steps::multicast(
                t,
                topo.as_ref(),
                &cfg,
                cell.algorithm,
                &parts,
                parts[0],
                cell.bytes,
                None,
            );
            TrialOutcome {
                trial,
                placement_seed,
                latency: out.latency,
                analytic: out.analytic,
                blocked: out.sim.blocked_cycles,
                contention_free: out.sim.contention_free(),
                events: out.sim.meta.events_processed,
                wall_ns: out.sim.meta.wall_ns,
            }
        })
        .collect();
    steps::drop_topology(t, topo);
    let wall_ms = t0.elapsed().as_millis() as u64;
    t.span("campaign.store", |_| {
        let mut done = done.lock().expect("state lock");
        *done += 1;
        let events = outcomes.iter().map(|o| o.events).sum();
        store
            .append_cell(&CellRecord {
                key: cell.key(),
                topo: cell.topo.clone(),
                algorithm: cell.algorithm.id().to_string(),
                k: cell.k,
                bytes: cell.bytes,
                trials: cell.trials,
                seed: cell.seed,
                outcomes,
                wall_ms,
            })
            .expect("checkpoint");
        let mut hist = telem::Histogram::default();
        hist.record(wall_ms);
        let _ = store.append_heartbeat(&campaign::Heartbeat {
            seq: *done as u64,
            elapsed_ms: 0,
            total,
            done: *done,
            executed: *done,
            failed: 0,
            skipped: 0,
            in_flight: 0,
            workers: WORKERS,
            events,
            cell_wall_ms: wall_ms,
            cell_ms_hist: hist,
            eta_ms: 0,
        });
    });
}

/// Read back a finished campaign: per-cell outputs in grid order, with
/// invariants, plus the figure dataset's digest.
fn collect(spec: &CampaignSpec, store: &ShardStore, r: &mut Round) {
    let records = store.load_cells().expect("shard store reads");
    let by_key: BTreeMap<&str, &CellRecord> = records.iter().map(|c| (c.key.as_str(), c)).collect();
    for cell in expand(spec) {
        let key = cell.key();
        let label = format!(
            "{} {} k={} b={}",
            cell.topo,
            cell.algorithm.id(),
            cell.k,
            cell.bytes
        );
        let (digest, error) = match by_key.get(key.as_str()) {
            None => (0, Some("cell missing from the shard store".to_string())),
            Some(rec) if rec.outcomes.len() != cell.trials => (
                0,
                Some(format!("{} of {} trials", rec.outcomes.len(), cell.trials)),
            ),
            Some(rec) => (outcome_digest(&rec.outcomes), None),
        };
        r.outputs.push(OpOut {
            label,
            digest,
            error,
        });
    }
    let cycles: u64 = records
        .iter()
        .flat_map(|c| &c.outcomes)
        .map(|o| o.latency)
        .sum();
    r.sentinels
        .push((format!("{}.sim_cycles_total", spec.name), cycles));
    match campaign::figure_from_records(spec, &records) {
        Ok(fig) => r.sentinels.push((
            format!("{}.json", fig.id),
            fnv(figure_json(&fig).as_bytes()),
        )),
        Err(e) => r.outputs.push(OpOut {
            label: format!("{} figure", spec.name),
            digest: 0,
            error: Some(e),
        }),
    }
}

impl Workload for PaperSweep {
    const NAME: &'static str = "paper_sweep";
    const SHAPE: (&'static str, usize) = ("closed", WORKERS);
    const EXPECTED: &'static str = include_str!("../expected/paper_sweep.txt");

    fn setup(ctx: &Ctx) -> Self {
        let specs: Vec<CampaignSpec> = SPECS
            .iter()
            .map(|s| {
                CampaignSpec::from_json(&s.replace("SEED", &ctx.seed.to_string()))
                    .expect("benchmark spec parses")
            })
            .collect();
        // Warm-up: one whole untraced round.
        let mut w = PaperSweep { specs, round: 0 };
        std::hint::black_box(w.round(ctx, &mut Tracer::off()).outputs.len());
        w
    }

    fn round(&mut self, ctx: &Ctx, t: &mut Tracer) -> Round {
        let mut r = Round::default();
        self.round += 1;
        for spec in &self.specs {
            let store = PaperSweep::store(ctx, self.round, spec);
            // A panic leaves cells out of the store, which `collect` reports.
            let _ = catch_unwind(AssertUnwindSafe(|| {
                if t.is_on() {
                    PaperSweep::traced(spec, &store, t, &mut r);
                } else {
                    PaperSweep::untraced(spec, &store, &mut r);
                }
            }));
            collect(spec, &store, &mut r);
            let _ = std::fs::remove_dir_all(store.dir());
        }
        let _ = std::fs::remove_dir_all(ctx.work.join(format!("r{}", self.round)));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sentinel(name: &str) -> u64 {
        PaperSweep::EXPECTED
            .lines()
            .find_map(|l| l.strip_prefix(&format!("sentinel {name} ")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no committed sentinel {name}"))
    }

    /// At the default seed the regenerated figure datasets are the
    /// committed ones, byte for byte.
    #[test]
    fn committed_figures_match_the_repository_results() {
        for fig in ["fig2", "fig3"] {
            let path = format!("{}/../results/{fig}.json", env!("CARGO_MANIFEST_DIR"));
            let bytes = std::fs::read(&path).expect("committed figure dataset");
            assert_eq!(fnv(&bytes), sentinel(&format!("{fig}.json")), "{path}");
        }
    }
}
