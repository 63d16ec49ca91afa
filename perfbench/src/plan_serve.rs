//! `plan_serve`: one in-process client in a closed loop driving the sans-io
//! `plansvc::Engine` with `handle` and `poll`, running each `Compute` work
//! order with `plansvc::compute_plan` as the serve shell does.  One
//! operation is one request line.  Parsing, the plan cache, rendering and
//! the OPT DP dominate here, and every miss pays for a topology.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use flitsim::SimConfig;
use mtree::Schedule;
use plansvc::{Command, Engine, EngineConfig, Input, PlanBody, PlanRequest};
use serde_json::Value;

use crate::harness::{closed_loop, Ctx, OpOut, Round, Workload};
use crate::steps;
use crate::trace::Tracer;
use crate::util::{fnv, median, mix};

/// Plan-cache entries, as `optmc serve --capacity 256` would configure.
const CAPACITY: usize = 256;
/// Distinct keys in the hot set; well under the capacity.
const HOT: usize = 48;
/// Length of the hot/fresh mix before and after the eviction stretch.
const MIXED: usize = 800;
/// Distinct fresh keys in a row, enough to evict the whole hot set.
const STRETCH: usize = 300;

/// What the generator knows a line should get.
#[derive(Debug)]
enum Expect {
    /// A valid request; `hit` is `Some` where the cache outcome is certain
    /// whatever the eviction policy.
    Plan {
        members: Vec<u32>,
        hit: Option<bool>,
    },
    /// A rejected line whose error message contains this text.
    Error(&'static str),
}

/// Malformed and out-of-range lines, each with the error it must get.
const BAD: [(&str, &str); 8] = [
    (r#"{"topo": "mesh:16x16", "k": 8"#, "bad JSON"),
    ("[1, 2, 3]", "JSON object"),
    (r#"{"alg": "opt-arch", "k": 8}"#, "missing 'topo'"),
    (
        r#"{"topo": "mesh:16x16", "alg": "fastest", "k": 8}"#,
        "unknown algorithm",
    ),
    (
        r#"{"topo": "mesh:16x16", "members": [0, 99999]}"#,
        "out of range",
    ),
    (r#"{"topo": "bmin:512", "k": 100000}"#, "out of range"),
    (
        r#"{"topo": "mesh:16x16", "members": [3, 5, 3]}"#,
        "distinct",
    ),
    (r#"{"topo": "mesh:16x16", "k": 8, "hold": 40}"#, "together"),
];

/// The topology of the `i`-th distinct key of its kind: half of the
/// misses build the 4096-node mesh.  The shares are fixed, not drawn, so
/// the 90th percentile sits inside the largest class on every seed.
const TOPOS: [(&str, usize); 4] = [
    ("mesh:16x16", 256),
    ("mesh:64x64", 4096),
    ("bmin:512", 512),
    ("mesh:64x64", 4096),
];

/// Request `id` for the `i`-th distinct key of its kind: a seeded
/// placement (`k` + `seed`) or, every fifth fresh key, the same kind of
/// placement spelled out as `members`.  Hot keys are all seeded
/// 16-member placements, so hits (whose cost grows with the line and the
/// plan) form one class and the median lands inside it; fresh keys cycle
/// through 8 to 64 members.
fn request(id: usize, hot: bool, i: usize, seed: u64) -> (String, Vec<u32>) {
    let (topo, n) = TOPOS[i % TOPOS.len()];
    let k = if hot {
        16
    } else {
        [8usize, 16, 32, 64][(i / TOPOS.len()) % 4]
    };
    let seed = seed % 1_000_000;
    let members: Vec<u32> = optmc::random_placement(n, k, seed)
        .iter()
        .map(|m| m.0)
        .collect();
    let line = if !hot && i % 5 == 4 {
        let list: Vec<String> = members.iter().map(u32::to_string).collect();
        format!(
            r#"{{"id": {id}, "topo": "{topo}", "bytes": 4096, "members": [{}]}}"#,
            list.join(", ")
        )
    } else {
        format!(r#"{{"id": {id}, "topo": "{topo}", "alg": "opt-arch", "k": {k}, "seed": {seed}}}"#)
    };
    (line, members)
}

/// The round's request stream: a hot/fresh mix (80% repeats of a hot
/// set, 15% fresh placements, 5% bad lines), a stretch of fresh keys that
/// overflows the cache, then the mix again.  Hits are about 60% of the
/// lines, so the median falls among hits and the 90th percentile among
/// misses.
fn stream(seed: u64) -> Vec<(String, Expect)> {
    // A key is (kind, index): kind 0 is the hot set, kind 1 fresh keys.
    let key_seed = |kind: u64, i: usize| mix(seed ^ mix((kind << 32) | i as u64));
    let mut out: Vec<(String, Expect)> = Vec::new();
    let mut round_seen: BTreeSet<(u64, usize)> = BTreeSet::new();
    let mut fresh = 0usize;
    for phase in 0..3 {
        let mut phase_seen: BTreeSet<(u64, usize)> = BTreeSet::new();
        let len = if phase == 1 {
            STRETCH + STRETCH / 19
        } else {
            MIXED
        };
        for j in 0..len {
            if j % 20 == 19 {
                let (line, want) = BAD[(out.len() / 20) % BAD.len()];
                out.push((line.to_string(), Expect::Error(want)));
                continue;
            }
            let key = if phase == 1 || j % 20 >= 16 {
                fresh += 1;
                (1, fresh)
            } else {
                (0, (j * 7 + phase) % HOT)
            };
            let hit = if !round_seen.contains(&key) {
                Some(false)
            } else if phase == 0 && phase_seen.contains(&key) {
                // Before the stretch the cache never fills, so a repeat
                // must hit under any eviction policy.
                Some(true)
            } else {
                None
            };
            round_seen.insert(key);
            phase_seen.insert(key);
            let (line, members) = request(out.len(), key.0 == 0, key.1, key_seed(key.0, key.1));
            out.push((line, Expect::Plan { members, hit }));
        }
    }
    out
}

/// `plansvc::compute_plan` (no certificate, derived pair), decomposed.
/// As there, the topology is dropped after every intermediate.
fn traced_compute(t: &mut Tracer, req: &PlanRequest) -> PlanBody {
    let topo = steps::build_topology(t, &req.topo);
    let body = plan_body(t, topo.as_ref(), req);
    steps::drop_topology(t, topo);
    body
}

fn plan_body(t: &mut Tracer, topo: &dyn topo::Topology, req: &PlanRequest) -> PlanBody {
    let src = req.members[0];
    let k = req.members.len();
    let cfg = SimConfig::paragon_like();
    let (hold, end) = t.span("optmc.model_pair", |_| {
        let hops = optmc::runner::nominal_hops(topo, &req.members, src);
        match req.params {
            Some(pair) => pair,
            None => cfg.effective_pair_ports(hops, req.bytes, topo.graph().ports() as u64),
        }
    });
    let chain = t.span("optmc.chain", |_| {
        req.algorithm.chain(topo, &req.members, src)
    });
    let splits = t.span("mtree.dp", |_| req.algorithm.splits(hold, end, k));
    let schedule = t.span("mtree.schedule", |_| {
        Schedule::build(k, chain.src_pos(), &splits, hold, end)
    });
    t.span("plansvc.body", |_| PlanBody {
        topo: req.topo.clone(),
        algorithm: req.algorithm.id().to_string(),
        k,
        bytes: req.bytes,
        hold,
        end,
        latency: schedule.latency(),
        depth: schedule.depth(),
        chain: chain.nodes().iter().map(|n| n.0).collect(),
        sends: schedule
            .sends
            .iter()
            .map(|s| (chain.node(s.from).0, chain.node(s.to).0, s.start, s.arrive))
            .collect(),
        certificate: None,
    })
}

/// Feed one line and drain the engine, computing work orders in line.
fn serve_line(t: &mut Tracer, engine: &mut Engine, id: u64, text: &str) -> Vec<(u64, String)> {
    let mut responses = Vec::new();
    t.span("plansvc.handle", |_| {
        engine.handle(Input::Line {
            id,
            text: text.to_string(),
        });
    });
    while let Some(cmd) = t.span("plansvc.poll", |_| engine.poll()) {
        match cmd {
            Command::Respond { id, line } => responses.push((id, line)),
            Command::Compute { key, request } => {
                let result = t.span("plansvc.compute", |t| {
                    if t.is_on() {
                        Ok(traced_compute(t, &request))
                    } else {
                        plansvc::compute_plan(&request, &plansvc::PlanOptions::default())
                    }
                });
                let result = result.map(Box::new);
                t.span("plansvc.handle", |_| {
                    engine.handle(Input::Computed { key, result });
                });
            }
        }
    }
    responses
}

/// Check one response against what the generator expects.
fn check(expect: &Expect, id: u64, responses: &[(u64, String)]) -> Result<u64, String> {
    let [(rid, line)] = responses else {
        return Err(format!("{} responses", responses.len()));
    };
    if *rid != id {
        return Err(format!("answered id {rid}"));
    }
    let v: Value = serde_json::from_str(line).map_err(|e| format!("bad response JSON: {e:?}"))?;
    let ok = v.get("ok") == Some(&Value::Bool(true));
    match expect {
        Expect::Error(want) => {
            let msg = v.get("error").and_then(Value::as_str).unwrap_or("");
            if ok || !msg.contains(want) {
                return Err(format!("expected an error containing '{want}', got {line}"));
            }
        }
        Expect::Plan { members, hit } => {
            if !ok {
                return Err(format!("valid request refused: {line}"));
            }
            let cached = v.get("cached") == Some(&Value::Bool(true));
            if hit.is_some_and(|h| h != cached) {
                return Err(format!("cached={cached}, expected {hit:?}"));
            }
            let plan = v.get("plan").ok_or("no plan")?;
            let ids = |name: &str| -> Vec<u64> {
                plan.get(name)
                    .and_then(Value::as_array)
                    .map(|a| a.iter().filter_map(Value::as_u64).collect())
                    .unwrap_or_default()
            };
            let mut chain = ids("chain");
            chain.sort_unstable();
            let mut want: Vec<u64> = members.iter().map(|&m| u64::from(m)).collect();
            want.sort_unstable();
            if chain != want {
                return Err("plan chain is not the member set".into());
            }
            // Every destination is sent to exactly once, by a node that
            // already holds the message.
            let mut informed: BTreeSet<u64> = BTreeSet::from([u64::from(members[0])]);
            let sends = plan
                .get("sends")
                .and_then(Value::as_array)
                .map(<[Value]>::to_vec)
                .unwrap_or_default();
            for s in &sends {
                let (Some(from), Some(to)) = (
                    s.as_array().and_then(|a| a.first()).and_then(Value::as_u64),
                    s.as_array().and_then(|a| a.get(1)).and_then(Value::as_u64),
                ) else {
                    return Err("malformed send".into());
                };
                if !informed.contains(&from) || !informed.insert(to) {
                    return Err(format!("send {from}->{to} out of order or repeated"));
                }
            }
            if informed.len() != members.len() {
                return Err(format!(
                    "{} of {} members reached",
                    informed.len(),
                    members.len()
                ));
            }
        }
    }
    Ok(fnv(line.as_bytes()))
}

pub struct PlanServe {
    lines: Vec<(String, Expect)>,
}

impl Workload for PlanServe {
    const NAME: &'static str = "plan_serve";
    const SHAPE: (&'static str, usize) = ("closed, 1 client", 1);
    const EXPECTED: &'static str = include_str!("../expected/plan_serve.txt");

    fn setup(ctx: &Ctx) -> Self {
        let w = PlanServe {
            lines: stream(ctx.seed),
        };
        // Warm-up: the whole stream once, on a throwaway engine.
        let mut engine = Engine::new(EngineConfig { capacity: CAPACITY });
        for (i, (line, _)) in w.lines.iter().enumerate() {
            std::hint::black_box(serve_line(&mut Tracer::off(), &mut engine, i as u64, line));
        }
        w
    }

    fn round(&mut self, _ctx: &Ctx, t: &mut Tracer) -> Round {
        let mut r = Round::default();
        let first_span = t.spans.len();
        // A fresh engine per round: every round replays the same stream
        // from an empty cache, so responses repeat byte for byte.
        let mut engine = Engine::new(EngineConfig { capacity: CAPACITY });
        let mut hit_us = Vec::new();
        let mut miss_us = Vec::new();
        let lines = &self.lines;
        r.wall_s = closed_loop(
            t,
            lines.len(),
            &mut r.op_cal,
            |t, i| serve_line(t, &mut engine, i as u64, &lines[i].0),
            |i, ms, res| {
                let expect = &lines[i].1;
                r.op_ms.push(ms);
                let (digest, error) = match res {
                    Err(_) => (0, Some("panicked".to_string())),
                    Ok(responses) => {
                        if let Expect::Plan { .. } = expect {
                            let cached = responses
                                .first()
                                .is_some_and(|(_, l)| l.contains(r#""cached":true"#));
                            if cached { &mut hit_us } else { &mut miss_us }.push(ms * 1e3);
                        }
                        match check(expect, i as u64, &responses) {
                            Ok(d) => (d, None),
                            Err(e) => (0, Some(e)),
                        }
                    }
                };
                r.outputs.push(OpOut {
                    label: format!("line {i}"),
                    digest,
                    error,
                });
            },
        );
        let stats = engine.stats();
        r.sentinels = vec![
            ("hits".into(), stats.hits),
            ("misses".into(), stats.misses),
            ("evictions".into(), stats.evictions),
            ("errors".into(), stats.errors),
            ("dp_runs".into(), stats.dp_runs),
        ];
        if t.is_on() {
            t.add("plansvc.dp_runs", stats.dp_runs as f64);
            let mut per_op: HashMap<u64, u64> = HashMap::new();
            for s in &t.spans[first_span..] {
                if s.name == "plansvc.handle" || s.name == "plansvc.poll" {
                    *per_op.entry(s.op).or_default() += s.dur_ns();
                }
            }
            let engine_us: Vec<f64> = per_op.values().map(|&ns| ns as f64 * 1e-3).collect();
            // The engine parses inside `handle`, so parsing is timed on
            // its own, over the same lines, outside the operations.
            let parse_us: Vec<f64> = self
                .lines
                .iter()
                .map(|(line, _)| {
                    let t0 = Instant::now();
                    std::hint::black_box(plansvc::parse_line(line).is_ok());
                    t0.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            r.extras = vec![
                ("plansvc.engine_us", median(&engine_us)),
                ("plansvc.parse_us", median(&parse_us)),
                ("plansvc.hit_us", median(&hit_us)),
                ("plansvc.miss_us", median(&miss_us)),
                (
                    "plansvc.hit_ratio",
                    stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
                ),
            ];
        }
        r
    }
}
