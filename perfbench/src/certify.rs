//! `certify`: `optmc check` operations, one thread, closed loop.  Each
//! `--alg` check runs the channel-dependency graph, the routing lints, the
//! windowed schedule check and the validator-observed differential run;
//! each `--set` check certifies a schedule set and re-verifies its
//! certificate against a joint simulation.  netcheck is O(N^2 * path), and
//! this is the only workload that runs it.

use std::collections::BTreeMap;

use campaign::workload::{generate_specs, Arrivals, WorkloadSpec};
use flitsim::SimConfig;
use mtree::Schedule;
use netcheck::{Diagnostic, PlanCertificate, Report, ScheduleSet, Severity};
use optmc::{check_schedule_windowed, random_placement, Algorithm, OccupancyParams};
use optmc_cli::args::Args;
use topo::{NodeId, Topology};

use crate::harness::{closed_loop, Ctx, OpOut, Round, Workload};
use crate::steps;
use crate::trace::Tracer;
use crate::util::{fnv, mix};

const BYTES: u64 = 4096;

/// One `optmc check` invocation.
#[derive(Debug)]
enum Check {
    /// `check --topo T --alg A --nodes K --seed S`.
    Alg {
        topo: &'static str,
        alg: &'static str,
        k: usize,
        seed: u64,
    },
    /// `check --topo T --set --nodes K --count C --seed S [--disjoint]`.
    Set {
        topo: &'static str,
        k: usize,
        count: usize,
        seed: u64,
        disjoint: bool,
    },
}

impl Check {
    fn argv(&self) -> Vec<String> {
        let mut v: Vec<String> = match self {
            Check::Alg { topo, alg, k, seed } => vec![
                "check".into(),
                "--topo".into(),
                (*topo).into(),
                "--alg".into(),
                (*alg).into(),
                "--nodes".into(),
                k.to_string(),
                "--seed".into(),
                seed.to_string(),
            ],
            Check::Set {
                topo,
                k,
                count,
                seed,
                disjoint,
            } => {
                let mut v: Vec<String> = vec![
                    "check".into(),
                    "--topo".into(),
                    (*topo).into(),
                    "--set".into(),
                    "--nodes".into(),
                    k.to_string(),
                    "--count".into(),
                    count.to_string(),
                    "--seed".into(),
                    seed.to_string(),
                ];
                if *disjoint {
                    v.push("--disjoint".into());
                }
                v
            }
        };
        v.extend(["--bytes".into(), BYTES.to_string(), "--json".into()]);
        v
    }
}

/// One round, 167 checks.  The one 32x32-mesh check costs as much as
/// forty others, so it comes once; bmin:128 with OPT-min over all 128
/// nodes at seed 1997 is a known contended verdict (one conflict,
/// confirmed by 467 blocked cycles) and comes once whatever the seed.
/// The rest cycle through the algorithms, group sizes and both kinds of
/// schedule set, so clean and contended verdicts are both common.
///
/// bmin:128 checks (about 100 ms each here) are 28% of the stream and the
/// 16x16 mesh, torus and set checks (120 to 220 ms) 71%, so the median
/// falls a third of the way into the second, broad class rather than on
/// the step between the two, where it would jump whenever the two
/// classes' latencies shift against each other.
fn stream(seed: u64) -> Vec<Check> {
    const PATTERN: [&str; 11] = [
        "bmin:128",
        "mesh:16x16",
        "torus:16x16",
        "set",
        "bmin:128",
        "mesh:16x16",
        "torus:16x16",
        "bmin:128",
        "mesh:16x16",
        "torus:16x16",
        "set",
    ];
    const ALGS: [&str; 3] = ["opt-arch", "opt-tree", "u-arch"];
    const KS: [usize; 3] = [16, 32, 64];
    let s = |i: usize| mix(seed ^ mix(i as u64)) % 1_000_000;
    let mut ops = vec![
        Check::Alg {
            topo: "mesh:32x32",
            alg: "opt-mesh",
            k: 64,
            seed: s(0),
        },
        Check::Alg {
            topo: "bmin:128",
            alg: "opt-min",
            k: 128,
            seed: 1997,
        },
    ];
    let mut sets = 0;
    for i in 0..15 * PATTERN.len() {
        let seed = s(ops.len());
        // Each position of the pattern walks through all nine (algorithm,
        // group size) pairs over nine repetitions, from its own start.
        let c = i / PATTERN.len() + i % PATTERN.len();
        ops.push(match PATTERN[i % PATTERN.len()] {
            "set" => {
                sets += 1;
                Check::Set {
                    topo: "mesh:16x16",
                    k: [8, 16][sets % 2],
                    count: 4,
                    seed,
                    disjoint: sets % 4 < 2,
                }
            }
            topo => Check::Alg {
                topo,
                alg: ALGS[c % 3],
                k: KS[(c / 3) % 3],
                seed,
            },
        });
    }
    ops
}

pub struct Certify {
    ops: Vec<Check>,
}

/// The discipline `optmc check` lints against (the CLI's own mapping).
fn discipline(t: &mut Tracer, spec: &str) -> netcheck::Discipline {
    t.span("cli.spec", |_| optmc_cli::spec::discipline_for(spec))
        .unwrap_or_else(|e| panic!("{spec}: {e}"))
}

/// `netcheck::check_topology`, decomposed.
fn topology_report(t: &mut Tracer, topo: &dyn Topology, d: &netcheck::Discipline) -> Report {
    let mut report = Report::new(topo.name());
    let a = t.span("netcheck.cdg", |_| netcheck::cdg::analyze(topo));
    t.add("netcheck.cdg_edges", a.n_edges as f64);
    if a.is_acyclic() {
        report.push(Diagnostic::new(
            Severity::Info,
            "NC0002",
            format!(
                "channel dependency graph is acyclic ({} channels, {} dependencies): \
                 wormhole routing cannot deadlock",
                a.n_channels, a.n_edges
            ),
        ));
    } else {
        for cycle in &a.cycles {
            report.push(
                Diagnostic::new(
                    Severity::Error,
                    "NC0001",
                    format!(
                        "channel dependency cycle of length {}: wormhole deadlock is reachable",
                        cycle.len() - 1
                    ),
                )
                .with_channels(cycle.clone())
                .with_help(
                    "break the cycle with virtual channels (e.g. dateline virtualization on \
                     torus wrap links) or a more restrictive routing function",
                ),
            );
        }
    }
    t.span("netcheck.lint", |_| {
        netcheck::lint_routing(topo, d, &mut report);
    });
    report
}

fn cfg() -> SimConfig {
    // `optmc check` disables adaptivity: the windowed replay and the
    // differential oracle are exact only for deterministic routing.
    let mut cfg = SimConfig::paragon_like();
    cfg.adaptive = false;
    cfg
}

/// `optmc check --alg`, decomposed (mirrors the CLI's `cmd_check`, finding
/// for finding and message for message).  The topology outlives every
/// intermediate, as it does there.
fn traced_alg(t: &mut Tracer, spec: &str, alg: &str, k: usize, seed: u64) -> String {
    let topo = steps::build_topology(t, spec);
    let json = alg_report(t, topo.as_ref(), spec, alg, k, seed);
    steps::drop_topology(t, topo);
    json
}

fn alg_report(
    t: &mut Tracer,
    topo: &dyn Topology,
    spec: &str,
    alg: &str,
    k: usize,
    seed: u64,
) -> String {
    steps::build_routes(t, topo);
    let d = discipline(t, spec);
    let mut report = topology_report(t, topo, &d);
    let alg = Algorithm::parse(alg).expect("known algorithm");
    let cfg = cfg();
    let n = topo.graph().n_nodes();
    let parts = t.span("optmc.placement", |_| random_placement(n, k, seed));
    let src = parts[0];
    let (hold, end) = t.span("optmc.model_pair", |_| {
        let hops = optmc::runner::nominal_hops(topo, &parts, src);
        cfg.effective_pair_ports(hops, BYTES, topo.graph().ports() as u64)
    });
    let chain = t.span("optmc.chain", |_| alg.chain(topo, &parts, src));
    let splits = t.span("mtree.dp", |_| alg.splits(hold, end, k.max(2)));
    let schedule = t.span("mtree.schedule", |_| {
        Schedule::build(k, chain.src_pos(), &splits, hold, end)
    });
    report.target = format!(
        "{} on {} (k={k}, {BYTES} bytes, seed {seed})",
        alg.display_name(topo),
        topo.name()
    );
    let conflicts = t
        .span("optmc.windowed_check", |_| {
            let params = OccupancyParams::from_config(&cfg, BYTES);
            check_schedule_windowed(topo, &chain, &schedule, &params)
        })
        .expect("schedule paths materialise");
    if let Some(c) = conflicts.first() {
        report.push(
            Diagnostic::new(
                Severity::Error,
                "NC0201",
                format!(
                    "windowed occupancy analysis finds {} conflicting \
                     (send pair, channel) overlaps; first overlap spans cycles {}..{}",
                    conflicts.len(),
                    c.from,
                    c.until
                ),
            )
            .with_nodes(vec![
                chain.node(schedule.sends[c.send_a].from),
                chain.node(schedule.sends[c.send_a].to),
                chain.node(schedule.sends[c.send_b].from),
                chain.node(schedule.sends[c.send_b].to),
            ])
            .with_channels(vec![c.channel]),
        );
    } else {
        report.push(Diagnostic::new(
            Severity::Info,
            "NC0202",
            format!(
                "windowed occupancy analysis certifies the schedule contention-free \
                 ({} sends, deterministic routing)",
                schedule.sends.len()
            ),
        ));
    }
    let (blocked, validation) = t.span("netcheck.validated_run", |t| {
        let (validator, handle) = netcheck::Validator::new(topo.graph());
        let out = steps::multicast(
            t,
            topo,
            &cfg,
            alg,
            &parts,
            src,
            BYTES,
            Some(validator.into_sink()),
        );
        (out.sim.blocked_cycles, handle.summary())
    });
    if !validation.ok() {
        report.push(
            Diagnostic::new(
                Severity::Error,
                "NC0301",
                format!(
                    "simulator run violated {} engine invariant(s); first: {}",
                    validation.n_violations.max(validation.outstanding),
                    validation
                        .violations
                        .first()
                        .map_or("channels left held at finish", String::as_str)
                ),
            )
            .with_help("this is a simulator bug, not a schedule property"),
        );
    }
    if conflicts.is_empty() == (blocked == 0) {
        report.push(Diagnostic::new(
            Severity::Info,
            "NC0203",
            format!(
                "differential oracle agrees: {} static conflicts vs {} blocked cycles \
                 in the simulator",
                conflicts.len(),
                blocked
            ),
        ));
    } else {
        report.push(
            Diagnostic::new(
                Severity::Error,
                "NC0302",
                format!(
                    "static analysis and simulator disagree: {} conflicts predicted \
                     but {} blocked cycles observed",
                    conflicts.len(),
                    blocked
                ),
            )
            .with_help("one of the windowed replay or the engine timing is wrong"),
        );
    }
    render(t, report)
}

/// `optmc check --set`, decomposed (mirrors the CLI's `cmd_check_set`).
fn traced_set(
    t: &mut Tracer,
    spec: &str,
    k: usize,
    count: usize,
    seed: u64,
    disjoint: bool,
) -> String {
    let topo = steps::build_topology(t, spec);
    let json = set_report(t, topo.as_ref(), spec, k, count, seed, disjoint);
    steps::drop_topology(t, topo);
    json
}

fn set_report(
    t: &mut Tracer,
    topo: &dyn Topology,
    spec: &str,
    k: usize,
    count: usize,
    seed: u64,
    disjoint: bool,
) -> String {
    steps::build_routes(t, topo);
    let d = discipline(t, spec);
    let mut report = topology_report(t, topo, &d);
    let cfg = cfg();
    let n = topo.graph().n_nodes();
    let set = t.span("campaign.workload", |_| {
        let mut specs = generate_specs(
            n,
            &WorkloadSpec {
                count,
                k,
                bytes: BYTES,
                arrivals: Arrivals::Poisson { mean_gap: 5000.0 },
                seed,
            },
        );
        if disjoint {
            let pool: Vec<NodeId> = random_placement(n, k * count, seed);
            for (chunk, s) in pool.chunks(k).zip(specs.iter_mut()) {
                s.src = chunk[0];
                s.participants = chunk.to_vec();
            }
        }
        ScheduleSet {
            specs,
            algorithm: Algorithm::OptArch,
        }
    });
    let analysis = t.span("netcheck.schedset", |_| {
        let analysis = netcheck::analyze_set(topo, &cfg, &set).expect("member paths materialise");
        let set_report = netcheck::report_set(topo, &set, &analysis);
        report.target = format!(
            "schedule set: {} (k={k}, {BYTES} bytes, seed {seed})",
            set_report.target
        );
        for d in set_report.diagnostics {
            report.push(d);
        }
        analysis
    });
    let cert = t.span("netcheck.certificate", |_| {
        let cert = PlanCertificate::from_analysis(topo, &set, &analysis);
        let verified = cert.verify();
        (cert, verified)
    });
    report.push(match cert.1 {
        Ok(()) => Diagnostic::new(
            Severity::Info,
            "NC0213",
            format!(
                "plan certificate re-verified independently: {} members, {} channel \
                 windows, verdict '{}'",
                cert.0.multicasts.len(),
                cert.0.windows.len(),
                if cert.0.clean { "clean" } else { "contended" }
            ),
        ),
        Err(e) => Diagnostic::new(
            Severity::Error,
            "NC0213",
            format!("plan certificate failed independent verification: {e}"),
        )
        .with_help("prover and verifier disagree — a netcheck bug, not a schedule property"),
    });
    let case = t.span("netcheck.set_oracle", |_| {
        netcheck::differential_set_case(topo, &cfg, &set)
    });
    report.push(if case.agree {
        Diagnostic::new(
            Severity::Info,
            "NC0203",
            format!(
                "differential set oracle agrees{}: {} conflicts predicted vs {} blocked \
                 cycles in the joint simulation",
                if case.strict {
                    ""
                } else {
                    " (sound direction only; members share nodes)"
                },
                case.conflicts,
                case.blocked_cycles
            ),
        )
    } else {
        Diagnostic::new(
            Severity::Error,
            "NC0302",
            format!(
                "set analysis and joint simulation disagree: {} conflicts predicted \
                 but {} blocked cycles observed",
                case.conflicts, case.blocked_cycles
            ),
        )
        .with_help("one of the shifted window replay or the engine timing is wrong")
    });
    render(t, report)
}

/// Normalize and serialize, as `optmc check --json` prints a report.
fn render(t: &mut Tracer, mut report: Report) -> String {
    t.span("netcheck.render", |_| {
        report.normalize();
        report.to_json()
    })
}

/// Invariants that hold for every seed.
fn invariant_error(check: &Check, report: &Report) -> Option<String> {
    let has = |code: &str, sev: Severity| {
        report
            .diagnostics
            .iter()
            .any(|d| d.code == code && d.severity == sev)
    };
    if has("NC0301", Severity::Error) || has("NC0302", Severity::Error) {
        return Some("simulator invariant or differential oracle failed".into());
    }
    if has("NC0213", Severity::Error) {
        return Some("plan certificate failed verification".into());
    }
    if !has("NC0203", Severity::Info) {
        return Some("no differential oracle verdict".into());
    }
    match check {
        // Theorem 1: OPT-mesh schedules are contention-free on a mesh.
        Check::Alg { topo, alg, .. }
            if topo.starts_with("mesh") && alg.starts_with("opt-") && *alg != "opt-tree" =>
        {
            (!has("NC0202", Severity::Info)).then(|| "OPT-mesh schedule not certified clean".into())
        }
        Check::Alg {
            topo: "bmin:128",
            k: 128,
            seed: 1997,
            ..
        } => (!has("NC0201", Severity::Error))
            .then(|| "the known BMIN conflict was not reported".into()),
        _ => None,
    }
}

impl Workload for Certify {
    const NAME: &'static str = "certify";
    const SHAPE: (&'static str, usize) = ("closed", 1);
    const EXPECTED: &'static str = include_str!("../expected/certify.txt");

    fn setup(ctx: &Ctx) -> Self {
        let w = Certify {
            ops: stream(ctx.seed),
        };
        // Warm-up: one small check of each kind.
        for op in w.ops.iter().skip(2).take(4) {
            let a = Args::parse(op.argv()).expect("valid argv");
            std::hint::black_box(optmc_cli::commands::dispatch(&a).is_ok());
        }
        w
    }

    fn round(&mut self, _ctx: &Ctx, t: &mut Tracer) -> Round {
        let mut r = Round::default();
        let mut verdicts: BTreeMap<&str, u64> = BTreeMap::new();
        let ops = &self.ops;
        r.wall_s = closed_loop(
            t,
            ops.len(),
            &mut r.op_cal,
            |t, i| {
                if t.is_on() {
                    match ops[i] {
                        Check::Alg { topo, alg, k, seed } => traced_alg(t, topo, alg, k, seed),
                        Check::Set {
                            topo,
                            k,
                            count,
                            seed,
                            disjoint,
                        } => traced_set(t, topo, k, count, seed, disjoint),
                    }
                } else {
                    let a = Args::parse(ops[i].argv()).expect("valid argv");
                    match optmc_cli::commands::dispatch(&a) {
                        Ok(s) | Err(optmc_cli::CliError(s)) => s,
                    }
                }
            },
            |i, ms, res| {
                r.op_ms.push(ms);
                let (digest, error) = match res {
                    Err(_) => (0, Some("panicked".to_string())),
                    Ok(json) => match serde_json::from_str::<Report>(&json) {
                        Err(e) => (0, Some(format!("not a report: {e:?}: {json}"))),
                        Ok(report) => {
                            let contended = report.diagnostics.iter().any(|d| {
                                d.severity == Severity::Error && d.code.starts_with("NC02")
                            });
                            *verdicts
                                .entry(if contended { "contended" } else { "clean" })
                                .or_default() += 1;
                            (fnv(json.as_bytes()), invariant_error(&ops[i], &report))
                        }
                    },
                };
                r.outputs.push(OpOut {
                    label: ops[i].argv()[1..].join(" "),
                    digest,
                    error,
                });
            },
        );
        r.sentinels = verdicts
            .into_iter()
            .map(|(k, v)| (format!("verdicts.{k}"), v))
            .collect();
        r
    }
}
