//! The traced decomposition of the program's composite calls into the
//! public calls beneath them, one span per call.  Each function here must
//! do exactly the work of the composite it mirrors; the harness checks
//! that traced and untraced outputs are identical.

use flitsim::{Engine, SimConfig, SimResult, TraceSink};
use mtree::Schedule;
use optmc::program::McastProgram;
use optmc::Algorithm;
use topo::{NodeId, Topology};

use crate::trace::Tracer;
use crate::util::proc_status_mb;

/// `optmc::spec::parse_topology` in a `topo.build` span.
pub fn build_topology(t: &mut Tracer, spec: &str) -> Box<dyn Topology> {
    t.add("topo.builds", 1.0);
    t.span("topo.build", |_| optmc::spec::parse_topology(spec))
        .unwrap_or_else(|e| panic!("topology {spec}: {e}"))
}

/// The first `route_table()` call on a fresh topology (the engine would
/// otherwise make it inside `Engine::new`), with the resident-set growth
/// across it.
pub fn build_routes(t: &mut Tracer, topo: &dyn Topology) {
    let before = proc_status_mb("VmRSS");
    t.span("topo.route_table", |_| {
        std::hint::black_box(topo.route_table());
    });
    t.peak("topo.route_table_rss_mb", proc_status_mb("VmRSS") - before);
}

/// Dropping a topology frees its route table, which is not free on the
/// large instances; the composite pays it at the end of the operation.
pub fn drop_topology(t: &mut Tracer, topo: Box<dyn Topology>) {
    t.span("topo.drop", |_| drop(topo));
}

/// What [`multicast`] returns: the fields of `optmc::RunOutcome` the
/// benchmark checks.
pub struct Mcast {
    /// Observed latency.
    pub latency: u64,
    /// Analytic bound.
    pub analytic: u64,
    /// The simulator result.
    pub sim: SimResult,
}

/// `optmc::run_multicast_observed` (no temporal scheduling, model ports =
/// topology ports), decomposed.  The caller has already built the routes.
#[allow(clippy::too_many_arguments)]
pub fn multicast(
    t: &mut Tracer,
    topo: &dyn Topology,
    cfg: &SimConfig,
    alg: Algorithm,
    parts: &[NodeId],
    src: NodeId,
    bytes: u64,
    observer: Option<TraceSink>,
) -> Mcast {
    let k = parts.len();
    let (hold, end) = t.span("optmc.model_pair", |_| {
        let hops = optmc::runner::nominal_hops(topo, parts, src);
        cfg.effective_pair_ports(hops, bytes, topo.graph().ports() as u64)
    });
    let chain = t.span("optmc.chain", |_| alg.chain(topo, parts, src));
    let splits = t.span("mtree.dp", |_| alg.splits(hold, end, k.max(2)));
    let schedule = t.span("mtree.schedule", |_| {
        Schedule::build(k, chain.src_pos(), &splits, hold, end)
    });
    let analytic = schedule.latency();
    let (root, first, program) = t.span("optmc.program", |_| {
        let program = McastProgram::new(chain, splits, bytes, topo.graph().n_nodes())
            .with_addr_overhead(cfg.addr_bytes);
        (program.root(), program.root_sends(), program)
    });
    let mut engine = t.span("flitsim.engine_new", |_| {
        let mut e = Engine::new(topo, cfg.clone(), program);
        if let Some(sink) = observer {
            e.set_observer(sink);
        }
        e
    });
    let (program, mut sim) = t.span("flitsim.run", |_| {
        engine.start(root, 0, first);
        engine.run()
    });
    t.add("flitsim.events", sim.meta.events_processed as f64);
    t.add("flitsim.blocked_cycles", sim.blocked_cycles as f64);
    t.peak("flitsim.peak_heap_events", sim.meta.peak_heap_events as f64);
    assert_eq!(
        program.deliveries(),
        program.n_dests(),
        "multicast did not reach everyone"
    );
    let latency = sim.last_completion().unwrap_or(0);
    if latency < analytic {
        sim.trace.push(flitsim::trace::TraceEvent {
            t: latency,
            worm: 0,
            channel: None,
            node: None,
            kind: flitsim::trace::TraceKind::Anomaly,
        });
    }
    Mcast {
        latency,
        analytic,
        sim,
    }
}
