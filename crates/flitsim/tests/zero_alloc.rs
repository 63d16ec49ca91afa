//! Steady-state simulation steps must not touch the heap.
//!
//! The engine pre-sizes all per-run state (channel table, event-queue node
//! pool, scratch buffers), recycles worm slots, and routes through
//! functions that read the topology's link arrays, so once a run is warmed
//! up, processing more events performs no further allocations.  A counting
//! global allocator pins this: per topology, a long run processes hundreds
//! more events than a short one, yet allocates at most a handful more times
//! (first-touch growth of the path/pool buffers).

use flitsim::program::SinkProgram;
use flitsim::{Engine, SendReq, SimConfig, SoftwareModel};
use topo::{Bmin, Mesh, NodeId, Topology, Torus, UpPolicy};

#[global_allocator]
static COUNTER: allocmeter::Counting = allocmeter::Counting;

/// The allocation counter is process-global, so the two tests below must not
/// measure concurrently — a sibling's engine warm-up would bleed into the
/// probe window.  Each test holds this for its whole body.
static MEASURE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A topology with a short and a long workload: node 0 sends one 4 KB
/// message to each listed destination.  Both workloads send the same
/// number of messages, so only the hop count differs.
type Input = (Box<dyn Topology>, &'static [u32], &'static [u32]);

/// The 64-node line, plus one instance per other routing function.  BMIN
/// paths are at most `2 * stages` hops, so its workloads send eight
/// messages each: inside the source's 8-node block, or across the top
/// stage.
fn inputs() -> [Input; 4] {
    [
        (Box::new(Mesh::new(&[64])), &[3], &[63]),
        (Box::new(Mesh::new(&[32, 32])), &[1], &[1023]),
        (Box::new(Torus::new(&[64, 64])), &[1], &[32 + 32 * 64]),
        (
            Box::new(Bmin::new(10, UpPolicy::Straight)),
            &[1, 2, 3, 4, 5, 6, 7, 1],
            &[1023, 1022, 1021, 1020, 1019, 1018, 1017, 1016],
        ),
    ]
}

/// Run node 0's sends to `dests` and return `(events_processed,
/// allocations during Engine::run)`, optionally under the counters-only
/// observer.
fn run_sends(topo: &dyn Topology, dests: &[u32], counters: bool) -> (u64, u64) {
    let cfg = SimConfig {
        software: SoftwareModel::zero(),
        ..SimConfig::paragon_like()
    };
    let mut e = Engine::new(topo, cfg, SinkProgram);
    if counters {
        e.set_observer(flitsim::TraceSink::counters());
    }
    let sends = dests
        .iter()
        .map(|&d| SendReq::to(NodeId(d), 4096, ()))
        .collect();
    e.start(NodeId(0), 0, sends);
    let before = allocmeter::allocations();
    let (_, res) = e.run();
    let allocs = allocmeter::allocations() - before;
    (res.meta.events_processed, allocs)
}

/// The long-vs-short assertion on every input.
fn assert_flat_allocations(counters: bool) {
    for (topo, short, long) in inputs() {
        let (topo, name) = (&*topo, topo.name());
        let (short_events, _) = run_sends(topo, short, counters);
        // Second short run: buffers for this workload shape are now warm in
        // a fresh engine too, giving the fair per-run baseline.
        let (short_events_2, short_allocs) = run_sends(topo, short, counters);
        assert_eq!(
            short_events, short_events_2,
            "{name}: engine must be deterministic"
        );

        let (long_events, long_allocs) = run_sends(topo, long, counters);
        assert!(
            long_events > short_events + 100,
            "{name}: long run must process far more events \
             (short {short_events}, long {long_events})"
        );
        // The long run walks far more hops but may allocate only a constant
        // amount more (longer path Vecs + a few event-pool growth
        // doublings), never per-event or per-hop.
        assert!(
            long_allocs <= short_allocs + 24,
            "{name}: allocations scale with events (counters observer: {counters}): \
             short run {short_allocs} allocs ({short_events} events), \
             long run {long_allocs} allocs ({long_events} events)"
        );
    }
}

#[test]
fn event_processing_does_not_allocate_per_event() {
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    assert_flat_allocations(false);
}

#[test]
fn counters_observer_and_telem_flush_do_not_allocate_per_event() {
    // The telemetry substrate's core promise: the counters-only observer
    // (per-event `u64` tallies) and the end-of-run bulk flush into the
    // `telem` statics add ZERO steady-state allocations — the allocation
    // profile under `TraceSink::counters()` is identical in shape to the
    // unobserved engine's.
    let _serial = MEASURE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    assert_flat_allocations(true);

    // A telem counter update itself is allocation-free.
    telem::counter!(PROBE, "zero_alloc_probe_total", "allocmeter probe");
    let before = allocmeter::allocations();
    for _ in 0..10_000 {
        PROBE.inc();
    }
    assert_eq!(
        allocmeter::allocations() - before,
        0,
        "Counter::inc must not touch the heap"
    );
    assert_eq!(PROBE.get(), 10_000);
}
