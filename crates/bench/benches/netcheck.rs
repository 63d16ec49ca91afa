//! Criterion: static-verification passes — channel-dependency-graph
//! deadlock analysis, the full `check` report (CDG + routing lints, at 8×8
//! and at the paper's mesh 16×16, torus 16×16 and bmin 128), and
//! the windowed contention checker that replaced the conservative
//! interval approximation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flitsim::SimConfig;
use mtree::Schedule;
use netcheck::{analyze, check_topology, Discipline};
use optmc::{check_schedule_windowed, random_placement, Algorithm, OccupancyParams};
use std::hint::black_box;
use topo::{Bmin, Mesh, Topology, Torus, UpPolicy};

fn bench_cdg_analyze(c: &mut Criterion) {
    let mesh = Mesh::new(&[8, 8]);
    let bmin = Bmin::new(6, UpPolicy::Straight);
    let torus = Torus::unvirtualized(&[8, 8]);
    c.bench_function("cdg_analyze_mesh8x8", |b| {
        b.iter(|| analyze(black_box(&mesh)));
    });
    c.bench_function("cdg_analyze_bmin64", |b| {
        b.iter(|| analyze(black_box(&bmin)));
    });
    // The interesting case: cycles exist and witnesses must be extracted.
    c.bench_function("cdg_analyze_torus8x8_novc", |b| {
        b.iter(|| analyze(black_box(&torus)));
    });
}

fn bench_check_topology(c: &mut Criterion) {
    // Full report: CDG analysis plus all-pairs routing lints.
    let mesh = Mesh::new(&[8, 8]);
    let mesh_disc = Discipline::DimensionOrder { dims: vec![8, 8] };
    let bmin = Bmin::new(6, UpPolicy::Straight);
    let bmin_disc = Discipline::Turnaround { width: 32 };
    c.bench_function("check_topology_mesh8x8", |b| {
        b.iter(|| check_topology(black_box(&mesh), black_box(&mesh_disc)));
    });
    c.bench_function("check_topology_bmin64", |b| {
        b.iter(|| check_topology(black_box(&bmin), black_box(&bmin_disc)));
    });
    // The paper's evaluation networks, as `optmc check` certifies them.
    let dims = vec![16, 16];
    let mesh16 = Mesh::new(&dims);
    let torus16 = Torus::new(&dims);
    let grid_disc = Discipline::DimensionOrder { dims };
    let bmin128 = Bmin::new(7, UpPolicy::Straight);
    let bmin128_disc = Discipline::Turnaround { width: 64 };
    c.bench_function("check_topology_mesh16x16", |b| {
        b.iter(|| check_topology(black_box(&mesh16), black_box(&grid_disc)));
    });
    c.bench_function("check_topology_torus16x16", |b| {
        b.iter(|| check_topology(black_box(&torus16), black_box(&grid_disc)));
    });
    c.bench_function("check_topology_bmin128", |b| {
        b.iter(|| check_topology(black_box(&bmin128), black_box(&bmin128_disc)));
    });
}

fn bench_windowed_checker(c: &mut Criterion) {
    let mesh = Mesh::new(&[16, 16]);
    let mut cfg = SimConfig::paragon_like();
    cfg.adaptive = false;
    let mut g = c.benchmark_group("check_schedule_windowed_mesh");
    for k in [32usize, 128] {
        let parts = random_placement(256, k, 11);
        let src = parts[0];
        let hops = optmc::runner::nominal_hops(&mesh, &parts, src);
        let (hold, end) = cfg.effective_pair_ports(hops, 4096, mesh.graph().ports() as u64);
        let chain = Algorithm::OptArch.chain(&mesh, &parts, src);
        let splits = Algorithm::OptArch.splits(hold, end, k);
        let sched = Schedule::build(k, chain.src_pos(), &splits, hold, end);
        let params = OccupancyParams::from_config(&cfg, 4096);
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                check_schedule_windowed(
                    &mesh,
                    black_box(&chain),
                    black_box(&sched),
                    black_box(&params),
                )
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_cdg_analyze,
    bench_check_topology,
    bench_windowed_checker
);
criterion_main!(benches);
