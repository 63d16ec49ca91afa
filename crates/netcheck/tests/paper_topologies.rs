//! The static certificates of the paper's evaluation networks, pinned.
//!
//! `optmc check --topo mesh:16x16 | torus:16x16 | bmin:128` prints these
//! channel, dependency and pair counts; any change to the CDG walk or the
//! routing lints that moves one of them changes what was certified.

use netcheck::{check_topology, Discipline, Report};
use topo::{Bmin, Mesh, Topology, Torus, UpPolicy};

fn message<'a>(r: &'a Report, code: &str) -> &'a str {
    let found: Vec<_> = r.diagnostics.iter().filter(|d| d.code == code).collect();
    assert_eq!(found.len(), 1, "{code} in\n{}", r.render_human());
    &found[0].message
}

fn assert_certified(
    topo: &dyn Topology,
    discipline: Discipline,
    channels: usize,
    deps: usize,
    pairs: usize,
) {
    let r = check_topology(topo, &discipline);
    assert!(!r.has_errors(), "{}", r.render_human());
    assert_eq!(
        message(&r, "NC0002"),
        format!(
            "channel dependency graph is acyclic ({channels} channels, {deps} dependencies): \
             wormhole routing cannot deadlock"
        )
    );
    assert_eq!(
        message(&r, "NC0104"),
        format!("routing terminates at the correct destination for all {pairs} ordered pairs")
    );
    message(&r, "NC0105");
    message(&r, "NC0106");
}

#[test]
fn mesh_16x16() {
    let dims = vec![16, 16];
    assert_certified(
        &Mesh::new(&dims),
        Discipline::DimensionOrder { dims },
        1472,
        3716,
        65280,
    );
}

#[test]
fn torus_16x16() {
    let dims = vec![16, 16];
    assert_certified(
        &Torus::new(&dims),
        Discipline::DimensionOrder { dims },
        2560,
        5280,
        65280,
    );
}

#[test]
fn bmin_128() {
    assert_certified(
        &Bmin::new(7, UpPolicy::Straight),
        Discipline::Turnaround { width: 64 },
        1792,
        3968,
        16256,
    );
}
