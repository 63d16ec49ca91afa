//! Differential tests: the allocation-free mesh and torus routing functions
//! must agree with the coordinate-`Vec` reference implementations below on
//! every (router, src, dest) triple.  The simulator routes every hop of
//! every worm through `route_candidates`, so any divergence silently
//! changes simulation results.
//!
//! The references decode full coordinate vectors with the public
//! `coords`/`node_at` and look each link up by its endpoints in the channel
//! graph, sharing no code with the crate's digit-peeling routing functions.

use topo::{ChannelId, Endpoint, Mesh, NetworkGraph, NodeId, RouterId, Topology, Torus};

/// The router-to-router channels from router `a` to node `b`'s router (the
/// two are co-located on a mesh or torus), in creation (id) order.
fn links_to(g: &NetworkGraph, a: RouterId, b: NodeId) -> Vec<ChannelId> {
    let b = Endpoint::Router(RouterId(b.0));
    (0..g.n_channels() as u32)
        .map(ChannelId)
        .filter(|&c| g.channel(c).src == Endpoint::Router(a) && g.channel(c).dst == b)
        .collect()
}

/// The dimension-ordered chain key: coordinates folded with dimension 0
/// most significant.
fn chain_key(dims: &[usize], c: &[usize]) -> u64 {
    let mut key = 0u64;
    for (&dim, &coord) in dims.iter().zip(c) {
        key = key * dim as u64 + coord as u64;
    }
    key
}

/// Reference e-cube routing on a mesh.
fn mesh_route(m: &Mesh, r: RouterId, _src: NodeId, dest: NodeId, out: &mut Vec<ChannelId>) {
    let link = |r: RouterId, d: usize, toward_higher: bool| {
        let mut nc = m.coords(NodeId(r.0));
        if toward_higher {
            nc[d] += 1;
        } else {
            nc[d] -= 1;
        }
        let found = links_to(m.graph(), r, m.node_at(&nc));
        assert_eq!(found.len(), 1, "one mesh link per neighbour pair");
        found[0]
    };
    // Router r is co-located with node r in a mesh.
    let here = m.coords(NodeId(r.0));
    let there = m.coords(dest);
    for d in 0..m.dims().len() {
        if here[d] != there[d] {
            out.push(link(r, d, there[d] > here[d]));
            return;
        }
    }
    out.extend_from_slice(m.graph().consumptions(dest));
}

/// Reference e-cube routing with dateline virtual channels on a torus.
fn torus_route(t: &Torus, r: RouterId, src: NodeId, dest: NodeId, out: &mut Vec<ChannelId>) {
    let dims = t.dims();
    let link = |r: RouterId, d: usize, dir: usize, vc: usize| {
        let m = dims[d];
        let mut nc = t.coords(NodeId(r.0));
        nc[d] = if dir == 0 {
            (nc[d] + 1) % m
        } else {
            (nc[d] + m - 1) % m
        };
        // Channels to one neighbour come in construction order: per
        // direction (both when a side of 2 makes + and − coincide), per VC.
        let found = links_to(t.graph(), r, t.node_at(&nc));
        let per_dir = if t.is_virtualized() { 2 } else { 1 };
        assert_eq!(found.len(), per_dir * if m == 2 { 2 } else { 1 });
        let dir_slot = if m == 2 { dir } else { 0 };
        found[dir_slot * per_dir + if t.is_virtualized() { vc } else { 0 }]
    };
    let here = t.coords(NodeId(r.0));
    let from = t.coords(src);
    let to = t.coords(dest);
    for d in 0..dims.len() {
        if here[d] == to[d] {
            continue;
        }
        let m = dims[d];
        // Direction fixed for the whole dimension by the shortest way
        // from the *source* coordinate (ties go +); recomputing from
        // `here` would agree because moving shrinks the same residue.
        let fwd = (to[d] + m - from[d]) % m;
        let (dir, crossed) = if fwd <= m - fwd {
            // dir = +; the wrap edge m-1 → 0 is crossed once the
            // position falls below the starting coordinate.
            (0, here[d] < from[d])
        } else {
            // dir = −; the wrap edge 0 → m-1 is crossed once the
            // position rises above the starting coordinate.
            (1, here[d] > from[d])
        };
        out.push(link(r, d, dir, usize::from(crossed)));
        return;
    }
    out.extend_from_slice(t.graph().consumptions(dest));
}

type RouteFn<T> = fn(&T, RouterId, NodeId, NodeId, &mut Vec<ChannelId>);

/// Compare `topo.route_candidates` with `reference` on the full triple
/// product, and the chain keys node by node.
fn assert_matches<T: Topology>(
    topo: &T,
    dims: &[usize],
    reference: RouteFn<T>,
    coords: fn(&T, NodeId) -> Vec<usize>,
) {
    let g = topo.graph();
    let n = g.n_nodes() as u32;
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for r in (0..g.n_routers() as u32).map(RouterId) {
        for src in (0..n).map(NodeId) {
            for dest in (0..n).map(NodeId) {
                got.clear();
                want.clear();
                topo.route_candidates(r, src, dest, &mut got);
                reference(topo, r, src, dest, &mut want);
                assert_eq!(
                    got,
                    want,
                    "{} diverges at {r:?}, {src:?} -> {dest:?}",
                    topo.name()
                );
            }
        }
    }
    for node in (0..n).map(NodeId) {
        assert_eq!(
            topo.chain_key(node),
            chain_key(dims, &coords(topo, node)),
            "{}",
            topo.name()
        );
    }
}

#[test]
fn mesh_routing_matches_reference() {
    for mesh in [
        Mesh::new(&[5]),
        Mesh::new(&[4, 4]),
        Mesh::new(&[3, 3, 2]),
        Mesh::with_ports(&[4], 2),
        Mesh::hypercube(3),
    ] {
        assert_matches(&mesh, mesh.dims(), mesh_route, Mesh::coords);
    }
}

#[test]
fn torus_routing_matches_reference() {
    for torus in [
        Torus::new(&[5]),
        Torus::new(&[4, 3]),
        Torus::new(&[2, 2]),
        Torus::unvirtualized(&[4, 4]),
    ] {
        assert_matches(&torus, torus.dims(), torus_route, Torus::coords);
    }
}
