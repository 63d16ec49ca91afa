//! Reference oracle for the CDG: the straightforward per-pair walk that
//! inserts every dependency into a `HashSet<(u32, u32)>` and re-buckets
//! it.  The production walk ([`crate::cdg`]) deduplicates into per-channel
//! lists and splits the sources across cores; both must yield the same
//! edge set and the same witness cycles.

use std::collections::HashSet;

use topo::{Bmin, ChannelId, Mesh, NodeId, Omega, Topology, Torus, UpPolicy};

use crate::cdg::{analyze, analyze_split, cycles_in, dependencies};

/// Every dependency edge over all ordered pairs and all candidate branches.
fn reference_edges(topo: &dyn Topology) -> HashSet<(u32, u32)> {
    let g = topo.graph();
    let nc = g.n_channels();
    let n = g.n_nodes();
    let mut edges: HashSet<(u32, u32)> = HashSet::new();
    let mut stamp = vec![0u32; nc];
    let mut generation = 0u32;
    let mut queue: Vec<ChannelId> = Vec::new();
    let mut cand: Vec<ChannelId> = Vec::new();
    for s in 0..n as u32 {
        for d in 0..n as u32 {
            if s == d {
                continue;
            }
            generation += 1;
            queue.clear();
            for &inj in g.injections(NodeId(s)) {
                stamp[inj.idx()] = generation;
                queue.push(inj);
            }
            while let Some(c) = queue.pop() {
                let Some(r) = g.dst_router(c) else {
                    continue;
                };
                cand.clear();
                topo.route_candidates(r, NodeId(s), NodeId(d), &mut cand);
                for &next in &cand {
                    edges.insert((c.0, next.0));
                    if stamp[next.idx()] != generation {
                        stamp[next.idx()] = generation;
                        queue.push(next);
                    }
                }
            }
        }
    }
    edges
}

/// The reference edge set re-bucketed into sorted successor lists.
fn reference_adjacency(nc: usize, edges: &HashSet<(u32, u32)>) -> Vec<Vec<u32>> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nc];
    for &(a, b) in edges {
        adj[a as usize].push(b);
    }
    for list in &mut adj {
        list.sort_unstable();
    }
    adj
}

fn assert_matches_reference(topo: &dyn Topology) {
    let name = topo.name();
    let edges = reference_edges(topo);
    let reference = reference_adjacency(topo.graph().n_channels(), &edges);
    for chunks in [1, 2, 3] {
        let adj = dependencies(topo, chunks);
        assert_eq!(adj, reference, "{name}: edge lists, {chunks} chunks");
    }
    let a = analyze(topo);
    assert_eq!(a.n_channels, topo.graph().n_channels(), "{name}");
    assert_eq!(a.n_edges, edges.len(), "{name}: edge count");
    assert_eq!(a.cycles, cycles_in(&reference), "{name}: witness cycles");
    assert_eq!(a.cycles, analyze_split(topo, 1).cycles, "{name}");
    for cycle in &a.cycles {
        assert_eq!(cycle.first(), cycle.last(), "{name}: witness not closed");
        for hop in cycle.windows(2) {
            assert!(
                edges.contains(&(hop[0].0, hop[1].0)),
                "{name}: witness edge {:?} -> {:?} not in the reference CDG",
                hop[0],
                hop[1]
            );
        }
    }
}

#[test]
fn meshes_match_the_reference() {
    assert_matches_reference(&Mesh::new(&[6, 6]));
    assert_matches_reference(&Mesh::with_ports(&[4, 4], 2));
    assert_matches_reference(&Mesh::hypercube(4));
}

#[test]
fn tori_match_the_reference() {
    assert_matches_reference(&Torus::new(&[4, 4]));
    assert_matches_reference(&Torus::new(&[5, 3]));
    let cyclic = Torus::unvirtualized(&[4, 4]);
    assert!(!analyze(&cyclic).is_acyclic());
    assert_matches_reference(&cyclic);
    assert_matches_reference(&Torus::unvirtualized(&[8]));
}

#[test]
fn multistage_networks_match_the_reference() {
    for policy in [UpPolicy::Straight, UpPolicy::DestColumn] {
        assert_matches_reference(&Bmin::new(5, policy));
    }
    assert_matches_reference(&Omega::new(4));
}
