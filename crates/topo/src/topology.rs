//! The [`Topology`] trait — everything the simulator and the schedulers need
//! to know about a network.

use crate::graph::{ChannelId, NetworkGraph, NodeId, RouterId};

/// Why a deterministic route could not be materialised.
///
/// Routing bugs used to surface as panics deep inside the contention
/// checker; static analysis wants them as *findings*, so the walk is
/// fallible and the panic lives only in the infallible convenience wrapper
/// [`Topology::det_path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingError {
    /// `src == dst` — a node does not route to itself.
    SelfRoute {
        /// The node in question.
        node: NodeId,
    },
    /// The routing function returned no candidate at an intermediate router.
    NoCandidate {
        /// Router where the worm was stranded.
        at: RouterId,
        /// Worm source.
        src: NodeId,
        /// Worm destination.
        dst: NodeId,
    },
    /// The walk exceeded the channel count without reaching a consumption
    /// channel — the routing function loops.
    NonTerminating {
        /// Worm source.
        src: NodeId,
        /// Worm destination.
        dst: NodeId,
        /// Number of hops taken before giving up (= channel count + 1).
        hops: usize,
    },
    /// The path ended on a consumption channel of the wrong node.
    WrongConsumption {
        /// Worm source.
        src: NodeId,
        /// Intended destination.
        dst: NodeId,
        /// Node actually reached (if the channel leads to one).
        reached: Option<NodeId>,
    },
}

impl std::fmt::Display for RoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingError::SelfRoute { node } => {
                write!(f, "no path from a node to itself ({node:?})")
            }
            RoutingError::NoCandidate { at, src, dst } => {
                write!(
                    f,
                    "routing {src:?} -> {dst:?} returned no candidate at {at:?}"
                )
            }
            RoutingError::NonTerminating { src, dst, hops } => {
                write!(
                    f,
                    "routing from {src:?} to {dst:?} did not terminate ({hops} hops)"
                )
            }
            RoutingError::WrongConsumption { src, dst, reached } => {
                write!(
                    f,
                    "routing {src:?} -> {dst:?} consumed at the wrong node ({reached:?})"
                )
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// A wormhole network: a channel graph plus a routing function and the
/// architecture-specific total order (chain) over nodes.
pub trait Topology: Send + Sync {
    /// The channel graph.
    fn graph(&self) -> &NetworkGraph;

    /// Append the preference-ordered candidate output channels at router `r`
    /// for a worm from `src` headed to `dest`.  Deterministic topologies
    /// yield exactly one candidate; the BMIN up-phase yields two.  When the
    /// worm has reached `dest`'s router the single candidate is the
    /// consumption channel.
    ///
    /// This is the one routing function: the simulator calls it on every
    /// hop of every worm, and the static checkers walk paths through it.
    /// Implementations are O(dimensions) or O(1) reads of the topology's own
    /// link arrays and must not allocate beyond pushing onto `out`.
    fn route_candidates(&self, r: RouterId, src: NodeId, dest: NodeId, out: &mut Vec<ChannelId>);

    /// The architecture's chain-ordering key: dimension-ordered (`<_d`) for
    /// meshes, lexicographic (binary address value) for BMINs.  Sorting nodes
    /// by this key yields the chain OPT-mesh/OPT-min split.
    fn chain_key(&self, n: NodeId) -> u64;

    /// Human-readable topology name for reports.
    fn name(&self) -> String;

    /// Fallible form of [`Topology::det_path`]: the deterministic path from
    /// `src` to `dst` following first-preference candidates, or a typed
    /// [`RoutingError`] when the routing function misbehaves.  Static
    /// analysis (`netcheck`) reports these as diagnostics instead of
    /// aborting.
    fn try_det_path(&self, src: NodeId, dst: NodeId) -> Result<Vec<ChannelId>, RoutingError> {
        let mut path = Vec::new();
        self.try_det_path_into(src, dst, &mut path).map(|()| path)
    }

    /// [`Topology::try_det_path`] into a caller-owned buffer, so an
    /// all-pairs walk reuses one allocation.  `path` is cleared first; on
    /// error it holds the partial walk.
    fn try_det_path_into(
        &self,
        src: NodeId,
        dst: NodeId,
        path: &mut Vec<ChannelId>,
    ) -> Result<(), RoutingError> {
        path.clear();
        if src == dst {
            return Err(RoutingError::SelfRoute { node: src });
        }
        let g = self.graph();
        path.push(g.injection(src));
        let mut at = g
            .dst_router(g.injection(src))
            .expect("injection leads to a router");
        // A worm never needs more hops than channels exist.
        for _ in 0..=g.n_channels() {
            // The candidates land after the walk so far; the first-preference
            // one stays as the next hop.
            let hop = path.len();
            self.route_candidates(at, src, dst, path);
            let Some(&next) = path.get(hop) else {
                return Err(RoutingError::NoCandidate { at, src, dst });
            };
            path.truncate(hop + 1);
            match g.dst_router(next) {
                Some(r) => at = r,
                None => {
                    if g.dst_node(next) != Some(dst) {
                        return Err(RoutingError::WrongConsumption {
                            src,
                            dst,
                            reached: g.dst_node(next),
                        });
                    }
                    return Ok(());
                }
            }
        }
        Err(RoutingError::NonTerminating {
            src,
            dst,
            hops: g.n_channels() + 1,
        })
    }

    /// The deterministic path from `src` to `dst`, injection and consumption
    /// channels inclusive, following first-preference candidates.  This is
    /// the path the static contention checker reasons about.
    ///
    /// # Panics
    /// If `src == dst` (a node does not route to itself) or routing fails to
    /// make progress (a topology bug).  Use [`Topology::try_det_path`] to
    /// get a typed error instead.
    fn det_path(&self, src: NodeId, dst: NodeId) -> Vec<ChannelId> {
        match self.try_det_path(src, dst) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of router-to-router hops on the deterministic path.
    fn distance(&self, src: NodeId, dst: NodeId) -> usize {
        if src == dst {
            0
        } else {
            // path = injection + (hops between routers) + consumption.
            self.det_path(src, dst).len().saturating_sub(2)
        }
    }

    /// Sort `nodes` into this topology's chain order (stable, by
    /// [`Topology::chain_key`]).
    fn sort_chain(&self, nodes: &mut [NodeId]) {
        nodes.sort_by_key(|&n| self.chain_key(n));
    }
}

impl dyn Topology + '_ {
    /// Does nothing and returns 0, the bytes of routing state it built:
    /// routing has no build step.  This exists only so the benchmark's
    /// `topo.route_table` span still compiles, and goes away with that
    /// span.  (A unit return would trip clippy's `unit_arg` at the span's
    /// `black_box` call.)
    pub fn route_table(&self) -> usize {
        0
    }
}
