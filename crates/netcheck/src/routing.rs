//! Routing-function lints: termination, minimality, and conformance to the
//! architecture's routing discipline.
//!
//! These are whole-function checks — every ordered `(src, dst)` pair is
//! walked — so a pass is a certificate, not a sample.  Failures surface as
//! structured diagnostics ([`crate::diag`]) rather than panics: the typed
//! [`topo::RoutingError`] from [`Topology::try_det_path`] becomes an
//! `NC0101` finding with the offending pair as its node span.

use std::collections::VecDeque;
use std::ops::Range;

use topo::{ChannelId, Endpoint, NodeId, RoutingError, Topology};

use crate::diag::{Diagnostic, Report, Severity};
use crate::par;

/// The routing discipline a topology claims to follow; the lint proves the
/// deterministic routes actually do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Discipline {
    /// Dimension-ordered (e-cube / XY) routing: the sequence of dimensions a
    /// path corrects must be non-decreasing.  `dims` are the side lengths,
    /// first dimension least significant in the router index.
    DimensionOrder {
        /// Side lengths of the mesh/torus, matching the router numbering.
        dims: Vec<usize>,
    },
    /// BMIN turnaround routing: stage numbers along the path climb
    /// monotonically to the turn, then descend monotonically — `up* down*`.
    Turnaround {
        /// Switches per stage (`n_nodes / 2`); stage of router `r` is
        /// `r.idx() / width`.
        width: usize,
    },
    /// No discipline asserted; only termination and minimality are checked.
    Unconstrained,
}

impl Discipline {
    fn name(&self) -> &'static str {
        match self {
            Discipline::DimensionOrder { .. } => "dimension-order (e-cube)",
            Discipline::Turnaround { .. } => "turnaround (up* then down*)",
            Discipline::Unconstrained => "unconstrained",
        }
    }
}

/// BFS router-hop distances from `start` over the router graph, into
/// `dist` (resized to the router count; `queue` is scratch).
fn router_distances(adj: &[Vec<u32>], start: u32, dist: &mut Vec<u32>, queue: &mut VecDeque<u32>) {
    dist.clear();
    dist.resize(adj.len(), u32::MAX);
    dist[start as usize] = 0;
    queue.clear();
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        for &w in &adj[v as usize] {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dist[v as usize] + 1;
                queue.push_back(w);
            }
        }
    }
}

/// Check one path's dimension sequence; returns a violation description.
/// Router indices are mixed-radix over `dims`, first dimension least
/// significant; each hop's digits are peeled off in place.
fn dimension_order_violation(dims: &[usize], routers: &[u32]) -> Option<String> {
    let mut highest = 0usize;
    for pair in routers.windows(2) {
        let (mut a, mut b) = (pair[0] as usize, pair[1] as usize);
        let (mut changed, mut dim) = (0usize, 0usize);
        for (d, &m) in dims.iter().enumerate() {
            if a % m != b % m {
                changed += 1;
                dim = d;
            }
            a /= m;
            b /= m;
        }
        if changed != 1 {
            return Some(format!(
                "link {} -> {} changes {changed} dimensions at once",
                pair[0], pair[1]
            ));
        }
        if dim < highest {
            return Some(format!(
                "corrects dimension {dim} after already routing dimension {highest}"
            ));
        }
        highest = dim;
    }
    None
}

/// Check one path's stage sequence for `up* down*`.
fn turnaround_violation(width: usize, routers: &[u32]) -> Option<String> {
    let mut descending = false;
    for pair in routers.windows(2) {
        let (sa, sb) = (pair[0] as usize / width, pair[1] as usize / width);
        if sb == sa + 1 {
            if descending {
                return Some(format!("climbs to stage {sb} after already descending"));
            }
        } else if sa == sb + 1 {
            descending = true;
        } else {
            return Some(format!("jumps from stage {sa} to stage {sb}"));
        }
    }
    None
}

/// How many pairs failed one check, and the first of them in `(src, dst)`
/// order.
struct Tally<T> {
    count: usize,
    first: Option<T>,
}

impl<T> Tally<T> {
    fn new() -> Self {
        Tally {
            count: 0,
            first: None,
        }
    }

    fn record(&mut self, finding: T) {
        self.count += 1;
        self.first.get_or_insert(finding);
    }

    /// Fold in the tally of a later source range.
    fn absorb(&mut self, later: Self) {
        self.count += later.count;
        if self.first.is_none() {
            self.first = later.first;
        }
    }
}

/// The findings of one source range.
struct Findings {
    pairs: usize,
    route_errors: Tally<(NodeId, NodeId, RoutingError)>,
    non_minimal: Tally<(NodeId, NodeId, usize, usize)>,
    discipline_bad: Tally<(NodeId, NodeId, String)>,
}

impl Findings {
    fn absorb(&mut self, later: Self) {
        self.pairs += later.pairs;
        self.route_errors.absorb(later.route_errors);
        self.non_minimal.absorb(later.non_minimal);
        self.discipline_bad.absorb(later.discipline_bad);
    }
}

/// Lint the deterministic route of every ordered pair whose source lies in
/// `sources`.  `adj` is the router graph, for minimality.
fn lint_sources(
    topo: &dyn Topology,
    discipline: &Discipline,
    adj: &[Vec<u32>],
    sources: Range<u32>,
) -> Findings {
    let g = topo.graph();
    let n = g.n_nodes() as u32;
    let mut f = Findings {
        pairs: 0,
        route_errors: Tally::new(),
        non_minimal: Tally::new(),
        discipline_bad: Tally::new(),
    };
    let mut path: Vec<ChannelId> = Vec::new();
    let mut routers: Vec<u32> = Vec::new();
    // Distances from the last entry router; a source's pairs all enter at
    // its injection router, so this is one BFS per source at most.
    let (mut dist, mut dist_root, mut queue) = (Vec::new(), None, VecDeque::new());
    for s in sources {
        for d in 0..n {
            if s == d {
                continue;
            }
            f.pairs += 1;
            let (src, dst) = (NodeId(s), NodeId(d));
            if let Err(e) = topo.try_det_path_into(src, dst, &mut path) {
                f.route_errors.record((src, dst, e));
                continue;
            }
            // Router sequence: dst router of every channel except the final
            // consumption hop.
            routers.clear();
            routers.extend(
                path[..path.len() - 1]
                    .iter()
                    .filter_map(|&c| g.dst_router(c).map(|r| r.0)),
            );
            let (entry, exit) = (routers[0], *routers.last().expect("non-empty"));
            if dist_root != Some(entry) {
                router_distances(adj, entry, &mut dist, &mut queue);
                dist_root = Some(entry);
            }
            let (actual, minimal) = (path.len() - 2, dist[exit as usize] as usize);
            if actual > minimal {
                f.non_minimal.record((src, dst, actual, minimal));
            }
            let violation = match discipline {
                Discipline::DimensionOrder { dims } => dimension_order_violation(dims, &routers),
                Discipline::Turnaround { width } => turnaround_violation(*width, &routers),
                Discipline::Unconstrained => None,
            };
            if let Some(v) = violation {
                f.discipline_bad.record((src, dst, v));
            }
        }
    }
    f
}

/// Lint every ordered pair's deterministic route, appending findings (and
/// positive certifications) to `report`.
pub fn lint_routing(topo: &dyn Topology, discipline: &Discipline, report: &mut Report) {
    lint_routing_split(topo, discipline, report, par::cores());
}

/// [`lint_routing`] with an explicit source-range count.
pub(crate) fn lint_routing_split(
    topo: &dyn Topology,
    discipline: &Discipline,
    report: &mut Report,
    chunks: usize,
) {
    let g = topo.graph();
    // Router-graph adjacency for minimality BFS.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); g.n_routers()];
    for ch in g.channels() {
        if let (Endpoint::Router(a), Endpoint::Router(b)) = (ch.src, ch.dst) {
            if !adj[a.idx()].contains(&b.0) {
                adj[a.idx()].push(b.0);
            }
        }
    }
    let mut parts = par::by_source(g.n_nodes(), chunks, |sources| {
        lint_sources(topo, discipline, &adj, sources)
    })
    .into_iter();
    let mut f = parts.next().expect("at least one source range");
    for part in parts {
        f.absorb(part);
    }
    let pairs = f.pairs;

    match f.route_errors.first {
        None => report.push(Diagnostic::new(
            Severity::Info,
            "NC0104",
            format!("routing terminates at the correct destination for all {pairs} ordered pairs"),
        )),
        Some((s, d, e)) => report.push(
            Diagnostic::new(
                Severity::Error,
                "NC0101",
                format!(
                    "routing failed for {} of {pairs} pairs; first: {e}",
                    f.route_errors.count
                ),
            )
            .with_nodes(vec![s, d])
            .with_help("the routing function must reach every destination's consumption channel"),
        ),
    }
    match f.non_minimal.first {
        None => report.push(Diagnostic::new(
            Severity::Info,
            "NC0105",
            "every deterministic route is minimal in router hops",
        )),
        Some((s, d, a, m)) => report.push(
            Diagnostic::new(
                Severity::Warning,
                "NC0102",
                format!(
                    "{} of {pairs} routes exceed the minimal router distance; \
                     first: {} -> {} takes {a} hops, minimal is {m}",
                    f.non_minimal.count, s.0, d.0
                ),
            )
            .with_nodes(vec![s, d]),
        ),
    }
    match (discipline, f.discipline_bad.first) {
        (Discipline::Unconstrained, _) => {}
        (_, None) => {
            report.push(Diagnostic::new(
                Severity::Info,
                "NC0106",
                format!("all routes follow the {} discipline", discipline.name()),
            ));
        }
        (_, Some((s, d, v))) => {
            report.push(
                Diagnostic::new(
                    Severity::Error,
                    "NC0103",
                    format!(
                        "{} of {pairs} routes violate the {} discipline; \
                         first: {} -> {} {v}",
                        f.discipline_bad.count,
                        discipline.name(),
                        s.0,
                        d.0
                    ),
                )
                .with_nodes(vec![s, d]),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo::{Bmin, Mesh, Torus, UpPolicy};

    fn lint(topo: &dyn Topology, d: &Discipline) -> Report {
        let mut r = Report::new(topo.name());
        lint_routing(topo, d, &mut r);
        r
    }

    #[test]
    fn mesh_passes_all_lints_under_dimension_order() {
        let m = Mesh::new(&[4, 4]);
        let r = lint(&m, &Discipline::DimensionOrder { dims: vec![4, 4] });
        assert_eq!(
            r.max_severity(),
            Some(Severity::Info),
            "{}",
            r.render_human()
        );
        // All three positive certifications present.
        for code in ["NC0104", "NC0105", "NC0106"] {
            assert!(
                r.diagnostics.iter().any(|d| d.code == code),
                "{code} missing"
            );
        }
    }

    #[test]
    fn bmin_passes_under_turnaround() {
        let b = Bmin::new(4, UpPolicy::Straight);
        let r = lint(&b, &Discipline::Turnaround { width: 8 });
        assert_eq!(
            r.max_severity(),
            Some(Severity::Info),
            "{}",
            r.render_human()
        );
    }

    #[test]
    fn torus_follows_dimension_order_and_minimality() {
        let t = Torus::new(&[4, 3]);
        let r = lint(&t, &Discipline::DimensionOrder { dims: vec![4, 3] });
        assert_eq!(
            r.max_severity(),
            Some(Severity::Info),
            "{}",
            r.render_human()
        );
    }

    #[test]
    fn wrong_discipline_is_flagged() {
        // A mesh linted as a turnaround BMIN: its router indices don't form
        // stages, so stage deltas are garbage and NC0103 must fire.
        let m = Mesh::new(&[4, 4]);
        let r = lint(&m, &Discipline::Turnaround { width: 8 });
        assert!(r.has_errors(), "{}", r.render_human());
        assert!(r.diagnostics.iter().any(|d| d.code == "NC0103"));
    }

    #[test]
    fn source_split_does_not_change_the_lint_report() {
        // Pinned from the sequential pass: count and first pair included.
        let m = Mesh::new(&[4, 4]);
        let d = Discipline::Turnaround { width: 8 };
        for chunks in [1, 2, 3, 7] {
            let mut r = Report::new(m.name());
            lint_routing_split(&m, &d, &mut r, chunks);
            let nc0103: Vec<_> = r
                .diagnostics
                .iter()
                .filter(|d| d.code == "NC0103")
                .collect();
            assert_eq!(nc0103.len(), 1, "{chunks} chunks");
            assert_eq!(
                nc0103[0].message,
                "232 of 240 routes violate the turnaround (up* then down*) discipline; \
                 first: 0 -> 1 jumps from stage 0 to stage 0",
                "{chunks} chunks"
            );
            assert_eq!(nc0103[0].nodes, vec![NodeId(0), NodeId(1)]);
            assert_eq!(r.render_human(), lint(&m, &d).render_human());
        }
    }

    #[test]
    fn dimension_order_checker_catches_reversed_hops() {
        // Router walk on a 4x4 grid that corrects dim 1 then dim 0.
        let dims = vec![4, 4];
        assert!(dimension_order_violation(&dims, &[0, 4, 5]).is_some());
        assert!(dimension_order_violation(&dims, &[0, 1, 5]).is_none());
        assert_eq!(
            dimension_order_violation(&dims, &[0, 5]).as_deref(),
            Some("link 0 -> 5 changes 2 dimensions at once")
        );
        assert_eq!(
            dimension_order_violation(&dims, &[0, 4, 5]).as_deref(),
            Some("corrects dimension 0 after already routing dimension 1")
        );
    }

    #[test]
    fn turnaround_checker_rejects_down_then_up() {
        // width 4: routers 0..4 stage 0, 4..8 stage 1, 8..12 stage 2.
        assert!(turnaround_violation(4, &[8, 4, 9]).is_some());
        assert!(turnaround_violation(4, &[0, 4, 8, 5, 1]).is_none());
        assert!(turnaround_violation(4, &[0, 8]).is_some(), "stage jump");
    }
}
