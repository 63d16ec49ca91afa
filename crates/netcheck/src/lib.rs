//! # `netcheck` — static verification for the multicast stack
//!
//! Everything the rest of the workspace *asserts* about a network, this
//! crate *proves* (or refutes, with a witness):
//!
//! * [`cdg`] — Dally–Seitz channel-dependency-graph deadlock analysis over
//!   every branch of [`topo::Topology::route_candidates`]; cycles come back
//!   with concrete witness channel walks.
//! * [`routing`] — whole-function routing lints: termination (every
//!   ordered pair reaches its consumption channel), minimality, and
//!   conformance to the architecture's discipline (dimension-order on
//!   meshes/tori, `up* down*` turnaround on BMINs).
//! * [`diag`] — rustc-style structured diagnostics (`error[NC0001]: …`
//!   with node/channel spans) shared by all analyses; renders human text
//!   or JSON.
//! * [`validate`] — a runtime [`flitsim::Observer`] that checks engine
//!   invariants (exclusive channel holds, acquire/release balance,
//!   monotonic channel-event time, one-port injection) as a simulation
//!   executes.
//! * [`schedset`] — schedule-*set* certification: windowed occupancy
//!   analysis across several concurrently scheduled multicasts, with
//!   cross-schedule interference witnesses.
//! * [`certificate`] — machine-checkable plan certificates (JSON) with an
//!   independent verifier that re-derives the verdict from the interval
//!   population alone.
//! * [`oracle`] — the differential oracle tying both worlds together:
//!   windowed static contention analysis and the instrumented simulator
//!   must agree that a schedule (or a whole set) is clean.
//!
//! The CLI front end is `optmc check`; [`check_topology`] is the
//! library-level entry point it wraps.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cdg;
#[cfg(test)]
mod cdg_oracle;
pub mod certificate;
pub mod diag;
pub mod oracle;
mod par;
pub mod routing;
pub mod schedset;
pub mod validate;

pub use cdg::{analyze, CdgAnalysis};
pub use certificate::{CertError, PlanCertificate};
pub use diag::{Diagnostic, Report, Severity};
pub use oracle::{differential_case, differential_set_case, OracleCase, OracleSetCase};
pub use routing::{lint_routing, Discipline};
pub use schedset::{analyze_set, report_set, ScheduleSet, SetAnalysis};
pub use validate::{ValidationSummary, Validator, ValidatorHandle};

use topo::Topology;

/// Run every static topology-level analysis — deadlock freedom and the
/// routing lints — and collect the findings into one [`Report`].
pub fn check_topology(topo: &dyn Topology, discipline: &Discipline) -> Report {
    let mut report = Report::new(topo.name());
    let a = cdg::analyze(topo);
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
    routing::lint_routing(topo, discipline, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use topo::{Bmin, Mesh, Torus, UpPolicy};

    #[test]
    fn mesh_certifies_clean() {
        let r = check_topology(
            &Mesh::new(&[4, 4]),
            &Discipline::DimensionOrder { dims: vec![4, 4] },
        );
        assert!(!r.has_errors(), "{}", r.render_human());
        assert!(r.diagnostics.iter().any(|d| d.code == "NC0002"));
    }

    #[test]
    fn bmin_certifies_clean() {
        let r = check_topology(
            &Bmin::new(4, UpPolicy::Straight),
            &Discipline::Turnaround { width: 8 },
        );
        assert!(!r.has_errors(), "{}", r.render_human());
    }

    #[test]
    fn unvirtualized_torus_reports_cycles_with_witnesses() {
        let r = check_topology(
            &Torus::unvirtualized(&[4, 4]),
            &Discipline::DimensionOrder { dims: vec![4, 4] },
        );
        assert!(r.has_errors());
        let cycle_diags: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == "NC0001")
            .collect();
        // One cycle per positive-direction wrap ring (see cdg::tests).
        assert_eq!(cycle_diags.len(), 8);
        for d in &cycle_diags {
            assert!(d.channels.len() >= 3, "witness too short: {d:?}");
            assert_eq!(d.channels.first(), d.channels.last());
        }
        // The routing itself is fine — only the dependency structure is not.
        assert!(r.diagnostics.iter().any(|d| d.code == "NC0104"));
    }
}
