//! Stateless schedule solvers.
//!
//! Each solver answers the same question: given a [`SchedulingProblem`]
//! (the unfinished stops of one vehicle plus the new request), what is the
//! minimum-cost valid ordering of those stops? The paper's baselines
//! recompute this from scratch on every request — which is exactly what
//! these types do — while the kinetic tree ([`crate::kinetic`]) maintains
//! the answer incrementally.

mod branch_bound;
mod brute_force;
mod mip;

pub use branch_bound::BranchBoundSolver;
pub use brute_force::BruteForceSolver;
pub use mip::{model_size as mip_model_size, MipBuild, MipFormulation, MipScheduleSolver};

use roadnet::DistanceOracle;

use crate::problem::{Schedule, SchedulingProblem};
use crate::types::Cost;

/// Result of solving one scheduling problem.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverOutcome {
    /// A minimum-cost valid schedule was found.
    Feasible {
        /// Total distance of the schedule from the vehicle's location.
        cost: Cost,
        /// The stop ordering achieving that cost.
        schedule: Schedule,
    },
    /// No ordering of the stops satisfies every constraint.
    Infeasible,
    /// The solver's search budget was exhausted before an answer was proven
    /// (treated as "cannot accommodate" by the dispatcher, mirroring the
    /// paper's break-off behaviour for over-large problems).
    Exhausted,
}

impl SolverOutcome {
    /// The cost if feasible.
    pub fn cost(&self) -> Option<Cost> {
        match self {
            SolverOutcome::Feasible { cost, .. } => Some(*cost),
            _ => None,
        }
    }

    /// The schedule if feasible.
    pub fn schedule(&self) -> Option<&Schedule> {
        match self {
            SolverOutcome::Feasible { schedule, .. } => Some(schedule),
            _ => None,
        }
    }

    /// True when a schedule was produced.
    pub fn is_feasible(&self) -> bool {
        matches!(self, SolverOutcome::Feasible { .. })
    }
}

/// A stateless matcher that solves one vehicle's scheduling problem from
/// scratch.
pub trait ScheduleSolver {
    /// Short name used in experiment reports ("brute-force", "bb", "mip", …).
    fn name(&self) -> &'static str;

    /// Solves the problem against the given distance oracle.
    fn solve(&self, problem: &SchedulingProblem, oracle: &dyn DistanceOracle) -> SolverOutcome;
}

/// Identifier for constructing solvers from experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Exhaustive permutation enumeration.
    BruteForce,
    /// Best-first branch and bound with the minimum-incident-edge bound.
    BranchBound,
    /// Mixed-integer programming formulation (Sec. III-A).
    Mip,
}

impl SolverKind {
    /// Builds the corresponding solver with default options.
    pub fn build(self) -> Box<dyn ScheduleSolver> {
        match self {
            SolverKind::BruteForce => Box::new(BruteForceSolver::default()),
            SolverKind::BranchBound => Box::new(BranchBoundSolver::default()),
            SolverKind::Mip => Box::new(MipScheduleSolver::default()),
        }
    }

    /// All exact solver kinds (used by equivalence tests and benchmarks).
    pub fn exact() -> [SolverKind; 3] {
        [
            SolverKind::BruteForce,
            SolverKind::BranchBound,
            SolverKind::Mip,
        ]
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SolverKind::BruteForce => "brute-force",
            SolverKind::BranchBound => "branch-and-bound",
            SolverKind::Mip => "mip",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solver_kind_builds_named_solvers() {
        assert_eq!(SolverKind::BruteForce.build().name(), "brute-force");
        assert_eq!(SolverKind::BranchBound.build().name(), "branch-and-bound");
        assert_eq!(SolverKind::Mip.build().name(), "mip");
        assert_eq!(SolverKind::Mip.to_string(), "mip");
        assert_eq!(SolverKind::exact().len(), 3);
    }

    #[test]
    fn outcome_accessors() {
        let o = SolverOutcome::Feasible {
            cost: 5.0,
            schedule: vec![],
        };
        assert_eq!(o.cost(), Some(5.0));
        assert!(o.schedule().is_some());
        assert!(o.is_feasible());
        assert_eq!(SolverOutcome::Infeasible.cost(), None);
        assert!(!SolverOutcome::Exhausted.is_feasible());
    }
}
