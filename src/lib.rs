//! Large Scale Real-time Ridesharing with Service Guarantee on Road Networks.
//!
//! This is the umbrella crate of the workspace: it re-exports the individual
//! crates so applications can depend on a single name, and hosts the
//! runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`).
//!
//! The workspace reproduces Huang, Jin, Bastani and Wang's VLDB 2014 paper:
//!
//! * [`roadnet`] — road-network graph engine, shortest paths, hub labels,
//!   the paper's distance cache and synthetic network generators;
//! * [`spatial`] — the grid-based moving-object index used to pre-filter
//!   candidate vehicles;
//! * [`mip`] (crate `rideshare-mip`) — a from-scratch simplex +
//!   branch-and-bound solver backing the MIP baseline;
//! * [`core`] (crate `kinetic-core`) — the scheduling model, the brute
//!   force / branch-and-bound / MIP matchers and the kinetic tree with
//!   slack-time filtering and hotspot clustering;
//! * [`sim`] (crate `rideshare-sim`) — the real-time simulation framework
//!   with ACRT/ART/occupancy metrics;
//! * [`workload`] (crate `rideshare-workload`) — synthetic Shanghai-like
//!   road networks and taxi demand streams;
//! * [`serve`] (crate `rideshare-serve`) — the online dispatch service
//!   mode: open-loop arrivals, a bounded ingress queue with SLO-gated
//!   admission, and exact serving metrics folded inline.
//!
//! # Quickstart
//!
//! ```
//! use ridesharing::prelude::*;
//!
//! // A small synthetic city and a burst of trip requests.
//! let workload = Workload::generate(
//!     &CityConfig::small(),
//!     &DemandConfig { trips: 50, ..DemandConfig::default() },
//!     7,
//! );
//! let oracle = CachedOracle::without_labels(&workload.network);
//!
//! // A fleet of 10 taxis matched with the kinetic tree (slack-time variant).
//! let config = SimConfig {
//!     vehicles: 10,
//!     planner: PlannerKind::Kinetic(KineticConfig::slack()),
//!     ..SimConfig::default()
//! };
//! let mut sim = Simulation::new(&workload.network, &oracle, config);
//! let report = sim.run(&workload.trips);
//! assert_eq!(report.guarantee_violations, 0);
//! ```

pub use kinetic_core as core;
pub use rideshare_mip as mip;
pub use rideshare_serve as serve;
pub use rideshare_sim as sim;
pub use rideshare_workload as workload;
pub use roadnet;
pub use spatial;

/// The most commonly used types, importable with one `use`.
pub mod prelude {
    pub use kinetic_core::{
        AssignmentOutcome, BranchBoundSolver, BruteForceSolver, Constraints, Dispatcher,
        DispatcherConfig, KineticConfig, KineticTree, MipScheduleSolver, PlannerKind,
        ScheduleSolver, SchedulingProblem, SolverKind, SolverOutcome, Stop, StopKind, TripRequest,
        Vehicle, WaitingTrip,
    };
    pub use rideshare_serve::{
        PoissonArrivals, ServeConfig, ServeLoop, ServeReport, ServiceModel, SloConfig,
        TraceArrivals,
    };
    pub use rideshare_sim::{SimConfig, SimReport, Simulation};
    pub use rideshare_workload::{CityConfig, DemandConfig, TripEvent, Workload};
    pub use roadnet::{
        CachedOracle, DijkstraEngine, DistanceOracle, GeneratorConfig, GraphBuilder, HubLabels,
        NetworkKind, NodeId, NodeLocator, Point, RoadNetwork, ShortestPathEngine,
    };
    pub use spatial::{GridIndex, Position};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_types() {
        use crate::prelude::*;
        let c = Constraints::paper_default();
        assert_eq!(c.max_wait, 8_400.0);
        let cfg = SimConfig::default();
        assert_eq!(cfg.speed_mps, 14.0);
    }
}
