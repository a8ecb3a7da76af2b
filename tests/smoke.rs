//! Workspace smoke test: a tiny end-to-end simulation through every
//! planner, exercising the whole cross-crate seam (workload generation →
//! road network + oracle → spatial index → matcher → simulator metrics)
//! in tier-1. The paper's central invariant is that accepted requests
//! never violate their waiting-time or detour guarantees, for any
//! matching algorithm.

use ridesharing::prelude::*;

fn planners() -> Vec<(&'static str, PlannerKind)> {
    vec![
        ("brute-force", PlannerKind::Solver(SolverKind::BruteForce)),
        ("branch-bound", PlannerKind::Solver(SolverKind::BranchBound)),
        ("mip", PlannerKind::Solver(SolverKind::Mip)),
        ("tree-basic", PlannerKind::Kinetic(KineticConfig::basic())),
        ("tree-slack", PlannerKind::Kinetic(KineticConfig::slack())),
        (
            "tree-hotspot",
            PlannerKind::Kinetic(KineticConfig::hotspot(300.0)),
        ),
    ]
}

#[test]
fn every_planner_serves_a_small_city_without_guarantee_violations() {
    let workload = Workload::generate(
        &CityConfig::small(),
        &DemandConfig {
            trips: 50,
            ..DemandConfig::default()
        },
        42,
    );
    let oracle = CachedOracle::new(&workload.network);

    for (name, planner) in planners() {
        oracle.clear_caches();
        let config = SimConfig {
            vehicles: 10,
            planner,
            seed: 42,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&workload.network, &oracle, config);
        let report = sim.run(&workload.trips);

        assert_eq!(report.requests, 50, "{name}: every request must be seen");
        assert_eq!(
            report.guarantee_violations, 0,
            "{name}: guarantees must never be violated"
        );
        assert!(
            report.assigned > 0,
            "{name}: a 10-vehicle fleet must serve someone out of 50 trips"
        );
        assert_eq!(
            report.assigned + report.rejected,
            report.requests,
            "{name}: every request is either served or rejected"
        );
    }
}

#[test]
fn exact_planners_agree_on_assigned_trip_count() {
    // The three exact matchers explore the same feasible set, so on a
    // deterministic workload they must accept/reject identically.
    let workload = Workload::generate(
        &CityConfig::small(),
        &DemandConfig {
            trips: 30,
            ..DemandConfig::default()
        },
        7,
    );
    let oracle = CachedOracle::new(&workload.network);

    let assigned: Vec<u64> = [
        PlannerKind::Solver(SolverKind::BruteForce),
        PlannerKind::Solver(SolverKind::BranchBound),
        PlannerKind::Kinetic(KineticConfig::slack()),
    ]
    .into_iter()
    .map(|planner| {
        oracle.clear_caches();
        let config = SimConfig {
            vehicles: 8,
            planner,
            seed: 7,
            ..SimConfig::default()
        };
        Simulation::new(&workload.network, &oracle, config)
            .run(&workload.trips)
            .assigned
    })
    .collect();

    assert_eq!(assigned[0], assigned[1], "brute force vs branch and bound");
    assert_eq!(assigned[0], assigned[2], "brute force vs kinetic tree");
}
