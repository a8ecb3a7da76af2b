//! End-to-end simulations spanning every crate in the workspace.

use ridesharing::prelude::*;

fn workload(trips: usize, seed: u64) -> Workload {
    Workload::generate(
        &CityConfig::small(),
        &DemandConfig {
            trips,
            span_seconds: 2.0 * 3_600.0,
            ..DemandConfig::default()
        },
        seed,
    )
}

fn run(
    w: &Workload,
    oracle: &CachedOracle<'_>,
    planner: PlannerKind,
    vehicles: usize,
    capacity: usize,
    seed: u64,
) -> SimReport {
    let config = SimConfig {
        vehicles,
        capacity,
        planner,
        seed,
        cruise_when_idle: false,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(&w.network, oracle, config);
    sim.run(&w.trips)
}

#[test]
fn guarantees_hold_for_every_planner() {
    let w = workload(80, 1);
    let oracle = CachedOracle::new(&w.network);
    let planners = [
        PlannerKind::Solver(SolverKind::BruteForce),
        PlannerKind::Solver(SolverKind::BranchBound),
        PlannerKind::Kinetic(KineticConfig::basic()),
        PlannerKind::Kinetic(KineticConfig::slack()),
        PlannerKind::Kinetic(KineticConfig::hotspot(300.0)),
    ];
    for planner in planners {
        let report = run(&w, &oracle, planner, 12, 4, 7);
        assert_eq!(report.requests, 80, "{planner:?}");
        assert!(report.assigned > 0, "{planner:?} never assigned anything");
        assert_eq!(
            report.guarantee_violations, 0,
            "{planner:?} violated a service guarantee"
        );
        // Whatever was delivered stayed within the detour bound on average.
        if report.completed > 0 {
            assert!(report.mean_detour_ratio <= 1.2 + 1e-6, "{planner:?}");
        }
    }
}

#[test]
fn exact_planners_accept_the_same_requests() {
    // Brute force, branch and bound and the basic kinetic tree all compute
    // the same minimum-cost augmented schedule, so dispatch decisions — and
    // therefore the number of assigned requests — must coincide.
    let w = workload(60, 2);
    let oracle = CachedOracle::new(&w.network);
    let a = run(
        &w,
        &oracle,
        PlannerKind::Solver(SolverKind::BruteForce),
        10,
        4,
        3,
    );
    let b = run(
        &w,
        &oracle,
        PlannerKind::Solver(SolverKind::BranchBound),
        10,
        4,
        3,
    );
    let c = run(
        &w,
        &oracle,
        PlannerKind::Kinetic(KineticConfig::basic()),
        10,
        4,
        3,
    );
    assert_eq!(a.assigned, b.assigned, "brute force vs branch and bound");
    assert_eq!(a.assigned, c.assigned, "brute force vs kinetic tree");
    assert_eq!(a.rejected, c.rejected);
}

#[test]
fn kinetic_variants_serve_comparable_demand() {
    let w = workload(100, 3);
    let oracle = CachedOracle::new(&w.network);
    let basic = run(
        &w,
        &oracle,
        PlannerKind::Kinetic(KineticConfig::basic()),
        10,
        6,
        5,
    );
    let slack = run(
        &w,
        &oracle,
        PlannerKind::Kinetic(KineticConfig::slack()),
        10,
        6,
        5,
    );
    let hotspot = run(
        &w,
        &oracle,
        PlannerKind::Kinetic(KineticConfig::hotspot(300.0)),
        10,
        6,
        5,
    );
    // Basic and slack are both exact: identical decisions.
    assert_eq!(basic.assigned, slack.assigned);
    // Hotspot is an approximation: it may lose a few assignments but must
    // stay in the same ballpark and keep every guarantee.
    assert_eq!(hotspot.guarantee_violations, 0);
    assert!(
        hotspot.assigned as f64 >= 0.8 * basic.assigned as f64,
        "hotspot lost too much: {} vs {}",
        hotspot.assigned,
        basic.assigned
    );
}

#[test]
fn more_vehicles_never_serve_less_demand() {
    let w = workload(120, 4);
    let oracle = CachedOracle::new(&w.network);
    let small = run(
        &w,
        &oracle,
        PlannerKind::Kinetic(KineticConfig::slack()),
        5,
        4,
        9,
    );
    let large = run(
        &w,
        &oracle,
        PlannerKind::Kinetic(KineticConfig::slack()),
        25,
        4,
        9,
    );
    assert!(
        large.assigned >= small.assigned,
        "25 vehicles served {} but 5 vehicles served {}",
        large.assigned,
        small.assigned
    );
}

#[test]
fn unlimited_capacity_increases_sharing() {
    let w = workload(150, 5);
    let oracle = CachedOracle::new(&w.network);
    let cap2 = run(
        &w,
        &oracle,
        PlannerKind::Kinetic(KineticConfig::hotspot(300.0)),
        6,
        2,
        1,
    );
    let unlimited = run(
        &w,
        &oracle,
        PlannerKind::Kinetic(KineticConfig::hotspot(300.0)),
        6,
        usize::MAX,
        1,
    );
    assert!(unlimited.occupancy.fleet_max >= cap2.occupancy.fleet_max);
    assert!(cap2.occupancy.fleet_max <= 2);
    assert!(unlimited.assigned >= cap2.assigned);
    assert_eq!(unlimited.guarantee_violations, 0);
}

#[test]
fn reports_are_deterministic_for_a_fixed_seed() {
    let w = workload(70, 6);
    let oracle = CachedOracle::new(&w.network);
    let a = run(
        &w,
        &oracle,
        PlannerKind::Kinetic(KineticConfig::slack()),
        8,
        4,
        11,
    );
    let b = run(
        &w,
        &oracle,
        PlannerKind::Kinetic(KineticConfig::slack()),
        8,
        4,
        11,
    );
    assert_eq!(a.assigned, b.assigned);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.occupancy.fleet_max, b.occupancy.fleet_max);
    assert!((a.mean_wait_seconds - b.mean_wait_seconds).abs() < 1e-9);
    assert!((a.fleet_distance_km - b.fleet_distance_km).abs() < 1e-9);
}

#[test]
fn dispatcher_spatial_filter_matches_full_scan_outcomes() {
    // The grid filter may only skip vehicles that could never satisfy the
    // waiting constraint, so it must accept as many requests as a radius
    // long enough to reach across the whole map.
    let w = workload(50, 7);
    let oracle = CachedOracle::new(&w.network);
    let vehicles = 10;
    let run_with = |radius_factor: f64| {
        let config = SimConfig {
            vehicles,
            capacity: 4,
            planner: PlannerKind::Kinetic(KineticConfig::slack()),
            seed: 21,
            cruise_when_idle: false,
            dispatcher: DispatcherConfig {
                radius_factor,
                ..DispatcherConfig::default()
            },
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&w.network, &oracle, config);
        sim.run(&w.trips)
    };
    let (min, max) = w.network.bounding_box();
    let filtered = run_with(DispatcherConfig::default().radius_factor);
    let full = run_with(min.distance(&max) / SimConfig::default().constraints.max_wait);
    assert_eq!(
        full.mean_candidates, vehicles as f64,
        "every vehicle is a candidate"
    );
    assert_eq!(filtered.assigned, full.assigned);
    assert!(filtered.mean_candidates <= full.mean_candidates);
}
