//! Property: slack-pruned best-first dispatch is lossless.
//!
//! For random fleets, workloads, networks (grid and ring-radial) and
//! planner kinds, the default pruned dispatcher must produce the same
//! assignment sequence, the same [`DispatchStats`] counts — modulo the ART
//! evaluation buckets, which legitimately shrink under pruning — and the
//! same committed fleet state as exhaustive evaluation
//! (`use_pruning: false`).

use kinetic_core::{
    AssignmentOutcome, Constraints, DispatchStats, Dispatcher, DispatcherConfig, KineticConfig,
    PlannerKind, SolverKind, TripRequest, Vehicle,
};
use proptest::prelude::*;
use roadnet::{CachedOracle, GeneratorConfig, NetworkKind, NodeId};
use spatial::{GridIndex, Position};

fn network(kind_index: usize) -> roadnet::RoadNetwork {
    let kind = match kind_index {
        0 => NetworkKind::Grid { rows: 8, cols: 8 },
        _ => NetworkKind::RingRadial {
            rings: 4,
            spokes: 9,
        },
    };
    GeneratorConfig {
        kind,
        seed: 11,
        ..GeneratorConfig::default()
    }
    .generate()
}

fn planner(planner_index: usize) -> PlannerKind {
    match planner_index {
        0 => PlannerKind::Kinetic(KineticConfig::basic()),
        1 => PlannerKind::Kinetic(KineticConfig::slack()),
        2 => PlannerKind::Kinetic(KineticConfig::hotspot(4_000.0)),
        _ => PlannerKind::Solver(SolverKind::BranchBound),
    }
}

fn fleet(
    graph: &roadnet::RoadNetwork,
    positions: &[NodeId],
    planner: PlannerKind,
) -> (Vec<Vehicle>, GridIndex) {
    let mut vehicles = Vec::with_capacity(positions.len());
    let mut index = GridIndex::new(1_000.0);
    for (i, &node) in positions.iter().enumerate() {
        let node = node % graph.node_count() as u32;
        let v = Vehicle::new(i as u32, node, 4, planner, 0.0);
        let p = graph.point(node);
        index.insert(i as u32, Position::new(p.x, p.y));
        vehicles.push(v);
    }
    (vehicles, index)
}

fn build_requests(
    graph: &roadnet::RoadNetwork,
    pairs: &[(NodeId, NodeId)],
    constraints: Constraints,
) -> Vec<TripRequest> {
    let n = graph.node_count() as u32;
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, d))| {
            let s = s % n;
            let d = d % n;
            let d = if d == s { (d + 1) % n } else { d };
            TripRequest::new(i as u64 + 1, s, d, 0.0, constraints)
        })
        .collect()
}

/// Counts that must survive pruning untouched (everything but the ART
/// evaluation buckets).
fn outcome_counts(stats: &DispatchStats) -> (u64, u64, u64, u64) {
    (
        stats.requests,
        stats.assigned,
        stats.rejected,
        stats.candidates,
    )
}

fn assert_fleet_eq(a: &[Vehicle], b: &[Vehicle]) {
    for (v, sv) in a.iter().zip(b.iter()) {
        assert_eq!(v.id(), sv.id());
        assert_eq!(v.active_trip_count(), sv.active_trip_count());
        assert_eq!(
            v.route(),
            sv.route(),
            "route diverged for vehicle {}",
            v.id()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pruned_dispatch_is_lossless(
        net_index in 0usize..2,
        planner_index in 0usize..4,
        positions in prop::collection::vec(0u32..1024, 1..16),
        trip_pairs in prop::collection::vec((0u32..1024, 0u32..1024), 1..10),
        wait_m in 2_000.0f64..12_000.0,
        detour in 0.2f64..0.6,
    ) {
        let graph = network(net_index);
        let kind = planner(planner_index);
        let constraints = Constraints::new(wait_m, detour);
        let requests = build_requests(&graph, &trip_pairs, constraints);
        let oracle = CachedOracle::new(&graph);

        // Reference: exhaustive sequential evaluation, pruning off.
        let (mut ex_vehicles, mut ex_index) = fleet(&graph, &positions, kind);
        let mut exhaustive = Dispatcher::new(DispatcherConfig {
            use_pruning: false,
            ..DispatcherConfig::default()
        });
        let ex_outcomes: Vec<AssignmentOutcome> = requests
            .iter()
            .map(|r| exhaustive.assign(r, &mut ex_vehicles, &graph, &mut ex_index, &oracle))
            .collect();

        // Pruned sequential: identical assignments, counts and fleet; the
        // ART buckets record strictly fewer evaluations.
        let (mut pr_vehicles, mut pr_index) = fleet(&graph, &positions, kind);
        let mut pruned = Dispatcher::new(DispatcherConfig::default());
        let pr_outcomes: Vec<AssignmentOutcome> = requests
            .iter()
            .map(|r| pruned.assign(r, &mut pr_vehicles, &graph, &mut pr_index, &oracle))
            .collect();
        prop_assert_eq!(&pr_outcomes, &ex_outcomes, "pruned outcomes diverged from exhaustive");
        prop_assert_eq!(outcome_counts(pruned.stats()), outcome_counts(exhaustive.stats()));
        prop_assert!(
            pruned.stats().evaluated() <= exhaustive.stats().evaluated(),
            "pruning must never evaluate more candidates ({} > {})",
            pruned.stats().evaluated(),
            exhaustive.stats().evaluated()
        );
        assert_fleet_eq(&pr_vehicles, &ex_vehicles);
    }
}
