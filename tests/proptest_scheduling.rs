//! Property-based tests of the scheduling core and the kinetic tree.

use proptest::prelude::*;
use ridesharing::prelude::*;
use roadnet::MatrixOracle;

/// A small road network plus a set of candidate trips drawn over it.
fn instance_strategy() -> impl Strategy<Value = (MatrixOracle, Vec<(u32, u32)>, f64, usize)> {
    (
        4usize..7,
        4usize..7,
        0u64..500,
        prop::collection::vec((0u32..36, 0u32..36), 1..4),
        0.2f64..1.0,
        1usize..5,
    )
        .prop_map(|(rows, cols, seed, pairs, looseness, capacity)| {
            let g = GeneratorConfig {
                kind: NetworkKind::Grid { rows, cols },
                seed,
                ..GeneratorConfig::default()
            }
            .generate();
            let n = g.node_count() as u32;
            let pairs = pairs
                .into_iter()
                .map(|(a, b)| {
                    let a = a % n;
                    let mut b = b % n;
                    if a == b {
                        b = (b + 1) % n;
                    }
                    (a, b)
                })
                .collect();
            (MatrixOracle::new(&g), pairs, looseness, capacity)
        })
}

fn build_problem(
    oracle: &MatrixOracle,
    pairs: &[(u32, u32)],
    looseness: f64,
    capacity: usize,
) -> SchedulingProblem {
    let mut p = SchedulingProblem::new(0, 0.0, capacity);
    for (i, &(s, e)) in pairs.iter().enumerate() {
        let direct = oracle.dist(s, e);
        p.waiting.push(WaitingTrip {
            trip: i as u64,
            pickup: s,
            dropoff: e,
            pickup_deadline: 1_500.0 + looseness * 6_000.0,
            max_ride: direct * (1.0 + looseness),
        });
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Any schedule accepted by a solver passes full validation, and the
    /// exact solvers agree with each other; the kinetic tree built by
    /// sequential insertion reaches the same optimum.
    #[test]
    fn solvers_agree_and_schedules_validate((oracle, pairs, looseness, capacity) in instance_strategy()) {
        let p = build_problem(&oracle, &pairs, looseness, capacity);
        let bf = BruteForceSolver::default().solve(&p, &oracle);
        let bb = BranchBoundSolver::default().solve(&p, &oracle);
        match (&bf, &bb) {
            (SolverOutcome::Feasible { cost: a, schedule }, SolverOutcome::Feasible { cost: b, .. }) => {
                prop_assert!((a - b).abs() < 1e-5);
                let recomputed = p.validate(schedule, &oracle).expect("must validate");
                prop_assert!((recomputed - a).abs() < 1e-6);

                // Kinetic tree by sequential insertion.
                let mut tree = KineticTree::new(p.start, p.now, p.capacity, KineticConfig::slack());
                let mut all_inserted = true;
                for t in &p.waiting {
                    match tree.try_insert(*t, &oracle) {
                        Ok((next, _)) => tree = next,
                        Err(_) => { all_inserted = false; break; }
                    }
                }
                prop_assert!(all_inserted, "tree rejected a feasible instance");
                let (cost, route) = tree.best_route().expect("route exists");
                prop_assert!((cost - a).abs() < 1e-5, "tree {cost} vs optimum {a}");
                prop_assert!(p.is_valid(&route, &oracle));
            }
            (SolverOutcome::Infeasible, SolverOutcome::Infeasible) => {}
            other => prop_assert!(false, "feasibility disagreement: {other:?}"),
        }
    }

    /// Removing a trip from a valid schedule keeps it valid (the paper's key
    /// observation enabling the kinetic tree).
    #[test]
    fn dropping_a_trip_preserves_validity((oracle, pairs, looseness, capacity) in instance_strategy()) {
        let p = build_problem(&oracle, &pairs, looseness, capacity);
        if let SolverOutcome::Feasible { schedule, .. } = BruteForceSolver::default().solve(&p, &oracle) {
            for victim in 0..p.waiting.len() as u64 {
                let mut reduced = p.clone();
                reduced.waiting.retain(|t| t.trip != victim);
                let reduced_schedule: Vec<Stop> =
                    schedule.iter().copied().filter(|s| s.trip != victim).collect();
                prop_assert!(
                    reduced.is_valid(&reduced_schedule, &oracle),
                    "dropping trip {victim} broke validity"
                );
            }
        }
    }

    /// The best route of a kinetic tree never improves when constraints are
    /// tightened, and always satisfies the walker-based validation.
    #[test]
    fn tighter_constraints_never_reduce_cost((oracle, pairs, _looseness, capacity) in instance_strategy()) {
        let loose = build_problem(&oracle, &pairs, 1.0, capacity);
        let tight = build_problem(&oracle, &pairs, 0.3, capacity);
        let solve = |p: &SchedulingProblem| BruteForceSolver::default().solve(p, &oracle).cost();
        match (solve(&loose), solve(&tight)) {
            (Some(l), Some(t)) => prop_assert!(t >= l - 1e-6, "tight {t} < loose {l}"),
            (None, Some(_)) => prop_assert!(false, "loose infeasible but tight feasible"),
            _ => {}
        }
    }

    /// Vehicle evaluate/commit round-trips keep the committed route valid
    /// for the vehicle's own problem.
    #[test]
    fn vehicle_commit_keeps_routes_valid((oracle, pairs, looseness, capacity) in instance_strategy()) {
        let constraints = Constraints::new(1_500.0 + looseness * 6_000.0, looseness);
        let mut vehicle = Vehicle::new(
            0,
            0,
            capacity,
            PlannerKind::Kinetic(KineticConfig::slack()),
            0.0,
        );
        for (i, &(s, e)) in pairs.iter().enumerate() {
            let request = TripRequest::new(i as u64, s, e, 0.0, constraints);
            let trip = WaitingTrip::for_request(&request, oracle.dist(s, e));
            if let Some(proposal) = vehicle.evaluate(trip, &oracle, &mut ProbeScratch::default()) {
                vehicle.commit(proposal, &oracle).expect("a priced insertion builds");
            }
        }
        let problem = vehicle.problem();
        if !vehicle.route().is_empty() {
            prop_assert!(problem.is_valid(vehicle.route(), &oracle));
        }
    }
}
