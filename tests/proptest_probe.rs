//! Property: pricing an insertion is building it, minus the tree.
//!
//! `KineticTree::probe_insert` runs `try_insert`'s recursion without
//! materialising a node, and the dispatcher ranks candidates by it, building
//! a tree for the winner only. These properties hold the two to each other:
//! the same cost bit for bit and the same error for every insertion, on
//! every variant and node budget; the exact variants' cost is the brute-force
//! optimum; and a dispatcher that probes commits exactly what building every
//! candidate's tree would have, at every effort rung.

use std::collections::BTreeMap;

use proptest::prelude::*;
use ridesharing::core::{Cost, DispatchEffort, ProbeScratch, TreeInsertError};
use ridesharing::prelude::*;
use roadnet::MatrixOracle;

/// The three tree variants; `theta` is only read by the hotspot one.
fn variant(index: usize, theta: f64, budget_log2: u32) -> KineticConfig {
    let config = match index {
        0 => KineticConfig::basic(),
        1 => KineticConfig::slack(),
        _ => KineticConfig::hotspot(theta),
    };
    KineticConfig {
        max_nodes: (1usize << budget_log2).min(config.max_nodes),
        ..config
    }
}

fn grid(rows: usize, cols: usize, seed: u64) -> RoadNetwork {
    GeneratorConfig {
        kind: NetworkKind::Grid { rows, cols },
        seed,
        ..GeneratorConfig::default()
    }
    .generate()
}

/// `(pickup, dropoff)` with both taken modulo `n` and never equal.
fn endpoints(n: u32, (a, b): (u32, u32)) -> (NodeId, NodeId) {
    let a = a % n;
    let b = b % n;
    (a, if a == b { (b + 1) % n } else { b })
}

/// Probes and builds `trip` into `tree`, asserting the two agree — equal
/// cost bits, or the same error — and returns the build.
fn probe_and_build(
    tree: &KineticTree,
    trip: WaitingTrip,
    oracle: &dyn DistanceOracle,
) -> Result<(Cost, KineticTree), TreeInsertError> {
    let probed = tree.probe_insert(trip, oracle, &mut ProbeScratch::default());
    let built = tree.try_insert(trip, oracle);
    match (&probed, &built) {
        (Ok(p), Ok((tree, cost))) => {
            assert_eq!(p.to_bits(), cost.to_bits(), "probe {p} vs build {cost}");
            let (route_cost, _) = tree.best_route().expect("a built tree has a route");
            assert_eq!(p.to_bits(), route_cost.to_bits());
        }
        (Err(p), Err(b)) => assert_eq!(p, b),
        _ => panic!("probe {probed:?} vs build {:?}", built.map(|(_, c)| c)),
    }
    built.map(|(tree, cost)| (cost, tree))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Inserting a random trip sequence (serving the next stop after some
    /// insertions, so trips go on board and the clock moves): at every
    /// insertion `probe_insert` and `try_insert` agree bit for bit, under
    /// every variant and node budgets from 1 to the default. On the exact
    /// variants the cost is the brute-force optimum of the augmented
    /// problem, and `Infeasible` means brute force finds nothing either
    /// (checked up to four trips). Half the cases draw tight limits —
    /// deadlines from `now` on, rides from the direct distance on — so a
    /// new stop is often late below the root and the late cut fires.
    #[test]
    fn probe_insert_matches_try_insert(
        (rows, cols, seed) in (4usize..7, 4usize..7, 0u64..500),
        variant_index in 0usize..3,
        theta in 0.0f64..3_000.0,
        budget_log2 in 0u32..22,
        capacity in 1usize..5,
        start in 0u32..64,
        trips in prop::collection::vec(((0u32..64, 0u32..64), 0.1f64..1.0, 0u32..3, 0.0f64..1.0), 1..6),
        tight in 0u32..2,
    ) {
        let oracle = MatrixOracle::new(&grid(rows, cols, seed));
        let n = oracle.node_count() as u32;
        let config = variant(variant_index, theta, budget_log2);
        let mut tree = KineticTree::new(start % n, 0.0, capacity, config);
        for (id, &(pair, looseness, advance, slack)) in trips.iter().enumerate() {
            let (pickup, dropoff) = endpoints(n, pair);
            let trip = WaitingTrip {
                trip: id as u64,
                pickup,
                dropoff,
                pickup_deadline: tree.problem().now + 2_000.0 + looseness * 8_000.0,
                max_ride: oracle.dist(pickup, dropoff) * (1.0 + looseness),
            };
            let trip = if tight == 1 {
                WaitingTrip {
                    pickup_deadline: tree.problem().now + slack * 4_000.0,
                    max_ride: oracle.dist(pickup, dropoff) * (1.0 + slack),
                    ..trip
                }
            } else {
                trip
            };
            let built = probe_and_build(&tree, trip, &oracle);
            // Brute force is exact but factorial: four trips at most.
            if config.hotspot_theta.is_none() && tree.active_trips() < 4 {
                let mut augmented = tree.problem().clone();
                augmented.waiting.push(trip);
                let optimum = BruteForceSolver::default().solve(&augmented, &oracle).cost();
                match (&built, optimum) {
                    (Ok((cost, _)), Some(best)) => {
                        prop_assert!((cost - best).abs() < 1e-6, "probe {} vs optimum {}", cost, best);
                    }
                    (Err(TreeInsertError::Infeasible), None) | (Err(TreeInsertError::Overflow), _) => {}
                    (built, best) => prop_assert!(
                        false,
                        "tree {:?} vs brute force {:?}",
                        built.as_ref().map(|(c, _)| c),
                        best
                    ),
                }
            }
            if let Ok((_, next)) = built {
                tree = next;
            }
            if advance == 0 {
                if let Some(&first) = tree.best_route().and_then(|(_, route)| route.first().copied()).as_ref() {
                    tree.advance_to(first).expect("the best route starts at a root child");
                }
            }
        }
    }
}

/// The reference answer to one request: every candidate's tree built with
/// `try_insert` (after checking that its `evaluate` price is the build's
/// cost), and the winner under `effort` — the nearest feasible vehicle by
/// straight line for `Greedy`, the cheapest for every other rung, ties to
/// the lowest id.
struct Reference {
    winner: Option<(u32, Cost, KineticTree)>,
    candidates: usize,
    /// Each candidate's active-trip count: its ART bucket.
    active: Vec<usize>,
}

fn reference(
    request: &TripRequest,
    fleet: &[Vehicle],
    graph: &RoadNetwork,
    index: &GridIndex,
    oracle: &dyn DistanceOracle,
    effort: DispatchEffort,
) -> Reference {
    let p = graph.point(request.source);
    let ids = index
        .clone()
        .query_radius(Position::new(p.x, p.y), request.constraints.max_wait);
    let trip = WaitingTrip::for_request(request, oracle.dist(request.source, request.destination));
    let mut best: Option<(u32, Cost, KineticTree, f64)> = None;
    let mut active = Vec::with_capacity(ids.len());
    for &vid in &ids {
        let v = &fleet[vid as usize];
        active.push(v.active_trip_count());
        let built = probe_and_build(
            v.tree().expect("a kinetic vehicle has a tree"),
            trip,
            oracle,
        );
        let priced = v
            .evaluate(trip, oracle, &mut ProbeScratch::default())
            .map(|p| p.cost.to_bits());
        assert_eq!(priced, built.as_ref().ok().map(|(c, _)| c.to_bits()));
        let Ok((cost, tree)) = built else {
            continue;
        };
        let reach = graph.point(v.location()).distance(&p);
        let better = best.as_ref().is_none_or(|&(_, c, _, r)| match effort {
            DispatchEffort::Greedy => reach < r,
            _ => cost < c,
        });
        if better {
            best = Some((vid, cost, tree, reach));
        }
    }
    Reference {
        winner: best.map(|(vid, cost, tree, _)| (vid, cost, tree)),
        candidates: ids.len(),
        active,
    }
}

fn tree_bytes(tree: &KineticTree) -> Vec<u8> {
    let mut bytes = Vec::new();
    tree.encode(&mut bytes);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On a random fleet and request stream, a probing dispatcher assigns
    /// every request where building each candidate's tree would, at the same
    /// cost bits, and the winner adopts exactly the tree that build makes —
    /// at every effort rung, with and without pruning, on every variant and
    /// on node budgets small enough to overflow. The counts follow:
    /// requests, assignments, rejections and candidates match the
    /// reference, and exhaustive evaluation books one evaluation per
    /// candidate, in the candidate's active-trip bucket.
    #[test]
    fn probing_dispatch_commits_what_building_would(
        variant_index in 0usize..3,
        budget_log2 in 4u32..22,
        positions in prop::collection::vec(0u32..1024, 1..12),
        pairs in prop::collection::vec((0u32..1024, 0u32..1024), 1..10),
        wait_m in 2_000.0f64..12_000.0,
        detour in 0.2f64..0.6,
    ) {
        let graph = grid(8, 8, 11);
        let n = graph.node_count() as u32;
        let oracle = CachedOracle::new(&graph);
        let planner = PlannerKind::Kinetic(variant(variant_index, 4_000.0, budget_log2));
        let requests: Vec<TripRequest> = pairs
            .iter()
            .enumerate()
            .map(|(i, &pair)| {
                let (s, d) = endpoints(n, pair);
                TripRequest::new(i as u64 + 1, s, d, 0.0, Constraints::new(wait_m, detour))
            })
            .collect();
        let pruned = DispatcherConfig::default();
        let exhaustive = DispatcherConfig { use_pruning: false, ..pruned };
        let rungs = [
            (exhaustive, DispatchEffort::Full),
            (pruned, DispatchEffort::Full),
            (pruned, DispatchEffort::SlackPruned),
            (pruned, DispatchEffort::Greedy),
        ];
        for (config, effort) in rungs {
            let mut fleet = Vec::new();
            let mut index = GridIndex::new(1_000.0);
            for (i, &node) in positions.iter().enumerate() {
                let node = node % n;
                fleet.push(Vehicle::new(i as u32, node, 4, planner, 0.0));
                let p = graph.point(node);
                index.insert(i as u32, Position::new(p.x, p.y));
            }
            let mut dispatcher = Dispatcher::new(config);
            dispatcher.set_effort(effort);
            let (mut assigned, mut candidates) = (0u64, 0u64);
            let mut buckets = BTreeMap::<usize, u64>::new();
            for r in &requests {
                let expected = reference(r, &fleet, &graph, &index, &oracle, effort);
                candidates += expected.candidates as u64;
                for a in expected.active {
                    *buckets.entry(a).or_default() += 1;
                }
                let out = dispatcher.assign(r, &mut fleet, &graph, &mut index, &oracle);
                match (out, expected.winner) {
                    (
                        AssignmentOutcome::Assigned { vehicle, cost, candidates: c },
                        Some((vid, ref_cost, tree)),
                    ) => {
                        assigned += 1;
                        prop_assert_eq!((vehicle, c), (vid, expected.candidates), "{:?} {:?}", config, effort);
                        prop_assert_eq!(cost.to_bits(), ref_cost.to_bits());
                        let v = &fleet[vid as usize];
                        prop_assert_eq!(tree_bytes(v.tree().expect("kinetic")), tree_bytes(&tree));
                        prop_assert_eq!(v.route(), &tree.best_route().expect("route").1);
                    }
                    (AssignmentOutcome::Rejected { candidates: c }, None) => {
                        prop_assert_eq!(c, expected.candidates);
                    }
                    (out, winner) => prop_assert!(
                        false,
                        "{:?} {:?}: dispatcher {:?}, reference {:?}",
                        config,
                        effort,
                        out,
                        winner.map(|(v, c, _)| (v, c))
                    ),
                }
            }
            let stats = dispatcher.stats();
            let n_requests = requests.len() as u64;
            prop_assert_eq!(
                (stats.requests, stats.assigned, stats.rejected, stats.candidates),
                (n_requests, assigned, n_requests - assigned, candidates)
            );
            if config.use_pruning {
                prop_assert!(stats.evaluated() <= candidates);
            } else {
                let booked: BTreeMap<usize, u64> =
                    stats.art_buckets.iter().map(|(&k, &(c, _))| (k, c)).collect();
                prop_assert_eq!(booked, buckets);
            }
        }
    }
}
