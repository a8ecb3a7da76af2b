//! Cross-algorithm equivalence: the correctness oracle of the reproduction.
//!
//! Brute force, branch and bound, the MIP formulation and the kinetic tree
//! (basic and slack variants) must all report the same minimum cost on the
//! same scheduling problem; the hotspot variant, a heuristic, must never
//! beat that optimum.

use ridesharing::prelude::*;
use roadnet::MatrixOracle;

fn grid_oracle(rows: usize, cols: usize, seed: u64) -> MatrixOracle {
    let g = GeneratorConfig {
        kind: NetworkKind::Grid { rows, cols },
        seed,
        ..GeneratorConfig::default()
    }
    .generate();
    MatrixOracle::new(&g)
}

/// Deterministic xorshift for reproducible random problems without pulling
/// RNG seeds through every helper.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn random_problem(
    oracle: &MatrixOracle,
    seed: u64,
    trips: usize,
    capacity: usize,
    tightness: f64,
) -> SchedulingProblem {
    let n = oracle.node_count() as u64;
    let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1));
    let mut p = SchedulingProblem::new((rng.next() % n) as u32, 0.0, capacity);
    for t in 0..trips as u64 {
        let pickup = (rng.next() % n) as u32;
        let mut dropoff = (rng.next() % n) as u32;
        if dropoff == pickup {
            dropoff = (dropoff + 1) % n as u32;
        }
        let direct = oracle.dist(pickup, dropoff);
        p.waiting.push(WaitingTrip {
            trip: t,
            pickup,
            dropoff,
            pickup_deadline: 2_000.0 + tightness * (rng.next() % 4_000) as f64,
            max_ride: direct * (1.0 + 0.2 + tightness * 0.5) + 50.0,
        });
    }
    p
}

fn kinetic_best(
    problem: &SchedulingProblem,
    oracle: &MatrixOracle,
    config: KineticConfig,
) -> Option<f64> {
    let mut tree = KineticTree::new(problem.start, problem.now, problem.capacity, config);
    for trip in &problem.waiting {
        match tree.try_insert(*trip, oracle) {
            Ok((t, _)) => tree = t,
            Err(_) => return None,
        }
    }
    tree.best_route().map(|(c, _)| c)
}

#[test]
fn exact_solvers_and_kinetic_tree_agree() {
    let oracle = grid_oracle(6, 6, 44);
    let bf = BruteForceSolver::default();
    let bb = BranchBoundSolver::default();
    let mip = MipScheduleSolver::default();
    let mut compared = 0;
    for seed in 0..25u64 {
        let trips = 1 + (seed % 3) as usize;
        let p = random_problem(&oracle, seed, trips, 4, 0.8);
        let a = bf.solve(&p, &oracle);
        let b = bb.solve(&p, &oracle);
        let c = mip.solve(&p, &oracle);
        match (&a, &b, &c) {
            (
                SolverOutcome::Feasible { cost: ca, .. },
                SolverOutcome::Feasible { cost: cb, .. },
                SolverOutcome::Feasible { cost: cc, .. },
            ) => {
                compared += 1;
                assert!((ca - cb).abs() < 1e-5, "seed {seed}: bf {ca} vs bb {cb}");
                assert!((ca - cc).abs() < 1e-3, "seed {seed}: bf {ca} vs mip {cc}");
                // The kinetic tree, built by inserting the same trips one at
                // a time, reaches the same optimum.
                let basic = kinetic_best(&p, &oracle, KineticConfig::basic());
                let slack = kinetic_best(&p, &oracle, KineticConfig::slack());
                assert!(
                    basic.is_some() && slack.is_some(),
                    "seed {seed}: tree infeasible"
                );
                assert!(
                    (basic.unwrap() - ca).abs() < 1e-5,
                    "seed {seed}: basic tree"
                );
                assert!(
                    (slack.unwrap() - ca).abs() < 1e-5,
                    "seed {seed}: slack tree"
                );
            }
            (SolverOutcome::Infeasible, SolverOutcome::Infeasible, SolverOutcome::Infeasible) => {}
            other => panic!("seed {seed}: feasibility disagreement {other:?}"),
        }
    }
    assert!(
        compared >= 10,
        "too few feasible instances compared: {compared}"
    );
}

#[test]
fn heuristics_never_beat_the_optimum_and_stay_valid() {
    let oracle = grid_oracle(6, 6, 45);
    let bf = BruteForceSolver::default();
    for seed in 0..20u64 {
        let p = random_problem(&oracle, seed, 3, 4, 1.0);
        let best = match bf.solve(&p, &oracle) {
            SolverOutcome::Feasible { cost, .. } => cost,
            _ => continue,
        };
        if let Some(hotspot) = kinetic_best(&p, &oracle, KineticConfig::hotspot(300.0)) {
            assert!(
                hotspot >= best - 1e-6,
                "seed {seed}: hotspot beat the optimum"
            );
        }
    }
}

#[test]
fn capacity_one_is_respected_by_every_solver() {
    let oracle = grid_oracle(5, 5, 46);
    for seed in 0..10u64 {
        let p = random_problem(&oracle, seed, 2, 1, 1.5);
        for kind in SolverKind::exact() {
            let solver = kind.build();
            if let SolverOutcome::Feasible { schedule, .. } = solver.solve(&p, &oracle) {
                // Validation includes the capacity constraint.
                assert!(
                    p.is_valid(&schedule, &oracle),
                    "seed {seed}: {kind} produced an invalid schedule"
                );
            }
        }
    }
}

#[test]
fn mip_exhaustion_budget_degrades_gracefully() {
    let oracle = grid_oracle(6, 6, 47);
    let p = random_problem(&oracle, 3, 4, 8, 2.0);
    let tiny = MipScheduleSolver::with_budget(1);
    match tiny.solve(&p, &oracle) {
        SolverOutcome::Exhausted | SolverOutcome::Infeasible | SolverOutcome::Feasible { .. } => {}
    }
}
