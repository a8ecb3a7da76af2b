//! Micro-benchmarks of the stateless matchers (brute force, branch and
//! bound, MIP) on scheduling problems of growing size —
//! the per-call view behind Fig. 6(a)/8.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kinetic_core::{
    BranchBoundSolver, BruteForceSolver, MipScheduleSolver, ScheduleSolver, SchedulingProblem,
    WaitingTrip,
};
use roadnet::{DistanceOracle, GeneratorConfig, MatrixOracle, NetworkKind};

fn oracle() -> MatrixOracle {
    let g = GeneratorConfig {
        kind: NetworkKind::Grid { rows: 12, cols: 12 },
        seed: 3,
        ..GeneratorConfig::default()
    }
    .generate();
    MatrixOracle::new(&g)
}

/// A deterministic scheduling problem with `trips` waiting passengers.
fn problem(oracle: &MatrixOracle, trips: usize) -> SchedulingProblem {
    let n = oracle.node_count() as u64;
    let mut state = 0xDEADBEEFu64 ^ trips as u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut p = SchedulingProblem::new((next() % n) as u32, 0.0, 8);
    for t in 0..trips as u64 {
        let pickup = (next() % n) as u32;
        let mut dropoff = (next() % n) as u32;
        if dropoff == pickup {
            dropoff = (dropoff + 1) % n as u32;
        }
        let direct = oracle.dist(pickup, dropoff);
        p.waiting.push(WaitingTrip {
            trip: t,
            pickup,
            dropoff,
            pickup_deadline: 8_400.0,
            max_ride: direct * 1.2,
        });
    }
    p
}

fn bench_matchers(c: &mut Criterion) {
    let oracle = oracle();
    let solvers: Vec<(&str, Box<dyn ScheduleSolver>)> = vec![
        ("brute_force", Box::new(BruteForceSolver::default())),
        ("branch_bound", Box::new(BranchBoundSolver::default())),
        ("mip", Box::new(MipScheduleSolver::default())),
    ];
    for trips in [1usize, 2, 3, 4] {
        let p = problem(&oracle, trips);
        let mut group = c.benchmark_group(format!("matcher_{trips}_trips"));
        if trips >= 3 {
            group.sample_size(10);
        }
        for (name, solver) in &solvers {
            // The MIP baseline at 4 trips takes far longer than the others;
            // that asymmetry is the paper's point, but keep the bench finite.
            if *name == "mip" && trips >= 4 {
                continue;
            }
            group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, _| {
                b.iter(|| solver.solve(&p, &oracle).is_feasible())
            });
        }
        group.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(15)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_matchers
}
criterion_main!(benches);
