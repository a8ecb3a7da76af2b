//! A 2-trip insertion solved end to end by the MIP matcher (Sec. III-A).
//!
//! One vehicle already carries a passenger and has accepted (but not yet
//! picked up) another; a new request arrives. The matcher builds the
//! paper's MTZ mixed-integer formulation over the unfinished stops and
//! hands it to the workspace's sparse revised-simplex + warm-started
//! branch-and-bound solver, then the resulting schedule is validated
//! against every service guarantee and cross-checked against brute force.
//!
//! ```text
//! cargo run --release --example mip_matching
//! ```

use kinetic_core::algorithms::{
    mip_model_size, BruteForceSolver, MipScheduleSolver, ScheduleSolver, SolverOutcome,
};
use kinetic_core::problem::{OnboardTrip, SchedulingProblem, WaitingTrip};
use roadnet::{CachedOracle, DistanceOracle, GeneratorConfig, NetworkKind};

fn main() {
    // A small grid city and its exact distance oracle.
    let network = GeneratorConfig {
        kind: NetworkKind::Grid { rows: 8, cols: 8 },
        seed: 7,
        ..GeneratorConfig::default()
    }
    .generate();
    let oracle = CachedOracle::new(&network);

    // The vehicle sits at vertex 0 with one passenger on board (drop-off at
    // vertex 27) and one accepted trip still waiting at vertex 12. A new
    // request from vertex 45 to vertex 18 is being evaluated — by
    // convention it joins the waiting set, making this a 2-trip insertion.
    let mut problem = SchedulingProblem::new(0, 0.0, 4);
    problem.onboard.push(OnboardTrip {
        trip: 1,
        dropoff: 27,
        dropoff_deadline: 12_000.0,
    });
    for (trip, pickup, dropoff) in [(2u64, 12u32, 60u32), (3, 45, 18)] {
        let direct = oracle.dist(pickup, dropoff);
        problem.waiting.push(WaitingTrip {
            trip,
            pickup,
            dropoff,
            // 10 min waiting guarantee (8,400 m at 14 m/s) and a 20% detour
            // allowance — the paper's default service constraints.
            pickup_deadline: 8_400.0,
            max_ride: direct * 1.2,
        });
    }

    let (vars, cons) = mip_model_size(&problem);
    println!(
        "scheduling problem: {} onboard + {} waiting -> MIP with ~{} variables, ~{} constraints",
        problem.onboard.len(),
        problem.waiting.len(),
        vars,
        cons,
    );

    // Solve with the MIP matcher and decode the optimal stop ordering.
    let outcome = MipScheduleSolver::default().solve(&problem, &oracle);
    let SolverOutcome::Feasible { cost, schedule } = &outcome else {
        panic!("expected a feasible schedule, got {outcome:?}");
    };
    println!("\noptimal schedule ({cost:.0} m total):");
    for (i, stop) in schedule.iter().enumerate() {
        println!("  {}. {stop}", i + 1);
    }

    // The service guarantees hold: validate re-walks the schedule against
    // the oracle and checks every deadline, detour and capacity bound.
    let validated = problem
        .validate(schedule, &oracle)
        .expect("MIP schedule keeps every service guarantee");
    assert!((validated - cost).abs() < 1e-6);

    // And the MIP optimum agrees with exhaustive enumeration.
    let brute = BruteForceSolver::default().solve(&problem, &oracle);
    assert_eq!(
        brute.cost().map(|c| (c * 1e6).round()),
        Some((cost * 1e6).round()),
        "MIP and brute force must agree on the optimum"
    );
    println!("\nvalidated: all guarantees hold; brute force agrees on {validated:.0} m");
}
