//! Property: a run interrupted at an arbitrary point and resumed from its
//! checkpoint is indistinguishable from a run that never stopped.
//!
//! For random workloads, fleets, planners and snapshot positions, the
//! resumed simulation must finish with the same report (every
//! deterministic field bit-for-bit — wall-clock latency means are
//! excluded, as nanosecond timings are not a function of simulation
//! state), the same per-request traces, and the same final fleet
//! geometry as the straight-through run.

use kinetic_core::{KineticConfig, PlannerKind, SolverKind};
use proptest::prelude::*;
use rideshare_sim::checkpoint::digest_trips;
use rideshare_sim::{RequestTrace, SimConfig, Simulation};
use rideshare_workload::{CityConfig, DemandConfig, TripEvent, Workload};
use roadnet::CachedOracle;

fn planner_strategy() -> impl Strategy<Value = PlannerKind> {
    prop_oneof![
        Just(PlannerKind::Kinetic(KineticConfig::basic())),
        Just(PlannerKind::Kinetic(KineticConfig::slack())),
        Just(PlannerKind::Kinetic(KineticConfig::hotspot(300.0))),
        Just(PlannerKind::Solver(SolverKind::BranchBound)),
    ]
}

/// Submits each of `trips` at its own time, advancing the fleet to it
/// first as [`Simulation::run`] does.
fn replay(sim: &mut Simulation<'_>, trips: &[TripEvent]) {
    for trip in trips {
        sim.advance_all(sim.config().seconds_to_meters(trip.time_seconds));
        sim.submit(trip);
    }
}

/// Everything deterministic a finished run exposes, with float fields
/// compared through their bit patterns.
fn observables(sim: &Simulation<'_>) -> (Vec<u64>, Vec<RequestTrace>, Vec<u32>) {
    let r = sim.report();
    let numbers = vec![
        r.requests,
        r.assigned,
        r.rejected,
        r.completed,
        r.guarantee_violations,
        r.mean_wait_seconds.to_bits(),
        r.mean_detour_ratio.to_bits(),
        r.fleet_distance_km.to_bits(),
        r.distance_per_delivery_km.to_bits(),
        r.mean_candidates.to_bits(),
        r.span_seconds.to_bits(),
        r.occupancy.fleet_max as u64,
        r.occupancy.mean_of_max.to_bits(),
        r.occupancy.top20_mean_of_max.to_bits(),
        r.occupancy.mean_at_pickup.to_bits(),
        r.art_table.iter().map(|&(k, c, _)| k as u64 + c).sum(),
    ];
    (
        numbers,
        sim.trace().iter().copied().collect(),
        sim.vehicles().iter().map(|v| v.location()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn resume_equals_straight_through(
        seed in 0u64..1_000,
        trips in 20usize..60,
        vehicles in 5usize..16,
        cut_permille in 0usize..1_000,
        cruise_bit in 0usize..2,
        planner in planner_strategy(),
    ) {
        let w = Workload::generate(
            &CityConfig::small(),
            &DemandConfig {
                trips,
                span_seconds: 2.0 * 3_600.0,
                ..DemandConfig::default()
            },
            seed,
        );
        let config = SimConfig {
            vehicles,
            planner,
            cruise_when_idle: cruise_bit == 1,
            seed: seed ^ 0xDEAD_BEEF,
            ..SimConfig::default()
        };
        let digest = digest_trips(&w.trips);
        let oracle = CachedOracle::new(&w.network);

        let mut straight = Simulation::new(&w.network, &oracle, config);
        replay(&mut straight, &w.trips);
        straight.drain();
        let expect = observables(&straight);

        // Snapshot after an arbitrary number of submitted requests.
        let cut = (cut_permille * trips) / 1_000;
        let mut interrupted = Simulation::new(&w.network, &oracle, config);
        replay(&mut interrupted, &w.trips[..cut]);
        let bytes = interrupted.checkpoint_bytes(cut, digest);
        drop(interrupted);

        let (mut resumed, next) =
            Simulation::resume(&w.network, &oracle, config, &w.trips, &bytes)
                .expect("checkpoint must restore");
        prop_assert_eq!(next, cut);
        replay(&mut resumed, &w.trips[next..]);
        resumed.drain();
        let got = observables(&resumed);
        prop_assert_eq!(&got.0, &expect.0, "report diverged (cut {})", cut);
        prop_assert_eq!(&got.1, &expect.1, "traces diverged (cut {})", cut);
        prop_assert_eq!(&got.2, &expect.2, "fleet diverged (cut {})", cut);
    }
}
