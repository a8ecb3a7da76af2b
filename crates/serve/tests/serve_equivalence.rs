//! Property tests for the serving layer.
//!
//! Two guarantees the serve mode must keep no matter how hostile the
//! arrival pattern:
//!
//! 1. **Exact accounting** — every offered request is either admitted or
//!    shed (with a reason), admitted splits into assigned + rejected, and
//!    the latency histogram holds one sample per admitted request, even
//!    under bursty arrivals that slam the bounded queue.
//! 2. **Bit-identical dispatch** — serving only changes *which* requests
//!    reach the dispatcher and *when*; replaying the recorded
//!    `(advance_to, batch)` dispatches through the offline
//!    `advance_all` + `submit_batch` API on a fresh simulation must
//!    reproduce every assignment, wait sample and report field exactly.

use std::sync::OnceLock;

use proptest::prelude::*;
use rideshare_serve::{ServeConfig, ServeLoop, ServiceModel, SloConfig};
use rideshare_sim::{SimConfig, Simulation};
use rideshare_workload::{CityConfig, DemandConfig, TripEvent, Workload};
use roadnet::CachedOracle;

/// One shared small city: workload generation is the expensive part and the
/// properties only need variety in arrivals and budgets, not in the map.
fn workload() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| {
        Workload::generate(
            &CityConfig::small(),
            &DemandConfig {
                trips: 40,
                ..DemandConfig::default()
            },
            23,
        )
    })
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        vehicles: 10,
        seed,
        ..SimConfig::default()
    }
}

/// Expands proptest-drawn `(gap_s, burst_size)` pairs into a sorted arrival
/// stream: bursts of up to 30 simultaneous requests separated by gaps of up
/// to 20 s — exactly the pattern that overruns a bounded queue.
fn bursty_arrivals(bursts: &[(f64, u8)]) -> Vec<TripEvent> {
    let pool = &workload().trips;
    let mut t = 0.0;
    let mut id = 0u64;
    let mut out = Vec::new();
    for &(gap, size) in bursts {
        t += gap;
        for _ in 0..size {
            let template = &pool[id as usize % pool.len()];
            id += 1;
            out.push(TripEvent {
                id,
                source: template.source,
                destination: template.destination,
                time_seconds: t,
            });
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Accounting stays exact under arbitrary bursty load against
    /// arbitrary (tight) admission budgets. The serve loop also checks
    /// its own counters at the end of the run, so a lost request or a
    /// latency sample too many or too few would panic here.
    #[test]
    fn shed_admitted_accounting_is_exact_under_bursts(
        bursts in prop::collection::vec((0.0f64..20.0, 0u8..30), 1..20),
        queue_capacity in 1usize..40,
        max_queue_wait in 0.5f64..15.0,
        per_request_cost in 0.001f64..0.8,
    ) {
        let w = workload();
        let arrivals = bursty_arrivals(&bursts);
        let offered = arrivals.len() as u64;
        let oracle = CachedOracle::new(&w.network);
        let sim = Simulation::new(&w.network, &oracle, sim_config(7));
        let mut serve = ServeLoop::new(sim, ServeConfig {
            slo: SloConfig {
                queue_capacity,
                max_queue_wait_seconds: max_queue_wait,
                ..SloConfig::default()
            },
            model: ServiceModel::Fixed {
                tick_overhead_s: 0.05,
                per_request_s: per_request_cost,
            },
            record_batches: false,
            ..ServeConfig::default()
        });
        let report = serve.run(arrivals.into_iter());

        prop_assert_eq!(report.offered, offered, "no arrival may vanish");
        prop_assert_eq!(
            report.offered,
            report.admitted + report.shed_queue_full + report.shed_stale
        );
        prop_assert_eq!(report.admitted, report.assigned + report.rejected);
        prop_assert_eq!(report.latency.count, report.admitted);
        prop_assert_eq!(report.assigned_latency.count, report.assigned);
        prop_assert!(report.queue_depth_max <= queue_capacity);
        prop_assert_eq!(report.guarantee_violations, 0u64);
    }

    /// Serve-mode dispatch is bit-identical to the offline batch API:
    /// replaying the admitted stream through `advance_all` +
    /// `submit_batch` on a fresh simulation reproduces the run exactly.
    #[test]
    fn serve_dispatch_is_bit_identical_to_offline_submit_batch(
        bursts in prop::collection::vec((0.0f64..15.0, 0u8..12), 1..12),
        seed in 0u64..1000,
        per_request_cost in 0.001f64..0.3,
    ) {
        let w = workload();
        let arrivals = bursty_arrivals(&bursts);
        let oracle = CachedOracle::new(&w.network);

        let serve_sim = Simulation::new(&w.network, &oracle, sim_config(seed));
        let mut serve = ServeLoop::new(serve_sim, ServeConfig {
            slo: SloConfig { queue_capacity: 64, ..SloConfig::default() },
            model: ServiceModel::Fixed {
                tick_overhead_s: 0.02,
                per_request_s: per_request_cost,
            },
            record_batches: true,
            ..ServeConfig::default()
        });
        let report = serve.run(arrivals.into_iter());

        // Offline replay of the recorded dispatches, same config and seed.
        let mut reference = Simulation::new(&w.network, &oracle, sim_config(seed));
        for (advance_to_s, batch) in serve.recorded_batches() {
            let until_m = reference.config().seconds_to_meters(*advance_to_s);
            reference.advance_all(until_m);
            reference.submit_batch(batch);
        }
        reference.drain();

        let serve_trace: Vec<_> = serve.sim().trace().iter().copied().collect();
        let reference_trace: Vec<_> = reference.trace().iter().copied().collect();
        prop_assert_eq!(serve_trace, reference_trace, "per-request traces diverged");

        let a = serve.sim().report();
        let b = reference.report();
        prop_assert_eq!(a.requests, b.requests);
        prop_assert_eq!(a.assigned, b.assigned);
        prop_assert_eq!(a.rejected, b.rejected);
        // `acrt_ms` is deliberately absent: it averages *wall-clock*
        // dispatch nanoseconds, the one observable that is not a function
        // of simulation state (same caveat as checkpoint/resume).
        prop_assert_eq!(a.mean_wait_seconds, b.mean_wait_seconds);
        prop_assert_eq!(a.mean_detour_ratio, b.mean_detour_ratio);
        prop_assert_eq!(a.guarantee_violations, b.guarantee_violations);
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.fleet_distance_km, b.fleet_distance_km);
        prop_assert_eq!(serve.sim().pickups(), reference.pickups());

        // And the serve report agrees with the engine's own counters.
        prop_assert_eq!(report.admitted, a.requests);
        prop_assert_eq!(report.assigned, a.assigned);
    }
}
