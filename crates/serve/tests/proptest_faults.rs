//! Property tests for the fault-injection layer: under an **arbitrary**
//! seeded [`FaultPlan`] — random oracle-spike and torn-checkpoint rates,
//! with and without a mid-run kill — the serve loop's exact-accounting
//! invariant must hold, guarantees must stay unviolated, and a killed run
//! must recover to the bit-identical report an uninterrupted run produces.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use kinetic_core::FaultPlan;
use proptest::prelude::*;
use rideshare_serve::{
    resume_serve, RecoveryConfig, ServeConfig, ServeLoop, ServiceModel, SloConfig,
};
use rideshare_sim::{SimConfig, Simulation};
use rideshare_workload::{CityConfig, DemandConfig, TripEvent, Workload};
use roadnet::CachedOracle;

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

fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "serve_proptest_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Exact accounting holds under every random fault plan, and a run
    /// killed at an arbitrary tick recovers to the identical report.
    #[test]
    fn accounting_is_exact_under_arbitrary_fault_plans_and_kills(
        bursts in prop::collection::vec((0.0f64..8.0, 0u8..20), 2..8),
        fault_seed in 0u64..10_000,
        spike_rate in 0.0f64..1.0,
        spike_seconds in 0.0f64..2.0,
        torn_rate in 0.0f64..1.0,
        kill_fraction in 0.05f64..0.95,
        queue_capacity in 4usize..48,
        per_request_cost in 0.01f64..0.35,
        every in 1u64..8,
    ) {
        let w = workload();
        let arrivals = bursty_arrivals(&bursts);
        let offered = arrivals.len() as u64;
        let oracle = CachedOracle::new(&w.network);
        let fault = FaultPlan {
            seed: fault_seed,
            oracle_spike_rate: spike_rate,
            oracle_spike_seconds: spike_seconds,
            torn_checkpoint_rate: torn_rate,
            ..FaultPlan::none()
        };
        let cfg = ServeConfig {
            slo: SloConfig {
                queue_capacity,
                max_queue_wait_seconds: 6.0,
                degrade_compute_budget_seconds: 0.4,
                recover_healthy_ticks: 2,
                ..SloConfig::default()
            },
            model: ServiceModel::Fixed {
                tick_overhead_s: 0.05,
                per_request_s: per_request_cost,
            },
            record_batches: false,
            fault,
        };

        // Uninterrupted reference, through the recoverable entry point so
        // journal bookkeeping matches the recovered run.
        let ref_dir = scratch_dir("ref");
        let rc = RecoveryConfig { dir: ref_dir.clone(), checkpoint_every_ticks: every };
        let sim = Simulation::new(&w.network, &oracle, sim_config(7));
        let mut serve = ServeLoop::new(sim, cfg);
        let reference = serve
            .run_recoverable(arrivals.iter().copied(), &rc)
            .expect("journaling must not fail")
            .expect("no kill configured");
        std::fs::remove_dir_all(&ref_dir).ok();

        // Accounting invariants under the arbitrary fault schedule.
        prop_assert_eq!(reference.offered, offered, "no arrival may vanish");
        prop_assert_eq!(
            reference.offered,
            reference.admitted + reference.shed_queue_full + reference.shed_stale
        );
        prop_assert_eq!(reference.admitted, reference.assigned + reference.rejected);
        prop_assert_eq!(reference.guarantee_violations, 0u64);
        prop_assert_eq!(
            reference.dispatch_full + reference.dispatch_slack_pruned + reference.dispatch_greedy,
            reference.dispatch_ticks
        );

        // Kill at an arbitrary tick inside the run, recover, compare.
        let kill_tick = ((reference.ticks as f64 * kill_fraction) as u64).max(1);
        let kill_dir = scratch_dir("kill");
        let rc = RecoveryConfig { dir: kill_dir.clone(), checkpoint_every_ticks: every };
        let kill_cfg = ServeConfig {
            fault: FaultPlan { kill_at_tick: Some(kill_tick), ..fault },
            ..cfg
        };
        let sim = Simulation::new(&w.network, &oracle, sim_config(7));
        let mut serve = ServeLoop::new(sim, kill_cfg);
        let killed = serve
            .run_recoverable(arrivals.iter().copied(), &rc)
            .expect("journaling must not fail");
        prop_assert!(killed.is_none(), "kill at {kill_tick} <= {} must fire", reference.ticks);

        let mut recovered = resume_serve(
            &w.network,
            &oracle,
            sim_config(7),
            kill_cfg,
            arrivals.iter().copied(),
            &rc,
        )
        .expect("recovery must succeed");
        std::fs::remove_dir_all(&kill_dir).ok();

        prop_assert!(recovered.recovered);
        recovered.recovered = false;
        prop_assert_eq!(
            recovered,
            reference,
            "kill at tick {} under fault plan {:?} diverged",
            kill_tick,
            fault
        );
    }
}
