//! Crash-safety tests for the serve loop: kill the run at a tick, recover
//! from (checkpoint + journal replay), and require the final report to be
//! **identical** to an uninterrupted run — counters, histograms, ladder
//! state, fault counters, everything except the `recovered` flag. The
//! deterministic [`ServiceModel::Fixed`] model makes the comparison exact
//! (the same caveat as simulation checkpoint/resume: wall-clock is the one
//! observable excluded, and under the fixed model there is none).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use rideshare_serve::{
    resume_serve, FaultPlan, RecoveryConfig, ServeConfig, ServeLoop, ServeReport, ServiceModel,
    SloConfig,
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

/// Bursty arrival stream over the shared pool: `(gap_s, burst)` pairs.
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

/// A fresh scratch directory per call, cleaned up by the caller.
fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "serve_recovery_{tag}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn serve_config(fault: FaultPlan) -> ServeConfig {
    ServeConfig {
        slo: SloConfig {
            queue_capacity: 16,
            max_queue_wait_seconds: 8.0,
            degrade_compute_budget_seconds: 0.3,
            recover_healthy_ticks: 2,
            ..SloConfig::default()
        },
        model: ServiceModel::Fixed {
            tick_overhead_s: 0.05,
            per_request_s: 0.04,
        },
        record_batches: false,
        fault,
    }
}

/// Runs the uninterrupted reference through the *same* recoverable entry
/// point (different directory, kill disabled), so journal and torn-write
/// bookkeeping match the recovered run field for field.
fn reference_run(arrivals: &[TripEvent], fault: FaultPlan, every: u64) -> ServeReport {
    let w = workload();
    let oracle = CachedOracle::new(&w.network);
    let sim = Simulation::new(&w.network, &oracle, sim_config(7));
    let mut serve = ServeLoop::new(
        sim,
        serve_config(FaultPlan {
            kill_at_tick: None,
            ..fault
        }),
    );
    let dir = scratch_dir("ref");
    let rc = RecoveryConfig {
        dir: dir.clone(),
        checkpoint_every_ticks: every,
    };
    let report = serve
        .run_recoverable(arrivals.iter().copied(), &rc)
        .expect("reference run does no recovery IO that can fail")
        .expect("reference run is never killed");
    std::fs::remove_dir_all(&dir).ok();
    report
}

/// Kills at `kill_tick`, recovers, and returns the recovered report.
fn kill_and_recover(
    arrivals: &[TripEvent],
    fault: FaultPlan,
    kill_tick: u64,
    every: u64,
    corrupt_checkpoint: bool,
) -> ServeReport {
    let w = workload();
    let oracle = CachedOracle::new(&w.network);
    let dir = scratch_dir("kill");
    let rc = RecoveryConfig {
        dir: dir.clone(),
        checkpoint_every_ticks: every,
    };
    let fault = FaultPlan {
        kill_at_tick: Some(kill_tick),
        ..fault
    };
    let cfg = serve_config(fault);
    let sim = Simulation::new(&w.network, &oracle, sim_config(7));
    let mut serve = ServeLoop::new(sim, cfg);
    let killed = serve
        .run_recoverable(arrivals.iter().copied(), &rc)
        .expect("journaling must not fail");
    assert!(killed.is_none(), "kill at tick {kill_tick} must fire");
    drop(serve);

    if corrupt_checkpoint {
        let path = rc.checkpoint_path();
        if let Ok(mut bytes) = std::fs::read(&path) {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, bytes).unwrap();
        }
    }

    let report = resume_serve(
        &w.network,
        &oracle,
        sim_config(7),
        cfg,
        arrivals.iter().copied(),
        &rc,
    )
    .expect("recovery must succeed");
    std::fs::remove_dir_all(&dir).ok();
    report
}

/// The recovered report with its `recovered` marker cleared, for direct
/// equality against the uninterrupted reference.
fn normalized(mut r: ServeReport) -> ServeReport {
    assert!(r.recovered, "resume_serve must mark the report recovered");
    r.recovered = false;
    r
}

#[test]
fn kill_and_recover_matches_uninterrupted_run_at_many_kill_ticks() {
    let arrivals = bursty_arrivals(&[
        (1.0, 20),
        (3.0, 28),
        (0.5, 12),
        (6.0, 25),
        (2.0, 18),
        (9.0, 30),
        (4.0, 9),
    ]);
    let fault = FaultPlan {
        seed: 11,
        oracle_spike_rate: 0.2,
        oracle_spike_seconds: 0.7,
        ..FaultPlan::none()
    };
    let every = 4;
    let reference = reference_run(&arrivals, fault, every);
    assert!(reference.ticks > 12, "need a long enough run to kill into");
    assert_eq!(reference.guarantee_violations, 0);

    // Before the first checkpoint (journal-only recovery), exactly on a
    // checkpoint boundary, just after one, and deep into the run.
    for kill_tick in [2, every, every + 1, 11, reference.ticks - 1] {
        let recovered = kill_and_recover(&arrivals, fault, kill_tick, every, false);
        assert_eq!(
            normalized(recovered),
            reference,
            "kill at tick {kill_tick} diverged from the uninterrupted run"
        );
    }
}

#[test]
fn recovery_survives_every_checkpoint_write_being_torn() {
    let arrivals = bursty_arrivals(&[(1.0, 16), (4.0, 24), (2.0, 20), (7.0, 22), (3.0, 10)]);
    let fault = FaultPlan {
        seed: 5,
        torn_checkpoint_rate: 1.0,
        ..FaultPlan::none()
    };
    let every = 3;
    let reference = reference_run(&arrivals, fault, every);
    assert!(
        reference.fault_torn_checkpoints > 0,
        "rate 1.0 must tear every dump: {reference:?}"
    );

    // With every checkpoint torn, recovery has only the journal: it
    // re-executes from scratch and must still land on the identical run.
    let recovered = kill_and_recover(&arrivals, fault, 10, every, false);
    assert_eq!(normalized(recovered), reference);
}

#[test]
fn corrupt_checkpoint_falls_back_to_fresh_start_and_still_matches() {
    let arrivals = bursty_arrivals(&[(1.0, 18), (5.0, 26), (2.0, 14), (8.0, 21)]);
    let fault = FaultPlan {
        seed: 3,
        ..FaultPlan::none()
    };
    let every = 3;
    let reference = reference_run(&arrivals, fault, every);

    // Kill late enough that a checkpoint exists, then flip a byte in it:
    // the checksum rejects the image, recovery restarts from the journal
    // head and the result is still bit-identical.
    let recovered = kill_and_recover(&arrivals, fault, 9, every, true);
    assert_eq!(normalized(recovered), reference);
}

#[test]
fn burst_at_watermark_sheds_each_bounced_arrival_exactly_once() {
    // Regression for the double-shed edge: a burst overruns the bounded
    // queue in the same ticks the ladder degrades, the run is killed right
    // after, and recovery must not re-offer (and re-shed) the arrivals
    // that already bounced — the arrival cursor skips *offered*, not
    // *admitted*, requests.
    let arrivals = bursty_arrivals(&[(1.0, 30), (0.2, 30), (0.2, 30), (10.0, 8), (5.0, 6)]);
    let fault = FaultPlan::none();
    let every = 2;
    let reference = reference_run(&arrivals, fault, every);
    assert!(
        reference.shed_queue_full > 0,
        "the burst must overrun the queue: {reference:?}"
    );
    assert!(
        reference.degraded_ticks > 0,
        "the burst must trip the ladder: {reference:?}"
    );

    // Kill in the middle of the burst window, right after bounces landed.
    for kill_tick in [2, 3, 4] {
        let recovered = kill_and_recover(&arrivals, fault, kill_tick, every, false);
        let recovered = normalized(recovered);
        assert_eq!(
            recovered.shed_queue_full, reference.shed_queue_full,
            "queue-full sheds double-counted after recovery at kill {kill_tick}"
        );
        assert_eq!(
            recovered.shed_stale, reference.shed_stale,
            "bounced arrivals re-shed as stale after recovery at kill {kill_tick}"
        );
        assert_eq!(recovered, reference);
    }
}
