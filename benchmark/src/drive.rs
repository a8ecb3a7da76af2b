//! Pass drivers: one deterministic pass over a workload, every engine
//! call timed as its own step.
//!
//! The replays call the engine directly (`advance_all`, `submit` or
//! `submit_batch`, `drain`). The serve loop owns its tick loop, so the
//! harness times it from the one place it is let in: the arrival
//! iterator it hands to `ServeLoop::run`. The gaps between pulls on that
//! iterator bracket each tick.

use std::ops::Range;
use std::time::Instant;

use kinetic_core::{AssignmentOutcome, DispatchStats, Vehicle};
use rideshare_serve::{RecoveryConfig, ServeConfig, ServeLoop, ServeReport};
use rideshare_sim::{ShardedSimulation, SimConfig, SimReport, Simulation, TraceLog};
use rideshare_workload::TripEvent;

use crate::check::{check_admitted, check_pass, digest, Tally};
use crate::clock::{timed, OracleWork, Step, StepKind};
use crate::probe::Tap;

/// What the replay driver needs from an engine; implemented by the
/// single-shard and the sharded one so both run the same driver.
pub trait Engine {
    /// See `Simulation::advance_all`.
    fn advance_all(&mut self, until_m: f64);
    /// See `Simulation::submit`.
    fn submit(&mut self, trip: &TripEvent) -> AssignmentOutcome;
    /// See `Simulation::submit_batch`.
    fn submit_batch(&mut self, trips: &[TripEvent]) -> Vec<AssignmentOutcome>;
    /// See `Simulation::drain`.
    fn drain(&mut self);
    /// See `Simulation::report`.
    fn report(&self) -> SimReport;
    /// See `Simulation::trace`.
    fn trace(&self) -> &TraceLog;
    /// See `Simulation::config`.
    fn config(&self) -> &SimConfig;
    /// See `Simulation::dispatch_stats`.
    fn dispatch_stats(&self) -> DispatchStats;
    /// A copy of the fleet in vehicle-id order.
    fn fleet(&self) -> Vec<Vehicle>;
}

macro_rules! forward_engine {
    ($ty:ty, $stats:expr, $fleet:expr) => {
        impl Engine for $ty {
            fn advance_all(&mut self, until_m: f64) {
                <$ty>::advance_all(self, until_m)
            }
            fn submit(&mut self, trip: &TripEvent) -> AssignmentOutcome {
                <$ty>::submit(self, trip)
            }
            fn submit_batch(&mut self, trips: &[TripEvent]) -> Vec<AssignmentOutcome> {
                <$ty>::submit_batch(self, trips)
            }
            fn drain(&mut self) {
                <$ty>::drain(self)
            }
            fn report(&self) -> SimReport {
                <$ty>::report(self)
            }
            fn trace(&self) -> &TraceLog {
                <$ty>::trace(self)
            }
            fn config(&self) -> &SimConfig {
                <$ty>::config(self)
            }
            fn dispatch_stats(&self) -> DispatchStats {
                $stats(self)
            }
            fn fleet(&self) -> Vec<Vehicle> {
                $fleet(self)
            }
        }
    };
}

forward_engine!(
    Simulation<'_>,
    |s: &Simulation<'_>| s.dispatch_stats().clone(),
    |s: &Simulation<'_>| s.vehicles().to_vec()
);
forward_engine!(
    ShardedSimulation<'_>,
    |s: &ShardedSimulation<'_>| s.dispatch_stats(),
    |s: &ShardedSimulation<'_>| s.vehicles().into_iter().cloned().collect()
);

/// One dispatch point of a replay: advance the fleet to `advance_to_s`,
/// then dispatch `trips[range]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Simulated second the fleet is advanced to.
    pub advance_to_s: f64,
    /// The window's requests, as a range into [`Plan::trips`].
    pub range: Range<usize>,
}

/// The dispatch points of one replay pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Every request, in submission order.
    pub trips: Vec<TripEvent>,
    /// Dispatch points, in order.
    pub windows: Vec<Window>,
    /// `submit_batch` per window when true, `submit` per request when
    /// false (every window then holds exactly one request).
    pub batched: bool,
}

impl Plan {
    /// One `submit` per request, at the request's own time.
    pub fn per_request(trips: &[TripEvent]) -> Plan {
        Plan {
            trips: trips.to_vec(),
            windows: trips
                .iter()
                .enumerate()
                .map(|(i, t)| Window {
                    advance_to_s: t.time_seconds,
                    range: i..i + 1,
                })
                .collect(),
            batched: false,
        }
    }

    /// One `submit_batch` per dispatch window of `window_s` seconds,
    /// grouped exactly as `Simulation::run` groups them: consecutive
    /// trips with the same `floor(t / window)`, the fleet advanced to the
    /// window's last request.
    pub fn windowed(trips: &[TripEvent], window_s: f64) -> Plan {
        let mut windows = Vec::new();
        let mut start = 0;
        while start < trips.len() {
            let bucket = (trips[start].time_seconds / window_s).floor();
            let mut end = start + 1;
            while end < trips.len() && (trips[end].time_seconds / window_s).floor() == bucket {
                end += 1;
            }
            windows.push(Window {
                advance_to_s: trips[end - 1].time_seconds,
                range: start..end,
            });
            start = end;
        }
        Plan {
            trips: trips.to_vec(),
            windows,
            batched: true,
        }
    }

    /// The offline replay of a serve run: its recorded `(advance_to,
    /// batch)` dispatches through `advance_all` + `submit_batch`.
    pub fn recorded(batches: &[(f64, Vec<TripEvent>)]) -> Plan {
        let mut trips = Vec::new();
        let mut windows = Vec::new();
        for (advance_to_s, batch) in batches {
            let start = trips.len();
            trips.extend_from_slice(batch);
            windows.push(Window {
                advance_to_s: *advance_to_s,
                range: start..trips.len(),
            });
        }
        Plan {
            trips,
            windows,
            batched: true,
        }
    }
}

/// Everything one finished pass produced.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Every engine call, in order, with its wall time.
    pub steps: Vec<Step>,
    /// Digest of the pass's decisions ([`digest`]).
    pub digest: u64,
    /// The engine's final report.
    pub report: SimReport,
    /// The engine's dispatch counters (and its own ART timers).
    pub stats: DispatchStats,
    /// Output-check results.
    pub tally: Tally,
}

/// Watches a replay pass from between its steps (never inside a timed
/// call). Used by the sampling pass of a traced run.
pub trait Observer<E: Engine> {
    /// Whether the dispatch at window `w` should be observed.
    fn wants(&self, w: usize) -> bool;
    /// Called for an observed window with the fleet as it was just before
    /// the dispatch (after the advance) and the engine just after it.
    fn dispatched(
        &mut self,
        before: Vec<Vehicle>,
        engine: &E,
        trips: &[TripEvent],
        outcomes: &[AssignmentOutcome],
    );
}

/// Runs one replay pass on a fresh engine. `tap`, when given, attributes
/// the oracle work seen by the tracing wrapper to the engine call that
/// caused it.
pub fn replay_pass<E: Engine>(
    engine: &mut E,
    plan: &Plan,
    tap: Option<&dyn Tap>,
    mut observer: Option<&mut dyn Observer<E>>,
) -> Pass {
    let config = *engine.config();
    let mut steps = Vec::with_capacity(plan.windows.len() * 2 + 1);
    let oracle_work = |tap: Option<&dyn Tap>| tap.map_or(OracleWork::default(), |t| t.take());
    oracle_work(tap);
    for (w, window) in plan.windows.iter().enumerate() {
        let until_m = config.seconds_to_meters(window.advance_to_s);
        let ((), nanos) = timed(|| engine.advance_all(until_m));
        steps.push(Step {
            oracle: oracle_work(tap),
            ..Step::new(StepKind::Advance, nanos, 0)
        });
        let batch = &plan.trips[window.range.clone()];
        let before = match &observer {
            Some(o) if o.wants(w) => Some(engine.fleet()),
            _ => None,
        };
        let (outcomes, nanos, kind) = if plan.batched {
            let (out, nanos) = timed(|| engine.submit_batch(batch));
            (out, nanos, StepKind::Batch)
        } else {
            let (out, nanos) = timed(|| engine.submit(&batch[0]));
            (vec![out], nanos, StepKind::Submit)
        };
        steps.push(Step {
            oracle: oracle_work(tap),
            ..Step::new(kind, nanos, batch.len() as u32)
        });
        if let (Some(o), Some(before)) = (observer.as_deref_mut(), before) {
            o.dispatched(before, engine, batch, &outcomes);
            // The observer may have used the oracle; that is not the
            // next step's work.
            oracle_work(tap);
        }
    }
    let ((), nanos) = timed(|| engine.drain());
    steps.push(Step {
        oracle: oracle_work(tap),
        ..Step::new(StepKind::Drain, nanos, 0)
    });
    let report = engine.report();
    let offered = plan.trips.len() as u64;
    Pass {
        steps,
        digest: digest(engine.trace(), &report),
        tally: check_pass(
            engine.trace(),
            &report,
            config.constraints,
            config.speed_mps,
            offered,
        ),
        stats: engine.dispatch_stats(),
        report,
    }
}

/// One pull on the arrival iterator, as stamped by [`Stamped`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pull {
    /// Nanoseconds from the start of `ServeLoop::run` to the pull.
    pub enter_ns: u64,
    /// Nanoseconds from the start of the run to the pull's return.
    pub exit_ns: u64,
    /// Arrival time of the event returned, `None` at the end of the
    /// stream.
    pub time_s: Option<f64>,
    /// Oracle work since the previous pull returned (traced passes).
    pub work_before: OracleWork,
}

/// An arrival iterator that stamps every pull. The generator's own time
/// (between `enter_ns` and `exit_ns`) belongs to the harness and is left
/// out of every step: arrivals are due in virtual time, so the generator
/// is never late by construction.
pub struct Stamped<'t, I> {
    inner: I,
    origin: Instant,
    tap: Option<&'t dyn Tap>,
    /// Every pull so far, in order.
    pub pulls: Vec<Pull>,
}

impl<'t, I: Iterator<Item = TripEvent>> Stamped<'t, I> {
    /// Wraps `inner`; the run is taken to start now.
    pub fn new(inner: I, tap: Option<&'t dyn Tap>) -> Self {
        Stamped {
            inner,
            origin: Instant::now(),
            tap,
            pulls: Vec::new(),
        }
    }

    fn elapsed_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl<I: Iterator<Item = TripEvent>> Iterator for Stamped<'_, I> {
    type Item = TripEvent;

    fn next(&mut self) -> Option<TripEvent> {
        let enter_ns = self.elapsed_ns();
        let work_before = self.tap.map_or(OracleWork::default(), |t| t.take());
        let item = self.inner.next();
        self.pulls.push(Pull {
            enter_ns,
            exit_ns: self.elapsed_ns(),
            time_s: item.map(|t| t.time_seconds),
            work_before,
        });
        item
    }
}

/// Turns the stamps of one serve run into one step per tick.
///
/// The serve loop pulls arrival `i` right after it accepted arrival
/// `i − 1` into its queue, and it only learns that a tick's window is
/// over by pulling (and holding back) the first arrival of a later tick.
/// So the gap before pull `i` lies in the tick of arrival `i − 2`: it is
/// either a queue push in that same tick, or — when arrival `i − 1`
/// belongs to a later tick — the whole dispatch of arrival `i − 2`'s
/// tick. The time from the last pull (which returned `None`) to the end
/// of the run is the last tick's dispatch plus the final drain; it
/// becomes a `Drain` step and its requests get no response sample.
pub fn tick_steps(pulls: &[Pull], end_ns: u64, final_work: OracleWork, tick_s: f64) -> Vec<Step> {
    let ticks: Vec<u64> = pulls
        .iter()
        .filter_map(|p| p.time_s)
        .map(|t| (t / tick_s).floor() as u64)
        .collect();
    let mut steps: Vec<(u64, Step)> = Vec::new();
    for &tick in &ticks {
        match steps.last_mut() {
            Some((t, step)) if *t == tick => step.requests += 1,
            _ => steps.push((tick, Step::new(StepKind::Tick, 0, 1))),
        }
    }
    if ticks.is_empty() {
        return Vec::new();
    }
    let mut prev_exit = 0;
    for (i, pull) in pulls.iter().enumerate() {
        let owner = ticks[i.saturating_sub(2).min(ticks.len() - 1)];
        let at = steps
            .iter()
            .position(|(t, _)| *t == owner)
            .expect("every arrival's tick has a step");
        steps[at].1.nanos += pull.enter_ns.saturating_sub(prev_exit);
        steps[at].1.oracle.add(pull.work_before);
        prev_exit = pull.exit_ns;
    }
    let (_, last) = steps.last_mut().expect("at least one tick");
    last.kind = StepKind::Drain;
    last.nanos += end_ns.saturating_sub(prev_exit);
    last.oracle.add(final_work);
    steps.into_iter().map(|(_, s)| s).collect()
}

/// One finished serve pass.
pub struct ServePass {
    /// Steps, digest, report and checks, as for a replay.
    pub pass: Pass,
    /// The serve loop's own report.
    pub serve: ServeReport,
    /// Its recorded `(advance_to, batch)` dispatches.
    pub recorded: Vec<(f64, Vec<TripEvent>)>,
}

/// Runs one serve pass on a fresh engine: `ServeLoop::run` (or
/// `run_recoverable` when `recovery` is given) over stamped arrivals.
pub fn serve_pass<'a>(
    sim: Simulation<'a>,
    config: ServeConfig,
    arrivals: impl Iterator<Item = TripEvent>,
    tap: Option<&dyn Tap>,
    recovery: Option<&RecoveryConfig>,
) -> Result<ServePass, String> {
    let sim_config = *sim.config();
    let mut serve = ServeLoop::new(sim, config);
    if let Some(t) = tap {
        t.take();
    }
    let mut stamped = Stamped::new(arrivals, tap);
    let report = match recovery {
        None => serve.run(&mut stamped),
        Some(rc) => serve
            .run_recoverable(&mut stamped, rc)
            .map_err(|e| format!("journaled serve run failed: {e}"))?
            .ok_or("journaled serve run was killed without a fault plan")?,
    };
    let end_ns = stamped.elapsed_ns();
    let final_work = tap.map_or(OracleWork::default(), |t| t.take());
    let steps = tick_steps(&stamped.pulls, end_ns, final_work, config.slo.tick_seconds);
    let sim_report = serve.sim().report();
    let tally = check_admitted(
        serve.sim().trace(),
        &sim_report,
        sim_config.constraints,
        sim_config.speed_mps,
        report.offered,
        report.admitted,
        report.shed(),
    );
    Ok(ServePass {
        pass: Pass {
            steps,
            digest: digest(serve.sim().trace(), &sim_report),
            stats: serve.sim().dispatch_stats().clone(),
            report: sim_report,
            tally,
        },
        recorded: serve.recorded_batches().to_vec(),
        serve: report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trip(id: u64, t: f64) -> TripEvent {
        TripEvent {
            id,
            source: 0,
            destination: 1,
            time_seconds: t,
        }
    }

    #[test]
    fn windowed_plan_groups_like_the_engine_does() {
        let trips = [trip(0, 0.5), trip(1, 4.9), trip(2, 5.0), trip(3, 17.0)];
        let plan = Plan::windowed(&trips, 5.0);
        let ranges: Vec<_> = plan.windows.iter().map(|w| w.range.clone()).collect();
        assert_eq!(ranges, vec![0..2, 2..3, 3..4]);
        // The fleet advances to the window's last request.
        assert_eq!(plan.windows[0].advance_to_s, 4.9);
        assert!(plan.batched);
        let single = Plan::per_request(&trips);
        assert_eq!(single.windows.len(), 4);
        assert!(!single.batched);
    }

    #[test]
    fn recorded_plan_flattens_serve_batches() {
        let batches = vec![
            (1.0, vec![trip(1, 0.2), trip(2, 0.7)]),
            (2.0, vec![trip(3, 1.5)]),
        ];
        let plan = Plan::recorded(&batches);
        assert_eq!(plan.trips.len(), 3);
        assert_eq!(plan.windows[1].range, 2..3);
        assert_eq!(plan.windows[1].advance_to_s, 2.0);
    }

    fn pull(enter: u64, exit: u64, t: Option<f64>) -> Pull {
        Pull {
            enter_ns: enter,
            exit_ns: exit,
            time_s: t,
            work_before: OracleWork::default(),
        }
    }

    #[test]
    fn gaps_between_pulls_become_one_step_per_tick() {
        // Arrivals at 0.2, 0.6 (tick 0), 1.3 (tick 1), 3.1 (tick 3; tick
        // 2 is empty). The loop pulls 0.2, pushes it, pulls 0.6, pushes
        // it, pulls 1.3 and holds it back; then dispatches tick 0.
        let pulls = [
            pull(10, 11, Some(0.2)),   // start-up gap 10 -> tick 0
            pull(13, 14, Some(0.6)),   // push gap 2 -> tick 0
            pull(16, 17, Some(1.3)),   // push gap 2 -> tick 0
            pull(117, 118, Some(3.1)), // dispatch of tick 0 (100) -> tick 0
            pull(318, 319, None),      // dispatch of tick 1 (200) -> tick 1
        ];
        // After the end of the stream: dispatch of tick 3 and the drain.
        let steps = tick_steps(&pulls, 1_319, OracleWork::default(), 1.0);
        assert_eq!(steps.len(), 3);
        assert_eq!(
            (steps[0].kind, steps[0].nanos, steps[0].requests),
            (StepKind::Tick, 114, 2)
        );
        assert_eq!(
            (steps[1].kind, steps[1].nanos, steps[1].requests),
            (StepKind::Tick, 200, 1)
        );
        assert_eq!(
            (steps[2].kind, steps[2].nanos, steps[2].requests),
            (StepKind::Drain, 1_000, 1)
        );
        // Generator time (1 ns per pull) is in no step.
        let total: u64 = steps.iter().map(|s| s.nanos).sum();
        assert_eq!(total, 1_319 - 5);
    }

    #[test]
    fn oracle_work_follows_its_gap() {
        let mut pulls = [
            pull(1, 2, Some(0.1)),
            pull(3, 4, Some(1.1)),
            pull(50, 51, None),
        ];
        pulls[2].work_before.dist_calls = 40; // tick 0's dispatch
        let tail = OracleWork {
            dist_calls: 7,
            ..OracleWork::default()
        };
        let steps = tick_steps(&pulls, 100, tail, 1.0);
        assert_eq!(steps[0].oracle.dist_calls, 40);
        assert_eq!(steps[1].oracle.dist_calls, 7);
    }

    #[test]
    fn an_empty_stream_has_no_steps() {
        assert!(tick_steps(&[pull(1, 2, None)], 10, OracleWork::default(), 1.0).is_empty());
    }

    #[test]
    fn stamped_records_every_pull_including_the_last() {
        let trips = vec![trip(1, 0.1), trip(2, 0.2)];
        let mut it = Stamped::new(trips.into_iter(), None);
        assert_eq!(it.by_ref().count(), 2);
        assert_eq!(it.pulls.len(), 3);
        assert_eq!(it.pulls[2].time_s, None);
        assert!(it.pulls.windows(2).all(|w| w[0].exit_ns <= w[1].enter_ns));
    }
}
