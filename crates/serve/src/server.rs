//! The serve loop: SLO-gated admission in front of the dispatch engine.
//!
//! [`ServeLoop`] turns the replay engine into an online service. Requests
//! arrive open-loop (see [`crate::arrival`]) into a **bounded ingress
//! queue**; a dispatch tick fires at fixed virtual-time boundaries whenever
//! the dispatcher is free, draining the queue through the exact same
//! [`Simulation::advance_all`] + [`Simulation::submit_batch`] calls the
//! offline replay uses. The dispatcher's compute cost — measured wall-clock
//! or a fixed synthetic model — is charged to a virtual `server_free` clock,
//! so when offered load exceeds dispatch capacity the queue grows, latency
//! diverges and the admission controller starts shedding: arrivals bounce
//! off a full queue (backpressure) and queued requests older than the
//! admission budget are dropped before dispatch (stale shedding). Both are
//! counted exactly; `offered = admitted + shed` always holds.
//!
//! # Graceful degradation
//!
//! Before shedding, the loop trades match quality for throughput. When a
//! dispatch tick blows its compute budget or the ingress queue crosses the
//! degradation watermark, the planner steps down one
//! [`DispatchEffort`] level (full kinetic insertion → slack-pruned →
//! greedy nearest-feasible); after [`SloConfig::recover_healthy_ticks`]
//! consecutive calm ticks it steps back up one level (hysteresis, so the
//! ladder does not flap at the boundary). Every transition and every
//! degraded tick is counted on the [`ServeReport`], and
//! [`ServeReport::meets_slo`] treats excessive degraded service as an SLO
//! miss even when latency stayed inside budget.
//!
//! # Fault injection
//!
//! [`ServeConfig::fault`] carries a seeded [`FaultPlan`]. The loop consults
//! it at fixed points — oracle latency spikes inflate the tick's compute
//! cost, torn writes break checkpoints — so chaos runs are
//! bit-reproducible from the seed alone. Kill/recover faults are honoured
//! only by the crash-safe entry point in [`crate::recovery`]; plain
//! [`ServeLoop::run`] ignores `kill_at_tick`.
//!
//! Because every dispatch is a recorded `(advance_to, batch)` pair replayed
//! through the public batch API, serve-mode assignments are bit-identical
//! to an offline [`Simulation::submit_batch`] replay of the same admitted
//! stream — `tests/serve_equivalence.rs` proves it property-style.

use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::iter::Peekable;
use std::time::Instant;

use kinetic_core::DispatchEffort;
use rideshare_sim::Simulation;
use rideshare_workload::TripEvent;
use roadnet::RoadNetError;

use crate::fault::FaultPlan;
use crate::recovery::RecoveryDriver;
use crate::stats::{LatencyHistogram, LatencySummary};

/// Ingress queue depth at a tick boundary that counts as stress even
/// before compute blows up: the planner steps down one [`DispatchEffort`]
/// level.
pub const DEGRADE_QUEUE_WATERMARK: usize = 2_048;

/// Largest fraction of ticks allowed to run degraded before
/// [`ServeReport::meets_slo`] fails the run anyway.
pub const MAX_DEGRADED_FRACTION: f64 = 0.1;

/// Admission-control budgets for the serve loop.
#[derive(Debug, Clone, Copy)]
pub struct SloConfig {
    /// Virtual seconds between dispatch tick boundaries.
    pub tick_seconds: f64,
    /// p99 admission-to-assignment latency budget (virtual seconds) the
    /// deployment promises; [`ServeReport::meets_slo`] checks against it.
    pub p99_budget_seconds: f64,
    /// Bounded ingress queue size; arrivals beyond it are shed
    /// ([`ServeReport::shed_queue_full`]).
    pub queue_capacity: usize,
    /// Requests queued longer than this before their dispatch tick are
    /// dropped ([`ServeReport::shed_stale`]) — their match would arrive
    /// too late to honour the paper's waiting-time guarantee anyway.
    pub max_queue_wait_seconds: f64,
    /// A dispatch tick costing more than this (virtual seconds) is a
    /// stress signal: the planner steps down one [`DispatchEffort`] level.
    pub degrade_compute_budget_seconds: f64,
    /// Consecutive calm ticks (no stress signal) before the planner steps
    /// back **up** one level — the hysteresis that stops ladder flapping.
    pub recover_healthy_ticks: u64,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            tick_seconds: 1.0,
            p99_budget_seconds: 3.0,
            queue_capacity: 4_096,
            max_queue_wait_seconds: 10.0,
            degrade_compute_budget_seconds: 1.0,
            recover_healthy_ticks: 3,
        }
    }
}

/// How a dispatch tick's compute cost is charged to the virtual clock.
#[derive(Debug, Clone, Copy)]
pub enum ServiceModel {
    /// Charge the measured wall-clock cost of `advance_all` +
    /// `submit_batch`. This is what the capacity sweep uses: the knee it
    /// finds is this machine's real sustainable rate.
    Measured,
    /// Charge `tick_overhead_s + per_request_s × batch` virtual seconds.
    /// Fully deterministic — property tests use it so admission decisions
    /// (and therefore the admitted stream) are reproducible bit-for-bit.
    Fixed {
        /// Fixed cost per dispatch tick (virtual seconds).
        tick_overhead_s: f64,
        /// Additional cost per dispatched request (virtual seconds).
        per_request_s: f64,
    },
}

/// Everything the serve loop needs beyond the wrapped [`Simulation`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Admission budgets.
    pub slo: SloConfig,
    /// Compute-cost model.
    pub model: ServiceModel,
    /// Record every `(advance_to, batch)` dispatch for offline replay
    /// (equivalence testing); costs memory proportional to admitted load.
    pub record_batches: bool,
    /// Seeded fault schedule; [`FaultPlan::none`] injects nothing.
    pub fault: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            slo: SloConfig::default(),
            model: ServiceModel::Measured,
            record_batches: false,
            fault: FaultPlan::none(),
        }
    }
}

/// Mutable per-run state of the serve loop, split out so the crash-safe
/// entry point ([`crate::recovery`]) can checkpoint and restore it.
///
/// The loop's mechanics — the ingress queue, the virtual clocks, the
/// effort ladder and the latency histograms — plus the run's counters,
/// which each tick increments in place on `report` (each observation is
/// counted once). With a [`ServiceModel::Fixed`] model the whole struct is
/// a pure function of the admitted arrival stream, which is what makes
/// kill/recover equivalence provable.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct LoopState {
    /// Bounded ingress queue contents.
    pub(crate) queue: VecDeque<TripEvent>,
    /// Virtual time the single-server dispatcher becomes free.
    pub(crate) server_free: f64,
    /// Virtual time of the current tick boundary.
    pub(crate) tick_end: f64,
    /// Current planner effort level.
    pub(crate) level: DispatchEffort,
    /// Consecutive calm ticks since the last stress signal.
    pub(crate) healthy_streak: u64,
    /// Sum of the queue depths sampled, one per tick.
    pub(crate) queue_depth_sum: u64,
    /// Admission-to-assignment latency of every dispatched request.
    pub(crate) latency: LatencyHistogram,
    /// Latency of assigned requests only.
    pub(crate) assigned_latency: LatencyHistogram,
    /// Per-tick dispatch compute cost.
    pub(crate) tick_compute: LatencyHistogram,
    /// The loop counters (`loop_counters!`) and the deepest queue so
    /// far; [`ServeLoop::finish_report`] fills in the rest.
    pub(crate) report: ServeReport,
}

impl LoopState {
    /// Appends one line to the event trace, if there is one, counting it
    /// in `trace_lines` or, when the write fails, in `io_errors`; a bad
    /// disk degrades the trace, never the counts or the dispatch.
    fn trace(&mut self, trace: Option<&mut (dyn Write + '_)>, line: fmt::Arguments<'_>) {
        let Some(w) = trace else {
            return;
        };
        match writeln!(w, "{line}") {
            Ok(()) => self.report.trace_lines += 1,
            Err(_) => self.report.io_errors += 1,
        }
    }
}

/// Online serving wrapper around a [`Simulation`]; see the module docs.
///
/// ```
/// use rideshare_serve::{PoissonArrivals, ServeConfig, ServeLoop, ServiceModel};
/// use rideshare_sim::{SimConfig, Simulation};
/// use rideshare_workload::{CityConfig, DemandConfig, Workload};
/// use roadnet::CachedOracle;
///
/// let w = Workload::generate(&CityConfig::small(), &DemandConfig::default(), 3);
/// let oracle = CachedOracle::new(&w.network);
/// let sim = Simulation::new(&w.network, &oracle, SimConfig { vehicles: 10, ..SimConfig::default() });
/// let cfg = ServeConfig {
///     model: ServiceModel::Fixed { tick_overhead_s: 0.01, per_request_s: 0.001 },
///     ..ServeConfig::default()
/// };
/// let mut serve = ServeLoop::new(sim, cfg);
/// let report = serve.run(PoissonArrivals::new(&w.trips, 1.0, 30.0, 7));
/// // Exact accounting: every offered request is admitted or shed, never lost.
/// assert_eq!(report.offered, report.admitted + report.shed());
/// assert_eq!(report.admitted, report.assigned + report.rejected);
/// ```
pub struct ServeLoop<'a> {
    pub(crate) sim: Simulation<'a>,
    pub(crate) cfg: ServeConfig,
    pub(crate) recorded: Vec<(f64, Vec<TripEvent>)>,
}

impl<'a> ServeLoop<'a> {
    /// Wraps a freshly built simulation in the serving harness.
    pub fn new(sim: Simulation<'a>, cfg: ServeConfig) -> Self {
        ServeLoop {
            sim,
            cfg,
            recorded: Vec::new(),
        }
    }

    /// The wrapped simulation (trace, report and fleet inspection).
    pub fn sim(&self) -> &Simulation<'a> {
        &self.sim
    }

    /// The `(advance_to_seconds, batch)` dispatches recorded when
    /// [`ServeConfig::record_batches`] is set, in dispatch order. Replaying
    /// them through `advance_all` + `submit_batch` on a fresh simulation
    /// reproduces the serve run's assignments bit-for-bit.
    pub fn recorded_batches(&self) -> &[(f64, Vec<TripEvent>)] {
        &self.recorded
    }

    /// Serves the arrival stream to completion without an event trace.
    ///
    /// Oracle-spike faults in [`ServeConfig::fault`] fire here too, but
    /// `kill_at_tick` is ignored — only [`Self::run_recoverable`] honours
    /// kills, because only it can recover from them.
    pub fn run(&mut self, arrivals: impl Iterator<Item = TripEvent>) -> ServeReport {
        self.run_with_writer(arrivals, None)
    }

    /// Serves the arrival stream, optionally writing a per-event CSV trace
    /// into `writer`: `shed,queue_full` / `queue_depth,<n>` / `shed,stale`
    /// / `tick,<s>,<batch>` / `latency,<s>,<assigned>`, one line per
    /// counted observation, in loop order. A failed write or final flush
    /// counts in [`ServeReport::io_errors`].
    pub fn run_with_writer(
        &mut self,
        arrivals: impl Iterator<Item = TripEvent>,
        mut writer: Option<Box<dyn Write>>,
    ) -> ServeReport {
        let mut arrivals = arrivals.peekable();
        let mut state = LoopState::default();
        let trace = writer.as_deref_mut();
        #[expect(
            clippy::expect_used,
            reason = "without a driver run_inner performs no IO, so Err is unconstructible; swallowing it would hide a logic error"
        )]
        let done = self
            .run_inner(&mut arrivals, trace, &mut state, None, false)
            .expect("serve loop without a recovery driver performs no recovery IO");
        debug_assert!(done, "kills are disabled without a recovery driver");
        if writer.is_some_and(|mut w| w.flush().is_err()) {
            state.report.io_errors += 1;
        }
        self.finish_report(state, false)
    }

    /// One pass of the serve loop over `arrivals`, mutating `state` in
    /// place. Returns `Ok(false)` if an injected kill fired (the caller
    /// owns recovery), `Ok(true)` when the stream drained. `trace`
    /// receives the per-event CSV lines, if given. `driver`
    /// threads the write-ahead journal and checkpoint hooks through the
    /// tick; `kill_enabled` is set only by the recoverable entry point.
    ///
    /// The tick order is deliberately rigid — kill check, ingest, queue
    /// sample, stale shed, journal, dispatch, fault spikes, ladder,
    /// checkpoint — because recovery replays it and must land on identical
    /// state.
    pub(crate) fn run_inner<I: Iterator<Item = TripEvent>>(
        &mut self,
        arrivals: &mut Peekable<I>,
        mut trace: Option<&mut (dyn Write + '_)>,
        state: &mut LoopState,
        mut driver: Option<&mut RecoveryDriver>,
        kill_enabled: bool,
    ) -> Result<bool, RoadNetError> {
        let slo = self.cfg.slo;
        let fault = self.cfg.fault;
        let tick_s = slo.tick_seconds.max(1e-6);

        loop {
            state.report.ticks += 1;
            state.tick_end += tick_s;
            if kill_enabled && fault.killed_at(state.report.ticks) {
                return Ok(false);
            }

            // Ingest every arrival inside this tick's window. The queue is
            // the backpressure boundary: a full queue bounces the arrival
            // instead of letting the backlog grow without limit.
            while let Some(trip) = arrivals.next_if(|t| t.time_seconds < state.tick_end) {
                state.report.offered += 1;
                if state.queue.len() >= slo.queue_capacity {
                    state.report.shed_queue_full += 1;
                    state.trace(trace.as_deref_mut(), format_args!("shed,queue_full"));
                } else {
                    state.queue.push_back(trip);
                }
            }
            let depth = state.queue.len();
            state.report.queue_depth_max = state.report.queue_depth_max.max(depth);
            state.queue_depth_sum += depth as u64;
            state.trace(trace.as_deref_mut(), format_args!("queue_depth,{depth}"));

            // The dispatcher is a single (virtual) server: while it is
            // still busy with an earlier batch, this tick fires no
            // dispatch and the queue keeps building — that is exactly the
            // overload signal the sweep looks for.
            let mut dispatched = false;
            let mut cost_s = 0.0_f64;
            if state.server_free <= state.tick_end && !state.queue.is_empty() {
                // Arrivals enter in time order, so stale requests sit at
                // the front.
                while state
                    .queue
                    .front()
                    .is_some_and(|t| state.tick_end - t.time_seconds > slo.max_queue_wait_seconds)
                {
                    state.queue.pop_front();
                    state.report.shed_stale += 1;
                    state.trace(trace.as_deref_mut(), format_args!("shed,stale"));
                }
                if !state.queue.is_empty() {
                    let batch: Vec<TripEvent> = state.queue.drain(..).collect();
                    if self.cfg.record_batches {
                        self.recorded.push((state.tick_end, batch.clone()));
                    }
                    // Write-ahead: the journal entry lands on disk before
                    // the dispatch mutates fleet state, so a crash in the
                    // middle of `submit_batch` replays the batch instead
                    // of losing it.
                    if let Some(d) = driver.as_deref_mut() {
                        d.journal_dispatch(state, &batch)?;
                    }
                    self.sim.set_dispatch_effort(state.level);
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "Measured service model times real dispatch compute; Fixed is the deterministic model and Measured is documented as not bit-identical"
                    )]
                    let wall = Instant::now();
                    let until_m = self.sim.config().seconds_to_meters(state.tick_end);
                    self.sim.advance_all(until_m);
                    let outcomes = self.sim.submit_batch(&batch);
                    cost_s = match self.cfg.model {
                        ServiceModel::Measured => wall.elapsed().as_secs_f64(),
                        ServiceModel::Fixed {
                            tick_overhead_s,
                            per_request_s,
                        } => tick_overhead_s + per_request_s * batch.len() as f64,
                    };
                    if let Some(extra) = fault.oracle_spike(state.report.ticks) {
                        cost_s += extra;
                        state.report.fault_oracle_spikes += 1;
                    }
                    state.tick_compute.record(cost_s);
                    state.trace(
                        trace.as_deref_mut(),
                        format_args!("tick,{cost_s:.6},{}", batch.len()),
                    );
                    state.report.dispatch_ticks += 1;
                    *match state.level {
                        DispatchEffort::Full => &mut state.report.dispatch_full,
                        DispatchEffort::SlackPruned => &mut state.report.dispatch_slack_pruned,
                        DispatchEffort::Greedy => &mut state.report.dispatch_greedy,
                    } += 1;
                    state.server_free = state.tick_end + cost_s;
                    for (trip, outcome) in batch.iter().zip(&outcomes) {
                        let seconds = state.server_free - trip.time_seconds;
                        let assigned = outcome.is_assigned();
                        state.report.admitted += 1;
                        state.latency.record(seconds);
                        if assigned {
                            state.report.assigned += 1;
                            state.assigned_latency.record(seconds);
                        } else {
                            state.report.rejected += 1;
                        }
                        state.trace(
                            trace.as_deref_mut(),
                            format_args!("latency,{seconds:.6},{assigned}"),
                        );
                    }
                    dispatched = true;
                }
            }

            if state.level != DispatchEffort::Full {
                state.report.degraded_ticks += 1;
            }

            // Degradation ladder with hysteresis: any stress signal steps
            // down immediately; stepping back up needs a full streak of
            // calm ticks so the ladder cannot flap at the boundary.
            let stress = depth >= DEGRADE_QUEUE_WATERMARK
                || (dispatched && cost_s > slo.degrade_compute_budget_seconds);
            if stress {
                state.healthy_streak = 0;
                let next = state.level.degraded();
                if next != state.level {
                    state.level = next;
                    state.report.level_transitions += 1;
                }
            } else if state.level != DispatchEffort::Full {
                state.healthy_streak += 1;
                if state.healthy_streak >= slo.recover_healthy_ticks {
                    state.level = state.level.restored();
                    state.report.level_transitions += 1;
                    state.healthy_streak = 0;
                }
            }

            if let Some(d) = driver.as_deref_mut() {
                d.after_tick(&self.sim, state)?;
            }

            if arrivals.peek().is_none() && state.queue.is_empty() {
                return Ok(true);
            }
        }
    }

    /// Drains committed trips, checks that every offered request was
    /// admitted or shed and every admitted one decided and timed, and
    /// completes the loop's report with the latency summaries, the mean
    /// queue depth and the simulation's own figures.
    pub(crate) fn finish_report(&mut self, state: LoopState, recovered: bool) -> ServeReport {
        // Let committed trips play out so guarantee accounting is final.
        self.sim.drain();
        let sim_report = self.sim.report();

        // The loop counters are exact by construction, always.
        let counts = &state.report;
        assert_eq!(counts.offered, counts.admitted + counts.shed());
        assert_eq!(counts.admitted, counts.assigned + counts.rejected);
        assert_eq!(state.latency.count(), counts.admitted);

        ServeReport {
            horizon_seconds: state.tick_end,
            latency: state.latency.summary(),
            assigned_latency: state.assigned_latency.summary(),
            tick_compute: state.tick_compute.summary(),
            // One depth sample per tick, and every run crosses a tick.
            queue_depth_mean: state.queue_depth_sum as f64 / counts.ticks as f64,
            guarantee_violations: sim_report.guarantee_violations,
            completed: sim_report.completed,
            mean_wait_seconds: sim_report.mean_wait_seconds,
            mean_detour_ratio: sim_report.mean_detour_ratio,
            recovered,
            ..state.report
        }
    }
}

/// Everything one serve run measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeReport {
    /// Requests the arrival process offered.
    pub offered: u64,
    /// Requests that reached the dispatcher.
    pub admitted: u64,
    /// Admitted requests matched to a vehicle.
    pub assigned: u64,
    /// Admitted requests no vehicle could serve within the guarantees.
    pub rejected: u64,
    /// Arrivals bounced off the full ingress queue.
    pub shed_queue_full: u64,
    /// Queued requests dropped for exceeding the admission wait budget.
    pub shed_stale: u64,
    /// Tick boundaries the loop crossed.
    pub ticks: u64,
    /// Ticks that actually dispatched a batch.
    pub dispatch_ticks: u64,
    /// Virtual time at the last tick boundary.
    pub horizon_seconds: f64,
    /// Admission-to-assignment latency over every admitted request.
    pub latency: LatencySummary,
    /// Latency over assigned requests only.
    pub assigned_latency: LatencySummary,
    /// Per-tick dispatch compute cost.
    pub tick_compute: LatencySummary,
    /// Deepest ingress queue observed at a tick boundary.
    pub queue_depth_max: usize,
    /// Mean ingress queue depth over tick boundaries.
    pub queue_depth_mean: f64,
    /// Service-guarantee violations (must be zero — Sec. IV invariant).
    pub guarantee_violations: u64,
    /// Passengers delivered by the end of the drain.
    pub completed: u64,
    /// Mean realised waiting time (seconds) of served pickups.
    pub mean_wait_seconds: f64,
    /// Mean realised detour ratio of delivered passengers.
    pub mean_detour_ratio: f64,
    /// Event-trace lines written (0 without a writer).
    pub trace_lines: u64,
    /// Event-trace write failures.
    pub io_errors: u64,
    /// Ticks that ran below full planner effort.
    pub degraded_ticks: u64,
    /// Degradation-ladder transitions, both directions.
    pub level_transitions: u64,
    /// Dispatch ticks run at full kinetic-insertion effort.
    pub dispatch_full: u64,
    /// Dispatch ticks run at slack-pruned effort.
    pub dispatch_slack_pruned: u64,
    /// Dispatch ticks run at greedy nearest-feasible effort.
    pub dispatch_greedy: u64,
    /// Injected oracle latency spikes taken.
    pub fault_oracle_spikes: u64,
    /// Injected torn checkpoint writes taken.
    pub fault_torn_checkpoints: u64,
    /// Write-ahead journal entries appended (0 without a recovery dir).
    pub journal_entries: u64,
    /// Whether this run resumed from a checkpoint + journal replay.
    pub recovered: bool,
}

/// Names each `u64` loop counter of [`ServeReport`] once, under its JSON
/// key (the field name) and in serve-checkpoint order:
/// [`ServeReport::json_object`] prints the ones before the `;`, the event
/// trace's own counters after it are only checkpointed. A new counter is
/// a field plus an entry here.
macro_rules! loop_counters {
    ($($printed:ident),+; $($unprinted:ident),+) => {
        impl ServeReport {
            /// The printed loop counters under their JSON keys.
            fn printed_counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($printed), self.$printed)),+].into_iter()
            }

            /// Every loop counter, in checkpoint order.
            pub(crate) fn counters(&self) -> impl Iterator<Item = u64> {
                [$(self.$printed,)+ $(self.$unprinted),+].into_iter()
            }

            /// Every loop counter, in checkpoint order, to restore.
            pub(crate) fn counters_mut(&mut self) -> impl Iterator<Item = &mut u64> {
                [$(&mut self.$printed,)+ $(&mut self.$unprinted),+].into_iter()
            }
        }
    };
}

loop_counters!(
    offered, admitted, assigned, rejected, shed_queue_full, shed_stale, ticks, dispatch_ticks,
    degraded_ticks, level_transitions, dispatch_full, dispatch_slack_pruned, dispatch_greedy,
    fault_oracle_spikes, fault_torn_checkpoints, journal_entries;
    trace_lines, io_errors
);

impl ServeReport {
    /// Total shed requests, both reasons.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_stale
    }

    /// Shed fraction of offered load (0 when nothing was offered).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed() as f64 / self.offered as f64
        }
    }

    /// Assigned fraction of admitted load.
    pub fn service_rate(&self) -> f64 {
        if self.admitted == 0 {
            0.0
        } else {
            self.assigned as f64 / self.admitted as f64
        }
    }

    /// Fraction of ticks served below full planner effort.
    pub fn degraded_fraction(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.degraded_ticks as f64 / self.ticks as f64
        }
    }

    /// Whether the run held the serving objective: p99 latency within
    /// budget, shedding below 0.1 %, zero guarantee violations **and**
    /// degraded service within [`MAX_DEGRADED_FRACTION`] — a
    /// run that only survived by serving greedy matches most of the time
    /// did not really meet its promise.
    pub fn meets_slo(&self, slo: &SloConfig) -> bool {
        self.latency.p99_s <= slo.p99_budget_seconds
            && self.shed_rate() <= 1e-3
            && self.guarantee_violations == 0
            && self.degraded_fraction() <= MAX_DEGRADED_FRACTION
    }

    /// Serialises the report as a JSON object (no trailing newline),
    /// optionally tagged with the offered arrival rate.
    pub fn json_object(&self, rate_per_second: Option<f64>, indent: &str) -> String {
        let summary = |h: &LatencySummary| {
            format!(
                "{{\"count\": {}, \"mean_s\": {:.6}, \"p50_s\": {:.6}, \"p90_s\": {:.6}, \"p99_s\": {:.6}, \"p999_s\": {:.6}, \"max_s\": {:.6}}}",
                h.count, h.mean_s, h.p50_s, h.p90_s, h.p99_s, h.p999_s, h.max_s
            )
        };
        let fields: Vec<String> = rate_per_second
            .map(|rate| ("rate_per_second", format!("{rate}")))
            .into_iter()
            .chain(self.printed_counters().map(|(key, n)| (key, n.to_string())))
            .chain([
                ("shed_rate", format!("{:.6}", self.shed_rate())),
                ("horizon_seconds", format!("{:.3}", self.horizon_seconds)),
                ("latency", summary(&self.latency)),
                ("assigned_latency", summary(&self.assigned_latency)),
                ("tick_compute", summary(&self.tick_compute)),
                ("queue_depth_max", self.queue_depth_max.to_string()),
                ("queue_depth_mean", format!("{:.3}", self.queue_depth_mean)),
                (
                    "degraded_fraction",
                    format!("{:.6}", self.degraded_fraction()),
                ),
                ("recovered", self.recovered.to_string()),
                (
                    "guarantee_violations",
                    self.guarantee_violations.to_string(),
                ),
                ("completed", self.completed.to_string()),
                (
                    "mean_wait_seconds",
                    format!("{:.3}", self.mean_wait_seconds),
                ),
                (
                    "mean_detour_ratio",
                    format!("{:.4}", self.mean_detour_ratio),
                ),
                ("service_rate", format!("{:.6}", self.service_rate())),
            ])
            .map(|(key, value)| format!("{indent}  \"{key}\": {value}"))
            .collect();
        format!("{{\n{}\n{indent}}}", fields.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::PoissonArrivals;
    use rideshare_sim::{SimConfig, Simulation};
    use rideshare_workload::{CityConfig, DemandConfig, Workload};
    use roadnet::CachedOracle;

    fn small_workload() -> Workload {
        Workload::generate(
            &CityConfig::small(),
            &DemandConfig {
                trips: 60,
                ..DemandConfig::default()
            },
            11,
        )
    }

    fn sim<'a>(w: &'a Workload, oracle: &'a CachedOracle) -> Simulation<'a> {
        Simulation::new(
            &w.network,
            oracle,
            SimConfig {
                vehicles: 12,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn underload_sheds_nothing_and_latency_stays_near_tick() {
        let w = small_workload();
        let oracle = CachedOracle::new(&w.network);
        let cfg = ServeConfig {
            model: ServiceModel::Fixed {
                tick_overhead_s: 0.01,
                per_request_s: 0.001,
            },
            ..ServeConfig::default()
        };
        let mut serve = ServeLoop::new(sim(&w, &oracle), cfg);
        let report = serve.run(PoissonArrivals::new(&w.trips, 2.0, 60.0, 5));
        assert!(report.offered > 0);
        assert_eq!(report.shed(), 0, "underload must not shed");
        assert_eq!(report.offered, report.admitted);
        // Worst case: arrive right after a tick boundary, dispatched at the
        // next one → latency < tick + cost ≪ 2 s in underload.
        assert!(report.latency.max_s < 2.0, "max = {}", report.latency.max_s);
        assert_eq!(report.guarantee_violations, 0);
        // Calm run: the ladder never leaves full effort.
        assert_eq!(report.degraded_ticks, 0);
        assert_eq!(report.level_transitions, 0);
        assert_eq!(report.dispatch_full, report.dispatch_ticks);
    }

    #[test]
    fn overload_sheds_and_reports_queue_growth() {
        let w = small_workload();
        let oracle = CachedOracle::new(&w.network);
        let cfg = ServeConfig {
            slo: SloConfig {
                queue_capacity: 16,
                max_queue_wait_seconds: 5.0,
                ..SloConfig::default()
            },
            // Each request costs 0.5 s virtual compute: anything beyond
            // 2 req/s is hopeless overload.
            model: ServiceModel::Fixed {
                tick_overhead_s: 0.1,
                per_request_s: 0.5,
            },
            ..ServeConfig::default()
        };
        let mut serve = ServeLoop::new(sim(&w, &oracle), cfg);
        let report = serve.run(PoissonArrivals::new(&w.trips, 20.0, 30.0, 5));
        assert!(report.shed() > 0, "overload must shed: {report:?}");
        assert_eq!(report.offered, report.admitted + report.shed());
        assert!(report.queue_depth_max >= 16, "queue must hit capacity");
        assert!(!report.meets_slo(&cfg.slo));
    }

    #[test]
    fn ladder_degrades_under_stress_and_recovers_with_hysteresis() {
        let w = small_workload();
        let oracle = CachedOracle::new(&w.network);
        let cfg = ServeConfig {
            slo: SloConfig {
                // Tiny compute budget: every dispatch tick is a stress
                // signal while load lasts, then arrivals stop and the
                // hysteresis streak restores full effort.
                degrade_compute_budget_seconds: 0.05,
                recover_healthy_ticks: 3,
                max_queue_wait_seconds: 60.0,
                ..SloConfig::default()
            },
            model: ServiceModel::Fixed {
                tick_overhead_s: 0.2,
                per_request_s: 0.05,
            },
            ..ServeConfig::default()
        };
        let mut serve = ServeLoop::new(sim(&w, &oracle), cfg);
        let report = serve.run(PoissonArrivals::new(&w.trips, 4.0, 40.0, 9));
        assert!(report.degraded_ticks > 0, "stress must degrade: {report:?}");
        assert!(
            report.level_transitions >= 2,
            "must step down and back up: {report:?}"
        );
        assert!(
            report.dispatch_slack_pruned + report.dispatch_greedy > 0,
            "degraded levels must actually dispatch: {report:?}"
        );
        // Every dispatch tick ran at exactly one level.
        assert_eq!(
            report.dispatch_full + report.dispatch_slack_pruned + report.dispatch_greedy,
            report.dispatch_ticks
        );
        assert_eq!(report.guarantee_violations, 0);
    }

    #[test]
    fn fault_plan_spikes_and_saturation_are_counted_exactly() {
        let w = small_workload();
        let oracle = CachedOracle::new(&w.network);
        // Every dispatch tick spikes for longer than the stale-shed budget,
        // so the saturated dispatcher leaves requests to go stale.
        let fault = FaultPlan {
            seed: 77,
            oracle_spike_rate: 1.0,
            oracle_spike_seconds: 12.0,
            ..FaultPlan::none()
        };
        let cfg = ServeConfig {
            model: ServiceModel::Fixed {
                tick_overhead_s: 0.01,
                per_request_s: 0.001,
            },
            fault,
            ..ServeConfig::default()
        };
        let mut serve = ServeLoop::new(sim(&w, &oracle), cfg);
        let report = serve.run(PoissonArrivals::new(&w.trips, 2.0, 60.0, 5));
        // Rate 1.0 → every dispatch tick took a spike.
        assert_eq!(report.fault_oracle_spikes, report.dispatch_ticks);
        assert!(report.dispatch_ticks > 0);
        assert!(
            report.shed_stale > 0,
            "a saturated dispatcher sheds: {report:?}"
        );
        // Accounting stays exact under saturation, and the metrics saw
        // every admitted request.
        assert_eq!(report.offered, report.admitted + report.shed());
        assert_eq!(report.admitted, report.assigned + report.rejected);
        assert_eq!(report.latency.count, report.admitted);
        assert_eq!(report.guarantee_violations, 0);
    }

    /// An in-memory trace the test reads back after the loop owned it.
    #[derive(Clone, Default)]
    struct SharedTrace(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

    impl Write for SharedTrace {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// An overloaded run that sheds both ways, with its event trace.
    fn overloaded_trace() -> (ServeReport, String) {
        let w = small_workload();
        let oracle = CachedOracle::new(&w.network);
        let cfg = ServeConfig {
            slo: SloConfig {
                queue_capacity: 16,
                max_queue_wait_seconds: 5.0,
                ..SloConfig::default()
            },
            model: ServiceModel::Fixed {
                tick_overhead_s: 0.1,
                per_request_s: 0.5,
            },
            ..ServeConfig::default()
        };
        let trace = SharedTrace::default();
        let mut serve = ServeLoop::new(sim(&w, &oracle), cfg);
        let report = serve.run_with_writer(
            PoissonArrivals::new(&w.trips, 20.0, 30.0, 5),
            Some(Box::new(trace.clone())),
        );
        let text = String::from_utf8(trace.0.take()).unwrap();
        assert!(report.admitted > 0 && report.shed() > 0, "{report:?}");
        (report, text)
    }

    fn lines_with<'t>(text: &'t str, prefix: &'static str) -> impl Iterator<Item = &'t str> {
        text.lines().filter(move |l| l.starts_with(prefix))
    }

    #[test]
    fn event_trace_has_one_line_per_counted_event() {
        let (report, text) = overloaded_trace();
        let lines = |prefix| lines_with(&text, prefix).count() as u64;
        assert_eq!(lines("latency,"), report.admitted);
        assert_eq!(lines("tick,"), report.dispatch_ticks);
        assert_eq!(lines("queue_depth,"), report.ticks);
        assert_eq!(lines("shed,"), report.shed());
        assert_eq!(text.lines().count() as u64, report.trace_lines);
        assert_eq!(report.io_errors, 0);
    }

    #[test]
    fn first_trace_line_of_each_kind_is_pinned() {
        let (_, text) = overloaded_trace();
        for (prefix, first) in [
            ("latency,", "latency,8.565099,true"),
            ("queue_depth,", "queue_depth,15"),
            ("shed,", "shed,queue_full"),
            ("tick,", "tick,7.600000,15"),
        ] {
            assert_eq!(lines_with(&text, prefix).next(), Some(first));
        }
    }

    #[test]
    fn queue_depth_gauges_are_exact_over_the_trace() {
        let (report, text) = overloaded_trace();
        // The depth gauges are the sampled lines' maximum and mean.
        let depths: Vec<u64> = lines_with(&text, "queue_depth,")
            .map(|l| l["queue_depth,".len()..].parse().unwrap())
            .collect();
        assert_eq!(depths.len() as u64, report.ticks);
        assert_eq!(
            report.queue_depth_max as u64,
            depths.iter().copied().max().unwrap()
        );
        assert_eq!(
            report.queue_depth_mean,
            depths.iter().sum::<u64>() as f64 / depths.len() as f64
        );
    }

    #[test]
    fn io_errors_do_not_poison_the_counts() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("still on fire"))
            }
        }
        let w = small_workload();
        let oracle = CachedOracle::new(&w.network);
        let cfg = ServeConfig {
            model: ServiceModel::Fixed {
                tick_overhead_s: 0.01,
                per_request_s: 0.001,
            },
            ..ServeConfig::default()
        };
        let mut serve = ServeLoop::new(sim(&w, &oracle), cfg);
        let report = serve.run_with_writer(
            PoissonArrivals::new(&w.trips, 2.0, 30.0, 5),
            Some(Box::new(FailingWriter)),
        );
        assert!(report.io_errors > 0, "{report:?}");
        assert_eq!(report.trace_lines, 0);
        assert_eq!(report.latency.count, report.admitted);
        assert_eq!(report.offered, report.admitted + report.shed());
    }

    #[test]
    fn recorded_batches_cover_exactly_the_admitted_stream() {
        let w = small_workload();
        let oracle = CachedOracle::new(&w.network);
        let cfg = ServeConfig {
            model: ServiceModel::Fixed {
                tick_overhead_s: 0.05,
                per_request_s: 0.02,
            },
            record_batches: true,
            ..ServeConfig::default()
        };
        let mut serve = ServeLoop::new(sim(&w, &oracle), cfg);
        let report = serve.run(PoissonArrivals::new(&w.trips, 4.0, 40.0, 9));
        let recorded: u64 = serve
            .recorded_batches()
            .iter()
            .map(|(_, b)| b.len() as u64)
            .sum();
        assert_eq!(recorded, report.admitted);
        // Dispatch times strictly increase batch to batch.
        for pair in serve.recorded_batches().windows(2) {
            assert!(pair[0].0 < pair[1].0);
        }
    }

    #[test]
    fn json_object_is_balanced_and_tagged() {
        let w = small_workload();
        let oracle = CachedOracle::new(&w.network);
        let mut serve = ServeLoop::new(
            sim(&w, &oracle),
            ServeConfig {
                model: ServiceModel::Fixed {
                    tick_overhead_s: 0.01,
                    per_request_s: 0.001,
                },
                ..ServeConfig::default()
            },
        );
        let report = serve.run(PoissonArrivals::new(&w.trips, 2.0, 20.0, 1));
        let json = report.json_object(Some(3.5), "  ");
        assert!(json.contains("\"rate_per_second\": 3.5"));
        assert!(json.contains("\"guarantee_violations\": 0"));
        assert!(json.contains("\"degraded_ticks\": 0"));
        assert!(json.contains("\"recovered\": false"));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "braces balanced:\n{json}"
        );
        assert!(!json.contains(",\n  }"), "no trailing comma");
    }

    #[test]
    fn json_object_prints_each_key_of_its_schema_exactly_once() {
        let w = small_workload();
        let oracle = CachedOracle::new(&w.network);
        let cfg = ServeConfig {
            model: ServiceModel::Fixed {
                tick_overhead_s: 0.01,
                per_request_s: 0.001,
            },
            ..ServeConfig::default()
        };
        let report =
            ServeLoop::new(sim(&w, &oracle), cfg).run(PoissonArrivals::new(&w.trips, 2.0, 20.0, 1));
        let json = report.json_object(Some(3.5), "  ");
        // Top-level fields sit one to a line; the summaries nest inline.
        let mut keys: Vec<&str> = json
            .lines()
            .filter_map(|l| l.strip_prefix("    \"")?.split_once("\": "))
            .map(|(key, _)| key)
            .collect();
        // The CLI tests match these with a trailing comma.
        for key in [
            "offered",
            "admitted",
            "shed_queue_full",
            "shed_stale",
            "guarantee_violations",
        ] {
            assert_ne!(keys.last(), Some(&key), "{key} must not close the object");
        }
        keys.sort_unstable();
        let mut schema = vec![
            "rate_per_second",
            "offered",
            "admitted",
            "assigned",
            "rejected",
            "shed_queue_full",
            "shed_stale",
            "shed_rate",
            "ticks",
            "dispatch_ticks",
            "horizon_seconds",
            "latency",
            "assigned_latency",
            "tick_compute",
            "queue_depth_max",
            "queue_depth_mean",
            "degraded_ticks",
            "degraded_fraction",
            "level_transitions",
            "dispatch_full",
            "dispatch_slack_pruned",
            "dispatch_greedy",
            "fault_oracle_spikes",
            "fault_torn_checkpoints",
            "journal_entries",
            "recovered",
            "guarantee_violations",
            "completed",
            "mean_wait_seconds",
            "mean_detour_ratio",
            "service_rate",
        ];
        schema.sort_unstable();
        assert_eq!(keys, schema, "{json}");
    }
}
