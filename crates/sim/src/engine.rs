//! The simulation engine: vehicle movement, request submission, dispatching.

use std::collections::{BTreeMap, VecDeque};

use kinetic_core::{AssignmentOutcome, Dispatcher, StopKind, TripId, TripRequest, Vehicle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rideshare_workload::TripEvent;
use roadnet::{DistanceOracle, NodeId, RoadNetwork};
use spatial::{GridIndex, Position};
use workpool::WorkPool;

use crate::config::SimConfig;
use crate::metrics::{MetricsCollector, SimReport};
use crate::shard::RegionLedger;
use crate::trace::{RequestTrace, TraceLog};

/// Motion state of one vehicle: the remaining nodes of its current drive
/// (each with the leg length from the previous node) and the clock at which
/// the first of them is reached.
#[derive(Debug, Clone)]
pub(crate) struct Motion {
    /// Nodes still to traverse; front is reached at `next_arrival_m`.
    pub(crate) path: VecDeque<(NodeId, f64)>,
    /// Absolute clock (meter-equivalents) at which `path[0]` is reached.
    pub(crate) next_arrival_m: f64,
    /// Last road vertex actually reached.
    pub(crate) at: NodeId,
    /// Clock at which `at` was reached.
    pub(crate) at_clock_m: f64,
    /// Private RNG driving this vehicle's cruising decisions. Per-vehicle
    /// streams (rather than one engine-wide RNG) are what make fleet
    /// movement independent across vehicles, so the parallel advance can
    /// be bit-identical to the sequential one at any worker count.
    pub(crate) rng: StdRng,
}

impl Motion {
    pub(crate) fn parked_at(at: NodeId, rng: StdRng) -> Self {
        Motion {
            path: VecDeque::new(),
            next_arrival_m: 0.0,
            at,
            at_clock_m: 0.0,
            rng,
        }
    }
}

/// A committed stop served while advancing one vehicle, buffered during the
/// (possibly parallel) movement phase and applied to the metrics, records
/// and trace sequentially in vehicle order afterwards.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServedStop {
    pub(crate) trip: TripId,
    pub(crate) kind: StopKind,
    pub(crate) clock_m: f64,
    /// Riders on board after a pickup (unused for dropoffs).
    pub(crate) onboard_after: usize,
}

/// Everything one vehicle's advance produced besides its own mutated state.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdvanceOutcome {
    /// Road distance driven within the window.
    pub(crate) distance_m: f64,
    /// Last vertex reached, when the vehicle moved (drives the spatial
    /// index update; intermediate positions are unobservable between
    /// `advance_all` calls).
    pub(crate) moved_to: Option<NodeId>,
    /// Stops served, in service order.
    pub(crate) stops: Vec<ServedStop>,
}

/// Bookkeeping for every submitted request, used for service-quality
/// metrics and guarantee checking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TripRecord {
    pub(crate) submitted_m: f64,
    pub(crate) direct_m: f64,
    pub(crate) max_wait_m: f64,
    pub(crate) max_ride_m: f64,
    pub(crate) picked_up_m: Option<f64>,
}

/// Fleets smaller than this advance inline on the calling thread even when
/// [`SimConfig::workers`] asks for more: spawning a scoped worker costs
/// tens of microseconds, more than moving a handful of vehicles one window
/// forward. Results are identical either way.
const MIN_PARALLEL_MOVES: usize = 256;

/// A single simulation run over a road network.
pub struct Simulation<'a> {
    pub(crate) graph: &'a RoadNetwork,
    pub(crate) oracle: &'a dyn DistanceOracle,
    /// The same oracle seen as `Sync`, `Some` when constructed through
    /// [`Simulation::with_parallel`]: what the movement threads of
    /// [`Simulation::advance_all`] query. Dispatch never reads it.
    pub(crate) par_oracle: Option<&'a (dyn DistanceOracle + Sync)>,
    pub(crate) config: SimConfig,
    pub(crate) vehicles: Vec<Vehicle>,
    pub(crate) motions: Vec<Motion>,
    pub(crate) index: GridIndex,
    pub(crate) dispatcher: Dispatcher,
    /// Fans vehicle movement out across threads when constructed through
    /// [`Simulation::with_parallel`] with more than one worker.
    pub(crate) pool: WorkPool,
    pub(crate) clock_m: f64,
    pub(crate) collector: MetricsCollector,
    pub(crate) records: BTreeMap<TripId, TripRecord>,
    pub(crate) trace: TraceLog,
    /// Region accounting, on when built through
    /// [`ShardedSimulation`](crate::ShardedSimulation). Counts only: no
    /// decision reads it.
    pub(crate) regions: Option<RegionLedger>,
}

impl<'a> Simulation<'a> {
    /// Creates a single-threaded simulation: vehicles are placed on
    /// uniformly random vertices (as in the paper) and registered in the
    /// spatial index. Use [`Simulation::with_parallel`] (which needs a
    /// `Sync` oracle) to fan vehicle movement out across threads.
    ///
    /// # Panics
    /// Panics when [`SimConfig::workers`] is greater than 1 — the knob
    /// would be silently inert through this entry point.
    pub fn new(graph: &'a RoadNetwork, oracle: &'a dyn DistanceOracle, config: SimConfig) -> Self {
        Self::build(graph, oracle, None, config)
    }

    /// Creates a simulation whose [`Simulation::advance_all`] moves the
    /// fleet on [`SimConfig::workers`] threads. Requires a thread-safe
    /// oracle (e.g. `roadnet::ShardedOracle`). Dispatch is the same
    /// single-threaded [`Dispatcher`] loop as under [`Simulation::new`];
    /// assignments and every report counter are bit-identical to it.
    pub fn with_parallel(
        graph: &'a RoadNetwork,
        oracle: &'a (dyn DistanceOracle + Sync),
        config: SimConfig,
    ) -> Self {
        Self::build(graph, oracle, Some(oracle), config)
    }

    pub(crate) fn build(
        graph: &'a RoadNetwork,
        oracle: &'a dyn DistanceOracle,
        par_oracle: Option<&'a (dyn DistanceOracle + Sync)>,
        config: SimConfig,
    ) -> Self {
        // Catch the misconfiguration where `workers > 1` is set but the
        // sequential entry point was used: the knob would be silently inert
        // (this must fire in release builds too — that is exactly where
        // mis-measured "parallel" runs would otherwise go unnoticed).
        assert!(
            par_oracle.is_some() || config.workers <= 1,
            "SimConfig::workers = {} has no effect through Simulation::new; \
             use Simulation::with_parallel with a Sync oracle",
            config.workers
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut vehicles = Vec::with_capacity(config.vehicles);
        let mut motions = Vec::with_capacity(config.vehicles);
        let mut index = GridIndex::new(config.grid_cell_meters.max(1.0));
        let n = graph.node_count() as u64;
        for id in 0..config.vehicles as u32 {
            let start = (rng.gen::<u64>() % n) as NodeId;
            let v = Vehicle::new(id, start, config.capacity, config.planner, 0.0);
            let p = graph.point(start);
            index.insert(id, Position::new(p.x, p.y));
            vehicles.push(v);
            // Each vehicle owns a cruising RNG stream derived from the run
            // seed and its id, independent of every other vehicle's.
            let stream = config
                .seed
                .wrapping_add((id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            motions.push(Motion::parked_at(start, StdRng::seed_from_u64(stream)));
        }
        Simulation {
            graph,
            oracle,
            par_oracle,
            config,
            vehicles,
            motions,
            index,
            dispatcher: Dispatcher::new(config.dispatcher),
            pool: WorkPool::new(config.workers).run_inline_below(MIN_PARALLEL_MOVES),
            clock_m: 0.0,
            collector: MetricsCollector::default(),
            records: BTreeMap::new(),
            trace: TraceLog::new(),
            regions: None,
        }
    }

    /// Per-request lifecycle traces collected so far (submission,
    /// assignment, pickup, delivery); export with [`TraceLog::to_csv`].
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// The configuration this simulation runs with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Access to the fleet (e.g. for inspecting kinetic trees in tests).
    pub fn vehicles(&self) -> &[Vehicle] {
        &self.vehicles
    }

    /// Zeroes the movement pool's inline threshold, so a test-sized fleet
    /// really advances on [`SimConfig::workers`] threads.
    #[cfg(test)]
    pub(crate) fn force_movement_threads(&mut self) {
        self.pool = self.pool.run_inline_below(0);
    }

    /// Runs the full workload and returns the report. Requests are submitted
    /// at their timestamps; after the last request the simulation keeps
    /// running until every committed stop has been served (bounded by a
    /// four-hour drain horizon).
    pub fn run(&mut self, trips: &[TripEvent]) -> SimReport {
        let limit = self.config.max_requests.unwrap_or(usize::MAX);
        let trips = &trips[..trips.len().min(limit)];
        let window = self.config.batch_window_seconds;
        if window <= 0.0 {
            for trip in trips {
                let t_m = self.config.seconds_to_meters(trip.time_seconds);
                self.advance_all(t_m);
                self.submit(trip);
            }
        } else {
            // Group consecutive trips landing in the same dispatch window.
            // Trips are sorted by time, so each window is one contiguous
            // slice; the fleet advances once to the window's last request.
            let mut start = 0;
            while start < trips.len() {
                let bucket = (trips[start].time_seconds / window).floor();
                let mut end = start + 1;
                while end < trips.len() && (trips[end].time_seconds / window).floor() == bucket {
                    end += 1;
                }
                let batch = &trips[start..end];
                let t_m = self
                    .config
                    .seconds_to_meters(batch[batch.len() - 1].time_seconds);
                self.advance_all(t_m);
                self.submit_batch(batch);
                start = end;
            }
        }
        self.drain();
        self.report()
    }

    /// Submits a single request at the current simulation clock. Exposed so
    /// integration tests and custom harnesses can drive the simulation
    /// step by step.
    ///
    /// ```
    /// use rideshare_sim::{SimConfig, Simulation};
    /// use rideshare_workload::{CityConfig, DemandConfig, Workload};
    /// use roadnet::CachedOracle;
    ///
    /// let w = Workload::generate(&CityConfig::small(), &DemandConfig::default(), 1);
    /// let oracle = CachedOracle::without_labels(&w.network);
    /// let config = SimConfig { vehicles: 10, ..SimConfig::default() };
    /// let mut sim = Simulation::new(&w.network, &oracle, config);
    /// // Advance the fleet to the request's timestamp, then dispatch it.
    /// let trip = &w.trips[0];
    /// sim.advance_all(sim.config().seconds_to_meters(trip.time_seconds));
    /// let outcome = sim.submit(trip);
    /// assert!(outcome.is_assigned(), "an idle fleet must accept the first request");
    /// assert_eq!(sim.dispatch_stats().requests, 1);
    /// ```
    pub fn submit(&mut self, trip: &TripEvent) -> AssignmentOutcome {
        let request = TripRequest::new(
            trip.id,
            trip.source,
            trip.destination,
            self.clock_m,
            self.config.constraints,
        );
        let direct = self.oracle.dist(trip.source, trip.destination);
        self.records.insert(
            trip.id,
            TripRecord {
                submitted_m: self.clock_m,
                direct_m: direct,
                max_wait_m: self.config.constraints.max_wait,
                max_ride_m: self.config.constraints.max_ride(direct),
                picked_up_m: None,
            },
        );
        // Sync candidate vehicles to their effective positions (the next
        // vertex they will reach) before evaluation.
        let candidates =
            self.dispatcher
                .candidates(&request, self.graph, &mut self.index, self.vehicles.len());
        for &vid in &candidates {
            let i = vid as usize;
            let (node, clock) = self.effective_position(i);
            self.vehicles[i].set_position(node, clock, self.oracle);
        }
        let outcome = self.dispatcher.assign(
            &request,
            &mut self.vehicles,
            self.graph,
            &mut self.index,
            self.oracle,
        );
        self.trace.push(RequestTrace::submitted(
            trip.id,
            self.config.meters_to_seconds(self.clock_m),
            direct,
            candidates.len(),
        ));
        if let AssignmentOutcome::Assigned { vehicle, cost, .. } = outcome {
            self.trace.record_assignment(trip.id, vehicle, cost);
            self.replan_after_assignment(vehicle as usize);
        }
        if let Some(ledger) = &mut self.regions {
            ledger.request(trip.source, &candidates);
            if let AssignmentOutcome::Assigned { vehicle, .. } = outcome {
                ledger.assigned(trip.source, vehicle);
            }
        }
        outcome
    }

    /// Submits one dispatch window's worth of requests. Requests go
    /// through [`Dispatcher::assign`] one at a time in slice order
    /// (ascending submission time), each seeing the commits of those before
    /// it, and each keeps its **own** submission time for deadlines,
    /// records and the trace — only vehicle movement is quantized to the
    /// window (the caller advances the fleet to the window's last request
    /// before submitting, see [`Simulation::run`]). Candidate-vehicle
    /// positions are synced once over the union of the batch's candidate
    /// sets, which is what amortizes the per-request setup cost.
    pub fn submit_batch(&mut self, trips: &[TripEvent]) -> Vec<AssignmentOutcome> {
        if trips.is_empty() {
            return Vec::new();
        }
        let mut requests = Vec::with_capacity(trips.len());
        let mut directs = Vec::with_capacity(trips.len());
        let mut candidate_counts = Vec::with_capacity(trips.len());
        let mut to_sync: Vec<u32> = Vec::new();
        for trip in trips {
            let t_m = self.config.seconds_to_meters(trip.time_seconds);
            let request = TripRequest::new(
                trip.id,
                trip.source,
                trip.destination,
                t_m,
                self.config.constraints,
            );
            let direct = self.oracle.dist(trip.source, trip.destination);
            self.records.insert(
                trip.id,
                TripRecord {
                    submitted_m: t_m,
                    direct_m: direct,
                    max_wait_m: self.config.constraints.max_wait,
                    max_ride_m: self.config.constraints.max_ride(direct),
                    picked_up_m: None,
                },
            );
            let candidates = self.dispatcher.candidates(
                &request,
                self.graph,
                &mut self.index,
                self.vehicles.len(),
            );
            if let Some(ledger) = &mut self.regions {
                ledger.request(trip.source, &candidates);
            }
            candidate_counts.push(candidates.len());
            to_sync.extend(candidates);
            requests.push(request);
            directs.push(direct);
        }
        // Sync each candidate vehicle once, even when it appears in several
        // requests' candidate sets (`set_position` is idempotent at a fixed
        // clock, and dispatch commits never move a vehicle).
        to_sync.sort_unstable();
        to_sync.dedup();
        for vid in to_sync {
            let i = vid as usize;
            let (node, clock) = self.effective_position(i);
            self.vehicles[i].set_position(node, clock, self.oracle);
        }
        let outcomes: Vec<AssignmentOutcome> = requests
            .iter()
            .map(|request| {
                self.dispatcher.assign(
                    request,
                    &mut self.vehicles,
                    self.graph,
                    &mut self.index,
                    self.oracle,
                )
            })
            .collect();
        for (((trip, outcome), direct), n_candidates) in trips
            .iter()
            .zip(&outcomes)
            .zip(&directs)
            .zip(&candidate_counts)
        {
            self.trace.push(RequestTrace::submitted(
                trip.id,
                trip.time_seconds,
                *direct,
                *n_candidates,
            ));
            if let AssignmentOutcome::Assigned { vehicle, cost, .. } = *outcome {
                self.trace.record_assignment(trip.id, vehicle, cost);
                self.replan_after_assignment(vehicle as usize);
                if let Some(ledger) = &mut self.regions {
                    ledger.assigned(trip.source, vehicle);
                }
            }
        }
        outcomes
    }

    /// Advances the whole fleet to absolute clock `until_m`.
    ///
    /// Vehicle movement is independent across vehicles (each owns its
    /// motion state and cruising RNG stream), so the movement phase fans
    /// out over the work pool when the simulation was built with
    /// [`Simulation::with_parallel`] and more than one worker. Everything
    /// observable — metrics, records, the trace, the spatial index — is
    /// applied sequentially in vehicle-id order afterwards, which makes
    /// the result bit-identical to the sequential engine at any worker
    /// count (see `parallel_advance_matches_sequential`).
    pub fn advance_all(&mut self, until_m: f64) {
        let until_m = until_m.max(self.clock_m);
        let graph = self.graph;
        let cruise = self.config.cruise_when_idle;
        let outcomes: Vec<AdvanceOutcome> = match (self.par_oracle, self.config.workers > 1) {
            (Some(oracle), true) => self
                .pool
                .zip_chunks_mut(
                    &mut self.vehicles,
                    &mut self.motions,
                    |_chunk, _range, vehicles, motions| {
                        vehicles
                            .iter_mut()
                            .zip(motions.iter_mut())
                            .map(|(v, m)| advance_one(v, m, graph, oracle, cruise, until_m))
                            .collect::<Vec<_>>()
                    },
                )
                .into_iter()
                .flatten()
                .collect(),
            _ => {
                let oracle = self.oracle;
                self.vehicles
                    .iter_mut()
                    .zip(self.motions.iter_mut())
                    .map(|(v, m)| advance_one(v, m, graph, oracle, cruise, until_m))
                    .collect()
            }
        };
        for (i, outcome) in outcomes.iter().enumerate() {
            self.apply_outcome(i as u32, outcome);
        }
        if let Some(ledger) = &mut self.regions {
            for (i, outcome) in outcomes.iter().enumerate() {
                if let Some(node) = outcome.moved_to {
                    ledger.moved(i as u32, node);
                }
            }
        }
        self.clock_m = until_m;
    }

    /// Applies one vehicle's buffered movement effects: spatial index,
    /// fleet distance, and every served stop in order. Called in ascending
    /// vehicle-id order, which fixes the f64 accumulation order at any
    /// worker count.
    fn apply_outcome(&mut self, vehicle_id: u32, outcome: &AdvanceOutcome) {
        if let Some(node) = outcome.moved_to {
            let p = self.graph.point(node);
            self.index.update(vehicle_id, Position::new(p.x, p.y));
        }
        self.collector.fleet_distance_m += outcome.distance_m;
        for stop in &outcome.stops {
            self.apply_served_stop(vehicle_id, stop);
        }
    }

    fn apply_served_stop(&mut self, vehicle_id: u32, stop: &ServedStop) {
        let config = &self.config;
        match stop.kind {
            StopKind::Pickup => {
                if let Some(rec) = self.records.get_mut(&stop.trip) {
                    rec.picked_up_m = Some(stop.clock_m);
                    let waited_m = stop.clock_m - rec.submitted_m;
                    if waited_m > rec.max_wait_m + 1e-6 {
                        self.collector.record_wait_violation();
                    }
                    let waited_s = config.meters_to_seconds(waited_m);
                    self.collector.record_pickup(
                        vehicle_id,
                        stop.onboard_after,
                        waited_s,
                        config.meters_to_seconds(stop.clock_m),
                    );
                }
                self.trace
                    .record_pickup(stop.trip, config.meters_to_seconds(stop.clock_m));
            }
            StopKind::Dropoff => {
                if let Some(rec) = self.records.get(&stop.trip) {
                    if let Some(picked) = rec.picked_up_m {
                        let ride = stop.clock_m - picked;
                        let ratio = if rec.direct_m > 0.0 {
                            ride / rec.direct_m
                        } else {
                            1.0
                        };
                        let violated = ride > rec.max_ride_m + 1e-6;
                        self.collector.record_delivery(ratio, violated);
                        self.trace.record_delivery(
                            stop.trip,
                            config.meters_to_seconds(stop.clock_m),
                            ride,
                        );
                    }
                }
            }
        }
    }

    /// Current simulated clock, in seconds.
    pub fn clock_seconds(&self) -> f64 {
        self.config.meters_to_seconds(self.clock_m)
    }

    /// The dispatcher statistics accumulated so far (requests, assignments,
    /// rejections, ACRT/ART bookkeeping). Harnesses that stream per-window
    /// metrics diff successive snapshots of these counters.
    pub fn dispatch_stats(&self) -> &kinetic_core::DispatchStats {
        self.dispatcher.stats()
    }

    /// Current planner effort level (the serve path's degradation ladder).
    pub fn dispatch_effort(&self) -> kinetic_core::DispatchEffort {
        self.dispatcher.effort()
    }

    /// Sets the planner effort level for subsequent dispatches. The serve
    /// loop steps this down under overload (full → slack-pruned → greedy)
    /// and back up with hysteresis; replay and batch determinism are
    /// preserved at every level (each is a pure function of fleet state).
    /// Not part of the checkpoint image — a resuming serve loop re-applies
    /// its ladder state after restoring from a checkpoint (see the
    /// `checkpoint` module docs).
    pub fn set_dispatch_effort(&mut self, effort: kinetic_core::DispatchEffort) {
        self.dispatcher.set_effort(effort);
    }

    /// Realised waiting times (seconds) of every pickup served so far, in
    /// service order. Windowed harnesses slice the suffix added since their
    /// last flush to compute per-window latency percentiles.
    pub fn wait_samples(&self) -> &[f64] {
        &self.collector.wait_seconds
    }

    /// Passengers on board immediately after each pickup served so far, in
    /// service order (the occupancy signal of Sec. VI-B).
    pub fn pickup_onboard_samples(&self) -> &[usize] {
        &self.collector.onboard_at_pickup
    }

    /// Simulation clock (seconds) of each pickup, aligned index-for-index
    /// with [`Simulation::wait_samples`] and
    /// [`Simulation::pickup_onboard_samples`].
    pub fn pickup_clock_samples(&self) -> &[f64] {
        &self.collector.pickup_clock_seconds
    }

    /// The vertex vehicle `i` should be evaluated at and the clock it gets
    /// there: the next vertex of an in-flight drive, or the parked position.
    fn effective_position(&self, i: usize) -> (NodeId, f64) {
        let m = &self.motions[i];
        match m.path.front() {
            Some(&(node, _)) => (node, m.next_arrival_m),
            None => (m.at, self.clock_m.max(m.at_clock_m)),
        }
    }

    /// Reconciles vehicle `i`'s motion state with a freshly committed
    /// schedule.
    fn replan_after_assignment(&mut self, i: usize) {
        let motion = &mut self.motions[i];
        if motion.path.is_empty() {
            // Parked: the vehicle departs now (not at the stale time it
            // finished its last stop); the next advance plans its drive.
            motion.at_clock_m = motion.at_clock_m.max(self.clock_m);
        } else {
            // In flight: finish the current leg, then the arrival handler
            // will route towards the new schedule. Drop any queued legs that
            // belonged to the previous plan.
            let first = motion.path.front().copied();
            motion.path.clear();
            if let Some(leg) = first {
                motion.path.push_back(leg);
            }
        }
    }

    /// Runs the fleet until every committed stop has been served, bounded by
    /// a four-hour horizon beyond the current clock. [`Simulation::run`]
    /// calls this after the last request; harnesses that drive the
    /// simulation step by step (e.g. the checkpointed `paper_replay`
    /// binary) call it explicitly once their trip stream is exhausted.
    pub fn drain(&mut self) {
        let horizon = self.clock_m + self.config.seconds_to_meters(4.0 * 3_600.0);
        let step = self.config.seconds_to_meters(300.0);
        while self.clock_m < horizon {
            let busy = self.vehicles.iter().any(|v| v.next_stop().is_some());
            if !busy {
                break;
            }
            let next = (self.clock_m + step).min(horizon);
            self.advance_all(next);
        }
    }

    /// Builds the final report from the dispatcher statistics and the
    /// collected service-quality metrics.
    pub fn report(&self) -> SimReport {
        let d = self.dispatcher.stats();
        let occ = self.collector.occupancy(self.vehicles.len());
        let completed = self.collector.completed;
        SimReport {
            requests: d.requests,
            assigned: d.assigned,
            rejected: d.rejected,
            acrt_ms: d.acrt_ms(),
            art_table: d.art_table(),
            mean_wait_seconds: self.collector.mean_wait_seconds(),
            mean_detour_ratio: self.collector.mean_detour_ratio(),
            guarantee_violations: self.collector.guarantee_violations,
            completed,
            occupancy: occ,
            fleet_distance_km: self.collector.fleet_distance_m / 1_000.0,
            distance_per_delivery_km: if completed == 0 {
                0.0
            } else {
                self.collector.fleet_distance_m / 1_000.0 / completed as f64
            },
            mean_candidates: d.mean_candidates(),
            mean_candidates_evaluated: d.mean_evaluated(),
            span_seconds: self.clock_seconds(),
        }
    }
}

/// Advances one vehicle to `until_m`, mutating only that vehicle's state
/// and buffering every externally visible effect into the returned
/// [`AdvanceOutcome`]. This is the unit of work the parallel movement
/// phase fans out; it must not touch any shared engine state.
pub(crate) fn advance_one(
    vehicle: &mut Vehicle,
    motion: &mut Motion,
    graph: &RoadNetwork,
    oracle: &dyn DistanceOracle,
    cruise_when_idle: bool,
    until_m: f64,
) -> AdvanceOutcome {
    let mut outcome = AdvanceOutcome::default();
    loop {
        if motion.path.is_empty()
            && !start_next_leg(
                vehicle,
                motion,
                graph,
                oracle,
                cruise_when_idle,
                until_m,
                &mut outcome,
            )
        {
            return outcome;
        }
        if motion.next_arrival_m > until_m {
            return outcome;
        }
        let (node, leg) = motion.path.pop_front().expect("leg exists");
        let arrival = motion.next_arrival_m;
        motion.at = node;
        motion.at_clock_m = arrival;
        outcome.distance_m += leg;
        outcome.moved_to = Some(node);
        if let Some(&(_, next_leg)) = motion.path.front() {
            motion.next_arrival_m = arrival + next_leg;
        } else {
            // End of the planned drive: either we reached a committed
            // stop or a cruising hop finished.
            let reached_stop = vehicle.next_stop().is_some_and(|s| s.node == node);
            if reached_stop {
                serve_stop(vehicle, arrival, oracle, &mut outcome);
            } else {
                vehicle.set_position(node, arrival, oracle);
            }
        }
    }
}

/// Plans the next drive for a vehicle whose path is empty. Returns false
/// when the vehicle stays parked (nothing to do and cruising disabled).
#[allow(clippy::too_many_arguments)]
fn start_next_leg(
    vehicle: &mut Vehicle,
    motion: &mut Motion,
    graph: &RoadNetwork,
    oracle: &dyn DistanceOracle,
    cruise_when_idle: bool,
    until_m: f64,
    outcome: &mut AdvanceOutcome,
) -> bool {
    // Serve any stop located at the current vertex immediately.
    while let Some(stop) = vehicle.next_stop() {
        if stop.node == motion.at {
            let clock = motion.at_clock_m;
            serve_stop(vehicle, clock, oracle, outcome);
        } else {
            break;
        }
    }
    if let Some(stop) = vehicle.next_stop() {
        return plan_path_to(motion, stop.node, oracle);
    }
    if !cruise_when_idle {
        return false;
    }
    // Cruise: follow a random incident road segment, as in the paper.
    if motion.at_clock_m > until_m {
        return false;
    }
    let at = motion.at;
    let neighbors: Vec<(NodeId, f64)> = graph.neighbors(at).collect();
    if neighbors.is_empty() {
        return false;
    }
    let (next, w) = neighbors[motion.rng.gen::<u64>() as usize % neighbors.len()];
    let start_clock = motion.at_clock_m.max(0.0);
    motion.path.push_back((next, w));
    motion.next_arrival_m = start_clock + w;
    true
}

/// Routes a vehicle towards `target`, filling its motion path. Returns
/// false when already there or the target is unreachable.
fn plan_path_to(motion: &mut Motion, target: NodeId, oracle: &dyn DistanceOracle) -> bool {
    let at = motion.at;
    if at == target {
        return false;
    }
    let Some(path) = oracle.shortest_path(at, target) else {
        // Unreachable target: nothing is planned, so the vehicle stays
        // parked where it is with the stop still in its schedule (cannot
        // happen on connected networks).
        return false;
    };
    let mut prev = at;
    let start_clock = motion.at_clock_m;
    let mut legs = VecDeque::with_capacity(path.len());
    for &node in path.iter().skip(1) {
        let leg = oracle.dist(prev, node);
        legs.push_back((node, leg));
        prev = node;
    }
    if legs.is_empty() {
        return false;
    }
    motion.next_arrival_m = start_clock + legs.front().unwrap().1;
    motion.path = legs;
    true
}

/// Serves the vehicle's next committed stop at `clock_m`, buffering the
/// metric/record/trace side effects for the apply phase.
fn serve_stop(
    vehicle: &mut Vehicle,
    clock_m: f64,
    oracle: &dyn DistanceOracle,
    outcome: &mut AdvanceOutcome,
) {
    let onboard_before = vehicle.onboard_count();
    let stop = vehicle.arrive_at_next_stop(clock_m, oracle);
    outcome.stops.push(ServedStop {
        trip: stop.trip,
        kind: stop.kind,
        clock_m,
        onboard_after: onboard_before + 1,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinetic_core::{Constraints, KineticConfig, PlannerKind, SolverKind};
    use rideshare_workload::{CityConfig, DemandConfig, Workload};
    use roadnet::CachedOracle;

    fn small_workload(trips: usize, seed: u64) -> Workload {
        Workload::generate(
            &CityConfig::small(),
            &DemandConfig {
                trips,
                span_seconds: 2.0 * 3_600.0,
                ..DemandConfig::default()
            },
            seed,
        )
    }

    #[test]
    fn kinetic_simulation_serves_requests_without_violations() {
        let w = small_workload(60, 1);
        let oracle = CachedOracle::without_labels(&w.network);
        let config = SimConfig {
            vehicles: 15,
            planner: PlannerKind::Kinetic(KineticConfig::slack()),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&w.network, &oracle, config);
        let report = sim.run(&w.trips);
        assert_eq!(report.requests, 60);
        assert!(report.assigned > 0, "some requests must be served");
        assert_eq!(report.guarantee_violations, 0, "guarantees must hold");
        assert!(report.completed <= report.assigned);
        assert!(report.fleet_distance_km > 0.0);
        assert!(report.acrt_ms >= 0.0);
        assert!(report.span_seconds > 0.0);
        // Everyone assigned and picked up waited within the budget.
        assert!(report.mean_wait_seconds <= 600.0 + 1.0);
        if report.completed > 0 {
            assert!(report.mean_detour_ratio <= 1.2 + 1e-6);
        }
    }

    #[test]
    fn solver_planner_simulation_also_works() {
        let w = small_workload(30, 2);
        let oracle = CachedOracle::without_labels(&w.network);
        let config = SimConfig {
            vehicles: 10,
            planner: PlannerKind::Solver(SolverKind::BranchBound),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&w.network, &oracle, config);
        let report = sim.run(&w.trips);
        assert_eq!(report.requests, 30);
        assert_eq!(report.guarantee_violations, 0);
    }

    #[test]
    fn same_seed_gives_identical_reports() {
        let w = small_workload(40, 3);
        let oracle = CachedOracle::without_labels(&w.network);
        let config = SimConfig {
            vehicles: 12,
            seed: 99,
            ..SimConfig::default()
        };
        let run = || {
            let mut sim = Simulation::new(&w.network, &oracle, config);
            sim.run(&w.trips)
        };
        let a = run();
        let b = run();
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.assigned, b.assigned);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.occupancy.fleet_max, b.occupancy.fleet_max);
        assert!((a.fleet_distance_km - b.fleet_distance_km).abs() < 1e-6);
    }

    #[test]
    fn parallel_workers_match_sequential_bit_for_bit() {
        let w = small_workload(50, 8);
        let seq_oracle = CachedOracle::without_labels(&w.network);
        let base = SimConfig {
            vehicles: 12,
            seed: 42,
            ..SimConfig::default()
        };
        let mut seq = Simulation::new(&w.network, &seq_oracle, base);
        let seq_report = seq.run(&w.trips);
        let seq_assignments: Vec<_> = seq
            .trace()
            .iter()
            .map(|t| (t.trip, t.vehicle, t.was_assigned()))
            .collect();

        for workers in [1usize, 4] {
            let par_oracle = roadnet::ShardedOracle::without_labels(&w.network);
            let config = SimConfig { workers, ..base };
            let mut par = Simulation::with_parallel(&w.network, &par_oracle, config);
            par.force_movement_threads();
            let report = par.run(&w.trips);
            assert_eq!(report.requests, seq_report.requests, "workers = {workers}");
            assert_eq!(report.assigned, seq_report.assigned, "workers = {workers}");
            assert_eq!(report.rejected, seq_report.rejected, "workers = {workers}");
            assert_eq!(
                report.completed, seq_report.completed,
                "workers = {workers}"
            );
            assert!((report.fleet_distance_km - seq_report.fleet_distance_km).abs() < 1e-9);
            let assignments: Vec<_> = par
                .trace()
                .iter()
                .map(|t| (t.trip, t.vehicle, t.was_assigned()))
                .collect();
            assert_eq!(assignments, seq_assignments, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_advance_matches_sequential() {
        // Movement-heavy scenario: cruising enabled, many vehicles, few
        // requests — most simulated time is advance_all, so this pins the
        // parallel movement phase (not just dispatch) to the sequential
        // engine's behaviour.
        let w = small_workload(25, 11);
        let seq_oracle = CachedOracle::without_labels(&w.network);
        let base = SimConfig {
            vehicles: 30,
            seed: 7,
            cruise_when_idle: true,
            ..SimConfig::default()
        };
        let mut seq = Simulation::new(&w.network, &seq_oracle, base);
        let seq_report = seq.run(&w.trips);
        let seq_locations: Vec<_> = seq.vehicles().iter().map(|v| v.location()).collect();

        for workers in [2usize, 4, 8] {
            let par_oracle = roadnet::ShardedOracle::without_labels(&w.network);
            let config = SimConfig { workers, ..base };
            let mut par = Simulation::with_parallel(&w.network, &par_oracle, config);
            par.force_movement_threads();
            let report = par.run(&w.trips);
            let locations: Vec<_> = par.vehicles().iter().map(|v| v.location()).collect();
            assert_eq!(locations, seq_locations, "workers = {workers}");
            assert_eq!(report.assigned, seq_report.assigned, "workers = {workers}");
            assert_eq!(
                report.completed, seq_report.completed,
                "workers = {workers}"
            );
            assert_eq!(
                report.guarantee_violations, seq_report.guarantee_violations,
                "workers = {workers}"
            );
            assert!(
                (report.fleet_distance_km - seq_report.fleet_distance_km).abs() == 0.0,
                "fleet distance must be bit-identical (workers = {workers}): {} vs {}",
                report.fleet_distance_km,
                seq_report.fleet_distance_km
            );
            assert!((report.mean_wait_seconds - seq_report.mean_wait_seconds).abs() == 0.0);
            assert!((report.mean_detour_ratio - seq_report.mean_detour_ratio).abs() == 0.0);
        }
    }

    #[test]
    fn batched_ticks_match_sequential_at_any_worker_count() {
        // A fixed batch window is one experiment: moving the fleet on one
        // thread or several between windows must not change any
        // assignment, trace row or counter.
        let w = small_workload(60, 13);
        let base = SimConfig {
            vehicles: 12,
            seed: 21,
            batch_window_seconds: 120.0,
            ..SimConfig::default()
        };
        let seq_oracle = CachedOracle::without_labels(&w.network);
        let mut seq = Simulation::new(&w.network, &seq_oracle, base);
        let seq_report = seq.run(&w.trips);
        assert_eq!(seq_report.requests, 60);
        let seq_assignments: Vec<_> = seq
            .trace()
            .iter()
            .map(|t| (t.trip, t.vehicle, t.was_assigned()))
            .collect();

        for workers in [1usize, 4] {
            let par_oracle = roadnet::ShardedOracle::without_labels(&w.network);
            let config = SimConfig { workers, ..base };
            let mut par = Simulation::with_parallel(&w.network, &par_oracle, config);
            par.force_movement_threads();
            let report = par.run(&w.trips);
            assert_eq!(report.requests, seq_report.requests, "workers = {workers}");
            assert_eq!(report.assigned, seq_report.assigned, "workers = {workers}");
            assert_eq!(report.rejected, seq_report.rejected, "workers = {workers}");
            assert_eq!(
                report.completed, seq_report.completed,
                "workers = {workers}"
            );
            assert_eq!(report.guarantee_violations, 0, "workers = {workers}");
            assert!((report.fleet_distance_km - seq_report.fleet_distance_km).abs() == 0.0);
            let assignments: Vec<_> = par
                .trace()
                .iter()
                .map(|t| (t.trip, t.vehicle, t.was_assigned()))
                .collect();
            assert_eq!(assignments, seq_assignments, "workers = {workers}");
        }
    }

    #[test]
    fn zero_vehicles_rejects_everything() {
        let w = small_workload(10, 4);
        let oracle = CachedOracle::without_labels(&w.network);
        let config = SimConfig {
            vehicles: 0,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&w.network, &oracle, config);
        let report = sim.run(&w.trips);
        assert_eq!(report.requests, 10);
        assert_eq!(report.assigned, 0);
        assert_eq!(report.rejected, 10);
        assert_eq!(report.service_rate(), 0.0);
    }

    #[test]
    fn max_requests_limits_the_run() {
        let w = small_workload(50, 5);
        let oracle = CachedOracle::without_labels(&w.network);
        let config = SimConfig {
            vehicles: 5,
            max_requests: Some(7),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&w.network, &oracle, config);
        let report = sim.run(&w.trips);
        assert_eq!(report.requests, 7);
    }

    #[test]
    fn tighter_constraints_serve_fewer_requests() {
        let w = small_workload(80, 6);
        let oracle = CachedOracle::without_labels(&w.network);
        let run = |constraints: Constraints| {
            let config = SimConfig {
                vehicles: 8,
                constraints,
                cruise_when_idle: false,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(&w.network, &oracle, config);
            sim.run(&w.trips).assigned
        };
        let tight = run(Constraints::paper_setting(0));
        let loose = run(Constraints::paper_setting(4));
        assert!(
            loose >= tight,
            "looser constraints should never serve fewer requests (tight {tight}, loose {loose})"
        );
    }

    #[test]
    fn trace_log_records_full_lifecycles() {
        let w = small_workload(40, 9);
        let oracle = CachedOracle::without_labels(&w.network);
        let config = SimConfig {
            vehicles: 15,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&w.network, &oracle, config);
        let report = sim.run(&w.trips);
        let trace = sim.trace();
        assert_eq!(trace.len() as u64, report.requests);
        let assigned = trace.iter().filter(|t| t.was_assigned()).count() as u64;
        assert_eq!(assigned, report.assigned);
        let delivered = trace.iter().filter(|t| t.was_delivered()).count() as u64;
        assert_eq!(delivered, report.completed);
        // Every delivered rider has a consistent lifecycle and bounded detour.
        for t in trace.iter().filter(|t| t.was_delivered()) {
            assert!(t.picked_up_s.unwrap() >= t.submitted_s - 1e-9);
            assert!(t.delivered_s.unwrap() >= t.picked_up_s.unwrap());
            assert!(t.detour_ratio().unwrap() <= 1.2 + 1e-6);
            assert!(t.waited_s().unwrap() <= 600.0 + 1e-6);
        }
        // CSV export covers every request.
        let csv = trace.to_csv();
        assert_eq!(csv.trim_end().lines().count() as u64, report.requests + 1);
    }

    #[test]
    fn parked_fleet_still_serves_nearby_requests() {
        let w = small_workload(20, 7);
        let oracle = CachedOracle::without_labels(&w.network);
        let config = SimConfig {
            vehicles: 20,
            cruise_when_idle: false,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&w.network, &oracle, config);
        let report = sim.run(&w.trips);
        assert!(report.assigned > 0);
        assert_eq!(report.guarantee_violations, 0);
    }
}
