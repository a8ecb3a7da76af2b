//! The simulation engine: vehicle movement, request submission, dispatching.

use std::collections::VecDeque;

use kinetic_core::{AssignmentOutcome, Dispatcher, LazySync, StopKind, TripRequest, Vehicle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rideshare_workload::TripEvent;
use roadnet::{DistanceOracle, NodeId, RoadNetwork};
use spatial::{GridIndex, Position};

use crate::config::SimConfig;
use crate::metrics::{MetricsCollector, Pickup, SimReport};
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
    /// Private RNG driving this vehicle's cruising decisions. A stream per
    /// vehicle (rather than one engine-wide RNG) makes each trajectory a
    /// function of the vehicle alone, not of how many other vehicles moved
    /// before it: the trajectories every pinned digest holds, and what
    /// would let a vehicle be advanced lazily, on its own schedule.
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

    /// The vertex the vehicle should be evaluated at and the clock it gets
    /// there, with the fleet at `clock_m`: the next vertex of an in-flight
    /// drive, or the parked position.
    fn effective_position(&self, clock_m: f64) -> (NodeId, f64) {
        match self.path.front() {
            Some(&(node, _)) => (node, self.next_arrival_m),
            None => (self.at, clock_m.max(self.at_clock_m)),
        }
    }
}

/// A single simulation run over a road network.
pub struct Simulation<'a> {
    pub(crate) graph: &'a RoadNetwork,
    pub(crate) oracle: &'a dyn DistanceOracle,
    pub(crate) config: SimConfig,
    pub(crate) vehicles: Vec<Vehicle>,
    pub(crate) motions: Vec<Motion>,
    /// Each vehicle indexed at the last vertex it reached.
    pub(crate) index: GridIndex,
    /// The longest straight-line road segment: how far a vehicle's
    /// effective position can be from the vertex the index holds for it.
    index_lag: f64,
    /// The batch in which each vehicle was last synced to its effective
    /// position; `batches` numbers the batches submitted so far. Derived
    /// state, not checkpointed: a resumed run starts from zero.
    synced_in: Vec<u64>,
    batches: u64,
    pub(crate) dispatcher: Dispatcher,
    pub(crate) clock_m: f64,
    pub(crate) collector: MetricsCollector,
    pub(crate) trace: TraceLog,
    /// Region accounting, on when built through
    /// [`ShardedSimulation`](crate::ShardedSimulation). Counts only: no
    /// decision reads it.
    pub(crate) regions: Option<RegionLedger>,
}

impl<'a> Simulation<'a> {
    /// Creates a simulation: vehicles are placed on uniformly random
    /// vertices (as in the paper) and registered in the spatial index.
    pub fn new(graph: &'a RoadNetwork, oracle: &'a dyn DistanceOracle, config: SimConfig) -> Self {
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
            config,
            vehicles,
            motions,
            index,
            index_lag: graph.longest_segment(),
            synced_in: Vec::new(),
            batches: 0,
            dispatcher: Dispatcher::new(config.dispatcher),
            clock_m: 0.0,
            collector: MetricsCollector::default(),
            trace: TraceLog::new(),
            regions: None,
        }
    }

    /// [`Simulation::new`]. Exists only for the frozen `benchmark/` crate,
    /// which still calls it by this name.
    pub fn with_parallel(
        graph: &'a RoadNetwork,
        oracle: &'a (dyn DistanceOracle + Sync),
        config: SimConfig,
    ) -> Self {
        Self::new(graph, oracle, config)
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

    /// Runs the full workload and returns the report. Each request is
    /// dispatched at its own time, with the fleet advanced to it first
    /// ([`Simulation::submit_windows`]); after the last request the
    /// simulation keeps running until every committed stop has been served
    /// (bounded by a four-hour drain horizon).
    pub fn run(&mut self, trips: &[TripEvent]) -> SimReport {
        self.submit_windows(trips, |_, _| {});
        self.drain();
        self.report()
    }

    /// Submits `trips` one dispatch tick at a time. Consecutive trips in
    /// the same window ([`SimConfig::same_window`]) form one tick — one
    /// trip per tick when windows are off. Trips are sorted by time, so
    /// each tick is one contiguous slice; the fleet advances once to the
    /// tick's last request, then [`Simulation::submit_batch`] takes the
    /// slice. After each tick, `after` gets the number of trips submitted
    /// so far.
    pub fn submit_windows(&mut self, trips: &[TripEvent], mut after: impl FnMut(&mut Self, usize)) {
        let config = self.config;
        let mut submitted = 0;
        for batch in trips.chunk_by(|a, b| config.same_window(a.time_seconds, b.time_seconds)) {
            let t_m = config.seconds_to_meters(batch[batch.len() - 1].time_seconds);
            self.advance_all(t_m);
            self.submit_batch(batch);
            submitted += batch.len();
            after(self, submitted);
        }
    }

    /// Submits a single request at its own time; advance the fleet to it
    /// first. A window of one: `submit_batch(std::slice::from_ref(trip))`.
    /// Exposed so integration tests and custom harnesses can drive the
    /// simulation step by step.
    ///
    /// ```
    /// use rideshare_sim::{SimConfig, Simulation};
    /// use rideshare_workload::{CityConfig, DemandConfig, Workload};
    /// use roadnet::CachedOracle;
    ///
    /// let w = Workload::generate(&CityConfig::small(), &DemandConfig::default(), 1);
    /// let oracle = CachedOracle::new(&w.network);
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
        self.submit_batch(std::slice::from_ref(trip))[0]
    }

    /// Submits one dispatch window's worth of requests, each at its own
    /// time; advance the fleet to the last of them first (see
    /// [`Simulation::run`]). The requests go through
    /// [`Dispatcher::assign_synced`] one at a time in slice order
    /// (ascending submission time), each seeing the commits of those before
    /// it. The dispatcher reads each request's radius nearest cell first
    /// and syncs a vehicle to its effective position only when it reads
    /// it — at most once per batch, since dispatch commits never move a
    /// vehicle. Each request keeps its **own** submission time for
    /// deadlines and its trace row — only vehicle movement is quantized to
    /// the window. A request's `d(source, destination)` is asked once,
    /// here, for its trace row and the dispatcher both.
    pub fn submit_batch(&mut self, trips: &[TripEvent]) -> Vec<AssignmentOutcome> {
        self.batches += 1;
        self.synced_in.resize(self.vehicles.len(), 0);
        let mut outcomes = Vec::with_capacity(trips.len());
        for trip in trips {
            let request = TripRequest::new(
                trip.id,
                trip.source,
                trip.destination,
                self.config.seconds_to_meters(trip.time_seconds),
                self.config.constraints,
            );
            let direct = self.oracle.dist(trip.source, trip.destination);
            let (batch, clock_m, oracle) = (self.batches, self.clock_m, self.oracle);
            let (motions, synced_in) = (&self.motions, &mut self.synced_in);
            let mut sync = |v: &mut Vehicle| {
                let i = v.id() as usize;
                if synced_in[i] != batch {
                    synced_in[i] = batch;
                    let (node, clock) = motions[i].effective_position(clock_m);
                    v.set_position(node, clock, oracle);
                }
            };
            let lazy = LazySync {
                lag: self.index_lag,
                sync: &mut sync,
            };
            let outcome = self.dispatcher.assign_synced(
                &request,
                direct,
                &mut self.vehicles,
                self.graph,
                &mut self.index,
                self.oracle,
                lazy,
            );
            self.trace.push(RequestTrace::submitted(
                trip.id,
                trip.time_seconds,
                direct,
                outcome.candidates(),
            ));
            if let Some(ledger) = &mut self.regions {
                let ids = self
                    .dispatcher
                    .candidates(&request, self.graph, &mut self.index);
                ledger.request(trip.source, &ids);
            }
            if let AssignmentOutcome::Assigned { vehicle, cost, .. } = outcome {
                self.trace.record_assignment(trip.id, vehicle, cost);
                self.replan_after_assignment(vehicle as usize);
                if let Some(ledger) = &mut self.regions {
                    ledger.assigned(trip.source, vehicle);
                }
            }
            outcomes.push(outcome);
        }
        outcomes
    }

    /// Advances the whole fleet to absolute clock `until_m`, one vehicle at
    /// a time in ascending id. Each vehicle's effects — served stops,
    /// spatial index, fleet distance — are applied as it moves; that order
    /// fixes the f64 accumulation order of every metric.
    pub fn advance_all(&mut self, until_m: f64) {
        let until_m = until_m.max(self.clock_m);
        for i in 0..self.vehicles.len() {
            let (distance_m, moved_to) = self.advance_one(i, until_m);
            self.collector.fleet_distance_m += distance_m;
            if let Some(node) = moved_to {
                let p = self.graph.point(node);
                self.index.update(i as u32, Position::new(p.x, p.y));
                if let Some(ledger) = &mut self.regions {
                    ledger.moved(i as u32, node);
                }
            }
        }
        self.clock_m = until_m;
    }

    /// Advances vehicle `i` to `until_m`, serving every committed stop it
    /// reaches on the way. Returns the road distance driven and the last
    /// vertex reached, if it moved (intermediate positions are
    /// unobservable between `advance_all` calls).
    fn advance_one(&mut self, i: usize, until_m: f64) -> (f64, Option<NodeId>) {
        let mut distance_m = 0.0;
        let mut moved_to = None;
        loop {
            if self.motions[i].path.is_empty() && !self.start_next_leg(i, until_m) {
                return (distance_m, moved_to);
            }
            let motion = &mut self.motions[i];
            if motion.next_arrival_m > until_m {
                return (distance_m, moved_to);
            }
            let Some((node, leg)) = motion.path.pop_front() else {
                return (distance_m, moved_to);
            };
            let arrival = motion.next_arrival_m;
            motion.at = node;
            motion.at_clock_m = arrival;
            distance_m += leg;
            moved_to = Some(node);
            if let Some(&(_, next_leg)) = motion.path.front() {
                motion.next_arrival_m = arrival + next_leg;
            } else if self.vehicles[i].next_stop().is_some_and(|s| s.node == node) {
                // End of the planned drive at a committed stop.
                self.serve_stop(i, arrival);
            } else {
                // End of a cruising hop (or of a drive re-planned away).
                self.vehicles[i].set_position(node, arrival, self.oracle);
            }
        }
    }

    /// Plans the next drive for vehicle `i`, whose path is empty. Returns
    /// false when the vehicle stays parked (nothing to do and cruising
    /// disabled).
    fn start_next_leg(&mut self, i: usize, until_m: f64) -> bool {
        // Serve any stop located at the current vertex immediately.
        while let Some(stop) = self.vehicles[i].next_stop() {
            if stop.node != self.motions[i].at {
                break;
            }
            self.serve_stop(i, self.motions[i].at_clock_m);
        }
        let motion = &mut self.motions[i];
        if let Some(stop) = self.vehicles[i].next_stop() {
            return plan_path_to(motion, stop.node, self.graph, self.oracle);
        }
        // Cruise: follow a random incident road segment, as in the paper.
        if !self.config.cruise_when_idle || motion.at_clock_m > until_m {
            return false;
        }
        let degree = self.graph.degree(motion.at);
        if degree == 0 {
            return false;
        }
        let draw = motion.rng.gen::<u64>() as usize % degree;
        let Some((next, w)) = self.graph.neighbors(motion.at).nth(draw) else {
            return false;
        };
        let start_clock = motion.at_clock_m.max(0.0);
        motion.path.push_back((next, w));
        motion.next_arrival_m = start_clock + w;
        true
    }

    /// Serves vehicle `i`'s next committed stop at `clock_m` and books it
    /// against the rider's trace row: the guarantee check (Definition 1:
    /// the wait within `max_wait`, the ride within `max_ride` of the
    /// direct distance), the service-quality metrics and the trace.
    fn serve_stop(&mut self, i: usize, clock_m: f64) {
        let vehicle = &mut self.vehicles[i];
        // Riders on board after a pickup (unused for a drop-off).
        let onboard_after = vehicle.onboard_count() + 1;
        let Some(stop) = vehicle.arrive_at_next_stop(clock_m, self.oracle) else {
            return;
        };
        let config = &self.config;
        let Some(&row) = self.trace.get(stop.trip) else {
            return;
        };
        let at_s = config.meters_to_seconds(clock_m);
        match stop.kind {
            StopKind::Pickup => {
                // `submit_batch` built the request's deadline from this
                // same product, so the check is the dispatcher's own.
                let waited_m = clock_m - config.seconds_to_meters(row.submitted_s);
                if waited_m > config.constraints.max_wait {
                    self.collector.guarantee_violations += 1;
                }
                self.collector.pickups.push(Pickup {
                    vehicle: i as u32,
                    clock_s: at_s,
                    waited_s: config.meters_to_seconds(waited_m),
                    onboard: onboard_after,
                });
                self.trace.record_pickup(stop.trip, at_s);
            }
            StopKind::Dropoff => {
                // Exact: the round trip through seconds is off by ~1e-10
                // m, and `seconds_to_meters` rounds it back onto the grid.
                let Some(picked_s) = row.picked_up_s else {
                    return;
                };
                let ride = clock_m - config.seconds_to_meters(picked_s);
                if ride > config.constraints.max_ride(row.direct_m) {
                    self.collector.guarantee_violations += 1;
                }
                self.collector.completed += 1;
                self.collector.detour_sum += if row.direct_m > 0.0 {
                    ride / row.direct_m
                } else {
                    1.0
                };
                self.trace.record_delivery(stop.trip, at_s, ride);
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

    /// Every pickup served so far, in service order: vehicle, clock,
    /// realised wait and the passengers on board after it. Windowed
    /// harnesses bucket these by clock to compute per-window wait
    /// percentiles and occupancy.
    pub fn pickups(&self) -> &[Pickup] {
        &self.collector.pickups
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

/// Routes a vehicle towards `target`, filling its motion path. Returns
/// false when already there or the target is unreachable.
///
/// Each hop's length is read from the graph: consecutive vertices of a
/// shortest path are joined by a shortest edge, and on the 2⁻¹⁶ m grid
/// that edge's weight is the oracle's distance between them bit for bit.
/// Only a path with a hop the graph lacks asks the oracle.
fn plan_path_to(
    motion: &mut Motion,
    target: NodeId,
    graph: &RoadNetwork,
    oracle: &dyn DistanceOracle,
) -> bool {
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
        let leg = graph
            .edge_weight(prev, node)
            .unwrap_or_else(|| oracle.dist(prev, node));
        legs.push_back((node, leg));
        prev = node;
    }
    let Some(&(_, first)) = legs.front() else {
        return false;
    };
    motion.next_arrival_m = start_clock + first;
    motion.path = legs;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinetic_core::{Constraints, KineticConfig, PlannerKind, SolverKind};
    use rideshare_workload::{CityConfig, DemandConfig, Workload};
    use roadnet::{CachedOracle, Q};

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
        let oracle = CachedOracle::new(&w.network);
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
        let oracle = CachedOracle::new(&w.network);
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
        let oracle = CachedOracle::new(&w.network);
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

    /// FNV-1a over every trace row, field by field, floats by their bits.
    fn trace_digest(trace: &TraceLog) -> u64 {
        use roadnet::io::bin;
        let mut buf = Vec::new();
        let opt = |buf: &mut Vec<u8>, v: Option<f64>| bin::put_f64(buf, v.unwrap_or(f64::NAN));
        for r in trace.iter() {
            bin::put_u64(&mut buf, r.trip);
            bin::put_f64(&mut buf, r.submitted_s);
            bin::put_u32(&mut buf, r.vehicle.unwrap_or(u32::MAX));
            opt(&mut buf, r.assignment_cost_m);
            bin::put_u64(&mut buf, r.candidates as u64);
            opt(&mut buf, r.picked_up_s);
            opt(&mut buf, r.delivered_s);
            bin::put_f64(&mut buf, r.direct_m);
            opt(&mut buf, r.ride_m);
        }
        bin::fnv1a(&buf)
    }

    #[test]
    fn movement_heavy_and_batched_runs_are_pinned() {
        // Literals recorded from the engine before its movement loop
        // became apply-as-you-move (when effects were buffered per vehicle
        // and applied in id order afterwards): any change to movement
        // order, cruising streams or f64 accumulation order fails here.
        let cruising = SimConfig {
            vehicles: 30,
            seed: 7,
            cruise_when_idle: true,
            ..SimConfig::default()
        };
        let batched = SimConfig {
            vehicles: 12,
            seed: 21,
            batch_window_seconds: 120.0,
            ..SimConfig::default()
        };
        let runs = [
            (
                small_workload(25, 11),
                cruising,
                [
                    0x40a6_96e1_496b_020c,
                    0x403b_4e00_c9df_d12f,
                    0x6716_a003_b7f0_c0b1,
                ],
            ),
            (
                small_workload(60, 13),
                batched,
                [
                    0x4093_6333_a73d_70a4,
                    0x4053_0ee0_9702_7025,
                    0x5199_1e42_2530_3d2d,
                ],
            ),
        ];
        for (w, config, expect) in runs {
            let oracle = CachedOracle::new(&w.network);
            let mut sim = Simulation::new(&w.network, &oracle, config);
            let report = sim.run(&w.trips);
            assert_eq!(report.assigned, report.requests, "{config:?}");
            let got = [
                report.fleet_distance_km.to_bits(),
                report.mean_wait_seconds.to_bits(),
                trace_digest(sim.trace()),
            ];
            assert_eq!(got, expect, "{config:?}");
        }
    }

    #[test]
    fn the_grid_is_asked_once_per_request() {
        let w = small_workload(40, 6);
        let oracle = CachedOracle::new(&w.network);
        for batch_window_seconds in [0.0, 120.0] {
            let config = SimConfig {
                vehicles: 12,
                batch_window_seconds,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(&w.network, &oracle, config);
            let report = sim.run(&w.trips);
            assert_eq!(report.requests, 40);
            assert_eq!(
                sim.index.stats().queries,
                report.requests,
                "window {batch_window_seconds} s"
            );
        }
    }

    /// A [`CachedOracle`] that counts every `dist` call by its ordered
    /// pair.
    struct CountingOracle<'g> {
        inner: CachedOracle<'g>,
        calls: std::cell::RefCell<std::collections::BTreeMap<(NodeId, NodeId), u64>>,
    }

    impl DistanceOracle for CountingOracle<'_> {
        fn dist(&self, s: NodeId, t: NodeId) -> f64 {
            *self.calls.borrow_mut().entry((s, t)).or_default() += 1;
            self.inner.dist(s, t)
        }

        fn shortest_path(&self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
            self.inner.shortest_path(s, t)
        }

        fn node_count(&self) -> usize {
            self.inner.node_count()
        }
    }

    #[test]
    fn the_direct_distance_is_asked_once_per_request() {
        // No fleet, so no probe prices the pair: every ask of
        // `d(source, destination)` is the engine's or the dispatcher's,
        // and the dispatcher must take the engine's answer.
        let w = small_workload(40, 6);
        for batch_window_seconds in [0.0, 120.0] {
            let oracle = CountingOracle {
                inner: CachedOracle::new(&w.network),
                calls: Default::default(),
            };
            let config = SimConfig {
                vehicles: 0,
                batch_window_seconds,
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(&w.network, &oracle, config);
            let report = sim.run(&w.trips);
            assert_eq!(report.requests, 40);
            let mut asked = std::collections::BTreeMap::<_, u64>::new();
            for trip in &w.trips {
                *asked.entry((trip.source, trip.destination)).or_default() += 1;
            }
            assert_eq!(
                *oracle.calls.borrow(),
                asked,
                "window {batch_window_seconds} s"
            );
        }
    }

    #[test]
    fn a_planned_drive_reads_its_hops_from_the_graph() {
        let (network, _) = CityConfig::medium().build(3);
        let oracle = CountingOracle {
            inner: CachedOracle::new(&network),
            calls: Default::default(),
        };
        let n = network.node_count() as u64;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n) as NodeId
        };
        let mut planned = 0;
        while planned < 250 {
            let (s, t) = (next(), next());
            if s == t {
                continue;
            }
            let mut motion = Motion::parked_at(s, StdRng::seed_from_u64(0));
            assert!(plan_path_to(&mut motion, t, &network, &oracle));
            assert!(oracle.calls.borrow().is_empty(), "{s} -> {t} asked dist");
            let mut prev = s;
            let mut total = 0.0;
            for &(node, leg) in &motion.path {
                let want = oracle.inner.dist(prev, node);
                assert_eq!(leg.to_bits(), want.to_bits(), "hop {prev} -> {node}");
                total += leg;
                prev = node;
            }
            assert_eq!(prev, t);
            assert_eq!(total.to_bits(), oracle.inner.dist(s, t).to_bits());
            planned += 1;
        }
    }

    #[test]
    fn pruned_dispatch_matches_exhaustive_while_vehicles_are_in_flight() {
        // A cruising fleet is mostly part-way along a segment: the grid
        // holds the vertex each vehicle left, the dispatcher screens the
        // one it is heading to. Reading nearest cell first must still find
        // exhaustive evaluation's winner for every request. The paper's
        // 10-minute wait covers the whole small city; a 71-second one
        // makes the dispatcher prune vehicles by road reach once they top
        // the heap, and that must not change a winner either.
        let w = small_workload(200, 12);
        let oracle = CachedOracle::new(&w.network);
        let run = |use_pruning, constraints| {
            let config = SimConfig {
                vehicles: 60,
                seed: 5,
                cruise_when_idle: true,
                batch_window_seconds: 30.0,
                constraints,
                dispatcher: kinetic_core::DispatcherConfig {
                    use_pruning,
                    ..kinetic_core::DispatcherConfig::default()
                },
                ..SimConfig::default()
            };
            let mut sim = Simulation::new(&w.network, &oracle, config);
            sim.run(&w.trips);
            let rows: Vec<_> = sim
                .trace()
                .iter()
                .map(|r| {
                    (
                        r.trip,
                        r.vehicle,
                        r.assignment_cost_m.map(f64::to_bits),
                        r.candidates,
                    )
                })
                .collect();
            (rows, sim.index.stats().pruned_by_reach)
        };
        let mut by_reach = 0;
        for constraints in [Constraints::paper_default(), Constraints::new(1_000.0, 0.2)] {
            let (pruned, reach) = run(true, constraints);
            assert_eq!(pruned.len(), 200);
            assert_eq!(pruned, run(false, constraints).0, "{constraints:?}");
            by_reach += reach;
        }
        assert!(by_reach > 0, "no vehicle was pruned by road reach");
    }

    /// The contract `benchmark/` relies on when it builds the engine with
    /// [`Simulation::with_parallel`] and a worker count: the one sequential
    /// engine runs, so every worker count reproduces [`Simulation::new`]'s
    /// report, trace and fleet bit for bit.
    fn with_parallel_matches_sequential(w: &Workload, base: SimConfig, workers: &[usize]) {
        let oracle = roadnet::MatrixOracle::new(&w.network);
        let observe = |sim: &mut Simulation<'_>| {
            let r = sim.run(&w.trips);
            let report = [
                r.requests,
                r.assigned,
                r.rejected,
                r.completed,
                r.guarantee_violations,
                r.fleet_distance_km.to_bits(),
                r.mean_wait_seconds.to_bits(),
                r.mean_detour_ratio.to_bits(),
            ];
            let trace: Vec<_> = sim.trace().iter().copied().collect();
            let fleet: Vec<_> = sim.vehicles().iter().map(|v| v.location()).collect();
            (report, trace, fleet)
        };
        let expect = observe(&mut Simulation::new(&w.network, &oracle, base));
        assert_eq!(expect.0[0], w.trips.len() as u64);
        for &workers in workers {
            let config = SimConfig { workers, ..base };
            let got = observe(&mut Simulation::with_parallel(&w.network, &oracle, config));
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_workers_match_sequential_bit_for_bit() {
        let base = SimConfig {
            vehicles: 12,
            seed: 42,
            ..SimConfig::default()
        };
        with_parallel_matches_sequential(&small_workload(50, 8), base, &[1, 4]);
    }

    #[test]
    fn parallel_advance_matches_sequential() {
        // Movement-heavy: cruising enabled, many vehicles, few requests.
        let base = SimConfig {
            vehicles: 30,
            seed: 7,
            cruise_when_idle: true,
            ..SimConfig::default()
        };
        with_parallel_matches_sequential(&small_workload(25, 11), base, &[2, 4, 8]);
    }

    #[test]
    fn batched_ticks_match_sequential_at_any_worker_count() {
        let base = SimConfig {
            vehicles: 12,
            seed: 21,
            batch_window_seconds: 120.0,
            ..SimConfig::default()
        };
        with_parallel_matches_sequential(&small_workload(60, 13), base, &[1, 4]);
    }

    /// No fleet, and a fleet with no seats, per request and in windows.
    #[test]
    fn zero_vehicles_rejects_everything() {
        let w = small_workload(10, 4);
        let oracle = CachedOracle::new(&w.network);
        for (vehicles, capacity) in [(0, 4), (6, 0)] {
            for batch_window_seconds in [0.0, 120.0] {
                let config = SimConfig {
                    vehicles,
                    capacity,
                    batch_window_seconds,
                    ..SimConfig::default()
                };
                let mut sim = Simulation::new(&w.network, &oracle, config);
                let report = sim.run(&w.trips);
                let case =
                    format!("{vehicles} x {capacity} seats, window {batch_window_seconds} s");
                assert_eq!(report.requests, 10, "{case}");
                assert_eq!(report.assigned, 0, "{case}");
                assert_eq!(report.rejected, 10, "{case}");
                assert_eq!(report.guarantee_violations, 0, "{case}");
                assert_eq!(report.service_rate(), 0.0, "{case}");
            }
        }
    }

    #[test]
    fn tighter_constraints_serve_fewer_requests() {
        let w = small_workload(80, 6);
        let oracle = CachedOracle::new(&w.network);
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
        let oracle = CachedOracle::new(&w.network);
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
    fn a_late_pickup_and_a_long_ride_are_both_violations() {
        // One parked vehicle takes one rider and is held back past the
        // pickup deadline, then past the ride limit: both broken
        // guarantees are counted, and both stops are still traced.
        let w = small_workload(40, 3);
        let oracle = CachedOracle::new(&w.network);
        let config = SimConfig {
            vehicles: 1,
            cruise_when_idle: false,
            ..SimConfig::default()
        };
        let start = Simulation::new(&w.network, &oracle, config).motions[0].at;
        let (mut sim, trip) = w
            .trips
            .iter()
            .filter(|t| t.source != start && t.source != t.destination)
            .find_map(|trip| {
                let mut sim = Simulation::new(&w.network, &oracle, config);
                sim.advance_all(config.seconds_to_meters(trip.time_seconds));
                sim.submit(trip).is_assigned().then_some((sim, trip))
            })
            .expect("some rider is reachable");
        // Depart for the pickup past its deadline; stop on arrival.
        sim.motions[0].at_clock_m += config.constraints.max_wait + 1_000.0;
        sim.advance_all(sim.clock_m);
        let m = &sim.motions[0];
        let at_pickup = m
            .path
            .iter()
            .skip(1)
            .fold(m.next_arrival_m, |t, &(_, l)| t + l);
        sim.advance_all(at_pickup);
        assert_eq!(sim.report().guarantee_violations, 1);
        // Hold the drive to the drop-off back past the ride limit.
        let direct_m = sim.trace().get(trip.id).unwrap().direct_m;
        sim.motions[0].next_arrival_m += config.constraints.max_ride(direct_m) + 1_000.0;
        sim.drain();
        let (report, row) = (sim.report(), sim.trace().get(trip.id).unwrap());
        assert!(
            row.waited_s().unwrap() > 600.0 && row.was_delivered(),
            "{row:?}"
        );
        assert!(row.ride_m.unwrap() > 1.2 * direct_m, "{row:?}");
        assert_eq!((report.completed, report.guarantee_violations), (1, 2));
    }

    #[test]
    fn each_guarantee_holds_at_its_limit_and_breaks_one_q_past_it() {
        // One parked vehicle takes one rider; its drive is held back so
        // that it reaches the pickup at the deadline plus `late_pickup`
        // and the drop-off at the ride limit plus `long_ride`.
        let w = small_workload(40, 3);
        let oracle = CachedOracle::new(&w.network);
        let config = SimConfig {
            vehicles: 1,
            cruise_when_idle: false,
            ..SimConfig::default()
        };
        let start = Simulation::new(&w.network, &oracle, config).motions[0].at;
        // Holds vehicle 0's planned drive back to end at `target`.
        let arrive_at = |sim: &mut Simulation, target: f64| {
            sim.advance_all(sim.clock_m);
            let m = &mut sim.motions[0];
            let end = m
                .path
                .iter()
                .skip(1)
                .fold(m.next_arrival_m, |t, &(_, l)| t + l);
            m.next_arrival_m += target - end;
            sim.advance_all(target);
        };
        for (late_pickup, long_ride) in [(0.0, 0.0), (Q, 0.0), (0.0, Q)] {
            let (mut sim, trip) = w
                .trips
                .iter()
                .filter(|t| t.source != start && t.source != t.destination)
                .find_map(|trip| {
                    let mut sim = Simulation::new(&w.network, &oracle, config);
                    sim.advance_all(config.seconds_to_meters(trip.time_seconds));
                    sim.submit(trip).is_assigned().then_some((sim, trip))
                })
                .expect("some rider is reachable");
            let deadline =
                config.seconds_to_meters(trip.time_seconds) + config.constraints.max_wait;
            arrive_at(&mut sim, deadline + late_pickup);
            let row = *sim.trace().get(trip.id).unwrap();
            assert_eq!(row.picked_up_s, Some(config.meters_to_seconds(sim.clock_m)));
            let limit = config.constraints.max_ride(row.direct_m);
            let picked_m = sim.clock_m;
            arrive_at(&mut sim, picked_m + limit + long_ride);
            let row = *sim.trace().get(trip.id).unwrap();
            assert_eq!(row.ride_m, Some(limit + long_ride));
            let broken = u64::from(late_pickup > 0.0) + u64::from(long_ride > 0.0);
            assert_eq!(sim.report().guarantee_violations, broken);
        }
    }

    #[test]
    fn the_tree_picks_each_rider_up_at_the_simulators_clock() {
        // A cruising, batched run, stepped 100 m at a time: every rider on
        // board has the drop-off deadline its tree fixed at pickup, and
        // that pickup clock is the one the simulator traced.
        let w = small_workload(60, 13);
        let oracle = CachedOracle::new(&w.network);
        let config = SimConfig {
            vehicles: 12,
            seed: 21,
            batch_window_seconds: 120.0,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&w.network, &oracle, config);
        let mut seen = std::collections::BTreeSet::new();
        let mut step_to = |sim: &mut Simulation, until_m: f64| {
            while sim.clock_m < until_m {
                sim.advance_all((sim.clock_m + 100.0).min(until_m));
                for t in sim.vehicles.iter().flat_map(|v| &v.problem().onboard) {
                    let row = sim.trace().get(t.trip).unwrap();
                    let picked_m = config.seconds_to_meters(row.picked_up_s.unwrap());
                    let ride = config.constraints.max_ride(row.direct_m);
                    assert_eq!(t.dropoff_deadline - ride, picked_m, "trip {}", t.trip);
                    seen.insert(t.trip);
                }
            }
        };
        let window = |t: &TripEvent| (t.time_seconds / 120.0).floor();
        for batch in w.trips.chunk_by(|a, b| window(a) == window(b)) {
            let last = batch[batch.len() - 1].time_seconds;
            step_to(&mut sim, config.seconds_to_meters(last));
            sim.submit_batch(batch);
        }
        while sim.vehicles.iter().any(|v| v.next_stop().is_some()) {
            let next = sim.clock_m + 100.0;
            step_to(&mut sim, next);
        }
        // Every ride longer than a step was seen on board at a step's end.
        let long_rides: Vec<_> = sim
            .trace()
            .iter()
            .filter(|r| r.ride_m.is_some_and(|m| m > 100.0))
            .map(|r| r.trip)
            .collect();
        assert!(long_rides.len() > 20);
        assert!(long_rides.iter().all(|trip| seen.contains(trip)));
    }

    #[test]
    fn label_and_matrix_oracles_drive_identical_runs() {
        // The matrix oracle (Floyd–Warshall distances, Dijkstra paths) is
        // the label-free reference: the same runs over the labels must give
        // the same trace and report, bit for bit, wall-clock latencies
        // aside.
        let deterministic = |mut r: SimReport| {
            r.acrt_ms = 0.0;
            r.art_table.iter_mut().for_each(|e| e.2 = 0.0);
            format!("{r:?}")
        };
        for seed in [3, 17, 29] {
            let w = small_workload(80, seed);
            let labels = CachedOracle::new(&w.network);
            let matrix = roadnet::MatrixOracle::new(&w.network);
            for batch_window_seconds in [0.0, 30.0] {
                let config = SimConfig {
                    vehicles: 15,
                    seed,
                    cruise_when_idle: true,
                    batch_window_seconds,
                    ..SimConfig::default()
                };
                let run = |oracle: &dyn DistanceOracle| {
                    let mut sim = Simulation::new(&w.network, oracle, config);
                    let report = sim.run(&w.trips);
                    assert!(report.assigned > 0, "{config:?}");
                    let trace = sim.trace();
                    (trace.to_csv(), trace_digest(trace), deterministic(report))
                };
                assert_eq!(run(&labels), run(&matrix), "{config:?}");
            }
        }
    }

    #[test]
    fn parked_fleet_still_serves_nearby_requests() {
        let w = small_workload(20, 7);
        let oracle = CachedOracle::new(&w.network);
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
