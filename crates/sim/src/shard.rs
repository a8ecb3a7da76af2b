//! The sharded simulation engine: the city partitioned into regions, each
//! region's fleet owned by one shard, cross-region traffic exchanged
//! through a message broker — bit-identical to the single-shard engine.
//!
//! # Architecture
//!
//! A [`roadnet::PartitionSpec`] splits the road network into `k` regions.
//! [`ShardedSimulation`] runs one shard's worth of state per region:
//! the vehicles whose current position lies in the region, their motion
//! state, and a private `Dispatcher` that serves the requests picked up
//! inside the region. Shards never touch each other's state directly;
//! everything that crosses a region boundary travels as a time-stamped
//! [`Envelope`] through the [`ShardBroker`]:
//!
//! - **Vehicle migrations** — a vehicle whose drive crossed into another
//!   region is shipped (vehicle + motion + RNG stream) to its new owner.
//!   Migration envelopes are drained at the **tick barrier**, after the
//!   movement phase of every shard has completed, in deterministic
//!   `(tick, from-shard, seq)` order.
//! - **Candidate borrows** — a request whose candidate set spans regions
//!   makes the owning shard borrow read-only copies of the remote
//!   candidates for evaluation.
//! - **Cross-region commits** — when the winning vehicle lives in another
//!   shard, the committed schedule is shipped home. Borrow/commit
//!   envelopes carry the same `(tick, shard, seq)` stamps but are drained
//!   at the dispatch point inside the tick: the paper's service guarantee
//!   (and bit-identity with the single-shard engine) requires an
//!   assignment to be visible before the next request in the same window
//!   is evaluated.
//!
//! # Determinism by construction
//!
//! The sharded engine reproduces the single-shard
//! [`Simulation`](crate::Simulation)'s
//! observable behaviour **bit for bit** at any shard count (the only
//! exception is wall-clock latency means, which are not a function of
//! simulation state). The load-bearing decisions:
//!
//! - Fleet placement replays the exact `Simulation::build` RNG sequence,
//!   then scatters vehicles by region — ids, start nodes and per-vehicle
//!   cruising streams are unchanged.
//! - Candidate filtering runs against one **global** spatial index, so a
//!   request sees the same candidate ids in the same order regardless of
//!   which shards own them.
//! - Movement outcomes are applied to the metrics/trace/index in global
//!   ascending vehicle-id order (not shard order), pinning the f64
//!   accumulation order the single-shard engine uses.
//! - All broker traffic is totally ordered by `(tick, shard, seq)` and
//!   the queues are plain FIFO vectors — no hash-map iteration order, no
//!   wall clock, no thread scheduling can influence delivery order.
//!
//! The equivalence is property-tested across random workloads, planner
//! kinds and shard counts in `tests/proptest_shard.rs` and gated in CI by
//! the `shard_smoke` bench.

use std::collections::{BTreeMap, VecDeque};

use kinetic_core::{AssignmentOutcome, DispatchStats, Dispatcher, TripId, TripRequest, Vehicle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rideshare_workload::TripEvent;
use roadnet::{DistanceOracle, NodeId, PartitionSpec, RoadNetwork};
use spatial::{GridIndex, Position};
use workpool::WorkPool;

use crate::config::SimConfig;
use crate::engine::{
    advance_one, apply_outcome_to, effective_position, movement_pool, replan_after_assignment,
    AdvanceOutcome, Motion, TripRecord,
};
use crate::metrics::{MetricsCollector, SimReport};
use crate::trace::{RequestTrace, TraceLog};

/// A message travelling between shards.
#[derive(Debug)]
pub enum ShardMessage {
    /// A vehicle (plus its motion state and cruising RNG stream) whose
    /// position crossed into the destination shard's region.
    Migrate {
        /// The vehicle changing owners.
        vehicle: Box<Vehicle>,
        /// Its motion state, shipped alongside so the new owner can
        /// continue the drive mid-leg.
        motion: Box<Motion>,
    },
    /// A read-only copy of a remote candidate vehicle, lent to the shard
    /// dispatching a boundary request.
    Borrow {
        /// Snapshot of the remote candidate at evaluation time.
        vehicle: Box<Vehicle>,
    },
    /// The committed schedule of a cross-region assignment, shipped back
    /// to the winning vehicle's owner.
    Commit {
        /// The vehicle with the newly committed trip on board.
        vehicle: Box<Vehicle>,
    },
}

/// One time-stamped message in flight between shards.
#[derive(Debug)]
pub struct Envelope {
    /// Tick (barrier index) at which the message was sent.
    pub tick: u64,
    /// Sending shard.
    pub from: u16,
    /// Global send sequence number — the total-order tie-breaker.
    pub seq: u64,
    /// Payload.
    pub msg: ShardMessage,
}

/// Per-destination FIFO queues of time-stamped envelopes.
///
/// Sends are stamped with `(tick, from, seq)`; [`ShardBroker::drain`]
/// returns a destination's pending messages sorted by that stamp, so the
/// delivery order is a pure function of the send order — which is itself
/// deterministic — and never of any map iteration or thread schedule.
#[derive(Debug)]
pub struct ShardBroker {
    queues: Vec<VecDeque<Envelope>>,
    seq: u64,
}

impl ShardBroker {
    /// A broker serving `shards` destinations.
    pub fn new(shards: usize) -> Self {
        ShardBroker {
            queues: (0..shards).map(|_| VecDeque::new()).collect(),
            seq: 0,
        }
    }

    /// Enqueues `msg` for shard `to`, stamped `(tick, from, seq)`.
    pub fn send(&mut self, to: u16, tick: u64, from: u16, msg: ShardMessage) {
        let seq = self.seq;
        self.seq += 1;
        self.queues[to as usize].push_back(Envelope {
            tick,
            from,
            seq,
            msg,
        });
    }

    /// Removes and returns every message pending for `to`, in
    /// `(tick, from, seq)` order.
    pub fn drain(&mut self, to: u16) -> Vec<Envelope> {
        let mut out: Vec<Envelope> = self.queues[to as usize].drain(..).collect();
        out.sort_by_key(|e| (e.tick, e.from, e.seq));
        out
    }

    /// Number of messages currently queued across all destinations.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }
}

/// Broker traffic counters, exposed for benches and tests to prove the
/// sharded machinery is actually exercised.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardNetStats {
    /// Vehicles that changed owning shard at a tick barrier.
    pub migrations: u64,
    /// Remote candidate copies lent across shards for evaluation.
    pub borrows: u64,
    /// Assignments whose winning vehicle lived in another shard.
    pub cross_commits: u64,
    /// Requests whose whole candidate set was local to the owning shard.
    pub local_requests: u64,
    /// Requests that needed at least one remote candidate.
    pub boundary_requests: u64,
}

/// One region's worth of simulation state: the vehicles currently inside
/// the region (sorted by id), their motions, and the region's dispatcher.
struct Shard {
    region: u16,
    dispatcher: Dispatcher,
    vehicles: Vec<Vehicle>,
    motions: Vec<Motion>,
}

impl Shard {
    fn pos_of(&self, vid: u32) -> Option<usize> {
        self.vehicles.binary_search_by_key(&vid, |v| v.id()).ok()
    }

    /// Advances every owned vehicle, returning `(vehicle id, outcome)`
    /// pairs. Pure per-vehicle work — the parallel arm fans shards out
    /// across threads.
    fn advance(
        &mut self,
        graph: &RoadNetwork,
        oracle: &dyn DistanceOracle,
        cruise: bool,
        until_m: f64,
    ) -> Vec<(u32, AdvanceOutcome)> {
        self.vehicles
            .iter_mut()
            .zip(self.motions.iter_mut())
            .map(|(v, m)| (v.id(), advance_one(v, m, graph, oracle, cruise, until_m)))
            .collect()
    }

    fn insert(&mut self, vehicle: Vehicle, motion: Motion) {
        let pos = self
            .vehicles
            .binary_search_by_key(&vehicle.id(), |v| v.id())
            .unwrap_err();
        self.vehicles.insert(pos, vehicle);
        self.motions.insert(pos, motion);
    }

    fn remove(&mut self, pos: usize) -> (Vehicle, Motion) {
        (self.vehicles.remove(pos), self.motions.remove(pos))
    }
}

/// The sharded counterpart of [`Simulation`]: same configuration, same
/// workload, same observable results, but the fleet is partitioned by
/// city region and all cross-region traffic flows through a
/// [`ShardBroker`].
///
/// ```
/// use rideshare_sim::{ShardedSimulation, SimConfig, Simulation};
/// use rideshare_workload::{CityConfig, DemandConfig, Workload};
/// use roadnet::{CachedOracle, PartitionSpec};
///
/// let w = Workload::generate(
///     &CityConfig::small(),
///     &DemandConfig { trips: 20, ..DemandConfig::default() },
///     1,
/// );
/// let oracle = CachedOracle::without_labels(&w.network);
/// let config = SimConfig { vehicles: 8, ..SimConfig::default() };
///
/// let mut single = Simulation::new(&w.network, &oracle, config);
/// let expect = single.run(&w.trips);
///
/// let partition = PartitionSpec::grow(&w.network, 4);
/// let mut sharded = ShardedSimulation::new(&w.network, &oracle, partition, config);
/// let got = sharded.run(&w.trips);
/// assert_eq!(got.assigned, expect.assigned);
/// assert_eq!(got.fleet_distance_km.to_bits(), expect.fleet_distance_km.to_bits());
/// ```
///
/// [`Simulation`]: crate::Simulation
pub struct ShardedSimulation<'a> {
    graph: &'a RoadNetwork,
    oracle: &'a dyn DistanceOracle,
    par_oracle: Option<&'a (dyn DistanceOracle + Sync)>,
    config: SimConfig,
    partition: PartitionSpec,
    shards: Vec<Shard>,
    broker: ShardBroker,
    /// Owning shard of each vehicle id.
    owner_of: Vec<u16>,
    /// Global spatial index over the whole fleet — candidate filtering is
    /// partition-independent by construction.
    index: GridIndex,
    pool: WorkPool,
    clock_m: f64,
    tick: u64,
    pub(crate) collector: MetricsCollector,
    pub(crate) records: BTreeMap<TripId, TripRecord>,
    pub(crate) trace: TraceLog,
    /// Statistics restored from a checkpoint (merged into reports).
    pub(crate) carried_stats: DispatchStats,
    net: ShardNetStats,
    verify_invariants: bool,
}

impl<'a> ShardedSimulation<'a> {
    /// Creates a sharded simulation over `partition`. Fleet placement is
    /// identical to [`Simulation::new`] (same seed, same RNG sequence);
    /// vehicles are then scattered to the shard owning their start node.
    ///
    /// # Panics
    /// Panics when [`SimConfig::workers`] is greater than 1 — use
    /// [`ShardedSimulation::with_parallel`] with a `Sync` oracle.
    ///
    /// [`Simulation::new`]: crate::Simulation::new
    pub fn new(
        graph: &'a RoadNetwork,
        oracle: &'a dyn DistanceOracle,
        partition: PartitionSpec,
        config: SimConfig,
    ) -> Self {
        Self::build(graph, oracle, None, partition, config)
    }

    /// Creates a sharded simulation whose movement phase fans shards out
    /// across [`SimConfig::workers`] threads (each shard is advanced in
    /// isolation; results are bit-identical at any worker count).
    pub fn with_parallel(
        graph: &'a RoadNetwork,
        oracle: &'a (dyn DistanceOracle + Sync),
        partition: PartitionSpec,
        config: SimConfig,
    ) -> Self {
        Self::build(graph, oracle, Some(oracle), partition, config)
    }

    fn build(
        graph: &'a RoadNetwork,
        oracle: &'a dyn DistanceOracle,
        par_oracle: Option<&'a (dyn DistanceOracle + Sync)>,
        partition: PartitionSpec,
        config: SimConfig,
    ) -> Self {
        assert!(
            par_oracle.is_some() || config.workers <= 1,
            "SimConfig::workers = {} has no effect through ShardedSimulation::new; \
             use ShardedSimulation::with_parallel with a Sync oracle",
            config.workers
        );
        // Replay Simulation::build's placement RNG exactly, then scatter.
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut index = GridIndex::new(config.grid_cell_meters.max(1.0));
        let mut shards: Vec<Shard> = (0..partition.regions())
            .map(|r| Shard {
                region: r as u16,
                dispatcher: Dispatcher::new(config.dispatcher),
                vehicles: Vec::new(),
                motions: Vec::new(),
            })
            .collect();
        let mut owner_of = Vec::with_capacity(config.vehicles);
        let n = graph.node_count() as u64;
        for id in 0..config.vehicles as u32 {
            let start = (rng.gen::<u64>() % n) as NodeId;
            let v = Vehicle::new(id, start, config.capacity, config.planner, 0.0);
            let p = graph.point(start);
            index.insert(id, Position::new(p.x, p.y));
            let stream = config
                .seed
                .wrapping_add((id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let region = partition.region_of(start);
            owner_of.push(region);
            shards[region as usize].vehicles.push(v);
            shards[region as usize]
                .motions
                .push(Motion::parked_at(start, StdRng::seed_from_u64(stream)));
        }
        let broker = ShardBroker::new(shards.len());
        ShardedSimulation {
            graph,
            oracle,
            par_oracle,
            config,
            partition,
            shards,
            broker,
            owner_of,
            index,
            pool: movement_pool(config.workers),
            clock_m: 0.0,
            tick: 0,
            collector: MetricsCollector::default(),
            records: BTreeMap::new(),
            trace: TraceLog::new(),
            carried_stats: DispatchStats::default(),
            net: ShardNetStats::default(),
            verify_invariants: false,
        }
    }

    /// The partition this engine runs under.
    pub fn partition(&self) -> &PartitionSpec {
        &self.partition
    }

    /// The configuration this simulation runs with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Per-request lifecycle traces collected so far.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Broker traffic counters (migrations, borrows, cross-region
    /// commits).
    pub fn net_stats(&self) -> ShardNetStats {
        self.net
    }

    /// Current simulated clock, in seconds.
    pub fn clock_seconds(&self) -> f64 {
        self.config.meters_to_seconds(self.clock_m)
    }

    /// Merged dispatcher statistics across every shard (plus any carried
    /// over from a checkpoint).
    pub fn dispatch_stats(&self) -> DispatchStats {
        let mut stats = self.carried_stats.clone();
        for s in &self.shards {
            stats.merge(s.dispatcher.stats());
        }
        stats
    }

    /// The fleet, assembled across shards in ascending vehicle-id order.
    pub fn vehicles(&self) -> Vec<&Vehicle> {
        let mut all: Vec<&Vehicle> = self.shards.iter().flat_map(|s| &s.vehicles).collect();
        all.sort_by_key(|v| v.id());
        all
    }

    /// Enables the conservation invariant check at every tick barrier
    /// (every vehicle owned exactly once, owners consistent with the
    /// partition, broker quiescent). Tests drive runs with this on; it
    /// panics on the first violated invariant.
    pub fn set_verify_invariants(&mut self, on: bool) {
        self.verify_invariants = on;
    }

    /// Asserts the cross-shard conservation invariants. Called at every
    /// tick barrier when [`ShardedSimulation::set_verify_invariants`] is
    /// on; public so tests can probe arbitrary points.
    ///
    /// # Panics
    /// Panics when any invariant is violated.
    pub fn check_invariants(&self) {
        let mut seen = vec![0u32; self.config.vehicles];
        for (si, s) in self.shards.iter().enumerate() {
            assert_eq!(s.region as usize, si, "shard {si} region mislabelled");
            assert_eq!(
                s.vehicles.len(),
                s.motions.len(),
                "shard {si} vehicles/motions misaligned"
            );
            let mut prev: Option<u32> = None;
            for (v, m) in s.vehicles.iter().zip(&s.motions) {
                let vid = v.id();
                seen[vid as usize] += 1;
                assert_eq!(
                    self.owner_of[vid as usize] as usize, si,
                    "vehicle {vid} owner table disagrees with shard {si}"
                );
                assert_eq!(
                    self.partition.region_of(m.at),
                    s.region,
                    "vehicle {vid} at node {} belongs to region {} but is owned by shard {si}",
                    m.at,
                    self.partition.region_of(m.at)
                );
                assert!(
                    prev.is_none_or(|p| p < vid),
                    "shard {si} vehicles out of id order"
                );
                prev = Some(vid);
            }
        }
        for (vid, &count) in seen.iter().enumerate() {
            assert_eq!(count, 1, "vehicle {vid} owned {count} times across shards");
        }
        assert_eq!(self.broker.pending(), 0, "broker not quiescent at barrier");
        assert_eq!(
            self.records.len(),
            self.trace.len(),
            "request records and trace disagree"
        );
    }

    /// Runs the full workload — the sharded mirror of
    /// [`Simulation::run`](crate::Simulation::run): same per-request /
    /// batched-window structure, same drain.
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

    /// Advances every shard's fleet to absolute clock `until_m`, then runs
    /// the tick barrier: movement outcomes are reconciled in global
    /// vehicle-id order and vehicles that crossed a region boundary are
    /// migrated through the broker in `(tick, shard, seq)` order.
    pub fn advance_all(&mut self, until_m: f64) {
        let until_m = until_m.max(self.clock_m);
        let graph = self.graph;
        let cruise = self.config.cruise_when_idle;
        // Movement phase: each shard advances its own fleet in isolation.
        let mut outcomes: Vec<(u32, AdvanceOutcome)> =
            match (self.par_oracle, self.config.workers > 1) {
                (Some(oracle), true) => {
                    let mut lanes = vec![(); self.shards.len()];
                    self.pool
                        .zip_chunks_mut(&mut self.shards, &mut lanes, |_, _, shards, _| {
                            shards
                                .iter_mut()
                                .flat_map(|s| s.advance(graph, oracle, cruise, until_m))
                                .collect::<Vec<_>>()
                        })
                        .into_iter()
                        .flatten()
                        .collect()
                }
                _ => {
                    let oracle = self.oracle;
                    self.shards
                        .iter_mut()
                        .flat_map(|s| s.advance(graph, oracle, cruise, until_m))
                        .collect()
                }
            };
        // Barrier, part 1 — reconcile: apply observable effects in global
        // vehicle-id order, exactly as the single-shard engine does.
        outcomes.sort_unstable_by_key(|&(vid, _)| vid);
        for (vid, outcome) in &outcomes {
            apply_outcome_to(
                self.graph,
                &self.config,
                &mut self.index,
                &mut self.collector,
                &mut self.records,
                &mut self.trace,
                *vid,
                outcome,
            );
        }
        self.clock_m = until_m;
        // Barrier, part 2 — migrate: ship every vehicle whose position
        // left its owner's region, then drain per destination in
        // (tick, shard, seq) order.
        for si in 0..self.shards.len() {
            let mut pos = 0;
            while pos < self.shards[si].vehicles.len() {
                let region = self.partition.region_of(self.shards[si].motions[pos].at);
                if region as usize == si {
                    pos += 1;
                    continue;
                }
                let (vehicle, motion) = self.shards[si].remove(pos);
                self.broker.send(
                    region,
                    self.tick,
                    si as u16,
                    ShardMessage::Migrate {
                        vehicle: Box::new(vehicle),
                        motion: Box::new(motion),
                    },
                );
            }
        }
        for si in 0..self.shards.len() {
            for env in self.broker.drain(si as u16) {
                let ShardMessage::Migrate { vehicle, motion } = env.msg else {
                    panic!("only migrations cross a tick barrier");
                };
                self.net.migrations += 1;
                self.owner_of[vehicle.id() as usize] = si as u16;
                self.shards[si].insert(*vehicle, *motion);
            }
        }
        self.tick += 1;
        if self.verify_invariants {
            self.check_invariants();
        }
    }

    /// Submits a single request at the current clock — the sharded mirror
    /// of [`Simulation::submit`](crate::Simulation::submit). The request
    /// is owned by the shard whose region contains the pickup node.
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
        let owner = self.partition.region_of(trip.source) as usize;
        let candidates = self.shards[owner].dispatcher.candidates(
            &request,
            self.graph,
            &mut self.index,
            self.config.vehicles,
        );
        self.sync_candidates(&candidates);
        let outcome = self.dispatch_on(owner, &request, &candidates);
        self.trace.push(RequestTrace::submitted(
            trip.id,
            self.config.meters_to_seconds(self.clock_m),
            direct,
            candidates.len(),
        ));
        if let AssignmentOutcome::Assigned { vehicle, cost, .. } = outcome {
            self.trace.record_assignment(trip.id, vehicle, cost);
            self.replan(vehicle);
        }
        outcome
    }

    /// Submits one dispatch window's worth of requests — the sharded
    /// mirror of [`Simulation::submit_batch`](crate::Simulation::submit_batch):
    /// same per-trip submission times, one position sync over the union of
    /// candidate sets, requests dispatched in slice order.
    pub fn submit_batch(&mut self, trips: &[TripEvent]) -> Vec<AssignmentOutcome> {
        if trips.is_empty() {
            return Vec::new();
        }
        let mut requests = Vec::with_capacity(trips.len());
        let mut directs = Vec::with_capacity(trips.len());
        let mut owners = Vec::with_capacity(trips.len());
        let mut candidate_sets = Vec::with_capacity(trips.len());
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
            let owner = self.partition.region_of(trip.source) as usize;
            let candidates = self.shards[owner].dispatcher.candidates(
                &request,
                self.graph,
                &mut self.index,
                self.config.vehicles,
            );
            to_sync.extend(candidates.iter().copied());
            owners.push(owner);
            candidate_sets.push(candidates);
            requests.push(request);
            directs.push(direct);
        }
        to_sync.sort_unstable();
        to_sync.dedup();
        self.sync_candidates(&to_sync);
        let outcomes: Vec<AssignmentOutcome> = requests
            .iter()
            .zip(&owners)
            .zip(&candidate_sets)
            .map(|((request, &owner), candidates)| self.dispatch_on(owner, request, candidates))
            .collect();
        for (((trip, outcome), direct), candidates) in trips
            .iter()
            .zip(&outcomes)
            .zip(&directs)
            .zip(&candidate_sets)
        {
            self.trace.push(RequestTrace::submitted(
                trip.id,
                trip.time_seconds,
                *direct,
                candidates.len(),
            ));
            if let AssignmentOutcome::Assigned { vehicle, cost, .. } = *outcome {
                self.trace.record_assignment(trip.id, vehicle, cost);
                self.replan(vehicle);
            }
        }
        outcomes
    }

    /// Moves every candidate vehicle to its effective position, mutating
    /// it inside its owning shard (mirrors the single-shard sync).
    fn sync_candidates(&mut self, candidates: &[u32]) {
        for &vid in candidates {
            let s = self.owner_of[vid as usize] as usize;
            let shard = &mut self.shards[s];
            let pos = shard.pos_of(vid).expect("owner table is consistent");
            let (node, clock) = effective_position(&shard.motions[pos], self.clock_m);
            shard.vehicles[pos].set_position(node, clock, self.oracle);
        }
    }

    /// Dispatches one request on its owning shard. When every candidate is
    /// local the owner's dispatcher runs directly over its own fleet slice
    /// (the common, zero-copy case a good partition maximises); otherwise
    /// remote candidates are borrowed through the broker, evaluated, and
    /// the winner's committed schedule shipped home.
    fn dispatch_on(
        &mut self,
        owner: usize,
        request: &TripRequest,
        candidates: &[u32],
    ) -> AssignmentOutcome {
        let all_local = candidates
            .iter()
            .all(|&vid| self.owner_of[vid as usize] as usize == owner);
        if all_local {
            self.net.local_requests += 1;
            let shard = &mut self.shards[owner];
            return shard.dispatcher.assign(
                request,
                &mut shard.vehicles,
                self.graph,
                &mut self.index,
                self.oracle,
            );
        }
        self.net.boundary_requests += 1;
        // Borrow remote candidates through the broker.
        for &vid in candidates {
            let s = self.owner_of[vid as usize] as usize;
            if s == owner {
                continue;
            }
            let pos = self.shards[s].pos_of(vid).expect("owner table consistent");
            let copy = self.shards[s].vehicles[pos].clone();
            self.broker.send(
                owner as u16,
                self.tick,
                s as u16,
                ShardMessage::Borrow {
                    vehicle: Box::new(copy),
                },
            );
        }
        let mut eval: Vec<Vehicle> = candidates
            .iter()
            .filter(|&&vid| self.owner_of[vid as usize] as usize == owner)
            .map(|&vid| {
                let pos = self.shards[owner].pos_of(vid).expect("owner consistent");
                self.shards[owner].vehicles[pos].clone()
            })
            .collect();
        for env in self.broker.drain(owner as u16) {
            let ShardMessage::Borrow { vehicle } = env.msg else {
                panic!("only borrows are pending at a dispatch point");
            };
            self.net.borrows += 1;
            eval.push(*vehicle);
        }
        eval.sort_by_key(|v| v.id());
        let shard = &mut self.shards[owner];
        let outcome =
            shard
                .dispatcher
                .assign(request, &mut eval, self.graph, &mut self.index, self.oracle);
        if let AssignmentOutcome::Assigned { vehicle: vid, .. } = outcome {
            let pos = eval
                .iter()
                .position(|v| v.id() == vid)
                .expect("winner came from the eval set");
            let updated = eval.swap_remove(pos);
            let home = self.owner_of[vid as usize] as usize;
            if home == owner {
                let pos = self.shards[home].pos_of(vid).expect("owner consistent");
                self.shards[home].vehicles[pos] = updated;
            } else {
                // Cross-region trip: ship the committed schedule home.
                self.broker.send(
                    home as u16,
                    self.tick,
                    owner as u16,
                    ShardMessage::Commit {
                        vehicle: Box::new(updated),
                    },
                );
                for env in self.broker.drain(home as u16) {
                    let ShardMessage::Commit { vehicle } = env.msg else {
                        panic!("only commits are pending at a commit point");
                    };
                    self.net.cross_commits += 1;
                    let pos = self.shards[home]
                        .pos_of(vehicle.id())
                        .expect("owner consistent");
                    self.shards[home].vehicles[pos] = *vehicle;
                }
            }
        }
        outcome
    }

    /// Reconciles the winning vehicle's motion with its new schedule, in
    /// its owning shard.
    fn replan(&mut self, vid: u32) {
        let s = self.owner_of[vid as usize] as usize;
        let pos = self.shards[s].pos_of(vid).expect("owner consistent");
        replan_after_assignment(&mut self.shards[s].motions[pos], self.clock_m);
    }

    /// Runs the fleet until every committed stop has been served (same
    /// four-hour horizon and stepping as the single-shard drain).
    pub fn drain(&mut self) {
        let horizon = self.clock_m + self.config.seconds_to_meters(4.0 * 3_600.0);
        let step = self.config.seconds_to_meters(300.0);
        while self.clock_m < horizon {
            let busy = self
                .shards
                .iter()
                .any(|s| s.vehicles.iter().any(|v| v.next_stop().is_some()));
            if !busy {
                break;
            }
            let next = (self.clock_m + step).min(horizon);
            self.advance_all(next);
        }
    }

    /// Builds the final report — same formula as the single-shard
    /// [`Simulation::report`](crate::Simulation::report), over the merged
    /// shard statistics.
    pub fn report(&self) -> SimReport {
        let d = self.dispatch_stats();
        let occ = self.collector.occupancy(self.config.vehicles);
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

    /// Access for the checkpoint layer: fleet and motions assembled in
    /// ascending vehicle-id order.
    pub(crate) fn ordered_state(&self) -> (Vec<&Vehicle>, Vec<&Motion>) {
        let mut pairs: Vec<(&Vehicle, &Motion)> = self
            .shards
            .iter()
            .flat_map(|s| s.vehicles.iter().zip(&s.motions))
            .collect();
        pairs.sort_by_key(|(v, _)| v.id());
        pairs.into_iter().unzip()
    }

    /// Checkpoint restore: replaces the whole fleet state, re-scattering
    /// vehicles to shards by their restored position. Used by the resume
    /// path; also how a checkpoint taken under a *different* partition
    /// (or by the single-shard engine) adapts — ownership is derived
    /// state, not part of the snapshot.
    pub(crate) fn adopt_fleet(&mut self, vehicles: Vec<Vehicle>, motions: Vec<Motion>) {
        for s in &mut self.shards {
            s.vehicles.clear();
            s.motions.clear();
        }
        let mut index = GridIndex::new(self.config.grid_cell_meters.max(1.0));
        for (v, m) in vehicles.into_iter().zip(motions) {
            let p = self.graph.point(m.at);
            index.insert(v.id(), Position::new(p.x, p.y));
            let region = self.partition.region_of(m.at);
            self.owner_of[v.id() as usize] = region;
            self.shards[region as usize].vehicles.push(v);
            self.shards[region as usize].motions.push(m);
        }
        self.index = index;
    }

    pub(crate) fn set_clock_m(&mut self, clock_m: f64) {
        self.clock_m = clock_m;
    }

    pub(crate) fn clock_m(&self) -> f64 {
        self.clock_m
    }

    pub(crate) fn graph(&self) -> &'a RoadNetwork {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinetic_core::{KineticConfig, PlannerKind};
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

    fn observables(report: &SimReport) -> Vec<u64> {
        vec![
            report.requests,
            report.assigned,
            report.rejected,
            report.completed,
            report.guarantee_violations,
            report.mean_wait_seconds.to_bits(),
            report.mean_detour_ratio.to_bits(),
            report.fleet_distance_km.to_bits(),
            report.distance_per_delivery_km.to_bits(),
            report.mean_candidates.to_bits(),
            report.span_seconds.to_bits(),
            report.occupancy.fleet_max as u64,
            report.occupancy.mean_of_max.to_bits(),
        ]
    }

    #[test]
    fn sharded_run_matches_single_shard_bit_for_bit() {
        let w = small_workload(60, 21);
        let oracle = CachedOracle::without_labels(&w.network);
        let config = SimConfig {
            vehicles: 14,
            seed: 5,
            cruise_when_idle: true,
            planner: PlannerKind::Kinetic(KineticConfig::slack()),
            ..SimConfig::default()
        };
        let mut single = crate::Simulation::new(&w.network, &oracle, config);
        let expect = single.run(&w.trips);
        let expect_trace: Vec<RequestTrace> = single.trace().iter().copied().collect();
        let expect_locs: Vec<u32> = single.vehicles().iter().map(|v| v.location()).collect();

        for k in [1usize, 2, 4, 8] {
            let partition = PartitionSpec::grow(&w.network, k);
            let mut sharded = ShardedSimulation::new(&w.network, &oracle, partition, config);
            sharded.set_verify_invariants(true);
            let got = sharded.run(&w.trips);
            assert_eq!(observables(&got), observables(&expect), "k = {k}");
            let trace: Vec<RequestTrace> = sharded.trace().iter().copied().collect();
            assert_eq!(trace, expect_trace, "k = {k}");
            let locs: Vec<u32> = sharded.vehicles().iter().map(|v| v.location()).collect();
            assert_eq!(locs, expect_locs, "k = {k}");
        }
    }

    #[test]
    fn broker_machinery_is_actually_exercised() {
        // Cruising moves vehicles across regions; a multi-region partition
        // on a small city must produce migrations, and dispatch must see
        // at least one boundary request.
        let w = small_workload(80, 3);
        let oracle = CachedOracle::without_labels(&w.network);
        let config = SimConfig {
            vehicles: 16,
            seed: 11,
            cruise_when_idle: true,
            ..SimConfig::default()
        };
        let partition = PartitionSpec::grow(&w.network, 4);
        let mut sharded = ShardedSimulation::new(&w.network, &oracle, partition, config);
        sharded.set_verify_invariants(true);
        sharded.run(&w.trips);
        let net = sharded.net_stats();
        assert!(
            net.migrations > 0,
            "no vehicle ever changed shards: {net:?}"
        );
        assert!(
            net.boundary_requests > 0,
            "no request ever spanned shards: {net:?}"
        );
        assert!(net.borrows > 0, "boundary requests must borrow: {net:?}");
        assert_eq!(
            net.local_requests + net.boundary_requests,
            sharded.dispatch_stats().requests
        );
    }

    #[test]
    fn batched_windows_match_single_shard() {
        let w = small_workload(60, 13);
        let oracle = CachedOracle::without_labels(&w.network);
        let config = SimConfig {
            vehicles: 12,
            seed: 21,
            batch_window_seconds: 120.0,
            ..SimConfig::default()
        };
        let mut single = crate::Simulation::new(&w.network, &oracle, config);
        let expect = single.run(&w.trips);
        let expect_trace: Vec<RequestTrace> = single.trace().iter().copied().collect();
        for k in [2usize, 4] {
            let partition = PartitionSpec::grow(&w.network, k);
            let mut sharded = ShardedSimulation::new(&w.network, &oracle, partition, config);
            sharded.set_verify_invariants(true);
            let got = sharded.run(&w.trips);
            assert_eq!(observables(&got), observables(&expect), "k = {k}");
            let trace: Vec<RequestTrace> = sharded.trace().iter().copied().collect();
            assert_eq!(trace, expect_trace, "k = {k}");
        }
    }

    #[test]
    fn broker_orders_envelopes_by_tick_shard_seq() {
        let mut broker = ShardBroker::new(2);
        let v = Vehicle::new(0, 0, 4, PlannerKind::Kinetic(KineticConfig::basic()), 0.0);
        let mk = || ShardMessage::Borrow {
            vehicle: Box::new(v.clone()),
        };
        broker.send(0, 7, 1, mk());
        broker.send(0, 3, 1, mk());
        broker.send(0, 3, 0, mk());
        broker.send(1, 1, 0, mk());
        let order: Vec<(u64, u16, u64)> = broker
            .drain(0)
            .iter()
            .map(|e| (e.tick, e.from, e.seq))
            .collect();
        assert_eq!(order, vec![(3, 0, 2), (3, 1, 1), (7, 1, 0)]);
        assert_eq!(broker.pending(), 1, "shard 1's queue is untouched");
        assert_eq!(broker.drain(1).len(), 1);
        assert_eq!(broker.pending(), 0);
    }
}
