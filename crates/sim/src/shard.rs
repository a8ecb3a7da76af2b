//! Region accounting: a partition is a label on the fleet, not a second
//! engine.
//!
//! [`ShardedSimulation`] is [`Simulation`] with a `RegionLedger` switched
//! on. The ledger labels every vehicle with the region (of a
//! [`roadnet::PartitionSpec`]) holding the last vertex it reached and
//! counts, without touching a single decision, what a region-partitioned
//! deployment would have to move: vehicles that drove into another region,
//! requests whose candidates span regions, and assignments won by a
//! vehicle outside the pickup's region ([`ShardNetStats`]). The run itself
//! — candidates, assignments, report, trace — is the one engine's, bit for
//! bit, at any region count; the tests below hold that and pin the counts.

use kinetic_core::{AssignmentOutcome, DispatchStats, Vehicle};
use rideshare_workload::TripEvent;
use roadnet::{DistanceOracle, NodeId, PartitionSpec, RoadNetwork};

use crate::config::SimConfig;
use crate::engine::{Motion, Simulation};
use crate::metrics::SimReport;
use crate::trace::TraceLog;

/// Region-crossing counts of one run. A vehicle's region is that of the
/// last vertex it reached as of the latest [`Simulation::advance_all`]; a
/// request's region is that of its pickup vertex.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardNetStats {
    /// Vehicles found in another region after an `advance_all`.
    pub migrations: u64,
    /// Candidate vehicles outside their request's region, summed over all
    /// requests.
    pub borrows: u64,
    /// Assignments whose winning vehicle was outside the request's region.
    pub cross_commits: u64,
    /// Requests whose whole candidate set was inside their region.
    pub local_requests: u64,
    /// Requests with at least one candidate outside their region.
    pub boundary_requests: u64,
}

/// The per-region bookkeeping [`Simulation`] keeps when built through
/// [`ShardedSimulation`]. Write-only from the engine's side: nothing it
/// holds is read back into a decision.
pub(crate) struct RegionLedger {
    partition: PartitionSpec,
    region_of_vehicle: Vec<u16>,
    net: ShardNetStats,
}

impl RegionLedger {
    fn new(partition: PartitionSpec, motions: &[Motion]) -> Self {
        let region_of_vehicle = motions.iter().map(|m| partition.region_of(m.at)).collect();
        RegionLedger {
            partition,
            region_of_vehicle,
            net: ShardNetStats::default(),
        }
    }

    /// Classifies one request by where its candidate vehicles are.
    pub(crate) fn request(&mut self, pickup: NodeId, candidates: &[u32]) {
        let home = self.partition.region_of(pickup);
        let remote = candidates
            .iter()
            .filter(|&&vid| self.region_of_vehicle[vid as usize] != home)
            .count() as u64;
        if remote == 0 {
            self.net.local_requests += 1;
        } else {
            self.net.boundary_requests += 1;
            self.net.borrows += remote;
        }
    }

    /// Counts an assignment won from outside the request's region.
    pub(crate) fn assigned(&mut self, pickup: NodeId, winner: u32) {
        if self.region_of_vehicle[winner as usize] != self.partition.region_of(pickup) {
            self.net.cross_commits += 1;
        }
    }

    /// Relabels a vehicle that an `advance_all` left at vertex `at`.
    pub(crate) fn moved(&mut self, vehicle: u32, at: NodeId) {
        let region = self.partition.region_of(at);
        let label = &mut self.region_of_vehicle[vehicle as usize];
        if *label != region {
            *label = region;
            self.net.migrations += 1;
        }
    }
}

/// [`Simulation`] with region accounting on: same constructor arguments
/// plus a [`PartitionSpec`], same run, and [`ShardedSimulation::net_stats`]
/// on top.
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
/// let net = sharded.net_stats();
/// assert_eq!(net.local_requests + net.boundary_requests, got.requests);
/// ```
pub struct ShardedSimulation<'a>(Simulation<'a>);

impl<'a> ShardedSimulation<'a> {
    /// [`Simulation::new`] with region accounting over `partition`.
    ///
    /// # Panics
    /// Panics when `partition` was grown on a network of another size.
    pub fn new(
        graph: &'a RoadNetwork,
        oracle: &'a dyn DistanceOracle,
        partition: PartitionSpec,
        config: SimConfig,
    ) -> Self {
        Self::with_ledger(Simulation::new(graph, oracle, config), partition)
    }

    /// [`ShardedSimulation::new`]. Exists only for the frozen `benchmark/`
    /// crate, which still calls it by this name.
    pub fn with_parallel(
        graph: &'a RoadNetwork,
        oracle: &'a (dyn DistanceOracle + Sync),
        partition: PartitionSpec,
        config: SimConfig,
    ) -> Self {
        Self::new(graph, oracle, partition, config)
    }

    fn with_ledger(mut sim: Simulation<'a>, partition: PartitionSpec) -> Self {
        assert_eq!(
            partition.node_count(),
            sim.graph.node_count(),
            "partition covers {} vertices but the network has {}",
            partition.node_count(),
            sim.graph.node_count()
        );
        sim.regions = Some(RegionLedger::new(partition, &sim.motions));
        ShardedSimulation(sim)
    }

    /// The region-crossing counts so far.
    pub fn net_stats(&self) -> ShardNetStats {
        self.0
            .regions
            .as_ref()
            .expect("both constructors switch the ledger on")
            .net
    }

    /// See [`Simulation::run`].
    pub fn run(&mut self, trips: &[TripEvent]) -> SimReport {
        self.0.run(trips)
    }

    /// See [`Simulation::advance_all`].
    pub fn advance_all(&mut self, until_m: f64) {
        self.0.advance_all(until_m)
    }

    /// See [`Simulation::submit`].
    pub fn submit(&mut self, trip: &TripEvent) -> AssignmentOutcome {
        self.0.submit(trip)
    }

    /// See [`Simulation::submit_batch`].
    pub fn submit_batch(&mut self, trips: &[TripEvent]) -> Vec<AssignmentOutcome> {
        self.0.submit_batch(trips)
    }

    /// See [`Simulation::drain`].
    pub fn drain(&mut self) {
        self.0.drain()
    }

    /// See [`Simulation::report`].
    pub fn report(&self) -> SimReport {
        self.0.report()
    }

    /// See [`Simulation::trace`].
    pub fn trace(&self) -> &TraceLog {
        self.0.trace()
    }

    /// See [`Simulation::config`].
    pub fn config(&self) -> &SimConfig {
        self.0.config()
    }

    /// A copy of [`Simulation::dispatch_stats`].
    pub fn dispatch_stats(&self) -> DispatchStats {
        self.0.dispatch_stats().clone()
    }

    /// See [`Simulation::vehicles`].
    pub fn vehicles(&self) -> &[Vehicle] {
        self.0.vehicles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RequestTrace;
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
            let got = sharded.run(&w.trips);
            assert_eq!(observables(&got), observables(&expect), "k = {k}");
            let trace: Vec<RequestTrace> = sharded.trace().iter().copied().collect();
            assert_eq!(trace, expect_trace, "k = {k}");
            let locs: Vec<u32> = sharded.vehicles().iter().map(|v| v.location()).collect();
            assert_eq!(locs, expect_locs, "k = {k}");
        }
    }

    #[test]
    fn region_ledger_sees_every_kind_of_crossing() {
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
        sharded.run(&w.trips);
        let net = sharded.net_stats();
        assert!(
            net.migrations > 0,
            "no vehicle ever changed region: {net:?}"
        );
        assert!(
            net.boundary_requests > 0,
            "no request ever spanned regions: {net:?}"
        );
        assert!(net.borrows > 0, "boundary requests have remotes: {net:?}");
        assert_eq!(
            net.local_requests + net.boundary_requests,
            sharded.dispatch_stats().requests
        );
    }

    #[test]
    fn region_counts_match_the_broker_they_replaced() {
        // Literals read off the message-broker engine at the last commit
        // that had one (its `ShardNetStats` after the same runs), so the
        // ledger keeps counting what that engine moved.
        let net_of = |w: &Workload, config: SimConfig, k: usize| {
            let oracle = CachedOracle::without_labels(&w.network);
            let partition = PartitionSpec::grow(&w.network, k);
            let mut sharded = ShardedSimulation::new(&w.network, &oracle, partition, config);
            sharded.run(&w.trips);
            sharded.net_stats()
        };
        let slack = PlannerKind::Kinetic(KineticConfig::slack());
        // Cruising fleet, one `submit` per request.
        let w = small_workload(80, 3);
        let cruising = SimConfig {
            vehicles: 16,
            seed: 11,
            cruise_when_idle: true,
            planner: slack,
            ..SimConfig::default()
        };
        assert_eq!(
            net_of(&w, cruising, 4),
            ShardNetStats {
                migrations: 266,
                borrows: 960,
                cross_commits: 19,
                local_requests: 0,
                boundary_requests: 80,
            }
        );
        // One region: every request is local and nothing crosses.
        assert_eq!(
            net_of(&w, cruising, 1),
            ShardNetStats {
                local_requests: 80,
                ..ShardNetStats::default()
            }
        );
        // Parked fleet, 120 s windows through `submit_batch`.
        let parked = SimConfig {
            vehicles: 12,
            seed: 21,
            cruise_when_idle: false,
            batch_window_seconds: 120.0,
            planner: slack,
            ..SimConfig::default()
        };
        assert_eq!(
            net_of(&small_workload(60, 13), parked, 4),
            ShardNetStats {
                migrations: 56,
                borrows: 499,
                cross_commits: 15,
                local_requests: 0,
                boundary_requests: 60,
            }
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
            let got = sharded.run(&w.trips);
            assert_eq!(observables(&got), observables(&expect), "k = {k}");
            let trace: Vec<RequestTrace> = sharded.trace().iter().copied().collect();
            assert_eq!(trace, expect_trace, "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "partition covers 4 vertices but the network has 100")]
    fn partition_of_another_network_is_refused() {
        let w = small_workload(1, 1);
        let oracle = CachedOracle::without_labels(&w.network);
        let tiny = roadnet::GeneratorConfig {
            kind: roadnet::NetworkKind::Grid { rows: 2, cols: 2 },
            ..roadnet::GeneratorConfig::default()
        }
        .generate();
        let foreign = PartitionSpec::grow(&tiny, 2);
        ShardedSimulation::new(&w.network, &oracle, foreign, SimConfig::default());
    }
}
