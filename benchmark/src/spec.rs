//! The four workloads and their set-up.
//!
//! Sizes are fixed here, not on the command line: a number measured under
//! one size is not comparable with one measured under another. `--seed`
//! draws the demand and the fleet's starting positions; the city is a
//! fixed map ([`CITY_SEED`]).

use std::time::Instant;

use kinetic_core::{Constraints, KineticConfig, PlannerKind};
use rideshare_sim::{SimConfig, Simulation};
use rideshare_workload::{CityConfig, DemandConfig, TemporalProfile, TripEvent, Workload};
use roadnet::{CachedOracle, DistanceOracle, HubLabels, OracleStats, RoadNetwork, ShardedOracle};

/// LRU capacities of every oracle the benchmark builds (distance, path).
/// Small enough that the sparse workload's working set does not fit.
const DISTANCE_CACHE: usize = 50_000;
const PATH_CACHE: usize = 10_000;
/// Cache shards of the thread-safe oracle.
const ORACLE_SHARDS: usize = 16;

/// Seed of the road network and its hotspots: each preset is drawn once
/// and is the same map under every `--seed`, as the paper's one Shanghai
/// network is under every day of trips. Where the hotspots fall decides
/// how deep the kinetic trees around them grow, and with the map drawn
/// from `--seed` that alone moved `replay_dense`'s `response_ms_p99` by a
/// third between seeds, far more than any change the benchmark is meant
/// to judge.
pub const CITY_SEED: u64 = 1;

/// Which city preset a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum City {
    /// `CityConfig::medium()`: 50 × 50 grid, ~2,500 intersections.
    Medium,
    /// `CityConfig::large()`: 100 × 100 grid, ~10,000 intersections.
    Large,
}

impl City {
    fn config(self) -> CityConfig {
        match self {
            City::Medium => CityConfig::medium(),
            City::Large => CityConfig::large(),
        }
    }

    /// Preset name for the run header.
    pub fn name(self) -> &'static str {
        match self {
            City::Medium => "medium",
            City::Large => "large",
        }
    }
}

/// How requests reach the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// `advance_all` + `submit` per request on the sequential engine.
    PerRequest,
    /// `advance_all` + `submit_batch` per dispatch window on
    /// `Simulation::with_parallel`.
    Batched {
        /// Dispatch window in simulated seconds.
        window_s: f64,
    },
    /// `ServeLoop::run` over `Simulation::with_parallel`, fed by Poisson
    /// arrivals in virtual time (an open loop: the schedule does not
    /// depend on how fast the dispatcher is).
    Serve {
        /// Offered rate, requests per virtual second.
        rate: f64,
        /// Virtual seconds of arrivals.
        horizon_s: f64,
    },
}

/// Worker threads of the parallel engine (both batched workloads).
pub const WORKERS: usize = 2;

/// One workload: inputs, fleet and the route into the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name on the command line and in BENCHMARK.json.
    pub name: &'static str,
    /// City preset.
    pub city: City,
    /// Trips generated (the serve workload draws its origin/destination
    /// pairs from them).
    pub trips: usize,
    /// Simulated seconds the trips are spread over, uniformly.
    pub span_s: f64,
    /// Fleet size.
    pub vehicles: usize,
    /// Whether idle vehicles cruise.
    pub cruise: bool,
    /// Route into the engine.
    pub mode: Mode,
}

/// The four workloads, in the order BENCHMARK.json lists them.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "replay_dense",
        city: City::Medium,
        trips: 1_800,
        span_s: 540.0,
        vehicles: 400,
        cruise: false,
        mode: Mode::PerRequest,
    },
    Spec {
        name: "replay_sparse",
        city: City::Large,
        trips: 3_000,
        span_s: 6.0 * 3_600.0,
        vehicles: 300,
        cruise: true,
        mode: Mode::PerRequest,
    },
    Spec {
        name: "replay_parallel",
        city: City::Large,
        trips: 1_020,
        span_s: 370.0,
        vehicles: 2_000,
        cruise: false,
        mode: Mode::Batched { window_s: 5.0 },
    },
    Spec {
        name: "serve_ticks",
        city: City::Medium,
        trips: 2_000,
        span_s: 3_600.0,
        vehicles: 800,
        cruise: false,
        mode: Mode::Serve {
            rate: 10.0,
            horizon_s: 110.0,
        },
    },
];

impl Spec {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        SPECS.iter().copied().find(|s| s.name == name)
    }

    /// The `--smoke` variant: a tenth of the requests at the same arrival
    /// rate, same city and fleet.
    pub fn smoke(mut self) -> Spec {
        self.trips = (self.trips / 10).max(20);
        match &mut self.mode {
            Mode::Serve { horizon_s, .. } => *horizon_s /= 10.0,
            _ => self.span_s /= 10.0,
        }
        self
    }

    /// Engine configuration: the paper's default guarantee (10 min wait,
    /// 20 % detour), capacity 4, slack-time kinetic trees.
    pub fn sim_config(&self, seed: u64, workers: usize) -> SimConfig {
        SimConfig {
            vehicles: self.vehicles,
            capacity: 4,
            constraints: Constraints::paper_default(),
            planner: PlannerKind::Kinetic(KineticConfig::slack()),
            cruise_when_idle: self.cruise,
            seed,
            workers,
            batch_window_seconds: match self.mode {
                Mode::Batched { window_s } => window_s,
                _ => 0.0,
            },
            ..SimConfig::default()
        }
    }

    /// True when the workload runs on the thread-safe oracle and engine.
    pub fn parallel(&self) -> bool {
        !matches!(self.mode, Mode::PerRequest)
    }

    fn generate(&self, seed: u64) -> Workload {
        let demand = DemandConfig {
            trips: self.trips,
            span_seconds: self.span_s,
            profile: TemporalProfile::uniform(),
            ..DemandConfig::default()
        };
        let (network, hotspots) = self.city.config().build(CITY_SEED);
        // Salted as `Workload::generate` does, so that `--seed 1` does not
        // replay the map's own random stream.
        let mut trips = demand.generate(&network, &hotspots, seed ^ 0x9E37_79B9_7F4A_7C15);
        if !matches!(self.mode, Mode::Serve { .. }) {
            pace_evenly(&mut trips, self.span_s);
        }
        Workload {
            network,
            hotspots,
            trips,
        }
    }
}

/// Re-times `trips` (already in submission order) to one every
/// `span_s / n` seconds. `--seed` decides what is requested and where the
/// fleet starts, not when requests arrive: with the generator's random
/// arrival times the load ramp differs from seed to seed, and on the
/// batched route the slowest batches — the tail of the response times —
/// are simply the seed's largest Poisson counts (22 to 28 requests against
/// a mean of 14). Paced evenly, every dispatch window holds the same
/// number of requests, give or take one, and ten seeds of `replay_dense`
/// agree twice as closely (README.md, "What the seed draws").
fn pace_evenly(trips: &mut [TripEvent], span_s: f64) {
    let gap = span_s / trips.len().max(1) as f64;
    for (i, trip) in trips.iter_mut().enumerate() {
        trip.time_seconds = (i as f64 + 0.5) * gap;
    }
}

/// The oracle a workload runs on: sequential for the per-request replays,
/// sharded and `Sync` for the batched routes.
pub enum Oracle<'g> {
    /// `CachedOracle` on hub labels.
    Cached(Box<CachedOracle<'g>>),
    /// 16-shard `ShardedOracle` on hub labels.
    Sharded(Box<ShardedOracle<'g>>),
}

impl<'g> Oracle<'g> {
    /// Builds the workload's oracle around `labels`; returns it with the
    /// seconds construction took (the last part of set-up).
    pub fn build(spec: &Spec, graph: &'g RoadNetwork, labels: HubLabels) -> (Self, f64) {
        seconds(|| Self::construct(spec, graph, labels))
    }

    fn construct(spec: &Spec, graph: &'g RoadNetwork, labels: HubLabels) -> Self {
        if spec.parallel() {
            Oracle::Sharded(Box::new(ShardedOracle::with_labels(
                graph,
                labels,
                ORACLE_SHARDS,
                DISTANCE_CACHE,
                PATH_CACHE,
            )))
        } else {
            Oracle::Cached(Box::new(CachedOracle::with_labels(
                graph,
                labels,
                DISTANCE_CACHE,
                PATH_CACHE,
            )))
        }
    }

    /// Empties the LRU caches and zeroes the query counters, so every
    /// pass starts from the same oracle state.
    pub fn reset(&self) {
        match self {
            Oracle::Cached(o) => {
                o.clear_caches();
                o.reset_stats();
            }
            Oracle::Sharded(o) => {
                o.clear_caches();
                o.reset_stats();
            }
        }
    }

    /// Query counters since the last reset.
    pub fn stats(&self) -> OracleStats {
        match self {
            Oracle::Cached(o) => o.stats(),
            Oracle::Sharded(o) => o.stats(),
        }
    }

    /// Handle for building engines on this oracle.
    pub fn handle(&self) -> OracleRef<'_> {
        match self {
            Oracle::Cached(o) => OracleRef::Seq(o.as_ref()),
            Oracle::Sharded(o) => OracleRef::Par(o.as_ref()),
        }
    }
}

/// A borrowed oracle, sequential or thread-safe; decides which engine
/// constructor is used.
#[derive(Clone, Copy)]
pub enum OracleRef<'a> {
    /// For `Simulation::new`.
    Seq(&'a dyn DistanceOracle),
    /// For `Simulation::with_parallel`.
    Par(&'a (dyn DistanceOracle + Sync)),
}

impl<'a> OracleRef<'a> {
    /// A fresh engine over `graph`.
    pub fn simulation(self, graph: &'a RoadNetwork, config: SimConfig) -> Simulation<'a> {
        match self {
            OracleRef::Seq(o) => Simulation::new(graph, o, config),
            OracleRef::Par(o) => Simulation::with_parallel(graph, o, config),
        }
    }

    /// The oracle as the sequential interface.
    pub fn seq(self) -> &'a dyn DistanceOracle {
        match self {
            OracleRef::Seq(o) => o,
            OracleRef::Par(o) => o,
        }
    }
}

/// Seconds each part of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `Workload::generate`: city, hotspots and trips.
    pub generate_s: f64,
    /// `HubLabels::build`.
    pub label_build_s: f64,
    /// Oracle construction around the labels (cache allocation).
    pub oracle_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.label_build_s + self.oracle_s
    }
}

fn seconds<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// What one set-up produces before the oracle, which borrows the network
/// and is therefore built by the caller with [`Oracle::build`].
pub struct Inputs {
    /// Road network, hotspots and trips.
    pub workload: Workload,
    /// Hub labels of the network.
    pub labels: HubLabels,
    /// Seconds spent so far (`oracle_s` still zero).
    pub times: SetupTimes,
}

impl Inputs {
    /// Generates the workload and builds its hub labels, in process (no
    /// on-disk label store: its warm/cold state would make set-up two
    /// different jobs).
    pub fn build(spec: &Spec, seed: u64) -> Inputs {
        let (workload, generate_s) = seconds(|| spec.generate(seed));
        let (labels, label_build_s) = seconds(|| HubLabels::build(&workload.network));
        Inputs {
            workload,
            labels,
            times: SetupTimes {
                generate_s,
                label_build_s,
                oracle_s: 0.0,
            },
        }
    }
}

/// Megabytes held by the entries of `labels`.
pub fn label_mb(labels: &HubLabels) -> f64 {
    (labels.total_label_entries() * std::mem::size_of::<roadnet::LabelEntry>()) as f64 / 1.0e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_a_tenth_of_the_requests_at_the_same_rate() {
        let spec = Spec::by_name("replay_sparse").unwrap();
        let smoke = spec.smoke();
        assert_eq!(smoke.trips, spec.trips / 10);
        assert_eq!(smoke.span_s, spec.span_s / 10.0);
        assert_eq!(smoke.vehicles, spec.vehicles);
    }

    #[test]
    fn even_pacing_fills_every_window_alike() {
        let mut trips: Vec<TripEvent> = (0..1_020)
            .map(|id| TripEvent {
                id,
                source: 0,
                destination: 1,
                time_seconds: 0.0,
            })
            .collect();
        pace_evenly(&mut trips, 370.0);
        assert!(trips
            .windows(2)
            .all(|w| w[0].time_seconds < w[1].time_seconds));
        assert!(trips[0].time_seconds > 0.0 && trips[1_019].time_seconds < 370.0);
        let mut per_window = [0usize; 74];
        for t in &trips {
            per_window[(t.time_seconds / 5.0) as usize] += 1;
        }
        assert!(
            per_window.iter().all(|&n| n == 13 || n == 14),
            "{per_window:?}"
        );
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        for s in &SPECS {
            assert_eq!(Spec::by_name(s.name).unwrap(), *s);
        }
        assert!(Spec::by_name("replay").is_none());
    }
}
