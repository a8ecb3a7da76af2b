//! Checkpoint/resume for long simulation runs.
//!
//! A paper-scale replay submits 432,327 requests over a simulated day and
//! runs for hours of wall clock; an interruption anywhere along the way
//! used to mean starting over. This module snapshots a running
//! [`Simulation`] — fleet (including every kinetic tree), motion state
//! (including each vehicle's cruising-RNG stream), dispatcher statistics,
//! service-quality metrics and the full trace — to a versioned,
//! checksummed binary file, and restores it so that the resumed run is
//! **bit-identical** to one that never stopped (property-tested in
//! `tests/proptest_checkpoint.rs`; the only fields that can differ are the
//! wall-clock latency *means*, since nanosecond timings are not a function
//! of simulation state).
//!
//! The format follows the `roadnet::io::bin` conventions: little-endian
//! scalars, length-prefixed collections, and the envelope every persisted
//! file shares (a magic/version header and a trailing FNV-1a checksum,
//! replaced on disk atomically).
//! Like a persisted label file, a checkpoint is bound to its inputs: the
//! header embeds the road network's fingerprint, a digest of the
//! [`SimConfig`] and a digest of the trip stream, and
//! [`Simulation::resume`] refuses a snapshot taken under any other
//! (network, config, workload) triple. Corrupt or truncated files always
//! surface as [`RoadNetError::Persist`], never a panic — tested at every
//! prefix length, mirroring the hub-label persistence tests.
//!
//! ```text
//! offset  field
//! 0       magic  b"RSCK"
//! 4       format version (u32, currently 6)
//! 8       network fingerprint (u64)
//! 16      SimConfig digest (u64) — excludes the unread `workers` field,
//!         so a checkpoint resumes whatever value it holds
//! 24      trip-stream digest (u64)
//! 32      next trip index (u64), clock (f64), then the state sections:
//!         vehicles, motions, dispatcher stats, metrics (pickups, detour
//!         sum, violations, deliveries, fleet distance), trace
//! end-8   FNV-1a checksum over every preceding byte
//! ```

use std::path::Path;

use kinetic_core::codec;
use kinetic_core::{DispatchStats, Vehicle};
use rand::rngs::StdRng;
use rideshare_workload::TripEvent;
use roadnet::io::bin::{self, Reader};
use roadnet::{DistanceOracle, RoadNetError, RoadNetwork};
use spatial::{GridIndex, Position};

use crate::config::SimConfig;
use crate::engine::{Motion, Simulation};
use crate::metrics::{MetricsCollector, Pickup};
use crate::trace::{RequestTrace, TraceLog};

/// File magic: "RSCK" (ridesharing checkpoint).
const MAGIC: &[u8; 4] = b"RSCK";
/// Current checkpoint format version; bump on any layout change. Version 3
/// replaced the per-trip records with the on-board riders' pickup clocks
/// and the index-aligned pickup vectors with one pickup list, and dropped
/// each vehicle's service counters. Version 4 writes each vehicle as its
/// plan alone — the solver's problem or the kinetic tree — without the
/// vehicle's copy of its position, clock and riders. Version 5 drops the
/// riders' pickup clocks: a drop-off reads them from the trace row.
/// Version 6 drops the request cap from the configuration digest and
/// always hashes the batch window.
const VERSION: u32 = 6;

/// Digest of the parts of a [`SimConfig`] that determine simulation
/// *results*. `workers` is excluded: no code reads it, and it never was
/// part of the digest, so a checkpoint written with any value resumes
/// under any other — the serve loop's recovery binding relies on that.
pub fn digest_config(config: &SimConfig) -> u64 {
    let mut buf = Vec::with_capacity(96);
    bin::put_u64(&mut buf, config.vehicles as u64);
    bin::put_u64(&mut buf, config.capacity as u64);
    bin::put_f64(&mut buf, config.constraints.max_wait);
    bin::put_f64(&mut buf, config.constraints.detour_factor);
    // Planner identity via its Debug image: covers the solver kind or the
    // full kinetic configuration, and f64 Debug formatting is the shortest
    // round-trip representation, so equal configs hash equally.
    buf.extend_from_slice(format!("{:?}", config.planner).as_bytes());
    bin::put_f64(&mut buf, config.speed_mps);
    bin::put_f64(&mut buf, config.grid_cell_meters);
    codec::put_bool(&mut buf, config.cruise_when_idle);
    bin::put_u64(&mut buf, config.seed);
    bin::put_f64(&mut buf, config.dispatcher.radius_factor);
    // Batched ticks change when vehicles move between requests, so the
    // window width is result-determining. `dispatcher.use_pruning` is
    // deliberately absent: pruned and exhaustive evaluation produce
    // bit-identical results (property-tested).
    bin::put_f64(&mut buf, config.batch_window_seconds);
    bin::fnv1a(&buf)
}

/// Digest of a trip stream: a resumed run must replay exactly the requests
/// the interrupted run would have seen.
pub fn digest_trips(trips: &[TripEvent]) -> u64 {
    let mut buf = Vec::with_capacity(TripEvent::ENCODED_BYTES * trips.len() + 8);
    bin::put_u64(&mut buf, trips.len() as u64);
    for t in trips {
        t.encode(&mut buf);
    }
    bin::fnv1a(&buf)
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    bin::put_u64(out, v as u64);
    bin::put_u64(out, (v >> 64) as u64);
}

fn read_u128(r: &mut Reader<'_>, what: &str) -> Result<u128, RoadNetError> {
    let lo = r.u64(what)? as u128;
    let hi = r.u64(what)? as u128;
    Ok(lo | (hi << 64))
}

fn put_stats(out: &mut Vec<u8>, stats: &DispatchStats) {
    bin::put_u64(out, stats.requests);
    bin::put_u64(out, stats.assigned);
    bin::put_u64(out, stats.rejected);
    bin::put_u64(out, stats.candidates);
    put_u128(out, stats.response_nanos);
    bin::put_u64(out, stats.art_buckets.len() as u64);
    for (&bucket, &(count, nanos)) in &stats.art_buckets {
        bin::put_u64(out, bucket as u64);
        bin::put_u64(out, count);
        put_u128(out, nanos);
    }
}

fn read_stats(r: &mut Reader<'_>) -> Result<DispatchStats, RoadNetError> {
    let mut stats = DispatchStats {
        requests: r.u64("stats requests")?,
        assigned: r.u64("stats assigned")?,
        rejected: r.u64("stats rejected")?,
        candidates: r.u64("stats candidates")?,
        response_nanos: read_u128(r, "stats response nanos")?,
        ..DispatchStats::default()
    };
    let buckets = codec::read_len(r, 32, "stats bucket count")?;
    for _ in 0..buckets {
        let bucket = r.u64("stats bucket key")? as usize;
        let count = r.u64("stats bucket count")?;
        let nanos = read_u128(r, "stats bucket nanos")?;
        stats.art_buckets.insert(bucket, (count, nanos));
    }
    Ok(stats)
}

impl Simulation<'_> {
    /// Serialises the complete simulation state plus the position in the
    /// trip stream (`next_trip` = number of trips already submitted).
    /// `trips_digest` is [`digest_trips`] of the stream being replayed;
    /// compute it once per run, not per checkpoint.
    pub fn checkpoint_bytes(&self, next_trip: usize, trips_digest: u64) -> Vec<u8> {
        bin::seal(MAGIC, VERSION, |out| {
            self.put_image(out, next_trip, trips_digest)
        })
    }

    /// The checkpoint body: everything between the envelope's header and
    /// its checksum.
    fn put_image(&self, out: &mut Vec<u8>, next_trip: usize, trips_digest: u64) {
        out.reserve(1 << 16);
        bin::put_u64(out, self.graph.fingerprint());
        bin::put_u64(out, digest_config(&self.config));
        bin::put_u64(out, trips_digest);
        bin::put_u64(out, next_trip as u64);
        bin::put_f64(out, self.clock_m);

        bin::put_u64(out, self.vehicles.len() as u64);
        for v in &self.vehicles {
            v.encode(out);
        }
        for m in &self.motions {
            bin::put_u32(out, m.at);
            bin::put_f64(out, m.at_clock_m);
            bin::put_f64(out, m.next_arrival_m);
            for word in m.rng.state() {
                bin::put_u64(out, word);
            }
            bin::put_u64(out, m.path.len() as u64);
            for &(node, leg) in &m.path {
                bin::put_u32(out, node);
                bin::put_f64(out, leg);
            }
        }

        put_stats(out, self.dispatcher.stats());

        let c = &self.collector;
        bin::put_u64(out, c.pickups.len() as u64);
        for p in &c.pickups {
            bin::put_u32(out, p.vehicle);
            bin::put_f64(out, p.clock_s);
            bin::put_f64(out, p.waited_s);
            bin::put_u64(out, p.onboard as u64);
        }
        bin::put_f64(out, c.detour_sum);
        bin::put_u64(out, c.guarantee_violations);
        bin::put_u64(out, c.completed);
        bin::put_f64(out, c.fleet_distance_m);

        bin::put_u64(out, self.trace.len() as u64);
        for e in self.trace.iter() {
            bin::put_u64(out, e.trip);
            bin::put_f64(out, e.submitted_s);
            codec::put_opt_u32(out, e.vehicle);
            codec::put_opt_f64(out, e.assignment_cost_m);
            bin::put_u64(out, e.candidates as u64);
            codec::put_opt_f64(out, e.picked_up_s);
            codec::put_opt_f64(out, e.delivered_s);
            bin::put_f64(out, e.direct_m);
            codec::put_opt_f64(out, e.ride_m);
        }
    }

    /// Writes [`Simulation::checkpoint_bytes`] to `path` atomically
    /// (`roadnet::io::bin::write_atomic`), so an interruption mid-write
    /// leaves the previous checkpoint intact.
    pub fn write_checkpoint<P: AsRef<Path>>(
        &self,
        path: P,
        next_trip: usize,
        trips_digest: u64,
    ) -> Result<(), RoadNetError> {
        bin::write_atomic(
            path.as_ref(),
            &self.checkpoint_bytes(next_trip, trips_digest),
        )
    }

    /// Restores a simulation from checkpoint bytes, verifying
    /// the (network, config, trip stream) binding. Returns the simulation
    /// and the index of the next trip to submit.
    ///
    /// ```
    /// use rideshare_sim::{digest_trips, SimConfig, Simulation};
    /// use rideshare_workload::{CityConfig, DemandConfig, Workload};
    /// use roadnet::CachedOracle;
    ///
    /// let w = Workload::generate(&CityConfig::small(), &DemandConfig::default(), 2);
    /// let oracle = CachedOracle::new(&w.network);
    /// let config = SimConfig { vehicles: 10, ..SimConfig::default() };
    /// let digest = digest_trips(&w.trips);
    ///
    /// // Replay half the stream, snapshot, and resume from the snapshot.
    /// let mut sim = Simulation::new(&w.network, &oracle, config);
    /// let half = w.trips.len() / 2;
    /// for trip in &w.trips[..half] {
    ///     sim.advance_all(sim.config().seconds_to_meters(trip.time_seconds));
    ///     sim.submit(trip);
    /// }
    /// let bytes = sim.checkpoint_bytes(half, digest);
    /// let (resumed, next) =
    ///     Simulation::resume(&w.network, &oracle, config, &w.trips, &bytes).unwrap();
    /// assert_eq!(next, half);
    /// // The restored engine picks up exactly where the snapshot was taken.
    /// assert_eq!(resumed.clock_seconds(), sim.clock_seconds());
    /// assert_eq!(resumed.dispatch_stats().requests, half as u64);
    /// ```
    pub fn resume<'a>(
        graph: &'a RoadNetwork,
        oracle: &'a dyn DistanceOracle,
        config: SimConfig,
        trips: &[TripEvent],
        bytes: &[u8],
    ) -> Result<(Simulation<'a>, usize), RoadNetError> {
        restore(Simulation::new(graph, oracle, config), trips, bytes)
    }

    /// Convenience wrapper: reads `path` and delegates to
    /// [`Simulation::resume`].
    pub fn resume_from_file<'a, P: AsRef<Path>>(
        graph: &'a RoadNetwork,
        oracle: &'a dyn DistanceOracle,
        config: SimConfig,
        trips: &[TripEvent],
        path: P,
    ) -> Result<(Simulation<'a>, usize), RoadNetError> {
        let bytes = std::fs::read(path)?;
        Self::resume(graph, oracle, config, trips, &bytes)
    }
}

/// Decodes `bytes` into the freshly built `sim`, replacing every piece of
/// run state. The builder placed vehicles and seeded RNG streams already;
/// all of that is overwritten, so the restored simulation continues exactly
/// where the snapshot was taken. The envelope (magic, version, checksum)
/// and the header binding (network fingerprint, config digest, trips
/// digest) are validated
/// and the whole image parsed before anything is committed.
fn restore<'a>(
    mut sim: Simulation<'a>,
    trips: &[TripEvent],
    bytes: &[u8],
) -> Result<(Simulation<'a>, usize), RoadNetError> {
    let (graph, config) = (sim.graph, sim.config);
    let mut r = bin::open(bytes, MAGIC, VERSION, "checkpoint")?;
    let fingerprint = r.u64("checkpoint network fingerprint")?;
    if fingerprint != graph.fingerprint() {
        return Err(RoadNetError::Persist(format!(
            "checkpoint was taken on a different road network: file fingerprint \
             {fingerprint:#018x}, this network is {:#018x}",
            graph.fingerprint()
        )));
    }
    let config_digest = r.u64("checkpoint config digest")?;
    if config_digest != digest_config(&config) {
        return Err(RoadNetError::Persist(
            "checkpoint was taken under a different simulation configuration".to_string(),
        ));
    }
    let trips_digest = r.u64("checkpoint trips digest")?;
    if trips_digest != digest_trips(trips) {
        return Err(RoadNetError::Persist(
            "checkpoint was taken over a different trip stream".to_string(),
        ));
    }

    let next_trip = r.u64("checkpoint next trip")? as usize;
    if next_trip > trips.len() {
        return Err(RoadNetError::Persist(format!(
            "checkpoint points at trip {next_trip} but the stream has {}",
            trips.len()
        )));
    }
    let clock_m = r.f64("checkpoint clock")?;

    let fleet = codec::read_len(&mut r, 32, "checkpoint fleet size")?;
    if fleet != config.vehicles {
        return Err(RoadNetError::Persist(format!(
            "checkpoint holds {fleet} vehicles but the configuration asks for {}",
            config.vehicles
        )));
    }
    let mut vehicles = Vec::with_capacity(fleet);
    for i in 0..fleet {
        let v = Vehicle::decode(&mut r)?;
        if v.id() as usize != i {
            return Err(RoadNetError::Persist(format!(
                "checkpoint vehicle {i} carries id {}",
                v.id()
            )));
        }
        vehicles.push(v);
    }
    let n = graph.node_count() as u32;
    let mut motions = Vec::with_capacity(fleet);
    for _ in 0..fleet {
        let at = r.u32("motion position")?;
        if at >= n {
            return Err(RoadNetError::Persist(format!(
                "motion position {at} is outside the {n}-node network"
            )));
        }
        let at_clock_m = r.f64("motion clock")?;
        let next_arrival_m = r.f64("motion next arrival")?;
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.u64("motion rng state")?;
        }
        let legs = codec::read_len(&mut r, 12, "motion path length")?;
        let mut path = std::collections::VecDeque::with_capacity(legs);
        for _ in 0..legs {
            let node = r.u32("motion path node")?;
            if node >= n {
                return Err(RoadNetError::Persist(format!(
                    "motion path node {node} is outside the {n}-node network"
                )));
            }
            let leg = r.f64("motion path leg")?;
            path.push_back((node, leg));
        }
        motions.push(Motion {
            path,
            next_arrival_m,
            at,
            at_clock_m,
            rng: StdRng::from_state(state),
        });
    }

    let stats = read_stats(&mut r)?;

    let pickup_count = codec::read_len(&mut r, 28, "metrics pickup count")?;
    let mut pickups = Vec::with_capacity(pickup_count);
    for _ in 0..pickup_count {
        pickups.push(Pickup {
            vehicle: r.u32("metrics pickup vehicle")?,
            clock_s: r.f64("metrics pickup clock")?,
            waited_s: r.f64("metrics pickup wait")?,
            onboard: r.u64("metrics pickup onboard")? as usize,
        });
    }
    let detour_sum = r.f64("metrics detour sum")?;
    let guarantee_violations = r.u64("metrics violations")?;
    let completed = r.u64("metrics completed")?;
    let fleet_distance_m = r.f64("metrics fleet distance")?;

    let trace_count = codec::read_len(&mut r, 35, "trace count")?;
    let mut trace = TraceLog::new();
    for _ in 0..trace_count {
        let entry = RequestTrace {
            trip: r.u64("trace trip")?,
            submitted_s: r.f64("trace submitted")?,
            vehicle: codec::read_opt_u32(&mut r, "trace vehicle")?,
            assignment_cost_m: codec::read_opt_f64(&mut r, "trace cost")?,
            candidates: r.u64("trace candidates")? as usize,
            picked_up_s: codec::read_opt_f64(&mut r, "trace pickup")?,
            delivered_s: codec::read_opt_f64(&mut r, "trace delivery")?,
            direct_m: r.f64("trace direct")?,
            ride_m: codec::read_opt_f64(&mut r, "trace ride")?,
        };
        trace.push(entry);
    }
    if r.remaining() != 0 {
        return Err(RoadNetError::Persist(format!(
            "checkpoint has {} trailing bytes after the last section",
            r.remaining()
        )));
    }

    // Everything parsed; commit the state. The spatial index is derived
    // state: each vehicle is indexed at the last vertex it reached.
    let mut index = GridIndex::new(config.grid_cell_meters.max(1.0));
    for (vid, m) in motions.iter().enumerate() {
        let p = graph.point(m.at);
        index.insert(vid as u32, Position::new(p.x, p.y));
    }
    sim.clock_m = clock_m;
    sim.vehicles = vehicles;
    sim.motions = motions;
    sim.index = index;
    sim.dispatcher.set_stats(stats);
    sim.collector = MetricsCollector {
        pickups,
        detour_sum,
        guarantee_violations,
        completed,
        fleet_distance_m,
    };
    sim.trace = trace;
    Ok((sim, next_trip))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinetic_core::{KineticConfig, PlannerKind};
    use rideshare_workload::{CityConfig, DemandConfig, Workload};
    use roadnet::CachedOracle;

    fn workload(trips: usize, seed: u64) -> Workload {
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

    fn config() -> SimConfig {
        SimConfig {
            vehicles: 12,
            seed: 5,
            planner: PlannerKind::Kinetic(KineticConfig::slack()),
            cruise_when_idle: true,
            ..SimConfig::default()
        }
    }

    /// Submits each of `trips` at its own time, advancing the fleet to it
    /// first as [`Simulation::run`] does.
    fn replay(sim: &mut Simulation<'_>, trips: &[TripEvent]) {
        for trip in trips {
            sim.advance_all(sim.config().seconds_to_meters(trip.time_seconds));
            sim.submit(trip);
        }
    }

    /// Submits `trips[from..]` as [`replay`] does, then drains.
    fn run_tail(sim: &mut Simulation<'_>, trips: &[TripEvent], from: usize) {
        replay(sim, &trips[from..]);
        sim.drain();
    }

    /// Deterministic observable state of a finished run: the full report
    /// minus its wall-clock latency means, the trace, and the fleet's
    /// final geometry.
    fn observables(sim: &Simulation<'_>) -> (Vec<String>, Vec<RequestTrace>, Vec<u32>) {
        let report = sim.report();
        let fields = vec![
            format!("requests={}", report.requests),
            format!("assigned={}", report.assigned),
            format!("rejected={}", report.rejected),
            format!("completed={}", report.completed),
            format!("violations={}", report.guarantee_violations),
            format!("wait={:?}", report.mean_wait_seconds.to_bits()),
            format!("detour={:?}", report.mean_detour_ratio.to_bits()),
            format!("dist={:?}", report.fleet_distance_km.to_bits()),
            format!(
                "per_delivery={:?}",
                report.distance_per_delivery_km.to_bits()
            ),
            format!("occ={:?}", report.occupancy),
            format!("cand={:?}", report.mean_candidates.to_bits()),
            format!("span={:?}", report.span_seconds.to_bits()),
            format!(
                "art_counts={:?}",
                report
                    .art_table
                    .iter()
                    .map(|&(k, c, _)| (k, c))
                    .collect::<Vec<_>>()
            ),
        ];
        let trace = sim.trace().iter().copied().collect();
        let locations = sim.vehicles().iter().map(|v| v.location()).collect();
        (fields, trace, locations)
    }

    #[test]
    fn resume_matches_straight_through_run() {
        let w = workload(60, 9);
        let digest = digest_trips(&w.trips);
        let oracle = CachedOracle::new(&w.network);

        let mut straight = Simulation::new(&w.network, &oracle, config());
        run_tail(&mut straight, &w.trips, 0);
        let expect = observables(&straight);

        for cut in [1usize, 17, 30, 59] {
            let mut first = Simulation::new(&w.network, &oracle, config());
            replay(&mut first, &w.trips[..cut]);
            let bytes = first.checkpoint_bytes(cut, digest);
            drop(first);
            let (mut resumed, next) =
                Simulation::resume(&w.network, &oracle, config(), &w.trips, &bytes).unwrap();
            assert_eq!(next, cut);
            run_tail(&mut resumed, &w.trips, next);
            let got = observables(&resumed);
            assert_eq!(got.0, expect.0, "report diverged after resume at {cut}");
            assert_eq!(got.1, expect.1, "trace diverged after resume at {cut}");
            assert_eq!(got.2, expect.2, "fleet diverged after resume at {cut}");
        }
    }

    #[test]
    fn sequential_checkpoint_resumes_on_the_parallel_engine() {
        // `benchmark/` still asks for a parallel engine by setting
        // `workers`; no code reads it, so a checkpoint written at one
        // worker resumes under four and finishes the straight-through run.
        let w = workload(40, 3);
        let digest = digest_trips(&w.trips);
        let oracle = CachedOracle::new(&w.network);
        let mut straight = Simulation::new(&w.network, &oracle, config());
        run_tail(&mut straight, &w.trips, 0);
        let expect = observables(&straight);

        let cut = 15;
        let mut first = Simulation::new(&w.network, &oracle, config());
        replay(&mut first, &w.trips[..cut]);
        let bytes = first.checkpoint_bytes(cut, digest);

        let par_config = SimConfig {
            workers: 4,
            ..config()
        };
        let (mut resumed, next) =
            Simulation::resume(&w.network, &oracle, par_config, &w.trips, &bytes).unwrap();
        run_tail(&mut resumed, &w.trips, next);
        let got = observables(&resumed);
        assert_eq!(got.0, expect.0);
        assert_eq!(got.1, expect.1);
        assert_eq!(got.2, expect.2);
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let w = workload(20, 7);
        let digest = digest_trips(&w.trips);
        let oracle = CachedOracle::new(&w.network);
        let mut sim = Simulation::new(&w.network, &oracle, config());
        replay(&mut sim, &w.trips[..10]);
        let bytes = sim.checkpoint_bytes(10, digest);
        for len in 0..bytes.len() {
            match Simulation::resume(&w.network, &oracle, config(), &w.trips, &bytes[..len]) {
                Err(RoadNetError::Persist(_)) => {}
                other => panic!(
                    "truncation at {len} produced {:?}",
                    other.map(|(_, next)| next)
                ),
            }
        }
    }

    #[test]
    fn corruption_fails_the_checksum() {
        let w = workload(15, 2);
        let digest = digest_trips(&w.trips);
        let oracle = CachedOracle::new(&w.network);
        let mut sim = Simulation::new(&w.network, &oracle, config());
        replay(&mut sim, &w.trips[..8]);
        let bytes = sim.checkpoint_bytes(8, digest);
        for pos in [5usize, 40, bytes.len() / 2, bytes.len() - 9] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            assert!(
                matches!(
                    Simulation::resume(&w.network, &oracle, config(), &w.trips, &corrupt),
                    Err(RoadNetError::Persist(_))
                ),
                "corruption at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn a_version_1_checkpoint_is_refused_at_the_header() {
        let w = workload(15, 2);
        let digest = digest_trips(&w.trips);
        let oracle = CachedOracle::new(&w.network);
        let sim = Simulation::new(&w.network, &oracle, config());
        for old in [1u32, 2, 3, 4, 5] {
            // Stamp an old version and re-sign, so only the version is stale.
            let mut bytes = sim.checkpoint_bytes(0, digest);
            bytes[4..8].copy_from_slice(&old.to_le_bytes());
            if let Some((body, trailer)) = bytes.split_last_chunk_mut::<8>() {
                *trailer = bin::fnv1a(body).to_le_bytes();
            }
            let err = Simulation::resume(&w.network, &oracle, config(), &w.trips, &bytes);
            let want = format!("unsupported checkpoint version {old}");
            assert!(matches!(err, Err(RoadNetError::Persist(msg)) if msg.contains(&want)));
        }
    }

    #[test]
    fn mismatched_inputs_are_refused() {
        let w = workload(15, 2);
        let digest = digest_trips(&w.trips);
        let oracle = CachedOracle::new(&w.network);
        let sim = Simulation::new(&w.network, &oracle, config());
        let bytes = sim.checkpoint_bytes(0, digest);

        // Different network.
        let other = workload(15, 8);
        let other_oracle = CachedOracle::new(&other.network);
        assert!(matches!(
            Simulation::resume(&other.network, &other_oracle, config(), &w.trips, &bytes),
            Err(RoadNetError::Persist(msg)) if msg.contains("different road network")
        ));
        // Different configuration.
        let different = SimConfig {
            capacity: 6,
            ..config()
        };
        assert!(matches!(
            Simulation::resume(&w.network, &oracle, different, &w.trips, &bytes),
            Err(RoadNetError::Persist(msg)) if msg.contains("configuration")
        ));
        // The unread worker count is deliberately NOT part of the binding.
        let more_workers = SimConfig {
            workers: 3,
            ..config()
        };
        assert!(Simulation::resume(&w.network, &oracle, more_workers, &w.trips, &bytes).is_ok());
        // Different trip stream.
        assert!(matches!(
            Simulation::resume(&w.network, &oracle, config(), &other.trips, &bytes),
            Err(RoadNetError::Persist(msg)) if msg.contains("trip stream")
        ));
    }

    #[test]
    fn write_checkpoint_is_atomic_and_loadable() {
        let w = workload(12, 4);
        let digest = digest_trips(&w.trips);
        let oracle = CachedOracle::new(&w.network);
        let mut sim = Simulation::new(&w.network, &oracle, config());
        replay(&mut sim, &w.trips[..5]);
        let dir = std::env::temp_dir().join("rideshare_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("replay.ckpt");
        sim.write_checkpoint(&path, 5, digest).unwrap();
        let (resumed, next) =
            Simulation::resume_from_file(&w.network, &oracle, config(), &w.trips, &path).unwrap();
        assert_eq!(next, 5);
        assert_eq!(resumed.dispatch_stats().requests, 5);
        std::fs::remove_file(path).ok();
    }
}
