//! Checkpoint/resume for long simulation runs.
//!
//! A paper-scale replay submits 432,327 requests over a simulated day and
//! runs for hours of wall clock; an interruption anywhere along the way
//! used to mean starting over. This module snapshots a running
//! [`Simulation`] — fleet (including every kinetic tree), motion state
//! (including each vehicle's cruising-RNG stream), dispatcher statistics,
//! service-quality metrics, per-trip records and the full trace — to a
//! versioned, checksummed binary file, and restores it so that the resumed
//! run is **bit-identical** to one that never stopped (property-tested in
//! `tests/proptest_checkpoint.rs`; the only fields that can differ are the
//! wall-clock latency *means*, since nanosecond timings are not a function
//! of simulation state).
//!
//! The format follows the `roadnet::io::bin` conventions established by
//! the hub-label store: little-endian scalars, length-prefixed
//! collections, a magic/version header and a trailing FNV-1a checksum.
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
//! 4       format version (u32, currently 1)
//! 8       network fingerprint (u64)
//! 16      SimConfig digest (u64) — excludes the unread `workers` field,
//!         so a checkpoint resumes whatever value it holds
//! 24      trip-stream digest (u64)
//! 32      next trip index (u64), clock (f64), then the state sections:
//!         vehicles, motions, dispatcher stats, metrics, records, trace
//! end-8   FNV-1a checksum over every preceding byte
//! ```

use std::collections::BTreeMap;
use std::path::Path;

use kinetic_core::codec;
use kinetic_core::{DispatchStats, Vehicle};
use rand::rngs::StdRng;
use rideshare_workload::TripEvent;
use roadnet::io::bin::{self, Reader};
use roadnet::{DistanceOracle, RoadNetError, RoadNetwork};
use spatial::{GridIndex, Position};

use crate::config::SimConfig;
use crate::engine::{Motion, Simulation, TripRecord};
use crate::metrics::MetricsCollector;
use crate::trace::{RequestTrace, TraceLog};

/// File magic: "RSCK" (ridesharing checkpoint).
const MAGIC: &[u8; 4] = b"RSCK";
/// Current checkpoint format version; bump on any layout change.
const VERSION: u32 = 1;

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
    match config.max_requests {
        Some(n) => bin::put_u64(&mut buf, n as u64),
        None => bin::put_u64(&mut buf, u64::MAX),
    }
    bin::put_u64(&mut buf, config.seed);
    codec::put_bool(&mut buf, config.dispatcher.use_spatial_filter);
    bin::put_f64(&mut buf, config.dispatcher.radius_factor);
    // Batched ticks change when vehicles move between requests, so the
    // window width is result-determining — but only appended when set, so
    // per-request checkpoints written before the knob existed keep their
    // digest. `dispatcher.use_pruning` is deliberately absent: pruned and
    // exhaustive evaluation produce bit-identical results (property-tested).
    if config.batch_window_seconds != 0.0 {
        bin::put_f64(&mut buf, config.batch_window_seconds);
    }
    bin::fnv1a(&buf)
}

/// Digest of a trip stream: a resumed run must replay exactly the requests
/// the interrupted run would have seen.
pub fn digest_trips(trips: &[TripEvent]) -> u64 {
    let mut buf = Vec::with_capacity(24 * trips.len() + 8);
    bin::put_u64(&mut buf, trips.len() as u64);
    for t in trips {
        bin::put_u64(&mut buf, t.id);
        bin::put_u32(&mut buf, t.source);
        bin::put_u32(&mut buf, t.destination);
        bin::put_f64(&mut buf, t.time_seconds);
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
        let mut out = Vec::with_capacity(1 << 16);
        out.extend_from_slice(MAGIC);
        bin::put_u32(&mut out, VERSION);
        bin::put_u64(&mut out, self.graph.fingerprint());
        bin::put_u64(&mut out, digest_config(&self.config));
        bin::put_u64(&mut out, trips_digest);
        bin::put_u64(&mut out, next_trip as u64);
        bin::put_f64(&mut out, self.clock_m);

        bin::put_u64(&mut out, self.vehicles.len() as u64);
        for v in &self.vehicles {
            v.encode(&mut out);
        }
        for m in &self.motions {
            bin::put_u32(&mut out, m.at);
            bin::put_f64(&mut out, m.at_clock_m);
            bin::put_f64(&mut out, m.next_arrival_m);
            for word in m.rng.state() {
                bin::put_u64(&mut out, word);
            }
            bin::put_u64(&mut out, m.path.len() as u64);
            for &(node, leg) in &m.path {
                bin::put_u32(&mut out, node);
                bin::put_f64(&mut out, leg);
            }
        }

        put_stats(&mut out, self.dispatcher.stats());

        let c = &self.collector;
        bin::put_u64(&mut out, c.wait_seconds.len() as u64);
        for &w in &c.wait_seconds {
            bin::put_f64(&mut out, w);
        }
        bin::put_u64(&mut out, c.detour_ratios.len() as u64);
        for &d in &c.detour_ratios {
            bin::put_f64(&mut out, d);
        }
        bin::put_u64(&mut out, c.guarantee_violations);
        bin::put_u64(&mut out, c.completed);
        bin::put_u64(&mut out, c.onboard_at_pickup.len() as u64);
        for &n in &c.onboard_at_pickup {
            bin::put_u64(&mut out, n as u64);
        }
        for &t in &c.pickup_clock_seconds {
            bin::put_f64(&mut out, t);
        }
        bin::put_u64(&mut out, c.per_vehicle_max_onboard.len() as u64);
        for (&vid, &max) in &c.per_vehicle_max_onboard {
            bin::put_u32(&mut out, vid);
            bin::put_u64(&mut out, max as u64);
        }
        bin::put_f64(&mut out, c.fleet_distance_m);

        // Records walk in trip order by construction: the record map is a
        // `BTreeMap`, so identical states produce identical bytes.
        bin::put_u64(&mut out, self.records.len() as u64);
        for (&trip, rec) in &self.records {
            bin::put_u64(&mut out, trip);
            bin::put_f64(&mut out, rec.submitted_m);
            bin::put_f64(&mut out, rec.direct_m);
            bin::put_f64(&mut out, rec.max_wait_m);
            bin::put_f64(&mut out, rec.max_ride_m);
            codec::put_opt_f64(&mut out, rec.picked_up_m);
        }

        bin::put_u64(&mut out, self.trace.len() as u64);
        for e in self.trace.iter() {
            bin::put_u64(&mut out, e.trip);
            bin::put_f64(&mut out, e.submitted_s);
            codec::put_opt_u32(&mut out, e.vehicle);
            codec::put_opt_f64(&mut out, e.assignment_cost_m);
            bin::put_u64(&mut out, e.candidates as u64);
            codec::put_opt_f64(&mut out, e.picked_up_s);
            codec::put_opt_f64(&mut out, e.delivered_s);
            bin::put_f64(&mut out, e.direct_m);
            codec::put_opt_f64(&mut out, e.ride_m);
        }

        let checksum = bin::fnv1a(&out);
        bin::put_u64(&mut out, checksum);
        out
    }

    /// Writes [`Simulation::checkpoint_bytes`] to `path` atomically (via a
    /// sibling temp file + rename), so an interruption mid-write leaves the
    /// previous checkpoint intact.
    pub fn write_checkpoint<P: AsRef<Path>>(
        &self,
        path: P,
        next_trip: usize,
        trips_digest: u64,
    ) -> Result<(), RoadNetError> {
        let path = path.as_ref();
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, self.checkpoint_bytes(next_trip, trips_digest))?;
        std::fs::rename(&tmp, path)?;
        Ok(())
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
    /// let oracle = CachedOracle::without_labels(&w.network);
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
/// where the snapshot was taken. The header binding (checksum, magic,
/// version, network fingerprint, config digest, trips digest) is validated
/// and the whole image parsed before anything is committed.
fn restore<'a>(
    mut sim: Simulation<'a>,
    trips: &[TripEvent],
    bytes: &[u8],
) -> Result<(Simulation<'a>, usize), RoadNetError> {
    let (graph, config) = (sim.graph, sim.config);
    if bytes.len() < 8 {
        return Err(RoadNetError::Persist(format!(
            "checkpoint is only {} bytes; not even a checksum fits",
            bytes.len()
        )));
    }
    let body = &bytes[..bytes.len() - 8];
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    let computed = bin::fnv1a(body);
    if stored != computed {
        return Err(RoadNetError::Persist(format!(
            "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
        )));
    }

    let mut r = Reader::new(body);
    let magic = r.bytes(4, "checkpoint magic")?;
    if magic != MAGIC {
        return Err(RoadNetError::Persist(format!(
            "bad magic {magic:?} (expected {MAGIC:?}); not a simulation checkpoint"
        )));
    }
    let version = r.u32("checkpoint version")?;
    if version != VERSION {
        return Err(RoadNetError::Persist(format!(
            "unsupported checkpoint version {version} (this build reads {VERSION})"
        )));
    }
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

    let waits = codec::read_len(&mut r, 8, "metrics wait count")?;
    let wait_seconds = (0..waits)
        .map(|_| r.f64("metrics wait"))
        .collect::<Result<_, _>>()?;
    let detours = codec::read_len(&mut r, 8, "metrics detour count")?;
    let detour_ratios = (0..detours)
        .map(|_| r.f64("metrics detour"))
        .collect::<Result<_, _>>()?;
    let guarantee_violations = r.u64("metrics violations")?;
    let completed = r.u64("metrics completed")?;
    let pickups = codec::read_len(&mut r, 16, "metrics pickup count")?;
    let onboard_at_pickup = (0..pickups)
        .map(|_| r.u64("metrics onboard").map(|v| v as usize))
        .collect::<Result<_, _>>()?;
    let pickup_clock_seconds = (0..pickups)
        .map(|_| r.f64("metrics pickup clock"))
        .collect::<Result<_, _>>()?;
    let maxima = codec::read_len(&mut r, 12, "metrics per-vehicle count")?;
    let mut per_vehicle_max_onboard = std::collections::BTreeMap::new();
    for _ in 0..maxima {
        let vid = r.u32("metrics vehicle id")?;
        let max = r.u64("metrics vehicle max")? as usize;
        per_vehicle_max_onboard.insert(vid, max);
    }
    let fleet_distance_m = r.f64("metrics fleet distance")?;

    let record_count = codec::read_len(&mut r, 41, "record count")?;
    let mut records = BTreeMap::new();
    for _ in 0..record_count {
        let trip = r.u64("record trip")?;
        let rec = TripRecord {
            submitted_m: r.f64("record submitted")?,
            direct_m: r.f64("record direct")?,
            max_wait_m: r.f64("record max wait")?,
            max_ride_m: r.f64("record max ride")?,
            picked_up_m: codec::read_opt_f64(&mut r, "record pickup")?,
        };
        records.insert(trip, rec);
    }

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
        wait_seconds,
        detour_ratios,
        guarantee_violations,
        completed,
        onboard_at_pickup,
        pickup_clock_seconds,
        per_vehicle_max_onboard,
        fleet_distance_m,
    };
    sim.records = records;
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

    /// Submits `trips[from..]`, advancing the clock as [`Simulation::run`]
    /// does, then drains.
    fn run_tail(sim: &mut Simulation<'_>, trips: &[TripEvent], from: usize) {
        for trip in &trips[from..] {
            let t_m = sim.config().seconds_to_meters(trip.time_seconds);
            sim.advance_all(t_m);
            sim.submit(trip);
        }
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
        let oracle = CachedOracle::without_labels(&w.network);

        let mut straight = Simulation::new(&w.network, &oracle, config());
        run_tail(&mut straight, &w.trips, 0);
        let expect = observables(&straight);

        for cut in [1usize, 17, 30, 59] {
            let mut first = Simulation::new(&w.network, &oracle, config());
            for trip in &w.trips[..cut] {
                let t_m = first.config().seconds_to_meters(trip.time_seconds);
                first.advance_all(t_m);
                first.submit(trip);
            }
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
        let oracle = CachedOracle::without_labels(&w.network);
        let mut straight = Simulation::new(&w.network, &oracle, config());
        run_tail(&mut straight, &w.trips, 0);
        let expect = observables(&straight);

        let cut = 15;
        let mut first = Simulation::new(&w.network, &oracle, config());
        for trip in &w.trips[..cut] {
            let t_m = first.config().seconds_to_meters(trip.time_seconds);
            first.advance_all(t_m);
            first.submit(trip);
        }
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
        let oracle = CachedOracle::without_labels(&w.network);
        let mut sim = Simulation::new(&w.network, &oracle, config());
        for trip in &w.trips[..10] {
            let t_m = sim.config().seconds_to_meters(trip.time_seconds);
            sim.advance_all(t_m);
            sim.submit(trip);
        }
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
        let oracle = CachedOracle::without_labels(&w.network);
        let mut sim = Simulation::new(&w.network, &oracle, config());
        for trip in &w.trips[..8] {
            let t_m = sim.config().seconds_to_meters(trip.time_seconds);
            sim.advance_all(t_m);
            sim.submit(trip);
        }
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
    fn mismatched_inputs_are_refused() {
        let w = workload(15, 2);
        let digest = digest_trips(&w.trips);
        let oracle = CachedOracle::without_labels(&w.network);
        let sim = Simulation::new(&w.network, &oracle, config());
        let bytes = sim.checkpoint_bytes(0, digest);

        // Different network.
        let other = workload(15, 8);
        let other_oracle = CachedOracle::without_labels(&other.network);
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
        let oracle = CachedOracle::without_labels(&w.network);
        let mut sim = Simulation::new(&w.network, &oracle, config());
        for trip in &w.trips[..5] {
            let t_m = sim.config().seconds_to_meters(trip.time_seconds);
            sim.advance_all(t_m);
            sim.submit(trip);
        }
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
