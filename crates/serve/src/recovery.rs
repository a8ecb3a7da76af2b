//! Crash-safe serve recovery: a write-ahead journal plus periodic
//! checkpoints, so a killed serve process resumes with accounting intact.
//!
//! # Design
//!
//! Two files live under [`RecoveryConfig::dir`]:
//!
//! - **`serve.journal`** — a write-ahead log. Every dispatch tick appends
//!   one entry *before* the batch mutates fleet state: every loop counter
//!   at that point (the tick number and the admission counters among
//!   them), the effort level and the full batch. Entries are individually
//!   framed (`[u32 len][body][u64 fnv]`), so a torn tail from a crash
//!   mid-write is detected and dropped, never misparsed.
//! - **`serve.ckpt`** — a full image of the loop written every
//!   [`RecoveryConfig::checkpoint_every_ticks`] ticks (format version 9):
//!   the clocks and effort ladder, the report's loop counters in the one
//!   order `server.rs` declares them, the latency histograms, the ingress
//!   queue and an embedded simulation checkpoint (vehicles, routes, RNG
//!   streams, the per-request trace — see `rideshare_sim::checkpoint`).
//!   The image is
//!   bound to no trip stream of its own: on load, the simulation's
//!   request count must equal the loop's `admitted` counter.
//!   Writes go to a temp file and rename into place
//!   (`roadnet::io::bin::write_atomic`), so the previous checkpoint
//!   survives a crash — or an injected torn write — mid-dump.
//!
//! Both files use the envelope every persisted file shares
//! (`roadnet::io::bin`): a magic and version header, then for the
//! checkpoint a trailing FNV-1a checksum and for the journal one checksum
//! per frame.
//!
//! Recovery loads the newest intact checkpoint (a corrupt one falls back
//! to a fresh start with a warning; a checkpoint *bound to different
//! configuration* is an error), restores the simulation and the loop
//! state (histograms included), skips exactly `offered` arrivals — every
//! arrival ever pulled was counted as offered, including queue-full
//! bounces, so this cursor cannot double-shed — and re-runs the loop.
//! Work between the checkpoint and the crash is *re-executed*, and under
//! a deterministic [`ServiceModel::Fixed`] model each re-executed
//! dispatch is verified byte-for-byte against the journal tail the dead
//! process left behind: any divergence is an error, which is what makes
//! the kill/recover equivalence property provable
//! (`tests/serve_recovery.rs`).

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as IoWrite};
use std::path::{Path, PathBuf};

use kinetic_core::codec::read_len;
use kinetic_core::DispatchEffort;
use rideshare_sim::{digest_config, digest_trips, SimConfig, Simulation};
use rideshare_workload::TripEvent;
use roadnet::io::bin::{self, Reader};
use roadnet::{DistanceOracle, RoadNetError, RoadNetwork};

use crate::fault::FaultPlan;
use crate::server::{LoopState, ServeConfig, ServeLoop, ServeReport, ServiceModel};
use crate::stats::LatencyHistogram;

/// Journal file magic: **R**ide**S**hare **W**rite-ahead **J**ournal.
const JOURNAL_MAGIC: &[u8; 4] = b"RSWJ";
/// Checkpoint file magic: **R**ide**S**hare ser**V**e **C**heckpoint.
const CKPT_MAGIC: &[u8; 4] = b"RSVC";
/// Shared by the journal and the checkpoint. Version 2 moved the metrics
/// into the loop state; version 3 dropped the sink-saturation rate and
/// its dropped-event counter; version 4 dropped the metrics' copies of
/// loop counters and each histogram's minimum; version 5 dropped the
/// admitted-trip list; version 6 embeds a version-4 simulation
/// checkpoint, version 7 a version-5 one; version 8 writes the loop
/// counters in `loop_counters!` order (`server.rs`); version 9 journals
/// every loop counter, drops the two SLO constants and the store fault
/// from the serve digest and embeds a version-6 simulation checkpoint.
const VERSION: u32 = 9;
/// Journal header: magic + version + sim-config digest + serve digest.
const JOURNAL_HEADER_LEN: u64 = bin::HEADER_LEN as u64 + 8 + 8;

/// Where and how often the serve loop persists its recovery state.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Directory holding `serve.journal` and `serve.ckpt` (created on
    /// first use).
    pub dir: PathBuf,
    /// Ticks between checkpoint dumps; 0 disables checkpoints (journal
    /// only — recovery then re-executes from the very start).
    pub checkpoint_every_ticks: u64,
}

impl RecoveryConfig {
    /// A recovery config rooted at `dir` with the default 64-tick
    /// checkpoint cadence.
    pub fn new<P: Into<PathBuf>>(dir: P) -> Self {
        RecoveryConfig {
            dir: dir.into(),
            checkpoint_every_ticks: 64,
        }
    }

    /// Path of the write-ahead journal.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("serve.journal")
    }

    /// Path of the serve checkpoint.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("serve.ckpt")
    }
}

/// FNV digest binding recovery files to the serving configuration: the
/// SLO budgets, the service model and the fault plan (everything that
/// shapes the admitted stream). `record_batches` is excluded (it changes
/// no decision) and so is `kill_at_tick` — the reference uninterrupted
/// run and the killed run must share a binding for equivalence tests.
pub(crate) fn digest_serve(cfg: &ServeConfig) -> u64 {
    let mut buf = Vec::new();
    let slo = &cfg.slo;
    bin::put_f64(&mut buf, slo.tick_seconds);
    bin::put_f64(&mut buf, slo.p99_budget_seconds);
    bin::put_u64(&mut buf, slo.queue_capacity as u64);
    bin::put_f64(&mut buf, slo.max_queue_wait_seconds);
    bin::put_f64(&mut buf, slo.degrade_compute_budget_seconds);
    bin::put_u64(&mut buf, slo.recover_healthy_ticks);
    match cfg.model {
        ServiceModel::Measured => bin::put_u32(&mut buf, 0),
        ServiceModel::Fixed {
            tick_overhead_s,
            per_request_s,
        } => {
            bin::put_u32(&mut buf, 1);
            bin::put_f64(&mut buf, tick_overhead_s);
            bin::put_f64(&mut buf, per_request_s);
        }
    }
    let f = &cfg.fault;
    bin::put_u64(&mut buf, f.seed);
    bin::put_f64(&mut buf, f.oracle_spike_rate);
    bin::put_f64(&mut buf, f.oracle_spike_seconds);
    bin::put_f64(&mut buf, f.torn_checkpoint_rate);
    bin::fnv1a(&buf)
}

fn put_trips(out: &mut Vec<u8>, trips: &[TripEvent]) {
    bin::put_u64(out, trips.len() as u64);
    for t in trips {
        t.encode(out);
    }
}

fn read_trips(r: &mut Reader<'_>, what: &str) -> Result<Vec<TripEvent>, RoadNetError> {
    let n = read_len(r, TripEvent::ENCODED_BYTES, what)?;
    let mut trips = Vec::with_capacity(n);
    for _ in 0..n {
        trips.push(TripEvent::decode(r)?);
    }
    Ok(trips)
}

fn put_effort(out: &mut Vec<u8>, level: DispatchEffort) {
    bin::put_u32(out, level.index() as u32);
}

fn read_effort(r: &mut Reader<'_>) -> Result<DispatchEffort, RoadNetError> {
    let idx = r.u32("effort level")? as usize;
    DispatchEffort::ALL
        .get(idx)
        .copied()
        .ok_or_else(|| RoadNetError::Persist(format!("effort level index {idx} out of range")))
}

/// The body of one write-ahead journal entry: the loop state at the
/// moment a batch is handed to the dispatcher — every loop counter in
/// `loop_counters!` order (`server.rs`), the tick's end and the effort
/// level — plus the batch itself. Recovery compares re-executed entries
/// with the dead process's by these bytes.
fn journal_entry(state: &LoopState, batch: &[TripEvent]) -> Vec<u8> {
    let mut body = Vec::new();
    for n in state.report.counters() {
        bin::put_u64(&mut body, n);
    }
    bin::put_f64(&mut body, state.tick_end);
    put_effort(&mut body, state.level);
    put_trips(&mut body, batch);
    body
}

fn journal_header(sim_digest: u64, serve_digest: u64) -> Vec<u8> {
    let mut out = bin::header(JOURNAL_MAGIC, VERSION);
    bin::put_u64(&mut out, sim_digest);
    bin::put_u64(&mut out, serve_digest);
    out
}

/// Journal entry bodies plus the byte offset past each entry, so resume
/// can truncate precisely at the checkpoint's high-water mark.
struct LoadedJournal {
    entries: Vec<Vec<u8>>,
    end_offsets: Vec<u64>,
}

/// Parses the journal, stopping (not failing) at the first torn or
/// truncated entry — that is the expected crash signature. A header bound
/// to a different configuration is an error; a missing file is empty.
fn load_journal(
    path: &Path,
    sim_digest: u64,
    serve_digest: u64,
) -> Result<LoadedJournal, RoadNetError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let empty = LoadedJournal {
        entries: Vec::new(),
        end_offsets: Vec::new(),
    };
    if bytes.len() < JOURNAL_HEADER_LEN as usize {
        return Ok(empty);
    }
    let mut r = Reader::new(&bytes);
    bin::read_header(&mut r, JOURNAL_MAGIC, VERSION, "serve journal")?;
    let got_sim = r.u64("journal sim digest")?;
    let got_serve = r.u64("journal serve digest")?;
    if got_sim != sim_digest || got_serve != serve_digest {
        return Err(RoadNetError::Persist(format!(
            "{} was written under a different configuration \
             (sim digest {got_sim:#x} vs {sim_digest:#x}, \
             serve digest {got_serve:#x} vs {serve_digest:#x})",
            path.display()
        )));
    }
    let mut entries = Vec::new();
    let mut end_offsets = Vec::new();
    // A frame cut short or failing its checksum is the torn tail of a
    // crash — stop there.
    while let Ok(body) = bin::read_frame(&mut r) {
        entries.push(body.to_vec());
        end_offsets.push((bytes.len() - r.remaining()) as u64);
    }
    Ok(LoadedJournal {
        entries,
        end_offsets,
    })
}

/// Threads the write-ahead journal and periodic checkpoints through the
/// serve loop's tick; see the module docs for the protocol.
pub(crate) struct RecoveryDriver {
    journal: File,
    checkpoint_path: PathBuf,
    checkpoint_every: u64,
    fault: FaultPlan,
    /// Journal entries the dead process wrote past the checkpoint; the
    /// resumed run re-executes them and verifies each byte-for-byte.
    expected_tail: Vec<Vec<u8>>,
    verified: usize,
    /// Tail verification is only sound under a deterministic service
    /// model; with [`ServiceModel::Measured`] re-execution may batch
    /// differently and the checkpoint is simply the authoritative truth.
    verify_tail: bool,
}

impl RecoveryDriver {
    /// Appends the dispatch about to run to the write-ahead journal and,
    /// during recovery, verifies it against the dead process's tail.
    pub(crate) fn journal_dispatch(
        &mut self,
        state: &mut LoopState,
        batch: &[TripEvent],
    ) -> Result<(), RoadNetError> {
        let entry = journal_entry(state, batch);
        if let Some(expected) = self.expected_tail.get(self.verified) {
            if self.verify_tail && *expected != entry {
                return Err(RoadNetError::Persist(format!(
                    "journal divergence at entry {}: recovery re-executed tick {} \
                     differently from the pre-crash run",
                    self.verified, state.report.ticks
                )));
            }
            self.verified += 1;
        }
        let mut frame = Vec::new();
        bin::put_frame(&mut frame, &entry);
        self.journal.write_all(&frame)?;
        state.report.journal_entries += 1;
        Ok(())
    }

    /// Dumps a checkpoint when the tick cadence says so. The write index
    /// is `ticks / cadence` — a pure function of the tick — so injected
    /// torn writes fire identically in an uninterrupted run and in a
    /// recovery re-execution, keeping `fault_torn_checkpoints` equal.
    pub(crate) fn after_tick(
        &mut self,
        sim: &Simulation<'_>,
        state: &mut LoopState,
    ) -> Result<(), RoadNetError> {
        if self.checkpoint_every == 0 || !state.report.ticks.is_multiple_of(self.checkpoint_every) {
            return Ok(());
        }
        let write_index = state.report.ticks / self.checkpoint_every;
        if self.fault.torn_checkpoint(write_index) {
            state.report.fault_torn_checkpoints += 1;
            // Simulate a crash mid-dump: half the image lands in the temp
            // file and the rename never happens. The previous checkpoint
            // stays intact — exactly what the atomic protocol guarantees.
            let bytes = encode_checkpoint(sim, state);
            let (torn_half, _) = bytes.split_at(bytes.len() / 2);
            std::fs::write(bin::temp_sibling(&self.checkpoint_path), torn_half)?;
            return Ok(());
        }
        bin::write_atomic(&self.checkpoint_path, &encode_checkpoint(sim, state))
    }
}

fn put_state(out: &mut Vec<u8>, state: &LoopState) {
    bin::put_f64(out, state.server_free);
    bin::put_f64(out, state.tick_end);
    put_effort(out, state.level);
    bin::put_u64(out, state.healthy_streak);
    bin::put_u64(out, state.queue_depth_sum);
    bin::put_u64(out, state.report.queue_depth_max as u64);
    for n in state.report.counters() {
        bin::put_u64(out, n);
    }
    for h in [&state.latency, &state.assigned_latency, &state.tick_compute] {
        h.encode(out);
    }
    let queued: Vec<TripEvent> = state.queue.iter().copied().collect();
    put_trips(out, &queued);
}

fn read_state(r: &mut Reader<'_>) -> Result<LoopState, RoadNetError> {
    let mut state = LoopState {
        server_free: r.f64("state server_free")?,
        tick_end: r.f64("state tick_end")?,
        level: read_effort(r)?,
        healthy_streak: r.u64("state healthy_streak")?,
        queue_depth_sum: r.u64("state queue_depth_sum")?,
        ..LoopState::default()
    };
    state.report.queue_depth_max = r.u64("state queue_depth_max")? as usize;
    for n in state.report.counters_mut() {
        *n = r.u64("state counter")?;
    }
    for h in [
        &mut state.latency,
        &mut state.assigned_latency,
        &mut state.tick_compute,
    ] {
        *h = LatencyHistogram::decode(r)?;
    }
    state.queue = read_trips(r, "state queue")?.into_iter().collect();
    Ok(state)
}

fn encode_checkpoint(sim: &Simulation<'_>, state: &LoopState) -> Vec<u8> {
    bin::seal(CKPT_MAGIC, VERSION, |out| {
        bin::put_u64(out, digest_config(sim.config()));
        put_state(out, state);
        let sim_bytes = sim.checkpoint_bytes(0, digest_trips(&[]));
        bin::put_u64(out, sim_bytes.len() as u64);
        out.extend_from_slice(&sim_bytes);
    })
}

/// A serve checkpoint decoded far enough to restart the loop; the
/// embedded simulation image is handed to [`Simulation::resume`].
struct LoadedCheckpoint {
    state: LoopState,
    sim_bytes: Vec<u8>,
}

/// Loads the checkpoint if one exists and is intact. A corrupt image —
/// torn write, bad checksum, short file — falls back to `Ok(None)` (fresh
/// start) with a warning on stderr; a checkpoint bound to a *different
/// simulation config* is an error, because silently restarting a
/// mismatched deployment would corrupt the experiment.
fn load_checkpoint(path: &Path, sim_digest: u64) -> Result<Option<LoadedCheckpoint>, RoadNetError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let mut r = match bin::open(&bytes, CKPT_MAGIC, VERSION, "serve checkpoint") {
        Ok(r) => r,
        Err(e) => {
            eprintln!(
                "warning: serve checkpoint {} is unusable ({e}); starting fresh",
                path.display()
            );
            return Ok(None);
        }
    };
    let got_sim = r.u64("checkpoint sim digest")?;
    if got_sim != sim_digest {
        return Err(RoadNetError::Persist(format!(
            "{} was written under a different simulation config \
             (digest {got_sim:#x} vs {sim_digest:#x})",
            path.display()
        )));
    }
    let state = read_state(&mut r)?;
    let n = read_len(&mut r, 1, "embedded sim checkpoint")?;
    let sim_bytes = r.bytes(n, "embedded sim checkpoint")?.to_vec();
    Ok(Some(LoadedCheckpoint { state, sim_bytes }))
}

impl<'a> ServeLoop<'a> {
    /// Serves the arrival stream with crash safety: every dispatch is
    /// journaled ahead of execution and the whole loop is checkpointed on
    /// the configured cadence. Returns `Ok(None)` when the fault plan's
    /// `kill_at_tick` fired — the "process died" signal; call
    /// [`resume_serve`] with the same configuration and directory to pick
    /// the run back up. Starting a run wipes any previous journal and
    /// checkpoint in the directory.
    pub fn run_recoverable(
        &mut self,
        arrivals: impl Iterator<Item = TripEvent>,
        rc: &RecoveryConfig,
    ) -> Result<Option<ServeReport>, RoadNetError> {
        std::fs::create_dir_all(&rc.dir)?;
        let sim_digest = digest_config(self.sim.config());
        let serve_digest = digest_serve(&self.cfg);
        let mut journal = File::create(rc.journal_path())?;
        journal.write_all(&journal_header(sim_digest, serve_digest))?;
        let _ = std::fs::remove_file(rc.checkpoint_path());
        let mut driver = RecoveryDriver {
            journal,
            checkpoint_path: rc.checkpoint_path(),
            checkpoint_every: rc.checkpoint_every_ticks,
            fault: self.cfg.fault,
            expected_tail: Vec::new(),
            verified: 0,
            verify_tail: false,
        };
        let mut arrivals = arrivals.peekable();
        let mut state = LoopState::default();
        let done = self.run_inner(&mut arrivals, None, &mut state, Some(&mut driver), true)?;
        if !done {
            // Killed: the "process" dies here.
            return Ok(None);
        }
        Ok(Some(self.finish_report(state, false)))
    }
}

/// Recovers a killed serve run from `rc.dir` and drives it to completion.
///
/// Rebuilds the simulation from the newest intact checkpoint (or fresh if
/// none survived) together with the loop state and its histograms,
/// fast-forwards the arrival stream past everything already
/// offered, and re-runs the loop with kills disabled. Under a
/// [`ServiceModel::Fixed`] model the re-executed dispatches are verified
/// against the dead process's journal tail, so the returned report is
/// provably identical (modulo the `recovered` flag) to the report an
/// uninterrupted run would have produced.
///
/// `graph`, `oracle`, `sim_config`, `cfg` and `arrivals` must be the same
/// values the killed run was started with; the digests embedded in the
/// journal and checkpoint enforce the config part of that contract.
pub fn resume_serve<'a>(
    graph: &'a RoadNetwork,
    oracle: &'a dyn DistanceOracle,
    sim_config: SimConfig,
    cfg: ServeConfig,
    arrivals: impl Iterator<Item = TripEvent>,
    rc: &RecoveryConfig,
) -> Result<ServeReport, RoadNetError> {
    let sim_digest = digest_config(&sim_config);
    let serve_digest = digest_serve(&cfg);
    let journal = load_journal(&rc.journal_path(), sim_digest, serve_digest)?;
    let ckpt = load_checkpoint(&rc.checkpoint_path(), sim_digest)?;

    let (mut state, sim) = match ckpt {
        Some(l) => {
            let (sim, _) = Simulation::resume(graph, oracle, sim_config, &[], &l.sim_bytes)?;
            // Two independently kept counts of the dispatched requests:
            // the engine's and the loop's.
            let requests = sim.dispatch_stats().requests;
            if requests != l.state.report.admitted {
                return Err(RoadNetError::Persist(format!(
                    "checkpoint simulation dispatched {requests} requests but \
                     its loop state admitted {}",
                    l.state.report.admitted
                )));
            }
            (l.state, sim)
        }
        None => (
            LoopState::default(),
            Simulation::new(graph, oracle, sim_config),
        ),
    };

    // The journal tail past the checkpoint is what the dead process did
    // after its last dump; re-execution must reproduce it.
    let at = state.report.journal_entries as usize;
    let Some(tail) = journal.entries.get(at..) else {
        return Err(RoadNetError::Persist(format!(
            "journal holds {} entries but the checkpoint expects at least {at}",
            journal.entries.len()
        )));
    };
    let expected_tail = tail.to_vec();
    let truncate_at = match at.checked_sub(1) {
        None => JOURNAL_HEADER_LEN,
        Some(last) => journal.end_offsets.get(last).copied().ok_or_else(|| {
            RoadNetError::Persist(format!(
                "journal records {} end offsets but the checkpoint expects {at}",
                journal.end_offsets.len()
            ))
        })?,
    };
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(rc.journal_path())?;
    if file.metadata()?.len() < JOURNAL_HEADER_LEN {
        file.set_len(0)?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&journal_header(sim_digest, serve_digest))?;
    } else {
        file.set_len(truncate_at)?;
        file.seek(SeekFrom::End(0))?;
    }

    let verify_tail = matches!(cfg.model, ServiceModel::Fixed { .. });
    let mut driver = RecoveryDriver {
        journal: file,
        checkpoint_path: rc.checkpoint_path(),
        checkpoint_every: rc.checkpoint_every_ticks,
        fault: cfg.fault,
        expected_tail,
        verified: 0,
        verify_tail,
    };

    // Every arrival ever pulled — queued *or* bounced — was counted as
    // offered, so skipping exactly `offered` arrivals resumes the cursor
    // without re-offering (and re-shedding) anything. Skipping only
    // admitted arrivals would double-count every queue-full bounce.
    let mut arrivals = arrivals.peekable();
    for _ in 0..state.report.offered {
        arrivals.next();
    }

    let mut serve = ServeLoop::new(sim, cfg);
    let done = serve.run_inner(&mut arrivals, None, &mut state, Some(&mut driver), false)?;
    debug_assert!(done, "kills are disabled during recovery");
    if driver.verify_tail && driver.verified < driver.expected_tail.len() {
        return Err(RoadNetError::Persist(format!(
            "recovery re-executed only {} of the {} journaled dispatches \
             the pre-crash run performed",
            driver.verified,
            driver.expected_tail.len()
        )));
    }
    Ok(serve.finish_report(state, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::PoissonArrivals;
    use rideshare_workload::{CityConfig, DemandConfig, Workload};
    use roadnet::CachedOracle;

    #[test]
    fn a_version_1_directory_is_refused_with_a_typed_error() {
        let w = Workload::generate(&CityConfig::small(), &DemandConfig::default(), 5);
        let oracle = CachedOracle::new(&w.network);
        let sim_config = SimConfig::default();
        let cfg = ServeConfig::default();
        let arrivals = || PoissonArrivals::new(&w.trips, 2.0, 30.0, 3);
        for old in [1u32, 2, 3, 4, 5, 6, 7, 8] {
            let rc = RecoveryConfig {
                dir: std::env::temp_dir().join(format!("serve_v{old}_dir_{}", std::process::id())),
                checkpoint_every_ticks: 4,
            };
            let mut serve = ServeLoop::new(Simulation::new(&w.network, &oracle, sim_config), cfg);
            serve.run_recoverable(arrivals(), &rc).unwrap();
            // Stamp both files with the old version; the checkpoint is
            // re-signed so only its version is stale.
            for (path, signed) in [(rc.journal_path(), false), (rc.checkpoint_path(), true)] {
                let mut bytes = std::fs::read(&path).unwrap();
                bytes[4..8].copy_from_slice(&old.to_le_bytes());
                if let (true, Some((payload, trailer))) =
                    (signed, bytes.split_last_chunk_mut::<8>())
                {
                    *trailer = bin::fnv1a(payload).to_le_bytes();
                }
                std::fs::write(&path, bytes).unwrap();
            }

            let err = resume_serve(&w.network, &oracle, sim_config, cfg, arrivals(), &rc)
                .expect_err("an older directory must not resume");
            assert!(
                matches!(&err, RoadNetError::Persist(msg) if msg.contains("version-9")),
                "version {old}: {err:?}"
            );
            std::fs::remove_dir_all(&rc.dir).ok();
        }
    }

    #[test]
    fn a_checkpoint_round_trips_every_loop_state_field() {
        let w = Workload::generate(&CityConfig::small(), &DemandConfig::default(), 5);
        let oracle = CachedOracle::new(&w.network);
        let sim = Simulation::new(&w.network, &oracle, SimConfig::default());
        let mut state = LoopState {
            queue: w.trips.iter().take(3).copied().collect(),
            server_free: 12.5,
            tick_end: 11.0,
            level: DispatchEffort::Greedy,
            healthy_streak: 2,
            queue_depth_sum: 41,
            ..LoopState::default()
        };
        for (i, h) in [
            &mut state.latency,
            &mut state.assigned_latency,
            &mut state.tick_compute,
        ]
        .into_iter()
        .enumerate()
        {
            for k in 0..=i {
                h.record(0.25 + (i * 10 + k) as f64);
            }
        }
        state.report.queue_depth_max = 9;
        for (n, value) in state.report.counters_mut().zip(100..) {
            *n = value;
        }
        // The report's other fields come from finish_report, never from a
        // checkpoint; they stay at their defaults here and there.
        let dir = std::env::temp_dir().join(format!("serve_roundtrip_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.ckpt");
        std::fs::write(&path, encode_checkpoint(&sim, &state)).unwrap();

        let loaded = load_checkpoint(&path, digest_config(sim.config()))
            .unwrap()
            .expect("an intact checkpoint loads");
        assert_eq!(loaded.state, state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_strict_prefix_of_a_real_checkpoint_starts_fresh() {
        let w = Workload::generate(&CityConfig::small(), &DemandConfig::default(), 5);
        let oracle = CachedOracle::new(&w.network);
        let sim_config = SimConfig {
            vehicles: 3,
            ..SimConfig::default()
        };
        let cfg = ServeConfig {
            model: ServiceModel::Fixed {
                tick_overhead_s: 0.01,
                per_request_s: 0.001,
            },
            ..ServeConfig::default()
        };
        let rc = RecoveryConfig {
            dir: std::env::temp_dir().join(format!("serve_prefix_dir_{}", std::process::id())),
            checkpoint_every_ticks: 4,
        };
        let mut serve = ServeLoop::new(Simulation::new(&w.network, &oracle, sim_config), cfg);
        let arrivals = PoissonArrivals::new(&w.trips, 1.0, 20.0, 3);
        let report = serve.run_recoverable(arrivals, &rc).unwrap().unwrap();
        assert!(report.admitted > 0 && report.ticks >= 4);
        let path = rc.checkpoint_path();
        let full = std::fs::read(&path).unwrap();
        let digest = digest_config(&sim_config);
        assert!(load_checkpoint(&path, digest).unwrap().is_some());
        for len in 0..full.len() {
            std::fs::write(&path, &full[..len]).unwrap();
            assert!(
                matches!(load_checkpoint(&path, digest), Ok(None)),
                "a prefix of {len} of {} bytes did not start fresh",
                full.len()
            );
        }
        std::fs::remove_dir_all(&rc.dir).ok();
    }

    #[test]
    fn a_checkpoint_whose_counts_disagree_is_refused_with_a_typed_error() {
        let w = Workload::generate(&CityConfig::small(), &DemandConfig::default(), 5);
        let oracle = CachedOracle::new(&w.network);
        let sim_config = SimConfig::default();
        let rc = RecoveryConfig::new(
            std::env::temp_dir().join(format!("serve_counts_dir_{}", std::process::id())),
        );
        std::fs::create_dir_all(&rc.dir).unwrap();
        // The loop admitted a request its simulation never dispatched.
        let mut state = LoopState::default();
        state.report.admitted = 1;
        let sim = Simulation::new(&w.network, &oracle, sim_config);
        std::fs::write(rc.checkpoint_path(), encode_checkpoint(&sim, &state)).unwrap();

        let arrivals = PoissonArrivals::new(&w.trips, 2.0, 30.0, 3);
        let err = resume_serve(
            &w.network,
            &oracle,
            sim_config,
            ServeConfig::default(),
            arrivals,
            &rc,
        )
        .expect_err("a checkpoint that disagrees with itself must not resume");
        assert!(
            matches!(&err, RoadNetError::Persist(msg) if msg.contains("admitted 1")),
            "{err:?}"
        );
        std::fs::remove_dir_all(&rc.dir).ok();
    }
}
