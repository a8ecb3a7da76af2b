//! Crash-safe serve recovery: a write-ahead journal plus periodic
//! checkpoints, so a killed serve process resumes with accounting intact.
//!
//! # Design
//!
//! Two files live under [`RecoveryConfig::dir`]:
//!
//! - **`serve.journal`** — a write-ahead log. Every dispatch tick appends
//!   one entry *before* the batch mutates fleet state: the tick number,
//!   the admission counters at that point, the effort level and the full
//!   batch. Entries are individually framed (`[u32 len][body][u64 fnv]`),
//!   so a torn tail from a crash mid-write is detected and dropped, never
//!   misparsed.
//! - **`serve.ckpt`** — a full image of the loop written every
//!   [`RecoveryConfig::checkpoint_every_ticks`] ticks: the loop-state
//!   counters, gauges and latency histograms, the ingress queue and an
//!   embedded simulation checkpoint (vehicles, routes, RNG streams, the
//!   per-request trace — see `rideshare_sim::checkpoint`). The image is
//!   bound to no trip stream of its own: on load, the simulation's
//!   request count must equal the loop's `admitted` counter.
//!   Writes go to a temp file and rename into place, so the previous
//!   checkpoint survives a crash — or an injected torn write — mid-dump.
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
use kinetic_core::{DispatchEffort, FaultPlan, LatencyHistogram};
use rideshare_sim::{digest_config, digest_trips, SimConfig, Simulation};
use rideshare_workload::TripEvent;
use roadnet::io::bin::{self, Reader};
use roadnet::{DistanceOracle, RoadNetError, RoadNetwork};

use crate::server::{LoopState, ServeConfig, ServeLoop, ServeReport, ServiceModel};

/// Journal file magic: **R**ide**S**hare **W**rite-ahead **J**ournal.
const JOURNAL_MAGIC: &[u8; 4] = b"RSWJ";
/// Checkpoint file magic: **R**ide**S**hare ser**V**e **C**heckpoint.
const CKPT_MAGIC: &[u8; 4] = b"RSVC";
/// Shared by the journal and the checkpoint. Version 2 moved the metrics
/// into the loop state; version 3 dropped the sink-saturation rate and
/// its dropped-event counter; version 4 dropped the metrics' copies of
/// loop counters and each histogram's minimum; version 5 dropped the
/// admitted-trip list; version 6 embeds a version-4 simulation
/// checkpoint, version 7 a version-5 one.
const VERSION: u32 = 7;
/// Journal header: magic + version + sim-config digest + serve digest.
const JOURNAL_HEADER_LEN: u64 = 4 + 4 + 8 + 8;
/// Upper bound on a single journal entry body (sanity check on `len`).
const MAX_ENTRY_BYTES: usize = 64 << 20;

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
    bin::put_u64(&mut buf, slo.degrade_queue_watermark as u64);
    bin::put_u64(&mut buf, slo.recover_healthy_ticks);
    bin::put_f64(&mut buf, slo.max_degraded_fraction);
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
    bin::put_u64(&mut buf, f.store_io_errors as u64);
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

/// One write-ahead journal entry: the admission state at the moment a
/// batch was handed to the dispatcher, plus the batch itself.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JournalEntry {
    pub(crate) tick: u64,
    pub(crate) tick_end: f64,
    pub(crate) level: DispatchEffort,
    pub(crate) offered: u64,
    pub(crate) shed_queue_full: u64,
    pub(crate) shed_stale: u64,
    pub(crate) batch: Vec<TripEvent>,
}

impl JournalEntry {
    fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        bin::put_u64(&mut body, self.tick);
        bin::put_f64(&mut body, self.tick_end);
        put_effort(&mut body, self.level);
        bin::put_u64(&mut body, self.offered);
        bin::put_u64(&mut body, self.shed_queue_full);
        bin::put_u64(&mut body, self.shed_stale);
        put_trips(&mut body, &self.batch);
        body
    }

    fn decode(body: &[u8]) -> Result<JournalEntry, RoadNetError> {
        let mut r = Reader::new(body);
        Ok(JournalEntry {
            tick: r.u64("journal tick")?,
            tick_end: r.f64("journal tick_end")?,
            level: read_effort(&mut r)?,
            offered: r.u64("journal offered")?,
            shed_queue_full: r.u64("journal shed_queue_full")?,
            shed_stale: r.u64("journal shed_stale")?,
            batch: read_trips(&mut r, "journal batch")?,
        })
    }
}

fn journal_header(sim_digest: u64, serve_digest: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(JOURNAL_HEADER_LEN as usize);
    out.extend_from_slice(JOURNAL_MAGIC);
    bin::put_u32(&mut out, VERSION);
    bin::put_u64(&mut out, sim_digest);
    bin::put_u64(&mut out, serve_digest);
    out
}

/// Journal contents plus the byte offset past each entry, so resume can
/// truncate precisely at the checkpoint's high-water mark.
struct LoadedJournal {
    entries: Vec<JournalEntry>,
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
    let magic = r.bytes(4, "journal magic")?;
    let version = r.u32("journal version")?;
    if magic != JOURNAL_MAGIC || version != VERSION {
        return Err(RoadNetError::Persist(format!(
            "{} is not a version-{VERSION} serve journal",
            path.display()
        )));
    }
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
    let mut offset = JOURNAL_HEADER_LEN;
    // Frame: [u32 len][body][u64 fnv(body)]. Anything short or with a
    // bad checksum is the torn tail of a crash — stop there.
    while let Ok(len) = r.u32("entry length") {
        let len = len as usize;
        if len > MAX_ENTRY_BYTES || r.remaining() < len + 8 {
            break;
        }
        let Ok(body) = r.bytes(len, "entry body") else {
            break;
        };
        let Ok(sum) = r.u64("entry checksum") else {
            break;
        };
        if bin::fnv1a(body) != sum {
            break;
        }
        let Ok(entry) = JournalEntry::decode(body) else {
            break;
        };
        offset += 4 + len as u64 + 8;
        entries.push(entry);
        end_offsets.push(offset);
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
    expected_tail: Vec<JournalEntry>,
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
        let entry = JournalEntry {
            tick: state.ticks,
            tick_end: state.tick_end,
            level: state.level,
            offered: state.offered,
            shed_queue_full: state.shed_queue_full,
            shed_stale: state.shed_stale,
            batch: batch.to_vec(),
        };
        if let Some(expected) = self.expected_tail.get(self.verified) {
            if self.verify_tail && *expected != entry {
                return Err(RoadNetError::Persist(format!(
                    "journal divergence at entry {}: recovery re-executed tick {} \
                     differently from the pre-crash run",
                    self.verified, entry.tick
                )));
            }
            self.verified += 1;
        }
        let body = entry.encode();
        let mut frame = Vec::with_capacity(4 + body.len() + 8);
        bin::put_u32(&mut frame, body.len() as u32);
        frame.extend_from_slice(&body);
        bin::put_u64(&mut frame, bin::fnv1a(&body));
        self.journal.write_all(&frame)?;
        state.journal_entries += 1;
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
        if self.checkpoint_every == 0 || !state.ticks.is_multiple_of(self.checkpoint_every) {
            return Ok(());
        }
        let write_index = state.ticks / self.checkpoint_every;
        if self.fault.torn_checkpoint(write_index) {
            state.fault_torn_checkpoints += 1;
            // Simulate a crash mid-dump: half the image lands in the temp
            // file and the rename never happens. The previous checkpoint
            // stays intact — exactly what the atomic protocol guarantees.
            let bytes = encode_checkpoint(sim, state);
            let tmp = self.checkpoint_path.with_extension("ckpt.tmp");
            let (torn_half, _) = bytes.split_at(bytes.len() / 2);
            std::fs::write(&tmp, torn_half)?;
            return Ok(());
        }
        let bytes = encode_checkpoint(sim, state);
        let tmp = self.checkpoint_path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &self.checkpoint_path)?;
        Ok(())
    }
}

fn put_state(out: &mut Vec<u8>, state: &LoopState) {
    bin::put_f64(out, state.server_free);
    bin::put_f64(out, state.tick_end);
    bin::put_u64(out, state.ticks);
    bin::put_u64(out, state.dispatch_ticks);
    bin::put_u64(out, state.offered);
    bin::put_u64(out, state.admitted);
    bin::put_u64(out, state.assigned);
    bin::put_u64(out, state.rejected);
    bin::put_u64(out, state.shed_queue_full);
    bin::put_u64(out, state.shed_stale);
    put_effort(out, state.level);
    bin::put_u64(out, state.healthy_streak);
    bin::put_u64(out, state.degraded_ticks);
    bin::put_u64(out, state.level_transitions);
    bin::put_u64(out, state.dispatch_full);
    bin::put_u64(out, state.dispatch_slack_pruned);
    bin::put_u64(out, state.dispatch_greedy);
    bin::put_u64(out, state.fault_oracle_spikes);
    bin::put_u64(out, state.fault_torn_checkpoints);
    state.latency.encode(out);
    state.assigned_latency.encode(out);
    state.tick_compute.encode(out);
    bin::put_u64(out, state.queue_depth_max as u64);
    bin::put_u64(out, state.queue_depth_sum);
    bin::put_u64(out, state.trace_lines);
    bin::put_u64(out, state.io_errors);
    bin::put_u64(out, state.journal_entries);
    let queued: Vec<TripEvent> = state.queue.iter().copied().collect();
    put_trips(out, &queued);
}

fn read_state(r: &mut Reader<'_>) -> Result<LoopState, RoadNetError> {
    let mut state = LoopState::new();
    state.server_free = r.f64("state server_free")?;
    state.tick_end = r.f64("state tick_end")?;
    state.ticks = r.u64("state ticks")?;
    state.dispatch_ticks = r.u64("state dispatch_ticks")?;
    state.offered = r.u64("state offered")?;
    state.admitted = r.u64("state admitted")?;
    state.assigned = r.u64("state assigned")?;
    state.rejected = r.u64("state rejected")?;
    state.shed_queue_full = r.u64("state shed_queue_full")?;
    state.shed_stale = r.u64("state shed_stale")?;
    state.level = read_effort(r)?;
    state.healthy_streak = r.u64("state healthy_streak")?;
    state.degraded_ticks = r.u64("state degraded_ticks")?;
    state.level_transitions = r.u64("state level_transitions")?;
    state.dispatch_full = r.u64("state dispatch_full")?;
    state.dispatch_slack_pruned = r.u64("state dispatch_slack_pruned")?;
    state.dispatch_greedy = r.u64("state dispatch_greedy")?;
    state.fault_oracle_spikes = r.u64("state fault_oracle_spikes")?;
    state.fault_torn_checkpoints = r.u64("state fault_torn_checkpoints")?;
    state.latency = LatencyHistogram::decode(r)?;
    state.assigned_latency = LatencyHistogram::decode(r)?;
    state.tick_compute = LatencyHistogram::decode(r)?;
    state.queue_depth_max = r.u64("state queue_depth_max")? as usize;
    state.queue_depth_sum = r.u64("state queue_depth_sum")?;
    state.trace_lines = r.u64("state trace_lines")?;
    state.io_errors = r.u64("state io_errors")?;
    state.journal_entries = r.u64("state journal_entries")?;
    state.queue = read_trips(r, "state queue")?.into_iter().collect();
    Ok(state)
}

fn encode_checkpoint(sim: &Simulation<'_>, state: &LoopState) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(CKPT_MAGIC);
    bin::put_u32(&mut out, VERSION);
    bin::put_u64(&mut out, digest_config(sim.config()));
    put_state(&mut out, state);
    let sim_bytes = sim.checkpoint_bytes(0, digest_trips(&[]));
    bin::put_u64(&mut out, sim_bytes.len() as u64);
    out.extend_from_slice(&sim_bytes);
    let sum = bin::fnv1a(&out);
    bin::put_u64(&mut out, sum);
    out
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
    let corrupt = |why: &str| {
        eprintln!(
            "warning: serve checkpoint {} is corrupt ({why}); starting fresh",
            path.display()
        );
    };
    let Some((payload, trailer)) = bytes.split_last_chunk::<8>() else {
        corrupt("shorter than its checksum");
        return Ok(None);
    };
    let stored = u64::from_le_bytes(*trailer);
    if bin::fnv1a(payload) != stored {
        corrupt("checksum mismatch");
        return Ok(None);
    }
    let mut r = Reader::new(payload);
    let magic = r.bytes(4, "checkpoint magic")?;
    let version = r.u32("checkpoint version")?;
    if magic != CKPT_MAGIC || version != VERSION {
        corrupt("wrong magic or version");
        return Ok(None);
    }
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
        let mut state = LoopState::new();
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
            if requests != l.state.admitted {
                return Err(RoadNetError::Persist(format!(
                    "checkpoint simulation dispatched {requests} requests but \
                     its loop state admitted {}",
                    l.state.admitted
                )));
            }
            (l.state, sim)
        }
        None => (LoopState::new(), Simulation::new(graph, oracle, sim_config)),
    };

    // The journal tail past the checkpoint is what the dead process did
    // after its last dump; re-execution must reproduce it.
    let at = state.journal_entries as usize;
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
    for _ in 0..state.offered {
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
        for old in [1u32, 2, 3, 4, 5, 6] {
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
                matches!(&err, RoadNetError::Persist(msg) if msg.contains("version-7")),
                "version {old}: {err:?}"
            );
            std::fs::remove_dir_all(&rc.dir).ok();
        }
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
        let mut state = LoopState::new();
        state.admitted = 1;
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
