//! The measuring plane of a `--trace` run: an oracle wrapper that counts
//! calls and busy time per parent step, and the span log written to
//! `benchmark/out/trace-<workload>.jsonl` when the run ends.
//!
//! Nothing here runs in an untraced pass; end-to-end numbers never pay
//! for it, and its own cost is reported as `harness.trace_overhead_ratio`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use roadnet::{DistanceOracle, NodeId, Weight};

use crate::clock::{OracleWork, Step};

/// Mean number of untimed `dist` calls between two timed ones, plus one:
/// about one call in eight is timed.
const SAMPLE_EVERY: u64 = 8;

/// Counts every call into the wrapped oracle and times a sample of them.
/// The harness reads and resets the counters after each engine call,
/// which attributes the work to that call as its parent. Aggregated
/// rather than one span per call, and `dist` sampled rather than timed
/// every time: a dense pass makes millions of `dist` calls, most of them
/// cache hits that cost less than the two clock reads that would bracket
/// them. `shortest_path` calls are few and long; every one is timed.
pub struct Probe<'a, O: ?Sized> {
    inner: &'a O,
    // Statistics only: no other data is published through these, so
    // relaxed ordering is enough (the harness reads them after the engine
    // call has returned and its worker threads have been joined). The
    // sampling countdown is a plain load and store: a lost update between
    // two workers only shifts which call is timed next.
    dist_calls: AtomicU64,
    dist_timed: AtomicU64,
    dist_ns: AtomicU64,
    path_calls: AtomicU64,
    path_ns: AtomicU64,
    countdown: AtomicU64,
    gaps: AtomicU64,
}

impl<'a, O: DistanceOracle + ?Sized> Probe<'a, O> {
    /// Wraps `inner`.
    pub fn new(inner: &'a O) -> Self {
        Probe {
            inner,
            dist_calls: AtomicU64::new(0),
            dist_timed: AtomicU64::new(0),
            dist_ns: AtomicU64::new(0),
            path_calls: AtomicU64::new(0),
            path_ns: AtomicU64::new(0),
            countdown: AtomicU64::new(0),
            gaps: AtomicU64::new(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Untimed calls until the next timed one: uniform in
    /// `0..2 * SAMPLE_EVERY - 1` from a fixed-seed xorshift, so the
    /// sample cannot lock onto a period in the caller's call pattern and
    /// every traced pass samples the same calls.
    fn next_gap(&self) -> u64 {
        let mut x = self.gaps.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.gaps.store(x, Ordering::Relaxed);
        x % (2 * SAMPLE_EVERY - 1)
    }
}

/// What the pass driver needs from a probe, whatever oracle it wraps.
pub trait Tap {
    /// Returns the work seen since the last call and resets the counters.
    fn take(&self) -> OracleWork;
}

impl<O: ?Sized> Tap for Probe<'_, O> {
    fn take(&self) -> OracleWork {
        OracleWork {
            dist_calls: self.dist_calls.swap(0, Ordering::Relaxed),
            dist_timed: self.dist_timed.swap(0, Ordering::Relaxed),
            dist_ns: self.dist_ns.swap(0, Ordering::Relaxed),
            path_calls: self.path_calls.swap(0, Ordering::Relaxed),
            path_ns: self.path_ns.swap(0, Ordering::Relaxed),
        }
    }
}

impl<O: DistanceOracle + ?Sized> DistanceOracle for Probe<'_, O> {
    fn dist(&self, s: NodeId, t: NodeId) -> Weight {
        self.dist_calls.fetch_add(1, Ordering::Relaxed);
        let left = self.countdown.load(Ordering::Relaxed);
        if left > 0 {
            self.countdown.store(left - 1, Ordering::Relaxed);
            return self.inner.dist(s, t);
        }
        self.countdown.store(self.next_gap(), Ordering::Relaxed);
        let start = Instant::now();
        let d = self.inner.dist(s, t);
        let ns = start.elapsed().as_nanos() as u64;
        self.dist_timed.fetch_add(1, Ordering::Relaxed);
        self.dist_ns.fetch_add(ns, Ordering::Relaxed);
        d
    }

    fn shortest_path(&self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        let start = Instant::now();
        let p = self.inner.shortest_path(s, t);
        let ns = start.elapsed().as_nanos() as u64;
        self.path_calls.fetch_add(1, Ordering::Relaxed);
        self.path_ns.fetch_add(ns, Ordering::Relaxed);
        p
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn nodes_within(&self, s: NodeId, radius: Weight) -> Vec<(NodeId, Weight)> {
        self.inner.nodes_within(s, radius)
    }
}

/// Spans of a traced run, held in memory until the run ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    lines: Vec<String>,
    next_id: u64,
}

impl SpanLog {
    /// Records one traced pass: a root span for the pass, one child span
    /// per engine call (its step id is its position in the pass) and,
    /// under each call that used the oracle, one aggregated child per
    /// oracle entry point carrying the call count, how many of the calls
    /// were timed and the time those took.
    pub fn record_pass(&mut self, workload: &str, pass: usize, steps: &[Step]) {
        let root = self.id();
        let total: u64 = steps.iter().map(|s| s.nanos).sum();
        self.push(format!(
            "{{\"span\":{root},\"parent\":null,\"name\":\"pass\",\"workload\":\"{workload}\",\
             \"pass\":{pass},\"start_ns\":0,\"end_ns\":{total},\"steps\":{}}}",
            steps.len()
        ));
        let mut at = 0u64;
        for (step_id, s) in steps.iter().enumerate() {
            let span = self.id();
            let end = at + s.nanos;
            self.push(format!(
                "{{\"span\":{span},\"parent\":{root},\"name\":\"{}\",\"step\":{step_id},\
                 \"start_ns\":{at},\"end_ns\":{end},\"requests\":{}}}",
                s.kind.name(),
                s.requests
            ));
            let o = s.oracle;
            for (name, calls, timed, timed_ns) in [
                ("oracle.dist", o.dist_calls, o.dist_timed, o.dist_ns),
                (
                    "oracle.shortest_path",
                    o.path_calls,
                    o.path_calls,
                    o.path_ns,
                ),
            ] {
                if calls > 0 {
                    let child = self.id();
                    self.push(format!(
                        "{{\"span\":{child},\"parent\":{span},\"name\":\"{name}\",\
                         \"step\":{step_id},\"calls\":{calls},\"timed_calls\":{timed},\
                         \"timed_ns\":{timed_ns}}}"
                    ));
                }
            }
            at = end;
        }
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn push(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Number of span lines held.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// The log as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::StepKind;
    use roadnet::{GeneratorConfig, MatrixOracle, NetworkKind};

    #[test]
    fn probe_counts_calls_per_parent_step_and_returns_the_same_answers() {
        let graph = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 4, cols: 4 },
            ..GeneratorConfig::default()
        }
        .generate();
        let inner = MatrixOracle::new(&graph);
        let probe = Probe::new(&inner);
        assert_eq!(probe.dist(0, 15), inner.dist(0, 15));
        assert_eq!(probe.dist(3, 9), inner.dist(3, 9));
        assert_eq!(probe.shortest_path(0, 15), inner.shortest_path(0, 15));
        let first = probe.take();
        assert_eq!((first.dist_calls, first.path_calls), (2, 1));
        // The very first `dist` call is always timed.
        assert!(first.dist_timed >= 1 && first.dist_timed <= 2);
        // Taking resets: the next parent step starts from zero.
        assert_eq!(probe.take(), OracleWork::default());
    }

    #[test]
    fn probe_times_about_one_dist_call_in_eight() {
        let graph = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 4, cols: 4 },
            ..GeneratorConfig::default()
        }
        .generate();
        let inner = MatrixOracle::new(&graph);
        let probe = Probe::new(&inner);
        for i in 0..80_000u32 {
            probe.dist(i % 16, (i / 16) % 16);
        }
        let w = probe.take();
        assert_eq!(w.dist_calls, 80_000);
        assert!(
            (9_000..11_000).contains(&w.dist_timed),
            "{} of 80000 calls timed",
            w.dist_timed
        );
    }

    #[test]
    fn span_log_links_steps_to_their_pass_and_oracle_work_to_its_step() {
        let mut steps = vec![
            Step::new(StepKind::Advance, 100, 0),
            Step::new(StepKind::Submit, 400, 1),
        ];
        steps[1].oracle.dist_calls = 9;
        steps[1].oracle.dist_timed = 2;
        steps[1].oracle.dist_ns = 250;
        let mut log = SpanLog::default();
        log.record_pass("replay_dense", 0, &steps);
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"name\":\"pass\"") && lines[0].contains("\"end_ns\":500"));
        assert!(lines[1].contains("\"parent\":1") && lines[1].contains("\"name\":\"advance_all\""));
        assert!(lines[2].contains("\"start_ns\":100") && lines[2].contains("\"end_ns\":500"));
        assert!(lines[3].contains("\"parent\":3") && lines[3].contains("\"calls\":9"));
        assert!(lines[3].contains("\"timed_calls\":2") && lines[3].contains("\"timed_ns\":250"));
    }
}
