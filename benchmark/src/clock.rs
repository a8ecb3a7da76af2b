//! The step-min clock.
//!
//! Every call the harness makes into the engine is a *step* and is timed
//! on its own. A workload run repeats the identical deterministic pass K
//! times; a step's cost is its minimum over those passes, and every
//! time-based metric is computed from the per-step minima, never from a
//! pass's wall time (see README.md, "The clock", for the evidence that
//! this machine needs it).

use std::time::Instant;

/// Which engine call a step timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// `advance_all` to the next dispatch point.
    Advance,
    /// One `submit`: answers exactly one request.
    Submit,
    /// One `submit_batch`: answers every request of its window.
    Batch,
    /// One serve tick, bracketed by pulls on the arrival iterator.
    Tick,
    /// `drain` (replays), or the serve loop's last tick plus its drain.
    Drain,
}

impl StepKind {
    /// Span name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            StepKind::Advance => "advance_all",
            StepKind::Submit => "submit",
            StepKind::Batch => "submit_batch",
            StepKind::Tick => "serve_tick",
            StepKind::Drain => "drain",
        }
    }

    /// True for the steps whose cost is a request's response time.
    pub fn answers(self) -> bool {
        matches!(self, StepKind::Submit | StepKind::Batch | StepKind::Tick)
    }
}

/// Oracle work observed inside one step by the tracing wrapper
/// (all zero in untraced passes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleWork {
    /// `dist` calls.
    pub dist_calls: u64,
    /// `dist` calls that were timed (about one in eight).
    pub dist_timed: u64,
    /// Busy nanoseconds inside the timed `dist` calls.
    pub dist_ns: u64,
    /// `shortest_path` calls.
    pub path_calls: u64,
    /// Busy nanoseconds inside `shortest_path` (every call is timed).
    pub path_ns: u64,
}

/// One timed engine call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The call that was timed.
    pub kind: StepKind,
    /// Wall nanoseconds of the call.
    pub nanos: u64,
    /// Requests the call handed to the dispatcher (0 for advance/drain).
    pub requests: u32,
    /// Oracle child work inside the call (traced passes only).
    pub oracle: OracleWork,
}

impl OracleWork {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: OracleWork) {
        self.dist_calls += other.dist_calls;
        self.dist_timed += other.dist_timed;
        self.dist_ns += other.dist_ns;
        self.path_calls += other.path_calls;
        self.path_ns += other.path_ns;
    }

    /// Estimated busy nanoseconds inside all `dist` calls: the timed
    /// calls' mean, less the one clock read that falls inside each timed
    /// interval, times the call count.
    pub fn dist_busy_ns(&self, timer_ns: f64) -> f64 {
        if self.dist_timed == 0 {
            return 0.0;
        }
        let mean = self.dist_ns as f64 / self.dist_timed as f64 - timer_ns;
        mean.max(0.0) * self.dist_calls as f64
    }

    /// Busy nanoseconds inside `shortest_path`, less the inside clock
    /// reads.
    pub fn path_busy_ns(&self, timer_ns: f64) -> f64 {
        (self.path_ns as f64 - self.path_calls as f64 * timer_ns).max(0.0)
    }

    /// Clock reads the probe made on behalf of this work: two per timed
    /// call.
    pub fn clock_reads(&self) -> u64 {
        2 * (self.dist_timed + self.path_calls)
    }
}

impl Step {
    /// A step without oracle child data.
    pub fn new(kind: StepKind, nanos: u64, requests: u32) -> Self {
        Step {
            kind,
            nanos,
            requests,
            oracle: OracleWork::default(),
        }
    }
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// Per-step minima over identical passes.
#[derive(Debug, Clone, Default)]
pub struct StepMin {
    /// One entry per step; `nanos` is the minimum seen so far and the
    /// oracle child data comes from the pass that set it.
    pub steps: Vec<Step>,
    /// Wall nanoseconds of each merged pass (sum of its steps).
    pub walls: Vec<u64>,
}

impl StepMin {
    /// Merges one pass. Passes are identical deterministic work, so the
    /// step sequence must have the same shape every time.
    pub fn merge(&mut self, pass: &[Step]) -> Result<(), String> {
        if self.walls.is_empty() {
            self.steps = pass.to_vec();
        } else {
            if pass.len() != self.steps.len() {
                return Err(format!(
                    "pass has {} steps, earlier passes had {}",
                    pass.len(),
                    self.steps.len()
                ));
            }
            for (i, (min, step)) in self.steps.iter_mut().zip(pass).enumerate() {
                if min.kind != step.kind || min.requests != step.requests {
                    return Err(format!(
                        "step {i} is {:?}/{} requests, earlier passes had {:?}/{}",
                        step.kind, step.requests, min.kind, min.requests
                    ));
                }
                if step.nanos < min.nanos {
                    *min = *step;
                }
            }
        }
        self.walls.push(pass.iter().map(|s| s.nanos).sum());
        Ok(())
    }

    /// Number of passes merged.
    pub fn passes(&self) -> usize {
        self.walls.len()
    }

    /// Sum of the per-step minima, in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.steps.iter().map(|s| s.nanos).sum()
    }

    /// Sum of the per-step minima over steps of one kind.
    pub fn kind_ns(&self, kind: StepKind) -> u64 {
        self.of_kind(kind).map(|s| s.nanos).sum()
    }

    /// Steps of one kind.
    pub fn of_kind(&self, kind: StepKind) -> impl Iterator<Item = &Step> {
        self.steps.iter().filter(move |s| s.kind == kind)
    }

    /// Requests over all steps.
    pub fn requests(&self) -> u64 {
        self.steps.iter().map(|s| s.requests as u64).sum()
    }

    /// One response-time sample per request: the step-min of the call
    /// that answered it (its `submit`, its batch's `submit_batch`, its
    /// tick's gap). Sorted ascending. The serve loop's final step also
    /// holds the drain, so its requests have no sample.
    pub fn response_samples_ns(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.requests() as usize);
        for s in self.steps.iter().filter(|s| s.kind.answers()) {
            out.extend(std::iter::repeat_n(s.nanos, s.requests as usize));
        }
        out.sort_unstable();
        out
    }

    /// Median pass wall ÷ step-min total: how much of a typical pass was
    /// machine noise. 1.0 is a silent machine.
    pub fn noise_ratio(&self) -> f64 {
        let mut walls = self.walls.clone();
        walls.sort_unstable();
        match (median(&walls), self.total_ns()) {
            (Some(m), t) if t > 0 => m / t as f64,
            _ => 0.0,
        }
    }
}

/// Median of a sorted slice (mean of the middle two when even).
pub fn median(sorted: &[u64]) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        None
    } else if n % 2 == 1 {
        Some(sorted[n / 2] as f64)
    } else {
        Some((sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0)
    }
}

/// A percentile with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Nearest-rank value.
    pub value: u64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
}

/// Nearest-rank percentile of a sorted slice: the smallest sample with at
/// least `p` of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((n as f64 * p.clamp(0.0, 1.0)).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// Cost of one `Instant::now()` read, in nanoseconds (minimum over a few
/// batches, so a noisy moment does not inflate it).
pub fn timer_ns() -> f64 {
    const READS: u32 = 200_000;
    (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / READS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(nanos: &[u64]) -> Vec<Step> {
        // advance, submit, advance, batch(3), drain
        let kinds = [
            (StepKind::Advance, 0),
            (StepKind::Submit, 1),
            (StepKind::Advance, 0),
            (StepKind::Batch, 3),
            (StepKind::Drain, 0),
        ];
        kinds
            .iter()
            .zip(nanos)
            .map(|(&(k, r), &n)| Step::new(k, n, r))
            .collect()
    }

    #[test]
    fn merge_keeps_the_minimum_of_each_step() {
        let mut m = StepMin::default();
        m.merge(&pass(&[10, 50, 10, 90, 5])).unwrap();
        m.merge(&pass(&[12, 40, 9, 95, 7])).unwrap();
        m.merge(&pass(&[30, 45, 11, 80, 6])).unwrap();
        let mins: Vec<u64> = m.steps.iter().map(|s| s.nanos).collect();
        assert_eq!(mins, vec![10, 40, 9, 80, 5]);
        assert_eq!(m.total_ns(), 144);
        assert_eq!(m.kind_ns(StepKind::Advance), 19);
        assert_eq!(m.passes(), 3);
        assert_eq!(m.walls, vec![165, 163, 172]);
        // Median wall 165 over a step-min total of 144.
        assert!((m.noise_ratio() - 165.0 / 144.0).abs() < 1e-12);
    }

    #[test]
    fn merge_carries_the_oracle_work_of_the_winning_pass() {
        let mut a = pass(&[10, 50, 10, 90, 5]);
        a[1].oracle.dist_calls = 7;
        a[1].oracle.dist_timed = 1;
        a[1].oracle.dist_ns = 30;
        let mut b = pass(&[10, 40, 10, 90, 5]);
        b[1].oracle.dist_calls = 7;
        b[1].oracle.dist_ns = 22;
        let mut m = StepMin::default();
        m.merge(&a).unwrap();
        m.merge(&b).unwrap();
        assert_eq!(m.steps[1].oracle.dist_ns, 22);
    }

    #[test]
    fn sampled_dist_time_scales_to_all_calls() {
        // 800 calls, 100 timed at 130 ns each, 30 ns per clock read.
        let w = OracleWork {
            dist_calls: 800,
            dist_timed: 100,
            dist_ns: 13_000,
            path_calls: 2,
            path_ns: 1_060,
        };
        assert!((w.dist_busy_ns(30.0) - 80_000.0).abs() < 1e-6);
        assert!((w.path_busy_ns(30.0) - 1_000.0).abs() < 1e-9);
        assert_eq!(w.clock_reads(), 204);
        assert_eq!(OracleWork::default().dist_busy_ns(30.0), 0.0);
        let mut sum = w;
        sum.add(w);
        assert_eq!(
            (sum.dist_calls, sum.dist_timed, sum.path_ns),
            (1_600, 200, 2_120)
        );
    }

    #[test]
    fn merge_rejects_a_pass_of_another_shape() {
        let mut m = StepMin::default();
        m.merge(&pass(&[1, 1, 1, 1, 1])).unwrap();
        assert!(m.merge(&pass(&[1, 1, 1, 1])).is_err());
        let mut other = pass(&[1, 1, 1, 1, 1]);
        other[3].requests = 2;
        assert!(m.merge(&other).is_err());
    }

    #[test]
    fn every_request_gets_the_cost_of_the_call_that_answered_it() {
        let mut m = StepMin::default();
        m.merge(&pass(&[10, 50, 10, 90, 5])).unwrap();
        assert_eq!(m.requests(), 4);
        assert_eq!(m.response_samples_ns(), vec![50, 90, 90, 90]);
    }

    #[test]
    fn percentile_is_nearest_rank_and_counts_what_lies_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!((p99.value, p99.samples, p99.beyond), (990, 1000, 10));
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!((p50.value, p50.beyond), (500, 500));
        assert_eq!(percentile(&[7], 0.99).unwrap().value, 7);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1, 2, 3], 1.0).unwrap().beyond, 0);
    }

    #[test]
    fn median_of_even_and_odd_slices() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3]), Some(3.0));
        assert_eq!(median(&[1, 3]), Some(2.0));
        assert_eq!(median(&[1, 3, 10]), Some(3.0));
    }

    #[test]
    fn timer_cost_is_positive_and_small() {
        let t = timer_ns();
        assert!(t > 0.0 && t < 10_000.0, "timer read costs {t} ns");
    }
}
