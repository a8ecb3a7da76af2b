//! Streaming latency statistics for serving-grade observability.
//!
//! [`LatencyHistogram`] is a fixed-size log-bucketed histogram: recording is
//! O(1) with no allocation (one array increment), so it is safe to feed from
//! a dispatch hot path. Percentile queries return the **upper edge** of the
//! bucket holding the requested rank (clamped to the observed maximum), so
//! a reported p99 never understates the true p99 — the conservative
//! direction for latency-SLO gating.
//!
//! The bucket layout covers 100 µs to 10 000 s with a geometric progression
//! (~7.5 % relative resolution per bucket); everything below the range lands
//! in the first bucket and everything above in the last, with the exact
//! observed maximum and sum tracked separately so `mean` and `max` stay
//! exact regardless of bucketing.

use roadnet::io::bin::{self, Reader};
use roadnet::RoadNetError;

/// Smallest bucketed latency, in seconds (100 µs).
const BUCKET_MIN_S: f64 = 1e-4;
/// Largest bucketed latency, in seconds (10 000 s).
const BUCKET_MAX_S: f64 = 1e4;
/// Total bucket count: underflow + 254 geometric buckets + overflow.
const BUCKETS: usize = 256;
/// Number of geometric buckets between the underflow and overflow buckets.
const GEOMETRIC: usize = BUCKETS - 2;

/// A fixed-size log-bucketed latency histogram (see the module docs).
///
/// ```
/// use rideshare_serve::stats::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for i in 1..=1000 {
///     h.record(i as f64 / 1000.0); // 1 ms .. 1 s
/// }
/// assert_eq!(h.count(), 1000);
/// // p50 lands near 0.5 s, with the bucket's ~7.5% resolution.
/// let p50 = h.percentile(0.50);
/// assert!(p50 >= 0.5 && p50 <= 0.56, "p50 = {p50}");
/// // The maximum is exact, and no percentile exceeds it.
/// assert_eq!(h.max(), 1.0);
/// assert!(h.percentile(0.999) <= h.max());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_s: f64,
    max_s: f64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_s: 0.0,
            max_s: 0.0,
        }
    }

    /// The geometric growth factor between consecutive bucket edges.
    fn ratio() -> f64 {
        (BUCKET_MAX_S / BUCKET_MIN_S).powf(1.0 / GEOMETRIC as f64)
    }

    /// Index of the bucket a latency falls into.
    fn bucket(seconds: f64) -> usize {
        if seconds < BUCKET_MIN_S {
            return 0;
        }
        if seconds >= BUCKET_MAX_S {
            return BUCKETS - 1;
        }
        let i = ((seconds / BUCKET_MIN_S).ln() / Self::ratio().ln()).floor() as usize;
        (1 + i).min(BUCKETS - 2)
    }

    /// Upper edge (seconds) of bucket `i` — what percentile queries report.
    fn upper_edge(i: usize) -> f64 {
        if i == 0 {
            BUCKET_MIN_S
        } else {
            BUCKET_MIN_S * Self::ratio().powi(i as i32)
        }
    }

    /// Records one latency observation, in seconds. Negative and NaN inputs
    /// are clamped to zero (they can only come from clock skew upstream and
    /// must not poison the histogram).
    pub fn record(&mut self, seconds: f64) {
        let s = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        #[expect(
            clippy::indexing_slicing,
            reason = "bucket() is below BUCKETS, and new() and decode() both hold exactly BUCKETS counts"
        )]
        {
            self.counts[Self::bucket(s)] += 1;
        }
        self.count += 1;
        self.sum_s += s;
        if s > self.max_s {
            self.max_s = s;
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of all observations, in seconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_s / self.count as f64
        }
    }

    /// Exact largest observation, in seconds (0 when empty).
    pub fn max(&self) -> f64 {
        self.max_s
    }

    /// The latency at or below which a `p` fraction of observations fall,
    /// reported as the holding bucket's upper edge clamped to the exact
    /// observed maximum (so the estimate errs high by at most one bucket,
    /// never low). `p` is clamped to `[0, 1]`; returns 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 1.0);
        // Rank of the observation that covers fraction p (1-based).
        let rank = ((self.count as f64 * p).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if i == BUCKETS - 1 {
                    // Overflow bucket: its geometric edge is meaningless,
                    // so report the exact observed maximum instead.
                    return self.max_s;
                }
                return Self::upper_edge(i).min(self.max_s);
            }
        }
        self.max_s
    }

    /// Appends the histogram's full state to `out` in the
    /// [`kinetic_core::codec`] binary conventions (bucket counts length-prefixed,
    /// `f64` accumulators as IEEE-754 bit patterns), so a serve checkpoint
    /// can carry it and restore it bit-identically.
    pub fn encode(&self, out: &mut Vec<u8>) {
        bin::put_u64(out, self.counts.len() as u64);
        for &c in &self.counts {
            bin::put_u64(out, c);
        }
        bin::put_u64(out, self.count);
        bin::put_f64(out, self.sum_s);
        bin::put_f64(out, self.max_s);
    }

    /// Reads a histogram written by [`LatencyHistogram::encode`]. Never
    /// panics on malformed input; a wrong bucket count (from a different
    /// build's layout, or corruption) is a [`RoadNetError::Persist`].
    pub fn decode(r: &mut Reader<'_>) -> Result<LatencyHistogram, RoadNetError> {
        let n = kinetic_core::codec::read_len(r, 8, "histogram bucket count")?;
        if n != BUCKETS {
            return Err(RoadNetError::Persist(format!(
                "histogram bucket count {n} != expected {BUCKETS}"
            )));
        }
        let mut counts = vec![0u64; n];
        for c in counts.iter_mut() {
            *c = r.u64("histogram bucket")?;
        }
        Ok(LatencyHistogram {
            counts,
            count: r.u64("histogram count")?,
            sum_s: r.f64("histogram sum")?,
            max_s: r.f64("histogram max")?,
        })
    }

    /// The standard serving summary: p50/p90/p99/p999, mean, max, count.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_s: self.mean(),
            p50_s: self.percentile(0.50),
            p90_s: self.percentile(0.90),
            p99_s: self.percentile(0.99),
            p999_s: self.percentile(0.999),
            max_s: self.max(),
        }
    }
}

/// Point-in-time percentile summary of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Observations the summary covers.
    pub count: u64,
    /// Exact mean, in seconds.
    pub mean_s: f64,
    /// Median, in seconds.
    pub p50_s: f64,
    /// 90th percentile, in seconds.
    pub p90_s: f64,
    /// 99th percentile, in seconds.
    pub p99_s: f64,
    /// 99.9th percentile, in seconds.
    pub p999_s: f64,
    /// Exact maximum, in seconds.
    pub max_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.percentile(0.99), 0.0);
        assert_eq!(h.summary(), LatencySummary::default());
    }

    #[test]
    fn single_observation_dominates_every_percentile() {
        let mut h = LatencyHistogram::new();
        h.record(0.25);
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(p), 0.25, "p = {p}");
        }
        assert_eq!(h.mean(), 0.25);
    }

    #[test]
    fn percentiles_are_conservative_and_tight() {
        // Uniform 1 ms .. 10 s: every percentile must lie at or above the
        // true value and within one bucket (~7.5%) of it.
        let mut h = LatencyHistogram::new();
        let n = 10_000;
        for i in 1..=n {
            h.record(i as f64 * 1e-3);
        }
        for (p, truth) in [(0.5, 5.0), (0.9, 9.0), (0.99, 9.9), (0.999, 9.99)] {
            let got = h.percentile(p);
            assert!(got >= truth * 0.999, "p{p}: {got} understates {truth}");
            assert!(got <= truth * 1.08, "p{p}: {got} overshoots {truth}");
        }
        assert!((h.mean() - (n as f64 + 1.0) * 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_observations_are_kept_exactly_in_min_max() {
        let mut h = LatencyHistogram::new();
        h.record(1e-7); // below the first bucket edge
        h.record(50_000.0); // above the last bucket edge
        h.record(-3.0); // clamped to zero
        h.record(f64::NAN); // clamped to zero
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 50_000.0);
        // The three low observations share the underflow bucket.
        assert_eq!(h.percentile(0.75), BUCKET_MIN_S);
        // The overflow bucket still reports the exact max, not an edge.
        assert_eq!(h.percentile(1.0), 50_000.0);
    }

    #[test]
    fn encode_decode_roundtrips_bit_identically() {
        let mut h = LatencyHistogram::new();
        for i in 0..5000 {
            h.record((i % 97) as f64 * 3.3e-3);
        }
        h.record(50_000.0); // overflow bucket + exact max
        let mut buf = Vec::new();
        h.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let back = LatencyHistogram::decode(&mut r).expect("roundtrip");
        assert_eq!(r.remaining(), 0);
        assert_eq!(back, h);
        // The empty histogram round-trips too.
        let empty = LatencyHistogram::new();
        let mut buf = Vec::new();
        empty.encode(&mut buf);
        assert_eq!(
            LatencyHistogram::decode(&mut Reader::new(&buf)).unwrap(),
            empty
        );
        // Truncated input errors instead of panicking.
        for cut in [0, 1, 8, buf.len() - 1] {
            assert!(LatencyHistogram::decode(&mut Reader::new(&buf[..cut])).is_err());
        }
    }

    #[test]
    fn bucket_edges_are_monotone_and_cover_the_range() {
        let mut prev = 0.0;
        for i in 0..BUCKETS {
            let e = LatencyHistogram::upper_edge(i);
            assert!(e > prev, "edges must increase (bucket {i})");
            prev = e;
        }
        assert_eq!(LatencyHistogram::bucket(0.0), 0);
        assert_eq!(LatencyHistogram::bucket(BUCKET_MAX_S * 2.0), BUCKETS - 1);
        // Every in-range value lands in a bucket whose edge bounds it above.
        for v in [1e-4, 1e-3, 0.5, 1.0, 60.0, 9_999.0] {
            let b = LatencyHistogram::bucket(v);
            assert!(LatencyHistogram::upper_edge(b) >= v * 0.999, "v = {v}");
        }
    }
}
