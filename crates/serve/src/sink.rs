//! Serving metrics, folded inline into the serve loop's state.
//!
//! Every [`MetricEvent`] the serve loop emits goes straight into
//! [`SinkOutput::record`]: one O(1) bucket increment in a
//! [`LatencyHistogram`] or a gauge update, on the loop's own thread. The
//! aggregates are exact, not sampled, and no event is ever dropped. With a
//! trace writer attached, `record` also appends one CSV line per event; a write
//! failure is counted in [`SinkOutput::io_errors`], never propagated, so a
//! bad disk degrades the trace, never the aggregates or the dispatch.
//!
//! Folding inline costs the measured latency nothing: the
//! [`ServiceModel::Measured`](crate::ServiceModel::Measured) model charges
//! only the wall time of `advance_all` + `submit_batch` to the virtual
//! clock, and events are emitted outside that window.

use std::io::Write;

use kinetic_core::LatencyHistogram;
use roadnet::io::bin::{self, Reader};
use roadnet::RoadNetError;

/// Why a request was shed instead of dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded ingress queue was full when the request arrived.
    QueueFull,
    /// The request sat in the queue longer than the admission budget and
    /// was dropped before dispatch (its match would have been too late to
    /// be useful anyway).
    Stale,
}

/// One observation emitted by the serve loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricEvent {
    /// A dispatched request's admission-to-assignment latency.
    Latency {
        /// Virtual seconds from arrival to the dispatch decision.
        seconds: f64,
        /// Whether the dispatcher assigned a vehicle (vs rejecting).
        assigned: bool,
    },
    /// Ingress queue depth sampled at a tick boundary.
    QueueDepth {
        /// Requests waiting in the queue.
        depth: usize,
    },
    /// A request was shed.
    Shed {
        /// Why it was shed.
        reason: ShedReason,
    },
    /// One dispatch tick's compute cost.
    TickCompute {
        /// Modeled (or measured) compute seconds for the tick.
        seconds: f64,
        /// Requests dispatched in the tick.
        batch: usize,
    },
}

/// The serve run's metrics: every [`MetricEvent`] folded in by
/// [`SinkOutput::record`]. It is part of the loop state, so a serve
/// checkpoint carries it and a recovered run resumes it exactly.
///
/// ```
/// use rideshare_serve::sink::{MetricEvent, SinkOutput};
///
/// let mut out = SinkOutput::default();
/// for i in 0..100 {
///     out.record(MetricEvent::Latency { seconds: 0.01 * i as f64, assigned: true }, None);
/// }
/// out.record(MetricEvent::QueueDepth { depth: 42 }, None);
/// assert_eq!(out.latency.count(), 100); // exact: every event is folded
/// assert_eq!(out.queue_depth_max, 42);
/// assert_eq!(out.events, 101);
/// ```
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SinkOutput {
    /// Admission-to-assignment latency of every dispatched request.
    pub latency: LatencyHistogram,
    /// Latency of assigned requests only.
    pub assigned_latency: LatencyHistogram,
    /// Per-tick dispatch compute cost.
    pub tick_compute: LatencyHistogram,
    /// Deepest queue observed at any tick boundary.
    pub queue_depth_max: usize,
    /// Sum of sampled queue depths (for the mean).
    pub queue_depth_sum: u64,
    /// Number of queue-depth samples.
    pub queue_depth_samples: u64,
    /// Requests shed because the ingress queue was full.
    pub shed_queue_full: u64,
    /// Requests shed because they went stale in the queue.
    pub shed_stale: u64,
    /// Events folded in.
    pub events: u64,
    /// Trace lines successfully written (0 without a writer).
    pub trace_lines: u64,
    /// Trace write failures (aggregation continues regardless).
    pub io_errors: u64,
}

impl SinkOutput {
    /// Folds one event into the aggregates. With `Some(trace)` it also
    /// writes the event's CSV line (`latency,<s>,<assigned>` /
    /// `queue_depth,<n>` / `shed,<reason>` / `tick,<s>,<batch>`), counting
    /// it in [`Self::trace_lines`] or, if the write fails, in
    /// [`Self::io_errors`].
    pub fn record(&mut self, event: MetricEvent, trace: Option<&mut (dyn Write + '_)>) {
        self.events += 1;
        match event {
            MetricEvent::Latency { seconds, assigned } => {
                self.latency.record(seconds);
                if assigned {
                    self.assigned_latency.record(seconds);
                }
            }
            MetricEvent::QueueDepth { depth } => {
                self.queue_depth_max = self.queue_depth_max.max(depth);
                self.queue_depth_sum += depth as u64;
                self.queue_depth_samples += 1;
            }
            MetricEvent::Shed {
                reason: ShedReason::QueueFull,
            } => self.shed_queue_full += 1,
            MetricEvent::Shed {
                reason: ShedReason::Stale,
            } => self.shed_stale += 1,
            MetricEvent::TickCompute { seconds, .. } => self.tick_compute.record(seconds),
        }
        let Some(w) = trace else {
            return;
        };
        let written = match event {
            MetricEvent::Latency { seconds, assigned } => {
                writeln!(w, "latency,{seconds:.6},{assigned}")
            }
            MetricEvent::QueueDepth { depth } => writeln!(w, "queue_depth,{depth}"),
            MetricEvent::Shed {
                reason: ShedReason::QueueFull,
            } => writeln!(w, "shed,queue_full"),
            MetricEvent::Shed {
                reason: ShedReason::Stale,
            } => writeln!(w, "shed,stale"),
            MetricEvent::TickCompute { seconds, batch } => writeln!(w, "tick,{seconds:.6},{batch}"),
        };
        match written {
            Ok(()) => self.trace_lines += 1,
            Err(_) => self.io_errors += 1,
        }
    }

    /// Mean sampled queue depth.
    pub fn queue_depth_mean(&self) -> f64 {
        if self.queue_depth_samples == 0 {
            0.0
        } else {
            self.queue_depth_sum as f64 / self.queue_depth_samples as f64
        }
    }

    /// Appends the full aggregate state in the workspace binary
    /// conventions, so a serve checkpoint carries the metrics and a
    /// recovered run resumes them bit-identically.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.latency.encode(out);
        self.assigned_latency.encode(out);
        self.tick_compute.encode(out);
        bin::put_u64(out, self.queue_depth_max as u64);
        bin::put_u64(out, self.queue_depth_sum);
        bin::put_u64(out, self.queue_depth_samples);
        bin::put_u64(out, self.shed_queue_full);
        bin::put_u64(out, self.shed_stale);
        bin::put_u64(out, self.events);
        bin::put_u64(out, self.trace_lines);
        bin::put_u64(out, self.io_errors);
    }

    /// Reads aggregates written by [`SinkOutput::encode`]; never panics on
    /// malformed input.
    pub fn decode(r: &mut Reader<'_>) -> Result<SinkOutput, RoadNetError> {
        Ok(SinkOutput {
            latency: LatencyHistogram::decode(r)?,
            assigned_latency: LatencyHistogram::decode(r)?,
            tick_compute: LatencyHistogram::decode(r)?,
            queue_depth_max: r.u64("sink queue depth max")? as usize,
            queue_depth_sum: r.u64("sink queue depth sum")?,
            queue_depth_samples: r.u64("sink queue depth samples")?,
            shed_queue_full: r.u64("sink shed queue full")?,
            shed_stale: r.u64("sink shed stale")?,
            events: r.u64("sink events")?,
            trace_lines: r.u64("sink trace lines")?,
            io_errors: r.u64("sink io errors")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_are_exact_and_lossless() {
        let mut out = SinkOutput::default();
        for i in 0..10_000u64 {
            out.record(
                MetricEvent::Latency {
                    seconds: (i % 100) as f64 * 1e-3,
                    assigned: i % 10 != 0,
                },
                None,
            );
        }
        for reason in [ShedReason::QueueFull, ShedReason::Stale, ShedReason::Stale] {
            out.record(MetricEvent::Shed { reason }, None);
        }
        for d in [3usize, 9, 1] {
            out.record(MetricEvent::QueueDepth { depth: d }, None);
        }
        assert_eq!(out.latency.count(), 10_000);
        assert_eq!(out.assigned_latency.count(), 9_000);
        assert_eq!(out.shed_queue_full, 1);
        assert_eq!(out.shed_stale, 2);
        assert_eq!(out.queue_depth_max, 9);
        assert_eq!(out.queue_depth_samples, 3);
        assert!((out.queue_depth_mean() - 13.0 / 3.0).abs() < 1e-12);
        assert_eq!(out.events, 10_006);
        assert_eq!(out.trace_lines, 0);
    }

    #[test]
    fn trace_writer_receives_one_line_per_event() {
        let mut buf = Vec::new();
        let mut out = SinkOutput::default();
        for event in [
            MetricEvent::Latency {
                seconds: 0.5,
                assigned: true,
            },
            MetricEvent::TickCompute {
                seconds: 0.001,
                batch: 7,
            },
            MetricEvent::Shed {
                reason: ShedReason::Stale,
            },
            MetricEvent::QueueDepth { depth: 4 },
        ] {
            out.record(event, Some(&mut buf));
        }
        assert_eq!(out.trace_lines, 4);
        assert_eq!(out.io_errors, 0);
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "latency,0.500000,true",
                "tick,0.001000,7",
                "shed,stale",
                "queue_depth,4"
            ]
        );
    }

    #[test]
    fn a_cloned_snapshot_resumes_exactly() {
        let mut out = SinkOutput::default();
        for i in 0..500 {
            out.record(
                MetricEvent::Latency {
                    seconds: i as f64 * 1e-3,
                    assigned: true,
                },
                None,
            );
        }
        // A checkpoint's copy of the metrics is a clone.
        let snap = out.clone();
        assert_eq!(snap.latency.count(), 500);
        let stale = MetricEvent::Shed {
            reason: ShedReason::Stale,
        };
        // Events after the clone do not retroactively appear in it.
        out.record(stale, None);
        assert_eq!(snap.shed_stale, 0);
        assert_eq!(out.shed_stale, 1);

        // The clone continues where it left off, to the same state.
        let mut resumed = snap.clone();
        resumed.record(stale, None);
        assert_eq!(resumed.events, snap.events + 1);
        assert_eq!(resumed, out, "metrics resume exactly");
    }

    #[test]
    fn sink_output_encode_decode_roundtrips() {
        let mut out = SinkOutput::default();
        for i in 0..100 {
            out.record(
                MetricEvent::Latency {
                    seconds: i as f64 * 2e-3,
                    assigned: i % 3 != 0,
                },
                None,
            );
            out.record(MetricEvent::QueueDepth { depth: i % 17 }, None);
        }
        out.record(
            MetricEvent::TickCompute {
                seconds: 0.25,
                batch: 9,
            },
            None,
        );
        let mut buf = Vec::new();
        out.encode(&mut buf);
        let back = SinkOutput::decode(&mut Reader::new(&buf)).expect("roundtrip");
        assert_eq!(back, out);
        // Truncated input errors instead of panicking.
        assert!(SinkOutput::decode(&mut Reader::new(&buf[..buf.len() / 2])).is_err());
    }

    #[test]
    fn io_errors_do_not_poison_aggregation() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("still on fire"))
            }
        }
        let mut out = SinkOutput::default();
        out.record(
            MetricEvent::Latency {
                seconds: 1.0,
                assigned: false,
            },
            Some(&mut FailingWriter),
        );
        assert_eq!(out.latency.count(), 1, "aggregation survives IO failure");
        assert_eq!(out.io_errors, 1);
        assert_eq!(out.trace_lines, 0);
    }
}
