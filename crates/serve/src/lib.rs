//! Online dispatch serving mode for the ridesharing engine.
//!
//! Everything up to this crate *replays* demand: `paper_replay` feeds the
//! next window of requests as fast as the dispatcher can chew them, so the
//! measured latency is pure matching compute and queueing is invisible by
//! construction. This crate *serves* demand instead — the three pieces a
//! deployment needs between a request stream and the matching engine:
//!
//! * [`arrival`] — open-loop arrival processes ([`PoissonArrivals`],
//!   [`TraceArrivals`]) whose rate is independent of the service rate;
//! * [`server`] — the [`ServeLoop`]: a bounded ingress queue, SLO-gated
//!   admission (backpressure + stale shedding) and fixed dispatch ticks
//!   driven by a virtual clock that charges the dispatcher's compute cost,
//!   and serving-grade observability kept in the loop state: latency
//!   histograms, queue-depth and shed counts and an optional CSV event
//!   trace, each observation counted once;
//! * [`recovery`] — crash safety: a write-ahead dispatch journal plus
//!   periodic checkpoints ([`ServeLoop::run_recoverable`]), and
//!   [`resume_serve`] to pick a killed run back up with accounting
//!   provably intact.
//!
//! The loop also degrades gracefully instead of falling over: under
//! compute or queue pressure it steps the planner down a
//! [`kinetic_core::DispatchEffort`] level (full → slack-pruned → greedy)
//! with hysteresis on recovery, and every injected fault from a seeded
//! [`FaultPlan`] — oracle spikes, torn checkpoint writes,
//! kills — is deterministic and counted on the [`ServeReport`].
//!
//! The serve loop drives the identical [`rideshare_sim::Simulation`] batch
//! API the offline replay uses, so its assignments are bit-identical to a
//! `submit_batch` replay of the same admitted stream — serving changes
//! *which* requests reach the dispatcher (admission) and *when* (ticks),
//! never what the dispatcher decides.
//!
//! The `rideshare-serve` binary wraps the loop for the command line; the
//! capacity sweep in `rideshare-bench` (`serve_sweep`) walks an arrival-rate
//! ladder over it and commits the knee point to `BENCH_serve.json`.

// Determinism (clippy.toml lists the banned clock reads and hash types)
// and no panic path outside tests: a panic here takes down a live service.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

pub mod arrival;
pub mod fault;
pub mod recovery;
pub mod server;
pub mod stats;

pub use arrival::{PoissonArrivals, TraceArrivals};
pub use fault::FaultPlan;
pub use recovery::{resume_serve, RecoveryConfig};
pub use server::{ServeConfig, ServeLoop, ServeReport, ServiceModel, SloConfig};
pub use stats::{LatencyHistogram, LatencySummary};
