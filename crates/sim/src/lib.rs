//! Discrete-event real-time ridesharing simulator.
//!
//! This crate reproduces the paper's simulation framework (Sec. VI): trip
//! requests are submitted in real time according to their timestamps,
//! vehicles drive along shortest paths at a constant 14 m/s (so distance and
//! time are interchangeable), idle vehicles cruise by picking a random
//! road segment at every intersection, and each incoming request is matched
//! to the candidate vehicle (found through the grid spatial index) that can
//! serve it at minimum augmented trip cost.
//!
//! The simulator measures the paper's two latency metrics — average customer
//! response time (ACRT) and average response time per vehicle evaluation
//! bucketed by the vehicle's current request count (ART) — plus service
//! quality metrics (waiting times, detour ratios, guarantee violations,
//! which must always be zero) and the occupancy statistics quoted in
//! Sec. VI-B.
//!
//! ```
//! use rideshare_sim::{SimConfig, Simulation};
//! use rideshare_workload::{CityConfig, DemandConfig, Workload};
//! use roadnet::CachedOracle;
//!
//! let workload = Workload::generate(
//!     &CityConfig::small(),
//!     &DemandConfig { trips: 30, ..DemandConfig::default() },
//!     1,
//! );
//! let oracle = CachedOracle::new(&workload.network);
//! let config = SimConfig { vehicles: 10, ..SimConfig::default() };
//! let mut sim = Simulation::new(&workload.network, &oracle, config);
//! let report = sim.run(&workload.trips);
//! assert_eq!(report.requests, 30);
//! assert_eq!(report.guarantee_violations, 0);
//! ```

// Determinism (clippy.toml lists the banned clock reads and hash types)
// and no panicking shortcuts outside tests (clippy.toml's allow-*-in-tests).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod checkpoint;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod shard;
pub mod trace;

pub use checkpoint::{digest_config, digest_trips};
pub use config::SimConfig;
pub use engine::Simulation;
pub use metrics::{OccupancyStats, Pickup, SimReport};
pub use shard::{ShardNetStats, ShardedSimulation};
pub use trace::{RequestTrace, TraceLog};
