//! Ridesharing scheduling core.
//!
//! This crate implements the algorithmic contribution of *"Large Scale
//! Real-time Ridesharing with Service Guarantee on Road Networks"* (Huang,
//! Jin, Bastani, Wang — VLDB 2014): matching incoming trip requests to
//! servers (taxis) such that every accepted request keeps its waiting-time
//! and service (detour) guarantees, while the server's total trip cost is
//! minimised.
//!
//! The crate is organised around a single per-vehicle combinatorial problem,
//! [`SchedulingProblem`]: given the vehicle's current location, its on-board
//! passengers (each with a drop-off deadline), its accepted-but-not-yet-
//! picked-up passengers (each with a pickup deadline and a maximum ride
//! distance) and a capacity, find the minimum-cost ordering of the remaining
//! stops that satisfies every constraint. Four solvers are provided:
//!
//! * [`algorithms::BruteForceSolver`] — exhaustive permutation enumeration
//!   with early pruning (the paper's baseline);
//! * [`algorithms::BranchBoundSolver`] — best-first branch and bound with
//!   the paper's minimum-incident-edge lower bound (Sec. II);
//! * [`algorithms::MipScheduleSolver`] — the mixed-integer formulation of Sec. III-A
//!   solved by the workspace's own simplex + branch-and-bound solver;
//! * [`kinetic::KineticTree`] — the paper's contribution: a prefix tree of
//!   all valid schedules that is maintained incrementally as the vehicle
//!   moves and as requests are inserted, with optional slack-time filtering
//!   (Theorem 1) and hotspot clustering (Sec. V).
//!
//! [`Vehicle`] packages a server's state with a pluggable planner and
//! [`dispatch::Dispatcher`] runs the fleet-level matching loop: grid-index
//! candidate filtering read nearest cell first, an O(1) slack screen,
//! best-first evaluation by admissible lower bound with an early exit,
//! minimum-cost assignment with cost ties broken to the lowest vehicle id.
//! It is the only dispatcher — per-request submission, batched windows and
//! every serve tick hand each request to
//! [`dispatch::Dispatcher::assign_synced`] one at a time, in order, on the
//! calling thread.
//!
//! All quantities are measured in meters. With the paper's constant speed of
//! 14 m/s, meters and seconds are interchangeable; the simulation crate
//! performs that conversion at its boundary.

// Determinism (clippy.toml lists the banned clock reads and hash types)
// and no panicking shortcuts outside tests (clippy.toml's allow-*-in-tests).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

pub mod algorithms;
pub mod codec;
pub mod dispatch;
pub mod kinetic;
pub mod problem;
pub mod request;
pub mod types;
pub mod vehicle;

pub use algorithms::{
    BranchBoundSolver, BruteForceSolver, MipScheduleSolver, ScheduleSolver, SolverKind,
    SolverOutcome,
};
pub use dispatch::{
    AssignmentOutcome, DispatchEffort, DispatchStats, Dispatcher, DispatcherConfig, LazySync,
};
pub use kinetic::{KineticConfig, KineticTree, TreeInsertError, TreeStats};
pub use problem::{
    OnboardTrip, ProbeScratch, Schedule, SchedulingProblem, ValidationError, WaitingTrip,
};
pub use request::{Constraints, TripRequest};
pub use types::{Cost, Stop, StopKind, TripId};
pub use vehicle::{PlannerKind, Proposal, Vehicle};
