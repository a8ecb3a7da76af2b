//! Simulation configuration.

use kinetic_core::{Constraints, DispatcherConfig, KineticConfig, PlannerKind};
use roadnet::quantize;

/// Parameters of one simulation run.
///
/// Defaults follow the paper's default setting for the four-algorithm
/// comparison (Table I): capacity 4, constraints 10 min / 20%, kinetic-tree
/// planner, 14 m/s driving speed. The fleet size defaults to a small value
/// suitable for tests; the experiment harnesses override it per sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of servers (taxis) in the fleet.
    pub vehicles: usize,
    /// Seats per vehicle (`usize::MAX` = the paper's "unlimited capacity").
    pub capacity: usize,
    /// Waiting-time and detour guarantees offered to every rider.
    pub constraints: Constraints,
    /// Matching algorithm every vehicle uses.
    pub planner: PlannerKind,
    /// Constant driving speed in meters per second (the paper uses 14 m/s).
    pub speed_mps: f64,
    /// Cell size of the moving-object grid index, in meters. The waiting
    /// radius is a good default; the paper uses a simple fixed grid.
    pub grid_cell_meters: f64,
    /// Whether idle vehicles cruise by following random road segments (the
    /// paper's behaviour) or park at their last position.
    pub cruise_when_idle: bool,
    /// Process at most this many requests from the workload (None = all).
    pub max_requests: Option<usize>,
    /// Seed for vehicle placement and cruising decisions.
    pub seed: u64,
    /// Dispatcher behaviour (radius slack, slack pruning).
    pub dispatcher: DispatcherConfig,
    /// Unread. Exists only because the frozen `benchmark/` crate still
    /// writes it; the engine is single-threaded and every value runs the
    /// same. Not part of the checkpoint config digest.
    pub workers: usize,
    /// Width of a dispatch tick in seconds. Requests whose submission
    /// times fall into the same window (`floor(t / window)`) are submitted
    /// together: the fleet advances once, to the window's last request,
    /// and the requests are then dispatched one by one in submission
    /// order; a vehicle is synced to its effective position when a request
    /// first reads it, at most once per window. `0.0` (the default)
    /// dispatches every request individually the moment it arrives. Each
    /// request keeps its own submission time, so for a fixed window width
    /// runs are deterministic; different window widths are different
    /// experiments (vehicles advance once per window rather than per
    /// request) and checkpoints record the width in the config digest.
    pub batch_window_seconds: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            vehicles: 50,
            capacity: 4,
            constraints: Constraints::paper_default(),
            planner: PlannerKind::Kinetic(KineticConfig::basic()),
            speed_mps: 14.0,
            grid_cell_meters: 2_000.0,
            cruise_when_idle: true,
            max_requests: None,
            seed: 0,
            dispatcher: DispatcherConfig::default(),
            workers: 1,
            batch_window_seconds: 0.0,
        }
    }
}

impl SimConfig {
    /// Converts a wall-clock duration in seconds to the meter-equivalent
    /// units used throughout the scheduling core, rounded to the nearest
    /// point of the [`Q`](roadnet::Q) grid (at most 5.5e-7 s at 14 m/s).
    pub fn seconds_to_meters(&self, seconds: f64) -> f64 {
        quantize(seconds * self.speed_mps, f64::round)
    }

    /// Converts meter-equivalents back to seconds.
    pub fn meters_to_seconds(&self, meters: f64) -> f64 {
        meters / self.speed_mps
    }

    /// Whether submission times `a` and `b` (seconds) fall in one dispatch
    /// window, `floor(t / batch_window_seconds)`. Never when windows are
    /// off.
    pub fn same_window(&self, a: f64, b: f64) -> bool {
        let window = self.batch_window_seconds;
        window > 0.0 && (a / window).floor() == (b / window).floor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = SimConfig::default();
        assert_eq!(c.capacity, 4);
        assert_eq!(c.speed_mps, 14.0);
        assert_eq!(c.constraints, Constraints::paper_default());
        assert!(c.cruise_when_idle);
    }

    #[test]
    fn unit_conversions_are_inverse() {
        let c = SimConfig::default();
        let m = c.seconds_to_meters(600.0);
        assert_eq!(m, 8_400.0);
        assert!((c.meters_to_seconds(m) - 600.0).abs() < 1e-9);
    }
}
