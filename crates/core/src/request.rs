//! Trip requests and the service-guarantee constraints attached to them.

use roadnet::{quantize, NodeId};

use crate::types::{Cost, TripId};

/// The service guarantee offered to every rider (Definition 1 of the paper).
///
/// `max_wait` bounds the distance (equivalently, time at constant speed) the
/// vehicle may travel between the moment a request is accepted and the
/// rider's pickup. `detour_factor` is the paper's ε: the on-vehicle distance
/// from pickup to drop-off may not exceed `(1 + ε)` times the shortest-path
/// distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    /// Maximum waiting "time" in meters of vehicle travel (the paper's `w`).
    pub max_wait: Cost,
    /// Maximum relative detour (the paper's ε); 0.2 means at most 20% longer
    /// than the direct shortest path.
    pub detour_factor: f64,
}

impl Constraints {
    /// Creates a constraint set, `max_wait` floored onto the [`Q`](roadnet::Q) grid.
    pub fn new(max_wait: Cost, detour_factor: f64) -> Self {
        Constraints {
            max_wait: quantize(max_wait, f64::floor),
            detour_factor,
        }
    }

    /// The paper's default experimental setting: 10 minutes waiting time
    /// (8,400 m at 14 m/s) and a 20% detour tolerance.
    pub fn paper_default() -> Self {
        Constraints::new(10.0 * 60.0 * 14.0, 0.2)
    }

    /// The five settings of Tables I/II, index 0..5: (5 min, 10%),
    /// (10 min, 20%), (15 min, 30%), (20 min, 40%), (25 min, 50%).
    pub fn paper_setting(index: usize) -> Self {
        let minutes = [5.0, 10.0, 15.0, 20.0, 25.0][index.min(4)];
        let eps = [0.1, 0.2, 0.3, 0.4, 0.5][index.min(4)];
        Constraints::new(minutes * 60.0 * 14.0, eps)
    }

    /// Maximum on-vehicle distance for a trip whose shortest-path distance
    /// is `direct`: `(1 + ε) · direct`, rounded down onto the
    /// [`Q`](roadnet::Q) grid so that every check reads one exact limit.
    pub fn max_ride(&self, direct: Cost) -> Cost {
        quantize((1.0 + self.detour_factor) * direct, f64::floor)
    }
}

impl Default for Constraints {
    fn default() -> Self {
        Constraints::paper_default()
    }
}

/// A rider's trip request (the paper's `tr = <s, e, w, ε>` plus bookkeeping
/// identifiers and the submission time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripRequest {
    /// Unique id of the request.
    pub id: TripId,
    /// Pickup vertex (the paper's `s`).
    pub source: NodeId,
    /// Drop-off vertex (the paper's `e`).
    pub destination: NodeId,
    /// Absolute submission time, in meter-equivalents since simulation start
    /// (the simulator converts seconds to meters at 14 m/s).
    pub submitted_at: Cost,
    /// Service guarantee for this trip.
    pub constraints: Constraints,
}

impl TripRequest {
    /// Creates a request.
    pub fn new(
        id: TripId,
        source: NodeId,
        destination: NodeId,
        submitted_at: Cost,
        constraints: Constraints,
    ) -> Self {
        TripRequest {
            id,
            source,
            destination,
            submitted_at,
            constraints,
        }
    }

    /// Absolute deadline (in meter-equivalents) by which the rider must be
    /// picked up.
    pub fn pickup_deadline(&self) -> Cost {
        self.submitted_at + self.constraints.max_wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_ten_minutes() {
        let c = Constraints::paper_default();
        assert_eq!(c.max_wait, 8_400.0);
        assert_eq!(c.detour_factor, 0.2);
    }

    #[test]
    fn paper_settings_cover_table_one() {
        let c0 = Constraints::paper_setting(0);
        assert_eq!(c0.max_wait, 4_200.0);
        assert_eq!(c0.detour_factor, 0.1);
        let c4 = Constraints::paper_setting(4);
        assert_eq!(c4.max_wait, 21_000.0);
        assert_eq!(c4.detour_factor, 0.5);
        // Out-of-range indexes clamp to the loosest setting.
        assert_eq!(Constraints::paper_setting(99), c4);
    }

    #[test]
    fn max_ride_scales_direct_distance() {
        let c = Constraints::new(1_000.0, 0.25);
        assert_eq!(c.max_ride(2_000.0), 2_500.0);
    }

    #[test]
    fn request_deadline_is_submission_plus_wait() {
        let r = TripRequest::new(7, 1, 2, 500.0, Constraints::new(1_000.0, 0.2));
        assert_eq!(r.pickup_deadline(), 1_500.0);
        assert_eq!(r.constraints.max_ride(300.0), 360.0);
        assert_eq!(r.id, 7);
    }
}
