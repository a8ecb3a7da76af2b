//! Per-request lifecycle tracing and CSV export.
//!
//! The aggregate [`crate::SimReport`] answers "how did the system do?";
//! operators and researchers also want the per-request story — when was each
//! request submitted, which vehicle took it, how long did the rider wait,
//! how much detour did they experience. [`TraceLog`] collects those events
//! and serialises them to a simple CSV that spreadsheet tools and plotting
//! scripts ingest directly.

use std::fmt::Write as _;

use kinetic_core::TripId;

/// Lifecycle of one trip request as observed by the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestTrace {
    /// Request id.
    pub trip: TripId,
    /// Submission time, seconds from simulation start.
    pub submitted_s: f64,
    /// Vehicle the request was assigned to, if any.
    pub vehicle: Option<u32>,
    /// Cost (meters) of the winning augmented schedule at assignment time.
    pub assignment_cost_m: Option<f64>,
    /// Number of candidate vehicles examined.
    pub candidates: usize,
    /// Pickup time, seconds from simulation start.
    pub picked_up_s: Option<f64>,
    /// Delivery time, seconds from simulation start.
    pub delivered_s: Option<f64>,
    /// Direct shortest-path distance of the trip, meters.
    pub direct_m: f64,
    /// Realised on-vehicle distance, meters (delivery only).
    pub ride_m: Option<f64>,
}

impl RequestTrace {
    /// Creates a trace entry for a newly submitted request.
    pub fn submitted(trip: TripId, submitted_s: f64, direct_m: f64, candidates: usize) -> Self {
        RequestTrace {
            trip,
            submitted_s,
            vehicle: None,
            assignment_cost_m: None,
            candidates,
            picked_up_s: None,
            delivered_s: None,
            direct_m,
            ride_m: None,
        }
    }

    /// Realised waiting time in seconds, when picked up.
    pub fn waited_s(&self) -> Option<f64> {
        self.picked_up_s.map(|p| p - self.submitted_s)
    }

    /// Realised detour ratio (ride / direct), when delivered.
    pub fn detour_ratio(&self) -> Option<f64> {
        match (self.ride_m, self.direct_m) {
            (Some(ride), direct) if direct > 0.0 => Some(ride / direct),
            _ => None,
        }
    }

    /// True when the request was assigned to a vehicle.
    pub fn was_assigned(&self) -> bool {
        self.vehicle.is_some()
    }

    /// True when the rider was delivered before the simulation ended.
    pub fn was_delivered(&self) -> bool {
        self.delivered_s.is_some()
    }
}

/// Collected per-request traces of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    entries: Vec<RequestTrace>,
    /// Trip id -> position in `entries`, so a per-event update is a
    /// logarithmic lookup even for day-long workloads with hundreds of
    /// thousands of requests. Only looked up, never iterated.
    index: std::collections::BTreeMap<TripId, usize>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Adds a submission entry and returns its index.
    pub fn push(&mut self, trace: RequestTrace) -> usize {
        let slot = self.entries.len();
        self.index.insert(trace.trip, slot);
        self.entries.push(trace);
        slot
    }

    /// Looks up the entry for a trip id.
    pub fn get(&self, trip: TripId) -> Option<&RequestTrace> {
        self.index.get(&trip).map(|&i| &self.entries[i])
    }

    fn get_mut(&mut self, trip: TripId) -> Option<&mut RequestTrace> {
        let i = *self.index.get(&trip)?;
        self.entries.get_mut(i)
    }

    /// Records an assignment.
    pub fn record_assignment(&mut self, trip: TripId, vehicle: u32, cost_m: f64) {
        if let Some(e) = self.get_mut(trip) {
            e.vehicle = Some(vehicle);
            e.assignment_cost_m = Some(cost_m);
        }
    }

    /// Records a pickup.
    pub fn record_pickup(&mut self, trip: TripId, at_s: f64) {
        if let Some(e) = self.get_mut(trip) {
            e.picked_up_s = Some(at_s);
        }
    }

    /// Records a delivery.
    pub fn record_delivery(&mut self, trip: TripId, at_s: f64, ride_m: f64) {
        if let Some(e) = self.get_mut(trip) {
            e.delivered_s = Some(at_s);
            e.ride_m = Some(ride_m);
        }
    }

    /// Number of traced requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been traced.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the traces in submission order.
    pub fn iter(&self) -> impl Iterator<Item = &RequestTrace> {
        self.entries.iter()
    }

    /// Serialises the log as CSV (header + one row per request).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "trip,submitted_s,vehicle,assignment_cost_m,candidates,picked_up_s,waited_s,delivered_s,direct_m,ride_m,detour_ratio\n",
        );
        for e in &self.entries {
            let opt = |v: Option<f64>| v.map(|x| format!("{x:.3}")).unwrap_or_default();
            let _ = writeln!(
                out,
                "{},{:.3},{},{},{},{},{},{},{:.3},{},{}",
                e.trip,
                e.submitted_s,
                e.vehicle.map(|v| v.to_string()).unwrap_or_default(),
                opt(e.assignment_cost_m),
                e.candidates,
                opt(e.picked_up_s),
                opt(e.waited_s()),
                opt(e.delivered_s),
                e.direct_m,
                opt(e.ride_m),
                opt(e.detour_ratio()),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new();
        log.push(RequestTrace::submitted(1, 10.0, 2_000.0, 5));
        log.push(RequestTrace::submitted(2, 20.0, 1_500.0, 3));
        log.record_assignment(1, 7, 3_200.0);
        log.record_pickup(1, 110.0);
        log.record_delivery(1, 300.0, 2_400.0);
        log
    }

    #[test]
    fn lifecycle_accessors() {
        let log = sample_log();
        let t1 = log.get(1).unwrap();
        assert!(t1.was_assigned());
        assert!(t1.was_delivered());
        assert_eq!(t1.waited_s(), Some(100.0));
        assert!((t1.detour_ratio().unwrap() - 1.2).abs() < 1e-9);
        let t2 = log.get(2).unwrap();
        assert!(!t2.was_assigned());
        assert_eq!(t2.waited_s(), None);
        assert_eq!(t2.detour_ratio(), None);
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
        assert!(log.get(99).is_none());
    }

    #[test]
    fn csv_has_header_and_one_row_per_request() {
        let log = sample_log();
        let csv = log.to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("trip,submitted_s"));
        assert!(lines[1].starts_with("1,10.000,7,3200.000,5,110.000,100.000,300.000"));
        // Unassigned request leaves the optional fields empty.
        assert!(lines[2].starts_with("2,20.000,,,3,,,,"));
    }

    #[test]
    fn updates_to_unknown_trips_are_ignored() {
        let mut log = TraceLog::new();
        log.record_assignment(5, 1, 10.0);
        log.record_pickup(5, 1.0);
        log.record_delivery(5, 2.0, 3.0);
        assert!(log.is_empty());
    }
}
