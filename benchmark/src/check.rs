//! Output checks and the pass digest.
//!
//! A pass is only worth timing if what it computed is right: every check
//! here counts into `failed`, and a non-zero count fails the run.

use kinetic_core::Constraints;
use rideshare_sim::{SimReport, TraceLog};
use roadnet::io::bin;

/// Slack on the rider-by-rider limits, for the seconds↔meters round trip
/// of the trace (the engine itself checks with 1e-6 m).
const TOLERANCE: f64 = 1e-6;

/// What the output checks of one pass found. Every field but `offered`
/// counts failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests offered to the system in the pass.
    pub offered: u64,
    /// `SimReport::guarantee_violations`.
    pub violations: u64,
    /// Riders in the trace picked up after the waiting limit.
    pub late_pickups: u64,
    /// Riders in the trace delivered beyond the detour limit.
    pub over_detour: u64,
    /// Riders assigned but not delivered by the end of the drain.
    pub undelivered: u64,
    /// Requests missing from, or extra in, the engine's books
    /// (`offered = admitted + shed`, `admitted = assigned + rejected`,
    /// one trace entry per admitted request).
    pub unaccounted: u64,
    /// Requests the serve loop shed (the workloads are sized so that no
    /// request is).
    pub shed: u64,
}

impl Tally {
    /// Failures over all checks.
    pub fn failed(&self) -> u64 {
        self.violations
            + self.late_pickups
            + self.over_detour
            + self.undelivered
            + self.unaccounted
            + self.shed
    }
}

/// Checks one finished (drained) replay pass: `offered` requests went in,
/// none was shed.
pub fn check_pass(
    trace: &TraceLog,
    report: &SimReport,
    constraints: Constraints,
    speed_mps: f64,
    offered: u64,
) -> Tally {
    check_admitted(trace, report, constraints, speed_mps, offered, offered, 0)
}

/// Checks one finished pass in which `admitted` of `offered` requests
/// reached the dispatcher and `shed` were dropped before it.
pub fn check_admitted(
    trace: &TraceLog,
    report: &SimReport,
    constraints: Constraints,
    speed_mps: f64,
    offered: u64,
    admitted: u64,
    shed: u64,
) -> Tally {
    let mut tally = Tally {
        offered,
        violations: report.guarantee_violations,
        shed,
        ..Tally::default()
    };
    let max_wait_s = constraints.max_wait / speed_mps;
    for rider in trace.iter().filter(|r| r.was_assigned()) {
        match rider.waited_s() {
            Some(w) if w <= max_wait_s + TOLERANCE => {}
            Some(_) => tally.late_pickups += 1,
            None => tally.undelivered += 1,
        }
        match rider.ride_m {
            Some(ride) if ride <= constraints.max_ride(rider.direct_m) + TOLERANCE => {}
            Some(_) => tally.over_detour += 1,
            // Counted once, above, when it was never picked up either.
            None if rider.picked_up_s.is_some() => tally.undelivered += 1,
            None => {}
        }
    }
    tally.unaccounted = offered.abs_diff(admitted + shed)
        + admitted.abs_diff(report.assigned + report.rejected)
        + admitted.abs_diff(report.requests)
        + admitted.abs_diff(trace.len() as u64);
    tally
}

/// FNV-1a digest of everything a pass decided: every request's lifecycle
/// (vehicle, cost, pickup and delivery times, ride length) and the
/// deterministic fields of the report. Wall-clock fields (ACRT, ART) are
/// left out. Equal digests license taking each step's minimum over passes.
pub fn digest(trace: &TraceLog, report: &SimReport) -> u64 {
    let mut buf = Vec::with_capacity(trace.len() * 64 + 128);
    let opt = |buf: &mut Vec<u8>, v: Option<f64>| bin::put_f64(buf, v.unwrap_or(f64::NAN));
    for r in trace.iter() {
        bin::put_u64(&mut buf, r.trip);
        bin::put_f64(&mut buf, r.submitted_s);
        bin::put_u32(&mut buf, r.vehicle.unwrap_or(u32::MAX));
        opt(&mut buf, r.assignment_cost_m);
        bin::put_u64(&mut buf, r.candidates as u64);
        opt(&mut buf, r.picked_up_s);
        opt(&mut buf, r.delivered_s);
        bin::put_f64(&mut buf, r.direct_m);
        opt(&mut buf, r.ride_m);
    }
    for v in [
        report.requests,
        report.assigned,
        report.rejected,
        report.guarantee_violations,
        report.completed,
        report.occupancy.fleet_max as u64,
    ] {
        bin::put_u64(&mut buf, v);
    }
    for v in [
        report.mean_wait_seconds,
        report.mean_detour_ratio,
        report.fleet_distance_km,
        report.distance_per_delivery_km,
        report.mean_candidates,
        report.mean_candidates_evaluated,
        report.span_seconds,
    ] {
        bin::put_f64(&mut buf, v);
    }
    bin::fnv1a(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rideshare_sim::RequestTrace;

    fn rider(trip: u64, waited_s: f64, ride_m: f64) -> RequestTrace {
        let mut r = RequestTrace::submitted(trip, 100.0, 1_000.0, 5);
        r.vehicle = Some(3);
        r.assignment_cost_m = Some(1_500.0);
        r.picked_up_s = Some(100.0 + waited_s);
        r.delivered_s = Some(400.0);
        r.ride_m = Some(ride_m);
        r
    }

    fn log(riders: &[RequestTrace]) -> TraceLog {
        let mut log = TraceLog::new();
        for r in riders {
            log.push(*r);
        }
        log
    }

    fn report(requests: u64, assigned: u64) -> SimReport {
        SimReport {
            requests,
            assigned,
            rejected: requests - assigned,
            ..SimReport::default()
        }
    }

    #[test]
    fn riders_inside_both_limits_pass() {
        // 10 min at 14 m/s; 20 % detour on a 1 km trip.
        let c = Constraints::paper_default();
        let trace = log(&[rider(0, 600.0, 1_200.0), rider(1, 10.0, 1_000.0)]);
        let t = check_pass(&trace, &report(2, 2), c, 14.0, 2);
        assert_eq!(t.failed(), 0, "{t:?}");
        assert_eq!(t.offered, 2);
    }

    #[test]
    fn each_broken_limit_is_counted() {
        let c = Constraints::paper_default();
        let mut never_picked = RequestTrace::submitted(2, 0.0, 1_000.0, 1);
        never_picked.vehicle = Some(1);
        let trace = log(&[
            rider(0, 600.1, 1_000.0),
            rider(1, 5.0, 1_200.1),
            never_picked,
        ]);
        let mut rep = report(3, 3);
        rep.guarantee_violations = 2;
        let t = check_pass(&trace, &rep, c, 14.0, 3);
        assert_eq!(
            (t.late_pickups, t.over_detour, t.undelivered, t.violations),
            (1, 1, 1, 2)
        );
        assert_eq!(t.failed(), 5);
    }

    #[test]
    fn lost_and_shed_requests_are_counted() {
        let c = Constraints::paper_default();
        let trace = log(&[rider(0, 1.0, 1_000.0)]);
        // 3 offered, 1 shed, 1 admitted: one request vanished.
        let t = check_admitted(&trace, &report(1, 1), c, 14.0, 3, 1, 1);
        assert_eq!((t.unaccounted, t.shed), (1, 1));
        // The engine reports a request the trace does not have.
        let t = check_pass(&trace, &report(2, 1), c, 14.0, 2);
        assert!(t.unaccounted > 0);
    }

    #[test]
    fn digest_sees_decisions_and_ignores_wall_clock() {
        let trace = log(&[rider(0, 30.0, 1_100.0)]);
        let rep = report(1, 1);
        let base = digest(&trace, &rep);
        assert_eq!(base, digest(&trace, &rep));
        let mut timed = rep.clone();
        timed.acrt_ms = 9.9;
        assert_eq!(base, digest(&trace, &timed), "wall clock must not enter");
        let other = log(&[rider(0, 30.0, 1_100.5)]);
        assert_ne!(base, digest(&other, &rep));
        let mut fewer = rep.clone();
        fewer.completed = 7;
        assert_ne!(base, digest(&trace, &fewer));
    }
}
