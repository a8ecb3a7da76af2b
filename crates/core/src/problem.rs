//! The per-vehicle scheduling problem and schedule validation.
//!
//! When a new request arrives, the only part of a vehicle's trip schedule
//! that can still change is the *unfinished* part: the drop-offs of
//! passengers already on board and the pickups + drop-offs of accepted
//! passengers not yet picked up, plus the new request (the paper's
//! "augmented valid trip schedule"). [`SchedulingProblem`] captures exactly
//! that state, expressed against an absolute clock in meter-equivalents so
//! that deadlines never need to be rewritten as the vehicle moves.
//!
//! Every solver in [`crate::algorithms`] and the kinetic tree in
//! [`crate::kinetic`] consumes this type, and
//! [`SchedulingProblem::validate`] is the shared correctness oracle used in
//! tests to prove they agree.

use std::collections::BTreeSet;

use roadnet::{DistanceOracle, NodeId};

use crate::request::TripRequest;
use crate::types::{Cost, Stop, StopKind, TripId};

/// A passenger already on board: only the drop-off remains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnboardTrip {
    /// Trip id.
    pub trip: TripId,
    /// Drop-off vertex.
    pub dropoff: NodeId,
    /// Absolute clock (meter-equivalents) by which the drop-off must happen
    /// to keep the trip within `(1 + ε)` of its direct distance.
    pub dropoff_deadline: Cost,
}

/// An accepted passenger not yet picked up: pickup and drop-off remain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaitingTrip {
    /// Trip id.
    pub trip: TripId,
    /// Pickup vertex (the request's source).
    pub pickup: NodeId,
    /// Drop-off vertex (the request's destination).
    pub dropoff: NodeId,
    /// Absolute clock by which the pickup must happen (submission time plus
    /// the waiting-time budget `w`).
    pub pickup_deadline: Cost,
    /// Maximum on-vehicle distance from pickup to drop-off,
    /// `(1 + ε) · d(pickup, dropoff)`.
    pub max_ride: Cost,
}

impl WaitingTrip {
    /// `request` as a trip to schedule, given `direct`, the shortest-path
    /// distance from its source to its destination.
    pub fn for_request(request: &TripRequest, direct: Cost) -> Self {
        WaitingTrip {
            trip: request.id,
            pickup: request.source,
            dropoff: request.destination,
            pickup_deadline: request.pickup_deadline(),
            max_ride: request.constraints.max_ride(direct),
        }
    }
}

/// The augmented scheduling problem for one vehicle.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulingProblem {
    /// Vehicle's current vertex.
    pub start: NodeId,
    /// Current absolute clock in meter-equivalents.
    pub now: Cost,
    /// Maximum number of passengers on board simultaneously. `usize::MAX`
    /// models the paper's "unlimited capacity" experiments.
    pub capacity: usize,
    /// Passengers currently on board.
    pub onboard: Vec<OnboardTrip>,
    /// Accepted passengers not yet picked up (including, by convention, the
    /// new request being evaluated).
    pub waiting: Vec<WaitingTrip>,
}

/// An ordering of the remaining stops.
pub type Schedule = Vec<Stop>;

/// Reasons a proposed schedule is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A required stop is missing from the schedule.
    MissingStop(Stop),
    /// A stop appears more than once.
    DuplicateStop(Stop),
    /// A stop refers to a trip the problem does not contain (or a pickup for
    /// a passenger who is already on board).
    UnknownStop(Stop),
    /// A drop-off appears before its pickup.
    DropoffBeforePickup(TripId),
    /// A pickup would happen after the trip's waiting-time deadline.
    WaitingTimeViolated {
        /// The violating trip.
        trip: TripId,
        /// Absolute arrival clock at the pickup.
        arrival: Cost,
        /// The trip's pickup deadline.
        deadline: Cost,
    },
    /// The on-vehicle distance would exceed the trip's service constraint.
    ServiceConstraintViolated {
        /// The violating trip.
        trip: TripId,
        /// On-vehicle distance the schedule would impose.
        ride: Cost,
        /// Maximum allowed on-vehicle distance.
        limit: Cost,
    },
    /// More passengers would be on board than the vehicle can carry.
    CapacityExceeded {
        /// Number of passengers after the violating pickup.
        onboard: usize,
        /// Vehicle capacity.
        capacity: usize,
    },
    /// Two consecutive stops are not connected in the road network.
    Unreachable(NodeId, NodeId),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::MissingStop(s) => write!(f, "schedule is missing stop {s}"),
            ValidationError::DuplicateStop(s) => write!(f, "schedule repeats stop {s}"),
            ValidationError::UnknownStop(s) => write!(f, "schedule contains unknown stop {s}"),
            ValidationError::DropoffBeforePickup(t) => {
                write!(f, "trip {t} is dropped off before being picked up")
            }
            ValidationError::WaitingTimeViolated {
                trip,
                arrival,
                deadline,
            } => write!(
                f,
                "trip {trip} picked up at {arrival:.0} after deadline {deadline:.0}"
            ),
            ValidationError::ServiceConstraintViolated { trip, ride, limit } => write!(
                f,
                "trip {trip} rides {ride:.0} m exceeding limit {limit:.0} m"
            ),
            ValidationError::CapacityExceeded { onboard, capacity } => {
                write!(
                    f,
                    "{onboard} passengers on board exceeds capacity {capacity}"
                )
            }
            ValidationError::Unreachable(a, b) => write!(f, "no path between {a} and {b}"),
        }
    }
}

impl std::error::Error for ValidationError {}

impl SchedulingProblem {
    /// Creates an empty problem for a vehicle at `start` with `capacity`
    /// seats at clock `now`.
    pub fn new(start: NodeId, now: Cost, capacity: usize) -> Self {
        SchedulingProblem {
            start,
            now,
            capacity,
            onboard: Vec::new(),
            waiting: Vec::new(),
        }
    }

    /// All stops that a complete schedule must contain.
    pub fn required_stops(&self) -> Vec<Stop> {
        let mut stops = Vec::with_capacity(self.onboard.len() + 2 * self.waiting.len());
        for t in &self.onboard {
            stops.push(Stop::dropoff(t.trip, t.dropoff));
        }
        for t in &self.waiting {
            stops.push(Stop::pickup(t.trip, t.pickup));
            stops.push(Stop::dropoff(t.trip, t.dropoff));
        }
        stops
    }

    /// Number of stops a complete schedule contains.
    pub fn num_stops(&self) -> usize {
        self.onboard.len() + 2 * self.waiting.len()
    }

    /// Number of distinct trips (on board + waiting).
    pub fn num_trips(&self) -> usize {
        self.onboard.len() + self.waiting.len()
    }

    /// Looks up a waiting trip by id.
    pub fn waiting_trip(&self, trip: TripId) -> Option<&WaitingTrip> {
        self.waiting.iter().find(|t| t.trip == trip)
    }

    /// Looks up an on-board trip by id.
    pub fn onboard_trip(&self, trip: TripId) -> Option<&OnboardTrip> {
        self.onboard.iter().find(|t| t.trip == trip)
    }

    /// Moves the vehicle to `stop`, reached at clock `now`, and books it:
    /// a pickup moves its trip on board with the drop-off deadline fixed
    /// at `now + max_ride`; a drop-off completes its trip.
    pub fn serve(&mut self, stop: Stop, now: Cost) {
        self.start = stop.node;
        self.now = now;
        match stop.kind {
            StopKind::Pickup => {
                if let Some(pos) = self.waiting.iter().position(|t| t.trip == stop.trip) {
                    let t = self.waiting.remove(pos);
                    self.onboard.push(OnboardTrip {
                        trip: t.trip,
                        dropoff: t.dropoff,
                        dropoff_deadline: now + t.max_ride,
                    });
                }
            }
            StopKind::Dropoff => {
                self.onboard.retain(|t| t.trip != stop.trip);
                // A valid schedule never drops off a trip it has not
                // picked up, but keep the bookkeeping consistent.
                self.waiting.retain(|t| t.trip != stop.trip);
            }
        }
    }

    /// Validates a complete schedule and returns its total cost (distance
    /// from the vehicle's current location through every stop in order).
    pub fn validate(
        &self,
        schedule: &[Stop],
        oracle: &dyn DistanceOracle,
    ) -> Result<Cost, ValidationError> {
        // Completeness: every required stop exactly once, nothing else.
        // Walked in schedule order so the reported offender is always the
        // first one in the schedule, not whichever a hash walk yields.
        let required = self.required_stops();
        let mut seen = BTreeSet::new();
        for &stop in schedule {
            if !seen.insert(stop) {
                return Err(ValidationError::DuplicateStop(stop));
            }
            if !required.contains(&stop) {
                return Err(ValidationError::UnknownStop(stop));
            }
        }
        for &stop in &required {
            if !seen.contains(&stop) {
                return Err(ValidationError::MissingStop(stop));
            }
        }
        // Walk the schedule with the shared step validator.
        let mut walker = ScheduleWalker::new(self);
        for &stop in schedule {
            walker.advance(stop, oracle)?;
        }
        Ok(walker.cum_dist)
    }

    /// Convenience: true when `schedule` is a complete valid schedule.
    pub fn is_valid(&self, schedule: &[Stop], oracle: &dyn DistanceOracle) -> bool {
        self.validate(schedule, oracle).is_ok()
    }
}

/// The buffers behind a [`ScheduleWalker`]'s prefix lists, kept between
/// walks: a caller that prices many insertions (the dispatcher probing its
/// candidates) lends the same pair to each walk instead of allocating one
/// per walk. Holds nothing a walk reads: every walk starts by clearing it.
#[derive(Debug, Clone, Default)]
pub struct ProbeScratch {
    picked_at: Vec<(TripId, Cost)>,
    dropped: Vec<TripId>,
}

/// Incremental validity checking while building a schedule stop by stop.
///
/// All solvers share this walker so that the feasibility rules are written
/// exactly once. Cloning the walker is cheap (small vectors), which is what
/// the recursive solvers rely on.
#[derive(Debug, Clone)]
pub struct ScheduleWalker<'p> {
    problem: &'p SchedulingProblem,
    /// A trip waiting besides `problem.waiting` (the new trip a kinetic
    /// tree prices), looked up after them.
    extra: Option<WaitingTrip>,
    /// Vertex of the last scheduled stop (or the start).
    pub location: NodeId,
    /// Distance travelled from the start through the scheduled prefix.
    pub cum_dist: Cost,
    /// Passengers currently on board in the scheduled prefix.
    pub onboard_count: usize,
    /// For waiting trips picked up within the prefix: distance at pickup.
    picked_at: Vec<(TripId, Cost)>,
    /// Trips already completed (dropped off) within the prefix.
    dropped: Vec<TripId>,
}

impl<'p> ScheduleWalker<'p> {
    /// Starts a walk at the vehicle's current location.
    pub fn new(problem: &'p SchedulingProblem) -> Self {
        Self::start(problem, None, ProbeScratch::default())
    }

    /// Starts a walk of `problem` with `trip` waiting too: step for step
    /// the walk of a copy of `problem` with `trip` pushed onto `waiting`,
    /// without the copy. `trip` is looked up after `problem.waiting`, so a
    /// duplicate id resolves to the problem's own trip, as in the copy.
    /// The prefix lists reuse `scratch`'s buffers;
    /// [`ScheduleWalker::into_scratch`] hands them back.
    pub(crate) fn with_trip(
        problem: &'p SchedulingProblem,
        trip: WaitingTrip,
        scratch: &mut ProbeScratch,
    ) -> Self {
        Self::start(problem, Some(trip), std::mem::take(scratch))
    }

    fn start(
        problem: &'p SchedulingProblem,
        extra: Option<WaitingTrip>,
        mut scratch: ProbeScratch,
    ) -> Self {
        scratch.picked_at.clear();
        scratch.dropped.clear();
        ScheduleWalker {
            problem,
            extra,
            location: problem.start,
            cum_dist: 0.0,
            onboard_count: problem.onboard.len(),
            picked_at: scratch.picked_at,
            dropped: scratch.dropped,
        }
    }

    /// Ends the walk, returning its buffers for the next one.
    pub(crate) fn into_scratch(self) -> ProbeScratch {
        ProbeScratch {
            picked_at: self.picked_at,
            dropped: self.dropped,
        }
    }

    /// The problem being walked, without the new trip a kinetic tree's
    /// insertion walk adds to it.
    pub fn problem(&self) -> &SchedulingProblem {
        self.problem
    }

    /// Looks up a waiting trip by id: the problem's, then the added one.
    fn waiting_trip(&self, trip: TripId) -> Option<&WaitingTrip> {
        self.problem
            .waiting_trip(trip)
            .or(self.extra.as_ref().filter(|t| t.trip == trip))
    }

    /// Absolute clock at the current position of the walk.
    pub fn clock(&self) -> Cost {
        self.problem.now + self.cum_dist
    }

    /// Whether `trip` has been picked up in the walked prefix.
    pub fn picked_up(&self, trip: TripId) -> bool {
        self.picked_at.iter().any(|&(t, _)| t == trip)
    }

    /// Number of stops appended so far (each pickup is recorded in
    /// `picked_at`, each drop-off in `dropped`).
    pub fn stops_taken(&self) -> usize {
        self.picked_at.len() + self.dropped.len()
    }

    /// The current prefix, for [`ScheduleWalker::rewind`]. A walk only ever
    /// grows its two lists, so their lengths and the three scalars pin it.
    pub(crate) fn mark(&self) -> WalkMark {
        WalkMark {
            location: self.location,
            cum_dist: self.cum_dist,
            onboard_count: self.onboard_count,
            picked: self.picked_at.len(),
            dropped: self.dropped.len(),
        }
    }

    /// Undoes every [`ScheduleWalker::advance_with_distance`] since `mark`
    /// was taken, restoring the prefix bit for bit — what lets one walker
    /// serve a whole depth-first search instead of a clone per step.
    pub(crate) fn rewind(&mut self, mark: WalkMark) {
        self.location = mark.location;
        self.cum_dist = mark.cum_dist;
        self.onboard_count = mark.onboard_count;
        self.picked_at.truncate(mark.picked);
        self.dropped.truncate(mark.dropped);
    }

    /// Appends `stop` to the walked prefix, checking every constraint that
    /// becomes decidable at this stop. The distance to the stop is obtained
    /// from `oracle`.
    pub fn advance(
        &mut self,
        stop: Stop,
        oracle: &dyn DistanceOracle,
    ) -> Result<(), ValidationError> {
        let leg = oracle.dist(self.location, stop.node);
        if !leg.is_finite() {
            return Err(ValidationError::Unreachable(self.location, stop.node));
        }
        self.advance_with_distance(stop, leg)
    }

    /// Appends `stop` when the leg distance from the current location is
    /// already known (the kinetic tree caches leg distances in its nodes).
    /// Every check runs before anything is written, so a failed step
    /// leaves the walker as it was.
    pub fn advance_with_distance(&mut self, stop: Stop, leg: Cost) -> Result<(), ValidationError> {
        self.check(stop, leg)?;
        let new_dist = self.cum_dist + leg;
        match stop.kind {
            StopKind::Pickup => {
                self.onboard_count += 1;
                self.picked_at.push((stop.trip, new_dist));
            }
            StopKind::Dropoff => {
                self.onboard_count = self.onboard_count.saturating_sub(1);
                self.dropped.push(stop.trip);
            }
        }
        self.location = stop.node;
        self.cum_dist = new_dist;
        Ok(())
    }

    /// What [`ScheduleWalker::advance_with_distance`] would return for
    /// `stop` at `leg`, without appending it.
    pub(crate) fn check(&self, stop: Stop, leg: Cost) -> Result<(), ValidationError> {
        let new_dist = self.cum_dist + leg;
        let arrival_clock = self.problem.now + new_dist;
        match stop.kind {
            StopKind::Pickup => {
                let trip = self
                    .waiting_trip(stop.trip)
                    .ok_or(ValidationError::UnknownStop(stop))?;
                if self.picked_up(stop.trip) || self.dropped.contains(&stop.trip) {
                    return Err(ValidationError::DuplicateStop(stop));
                }
                if arrival_clock > trip.pickup_deadline {
                    return Err(ValidationError::WaitingTimeViolated {
                        trip: stop.trip,
                        arrival: arrival_clock,
                        deadline: trip.pickup_deadline,
                    });
                }
                if self.onboard_count + 1 > self.problem.capacity {
                    return Err(ValidationError::CapacityExceeded {
                        onboard: self.onboard_count + 1,
                        capacity: self.problem.capacity,
                    });
                }
            }
            StopKind::Dropoff => {
                if self.dropped.contains(&stop.trip) {
                    return Err(ValidationError::DuplicateStop(stop));
                }
                if let Some(t) = self.problem.onboard_trip(stop.trip) {
                    if arrival_clock > t.dropoff_deadline {
                        return Err(ValidationError::ServiceConstraintViolated {
                            trip: stop.trip,
                            ride: arrival_clock - self.problem.now,
                            limit: t.dropoff_deadline - self.problem.now,
                        });
                    }
                } else if let Some(t) = self.waiting_trip(stop.trip) {
                    let pickup_dist = self
                        .picked_at
                        .iter()
                        .find(|&&(id, _)| id == stop.trip)
                        .map(|&(_, d)| d)
                        .ok_or(ValidationError::DropoffBeforePickup(stop.trip))?;
                    let ride = new_dist - pickup_dist;
                    if ride > t.max_ride {
                        return Err(ValidationError::ServiceConstraintViolated {
                            trip: stop.trip,
                            ride,
                            limit: t.max_ride,
                        });
                    }
                } else {
                    return Err(ValidationError::UnknownStop(stop));
                }
            }
        }
        Ok(())
    }

    /// Slack of a single stop if it were appended at distance `extra` beyond
    /// the current prefix: how much additional detour the stop could absorb
    /// before its own constraint breaks. Used by the branch-and-bound lower
    /// bound tie-breaking and by the kinetic tree's slack (Δ) values.
    pub fn stop_slack(&self, stop: Stop, leg: Cost) -> Option<Cost> {
        let new_dist = self.cum_dist + leg;
        let arrival_clock = self.problem.now + new_dist;
        match stop.kind {
            StopKind::Pickup => {
                let trip = self.waiting_trip(stop.trip)?;
                Some(trip.pickup_deadline - arrival_clock)
            }
            StopKind::Dropoff => {
                if let Some(t) = self.problem.onboard_trip(stop.trip) {
                    Some(t.dropoff_deadline - arrival_clock)
                } else if let Some(t) = self.waiting_trip(stop.trip) {
                    let pickup_dist = self
                        .picked_at
                        .iter()
                        .find(|&&(id, _)| id == stop.trip)
                        .map(|&(_, d)| d)?;
                    Some(t.max_ride - (new_dist - pickup_dist))
                } else {
                    None
                }
            }
        }
    }
}

/// A walker's prefix as [`ScheduleWalker::mark`] saw it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalkMark {
    location: NodeId,
    cum_dist: Cost,
    onboard_count: usize,
    picked: usize,
    dropped: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::{GraphBuilder, MatrixOracle, Point};

    /// A 1-D "line city": nodes 0..6 spaced 100 m apart.
    pub(crate) fn line_oracle() -> MatrixOracle {
        let mut b = GraphBuilder::new();
        for i in 0..7 {
            b.add_node(Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..6 {
            b.add_edge(i, i + 1, 100.0);
        }
        MatrixOracle::new(&b.build())
    }

    fn simple_problem() -> SchedulingProblem {
        // Vehicle at node 0, one waiting trip 1: pickup node 2, dropoff node 5.
        let mut p = SchedulingProblem::new(0, 0.0, 4);
        p.waiting.push(WaitingTrip {
            trip: 1,
            pickup: 2,
            dropoff: 5,
            pickup_deadline: 500.0,
            max_ride: 360.0, // direct 300 * 1.2
        });
        p
    }

    #[test]
    fn valid_single_trip_schedule() {
        let oracle = line_oracle();
        let p = simple_problem();
        let schedule = vec![Stop::pickup(1, 2), Stop::dropoff(1, 5)];
        let cost = p.validate(&schedule, &oracle).unwrap();
        assert_eq!(cost, 500.0);
        assert!(p.is_valid(&schedule, &oracle));
    }

    #[test]
    fn missing_and_duplicate_stops_rejected() {
        let oracle = line_oracle();
        let p = simple_problem();
        assert!(matches!(
            p.validate(&[Stop::pickup(1, 2)], &oracle),
            Err(ValidationError::MissingStop(_))
        ));
        assert!(matches!(
            p.validate(
                &[Stop::pickup(1, 2), Stop::pickup(1, 2), Stop::dropoff(1, 5)],
                &oracle
            ),
            Err(ValidationError::DuplicateStop(_))
        ));
        assert!(matches!(
            p.validate(&[Stop::pickup(9, 2), Stop::dropoff(1, 5)], &oracle),
            Err(ValidationError::UnknownStop(_))
        ));
    }

    #[test]
    fn dropoff_before_pickup_rejected() {
        let oracle = line_oracle();
        let p = simple_problem();
        let schedule = vec![Stop::dropoff(1, 5), Stop::pickup(1, 2)];
        assert!(matches!(
            p.validate(&schedule, &oracle),
            Err(ValidationError::DropoffBeforePickup(1))
        ));
    }

    #[test]
    fn waiting_deadline_enforced() {
        let oracle = line_oracle();
        let mut p = simple_problem();
        p.waiting[0].pickup_deadline = 150.0; // pickup is 200 m away
        let schedule = vec![Stop::pickup(1, 2), Stop::dropoff(1, 5)];
        assert!(matches!(
            p.validate(&schedule, &oracle),
            Err(ValidationError::WaitingTimeViolated { trip: 1, .. })
        ));
    }

    #[test]
    fn service_constraint_enforced_for_waiting_trip() {
        let oracle = line_oracle();
        let mut p = simple_problem();
        // Add a second waiting trip whose detour forces trip 1 over budget.
        p.waiting.push(WaitingTrip {
            trip: 2,
            pickup: 0,
            dropoff: 6,
            pickup_deadline: 10_000.0,
            max_ride: 10_000.0,
        });
        // Pick up 1 (at 2), detour back to 0 for 2, then drop 1 at 5:
        // ride for 1 = (2->0->5) = 200 + 500 = 700 > 360.
        let schedule = vec![
            Stop::pickup(1, 2),
            Stop::pickup(2, 0),
            Stop::dropoff(1, 5),
            Stop::dropoff(2, 6),
        ];
        assert!(matches!(
            p.validate(&schedule, &oracle),
            Err(ValidationError::ServiceConstraintViolated { trip: 1, .. })
        ));
    }

    #[test]
    fn onboard_deadline_enforced() {
        let oracle = line_oracle();
        let mut p = SchedulingProblem::new(0, 1_000.0, 4);
        p.onboard.push(OnboardTrip {
            trip: 3,
            dropoff: 4,
            dropoff_deadline: 1_350.0, // 400 m away, only 350 allowed
        });
        let schedule = vec![Stop::dropoff(3, 4)];
        assert!(matches!(
            p.validate(&schedule, &oracle),
            Err(ValidationError::ServiceConstraintViolated { trip: 3, .. })
        ));
        // Loosening the deadline makes it valid.
        p.onboard[0].dropoff_deadline = 1_400.0;
        assert_eq!(p.validate(&schedule, &oracle).unwrap(), 400.0);
    }

    #[test]
    fn each_walker_limit_holds_at_equality_and_breaks_one_q_past_it() {
        use roadnet::Q;
        let oracle = line_oracle();
        let schedule = [Stop::pickup(1, 2), Stop::dropoff(1, 5)];
        // Pickup: reached at 200, the deadline.
        let mut p = simple_problem();
        p.waiting[0].pickup_deadline = 200.0;
        assert_eq!(p.validate(&schedule, &oracle), Ok(500.0));
        p.waiting[0].pickup_deadline -= Q;
        assert!(matches!(
            p.validate(&schedule, &oracle),
            Err(ValidationError::WaitingTimeViolated { trip: 1, .. })
        ));
        // A waiting trip's ride: 300, the limit.
        let mut p = simple_problem();
        p.waiting[0].max_ride = 300.0;
        assert_eq!(p.validate(&schedule, &oracle), Ok(500.0));
        p.waiting[0].max_ride -= Q;
        assert!(matches!(
            p.validate(&schedule, &oracle),
            Err(ValidationError::ServiceConstraintViolated { trip: 1, .. })
        ));
        // An on-board drop-off: reached at 1_000 + 400, the deadline.
        let mut p = SchedulingProblem::new(0, 1_000.0, 4);
        p.onboard.push(OnboardTrip {
            trip: 3,
            dropoff: 4,
            dropoff_deadline: 1_400.0,
        });
        assert_eq!(p.validate(&[Stop::dropoff(3, 4)], &oracle), Ok(400.0));
        p.onboard[0].dropoff_deadline -= Q;
        assert!(matches!(
            p.validate(&[Stop::dropoff(3, 4)], &oracle),
            Err(ValidationError::ServiceConstraintViolated { trip: 3, .. })
        ));
    }

    #[test]
    fn capacity_enforced() {
        let oracle = line_oracle();
        let mut p = SchedulingProblem::new(0, 0.0, 1);
        for (id, pickup, dropoff) in [(1u64, 1u32, 5u32), (2, 2, 6)] {
            p.waiting.push(WaitingTrip {
                trip: id,
                pickup,
                dropoff,
                pickup_deadline: 10_000.0,
                max_ride: 10_000.0,
            });
        }
        // Both on board at once: violates capacity 1.
        let overlapping = vec![
            Stop::pickup(1, 1),
            Stop::pickup(2, 2),
            Stop::dropoff(1, 5),
            Stop::dropoff(2, 6),
        ];
        assert!(matches!(
            p.validate(&overlapping, &oracle),
            Err(ValidationError::CapacityExceeded { .. })
        ));
        // Sequential service is fine.
        let sequential = vec![
            Stop::pickup(1, 1),
            Stop::dropoff(1, 5),
            Stop::pickup(2, 2),
            Stop::dropoff(2, 6),
        ];
        assert!(p.is_valid(&sequential, &oracle));
    }

    #[test]
    fn onboard_passengers_count_against_capacity() {
        let oracle = line_oracle();
        let mut p = SchedulingProblem::new(0, 0.0, 1);
        p.onboard.push(OnboardTrip {
            trip: 9,
            dropoff: 3,
            dropoff_deadline: 10_000.0,
        });
        p.waiting.push(WaitingTrip {
            trip: 1,
            pickup: 1,
            dropoff: 5,
            pickup_deadline: 10_000.0,
            max_ride: 10_000.0,
        });
        // Picking up trip 1 before dropping trip 9 exceeds capacity 1.
        let bad = vec![Stop::pickup(1, 1), Stop::dropoff(9, 3), Stop::dropoff(1, 5)];
        assert!(matches!(
            p.validate(&bad, &oracle),
            Err(ValidationError::CapacityExceeded { .. })
        ));
        let good = vec![Stop::dropoff(9, 3), Stop::pickup(1, 1), Stop::dropoff(1, 5)];
        assert!(p.is_valid(&good, &oracle));
    }

    #[test]
    fn walker_exposes_clock_and_slack() {
        let oracle = line_oracle();
        let p = simple_problem();
        let mut w = ScheduleWalker::new(&p);
        assert_eq!(w.clock(), 0.0);
        let slack = w.stop_slack(Stop::pickup(1, 2), 200.0).unwrap();
        assert_eq!(slack, 300.0); // deadline 500 - arrival 200
        w.advance(Stop::pickup(1, 2), &oracle).unwrap();
        assert_eq!(w.clock(), 200.0);
        assert!(w.picked_up(1));
        let slack = w.stop_slack(Stop::dropoff(1, 5), 300.0).unwrap();
        assert!((slack - 60.0).abs() < 1e-9); // max_ride 360 - ride 300
    }

    #[test]
    fn rewind_restores_the_marked_prefix() {
        let oracle = line_oracle();
        let p = simple_problem();
        let mut w = ScheduleWalker::new(&p);
        let start = w.mark();
        w.advance(Stop::pickup(1, 2), &oracle).unwrap();
        let picked = w.mark();
        w.advance(Stop::dropoff(1, 5), &oracle).unwrap();
        // A failing step writes nothing: the trip is already dropped.
        assert!(w.advance_with_distance(Stop::dropoff(1, 5), 0.0).is_err());
        assert_eq!((w.location, w.cum_dist, w.stops_taken()), (5, 500.0, 2));
        w.rewind(picked);
        assert_eq!((w.location, w.cum_dist, w.onboard_count), (2, 200.0, 1));
        w.advance(Stop::dropoff(1, 5), &oracle).unwrap();
        w.rewind(start);
        assert_eq!((w.location, w.cum_dist, w.onboard_count), (0, 0.0, 0));
        assert_eq!(w.stops_taken(), 0);
        assert!(!w.picked_up(1));
    }

    #[test]
    fn walking_a_problem_and_a_trip_is_walking_the_problem_with_the_trip_pushed() {
        let oracle = line_oracle();
        let mut p = SchedulingProblem::new(0, 0.0, 2);
        p.onboard.push(OnboardTrip {
            trip: 7,
            dropoff: 3,
            dropoff_deadline: 500.0,
        });
        p.waiting.push(WaitingTrip {
            trip: 1,
            pickup: 2,
            dropoff: 5,
            pickup_deadline: 500.0,
            max_ride: 360.0,
        });
        let new = |trip| WaitingTrip {
            trip,
            pickup: 4,
            dropoff: 1,
            pickup_deadline: 600.0,
            max_ride: 500.0,
        };
        // One buffer pair for every walk: each must start from empty.
        let mut scratch = ProbeScratch::default();
        // A fresh id, a waiting trip's id and an on-board trip's id.
        for trip in [new(9), new(1), new(7)] {
            let mut pushed = p.clone();
            pushed.waiting.push(trip);
            let stops = pushed.required_stops();
            // Every sequence of four stops, repeats and bad orders included:
            // a failed step writes nothing, so the walk goes on past it.
            for code in 0..stops.len().pow(4) {
                let sequence = (0..4).map(|i| stops[code / stops.len().pow(i) % stops.len()]);
                let mut with_trip = ScheduleWalker::with_trip(&p, trip, &mut scratch);
                let mut copied = ScheduleWalker::new(&pushed);
                for stop in sequence {
                    let step = with_trip.advance(stop, &oracle);
                    assert_eq!(step, copied.advance(stop, &oracle), "{trip:?} at {stop:?}");
                    let state = |w: &ScheduleWalker<'_>| {
                        (
                            w.location,
                            w.cum_dist.to_bits(),
                            w.onboard_count,
                            w.stops_taken(),
                        )
                    };
                    assert_eq!(state(&with_trip), state(&copied), "{trip:?} at {stop:?}");
                    for &next in &stops {
                        for leg in [0.0, 150.0] {
                            assert_eq!(
                                with_trip.stop_slack(next, leg),
                                copied.stop_slack(next, leg),
                                "{trip:?} at {stop:?}, slack of {next:?}"
                            );
                        }
                    }
                }
                scratch = with_trip.into_scratch();
            }
        }
    }

    #[test]
    fn required_stops_cover_onboard_and_waiting() {
        let mut p = simple_problem();
        p.onboard.push(OnboardTrip {
            trip: 7,
            dropoff: 6,
            dropoff_deadline: 1_000.0,
        });
        let stops = p.required_stops();
        assert_eq!(stops.len(), 3);
        assert_eq!(p.num_stops(), 3);
        assert_eq!(p.num_trips(), 2);
        assert!(stops.contains(&Stop::dropoff(7, 6)));
        assert!(stops.contains(&Stop::pickup(1, 2)));
        assert!(p.waiting_trip(1).is_some());
        assert!(p.onboard_trip(7).is_some());
        assert!(p.waiting_trip(99).is_none());
    }
}
