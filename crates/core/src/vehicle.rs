//! A server (taxi) and its pluggable route planner.
//!
//! A [`Vehicle`] owns the algorithmic state of one server: its current
//! position and clock, the passengers on board, the accepted requests not
//! yet picked up, the committed stop sequence it is executing, and — when
//! the kinetic planner is selected — the kinetic tree that materialises all
//! valid schedules. The simulation crate moves vehicles through space; this
//! type answers "can I take this request, and at what cost?" and keeps the
//! bookkeeping consistent when stops are reached.

use roadnet::io::bin::{self, Reader};
use roadnet::{DistanceOracle, NodeId, RoadNetError};

use crate::algorithms::{SolverKind, SolverOutcome};
use crate::codec;
use crate::kinetic::{KineticConfig, KineticTree, TreeInsertError};
use crate::problem::{OnboardTrip, Schedule, SchedulingProblem, WaitingTrip};
use crate::request::TripRequest;
use crate::types::{Cost, Stop, StopKind};

/// Which matching algorithm a vehicle uses to evaluate new requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlannerKind {
    /// Re-solve the augmented problem from scratch with a stateless solver
    /// (the paper's brute-force / branch-and-bound / MIP baselines).
    Solver(SolverKind),
    /// Maintain a kinetic tree incrementally (the paper's contribution).
    Kinetic(KineticConfig),
}

impl PlannerKind {
    /// Short name for experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            PlannerKind::Solver(SolverKind::BruteForce) => "brute-force",
            PlannerKind::Solver(SolverKind::BranchBound) => "branch-and-bound",
            PlannerKind::Solver(SolverKind::Mip) => "mip",
            PlannerKind::Kinetic(cfg) => cfg.variant_name(),
        }
    }
}

/// Result of evaluating a request against one vehicle: a price, and what
/// [`Vehicle::commit`] needs to make it the vehicle's plan.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// Total distance of the augmented unfinished schedule.
    pub cost: Cost,
    /// The trip bookkeeping entry to adopt on commit.
    pub trip: WaitingTrip,
    /// The solver's stop ordering. `None` for the kinetic planner, which
    /// only priced the insertion: its tree, and the ordering read off it,
    /// are built at commit.
    schedule: Option<Schedule>,
}

/// Coarse activity state of a vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VehicleStatus {
    /// No committed stops: the vehicle cruises.
    Cruising,
    /// At least one committed stop remains.
    Serving,
}

/// A server: position, passengers, committed route and planner.
#[derive(Debug, Clone)]
pub struct Vehicle {
    id: u32,
    capacity: usize,
    location: NodeId,
    clock: Cost,
    planner: PlannerKind,
    onboard: Vec<OnboardTrip>,
    waiting: Vec<WaitingTrip>,
    route: Schedule,
    tree: Option<KineticTree>,
}

impl Vehicle {
    /// Creates an idle vehicle at `start`.
    pub fn new(id: u32, start: NodeId, capacity: usize, planner: PlannerKind, clock: Cost) -> Self {
        let tree = match planner {
            PlannerKind::Kinetic(cfg) => Some(KineticTree::new(start, clock, capacity, cfg)),
            PlannerKind::Solver(_) => None,
        };
        Vehicle {
            id,
            capacity,
            location: start,
            clock,
            planner,
            onboard: Vec::new(),
            waiting: Vec::new(),
            route: Vec::new(),
            tree,
        }
    }

    /// Vehicle identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Seat capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current vertex.
    pub fn location(&self) -> NodeId {
        self.location
    }

    /// Current absolute clock (meter-equivalents).
    pub fn clock(&self) -> Cost {
        self.clock
    }

    /// The planner this vehicle uses.
    pub fn planner(&self) -> PlannerKind {
        self.planner
    }

    /// Passengers currently on board.
    pub fn onboard_count(&self) -> usize {
        self.onboard.len()
    }

    /// Active trips: on board plus accepted-but-not-picked-up.
    pub fn active_trip_count(&self) -> usize {
        self.onboard.len() + self.waiting.len()
    }

    /// Committed stop sequence still to execute.
    pub fn route(&self) -> &Schedule {
        &self.route
    }

    /// Next committed stop, if any.
    pub fn next_stop(&self) -> Option<Stop> {
        self.route.first().copied()
    }

    /// Whether the vehicle is cruising or serving.
    pub fn status(&self) -> VehicleStatus {
        if self.route.is_empty() {
            VehicleStatus::Cruising
        } else {
            VehicleStatus::Serving
        }
    }

    /// The kinetic tree, when the kinetic planner is in use.
    pub fn tree(&self) -> Option<&KineticTree> {
        self.tree.as_ref()
    }

    /// Updates the vehicle's position and clock (e.g. after cruising or
    /// part-way through a leg). The kinetic tree is re-rooted accordingly.
    pub fn set_position(&mut self, node: NodeId, clock: Cost, oracle: &dyn DistanceOracle) {
        self.location = node;
        self.clock = clock;
        if let Some(tree) = &mut self.tree {
            tree.reroot(node, clock, oracle);
        }
    }

    /// The scheduling problem describing this vehicle's unfinished work.
    pub fn problem(&self) -> SchedulingProblem {
        SchedulingProblem {
            start: self.location,
            now: self.clock,
            capacity: self.capacity,
            onboard: self.onboard.clone(),
            waiting: self.waiting.clone(),
        }
    }

    fn make_waiting_trip(
        &self,
        request: &TripRequest,
        oracle: &dyn DistanceOracle,
    ) -> Option<WaitingTrip> {
        let direct = oracle.dist(request.source, request.destination);
        if !direct.is_finite() {
            return None;
        }
        Some(WaitingTrip {
            trip: request.id,
            pickup: request.source,
            dropoff: request.destination,
            pickup_deadline: request.pickup_deadline(),
            max_ride: request.max_ride(direct),
        })
    }

    /// Evaluates whether this vehicle can serve `request`, returning the
    /// cost of the cheapest augmented schedule if so. The vehicle's own
    /// state is not modified; call [`Vehicle::commit`] with the returned
    /// proposal to accept the request.
    ///
    /// The kinetic planner prices the insertion with
    /// [`KineticTree::probe_insert`] and builds nothing; a solver solves
    /// the augmented problem once and keeps the schedule for the commit.
    /// `None` when the request is infeasible for this vehicle (or overflows
    /// the tree's node budget).
    pub fn evaluate(&self, request: &TripRequest, oracle: &dyn DistanceOracle) -> Option<Proposal> {
        let trip = self.make_waiting_trip(request, oracle)?;
        match (self.planner, &self.tree) {
            (PlannerKind::Kinetic(_), Some(tree)) => {
                let cost = tree.probe_insert(trip, oracle).ok()?;
                Some(Proposal {
                    cost,
                    trip,
                    schedule: None,
                })
            }
            (PlannerKind::Solver(kind), _) => {
                let mut problem = self.problem();
                problem.waiting.push(trip);
                let solver = kind.build();
                match solver.solve(&problem, oracle) {
                    SolverOutcome::Feasible { cost, schedule } => Some(Proposal {
                        cost,
                        trip,
                        schedule: Some(schedule),
                    }),
                    SolverOutcome::Infeasible | SolverOutcome::Exhausted => None,
                }
            }
            // `new` and `decode` give every kinetic vehicle a tree.
            (PlannerKind::Kinetic(_), None) => None,
        }
    }

    /// Accepts a request previously evaluated with [`Vehicle::evaluate`]
    /// on this vehicle, in the state it was evaluated in.
    ///
    /// A kinetic vehicle builds its augmented tree here — the one build of
    /// the insertion the proposal priced — and reads its route off it. The
    /// build reaches the same verdict as the probe; if it ever did not, the
    /// error is returned and the vehicle is left as it was.
    pub fn commit(
        &mut self,
        proposal: Proposal,
        oracle: &dyn DistanceOracle,
    ) -> Result<(), TreeInsertError> {
        let route = match (proposal.schedule, &self.tree) {
            (Some(schedule), _) => schedule,
            (None, Some(tree)) => {
                let (tree, _) = tree.try_insert(proposal.trip, oracle)?;
                let route = tree.best_route().map(|(_, s)| s).unwrap_or_default();
                self.tree = Some(tree);
                route
            }
            (None, None) => return Err(TreeInsertError::Infeasible),
        };
        self.waiting.push(proposal.trip);
        self.route = route;
        Ok(())
    }

    /// Records arrival at the next committed stop at absolute clock `clock`.
    ///
    /// Updates passenger bookkeeping (pickup moves the trip on board with
    /// its drop-off deadline fixed; drop-off completes it), advances and
    /// re-roots the kinetic tree, and re-derives the committed route from
    /// the tree's best remaining schedule when the kinetic planner is in
    /// use (the stateless planners keep executing their committed order).
    ///
    /// # Panics
    /// Panics if the vehicle has no committed stops.
    pub fn arrive_at_next_stop(&mut self, clock: Cost, oracle: &dyn DistanceOracle) -> Stop {
        let stop = self.route.remove(0);
        self.location = stop.node;
        self.clock = clock;
        match stop.kind {
            StopKind::Pickup => {
                if let Some(pos) = self.waiting.iter().position(|t| t.trip == stop.trip) {
                    let t = self.waiting.remove(pos);
                    self.onboard.push(OnboardTrip {
                        trip: t.trip,
                        dropoff: t.dropoff,
                        dropoff_deadline: clock + t.max_ride,
                    });
                }
            }
            StopKind::Dropoff => {
                self.onboard.retain(|t| t.trip != stop.trip);
            }
        }
        if let Some(tree) = &mut self.tree {
            let _ = tree.advance_to(stop);
            tree.reroot(stop.node, clock, oracle);
            if let Some((_, schedule)) = tree.best_route() {
                self.route = schedule;
            }
        }
        stop
    }

    /// Serialises the vehicle's complete algorithmic state — identity,
    /// position, passengers, committed route and (for the kinetic
    /// planner) the tree — in the `roadnet::io::bin` conventions
    /// used by simulation checkpoints. [`Vehicle::decode`] restores it
    /// bit-identically.
    pub fn encode(&self, out: &mut Vec<u8>) {
        bin::put_u32(out, self.id);
        bin::put_u64(out, self.capacity as u64);
        bin::put_u32(out, self.location);
        bin::put_f64(out, self.clock);
        encode_planner(out, self.planner);
        bin::put_u64(out, self.onboard.len() as u64);
        for t in &self.onboard {
            codec::put_onboard(out, t);
        }
        bin::put_u64(out, self.waiting.len() as u64);
        for t in &self.waiting {
            codec::put_waiting(out, t);
        }
        bin::put_u64(out, self.route.len() as u64);
        for s in &self.route {
            codec::put_stop(out, s);
        }
        match &self.tree {
            Some(tree) => {
                codec::put_bool(out, true);
                tree.encode(out);
            }
            None => codec::put_bool(out, false),
        }
    }

    /// Reads a vehicle written by [`Vehicle::encode`]. Malformed input is
    /// reported as [`RoadNetError::Persist`], never a panic.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, RoadNetError> {
        let id = r.u32("vehicle id")?;
        let capacity = r.u64("vehicle capacity")? as usize;
        let location = r.u32("vehicle location")?;
        let clock = r.f64("vehicle clock")?;
        let planner = decode_planner(r)?;
        let n_onboard = codec::read_len(r, 20, "vehicle onboard count")?;
        let onboard = (0..n_onboard)
            .map(|_| codec::read_onboard(r))
            .collect::<Result<_, _>>()?;
        let n_waiting = codec::read_len(r, 32, "vehicle waiting count")?;
        let waiting = (0..n_waiting)
            .map(|_| codec::read_waiting(r))
            .collect::<Result<_, _>>()?;
        let n_route = codec::read_len(r, 13, "vehicle route length")?;
        let route = (0..n_route)
            .map(|_| codec::read_stop(r))
            .collect::<Result<_, _>>()?;
        let tree = if codec::read_bool(r, "vehicle tree tag")? {
            Some(KineticTree::decode(r)?)
        } else {
            None
        };
        if tree.is_some() != matches!(planner, PlannerKind::Kinetic(_)) {
            return Err(RoadNetError::Persist(
                "vehicle planner and kinetic-tree presence disagree".to_string(),
            ));
        }
        Ok(Vehicle {
            id,
            capacity,
            location,
            clock,
            planner,
            onboard,
            waiting,
            route,
            tree,
        })
    }
}

/// Tag 3 is retired and decodes as unknown; the kinetic tree keeps tag 4
/// so vehicles encoded by older builds still decode.
fn encode_planner(out: &mut Vec<u8>, planner: PlannerKind) {
    let tag: u8 = match planner {
        PlannerKind::Solver(SolverKind::BruteForce) => 0,
        PlannerKind::Solver(SolverKind::BranchBound) => 1,
        PlannerKind::Solver(SolverKind::Mip) => 2,
        PlannerKind::Kinetic(_) => 4,
    };
    out.push(tag);
    if let PlannerKind::Kinetic(cfg) = planner {
        codec::put_bool(out, cfg.use_slack);
        codec::put_opt_f64(out, cfg.hotspot_theta);
        bin::put_u64(out, cfg.max_nodes as u64);
    }
}

fn decode_planner(r: &mut Reader<'_>) -> Result<PlannerKind, RoadNetError> {
    let tag = r.bytes(1, "planner tag")?[0];
    Ok(match tag {
        0 => PlannerKind::Solver(SolverKind::BruteForce),
        1 => PlannerKind::Solver(SolverKind::BranchBound),
        2 => PlannerKind::Solver(SolverKind::Mip),
        4 => PlannerKind::Kinetic(KineticConfig {
            use_slack: codec::read_bool(r, "planner use_slack")?,
            hotspot_theta: codec::read_opt_f64(r, "planner hotspot theta")?,
            max_nodes: r.u64("planner max_nodes")? as usize,
        }),
        other => {
            return Err(RoadNetError::Persist(format!(
                "unknown planner tag {other}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Constraints;
    use crate::types::TripId;
    use roadnet::{GeneratorConfig, MatrixOracle, NetworkKind};

    fn oracle() -> MatrixOracle {
        let g = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 6, cols: 6 },
            seed: 5,
            ..GeneratorConfig::default()
        }
        .generate();
        MatrixOracle::new(&g)
    }

    fn request(id: TripId, s: NodeId, e: NodeId, at: Cost) -> TripRequest {
        TripRequest::new(id, s, e, at, Constraints::new(8_400.0, 0.5))
    }

    fn planners() -> Vec<PlannerKind> {
        vec![
            PlannerKind::Solver(SolverKind::BruteForce),
            PlannerKind::Solver(SolverKind::BranchBound),
            PlannerKind::Kinetic(KineticConfig::basic()),
            PlannerKind::Kinetic(KineticConfig::slack()),
        ]
    }

    #[test]
    fn all_planners_agree_on_a_single_request() {
        let oracle = oracle();
        let req = request(1, 7, 30, 0.0);
        let mut costs = Vec::new();
        for planner in planners() {
            let v = Vehicle::new(0, 0, 4, planner, 0.0);
            let p = v.evaluate(&req, &oracle).expect("feasible");
            costs.push(p.cost);
        }
        for c in &costs {
            assert!(
                (c - costs[0]).abs() < 1e-6,
                "planner disagreement: {costs:?}"
            );
        }
    }

    #[test]
    fn commit_and_arrivals_update_bookkeeping() {
        let oracle = oracle();
        for planner in planners() {
            let mut v = Vehicle::new(3, 0, 4, planner, 0.0);
            assert_eq!(v.status(), VehicleStatus::Cruising);
            let req = request(1, 7, 30, 0.0);
            let p = v.evaluate(&req, &oracle).unwrap();
            let cost = p.cost;
            v.commit(p, &oracle).unwrap();
            assert_eq!(v.status(), VehicleStatus::Serving);
            assert_eq!(v.active_trip_count(), 1);
            assert_eq!(v.onboard_count(), 0);
            assert_eq!(v.route().len(), 2);

            // Drive to the pickup.
            let first = v.next_stop().unwrap();
            assert_eq!(first, Stop::pickup(1, 7));
            let leg1 = oracle.dist(0, 7);
            let s = v.arrive_at_next_stop(leg1, &oracle);
            assert_eq!(s.kind, StopKind::Pickup);
            assert_eq!(v.onboard_count(), 1);

            // Drive to the drop-off.
            let leg2 = oracle.dist(7, 30);
            let s = v.arrive_at_next_stop(leg1 + leg2, &oracle);
            assert_eq!(s.kind, StopKind::Dropoff);
            assert_eq!(v.onboard_count(), 0);
            assert_eq!(v.active_trip_count(), 0);
            assert_eq!(v.status(), VehicleStatus::Cruising);
            assert!((cost - (leg1 + leg2)).abs() < 1e-6);
        }
    }

    #[test]
    fn capacity_is_respected_across_planners() {
        let oracle = oracle();
        for planner in planners() {
            let mut v = Vehicle::new(0, 0, 1, planner, 0.0);
            let r1 = request(1, 7, 30, 0.0);
            let p = v.evaluate(&r1, &oracle).unwrap();
            v.commit(p, &oracle).unwrap();
            // Second passenger whose trip would have to overlap with trip 1
            // can still be accepted if served sequentially; verify that the
            // resulting schedule never has 2 passengers on board.
            let r2 = request(2, 8, 31, 0.0);
            if let Some(p) = v.evaluate(&r2, &oracle) {
                v.commit(p, &oracle).unwrap();
                assert!(v.problem().is_valid(v.route(), &oracle));
            }
        }
    }

    #[test]
    fn infeasible_request_returns_none() {
        let oracle = oracle();
        let far = (oracle.node_count() - 1) as NodeId;
        let tight = TripRequest::new(1, far, 0, 0.0, Constraints::new(1.0, 0.1));
        for planner in planners() {
            let v = Vehicle::new(0, 0, 4, planner, 0.0);
            assert!(v.evaluate(&tight, &oracle).is_none(), "{planner:?}");
        }
    }

    #[test]
    fn set_position_moves_vehicle_and_tree() {
        let oracle = oracle();
        let mut v = Vehicle::new(0, 0, 4, PlannerKind::Kinetic(KineticConfig::basic()), 0.0);
        v.set_position(10, 500.0, &oracle);
        assert_eq!(v.location(), 10);
        assert_eq!(v.clock(), 500.0);
        assert_eq!(v.tree().unwrap().problem().start, 10);
    }

    #[test]
    fn encode_decode_roundtrips_every_planner() {
        let oracle = oracle();
        for planner in planners() {
            let mut v = Vehicle::new(9, 0, 4, planner, 0.0);
            let p = v.evaluate(&request(1, 7, 30, 0.0), &oracle).unwrap();
            v.commit(p, &oracle).unwrap();
            let leg = oracle.dist(0, 7);
            v.arrive_at_next_stop(leg, &oracle); // pickup: one on board
            if let Some(p) = v.evaluate(&request(2, 8, 31, leg), &oracle) {
                v.commit(p, &oracle).unwrap();
            }

            let mut bytes = Vec::new();
            v.encode(&mut bytes);
            let mut r = Reader::new(&bytes);
            let back = Vehicle::decode(&mut r).unwrap();
            assert_eq!(r.remaining(), 0, "{planner:?}");
            let mut bytes2 = Vec::new();
            back.encode(&mut bytes2);
            assert_eq!(bytes, bytes2, "{planner:?}");
            assert_eq!(back.id(), v.id());
            assert_eq!(back.location(), v.location());
            assert_eq!(back.route(), v.route());
            assert_eq!(back.onboard_count(), v.onboard_count());
            assert_eq!(back.active_trip_count(), v.active_trip_count());

            // Truncated input always errors, never panics.
            for len in 0..bytes.len() {
                let mut r = Reader::new(&bytes[..len]);
                assert!(Vehicle::decode(&mut r).is_err(), "truncation at {len}");
            }
        }

        // A retired planner tag is refused by name, not misread.
        let mut r = Reader::new(&[3]);
        assert!(matches!(
            decode_planner(&mut r),
            Err(RoadNetError::Persist(msg)) if msg == "unknown planner tag 3"
        ));
    }

    #[test]
    fn planner_names() {
        assert_eq!(PlannerKind::Solver(SolverKind::Mip).name(), "mip");
        assert_eq!(
            PlannerKind::Kinetic(KineticConfig::hotspot(100.0)).name(),
            "kinetic-hotspot"
        );
    }
}
