//! A server (taxi) and its pluggable route planner.
//!
//! A [`Vehicle`] owns the algorithmic state of one server: its plan — the
//! scheduling problem a stateless solver re-solves, or the kinetic tree
//! that materialises all valid schedules and owns its problem — and the
//! committed stop sequence it is executing. The plan is the one record of
//! the vehicle's position, clock and riders. The simulation crate moves
//! vehicles through space; this type answers "can I take this trip, and at
//! what cost?" and keeps the plan consistent when stops are reached.

use roadnet::io::bin::{self, Reader};
use roadnet::{DistanceOracle, NodeId, RoadNetError};

use crate::algorithms::{SolverKind, SolverOutcome};
use crate::codec;
use crate::kinetic::{KineticConfig, KineticTree, TreeInsertError};
use crate::problem::{ProbeScratch, Schedule, SchedulingProblem, WaitingTrip};
use crate::types::{Cost, Stop};

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

/// Result of evaluating a trip against one vehicle: a price, and what
/// [`Vehicle::commit`] needs to make it the vehicle's plan.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// Total distance of the augmented unfinished schedule.
    pub cost: Cost,
    /// The trip bookkeeping entry to adopt on commit.
    pub trip: WaitingTrip,
    /// The solver's stop ordering. Empty for the kinetic planner, which
    /// only priced the insertion: its tree, and the ordering read off it,
    /// are built at commit.
    schedule: Schedule,
}

/// A vehicle's schedule state: where it is, when, and the trips it holds.
#[derive(Debug, Clone)]
enum Plan {
    /// A stateless solver and the problem it re-solves with each new trip.
    Solver(SolverKind, SchedulingProblem),
    /// The kinetic tree, rooted at the vehicle's position and clock.
    Kinetic(KineticTree),
}

/// A server: its plan and its committed route.
#[derive(Debug, Clone)]
pub struct Vehicle {
    id: u32,
    plan: Plan,
    route: Schedule,
}

impl Vehicle {
    /// Creates an idle vehicle at `start`.
    pub fn new(id: u32, start: NodeId, capacity: usize, planner: PlannerKind, clock: Cost) -> Self {
        let plan = match planner {
            PlannerKind::Kinetic(cfg) => {
                Plan::Kinetic(KineticTree::new(start, clock, capacity, cfg))
            }
            PlannerKind::Solver(kind) => {
                Plan::Solver(kind, SchedulingProblem::new(start, clock, capacity))
            }
        };
        Vehicle {
            id,
            plan,
            route: Vec::new(),
        }
    }

    /// Vehicle identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Current vertex.
    pub fn location(&self) -> NodeId {
        self.problem().start
    }

    /// Current absolute clock (meter-equivalents).
    pub fn clock(&self) -> Cost {
        self.problem().now
    }

    /// Passengers currently on board.
    pub fn onboard_count(&self) -> usize {
        self.problem().onboard.len()
    }

    /// Active trips: on board plus accepted-but-not-picked-up.
    pub fn active_trip_count(&self) -> usize {
        self.problem().num_trips()
    }

    /// Committed stop sequence still to execute.
    pub fn route(&self) -> &Schedule {
        &self.route
    }

    /// Next committed stop, if any.
    pub fn next_stop(&self) -> Option<Stop> {
        self.route.first().copied()
    }

    /// The kinetic tree, when the kinetic planner is in use.
    pub fn tree(&self) -> Option<&KineticTree> {
        match &self.plan {
            Plan::Kinetic(tree) => Some(tree),
            Plan::Solver(..) => None,
        }
    }

    /// The scheduling problem describing this vehicle's unfinished work:
    /// the kinetic tree's own, or the one the solver re-solves.
    pub fn problem(&self) -> &SchedulingProblem {
        match &self.plan {
            Plan::Kinetic(tree) => tree.problem(),
            Plan::Solver(_, problem) => problem,
        }
    }

    /// Updates the vehicle's position and clock (e.g. after cruising or
    /// part-way through a leg). The kinetic tree is re-rooted accordingly.
    pub fn set_position(&mut self, node: NodeId, clock: Cost, oracle: &dyn DistanceOracle) {
        match &mut self.plan {
            Plan::Kinetic(tree) => tree.reroot(node, clock, oracle),
            Plan::Solver(_, problem) => {
                problem.start = node;
                problem.now = clock;
            }
        }
    }

    /// Evaluates whether this vehicle can serve `trip`, returning the cost
    /// of the cheapest augmented schedule if so. The vehicle's own state is
    /// not modified; call [`Vehicle::commit`] with the returned proposal to
    /// accept the trip.
    ///
    /// The kinetic planner prices the insertion with
    /// [`KineticTree::probe_insert`] on `scratch`'s buffers and builds
    /// nothing; a solver solves the augmented problem once and keeps the
    /// schedule for the commit. `None` when the trip is infeasible for this
    /// vehicle (or overflows the tree's node budget).
    pub fn evaluate(
        &self,
        trip: WaitingTrip,
        oracle: &dyn DistanceOracle,
        scratch: &mut ProbeScratch,
    ) -> Option<Proposal> {
        match &self.plan {
            Plan::Kinetic(tree) => {
                let cost = tree.probe_insert(trip, oracle, scratch).ok()?;
                Some(Proposal {
                    cost,
                    trip,
                    schedule: Vec::new(),
                })
            }
            Plan::Solver(kind, problem) => {
                let mut problem = problem.clone();
                problem.waiting.push(trip);
                match kind.build().solve(&problem, oracle) {
                    SolverOutcome::Feasible { cost, schedule } => Some(Proposal {
                        cost,
                        trip,
                        schedule,
                    }),
                    SolverOutcome::Infeasible | SolverOutcome::Exhausted => None,
                }
            }
        }
    }

    /// Accepts a trip previously evaluated with [`Vehicle::evaluate`] on
    /// this vehicle, in the state it was evaluated in.
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
        self.route = match &mut self.plan {
            Plan::Kinetic(tree) => {
                let (augmented, _) = tree.try_insert(proposal.trip, oracle)?;
                *tree = augmented;
                tree.best_route().map(|(_, s)| s).unwrap_or_default()
            }
            Plan::Solver(_, problem) => {
                problem.waiting.push(proposal.trip);
                proposal.schedule
            }
        };
        Ok(())
    }

    /// Records arrival at the next committed stop at absolute clock `clock`
    /// and returns that stop; `None`, leaving the vehicle unchanged, when
    /// no stop is committed.
    ///
    /// A pickup moves the trip on board with its drop-off deadline fixed; a
    /// drop-off completes it. The kinetic tree advances to the stop, is
    /// re-rooted at `clock` and re-derives the committed route from its
    /// best remaining schedule; its drop-off deadline is the tree's own,
    /// fixed at the pickup clock its legs sum to (`clock`, on the grid,
    /// when the vehicle drove its route). The stateless planners keep
    /// executing their committed order, with the deadline fixed at `clock`.
    pub fn arrive_at_next_stop(
        &mut self,
        clock: Cost,
        oracle: &dyn DistanceOracle,
    ) -> Option<Stop> {
        if self.route.is_empty() {
            return None;
        }
        let stop = self.route.remove(0);
        match &mut self.plan {
            Plan::Kinetic(tree) => {
                // The route is the tree's best, so `stop` is a root child.
                let _ = tree.advance_to(stop);
                tree.reroot(stop.node, clock, oracle);
                if let Some((_, schedule)) = tree.best_route() {
                    self.route = schedule;
                }
            }
            Plan::Solver(_, problem) => problem.serve(stop, clock),
        }
        Some(stop)
    }

    /// Serialises the vehicle's complete algorithmic state — identity,
    /// plan and committed route — in the `roadnet::io::bin` conventions
    /// used by simulation checkpoints. [`Vehicle::decode`] restores it
    /// bit-identically.
    pub fn encode(&self, out: &mut Vec<u8>) {
        bin::put_u32(out, self.id);
        match &self.plan {
            Plan::Solver(kind, problem) => {
                out.push(match kind {
                    SolverKind::BruteForce => 0,
                    SolverKind::BranchBound => 1,
                    SolverKind::Mip => 2,
                });
                codec::put_problem(out, problem);
            }
            Plan::Kinetic(tree) => {
                out.push(KINETIC_TAG);
                tree.encode(out);
            }
        }
        bin::put_u64(out, self.route.len() as u64);
        for s in &self.route {
            codec::put_stop(out, s);
        }
    }

    /// Reads a vehicle written by [`Vehicle::encode`]. Malformed input is
    /// reported as [`RoadNetError::Persist`], never a panic.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, RoadNetError> {
        let id = r.u32("vehicle id")?;
        let plan = match r.bytes(1, "planner tag")?[0] {
            0 => Plan::Solver(SolverKind::BruteForce, codec::read_problem(r)?),
            1 => Plan::Solver(SolverKind::BranchBound, codec::read_problem(r)?),
            2 => Plan::Solver(SolverKind::Mip, codec::read_problem(r)?),
            KINETIC_TAG => Plan::Kinetic(KineticTree::decode(r)?),
            other => {
                return Err(RoadNetError::Persist(format!(
                    "unknown planner tag {other}"
                )))
            }
        };
        let n_route = codec::read_len(r, 13, "vehicle route length")?;
        let route = (0..n_route)
            .map(|_| codec::read_stop(r))
            .collect::<Result<_, _>>()?;
        Ok(Vehicle { id, plan, route })
    }
}

/// The plan tag of a kinetic vehicle; a solver's is 0 to 2. Tag 3 is
/// retired and decodes as unknown.
const KINETIC_TAG: u8 = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Constraints, TripRequest};
    use crate::types::{StopKind, TripId};
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

    fn trip(oracle: &MatrixOracle, id: TripId, s: NodeId, e: NodeId, at: Cost) -> WaitingTrip {
        let request = TripRequest::new(id, s, e, at, Constraints::new(8_400.0, 0.5));
        WaitingTrip::for_request(&request, oracle.dist(s, e))
    }

    fn planners() -> Vec<PlannerKind> {
        vec![
            PlannerKind::Solver(SolverKind::BruteForce),
            PlannerKind::Solver(SolverKind::BranchBound),
            PlannerKind::Kinetic(KineticConfig::basic()),
            PlannerKind::Kinetic(KineticConfig::slack()),
        ]
    }

    fn bytes(v: &Vehicle) -> Vec<u8> {
        let mut out = Vec::new();
        v.encode(&mut out);
        out
    }

    #[test]
    fn all_planners_agree_on_a_single_request() {
        let oracle = oracle();
        let mut scratch = ProbeScratch::default();
        let t = trip(&oracle, 1, 7, 30, 0.0);
        let mut costs = Vec::new();
        for planner in planners() {
            let v = Vehicle::new(0, 0, 4, planner, 0.0);
            let p = v.evaluate(t, &oracle, &mut scratch).expect("feasible");
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
        let mut scratch = ProbeScratch::default();
        for planner in planners() {
            let mut v = Vehicle::new(3, 0, 4, planner, 0.0);
            let p = v
                .evaluate(trip(&oracle, 1, 7, 30, 0.0), &oracle, &mut scratch)
                .unwrap();
            let cost = p.cost;
            v.commit(p, &oracle).unwrap();
            assert_eq!(v.active_trip_count(), 1);
            assert_eq!(v.onboard_count(), 0);
            assert_eq!(v.route().len(), 2);

            // Drive to the pickup.
            let first = v.next_stop().unwrap();
            assert_eq!(first, Stop::pickup(1, 7));
            let leg1 = oracle.dist(0, 7);
            let s = v.arrive_at_next_stop(leg1, &oracle).unwrap();
            assert_eq!(s.kind, StopKind::Pickup);
            assert_eq!(v.onboard_count(), 1);
            assert_eq!((v.location(), v.clock()), (7, leg1));

            // Drive to the drop-off.
            let leg2 = oracle.dist(7, 30);
            let s = v.arrive_at_next_stop(leg1 + leg2, &oracle).unwrap();
            assert_eq!(s.kind, StopKind::Dropoff);
            assert_eq!(v.onboard_count(), 0);
            assert_eq!(v.active_trip_count(), 0);
            assert!(v.route().is_empty());
            assert!((cost - (leg1 + leg2)).abs() < 1e-6);
        }
    }

    #[test]
    fn arriving_without_a_committed_stop_changes_nothing() {
        let oracle = oracle();
        for planner in planners() {
            let mut v = Vehicle::new(3, 5, 4, planner, 100.0);
            let before = bytes(&v);
            assert_eq!(v.arrive_at_next_stop(900.0, &oracle), None, "{planner:?}");
            assert_eq!(bytes(&v), before, "{planner:?}");
        }
    }

    #[test]
    fn capacity_is_respected_across_planners() {
        let oracle = oracle();
        let mut scratch = ProbeScratch::default();
        for planner in planners() {
            let mut v = Vehicle::new(0, 0, 1, planner, 0.0);
            let p = v
                .evaluate(trip(&oracle, 1, 7, 30, 0.0), &oracle, &mut scratch)
                .unwrap();
            v.commit(p, &oracle).unwrap();
            // Second passenger whose trip would have to overlap with trip 1
            // can still be accepted if served sequentially; verify that the
            // resulting schedule never has 2 passengers on board.
            if let Some(p) = v.evaluate(trip(&oracle, 2, 8, 31, 0.0), &oracle, &mut scratch) {
                v.commit(p, &oracle).unwrap();
                assert!(v.problem().is_valid(v.route(), &oracle));
            }
        }
    }

    #[test]
    fn infeasible_request_returns_none() {
        let oracle = oracle();
        let mut scratch = ProbeScratch::default();
        let far = (oracle.node_count() - 1) as NodeId;
        let tight = TripRequest::new(1, far, 0, 0.0, Constraints::new(1.0, 0.1));
        let t = WaitingTrip::for_request(&tight, oracle.dist(far, 0));
        for planner in planners() {
            let v = Vehicle::new(0, 0, 4, planner, 0.0);
            assert!(
                v.evaluate(t, &oracle, &mut scratch).is_none(),
                "{planner:?}"
            );
        }
    }

    #[test]
    fn set_position_moves_vehicle_and_tree() {
        let oracle = oracle();
        let mut v = Vehicle::new(0, 0, 4, PlannerKind::Kinetic(KineticConfig::basic()), 0.0);
        v.set_position(10, 500.0, &oracle);
        assert_eq!(v.location(), 10);
        assert_eq!(v.clock(), 500.0);
        assert!(std::ptr::eq(v.problem(), v.tree().unwrap().problem()));
        assert_eq!(v.problem().start, 10);
    }

    #[test]
    fn encode_decode_roundtrips_every_planner() {
        let oracle = oracle();
        let mut scratch = ProbeScratch::default();
        for planner in planners() {
            let mut v = Vehicle::new(9, 0, 4, planner, 0.0);
            let p = v
                .evaluate(trip(&oracle, 1, 7, 30, 0.0), &oracle, &mut scratch)
                .unwrap();
            v.commit(p, &oracle).unwrap();
            let leg = oracle.dist(0, 7);
            v.arrive_at_next_stop(leg, &oracle); // pickup: one on board
            if let Some(p) = v.evaluate(trip(&oracle, 2, 8, 31, leg), &oracle, &mut scratch) {
                v.commit(p, &oracle).unwrap();
            }

            let encoded = bytes(&v);
            let mut r = Reader::new(&encoded);
            let back = Vehicle::decode(&mut r).unwrap();
            assert_eq!(r.remaining(), 0, "{planner:?}");
            assert_eq!(bytes(&back), encoded, "{planner:?}");
            assert_eq!(back.id(), v.id());
            assert_eq!(back.problem(), v.problem());
            assert_eq!(back.route(), v.route());
            assert_eq!(back.tree().is_some(), v.tree().is_some());

            // Truncated input always errors, never panics.
            for len in 0..encoded.len() {
                let mut r = Reader::new(&encoded[..len]);
                assert!(Vehicle::decode(&mut r).is_err(), "truncation at {len}");
            }
        }

        // A retired planner tag is refused by name, not misread.
        let mut r = Reader::new(&[0, 0, 0, 0, 3]);
        assert!(matches!(
            Vehicle::decode(&mut r),
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
