//! Fleet-level dispatching: candidate filtering and minimum-cost assignment.
//!
//! When a request arrives, only servers whose current position lies within
//! the waiting-time radius `w` of the pickup can possibly serve it (any
//! farther server would already violate the waiting-time constraint on the
//! empty road). The dispatcher therefore asks the grid-based spatial index
//! for the vehicles inside that radius, evaluates the request against them,
//! and assigns it to the vehicle offering the smallest augmented trip cost
//! ([`Dispatcher::assign_synced`]) — exactly the paper's simulation loop.
//!
//! The grid hands the radius over cell by cell, nearest cell first
//! ([`GridIndex::cells_by_distance`]). A vehicle is synced, screened and
//! ranked only when its cell is read, and cells are read only while one of
//! them could still hold the next vehicle in best-first order, so a request
//! touches the few dozen vehicles it can use rather than every vehicle in
//! its radius. Only a vehicle that reaches the front of that order is
//! screened again with its road distances, before it is evaluated. The
//! order of evaluation — and so every decision — is the one a global sort
//! of the whole radius would give.
//!
//! The dispatcher also measures the two quantities the paper reports:
//! *average customer response time* (ACRT — wall-clock time to find the best
//! vehicle for one request) and *average response time* (ART — wall-clock
//! time of a single vehicle evaluation, bucketed by how many active requests
//! that vehicle already has).

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

use roadnet::{DistanceOracle, NodeId, Point, RoadNetwork};
use spatial::{Cell, GridIndex, Position};

use crate::problem::{ProbeScratch, WaitingTrip};
use crate::request::TripRequest;
use crate::types::Cost;
use crate::vehicle::{Proposal, Vehicle};

/// Dispatcher configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatcherConfig {
    /// Multiplier applied to the waiting-time radius when querying the grid
    /// index. Values above 1.0 compensate for the difference between the
    /// Euclidean filter distance and the road-network distance actually
    /// constrained (1.0 is exact for networks whose edge weights equal the
    /// Euclidean length; generated networks add jitter, hence the default
    /// slack).
    pub radius_factor: f64,
    /// Slack-aware best-first candidate pruning (Sec. IV of the paper).
    ///
    /// When enabled, each candidate is first screened with O(1) straight-line
    /// lower bounds against the pickup deadline and the kinetic tree's cached
    /// root slacks; survivors are evaluated cheapest-lower-bound-first,
    /// each screened again with road distances when it reaches the front,
    /// with an early exit once the bound meets the incumbent. Assignments are
    /// **provably identical** to exhaustive evaluation — the screen only
    /// removes candidates whose evaluation must fail, and the early exit only
    /// skips candidates that cannot beat the incumbent under the
    /// lowest-vehicle-id tie-break. Only the number of schedule evaluations
    /// (ART bucket counts, [`GridStats::evaluated`]) changes.
    ///
    /// Soundness requires edge weights that dominate the straight-line
    /// distance between their endpoints, which every `roadnet` generator
    /// guarantees; disable for hand-built networks that violate it.
    ///
    /// [`GridStats::evaluated`]: spatial::GridStats::evaluated
    pub use_pruning: bool,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            radius_factor: 1.0,
            use_pruning: true,
        }
    }
}

/// Planner effort level — the serve path's graceful-degradation ladder.
///
/// Under overload the serve loop steps the dispatcher down this ladder one
/// rung at a time and climbs back up with hysteresis; the rungs trade
/// assignment quality for per-request compute:
///
/// * [`Full`](DispatchEffort::Full) — the configured behaviour: every
///   candidate considered, cheapest feasible insertion wins (with or
///   without slack pruning per [`DispatcherConfig::use_pruning`]; the
///   winner is identical either way).
/// * [`SlackPruned`](DispatchEffort::SlackPruned) — forces the slack
///   screen + best-first early exit even when the config disables it.
///   Still exact (same winner as `Full`), but with the compute ceiling the
///   screen provides; a meaningful step only for configs that run
///   exhaustive by default.
/// * [`Greedy`](DispatchEffort::Greedy) — nearest-feasible: candidates are
///   screened, sorted by straight-line distance to the pickup, and the
///   **first** feasible insertion is committed instead of the cheapest.
///   O(1) evaluations in the common case; assignment quality degrades but
///   every committed schedule still satisfies the waiting-time and detour
///   guarantees (feasibility is checked by the same schedule walker).
///
/// Every level is a pure function of fleet state, so degraded runs replay
/// deterministically — what the serve recovery proof requires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DispatchEffort {
    /// Full evaluation: cheapest feasible insertion across all candidates.
    #[default]
    Full,
    /// Slack screen + best-first early exit forced on (still exact).
    SlackPruned,
    /// First feasible insertion in nearest-pickup order.
    Greedy,
}

impl DispatchEffort {
    /// All levels, mildest first — index with [`DispatchEffort::index`].
    pub const ALL: [DispatchEffort; 3] = [
        DispatchEffort::Full,
        DispatchEffort::SlackPruned,
        DispatchEffort::Greedy,
    ];

    /// Position on the ladder: 0 = full effort, 2 = greedy.
    pub fn index(self) -> usize {
        self as usize
    }

    /// One rung down the ladder (less effort); saturates at `Greedy`.
    pub fn degraded(self) -> DispatchEffort {
        match self {
            DispatchEffort::Full => DispatchEffort::SlackPruned,
            _ => DispatchEffort::Greedy,
        }
    }

    /// One rung up the ladder (more effort); saturates at `Full`.
    pub fn restored(self) -> DispatchEffort {
        match self {
            DispatchEffort::Greedy => DispatchEffort::SlackPruned,
            _ => DispatchEffort::Full,
        }
    }

    /// Stable lower-case name for reports and logs.
    pub fn name(self) -> &'static str {
        match self {
            DispatchEffort::Full => "full",
            DispatchEffort::SlackPruned => "slack_pruned",
            DispatchEffort::Greedy => "greedy",
        }
    }
}

/// Outcome of dispatching one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AssignmentOutcome {
    /// The request was assigned to `vehicle` with the given augmented cost.
    Assigned {
        /// Winning vehicle id.
        vehicle: u32,
        /// Cost of the winning augmented schedule.
        cost: Cost,
        /// Number of candidate vehicles in the request's radius.
        candidates: usize,
    },
    /// No candidate vehicle could serve the request within its constraints.
    Rejected {
        /// Number of candidate vehicles in the request's radius.
        candidates: usize,
    },
}

impl AssignmentOutcome {
    /// True when the request was assigned.
    pub fn is_assigned(&self) -> bool {
        matches!(self, AssignmentOutcome::Assigned { .. })
    }

    /// Number of candidate vehicles in the request's radius.
    pub fn candidates(&self) -> usize {
        match *self {
            AssignmentOutcome::Assigned { candidates, .. }
            | AssignmentOutcome::Rejected { candidates } => candidates,
        }
    }
}

/// Aggregated dispatching statistics (ACRT / ART bookkeeping).
#[derive(Debug, Clone, Default)]
pub struct DispatchStats {
    /// Requests processed.
    pub requests: u64,
    /// Requests assigned to some vehicle.
    pub assigned: u64,
    /// Requests rejected (no feasible vehicle).
    pub rejected: u64,
    /// Total candidates — vehicles within the request's radius — over all
    /// requests.
    pub candidates: u64,
    /// Total wall-clock nanoseconds spent answering requests (ACRT total):
    /// the whole of [`Dispatcher::assign_synced`] — the grid query, syncing
    /// each vehicle it reads to its current position, screening,
    /// evaluation, selection and the winner's commit.
    pub response_nanos: u128,
    /// Per-vehicle evaluation time bucketed by the vehicle's number of
    /// active requests at evaluation time: bucket -> (evaluations, nanos).
    pub art_buckets: BTreeMap<usize, (u64, u128)>,
}

impl DispatchStats {
    /// Average customer response time in milliseconds.
    pub fn acrt_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.response_nanos as f64 / self.requests as f64 / 1.0e6
        }
    }

    /// Average per-vehicle evaluation time (ms) for vehicles that currently
    /// have `active` active requests, if any were measured.
    pub fn art_ms(&self, active: usize) -> Option<f64> {
        self.art_buckets
            .get(&active)
            .map(|&(count, nanos)| nanos as f64 / count as f64 / 1.0e6)
    }

    /// All ART buckets as `(active requests, evaluations, mean ms)`.
    pub fn art_table(&self) -> Vec<(usize, u64, f64)> {
        self.art_buckets
            .iter()
            .map(|(&k, &(count, nanos))| (k, count, nanos as f64 / count as f64 / 1.0e6))
            .collect()
    }

    /// Fraction of requests that were assigned.
    pub fn service_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.assigned as f64 / self.requests as f64
        }
    }

    /// Mean number of candidates (spatial-filter hits) per request.
    pub fn mean_candidates(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.candidates as f64 / self.requests as f64
        }
    }

    /// Total schedule evaluations actually performed — the sum of the ART
    /// bucket counts. With pruning enabled this is (usually far) smaller
    /// than [`DispatchStats::candidates`]: the slack screen and the
    /// best-first early exit discard candidates before any schedule is
    /// touched.
    pub fn evaluated(&self) -> u64 {
        self.art_buckets.values().map(|&(c, _)| c).sum()
    }

    /// Mean number of candidates fully evaluated per request.
    pub fn mean_evaluated(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.evaluated() as f64 / self.requests as f64
        }
    }
}

/// Safety margin (meters) of the candidate screen, whose straight-line
/// bounds are Euclidean (irrational, not on the weights' grid) and so
/// round. A candidate is only pruned when its lower bound exceeds the
/// relevant budget by more than this, so screening can never reject a
/// vehicle whose evaluation would have succeeded.
const PRUNE_EPS: f64 = 1e-3;

/// Outcome of the O(1) candidate screen.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Screen {
    /// No feasible insertion can exist: every augmented schedule provably
    /// violates the pickup deadline or a cached root slack.
    Pruned,
    /// The candidate survives; `lb` is an admissible lower bound on the
    /// cost of any feasible augmented schedule.
    Keep {
        /// Admissible lower bound (meters) on the augmented schedule cost.
        lb: Cost,
        /// Straight-line distance (meters) from the vehicle to the pickup.
        reach: Cost,
    },
}

/// Screens one candidate vehicle against `request` using the kinetic
/// tree's cached per-branch bottleneck slacks and a distance `|a b|`
/// between the pickup and a vertex: the straight line or, given `exact =
/// Some((oracle, source))`, the road distance `oracle.dist` to the pickup
/// vertex `source`. No schedule is constructed.
///
/// Soundness (assignments stay bit-identical to exhaustive evaluation):
/// a road distance is a shortest path, and on every generated network it
/// dominates the straight line, so
/// * any augmented route reaches the pickup no earlier than
///   `clock + |vehicle pickup|` — later than the deadline means infeasible;
/// * a route that serves the pickup before the schedule's first old stop
///   `c` inserts a detour of at least `|vehicle pickup| + |pickup c| - leg(c)`
///   ahead of `c`, which by Theorem 1 kills the whole branch when it
///   exceeds the branch's bottleneck root slack;
/// * a route that serves some old first stop `c` before the pickup cannot
///   reach the pickup before `clock + leg(c) + |c pickup|`.
///
/// A candidate is pruned only when **every** root branch fails both of the
/// last two tests (and the bound always keeps [`PRUNE_EPS`] of safety), so
/// a pruned candidate's `evaluate` must return `None`.
///
/// The returned lower bound is `max(best remaining cost, |vehicle pickup| +
/// direct)`: removing the two new stops from any augmented route leaves a
/// valid old route (so the augmented cost is at least the old optimum), and
/// every augmented route travels to the pickup and then covers at least the
/// direct pickup-to-dropoff distance.
fn screen_candidate(
    vehicle: &Vehicle,
    graph: &RoadNetwork,
    pickup: Point,
    deadline: Cost,
    direct: Cost,
    exact: Option<(&dyn DistanceOracle, NodeId)>,
) -> Screen {
    let to = |node: NodeId| match exact {
        Some((oracle, source)) => oracle.dist(node, source),
        None => graph.point(node).distance(&pickup),
    };
    let to_pickup = to(vehicle.location());
    if vehicle.clock() + to_pickup > deadline + PRUNE_EPS {
        return Screen::Pruned;
    }
    let mut base = 0.0;
    if let Some(tree) = vehicle.tree() {
        let mut has_branch = false;
        let mut alive = false;
        for (node, leg, slack) in tree.root_branches() {
            has_branch = true;
            let pickup_to_branch = to(node);
            if to_pickup + pickup_to_branch - leg <= slack + PRUNE_EPS
                || vehicle.clock() + leg + pickup_to_branch <= deadline + PRUNE_EPS
            {
                alive = true;
                break;
            }
        }
        if has_branch && !alive {
            return Screen::Pruned;
        }
        let best = tree.best_cost();
        if best.is_finite() {
            base = best;
        }
    }
    Screen::Keep {
        lb: base.max(to_pickup + direct),
        reach: to_pickup,
    }
}

/// Vehicle `vid` of `vehicles`. A vehicle's id is its slot, so this is
/// slot `vid` — unless there is no such slot, or the slot carries another
/// id, and then there is no vehicle `vid` to evaluate.
fn vehicle(vehicles: &mut [Vehicle], vid: u32) -> Option<&mut Vehicle> {
    vehicles.get_mut(vid as usize).filter(|v| v.id() == vid)
}

/// How far the grid's positions may lag the vehicles', and how to catch a
/// vehicle up before the dispatcher reads it.
///
/// An engine indexes each vehicle at the last vertex it reached, but
/// screens and prices it at the vertex it is driving to, one road segment
/// on; it brings a vehicle to that vertex only when a request reads it.
pub struct LazySync<'s> {
    /// Upper bound (meters) on the straight-line distance between a
    /// vehicle's indexed position and its [`Vehicle::location`] once
    /// `sync` has run. The nearest-first stop rule subtracts it from every
    /// cell's distance, so an understated lag can skip a better vehicle.
    pub lag: f64,
    /// Called on a vehicle before it is screened or evaluated, possibly
    /// more than once per request or per batch, so it must be idempotent
    /// at a fixed clock.
    pub sync: &'s mut dyn FnMut(&mut Vehicle),
}

/// A screened survivor waiting to be evaluated: its sort key and id,
/// ordered by `(key, id)`. A key is a bound or a Euclidean length, so
/// `>= +0.0` and never NaN, where `total_cmp` is the numeric order.
/// `refined` — the key already holds the vehicle's road reach — is not
/// part of the order.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    key: Cost,
    vid: u32,
    refined: bool,
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .total_cmp(&other.key)
            .then(self.vid.cmp(&other.vid))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// One request's candidates, read nearest cell first. Reading a cell syncs
/// and screens each of its in-radius vehicles (see [`screen_candidate`])
/// and pushes the survivors onto a min-heap on `(key, id)`: the key is the
/// admissible lower bound, or for [`DispatchEffort::Greedy`] the
/// straight-line distance to the pickup.
///
/// A vehicle in a cell at distance `near` from the pickup sits at least
/// `near - lag` from it once synced, so its key is at least
/// [`Frontier::floor`]`(near)`. While the next cell's floor is at most the
/// heap's minimum, that cell is read; once it is above, the minimum is the
/// smallest `(key, id)` of the whole radius — the element a global sort
/// would put next. `<=`, not `<`, because an unread vehicle could tie the
/// minimum's key with a lower id.
struct Frontier {
    pickup: Point,
    centre: Position,
    radius: f64,
    /// The request as the trip every candidate is screened and priced for.
    trip: WaitingTrip,
    direct: Cost,
    greedy: bool,
    lag: f64,
    cells: Vec<(f64, Cell)>,
    next: usize,
    ranked: BinaryHeap<Reverse<Ranked>>,
    by_slack: u64,
}

impl Frontier {
    /// The least key a vehicle indexed `near` meters from the pickup can
    /// have: `PRUNE_EPS` absorbs the rounding of the distances involved.
    fn floor(&self, near: f64) -> Cost {
        let offset = if self.greedy { 0.0 } else { self.direct };
        near - self.lag - PRUNE_EPS + offset
    }

    /// Reads cells until the heap's minimum is the radius-wide minimum, or
    /// until no unread vehicle can reach `limit` — an incumbent's cost,
    /// which every unread vehicle then loses to.
    fn read_until(
        &mut self,
        limit: Cost,
        index: &GridIndex,
        vehicles: &mut [Vehicle],
        graph: &RoadNetwork,
        sync: &mut dyn FnMut(&mut Vehicle),
    ) {
        while let Some(&(near, cell)) = self.cells.get(self.next) {
            let least = self
                .ranked
                .peek()
                .map_or(limit, |Reverse(r)| r.key.min(limit));
            if self.floor(near) > least {
                return;
            }
            self.next += 1;
            // Sync, screen and rank every vehicle of the cell inside the
            // radius; an id with no vehicle is skipped.
            for &(vid, pos) in index.cell(cell) {
                if !pos.within(self.centre, self.radius) {
                    continue;
                }
                let Some(v) = vehicle(vehicles, vid) else {
                    continue;
                };
                sync(v);
                let deadline = self.trip.pickup_deadline;
                match screen_candidate(v, graph, self.pickup, deadline, self.direct, None) {
                    Screen::Pruned => self.by_slack += 1,
                    Screen::Keep { lb, reach } => {
                        let key = if self.greedy { reach } else { lb };
                        self.ranked.push(Reverse(Ranked {
                            key,
                            vid,
                            refined: false,
                        }));
                    }
                }
            }
        }
    }
}

/// Fleet-level matcher.
#[derive(Debug, Clone, Default)]
pub struct Dispatcher {
    config: DispatcherConfig,
    stats: DispatchStats,
    /// Current effort level (the serve path's degradation ladder).
    effort: DispatchEffort,
    /// The buffers of every pricing walk ([`Vehicle::evaluate`]).
    probe: ProbeScratch,
    /// [`Frontier::cells`] and [`Frontier::ranked`] between requests:
    /// each request clears them and the next reuses their capacity.
    cells: Vec<(f64, Cell)>,
    ranked: BinaryHeap<Reverse<Ranked>>,
}

impl Dispatcher {
    /// Creates a dispatcher with the given configuration.
    pub fn new(config: DispatcherConfig) -> Self {
        Dispatcher {
            config,
            stats: DispatchStats::default(),
            effort: DispatchEffort::Full,
            probe: ProbeScratch::default(),
            cells: Vec::new(),
            ranked: BinaryHeap::new(),
        }
    }

    /// Dispatching statistics accumulated so far.
    pub fn stats(&self) -> &DispatchStats {
        &self.stats
    }

    /// Current effort level.
    pub fn effort(&self) -> DispatchEffort {
        self.effort
    }

    /// Sets the effort level for subsequent dispatches.
    pub fn set_effort(&mut self, effort: DispatchEffort) {
        self.effort = effort;
    }

    /// Resets the accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats = DispatchStats::default();
    }

    /// Replaces the accumulated statistics wholesale — used when resuming a
    /// checkpointed simulation, whose final report must account for the
    /// requests dispatched before the snapshot.
    pub fn set_stats(&mut self, stats: DispatchStats) {
        self.stats = stats;
    }

    /// Every candidate vehicle id for a request, ascending: those whose
    /// indexed position is within the waiting-time radius of the pickup
    /// vertex ([`GridIndex::query_radius`] sorts).
    ///
    /// The exhaustive rung reads these; the others read the same radius
    /// nearest cell first. Neither timed nor counted as a dispatch, so an
    /// observer that needs the whole id list can ask for it.
    pub fn candidates(
        &self,
        request: &TripRequest,
        graph: &RoadNetwork,
        index: &mut GridIndex,
    ) -> Vec<u32> {
        let p = graph.point(request.source);
        index.query_radius(Position::new(p.x, p.y), self.radius(request))
    }

    /// The spatial filter's radius for `request`.
    fn radius(&self, request: &TripRequest) -> f64 {
        request.constraints.max_wait * self.config.radius_factor
    }

    /// [`Dispatcher::assign_synced`] over a fleet the grid indexes exactly
    /// where it stands: no lag, nothing to sync. Asks `oracle` for the
    /// request's `d(source, destination)`.
    pub fn assign(
        &mut self,
        request: &TripRequest,
        vehicles: &mut [Vehicle],
        graph: &RoadNetwork,
        index: &mut GridIndex,
        oracle: &dyn DistanceOracle,
    ) -> AssignmentOutcome {
        let direct = oracle.dist(request.source, request.destination);
        let lazy = LazySync {
            lag: 0.0,
            sync: &mut |_| {},
        };
        self.assign_synced(request, direct, vehicles, graph, index, oracle, lazy)
    }

    /// Processes one request start to finish: evaluates it against the
    /// vehicles within its waiting-time radius, assigns it to the cheapest
    /// feasible one (committing it) and records statistics. `direct` is
    /// the request's `d(source, destination)`, asked of the oracle once by
    /// the caller; with it the request becomes one [`WaitingTrip`], which
    /// each evaluation prices ([`Vehicle::evaluate`]). Only the winner's
    /// commit builds an augmented kinetic tree. A request whose
    /// destination has no route from its source is rejected without
    /// reading a vehicle. A vehicle's id is its slot in
    /// `vehicles`; an indexed id with no slot, or whose slot carries
    /// another id, is skipped, though it still counts as a candidate.
    /// `lazy.sync` runs on every vehicle before it is screened or
    /// evaluated.
    ///
    /// With [`DispatcherConfig::use_pruning`] (the default) candidates are
    /// read nearest cell first (see [`GridIndex::cells_by_distance`]),
    /// screened with `screen_candidate` and evaluated best-first by
    /// admissible lower bound, stopping once the next bound — of a ranked
    /// vehicle or of an unread cell — loses to the incumbent. Otherwise
    /// every candidate is evaluated in ascending-id order. The chosen
    /// assignment is identical either way, and so is the reported
    /// candidate count: the grid counts the whole radius without reading
    /// it.
    ///
    /// Cost ties break to the lowest vehicle id, so the assignment is a
    /// pure function of fleet state. A batch of concurrent requests is
    /// dispatched by calling this once per request in submission order:
    /// each call commits its winner before the next request is screened, so
    /// request `i` sees every commit made for requests `0..i`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the engine lends its fleet, grid, graph, oracle and sync hook as separate borrows"
    )]
    pub fn assign_synced(
        &mut self,
        request: &TripRequest,
        direct: Cost,
        vehicles: &mut [Vehicle],
        graph: &RoadNetwork,
        index: &mut GridIndex,
        oracle: &dyn DistanceOracle,
        lazy: LazySync<'_>,
    ) -> AssignmentOutcome {
        #[expect(
            clippy::disallowed_methods,
            reason = "ACRT timer: response_nanos records real compute cost and is excluded from bit-identity"
        )]
        let timer = Instant::now();
        let trip = WaitingTrip::for_request(request, direct);
        let (candidates, best) = match self.effort {
            // No vehicle can complete a trip that has no route.
            _ if !direct.is_finite() => (self.candidates(request, graph, index).len(), None),
            DispatchEffort::Full if !self.config.use_pruning => {
                let ids = self.candidates(request, graph, index);
                let best = self.evaluate_exhaustive(trip, &ids, vehicles, index, oracle, lazy);
                (ids.len(), best)
            }
            _ => {
                let pickup = graph.point(request.source);
                let frontier = Frontier {
                    pickup,
                    centre: Position::new(pickup.x, pickup.y),
                    radius: self.radius(request),
                    trip,
                    direct,
                    greedy: self.effort == DispatchEffort::Greedy,
                    lag: lazy.lag,
                    cells: std::mem::take(&mut self.cells),
                    next: 0,
                    ranked: std::mem::take(&mut self.ranked),
                    by_slack: 0,
                };
                self.evaluate_nearest_first(frontier, vehicles, graph, index, oracle, lazy.sync)
            }
        };
        // The winner's commit builds its kinetic tree; a build that
        // disagreed with the probe that priced it would leave the vehicle
        // untouched and the request rejected.
        let winner = best.and_then(|(vehicle, proposal)| {
            let cost = proposal.cost;
            let committed = vehicles[vehicle as usize].commit(proposal, oracle).ok();
            committed.map(|()| (vehicle, cost))
        });
        self.stats.requests += 1;
        self.stats.candidates += candidates as u64;
        self.stats.response_nanos += timer.elapsed().as_nanos();
        match winner {
            Some((vehicle, cost)) => {
                self.stats.assigned += 1;
                AssignmentOutcome::Assigned {
                    vehicle,
                    cost,
                    candidates,
                }
            }
            None => {
                self.stats.rejected += 1;
                AssignmentOutcome::Rejected { candidates }
            }
        }
    }

    /// Evaluates `request` on `vehicle`, booking the wall-clock time in the
    /// ART bucket of the vehicle's active-request count.
    fn evaluate(
        &mut self,
        vehicle: &Vehicle,
        trip: WaitingTrip,
        oracle: &dyn DistanceOracle,
    ) -> Option<Proposal> {
        let active = vehicle.active_trip_count();
        #[expect(
            clippy::disallowed_methods,
            reason = "ART timer: the per-bucket evaluation nanos record real compute cost and are excluded from bit-identity"
        )]
        let timer = Instant::now();
        let proposal = vehicle.evaluate(trip, oracle, &mut self.probe);
        let nanos = timer.elapsed().as_nanos();
        let bucket = self.stats.art_buckets.entry(active).or_insert((0, 0));
        bucket.0 += 1;
        bucket.1 += nanos;
        proposal
    }

    /// Exhaustive evaluation in ascending-id order (pruning disabled).
    fn evaluate_exhaustive(
        &mut self,
        trip: WaitingTrip,
        candidates: &[u32],
        vehicles: &mut [Vehicle],
        index: &mut GridIndex,
        oracle: &dyn DistanceOracle,
        lazy: LazySync<'_>,
    ) -> Option<(u32, Proposal)> {
        let mut best: Option<(u32, Proposal)> = None;
        let mut evaluated = 0u64;
        for &vid in candidates {
            let Some(v) = vehicle(vehicles, vid) else {
                continue;
            };
            (lazy.sync)(v);
            evaluated += 1;
            if let Some(p) = self.evaluate(v, trip, oracle) {
                // Strictly-better cost wins; on an exact tie the lowest
                // vehicle id wins (candidate ids arrive in ascending order,
                // so keeping the incumbent implements that).
                if best.as_ref().is_none_or(|(_, b)| p.cost < b.cost) {
                    best = Some((vid, p));
                }
            }
        }
        index.record_pruning(candidates.len() as u64, 0, 0, 0, evaluated);
        best
    }

    /// Best-first evaluation over the candidates as a [`Frontier`] yields
    /// them; returns the radius's candidate count and the winner.
    ///
    /// [`DispatchEffort::Full`] and [`DispatchEffort::SlackPruned`] keep
    /// the cheapest feasible insertion and stop once the next key loses to
    /// the incumbent under the `(cost, vehicle id)` lexicographic order.
    /// A vehicle that reaches the top of the heap is screened again with
    /// its road distances before it is evaluated (ranked enumeration pays
    /// for the exact bound only on the candidate about to be probed):
    /// pruned, it is counted as `pruned_by_reach`; kept, it goes back with
    /// its key raised to the road bound less [`PRUNE_EPS`]. A key only
    /// rises, so the frontier's cell floors stay below it. This returns
    /// the same winner as [`Dispatcher::evaluate_exhaustive`]: see
    /// [`screen_candidate`] for why both screens are sound, and every key
    /// is an admissible lower bound.
    ///
    /// [`DispatchEffort::Greedy`] takes the **first** feasible insertion in
    /// ascending straight-line distance to the pickup (ties to the lowest
    /// vehicle id). The schedule walker still enforces every guarantee, so
    /// a greedy assignment is feasible — just not necessarily cheapest —
    /// and deterministic: the visit order and the stop-at-first rule are
    /// pure functions of fleet state.
    fn evaluate_nearest_first(
        &mut self,
        mut frontier: Frontier,
        vehicles: &mut [Vehicle],
        graph: &RoadNetwork,
        index: &mut GridIndex,
        oracle: &dyn DistanceOracle,
        sync: &mut dyn FnMut(&mut Vehicle),
    ) -> (usize, Option<(u32, Proposal)>) {
        let in_radius =
            index.cells_by_distance(frontier.centre, frontier.radius, &mut frontier.cells);
        let mut best: Option<(u32, Proposal)> = None;
        let (mut evaluated, mut by_reach, mut by_bound) = (0u64, 0u64, 0u64);
        loop {
            let incumbent = best.as_ref().map_or(Cost::INFINITY, |(_, b)| b.cost);
            frontier.read_until(incumbent, index, vehicles, graph, sync);
            let Some(Reverse(Ranked { key, vid, refined })) = frontier.ranked.pop() else {
                break;
            };
            if let Some((best_vid, b)) = &best {
                // Every remaining candidate comes after (key, vid), so once
                // the key meets the incumbent nothing later can win the
                // (cost, id) lexicographic comparison either.
                if key > b.cost || (key == b.cost && vid > *best_vid) {
                    by_bound = frontier.ranked.len() as u64 + 1;
                    break;
                }
            }
            // Greedy keeps its straight-line order: a road key would
            // change which feasible vehicle comes first.
            if !refined && !frontier.greedy {
                let exact = Some((oracle, frontier.trip.pickup));
                let (pickup, deadline) = (frontier.pickup, frontier.trip.pickup_deadline);
                let v = &vehicles[vid as usize];
                match screen_candidate(v, graph, pickup, deadline, frontier.direct, exact) {
                    Screen::Pruned => by_reach += 1,
                    Screen::Keep { lb, .. } => frontier.ranked.push(Reverse(Ranked {
                        key: key.max(lb - PRUNE_EPS),
                        vid,
                        refined: true,
                    })),
                }
                continue;
            }
            evaluated += 1;
            let Some(p) = self.evaluate(&vehicles[vid as usize], frontier.trip, oracle) else {
                continue;
            };
            if frontier.greedy {
                by_bound = frontier.ranked.len() as u64;
                best = Some((vid, p));
                break;
            }
            let better = match &best {
                None => true,
                Some((best_vid, b)) => p.cost < b.cost || (p.cost == b.cost && vid < *best_vid),
            };
            if better {
                best = Some((vid, p));
            }
        }
        index.record_pruning(
            in_radius as u64,
            frontier.by_slack,
            by_reach,
            by_bound,
            evaluated,
        );
        frontier.ranked.clear();
        self.cells = frontier.cells;
        self.ranked = frontier.ranked;
        (in_radius, best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinetic::KineticConfig;
    use crate::request::Constraints;
    use crate::vehicle::PlannerKind;
    use roadnet::{CachedOracle, GeneratorConfig, NetworkKind};

    fn setup(planner: PlannerKind, positions: &[u32]) -> (RoadNetwork, Vec<Vehicle>, GridIndex) {
        let graph = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 8, cols: 8 },
            seed: 3,
            ..GeneratorConfig::default()
        }
        .generate();
        let mut vehicles = Vec::new();
        let mut index = GridIndex::new(1_000.0);
        for (i, &node) in positions.iter().enumerate() {
            let v = Vehicle::new(i as u32, node, 4, planner, 0.0);
            let p = graph.point(node);
            index.insert(i as u32, Position::new(p.x, p.y));
            vehicles.push(v);
        }
        (graph, vehicles, index)
    }

    #[test]
    fn nearest_feasible_vehicle_wins() {
        let (graph, mut vehicles, mut index) =
            setup(PlannerKind::Kinetic(KineticConfig::basic()), &[0, 35, 63]);
        let oracle = CachedOracle::new(&graph);
        let mut dispatcher = Dispatcher::new(DispatcherConfig::default());
        // Request right next to vehicle 1 (node 35).
        let req = TripRequest::new(1, 36, 60, 0.0, Constraints::new(8_400.0, 0.3));
        let out = dispatcher.assign(&req, &mut vehicles, &graph, &mut index, &oracle);
        match out {
            AssignmentOutcome::Assigned {
                vehicle,
                cost,
                candidates,
            } => {
                assert_eq!(vehicle, 1, "the nearby vehicle should win");
                assert!(cost > 0.0);
                assert!(candidates >= 1);
            }
            other => panic!("expected assignment, got {other:?}"),
        }
        assert!(out.is_assigned());
        assert_eq!(vehicles[1].active_trip_count(), 1);
        assert_eq!(vehicles[0].active_trip_count(), 0);
        assert_eq!(dispatcher.stats().assigned, 1);
        assert_eq!(dispatcher.stats().service_rate(), 1.0);
        assert!(dispatcher.stats().acrt_ms() >= 0.0);
        assert!(dispatcher.stats().mean_candidates() >= 1.0);
    }

    #[test]
    fn out_of_range_requests_are_rejected() {
        // One vehicle at the far corner, request at the near corner with a
        // waiting budget far too small to cover the distance.
        let (graph, mut vehicles, mut index) = setup(
            PlannerKind::Solver(crate::algorithms::SolverKind::BruteForce),
            &[63],
        );
        let oracle = CachedOracle::new(&graph);
        let mut dispatcher = Dispatcher::new(DispatcherConfig::default());
        let req = TripRequest::new(1, 0, 9, 0.0, Constraints::new(300.0, 0.2));
        let out = dispatcher.assign(&req, &mut vehicles, &graph, &mut index, &oracle);
        assert!(matches!(out, AssignmentOutcome::Rejected { .. }));
        assert_eq!(dispatcher.stats().rejected, 1);
        // The spatial filter should have excluded the far vehicle entirely.
        assert_eq!(dispatcher.stats().candidates, 0);
    }

    #[test]
    fn a_trip_with_no_route_is_rejected_with_its_candidates_counted() {
        // Three vertices on a road and a fourth that no road reaches.
        let mut b = roadnet::GraphBuilder::new();
        for x in [0.0, 200.0, 400.0, 300.0] {
            b.add_node(roadnet::Point::new(x, 0.0));
        }
        b.add_edge(0, 1, 200.0);
        b.add_edge(1, 2, 200.0);
        let graph = b.build();
        let oracle = CachedOracle::new(&graph);
        let req = TripRequest::new(1, 1, 3, 0.0, Constraints::new(8_400.0, 0.3));
        let planner = PlannerKind::Kinetic(KineticConfig::slack());
        for config in configs() {
            let mut vehicles = Vec::new();
            let mut index = GridIndex::new(1_000.0);
            for (i, node) in [0u32, 2].into_iter().enumerate() {
                vehicles.push(Vehicle::new(i as u32, node, 4, planner, 0.0));
                let p = graph.point(node);
                index.insert(i as u32, Position::new(p.x, p.y));
            }
            let mut dispatcher = Dispatcher::new(config);
            let out = dispatcher.assign(&req, &mut vehicles, &graph, &mut index, &oracle);
            assert_eq!(out, AssignmentOutcome::Rejected { candidates: 2 });
            assert!(vehicles.iter().all(|v| v.active_trip_count() == 0));
        }
    }

    #[test]
    fn a_vehicle_near_in_a_straight_line_but_far_by_road_is_pruned_at_the_top_of_the_heap() {
        // Two parallel roads 100 m apart, joined only at x = 0. Vehicle 0
        // is on the upper road 100 m above the pickup, 4.1 km away by
        // road; vehicle 1 is on the pickup's road 1 km from it.
        let mut b = roadnet::GraphBuilder::new();
        for (x, y) in [(0.0, 0.0), (1_000.0, 0.0), (2_000.0, 0.0), (3_000.0, 0.0)] {
            b.add_node(roadnet::Point::new(x, y));
        }
        for (x, y) in [(0.0, 100.0), (1_000.0, 100.0), (2_000.0, 100.0)] {
            b.add_node(roadnet::Point::new(x, y));
        }
        for (u, v, w) in [(0, 1, 1_000.0), (1, 2, 1_000.0), (2, 3, 1_000.0)] {
            b.add_edge(u, v, w);
        }
        for (u, v, w) in [(0, 4, 100.0), (4, 5, 1_000.0), (5, 6, 1_000.0)] {
            b.add_edge(u, v, w);
        }
        let graph = b.build();
        let oracle = CachedOracle::new(&graph);
        let req = TripRequest::new(1, 2, 3, 0.0, Constraints::new(1_500.0, 0.3));
        let planner = PlannerKind::Kinetic(KineticConfig::slack());
        let run = |config: DispatcherConfig| {
            let mut vehicles = Vec::new();
            let mut index = GridIndex::new(1_000.0);
            for (i, node) in [6u32, 1].into_iter().enumerate() {
                vehicles.push(Vehicle::new(i as u32, node, 4, planner, 0.0));
                let p = graph.point(node);
                index.insert(i as u32, Position::new(p.x, p.y));
            }
            let mut dispatcher = Dispatcher::new(config);
            let out = dispatcher.assign(&req, &mut vehicles, &graph, &mut index, &oracle);
            (out, dispatcher.stats().evaluated(), index.stats())
        };
        let [pruning, exhaustive] = configs();
        let (out, evaluated, grid) = run(pruning);
        assert_eq!(
            (grid.pruned_by_slack, grid.pruned_by_reach, evaluated),
            (0, 1, 1),
            "vehicle 0 passes the straight-line screen and is pruned by road, unprobed"
        );
        assert!(matches!(
            out,
            AssignmentOutcome::Assigned { vehicle: 1, .. }
        ));
        assert_eq!(out, run(exhaustive).0);
    }

    #[test]
    fn disabling_the_spatial_filter_evaluates_every_vehicle() {
        let (graph, mut vehicles, mut index) = setup(
            PlannerKind::Kinetic(KineticConfig::slack()),
            &[0, 7, 56, 63],
        );
        let oracle = CachedOracle::new(&graph);
        // A radius as long as the map's diagonal admits every vehicle.
        let (min, max) = graph.bounding_box();
        let max_wait = 8_400.0;
        let mut dispatcher = Dispatcher::new(DispatcherConfig {
            radius_factor: min.distance(&max) / max_wait,
            ..DispatcherConfig::default()
        });
        let req = TripRequest::new(1, 27, 36, 0.0, Constraints::new(max_wait, 0.3));
        let out = dispatcher.assign(&req, &mut vehicles, &graph, &mut index, &oracle);
        match out {
            AssignmentOutcome::Assigned { candidates, .. } => assert_eq!(candidates, 4),
            other => panic!("{other:?}"),
        }
        // ART buckets were filled for vehicles with zero active requests.
        assert!(dispatcher.stats().art_ms(0).is_some());
        assert_eq!(dispatcher.stats().art_table().len(), 1);
    }

    #[test]
    fn effort_ladder_steps_and_names_are_consistent() {
        use DispatchEffort::*;
        assert_eq!(Full.degraded(), SlackPruned);
        assert_eq!(SlackPruned.degraded(), Greedy);
        assert_eq!(Greedy.degraded(), Greedy, "bottom rung saturates");
        assert_eq!(Greedy.restored(), SlackPruned);
        assert_eq!(SlackPruned.restored(), Full);
        assert_eq!(Full.restored(), Full, "top rung saturates");
        for (i, level) in DispatchEffort::ALL.iter().enumerate() {
            assert_eq!(level.index(), i);
        }
        assert_eq!(Full.name(), "full");
        assert_eq!(Greedy.name(), "greedy");
        assert_eq!(DispatchEffort::default(), Full);
    }

    #[test]
    fn greedy_commits_the_nearest_feasible_vehicle_deterministically() {
        // Vehicle 1 sits right at the pickup; vehicle 0 is farther away but
        // both are feasible. Full effort and greedy agree here (the nearest
        // is also the cheapest), and greedy stops after one evaluation.
        let (graph, mut vehicles, mut index) =
            setup(PlannerKind::Kinetic(KineticConfig::slack()), &[0, 36, 63]);
        let oracle = CachedOracle::new(&graph);
        let mut dispatcher = Dispatcher::new(DispatcherConfig::default());
        dispatcher.set_effort(DispatchEffort::Greedy);
        assert_eq!(dispatcher.effort(), DispatchEffort::Greedy);
        let req = TripRequest::new(1, 36, 60, 0.0, Constraints::new(8_400.0, 0.3));
        let out = dispatcher.assign(&req, &mut vehicles, &graph, &mut index, &oracle);
        match out {
            AssignmentOutcome::Assigned { vehicle, .. } => {
                assert_eq!(vehicle, 1, "nearest feasible vehicle must win");
            }
            other => panic!("expected assignment, got {other:?}"),
        }
        // Greedy under an infeasible request still rejects cleanly.
        dispatcher.set_effort(DispatchEffort::Greedy);
        let far = TripRequest::new(2, 7, 9, 0.0, Constraints::new(1.0, 0.2));
        let out = dispatcher.assign(&far, &mut vehicles, &graph, &mut index, &oracle);
        assert!(matches!(out, AssignmentOutcome::Rejected { .. }));
        // SlackPruned forces the pruned path even with pruning disabled in
        // config, and matches the Full winner on a fresh identical fleet.
        let (graph2, mut fleet_a, mut index_a) =
            setup(PlannerKind::Kinetic(KineticConfig::slack()), &[0, 36, 63]);
        let (_, mut fleet_b, mut index_b) =
            setup(PlannerKind::Kinetic(KineticConfig::slack()), &[0, 36, 63]);
        let oracle2 = CachedOracle::new(&graph2);
        let no_prune = DispatcherConfig {
            use_pruning: false,
            ..DispatcherConfig::default()
        };
        let mut full = Dispatcher::new(no_prune);
        let mut forced = Dispatcher::new(no_prune);
        forced.set_effort(DispatchEffort::SlackPruned);
        let req2 = TripRequest::new(3, 27, 60, 0.0, Constraints::new(8_400.0, 0.3));
        let a = full.assign(&req2, &mut fleet_a, &graph2, &mut index_a, &oracle2);
        let b = forced.assign(&req2, &mut fleet_b, &graph2, &mut index_b, &oracle2);
        match (a, b) {
            (
                AssignmentOutcome::Assigned {
                    vehicle: va,
                    cost: ca,
                    ..
                },
                AssignmentOutcome::Assigned {
                    vehicle: vb,
                    cost: cb,
                    ..
                },
            ) => {
                assert_eq!(va, vb, "slack-pruned winner must match exhaustive");
                assert_eq!(ca, cb);
            }
            other => panic!("expected two assignments, got {other:?}"),
        }
    }

    #[test]
    fn second_request_of_a_window_sees_the_first_commit() {
        // Both requests start right next to vehicle 1 (node 35). Dispatched
        // in order, the second is evaluated against vehicle 1's schedule
        // *with the first rider already committed* — so it cannot get the
        // answer it would get from an untouched fleet.
        let positions = [0u32, 35, 63];
        let planner = PlannerKind::Kinetic(KineticConfig::basic());
        let first = TripRequest::new(1, 36, 60, 0.0, Constraints::new(8_400.0, 0.3));
        let second = TripRequest::new(2, 36, 59, 0.0, Constraints::new(8_400.0, 0.3));

        let (graph, mut untouched, mut untouched_index) = setup(planner, &positions);
        let oracle = CachedOracle::new(&graph);
        let alone = Dispatcher::new(DispatcherConfig::default()).assign(
            &second,
            &mut untouched,
            &graph,
            &mut untouched_index,
            &oracle,
        );
        let AssignmentOutcome::Assigned {
            vehicle: 1,
            cost: alone_cost,
            ..
        } = alone
        else {
            panic!("alone, the second request goes to the adjacent vehicle: {alone:?}");
        };

        let (_, mut vehicles, mut index) = setup(planner, &positions);
        let mut dispatcher = Dispatcher::new(DispatcherConfig::default());
        let a = dispatcher.assign(&first, &mut vehicles, &graph, &mut index, &oracle);
        assert!(matches!(a, AssignmentOutcome::Assigned { vehicle: 1, .. }));
        assert_eq!(vehicles[1].active_trip_count(), 1, "committed before b");
        let b = dispatcher.assign(&second, &mut vehicles, &graph, &mut index, &oracle);
        match b {
            AssignmentOutcome::Assigned {
                vehicle: 1, cost, ..
            } => {
                assert!(
                    cost > alone_cost,
                    "sharing vehicle 1 must price in the first rider ({cost} vs {alone_cost})"
                );
                assert_eq!(vehicles[1].active_trip_count(), 2);
            }
            AssignmentOutcome::Assigned { vehicle, .. } => {
                assert_eq!(vehicles[vehicle as usize].active_trip_count(), 1);
                assert_eq!(vehicles[1].active_trip_count(), 1);
            }
            other => panic!("an idle fleet must place the second request: {other:?}"),
        }
        assert_eq!(dispatcher.stats().assigned, 2);
    }

    #[test]
    fn empty_fleet_rejects_with_zero_candidates() {
        let (graph, mut vehicles, mut index) =
            setup(PlannerKind::Kinetic(KineticConfig::basic()), &[]);
        let oracle = CachedOracle::new(&graph);
        let req = TripRequest::new(1, 36, 60, 0.0, Constraints::new(8_400.0, 0.3));
        for effort in DispatchEffort::ALL {
            let mut dispatcher = Dispatcher::new(DispatcherConfig::default());
            dispatcher.set_effort(effort);
            let out = dispatcher.assign(&req, &mut vehicles, &graph, &mut index, &oracle);
            assert_eq!(out, AssignmentOutcome::Rejected { candidates: 0 });
            assert_eq!(dispatcher.stats().rejected, 1);
        }
    }

    /// The parts of a dispatcher's statistics that are functions of fleet
    /// state: everything but the wall-clock nanoseconds.
    fn counts(stats: &DispatchStats) -> (u64, u64, u64, u64, Vec<(usize, u64)>) {
        let art = stats
            .art_buckets
            .iter()
            .map(|(&k, &(n, _))| (k, n))
            .collect();
        (
            stats.requests,
            stats.assigned,
            stats.rejected,
            stats.candidates,
            art,
        )
    }

    fn configs() -> [DispatcherConfig; 2] {
        let no_prune = DispatcherConfig {
            use_pruning: false,
            ..DispatcherConfig::default()
        };
        [DispatcherConfig::default(), no_prune]
    }

    /// The grid's side of the dispatcher's counters: everything the
    /// enumeration order cannot change.
    fn grid_counts(index: &GridIndex) -> (u64, u64, u64, u64, u64) {
        let s = index.stats();
        (
            s.queries,
            s.candidates_returned,
            s.candidates_in_radius,
            s.pruned_by_reach,
            s.evaluated,
        )
    }

    /// The enumeration nearest-cell-first replaced, kept as the reference:
    /// query the whole radius, screen every candidate, put the survivors
    /// on a min-heap by `(key, id)`, and pop them in that order until the
    /// next key loses to the incumbent (or, greedy, until one is
    /// feasible). Below greedy, a vehicle popped for the first time is
    /// screened again by road reach and pruned or pushed back with its
    /// raised key, as the dispatcher does.
    fn global_sort(
        dispatcher: &mut Dispatcher,
        request: &TripRequest,
        vehicles: &mut [Vehicle],
        graph: &RoadNetwork,
        index: &mut GridIndex,
        oracle: &dyn DistanceOracle,
    ) -> AssignmentOutcome {
        if dispatcher.effort == DispatchEffort::Full && !dispatcher.config.use_pruning {
            return dispatcher.assign(request, vehicles, graph, index, oracle);
        }
        let greedy = dispatcher.effort == DispatchEffort::Greedy;
        let candidates = dispatcher.candidates(request, graph, index);
        let pickup = graph.point(request.source);
        let direct = oracle.dist(request.source, request.destination);
        let trip = WaitingTrip::for_request(request, direct);
        let deadline = request.pickup_deadline();
        let mut ranked = BinaryHeap::new();
        let mut by_slack = 0;
        for &vid in &candidates {
            let Some(v) = vehicle(vehicles, vid) else {
                continue;
            };
            match screen_candidate(v, graph, pickup, deadline, direct, None) {
                Screen::Pruned => by_slack += 1,
                // Greedy keys are never refined.
                Screen::Keep { lb, reach } => ranked.push(Reverse(Ranked {
                    key: if greedy { reach } else { lb },
                    vid,
                    refined: greedy,
                })),
            }
        }
        let mut best: Option<(u32, Proposal)> = None;
        let (mut evaluated, mut by_reach, mut by_bound) = (0, 0, 0);
        while let Some(Reverse(Ranked { key, vid, refined })) = ranked.pop() {
            if let Some((best_vid, b)) = &best {
                if greedy || key > b.cost || (key == b.cost && vid > *best_vid) {
                    by_bound = ranked.len() + 1;
                    break;
                }
            }
            if !refined {
                let exact = Some((oracle, request.source));
                let v = &vehicles[vid as usize];
                match screen_candidate(v, graph, pickup, deadline, direct, exact) {
                    Screen::Pruned => by_reach += 1,
                    Screen::Keep { lb, .. } => ranked.push(Reverse(Ranked {
                        key: key.max(lb - PRUNE_EPS),
                        vid,
                        refined: true,
                    })),
                }
                continue;
            }
            evaluated += 1;
            if let Some(p) = dispatcher.evaluate(&vehicles[vid as usize], trip, oracle) {
                let better = best.as_ref().is_none_or(|(best_vid, b)| {
                    p.cost < b.cost || (p.cost == b.cost && vid < *best_vid)
                });
                if better {
                    best = Some((vid, p));
                }
            }
        }
        index.record_pruning(
            candidates.len() as u64,
            by_slack,
            by_reach,
            by_bound as u64,
            evaluated,
        );
        let winner = best.and_then(|(vid, p)| {
            let cost = p.cost;
            vehicles[vid as usize]
                .commit(p, oracle)
                .ok()
                .map(|()| (vid, cost))
        });
        let stats = &mut dispatcher.stats;
        stats.requests += 1;
        stats.candidates += candidates.len() as u64;
        let candidates = candidates.len();
        match winner {
            Some((vehicle, cost)) => {
                stats.assigned += 1;
                AssignmentOutcome::Assigned {
                    vehicle,
                    cost,
                    candidates,
                }
            }
            None => {
                stats.rejected += 1;
                AssignmentOutcome::Rejected { candidates }
            }
        }
    }

    fn planner(index: usize) -> PlannerKind {
        match index {
            0 => PlannerKind::Kinetic(KineticConfig::basic()),
            1 => PlannerKind::Kinetic(KineticConfig::slack()),
            2 => PlannerKind::Kinetic(KineticConfig::hotspot(4_000.0)),
            _ => PlannerKind::Solver(crate::algorithms::SolverKind::BranchBound),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Nearest-cell-first against the global sort it replaced, at every
        /// rung: the same outcomes, candidate counts, `DispatchStats` counts
        /// and ART bucket counts, the same grid counts (road-reach prunes
        /// included) bar the slack-screen and early-exit tallies (which
        /// only shrink), and the same fleet. Each vehicle is indexed where
        /// it stands or at a neighbouring vertex, as an engine indexes a
        /// vehicle that is one segment into a drive, and the dispatcher is
        /// told the network's longest segment.
        #[test]
        fn nearest_cell_first_matches_the_global_sort_at_every_rung(
            planner_index in 0usize..4,
            fleet in proptest::collection::vec((0u32..64, 0usize..4), 1..24),
            pairs in proptest::collection::vec((0u32..64, 0u32..64), 1..10),
            cell in 250.0f64..3_000.0,
            wait_m in 1_000.0f64..10_000.0,
            detour in 0.2f64..0.6,
        ) {
            let graph = GeneratorConfig {
                kind: NetworkKind::Grid { rows: 8, cols: 8 },
                seed: 5,
                ..GeneratorConfig::default()
            }
            .generate();
            let oracle = CachedOracle::new(&graph);
            let lag = graph.longest_segment();
            let requests: Vec<TripRequest> = pairs
                .iter()
                .enumerate()
                .map(|(i, &(s, d))| {
                    let d = if d == s { (d + 1) % 64 } else { d };
                    TripRequest::new(i as u64 + 1, s, d, 0.0, Constraints::new(wait_m, detour))
                })
                .collect();
            let build = || {
                let mut vehicles = Vec::new();
                let mut index = GridIndex::new(cell);
                for (i, &(node, shift)) in fleet.iter().enumerate() {
                    vehicles.push(Vehicle::new(i as u32, node, 4, planner(planner_index), 0.0));
                    let neighbours: Vec<u32> = graph.neighbors(node).map(|(v, _)| v).collect();
                    let at = match shift {
                        0 => node,
                        k => neighbours[k % neighbours.len()],
                    };
                    let p = graph.point(at);
                    index.insert(i as u32, Position::new(p.x, p.y));
                }
                (vehicles, index)
            };
            for config in configs() {
                for effort in DispatchEffort::ALL {
                    let (mut fleet_a, mut index_a) = build();
                    let (mut fleet_b, mut index_b) = build();
                    let mut lazy = Dispatcher::new(config);
                    let mut reference = Dispatcher::new(config);
                    lazy.set_effort(effort);
                    reference.set_effort(effort);
                    for r in &requests {
                        let sync = LazySync { lag, sync: &mut |_| {} };
                        let direct = oracle.dist(r.source, r.destination);
                        let a = lazy.assign_synced(r, direct, &mut fleet_a, &graph, &mut index_a, &oracle, sync);
                        let b = global_sort(&mut reference, r, &mut fleet_b, &graph, &mut index_b, &oracle);
                        proptest::prop_assert_eq!(a, b, "{:?} {:?} request {}", config, effort, r.id);
                    }
                    proptest::prop_assert_eq!(counts(lazy.stats()), counts(reference.stats()));
                    proptest::prop_assert_eq!(grid_counts(&index_a), grid_counts(&index_b));
                    let (a, b) = (index_a.stats(), index_b.stats());
                    proptest::prop_assert!(
                        a.pruned_by_slack + a.pruned_by_reach + a.pruned_by_bound
                            <= b.pruned_by_slack + b.pruned_by_reach + b.pruned_by_bound
                    );
                    for (a, b) in fleet_a.iter().zip(&fleet_b) {
                        proptest::prop_assert_eq!(a.route(), b.route());
                    }
                }
            }
        }
    }

    /// A fleet for the lag tests: vehicle 0 stands at the pickup but is
    /// indexed 5 km away; vehicle 1 stands and is indexed two blocks off.
    /// Returns the fleet, the index, the pickup request and how far
    /// vehicle 0's indexed position is from where it stands.
    fn lagging_fleet() -> (RoadNetwork, Vec<Vehicle>, GridIndex, TripRequest, f64) {
        let planner = PlannerKind::Kinetic(KineticConfig::slack());
        let (graph, vehicles, mut index) = setup(planner, &[36, 34]);
        let pickup = graph.point(36);
        let indexed = Position::new(pickup.x + 4_000.0, pickup.y + 3_000.0);
        index.update(0, indexed);
        let d = indexed.distance(&Position::new(pickup.x, pickup.y));
        let req = TripRequest::new(1, 36, 60, 0.0, Constraints::new(8_400.0, 0.3));
        (graph, vehicles, index, req, d)
    }

    #[test]
    fn a_lagging_index_still_yields_the_nearest_vehicle_first() {
        for effort in [DispatchEffort::Full, DispatchEffort::Greedy] {
            let (graph, mut vehicles, mut index, req, d) = lagging_fleet();
            let oracle = CachedOracle::new(&graph);
            let mut dispatcher = Dispatcher::new(DispatcherConfig::default());
            dispatcher.set_effort(effort);
            let mut synced = Vec::new();
            let lazy = LazySync {
                lag: d,
                sync: &mut |v: &mut Vehicle| synced.push(v.id()),
            };
            let direct = oracle.dist(req.source, req.destination);
            let out = dispatcher.assign_synced(
                &req,
                direct,
                &mut vehicles,
                &graph,
                &mut index,
                &oracle,
                lazy,
            );
            assert!(
                matches!(
                    out,
                    AssignmentOutcome::Assigned {
                        vehicle: 0,
                        candidates: 2,
                        ..
                    }
                ),
                "{effort:?}: vehicle 0 stands at the pickup: {out:?}"
            );
            synced.sort_unstable();
            assert_eq!(
                synced,
                vec![0, 1],
                "{effort:?}: both read, each synced once"
            );
            assert_eq!(dispatcher.stats().evaluated(), 1, "{effort:?}");
        }
    }

    #[test]
    fn a_vehicle_whose_key_equals_its_cells_floor_still_comes_first_on_id() {
        // Both vehicles stand at node 35, so their greedy keys tie; vehicle
        // 1 is indexed where it stands, vehicle 0 in a cell whose floor the
        // lag sets to exactly that key. Only reading that cell before
        // popping vehicle 1 lets the lower id come first.
        let planner = PlannerKind::Kinetic(KineticConfig::slack());
        let (graph, mut vehicles, mut index) = setup(planner, &[35, 35]);
        let far = graph.point(7);
        index.update(0, Position::new(far.x, far.y));
        let pickup = graph.point(36);
        let key = graph.point(35).distance(&pickup);
        let mut cells = Vec::new();
        index
            .clone()
            .cells_by_distance(Position::new(pickup.x, pickup.y), 8_400.0, &mut cells);
        let near = cells[1].0;
        let floor = |lag: f64| near - lag - PRUNE_EPS + 0.0;
        let mut lag = near - PRUNE_EPS - key;
        for _ in 0..64 {
            if floor(lag) == key {
                break;
            }
            let step = if floor(lag) > key { 1 } else { -1 };
            lag = f64::from_bits((lag.to_bits() as i64 + step) as u64);
        }
        assert_eq!(floor(lag), key, "the lag puts the cell's floor on the key");
        let oracle = CachedOracle::new(&graph);
        let mut dispatcher = Dispatcher::new(DispatcherConfig::default());
        dispatcher.set_effort(DispatchEffort::Greedy);
        let req = TripRequest::new(1, 36, 60, 0.0, Constraints::new(8_400.0, 0.3));
        let lazy = LazySync {
            lag,
            sync: &mut |_| {},
        };
        let direct = oracle.dist(req.source, req.destination);
        let out = dispatcher.assign_synced(
            &req,
            direct,
            &mut vehicles,
            &graph,
            &mut index,
            &oracle,
            lazy,
        );
        assert!(
            matches!(out, AssignmentOutcome::Assigned { vehicle: 0, .. }),
            "a key tie goes to the lower id: {out:?}"
        );
    }

    #[test]
    fn an_id_whose_slot_does_not_carry_it_is_skipped() {
        // Slot 1 sits next to the pickup but carries id 5; ids 9 and
        // u32::MAX are indexed beside it with no slot at all. Only id 2
        // names its own slot.
        let planner = PlannerKind::Kinetic(KineticConfig::slack());
        let (graph, mut vehicles, mut index) = setup(planner, &[0, 35, 63]);
        vehicles[1] = Vehicle::new(5, 35, 4, planner, 0.0);
        index.remove(0);
        let p = graph.point(35);
        for id in [9, u32::MAX] {
            index.insert(id, Position::new(p.x, p.y));
        }
        let oracle = CachedOracle::new(&graph);
        let req = TripRequest::new(1, 36, 60, 0.0, Constraints::new(8_400.0, 0.3));
        for config in configs() {
            for effort in DispatchEffort::ALL {
                let mut fleet = vehicles.clone();
                let mut index = index.clone();
                let mut dispatcher = Dispatcher::new(config);
                dispatcher.set_effort(effort);
                let out = dispatcher.assign(&req, &mut fleet, &graph, &mut index, &oracle);
                assert!(
                    matches!(
                        out,
                        AssignmentOutcome::Assigned {
                            vehicle: 2,
                            candidates: 4,
                            ..
                        }
                    ),
                    "{config:?} {effort:?}: {out:?}"
                );
                assert_eq!(fleet[1].active_trip_count(), 0, "slot 1 is not vehicle 1");
                assert_eq!(fleet[2].active_trip_count(), 1);
                index.remove(2);
                let none = dispatcher.assign(&req, &mut fleet, &graph, &mut index, &oracle);
                assert_eq!(none, AssignmentOutcome::Rejected { candidates: 3 });
                assert_eq!(dispatcher.stats().evaluated(), 1, "{config:?} {effort:?}");
                assert_eq!(dispatcher.stats().candidates, 7);
                let grid = index.stats();
                assert_eq!((grid.candidates_in_radius, grid.evaluated), (7, 1));
            }
        }
    }
}
