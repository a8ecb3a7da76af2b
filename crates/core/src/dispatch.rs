//! Fleet-level dispatching: candidate filtering and minimum-cost assignment.
//!
//! When a request arrives, only servers whose current position lies within
//! the waiting-time radius `w` of the pickup can possibly serve it (any
//! farther server would already violate the waiting-time constraint on the
//! empty road). The dispatcher therefore asks the grid-based spatial index
//! once for the vehicles inside that radius ([`Dispatcher::candidates`]),
//! evaluates the request against each candidate, and assigns it to the
//! vehicle offering the smallest augmented trip cost
//! ([`Dispatcher::assign_among`]) — exactly the paper's simulation loop.
//!
//! The dispatcher also measures the two quantities the paper reports:
//! *average customer response time* (ACRT — wall-clock time to find the best
//! vehicle for one request) and *average response time* (ART — wall-clock
//! time of a single vehicle evaluation, bucketed by how many active requests
//! that vehicle already has).

use std::collections::BTreeMap;
use std::time::Instant;

use roadnet::{DistanceOracle, Point, RoadNetwork};
use spatial::{GridIndex, Position};

use crate::request::TripRequest;
use crate::types::Cost;
use crate::vehicle::{Proposal, Vehicle};

/// Dispatcher configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatcherConfig {
    /// Use the grid index to pre-filter candidates (`true` in the paper);
    /// `false` evaluates every vehicle, which is only sensible for tiny
    /// fleets or ablation studies.
    pub use_spatial_filter: bool,
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
    /// root slacks; survivors are evaluated cheapest-lower-bound-first with
    /// an early exit once the bound meets the incumbent. Assignments are
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
            use_spatial_filter: true,
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
        /// Number of candidate vehicles evaluated.
        candidates: usize,
    },
    /// No candidate vehicle could serve the request within its constraints.
    Rejected {
        /// Number of candidate vehicles evaluated.
        candidates: usize,
    },
}

impl AssignmentOutcome {
    /// True when the request was assigned.
    pub fn is_assigned(&self) -> bool {
        matches!(self, AssignmentOutcome::Assigned { .. })
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
    /// Total candidates evaluated over all requests.
    pub candidates: u64,
    /// Total wall-clock nanoseconds spent answering requests (ACRT total):
    /// the candidate query ([`Dispatcher::candidates`]) plus screening,
    /// evaluation and selection ([`Dispatcher::assign_among`]).
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

/// Safety margin (meters) the candidate screen adds on top of the schedule
/// walker's `1e-6` feasibility tolerance. A candidate is only pruned when
/// its straight-line lower bound exceeds the relevant budget by more than
/// this, so screening can never reject a vehicle whose evaluation would
/// have succeeded.
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
    },
}

/// Screens one candidate vehicle against `request` using only straight-line
/// geometry and the kinetic tree's cached per-branch bottleneck slacks —
/// no schedule is constructed.
///
/// Soundness (assignments stay bit-identical to exhaustive evaluation):
/// road distances dominate straight-line distances on every generated
/// network, so
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
) -> Screen {
    let vp = graph.point(vehicle.location());
    let to_pickup = vp.distance(&pickup);
    if vehicle.clock() + to_pickup > deadline + PRUNE_EPS {
        return Screen::Pruned;
    }
    let mut base = 0.0;
    if let Some(tree) = vehicle.tree() {
        let mut has_branch = false;
        let mut alive = false;
        for (node, leg, slack) in tree.root_branches() {
            has_branch = true;
            let branch = graph.point(node);
            let pickup_to_branch = pickup.distance(&branch);
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
    }
}

/// Vehicle `vid` of `vehicles`. A vehicle's id is its slot, so this is
/// slot `vid` — unless there is no such slot, or the slot carries another
/// id, and then there is no vehicle `vid` to evaluate.
fn vehicle(vehicles: &[Vehicle], vid: u32) -> Option<&Vehicle> {
    vehicles.get(vid as usize).filter(|v| v.id() == vid)
}

/// Screens `request`'s candidates (see [`screen_candidate`]) and returns
/// the survivors as `(key, vehicle id)` in ascending order, with the number
/// the screen pruned. `key` maps a survivor and its admissible lower bound
/// to its sort key — a bound or a Euclidean length, so >= +0.0 and never
/// NaN, where `total_cmp` is the numeric order.
fn rank_survivors(
    request: &TripRequest,
    candidates: &[u32],
    vehicles: &[Vehicle],
    graph: &RoadNetwork,
    oracle: &dyn DistanceOracle,
    key: impl Fn(&Vehicle, Cost) -> Cost,
) -> (Vec<(Cost, u32)>, u64) {
    let pickup = graph.point(request.source);
    let deadline = request.pickup_deadline();
    let direct = oracle.dist(request.source, request.destination);
    let mut ranked = Vec::with_capacity(candidates.len());
    let mut by_slack = 0u64;
    for &vid in candidates {
        let Some(v) = vehicle(vehicles, vid) else {
            continue;
        };
        match screen_candidate(v, graph, pickup, deadline, direct) {
            Screen::Pruned => by_slack += 1,
            Screen::Keep { lb } => ranked.push((key(v, lb), vid)),
        }
    }
    ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    (ranked, by_slack)
}

/// Fleet-level matcher.
#[derive(Debug, Clone, Default)]
pub struct Dispatcher {
    config: DispatcherConfig,
    stats: DispatchStats,
    /// Current effort level (the serve path's degradation ladder).
    effort: DispatchEffort,
}

impl Dispatcher {
    /// Creates a dispatcher with the given configuration.
    pub fn new(config: DispatcherConfig) -> Self {
        Dispatcher {
            config,
            stats: DispatchStats::default(),
            effort: DispatchEffort::Full,
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

    /// Candidate vehicle ids for a request, ascending: every vehicle of a
    /// `fleet_size`-vehicle fleet when spatial filtering is off, otherwise
    /// those whose indexed position is within the waiting-time radius of
    /// the pickup vertex ([`GridIndex::query_radius`] sorts). Ascending ids
    /// are what make keep-the-incumbent iteration implement the lowest-id
    /// tie-break.
    ///
    /// This is a request's one grid query; hand its result to
    /// [`Dispatcher::assign_among`]. Looking the candidates up is part of
    /// answering the request, so the time it takes is added to
    /// [`DispatchStats::response_nanos`].
    pub fn candidates(
        &mut self,
        request: &TripRequest,
        graph: &RoadNetwork,
        index: &mut GridIndex,
        fleet_size: usize,
    ) -> Vec<u32> {
        let timer = Instant::now();
        let ids = if self.config.use_spatial_filter {
            let p = graph.point(request.source);
            let radius = request.constraints.max_wait * self.config.radius_factor;
            index.query_radius(Position::new(p.x, p.y), radius)
        } else {
            (0..fleet_size as u32).collect()
        };
        self.stats.response_nanos += timer.elapsed().as_nanos();
        ids
    }

    /// Processes one request start to finish: [`Dispatcher::candidates`],
    /// then [`Dispatcher::assign_among`] over them.
    pub fn assign(
        &mut self,
        request: &TripRequest,
        vehicles: &mut [Vehicle],
        graph: &RoadNetwork,
        index: &mut GridIndex,
        oracle: &dyn DistanceOracle,
    ) -> AssignmentOutcome {
        let candidates = self.candidates(request, graph, index, vehicles.len());
        self.assign_among(request, &candidates, vehicles, graph, index, oracle)
    }

    /// Evaluates `request` against the vehicles named by `candidates` (the
    /// ascending ids [`Dispatcher::candidates`] returns), assigns it to the
    /// cheapest feasible one (committing it) and records statistics. An
    /// evaluation prices a candidate ([`Vehicle::evaluate`]); only the
    /// winner's commit builds an augmented kinetic tree. A
    /// vehicle's id is its slot in `vehicles`; an id with no slot, or whose
    /// slot carries another id, is skipped, though it still counts as a
    /// candidate.
    ///
    /// With [`DispatcherConfig::use_pruning`] (the default) candidates are
    /// screened with `screen_candidate` and evaluated best-first by
    /// admissible lower bound with an early exit; otherwise every candidate
    /// is evaluated in ascending-id order. The chosen assignment is
    /// identical either way.
    ///
    /// Cost ties break to the lowest vehicle id, so the assignment is a
    /// pure function of fleet state. A batch of concurrent requests is
    /// dispatched by calling this once per request in submission order:
    /// each call commits its winner before the next request is screened, so
    /// request `i` sees every commit made for requests `0..i`.
    pub fn assign_among(
        &mut self,
        request: &TripRequest,
        candidates: &[u32],
        vehicles: &mut [Vehicle],
        graph: &RoadNetwork,
        index: &mut GridIndex,
        oracle: &dyn DistanceOracle,
    ) -> AssignmentOutcome {
        let timer = Instant::now();
        let best = match self.effort {
            DispatchEffort::Full if !self.config.use_pruning => {
                self.evaluate_exhaustive(request, candidates, vehicles, index, oracle)
            }
            DispatchEffort::Full | DispatchEffort::SlackPruned => {
                self.evaluate_pruned(request, candidates, vehicles, graph, index, oracle)
            }
            DispatchEffort::Greedy => {
                self.evaluate_greedy(request, candidates, vehicles, graph, index, oracle)
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
        self.stats.candidates += candidates.len() as u64;
        self.stats.response_nanos += timer.elapsed().as_nanos();
        match winner {
            Some((vehicle, cost)) => {
                self.stats.assigned += 1;
                AssignmentOutcome::Assigned {
                    vehicle,
                    cost,
                    candidates: candidates.len(),
                }
            }
            None => {
                self.stats.rejected += 1;
                AssignmentOutcome::Rejected {
                    candidates: candidates.len(),
                }
            }
        }
    }

    /// Evaluates `request` on `vehicle`, booking the wall-clock time in the
    /// ART bucket of the vehicle's active-request count.
    fn evaluate(
        &mut self,
        vehicle: &Vehicle,
        request: &TripRequest,
        oracle: &dyn DistanceOracle,
    ) -> Option<Proposal> {
        let active = vehicle.active_trip_count();
        let timer = Instant::now();
        let proposal = vehicle.evaluate(request, oracle);
        let nanos = timer.elapsed().as_nanos();
        let bucket = self.stats.art_buckets.entry(active).or_insert((0, 0));
        bucket.0 += 1;
        bucket.1 += nanos;
        proposal
    }

    /// Exhaustive evaluation in ascending-id order (pruning disabled).
    fn evaluate_exhaustive(
        &mut self,
        request: &TripRequest,
        candidates: &[u32],
        vehicles: &[Vehicle],
        index: &mut GridIndex,
        oracle: &dyn DistanceOracle,
    ) -> Option<(u32, Proposal)> {
        let mut best: Option<(u32, Proposal)> = None;
        let mut evaluated = 0u64;
        for &vid in candidates {
            let Some(v) = vehicle(vehicles, vid) else {
                continue;
            };
            evaluated += 1;
            if let Some(p) = self.evaluate(v, request, oracle) {
                // Strictly-better cost wins; on an exact tie the lowest
                // vehicle id wins (candidate ids arrive in ascending order,
                // so keeping the incumbent implements that).
                if best.as_ref().is_none_or(|(_, b)| p.cost < b.cost) {
                    best = Some((vid, p));
                }
            }
        }
        index.record_pruning(candidates.len() as u64, 0, 0, evaluated);
        best
    }

    /// Slack-screened, best-first evaluation with early exit. Returns the
    /// same winner as [`Dispatcher::evaluate_exhaustive`] — see
    /// [`screen_candidate`] for the soundness argument; the early exit only
    /// skips candidates whose lower bound already loses to the incumbent
    /// under the `(cost, vehicle id)` lexicographic order.
    fn evaluate_pruned(
        &mut self,
        request: &TripRequest,
        candidates: &[u32],
        vehicles: &[Vehicle],
        graph: &RoadNetwork,
        index: &mut GridIndex,
        oracle: &dyn DistanceOracle,
    ) -> Option<(u32, Proposal)> {
        let (ranked, by_slack) =
            rank_survivors(request, candidates, vehicles, graph, oracle, |_, lb| lb);
        let mut best: Option<(u32, Proposal)> = None;
        let mut evaluated = 0u64;
        let mut by_bound = 0u64;
        for (i, &(lb, vid)) in ranked.iter().enumerate() {
            if let Some((best_vid, b)) = &best {
                // Remaining candidates are sorted by (lb, vid), so once the
                // bound meets the incumbent nothing later can win the
                // (cost, id) lexicographic comparison either.
                if lb > b.cost || (lb == b.cost && vid > *best_vid) {
                    by_bound = (ranked.len() - i) as u64;
                    break;
                }
            }
            evaluated += 1;
            if let Some(p) = self.evaluate(&vehicles[vid as usize], request, oracle) {
                let better = match &best {
                    None => true,
                    Some((best_vid, b)) => p.cost < b.cost || (p.cost == b.cost && vid < *best_vid),
                };
                if better {
                    best = Some((vid, p));
                }
            }
        }
        index.record_pruning(candidates.len() as u64, by_slack, by_bound, evaluated);
        best
    }

    /// Nearest-feasible evaluation ([`DispatchEffort::Greedy`]): screen the
    /// candidates, visit survivors in ascending straight-line distance to
    /// the pickup (ties to the lowest vehicle id) and return the **first**
    /// feasible insertion. The schedule walker still enforces every
    /// guarantee, so a greedy assignment is feasible — just not necessarily
    /// cheapest. Deterministic: the visit order and the stop-at-first rule
    /// are pure functions of fleet state.
    fn evaluate_greedy(
        &mut self,
        request: &TripRequest,
        candidates: &[u32],
        vehicles: &[Vehicle],
        graph: &RoadNetwork,
        index: &mut GridIndex,
        oracle: &dyn DistanceOracle,
    ) -> Option<(u32, Proposal)> {
        let pickup = graph.point(request.source);
        let (ranked, by_slack) =
            rank_survivors(request, candidates, vehicles, graph, oracle, |v, _| {
                graph.point(v.location()).distance(&pickup)
            });
        let mut evaluated = 0u64;
        let mut skipped = 0u64;
        let mut found: Option<(u32, Proposal)> = None;
        for (i, &(_, vid)) in ranked.iter().enumerate() {
            evaluated += 1;
            if let Some(p) = self.evaluate(&vehicles[vid as usize], request, oracle) {
                skipped = (ranked.len() - i - 1) as u64;
                found = Some((vid, p));
                break;
            }
        }
        index.record_pruning(candidates.len() as u64, by_slack, skipped, evaluated);
        found
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
        let oracle = CachedOracle::without_labels(&graph);
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
        let oracle = CachedOracle::without_labels(&graph);
        let mut dispatcher = Dispatcher::new(DispatcherConfig::default());
        let req = TripRequest::new(1, 0, 9, 0.0, Constraints::new(300.0, 0.2));
        let out = dispatcher.assign(&req, &mut vehicles, &graph, &mut index, &oracle);
        assert!(matches!(out, AssignmentOutcome::Rejected { .. }));
        assert_eq!(dispatcher.stats().rejected, 1);
        // The spatial filter should have excluded the far vehicle entirely.
        assert_eq!(dispatcher.stats().candidates, 0);
    }

    #[test]
    fn disabling_the_spatial_filter_evaluates_every_vehicle() {
        let (graph, mut vehicles, mut index) = setup(
            PlannerKind::Kinetic(KineticConfig::slack()),
            &[0, 7, 56, 63],
        );
        let oracle = CachedOracle::without_labels(&graph);
        let mut dispatcher = Dispatcher::new(DispatcherConfig {
            use_spatial_filter: false,
            ..DispatcherConfig::default()
        });
        let req = TripRequest::new(1, 27, 36, 0.0, Constraints::new(8_400.0, 0.3));
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
        let oracle = CachedOracle::without_labels(&graph);
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
        let oracle2 = CachedOracle::without_labels(&graph2);
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
        let oracle = CachedOracle::without_labels(&graph);
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
        let oracle = CachedOracle::without_labels(&graph);
        let req = TripRequest::new(1, 36, 60, 0.0, Constraints::new(8_400.0, 0.3));
        for effort in DispatchEffort::ALL {
            for use_spatial_filter in [true, false] {
                let mut dispatcher = Dispatcher::new(DispatcherConfig {
                    use_spatial_filter,
                    ..DispatcherConfig::default()
                });
                dispatcher.set_effort(effort);
                let out = dispatcher.assign(&req, &mut vehicles, &graph, &mut index, &oracle);
                assert_eq!(out, AssignmentOutcome::Rejected { candidates: 0 });
                assert_eq!(dispatcher.stats().rejected, 1);
            }
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

    #[test]
    fn assign_is_candidates_then_assign_among_at_every_rung() {
        let positions = [0u32, 9, 18, 27, 35, 36, 45, 54, 63];
        let planner = PlannerKind::Kinetic(KineticConfig::slack());
        let requests: Vec<TripRequest> = [(36, 60), (35, 2), (7, 56), (27, 30), (63, 0), (56, 7)]
            .iter()
            .enumerate()
            .map(|(i, &(s, d))| {
                // Every third request starts at a corner no vehicle can
                // reach within its tight waiting budget: a rejection.
                let wait = if i % 3 == 2 { 400.0 } else { 3_000.0 };
                TripRequest::new(i as u64 + 1, s, d, 0.0, Constraints::new(wait, 0.3))
            })
            .collect();
        for config in configs() {
            for effort in DispatchEffort::ALL {
                let (graph, mut fleet_a, mut index_a) = setup(planner, &positions);
                let (_, mut fleet_b, mut index_b) = setup(planner, &positions);
                let oracle = CachedOracle::without_labels(&graph);
                let mut whole = Dispatcher::new(config);
                let mut split = Dispatcher::new(config);
                whole.set_effort(effort);
                split.set_effort(effort);
                for r in &requests {
                    let a = whole.assign(r, &mut fleet_a, &graph, &mut index_a, &oracle);
                    let ids = split.candidates(r, &graph, &mut index_b, fleet_b.len());
                    let b =
                        split.assign_among(r, &ids, &mut fleet_b, &graph, &mut index_b, &oracle);
                    assert_eq!(a, b, "{config:?} {effort:?} request {}", r.id);
                }
                assert_eq!(whole.stats().rejected, 2, "{config:?} {effort:?}");
                assert_eq!(counts(whole.stats()), counts(split.stats()));
                assert_eq!(index_a.stats(), index_b.stats(), "{config:?} {effort:?}");
                assert_eq!(index_b.stats().queries, requests.len() as u64);
                for (a, b) in fleet_a.iter().zip(&fleet_b) {
                    assert_eq!(a.route(), b.route(), "{config:?} {effort:?}");
                }
            }
        }
    }

    #[test]
    fn an_id_whose_slot_does_not_carry_it_is_skipped() {
        // Slot 1 sits next to the pickup but carries id 5; ids 9 and
        // u32::MAX have no slot at all. Only id 2 names its own slot.
        let planner = PlannerKind::Kinetic(KineticConfig::slack());
        let (graph, mut vehicles, mut index) = setup(planner, &[0, 35, 63]);
        vehicles[1] = Vehicle::new(5, 35, 4, planner, 0.0);
        let oracle = CachedOracle::without_labels(&graph);
        let req = TripRequest::new(1, 36, 60, 0.0, Constraints::new(8_400.0, 0.3));
        for config in configs() {
            for effort in DispatchEffort::ALL {
                let mut fleet = vehicles.clone();
                let mut dispatcher = Dispatcher::new(config);
                dispatcher.set_effort(effort);
                index.reset_stats();
                let ids = [1, 2, 9, u32::MAX];
                let out =
                    dispatcher.assign_among(&req, &ids, &mut fleet, &graph, &mut index, &oracle);
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
                let none =
                    dispatcher.assign_among(&req, &[1, 9], &mut fleet, &graph, &mut index, &oracle);
                assert_eq!(none, AssignmentOutcome::Rejected { candidates: 2 });
                assert_eq!(dispatcher.stats().evaluated(), 1, "{config:?} {effort:?}");
                assert_eq!(dispatcher.stats().candidates, 6);
                let grid = index.stats();
                assert_eq!((grid.candidates_in_radius, grid.evaluated), (6, 1));
            }
        }
    }
}
