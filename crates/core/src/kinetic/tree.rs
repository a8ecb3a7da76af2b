//! Kinetic tree data structure and operations.

use roadnet::io::bin::{self, Reader};
use roadnet::{DistanceOracle, NodeId, RoadNetError};

use crate::codec;
use crate::problem::{
    ProbeScratch, Schedule, ScheduleWalker, SchedulingProblem, ValidationError, WaitingTrip,
};
use crate::types::{Cost, Stop, StopKind};

/// Behavioural switches of the kinetic tree (paper Sec. IV–V).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KineticConfig {
    /// Enable min–max slack-time filtering (Theorem 1): prune whole branches
    /// whose aggregated slack Δ cannot absorb the detour of an insertion.
    pub use_slack: bool,
    /// Enable hotspot clustering with the given θ (meters): a new stop
    /// within θ of an existing tree node (and of every stop already merged
    /// into that node's hotspot) is pinned immediately before it instead of
    /// being tried at every feasible position.
    pub hotspot_theta: Option<f64>,
    /// Maximum number of tree nodes. An insertion whose recursion visits
    /// more nodes than this fails with [`TreeInsertError::Overflow`]; this
    /// models the paper's 3 GB memory cap that makes the basic/slack
    /// variants break off at high capacities (Fig. 9(c)). The count is of
    /// nodes visited, not kept: the recursion stops below a node where the
    /// new trip is already late without visiting that subtree, and does not
    /// place a new stop below which every old child is already ruled out,
    /// so an insertion may fit although the same tree walked without those
    /// cuts would not.
    pub max_nodes: usize,
}

impl Default for KineticConfig {
    fn default() -> Self {
        KineticConfig {
            use_slack: false,
            hotspot_theta: None,
            max_nodes: 2_000_000,
        }
    }
}

impl KineticConfig {
    /// The basic tree algorithm.
    pub fn basic() -> Self {
        KineticConfig::default()
    }

    /// The slack-time tree algorithm.
    pub fn slack() -> Self {
        KineticConfig {
            use_slack: true,
            ..KineticConfig::default()
        }
    }

    /// The hotspot-clustering tree algorithm (which also uses slack time, as
    /// in the paper's evaluation).
    pub fn hotspot(theta: f64) -> Self {
        KineticConfig {
            use_slack: true,
            hotspot_theta: Some(theta),
            ..KineticConfig::default()
        }
    }

    /// Human-readable variant name used by experiment reports.
    pub fn variant_name(&self) -> &'static str {
        match (self.hotspot_theta.is_some(), self.use_slack) {
            (true, _) => "kinetic-hotspot",
            (false, true) => "kinetic-slack",
            (false, false) => "kinetic-basic",
        }
    }
}

/// Why an insertion attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeInsertError {
    /// No valid augmented schedule exists for this vehicle and request.
    Infeasible,
    /// The node budget ([`KineticConfig::max_nodes`]) was exceeded while
    /// materialising the augmented tree.
    Overflow,
}

impl std::fmt::Display for TreeInsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeInsertError::Infeasible => write!(f, "no valid augmented schedule exists"),
            TreeInsertError::Overflow => write!(f, "kinetic tree node budget exceeded"),
        }
    }
}

impl std::error::Error for TreeInsertError {}

/// Size and shape statistics of a kinetic tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Total number of tree nodes (excluding the implicit root).
    pub nodes: usize,
    /// Number of leaves = number of distinct valid schedules materialised.
    pub leaves: usize,
    /// Depth of the tree = number of remaining stops.
    pub depth: usize,
}

/// One node of the kinetic tree: a stop plus the distance from its parent.
#[derive(Debug, Clone)]
struct TreeNode {
    stop: Stop,
    /// Shortest-path distance from the parent node's location (or from the
    /// root location for depth-1 nodes).
    leg: Cost,
    /// Δ over root-referenced constraints: the bottleneck slack of the most
    /// lenient route through this subtree, restricted to constraints that a
    /// detour inserted above this node always affects (pickup deadlines and
    /// on-board drop-off deadlines). Used for sound subtree pruning.
    slack_root: Cost,
    /// Minimum remaining distance from this node to any leaf of its
    /// subtree: `0.0` for a leaf, else the least `leg + best_below` over
    /// the children, folded in child order. Fixed when the node is built:
    /// [`KineticTree::reroot`] changes only root legs, which no node's
    /// value includes, and [`KineticTree::advance_to`] adopts a subtree
    /// whole. Derived, so not serialised.
    best_below: Cost,
    /// Road vertices forming this node's hotspot group (itself plus any
    /// stops that were pinned onto it by hotspot clustering).
    group: Vec<NodeId>,
    children: Vec<TreeNode>,
}

impl TreeNode {
    /// The node for `stop`, reached by `leg` from where `walker` stands
    /// (its parent), with `children` below it.
    fn new(
        walker: &ScheduleWalker<'_>,
        stop: Stop,
        leg: Cost,
        group: Vec<NodeId>,
        children: Vec<TreeNode>,
    ) -> TreeNode {
        let own_slack = walker.stop_slack(stop, leg).unwrap_or(Cost::NEG_INFINITY);
        // Δ over root-referenced constraints (Theorem 1). A drop-off of a
        // trip that is *not* already on board is referenced to its pickup,
        // which lies inside the tree, so a detour above the subtree does not
        // necessarily affect it; such nodes contribute +∞ to the bottleneck.
        let root_referenced = match stop.kind {
            StopKind::Pickup => true,
            StopKind::Dropoff => walker.problem().onboard_trip(stop.trip).is_some(),
        };
        let own_root_slack = if root_referenced {
            own_slack
        } else {
            Cost::INFINITY
        };
        let child_best = children
            .iter()
            .map(|c| c.slack_root)
            .fold(Cost::NEG_INFINITY, f64::max);
        let slack_root = if children.is_empty() {
            own_root_slack
        } else {
            own_root_slack.min(child_best)
        };
        TreeNode {
            stop,
            leg,
            slack_root,
            best_below: cheapest_completion(&children),
            group,
            children,
        }
    }

    fn count(&self) -> usize {
        1 + self.children.iter().map(TreeNode::count).sum::<usize>()
    }

    fn leaves(&self) -> usize {
        if self.children.is_empty() {
            1
        } else {
            self.children.iter().map(TreeNode::leaves).sum()
        }
    }

    fn depth(&self) -> usize {
        1 + self.children.iter().map(TreeNode::depth).max().unwrap_or(0)
    }
}

/// The cheapest completion below a node with `children`: `0.0` when there
/// are none, else the least `leg + best_below` over them, in order.
fn cheapest_completion(children: &[TreeNode]) -> Cost {
    if children.is_empty() {
        return 0.0;
    }
    children
        .iter()
        .map(|c| c.leg + c.best_below)
        .fold(Cost::INFINITY, Cost::min)
}

/// The first of `nodes` with the strictly lowest finite `leg + completion`,
/// with that total: the step [`KineticTree::best_route`] descends by.
fn best_of(nodes: &[TreeNode]) -> Option<(&TreeNode, Cost)> {
    let mut best = None;
    let mut best_total = Cost::INFINITY;
    for node in nodes {
        let total = node.leg + node.best_below;
        if total < best_total {
            best_total = total;
            best = Some(node);
        }
    }
    best.map(|node| (node, best_total))
}

/// Whether appending `stop` failed on `stop`'s own limit — its pickup
/// deadline, or its ride or drop-off deadline — which only grows harder
/// to meet further along the route.
fn misses_own_limit(stop: Stop, step: &Result<(), ValidationError>) -> bool {
    matches!(
        step,
        Err(ValidationError::WaitingTimeViolated { trip, .. }
            | ValidationError::ServiceConstraintViolated { trip, .. }) if *trip == stop.trip
    )
}

/// Whether `node` is within θ of every vertex of a hotspot `group`.
fn joins_hotspot(group: &[NodeId], node: NodeId, theta: f64, oracle: &dyn DistanceOracle) -> bool {
    group.iter().all(|&g| oracle.dist(g, node) <= theta)
}

/// What one level of the augmentation recursion ([`KineticTree::extend`])
/// yields for the nodes it keeps: the nodes themselves when the tree is
/// built ([`KineticTree::try_insert`]), or only the cheapest completion
/// below them when a candidate is priced ([`KineticTree::probe_insert`]).
/// Both run the one recursion, so a probe visits exactly the nodes a
/// build would, in the same order, against the same budget.
trait Level: Default {
    /// Whether no node was kept.
    fn is_empty(&self) -> bool;

    /// Keeps the node for `stop`, reached by `leg` from where `walker`
    /// stands, with `below` under it; `group` yields its hotspot group.
    fn keep(
        &mut self,
        walker: &ScheduleWalker<'_>,
        stop: Stop,
        leg: Cost,
        group: impl FnOnce() -> Vec<NodeId>,
        below: Self,
    );
}

impl Level for Vec<TreeNode> {
    fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    fn keep(
        &mut self,
        walker: &ScheduleWalker<'_>,
        stop: Stop,
        leg: Cost,
        group: impl FnOnce() -> Vec<NodeId>,
        below: Self,
    ) {
        self.push(TreeNode::new(walker, stop, leg, group(), below));
    }
}

/// The probe's level: the cheapest `leg + completion` over the kept nodes,
/// `None` when none was kept. A kept node with nothing below it completes
/// the route (completion 0), and sums associate bottom-up exactly as
/// [`TreeNode::best_below`] adds them over a built tree, so the two agree
/// bit for bit.
#[derive(Default)]
struct Cheapest(Option<Cost>);

impl Level for Cheapest {
    fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    fn keep(
        &mut self,
        _walker: &ScheduleWalker<'_>,
        _stop: Stop,
        leg: Cost,
        _group: impl FnOnce() -> Vec<NodeId>,
        below: Self,
    ) {
        let total = leg + below.0.unwrap_or(0.0);
        if self.0.is_none_or(|best| total < best) {
            self.0 = Some(total);
        }
    }
}

/// The kinetic tree of one vehicle.
#[derive(Debug, Clone)]
pub struct KineticTree {
    config: KineticConfig,
    /// The scheduling problem this tree materialises: `start`/`now` track
    /// the root, `onboard`/`waiting` the active trips.
    problem: SchedulingProblem,
    children: Vec<TreeNode>,
    node_count: usize,
}

impl KineticTree {
    /// Creates an empty tree for a vehicle at `start` with `capacity` seats
    /// at absolute clock `now`.
    pub fn new(start: NodeId, now: Cost, capacity: usize, config: KineticConfig) -> Self {
        KineticTree {
            config,
            problem: SchedulingProblem::new(start, now, capacity),
            children: Vec::new(),
            node_count: 0,
        }
    }

    /// The scheduling problem (root location, clock, active trips) the tree
    /// currently materialises.
    pub fn problem(&self) -> &SchedulingProblem {
        &self.problem
    }

    /// The configuration the tree was built with.
    pub fn config(&self) -> &KineticConfig {
        &self.config
    }

    /// Number of active trips (on board + waiting).
    pub fn active_trips(&self) -> usize {
        self.problem.num_trips()
    }

    /// Tree size/shape statistics.
    pub fn stats(&self) -> TreeStats {
        TreeStats {
            nodes: self.node_count,
            leaves: self.children.iter().map(TreeNode::leaves).sum(),
            depth: self.children.iter().map(TreeNode::depth).max().unwrap_or(0),
        }
    }

    /// Re-roots the tree at the vehicle's current vertex and clock.
    ///
    /// Called when the vehicle has moved along the road network without
    /// reaching its next scheduled stop (for example because a new request
    /// is being evaluated mid-leg), and after a stop is served. Only the
    /// depth-1 legs change, each to `dist(node, stop)`; deeper legs, the
    /// cached completions below the root and the stored slack values stay
    /// valid (moving the vehicle can only shrink true slacks, so pruning on
    /// the stored values remains sound).
    ///
    /// Every root leg already is `dist(start, stop)`: an insert walks from
    /// `start`, [`KineticTree::advance_to`] moves `start` to the reached
    /// stop, and a re-root elsewhere recomputes them. So a re-root at the
    /// vertex the tree stands on only moves the clock and asks nothing.
    pub fn reroot(&mut self, node: NodeId, now: Cost, oracle: &dyn DistanceOracle) {
        self.problem.now = now;
        if node == self.problem.start {
            return;
        }
        self.problem.start = node;
        for child in &mut self.children {
            child.leg = oracle.dist(node, child.stop.node);
        }
    }

    /// Attempts to insert a new trip, returning the augmented tree and the
    /// cost of its best route. The current tree is left untouched (the
    /// dispatcher prices many vehicles with [`KineticTree::probe_insert`]
    /// and only the winner builds and adopts its augmented tree).
    pub fn try_insert(
        &self,
        trip: WaitingTrip,
        oracle: &dyn DistanceOracle,
    ) -> Result<(KineticTree, Cost), TreeInsertError> {
        let children: Vec<TreeNode> = self.insert(trip, oracle, &mut ProbeScratch::default())?;
        let node_count = children.iter().map(TreeNode::count).sum();
        let tree = KineticTree {
            config: self.config,
            problem: self.augmented(trip),
            children,
            node_count,
        };
        let cost = tree.best_cost();
        if !cost.is_finite() {
            return Err(TreeInsertError::Infeasible);
        }
        Ok((tree, cost))
    }

    /// The cost [`KineticTree::try_insert`] would return, bit for bit, and
    /// the same [`TreeInsertError`] for the same inputs — without building
    /// the tree. It runs the same recursion against the same node budget
    /// but keeps only each level's cheapest completion: no node, group,
    /// walker clone or stop sequence is allocated per visited node, and no
    /// copy of the problem per probe; the walk's buffers are `scratch`'s.
    pub fn probe_insert(
        &self,
        trip: WaitingTrip,
        oracle: &dyn DistanceOracle,
        scratch: &mut ProbeScratch,
    ) -> Result<Cost, TreeInsertError> {
        let Cheapest(cost) = self.insert(trip, oracle, scratch)?;
        cost.filter(|c| c.is_finite())
            .ok_or(TreeInsertError::Infeasible)
    }

    /// The tree's problem with `trip` waiting.
    fn augmented(&self, trip: WaitingTrip) -> SchedulingProblem {
        let mut problem = self.problem.clone();
        problem.waiting.push(trip);
        problem
    }

    /// Interleaves `trip`'s pickup and drop-off into every recorded
    /// schedule, walking the tree's problem with `trip` waiting too (the
    /// problem [`KineticTree::augmented`] makes, without the copy) on
    /// `scratch`'s buffers; `Infeasible` when no schedule survives.
    fn insert<L: Level>(
        &self,
        trip: WaitingTrip,
        oracle: &dyn DistanceOracle,
        scratch: &mut ProbeScratch,
    ) -> Result<L, TreeInsertError> {
        let to_insert = [
            Stop::pickup(trip.trip, trip.pickup),
            Stop::dropoff(trip.trip, trip.dropoff),
        ];
        let mut budget = self.config.max_nodes as i64;
        let mut ruled_out = std::mem::take(&mut scratch.ruled_out);
        ruled_out.clear();
        let mut walker = ScheduleWalker::with_trip(&self.problem, trip, scratch);
        let level = self.extend(
            &self.children,
            &mut walker,
            0.0,
            None,
            &to_insert,
            &mut ruled_out,
            &mut budget,
            oracle,
        );
        *scratch = walker.into_scratch();
        scratch.ruled_out = ruled_out;
        let level: L = level?;
        if level.is_empty() {
            return Err(TreeInsertError::Infeasible);
        }
        Ok(level)
    }

    /// The cheapest complete schedule materialised by the tree, as
    /// `(total distance, stop sequence)`. `None` only when the tree should
    /// contain stops but has none (which cannot happen through the public
    /// API); an empty problem yields `Some((0.0, []))`. Descends from the
    /// root to the first child with the strictly lowest `leg +
    /// completion` at every level, pushing stops in route order.
    pub fn best_route(&self) -> Option<(Cost, Schedule)> {
        if self.problem.num_stops() == 0 {
            return Some((0.0, Vec::new()));
        }
        let (mut node, cost) = best_of(&self.children)?;
        let mut route = Vec::with_capacity(self.problem.num_stops());
        route.push(node.stop);
        while let Some((next, _)) = best_of(&node.children) {
            route.push(next.stop);
            node = next;
        }
        Some((cost, route))
    }

    /// The root's branches as `(stop vertex, leg distance from the vehicle's
    /// position, bottleneck root slack)` — the O(branching factor) view the
    /// dispatcher's candidate screen reads. Each entry is a possible *first*
    /// stop of the vehicle's remaining schedule; `slack_root` is the largest
    /// detour that can be inserted ahead of that stop without provably
    /// violating a root-referenced deadline anywhere in its subtree
    /// (Theorem 1), maintained by every insert and kept conservative by
    /// [`KineticTree::reroot`].
    pub fn root_branches(&self) -> impl Iterator<Item = (NodeId, Cost, Cost)> + '_ {
        self.children
            .iter()
            .map(|c| (c.stop.node, c.leg, c.slack_root))
    }

    /// Cost of the cheapest complete schedule, without materialising the
    /// stop sequence (what [`KineticTree::best_route`] returns, minus the
    /// path allocation). An empty problem costs `0.0`; a tree that should
    /// contain stops but has none yields `INFINITY` (cannot happen through
    /// the public API).
    pub fn best_cost(&self) -> Cost {
        if self.problem.num_stops() == 0 {
            return 0.0;
        }
        self.children
            .iter()
            .map(|c| c.leg + c.best_below)
            .fold(Cost::INFINITY, Cost::min)
    }

    /// Advances the tree after the vehicle reached `stop` (which must be one
    /// of the root's children, normally the first stop of the best route).
    ///
    /// The subtree rooted at that child becomes the whole tree (Lemma 1: all
    /// schedules not sharing the executed prefix become inactive), the clock
    /// advances by the travelled leg, and the trip bookkeeping is updated —
    /// a pickup moves the trip from `waiting` to `onboard` with its drop-off
    /// deadline fixed at "pickup clock + maximum ride".
    ///
    /// Returns the leg distance travelled to reach the stop.
    pub fn advance_to(&mut self, stop: Stop) -> Result<Cost, TreeInsertError> {
        let idx = self
            .children
            .iter()
            .position(|c| c.stop == stop)
            .ok_or(TreeInsertError::Infeasible)?;
        let chosen = self.children.swap_remove(idx);
        let leg = chosen.leg;
        self.problem.serve(stop, self.problem.now + leg);
        self.children = chosen.children;
        self.node_count = self.children.iter().map(TreeNode::count).sum();
        Ok(leg)
    }

    /// Recursive augmentation: interleave `remaining` new stops into the
    /// alternatives recorded by `old_children`.
    ///
    /// * choosing an old child next keeps the recorded ordering and recurses
    ///   with the same `remaining`;
    /// * choosing `remaining[0]` next creates a new node whose children are
    ///   the same alternatives (this single node covers the paper's
    ///   "insert at every outgoing edge" because all old alternatives hang
    ///   below it).
    ///
    /// Old children are tried first, then `remaining[0]`, whose leg is
    /// asked before either for the late cut: when `remaining[0]` already
    /// misses its own deadline or ride limit here, the level keeps nothing.
    ///
    /// `detour` is the extra distance accumulated along the walked prefix
    /// relative to the same prefix of old stops in the old tree (i.e. how
    /// much later every old stop below will now be reached); the slack-time
    /// variant prunes on it. `walker` is advanced into each branch and
    /// rewound out of it, so it stands at the same prefix on return.
    ///
    /// While a new stop is left to place, the level pushes onto
    /// `ruled_out`, one entry per old child, whether the child is ruled out
    /// right below that stop (PAPER.md, "what a probe already knows"): it
    /// is when it is ruled out here — dropped on slack, or failing its
    /// walker step on anything but capacity — since its detour only grows
    /// below a new stop, or when the bound `|d(here, child) − d(here,
    /// stop)|` on its leg from the stop (the reverse triangle inequality)
    /// already breaks its slack there. `parent` is where the level that
    /// placed the stop the walker stands on pushed its entries: `Some`
    /// when the walker stands on a new stop, whose legs to the old
    /// children not ruled out are asked, `None` when it stands on the old
    /// children's own parent, whose cached legs hold. A level whose
    /// hotspot pin tries no old child rules none out. A new stop is not
    /// placed where every old child would be ruled out right below it, and
    /// a descent into an old child skips the late cut's ask when the same
    /// bound already makes the next new stop late there.
    ///
    /// Every decision reads only the old tree, never what `L` keeps, so the
    /// build (`Vec<TreeNode>`) and the probe (`Cheapest`) visit the same
    /// nodes.
    #[expect(
        clippy::too_many_arguments,
        reason = "each recursive step threads the old subtree, the walker, the detour, where the parent's entries are, the stops left, the entry stack, the budget and the oracle; a struct would only rename them"
    )]
    fn extend<L: Level>(
        &self,
        old_children: &[TreeNode],
        walker: &mut ScheduleWalker<'_>,
        detour: Cost,
        parent: Option<usize>,
        remaining: &[Stop],
        ruled_out: &mut Vec<bool>,
        budget: &mut i64,
        oracle: &dyn DistanceOracle,
    ) -> Result<L, TreeInsertError> {
        let mut out = L::default();
        // Theorem 1: whether no route through `child` can absorb the detour
        // of reaching it by `leg` from a prefix already `detour` behind the
        // old tree's.
        let past_slack = |child: &TreeNode, detour: Cost, leg: Cost| {
            self.config.use_slack && detour + leg - child.leg > child.slack_root
        };

        // The late cut. A stop already past its own limit here is past it
        // below every old child too: each leg is a shortest distance, so
        // for any node `y` below here the triangle inequality gives
        // `cum(y) + d(y, s) >= cum + d(here, s)`. Nothing below can be
        // kept, so none of it is visited. A full vehicle proves no such
        // thing, since seats free up further down. The step's check is
        // kept for Option B, which appends the stop at this same prefix.
        let next_new = match remaining.first() {
            Some(&stop) => {
                let leg = oracle.dist(walker.location, stop.node);
                let step = walker.check(stop, leg);
                if misses_own_limit(stop, &step) {
                    return Ok(out);
                }
                Some((stop, leg, step.is_ok()))
            }
            None => None,
        };

        // Hotspot clustering: if the next new stop is within θ of one of the
        // old alternatives (and of everything already merged into it), pin
        // it right here and do not try it anywhere deeper in this subtree.
        let hotspot = match (self.config.hotspot_theta, next_new) {
            (Some(theta), Some((next_new, _, _))) => old_children
                .iter()
                .find(|c| joins_hotspot(&c.group, next_new.node, theta, oracle)),
            _ => None,
        };

        // Whether `child`, reached by at least `bound` from the next new
        // stop placed here, is past its slack right below that stop.
        let past_slack_below_new = |child: &TreeNode, bound: Cost| {
            next_new.is_some_and(|(_, to_new, _)| past_slack(child, detour + to_new, bound))
        };
        let base = ruled_out.len();
        if next_new.is_some() {
            ruled_out.resize(base + old_children.len(), false);
        }

        // Option A: keep an old alternative as the next stop.
        if hotspot.is_none() {
            for (i, child) in old_children.iter().enumerate() {
                let out_below_new = 'child: {
                    let leg = match parent {
                        None => child.leg,
                        // The node immediately below an insertion point
                        // gets a fresh leg from the walker's current
                        // location, unless the level above ruled it out.
                        Some(at) if ruled_out[at + i] => break 'child true,
                        Some(_) => oracle.dist(walker.location, child.stop.node),
                    };
                    if past_slack(child, detour, leg) {
                        break 'child true;
                    }
                    // The reverse triangle inequality bounds the next new
                    // stop's leg from this child, and this child's from
                    // that stop placed here.
                    let bound = next_new.map_or(0.0, |(_, to_new, _)| (leg - to_new).abs());
                    let mark = walker.mark();
                    match walker.advance_with_distance(child.stop, leg) {
                        Ok(()) => {}
                        Err(ValidationError::CapacityExceeded { .. }) => {
                            break 'child past_slack_below_new(child, bound)
                        }
                        Err(_) => break 'child true,
                    }
                    *budget -= 1;
                    if *budget < 0 {
                        return Err(TreeInsertError::Overflow);
                    }
                    let late_below = next_new.is_some_and(|(stop, _, _)| {
                        misses_own_limit(stop, &walker.check(stop, bound))
                    });
                    let below: L = if late_below {
                        L::default()
                    } else {
                        self.extend(
                            &child.children,
                            walker,
                            // Extra distance this child (and everything
                            // below it) incurs compared to the old tree.
                            detour + leg - child.leg,
                            None,
                            remaining,
                            ruled_out,
                            budget,
                            oracle,
                        )?
                    };
                    walker.rewind(mark);
                    let is_complete_leaf = child.children.is_empty() && remaining.is_empty();
                    if !below.is_empty() || is_complete_leaf {
                        out.keep(walker, child.stop, leg, || child.group.clone(), below);
                    }
                    past_slack_below_new(child, bound)
                };
                if next_new.is_some() {
                    ruled_out[base + i] = out_below_new;
                }
            }
        }

        // Option B: serve the next new stop now, unless every old child
        // would be ruled out right below it, and so anywhere below it.
        if let Some((new_stop, leg, fits)) = next_new {
            let all_out = !old_children.is_empty() && ruled_out[base..].iter().all(|&out| out);
            if fits && leg.is_finite() && !all_out {
                let mark = walker.mark();
                walker.append(new_stop, leg);
                *budget -= 1;
                if *budget < 0 {
                    return Err(TreeInsertError::Overflow);
                }
                let below: L = self.extend(
                    old_children,
                    walker,
                    detour + leg,
                    Some(base),
                    &remaining[1..],
                    ruled_out,
                    budget,
                    oracle,
                )?;
                walker.rewind(mark);
                let is_complete_leaf = old_children.is_empty() && remaining.len() == 1;
                if !below.is_empty() || is_complete_leaf {
                    // Joining a hotspot: the group is the union of the
                    // compatible child's group and this stop.
                    let group = || {
                        let mut g = hotspot.map(|c| c.group.clone()).unwrap_or_default();
                        g.push(new_stop.node);
                        g
                    };
                    out.keep(walker, new_stop, leg, group, below);
                }
            }
        }
        ruled_out.truncate(base);

        Ok(out)
    }

    /// Serialises the tree — configuration, problem and every node — in the
    /// `roadnet::io::bin` conventions used by simulation checkpoints.
    /// [`KineticTree::decode`] rebuilds it bit-identically, so a resumed
    /// simulation explores exactly the schedules the interrupted one would
    /// have.
    pub fn encode(&self, out: &mut Vec<u8>) {
        codec::put_bool(out, self.config.use_slack);
        codec::put_opt_f64(out, self.config.hotspot_theta);
        bin::put_u64(out, self.config.max_nodes as u64);
        codec::put_problem(out, &self.problem);
        encode_nodes(&self.children, out);
    }

    /// Reads a tree written by [`KineticTree::encode`]. Malformed input is
    /// reported as [`RoadNetError::Persist`], never a panic.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, RoadNetError> {
        let use_slack = codec::read_bool(r, "kinetic use_slack")?;
        let hotspot_theta = codec::read_opt_f64(r, "kinetic hotspot theta")?;
        let max_nodes = r.u64("kinetic max_nodes")? as usize;
        let problem = codec::read_problem(r)?;
        let children = decode_nodes(r, 0)?;
        let node_count = children.iter().map(TreeNode::count).sum();
        Ok(KineticTree {
            config: KineticConfig {
                use_slack,
                hotspot_theta,
                max_nodes,
            },
            problem,
            children,
            node_count,
        })
    }
}

fn encode_nodes(nodes: &[TreeNode], out: &mut Vec<u8>) {
    bin::put_u64(out, nodes.len() as u64);
    for node in nodes {
        codec::put_stop(out, &node.stop);
        bin::put_f64(out, node.leg);
        bin::put_f64(out, node.slack_root);
        bin::put_u64(out, node.group.len() as u64);
        for &g in &node.group {
            bin::put_u32(out, g);
        }
        encode_nodes(&node.children, out);
    }
}

/// Tree depth equals the number of remaining stops (2 per active trip), so
/// a valid checkpoint never comes close to this bound; it only guards the
/// decoder's recursion against corrupt input.
const MAX_DECODE_DEPTH: usize = 4_096;

fn decode_nodes(r: &mut Reader<'_>, depth: usize) -> Result<Vec<TreeNode>, RoadNetError> {
    if depth > MAX_DECODE_DEPTH {
        return Err(RoadNetError::Persist(format!(
            "kinetic tree nests deeper than {MAX_DECODE_DEPTH}; refusing to recurse"
        )));
    }
    let count = codec::read_len(r, 29, "kinetic node count")?;
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        let stop = codec::read_stop(r)?;
        let leg = r.f64("kinetic node leg")?;
        let slack_root = r.f64("kinetic node slack")?;
        let group_len = codec::read_len(r, 4, "kinetic group size")?;
        let group = (0..group_len)
            .map(|_| r.u32("kinetic group node"))
            .collect::<Result<_, _>>()?;
        let children = decode_nodes(r, depth + 1)?;
        nodes.push(TreeNode {
            stop,
            leg,
            slack_root,
            best_below: cheapest_completion(&children),
            group,
            children,
        });
    }
    Ok(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{BruteForceSolver, ScheduleSolver, SolverOutcome};
    use crate::types::TripId;
    use roadnet::{GeneratorConfig, MatrixOracle, NetworkKind};

    fn grid_oracle(seed: u64) -> MatrixOracle {
        let g = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 6, cols: 6 },
            seed,
            ..GeneratorConfig::default()
        }
        .generate();
        MatrixOracle::new(&g)
    }

    fn make_trip(
        oracle: &MatrixOracle,
        id: TripId,
        pickup: NodeId,
        dropoff: NodeId,
        now: Cost,
        wait: Cost,
        eps: f64,
    ) -> WaitingTrip {
        WaitingTrip {
            trip: id,
            pickup,
            dropoff,
            pickup_deadline: now + wait,
            max_ride: oracle.dist(pickup, dropoff) * (1.0 + eps),
        }
    }

    #[test]
    fn empty_tree_has_zero_cost_route() {
        let tree = KineticTree::new(0, 0.0, 4, KineticConfig::basic());
        assert_eq!(tree.best_route(), Some((0.0, vec![])));
        assert_eq!(tree.stats(), TreeStats::default());
        assert_eq!(tree.active_trips(), 0);
    }

    #[test]
    fn single_insertion_builds_two_node_chain() {
        let oracle = grid_oracle(1);
        let tree = KineticTree::new(0, 0.0, 4, KineticConfig::basic());
        let trip = make_trip(&oracle, 1, 7, 18, 0.0, 8_400.0, 0.2);
        let (tree, cost) = tree.try_insert(trip, &oracle).unwrap();
        let expected = oracle.dist(0, 7) + oracle.dist(7, 18);
        assert!((cost - expected).abs() < 1e-6);
        let (_, route) = tree.best_route().unwrap();
        assert_eq!(route, vec![Stop::pickup(1, 7), Stop::dropoff(1, 18)]);
        assert_eq!(tree.stats().depth, 2);
        assert_eq!(tree.active_trips(), 1);
    }

    #[test]
    fn infeasible_request_is_rejected_and_tree_untouched() {
        let oracle = grid_oracle(2);
        let tree = KineticTree::new(0, 0.0, 4, KineticConfig::basic());
        let far = (oracle.node_count() - 1) as NodeId;
        let trip = WaitingTrip {
            trip: 1,
            pickup: far,
            dropoff: 0,
            pickup_deadline: 1.0,
            max_ride: 1e9,
        };
        assert!(matches!(
            tree.try_insert(trip, &oracle),
            Err(TreeInsertError::Infeasible)
        ));
        assert_eq!(tree.active_trips(), 0);
    }

    #[test]
    fn node_budget_overflow_reported() {
        let oracle = grid_oracle(3);
        let mut config = KineticConfig::basic();
        config.max_nodes = 3;
        let tree = KineticTree::new(0, 0.0, 8, config);
        let t1 = make_trip(&oracle, 1, 3, 20, 0.0, 50_000.0, 3.0);
        let (tree, _) = tree.try_insert(t1, &oracle).unwrap();
        let t2 = make_trip(&oracle, 2, 4, 21, 0.0, 50_000.0, 3.0);
        assert!(matches!(
            tree.try_insert(t2, &oracle),
            Err(TreeInsertError::Overflow)
        ));
    }

    /// Shared helper: build a tree by inserting trips one at a time and
    /// compare its best route with the brute-force optimum of the same
    /// problem.
    fn assert_matches_brute_force(config: KineticConfig, exact: bool, seeds: std::ops::Range<u64>) {
        let oracle = grid_oracle(7);
        let n = oracle.node_count() as u64;
        for seed in seeds {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut tree = KineticTree::new((next() % n) as NodeId, 0.0, 6, config);
            let trips = 2 + (seed % 3) as usize;
            let mut inserted = Vec::new();
            for id in 0..trips as u64 {
                let pickup = (next() % n) as NodeId;
                let mut dropoff = (next() % n) as NodeId;
                if dropoff == pickup {
                    dropoff = (dropoff + 1) % n as NodeId;
                }
                let trip = make_trip(&oracle, id, pickup, dropoff, 0.0, 8_400.0, 0.5);
                match tree.try_insert(trip, &oracle) {
                    Ok((t, _)) => {
                        tree = t;
                        inserted.push(trip);
                    }
                    Err(TreeInsertError::Infeasible) => {}
                    Err(e) => panic!("seed {seed}: unexpected {e:?}"),
                }
            }
            if inserted.is_empty() {
                continue;
            }
            let (tree_cost, route) = tree.best_route().unwrap();
            // The tree's own problem is the ground truth to validate against.
            let cost = tree
                .problem()
                .validate(&route, &oracle)
                .expect("kinetic route must be valid");
            assert!(
                (cost - tree_cost).abs() < 1e-6,
                "seed {seed}: route cost mismatch"
            );
            match BruteForceSolver::default().solve(tree.problem(), &oracle) {
                SolverOutcome::Feasible { cost: best, .. } => {
                    if exact {
                        assert!(
                            (tree_cost - best).abs() < 1e-6,
                            "seed {seed}: tree {tree_cost} vs brute force {best}"
                        );
                    } else {
                        assert!(
                            tree_cost >= best - 1e-6,
                            "seed {seed}: tree {tree_cost} beat the optimum {best}"
                        );
                    }
                }
                other => panic!("seed {seed}: brute force disagrees on feasibility: {other:?}"),
            }
        }
    }

    #[test]
    fn basic_tree_matches_brute_force() {
        assert_matches_brute_force(KineticConfig::basic(), true, 0..15);
    }

    #[test]
    fn slack_tree_matches_brute_force() {
        assert_matches_brute_force(KineticConfig::slack(), true, 0..15);
    }

    #[test]
    fn a_detour_equal_to_the_slack_is_kept_and_one_q_more_is_pruned() {
        // A line of nodes 100 m apart; the vehicle stands at node 2.
        let mut b = roadnet::GraphBuilder::new();
        for i in 0..7 {
            b.add_node(roadnet::Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..6 {
            b.add_edge(i, i + 1, 100.0);
        }
        let oracle = MatrixOracle::new(&b.build());
        // Trip 2 must be served first (0 and 1 lie behind the vehicle), so
        // trip 1's pickup at node 4 is reached at 600 instead of 200: a
        // detour of 400 against its slack of `deadline - 200`.
        let behind = WaitingTrip {
            trip: 2,
            pickup: 0,
            dropoff: 1,
            pickup_deadline: 200.0,
            max_ride: 100.0,
        };
        for config in [KineticConfig::slack(), KineticConfig::basic()] {
            for (deadline, feasible) in [(600.0, true), (600.0 - roadnet::Q, false)] {
                let ahead = WaitingTrip {
                    trip: 1,
                    pickup: 4,
                    dropoff: 6,
                    pickup_deadline: deadline,
                    max_ride: 10_000.0,
                };
                let (tree, _) = KineticTree::new(2, 0.0, 4, config)
                    .try_insert(ahead, &oracle)
                    .unwrap();
                let got = tree.try_insert(behind, &oracle).map(|(_, cost)| cost);
                let want = if feasible {
                    Ok(800.0)
                } else {
                    Err(TreeInsertError::Infeasible)
                };
                assert_eq!(got, want, "{config:?}, deadline {deadline}");
                let probed = tree.probe_insert(behind, &oracle, &mut ProbeScratch::default());
                assert_eq!(probed, want);
            }
        }
    }

    #[test]
    fn hotspot_tree_stays_valid_and_within_bound() {
        // Hotspot clustering is an approximation: routes must stay valid and
        // never beat the optimum.
        assert_matches_brute_force(KineticConfig::hotspot(300.0), false, 0..15);
    }

    #[test]
    fn advance_prunes_to_selected_subtree() {
        let oracle = grid_oracle(4);
        let tree = KineticTree::new(0, 0.0, 6, KineticConfig::basic());
        let t1 = make_trip(&oracle, 1, 5, 30, 0.0, 20_000.0, 1.0);
        let (tree, _) = tree.try_insert(t1, &oracle).unwrap();
        let t2 = make_trip(&oracle, 2, 6, 31, 0.0, 20_000.0, 1.0);
        let (mut tree, _) = tree.try_insert(t2, &oracle).unwrap();
        let before = tree.stats();
        let (_, route) = tree.best_route().unwrap();
        let first = route[0];
        let leg = tree.advance_to(first).unwrap();
        assert!(leg > 0.0);
        let after = tree.stats();
        assert!(after.nodes < before.nodes);
        assert!(after.depth == before.depth - 1);
        // Reaching a pickup moves the trip on board.
        if first.is_pickup() {
            assert!(tree.problem().onboard_trip(first.trip).is_some());
            assert!(tree.problem().waiting_trip(first.trip).is_none());
        }
        // The remaining route must still be valid for the updated problem.
        let (cost, rest) = tree.best_route().unwrap();
        let check = tree.problem().validate(&rest, &oracle).unwrap();
        assert!((check - cost).abs() < 1e-6);
    }

    #[test]
    fn advance_to_unknown_stop_fails() {
        let oracle = grid_oracle(5);
        let tree = KineticTree::new(0, 0.0, 4, KineticConfig::basic());
        let t1 = make_trip(&oracle, 1, 5, 10, 0.0, 20_000.0, 1.0);
        let (mut tree, _) = tree.try_insert(t1, &oracle).unwrap();
        assert_eq!(
            tree.advance_to(Stop::pickup(99, 3)),
            Err(TreeInsertError::Infeasible)
        );
    }

    #[test]
    fn reroot_updates_first_legs() {
        let oracle = grid_oracle(6);
        let tree = KineticTree::new(0, 0.0, 4, KineticConfig::basic());
        let t1 = make_trip(&oracle, 1, 10, 20, 0.0, 20_000.0, 1.0);
        let (mut tree, cost0) = tree.try_insert(t1, &oracle).unwrap();
        // Move the vehicle to an adjacent vertex.
        tree.reroot(1, 100.0, &oracle);
        let (cost1, route) = tree.best_route().unwrap();
        let expected = oracle.dist(1, 10) + oracle.dist(10, 20);
        assert!((cost1 - expected).abs() < 1e-6);
        assert_eq!(route.len(), 2);
        assert_ne!(cost0, cost1);
        assert_eq!(tree.problem().start, 1);
        assert_eq!(tree.problem().now, 100.0);
    }

    /// The cheapest completion below `nodes`' parent by full recursion,
    /// reading no cached value.
    fn completion_by_recursion(nodes: &[TreeNode]) -> Cost {
        if nodes.is_empty() {
            return 0.0;
        }
        nodes
            .iter()
            .map(|c| c.leg + completion_by_recursion(&c.children))
            .fold(Cost::INFINITY, Cost::min)
    }

    /// `best_cost()` and `best_route()` recomputed without the cache, and
    /// every node's cached completion, must match bit for bit.
    fn assert_cache_matches_recursion(tree: &KineticTree, step: &str) {
        fn check(nodes: &[TreeNode], step: &str) {
            for node in nodes {
                assert_eq!(
                    node.best_below.to_bits(),
                    completion_by_recursion(&node.children).to_bits(),
                    "{step}: stale completion at {:?}",
                    node.stop
                );
                check(&node.children, step);
            }
        }
        check(&tree.children, step);
        let total = |c: &TreeNode| c.leg + completion_by_recursion(&c.children);
        let want_cost = if tree.problem.num_stops() == 0 {
            0.0
        } else {
            tree.children
                .iter()
                .map(total)
                .fold(Cost::INFINITY, Cost::min)
        };
        assert_eq!(tree.best_cost().to_bits(), want_cost.to_bits(), "{step}");
        let mut route = Vec::new();
        let mut level = tree.children.as_slice();
        let mut route_cost = None;
        while let Some(node) = level.iter().fold(None::<&TreeNode>, |best, c| match best {
            Some(b) if total(b) <= total(c) => Some(b),
            _ if total(c).is_finite() => Some(c),
            _ => best,
        }) {
            route_cost.get_or_insert(total(node));
            route.push(node.stop);
            level = &node.children;
        }
        let want_route = match route_cost {
            Some(cost) => Some((cost, route)),
            None if tree.problem.num_stops() == 0 => Some((0.0, route)),
            None => None,
        };
        let got = tree.best_route();
        assert_eq!(
            got.as_ref().map(|(c, r)| (c.to_bits(), r)),
            want_route.as_ref().map(|(c, r)| (c.to_bits(), r)),
            "{step}"
        );
    }

    /// Drives a tree of `config` on `grid_oracle(8)` through every
    /// change a tree undergoes — three inserts, `advance_to`, a re-root
    /// elsewhere and one in place, and a decode — calling `check` after
    /// each with the change's name.
    fn through_every_change(config: KineticConfig, check: impl Fn(&KineticTree, &str)) {
        let oracle = grid_oracle(8);
        let tree = KineticTree::new(0, 0.0, 6, config);
        check(&tree, "empty");
        let t1 = make_trip(&oracle, 1, 5, 30, 0.0, 20_000.0, 1.0);
        let (tree, _) = tree.try_insert(t1, &oracle).unwrap();
        let t2 = make_trip(&oracle, 2, 6, 31, 0.0, 20_000.0, 1.0);
        let (tree, _) = tree.try_insert(t2, &oracle).unwrap();
        let t3 = make_trip(&oracle, 3, 12, 2, 0.0, 20_000.0, 1.0);
        let (mut tree, _) = tree.try_insert(t3, &oracle).unwrap();
        check(&tree, "try_insert");
        let (_, route) = tree.best_route().unwrap();
        tree.advance_to(route[0]).unwrap();
        check(&tree, "advance_to");
        let elsewhere = (tree.problem().start + 1) % oracle.node_count() as NodeId;
        tree.reroot(elsewhere, 5_000.0, &oracle);
        check(&tree, "reroot elsewhere");
        tree.reroot(elsewhere, 5_100.0, &oracle);
        check(&tree, "reroot in place");
        let mut bytes = Vec::new();
        tree.encode(&mut bytes);
        let back = KineticTree::decode(&mut Reader::new(&bytes)).unwrap();
        check(&back, "decode");
    }

    #[test]
    fn cached_completions_equal_a_full_recursion_through_every_change() {
        for config in [KineticConfig::basic(), KineticConfig::hotspot(300.0)] {
            through_every_change(config, assert_cache_matches_recursion);
        }
    }

    /// The insertion reads a cached leg as the distance from the node's
    /// parent — the tree's start for a root branch — and bounds the legs
    /// it has not asked by it, so each must be that distance bit for bit.
    #[test]
    fn every_leg_is_the_distance_from_its_parent_through_every_change() {
        fn check(nodes: &[TreeNode], from: NodeId, oracle: &MatrixOracle, step: &str) {
            for node in nodes {
                let want = oracle.dist(from, node.stop.node);
                assert_eq!(
                    node.leg.to_bits(),
                    want.to_bits(),
                    "{step}: leg of {:?} from {from} is {}, not {want}",
                    node.stop,
                    node.leg
                );
                check(&node.children, node.stop.node, oracle, step);
            }
        }
        let oracle = grid_oracle(8);
        for config in [
            KineticConfig::basic(),
            KineticConfig::slack(),
            KineticConfig::hotspot(300.0),
        ] {
            through_every_change(config, |tree, step| {
                check(&tree.children, tree.problem().start, &oracle, step)
            });
        }
    }

    /// A [`MatrixOracle`] that counts its `dist` calls and logs their
    /// endpoints.
    struct CountingOracle {
        inner: MatrixOracle,
        calls: std::cell::Cell<u64>,
        asked: std::cell::RefCell<Vec<(NodeId, NodeId)>>,
    }

    impl CountingOracle {
        fn new(inner: MatrixOracle) -> Self {
            CountingOracle {
                inner,
                calls: Default::default(),
                asked: Default::default(),
            }
        }
    }

    impl DistanceOracle for CountingOracle {
        fn dist(&self, s: NodeId, t: NodeId) -> Cost {
            self.calls.set(self.calls.get() + 1);
            self.asked.borrow_mut().push((s, t));
            self.inner.dist(s, t)
        }

        fn shortest_path(&self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
            self.inner.shortest_path(s, t)
        }

        fn node_count(&self) -> usize {
            self.inner.node_count()
        }
    }

    #[test]
    fn a_reroot_in_place_moves_only_the_clock() {
        let oracle = CountingOracle::new(grid_oracle(11));
        let tree = KineticTree::new(4, 0.0, 6, KineticConfig::slack());
        let t1 = make_trip(&oracle.inner, 1, 9, 27, 0.0, 20_000.0, 1.0);
        let (tree, _) = tree.try_insert(t1, &oracle).unwrap();
        let t2 = make_trip(&oracle.inner, 2, 14, 33, 0.0, 20_000.0, 1.0);
        let (mut tree, _) = tree.try_insert(t2, &oracle).unwrap();
        let (_, route) = tree.best_route().unwrap();
        tree.advance_to(route[0]).unwrap();
        let image = |tree: &KineticTree| {
            let mut problem = tree.problem().clone();
            problem.now = 0.0;
            let mut nodes = Vec::new();
            encode_nodes(&tree.children, &mut nodes);
            (problem, nodes)
        };
        let before = image(&tree);
        let at = tree.problem().start;
        let now = tree.problem().now + 250.0;
        oracle.calls.set(0);
        tree.reroot(at, now, &oracle);
        assert_eq!(oracle.calls.get(), 0, "a re-root in place asked the oracle");
        assert_eq!(tree.problem().now, now);
        assert_eq!(image(&tree), before);
        // Every root leg is the distance from where the tree stands.
        for (node, leg, _) in tree.root_branches() {
            assert_eq!(leg.to_bits(), oracle.inner.dist(at, node).to_bits());
        }
    }

    /// Ten vertices on a line, 100 m apart.
    fn line_oracle() -> MatrixOracle {
        let mut b = roadnet::GraphBuilder::new();
        for i in 0..10 {
            b.add_node(roadnet::Point::new(i as f64 * 100.0, 0.0));
        }
        for i in 0..9 {
            b.add_edge(i, i + 1, 100.0);
        }
        MatrixOracle::new(&b.build())
    }

    /// A vehicle at vertex 1 of [`line_oracle`] whose one valid schedule
    /// is the chain 3, 5, 7, 9: trip 1 rides 3 to 5 and must be picked up
    /// first, trip 2 rides 7 to 9, both without detour.
    fn chain_tree(
        oracle: &dyn DistanceOracle,
        config: KineticConfig,
        capacity: usize,
    ) -> KineticTree {
        let mut tree = KineticTree::new(1, 0.0, capacity, config);
        for (trip, pickup, pickup_deadline) in [(2, 7, 600.0), (1, 3, 200.0)] {
            let trip = WaitingTrip {
                trip,
                pickup,
                dropoff: pickup + 2,
                pickup_deadline,
                max_ride: 200.0,
            };
            tree = tree.try_insert(trip, oracle).unwrap().0;
        }
        let want = TreeStats {
            nodes: 4,
            leaves: 1,
            depth: 4,
        };
        assert_eq!(tree.stats(), want);
        tree
    }

    /// Probes and builds `trip` into `tree`, asserting that both agree
    /// with each other and with brute force, and returns the probe.
    fn probe_build_and_brute_force(
        tree: &KineticTree,
        trip: WaitingTrip,
        oracle: &dyn DistanceOracle,
    ) -> Result<Cost, TreeInsertError> {
        let probed = tree.probe_insert(trip, oracle, &mut ProbeScratch::default());
        let built = tree.try_insert(trip, oracle).map(|(_, cost)| cost);
        assert_eq!(probed, built);
        let mut augmented = tree.problem().clone();
        augmented.waiting.push(trip);
        let best = BruteForceSolver::default().solve(&augmented, oracle);
        assert_eq!(probed.ok(), best.cost());
        probed
    }

    #[test]
    fn a_new_stop_late_at_a_node_is_not_asked_for_below_it() {
        let oracle = CountingOracle::new(line_oracle());
        // Due at 2 by 100: on time from the vehicle at 1, late from the
        // chain's first stop (3, reached at 200) on.
        let late_pickup = WaitingTrip {
            trip: 3,
            pickup: 2,
            dropoff: 4,
            pickup_deadline: 100.0,
            max_ride: 200.0,
        };
        // Picked up at 2 first, the rider may ride 200 to 4: on time from
        // 3, late from 5 (a 400 m ride) on.
        let late_dropoff = WaitingTrip {
            pickup_deadline: 10_000.0,
            ..late_pickup
        };
        for config in [KineticConfig::basic(), KineticConfig::slack()] {
            let tree = chain_tree(&oracle, config, 4);
            for (trip, stop, below) in
                [(late_pickup, 2, &[5, 7, 9][..]), (late_dropoff, 4, &[7, 9])]
            {
                oracle.asked.borrow_mut().clear();
                let probed = tree.probe_insert(trip, &oracle, &mut ProbeScratch::default());
                let asked_below: Vec<_> = oracle
                    .asked
                    .take()
                    .into_iter()
                    .filter(|&(s, t)| t == stop && below.contains(&s))
                    .collect();
                assert_eq!(asked_below, [], "{config:?}: asked for {stop} from below");
                assert_eq!(probed, Ok(800.0), "{config:?}");
                assert_eq!(probe_build_and_brute_force(&tree, trip, &oracle), Ok(800.0));
            }
        }
    }

    #[test]
    fn a_full_vehicle_still_tries_the_new_pickup_below() {
        let oracle = line_oracle();
        // One seat: the rider from 6 to 7 cannot board while trip 1 rides
        // (3 to 5), only once it has left.
        let trip = WaitingTrip {
            trip: 3,
            pickup: 6,
            dropoff: 7,
            pickup_deadline: 10_000.0,
            max_ride: 10_000.0,
        };
        for config in [KineticConfig::basic(), KineticConfig::slack()] {
            let tree = chain_tree(&oracle, config, 1);
            assert_eq!(probe_build_and_brute_force(&tree, trip, &oracle), Ok(800.0));
        }
    }

    /// The pairs `oracle` was asked for while `tree` priced `trip`, after
    /// asserting probe = build = brute force = `cost`.
    fn asks_to_price(
        oracle: &CountingOracle,
        tree: &KineticTree,
        trip: WaitingTrip,
        cost: Cost,
    ) -> Vec<(NodeId, NodeId)> {
        oracle.asked.borrow_mut().clear();
        let probed = tree.probe_insert(trip, oracle, &mut ProbeScratch::default());
        let asked = oracle.asked.take();
        assert_eq!(probed, Ok(cost), "{:?}", tree.config());
        assert_eq!(probe_build_and_brute_force(tree, trip, oracle), Ok(cost));
        asked
    }

    #[test]
    fn a_child_ruled_out_above_a_new_stop_is_not_asked_for_below_it() {
        let oracle = CountingOracle::new(line_oracle());
        // Picked up at 0 right away, the rider leaves the chain's first
        // stop (3, due by 200) to be reached at 400: late on the basic
        // tree, and on the slack tree a detour of 200 against its slack of
        // 0. So the drop-off at 2 is never asked for a leg to 3.
        let behind = WaitingTrip {
            trip: 3,
            pickup: 0,
            dropoff: 2,
            pickup_deadline: 10_000.0,
            max_ride: 10_000.0,
        };
        // Picked up at 6 between 7 and 9, the rider makes trip 2 ride 400
        // against its limit of 200, and so the drop-off at 4 is never
        // asked for a leg to 9 (from 7 on, its own ride limit of 300 is
        // broken first).
        let between = WaitingTrip {
            trip: 3,
            pickup: 6,
            dropoff: 4,
            pickup_deadline: 10_000.0,
            max_ride: 300.0,
        };
        for config in [KineticConfig::basic(), KineticConfig::slack()] {
            let tree = chain_tree(&oracle, config, 4);
            for (trip, pair, cost) in [(behind, (2, 3), 1_900.0), (between, (4, 9), 1_300.0)] {
                let asked = asks_to_price(&oracle, &tree, trip, cost);
                assert!(!asked.contains(&pair), "{config:?}: asked for {pair:?}");
            }
        }
    }

    #[test]
    fn a_child_ruled_out_beside_a_viable_one_is_not_asked_below_the_next_new_stop() {
        let oracle = CountingOracle::new(line_oracle());
        // From a vehicle at 4, trip 1 rides 6 to 7 (due by 600) and trip
        // 2 rides 2 to 3, in either order. The new rider rides 0 to 1 with
        // no detour. Picked up at 0 from the root or after 2, the rider
        // makes trip 1's pickup late but not trip 2's, so the drop-off at
        // 1 is placed there and asked for its leg to 2 (or 3), never to 6.
        let trip = |trip, pickup, dropoff, pickup_deadline, max_ride| WaitingTrip {
            trip,
            pickup,
            dropoff,
            pickup_deadline,
            max_ride,
        };
        let mut tree = KineticTree::new(4, 0.0, 4, KineticConfig::basic());
        for old in [
            trip(1, 6, 7, 600.0, 10_000.0),
            trip(2, 2, 3, 10_000.0, 10_000.0),
        ] {
            tree = tree.try_insert(old, &oracle).unwrap().0;
        }
        assert_eq!(tree.root_branches().count(), 2);
        let asked = asks_to_price(&oracle, &tree, trip(3, 0, 1, 10_000.0, 100.0), 1_300.0);
        assert!(asked.contains(&(1, 2)), "never asked 1 to 2");
        assert!(!asked.contains(&(1, 6)), "asked for 1 to 6");
    }

    #[test]
    fn a_child_full_only_on_seats_is_still_asked_for_below_a_new_stop() {
        let oracle = CountingOracle::new(line_oracle());
        // One seat; trip 1 rides 5 to 9 from a vehicle at 0, and the new
        // rider 2 to 3 fits only before it. Picked up at 2, the rider
        // leaves no seat for trip 1 there, but one frees up at 3.
        let trip = |trip, pickup, dropoff| WaitingTrip {
            trip,
            pickup,
            dropoff,
            pickup_deadline: 10_000.0,
            max_ride: 10_000.0,
        };
        for config in [KineticConfig::basic(), KineticConfig::slack()] {
            let (tree, _) = KineticTree::new(0, 0.0, 1, config)
                .try_insert(trip(1, 5, 9), &oracle)
                .unwrap();
            let asked = asks_to_price(&oracle, &tree, trip(2, 2, 3), 900.0);
            assert!(asked.contains(&(3, 5)), "{config:?}: never asked 3 to 5");
        }
    }

    #[test]
    fn a_new_stop_is_not_placed_where_every_old_child_is_ruled_out() {
        let oracle = CountingOracle::new(line_oracle());
        // From a vehicle at 1, trip 1 rides 3 to 5 with no slack at
        // either stop. The new rider 0 to 2 fits only after it, for
        // 1,100. A walk visits 3, 5, the new pickup and drop-off after 5,
        // and the new pickup at 3 and at the root; below either pickup
        // the old child is over its ride or late (on the slack tree, the
        // latter is past its slack first), so the drop-off is not placed
        // there: six visits.
        let old = WaitingTrip {
            trip: 1,
            pickup: 3,
            dropoff: 5,
            pickup_deadline: 200.0,
            max_ride: 200.0,
        };
        let new = WaitingTrip {
            trip: 2,
            pickup: 0,
            dropoff: 2,
            pickup_deadline: 10_000.0,
            max_ride: 10_000.0,
        };
        for config in [KineticConfig::basic(), KineticConfig::slack()] {
            let tree = |max_nodes| {
                let config = KineticConfig {
                    max_nodes,
                    ..config
                };
                KineticTree::new(1, 0.0, 4, config)
                    .try_insert(old, &oracle)
                    .unwrap()
                    .0
            };
            let asked = asks_to_price(&oracle, &tree(6), new, 1_100.0);
            for pair in [(2, 3), (2, 5)] {
                assert!(!asked.contains(&pair), "{config:?}: asked for {pair:?}");
            }
            let probed = tree(5).probe_insert(new, &oracle, &mut ProbeScratch::default());
            assert_eq!(probed, Err(TreeInsertError::Overflow), "{config:?}");
            let built = tree(5).try_insert(new, &oracle).map(|(_, cost)| cost);
            assert_eq!(built, probed, "{config:?}");
        }
    }

    #[test]
    fn the_reverse_triangle_bounds_a_leg_either_way_round() {
        let oracle = CountingOracle::new(line_oracle());
        // The new pickup at 8 is farther from the vehicle at 1 (700) than
        // the chain's first stop 3 (200), so from 8 that stop is at least
        // 500 away: a detour of 1,000 against its slack of 0. The slack
        // tree does not place the pickup at the root, nor asks 8 to 3.
        let far = WaitingTrip {
            trip: 3,
            pickup: 8,
            dropoff: 0,
            pickup_deadline: 10_000.0,
            max_ride: 10_000.0,
        };
        let tree = chain_tree(&oracle, KineticConfig::slack(), 4);
        let asked = asks_to_price(&oracle, &tree, far, 1_700.0);
        assert!(!asked.contains(&(8, 3)), "asked for 8 to 3");
        // The pickup at 2, due by 100, is nearer the vehicle (100) than 3
        // (200), so from 3 it is at least 100 away, reached at 300 or
        // later: the descent into 3 cuts it without asking 3 to 2.
        let near = WaitingTrip {
            trip: 3,
            pickup: 2,
            dropoff: 4,
            pickup_deadline: 100.0,
            max_ride: 200.0,
        };
        for config in [KineticConfig::basic(), KineticConfig::slack()] {
            let tree = chain_tree(&oracle, config, 4);
            let asked = asks_to_price(&oracle, &tree, near, 800.0);
            assert!(!asked.contains(&(3, 2)), "{config:?}: asked for 3 to 2");
        }
    }

    #[test]
    fn slack_variant_produces_smaller_or_equal_trees_under_tight_constraints() {
        let oracle = grid_oracle(9);
        let n = oracle.node_count() as u64;
        let mut basic = KineticTree::new(0, 0.0, 6, KineticConfig::basic());
        let mut slack = KineticTree::new(0, 0.0, 6, KineticConfig::slack());
        let mut state = 77u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for id in 0..4u64 {
            let pickup = (next() % n) as NodeId;
            let mut dropoff = (next() % n) as NodeId;
            if dropoff == pickup {
                dropoff = (dropoff + 1) % n as NodeId;
            }
            let trip = make_trip(&oracle, id, pickup, dropoff, 0.0, 4_200.0, 0.1);
            if let Ok((t, _)) = basic.try_insert(trip, &oracle) {
                basic = t;
                // Whatever basic accepted, slack must accept with the same cost.
                let (t2, c2) = slack.try_insert(trip, &oracle).expect("slack must agree");
                assert!((c2 - basic.best_route().unwrap().0).abs() < 1e-6);
                slack = t2;
            }
        }
        assert!(slack.stats().leaves <= basic.stats().leaves);
        assert_eq!(KineticConfig::slack().variant_name(), "kinetic-slack");
        assert_eq!(KineticConfig::basic().variant_name(), "kinetic-basic");
        assert_eq!(
            KineticConfig::hotspot(1.0).variant_name(),
            "kinetic-hotspot"
        );
    }

    #[test]
    fn encode_decode_roundtrips_bit_identically() {
        let oracle = grid_oracle(12);
        let tree = KineticTree::new(3, 10.0, 4, KineticConfig::hotspot(300.0));
        let t1 = make_trip(&oracle, 1, 5, 30, 10.0, 20_000.0, 1.0);
        let (tree, _) = tree.try_insert(t1, &oracle).unwrap();
        let t2 = make_trip(&oracle, 2, 6, 31, 10.0, 20_000.0, 1.0);
        let (tree, _) = tree.try_insert(t2, &oracle).unwrap();

        let mut bytes = Vec::new();
        tree.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = KineticTree::decode(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        // Structural identity via the byte image, behavioural identity via
        // the best route and stats.
        let mut bytes2 = Vec::new();
        back.encode(&mut bytes2);
        assert_eq!(bytes, bytes2);
        assert_eq!(back.best_route(), tree.best_route());
        assert_eq!(back.stats(), tree.stats());
        assert_eq!(back.problem(), tree.problem());
        assert_eq!(back.config(), tree.config());

        // Truncations error cleanly instead of panicking.
        for len in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..len]);
            assert!(
                KineticTree::decode(&mut r).is_err(),
                "truncation at {len} decoded"
            );
        }
    }

    #[test]
    fn hotspot_limits_tree_growth_at_a_shared_pickup_point() {
        let oracle = grid_oracle(10);
        // Six passengers all departing from the same vertex (an "airport"),
        // unlimited capacity: the basic tree explodes combinatorially, the
        // hotspot tree stays small.
        let build = |config: KineticConfig| -> Option<TreeStats> {
            let mut tree = KineticTree::new(0, 0.0, usize::MAX, config);
            for id in 0..6u64 {
                let dropoff = 6 + id as NodeId * 4;
                let trip = make_trip(&oracle, id, 14, dropoff, 0.0, 50_000.0, 2.0);
                match tree.try_insert(trip, &oracle) {
                    Ok((t, _)) => tree = t,
                    Err(_) => return None,
                }
            }
            Some(tree.stats())
        };
        let basic = build(KineticConfig::basic()).expect("basic finishes at this size");
        let hotspot = build(KineticConfig::hotspot(500.0)).expect("hotspot finishes");
        assert!(
            hotspot.leaves < basic.leaves,
            "hotspot {hotspot:?} should be smaller than basic {basic:?}"
        );
    }
}
