//! Contraction-hierarchy-style vertex ordering for hub labeling.
//!
//! Pruned landmark labeling (see [`crate::hub_label`]) is exact for *any*
//! vertex ordering, but its cost is exquisitely sensitive to ordering
//! quality: every label entry is one pruned-Dijkstra visit, and a good
//! ordering lets early hubs prune almost everything. Degree and
//! sampled-betweenness orderings stop working past a few thousand vertices:
//! on grid-like networks they pick hubs that cover overlapping regions, and
//! label sizes (and therefore build time) grow superlinearly.
//!
//! This module computes the ordering the CH literature uses, the only one
//! the hub-label build runs: nodes are "contracted" one at a time,
//! cheapest first, where the cost of
//! contracting a node combines the *edge difference* (shortcuts that would
//! have to be added to preserve distances, minus edges removed) with the
//! number of already-contracted neighbours (spreading contraction evenly
//! across the network). The node contracted *last* is the most important
//! and becomes hub rank 0. Priorities are maintained lazily: a node popped
//! from the queue is re-evaluated and re-queued unless its priority is
//! still minimal, which avoids the O(V log V) cascade of exact updates.
//!
//! Only the *ordering* leaves this module. The shortcut edges built along
//! the way exist to keep the overlay graph's distances faithful while
//! later witness searches run; they are dropped when ordering finishes,
//! and the hub-label build then runs plain pruned Dijkstras over the
//! original graph in the computed order. That keeps the labeling exact
//! even though witness searches are capped heuristics: a mis-judged
//! shortcut can only degrade ordering quality, never correctness.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::RoadNetwork;
use crate::types::{HeapEntry, NodeId, Weight, INFINITY};

/// Maximum nodes one witness search may settle before giving up; unreached
/// targets are conservatively assumed to need a shortcut. One search runs
/// per *source* neighbour (not per pair), covering all of that source's
/// targets at once, and only when a node is actually contracted. Like
/// [`WITNESS_HOP_LIMIT`], chosen for road-like planar networks: a little
/// ordering quality traded for near-linear construction. Changing either
/// changes the labels, while persisted label files are keyed by network
/// alone; the pinned-labels test in `hub_label` fails first.
const WITNESS_SETTLE_LIMIT: usize = 256;

/// Maximum hops a witness path may take (road-network witnesses are short;
/// deep searches are almost never worth their cost).
const WITNESS_HOP_LIMIT: u32 = 16;

/// The result of contracting a road network: a total order over its
/// vertices by increasing importance of contraction, exposed both ways.
#[derive(Debug, Clone)]
pub struct ContractionOrder {
    /// `order[rank] = node`: rank 0 is the most important vertex (the last
    /// one contracted), matching what [`crate::hub_label`] expects.
    order: Vec<NodeId>,
    /// Inverse permutation: `rank_of[node] = rank`.
    rank_of: Vec<u32>,
    /// Shortcut edges added while contracting (diagnostic; the hub-label
    /// build does not use them).
    shortcuts: usize,
}

impl ContractionOrder {
    /// Computes the ordering.
    pub fn compute(graph: &RoadNetwork) -> Self {
        Contractor::new(graph).run()
    }

    /// Vertices from most to least important (`order[0]` = top hub).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Rank of a vertex (0 = most important).
    pub fn rank(&self, node: NodeId) -> u32 {
        self.rank_of[node as usize]
    }

    /// Number of shortcut edges the contraction added (a quality
    /// diagnostic: fewer shortcuts per node means the ordering found
    /// small separators).
    pub fn shortcut_count(&self) -> usize {
        self.shortcuts
    }
}

/// Live overlay-graph state during contraction.
struct Contractor<'g> {
    graph: &'g RoadNetwork,
    /// Overlay adjacency between *live* (not yet contracted) nodes; parallel
    /// edges are collapsed to their minimum weight on insertion.
    adj: Vec<Vec<(NodeId, Weight)>>,
    /// True once a node has been contracted.
    contracted: Vec<bool>,
    /// Number of contracted neighbours (the "deleted neighbours" term).
    deleted_neighbors: Vec<u32>,
    /// Scratch for witness searches: tentative distances, with a touched
    /// list for O(search) reset, and a reusable heap buffer.
    dist: Vec<Weight>,
    hops: Vec<u32>,
    touched: Vec<NodeId>,
    is_target: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
    shortcuts: usize,
}

/// Priority-queue key: lower contracts earlier; ties break on node id so
/// the ordering is deterministic across runs and platforms.
type QueueKey = (i64, NodeId);

impl<'g> Contractor<'g> {
    fn new(graph: &'g RoadNetwork) -> Self {
        let n = graph.node_count();
        let mut adj: Vec<Vec<(NodeId, Weight)>> = vec![Vec::new(); n];
        for u in 0..n as NodeId {
            for (v, w) in graph.neighbors(u) {
                upsert_min(&mut adj[u as usize], v, w);
            }
        }
        Contractor {
            graph,
            adj,
            contracted: vec![false; n],
            deleted_neighbors: vec![0; n],
            dist: vec![INFINITY; n],
            hops: vec![0; n],
            touched: Vec::new(),
            is_target: vec![false; n],
            heap: BinaryHeap::new(),
            shortcuts: 0,
        }
    }

    fn run(mut self) -> ContractionOrder {
        let n = self.graph.node_count();
        let mut queue: BinaryHeap<Reverse<QueueKey>> = BinaryHeap::with_capacity(n);
        // `cached[v]` is the most recent priority pushed for `v`; queue
        // entries with a different key are stale and skipped without any
        // recomputation.
        let mut cached: Vec<i64> = Vec::with_capacity(n);
        for v in 0..n as NodeId {
            let p = self.priority(v);
            cached.push(p);
            queue.push(Reverse((p, v)));
        }
        // Contraction order, least important first.
        let mut contraction_order: Vec<NodeId> = Vec::with_capacity(n);
        while let Some(Reverse((key, v))) = queue.pop() {
            if self.contracted[v as usize] || key != cached[v as usize] {
                continue; // stale duplicate entry
            }
            // Lazy update: re-evaluate; if the node no longer beats the
            // next-best candidate, push it back with its fresh priority.
            let fresh = self.priority(v);
            if fresh > key {
                cached[v as usize] = fresh;
                if let Some(&Reverse((next_key, next_v))) = queue.peek() {
                    if (fresh, v) > (next_key, next_v) {
                        queue.push(Reverse((fresh, v)));
                        continue;
                    }
                }
            }
            self.contract(v);
            contraction_order.push(v);
        }
        debug_assert_eq!(contraction_order.len(), n);
        // Hub rank 0 = most important = contracted last.
        contraction_order.reverse();
        let order = contraction_order;
        let mut rank_of = vec![0u32; n];
        for (rank, &node) in order.iter().enumerate() {
            rank_of[node as usize] = rank as u32;
        }
        ContractionOrder {
            order,
            rank_of,
            shortcuts: self.shortcuts,
        }
    }

    /// Live neighbours of `v` (skipping contracted ones).
    fn live_neighbors(&self, v: NodeId) -> Vec<(NodeId, Weight)> {
        self.adj[v as usize]
            .iter()
            .copied()
            .filter(|&(u, _)| !self.contracted[u as usize])
            .collect()
    }

    /// Contraction priority of `v`: `edge_difference + deleted_neighbors`,
    /// both scaled to integers so the queue order is exact. Lower is
    /// contracted earlier.
    ///
    /// The shortcut count here is an *estimate* from 1-hop witnesses only
    /// (a direct live edge `(a, b)` no longer than the path through `v`).
    /// Estimation runs on every priority (re-)evaluation — orders of
    /// magnitude more often than contraction — so it must not search;
    /// committed shortcuts always run the real bounded witness search.
    fn priority(&mut self, v: NodeId) -> i64 {
        let neighbors = self.live_neighbors(v);
        let shortcuts = self.estimate_shortcuts(&neighbors);
        let edge_diff = shortcuts as i64 - neighbors.len() as i64;
        // Weights follow the classic CH recipe: edge difference dominates,
        // deleted neighbours keep contraction spatially uniform.
        4 * edge_diff + self.deleted_neighbors[v as usize] as i64
    }

    /// 1-hop witness estimate of the shortcuts needed to contract a node
    /// with the given live neighbourhood: a pair `(a, b)` counts unless a
    /// direct live edge already covers the path through the node. One scan
    /// of each source's adjacency list covers all of its targets, so the
    /// estimate is `O(degree^2)` even when adjacency lists are long.
    fn estimate_shortcuts(&mut self, neighbors: &[(NodeId, Weight)]) -> usize {
        if neighbors.len() < 2 {
            return 0;
        }
        let mut added = 0;
        for (i, &(a, wa)) in neighbors.iter().enumerate() {
            let targets = &neighbors[i + 1..];
            if targets.is_empty() {
                break;
            }
            for &(b, _) in targets {
                self.is_target[b as usize] = true;
            }
            for &(t, w) in &self.adj[a as usize] {
                if self.is_target[t as usize] && w < self.dist[t as usize] {
                    self.dist[t as usize] = w;
                }
            }
            for &(b, wb) in targets {
                self.is_target[b as usize] = false;
                if self.dist[b as usize] > wa + wb {
                    added += 1;
                }
                self.dist[b as usize] = INFINITY;
            }
        }
        added
    }

    /// Inserts the shortcuts required to contract `v` given its live
    /// neighbourhood.
    ///
    /// One bounded witness search runs per *source* neighbour `a`,
    /// covering every pair `(a, b)` with `b` after `a` in the list; a
    /// shortcut `(a, b)` is added only when the search found no path of
    /// length at most `w(a,v) + w(v,b)` that avoids `v`. The search stops
    /// as soon as every target of the source has been settled, which in
    /// the dense quasi-clique at the top of the hierarchy happens after a
    /// single expansion: earlier shortcuts connect the neighbours
    /// directly.
    fn commit_shortcuts(&mut self, v: NodeId, neighbors: &[(NodeId, Weight)]) {
        if neighbors.len() < 2 {
            return;
        }
        let mut hard: Vec<(NodeId, Weight)> = Vec::new();
        for (i, &(a, wa)) in neighbors.iter().enumerate() {
            let targets = &neighbors[i + 1..];
            if targets.is_empty() {
                break;
            }
            // Heapless 1+2-hop witness pass: one scan of `a`'s adjacency
            // (and its neighbours' lists) covers the overwhelming majority
            // of pairs on road-like overlays — witnesses usually just go
            // around the block. Only targets it leaves unwitnessed pay for
            // a real bounded Dijkstra below.
            for &(b, _) in targets {
                self.is_target[b as usize] = true;
            }
            // The 2-hop part is budgeted: in the dense quasi-clique at the
            // top of the hierarchy neighbour lists are long and the 1-hop
            // pass (direct clique edges) already witnesses nearly every
            // pair, so spending O(adj^2) there buys nothing.
            let mut two_hop_budget = 256usize;
            {
                let adj = &self.adj;
                let dist = &mut self.dist;
                let is_target = &self.is_target;
                let contracted = &self.contracted;
                for &(x, wx) in &adj[a as usize] {
                    if x == v || contracted[x as usize] {
                        continue;
                    }
                    if is_target[x as usize] && wx < dist[x as usize] {
                        dist[x as usize] = wx;
                    }
                    let list = &adj[x as usize];
                    if two_hop_budget == 0 {
                        continue;
                    }
                    two_hop_budget = two_hop_budget.saturating_sub(list.len());
                    for &(t, wt) in list {
                        let d2 = wx + wt;
                        if is_target[t as usize]
                            && t != v
                            && !contracted[t as usize]
                            && d2 < dist[t as usize]
                        {
                            dist[t as usize] = d2;
                        }
                    }
                }
            }
            hard.clear();
            for &(b, wb) in targets {
                if self.dist[b as usize] > wa + wb {
                    hard.push((b, wb));
                } else {
                    self.is_target[b as usize] = false;
                }
                self.dist[b as usize] = INFINITY;
            }
            if !hard.is_empty() {
                // `is_target` is still set exactly for the hard targets.
                let limit = wa
                    + hard
                        .iter()
                        .map(|&(_, wb)| wb)
                        .fold(0.0f64, |acc, w| acc.max(w));
                self.witness_search(a, v, limit, hard.len());
                for &(b, wb) in &hard {
                    self.is_target[b as usize] = false;
                    let via = wa + wb;
                    if self.dist[b as usize] > via {
                        upsert_min(&mut self.adj[a as usize], b, via);
                        upsert_min(&mut self.adj[b as usize], a, via);
                        self.shortcuts += 1;
                    }
                }
                self.reset_scratch();
            }
            // Committed shortcuts from earlier sources must be visible to
            // later sources' searches (they are: upsert_min writes into
            // the live adjacency the next pass walks).
        }
    }

    /// Bounded Dijkstra from `a` in the live overlay graph with `skip`
    /// removed, leaving tentative distances in `self.dist` for the caller
    /// to inspect (call [`Contractor::reset_scratch`] afterwards). Stops
    /// early once all `remaining_targets` nodes flagged in
    /// `self.is_target` have been settled.
    fn witness_search(&mut self, a: NodeId, skip: NodeId, limit: Weight, remaining_targets: usize) {
        self.heap.clear();
        self.dist[a as usize] = 0.0;
        self.hops[a as usize] = 0;
        self.touched.push(a);
        self.heap.push(HeapEntry::new(0.0, a));
        let mut remaining = remaining_targets;
        let mut settled = 0usize;
        while let Some(HeapEntry { cost, node: u }) = self.heap.pop() {
            let d = cost.0;
            if d > self.dist[u as usize] {
                continue;
            }
            if self.is_target[u as usize] {
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
            settled += 1;
            if settled > WITNESS_SETTLE_LIMIT {
                break;
            }
            let hop = self.hops[u as usize];
            if hop >= WITNESS_HOP_LIMIT {
                continue;
            }
            let adj = &self.adj;
            let dist = &mut self.dist;
            let hops = &mut self.hops;
            let touched = &mut self.touched;
            let heap = &mut self.heap;
            let contracted = &self.contracted;
            for &(w, weight) in &adj[u as usize] {
                if w == skip || contracted[w as usize] {
                    continue;
                }
                let nd = d + weight;
                if nd <= limit && nd < dist[w as usize] {
                    if dist[w as usize] == INFINITY {
                        touched.push(w);
                    }
                    dist[w as usize] = nd;
                    hops[w as usize] = hop + 1;
                    heap.push(HeapEntry::new(nd, w));
                }
            }
        }
    }

    /// Clears the tentative-distance scratch after a witness search.
    fn reset_scratch(&mut self) {
        for i in 0..self.touched.len() {
            let t = self.touched[i];
            self.dist[t as usize] = INFINITY;
            self.hops[t as usize] = 0;
        }
        self.touched.clear();
    }

    /// Contracts `v`: adds the required shortcuts between its live
    /// neighbours and marks it gone.
    fn contract(&mut self, v: NodeId) {
        let neighbors = self.live_neighbors(v);
        self.commit_shortcuts(v, &neighbors);
        self.contracted[v as usize] = true;
        for &(u, _) in &neighbors {
            self.deleted_neighbors[u as usize] += 1;
            // Keep the overlay lists from accumulating dead entries: drop
            // edges into contracted nodes opportunistically once they make
            // up most of the list.
            let live = &self.contracted;
            let list = &mut self.adj[u as usize];
            if list.len() >= 8
                && list.iter().filter(|&&(w, _)| live[w as usize]).count() * 2 >= list.len()
            {
                list.retain(|&(w, _)| !live[w as usize]);
            }
        }
    }
}

/// Inserts `(to, weight)` into an adjacency list, keeping the minimum
/// weight if the edge already exists.
fn upsert_min(list: &mut Vec<(NodeId, Weight)>, to: NodeId, weight: Weight) {
    for entry in list.iter_mut() {
        if entry.0 == to {
            if weight < entry.1 {
                entry.1 = weight;
            }
            return;
        }
    }
    list.push((to, weight));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GeneratorConfig, NetworkKind};
    use crate::graph::GraphBuilder;
    use crate::types::Point;

    fn grid(rows: usize, cols: usize, seed: u64) -> RoadNetwork {
        GeneratorConfig {
            kind: NetworkKind::Grid { rows, cols },
            seed,
            ..GeneratorConfig::default()
        }
        .generate()
    }

    #[test]
    fn order_is_a_permutation() {
        let g = grid(9, 7, 3);
        let o = ContractionOrder::compute(&g);
        let n = g.node_count();
        assert_eq!(o.order().len(), n);
        let mut seen = vec![false; n];
        for &v in o.order() {
            assert!(!seen[v as usize], "node {v} ranked twice");
            seen[v as usize] = true;
        }
        assert!(seen.into_iter().all(|s| s));
        for (rank, &v) in o.order().iter().enumerate() {
            assert_eq!(o.rank(v), rank as u32);
        }
    }

    #[test]
    fn ordering_is_deterministic() {
        let g = grid(12, 12, 9);
        let a = ContractionOrder::compute(&g);
        let b = ContractionOrder::compute(&g);
        assert_eq!(a.order(), b.order());
        assert_eq!(a.shortcut_count(), b.shortcut_count());
    }

    #[test]
    fn path_interior_outranks_endpoints() {
        // On a path a-b-c, the middle vertex separates the other two and
        // must be the most important (contracted last).
        let mut builder = GraphBuilder::new();
        let a = builder.add_node(Point::new(0.0, 0.0));
        let b = builder.add_node(Point::new(1.0, 0.0));
        let c = builder.add_node(Point::new(2.0, 0.0));
        builder.add_edge(a, b, 1.0);
        builder.add_edge(b, c, 1.0);
        let g = builder.build();
        let o = ContractionOrder::compute(&g);
        assert_eq!(o.rank(b), 0, "separator vertex must rank first");
    }

    #[test]
    fn shortcut_count_stays_near_linear_on_grids() {
        // Nested-dissection-like orderings add O(n log n) shortcuts on
        // planar graphs; a broken heuristic degrades towards O(n^2).
        let g = grid(20, 20, 1);
        let o = ContractionOrder::compute(&g);
        let n = g.node_count();
        assert!(
            o.shortcut_count() < 12 * n,
            "too many shortcuts: {} for {} nodes",
            o.shortcut_count(),
            n
        );
    }

    #[test]
    fn single_node_network() {
        let mut builder = GraphBuilder::new();
        builder.add_node(Point::default());
        let g = builder.build();
        let o = ContractionOrder::compute(&g);
        assert_eq!(o.order(), &[0]);
        assert_eq!(o.rank(0), 0);
    }
}
