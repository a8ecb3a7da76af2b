//! Exact hub labeling (pruned landmark labeling) distance oracle.
//!
//! The paper implements "the state-of-art hub-labeling algorithm — a fast and
//! practical algorithm to heuristically construct the distance labeling on
//! large road networks, where each vertex records a set of intermediate
//! vertices (and their distance to them) for the shortest path computation".
//!
//! We implement pruned landmark labeling over the contraction-hierarchy
//! style vertex ordering from [`crate::contraction`], which finds small
//! separators and keeps both label sizes and build time near-linear on
//! road-like networks. Construction runs one pruned Dijkstra per vertex in
//! rank order, each pruning against the labels of every earlier rank and
//! writing its entries straight into the labels it reaches.
//!
//! Finished labels live in a CSR-style arena: one contiguous
//! [`LabelEntry`] slice plus per-vertex offsets. That removes per-vertex
//! allocation, keeps queries on one cache-friendly slice, and is the layout
//! the on-disk format in [`persist`] writes verbatim — a paper-scale build
//! is paid once and reloaded with [`HubLabels::load`].
//!
//! The resulting oracle is *exact*: `query(s, t)` equals the shortest-path
//! distance, which the tests verify against Dijkstra.
//!
//! Labels answer *path* queries too. Every entry carries a next-hop
//! pointer — the labelled vertex's parent in the hub's pruned search tree,
//! recorded by the Dijkstra that creates the entry — so
//! [`HubLabels::path`] finds the best hub with one label merge and walks
//! both endpoints to it, instead of running a point-to-point Dijkstra. A
//! walk binary searches the first vertex's label for the hub; every later
//! hop finds it by scanning outward from where the previous vertex held it.
//!
//! A distance query is a join of two rank-sorted labels on hub rank under
//! a minimum. [`HubLabels::distance`] merges them and keeps no state. When
//! one side is shared by hundreds of queries in a row — a new request's
//! pickup, against every vehicle that might serve it — it is cheaper to
//! index that side once and probe it: the oracle's miss path keeps the
//! labels of its last few query endpoints spread into dense arrays by hub
//! rank (the crate-private `Spread`, as the build does for its pruning
//! test) and scans the other label against one. Both compute the same sums
//! and the same minimum, to the same bits.

pub mod persist;

use std::collections::BinaryHeap;
use std::path::Path;

use crate::contraction::ContractionOrder;
use crate::error::RoadNetError;
use crate::graph::RoadNetwork;
use crate::oracle::ShortestPathEngine;
use crate::types::{HeapEntry, NodeId, Weight, INFINITY};

/// One entry of a vertex label: a hub, the exact distance to it and the
/// first step of a shortest path towards it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelEntry {
    /// Rank of the hub in the construction ordering (not the original node
    /// id); ranks are what queries intersect on.
    pub hub_rank: u32,
    /// Next vertex on the shortest path from the labelled vertex towards
    /// the hub (the hub's own entry points at itself). Sits in what would
    /// otherwise be padding before `dist`, so an entry is still 16 bytes.
    pub parent: NodeId,
    /// Exact shortest-path distance from the labelled vertex to the hub.
    pub dist: Weight,
}

/// Exact two-hop labeling over a road network, stored as a CSR arena.
#[derive(Debug, Clone, PartialEq)]
pub struct HubLabels {
    /// `entries[label_offsets[v]..label_offsets[v + 1]]` is the label of
    /// vertex `v`, sorted by `hub_rank` ascending.
    label_offsets: Vec<usize>,
    /// All label entries, concatenated in vertex order.
    entries: Vec<LabelEntry>,
    /// Maps construction rank back to the original node id.
    rank_to_node: Vec<NodeId>,
}

impl HubLabels {
    /// Builds labels: one pruned Dijkstra per vertex, in
    /// [`ContractionOrder`] order.
    pub fn build(graph: &RoadNetwork) -> Self {
        let order = ContractionOrder::compute(graph).order().to_vec();
        Self::build_in_order(graph, order)
    }

    /// Builds labels over an arbitrary vertex order (`order[rank]` is the
    /// vertex of that rank). Exact for any permutation; only label size
    /// depends on the order.
    fn build_in_order(graph: &RoadNetwork, order: Vec<NodeId>) -> Self {
        let n = graph.node_count();
        let mut labels: Vec<Vec<LabelEntry>> = vec![Vec::new(); n];
        let mut scratch = SearchScratch::new(n);
        for (rank, &root) in order.iter().enumerate() {
            pruned_dijkstra(graph, &mut labels, rank as u32, root, &mut scratch);
        }

        // Labels are appended in increasing rank order by construction, so
        // they are already sorted; assert in debug builds.
        debug_assert!(labels
            .iter()
            .all(|l| l.windows(2).all(|w| w[0].hub_rank < w[1].hub_rank)));
        // The closure property `path` walks on: an entry's parent carries
        // the same hub, nearer to it (no farther, across a zero-weight edge
        // — where the walk, which insists on progress, declines). It holds
        // because a pruned vertex relaxes nothing, so every labelled vertex
        // was reached from a labelled one.
        debug_assert!(labels.iter().enumerate().all(|(v, label)| {
            label.iter().all(|e| {
                if e.parent as usize == v {
                    return order[e.hub_rank as usize] as usize == v;
                }
                hub_entry(&labels[e.parent as usize], e.hub_rank).is_some_and(|p| p.dist <= e.dist)
            })
        }));
        Self::from_per_vertex(labels, order)
    }

    /// Flattens per-vertex label vectors into the CSR arena.
    fn from_per_vertex(labels: Vec<Vec<LabelEntry>>, rank_to_node: Vec<NodeId>) -> Self {
        let mut label_offsets = Vec::with_capacity(labels.len() + 1);
        label_offsets.push(0usize);
        let total: usize = labels.iter().map(Vec::len).sum();
        let mut entries = Vec::with_capacity(total);
        for label in &labels {
            entries.extend_from_slice(label);
            label_offsets.push(entries.len());
        }
        HubLabels {
            label_offsets,
            entries,
            rank_to_node,
        }
    }

    /// Exact shortest-path distance between `s` and `t`, or `None` when they
    /// are disconnected.
    pub fn distance(&self, s: NodeId, t: NodeId) -> Option<Weight> {
        if s == t {
            return Some(0.0);
        }
        let d = query_labels(self.label(s), self.label(t));
        if d == INFINITY {
            None
        } else {
            Some(d)
        }
    }

    /// Exact shortest path from `s` to `t`, inclusive of both endpoints, or
    /// `None` when they are disconnected.
    ///
    /// One label merge finds the hub the shortest path runs through; each
    /// endpoint then walks to it along the next-hop pointers, looking the
    /// hub up in every visited vertex's label — by binary search at the
    /// first vertex, then next to the previous vertex's index. Where
    /// shortest paths are unique this is Dijkstra's vertex sequence; under
    /// ties it is *a* shortest path.
    ///
    /// Also `None` — never a panic or an endless walk — when a chain is
    /// broken: a vertex on it lacks the hub's entry, or the distance to
    /// the hub fails to strictly decrease (a zero-weight edge, or labels
    /// that did not come from [`HubLabels::build`]). Callers that must
    /// tell the two apart fall back to Dijkstra.
    pub fn path(&self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        ShortestPathEngine::path(self, s, t).map(|(_, p)| p)
    }

    /// Appends the vertices from `v` to the hub at `hub_rank`, both
    /// inclusive, following next-hop pointers. The distance to the hub must
    /// strictly decrease at every hop, which bounds the walk by the vertex
    /// count on any input.
    ///
    /// Consecutive vertices on a walk hold the hub at nearly the same
    /// position in their labels (on a large city the same index on most
    /// hops, within a few on nearly all), so only the first hop binary
    /// searches; every later one scans outward from the previous hop's
    /// index ([`hub_index_near`]), which finds the same entry.
    fn walk_to_hub(&self, v: NodeId, hub_rank: u32, out: &mut Vec<NodeId>) -> Option<()> {
        let hub = self.hub_node(hub_rank);
        let mut cur = v;
        let mut remaining = INFINITY;
        let mut at = None;
        out.push(cur);
        while cur != hub {
            let label = self.label(cur);
            let i = match at {
                None => label.binary_search_by_key(&hub_rank, |e| e.hub_rank).ok(),
                Some(hint) => hub_index_near(label, hub_rank, hint),
            }?;
            at = Some(i);
            let entry = &label[i];
            if entry.dist >= remaining {
                return None;
            }
            remaining = entry.dist;
            cur = entry.parent;
            out.push(cur);
        }
        Some(())
    }

    /// Number of vertices the labeling covers.
    pub fn node_count(&self) -> usize {
        self.rank_to_node.len()
    }

    /// Number of label entries over all vertices (an index-size measure).
    pub fn total_label_entries(&self) -> usize {
        self.entries.len()
    }

    /// Mean label size per vertex.
    pub fn mean_label_size(&self) -> f64 {
        if self.rank_to_node.is_empty() {
            0.0
        } else {
            self.entries.len() as f64 / self.rank_to_node.len() as f64
        }
    }

    /// The hub vertex (original node id) at a construction rank.
    pub fn hub_node(&self, rank: u32) -> NodeId {
        self.rank_to_node[rank as usize]
    }

    /// Label of a vertex, sorted by hub rank (exposed for diagnostics and
    /// tests).
    pub fn label(&self, v: NodeId) -> &[LabelEntry] {
        let v = v as usize;
        &self.entries[self.label_offsets[v]..self.label_offsets[v + 1]]
    }

    /// Writes the labeling to `path` in the versioned, checksummed binary
    /// format of [`persist`], stamped with the fingerprint of the network
    /// the labels were built from so [`HubLabels::load`] can refuse to
    /// apply them to any other network. The file is replaced atomically: a
    /// process killed mid-save leaves the previous file, never a torn one.
    ///
    /// # Examples
    ///
    /// Build once, persist, and reload for later runs — the round-trip is
    /// bit-identical, which is what lets a paper-scale index (≈75 s to
    /// build) boot from disk in seconds instead:
    ///
    /// ```
    /// use roadnet::{GeneratorConfig, HubLabels, NetworkKind};
    ///
    /// let graph = GeneratorConfig {
    ///     kind: NetworkKind::Grid { rows: 6, cols: 6 },
    ///     ..GeneratorConfig::default()
    /// }
    /// .generate();
    /// let labels = HubLabels::build(&graph);
    /// let path = std::env::temp_dir().join("hub_labels_doctest.hlbl");
    /// labels.save(&graph, &path).unwrap();
    /// let reloaded = HubLabels::load(&path, &graph).unwrap();
    /// assert_eq!(reloaded, labels);
    /// std::fs::remove_file(&path).ok();
    /// ```
    pub fn save<P: AsRef<Path>>(&self, graph: &RoadNetwork, path: P) -> Result<(), RoadNetError> {
        persist::save(self, graph.fingerprint(), path.as_ref())
    }

    /// Reads a labeling previously written by [`HubLabels::save`],
    /// verifying that it was built for `graph`. Truncated or corrupted
    /// files, and files built for a *different* network (the embedded
    /// fingerprint disagrees), are reported as [`RoadNetError::Persist`],
    /// never a panic and never silently wrong distances.
    ///
    /// # Examples
    ///
    /// ```
    /// use roadnet::{GeneratorConfig, HubLabels, NetworkKind, RoadNetError};
    ///
    /// let graph = GeneratorConfig {
    ///     kind: NetworkKind::Grid { rows: 4, cols: 4 },
    ///     ..GeneratorConfig::default()
    /// }
    /// .generate();
    /// let path = std::env::temp_dir().join("hub_labels_doctest_corrupt.hlbl");
    /// std::fs::write(&path, b"not a label file").unwrap();
    /// assert!(matches!(
    ///     HubLabels::load(&path, &graph),
    ///     Err(RoadNetError::Persist(_))
    /// ));
    /// std::fs::remove_file(&path).ok();
    /// ```
    pub fn load<P: AsRef<Path>>(path: P, graph: &RoadNetwork) -> Result<Self, RoadNetError> {
        persist::load(path.as_ref(), graph.fingerprint())
    }
}

impl ShortestPathEngine for HubLabels {
    fn distance(&self, s: NodeId, t: NodeId) -> Option<Weight> {
        HubLabels::distance(self, s, t)
    }

    /// [`HubLabels::path`] with its cost, which is the label merge's (the
    /// two distances to the best hub, exactly [`HubLabels::distance`]), not
    /// a re-sum along the path.
    fn path(&self, s: NodeId, t: NodeId) -> Option<(Weight, Vec<NodeId>)> {
        if s == t {
            return Some((0.0, vec![s]));
        }
        let (d, hub_rank) = best_common_hub(self.label(s), self.label(t))?;
        let mut path = Vec::new();
        self.walk_to_hub(s, hub_rank, &mut path)?;
        let joint = path.len();
        self.walk_to_hub(t, hub_rank, &mut path)?;
        path.pop(); // the hub again: it already ends the `s` half
        path[joint..].reverse();
        Some((d, path))
    }
}

/// Reusable pruned-Dijkstra scratch: tentative distances and tree parents,
/// reset via the touched list in O(search size) (parents need no reset:
/// one is written whenever a distance is), and the root's label spread
/// into a dense by-rank array so the pruning test is a linear scan of the
/// visited vertex's label with O(1) lookups.
struct SearchScratch {
    dist: Vec<Weight>,
    parent: Vec<NodeId>,
    touched: Vec<NodeId>,
    root_dist_by_rank: Vec<Weight>,
}

impl SearchScratch {
    fn new(n: usize) -> Self {
        SearchScratch {
            dist: vec![INFINITY; n],
            parent: vec![0; n],
            touched: Vec::new(),
            root_dist_by_rank: vec![INFINITY; n],
        }
    }
}

/// Spreads `label` into a dense array indexed by hub rank: `by_rank[r]`
/// becomes the labelled vertex's distance to the hub of rank `r`, so the
/// other side of a join on hub rank is one lookup per entry.
#[inline]
fn spread_label(by_rank: &mut [Weight], label: &[LabelEntry]) {
    for e in label {
        by_rank[e.hub_rank as usize] = e.dist;
    }
}

/// Undoes [`spread_label`] of the same `label` in O(label), not O(n): an
/// array that was all `INFINITY` before the spread is all `INFINITY` again.
#[inline]
fn unspread_label(by_rank: &mut [Weight], label: &[LabelEntry]) {
    for e in label {
        by_rank[e.hub_rank as usize] = INFINITY;
    }
}

/// True when the labels certify a root-to-vertex distance of at most
/// `d`, given the root's label spread into `root_dist_by_rank`.
#[inline]
fn certified(root_dist_by_rank: &[Weight], label_v: &[LabelEntry], d: Weight) -> bool {
    for e in label_v {
        if root_dist_by_rank[e.hub_rank as usize] + e.dist <= d {
            return true;
        }
    }
    false
}

/// One pruned Dijkstra from `root`, the vertex of `rank`, appending an
/// entry for that hub to the label of every vertex it settles and does not
/// prune. `labels` must hold every rank below `rank` and none above.
///
/// A vertex is settled once: distances only fall strictly and a pop never
/// precedes a cheaper one, so every heap entry but the one a vertex is
/// settled by is stale. Its own new entry is therefore never read by the
/// pruning test, which sees exactly the labels of the earlier ranks.
fn pruned_dijkstra(
    graph: &RoadNetwork,
    labels: &mut [Vec<LabelEntry>],
    rank: u32,
    root: NodeId,
    scratch: &mut SearchScratch,
) {
    let SearchScratch {
        dist,
        parent,
        touched,
        root_dist_by_rank,
    } = scratch;
    spread_label(root_dist_by_rank, &labels[root as usize]);
    let mut heap = BinaryHeap::new();
    dist[root as usize] = 0.0;
    parent[root as usize] = root;
    touched.push(root);
    heap.push(HeapEntry::new(0.0, root));
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        let d = cost.0;
        if d > dist[node as usize] {
            continue;
        }
        // Prune: if the earlier labels already certify a distance <= d
        // between root and node, this node (and everything reached through
        // it at larger cost) gains nothing from a new label.
        if certified(root_dist_by_rank, &labels[node as usize], d) {
            continue;
        }
        labels[node as usize].push(LabelEntry {
            hub_rank: rank,
            parent: parent[node as usize],
            dist: d,
        });
        for (v, w) in graph.neighbors(node) {
            let nd = d + w;
            if nd < dist[v as usize] {
                if dist[v as usize] == INFINITY {
                    touched.push(v);
                }
                dist[v as usize] = nd;
                parent[v as usize] = node;
                heap.push(HeapEntry::new(nd, v));
            }
        }
    }
    for &t in touched.iter() {
        dist[t as usize] = INFINITY;
    }
    touched.clear();
    // The root's label now ends in its own entry, whose rank was never
    // spread; clearing it is a no-op.
    unspread_label(root_dist_by_rank, &labels[root as usize]);
}

/// The entry for the hub at `hub_rank` in a rank-sorted label.
fn hub_entry(label: &[LabelEntry], hub_rank: u32) -> Option<&LabelEntry> {
    label
        .binary_search_by_key(&hub_rank, |e| e.hub_rank)
        .ok()
        .map(|i| &label[i])
}

/// The index of the entry for the hub at `hub_rank` in a rank-sorted label,
/// found by scanning outward from `hint` (clamped into the label): exactly
/// what a binary search returns, in as many steps as the entry lies from
/// the hint. Ranks in a label are unique, so there is one entry to find.
fn hub_index_near(label: &[LabelEntry], hub_rank: u32, hint: usize) -> Option<usize> {
    let mut i = hint.min(label.len().checked_sub(1)?);
    if label[i].hub_rank < hub_rank {
        while label.get(i + 1).is_some_and(|e| e.hub_rank <= hub_rank) {
            i += 1;
        }
    } else {
        while i > 0 && label[i - 1].hub_rank >= hub_rank {
            i -= 1;
        }
    }
    (label[i].hub_rank == hub_rank).then_some(i)
}

/// Merge-intersects two rank-sorted labels, calling `on_common(rank, d)`
/// in rank order for every hub both carry, `d` the combined distance
/// through it. Inlined into each caller, so the distance query pays
/// nothing for the path query's wish to know *which* hub is best.
#[inline(always)]
fn for_each_common_hub(a: &[LabelEntry], b: &[LabelEntry], mut on_common: impl FnMut(u32, Weight)) {
    let mut i = 0;
    let mut j = 0;
    while i < a.len() && j < b.len() {
        match a[i].hub_rank.cmp(&b[j].hub_rank) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                on_common(a[i].hub_rank, a[i].dist + b[j].dist);
                i += 1;
                j += 1;
            }
        }
    }
}

/// The minimum combined distance over the hubs two labels share;
/// `INFINITY` when they share none.
fn query_labels(a: &[LabelEntry], b: &[LabelEntry]) -> Weight {
    let mut best = INFINITY;
    for_each_common_hub(a, b, |_, d| {
        if d < best {
            best = d;
        }
    });
    best
}

/// [`query_labels`] with the rank of the (lowest-ranked) hub that attains
/// the minimum; `None` when the labels share no hub.
fn best_common_hub(a: &[LabelEntry], b: &[LabelEntry]) -> Option<(Weight, u32)> {
    let mut best = (INFINITY, 0);
    for_each_common_hub(a, b, |rank, d| {
        if d < best.0 {
            best = (d, rank);
        }
    });
    (best.0 != INFINITY).then_some(best)
}

/// [`query_labels`] with one side already spread by rank: the same sums
/// (two `f64`s add to the same bits in either order) and the minimum over
/// the same set — a hub the spread side lacks reads `INFINITY`, which never
/// beats `best` — so the result is bit-identical to the merge's, without
/// the merge's unpredictable three-way branch per step.
#[inline]
fn scan_spread(by_rank: &[Weight], label: &[LabelEntry]) -> Weight {
    let mut best = INFINITY;
    for e in label {
        let d = by_rank[e.hub_rank as usize] + e.dist;
        if d < best {
            best = d;
        }
    }
    best
}

/// Slots of a [`Spread`]. Chosen from counts, not tuned: over one
/// `replay_dense` pass, two slots refilled together re-spread on 39 % of
/// queries (a request's pickup and drop-off evict each other), three
/// slots on 3.1 %, four on 3.0 %, eight on 2.8 %. Four is the smallest
/// count at which a request's two endpoints outlive one unrelated pair.
const SPREAD_SLOTS: usize = 4;

/// One vertex's label spread by hub rank.
struct Slot {
    vertex: Option<NodeId>,
    /// `INFINITY` everywhere but at the ranks of `vertex`'s label.
    by_rank: Vec<Weight>,
}

impl Slot {
    /// Replaces the spread label with `v`'s. The old one is un-spread by
    /// re-reading its label rather than from a list of the ranks written:
    /// labels never change once built and a [`Spread`] only ever sees one
    /// `HubLabels`, so those *are* the ranks written. A panic part-way (a
    /// rank past the array, in labels this module did not validate)
    /// unwinds out of the oracle that owns the scratch, which is not
    /// `RefUnwindSafe` and so is not queried again.
    fn respread(&mut self, labels: &HubLabels, v: NodeId) {
        if let Some(old) = self.vertex.replace(v) {
            unspread_label(&mut self.by_rank, labels.label(old));
        }
        spread_label(&mut self.by_rank, labels.label(v));
    }
}

/// Query-time counterpart of [`SearchScratch::root_dist_by_rank`]: the
/// labels of the last few query endpoints, kept spread between queries. A
/// dispatcher asks for hundreds of distances from the same pickup and
/// drop-off in a row; with either endpoint already spread, a query is one
/// pass over the *other* endpoint's label ([`scan_spread`]).
///
/// Allocates on the first query (`SPREAD_SLOTS × 8 B ×` the vertex count).
#[derive(Default)]
pub(crate) struct Spread {
    /// Most recently used first.
    slots: Vec<Slot>,
}

impl Spread {
    /// [`HubLabels::distance`] of `s != t`, bit for bit, with `INFINITY`
    /// for a disconnected pair. `labels` must be the same on every call.
    pub(crate) fn distance(&mut self, labels: &HubLabels, s: NodeId, t: NodeId) -> Weight {
        debug_assert_ne!(s, t, "the oracle answers s == t itself");
        if self.slots.is_empty() {
            self.slots = (0..SPREAD_SLOTS)
                .map(|_| Slot {
                    vertex: None,
                    by_rank: vec![INFINITY; labels.node_count()],
                })
                .collect();
        }
        let stale = claim_slots(&mut self.slots, s, t);
        for (slot, v) in self.slots[..stale].iter_mut().zip([s, t]) {
            slot.respread(labels, v);
        }
        let front = &self.slots[0];
        let other = if front.vertex == Some(s) { t } else { s };
        scan_spread(&front.by_rank, labels.label(other))
    }
}

/// The slot policy: brings the slot that will answer `{s, t}` to the front
/// and returns how many front slots must first be refilled, with `s` then
/// `t`. A slot holding either endpoint answers as it is (0). Otherwise the
/// two least recently used are refilled with *both* endpoints (2): one
/// query cannot tell which endpoint the next will repeat, and with both
/// spread it need not — refilling one means guessing, and a wrong guess
/// re-spreads on every other query for as long as the request lasts.
fn claim_slots(slots: &mut [Slot], s: NodeId, t: NodeId) -> usize {
    let holds = |slot: &Slot| slot.vertex == Some(s) || slot.vertex == Some(t);
    match slots.iter().position(holds) {
        Some(i) => {
            slots[..=i].rotate_right(1);
            0
        }
        None => {
            slots.rotate_right(2);
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::DijkstraEngine;
    use crate::generators::{GeneratorConfig, NetworkKind};
    use crate::graph::GraphBuilder;
    use crate::oracle::{CachedOracle, DistanceOracle};
    use crate::types::Point;

    #[test]
    fn single_edge() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(5.0, 0.0));
        b.add_edge(0, 1, 5.0);
        let g = b.build();
        let hl = HubLabels::build(&g);
        assert_eq!(hl.distance(0, 1), Some(5.0));
        assert_eq!(hl.distance(0, 0), Some(0.0));
    }

    #[test]
    fn disconnected_pair_is_none() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::default());
        b.add_node(Point::default());
        b.add_node(Point::default());
        b.add_edge(0, 1, 2.0);
        let g = b.build();
        let hl = HubLabels::build(&g);
        assert_eq!(hl.distance(0, 2), None);
        assert_eq!(hl.distance(2, 1), None);
        assert_eq!(hl.path(0, 2), None);
        assert_eq!(hl.path(2, 1), None);
        assert_eq!(hl.path(1, 0), Some(vec![1, 0]));
        assert_eq!(hl.path(2, 2), Some(vec![2]));
    }

    #[test]
    fn zero_weight_edges_build_and_still_route() {
        // Across a zero-weight edge the distance to a hub ties instead of
        // falling, so a walk may decline; the build must not mind, and the
        // oracle routes regardless.
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i as f64, 0.0));
        }
        b.add_edge(0, 1, 0.0);
        b.add_edge(1, 2, 3.0);
        b.add_edge(2, 3, 0.0);
        let g = b.build();
        let hl = HubLabels::build(&g);
        assert_eq!(hl.distance(0, 3), Some(3.0));
        assert!(hl.path(0, 3).is_none_or(|p| p == [0, 1, 2, 3]));
        let oracle = CachedOracle::with_labels(&g, hl, 10, 0);
        assert_eq!(oracle.shortest_path(0, 3), Some(vec![0, 1, 2, 3]));
        assert_eq!(oracle.shortest_path(3, 1), Some(vec![3, 2, 1]));
    }

    #[test]
    fn label_entry_is_sixteen_bytes() {
        // The next-hop pointer lives in what was padding between `hub_rank`
        // and `dist`. The benchmark's `roadnet.label_mb` (and the resident
        // set it accounts for) is entries x this size, so it must not grow.
        assert_eq!(std::mem::size_of::<LabelEntry>(), 16);
    }

    #[test]
    fn the_scan_from_a_hint_finds_what_the_binary_search_finds() {
        let label = |ranks: &[u32]| -> Vec<LabelEntry> {
            ranks
                .iter()
                .map(|&hub_rank| LabelEntry {
                    hub_rank,
                    parent: 0,
                    dist: 0.0,
                })
                .collect()
        };
        for ranks in [&[][..], &[7], &[2, 5, 9, 14, 20]] {
            let label = label(ranks);
            // Every rank present, absent between two, below every one and
            // above every one; every hint in range and past the end.
            for hub_rank in 0..=22 {
                let expect = label.binary_search_by_key(&hub_rank, |e| e.hub_rank).ok();
                for hint in 0..label.len() + 2 {
                    assert_eq!(
                        hub_index_near(&label, hub_rank, hint),
                        expect,
                        "rank {hub_rank} from hint {hint} in {ranks:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn unpacked_paths_equal_dijkstra_all_pairs() {
        let cfg = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 7, cols: 6 },
            seed: 9,
            edge_dropout: 0.1,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        let dij = DijkstraEngine::new(&g);
        let hl = HubLabels::build(&g);
        for s in 0..g.node_count() as NodeId {
            let tree = dij.search(s);
            for t in 0..g.node_count() as NodeId {
                assert_eq!(hl.path(s, t), tree.path_to(t), "{s}->{t}");
            }
        }
    }

    #[test]
    fn trait_path_reports_the_label_distance() {
        let cfg = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 5, cols: 5 },
            seed: 2,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        let hl = HubLabels::build(&g);
        let engine: &dyn ShortestPathEngine = &hl;
        let (d, p) = engine.path(0, 24).unwrap();
        assert_eq!(Some(d), hl.distance(0, 24));
        assert_eq!(Some(p), hl.path(0, 24));
        assert_eq!(engine.path(7, 7), Some((0.0, vec![7])));
    }

    #[test]
    fn broken_chains_end_in_none_not_a_panic_or_a_loop() {
        let cfg = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 6, cols: 6 },
            seed: 3,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        let hl = HubLabels::build(&g);
        let n = g.node_count() as NodeId;
        // An entry (v -> hub via p) two or more hops from its hub — the
        // least important such hub, which pruning keeps out of most labels.
        let (v, entry) = (0..n)
            .flat_map(|v| hl.label(v).iter().map(move |e| (v, *e)))
            .filter(|&(v, e)| e.parent != v && e.parent != hl.hub_node(e.hub_rank))
            .max_by_key(|&(_, e)| e.hub_rank)
            .expect("some label entry is two hops from its hub");
        let slot = |labels: &HubLabels, v: NodeId, hub_rank: u32| {
            let at = labels
                .label(v)
                .binary_search_by_key(&hub_rank, |e| e.hub_rank);
            labels.label_offsets[v as usize] + at.expect("entry present")
        };
        let walk = |labels: &HubLabels| labels.walk_to_hub(v, entry.hub_rank, &mut Vec::new());
        assert!(walk(&hl).is_some());

        // A two-cycle: the parent points straight back.
        let mut cycle = hl.clone();
        let at = slot(&cycle, entry.parent, entry.hub_rank);
        cycle.entries[at].parent = v;
        assert_eq!(walk(&cycle), None);

        // A parent that does not know the hub at all.
        let stranger = (0..n)
            .find(|&u| hub_entry(hl.label(u), entry.hub_rank).is_none())
            .expect("pruning leaves some vertex without this hub");
        let mut dangling = hl.clone();
        let at = slot(&dangling, v, entry.hub_rank);
        dangling.entries[at].parent = stranger;
        assert_eq!(walk(&dangling), None);

        // No progress anywhere: every entry points at its own vertex. Every
        // query declines, and an oracle over these labels still routes,
        // because Dijkstra answers what the labels do not.
        let mut stuck = hl.clone();
        for u in 0..n as usize {
            for e in &mut stuck.entries[hl.label_offsets[u]..hl.label_offsets[u + 1]] {
                e.parent = u as NodeId;
            }
        }
        for (s, t) in (0..n).map(|i| (i, (i * 7 + 1) % n)).filter(|(s, t)| s != t) {
            assert_eq!(stuck.path(s, t), None, "{s}->{t}");
        }
        let oracle = CachedOracle::with_labels(&g, stuck, 100, 0);
        let dij = DijkstraEngine::new(&g);
        assert_eq!(
            oracle.shortest_path(0, n - 1),
            dij.path(0, n - 1).map(|(_, p)| p)
        );
    }

    #[test]
    fn exact_on_grid_all_pairs() {
        let cfg = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 7, cols: 6 },
            seed: 9,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        let hl = HubLabels::build(&g);
        let dij = DijkstraEngine::new(&g);
        for s in 0..g.node_count() as NodeId {
            let tree = dij.search(s);
            for t in 0..g.node_count() as NodeId {
                let expect = tree.distance_to(t);
                let got = hl.distance(s, t);
                match (expect, got) {
                    (Some(a), Some(b)) => assert_eq!(a, b, "{s}->{t}"),
                    (None, None) => {}
                    _ => panic!("reachability mismatch {s}->{t}"),
                }
            }
        }
    }

    /// Pruned labeling is exact under any vertex order, not only the
    /// contraction order: descending degree (ties by id) and plain id order.
    #[test]
    fn exact_with_legacy_orderings() {
        let cfg = GeneratorConfig {
            kind: NetworkKind::RingRadial {
                rings: 4,
                spokes: 9,
            },
            seed: 17,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        let dij = DijkstraEngine::new(&g);
        let n = g.node_count() as NodeId;
        let by_id: Vec<NodeId> = (0..n).collect();
        let mut by_degree = by_id.clone();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        for order in [by_degree, by_id] {
            let hl = HubLabels::build_in_order(&g, order);
            for (s, t) in (0..40).map(|i| ((i * 7) % n, (i * 31 + 3) % n)) {
                let expect = dij.distance(s, t);
                let got = hl.distance(s, t);
                match (expect, got) {
                    (Some(a), Some(b)) => assert_eq!(a, b),
                    (None, None) => {}
                    _ => panic!("reachability mismatch {s}->{t}"),
                }
            }
        }
    }

    #[test]
    fn labels_are_rank_sorted_and_nonempty() {
        let cfg = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 5, cols: 5 },
            seed: 1,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        let hl = HubLabels::build(&g);
        assert!(hl.total_label_entries() >= g.node_count());
        assert!(hl.mean_label_size() >= 1.0);
        for v in 0..g.node_count() as NodeId {
            let l = hl.label(v);
            assert!(!l.is_empty());
            assert!(l.windows(2).all(|w| w[0].hub_rank < w[1].hub_rank));
        }
        // The top-ranked hub labels itself at distance zero.
        let top = hl.hub_node(0);
        assert!(hl
            .label(top)
            .iter()
            .any(|e| e.hub_rank == 0 && e.dist == 0.0));
    }

    #[test]
    fn pruning_keeps_labels_smaller_than_full_landmarks() {
        // With pruning, total entries must be well below n^2 even on a dense
        // small grid.
        let cfg = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 8, cols: 8 },
            seed: 2,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        let hl = HubLabels::build(&g);
        let n = g.node_count();
        assert!(hl.total_label_entries() < n * n / 2);
    }

    /// FNV-1a over every entry's hub rank, next hop and distance bits, in
    /// arena order.
    fn entry_digest(hl: &HubLabels) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for e in &hl.entries {
            let bytes = e.hub_rank.to_le_bytes().into_iter();
            let bytes = bytes.chain(e.parent.to_le_bytes());
            for b in bytes.chain(e.dist.to_bits().to_le_bytes()) {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// The 16x16, seed 4, 5 % dropout grid both tests below build on.
    fn pinned_grid_labels() -> HubLabels {
        let cfg = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 16, cols: 16 },
            seed: 4,
            edge_dropout: 0.05,
            ..GeneratorConfig::default()
        };
        HubLabels::build(&cfg.generate())
    }

    /// The labels of one fixed grid, pinned as data. Label files are keyed
    /// by network fingerprint alone (`rideshare_bench::store`), so a change
    /// to the ordering or the pruning that moved any entry would leave
    /// cached files disagreeing with fresh builds: it must fail here.
    #[test]
    fn labels_of_a_fixed_grid_are_pinned() {
        let hl = pinned_grid_labels();
        assert_eq!(hl.total_label_entries(), 5_447);
        assert_eq!(entry_digest(&hl), 0x35da_63f4_1583_9eb9);
    }

    /// The bound is the mean label the sampled-betweenness ordering
    /// (16 samples) built on the same grid, pinned as data.
    #[test]
    fn contraction_ordering_beats_betweenness_on_label_size() {
        const SAMPLED_BETWEENNESS_MEAN_LABEL: f64 = 25.968_75;
        let hl = pinned_grid_labels();
        assert!(
            hl.mean_label_size() <= SAMPLED_BETWEENNESS_MEAN_LABEL,
            "mean label {} exceeds the betweenness ordering's {SAMPLED_BETWEENNESS_MEAN_LABEL}",
            hl.mean_label_size()
        );
    }

    /// How many labels `claim_slots` orders spread over a query sequence,
    /// with the slots filled the way `Spread::distance` fills them.
    fn respreads(queries: impl IntoIterator<Item = (NodeId, NodeId)>) -> usize {
        let mut slots: Vec<Slot> = (0..SPREAD_SLOTS)
            .map(|_| Slot {
                vertex: None,
                by_rank: Vec::new(),
            })
            .collect();
        let mut total = 0;
        for (s, t) in queries {
            let stale = claim_slots(&mut slots, s, t);
            for (slot, v) in slots[..stale].iter_mut().zip([s, t]) {
                slot.vertex = Some(v);
            }
            total += stale;
        }
        total
    }

    /// What one request asks of the oracle: its own trip, then vehicle
    /// positions and tree stops against its pickup and its drop-off in
    /// turn, the shared endpoint on either side.
    fn request_shaped(p: NodeId, d: NodeId, probes: u32) -> impl Iterator<Item = (NodeId, NodeId)> {
        let others = (0..probes).map(|i| 1_000 + i);
        std::iter::once((p, d)).chain(others.map(move |x| if x % 2 == 0 { (x, p) } else { (d, x) }))
    }

    #[test]
    fn a_request_respreads_a_constant_number_of_labels_however_long_it_runs() {
        // Pickup and drop-off, once each. A policy under which the two
        // evict each other (two slots, both refilled on a double miss)
        // grows linearly here instead.
        for probes in [2, 40, 10_000] {
            assert_eq!(
                respreads(request_shaped(7, 3, probes)),
                2,
                "{probes} probes"
            );
            // Its own trip never asked: each endpoint arrives with a probe.
            let probes_only = request_shaped(7, 3, probes).skip(1);
            assert_eq!(respreads(probes_only), 4, "{probes} probes");
        }
        // An unrelated pair in the middle (a hop of some vehicle's route)
        // costs its own two labels and evicts neither endpoint ...
        let interrupted = request_shaped(7, 3, 500)
            .chain([(600, 601)])
            .chain(request_shaped(7, 3, 500).skip(1));
        assert_eq!(respreads(interrupted), 4);
        // ... and every further request costs its own two, no more.
        let day = (0..50u32).flat_map(|r| request_shaped(2 * r, 2 * r + 1, 400));
        assert_eq!(respreads(day), 100);
    }

    #[test]
    fn spread_scratch_agrees_with_the_merge_and_unspreads_to_all_infinity() {
        let cfg = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 8, cols: 7 },
            seed: 12,
            edge_dropout: 0.1,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        let hl = HubLabels::build(&g);
        let n = g.node_count() as NodeId;
        let mut spread = Spread::default();
        // Request-shaped runs and pairs that never repeat, so slots are
        // hit, aged out and refilled many times over.
        let queries = (0..6)
            .flat_map(|r| request_shaped(r * 5 % n, (r * 11 + 2) % n, 30))
            .map(|(s, t)| (s % n, t % n))
            .chain((0..200).map(|i| (i * 5 % n, (i * 17 + 3) % n)))
            .filter(|(s, t)| s != t);
        for (s, t) in queries {
            let merged = hl.distance(s, t).unwrap_or(INFINITY);
            assert_eq!(
                spread.distance(&hl, s, t).to_bits(),
                merged.to_bits(),
                "({s}, {t})"
            );
            // Every slot is exactly its vertex's label, spread: taking
            // that label back out leaves nothing behind.
            for slot in &spread.slots {
                let mut by_rank = slot.by_rank.clone();
                assert_eq!(by_rank.len(), hl.node_count());
                if let Some(v) = slot.vertex {
                    assert!(hl
                        .label(v)
                        .iter()
                        .all(|e| by_rank[e.hub_rank as usize] == e.dist));
                    unspread_label(&mut by_rank, hl.label(v));
                }
                assert!(by_rank.iter().all(|&d| d == INFINITY), "after ({s}, {t})");
            }
        }
    }

    #[test]
    fn spread_scan_finds_a_lone_common_hub_at_either_end_of_a_label() {
        // Hand-built: vertices 0 and 1 share only the hub of rank 5, the
        // last entry of one label and the first of the other; vertex 2
        // shares a hub with nobody.
        let entry = |hub_rank, dist| LabelEntry {
            hub_rank,
            parent: 0,
            dist,
        };
        let mut labels = vec![Vec::new(); 8];
        labels[0] = vec![entry(0, 1.0), entry(1, 2.0), entry(5, 3.5)];
        labels[1] = vec![entry(5, 1.25), entry(6, 1.0), entry(7, 2.0)];
        labels[2] = vec![entry(2, 0.0)];
        let hl = HubLabels::from_per_vertex(labels, (0..8).collect());
        assert_eq!(hl.distance(0, 1), Some(4.75));
        assert_eq!(hl.distance(0, 2), None);
        // Cold, the first endpoint named is the one spread; warm, whichever
        // a slot already holds — so both labels get scanned and spread.
        let mut spread = Spread::default();
        assert!(spread.slots.is_empty(), "nothing allocated before a query");
        for (s, t) in [(0, 1), (1, 0), (2, 0), (1, 2), (1, 0), (0, 1)] {
            let expect = if s == 2 || t == 2 { INFINITY } else { 4.75 };
            assert_eq!(spread.distance(&hl, s, t), expect, "({s}, {t})");
            assert_eq!(
                Spread::default().distance(&hl, s, t),
                expect,
                "cold ({s}, {t})"
            );
        }
    }

    #[test]
    fn csr_layout_matches_labels() {
        let cfg = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 6, cols: 6 },
            seed: 3,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        let hl = HubLabels::build(&g);
        assert_eq!(hl.node_count(), g.node_count());
        let summed: usize = (0..g.node_count() as NodeId)
            .map(|v| hl.label(v).len())
            .sum();
        assert_eq!(summed, hl.total_label_entries());
    }
}
