//! Distance/path oracle abstractions used by the scheduling algorithms.
//!
//! The matching algorithms (brute force, branch-and-bound, MIP and the
//! kinetic tree) only need two primitives from the road network: the exact
//! shortest distance between two vertices and, occasionally, the actual
//! shortest path (for driving the vehicle). [`DistanceOracle`] is that
//! interface. [`CachedOracle`] is the production implementation, and the
//! only one the engine runs on: hub labels behind one distance cache, a
//! 4-way set-associative [`LruCache`].
//! The labels answer a distance miss by scanning one endpoint's label
//! against the other's, which stays spread by hub rank from the queries
//! before (a request's misses share its pickup or drop-off), and every path
//! query by unpacking their next-hop pointers. Dijkstra answers only radius
//! searches and the paths the labels decline. Distances are cached once per
//! unordered pair; paths are not cached. [`MatrixOracle`] pre-computes all
//! pairs (Floyd–Warshall) and is the label-free reference of tests and tiny
//! scheduling instances.

use std::cell::RefCell;

use crate::cache::LruCache;
use crate::dijkstra::{floyd_warshall, DijkstraEngine};
use crate::graph::RoadNetwork;
use crate::hub_label::{HubLabels, Spread};
use crate::types::{NodeId, Weight};

/// Point-to-point shortest path computation.
///
/// Implemented by both engines in this crate: [`crate::DijkstraEngine`], the
/// reference, and [`HubLabels`], the oracle.
pub trait ShortestPathEngine {
    /// Exact shortest-path distance, or `None` when `t` is unreachable.
    fn distance(&self, s: NodeId, t: NodeId) -> Option<Weight>;
    /// Exact shortest path (cost and vertex sequence), or `None` when
    /// unreachable.
    fn path(&self, s: NodeId, t: NodeId) -> Option<(Weight, Vec<NodeId>)>;
}

/// The distance/path interface the scheduling layer consumes.
///
/// Implementations take `&self` so a single oracle can be shared by many
/// vehicles; caching implementations use interior mutability.
///
/// # Thread safety
///
/// The trait does not require [`Sync`], and the simulator is
/// single-threaded: [`CachedOracle`] keeps its caches and label scratch
/// behind `RefCell`, so a query takes no lock. [`MatrixOracle`] is
/// immutable after construction and therefore `Sync`. Every
/// implementation must return identical distances/paths for identical
/// arguments regardless of cache state, so swapping oracle implementations
/// never changes matching decisions.
///
/// # Metric contract
///
/// `dist` is a metric, and the scheduling layer prunes on that without a
/// tolerance: it is the exact shortest-path distance (not an estimate),
/// symmetric (`dist(s, t) == dist(t, s)`), and obeys the triangle
/// inequality (`dist(s, t) <= dist(s, u) + dist(u, t)`) bit for bit. Edges
/// are undirected and every weight lies on the [`crate::Q`] grid, so sums
/// of weights are exact and both hold for the shortest-path distance.
/// The dispatcher's road-distance screen and the kinetic tree's late cut
/// (a new stop late at a node is late below it) are exact only under it.
pub trait DistanceOracle {
    /// Shortest distance from `s` to `t`; `INFINITY` when unreachable.
    fn dist(&self, s: NodeId, t: NodeId) -> Weight;

    /// Shortest path from `s` to `t`, inclusive of both endpoints.
    fn shortest_path(&self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>>;

    /// Number of vertices in the underlying network.
    fn node_count(&self) -> usize;

    /// All nodes within `radius` of `s` with their distances (used by the
    /// dispatcher to find candidate pickup vertices). The default
    /// implementation probes every vertex and is only acceptable for tiny
    /// networks; real oracles override it.
    fn nodes_within(&self, s: NodeId, radius: Weight) -> Vec<(NodeId, Weight)> {
        let mut out = Vec::new();
        for t in 0..self.node_count() as NodeId {
            let d = self.dist(s, t);
            if d <= radius {
                out.push((t, d));
            }
        }
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        out
    }
}

/// Counters describing how a [`CachedOracle`] answered its queries: the
/// one place a query is counted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OracleStats {
    /// Distance queries answered from the distance cache.
    pub distance_cache_hits: u64,
    /// Distance queries that had to consult the underlying engine.
    pub distance_cache_misses: u64,
    /// Always 0: paths are not cached. Kept only because the frozen
    /// `benchmark/` crate reads it.
    pub path_cache_hits: u64,
    /// Total distance queries issued.
    pub distance_queries: u64,
    /// Total path queries issued.
    pub path_queries: u64,
}

impl OracleStats {
    /// Distance-cache hit rate in `[0, 1]`.
    pub fn distance_hit_rate(&self) -> f64 {
        if self.distance_queries == 0 {
            0.0
        } else {
            self.distance_cache_hits as f64 / self.distance_queries as f64
        }
    }
}

/// The unordered pair `{s, t}` as `(low id, high id)`: the direction every
/// distance is computed in and the one key it is cached under.
fn ordered(s: NodeId, t: NodeId) -> (NodeId, NodeId) {
    if s <= t {
        (s, t)
    } else {
        (t, s)
    }
}

/// Production oracle: hub labels behind one distance cache ([`LruCache`],
/// LRU within 4-way sets). Sequential by design — the cache, counters and
/// the label scratch sit behind `RefCell`, so a query takes no lock.
pub struct CachedOracle<'g> {
    graph: &'g RoadNetwork,
    labels: HubLabels,
    /// Radius searches, and the paths the labels decline: disconnected
    /// pairs and chains broken by a zero-weight edge.
    dijkstra: DijkstraEngine<'g>,
    /// Labels of recent query endpoints, spread by hub rank: changes how
    /// fast a distance miss is found, never which distance.
    spread: RefCell<Spread>,
    /// Distances keyed by [`CachedOracle::key`].
    distances: RefCell<LruCache<Weight>>,
    stats: RefCell<OracleStats>,
}

impl<'g> CachedOracle<'g> {
    /// Builds the hub labels of `graph` and an oracle around them with the
    /// default cache size.
    pub fn new(graph: &'g RoadNetwork) -> Self {
        Self::with_labels(graph, HubLabels::build(graph), 1_000_000, 0)
    }

    /// Builds an oracle around pre-built hub labels — typically loaded from
    /// disk with [`HubLabels::load`] so a paper-scale construction is paid
    /// once, not on every process start. `distance_cache` is the distance
    /// cache's capacity (0 disables it).
    ///
    /// `_path_cache` is ignored: paths are not cached. It is kept only
    /// because the frozen `benchmark/` crate passes it.
    ///
    /// # Panics
    /// Panics when the labels cover a different number of vertices than
    /// `graph` has (a mismatched file would silently corrupt distances).
    pub fn with_labels(
        graph: &'g RoadNetwork,
        labels: HubLabels,
        distance_cache: usize,
        _path_cache: usize,
    ) -> Self {
        assert_eq!(
            labels.node_count(),
            graph.node_count(),
            "hub labels cover {} vertices but the network has {}",
            labels.node_count(),
            graph.node_count()
        );
        CachedOracle {
            graph,
            labels,
            dijkstra: DijkstraEngine::new(graph),
            spread: RefCell::default(),
            distances: RefCell::new(LruCache::new(distance_cache)),
            stats: RefCell::new(OracleStats::default()),
        }
    }

    /// The underlying road network.
    pub fn graph(&self) -> &RoadNetwork {
        self.graph
    }

    /// Snapshot of the query counters.
    pub fn stats(&self) -> OracleStats {
        *self.stats.borrow()
    }

    /// Resets the query counters (cache contents are kept).
    pub fn reset_stats(&self) {
        *self.stats.borrow_mut() = OracleStats::default();
    }

    /// Empties the distance cache (hub labels are kept). Benchmark
    /// harnesses call this between measurement points so that every
    /// algorithm starts from the same cold-cache state.
    pub fn clear_caches(&self) {
        self.distances.borrow_mut().clear();
    }

    /// The paper's cache key `id(s) · |V| + id(e)`, taken over the pair
    /// in [`ordered`] form so that both directions share one entry.
    fn key(&self, s: NodeId, t: NodeId) -> u64 {
        let (s, e) = ordered(s, t);
        s as u64 * self.graph.node_count() as u64 + e as u64
    }

    /// Computes the exact distance of the pair `s < t`, always in the
    /// low-id → high-id direction. Edge weights lie on the
    /// [`Q`](crate::Q) grid, so sums are exact and a run from `t` gives the
    /// same bits as one from `s`; computing one direction is what lets one
    /// cache entry serve both (the contract checkpointed replays rely on: a
    /// resumed run's cold caches must reproduce the warm-cache run bit for
    /// bit).
    ///
    /// The pair is answered by scanning one endpoint's label against the
    /// other's, kept spread by hub rank from earlier queries ([`Spread`]): a
    /// dispatcher's misses come in runs that share the new request's pickup
    /// or drop-off. The scan returns the bits of [`HubLabels::distance`],
    /// the merge of the two labels.
    fn compute_distance(&self, s: NodeId, t: NodeId) -> Weight {
        self.spread.borrow_mut().distance(&self.labels, s, t)
    }
}

impl DistanceOracle for CachedOracle<'_> {
    fn dist(&self, s: NodeId, t: NodeId) -> Weight {
        if s == t {
            return 0.0;
        }
        // The value is canonical per unordered pair, so one entry serves
        // both directions: a reverse lookup hits, and a pair takes one of
        // the cache's slots and one insertion, not two.
        let key = self.key(s, t);
        let mut stats = self.stats.borrow_mut();
        stats.distance_queries += 1;
        let mut distances = self.distances.borrow_mut();
        if let Some(&d) = distances.get(key) {
            stats.distance_cache_hits += 1;
            return d;
        }
        stats.distance_cache_misses += 1;
        let (s, t) = ordered(s, t);
        let d = self.compute_distance(s, t);
        distances.put(key, d);
        d
    }

    /// Unpacked from the labels, or by Dijkstra whenever the labels answer
    /// `None`, which leaves it to Dijkstra to say whether the pair is really
    /// disconnected. Never cached. Its edge weights sum to `dist(s, t)` bit
    /// for bit: both are exact sums on the [`Q`](crate::Q) grid.
    fn shortest_path(&self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        if s == t {
            return Some(vec![s]);
        }
        self.stats.borrow_mut().path_queries += 1;
        self.labels
            .path(s, t)
            .or_else(|| self.dijkstra.path(s, t).map(|(_, p)| p))
    }

    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn nodes_within(&self, s: NodeId, radius: Weight) -> Vec<(NodeId, Weight)> {
        self.dijkstra.nodes_within(s, radius)
    }
}

/// All-pairs oracle backed by a dense matrix (Floyd–Warshall).
///
/// Memory is `O(V^2)`; only use for networks of at most a few thousand
/// vertices (tests, examples and micro-benchmarks of the matchers).
#[derive(Debug, Clone)]
pub struct MatrixOracle {
    dist: Vec<Vec<Weight>>,
    graph: RoadNetwork,
}

impl MatrixOracle {
    /// Precomputes all pairwise distances of `graph`.
    pub fn new(graph: &RoadNetwork) -> Self {
        MatrixOracle {
            dist: floyd_warshall(graph),
            graph: graph.clone(),
        }
    }

    /// The underlying road network (cloned at construction).
    pub fn graph(&self) -> &RoadNetwork {
        &self.graph
    }
}

impl DistanceOracle for MatrixOracle {
    fn dist(&self, s: NodeId, t: NodeId) -> Weight {
        self.dist[s as usize][t as usize]
    }

    fn shortest_path(&self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        DijkstraEngine::new(&self.graph).path(s, t).map(|(_, p)| p)
    }

    fn node_count(&self) -> usize {
        self.graph.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GeneratorConfig, NetworkKind};
    use crate::types::INFINITY;

    fn grid(rows: usize, cols: usize, seed: u64) -> RoadNetwork {
        GeneratorConfig {
            kind: NetworkKind::Grid { rows, cols },
            seed,
            ..GeneratorConfig::default()
        }
        .generate()
    }

    #[test]
    fn cached_oracle_matches_dijkstra() {
        let g = grid(6, 6, 3);
        let oracle = CachedOracle::new(&g);
        let dij = DijkstraEngine::new(&g);
        let n = g.node_count() as NodeId;
        for (s, t) in (0..25).map(|i| ((i * 3) % n, (i * 11 + 1) % n)) {
            let expect = dij.distance(s, t).unwrap_or(INFINITY);
            assert_eq!(oracle.dist(s, t), expect);
        }
    }

    #[test]
    fn cached_oracle_counts_hits() {
        let g = grid(5, 5, 1);
        let oracle = CachedOracle::new(&g);
        let _ = oracle.dist(0, 10);
        let _ = oracle.dist(0, 10);
        let _ = oracle.dist(10, 0); // the pair's one entry: a hit from either side
        let stats = oracle.stats();
        assert_eq!(stats.distance_queries, 3);
        assert_eq!(stats.distance_cache_misses, 1);
        assert_eq!(stats.distance_cache_hits, 2);
        assert!(stats.distance_hit_rate() > 0.5);
        oracle.reset_stats();
        assert_eq!(oracle.stats().distance_queries, 0);
        // Asked high id -> low id first: still one miss, one entry, and a
        // hit from either direction after it.
        let d = oracle.dist(20, 3);
        assert_eq!(oracle.dist(3, 20).to_bits(), d.to_bits());
        assert_eq!(oracle.dist(20, 3).to_bits(), d.to_bits());
        let stats = oracle.stats();
        assert_eq!(stats.distance_queries, 3);
        assert_eq!(stats.distance_cache_misses, 1);
        assert_eq!(stats.distance_cache_hits, 2);
    }

    #[test]
    fn a_cleared_oracle_replays_a_query_sequence_exactly() {
        // The benchmark's per-pass reset: after `clear_caches` and
        // `reset_stats` the same queries count and answer as the first time.
        let g = grid(8, 8, 6);
        let n = g.node_count() as NodeId;
        let oracle = CachedOracle::with_labels(&g, HubLabels::build(&g), 64, 0);
        let run = || {
            let pairs = (0..400).map(|i| ((i * 7) % n, (i * 13 + 5) % n));
            let answers: Vec<u64> = pairs.map(|(s, t)| oracle.dist(s, t).to_bits()).collect();
            (answers, oracle.stats())
        };
        let first = run();
        assert!(first.1.distance_cache_hits > 0 && first.1.distance_cache_misses > 0);
        oracle.clear_caches();
        oracle.reset_stats();
        assert_eq!(run(), first);
    }

    #[test]
    fn distance_key_is_the_papers_on_the_ordered_pair() {
        let g = grid(5, 5, 0);
        let oracle = CachedOracle::new(&g);
        let n = g.node_count() as u64;
        assert_eq!(oracle.key(3, 7), 3 * n + 7);
        assert_eq!(oracle.key(7, 3), oracle.key(3, 7));
        assert_ne!(oracle.key(3, 8), oracle.key(3, 7));
    }

    /// Asks `oracle` for the path `s → t`, again, and reversed: a path is a
    /// pure function of the pair (unique shortest paths), and every ask is
    /// one counted path query.
    fn path_three_ways(oracle: &CachedOracle<'_>, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        let asked = oracle.stats().path_queries;
        let p = oracle.shortest_path(s, t);
        assert_eq!(oracle.shortest_path(s, t), p, "repeated ({s}, {t})");
        let back = oracle.shortest_path(t, s).map(|mut b| {
            b.reverse();
            b
        });
        assert_eq!(back, p, "reversed ({s}, {t})");
        assert_eq!(oracle.stats().path_queries, asked + 3, "({s}, {t})");
        p
    }

    #[test]
    fn cached_oracle_paths_are_valid() {
        let g = grid(5, 7, 2);
        let oracle = CachedOracle::new(&g);
        let t = (g.node_count() - 1) as NodeId;
        let p = path_three_ways(&oracle, 0, t).unwrap();
        assert_eq!(p[0], 0);
        assert_eq!(*p.last().unwrap(), t);
        let mut acc = 0.0;
        for w in p.windows(2) {
            acc += g.edge_weight(w[0], w[1]).unwrap();
        }
        assert_eq!(acc, oracle.dist(0, t));
    }

    #[test]
    fn label_backed_oracles_return_the_dijkstra_backed_paths() {
        // Jittered weights: shortest paths are unique, so unpacking the
        // labels must reproduce Dijkstra's paths exactly.
        let g = grid(12, 12, 8);
        let n = g.node_count() as NodeId;
        let cached = CachedOracle::new(&g);
        let dij = DijkstraEngine::new(&g);
        for (s, t) in (0..40).map(|i| ((i * 5) % n, (i * 17 + 3) % n)) {
            let expect = dij.path(s, t).map(|(_, p)| p);
            assert!(expect.is_some(), "grid is connected ({s}, {t})");
            assert_eq!(path_three_ways(&cached, s, t), expect, "({s}, {t})");
        }
    }

    #[test]
    fn dist_is_independent_of_cache_state_and_direction() {
        // Regression test for the replay-divergence bug: priming the
        // reverse direction with a forward-computed value, and priming
        // distances from path-query costs, made `dist` depend on which
        // queries ran before it (Dijkstra sums differ in the last ULP per
        // direction). Canonicalised computation makes every ordering of
        // warm-up queries produce bit-identical answers.
        let g = grid(7, 7, 5);
        let n = g.node_count() as NodeId;
        let pairs: Vec<(NodeId, NodeId)> =
            (0..60).map(|i| ((i * 5) % n, (i * 17 + 3) % n)).collect();
        let reference = CachedOracle::new(&g);
        let dij = DijkstraEngine::new(&g);
        for &(s, t) in &pairs {
            // Symmetry must hold bitwise on a cold oracle, and equal
            // Dijkstra's sum from either end.
            let d = reference.dist(s, t).to_bits();
            assert_eq!(reference.dist(t, s).to_bits(), d);
            assert_eq!(dij.distance(s, t).unwrap_or(INFINITY).to_bits(), d);
            assert_eq!(dij.distance(t, s).unwrap_or(INFINITY).to_bits(), d);
        }
        // Differently warmed oracles (paths in either direction first,
        // reverse distances first) must agree bit for bit.
        let warmed = CachedOracle::new(&g);
        for &(s, t) in &pairs {
            let _ = warmed.shortest_path(s, t);
            let _ = warmed.dist(t, s);
        }
        let reverse_paths = CachedOracle::new(&g);
        for &(s, t) in &pairs {
            let _ = reverse_paths.shortest_path(t, s);
        }
        for &(s, t) in &pairs {
            let expect = reference.dist(s, t).to_bits();
            assert_eq!(warmed.dist(s, t).to_bits(), expect, "({s}, {t})");
            assert_eq!(reverse_paths.dist(s, t).to_bits(), expect, "({s}, {t})");
        }
    }

    #[test]
    fn self_distance_and_path() {
        let g = grid(3, 3, 0);
        let oracle = CachedOracle::new(&g);
        assert_eq!(oracle.dist(4, 4), 0.0);
        assert_eq!(oracle.shortest_path(4, 4), Some(vec![4]));
    }

    #[test]
    fn matrix_oracle_matches_cached() {
        let g = grid(4, 5, 9);
        let m = MatrixOracle::new(&g);
        let c = CachedOracle::new(&g);
        let n = g.node_count() as NodeId;
        for s in 0..n {
            for t in 0..n {
                assert_eq!(m.dist(s, t), c.dist(s, t));
            }
        }
        assert_eq!(m.node_count(), g.node_count());
    }

    #[test]
    fn nodes_within_uses_radius() {
        let g = grid(6, 6, 4);
        let oracle = CachedOracle::new(&g);
        let all = oracle.nodes_within(0, f64::INFINITY);
        assert_eq!(all.len(), g.node_count());
        let some = oracle.nodes_within(0, 500.0);
        assert!(some.len() < all.len());
        for (node, d) in &some {
            assert!(*d <= 500.0, "node {node} at distance {d} beyond radius");
        }
    }
}
