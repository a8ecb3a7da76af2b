//! Distance/path oracle abstractions used by the scheduling algorithms.
//!
//! The matching algorithms (brute force, branch-and-bound, MIP and the
//! kinetic tree) only need two primitives from the road network: the exact
//! shortest distance between two vertices and, occasionally, the actual
//! shortest path (for driving the vehicle). [`DistanceOracle`] is that
//! interface. [`CachedOracle`] is the sequential production implementation:
//! the paper's two LRU caches in front of hub labels, which answer both
//! kinds of miss — a distance by scanning one endpoint's label against the
//! other's, which stays spread by hub rank from the queries before (a
//! request's misses share its pickup or drop-off), a path by unpacking the
//! labels' next-hop pointers (plain Dijkstra does both when labels are
//! disabled). Distances are cached once per unordered pair.
//! [`ShardedOracle`](crate::ShardedOracle) is its thread-safe
//! counterpart, for an engine that moves its fleet on several threads; the
//! two differ only in how they guard their caches and share one miss path.
//! [`MatrixOracle`] pre-computes all pairs and is used by tests and tiny
//! scheduling instances.

use std::cell::RefCell;
use std::sync::Mutex;

use crate::cache::SharedPathCaches;
use crate::dijkstra::{floyd_warshall, DijkstraEngine};
use crate::graph::RoadNetwork;
use crate::hub_label::{HubLabels, Spread};
use crate::types::{NodeId, Weight, INFINITY};

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
/// The trait itself does not require [`Sync`]: [`CachedOracle`] deliberately
/// uses `RefCell` so the dispatch loop, which is sequential, pays no
/// synchronisation cost on a cache hit (a label miss takes one uncontended
/// `try_lock`). The one concurrent reader is the movement phase of
/// `Simulation::advance_all` (`rideshare-sim`), which routes vehicles on
/// worker threads and so takes `&(dyn DistanceOracle + Sync)`;
/// implementations meant for it must make `&self` calls safe from
/// concurrent threads — [`ShardedOracle`](crate::ShardedOracle) does so
/// by splitting the LRU caches into independently mutex-guarded shards, and
/// [`MatrixOracle`] is immutable after construction and therefore trivially
/// `Sync`. Every implementation, concurrent or not, must return identical
/// distances/paths for identical arguments regardless of cache state, so
/// swapping oracle implementations never changes matching decisions.
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

/// Counters describing how a [`CachedOracle`] answered its queries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OracleStats {
    /// Distance queries answered from the LRU distance cache.
    pub distance_cache_hits: u64,
    /// Distance queries that had to consult the underlying engine.
    pub distance_cache_misses: u64,
    /// Path queries answered from the LRU path cache.
    pub path_cache_hits: u64,
    /// Path queries that had to consult the underlying engine.
    pub path_cache_misses: u64,
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

/// Which engine a [`CachedOracle`] uses on a cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleBackend {
    /// Pruned-landmark hub labels for distances and for paths (unpacked
    /// along the labels' next-hop pointers). Dijkstra only answers radius
    /// searches, and the path queries the labels decline: disconnected
    /// pairs and chains broken by a zero-weight edge.
    HubLabels,
    /// Plain Dijkstra for everything (no preprocessing cost; slower queries).
    Dijkstra,
}

/// The unordered pair `{s, t}` as `(low id, high id)`: the direction every
/// distance is computed in and the one key it is cached under.
pub(crate) fn ordered(s: NodeId, t: NodeId) -> (NodeId, NodeId) {
    if s <= t {
        (s, t)
    } else {
        (t, s)
    }
}

/// What a caching oracle computes when its caches miss: hub labels when the
/// backend has them, Dijkstra otherwise. [`CachedOracle`] and
/// [`ShardedOracle`](crate::ShardedOracle) each own one and differ only in
/// how they guard the caches in front of it. Graph, labels and Dijkstra
/// are immutable after construction; the one thing a query writes is
/// `spread`, a scratch that changes how fast a distance is found and never
/// which — so one `Uncached` is shared freely across threads.
pub(crate) struct Uncached<'g> {
    graph: &'g RoadNetwork,
    labels: Option<HubLabels>,
    dijkstra: DijkstraEngine<'g>,
    /// Labels of recent query endpoints, spread by hub rank. Only ever
    /// `try_lock`ed, and never while the caller holds another lock.
    spread: Mutex<Spread>,
}

impl<'g> Uncached<'g> {
    /// Builds the labels `backend` asks for.
    pub(crate) fn new(graph: &'g RoadNetwork, backend: OracleBackend) -> Self {
        let labels = match backend {
            OracleBackend::HubLabels => Some(HubLabels::build(graph)),
            OracleBackend::Dijkstra => None,
        };
        Self::from_parts(graph, labels)
    }

    /// Adopts pre-built labels, refusing ones that cover a different number
    /// of vertices than `graph` has.
    pub(crate) fn with_labels(graph: &'g RoadNetwork, labels: HubLabels) -> Self {
        assert_eq!(
            labels.node_count(),
            graph.node_count(),
            "hub labels cover {} vertices but the network has {}",
            labels.node_count(),
            graph.node_count()
        );
        Self::from_parts(graph, Some(labels))
    }

    fn from_parts(graph: &'g RoadNetwork, labels: Option<HubLabels>) -> Self {
        Uncached {
            graph,
            labels,
            dijkstra: DijkstraEngine::new(graph),
            spread: Mutex::default(),
        }
    }

    pub(crate) fn graph(&self) -> &'g RoadNetwork {
        self.graph
    }

    pub(crate) fn labels(&self) -> Option<&HubLabels> {
        self.labels.as_ref()
    }

    /// Computes the exact distance for the unordered pair `{s, t}`, always
    /// in the low-id → high-id direction. The network is undirected, so the
    /// distance is direction-independent mathematically — but a Dijkstra
    /// run from `t` accumulates the same edge weights in a different order
    /// than one from `s` and can differ in the last ULP. Canonicalising
    /// makes the value a pure function of the pair, which is what lets one
    /// cache entry serve both directions and keeps `dist` independent of
    /// cache state (the contract checkpointed replays rely on: a resumed
    /// run's cold caches must reproduce the warm-cache run bit for bit).
    ///
    /// With labels, the pair is answered by scanning one endpoint's label
    /// against the other's, kept spread by hub rank from earlier queries
    /// ([`Spread`]): a dispatcher's misses come in runs that share the new
    /// request's pickup or drop-off. A thread that finds the scratch taken
    /// (a second movement worker) or poisoned merges the two labels
    /// instead — [`HubLabels::distance`], the same bits — and never waits.
    pub(crate) fn distance(&self, s: NodeId, t: NodeId) -> Weight {
        if s == t {
            return 0.0;
        }
        let (a, b) = ordered(s, t);
        match &self.labels {
            Some(hl) => match self.spread.try_lock() {
                Ok(mut spread) => spread.distance(hl, a, b),
                Err(_) => hl.distance(a, b).unwrap_or(INFINITY),
            },
            None => self.dijkstra.distance(a, b).unwrap_or(INFINITY),
        }
    }

    /// Computes a shortest path from `s` to `t`: unpacked from the labels
    /// when the backend has them, by Dijkstra otherwise — and whenever the
    /// labels answer `None`, which leaves it to Dijkstra to say whether the
    /// pair is really disconnected.
    ///
    /// Callers must NOT prime the distance cache from a path: summed along
    /// the query direction its cost can disagree with the canonical
    /// [`Uncached::distance`] in the last ULP, which would make `dist`
    /// depend on which queries ran before it.
    pub(crate) fn path(&self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        self.labels
            .as_ref()
            .and_then(|hl| hl.path(s, t))
            .or_else(|| self.dijkstra.path(s, t).map(|(_, p)| p))
    }

    pub(crate) fn nodes_within(&self, s: NodeId, radius: Weight) -> Vec<(NodeId, Weight)> {
        self.dijkstra.nodes_within(s, radius)
    }
}

/// Production oracle: hub labels (or Dijkstra) behind the paper's LRU
/// caches.
pub struct CachedOracle<'g> {
    uncached: Uncached<'g>,
    caches: RefCell<SharedPathCaches>,
    stats: RefCell<OracleStats>,
}

impl<'g> CachedOracle<'g> {
    /// Builds an oracle with hub labels and default cache sizes.
    pub fn new(graph: &'g RoadNetwork) -> Self {
        Self::with_options(graph, OracleBackend::HubLabels, 1_000_000, 10_000)
    }

    /// Builds an oracle without hub labels (Dijkstra on every miss).
    pub fn without_labels(graph: &'g RoadNetwork) -> Self {
        Self::with_options(graph, OracleBackend::Dijkstra, 1_000_000, 10_000)
    }

    /// Builds an oracle with explicit backend and cache capacities.
    pub fn with_options(
        graph: &'g RoadNetwork,
        backend: OracleBackend,
        distance_cache: usize,
        path_cache: usize,
    ) -> Self {
        Self::from_parts(Uncached::new(graph, backend), distance_cache, path_cache)
    }

    /// Builds an oracle around pre-built hub labels — typically loaded from
    /// disk with [`HubLabels::load`] so a paper-scale construction is paid
    /// once, not on every process start.
    ///
    /// # Panics
    /// Panics when the labels cover a different number of vertices than
    /// `graph` has (a mismatched file would silently corrupt distances).
    pub fn with_labels(
        graph: &'g RoadNetwork,
        labels: HubLabels,
        distance_cache: usize,
        path_cache: usize,
    ) -> Self {
        Self::from_parts(
            Uncached::with_labels(graph, labels),
            distance_cache,
            path_cache,
        )
    }

    fn from_parts(uncached: Uncached<'g>, distance_cache: usize, path_cache: usize) -> Self {
        let caches = SharedPathCaches::with_capacity(
            uncached.graph().node_count(),
            distance_cache,
            path_cache,
        );
        CachedOracle {
            uncached,
            caches: RefCell::new(caches),
            stats: RefCell::new(OracleStats::default()),
        }
    }

    /// The hub labels backing this oracle, when the backend uses them
    /// (e.g. to persist them with [`HubLabels::save`]).
    pub fn labels(&self) -> Option<&HubLabels> {
        self.uncached.labels()
    }

    /// The underlying road network.
    pub fn graph(&self) -> &RoadNetwork {
        self.uncached.graph()
    }

    /// Snapshot of the query counters.
    pub fn stats(&self) -> OracleStats {
        *self.stats.borrow()
    }

    /// Resets the query counters (cache contents are kept).
    pub fn reset_stats(&self) {
        *self.stats.borrow_mut() = OracleStats::default();
    }

    /// Empties both LRU caches (hub labels are kept). Benchmark harnesses
    /// call this between measurement points so that every algorithm starts
    /// from the same cold-cache state.
    pub fn clear_caches(&self) {
        self.caches.borrow_mut().clear();
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
        let (s, t) = ordered(s, t);
        let mut stats = self.stats.borrow_mut();
        stats.distance_queries += 1;
        let mut caches = self.caches.borrow_mut();
        if let Some(d) = caches.get_distance(s, t) {
            stats.distance_cache_hits += 1;
            return d;
        }
        stats.distance_cache_misses += 1;
        let d = self.uncached.distance(s, t);
        caches.put_distance(s, t, d);
        d
    }

    fn shortest_path(&self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        if s == t {
            return Some(vec![s]);
        }
        let mut stats = self.stats.borrow_mut();
        stats.path_queries += 1;
        let mut caches = self.caches.borrow_mut();
        if let Some(p) = caches.get_path(s, t) {
            stats.path_cache_hits += 1;
            return Some(p);
        }
        stats.path_cache_misses += 1;
        drop(caches);
        drop(stats);
        let p = self.uncached.path(s, t)?;
        self.caches.borrow_mut().put_path(s, t, p.clone());
        Some(p)
    }

    fn node_count(&self) -> usize {
        self.uncached.graph().node_count()
    }

    fn nodes_within(&self, s: NodeId, radius: Weight) -> Vec<(NodeId, Weight)> {
        self.uncached.nodes_within(s, radius)
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
    use crate::sharded::ShardedOracle;
    use crate::types::approx_eq;

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
            assert!(approx_eq(oracle.dist(s, t), expect));
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
    fn a_busy_or_poisoned_scratch_falls_back_to_the_merge() {
        let g = grid(6, 6, 3);
        let labels = HubLabels::build(&g);
        let uncached = Uncached::with_labels(&g, labels.clone());
        let n = g.node_count() as NodeId;
        let check = |when: &str| {
            for (s, t) in (0..30).map(|i| ((i * 5) % n, (i * 17 + 3) % n)) {
                let (a, b) = ordered(s, t);
                let merged = labels.distance(a, b).unwrap_or(INFINITY);
                assert_eq!(
                    uncached.distance(s, t).to_bits(),
                    merged.to_bits(),
                    "({s}, {t}) {when}"
                );
            }
        };
        check("through the scratch");
        {
            // Another thread is mid-query: answered all the same, without
            // waiting for it (this thread would wait on itself for ever).
            let _held = uncached.spread.lock().expect("not poisoned yet");
            check("with the scratch taken");
        }
        let holder = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _held = uncached.spread.lock().expect("not poisoned yet");
                    panic!("poison the scratch");
                })
                .join()
        });
        assert!(holder.is_err() && uncached.spread.is_poisoned());
        check("with the scratch poisoned");
    }

    #[test]
    fn cached_oracle_paths_are_valid() {
        let g = grid(5, 7, 2);
        let oracle = CachedOracle::without_labels(&g);
        let t = (g.node_count() - 1) as NodeId;
        let p = oracle.shortest_path(0, t).unwrap();
        assert_eq!(p[0], 0);
        assert_eq!(*p.last().unwrap(), t);
        let mut acc = 0.0;
        for w in p.windows(2) {
            acc += g.edge_weight(w[0], w[1]).unwrap();
        }
        assert!(approx_eq(acc, oracle.dist(0, t)));
        // Second call comes from the path cache and must be identical.
        assert_eq!(oracle.shortest_path(0, t).unwrap(), p);
        assert_eq!(oracle.stats().path_cache_hits, 1);
    }

    #[test]
    fn label_backed_oracles_return_the_dijkstra_backed_paths() {
        // Jittered weights: shortest paths are unique, so unpacking the
        // labels must reproduce the label-less twins' paths exactly.
        let g = grid(12, 12, 8);
        let n = g.node_count() as NodeId;
        let cached = CachedOracle::new(&g);
        let sharded = ShardedOracle::new(&g);
        let cached_twin = CachedOracle::without_labels(&g);
        let sharded_twin = ShardedOracle::without_labels(&g);
        for (s, t) in (0..40).map(|i| ((i * 5) % n, (i * 17 + 3) % n)) {
            let expect = cached_twin.shortest_path(s, t);
            assert!(expect.is_some(), "grid is connected ({s}, {t})");
            assert_eq!(sharded_twin.shortest_path(s, t), expect, "({s}, {t})");
            assert_eq!(cached.shortest_path(s, t), expect, "({s}, {t})");
            assert_eq!(sharded.shortest_path(s, t), expect, "({s}, {t})");
            if s == t {
                continue; // answered before the caches are consulted
            }
            // A second call is a path-cache hit with the identical vector.
            let (cached_hits, sharded_hits) = (
                cached.stats().path_cache_hits,
                sharded.stats().path_cache_hits,
            );
            assert_eq!(cached.shortest_path(s, t), expect, "({s}, {t})");
            assert_eq!(sharded.shortest_path(s, t), expect, "({s}, {t})");
            assert_eq!(cached.stats().path_cache_hits, cached_hits + 1);
            assert_eq!(sharded.stats().path_cache_hits, sharded_hits + 1);
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
        let reference = CachedOracle::without_labels(&g);
        for &(s, t) in &pairs {
            // Symmetry must hold bitwise on a cold oracle.
            assert_eq!(
                reference.dist(s, t).to_bits(),
                reference.dist(t, s).to_bits()
            );
        }
        // A differently warmed oracle (paths first, reverse direction
        // first) must agree bit for bit.
        let warmed = CachedOracle::without_labels(&g);
        for &(s, t) in &pairs {
            let _ = warmed.shortest_path(s, t);
            let _ = warmed.dist(t, s);
        }
        let sharded = ShardedOracle::without_labels(&g);
        for &(s, t) in &pairs {
            let _ = sharded.shortest_path(t, s);
        }
        for &(s, t) in &pairs {
            let expect = reference.dist(s, t).to_bits();
            assert_eq!(warmed.dist(s, t).to_bits(), expect, "({s}, {t})");
            assert_eq!(sharded.dist(s, t).to_bits(), expect, "({s}, {t})");
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
                assert!(approx_eq(m.dist(s, t), c.dist(s, t)));
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
