//! Thread-safe sharded distance oracle, for moving the fleet on several
//! threads.
//!
//! [`CachedOracle`](crate::CachedOracle) puts the paper's two LRU caches
//! behind `RefCell`, which is the right call for the sequential simulation
//! loop (no lock around the caches) but makes the oracle `!Sync`: the
//! worker threads that route vehicles in the movement phase of
//! `Simulation::advance_all` (`rideshare-sim`) cannot share it.
//! [`ShardedOracle`] is the concurrent counterpart. What a miss computes —
//! for a distance, a scan of one endpoint's label against the other's kept
//! spread by hub rank (or, on a thread that finds that scratch taken, the
//! plain merge of the two labels: the same bits, and it never waits); for a
//! path, a walk along the labels' next-hop pointers; Dijkstra when the
//! backend has no labels — is the same machinery `CachedOracle` owns and is
//! shared freely across threads; only the caches must be written under a
//! lock, and those are split into `2^k` independent shards, each holding
//! its own [`SharedPathCaches`] behind its own `Mutex`.
//! A query locks exactly one shard (chosen by mixing the paper's pair key
//! `id(s)·|V| + id(e)`, of the low-id → high-id pair for a distance), so
//! lookups for different vertex pairs almost never contend, and a hot pair
//! serialises only with itself.
//!
//! Sharding changes *which* entries survive eviction (each shard runs LRU
//! over its slice of the key space) but never the values returned —
//! distances and paths are pure functions of the pair, whatever the cache
//! state — so a run over this oracle agrees bit-for-bit with one over
//! `CachedOracle`, at any worker count.

use std::sync::Mutex;

use crate::cache::SharedPathCaches;
use crate::graph::RoadNetwork;
use crate::hub_label::HubLabels;
use crate::oracle::{ordered, DistanceOracle, OracleBackend, OracleStats, Uncached};
use crate::types::{NodeId, Weight};

/// Default number of cache shards (`16`): enough that a handful of worker
/// threads rarely collide, small enough that per-shard LRU capacity stays
/// meaningful.
pub const DEFAULT_SHARDS: usize = 16;

/// One cache shard: a slice of the LRU caches plus its query counters, all
/// guarded by a single mutex so one lock acquisition serves a whole lookup.
#[derive(Debug)]
struct Shard {
    caches: SharedPathCaches,
    stats: OracleStats,
}

/// Concurrent distance/path oracle: hub labels (or Dijkstra) behind
/// sharded, mutex-guarded LRU caches. See the module docs for the design.
///
/// This type is `Sync`; share it by reference (`&ShardedOracle` implements
/// [`DistanceOracle`] through `&self` methods) across the engine's
/// movement threads.
///
/// # Examples
///
/// ```
/// use roadnet::{DistanceOracle, GeneratorConfig, NetworkKind, ShardedOracle};
///
/// let graph = GeneratorConfig {
///     kind: NetworkKind::Grid { rows: 6, cols: 6 },
///     ..GeneratorConfig::default()
/// }
/// .generate();
/// let oracle = ShardedOracle::new(&graph);
/// // Concurrent queries from scoped threads; distances are exact and
/// // identical no matter which thread (or cache shard) serves them.
/// let d = oracle.dist(0, 35);
/// std::thread::scope(|scope| {
///     for _ in 0..4 {
///         scope.spawn(|| assert_eq!(oracle.dist(0, 35), d));
///     }
/// });
/// ```
pub struct ShardedOracle<'g> {
    uncached: Uncached<'g>,
    shards: Vec<Mutex<Shard>>,
    shard_mask: u64,
}

impl<'g> ShardedOracle<'g> {
    /// Builds an oracle with hub labels, [`DEFAULT_SHARDS`] shards and the
    /// same total cache budget as [`CachedOracle::new`](crate::CachedOracle::new).
    pub fn new(graph: &'g RoadNetwork) -> Self {
        Self::with_options(
            graph,
            OracleBackend::HubLabels,
            DEFAULT_SHARDS,
            1_000_000,
            10_000,
        )
    }

    /// Builds an oracle without hub labels (Dijkstra on every miss).
    pub fn without_labels(graph: &'g RoadNetwork) -> Self {
        Self::with_options(
            graph,
            OracleBackend::Dijkstra,
            DEFAULT_SHARDS,
            1_000_000,
            10_000,
        )
    }

    /// Builds an oracle with an explicit backend, shard count and *total*
    /// cache capacities (divided evenly across shards). The shard count is
    /// rounded up to a power of two and clamped to at least 1.
    pub fn with_options(
        graph: &'g RoadNetwork,
        backend: OracleBackend,
        shards: usize,
        distance_cache: usize,
        path_cache: usize,
    ) -> Self {
        Self::from_parts(
            Uncached::new(graph, backend),
            shards,
            distance_cache,
            path_cache,
        )
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
        shards: usize,
        distance_cache: usize,
        path_cache: usize,
    ) -> Self {
        Self::from_parts(
            Uncached::with_labels(graph, labels),
            shards,
            distance_cache,
            path_cache,
        )
    }

    fn from_parts(
        uncached: Uncached<'g>,
        shards: usize,
        distance_cache: usize,
        path_cache: usize,
    ) -> Self {
        let node_count = uncached.graph().node_count();
        let shard_count = shards.max(1).next_power_of_two();
        let per_shard_dist = distance_cache.div_ceil(shard_count);
        let per_shard_path = path_cache.div_ceil(shard_count);
        let shards = (0..shard_count)
            .map(|_| {
                Mutex::new(Shard {
                    caches: SharedPathCaches::with_capacity(
                        node_count,
                        per_shard_dist,
                        per_shard_path,
                    ),
                    stats: OracleStats::default(),
                })
            })
            .collect();
        ShardedOracle {
            uncached,
            shards,
            shard_mask: (shard_count - 1) as u64,
        }
    }

    /// The underlying road network.
    pub fn graph(&self) -> &RoadNetwork {
        self.uncached.graph()
    }

    /// Number of cache shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Aggregated query counters summed over all shards.
    pub fn stats(&self) -> OracleStats {
        let mut total = OracleStats::default();
        for shard in &self.shards {
            let s = shard.lock().expect("oracle shard poisoned").stats;
            total.distance_cache_hits += s.distance_cache_hits;
            total.distance_cache_misses += s.distance_cache_misses;
            total.path_cache_hits += s.path_cache_hits;
            total.path_cache_misses += s.path_cache_misses;
            total.distance_queries += s.distance_queries;
            total.path_queries += s.path_queries;
        }
        total
    }

    /// Resets every shard's query counters (cache contents are kept).
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.lock().expect("oracle shard poisoned").stats = OracleStats::default();
        }
    }

    /// Empties every shard's LRU caches (hub labels are kept).
    pub fn clear_caches(&self) {
        for shard in &self.shards {
            shard.lock().expect("oracle shard poisoned").caches.clear();
        }
    }

    /// Shard index for the vertex pair `(s, t)`.
    ///
    /// The paper's pair key `id(s)·|V| + id(e)` is mixed through the
    /// SplitMix64 finaliser before masking: neighbouring pairs (the common
    /// access pattern when evaluating one vehicle's schedule) would
    /// otherwise land in the same shard and serialise.
    fn shard_for(&self, s: NodeId, t: NodeId) -> usize {
        let key = s as u64 * self.uncached.graph().node_count() as u64 + t as u64;
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) & self.shard_mask) as usize
    }
}

impl DistanceOracle for ShardedOracle<'_> {
    fn dist(&self, s: NodeId, t: NodeId) -> Weight {
        if s == t {
            return 0.0;
        }
        // One entry, in one shard, per unordered pair (same rationale as
        // CachedOracle: the value is canonical, so a reverse lookup hits).
        let (s, t) = ordered(s, t);
        let shard = &self.shards[self.shard_for(s, t)];
        {
            let mut shard = shard.lock().expect("oracle shard poisoned");
            shard.stats.distance_queries += 1;
            if let Some(d) = shard.caches.get_distance(s, t) {
                shard.stats.distance_cache_hits += 1;
                return d;
            }
            shard.stats.distance_cache_misses += 1;
        }
        // Compute outside any lock: a miss must not serialise this shard's
        // other lookups (without labels it is a whole Dijkstra), and the
        // label scratch inside is only ever `try_lock`ed, here where no
        // shard lock is held.
        let d = self.uncached.distance(s, t);
        shard
            .lock()
            .expect("oracle shard poisoned")
            .caches
            .put_distance(s, t, d);
        d
    }

    fn shortest_path(&self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        if s == t {
            return Some(vec![s]);
        }
        {
            let mut shard = self.shards[self.shard_for(s, t)]
                .lock()
                .expect("oracle shard poisoned");
            shard.stats.path_queries += 1;
            if let Some(p) = shard.caches.get_path(s, t) {
                shard.stats.path_cache_hits += 1;
                return Some(p);
            }
            shard.stats.path_cache_misses += 1;
        }
        let p = self.uncached.path(s, t)?;
        self.shards[self.shard_for(s, t)]
            .lock()
            .expect("oracle shard poisoned")
            .caches
            .put_path(s, t, p.clone());
        Some(p)
    }

    fn node_count(&self) -> usize {
        self.uncached.graph().node_count()
    }

    fn nodes_within(&self, s: NodeId, radius: Weight) -> Vec<(NodeId, Weight)> {
        self.uncached.nodes_within(s, radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GeneratorConfig, NetworkKind};
    use crate::oracle::CachedOracle;
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
    fn sharded_oracle_is_sync() {
        fn assert_sync<T: Sync>(_: &T) {}
        let g = grid(3, 3, 0);
        let o = ShardedOracle::without_labels(&g);
        assert_sync(&o);
        // And usable as the trait object `Simulation::with_parallel` takes.
        let _dyn_oracle: &(dyn DistanceOracle + Sync) = &o;
    }

    #[test]
    fn matches_cached_oracle_exactly() {
        let g = grid(6, 6, 3);
        let sharded = ShardedOracle::new(&g);
        let cached = CachedOracle::new(&g);
        let n = g.node_count() as NodeId;
        for s in 0..n {
            for t in 0..n {
                assert!(
                    approx_eq(sharded.dist(s, t), cached.dist(s, t)),
                    "distance mismatch at ({s}, {t})"
                );
            }
        }
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let g = grid(3, 3, 1);
        let o = ShardedOracle::with_options(&g, OracleBackend::Dijkstra, 5, 100, 10);
        assert_eq!(o.shard_count(), 8);
        let o = ShardedOracle::with_options(&g, OracleBackend::Dijkstra, 0, 100, 10);
        assert_eq!(o.shard_count(), 1);
    }

    #[test]
    fn stats_aggregate_across_shards() {
        let g = grid(5, 5, 2);
        let o = ShardedOracle::without_labels(&g);
        let n = g.node_count() as NodeId;
        for t in 1..n {
            let _ = o.dist(0, t);
        }
        for t in 1..n {
            let _ = o.dist(0, t); // cache hits
        }
        let stats = o.stats();
        assert_eq!(stats.distance_queries, 2 * (n as u64 - 1));
        assert_eq!(stats.distance_cache_misses, n as u64 - 1);
        assert_eq!(stats.distance_cache_hits, n as u64 - 1);
        assert!(stats.distance_hit_rate() > 0.4);
        o.reset_stats();
        assert_eq!(o.stats().distance_queries, 0);
    }

    #[test]
    fn reverse_lookup_hits_the_pairs_one_entry() {
        let g = grid(5, 5, 4);
        let o = ShardedOracle::without_labels(&g);
        let _ = o.dist(3, 19);
        let _ = o.dist(19, 3);
        let stats = o.stats();
        assert_eq!(stats.distance_cache_hits, 1, "reverse lookup must hit");
    }

    #[test]
    fn paths_and_clear_work() {
        let g = grid(4, 6, 5);
        let o = ShardedOracle::without_labels(&g);
        let t = (g.node_count() - 1) as NodeId;
        let p = o.shortest_path(0, t).unwrap();
        assert_eq!(p[0], 0);
        assert_eq!(*p.last().unwrap(), t);
        assert_eq!(o.shortest_path(0, t).unwrap(), p);
        assert_eq!(o.stats().path_cache_hits, 1);
        o.clear_caches();
        let _ = o.dist(0, t);
        assert_eq!(o.stats().distance_cache_misses, 1);
        assert_eq!(o.dist(4, 4), 0.0);
        assert_eq!(o.shortest_path(4, 4), Some(vec![4]));
    }

    #[test]
    fn concurrent_path_unpacking_agrees_with_dijkstra() {
        let g = grid(12, 12, 8);
        let o = ShardedOracle::new(&g);
        let reference = CachedOracle::without_labels(&g);
        let n = g.node_count() as NodeId;
        let pairs: Vec<(NodeId, NodeId)> =
            (0..48).map(|i| ((i * 5) % n, (i * 17 + 3) % n)).collect();
        let expect: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| reference.shortest_path(s, t))
            .collect();
        // Four threads walk the same pairs from different starting points,
        // so every pair is unpacked by one thread and served from a cache
        // shard (or unpacked again, racing) to the others.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4usize)
                .map(|w| {
                    let (o, pairs) = (&o, &pairs);
                    scope.spawn(move || {
                        let mut got = vec![None; pairs.len()];
                        for k in 0..pairs.len() {
                            let i = (k + w * 12) % pairs.len();
                            got[i] = o.shortest_path(pairs[i].0, pairs[i].1);
                        }
                        got
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("worker panicked"), expect);
            }
        });
    }

    #[test]
    fn concurrent_misses_agree_with_the_merge_bit_for_bit() {
        // Zero-capacity caches: every call is a miss, so four threads keep
        // meeting at the one label scratch — whoever holds it scans, the
        // rest merge — and every answer must still be the merge's.
        let g = grid(10, 10, 11);
        let labels = HubLabels::build(&g);
        let o = ShardedOracle::with_labels(&g, labels.clone(), 4, 0, 0);
        let n = g.node_count() as NodeId;
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u32)
                .map(|w| {
                    let (o, labels, start) = (&o, &labels, &start);
                    scope.spawn(move || {
                        // Request-shaped runs (40 probes against one pickup
                        // and drop-off, either side) with a random pair
                        // between every two probes; a different stream on
                        // each thread.
                        let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(w as u64 + 1);
                        let mut next = move || {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            (state % n as u64) as NodeId
                        };
                        start.wait();
                        for _ in 0..50 {
                            let (p, d) = (next(), next());
                            for i in 0..40 {
                                let x = next();
                                let probe = if i % 2 == 0 { (x, p) } else { (d, x) };
                                for (s, t) in [probe, (next(), next())] {
                                    let (a, b) = ordered(s, t);
                                    let merged = labels.distance(a, b).expect("grid is connected");
                                    assert_eq!(o.dist(s, t).to_bits(), merged.to_bits());
                                }
                            }
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("worker panicked");
            }
        });
        assert_eq!(o.stats().distance_cache_hits, 0, "every call was a miss");
    }

    #[test]
    fn concurrent_queries_agree_with_sequential() {
        let g = grid(8, 8, 7);
        let o = ShardedOracle::without_labels(&g);
        let n = g.node_count() as NodeId;
        let reference: Vec<Weight> = (0..n).map(|t| CachedOracle::new(&g).dist(0, t)).collect();
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4u32)
                .map(|w| {
                    let o = &o;
                    scope.spawn(move || {
                        (0..n)
                            .map(|t| o.dist((w * 7) % n, t))
                            .collect::<Vec<Weight>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect::<Vec<_>>()
        });
        // Worker 0 queried from source 0: must match the sequential oracle.
        for (t, (&got, &want)) in results[0].iter().zip(reference.iter()).enumerate() {
            assert!(approx_eq(got, want), "node {t}: {got} vs {want}");
        }
    }
}
