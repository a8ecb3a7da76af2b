//! `ShardedOracle`, a name kept only for the frozen `benchmark/` crate.
//!
//! The simulator is single-threaded and queries one [`CachedOracle`]. The
//! benchmark still builds a `ShardedOracle` and hands it around as
//! `&(dyn DistanceOracle + Sync)`, so this module keeps that name as one
//! `CachedOracle` behind a `Mutex`: `Sync`, and bit for bit the inner
//! oracle's answers. There are no shards and no path cache; the shard
//! count and the path-cache capacity are ignored.

use std::sync::{Mutex, MutexGuard};

use crate::graph::RoadNetwork;
use crate::hub_label::HubLabels;
use crate::oracle::{CachedOracle, DistanceOracle, OracleStats};
use crate::types::{NodeId, Weight};

/// Exists only for the frozen `benchmark/` crate, which names this type:
/// one [`CachedOracle`] behind a `Mutex`, so that it is `Sync` and coerces
/// to `&(dyn DistanceOracle + Sync)`. Answers are the inner oracle's, bit
/// for bit. Nothing else constructs it; use [`CachedOracle`].
///
/// # Examples
///
/// ```
/// use roadnet::{DistanceOracle, GeneratorConfig, HubLabels, NetworkKind, ShardedOracle};
///
/// let graph = GeneratorConfig {
///     kind: NetworkKind::Grid { rows: 6, cols: 6 },
///     ..GeneratorConfig::default()
/// }
/// .generate();
/// let oracle = ShardedOracle::with_labels(&graph, HubLabels::build(&graph), 16, 1_000, 100);
/// let shared: &(dyn DistanceOracle + Sync) = &oracle;
/// let d = shared.dist(0, 35);
/// std::thread::scope(|scope| {
///     scope.spawn(|| assert_eq!(shared.dist(35, 0), d));
/// });
/// ```
pub struct ShardedOracle<'g>(Mutex<CachedOracle<'g>>);

impl<'g> ShardedOracle<'g> {
    /// [`CachedOracle::with_labels`]; the shard count and the path-cache
    /// capacity are ignored.
    pub fn with_labels(
        graph: &'g RoadNetwork,
        labels: HubLabels,
        _shards: usize,
        distance_cache: usize,
        _path_cache: usize,
    ) -> Self {
        let oracle = CachedOracle::with_labels(graph, labels, distance_cache, 0);
        ShardedOracle(Mutex::new(oracle))
    }

    fn inner(&self) -> MutexGuard<'_, CachedOracle<'g>> {
        self.0.lock().expect("oracle poisoned by a panic mid-query")
    }

    /// [`CachedOracle::stats`].
    pub fn stats(&self) -> OracleStats {
        self.inner().stats()
    }

    /// [`CachedOracle::reset_stats`].
    pub fn reset_stats(&self) {
        self.inner().reset_stats()
    }

    /// [`CachedOracle::clear_caches`].
    pub fn clear_caches(&self) {
        self.inner().clear_caches()
    }
}

impl DistanceOracle for ShardedOracle<'_> {
    fn dist(&self, s: NodeId, t: NodeId) -> Weight {
        self.inner().dist(s, t)
    }

    fn shortest_path(&self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        self.inner().shortest_path(s, t)
    }

    fn node_count(&self) -> usize {
        self.inner().node_count()
    }

    fn nodes_within(&self, s: NodeId, radius: Weight) -> Vec<(NodeId, Weight)> {
        self.inner().nodes_within(s, radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::DijkstraEngine;
    use crate::generators::{GeneratorConfig, NetworkKind};
    use crate::oracle::ShortestPathEngine;

    fn grid(rows: usize, cols: usize, seed: u64) -> RoadNetwork {
        GeneratorConfig {
            kind: NetworkKind::Grid { rows, cols },
            seed,
            ..GeneratorConfig::default()
        }
        .generate()
    }

    /// The benchmark's construction: labels, 16 (ignored) shards, a
    /// (ignored) path-cache capacity.
    fn shim(g: &RoadNetwork, distance_cache: usize) -> ShardedOracle<'_> {
        ShardedOracle::with_labels(g, HubLabels::build(g), 16, distance_cache, 100)
    }

    #[test]
    fn sharded_oracle_is_sync() {
        fn assert_sync<T: Sync>(_: &T) {}
        let g = grid(3, 3, 0);
        let o = shim(&g, 100);
        assert_sync(&o);
        // And usable as the trait object the benchmark passes around.
        let _dyn_oracle: &(dyn DistanceOracle + Sync) = &o;
    }

    #[test]
    fn matches_cached_oracle_exactly() {
        let g = grid(6, 6, 3);
        let labels = HubLabels::build(&g);
        let sharded = ShardedOracle::with_labels(&g, labels.clone(), 16, 1_000, 100);
        let cached = CachedOracle::with_labels(&g, labels, 1_000, 0);
        let n = g.node_count() as NodeId;
        for s in 0..n {
            for t in 0..n {
                let (got, want) = (sharded.dist(s, t), cached.dist(s, t));
                assert_eq!(got.to_bits(), want.to_bits(), "({s}, {t})");
            }
        }
        assert_eq!(
            sharded.nodes_within(7, 400.0),
            cached.nodes_within(7, 400.0)
        );
        assert_eq!(sharded.node_count(), g.node_count());
        assert_eq!(sharded.stats(), cached.stats());
    }

    #[test]
    fn stats_aggregate_across_shards() {
        // The shard count is ignored: every query lands in one set of
        // counters.
        let g = grid(5, 5, 2);
        let o = shim(&g, 1_000);
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
        assert_eq!(o.stats(), OracleStats::default());
    }

    #[test]
    fn reverse_lookup_hits_the_pairs_one_entry() {
        let g = grid(5, 5, 4);
        let o = shim(&g, 1_000);
        let _ = o.dist(3, 19);
        let _ = o.dist(19, 3);
        let stats = o.stats();
        assert_eq!(stats.distance_cache_hits, 1, "reverse lookup must hit");
    }

    #[test]
    fn paths_and_clear_work() {
        let g = grid(4, 6, 5);
        let o = shim(&g, 1_000);
        let t = (g.node_count() - 1) as NodeId;
        let p = o.shortest_path(0, t).unwrap();
        assert_eq!(p, DijkstraEngine::new(&g).path(0, t).unwrap().1);
        assert!(p.windows(2).all(|w| g.edge_weight(w[0], w[1]).is_some()));
        // Repeated and reversed: the same vertex sequence, one counted
        // query each, and never a cache hit.
        assert_eq!(o.shortest_path(0, t).unwrap(), p);
        let mut back = o.shortest_path(t, 0).unwrap();
        back.reverse();
        assert_eq!(back, p);
        assert_eq!(o.stats().path_queries, 3);
        assert_eq!(o.stats().path_cache_hits, 0);
        let _ = o.dist(0, t);
        o.clear_caches();
        let _ = o.dist(0, t);
        assert_eq!(o.stats().distance_cache_misses, 2, "cleared, so a miss");
        assert_eq!(o.dist(4, 4), 0.0);
        assert_eq!(o.shortest_path(4, 4), Some(vec![4]));
    }

    #[test]
    fn concurrent_path_unpacking_agrees_with_dijkstra() {
        let g = grid(12, 12, 8);
        let o = shim(&g, 1_000);
        let reference = CachedOracle::without_labels(&g);
        let n = g.node_count() as NodeId;
        let pairs: Vec<(NodeId, NodeId)> =
            (0..48).map(|i| ((i * 5) % n, (i * 17 + 3) % n)).collect();
        let expect: Vec<_> = pairs
            .iter()
            .map(|&(s, t)| reference.shortest_path(s, t))
            .collect();
        // Four threads walk the same pairs from different starting points,
        // each unpacking every pair itself.
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
        // A zero-capacity cache: every call is a miss, answered by scanning
        // against the one label scratch the threads take turns at, and
        // every answer must still be the merge's.
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
                                    let merged = labels
                                        .distance(s.min(t), s.max(t))
                                        .expect("grid is connected");
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
        let o = shim(&g, 1_000);
        let n = g.node_count() as NodeId;
        let sequential = CachedOracle::new(&g);
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
        for (w, got) in results.iter().enumerate() {
            let s = (w as NodeId * 7) % n;
            for (t, &d) in got.iter().enumerate() {
                let want = sequential.dist(s, t as NodeId);
                assert_eq!(d.to_bits(), want.to_bits(), "({s}, {t})");
            }
        }
    }
}
