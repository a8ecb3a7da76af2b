//! Property-based tests of the shortest-path engines and caches.

use proptest::prelude::*;
use roadnet::{
    CachedOracle, DijkstraEngine, DistanceOracle, GeneratorConfig, HubLabels, LruCache,
    NetworkKind, NodeId, ShortestPathEngine,
};

fn network_strategy() -> impl Strategy<Value = (roadnet::RoadNetwork, u64)> {
    (3usize..8, 3usize..8, 0u64..1_000, 0.0f64..0.2).prop_map(|(rows, cols, seed, dropout)| {
        let g = GeneratorConfig {
            kind: NetworkKind::Grid { rows, cols },
            seed,
            edge_dropout: dropout,
            ..GeneratorConfig::default()
        }
        .generate();
        (g, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Hub labels agree with Dijkstra, the reference, on distances.
    #[test]
    fn engines_agree_on_distances((g, seed) in network_strategy()) {
        let n = g.node_count() as NodeId;
        let dij = DijkstraEngine::new(&g);
        let hl = HubLabels::build(&g);
        for i in 0..6u64 {
            let s = ((seed.wrapping_mul(31).wrapping_add(i * 7)) % n as u64) as NodeId;
            let t = ((seed.wrapping_mul(17).wrapping_add(i * 13)) % n as u64) as NodeId;
            match (dij.distance(s, t), hl.distance(s, t)) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-6),
                (None, None) => {}
                other => prop_assert!(false, "reachability mismatch: {other:?}"),
            }
        }
    }

    /// Shortest distances are symmetric (undirected network) and satisfy the
    /// triangle inequality.
    #[test]
    fn metric_properties((g, seed) in network_strategy()) {
        let oracle = CachedOracle::new(&g);
        let n = g.node_count() as u64;
        let pick = |x: u64| ((seed.wrapping_mul(2654435761).wrapping_add(x * 97)) % n) as NodeId;
        for i in 0..5u64 {
            let (a, b, c) = (pick(3 * i), pick(3 * i + 1), pick(3 * i + 2));
            let ab = oracle.dist(a, b);
            let ba = oracle.dist(b, a);
            prop_assert!((ab - ba).abs() < 1e-6 || (ab.is_infinite() && ba.is_infinite()));
            let ac = oracle.dist(a, c);
            let cb = oracle.dist(c, b);
            if ab.is_finite() && ac.is_finite() && cb.is_finite() {
                prop_assert!(ab <= ac + cb + 1e-6);
            }
            prop_assert_eq!(oracle.dist(a, a), 0.0);
        }
    }

    /// A reported path is a real walk in the graph whose edge weights sum to
    /// the reported distance — for both [`ShortestPathEngine`]s in the
    /// crate.
    #[test]
    fn paths_are_consistent((g, seed) in network_strategy()) {
        let n = g.node_count() as u64;
        let s = ((seed * 11) % n) as NodeId;
        let t = ((seed * 29 + 5) % n) as NodeId;
        let engines: [(&str, Box<dyn ShortestPathEngine + '_>); 2] = [
            ("dijkstra", Box::new(DijkstraEngine::new(&g))),
            ("hub labels", Box::new(HubLabels::build(&g))),
        ];
        for (name, engine) in &engines {
            // Generated networks are connected.
            let found = engine.path(s, t);
            prop_assert!(found.is_some(), "{}: no path {}->{}", name, s, t);
            let (d, p) = found.unwrap();
            prop_assert_eq!(p[0], s, "{}", name);
            prop_assert_eq!(*p.last().unwrap(), t, "{}", name);
            let mut acc = 0.0;
            for w in p.windows(2) {
                let e = g.edge_weight(w[0], w[1]);
                prop_assert!(e.is_some(), "{}: path uses non-existent edge", name);
                acc += e.unwrap();
            }
            prop_assert!((acc - d).abs() < 1e-6, "{}: walk {} vs reported {}", name, acc, d);
        }
    }

    /// The LRU cache never exceeds its capacity and always returns the last
    /// value stored for a key.
    #[test]
    fn lru_cache_invariants(ops in prop::collection::vec((0u64..40, 0u64..1_000), 1..400), cap in 1usize..24) {
        let mut cache = LruCache::new(cap);
        let mut last = std::collections::HashMap::new();
        for (key, value) in ops {
            cache.put(key, value);
            last.insert(key, value);
            prop_assert!(cache.len() <= cap);
            if let Some(v) = cache.peek(key) {
                prop_assert_eq!(*v, *last.get(&key).unwrap());
            } else {
                prop_assert!(false, "key just inserted must be present");
            }
        }
    }
}
