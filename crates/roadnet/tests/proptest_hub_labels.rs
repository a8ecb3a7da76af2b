//! Property-based tests of the contraction-ordered hub-label pipeline:
//! exactness of distances and unpacked paths against Dijkstra on random
//! generator networks (jittered, and zero-jitter where ties are
//! everywhere), bit-identity of the rank-batched parallel build, and
//! persistence round-trips.

use proptest::prelude::*;
use roadnet::{
    DijkstraEngine, GeneratorConfig, HubLabels, HubOrdering, NetworkKind, NodeId,
    ShortestPathEngine,
};
use workpool::WorkPool;

/// Random road-like networks across both generator topologies, with
/// dropout and jitter so shortest paths are non-trivial (and unique).
fn network_strategy() -> impl Strategy<Value = (roadnet::RoadNetwork, u64)> {
    networks(GeneratorConfig::default().weight_jitter)
}

/// The same networks with every block exactly as long as its segment:
/// equal-length shortest paths between almost every pair.
fn tied_network_strategy() -> impl Strategy<Value = (roadnet::RoadNetwork, u64)> {
    networks(0.0)
}

fn networks(weight_jitter: f64) -> impl Strategy<Value = (roadnet::RoadNetwork, u64)> {
    (0u8..2, 3usize..9, 4usize..9, 0u64..10_000, 0.0f64..0.25).prop_map(
        move |(kind, a, b, seed, dropout)| {
            let kind = match kind {
                0 => NetworkKind::Grid { rows: a, cols: b },
                _ => NetworkKind::RingRadial {
                    rings: a,
                    spokes: b + 2,
                },
            };
            let g = GeneratorConfig {
                kind,
                seed,
                edge_dropout: dropout,
                weight_jitter,
                ..GeneratorConfig::default()
            }
            .generate();
            (g, seed)
        },
    )
}

/// Eight deterministic query pairs per network.
fn sampled_pairs(n: usize, seed: u64) -> impl Iterator<Item = (NodeId, NodeId)> {
    let n = n as u64;
    (0..8u64).map(move |i| {
        let s = (seed.wrapping_mul(37).wrapping_add(i * 11)) % n;
        let t = (seed.wrapping_mul(23).wrapping_add(i * 29 + 3)) % n;
        (s as NodeId, t as NodeId)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Contraction-ordered labels answer every sampled query exactly like
    /// Dijkstra, on grids and ring-radial networks alike.
    #[test]
    fn contraction_labels_match_dijkstra((g, seed) in network_strategy()) {
        let hl = HubLabels::build_with(&g, HubOrdering::Contraction);
        let dij = DijkstraEngine::new(&g);
        for (s, t) in sampled_pairs(g.node_count(), seed) {
            let expect = dij.distance(s, t);
            let got = hl.distance(s, t);
            match (expect, got) {
                (Some(a), Some(b)) => prop_assert!(
                    (a - b).abs() < 1e-6,
                    "{s}->{t}: dijkstra {a} vs labels {b}"
                ),
                (None, None) => {}
                other => prop_assert!(false, "reachability mismatch {s}->{t}: {other:?}"),
            }
        }
    }

    /// Unpacking a path from the labels gives Dijkstra's vertex sequence
    /// (jittered weights make shortest paths unique), `None` exactly when
    /// Dijkstra finds none, and the one-vertex path from a vertex to itself.
    #[test]
    fn unpacked_paths_match_dijkstra((g, seed) in network_strategy()) {
        let hl = HubLabels::build_with(&g, HubOrdering::Contraction);
        let dij = DijkstraEngine::new(&g);
        for (s, t) in sampled_pairs(g.node_count(), seed) {
            let expect = dij.path(s, t).map(|(_, p)| p);
            prop_assert_eq!(hl.path(s, t), expect, "{}->{}", s, t);
            prop_assert_eq!(hl.path(s, s), Some(vec![s]));
        }
    }

    /// Under ties the unpacked sequence may differ from Dijkstra's, but it
    /// is still a shortest path: from `s` to `t`, over existing edges only,
    /// summing to Dijkstra's distance.
    #[test]
    fn unpacked_paths_are_shortest_under_ties((g, seed) in tied_network_strategy()) {
        let hl = HubLabels::build_with(&g, HubOrdering::Contraction);
        let dij = DijkstraEngine::new(&g);
        for (s, t) in sampled_pairs(g.node_count(), seed) {
            let expect = dij.distance(s, t).expect("generated networks are connected");
            let p = hl.path(s, t);
            prop_assert!(p.is_some(), "no path unpacked for {}->{}", s, t);
            let p = p.unwrap();
            prop_assert_eq!(p[0], s);
            prop_assert_eq!(*p.last().unwrap(), t);
            let mut acc = 0.0;
            for w in p.windows(2) {
                let e = g.edge_weight(w[0], w[1]);
                prop_assert!(e.is_some(), "{}->{} uses non-existent edge {:?}", s, t, w);
                acc += e.unwrap();
            }
            prop_assert!((acc - expect).abs() < 1e-6, "{}->{}: {} vs {}", s, t, acc, expect);
        }
    }

    /// The rank-batched parallel build is bit-identical to the sequential
    /// build at every worker count, for every ordering strategy. `HubLabels`
    /// compares whole entries, so "identical" covers the next-hop pointers
    /// as well as the hubs and distances.
    #[test]
    fn parallel_build_is_bit_identical((g, _seed) in network_strategy(), workers in 2usize..9) {
        for ordering in [HubOrdering::Contraction, HubOrdering::Degree] {
            let sequential = HubLabels::build_sequential(&g, ordering);
            let parallel = HubLabels::build_with_pool(&g, ordering, &WorkPool::new(workers));
            prop_assert_eq!(
                &parallel,
                &sequential,
                "labels diverged at {} workers ({:?})",
                workers,
                ordering
            );
        }
    }

    /// Ties do not make the parallel build's next-hop choice depend on the
    /// worker count: pops are ordered by (distance, vertex id), and a vertex
    /// only a pruned neighbour ties for is itself pruned by the merge.
    #[test]
    fn parallel_build_is_bit_identical_under_ties((g, _seed) in tied_network_strategy()) {
        let sequential = HubLabels::build_sequential(&g, HubOrdering::Contraction);
        for workers in [2usize, 3, 8] {
            let parallel =
                HubLabels::build_with_pool(&g, HubOrdering::Contraction, &WorkPool::new(workers));
            prop_assert_eq!(&parallel, &sequential, "labels diverged at {} workers", workers);
        }
    }

    /// Serialising and reloading labels reproduces them exactly, and the
    /// reloaded oracle still answers queries.
    #[test]
    fn persisted_labels_roundtrip((g, seed) in network_strategy()) {
        let hl = HubLabels::build(&g);
        let path = std::env::temp_dir().join(format!(
            "roadnet_proptest_labels_{seed}_{}.hlbl",
            g.node_count()
        ));
        hl.save(&g, &path).expect("save");
        let back = HubLabels::load(&path, &g).expect("load");
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(&back, &hl);
        let n = g.node_count() as u64;
        let s = ((seed * 13) % n) as NodeId;
        let t = ((seed * 7 + 1) % n) as NodeId;
        prop_assert_eq!(back.distance(s, t), hl.distance(s, t));
    }
}
