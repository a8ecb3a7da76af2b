//! Property-based tests of the contraction-ordered hub-label pipeline:
//! exactness of distances and unpacked paths against Dijkstra on random
//! generator networks (jittered, and zero-jitter where ties are
//! everywhere), bit-identity of the oracle's distance miss path with the
//! label merge, and persistence round-trips.

use proptest::prelude::*;
use roadnet::{
    CachedOracle, DijkstraEngine, DistanceOracle, GeneratorConfig, GraphBuilder, HubLabels,
    NetworkKind, NodeId, Point, RoadNetwork, ShortestPathEngine, INFINITY,
};

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

/// `g` plus a two-vertex component of its own. The generators return
/// connected networks whatever the dropout, so this is where a query
/// sequence meets pairs with no common hub.
fn with_island(g: &RoadNetwork) -> RoadNetwork {
    let mut b = GraphBuilder::new();
    for &p in g.points() {
        b.add_node(p);
    }
    for (u, v, w) in g.edges() {
        b.add_edge(u, v, w);
    }
    let shore = b.add_node(Point::new(-500.0, -500.0));
    let reef = b.add_node(Point::new(-500.0, -600.0));
    b.add_edge(shore, reef, 100.0);
    b.build()
}

/// A query sequence drawn from `(kind, a, b)` triples: fresh pairs, the
/// previous query with one endpoint kept on either side (how a dispatcher
/// probes a request's pickup and drop-off), the previous query reversed,
/// and `s == t`.
fn query_sequence(steps: &[(u8, u32, u32)], n: usize) -> Vec<(NodeId, NodeId)> {
    let n = n as u32;
    let mut out: Vec<(NodeId, NodeId)> = Vec::with_capacity(steps.len());
    for &(kind, a, b) in steps {
        let (ps, pt) = out.last().copied().unwrap_or((a % n, b % n));
        out.push(match kind {
            0 => (a % n, b % n),
            1 => (ps, b % n),
            2 => (a % n, ps),
            3 => (pt, a % n),
            4 => (pt, ps),
            _ => (a % n, a % n),
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Whatever was asked before, every oracle's `dist` is the label merge
    /// of the pair, low id first, bit for bit: through zero-capacity caches
    /// (every call a miss, answered from labels kept spread by earlier
    /// queries), through warm caches (one entry per unordered pair) and
    /// through caches small enough to evict all the time, and through a
    /// single four-way set that every pair conflicts in, under unique and
    /// under tied distances.
    #[test]
    fn oracle_distances_equal_the_label_merge_bit_for_bit(
        (g, _seed) in prop_oneof![network_strategy(), tied_network_strategy()],
        steps in proptest::collection::vec((0u8..6, 0u32..1 << 30, 0u32..1 << 30), 1..120),
    ) {
        let g = with_island(&g);
        let hl = HubLabels::build(&g);
        let cold = CachedOracle::with_labels(&g, hl.clone(), 0, 0);
        let warm = CachedOracle::with_labels(&g, hl.clone(), 64, 0);
        let evicting = CachedOracle::with_labels(&g, hl.clone(), 16, 0);
        let one_set = CachedOracle::with_labels(&g, hl.clone(), 4, 0);
        for (s, t) in query_sequence(&steps, g.node_count()) {
            let merged = hl.distance(s.min(t), s.max(t)).unwrap_or(INFINITY).to_bits();
            prop_assert_eq!(cold.dist(s, t).to_bits(), merged, "cold ({}, {})", s, t);
            prop_assert_eq!(warm.dist(s, t).to_bits(), merged, "warm ({}, {})", s, t);
            prop_assert_eq!(evicting.dist(s, t).to_bits(), merged, "evicting ({}, {})", s, t);
            prop_assert_eq!(one_set.dist(s, t).to_bits(), merged, "one set ({}, {})", s, t);
        }
        prop_assert_eq!(cold.stats().distance_cache_hits, 0);
    }

    /// Contraction-ordered labels answer every sampled query exactly like
    /// Dijkstra, on grids and ring-radial networks alike.
    #[test]
    fn contraction_labels_match_dijkstra((g, seed) in network_strategy()) {
        let hl = HubLabels::build(&g);
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
        let hl = HubLabels::build(&g);
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
        let hl = HubLabels::build(&g);
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

    /// On the 2⁻¹⁶ m grid sums are exact: the edge weights along an
    /// unpacked path add up to the label distance bit for bit, in path
    /// order, whatever the ties, and a distance reads the same both ways.
    #[test]
    fn path_weights_sum_to_the_label_distance_bit_for_bit(
        (g, seed) in prop_oneof![network_strategy(), tied_network_strategy()],
    ) {
        let hl = HubLabels::build(&g);
        for (s, t) in sampled_pairs(g.node_count(), seed) {
            let d = hl.distance(s, t).expect("generated networks are connected");
            let p = hl.path(s, t).expect("a path unpacks");
            let sum = p.windows(2).fold(0.0, |acc, w| acc + g.edge_weight(w[0], w[1]).unwrap());
            prop_assert_eq!(sum.to_bits(), d.to_bits(), "{}->{}: {} vs {}", s, t, sum, d);
            prop_assert_eq!(hl.distance(t, s).map(f64::to_bits), Some(d.to_bits()));
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
