//! Property: every distance oracle keeps the metric contract that the
//! scheduling layer prunes on (`DistanceOracle`, "Metric contract"), bit
//! for bit and with no tolerance.
//!
//! The kinetic tree reads a cached leg as the shortest distance from its
//! parent and bounds a leg it has not asked by the triangle inequality:
//! the late cut by `d(x, s) <= d(x, y) + d(y, s)`, and a new stop's leg to
//! an old child by `|d(x, c) − d(x, n)| <= d(n, c)`, which also needs
//! symmetry. Each is held here on generated grids and cities, through the
//! production oracle with a cold cache, a warm cache and no cache, and
//! through the label-free `MatrixOracle`; all four must also agree.

use proptest::prelude::*;
use ridesharing::roadnet::{
    CachedOracle, DistanceOracle, GeneratorConfig, HubLabels, MatrixOracle, NetworkKind, NodeId,
    RoadNetwork,
};
use ridesharing::workload::{CityConfig, CityLayout};

/// A grid with dead ends and arterials, a grid city, or a ring-radial
/// city, of about `size²` vertices.
fn network(kind: u32, size: usize, seed: u64) -> RoadNetwork {
    match kind {
        0 => GeneratorConfig {
            kind: NetworkKind::Grid {
                rows: size,
                cols: size + 1,
            },
            seed,
            edge_dropout: 0.1,
            arterials: true,
            ..GeneratorConfig::default()
        }
        .generate(),
        1 => {
            CityConfig {
                rows: size,
                cols: size,
                ..CityConfig::small()
            }
            .build(seed)
            .0
        }
        _ => {
            CityConfig {
                layout: CityLayout::RingRadial {
                    rings: size / 2,
                    spokes: size + 1,
                },
                ..CityConfig::ring_city()
            }
            .build(seed)
            .0
        }
    }
}

/// One oracle's `dist`, however it is asked.
type Dist<'a> = &'a dyn Fn(NodeId, NodeId) -> f64;

/// Checks the contract on `triples` through `dist`, naming `oracle`.
fn assert_metric(oracle: &str, dist: Dist<'_>, triples: &[[NodeId; 3]]) {
    for &[s, t, u] in triples {
        let st = dist(s, t);
        assert_eq!(
            st.to_bits(),
            dist(t, s).to_bits(),
            "{oracle}: d({s}, {t}) is not d({t}, {s})"
        );
        let (su, ut) = (dist(s, u), dist(u, t));
        assert!(
            st <= su + ut,
            "{oracle}: d({s}, {t}) = {st} > d({s}, {u}) + d({u}, {t}) = {su} + {ut}"
        );
        let (us, ut) = (dist(u, s), dist(u, t));
        assert!(
            (us - ut).abs() <= st,
            "{oracle}: |d({u}, {s}) − d({u}, {t})| = |{us} − {ut}| > d({s}, {t}) = {st}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_oracle_is_an_exact_metric(
        kind in 0u32..3,
        size in 3usize..9,
        seed in 0u64..1_000,
        picks in proptest::collection::vec((0u32..10_000, 0u32..10_000, 0u32..10_000), 24..48),
    ) {
        let g = network(kind, size, seed);
        let n = g.node_count() as u32;
        let triples: Vec<[NodeId; 3]> = picks.iter().map(|&(s, t, u)| [s % n, t % n, u % n]).collect();
        let labels = HubLabels::build(&g);
        let matrix = MatrixOracle::new(&g);
        let cold = CachedOracle::with_labels(&g, labels.clone(), 4_096, 0);
        let warm = CachedOracle::with_labels(&g, labels.clone(), 4_096, 0);
        let uncached = CachedOracle::with_labels(&g, labels, 0, 0);
        for &[s, t, u] in &triples {
            for (a, b) in [(s, t), (t, s), (s, u), (u, s), (u, t), (t, u)] {
                warm.dist(a, b);
            }
        }
        let cold_dist = |s, t| {
            cold.clear_caches();
            cold.dist(s, t)
        };
        let oracles: [(&str, Dist<'_>); 4] = [
            ("matrix", &|s, t| matrix.dist(s, t)),
            ("cold cache", &cold_dist),
            ("warm cache", &|s, t| warm.dist(s, t)),
            ("no cache", &|s, t| uncached.dist(s, t)),
        ];
        for (name, dist) in oracles {
            assert_metric(name, dist, &triples);
            for &[s, t, _] in &triples {
                prop_assert_eq!(dist(s, t).to_bits(), matrix.dist(s, t).to_bits(), "{}: d({}, {})", name, s, t);
            }
        }
        prop_assert!(warm.stats().distance_hit_rate() > 0.0);
    }
}
