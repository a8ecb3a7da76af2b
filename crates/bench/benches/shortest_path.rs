//! Micro-benchmarks of the two shortest-path engines — Dijkstra, the
//! reference, and hub labels, the oracle — and of the cached oracle's hits
//! and misses. Label construction is timed in `hub_label_build.rs`.
//!
//! Backs the paper's claim that the distance computation is the hot loop of
//! large-scale matching and that hub labels + an LRU cache keep it cheap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rideshare_bench::shared_endpoint_runs;
use roadnet::{
    CachedOracle, DijkstraEngine, DistanceOracle, GeneratorConfig, HubLabels, NetworkKind, NodeId,
    OracleBackend, ShortestPathEngine,
};

fn network(rows: usize, cols: usize) -> roadnet::RoadNetwork {
    GeneratorConfig {
        kind: NetworkKind::Grid { rows, cols },
        seed: 7,
        edge_dropout: 0.05,
        arterials: true,
        ..GeneratorConfig::default()
    }
    .generate()
}

fn query_pairs(n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|i| (((i * 37) % n) as NodeId, ((i * 101 + 13) % n) as NodeId))
        .collect()
}

fn bench_point_to_point(c: &mut Criterion) {
    let g = network(40, 40);
    let n = g.node_count();
    let pairs = query_pairs(n, 64);
    let mut group = c.benchmark_group("point_to_point_40x40");
    group.bench_function("dijkstra", |b| {
        let e = DijkstraEngine::new(&g);
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            e.distance(s, t)
        })
    });
    group.bench_function("hub_labels_query", |b| {
        let hl = HubLabels::build(&g);
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            hl.distance(s, t)
        })
    });
    // What an oracle path miss costs: the point-to-point search it used to
    // run, and the label unpack that replaced it.
    group.bench_function("dijkstra_path", |b| {
        let e = DijkstraEngine::new(&g);
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            e.path(s, t)
        })
    });
    group.bench_function("hub_labels_path", |b| {
        let hl = HubLabels::build(&g);
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            hl.path(s, t)
        })
    });
    group.finish();
}

fn bench_cached_oracle(c: &mut Criterion) {
    let g = network(30, 30);
    let n = g.node_count();
    let pairs = query_pairs(n, 32);
    let mut group = c.benchmark_group("cached_oracle");
    for (name, dist_cap) in [("cache_off", 0usize), ("cache_1m", 1_000_000)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &dist_cap, |b, &cap| {
            let oracle = CachedOracle::with_options(&g, OracleBackend::Dijkstra, cap, 1_000);
            let mut i = 0;
            b.iter(|| {
                let (s, t) = pairs[i % pairs.len()];
                i += 1;
                oracle.dist(s, t)
            })
        });
    }
    // What a distance miss costs on hub labels (zero-capacity caches make
    // every call one): over runs that share an endpoint, as a dispatcher
    // probes a request's pickup, and over pairs whose endpoints do not
    // repeat (the worst case for labels kept spread between queries).
    let labels = HubLabels::build(&g);
    let random = query_pairs(n, 512);
    let shared = shared_endpoint_runs(&random);
    for (name, queries) in [
        ("oracle_miss_shared_endpoint", &shared),
        ("oracle_miss_random", &random),
    ] {
        group.bench_function(name, |b| {
            let oracle = CachedOracle::with_labels(&g, labels.clone(), 0, 0);
            let mut i = 0;
            b.iter(|| {
                let (s, t) = queries[i % queries.len()];
                i += 1;
                oracle.dist(s, t)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(15)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_point_to_point, bench_cached_oracle
}
criterion_main!(benches);
