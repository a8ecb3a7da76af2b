//! Hub-label construction benchmarks — the workspace's only ones: the
//! contraction-ordered build across network sizes and the batched parallel
//! build across worker counts, reported as nodes/second via
//! `Throughput::Elements`.
//!
//! Construction that stays near-linear in the network size is what makes
//! `Scale::Paper` label builds feasible (see `BENCH_hublabel.json` from
//! `bench_summary` for the paper-scale headline numbers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use roadnet::{GeneratorConfig, HubLabels, NetworkKind};
use workpool::WorkPool;

fn network(side: usize) -> roadnet::RoadNetwork {
    GeneratorConfig {
        kind: NetworkKind::Grid {
            rows: side,
            cols: side,
        },
        seed: 7,
        edge_dropout: 0.05,
        arterials: true,
        ..GeneratorConfig::default()
    }
    .generate()
}

/// Contraction-ordered build across network sizes (nodes/sec should stay
/// roughly flat).
fn bench_contraction_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("hub_label_build_contraction");
    group.sample_size(10);
    for side in [20usize, 40, 60] {
        let g = network(side);
        group.throughput(Throughput::Elements(g.node_count() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(side), &side, |b, _| {
            b.iter(|| HubLabels::build(&g).total_label_entries())
        });
    }
    group.finish();
}

/// Worker-count sweep of the rank-batched parallel build (bit-identical
/// output at every worker count; this measures the wall-clock effect).
fn bench_parallel_build(c: &mut Criterion) {
    let g = network(40);
    let nodes = g.node_count() as u64;
    let mut group = c.benchmark_group("hub_label_build_workers_40x40");
    group.sample_size(10);
    group.throughput(Throughput::Elements(nodes));
    for workers in [1usize, 2, 4] {
        let pool = WorkPool::new(workers);
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            b.iter(|| HubLabels::build_with_pool(&g, &pool).total_label_entries())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_contraction_scaling, bench_parallel_build
}
criterion_main!(benches);
