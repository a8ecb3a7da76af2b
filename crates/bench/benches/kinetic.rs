//! Micro-benchmarks of the kinetic tree: insertion cost as the number of
//! active trips grows, ablation of slack-time filtering and hotspot
//! clustering, and the cost of advancing/re-rooting the tree as the vehicle
//! moves — the per-call view behind Fig. 7/9. Each insertion is timed twice:
//! `build` (`try_insert`, the augmented tree a commit adopts) and `probe`
//! (`probe_insert`, the same cost without the tree, which is what the
//! dispatcher pays per candidate).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kinetic_core::{KineticConfig, KineticTree, WaitingTrip};
use roadnet::{DistanceOracle, GeneratorConfig, MatrixOracle, NetworkKind};

fn oracle() -> MatrixOracle {
    let g = GeneratorConfig {
        kind: NetworkKind::Grid { rows: 12, cols: 12 },
        seed: 9,
        ..GeneratorConfig::default()
    }
    .generate();
    MatrixOracle::new(&g)
}

fn trip(oracle: &MatrixOracle, id: u64, seed: u64, eps: f64) -> WaitingTrip {
    let n = oracle.node_count() as u64;
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(id + 1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let pickup = (next() % n) as u32;
    let mut dropoff = (next() % n) as u32;
    if dropoff == pickup {
        dropoff = (dropoff + 1) % n as u32;
    }
    WaitingTrip {
        trip: id,
        pickup,
        dropoff,
        pickup_deadline: 12_000.0,
        max_ride: oracle.dist(pickup, dropoff) * (1.0 + eps),
    }
}

/// Builds a tree holding `active` trips.
fn tree_with(
    oracle: &MatrixOracle,
    config: KineticConfig,
    active: usize,
    seed: u64,
) -> KineticTree {
    let mut tree = KineticTree::new(0, 0.0, 16, config);
    let mut id = 0u64;
    while tree.active_trips() < active {
        let t = trip(oracle, id, seed, 0.6);
        id += 1;
        if let Ok((next, _)) = tree.try_insert(t, oracle) {
            tree = next;
        }
        if id > 200 {
            break;
        }
    }
    tree
}

fn bench_insertion_by_size(c: &mut Criterion) {
    let oracle = oracle();
    let mut group = c.benchmark_group("kinetic_insert_by_active_trips");
    for active in [0usize, 2, 4, 6] {
        let tree = tree_with(&oracle, KineticConfig::slack(), active, 5);
        let new_trip = trip(&oracle, 999, 77, 0.6);
        group.bench_with_input(BenchmarkId::new("build", active), &active, |b, _| {
            b.iter(|| tree.try_insert(new_trip, &oracle).is_ok())
        });
        group.bench_with_input(BenchmarkId::new("probe", active), &active, |b, _| {
            b.iter(|| tree.probe_insert(new_trip, &oracle).is_ok())
        });
    }
    group.finish();
}

fn bench_variants(c: &mut Criterion) {
    let oracle = oracle();
    let mut group = c.benchmark_group("kinetic_variant_insert_at_5_trips");
    let variants = [
        ("basic", KineticConfig::basic()),
        ("slack", KineticConfig::slack()),
        ("hotspot", KineticConfig::hotspot(300.0)),
    ];
    for (name, config) in variants {
        let tree = tree_with(&oracle, config, 5, 11);
        let new_trip = trip(&oracle, 998, 33, 0.6);
        group.bench_with_input(BenchmarkId::new("build", name), name, |b, _| {
            b.iter(|| tree.try_insert(new_trip, &oracle).is_ok())
        });
        group.bench_with_input(BenchmarkId::new("probe", name), name, |b, _| {
            b.iter(|| tree.probe_insert(new_trip, &oracle).is_ok())
        });
    }
    group.finish();
}

fn bench_advance_and_reroot(c: &mut Criterion) {
    let oracle = oracle();
    let tree = tree_with(&oracle, KineticConfig::slack(), 5, 21);
    c.bench_function("kinetic_advance_to_next_stop", |b| {
        b.iter(|| {
            let mut t = tree.clone();
            let (_, route) = t.best_route().unwrap();
            t.advance_to(route[0]).unwrap();
            t.stats().nodes
        })
    });
    c.bench_function("kinetic_reroot", |b| {
        let mut t = tree.clone();
        let mut node = 0u32;
        b.iter(|| {
            node = (node + 1) % oracle.node_count() as u32;
            t.reroot(node, 0.0, &oracle);
            t.stats().nodes
        })
    });
    c.bench_function("kinetic_best_route", |b| {
        b.iter(|| tree.best_route().map(|(c, _)| c))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(15)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_insertion_by_size,
    bench_variants,
    bench_advance_and_reroot
}
criterion_main!(benches);
