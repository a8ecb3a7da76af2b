//! Micro-benchmarks of the moving-object grid index: update cost (with and
//! without cell crossings) and radius-query cost at several cell sizes, and
//! the nearest-first cell listing the dispatcher reads candidates from —
//! the ablation DESIGN.md calls out for the index the paper chose over
//! heavier moving-object structures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spatial::{GridIndex, Position};

fn populated_index(cell: f64, objects: u32) -> GridIndex {
    let mut idx = GridIndex::new(cell);
    let mut state = 0x1234_5678_u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) as f64 / (1u64 << 31) as f64) * 50_000.0
    };
    for id in 0..objects {
        idx.insert(id, Position::new(next(), next()));
    }
    idx
}

fn bench_updates(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_update");
    for &cell in &[500.0, 2_000.0, 8_000.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(cell as u64),
            &cell,
            |b, &cell| {
                let mut idx = populated_index(cell, 17_000);
                let mut step = 0u32;
                b.iter(|| {
                    let id = step % 17_000;
                    let jitter = (step % 100) as f64 * 7.0;
                    idx.update(id, Position::new(25_000.0 + jitter, 25_000.0 - jitter));
                    step += 1;
                })
            },
        );
    }
    group.finish();
}

fn bench_radius_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_radius_query");
    for &cell in &[500.0, 2_000.0, 8_000.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(cell as u64),
            &cell,
            |b, &cell| {
                let mut idx = populated_index(cell, 17_000);
                let mut step = 0u64;
                b.iter(|| {
                    let x = (step % 50) as f64 * 1_000.0;
                    step += 1;
                    idx.query_radius(Position::new(x, 25_000.0), 8_400.0).len()
                })
            },
        );
    }
    group.finish();
}

fn bench_cells_by_distance(c: &mut Criterion) {
    c.bench_function("grid_cells_by_distance_2000", |b| {
        let mut idx = populated_index(2_000.0, 17_000);
        let mut cells = Vec::new();
        let mut step = 0u64;
        b.iter(|| {
            let x = (step % 50) as f64 * 1_000.0;
            step += 1;
            idx.cells_by_distance(Position::new(x, 25_000.0), 8_400.0, &mut cells)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(15)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets = bench_updates, bench_radius_queries, bench_cells_by_distance
}
criterion_main!(benches);
