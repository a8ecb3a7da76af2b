//! Property-based tests of the moving-object grid index.

use proptest::prelude::*;
use spatial::{GridIndex, Position};

#[derive(Debug, Clone)]
enum Op {
    Insert(u32, f64, f64),
    Update(u32, f64, f64),
    Remove(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..30, -5_000.0f64..5_000.0, -5_000.0f64..5_000.0)
            .prop_map(|(id, x, y)| Op::Insert(id, x, y)),
        (0u32..30, -5_000.0f64..5_000.0, -5_000.0f64..5_000.0)
            .prop_map(|(id, x, y)| Op::Update(id, x, y)),
        (0u32..30).prop_map(Op::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After an arbitrary sequence of inserts/updates/removes, radius
    /// queries return exactly the objects a brute-force scan finds.
    #[test]
    fn index_matches_brute_force(
        ops in prop::collection::vec(op_strategy(), 1..120),
        cell in 50.0f64..3_000.0,
        qx in -5_000.0f64..5_000.0,
        qy in -5_000.0f64..5_000.0,
        radius in 0.0f64..6_000.0,
    ) {
        let mut idx = GridIndex::new(cell);
        let mut truth: std::collections::HashMap<u32, Position> = std::collections::HashMap::new();
        for op in ops {
            match op {
                Op::Insert(id, x, y) => {
                    idx.insert(id, Position::new(x, y));
                    truth.insert(id, Position::new(x, y));
                }
                Op::Update(id, x, y) => {
                    if truth.contains_key(&id) {
                        idx.update(id, Position::new(x, y));
                        truth.insert(id, Position::new(x, y));
                    }
                }
                Op::Remove(id) => {
                    let a = idx.remove(id);
                    let b = truth.remove(&id);
                    prop_assert_eq!(a.is_some(), b.is_some());
                }
            }
            prop_assert_eq!(idx.len(), truth.len());
        }
        let centre = Position::new(qx, qy);
        let got = idx.query_radius(centre, radius);
        let mut want: Vec<u32> = truth
            .iter()
            .filter(|(_, p)| p.distance(&centre) <= radius)
            .map(|(&id, _)| id)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// `cells_by_distance` is `query_radius` answered cell by cell: the
    /// same count, the same members once the listed cells are filtered by
    /// `Position::within`, and cells nearest-first with `near` a true lower
    /// bound — over random layouts with negative coordinates, objects and
    /// centres on cell borders and corners, and radii of zero, under a
    /// metre, and city-sized.
    #[test]
    fn cells_by_distance_is_the_radius_query_nearest_first(
        points in prop::collection::vec((coord(), coord()), 0..80),
        moves in prop::collection::vec((0usize..80, coord(), coord()), 0..20),
        cell in 50.0f64..3_000.0,
        centre in (coord(), coord()),
        radius_kind in 0u32..3,
        radius_draw in 0.0f64..1.0,
    ) {
        let mut idx = GridIndex::new(cell);
        let at = |(x, y): (Coord, Coord)| Position::new(x.meters(cell), y.meters(cell));
        for (i, &p) in points.iter().enumerate() {
            idx.insert(i as u32, at(p));
        }
        for &(i, x, y) in &moves {
            if i < points.len() {
                idx.update(i as u32, at((x, y)));
            }
        }
        let centre = at(centre);
        let radius = match radius_kind {
            0 => 0.0,
            1 => radius_draw,
            _ => radius_draw * 20_000.0,
        };
        let want = idx.query_radius(centre, radius);
        let mut cells = Vec::new();
        let count = idx.cells_by_distance(centre, radius, &mut cells);
        prop_assert_eq!(count, want.len());
        let mut got = Vec::new();
        for pair in cells.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "cells out of order: {:?}", pair);
        }
        for &(near, c) in &cells {
            prop_assert!(!idx.cell(c).is_empty(), "empty cell {:?} listed", c);
            prop_assert!(near <= radius.max(0.0), "cell {:?} at {} misses the disc", c, near);
            for &(id, p) in idx.cell(c) {
                prop_assert!(p.distance(&centre) >= near, "{} in {:?} nearer than {}", id, c, near);
                if p.within(centre, radius) {
                    got.push(id);
                }
            }
        }
        got.sort_unstable();
        prop_assert_eq!(got, want);
        let stats = idx.stats();
        prop_assert_eq!((stats.queries, stats.candidates_returned), (2, 2 * count as u64));
    }
}

/// One coordinate: anywhere in a 10 km square around the origin, exactly on
/// a cell border, or a hair either side of one.
#[derive(Debug, Clone, Copy)]
enum Coord {
    Free(f64),
    Border(i64, f64),
}

impl Coord {
    fn meters(self, cell: f64) -> f64 {
        match self {
            Coord::Free(x) => x,
            Coord::Border(k, nudge) => k as f64 * cell + nudge,
        }
    }
}

fn coord() -> impl Strategy<Value = Coord> {
    prop_oneof![
        (-5_000.0f64..5_000.0).prop_map(Coord::Free),
        (-6i64..6).prop_map(|k| Coord::Border(k, 0.0)),
        (-6i64..6, 0u32..2)
            .prop_map(|(k, side)| Coord::Border(k, if side == 0 { -1e-9 } else { 1e-9 })),
    ]
}
