//! Uniform-grid moving-object index.

use std::collections::HashMap;

/// Planar position of a moving object in meters.
///
/// The spatial crate keeps its own lightweight position type so that it has
/// no dependency on the road-network crate; callers convert from whatever
/// coordinate type they use (the simulator converts from `roadnet::Point`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// East-west offset in meters.
    pub x: f64,
    /// North-south offset in meters.
    pub y: f64,
}

impl Position {
    /// Creates a position from coordinates in meters.
    pub fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Integer cell coordinates (may be negative: the grid is unbounded).
type Cell = (i64, i64);

/// Counters describing index maintenance work, reported by the ablation
/// benchmarks on grid cell size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Calls to [`GridIndex::update`].
    pub updates: u64,
    /// Updates that moved the object into a different cell (the only ones
    /// that mutate the bucket structure).
    pub cell_crossings: u64,
    /// Radius queries answered.
    pub queries: u64,
    /// Total candidate objects returned across all radius queries.
    pub candidates_returned: u64,
    /// Candidates handed to the dispatcher's screening stage (the size of
    /// the candidate set before any pruning).
    pub candidates_in_radius: u64,
    /// Candidates rejected by the O(1) slack/deadline screen (no feasible
    /// insertion can exist, so no schedule evaluation is performed).
    pub pruned_by_slack: u64,
    /// Candidates skipped by the best-first early exit (their admissible
    /// lower bound already met or exceeded the incumbent assignment).
    pub pruned_by_bound: u64,
    /// Candidates that underwent a full schedule evaluation.
    pub evaluated: u64,
}

/// Uniform-grid spatial index over moving objects identified by `u32` ids.
///
/// Objects are hashed into square cells of side `cell_size`. A radius query
/// visits every cell intersecting the circle and filters candidates by exact
/// Euclidean distance, so results are exact (no false positives or
/// negatives) while the per-update cost stays constant.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell_size: f64,
    /// Object id -> exact position.
    positions: HashMap<u32, Position>,
    /// Cell -> ids of objects currently inside it.
    buckets: HashMap<Cell, Vec<u32>>,
    stats: GridStats,
}

impl GridIndex {
    /// Creates an index with square cells of side `cell_size` meters.
    ///
    /// A good default is the typical query radius (the waiting-time budget
    /// converted to meters): then a query touches at most nine cells.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive.
    pub fn new(cell_size: f64) -> Self {
        assert!(cell_size > 0.0, "cell size must be positive");
        GridIndex {
            cell_size,
            positions: HashMap::new(),
            buckets: HashMap::new(),
            stats: GridStats::default(),
        }
    }

    /// The configured cell side length in meters.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Number of objects currently indexed.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True when no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Maintenance counters.
    pub fn stats(&self) -> GridStats {
        self.stats
    }

    /// Resets the maintenance counters.
    pub fn reset_stats(&mut self) {
        self.stats = GridStats::default();
    }

    fn cell_of(&self, p: Position) -> Cell {
        (
            (p.x / self.cell_size).floor() as i64,
            (p.y / self.cell_size).floor() as i64,
        )
    }

    /// Inserts a new object or repositions an existing one.
    pub fn insert(&mut self, id: u32, pos: Position) {
        match self.positions.insert(id, pos) {
            None => {
                self.buckets.entry(self.cell_of(pos)).or_default().push(id);
            }
            Some(old) => {
                let old_cell = self.cell_of(old);
                let new_cell = self.cell_of(pos);
                if old_cell != new_cell {
                    self.remove_from_bucket(old_cell, id);
                    self.buckets.entry(new_cell).or_default().push(id);
                }
            }
        }
    }

    /// Updates the position of an object that is already indexed.
    ///
    /// This is the hot path during simulation: the bucket structure is only
    /// touched when the object crosses a cell boundary, mirroring the
    /// paper's "the index is updated when a vehicle moves across boundaries
    /// of the index bounding box".
    ///
    /// Returns `true` if the object crossed a cell boundary.
    ///
    /// # Panics
    /// Panics if the object was never inserted.
    pub fn update(&mut self, id: u32, pos: Position) -> bool {
        self.stats.updates += 1;
        let old = *self
            .positions
            .get(&id)
            .expect("update called for an object that was never inserted");
        let old_cell = self.cell_of(old);
        let new_cell = self.cell_of(pos);
        self.positions.insert(id, pos);
        if old_cell != new_cell {
            self.stats.cell_crossings += 1;
            self.remove_from_bucket(old_cell, id);
            self.buckets.entry(new_cell).or_default().push(id);
            true
        } else {
            false
        }
    }

    /// Removes an object; returns its last position if it was present.
    pub fn remove(&mut self, id: u32) -> Option<Position> {
        let pos = self.positions.remove(&id)?;
        self.remove_from_bucket(self.cell_of(pos), id);
        Some(pos)
    }

    /// Exact current position of an object.
    pub fn position(&self, id: u32) -> Option<Position> {
        self.positions.get(&id).copied()
    }

    fn remove_from_bucket(&mut self, cell: Cell, id: u32) {
        if let Some(bucket) = self.buckets.get_mut(&cell) {
            if let Some(i) = bucket.iter().position(|&x| x == id) {
                bucket.swap_remove(i);
            }
            if bucket.is_empty() {
                self.buckets.remove(&cell);
            }
        }
    }

    /// Ids of all objects within Euclidean distance `radius` of `center`,
    /// sorted by id.
    pub fn query_radius(&mut self, center: Position, radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_radius_into(center, radius, &mut out);
        out
    }

    /// Buffer-reusing form of [`GridIndex::query_radius`]: clears `out` and
    /// fills it with the ids of all objects within `radius` of `center`,
    /// sorted by id, so that a caller running many queries can reuse one
    /// buffer instead of allocating per query.
    pub fn query_radius_into(&mut self, center: Position, radius: f64, out: &mut Vec<u32>) {
        self.stats.queries += 1;
        out.clear();
        let r = radius.max(0.0);
        let min_cell = self.cell_of(Position::new(center.x - r, center.y - r));
        let max_cell = self.cell_of(Position::new(center.x + r, center.y + r));
        for cx in min_cell.0..=max_cell.0 {
            for cy in min_cell.1..=max_cell.1 {
                if let Some(bucket) = self.buckets.get(&(cx, cy)) {
                    for &id in bucket {
                        if self.positions[&id].distance(&center) <= r {
                            out.push(id);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        self.stats.candidates_returned += out.len() as u64;
    }

    /// Folds one request's candidate-screening counts into the statistics.
    /// The dispatcher owns the pruning logic; the index owns the counters so
    /// that one `GridStats` snapshot describes the whole filter funnel
    /// (radius query -> slack screen -> best-first early exit -> evaluation).
    pub fn record_pruning(&mut self, in_radius: u64, by_slack: u64, by_bound: u64, evaluated: u64) {
        self.stats.candidates_in_radius += in_radius;
        self.stats.pruned_by_slack += by_slack;
        self.stats.pruned_by_bound += by_bound;
        self.stats.evaluated += evaluated;
    }

    /// The `k` objects nearest to `center` as `(id, distance)`, closest
    /// first. Returns fewer than `k` entries when the index holds fewer
    /// objects.
    pub fn nearest(&self, center: Position, k: usize) -> Vec<(u32, f64)> {
        if k == 0 || self.positions.is_empty() {
            return Vec::new();
        }
        // Expand the search ring by ring of cells until k candidates are
        // found whose distance is certified smaller than anything outside
        // the explored square.
        let center_cell = self.cell_of(center);
        let mut found: Vec<(u32, f64)> = Vec::new();
        let mut ring: i64 = 0;
        // Upper bound on rings: enough to cover every bucket.
        let max_ring = 2 + self
            .buckets
            .keys()
            .map(|&(cx, cy)| (cx - center_cell.0).abs().max((cy - center_cell.1).abs()))
            .max()
            .unwrap_or(0);
        loop {
            // Collect the cells on the boundary of the current ring.
            for cx in (center_cell.0 - ring)..=(center_cell.0 + ring) {
                for cy in (center_cell.1 - ring)..=(center_cell.1 + ring) {
                    let on_boundary =
                        (cx - center_cell.0).abs() == ring || (cy - center_cell.1).abs() == ring;
                    if !on_boundary {
                        continue;
                    }
                    if let Some(bucket) = self.buckets.get(&(cx, cy)) {
                        for &id in bucket {
                            found.push((id, self.positions[&id].distance(&center)));
                        }
                    }
                }
            }
            found.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
            // Anything outside the explored square is at least `ring *
            // cell_size` away from the center (conservatively).
            let safe_radius = ring as f64 * self.cell_size;
            if found.len() >= k && found[k - 1].1 <= safe_radius {
                found.truncate(k);
                return found;
            }
            if ring >= max_ring {
                found.truncate(k);
                return found;
            }
            ring += 1;
        }
    }

    /// Iterates over all `(id, position)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Position)> + '_ {
        self.positions.iter().map(|(&id, &p)| (id, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_radius(objects: &[(u32, Position)], center: Position, r: f64) -> Vec<u32> {
        let mut v: Vec<u32> = objects
            .iter()
            .filter(|(_, p)| p.distance(&center) <= r)
            .map(|&(id, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut idx = GridIndex::new(100.0);
        idx.insert(1, Position::new(10.0, 10.0));
        idx.insert(2, Position::new(500.0, 500.0));
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.query_radius(Position::new(0.0, 0.0), 50.0), vec![1]);
        assert_eq!(idx.position(2), Some(Position::new(500.0, 500.0)));
        assert_eq!(idx.remove(1), Some(Position::new(10.0, 10.0)));
        assert_eq!(idx.remove(1), None);
        assert_eq!(idx.len(), 1);
        assert!(idx.query_radius(Position::new(0.0, 0.0), 50.0).is_empty());
    }

    #[test]
    fn update_counts_cell_crossings() {
        let mut idx = GridIndex::new(100.0);
        idx.insert(1, Position::new(10.0, 10.0));
        assert!(!idx.update(1, Position::new(20.0, 20.0))); // same cell
        assert!(idx.update(1, Position::new(150.0, 10.0))); // crossed
        assert!(!idx.update(1, Position::new(160.0, 20.0)));
        let s = idx.stats();
        assert_eq!(s.updates, 3);
        assert_eq!(s.cell_crossings, 1);
        // The object is findable at its new cell only.
        assert_eq!(idx.query_radius(Position::new(150.0, 0.0), 50.0), vec![1]);
        assert!(idx.query_radius(Position::new(0.0, 0.0), 50.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "never inserted")]
    fn update_of_unknown_object_panics() {
        let mut idx = GridIndex::new(10.0);
        idx.update(99, Position::new(0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_size_rejected() {
        let _ = GridIndex::new(0.0);
    }

    #[test]
    fn radius_query_matches_brute_force() {
        // Deterministic pseudo-random layout without pulling in rand.
        let mut objects = Vec::new();
        let mut state: u64 = 12345;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 10_000.0 - 5_000.0
        };
        for id in 0..300u32 {
            objects.push((id, Position::new(next(), next())));
        }
        let mut idx = GridIndex::new(777.0);
        for &(id, p) in &objects {
            idx.insert(id, p);
        }
        for (center, r) in [
            (Position::new(0.0, 0.0), 1_000.0),
            (Position::new(2_500.0, -2_500.0), 3_000.0),
            (Position::new(-4_900.0, 4_900.0), 200.0),
            (Position::new(0.0, 0.0), 0.0),
            (Position::new(123.0, 456.0), 20_000.0),
        ] {
            assert_eq!(
                idx.query_radius(center, r),
                brute_radius(&objects, center, r),
                "center {center:?} radius {r}"
            );
        }
        assert_eq!(idx.stats().queries, 5);
    }

    #[test]
    fn negative_coordinates_are_handled() {
        let mut idx = GridIndex::new(50.0);
        idx.insert(1, Position::new(-10.0, -10.0));
        idx.insert(2, Position::new(-120.0, -80.0));
        assert_eq!(
            idx.query_radius(Position::new(-100.0, -100.0), 60.0),
            vec![2]
        );
        assert_eq!(
            idx.query_radius(Position::new(-60.0, -45.0), 100.0),
            vec![1, 2]
        );
    }

    #[test]
    fn nearest_returns_k_closest() {
        let mut idx = GridIndex::new(100.0);
        idx.insert(1, Position::new(0.0, 0.0));
        idx.insert(2, Position::new(50.0, 0.0));
        idx.insert(3, Position::new(500.0, 0.0));
        idx.insert(4, Position::new(5_000.0, 0.0));
        let got = idx.nearest(Position::new(10.0, 0.0), 2);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 1);
        assert_eq!(got[1].0, 2);
        assert!(got[0].1 < got[1].1);
        // Asking for more than available returns everything.
        assert_eq!(idx.nearest(Position::new(0.0, 0.0), 10).len(), 4);
        assert!(idx.nearest(Position::new(0.0, 0.0), 0).is_empty());
    }

    #[test]
    fn nearest_matches_brute_force_ranking() {
        let mut objects = Vec::new();
        let mut state: u64 = 98765;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) * 8_000.0
        };
        let mut idx = GridIndex::new(400.0);
        for id in 0..200u32 {
            let p = Position::new(next(), next());
            objects.push((id, p));
            idx.insert(id, p);
        }
        let center = Position::new(4_000.0, 4_000.0);
        let got = idx.nearest(center, 5);
        let mut want: Vec<(u32, f64)> = objects
            .iter()
            .map(|&(id, p)| (id, p.distance(&center)))
            .collect();
        want.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        want.truncate(5);
        let got_ids: Vec<u32> = got.iter().map(|&(id, _)| id).collect();
        let want_ids: Vec<u32> = want.iter().map(|&(id, _)| id).collect();
        assert_eq!(got_ids, want_ids);
    }

    #[test]
    fn iter_exposes_all_objects() {
        let mut idx = GridIndex::new(10.0);
        idx.insert(5, Position::new(1.0, 1.0));
        idx.insert(6, Position::new(2.0, 2.0));
        let mut ids: Vec<u32> = idx.iter().map(|(id, _)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![5, 6]);
        assert!(!idx.is_empty());
        assert_eq!(idx.cell_size(), 10.0);
    }

    #[test]
    fn query_radius_into_reuses_the_buffer() {
        let mut idx = GridIndex::new(100.0);
        idx.insert(1, Position::new(10.0, 10.0));
        idx.insert(2, Position::new(30.0, 0.0));
        idx.insert(3, Position::new(5_000.0, 0.0));
        let mut buf = vec![99u32; 8];
        idx.query_radius_into(Position::new(0.0, 0.0), 50.0, &mut buf);
        assert_eq!(buf, vec![1, 2]);
        // A second query with the same buffer fully replaces the contents.
        idx.query_radius_into(Position::new(5_000.0, 0.0), 10.0, &mut buf);
        assert_eq!(buf, vec![3]);
        assert_eq!(idx.stats().queries, 2);
        assert_eq!(idx.stats().candidates_returned, 3);
        // Allocating and buffer-reusing forms agree.
        assert_eq!(idx.query_radius(Position::new(0.0, 0.0), 50.0), vec![1, 2]);
    }

    #[test]
    fn pruning_counters_accumulate() {
        let mut idx = GridIndex::new(100.0);
        idx.record_pruning(10, 4, 3, 3);
        idx.record_pruning(5, 0, 2, 3);
        let s = idx.stats();
        assert_eq!(s.candidates_in_radius, 15);
        assert_eq!(s.pruned_by_slack, 4);
        assert_eq!(s.pruned_by_bound, 5);
        assert_eq!(s.evaluated, 6);
        idx.reset_stats();
        assert_eq!(idx.stats(), GridStats::default());
    }

    #[test]
    fn stats_reset() {
        let mut idx = GridIndex::new(10.0);
        idx.insert(1, Position::new(0.0, 0.0));
        idx.update(1, Position::new(100.0, 0.0));
        idx.query_radius(Position::new(0.0, 0.0), 5.0);
        assert_ne!(idx.stats(), GridStats::default());
        idx.reset_stats();
        assert_eq!(idx.stats(), GridStats::default());
    }
}
