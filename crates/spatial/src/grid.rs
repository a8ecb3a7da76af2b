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

    /// True when this position lies within Euclidean distance `radius` of
    /// `center` (a negative radius reads as zero): the one membership test
    /// every radius query of [`GridIndex`] applies.
    pub fn within(&self, center: Position, radius: f64) -> bool {
        self.distance(&center) <= radius.max(0.0)
    }
}

/// Integer cell coordinates (may be negative: the grid is unbounded).
pub type Cell = (i64, i64);

/// Counters describing index maintenance work, reported by the ablation
/// benchmarks on grid cell size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Calls to [`GridIndex::update`].
    pub updates: u64,
    /// Updates that moved the object into a different cell (the only ones
    /// that mutate the bucket structure).
    pub cell_crossings: u64,
    /// Radius queries answered ([`GridIndex::query_radius`] and
    /// [`GridIndex::cells_by_distance`]).
    pub queries: u64,
    /// Total objects inside the radius across all queries.
    pub candidates_returned: u64,
    /// Candidates handed to the dispatcher's screening stage (the size of
    /// the candidate set before any pruning).
    pub candidates_in_radius: u64,
    /// Candidates rejected by the O(1) slack/deadline screen (no feasible
    /// insertion can exist, so no schedule evaluation is performed).
    pub pruned_by_slack: u64,
    /// Candidates that passed that screen but failed it again when they
    /// reached the front of the best-first order and were screened with
    /// their road distances instead of straight lines.
    pub pruned_by_reach: u64,
    /// Screened candidates skipped by the best-first early exit (their
    /// admissible lower bound already met or exceeded the incumbent
    /// assignment). Candidates the early exit left unscreened are in
    /// none of the three pruning counts.
    pub pruned_by_bound: u64,
    /// Candidates that underwent a full schedule evaluation.
    pub evaluated: u64,
}

/// Uniform-grid spatial index over moving objects identified by `u32` ids.
///
/// Objects are hashed into square cells of side `cell_size`; each cell's
/// bucket holds its objects' ids with their exact positions inline. A
/// radius query visits every cell intersecting the circle and filters
/// candidates by exact Euclidean distance ([`Position::within`]), so
/// results are exact (no false positives or negatives) while the
/// per-update cost stays constant.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell_size: f64,
    /// Object id -> its cell and its slot in that cell's bucket.
    slots: HashMap<u32, (Cell, usize)>,
    /// Cell -> the objects currently inside it, with their exact positions.
    buckets: HashMap<Cell, Vec<(u32, Position)>>,
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
            slots: HashMap::new(),
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
        self.slots.len()
    }

    /// True when no objects are indexed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
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
        if self.relocate(id, pos).is_none() {
            self.put(id, pos, self.cell_of(pos));
        }
    }

    /// Updates the position of an object that is already indexed.
    ///
    /// This is the hot path during simulation: the bucket structure is only
    /// touched when the object crosses a cell boundary, mirroring the
    /// paper's "the index is updated when a vehicle moves across boundaries
    /// of the index bounding box"; within a cell only the inline position
    /// is rewritten.
    ///
    /// Returns `true` if the object crossed a cell boundary.
    ///
    /// # Panics
    /// Panics if the object was never inserted.
    pub fn update(&mut self, id: u32, pos: Position) -> bool {
        self.stats.updates += 1;
        let crossed = self
            .relocate(id, pos)
            .expect("update called for an object that was never inserted");
        self.stats.cell_crossings += crossed as u64;
        crossed
    }

    /// Removes an object; returns its last position if it was present.
    pub fn remove(&mut self, id: u32) -> Option<Position> {
        let (cell, slot) = self.slots.remove(&id)?;
        self.take(cell, slot)
    }

    /// Exact current position of an object.
    pub fn position(&self, id: u32) -> Option<Position> {
        let &(cell, slot) = self.slots.get(&id)?;
        self.cell(cell).get(slot).map(|&(_, p)| p)
    }

    /// Moves an indexed object to `pos`: `Some(crossed a cell boundary)`,
    /// or `None` when `id` is not indexed.
    fn relocate(&mut self, id: u32, pos: Position) -> Option<bool> {
        let &(cell, slot) = self.slots.get(&id)?;
        let new_cell = self.cell_of(pos);
        if new_cell == cell {
            if let Some(entry) = self.buckets.get_mut(&cell).and_then(|b| b.get_mut(slot)) {
                entry.1 = pos;
            }
            return Some(false);
        }
        self.take(cell, slot);
        self.put(id, pos, new_cell);
        Some(true)
    }

    /// Appends `id` to `cell`'s bucket and records its slot.
    fn put(&mut self, id: u32, pos: Position, cell: Cell) {
        let bucket = self.buckets.entry(cell).or_default();
        self.slots.insert(id, (cell, bucket.len()));
        bucket.push((id, pos));
    }

    /// Removes slot `slot` of `cell`'s bucket, re-slotting the entry that
    /// takes its place; returns the removed entry's position.
    fn take(&mut self, cell: Cell, slot: usize) -> Option<Position> {
        let bucket = self.buckets.get_mut(&cell)?;
        let (_, pos) = bucket.swap_remove(slot);
        if let Some(&(moved, _)) = bucket.get(slot) {
            self.slots.insert(moved, (cell, slot));
        }
        if bucket.is_empty() {
            self.buckets.remove(&cell);
        }
        Some(pos)
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
        let (min_cell, max_cell) = self.cell_box(center, radius);
        for cx in min_cell.0..=max_cell.0 {
            for cy in min_cell.1..=max_cell.1 {
                let inside = self
                    .cell((cx, cy))
                    .iter()
                    .filter(|(_, p)| p.within(center, radius));
                out.extend(inside.map(|&(id, _)| id));
            }
        }
        out.sort_unstable();
        self.stats.candidates_returned += out.len() as u64;
    }

    /// The cells a radius query visits: the bounding box of the disc.
    fn cell_box(&self, center: Position, radius: f64) -> (Cell, Cell) {
        let r = radius.max(0.0);
        (
            self.cell_of(Position::new(center.x - r, center.y - r)),
            self.cell_of(Position::new(center.x + r, center.y + r)),
        )
    }

    /// The same radius query as [`GridIndex::query_radius`], answered cell
    /// by cell for a caller that wants the objects nearest-first: returns
    /// the exact number of objects within `radius` of `center` (equal to
    /// `query_radius(center, radius).len()`) and fills `out` with every
    /// non-empty cell meeting the disc as `(near, cell)`, ascending by
    /// `(near, cell)`. `near` is a lower bound on the distance from
    /// `center` to any object in the cell, so the caller can stop reading
    /// cells once `near` passes what it is looking for. The in-radius
    /// objects of the listed cells ([`GridIndex::cell`] filtered by
    /// [`Position::within`]) are exactly the query's.
    ///
    /// A cell lying wholly inside the disc is counted by its length,
    /// without reading its positions. Counts as one query in the stats.
    pub fn cells_by_distance(
        &mut self,
        center: Position,
        radius: f64,
        out: &mut Vec<(f64, Cell)>,
    ) -> usize {
        self.stats.queries += 1;
        out.clear();
        let r = radius.max(0.0);
        let (min_cell, max_cell) = self.cell_box(center, radius);
        let mut count = 0;
        for cx in min_cell.0..=max_cell.0 {
            for cy in min_cell.1..=max_cell.1 {
                let bucket = self.cell((cx, cy));
                if bucket.is_empty() {
                    continue;
                }
                let (near, far) = self.cell_span((cx, cy), center);
                if near > r {
                    continue;
                }
                count += if far <= r {
                    bucket.len()
                } else {
                    bucket
                        .iter()
                        .filter(|(_, p)| p.within(center, radius))
                        .count()
                };
                out.push((near, (cx, cy)));
            }
        }
        out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        self.stats.candidates_returned += count as u64;
        count
    }

    /// Bounds on the distance from `center` to any object of `cell`:
    /// `(near, far)`, widened by a rounding margin so that they also hold
    /// for the computed distances of objects whose coordinates round onto
    /// the cell's border.
    fn cell_span(&self, (cx, cy): Cell, center: Position) -> (f64, f64) {
        let s = self.cell_size;
        let (x0, y0) = (cx as f64 * s, cy as f64 * s);
        let (x1, y1) = (x0 + s, y0 + s);
        let gap = |c: f64, lo: f64, hi: f64| (lo - c).max(c - hi).max(0.0);
        let reach = |c: f64, lo: f64, hi: f64| (c - lo).max(hi - c);
        let near = gap(center.x, x0, x1).hypot(gap(center.y, y0, y1));
        let far = reach(center.x, x0, x1).hypot(reach(center.y, y0, y1));
        let margin = 1e-9 * (center.x.abs() + center.y.abs() + x0.abs() + y0.abs() + 2.0 * s);
        ((near - margin).max(0.0), far + margin)
    }

    /// The objects in `cell` with their exact positions, in no particular
    /// order; empty for a cell that holds none.
    pub fn cell(&self, cell: Cell) -> &[(u32, Position)] {
        self.buckets.get(&cell).map_or(&[], Vec::as_slice)
    }

    /// Folds one request's candidate-screening counts into the statistics.
    /// The dispatcher owns the pruning logic; the index owns the counters so
    /// that one `GridStats` snapshot describes the whole filter funnel
    /// (radius query -> slack screen -> road-reach screen and best-first
    /// early exit -> evaluation).
    pub fn record_pruning(
        &mut self,
        in_radius: u64,
        by_slack: u64,
        by_reach: u64,
        by_bound: u64,
        evaluated: u64,
    ) {
        self.stats.candidates_in_radius += in_radius;
        self.stats.pruned_by_slack += by_slack;
        self.stats.pruned_by_reach += by_reach;
        self.stats.pruned_by_bound += by_bound;
        self.stats.evaluated += evaluated;
    }

    /// Iterates over all `(id, position)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Position)> + '_ {
        self.buckets.values().flatten().copied()
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

    /// `cells_by_distance`'s count, and its cells' in-radius members.
    fn by_cells(idx: &mut GridIndex, center: Position, r: f64) -> (usize, Vec<u32>) {
        let mut cells = Vec::new();
        let count = idx.cells_by_distance(center, r, &mut cells);
        let mut ids: Vec<u32> = cells
            .iter()
            .flat_map(|&(_, cell)| idx.cell(cell))
            .filter(|(_, p)| p.within(center, r))
            .map(|&(id, _)| id)
            .collect();
        ids.sort_unstable();
        (count, ids)
    }

    #[test]
    fn an_in_cell_update_moves_the_position_the_count_sees() {
        let mut idx = GridIndex::new(100.0);
        idx.insert(1, Position::new(10.0, 10.0));
        assert!(!idx.update(1, Position::new(90.0, 90.0)));
        assert_eq!(idx.position(1), Some(Position::new(90.0, 90.0)));
        assert_eq!(
            by_cells(&mut idx, Position::new(95.0, 95.0), 10.0),
            (1, vec![1])
        );
        assert_eq!(
            by_cells(&mut idx, Position::new(10.0, 10.0), 5.0),
            (0, vec![])
        );
        assert_eq!(idx.stats().queries, 2);
        assert_eq!(idx.stats().candidates_returned, 1);
    }

    #[test]
    fn removing_from_a_bucket_re_slots_the_entry_that_takes_its_place() {
        let mut idx = GridIndex::new(100.0);
        for id in 1..=3 {
            idx.insert(id, Position::new(id as f64 * 10.0, 0.0));
        }
        // Slot 0 goes; object 3 moves into it and must still be updatable.
        assert_eq!(idx.remove(1), Some(Position::new(10.0, 0.0)));
        assert!(!idx.update(3, Position::new(50.0, 50.0)));
        assert_eq!(idx.position(3), Some(Position::new(50.0, 50.0)));
        assert_eq!(idx.position(2), Some(Position::new(20.0, 0.0)));
        assert_eq!(idx.query_radius(Position::new(50.0, 50.0), 1.0), vec![3]);
        assert!(idx.update(2, Position::new(250.0, 0.0)));
        assert_eq!(idx.cell((0, 0)), &[(3, Position::new(50.0, 50.0))]);
        assert_eq!(idx.cell((2, 0)), &[(2, Position::new(250.0, 0.0))]);
        assert!(idx.cell((7, 7)).is_empty());
        let mut all: Vec<(u32, Position)> = idx.iter().collect();
        all.sort_by_key(|&(id, _)| id);
        assert_eq!(all.len(), idx.len());
        assert_eq!(all[0], (2, Position::new(250.0, 0.0)));
    }

    #[test]
    fn cells_come_nearest_first_and_whole_cells_are_counted() {
        let mut idx = GridIndex::new(100.0);
        // Cell (0, 0) lies wholly inside a 1 km disc around (50, 50); cell
        // (5, 0) straddles a 520 m one; cell (30, 30) is outside both.
        idx.insert(1, Position::new(10.0, 10.0));
        idx.insert(2, Position::new(90.0, 90.0));
        idx.insert(3, Position::new(540.0, 50.0));
        idx.insert(4, Position::new(590.0, 50.0));
        idx.insert(5, Position::new(3_050.0, 3_050.0));
        let center = Position::new(50.0, 50.0);
        let mut cells = Vec::new();
        assert_eq!(idx.cells_by_distance(center, 1_000.0, &mut cells), 4);
        assert_eq!(
            cells.iter().map(|&(_, c)| c).collect::<Vec<_>>(),
            vec![(0, 0), (5, 0)]
        );
        assert_eq!(cells[0].0, 0.0, "the centre's own cell is at distance 0");
        assert!((cells[1].0 - 450.0).abs() < 1e-6);
        assert_eq!(by_cells(&mut idx, center, 520.0), (3, vec![1, 2, 3]));
        assert_eq!(idx.query_radius(center, 520.0), vec![1, 2, 3]);
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
        idx.record_pruning(10, 4, 1, 2, 3);
        idx.record_pruning(5, 0, 0, 2, 3);
        let s = idx.stats();
        assert_eq!(s.candidates_in_radius, 15);
        assert_eq!(s.pruned_by_slack, 4);
        assert_eq!(s.pruned_by_reach, 1);
        assert_eq!(s.pruned_by_bound, 4);
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
