//! Fundamental value types shared across the road-network engine.

use std::cmp::Ordering;
use std::fmt;

/// Identifier of a vertex (road intersection) in a [`crate::RoadNetwork`].
///
/// Node ids are dense: a network with `n` nodes uses ids `0..n`.
pub type NodeId = u32;

/// Identifier of an undirected edge (road segment).
pub type EdgeId = u32;

/// Travel cost along an edge or path.
///
/// Costs are expressed in meters throughout the workspace. With the paper's
/// constant driving speed of 14 m/s, a distance in meters divides by 14 to
/// give seconds, so distance and time are interchangeable (Sec. VI of the
/// paper makes the same simplification).
pub type Weight = f64;

/// The grid every weight (rounded up), clock (to nearest) and budget
/// (down) lies on: 2⁻¹⁶ m. Its multiples below [`GRID_LIMIT`] add exactly
/// in `f64`, in any order, so every sum of them compares bit for bit.
pub const Q: Weight = 1.0 / 65_536.0;

/// 2³⁷ m, the bound below which sums of multiples of [`Q`] stay exact.
pub const GRID_LIMIT: Weight = (1u64 << 37) as Weight;

/// `x` put on the [`Q`] grid by `round` (`f64::ceil`, `f64::round` or
/// `f64::floor`); scaling by a power of two is exact.
pub fn quantize(x: f64, round: fn(f64) -> f64) -> f64 {
    round(x / Q) * Q
}

/// Sentinel cost representing "unreachable".
pub const INFINITY: Weight = f64::INFINITY;

/// Planar coordinates of a vertex, in meters from an arbitrary origin.
///
/// The synthetic generators place vertices on a plane; real datasets should
/// be projected before loading (the paper pre-maps trip coordinates to the
/// nearest vertex, which [`crate::NodeLocator`] reproduces).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East-west offset in meters.
    pub x: f64,
    /// North-south offset in meters.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates in meters.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other` in meters.
    ///
    /// A lower bound on road distance (the dispatcher's screening uses it):
    /// straight-line distance never exceeds road distance when edge weights
    /// are at least the Euclidean length of the segment, which all
    /// generators in this workspace guarantee.
    pub fn distance(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance; cheaper when only comparisons are needed.
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// A totally ordered wrapper around a non-NaN `f64` cost, used as the key of
/// binary heaps in the shortest-path engines.
///
/// Constructing an [`OrderedCost`] from NaN panics in debug builds and is
/// treated as positive infinity in release builds; the engines never produce
/// NaN costs from finite, non-negative edge weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedCost(pub f64);

impl OrderedCost {
    /// Wraps a cost, normalising NaN to infinity.
    pub fn new(v: f64) -> Self {
        debug_assert!(!v.is_nan(), "cost must not be NaN");
        if v.is_nan() {
            OrderedCost(f64::INFINITY)
        } else {
            OrderedCost(v)
        }
    }
}

impl Eq for OrderedCost {}

impl PartialOrd for OrderedCost {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedCost {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).unwrap_or(Ordering::Equal)
    }
}

/// Entry of a min-heap keyed by cost: `(cost, node)` ordered so that the
/// smallest cost pops first when used inside [`std::collections::BinaryHeap`]
/// (which is a max-heap), i.e. the ordering is reversed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapEntry {
    /// Accumulated cost from the search source.
    pub cost: OrderedCost,
    /// Node the cost refers to.
    pub node: NodeId,
}

impl HeapEntry {
    /// Creates a heap entry.
    pub fn new(cost: f64, node: NodeId) -> Self {
        HeapEntry {
            cost: OrderedCost::new(cost),
            node,
        }
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that BinaryHeap (max-heap) yields the minimum cost first.
        other
            .cost
            .cmp(&self.cost)
            .then_with(|| other.node.cmp(&self.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn point_distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
    }

    #[test]
    fn point_distance_is_symmetric() {
        let a = Point::new(-10.0, 2.5);
        let b = Point::new(7.0, 40.0);
        assert_eq!(a.distance(&b), b.distance(&a));
    }

    #[test]
    fn ordered_cost_total_order() {
        let mut v = vec![
            OrderedCost::new(3.0),
            OrderedCost::new(1.0),
            OrderedCost::new(2.0),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![OrderedCost(1.0), OrderedCost(2.0), OrderedCost(3.0)]
        );
    }

    #[test]
    fn heap_entry_pops_minimum_first() {
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry::new(5.0, 1));
        heap.push(HeapEntry::new(1.0, 2));
        heap.push(HeapEntry::new(3.0, 3));
        assert_eq!(heap.pop().unwrap().node, 2);
        assert_eq!(heap.pop().unwrap().node, 3);
        assert_eq!(heap.pop().unwrap().node, 1);
    }

    #[test]
    fn heap_entry_ties_break_on_node() {
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry::new(1.0, 7));
        heap.push(HeapEntry::new(1.0, 3));
        assert_eq!(heap.pop().unwrap().node, 3);
    }

    #[test]
    fn display_point() {
        let p = Point::new(1.25, -3.5);
        assert_eq!(format!("{p}"), "(1.2, -3.5)");
    }
}
