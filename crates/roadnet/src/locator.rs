//! Nearest-vertex lookup for mapping raw coordinates onto the network.
//!
//! The paper pre-maps every trip's start/destination coordinates to the
//! closest vertex in the road graph. [`NodeLocator`] reproduces that step
//! with a uniform bucket grid over the network's bounding box so lookups are
//! `O(1)` expected instead of a linear scan over 120k vertices.

use crate::graph::RoadNetwork;
use crate::types::{NodeId, Point};

/// Uniform-grid nearest-vertex index over a road network's node positions.
#[derive(Debug, Clone)]
pub struct NodeLocator {
    min: Point,
    cell: f64,
    cols: usize,
    rows: usize,
    /// `buckets[row * cols + col]` lists node ids whose position falls in the
    /// cell.
    buckets: Vec<Vec<NodeId>>,
    points: Vec<Point>,
}

impl NodeLocator {
    /// Builds a locator with a default cell size derived from node density
    /// (roughly one node per cell on average).
    pub fn new(graph: &RoadNetwork) -> Self {
        let (min, max) = graph.bounding_box();
        let area = ((max.x - min.x).max(1.0)) * ((max.y - min.y).max(1.0));
        let cell = (area / graph.node_count() as f64).sqrt().max(1.0);
        Self::with_cell_size(graph, cell)
    }

    /// Builds a locator with an explicit cell size in meters.
    pub fn with_cell_size(graph: &RoadNetwork, cell: f64) -> Self {
        let (min, max) = graph.bounding_box();
        let cell = cell.max(1e-6);
        let cols = (((max.x - min.x) / cell).floor() as usize + 1).max(1);
        let rows = (((max.y - min.y) / cell).floor() as usize + 1).max(1);
        let mut buckets = vec![Vec::new(); cols * rows];
        let points = graph.points().to_vec();
        for (i, p) in points.iter().enumerate() {
            let c = (((p.x - min.x) / cell).floor() as usize).min(cols - 1);
            let r = (((p.y - min.y) / cell).floor() as usize).min(rows - 1);
            buckets[r * cols + c].push(i as NodeId);
        }
        NodeLocator {
            min,
            cell,
            cols,
            rows,
            buckets,
            points,
        }
    }

    fn cell_of(&self, p: Point) -> (usize, usize) {
        let c = (((p.x - self.min.x) / self.cell).floor() as isize).clamp(0, self.cols as isize - 1)
            as usize;
        let r = (((p.y - self.min.y) / self.cell).floor() as isize).clamp(0, self.rows as isize - 1)
            as usize;
        (r, c)
    }

    /// The vertex whose position is closest (Euclidean) to `p`.
    ///
    /// Searches the containing cell and expanding rings of cells until a
    /// candidate is found whose distance is no larger than the nearest
    /// unexplored ring could offer; always returns a node because networks
    /// are non-empty.
    pub fn nearest(&self, p: Point) -> NodeId {
        let (r0, c0) = self.cell_of(p);
        let mut best: Option<(NodeId, f64)> = None;
        let max_ring = self.rows.max(self.cols);
        for ring in 0..=max_ring {
            // Once we have a candidate, stop as soon as the closest possible
            // point of the next ring cannot beat it.
            if let Some((_, d)) = best {
                let ring_floor = (ring as f64 - 1.0).max(0.0) * self.cell;
                if d <= ring_floor {
                    break;
                }
            }
            let r_lo = r0.saturating_sub(ring);
            let r_hi = (r0 + ring).min(self.rows - 1);
            let c_lo = c0.saturating_sub(ring);
            let c_hi = (c0 + ring).min(self.cols - 1);
            for r in r_lo..=r_hi {
                for c in c_lo..=c_hi {
                    // Only the boundary of the ring is new; an edge whose
                    // bound was clamped by the grid was already scanned in
                    // a previous ring.
                    let on_boundary = ring == 0
                        || r == r_lo && r0 >= ring
                        || r == r_hi && r0 + ring < self.rows
                        || c == c_lo && c0 >= ring
                        || c == c_hi && c0 + ring < self.cols;
                    if !on_boundary {
                        continue;
                    }
                    for &node in &self.buckets[r * self.cols + c] {
                        let d = self.points[node as usize].distance(&p);
                        if best.is_none_or(|(_, bd)| d < bd) {
                            best = Some((node, d));
                        }
                    }
                }
            }
        }
        best.expect("non-empty network always has a nearest node").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GeneratorConfig, NetworkKind};

    fn brute_nearest(g: &RoadNetwork, p: Point) -> NodeId {
        (0..g.node_count() as NodeId)
            .min_by(|&a, &b| {
                g.point(a)
                    .distance(&p)
                    .partial_cmp(&g.point(b).distance(&p))
                    .unwrap()
            })
            .unwrap()
    }

    #[test]
    fn nearest_matches_brute_force() {
        let cfg = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 10, cols: 12 },
            seed: 5,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        let loc = NodeLocator::new(&g);
        let probes = [
            Point::new(0.0, 0.0),
            Point::new(133.0, 977.0),
            Point::new(2600.0, 2100.0),
            Point::new(-500.0, -500.0),
            Point::new(10_000.0, 10_000.0),
            Point::new(612.5, 612.5),
        ];
        for p in probes {
            let got = loc.nearest(p);
            let want = brute_nearest(&g, p);
            assert_eq!(
                g.point(got).distance(&p),
                g.point(want).distance(&p),
                "probe {p}: got node {got}, brute force {want}"
            );
        }
    }

    #[test]
    fn custom_cell_size_still_correct() {
        let cfg = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 6, cols: 6 },
            seed: 8,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        for cell in [10.0, 100.0, 5000.0] {
            let loc = NodeLocator::with_cell_size(&g, cell);
            let p = Point::new(777.0, 312.0);
            assert_eq!(
                g.point(loc.nearest(p)).distance(&p),
                g.point(brute_nearest(&g, p)).distance(&p)
            );
        }
    }
}
