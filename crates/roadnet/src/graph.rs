//! Compact storage of a weighted, undirected road network.
//!
//! Networks are built once with [`GraphBuilder`] and then frozen into a
//! [`RoadNetwork`], a compressed-sparse-row (CSR) adjacency structure that
//! every shortest-path engine iterates over. The paper keeps two copies of
//! the Shanghai network in memory: the hub-label structure for distance
//! queries and a plain weighted adjacency list for tracking taxi movement.
//! [`RoadNetwork`] is that adjacency-list copy; [`crate::HubLabels`] is the
//! other.

use crate::error::RoadNetError;
use crate::types::{quantize, EdgeId, NodeId, Point, Weight, GRID_LIMIT};

/// Incrementally assembles a road network before freezing it into CSR form.
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    points: Vec<Point>,
    edges: Vec<(NodeId, NodeId, Weight)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with pre-reserved capacity for `nodes` nodes and
    /// `edges` undirected edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            points: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a node at `point` and returns its id.
    pub fn add_node(&mut self, point: Point) -> NodeId {
        let id = self.points.len() as NodeId;
        self.points.push(point);
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Number of undirected edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge between `u` and `v` with travel cost `weight`
    /// (meters).
    ///
    /// Duplicate edges are allowed; the shortest-path engines simply relax
    /// both and keep the cheaper one.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: Weight) {
        self.edges.push((u, v, weight));
    }

    /// Validates all pending nodes/edges, rounds each weight up onto the
    /// [`Q`](crate::Q) grid (it still dominates its Euclidean segment) and
    /// freezes the network; refuses a total weight of [`GRID_LIMIT`] or more.
    pub fn try_build(mut self) -> Result<RoadNetwork, RoadNetError> {
        if self.points.is_empty() {
            return Err(RoadNetError::EmptyNetwork);
        }
        let n = self.points.len() as u32;
        for edge in &mut self.edges {
            let (u, v, w) = *edge;
            if u >= n {
                return Err(RoadNetError::UnknownNode(u));
            }
            if v >= n {
                return Err(RoadNetError::UnknownNode(v));
            }
            if u == v {
                return Err(RoadNetError::SelfLoop(u));
            }
            if !w.is_finite() || w < 0.0 {
                return Err(RoadNetError::InvalidWeight(w));
            }
            edge.2 = quantize(w, f64::ceil);
        }
        let network = RoadNetwork::from_parts(self.points, self.edges);
        match network.total_weight() {
            total if total >= GRID_LIMIT => Err(RoadNetError::TotalWeightOutOfRange(total)),
            _ => Ok(network),
        }
    }

    /// Validates and freezes the network, panicking on malformed input.
    ///
    /// Convenient for generators and tests where the input is known-good;
    /// loaders should prefer [`GraphBuilder::try_build`].
    pub fn build(self) -> RoadNetwork {
        self.try_build().expect("invalid road network")
    }
}

/// A frozen, undirected, weighted road network in CSR form.
///
/// Each undirected edge is stored twice (once per direction) in the CSR
/// arrays so that neighbour iteration is a contiguous slice scan.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    points: Vec<Point>,
    /// CSR row offsets: neighbours of `u` live in `targets[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
    weights: Vec<Weight>,
    /// Undirected edge list as added, used by iteration and serialisation.
    edge_list: Vec<(NodeId, NodeId, Weight)>,
}

impl RoadNetwork {
    pub(crate) fn from_parts(points: Vec<Point>, edges: Vec<(NodeId, NodeId, Weight)>) -> Self {
        let n = points.len();
        let mut degree = vec![0u32; n];
        for &(u, v, _) in &edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut offsets = vec![0u32; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let total = offsets[n] as usize;
        let mut targets = vec![0 as NodeId; total];
        let mut weights = vec![0.0; total];
        let mut cursor = offsets.clone();
        for &(u, v, w) in &edges {
            let cu = cursor[u as usize] as usize;
            targets[cu] = v;
            weights[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize] as usize;
            targets[cv] = u;
            weights[cv] = w;
            cursor[v as usize] += 1;
        }
        RoadNetwork {
            points,
            offsets,
            targets,
            weights,
            edge_list: edges,
        }
    }

    /// Number of nodes (road intersections).
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Number of undirected edges (road segments).
    pub fn edge_count(&self) -> usize {
        self.edge_list.len()
    }

    /// Planar position of node `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn point(&self, u: NodeId) -> Point {
        self.points[u as usize]
    }

    /// All node positions, indexed by node id.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Iterates over the neighbours of `u` as `(neighbour, edge weight)` pairs.
    pub fn neighbors(&self, u: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        self.targets[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Degree of node `u` (number of incident directed arcs, i.e. incident
    /// undirected edges counting duplicates).
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Weight of the edge `(u, v)` if one exists (the minimum over parallel
    /// edges).
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        let mut best: Option<Weight> = None;
        for (t, w) in self.neighbors(u) {
            if t == v {
                best = Some(best.map_or(w, |b: Weight| b.min(w)));
            }
        }
        best
    }

    /// Iterates over all undirected edges as `(u, v, weight)` in insertion
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.edge_list.iter().copied()
    }

    /// The longest straight-line distance between the two ends of a road
    /// segment (0 without segments): how far apart two adjacent vertices
    /// can lie.
    pub fn longest_segment(&self) -> f64 {
        self.edges()
            .map(|(u, v, _)| self.point(u).distance(&self.point(v)))
            .fold(0.0, f64::max)
    }

    /// Returns the id of a specific edge occurrence in the undirected edge
    /// list, if `(u, v)` (in either orientation) was ever added.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.edge_list
            .iter()
            .position(|&(a, b, _)| (a == u && b == v) || (a == v && b == u))
            .map(|i| i as EdgeId)
    }

    /// Euclidean distance between two nodes' positions (a lower bound on the
    /// network distance for generator-produced networks).
    pub fn euclidean(&self, u: NodeId, v: NodeId) -> f64 {
        self.point(u).distance(&self.point(v))
    }

    /// Sum of all edge weights, useful as an upper bound on any simple path
    /// cost.
    pub fn total_weight(&self) -> Weight {
        self.edge_list.iter().map(|&(_, _, w)| w).sum()
    }

    /// True if every node can reach every other node.
    ///
    /// Runs a breadth-first search from node 0; `O(V + E)`.
    pub fn is_connected(&self) -> bool {
        if self.points.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![0 as NodeId];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(u) = stack.pop() {
            for (v, _) in self.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.node_count()
    }

    /// Returns the largest connected component as a new network, together
    /// with the mapping from new node ids to original ids.
    ///
    /// Generators occasionally produce disconnected artefacts when edges are
    /// randomly dropped; the simulator requires a connected network so that
    /// every trip is feasible.
    pub fn largest_component(&self) -> (RoadNetwork, Vec<NodeId>) {
        let n = self.node_count();
        let mut comp = vec![u32::MAX; n];
        let mut sizes: Vec<usize> = Vec::new();
        for start in 0..n as NodeId {
            if comp[start as usize] != u32::MAX {
                continue;
            }
            let id = sizes.len() as u32;
            let mut size = 0usize;
            let mut stack = vec![start];
            comp[start as usize] = id;
            while let Some(u) = stack.pop() {
                size += 1;
                for (v, _) in self.neighbors(u) {
                    if comp[v as usize] == u32::MAX {
                        comp[v as usize] = id;
                        stack.push(v);
                    }
                }
            }
            sizes.push(size);
        }
        let best = sizes
            .iter()
            .enumerate()
            .max_by_key(|&(_, s)| *s)
            .map(|(i, _)| i as u32)
            .unwrap_or(0);
        let mut new_id = vec![u32::MAX; n];
        let mut old_of_new: Vec<NodeId> = Vec::new();
        let mut builder = GraphBuilder::new();
        for u in 0..n {
            if comp[u] == best {
                new_id[u] = builder.add_node(self.points[u]);
                old_of_new.push(u as NodeId);
            }
        }
        for &(u, v, w) in &self.edge_list {
            if comp[u as usize] == best && comp[v as usize] == best {
                builder.add_edge(new_id[u as usize], new_id[v as usize], w);
            }
        }
        (builder.build(), old_of_new)
    }

    /// A 64-bit fingerprint of this network's full structure: node and edge
    /// counts, every node position, and every edge `(u, v, weight)` in
    /// insertion order (FNV-1a over their little-endian byte images).
    ///
    /// Two networks share a fingerprint exactly when they are
    /// indistinguishable to every engine in this crate, so the fingerprint
    /// is what on-disk artefacts derived from a network (persisted hub
    /// labels, simulation checkpoints) embed to refuse being applied to a
    /// different network.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        mix(&(self.points.len() as u64).to_le_bytes());
        mix(&(self.edge_list.len() as u64).to_le_bytes());
        for p in &self.points {
            mix(&p.x.to_le_bytes());
            mix(&p.y.to_le_bytes());
        }
        for &(u, v, w) in &self.edge_list {
            mix(&u.to_le_bytes());
            mix(&v.to_le_bytes());
            mix(&w.to_le_bytes());
        }
        h
    }

    /// Bounding box of all node positions as `(min, max)` corners.
    pub fn bounding_box(&self) -> (Point, Point) {
        let mut min = Point::new(f64::INFINITY, f64::INFINITY);
        let mut max = Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in &self.points {
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
            max.x = max.x.max(p.x);
            max.y = max.y.max(p.y);
        }
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Q;

    fn triangle() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        let d = b.add_node(Point::new(0.0, 1.0));
        b.add_edge(a, c, 1.0);
        b.add_edge(c, d, 2.0);
        b.add_edge(a, d, 4.0);
        b.build()
    }

    #[test]
    fn builder_counts() {
        let mut b = GraphBuilder::with_capacity(4, 4);
        b.add_node(Point::default());
        b.add_node(Point::default());
        b.add_edge(0, 1, 5.0);
        assert_eq!(b.node_count(), 2);
        assert_eq!(b.edge_count(), 1);
    }

    #[test]
    fn longest_segment_is_the_widest_straight_line_edge() {
        assert_eq!(triangle().longest_segment(), 2f64.sqrt());
        let mut lone = GraphBuilder::new();
        lone.add_node(Point::new(3.0, 4.0));
        assert_eq!(lone.build().longest_segment(), 0.0);
    }

    #[test]
    fn csr_neighbors_cover_both_directions() {
        let g = triangle();
        let n0: Vec<_> = g.neighbors(0).collect();
        assert_eq!(n0.len(), 2);
        assert!(n0.contains(&(1, 1.0)));
        assert!(n0.contains(&(2, 4.0)));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = triangle();
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
        assert_eq!(g.edge_weight(2, 1), Some(2.0));
        assert_eq!(g.edge_weight(0, 0), None);
    }

    #[test]
    fn parallel_edges_keep_minimum_weight() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::default());
        b.add_node(Point::default());
        b.add_edge(0, 1, 5.0);
        b.add_edge(0, 1, 3.0);
        let g = b.build();
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn build_rejects_bad_input() {
        let err = GraphBuilder::new().try_build().unwrap_err();
        assert_eq!(err, RoadNetError::EmptyNetwork);

        let mut b = GraphBuilder::new();
        b.add_node(Point::default());
        b.add_edge(0, 5, 1.0);
        assert_eq!(b.try_build().unwrap_err(), RoadNetError::UnknownNode(5));

        let mut b = GraphBuilder::new();
        b.add_node(Point::default());
        b.add_edge(0, 0, 1.0);
        assert_eq!(b.try_build().unwrap_err(), RoadNetError::SelfLoop(0));

        let mut b = GraphBuilder::new();
        b.add_node(Point::default());
        b.add_node(Point::default());
        b.add_edge(0, 1, -1.0);
        assert_eq!(
            b.try_build().unwrap_err(),
            RoadNetError::InvalidWeight(-1.0)
        );

        // Finite weights the grid cannot keep exact: one that rounds up to
        // infinity, and two that sum to 2^37 m. One `Q` less is accepted.
        let pair = |weights: &[Weight]| {
            let mut b = GraphBuilder::new();
            b.add_node(Point::default());
            b.add_node(Point::default());
            for &w in weights {
                b.add_edge(0, 1, w);
            }
            b.try_build()
        };
        assert_eq!(
            pair(&[f64::MAX]).unwrap_err(),
            RoadNetError::TotalWeightOutOfRange(f64::INFINITY)
        );
        let half = GRID_LIMIT / 2.0;
        assert_eq!(
            pair(&[half, half]).unwrap_err(),
            RoadNetError::TotalWeightOutOfRange(GRID_LIMIT)
        );
        let g = pair(&[half, half - Q]).unwrap();
        assert_eq!(g.total_weight(), GRID_LIMIT - Q);
    }

    #[test]
    fn weights_are_rounded_up_onto_the_grid() {
        let mut b = GraphBuilder::new();
        for _ in 0..3 {
            b.add_node(Point::default());
        }
        b.add_edge(0, 1, 0.1);
        b.add_edge(1, 2, 2.0);
        let g = b.build();
        // 0.1 m lies between two grid points; 2 m is one.
        assert_eq!(g.edge_weight(0, 1), Some(6_554.0 * Q));
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
    }

    #[test]
    fn connectivity_and_components() {
        let g = triangle();
        assert!(g.is_connected());

        let mut b = GraphBuilder::new();
        for i in 0..5 {
            b.add_node(Point::new(i as f64, 0.0));
        }
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(3, 4, 1.0);
        let g = b.build();
        assert!(!g.is_connected());
        let (lcc, mapping) = g.largest_component();
        assert_eq!(lcc.node_count(), 3);
        assert_eq!(lcc.edge_count(), 2);
        assert_eq!(mapping, vec![0, 1, 2]);
        assert!(lcc.is_connected());
    }

    #[test]
    fn bounding_box_and_total_weight() {
        let g = triangle();
        let (min, max) = g.bounding_box();
        assert_eq!((min.x, min.y, max.x, max.y), (0.0, 0.0, 1.0, 1.0));
        assert_eq!(g.total_weight(), 7.0);
    }

    #[test]
    fn find_edge_ignores_orientation() {
        let g = triangle();
        assert_eq!(g.find_edge(2, 1), Some(1));
        assert_eq!(g.find_edge(1, 2), Some(1));
        assert_eq!(g.find_edge(0, 0), None);
    }

    #[test]
    fn fingerprint_separates_structurally_different_networks() {
        let g = triangle();
        assert_eq!(g.fingerprint(), triangle().fingerprint());
        // A different weight, a different coordinate, or a different edge
        // set each move the fingerprint.
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(1.0, 0.0));
        b.add_node(Point::new(0.0, 1.0));
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(0, 2, 4.5);
        assert_ne!(g.fingerprint(), b.build().fingerprint());
        let mut b = GraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(1.0, 0.0));
        b.add_edge(0, 1, 1.0);
        assert_ne!(g.fingerprint(), b.build().fingerprint());
    }

    #[test]
    fn euclidean_lower_bounds_edges() {
        let g = triangle();
        assert!(g.euclidean(0, 1) <= g.edge_weight(0, 1).unwrap());
        assert!(g.euclidean(1, 2) <= g.edge_weight(1, 2).unwrap());
    }
}
