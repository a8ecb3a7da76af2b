//! Classic Dijkstra shortest-path engine.
//!
//! This is the reference implementation every other engine in the crate is
//! validated against. It supports point-to-point queries with early exit,
//! full single-source searches, and radius-bounded searches (used by the
//! dispatcher to enumerate nodes reachable within the waiting-time budget).

use std::collections::BinaryHeap;

use crate::graph::RoadNetwork;
use crate::oracle::ShortestPathEngine;
use crate::types::{HeapEntry, NodeId, Weight, INFINITY};

/// Dijkstra engine borrowing a frozen road network.
#[derive(Debug, Clone)]
pub struct DijkstraEngine<'g> {
    graph: &'g RoadNetwork,
}

/// Result of a full or bounded single-source search.
#[derive(Debug, Clone)]
pub struct SearchTree {
    /// Distance from the source to each node (`INFINITY` when unreached).
    pub dist: Vec<Weight>,
    /// Predecessor of each node on the shortest-path tree (`u32::MAX` for the
    /// source and unreached nodes).
    pub parent: Vec<NodeId>,
    /// The search source.
    pub source: NodeId,
}

impl SearchTree {
    /// Reconstructs the path from the source to `t`, inclusive of both ends.
    pub fn path_to(&self, t: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[t as usize] == INFINITY {
            return None;
        }
        let mut path = vec![t];
        let mut cur = t;
        while cur != self.source {
            cur = self.parent[cur as usize];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Distance from the source to `t`.
    pub fn distance_to(&self, t: NodeId) -> Option<Weight> {
        let d = self.dist[t as usize];
        if d == INFINITY {
            None
        } else {
            Some(d)
        }
    }
}

impl<'g> DijkstraEngine<'g> {
    /// Creates an engine over `graph`.
    pub fn new(graph: &'g RoadNetwork) -> Self {
        DijkstraEngine { graph }
    }

    /// The underlying network.
    pub fn graph(&self) -> &RoadNetwork {
        self.graph
    }

    /// Full single-source shortest-path tree from `s`.
    pub fn search(&self, s: NodeId) -> SearchTree {
        self.bounded_search(s, INFINITY)
    }

    /// Single-source search that stops expanding nodes farther than `radius`
    /// from `s`. Nodes beyond the radius keep distance `INFINITY`.
    pub fn bounded_search(&self, s: NodeId, radius: Weight) -> SearchTree {
        let n = self.graph.node_count();
        let mut dist = vec![INFINITY; n];
        let mut parent = vec![u32::MAX; n];
        let mut heap = BinaryHeap::new();
        dist[s as usize] = 0.0;
        heap.push(HeapEntry::new(0.0, s));
        while let Some(HeapEntry { cost, node }) = heap.pop() {
            let d = cost.0;
            if d > dist[node as usize] {
                continue;
            }
            if d > radius {
                // Everything left in the heap is at least as far.
                break;
            }
            for (v, w) in self.graph.neighbors(node) {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    parent[v as usize] = node;
                    heap.push(HeapEntry::new(nd, v));
                }
            }
        }
        // Erase entries beyond the radius so the result is consistent with
        // "never expanded": a node relaxed but not settled within the radius
        // may have a non-final distance.
        if radius != INFINITY {
            for d in dist.iter_mut() {
                if *d > radius {
                    *d = INFINITY;
                }
            }
        }
        SearchTree {
            dist,
            parent,
            source: s,
        }
    }

    /// All nodes within `radius` of `s`, with their distances, sorted by
    /// distance.
    pub fn nodes_within(&self, s: NodeId, radius: Weight) -> Vec<(NodeId, Weight)> {
        let tree = self.bounded_search(s, radius);
        let mut out: Vec<(NodeId, Weight)> = tree
            .dist
            .iter()
            .enumerate()
            .filter(|(_, &d)| d != INFINITY)
            .map(|(i, &d)| (i as NodeId, d))
            .collect();
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        out
    }

    /// Point-to-point query with early exit once `t` is settled.
    fn point_to_point(&self, s: NodeId, t: NodeId) -> Option<(Weight, Vec<NodeId>)> {
        if s == t {
            return Some((0.0, vec![s]));
        }
        let n = self.graph.node_count();
        let mut dist = vec![INFINITY; n];
        let mut parent = vec![u32::MAX; n];
        let mut heap = BinaryHeap::new();
        dist[s as usize] = 0.0;
        heap.push(HeapEntry::new(0.0, s));
        while let Some(HeapEntry { cost, node }) = heap.pop() {
            let d = cost.0;
            if d > dist[node as usize] {
                continue;
            }
            if node == t {
                let mut path = vec![t];
                let mut cur = t;
                while cur != s {
                    cur = parent[cur as usize];
                    path.push(cur);
                }
                path.reverse();
                return Some((d, path));
            }
            for (v, w) in self.graph.neighbors(node) {
                let nd = d + w;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    parent[v as usize] = node;
                    heap.push(HeapEntry::new(nd, v));
                }
            }
        }
        None
    }
}

impl ShortestPathEngine for DijkstraEngine<'_> {
    fn distance(&self, s: NodeId, t: NodeId) -> Option<Weight> {
        self.point_to_point(s, t).map(|(d, _)| d)
    }

    fn path(&self, s: NodeId, t: NodeId) -> Option<(Weight, Vec<NodeId>)> {
        self.point_to_point(s, t)
    }
}

/// Floyd–Warshall all-pairs shortest distances, `O(V^3)`.
///
/// Only suitable for tiny graphs; used as a brute-force oracle in tests and
/// by the matrix distance oracle for unit-scale scheduling problems.
pub fn floyd_warshall(graph: &RoadNetwork) -> Vec<Vec<Weight>> {
    let n = graph.node_count();
    let mut d = vec![vec![INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for (u, v, w) in graph.edges() {
        let (u, v) = (u as usize, v as usize);
        if w < d[u][v] {
            d[u][v] = w;
            d[v][u] = w;
        }
    }
    for k in 0..n {
        for i in 0..n {
            if d[i][k] == INFINITY {
                continue;
            }
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GeneratorConfig, NetworkKind};
    use crate::graph::GraphBuilder;
    use crate::types::Point;

    fn diamond() -> RoadNetwork {
        // 0 -1- 1 -1- 3,   0 -3- 2 -1- 3, plus 1-2 weight 10
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_node(Point::new(i as f64, 0.0));
        }
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 3, 1.0);
        b.add_edge(0, 2, 3.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(1, 2, 10.0);
        b.build()
    }

    #[test]
    fn distance_basic() {
        let g = diamond();
        let e = DijkstraEngine::new(&g);
        assert_eq!(e.distance(0, 3), Some(2.0));
        assert_eq!(e.distance(0, 0), Some(0.0));
        assert_eq!(e.distance(2, 1), Some(2.0));
    }

    #[test]
    fn path_matches_distance() {
        let g = diamond();
        let e = DijkstraEngine::new(&g);
        let (d, p) = e.path(0, 3).unwrap();
        assert_eq!(d, 2.0);
        assert_eq!(p, vec![0, 1, 3]);
        let (d, p) = e.path(3, 0).unwrap();
        assert_eq!(d, 2.0);
        assert_eq!(p, vec![3, 1, 0]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = GraphBuilder::new();
        b.add_node(Point::default());
        b.add_node(Point::default());
        b.add_node(Point::default());
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        let e = DijkstraEngine::new(&g);
        assert_eq!(e.distance(0, 2), None);
        assert!(e.path(0, 2).is_none());
    }

    #[test]
    fn search_tree_paths() {
        let g = diamond();
        let e = DijkstraEngine::new(&g);
        let tree = e.search(0);
        assert_eq!(tree.path_to(3).unwrap(), vec![0, 1, 3]);
        assert_eq!(tree.distance_to(2), Some(3.0));
        assert_eq!(tree.path_to(0).unwrap(), vec![0]);
    }

    #[test]
    fn bounded_search_respects_radius() {
        let g = diamond();
        let e = DijkstraEngine::new(&g);
        let within = e.nodes_within(0, 1.5);
        let ids: Vec<NodeId> = within.iter().map(|&(n, _)| n).collect();
        assert_eq!(ids, vec![0, 1]);
        let tree = e.bounded_search(0, 1.5);
        assert_eq!(tree.distance_to(3), None);
    }

    #[test]
    fn matches_floyd_warshall_on_random_network() {
        let cfg = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 6, cols: 6 },
            seed: 7,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        let fw = floyd_warshall(&g);
        let e = DijkstraEngine::new(&g);
        for s in 0..g.node_count() as NodeId {
            let tree = e.search(s);
            for t in 0..g.node_count() as NodeId {
                let a = tree.dist[t as usize];
                let b = fw[s as usize][t as usize];
                assert_eq!(a, b, "mismatch {s}->{t}");
            }
        }
    }

    #[test]
    fn path_is_a_real_walk_with_correct_cost() {
        let cfg = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 5, cols: 7 },
            seed: 3,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        let e = DijkstraEngine::new(&g);
        let (d, p) = e.path(0, (g.node_count() - 1) as NodeId).unwrap();
        let mut acc = 0.0;
        for w in p.windows(2) {
            acc += g.edge_weight(w[0], w[1]).expect("edge on path must exist");
        }
        assert_eq!(acc, d);
    }
}
