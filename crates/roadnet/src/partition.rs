//! Deterministic k-way partitioning of a road network into contiguous
//! regions.
//!
//! The simulation engine (`rideshare-sim`) uses a partition as a grouping
//! key: it labels every vehicle and request with a region and counts what
//! crosses a region border. Those counts must be a pure function of the
//! `(network, k)` pair, so this module is deterministic by construction:
//!
//! 1. **Seed selection** recursively splits the node set kd-tree style
//!    (median cut along the wider bounding-box axis, ties broken by node
//!    id) into `k` cells and picks the node nearest each cell's centroid
//!    (ties again by node id).
//! 2. **Region growing** runs a multi-source Dijkstra from the `k` seeds
//!    over road distance; the frontier is ordered by `(distance, region,
//!    node)` under `f64::total_cmp`, so every node is claimed by exactly
//!    one region in an order no hash map or thread schedule can perturb.
//! 3. Nodes unreachable from every seed (disconnected fragments) are
//!    assigned to the euclidean-nearest seed, lowest region first.
//!
//! A [`PartitionSpec`] only answers for the network it was grown on;
//! [`PartitionSpec::node_count`] is what a caller checks before indexing
//! it with another network's node ids.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::RoadNetwork;
use crate::types::NodeId;

/// A total-ordered f64 wrapper so Dijkstra's frontier has a deterministic
/// pop order (`total_cmp` — the graph has no NaN weights, but the order
/// must be total for `BinaryHeap`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A deterministic assignment of every road-network node to one of `k`
/// contiguous regions.
///
/// Build one with [`PartitionSpec::grow`]; `k = 1` yields the trivial
/// partition with every node in region 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    k: u16,
    region_of: Vec<u16>,
}

impl PartitionSpec {
    /// Partitions `network` into `k` regions (clamped to `1..=node_count`
    /// and at most `u16::MAX`). Deterministic: the same `(network, k)`
    /// always produces the same assignment, byte for byte.
    pub fn grow(network: &RoadNetwork, k: usize) -> Self {
        let n = network.node_count();
        let k = k.clamp(1, n.max(1)).min(u16::MAX as usize) as u16;
        let seeds = select_seeds(network, k);
        let region_of = grow_regions(network, &seeds);
        PartitionSpec { k, region_of }
    }

    /// Number of regions.
    pub fn regions(&self) -> usize {
        self.k as usize
    }

    /// Number of nodes of the network this partition was grown on.
    pub fn node_count(&self) -> usize {
        self.region_of.len()
    }

    /// Region owning `node`.
    ///
    /// # Panics
    /// Panics when `node` is not below [`PartitionSpec::node_count`].
    pub fn region_of(&self, node: NodeId) -> u16 {
        self.region_of[node as usize]
    }
}

/// Recursive kd-style median split of the node set into `k` cells, then
/// one seed per cell: the node nearest the cell centroid (ties by id).
fn select_seeds(network: &RoadNetwork, k: u16) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = (0..network.node_count() as NodeId).collect();
    let mut seeds = Vec::with_capacity(k as usize);
    split(network, &mut nodes, k as usize, &mut seeds);
    seeds
}

fn split(network: &RoadNetwork, nodes: &mut [NodeId], k: usize, seeds: &mut Vec<NodeId>) {
    if nodes.is_empty() {
        return;
    }
    if k <= 1 || nodes.len() == 1 {
        seeds.push(centroid_node(network, nodes));
        return;
    }
    // Wider axis of this cell's bounding box decides the cut direction.
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
    for &u in nodes.iter() {
        let p = network.point(u);
        min_x = min_x.min(p.x);
        max_x = max_x.max(p.x);
        min_y = min_y.min(p.y);
        max_y = max_y.max(p.y);
    }
    let use_x = (max_x - min_x) >= (max_y - min_y);
    nodes.sort_unstable_by(|&a, &b| {
        let (pa, pb) = (network.point(a), network.point(b));
        let (ca, cb) = if use_x { (pa.x, pb.x) } else { (pa.y, pb.y) };
        ca.total_cmp(&cb).then(a.cmp(&b))
    });
    // Split node and region counts proportionally so any k (not just
    // powers of two) yields balanced cells.
    let k_left = k / 2;
    let cut = (nodes.len() * k_left)
        .div_euclid(k)
        .clamp(1, nodes.len() - 1);
    let (left, right) = nodes.split_at_mut(cut);
    split(network, left, k_left, seeds);
    split(network, right, k - k_left, seeds);
}

fn centroid_node(network: &RoadNetwork, nodes: &[NodeId]) -> NodeId {
    let (mut cx, mut cy) = (0.0, 0.0);
    for &u in nodes {
        let p = network.point(u);
        cx += p.x;
        cy += p.y;
    }
    cx /= nodes.len() as f64;
    cy /= nodes.len() as f64;
    let mut best = nodes[0];
    let mut best_d = f64::INFINITY;
    for &u in nodes {
        let p = network.point(u);
        let d = (p.x - cx).powi(2) + (p.y - cy).powi(2);
        if d < best_d || (d == best_d && u < best) {
            best = u;
            best_d = d;
        }
    }
    best
}

/// Multi-source Dijkstra with a `(distance, region, node)` total order:
/// every node joins the region that reaches it first, lowest region id
/// winning exact ties.
fn grow_regions(network: &RoadNetwork, seeds: &[NodeId]) -> Vec<u16> {
    const UNASSIGNED: u16 = u16::MAX;
    let n = network.node_count();
    let mut region_of = vec![UNASSIGNED; n];
    let mut heap: BinaryHeap<Reverse<(OrdF64, u16, NodeId)>> = BinaryHeap::new();
    for (r, &s) in seeds.iter().enumerate() {
        heap.push(Reverse((OrdF64(0.0), r as u16, s)));
    }
    while let Some(Reverse((OrdF64(d), r, u))) = heap.pop() {
        if region_of[u as usize] != UNASSIGNED {
            continue;
        }
        region_of[u as usize] = r;
        for (v, w) in network.neighbors(u) {
            if region_of[v as usize] == UNASSIGNED {
                heap.push(Reverse((OrdF64(d + w), r, v)));
            }
        }
    }
    // Disconnected fragments: claim by euclidean-nearest seed (ties by
    // lowest region id) so every node is owned.
    for u in 0..n as NodeId {
        if region_of[u as usize] == UNASSIGNED {
            let p = network.point(u);
            let mut best = 0u16;
            let mut best_d = f64::INFINITY;
            for (r, &s) in seeds.iter().enumerate() {
                let q = network.point(s);
                let d = (p.x - q.x).powi(2) + (p.y - q.y).powi(2);
                if d < best_d {
                    best = r as u16;
                    best_d = d;
                }
            }
            region_of[u as usize] = best;
        }
    }
    region_of
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GeneratorConfig, NetworkKind};

    fn grid(rows: usize, cols: usize, seed: u64) -> RoadNetwork {
        GeneratorConfig {
            kind: NetworkKind::Grid { rows, cols },
            seed,
            ..GeneratorConfig::default()
        }
        .generate()
    }

    #[test]
    fn every_node_is_assigned_exactly_once() {
        let g = grid(12, 12, 3);
        for k in [1usize, 2, 3, 4, 8] {
            let p = PartitionSpec::grow(&g, k);
            assert_eq!(p.regions(), k);
            assert_eq!(p.node_count(), g.node_count());
            let mut sizes = vec![0usize; k];
            for u in 0..g.node_count() as NodeId {
                sizes[p.region_of(u) as usize] += 1;
            }
            assert!(sizes.iter().all(|&s| s > 0), "k = {k}");
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let g = grid(10, 14, 7);
        for k in [2usize, 4, 8] {
            let a = PartitionSpec::grow(&g, k);
            let b = PartitionSpec::grow(&g, k);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn single_region_has_no_boundary() {
        let g = grid(6, 6, 2);
        let p = PartitionSpec::grow(&g, 1);
        assert_eq!(p.regions(), 1);
        assert!(g.edges().all(|(u, v, _)| p.region_of(u) == p.region_of(v)));
    }

    #[test]
    fn regions_are_contiguous_on_a_connected_grid() {
        // Every region of a connected network must itself be connected:
        // region growing claims nodes along shortest paths from the seed,
        // so a region is a union of shortest-path trees.
        let g = grid(10, 10, 9);
        for k in [2usize, 4, 8] {
            let p = PartitionSpec::grow(&g, k);
            for r in 0..k as u16 {
                let members: Vec<NodeId> = (0..g.node_count() as NodeId)
                    .filter(|&u| p.region_of(u) == r)
                    .collect();
                // BFS inside the region from its first member.
                let mut seen = vec![false; g.node_count()];
                let mut queue = std::collections::VecDeque::new();
                seen[members[0] as usize] = true;
                queue.push_back(members[0]);
                let mut reached = 1;
                while let Some(u) = queue.pop_front() {
                    for (v, _) in g.neighbors(u) {
                        if p.region_of(v) == r && !seen[v as usize] {
                            seen[v as usize] = true;
                            reached += 1;
                            queue.push_back(v);
                        }
                    }
                }
                assert_eq!(reached, members.len(), "region {r} of k={k} split");
            }
        }
    }

    #[test]
    fn k_is_clamped_to_node_count() {
        let g = grid(2, 2, 1);
        let p = PartitionSpec::grow(&g, 50);
        assert_eq!(p.regions(), 4);
        assert_eq!(p.node_count(), 4);
    }
}
