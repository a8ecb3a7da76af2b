//! Road-network graph engine.
//!
//! This crate provides the substrate that every other crate in the workspace
//! builds on: a compact in-memory representation of a weighted, undirected
//! road network together with two exact shortest-path engines — Dijkstra,
//! the reference every other answer is checked against, and a hub-labeling
//! oracle over a contraction ordering, which is what the system queries —
//! a set-associative distance cache under the paper's key scheme,
//! synthetic network generators, and a small text format for loading and
//! saving networks.
//!
//! The paper ("Large Scale Real-time Ridesharing with Service Guarantee on
//! Road Networks", Huang et al., VLDB 2014) evaluates on the Shanghai road
//! network with 122,319 vertices and 188,426 edges and implements a
//! hub-labeling distance oracle plus two LRU caches keyed by
//! `id(s) * |V| + id(e)`, one for distances and one for paths. This crate
//! reproduces the labels and the distance cache, as one 4-way
//! set-associative array rather than a hash table (the path cache hit
//! 0.7–3.4 % here, so paths are always unpacked from the labels);
//! [`CachedOracle`] puts the cache in front of the labels and is the one
//! oracle the simulator queries, from one thread.
//!
//! # Quick example
//!
//! ```
//! use roadnet::{GraphBuilder, Point, ShortestPathEngine, DijkstraEngine};
//!
//! let mut b = GraphBuilder::new();
//! let a = b.add_node(Point::new(0.0, 0.0));
//! let c = b.add_node(Point::new(100.0, 0.0));
//! let d = b.add_node(Point::new(100.0, 100.0));
//! b.add_edge(a, c, 100.0);
//! b.add_edge(c, d, 100.0);
//! b.add_edge(a, d, 250.0);
//! let g = b.build();
//!
//! let engine = DijkstraEngine::new(&g);
//! assert_eq!(engine.distance(a, d), Some(200.0));
//! ```

pub mod cache;
pub mod contraction;
pub mod dijkstra;
pub mod error;
pub mod generators;
pub mod graph;
pub mod hub_label;
pub mod io;
pub mod locator;
pub mod oracle;
pub mod partition;
pub mod sharded;
pub mod types;

pub use cache::LruCache;
pub use contraction::ContractionOrder;
pub use dijkstra::DijkstraEngine;
pub use error::RoadNetError;
pub use generators::{GeneratorConfig, NetworkKind};
pub use graph::{GraphBuilder, RoadNetwork};
pub use hub_label::{HubLabels, LabelEntry};
pub use io::{parse_network, write_network};
pub use locator::NodeLocator;
pub use oracle::{
    CachedOracle, DistanceOracle, MatrixOracle, OracleBackend, OracleStats, ShortestPathEngine,
};
pub use partition::PartitionSpec;
pub use sharded::ShardedOracle;
pub use types::{EdgeId, NodeId, Point, Weight, INFINITY};
