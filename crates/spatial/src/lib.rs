//! Grid-based spatial index for moving objects.
//!
//! The paper tracks roughly 17,000 taxis that report their location every
//! 20–60 seconds and deliberately chooses "a simple grid-based spatial
//! index" over more elaborate moving-object indexes (TPR*-tree, B^x-tree,
//! STRIPES, …): the index is only used to find the vehicles *possibly*
//! within the waiting-time radius of a request, after which each candidate
//! vehicle is asked for its actual location and schedule. This crate
//! reproduces that component.
//!
//! [`GridIndex`] maps object ids to cells of a uniform grid; updates are
//! O(1) and only touch the structure when the object crosses a cell
//! boundary (the index keeps a counter of how often that happens, which the
//! ablation benchmarks report). A radius query comes either as the ids in
//! the disc ([`GridIndex::query_radius`]) or as their exact count plus the
//! cells meeting the disc, nearest first
//! ([`GridIndex::cells_by_distance`]), for a caller that reads candidates
//! in distance order and stops early.
//!
//! ```
//! use spatial::{GridIndex, Position};
//!
//! let mut idx = GridIndex::new(1_000.0);       // 1 km cells
//! idx.insert(7, Position::new(100.0, 250.0));  // taxi 7
//! idx.insert(9, Position::new(5_000.0, 5_000.0));
//! let near = idx.query_radius(Position::new(0.0, 0.0), 2_000.0);
//! assert_eq!(near, vec![7]);
//! ```

pub mod grid;

pub use grid::{Cell, GridIndex, GridStats, Position};
