//! Frozen reference implementations that tests and gates compare against.
//!
//! [`dense_mip`] keeps the seed's dense two-phase simplex + branch-and-bound
//! solver as the reference the sparse revised-simplex rewrite is checked
//! and measured against: `tests/proptest_mip_equivalence.rs` holds the
//! sparse solver to it on random models that brute force cannot referee,
//! and `bench_summary` gates objective equivalence and speed on it. It is
//! deliberately not optimised and must not borrow improvements from
//! `rideshare_mip`.

pub mod dense_mip;
