//! Sparse bounded-variable revised simplex solver.
//!
//! This module replaced the seed's dense two-phase tableau (a faithful copy
//! of which survives as the frozen measurement baseline in
//! `rideshare_bench::baseline::dense_mip`). The production solver works on a
//! [`SparseLp`]: a minimisation problem whose columns are stored sparse
//! (compressed column form) and whose variable bounds `l ≤ x ≤ u` are
//! handled *implicitly* by the bounded-variable simplex rather than as
//! explicit tableau rows — for the MTZ ridesharing models this roughly
//! halves the row count, because every binary arc variable previously
//! contributed an `x ≤ 1` row.
//!
//! # Basis management and refactorisation policy
//!
//! [`SparseSimplex`] keeps the basis as a dense LU factorisation (partial
//! pivoting) plus a product-form *eta file*: each pivot appends one eta
//! vector instead of re-eliminating the whole tableau. FTRAN/BTRAN apply
//! the LU solve followed by the recorded etas. The basis is refactorised
//! from scratch when
//!
//! * the eta file reaches [`REFACTOR_EVERY`] vectors (work and rounding
//!   error both grow with the file), or
//! * a pivot element smaller than [`PIVOT_TOL`] is the best available —
//!   a refreshed factorisation usually recovers a stable pivot, and the
//!   candidate column is banned for the current phase if it does not.
//!
//! After every refactorisation the basic values are recomputed from
//! `x_B = B⁻¹(b − N·x_N)`, which discards accumulated drift.
//!
//! # Numerical tolerances
//!
//! * Reduced costs within [`DUAL_FEAS_TOL`] of zero are treated as zero
//!   (pricing / dual-feasibility test).
//! * Basic values within [`PRIMAL_FEAS_TOL`] of their bounds are feasible.
//! * The primal ratio test is Harris-style in two passes: pass one finds
//!   the minimum ratio with bounds relaxed by [`RATIO_TOL`], pass two picks
//!   the largest-magnitude pivot among rows whose ratio ties that minimum —
//!   trading a microscopic bound violation for far better pivots on the
//!   highly degenerate MTZ scheduling models.
//! * Anti-cycling: Dantzig pricing switches to Bland's rule after a stall,
//!   exactly as in the dense predecessor.
//!
//! # Warm starts
//!
//! [`SparseSimplex::resolve_from`] reoptimises after *bound changes only*
//! (the branch-and-bound case: a child node tightens one variable bound)
//! starting from a parent [`Basis`]. Bound changes never disturb dual
//! feasibility, so the dual simplex restores primal feasibility in a
//! handful of pivots instead of a from-scratch two-phase solve. When the
//! warm path hits its iteration cap or a singular basis it reports `None`
//! and the caller falls back to [`SparseSimplex::solve`].
//!
//! ```
//! use rideshare_mip::{ConstraintOp, Model, Sense, VarKind};
//! use rideshare_mip::simplex::{LpOutcome, SparseLp, SparseSimplex};
//!
//! // max 3x + 2y  s.t. x + y <= 4, x <= 2.5  (0 <= x, y <= 3)
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var(0.0, 3.0, 3.0, VarKind::Continuous, "x");
//! let y = m.add_var(0.0, 3.0, 2.0, VarKind::Continuous, "y");
//! m.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 4.0);
//! m.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 2.5);
//! let lp = SparseLp::from_model(&m).unwrap();
//! let mut simplex = SparseSimplex::new(&lp);
//! match simplex.solve(&[]) {
//!     // Internal objective is minimisation: -(3·2.5 + 2·1.5) = -10.5.
//!     LpOutcome::Optimal { objective, values } => {
//!         assert!((objective + 10.5).abs() < 1e-6);
//!         assert!((values[0] - 2.5).abs() < 1e-6);
//!     }
//!     other => panic!("{other:?}"),
//! }
//! // Warm start from the optimal basis after tightening x <= 1 (as a
//! // branch-and-bound child would): the dual simplex repairs it cheaply.
//! let basis = simplex.snapshot();
//! match simplex.resolve_from(&basis, &[(0, 0.0, 1.0)]).unwrap() {
//!     LpOutcome::Optimal { objective, .. } => assert!((objective + 9.0).abs() < 1e-6),
//!     other => panic!("{other:?}"),
//! }
//! ```

// The factorisation and pricing loops index several same-length arrays by
// row/column number, mirroring the linear-algebra subscripts; iterator
// chains would obscure the math.
#![expect(
    clippy::needless_range_loop,
    reason = "index loops mirror the linear-algebra subscripts over same-length arrays"
)]

use crate::model::{ConstraintOp, Model, Sense};

/// Reduced-cost tolerance: values within this of zero count as dual
/// feasible.
pub const DUAL_FEAS_TOL: f64 = 1e-7;
/// Bound-violation tolerance: basic values within this of their bound count
/// as primal feasible.
pub const PRIMAL_FEAS_TOL: f64 = 1e-7;
/// Smallest pivot magnitude accepted into the eta file.
pub const PIVOT_TOL: f64 = 1e-8;
/// Harris ratio-test bound relaxation.
pub const RATIO_TOL: f64 = 1e-9;
/// Maximum eta vectors before the basis is refactorised.
pub const REFACTOR_EVERY: usize = 64;
/// Entries below this magnitude are dropped from eta vectors.
const DROP_TOL: f64 = 1e-11;
/// Phase-1 objective above this is reported as infeasible.
const PHASE1_TOL: f64 = 1e-6;

/// Outcome of an LP solve, in terms of the *original* model variables.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// Optimum found; `objective` is in internal minimisation sense.
    Optimal {
        /// Minimised objective value (negate for maximisation models).
        objective: f64,
        /// Variable values indexed like the model's variables.
        values: Vec<f64>,
    },
    /// No feasible point exists.
    Infeasible,
    /// The objective decreases without bound.
    Unbounded,
}

/// A minimisation LP with sparse columns and explicit variable bounds,
/// produced from a [`Model`] by [`SparseLp::from_model`].
///
/// Every constraint row carries one slack column so the system is
/// `A·x = b`, `l ≤ x ≤ u`; inequality direction lives in the slack bounds
/// (`≤` → slack in `[0, ∞)`, `≥` → `(-∞, 0]`, `=` → fixed at 0).
#[derive(Debug, Clone)]
pub struct SparseLp {
    /// Number of structural (model) variables.
    n_struct: usize,
    /// Number of rows.
    m: usize,
    /// Structural + slack column count (`n_struct + m`).
    ncols: usize,
    /// CSC column pointers, length `ncols + 1`.
    col_ptr: Vec<usize>,
    /// CSC row indices.
    row_ind: Vec<usize>,
    /// CSC coefficients.
    val: Vec<f64>,
    /// Objective per column (minimisation sense; slacks cost 0).
    cost: Vec<f64>,
    /// Base lower bound per column.
    lb: Vec<f64>,
    /// Base upper bound per column.
    ub: Vec<f64>,
    /// Right-hand side per row.
    rhs: Vec<f64>,
}

impl SparseLp {
    /// Builds the sparse bounded form of `model`.
    ///
    /// Variable lower bounds must be finite (checked by
    /// [`Model::solve`][crate::Model::solve]); duplicate terms within one
    /// constraint are combined.
    pub fn from_model(model: &Model) -> Result<Self, String> {
        let n_struct = model.num_vars();
        let m = model.num_constraints();
        let ncols = n_struct + m;
        let sign = match model.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut cost = vec![0.0; ncols];
        let mut lb = vec![0.0; ncols];
        let mut ub = vec![0.0; ncols];
        for i in 0..n_struct {
            let (l, u, obj, _) = model.var_data(i);
            if !l.is_finite() {
                return Err(format!("variable {i} must have a finite lower bound"));
            }
            cost[i] = sign * obj;
            lb[i] = l;
            ub[i] = u;
        }
        // Column-major build: combine duplicate terms per row first.
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ncols];
        let mut rhs = vec![0.0; m];
        let mut merged: Vec<(usize, f64)> = Vec::new();
        for i in 0..m {
            let (terms, op, b) = model.constraint_data(i);
            merged.clear();
            merged.extend_from_slice(terms);
            merged.sort_unstable_by_key(|&(v, _)| v);
            let mut k = 0;
            while k < merged.len() {
                let (v, mut a) = merged[k];
                if v >= n_struct {
                    return Err(format!("constraint {i} references unknown variable {v}"));
                }
                let mut next = k + 1;
                while next < merged.len() && merged[next].0 == v {
                    a += merged[next].1;
                    next += 1;
                }
                if a != 0.0 {
                    cols[v].push((i, a));
                }
                k = next;
            }
            rhs[i] = b;
            let slack = n_struct + i;
            cols[slack].push((i, 1.0));
            let (sl, su) = match op {
                ConstraintOp::Le => (0.0, f64::INFINITY),
                ConstraintOp::Ge => (f64::NEG_INFINITY, 0.0),
                ConstraintOp::Eq => (0.0, 0.0),
            };
            lb[slack] = sl;
            ub[slack] = su;
        }
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        let mut row_ind = Vec::new();
        let mut val = Vec::new();
        col_ptr.push(0);
        for c in &cols {
            for &(r, a) in c {
                row_ind.push(r);
                val.push(a);
            }
            col_ptr.push(row_ind.len());
        }
        Ok(SparseLp {
            n_struct,
            m,
            ncols,
            col_ptr,
            row_ind,
            val,
            cost,
            lb,
            ub,
            rhs,
        })
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.n_struct
    }

    /// Number of constraint rows (bound rows no longer exist).
    pub fn num_rows(&self) -> usize {
        self.m
    }

    /// Number of stored non-zero coefficients (structural columns only).
    pub fn num_nonzeros(&self) -> usize {
        self.col_ptr[self.n_struct]
    }

    fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_ind[s..e], &self.val[s..e])
    }
}

/// Where a column currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VStat {
    /// In the basis.
    Basic,
    /// Nonbasic at its (finite) lower bound.
    Lower,
    /// Nonbasic at its (finite) upper bound.
    Upper,
}

/// A snapshot of a simplex basis, cheap to clone and store per
/// branch-and-bound node; restored by [`SparseSimplex::resolve_from`].
#[derive(Debug, Clone, PartialEq)]
pub struct Basis {
    basis: Vec<usize>,
    vstat: Vec<VStat>,
    art_sign: Vec<f64>,
}

/// Dense LU factors of the basis matrix with partial pivoting.
struct LuFactors {
    m: usize,
    /// Row-major combined L (unit diagonal, below) and U (on/above).
    a: Vec<f64>,
    /// Sequential row swaps: at step k, row k was swapped with `piv[k]`.
    piv: Vec<usize>,
}

impl LuFactors {
    /// Factorises the dense matrix `a` (row-major, consumed in place).
    fn factorize(mut a: Vec<f64>, m: usize) -> Option<LuFactors> {
        let mut piv = vec![0usize; m];
        for k in 0..m {
            let mut p = k;
            let mut best = a[k * m + k].abs();
            for i in k + 1..m {
                let v = a[i * m + k].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < 1e-12 {
                return None;
            }
            piv[k] = p;
            if p != k {
                for j in 0..m {
                    a.swap(k * m + j, p * m + j);
                }
            }
            let d = a[k * m + k];
            for i in k + 1..m {
                let f = a[i * m + k] / d;
                a[i * m + k] = f;
                if f != 0.0 {
                    for j in k + 1..m {
                        a[i * m + j] -= f * a[k * m + j];
                    }
                }
            }
        }
        Some(LuFactors { m, a, piv })
    }

    /// Solves `B x = v` in place (before eta application).
    fn ftran(&self, v: &mut [f64]) {
        let m = self.m;
        for k in 0..m {
            v.swap(k, self.piv[k]);
        }
        for k in 0..m {
            let vk = v[k];
            if vk != 0.0 {
                for i in k + 1..m {
                    v[i] -= self.a[i * m + k] * vk;
                }
            }
        }
        for k in (0..m).rev() {
            let mut s = v[k];
            for j in k + 1..m {
                s -= self.a[k * m + j] * v[j];
            }
            v[k] = s / self.a[k * m + k];
        }
    }

    /// Solves `Bᵀ y = w` in place (after reverse eta application).
    fn btran(&self, v: &mut [f64]) {
        let m = self.m;
        // Uᵀ (lower triangular) forward solve.
        for k in 0..m {
            let mut s = v[k];
            for j in 0..k {
                s -= self.a[j * m + k] * v[j];
            }
            v[k] = s / self.a[k * m + k];
        }
        // Lᵀ (unit upper triangular) backward solve.
        for k in (0..m).rev() {
            let mut s = v[k];
            for j in k + 1..m {
                s -= self.a[j * m + k] * v[j];
            }
            v[k] = s;
        }
        // Undo the row swaps (apply Pᵀ).
        for k in (0..m).rev() {
            v.swap(k, self.piv[k]);
        }
    }
}

/// One product-form update: basis column `row` was replaced by a column
/// whose FTRAN image was `entries` with pivot element `pivot` at `row`.
struct Eta {
    row: usize,
    /// Off-pivot entries of the transformed column.
    entries: Vec<(usize, f64)>,
    pivot: f64,
}

enum PhaseResult {
    Optimal,
    Unbounded,
}

/// Sparse bounded-variable revised simplex over a [`SparseLp`].
///
/// One instance is meant to be reused across many related solves (the
/// branch-and-bound search keeps a single instance alive): [`Self::solve`]
/// performs a cold two-phase solve, [`Self::snapshot`] captures the
/// optimal basis, and [`Self::resolve_from`] warm-starts from a snapshot
/// after bound changes via the dual simplex. See the module docs for the
/// refactorisation and tolerance policy.
pub struct SparseSimplex<'a> {
    lp: &'a SparseLp,
    /// Structural + slack columns.
    ncols: usize,
    /// Including one virtual artificial column per row.
    total: usize,
    lb: Vec<f64>,
    ub: Vec<f64>,
    x: Vec<f64>,
    vstat: Vec<VStat>,
    basis: Vec<usize>,
    /// Coefficient (±1) of each row's artificial column.
    art_sign: Vec<f64>,
    lu: Option<LuFactors>,
    etas: Vec<Eta>,
    /// Columns excluded from pricing after a failed pivot (cleared per phase).
    banned: Vec<bool>,
    /// Scratch vectors of length `m`.
    work: Vec<f64>,
    work2: Vec<f64>,
    /// Dual values scratch (length `m`), reused across dual iterations.
    duals: Vec<f64>,
    /// Phase-2 cost vector (constant for the solver's lifetime).
    cost2: Vec<f64>,
    /// Scratch for gathering one column's entries before an FTRAN.
    col_scratch: Vec<(usize, f64)>,
}

impl<'a> SparseSimplex<'a> {
    /// Creates a solver for `lp` with no basis yet.
    pub fn new(lp: &'a SparseLp) -> Self {
        let m = lp.m;
        let ncols = lp.ncols;
        let total = ncols + m;
        SparseSimplex {
            lp,
            ncols,
            total,
            lb: vec![0.0; total],
            ub: vec![0.0; total],
            x: vec![0.0; total],
            vstat: vec![VStat::Lower; total],
            basis: Vec::new(),
            art_sign: vec![1.0; m],
            lu: None,
            etas: Vec::new(),
            banned: vec![false; total],
            work: vec![0.0; m],
            work2: vec![0.0; m],
            duals: vec![0.0; m],
            cost2: {
                let mut c = vec![0.0; total];
                c[..ncols].copy_from_slice(&lp.cost);
                c
            },
            col_scratch: Vec::new(),
        }
    }

    /// Iterates a column's `(row, coefficient)` pairs, including the
    /// virtual artificial columns `ncols..total`.
    #[inline]
    fn for_col(&self, j: usize, mut f: impl FnMut(usize, f64)) {
        if j < self.ncols {
            let (rows, vals) = self.lp.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                f(r, v);
            }
        } else {
            let r = j - self.ncols;
            f(r, self.art_sign[r]);
        }
    }

    #[inline]
    fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        let mut s = 0.0;
        self.for_col(j, |r, v| s += v * y[r]);
        s
    }

    /// Applies working bounds = base bounds tightened by `extra`
    /// (`(var, lb, ub)` over structural variables). Artificials are fixed
    /// at zero; phase 1 relaxes the ones it uses.
    ///
    /// # Panics
    /// If an override names a variable the LP does not have — a
    /// programming error, not a property of the model.
    fn setup_bounds(&mut self, extra: &[(usize, f64, f64)]) -> Result<(), ()> {
        self.lb[..self.ncols].copy_from_slice(&self.lp.lb);
        self.ub[..self.ncols].copy_from_slice(&self.lp.ub);
        for &(v, l, u) in extra {
            assert!(
                v < self.lp.n_struct,
                "bound override for unknown variable {v} (LP has {} structural variables)",
                self.lp.n_struct
            );
            self.lb[v] = self.lb[v].max(l);
            self.ub[v] = self.ub[v].min(u);
        }
        for j in self.ncols..self.total {
            self.lb[j] = 0.0;
            self.ub[j] = 0.0;
        }
        for j in 0..self.lp.n_struct {
            if self.lb[j] > self.ub[j] + PRIMAL_FEAS_TOL {
                return Err(());
            }
        }
        Ok(())
    }

    /// Loads column `j` into `work` (zeroing the rest) ready for an FTRAN,
    /// buffering the entries through `col_scratch` to split the borrow.
    fn load_column_into_work(&mut self, j: usize) {
        self.work.iter_mut().for_each(|v| *v = 0.0);
        let mut seed = std::mem::take(&mut self.col_scratch);
        seed.clear();
        self.for_col(j, |r, v| seed.push((r, v)));
        for &(r, v) in &seed {
            self.work[r] = v;
        }
        self.col_scratch = seed;
    }

    /// FTRAN: `work ← B⁻¹ work` through the LU factors and the eta file.
    fn ftran(&mut self) {
        let lu = self.lu.as_ref().expect("factorised basis");
        lu.ftran(&mut self.work);
        for eta in &self.etas {
            let yr = self.work[eta.row] / eta.pivot;
            self.work[eta.row] = yr;
            if yr != 0.0 {
                for &(i, a) in &eta.entries {
                    self.work[i] -= a * yr;
                }
            }
        }
    }

    /// BTRAN: `work2 ← B⁻ᵀ work2` through the eta file (reverse) and LU.
    fn btran(&mut self) {
        for eta in self.etas.iter().rev() {
            let mut s = self.work2[eta.row];
            for &(i, a) in &eta.entries {
                s -= self.work2[i] * a;
            }
            self.work2[eta.row] = s / eta.pivot;
        }
        let lu = self.lu.as_ref().expect("factorised basis");
        lu.btran(&mut self.work2);
    }

    /// Rebuilds the LU factors from the current basis and clears the eta
    /// file. Fails on a (numerically) singular basis.
    fn refactorize(&mut self) -> Result<(), ()> {
        let m = self.lp.m;
        let mut dense = vec![0.0; m * m];
        for (r, &j) in self.basis.iter().enumerate() {
            self.for_col(j, |i, v| dense[i * m + r] = v);
        }
        install_factors(&mut self.lu, dense, m)?;
        self.etas.clear();
        Ok(())
    }

    /// Recomputes basic values `x_B = B⁻¹(b − N·x_N)` from scratch.
    fn recompute_basics(&mut self) {
        let m = self.lp.m;
        self.work[..m].copy_from_slice(&self.lp.rhs);
        let lp = self.lp;
        for j in 0..self.total {
            if self.vstat[j] != VStat::Basic && self.x[j] != 0.0 {
                let xj = self.x[j];
                if j < self.ncols {
                    let (rows, vals) = lp.col(j);
                    for (&r, &v) in rows.iter().zip(vals) {
                        self.work[r] -= v * xj;
                    }
                } else {
                    let r = j - self.ncols;
                    self.work[r] -= self.art_sign[r] * xj;
                }
            }
        }
        self.ftran();
        for r in 0..m {
            let j = self.basis[r];
            self.x[j] = self.work[r];
        }
    }

    /// Primal simplex over the current (feasible) basis for `cost`.
    fn primal(&mut self, cost: &[f64]) -> PhaseResult {
        let m = self.lp.m;
        self.banned.iter_mut().for_each(|b| *b = false);
        let max_iters = 50 * (m + self.ncols) + 200;
        let bland_after = 10 * (m + self.ncols) + 50;
        let mut iter = 0usize;
        while iter < max_iters {
            iter += 1;
            let use_bland = iter >= bland_after;
            // Duals y = B⁻ᵀ c_B, then price nonbasic columns.
            for r in 0..m {
                self.work2[r] = cost[self.basis[r]];
            }
            self.btran();
            let mut entering: Option<(usize, f64, f64)> = None; // (j, d_j, dir)
            let mut best = DUAL_FEAS_TOL;
            for j in 0..self.total {
                if self.vstat[j] == VStat::Basic || self.banned[j] || self.lb[j] >= self.ub[j] {
                    continue;
                }
                let d = cost[j] - {
                    let mut s = 0.0;
                    self.for_col(j, |r, v| s += v * self.work2[r]);
                    s
                };
                let (improving, dir) = match self.vstat[j] {
                    VStat::Lower => (d < -DUAL_FEAS_TOL, 1.0),
                    VStat::Upper => (d > DUAL_FEAS_TOL, -1.0),
                    VStat::Basic => unreachable!(),
                };
                if improving {
                    if use_bland {
                        entering = Some((j, d, dir));
                        break;
                    }
                    if d.abs() > best {
                        best = d.abs();
                        entering = Some((j, d, dir));
                    }
                }
            }
            let Some((j, _d, dir)) = entering else {
                return PhaseResult::Optimal;
            };
            // alpha = B⁻¹ A_j.
            self.load_column_into_work(j);
            self.ftran();
            // Harris-style two-pass ratio test; `dir` = +1 entering from
            // lower, −1 from upper; basic change is −dir·t·alpha.
            let flip = self.ub[j] - self.lb[j]; // may be infinite
            let mut tmin = f64::INFINITY;
            for r in 0..m {
                let a = dir * self.work[r];
                let bj = self.basis[r];
                if a > PIVOT_TOL {
                    if self.lb[bj].is_finite() {
                        let t = (self.x[bj] - self.lb[bj] + RATIO_TOL) / a;
                        tmin = tmin.min(t.max(0.0));
                    }
                } else if a < -PIVOT_TOL && self.ub[bj].is_finite() {
                    let t = (self.ub[bj] - self.x[bj] + RATIO_TOL) / -a;
                    tmin = tmin.min(t.max(0.0));
                }
            }
            if !tmin.is_finite() && !flip.is_finite() {
                return PhaseResult::Unbounded;
            }
            if flip <= tmin {
                // Bound flip: no basis change.
                let t = flip;
                for r in 0..m {
                    let a = dir * self.work[r];
                    if a != 0.0 {
                        let bj = self.basis[r];
                        self.x[bj] -= a * t;
                    }
                }
                self.vstat[j] = match self.vstat[j] {
                    VStat::Lower => VStat::Upper,
                    VStat::Upper => VStat::Lower,
                    VStat::Basic => unreachable!(),
                };
                self.x[j] = if self.vstat[j] == VStat::Lower {
                    self.lb[j]
                } else {
                    self.ub[j]
                };
                continue;
            }
            // Pass two: among rows within the Harris window, take the
            // largest pivot.
            let mut leave: Option<(usize, bool)> = None; // (row, hits_lower)
            let mut best_piv = 0.0;
            let mut t_exact = f64::INFINITY;
            for r in 0..m {
                let a = dir * self.work[r];
                let bj = self.basis[r];
                if a > PIVOT_TOL && self.lb[bj].is_finite() {
                    let t = ((self.x[bj] - self.lb[bj]) / a).max(0.0);
                    if t <= tmin && a.abs() > best_piv {
                        best_piv = a.abs();
                        leave = Some((r, true));
                        t_exact = t;
                    }
                } else if a < -PIVOT_TOL && self.ub[bj].is_finite() {
                    let t = ((self.ub[bj] - self.x[bj]) / -a).max(0.0);
                    if t <= tmin && a.abs() > best_piv {
                        best_piv = a.abs();
                        leave = Some((r, false));
                        t_exact = t;
                    }
                }
            }
            let Some((r, hits_lower)) = leave else {
                // All candidate pivots were rejected as too small: refresh
                // the factorisation once, else ban the column.
                if !self.etas.is_empty() && self.refactorize().is_ok() {
                    self.recompute_basics();
                } else {
                    self.banned[j] = true;
                }
                continue;
            };
            let t = t_exact;
            for i in 0..m {
                let a = dir * self.work[i];
                if a != 0.0 {
                    let bj = self.basis[i];
                    self.x[bj] -= a * t;
                }
            }
            let leaving = self.basis[r];
            self.x[leaving] = if hits_lower {
                self.lb[leaving]
            } else {
                self.ub[leaving]
            };
            self.vstat[leaving] = if hits_lower {
                VStat::Lower
            } else {
                VStat::Upper
            };
            self.x[j] = if dir > 0.0 {
                self.lb[j] + t
            } else {
                self.ub[j] - t
            };
            self.vstat[j] = VStat::Basic;
            self.push_eta(r, j);
        }
        // Iteration cap: report the current point as "optimal enough", as
        // the dense predecessor did; branch and bound only loses pruning
        // power from a conservative bound.
        PhaseResult::Optimal
    }

    /// Records the pivot `(row r, entering j)` in the eta file and
    /// refactorises on schedule. `work` must still hold `B⁻¹ A_j`.
    fn push_eta(&mut self, r: usize, j: usize) {
        let pivot = self.work[r];
        let entries: Vec<(usize, f64)> = self
            .work
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != r && v.abs() > DROP_TOL)
            .map(|(i, &v)| (i, v))
            .collect();
        self.basis[r] = j;
        self.etas.push(Eta {
            row: r,
            entries,
            pivot,
        });
        if (self.etas.len() >= REFACTOR_EVERY || pivot.abs() < PIVOT_TOL)
            && self.refactorize().is_ok()
        {
            self.recompute_basics();
        }
    }

    /// Runs the primal simplex with the (constant) phase-2 cost vector,
    /// temporarily moving it out of `self` to satisfy the borrow checker
    /// without reallocating it per solve.
    fn primal_phase2(&mut self) -> PhaseResult {
        let c2 = std::mem::take(&mut self.cost2);
        let result = self.primal(&c2);
        self.cost2 = c2;
        result
    }

    /// Cold two-phase solve under the given extra bounds.
    ///
    /// # Panics
    /// If an entry of `extra_bounds` names a variable index the model does
    /// not have.
    pub fn solve(&mut self, extra_bounds: &[(usize, f64, f64)]) -> LpOutcome {
        if self.setup_bounds(extra_bounds).is_err() {
            return LpOutcome::Infeasible;
        }
        let m = self.lp.m;
        // Start: structural and slack columns at a finite bound.
        for j in 0..self.total {
            let (l, u) = (self.lb[j], self.ub[j]);
            if l.is_finite() {
                self.vstat[j] = VStat::Lower;
                self.x[j] = l;
            } else {
                self.vstat[j] = VStat::Upper;
                self.x[j] = u;
            }
        }
        self.basis.clear();
        self.basis.resize(m, 0);
        self.art_sign.iter_mut().for_each(|s| *s = 1.0);
        // Row residuals decide between a basic slack and an artificial.
        let mut residual = self.lp.rhs.clone();
        for j in 0..self.lp.n_struct {
            if self.x[j] != 0.0 {
                let xj = self.x[j];
                let (rows, vals) = self.lp.col(j);
                for (&r, &v) in rows.iter().zip(vals) {
                    residual[r] -= v * xj;
                }
            }
        }
        let mut need_phase1 = false;
        for r in 0..m {
            let slack = self.lp.n_struct + r;
            let (sl, su) = (self.lb[slack], self.ub[slack]);
            if residual[r] >= sl - PRIMAL_FEAS_TOL && residual[r] <= su + PRIMAL_FEAS_TOL {
                self.basis[r] = slack;
                self.vstat[slack] = VStat::Basic;
                self.x[slack] = residual[r].clamp(sl, su.max(sl));
            } else {
                let art = self.ncols + r;
                self.art_sign[r] = if residual[r] >= 0.0 { 1.0 } else { -1.0 };
                self.basis[r] = art;
                self.vstat[art] = VStat::Basic;
                self.x[art] = residual[r].abs();
                self.ub[art] = f64::INFINITY;
                need_phase1 = true;
            }
        }
        if self.refactorize().is_err() {
            return LpOutcome::Infeasible;
        }
        if need_phase1 {
            let mut c1 = vec![0.0; self.total];
            for j in self.ncols..self.total {
                c1[j] = 1.0;
            }
            match self.primal(&c1) {
                PhaseResult::Unbounded => return LpOutcome::Infeasible,
                PhaseResult::Optimal => {
                    let infeas: f64 = (self.ncols..self.total).map(|j| self.x[j]).sum();
                    if infeas > PHASE1_TOL {
                        return LpOutcome::Infeasible;
                    }
                }
            }
            // Fix the artificials at zero for phase 2 (basic ones stay,
            // pinned to zero, and can only leave the basis from here on).
            for j in self.ncols..self.total {
                self.ub[j] = 0.0;
                if self.vstat[j] != VStat::Basic {
                    self.x[j] = 0.0;
                }
            }
        }
        match self.primal_phase2() {
            PhaseResult::Unbounded => LpOutcome::Unbounded,
            PhaseResult::Optimal => self.extract(),
        }
    }

    /// Captures the current basis for later warm starts.
    pub fn snapshot(&self) -> Basis {
        Basis {
            basis: self.basis.clone(),
            vstat: self.vstat.clone(),
            art_sign: self.art_sign.clone(),
        }
    }

    /// Warm start: restores `from` and reoptimises under changed bounds via
    /// the dual simplex.
    ///
    /// Returns `None` when the warm path gives up (singular restored basis
    /// or iteration cap) — the caller should fall back to [`Self::solve`].
    /// Bound changes never break dual feasibility, so this is the fast path
    /// for branch-and-bound children.
    ///
    /// # Panics
    /// If an entry of `extra_bounds` names a variable index the model does
    /// not have.
    pub fn resolve_from(
        &mut self,
        from: &Basis,
        extra_bounds: &[(usize, f64, f64)],
    ) -> Option<LpOutcome> {
        if self.setup_bounds(extra_bounds).is_err() {
            return Some(LpOutcome::Infeasible);
        }
        let m = self.lp.m;
        // Artificials that phase 1 once relied on may still sit in the
        // basis at value zero; they stay fixed to zero here.
        let basis_unchanged = self.lu.is_some() && self.basis == from.basis;
        self.vstat.copy_from_slice(&from.vstat);
        self.art_sign.copy_from_slice(&from.art_sign);
        if !basis_unchanged {
            self.basis.clear();
            self.basis.extend_from_slice(&from.basis);
            if self.refactorize().is_err() {
                return None;
            }
        }
        for j in 0..self.total {
            match self.vstat[j] {
                VStat::Basic => {}
                VStat::Lower => {
                    debug_assert!(self.lb[j].is_finite());
                    self.x[j] = self.lb[j];
                }
                VStat::Upper => {
                    debug_assert!(self.ub[j].is_finite());
                    self.x[j] = self.ub[j];
                }
            }
        }
        self.recompute_basics();
        // The phase-2 cost vector is constant; move it out of `self` for
        // the duration of the dual loop instead of reallocating per node.
        let c2 = std::mem::take(&mut self.cost2);
        let mut outcome: Option<Option<LpOutcome>> = None;
        let max_iters = 20 * (m + self.ncols) + 100;
        let mut iter = 0usize;
        loop {
            iter += 1;
            if iter > max_iters {
                outcome = Some(None);
                break;
            }
            // Most-violated basic variable leaves.
            let mut leave: Option<(usize, bool)> = None; // (row, below_lower)
            let mut worst = PRIMAL_FEAS_TOL;
            for r in 0..m {
                let j = self.basis[r];
                let below = self.lb[j] - self.x[j];
                let above = self.x[j] - self.ub[j];
                if below > worst {
                    worst = below;
                    leave = Some((r, true));
                }
                if above > worst {
                    worst = above;
                    leave = Some((r, false));
                }
            }
            let Some((r, below)) = leave else {
                break;
            };
            // Duals for the ratio test.
            for i in 0..m {
                self.work2[i] = c2[self.basis[i]];
            }
            self.btran();
            std::mem::swap(&mut self.duals, &mut self.work2);
            // Row r of B⁻¹N via rho = B⁻ᵀ e_r.
            self.work2.iter_mut().for_each(|v| *v = 0.0);
            self.work2[r] = 1.0;
            self.btran();
            let mut entering: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            let mut best_piv = 0.0;
            for j in 0..self.total {
                if self.vstat[j] == VStat::Basic || self.lb[j] >= self.ub[j] {
                    continue;
                }
                let mut arj = 0.0;
                self.for_col(j, |i, v| arj += v * self.work2[i]);
                let eligible = match (below, self.vstat[j]) {
                    (true, VStat::Lower) => arj < -PIVOT_TOL * 10.0,
                    (true, VStat::Upper) => arj > PIVOT_TOL * 10.0,
                    (false, VStat::Lower) => arj > PIVOT_TOL * 10.0,
                    (false, VStat::Upper) => arj < -PIVOT_TOL * 10.0,
                    (_, VStat::Basic) => false,
                };
                if !eligible {
                    continue;
                }
                let d = c2[j] - self.col_dot(j, &self.duals);
                let ratio = d.abs() / arj.abs();
                if ratio < best_ratio - RATIO_TOL
                    || (ratio < best_ratio + RATIO_TOL && arj.abs() > best_piv)
                {
                    best_ratio = ratio;
                    best_piv = arj.abs();
                    entering = Some(j);
                }
            }
            let Some(j) = entering else {
                // Dual unbounded: the node's LP is infeasible.
                outcome = Some(Some(LpOutcome::Infeasible));
                break;
            };
            // alpha = B⁻¹ A_j, pivot on row r.
            self.load_column_into_work(j);
            self.ftran();
            let arj = self.work[r];
            if arj.abs() < PIVOT_TOL {
                // Disagreement between rho-pricing and the FTRAN column:
                // refresh the factorisation and retry, else give up.
                if self.refactorize().is_err() {
                    outcome = Some(None);
                    break;
                }
                self.recompute_basics();
                continue;
            }
            let leaving = self.basis[r];
            let target = if below {
                self.lb[leaving]
            } else {
                self.ub[leaving]
            };
            let dxj = (self.x[leaving] - target) / arj;
            for i in 0..m {
                let a = self.work[i];
                if a != 0.0 {
                    let bj = self.basis[i];
                    self.x[bj] -= a * dxj;
                }
            }
            self.x[leaving] = target;
            self.vstat[leaving] = if below { VStat::Lower } else { VStat::Upper };
            self.x[j] += dxj;
            self.vstat[j] = VStat::Basic;
            self.push_eta(r, j);
        }
        self.cost2 = c2;
        if let Some(early) = outcome {
            return early;
        }
        // Primal polish: normally zero iterations, it just certifies dual
        // feasibility after the restore.
        match self.primal_phase2() {
            PhaseResult::Unbounded => Some(LpOutcome::Unbounded),
            PhaseResult::Optimal => Some(self.extract()),
        }
    }

    fn extract(&self) -> LpOutcome {
        let n = self.lp.n_struct;
        let mut values = Vec::with_capacity(n);
        let mut objective = 0.0;
        for j in 0..n {
            let v = self.x[j].clamp(self.lb[j], self.ub[j].max(self.lb[j]));
            objective += self.lp.cost[j] * v;
            values.push(v);
        }
        LpOutcome::Optimal { objective, values }
    }
}

/// Helper so `refactorize` can reuse the `Option` slot without cloning.
fn install_factors(slot: &mut Option<LuFactors>, dense: Vec<f64>, m: usize) -> Result<(), ()> {
    match LuFactors::factorize(dense, m) {
        Some(f) => {
            *slot = Some(f);
            Ok(())
        }
        None => Err(()),
    }
}

/// Convenience: cold-solves `lp` with no bound overrides.
pub fn solve_lp(lp: &SparseLp) -> LpOutcome {
    SparseSimplex::new(lp).solve(&[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense, VarKind};

    fn lp(model: &Model) -> LpOutcome {
        let sparse = SparseLp::from_model(model).unwrap();
        solve_lp(&sparse)
    }

    #[test]
    fn simple_bounded_lp() {
        // min -x - y s.t. x + y <= 2 (x,y >= 0) -> -2
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, -1.0, VarKind::Continuous, "x");
        let y = m.add_var(0.0, f64::INFINITY, -1.0, VarKind::Continuous, "y");
        m.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 2.0);
        match lp(&m) {
            LpOutcome::Optimal { objective, values } => {
                assert!((objective - -2.0).abs() < 1e-6);
                assert!((values[0] + values[1] - 2.0).abs() < 1e-6);
            }
            other => panic!("expected optimum, got {other:?}"),
        }
    }

    #[test]
    fn negative_rhs_ge_rows() {
        // min x s.t. -x <= -3  (i.e. x >= 3)
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous, "x");
        m.add_constraint(&[(x, -1.0)], ConstraintOp::Le, -3.0);
        match lp(&m) {
            LpOutcome::Optimal { objective, .. } => assert!((objective - 3.0).abs() < 1e-6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shifted_lower_bounds() {
        // min x + y, x >= 2, y in [1, 5], x + y >= 4 -> obj 4
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(2.0, f64::INFINITY, 1.0, VarKind::Continuous, "x");
        let y = m.add_var(1.0, 5.0, 1.0, VarKind::Continuous, "y");
        m.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 4.0);
        match lp(&m) {
            LpOutcome::Optimal { objective, values } => {
                assert!((objective - 4.0).abs() < 1e-6);
                assert!(values[0] >= 2.0 - 1e-6);
                assert!(values[1] >= 1.0 - 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn extra_bounds_tighten_the_relaxation() {
        // max x, x <= 10; override ub to 4.
        let mut m = Model::new(Sense::Maximize);
        m.add_var(0.0, 10.0, 1.0, VarKind::Continuous, "x");
        let sparse = SparseLp::from_model(&m).unwrap();
        let mut s = SparseSimplex::new(&sparse);
        match s.solve(&[(0, 0.0, 4.0)]) {
            LpOutcome::Optimal { objective, values } => {
                assert!((objective - -4.0).abs() < 1e-6);
                assert!((values[0] - 4.0).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn conflicting_extra_bounds_are_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var(0.0, 10.0, 1.0, VarKind::Continuous, "x");
        let sparse = SparseLp::from_model(&m).unwrap();
        let mut s = SparseSimplex::new(&sparse);
        assert_eq!(s.solve(&[(0, 5.0, 2.0)]), LpOutcome::Infeasible);
    }

    #[test]
    fn unconstrained_model_with_positive_costs() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var(1.5, f64::INFINITY, 2.0, VarKind::Continuous, "x");
        match lp(&m) {
            LpOutcome::Optimal { objective, values } => {
                assert!((objective - 3.0).abs() < 1e-9);
                assert!((values[0] - 1.5).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unconstrained_model_with_negative_cost_is_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous, "x");
        assert_eq!(lp(&m), LpOutcome::Unbounded);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Beale's cycling example; check it terminates at the optimum.
        let mut m = Model::new(Sense::Maximize);
        let x1 = m.add_var(0.0, f64::INFINITY, 10.0, VarKind::Continuous, "x1");
        let x2 = m.add_var(0.0, f64::INFINITY, -57.0, VarKind::Continuous, "x2");
        let x3 = m.add_var(0.0, f64::INFINITY, -9.0, VarKind::Continuous, "x3");
        let x4 = m.add_var(0.0, f64::INFINITY, -24.0, VarKind::Continuous, "x4");
        m.add_constraint(
            &[(x1, 0.5), (x2, -5.5), (x3, -2.5), (x4, 9.0)],
            ConstraintOp::Le,
            0.0,
        );
        m.add_constraint(
            &[(x1, 0.5), (x2, -1.5), (x3, -0.5), (x4, 1.0)],
            ConstraintOp::Le,
            0.0,
        );
        m.add_constraint(&[(x1, 1.0)], ConstraintOp::Le, 1.0);
        match lp(&m) {
            LpOutcome::Optimal { objective, .. } => {
                assert!(objective <= -1.0 + 1e-6, "objective {objective}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn warm_start_matches_cold_solve_after_bound_change() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, f64::INFINITY, 3.0, VarKind::Continuous, "x");
        let y = m.add_var(0.0, f64::INFINITY, 5.0, VarKind::Continuous, "y");
        m.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint(&[(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_constraint(&[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let sparse = SparseLp::from_model(&m).unwrap();
        let mut s = SparseSimplex::new(&sparse);
        let root = s.solve(&[]);
        assert!(matches!(root, LpOutcome::Optimal { .. }));
        let basis = s.snapshot();
        for bounds in [
            vec![(1usize, 0.0, 2.0)],
            vec![(0usize, 3.0, f64::INFINITY)],
            vec![(0usize, 0.0, 1.0), (1usize, 1.0, 4.0)],
        ] {
            let warm = s.resolve_from(&basis, &bounds).expect("warm path");
            let mut cold_solver = SparseSimplex::new(&sparse);
            let cold = cold_solver.solve(&bounds);
            match (&warm, &cold) {
                (
                    LpOutcome::Optimal { objective: a, .. },
                    LpOutcome::Optimal { objective: b, .. },
                ) => assert!((a - b).abs() < 1e-6, "warm {a} vs cold {b} for {bounds:?}"),
                (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                other => panic!("warm/cold mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn warm_start_detects_infeasible_child() {
        // x + y >= 4 with both variables forced to [0, 1] is infeasible.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 5.0, 1.0, VarKind::Continuous, "x");
        let y = m.add_var(0.0, 5.0, 1.0, VarKind::Continuous, "y");
        m.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 4.0);
        let sparse = SparseLp::from_model(&m).unwrap();
        let mut s = SparseSimplex::new(&sparse);
        assert!(matches!(s.solve(&[]), LpOutcome::Optimal { .. }));
        let basis = s.snapshot();
        let out = s
            .resolve_from(&basis, &[(0, 0.0, 1.0), (1, 0.0, 1.0)])
            .expect("warm path");
        assert_eq!(out, LpOutcome::Infeasible);
    }

    #[test]
    fn duplicate_terms_are_combined() {
        // min x s.t. x + x >= 5 -> x = 2.5
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous, "x");
        m.add_constraint(&[(x, 1.0), (x, 1.0)], ConstraintOp::Ge, 5.0);
        match lp(&m) {
            LpOutcome::Optimal { objective, .. } => assert!((objective - 2.5).abs() < 1e-6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fixed_variables_are_respected() {
        // y fixed at 2 via equal bounds.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 10.0, 1.0, VarKind::Continuous, "x");
        let y = m.add_var(2.0, 2.0, 0.0, VarKind::Continuous, "y");
        m.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 5.0);
        match lp(&m) {
            LpOutcome::Optimal { objective, values } => {
                assert!((objective - 3.0).abs() < 1e-6);
                assert!((values[1] - 2.0).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equality_system() {
        // min x + y s.t. x + 2y = 8, x - y = 2 -> y=2, x=4, obj=6
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous, "x");
        let y = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous, "y");
        m.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Eq, 8.0);
        m.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 2.0);
        match lp(&m) {
            LpOutcome::Optimal { objective, values } => {
                assert!((objective - 6.0).abs() < 1e-6);
                assert!((values[0] - 4.0).abs() < 1e-6);
                assert!((values[1] - 2.0).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sparse_lp_reports_sizes() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 1.0, 1.0, VarKind::Continuous, "x");
        let y = m.add_var(0.0, 1.0, 1.0, VarKind::Continuous, "y");
        m.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.0);
        let lp = SparseLp::from_model(&m).unwrap();
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_rows(), 1);
        assert_eq!(lp.num_nonzeros(), 2);
    }
}
