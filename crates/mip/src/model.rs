//! Model-building API for linear and mixed-integer programs.

use crate::branch_bound::{solve_mip, SolveOptions, SolveStats};
use crate::simplex::{LpOutcome, SparseLp, SparseSimplex};

/// Index of a decision variable within a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Position of the variable in [`Solution::values`].
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Continuous or integral domain of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds (binaries are integers with bounds
    /// `[0, 1]`).
    Integer,
}

/// Direction of optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimise the objective.
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// Relational operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `lhs <= rhs`
    Le,
    /// `lhs >= rhs`
    Ge,
    /// `lhs == rhs`
    Eq,
}

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal (for MIPs: optimal within tolerance) solution was found.
    Optimal,
    /// A feasible solution was found but the node/iteration budget ran out
    /// before optimality was proven.
    Feasible,
    /// The problem has no feasible solution.
    Infeasible,
    /// The LP relaxation is unbounded in the optimisation direction.
    Unbounded,
    /// The budget ran out before any feasible solution was found.
    Unknown,
}

/// Errors reported by [`Model::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// No feasible assignment exists.
    Infeasible,
    /// The objective can be improved without bound.
    Unbounded,
    /// The search budget was exhausted before finding any feasible solution.
    BudgetExhausted,
    /// The model is malformed (e.g. empty, or a bound pair with lb > ub).
    InvalidModel(String),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "model is infeasible"),
            SolveError::Unbounded => write!(f, "model is unbounded"),
            SolveError::BudgetExhausted => write!(f, "search budget exhausted"),
            SolveError::InvalidModel(m) => write!(f, "invalid model: {m}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// Result of a successful solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Objective value in the model's own sense.
    pub objective: f64,
    /// Value of every variable, indexed by [`VarId::index`].
    pub values: Vec<f64>,
    /// Whether optimality was proven.
    pub status: Status,
    /// Search statistics.
    pub stats: SolveStats,
}

impl Solution {
    /// Value of a variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }

    /// Convenience: whether a (binary) variable is set, using a 0.5
    /// threshold.
    pub fn is_one(&self, var: VarId) -> bool {
        self.values[var.0] > 0.5
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub lb: f64,
    pub ub: f64,
    pub obj: f64,
    pub kind: VarKind,
    #[expect(
        dead_code,
        reason = "read only through the derived Debug, so a dumped model shows its variable names"
    )]
    pub name: String,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub terms: Vec<(usize, f64)>,
    pub op: ConstraintOp,
    pub rhs: f64,
}

/// A linear / mixed-integer optimisation model.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Model {
    /// Creates an empty model optimising in the given direction.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Adds a decision variable and returns its id.
    ///
    /// `lb`/`ub` are the variable bounds (`f64::INFINITY` allowed for `ub`,
    /// `f64::NEG_INFINITY` is *not* allowed for `lb`: the simplex core
    /// assumes non-negative shifted variables, and every model in this
    /// workspace has natural lower bounds). `obj` is the objective
    /// coefficient.
    pub fn add_var(
        &mut self,
        lb: f64,
        ub: f64,
        obj: f64,
        kind: VarKind,
        name: impl Into<String>,
    ) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            lb,
            ub,
            obj,
            kind,
            name: name.into(),
        });
        id
    }

    /// Adds a binary (0/1) variable.
    pub fn add_binary(&mut self, obj: f64, name: impl Into<String>) -> VarId {
        self.add_var(0.0, 1.0, obj, VarKind::Integer, name)
    }

    /// Adds a linear constraint `sum(coef * var) op rhs`.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], op: ConstraintOp, rhs: f64) {
        self.constraints.push(Constraint {
            terms: terms.iter().map(|&(v, c)| (v.0, c)).collect(),
            op,
            rhs,
        });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// True when at least one variable is integral.
    pub fn is_mip(&self) -> bool {
        self.vars.iter().any(|v| v.kind == VarKind::Integer)
    }

    /// Direction of optimisation.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Bounds, objective coefficient and kind of variable `i` as
    /// `(lb, ub, obj, kind)`.
    ///
    /// This read-only view (with [`Self::constraint_data`]) is what lets
    /// external reference solvers — such as the frozen dense-simplex
    /// baseline in `rideshare_bench::baseline::dense_mip` — consume the
    /// *same* model instance the production solver sees, so equivalence
    /// tests cannot drift apart on model-building details.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn var_data(&self, i: usize) -> (f64, f64, f64, VarKind) {
        let v = &self.vars[i];
        (v.lb, v.ub, v.obj, v.kind)
    }

    /// Terms, operator and right-hand side of constraint `i`.
    ///
    /// Terms are `(variable index, coefficient)` pairs exactly as added;
    /// duplicates are possible and must be summed by the consumer.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn constraint_data(&self, i: usize) -> (&[(usize, f64)], ConstraintOp, f64) {
        let c = &self.constraints[i];
        (&c.terms, c.op, c.rhs)
    }

    fn validate(&self) -> Result<(), SolveError> {
        if self.vars.is_empty() {
            return Err(SolveError::InvalidModel("model has no variables".into()));
        }
        for (i, v) in self.vars.iter().enumerate() {
            if v.lb.is_nan() || v.ub.is_nan() || v.obj.is_nan() {
                return Err(SolveError::InvalidModel(format!(
                    "variable {i} has NaN data"
                )));
            }
            if !v.lb.is_finite() {
                return Err(SolveError::InvalidModel(format!(
                    "variable {i} must have a finite lower bound"
                )));
            }
            if v.lb > v.ub {
                return Err(SolveError::InvalidModel(format!(
                    "variable {i} has lb {} > ub {}",
                    v.lb, v.ub
                )));
            }
        }
        for (i, c) in self.constraints.iter().enumerate() {
            if c.rhs.is_nan() || c.terms.iter().any(|&(_, a)| a.is_nan()) {
                return Err(SolveError::InvalidModel(format!(
                    "constraint {i} has NaN data"
                )));
            }
            for &(v, _) in &c.terms {
                if v >= self.vars.len() {
                    return Err(SolveError::InvalidModel(format!(
                        "constraint {i} references unknown variable {v}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Solves with default options.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_with(&SolveOptions::default())
    }

    /// Solves with explicit branch-and-bound options (ignored for pure LPs).
    pub fn solve_with(&self, options: &SolveOptions) -> Result<Solution, SolveError> {
        self.validate()?;
        if self.is_mip() {
            solve_mip(self, options)
        } else {
            self.solve_relaxation(&[]).and_then(|out| match out {
                LpOutcome::Optimal { objective, values } => Ok(Solution {
                    objective: self.external_objective(objective),
                    values,
                    status: Status::Optimal,
                    stats: SolveStats::default(),
                }),
                LpOutcome::Infeasible => Err(SolveError::Infeasible),
                LpOutcome::Unbounded => Err(SolveError::Unbounded),
            })
        }
    }

    /// Solves the LP relaxation with extra variable-bound overrides.
    /// Bounds are `(var index, lb, ub)`.
    pub(crate) fn solve_relaxation(
        &self,
        extra_bounds: &[(usize, f64, f64)],
    ) -> Result<LpOutcome, SolveError> {
        let lp = SparseLp::from_model(self).map_err(SolveError::InvalidModel)?;
        Ok(SparseSimplex::new(&lp).solve(extra_bounds))
    }

    /// Converts an internal (minimisation) objective value back to the
    /// model's sense.
    pub(crate) fn external_objective(&self, internal_min: f64) -> f64 {
        match self.sense {
            Sense::Minimize => internal_min,
            Sense::Maximize => -internal_min,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lp_maximization_textbook() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> x=2, y=6, obj=36
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, f64::INFINITY, 3.0, VarKind::Continuous, "x");
        let y = m.add_var(0.0, f64::INFINITY, 5.0, VarKind::Continuous, "y");
        m.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0);
        m.add_constraint(&[(y, 2.0)], ConstraintOp::Le, 12.0);
        m.add_constraint(&[(x, 3.0), (y, 2.0)], ConstraintOp::Le, 18.0);
        let s = m.solve().unwrap();
        assert!(
            (s.objective - 36.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        assert!((s.value(x) - 2.0).abs() < 1e-6);
        assert!((s.value(y) - 6.0).abs() < 1e-6);
        assert_eq!(s.status, Status::Optimal);
    }

    #[test]
    fn lp_minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2 -> x=8? no: cheapest is all x.
        // x + y >= 10, x >= 2, y >= 0: optimum x=10,y=0 obj=20? x costs 2 < y 3,
        // so x=10, y=0, obj=20.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 2.0, VarKind::Continuous, "x");
        let y = m.add_var(0.0, f64::INFINITY, 3.0, VarKind::Continuous, "y");
        m.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 10.0);
        m.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0);
        let s = m.solve().unwrap();
        assert!((s.objective - 20.0).abs() < 1e-6);
        assert!((s.value(x) - 10.0).abs() < 1e-6);
    }

    #[test]
    fn lp_equality_constraints() {
        // min x + y s.t. x + 2y = 8, x - y = 2 -> y=2, x=4, obj=6
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous, "x");
        let y = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous, "y");
        m.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Eq, 8.0);
        m.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 2.0);
        let s = m.solve().unwrap();
        assert!((s.objective - 6.0).abs() < 1e-6);
        assert!((s.value(x) - 4.0).abs() < 1e-6);
        assert!((s.value(y) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_lp_is_reported() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous, "x");
        m.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 1.0);
        m.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 5.0);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_lp_is_reported() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0, VarKind::Continuous, "x");
        m.add_constraint(&[(x, -1.0)], ConstraintOp::Le, 5.0);
        assert_eq!(m.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn invalid_models_are_rejected() {
        let m = Model::new(Sense::Minimize);
        assert!(matches!(m.solve(), Err(SolveError::InvalidModel(_))));

        let mut m = Model::new(Sense::Minimize);
        m.add_var(5.0, 1.0, 0.0, VarKind::Continuous, "bad");
        assert!(matches!(m.solve(), Err(SolveError::InvalidModel(_))));
    }

    #[test]
    fn variable_bounds_are_respected() {
        // max x, 1 <= x <= 3.5
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(1.0, 3.5, 1.0, VarKind::Continuous, "x");
        let s = m.solve().unwrap();
        assert!((s.value(x) - 3.5).abs() < 1e-6);

        // min x with same bounds
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(1.0, 3.5, 1.0, VarKind::Continuous, "x");
        let s = m.solve().unwrap();
        assert!((s.value(x) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn binary_knapsack() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary -> a + c (17) vs b + c (20)
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary(10.0, "a");
        let b = m.add_binary(13.0, "b");
        let c = m.add_binary(7.0, "c");
        m.add_constraint(&[(a, 3.0), (b, 4.0), (c, 2.0)], ConstraintOp::Le, 6.0);
        let s = m.solve().unwrap();
        assert!(
            (s.objective - 20.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        assert!(!s.is_one(a));
        assert!(s.is_one(b));
        assert!(s.is_one(c));
    }

    #[test]
    fn integer_variable_rounds_down_not_up() {
        // max x s.t. 2x <= 7, x integer -> 3 (LP relaxation 3.5)
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, 100.0, 1.0, VarKind::Integer, "x");
        m.add_constraint(&[(x, 2.0)], ConstraintOp::Le, 7.0);
        let s = m.solve().unwrap();
        assert!((s.value(x) - 3.0).abs() < 1e-6);
        assert_eq!(s.status, Status::Optimal);
        assert!(s.stats.nodes_explored >= 1);
    }

    #[test]
    #[expect(
        clippy::needless_range_loop,
        reason = "the i/j loops mirror the cost matrix subscripts"
    )]
    fn assignment_problem_as_mip() {
        // 3x3 assignment, cost matrix; optimal = 1 + 2 + 1 = 4 picking (0,1),(1,2),(2,0)
        let cost = [[5.0, 1.0, 9.0], [8.0, 7.0, 2.0], [1.0, 4.0, 6.0]];
        let mut m = Model::new(Sense::Minimize);
        let mut x = [[VarId(0); 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                x[i][j] = m.add_binary(cost[i][j], format!("x{i}{j}"));
            }
        }
        for i in 0..3 {
            let row: Vec<(VarId, f64)> = (0..3).map(|j| (x[i][j], 1.0)).collect();
            m.add_constraint(&row, ConstraintOp::Eq, 1.0);
            let col: Vec<(VarId, f64)> = (0..3).map(|j| (x[j][i], 1.0)).collect();
            m.add_constraint(&col, ConstraintOp::Eq, 1.0);
        }
        let s = m.solve().unwrap();
        assert!(
            (s.objective - 4.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        assert!(s.is_one(x[0][1]) && s.is_one(x[1][2]) && s.is_one(x[2][0]));
    }

    #[test]
    fn infeasible_mip_is_reported() {
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_binary(1.0, "a");
        let b = m.add_binary(1.0, "b");
        m.add_constraint(&[(a, 1.0), (b, 1.0)], ConstraintOp::Ge, 3.0);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn model_introspection() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 1.0, 1.0, VarKind::Continuous, "x");
        assert!(!m.is_mip());
        m.add_binary(1.0, "b");
        assert!(m.is_mip());
        m.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 1.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(x.index(), 0);
    }
}
