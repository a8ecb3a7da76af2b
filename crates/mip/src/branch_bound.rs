//! Branch and bound over the LP relaxation for mixed-integer models.
//!
//! The search keeps a single [`SparseSimplex`] alive across the whole tree.
//! Each branching node snapshots the parent's optimal [`Basis`]; when the
//! child is expanded its LP differs from the parent's only in one variable
//! bound, so [`SparseSimplex::resolve_from`] reoptimises with the dual
//! simplex in a handful of pivots instead of a cold two-phase solve. The
//! cold path remains the fallback whenever the warm path declines
//! (iteration cap, singular restored basis).

use std::rc::Rc;

use crate::model::{Model, Solution, SolveError, Status, VarKind};
use crate::simplex::{Basis, LpOutcome, SparseLp, SparseSimplex};

/// Integrality tolerance: LP values within this distance of an integer are
/// treated as integral.
const INT_TOL: f64 = 1e-6;
/// A node is pruned unless its bound beats the incumbent by more than
/// this: the search proves optimality, up to numeric dust.
const PRUNE_SLACK: f64 = 1e-9;

/// Budget for the branch-and-bound search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Maximum number of branch-and-bound nodes to explore before giving up
    /// and returning the incumbent (status [`Status::Feasible`]) or
    /// [`SolveError::BudgetExhausted`].
    pub max_nodes: u64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions { max_nodes: 200_000 }
    }
}

/// Statistics from a branch-and-bound run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Nodes whose LP relaxation was solved.
    pub nodes_explored: u64,
    /// Nodes pruned because their bound could not beat the incumbent.
    pub nodes_pruned: u64,
    /// Incumbent (feasible integer) solutions found.
    pub incumbents: u64,
    /// Node LPs reoptimised from the parent basis by the dual simplex.
    pub warm_solves: u64,
    /// Node LPs solved cold (the root, plus any warm-start fallbacks).
    pub cold_solves: u64,
}

#[derive(Debug, Clone)]
struct NodeState {
    /// Extra bounds `(var, lb, ub)` accumulated along the branching path.
    bounds: Vec<(usize, f64, f64)>,
    /// LP bound of the parent (internal minimisation sense), used for
    /// pruning before the node's own LP is solved.
    parent_bound: f64,
    /// The parent's optimal basis, shared between both children.
    basis: Option<Rc<Basis>>,
}

/// Solves a mixed-integer model by branch and bound on its LP relaxation.
pub(crate) fn solve_mip(model: &Model, options: &SolveOptions) -> Result<Solution, SolveError> {
    let int_vars: Vec<usize> = (0..model.num_vars())
        .filter(|&i| model.var_data(i).3 == VarKind::Integer)
        .collect();
    let lp = SparseLp::from_model(model).map_err(SolveError::InvalidModel)?;
    let mut simplex = SparseSimplex::new(&lp);

    let mut stats = SolveStats::default();
    let mut incumbent: Option<(f64, Vec<f64>)> = None; // internal (min) objective
    let mut stack: Vec<NodeState> = vec![NodeState {
        bounds: Vec::new(),
        parent_bound: f64::NEG_INFINITY,
        basis: None,
    }];
    let mut saw_unbounded_root = false;
    let mut root_infeasible = true;

    while let Some(node) = stack.pop() {
        if stats.nodes_explored >= options.max_nodes {
            break;
        }
        // Prune on the parent bound before paying for an LP solve.
        if let Some((best, _)) = &incumbent {
            if node.parent_bound >= *best - PRUNE_SLACK {
                stats.nodes_pruned += 1;
                continue;
            }
        }
        stats.nodes_explored += 1;
        let outcome = match &node.basis {
            Some(basis) => match simplex.resolve_from(basis, &node.bounds) {
                Some(out) => {
                    stats.warm_solves += 1;
                    out
                }
                None => {
                    stats.cold_solves += 1;
                    simplex.solve(&node.bounds)
                }
            },
            None => {
                stats.cold_solves += 1;
                simplex.solve(&node.bounds)
            }
        };
        let (bound, values) = match outcome {
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => {
                if node.bounds.is_empty() {
                    saw_unbounded_root = true;
                }
                // An unbounded relaxation at a child node cannot be pruned
                // by bound; branching further without a bound is hopeless,
                // so give up on this subtree (the ridesharing models are
                // always bounded; this is defensive).
                continue;
            }
            LpOutcome::Optimal { objective, values } => (objective, values),
        };
        root_infeasible = false;
        if let Some((best, _)) = &incumbent {
            if bound >= *best - PRUNE_SLACK {
                stats.nodes_pruned += 1;
                continue;
            }
        }
        // Find the most fractional integer variable.
        let mut branch_var: Option<(usize, f64)> = None;
        let mut best_frac = INT_TOL;
        for &v in &int_vars {
            let x = values[v];
            let frac = (x - x.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                branch_var = Some((v, x));
            }
        }
        match branch_var {
            None => {
                // Integral: candidate incumbent (round to kill numeric dust).
                let mut vals = values;
                for &v in &int_vars {
                    vals[v] = vals[v].round();
                }
                let better = incumbent.as_ref().is_none_or(|(best, _)| bound < *best);
                if better {
                    incumbent = Some((bound, vals));
                    stats.incumbents += 1;
                }
            }
            Some((v, x)) => {
                let floor = x.floor();
                let parent_basis = Rc::new(simplex.snapshot());
                // Explore the "down" branch last so it pops first (DFS
                // favouring the branch closer to the LP optimum is a wash;
                // down-first tends to find feasible schedules quicker for
                // the routing models because y variables snap to 0). The
                // down child is popped immediately after this push, while
                // the simplex still holds the parent basis — its warm start
                // skips even the refactorisation.
                stack.push(NodeState {
                    bounds: with_bound(&node.bounds, v, floor + 1.0, f64::INFINITY),
                    parent_bound: bound,
                    basis: Some(parent_basis.clone()),
                });
                stack.push(NodeState {
                    bounds: with_bound(&node.bounds, v, f64::NEG_INFINITY, floor),
                    parent_bound: bound,
                    basis: Some(parent_basis),
                });
            }
        }
    }

    match incumbent {
        Some((internal_obj, values)) => {
            let proven = stats.nodes_explored < options.max_nodes && stack.is_empty();
            Ok(Solution {
                objective: model.external_objective(internal_obj),
                values,
                status: if proven {
                    Status::Optimal
                } else {
                    Status::Feasible
                },
                stats,
            })
        }
        None => {
            if saw_unbounded_root {
                Err(SolveError::Unbounded)
            } else if stats.nodes_explored >= options.max_nodes && !root_infeasible {
                Err(SolveError::BudgetExhausted)
            } else {
                Err(SolveError::Infeasible)
            }
        }
    }
}

fn with_bound(
    bounds: &[(usize, f64, f64)],
    var: usize,
    lb: f64,
    ub: f64,
) -> Vec<(usize, f64, f64)> {
    let mut out = bounds.to_vec();
    out.push((
        var,
        if lb.is_finite() {
            lb
        } else {
            f64::NEG_INFINITY
        },
        ub,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintOp, Model, Sense};

    #[test]
    fn options_default_values() {
        let o = SolveOptions::default();
        assert!(o.max_nodes > 1000);
    }

    #[test]
    fn node_budget_returns_incumbent_or_error() {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..12)
            .map(|i| m.add_binary(1.0 + i as f64 * 0.1, format!("b{i}")))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(&terms, ConstraintOp::Le, 6.5);
        // Tiny budget: either a feasible incumbent or BudgetExhausted, never a panic.
        match m.solve_with(&SolveOptions { max_nodes: 3 }) {
            Ok(s) => assert!(matches!(s.status, Status::Feasible | Status::Optimal)),
            Err(e) => assert_eq!(e, SolveError::BudgetExhausted),
        }
    }

    #[test]
    fn pure_binary_equality_system() {
        // Choose exactly 2 of 4 items minimising cost.
        let mut m = Model::new(Sense::Minimize);
        let costs = [4.0, 1.0, 3.0, 2.0];
        let vars: Vec<_> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| m.add_binary(c, format!("c{i}")))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(&terms, ConstraintOp::Eq, 2.0);
        let s = m.solve().unwrap();
        assert!((s.objective - 3.0).abs() < 1e-6);
        assert!(s.is_one(vars[1]) && s.is_one(vars[3]));
        assert_eq!(s.status, Status::Optimal);
    }

    #[test]
    fn general_integer_variables() {
        // max 7x + 2y s.t. 3x + y <= 12.5, x <= 3.7, x,y int >= 0
        // x=3 -> y <= 3.5 -> y=3, obj=27
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, 3.7, 7.0, VarKind::Integer, "x");
        let y = m.add_var(0.0, f64::INFINITY, 2.0, VarKind::Integer, "y");
        m.add_constraint(&[(x, 3.0), (y, 1.0)], ConstraintOp::Le, 12.5);
        let s = m.solve().unwrap();
        assert!(
            (s.objective - 27.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        assert!((s.value(x) - 3.0).abs() < 1e-6);
        assert!((s.value(y) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn warm_starts_dominate_on_branchy_models() {
        // A model that forces real branching: warm solves should carry the
        // bulk of the node LPs (the root is the only guaranteed cold one).
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..10)
            .map(|i| m.add_binary(3.0 + ((i * 7) % 5) as f64 + 0.5, format!("b{i}")))
            .collect();
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, 2.0 + (i % 3) as f64))
            .collect();
        m.add_constraint(&terms, ConstraintOp::Le, 11.0);
        let s = m.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!(s.stats.nodes_explored >= 3, "expected real branching");
        assert!(
            s.stats.warm_solves >= s.stats.nodes_explored / 2,
            "warm {} of {} nodes",
            s.stats.warm_solves,
            s.stats.nodes_explored
        );
    }
}
