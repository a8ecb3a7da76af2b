//! The mixed-integer programming matcher (Sec. III-A of the paper).
//!
//! The unfinished stops are modelled on a complete directed graph whose
//! vertices are the vehicle's current position (node 0), the drop-offs of
//! on-board passengers (set `D'`), the pickups of waiting passengers (set
//! `P`) and their drop-offs (set `D`). Binary variables `y_ij` select the
//! arcs of a Hamiltonian path starting at node 0; continuous variables `B_i`
//! give the travel distance at which node `i` is reached, linearised with
//! Miller–Tucker–Zemlin-style big-M constraints; `L_i = B_i − B_{i−n}`
//! measures each waiting passenger's on-vehicle distance.
//!
//! Two small additions are made relative to the formulation printed in the
//! paper (documented in DESIGN.md): an explicit "at most one successor"
//! constraint per node (without it the arc-selection constraints admit
//! branching subgraphs) and optional load variables enforcing the vehicle
//! capacity, which the paper's experiments use but its formulation omits.

use rideshare_mip::{ConstraintOp, Model, Sense, SolveError, SolveOptions, VarId};
use roadnet::DistanceOracle;

use crate::algorithms::{ScheduleSolver, SolverOutcome};
use crate::problem::{Schedule, SchedulingProblem};
use crate::types::Stop;

/// MIP-based schedule solver.
#[derive(Debug, Clone)]
pub struct MipScheduleSolver {
    /// Branch-and-bound node budget handed to the underlying MIP solver.
    pub max_nodes: u64,
}

impl Default for MipScheduleSolver {
    fn default() -> Self {
        MipScheduleSolver { max_nodes: 200_000 }
    }
}

impl MipScheduleSolver {
    /// Creates a solver with an explicit node budget.
    pub fn with_budget(max_nodes: u64) -> Self {
        MipScheduleSolver { max_nodes }
    }
}

/// Outcome of building the MTZ formulation for a scheduling problem.
pub enum MipBuild {
    /// The model plus the metadata needed to decode solutions.
    Built(MipFormulation),
    /// No unfinished stops: the empty schedule is trivially optimal.
    Trivial,
    /// A pre-solve screen proved no valid schedule can exist (an expired
    /// deadline or an unreachable stop pair).
    Infeasible,
}

/// The MTZ mixed-integer formulation of one [`SchedulingProblem`],
/// decoupled from solving so benchmarks and equivalence tests can hand the
/// *same* model to different solver backends.
pub struct MipFormulation {
    /// The mixed-integer model: minimise total travelled distance subject
    /// to deadlines, detour limits and (when binding) vehicle capacity.
    pub model: Model,
    /// `y[i][j]`: arc-selection binaries (`None` on the diagonal and into
    /// the start node).
    y: Vec<Vec<Option<VarId>>>,
    /// Stop represented by each node (`None` for the start node 0).
    stop_of: Vec<Option<Stop>>,
    /// Node count `1 + onboard + 2·waiting`.
    total: usize,
}

impl MipFormulation {
    /// Builds the formulation for `problem` over `oracle` distances.
    ///
    /// Returns [`MipBuild::Trivial`] when there is nothing to schedule and
    /// [`MipBuild::Infeasible`] when the quick screens (negative deadline
    /// slack, unreachable pair) already rule every schedule out.
    // Index loops mirror the MTZ formulation's subscripts over the 2-D
    // successor matrix `y`; iterator chains would obscure the math.
    #[expect(
        clippy::needless_range_loop,
        reason = "index loops mirror the MTZ subscripts"
    )]
    pub fn build(problem: &SchedulingProblem, oracle: &dyn DistanceOracle) -> MipBuild {
        let k = problem.onboard.len();
        let n = problem.waiting.len();
        let total = 1 + k + 2 * n;
        if total == 1 {
            return MipBuild::Trivial;
        }

        // Node layout: 0 = start, 1..=k = onboard dropoffs, k+1..=k+n =
        // waiting pickups, k+n+1..=k+2n = waiting dropoffs.
        let mut road_node = vec![problem.start; total];
        let mut stop_of: Vec<Option<Stop>> = vec![None; total];
        // Latest reachable travel distance for each node (relative to `now`),
        // used both as a constraint and to size the big-M coefficients.
        let mut latest = vec![0.0f64; total];
        for (i, t) in problem.onboard.iter().enumerate() {
            let idx = 1 + i;
            road_node[idx] = t.dropoff;
            stop_of[idx] = Some(Stop::dropoff(t.trip, t.dropoff));
            latest[idx] = t.dropoff_deadline - problem.now;
        }
        for (i, t) in problem.waiting.iter().enumerate() {
            let p_idx = 1 + k + i;
            let d_idx = 1 + k + n + i;
            road_node[p_idx] = t.pickup;
            road_node[d_idx] = t.dropoff;
            stop_of[p_idx] = Some(Stop::pickup(t.trip, t.pickup));
            stop_of[d_idx] = Some(Stop::dropoff(t.trip, t.dropoff));
            latest[p_idx] = t.pickup_deadline - problem.now;
            latest[d_idx] = (t.pickup_deadline - problem.now) + t.max_ride;
        }
        // Quick infeasibility screens (also keeps big-M values sane).
        if latest.iter().any(|&l| l < 0.0) {
            return MipBuild::Infeasible;
        }

        // Pairwise shortest distances over the node set.
        let mut dist = vec![vec![0.0f64; total]; total];
        for i in 0..total {
            for j in 0..total {
                if i != j {
                    let d = oracle.dist(road_node[i], road_node[j]);
                    if !d.is_finite() {
                        return MipBuild::Infeasible;
                    }
                    dist[i][j] = d;
                }
            }
        }

        let mut model = Model::new(Sense::Minimize);
        // y[i][j]: arc i -> j used. Arcs never return to the start.
        let mut y = vec![vec![None::<VarId>; total]; total];
        for i in 0..total {
            for j in 1..total {
                if i != j {
                    y[i][j] = Some(model.add_binary(dist[i][j], format!("y_{i}_{j}")));
                }
            }
        }
        // B[i]: distance from the start at which node i is served.
        let mut b = Vec::with_capacity(total);
        for (i, &l) in latest.iter().enumerate() {
            let ub = if i == 0 { 0.0 } else { l };
            b.push(model.add_var(
                0.0,
                ub,
                0.0,
                rideshare_mip::VarKind::Continuous,
                format!("B_{i}"),
            ));
        }
        // L[i] for waiting trip i's drop-off: on-vehicle distance with its bounds
        // d(s, e) <= L <= (1 + eps) d(s, e)  (constraint 9).
        let mut l_vars = Vec::with_capacity(n);
        for (i, t) in problem.waiting.iter().enumerate() {
            let d_idx = 1 + k + n + i;
            let direct = dist[1 + k + i][d_idx];
            l_vars.push(model.add_var(
                direct,
                t.max_ride,
                0.0,
                rideshare_mip::VarKind::Continuous,
                format!("L_{d_idx}"),
            ));
        }

        // (2) every node except the start has exactly one predecessor.
        for j in 1..total {
            let terms: Vec<(VarId, f64)> = (0..total)
                .filter_map(|i| y[i][j].map(|v| (v, 1.0)))
                .collect();
            model.add_constraint(&terms, ConstraintOp::Eq, 1.0);
        }
        // (3) the start has exactly one successor.
        let start_out: Vec<(VarId, f64)> = (1..total)
            .filter_map(|j| y[0][j].map(|v| (v, 1.0)))
            .collect();
        model.add_constraint(&start_out, ConstraintOp::Eq, 1.0);
        // Every other node has at most one successor (path structure).
        for i in 1..total {
            let terms: Vec<(VarId, f64)> = (1..total)
                .filter_map(|j| {
                    if i != j {
                        y[i][j].map(|v| (v, 1.0))
                    } else {
                        None
                    }
                })
                .collect();
            if !terms.is_empty() {
                model.add_constraint(&terms, ConstraintOp::Le, 1.0);
            }
        }
        // (5) linearised arrival-propagation: B_j >= B_i + d_ij - M_ij (1 - y_ij).
        // Distinct stops can share a road vertex (d_ij = 0); a strictly
        // positive arc length (the paper's "d_ii is set to a positive
        // number" trick, applied to zero-length arcs) is required for the
        // MTZ-style constraints to eliminate zero-length subtours.
        const MIN_ARC: f64 = 1.0;
        for i in 0..total {
            for j in 1..total {
                let Some(yij) = y[i][j] else { continue };
                let arc = dist[i][j].max(MIN_ARC);
                let m_ij = latest[i] + arc;
                // B_j - B_i + M_ij * y_ij <= M_ij - d_ij ... rearranged:
                // B_j >= B_i + d_ij - M_ij + M_ij*y_ij
                // =>  -B_j + B_i + M_ij*y_ij <= M_ij - d_ij
                model.add_constraint(
                    &[(b[j], -1.0), (b[i], 1.0), (yij, m_ij)],
                    ConstraintOp::Le,
                    m_ij - arc,
                );
            }
        }
        // (6) L_i = B_i - B_{i-n} for waiting dropoffs.
        for (i, &l) in l_vars.iter().enumerate() {
            let p_idx = 1 + k + i;
            let d_idx = 1 + k + n + i;
            model.add_constraint(
                &[(l, 1.0), (b[d_idx], -1.0), (b[p_idx], 1.0)],
                ConstraintOp::Eq,
                0.0,
            );
        }
        // (7)/(8) are encoded as the upper bounds of the B variables above.

        // Optional capacity propagation: Q_j >= Q_i + load_j - M (1 - y_ij).
        let needs_capacity = problem.capacity < k + n;
        if needs_capacity {
            let cap = problem.capacity as f64;
            let mut q = Vec::with_capacity(total);
            for i in 0..total {
                let (lb, ub) = if i == 0 {
                    (k as f64, k as f64)
                } else {
                    (0.0, cap)
                };
                q.push(model.add_var(
                    lb,
                    ub,
                    0.0,
                    rideshare_mip::VarKind::Continuous,
                    format!("Q_{i}"),
                ));
            }
            let m_q = (k + n) as f64 + 1.0;
            for i in 0..total {
                for j in 1..total {
                    let Some(yij) = y[i][j] else { continue };
                    let load_j = if (1 + k..1 + k + n).contains(&j) {
                        1.0
                    } else {
                        -1.0
                    };
                    // Q_j >= Q_i + load_j - M (1 - y_ij)
                    // =>  -Q_j + Q_i + M*y_ij <= M - load_j
                    model.add_constraint(
                        &[(q[j], -1.0), (q[i], 1.0), (yij, m_q)],
                        ConstraintOp::Le,
                        m_q - load_j,
                    );
                }
            }
        }

        MipBuild::Built(MipFormulation {
            model,
            y,
            stop_of,
            total,
        })
    }

    /// Decodes a solver solution back into a stop schedule by following
    /// the selected arcs from the start node. Returns `None` when the
    /// selected arcs do not form a single path covering every node (which
    /// only happens for incumbents reported under an exhausted budget).
    pub fn decode(&self, solution: &rideshare_mip::Solution) -> Option<Schedule> {
        let mut order: Vec<usize> = Vec::with_capacity(self.total - 1);
        let mut current = 0usize;
        for _ in 0..self.total - 1 {
            let next = (1..self.total).find(|&j| {
                j != current && self.y[current][j].is_some_and(|v| solution.is_one(v))
            })?;
            order.push(next);
            current = next;
        }
        order.iter().map(|&i| self.stop_of[i]).collect()
    }
}

impl ScheduleSolver for MipScheduleSolver {
    fn name(&self) -> &'static str {
        "mip"
    }

    fn solve(&self, problem: &SchedulingProblem, oracle: &dyn DistanceOracle) -> SolverOutcome {
        let formulation = match MipFormulation::build(problem, oracle) {
            MipBuild::Trivial => {
                return SolverOutcome::Feasible {
                    cost: 0.0,
                    schedule: Vec::new(),
                }
            }
            MipBuild::Infeasible => return SolverOutcome::Infeasible,
            MipBuild::Built(f) => f,
        };
        let options = SolveOptions {
            max_nodes: self.max_nodes,
        };
        let solution = match formulation.model.solve_with(&options) {
            Ok(s) => s,
            Err(SolveError::Infeasible) => return SolverOutcome::Infeasible,
            Err(SolveError::Unbounded) | Err(SolveError::InvalidModel(_)) => {
                // The formulation is always bounded; treat defensively.
                return SolverOutcome::Infeasible;
            }
            Err(SolveError::BudgetExhausted) => return SolverOutcome::Exhausted,
        };
        let Some(schedule) = formulation.decode(&solution) else {
            return SolverOutcome::Exhausted;
        };
        match problem.validate(&schedule, oracle) {
            Ok(cost) => SolverOutcome::Feasible { cost, schedule },
            Err(_) => SolverOutcome::Exhausted,
        }
    }
}

/// Rough size of the MIP model for a problem, matching the paper's
/// observation that `v = O(m^2)` variables and `c = O(m)` core constraints.
pub fn model_size(problem: &SchedulingProblem) -> (usize, usize) {
    let total = 1 + problem.onboard.len() + 2 * problem.waiting.len();
    let vars = total * (total - 1) + total + problem.waiting.len();
    let cons = total * (total - 1) + 3 * total;
    (vars, cons)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::BruteForceSolver;
    use crate::problem::{OnboardTrip, WaitingTrip};
    use roadnet::{GeneratorConfig, MatrixOracle, NetworkKind};

    fn grid_oracle(seed: u64) -> MatrixOracle {
        let g = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 5, cols: 5 },
            seed,
            ..GeneratorConfig::default()
        }
        .generate();
        MatrixOracle::new(&g)
    }

    fn problem_with_trips(
        oracle: &MatrixOracle,
        seed: u64,
        trips: usize,
        capacity: usize,
    ) -> SchedulingProblem {
        let n = oracle.node_count() as u64;
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut p = SchedulingProblem::new((next() % n) as u32, 0.0, capacity);
        for t in 0..trips as u64 {
            let pickup = (next() % n) as u32;
            let mut dropoff = (next() % n) as u32;
            if dropoff == pickup {
                dropoff = (dropoff + 1) % n as u32;
            }
            let direct = oracle.dist(pickup, dropoff);
            p.waiting.push(WaitingTrip {
                trip: t,
                pickup,
                dropoff,
                pickup_deadline: 2_500.0 + (next() % 2_000) as f64,
                max_ride: direct * 1.4 + 100.0,
            });
        }
        p
    }

    #[test]
    fn empty_problem() {
        let oracle = grid_oracle(1);
        let p = SchedulingProblem::new(0, 0.0, 4);
        assert_eq!(
            MipScheduleSolver::default().solve(&p, &oracle).cost(),
            Some(0.0)
        );
    }

    #[test]
    fn single_trip_matches_brute_force() {
        let oracle = grid_oracle(2);
        let p = problem_with_trips(&oracle, 5, 1, 4);
        let mip = MipScheduleSolver::default().solve(&p, &oracle);
        let bf = BruteForceSolver::default().solve(&p, &oracle);
        match (&mip, &bf) {
            (
                SolverOutcome::Feasible { cost: a, schedule },
                SolverOutcome::Feasible { cost: b, .. },
            ) => {
                assert!((a - b).abs() < 1e-4, "mip {a} vs bf {b}");
                assert!(p.is_valid(schedule, &oracle));
            }
            (SolverOutcome::Infeasible, SolverOutcome::Infeasible) => {}
            other => panic!("mismatch {other:?}"),
        }
    }

    #[test]
    fn two_trips_match_brute_force() {
        let oracle = grid_oracle(3);
        for seed in [1u64, 2, 3, 4] {
            let p = problem_with_trips(&oracle, seed, 2, 4);
            let mip = MipScheduleSolver::default().solve(&p, &oracle);
            let bf = BruteForceSolver::default().solve(&p, &oracle);
            match (&mip, &bf) {
                (
                    SolverOutcome::Feasible { cost: a, .. },
                    SolverOutcome::Feasible { cost: b, .. },
                ) => assert!((a - b).abs() < 1e-4, "seed {seed}: mip {a} vs bf {b}"),
                (SolverOutcome::Infeasible, SolverOutcome::Infeasible) => {}
                other => panic!("seed {seed}: mismatch {other:?}"),
            }
        }
    }

    #[test]
    fn onboard_passenger_and_capacity() {
        let oracle = grid_oracle(4);
        let mut p = problem_with_trips(&oracle, 11, 1, 1);
        p.onboard.push(OnboardTrip {
            trip: 99,
            dropoff: 3,
            dropoff_deadline: 50_000.0,
        });
        let mip = MipScheduleSolver::default().solve(&p, &oracle);
        let bf = BruteForceSolver::default().solve(&p, &oracle);
        match (&mip, &bf) {
            (
                SolverOutcome::Feasible { cost: a, schedule },
                SolverOutcome::Feasible { cost: b, .. },
            ) => {
                assert!((a - b).abs() < 1e-4, "mip {a} vs bf {b}");
                // Capacity 1 with someone on board: first stop must drop them.
                assert_eq!(schedule[0], Stop::dropoff(99, 3));
            }
            (SolverOutcome::Infeasible, SolverOutcome::Infeasible) => {}
            other => panic!("mismatch {other:?}"),
        }
    }

    #[test]
    fn infeasible_deadline_detected() {
        let oracle = grid_oracle(5);
        let mut p = SchedulingProblem::new(0, 0.0, 4);
        let far = (oracle.node_count() - 1) as u32;
        p.waiting.push(WaitingTrip {
            trip: 1,
            pickup: far,
            dropoff: 0,
            pickup_deadline: 1.0,
            max_ride: 100_000.0,
        });
        assert_eq!(
            MipScheduleSolver::default().solve(&p, &oracle),
            SolverOutcome::Infeasible
        );
    }

    #[test]
    fn model_size_grows_quadratically() {
        let oracle = grid_oracle(6);
        let small = problem_with_trips(&oracle, 1, 1, 4);
        let large = problem_with_trips(&oracle, 1, 4, 4);
        let (vs, _) = model_size(&small);
        let (vl, _) = model_size(&large);
        assert!(vl > 4 * vs);
    }
}
