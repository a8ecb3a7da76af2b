//! Cheapest-insertion heuristic matcher.
//!
//! The related-work baseline closest to practice (Coslovich et al.'s
//! two-phase insertion technique, reference [19] of the paper): trips are
//! inserted one at a time into the growing schedule, each at the pair of
//! positions (pickup position, drop-off position) that increases the total
//! cost the least while keeping the schedule valid. The result is feasible
//! whenever it returns one, but unlike the exact solvers it may miss the
//! optimum or fail on instances that are actually feasible — which is
//! exactly why the paper argues for exact-but-fast matching. It is included
//! as a comparison point and used by the ablation benchmarks.

use roadnet::DistanceOracle;

use crate::algorithms::{ScheduleSolver, SolverOutcome};
use crate::problem::{Schedule, ScheduleWalker, SchedulingProblem};
use crate::types::{Cost, Stop};

/// Cheapest-insertion schedule solver.
#[derive(Debug, Clone, Default)]
pub struct InsertionSolver;

impl InsertionSolver {
    fn schedule_cost(
        problem: &SchedulingProblem,
        schedule: &[Stop],
        oracle: &dyn DistanceOracle,
    ) -> Option<Cost> {
        let mut walker = ScheduleWalker::new(problem);
        for &stop in schedule {
            if walker.advance(stop, oracle).is_err() {
                return None;
            }
        }
        Some(walker.cum_dist)
    }
}

impl ScheduleSolver for InsertionSolver {
    fn name(&self) -> &'static str {
        "insertion"
    }

    fn solve(&self, problem: &SchedulingProblem, oracle: &dyn DistanceOracle) -> SolverOutcome {
        // Seed the schedule with the on-board drop-offs ordered by deadline
        // (earliest first); this ordering is feasible whenever any ordering
        // of the drop-offs alone is feasible for nested deadlines, and gives
        // the insertion phase a sensible starting point otherwise.
        let mut onboard = problem.onboard.clone();
        onboard.sort_by(|a, b| a.dropoff_deadline.total_cmp(&b.dropoff_deadline));
        let mut schedule: Schedule = onboard
            .iter()
            .map(|t| Stop::dropoff(t.trip, t.dropoff))
            .collect();
        if Self::schedule_cost(problem, &schedule, oracle).is_none() {
            return SolverOutcome::Infeasible;
        }

        // Insert waiting trips one at a time, tightest pickup deadline first.
        let mut waiting = problem.waiting.clone();
        waiting.sort_by(|a, b| a.pickup_deadline.total_cmp(&b.pickup_deadline));
        for trip in &waiting {
            let pickup = Stop::pickup(trip.trip, trip.pickup);
            let dropoff = Stop::dropoff(trip.trip, trip.dropoff);
            let mut best: Option<(Cost, usize, usize)> = None;
            for p_pos in 0..=schedule.len() {
                for d_pos in p_pos..=schedule.len() {
                    let mut candidate = schedule.clone();
                    candidate.insert(p_pos, pickup);
                    candidate.insert(d_pos + 1, dropoff);
                    if let Some(cost) = Self::schedule_cost(problem, &candidate, oracle) {
                        if best.is_none_or(|(c, _, _)| cost < c) {
                            best = Some((cost, p_pos, d_pos));
                        }
                    }
                }
            }
            match best {
                Some((_, p_pos, d_pos)) => {
                    schedule.insert(p_pos, pickup);
                    schedule.insert(d_pos + 1, dropoff);
                }
                None => return SolverOutcome::Infeasible,
            }
        }

        match Self::schedule_cost(problem, &schedule, oracle) {
            Some(cost) => SolverOutcome::Feasible { cost, schedule },
            None => SolverOutcome::Infeasible,
        }
    }
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

    #[test]
    fn empty_problem_is_feasible() {
        let oracle = grid_oracle(0);
        let p = SchedulingProblem::new(0, 0.0, 4);
        assert_eq!(InsertionSolver.solve(&p, &oracle).cost(), Some(0.0));
    }

    #[test]
    fn single_trip_is_optimal() {
        let oracle = grid_oracle(1);
        let mut p = SchedulingProblem::new(0, 0.0, 4);
        p.waiting.push(WaitingTrip {
            trip: 1,
            pickup: 7,
            dropoff: 18,
            pickup_deadline: 50_000.0,
            max_ride: 50_000.0,
        });
        let heur = InsertionSolver.solve(&p, &oracle);
        let exact = BruteForceSolver::default().solve(&p, &oracle);
        assert_eq!(heur.cost(), exact.cost());
    }

    #[test]
    fn produces_valid_schedules_and_never_beats_the_optimum() {
        let oracle = grid_oracle(7);
        let n = oracle.node_count() as u64;
        for seed in 0..15u64 {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut p = SchedulingProblem::new((next() % n) as u32, 0.0, 4);
            for t in 0..3u64 {
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
                    pickup_deadline: 3_500.0,
                    max_ride: direct * 1.5 + 150.0,
                });
            }
            let heur = InsertionSolver.solve(&p, &oracle);
            let exact = BruteForceSolver::default().solve(&p, &oracle);
            if let SolverOutcome::Feasible { cost, schedule } = &heur {
                assert!(p.is_valid(schedule, &oracle), "seed {seed}");
                let best = exact.cost().expect("exact must also be feasible");
                assert!(
                    *cost >= best - 1e-6,
                    "seed {seed}: heuristic {cost} beat optimum {best}"
                );
            }
        }
    }

    #[test]
    fn respects_onboard_deadline_ordering() {
        let oracle = grid_oracle(2);
        let mut p = SchedulingProblem::new(0, 0.0, 4);
        p.onboard.push(OnboardTrip {
            trip: 1,
            dropoff: 20,
            dropoff_deadline: 100_000.0,
        });
        p.onboard.push(OnboardTrip {
            trip: 2,
            dropoff: 6,
            dropoff_deadline: oracle.dist(0, 6) + 1.0,
        });
        let out = InsertionSolver.solve(&p, &oracle);
        let schedule = out.schedule().expect("feasible");
        assert_eq!(schedule[0].trip, 2, "tight deadline must come first");
        assert!(p.is_valid(schedule, &oracle));
    }

    #[test]
    fn a_nan_deadline_does_not_panic_the_sort() {
        let oracle = grid_oracle(3);
        let mut p = SchedulingProblem::new(0, 0.0, 4);
        for (trip, pickup_deadline) in [(1, f64::NAN), (2, 50_000.0)] {
            p.waiting.push(WaitingTrip {
                trip,
                pickup: 7,
                dropoff: 18,
                pickup_deadline,
                max_ride: 50_000.0,
            });
        }
        // No schedule can meet a NaN deadline; solving must still return.
        let _ = InsertionSolver.solve(&p, &oracle);
    }
}
