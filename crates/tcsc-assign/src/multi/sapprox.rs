//! `SApprox`: multi-task assignment under spatiotemporal interpolation
//! (Appendix C of the paper, the STCC extension).
//!
//! An unexecuted subtask can be interpolated temporally (from executed
//! subtasks of the same task) *and* spatially (from subtasks executed at the
//! same time slot by nearby tasks), with the two error components combined by
//! the weights `w_t` / `w_s`.  The combined quality functions `q_sum` and
//! `q_min` remain submodular and non-decreasing, so the same greedy framework
//! applies: at each step execute the (task, slot) pair with the largest
//! increase of the objective per unit cost.
//!
//! The greedy is [`crate::engine::AssignmentEngine::assign_spatiotemporal`],
//! which takes the same [`crate::Objective`] as the MSQM/MMQM batch solve
//! (`SumQuality` for the STCC variant of Problem 2, `MinQuality` for that of
//! Problem 3); this module holds its unit tests.

#[cfg(test)]
mod tests {
    use crate::engine::{AssignmentEngine, Objective};
    use crate::multi::test_support::small_instance;
    use crate::multi::{MultiOutcome, MultiTaskConfig};
    use tcsc_core::{Domain, InterpolationWeights};

    fn run(
        seed: u64,
        budget: f64,
        weights: InterpolationWeights,
        objective: Objective,
    ) -> MultiOutcome {
        let (tasks, index, cost) = small_instance(seed, 4, 20, 150);
        let domain = Domain::square(100.0);
        AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(budget))
            .assign_spatiotemporal(&tasks, &domain, weights, objective)
    }

    #[test]
    fn respects_the_budget() {
        for budget in [5.0, 20.0, 60.0] {
            let outcome = run(
                51,
                budget,
                InterpolationWeights::paper_default(),
                Objective::SumQuality,
            );
            assert!(outcome.assignment.total_cost() <= budget + 1e-6);
        }
    }

    #[test]
    fn quality_grows_with_budget() {
        let mut last = -1.0;
        for budget in [5.0, 20.0, 60.0] {
            let q = run(
                52,
                budget,
                InterpolationWeights::paper_default(),
                Objective::SumQuality,
            )
            .sum_quality();
            assert!(q >= last - 1e-9);
            last = q;
        }
    }

    #[test]
    fn min_objective_does_not_trail_sum_objective_on_min_quality() {
        let sum = run(
            53,
            40.0,
            InterpolationWeights::paper_default(),
            Objective::SumQuality,
        );
        let min = run(
            53,
            40.0,
            InterpolationWeights::paper_default(),
            Objective::MinQuality,
        );
        assert!(min.min_quality() + 1e-9 >= sum.min_quality() * 0.99);
    }

    #[test]
    fn no_worker_double_booking() {
        let outcome = run(
            54,
            200.0,
            InterpolationWeights::paper_default(),
            Objective::SumQuality,
        );
        let mut seen = std::collections::HashSet::new();
        for plan in &outcome.assignment.plans {
            for exec in &plan.executions {
                assert!(seen.insert((exec.slot, exec.worker)));
            }
        }
    }

    #[test]
    fn temporal_only_weights_match_the_base_greedy_metric() {
        // With w_t = 1 the metric degenerates into the plain temporal one, so
        // the achieved per-task qualities must be valid under the base
        // evaluator as well (spot check: recompute quality from executions).
        let outcome = run(
            55,
            30.0,
            InterpolationWeights::temporal_only(),
            Objective::SumQuality,
        );
        for plan in &outcome.assignment.plans {
            let mut ev = tcsc_core::QualityEvaluator::with_slots(plan.num_slots, 3);
            for exec in &plan.executions {
                ev.execute(exec.slot);
            }
            assert!((ev.quality() - plan.quality).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_task_set_is_fine() {
        let (_, index, cost) = small_instance(56, 1, 10, 20);
        let outcome = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(10.0))
            .assign_spatiotemporal(
                &[],
                &Domain::square(100.0),
                InterpolationWeights::paper_default(),
                Objective::SumQuality,
            );
        assert_eq!(outcome.executions, 0);
    }
}
