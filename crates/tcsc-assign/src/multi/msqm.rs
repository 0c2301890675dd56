//! MSQM: multi-task *summation* quality maximisation (Problem 2), serial
//! greedy solver.
//!
//! The summation quality `q_sum` is submodular and non-decreasing (Lemma 4),
//! so the single-task greedy framework extends directly: at every iteration
//! the algorithm retrieves, from *all* tasks, the subtask with the maximum
//! quality increment per unit cost, and executes it if the shared budget
//! allows.  Because subtasks of different tasks can compete for the same
//! worker at the same time slot, a [`crate::candidates::WorkerLedger`]
//! arbitrates conflicts: the
//! loser falls back to its next-nearest worker (Section IV-A), and every such
//! event is counted as a *worker conflict* (Fig. 9(b)(c)).
//!
//! The serial solver is the "Without Parallelization" baseline of Fig. 9(a)
//! and the reference plan that both parallel frameworks must reproduce.  It
//! is [`crate::engine::AssignmentEngine::assign_batch`] with
//! [`crate::engine::Objective::SumQuality`].  This module holds the solver's
//! unit tests.

#[cfg(test)]
mod tests {
    use crate::engine::{AssignmentEngine, Objective};
    use crate::multi::test_support::small_instance;
    use crate::multi::MultiTaskConfig;

    #[test]
    fn respects_the_global_budget() {
        let (tasks, index, cost) = small_instance(1, 4, 30, 200);
        for budget in [5.0, 20.0, 60.0] {
            let outcome = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(budget))
                .assign_batch(&tasks, Objective::SumQuality);
            assert!(outcome.assignment.total_cost() <= budget + 1e-6);
        }
    }

    #[test]
    fn sum_quality_grows_with_budget() {
        let (tasks, index, cost) = small_instance(2, 4, 30, 200);
        let mut last = -1.0;
        for budget in [5.0, 15.0, 40.0, 100.0] {
            let outcome = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(budget))
                .assign_batch(&tasks, Objective::SumQuality);
            assert!(outcome.sum_quality() >= last - 1e-9);
            last = outcome.sum_quality();
        }
    }

    #[test]
    fn every_plan_belongs_to_its_task() {
        let (tasks, index, cost) = small_instance(3, 5, 20, 150);
        let outcome = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(30.0))
            .assign_batch(&tasks, Objective::SumQuality);
        assert_eq!(outcome.assignment.plans.len(), 5);
        for (task, plan) in tasks.iter().zip(&outcome.assignment.plans) {
            assert_eq!(task.id, plan.task);
            assert_eq!(task.num_slots, plan.num_slots);
        }
    }

    #[test]
    fn no_worker_serves_two_tasks_in_the_same_slot() {
        let (tasks, index, cost) = small_instance(4, 6, 25, 60);
        let outcome = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(200.0))
            .assign_batch(&tasks, Objective::SumQuality);
        let mut seen = std::collections::HashSet::new();
        for plan in &outcome.assignment.plans {
            for exec in &plan.executions {
                assert!(
                    seen.insert((exec.slot, exec.worker)),
                    "worker {:?} double-booked at slot {}",
                    exec.worker,
                    exec.slot
                );
            }
        }
    }

    #[test]
    fn conflicts_arise_when_workers_are_scarce() {
        // Few workers, many co-located tasks: tasks must compete.
        let (tasks, index, cost) = small_instance(5, 8, 20, 25);
        let outcome = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(500.0))
            .assign_batch(&tasks, Objective::SumQuality);
        assert!(outcome.executions > 0);
        assert!(
            outcome.conflicts > 0,
            "expected at least one worker conflict with 8 tasks over 25 workers"
        );
    }

    #[test]
    fn indexed_and_plain_variants_reach_the_same_quality() {
        let (tasks, index, cost) = small_instance(6, 3, 30, 150);
        let with_index = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(40.0))
            .assign_batch(&tasks, Objective::SumQuality);
        let without =
            AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(40.0).with_index(false))
                .assign_batch(&tasks, Objective::SumQuality);
        assert!((with_index.sum_quality() - without.sum_quality()).abs() < 1e-6);
    }

    #[test]
    fn zero_budget_executes_nothing() {
        let (tasks, index, cost) = small_instance(7, 3, 20, 100);
        let outcome = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(0.0))
            .assign_batch(&tasks, Objective::SumQuality);
        assert_eq!(outcome.executions, 0);
        assert_eq!(outcome.sum_quality(), 0.0);
    }
}
