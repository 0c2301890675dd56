//! MMQM: multi-task *minimum* quality maximisation (Problem 3).
//!
//! `q_min` is submodular and non-decreasing (Lemma 5), so the `(1 − 1/√e)`
//! approximation is achieved by repeatedly reinforcing the currently weakest
//! task: take the task with the minimum quality, execute its best affordable
//! subtask (greedy rule of Algorithm 1), and repeat until the budget is
//! exhausted.  The paper maintains a heap over the tasks for fast minimum
//! retrieval; because every execution changes only one task's quality, a
//! binary heap with lazy re-insertion is sufficient.  Subtasks are executed
//! strictly in sequence, so no worker conflicts arise (Section IV-B), but the
//! ledger still guarantees that one worker never serves two tasks in the same
//! slot.
//!
//! The solver is [`crate::engine::AssignmentEngine::assign_batch`] with
//! [`crate::engine::Objective::MinQuality`].  This module holds the solver's
//! unit tests.

#[cfg(test)]
mod tests {
    use crate::engine::{AssignmentEngine, Objective};
    use crate::multi::test_support::small_instance;
    use crate::multi::MultiTaskConfig;

    #[test]
    fn respects_the_global_budget() {
        let (tasks, index, cost) = small_instance(11, 4, 25, 200);
        for budget in [5.0, 20.0, 50.0] {
            let outcome = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(budget))
                .assign_batch(&tasks, Objective::MinQuality);
            assert!(outcome.assignment.total_cost() <= budget + 1e-6);
        }
    }

    #[test]
    fn min_quality_grows_with_budget() {
        let (tasks, index, cost) = small_instance(12, 4, 25, 300);
        let mut last = -1.0;
        for budget in [10.0, 30.0, 80.0] {
            let outcome = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(budget))
                .assign_batch(&tasks, Objective::MinQuality);
            assert!(outcome.min_quality() >= last - 1e-9);
            last = outcome.min_quality();
        }
    }

    #[test]
    fn mmqm_balances_better_than_msqm() {
        // MMQM's objective is the weakest task, so its minimum quality must be
        // at least that of the sum-oriented greedy under the same budget.
        let (tasks, index, cost) = small_instance(13, 5, 30, 300);
        let cfg = MultiTaskConfig::new(40.0);
        let min_focused = AssignmentEngine::borrowed(&index, &cost, cfg)
            .assign_batch(&tasks, Objective::MinQuality);
        let sum_focused = AssignmentEngine::borrowed(&index, &cost, cfg)
            .assign_batch(&tasks, Objective::SumQuality);
        assert!(
            min_focused.min_quality() + 1e-9 >= sum_focused.min_quality(),
            "MMQM min {} should not be below MSQM min {}",
            min_focused.min_quality(),
            sum_focused.min_quality()
        );
    }

    #[test]
    fn no_double_booked_workers() {
        let (tasks, index, cost) = small_instance(14, 6, 20, 50);
        let outcome = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(300.0))
            .assign_batch(&tasks, Objective::MinQuality);
        let mut seen = std::collections::HashSet::new();
        for plan in &outcome.assignment.plans {
            for exec in &plan.executions {
                assert!(seen.insert((exec.slot, exec.worker)));
            }
        }
    }

    #[test]
    fn zero_budget_executes_nothing() {
        let (tasks, index, cost) = small_instance(15, 3, 20, 100);
        let outcome = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(0.0))
            .assign_batch(&tasks, Objective::MinQuality);
        assert_eq!(outcome.executions, 0);
    }

    #[test]
    fn indexed_and_plain_variants_agree_on_min_quality() {
        let (tasks, index, cost) = small_instance(16, 3, 25, 200);
        let a = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(30.0))
            .assign_batch(&tasks, Objective::MinQuality);
        let b =
            AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(30.0).with_index(false))
                .assign_batch(&tasks, Objective::MinQuality);
        assert!((a.min_quality() - b.min_quality()).abs() < 1e-6);
    }
}
