//! `OPT`: exhaustive single-task assignment.
//!
//! Enumerates every subset of executable slots whose total cost fits the
//! budget and returns the best quality.  The sQM problem is NP-hard, so this
//! is only feasible for small `m`; the paper (and our Fig. 6 reproduction)
//! uses it as the quality yardstick that `Approx` is compared against.

use tcsc_core::{AssignmentPlan, ExecutedSubtask, QualityEvaluator, QualityParams, Task};

use crate::candidates::SlotCandidates;
use crate::single::{execute_slot, plan_from_executions, SingleTaskConfig};

/// Hard cap on the instance size accepted by [`optimal`]: the search space is
/// `2^(executable slots)`.
pub const MAX_OPT_SLOTS: usize = 24;

/// Exhaustively searches for the quality-optimal assignment.
///
/// # Panics
/// Panics if the task has more than [`MAX_OPT_SLOTS`] executable slots, since
/// the exhaustive search would not terminate in reasonable time.
pub fn optimal(
    task: &Task,
    candidates: &SlotCandidates,
    config: &SingleTaskConfig,
) -> AssignmentPlan {
    let executable: Vec<usize> = (0..task.num_slots)
        .filter(|&j| candidates.get(j).is_some())
        .collect();
    assert!(
        executable.len() <= MAX_OPT_SLOTS,
        "OPT is exponential; refusing {} executable slots (max {MAX_OPT_SLOTS})",
        executable.len()
    );

    let params = QualityParams::new(task.num_slots, config.k);
    let mut best_plan = AssignmentPlan::empty(task.id, task.num_slots);
    let mut chosen: Vec<usize> = Vec::new();

    // Depth-first enumeration with budget pruning.  The parameter list mirrors
    // the paper's recurrence state; bundling it into a struct would only
    // obscure the correspondence.
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        idx: usize,
        executable: &[usize],
        candidates: &SlotCandidates,
        config: &SingleTaskConfig,
        params: QualityParams,
        task: &Task,
        spent: f64,
        chosen: &mut Vec<usize>,
        best_plan: &mut AssignmentPlan,
    ) {
        if idx == executable.len() {
            let mut evaluator = QualityEvaluator::new(params);
            let mut executions = Vec::with_capacity(chosen.len());
            for &slot in chosen.iter() {
                let c = candidates.get(slot).expect("chosen slots have candidates");
                execute_slot(&mut evaluator, slot, c.reliability, config.use_reliability);
                executions.push(ExecutedSubtask {
                    slot,
                    worker: c.worker,
                    cost: c.cost,
                    reliability: c.reliability,
                });
            }
            let plan = plan_from_executions(task, &evaluator, executions);
            if plan.quality > best_plan.quality {
                *best_plan = plan;
            }
            return;
        }
        let slot = executable[idx];
        let cost = candidates.cost(slot).expect("executable slots have costs");
        // Branch 1: include the slot if affordable.
        if spent + cost <= config.budget + 1e-9 {
            chosen.push(slot);
            recurse(
                idx + 1,
                executable,
                candidates,
                config,
                params,
                task,
                spent + cost,
                chosen,
                best_plan,
            );
            chosen.pop();
        }
        // Branch 2: skip the slot.
        recurse(
            idx + 1,
            executable,
            candidates,
            config,
            params,
            task,
            spent,
            chosen,
            best_plan,
        );
    }

    recurse(
        0,
        &executable,
        candidates,
        config,
        params,
        task,
        0.0,
        &mut chosen,
        &mut best_plan,
    );
    best_plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::greedy::{approx, approx_star};
    use crate::single::test_support::line_instance;

    #[test]
    fn opt_with_unlimited_budget_executes_everything() {
        let (task, candidates) = line_instance(10);
        let plan = optimal(&task, &candidates, &SingleTaskConfig::new(1e9));
        assert_eq!(plan.executed_count(), 10);
        assert!((plan.quality - 10f64.log2()).abs() < 1e-9);
    }

    #[test]
    fn opt_respects_budget() {
        let (task, candidates) = line_instance(12);
        for budget in [1.0, 4.0, 9.0] {
            let plan = optimal(&task, &candidates, &SingleTaskConfig::new(budget));
            assert!(plan.total_cost() <= budget + 1e-9);
        }
    }

    #[test]
    fn opt_dominates_approx_and_rand() {
        let (task, candidates) = line_instance(14);
        for budget in [3.0, 6.0, 12.0] {
            let cfg = SingleTaskConfig::new(budget);
            let opt = optimal(&task, &candidates, &cfg);
            let greedy = approx(&task, &candidates, &cfg);
            let indexed = approx_star(&task, &candidates, &cfg);
            assert!(
                opt.quality + 1e-9 >= greedy.plan.quality,
                "b={budget}: OPT {} < Approx {}",
                opt.quality,
                greedy.plan.quality
            );
            assert!(opt.quality + 1e-9 >= indexed.plan.quality);
        }
    }

    #[test]
    fn approx_is_within_the_theoretical_ratio_of_opt() {
        // Algorithm 1 guarantees (1 - 1/sqrt(e)) ≈ 0.393 of the optimum; in
        // practice it is far closer (Fig. 6 of the paper).
        let (task, candidates) = line_instance(14);
        let ratio_floor = 1.0 - 1.0 / std::f64::consts::E.sqrt();
        for budget in [3.0, 6.0, 12.0] {
            let cfg = SingleTaskConfig::new(budget);
            let opt = optimal(&task, &candidates, &cfg);
            let greedy = approx(&task, &candidates, &cfg);
            assert!(
                greedy.plan.quality >= ratio_floor * opt.quality - 1e-9,
                "b={budget}: Approx {} below {} of OPT {}",
                greedy.plan.quality,
                ratio_floor,
                opt.quality
            );
        }
    }

    #[test]
    fn zero_budget_yields_empty_plan() {
        let (task, candidates) = line_instance(8);
        let plan = optimal(&task, &candidates, &SingleTaskConfig::new(0.0));
        assert_eq!(plan.executed_count(), 0);
        assert_eq!(plan.quality, 0.0);
    }

    #[test]
    #[should_panic(expected = "exponential")]
    fn opt_refuses_large_instances() {
        let (task, candidates) = line_instance(30);
        let _ = optimal(&task, &candidates, &SingleTaskConfig::new(5.0));
    }
}
