//! The dual problem: minimise the budget needed to reach a target quality.
//!
//! Section IV of the paper notes that the dual of quality maximisation under
//! a budget — cost minimisation under a quality constraint — can be handled
//! with the primal solver (a primal–dual style reduction).  We implement it
//! as a monotone search over budgets: the achievable quality is non-decreasing
//! in the budget, so a bisection over the budget axis using `Approx*` as the
//! primal oracle converges to (approximately) the least budget that reaches
//! the target.

use tcsc_core::{AssignmentPlan, Task};

use crate::candidates::SlotCandidates;
use crate::single::greedy::approx_star;
use crate::single::SingleTaskConfig;

/// Result of the dual search.
#[derive(Debug, Clone, PartialEq)]
pub struct DualOutcome {
    /// The smallest budget found that reaches the target quality (within the
    /// bisection tolerance), or `None` if even the full-completion budget is
    /// insufficient.
    pub budget: Option<f64>,
    /// The plan achieved at that budget (empty when `budget` is `None`).
    pub plan: AssignmentPlan,
}

/// Finds (approximately) the minimum budget whose `Approx*` plan reaches
/// `target_quality`.
///
/// `tolerance` is the absolute budget tolerance of the bisection.
pub fn min_budget_for_quality(
    task: &Task,
    candidates: &SlotCandidates,
    base_config: &SingleTaskConfig,
    target_quality: f64,
    tolerance: f64,
) -> DualOutcome {
    assert!(tolerance > 0.0, "tolerance must be positive");
    // Upper bound: the cost of executing every available slot.
    let full_budget: f64 = (0..task.num_slots).filter_map(|j| candidates.cost(j)).sum();
    let solve = |budget: f64| {
        let cfg = SingleTaskConfig {
            budget,
            ..*base_config
        };
        approx_star(task, candidates, &cfg).plan
    };

    let full_plan = solve(full_budget);
    if full_plan.quality + 1e-12 < target_quality {
        return DualOutcome {
            budget: None,
            plan: AssignmentPlan::empty(task.id, task.num_slots),
        };
    }

    let (mut lo, mut hi) = (0.0f64, full_budget);
    let mut best_plan = full_plan;
    while hi - lo > tolerance {
        let mid = (lo + hi) / 2.0;
        let plan = solve(mid);
        if plan.quality + 1e-12 >= target_quality {
            hi = mid;
            best_plan = plan;
        } else {
            lo = mid;
        }
    }
    DualOutcome {
        budget: Some(hi),
        plan: best_plan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::test_support::line_instance;

    #[test]
    fn dual_finds_a_budget_for_achievable_targets() {
        let (task, candidates) = line_instance(20);
        let cfg = SingleTaskConfig::new(0.0);
        let outcome = min_budget_for_quality(&task, &candidates, &cfg, 2.0, 0.05);
        let budget = outcome.budget.expect("target quality 2.0 is achievable");
        assert!(budget > 0.0);
        assert!(outcome.plan.quality + 1e-9 >= 2.0);
        // The found budget should be (near-)minimal: lowering it noticeably
        // must break the target.
        let smaller = SingleTaskConfig::new((budget - 1.0).max(0.0));
        let plan = crate::single::greedy::approx_star(&task, &candidates, &smaller).plan;
        assert!(plan.quality < 2.0 + 1e-6);
    }

    #[test]
    fn dual_reports_unachievable_targets() {
        let (task, candidates) = line_instance(8);
        let cfg = SingleTaskConfig::new(0.0);
        // log2(8) = 3 is the ceiling; 5.0 cannot be reached.
        let outcome = min_budget_for_quality(&task, &candidates, &cfg, 5.0, 0.1);
        assert!(outcome.budget.is_none());
        assert_eq!(outcome.plan.executed_count(), 0);
    }

    #[test]
    fn zero_target_needs_zero_budget() {
        let (task, candidates) = line_instance(8);
        let cfg = SingleTaskConfig::new(0.0);
        let outcome = min_budget_for_quality(&task, &candidates, &cfg, 0.0, 0.01);
        assert!(outcome.budget.unwrap() <= 0.01 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn tolerance_must_be_positive() {
        let (task, candidates) = line_instance(8);
        let cfg = SingleTaskConfig::new(0.0);
        let _ = min_budget_for_quality(&task, &candidates, &cfg, 1.0, 0.0);
    }
}
