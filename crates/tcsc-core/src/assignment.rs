//! Assignment plans: the output of the task-assignment algorithms.
//!
//! An [`AssignmentPlan`] records, for one task, which worker was assigned to
//! which time slot and at what cost, together with the achieved quality.  A
//! [`MultiAssignment`] aggregates the plans of a task set and exposes the two
//! multi-task objectives of the paper, `q_sum` and `q_min`.

use crate::model::{SlotIndex, TaskId, WorkerId};

/// A single executed subtask within an assignment plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutedSubtask {
    /// The slot that was executed.
    pub slot: SlotIndex,
    /// The worker assigned to the slot.
    pub worker: WorkerId,
    /// The cost charged for the assignment.
    pub cost: f64,
    /// The reliability of the assigned worker.
    pub reliability: f64,
}

/// The result of assigning a single TCSC task.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentPlan {
    /// The task this plan belongs to.
    pub task: TaskId,
    /// Number of slots `m` of the task.
    pub num_slots: usize,
    /// Executed subtasks, in the order the algorithm selected them.
    pub executions: Vec<ExecutedSubtask>,
    /// Quality `q(τ)` achieved by the plan.
    pub quality: f64,
}

impl AssignmentPlan {
    /// An empty plan (nothing executed, quality zero).
    pub fn empty(task: TaskId, num_slots: usize) -> Self {
        Self {
            task,
            num_slots,
            executions: Vec::new(),
            quality: 0.0,
        }
    }

    /// Total cost of the plan.
    pub fn total_cost(&self) -> f64 {
        self.executions.iter().map(|e| e.cost).sum()
    }

    /// Number of executed subtasks.
    pub fn executed_count(&self) -> usize {
        self.executions.len()
    }

    /// Whether a particular slot is executed by the plan.
    pub fn is_executed(&self, slot: SlotIndex) -> bool {
        self.executions.iter().any(|e| e.slot == slot)
    }
}

/// Aggregated result of assigning a set of tasks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MultiAssignment {
    /// Per-task plans, in the order of the input task set.
    pub plans: Vec<AssignmentPlan>,
}

impl MultiAssignment {
    /// Wraps per-task plans.
    pub fn new(plans: Vec<AssignmentPlan>) -> Self {
        Self { plans }
    }

    /// Summation quality `q_sum(T) = Σ_i q(τ_i)` (Definition 3).
    pub fn sum_quality(&self) -> f64 {
        self.plans.iter().map(|p| p.quality).sum()
    }

    /// Minimum quality `q_min(T) = min_i q(τ_i)` (Definition 4).  Returns
    /// `0.0` for an empty task set.
    pub fn min_quality(&self) -> f64 {
        let min = self
            .plans
            .iter()
            .map(|p| p.quality)
            .fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            min
        } else {
            0.0
        }
    }

    /// Total cost across all plans.
    pub fn total_cost(&self) -> f64 {
        self.plans.iter().map(|p| p.total_cost()).sum()
    }

    /// Total number of executed subtasks across all plans.
    pub fn executed_count(&self) -> usize {
        self.plans.iter().map(|p| p.executed_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(task: u32, quality: f64, execs: &[(SlotIndex, u32, f64)]) -> AssignmentPlan {
        AssignmentPlan {
            task: TaskId(task),
            num_slots: 10,
            executions: execs
                .iter()
                .map(|&(slot, worker, cost)| ExecutedSubtask {
                    slot,
                    worker: WorkerId(worker),
                    cost,
                    reliability: 1.0,
                })
                .collect(),
            quality,
        }
    }

    #[test]
    fn empty_plan_has_no_cost_and_zero_quality() {
        let p = AssignmentPlan::empty(TaskId(1), 5);
        assert_eq!(p.total_cost(), 0.0);
        assert_eq!(p.quality, 0.0);
        assert_eq!(p.executed_count(), 0);
    }

    #[test]
    fn plan_accessors() {
        let p = plan(1, 2.5, &[(3, 7, 1.5), (1, 9, 2.0)]);
        assert!((p.total_cost() - 3.5).abs() < 1e-12);
        assert_eq!(p.executed_count(), 2);
        assert!(p.is_executed(3));
        assert!(!p.is_executed(2));
    }

    #[test]
    fn multi_assignment_objectives() {
        let multi = MultiAssignment::new(vec![
            plan(0, 3.0, &[(0, 0, 1.0)]),
            plan(1, 1.0, &[(1, 1, 2.0)]),
            plan(2, 2.0, &[]),
        ]);
        assert!((multi.sum_quality() - 6.0).abs() < 1e-12);
        assert!((multi.min_quality() - 1.0).abs() < 1e-12);
        assert!((multi.total_cost() - 3.0).abs() < 1e-12);
        assert_eq!(multi.executed_count(), 2);
    }

    #[test]
    fn empty_multi_assignment_is_well_defined() {
        let multi = MultiAssignment::default();
        assert_eq!(multi.sum_quality(), 0.0);
        assert_eq!(multi.min_quality(), 0.0);
    }
}
