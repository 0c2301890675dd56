//! Cost model and budget accounting (Section II-A of the paper).
//!
//! Following the common setting of spatial crowdsourcing, the cost of a
//! subtask is the travel distance between the subtask location and the
//! assigned worker's location, with a uniform unit cost for all workers.
//! The module is generic over the cost definition via [`CostModel`] so that
//! alternative cost functions (e.g. Manhattan distance, flat per-assignment
//! fees) can be plugged in without touching the assignment algorithms.

use crate::model::{Location, SlotIndex, Subtask, Worker, WorkerId};

/// Strategy for pricing a single worker-to-subtask assignment.
pub trait CostModel: Send + Sync {
    /// Cost `c(τ(j))` of assigning worker `worker` (located at `worker_loc`
    /// during the subtask's slot) to `subtask`.
    ///
    /// This is the hot-path entry point used by the candidate retrieval of
    /// the assignment algorithms: the worker is identified by id and
    /// location alone, so callers never have to materialise a full `Worker`
    /// value per query.  Models with per-worker pricing (e.g. id-keyed wage
    /// levels) key off `worker`.
    fn assignment_cost_at(&self, subtask: &Subtask, worker: WorkerId, worker_loc: Location) -> f64;

    /// Cost `c(τ(j))` of assigning `worker` (located at `worker_loc` during
    /// the subtask's slot) to `subtask`.
    ///
    /// Convenience wrapper over [`CostModel::assignment_cost_at`] for callers
    /// holding a full `Worker` value.
    fn assignment_cost(&self, subtask: &Subtask, worker: &Worker, worker_loc: Location) -> f64 {
        self.assignment_cost_at(subtask, worker.id, worker_loc)
    }
}

impl<M: CostModel + ?Sized> CostModel for &M {
    fn assignment_cost_at(&self, subtask: &Subtask, worker: WorkerId, worker_loc: Location) -> f64 {
        (**self).assignment_cost_at(subtask, worker, worker_loc)
    }

    fn assignment_cost(&self, subtask: &Subtask, worker: &Worker, worker_loc: Location) -> f64 {
        (**self).assignment_cost(subtask, worker, worker_loc)
    }
}

/// Euclidean travel-distance cost with a configurable unit price.
///
/// This is the paper's default: `c(τ(j)) = unit_cost × dist(τ.loc, w.loc)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EuclideanCost {
    /// Price per unit of travelled distance (the paper assumes the same unit
    /// cost for all workers; default `1.0`).
    pub unit_cost: f64,
}

impl EuclideanCost {
    /// Cost model with the given unit price.
    pub fn new(unit_cost: f64) -> Self {
        assert!(unit_cost >= 0.0, "unit cost must be non-negative");
        Self { unit_cost }
    }
}

impl Default for EuclideanCost {
    fn default() -> Self {
        Self { unit_cost: 1.0 }
    }
}

impl CostModel for EuclideanCost {
    fn assignment_cost_at(
        &self,
        subtask: &Subtask,
        _worker: WorkerId,
        worker_loc: Location,
    ) -> f64 {
        self.unit_cost * subtask.location.distance(&worker_loc)
    }
}

/// Tracks spending against a fixed budget `b`.
///
/// All assignment algorithms share this accounting so that budget-feasibility
/// checks are consistent (including the floating-point tolerance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    limit: f64,
    spent: f64,
}

/// Relative tolerance used when comparing accumulated floating-point costs to
/// the budget limit.
const BUDGET_EPS: f64 = 1e-9;

impl Budget {
    /// A budget with the given limit.
    ///
    /// # Panics
    /// Panics if the limit is negative or not finite.
    pub fn new(limit: f64) -> Self {
        assert!(
            limit.is_finite() && limit >= 0.0,
            "budget limit must be finite and non-negative, got {limit}"
        );
        Self { limit, spent: 0.0 }
    }

    /// The budget limit `b`.
    pub fn limit(&self) -> f64 {
        self.limit
    }

    /// Total amount spent so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// Remaining budget (never negative).
    pub fn remaining(&self) -> f64 {
        (self.limit - self.spent).max(0.0)
    }

    /// Whether a further expense of `cost` still fits within the budget.
    pub fn can_afford(&self, cost: f64) -> bool {
        self.spent + cost <= self.limit * (1.0 + BUDGET_EPS) + BUDGET_EPS
    }

    /// Charges `cost` against the budget.  Returns `true` when the charge fits
    /// (and was applied), `false` otherwise (nothing is charged then).
    pub fn charge(&mut self, cost: f64) -> bool {
        if self.can_afford(cost) {
            self.spent += cost;
            true
        } else {
            false
        }
    }
}

/// A priced candidate assignment: which worker would take a subtask at which
/// cost.  The nearest available worker yields the cheapest candidate under
/// travel-distance costs; multi-task algorithms may fall back to the 2nd, 3rd,
/// ... nearest worker on conflicts (Section IV-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateAssignment {
    /// The slot being served.
    pub slot: SlotIndex,
    /// The worker that would serve it.
    pub worker: crate::model::WorkerId,
    /// The worker's location during the slot.
    pub worker_location: Location,
    /// The cost charged against the budget.
    pub cost: f64,
    /// The worker's reliability score.
    pub reliability: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Task, TaskId, WorkerId, WorkerSlot};

    fn subtask() -> Subtask {
        Task::new(TaskId(0), Location::new(0.0, 0.0), 10).subtask(3)
    }

    fn worker() -> Worker {
        Worker::new(
            WorkerId(0),
            vec![WorkerSlot {
                slot: 3,
                location: Location::new(3.0, 4.0),
            }],
        )
    }

    #[test]
    fn euclidean_cost_is_distance_times_unit() {
        let model = EuclideanCost::new(2.0);
        let c = model.assignment_cost(&subtask(), &worker(), Location::new(3.0, 4.0));
        assert!((c - 10.0).abs() < 1e-12);
    }

    #[test]
    fn default_euclidean_unit_cost_is_one() {
        let model = EuclideanCost::default();
        let c = model.assignment_cost(&subtask(), &worker(), Location::new(3.0, 4.0));
        assert!((c - 5.0).abs() < 1e-12);
    }

    #[test]
    fn assignment_cost_at_matches_the_worker_entry_point() {
        // The allocation-free hot-path entry must price identically to the
        // `Worker`-based convenience wrapper.
        let loc = Location::new(3.0, 4.0);
        let model = EuclideanCost::new(2.0);
        let direct = model.assignment_cost_at(&subtask(), worker().id, loc);
        let via_worker = model.assignment_cost(&subtask(), &worker(), loc);
        assert!((direct - via_worker).abs() < 1e-12);
    }

    #[test]
    fn per_worker_pricing_reaches_the_hot_path() {
        // A model keyed on worker identity must affect costs through the
        // id-carrying hot-path entry point (the one candidate retrieval
        // uses), not only through the `Worker`-based wrapper.
        struct Wage;
        impl CostModel for Wage {
            fn assignment_cost_at(
                &self,
                _subtask: &Subtask,
                worker: WorkerId,
                _worker_loc: Location,
            ) -> f64 {
                1.0 + worker.0 as f64
            }
        }
        let model = Wage;
        let loc = Location::new(0.0, 0.0);
        assert!((model.assignment_cost_at(&subtask(), WorkerId(0), loc) - 1.0).abs() < 1e-12);
        assert!((model.assignment_cost_at(&subtask(), WorkerId(4), loc) - 5.0).abs() < 1e-12);
        assert!((model.assignment_cost(&subtask(), &worker(), loc) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cost_model_is_implemented_for_references() {
        // `&dyn CostModel` must itself be usable as a cost model so borrowed
        // engines can wrap caller-provided models without boxing.
        let model = EuclideanCost::default();
        let by_ref: &dyn CostModel = &model;
        let c = by_ref.assignment_cost_at(&subtask(), WorkerId(0), Location::new(3.0, 4.0));
        assert!((c - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn euclidean_rejects_negative_unit_cost() {
        let _ = EuclideanCost::new(-1.0);
    }

    #[test]
    fn budget_charging_and_refunding() {
        let mut b = Budget::new(10.0);
        assert_eq!(b.limit(), 10.0);
        assert!(b.can_afford(10.0));
        assert!(!b.can_afford(10.1));
        assert!(b.charge(4.0));
        assert!((b.spent() - 4.0).abs() < 1e-12);
        assert!((b.remaining() - 6.0).abs() < 1e-12);
        assert!(!b.charge(7.0));
        assert!(
            (b.spent() - 4.0).abs() < 1e-12,
            "failed charge must not spend"
        );
        assert!(b.charge(6.0));
        assert!(b.remaining() < 1e-9);
    }

    #[test]
    fn budget_tolerates_floating_point_accumulation() {
        let mut b = Budget::new(1.0);
        for _ in 0..10 {
            assert!(b.charge(0.1), "ten charges of 0.1 must fit a budget of 1.0");
        }
        assert!(!b.charge(0.01));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn budget_rejects_negative_limit() {
        let _ = Budget::new(-1.0);
    }
}
