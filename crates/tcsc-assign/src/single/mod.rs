//! Single-task assignment: the sQM problem (Section III of the paper).
//!
//! Given one TCSC task, a budget `b` and the per-slot candidate assignments
//! (nearest available worker and its cost), maximise the entropy quality
//! `q(τ)` without exceeding the budget.  The problem is NP-hard (Lemma 3);
//! the module provides:
//!
//! * [`greedy::approx`] — the polynomial greedy Algorithm 1 (`Approx`),
//!   selecting at every step the subtask with the largest quality increment
//!   per unit cost;
//! * [`greedy::approx_star`] — `Approx*`, the same greedy loop with its
//!   per-iteration search accelerated by the aggregated Voronoi tree index
//!   and best-first upper-bound pruning (Section III-C);
//! * [`opt::optimal`] — exhaustive search, feasible for small `m`, used as the
//!   quality yardstick of Fig. 6;
//! * [`baseline::random_assignment`] — the randomized baseline (`Rand`) and
//!   its aggregated `RandMin` / `RandMax` / `RandAvg` statistics;
//! * [`dual`] — the dual problem (minimum budget for a target quality),
//!   solved by searching over budgets with the primal solver.

pub mod baseline;
pub mod dual;
pub mod greedy;
pub mod opt;

use tcsc_core::{AssignmentPlan, ExecutedSubtask, QualityEvaluator, SlotIndex, Task};

use crate::candidates::SlotCandidates;

/// Parameters shared by all single-task solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SingleTaskConfig {
    /// Budget `b` for this task.
    pub budget: f64,
    /// Interpolation parameter `k` of the quality metric (paper default 3).
    pub k: usize,
    /// Split threshold `ts` of the tree index (paper default 4); only used by
    /// `Approx*`.
    pub ts: usize,
    /// Whether to weight finishing probabilities by worker reliability
    /// (Eq. 4–5).  With fully reliable workers this has no effect.
    pub use_reliability: bool,
}

impl SingleTaskConfig {
    /// Configuration with the paper's default `k = 3`, `ts = 4`.
    pub fn new(budget: f64) -> Self {
        Self {
            budget,
            k: 3,
            ts: 4,
            use_reliability: false,
        }
    }

    /// Overrides `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Overrides `ts`.
    pub fn with_ts(mut self, ts: usize) -> Self {
        self.ts = ts;
        self
    }

    /// Enables reliability weighting.
    pub fn with_reliability(mut self) -> Self {
        self.use_reliability = true;
        self
    }
}

/// Builds an [`AssignmentPlan`] from an evaluator's executed slots and the
/// candidates that were charged for them.
pub(crate) fn plan_from_executions(
    task: &Task,
    evaluator: &QualityEvaluator,
    executions: Vec<ExecutedSubtask>,
) -> AssignmentPlan {
    AssignmentPlan {
        task: task.id,
        num_slots: task.num_slots,
        quality: evaluator.quality(),
        executions,
    }
}

/// Executes one slot on the evaluator, honouring the reliability switch.
pub(crate) fn execute_slot(
    evaluator: &mut QualityEvaluator,
    slot: SlotIndex,
    reliability: f64,
    use_reliability: bool,
) {
    if use_reliability {
        evaluator.execute_with_reliability(slot, reliability);
    } else {
        evaluator.execute(slot);
    }
}

/// The slot that, executed alone, yields the highest single-subtask quality
/// among the affordable candidates (line 3 of Algorithm 1, the `T′_cur` seed).
///
/// With a single executed slot the quality is a decreasing function of the
/// total temporal distance to the other slots, which is minimised by the slot
/// closest to the centre of the timeline; among affordable slots we therefore
/// pick the one nearest to `m / 2`.
pub(crate) fn best_single_slot(
    candidates: &SlotCandidates,
    num_slots: usize,
    budget: f64,
) -> Option<SlotIndex> {
    let center = (num_slots.saturating_sub(1)) as f64 / 2.0;
    (0..num_slots)
        .filter(|&j| candidates.cost(j).is_some_and(|c| c <= budget))
        .min_by(|&a, &b| {
            (a as f64 - center)
                .abs()
                .total_cmp(&(b as f64 - center).abs())
                .then(a.cmp(&b))
        })
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for the single-task solver tests.

    use tcsc_core::{
        Domain, EuclideanCost, Location, Task, TaskId, Worker, WorkerId, WorkerPool, WorkerSlot,
    };
    use tcsc_index::WorkerIndex;

    use crate::candidates::SlotCandidates;
    use crate::single::greedy::GreedyOutcome;
    use crate::single::SingleTaskConfig;

    /// A greedy single-task solver: `approx` or `approx_star`.
    pub type Solver = fn(&Task, &SlotCandidates, &SingleTaskConfig) -> GreedyOutcome;

    /// A deterministic small instance: a task with `m` slots at the origin and
    /// one worker per slot at a varying distance (slot `j`'s worker sits at
    /// distance `1 + (j % 5)`).
    pub fn line_instance(m: usize) -> (Task, SlotCandidates) {
        let task = Task::new(TaskId(0), Location::new(0.0, 0.0), m);
        let workers: WorkerPool = (0..m)
            .map(|j| {
                Worker::new(
                    WorkerId(j as u32),
                    vec![WorkerSlot {
                        slot: j,
                        location: Location::new(1.0 + (j % 5) as f64, 0.0),
                    }],
                )
            })
            .collect();
        let domain = Domain::square(100.0);
        let index = WorkerIndex::build(&workers, m, &domain);
        let candidates = SlotCandidates::compute(&task, &index, &EuclideanCost::default());
        (task, candidates)
    }

    /// An instance where some slots have no worker at all.
    pub fn gappy_instance(m: usize) -> (Task, SlotCandidates) {
        let task = Task::new(TaskId(0), Location::new(0.0, 0.0), m);
        let workers: WorkerPool = (0..m)
            .filter(|j| j % 3 != 2)
            .map(|j| {
                Worker::new(
                    WorkerId(j as u32),
                    vec![WorkerSlot {
                        slot: j,
                        location: Location::new(2.0, 0.0),
                    }],
                )
            })
            .collect();
        let domain = Domain::square(100.0);
        let index = WorkerIndex::build(&workers, m, &domain);
        let candidates = SlotCandidates::compute(&task, &index, &EuclideanCost::default());
        (task, candidates)
    }

    // The budget checks both greedy solvers must pass; `name` labels the
    // solver in assertion messages.

    /// A zero budget executes nothing and leaves the quality at 0.
    pub fn check_empty_budget_executes_nothing(name: &str, solver: Solver) {
        let (task, candidates) = line_instance(20);
        let outcome = solver(&task, &candidates, &SingleTaskConfig::new(0.0));
        assert_eq!(outcome.plan.executed_count(), 0, "{name}");
        assert_eq!(outcome.plan.quality, 0.0, "{name}");
    }

    /// The plan's total cost never exceeds the budget.
    pub fn check_budget_is_never_exceeded(name: &str, solver: Solver) {
        for (m, budgets) in [(30, &[1.0, 3.0, 7.5, 20.0][..]), (50, &[2.0, 9.0, 31.0])] {
            let (task, candidates) = line_instance(m);
            for &budget in budgets {
                let outcome = solver(&task, &candidates, &SingleTaskConfig::new(budget));
                assert!(
                    outcome.plan.total_cost() <= budget + 1e-9,
                    "{name}: m={m} budget {budget} exceeded: {}",
                    outcome.plan.total_cost()
                );
            }
        }
    }

    /// An unlimited budget executes every slot and reaches `log2(m)`.
    pub fn check_unlimited_budget_executes_every_available_slot(name: &str, solver: Solver) {
        for (m, full_quality) in [(16, 4.0), (32, 5.0)] {
            let (task, candidates) = line_instance(m);
            let outcome = solver(&task, &candidates, &SingleTaskConfig::new(1e9));
            assert_eq!(outcome.plan.executed_count(), m, "{name}: m={m}");
            assert!(
                (outcome.plan.quality - full_quality).abs() < 1e-9,
                "{name}: full quality is log2({m})"
            );
        }
    }

    /// A slot without a worker is never executed; every other slot is.
    pub fn check_slots_without_workers_are_never_selected(name: &str, solver: Solver) {
        for (m, available) in [(30, 20), (24, 16)] {
            let (task, candidates) = gappy_instance(m);
            let outcome = solver(&task, &candidates, &SingleTaskConfig::new(1e6));
            for exec in &outcome.plan.executions {
                assert_ne!(exec.slot % 3, 2, "{name}: slot {} has no worker", exec.slot);
            }
            assert_eq!(outcome.plan.executed_count(), available, "{name}: m={m}");
        }
    }
}

#[cfg(test)]
mod indexed {
    //! Tests of `Approx*`, the greedy loop searched through the V-tree index
    //! ([`super::greedy::approx_star`]): the budget checks `Approx` also
    //! passes, and its agreement with the plain scan.

    mod tests {
        use crate::single::greedy::{approx, approx_star};
        use crate::single::test_support::{
            check_budget_is_never_exceeded, check_empty_budget_executes_nothing,
            check_slots_without_workers_are_never_selected,
            check_unlimited_budget_executes_every_available_slot, line_instance,
        };
        use crate::single::SingleTaskConfig;

        #[test]
        fn zero_budget_executes_nothing() {
            check_empty_budget_executes_nothing("Approx*", approx_star);
        }

        #[test]
        fn budget_is_respected() {
            check_budget_is_never_exceeded("Approx*", approx_star);
        }

        #[test]
        fn unlimited_budget_reaches_full_quality() {
            check_unlimited_budget_executes_every_available_slot("Approx*", approx_star);
        }

        #[test]
        fn gaps_are_skipped() {
            check_slots_without_workers_are_never_selected("Approx*", approx_star);
        }

        #[test]
        fn approx_star_matches_approx_quality() {
            // Both algorithms follow the same greedy rule; with exact gains and an
            // admissible bound the plans must achieve the same quality.
            for m in [16, 40, 75] {
                let (task, candidates) = line_instance(m);
                for budget in [3.0, 10.0, 40.0] {
                    let cfg = SingleTaskConfig::new(budget);
                    let plain = approx(&task, &candidates, &cfg);
                    let fast = approx_star(&task, &candidates, &cfg);
                    assert!(
                        (plain.plan.quality - fast.plan.quality).abs() < 1e-6,
                        "m={m} b={budget}: Approx {} vs Approx* {}",
                        plain.plan.quality,
                        fast.plan.quality
                    );
                }
            }
        }

        #[test]
        fn stats_and_timings_are_populated() {
            let (task, candidates) = line_instance(64);
            let outcome = approx_star(&task, &candidates, &SingleTaskConfig::new(20.0));
            assert!(outcome.iterations > 0);
            assert!(outcome.search_stats.candidate_slots > 0);
            assert!(outcome.tree_nodes > 0);
            assert!(outcome.timings.total() >= 0.0);
            assert!(outcome.timings.tree_construction > 0.0);
        }

        #[test]
        fn ts_variations_keep_the_result_quality() {
            let (task, candidates) = line_instance(60);
            let reference = approx_star(&task, &candidates, &SingleTaskConfig::new(15.0))
                .plan
                .quality;
            for ts in [2, 6, 10] {
                let q = approx_star(&task, &candidates, &SingleTaskConfig::new(15.0).with_ts(ts))
                    .plan
                    .quality;
                assert!((q - reference).abs() < 1e-6, "ts={ts}: {q} vs {reference}");
            }
        }

        #[test]
        fn approx_star_fewer_gain_evaluations_than_approx() {
            // Approx evaluates every remaining slot each iteration; Approx* only
            // evaluates slots the bound cannot prune.  On an instance with a wide
            // cost spread the indexed variant must do strictly less work.
            let (task, candidates) = line_instance(200);
            let cfg = SingleTaskConfig::new(25.0);
            let plain = approx(&task, &candidates, &cfg);
            let fast = approx_star(&task, &candidates, &cfg);
            assert!(
                fast.search_stats.evaluated_slots < plain.search_stats.evaluated_slots,
                "Approx*: {} exact evaluations, Approx: {}",
                fast.search_stats.evaluated_slots,
                plain.search_stats.evaluated_slots
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::line_instance;

    #[test]
    fn config_builders() {
        let cfg = SingleTaskConfig::new(10.0)
            .with_k(5)
            .with_ts(8)
            .with_reliability();
        assert_eq!(cfg.budget, 10.0);
        assert_eq!(cfg.k, 5);
        assert_eq!(cfg.ts, 8);
        assert!(cfg.use_reliability);
        let default = SingleTaskConfig::new(1.0);
        assert_eq!(default.k, 3);
        assert_eq!(default.ts, 4);
        assert!(!default.use_reliability);
    }

    #[test]
    fn best_single_slot_prefers_the_center() {
        let (_, candidates) = line_instance(11);
        let slot = best_single_slot(&candidates, 11, f64::INFINITY).unwrap();
        assert_eq!(slot, 5);
    }

    #[test]
    fn best_single_slot_respects_budget() {
        let (_, candidates) = line_instance(11);
        // Slot 5's worker sits at distance 1 + (5 % 5) = 1, so even a budget
        // of 1 affords the centre; a budget below 1 affords nothing.
        assert_eq!(best_single_slot(&candidates, 11, 1.0), Some(5));
        assert_eq!(best_single_slot(&candidates, 11, 0.5), None);
    }
}
