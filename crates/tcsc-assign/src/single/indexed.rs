//! `Approx*`: the index-accelerated greedy single-task assignment
//! (Section III-C of the paper).
//!
//! `Approx*` follows the same greedy framework as [`super::greedy::approx`]
//! but replaces the two expensive ingredients of each iteration:
//!
//! 1. the exhaustive enumeration of all remaining subtasks is replaced by the
//!    best-first search over the aggregated Voronoi tree with upper-bound
//!    pruning ([`tcsc_index::VTree::best_slot`]);
//! 2. the `O(m)` heuristic-value computation per tentative subtask is
//!    replaced by [`tcsc_index::VTree::gain`], which reuses the stored
//!    partial-quality aggregates of every tree node whose influence range
//!    excludes the tentative slot (the locality of k-NN interpolation).
//!
//! The run also records a wall-clock breakdown (tree construction / index
//! maintenance / best-first search) and the pruning statistics that feed
//! Fig. 8(c)–(e).

use tcsc_obs::Stopwatch;

use tcsc_core::{AssignmentPlan, Budget, ExecutedSubtask, QualityEvaluator, QualityParams, Task};
use tcsc_index::{SearchStats, VTree, VTreeConfig};

use crate::candidates::SlotCandidates;
use crate::single::{best_single_slot, execute_slot, plan_from_executions, SingleTaskConfig};

/// Wall-clock breakdown of one `Approx*` run, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IndexedTimings {
    /// Initial construction of the aggregated tree.
    pub tree_construction: f64,
    /// Incremental maintenance of the tree after each execution.
    pub tree_maintenance: f64,
    /// Best-first search (heuristic-value calculation with pruning).
    pub search: f64,
}

impl IndexedTimings {
    /// Total indexing + search time.
    pub fn total(&self) -> f64 {
        self.tree_construction + self.tree_maintenance + self.search
    }
}

/// Result of an `Approx*` run.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedOutcome {
    /// The assignment plan.
    pub plan: AssignmentPlan,
    /// Pruning statistics accumulated over all greedy iterations.
    pub search_stats: SearchStats,
    /// Wall-clock breakdown.
    pub timings: IndexedTimings,
    /// Number of tree nodes after the final iteration.
    pub tree_nodes: usize,
    /// Slot partial qualities the tree computed over the run
    /// ([`VTree::recomputed_slots`]).
    pub recomputed_slots: usize,
    /// Tree nodes allocated over the run ([`VTree::nodes_built`]).
    pub nodes_built: usize,
    /// Number of greedy iterations (executed subtasks).
    pub iterations: usize,
}

/// Runs `Approx*` on one task.
pub fn approx_star(
    task: &Task,
    candidates: &SlotCandidates,
    config: &SingleTaskConfig,
) -> IndexedOutcome {
    assert_eq!(
        candidates.len(),
        task.num_slots,
        "candidates must cover every slot of the task"
    );
    let params = QualityParams::new(task.num_slots, config.k);
    let mut evaluator = QualityEvaluator::new(params);
    let mut budget = Budget::new(config.budget);
    let mut executions: Vec<ExecutedSubtask> = Vec::new();
    let mut stats = SearchStats::default();
    let mut timings = IndexedTimings::default();

    let construction_start = Stopwatch::start();
    let mut tree = VTree::build(&evaluator, candidates.costs(), VTreeConfig::new(config.ts));
    timings.tree_construction = construction_start.elapsed_secs();

    let single_seed = best_single_slot(candidates, task.num_slots, config.budget);

    loop {
        let search_start = Stopwatch::start();
        let best = tree.best_slot(&evaluator, budget.remaining(), &mut stats);
        timings.search += search_start.elapsed_secs();

        let Some(best) = best else { break };
        let candidate = candidates
            .get(best.slot)
            .expect("best-first search only returns slots with candidates");
        if !budget.charge(best.cost) {
            break;
        }
        execute_slot(
            &mut evaluator,
            best.slot,
            candidate.reliability,
            config.use_reliability,
        );
        let maintain_start = Stopwatch::start();
        tree.notify_executed(&evaluator, best.slot);
        timings.tree_maintenance += maintain_start.elapsed_secs();
        executions.push(ExecutedSubtask {
            slot: best.slot,
            worker: candidate.worker,
            cost: best.cost,
            reliability: candidate.reliability,
        });
    }

    let iterations = executions.len();
    let greedy_plan = plan_from_executions(task, &evaluator, executions);

    // Keep the better of the greedy plan and the single-subtask seed plan.
    let plan = match single_seed {
        Some(slot) => {
            let mut single_eval = QualityEvaluator::new(params);
            let candidate = *candidates.get(slot).expect("seed slot has a candidate");
            execute_slot(
                &mut single_eval,
                slot,
                candidate.reliability,
                config.use_reliability,
            );
            if single_eval.quality() > greedy_plan.quality {
                plan_from_executions(
                    task,
                    &single_eval,
                    vec![ExecutedSubtask {
                        slot,
                        worker: candidate.worker,
                        cost: candidate.cost,
                        reliability: candidate.reliability,
                    }],
                )
            } else {
                greedy_plan
            }
        }
        None => greedy_plan,
    };

    IndexedOutcome {
        plan,
        search_stats: stats,
        timings,
        tree_nodes: tree.node_count(),
        recomputed_slots: tree.recomputed_slots(),
        nodes_built: tree.nodes_built(),
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::greedy::approx;
    use crate::single::test_support::{gappy_instance, line_instance};

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
    fn budget_is_respected() {
        let (task, candidates) = line_instance(50);
        for budget in [2.0, 9.0, 31.0] {
            let outcome = approx_star(&task, &candidates, &SingleTaskConfig::new(budget));
            assert!(outcome.plan.total_cost() <= budget + 1e-9);
        }
    }

    #[test]
    fn unlimited_budget_reaches_full_quality() {
        let (task, candidates) = line_instance(32);
        let outcome = approx_star(&task, &candidates, &SingleTaskConfig::new(1e9));
        assert_eq!(outcome.plan.executed_count(), 32);
        assert!((outcome.plan.quality - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_executes_nothing() {
        let (task, candidates) = line_instance(20);
        let outcome = approx_star(&task, &candidates, &SingleTaskConfig::new(0.0));
        assert_eq!(outcome.plan.executed_count(), 0);
    }

    #[test]
    fn gaps_are_skipped() {
        let (task, candidates) = gappy_instance(24);
        let outcome = approx_star(&task, &candidates, &SingleTaskConfig::new(1e6));
        for exec in &outcome.plan.executions {
            assert_ne!(exec.slot % 3, 2);
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
            fast.search_stats.evaluated_slots < plain.stats.gain_evaluations,
            "Approx*: {} exact evaluations, Approx: {}",
            fast.search_stats.evaluated_slots,
            plain.stats.gain_evaluations
        );
    }
}
