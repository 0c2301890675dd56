//! `Approx` and `Approx*`: the greedy single-task assignment of Algorithm 1
//! and its index-accelerated variant (Section III-C of the paper).
//!
//! At every iteration the algorithm finds, among the remaining affordable
//! subtasks, the one with the largest quality increment per unit cost (the
//! *heuristic value*) and executes it.  The quality metric is submodular and
//! non-decreasing (Lemma 2), so the greedy plan — combined with the best
//! single subtask (`T′_cur`, line 3) — achieves the `(1 − 1/√e)`
//! approximation of budgeted submodular maximisation.  A subtask whose exact
//! gain is not positive is never executed: it would spend budget for nothing.
//!
//! Both solvers run the same budgeted loop and differ only in how an
//! iteration finds its subtask:
//!
//! * [`approx`] enumerates every remaining slot and recomputes its gain from
//!   the plain [`QualityEvaluator`] (what the paper's efficiency plots call
//!   `Approx`);
//! * [`approx_star`] runs the best-first search over the aggregated Voronoi
//!   tree with upper-bound pruning ([`VTree::best_slot`]), whose exact gain
//!   ([`VTree::gain`]) reuses the stored partial-quality aggregates of every
//!   node the tentative slot cannot reach, and keeps the tree current with
//!   [`VTree::notify_executed`].
//!
//! The run records a wall-clock breakdown (tree construction / index
//! maintenance / search) and the search statistics that feed
//! Fig. 8(c)–(e).

use tcsc_obs::Stopwatch;

use tcsc_core::{
    AssignmentPlan, Budget, ExecutedSubtask, QualityEvaluator, QualityParams, SlotIndex, Task,
};
use tcsc_index::{SearchStats, VTree, VTreeConfig};

use crate::candidates::SlotCandidates;
use crate::single::{best_single_slot, execute_slot, plan_from_executions, SingleTaskConfig};

/// Wall-clock breakdown of one greedy run, in seconds.  The tree phases are
/// 0 for `Approx`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GreedyTimings {
    /// Initial construction of the aggregated tree.
    pub tree_construction: f64,
    /// Incremental maintenance of the tree after each execution.
    pub tree_maintenance: f64,
    /// Per-iteration search for the best subtask (heuristic-value
    /// calculation, with pruning under `Approx*`).
    pub search: f64,
}

impl GreedyTimings {
    /// Total indexing + search time.
    pub fn total(&self) -> f64 {
        self.tree_construction + self.tree_maintenance + self.search
    }
}

/// Result of an `Approx` or `Approx*` run.  The tree fields are 0 for
/// `Approx`.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyOutcome {
    /// The assignment plan.
    pub plan: AssignmentPlan,
    /// Search statistics accumulated over all greedy iterations.  The plain
    /// scan visits and prunes no node.
    pub search_stats: SearchStats,
    /// Wall-clock breakdown.
    pub timings: GreedyTimings,
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

/// Runs Algorithm 1 (`Approx`) on one task with the plain scan.
///
/// `candidates` must hold the per-slot candidate assignments (nearest
/// available worker per slot); slots without candidates are never executed.
pub fn approx(
    task: &Task,
    candidates: &SlotCandidates,
    config: &SingleTaskConfig,
) -> GreedyOutcome {
    budgeted_greedy(task, candidates, config, false)
}

/// Runs `Approx*` on one task: Algorithm 1 with the V-tree's best-first
/// search, built once per run.
pub fn approx_star(
    task: &Task,
    candidates: &SlotCandidates,
    config: &SingleTaskConfig,
) -> GreedyOutcome {
    budgeted_greedy(task, candidates, config, true)
}

/// The greedy loop of Algorithm 1, searching with the V-tree when `indexed`.
fn budgeted_greedy(
    task: &Task,
    candidates: &SlotCandidates,
    config: &SingleTaskConfig,
    indexed: bool,
) -> GreedyOutcome {
    assert_eq!(
        candidates.len(),
        task.num_slots,
        "candidates must cover every slot of the task"
    );
    let params = QualityParams::new(task.num_slots, config.k);
    let mut evaluator = QualityEvaluator::new(params);
    let mut budget = Budget::new(config.budget);
    let mut executions: Vec<ExecutedSubtask> = Vec::new();
    let mut search_stats = SearchStats::default();
    let mut timings = GreedyTimings::default();

    let mut tree = indexed.then(|| {
        let construction_start = Stopwatch::start();
        let tree = VTree::build(&evaluator, candidates.costs(), VTreeConfig::new(config.ts));
        timings.tree_construction = construction_start.elapsed_secs();
        tree
    });

    loop {
        let search_start = Stopwatch::start();
        let best = match &tree {
            Some(tree) => tree
                .best_slot(&evaluator, budget.remaining(), &mut search_stats)
                .filter(|best| best.gain > 0.0)
                .map(|best| best.slot),
            None => scan_best(
                &evaluator,
                candidates,
                &budget,
                config.use_reliability,
                &mut search_stats,
            ),
        };
        timings.search += search_start.elapsed_secs();

        let Some(slot) = best else { break };
        let candidate = *candidates
            .get(slot)
            .expect("the search only returns slots with candidates");
        if !budget.charge(candidate.cost) {
            break;
        }
        execute_slot(
            &mut evaluator,
            slot,
            candidate.reliability,
            config.use_reliability,
        );
        if let Some(tree) = &mut tree {
            let maintain_start = Stopwatch::start();
            tree.notify_executed(&evaluator, slot);
            timings.tree_maintenance += maintain_start.elapsed_secs();
        }
        executions.push(ExecutedSubtask {
            slot,
            worker: candidate.worker,
            cost: candidate.cost,
            reliability: candidate.reliability,
        });
    }

    let iterations = executions.len();
    let mut plan = plan_from_executions(task, &evaluator, executions);

    // Line 3 of Algorithm 1: keep the best single affordable subtask instead
    // when it alone reaches a strictly higher quality.
    if let Some(slot) = best_single_slot(candidates, task.num_slots, config.budget) {
        let mut single_eval = QualityEvaluator::new(params);
        let candidate = *candidates.get(slot).expect("seed slot has a candidate");
        execute_slot(
            &mut single_eval,
            slot,
            candidate.reliability,
            config.use_reliability,
        );
        if single_eval.quality() > plan.quality {
            plan = plan_from_executions(
                task,
                &single_eval,
                vec![ExecutedSubtask {
                    slot,
                    worker: candidate.worker,
                    cost: candidate.cost,
                    reliability: candidate.reliability,
                }],
            );
        }
    }

    let tree = tree.as_ref();
    GreedyOutcome {
        plan,
        search_stats,
        timings,
        tree_nodes: tree.map_or(0, VTree::node_count),
        recomputed_slots: tree.map_or(0, VTree::recomputed_slots),
        nodes_built: tree.map_or(0, VTree::nodes_built),
        iterations,
    }
}

/// The plain scan of `Approx`: tentatively executes every remaining
/// affordable slot and returns the one with the largest positive-gain
/// heuristic value, ties to the lower slot.
fn scan_best(
    evaluator: &QualityEvaluator,
    candidates: &SlotCandidates,
    budget: &Budget,
    use_reliability: bool,
    stats: &mut SearchStats,
) -> Option<SlotIndex> {
    let mut best: Option<(SlotIndex, f64)> = None; // (slot, heuristic)
    for slot in 0..evaluator.num_slots() {
        if evaluator.is_executed(slot) {
            continue;
        }
        let Some(candidate) = candidates.get(slot) else {
            continue;
        };
        stats.candidate_slots += 1;
        if !budget.can_afford(candidate.cost) {
            continue;
        }
        stats.evaluated_slots += 1;
        let gain = if use_reliability {
            evaluator.gain_if_executed_with_reliability(slot, candidate.reliability)
        } else {
            evaluator.gain_if_executed(slot)
        };
        if gain <= 0.0 {
            continue;
        }
        let heuristic = if candidate.cost > 0.0 {
            gain / candidate.cost
        } else {
            f64::INFINITY
        };
        // Slots are scanned in ascending order, so a tie keeps the lower one.
        if best.map_or(true, |(_, best_h)| heuristic > best_h) {
            best = Some((slot, heuristic));
        }
    }
    best.map(|(slot, _)| slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::test_support::{
        check_budget_is_never_exceeded, check_empty_budget_executes_nothing,
        check_slots_without_workers_are_never_selected,
        check_unlimited_budget_executes_every_available_slot, line_instance, Solver,
    };

    /// Both solvers, with the names their assertion messages use.
    const SOLVERS: [(&str, Solver); 2] = [("Approx", approx), ("Approx*", approx_star)];

    #[test]
    fn empty_budget_executes_nothing() {
        check_empty_budget_executes_nothing("Approx", approx);
    }

    #[test]
    fn budget_is_never_exceeded() {
        check_budget_is_never_exceeded("Approx", approx);
    }

    #[test]
    fn unlimited_budget_executes_every_available_slot() {
        check_unlimited_budget_executes_every_available_slot("Approx", approx);
    }

    #[test]
    fn slots_without_workers_are_never_selected() {
        check_slots_without_workers_are_never_selected("Approx", approx);
    }

    #[test]
    fn a_one_slot_task_spends_nothing() {
        // A lone slot's quality is 0 executed or not: executing it would
        // spend budget for no gain, so neither solver plans it.
        let (task, candidates) = line_instance(1);
        for (name, solver) in SOLVERS {
            let outcome = solver(&task, &candidates, &SingleTaskConfig::new(10.0));
            assert_eq!(outcome.plan.executed_count(), 0, "{name}");
            assert_eq!(outcome.plan.total_cost(), 0.0, "{name}");
            assert_eq!(outcome.iterations, 0, "{name}");
        }
    }

    #[test]
    fn quality_grows_with_budget() {
        let (task, candidates) = line_instance(40);
        let mut last = -1.0;
        for budget in [2.0, 5.0, 10.0, 25.0, 60.0] {
            let outcome = approx(&task, &candidates, &SingleTaskConfig::new(budget));
            assert!(
                outcome.plan.quality >= last - 1e-9,
                "quality decreased when the budget grew"
            );
            last = outcome.plan.quality;
        }
    }

    #[test]
    fn executions_record_worker_and_cost() {
        let (task, candidates) = line_instance(10);
        let outcome = approx(&task, &candidates, &SingleTaskConfig::new(5.0));
        for exec in &outcome.plan.executions {
            let cand = candidates.get(exec.slot).unwrap();
            assert_eq!(exec.worker, cand.worker);
            assert!((exec.cost - cand.cost).abs() < 1e-12);
        }
    }

    #[test]
    fn stats_count_iterations_and_evaluations() {
        let (task, candidates) = line_instance(12);
        let outcome = approx(&task, &candidates, &SingleTaskConfig::new(6.0));
        let stats = outcome.search_stats;
        assert_eq!(outcome.iterations, outcome.plan.executed_count());
        assert!(stats.evaluated_slots >= outcome.iterations);
        assert!(stats.candidate_slots >= stats.evaluated_slots);
        assert_eq!((stats.visited_nodes, stats.pruned_nodes), (0, 0));
        assert_eq!(
            (
                outcome.tree_nodes,
                outcome.recomputed_slots,
                outcome.nodes_built
            ),
            (0, 0, 0),
            "the plain scan builds no tree"
        );
        assert_eq!(outcome.timings.tree_construction, 0.0);
    }

    #[test]
    fn greedy_beats_worst_single_slot_choice() {
        // With a tight budget the plan must at least match the single best
        // affordable subtask (the T'_cur seed of Algorithm 1).
        let (task, candidates) = line_instance(25);
        let outcome = approx(&task, &candidates, &SingleTaskConfig::new(1.0));
        assert!(outcome.plan.executed_count() >= 1);
        assert!(outcome.plan.quality > 0.0);
    }

    #[test]
    fn reliability_mode_runs_and_reduces_quality_for_unreliable_workers() {
        use tcsc_core::{
            Domain, EuclideanCost, Location, Task, TaskId, Worker, WorkerId, WorkerPool, WorkerSlot,
        };
        use tcsc_index::WorkerIndex;

        let task = Task::new(TaskId(0), Location::new(0.0, 0.0), 10);
        let workers: WorkerPool = (0..10)
            .map(|j| {
                Worker::with_reliability(
                    WorkerId(j as u32),
                    vec![WorkerSlot {
                        slot: j,
                        location: Location::new(1.0, 0.0),
                    }],
                    0.5,
                )
            })
            .collect();
        let index = WorkerIndex::build(&workers, 10, &Domain::square(10.0));
        let candidates =
            crate::candidates::SlotCandidates::compute(&task, &index, &EuclideanCost::default());

        let with = approx(
            &task,
            &candidates,
            &SingleTaskConfig::new(1e6).with_reliability(),
        );
        let without = approx(&task, &candidates, &SingleTaskConfig::new(1e6));
        assert!(with.plan.quality < without.plan.quality);
    }
}
