//! Rebuild-per-call baseline solvers.
//!
//! These are the original serial MSQM / MMQM greedy implementations that
//! recompute every task's candidate state from scratch on each call
//! (`TaskState::new` runs one index query per slot, nothing survives between
//! calls).  They are kept for two jobs:
//!
//! * **equivalence oracle** — `tests/engine_equivalence.rs` asserts that the
//!   cache-backed [`crate::engine::AssignmentEngine`] reproduces their plans,
//!   conflicts and execution counts bit-for-bit on the seeded scenario
//!   presets;
//! * **throughput baseline** — the `fig9i` batched-vs-rebuild comparison in
//!   `tcsc-bench` measures the engine's amortisation against them.
//!
//! Production callers should use [`crate::engine::AssignmentEngine`].

use tcsc_core::{CostModel, MultiAssignment, Task};
use tcsc_index::WorkerIndex;

use crate::candidates::WorkerLedger;
use crate::engine::commit::{absorb_refresh_stats, mmqm_commit_loop};
use crate::engine::CacheStats;
use crate::multi::{MultiOutcome, MultiTaskConfig, RefreshStrategy, TaskCandidate, TaskState};

/// Builds fresh per-task states, charging the full rebuild cost to `stats`.
///
/// The rebuild solvers always run under [`RefreshStrategy::Full`] regardless
/// of the caller's configuration: they are the in-tree oracle the
/// incremental-gain path is differentially checked against, so they must
/// keep exercising the recompute-per-request behaviour.
fn rebuild_states(
    tasks: &[Task],
    index: &WorkerIndex,
    cost_model: &dyn CostModel,
    config: &MultiTaskConfig,
    stats: &mut CacheStats,
) -> Vec<TaskState> {
    let config = config.with_refresh(RefreshStrategy::Full);
    stats.tasks_computed += tasks.len();
    let slots: usize = tasks.iter().map(|t| t.num_slots).sum();
    stats.slot_computations += slots;
    stats.rebuild_slot_computations += slots;
    tasks
        .iter()
        .map(|t| TaskState::new(t, index, cost_model, &config))
        .collect()
}

/// Runs the serial MSQM greedy, rebuilding all candidate state for this call.
pub fn msqm_rebuild(
    tasks: &[Task],
    index: &WorkerIndex,
    cost_model: &dyn CostModel,
    config: &MultiTaskConfig,
) -> MultiOutcome {
    let mut stats = CacheStats::default();
    let mut states = rebuild_states(tasks, index, cost_model, config, &mut stats);
    let mut ledger = WorkerLedger::new();
    let mut remaining = config.budget;
    let mut conflicts = 0usize;
    let mut executions = 0usize;

    // Cached best candidate per task; recomputed lazily when invalidated.
    let mut cached: Vec<Option<Option<TaskCandidate>>> = vec![None; states.len()];

    loop {
        // Refresh stale candidate caches.  A cached candidate computed under a
        // larger remaining budget may have become unaffordable; recompute it
        // with the current budget so that cheaper slots of the same task are
        // still considered.
        for (i, state) in states.iter_mut().enumerate() {
            if let Some(Some(c)) = &cached[i] {
                if c.cost > remaining {
                    cached[i] = None;
                }
            }
            if cached[i].is_none() {
                cached[i] = Some(state.best_candidate(remaining));
            }
        }
        // Pick the task with the globally maximal heuristic value among the
        // affordable candidates.
        let mut best: Option<(usize, TaskCandidate)> = None;
        for (i, entry) in cached.iter().enumerate() {
            let Some(Some(candidate)) = entry else {
                continue;
            };
            if candidate.cost > remaining {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bi, b)) => {
                    candidate.heuristic > b.heuristic
                        || (candidate.heuristic == b.heuristic && i < *bi)
                }
            };
            if better {
                best = Some((i, *candidate));
            }
        }
        let Some((task_idx, candidate)) = best else {
            break;
        };

        // Worker-conflict check: the planned worker may have been taken by
        // another task since this candidate was computed.
        let worker = states[task_idx]
            .planned_worker(candidate.slot)
            .expect("candidate slot has a planned worker");
        if ledger.is_occupied(candidate.slot, worker) {
            // Conflict: fall back to the next nearest worker and retry.
            conflicts += 1;
            states[task_idx].refresh_slot(candidate.slot, index, cost_model, &ledger);
            stats.count_conflict_refresh();
            cached[task_idx] = None;
            continue;
        }

        // Execute.
        remaining -= candidate.cost;
        ledger.occupy(candidate.slot, worker);
        states[task_idx].execute(candidate.slot);
        executions += 1;
        cached[task_idx] = None;
        // Invalidate cached candidates of tasks that planned to use the same
        // worker at the same slot (they must fall back on their next try).
        for (i, entry) in cached.iter_mut().enumerate() {
            if i == task_idx {
                continue;
            }
            if let Some(Some(c)) = entry {
                if c.slot == candidate.slot && states[i].planned_worker(c.slot) == Some(worker) {
                    conflicts += 1;
                    states[i].refresh_slot(c.slot, index, cost_model, &ledger);
                    stats.count_conflict_refresh();
                    *entry = None;
                }
            }
        }
    }

    absorb_refresh_stats(&states, &mut stats);
    let assignment = MultiAssignment::new(states.into_iter().map(TaskState::into_plan).collect());
    MultiOutcome {
        assignment,
        conflicts,
        executions,
        stats,
    }
}

/// Ordered heap entry: (quality, task index).  `f64` is wrapped through its
/// total ordering to make the heap usable.
#[derive(Debug, PartialEq)]
pub(crate) struct HeapEntry(pub(crate) f64, pub(crate) usize);

impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// Runs the MMQM greedy (maximise the minimum task quality), rebuilding all
/// candidate state for this call and committing through the shared lazy-heap
/// commit loop (`crate::engine::commit`).
pub fn mmqm_rebuild(
    tasks: &[Task],
    index: &WorkerIndex,
    cost_model: &dyn CostModel,
    config: &MultiTaskConfig,
) -> MultiOutcome {
    let mut stats = CacheStats::default();
    let mut states = rebuild_states(tasks, index, cost_model, config, &mut stats);
    let mut ledger = WorkerLedger::new();
    let (conflicts, executions) = mmqm_commit_loop(
        &mut states,
        config.budget,
        index,
        cost_model,
        &mut ledger,
        &mut stats,
    );

    let assignment = MultiAssignment::new(states.into_iter().map(TaskState::into_plan).collect());
    MultiOutcome {
        assignment,
        conflicts,
        executions,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::test_support::small_instance;

    #[test]
    fn rebuild_stats_charge_the_full_candidate_build() {
        let (tasks, index, cost) = small_instance(81, 4, 20, 150);
        let outcome = msqm_rebuild(&tasks, &index, &cost, &MultiTaskConfig::new(30.0));
        assert_eq!(outcome.stats.tasks_computed, 4);
        assert_eq!(outcome.stats.tasks_reused, 0);
        assert!(outcome.stats.slot_computations >= 4 * 20);
        // By definition the rebuild strategy saves nothing over itself.
        assert_eq!(outcome.stats.saved_slot_computations(), 0);
    }

    #[test]
    fn mmqm_rebuild_respects_the_budget() {
        let (tasks, index, cost) = small_instance(82, 4, 20, 150);
        for budget in [5.0, 25.0] {
            let outcome = mmqm_rebuild(&tasks, &index, &cost, &MultiTaskConfig::new(budget));
            assert!(outcome.assignment.total_cost() <= budget + 1e-6);
        }
    }
}
