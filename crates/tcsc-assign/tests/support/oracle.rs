//! The full-search oracle: every best candidate recomputed from scratch.
//!
//! The library answers best-candidate requests from a per-task gain ledger
//! (a lazy-greedy pop over stale upper bounds).  This module is the
//! recompute-everything reference it must match bit for bit, built from
//! public API only:
//!
//! * [`full_best`] — one task's best affordable candidate by a full search
//!   over its current state (V-tree best-first, or a plain scan);
//! * [`msqm_oracle`] / [`mmqm_oracle`] — the serial MSQM scan greedy and the
//!   MMQM lazy-heap greedy on top of it, committing into a caller-owned
//!   [`WorkerLedger`] so streaming drains can carry occupancy from round to
//!   round.  Tasks are checked out the way a drain checks them out.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use tcsc_assign::{
    checkout_one_shot, CacheStats, CommittedExecution, MultiOutcome, MultiTaskConfig,
    TaskCandidate, TaskState, WorkerLedger,
};
use tcsc_core::{CostModel, MultiAssignment, QualityEvaluator, QualityParams, Task};
use tcsc_index::{SearchStats, WorkerIndex};

/// The best affordable candidate of `state` under `max_cost`, recomputed
/// from scratch: the state's executions are replayed into a fresh evaluator,
/// then the V-tree's best-first search runs (index on) or every slot's
/// candidate is scanned, ties to the lower slot (index off).  A slot whose
/// exact gain is `≤ 0` (every slot of a one-slot task) is never offered.
pub fn full_best(state: &TaskState, cfg: &MultiTaskConfig, max_cost: f64) -> Option<TaskCandidate> {
    let mut evaluator = QualityEvaluator::new(QualityParams::new(state.task.num_slots, cfg.k));
    for exec in &state.executions {
        if cfg.use_reliability {
            evaluator.execute_with_reliability(exec.slot, exec.reliability);
        } else {
            evaluator.execute(exec.slot);
        }
    }
    if let Some(tree) = &state.tree {
        let best = tree.best_slot(&evaluator, max_cost, &mut SearchStats::default())?;
        return (best.gain > 0.0).then_some(TaskCandidate {
            slot: best.slot,
            gain: best.gain,
            cost: best.cost,
            heuristic: best.heuristic,
        });
    }
    let mut best: Option<TaskCandidate> = None;
    for slot in 0..state.task.num_slots {
        if evaluator.is_executed(slot) {
            continue;
        }
        let Some(cost) = state.candidates.cost(slot) else {
            continue;
        };
        let gain = evaluator.gain_if_executed(slot);
        if cost > max_cost || gain <= 0.0 {
            continue;
        }
        let heuristic = if cost > 0.0 {
            gain / cost
        } else {
            f64::INFINITY
        };
        if best.map_or(true, |b| {
            heuristic > b.heuristic || (heuristic == b.heuristic && slot < b.slot)
        }) {
            best = Some(TaskCandidate {
                slot,
                gain,
                cost,
                heuristic,
            });
        }
    }
    best
}

/// Fresh task states checked out against `ledger`, as a drain checks out
/// one-shot arrivals.
fn checkout(
    tasks: &[Task],
    index: &WorkerIndex,
    cost_model: &dyn CostModel,
    cfg: &MultiTaskConfig,
    ledger: &WorkerLedger,
    stats: &mut CacheStats,
) -> Vec<TaskState> {
    tasks
        .iter()
        .map(|task| {
            let candidates = checkout_one_shot(task, index, cost_model, ledger, stats);
            TaskState::from_candidates(task, candidates, cfg)
        })
        .collect()
}

/// Counts one conflict-driven slot refresh, as the engine does.
fn count_conflict_refresh(stats: &mut CacheStats) {
    stats.slot_computations += 1;
    stats.slot_refreshes += 1;
}

fn outcome(states: Vec<TaskState>, conflicts: usize, stats: CacheStats) -> MultiOutcome {
    let plans: Vec<_> = states.into_iter().map(TaskState::into_plan).collect();
    let executions = plans.iter().map(|p| p.executions.len()).sum();
    MultiOutcome {
        assignment: MultiAssignment::new(plans),
        conflicts,
        executions,
        stats,
    }
}

/// The serial MSQM greedy with a full search per best-candidate request:
/// every round re-scans all tasks for the globally best affordable
/// candidate.  Returns the outcome and the grant sequence.
pub fn msqm_oracle(
    tasks: &[Task],
    index: &WorkerIndex,
    cost_model: &dyn CostModel,
    cfg: &MultiTaskConfig,
    ledger: &mut WorkerLedger,
) -> (MultiOutcome, Vec<CommittedExecution>) {
    let mut stats = CacheStats::default();
    let mut states = checkout(tasks, index, cost_model, cfg, ledger, &mut stats);
    let mut remaining = cfg.budget;
    let mut conflicts = 0usize;
    let mut committed = Vec::new();

    // Cached best candidate per task; recomputed when invalidated.
    let mut cached: Vec<Option<Option<TaskCandidate>>> = vec![None; states.len()];
    loop {
        // A cached candidate the shrinking budget made unaffordable is
        // recomputed, so cheaper slots of the same task are still considered.
        for (i, state) in states.iter().enumerate() {
            if let Some(Some(c)) = &cached[i] {
                if c.cost > remaining {
                    cached[i] = None;
                }
            }
            if cached[i].is_none() {
                cached[i] = Some(full_best(state, cfg, remaining));
            }
        }
        // The globally maximal heuristic, ties to the lower task index.
        let mut best: Option<(usize, TaskCandidate)> = None;
        for (i, entry) in cached.iter().enumerate() {
            let Some(Some(candidate)) = entry else {
                continue;
            };
            if candidate.cost > remaining {
                continue;
            }
            if best.map_or(true, |(bi, b)| {
                candidate.heuristic > b.heuristic || (candidate.heuristic == b.heuristic && i < bi)
            }) {
                best = Some((i, *candidate));
            }
        }
        let Some((task_idx, candidate)) = best else {
            break;
        };

        let worker = states[task_idx]
            .planned_worker(candidate.slot)
            .expect("candidate slot has a planned worker");
        if ledger.is_occupied(candidate.slot, worker) {
            // Conflict: fall back to the next nearest worker and retry.
            conflicts += 1;
            states[task_idx].refresh_slot(candidate.slot, index, cost_model, ledger);
            count_conflict_refresh(&mut stats);
            cached[task_idx] = None;
            continue;
        }

        remaining -= candidate.cost;
        ledger.occupy(candidate.slot, worker);
        states[task_idx].execute(candidate.slot);
        committed.push(CommittedExecution {
            task: task_idx,
            slot: candidate.slot,
            worker,
            cost: candidate.cost,
        });
        cached[task_idx] = None;
        // Every other task whose cached candidate planned the same worker at
        // the same slot falls back.
        for (i, entry) in cached.iter_mut().enumerate() {
            if i == task_idx {
                continue;
            }
            if let Some(Some(c)) = entry {
                if c.slot == candidate.slot && states[i].planned_worker(c.slot) == Some(worker) {
                    conflicts += 1;
                    states[i].refresh_slot(c.slot, index, cost_model, ledger);
                    count_conflict_refresh(&mut stats);
                    *entry = None;
                }
            }
        }
    }
    (outcome(states, conflicts, stats), committed)
}

/// Min-heap entry `(quality, task index)`, ordered through `total_cmp`.
#[derive(PartialEq)]
struct HeapEntry(f64, usize);

impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// The MMQM lazy-heap greedy with a full search per best-candidate request:
/// repeatedly reinforce the weakest task with its best affordable candidate.
pub fn mmqm_oracle(
    tasks: &[Task],
    index: &WorkerIndex,
    cost_model: &dyn CostModel,
    cfg: &MultiTaskConfig,
    ledger: &mut WorkerLedger,
) -> MultiOutcome {
    let mut stats = CacheStats::default();
    let mut states = checkout(tasks, index, cost_model, cfg, ledger, &mut stats);
    let mut remaining = cfg.budget;
    let mut conflicts = 0usize;

    let mut heap: BinaryHeap<Reverse<HeapEntry>> = states
        .iter()
        .enumerate()
        .map(|(i, s)| Reverse(HeapEntry(s.quality(), i)))
        .collect();
    let mut retired = vec![false; states.len()];
    while let Some(Reverse(HeapEntry(quality, task_idx))) = heap.pop() {
        if retired[task_idx] {
            continue;
        }
        // A stale entry is re-pushed with the task's current quality.
        if (states[task_idx].quality() - quality).abs() > 1e-12 {
            heap.push(Reverse(HeapEntry(states[task_idx].quality(), task_idx)));
            continue;
        }
        let Some(candidate) = full_best(&states[task_idx], cfg, remaining) else {
            retired[task_idx] = true;
            continue;
        };
        if candidate.cost > remaining {
            retired[task_idx] = true;
            continue;
        }
        let worker = states[task_idx]
            .planned_worker(candidate.slot)
            .expect("candidate slot has a planned worker");
        if ledger.is_occupied(candidate.slot, worker) {
            conflicts += 1;
            states[task_idx].refresh_slot(candidate.slot, index, cost_model, ledger);
            count_conflict_refresh(&mut stats);
        } else {
            remaining -= candidate.cost;
            ledger.occupy(candidate.slot, worker);
            states[task_idx].execute(candidate.slot);
        }
        heap.push(Reverse(HeapEntry(states[task_idx].quality(), task_idx)));
    }
    outcome(states, conflicts, stats)
}
