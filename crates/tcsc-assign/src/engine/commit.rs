//! The shared greedy commit loops.
//!
//! The MSQM holder-map loop and the MMQM lazy-heap loop each exist once, here,
//! generic over the engine's [`Occupancy`] store: the only thing the drivers
//! (the engine on either index) differ in is *where occupancy lives* (a
//! dense [`crate::WorkerLedger`] vs the sharded per-tile ledgers) and
//! therefore how a conflict-invalidated slot is refreshed.
//!
//! The loops never compute candidates themselves — they call
//! [`TaskState::best_candidate`], which answers from the task's gain ledger;
//! the refresh accounting each state accumulates is absorbed into the run's
//! [`CacheStats`] when a loop finishes.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashMap};

use tcsc_core::{CostModel, SlotIndex, WorkerId};

use crate::engine::{CacheStats, Occupancy};
use crate::multi::{TaskCandidate, TaskState};

/// Folds every state's refresh accounting into the run's stats (called once
/// per finished commit loop; states are per-solve, so nothing double-counts).
pub(crate) fn absorb_refresh_stats(states: &[TaskState], stats: &mut CacheStats) {
    for state in states {
        stats.absorb_refresh(&state.refresh_stats());
    }
}

/// Ordered heap entry: (quality, task index).  `f64` is wrapped through its
/// total ordering to make the heap usable.
#[derive(Debug, PartialEq)]
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

/// Reverse holder map of one solve: `(slot, worker)` to the tasks whose
/// cached best candidate currently targets that worker.  `registered`
/// remembers each task's key so deregistration never has to search.
#[derive(Debug, Default)]
pub(crate) struct HolderMap {
    holders: HashMap<(SlotIndex, WorkerId), std::collections::BTreeSet<usize>>,
    registered: Vec<Option<(SlotIndex, WorkerId)>>,
}

impl HolderMap {
    pub(crate) fn with_tasks(n: usize) -> Self {
        Self {
            holders: HashMap::new(),
            registered: vec![None; n],
        }
    }

    pub(crate) fn register(&mut self, task_idx: usize, slot: SlotIndex, worker: WorkerId) {
        self.holders
            .entry((slot, worker))
            .or_default()
            .insert(task_idx);
        self.registered[task_idx] = Some((slot, worker));
    }

    pub(crate) fn deregister(&mut self, task_idx: usize) {
        if let Some(key) = self.registered[task_idx].take() {
            if let Some(set) = self.holders.get_mut(&key) {
                set.remove(&task_idx);
                if set.is_empty() {
                    self.holders.remove(&key);
                }
            }
        }
    }

    /// Removes and returns every task holding `(slot, worker)` as its best
    /// candidate.
    pub(crate) fn take_holders(
        &mut self,
        slot: SlotIndex,
        worker: WorkerId,
    ) -> std::collections::BTreeSet<usize> {
        let set = self.holders.remove(&(slot, worker)).unwrap_or_default();
        for &task_idx in &set {
            self.registered[task_idx] = None;
        }
        set
    }
}

/// The serial MSQM greedy over already-checked-out task states: repeatedly
/// execute the globally best affordable `(gain / cost)` candidate, arbitrate
/// worker conflicts through the occupancy store and refresh exactly the invalidated
/// slots (the reverse holder map yields them without scanning the batch).
/// Returns `(conflicts, executions)`.
///
/// Every MSQM driver commits through this loop — the engine on either index
/// (and, through it, the group-parallel framework); their results can only
/// differ through the candidates they feed in.  The
/// equivalence suites (`engine_equivalence.rs`, `concurrent_equivalence.rs`)
/// are the tripwire.
pub(crate) fn msqm_commit_loop<I, L: Occupancy<I>>(
    states: &mut [TaskState],
    budget: f64,
    index: &I,
    cost_model: &dyn CostModel,
    ledger: &mut L,
    stats: &mut CacheStats,
) -> (usize, usize) {
    let mut remaining = budget;
    let mut conflicts = 0usize;
    let mut executions = 0usize;

    // Cached best candidate per task; recomputed lazily when invalidated.
    let mut cached: Vec<Option<Option<TaskCandidate>>> = vec![None; states.len()];
    let mut holders = HolderMap::with_tasks(states.len());
    let mut warm_start_done = false;

    loop {
        // Deregister candidates that the shrinking budget made unaffordable
        // (they must be recomputed with the current budget so cheaper slots
        // of the same task are still considered).
        for (i, entry) in cached.iter_mut().enumerate() {
            if let Some(Some(c)) = entry {
                if c.cost > remaining {
                    holders.deregister(i);
                    *entry = None;
                }
            }
        }
        // Recompute every invalidated candidate, in ascending task order
        // (the first iteration recomputes the whole batch — the warm start).
        let invalidated: Vec<usize> = (0..states.len()).filter(|&i| cached[i].is_none()).collect();
        if !invalidated.is_empty() {
            if warm_start_done {
                // Everything past the warm start is per-grant re-score work.
                stats.commit_rescores += invalidated.len();
            }
            warm_start_done = true;
            for i in invalidated {
                let candidate = states[i].best_candidate(remaining);
                if let Some(c) = &candidate {
                    let worker = states[i]
                        .planned_worker(c.slot)
                        .expect("candidate slot has a planned worker");
                    holders.register(i, c.slot, worker);
                }
                cached[i] = Some(candidate);
            }
        }
        // Pick the task with the globally maximal heuristic value among the
        // affordable candidates (identical rule, identical ties).
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
        let planned = *states[task_idx]
            .candidates
            .get(candidate.slot)
            .expect("candidate slot has a planned worker");
        if ledger.is_taken(index, &planned) {
            // Conflict: fall back to the next nearest worker and retry.
            conflicts += 1;
            holders.deregister(task_idx);
            cached[task_idx] = None;
            let refreshed =
                ledger.nearest_free(index, &states[task_idx].task, candidate.slot, cost_model);
            states[task_idx].set_candidate(candidate.slot, refreshed);
            stats.count_conflict_refresh();
            continue;
        }

        // Execute.
        remaining -= candidate.cost;
        ledger.take(index, &planned);
        states[task_idx].execute(candidate.slot);
        executions += 1;
        holders.deregister(task_idx);
        cached[task_idx] = None;
        // Invalidate cached candidates of tasks that planned to use the same
        // worker at the same slot (they must fall back on their next try).
        // The holder map yields exactly those tasks without scanning the
        // whole batch.
        let losers = holders.take_holders(candidate.slot, planned.worker);
        debug_assert!(
            !losers.contains(&task_idx),
            "the executing task was deregistered before its worker was occupied"
        );
        for i in losers {
            conflicts += 1;
            cached[i] = None;
            let refreshed = ledger.nearest_free(index, &states[i].task, candidate.slot, cost_model);
            states[i].set_candidate(candidate.slot, refreshed);
            stats.count_conflict_refresh();
        }
    }

    absorb_refresh_stats(states, stats);
    (conflicts, executions)
}

/// The MMQM lazy-heap greedy: repeatedly reinforce the weakest task with its
/// best affordable candidate, arbitrating conflicts through the occupancy
/// store.
/// Heap entries are lazily refreshed — a popped entry whose quality no longer
/// matches the task is re-pushed with the current quality instead of being
/// trusted.  Returns `(conflicts, executions)`.
///
/// The single implementation behind the engine on either index.
pub(crate) fn mmqm_commit_loop<I, L: Occupancy<I>>(
    states: &mut [TaskState],
    budget: f64,
    index: &I,
    cost_model: &dyn CostModel,
    ledger: &mut L,
    stats: &mut CacheStats,
) -> (usize, usize) {
    let mut remaining = budget;
    let mut conflicts = 0usize;
    let mut executions = 0usize;

    // Min-heap over (quality, task index).  Every live task has exactly one
    // entry, pushed with its current quality; a task that runs out of
    // affordable candidates is retired by not pushing it back.
    let mut heap: BinaryHeap<Reverse<HeapEntry>> = states
        .iter()
        .enumerate()
        .map(|(i, s)| Reverse(HeapEntry(s.quality(), i)))
        .collect();

    while let Some(Reverse(HeapEntry(quality, task_idx))) = heap.pop() {
        debug_assert_eq!(
            states[task_idx].quality().to_bits(),
            quality.to_bits(),
            "task {task_idx}'s heap entry is stale"
        );
        let Some(candidate) = states[task_idx].best_candidate(remaining) else {
            continue;
        };
        if candidate.cost > remaining {
            continue;
        }
        // Conflict check against the shared occupancy.
        let planned = *states[task_idx]
            .candidates
            .get(candidate.slot)
            .expect("candidate slot has a planned worker");
        if ledger.is_taken(index, &planned) {
            conflicts += 1;
            let refreshed =
                ledger.nearest_free(index, &states[task_idx].task, candidate.slot, cost_model);
            states[task_idx].set_candidate(candidate.slot, refreshed);
            stats.count_conflict_refresh();
            heap.push(Reverse(HeapEntry(states[task_idx].quality(), task_idx)));
            continue;
        }

        remaining -= candidate.cost;
        ledger.take(index, &planned);
        states[task_idx].execute(candidate.slot);
        executions += 1;
        heap.push(Reverse(HeapEntry(states[task_idx].quality(), task_idx)));
    }

    absorb_refresh_stats(states, stats);
    (conflicts, executions)
}
