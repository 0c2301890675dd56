//! The shared greedy commit loops.
//!
//! The MSQM loop and the MMQM lazy-heap loop each exist once, here, generic
//! over the engine's [`Occupancy`] store: the only thing the drivers (the
//! engine on either index) differ in is *where occupancy lives* (a dense
//! [`crate::WorkerLedger`] vs the sharded per-tile ledgers) and therefore how
//! a conflict-invalidated slot is refreshed.
//!
//! The MSQM loop decides nothing itself: expiry, selection and conflict
//! losers come from the [`HeartbeatTable`] the task-parallel master
//! ([`crate::multi::protocol::TaskMaster`]) decides through too.
//!
//! The loops never compute candidates themselves — they call
//! [`TaskState::best_candidate`], which answers from the task's gain ledger;
//! the engine merges the counters each state accumulates into the run's
//! [`CacheStats`] once a loop finishes.
//!
//! Under a live recorder (`R::IS_ENABLED`) the loops time every
//! best-candidate request and every gain-ledger patch into the run's
//! `warm_nanos` / `refresh_nanos`; under the [`tcsc_obs::NoopRecorder`] they
//! read no clock.
//!
//! Everything a loop needs beyond the engine's index and ledger lives in
//! the engine's [`Scratch`], which every solve re-initialises in place.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use tcsc_core::{CandidateAssignment, CostModel, SlotIndex};
use tcsc_obs::{Recorder, Stopwatch};

use crate::engine::{CacheStats, Occupancy};
use crate::multi::{GainEntry, HeartbeatTable, TaskCandidate, TaskState};

/// The buffers the engine reuses across solves: a pool of task states, the
/// MSQM heartbeat table, the MMQM heap, and the loops' task list and gain
/// ledger `aside` buffer.  A solve re-initialises what it uses in place, so
/// a steady service allocates little beyond its plans.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The task-state pool: a solve of `n` tasks uses the first `n`, grown
    /// on demand.  [`crate::GreedyEngine::release_all`] empties it.
    pub(crate) states: Vec<TaskState>,
    table: HeartbeatTable,
    weakest: BinaryHeap<Reverse<HeapEntry>>,
    /// Takes every task list the heartbeat table hands out; each list is
    /// used up before the next is asked for.
    tasks: Vec<usize>,
    aside: Vec<GainEntry>,
}

/// One best-candidate request, timed into `stats` under a live recorder:
/// a task's first request is its warm start, every later one refresh work.
fn best_candidate<R: Recorder>(
    state: &mut TaskState,
    max_cost: f64,
    aside: &mut Vec<GainEntry>,
    stats: &mut CacheStats,
) -> Option<TaskCandidate> {
    if !R::IS_ENABLED {
        return state.best_candidate_in(max_cost, aside);
    }
    let warm = state.is_cold();
    let sw = Stopwatch::start();
    let candidate = state.best_candidate_in(max_cost, aside);
    let nanos = sw.elapsed_nanos();
    if warm {
        stats.warm_nanos += nanos;
    } else {
        stats.refresh_nanos += nanos;
    }
    candidate
}

/// Replaces a slot's candidate after a conflict; under a live recorder the
/// gain-ledger patch is timed into `stats` as refresh work.
fn set_candidate<R: Recorder>(
    state: &mut TaskState,
    slot: SlotIndex,
    candidate: Option<CandidateAssignment>,
    stats: &mut CacheStats,
) {
    if !R::IS_ENABLED {
        state.set_candidate(slot, candidate);
        return;
    }
    state.place_candidate(slot, candidate);
    let sw = Stopwatch::start();
    state.patch_gain_slot(slot);
    stats.refresh_nanos += sw.elapsed_nanos();
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

/// The serial MSQM greedy over already-checked-out task states: repeatedly
/// execute the globally best affordable `(gain / cost)` candidate, arbitrate
/// worker conflicts through the occupancy store and refresh exactly the
/// invalidated slots.  No step scans the batch: the heartbeat table's
/// lazy heaps yield the argmax and the budget-expired tasks, its dirty list
/// the pending ones and its holder lists the conflict losers, all into one
/// reused buffer.  Returns `(conflicts, executions)`.
///
/// The engine on either index (and, through it, the group-parallel
/// framework) commits through this loop; the task-parallel master applies
/// the same [`HeartbeatTable`] rule over heartbeat messages.  Their results
/// can only differ through the candidates they feed in.  The equivalence
/// suites (`engine_equivalence.rs`, `concurrent_equivalence.rs`,
/// `master_fuzz.rs`) are the tripwire.
pub(crate) fn msqm_commit_loop<I, L: Occupancy<I>, R: Recorder>(
    scratch: &mut Scratch,
    num_tasks: usize,
    budget: f64,
    index: &I,
    cost_model: &dyn CostModel,
    ledger: &mut L,
    stats: &mut CacheStats,
) -> (usize, usize) {
    let Scratch {
        states,
        table,
        tasks,
        aside,
        ..
    } = scratch;
    let states = &mut states[..num_tasks];
    let mut remaining = budget;
    let mut conflicts = 0usize;
    let mut executions = 0usize;
    table.reset(num_tasks);
    let mut warm_start_done = false;

    loop {
        // Candidates the shrinking budget made unaffordable turn pending:
        // recomputed under the current budget, a cheaper slot of the same
        // task may still be affordable.
        table.expire_unaffordable(remaining, tasks);
        // Answer every pending entry, in ascending task order (the first
        // iteration answers the whole batch — the warm start).
        table.pending(tasks);
        if !tasks.is_empty() {
            if warm_start_done {
                // Everything past the warm start is per-grant re-score work.
                stats.commit_rescores += tasks.len();
            }
            warm_start_done = true;
            for &i in tasks.iter() {
                let candidate = best_candidate::<R>(&mut states[i], remaining, aside, stats);
                let worker = candidate.and_then(|c| states[i].planned_worker(c.slot));
                table.record(i, candidate.zip(worker));
            }
        }
        let Some((task_idx, candidate, _)) = table.select(remaining) else {
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
            table.invalidate(task_idx);
            let refreshed =
                ledger.nearest_free(index, &states[task_idx].task, candidate.slot, cost_model);
            set_candidate::<R>(&mut states[task_idx], candidate.slot, refreshed, stats);
            continue;
        }

        // Execute.
        remaining -= candidate.cost;
        ledger.take(index, &planned);
        states[task_idx].execute(candidate.slot);
        executions += 1;
        table.invalidate(task_idx);
        // Tasks that planned the same worker at the same slot fall back to
        // the next nearest free worker.
        table.take_losers(candidate.slot, planned.worker, tasks);
        for &i in tasks.iter() {
            conflicts += 1;
            let refreshed = ledger.nearest_free(index, &states[i].task, candidate.slot, cost_model);
            set_candidate::<R>(&mut states[i], candidate.slot, refreshed, stats);
        }
    }
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
pub(crate) fn mmqm_commit_loop<I, L: Occupancy<I>, R: Recorder>(
    scratch: &mut Scratch,
    num_tasks: usize,
    budget: f64,
    index: &I,
    cost_model: &dyn CostModel,
    ledger: &mut L,
    stats: &mut CacheStats,
) -> (usize, usize) {
    let Scratch {
        states,
        weakest: heap,
        aside,
        ..
    } = scratch;
    let states = &mut states[..num_tasks];
    let mut remaining = budget;
    let mut conflicts = 0usize;
    let mut executions = 0usize;

    // Min-heap over (quality, task index).  Every live task has exactly one
    // entry, pushed with its current quality; a task that runs out of
    // affordable candidates is retired by not pushing it back.
    heap.clear();
    heap.extend(
        states
            .iter()
            .enumerate()
            .map(|(i, s)| Reverse(HeapEntry(s.quality(), i))),
    );

    while let Some(Reverse(HeapEntry(quality, task_idx))) = heap.pop() {
        debug_assert_eq!(
            states[task_idx].quality().to_bits(),
            quality.to_bits(),
            "task {task_idx}'s heap entry is stale"
        );
        let Some(candidate) = best_candidate::<R>(&mut states[task_idx], remaining, aside, stats)
        else {
            continue;
        };
        // Conflict check against the shared occupancy.
        let planned = *states[task_idx]
            .candidates
            .get(candidate.slot)
            .expect("candidate slot has a planned worker");
        if ledger.is_taken(index, &planned) {
            conflicts += 1;
            let refreshed =
                ledger.nearest_free(index, &states[task_idx].task, candidate.slot, cost_model);
            set_candidate::<R>(&mut states[task_idx], candidate.slot, refreshed, stats);
            heap.push(Reverse(HeapEntry(states[task_idx].quality(), task_idx)));
            continue;
        }

        remaining -= candidate.cost;
        ledger.take(index, &planned);
        states[task_idx].execute(candidate.slot);
        executions += 1;
        heap.push(Reverse(HeapEntry(states[task_idx].quality(), task_idx)));
    }
    (conflicts, executions)
}
