//! The heartbeat table of the task-level framework (Section IV-A.2): each
//! task's latest candidate, the MSQM selection rule over them, and the
//! `(slot, worker)` holder map that names a grant's conflict losers.
//!
//! Both MSQM drivers decide through this one table: the engine's serial
//! commit loop (`engine::commit::msqm_commit_loop`) and the task-parallel
//! master ([`super::protocol::TaskMaster`], run by the thread driver and the
//! `tcsc-sim` dispatcher).  They differ only in how a pending entry gets its
//! answer: a direct [`super::TaskState::best_candidate`] call, or a request
//! message and the heartbeat that replies to it.

use std::collections::{BTreeSet, HashMap};

use tcsc_core::{SlotIndex, WorkerId};

use crate::multi::TaskCandidate;

/// A task's reported best candidate and the worker planned for its slot.
pub(crate) type Heartbeat = (TaskCandidate, WorkerId);

/// Per-task latest heartbeats plus the reverse holder map.
#[derive(Debug)]
pub(crate) struct HeartbeatTable {
    /// Per task: `None` while its answer is pending, otherwise the latest
    /// heartbeat (`Some(None)`: no affordable candidate).
    entries: Vec<Option<Option<Heartbeat>>>,
    /// `(slot, worker)` to the tasks whose known candidate targets it.
    holders: HashMap<(SlotIndex, WorkerId), BTreeSet<usize>>,
}

impl HeartbeatTable {
    /// A table over `num_tasks` tasks, every entry pending.
    pub(crate) fn new(num_tasks: usize) -> Self {
        Self {
            entries: vec![None; num_tasks],
            holders: HashMap::new(),
        }
    }

    /// Records a task's heartbeat; its worker becomes held at its slot.
    pub(crate) fn record(&mut self, task: usize, heartbeat: Option<Heartbeat>) {
        self.invalidate(task);
        if let Some((c, worker)) = heartbeat {
            self.holders
                .entry((c.slot, worker))
                .or_default()
                .insert(task);
        }
        self.entries[task] = Some(heartbeat);
    }

    /// Marks a task pending and releases the worker it held.
    pub(crate) fn invalidate(&mut self, task: usize) {
        if let Some(Some((c, worker))) = self.entries[task].take() {
            let key = (c.slot, worker);
            let set = self.holders.get_mut(&key).expect("a known task holds");
            set.remove(&task);
            if set.is_empty() {
                self.holders.remove(&key);
            }
        }
    }

    /// Budget staleness: marks pending every task whose candidate costs more
    /// than `remaining` (recomputed under the current budget, a cheaper slot
    /// may still be affordable) and returns them in ascending order.
    pub(crate) fn expire_unaffordable(&mut self, remaining: f64) -> Vec<usize> {
        let expired: Vec<usize> = (0..self.entries.len())
            .filter(|&t| matches!(self.entries[t], Some(Some((c, _))) if c.cost > remaining))
            .collect();
        for &task in &expired {
            self.invalidate(task);
        }
        expired
    }

    /// The pending tasks, in ascending order.
    pub(crate) fn pending(&self) -> Vec<usize> {
        (0..self.entries.len())
            .filter(|&t| self.entries[t].is_none())
            .collect()
    }

    /// The MSQM selection rule: the known candidate within `remaining` with
    /// the maximum heuristic, ties to the lower task index.
    pub(crate) fn select(&self, remaining: f64) -> Option<(usize, TaskCandidate, WorkerId)> {
        let mut best: Option<(usize, TaskCandidate, WorkerId)> = None;
        for (task, entry) in self.entries.iter().enumerate() {
            // The scan ascends, so only a strictly larger heuristic displaces
            // the incumbent: ties stay with the lower task.
            if let Some(Some((c, worker))) = entry {
                if c.cost <= remaining && best.map_or(true, |(_, b, _)| c.heuristic > b.heuristic) {
                    best = Some((task, *c, *worker));
                }
            }
        }
        best
    }

    /// The conflict losers of a grant of `worker` at `slot`: every task whose
    /// known candidate targets that pair, ascending, each marked pending.
    /// The caller invalidates the winner first, so it is never among them.
    pub(crate) fn take_losers(&mut self, slot: SlotIndex, worker: WorkerId) -> Vec<usize> {
        let losers = self.holders.remove(&(slot, worker)).unwrap_or_default();
        for &task in &losers {
            self.entries[task] = None;
        }
        losers.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A heartbeat for `worker` at `slot` with the given cost and heuristic.
    fn hb(slot: SlotIndex, cost: f64, heuristic: f64, worker: u32) -> Option<Heartbeat> {
        let gain = heuristic * cost;
        let candidate = TaskCandidate {
            slot,
            gain,
            cost,
            heuristic,
        };
        Some((candidate, WorkerId(worker)))
    }

    #[test]
    fn equal_heuristics_go_to_the_lower_task() {
        let mut table = HeartbeatTable::new(3);
        table.record(2, hb(0, 1.0, 4.0, 1));
        table.record(1, hb(1, 2.0, 4.0, 2));
        table.record(0, hb(2, 1.0, 3.0, 3));
        let (task, candidate, worker) = table.select(10.0).unwrap();
        assert_eq!((task, candidate.slot, worker), (1, 1, WorkerId(2)));
        // Below task 1's cost the tie is gone.
        assert_eq!(table.select(1.5).unwrap().0, 2);
    }

    #[test]
    fn expiry_lists_unaffordable_tasks_in_order_and_marks_them_pending() {
        let mut table = HeartbeatTable::new(4);
        table.record(3, hb(0, 5.0, 1.0, 1));
        table.record(0, hb(1, 6.0, 1.0, 2));
        table.record(1, hb(2, 1.0, 1.0, 3));
        table.record(2, None);
        assert!(table.pending().is_empty());
        assert_eq!(table.expire_unaffordable(4.0), vec![0, 3]);
        assert_eq!(table.pending(), vec![0, 3]);
        // Expired tasks released their workers.
        assert!(table.take_losers(0, WorkerId(1)).is_empty());
        assert!(table.expire_unaffordable(4.0).is_empty());
    }

    #[test]
    fn losers_exclude_the_invalidated_winner_and_turn_pending() {
        let mut table = HeartbeatTable::new(4);
        table.record(0, hb(3, 1.0, 5.0, 7));
        table.record(2, hb(3, 1.0, 4.0, 7));
        table.record(1, hb(3, 1.0, 2.0, 7));
        table.record(3, hb(4, 1.0, 1.0, 7));
        let (winner, candidate, worker) = table.select(10.0).unwrap();
        table.invalidate(winner);
        assert_eq!(table.take_losers(candidate.slot, worker), vec![1, 2]);
        assert!(table.take_losers(candidate.slot, worker).is_empty());
        assert_eq!(table.pending(), vec![0, 1, 2]);
        // Task 3 holds the worker at another slot: not a loser.
        assert_eq!(table.select(10.0).unwrap().0, 3);
    }

    #[test]
    fn a_pending_task_is_never_selected() {
        let mut table = HeartbeatTable::new(2);
        assert_eq!(table.select(f64::INFINITY), None);
        table.record(0, hb(0, 1.0, 9.0, 1));
        table.record(1, hb(0, 1.0, 1.0, 2));
        table.invalidate(0);
        assert_eq!(table.select(f64::INFINITY).unwrap().0, 1);
        table.invalidate(1);
        assert_eq!(table.select(f64::INFINITY), None);
    }
}
