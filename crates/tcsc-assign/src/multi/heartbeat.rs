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
//!
//! No operation scans the batch; each costs amortised `O(log r)` in the `r`
//! records so far plus the size of its answer (a record or an invalidation:
//! plus the length of its key's holder chain), and none allocates once the
//! buffers have grown:
//!
//! * **Selection** is a lazy max-heap over `(heuristic, lower task)`, the
//!   accelerated greedy of Minoux (1978) and CELF (Leskovec et al., KDD
//!   2007).  Every task carries a `u32` version, bumped whenever its known
//!   candidate leaves the table; a heap entry stamped with an older version
//!   is stale, so invalidations and re-records never touch the heap.
//!   [`HeartbeatTable::select`] pops stale tops, and tops costing more than
//!   `remaining` as well: the budget only shrinks, so such an entry can
//!   never be selected again (expiry, below, owns turning it pending).
//! * **Expiry** is a lazy max-heap over cost:
//!   [`HeartbeatTable::expire_unaffordable`] pops while the top costs more
//!   than `remaining`.  A NaN cost never enters it: the comparison is false,
//!   so such an entry is never expired (nor selected), and at the top of the
//!   heap it would stop every expiry below it.
//! * **Pending** tasks sit on a dirty list, appended when a task turns
//!   pending (a flag keeps it there at most once);
//!   [`HeartbeatTable::pending`] filters out the re-recorded ones and sorts
//!   the rest.
//! * **Holders**: each `(slot, worker)` key maps to its lowest holding task
//!   and a per-task `next` link chains the other holders in ascending order,
//!   so a record allocates nothing and [`HeartbeatTable::take_losers`] walks
//!   one chain.  The keys hash through the multiplicative
//!   [`tcsc_core::IdHasher`] instead of SipHash.
//!
//! The selection sequence is the linear scan's: every known candidate
//! within the budget has exactly one live selection entry, and the heap's
//! order is the scan's rule — the maximum heuristic, ties to the lower task.
//! `f64::total_cmp` agrees with `>` on the heuristics candidates carry
//! (`gain / cost` of a positive gain, `INFINITY` at a zero cost; never NaN).
//! The test module keeps the scan as a reference model and drives both
//! tables through random operation tapes.

use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;

use tcsc_core::{IdHasher, SlotIndex, WorkerId};

use crate::multi::TaskCandidate;

/// A task's reported best candidate and the worker planned for its slot.
pub(crate) type Heartbeat = (TaskCandidate, WorkerId);

/// End of a holder chain.
const NONE: u32 = u32::MAX;

/// One task's row.
#[derive(Debug, Clone, Copy)]
struct Row {
    /// `None` while the task's answer is pending, otherwise its latest
    /// heartbeat (`Some(None)`: no affordable candidate).
    heartbeat: Option<Option<Heartbeat>>,
    /// Bumped (wrapping) whenever a known candidate leaves the row; a stale
    /// entry would have to outlive 2^32 records of its task to match again.
    version: u32,
    /// The next higher task holding the same `(slot, worker)`, or [`NONE`].
    next: u32,
    /// Whether the task is on the dirty list.
    listed: bool,
}

/// A lazy-heap entry: a heuristic or a cost, stamped with its task's version
/// at the time of the record.  The maximum key comes first, ties to the
/// lower task.
#[derive(Debug, Clone, Copy)]
struct Stamped {
    key: f64,
    task: u32,
    version: u32,
}

impl PartialEq for Stamped {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Stamped {}
impl PartialOrd for Stamped {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Stamped {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .total_cmp(&other.key)
            .then(other.task.cmp(&self.task))
    }
}

/// Per-task latest heartbeats, the selection and expiry heaps, the dirty
/// list and the holder chains.
#[derive(Debug, Default)]
pub(crate) struct HeartbeatTable {
    rows: Vec<Row>,
    /// Known candidates by `(heuristic, lower task)`.
    by_heuristic: BinaryHeap<Stamped>,
    /// Known candidates with a non-NaN cost, by cost.
    by_cost: BinaryHeap<Stamped>,
    /// Every pending task (plus tasks re-recorded since the last
    /// [`HeartbeatTable::pending`]), each at most once.
    dirty: Vec<usize>,
    /// `(slot, worker)` to the lowest task whose known candidate targets it.
    /// The map holds at most one key per task of the batch, so ids crafted
    /// to collide under [`IdHasher`] cost at worst the linear scan of the
    /// batch that the map replaced.
    holders: HashMap<(SlotIndex, WorkerId), u32, BuildHasherDefault<IdHasher>>,
}

impl HeartbeatTable {
    /// A table over `num_tasks` tasks, every entry pending.
    pub(crate) fn new(num_tasks: usize) -> Self {
        let mut table = Self::default();
        table.reset(num_tasks);
        table
    }

    /// Returns the table to the state [`HeartbeatTable::new`] gives for
    /// `num_tasks` tasks, keeping its buffers.
    pub(crate) fn reset(&mut self, num_tasks: usize) {
        assert!(
            u32::try_from(num_tasks).is_ok_and(|n| n < NONE),
            "a heartbeat table indexes its tasks with u32"
        );
        let row = Row {
            heartbeat: None,
            version: 0,
            next: NONE,
            listed: true,
        };
        self.rows.clear();
        self.rows.resize(num_tasks, row);
        self.by_heuristic.clear();
        self.by_heuristic.reserve(num_tasks);
        self.by_cost.clear();
        self.by_cost.reserve(num_tasks);
        self.dirty.clear();
        self.dirty.extend(0..num_tasks);
        self.holders.clear();
        self.holders.reserve(num_tasks);
    }

    /// Records a task's heartbeat; its worker becomes held at its slot.
    pub(crate) fn record(&mut self, task: usize, heartbeat: Option<Heartbeat>) {
        self.release(task);
        if let Some((c, worker)) = heartbeat {
            self.link(task, (c.slot, worker));
            let version = self.rows[task].version;
            let stamped = |key| Stamped {
                key,
                task: task as u32,
                version,
            };
            self.by_heuristic.push(stamped(c.heuristic));
            if !c.cost.is_nan() {
                self.by_cost.push(stamped(c.cost));
            }
        }
        self.rows[task].heartbeat = Some(heartbeat);
    }

    /// Marks a task pending and releases the worker it held.
    pub(crate) fn invalidate(&mut self, task: usize) {
        self.release(task);
        if self.rows[task].heartbeat.take().is_some() {
            self.list(task);
        }
    }

    /// Budget staleness: marks pending every task whose candidate costs more
    /// than `remaining` (recomputed under the current budget, a cheaper slot
    /// may still be affordable) and lists them in `expired`, ascending.
    pub(crate) fn expire_unaffordable(&mut self, remaining: f64, expired: &mut Vec<usize>) {
        expired.clear();
        while let Some(&top) = self.by_cost.peek().filter(|top| top.key > remaining) {
            self.by_cost.pop();
            if self.live(top).is_some() {
                expired.push(top.task as usize);
            }
        }
        expired.sort_unstable();
        for &task in expired.iter() {
            self.invalidate(task);
        }
    }

    /// Lists the pending tasks in `out`, ascending.
    pub(crate) fn pending(&mut self, out: &mut Vec<usize>) {
        let rows = &mut self.rows;
        self.dirty.retain(|&task| {
            let row = &mut rows[task];
            row.listed = row.heartbeat.is_none();
            row.listed
        });
        self.dirty.sort_unstable();
        out.clear();
        out.extend_from_slice(&self.dirty);
    }

    /// The MSQM selection rule: the known candidate within `remaining` with
    /// the maximum heuristic, ties to the lower task index.  `remaining` must
    /// not grow between calls: an entry found above it is dropped for good.
    pub(crate) fn select(&mut self, remaining: f64) -> Option<(usize, TaskCandidate, WorkerId)> {
        while let Some(&top) = self.by_heuristic.peek() {
            match self.live(top) {
                Some((c, worker)) if c.cost <= remaining => {
                    return Some((top.task as usize, c, worker));
                }
                _ => {
                    self.by_heuristic.pop();
                }
            }
        }
        None
    }

    /// The conflict losers of a grant of `worker` at `slot`: every task whose
    /// known candidate targets that pair, listed in `losers` ascending, each
    /// marked pending.  The caller invalidates the winner first, so it is
    /// never among them.
    pub(crate) fn take_losers(
        &mut self,
        slot: SlotIndex,
        worker: WorkerId,
        losers: &mut Vec<usize>,
    ) {
        losers.clear();
        let mut task = self.holders.remove(&(slot, worker)).unwrap_or(NONE);
        while task != NONE {
            let t = task as usize;
            let row = &mut self.rows[t];
            task = std::mem::replace(&mut row.next, NONE);
            row.version = row.version.wrapping_add(1);
            row.heartbeat = None;
            self.list(t);
            losers.push(t);
        }
    }

    /// The task's candidate if `entry` is still its latest record.
    fn live(&self, entry: Stamped) -> Option<Heartbeat> {
        let row = &self.rows[entry.task as usize];
        match row.heartbeat {
            Some(Some(heartbeat)) if row.version == entry.version => Some(heartbeat),
            _ => None,
        }
    }

    /// Drops the task's known candidate, if any: its worker is no longer
    /// held and its heap entries turn stale.  The row itself is untouched.
    fn release(&mut self, task: usize) {
        if let Some(Some((c, worker))) = self.rows[task].heartbeat {
            self.unlink(task, (c.slot, worker));
            self.rows[task].version = self.rows[task].version.wrapping_add(1);
        }
    }

    /// Puts a pending task on the dirty list.
    fn list(&mut self, task: usize) {
        if !self.rows[task].listed {
            self.rows[task].listed = true;
            self.dirty.push(task);
        }
    }

    /// Inserts `task` into `key`'s holder chain, keeping it ascending.
    fn link(&mut self, task: usize, key: (SlotIndex, WorkerId)) {
        let t = task as u32;
        match self.holders.entry(key) {
            Entry::Vacant(vacant) => {
                vacant.insert(t);
            }
            Entry::Occupied(mut head) if t < *head.get() => {
                self.rows[task].next = std::mem::replace(head.get_mut(), t);
            }
            Entry::Occupied(head) => {
                // `NONE` exceeds every task, so the walk stops at the tail.
                let mut prev = *head.get() as usize;
                while self.rows[prev].next < t {
                    prev = self.rows[prev].next as usize;
                }
                self.rows[task].next = std::mem::replace(&mut self.rows[prev].next, t);
            }
        }
    }

    /// Removes `task` from `key`'s holder chain.
    fn unlink(&mut self, task: usize, key: (SlotIndex, WorkerId)) {
        let next = std::mem::replace(&mut self.rows[task].next, NONE);
        let head = self.holders.get_mut(&key).expect("a known task holds");
        if *head as usize == task {
            if next == NONE {
                self.holders.remove(&key);
            } else {
                *head = next;
            }
            return;
        }
        let mut prev = *head as usize;
        while self.rows[prev].next as usize != task {
            prev = self.rows[prev].next as usize;
        }
        self.rows[prev].next = next;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn pending(table: &mut HeartbeatTable) -> Vec<usize> {
        let mut out = Vec::new();
        table.pending(&mut out);
        out
    }

    fn expire(table: &mut HeartbeatTable, remaining: f64) -> Vec<usize> {
        let mut out = Vec::new();
        table.expire_unaffordable(remaining, &mut out);
        out
    }

    fn losers(table: &mut HeartbeatTable, slot: SlotIndex, worker: u32) -> Vec<usize> {
        let mut out = Vec::new();
        table.take_losers(slot, WorkerId(worker), &mut out);
        out
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
        assert!(pending(&mut table).is_empty());
        assert_eq!(expire(&mut table, 4.0), vec![0, 3]);
        assert_eq!(pending(&mut table), vec![0, 3]);
        // Expired tasks released their workers.
        assert!(losers(&mut table, 0, 1).is_empty());
        assert!(expire(&mut table, 4.0).is_empty());
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
        assert_eq!(losers(&mut table, candidate.slot, worker.0), vec![1, 2]);
        assert!(losers(&mut table, candidate.slot, worker.0).is_empty());
        assert_eq!(pending(&mut table), vec![0, 1, 2]);
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

    #[test]
    fn a_nan_cost_neither_blocks_nor_joins_expiry_and_is_never_selected() {
        let mut table = HeartbeatTable::new(3);
        table.record(0, hb(0, f64::NAN, f64::INFINITY, 1));
        table.record(1, hb(1, 5.0, 1.0, 2));
        table.record(2, hb(2, 1.0, 0.5, 3));
        // Task 1 expires past the NaN entry; task 0 stays known.
        assert_eq!(expire(&mut table, 4.0), vec![1]);
        assert_eq!(pending(&mut table), vec![1]);
        assert_eq!(table.select(4.0).unwrap().0, 2);
        table.invalidate(2);
        assert!(expire(&mut table, 0.0).is_empty());
        assert_eq!(table.select(4.0), None);
        assert_eq!(pending(&mut table), vec![1, 2]);
        // Its worker is still held.
        assert_eq!(losers(&mut table, 0, 1), vec![0]);
    }

    #[test]
    fn stale_heap_entries_are_not_selectable() {
        let mut table = HeartbeatTable::new(2);
        table.record(0, hb(0, 1.0, 3.0, 1));
        table.record(1, hb(1, 1.0, 2.0, 2));
        table.record(1, None);
        table.invalidate(0);
        // Both heap entries are still there, both stale: select drops them.
        assert_eq!(table.by_heuristic.len(), 2);
        assert_eq!(table.select(10.0), None);
        assert!(table.by_heuristic.is_empty());
    }

    /// The linear-scan table the heaps replaced, kept as the reference model.
    struct ScanTable {
        entries: Vec<Option<Option<Heartbeat>>>,
        holders: HashMap<(SlotIndex, WorkerId), BTreeSet<usize>>,
    }

    impl ScanTable {
        fn new(num_tasks: usize) -> Self {
            Self {
                entries: vec![None; num_tasks],
                holders: HashMap::new(),
            }
        }

        fn record(&mut self, task: usize, heartbeat: Option<Heartbeat>) {
            self.invalidate(task);
            if let Some((c, worker)) = heartbeat {
                self.holders
                    .entry((c.slot, worker))
                    .or_default()
                    .insert(task);
            }
            self.entries[task] = Some(heartbeat);
        }

        fn invalidate(&mut self, task: usize) {
            if let Some(Some((c, worker))) = self.entries[task].take() {
                let key = (c.slot, worker);
                let set = self.holders.get_mut(&key).expect("a known task holds");
                set.remove(&task);
                if set.is_empty() {
                    self.holders.remove(&key);
                }
            }
        }

        fn expire_unaffordable(&mut self, remaining: f64) -> Vec<usize> {
            let expired: Vec<usize> = (0..self.entries.len())
                .filter(|&t| matches!(self.entries[t], Some(Some((c, _))) if c.cost > remaining))
                .collect();
            for &task in &expired {
                self.invalidate(task);
            }
            expired
        }

        fn pending(&self) -> Vec<usize> {
            (0..self.entries.len())
                .filter(|&t| self.entries[t].is_none())
                .collect()
        }

        fn select(&self, remaining: f64) -> Option<(usize, TaskCandidate, WorkerId)> {
            let mut best: Option<(usize, TaskCandidate, WorkerId)> = None;
            for (task, entry) in self.entries.iter().enumerate() {
                if let Some(Some((c, worker))) = entry {
                    if c.cost <= remaining
                        && best.map_or(true, |(_, b, _)| c.heuristic > b.heuristic)
                    {
                        best = Some((task, *c, *worker));
                    }
                }
            }
            best
        }

        fn take_losers(&mut self, slot: SlotIndex, worker: WorkerId) -> Vec<usize> {
            let losers = self.holders.remove(&(slot, worker)).unwrap_or_default();
            for &task in &losers {
                self.entries[task] = None;
            }
            losers.into_iter().collect()
        }
    }

    /// A random heartbeat over few slots, workers, gains and costs, so
    /// holders collide and heuristics tie; one cost in ten is zero
    /// (heuristic `INFINITY`) and one in twenty is NaN.
    fn random_heartbeat(rng: &mut StdRng) -> Option<Heartbeat> {
        if rng.gen_bool(0.1) {
            return None;
        }
        let gain = 0.5 * f64::from(rng.gen_range(1..5u32));
        let cost = match rng.gen_range(0..20) {
            0 => f64::NAN,
            1 | 2 => 0.0,
            _ => 0.5 * f64::from(rng.gen_range(1..12u32)),
        };
        let candidate = TaskCandidate {
            slot: rng.gen_range(0..3),
            gain,
            cost,
            heuristic: crate::multi::heuristic(gain, cost),
        };
        Some((candidate, WorkerId(rng.gen_range(0..3))))
    }

    /// Drives the heap table and the scan through one random tape and
    /// asserts every answer equal.  Tasks are recorded in random order (so a
    /// key's holders arrive out of task order), re-recorded, invalidated and
    /// granted; `remaining` shrinks along the tape.
    fn run_tape(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let num_tasks = rng.gen_range(1..10);
        let mut heap = HeartbeatTable::new(num_tasks);
        let mut scan = ScanTable::new(num_tasks);
        let mut remaining = 6.0;
        let mut out = Vec::new();
        for step in 0..400 {
            let at = format!("seed {seed}, step {step}");
            match rng.gen_range(0..9) {
                0..=2 => {
                    let task = rng.gen_range(0..num_tasks);
                    let heartbeat = random_heartbeat(&mut rng);
                    heap.record(task, heartbeat);
                    scan.record(task, heartbeat);
                }
                3 => {
                    let task = rng.gen_range(0..num_tasks);
                    heap.invalidate(task);
                    scan.invalidate(task);
                }
                4 => {
                    heap.expire_unaffordable(remaining, &mut out);
                    assert_eq!(out, scan.expire_unaffordable(remaining), "{at}");
                }
                5 => {
                    heap.pending(&mut out);
                    assert_eq!(out, scan.pending(), "{at}");
                }
                6 => {
                    // A grant: select, invalidate the winner, take its losers.
                    let selected = heap.select(remaining);
                    assert_eq!(selected, scan.select(remaining), "{at}");
                    if let Some((task, c, worker)) = selected {
                        heap.invalidate(task);
                        scan.invalidate(task);
                        heap.take_losers(c.slot, worker, &mut out);
                        assert_eq!(out, scan.take_losers(c.slot, worker), "{at}");
                        remaining -= c.cost;
                    }
                }
                7 => {
                    let (slot, worker) = (rng.gen_range(0..3), WorkerId(rng.gen_range(0..3)));
                    heap.take_losers(slot, worker, &mut out);
                    assert_eq!(out, scan.take_losers(slot, worker), "{at}");
                }
                _ => {
                    remaining -= 0.25 * f64::from(rng.gen_range(0..3u32));
                    assert_eq!(heap.select(remaining), scan.select(remaining), "{at}");
                }
            }
        }
    }

    #[test]
    fn the_heaps_answer_exactly_as_the_linear_scan() {
        for seed in 0..300 {
            run_tape(seed);
        }
    }
}
