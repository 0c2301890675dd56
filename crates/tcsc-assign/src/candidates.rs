//! Candidate assignments ("worker cost retrieval") and worker occupancy
//! bookkeeping.
//!
//! For every slot of a task the assignment algorithms need to know which
//! worker would serve it and at what cost.  Under travel-distance costs the
//! nearest available worker is the cheapest choice (Section II-A of the
//! paper); in multi-task settings a worker already occupied at a time slot
//! forces the task to fall back to its 2nd, 3rd, ... nearest worker
//! (Section IV-A), which is what the [`WorkerLedger`] tracks.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use tcsc_core::{CandidateAssignment, CostModel, IdHasher, SlotIndex, Task, WorkerId, WorkerSet};
use tcsc_index::{NearestWorker, SpatialQuery};

/// The per-slot candidate assignments of one task.
#[derive(Debug, Default)]
pub struct SlotCandidates {
    /// `candidates[j]` is the currently cheapest feasible assignment for slot
    /// `j`, or `None` when no (unoccupied) worker is available at that slot.
    candidates: Vec<Option<CandidateAssignment>>,
}

/// `clone_from` copies into the buffer it already holds.
impl Clone for SlotCandidates {
    fn clone(&self) -> Self {
        Self {
            candidates: self.candidates.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.candidates.clone_from(&source.candidates);
    }
}

impl SlotCandidates {
    /// Computes the candidates of `task` against the worker index: the
    /// nearest available worker of every slot.  (Any [`SpatialQuery`]
    /// implementation works — the dense and the sharded index answer
    /// bit-identically.)
    pub fn compute(task: &Task, index: &dyn SpatialQuery, cost_model: &dyn CostModel) -> Self {
        let mut candidates = Self::default();
        candidates.fill(task, index, cost_model, &WorkerLedger::new());
        candidates
    }

    /// The candidates of `task`, skipping workers that `ledger` marks as
    /// occupied at the corresponding slot, into the buffer this set already
    /// holds, replacing whatever it held.
    pub(crate) fn fill(
        &mut self,
        task: &Task,
        index: &dyn SpatialQuery,
        cost_model: &dyn CostModel,
        ledger: &WorkerLedger,
    ) {
        self.fill_with(task.num_slots, |slot| {
            candidate_for_slot(task, slot, index, cost_model, ledger)
        });
    }

    /// Replaces whatever this set held with `num_slots` candidates, slot
    /// `j`'s from `candidate(j)`, into the buffer it already holds.
    pub(crate) fn fill_with(
        &mut self,
        num_slots: usize,
        candidate: impl FnMut(SlotIndex) -> Option<CandidateAssignment>,
    ) {
        self.candidates.clear();
        self.candidates.extend((0..num_slots).map(candidate));
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The candidate of a slot.
    pub fn get(&self, slot: SlotIndex) -> Option<&CandidateAssignment> {
        self.candidates.get(slot).and_then(|c| c.as_ref())
    }

    /// The cost of a slot's candidate.
    pub fn cost(&self, slot: SlotIndex) -> Option<f64> {
        self.get(slot).map(|c| c.cost)
    }

    /// Costs of every slot, in slot order (the format consumed by the
    /// `VTree`).
    pub fn costs(&self) -> Vec<Option<f64>> {
        self.candidates
            .iter()
            .map(|c| c.as_ref().map(|c| c.cost))
            .collect()
    }

    /// Replaces the candidate for a slot (used after conflicts).
    pub fn set(&mut self, slot: SlotIndex, candidate: Option<CandidateAssignment>) {
        self.candidates[slot] = candidate;
    }

    /// Recomputes the candidate of a single slot against the ledger.
    pub fn refresh_slot(
        &mut self,
        task: &Task,
        slot: SlotIndex,
        index: &dyn SpatialQuery,
        cost_model: &dyn CostModel,
        ledger: &WorkerLedger,
    ) {
        self.candidates[slot] = candidate_for_slot(task, slot, index, cost_model, ledger);
    }

    /// Number of slots that currently have a feasible candidate.
    pub fn available(&self) -> usize {
        self.candidates.iter().filter(|c| c.is_some()).count()
    }
}

pub(crate) fn candidate_for_slot(
    task: &Task,
    slot: SlotIndex,
    index: &dyn SpatialQuery,
    cost_model: &dyn CostModel,
    ledger: &WorkerLedger,
) -> Option<CandidateAssignment> {
    // The ledger hands its per-slot occupancy set to the index directly; no
    // per-query exclusion vector is built and no pseudo-worker is constructed.
    let nearest = match ledger.occupied_set_at(slot) {
        Some(excluded) => index.nearest_excluding_set(slot, &task.location, excluded)?,
        None => index.nearest(slot, &task.location)?,
    };
    Some(priced(task, slot, nearest, cost_model))
}

/// The candidate assignment of `nearest` to a task's slot.  The cost model
/// may weight the distance (or price the worker), so the cost is rebuilt
/// through it rather than taken from the index's distance.
pub(crate) fn priced(
    task: &Task,
    slot: SlotIndex,
    nearest: NearestWorker,
    cost_model: &dyn CostModel,
) -> CandidateAssignment {
    let cost = cost_model.assignment_cost_at(&task.subtask(slot), nearest.worker, nearest.location);
    CandidateAssignment {
        slot,
        worker: nearest.worker,
        worker_location: nearest.location,
        cost,
        reliability: nearest.reliability,
    }
}

/// Tracks which workers are already committed at which time slots across a
/// multi-task assignment, so that two tasks never use the same worker during
/// the same slot.
///
/// The occupancy is stored per slot (`slot -> WorkerSet`), both levels
/// hashed with [`IdHasher`]: a slot's exclusion set is found with one
/// multiply instead of scanning every commitment of the whole run, and a
/// membership probe costs expected `O(1)` however full the slot is.  The
/// hash order never leaks: every enumeration the ledger hands out
/// ([`WorkerLedger::occupied_at`], [`WorkerLedger::commitments`]) is sorted.
#[derive(Debug, Clone, Default)]
pub struct WorkerLedger {
    occupied: HashMap<SlotIndex, WorkerSet, BuildHasherDefault<IdHasher>>,
    commitments: usize,
}

impl WorkerLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks a worker as occupied during a slot.  Returns `false` when the
    /// worker was already occupied at that slot (a conflict).
    pub fn occupy(&mut self, slot: SlotIndex, worker: WorkerId) -> bool {
        let inserted = self.occupied.entry(slot).or_default().insert(worker);
        if inserted {
            self.commitments += 1;
        }
        inserted
    }

    /// Whether a worker is occupied during a slot.
    pub fn is_occupied(&self, slot: SlotIndex, worker: WorkerId) -> bool {
        self.occupied
            .get(&slot)
            .is_some_and(|set| set.contains(&worker))
    }

    /// The workers occupied during a slot, in ascending id order.
    pub fn occupied_at(&self, slot: SlotIndex) -> Vec<WorkerId> {
        let mut out: Vec<WorkerId> = self
            .occupied
            .get(&slot)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default();
        out.sort_unstable();
        out
    }

    /// The slot's occupancy set, or `None` when nothing is occupied at the
    /// slot.  This is the allocation-free fast path consumed by
    /// [`SpatialQuery::nearest_excluding_set`]; its iteration order is the
    /// hash table's, so use [`WorkerLedger::occupied_at`] to enumerate.
    pub fn occupied_set_at(&self, slot: SlotIndex) -> Option<&WorkerSet> {
        self.occupied.get(&slot).filter(|set| !set.is_empty())
    }

    /// Releases one commitment (a released plan, or a worker that moved
    /// out of its shard or left the pool).
    /// Returns `false` when the worker was not occupied at the slot.
    pub fn release(&mut self, slot: SlotIndex, worker: WorkerId) -> bool {
        let removed = self
            .occupied
            .get_mut(&slot)
            .is_some_and(|set| set.remove(&worker));
        if removed {
            self.commitments -= 1;
        }
        removed
    }

    /// Every `(slot, worker)` commitment, in ascending `(slot, worker)`
    /// order (the deterministic enumeration used when a ledger is re-routed
    /// after an index swap).
    pub fn commitments(&self) -> Vec<(SlotIndex, WorkerId)> {
        let mut out: Vec<(SlotIndex, WorkerId)> = self
            .occupied
            .iter()
            .flat_map(|(slot, set)| set.iter().map(move |w| (*slot, *w)))
            .collect();
        out.sort_unstable();
        out
    }

    /// Total number of (slot, worker) commitments.
    pub fn len(&self) -> usize {
        self.commitments
    }

    /// Whether nothing is occupied.
    pub fn is_empty(&self) -> bool {
        self.commitments == 0
    }

    /// Releases every commitment, returning the ledger to its empty state
    /// (what the engine's `release_all` does between re-planning rounds).
    /// The per-slot sets are emptied in place, so the next round re-uses
    /// their tables; an emptied set reads as no set at all
    /// ([`WorkerLedger::occupied_set_at`]).
    pub fn clear(&mut self) {
        for set in self.occupied.values_mut() {
            set.clear();
        }
        self.commitments = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use tcsc_core::{Domain, EuclideanCost, Location, TaskId, Worker, WorkerPool, WorkerSlot};
    use tcsc_index::WorkerIndex;

    fn setup() -> (Task, WorkerIndex, EuclideanCost) {
        let task = Task::new(TaskId(0), Location::new(0.0, 0.0), 4);
        let workers: WorkerPool = vec![
            Worker::new(
                WorkerId(0),
                vec![
                    WorkerSlot {
                        slot: 0,
                        location: Location::new(1.0, 0.0),
                    },
                    WorkerSlot {
                        slot: 1,
                        location: Location::new(2.0, 0.0),
                    },
                ],
            ),
            Worker::new(
                WorkerId(1),
                vec![
                    WorkerSlot {
                        slot: 0,
                        location: Location::new(3.0, 0.0),
                    },
                    WorkerSlot {
                        slot: 2,
                        location: Location::new(4.0, 0.0),
                    },
                ],
            ),
        ]
        .into_iter()
        .collect();
        let index = WorkerIndex::build(&workers, 4, &Domain::square(10.0));
        (task, index, EuclideanCost::default())
    }

    #[test]
    fn candidates_pick_the_nearest_worker_per_slot() {
        let (task, index, cost) = setup();
        let candidates = SlotCandidates::compute(&task, &index, &cost);
        assert_eq!(candidates.len(), 4);
        assert_eq!(candidates.get(0).unwrap().worker, WorkerId(0));
        assert!((candidates.cost(0).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(candidates.get(1).unwrap().worker, WorkerId(0));
        assert_eq!(candidates.get(2).unwrap().worker, WorkerId(1));
        assert!(
            candidates.get(3).is_none(),
            "slot 3 has no available worker"
        );
        assert_eq!(candidates.available(), 3);
    }

    #[test]
    fn ledger_forces_fallback_to_second_nearest() {
        let (task, index, cost) = setup();
        let mut ledger = WorkerLedger::new();
        assert!(ledger.occupy(0, WorkerId(0)));
        assert!(
            !ledger.occupy(0, WorkerId(0)),
            "double occupancy is a conflict"
        );
        let mut candidates = SlotCandidates::default();
        candidates.fill(&task, &index, &cost, &ledger);
        assert_eq!(candidates.get(0).unwrap().worker, WorkerId(1));
        assert!((candidates.cost(0).unwrap() - 3.0).abs() < 1e-12);
        // Slot 1 is unaffected: worker 0 is only occupied at slot 0.
        assert_eq!(candidates.get(1).unwrap().worker, WorkerId(0));
    }

    #[test]
    fn refresh_slot_updates_a_single_entry() {
        let (task, index, cost) = setup();
        let mut candidates = SlotCandidates::compute(&task, &index, &cost);
        let mut ledger = WorkerLedger::new();
        ledger.occupy(0, WorkerId(0));
        candidates.refresh_slot(&task, 0, &index, &cost, &ledger);
        assert_eq!(candidates.get(0).unwrap().worker, WorkerId(1));
        assert_eq!(candidates.get(1).unwrap().worker, WorkerId(0));
    }

    #[test]
    fn costs_vector_matches_entries() {
        let (task, index, cost) = setup();
        let candidates = SlotCandidates::compute(&task, &index, &cost);
        let costs = candidates.costs();
        assert_eq!(costs.len(), 4);
        assert!(costs[3].is_none());
        assert!((costs[0].unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_accessors() {
        let mut ledger = WorkerLedger::new();
        assert!(ledger.is_empty());
        ledger.occupy(2, WorkerId(5));
        ledger.occupy(2, WorkerId(3));
        ledger.occupy(1, WorkerId(5));
        assert_eq!(ledger.len(), 3);
        assert!(ledger.is_occupied(2, WorkerId(5)));
        assert!(!ledger.is_occupied(0, WorkerId(5)));
        assert_eq!(ledger.occupied_at(2), vec![WorkerId(3), WorkerId(5)]);
    }

    #[test]
    fn occupied_set_is_none_for_untouched_slots() {
        let mut ledger = WorkerLedger::new();
        assert!(ledger.occupied_set_at(0).is_none());
        ledger.occupy(0, WorkerId(1));
        ledger.occupy(0, WorkerId(4));
        let set = ledger.occupied_set_at(0).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.contains(&WorkerId(4)));
        assert!(ledger.occupied_set_at(1).is_none());
    }

    /// The ledger's former layout, sorted sets in a sorted map, kept as the
    /// reference model of the hashed one.
    type ReferenceLedger = BTreeMap<SlotIndex, BTreeSet<WorkerId>>;

    /// Asserts every read of `ledger` answers as `model`, and that each
    /// enumeration comes out strictly ascending.
    fn assert_agrees(
        ledger: &WorkerLedger,
        model: &ReferenceLedger,
        slots: &[SlotIndex],
        ids: &[WorkerId],
        ctx: &str,
    ) {
        let held: usize = model.values().map(BTreeSet::len).sum();
        assert_eq!(ledger.len(), held, "{ctx}");
        assert_eq!(ledger.is_empty(), held == 0, "{ctx}");
        for &slot in slots {
            let want: Vec<WorkerId> = model
                .get(&slot)
                .map(|set| set.iter().copied().collect())
                .unwrap_or_default();
            let got = ledger.occupied_at(slot);
            assert!(
                got.windows(2).all(|w| w[0] < w[1]),
                "{ctx}: slot {slot} unsorted"
            );
            assert_eq!(got, want, "{ctx}: slot {slot}");
            match ledger.occupied_set_at(slot) {
                None => assert!(want.is_empty(), "{ctx}: slot {slot}"),
                Some(set) => {
                    assert!(
                        !want.is_empty(),
                        "{ctx}: slot {slot} hands out an empty set"
                    );
                    assert_eq!(set.len(), want.len(), "{ctx}: slot {slot}");
                    assert!(want.iter().all(|w| set.contains(w)), "{ctx}: slot {slot}");
                }
            }
            for &worker in ids {
                assert_eq!(
                    ledger.is_occupied(slot, worker),
                    model.get(&slot).is_some_and(|set| set.contains(&worker)),
                    "{ctx}: slot {slot}, {worker:?}"
                );
            }
        }
        let commitments = ledger.commitments();
        assert!(
            commitments.windows(2).all(|c| c[0] < c[1]),
            "{ctx}: commitments unsorted"
        );
        let want: Vec<(SlotIndex, WorkerId)> = model
            .iter()
            .flat_map(|(slot, set)| set.iter().map(move |w| (*slot, *w)))
            .collect();
        assert_eq!(commitments, want, "{ctx}");
    }

    #[test]
    fn the_hashed_ledger_answers_as_the_sorted_reference() {
        // Both ends of the id range, and ids equal in their low 16 bits.
        let ids: Vec<WorkerId> = [0, 1, 2, 0xFFFF, u32::MAX - 1, u32::MAX]
            .into_iter()
            .chain((1..6).flat_map(|high| [high << 16, (high << 16) | 0x2A]))
            .chain([0xFFFF_0000, 0xFFFF_002A])
            .map(WorkerId)
            .collect();
        let slots: Vec<SlotIndex> = vec![0, 1, 2, 3, 5, 8, usize::MAX / 2, usize::MAX];
        for seed in 0..150 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ledger = WorkerLedger::new();
            let mut model = ReferenceLedger::new();
            for step in 0..200 {
                let ctx = format!("seed {seed}, step {step}");
                let slot = slots[rng.gen_range(0..slots.len())];
                let worker = ids[rng.gen_range(0..ids.len())];
                match rng.gen_range(0..100) {
                    0..=54 => assert_eq!(
                        ledger.occupy(slot, worker),
                        model.entry(slot).or_default().insert(worker),
                        "{ctx}: occupy"
                    ),
                    55..=97 => assert_eq!(
                        ledger.release(slot, worker),
                        model.get_mut(&slot).is_some_and(|set| set.remove(&worker)),
                        "{ctx}: release"
                    ),
                    _ => {
                        ledger.clear();
                        model.clear();
                    }
                }
                if step == 100 {
                    // Every tape re-uses a cleared ledger for its second half.
                    ledger.clear();
                    model.clear();
                }
                assert_agrees(&ledger, &model, &slots, &ids, &ctx);
            }
        }
    }

    #[test]
    fn clear_releases_every_commitment() {
        let mut ledger = WorkerLedger::new();
        ledger.occupy(0, WorkerId(1));
        ledger.occupy(3, WorkerId(2));
        assert_eq!(ledger.len(), 2);
        ledger.clear();
        assert!(ledger.is_empty());
        assert!(!ledger.is_occupied(0, WorkerId(1)));
        assert!(
            ledger.occupy(0, WorkerId(1)),
            "cleared slots can be re-used"
        );
    }
}
