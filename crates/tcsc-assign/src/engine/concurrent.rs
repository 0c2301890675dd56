//! The sharded index's occupancy store.
//!
//! [`ShardedLedger`] is the [`Occupancy`] store behind
//! [`super::ConcurrentAssignmentEngine`], the [`super::GreedyEngine`] on a
//! [`ShardedWorkerIndex`].  Occupancy is partitioned along the index's
//! spatial tiles — one `RwLock<WorkerLedger>` per tile — and a worker's
//! commitment at a slot is recorded in the shard owning the worker's
//! *location* during that slot.  The index's filtered search hands its
//! filter the tile of each worker it visits, computed by the same routing
//! function, so each probe consults only the ledger shard that can hold the
//! visited worker's commitment.
//!
//! Everything location-dependent lives in the [`Occupancy`] impl below:
//! routing checks, claims and releases to the owning shard, the
//! shard-filtered nearest-free query (one read lock of the owning shard per
//! occupancy probe, and the search probes only workers that could still
//! win), the migration of a worker's commitments when it moves across a
//! tile, the re-routing after an index swap and the `router.*` counters.
//! The engine itself, its aliases and the sharded `new`/`drain_parallel`
//! live in [`super`].
//!
//! The per-shard locks let [`ShardedLedger::occupy`] and
//! [`ShardedLedger::release`] take `&self`, which callers holding only the
//! engine's [`super::GreedyEngine::ledger`] use to retire plans; the engine
//! itself is single-threaded.
//!
//! # Determinism and bit-identity
//!
//! The sharded index is a view over the dense one, so it gives the same
//! answer to every nearest-worker query, and the shard-filtered query
//! excludes exactly the workers a flat ledger would.  The engine on either
//! index therefore commits the same plans with the same counters on the
//! same history, for every shard grid —
//! locked in by `tests/concurrent_equivalence.rs` over the seeded
//! `ScenarioConfig` presets.

use std::sync::RwLock;

use tcsc_core::{CandidateAssignment, CostModel, Location, SlotIndex, Task, WorkerId};
use tcsc_index::{IndexMutation, MutableSpatialIndex, ShardedWorkerIndex};
use tcsc_obs::Recorder;

use crate::candidates::{priced, WorkerLedger};
use crate::engine::{location_at, Occupancy};

/// Worker occupancy partitioned by spatial shard behind per-shard locks.
///
/// A commitment `(slot, worker)` lives in the shard owning the worker's
/// location during that slot — [`ShardedWorkerIndex::spatial_shard_of`] is
/// the routing function, shared with the index itself, so ledger shard `t`
/// holds exactly the occupancy of the workers located in tile `t`.
#[derive(Debug)]
pub struct ShardedLedger {
    shards: Vec<RwLock<WorkerLedger>>,
}

impl ShardedLedger {
    /// An empty ledger over `num_shards` spatial shards.
    pub fn new(num_shards: usize) -> Self {
        Self {
            shards: (0..num_shards.max(1))
                .map(|_| RwLock::new(WorkerLedger::new()))
                .collect(),
        }
    }

    /// Total number of (slot, worker) commitments across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("ledger shard lock poisoned").len())
            .sum()
    }

    /// Whether nothing is occupied anywhere.
    pub fn is_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.read().expect("ledger shard lock poisoned").is_empty())
    }

    /// Marks a worker as occupied during a slot within a shard.  Returns
    /// `false` when the worker was already occupied there (a conflict).
    pub fn occupy(&self, shard: usize, slot: SlotIndex, worker: WorkerId) -> bool {
        self.shards[shard]
            .write()
            .expect("ledger shard lock poisoned")
            .occupy(slot, worker)
    }

    /// Releases one commitment within a shard, returning whether it was held
    /// (the migration path of a cross-tile worker move, and the release path
    /// of a retired plan or a worker going offline).
    pub fn release(&self, shard: usize, slot: SlotIndex, worker: WorkerId) -> bool {
        self.shards[shard]
            .write()
            .expect("ledger shard lock poisoned")
            .release(slot, worker)
    }

    /// Every `(shard, slot, worker)` commitment, in ascending order — the
    /// deterministic enumeration used when the ledger is re-routed through a
    /// freshly built index.
    pub fn commitments(&self) -> Vec<(usize, SlotIndex, WorkerId)> {
        let mut out = Vec::new();
        for (shard, lock) in self.shards.iter().enumerate() {
            let ledger = lock.read().expect("ledger shard lock poisoned");
            for (slot, worker) in ledger.commitments() {
                out.push((shard, slot, worker));
            }
        }
        out
    }
}

/// Every commitment is routed to the shard owning its worker's location.
impl Occupancy<ShardedWorkerIndex> for ShardedLedger {
    fn empty_for(index: &ShardedWorkerIndex) -> Self {
        ShardedLedger::new(index.num_spatial_shards())
    }

    fn held(&self) -> usize {
        self.len()
    }

    fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.get_mut().expect("ledger shard lock poisoned").clear();
        }
    }

    fn is_taken(&self, index: &ShardedWorkerIndex, candidate: &CandidateAssignment) -> bool {
        let shard = index.spatial_shard_of(&candidate.worker_location);
        self.shards[shard]
            .read()
            .expect("ledger shard lock poisoned")
            .is_occupied(candidate.slot, candidate.worker)
    }

    fn take(&mut self, index: &ShardedWorkerIndex, candidate: &CandidateAssignment) {
        let shard = index.spatial_shard_of(&candidate.worker_location);
        self.occupy(shard, candidate.slot, candidate.worker);
    }

    fn release(&mut self, index: &ShardedWorkerIndex, slot: SlotIndex, worker: WorkerId) -> bool {
        location_at(index, worker, slot).is_some_and(|at| {
            ShardedLedger::release(self, index.spatial_shard_of(&at), slot, worker)
        })
    }

    fn nearest_free(
        &self,
        index: &ShardedWorkerIndex,
        task: &Task,
        slot: SlotIndex,
        cost_model: &dyn CostModel,
    ) -> Option<CandidateAssignment> {
        // Each probe read-locks the one shard that can hold the worker's
        // commitment.  The engine is single-threaded, so every probe of a
        // query sees the same ledger state.
        let nearest = index.nearest_excluding_with(slot, &task.location, |shard, worker| {
            self.shards[shard]
                .read()
                .expect("ledger shard lock poisoned")
                .is_occupied(slot, worker)
        })?;
        Some(priced(task, slot, nearest, cost_model))
    }

    /// The index edits only the grid cells the worker leaves and enters, and
    /// any commitment of the worker **migrates** to the shard owning its new
    /// location when the move crossed a tile, keeping the
    /// shard-owns-its-workers'-occupancy routing invariant intact.
    fn relocate(
        &mut self,
        index: &mut ShardedWorkerIndex,
        id: WorkerId,
        to: Location,
    ) -> IndexMutation {
        let before = index.worker_profile(id);
        let mutation = index.move_worker(id, to);
        if mutation.applied {
            let after = index
                .worker_profile(id)
                .expect("a moved worker stays registered");
            let before = before.expect("the move applied, so the worker was registered");
            for ((slot, old_loc), (slot_after, new_loc)) in
                before.entries.iter().zip(&after.entries)
            {
                debug_assert_eq!(slot, slot_after, "a move never changes the slot set");
                let old_shard = index.spatial_shard_of(old_loc);
                let new_shard = index.spatial_shard_of(new_loc);
                if old_shard != new_shard && ShardedLedger::release(self, old_shard, *slot, id) {
                    self.occupy(new_shard, *slot, id);
                }
            }
        }
        mutation
    }

    /// The new index may have a different tile grid, so the ledger is laid
    /// out afresh and every surviving commitment lands in the shard owning
    /// its worker's (possibly new) location.
    fn reroute(&mut self, index: &ShardedWorkerIndex) {
        let commitments = self.commitments();
        *self = Self::empty_for(index);
        for (_, slot, worker) in commitments {
            if let Some(at) = location_at(index, worker, slot) {
                self.occupy(index.spatial_shard_of(&at), slot, worker);
            }
        }
    }

    /// `router.tile_visits` counts the distinct home tiles of the batch,
    /// `router.tasks_routed` the tasks routed into them.
    fn count_routing(&self, index: &ShardedWorkerIndex, tasks: &[Task], obs: &impl Recorder) {
        let mut homes: Vec<usize> = tasks
            .iter()
            .map(|task| index.spatial_shard_of(&task.location))
            .collect();
        homes.sort_unstable();
        homes.dedup();
        obs.counter("router.tile_visits", homes.len() as u64);
        obs.counter("router.tasks_routed", tasks.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AssignmentEngine, ConcurrentAssignmentEngine, Objective};
    use crate::multi::test_support::small_world;
    use crate::multi::{MultiOutcome, MultiTaskConfig};
    use tcsc_core::EuclideanCost;
    use tcsc_index::{ShardGridConfig, WorkerIndex};

    fn build(
        seed: u64,
        grid: ShardGridConfig,
    ) -> (
        Vec<tcsc_core::Task>,
        WorkerIndex,
        ShardedWorkerIndex,
        EuclideanCost,
    ) {
        let (tasks, workers, domain) = small_world(seed, 8, 20, 120);
        let dense = WorkerIndex::build(&workers, 20, &domain);
        let sharded = ShardedWorkerIndex::build(&workers, 20, &domain, grid);
        (tasks, dense, sharded, EuclideanCost::default())
    }

    #[test]
    fn matches_the_serial_engine_bit_for_bit() {
        for (seed, grid, threads) in [
            (90, ShardGridConfig::new(1, 1), 1),
            (91, ShardGridConfig::new(4, 4), 4),
            (92, ShardGridConfig::new(3, 5), 8),
        ] {
            let (tasks, dense, sharded, cost) = build(seed, grid);
            let cfg = MultiTaskConfig::new(45.0);
            for objective in [Objective::SumQuality, Objective::MinQuality] {
                let serial =
                    AssignmentEngine::borrowed(&dense, &cost, cfg).assign_batch(&tasks, objective);
                let mut engine =
                    ConcurrentAssignmentEngine::new(sharded.clone(), &cost, cfg, threads);
                let parallel = engine.assign_batch(&tasks, objective);
                assert_eq!(serial.assignment, parallel.assignment, "{grid:?}");
                assert_eq!(serial.conflicts, parallel.conflicts);
                assert_eq!(serial.executions, parallel.executions);
                assert_eq!(serial.stats, parallel.stats);
                assert_eq!(engine.ledger().len(), parallel.executions);
            }
        }
    }

    #[test]
    fn thread_count_never_changes_the_outcome() {
        let (tasks, _, sharded, cost) = build(93, ShardGridConfig::new(4, 4));
        let cfg = MultiTaskConfig::new(60.0);
        let mut reference: Option<MultiOutcome> = None;
        for threads in [1, 2, 4, 16] {
            let mut engine = ConcurrentAssignmentEngine::new(sharded.clone(), &cost, cfg, threads);
            let outcome = engine.assign_batch(&tasks, Objective::SumQuality);
            match &reference {
                None => reference = Some(outcome),
                Some(r) => assert_eq!(r, &outcome, "threads={threads}"),
            }
        }
    }

    #[test]
    fn drains_persist_occupancy_and_evict_arrivals() {
        let (tasks, _, sharded, cost) = build(94, ShardGridConfig::new(2, 2));
        let mut engine =
            ConcurrentAssignmentEngine::new(sharded, &cost, MultiTaskConfig::new(100.0), 4);
        let (a, b) = tasks.split_at(4);
        engine.submit(a.to_vec());
        let round1 = engine.drain(Objective::SumQuality);
        engine.submit(b.to_vec());
        let round2 = engine.drain(Objective::SumQuality);
        assert_eq!(engine.pending(), 0);
        let mut seen = std::collections::HashSet::new();
        for plan in round1
            .assignment
            .plans
            .iter()
            .chain(&round2.assignment.plans)
        {
            for exec in &plan.executions {
                assert!(
                    seen.insert((exec.slot, exec.worker)),
                    "worker {:?} double-booked at slot {} across rounds",
                    exec.worker,
                    exec.slot
                );
            }
        }
        assert_eq!(engine.ledger().len(), round1.executions + round2.executions);
    }

    #[test]
    fn mutations_keep_matching_the_serial_engine() {
        use tcsc_core::{Location, Worker, WorkerSlot};
        for (seed, grid, threads) in [
            (98u64, ShardGridConfig::new(3, 3), 4),
            (99, ShardGridConfig::new(2, 4), 2),
        ] {
            let (tasks, dense, sharded, cost) = build(seed, grid);
            let cfg = MultiTaskConfig::new(55.0);
            let mut serial = AssignmentEngine::new(dense, &cost, cfg);
            let mut conc = ConcurrentAssignmentEngine::new(sharded, &cost, cfg, threads);
            let (b1, b2) = tasks.split_at(4);
            let s1 = serial.assign_batch(b1, Objective::SumQuality);
            let c1 = conc.assign_batch(b1, Objective::SumQuality);
            assert_eq!(s1.assignment, c1.assignment, "{grid:?}");

            // The same mutation tape on both engines: a fresh worker comes
            // online, a committed worker crosses the domain (ledger
            // migration on the sharded side), one goes offline.
            let fresh = Worker::new(
                WorkerId(9000),
                (0..20)
                    .map(|slot| WorkerSlot {
                        slot,
                        location: Location::new(52.0, 48.0),
                    })
                    .collect(),
            );
            let committed = s1
                .assignment
                .plans
                .iter()
                .flat_map(|p| &p.executions)
                .next()
                .expect("batch 1 committed something")
                .worker;
            for (ms, mc) in [
                (serial.insert_worker(&fresh), conc.insert_worker(&fresh)),
                (
                    serial.move_worker(committed, Location::new(97.0, 3.0)),
                    conc.move_worker(committed, Location::new(97.0, 3.0)),
                ),
                (
                    serial.remove_worker(WorkerId(17)),
                    conc.remove_worker(WorkerId(17)),
                ),
                (
                    serial.move_worker(WorkerId(5), Location::new(-10.0, 120.0)),
                    conc.move_worker(WorkerId(5), Location::new(-10.0, 120.0)),
                ),
            ] {
                assert!(ms.applied && mc.applied);
                assert_eq!(ms.applied, mc.applied);
            }
            assert_eq!(
                serial.ledger().len(),
                conc.ledger().len(),
                "dense and sharded ledgers must hold the same commitments"
            );

            let s2 = serial.assign_batch(b2, Objective::SumQuality);
            let c2 = conc.assign_batch(b2, Objective::SumQuality);
            assert_eq!(s2.assignment, c2.assignment, "{grid:?} after mutations");
            assert_eq!(s2.conflicts, c2.conflicts);
            assert_eq!(s2.executions, c2.executions);
        }
    }

    #[test]
    fn worker_mutations_clear_every_shard_cache() {
        let (tasks, dense, sharded, cost) = build(101, ShardGridConfig::new(3, 3));
        let cfg = MultiTaskConfig::new(50.0);
        let mut engine = ConcurrentAssignmentEngine::new(sharded, &cost, cfg, 2);
        let mut serial = AssignmentEngine::new(dense, &cost, cfg);
        engine.assign_batch(&tasks, Objective::SumQuality);
        serial.assign_batch(&tasks, Objective::SumQuality);

        let to = tcsc_core::Location::new(99.5, 0.5);
        assert!(engine.move_worker(WorkerId(3), to).applied);
        assert!(serial.move_worker(WorkerId(3), to).applied);
        assert_eq!(engine.churn().ops, 1);
        assert_eq!(engine.cache().len(), 0);
        assert_eq!(
            engine.churn().cache_refreshes,
            serial.churn().cache_refreshes,
            "the move discards the same cached slots on both indexes"
        );

        // The next batch recomputes every task and plans exactly what a fresh
        // engine plans on the mutated index under the same ledger history.
        engine.release_all();
        let mut fresh = ConcurrentAssignmentEngine::new(engine.index().clone(), &cost, cfg, 2);
        let replanned = engine.assign_batch(&tasks, Objective::SumQuality);
        assert_eq!(replanned.stats.tasks_computed, tasks.len());
        assert_eq!(replanned, fresh.assign_batch(&tasks, Objective::SumQuality));
    }

    #[test]
    fn cross_tile_move_migrates_ledger_occupancy() {
        let (tasks, _, sharded, cost) = build(100, ShardGridConfig::new(4, 4));
        let mut engine =
            ConcurrentAssignmentEngine::new(sharded, &cost, MultiTaskConfig::new(80.0), 2);
        let outcome = engine.assign_batch(&tasks, Objective::SumQuality);
        let exec = *outcome
            .assignment
            .plans
            .iter()
            .flat_map(|p| &p.executions)
            .next()
            .expect("at least one execution");
        let before = engine.ledger().commitments();
        // Push the worker into the far corner: every one of its commitments
        // must land in the shard owning its new location.
        let to = tcsc_core::Location::new(99.5, 99.5);
        assert!(engine.move_worker(exec.worker, to).applied);
        let target = engine.index().spatial_shard_of(&to);
        let after = engine.ledger().commitments();
        assert_eq!(before.len(), after.len(), "migration never loses entries");
        for (shard, _, worker) in &after {
            if *worker == exec.worker {
                assert_eq!(*shard, target, "occupancy must follow the move");
            }
        }
        // And removal drops them entirely.
        assert!(engine.remove_worker(exec.worker).applied);
        assert!(engine
            .ledger()
            .commitments()
            .iter()
            .all(|(_, _, w)| *w != exec.worker));
    }

    #[test]
    fn release_all_frees_every_shard() {
        let (tasks, _, sharded, cost) = build(95, ShardGridConfig::new(3, 3));
        let mut engine =
            ConcurrentAssignmentEngine::new(sharded, &cost, MultiTaskConfig::new(30.0), 2);
        let first = engine.assign_batch(&tasks, Objective::SumQuality);
        assert!(!engine.ledger().is_empty());
        engine.release_all();
        assert!(engine.ledger().is_empty());
        let second = engine.assign_batch(&tasks, Objective::SumQuality);
        assert_eq!(first.assignment, second.assignment);
        assert_eq!(second.stats.tasks_reused, tasks.len());
    }
}
