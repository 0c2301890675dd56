//! The assignment engine over a sharded worker index.
//!
//! [`ConcurrentAssignmentEngine`] runs the serial greedy of
//! [`super::AssignmentEngine`] on a [`ShardedWorkerIndex`], with occupancy
//! partitioned along the index's spatial tiles: the ledger is a
//! [`ShardedLedger`] — one `RwLock<WorkerLedger>` per tile, where a worker's
//! occupancy at a slot is recorded in the shard owning the worker's
//! *location* during that slot (the same routing function the sharded index
//! uses, so an index probe of tile `t` only ever consults ledger shard `t`).
//!
//! The engine is single-threaded: running checkout and candidate searches on
//! a thread pool was measured slower than one thread on every benchmarked
//! workload.  The `threads` argument of [`ConcurrentAssignmentEngine::new`]
//! is accepted for source compatibility and ignored.  The engine keeps no
//! candidate cache: every solve computes each task's candidates from the
//! index.
//!
//! # Determinism and bit-identity
//!
//! Checkout computes every task's per-slot nearest worker and reconciles it
//! against the sharded ledger, exactly as the serial engine's drain path does
//! against its flat ledger; the commit loops are the shared `engine::commit`
//! loops, fed through a backend that routes occupancy to the owning shard.
//! [`ConcurrentAssignmentEngine::assign_batch_parallel`] is therefore
//! **bit-identical** (plans, conflicts, executions) to
//! [`super::AssignmentEngine::assign_batch`] for every shard grid, and so
//! are the cache counters whenever the serial engine computes every task too
//! (a fresh engine, a drain) — locked in by `tests/concurrent_equivalence.rs`
//! over the seeded `ScenarioConfig` presets.

use std::sync::{RwLock, RwLockReadGuard};

use tcsc_core::{
    CandidateAssignment, CostModel, Location, MultiAssignment, SlotIndex, Task, Worker, WorkerId,
};
use tcsc_index::{IndexMutation, MutableSpatialIndex, ShardedWorkerIndex};
use tcsc_obs::{NoopRecorder, Recorder, Stopwatch};

use crate::candidates::WorkerLedger;
use crate::engine::commit::{mmqm_commit_loop, msqm_commit_loop, CommitBackend};
use crate::engine::{compute_base, CacheStats, ChurnCounters, Objective};
use crate::multi::{MultiOutcome, MultiTaskConfig, TaskState};

/// Worker occupancy partitioned by spatial shard behind per-shard locks.
///
/// A commitment `(slot, worker)` lives in the shard owning the worker's
/// location during that slot — [`ShardedWorkerIndex::spatial_shard_of`] is
/// the routing function, shared with the index itself, so ledger shard `t`
/// holds exactly the occupancy of the workers that index shard `t` stores.
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

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
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

    /// Whether a worker is occupied during a slot within a shard.
    pub fn is_occupied(&self, shard: usize, slot: SlotIndex, worker: WorkerId) -> bool {
        self.shards[shard]
            .read()
            .expect("ledger shard lock poisoned")
            .is_occupied(slot, worker)
    }

    /// Releases one commitment within a shard, returning whether it was held
    /// (the migration path of a cross-tile worker move, and the release path
    /// of a worker going offline).
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

    /// Releases every commitment of every shard.
    pub fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.get_mut().expect("ledger shard lock poisoned").clear();
        }
    }

    /// Read guards over every shard, for a read phase that consults many
    /// shards (checkout, a conflict refresh).
    fn read_all(&self) -> Vec<RwLockReadGuard<'_, WorkerLedger>> {
        self.shards
            .iter()
            .map(|s| s.read().expect("ledger shard lock poisoned"))
            .collect()
    }
}

/// Computes a task's candidate for one slot against the sharded index and
/// the sharded ledger: the nearest worker whose owning shard does not record
/// it as occupied at the slot.  Pure function of `(task, slot, index, ledger
/// state)` — bit-identical to the dense `candidate_for_slot` over the
/// equivalent flat ledger.
fn candidate_for_slot_sharded(
    task: &Task,
    slot: SlotIndex,
    index: &ShardedWorkerIndex,
    cost_model: &dyn CostModel,
    ledger: &[RwLockReadGuard<'_, WorkerLedger>],
) -> Option<CandidateAssignment> {
    let nearest = index.nearest_excluding_with(slot, &task.location, |shard, worker| {
        ledger[shard].is_occupied(slot, worker)
    })?;
    let cost = cost_model.assignment_cost_at(&task.subtask(slot), nearest.worker, nearest.location);
    Some(CandidateAssignment {
        slot,
        worker: nearest.worker,
        worker_location: nearest.location,
        cost,
        reliability: nearest.reliability,
    })
}

/// The sharded-ledger backend of the shared commit loops: occupancy routed to
/// the shard owning the planned worker's location (the same routing function
/// the index uses), conflict refreshes computed against a read snapshot of
/// every shard.
struct ShardedBackend<'a> {
    index: &'a ShardedWorkerIndex,
    cost_model: &'a dyn CostModel,
    ledger: &'a ShardedLedger,
}

impl CommitBackend for ShardedBackend<'_> {
    fn is_occupied(&self, planned: &CandidateAssignment) -> bool {
        let shard = self.index.spatial_shard_of(&planned.worker_location);
        self.ledger.is_occupied(shard, planned.slot, planned.worker)
    }

    fn occupy(&mut self, planned: &CandidateAssignment) {
        let shard = self.index.spatial_shard_of(&planned.worker_location);
        self.ledger.occupy(shard, planned.slot, planned.worker);
    }

    fn refresh_conflict_slot(
        &mut self,
        state: &mut TaskState,
        slot: SlotIndex,
        stats: &mut CacheStats,
    ) {
        let guards = self.ledger.read_all();
        let candidate =
            candidate_for_slot_sharded(&state.task, slot, self.index, self.cost_model, &guards);
        state.set_candidate(slot, candidate);
        stats.count_conflict_refresh();
    }
}

/// Long-lived assignment engine over a sharded index: the serial greedy with
/// occupancy kept in per-shard ledgers.  See the [module docs](self) for the
/// shard routing and the bit-identity argument.
pub struct ConcurrentAssignmentEngine<'a, R: Recorder = NoopRecorder> {
    index: ShardedWorkerIndex,
    cost_model: &'a dyn CostModel,
    config: MultiTaskConfig,
    ledger: ShardedLedger,
    pending: Vec<Task>,
    lifetime_stats: CacheStats,
    churn: ChurnCounters,
    /// Event recorder (statically dispatched; `NoopRecorder` by default
    /// keeps the un-instrumented hot paths free of any recording code).
    obs: R,
}

impl<'a> ConcurrentAssignmentEngine<'a> {
    /// An engine owning a sharded index.  `threads` is ignored: the engine
    /// runs on the calling thread.
    pub fn new(
        index: ShardedWorkerIndex,
        cost_model: &'a dyn CostModel,
        config: MultiTaskConfig,
        _threads: usize,
    ) -> Self {
        let num_shards = index.num_spatial_shards();
        Self {
            index,
            cost_model,
            config,
            ledger: ShardedLedger::new(num_shards),
            pending: Vec::new(),
            lifetime_stats: CacheStats::default(),
            churn: ChurnCounters::default(),
            obs: NoopRecorder,
        }
    }
}

impl<'a, R: Recorder> ConcurrentAssignmentEngine<'a, R> {
    /// Rebinds the engine to a different recorder (typically from the
    /// `NoopRecorder` default to a live `&ObsSession`), carrying over the
    /// ledger and the lifetime counters unchanged.
    pub fn with_recorder<R2: Recorder>(self, obs: R2) -> ConcurrentAssignmentEngine<'a, R2> {
        ConcurrentAssignmentEngine {
            index: self.index,
            cost_model: self.cost_model,
            config: self.config,
            ledger: self.ledger,
            pending: self.pending,
            lifetime_stats: self.lifetime_stats,
            churn: self.churn,
            obs,
        }
    }

    /// The engine's sharded worker index.
    pub fn index(&self) -> &ShardedWorkerIndex {
        &self.index
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MultiTaskConfig {
        &self.config
    }

    /// Overrides the budget used by subsequent solves.
    pub fn set_budget(&mut self, budget: f64) {
        self.config.budget = budget;
    }

    /// The sharded occupancy ledger.
    pub fn ledger(&self) -> &ShardedLedger {
        &self.ledger
    }

    /// Accumulated candidate-computation counters over the engine's lifetime.
    pub fn stats(&self) -> CacheStats {
        self.lifetime_stats
    }

    /// Releases every occupancy commitment.
    pub fn release_all(&mut self) {
        self.ledger.clear();
    }

    /// Inserts a worker into the sharded index (an offline worker coming
    /// online): a tile-local bucket splice.  Rejected and a no-op for a
    /// duplicate id.
    pub fn insert_worker(&mut self, worker: &Worker) -> IndexMutation {
        let mutation = self.index.insert_worker(worker);
        self.note_mutation(&mutation);
        mutation
    }

    /// Removes a worker (going offline): its ledger commitments are released
    /// from the shards owning its in-horizon locations.  Rejected and a no-op
    /// for an unknown id.
    pub fn remove_worker(&mut self, id: WorkerId) -> IndexMutation {
        let profile = self.index.worker_profile(id);
        let mutation = self.index.remove_worker(id);
        if mutation.applied {
            if let Some(profile) = &profile {
                for (slot, loc) in &profile.entries {
                    let shard = self.index.spatial_shard_of(loc);
                    self.ledger.release(shard, *slot, id);
                }
            }
        }
        self.note_mutation(&mutation);
        mutation
    }

    /// Moves a worker: the index splices only the affected tile buckets, and
    /// — unlike the dense engine, whose
    /// ledger is location-blind — any ledger commitment of the worker
    /// **migrates** to the shard owning its new location when the move
    /// crossed a tile, keeping the shard-owns-its-workers'-occupancy routing
    /// invariant intact.  Rejected and a no-op for an unknown id.
    pub fn move_worker(&mut self, id: WorkerId, to: Location) -> IndexMutation {
        let before = self.index.worker_profile(id);
        let mutation = self.index.move_worker(id, to);
        if mutation.applied {
            let after = self
                .index
                .worker_profile(id)
                .expect("a moved worker stays registered");
            let before = before.expect("the move applied, so the worker was registered");
            for ((slot, old_loc), (slot_after, new_loc)) in
                before.entries.iter().zip(&after.entries)
            {
                debug_assert_eq!(slot, slot_after, "a move never changes the slot set");
                let old_shard = self.index.spatial_shard_of(old_loc);
                let new_shard = self.index.spatial_shard_of(new_loc);
                if old_shard != new_shard && self.ledger.release(old_shard, *slot, id) {
                    self.ledger.occupy(new_shard, *slot, id);
                }
            }
        }
        self.note_mutation(&mutation);
        mutation
    }

    /// Notes an applied mutation in the churn counters (the engine has no
    /// candidate cache, so no cached slot is ever discarded).
    fn note_mutation(&mut self, mutation: &IndexMutation) {
        if mutation.applied {
            self.churn.note(mutation, 0);
        }
    }

    /// Swaps in a freshly built sharded index — the rebuild-per-drain
    /// baseline the mutation API above replaces.  Every surviving ledger
    /// commitment is re-routed through the new index's registry: a commitment is kept iff
    /// the new index holds its worker at its slot, and it lands in the shard
    /// owning the worker's (possibly new) location.
    pub fn rebuild_index(&mut self, index: ShardedWorkerIndex) {
        let commitments = self.ledger.commitments();
        self.index = index;
        self.ledger = ShardedLedger::new(self.index.num_spatial_shards());
        for (_, slot, worker) in commitments {
            let Some(profile) = self.index.worker_profile(worker) else {
                continue;
            };
            let Some((_, loc)) = profile.entries.iter().find(|(s, _)| *s == slot) else {
                continue;
            };
            let shard = self.index.spatial_shard_of(loc);
            self.ledger.occupy(shard, slot, worker);
        }
    }

    /// The index-churn counters accumulated since the last drain.
    pub fn churn(&self) -> ChurnCounters {
        self.churn
    }

    /// Queues task arrivals for the next
    /// [`ConcurrentAssignmentEngine::drain_parallel`].
    pub fn submit(&mut self, tasks: impl IntoIterator<Item = Task>) {
        self.pending.extend(tasks);
    }

    /// Number of submitted-but-not-yet-drained tasks.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Solves every pending task as one batch (in submission order) and
    /// commits the occupancy.  A drain commits exactly what
    /// [`super::AssignmentEngine::drain`] commits on the same history, for
    /// any shard grid.
    pub fn drain_parallel(&mut self, objective: Objective) -> MultiOutcome {
        let tasks = std::mem::take(&mut self.pending);
        if R::IS_ENABLED {
            self.obs.begin("cengine.drain", tasks.len() as u64);
        }
        let sw = R::IS_ENABLED.then(Stopwatch::start);
        let outcome = self.solve(&tasks, objective);
        if R::IS_ENABLED {
            if let Some(sw) = sw {
                self.obs.value("cengine.drain_ns", sw.elapsed_nanos());
            }
            self.publish_metrics(&outcome);
            let imbalance = self.index.occupancy_imbalance_milli();
            self.churn.publish_and_reset(&self.obs, imbalance);
            self.obs.end("cengine.drain", tasks.len() as u64);
        } else {
            self.churn = ChurnCounters::default();
        }
        outcome
    }

    /// Publishes a finished drain/batch's counters into the recorder's
    /// metrics registry (cache hit/miss and conflict/execution totals).
    fn publish_metrics(&self, outcome: &MultiOutcome) {
        self.obs
            .counter("cache.hits", outcome.stats.tasks_reused as u64);
        self.obs
            .counter("cache.misses", outcome.stats.tasks_computed as u64);
        self.obs
            .counter("cengine.conflicts", outcome.conflicts as u64);
        self.obs
            .counter("cengine.executions", outcome.executions as u64);
    }

    /// Solves one task batch under the configured budget and objective
    /// against the current ledger, committing the resulting occupancy.
    /// Plans, conflicts and executions are bit-identical to
    /// [`super::AssignmentEngine::assign_batch`] on the same engine history,
    /// for any shard grid.
    pub fn assign_batch_parallel(&mut self, tasks: &[Task], objective: Objective) -> MultiOutcome {
        self.solve(tasks, objective)
    }

    /// Checkout: each task's base candidates computed straight from the
    /// index, then reconciled against the sharded ledger by recomputing
    /// every slot whose base worker is occupied in its owning shard.
    /// Returns the states in batch order.
    fn checkout_states(&self, tasks: &[Task], stats: &mut CacheStats) -> Vec<TaskState> {
        if R::IS_ENABLED {
            // Shard-router accounting: distinct home tiles this batch touched
            // and the tasks routed into them.
            let mut homes: Vec<usize> = tasks
                .iter()
                .map(|task| self.index.spatial_shard_of(&task.location))
                .collect();
            homes.sort_unstable();
            homes.dedup();
            self.obs.counter("router.tile_visits", homes.len() as u64);
            self.obs.counter("router.tasks_routed", tasks.len() as u64);
        }
        let index = &self.index;
        let guards = self.ledger.read_all();
        let ledger_empty = guards.iter().all(|ledger| ledger.is_empty());
        tasks
            .iter()
            .map(|task| {
                let mut working = compute_base(task, index, self.cost_model, stats);
                if !ledger_empty {
                    for slot in 0..working.len() {
                        let occupied = working.get(slot).is_some_and(|c| {
                            let owner = index.spatial_shard_of(&c.worker_location);
                            guards[owner].is_occupied(slot, c.worker)
                        });
                        if occupied {
                            working.set(
                                slot,
                                candidate_for_slot_sharded(
                                    task,
                                    slot,
                                    index,
                                    self.cost_model,
                                    &guards,
                                ),
                            );
                            stats.slot_computations += 1;
                            stats.slot_refreshes += 1;
                        }
                    }
                }
                TaskState::from_candidates(task, working, &self.config)
            })
            .collect()
    }

    /// One batch solve: checkout, then the shared MSQM or MMQM commit loop
    /// over the sharded backend.
    fn solve(&mut self, tasks: &[Task], objective: Objective) -> MultiOutcome {
        let mut stats = CacheStats::default();
        if R::IS_ENABLED {
            self.obs.begin("engine.checkout", tasks.len() as u64);
        }
        let mut states = self.checkout_states(tasks, &mut stats);
        if R::IS_ENABLED {
            self.obs.end("engine.checkout", tasks.len() as u64);
            self.obs.begin("engine.commit", tasks.len() as u64);
        }
        let budget = self.config.budget;
        let mut backend = ShardedBackend {
            index: &self.index,
            cost_model: self.cost_model,
            ledger: &self.ledger,
        };
        let (conflicts, executions) = match objective {
            Objective::SumQuality => {
                msqm_commit_loop(&mut states, budget, &mut backend, &mut stats)
            }
            Objective::MinQuality => {
                mmqm_commit_loop(&mut states, budget, &mut backend, &mut stats)
            }
        };
        if R::IS_ENABLED {
            self.obs.end("engine.commit", tasks.len() as u64);
        }

        let assignment =
            MultiAssignment::new(states.into_iter().map(TaskState::into_plan).collect());
        self.lifetime_stats.merge(&stats);
        MultiOutcome {
            assignment,
            conflicts,
            executions,
            stats,
        }
    }
}

impl<R: Recorder> std::fmt::Debug for ConcurrentAssignmentEngine<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentAssignmentEngine")
            .field("config", &self.config)
            .field("shards", &self.ledger.num_shards())
            .field("ledger_commitments", &self.ledger.len())
            .field("pending", &self.pending.len())
            .field("lifetime_stats", &self.lifetime_stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AssignmentEngine;
    use crate::multi::test_support::small_world;
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
            (92, ShardGridConfig::new(3, 5).with_time_splits(2), 8),
        ] {
            let (tasks, dense, sharded, cost) = build(seed, grid);
            let cfg = MultiTaskConfig::new(45.0);
            for objective in [Objective::SumQuality, Objective::MinQuality] {
                let serial =
                    AssignmentEngine::borrowed(&dense, &cost, cfg).assign_batch(&tasks, objective);
                let mut engine =
                    ConcurrentAssignmentEngine::new(sharded.clone(), &cost, cfg, threads);
                let parallel = engine.assign_batch_parallel(&tasks, objective);
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
            let outcome = engine.assign_batch_parallel(&tasks, Objective::SumQuality);
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
        let round1 = engine.drain_parallel(Objective::SumQuality);
        engine.submit(b.to_vec());
        let round2 = engine.drain_parallel(Objective::SumQuality);
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
            (99, ShardGridConfig::new(2, 4).with_time_splits(2), 2),
        ] {
            let (tasks, dense, sharded, cost) = build(seed, grid);
            let cfg = MultiTaskConfig::new(55.0);
            let mut serial = AssignmentEngine::new(dense, &cost, cfg);
            let mut conc = ConcurrentAssignmentEngine::new(sharded, &cost, cfg, threads);
            let (b1, b2) = tasks.split_at(4);
            let s1 = serial.assign_batch(b1, Objective::SumQuality);
            let c1 = conc.assign_batch_parallel(b1, Objective::SumQuality);
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
            let c2 = conc.assign_batch_parallel(b2, Objective::SumQuality);
            assert_eq!(s2.assignment, c2.assignment, "{grid:?} after mutations");
            assert_eq!(s2.conflicts, c2.conflicts);
            assert_eq!(s2.executions, c2.executions);
        }
    }

    #[test]
    fn worker_mutations_clear_every_shard_cache() {
        let (tasks, _, sharded, cost) = build(101, ShardGridConfig::new(3, 3));
        let cfg = MultiTaskConfig::new(50.0);
        let mut engine = ConcurrentAssignmentEngine::new(sharded, &cost, cfg, 2);
        engine.assign_batch_parallel(&tasks, Objective::SumQuality);

        let to = tcsc_core::Location::new(99.5, 0.5);
        assert!(engine.move_worker(WorkerId(3), to).applied);
        assert_eq!(engine.churn().ops, 1);
        assert_eq!(engine.churn().cache_refreshes, 0, "there is no cache");

        // The next batch recomputes every task and plans exactly what a fresh
        // engine plans on the mutated index under the same ledger history.
        engine.release_all();
        let mut fresh = ConcurrentAssignmentEngine::new(engine.index().clone(), &cost, cfg, 2);
        let replanned = engine.assign_batch_parallel(&tasks, Objective::SumQuality);
        assert_eq!(replanned.stats.tasks_computed, tasks.len());
        assert_eq!(
            replanned,
            fresh.assign_batch_parallel(&tasks, Objective::SumQuality)
        );
    }

    #[test]
    fn cross_tile_move_migrates_ledger_occupancy() {
        let (tasks, _, sharded, cost) = build(100, ShardGridConfig::new(4, 4));
        let mut engine =
            ConcurrentAssignmentEngine::new(sharded, &cost, MultiTaskConfig::new(80.0), 2);
        let outcome = engine.assign_batch_parallel(&tasks, Objective::SumQuality);
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
        let first = engine.assign_batch_parallel(&tasks, Objective::SumQuality);
        assert!(!engine.ledger().is_empty());
        engine.release_all();
        assert!(engine.ledger().is_empty());
        let second = engine.assign_batch_parallel(&tasks, Objective::SumQuality);
        assert_eq!(first.assignment, second.assignment);
        assert_eq!(second.stats.tasks_computed, tasks.len());
    }
}
