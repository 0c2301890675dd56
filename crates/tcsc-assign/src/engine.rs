//! The batched / streaming multi-task assignment engine.
//!
//! The per-call solvers of [`crate::multi`] rebuild every piece of per-task
//! candidate state from scratch on each invocation: `TaskState::new` runs one
//! index query per slot, and nothing survives between calls even when the
//! same tasks are solved again (budget sweeps, objective comparisons,
//! re-planning).  [`AssignmentEngine`] is the long-lived alternative: it owns
//! (or borrows) the [`WorkerIndex`], a persistent occupancy
//! [`WorkerLedger`], and an incremental [`CandidateCache`] keyed by task, so
//! that repeated and streaming solves amortise the worker-cost-retrieval work
//! across calls.
//!
//! # Cache invalidation protocol
//!
//! * The cache stores, per task, the *base* per-slot candidates — the nearest
//!   worker per slot under an **empty** ledger.  The base depends only on the
//!   index, and the index only changes through the engine's own mutation API
//!   ([`AssignmentEngine::insert_worker`] / [`AssignmentEngine::remove_worker`]
//!   / [`AssignmentEngine::move_worker`]), which invalidates exactly the
//!   affected cached slots through a persistent **worker → holder-tasks map**
//!   — so the base is always exact with respect to the current index.
//! * At checkout the base is cloned and reconciled with the engine's current
//!   ledger: only slots whose base candidate is occupied are recomputed
//!   (invalidation-driven refresh); every other slot is served without
//!   touching the index.
//! * During a solve, a **reverse holder map** `(slot, worker) -> tasks whose
//!   best pending candidate targets that worker` is maintained.  Occupying a
//!   worker then refreshes exactly the affected tasks' slots instead of
//!   re-scanning (or worse, recomputing) every task.
//!
//! # Determinism
//!
//! The engine's greedy loops are ports of the serial solvers with the holder
//! map replacing the serial `O(|T|)` invalidation scan.  A task is in the
//! holder set of `(slot, worker)` if and only if its cached best candidate
//! targets `(slot, worker)` — exactly the predicate of the serial scan — so
//! the engine performs the *same* candidate refreshes, counts the *same*
//! conflicts and executes the *same* subtasks in the same order.  On a fresh
//! engine, [`AssignmentEngine::assign_batch`] is bit-identical to
//! [`crate::multi::rebuild::msqm_rebuild`] / [`crate::multi::rebuild::mmqm_rebuild`]
//! (the pre-engine solvers, kept as the rebuild-per-call baseline); the
//! equivalence is locked in by `tests/engine_equivalence.rs`.

pub(crate) mod commit;
pub mod concurrent;

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

use tcsc_core::{
    CostModel, Domain, ExecutedSubtask, InterpolationWeights, Location, MultiAssignment,
    QualityParams, SpatioTemporalEvaluator, Task, TaskId, Worker, WorkerId,
};
use tcsc_index::{IndexMutation, MutableSpatialIndex, SpatialQuery, WorkerIndex, WorkerProfile};
use tcsc_obs::{NoopRecorder, Recorder, Stopwatch};

use crate::candidates::{SlotCandidates, WorkerLedger};
use crate::engine::commit::{inline_wave, msqm_commit_loop, DenseBackend};
use crate::multi::sapprox::SpatioTemporalObjective;
use crate::multi::{MultiOutcome, MultiTaskConfig, TaskState};
pub use crate::multi::{RefreshStats, RefreshStrategy};

/// Which aggregate objective a batch solve maximises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Maximise the summation quality `q_sum` (MSQM, Problem 2).
    SumQuality,
    /// Maximise the minimum quality `q_min` (MMQM, Problem 3).
    MinQuality,
}

/// Candidate-computation counters of one solve (and, accumulated, of an
/// engine's lifetime).
///
/// `slot_computations` counts actual index-backed candidate computations
/// (initial builds plus refreshes); `rebuild_slot_computations` counts what a
/// rebuild-per-call strategy — recomputing every task's candidates from
/// scratch, as the pre-engine solvers do — would have performed for the same
/// work.  The difference is the engine's saving.
///
/// The refresh-accounting block (`full_refreshes`, `incremental_patches`,
/// `stale_pops`, `refresh_nanos`) measures the *commit-tail* best-candidate
/// work of the run — the cost the [`RefreshStrategy::Incremental`] gain
/// ledger attacks.  Those four fields are **measurement, not behaviour**:
/// different drivers of the same plan (engine greedy vs task-parallel master
/// vs simulated cluster) legitimately issue different best-candidate request
/// sequences, so the refresh block is excluded from `PartialEq` and from
/// every bit-identity contract.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Tasks whose candidates were computed from scratch (cache misses).
    pub tasks_computed: usize,
    /// Tasks whose candidates were served from the cache (cache hits).
    pub tasks_reused: usize,
    /// Per-slot candidate computations actually performed against the index.
    pub slot_computations: usize,
    /// Subset of `slot_computations` that were occupancy-driven refreshes
    /// (checkout reconciliation and in-run worker conflicts).
    pub slot_refreshes: usize,
    /// Per-slot computations a rebuild-per-call strategy would have performed
    /// for the same solves.
    pub rebuild_slot_computations: usize,
    /// Full best-candidate searches beyond each task's warm start (the
    /// commit-tail recomputes; `0` in steady state on the incremental path).
    pub full_refreshes: usize,
    /// Gain-ledger entries patched (re-keyed) after candidate refreshes.
    pub incremental_patches: usize,
    /// Stale gain-ledger entries re-scored on pop (the lazy-greedy work).
    pub stale_pops: usize,
    /// Per-task best-candidate re-scores the MSQM commit loop issued beyond
    /// the warm start: after every grant, the winner and each loser whose
    /// planned worker was taken are re-scored, as are the tasks whose cached
    /// candidate the shrinking budget made unaffordable.  Like the rest of
    /// the refresh block this is measurement, not behaviour (excluded from
    /// `PartialEq`).
    pub commit_rescores: usize,
    /// Nanoseconds spent in commit-tail refresh work (searches beyond the
    /// warm start, ledger pops and patches).
    pub refresh_nanos: u64,
}

/// Equality covers the candidate-computation counters only; the refresh
/// accounting is a per-driver measurement (see the struct docs).
impl PartialEq for CacheStats {
    fn eq(&self, other: &Self) -> bool {
        self.tasks_computed == other.tasks_computed
            && self.tasks_reused == other.tasks_reused
            && self.slot_computations == other.slot_computations
            && self.slot_refreshes == other.slot_refreshes
            && self.rebuild_slot_computations == other.rebuild_slot_computations
    }
}
impl Eq for CacheStats {}

impl CacheStats {
    /// Accumulates another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.tasks_computed += other.tasks_computed;
        self.tasks_reused += other.tasks_reused;
        self.slot_computations += other.slot_computations;
        self.slot_refreshes += other.slot_refreshes;
        self.rebuild_slot_computations += other.rebuild_slot_computations;
        self.full_refreshes += other.full_refreshes;
        self.incremental_patches += other.incremental_patches;
        self.stale_pops += other.stale_pops;
        self.commit_rescores += other.commit_rescores;
        self.refresh_nanos += other.refresh_nanos;
    }

    /// Counts one conflict-driven slot refresh (a real index-backed
    /// recompute that the rebuild baseline would also have performed) — the
    /// single site of this accounting convention, shared by every commit
    /// backend and the rebuild solvers.
    pub(crate) fn count_conflict_refresh(&mut self) {
        self.slot_computations += 1;
        self.slot_refreshes += 1;
        self.rebuild_slot_computations += 1;
    }

    /// Folds one task state's refresh accounting into the run's counters.
    pub fn absorb_refresh(&mut self, refresh: &RefreshStats) {
        self.full_refreshes += refresh.full_refreshes;
        self.incremental_patches += refresh.incremental_patches;
        self.stale_pops += refresh.stale_pops;
        self.refresh_nanos += refresh.refresh_nanos;
    }

    /// Slot computations saved relative to the rebuild-per-call baseline.
    pub fn saved_slot_computations(&self) -> usize {
        self.rebuild_slot_computations
            .saturating_sub(self.slot_computations)
    }
}

/// Per-drain index-churn accounting of the mutable-index service mode:
/// what the engine's worker mutations cost since the last drain, and what a
/// rebuild-per-mutation strategy would have paid instead.  Published into the
/// recorder's metrics registry on every drain and then reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChurnCounters {
    /// Worker mutations (insert/remove/move) applied since the last drain.
    pub ops: u64,
    /// Index entries actually re-gridded by those mutations (the tile-local
    /// splice cost).
    pub entries_touched: u64,
    /// Index entries a from-scratch rebuild after each mutation would have
    /// re-gridded (the cost the in-place mutations avoided).
    pub rebuild_equiv: u64,
    /// Cached candidate slots refreshed by worker-scoped invalidation.
    pub cache_refreshes: u64,
}

impl ChurnCounters {
    fn note(&mut self, mutation: &IndexMutation, cache_refreshes: usize) {
        self.ops += 1;
        self.entries_touched += mutation.entries_touched as u64;
        self.rebuild_equiv += mutation.rebuild_equiv_entries as u64;
        self.cache_refreshes += cache_refreshes as u64;
    }

    /// Publishes the counters (plus the index's current bucket-imbalance
    /// gauge) into a recorder and resets them.  Emitted even when zero, so a
    /// service dashboard always sees the churn keys.
    fn publish_and_reset(&mut self, obs: &impl Recorder, imbalance_milli: u64) {
        obs.counter("index.moves", self.ops);
        obs.counter("index.entries_spliced", self.entries_touched);
        obs.counter("index.rebuild_equiv_cost", self.rebuild_equiv);
        obs.counter("index.cache_refreshes", self.cache_refreshes);
        obs.gauge("index.occupancy_imbalance_milli", imbalance_milli);
        *self = Self::default();
    }
}

/// One cached task: the task identity (to detect id reuse), its base
/// candidates and the LRU stamp of its last checkout.
#[derive(Debug, Clone)]
struct CacheEntry {
    task: Task,
    base: SlotCandidates,
    /// `(arrival round, checkout tick)`: eviction is keyed on the round first
    /// so entries from older streaming rounds always leave before entries the
    /// current round touched, with the per-checkout tick breaking ties.
    last_used: (u64, u64),
}

/// Incremental per-task candidate cache.
///
/// Maps a task to its *base* [`SlotCandidates`] — the per-slot nearest
/// workers under an empty ledger.  Occupancy is reconciled at checkout by
/// refreshing only the slots whose base candidate is currently occupied.
///
/// # Worker-scoped invalidation
///
/// The cache maintains a reverse **worker → holder-tasks** map: which cached
/// tasks currently hold a given worker as a base candidate of at least one
/// slot.  When the index mutates underneath the cache
/// ([`MutableSpatialIndex`]), the engine calls the matching invalidation:
///
/// * [`CandidateCache::invalidate_removed`] — only the holder tasks of the
///   removed worker can lose a candidate; exactly their holding slots are
///   recomputed.
/// * [`CandidateCache::invalidate_inserted`] — a new worker can only *win* a
///   slot, so a cached slot is recomputed iff it is empty or the new worker's
///   distance beats (or ties) the current candidate's — a cheap arithmetic
///   ring bound per slot, no index query unless the slot can actually change.
/// * [`CandidateCache::invalidate_moved`] — the union of both rules: every
///   holding slot (the worker may have moved away, or just needs its cached
///   location refreshed) plus every slot the new location can now win.
///
/// Every refresh recomputes the slot with the same empty-ledger
/// `candidate_for_slot` a cold computation uses, so an invalidated cache is
/// bit-identical to a cache rebuilt from scratch against the mutated index —
/// locked in by `tests/mutation_equivalence.rs`.
///
/// # Eviction
///
/// By default the cache is unbounded (every distinct task seen is retained).
/// [`CandidateCache::with_capacity`] bounds it: when an insert pushes the
/// cache past its capacity, the least-recently-used entries are evicted,
/// ordered by `(arrival round, checkout tick)`.  Rounds advance via
/// [`CandidateCache::advance_round`] (the engine does this on every
/// [`AssignmentEngine::drain`]), so a streaming deployment evicts the tasks
/// of long-gone rounds first.  Eviction never affects correctness — an
/// evicted task is simply recomputed on its next checkout.
#[derive(Debug, Default)]
pub struct CandidateCache {
    base: HashMap<TaskId, CacheEntry>,
    /// Reverse map: worker -> cached tasks holding it as a base candidate of
    /// at least one slot.  Kept exactly in sync with `base` (registered on
    /// insert/refresh, unregistered on evict/replace), it turns a worker
    /// removal into an `O(|holders|)` refresh instead of a full-cache scan.
    holders: HashMap<WorkerId, BTreeSet<TaskId>>,
    capacity: Option<usize>,
    round: u64,
    tick: u64,
}

/// Registers every base-candidate worker of `base` as held by `task`.
fn register_holders(
    holders: &mut HashMap<WorkerId, BTreeSet<TaskId>>,
    task: TaskId,
    base: &SlotCandidates,
) {
    for slot in 0..base.len() {
        if let Some(c) = base.get(slot) {
            holders.entry(c.worker).or_default().insert(task);
        }
    }
}

/// Removes `task` from the holder sets of every base-candidate worker of
/// `base`, dropping sets that become empty.
fn unregister_holders(
    holders: &mut HashMap<WorkerId, BTreeSet<TaskId>>,
    task: TaskId,
    base: &SlotCandidates,
) {
    for slot in 0..base.len() {
        if let Some(c) = base.get(slot) {
            if let Some(set) = holders.get_mut(&c.worker) {
                set.remove(&task);
                if set.is_empty() {
                    holders.remove(&c.worker);
                }
            }
        }
    }
}

impl CandidateCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache retaining at most `capacity` tasks (LRU eviction).
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "a bounded candidate cache needs capacity > 0");
        Self {
            capacity: Some(capacity),
            ..Self::default()
        }
    }

    /// The configured capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Re-bounds the cache, evicting LRU entries if the new capacity is
    /// already exceeded (`None` removes the bound).
    ///
    /// # Panics
    /// Panics when `capacity` is `Some(0)`.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        assert!(
            capacity != Some(0),
            "a bounded candidate cache needs capacity > 0"
        );
        self.capacity = capacity;
        self.enforce_capacity();
    }

    /// Advances the arrival-round clock used by the LRU eviction order.
    pub fn advance_round(&mut self) {
        self.round += 1;
    }

    /// The current arrival round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of cached tasks.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Drops every cached entry (e.g. after swapping the worker index).
    pub fn clear(&mut self) {
        self.base.clear();
        self.holders.clear();
    }

    /// Evicts one task's entry, returning whether it was present.
    pub fn evict(&mut self, task: TaskId) -> bool {
        match self.base.remove(&task) {
            Some(entry) => {
                unregister_holders(&mut self.holders, task, &entry.base);
                true
            }
            None => false,
        }
    }

    /// Number of cached tasks currently holding `worker` as a base candidate
    /// of at least one slot (the invalidation fan-out of removing or moving
    /// that worker).
    pub fn holding_tasks(&self, worker: WorkerId) -> usize {
        self.holders.get(&worker).map_or(0, BTreeSet::len)
    }

    /// Evicts least-recently-used entries until the capacity bound holds.
    fn enforce_capacity(&mut self) {
        let Some(capacity) = self.capacity else {
            return;
        };
        while self.base.len() > capacity {
            let lru = self
                .base
                .iter()
                .min_by_key(|(id, e)| (e.last_used, id.0))
                .map(|(id, _)| *id)
                .expect("a non-empty cache has an LRU entry");
            self.evict(lru);
        }
    }

    /// Refreshes the cache after `id` was **removed** from the index: every
    /// slot whose base candidate was the removed worker is recomputed with
    /// empty-ledger semantics.  Only the holder tasks of `id` are touched.
    /// Returns the number of slot refreshes performed.
    pub fn invalidate_removed(
        &mut self,
        id: WorkerId,
        index: &dyn SpatialQuery,
        cost_model: &dyn CostModel,
    ) -> usize {
        let Some(tasks) = self.holders.get(&id) else {
            return 0;
        };
        let tasks: Vec<TaskId> = tasks.iter().copied().collect();
        let empty = WorkerLedger::new();
        let mut refreshed = 0;
        for tid in tasks {
            let Some(entry) = self.base.get_mut(&tid) else {
                continue;
            };
            unregister_holders(&mut self.holders, tid, &entry.base);
            for slot in 0..entry.base.len() {
                if entry.base.get(slot).is_some_and(|c| c.worker == id) {
                    entry
                        .base
                        .refresh_slot(&entry.task, slot, index, cost_model, &empty);
                    refreshed += 1;
                }
            }
            register_holders(&mut self.holders, tid, &entry.base);
        }
        refreshed
    }

    /// Refreshes the cache after a worker was **inserted** into the index at
    /// `profile`'s locations.  A fresh worker can only *win* a slot, so a
    /// cached slot is recomputed iff it has no candidate, or the new worker's
    /// distance beats (or ties) the current candidate's distance — checked by
    /// arithmetic alone, with an index query only for slots that can change.
    /// Returns the number of slot refreshes performed.
    pub fn invalidate_inserted(
        &mut self,
        id: WorkerId,
        profile: &WorkerProfile,
        index: &dyn SpatialQuery,
        cost_model: &dyn CostModel,
    ) -> usize {
        self.invalidate_upsert(id, profile, false, index, cost_model)
    }

    /// Refreshes the cache after a worker **moved** to `profile`'s (new)
    /// locations: the union of the removal rule (every slot holding the
    /// worker — it may have moved away, and its cached location must stay
    /// current) and the insertion rule (every slot the new location can now
    /// win).  Returns the number of slot refreshes performed.
    pub fn invalidate_moved(
        &mut self,
        id: WorkerId,
        profile: &WorkerProfile,
        index: &dyn SpatialQuery,
        cost_model: &dyn CostModel,
    ) -> usize {
        self.invalidate_upsert(id, profile, true, index, cost_model)
    }

    fn invalidate_upsert(
        &mut self,
        id: WorkerId,
        profile: &WorkerProfile,
        include_holding_slots: bool,
        index: &dyn SpatialQuery,
        cost_model: &dyn CostModel,
    ) -> usize {
        let empty = WorkerLedger::new();
        let mut refreshed = 0;
        // The win check scans every cached task, but it is pure arithmetic
        // (two distances per in-horizon profile entry); the expensive index
        // query runs only for slots that can actually change.
        let ids: Vec<TaskId> = self.base.keys().copied().collect();
        for tid in ids {
            let entry = self.base.get_mut(&tid).expect("the id was just listed");
            let mut slots: BTreeSet<usize> = BTreeSet::new();
            if include_holding_slots {
                for slot in 0..entry.base.len() {
                    if entry.base.get(slot).is_some_and(|c| c.worker == id) {
                        slots.insert(slot);
                    }
                }
            }
            for (slot, loc) in &profile.entries {
                if *slot >= entry.base.len() {
                    continue;
                }
                let wins = match entry.base.get(*slot) {
                    // An empty slot gains its first candidate.
                    None => true,
                    // Already covered by the holding-slot rule above.
                    Some(cur) if cur.worker == id => false,
                    // Recompute on a tie as well: the index's own tie-break
                    // decides, and a spurious refresh is merely redundant
                    // work, never a wrong candidate.
                    Some(cur) => {
                        let d_new = entry.task.location.distance(loc);
                        let d_cur = entry.task.location.distance(&cur.worker_location);
                        d_new <= d_cur
                    }
                };
                if wins {
                    slots.insert(*slot);
                }
            }
            if slots.is_empty() {
                continue;
            }
            unregister_holders(&mut self.holders, tid, &entry.base);
            for slot in slots {
                entry
                    .base
                    .refresh_slot(&entry.task, slot, index, cost_model, &empty);
                refreshed += 1;
            }
            register_holders(&mut self.holders, tid, &entry.base);
        }
        refreshed
    }

    /// Checks a task's *base* candidates out of the cache: a clone of the
    /// per-slot nearest workers under an empty ledger, computed (and
    /// retained) on a miss.  A cached entry is only reused when the stored
    /// task is identical to the queried one, so id reuse across different
    /// tasks falls back to a recompute instead of serving wrong candidates.
    pub fn checkout_base(
        &mut self,
        task: &Task,
        index: &dyn SpatialQuery,
        cost_model: &dyn CostModel,
        stats: &mut CacheStats,
    ) -> SlotCandidates {
        // What a rebuild-per-call strategy would pay for this task.
        stats.rebuild_slot_computations += task.num_slots;
        let hit = matches!(self.base.get(&task.id), Some(e) if e.task == *task);
        if !hit {
            stats.tasks_computed += 1;
            stats.slot_computations += task.num_slots;
            // Id reuse across different task identities: the stale entry's
            // holder registrations must leave *before* the new ones arrive
            // (the two bases may share workers).
            if let Some(old) = self.base.remove(&task.id) {
                unregister_holders(&mut self.holders, task.id, &old.base);
            }
            let base = SlotCandidates::compute(task, index, cost_model);
            register_holders(&mut self.holders, task.id, &base);
            self.base.insert(
                task.id,
                CacheEntry {
                    task: task.clone(),
                    base,
                    last_used: (self.round, self.tick),
                },
            );
            self.enforce_capacity();
        } else {
            stats.tasks_reused += 1;
        }
        let stamp = (self.round, self.tick);
        self.tick += 1;
        let entry = self
            .base
            .get_mut(&task.id)
            .expect("the entry was just inserted or verified present");
        entry.last_used = stamp;
        entry.base.clone()
    }

    /// Checks a task's working candidates out of the cache: the base
    /// candidates of [`CandidateCache::checkout_base`], reconciled against
    /// `ledger` by refreshing exactly the slots whose base candidate is
    /// occupied.
    pub fn checkout(
        &mut self,
        task: &Task,
        index: &dyn SpatialQuery,
        cost_model: &dyn CostModel,
        ledger: &WorkerLedger,
        stats: &mut CacheStats,
    ) -> SlotCandidates {
        let mut working = self.checkout_base(task, index, cost_model, stats);
        if !ledger.is_empty() {
            for slot in 0..working.len() {
                // A `None` base candidate means the slot has no worker at all;
                // occupancy can only shrink availability, so it stays `None`.
                let occupied = working
                    .get(slot)
                    .is_some_and(|c| ledger.is_occupied(slot, c.worker));
                if occupied {
                    working.refresh_slot(task, slot, index, cost_model, ledger);
                    stats.slot_computations += 1;
                    stats.slot_refreshes += 1;
                }
            }
        }
        working
    }
}

/// The serial MSQM greedy over already-checked-out task states against a
/// dense ledger: a thin wrapper binding [`commit::msqm_commit_loop`] to the
/// dense backend with the inline candidate wave.  Returns
/// `(conflicts, executions)`.
///
/// [`AssignmentEngine::assign_batch`], the cache-sharing group-parallel
/// variant and (through the sharded backend) the concurrent engine all
/// commit through the same loop, so their results can only differ through
/// the candidates they feed in — the equivalence suites
/// (`engine_equivalence.rs`, `concurrent_equivalence.rs`) are the tripwire.
pub(crate) fn msqm_greedy_core(
    states: &mut [TaskState],
    budget: f64,
    index: &dyn SpatialQuery,
    cost_model: &dyn CostModel,
    ledger: &mut WorkerLedger,
    stats: &mut CacheStats,
) -> (usize, usize) {
    let mut backend = DenseBackend {
        index,
        cost_model,
        ledger,
    };
    msqm_commit_loop(states, budget, &mut backend, stats, &mut inline_wave)
}

/// Long-lived batched / streaming multi-task assignment engine.
///
/// Owns (or borrows) the worker index, a persistent occupancy ledger and the
/// incremental [`CandidateCache`]; see the [module docs](self) for the
/// invalidation protocol and the determinism argument.
///
/// * [`AssignmentEngine::assign_batch`] solves one task batch against the
///   current ledger and commits the resulting occupancy.
/// * [`AssignmentEngine::submit`] / [`AssignmentEngine::drain`] accept task
///   arrivals across rounds and solve them batch-wise; occupancy persists
///   between rounds so a worker granted in round `r` is unavailable in round
///   `r + 1`.
/// * [`AssignmentEngine::release_all`] frees every commitment (re-planning),
///   while the candidate cache keeps amortising index lookups.
///
/// The engine is generic over a [`Recorder`]; the default
/// [`NoopRecorder`] compiles every instrumentation site away
/// (`R::IS_ENABLED` is a `const`), so observability is free unless a live
/// session is attached via [`AssignmentEngine::with_recorder`].
pub struct AssignmentEngine<'a, R: Recorder = NoopRecorder> {
    index: Cow<'a, WorkerIndex>,
    cost_model: &'a dyn CostModel,
    config: MultiTaskConfig,
    ledger: WorkerLedger,
    cache: CandidateCache,
    pending: Vec<Task>,
    lifetime_stats: CacheStats,
    churn: ChurnCounters,
    obs: R,
}

impl<'a> AssignmentEngine<'a> {
    /// An engine owning its worker index (the long-lived serving setup).
    pub fn new(index: WorkerIndex, cost_model: &'a dyn CostModel, config: MultiTaskConfig) -> Self {
        Self::from_cow(Cow::Owned(index), cost_model, config)
    }

    /// An engine borrowing a caller-owned worker index (the cheap,
    /// per-call construction used by the [`crate::multi`] solver wrappers).
    pub fn borrowed(
        index: &'a WorkerIndex,
        cost_model: &'a dyn CostModel,
        config: MultiTaskConfig,
    ) -> Self {
        Self::from_cow(Cow::Borrowed(index), cost_model, config)
    }

    fn from_cow(
        index: Cow<'a, WorkerIndex>,
        cost_model: &'a dyn CostModel,
        config: MultiTaskConfig,
    ) -> Self {
        Self {
            index,
            cost_model,
            config,
            ledger: WorkerLedger::new(),
            cache: CandidateCache::new(),
            pending: Vec::new(),
            lifetime_stats: CacheStats::default(),
            churn: ChurnCounters::default(),
            obs: NoopRecorder,
        }
    }
}

impl<'a, R: Recorder> AssignmentEngine<'a, R> {
    /// Rebinds the engine to a live recorder (checkout/commit spans, cache
    /// and refresh counters, batch-latency histograms).  The committed
    /// plans/conflicts/executions are bit-identical with any recorder —
    /// locked by `tests/obs_noop_equivalence.rs`.
    pub fn with_recorder<R2: Recorder>(self, obs: R2) -> AssignmentEngine<'a, R2> {
        AssignmentEngine {
            index: self.index,
            cost_model: self.cost_model,
            config: self.config,
            ledger: self.ledger,
            cache: self.cache,
            pending: self.pending,
            lifetime_stats: self.lifetime_stats,
            churn: self.churn,
            obs,
        }
    }

    /// Publishes one solve's counters/latency into the attached recorder's
    /// metrics registry — the registry view superseding ad-hoc
    /// [`CacheStats`] plumbing for reporting (the struct itself remains the
    /// equivalence-contract carrier).
    fn publish_metrics(&self, outcome: &MultiOutcome, batch_nanos: u64) {
        let stats = &outcome.stats;
        self.obs.counter("cache.hits", stats.tasks_reused as u64);
        self.obs
            .counter("cache.misses", stats.tasks_computed as u64);
        self.obs
            .counter("engine.slot_computations", stats.slot_computations as u64);
        self.obs
            .counter("engine.slot_refreshes", stats.slot_refreshes as u64);
        self.obs
            .counter("engine.commit_rescores", stats.commit_rescores as u64);
        self.obs
            .counter("engine.full_refreshes", stats.full_refreshes as u64);
        self.obs.counter(
            "engine.incremental_patches",
            stats.incremental_patches as u64,
        );
        self.obs
            .counter("engine.stale_pops", stats.stale_pops as u64);
        self.obs
            .counter("engine.conflicts", outcome.conflicts as u64);
        self.obs
            .counter("engine.executions", outcome.executions as u64);
        self.obs.value("engine.batch_ns", batch_nanos);
        if outcome.executions > 0 {
            self.obs.value(
                "engine.grant_refresh_ns",
                stats.refresh_nanos / outcome.executions as u64,
            );
        }
    }

    /// The engine's worker index.
    pub fn index(&self) -> &WorkerIndex {
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

    /// The persistent occupancy ledger.
    pub fn ledger(&self) -> &WorkerLedger {
        &self.ledger
    }

    /// The candidate cache (size inspection / manual eviction).
    pub fn cache(&mut self) -> &mut CandidateCache {
        &mut self.cache
    }

    /// Accumulated candidate-computation counters over the engine's lifetime.
    pub fn stats(&self) -> CacheStats {
        self.lifetime_stats
    }

    /// Releases every occupancy commitment while keeping the candidate cache
    /// warm (re-planning the same scenario under a different budget or
    /// objective).
    pub fn release_all(&mut self) {
        self.ledger.clear();
    }

    /// Releases one committed plan's worker occupancies — the retired-task
    /// GC of a long-running service: once a task's subtasks have finished
    /// executing, its workers return to the pool and the persistent ledger
    /// stays proportional to the *live* commitments instead of growing with
    /// every task ever served.  Returns the number of occupancies released
    /// (executions whose worker was still held).
    pub fn release_plan(&mut self, plan: &tcsc_core::AssignmentPlan) -> usize {
        let released = plan
            .executions
            .iter()
            .filter(|exec| self.ledger.release(exec.slot, exec.worker))
            .count();
        if R::IS_ENABLED && released > 0 {
            self.obs.counter("engine.released", released as u64);
            self.obs
                .gauge("engine.ledger_size", self.ledger.len() as u64);
        }
        released
    }

    /// Inserts a worker into the engine's index (an offline worker coming
    /// online), invalidating exactly the cached candidate slots the new
    /// worker can win.  Rejected (`applied == false`) and a no-op when a
    /// worker with the same id is already registered.
    pub fn insert_worker(&mut self, worker: &Worker) -> IndexMutation {
        let mutation = self.index.to_mut().insert_worker(worker);
        if mutation.applied {
            let profile = self
                .index
                .worker_profile(worker.id)
                .expect("the worker was just inserted");
            let refreshed = self.cache.invalidate_inserted(
                worker.id,
                &profile,
                self.index.as_ref(),
                self.cost_model,
            );
            self.churn.note(&mutation, refreshed);
        }
        mutation
    }

    /// Removes a worker from the engine's index (going offline), releasing
    /// its ledger commitments at every in-horizon slot and refreshing exactly
    /// the cached tasks that held it as a candidate.  Rejected and a no-op
    /// for an unknown id.
    pub fn remove_worker(&mut self, id: WorkerId) -> IndexMutation {
        let profile = self.index.worker_profile(id);
        let mutation = self.index.to_mut().remove_worker(id);
        if mutation.applied {
            if let Some(profile) = &profile {
                for (slot, _) in &profile.entries {
                    self.ledger.release(*slot, id);
                }
            }
            let refreshed = self
                .cache
                .invalidate_removed(id, self.index.as_ref(), self.cost_model);
            self.churn.note(&mutation, refreshed);
        }
        mutation
    }

    /// Moves a worker: every availability entry relocates to `to` inside the
    /// index (a tile-local splice, not a rebuild), and the cache refreshes
    /// the slots that held the worker plus the slots its new position can
    /// win.  Ledger commitments are unaffected — the dense ledger keys on
    /// `(slot, worker)` only.  Rejected and a no-op for an unknown id.
    pub fn move_worker(&mut self, id: WorkerId, to: Location) -> IndexMutation {
        let mutation = self.index.to_mut().move_worker(id, to);
        if mutation.applied {
            let profile = self
                .index
                .worker_profile(id)
                .expect("a moved worker stays registered");
            let refreshed =
                self.cache
                    .invalidate_moved(id, &profile, self.index.as_ref(), self.cost_model);
            self.churn.note(&mutation, refreshed);
        }
        mutation
    }

    /// Swaps in a freshly built index — the rebuild-per-drain baseline the
    /// mutation API above replaces.  The candidate cache is dropped cold, and
    /// ledger commitments the new index no longer supports (worker absent, or
    /// no longer available at the slot) are released, matching what the
    /// in-place path's `remove_worker` releases.  (An id removed and later
    /// re-registered *with the same slot* is indistinguishable from one that
    /// never left — avoid recycling worker ids across a rebuild.)
    pub fn replace_index(&mut self, index: WorkerIndex) {
        self.index = Cow::Owned(index);
        self.cache.clear();
        let retained: Vec<(usize, WorkerId)> = self
            .ledger
            .commitments()
            .into_iter()
            .filter(|(slot, worker)| {
                self.index
                    .worker_profile(*worker)
                    .is_some_and(|p| p.entries.iter().any(|(s, _)| s == slot))
            })
            .collect();
        self.ledger.clear();
        for (slot, worker) in retained {
            self.ledger.occupy(slot, worker);
        }
    }

    /// The index-churn counters accumulated since the last drain.
    pub fn churn(&self) -> ChurnCounters {
        self.churn
    }

    /// Queues task arrivals for the next [`AssignmentEngine::drain`].
    pub fn submit(&mut self, tasks: impl IntoIterator<Item = Task>) {
        self.pending.extend(tasks);
        if R::IS_ENABLED {
            self.obs
                .gauge("engine.queue_depth", self.pending.len() as u64);
        }
    }

    /// Number of submitted-but-not-yet-drained tasks.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Solves every pending task as one batch (in submission order) against
    /// the current ledger and commits the resulting occupancy.  Draining k
    /// submission rounds at once is equivalent to one
    /// [`AssignmentEngine::assign_batch`] call on the concatenated tasks.
    ///
    /// Streamed arrivals are one-shot: their plans are final, they never
    /// re-arrive, so their cache entries are evicted after the solve and a
    /// long-running stream holds memory proportional to one round, not to
    /// every task ever served.  (Re-planning workloads that *do* re-solve the
    /// same tasks should use [`AssignmentEngine::assign_batch`], which keeps
    /// the cache warm.)
    pub fn drain(&mut self, objective: Objective) -> MultiOutcome {
        let tasks = std::mem::take(&mut self.pending);
        if R::IS_ENABLED {
            self.obs.begin("engine.drain", tasks.len() as u64);
        }
        let outcome = self.assign_batch(&tasks, objective);
        if R::IS_ENABLED {
            self.obs.end("engine.drain", tasks.len() as u64);
        }
        for task in &tasks {
            self.cache.evict(task.id);
        }
        self.cache.advance_round();
        if R::IS_ENABLED {
            // Post-drain service levels: what is queued, held and cached
            // *now* — the SLO gauges a live dashboard samples per drain.
            self.obs
                .gauge("engine.queue_depth", self.pending.len() as u64);
            self.obs
                .gauge("engine.ledger_size", self.ledger.len() as u64);
            self.obs
                .gauge("engine.cache_entries", self.cache.len() as u64);
            let imbalance = self.index.occupancy_imbalance_milli();
            self.churn.publish_and_reset(&self.obs, imbalance);
        } else {
            self.churn = ChurnCounters::default();
        }
        outcome
    }

    /// Solves one task batch under the configured budget and objective
    /// against the current ledger, committing the resulting occupancy.
    ///
    /// On a fresh engine this is bit-identical (plans, conflicts, executions)
    /// to the rebuild-per-call solvers
    /// [`crate::multi::rebuild::msqm_rebuild`] /
    /// [`crate::multi::rebuild::mmqm_rebuild`]; the candidate cache only
    /// changes *how* candidates are obtained, never *which* candidates the
    /// greedy sees.
    pub fn assign_batch(&mut self, tasks: &[Task], objective: Objective) -> MultiOutcome {
        if R::IS_ENABLED {
            self.obs.begin("engine.assign_batch", tasks.len() as u64);
        }
        let sw = R::IS_ENABLED.then(Stopwatch::start);
        let outcome = match objective {
            Objective::SumQuality => self.run_msqm(tasks),
            Objective::MinQuality => self.run_mmqm(tasks),
        };
        self.lifetime_stats.merge(&outcome.stats);
        if R::IS_ENABLED {
            self.publish_metrics(&outcome, sw.map_or(0, |s| s.elapsed_nanos()));
            self.obs.end("engine.assign_batch", tasks.len() as u64);
        }
        outcome
    }

    /// Checks the working states of a batch out of the candidate cache.
    fn checkout_states(&mut self, tasks: &[Task], stats: &mut CacheStats) -> Vec<TaskState> {
        tasks
            .iter()
            .map(|task| {
                let candidates = self.cache.checkout(
                    task,
                    self.index.as_ref(),
                    self.cost_model,
                    &self.ledger,
                    stats,
                );
                TaskState::from_candidates(task, candidates, &self.config)
            })
            .collect()
    }

    /// MSQM greedy (port of the serial rebuild solver; the holder map
    /// replaces its `O(|T|)` invalidation scan).
    fn run_msqm(&mut self, tasks: &[Task]) -> MultiOutcome {
        let mut stats = CacheStats::default();
        if R::IS_ENABLED {
            self.obs.begin("engine.checkout", tasks.len() as u64);
        }
        let mut states = self.checkout_states(tasks, &mut stats);
        if R::IS_ENABLED {
            self.obs.end("engine.checkout", tasks.len() as u64);
            self.obs.begin("engine.commit", tasks.len() as u64);
        }
        let (conflicts, executions) = msqm_greedy_core(
            &mut states,
            self.config.budget,
            self.index.as_ref(),
            self.cost_model,
            &mut self.ledger,
            &mut stats,
        );
        if R::IS_ENABLED {
            self.obs.end("engine.commit", tasks.len() as u64);
        }

        let assignment =
            MultiAssignment::new(states.into_iter().map(TaskState::into_plan).collect());
        MultiOutcome {
            assignment,
            conflicts,
            executions,
            stats,
        }
    }

    /// MMQM greedy (reinforce the weakest task, candidates served through the
    /// cache), committing through the shared lazy-heap loop.
    fn run_mmqm(&mut self, tasks: &[Task]) -> MultiOutcome {
        let mut stats = CacheStats::default();
        if R::IS_ENABLED {
            self.obs.begin("engine.checkout", tasks.len() as u64);
        }
        let mut states = self.checkout_states(tasks, &mut stats);
        if R::IS_ENABLED {
            self.obs.end("engine.checkout", tasks.len() as u64);
            self.obs.begin("engine.commit", tasks.len() as u64);
        }
        let mut backend = DenseBackend {
            index: self.index.as_ref(),
            cost_model: self.cost_model,
            ledger: &mut self.ledger,
        };
        let (conflicts, executions) =
            commit::mmqm_commit_loop(&mut states, self.config.budget, &mut backend, &mut stats);
        if R::IS_ENABLED {
            self.obs.end("engine.commit", tasks.len() as u64);
        }

        let assignment =
            MultiAssignment::new(states.into_iter().map(TaskState::into_plan).collect());
        MultiOutcome {
            assignment,
            conflicts,
            executions,
            stats,
        }
    }

    /// `SApprox` under the engine: the spatiotemporal greedy of
    /// [`crate::multi::sapprox`] with candidates served through the cache and
    /// occupancy committed to the persistent ledger.
    ///
    /// All tasks must share the same number of slots (as in the paper's
    /// setup).
    pub fn assign_spatiotemporal(
        &mut self,
        tasks: &[Task],
        domain: &Domain,
        weights: InterpolationWeights,
        objective: SpatioTemporalObjective,
    ) -> MultiOutcome {
        if R::IS_ENABLED {
            self.obs.begin("engine.assign_batch", tasks.len() as u64);
        }
        let sw = R::IS_ENABLED.then(Stopwatch::start);
        let outcome = self.run_spatiotemporal(tasks, domain, weights, objective);
        self.lifetime_stats.merge(&outcome.stats);
        if R::IS_ENABLED {
            self.publish_metrics(&outcome, sw.map_or(0, |s| s.elapsed_nanos()));
            self.obs.end("engine.assign_batch", tasks.len() as u64);
        }
        outcome
    }

    fn run_spatiotemporal(
        &mut self,
        tasks: &[Task],
        domain: &Domain,
        weights: InterpolationWeights,
        objective: SpatioTemporalObjective,
    ) -> MultiOutcome {
        let mut stats = CacheStats::default();
        if tasks.is_empty() {
            return MultiOutcome {
                assignment: MultiAssignment::default(),
                conflicts: 0,
                executions: 0,
                stats,
            };
        }
        let num_slots = tasks[0].num_slots;
        assert!(
            tasks.iter().all(|t| t.num_slots == num_slots),
            "SApprox requires tasks with a uniform number of slots"
        );

        let config = self.config;
        let mut evaluator = SpatioTemporalEvaluator::new(
            tasks.iter().map(|t| t.location).collect(),
            QualityParams::new(num_slots, config.k),
            *domain,
            weights,
        );
        let mut candidates: Vec<SlotCandidates> = tasks
            .iter()
            .map(|t| {
                self.cache.checkout(
                    t,
                    self.index.as_ref(),
                    self.cost_model,
                    &self.ledger,
                    &mut stats,
                )
            })
            .collect();
        let mut executions_log: Vec<Vec<ExecutedSubtask>> = vec![Vec::new(); tasks.len()];
        let mut remaining = config.budget;
        let mut conflicts = 0usize;
        let mut executions = 0usize;

        loop {
            // Candidate search: the (task, slot) pair maximising the
            // objective increase per unit cost among affordable pairs.
            let mut best: Option<(usize, usize, f64, f64)> = None; // (task, slot, gain, cost)
            let task_range: Vec<usize> = match objective {
                SpatioTemporalObjective::Sum => (0..tasks.len()).collect(),
                SpatioTemporalObjective::Min => {
                    // Reinforce the currently weakest task that still has
                    // affordable candidates.
                    let mut order: Vec<usize> = (0..tasks.len()).collect();
                    order.sort_by(|&a, &b| {
                        evaluator
                            .task_quality(a)
                            .total_cmp(&evaluator.task_quality(b))
                    });
                    order
                }
            };
            'outer: for &task_idx in &task_range {
                for slot in 0..num_slots {
                    if evaluator.is_executed(task_idx, slot) {
                        continue;
                    }
                    let Some(candidate) = candidates[task_idx].get(slot) else {
                        continue;
                    };
                    if candidate.cost > remaining {
                        continue;
                    }
                    let reliability = if config.use_reliability {
                        candidate.reliability
                    } else {
                        1.0
                    };
                    let gain = match objective {
                        SpatioTemporalObjective::Sum => {
                            evaluator.sum_gain_if_executed(task_idx, slot, reliability)
                        }
                        SpatioTemporalObjective::Min => {
                            evaluator.task_gain_if_executed(task_idx, slot, reliability)
                        }
                    };
                    let heuristic = if candidate.cost > 0.0 {
                        gain / candidate.cost
                    } else {
                        f64::INFINITY
                    };
                    let better = match &best {
                        None => true,
                        Some((_, _, bg, bc)) => {
                            let bh = if *bc > 0.0 { bg / bc } else { f64::INFINITY };
                            heuristic > bh
                        }
                    };
                    if better {
                        best = Some((task_idx, slot, gain, candidate.cost));
                    }
                }
                // For the min objective only the weakest task with any
                // affordable candidate is reinforced, mirroring the MMQM
                // loop.
                if matches!(objective, SpatioTemporalObjective::Min) && best.is_some() {
                    break 'outer;
                }
            }

            let Some((task_idx, slot, _gain, cost)) = best else {
                break;
            };
            let candidate = *candidates[task_idx]
                .get(slot)
                .expect("selected candidate exists");
            // Worker conflict: fall back to the next nearest worker.
            if self.ledger.is_occupied(slot, candidate.worker) {
                conflicts += 1;
                candidates[task_idx].refresh_slot(
                    &tasks[task_idx],
                    slot,
                    self.index.as_ref(),
                    self.cost_model,
                    &self.ledger,
                );
                stats.slot_computations += 1;
                stats.slot_refreshes += 1;
                stats.rebuild_slot_computations += 1;
                continue;
            }
            remaining -= cost;
            self.ledger.occupy(slot, candidate.worker);
            let reliability = if config.use_reliability {
                candidate.reliability
            } else {
                1.0
            };
            evaluator.execute(task_idx, slot, reliability);
            executions_log[task_idx].push(ExecutedSubtask {
                slot,
                worker: candidate.worker,
                cost,
                reliability: candidate.reliability,
            });
            executions += 1;
        }

        let plans = tasks
            .iter()
            .enumerate()
            .map(|(i, task)| tcsc_core::AssignmentPlan {
                task: task.id,
                num_slots,
                quality: evaluator.task_quality(i),
                executions: std::mem::take(&mut executions_log[i]),
            })
            .collect();

        MultiOutcome {
            assignment: MultiAssignment::new(plans),
            conflicts,
            executions,
            stats,
        }
    }
}

impl<R: Recorder> std::fmt::Debug for AssignmentEngine<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AssignmentEngine")
            .field("config", &self.config)
            .field("ledger_commitments", &self.ledger.len())
            .field("cached_tasks", &self.cache.len())
            .field("pending", &self.pending.len())
            .field("lifetime_stats", &self.lifetime_stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi::test_support::small_instance;
    use tcsc_core::EuclideanCost;

    #[test]
    fn batch_respects_the_budget_and_commits_occupancy() {
        let (tasks, index, cost) = small_instance(70, 5, 25, 150);
        let mut engine = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(40.0));
        let outcome = engine.assign_batch(&tasks, Objective::SumQuality);
        assert!(outcome.assignment.total_cost() <= 40.0 + 1e-6);
        assert_eq!(engine.ledger().len(), outcome.executions);
    }

    #[test]
    fn second_solve_reuses_the_cache() {
        let (tasks, index, cost) = small_instance(71, 4, 20, 120);
        let mut engine = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(30.0));
        let first = engine.assign_batch(&tasks, Objective::SumQuality);
        assert_eq!(first.stats.tasks_computed, tasks.len());
        assert_eq!(first.stats.tasks_reused, 0);
        engine.release_all();
        let second = engine.assign_batch(&tasks, Objective::SumQuality);
        assert_eq!(second.stats.tasks_computed, 0);
        assert_eq!(second.stats.tasks_reused, tasks.len());
        // After releasing the occupancy the cached base candidates are valid
        // again, so the second run performs no initial slot computations.
        assert!(second.stats.slot_computations < first.stats.slot_computations);
        assert_eq!(
            first.assignment, second.assignment,
            "re-planning the same batch must reproduce the same plans"
        );
    }

    #[test]
    fn cache_detects_task_identity_changes() {
        let (tasks, index, cost) = small_instance(72, 2, 15, 80);
        let mut engine = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(20.0));
        engine.assign_batch(&tasks, Objective::SumQuality);
        engine.release_all();
        // Same ids, different locations: the cache must recompute.
        let mut moved = tasks.clone();
        for t in &mut moved {
            t.location = tcsc_core::Location::new(t.location.x + 1.0, t.location.y);
        }
        let outcome = engine.assign_batch(&moved, Objective::SumQuality);
        assert_eq!(outcome.stats.tasks_computed, moved.len());
        assert_eq!(outcome.stats.tasks_reused, 0);
    }

    #[test]
    fn drains_share_occupancy_across_rounds() {
        let (tasks, index, cost) = small_instance(73, 8, 20, 40);
        let mut engine = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(100.0));
        let (first_half, second_half) = tasks.split_at(4);
        engine.submit(first_half.to_vec());
        let round1 = engine.drain(Objective::SumQuality);
        engine.submit(second_half.to_vec());
        let round2 = engine.drain(Objective::SumQuality);
        assert_eq!(engine.pending(), 0);
        // A worker granted in round 1 must not be re-granted in round 2.
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
    }

    #[test]
    fn drained_tasks_are_evicted_from_the_cache() {
        // Streamed arrivals are one-shot; a long-running stream must not
        // accumulate cache entries for every task ever served.
        let (tasks, index, cost) = small_instance(76, 9, 15, 120);
        let mut engine = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(50.0));
        for round in tasks.chunks(3) {
            engine.submit(round.to_vec());
            engine.drain(Objective::SumQuality);
            assert!(engine.cache().is_empty(), "drain must evict its arrivals");
        }
        // assign_batch keeps entries (the re-planning path).
        engine.assign_batch(&tasks[..3], Objective::SumQuality);
        assert_eq!(engine.cache().len(), 3);
    }

    #[test]
    fn bounded_cache_evicts_lru_and_recomputes_correctly() {
        let (tasks, index, cost) = small_instance(80, 5, 12, 100);
        let mut stats = CacheStats::default();
        let mut bounded = CandidateCache::with_capacity(2);
        assert_eq!(bounded.capacity(), Some(2));
        for t in &tasks[..3] {
            bounded.checkout_base(t, &index, &cost, &mut stats);
        }
        assert_eq!(bounded.len(), 2, "capacity bound must hold");
        assert_eq!(stats.tasks_computed, 3);
        // Task 0 was the least recently used, so it was evicted; tasks 1 and
        // 2 are still served from the cache.
        let mut probe = CacheStats::default();
        bounded.checkout_base(&tasks[1], &index, &cost, &mut probe);
        bounded.checkout_base(&tasks[2], &index, &cost, &mut probe);
        assert_eq!(probe.tasks_reused, 2);
        // Re-checkout of the evicted task recomputes — and the recomputed
        // candidates are identical to a fresh computation.
        let mut recompute = CacheStats::default();
        let evicted = bounded.checkout_base(&tasks[0], &index, &cost, &mut recompute);
        assert_eq!(recompute.tasks_computed, 1);
        let fresh = SlotCandidates::compute(&tasks[0], &index, &cost);
        assert_eq!(evicted.costs(), fresh.costs());
        for slot in 0..evicted.len() {
            assert_eq!(
                evicted.get(slot).map(|c| c.worker),
                fresh.get(slot).map(|c| c.worker)
            );
        }
    }

    #[test]
    fn touching_an_entry_protects_it_from_eviction() {
        let (tasks, index, cost) = small_instance(81, 3, 10, 80);
        let mut stats = CacheStats::default();
        let mut cache = CandidateCache::with_capacity(2);
        cache.checkout_base(&tasks[0], &index, &cost, &mut stats);
        cache.checkout_base(&tasks[1], &index, &cost, &mut stats);
        // Touch task 0 so task 1 becomes the LRU entry.
        cache.checkout_base(&tasks[0], &index, &cost, &mut stats);
        cache.checkout_base(&tasks[2], &index, &cost, &mut stats);
        let mut probe = CacheStats::default();
        cache.checkout_base(&tasks[0], &index, &cost, &mut probe);
        assert_eq!(probe.tasks_reused, 1, "task 0 must have survived");
        cache.checkout_base(&tasks[1], &index, &cost, &mut probe);
        assert_eq!(probe.tasks_computed, 1, "task 1 must have been evicted");
    }

    #[test]
    fn eviction_prefers_entries_from_older_rounds() {
        let (tasks, index, cost) = small_instance(82, 3, 10, 80);
        let mut stats = CacheStats::default();
        let mut cache = CandidateCache::with_capacity(2);
        cache.checkout_base(&tasks[0], &index, &cost, &mut stats);
        cache.advance_round();
        assert_eq!(cache.round(), 1);
        cache.checkout_base(&tasks[1], &index, &cost, &mut stats);
        cache.checkout_base(&tasks[2], &index, &cost, &mut stats);
        let mut probe = CacheStats::default();
        cache.checkout_base(&tasks[1], &index, &cost, &mut probe);
        cache.checkout_base(&tasks[2], &index, &cost, &mut probe);
        assert_eq!(probe.tasks_reused, 2, "round-1 arrivals must survive");
        cache.checkout_base(&tasks[0], &index, &cost, &mut probe);
        assert_eq!(
            probe.tasks_computed, 1,
            "the round-0 arrival must have been evicted first"
        );
    }

    #[test]
    fn set_capacity_shrinks_and_unbounds() {
        let (tasks, index, cost) = small_instance(83, 4, 10, 80);
        let mut stats = CacheStats::default();
        let mut cache = CandidateCache::new();
        for t in &tasks {
            cache.checkout_base(t, &index, &cost, &mut stats);
        }
        assert_eq!(cache.len(), 4);
        cache.set_capacity(Some(2));
        assert_eq!(cache.len(), 2);
        cache.set_capacity(None);
        for t in &tasks {
            cache.checkout_base(t, &index, &cost, &mut stats);
        }
        assert_eq!(cache.len(), 4);
    }

    #[test]
    #[should_panic(expected = "capacity > 0")]
    fn zero_capacity_is_rejected() {
        let _ = CandidateCache::with_capacity(0);
    }

    #[test]
    fn bounded_engine_cache_reproduces_unbounded_plans() {
        // Eviction may cost recomputation but must never change a plan.
        let (tasks, index, cost) = small_instance(84, 6, 20, 120);
        let cfg = MultiTaskConfig::new(35.0);
        let mut unbounded = AssignmentEngine::borrowed(&index, &cost, cfg);
        let mut bounded = AssignmentEngine::borrowed(&index, &cost, cfg);
        bounded.cache().set_capacity(Some(2));
        for _ in 0..3 {
            let a = unbounded.assign_batch(&tasks, Objective::SumQuality);
            let b = bounded.assign_batch(&tasks, Objective::SumQuality);
            assert_eq!(a.assignment, b.assignment);
            assert_eq!(a.conflicts, b.conflicts);
            assert_eq!(a.executions, b.executions);
            unbounded.release_all();
            bounded.release_all();
        }
        assert!(bounded.cache().len() <= 2);
    }

    #[test]
    fn owned_engine_works_without_an_external_index() {
        let (tasks, index, _) = small_instance(74, 3, 15, 90);
        let cost = EuclideanCost::default();
        let mut engine = AssignmentEngine::new(index, &cost, MultiTaskConfig::new(25.0));
        let outcome = engine.assign_batch(&tasks, Objective::MinQuality);
        assert!(outcome.assignment.total_cost() <= 25.0 + 1e-6);
    }

    #[test]
    fn release_plan_returns_workers_to_the_pool() {
        let (tasks, index, cost) = small_instance(85, 6, 20, 120);
        let mut engine = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(60.0));
        engine.submit(tasks.clone());
        let outcome = engine.drain(Objective::SumQuality);
        assert_eq!(engine.ledger().len(), outcome.executions);
        // Retire every plan: the ledger must drain back to empty, releasing
        // exactly the committed executions.
        let mut released = 0;
        for plan in &outcome.assignment.plans {
            released += engine.release_plan(plan);
        }
        assert_eq!(released, outcome.executions);
        assert!(engine.ledger().is_empty());
        // Releasing an already-retired plan is a no-op.
        assert_eq!(engine.release_plan(&outcome.assignment.plans[0]), 0);
        // With the pool restored, the same arrivals get the same plans.
        engine.submit(tasks);
        let again = engine.drain(Objective::SumQuality);
        assert_eq!(again.assignment, outcome.assignment);
    }

    /// Asserts that every cached base is bit-identical to a from-scratch
    /// computation against the current index.
    fn assert_cache_exact(
        cache: &mut CandidateCache,
        tasks: &[Task],
        index: &WorkerIndex,
        cost: &EuclideanCost,
    ) {
        for t in tasks {
            let mut probe = CacheStats::default();
            let cached = cache.checkout_base(t, index, cost, &mut probe);
            assert_eq!(probe.tasks_reused, 1, "task {:?} must stay cached", t.id);
            let fresh = SlotCandidates::compute(t, index, cost);
            for slot in 0..cached.len() {
                let (a, b) = (cached.get(slot), fresh.get(slot));
                assert_eq!(
                    a.map(|c| c.worker),
                    b.map(|c| c.worker),
                    "task {:?} slot {slot}",
                    t.id
                );
                assert_eq!(a.map(|c| c.cost.to_bits()), b.map(|c| c.cost.to_bits()));
                assert_eq!(
                    a.map(|c| (c.worker_location.x.to_bits(), c.worker_location.y.to_bits())),
                    b.map(|c| (c.worker_location.x.to_bits(), c.worker_location.y.to_bits())),
                    "cached worker locations must track moves (task {:?} slot {slot})",
                    t.id
                );
            }
        }
    }

    #[test]
    fn worker_mutations_keep_cached_bases_exact() {
        use tcsc_core::{Location, Worker, WorkerId, WorkerSlot};
        let (tasks, index, cost) = small_instance(86, 6, 12, 60);
        let mut index = index;
        let mut cache = CandidateCache::new();
        let mut stats = CacheStats::default();
        for t in &tasks {
            cache.checkout_base(t, &index, &cost, &mut stats);
        }

        // Move a worker right onto a task: it must win that task's slots.
        let moved = WorkerId(3);
        assert!(index.move_worker(moved, tasks[0].location).applied);
        let profile = index.worker_profile(moved).unwrap();
        cache.invalidate_moved(moved, &profile, &index, &cost);
        assert_cache_exact(&mut cache, &tasks, &index, &cost);

        // Insert a fresh worker between two tasks.
        let newcomer = Worker::new(
            WorkerId(1000),
            [0usize, 3, 7]
                .into_iter()
                .map(|slot| WorkerSlot {
                    slot,
                    location: Location::new(tasks[1].location.x + 0.5, tasks[1].location.y),
                })
                .collect(),
        );
        assert!(index.insert_worker(&newcomer).applied);
        let profile = index.worker_profile(newcomer.id).unwrap();
        cache.invalidate_inserted(newcomer.id, &profile, &index, &cost);
        assert_cache_exact(&mut cache, &tasks, &index, &cost);

        // Remove workers until some cached slot actually loses its holder.
        for id in [WorkerId(3), WorkerId(1000), WorkerId(0), WorkerId(7)] {
            if index.remove_worker(id).applied {
                cache.invalidate_removed(id, &index, &cost);
                assert_cache_exact(&mut cache, &tasks, &index, &cost);
            }
        }

        // Move a worker far away: holder slots must fall back correctly.
        let far = WorkerId(11);
        assert!(index.move_worker(far, Location::new(250.0, -40.0)).applied);
        let profile = index.worker_profile(far).unwrap();
        cache.invalidate_moved(far, &profile, &index, &cost);
        assert_cache_exact(&mut cache, &tasks, &index, &cost);
    }

    #[test]
    fn holder_map_follows_evictions_and_clears() {
        let (tasks, index, cost) = small_instance(87, 4, 10, 50);
        let mut cache = CandidateCache::new();
        let mut stats = CacheStats::default();
        for t in &tasks {
            cache.checkout_base(t, &index, &cost, &mut stats);
        }
        let base = SlotCandidates::compute(&tasks[0], &index, &cost);
        let held = base.get(0).expect("slot 0 has a candidate").worker;
        assert!(cache.holding_tasks(held) >= 1);
        // Evicting every task must leave no registration behind.
        for t in &tasks {
            cache.evict(t.id);
        }
        assert_eq!(cache.holding_tasks(held), 0);
        // Re-checkout and clear: same outcome.
        for t in &tasks {
            cache.checkout_base(t, &index, &cost, &mut stats);
        }
        assert!(cache.holding_tasks(held) >= 1);
        cache.clear();
        assert_eq!(cache.holding_tasks(held), 0);
    }

    #[test]
    fn remove_worker_releases_its_ledger_commitments() {
        use tcsc_index::MutableSpatialIndex;
        let (tasks, index, cost) = small_instance(88, 6, 20, 50);
        let mut engine = AssignmentEngine::new(index, &cost, MultiTaskConfig::new(60.0));
        let outcome = engine.assign_batch(&tasks, Objective::SumQuality);
        let exec = *outcome
            .assignment
            .plans
            .iter()
            .flat_map(|p| &p.executions)
            .next()
            .expect("the batch committed at least one execution");
        assert!(engine.ledger().is_occupied(exec.slot, exec.worker));
        let before = engine.ledger().len();
        assert!(engine.remove_worker(exec.worker).applied);
        assert!(!engine.ledger().is_occupied(exec.slot, exec.worker));
        assert!(engine.ledger().len() < before);
        assert!(engine.index().worker_profile(exec.worker).is_none());
    }

    #[test]
    fn churn_counters_accumulate_and_reset_on_drain() {
        use tcsc_core::{Location, Worker, WorkerId, WorkerSlot};
        let (tasks, index, cost) = small_instance(89, 4, 10, 40);
        let mut engine = AssignmentEngine::new(index, &cost, MultiTaskConfig::new(25.0));
        assert!(
            engine
                .move_worker(WorkerId(1), Location::new(10.0, 10.0))
                .applied
        );
        let fresh = Worker::new(
            WorkerId(500),
            vec![WorkerSlot {
                slot: 0,
                location: Location::new(1.0, 1.0),
            }],
        );
        assert!(engine.insert_worker(&fresh).applied);
        assert!(engine.remove_worker(WorkerId(2)).applied);
        // Rejected mutations leave the counters alone.
        assert!(!engine.remove_worker(WorkerId(2)).applied);
        let churn = engine.churn();
        assert_eq!(churn.ops, 3);
        assert!(churn.entries_touched > 0);
        assert!(churn.rebuild_equiv >= churn.entries_touched);
        engine.submit(tasks);
        engine.drain(Objective::SumQuality);
        assert_eq!(engine.churn(), ChurnCounters::default());
    }

    #[test]
    fn replace_index_prunes_unsupported_commitments() {
        use tcsc_core::WorkerPool;
        use tcsc_index::MutableSpatialIndex;
        let (tasks, workers, domain) = crate::multi::test_support::small_world(90, 6, 15, 60);
        let index = WorkerIndex::build(&workers, 15, &domain);
        let cost = EuclideanCost::default();
        let mut engine = AssignmentEngine::new(index, &cost, MultiTaskConfig::new(60.0));
        let outcome = engine.assign_batch(&tasks, Objective::SumQuality);
        let victim = outcome
            .assignment
            .plans
            .iter()
            .flat_map(|p| &p.executions)
            .next()
            .expect("at least one execution")
            .worker;
        let before = engine.ledger().len();
        // Rebuild from a pool without the victim: its commitments must go.
        let pruned: Vec<_> = workers
            .workers()
            .iter()
            .filter(|w| w.id != victim)
            .cloned()
            .collect();
        engine.replace_index(WorkerIndex::build(&WorkerPool::new(pruned), 15, &domain));
        assert!(engine.ledger().len() < before);
        assert!(engine.index().worker_profile(victim).is_none());
        assert!(
            engine.cache().is_empty(),
            "replace_index drops the cache cold"
        );
    }

    #[test]
    fn stats_accumulate_over_the_engine_lifetime() {
        let (tasks, index, cost) = small_instance(75, 4, 20, 100);
        let mut engine = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(30.0));
        let a = engine.assign_batch(&tasks, Objective::SumQuality);
        engine.release_all();
        let b = engine.assign_batch(&tasks, Objective::MinQuality);
        let total = engine.stats();
        assert_eq!(
            total.slot_computations,
            a.stats.slot_computations + b.stats.slot_computations
        );
        assert!(total.saved_slot_computations() > 0);
    }
}
