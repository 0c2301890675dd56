//! The batched / streaming multi-task assignment engine.
//!
//! A per-call solve would rebuild every piece of per-task candidate state
//! from scratch on each invocation: `TaskState::new` runs one index query
//! per slot, and nothing survives between calls even when the same tasks
//! are solved again (budget sweeps, objective comparisons, re-planning).
//! [`GreedyEngine`] is the long-lived alternative: it owns
//! (or borrows) a worker index, a persistent occupancy store and a
//! [`CandidateCache`] keyed by task, so that re-planning the same tasks
//! amortises the worker-cost-retrieval work across calls.
//!
//! # One engine, two indexes
//!
//! [`GreedyEngine`] is generic over its index `I` and its occupancy store
//! `L`, which implements [`Occupancy<I>`].  Two aliases name the supported
//! pairs:
//!
//! * [`AssignmentEngine`] — the dense [`WorkerIndex`] with a flat
//!   [`WorkerLedger`];
//! * [`ConcurrentAssignmentEngine`] — the [`ShardedWorkerIndex`] with a
//!   [`ShardedLedger`], whose commitments live in the tile owning the
//!   worker's location (see [`concurrent`]).
//!
//! Every method exists once, on the generic struct.  [`Occupancy`] owns all
//! that differs between the two stores: occupancy checks, claims and
//! releases (routed by the worker's location on the sharded side), the
//! nearest free worker of a slot, the ledger migration of a cross-tile move,
//! the re-routing after an index swap and the shard-router counters.  Only
//! three items are index-specific, and only for source compatibility with
//! existing callers: the dense `new(index, cost, config)`, the sharded
//! `new(index, cost, config, threads)` — whose thread count is ignored, the
//! engine runs on the calling thread — and the sharded
//! [`ConcurrentAssignmentEngine::drain_parallel`], a forward to
//! [`GreedyEngine::drain`].
//!
//! # Candidate cache
//!
//! * The cache stores, per task, the *base* per-slot candidates — the nearest
//!   worker per slot under an **empty** ledger.  Only the re-planning entry
//!   points ([`GreedyEngine::assign_batch`],
//!   [`GreedyEngine::assign_spatiotemporal`]) use it.  A drain checks its
//!   one-shot arrivals out with [`checkout_one_shot`]: one
//!   occupancy-filtered search per slot ([`Occupancy::nearest_free`]), so
//!   a one-shot slot costs one index search and no refresh.
//! * The base depends only on the index, and the index only changes through
//!   the engine's own mutation API ([`GreedyEngine::insert_worker`] /
//!   [`GreedyEngine::remove_worker`] / [`GreedyEngine::move_worker`])
//!   or an index swap, each of which clears the cache — so a cached base is
//!   always exact with respect to the current index.
//! * At a cache hit the base is cloned and reconciled with the engine's
//!   current ledger: only slots whose base candidate is occupied are
//!   recomputed (each a refresh); every other slot is served without
//!   touching the index.
//! * During a solve, the MSQM loop's heartbeat table (the one the
//!   task-parallel master decides through too) keeps a **reverse holder
//!   map** `(slot, worker) -> tasks whose best pending candidate targets
//!   that worker`.  Occupying a worker then refreshes exactly the affected
//!   tasks' slots instead of re-scanning (or worse, recomputing) every task.
//!
//! # Scratch
//!
//! The engine also owns the buffers its solves rebuild: a pool of
//! [`TaskState`]s re-initialised in place, the MSQM heartbeat table, the
//! MMQM heap and the commit loops' small buffers, plus the `pending`
//! queue's buffer.  A reused state is the state a fresh one would be, bit
//! for bit.  [`GreedyEngine::release_all`] drops the pooled states with the
//! ledger's commitments.
//!
//! # Determinism
//!
//! The engine's greedy loops are ports of the serial solvers with the holder
//! map replacing the serial `O(|T|)` invalidation scan.  A task is in the
//! holder set of `(slot, worker)` if and only if its cached best candidate
//! targets `(slot, worker)` — exactly the predicate of the serial scan — so
//! the engine performs the *same* candidate refreshes, counts the *same*
//! conflicts and executes the *same* subtasks in the same order.  On a fresh
//! engine, [`GreedyEngine::assign_batch`] is bit-identical to the
//! rebuild-per-call greedies that recompute every candidate and every best
//! candidate from scratch; `tests/engine_equivalence.rs` locks this against
//! test-local ports of them.  The sharded
//! index is a tile-routed view over the dense one, so the two aliases
//! commit the same plans with the same counters on the same history, for
//! any shard grid (`tests/concurrent_equivalence.rs`).

pub(crate) mod commit;
pub mod concurrent;

use std::borrow::Cow;
use std::collections::HashMap;

use tcsc_core::{
    CandidateAssignment, CostModel, Domain, ExecutedSubtask, InterpolationWeights, Location,
    MultiAssignment, QualityParams, SlotIndex, SpatioTemporalEvaluator, Task, TaskId, Worker,
    WorkerId,
};
use tcsc_index::{
    IndexMutation, MutableSpatialIndex, ShardedWorkerIndex, SpatialQuery, WorkerIndex,
};
use tcsc_obs::{NoopRecorder, Recorder, Stopwatch};

use crate::candidates::{candidate_for_slot, SlotCandidates, WorkerLedger};
use crate::engine::commit::{mmqm_commit_loop, msqm_commit_loop, Scratch};
pub use crate::engine::concurrent::ShardedLedger;
use crate::multi::{heuristic, MultiOutcome, MultiTaskConfig, TaskState};

/// Which aggregate objective a solve maximises: the temporal metric of
/// `assign_batch`/`drain`, or the interpolated one of `assign_spatiotemporal`.
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
/// (initial builds plus refreshes); a fresh engine pays one per slot of every
/// task it plans, so comparing it against a long-lived engine's count shows
/// what the candidate cache saved.
///
/// The refresh-accounting block (`full_refreshes`, `incremental_patches`,
/// `stale_pops`, `commit_rescores`, `refresh_nanos`, `warm_nanos`) measures
/// the best-candidate work of the commit loop — the warm start, and the
/// *commit tail* beyond it that each task's gain ledger (behind
/// [`TaskState::best_candidate`](crate::TaskState::best_candidate)) attacks.
/// Those fields are **measurement, not behaviour**: different drivers of the
/// same plan (engine greedy vs task-parallel master vs simulated cluster)
/// legitimately issue different best-candidate request sequences, so the
/// refresh block is excluded from `PartialEq` and from every bit-identity
/// contract.  Its counts are kept by every driver, with or without a
/// recorder; its two times are taken only by the engine's commit loops and
/// only under a live recorder, and read 0 everywhere else.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Tasks whose candidates were computed from scratch (cache misses).
    pub tasks_computed: usize,
    /// Tasks whose candidates were served from the cache (cache hits).
    pub tasks_reused: usize,
    /// Per-slot candidate computations actually performed against the index.
    pub slot_computations: usize,
    /// Subset of `slot_computations` that were occupancy-driven refreshes:
    /// a cache hit's slots whose base worker is taken, and in-run worker
    /// conflicts.  A one-shot checkout searches each slot once against the
    /// ledger and counts none.
    pub slot_refreshes: usize,
    /// Zero-cost fallback searches: best-candidate requests the gain ledger
    /// handed to the V-tree's best-first search because the top candidate
    /// costs 0 (indexed states only).
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
    /// Nanoseconds spent in commit-tail refresh work: every best-candidate
    /// request after a task's first (ledger pops and fallback searches) and
    /// every gain-ledger patch.  Timed by the engine's commit loops under a
    /// live recorder only; 0 otherwise.
    pub refresh_nanos: u64,
    /// Nanoseconds spent in each task's warm start (its first best-candidate
    /// request, which `refresh_nanos` leaves out); timed like
    /// `refresh_nanos`.  Both run inside the `engine.commit` span, so
    /// `warm_nanos + refresh_nanos` never exceeds it; the remainder is the
    /// commit loop's own work.
    pub warm_nanos: u64,
    /// Slot partial qualities the tasks' V-trees computed: `m` per tree at
    /// construction, then one per slot an execution changed.  A work
    /// counter, excluded from `PartialEq` like the refresh block.
    pub vtree_recomputed_slots: usize,
    /// Nodes the tasks' V-trees allocated: one per tree at construction,
    /// then the children of every split an execution caused.
    pub vtree_nodes_built: usize,
}

/// Equality covers the candidate-computation counters only; the refresh
/// accounting is a per-driver measurement (see the struct docs).
impl PartialEq for CacheStats {
    fn eq(&self, other: &Self) -> bool {
        self.tasks_computed == other.tasks_computed
            && self.tasks_reused == other.tasks_reused
            && self.slot_computations == other.slot_computations
            && self.slot_refreshes == other.slot_refreshes
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
        self.full_refreshes += other.full_refreshes;
        self.incremental_patches += other.incremental_patches;
        self.stale_pops += other.stale_pops;
        self.commit_rescores += other.commit_rescores;
        self.refresh_nanos += other.refresh_nanos;
        self.warm_nanos += other.warm_nanos;
        self.vtree_recomputed_slots += other.vtree_recomputed_slots;
        self.vtree_nodes_built += other.vtree_nodes_built;
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
    /// Cached candidate slots discarded by the mutations' cache clears.
    pub cache_refreshes: u64,
}

impl ChurnCounters {
    fn note(&mut self, mutation: &IndexMutation, discarded_slots: usize) {
        self.ops += 1;
        self.entries_touched += mutation.entries_touched as u64;
        self.rebuild_equiv += mutation.rebuild_equiv_entries as u64;
        self.cache_refreshes += discarded_slots as u64;
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

/// Per-task memo of base candidates for re-planning: each task's *base*
/// [`SlotCandidates`], the per-slot nearest workers under an empty ledger.
/// See the [module docs](self) for who consults it and why a cached base is
/// always exact.
#[derive(Debug, Default)]
pub struct CandidateCache {
    base: HashMap<TaskId, (Task, SlotCandidates)>,
}

impl CandidateCache {
    /// Number of cached tasks.
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Drops every cached entry (the index changed underneath it), returning
    /// the number of cached candidate slots discarded.
    pub fn clear(&mut self) -> usize {
        let slots = self.base.values().map(|(_, base)| base.len()).sum();
        self.base.clear();
        slots
    }

    /// Checks a task's *base* candidates out of the cache into `out`: a copy
    /// of the per-slot nearest workers under an empty ledger, computed (and
    /// retained) on a miss.  A cached entry is only reused when the stored
    /// task is identical to the queried one, so id reuse across different
    /// tasks falls back to a recompute instead of serving wrong candidates.
    fn checkout_base(
        &mut self,
        task: &Task,
        index: &dyn SpatialQuery,
        cost_model: &dyn CostModel,
        stats: &mut CacheStats,
        out: &mut SlotCandidates,
    ) {
        if let Some((cached, base)) = self.base.get(&task.id) {
            if cached == task {
                stats.tasks_reused += 1;
                out.clone_from(base);
                return;
            }
        }
        compute_base(task, index, cost_model, stats, out);
        self.base.insert(task.id, (task.clone(), out.clone()));
    }
}

/// A task's base candidates computed straight from the index into `out`,
/// counted as a cache miss — what a drain pays for every one-shot arrival.
pub(crate) fn compute_base(
    task: &Task,
    index: &dyn SpatialQuery,
    cost_model: &dyn CostModel,
    stats: &mut CacheStats,
    out: &mut SlotCandidates,
) {
    stats.tasks_computed += 1;
    stats.slot_computations += task.num_slots;
    out.fill(task, index, cost_model, &WorkerLedger::new());
}

/// Reconciles cached base candidates with `ledger` in place: every slot
/// whose base candidate is occupied is recomputed against the ledger, every
/// other slot is kept.
fn reconcile<I, L: Occupancy<I>>(
    task: &Task,
    working: &mut SlotCandidates,
    index: &I,
    cost_model: &dyn CostModel,
    ledger: &L,
    stats: &mut CacheStats,
) {
    for slot in 0..working.len() {
        // A `None` base candidate means the slot has no worker at all;
        // occupancy can only shrink availability, so it stays `None`.
        if working.get(slot).is_some_and(|c| ledger.is_taken(index, c)) {
            working.set(slot, ledger.nearest_free(index, task, slot, cost_model));
            stats.slot_computations += 1;
            stats.slot_refreshes += 1;
        }
    }
}

/// A one-shot arrival's working candidates into `out`, counted as a cache
/// miss: one occupancy-filtered search per slot, so the answer is the base
/// reconciled against `ledger` at one index search per slot.
fn checkout_one_shot_into<I: MutableSpatialIndex, L: Occupancy<I>>(
    task: &Task,
    index: &I,
    cost_model: &dyn CostModel,
    ledger: &L,
    stats: &mut CacheStats,
    out: &mut SlotCandidates,
) {
    stats.tasks_computed += 1;
    stats.slot_computations += task.num_slots;
    out.fill_with(task.num_slots, |slot| {
        ledger.nearest_free(index, task, slot, cost_model)
    });
}

/// A one-shot arrival's working candidates, checked out the way a drain
/// checks them out: each slot's nearest worker that is free in `ledger`,
/// one index search per slot, counted as a cache miss.
pub fn checkout_one_shot<I: MutableSpatialIndex, L: Occupancy<I>>(
    task: &Task,
    index: &I,
    cost_model: &dyn CostModel,
    ledger: &L,
    stats: &mut CacheStats,
) -> SlotCandidates {
    let mut working = SlotCandidates::default();
    checkout_one_shot_into(task, index, cost_model, ledger, stats, &mut working);
    working
}

/// Where `index` holds `worker` during `slot`, if it does.
pub(crate) fn location_at(
    index: &impl MutableSpatialIndex,
    worker: WorkerId,
    slot: SlotIndex,
) -> Option<Location> {
    let profile = index.worker_profile(worker)?;
    profile
        .entries
        .into_iter()
        .find(|(s, _)| *s == slot)
        .map(|(_, at)| at)
}

/// The occupancy store of a [`GreedyEngine`] over index `I`: which
/// `(slot, worker)` pairs are committed, and everything about them that
/// depends on how the index lays its workers out.
///
/// [`WorkerLedger`] implements it for any [`MutableSpatialIndex`]
/// (occupancy keyed on `(slot, worker)` alone); [`ShardedLedger`] implements it for the
/// [`ShardedWorkerIndex`], routing each commitment to the tile owning the
/// worker's location.
pub trait Occupancy<I> {
    /// An empty store laid out for `index`.
    fn empty_for(index: &I) -> Self;

    /// Number of `(slot, worker)` commitments held.
    fn held(&self) -> usize;

    /// Releases every commitment, keeping the store laid out for the index
    /// it serves.
    fn clear(&mut self);

    /// Whether the candidate's worker is occupied at the candidate's slot.
    fn is_taken(&self, index: &I, candidate: &CandidateAssignment) -> bool;

    /// Occupies the candidate's `(slot, worker)`.
    fn take(&mut self, index: &I, candidate: &CandidateAssignment);

    /// Releases `worker`'s commitment at `slot`, routed by the worker's
    /// current location in `index`.  Returns whether it was held.
    fn release(&mut self, index: &I, slot: SlotIndex, worker: WorkerId) -> bool;

    /// The nearest worker of `index` that is free during `slot`, priced for
    /// `task`.
    fn nearest_free(
        &self,
        index: &I,
        task: &Task,
        slot: SlotIndex,
        cost_model: &dyn CostModel,
    ) -> Option<CandidateAssignment>;

    /// Moves a worker inside `index`, carrying along whatever of the store
    /// depends on the worker's location.
    fn relocate(&mut self, index: &mut I, id: WorkerId, to: Location) -> IndexMutation;

    /// Re-routes every commitment through a freshly swapped-in `index`: a
    /// commitment survives iff the index still holds its worker at its slot.
    fn reroute(&mut self, index: &I);

    /// Publishes the routing counters of one checkout of `tasks` (none by
    /// default).
    fn count_routing(&self, _index: &I, _tasks: &[Task], _obs: &impl Recorder) {}
}

/// The flat ledger is location-blind: moves leave it alone, and it serves
/// any index through the occupancy-set k-NN query.
impl<I: MutableSpatialIndex> Occupancy<I> for WorkerLedger {
    fn empty_for(_index: &I) -> Self {
        WorkerLedger::new()
    }

    fn held(&self) -> usize {
        self.len()
    }

    fn clear(&mut self) {
        WorkerLedger::clear(self);
    }

    fn is_taken(&self, _index: &I, candidate: &CandidateAssignment) -> bool {
        self.is_occupied(candidate.slot, candidate.worker)
    }

    fn take(&mut self, _index: &I, candidate: &CandidateAssignment) {
        self.occupy(candidate.slot, candidate.worker);
    }

    fn release(&mut self, _index: &I, slot: SlotIndex, worker: WorkerId) -> bool {
        WorkerLedger::release(self, slot, worker)
    }

    fn nearest_free(
        &self,
        index: &I,
        task: &Task,
        slot: SlotIndex,
        cost_model: &dyn CostModel,
    ) -> Option<CandidateAssignment> {
        candidate_for_slot(task, slot, index, cost_model, self)
    }

    fn relocate(&mut self, index: &mut I, id: WorkerId, to: Location) -> IndexMutation {
        index.move_worker(id, to)
    }

    fn reroute(&mut self, index: &I) {
        for (slot, worker) in self.commitments() {
            if location_at(index, worker, slot).is_none() {
                WorkerLedger::release(self, slot, worker);
            }
        }
    }
}

/// Long-lived batched / streaming multi-task assignment engine over index
/// `I` with occupancy store `L`; use it through [`AssignmentEngine`] or
/// [`ConcurrentAssignmentEngine`].
///
/// Owns (or borrows) the worker index, a persistent occupancy store and the
/// [`CandidateCache`]; see the [module docs](self) for the cache rules and
/// the determinism argument.
///
/// * [`GreedyEngine::assign_batch`] solves one task batch against the
///   current ledger and commits the resulting occupancy.
/// * [`GreedyEngine::submit`] / [`GreedyEngine::drain`] accept task
///   arrivals across rounds and solve them batch-wise; occupancy persists
///   between rounds so a worker granted in round `r` is unavailable in round
///   `r + 1`.
/// * [`GreedyEngine::release_all`] frees every commitment (re-planning),
///   while the candidate cache keeps amortising index lookups.
///
/// The engine is generic over a [`Recorder`]; the default
/// [`NoopRecorder`] compiles every instrumentation site away
/// (`R::IS_ENABLED` is a `const`), so observability is free unless a live
/// session is attached via [`GreedyEngine::with_recorder`].
pub struct GreedyEngine<'a, I: Clone, L, R: Recorder = NoopRecorder> {
    index: Cow<'a, I>,
    cost_model: &'a dyn CostModel,
    config: MultiTaskConfig,
    ledger: L,
    cache: CandidateCache,
    pending: Vec<Task>,
    scratch: Scratch,
    lifetime_stats: CacheStats,
    churn: ChurnCounters,
    obs: R,
}

/// The engine on the dense [`WorkerIndex`] with a flat [`WorkerLedger`].
pub type AssignmentEngine<'a, R = NoopRecorder> = GreedyEngine<'a, WorkerIndex, WorkerLedger, R>;

/// The engine on the [`ShardedWorkerIndex`] with a per-tile
/// [`ShardedLedger`]; commits what [`AssignmentEngine`] commits on the same
/// history, for any shard grid.
pub type ConcurrentAssignmentEngine<'a, R = NoopRecorder> =
    GreedyEngine<'a, ShardedWorkerIndex, ShardedLedger, R>;

impl<'a> AssignmentEngine<'a> {
    /// An engine owning its worker index (the long-lived serving setup).
    pub fn new(index: WorkerIndex, cost_model: &'a dyn CostModel, config: MultiTaskConfig) -> Self {
        Self::from_cow(Cow::Owned(index), cost_model, config)
    }
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
        Self::from_cow(Cow::Owned(index), cost_model, config)
    }
}

impl<R: Recorder> ConcurrentAssignmentEngine<'_, R> {
    /// Same as [`GreedyEngine::drain`].
    pub fn drain_parallel(&mut self, objective: Objective) -> MultiOutcome {
        self.drain(objective)
    }
}

impl<'a, I: MutableSpatialIndex + Clone, L: Occupancy<I>> GreedyEngine<'a, I, L> {
    /// An engine borrowing a caller-owned worker index (the cheap,
    /// per-call construction used by the [`crate::multi`] solver wrappers).
    pub fn borrowed(index: &'a I, cost_model: &'a dyn CostModel, config: MultiTaskConfig) -> Self {
        Self::from_cow(Cow::Borrowed(index), cost_model, config)
    }

    fn from_cow(index: Cow<'a, I>, cost_model: &'a dyn CostModel, config: MultiTaskConfig) -> Self {
        Self {
            ledger: L::empty_for(&index),
            index,
            cost_model,
            config,
            cache: CandidateCache::default(),
            pending: Vec::new(),
            scratch: Scratch::default(),
            lifetime_stats: CacheStats::default(),
            churn: ChurnCounters::default(),
            obs: NoopRecorder,
        }
    }
}

impl<'a, I: MutableSpatialIndex + Clone, L: Occupancy<I>, R: Recorder> GreedyEngine<'a, I, L, R> {
    /// Rebinds the engine to a live recorder (checkout/commit spans, cache
    /// and refresh counters, batch-latency histograms).  The committed
    /// plans/conflicts/executions are bit-identical with any recorder —
    /// locked by `tests/obs_noop_equivalence.rs`.
    pub fn with_recorder<R2: Recorder>(self, obs: R2) -> GreedyEngine<'a, I, L, R2> {
        GreedyEngine {
            index: self.index,
            cost_model: self.cost_model,
            config: self.config,
            ledger: self.ledger,
            cache: self.cache,
            pending: self.pending,
            scratch: self.scratch,
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
        for (name, count) in [
            ("cache.hits", stats.tasks_reused),
            ("cache.misses", stats.tasks_computed),
            ("engine.slot_computations", stats.slot_computations),
            ("engine.slot_refreshes", stats.slot_refreshes),
            ("engine.commit_rescores", stats.commit_rescores),
            ("engine.full_refreshes", stats.full_refreshes),
            ("engine.incremental_patches", stats.incremental_patches),
            ("engine.stale_pops", stats.stale_pops),
            ("engine.conflicts", outcome.conflicts),
            ("engine.executions", outcome.executions),
        ] {
            self.obs.counter(name, count as u64);
        }
        self.obs.value("engine.batch_ns", batch_nanos);
        self.obs.value("engine.warm_start_ns", stats.warm_nanos);
        if outcome.executions > 0 {
            self.obs.value(
                "engine.grant_refresh_ns",
                stats.refresh_nanos / outcome.executions as u64,
            );
        }
    }

    /// The engine's worker index.
    pub fn index(&self) -> &I {
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

    /// The persistent occupancy store.
    pub fn ledger(&self) -> &L {
        &self.ledger
    }

    /// The candidate cache.
    pub fn cache(&mut self) -> &mut CandidateCache {
        &mut self.cache
    }

    /// Accumulated candidate-computation counters over the engine's lifetime.
    pub fn stats(&self) -> CacheStats {
        self.lifetime_stats
    }

    /// Releases every occupancy commitment while keeping the candidate cache
    /// warm (re-planning the same scenario under a different budget or
    /// objective).  The ledger is emptied in place, and the pooled task
    /// states are dropped with it, so a re-planning engine holds no more
    /// memory between solves than its cache and ledger need.
    pub fn release_all(&mut self) {
        self.ledger.clear();
        self.scratch.states.clear();
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
            .filter(|exec| self.ledger.release(&self.index, exec.slot, exec.worker))
            .count();
        if R::IS_ENABLED && released > 0 {
            self.obs.counter("engine.released", released as u64);
            self.obs
                .gauge("engine.ledger_size", self.ledger.held() as u64);
        }
        released
    }

    /// Inserts a worker into the engine's index (an offline worker coming
    /// online) and clears the candidate cache.  Rejected
    /// (`applied == false`) and a no-op when a worker with the same id is
    /// already registered.
    pub fn insert_worker(&mut self, worker: &Worker) -> IndexMutation {
        let mutation = self.index.to_mut().insert_worker(worker);
        self.note_mutation(&mutation);
        mutation
    }

    /// Removes a worker from the engine's index (going offline), releasing
    /// its ledger commitments at every in-horizon slot and clearing the
    /// candidate cache.  Rejected and a no-op for an unknown id.
    pub fn remove_worker(&mut self, id: WorkerId) -> IndexMutation {
        // Release while the index still knows where the worker is: the
        // sharded ledger routes each commitment by that location.
        if let Some(profile) = self.index.worker_profile(id) {
            for (slot, _) in &profile.entries {
                self.ledger.release(&self.index, *slot, id);
            }
        }
        let mutation = self.index.to_mut().remove_worker(id);
        self.note_mutation(&mutation);
        mutation
    }

    /// Moves a worker: every availability entry relocates to `to` inside the
    /// index (a tile-local splice, not a rebuild), the occupancy store
    /// follows the move (the sharded ledger migrates the worker's
    /// commitments when it crossed a tile) and the candidate cache is
    /// cleared.  Rejected and a no-op for an unknown id.
    pub fn move_worker(&mut self, id: WorkerId, to: Location) -> IndexMutation {
        let mutation = self.ledger.relocate(self.index.to_mut(), id, to);
        self.note_mutation(&mutation);
        mutation
    }

    /// An applied mutation changed the index under every cached base: the
    /// cache is cleared and the churn counters note the discarded slots.
    fn note_mutation(&mut self, mutation: &IndexMutation) {
        if mutation.applied {
            let discarded = self.cache.clear();
            self.churn.note(mutation, discarded);
        }
    }

    /// Swaps in a freshly built index — the rebuild-per-drain baseline the
    /// mutation API above replaces.  The candidate cache is dropped cold, and
    /// ledger commitments the new index no longer supports (worker absent, or
    /// no longer available at the slot) are released, matching what the
    /// in-place path's `remove_worker` releases; the rest are re-routed
    /// through the new index.  (An id removed and later re-registered *with
    /// the same slot* is indistinguishable from one that never left — avoid
    /// recycling worker ids across a rebuild.)
    pub fn replace_index(&mut self, index: I) {
        self.index = Cow::Owned(index);
        self.cache.clear();
        self.ledger.reroute(&self.index);
    }

    /// The index-churn counters accumulated since the last drain.
    pub fn churn(&self) -> ChurnCounters {
        self.churn
    }

    /// Queues task arrivals for the next [`GreedyEngine::drain`].
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
    /// submission rounds at once commits what one
    /// [`GreedyEngine::assign_batch`] call on the concatenated tasks
    /// commits.
    ///
    /// Streamed arrivals are one-shot: their plans are final and they never
    /// re-arrive, so a drain computes their candidates directly and never
    /// reads or fills the candidate cache.  (Re-planning workloads that *do*
    /// re-solve the same tasks should use [`GreedyEngine::assign_batch`],
    /// which keeps the cache warm.)
    pub fn drain(&mut self, objective: Objective) -> MultiOutcome {
        let mut tasks = std::mem::take(&mut self.pending);
        let drained = tasks.len() as u64;
        if R::IS_ENABLED {
            self.obs.begin("engine.drain", drained);
        }
        let outcome = self.solve(tasks.len(), |engine| engine.run(&tasks, objective, false));
        // The queue's buffer serves the next round's arrivals.
        tasks.clear();
        self.pending = tasks;
        if R::IS_ENABLED {
            self.obs.end("engine.drain", drained);
            // Post-drain service levels: what is queued, held and cached
            // *now* — the SLO gauges a live dashboard samples per drain.
            self.obs
                .gauge("engine.queue_depth", self.pending.len() as u64);
            self.obs
                .gauge("engine.ledger_size", self.ledger.held() as u64);
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
    /// to a rebuild-per-call greedy (see the [module docs](self)); the
    /// candidate cache only changes *how* candidates are obtained, never
    /// *which* candidates the greedy sees.
    pub fn assign_batch(&mut self, tasks: &[Task], objective: Objective) -> MultiOutcome {
        self.solve(tasks.len(), |engine| engine.run(tasks, objective, true))
    }

    /// The one instrumented solve of a batch of `batch` tasks, which every
    /// entry point goes through: `run` computes the outcome, whose counters
    /// join the lifetime stats and, under a live recorder, the
    /// `engine.assign_batch` span and the published metrics.
    fn solve(&mut self, batch: usize, run: impl FnOnce(&mut Self) -> MultiOutcome) -> MultiOutcome {
        if R::IS_ENABLED {
            self.obs.begin("engine.assign_batch", batch as u64);
        }
        let sw = R::IS_ENABLED.then(Stopwatch::start);
        let outcome = run(self);
        self.lifetime_stats.merge(&outcome.stats);
        if R::IS_ENABLED {
            self.publish_metrics(&outcome, sw.map_or(0, |s| s.elapsed_nanos()));
            self.obs.end("engine.assign_batch", batch as u64);
        }
        outcome
    }

    /// Checks each task's working candidates out into the first
    /// `tasks.len()` pooled states, growing the pool as needed: the cached
    /// base reconciled against the current ledger when `cached`, else one
    /// occupancy-filtered search per slot ([`checkout_one_shot`]).  The
    /// states themselves are not reset.
    fn checkout(&mut self, tasks: &[Task], cached: bool, stats: &mut CacheStats) {
        if R::IS_ENABLED {
            self.ledger.count_routing(&self.index, tasks, &self.obs);
        }
        let index = self.index.as_ref();
        // Counted once per checkout: the sharded count locks every shard.
        let occupied = cached && self.ledger.held() > 0;
        let states = &mut self.scratch.states;
        for (i, task) in tasks.iter().enumerate() {
            if i == states.len() {
                states.push(TaskState::blank(task, &self.config));
            }
            let working = &mut states[i].candidates;
            if cached {
                self.cache
                    .checkout_base(task, index, self.cost_model, stats, working);
                if occupied {
                    reconcile(task, working, index, self.cost_model, &self.ledger, stats);
                }
            } else {
                let (cost_model, ledger) = (self.cost_model, &self.ledger);
                checkout_one_shot_into(task, index, cost_model, ledger, stats, working);
            }
        }
    }

    /// Checkout and state reset, then the MSQM or MMQM commit loop over the
    /// pooled states.  `cached` selects whether base candidates go through
    /// the candidate cache (re-planning) or are computed directly (drains).
    fn run(&mut self, tasks: &[Task], objective: Objective, cached: bool) -> MultiOutcome {
        let mut stats = CacheStats::default();
        if R::IS_ENABLED {
            self.obs.begin("engine.checkout", tasks.len() as u64);
        }
        self.checkout(tasks, cached, &mut stats);
        if R::IS_ENABLED {
            self.obs.end("engine.checkout", tasks.len() as u64);
            self.obs.begin("state.build", tasks.len() as u64);
        }
        for (state, task) in self.scratch.states.iter_mut().zip(tasks) {
            state.reset(task, &self.config);
        }
        if R::IS_ENABLED {
            self.obs.end("state.build", tasks.len() as u64);
            self.obs.begin("engine.commit", tasks.len() as u64);
        }
        let (index, budget, n) = (self.index.as_ref(), self.config.budget, tasks.len());
        let (scratch, ledger) = (&mut self.scratch, &mut self.ledger);
        let (conflicts, executions) = match objective {
            Objective::SumQuality => msqm_commit_loop::<_, _, R>(
                scratch,
                n,
                budget,
                index,
                self.cost_model,
                ledger,
                &mut stats,
            ),
            Objective::MinQuality => mmqm_commit_loop::<_, _, R>(
                scratch,
                n,
                budget,
                index,
                self.cost_model,
                ledger,
                &mut stats,
            ),
        };
        let states = &mut self.scratch.states[..n];
        // States are reset per solve, so each state's counters are merged
        // once.
        for state in states.iter() {
            stats.merge(&state.stats());
        }
        if R::IS_ENABLED {
            self.obs.end("engine.commit", tasks.len() as u64);
        }

        let assignment =
            MultiAssignment::new(states.iter_mut().map(TaskState::take_plan).collect());
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
        objective: Objective,
    ) -> MultiOutcome {
        self.solve(tasks.len(), |engine| {
            engine.run_spatiotemporal(tasks, domain, weights, objective)
        })
    }

    fn run_spatiotemporal(
        &mut self,
        tasks: &[Task],
        domain: &Domain,
        weights: InterpolationWeights,
        objective: Objective,
    ) -> MultiOutcome {
        let Some(num_slots) = tasks.first().map(|t| t.num_slots) else {
            return MultiOutcome::default();
        };
        assert!(
            tasks.iter().all(|t| t.num_slots == num_slots),
            "SApprox requires tasks with a uniform number of slots"
        );

        let config = self.config;
        let reliability_of = |candidate: &CandidateAssignment| {
            if config.use_reliability {
                candidate.reliability
            } else {
                1.0
            }
        };
        let mut evaluator = SpatioTemporalEvaluator::new(
            tasks.iter().map(|t| t.location).collect(),
            QualityParams::new(num_slots, config.k),
            *domain,
            weights,
        );
        let mut stats = CacheStats::default();
        self.checkout(tasks, true, &mut stats);
        let states = &mut self.scratch.states;
        let mut executions_log: Vec<Vec<ExecutedSubtask>> = vec![Vec::new(); tasks.len()];
        // The task visit order, `(quality, task)`: task order for the sum
        // objective, weakest first for the min objective (ties to the lower
        // index).
        let mut order: Vec<(f64, usize)> = Vec::with_capacity(tasks.len());
        let mut remaining = config.budget;
        let mut conflicts = 0usize;
        let mut executions = 0usize;

        loop {
            order.clear();
            match objective {
                Objective::SumQuality => order.extend((0..tasks.len()).map(|i| (0.0, i))),
                Objective::MinQuality => {
                    order.extend((0..tasks.len()).map(|i| (evaluator.task_quality(i), i)));
                    order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                }
            }
            // Candidate search: the (task, slot) pair maximising the
            // objective increase per unit cost among affordable pairs.
            let mut best: Option<(usize, usize, f64)> = None; // (task, slot, heuristic)
            for &(_, task_idx) in &order {
                for slot in 0..num_slots {
                    if evaluator.is_executed(task_idx, slot) {
                        continue;
                    }
                    let Some(candidate) = states[task_idx].candidates.get(slot) else {
                        continue;
                    };
                    if candidate.cost > remaining {
                        continue;
                    }
                    let reliability = reliability_of(candidate);
                    let gain = match objective {
                        Objective::SumQuality => {
                            evaluator.sum_gain_if_executed(task_idx, slot, reliability)
                        }
                        Objective::MinQuality => {
                            evaluator.task_gain_if_executed(task_idx, slot, reliability)
                        }
                    };
                    let h = heuristic(gain, candidate.cost);
                    if best.map_or(true, |(_, _, bh)| h > bh) {
                        best = Some((task_idx, slot, h));
                    }
                }
                // For the min objective only the weakest task with any
                // affordable candidate is reinforced, mirroring the MMQM
                // loop.
                if matches!(objective, Objective::MinQuality) && best.is_some() {
                    break;
                }
            }

            let Some((task_idx, slot, _)) = best else {
                break;
            };
            let candidate = *states[task_idx]
                .candidates
                .get(slot)
                .expect("selected candidate exists");
            // Worker conflict: fall back to the next nearest worker.
            if self.ledger.is_taken(&self.index, &candidate) {
                conflicts += 1;
                states[task_idx].candidates.set(
                    slot,
                    self.ledger
                        .nearest_free(&self.index, &tasks[task_idx], slot, self.cost_model),
                );
                stats.slot_computations += 1;
                stats.slot_refreshes += 1;
                continue;
            }
            remaining -= candidate.cost;
            self.ledger.take(&self.index, &candidate);
            evaluator.execute(task_idx, slot, reliability_of(&candidate));
            executions_log[task_idx].push(ExecutedSubtask {
                slot,
                worker: candidate.worker,
                cost: candidate.cost,
                reliability: candidate.reliability,
            });
            executions += 1;
        }

        let plans = tasks
            .iter()
            .zip(executions_log)
            .enumerate()
            .map(|(i, (task, executions))| tcsc_core::AssignmentPlan {
                task: task.id,
                num_slots,
                quality: evaluator.task_quality(i),
                executions,
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

impl<I: MutableSpatialIndex + Clone, L: Occupancy<I>, R: Recorder> std::fmt::Debug
    for GreedyEngine<'_, I, L, R>
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GreedyEngine")
            .field("config", &self.config)
            .field("ledger_commitments", &self.ledger.held())
            .field("cache_entries", &self.cache.len())
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
    fn drains_leave_the_cache_alone() {
        // A drain computes its one-shot arrivals directly: it neither serves
        // them from the cache nor inserts or evicts entries.
        let (tasks, index, cost) = small_instance(76, 9, 15, 120);
        let mut engine = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(50.0));
        let batch = engine.assign_batch(&tasks[..3], Objective::SumQuality);
        assert_eq!(engine.cache().len(), 3);
        engine.release_all();
        engine.submit(tasks[..3].to_vec());
        let drained = engine.drain(Objective::SumQuality);
        assert_eq!(drained, batch, "a drain counts every arrival as a miss");
        assert_eq!(
            engine.cache().len(),
            3,
            "the drain left the cache as it was"
        );
    }

    #[test]
    fn worker_mutations_clear_the_cache() {
        use tcsc_core::{Location, WorkerId};
        let (tasks, index, cost) = small_instance(86, 6, 12, 60);
        let cfg = MultiTaskConfig::new(40.0);
        let mut engine = AssignmentEngine::new(index, &cost, cfg);
        engine.assign_batch(&tasks, Objective::SumQuality);
        let cached_slots: usize = tasks.iter().map(|t| t.num_slots).sum();
        assert_eq!(engine.cache().len(), tasks.len());

        assert!(engine.move_worker(WorkerId(3), tasks[0].location).applied);
        assert_eq!(engine.cache().len(), 0);
        assert_eq!(engine.churn().cache_refreshes, cached_slots as u64);

        // The next batch recomputes every task and plans exactly what a fresh
        // engine plans on the mutated index under the same ledger history.
        engine.release_all();
        let mut fresh = AssignmentEngine::new(engine.index().clone(), &cost, cfg);
        let replanned = engine.assign_batch(&tasks, Objective::SumQuality);
        assert_eq!(replanned.stats.tasks_computed, tasks.len());
        assert_eq!(replanned, fresh.assign_batch(&tasks, Objective::SumQuality));

        // A rejected mutation keeps the cache.
        assert!(
            !engine
                .move_worker(WorkerId(9999), Location::new(0.0, 0.0))
                .applied
        );
        assert_eq!(engine.cache().len(), tasks.len());
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
        // The second solve is served from the cache.
        assert!(b.stats.slot_computations < a.stats.slot_computations);
    }

    /// One engine drains an alternating stream of 2-slot and 96-slot
    /// batches under both objectives, emptying its ledger between drains by
    /// `release_all` (which drops the pooled states) or by retiring every
    /// plan (which keeps them); every drain must commit what a fresh engine
    /// commits for the same batch.
    fn assert_reuse_matches_fresh<'a, I: MutableSpatialIndex + Clone, L: Occupancy<I>>(
        mut engine: GreedyEngine<'a, I, L>,
        fresh_engine: impl Fn() -> GreedyEngine<'a, I, L>,
    ) {
        let (long, _, _) = crate::multi::test_support::small_world(93, 12, 96, 0);
        let short: Vec<Task> = long
            .iter()
            .map(|t| Task::new(TaskId(t.id.0 + 100), t.location, 2))
            .collect();
        let mut conflicts = 0;
        for round in 0..8 {
            let batch = if round % 2 == 0 { &short } else { &long };
            let objective = if round % 4 < 2 {
                Objective::SumQuality
            } else {
                Objective::MinQuality
            };
            engine.submit(batch.clone());
            let reused = engine.drain(objective);
            let mut fresh = fresh_engine();
            fresh.submit(batch.clone());
            assert_eq!(reused, fresh.drain(objective), "round {round}");
            assert!(reused.executions > 0, "round {round}");
            conflicts += reused.conflicts;
            if round % 3 == 0 {
                engine.release_all();
            } else {
                for plan in &reused.assignment.plans {
                    engine.release_plan(plan);
                }
            }
            assert_eq!(engine.ledger().held(), 0, "round {round}");
        }
        assert!(conflicts > 0, "the stream exercises the conflict patches");
    }

    #[test]
    fn a_reused_engine_commits_what_a_fresh_engine_commits() {
        let (_, workers, domain) = crate::multi::test_support::small_world(94, 0, 96, 400);
        let cost = EuclideanCost::default();
        let cfg = MultiTaskConfig::new(60.0);
        let dense = WorkerIndex::build(&workers, 96, &domain);
        assert_reuse_matches_fresh(AssignmentEngine::borrowed(&dense, &cost, cfg), || {
            AssignmentEngine::borrowed(&dense, &cost, cfg)
        });
        let grid = tcsc_index::ShardGridConfig::new(3, 3);
        let sharded = ShardedWorkerIndex::build(&workers, 96, &domain, grid);
        assert_reuse_matches_fresh(
            ConcurrentAssignmentEngine::borrowed(&sharded, &cost, cfg),
            || ConcurrentAssignmentEngine::borrowed(&sharded, &cost, cfg),
        );
    }

    #[test]
    fn warm_start_and_refresh_time_fit_inside_the_commit_span() {
        let (tasks, index, cost) = small_instance(76, 6, 24, 120);
        let session = tcsc_obs::ObsSession::wall();
        let mut engine = AssignmentEngine::borrowed(&index, &cost, MultiTaskConfig::new(40.0))
            .with_recorder(&session);
        let outcome = engine.assign_batch(&tasks, Objective::SumQuality);
        let stats = outcome.stats;
        assert!(outcome.executions > 0);
        assert!(stats.warm_nanos > 0, "every task's first search is timed");
        let profile = tcsc_obs::profile_spans(&session.merged_events());
        let commit = profile
            .get("engine.assign_batch;engine.commit")
            .expect("one commit span per solve");
        assert_eq!(commit.calls, 1);
        assert!(
            stats.warm_nanos + stats.refresh_nanos <= commit.total_nanos,
            "warm {} + refresh {} ns exceed the commit span's {} ns",
            stats.warm_nanos,
            stats.refresh_nanos,
            commit.total_nanos
        );
        let metrics = session.metrics();
        let warm = metrics
            .histogram("engine.warm_start_ns")
            .expect("the warm start is published");
        assert_eq!(warm.count(), 1);
        assert_eq!(warm.sum(), stats.warm_nanos);
    }

    /// The checkout a one-shot arrival had before it searched with the
    /// ledger: the unfiltered base, then one filtered search for every slot
    /// whose base worker is taken, counted as a refresh.
    fn base_then_reconcile<I: MutableSpatialIndex, L: Occupancy<I>>(
        task: &Task,
        index: &I,
        cost: &dyn CostModel,
        ledger: &L,
        stats: &mut CacheStats,
    ) -> SlotCandidates {
        let mut working = SlotCandidates::default();
        compute_base(task, index, cost, stats, &mut working);
        reconcile(task, &mut working, index, cost, ledger, stats);
        working
    }

    /// Checks every task out both ways against ledgers holding a random
    /// share of `entries`, and returns the refreshes the oracle needed.
    fn one_shot_matches_base_then_reconcile<I: MutableSpatialIndex, L: Occupancy<I>>(
        seed: u64,
        tasks: &[Task],
        index: &I,
        entries: &[(SlotIndex, WorkerId, Location)],
    ) -> usize {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let cost = tcsc_core::EuclideanCost::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut refreshes = 0;
        for share in [0.0, 0.1, 0.4, 0.8, 1.0] {
            let mut ledger = L::empty_for(index);
            for &(slot, worker, worker_location) in entries {
                if rng.gen_bool(share) {
                    let held = CandidateAssignment {
                        slot,
                        worker,
                        worker_location,
                        cost: 0.0,
                        reliability: 1.0,
                    };
                    ledger.take(index, &held);
                }
            }
            let (mut stats, mut oracle_stats) = (CacheStats::default(), CacheStats::default());
            for task in tasks {
                let got = checkout_one_shot(task, index, &cost, &ledger, &mut stats);
                let want = base_then_reconcile(task, index, &cost, &ledger, &mut oracle_stats);
                assert_eq!(got.len(), want.len());
                for slot in 0..want.len() {
                    assert_eq!(got.get(slot), want.get(slot), "share {share}, slot {slot}");
                }
            }
            // The same answers for one search per slot: the oracle's
            // refreshes are the searches the one-shot path no longer repeats.
            let expected = CacheStats {
                slot_computations: oracle_stats.slot_computations - oracle_stats.slot_refreshes,
                slot_refreshes: 0,
                ..oracle_stats
            };
            assert_eq!(stats, expected, "share {share}");
            assert_eq!(
                stats.slot_computations,
                tasks.iter().map(|t| t.num_slots).sum()
            );
            refreshes += oracle_stats.slot_refreshes;
        }
        refreshes
    }

    #[test]
    fn one_shot_checkout_matches_base_then_reconcile_on_both_ledgers() {
        let mut refreshes = [0, 0];
        for seed in 0..12 {
            let num_workers = 15 + 20 * seed as usize;
            let (tasks, workers, domain) =
                crate::multi::test_support::small_world(500 + seed, 8, 16, num_workers);
            let entries: Vec<_> = workers
                .workers()
                .iter()
                .flat_map(|w| w.availability().iter().map(|a| (a.slot, w.id, a.location)))
                .collect();
            let dense = WorkerIndex::build(&workers, 16, &domain);
            refreshes[0] += one_shot_matches_base_then_reconcile::<_, WorkerLedger>(
                seed, &tasks, &dense, &entries,
            );
            let grid = tcsc_index::ShardGridConfig::new(1 + seed as usize % 4, 3);
            let sharded = ShardedWorkerIndex::build(&workers, 16, &domain, grid);
            refreshes[1] += one_shot_matches_base_then_reconcile::<_, ShardedLedger>(
                seed, &tasks, &sharded, &entries,
            );
        }
        // Both ledgers held base workers, so the filtered path was compared.
        assert!(refreshes.iter().all(|&r| r > 0), "{refreshes:?}");
    }
}
