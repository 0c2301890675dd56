//! Multi-task assignment (Section IV of the paper): MSQM (maximise the
//! summation quality), MMQM (maximise the minimum quality), the worker
//! conflict machinery, and the group-level / task-level parallel frameworks.

pub mod conflict;
mod gain;
pub mod group_parallel;
mod heartbeat;
pub mod mmqm;
pub mod msqm;
pub mod protocol;
pub mod sapprox;
pub mod task_parallel;

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use tcsc_core::{
    AssignmentPlan, CostModel, ExecutedSubtask, MultiAssignment, QualityEvaluator, QualityParams,
    SlotIndex, Task, WorkerId,
};
use tcsc_index::{SearchStats, SpatialQuery, VTree, VTreeConfig};

use crate::candidates::{candidate_for_slot, SlotCandidates, WorkerLedger};
use crate::engine::CacheStats;
pub(crate) use crate::multi::gain::GainEntry;
use crate::multi::gain::{EntryState, GainLedger};
pub(crate) use crate::multi::heartbeat::HeartbeatTable;

/// Parameters shared by the multi-task solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiTaskConfig {
    /// Global budget `b` shared by all tasks.
    pub budget: f64,
    /// Interpolation parameter `k` (paper default 3).
    pub k: usize,
    /// Tree split threshold `ts` (paper default 4).
    pub ts: usize,
    /// Whether to weight the metric by worker reliability.
    pub use_reliability: bool,
    /// Whether per-task candidate search uses the aggregated tree index
    /// (`Approx*`) or the plain enumeration (`Approx`).
    pub use_index: bool,
}

impl MultiTaskConfig {
    /// Default configuration (`k = 3`, `ts = 4`, indexed search).
    pub fn new(budget: f64) -> Self {
        Self {
            budget,
            k: 3,
            ts: 4,
            use_reliability: false,
            use_index: true,
        }
    }

    /// Overrides `k`.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Overrides `ts`.
    pub fn with_ts(mut self, ts: usize) -> Self {
        self.ts = ts;
        self
    }

    /// Switches between the indexed (`Approx*`) and plain (`Approx`) per-task
    /// candidate search.
    pub fn with_index(mut self, use_index: bool) -> Self {
        self.use_index = use_index;
        self
    }

    /// Enables reliability weighting.
    pub fn with_reliability(mut self) -> Self {
        self.use_reliability = true;
        self
    }
}

/// A task's best currently-known candidate execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskCandidate {
    /// Slot to execute.
    pub slot: SlotIndex,
    /// Quality gain of executing it.
    pub gain: f64,
    /// Assignment cost.
    pub cost: f64,
    /// Heuristic value `gain / cost`.
    pub heuristic: f64,
}

/// Mutable per-task state shared by the serial and parallel multi-task
/// algorithms: the quality evaluator, the optional tree index, the per-slot
/// worker candidates and the executions performed so far.
#[derive(Debug)]
pub struct TaskState {
    /// The task being assigned.
    pub task: Task,
    /// The entropy-quality evaluator of the task; mutated only by
    /// [`TaskState::execute`], which keeps `quality` in step.
    evaluator: QualityEvaluator,
    /// `evaluator.quality()`, recomputed only when a slot executes.
    quality: f64,
    /// The aggregated tree index (present when `use_index` is on).
    pub tree: Option<VTree>,
    /// The per-slot candidate assignments (kept consistent with the ledger).
    pub candidates: SlotCandidates,
    /// Executions performed so far, in selection order.
    pub executions: Vec<ExecutedSubtask>,
    use_reliability: bool,
    /// The incremental-gain structure answering best-candidate requests
    /// (built lazily by the first one).
    gain_ledger: GainLedger,
    /// This state's counters: its conflict refreshes (as slot
    /// computations) and its commit-tail refresh accounting.  The V-tree
    /// fields are filled in by [`TaskState::stats`].
    stats: CacheStats,
    /// Best-candidate requests served so far (the first is the warm start;
    /// it is excluded from the refresh accounting).
    searches: usize,
}

/// Scores one slot of a task against the current evaluator / tree state:
/// `(gain, cost, heuristic, worker)`, or `None` when the slot is executed,
/// has no candidate, or would not raise the quality (exact gain `≤ 0`, as on
/// a one-slot task).  This is the *same* computation the full search performs
/// per evaluated slot, so ledger entries carry bit-identical values.
fn score_slot(
    evaluator: &QualityEvaluator,
    tree: &Option<VTree>,
    candidates: &SlotCandidates,
    slot: SlotIndex,
) -> Option<(f64, f64, f64, WorkerId)> {
    if evaluator.is_executed(slot) {
        return None;
    }
    let candidate = candidates.get(slot)?;
    let cost = candidate.cost;
    let gain = match tree {
        Some(tree) => tree.gain(evaluator, slot),
        None => evaluator.gain_if_executed(slot),
    };
    (gain > 0.0).then(|| (gain, cost, heuristic(gain, cost), candidate.worker))
}

/// The heuristic value `gain / cost`, `INFINITY` for a zero-cost candidate.
pub(crate) fn heuristic(gain: f64, cost: f64) -> f64 {
    if cost > 0.0 {
        gain / cost
    } else {
        f64::INFINITY
    }
}

/// The exact [`VTree::gain`] of every slot of a task with no executions and
/// unit reliabilities, shared process-wide per shape `(m, k)`.
///
/// With nothing executed, every V-tree is one leaf (its end slots share the
/// empty k-NN set) and every cached slot value depends only on `(m, k)`, so
/// a slot's gain depends only on `(m, k)` and the slot: neither costs nor
/// `ts` enter it.  The vector is filled by [`VTree::gain`] itself on an
/// empty tree, so each entry is the `f64` a re-score would produce.  Only
/// shapes with a unit-reliability table are asked for, which bounds `m`.
fn empty_task_gains(params: QualityParams) -> Arc<[f64]> {
    type Registry = Mutex<HashMap<(usize, usize), Arc<[f64]>>>;
    static GAINS: OnceLock<Registry> = OnceLock::new();
    // A poisoned lock still guards a valid map: a vector is inserted only
    // after it is fully computed.
    let mut gains = GAINS
        .get_or_init(Registry::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let gains = gains
        .entry((params.num_slots, params.k))
        .or_insert_with(|| {
            let evaluator = QualityEvaluator::new(params);
            let tree = VTree::build(
                &evaluator,
                vec![None; params.num_slots],
                VTreeConfig::default(),
            );
            (0..params.num_slots)
                .map(|slot| tree.gain(&evaluator, slot))
                .collect()
        });
    Arc::clone(gains)
}

/// The task's quality: the V-tree's slot-order sum of its cached partial
/// qualities when the index is on (bit-identical to the evaluator's walk over
/// every slot, which it saves), the walk otherwise.
fn task_quality(evaluator: &QualityEvaluator, tree: &Option<VTree>) -> f64 {
    match tree {
        Some(tree) => {
            let quality = tree.slot_quality_sum();
            debug_assert_eq!(
                quality.to_bits(),
                evaluator.quality().to_bits(),
                "the V-tree's cached partial qualities disagree with the evaluator"
            );
            quality
        }
        None => evaluator.quality(),
    }
}

impl TaskState {
    /// Initialises the state of one task against the worker index.
    pub fn new(
        task: &Task,
        index: &dyn SpatialQuery,
        cost_model: &dyn CostModel,
        config: &MultiTaskConfig,
    ) -> Self {
        let candidates = SlotCandidates::compute(task, index, cost_model);
        Self::from_candidates(task, candidates, config)
    }

    /// Initialises the state of one task from already-computed per-slot
    /// candidates (so that reused candidates skip the index queries of
    /// [`TaskState::new`]).
    pub fn from_candidates(
        task: &Task,
        candidates: SlotCandidates,
        config: &MultiTaskConfig,
    ) -> Self {
        let mut state = Self::blank(task, config);
        state.candidates = candidates;
        state.reset(task, config);
        state
    }

    /// A state for `task` with no candidates and nothing built yet: only
    /// [`TaskState::reset`] makes it usable.  The engine's pool grows with
    /// these.
    pub(crate) fn blank(task: &Task, config: &MultiTaskConfig) -> Self {
        Self {
            task: task.clone(),
            evaluator: QualityEvaluator::new(QualityParams::new(task.num_slots, config.k)),
            quality: 0.0,
            tree: None,
            candidates: SlotCandidates::default(),
            executions: Vec::new(),
            use_reliability: config.use_reliability,
            gain_ledger: GainLedger::default(),
            stats: CacheStats::default(),
            searches: 0,
        }
    }

    /// Re-initialises the state in place for `task` from the candidates it
    /// holds, keeping the buffers of its evaluator, V-tree, gain ledger and
    /// execution log.  The one initialisation path: the result is the
    /// state [`TaskState::from_candidates`] builds from those candidates,
    /// whatever the state held before.
    pub(crate) fn reset(&mut self, task: &Task, config: &MultiTaskConfig) {
        assert_eq!(
            self.candidates.len(),
            task.num_slots,
            "one candidate entry per slot is required"
        );
        self.task = task.clone();
        self.evaluator
            .reset(QualityParams::new(task.num_slots, config.k));
        if config.use_index {
            let candidates = &self.candidates;
            let costs = (0..task.num_slots).map(|slot| candidates.cost(slot));
            let tree_config = VTreeConfig::new(config.ts);
            match &mut self.tree {
                Some(tree) => tree.rebuild(&self.evaluator, costs, tree_config),
                tree => *tree = Some(VTree::build(&self.evaluator, costs.collect(), tree_config)),
            }
        } else {
            self.tree = None;
        }
        self.quality = task_quality(&self.evaluator, &self.tree);
        self.executions.clear();
        self.use_reliability = config.use_reliability;
        self.gain_ledger.reset(task.num_slots);
        self.stats = CacheStats::default();
        self.searches = 0;
    }

    /// The counters accumulated by this state, with the V-tree's upkeep
    /// counters; the drivers fold them with [`CacheStats::merge`].
    pub fn stats(&self) -> CacheStats {
        let mut stats = self.stats;
        if let Some(tree) = &self.tree {
            stats.vtree_recomputed_slots = tree.recomputed_slots();
            stats.vtree_nodes_built = tree.nodes_built();
        }
        stats
    }

    /// The best affordable candidate execution of this task, or `None` when no
    /// remaining slot has an available worker within `max_cost` and a
    /// positive gain.
    ///
    /// The gain ledger is built on first use and then answers with a
    /// lazy-greedy pop; the answer is bit-identical to a full search (V-tree
    /// best-first or plain scan) over the current state.  With the index on,
    /// zero-cost candidates (`heuristic == INFINITY`) fall back to
    /// [`VTree::best_slot`], whose tie-break among them depends on its visit
    /// order; the ledger breaks that tie to the lower slot, as the plain scan
    /// does.
    ///
    /// No clock is read here: the engine's commit loops time the requests
    /// themselves, and only under a live recorder.
    pub fn best_candidate(&mut self, max_cost: f64) -> Option<TaskCandidate> {
        self.best_candidate_in(max_cost, &mut Vec::new())
    }

    /// Whether no best-candidate request has been served yet: the next one
    /// is the task's warm start.
    pub(crate) fn is_cold(&self) -> bool {
        self.searches == 0
    }

    /// [`TaskState::best_candidate`] with the gain ledger's `aside` buffer
    /// passed in (empty, and empty again on return), so a caller that asks
    /// many times allocates it once: build the ledger on first use, then
    /// pop.
    ///
    /// The build gives every feasible slot an exact, fresh entry.  A task
    /// with no executions reads its gains from the vector shared by its
    /// shape when the shape has a unit-reliability table; every other state
    /// scores each slot.  A pop drops the entries its bound cannot afford,
    /// so a request whose bound rises above the last pop's rebuilds the
    /// ledger first (no driver does: the remaining budget only shrinks).
    ///
    /// When the V-tree's cheapest candidate already exceeds `max_cost`,
    /// nothing is affordable and the answer is `None` without touching the
    /// ledger: the pop would only drop or kill every entry it reached.
    pub(crate) fn best_candidate_in(
        &mut self,
        max_cost: f64,
        aside: &mut Vec<GainEntry>,
    ) -> Option<TaskCandidate> {
        self.searches += 1;
        let Self {
            evaluator,
            tree,
            candidates,
            gain_ledger: ledger,
            stats,
            task,
            ..
        } = self;
        if tree
            .as_ref()
            .is_some_and(|tree| tree.min_candidate_cost() > max_cost)
        {
            return None;
        }
        if !ledger.is_built_for(max_cost) {
            match tree {
                Some(tree)
                    if evaluator.executed_len() == 0
                        && evaluator.unit_partial_table().is_some() =>
                {
                    let gains = empty_task_gains(evaluator.params());
                    ledger.build(gains.iter().enumerate().filter_map(|(slot, &gain)| {
                        let candidate = candidates.get(slot).filter(|_| gain > 0.0)?;
                        debug_assert_eq!(
                            gain.to_bits(),
                            tree.gain(evaluator, slot).to_bits(),
                            "seeded gain of slot {slot} disagrees with the V-tree"
                        );
                        let cost = candidate.cost;
                        Some((slot, candidate.worker, gain, cost, heuristic(gain, cost)))
                    }));
                }
                _ => ledger.build((0..task.num_slots).filter_map(|slot| {
                    let (gain, cost, heuristic, worker) =
                        score_slot(evaluator, tree, candidates, slot)?;
                    Some((slot, worker, gain, cost, heuristic))
                })),
            }
        }
        let best = ledger.pop_best(
            max_cost,
            |slot| match score_slot(evaluator, tree, candidates, slot) {
                None => EntryState::Dead,
                Some((gain, cost, heuristic, worker)) => EntryState::Stale {
                    gain,
                    cost,
                    heuristic,
                    worker,
                },
            },
            &mut stats.stale_pops,
            aside,
        )?;
        debug_assert_eq!(
            candidates.get(best.slot).map(|c| c.worker),
            Some(best.worker),
            "a live ledger entry must agree with the slot's planned worker"
        );
        let (slot, gain, cost, heuristic) = match tree {
            Some(tree) if best.heuristic == f64::INFINITY => {
                stats.full_refreshes += 1;
                let best = tree.best_slot(evaluator, max_cost, &mut SearchStats::default())?;
                (best.slot, best.gain, best.cost, best.heuristic)
            }
            _ => (best.slot, best.gain, best.cost, best.heuristic),
        };
        Some(TaskCandidate {
            slot,
            gain,
            cost,
            heuristic,
        })
    }

    /// Executes a slot with the currently recorded candidate worker, updating
    /// the evaluator, the tree and the execution log.  The caller is
    /// responsible for budget accounting and ledger occupancy.
    pub fn execute(&mut self, slot: SlotIndex) {
        let candidate = *self
            .candidates
            .get(slot)
            .expect("cannot execute a slot without a candidate");
        if self.use_reliability {
            self.evaluator
                .execute_with_reliability(slot, candidate.reliability);
        } else {
            self.evaluator.execute(slot);
        }
        if let Some(tree) = &mut self.tree {
            tree.notify_executed(&self.evaluator, slot);
        }
        self.quality = task_quality(&self.evaluator, &self.tree);
        // The task's gains shifted: every ledger key becomes a stale upper
        // bound, re-scored lazily on pop.
        self.gain_ledger.bump_score_version();
        self.executions.push(ExecutedSubtask {
            slot,
            worker: candidate.worker,
            cost: candidate.cost,
            reliability: candidate.reliability,
        });
    }

    /// Patches the gain ledger after one slot's candidate changed (conflict
    /// fallback): the old `(slot, worker)` entry is
    /// version-killed and a freshly scored replacement installed.  Touches
    /// exactly one slot, where a full search would recompute the whole task
    /// on its next request.  Reads no clock; the commit loops time it under
    /// a live recorder.
    pub(crate) fn patch_gain_slot(&mut self, slot: SlotIndex) {
        let Self {
            evaluator,
            tree,
            candidates,
            gain_ledger: ledger,
            stats,
            ..
        } = self;
        if !ledger.is_built() {
            // Nothing installed yet; the initial build scores current state.
            return;
        }
        ledger.invalidate_slot(slot);
        if let Some((gain, cost, heuristic, worker)) = score_slot(evaluator, tree, candidates, slot)
        {
            ledger.extend_scored([(slot, worker, gain, cost, heuristic)]);
        }
        stats.incremental_patches += 1;
    }

    /// Refreshes the candidate of one slot against the ledger (after a worker
    /// conflict) and keeps the tree's cost aggregates in sync.
    pub fn refresh_slot(
        &mut self,
        slot: SlotIndex,
        index: &dyn SpatialQuery,
        cost_model: &dyn CostModel,
        ledger: &WorkerLedger,
    ) {
        let candidate = candidate_for_slot(&self.task, slot, index, cost_model, ledger);
        self.set_candidate(slot, candidate);
    }

    /// Replaces the candidate of one slot directly (the entry point of the
    /// engine's commit loops, whose refreshes go through its occupancy
    /// store), keeping the tree's cost aggregates in sync.  Every call is
    /// one index-backed recompute, counted in the state's
    /// [`CacheStats::slot_computations`] and [`CacheStats::slot_refreshes`].
    pub fn set_candidate(
        &mut self,
        slot: SlotIndex,
        candidate: Option<tcsc_core::CandidateAssignment>,
    ) {
        self.place_candidate(slot, candidate);
        self.patch_gain_slot(slot);
    }

    /// [`TaskState::set_candidate`] short of the gain-ledger patch, which
    /// the caller owes with [`TaskState::patch_gain_slot`].
    pub(crate) fn place_candidate(
        &mut self,
        slot: SlotIndex,
        candidate: Option<tcsc_core::CandidateAssignment>,
    ) {
        self.stats.slot_computations += 1;
        self.stats.slot_refreshes += 1;
        self.candidates.set(slot, candidate);
        if let Some(tree) = &mut self.tree {
            tree.update_cost(&self.evaluator, slot, self.candidates.cost(slot));
        }
    }

    /// The worker currently planned for a slot.
    pub fn planned_worker(&self, slot: SlotIndex) -> Option<tcsc_core::WorkerId> {
        self.candidates.get(slot).map(|c| c.worker)
    }

    /// Finalises the task's assignment plan.
    pub fn into_plan(mut self) -> AssignmentPlan {
        self.take_plan()
    }

    /// The task's assignment plan, its executions moved out of the state
    /// (which keeps everything else for the next [`TaskState::reset`]).
    pub(crate) fn take_plan(&mut self) -> AssignmentPlan {
        AssignmentPlan {
            task: self.task.id,
            num_slots: self.task.num_slots,
            quality: self.quality,
            executions: std::mem::take(&mut self.executions),
        }
    }

    /// The task's current quality, cached and recomputed once per execution:
    /// from the V-tree's cached partial qualities when the index is on, by
    /// the evaluator's walk otherwise.  Either way it is the bits of
    /// [`QualityEvaluator::quality`].
    pub fn quality(&self) -> f64 {
        self.quality
    }
}

/// Outcome of a multi-task assignment run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MultiOutcome {
    /// The per-task assignment plans.
    pub assignment: MultiAssignment,
    /// Number of worker conflicts encountered (two tasks competing for the
    /// same worker at the same slot).
    pub conflicts: usize,
    /// Number of executed subtasks across all tasks.
    pub executions: usize,
    /// Candidate counters of the run: how many tasks and per-slot candidates
    /// were computed, refreshed after occupancy changes, or served from the
    /// engine's cache, and the commit loop's refresh work (see
    /// [`CacheStats`]).
    pub stats: CacheStats,
}

impl MultiOutcome {
    /// Summation quality of the outcome.
    pub fn sum_quality(&self) -> f64 {
        self.assignment.sum_quality()
    }

    /// Minimum quality of the outcome.
    pub fn min_quality(&self) -> f64 {
        self.assignment.min_quality()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Shared fixtures for the multi-task solver tests.

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tcsc_core::{
        Domain, EuclideanCost, Location, Task, TaskId, Worker, WorkerId, WorkerPool, WorkerSlot,
    };
    use tcsc_index::WorkerIndex;

    /// Minimal inline workload generation so that the assign crate's tests do
    /// not depend on `tcsc-workload`; mirrors the generators' behaviour on a
    /// small scale.
    pub fn small_world(
        seed: u64,
        num_tasks: usize,
        num_slots: usize,
        num_workers: usize,
    ) -> (Vec<Task>, WorkerPool, Domain) {
        let domain = Domain::square(100.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let tasks: Vec<Task> = (0..num_tasks)
            .map(|i| {
                Task::new(
                    TaskId(i as u32),
                    Location::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)),
                    num_slots,
                )
            })
            .collect();
        let workers: WorkerPool = (0..num_workers)
            .map(|i| {
                let start = rng.gen_range(0..num_slots);
                let len = rng.gen_range(1..=5.min(num_slots));
                let loc = Location::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
                let availability = (start..(start + len).min(num_slots))
                    .map(|slot| WorkerSlot {
                        slot,
                        location: loc,
                    })
                    .collect();
                Worker::new(WorkerId(i as u32), availability)
            })
            .collect();
        (tasks, workers, domain)
    }

    /// Builds a small instance: tasks, a worker index and the cost model.
    pub fn small_instance(
        seed: u64,
        num_tasks: usize,
        num_slots: usize,
        num_workers: usize,
    ) -> (Vec<Task>, WorkerIndex, EuclideanCost) {
        let (tasks, workers, domain) = small_world(seed, num_tasks, num_slots, num_workers);
        let index = WorkerIndex::build(&workers, num_slots, &domain);
        (tasks, index, EuclideanCost::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::small_instance;

    #[test]
    fn config_builders() {
        let cfg = MultiTaskConfig::new(50.0)
            .with_k(4)
            .with_ts(6)
            .with_index(false)
            .with_reliability();
        assert_eq!(cfg.budget, 50.0);
        assert_eq!(cfg.k, 4);
        assert_eq!(cfg.ts, 6);
        assert!(!cfg.use_index);
        assert!(cfg.use_reliability);
    }

    #[test]
    fn task_state_candidate_and_execute_roundtrip() {
        let (tasks, index, cost) = small_instance(1, 3, 40, 200);
        let cfg = MultiTaskConfig::new(100.0);
        let mut state = TaskState::new(&tasks[0], &index, &cost, &cfg);
        let before = state.quality();
        let candidate = state
            .best_candidate(f64::INFINITY)
            .expect("a 200-worker pool must offer at least one candidate");
        state.execute(candidate.slot);
        assert!(state.quality() > before);
        assert_eq!(state.executions.len(), 1);
        let plan = state.into_plan();
        assert_eq!(plan.executed_count(), 1);
        assert!(plan.quality > 0.0);
    }

    /// The bits of a best-candidate answer, for exact comparisons.
    fn bits(c: Option<TaskCandidate>) -> Option<(SlotIndex, u64, u64, u64)> {
        c.map(|c| {
            (
                c.slot,
                c.gain.to_bits(),
                c.cost.to_bits(),
                c.heuristic.to_bits(),
            )
        })
    }

    /// One indexed task state.
    fn indexed_state(seed: u64) -> TaskState {
        let (tasks, index, cost) = small_instance(seed, 1, 40, 200);
        TaskState::new(&tasks[0], &index, &cost, &MultiTaskConfig::new(100.0))
    }

    /// The full best-candidate search over the state, the reference the
    /// ledger must match: the V-tree's best-first search when the index is
    /// on, a plain scan (ties to the lower slot) otherwise.  Neither offers
    /// a slot whose exact gain is `≤ 0`.
    fn reference_best(state: &TaskState, max_cost: f64) -> Option<TaskCandidate> {
        if let Some(tree) = &state.tree {
            let best = tree.best_slot(&state.evaluator, max_cost, &mut SearchStats::default())?;
            return (best.gain > 0.0).then_some(TaskCandidate {
                slot: best.slot,
                gain: best.gain,
                cost: best.cost,
                heuristic: best.heuristic,
            });
        }
        let mut best: Option<TaskCandidate> = None;
        for slot in 0..state.task.num_slots {
            if state.evaluator.is_executed(slot) {
                continue;
            }
            let Some(cost) = state.candidates.cost(slot) else {
                continue;
            };
            let gain = state.evaluator.gain_if_executed(slot);
            if cost > max_cost || gain <= 0.0 {
                continue;
            }
            let heuristic = heuristic(gain, cost);
            if best.map_or(true, |b| heuristic > b.heuristic) {
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

    /// The state's best candidate under `max_cost`, checked bit for bit
    /// against the full search over the same state.
    fn checked_best(state: &mut TaskState, max_cost: f64) -> Option<TaskCandidate> {
        let got = state.best_candidate(max_cost);
        assert_eq!(bits(got), bits(reference_best(state, max_cost)));
        got
    }

    /// Asserts that every fresh ledger entry carries the exact `VTree::gain`
    /// of its slot and the matching key, and that one entry exists per slot
    /// with a candidate and a positive gain.
    fn assert_exact_entries(state: &TaskState, label: &str) {
        let tree = state.tree.as_ref().unwrap();
        let mut seeded = 0;
        for entry in state.gain_ledger.fresh_entries() {
            let gain = tree.gain(&state.evaluator, entry.slot);
            assert_eq!(entry.gain.to_bits(), gain.to_bits(), "{label}");
            let key = heuristic(gain, entry.cost);
            assert_eq!(entry.heuristic.to_bits(), key.to_bits(), "{label}");
            seeded += 1;
        }
        let feasible = (0..state.task.num_slots).filter(|&s| {
            !state.evaluator.is_executed(s)
                && state.candidates.get(s).is_some()
                && tree.gain(&state.evaluator, s) > 0.0
        });
        assert_eq!(seeded, feasible.count(), "{label}");
    }

    /// Grants the state its checked best candidate `n` times.
    fn execute_best(state: &mut TaskState, n: usize) -> Vec<SlotIndex> {
        (0..n)
            .map(|_| {
                let slot = checked_best(state, f64::INFINITY)
                    .expect("a 200-worker pool offers candidates")
                    .slot;
                state.execute(slot);
                slot
            })
            .collect()
    }

    /// The largest `f64` below a positive finite `x`.
    fn just_below(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn unaffordable_request_leaves_the_ledger_untouched() {
        let mut state = indexed_state(3);
        let min_cost = state.tree.as_ref().unwrap().min_candidate_cost();
        let below = just_below(min_cost);
        // Before the warm start: nothing is built, nothing is affordable.
        assert_eq!(bits(checked_best(&mut state, below)), None);
        assert!(!state.gain_ledger.is_built());
        execute_best(&mut state, 2);
        let min_cost = state.tree.as_ref().unwrap().min_candidate_cost();
        let below = just_below(min_cost);
        let len = state.gain_ledger.len();
        let pops = state.stats().stale_pops;
        assert!(len > 0);
        assert_eq!(bits(checked_best(&mut state, below)), None);
        assert_eq!(state.gain_ledger.len(), len, "the early-out must not pop");
        assert_eq!(state.stats().stale_pops, pops);
        // A later, larger bound answers exactly like the full search.
        for max_cost in [min_cost, f64::INFINITY] {
            assert!(checked_best(&mut state, max_cost).is_some());
        }
    }

    #[test]
    fn a_raised_bound_rebuilds_the_ledger() {
        for use_index in [true, false] {
            let (tasks, index, cost) = small_instance(5, 1, 40, 200);
            let cfg = MultiTaskConfig::new(100.0).with_index(use_index);
            let mut state = TaskState::new(&tasks[0], &index, &cost, &cfg);
            execute_best(&mut state, 3);
            let tight = checked_best(&mut state, 2.0).expect("a candidate within 2");
            // The wide answer outranks the tight one but costs more than 2:
            // the tight pop dropped its entry, so only a rebuilt ledger
            // can match the full search.
            let wide = checked_best(&mut state, 20.0).expect("a candidate within 20");
            assert!(wide.cost > 2.0, "index {use_index}: {wide:?}");
            assert!(wide.heuristic > tight.heuristic, "index {use_index}");
        }
    }

    #[test]
    fn early_out_skips_ledger_entries_of_executed_slots() {
        let mut state = indexed_state(4);
        let executed = execute_best(&mut state, 3);
        let slots = 0..state.task.num_slots;
        let keep = slots
            .clone()
            .find(|s| !executed.contains(s) && state.candidates.get(*s).is_some())
            .expect("an unexecuted slot with a candidate");
        let kept = *state.candidates.get(keep).unwrap();
        // Withdraw every unexecuted slot's candidate: the live entries left
        // in the ledger are those of executed slots, which a pop would only
        // re-score to find dead.
        for slot in slots.filter(|s| !executed.contains(s)) {
            state.set_candidate(slot, None);
        }
        assert_eq!(
            state.tree.as_ref().unwrap().min_candidate_cost(),
            f64::INFINITY
        );
        let len = state.gain_ledger.len();
        let pops = state.stats().stale_pops;
        assert!(len > 0);
        for max_cost in [kept.cost, 1e9] {
            assert_eq!(bits(checked_best(&mut state, max_cost)), None);
            assert_eq!(state.gain_ledger.len(), len);
            assert_eq!(state.stats().stale_pops, pops);
        }
        // One candidate back: below its cost the ledger is still untouched,
        // at its cost the ledger grants it.
        state.set_candidate(keep, Some(kept));
        let len = state.gain_ledger.len();
        assert_eq!(bits(checked_best(&mut state, just_below(kept.cost))), None);
        assert_eq!(state.gain_ledger.len(), len);
        let got = checked_best(&mut state, kept.cost);
        assert_eq!(got.map(|c| c.slot), Some(keep));
    }

    #[test]
    fn zero_cost_candidates_fall_back_to_the_full_search() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use tcsc_core::{Domain, EuclideanCost, Location, TaskId, Worker, WorkerPool, WorkerSlot};
        use tcsc_index::WorkerIndex;

        // Worker 0 stands on the task during slots 2..=6, so those five
        // slots cost 0 and score `heuristic == INFINITY`.
        let num_slots = 12;
        let here = Location::new(50.0, 50.0);
        let task = Task::new(TaskId(0), here, num_slots);
        let mut rng = StdRng::seed_from_u64(5);
        let pool: WorkerPool = std::iter::once(Worker::new(
            WorkerId(0),
            (2..=6)
                .map(|slot| WorkerSlot {
                    slot,
                    location: here,
                })
                .collect(),
        ))
        .chain((1..40).map(|i| {
            let at = Location::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0));
            let availability = (0..num_slots)
                .map(|slot| WorkerSlot { slot, location: at })
                .collect();
            Worker::new(WorkerId(i), availability)
        }))
        .collect();
        let index = WorkerIndex::build(&pool, num_slots, &Domain::square(100.0));
        let cost = EuclideanCost::default();
        for use_index in [true, false] {
            let cfg = MultiTaskConfig::new(100.0).with_index(use_index);
            let mut state = TaskState::new(&task, &index, &cost, &cfg);
            let mut zero_cost = 0;
            while let Some(best) = checked_best(&mut state, f64::INFINITY) {
                if best.heuristic == f64::INFINITY {
                    zero_cost += 1;
                }
                state.execute(best.slot);
            }
            assert_eq!(state.executions.len(), num_slots, "index {use_index}");
            assert_eq!(zero_cost, 5, "index {use_index}");
            // Only the V-tree's visit-order tie-break needs the fallback; the
            // plain scan breaks ties to the lower slot, as the ledger does.
            let fallbacks = if use_index { zero_cost } else { 0 };
            assert_eq!(state.stats().full_refreshes, fallbacks, "index {use_index}");
        }
    }

    #[test]
    fn empty_tasks_seed_exact_gains() {
        for m in [1, 2, 5, 17, 96] {
            for k in 1..=5 {
                for ts in [1, 4, 96] {
                    for mixed in [false, true] {
                        let label = format!("m={m} k={k} ts={ts} mixed={mixed}");
                        let (tasks, index, cost) = small_instance(m as u64, 1, m, 200);
                        let mut cfg = MultiTaskConfig::new(100.0).with_k(k).with_ts(ts);
                        if mixed {
                            cfg = cfg.with_reliability();
                        }
                        let mut state = TaskState::new(&tasks[0], &index, &cost, &cfg);
                        let got = checked_best(&mut state, f64::INFINITY);
                        // A one-slot task cannot raise its quality: nothing
                        // is offered.
                        assert_eq!(got.is_none(), m == 1, "{label}");
                        assert_eq!(state.stats().stale_pops, 0, "{label}");
                        assert_exact_entries(&state, &label);
                    }
                }
            }
        }
    }

    #[test]
    fn a_shape_without_a_table_seeds_exact_scores() {
        // `k·m + 1 > 65_536`: no unit-reliability table, so every slot is
        // scored exactly by the first request.
        let (tasks, index, cost) = small_instance(6, 1, 64, 200);
        let cfg = MultiTaskConfig::new(100.0).with_k(1_025);
        let mut state = TaskState::new(&tasks[0], &index, &cost, &cfg);
        assert!(state.evaluator.unit_partial_table().is_none());
        let got = checked_best(&mut state, f64::INFINITY);
        assert!(got.is_some());
        assert_eq!(state.stats().stale_pops, 0);
        assert_exact_entries(&state, "no table");
        execute_best(&mut state, 3);
    }

    #[test]
    fn a_state_executed_before_its_first_request_seeds_exact_scores() {
        for mixed in [false, true] {
            let (tasks, index, cost) = small_instance(7, 1, 40, 200);
            let mut cfg = MultiTaskConfig::new(100.0);
            if mixed {
                cfg = cfg.with_reliability();
            }
            let mut state = TaskState::new(&tasks[0], &index, &cost, &cfg);
            let slots = (0..40).filter(|&s| state.candidates.get(s).is_some());
            for slot in slots.step_by(7).collect::<Vec<_>>() {
                state.execute(slot);
            }
            assert!(state.executions.len() > 1);
            let label = format!("mixed={mixed}");
            let got = checked_best(&mut state, f64::INFINITY);
            assert!(got.is_some(), "{label}");
            assert_eq!(state.stats().stale_pops, 0, "{label}");
            assert_exact_entries(&state, &label);
            execute_best(&mut state, 3);
        }
    }

    /// Drives a state through a dirty solve: requests under a shrinking
    /// bound, executions, and conflict patches that withdraw a slot's
    /// candidate.
    fn dirty_solve(state: &mut TaskState) {
        let mut budget = 30.0;
        for step in 0..12 {
            let Some(best) = state.best_candidate(budget) else {
                break;
            };
            if step % 3 == 2 {
                state.set_candidate(best.slot, None);
                continue;
            }
            budget -= best.cost;
            state.execute(best.slot);
        }
    }

    /// Requests, executions and one conflict patch, the same on both
    /// states, compared bit for bit with their counters and plans.
    fn assert_same_run(reused: &mut TaskState, fresh: &mut TaskState, label: &str) {
        assert_eq!(
            reused.quality().to_bits(),
            fresh.quality().to_bits(),
            "{label}"
        );
        let mut budget = 40.0;
        for step in 0.. {
            let a = reused.best_candidate(budget);
            let b = fresh.best_candidate(budget);
            assert_eq!(bits(a), bits(b), "{label} step {step}");
            let Some(best) = a else {
                break;
            };
            if step == 2 {
                // A conflict: the slot loses its candidate on both.
                reused.set_candidate(best.slot, None);
                fresh.set_candidate(best.slot, None);
                continue;
            }
            budget -= best.cost;
            reused.execute(best.slot);
            fresh.execute(best.slot);
            assert_eq!(
                reused.quality().to_bits(),
                fresh.quality().to_bits(),
                "{label}"
            );
        }
        let (x, y) = (reused.stats(), fresh.stats());
        assert_eq!(x, y, "{label}");
        for (got, want) in [
            (x.stale_pops, y.stale_pops),
            (x.incremental_patches, y.incremental_patches),
            (x.full_refreshes, y.full_refreshes),
            (x.vtree_recomputed_slots, y.vtree_recomputed_slots),
            (x.vtree_nodes_built, y.vtree_nodes_built),
        ] {
            assert_eq!(got, want, "{label}");
        }
        let (x, y) = (reused.take_plan(), fresh.take_plan());
        assert_eq!(x.quality.to_bits(), y.quality.to_bits(), "{label}");
        assert_eq!(x, y, "{label}");
    }

    #[test]
    fn a_reused_state_is_a_fresh_state() {
        for m in [1, 2, 96] {
            for k in [1, 3] {
                for use_index in [true, false] {
                    for reliability in [false, true] {
                        // The dirty state had another shape, `k` and
                        // reliability rule, with and without the index.
                        for dirty_index in [true, false] {
                            let label = format!(
                                "m={m} k={k} index={use_index} reliability={reliability} \
                                 dirty index={dirty_index}"
                            );
                            let mut cfg =
                                MultiTaskConfig::new(40.0).with_k(k).with_index(use_index);
                            let mut dirty_cfg = MultiTaskConfig::new(40.0)
                                .with_k(4 - k)
                                .with_index(dirty_index);
                            if reliability {
                                cfg = cfg.with_reliability();
                            } else {
                                dirty_cfg = dirty_cfg.with_reliability();
                            }
                            let (other, index, cost) = small_instance(m as u64 + 40, 1, 40, 200);
                            let mut reused = TaskState::new(&other[0], &index, &cost, &dirty_cfg);
                            dirty_solve(&mut reused);
                            reused.take_plan();

                            let (tasks, index, cost) = small_instance(m as u64, 1, m, 200);
                            let candidates = SlotCandidates::compute(&tasks[0], &index, &cost);
                            reused.candidates.clone_from(&candidates);
                            reused.reset(&tasks[0], &cfg);
                            let mut fresh = TaskState::from_candidates(&tasks[0], candidates, &cfg);
                            assert!(reused.is_cold(), "{label}");
                            assert_same_run(&mut reused, &mut fresh, &label);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn indexed_and_plain_candidate_search_agree() {
        let (tasks, index, cost) = small_instance(2, 1, 50, 300);
        let indexed_cfg = MultiTaskConfig::new(100.0);
        let plain_cfg = MultiTaskConfig::new(100.0).with_index(false);
        let mut indexed = TaskState::new(&tasks[0], &index, &cost, &indexed_cfg);
        let mut plain = TaskState::new(&tasks[0], &index, &cost, &plain_cfg);
        for _ in 0..5 {
            let a = indexed.best_candidate(f64::INFINITY);
            let b = plain.best_candidate(f64::INFINITY);
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert!((a.heuristic - b.heuristic).abs() < 1e-9);
                    indexed.execute(a.slot);
                    plain.execute(a.slot);
                }
                (None, None) => break,
                _ => panic!("indexed and plain search disagree on feasibility"),
            }
        }
    }
}
