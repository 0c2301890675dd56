//! What one pass over a workload's inputs measured, the timed-call helper
//! every engine call goes through, and the probes of the traced run.

use std::hint::black_box;
use std::time::Instant;

use tcsc_assign::{CacheStats, MultiOutcome, MultiTaskConfig, SlotCandidates, TaskState};
use tcsc_core::{CostModel, Task};
use tcsc_index::SpatialQuery;
use tcsc_obs::{profile_spans, ObsSession, Recorder};

use crate::adapter::KnnProbe;
use crate::checks::Checker;

/// Times one engine call, bracketing it with a span on the traced session.
/// Returns the call's result and its wall time in nanoseconds.
pub fn call<T>(obs: Option<&ObsSession>, label: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    obs.begin(label, 0);
    let out = f();
    obs.end(label, 0);
    (out, start.elapsed().as_nanos() as u64)
}

/// Per-layer measurements of one pass.  Counters are filled on every pass;
/// the probes and per-call samples only on traced passes.
#[derive(Debug, Default)]
pub struct Layers {
    pub knn: KnnProbe,
    pub mutate_us: Vec<f64>,
    pub entries_spliced: u64,
    pub rebuild_equiv: u64,
    pub invalidation_refreshes: u64,
    pub imbalance_milli: u64,
    /// Merged `MultiOutcome::stats` of every solve.
    pub stats: CacheStats,
    pub conflicts: u64,
    pub state_build_us: Vec<f64>,
    pub first_best_us: Vec<f64>,
    pub ledger_peak: usize,
    /// `(slot, worker)` pairs the index can hold: the occupancy denominator.
    pub ledger_capacity: usize,
    pub release_us: Vec<f64>,
    pub released: u64,
    /// Wall time of every planning call (drain, drain_parallel or
    /// assign_batch), ms.
    pub drain_ms: Vec<f64>,
    pub backlog_peak: usize,
    pub drained_tasks: usize,
    /// Span totals of the traced session, ns.
    pub checkout_ns: u64,
    pub commit_ns: u64,
    pub span_self_ns: u64,
    pub tile_visits: u64,
}

impl Layers {
    /// Folds one solve's counters in.
    pub fn solve(&mut self, outcome: &MultiOutcome, tasks: usize) {
        self.stats.merge(&outcome.stats);
        self.conflicts += outcome.conflicts as u64;
        self.drained_tasks += tasks;
    }

    /// Reads the engine spans and counters a traced session collected.
    pub fn absorb(&mut self, session: &ObsSession) {
        let profile = profile_spans(&session.merged_events());
        self.span_self_ns = profile.total_self_nanos();
        for stat in profile.stats() {
            if stat.path.ends_with(";engine.checkout") {
                self.checkout_ns += stat.total_nanos;
            } else if stat.path.ends_with(";engine.commit") {
                self.commit_ns += stat.total_nanos;
            }
        }
        self.tile_visits = session.metrics().counter_value("router.tile_visits");
    }
}

/// Times `TaskState::from_candidates` and the first `best_candidate` of
/// every task, with candidates computed against an empty ledger.
pub fn probe_state_build(
    tasks: &[Task],
    index: &dyn SpatialQuery,
    cost: &dyn CostModel,
    config: &MultiTaskConfig,
    layers: &mut Layers,
) {
    for task in tasks {
        let candidates = SlotCandidates::compute(task, index, cost);
        let start = Instant::now();
        let mut state = black_box(TaskState::from_candidates(task, candidates, config));
        layers
            .state_build_us
            .push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        black_box(state.best_candidate(config.budget));
        layers
            .first_best_us
            .push(start.elapsed().as_secs_f64() * 1e6);
    }
}

/// One pass over a workload's fixed inputs.
#[derive(Debug)]
pub struct Pass {
    pub checker: Checker,
    /// Submit→commit latency of every request, ms.
    pub latency_ms: Vec<f64>,
    /// Engine busy time of every planning round, ms.
    pub round_ms: Vec<f64>,
    /// Engine busy time of the whole pass, ns.
    pub busy_ns: u64,
    /// Time the pass spans: the replayed clock (service) or wall (closed
    /// loop), ns.
    pub span_ns: u64,
    /// Tasks planned.
    pub tasks: usize,
    pub quality_sum: f64,
    pub plans: usize,
    /// `q_min` of every solve that reports one.
    pub min_quality: Vec<f64>,
    pub layers: Layers,
}

impl Pass {
    pub fn new() -> Self {
        Self {
            checker: Checker::new(),
            latency_ms: Vec::new(),
            round_ms: Vec::new(),
            busy_ns: 0,
            span_ns: 0,
            tasks: 0,
            quality_sum: 0.0,
            plans: 0,
            min_quality: Vec::new(),
            layers: Layers::default(),
        }
    }

    /// Records the quality of one solve's plans.
    pub fn quality(&mut self, outcome: &MultiOutcome) {
        self.quality_sum += outcome.assignment.sum_quality();
        self.plans += outcome.assignment.plans.len();
    }
}
