//! Cluster assembly and the one-call run harness: wire a dispatcher and `n`
//! region nodes over a simulated network, feed task arrivals, run to
//! quiescence and collect the [`SimOutcome`].

use std::cell::RefCell;
use std::rc::Rc;

use tcsc_assign::{CacheStats, CommittedExecution, MultiTaskConfig};
use tcsc_core::{fnv, CostModel, Domain, MultiAssignment, Task, WorkerPool};
use tcsc_index::{ShardGridConfig, TileRouter, WorkerIndex};
use tcsc_obs::{ObsReport, ObsSession, Recorder, Scope};

use crate::dispatcher::{Dispatcher, DispatcherReport};
use crate::kernel::{SimTime, Simulation};
use crate::latency::LatencyModel;
use crate::messages::NetMessage;
use crate::node::RegionNode;

/// Configuration of one simulated cluster run.
#[derive(Debug, Clone)]
pub struct SimClusterConfig {
    /// Number of region nodes (spatial shards are striped over them; 0 runs
    /// as 1).
    pub nodes: usize,
    /// The spatial shard grid: the dispatcher homes each task on a node by
    /// its [`TileRouter`] tile (the time split is ignored).
    pub grid: ShardGridConfig,
    /// Assignment parameters (budget, `k`, `ts`, ...).
    pub assignment: MultiTaskConfig,
    /// One-way network latency between components.
    pub latency: LatencyModel,
    /// Node service time added to every command reply, in microseconds.
    pub service_us: SimTime,
    /// Seed of the latency draws.
    pub seed: u64,
    /// Whether to record a virtual-time observability trace: a shared
    /// [`ObsSession`] is driven by the kernel clock, the dispatcher's master
    /// records its heartbeat, grant and execution events through it, and the outcome carries the
    /// [`ObsReport`] (merged events, metrics, and the logical digest).
    pub record_obs: bool,
}

impl SimClusterConfig {
    /// A cluster of `nodes` nodes over a `regions x regions` shard grid with
    /// the given latency, using defaults for everything else.
    pub fn new(nodes: usize, regions: usize, budget: f64, latency: LatencyModel) -> Self {
        Self {
            nodes: nodes.max(1),
            grid: ShardGridConfig::new(regions.max(1), regions.max(1)),
            assignment: MultiTaskConfig::new(budget),
            latency,
            service_us: 0,
            seed: 42,
            record_obs: false,
        }
    }

    /// Overrides the latency seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables virtual-time observability recording (see
    /// [`SimClusterConfig::record_obs`]).
    pub fn with_obs(mut self) -> Self {
        self.record_obs = true;
        self
    }

    /// Sets the per-command node service time.
    pub fn with_service_us(mut self, service_us: SimTime) -> Self {
        self.service_us = service_us;
        self
    }
}

/// One timed batch of task arrivals.
#[derive(Debug, Clone)]
pub struct SimBatch {
    /// Arrival time of the batch at the dispatcher.
    pub at_us: SimTime,
    /// The arriving tasks, in submission order.
    pub tasks: Vec<Task>,
}

impl SimBatch {
    /// A batch arriving at virtual time 0.
    pub fn immediate(tasks: Vec<Task>) -> Self {
        Self { at_us: 0, tasks }
    }
}

/// The outcome of one simulated run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Per-task plans, in global submission order.
    pub assignment: MultiAssignment,
    /// Worker conflicts across all batches.
    pub conflicts: usize,
    /// Committed executions across all batches.
    pub executions: usize,
    /// Candidate-cache counters (comparable to the engines').
    pub stats: CacheStats,
    /// Committed executions in grant order (global task indices).
    pub committed: Vec<CommittedExecution>,
    /// Virtual time at which the last plan arrived at the dispatcher.
    pub finish_time_us: SimTime,
    /// Total delivered events.
    pub delivered_events: u64,
    /// The kernel's FNV-1a fold of every delivery's `(time, seq, src, dst,
    /// label)` ([`Simulation::delivery_digest`]): same seed and inputs, same
    /// digest.
    pub delivery_digest: u64,
    /// The observability report (`None` unless `record_obs` was enabled):
    /// the merged virtual-time event stream, the metrics snapshot and the
    /// logical digest — same seed ⇒ same digest across node counts and
    /// latency models.
    pub obs: Option<ObsReport>,
}

impl SimOutcome {
    /// Summation quality over all plans.
    pub fn sum_quality(&self) -> f64 {
        self.assignment.sum_quality()
    }
}

/// Builds the cluster, feeds the batches, runs to quiescence and returns the
/// outcome.
///
/// The dense [`WorkerIndex`] is built once from the pool and shared
/// (read-only) by every node and the dispatcher — the simulated stand-in for
/// each node holding a copy of the immutable index.  Tasks are routed to
/// nodes by the [`TileRouter`] of `config.grid` over `domain`.
pub fn run_cluster(
    workers: &WorkerPool,
    num_slots: usize,
    domain: &Domain,
    batches: Vec<SimBatch>,
    cost_model: Rc<dyn CostModel>,
    config: &SimClusterConfig,
) -> SimOutcome {
    if batches.is_empty() {
        // Nothing arrives, nothing runs: an empty outcome, not a stalled
        // dispatcher waiting for batches that never come.
        return SimOutcome {
            assignment: MultiAssignment::default(),
            conflicts: 0,
            executions: 0,
            stats: CacheStats::default(),
            committed: Vec::new(),
            finish_time_us: 0,
            delivered_events: 0,
            delivery_digest: fnv::OFFSET,
            obs: None,
        };
    }
    let nodes = config.nodes.max(1);
    let index = Rc::new(WorkerIndex::build(workers, num_slots, domain));
    let mut sim: Simulation<NetMessage> = Simulation::new(config.latency, config.seed);
    let obs_session = config
        .record_obs
        .then(|| Rc::new(ObsSession::virtual_time()));
    sim.set_obs(obs_session.clone());

    // Component wiring: the dispatcher's construction needs the node ids and
    // the nodes need its id, so the nodes are registered first and learn the
    // dispatcher's id, the next one, up front.
    let dispatcher_id = nodes;
    let mut node_ids = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        let id = sim.add_component(Box::new(RegionNode::new(
            index.clone(),
            cost_model.clone(),
            config.assignment,
            dispatcher_id,
            config.service_us,
        )));
        node_ids.push(id);
    }
    let outbox: Rc<RefCell<Option<DispatcherReport>>> = Rc::new(RefCell::new(None));
    let actual_dispatcher = sim.add_component(Box::new(Dispatcher::new(
        index,
        TileRouter::new(domain, config.grid),
        config.assignment.budget,
        node_ids,
        batches.len(),
        outbox.clone(),
        obs_session.clone(),
    )));
    assert_eq!(
        actual_dispatcher, dispatcher_id,
        "component registration order is fixed"
    );

    // Feed the arrival schedule.
    let mut next_global = 0usize;
    for batch in batches {
        let entries: Vec<(usize, Task)> = batch
            .tasks
            .into_iter()
            .map(|task| {
                let idx = next_global;
                next_global += 1;
                (idx, task)
            })
            .collect();
        sim.schedule(
            dispatcher_id,
            NetMessage::SubmitBatch { entries },
            batch.at_us,
        );
    }

    sim.run();
    let report = outbox
        .borrow_mut()
        .take()
        .expect("the dispatcher reports when every node returned its plans");
    let delivered_events = sim.delivered();

    let plans = report.plans.into_iter().map(|(_, plan)| plan).collect();
    let assignment = MultiAssignment::new(plans);

    // Emit the logical projection the digest hashes: the committed execution
    // sequence (in grant order), the run totals and the plan hash.  These
    // are bit-identical across node counts and latency models by the
    // sim-equivalence locks, so the digest is too — while the transport and
    // policy events recorded above legitimately differ.
    let obs = obs_session.map(|session| {
        session.set_virtual_nanos(report.finish_time_us.saturating_mul(1_000));
        for c in &report.committed {
            session.instant(
                Scope::Logical,
                "logical.execute",
                c.task as u64,
                ((u64::from(c.worker.0)) << 32) | c.slot as u64,
                c.cost.to_bits(),
            );
        }
        session.instant(
            Scope::Logical,
            "logical.totals",
            report.executions as u64,
            report.conflicts as u64,
            fnv::plan_hash(&assignment),
        );
        session.counter("sim.delivered_events", delivered_events);
        session.value("sim.finish_time_us", report.finish_time_us);
        session.report()
    });

    SimOutcome {
        assignment,
        conflicts: report.conflicts,
        executions: report.executions,
        stats: report.stats,
        committed: report.committed,
        finish_time_us: report.finish_time_us,
        delivered_events,
        delivery_digest: sim.delivery_digest(),
        obs,
    }
}
