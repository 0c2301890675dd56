//! # tcsc — Time-Continuous Spatial Crowdsourcing
//!
//! Facade crate re-exporting the full public API of the TCSC reproduction:
//!
//! * [`core`] — data model (tasks, subtasks, workers, domains), cost model
//!   and the entropy-based quality metric with its reliability and
//!   spatiotemporal extensions;
//! * [`index`] — order-k 1-D Voronoi diagrams, the aggregated tree index with
//!   best-first pruned search, and the spatial worker grid — dense and
//!   sharded, both mutable in place ([`index::MutableSpatialIndex`]:
//!   insert / remove / move, tile-local on the sharded index) — plus the
//!   tile router the simulated cluster routes by;
//! * [`assign`] — single-task (`Approx`, `Approx*`, `OPT`, `Rand`) and
//!   multi-task (MSQM, MMQM, `SApprox`) assignment, the group-level and
//!   task-level parallel frameworks, and the batched / streaming
//!   `AssignmentEngine` with its shared incremental candidate cache;
//! * [`workload`] — synthetic workload generators (task distributions,
//!   worker trajectories, POIs) and reproducible scenarios, including
//!   streaming task arrivals, their event-trace conversion, heavy-tailed
//!   service streams (bounded-Pareto inter-arrivals under a cyclic
//!   rush-hour phase schedule) and seeded worker-motion tapes
//!   (waypoint drift plus offline/online churn, interleavable with an
//!   arrival trace into one service event stream);
//! * [`sim`] — the deterministic discrete-event simulation of the
//!   distributed runtime: dispatcher / region-node components over a
//!   virtual network, driving the barrier task-parallel master;
//! * [`obs`] — zero-dependency tracing and metrics: the [`obs::Recorder`]
//!   trait every runtime is generic over (no-op by default), wall/virtual
//!   clocks, a counter/gauge/histogram registry with sliding-window SLOs
//!   (windowed p50/p99 over wall or virtual time), the span-tree profiler
//!   ([`obs::profile_spans`] → per-path self/total time, collapsed-stack
//!   export), chrome://tracing export (spans and counter tracks) and the
//!   stable logical-stream digest used as an equivalence lock.
//!
//! The multi-task solvers are called directly, each over a prebuilt
//! [`index::WorkerIndex`]: [`assign::AssignmentEngine::assign_batch`] (MSQM
//! or MMQM, by [`assign::Objective`]),
//! [`assign::AssignmentEngine::assign_spatiotemporal`] (`SApprox`), and the
//! MSQM-only [`assign::msqm_task_parallel`] and [`assign::msqm_group_parallel`];
//! [`sim::run_cluster`] builds its own index from the worker pool.
//!
//! See the `examples/` directory for end-to-end usage and `DESIGN.md` /
//! `EXPERIMENTS.md` for the mapping to the paper.
//!
//! ```
//! use tcsc::prelude::*;
//!
//! // Generate a small reproducible scenario and assign its first task.
//! let scenario = ScenarioConfig::small().build();
//! let index = WorkerIndex::build(&scenario.workers, scenario.config.num_slots, &scenario.domain);
//! let task = scenario.first_task();
//! let candidates = SlotCandidates::compute(task, &index, &EuclideanCost::default());
//! let outcome = approx_star(task, &candidates, &SingleTaskConfig::new(20.0));
//! assert!(outcome.plan.total_cost() <= 20.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tcsc_assign as assign;
pub use tcsc_core as core;
pub use tcsc_index as index;
pub use tcsc_obs as obs;
pub use tcsc_sim as sim;
pub use tcsc_workload as workload;

/// Convenient glob import of the most frequently used items.
pub mod prelude {
    pub use tcsc_assign::{
        approx, approx_star, independence_graph, min_budget_for_quality, optimal,
        random_assignment, random_summary, AssignmentEngine, CacheStats, CandidateCache,
        ChurnCounters, MultiTaskConfig, Objective, SingleTaskConfig, SlotCandidates, WorkerLedger,
    };
    pub use tcsc_assign::{msqm_group_parallel, msqm_task_parallel};
    pub use tcsc_core::fnv::plan_hash;
    pub use tcsc_core::{
        AssignmentPlan, Budget, CostModel, Domain, EuclideanCost, InterpolationWeights, Location,
        MultiAssignment, QualityEvaluator, QualityParams, SpatioTemporalEvaluator, Task, TaskId,
        Worker, WorkerId, WorkerPool, WorkerSlot,
    };
    pub use tcsc_index::{
        IndexMutation, MutableSpatialIndex, OrderKVoronoi, ShardGridConfig, SpatialQuery, VTree,
        VTreeConfig, WorkerIndex, WorkerProfile,
    };
    pub use tcsc_obs::{
        obs_digest, profile_spans, replay_digest, Gauge, Histogram, MetricsRegistry, NoopRecorder,
        ObsReport, ObsSession, PathStat, Recorder, SlidingWindow, SpanProfile, Stopwatch,
    };
    pub use tcsc_sim::{run_cluster, LatencyModel, SimBatch, SimClusterConfig, SimOutcome};
    pub use tcsc_workload::{
        ArrivalPhase, ArrivalSampler, ArrivalTrace, BoundedPareto, HeavyTailedArrivals,
        MotionEvent, MotionTape, PhaseSchedule, PoiConfig, PoiDataset, Scenario, ScenarioConfig,
        SpatialDistribution, StreamingConfig, StreamingScenario, TaskPlacement, TrajectoryConfig,
        WorkerChurnConfig, WorkerMotion,
    };
}
