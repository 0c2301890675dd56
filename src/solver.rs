//! The unified [`SolverBuilder`] facade over the multi-task solvers.
//!
//! One declarative configuration surface picks the runtime (the serial
//! [`AssignmentEngine`], the paper's task-level and group-level parallel
//! frameworks, or the simulated cluster) and the objective (MSQM, MMQM or
//! `SApprox`):
//!
//! ```
//! use tcsc::solver::{Runtime, SolveObjective, SolverBuilder};
//! use tcsc::prelude::*;
//!
//! let scenario = ScenarioConfig::small().build();
//! let outcome = SolverBuilder::new(30.0)
//!     .with_runtime(Runtime::Sim)
//!     .with_grid(ShardGridConfig::new(2, 2))
//!     .with_sim_nodes(3)
//!     .solve(
//!         &scenario.tasks,
//!         &scenario.workers,
//!         scenario.config.num_slots,
//!         &scenario.domain,
//!         &EuclideanCost::default(),
//!     );
//! assert!(outcome.assignment.total_cost() <= 30.0 + 1e-6);
//! ```
//!
//! Every runtime commits through the same greedy core, so for a fixed
//! configuration the builder is **bit-identical** to calling the engine or
//! driver directly (locked by `tests/builder_equivalence.rs`).

use std::rc::Rc;

use tcsc_assign::{
    AssignmentEngine, MultiOutcome, MultiTaskConfig, Objective, SpatioTemporalObjective,
};
use tcsc_core::{CostModel, Domain, InterpolationWeights, Task, WorkerPool};
use tcsc_index::{ShardGridConfig, WorkerIndex};
use tcsc_sim::{run_cluster, LatencyModel, SimBatch, SimClusterConfig};

/// Which execution substrate runs the greedy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Runtime {
    /// The single-threaded [`AssignmentEngine`] on a dense index (MSQM,
    /// MMQM and `SApprox`).
    #[default]
    Serial,
    /// The task-level parallel master/owner framework under the barrier
    /// master (`msqm_task_parallel`).  MSQM only.
    TaskParallel,
    /// The group-level parallel framework over the conflict-independence
    /// graph (`msqm_group_parallel`).  MSQM only.
    GroupParallel,
    /// The deterministic discrete-event cluster simulation (`run_cluster`).
    /// MSQM only.
    Sim,
}

/// Which quality objective the greedy maximises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolveObjective {
    /// Maximise the summation quality `q_sum` (MSQM, Problem 2).
    SumQuality,
    /// Maximise the minimum task quality `q_min` (MMQM, Problem 3).
    MinQuality,
    /// Maximise a spatiotemporally interpolated objective (`SApprox`,
    /// Appendix C) under the given interpolation weights.
    SpatioTemporal {
        /// The temporal/spatial interpolation weights.
        weights: InterpolationWeights,
        /// The aggregate (sum or min) the interpolated metric feeds.
        objective: SpatioTemporalObjective,
    },
}

/// Declarative configuration of one multi-task solve: runtime, objective,
/// assignment parameters, parallelism and the simulated cluster.  See the
/// [module docs](self) for the zoo it replaces.
#[derive(Debug, Clone)]
pub struct SolverBuilder {
    config: MultiTaskConfig,
    runtime: Runtime,
    objective: SolveObjective,
    threads: usize,
    grid: ShardGridConfig,
    use_priorities: bool,
    sim_nodes: usize,
    sim_latency: LatencyModel,
    sim_seed: u64,
}

impl SolverBuilder {
    /// A serial MSQM solve under `budget`, with defaults everywhere else
    /// (incremental refresh, one thread, a 1×1 region grid).
    pub fn new(budget: f64) -> Self {
        Self {
            config: MultiTaskConfig::new(budget),
            runtime: Runtime::Serial,
            objective: SolveObjective::SumQuality,
            threads: 1,
            grid: ShardGridConfig::new(1, 1),
            use_priorities: true,
            sim_nodes: 2,
            sim_latency: LatencyModel::Zero,
            sim_seed: 42,
        }
    }

    /// Replaces the full assignment configuration (budget, `k`, `ts`,
    /// V-tree, reliability weighting).
    pub fn with_config(mut self, config: MultiTaskConfig) -> Self {
        self.config = config;
        self
    }

    /// The current assignment configuration.
    pub fn config(&self) -> &MultiTaskConfig {
        &self.config
    }

    /// Selects the execution substrate.
    pub fn with_runtime(mut self, runtime: Runtime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Selects the objective.
    pub fn with_objective(mut self, objective: SolveObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Thread count of [`Runtime::TaskParallel`] and
    /// [`Runtime::GroupParallel`] (ignored by the other runtimes; never
    /// changes any outcome).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Region grid of [`Runtime::Sim`]: the dispatcher routes each task to
    /// the node owning its tile (never changes any outcome).
    pub fn with_grid(mut self, grid: ShardGridConfig) -> Self {
        self.grid = grid;
        self
    }

    /// Whether the task-parallel master uses the priority queue of pending
    /// heartbeats (the paper's configuration) or plain FIFO arbitration.
    pub fn with_priorities(mut self, use_priorities: bool) -> Self {
        self.use_priorities = use_priorities;
        self
    }

    /// Number of simulated region nodes of [`Runtime::Sim`].
    pub fn with_sim_nodes(mut self, nodes: usize) -> Self {
        self.sim_nodes = nodes.max(1);
        self
    }

    /// Network latency model of [`Runtime::Sim`].
    pub fn with_sim_latency(mut self, latency: LatencyModel) -> Self {
        self.sim_latency = latency;
        self
    }

    /// Latency-draw seed of [`Runtime::Sim`].
    pub fn with_sim_seed(mut self, seed: u64) -> Self {
        self.sim_seed = seed;
        self
    }

    /// Runs the configured solve over one task batch.
    ///
    /// The dense worker index is built internally from the pool.  Panics
    /// with a descriptive message on an unsupported combination: a non-MSQM
    /// objective on a runtime that only implements MSQM
    /// ([`Runtime::TaskParallel`], [`Runtime::GroupParallel`],
    /// [`Runtime::Sim`]).  [`Runtime::Serial`] runs every objective.
    pub fn solve<C: CostModel + Sync + Clone + 'static>(
        &self,
        tasks: &[Task],
        workers: &WorkerPool,
        num_slots: usize,
        domain: &Domain,
        cost_model: &C,
    ) -> MultiOutcome {
        match self.runtime {
            Runtime::Serial | Runtime::TaskParallel | Runtime::GroupParallel => {
                let index = WorkerIndex::build(workers, num_slots, domain);
                self.solve_indexed(tasks, &index, domain, cost_model)
            }
            Runtime::Sim => {
                self.require_msqm("Runtime::Sim");
                let mut config =
                    SimClusterConfig::new(self.sim_nodes, 1, self.config.budget, self.sim_latency)
                        .with_seed(self.sim_seed);
                config.grid = self.grid;
                config.assignment = self.config;
                let sim = run_cluster(
                    workers,
                    num_slots,
                    domain,
                    vec![SimBatch::immediate(tasks.to_vec())],
                    Rc::new(cost_model.clone()),
                    &config,
                );
                MultiOutcome {
                    assignment: sim.assignment,
                    conflicts: sim.conflicts,
                    executions: sim.executions,
                    stats: sim.stats,
                }
            }
        }
    }

    /// Runs the configured solve over a caller-built dense index (the
    /// timing-sensitive entry point: the index build stays outside the
    /// measured region).  [`Runtime::Sim`] builds its own cluster from the
    /// pool and must go through [`SolverBuilder::solve`].
    pub fn solve_indexed<C: CostModel + Sync>(
        &self,
        tasks: &[Task],
        index: &WorkerIndex,
        domain: &Domain,
        cost_model: &C,
    ) -> MultiOutcome {
        match self.runtime {
            Runtime::Serial => {
                let mut engine = AssignmentEngine::borrowed(index, cost_model, self.config);
                match self.objective {
                    SolveObjective::SumQuality => engine.assign_batch(tasks, Objective::SumQuality),
                    SolveObjective::MinQuality => engine.assign_batch(tasks, Objective::MinQuality),
                    SolveObjective::SpatioTemporal { weights, objective } => {
                        engine.assign_spatiotemporal(tasks, domain, weights, objective)
                    }
                }
            }
            Runtime::TaskParallel => {
                self.require_msqm("Runtime::TaskParallel");
                let result = tcsc_assign::msqm_task_parallel(
                    tasks,
                    index,
                    cost_model,
                    &self.config,
                    self.threads,
                    self.use_priorities,
                );
                result.outcome
            }
            Runtime::GroupParallel => {
                self.require_msqm("Runtime::GroupParallel");
                let result = tcsc_assign::msqm_group_parallel(
                    tasks,
                    index,
                    cost_model,
                    &self.config,
                    self.threads,
                );
                result.outcome
            }
            Runtime::Sim => panic!(
                "Runtime::Sim builds its own cluster from the worker pool; \
                 use SolverBuilder::solve"
            ),
        }
    }

    fn require_msqm(&self, runtime: &str) {
        assert!(
            matches!(self.objective, SolveObjective::SumQuality),
            "{runtime} only implements the MSQM (SumQuality) objective; \
             use Runtime::Serial for {:?}",
            self.objective,
        );
    }
}
