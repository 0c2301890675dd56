//! # tcsc-assign
//!
//! Quality-aware task assignment for Time-Continuous Spatial Crowdsourcing:
//! the algorithmic core of the paper.
//!
//! * [`candidates`] — per-slot worker candidates ("worker cost retrieval") and
//!   the worker-occupancy ledger used for conflict arbitration;
//! * [`single`] — the sQM problem: one budgeted greedy loop (Algorithm 1)
//!   behind `Approx` (plain scan) and `Approx*` (V-tree best-first search),
//!   exhaustive `OPT`, the randomized baselines and the dual (min-budget)
//!   search;
//! * [`multi`] — the MSQM / MMQM problems, worker-conflict analysis, the
//!   group-level and task-level parallel frameworks, and the spatiotemporal
//!   `SApprox` extension;
//! * [`engine`] — the long-lived batched / streaming assignment engine that
//!   runs the MSQM, MMQM and `SApprox` greedies: `assign_batch` /
//!   `assign_spatiotemporal` for re-planning (a per-task candidate memo
//!   amortises index lookups across calls) and `submit`/`drain` for
//!   streamed arrivals.  One [`GreedyEngine`] serves both indexes through
//!   two aliases: [`AssignmentEngine`] on the dense index and
//!   [`ConcurrentAssignmentEngine`] on the sharded one, bit-identical for
//!   any shard grid;
//! * [`engine::concurrent`] — the sharded index's occupancy store, with
//!   commitments kept in per-tile ledgers.
//!
//! ## Quick example
//!
//! ```
//! use tcsc_core::{Domain, EuclideanCost, Location, Task, TaskId, Worker, WorkerId, WorkerSlot, WorkerPool};
//! use tcsc_index::WorkerIndex;
//! use tcsc_assign::candidates::SlotCandidates;
//! use tcsc_assign::single::{greedy::approx, SingleTaskConfig};
//!
//! // One task with 8 slots and one worker available at every slot.
//! let task = Task::new(TaskId(0), Location::new(0.0, 0.0), 8);
//! let pool: WorkerPool = (0..8)
//!     .map(|j| Worker::new(WorkerId(j as u32), vec![WorkerSlot { slot: j, location: Location::new(1.0, 0.0) }]))
//!     .collect();
//! let index = WorkerIndex::build(&pool, 8, &Domain::square(10.0));
//! let candidates = SlotCandidates::compute(&task, &index, &EuclideanCost::default());
//!
//! let outcome = approx(&task, &candidates, &SingleTaskConfig::new(4.0));
//! assert!(outcome.plan.quality > 0.0);
//! assert!(outcome.plan.total_cost() <= 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod candidates;
pub mod engine;
pub mod multi;
pub mod single;

pub use candidates::{SlotCandidates, WorkerLedger};
pub use engine::{
    checkout_one_shot, AssignmentEngine, CacheStats, CandidateCache, ChurnCounters,
    ConcurrentAssignmentEngine, GreedyEngine, Objective, Occupancy, ShardedLedger,
};
pub use multi::conflict::{independence_graph, IndependenceGraph};
pub use multi::group_parallel::{msqm_group_parallel, GroupParallelOutcome};
pub use multi::protocol::{CommittedExecution, MasterCommand, TaskMaster, TaskOwner, WorkerEvent};
pub use multi::task_parallel::{msqm_task_parallel, TaskParallelOutcome};
pub use multi::{MultiOutcome, MultiTaskConfig, TaskCandidate, TaskState};
pub use single::baseline::{random_assignment, random_summary, RandSummary};
pub use single::dual::{min_budget_for_quality, DualOutcome};
pub use single::greedy::{approx, approx_star, GreedyOutcome, GreedyTimings};
pub use single::opt::optimal;
pub use single::SingleTaskConfig;
