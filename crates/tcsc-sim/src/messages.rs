//! The network protocol of the simulated distributed TCSC runtime.
//!
//! The dispatcher and the region nodes exchange exactly the master/owner
//! protocol of `tcsc-assign::multi::protocol` ([`MasterCommand`] /
//! [`WorkerEvent`]), wrapped in envelope variants that add what a distributed
//! deployment needs on top: batch checkout with an occupancy snapshot, claim
//! replication to the worker's owning shard, plan collection, and the worker
//! pools' liveness pings.

use tcsc_assign::{CacheStats, MasterCommand, WorkerEvent};
use tcsc_core::{AssignmentPlan, Location, SlotIndex, Task, WorkerId};

use crate::kernel::Message;

/// One message of the simulated runtime.
#[derive(Debug, Clone)]
pub enum NetMessage {
    /// Harness → dispatcher: a batch of task arrivals (global indices).
    SubmitBatch {
        /// `(global task index, task)` pairs, in arrival order.
        entries: Vec<(usize, Task)>,
    },
    /// Dispatcher → region node: check the listed tasks out against the
    /// shared index, reconciling against the master's
    /// committed-occupancy snapshot (non-empty from the second round on).
    Checkout {
        /// `(global task index, task)` pairs homed in this node's shards.
        entries: Vec<(usize, Task)>,
        /// Committed `(slot, occupied workers)` snapshot.
        occupied: Vec<(SlotIndex, Vec<WorkerId>)>,
    },
    /// Dispatcher → region node: one master command for an owned task
    /// (task indices are *global*; the dispatcher translates).
    Command(MasterCommand),
    /// Region node → dispatcher: one owner event (heartbeat or execution
    /// confirmation), with the executed worker's location attached so the
    /// dispatcher can route the claim replication to the owning shard.
    Event {
        /// The protocol event (global task index).
        event: WorkerEvent,
        /// Location of the executed worker (for `Executed` events).
        worker_location: Option<Location>,
    },
    /// Dispatcher → owning region node: replicate a committed claim into the
    /// shard's ledger partition (the authority check for double grants).
    Claim {
        /// The spatial shard owning the worker.
        shard: usize,
        /// The claimed slot.
        slot: SlotIndex,
        /// The claimed worker.
        worker: WorkerId,
    },
    /// Dispatcher → region node: the run is over; report plans and counters.
    Finish,
    /// Region node → dispatcher: final per-task plans and node counters.
    Plans {
        /// `(global task index, plan)` pairs.
        plans: Vec<(usize, AssignmentPlan)>,
        /// The node's accumulated candidate-cache counters.
        stats: CacheStats,
        /// Commitments recorded in the node's ledger partitions.
        commitments: usize,
        /// Worker-pool liveness pings the node received.
        pings: u64,
    },
    /// Worker pool → its region node: liveness heartbeat.
    WorkerPing {
        /// Number of workers the pool reports for.
        workers: usize,
    },
    /// Worker pool → itself: periodic timer.
    Tick,
    /// Dispatcher → worker pool: stop ticking (the run is over).
    Quiesce,
}

impl Message for NetMessage {
    fn label(&self) -> &'static str {
        match self {
            Self::SubmitBatch { .. } => "submit",
            Self::Checkout { .. } => "checkout",
            Self::Command(MasterCommand::Compute { .. }) => "compute",
            Self::Command(MasterCommand::Refresh { .. }) => "refresh",
            Self::Command(MasterCommand::Execute { .. }) => "execute",
            Self::Event {
                event: WorkerEvent::Heartbeat { .. },
                ..
            } => "heartbeat",
            Self::Event {
                event: WorkerEvent::Executed { .. },
                ..
            } => "executed",
            Self::Claim { .. } => "claim",
            Self::Finish => "finish",
            Self::Plans { .. } => "plans",
            Self::WorkerPing { .. } => "worker-ping",
            Self::Tick => "tick",
            Self::Quiesce => "quiesce",
        }
    }
}
