//! The network protocol of the simulated distributed TCSC runtime.
//!
//! The dispatcher and the region nodes exchange exactly the master/owner
//! protocol of `tcsc-assign::multi::protocol` ([`MasterCommand`] /
//! [`WorkerEvent`]), wrapped in envelope variants for what the protocol
//! leaves to its driver: batch arrival, batch checkout with an occupancy
//! snapshot, and plan collection.

use tcsc_assign::{CacheStats, MasterCommand, WorkerEvent};
use tcsc_core::{AssignmentPlan, SlotIndex, Task, WorkerId};

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
    /// confirmation), with a global task index.
    Event(WorkerEvent),
    /// Dispatcher → region node: the run is over; report plans and counters.
    Finish,
    /// Region node → dispatcher: final per-task plans and node counters.
    Plans {
        /// `(global task index, plan)` pairs.
        plans: Vec<(usize, AssignmentPlan)>,
        /// The node's accumulated candidate-cache counters.
        stats: CacheStats,
    },
}

impl Message for NetMessage {
    fn label(&self) -> &'static str {
        match self {
            Self::SubmitBatch { .. } => "submit",
            Self::Checkout { .. } => "checkout",
            Self::Command(MasterCommand::Compute { .. }) => "compute",
            Self::Command(MasterCommand::Refresh { .. }) => "refresh",
            Self::Command(MasterCommand::Execute { .. }) => "execute",
            Self::Event(WorkerEvent::Heartbeat { .. }) => "heartbeat",
            Self::Event(WorkerEvent::Executed { .. }) => "executed",
            Self::Finish => "finish",
            Self::Plans { .. } => "plans",
        }
    }
}
