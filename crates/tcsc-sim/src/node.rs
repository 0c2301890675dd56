//! The region-node component.
//!
//! A [`RegionNode`] owns the [`TaskOwner`] states of every task homed in its
//! spatial shards (the tiles of the cluster's [`tcsc_index::TileRouter`]
//! striped over the nodes).  It answers the two message families of the
//! runtime:
//!
//! * **checkout** — build task states from [`checkout_one_shot`]
//!   candidates: one search per slot of the shared read-only index,
//!   filtered by the dispatcher's committed-occupancy snapshot, the
//!   one-shot checkout of an engine drain with the same counters (every
//!   task of a [`crate::SimBatch`] is checked out once, so a per-node
//!   candidate memo would never hit);
//! * **candidate** — the [`tcsc_assign::MasterCommand`]
//!   compute/refresh/execute protocol, executed by the shared [`TaskOwner`]
//!   (bit-identical to the thread driver).

use std::rc::Rc;

use tcsc_assign::{
    checkout_one_shot, CacheStats, MultiTaskConfig, TaskOwner, TaskState, WorkerLedger,
};
use tcsc_core::CostModel;
use tcsc_index::WorkerIndex;

use crate::kernel::{Component, ComponentId, Context, SimTime};
use crate::messages::NetMessage;

/// A region node owning the tasks of a set of spatial shards.
pub struct RegionNode {
    index: Rc<WorkerIndex>,
    cost_model: Rc<dyn CostModel>,
    config: MultiTaskConfig,
    dispatcher: ComponentId,
    owner: TaskOwner,
    stats: CacheStats,
    /// Local service time added to every reply (models node compute cost).
    service_us: SimTime,
}

impl RegionNode {
    /// A node serving `dispatcher`, computing against the shared read-only
    /// index.
    pub fn new(
        index: Rc<WorkerIndex>,
        cost_model: Rc<dyn CostModel>,
        config: MultiTaskConfig,
        dispatcher: ComponentId,
        service_us: SimTime,
    ) -> Self {
        Self {
            index,
            cost_model,
            config,
            dispatcher,
            owner: TaskOwner::default(),
            stats: CacheStats::default(),
            service_us,
        }
    }
}

impl Component<NetMessage> for RegionNode {
    fn on_message(
        &mut self,
        _from: ComponentId,
        message: NetMessage,
        ctx: &mut Context<'_, NetMessage>,
    ) {
        match message {
            NetMessage::Checkout { entries, occupied } => {
                let mut snapshot = WorkerLedger::new();
                for (slot, workers) in occupied {
                    for w in workers {
                        snapshot.occupy(slot, w);
                    }
                }
                for (global, task) in entries {
                    let candidates = checkout_one_shot(
                        &task,
                        self.index.as_ref(),
                        self.cost_model.as_ref(),
                        &snapshot,
                        &mut self.stats,
                    );
                    self.owner.insert(
                        global,
                        TaskState::from_candidates(&task, candidates, &self.config),
                    );
                }
            }
            NetMessage::Command(command) => {
                let event =
                    self.owner
                        .handle(command, self.index.as_ref(), self.cost_model.as_ref());
                ctx.send_after(self.dispatcher, NetMessage::Event(event), self.service_us);
            }
            NetMessage::Finish => {
                let owner = std::mem::take(&mut self.owner);
                // Fold the owned states' counters into the node's before
                // shipping them to the dispatcher.
                self.stats.merge(&owner.stats());
                ctx.send(
                    self.dispatcher,
                    NetMessage::Plans {
                        plans: owner.into_plans(),
                        stats: self.stats,
                    },
                );
            }
            _ => unreachable!("unexpected message at a region node"),
        }
    }
}
