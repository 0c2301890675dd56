//! The region-node and worker-pool components.
//!
//! A [`RegionNode`] owns a subset of the spatial shards (the tiles of the
//! cluster's [`tcsc_index::TileRouter`]): for each owned shard it holds a
//! ledger partition of the committed occupancy, plus the
//! [`TaskOwner`] states of every task homed in its shards.  It answers the
//! three message families of the runtime:
//!
//! * **checkout** — build task states from candidates computed against the
//!   shared read-only index and reconciled against the dispatcher's
//!   committed-occupancy snapshot, the one-shot checkout of an engine drain
//!   (every task of a [`crate::SimBatch`] is checked out once, so a per-node
//!   candidate memo would never hit);
//! * **candidate** — the [`tcsc_assign::MasterCommand`]
//!   compute/refresh/execute protocol, executed by the shared [`TaskOwner`]
//!   (bit-identical to the thread driver);
//! * **claim** — replication of committed grants into the owning shard's
//!   ledger partition, with a double-grant authority check.
//!
//! A [`WorkerPool`] component emits periodic liveness heartbeats to its
//! region node until quiesced.

use std::collections::HashMap;
use std::rc::Rc;

use tcsc_assign::{checkout_one_shot, CacheStats, TaskOwner, TaskState, WorkerLedger};
use tcsc_assign::{MultiTaskConfig, WorkerEvent};
use tcsc_core::CostModel;
use tcsc_index::WorkerIndex;

use crate::kernel::{Component, ComponentId, Context, SimTime};
use crate::messages::NetMessage;

/// A region node owning a set of spatial shards.
pub struct RegionNode {
    index: Rc<WorkerIndex>,
    cost_model: Rc<dyn CostModel>,
    config: MultiTaskConfig,
    dispatcher: ComponentId,
    /// Per-owned-shard ledger partitions (claim replication target).
    ledger: HashMap<usize, WorkerLedger>,
    owner: TaskOwner,
    stats: CacheStats,
    pings: u64,
    /// Claims that found the worker already occupied (must stay 0 — the
    /// master serialises grants; a violation means the protocol double
    /// granted).
    double_claims: usize,
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
            ledger: HashMap::new(),
            owner: TaskOwner::default(),
            stats: CacheStats::default(),
            pings: 0,
            double_claims: 0,
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
                // For Execute commands, capture the executed worker's
                // location before the state consumes the candidate — the
                // dispatcher routes the claim replication by it.
                let location = match &command {
                    tcsc_assign::MasterCommand::Execute { task, slot } => {
                        self.owner.planned_location(*task, *slot)
                    }
                    _ => None,
                };
                let event =
                    self.owner
                        .handle(command, self.index.as_ref(), self.cost_model.as_ref());
                let worker_location = match &event {
                    WorkerEvent::Executed { .. } => location,
                    WorkerEvent::Heartbeat { .. } => None,
                };
                ctx.send_after(
                    self.dispatcher,
                    NetMessage::Event {
                        event,
                        worker_location,
                    },
                    self.service_us,
                );
            }
            NetMessage::Claim {
                shard,
                slot,
                worker,
            } => {
                let fresh = self.ledger.entry(shard).or_default().occupy(slot, worker);
                if !fresh {
                    self.double_claims += 1;
                }
            }
            NetMessage::WorkerPing { .. } => {
                self.pings += 1;
            }
            NetMessage::Finish => {
                assert_eq!(
                    self.double_claims, 0,
                    "the master must never double-grant a (slot, worker)"
                );
                let owner = std::mem::take(&mut self.owner);
                // Fold the owned states' commit-tail refresh accounting into
                // the node's counters before shipping them to the dispatcher.
                self.stats.absorb_refresh(&owner.refresh_stats());
                let commitments: usize = self.ledger.values().map(WorkerLedger::len).sum();
                ctx.send(
                    self.dispatcher,
                    NetMessage::Plans {
                        plans: owner.into_plans(),
                        stats: self.stats,
                        commitments,
                        pings: self.pings,
                    },
                );
            }
            _ => unreachable!("unexpected message at a region node"),
        }
    }
}

/// A worker-pool component: emits one liveness ping per interval to its
/// region node until quiesced.
pub struct WorkerPool {
    node: ComponentId,
    workers: usize,
    interval_us: SimTime,
    active: bool,
    /// Remaining ticks (bounds the event count even if quiescing is late).
    remaining: u32,
}

impl WorkerPool {
    /// A pool of `workers` workers pinging `node` every `interval_us`, at
    /// most `max_pings` times.
    pub fn new(node: ComponentId, workers: usize, interval_us: SimTime, max_pings: u32) -> Self {
        Self {
            node,
            workers,
            interval_us,
            active: true,
            remaining: max_pings,
        }
    }
}

impl Component<NetMessage> for WorkerPool {
    fn on_message(
        &mut self,
        _from: ComponentId,
        message: NetMessage,
        ctx: &mut Context<'_, NetMessage>,
    ) {
        match message {
            NetMessage::Tick => {
                if self.active && self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.send(
                        self.node,
                        NetMessage::WorkerPing {
                            workers: self.workers,
                        },
                    );
                    if self.remaining > 0 {
                        let me = ctx.self_id();
                        ctx.send_after(me, NetMessage::Tick, self.interval_us);
                    }
                }
            }
            NetMessage::Quiesce => {
                self.active = false;
            }
            _ => unreachable!("unexpected message at a worker pool"),
        }
    }
}
