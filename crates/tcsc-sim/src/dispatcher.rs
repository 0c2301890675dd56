//! The dispatcher component: routes task batches to region nodes by their
//! [`TileRouter`] tile and drives the task-parallel master state machine
//! ([`TaskMaster`]) over the simulated network.
//!
//! The dispatcher is deliberately thin: every grant decision lives
//! in the shared, fuzz-verified machine of `tcsc-assign::multi::protocol`;
//! this component only translates between batch-local and global task
//! indices and mirrors committed occupancy across batches.  The mirror is
//! the checkout snapshot source and the double-grant authority check: a
//! committed `(slot, worker)` must be fresh in it.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use tcsc_assign::{
    CacheStats, CommittedExecution, MasterCommand, TaskMaster, WorkerEvent, WorkerLedger,
};
use tcsc_core::{AssignmentPlan, Task};
use tcsc_index::{TileRouter, WorkerIndex};
use tcsc_obs::ObsSession;

use crate::kernel::{Component, ComponentId, Context, SimTime};
use crate::messages::NetMessage;

/// One in-flight batch: the master machine plus the local↔global index maps.
/// The master carries the sim's shared recorder handle (`None` when trace
/// recording is off — one predictable branch per event).
struct Batch {
    master: TaskMaster<Option<Rc<ObsSession>>>,
    global: Vec<usize>,
    /// Global → batch-local index (events arrive with global indices).
    local_of: HashMap<usize, usize>,
}

/// What the dispatcher hands back to the harness when the run completes.
#[derive(Debug, Default, Clone)]
pub struct DispatcherReport {
    /// Per-task plans in ascending global index.
    pub plans: Vec<(usize, AssignmentPlan)>,
    /// Committed executions in grant order (global task indices).
    pub committed: Vec<CommittedExecution>,
    /// Worker conflicts across all batches.
    pub conflicts: usize,
    /// Committed executions across all batches.
    pub executions: usize,
    /// Candidate-cache counters summed over the nodes, conflict refreshes
    /// included (matches the engines' convention).
    pub stats: CacheStats,
    /// Virtual time at which the last plan arrived.
    pub finish_time_us: SimTime,
}

/// The master/router component.
pub struct Dispatcher {
    index: Rc<WorkerIndex>,
    /// Location → tile routing of tasks.
    router: TileRouter,
    budget: f64,
    /// Region-node component ids, indexed by node number.
    nodes: Vec<ComponentId>,
    /// Pending batches (not yet started).
    queue: VecDeque<Vec<(usize, Task)>>,
    /// Batches the harness promised to submit; the run only ends after all
    /// of them were solved (late rounds must not be cut off).
    batches_expected: usize,
    batches_done: usize,
    /// The batch currently being solved.
    current: Option<Batch>,
    /// Node number per global task index (fixed at submit time).
    node_of_task: BTreeMap<usize, usize>,
    /// Committed occupancy across batches (the checkout snapshot source and
    /// the double-grant check).
    mirror: WorkerLedger,
    report: DispatcherReport,
    plans_outstanding: usize,
    /// Shared slot the harness reads the report from after the run.
    outbox: Rc<RefCell<Option<DispatcherReport>>>,
    /// Shared trace/metrics session handed to every batch master (`None`
    /// when the harness did not request a trace).
    obs: Option<Rc<ObsSession>>,
}

impl Dispatcher {
    /// A dispatcher over the given nodes, writing its final report into
    /// `outbox` when every node has returned its plans.
    pub fn new(
        index: Rc<WorkerIndex>,
        router: TileRouter,
        budget: f64,
        nodes: Vec<ComponentId>,
        batches_expected: usize,
        outbox: Rc<RefCell<Option<DispatcherReport>>>,
        obs: Option<Rc<ObsSession>>,
    ) -> Self {
        Self {
            index,
            router,
            budget,
            nodes,
            queue: VecDeque::new(),
            batches_expected,
            batches_done: 0,
            current: None,
            node_of_task: BTreeMap::new(),
            mirror: WorkerLedger::new(),
            report: DispatcherReport::default(),
            plans_outstanding: 0,
            outbox,
            obs,
        }
    }

    /// The node number owning a task (its home shard, striped over nodes).
    fn node_of(&self, task: &Task) -> usize {
        self.router.tile_id(&task.location) % self.nodes.len()
    }

    /// Rewrites a batch-local command to global indices.
    fn globalize(&self, command: MasterCommand, global: &[usize]) -> MasterCommand {
        match command {
            MasterCommand::Compute { task, max_cost } => MasterCommand::Compute {
                task: global[task],
                max_cost,
            },
            MasterCommand::Refresh {
                task,
                slot,
                occupied,
                max_cost,
            } => MasterCommand::Refresh {
                task: global[task],
                slot,
                occupied,
                max_cost,
            },
            MasterCommand::Execute { task, slot } => MasterCommand::Execute {
                task: global[task],
                slot,
            },
        }
    }

    /// Sends a batch of master commands to the owning nodes.
    fn dispatch(
        &self,
        commands: Vec<MasterCommand>,
        global: &[usize],
        ctx: &mut Context<'_, NetMessage>,
    ) {
        for command in commands {
            let cmd = self.globalize(command, global);
            let node = self.node_of_task[&cmd.task()];
            ctx.send(self.nodes[node], NetMessage::Command(cmd));
        }
    }

    /// Starts the next queued batch: checkout requests per node, then the
    /// master's initial compute commands.
    fn start_next_batch(&mut self, ctx: &mut Context<'_, NetMessage>) {
        let Some(entries) = self.queue.pop_front() else {
            return;
        };
        // Committed-occupancy snapshot for the checkout reconciliation (the
        // ledger exposes per-slot sets; walk the slots the index covers).
        let snapshot: Vec<_> = (0..self.index.num_slots())
            .filter_map(|slot| {
                let occupied = self.mirror.occupied_at(slot);
                (!occupied.is_empty()).then_some((slot, occupied))
            })
            .collect();

        let mut per_node: BTreeMap<usize, Vec<(usize, Task)>> = BTreeMap::new();
        let mut global = Vec::with_capacity(entries.len());
        for (global_idx, task) in entries {
            let node = self.node_of(&task);
            self.node_of_task.insert(global_idx, node);
            global.push(global_idx);
            per_node.entry(node).or_default().push((global_idx, task));
        }
        for (node, node_entries) in per_node {
            ctx.send(
                self.nodes[node],
                NetMessage::Checkout {
                    entries: node_entries,
                    occupied: snapshot.clone(),
                },
            );
        }

        let (master, initial) =
            TaskMaster::new(global.len(), self.budget, self.mirror.clone(), true);
        let master = master.with_recorder(self.obs.clone());
        self.dispatch(initial, &global, ctx);
        let local_of = global.iter().enumerate().map(|(l, &g)| (g, l)).collect();
        self.current = Some(Batch {
            master,
            global,
            local_of,
        });
    }

    /// Retires finished batches, starts queued ones, and ends the run when
    /// every promised batch has been solved.
    fn pump(&mut self, ctx: &mut Context<'_, NetMessage>) {
        loop {
            match self.current.take() {
                Some(mut batch) => {
                    if !batch.master.is_done() {
                        self.current = Some(batch);
                        return;
                    }
                    self.finish_batch(batch);
                    self.batches_done += 1;
                }
                None => {
                    if !self.queue.is_empty() {
                        self.start_next_batch(ctx);
                        continue;
                    }
                    if self.batches_done == self.batches_expected && self.plans_outstanding == 0 {
                        self.broadcast_finish(ctx);
                    }
                    return;
                }
            }
        }
    }

    /// Folds a finished batch's committed sequence and counters into the
    /// run report.
    fn finish_batch(&mut self, batch: Batch) {
        let global = batch.global;
        let (committed, conflicts, executions) = batch.master.into_committed();
        self.report.conflicts += conflicts;
        self.report.executions += executions;
        self.report
            .committed
            .extend(committed.into_iter().map(|c| CommittedExecution {
                task: global[c.task],
                ..c
            }));
    }

    /// Ends the run: collect plans from every node.
    fn broadcast_finish(&mut self, ctx: &mut Context<'_, NetMessage>) {
        for &node in &self.nodes {
            ctx.send(node, NetMessage::Finish);
        }
        self.plans_outstanding = self.nodes.len();
    }
}

impl Component<NetMessage> for Dispatcher {
    fn on_message(
        &mut self,
        _from: ComponentId,
        message: NetMessage,
        ctx: &mut Context<'_, NetMessage>,
    ) {
        match message {
            NetMessage::SubmitBatch { entries } => {
                self.queue.push_back(entries);
                self.pump(ctx);
            }
            NetMessage::Event(event) => {
                let mut batch = self.current.take().expect("an event implies a live batch");
                // Translate the global task index back to the batch-local one.
                let localize = |global_idx: usize| {
                    *batch
                        .local_of
                        .get(&global_idx)
                        .expect("event for a task of the current batch")
                };
                let local_event = match event {
                    WorkerEvent::Heartbeat {
                        task,
                        candidate,
                        planned_worker,
                    } => WorkerEvent::Heartbeat {
                        task: localize(task),
                        candidate,
                        planned_worker,
                    },
                    WorkerEvent::Executed {
                        task,
                        slot,
                        worker,
                        cost,
                    } => {
                        // A committed execution: mirror the occupancy.  The
                        // mirror holds every commitment of the run, so a
                        // second grant of the pair would find it taken.
                        let fresh = self.mirror.occupy(slot, worker);
                        assert!(fresh, "the master must never double-grant a (slot, worker)");
                        WorkerEvent::Executed {
                            task: localize(task),
                            slot,
                            worker,
                            cost,
                        }
                    }
                };
                let commands = batch.master.handle(local_event);
                self.dispatch(commands, &batch.global, ctx);
                self.current = Some(batch);
                self.pump(ctx);
            }
            NetMessage::Plans { plans, stats } => {
                self.report.plans.extend(plans);
                self.report.stats.merge(&stats);
                self.plans_outstanding -= 1;
                if self.plans_outstanding == 0 {
                    self.report.plans.sort_by_key(|(g, _)| *g);
                    self.report.finish_time_us = ctx.now();
                    *self.outbox.borrow_mut() = Some(std::mem::take(&mut self.report));
                }
            }
            _ => unreachable!("unexpected message at the dispatcher"),
        }
    }
}

#[cfg(test)]
mod tests {
    use tcsc_assign::TaskCandidate;
    use tcsc_core::{Domain, Location, TaskId, WorkerId, WorkerPool};
    use tcsc_index::ShardGridConfig;

    use super::*;
    use crate::kernel::Simulation;
    use crate::latency::LatencyModel;

    /// A node that offers one candidate for its task and then confirms the
    /// grant twice, as a faulty replica would.
    struct DoubleConfirmingNode {
        dispatcher: ComponentId,
        offered: bool,
    }

    impl Component<NetMessage> for DoubleConfirmingNode {
        fn on_message(
            &mut self,
            _from: ComponentId,
            message: NetMessage,
            ctx: &mut Context<'_, NetMessage>,
        ) {
            let event = match message {
                NetMessage::Command(MasterCommand::Compute { task, .. }) => {
                    let offered = std::mem::replace(&mut self.offered, true);
                    WorkerEvent::Heartbeat {
                        task,
                        candidate: (!offered).then_some(TaskCandidate {
                            slot: 0,
                            gain: 1.0,
                            cost: 1.0,
                            heuristic: 1.0,
                        }),
                        planned_worker: (!offered).then_some(WorkerId(7)),
                    }
                }
                NetMessage::Command(MasterCommand::Execute { task, slot }) => {
                    let executed = WorkerEvent::Executed {
                        task,
                        slot,
                        worker: WorkerId(7),
                        cost: 1.0,
                    };
                    ctx.send(self.dispatcher, NetMessage::Event(executed.clone()));
                    executed
                }
                _ => return,
            };
            ctx.send(self.dispatcher, NetMessage::Event(event));
        }
    }

    #[test]
    #[should_panic(expected = "the master must never double-grant a (slot, worker)")]
    fn a_second_confirmation_of_a_grant_is_rejected() {
        let domain = Domain::square(10.0);
        let index = Rc::new(WorkerIndex::build(&WorkerPool::empty(), 1, &domain));
        let mut sim: Simulation<NetMessage> = Simulation::new(LatencyModel::Zero, 1);
        let node = sim.add_component(Box::new(DoubleConfirmingNode {
            dispatcher: 1,
            offered: false,
        }));
        let dispatcher = sim.add_component(Box::new(Dispatcher::new(
            index,
            TileRouter::new(&domain, ShardGridConfig::new(1, 1)),
            10.0,
            vec![node],
            1,
            Rc::default(),
            None,
        )));
        let task = Task::new(TaskId(0), Location::new(5.0, 5.0), 1);
        sim.schedule(
            dispatcher,
            NetMessage::SubmitBatch {
                entries: vec![(0, task)],
            },
            0,
        );
        sim.run();
    }
}
