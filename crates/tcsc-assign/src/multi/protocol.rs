//! Message protocol and master state machine of the task-level parallel
//! framework.
//!
//! The master of [`super::task_parallel`] is factored out here as a pure,
//! driver-agnostic state machine: [`TaskMaster`] consumes [`WorkerEvent`]s
//! (heartbeats and execution confirmations from the task owners) and emits
//! [`MasterCommand`]s (compute / refresh / execute requests).  Two drivers
//! exist:
//!
//! * the **thread driver** of [`super::task_parallel`], where commands travel
//!   over `std::sync::mpsc` channels to worker threads;
//! * the **simulation driver** of the `tcsc-sim` crate, where the same
//!   commands travel as discrete-event messages with modeled network latency
//!   between a dispatcher and region-node components.
//!
//! Because the machine is pure, the committed behaviour can be verified once
//! (against the serial greedy) and reused by both drivers.
//!
//! # The barrier
//!
//! The master is the paper's deterministic one: a grant is only decided when
//! **every** outstanding reply has arrived, so each selection sees the
//! complete heartbeat table and the committed execution sequence is the
//! serial greedy's.  The table and its selection rule are the crate's one
//! `HeartbeatTable` (`multi/heartbeat.rs`), which the engine's serial commit
//! loop decides through too; the master adds the messages and its count of
//! outstanding replies.  After every event the master
//!
//! 1. re-requests every entry whose candidate the remaining budget can no
//!    longer afford (a recompute may find a cheaper slot);
//! 2. when nothing is pending, selects the affordable candidate with the
//!    maximum heuristic, ties to the lower task index;
//! 3. on a selection-time conflict (the candidate's worker was taken since
//!    it was computed) refreshes that task's slot and waits for it;
//! 4. on a grant occupies the worker and charges the budget, refreshes the
//!    conflict losers (tasks whose candidate targets the same worker at the
//!    same slot), then emits `Execute` and the winner's follow-up `Compute`.

use std::collections::HashMap;

use tcsc_core::{AssignmentPlan, CostModel, SlotIndex, WorkerId};
use tcsc_index::SpatialQuery;
use tcsc_obs::{NoopRecorder, Recorder, Scope};

use crate::candidates::WorkerLedger;
use crate::engine::CacheStats;
use crate::multi::{HeartbeatTable, TaskCandidate, TaskState};

/// A command from the master to the owner (thread or region node) of a task.
/// Every command is answered by exactly one [`WorkerEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum MasterCommand {
    /// Compute the task's best candidate under the given budget and report a
    /// heartbeat.
    Compute {
        /// Task index.
        task: usize,
        /// Budget bound for the candidate search.
        max_cost: f64,
    },
    /// Recompute the candidate of one slot excluding the occupied workers,
    /// then report a heartbeat with the task's new best candidate.
    Refresh {
        /// Task index.
        task: usize,
        /// The slot whose candidate must be recomputed.
        slot: SlotIndex,
        /// Workers occupied at the slot (the exclusion set).
        occupied: Vec<WorkerId>,
        /// Budget bound for the follow-up candidate search.
        max_cost: f64,
    },
    /// Execute a slot of the task with its current candidate worker.
    Execute {
        /// Task index.
        task: usize,
        /// The granted slot.
        slot: SlotIndex,
    },
}

impl MasterCommand {
    /// The task the command addresses.
    pub fn task(&self) -> usize {
        match self {
            Self::Compute { task, .. }
            | Self::Refresh { task, .. }
            | Self::Execute { task, .. } => *task,
        }
    }
}

/// An event from a task owner back to the master.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerEvent {
    /// The task's best candidate under the requested budget (`None` when no
    /// affordable candidate remains).
    Heartbeat {
        /// Task index.
        task: usize,
        /// The best candidate, or `None`.
        candidate: Option<TaskCandidate>,
        /// The worker currently planned for the candidate's slot.
        planned_worker: Option<WorkerId>,
    },
    /// Confirmation that a granted slot was executed.
    Executed {
        /// Task index.
        task: usize,
        /// Executed slot.
        slot: SlotIndex,
        /// The worker that served it.
        worker: WorkerId,
        /// The charged cost.
        cost: f64,
    },
}

/// One committed execution, in grant order (the sequence the equivalence
/// tests compare between runtimes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommittedExecution {
    /// Task index.
    pub task: usize,
    /// Granted slot.
    pub slot: SlotIndex,
    /// Granted worker.
    pub worker: WorkerId,
    /// Charged cost.
    pub cost: f64,
}

/// The owner side of the protocol: the mutable [`TaskState`]s of the tasks a
/// worker thread (or a simulated region node) owns.
///
/// [`TaskOwner::handle`] executes one [`MasterCommand`] and returns the
/// [`WorkerEvent`] to send back.  The same executor backs the thread driver
/// of [`super::task_parallel`] and the region-node components of `tcsc-sim`,
/// so the two runtimes cannot drift.
#[derive(Debug, Default)]
pub struct TaskOwner {
    states: HashMap<usize, TaskState>,
}

impl TaskOwner {
    /// An owner over the given `(task index, state)` pairs.
    pub fn new(states: impl IntoIterator<Item = (usize, TaskState)>) -> Self {
        Self {
            states: states.into_iter().collect(),
        }
    }

    /// Number of owned tasks.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Adds one task's state (the region-node checkout path of `tcsc-sim`).
    pub fn insert(&mut self, task_idx: usize, state: TaskState) {
        self.states.insert(task_idx, state);
    }

    /// Whether no task is owned.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The summed counters of every owned task state (merged into the
    /// run's [`CacheStats`] by the drivers when the protocol finishes).
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for state in self.states.values() {
            total.merge(&state.stats());
        }
        total
    }

    /// Executes one command against the owned states, returning the reply
    /// event.
    pub fn handle(
        &mut self,
        command: MasterCommand,
        index: &dyn SpatialQuery,
        cost_model: &dyn CostModel,
    ) -> WorkerEvent {
        match command {
            MasterCommand::Compute { task, max_cost } => {
                let state = self.states.get_mut(&task).expect("task owned here");
                Self::heartbeat(task, state, max_cost)
            }
            MasterCommand::Refresh {
                task,
                slot,
                occupied,
                max_cost,
            } => {
                let state = self.states.get_mut(&task).expect("task owned here");
                let mut ledger = WorkerLedger::new();
                for w in occupied {
                    ledger.occupy(slot, w);
                }
                state.refresh_slot(slot, index, cost_model, &ledger);
                Self::heartbeat(task, state, max_cost)
            }
            MasterCommand::Execute { task, slot } => {
                let state = self.states.get_mut(&task).expect("task owned here");
                let candidate = *state
                    .candidates
                    .get(slot)
                    .expect("granted slot has a candidate");
                state.execute(slot);
                WorkerEvent::Executed {
                    task,
                    slot,
                    worker: candidate.worker,
                    cost: candidate.cost,
                }
            }
        }
    }

    /// The heartbeat reporting a task's best candidate under `max_cost`.
    fn heartbeat(task: usize, state: &mut TaskState, max_cost: f64) -> WorkerEvent {
        let candidate = state.best_candidate(max_cost);
        let planned_worker = candidate.and_then(|c| state.planned_worker(c.slot));
        WorkerEvent::Heartbeat {
            task,
            candidate,
            planned_worker,
        }
    }

    /// Finalises every owned task's plan.
    pub fn into_plans(self) -> Vec<(usize, AssignmentPlan)> {
        self.states
            .into_iter()
            .map(|(task_idx, state)| (task_idx, state.into_plan()))
            .collect()
    }
}

/// The master state machine of the task-level parallel framework.  Feed it
/// [`WorkerEvent`]s via [`TaskMaster::handle`]; dispatch the returned
/// [`MasterCommand`]s to the task owners; broadcast the finish signal when
/// [`TaskMaster::is_done`] turns true.
pub struct TaskMaster<R: Recorder = NoopRecorder> {
    use_priorities: bool,
    remaining: f64,
    ledger: WorkerLedger,
    table: HeartbeatTable,
    /// Outstanding replies (heartbeats and execution confirmations).
    pending: usize,
    conflicts: usize,
    executions: usize,
    committed: Vec<CommittedExecution>,
    /// Last reported heuristic per task (the priority-ordering key).
    last_heuristic: Vec<Option<f64>>,
    /// Event recorder (statically dispatched; `NoopRecorder` by default, so
    /// un-instrumented drivers pay nothing).
    obs: R,
}

impl<R: Recorder> std::fmt::Debug for TaskMaster<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskMaster")
            .field("remaining", &self.remaining)
            .field("pending", &self.pending)
            .field("executions", &self.executions)
            .finish_non_exhaustive()
    }
}

impl TaskMaster {
    /// A master over `num_tasks` tasks with budget `budget`, starting from
    /// `ledger` (empty for a fresh batch; the committed occupancy of earlier
    /// rounds for streaming drains).  Returns the machine and the initial
    /// compute commands (one per task).
    pub fn new(
        num_tasks: usize,
        budget: f64,
        ledger: WorkerLedger,
        use_priorities: bool,
    ) -> (Self, Vec<MasterCommand>) {
        let master = Self {
            use_priorities,
            remaining: budget,
            ledger,
            table: HeartbeatTable::new(num_tasks),
            pending: num_tasks,
            conflicts: 0,
            executions: 0,
            committed: Vec::new(),
            last_heuristic: vec![None; num_tasks],
            obs: NoopRecorder,
        };
        let commands = (0..num_tasks)
            .map(|task| MasterCommand::Compute {
                task,
                max_cost: master.remaining,
            })
            .collect();
        (master, commands)
    }
}

impl<R: Recorder> TaskMaster<R> {
    /// Rebinds the master to a different recorder (typically from the
    /// `NoopRecorder` default to a live session handle).  The machine state
    /// is carried over unchanged, so this is free to call right after
    /// [`TaskMaster::new`].
    pub fn with_recorder<R2: Recorder>(self, obs: R2) -> TaskMaster<R2> {
        TaskMaster {
            use_priorities: self.use_priorities,
            remaining: self.remaining,
            ledger: self.ledger,
            table: self.table,
            pending: self.pending,
            conflicts: self.conflicts,
            executions: self.executions,
            committed: self.committed,
            last_heuristic: self.last_heuristic,
            obs,
        }
    }

    /// Whether every grant is committed and no reply is outstanding.
    ///
    /// Takes `&mut self` because it asks the heartbeat table's `select`,
    /// which drops dead tops and tops over the budget on the way: the
    /// budget only shrinks, so neither could ever be granted again.
    pub fn is_done(&mut self) -> bool {
        self.pending == 0 && self.table.select(self.remaining).is_none()
    }

    /// Number of worker conflicts recorded so far.
    pub fn conflicts(&self) -> usize {
        self.conflicts
    }

    /// Number of confirmed executions so far.
    pub fn executions(&self) -> usize {
        self.executions
    }

    /// The committed execution sequence, in grant order.
    pub fn committed(&self) -> &[CommittedExecution] {
        &self.committed
    }

    /// Consumes the machine, returning `(committed, conflicts, executions)`.
    pub fn into_committed(self) -> (Vec<CommittedExecution>, usize, usize) {
        (self.committed, self.conflicts, self.executions)
    }

    /// Feeds one worker event into the machine, returning the commands it
    /// triggers (in emission order).
    pub fn handle(&mut self, event: WorkerEvent) -> Vec<MasterCommand> {
        self.pending -= 1;
        match event {
            WorkerEvent::Heartbeat {
                task,
                candidate,
                planned_worker,
            } => {
                if R::IS_ENABLED {
                    self.obs.instant(
                        Scope::Policy,
                        "master.heartbeat",
                        task as u64,
                        u64::from(candidate.is_some()),
                        0,
                    );
                }
                if let Some(c) = &candidate {
                    self.last_heuristic[task] = Some(c.heuristic);
                }
                // A candidate without a planned worker cannot be granted.
                self.table.record(task, candidate.zip(planned_worker));
            }
            WorkerEvent::Executed {
                task, slot, worker, ..
            } => {
                self.executions += 1;
                if R::IS_ENABLED {
                    self.obs.instant(
                        Scope::Policy,
                        "master.executed",
                        task as u64,
                        slot as u64,
                        u64::from(worker.0),
                    );
                    self.obs.counter("master.executions", 1);
                }
            }
        }
        let mut out = Vec::new();
        loop {
            let before = out.len();
            // Budget staleness: a candidate computed under a larger budget
            // is recomputed under the current one (a cheaper slot may
            // still be affordable).
            let mut stale = Vec::new();
            self.table.expire_unaffordable(self.remaining, &mut stale);
            let max_cost = self.remaining;
            self.request(stale, &mut out, |task| MasterCommand::Compute {
                task,
                max_cost,
            });
            if self.pending == 0 {
                self.decide(&mut out);
            }
            if out.len() == before {
                break;
            }
        }
        out
    }

    /// Emits one `command` per task the table just marked pending (each is
    /// one more outstanding reply).  With the dynamic priorities enabled
    /// (Fig. 9(f)) the batch goes out by descending last-reported
    /// heuristic; that affects only the emission order, never the result.
    fn request(
        &mut self,
        mut tasks: Vec<usize>,
        out: &mut Vec<MasterCommand>,
        command: impl FnMut(usize) -> MasterCommand,
    ) {
        if self.use_priorities {
            tasks.sort_by(|&a, &b| {
                let ha = self.last_heuristic[a].unwrap_or(f64::INFINITY);
                let hb = self.last_heuristic[b].unwrap_or(f64::INFINITY);
                hb.total_cmp(&ha)
            });
        }
        self.pending += tasks.len();
        out.extend(tasks.into_iter().map(command));
    }

    /// Decides one selection with the complete heartbeat table: either a
    /// selection-time conflict (refresh and wait) or a grant.
    fn decide(&mut self, out: &mut Vec<MasterCommand>) {
        let Some((task, candidate, worker)) = self.table.select(self.remaining) else {
            return;
        };
        let slot = candidate.slot;
        if self.ledger.is_occupied(slot, worker) {
            // The cached candidate's worker was taken since the candidate was
            // computed: count it and refresh the slot.
            self.conflicts += 1;
            self.table.invalidate(task);
            self.pending += 1;
            out.push(MasterCommand::Refresh {
                task,
                slot,
                occupied: self.ledger.occupied_at(slot),
                max_cost: self.remaining,
            });
            return;
        }

        if R::IS_ENABLED {
            self.obs.instant(
                Scope::Policy,
                "master.grant",
                task as u64,
                slot as u64,
                u64::from(worker.0),
            );
            self.obs.counter("master.grants", 1);
        }
        self.remaining -= candidate.cost;
        self.ledger.occupy(slot, worker);
        self.committed.push(CommittedExecution {
            task,
            slot,
            worker,
            cost: candidate.cost,
        });

        // Conflict losers: every other task whose candidate targets the
        // granted worker at the granted slot.
        self.table.invalidate(task);
        let mut losers = Vec::new();
        self.table.take_losers(slot, worker, &mut losers);
        self.conflicts += losers.len();
        let (occupied, max_cost) = (self.ledger.occupied_at(slot), self.remaining);
        self.request(losers, out, |task| MasterCommand::Refresh {
            task,
            slot,
            occupied: occupied.clone(),
            max_cost,
        });

        // The winner replies twice: the execution confirmation and the
        // heartbeat of its follow-up compute.
        self.pending += 2;
        out.push(MasterCommand::Execute { task, slot });
        out.push(MasterCommand::Compute {
            task,
            max_cost: self.remaining,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(slot: SlotIndex, cost: f64, heuristic: f64) -> TaskCandidate {
        TaskCandidate {
            slot,
            gain: heuristic * cost,
            cost,
            heuristic,
        }
    }

    fn hb(task: usize, candidate: Option<TaskCandidate>, worker: Option<WorkerId>) -> WorkerEvent {
        WorkerEvent::Heartbeat {
            task,
            candidate,
            planned_worker: worker,
        }
    }

    #[test]
    fn barrier_machine_waits_for_every_heartbeat() {
        let (mut master, initial) = TaskMaster::new(2, 10.0, WorkerLedger::new(), false);
        assert_eq!(initial.len(), 2);
        // One heartbeat in: the barrier master must not grant yet.
        let out = master.handle(hb(0, Some(cand(0, 1.0, 3.0)), Some(WorkerId(0))));
        assert!(out.is_empty(), "barrier must wait for task 1's heartbeat");
        // Second heartbeat: now the max (task 0) is granted and executed.
        let out = master.handle(hb(1, Some(cand(1, 1.0, 2.0)), Some(WorkerId(1))));
        assert!(matches!(
            out[0],
            MasterCommand::Execute { task: 0, slot: 0 }
        ));
    }

    #[test]
    fn a_grant_refreshes_its_losers_before_execute_and_compute() {
        let (mut master, _) = TaskMaster::new(3, 10.0, WorkerLedger::new(), false);
        master.handle(hb(0, Some(cand(0, 1.0, 5.0)), Some(WorkerId(4))));
        master.handle(hb(1, Some(cand(0, 1.0, 4.0)), Some(WorkerId(4))));
        let out = master.handle(hb(2, Some(cand(1, 1.0, 3.0)), Some(WorkerId(7))));
        assert_eq!(
            out,
            vec![
                MasterCommand::Refresh {
                    task: 1,
                    slot: 0,
                    occupied: vec![WorkerId(4)],
                    max_cost: 9.0,
                },
                MasterCommand::Execute { task: 0, slot: 0 },
                MasterCommand::Compute {
                    task: 0,
                    max_cost: 9.0,
                },
            ]
        );
        assert_eq!(master.conflicts(), 1);
        assert_eq!(master.committed()[0].worker, WorkerId(4));
    }

    #[test]
    fn a_selection_time_conflict_refreshes_and_waits() {
        let mut ledger = WorkerLedger::new();
        ledger.occupy(0, WorkerId(4));
        let (mut master, _) = TaskMaster::new(2, 10.0, ledger, false);
        master.handle(hb(0, Some(cand(0, 1.0, 5.0)), Some(WorkerId(4))));
        let out = master.handle(hb(1, Some(cand(1, 1.0, 3.0)), Some(WorkerId(2))));
        // Task 0's worker is taken: refresh it and grant nothing until the
        // refreshed heartbeat arrives.
        assert_eq!(
            out,
            vec![MasterCommand::Refresh {
                task: 0,
                slot: 0,
                occupied: vec![WorkerId(4)],
                max_cost: 10.0,
            }]
        );
        assert_eq!(master.conflicts(), 1);
        assert!(!master.is_done());
        // Task 0 has nothing left; task 1 is granted now.
        let out = master.handle(hb(0, None, None));
        assert_eq!(out[0], MasterCommand::Execute { task: 1, slot: 1 });
    }

    #[test]
    fn done_once_the_last_heartbeats_report_nothing_after_a_grant() {
        let (mut master, _) = TaskMaster::new(2, 10.0, WorkerLedger::new(), false);
        master.handle(hb(0, Some(cand(0, 1.0, 5.0)), Some(WorkerId(4))));
        master.handle(hb(1, Some(cand(1, 1.0, 3.0)), Some(WorkerId(2))));
        // Task 0 was granted; task 1's candidate is still live.
        master.handle(WorkerEvent::Executed {
            task: 0,
            slot: 0,
            worker: WorkerId(4),
            cost: 1.0,
        });
        let out = master.handle(hb(0, None, None));
        assert_eq!(out[0], MasterCommand::Execute { task: 1, slot: 1 });
        assert!(!master.is_done());
        // Every heap entry left is stale: both grants' winners report nothing.
        master.handle(WorkerEvent::Executed {
            task: 1,
            slot: 1,
            worker: WorkerId(2),
            cost: 1.0,
        });
        assert!(!master.is_done());
        assert!(master.handle(hb(1, None, None)).is_empty());
        assert!(master.is_done());
        assert_eq!(master.executions(), 2);
    }
}
