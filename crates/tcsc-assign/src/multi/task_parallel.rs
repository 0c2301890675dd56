//! Task-level parallelization (Section IV-A.2).
//!
//! A master thread coordinates a pool of worker threads.  Each worker thread
//! owns a subset of the tasks and, on request, computes the best candidate
//! subtask of a task (the expensive part: heuristic-value search over the
//! aggregated tree).  The master maintains the control structures of the
//! paper:
//!
//! * **Heartbeat table** — the latest candidate reported per task, with the
//!   selection rule and the conflict losers of a grant (the crate's one
//!   `HeartbeatTable`, shared with the serial engine's commit loop);
//! * **conflict resolution** — a task that loses a worker to another task is
//!   sent a refresh whose exclusion set (the workers occupied at the slot)
//!   names its fallback, so it needs no separate conflicting table;
//! * **dynamic priorities** — tasks are re-evaluated in descending order of
//!   their last reported heuristic value, so threads working on promising
//!   tasks are served first (Fig. 9(f) ablates this).
//!
//! The decision logic lives in the driver-agnostic
//! [`crate::multi::protocol::TaskMaster`] state machine; this module is the
//! *thread driver*: it wires the machine and the
//! [`crate::multi::protocol::TaskOwner`] executors over `std::sync::mpsc`
//! channels.  (`tcsc-sim` drives the same machine over simulated network
//! messages.)  The master waits for every outstanding heartbeat before
//! granting an execution, so the sequence of executed subtasks — and
//! therefore the final assignment plan — is identical to the serial greedy
//! of [`crate::engine::AssignmentEngine::assign_batch`].

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};

use tcsc_core::{AssignmentPlan, CostModel, MultiAssignment, Task};
use tcsc_index::WorkerIndex;

use crate::candidates::{SlotCandidates, WorkerLedger};
use crate::engine::CacheStats;
use crate::multi::protocol::{
    CommittedExecution, MasterCommand, TaskMaster, TaskOwner, WorkerEvent,
};
use crate::multi::{MultiOutcome, MultiTaskConfig, TaskState};

/// Outcome of the task-level parallel run.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskParallelOutcome {
    /// The combined multi-task outcome.
    pub outcome: MultiOutcome,
    /// The committed execution sequence, in grant order.
    pub committed: Vec<CommittedExecution>,
    /// Number of worker threads used.
    pub threads: usize,
}

/// What travels over a worker thread's command channel.
enum ThreadCommand {
    /// A master command for a task this thread owns.
    Master(MasterCommand),
    /// Finish: send the task plans back to the master.
    Finish,
}

/// What travels back to the master.
enum ThreadEvent {
    Worker(WorkerEvent),
    /// The thread's task plans plus its states' counters.
    Plans(Vec<(usize, AssignmentPlan)>, CacheStats),
}

/// Runs MSQM with the task-level parallel framework on `threads` worker
/// threads under the deterministic barrier master.  `use_priorities` toggles
/// the dynamic priority ordering of recomputation requests (Fig. 9(f)).
pub fn msqm_task_parallel(
    tasks: &[Task],
    index: &WorkerIndex,
    cost_model: &(dyn CostModel + Sync),
    config: &MultiTaskConfig,
    threads: usize,
    use_priorities: bool,
) -> TaskParallelOutcome {
    let threads = threads.clamp(1, tasks.len().max(1));
    if tasks.is_empty() {
        return TaskParallelOutcome {
            outcome: MultiOutcome {
                assignment: MultiAssignment::default(),
                conflicts: 0,
                executions: 0,
                stats: CacheStats::default(),
            },
            committed: Vec::new(),
            threads,
        };
    }

    // Task -> owning thread (round-robin).
    let owner: Vec<usize> = (0..tasks.len()).map(|i| i % threads).collect();

    // The master computes every task's initial per-slot candidates (counted
    // in `CacheStats` as misses) and hands them to the owning threads, which
    // build their mutable states from them.  The initial ledger is empty, so
    // these are the base candidates.
    let mut stats = CacheStats::default();
    let mut per_thread_candidates: Vec<HashMap<usize, crate::candidates::SlotCandidates>> =
        (0..threads).map(|_| HashMap::new()).collect();
    for (task_idx, task) in tasks.iter().enumerate() {
        let mut candidates = SlotCandidates::default();
        crate::engine::compute_base(task, index, &cost_model, &mut stats, &mut candidates);
        per_thread_candidates[owner[task_idx]].insert(task_idx, candidates);
    }

    let (event_tx, event_rx): (Sender<ThreadEvent>, Receiver<ThreadEvent>) = channel();
    let mut command_txs: Vec<Sender<ThreadCommand>> = Vec::with_capacity(threads);
    let mut command_rxs: Vec<Receiver<ThreadCommand>> = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (tx, rx) = channel();
        command_txs.push(tx);
        command_rxs.push(rx);
    }

    std::thread::scope(|scope| {
        // ------------------------------------------------------------------
        // Worker threads: a `TaskOwner` executor each.
        // ------------------------------------------------------------------
        for (command_rx, thread_candidates) in command_rxs.into_iter().zip(per_thread_candidates) {
            let event_tx = event_tx.clone();
            scope.spawn(move || {
                let mut owner =
                    TaskOwner::new(thread_candidates.into_iter().map(|(task_idx, candidates)| {
                        (
                            task_idx,
                            TaskState::from_candidates(&tasks[task_idx], candidates, config),
                        )
                    }));
                while let Ok(command) = command_rx.recv() {
                    match command {
                        ThreadCommand::Master(command) => {
                            let event = owner.handle(command, index, cost_model);
                            event_tx.send(ThreadEvent::Worker(event)).ok();
                        }
                        ThreadCommand::Finish => {
                            let owned = owner.stats();
                            event_tx
                                .send(ThreadEvent::Plans(owner.into_plans(), owned))
                                .ok();
                            break;
                        }
                    }
                }
            });
        }
        drop(event_tx);

        // ------------------------------------------------------------------
        // Master thread (this thread): drive the shared state machine.
        // ------------------------------------------------------------------
        let (mut master, initial) = TaskMaster::new(
            tasks.len(),
            config.budget,
            WorkerLedger::new(),
            use_priorities,
        );
        let dispatch = |commands: Vec<MasterCommand>, txs: &[Sender<ThreadCommand>]| {
            for command in commands {
                txs[owner[command.task()]]
                    .send(ThreadCommand::Master(command))
                    .ok();
            }
        };
        dispatch(initial, &command_txs);
        while !master.is_done() {
            let event = match event_rx
                .recv()
                .expect("worker threads stay alive until Finish")
            {
                ThreadEvent::Worker(event) => event,
                ThreadEvent::Plans(..) => unreachable!("no Finish command sent yet"),
            };
            let commands = master.handle(event);
            dispatch(commands, &command_txs);
        }

        // Collect the plans.
        for tx in &command_txs {
            tx.send(ThreadCommand::Finish).ok();
        }
        let mut plans: Vec<Option<AssignmentPlan>> = vec![None; tasks.len()];
        let mut finished = 0usize;
        while finished < threads {
            match event_rx.recv().expect("threads reply with their plans") {
                ThreadEvent::Plans(batch, owned) => {
                    for (task_idx, plan) in batch {
                        plans[task_idx] = Some(plan);
                    }
                    stats.merge(&owned);
                    finished += 1;
                }
                ThreadEvent::Worker(_) => {
                    unreachable!("the master finishes only when no reply is outstanding")
                }
            }
        }
        let plans: Vec<AssignmentPlan> = plans
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                p.unwrap_or_else(|| AssignmentPlan::empty(tasks[i].id, tasks[i].num_slots))
            })
            .collect();

        let (committed, conflicts, executions) = master.into_committed();

        TaskParallelOutcome {
            outcome: MultiOutcome {
                assignment: MultiAssignment::new(plans),
                conflicts,
                executions,
                stats,
            },
            committed,
            threads,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AssignmentEngine, Objective};
    use crate::multi::test_support::small_instance;

    #[test]
    fn matches_the_serial_plan() {
        // The framework is deterministic and must reproduce the serial greedy
        // plan (the paper's consistency claim).
        let (tasks, index, cost) = small_instance(41, 6, 25, 120);
        let cfg = MultiTaskConfig::new(60.0);
        let serial = AssignmentEngine::borrowed(&index, &cost, cfg)
            .assign_batch(&tasks, Objective::SumQuality);
        for threads in [1, 2, 4] {
            let parallel = msqm_task_parallel(&tasks, &index, &cost, &cfg, threads, true);
            assert!(
                (parallel.outcome.sum_quality() - serial.sum_quality()).abs() < 1e-9,
                "{threads} threads: {} vs serial {}",
                parallel.outcome.sum_quality(),
                serial.sum_quality()
            );
            assert_eq!(parallel.outcome.executions, serial.executions);
            assert_eq!(parallel.committed.len(), parallel.outcome.executions);
        }
    }

    #[test]
    fn respects_the_global_budget() {
        let (tasks, index, cost) = small_instance(42, 5, 20, 100);
        for budget in [10.0, 35.0] {
            let outcome = msqm_task_parallel(
                &tasks,
                &index,
                &cost,
                &MultiTaskConfig::new(budget),
                3,
                true,
            );
            assert!(outcome.outcome.assignment.total_cost() <= budget + 1e-6);
        }
    }

    #[test]
    fn no_worker_double_booking() {
        let (tasks, index, cost) = small_instance(43, 8, 20, 40);
        let outcome =
            msqm_task_parallel(&tasks, &index, &cost, &MultiTaskConfig::new(300.0), 4, true);
        let mut seen = std::collections::HashSet::new();
        for plan in &outcome.outcome.assignment.plans {
            for exec in &plan.executions {
                assert!(seen.insert((exec.slot, exec.worker)));
            }
        }
    }

    #[test]
    fn scarce_workers_conflict_as_in_the_serial_engine() {
        // Scarce workers and clustered tasks force conflicts; the master
        // counts exactly the serial engine's.
        let (tasks, index, cost) = small_instance(44, 8, 15, 20);
        let cfg = MultiTaskConfig::new(400.0);
        let serial = AssignmentEngine::borrowed(&index, &cost, cfg)
            .assign_batch(&tasks, Objective::SumQuality);
        let outcome = msqm_task_parallel(&tasks, &index, &cost, &cfg, 4, true);
        assert!(outcome.outcome.conflicts > 0);
        assert_eq!(outcome.outcome.conflicts, serial.conflicts);
        // A fresh batch reconciles nothing: every slot refresh is a conflict.
        assert_eq!(serial.stats.slot_refreshes, serial.conflicts);
        assert_eq!(outcome.outcome.stats, serial.stats);
    }

    #[test]
    fn priority_toggle_does_not_change_the_result() {
        let (tasks, index, cost) = small_instance(46, 5, 20, 60);
        let cfg = MultiTaskConfig::new(50.0);
        let with = msqm_task_parallel(&tasks, &index, &cost, &cfg, 3, true);
        let without = msqm_task_parallel(&tasks, &index, &cost, &cfg, 3, false);
        assert!((with.outcome.sum_quality() - without.outcome.sum_quality()).abs() < 1e-9);
    }

    #[test]
    fn empty_task_set_is_handled() {
        let (_, index, cost) = small_instance(47, 1, 10, 20);
        let outcome = msqm_task_parallel(&[], &index, &cost, &MultiTaskConfig::new(10.0), 2, true);
        assert_eq!(outcome.outcome.executions, 0);
        assert!(outcome.outcome.assignment.plans.is_empty());
    }
}
