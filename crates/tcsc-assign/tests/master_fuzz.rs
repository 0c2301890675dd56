//! Deterministic interleaving fuzz of the task-parallel master: the machine
//! is driven in-process against [`TaskOwner`] executors with a seeded
//! scheduler that picks, at every step, either a command to process or an
//! event to deliver — exploring message orderings real threads would produce
//! (per-owner command FIFO, arbitrary cross-owner event interleaving).  Every
//! ordering must commit the single-thread run's sequence with its conflict
//! count.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcsc_assign::{
    msqm_task_parallel, CommittedExecution, MultiTaskConfig, TaskMaster, TaskOwner, TaskState,
    WorkerLedger,
};
use tcsc_core::{EuclideanCost, Task};
use tcsc_index::WorkerIndex;
use tcsc_workload::ScenarioConfig;

struct FuzzOutcome {
    committed: Vec<CommittedExecution>,
    conflicts: usize,
    executions: usize,
    sum_quality: f64,
}

/// Runs the machine under one seeded delivery order.  Each task is owned by
/// `task % owners`; commands to one owner are FIFO, event delivery to the
/// master interleaves freely across owners.
fn run_interleaved(
    seed: u64,
    owners: usize,
    tasks: &[Task],
    index: &WorkerIndex,
    config: &MultiTaskConfig,
) -> FuzzOutcome {
    let cost = EuclideanCost::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let owner_of: Vec<usize> = (0..tasks.len()).map(|i| i % owners).collect();
    let mut executors: Vec<TaskOwner> = (0..owners)
        .map(|o| {
            TaskOwner::new(
                tasks
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % owners == o)
                    .map(|(i, task)| (i, TaskState::new(task, index, &cost, config))),
            )
        })
        .collect();

    let (mut master, initial) =
        TaskMaster::new(tasks.len(), config.budget, WorkerLedger::new(), true);
    let mut command_queues: Vec<VecDeque<_>> = vec![VecDeque::new(); owners];
    for command in initial {
        command_queues[owner_of[command.task()]].push_back(command);
    }
    // Events ready for delivery, one queue per owner (same-owner events stay
    // ordered, like one thread's sends over an mpsc channel).
    let mut event_queues: Vec<VecDeque<_>> = vec![VecDeque::new(); owners];

    loop {
        let mut choices: Vec<(usize, bool)> = Vec::new();
        for o in 0..owners {
            if !command_queues[o].is_empty() {
                choices.push((o, true));
            }
            if !event_queues[o].is_empty() {
                choices.push((o, false));
            }
        }
        if choices.is_empty() {
            break;
        }
        let (o, is_command) = choices[rng.gen_range(0..choices.len())];
        if is_command {
            let command = command_queues[o].pop_front().expect("chosen non-empty");
            let event = executors[o].handle(command, index, &cost);
            event_queues[o].push_back(event);
        } else {
            let event = event_queues[o].pop_front().expect("chosen non-empty");
            for command in master.handle(event) {
                command_queues[owner_of[command.task()]].push_back(command);
            }
        }
    }
    assert!(
        master.is_done(),
        "delivery drained without completing the run"
    );

    let sum_quality: f64 = executors
        .into_iter()
        .flat_map(TaskOwner::into_plans)
        .map(|(_, plan)| plan.quality)
        .sum();
    let (committed, conflicts, executions) = master.into_committed();
    FuzzOutcome {
        committed,
        conflicts,
        executions,
        sum_quality,
    }
}

/// Every seeded delivery order over `owner_counts` owners must commit the
/// single-thread run's outcome on a `tasks x slots` scenario of `workers`.
fn assert_order_insensitive(
    (tasks, slots, workers): (usize, usize, usize),
    budget: f64,
    seeds: u64,
    owner_counts: &[usize],
) {
    let scenario = ScenarioConfig::small()
        .with_num_tasks(tasks)
        .with_num_slots(slots)
        .with_num_workers(workers)
        .build();
    let index = WorkerIndex::build(&scenario.workers, slots, &scenario.domain);
    let cost = EuclideanCost::default();
    let cfg = MultiTaskConfig::new(budget);
    let reference = msqm_task_parallel(&scenario.tasks, &index, &cost, &cfg, 1, true);
    for seed in 0..seeds {
        for &owners in owner_counts {
            let run = run_interleaved(seed, owners, &scenario.tasks, &index, &cfg);
            let at = format!("{tasks} tasks, seed {seed}, {owners} owners");
            assert_eq!(
                run.committed, reference.committed,
                "committed diverged: {at}"
            );
            assert_eq!(
                run.conflicts, reference.outcome.conflicts,
                "conflicts diverged: {at}"
            );
            assert_eq!(run.executions, reference.outcome.executions, "{at}");
            assert!(
                (run.sum_quality - reference.outcome.sum_quality()).abs() < 1e-9,
                "quality diverged: {at}"
            );
        }
    }
}

#[test]
fn barrier_policy_is_order_insensitive_too() {
    assert_order_insensitive((6, 20, 50), 25.0, 20, &[3]);
    assert_order_insensitive((8, 24, 60), 40.0, 60, &[1, 3, 8]);
}
