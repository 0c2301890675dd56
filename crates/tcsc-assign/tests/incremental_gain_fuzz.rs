//! Differential fuzz: the gain ledger behind [`TaskState::best_candidate`]
//! must commit **bit-identical** outcomes — plans, conflicts, executions — to
//! a full search per request (`support::oracle`), over random scenarios,
//! streaming drains, task-parallel runs and raw owner command tapes, while
//! the commit tail performs zero full best-candidate recomputes.  The two
//! strategies the suite names compare are the ledger and that full search.
//!
//! ≥300 seeded cases across the five suites below.  Every case that fails
//! here is a case where the gain ledger's lazy-greedy pop (or its patch
//! protocol) returned a different argmax than the full search.

mod support;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::ops::RangeInclusive;
use support::oracle::{full_best, mmqm_oracle, msqm_oracle};
use tcsc_assign::{
    msqm_task_parallel, AssignmentEngine, MasterCommand, MultiOutcome, MultiTaskConfig, Objective,
    SlotCandidates, TaskOwner, TaskState, WorkerEvent, WorkerLedger,
};
use tcsc_core::{EuclideanCost, Task, WorkerId};
use tcsc_index::WorkerIndex;
use tcsc_workload::{ScenarioConfig, SpatialDistribution, TaskPlacement};

/// A random small scenario with a slot count drawn from `slots` (uniform /
/// gaussian / zipf placements only: exact zero-distance candidates cannot
/// occur, so the ledger never needs its zero-cost full-search fallback and
/// `full_refreshes == 0` is exact).
fn random_instance(
    rng: &mut StdRng,
    slots: RangeInclusive<usize>,
) -> (Vec<Task>, WorkerIndex, f64, usize) {
    let num_tasks = rng.gen_range(3..=10);
    let num_slots = rng.gen_range(slots);
    let num_workers = rng.gen_range(30..=160);
    let budget = rng.gen_range(4.0..70.0);
    let placement = match rng.gen_range(0..3) {
        0 => SpatialDistribution::Uniform,
        1 => SpatialDistribution::Gaussian,
        _ => SpatialDistribution::zipf_default(),
    };
    let cfg = ScenarioConfig::small()
        .with_num_tasks(num_tasks)
        .with_num_slots(num_slots)
        .with_num_workers(num_workers)
        .with_placement(TaskPlacement::Synthetic(placement))
        .with_seed(rng.next_u64());
    let scenario = cfg.build();
    let index = WorkerIndex::build(&scenario.workers, num_slots, &scenario.domain);
    (scenario.tasks, index, budget, num_slots)
}

/// The oracle run of `objective`, committing into `ledger`.
fn oracle(
    tasks: &[Task],
    index: &WorkerIndex,
    cfg: &MultiTaskConfig,
    objective: Objective,
    ledger: &mut WorkerLedger,
) -> MultiOutcome {
    let cost = EuclideanCost::default();
    match objective {
        Objective::SumQuality => msqm_oracle(tasks, index, &cost, cfg, ledger).0,
        Objective::MinQuality => mmqm_oracle(tasks, index, &cost, cfg, ledger),
    }
}

#[test]
fn batch_plans_are_bit_identical_across_strategies() {
    let cost = EuclideanCost::default();
    let mut total_stale_pops = 0usize;
    for seed in 0..110u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tasks, index, budget, _) = random_instance(&mut rng, 8..=32);
        let objective = if seed % 2 == 0 {
            Objective::SumQuality
        } else {
            Objective::MinQuality
        };
        // Every third case exercises the plain (non-V-tree) search.
        let cfg = MultiTaskConfig::new(budget).with_index(seed % 3 != 0);

        let full = oracle(&tasks, &index, &cfg, objective, &mut WorkerLedger::new());
        let inc = AssignmentEngine::borrowed(&index, &cost, cfg).assign_batch(&tasks, objective);

        assert_eq!(
            full.assignment, inc.assignment,
            "plans diverged, seed {seed}"
        );
        assert_eq!(
            full.conflicts, inc.conflicts,
            "conflicts diverged, seed {seed}"
        );
        assert_eq!(
            full.executions, inc.executions,
            "executions diverged, seed {seed}"
        );
        // Directional refresh accounting: the commit tail never runs a full
        // search.
        assert_eq!(
            inc.stats.full_refreshes, 0,
            "the ledger ran a full refresh, seed {seed}: {:?}",
            inc.stats
        );
        if inc.conflicts > 0 {
            assert!(
                inc.stats.incremental_patches > 0,
                "conflict refreshes must patch the ledger, seed {seed}"
            );
        }
        total_stale_pops += inc.stats.stale_pops;
    }
    // Individual tight-budget runs may drop everything without a single
    // re-score, but across the sweep the lazy-greedy pop must have done real
    // work.
    assert!(total_stale_pops > 0, "the ledger never re-scored anything");
}

#[test]
fn tiny_tasks_are_bit_identical_across_strategies() {
    // One- and two-slot tasks: a one-slot task's only gain is zero, so no
    // strategy may plan it; both strategies agree on feasibility.
    let cost = EuclideanCost::default();
    let mut one_slot_cases = 0;
    for seed in 4000..4040u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tasks, index, budget, num_slots) = random_instance(&mut rng, 1..=2);
        for (objective, use_index) in [
            (Objective::SumQuality, true),
            (Objective::MinQuality, true),
            (Objective::SumQuality, false),
        ] {
            let cfg = MultiTaskConfig::new(budget).with_index(use_index);
            let full = oracle(&tasks, &index, &cfg, objective, &mut WorkerLedger::new());
            let inc =
                AssignmentEngine::borrowed(&index, &cost, cfg).assign_batch(&tasks, objective);
            let label = format!("seed {seed}, {objective:?}, index {use_index}");
            assert_eq!(full.assignment, inc.assignment, "plans diverged, {label}");
            assert_eq!(full.conflicts, inc.conflicts, "{label}");
            assert_eq!(full.executions, inc.executions, "{label}");
            if num_slots == 1 {
                assert_eq!(inc.executions, 0, "a one-slot task was planned, {label}");
            }
        }
        one_slot_cases += usize::from(num_slots == 1);
    }
    assert!(one_slot_cases > 0, "no one-slot instance was drawn");
}

#[test]
fn streaming_drains_are_bit_identical_across_strategies() {
    let cost = EuclideanCost::default();
    for seed in 1000..1060u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tasks, index, budget, _) = random_instance(&mut rng, 8..=32);
        let cfg = MultiTaskConfig::new(budget);
        let mut engine = AssignmentEngine::borrowed(&index, &cost, cfg);
        // The oracle's occupancy, carried from drain to drain like the
        // engine's.
        let mut ledger = WorkerLedger::new();

        let mut start = 0usize;
        let mut round = 0usize;
        while start < tasks.len() {
            let len = rng.gen_range(1..=3.min(tasks.len() - start));
            let chunk = &tasks[start..start + len];
            start += len;
            let objective = if rng.gen_bool(0.5) {
                Objective::SumQuality
            } else {
                Objective::MinQuality
            };
            engine.submit(chunk.to_vec());
            let inc = engine.drain(objective);
            let full = oracle(chunk, &index, &cfg, objective, &mut ledger);
            assert_eq!(
                full.assignment, inc.assignment,
                "round {round} plans diverged, seed {seed}"
            );
            assert_eq!(full.conflicts, inc.conflicts, "seed {seed}");
            assert_eq!(full.executions, inc.executions, "seed {seed}");
            assert_eq!(inc.stats.full_refreshes, 0, "seed {seed}");
            round += 1;
        }
    }
}

#[test]
fn task_parallel_commits_bit_identical_plans_across_strategies() {
    // The task-parallel owners patch their states' ledgers on every conflict
    // refresh; the committed outcome must still equal the full-search greedy
    // and the serial engine.
    let cost = EuclideanCost::default();
    for seed in 2000..2060u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tasks, index, budget, _) = random_instance(&mut rng, 8..=32);
        let cfg = MultiTaskConfig::new(budget);
        let threads = rng.gen_range(2..=4);

        let serial = AssignmentEngine::borrowed(&index, &cost, cfg)
            .assign_batch(&tasks, Objective::SumQuality);
        let (full, full_committed) =
            msqm_oracle(&tasks, &index, &cost, &cfg, &mut WorkerLedger::new());
        let inc = msqm_task_parallel(&tasks, &index, &cost, &cfg, threads, true);

        assert_eq!(
            full_committed, inc.committed,
            "committed diverged, seed {seed}"
        );
        assert_eq!(
            full.assignment, inc.outcome.assignment,
            "plans diverged, seed {seed}"
        );
        assert_eq!(full.conflicts, inc.outcome.conflicts, "seed {seed}");
        assert_eq!(
            serial.assignment, inc.outcome.assignment,
            "task-parallel diverged from the serial greedy, seed {seed}"
        );
    }
}

#[test]
fn owner_tape_with_raised_budgets_matches_the_full_search() {
    // Owner-level differential fuzz: drive a `TaskOwner` with a random
    // command tape — computes under shrinking and re-grown budgets,
    // refreshes, executions — while a mirror `TaskState` replays the same
    // refreshes and executions, and require every heartbeat to report the
    // mirror's full-search best candidate.  This is the direct check that
    // patching, dropping unaffordable entries and the rebuild a raised bound
    // triggers leave the gain ledger answering exactly like a full search.
    let cost = EuclideanCost::default();
    for seed in 3000..3090u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = ScenarioConfig::small()
            .with_num_tasks(1)
            .with_num_slots(rng.gen_range(10..=40))
            .with_num_workers(rng.gen_range(40..=150))
            .with_seed(rng.next_u64());
        let scenario = cfg.build();
        let index = WorkerIndex::build(&scenario.workers, cfg.num_slots, &scenario.domain);
        let task = scenario.tasks[0].clone();
        let candidates = SlotCandidates::compute(&task, &index, &cost);

        let mcfg = MultiTaskConfig::new(1000.0).with_index(rng.gen_bool(0.7));
        let mut mirror = TaskState::from_candidates(&task, candidates.clone(), &mcfg);
        let mut owner = TaskOwner::new([(0, TaskState::from_candidates(&task, candidates, &mcfg))]);

        let mut max_cost: f64 = rng.gen_range(5.0..50.0);
        let mut last_best: Option<(usize, WorkerId)> = None;
        for step in 0..40 {
            let command = match rng.gen_range(0..8) {
                // Compute under a wandering budget: mostly shrinking, but
                // sometimes raised — that rebuilds the gain ledger.
                0..=3 => {
                    max_cost = if rng.gen_bool(0.25) {
                        max_cost * rng.gen_range(1.1..2.0)
                    } else {
                        max_cost * rng.gen_range(0.6..1.0)
                    };
                    MasterCommand::Compute { task: 0, max_cost }
                }
                // Refresh of a random slot with random occupancy.
                4..=6 => {
                    let slot = rng.gen_range(0..task.num_slots);
                    let occupied: Vec<WorkerId> = (0..rng.gen_range(1..6))
                        .map(|_| WorkerId(rng.gen_range(0..cfg.num_workers as u32)))
                        .collect();
                    MasterCommand::Refresh {
                        task: 0,
                        slot,
                        occupied,
                        max_cost,
                    }
                }
                // Execute the last reported best candidate.
                _ => match last_best.take() {
                    Some((slot, _)) => MasterCommand::Execute { task: 0, slot },
                    None => MasterCommand::Compute { task: 0, max_cost },
                },
            };
            let expected = match &command {
                MasterCommand::Compute { max_cost, .. } => heartbeat(&mirror, &mcfg, *max_cost),
                MasterCommand::Refresh {
                    slot,
                    occupied,
                    max_cost,
                    ..
                } => {
                    let mut ledger = WorkerLedger::new();
                    for w in occupied {
                        ledger.occupy(*slot, *w);
                    }
                    mirror.refresh_slot(*slot, &index, &cost, &ledger);
                    heartbeat(&mirror, &mcfg, *max_cost)
                }
                MasterCommand::Execute { slot, .. } => {
                    let planned = *mirror.candidates.get(*slot).expect("granted slot");
                    mirror.execute(*slot);
                    WorkerEvent::Executed {
                        task: 0,
                        slot: *slot,
                        worker: planned.worker,
                        cost: planned.cost,
                    }
                }
            };
            let reply = owner.handle(command.clone(), &index, &cost);
            assert_eq!(
                reply, expected,
                "reply diverged from the full search at step {step}, seed {seed}, \
                 command {command:?}"
            );
            if let WorkerEvent::Heartbeat {
                candidate: Some(c),
                planned_worker: Some(w),
                ..
            } = &reply
            {
                last_best = Some((c.slot, *w));
            }
        }
        let plans = owner.into_plans();
        assert_eq!(
            plans,
            vec![(0, mirror.into_plan())],
            "final plans diverged, seed {seed}"
        );
    }
}

/// The heartbeat a task owner must send for `state` under `max_cost`: the
/// full-search best candidate and its planned worker.
fn heartbeat(state: &TaskState, cfg: &MultiTaskConfig, max_cost: f64) -> WorkerEvent {
    let candidate = full_best(state, cfg, max_cost);
    WorkerEvent::Heartbeat {
        task: 0,
        candidate,
        planned_worker: candidate.and_then(|c| state.planned_worker(c.slot)),
    }
}
