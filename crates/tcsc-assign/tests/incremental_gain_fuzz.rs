//! Differential fuzz: [`RefreshStrategy::Full`] vs
//! [`RefreshStrategy::Incremental`] must commit **bit-identical** outcomes —
//! plans, conflicts, executions — over random scenarios, streaming drains and
//! task-parallel runs, while the incremental path performs zero full
//! best-candidate recomputes on the commit tail.  The MSQM batches are also
//! checked against the [`msqm_rebuild`] oracle.
//!
//! ≥300 seeded cases across the four suites below.  Every case that fails
//! here is a case where the gain ledger's lazy-greedy pop (or its patch
//! protocol) returned a different argmax than the full
//! search — the exact regression the `Full` oracle exists to catch.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use tcsc_assign::{
    msqm_rebuild, msqm_task_parallel, AssignmentEngine, MasterCommand, MultiTaskConfig, Objective,
    RefreshStrategy, SlotCandidates, TaskOwner, TaskState, WorkerEvent,
};
use tcsc_core::{EuclideanCost, Task, WorkerId};
use tcsc_index::WorkerIndex;
use tcsc_workload::{ScenarioConfig, SpatialDistribution, TaskPlacement};

/// A random small scenario (uniform / gaussian / zipf placements only: exact
/// zero-distance candidates cannot occur, so the incremental path never needs
/// its zero-cost full-search fallback and `full_refreshes == 0` is exact).
fn random_instance(rng: &mut StdRng) -> (Vec<Task>, WorkerIndex, f64, usize) {
    let num_tasks = rng.gen_range(3..=10);
    let num_slots = rng.gen_range(8..=32);
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

fn configs(budget: f64, use_index: bool) -> (MultiTaskConfig, MultiTaskConfig) {
    let base = MultiTaskConfig::new(budget).with_index(use_index);
    (
        base.with_refresh(RefreshStrategy::Full),
        base.with_refresh(RefreshStrategy::Incremental),
    )
}

#[test]
fn batch_plans_are_bit_identical_across_strategies() {
    let cost = EuclideanCost::default();
    let mut total_stale_pops = 0usize;
    for seed in 0..110u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tasks, index, budget, _) = random_instance(&mut rng);
        let objective = if seed % 2 == 0 {
            Objective::SumQuality
        } else {
            Objective::MinQuality
        };
        // Every third case exercises the plain (non-V-tree) search.
        let (full_cfg, inc_cfg) = configs(budget, seed % 3 != 0);

        let full =
            AssignmentEngine::borrowed(&index, &cost, full_cfg).assign_batch(&tasks, objective);
        let inc =
            AssignmentEngine::borrowed(&index, &cost, inc_cfg).assign_batch(&tasks, objective);

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
        // The engine's MSQM commit loop against the rebuild-per-call oracle:
        // same plans, and the same conflicts charged along the way.
        if objective == Objective::SumQuality {
            let oracle = msqm_rebuild(&tasks, &index, &cost, &inc_cfg);
            assert_eq!(
                oracle.assignment, inc.assignment,
                "plans diverged from the rebuild oracle, seed {seed}"
            );
            assert_eq!(
                oracle.conflicts, inc.conflicts,
                "conflicts diverged from the rebuild oracle, seed {seed}"
            );
        }
        // Directional refresh accounting: the incremental commit tail never
        // runs a full search; the full path runs one per commit-tail request.
        assert_eq!(
            inc.stats.full_refreshes, 0,
            "incremental path ran a full refresh, seed {seed}: {:?}",
            inc.stats
        );
        if inc.executions > 1 {
            assert!(
                full.stats.full_refreshes > 0,
                "full path should recompute on the commit tail, seed {seed}"
            );
        }
        if inc.conflicts > 0 {
            assert!(
                inc.stats.incremental_patches > 0,
                "conflict refreshes must patch the ledger, seed {seed}"
            );
        }
        total_stale_pops += inc.stats.stale_pops;
    }
    // Individual tight-budget runs may park everything without a single
    // re-score, but across the sweep the lazy-greedy pop must have done real
    // work.
    assert!(total_stale_pops > 0, "the ledger never re-scored anything");
}

#[test]
fn streaming_drains_are_bit_identical_across_strategies() {
    let cost = EuclideanCost::default();
    for seed in 1000..1060u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tasks, index, budget, _) = random_instance(&mut rng);
        let (full_cfg, inc_cfg) = configs(budget, true);
        let mut full_engine = AssignmentEngine::borrowed(&index, &cost, full_cfg);
        let mut inc_engine = AssignmentEngine::borrowed(&index, &cost, inc_cfg);

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
            full_engine.submit(chunk.to_vec());
            inc_engine.submit(chunk.to_vec());
            let full = full_engine.drain(objective);
            let inc = inc_engine.drain(objective);
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
    // The task-parallel owners patch their incremental states' ledgers on
    // every conflict refresh; the committed outcome must still equal the
    // full-strategy run and the serial greedy.
    let cost = EuclideanCost::default();
    for seed in 2000..2060u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tasks, index, budget, _) = random_instance(&mut rng);
        let (full_cfg, inc_cfg) = configs(budget, true);
        let threads = rng.gen_range(2..=4);

        let serial = AssignmentEngine::borrowed(&index, &cost, inc_cfg)
            .assign_batch(&tasks, Objective::SumQuality);
        let full = msqm_task_parallel(&tasks, &index, &cost, &full_cfg, threads, true);
        let inc = msqm_task_parallel(&tasks, &index, &cost, &inc_cfg, threads, true);

        assert_eq!(
            full.committed, inc.committed,
            "committed diverged, seed {seed}"
        );
        assert_eq!(
            full.outcome.assignment, inc.outcome.assignment,
            "plans diverged, seed {seed}"
        );
        assert_eq!(full.outcome.conflicts, inc.outcome.conflicts, "seed {seed}");
        assert_eq!(
            serial.assignment, inc.outcome.assignment,
            "task-parallel+incremental diverged from the serial greedy, seed {seed}"
        );
    }
}

#[test]
fn owner_tape_with_raised_budgets_matches_the_full_search() {
    // Owner-level differential fuzz: drive one Full and one Incremental
    // `TaskOwner` with the *same* random command tape — computes under
    // shrinking and re-grown budgets, refreshes, executions — and require
    // every reply event to be identical.  This is the direct check that
    // patching and parked-entry reactivation leave the gain ledger answering
    // exactly like a full search.
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

        let (full_cfg, inc_cfg) = configs(1000.0, rng.gen_bool(0.7));
        let mut full_owner = TaskOwner::new([(
            0,
            TaskState::from_candidates(&task, candidates.clone(), &full_cfg),
        )]);
        let mut inc_owner =
            TaskOwner::new([(0, TaskState::from_candidates(&task, candidates, &inc_cfg))]);

        let mut max_cost: f64 = rng.gen_range(5.0..50.0);
        let mut last_best: Option<(usize, WorkerId)> = None;
        for step in 0..40 {
            let command = match rng.gen_range(0..8) {
                // Compute under a wandering budget: mostly shrinking, but
                // sometimes raised — that reactivates parked ledger entries.
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
            let full_reply = full_owner.handle(command.clone(), &index, &cost);
            let inc_reply = inc_owner.handle(command.clone(), &index, &cost);
            assert_eq!(
                full_reply, inc_reply,
                "replies diverged at step {step}, seed {seed}, command {command:?}"
            );
            if let WorkerEvent::Heartbeat {
                candidate: Some(c),
                planned_worker: Some(w),
                ..
            } = &full_reply
            {
                last_best = Some((c.slot, *w));
            }
        }
        let mut full_plans = full_owner.into_plans();
        let mut inc_plans = inc_owner.into_plans();
        full_plans.sort_by_key(|(i, _)| *i);
        inc_plans.sort_by_key(|(i, _)| *i);
        assert_eq!(full_plans, inc_plans, "final plans diverged, seed {seed}");
    }
}
