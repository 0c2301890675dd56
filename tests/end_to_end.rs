//! Cross-crate integration tests: workload generation → indexing →
//! assignment → quality accounting, exercised through the public facade.

use tcsc::prelude::*;

fn build_world(
    seed: u64,
    num_tasks: usize,
    num_slots: usize,
    num_workers: usize,
) -> (Scenario, WorkerIndex) {
    let scenario = ScenarioConfig::small()
        .with_num_tasks(num_tasks)
        .with_num_slots(num_slots)
        .with_num_workers(num_workers)
        .with_seed(seed)
        .build();
    let index = WorkerIndex::build(&scenario.workers, num_slots, &scenario.domain);
    (scenario, index)
}

#[test]
fn single_task_pipeline_produces_consistent_plans() {
    let (scenario, index) = build_world(1, 1, 80, 800);
    let task = scenario.first_task();
    let candidates = SlotCandidates::compute(task, &index, &EuclideanCost::default());
    let cfg = SingleTaskConfig::new(25.0);

    let plain = approx(task, &candidates, &cfg);
    let indexed = approx_star(task, &candidates, &cfg);

    // Both algorithms follow the same greedy rule, so the plans must achieve
    // the same quality and respect the budget.
    assert!((plain.plan.quality - indexed.plan.quality).abs() < 1e-6);
    assert!(plain.plan.total_cost() <= 25.0 + 1e-9);
    assert!(indexed.plan.total_cost() <= 25.0 + 1e-9);

    // Recomputing the quality from the executed slots must reproduce the
    // reported quality exactly (single source of truth for the metric).
    let mut evaluator = QualityEvaluator::with_slots(task.num_slots, 3);
    for exec in &indexed.plan.executions {
        evaluator.execute(exec.slot);
    }
    assert!((evaluator.quality() - indexed.plan.quality).abs() < 1e-9);
}

#[test]
fn quality_improves_with_budget_across_the_whole_pipeline() {
    let (scenario, index) = build_world(2, 1, 60, 600);
    let task = scenario.first_task();
    let candidates = SlotCandidates::compute(task, &index, &EuclideanCost::default());
    let mut last = -1.0;
    for budget in [5.0, 15.0, 30.0, 60.0] {
        let outcome = approx_star(task, &candidates, &SingleTaskConfig::new(budget));
        assert!(outcome.plan.quality >= last - 1e-9);
        last = outcome.plan.quality;
    }
}

#[test]
fn greedy_dominates_random_baseline_end_to_end() {
    let (scenario, index) = build_world(3, 1, 60, 600);
    let task = scenario.first_task();
    let candidates = SlotCandidates::compute(task, &index, &EuclideanCost::default());
    let cfg = SingleTaskConfig::new(15.0);
    let greedy = approx_star(task, &candidates, &cfg);
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let rand = random_summary(&mut rng, task, &candidates, &cfg, 10);
    assert!(greedy.plan.quality + 1e-9 >= rand.avg);
}

#[test]
fn multi_task_frameworks_agree_and_respect_constraints() {
    let (scenario, index) = build_world(4, 8, 40, 500);
    let cost_model = EuclideanCost::default();
    let cfg = MultiTaskConfig::new(80.0);

    let serial = AssignmentEngine::borrowed(&index, &cost_model, cfg)
        .assign_batch(&scenario.tasks, Objective::SumQuality);
    let task_level =
        msqm_task_parallel(&scenario.tasks, &index, &cost_model, &cfg, 3, true).outcome;
    let grouped = msqm_group_parallel(&scenario.tasks, &index, &cost_model, &cfg, 3).outcome;

    // Determinism of the task-level framework.
    assert!((serial.sum_quality() - task_level.sum_quality()).abs() < 1e-9);
    assert_eq!(serial.executions, task_level.executions);

    // Budgets are respected everywhere.
    assert!(serial.assignment.total_cost() <= 80.0 + 1e-6);
    assert!(task_level.assignment.total_cost() <= 80.0 + 1e-6);
    assert!(grouped.assignment.total_cost() <= 80.0 + 1e-6);

    // No worker is double-booked in the serial / task-level plans.
    for outcome in [&serial, &task_level] {
        let mut seen = std::collections::HashSet::new();
        for plan in &outcome.assignment.plans {
            for exec in &plan.executions {
                assert!(seen.insert((exec.slot, exec.worker)));
            }
        }
    }
}

#[test]
fn mmqm_lifts_the_weakest_task() {
    let (scenario, index) = build_world(5, 6, 40, 500);
    let cost_model = EuclideanCost::default();
    let cfg = MultiTaskConfig::new(60.0);
    let min_focused = AssignmentEngine::borrowed(&index, &cost_model, cfg)
        .assign_batch(&scenario.tasks, Objective::MinQuality);
    let sum_focused = AssignmentEngine::borrowed(&index, &cost_model, cfg)
        .assign_batch(&scenario.tasks, Objective::SumQuality);
    assert!(min_focused.min_quality() + 1e-9 >= sum_focused.min_quality());
}

#[test]
fn spatiotemporal_extension_runs_through_the_facade() {
    let (scenario, index) = build_world(6, 5, 30, 400);
    let cost_model = EuclideanCost::default();
    let cfg = MultiTaskConfig::new(50.0);
    let outcome = AssignmentEngine::borrowed(&index, &cost_model, cfg).assign_spatiotemporal(
        &scenario.tasks,
        &scenario.domain,
        InterpolationWeights::paper_default(),
        Objective::SumQuality,
    );
    assert!(outcome.assignment.total_cost() <= 50.0 + 1e-6);
    assert!(outcome.sum_quality() > 0.0);
}

#[test]
fn dual_search_is_consistent_with_the_primal_solver() {
    let (scenario, index) = build_world(7, 1, 40, 400);
    let task = scenario.first_task();
    let candidates = SlotCandidates::compute(task, &index, &EuclideanCost::default());
    let target = 2.0;
    let dual = min_budget_for_quality(task, &candidates, &SingleTaskConfig::new(0.0), target, 0.1);
    if let Some(budget) = dual.budget {
        let check = approx_star(task, &candidates, &SingleTaskConfig::new(budget));
        assert!(check.plan.quality + 1e-6 >= target);
    }
}

#[test]
fn voronoi_diagram_is_consistent_with_the_quality_evaluator() {
    let mut evaluator = QualityEvaluator::with_slots(100, 3);
    for slot in [4, 17, 40, 41, 77, 90] {
        evaluator.execute(slot);
    }
    let diagram = OrderKVoronoi::build(&evaluator);
    // Every unexecuted slot's k-NN set from the diagram matches the
    // evaluator's interpolation neighbours.
    for slot in 0..100 {
        if evaluator.is_executed(slot) {
            continue;
        }
        let mut from_eval: Vec<usize> = evaluator.knn(slot).iter().filter_map(|n| n.slot).collect();
        from_eval.sort_unstable();
        assert_eq!(
            diagram.knn_of(slot).unwrap(),
            from_eval.as_slice(),
            "slot {slot}"
        );
    }
}
