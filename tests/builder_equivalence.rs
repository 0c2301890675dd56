//! Builder equivalence: [`SolverBuilder`] is a *facade*, not a fork — for
//! every runtime it must reproduce the outcome of the engine or driver it
//! runs **bit-for-bit** (plans, conflicts, executions, cache counters) on the
//! seeded scenario presets.  As long as these suites pass, swapping a direct
//! engine or driver call for the builder is a pure refactor.

use tcsc::prelude::*;

/// The scenario presets every equivalence assertion sweeps.
fn presets() -> Vec<(&'static str, ScenarioConfig)> {
    vec![
        (
            "small-uniform",
            ScenarioConfig::small()
                .with_num_tasks(8)
                .with_num_slots(40)
                .with_num_workers(500)
                .with_seed(11),
        ),
        (
            "small-gaussian",
            ScenarioConfig::small()
                .with_num_tasks(6)
                .with_num_slots(32)
                .with_num_workers(400)
                .with_placement(TaskPlacement::Synthetic(SpatialDistribution::Gaussian))
                .with_seed(12),
        ),
        (
            "small-zipf",
            ScenarioConfig::small()
                .with_num_tasks(10)
                .with_num_slots(24)
                .with_num_workers(350)
                .with_placement(TaskPlacement::Synthetic(SpatialDistribution::zipf_default()))
                .with_seed(13),
        ),
    ]
}

fn prepare(config: &ScenarioConfig) -> (Scenario, WorkerIndex) {
    let scenario = config.build();
    let index = WorkerIndex::build(&scenario.workers, config.num_slots, &scenario.domain);
    (scenario, index)
}

#[test]
fn serial_builder_matches_msqm_serial() {
    for (label, preset) in presets() {
        let (scenario, index) = prepare(&preset);
        let cost = EuclideanCost::default();
        for budget in [20.0, 60.0] {
            let cfg = MultiTaskConfig::new(budget);
            let legacy = AssignmentEngine::borrowed(&index, &cost, cfg)
                .assign_batch(&scenario.tasks, Objective::SumQuality);
            let built = SolverBuilder::new(budget).with_config(cfg).solve_indexed(
                &scenario.tasks,
                &index,
                &scenario.domain,
                &cost,
            );
            assert_eq!(legacy, built, "{label} b={budget}");
        }
    }
}

#[test]
fn min_quality_builder_matches_mmqm() {
    for (label, preset) in presets() {
        let (scenario, index) = prepare(&preset);
        let cost = EuclideanCost::default();
        let cfg = MultiTaskConfig::new(45.0);
        let legacy = AssignmentEngine::borrowed(&index, &cost, cfg)
            .assign_batch(&scenario.tasks, Objective::MinQuality);
        let built = SolverBuilder::new(45.0)
            .with_config(cfg)
            .with_objective(SolveObjective::MinQuality)
            .solve_indexed(&scenario.tasks, &index, &scenario.domain, &cost);
        assert_eq!(legacy, built, "{label}");
    }
}

#[test]
fn task_parallel_builder_matches_both_masters() {
    // The barrier master under both of its drivers: the thread driver
    // (`msqm_task_parallel`) and the simulated cluster.
    for (label, preset) in presets() {
        let (scenario, index) = prepare(&preset);
        let cost = EuclideanCost::default();
        let cfg = MultiTaskConfig::new(50.0);
        for threads in [1, 4] {
            let threaded = msqm_task_parallel(&scenario.tasks, &index, &cost, &cfg, threads, true);
            let built = SolverBuilder::new(50.0)
                .with_config(cfg)
                .with_runtime(Runtime::TaskParallel)
                .with_threads(threads)
                .solve_indexed(&scenario.tasks, &index, &scenario.domain, &cost);
            assert_eq!(threaded.outcome, built, "{label} threads t={threads}");

            let simulated = SolverBuilder::new(50.0)
                .with_config(cfg)
                .with_runtime(Runtime::Sim)
                .with_sim_nodes(threads)
                .solve(
                    &scenario.tasks,
                    &scenario.workers,
                    preset.num_slots,
                    &scenario.domain,
                    &cost,
                );
            assert_eq!(
                simulated.assignment, built.assignment,
                "{label} sim n={threads}"
            );
            assert_eq!(
                simulated.conflicts, built.conflicts,
                "{label} sim n={threads}"
            );
            assert_eq!(
                simulated.executions, built.executions,
                "{label} sim n={threads}"
            );
        }
    }
}

#[test]
fn group_parallel_builder_matches_both_variants() {
    for (label, preset) in presets() {
        let (scenario, index) = prepare(&preset);
        let cost = EuclideanCost::default();
        let cfg = MultiTaskConfig::new(50.0);
        let legacy = msqm_group_parallel(&scenario.tasks, &index, &cost, &cfg, 3);
        let built = SolverBuilder::new(50.0)
            .with_config(cfg)
            .with_runtime(Runtime::GroupParallel)
            .with_threads(3)
            .solve_indexed(&scenario.tasks, &index, &scenario.domain, &cost);
        assert_eq!(legacy.outcome, built, "{label}");
    }
}

#[test]
fn spatiotemporal_builder_matches_sapprox() {
    for (label, preset) in presets() {
        let (scenario, index) = prepare(&preset);
        let cost = EuclideanCost::default();
        let cfg = MultiTaskConfig::new(40.0);
        for weights in [
            InterpolationWeights::temporal_only(),
            InterpolationWeights::paper_default(),
        ] {
            let legacy = AssignmentEngine::borrowed(&index, &cost, cfg).assign_spatiotemporal(
                &scenario.tasks,
                &scenario.domain,
                weights,
                SpatioTemporalObjective::Sum,
            );
            let built = SolverBuilder::new(40.0)
                .with_config(cfg)
                .with_objective(SolveObjective::SpatioTemporal {
                    weights,
                    objective: SpatioTemporalObjective::Sum,
                })
                .solve_indexed(&scenario.tasks, &index, &scenario.domain, &cost);
            assert_eq!(legacy, built, "{label}");
        }
    }
}

#[test]
fn sim_builder_replays_the_serial_plan() {
    let (scenario, index) = prepare(&presets()[0].1);
    let cost = EuclideanCost::default();
    let cfg = MultiTaskConfig::new(35.0);
    let serial = SolverBuilder::new(35.0).with_config(cfg).solve_indexed(
        &scenario.tasks,
        &index,
        &scenario.domain,
        &cost,
    );
    let sim = SolverBuilder::new(35.0)
        .with_config(cfg)
        .with_runtime(Runtime::Sim)
        .with_sim_nodes(3)
        .with_sim_latency(LatencyModel::Fixed(250))
        .solve(
            &scenario.tasks,
            &scenario.workers,
            presets()[0].1.num_slots,
            &scenario.domain,
            &cost,
        );
    assert_eq!(plan_hash(&serial.assignment), plan_hash(&sim.assignment));
    assert_eq!(serial.assignment, sim.assignment);
    assert_eq!(serial.executions, sim.executions);
}
