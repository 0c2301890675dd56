//! The simulated distributed runtime against the in-process engine:
//!
//! * zero-latency single-node runs must be **bit-identical** to
//!   [`AssignmentEngine::assign_batch`] — plans, conflicts, executions and
//!   cache counters;
//! * any node count × latency model must commit the same results (latency
//!   moves messages, never decisions);
//! * on the seeded scenario presets, the serial engine, the threaded
//!   task-parallel framework and the simulated cluster all commit the same
//!   plans;
//! * the same seed must replay the identical delivery timeline (the
//!   kernel's delivery digest).

use std::rc::Rc;

use tcsc_assign::{msqm_task_parallel, AssignmentEngine, MultiTaskConfig, Objective};
use tcsc_core::fnv::plan_hash;
use tcsc_core::EuclideanCost;
use tcsc_index::ShardGridConfig;
use tcsc_sim::{run_cluster, LatencyModel, SimBatch, SimClusterConfig};
use tcsc_workload::{ScenarioConfig, SpatialDistribution, StreamingConfig, TaskPlacement};

fn scenario() -> (tcsc_workload::Scenario, usize) {
    let cfg = ScenarioConfig::small()
        .with_num_tasks(10)
        .with_num_slots(30)
        .with_num_workers(150)
        .with_placement(TaskPlacement::Synthetic(SpatialDistribution::region_grid(
            3,
        )));
    let slots = cfg.num_slots;
    (cfg.build(), slots)
}

#[test]
fn zero_latency_single_node_is_bit_identical_to_the_engine() {
    let (scenario, slots) = scenario();
    let cost = EuclideanCost::default();
    let budget = 40.0;

    let dense = tcsc_index::WorkerIndex::build(&scenario.workers, slots, &scenario.domain);
    let mut engine = AssignmentEngine::borrowed(&dense, &cost, MultiTaskConfig::new(budget));
    let reference = engine.assign_batch(&scenario.tasks, Objective::SumQuality);

    let config = SimClusterConfig::new(1, 3, budget, LatencyModel::Zero);
    let outcome = run_cluster(
        &scenario.workers,
        slots,
        &scenario.domain,
        vec![SimBatch::immediate(scenario.tasks.clone())],
        Rc::new(EuclideanCost::default()),
        &config,
    );

    assert_eq!(outcome.assignment, reference.assignment, "plans diverged");
    assert_eq!(outcome.conflicts, reference.conflicts);
    assert_eq!(outcome.executions, reference.executions);
    assert_eq!(outcome.stats, reference.stats, "cache counters diverged");
    assert_eq!(
        outcome.finish_time_us, 0,
        "zero latency keeps virtual time 0"
    );
    assert_eq!(
        plan_hash(&outcome.assignment),
        plan_hash(&reference.assignment)
    );
}

#[test]
fn node_count_latency_and_policy_never_change_the_committed_results() {
    let (scenario, slots) = scenario();
    let cost = EuclideanCost::default();
    let budget = 55.0;
    let dense = tcsc_index::WorkerIndex::build(&scenario.workers, slots, &scenario.domain);
    let mut engine = AssignmentEngine::borrowed(&dense, &cost, MultiTaskConfig::new(budget));
    let reference = engine.assign_batch(&scenario.tasks, Objective::SumQuality);

    for nodes in [1, 2, 4, 9] {
        for latency in [
            LatencyModel::Zero,
            LatencyModel::Fixed(250),
            LatencyModel::Uniform { min: 20, max: 4000 },
        ] {
            let config =
                SimClusterConfig::new(nodes, 3, budget, latency).with_seed(7 + nodes as u64);
            let outcome = run_cluster(
                &scenario.workers,
                slots,
                &scenario.domain,
                vec![SimBatch::immediate(scenario.tasks.clone())],
                Rc::new(EuclideanCost::default()),
                &config,
            );
            assert_eq!(
                outcome.assignment, reference.assignment,
                "plans diverged: {nodes} nodes, {latency:?}"
            );
            assert_eq!(outcome.conflicts, reference.conflicts);
            assert_eq!(outcome.executions, reference.executions);
            assert_eq!(outcome.stats, reference.stats);
        }
    }
}

/// Seeded scenario presets of different task placements.
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

#[test]
fn serial_task_parallel_and_simulated_runtimes_commit_the_same_plans() {
    let budget = 50.0;
    let cost = EuclideanCost::default();
    for (label, preset) in presets() {
        let scenario = preset.build();
        let slots = preset.num_slots;
        let index = tcsc_index::WorkerIndex::build(&scenario.workers, slots, &scenario.domain);
        let cfg = MultiTaskConfig::new(budget);
        let serial = AssignmentEngine::borrowed(&index, &cost, cfg)
            .assign_batch(&scenario.tasks, Objective::SumQuality);
        assert!(serial.executions > 0, "{label}: nothing was planned");

        // (runtime, plans, conflicts, executions) of every other runtime.
        let mut runs = Vec::new();
        for threads in [1, 4] {
            let o = msqm_task_parallel(&scenario.tasks, &index, &cost, &cfg, threads, true).outcome;
            runs.push((
                format!("{threads} threads"),
                o.assignment,
                o.conflicts,
                o.executions,
            ));
        }
        for (nodes, latency) in [
            (1, LatencyModel::Zero),
            (4, LatencyModel::Zero),
            (3, LatencyModel::Fixed(250)),
        ] {
            let o = run_cluster(
                &scenario.workers,
                slots,
                &scenario.domain,
                vec![SimBatch::immediate(scenario.tasks.clone())],
                Rc::new(EuclideanCost::default()),
                &SimClusterConfig::new(nodes, 2, budget, latency),
            );
            let run = format!("{nodes} nodes, {latency:?}");
            runs.push((run, o.assignment, o.conflicts, o.executions));
        }
        for (run, assignment, conflicts, executions) in &runs {
            assert_eq!(
                assignment, &serial.assignment,
                "{label}, {run}: plans diverged"
            );
            assert_eq!(plan_hash(assignment), plan_hash(&serial.assignment));
            assert_eq!(*conflicts, serial.conflicts, "{label}, {run}");
            assert_eq!(*executions, serial.executions, "{label}, {run}");
        }
    }
}

#[test]
fn same_seed_replays_the_identical_event_trace() {
    let (scenario, slots) = scenario();
    let run = |seed: u64| {
        let config = SimClusterConfig::new(3, 3, 35.0, LatencyModel::Uniform { min: 10, max: 900 })
            .with_seed(seed)
            .with_service_us(40);
        run_cluster(
            &scenario.workers,
            slots,
            &scenario.domain,
            vec![SimBatch::immediate(scenario.tasks.clone())],
            Rc::new(EuclideanCost::default()),
            &config,
        )
    };
    let a = run(11);
    let b = run(11);
    assert_eq!(
        a.delivery_digest, b.delivery_digest,
        "same seed must replay the same timeline"
    );
    assert_eq!(a.assignment, b.assignment);
    assert_eq!(a.finish_time_us, b.finish_time_us);
    assert_eq!(a.delivered_events, b.delivered_events);
    // A different seed moves the timeline, which the digest sees, but never
    // the committed results.
    let c = run(12);
    assert_ne!(
        a.delivery_digest, c.delivery_digest,
        "the digest must see the timeline"
    );
    assert_eq!(a.assignment, c.assignment);
    assert_eq!(a.conflicts, c.conflicts);
}

#[test]
fn streaming_rounds_match_the_engine_drain_sequence() {
    // Timed arrival rounds against the engine's submit/drain path: occupancy
    // must persist across rounds identically.
    let streaming = StreamingConfig::region_partitioned(
        ScenarioConfig::small()
            .with_num_slots(24)
            .with_num_workers(120),
        3,
        3,
        4,
    )
    .build();
    let slots = streaming.config.base.num_slots;
    let cost = EuclideanCost::default();
    let budget = 30.0;

    let dense = tcsc_index::WorkerIndex::build(&streaming.workers, slots, &streaming.domain);
    let mut engine = AssignmentEngine::borrowed(&dense, &cost, MultiTaskConfig::new(budget));
    let mut reference_plans = Vec::new();
    let mut reference_conflicts = 0usize;
    let mut reference_executions = 0usize;
    for round in &streaming.rounds {
        engine.submit(round.clone());
        let outcome = engine.drain(Objective::SumQuality);
        reference_plans.extend(outcome.assignment.plans);
        reference_conflicts += outcome.conflicts;
        reference_executions += outcome.executions;
    }

    for latency in [LatencyModel::Zero, LatencyModel::Fixed(100)] {
        let config = SimClusterConfig::new(3, 3, budget, latency);
        let batches = streaming
            .rounds
            .iter()
            .enumerate()
            .map(|(r, tasks)| SimBatch {
                at_us: r as u64 * 50_000,
                tasks: tasks.clone(),
            })
            .collect();
        let outcome = run_cluster(
            &streaming.workers,
            slots,
            &streaming.domain,
            batches,
            Rc::new(EuclideanCost::default()),
            &config,
        );
        assert_eq!(
            outcome.assignment.plans, reference_plans,
            "round plans diverged under {latency:?}"
        );
        assert_eq!(outcome.conflicts, reference_conflicts);
        assert_eq!(outcome.executions, reference_executions);
    }
}

#[test]
fn an_empty_arrival_schedule_yields_an_empty_outcome() {
    let (scenario, slots) = scenario();
    let outcome = run_cluster(
        &scenario.workers,
        slots,
        &scenario.domain,
        Vec::new(),
        Rc::new(EuclideanCost::default()),
        &SimClusterConfig::new(2, 3, 10.0, LatencyModel::Fixed(100)),
    );
    assert!(outcome.assignment.plans.is_empty());
    assert_eq!(outcome.executions, 0);
    assert_eq!(outcome.delivered_events, 0);
}

/// A run of the standard scenario under `config`: the plans, the counters
/// and the timeline with its delivery digest.
fn traced_run(config: &SimClusterConfig) -> impl PartialEq + std::fmt::Debug {
    let (scenario, slots) = scenario();
    let o = run_cluster(
        &scenario.workers,
        slots,
        &scenario.domain,
        vec![SimBatch::immediate(scenario.tasks.clone())],
        Rc::new(EuclideanCost::default()),
        config,
    );
    let timeline = (o.finish_time_us, o.delivered_events, o.delivery_digest);
    (o.assignment, (o.conflicts, o.executions, o.stats), timeline)
}

#[test]
fn zero_nodes_run_as_one_node() {
    // `nodes` is a public field, so a struct update can bypass the clamp in
    // `SimClusterConfig::new`; the run must clamp it, not divide by zero.
    let one = SimClusterConfig::new(1, 2, 30.0, LatencyModel::Fixed(100));
    let zero = SimClusterConfig {
        nodes: 0,
        ..one.clone()
    };
    assert_eq!(traced_run(&zero), traced_run(&one));
}

#[test]
fn a_zero_tile_grid_routes_like_the_one_tile_grid() {
    let one = SimClusterConfig::new(2, 1, 30.0, LatencyModel::Fixed(100));
    let zero = SimClusterConfig {
        grid: ShardGridConfig {
            tiles_x: 0,
            tiles_y: 0,
            time_splits: 0,
        },
        ..one.clone()
    };
    assert_eq!(traced_run(&zero), traced_run(&one));
}
