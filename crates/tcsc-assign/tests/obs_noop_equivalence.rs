//! Observability must be free and inert: attaching a live recorder to any
//! runtime changes *nothing* about what is decided — plans, conflicts,
//! executions and cache counters are bit-identical with the recorder on vs.
//! the `NoopRecorder` default.  This is the acceptance bar of the `tcsc-obs`
//! layer: instrumentation may observe the timeline, never perturb it.

use tcsc_assign::{
    AssignmentEngine, ConcurrentAssignmentEngine, MultiTaskConfig, Objective, TaskMaster,
    WorkerLedger,
};
use tcsc_core::{EuclideanCost, Task};
use tcsc_index::{ShardGridConfig, ShardedWorkerIndex, WorkerIndex};
use tcsc_obs::ObsSession;
use tcsc_workload::ScenarioConfig;

fn prepare(config: &ScenarioConfig) -> (Vec<Task>, WorkerIndex, ShardedWorkerIndex) {
    let scenario = config.build();
    let dense = WorkerIndex::build(&scenario.workers, config.num_slots, &scenario.domain);
    let sharded = ShardedWorkerIndex::build(
        &scenario.workers,
        config.num_slots,
        &scenario.domain,
        ShardGridConfig::new(4, 4),
    );
    (scenario.tasks, dense, sharded)
}

fn presets() -> Vec<ScenarioConfig> {
    vec![
        ScenarioConfig::small(),
        // Scarce workers force conflicts, so the conflict-refresh paths are
        // exercised with the recorder attached.
        ScenarioConfig::small()
            .with_seed(9)
            .with_num_workers(60)
            .with_budget(120.0),
    ]
}

#[test]
fn serial_engine_is_bit_identical_with_recorder_attached() {
    let cost = EuclideanCost::default();
    for config in presets() {
        let (tasks, dense, _) = prepare(&config);
        let cfg = MultiTaskConfig::new(config.budget);
        for objective in [Objective::SumQuality, Objective::MinQuality] {
            let plain =
                AssignmentEngine::borrowed(&dense, &cost, cfg).assign_batch(&tasks, objective);
            let session = ObsSession::wall();
            let observed = AssignmentEngine::borrowed(&dense, &cost, cfg)
                .with_recorder(&session)
                .assign_batch(&tasks, objective);
            assert_eq!(plain.assignment, observed.assignment);
            assert_eq!(plain.conflicts, observed.conflicts);
            assert_eq!(plain.executions, observed.executions);
            assert_eq!(plain.stats, observed.stats);
            assert!(
                !session.merged_events().is_empty(),
                "the attached recorder must actually have recorded"
            );
            assert!(session.metrics().counter_value("engine.executions") > 0);
        }
    }
}

/// The refresh block's work counters, which no recorder may move.
fn refresh_work(stats: &tcsc_assign::CacheStats) -> [usize; 4] {
    [
        stats.stale_pops,
        stats.commit_rescores,
        stats.incremental_patches,
        stats.full_refreshes,
    ]
}

#[test]
fn only_a_live_recorder_times_the_commit_loop() {
    // An untraced engine reads no clock in its commit loops: its warm-start
    // and refresh times stay zero.  A traced one times both, and neither
    // does any other work.
    let cost = EuclideanCost::default();
    for config in presets() {
        let (tasks, dense, sharded) = prepare(&config);
        let cfg = MultiTaskConfig::new(config.budget);
        for objective in [Objective::SumQuality, Objective::MinQuality] {
            let plain =
                AssignmentEngine::borrowed(&dense, &cost, cfg).assign_batch(&tasks, objective);
            let session = ObsSession::wall();
            let observed = AssignmentEngine::borrowed(&dense, &cost, cfg)
                .with_recorder(&session)
                .assign_batch(&tasks, objective);
            let label = format!("{objective:?}");
            assert_eq!(plain.stats.warm_nanos, 0, "{label}");
            assert_eq!(plain.stats.refresh_nanos, 0, "{label}");
            assert!(observed.stats.warm_nanos > 0, "{label}");
            assert!(observed.stats.refresh_nanos > 0, "{label}");
            assert_eq!(
                refresh_work(&plain.stats),
                refresh_work(&observed.stats),
                "{label}"
            );
        }
        let mut plain = ConcurrentAssignmentEngine::new(sharded.clone(), &cost, cfg, 1);
        plain.submit(tasks.clone());
        let plain = plain.drain(Objective::SumQuality);
        let session = ObsSession::wall();
        let mut observed =
            ConcurrentAssignmentEngine::new(sharded, &cost, cfg, 1).with_recorder(&session);
        observed.submit(tasks);
        let observed = observed.drain(Objective::SumQuality);
        assert_eq!(plain.stats.warm_nanos + plain.stats.refresh_nanos, 0);
        assert!(observed.stats.warm_nanos > 0 && observed.stats.refresh_nanos > 0);
        assert_eq!(refresh_work(&plain.stats), refresh_work(&observed.stats));
    }
}

#[test]
fn streaming_service_mode_is_bit_identical_with_recorder_attached() {
    // The service loop: submit / drain rounds with retired-plan GC between
    // them — the fig9svc driver's shape.  The recorded engine must produce
    // bit-identical plans while its gauges and windows observe the stream.
    let cost = EuclideanCost::default();
    let config = ScenarioConfig::small()
        .with_seed(21)
        .with_num_workers(80)
        .with_budget(200.0);
    let (tasks, dense, _) = prepare(&config);
    let cfg = MultiTaskConfig::new(config.budget);

    fn run<R: tcsc_obs::Recorder>(
        engine: &mut AssignmentEngine<'_, R>,
        tasks: &[Task],
    ) -> (Vec<tcsc_core::AssignmentPlan>, usize, usize) {
        let mut plans = Vec::new();
        let mut conflicts = 0usize;
        let mut executions = 0usize;
        let mut retired: Vec<tcsc_core::AssignmentPlan> = Vec::new();
        for (r, round) in tasks.chunks(4).enumerate() {
            engine.submit(round.to_vec());
            let outcome = engine.drain(Objective::SumQuality);
            conflicts += outcome.conflicts;
            executions += outcome.executions;
            // Retire every second round's plans one round later — the
            // service GC cadence, interleaved with live commitments.
            if r % 2 == 0 {
                retired.extend(outcome.assignment.plans.iter().cloned());
            }
            if r % 2 == 1 {
                for plan in retired.drain(..) {
                    engine.release_plan(&plan);
                }
            }
            plans.extend(outcome.assignment.plans);
        }
        (plans, conflicts, executions)
    }

    let mut plain = AssignmentEngine::borrowed(&dense, &cost, cfg);
    let reference = run(&mut plain, &tasks);

    let session = ObsSession::wall();
    session.install_window("engine.batch_ns", u64::MAX / 8, 4);
    let mut observed = AssignmentEngine::borrowed(&dense, &cost, cfg).with_recorder(&session);
    let outcome = run(&mut observed, &tasks);

    assert_eq!(reference.0, outcome.0, "plans must be bit-identical");
    assert_eq!(reference.1, outcome.1);
    assert_eq!(reference.2, outcome.2);
    assert_eq!(plain.ledger().len(), observed.ledger().len());

    // The recorder actually observed the service: gauges sampled per drain,
    // the installed window fed by the batch-latency values, releases
    // counted.
    let metrics = session.metrics();
    let depth = metrics.gauge("engine.queue_depth").unwrap();
    assert!(depth.samples > 0);
    assert!(metrics.gauge("engine.ledger_size").is_some());
    assert!(metrics.gauge("engine.cache_entries").is_some());
    assert!(metrics.counter_value("engine.released") > 0);
    let window = metrics.window("engine.batch_ns").unwrap();
    assert_eq!(window.lifetime_count(), tasks.chunks(4).count() as u64);
    assert!(
        session
            .merged_events()
            .iter()
            .any(|e| e.phase == tcsc_obs::Phase::Counter),
        "gauges must emit chrome counter events"
    );
}

#[test]
fn concurrent_engine_is_bit_identical_with_recorder_attached() {
    let cost = EuclideanCost::default();
    for config in presets() {
        let (tasks, _, sharded) = prepare(&config);
        let cfg = MultiTaskConfig::new(config.budget);
        let mut plain = ConcurrentAssignmentEngine::new(sharded.clone(), &cost, cfg, 4);
        plain.submit(tasks.clone());
        let reference = plain.drain(Objective::SumQuality);

        let session = ObsSession::wall();
        let mut observed =
            ConcurrentAssignmentEngine::new(sharded.clone(), &cost, cfg, 4).with_recorder(&session);
        observed.submit(tasks.clone());
        let outcome = observed.drain(Objective::SumQuality);

        assert_eq!(reference.assignment, outcome.assignment);
        assert_eq!(reference.conflicts, outcome.conflicts);
        assert_eq!(reference.executions, outcome.executions);
        assert_eq!(reference.stats, outcome.stats);
        let metrics = session.metrics();
        assert!(metrics.counter_value("router.tile_visits") > 0);
        assert!(metrics.counter_value("router.tasks_routed") >= tasks.len() as u64);
        // The sharded alias emits the dense engine's spans and counters.
        assert_eq!(
            metrics.counter_value("engine.executions"),
            outcome.executions as u64
        );
        let profile = tcsc_obs::profile_spans(&session.merged_events());
        for leaf in ["engine.checkout", "state.build", "engine.commit"] {
            let path = format!("engine.drain;engine.assign_batch;{leaf}");
            assert!(profile.get(&path).is_some(), "no {path} span");
        }
    }
}

#[test]
fn task_master_is_bit_identical_with_recorder_attached() {
    // The pure state machine: replay identical event sequences into a plain
    // and a recorded master and compare every table.  The driver-level check
    // (threads + default recorder) rides in the test below.
    let session = ObsSession::wall();
    let (plain, commands_a) = TaskMaster::new(3, 10.0, WorkerLedger::new(), false);
    let (observed, commands_b) = TaskMaster::new(3, 10.0, WorkerLedger::new(), false);
    let mut plain = plain;
    let mut observed = observed.with_recorder(&session);
    assert_eq!(commands_a, commands_b);

    use tcsc_assign::{TaskCandidate, WorkerEvent};
    use tcsc_core::WorkerId;
    let heartbeat = |task: usize, heuristic: f64, worker: u32| WorkerEvent::Heartbeat {
        task,
        candidate: Some(TaskCandidate {
            slot: task,
            gain: heuristic,
            cost: 1.0,
            heuristic,
        }),
        planned_worker: Some(WorkerId(worker)),
    };
    for event in [
        heartbeat(0, 5.0, 1),
        heartbeat(2, 9.0, 2),
        heartbeat(1, 7.0, 3),
    ] {
        let a = plain.handle(event.clone());
        let b = observed.handle(event);
        assert_eq!(a, b, "identical commands with and without the recorder");
    }
    assert_eq!(plain.conflicts(), observed.conflicts());
    assert_eq!(plain.committed(), observed.committed());
    // The last heartbeat completed the table and the master granted the
    // maximum — visible in the recorded metrics.
    let metrics = session.metrics();
    assert_eq!(
        metrics.counter_value("master.grants"),
        observed.committed().len() as u64
    );
    assert_eq!(observed.committed().len(), 1, "the scenario must grant");
}

#[test]
fn task_parallel_driver_matches_with_and_without_priorities() {
    // The thread driver keeps the NoopRecorder default; the dynamic
    // priorities reorder its requests but must never change what commits.
    let cost = EuclideanCost::default();
    let config = ScenarioConfig::small()
        .with_seed(9)
        .with_num_workers(60)
        .with_budget(120.0);
    let (tasks, dense, _) = prepare(&config);
    let cfg = MultiTaskConfig::new(config.budget);
    let run =
        |priorities| tcsc_assign::msqm_task_parallel(&tasks, &dense, &cost, &cfg, 4, priorities);
    let with = run(true);
    let without = run(false);
    assert_eq!(with.committed, without.committed);
    assert_eq!(with.outcome.assignment, without.outcome.assignment);
    assert!(!with.committed.is_empty(), "the scenario must commit");
}
