//! Sharded-engine equivalence: [`ConcurrentAssignmentEngine`] must be
//! **bit-identical** — plans, conflicts, executions *and* cache counters —
//! to the dense-index [`AssignmentEngine`] on the seeded scenario presets and
//! on random small instances, for every shard grid and every (ignored)
//! thread count, in both the batch and the streaming serving modes.  This is
//! the acceptance bar of the sharding subsystem: sharding is allowed to
//! change *where* occupancy lives, never *what* is decided.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use tcsc_assign::{
    AssignmentEngine, ConcurrentAssignmentEngine, MultiOutcome, MultiTaskConfig, Objective,
};
use tcsc_core::{EuclideanCost, InterpolationWeights, Task};
use tcsc_index::{ShardGridConfig, ShardedWorkerIndex, WorkerIndex};
use tcsc_workload::{
    PoiConfig, ScenarioConfig, SpatialDistribution, StreamingConfig, TaskPlacement,
};

/// Builds (tasks, dense index, sharded index) from a scenario configuration.
fn prepare(
    config: &ScenarioConfig,
    grid: ShardGridConfig,
) -> (Vec<Task>, WorkerIndex, ShardedWorkerIndex) {
    let scenario = config.build();
    let dense = WorkerIndex::build(&scenario.workers, config.num_slots, &scenario.domain);
    let sharded =
        ShardedWorkerIndex::build(&scenario.workers, config.num_slots, &scenario.domain, grid);
    (scenario.tasks, dense, sharded)
}

/// The scenario presets the equivalence is checked on: the CI-sized preset
/// under every placement (including the region-partitioned one), plus seed
/// and scarcity variants.
fn presets() -> Vec<ScenarioConfig> {
    vec![
        ScenarioConfig::small(),
        ScenarioConfig::small()
            .with_placement(TaskPlacement::Synthetic(SpatialDistribution::Gaussian)),
        ScenarioConfig::small()
            .with_placement(TaskPlacement::Synthetic(SpatialDistribution::zipf_default())),
        ScenarioConfig::small().with_placement(TaskPlacement::Poi(PoiConfig::default())),
        ScenarioConfig::small().with_placement(TaskPlacement::Synthetic(
            SpatialDistribution::region_grid(3),
        )),
        ScenarioConfig::small().with_seed(7).with_num_tasks(6),
        // Scarce workers force conflicts, exercising the two-phase claim.
        ScenarioConfig::small()
            .with_seed(9)
            .with_num_workers(60)
            .with_budget(120.0),
    ]
}

fn grids() -> Vec<ShardGridConfig> {
    vec![
        ShardGridConfig::new(1, 1),
        ShardGridConfig::new(4, 4),
        ShardGridConfig::new(3, 5),
    ]
}

/// Full bit-identity, including the candidate-computation counters.
fn assert_identical(label: &str, parallel: &MultiOutcome, serial: &MultiOutcome) {
    assert_eq!(
        parallel.assignment, serial.assignment,
        "{label}: plans differ"
    );
    assert_eq!(
        parallel.conflicts, serial.conflicts,
        "{label}: conflict counts differ"
    );
    assert_eq!(
        parallel.executions, serial.executions,
        "{label}: execution counts differ"
    );
    assert_eq!(
        parallel.stats, serial.stats,
        "{label}: cache counters differ"
    );
}

#[test]
fn batch_assign_matches_the_serial_engine_on_every_preset() {
    let cost = EuclideanCost::default();
    for (i, preset) in presets().into_iter().enumerate() {
        for grid in grids() {
            let (tasks, dense, sharded) = prepare(&preset, grid);
            let cfg = MultiTaskConfig::new(preset.budget);
            for objective in [Objective::SumQuality, Objective::MinQuality] {
                let serial =
                    AssignmentEngine::borrowed(&dense, &cost, cfg).assign_batch(&tasks, objective);
                let mut engine = ConcurrentAssignmentEngine::new(sharded.clone(), &cost, cfg, 4);
                let parallel = engine.assign_batch(&tasks, objective);
                assert_identical(
                    &format!("preset {i}, {grid:?}, {objective:?}"),
                    &parallel,
                    &serial,
                );
            }
        }
    }
    // Random small instances: task/slot/worker counts, placement, budget,
    // shard grid, thread count and search all drawn per seed.
    for seed in 1000..1100u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let preset = ScenarioConfig::small()
            .with_num_tasks(rng.gen_range(3..=10))
            .with_num_slots(rng.gen_range(8..=32))
            .with_num_workers(rng.gen_range(30..=160))
            .with_budget(rng.gen_range(4.0..70.0));
        let placement = match rng.gen_range(0..3) {
            0 => SpatialDistribution::Uniform,
            1 => SpatialDistribution::Gaussian,
            _ => SpatialDistribution::zipf_default(),
        };
        let preset = preset
            .with_placement(TaskPlacement::Synthetic(placement))
            .with_seed(rng.next_u64());
        let grid = match rng.gen_range(0..4) {
            0 => ShardGridConfig::new(1, 1),
            1 => ShardGridConfig::new(2, 2),
            2 => ShardGridConfig::new(4, 3),
            _ => ShardGridConfig::new(3, 3),
        };
        let (tasks, dense, sharded) = prepare(&preset, grid);
        let cfg = MultiTaskConfig::new(preset.budget).with_index(rng.gen_bool(0.7));
        let threads = rng.gen_range(1..=6);
        let serial = AssignmentEngine::borrowed(&dense, &cost, cfg)
            .assign_batch(&tasks, Objective::SumQuality);
        let mut engine = ConcurrentAssignmentEngine::new(sharded, &cost, cfg, threads);
        let parallel = engine.assign_batch(&tasks, Objective::SumQuality);
        assert_identical(
            &format!("seed {seed}, {grid:?}, threads {threads}"),
            &parallel,
            &serial,
        );
    }
}

#[test]
fn spatiotemporal_matches_the_serial_engine_on_every_preset() {
    let cost = EuclideanCost::default();
    for (i, preset) in presets().into_iter().enumerate() {
        let domain = preset.build().domain;
        for grid in grids() {
            let (tasks, dense, sharded) = prepare(&preset, grid);
            let cfg = MultiTaskConfig::new(preset.budget);
            for objective in [Objective::SumQuality, Objective::MinQuality] {
                let weights = InterpolationWeights::paper_default();
                let serial = AssignmentEngine::borrowed(&dense, &cost, cfg)
                    .assign_spatiotemporal(&tasks, &domain, weights, objective);
                let sharded = ConcurrentAssignmentEngine::new(sharded.clone(), &cost, cfg, 1)
                    .assign_spatiotemporal(&tasks, &domain, weights, objective);
                assert_eq!(sharded, serial, "preset {i}, {grid:?}, {objective:?}");
            }
        }
    }
}

#[test]
fn thread_counts_are_interchangeable() {
    let cost = EuclideanCost::default();
    let preset = ScenarioConfig::small()
        .with_seed(9)
        .with_num_workers(60)
        .with_budget(120.0);
    let (tasks, dense, sharded) = prepare(&preset, ShardGridConfig::new(4, 4));
    let cfg = MultiTaskConfig::new(preset.budget);
    let serial =
        AssignmentEngine::borrowed(&dense, &cost, cfg).assign_batch(&tasks, Objective::SumQuality);
    for threads in [1, 2, 3, 8, 32] {
        let mut engine = ConcurrentAssignmentEngine::new(sharded.clone(), &cost, cfg, threads);
        let parallel = engine.assign_batch(&tasks, Objective::SumQuality);
        assert_identical(&format!("threads={threads}"), &parallel, &serial);
    }
}

#[test]
fn streaming_drains_match_the_serial_engine_round_by_round() {
    // The full streaming lifecycle — persistent occupancy across rounds,
    // one-shot arrivals — must track the serial engine exactly,
    // on the region-partitioned preset the engine serves.
    let cost = EuclideanCost::default();
    let streaming = StreamingConfig::region_partitioned(ScenarioConfig::small(), 4, 4, 3).build();
    let num_slots = streaming.config.base.num_slots;
    let dense = WorkerIndex::build(&streaming.workers, num_slots, &streaming.domain);
    let sharded = ShardedWorkerIndex::build(
        &streaming.workers,
        num_slots,
        &streaming.domain,
        ShardGridConfig::new(4, 4),
    );
    let cfg = MultiTaskConfig::new(25.0);

    for objective in [Objective::SumQuality, Objective::MinQuality] {
        let mut serial = AssignmentEngine::borrowed(&dense, &cost, cfg);
        let mut parallel = ConcurrentAssignmentEngine::new(sharded.clone(), &cost, cfg, 4);
        for (r, round) in streaming.rounds.iter().enumerate() {
            serial.submit(round.clone());
            parallel.submit(round.clone());
            let a = serial.drain(objective);
            let b = parallel.drain(objective);
            assert_identical(&format!("round {r}, {objective:?}"), &b, &a);
        }
        assert_eq!(serial.ledger().len(), parallel.ledger().len());
    }
}

#[test]
fn replanning_reuses_the_shard_caches_and_stays_identical() {
    // Budget sweep over one batch: both engines serve re-plans from their
    // candidate memo, and must commit the same plans with the same counters
    // in every round.
    let cost = EuclideanCost::default();
    let preset = ScenarioConfig::small()
        .with_placement(TaskPlacement::Synthetic(SpatialDistribution::region_grid(
            4,
        )))
        .with_num_tasks(12);
    let (tasks, dense, sharded) = prepare(&preset, ShardGridConfig::new(4, 4));
    let mut serial = AssignmentEngine::borrowed(&dense, &cost, MultiTaskConfig::new(30.0));
    let mut parallel =
        ConcurrentAssignmentEngine::new(sharded, &cost, MultiTaskConfig::new(30.0), 4);
    for (round, budget) in [30.0, 18.0, 45.0].into_iter().enumerate() {
        serial.release_all();
        parallel.release_all();
        serial.set_budget(budget);
        parallel.set_budget(budget);
        let a = serial.assign_batch(&tasks, Objective::SumQuality);
        let b = parallel.assign_batch(&tasks, Objective::SumQuality);
        assert_identical(&format!("budget {budget}"), &b, &a);
        if round == 1 {
            assert_eq!(b.stats.tasks_reused, tasks.len(), "the re-plan hits");
        }
    }
    assert_eq!(serial.stats(), parallel.stats(), "lifetime counters differ");
    assert_eq!(serial.cache().len(), parallel.cache().len());
}
