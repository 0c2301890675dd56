//! Engine equivalence: the cache-backed [`AssignmentEngine`] must reproduce
//! the rebuild-per-call greedies (`support::oracle`: fresh candidates per
//! call, a full search per best-candidate request) bit-for-bit on the seeded
//! scenario presets,
//! streaming `submit`/`drain` must equal the one-shot batch call, and the
//! candidate-refresh counters must show the cache doing strictly less work
//! than the rebuild-per-call baseline.

mod support;

use support::oracle::{mmqm_oracle, msqm_oracle};
use tcsc_assign::{AssignmentEngine, MultiOutcome, MultiTaskConfig, Objective, WorkerLedger};
use tcsc_core::{EuclideanCost, InterpolationWeights, Task};
use tcsc_index::WorkerIndex;
use tcsc_workload::{
    PoiConfig, ScenarioConfig, SpatialDistribution, StreamingConfig, TaskPlacement,
};

/// Builds (tasks, index) from a scenario configuration.
fn prepare(config: &ScenarioConfig) -> (Vec<Task>, WorkerIndex) {
    let scenario = config.build();
    let index = WorkerIndex::build(&scenario.workers, config.num_slots, &scenario.domain);
    (scenario.tasks, index)
}

/// The scenario presets the equivalence is checked on: the CI-sized preset
/// under every placement, plus seed and shape variations.
fn presets() -> Vec<ScenarioConfig> {
    vec![
        ScenarioConfig::small(),
        ScenarioConfig::small()
            .with_placement(TaskPlacement::Synthetic(SpatialDistribution::Gaussian)),
        ScenarioConfig::small()
            .with_placement(TaskPlacement::Synthetic(SpatialDistribution::zipf_default())),
        ScenarioConfig::small().with_placement(TaskPlacement::Poi(PoiConfig::default())),
        ScenarioConfig::small().with_seed(7).with_num_tasks(6),
        // Scarce workers force conflicts, exercising the holder-map path.
        ScenarioConfig::small()
            .with_seed(9)
            .with_num_workers(60)
            .with_budget(120.0),
    ]
}

/// The MSQM oracle on an empty ledger.
fn msqm_fresh(tasks: &[Task], index: &WorkerIndex, cfg: &MultiTaskConfig) -> MultiOutcome {
    let cost = EuclideanCost::default();
    msqm_oracle(tasks, index, &cost, cfg, &mut WorkerLedger::new()).0
}

/// The MMQM oracle on an empty ledger.
fn mmqm_fresh(tasks: &[Task], index: &WorkerIndex, cfg: &MultiTaskConfig) -> MultiOutcome {
    let cost = EuclideanCost::default();
    mmqm_oracle(tasks, index, &cost, cfg, &mut WorkerLedger::new())
}

/// Asserts that two outcomes agree on everything except the cache counters.
fn assert_same_outcome(label: &str, engine: &MultiOutcome, reference: &MultiOutcome) {
    assert_eq!(
        engine.assignment, reference.assignment,
        "{label}: plans differ"
    );
    assert_eq!(
        engine.conflicts, reference.conflicts,
        "{label}: conflict counts differ"
    );
    assert_eq!(
        engine.executions, reference.executions,
        "{label}: execution counts differ"
    );
}

#[test]
fn assign_batch_matches_msqm_oracle_on_every_preset() {
    let cost = EuclideanCost::default();
    for (i, preset) in presets().into_iter().enumerate() {
        let (tasks, index) = prepare(&preset);
        let cfg = MultiTaskConfig::new(preset.budget);
        let reference = msqm_fresh(&tasks, &index, &cfg);
        let mut engine = AssignmentEngine::borrowed(&index, &cost, cfg);
        let outcome = engine.assign_batch(&tasks, Objective::SumQuality);
        assert_same_outcome(&format!("msqm preset {i}"), &outcome, &reference);
    }
}

#[test]
fn assign_batch_matches_mmqm_oracle_on_every_preset() {
    let cost = EuclideanCost::default();
    for (i, preset) in presets().into_iter().enumerate() {
        let (tasks, index) = prepare(&preset);
        let cfg = MultiTaskConfig::new(preset.budget);
        let reference = mmqm_fresh(&tasks, &index, &cfg);
        let mut engine = AssignmentEngine::borrowed(&index, &cost, cfg);
        let outcome = engine.assign_batch(&tasks, Objective::MinQuality);
        assert_same_outcome(&format!("mmqm preset {i}"), &outcome, &reference);
    }
}

#[test]
fn equivalence_holds_without_the_tree_index() {
    // The plain (non-VTree) candidate search must agree as well.
    let cost = EuclideanCost::default();
    let (tasks, index) = prepare(&ScenarioConfig::small().with_seed(11));
    let cfg = MultiTaskConfig::new(30.0).with_index(false);
    let reference = msqm_fresh(&tasks, &index, &cfg);
    let mut engine = AssignmentEngine::borrowed(&index, &cost, cfg);
    let outcome = engine.assign_batch(&tasks, Objective::SumQuality);
    assert_same_outcome("msqm no-index", &outcome, &reference);
}

#[test]
fn streaming_submits_drained_once_equal_the_batch_call() {
    // Submitting k rounds of arrivals and draining once must be bit-identical
    // to one assign_batch call on the concatenated tasks under the same
    // budget.
    let cost = EuclideanCost::default();
    for objective in [Objective::SumQuality, Objective::MinQuality] {
        let streaming = StreamingConfig::small(4, 3).build();
        let index = WorkerIndex::build(
            &streaming.workers,
            streaming.config.base.num_slots,
            &streaming.domain,
        );
        let cfg = MultiTaskConfig::new(streaming.config.base.budget);

        let mut stream_engine = AssignmentEngine::borrowed(&index, &cost, cfg);
        for round in &streaming.rounds {
            stream_engine.submit(round.clone());
        }
        let drained = stream_engine.drain(objective);
        assert_eq!(stream_engine.pending(), 0);

        let mut batch_engine = AssignmentEngine::borrowed(&index, &cost, cfg);
        let batch = batch_engine.assign_batch(&streaming.concatenated(), objective);
        assert_same_outcome("stream vs batch", &drained, &batch);
    }
}

#[test]
fn per_round_drains_are_deterministic_and_share_occupancy() {
    // Draining round by round is the streaming serving mode: occupancy
    // persists, so no worker is granted twice at a slot across rounds, and
    // the whole run is reproducible.
    let cost = EuclideanCost::default();
    let streaming = StreamingConfig::small(3, 4).build();
    let index = WorkerIndex::build(
        &streaming.workers,
        streaming.config.base.num_slots,
        &streaming.domain,
    );
    let cfg = MultiTaskConfig::new(25.0);

    let run = |rounds: &[Vec<Task>]| -> Vec<MultiOutcome> {
        let mut engine = AssignmentEngine::borrowed(&index, &cost, cfg);
        rounds
            .iter()
            .map(|round| {
                engine.submit(round.clone());
                engine.drain(Objective::SumQuality)
            })
            .collect()
    };
    let first = run(&streaming.rounds);
    let second = run(&streaming.rounds);
    for (a, b) in first.iter().zip(&second) {
        assert_same_outcome("repeated streaming run", a, b);
    }

    let mut seen = std::collections::HashSet::new();
    for outcome in &first {
        for plan in &outcome.assignment.plans {
            for exec in &plan.executions {
                assert!(
                    seen.insert((exec.slot, exec.worker)),
                    "worker {:?} double-booked at slot {} across rounds",
                    exec.worker,
                    exec.slot
                );
            }
        }
    }
}

#[test]
fn sapprox_through_the_engine_is_deterministic() {
    // Two `SApprox` solves on fresh engines over the same scenario must agree
    // bit-for-bit (the engine introduces no hidden state into a fresh call).
    let cost = EuclideanCost::default();
    let scenario = ScenarioConfig::small().with_num_tasks(5).build();
    let index = WorkerIndex::build(
        &scenario.workers,
        scenario.config.num_slots,
        &scenario.domain,
    );
    let cfg = MultiTaskConfig::new(20.0);
    let run = || {
        AssignmentEngine::borrowed(&index, &cost, cfg).assign_spatiotemporal(
            &scenario.tasks,
            &scenario.domain,
            InterpolationWeights::paper_default(),
            Objective::SumQuality,
        )
    };
    let a = run();
    let b = run();
    assert_same_outcome("sapprox", &a, &b);
    assert!(a.assignment.total_cost() <= 20.0 + 1e-6);
}

#[test]
fn candidate_cache_beats_the_rebuild_baseline_on_a_large_batch() {
    // Acceptance criterion: on a >= 100-task batch the engine's refresh
    // counter shows strictly fewer slot recomputations than the
    // rebuild-per-call baseline.
    let cost = EuclideanCost::default();
    let preset = ScenarioConfig::small()
        .with_num_tasks(100)
        .with_num_slots(30)
        .with_num_workers(800)
        .with_budget(150.0);
    let (tasks, index) = prepare(&preset);
    assert!(tasks.len() >= 100);
    let cfg = MultiTaskConfig::new(preset.budget);

    // Re-planning workload: the same batch solved under two budgets.  The
    // rebuild baseline pays the full candidate build twice; the engine pays
    // it once and serves the second solve from the cache.
    let reference_a = msqm_fresh(&tasks, &index, &cfg);
    let cfg_b = MultiTaskConfig::new(preset.budget * 0.5);
    let reference_b = msqm_fresh(&tasks, &index, &cfg_b);

    let mut engine = AssignmentEngine::borrowed(&index, &cost, cfg);
    let first = engine.assign_batch(&tasks, Objective::SumQuality);
    assert_same_outcome("large batch, full budget", &first, &reference_a);
    engine.release_all();
    engine.set_budget(cfg_b.budget);
    let second = engine.assign_batch(&tasks, Objective::SumQuality);
    assert_same_outcome("large batch, half budget", &second, &reference_b);

    // The second solve is served from the cache: its outcome stats alone
    // already beat the fresh solve of the same call...
    assert_eq!(second.stats.tasks_reused, tasks.len());
    assert!(
        second.stats.slot_computations < reference_b.stats.slot_computations,
        "cache did not save recomputations: {:?} vs {:?}",
        second.stats,
        reference_b.stats
    );
    // ...and so do the engine's lifetime counters against the two rebuild
    // runs actually performed by the baseline.
    let engine_total = engine.stats().slot_computations;
    let rebuild_total = reference_a.stats.slot_computations + reference_b.stats.slot_computations;
    assert!(
        engine_total < rebuild_total,
        "engine performed {engine_total} slot computations, rebuild baseline {rebuild_total}"
    );
}
