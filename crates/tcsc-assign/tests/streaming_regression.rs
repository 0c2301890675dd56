//! Regression lock for the streaming engines: `drain` followed by `submit` of
//! tasks in an already-drained region must not replay stale candidates —
//! drains bypass the candidate cache on either index, so a re-arriving task
//! id (same or changed content) is solved from fresh candidates against the
//! persisted occupancy.

use tcsc_assign::{AssignmentEngine, ConcurrentAssignmentEngine, MultiTaskConfig, Objective};
use tcsc_core::{EuclideanCost, Location};
use tcsc_index::{ShardGridConfig, ShardedWorkerIndex, WorkerIndex};
use tcsc_workload::{ScenarioConfig, StreamingConfig};

fn region_stream() -> tcsc_workload::StreamingScenario {
    StreamingConfig::region_partitioned(
        ScenarioConfig::small()
            .with_num_slots(24)
            .with_num_workers(150),
        3,
        3,
        5,
    )
    .build()
}

#[test]
fn submit_after_drain_in_a_drained_region_matches_the_serial_engine() {
    let streaming = region_stream();
    let slots = streaming.config.base.num_slots;
    let cost = EuclideanCost::default();
    let cfg = MultiTaskConfig::new(35.0);

    let dense = WorkerIndex::build(&streaming.workers, slots, &streaming.domain);
    let sharded = ShardedWorkerIndex::build(
        &streaming.workers,
        slots,
        &streaming.domain,
        ShardGridConfig::new(3, 3),
    );
    let mut serial = AssignmentEngine::borrowed(&dense, &cost, cfg);
    let mut concurrent = ConcurrentAssignmentEngine::new(sharded, &cost, cfg, 4);

    // Round 1 drains every region; rounds 2 and 3 submit fresh tasks into
    // the same (already-drained) regions.
    for (round, tasks) in streaming.rounds.iter().enumerate() {
        serial.submit(tasks.clone());
        concurrent.submit(tasks.clone());
        let s = serial.drain(Objective::SumQuality);
        let c = concurrent.drain(Objective::SumQuality);
        assert_eq!(
            s.assignment, c.assignment,
            "plans diverged in round {round}"
        );
        assert_eq!(
            s.conflicts, c.conflicts,
            "conflicts diverged in round {round}"
        );
        assert_eq!(s.executions, c.executions);
        assert_eq!(s.stats, c.stats, "cache counters diverged in round {round}");
    }
}

#[test]
fn re_submitted_task_id_is_not_served_from_a_stale_cache_entry() {
    // A task re-arrives after its round was drained — once unchanged and once
    // *moved* (same id, different location, so a stale cache hit would
    // produce visibly wrong candidates).  Both engines must agree with each
    // other and with a fresh engine given the same ledger history.
    let streaming = region_stream();
    let slots = streaming.config.base.num_slots;
    let cost = EuclideanCost::default();
    let cfg = MultiTaskConfig::new(40.0);

    let dense = WorkerIndex::build(&streaming.workers, slots, &streaming.domain);
    let sharded = ShardedWorkerIndex::build(
        &streaming.workers,
        slots,
        &streaming.domain,
        ShardGridConfig::new(3, 3),
    );
    let round1 = streaming.rounds[0].clone();

    let mut serial = AssignmentEngine::borrowed(&dense, &cost, cfg);
    let mut concurrent = ConcurrentAssignmentEngine::new(sharded.clone(), &cost, cfg, 4);
    serial.submit(round1.clone());
    concurrent.submit(round1.clone());
    serial.drain(Objective::SumQuality);
    concurrent.drain(Objective::SumQuality);

    // Unchanged re-arrival of the drained round's first task.
    let replay = vec![round1[0].clone()];
    serial.submit(replay.clone());
    concurrent.submit(replay.clone());
    let s = serial.drain(Objective::SumQuality);
    let c = concurrent.drain(Objective::SumQuality);
    assert_eq!(s.assignment, c.assignment, "unchanged re-arrival diverged");
    assert_eq!(s.stats, c.stats);

    // Moved re-arrival: same id, different region.
    let mut moved = round1[1].clone();
    moved.location = Location::new(
        streaming.domain.max.x - (moved.location.x - streaming.domain.min.x),
        streaming.domain.max.y - (moved.location.y - streaming.domain.min.y),
    );
    serial.submit(vec![moved.clone()]);
    concurrent.submit(vec![moved.clone()]);
    let s = serial.drain(Objective::SumQuality);
    let c = concurrent.drain(Objective::SumQuality);
    assert_eq!(s.assignment, c.assignment, "moved re-arrival diverged");
    assert_eq!(s.conflicts, c.conflicts);
    assert_eq!(s.stats, c.stats);
    // A stale replay of the old location's candidates would also disagree
    // with a fresh engine fed the exact same history; lock that in too.
    let mut fresh = ConcurrentAssignmentEngine::new(sharded, &cost, cfg, 2);
    fresh.submit(round1.clone());
    fresh.drain(Objective::SumQuality);
    fresh.submit(replay);
    fresh.drain(Objective::SumQuality);
    fresh.submit(vec![moved]);
    let f = fresh.drain(Objective::SumQuality);
    assert_eq!(f.assignment, c.assignment);
}
