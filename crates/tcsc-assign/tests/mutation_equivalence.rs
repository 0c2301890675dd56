//! Engine-level rebuild equivalence of the mutable worker index: applying
//! seeded insert/remove/move tapes to *live* engines (warm candidate caches,
//! persistent ledgers) must reproduce — bit for bit — the plans of engines
//! that **rebuild their index from scratch** after every tape
//! (`replace_index`), on both the dense and the sharded index.
//!
//! This is the assignment-layer counterpart of `tcsc-index`'s
//! `mutable_index_fuzz`: the index fuzz locks query-level equivalence, this
//! suite locks that the cache maintenance (every mutation clears the
//! candidate caches) and the ledger maintenance (release on remove,
//! cross-tile migration on move) never change what gets planned.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcsc_assign::{AssignmentEngine, ConcurrentAssignmentEngine, MultiTaskConfig, Objective};
use tcsc_core::{Domain, EuclideanCost, Location, Worker, WorkerId, WorkerPool, WorkerSlot};
use tcsc_index::{ShardGridConfig, ShardedWorkerIndex, WorkerIndex};
use tcsc_workload::ScenarioConfig;

/// One replayable worker mutation.
enum Op {
    Insert(Worker),
    Remove(WorkerId),
    Move(WorkerId, Location),
}

fn random_location(rng: &mut StdRng, domain: &Domain) -> Location {
    // One in five placements lands outside the domain, exercising the
    // border-clamp invariant end to end.
    let slack = if rng.gen_range(0..5) == 0 { 0.25 } else { 0.0 };
    let (w, h) = (domain.width(), domain.height());
    Location::new(
        rng.gen_range(domain.min.x - slack * w..domain.max.x + slack * w),
        rng.gen_range(domain.min.y - slack * h..domain.max.y + slack * h),
    )
}

/// Draws a mutation tape, keeping `mirror` (the ground-truth pool a rebuild
/// uses) in sync.  Inserted workers always use fresh ids — recycling an id
/// across a rebuild is explicitly out of contract (see
/// `AssignmentEngine::replace_index`).
fn mutation_tape(
    rng: &mut StdRng,
    mirror: &mut Vec<Worker>,
    next_id: &mut u32,
    num_slots: usize,
    domain: &Domain,
) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..6 {
        match rng.gen_range(0..5) {
            0 => {
                let count = rng.gen_range(1..=3);
                let slots = (0..count)
                    .map(|_| WorkerSlot {
                        slot: rng.gen_range(0..num_slots),
                        location: random_location(rng, domain),
                    })
                    .collect();
                let worker = Worker::new(WorkerId(*next_id), slots);
                *next_id += 1;
                mirror.push(worker.clone());
                ops.push(Op::Insert(worker));
            }
            1 if mirror.len() > 8 => {
                let at = rng.gen_range(0..mirror.len());
                ops.push(Op::Remove(mirror.remove(at).id));
            }
            _ => {
                let at = rng.gen_range(0..mirror.len());
                let to = random_location(rng, domain);
                let old = &mirror[at];
                let (id, reliability) = (old.id, old.reliability);
                let slots = old
                    .availability()
                    .iter()
                    .map(|ws| WorkerSlot {
                        slot: ws.slot,
                        location: to,
                    })
                    .collect();
                mirror[at] = Worker::with_reliability(id, slots, reliability);
                ops.push(Op::Move(id, to));
            }
        }
    }
    ops
}

fn apply_serial(engine: &mut AssignmentEngine<'_>, ops: &[Op]) {
    for op in ops {
        let applied = match op {
            Op::Insert(w) => engine.insert_worker(w).applied,
            Op::Remove(id) => engine.remove_worker(*id).applied,
            Op::Move(id, to) => engine.move_worker(*id, *to).applied,
        };
        assert!(applied, "every tape op targets a live id");
    }
}

fn apply_concurrent(engine: &mut ConcurrentAssignmentEngine<'_>, ops: &[Op]) {
    for op in ops {
        let applied = match op {
            Op::Insert(w) => engine.insert_worker(w).applied,
            Op::Remove(id) => engine.remove_worker(*id).applied,
            Op::Move(id, to) => engine.move_worker(*id, *to).applied,
        };
        assert!(applied, "every tape op targets a live id");
    }
}

/// Re-planning shape: the same batch is solved again after every tape (the
/// mutating engines clear their caches on each op, the rebuilding engines
/// come back cold), with occupancy released between rounds so plans stay
/// comparable round over round.
#[test]
fn mutated_engines_match_rebuilt_engines_on_replanning() {
    let cost = EuclideanCost::default();
    for (seed, grid, threads) in [
        (11u64, ShardGridConfig::new(3, 3), 4),
        (12, ShardGridConfig::new(4, 2), 2),
        (13, ShardGridConfig::new(1, 1), 1),
    ] {
        let config = ScenarioConfig::small().with_seed(seed);
        let scenario = config.build();
        let (num_slots, domain) = (config.num_slots, scenario.domain);
        let mut mirror: Vec<Worker> = scenario.workers.workers().to_vec();
        let mut next_id = mirror.iter().map(|w| w.id.0).max().unwrap_or(0) + 1;
        let mut rng = StdRng::seed_from_u64(0x0b5e ^ seed);
        let cfg = MultiTaskConfig::new(config.budget);

        let mut serial_mut = AssignmentEngine::new(
            WorkerIndex::build(&scenario.workers, num_slots, &domain),
            &cost,
            cfg,
        );
        let mut serial_reb = AssignmentEngine::new(
            WorkerIndex::build(&scenario.workers, num_slots, &domain),
            &cost,
            cfg,
        );
        let mut conc_mut = ConcurrentAssignmentEngine::new(
            ShardedWorkerIndex::build(&scenario.workers, num_slots, &domain, grid),
            &cost,
            cfg,
            threads,
        );
        let mut conc_reb = ConcurrentAssignmentEngine::new(
            ShardedWorkerIndex::build(&scenario.workers, num_slots, &domain, grid),
            &cost,
            cfg,
            threads,
        );

        for round in 0..4 {
            let ctx = format!("seed {seed}, round {round}");
            let a = serial_mut.assign_batch(&scenario.tasks, Objective::SumQuality);
            let b = serial_reb.assign_batch(&scenario.tasks, Objective::SumQuality);
            let c = conc_mut.assign_batch(&scenario.tasks, Objective::SumQuality);
            let d = conc_reb.assign_batch(&scenario.tasks, Objective::SumQuality);
            for (label, other) in [
                ("serial-rebuild", &b),
                ("conc-mutate", &c),
                ("conc-rebuild", &d),
            ] {
                assert_eq!(a.assignment, other.assignment, "{ctx}: {label} plans");
                assert_eq!(a.conflicts, other.conflicts, "{ctx}: {label} conflicts");
                assert_eq!(a.executions, other.executions, "{ctx}: {label} executions");
            }
            serial_mut.release_all();
            serial_reb.release_all();
            conc_mut.release_all();
            conc_reb.release_all();

            let tape = mutation_tape(&mut rng, &mut mirror, &mut next_id, num_slots, &domain);
            apply_serial(&mut serial_mut, &tape);
            apply_concurrent(&mut conc_mut, &tape);
            let pool = WorkerPool::new(mirror.clone());
            serial_reb.replace_index(WorkerIndex::build(&pool, num_slots, &domain));
            conc_reb.replace_index(ShardedWorkerIndex::build(&pool, num_slots, &domain, grid));
        }
    }
}

/// Service shape: submit/drain rounds with churn tapes between drains and a
/// ledger that persists across rounds (no release), so removal-releases and
/// cross-tile occupancy migration are on the equivalence path.
#[test]
fn mutated_engines_match_rebuilt_engines_across_drains() {
    let cost = EuclideanCost::default();
    for (seed, grid, threads) in [
        (21u64, ShardGridConfig::new(3, 3), 4),
        (22, ShardGridConfig::new(2, 3), 3),
    ] {
        let config = ScenarioConfig::small().with_seed(seed).with_num_workers(80);
        let scenario = config.build();
        let (num_slots, domain) = (config.num_slots, scenario.domain);
        let mut mirror: Vec<Worker> = scenario.workers.workers().to_vec();
        let mut next_id = mirror.iter().map(|w| w.id.0).max().unwrap_or(0) + 1;
        let mut rng = StdRng::seed_from_u64(0xd5a1 ^ seed);
        let cfg = MultiTaskConfig::new(config.budget);

        let mut serial_mut = AssignmentEngine::new(
            WorkerIndex::build(&scenario.workers, num_slots, &domain),
            &cost,
            cfg,
        );
        let mut conc_mut = ConcurrentAssignmentEngine::new(
            ShardedWorkerIndex::build(&scenario.workers, num_slots, &domain, grid),
            &cost,
            cfg,
            threads,
        );
        let mut conc_reb = ConcurrentAssignmentEngine::new(
            ShardedWorkerIndex::build(&scenario.workers, num_slots, &domain, grid),
            &cost,
            cfg,
            threads,
        );

        for (round, batch) in scenario.tasks.chunks(3).enumerate() {
            let ctx = format!("seed {seed}, round {round}");
            serial_mut.submit(batch.to_vec());
            conc_mut.submit(batch.to_vec());
            conc_reb.submit(batch.to_vec());
            let a = serial_mut.drain(Objective::SumQuality);
            let b = conc_mut.drain(Objective::SumQuality);
            let c = conc_reb.drain(Objective::SumQuality);
            for (label, other) in [("conc-mutate", &b), ("conc-rebuild", &c)] {
                assert_eq!(a.assignment, other.assignment, "{ctx}: {label} plans");
                assert_eq!(a.conflicts, other.conflicts, "{ctx}: {label} conflicts");
                assert_eq!(a.executions, other.executions, "{ctx}: {label} executions");
            }
            assert_eq!(serial_mut.ledger().len(), conc_mut.ledger().len(), "{ctx}");
            assert_eq!(serial_mut.ledger().len(), conc_reb.ledger().len(), "{ctx}");

            let tape = mutation_tape(&mut rng, &mut mirror, &mut next_id, num_slots, &domain);
            apply_serial(&mut serial_mut, &tape);
            apply_concurrent(&mut conc_mut, &tape);
            let pool = WorkerPool::new(mirror.clone());
            conc_reb.replace_index(ShardedWorkerIndex::build(&pool, num_slots, &domain, grid));
        }
    }
}
