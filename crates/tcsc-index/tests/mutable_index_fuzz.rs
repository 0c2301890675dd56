//! Differential fuzz of the mutable spatial indexes: random
//! insert/remove/move tapes applied to a live [`WorkerIndex`] and
//! [`ShardedWorkerIndex`] must answer every [`SpatialQuery`] path
//! bit-identically to indexes **rebuilt from scratch** from an equivalently
//! mutated mirror pool — the rebuild equivalence invariant of
//! [`MutableSpatialIndex`].
//!
//! 320 seeds × 24-op tapes, checkpointed every few ops.  Covered paths:
//! `nearest`, `k_nearest` (several counts), `nearest_excluding_set`
//! (including absent ids), the occupancy-filtered
//! `nearest_excluding_with`, and the structural counters
//! (`available_count`, `total_workers`, `indexed_entries`, per-shard entry
//! counts).  Tapes deliberately move and insert workers *outside* the
//! domain, exercising the border-clamp invariant shared by `build` and
//! `move_worker`.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcsc_core::{Domain, Location, Worker, WorkerId, WorkerPool, WorkerSlot};
use tcsc_index::{
    MutableSpatialIndex, NearestWorker, ShardGridConfig, ShardedWorkerIndex, SpatialQuery,
    WorkerIndex,
};

const SEEDS: u64 = 320;
const OPS_PER_TAPE: usize = 24;
const CHECK_EVERY: usize = 6;

/// Bit-exact comparison key of one query answer.
fn key(w: &NearestWorker) -> (WorkerId, u64, u64, u64, u64) {
    (
        w.worker,
        w.distance.to_bits(),
        w.location.x.to_bits(),
        w.location.y.to_bits(),
        w.reliability.to_bits(),
    )
}

fn keys(list: &[NearestWorker]) -> Vec<(WorkerId, u64, u64, u64, u64)> {
    list.iter().map(key).collect()
}

/// A deterministic pseudo-occupancy predicate over worker ids (the shard
/// argument is irrelevant for occupancy *membership*, which is global).
fn occupied(id: WorkerId) -> bool {
    id.0.wrapping_mul(2654435761) % 4 == 0
}

fn random_location(rng: &mut StdRng, domain: &Domain) -> Location {
    // 20% of placements land outside the domain (up to 30% beyond each
    // edge), so border-tile clamping is continuously exercised.
    let slack = if rng.gen_range(0..5) == 0 { 0.3 } else { 0.0 };
    let w = domain.width();
    let h = domain.height();
    Location::new(
        rng.gen_range(domain.min.x - slack * w..domain.max.x + slack * w),
        rng.gen_range(domain.min.y - slack * h..domain.max.y + slack * h),
    )
}

fn random_worker(rng: &mut StdRng, id: u32, num_slots: usize, domain: &Domain) -> Worker {
    let count = rng.gen_range(1..=3);
    let slots = (0..count)
        .map(|_| WorkerSlot {
            // Some entries beyond the slot horizon: ignored by every build
            // and by the registry, so they must not perturb equivalence.
            slot: rng.gen_range(0..num_slots + 2),
            location: random_location(rng, domain),
        })
        .collect();
    Worker::with_reliability(WorkerId(id), slots, rng.gen_range(0.5..1.0))
}

fn query_points(rng: &mut StdRng, domain: &Domain) -> Vec<Location> {
    let mut points = vec![
        domain.min,
        domain.max,
        Location::new(domain.min.x, domain.max.y),
        domain.center(),
        // An out-of-domain query: routing clamps it into a border tile.
        Location::new(domain.min.x - 7.0, domain.center().y),
    ];
    points.push(random_location(rng, domain));
    points.push(random_location(rng, domain));
    points
}

/// Asserts that the two *mutated* indexes answer every query path exactly
/// like the two indexes *rebuilt from scratch* at the mirror-pool state.
#[allow(clippy::too_many_arguments)]
fn assert_checkpoint(
    seed: u64,
    step: usize,
    mutated_dense: &WorkerIndex,
    mutated_sharded: &ShardedWorkerIndex,
    mirror: &[Worker],
    num_slots: usize,
    domain: &Domain,
    config: ShardGridConfig,
    rng: &mut StdRng,
) {
    let ctx = format!("seed {seed}, step {step}");
    let pool = WorkerPool::new(mirror.to_vec());
    let fresh_dense = WorkerIndex::build(&pool, num_slots, domain);
    let fresh_sharded = ShardedWorkerIndex::build(&pool, num_slots, domain, config);

    assert_eq!(mutated_dense.total_workers(), pool.len(), "{ctx}");
    assert_eq!(mutated_sharded.total_workers(), pool.len(), "{ctx}");
    assert_eq!(
        mutated_dense.indexed_entries(),
        fresh_dense.indexed_entries(),
        "{ctx}"
    );
    assert_eq!(
        mutated_sharded.indexed_entries(),
        fresh_sharded.indexed_entries(),
        "{ctx}"
    );
    // Structural equivalence of the sharded layout: every shard owns exactly
    // the entries a rebuild would give it (the clamp-invariant regression at
    // fuzz scale).
    for shard in 0..fresh_sharded.num_shards() {
        assert_eq!(
            mutated_sharded.shard_entries(shard),
            fresh_sharded.shard_entries(shard),
            "{ctx}, shard {shard}"
        );
    }

    let points = query_points(rng, domain);
    for slot in 0..num_slots {
        assert_eq!(
            mutated_dense.available_count(slot),
            fresh_dense.available_count(slot),
            "{ctx}, slot {slot}"
        );
        assert_eq!(
            mutated_sharded.available_count(slot),
            fresh_dense.available_count(slot),
            "{ctx}, slot {slot}"
        );
        // The global exclusion set equivalent to the pseudo-occupancy
        // predicate: every available worker the predicate marks occupied.
        let occupied_set: BTreeSet<WorkerId> = pool
            .available_at(slot)
            .filter(|(w, _)| occupied(w.id))
            .map(|(w, _)| w.id)
            .collect();
        // An exclusion set mixing present and absent ids.
        let mixed_set: BTreeSet<WorkerId> = pool
            .workers()
            .iter()
            .filter(|w| w.id.0 % 3 == 0)
            .map(|w| w.id)
            .chain([WorkerId(u32::MAX), WorkerId(u32::MAX - 7)])
            .collect();
        for q in &points {
            let ctx = format!("{ctx}, slot {slot}, query {q}");
            for count in [1usize, 3, 7] {
                let want = keys(&fresh_dense.k_nearest(slot, q, count));
                assert_eq!(
                    keys(&mutated_dense.k_nearest(slot, q, count)),
                    want,
                    "{ctx}, k={count}"
                );
                assert_eq!(
                    keys(&mutated_sharded.k_nearest(slot, q, count)),
                    want,
                    "{ctx}, k={count}"
                );
            }
            for set in [&occupied_set, &mixed_set] {
                let want = fresh_dense
                    .nearest_excluding_set(slot, q, set)
                    .map(|w| key(&w));
                assert_eq!(
                    mutated_dense
                        .nearest_excluding_set(slot, q, set)
                        .map(|w| key(&w)),
                    want,
                    "{ctx}"
                );
                assert_eq!(
                    mutated_sharded
                        .nearest_excluding_set(slot, q, set)
                        .map(|w| key(&w)),
                    want,
                    "{ctx}"
                );
            }
            // Occupancy-filtered path: the per-tile-shard callback answers
            // like the equivalent global exclusion set.
            let via_filter = mutated_sharded
                .nearest_excluding_with(slot, q, |_, id| occupied(id))
                .map(|w| key(&w));
            assert_eq!(
                via_filter,
                fresh_dense
                    .nearest_excluding_set(slot, q, &occupied_set)
                    .map(|w| key(&w)),
                "{ctx}"
            );
        }
    }
}

#[test]
fn mutated_indexes_stay_bit_identical_to_rebuilds() {
    let layouts = [
        ShardGridConfig::new(1, 1),
        ShardGridConfig::new(2, 3),
        ShardGridConfig::new(4, 4),
        ShardGridConfig::new(3, 2).with_time_splits(2),
        ShardGridConfig::new(5, 5).with_time_splits(3),
    ];
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x0b57_ac1e ^ seed);
        let num_slots = rng.gen_range(2..=4);
        let side = rng.gen_range(30.0..80.0);
        let domain = Domain::new(
            Location::new(-side / 4.0, 0.0),
            Location::new(side, side * 0.75),
        );
        let config = layouts[seed as usize % layouts.len()];

        let initial = rng.gen_range(8..=20);
        let mut mirror: Vec<Worker> = (0..initial)
            .map(|id| random_worker(&mut rng, id, num_slots, &domain))
            .collect();
        let mut next_id = initial;
        let pool = WorkerPool::new(mirror.clone());
        let mut dense = WorkerIndex::build(&pool, num_slots, &domain);
        let mut sharded = ShardedWorkerIndex::build(&pool, num_slots, &domain, config);

        for step in 0..OPS_PER_TAPE {
            match rng.gen_range(0..4) {
                // Insert a brand-new worker (offline worker coming online).
                0 => {
                    let worker = random_worker(&mut rng, next_id, num_slots, &domain);
                    next_id += 1;
                    assert!(dense.insert_worker(&worker).applied);
                    assert!(sharded.insert_worker(&worker).applied);
                    mirror.push(worker);
                }
                // Remove a random worker (going offline).
                1 if !mirror.is_empty() => {
                    let at = rng.gen_range(0..mirror.len());
                    let id = mirror.remove(at).id;
                    assert!(dense.remove_worker(id).applied);
                    assert!(sharded.remove_worker(id).applied);
                }
                // Move a random worker: every availability entry relocates.
                _ if !mirror.is_empty() => {
                    let at = rng.gen_range(0..mirror.len());
                    let to = random_location(&mut rng, &domain);
                    let old = &mirror[at];
                    let id = old.id;
                    let moved_slots = old
                        .availability()
                        .iter()
                        .map(|ws| WorkerSlot {
                            slot: ws.slot,
                            location: to,
                        })
                        .collect();
                    mirror[at] = Worker::with_reliability(id, moved_slots, old.reliability);
                    let md = dense.move_worker(id, to);
                    let ms = sharded.move_worker(id, to);
                    assert!(md.applied && ms.applied);
                    assert!(
                        ms.entries_touched <= ms.rebuild_equiv_entries,
                        "a tile-local splice never exceeds the full rebuild"
                    );
                }
                _ => {}
            }
            if (step + 1) % CHECK_EVERY == 0 || step + 1 == OPS_PER_TAPE {
                assert_checkpoint(
                    seed, step, &dense, &sharded, &mirror, num_slots, &domain, config, &mut rng,
                );
            }
        }
        // Rejections leave both indexes untouched.
        assert!(!dense.remove_worker(WorkerId(u32::MAX)).applied);
        assert!(
            !sharded
                .move_worker(WorkerId(u32::MAX), domain.center())
                .applied
        );
    }
}
