//! Property tests: [`ShardedWorkerIndex`] must answer every query
//! **bit-identically** to the dense [`WorkerIndex`] — same workers, same
//! order, same `f64` distances — across seeded domains, shard layouts,
//! tile-boundary workers and empty shards.  This equivalence is what lets the
//! assignment layer swap the sharded router in without changing a single
//! plan.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcsc_core::{Domain, Location, Worker, WorkerId, WorkerPool, WorkerSlot};
use tcsc_index::{
    MutableSpatialIndex, ShardGridConfig, ShardedWorkerIndex, SpatialQuery, WorkerIndex,
};

/// A seeded pool of workers with 1–4 availability slots each.
fn random_pool(seed: u64, num_workers: usize, num_slots: usize, domain: &Domain) -> WorkerPool {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_workers)
        .map(|i| {
            let start = rng.gen_range(0..num_slots);
            let len = rng.gen_range(1..=4.min(num_slots));
            let availability = (start..(start + len).min(num_slots))
                .map(|slot| WorkerSlot {
                    slot,
                    location: Location::new(
                        rng.gen_range(domain.min.x..=domain.max.x),
                        rng.gen_range(domain.min.y..=domain.max.y),
                    ),
                })
                .collect();
            Worker::new(WorkerId(i as u32), availability)
        })
        .collect()
}

/// Seeded query points, including the domain corners and centre.
fn query_points(seed: u64, count: usize, domain: &Domain) -> Vec<Location> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = vec![
        domain.min,
        domain.max,
        domain.center(),
        Location::new(domain.min.x, domain.max.y),
        Location::new(domain.max.x, domain.min.y),
    ];
    points.extend((0..count).map(|_| {
        Location::new(
            rng.gen_range(domain.min.x..=domain.max.x),
            rng.gen_range(domain.min.y..=domain.max.y),
        )
    }));
    points
}

fn shard_layouts() -> Vec<ShardGridConfig> {
    vec![
        ShardGridConfig::new(1, 1),
        ShardGridConfig::new(2, 2),
        ShardGridConfig::new(4, 4),
        ShardGridConfig::new(5, 3),
        ShardGridConfig::new(16, 16),
        ShardGridConfig::new(4, 4).with_time_splits(2),
        ShardGridConfig::new(3, 5).with_time_splits(4),
    ]
}

/// Asserts every query of every slot agrees bit-for-bit between the two
/// indexes.
fn assert_equivalent(
    pool: &WorkerPool,
    num_slots: usize,
    domain: &Domain,
    config: ShardGridConfig,
    queries: &[Location],
) {
    let dense = WorkerIndex::build(pool, num_slots, domain);
    let sharded = ShardedWorkerIndex::build(pool, num_slots, domain, config);
    assert_eq!(dense.num_slots(), SpatialQuery::num_slots(&sharded));
    for slot in 0..num_slots {
        assert_eq!(
            dense.available_count(slot),
            SpatialQuery::available_count(&sharded, slot),
            "availability at slot {slot} under {config:?}"
        );
        for q in queries {
            assert_eq!(
                dense.nearest(slot, q),
                sharded.nearest(slot, q),
                "nearest at slot {slot}, query {q}, {config:?}"
            );
            for count in [2, 5, 17] {
                assert_eq!(
                    dense.k_nearest(slot, q, count),
                    sharded.k_nearest(slot, q, count),
                    "{count}-nearest at slot {slot}, query {q}, {config:?}"
                );
            }
            // Exclusion sets built from the actual nearest workers (the
            // conflict-fallback shape) plus ids absent from the slot.
            let top: Vec<WorkerId> = dense
                .k_nearest(slot, q, 4)
                .into_iter()
                .map(|w| w.worker)
                .collect();
            for take in 0..=top.len() {
                let mut excluded: BTreeSet<WorkerId> = top[..take].iter().copied().collect();
                excluded.insert(WorkerId(u32::MAX));
                assert_eq!(
                    dense.nearest_excluding_set(slot, q, &excluded),
                    sharded.nearest_excluding_set(slot, q, &excluded),
                    "excluding {excluded:?} at slot {slot}, query {q}, {config:?}"
                );
            }
        }
    }
}

#[test]
fn random_domains_agree_across_shard_layouts() {
    let domain = Domain::square(100.0);
    for seed in [3, 17, 92] {
        let pool = random_pool(seed, 150, 12, &domain);
        let queries = query_points(seed ^ 0xbeef, 12, &domain);
        for config in shard_layouts() {
            assert_equivalent(&pool, 12, &domain, config, &queries);
        }
    }
}

#[test]
fn rectangular_domains_agree() {
    let domain = Domain::new(Location::new(-40.0, 10.0), Location::new(60.0, 35.0));
    let pool = random_pool(7, 120, 6, &domain);
    let queries = query_points(8, 10, &domain);
    for config in [
        ShardGridConfig::new(8, 2),
        ShardGridConfig::new(2, 8).with_time_splits(3),
    ] {
        assert_equivalent(&pool, 6, &domain, config, &queries);
    }
}

#[test]
fn workers_on_tile_boundaries_agree() {
    // Workers placed exactly on every 4x4 tile boundary line of a 100x100
    // domain (x or y multiples of 25), including tile corners, plus queries
    // on the same lines: the router must not lose or double-count them.
    let domain = Domain::square(100.0);
    let mut entries = Vec::new();
    for i in 0..=4 {
        for j in 0..=10 {
            entries.push((0usize, i as f64 * 25.0, j as f64 * 10.0));
            entries.push((0usize, j as f64 * 10.0, i as f64 * 25.0));
        }
    }
    let pool: WorkerPool = entries
        .iter()
        .enumerate()
        .map(|(i, &(slot, x, y))| {
            Worker::new(
                WorkerId(i as u32),
                vec![WorkerSlot {
                    slot,
                    location: Location::new(x, y),
                }],
            )
        })
        .collect();
    let mut queries = vec![
        Location::new(25.0, 25.0),
        Location::new(50.0, 50.0),
        Location::new(75.0, 24.999999999),
        Location::new(25.000000001, 80.0),
    ];
    queries.extend(query_points(11, 8, &domain));
    for config in [
        ShardGridConfig::new(4, 4),
        ShardGridConfig::new(8, 8),
        ShardGridConfig::new(4, 4).with_time_splits(2),
    ] {
        assert_equivalent(&pool, 1, &domain, config, &queries);
    }
}

#[test]
fn empty_shards_and_empty_slots_agree() {
    // Every worker clusters into one corner tile, so almost every shard is
    // empty, and slot 1 has no workers at all.
    let domain = Domain::square(100.0);
    let mut rng = StdRng::seed_from_u64(23);
    let pool: WorkerPool = (0..60)
        .map(|i| {
            Worker::new(
                WorkerId(i as u32),
                vec![WorkerSlot {
                    slot: if i % 3 == 0 { 2 } else { 0 },
                    location: Location::new(rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0)),
                }],
            )
        })
        .collect();
    let queries = query_points(29, 10, &domain);
    for config in shard_layouts() {
        assert_equivalent(&pool, 3, &domain, config, &queries);
    }
    let sharded = ShardedWorkerIndex::build(&pool, 3, &domain, ShardGridConfig::new(10, 10));
    let empty = (0..sharded.num_shards())
        .filter(|&s| sharded.shard_entries(s) == 0)
        .count();
    assert!(
        empty > 90,
        "expected mostly empty shards, got {empty} empty"
    );
}

#[test]
fn dense_tiles_exercise_the_interior_grids() {
    // Many workers packed into few tiles force multi-cell interior grids in
    // every populated (shard, slot) bucket; answers must stay bit-identical
    // to the dense index.  (600 workers over a 2x2 grid gives ~150 workers
    // per tile-slot — far past the handful-per-cell target of `SlotGrid`.)
    let domain = Domain::square(50.0);
    let mut rng = StdRng::seed_from_u64(57);
    let pool: WorkerPool = (0..600)
        .map(|i| {
            // Two dense clusters, both inside single tiles of the 2x2 grid.
            let (cx, cy) = if i % 2 == 0 {
                (10.0, 10.0)
            } else {
                (40.0, 35.0)
            };
            Worker::new(
                WorkerId(i as u32),
                vec![WorkerSlot {
                    slot: (i % 2) as usize,
                    location: Location::new(
                        cx + rng.gen_range(-9.0..9.0),
                        cy + rng.gen_range(-9.0..9.0),
                    ),
                }],
            )
        })
        .collect();
    let queries = query_points(59, 14, &domain);
    for config in [
        ShardGridConfig::new(2, 2),
        ShardGridConfig::new(1, 1),
        ShardGridConfig::new(2, 2).with_time_splits(2),
    ] {
        assert_equivalent(&pool, 2, &domain, config, &queries);
    }
}

#[test]
fn interior_grid_filtered_search_survives_heavy_occupancy() {
    // Exclude large prefixes of a dense tile's workers through the filtered
    // query: the interior grid must keep expanding past excluded cells and
    // agree with the dense index's equivalent set query.
    let domain = Domain::square(40.0);
    let mut rng = StdRng::seed_from_u64(61);
    let pool: WorkerPool = (0..200)
        .map(|i| {
            Worker::new(
                WorkerId(i as u32),
                vec![WorkerSlot {
                    slot: 0,
                    location: Location::new(rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)),
                }],
            )
        })
        .collect();
    let dense = WorkerIndex::build(&pool, 1, &domain);
    let config = ShardGridConfig::new(3, 3);
    let sharded = ShardedWorkerIndex::build(&pool, 1, &domain, config);
    for q in query_points(67, 8, &domain) {
        let order: Vec<_> = dense.k_nearest(0, &q, 200);
        for take in [0, 1, 5, 40, 150, 199, 200] {
            let excluded: BTreeSet<WorkerId> = order[..take].iter().map(|w| w.worker).collect();
            let by_shard: BTreeSet<(usize, WorkerId)> = order[..take]
                .iter()
                .map(|w| (sharded.spatial_shard_of(&w.location), w.worker))
                .collect();
            let via_dense = dense.nearest_excluding_set(0, &q, &excluded);
            let via_filter =
                sharded.nearest_excluding_with(0, &q, |s, w| by_shard.contains(&(s, w)));
            assert_eq!(
                via_dense.map(|w| (w.worker, w.distance.to_bits())),
                via_filter.map(|w| (w.worker, w.distance.to_bits())),
                "excluding the {take} nearest at query {q}"
            );
        }
    }
}

/// Asserts a *mutated* sharded index agrees bit-for-bit with a dense index
/// rebuilt from the mirror pool — the pruning-exactness check after a
/// mutation tape: `tile_min_distance` skips and `unscanned_bound` stops must
/// not lose any relocated (possibly out-of-domain, border-clamped) worker.
fn assert_mutated_exact(
    mutated: &ShardedWorkerIndex,
    mirror: &[Worker],
    num_slots: usize,
    domain: &Domain,
    queries: &[Location],
    ctx: &str,
) {
    let pool = WorkerPool::new(mirror.to_vec());
    let dense = WorkerIndex::build(&pool, num_slots, domain);
    for slot in 0..num_slots {
        assert_eq!(
            SpatialQuery::available_count(mutated, slot),
            dense.available_count(slot),
            "{ctx}: availability at slot {slot}"
        );
        for q in queries {
            for count in [1, 4, 13] {
                assert_eq!(
                    mutated.k_nearest(slot, q, count),
                    dense.k_nearest(slot, q, count),
                    "{ctx}: {count}-nearest at slot {slot}, query {q}"
                );
            }
        }
    }
}

#[test]
fn mutation_tapes_keep_pruning_and_interior_bounds_exact() {
    // Arbitrary move/remove sequences — with moves drifting workers across
    // tiles and beyond the domain edges — must leave every distance bound
    // exact: the mutated index answers like a fresh dense rebuild.
    let domain = Domain::square(80.0);
    for seed in [5u64, 29, 71, 113] {
        for config in [
            ShardGridConfig::new(4, 4),
            ShardGridConfig::new(3, 5).with_time_splits(2),
        ] {
            let pool = random_pool(seed, 80, 6, &domain);
            let mut mirror: Vec<Worker> = pool.workers().to_vec();
            let mut sharded = ShardedWorkerIndex::build(&pool, 6, &domain, config);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7a9e);
            let queries = query_points(seed ^ 0x51, 8, &domain);
            for step in 0..30 {
                if rng.gen_range(0..10) < 7 || mirror.len() < 10 {
                    // Move: up to 35% beyond the domain on either axis.
                    let at = rng.gen_range(0..mirror.len());
                    let to = Location::new(
                        rng.gen_range(domain.min.x - 28.0..domain.max.x + 28.0),
                        rng.gen_range(domain.min.y - 28.0..domain.max.y + 28.0),
                    );
                    let old = &mirror[at];
                    let id = old.id;
                    let slots = old
                        .availability()
                        .iter()
                        .map(|ws| WorkerSlot {
                            slot: ws.slot,
                            location: to,
                        })
                        .collect();
                    mirror[at] = Worker::with_reliability(id, slots, old.reliability);
                    assert!(sharded.move_worker(id, to).applied);
                } else {
                    let at = rng.gen_range(0..mirror.len());
                    let id = mirror.remove(at).id;
                    assert!(sharded.remove_worker(id).applied);
                }
                if step % 10 == 9 {
                    let ctx = format!("seed {seed}, step {step}, {config:?}");
                    assert_mutated_exact(&sharded, &mirror, 6, &domain, &queries, &ctx);
                }
            }
        }
    }
}

#[test]
fn worker_moved_out_of_domain_lands_in_the_rebuild_tile() {
    // The border-clamp invariant regression: a worker moved beyond any
    // domain edge must land in exactly the border tile a from-scratch
    // rebuild places it in — same per-shard entry counts, same answers.
    let domain = Domain::square(40.0);
    let config = ShardGridConfig::new(4, 4);
    let pool: WorkerPool = [(5.0, 5.0), (22.0, 13.0), (35.0, 30.0)]
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| {
            Worker::new(
                WorkerId(i as u32),
                vec![WorkerSlot {
                    slot: 0,
                    location: Location::new(x, y),
                }],
            )
        })
        .collect();
    for target in [
        Location::new(-5.0, -5.0),
        Location::new(45.0, 20.0),
        Location::new(20.0, 47.0),
        Location::new(-3.0, 44.0),
        Location::new(41.0, -2.0),
        Location::new(2000.0, 2000.0),
    ] {
        let mut mutated = ShardedWorkerIndex::build(&pool, 1, &domain, config);
        assert!(mutated.move_worker(WorkerId(0), target).applied);

        let mut mirror: Vec<Worker> = pool.workers().to_vec();
        mirror[0] = Worker::new(
            WorkerId(0),
            vec![WorkerSlot {
                slot: 0,
                location: target,
            }],
        );
        let rebuilt = ShardedWorkerIndex::build(&WorkerPool::new(mirror), 1, &domain, config);

        // Same bucket placement, clamped into a border tile.
        for shard in 0..rebuilt.num_shards() {
            assert_eq!(
                mutated.shard_entries(shard),
                rebuilt.shard_entries(shard),
                "target {target}: shard {shard} entries"
            );
        }
        let (tx, ty) = mutated.tile_of(&target);
        assert!(
            tx == 0 || tx == 3 || ty == 0 || ty == 3,
            "target {target}: expected a border tile, got ({tx}, {ty})"
        );
        // And the clamped worker is still found from everywhere, never
        // pruned by the border-tile distance bounds.
        for q in [
            Location::new(0.0, 0.0),
            Location::new(39.0, 39.0),
            target,
            Location::new(20.0, 0.0),
        ] {
            assert_eq!(
                mutated.k_nearest(0, &q, 3),
                rebuilt.k_nearest(0, &q, 3),
                "target {target}, query {q}"
            );
        }
    }
}

#[test]
fn nearest_excluding_with_matches_the_set_query() {
    // The closure-filtered query (used by the concurrent engine's per-shard
    // ledgers) must agree with the global-set query when the filter encodes
    // the same exclusions, with occupancy routed by the worker's tile.
    let domain = Domain::square(100.0);
    let pool = random_pool(41, 120, 4, &domain);
    let queries = query_points(43, 10, &domain);
    for config in [
        ShardGridConfig::new(4, 4),
        ShardGridConfig::new(6, 2).with_time_splits(2),
    ] {
        let sharded = ShardedWorkerIndex::build(&pool, 4, &domain, config);
        for slot in 0..4 {
            for q in &queries {
                let top: Vec<_> = sharded.k_nearest(slot, q, 3);
                for take in 0..=top.len() {
                    let excluded: BTreeSet<WorkerId> =
                        top[..take].iter().map(|w| w.worker).collect();
                    // Record each excluded worker under its owning tile, as
                    // the sharded ledger would.
                    let by_shard: BTreeSet<(usize, WorkerId)> = top[..take]
                        .iter()
                        .map(|w| (sharded.spatial_shard_of(&w.location), w.worker))
                        .collect();
                    let via_set = sharded.nearest_excluding_set(slot, q, &excluded);
                    let via_filter =
                        sharded.nearest_excluding_with(slot, q, |s, w| by_shard.contains(&(s, w)));
                    assert_eq!(via_set, via_filter, "slot {slot}, query {q}, {config:?}");
                }
            }
        }
    }
}
