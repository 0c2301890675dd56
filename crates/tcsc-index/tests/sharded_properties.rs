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
fn mutation_tapes_keep_pruning_bounds_exact() {
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

/// The filtered-query oracle, independent of both indexes: the minimum of
/// `(distance.total_cmp, worker id)` over the slot's workers outside
/// `excluded`, as `(worker, distance bits)`.
fn brute_force_excluding(
    pool: &WorkerPool,
    slot: usize,
    query: &Location,
    excluded: &BTreeSet<WorkerId>,
) -> Option<(WorkerId, u64)> {
    pool.available_at(slot)
        .filter(|(w, _)| !excluded.contains(&w.id))
        .map(|(w, loc)| (query.distance(&loc), w.id))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .map(|(d, id)| (id, d.to_bits()))
}

fn answer(found: Option<tcsc_index::NearestWorker>) -> Option<(WorkerId, u64)> {
    found.map(|w| (w.worker, w.distance.to_bits()))
}

/// Asserts every single-best query of both indexes — dense `nearest` and
/// `nearest_excluding_set`, sharded `nearest`, `nearest_excluding_set` and
/// the tile-routed `nearest_excluding_with` — matches the brute-force oracle
/// when a seeded random 0 / 25 / 50 / 90 / 100% of each slot's workers is
/// occupied, plus ids absent from the slot.
fn assert_filtered_match_oracle(
    pool: &WorkerPool,
    num_slots: usize,
    domain: &Domain,
    configs: &[ShardGridConfig],
    queries: &[Location],
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dense = WorkerIndex::build(pool, num_slots, domain);
    let sharded: Vec<_> = configs
        .iter()
        .map(|&config| ShardedWorkerIndex::build(pool, num_slots, domain, config))
        .collect();
    for slot in 0..num_slots {
        // A seeded permutation of the slot's workers; each occupancy level
        // excludes a prefix of it.
        let mut order: Vec<(u64, WorkerId, Location)> = pool
            .available_at(slot)
            .map(|(w, loc)| (rng.gen_range(0..u64::MAX), w.id, loc))
            .collect();
        order.sort_by_key(|e| e.0);
        for q in queries {
            let oracle = brute_force_excluding(pool, slot, q, &BTreeSet::new());
            assert_eq!(answer(dense.nearest(slot, q)), oracle, "dense nearest");
            for (index, config) in sharded.iter().zip(configs) {
                assert_eq!(
                    answer(index.nearest(slot, q)),
                    oracle,
                    "sharded nearest at slot {slot}, query {q}, {config:?}"
                );
            }
            for percent in [0, 25, 50, 90, 100] {
                let occupied = &order[..order.len() * percent / 100];
                let mut excluded: BTreeSet<WorkerId> = occupied.iter().map(|e| e.1).collect();
                excluded.extend([WorkerId(u32::MAX), WorkerId(pool.len() as u32)]);
                let ctx = format!("slot {slot}, query {q}, {percent}% occupied");
                let oracle = brute_force_excluding(pool, slot, q, &excluded);
                assert_eq!(
                    answer(dense.nearest_excluding_set(slot, q, &excluded)),
                    oracle,
                    "dense: {ctx}"
                );
                for (index, config) in sharded.iter().zip(configs) {
                    assert_eq!(
                        answer(index.nearest_excluding_set(slot, q, &excluded)),
                        oracle,
                        "sharded set: {ctx}, {config:?}"
                    );
                    // Occupancy recorded under each worker's own tile, as
                    // the concurrent engine's per-shard ledgers hold it.
                    let by_shard: BTreeSet<(usize, WorkerId)> = occupied
                        .iter()
                        .map(|e| (index.spatial_shard_of(&e.2), e.1))
                        .collect();
                    assert_eq!(
                        answer(index.nearest_excluding_with(slot, q, |s, w| {
                            by_shard.contains(&(s, w))
                        })),
                        oracle,
                        "sharded filter: {ctx}, {config:?}"
                    );
                }
            }
        }
    }
}

/// Queries outside the domain on every side, including far away.
fn outside_queries(domain: &Domain) -> Vec<Location> {
    let (w, h) = (domain.width(), domain.height());
    vec![
        Location::new(domain.min.x - 0.3 * w, domain.center().y),
        Location::new(domain.max.x + 0.1 * w, domain.max.y + 0.2 * h),
        Location::new(domain.center().x, domain.min.y - 10.0 * h),
        Location::new(domain.max.x + 1e6, domain.min.y - 1e6),
    ]
}

#[test]
fn filtered_queries_match_the_brute_force_oracle() {
    let domain = Domain::square(100.0);
    let pool = random_pool(73, 240, 4, &domain);
    let mut queries = query_points(79, 10, &domain);
    queries.extend(outside_queries(&domain));
    assert_filtered_match_oracle(&pool, 4, &domain, &shard_layouts(), &queries, 83);
}

#[test]
fn filtered_queries_resolve_duplicate_and_cell_edge_ties_by_id() {
    // 128 workers on the 8x8 lattice of multiples of 12.5 — exactly the
    // cell edges of the 8x8 slot grid a 128-worker slot builds over this
    // domain, and tile edges of the 2x2, 4x4 and 16x16 layouts — each lattice
    // point held by two workers (ids `i` and `i + 64`).  Lattice and
    // half-lattice queries put many workers at equal distance, so every
    // answer is decided by the id tie-break across cell and tile borders.
    // Ids fall as x grows, so a worker on the (exclusive) right edge of the
    // query's cell beats its equidistant rival inside the cell: queries on
    // the bottom border at half-lattice x, e.g. (43.75, 0), are answered
    // correctly only if the search scans the next ring at an exact tie
    // with the stop bound.  Slot 1 holds every third worker, giving a
    // coarser grid geometry.
    let domain = Domain::square(100.0);
    let pool: WorkerPool = (0..128u32)
        .map(|i| {
            let p = i % 64;
            let location = Location::new((7 - p % 8) as f64 * 12.5, (p / 8) as f64 * 12.5);
            let mut slots = vec![WorkerSlot { slot: 0, location }];
            if i % 3 == 0 {
                slots.push(WorkerSlot { slot: 1, location });
            }
            Worker::new(WorkerId(i), slots)
        })
        .collect();
    let mut queries = vec![
        Location::new(25.0, 25.0),
        Location::new(37.5, 12.5),
        Location::new(43.75, 43.75),
        Location::new(43.75, 0.0),
        Location::new(6.25, 0.0),
        Location::new(50.0, 6.25),
        Location::new(0.0, 0.0),
        Location::new(87.5, 87.5),
        Location::new(100.0, 100.0),
        Location::new(-12.5, 50.0),
    ];
    queries.extend(outside_queries(&domain));
    assert_filtered_match_oracle(&pool, 2, &domain, &shard_layouts(), &queries, 89);
}

#[test]
fn non_finite_queries_agree_with_brute_force() {
    // Every distance from a NaN query is NaN and every distance from an
    // infinite one is +inf, so all workers tie and the lowest free id must
    // win on every path.  A plain `<` comparison never prefers a later NaN,
    // so it would keep whichever worker each index's scan order meets first.
    let domain = Domain::square(100.0);
    let pool = random_pool(97, 50, 1, &domain);
    let queries = [
        Location::new(f64::NAN, f64::NAN),
        Location::new(f64::NAN, 40.0),
        Location::new(40.0, f64::NAN),
        Location::new(f64::INFINITY, 40.0),
        Location::new(f64::NEG_INFINITY, 40.0),
        Location::new(40.0, f64::INFINITY),
        Location::new(f64::INFINITY, f64::NEG_INFINITY),
        Location::new(f64::NAN, f64::INFINITY),
    ];
    let dense = WorkerIndex::build(&pool, 1, &domain);
    let sharded = ShardedWorkerIndex::build(&pool, 1, &domain, ShardGridConfig::new(4, 4));
    let tile_of: Vec<usize> = pool
        .available_at(0)
        .map(|(_, loc)| sharded.spatial_shard_of(&loc))
        .collect();
    for q in &queries {
        for excluded in [vec![], vec![0u32, 1], vec![0, 2, 3, 7]] {
            let set: BTreeSet<WorkerId> = excluded.iter().copied().map(WorkerId).collect();
            let oracle = brute_force_excluding(&pool, 0, q, &set);
            let ctx = format!("query {q}, excluding {excluded:?}");
            if excluded.is_empty() {
                assert_eq!(answer(dense.nearest(0, q)), oracle, "dense nearest: {ctx}");
                assert_eq!(
                    answer(sharded.nearest(0, q)),
                    oracle,
                    "sharded nearest: {ctx}"
                );
            }
            assert_eq!(
                answer(dense.nearest_excluding_set(0, q, &set)),
                oracle,
                "dense set: {ctx}"
            );
            assert_eq!(
                answer(sharded.nearest_excluding_set(0, q, &set)),
                oracle,
                "sharded set: {ctx}"
            );
            assert_eq!(
                answer(sharded.nearest_excluding_with(0, q, |s, w| {
                    set.contains(&w) && tile_of[w.0 as usize] == s
                })),
                oracle,
                "sharded filter: {ctx}"
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
