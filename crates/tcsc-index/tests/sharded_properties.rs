//! Oracle properties of the worker index: the dense [`WorkerIndex`] and the
//! tile-routed [`ShardedWorkerIndex`] view over it must answer every query
//! like a brute-force scan of the pool — same workers, same order, same
//! `f64` distances — across seeded domains, tile layouts, boundary and
//! out-of-domain workers, duplicate locations, heavy occupancy and
//! non-finite queries.
//!
//! Every index is checked twice: freshly built, and reached by mutation from
//! a different pool through several re-grids.  The mutated grids keep
//! geometries a fresh build would not choose, so these checks also lock in
//! that no answer depends on grid geometry.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcsc_core::{Domain, Location, Worker, WorkerId, WorkerPool, WorkerSet, WorkerSlot};
use tcsc_index::{
    MutableSpatialIndex, NearestWorker, ShardGridConfig, ShardedWorkerIndex, SpatialQuery,
    WorkerIndex,
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

/// One-slot workers at the given points, with ids in point order.
fn point_pool(points: &[(usize, f64, f64)]) -> WorkerPool {
    points
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

/// Tile layouts the views are checked under.
fn layouts() -> [ShardGridConfig; 4] {
    [(1, 1), (2, 2), (5, 3), (16, 16)].map(|(x, y)| ShardGridConfig::new(x, y))
}

/// An index holding `pool`, reached by mutation.  It is built from another
/// pool: a quarter of the workers at swapped coordinates and with reliability
/// 0.5, plus ghosts that copy an eighth of the workers under new ids.  The
/// displaced quarter is moved, then removed.  Every worker of `pool` is then
/// inserted in descending id order, and the ghosts are removed.  Each slot's
/// population doubles and halves along the way.
fn reach_by_mutation<I: MutableSpatialIndex>(
    pool: &WorkerPool,
    build: impl Fn(&WorkerPool) -> I,
) -> I {
    let workers = pool.workers();
    let quarter = &workers[..workers.len() / 4];
    let ghost_base = workers.last().map_or(0, |w| w.id.0 + 1);
    let ghosts: Vec<Worker> = workers[..workers.len() / 8]
        .iter()
        .zip(ghost_base..)
        .map(|(w, id)| Worker::with_reliability(WorkerId(id), w.availability().to_vec(), 1.0))
        .collect();
    let displaced = quarter.iter().map(|w| {
        let swapped = w
            .availability()
            .iter()
            .map(|ws| WorkerSlot {
                slot: ws.slot,
                location: Location::new(ws.location.y, ws.location.x),
            })
            .collect();
        Worker::with_reliability(w.id, swapped, 0.5)
    });
    let mut index = build(&displaced.chain(ghosts.iter().cloned()).collect());
    for w in quarter {
        let to = w
            .availability()
            .first()
            .map_or(Location::new(0.0, 0.0), |ws| ws.location);
        assert!(index.move_worker(w.id, to).applied);
        assert!(index.remove_worker(w.id).applied);
    }
    for w in workers.iter().rev() {
        assert!(index.insert_worker(w).applied);
    }
    for g in &ghosts {
        assert!(index.remove_worker(g.id).applied);
    }
    index
}

/// Bit-exact `(worker, distance bits)` keys of query answers.
fn keys(found: impl IntoIterator<Item = NearestWorker>) -> Vec<(WorkerId, u64)> {
    found
        .into_iter()
        .map(|w| (w.worker, w.distance.to_bits()))
        .collect()
}

/// The oracle: the slot's workers outside `excluded`, ranked by
/// `(distance.total_cmp, worker id)`, as [`keys`].
fn ranked(
    pool: &WorkerPool,
    slot: usize,
    query: &Location,
    excluded: &WorkerSet,
) -> Vec<(WorkerId, u64)> {
    let mut all: Vec<(f64, WorkerId)> = pool
        .available_at(slot)
        .filter(|(w, _)| !excluded.contains(&w.id))
        .map(|(w, loc)| (query.distance(&loc), w.id))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.into_iter().map(|(d, id)| (id, d.to_bits())).collect()
}

/// Asserts `index` answers like the oracle over `pool`: every slot's
/// availability, `nearest`, `k_nearest`, and `nearest_excluding_set` under
/// seeded random occupancy (0–100% of the slot) and under nearest-first
/// occupancy, with absent ids mixed in.  A `view` additionally has its
/// tile-filtered `nearest_excluding_with` checked, each occupied worker filed
/// under the tile it stands in (as the sharded ledger files it).
fn assert_matches_oracle(
    index: &impl SpatialQuery,
    view: Option<&ShardedWorkerIndex>,
    pool: &WorkerPool,
    num_slots: usize,
    queries: &[Location],
    ctx: &str,
) {
    let mut rng = StdRng::seed_from_u64(pool.len() as u64);
    assert_eq!(index.num_slots(), num_slots, "{ctx}");
    assert_eq!(index.total_workers(), pool.len(), "{ctx}");
    for slot in 0..num_slots {
        let ctx = format!("{ctx}, slot {slot}");
        let mut shuffled: Vec<(u64, WorkerId)> = pool
            .available_at(slot)
            .map(|(w, _)| (rng.gen_range(0..u64::MAX), w.id))
            .collect();
        shuffled.sort_unstable();
        let n = shuffled.len();
        assert_eq!(index.available_count(slot), n, "{ctx}");
        for q in queries {
            let ctx = format!("{ctx}, query {q}");
            let all = ranked(pool, slot, q, &WorkerSet::default());
            assert_eq!(keys(index.nearest(slot, q)), all[..n.min(1)], "{ctx}");
            for count in [2, 5, 17] {
                let found = keys(index.k_nearest(slot, q, count));
                assert_eq!(found, all[..n.min(count)], "{ctx}, {count}-nearest");
            }
            let random = [0, 25, 50, 90, 100].map(|p| &shuffled[..n * p / 100]);
            let random = random.iter().map(|s| s.iter().map(|e| e.1).collect());
            let nearest = [1, 5, n / 2, n.saturating_sub(1), n].map(|take| &all[..take.min(n)]);
            let nearest = nearest.iter().map(|s| s.iter().map(|e| e.0).collect());
            for occupied in random.chain(nearest).collect::<Vec<WorkerSet>>() {
                let want = ranked(pool, slot, q, &occupied).first().copied();
                let ctx = format!("{ctx}, {} occupied", occupied.len());
                let mut excluded = occupied.clone();
                excluded.extend([WorkerId(u32::MAX), WorkerId(u32::MAX - 1)]);
                let found = index.nearest_excluding_set(slot, q, &excluded);
                assert_eq!(keys(found).first().copied(), want, "{ctx}: set");
                let Some(view) = view else {
                    continue;
                };
                let by_tile: BTreeSet<(usize, WorkerId)> = pool
                    .available_at(slot)
                    .filter(|(w, _)| occupied.contains(&w.id))
                    .map(|(w, loc)| (view.spatial_shard_of(&loc), w.id))
                    .collect();
                let found = view.nearest_excluding_with(slot, q, |t, w| by_tile.contains(&(t, w)));
                assert_eq!(keys(found).first().copied(), want, "{ctx}: tile filter");
            }
        }
    }
}

/// [`assert_matches_oracle`] on the fresh and the mutated dense index, and
/// on fresh and mutated views under every tile layout.
fn assert_all_match_oracle(
    pool: &WorkerPool,
    num_slots: usize,
    domain: &Domain,
    queries: &[Location],
) {
    let dense = |p: &WorkerPool| WorkerIndex::build(p, num_slots, domain);
    assert_matches_oracle(&dense(pool), None, pool, num_slots, queries, "fresh");
    let mutated = reach_by_mutation(pool, dense);
    assert_matches_oracle(&mutated, None, pool, num_slots, queries, "mutated");
    for config in layouts() {
        let view = |p: &WorkerPool| ShardedWorkerIndex::build(p, num_slots, domain, config);
        for (index, how) in [
            (view(pool), "fresh"),
            (reach_by_mutation(pool, view), "mutated"),
        ] {
            let ctx = format!("{how} view, {config:?}");
            assert_matches_oracle(&index, Some(&index), pool, num_slots, queries, &ctx);
        }
    }
}

#[test]
fn random_domains_agree_across_shard_layouts() {
    let domain = Domain::square(100.0);
    for seed in [3, 17, 92] {
        let pool = random_pool(seed, 150, 12, &domain);
        let queries = query_points(seed ^ 0xbeef, 12, &domain);
        assert_all_match_oracle(&pool, 12, &domain, &queries);
    }
}

#[test]
fn rectangular_domains_agree() {
    // The grid's square cells span the longer side; the short side clamps.
    let domain = Domain::new(Location::new(-40.0, 10.0), Location::new(60.0, 35.0));
    let pool = random_pool(7, 120, 6, &domain);
    let mut queries = query_points(8, 10, &domain);
    queries.extend(outside_queries(&domain));
    assert_all_match_oracle(&pool, 6, &domain, &queries);
}

#[test]
fn workers_on_tile_boundaries_agree() {
    // Workers placed exactly on every 4x4 tile boundary line of a 100x100
    // domain (x or y multiples of 25), including tile corners, plus queries
    // on the same lines: no search may lose or double-count them.
    let domain = Domain::square(100.0);
    let mut entries = Vec::new();
    for i in 0..=4 {
        for j in 0..=10 {
            entries.push((0usize, i as f64 * 25.0, j as f64 * 10.0));
            entries.push((0usize, j as f64 * 10.0, i as f64 * 25.0));
        }
    }
    let pool = point_pool(&entries);
    let mut queries = vec![
        Location::new(25.0, 25.0),
        Location::new(50.0, 50.0),
        Location::new(75.0, 24.999999999),
        Location::new(25.000000001, 80.0),
    ];
    queries.extend(query_points(11, 8, &domain));
    assert_all_match_oracle(&pool, 1, &domain, &queries);
}

#[test]
fn empty_shards_and_empty_slots_agree() {
    // Every worker clusters into one corner tile, so almost every tile and
    // grid cell is empty, and slot 1 has no workers at all.
    let domain = Domain::square(100.0);
    let mut rng = StdRng::seed_from_u64(23);
    let points: Vec<(usize, f64, f64)> = (0..60)
        .map(|i| {
            let slot = if i % 3 == 0 { 2 } else { 0 };
            (slot, rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0))
        })
        .collect();
    let queries = query_points(29, 10, &domain);
    assert_all_match_oracle(&point_pool(&points), 3, &domain, &queries);
}

#[test]
fn dense_tiles_exercise_the_interior_grids() {
    // Two dense clusters of 300 workers each, one per slot, put far more
    // workers in a few cells than the two-per-cell target of the grid.
    let domain = Domain::square(50.0);
    let mut rng = StdRng::seed_from_u64(57);
    let points: Vec<(usize, f64, f64)> = (0..600)
        .map(|i| {
            let (cx, cy) = if i % 2 == 0 {
                (10.0, 10.0)
            } else {
                (40.0, 35.0)
            };
            let (dx, dy) = (rng.gen_range(-9.0..9.0), rng.gen_range(-9.0..9.0));
            (i % 2, cx + dx, cy + dy)
        })
        .collect();
    let queries = query_points(59, 14, &domain);
    assert_all_match_oracle(&point_pool(&points), 2, &domain, &queries);
}

#[test]
fn interior_grid_filtered_search_survives_heavy_occupancy() {
    // The oracle check excludes nearest-first prefixes up to the whole slot,
    // so the filtered search must keep expanding past fully occupied cells.
    let domain = Domain::square(40.0);
    let mut rng = StdRng::seed_from_u64(61);
    let points: Vec<(usize, f64, f64)> = (0..200)
        .map(|_| (0, rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)))
        .collect();
    let queries = query_points(67, 8, &domain);
    assert_all_match_oracle(&point_pool(&points), 1, &domain, &queries);
}

#[test]
fn mutation_tapes_keep_pruning_bounds_exact() {
    // Arbitrary move/remove sequences — with moves drifting workers beyond
    // the domain edges, where the grid clamps them into border cells — must
    // keep every distance bound exact: the mutated index answers like the
    // oracle over the mirror pool.
    let domain = Domain::square(80.0);
    let config = ShardGridConfig::new(4, 4);
    for seed in [5u64, 29, 71, 113] {
        let pool = random_pool(seed, 80, 6, &domain);
        let mut mirror: Vec<Worker> = pool.workers().to_vec();
        let mut view = ShardedWorkerIndex::build(&pool, 6, &domain, config);
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
                assert!(view.move_worker(id, to).applied);
            } else {
                let at = rng.gen_range(0..mirror.len());
                let id = mirror.remove(at).id;
                assert!(view.remove_worker(id).applied);
            }
            if step % 10 == 9 {
                let ctx = format!("seed {seed}, step {step}");
                let pool = WorkerPool::new(mirror.clone());
                assert_matches_oracle(&view, Some(&view), &pool, 6, &queries, &ctx);
            }
        }
    }
}

#[test]
fn worker_moved_out_of_domain_lands_in_the_rebuild_tile() {
    // The border-clamp invariant: a worker moved beyond any domain edge is
    // routed to a border tile, so the tile filter finds its occupancy where
    // the ledger files it, and every query still finds the worker.
    let domain = Domain::square(40.0);
    let config = ShardGridConfig::new(4, 4);
    let pool = point_pool(&[(0, 5.0, 5.0), (0, 22.0, 13.0), (0, 35.0, 30.0)]);
    for target in [
        Location::new(-5.0, -5.0),
        Location::new(45.0, 20.0),
        Location::new(20.0, 47.0),
        Location::new(-3.0, 44.0),
        Location::new(41.0, -2.0),
        Location::new(2000.0, 2000.0),
    ] {
        let mut view = ShardedWorkerIndex::build(&pool, 1, &domain, config);
        assert!(view.move_worker(WorkerId(0), target).applied);
        let (tx, ty) = view.tile_of(&target);
        assert!(
            tx == 0 || tx == 3 || ty == 0 || ty == 3,
            "target {target}: expected a border tile, got ({tx}, {ty})"
        );
        let mut mirror: Vec<Worker> = pool.workers().to_vec();
        mirror[0] = point_pool(&[(0, target.x, target.y)]).workers()[0].clone();
        let queries = [
            Location::new(0.0, 0.0),
            Location::new(39.0, 39.0),
            target,
            Location::new(20.0, 0.0),
        ];
        let ctx = format!("target {target}");
        assert_matches_oracle(
            &view,
            Some(&view),
            &mirror.into_iter().collect(),
            1,
            &queries,
            &ctx,
        );
    }
}

#[test]
fn filtered_queries_match_the_brute_force_oracle() {
    let domain = Domain::square(100.0);
    let pool = random_pool(73, 240, 4, &domain);
    let mut queries = query_points(79, 10, &domain);
    queries.extend(outside_queries(&domain));
    assert_all_match_oracle(&pool, 4, &domain, &queries);
}

#[test]
fn filtered_queries_resolve_duplicate_and_cell_edge_ties_by_id() {
    // 128 workers on the 8x8 lattice of multiples of 12.5 — exactly the
    // cell edges of the 8x8 slot grid a 128-worker slot builds over this
    // domain, and tile edges of the 2x2 and 16x16 layouts — each lattice
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
    assert_all_match_oracle(&pool, 2, &domain, &queries);
}

#[test]
fn non_finite_queries_agree_with_brute_force() {
    // Every distance from a NaN query is NaN and every distance from an
    // infinite one is +inf, so all workers tie and the lowest free id must
    // win on every path.  A plain `<` comparison never prefers a later NaN,
    // so it would keep whichever worker a scan meets first.
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
    assert_all_match_oracle(&pool, 1, &domain, &queries);
}

#[test]
fn nearest_excluding_with_matches_the_set_query() {
    // The tile-filtered query of the sharded engine agrees with the set
    // query when each excluded worker is filed under its own tile, and an
    // exclusion filed under any other tile hides nothing.
    let domain = Domain::square(100.0);
    let pool = random_pool(41, 120, 4, &domain);
    let queries = query_points(43, 10, &domain);
    for config in [ShardGridConfig::new(4, 4), ShardGridConfig::new(6, 2)] {
        let build = |p: &WorkerPool| ShardedWorkerIndex::build(p, 4, &domain, config);
        for view in [build(&pool), reach_by_mutation(&pool, build)] {
            for slot in 0..4 {
                for q in &queries {
                    let top = view.k_nearest(slot, q, 3);
                    for take in 0..=top.len() {
                        let excluded: WorkerSet = top[..take].iter().map(|w| w.worker).collect();
                        let tile_of = |w: &NearestWorker| view.spatial_shard_of(&w.location);
                        let filed: BTreeSet<(usize, WorkerId)> =
                            top[..take].iter().map(|w| (tile_of(w), w.worker)).collect();
                        let ctx = format!("slot {slot}, query {q}, {config:?}");
                        assert_eq!(
                            view.nearest_excluding_set(slot, q, &excluded),
                            view.nearest_excluding_with(slot, q, |t, w| filed.contains(&(t, w))),
                            "{ctx}"
                        );
                        let misfiled = |t: usize, w: WorkerId| {
                            top[..take].iter().any(|n| n.worker == w && tile_of(n) != t)
                        };
                        assert_eq!(
                            view.nearest(slot, q),
                            view.nearest_excluding_with(slot, q, misfiled),
                            "{ctx}"
                        );
                    }
                }
            }
        }
    }
}
