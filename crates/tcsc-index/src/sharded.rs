//! Sharded spatial index: the domain partitioned into a grid of spatial
//! tiles (optionally crossed with a time-range split), each shard owning its
//! own dense per-slot worker buckets — each bucket itself a tile-interior
//! `SlotGrid` (the same grid the dense index uses per slot), so single-tile
//! scans prune at cell level instead of walking a flat vector.
//!
//! The dense [`crate::WorkerIndex`] is one grid over the whole domain, so every
//! parallel framework funnels its queries (and, in the assignment layer, its
//! occupancy bookkeeping) through one shared structure.
//! [`ShardedWorkerIndex`] splits that structure along the tiles of a
//! [`TileRouter`]: it answers [`SpatialQuery`] queries by probing the query
//! point's tile and expanding to neighbour rings **only while a closer worker
//! could still exist across a tile boundary**, so shards stay independently
//! owned.  A worker mutation splices one tile's bucket, and the sharded
//! engine's per-shard ledgers key occupancy by the same tile id (see
//! `tcsc-assign::engine::concurrent`).
//!
//! # Neighbour-ring expansion bound
//!
//! Rings are sets of tiles at the same Chebyshev distance from the query's
//! tile.  After scanning rings `0..=r`, the unscanned tiles all lie outside
//! the scanned tile rectangle, so any worker they hold is at least as far
//! from the query point as the nearest edge of that rectangle (sides where
//! the rectangle already touches the grid border cannot hide tiles and are
//! ignored).  A search therefore expands to the next ring only while its
//! current answer is not strictly closer than the rectangle edge — i.e.
//! only while a closer worker could still exist across a tile boundary.
//!
//! # Bit-identical answers
//!
//! Every query resolves distance ties by ascending worker id.  The dense
//! index does the same (its per-slot candidate lists are stored in worker-id
//! order and sorted by `(distance, position)`), so the two indexes return
//! identical results — same workers, same order, same `f64` distances — on
//! every query.  `tests/sharded_properties.rs` locks this in across seeded
//! domains, tile-boundary workers and empty shards.

use std::cell::RefCell;
use std::collections::BTreeSet;

use tcsc_core::{Domain, Location, SlotIndex, Worker, WorkerId, WorkerPool};

use crate::spatial::{
    imbalance_milli, precedes, IndexMutation, IndexedWorker, MutableSpatialIndex, NearestWorker,
    SlotGrid, SpatialQuery, WorkerProfile, WorkerRegistry,
};
use crate::tiles::{ShardGridConfig, TileRouter};

thread_local! {
    /// Per-thread scratch of the sharded k-NN path, reused across queries:
    /// the cross-tile merge list and the tile-interior working buffer.
    /// `BENCH_fig9.json` showed the per-call allocations (one `Vec` per tile
    /// per ring, plus the merge vector) making the sharded query slower than
    /// the dense one at small scales; reusing the buffers removes every
    /// transient allocation except the exactly-sized result.
    static KNN_SCRATCH: RefCell<KnnScratch> = RefCell::new(KnnScratch::default());
}

/// The reusable buffers of one thread's k-NN queries.
#[derive(Default)]
struct KnnScratch {
    /// Cross-tile candidate merge list (`found` of the ring expansion).
    merged: Vec<NearestWorker>,
    /// Tile-interior `(distance, index)` working buffer.
    tile: Vec<(f64, u32)>,
    /// Ring tiles ordered by ascending rectangle distance (the mid-ring
    /// early-stop order): `(min distance, tx, ty)`.
    ring: Vec<(f64, u32, u32)>,
}

/// One shard: the per-slot worker buckets of a single (tile, time-range)
/// cell.  Each bucket is a dense [`SlotGrid`] over the tile's rectangle, so
/// scanning a tile prunes at cell level instead of walking a flat vector;
/// grids store workers in worker-id order (the pool iteration order), which
/// is what makes tie-breaking identical to the dense index.
#[derive(Debug, Clone, Default)]
struct Shard {
    /// `slots[local_slot]` holds the tile-interior grid over the workers of
    /// this tile available during `range_start + local_slot`.
    slots: Vec<Option<SlotGrid>>,
    /// Total number of indexed (worker, slot) entries.
    entries: usize,
}

/// Sharded per-slot spatial index over a worker pool: a grid of spatial-tile
/// shards behind a ring-expanding router.  Answers the same [`SpatialQuery`]
/// queries as the dense [`crate::WorkerIndex`], bit-identically.
#[derive(Debug, Clone)]
pub struct ShardedWorkerIndex {
    shards: Vec<Shard>,
    /// The tile layout and the location → tile routing rule.
    router: TileRouter,
    /// Slots per time range (`ceil(num_slots / time_splits)`).
    slots_per_split: usize,
    num_slots: usize,
    /// Per-slot availability counts (across all shards).
    available: Vec<usize>,
    /// Who is indexed where: the lookup that makes remove/move tile-local.
    registry: WorkerRegistry,
    /// Total indexed `(worker, slot)` entries.
    indexed_entries: usize,
}

impl ShardedWorkerIndex {
    /// Builds the sharded index for the given pool over `num_slots` time
    /// slots within `domain`, using the given shard-grid layout.
    pub fn build(
        pool: &WorkerPool,
        num_slots: usize,
        domain: &Domain,
        config: ShardGridConfig,
    ) -> Self {
        let router = TileRouter::new(domain, config);
        let config = router.grid;
        let slots_per_split = num_slots.div_ceil(config.time_splits).max(1);
        let num_shards = config.num_tiles() * config.time_splits;
        let mut buckets: Vec<Vec<Vec<IndexedWorker>>> = vec![Vec::new(); num_shards];
        let mut available = vec![0usize; num_slots];
        let mut index = Self {
            shards: Vec::new(),
            router,
            slots_per_split,
            num_slots,
            available: Vec::new(),
            registry: WorkerRegistry::from_pool(pool, num_slots),
            indexed_entries: 0,
        };
        // Pool iteration is worker-id ascending, so every per-slot bucket
        // ends up in id order — the tie-break order of the dense index.
        for worker in pool.workers() {
            for ws in worker.availability() {
                if ws.slot >= num_slots {
                    continue;
                }
                let shard_id = index.shard_of(ws.slot, &ws.location);
                let bucket = &mut buckets[shard_id];
                let range_start = (ws.slot / slots_per_split) * slots_per_split;
                let local = ws.slot - range_start;
                if bucket.len() <= local {
                    bucket.resize(local + 1, Vec::new());
                }
                bucket[local].push(IndexedWorker {
                    worker: worker.id,
                    location: ws.location,
                    reliability: worker.reliability,
                });
                available[ws.slot] += 1;
            }
        }
        // Turn every non-empty bucket into a dense grid over its tile's
        // rectangle, so single-tile scans recover cell-level pruning.  (Out-of
        // -domain workers clamp into border tiles; `SlotGrid` clamps their
        // cell coordinates the same way, so they are searchable regardless.)
        index.shards = buckets
            .into_iter()
            .enumerate()
            .map(|(shard_id, bucket)| {
                let tile = shard_id % index.router.grid.num_tiles();
                let tile_domain = index.tile_domain(tile);
                let entries = bucket.iter().map(Vec::len).sum();
                Shard {
                    slots: bucket
                        .into_iter()
                        .map(|workers| {
                            (!workers.is_empty()).then(|| SlotGrid::build(workers, &tile_domain))
                        })
                        .collect(),
                    entries,
                }
            })
            .collect();
        index.indexed_entries = index.shards.iter().map(|s| s.entries).sum();
        index.available = available;
        index
    }

    /// The rectangle of one spatial tile (by tile id within the grid).
    fn tile_domain(&self, tile: usize) -> Domain {
        let tx = tile % self.router.grid.tiles_x;
        let ty = tile / self.router.grid.tiles_x;
        let min = Location::new(
            self.router.origin.x + tx as f64 * self.router.tile_w,
            self.router.origin.y + ty as f64 * self.router.tile_h,
        );
        Domain::new(
            min,
            Location::new(min.x + self.router.tile_w, min.y + self.router.tile_h),
        )
    }

    /// The shard layout.
    pub fn config(&self) -> &ShardGridConfig {
        &self.router.grid
    }

    /// Total number of shards (`tiles_x * tiles_y * time_splits`).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of spatial shards (tiles), ignoring the time split.
    pub fn num_spatial_shards(&self) -> usize {
        self.router.grid.num_tiles()
    }

    /// The tile coordinates of a location, by [`TileRouter::tile_of`].  The
    /// build and every [`MutableSpatialIndex`] op place workers through it,
    /// so a worker moved out of the domain lands in the border tile a rebuild
    /// would place it in (locked in `tests/sharded_properties.rs`), and the
    /// ring search never bounds border tiles on their grid-edge sides.
    pub fn tile_of(&self, loc: &Location) -> (usize, usize) {
        self.router.tile_of(loc)
    }

    /// The spatial shard (tile) id owning a location, by
    /// [`TileRouter::tile_id`].
    pub fn spatial_shard_of(&self, loc: &Location) -> usize {
        self.router.tile_id(loc)
    }

    /// The shard id owning `(slot, location)`.
    pub fn shard_of(&self, slot: SlotIndex, loc: &Location) -> usize {
        let time_range = slot / self.slots_per_split;
        time_range * self.router.grid.num_tiles() + self.spatial_shard_of(loc)
    }

    /// Number of indexed (worker, slot) entries a shard owns (zero for empty
    /// shards).
    pub fn shard_entries(&self, shard: usize) -> usize {
        self.shards.get(shard).map_or(0, |s| s.entries)
    }

    /// The tile-interior grid over the workers of one tile available during
    /// `slot` (`None` when the bucket is empty).
    fn bucket(&self, slot: SlotIndex, tx: usize, ty: usize) -> Option<&SlotGrid> {
        let time_range = slot / self.slots_per_split;
        let shard = &self.shards
            [time_range * self.router.grid.num_tiles() + ty * self.router.grid.tiles_x + tx];
        let local = slot - time_range * self.slots_per_split;
        shard.slots.get(local).and_then(Option::as_ref)
    }

    /// Splices the bucket owning `(slot, loc)` — routed through the same
    /// [`ShardedWorkerIndex::tile_of`] border clamp as
    /// [`ShardedWorkerIndex::build`] — and rebuilds its tile-interior grid
    /// from the edited, id-ordered worker list: the tile-local unit of
    /// mutation, `O(bucket)` instead of `O(workers)`.  Rebuilding the bucket
    /// grid whole (rather than editing cells in place) is what keeps the
    /// mutated index bit-identical to a fresh build: grid geometry depends on
    /// the bucket's worker count.  Returns the bucket length after the edit.
    fn splice_bucket(
        &mut self,
        slot: SlotIndex,
        loc: &Location,
        edit: impl FnOnce(&mut Vec<IndexedWorker>),
    ) -> usize {
        let shard_id = self.shard_of(slot, loc);
        let tile = shard_id % self.router.grid.num_tiles();
        let tile_domain = self.tile_domain(tile);
        let range_start = (slot / self.slots_per_split) * self.slots_per_split;
        let local = slot - range_start;
        let (before, after) = {
            let shard = &mut self.shards[shard_id];
            if shard.slots.len() <= local {
                shard.slots.resize_with(local + 1, || None);
            }
            let mut workers = shard.slots[local]
                .take()
                .map(|mut grid| grid.take_workers())
                .unwrap_or_default();
            let before = workers.len();
            edit(&mut workers);
            let after = workers.len();
            shard.entries = shard.entries + after - before;
            shard.slots[local] =
                (!workers.is_empty()).then(|| SlotGrid::build(workers, &tile_domain));
            (before, after)
        };
        self.available[slot] = self.available[slot] + after - before;
        self.indexed_entries = self.indexed_entries + after - before;
        after
    }

    /// Lower bound on the distance from `query` to any worker in a tile NOT
    /// yet scanned after rings `0..=ring` around `(qx, qy)`: the distance
    /// from the query point to the edge of the scanned tile rectangle.
    /// Sides where the rectangle already covers the whole grid cannot hide
    /// unscanned tiles and contribute nothing (`INFINITY`).
    ///
    /// A search may stop once its current answer is strictly below this
    /// bound; at exact equality one more ring is scanned so that a worker
    /// sitting precisely on the rectangle edge can still win a tie on
    /// worker id.
    fn unscanned_bound(&self, query: &Location, qx: usize, qy: usize, ring: usize) -> f64 {
        let mut bound = f64::INFINITY;
        if qx > ring {
            bound = bound
                .min(query.x - (self.router.origin.x + (qx - ring) as f64 * self.router.tile_w));
        }
        if qx + ring + 1 < self.router.grid.tiles_x {
            bound = bound
                .min(self.router.origin.x + (qx + ring + 1) as f64 * self.router.tile_w - query.x);
        }
        if qy > ring {
            bound = bound
                .min(query.y - (self.router.origin.y + (qy - ring) as f64 * self.router.tile_h));
        }
        if qy + ring + 1 < self.router.grid.tiles_y {
            bound = bound
                .min(self.router.origin.y + (qy + ring + 1) as f64 * self.router.tile_h - query.y);
        }
        bound
    }

    /// Lower bound on the Euclidean distance from `query` to any worker a
    /// tile can hold.  Border tiles are unbounded on their grid-edge sides:
    /// out-of-domain workers clamp into them ([`ShardedWorkerIndex::tile_of`])
    /// while lying *outside* the tile's rectangle, so only interior tile
    /// boundaries may contribute to the bound.  The result is additionally
    /// relaxed by a tiny factor so that a worker placed within float-rounding
    /// distance of a tile boundary (whose `tile_of` division may round it
    /// across) can never be excluded by ULP noise — the skip comparison is
    /// strict, so an exact k-th-distance tie candidate is always scanned.
    fn tile_min_distance(&self, query: &Location, tx: usize, ty: usize) -> f64 {
        let mut dx = 0.0f64;
        if tx > 0 {
            dx = dx.max(self.router.origin.x + tx as f64 * self.router.tile_w - query.x);
        }
        if tx + 1 < self.router.grid.tiles_x {
            dx = dx.max(query.x - (self.router.origin.x + (tx + 1) as f64 * self.router.tile_w));
        }
        let mut dy = 0.0f64;
        if ty > 0 {
            dy = dy.max(self.router.origin.y + ty as f64 * self.router.tile_h - query.y);
        }
        if ty + 1 < self.router.grid.tiles_y {
            dy = dy.max(query.y - (self.router.origin.y + (ty + 1) as f64 * self.router.tile_h));
        }
        (dx * dx + dy * dy).sqrt() * (1.0 - 1e-9)
    }

    /// Visits the tiles whose exact Chebyshev distance from `(qx, qy)` equals
    /// `ring`, so every tile is visited exactly once across all rings (no
    /// border re-visits, no duplicate candidates to trip the stop bound).
    fn for_ring_tiles(
        &self,
        qx: usize,
        qy: usize,
        ring: usize,
        mut visit: impl FnMut(usize, usize),
    ) {
        let x_lo = qx.saturating_sub(ring);
        let x_hi = (qx + ring).min(self.router.grid.tiles_x - 1);
        let y_lo = qy.saturating_sub(ring);
        let y_hi = (qy + ring).min(self.router.grid.tiles_y - 1);
        for ty in y_lo..=y_hi {
            for tx in x_lo..=x_hi {
                if tx.abs_diff(qx).max(ty.abs_diff(qy)) != ring {
                    continue;
                }
                visit(tx, ty);
            }
        }
    }

    /// Fills `out` with one ring's tiles ordered by ascending
    /// [`ShardedWorkerIndex::tile_min_distance`] (ties in the row-major visit
    /// order, `(ty, tx)`): the mid-ring early-stop order.  Once the running
    /// bound undercuts a tile's rectangle distance, every later tile of the
    /// ring is at least as far, so the ring scan can stop mid-ring instead of
    /// testing each remaining tile individually — the skip *predicate* is
    /// unchanged, so the set of scanned tiles (and hence every answer) stays
    /// bit-identical.
    fn sorted_ring_tiles(
        &self,
        query: &Location,
        qx: usize,
        qy: usize,
        ring: usize,
        out: &mut Vec<(f64, u32, u32)>,
    ) {
        out.clear();
        self.for_ring_tiles(qx, qy, ring, |tx, ty| {
            out.push((self.tile_min_distance(query, tx, ty), tx as u32, ty as u32));
        });
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)).then(a.1.cmp(&b.1)));
    }

    /// The `count` nearest available workers to `query` during `slot`, sorted
    /// by `(distance, worker id)` — bit-identical to the dense index.
    pub fn k_nearest(&self, slot: SlotIndex, query: &Location, count: usize) -> Vec<NearestWorker> {
        if slot >= self.num_slots || count == 0 || self.available[slot] == 0 {
            return Vec::new();
        }
        let (qx, qy) = self.tile_of(query);
        // The ring frontier's merge list and the per-tile top-k buffer are
        // per-thread scratch (see `KNN_SCRATCH`); only the final, exactly
        // sized result is allocated.
        KNN_SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            let found = &mut scratch.merged;
            let tile_buf = &mut scratch.tile;
            let ring_buf = &mut scratch.ring;
            found.clear();
            let max_ring = self.router.grid.tiles_x.max(self.router.grid.tiles_y);
            // The count-th best distance seen so far (from the previous
            // ring's sort): a tile whose rectangle lies strictly beyond it
            // cannot contribute to the top-`count` and is skipped whole.
            let mut kth = f64::INFINITY;
            for ring in 0..=max_ring {
                // Ascending-rectangle-distance visit: the first tile beyond
                // the k-th bound ends the whole ring (same skip predicate as
                // testing each tile, so the scanned set is unchanged).
                self.sorted_ring_tiles(query, qx, qy, ring, ring_buf);
                for &(min_dist, tx, ty) in ring_buf.iter() {
                    if min_dist > kth {
                        break;
                    }
                    if let Some(grid) = self.bucket(slot, tx as usize, ty as usize) {
                        // The tile's own top-`count` suffices: a worker beaten
                        // by `count` closer workers within its tile can never
                        // make the global top-`count`, so dropping it here
                        // leaves the k-th best distance — and the stop bound —
                        // unchanged.
                        grid.nearest_append(query, count, tile_buf, found);
                    }
                }
                // Stop once the count-th best answer is provably closer than
                // anything an unscanned tile could hold.
                if found.len() >= count {
                    found.sort_by(|a, b| {
                        a.distance
                            .total_cmp(&b.distance)
                            .then(a.worker.cmp(&b.worker))
                    });
                    kth = found[count - 1].distance;
                    if kth < self.unscanned_bound(query, qx, qy, ring) {
                        break;
                    }
                }
            }
            found.sort_by(|a, b| {
                a.distance
                    .total_cmp(&b.distance)
                    .then(a.worker.cmp(&b.worker))
            });
            found.truncate(count);
            found.clone()
        })
    }

    /// The nearest available worker to `query` during `slot`.
    pub fn nearest(&self, slot: SlotIndex, query: &Location) -> Option<NearestWorker> {
        self.nearest_excluding_with(slot, query, |_, _| false)
    }

    /// The nearest worker to `query` during `slot` whose id is not in
    /// `excluded`: the filtered tile search of
    /// [`ShardedWorkerIndex::nearest_excluding_with`] with the set as its
    /// filter, so occupied workers are skipped inside each tile's grid scan.
    pub fn nearest_excluding_set(
        &self,
        slot: SlotIndex,
        query: &Location,
        excluded: &BTreeSet<WorkerId>,
    ) -> Option<NearestWorker> {
        self.nearest_excluding_with(slot, query, |_, id| excluded.contains(&id))
    }

    /// The nearest worker to `query` during `slot` for which
    /// `occupied(spatial_shard, worker)` is false: the single-best search
    /// of the sharded index, behind [`ShardedWorkerIndex::nearest`] and
    /// [`ShardedWorkerIndex::nearest_excluding_set`].
    ///
    /// This is the shard-local occupancy fast path of the concurrent
    /// assignment engine: a worker indexed in tile `t` has its occupancy
    /// recorded in ledger shard `t` (both routed through
    /// [`ShardedWorkerIndex::spatial_shard_of`] on the worker's slot
    /// location), so the filter only ever consults the ledger shard of the
    /// tile currently being probed.  Returns the minimum over non-excluded
    /// workers of `(distance.total_cmp, worker id)` — the dense index's
    /// answer for the equivalent global exclusion set.
    pub fn nearest_excluding_with(
        &self,
        slot: SlotIndex,
        query: &Location,
        mut occupied: impl FnMut(usize, WorkerId) -> bool,
    ) -> Option<NearestWorker> {
        if slot >= self.num_slots || self.available[slot] == 0 {
            return None;
        }
        let (qx, qy) = self.tile_of(query);
        let mut best: Option<(f64, IndexedWorker)> = None;
        let max_ring = self.router.grid.tiles_x.max(self.router.grid.tiles_y);
        // The sorted ring buffer is thread-local scratch shared with
        // `k_nearest`; `occupied` callbacks must not re-enter this index's
        // query methods (in-tree callers only consult ledger shards).
        KNN_SCRATCH.with(|scratch| {
            let ring_buf = &mut scratch.borrow_mut().ring;
            for ring in 0..=max_ring {
                // Mid-ring early stop: tiles in ascending rectangle distance;
                // once the current answer undercuts a tile's rectangle, every
                // remaining tile of the ring is at least as far.  A skipped
                // tile's workers are all strictly farther than the answer
                // (the relaxed rectangle bound still under-estimates their
                // distance), so they cannot win even a worker-id tie.
                self.sorted_ring_tiles(query, qx, qy, ring, ring_buf);
                for &(min_dist, tx, ty) in ring_buf.iter() {
                    if let Some((bd, _)) = &best {
                        if min_dist > *bd {
                            break;
                        }
                    }
                    let (tx, ty) = (tx as usize, ty as usize);
                    let shard = ty * self.router.grid.tiles_x + tx;
                    let Some(grid) = self.bucket(slot, tx, ty) else {
                        continue;
                    };
                    // Per-tile filtered search: the grid prunes at cell level
                    // and only ever consults the occupancy of this tile's
                    // shard.
                    let Some((d, w)) = grid.nearest_filtered(query, |id| occupied(shard, id))
                    else {
                        continue;
                    };
                    if precedes(d, w.worker, best.as_ref()) {
                        best = Some((d, w));
                    }
                }
                if let Some((bd, _)) = &best {
                    if *bd < self.unscanned_bound(query, qx, qy, ring) {
                        break;
                    }
                }
            }
        });
        best.map(|(d, w)| w.at_distance(d))
    }
}

impl MutableSpatialIndex for ShardedWorkerIndex {
    fn insert_worker(&mut self, worker: &Worker) -> IndexMutation {
        let Some(entries) = self.registry.insert(worker, self.num_slots) else {
            return IndexMutation::default();
        };
        let mut entries_touched = 0;
        for (slot, location) in entries {
            entries_touched += self.splice_bucket(slot, &location, |workers| {
                let at = workers.partition_point(|w| w.worker < worker.id);
                workers.insert(
                    at,
                    IndexedWorker {
                        worker: worker.id,
                        location,
                        reliability: worker.reliability,
                    },
                );
            });
        }
        IndexMutation {
            applied: true,
            entries_touched,
            rebuild_equiv_entries: self.indexed_entries,
        }
    }

    fn remove_worker(&mut self, id: WorkerId) -> IndexMutation {
        let Some(reg) = self.registry.remove(id) else {
            return IndexMutation::default();
        };
        let mut entries_touched = 0;
        for &(slot, loc) in reg.slots() {
            entries_touched += self.splice_bucket(slot, &loc, |workers| {
                workers.retain(|w| w.worker != id);
            });
        }
        IndexMutation {
            applied: true,
            entries_touched,
            rebuild_equiv_entries: self.indexed_entries,
        }
    }

    fn move_worker(&mut self, id: WorkerId, new_loc: Location) -> IndexMutation {
        let Some(reliability) = self.registry.get(id).map(|r| r.reliability()) else {
            return IndexMutation::default();
        };
        let old = self
            .registry
            .relocate(id, new_loc)
            .expect("registry entry checked above");
        let mut entries_touched = 0;
        for (slot, old_loc) in old {
            // Same bucket (the common case for waypoint drift): one splice
            // updates the location in place.  Cross-tile: remove from the old
            // bucket, id-ordered insert into the new one — both routed
            // through the shared border clamp, so an out-of-domain target
            // lands exactly where a rebuild would put it.
            if self.shard_of(slot, &old_loc) == self.shard_of(slot, &new_loc) {
                entries_touched += self.splice_bucket(slot, &old_loc, |workers| {
                    if let Some(w) = workers.iter_mut().find(|w| w.worker == id) {
                        w.location = new_loc;
                    }
                });
            } else {
                entries_touched += self.splice_bucket(slot, &old_loc, |workers| {
                    workers.retain(|w| w.worker != id);
                });
                entries_touched += self.splice_bucket(slot, &new_loc, |workers| {
                    let at = workers.partition_point(|w| w.worker < id);
                    workers.insert(
                        at,
                        IndexedWorker {
                            worker: id,
                            location: new_loc,
                            reliability,
                        },
                    );
                });
            }
        }
        IndexMutation {
            applied: true,
            entries_touched,
            rebuild_equiv_entries: self.indexed_entries,
        }
    }

    fn worker_profile(&self, id: WorkerId) -> Option<WorkerProfile> {
        self.registry.profile(id)
    }

    fn indexed_entries(&self) -> usize {
        self.indexed_entries
    }

    fn occupancy_imbalance_milli(&self) -> u64 {
        let mut max = 0usize;
        let mut buckets = 0usize;
        let mut total = 0usize;
        for shard in &self.shards {
            for grid in shard.slots.iter().flatten() {
                let len = grid.workers().len();
                max = max.max(len);
                buckets += 1;
                total += len;
            }
        }
        imbalance_milli(max, buckets, total)
    }
}

impl SpatialQuery for ShardedWorkerIndex {
    fn num_slots(&self) -> usize {
        self.num_slots
    }

    fn total_workers(&self) -> usize {
        self.registry.len()
    }

    fn available_count(&self, slot: SlotIndex) -> usize {
        self.available.get(slot).copied().unwrap_or(0)
    }

    fn nearest(&self, slot: SlotIndex, query: &Location) -> Option<NearestWorker> {
        ShardedWorkerIndex::nearest(self, slot, query)
    }

    fn k_nearest(&self, slot: SlotIndex, query: &Location, count: usize) -> Vec<NearestWorker> {
        ShardedWorkerIndex::k_nearest(self, slot, query, count)
    }

    fn nearest_excluding_set(
        &self,
        slot: SlotIndex,
        query: &Location,
        excluded: &BTreeSet<WorkerId>,
    ) -> Option<NearestWorker> {
        ShardedWorkerIndex::nearest_excluding_set(self, slot, query, excluded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsc_core::{Worker, WorkerSlot};

    fn pool_of(points: &[(usize, f64, f64)]) -> WorkerPool {
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

    #[test]
    fn routes_locations_to_tiles() {
        let pool = pool_of(&[(0, 1.0, 1.0)]);
        let index =
            ShardedWorkerIndex::build(&pool, 1, &Domain::square(10.0), ShardGridConfig::new(2, 2));
        assert_eq!(index.num_shards(), 4);
        assert_eq!(index.tile_of(&Location::new(1.0, 1.0)), (0, 0));
        assert_eq!(index.tile_of(&Location::new(9.0, 1.0)), (1, 0));
        assert_eq!(index.tile_of(&Location::new(1.0, 9.0)), (0, 1));
        // The grid boundary itself belongs to the upper tile; the domain's
        // outer edge clamps into the last tile.
        assert_eq!(index.tile_of(&Location::new(5.0, 5.0)), (1, 1));
        assert_eq!(index.tile_of(&Location::new(10.0, 10.0)), (1, 1));
    }

    #[test]
    fn empty_shards_are_skipped() {
        // All workers cluster in one tile; queries from any tile still find
        // them.
        let pool = pool_of(&[(0, 1.0, 1.0), (0, 2.0, 2.0), (0, 1.5, 0.5)]);
        let index =
            ShardedWorkerIndex::build(&pool, 1, &Domain::square(100.0), ShardGridConfig::new(8, 8));
        let populated: usize = (0..index.num_shards())
            .filter(|&s| index.shard_entries(s) > 0)
            .count();
        assert_eq!(populated, 1);
        let far = index.nearest(0, &Location::new(99.0, 99.0)).unwrap();
        assert_eq!(far.worker, WorkerId(1));
        assert_eq!(index.k_nearest(0, &Location::new(99.0, 99.0), 5).len(), 3);
    }

    #[test]
    fn time_splits_partition_the_slot_axis() {
        let pool = pool_of(&[(0, 1.0, 1.0), (3, 1.0, 1.0), (5, 9.0, 9.0)]);
        let index = ShardedWorkerIndex::build(
            &pool,
            6,
            &Domain::square(10.0),
            ShardGridConfig::new(2, 2).with_time_splits(3),
        );
        assert_eq!(index.num_shards(), 12);
        assert_eq!(index.available_count(0), 1);
        assert_eq!(index.available_count(3), 1);
        assert_eq!(index.available_count(5), 1);
        assert_eq!(index.available_count(1), 0);
        assert_eq!(
            index.nearest(3, &Location::new(0.0, 0.0)).unwrap().worker,
            WorkerId(1)
        );
        assert_eq!(
            index.nearest(5, &Location::new(0.0, 0.0)).unwrap().worker,
            WorkerId(2)
        );
        assert!(index.nearest(1, &Location::new(0.0, 0.0)).is_none());
    }

    #[test]
    fn nearest_excluding_with_filters_per_tile() {
        let pool = pool_of(&[(0, 1.0, 0.0), (0, 2.0, 0.0), (0, 8.0, 0.0)]);
        let index =
            ShardedWorkerIndex::build(&pool, 1, &Domain::square(10.0), ShardGridConfig::new(4, 1));
        let q = Location::new(0.0, 0.0);
        let shard0 = index.spatial_shard_of(&Location::new(1.0, 0.0));
        let all = index.nearest_excluding_with(0, &q, |_, _| false).unwrap();
        assert_eq!(all.worker, WorkerId(0));
        let skip0 = index
            .nearest_excluding_with(0, &q, |s, w| s == shard0 && w == WorkerId(0))
            .unwrap();
        assert_eq!(skip0.worker, WorkerId(1));
        let none = index.nearest_excluding_with(0, &q, |_, _| true);
        assert!(none.is_none());
    }

    #[test]
    fn out_of_horizon_slots_answer_empty() {
        let pool = pool_of(&[(0, 1.0, 1.0)]);
        let index =
            ShardedWorkerIndex::build(&pool, 1, &Domain::square(10.0), ShardGridConfig::default());
        assert!(index.nearest(5, &Location::new(0.0, 0.0)).is_none());
        assert!(index.k_nearest(5, &Location::new(0.0, 0.0), 3).is_empty());
        assert!(index
            .nearest_excluding_with(5, &Location::new(0.0, 0.0), |_, _| false)
            .is_none());
        assert_eq!(index.available_count(5), 0);
    }

    #[test]
    fn out_of_domain_workers_clamped_into_border_tiles_are_never_pruned() {
        // Regression for the k-th-distance tile skip: an out-of-domain
        // worker clamps into a border tile while lying *outside* the tile's
        // rectangle, so a rectangle-based bound over-estimates its distance
        // and can skip it.  Geometry: query (-10, 0) routes to tile (0, 0);
        // worker 0 at (-9, 12) clamps into tile (0, 1) — ring 1 — with true
        // distance sqrt(1 + 144) ≈ 12.04, while its tile rectangle
        // [0,10]x[10,20] lies sqrt(100 + 100) ≈ 14.14 away; worker 1 at
        // (3, 0) inside the query tile establishes kth = 13 in ring 0.  A
        // bound that ignores the clamping skips tile (0, 1) (14.14 > 13)
        // and wrongly answers worker 1; the dense index answers worker 0.
        let pool = pool_of(&[(0, -9.0, 12.0), (0, 3.0, 0.0)]);
        let domain = Domain::square(40.0);
        let dense = crate::WorkerIndex::build(&pool, 1, &domain);
        let sharded = ShardedWorkerIndex::build(&pool, 1, &domain, ShardGridConfig::new(4, 4));
        let q = Location::new(-10.0, 0.0);
        assert_eq!(
            dense.nearest(0, &q).unwrap().worker,
            WorkerId(0),
            "sanity: the clamped worker is the true nearest"
        );
        assert_eq!(sharded.nearest(0, &q).unwrap().worker, WorkerId(0));
        // Broader sweep: with out-of-domain workers on two edges, every
        // query x count must stay bit-identical to the dense index.
        let pool = pool_of(&[
            (0, -9.0, 12.0),
            (0, 15.0, 45.0),
            (0, 5.0, 5.0),
            (0, 12.0, 22.0),
            (0, 28.0, 8.0),
            (0, 33.0, 33.0),
            (0, 2.0, 38.0),
            (0, 21.0, 14.0),
        ]);
        let dense = crate::WorkerIndex::build(&pool, 1, &domain);
        let sharded = ShardedWorkerIndex::build(&pool, 1, &domain, ShardGridConfig::new(4, 4));
        for q in [
            Location::new(-10.0, 0.0),
            Location::new(-10.0, 12.0),
            Location::new(0.0, 0.0),
            Location::new(20.0, 50.0),
            Location::new(39.0, 1.0),
            Location::new(20.0, 20.0),
        ] {
            for count in [1, 3, 8] {
                let d: Vec<_> = dense
                    .k_nearest(0, &q, count)
                    .into_iter()
                    .map(|w| (w.worker, w.distance.to_bits()))
                    .collect();
                let s: Vec<_> = sharded
                    .k_nearest(0, &q, count)
                    .into_iter()
                    .map(|w| (w.worker, w.distance.to_bits()))
                    .collect();
                assert_eq!(d, s, "query {q}, count {count}");
            }
        }
    }

    #[test]
    fn mutations_track_registry_counts_and_availability() {
        let pool = pool_of(&[(0, 1.0, 1.0), (0, 8.0, 8.0), (1, 4.0, 4.0)]);
        let mut index =
            ShardedWorkerIndex::build(&pool, 2, &Domain::square(10.0), ShardGridConfig::new(2, 2));
        assert_eq!(index.total_workers(), 3);
        assert_eq!(index.indexed_entries(), 3);

        // Insert: a new worker becomes queryable; duplicates are rejected.
        let w = Worker::new(
            WorkerId(9),
            vec![WorkerSlot {
                slot: 0,
                location: Location::new(2.0, 2.0),
            }],
        );
        let m = index.insert_worker(&w);
        assert!(m.applied);
        assert_eq!(m.entries_touched, 2, "splice re-gridded the whole bucket");
        assert_eq!(m.rebuild_equiv_entries, 4);
        assert_eq!(index.available_count(0), 3);
        assert!(!index.insert_worker(&w).applied, "duplicate id rejected");

        // Move: availability unchanged, the entry relocates.
        let m = index.move_worker(WorkerId(9), Location::new(9.0, 9.0));
        assert!(m.applied);
        assert_eq!(index.available_count(0), 3);
        assert_eq!(
            index.nearest(0, &Location::new(9.5, 9.5)).unwrap().worker,
            WorkerId(9)
        );
        let profile = index.worker_profile(WorkerId(9)).unwrap();
        assert_eq!(profile.entries, vec![(0, Location::new(9.0, 9.0))]);

        // Remove: gone from every query path; unknown ids are rejected.
        let m = index.remove_worker(WorkerId(9));
        assert!(m.applied);
        assert_eq!(index.total_workers(), 3);
        assert_eq!(index.available_count(0), 2);
        assert!(index.worker_profile(WorkerId(9)).is_none());
        assert!(!index.remove_worker(WorkerId(9)).applied);
        assert!(
            !index
                .move_worker(WorkerId(9), Location::new(1.0, 1.0))
                .applied
        );
    }

    #[test]
    fn occupancy_imbalance_reflects_bucket_skew() {
        // Perfectly balanced: every bucket holds one worker.
        let pool = pool_of(&[(0, 1.0, 1.0), (0, 9.0, 9.0)]);
        let index =
            ShardedWorkerIndex::build(&pool, 1, &Domain::square(10.0), ShardGridConfig::new(2, 2));
        assert_eq!(index.occupancy_imbalance_milli(), 1000);
        // Skewed: 3 workers in one bucket, 1 in another -> max/mean = 3/2.
        let pool = pool_of(&[(0, 1.0, 1.0), (0, 1.2, 1.2), (0, 1.4, 1.4), (0, 9.0, 9.0)]);
        let index =
            ShardedWorkerIndex::build(&pool, 1, &Domain::square(10.0), ShardGridConfig::new(2, 2));
        assert_eq!(index.occupancy_imbalance_milli(), 1500);
    }

    #[test]
    fn degenerate_one_tile_grid_is_a_linear_scan() {
        let pool = pool_of(&[(0, 1.0, 0.0), (0, 2.0, 0.0), (0, 3.0, 0.0)]);
        let index =
            ShardedWorkerIndex::build(&pool, 1, &Domain::square(10.0), ShardGridConfig::new(1, 1));
        let res = index.k_nearest(0, &Location::new(0.0, 0.0), 3);
        assert_eq!(res.len(), 3);
        assert_eq!(res[0].worker, WorkerId(0));
        assert_eq!(res[2].worker, WorkerId(2));
    }
}
