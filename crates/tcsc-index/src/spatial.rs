//! Spatial index over worker locations, per time slot.
//!
//! The assignment algorithms repeatedly ask: *"who is the nearest available
//! worker to this task at time slot `t`?"* (and, for the multi-task conflict
//! resolution of Section IV-A, *"who is the j-th nearest?"*).  This module
//! answers those queries with a per-slot uniform grid over worker locations,
//! which is the classic light-weight index for low-dimensional nearest
//! neighbour search.  A brute-force path is kept both as a correctness oracle
//! for the tests and for very small pools.

use std::collections::{BTreeSet, HashMap};

use tcsc_core::{Domain, Location, SlotIndex, Worker, WorkerId, WorkerPool};

/// Nearest-available-worker queries over a per-slot worker index.
///
/// Implemented by the dense [`WorkerIndex`] (one grid over the whole domain)
/// and by [`crate::sharded::ShardedWorkerIndex`] (a router over spatial-tile
/// shards).  The two implementations are **bit-identical**: every method
/// resolves distance ties by ascending worker id, so the assignment layer can
/// swap one for the other without changing a single plan (locked in by
/// `tests/sharded_properties.rs`).
pub trait SpatialQuery {
    /// Number of time slots covered by the index.
    fn num_slots(&self) -> usize;

    /// Number of workers in the indexed pool.
    fn total_workers(&self) -> usize;

    /// Number of workers available during `slot`.
    fn available_count(&self, slot: SlotIndex) -> usize;

    /// The nearest available worker to `query` during `slot`.
    fn nearest(&self, slot: SlotIndex, query: &Location) -> Option<NearestWorker>;

    /// The `count` nearest available workers to `query` during `slot`, sorted
    /// by `(distance, worker id)`.
    fn k_nearest(&self, slot: SlotIndex, query: &Location, count: usize) -> Vec<NearestWorker>;

    /// The nearest worker to `query` during `slot` whose id is not in
    /// `excluded` (the occupancy-aware conflict-fallback query).
    fn nearest_excluding_set(
        &self,
        slot: SlotIndex,
        query: &Location,
        excluded: &BTreeSet<WorkerId>,
    ) -> Option<NearestWorker>;
}

/// Point mutations over a per-slot spatial index: insert, remove and move a
/// worker without rebuilding the whole structure.
///
/// Implemented by the dense [`WorkerIndex`] (the oracle: each touched slot
/// grid is rebuilt whole) and by [`crate::sharded::ShardedWorkerIndex`]
/// (tile-local: only the affected tile bucket(s) are spliced and re-gridded).
/// Both uphold the **rebuild equivalence invariant**: after any sequence of
/// mutations, every [`SpatialQuery`] method answers bit-identically to an
/// index freshly built from the equivalently mutated worker pool — same
/// workers, same order, same `f64` distances.  This holds because each
/// mutation keeps the affected per-slot worker list in ascending-id order
/// (the pool iteration order a fresh build would produce) and rebuilds the
/// affected grid from that list with the same deterministic constructor a
/// fresh build uses.  `tests/mutable_index_fuzz.rs` locks the invariant in
/// over hundreds of seeded mutation tapes.
pub trait MutableSpatialIndex: SpatialQuery {
    /// Inserts a new worker (all in-horizon availability entries).  Rejected
    /// (`applied == false`) when a worker with the same id is already
    /// registered.
    fn insert_worker(&mut self, worker: &Worker) -> IndexMutation;

    /// Removes a worker and all its availability entries.  Rejected when the
    /// id is not registered.
    fn remove_worker(&mut self, id: WorkerId) -> IndexMutation;

    /// Moves a worker: every in-horizon availability entry is relocated to
    /// `new_loc` (the mobile-worker model — one physical position at a time).
    /// Rejected when the id is not registered.
    fn move_worker(&mut self, id: WorkerId, new_loc: Location) -> IndexMutation;

    /// The registered state of a worker: reliability plus its in-horizon
    /// `(slot, location)` entries (ascending slot).  `None` for unknown ids.
    /// Workers whose availability lies entirely beyond the slot horizon are
    /// registered with an empty entry list.
    fn worker_profile(&self, id: WorkerId) -> Option<WorkerProfile>;

    /// Total number of indexed `(worker, slot)` entries — the work a
    /// from-scratch rebuild would re-grid.
    fn indexed_entries(&self) -> usize;

    /// Bucket-occupancy imbalance as `max_len * 1000 / mean_len` over the
    /// index's non-empty buckets (milli-scaled; `1000` = perfectly balanced,
    /// `0` = no buckets).  The service drivers export this as a gauge.
    fn occupancy_imbalance_milli(&self) -> u64;
}

/// Outcome of one [`MutableSpatialIndex`] operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexMutation {
    /// Whether the operation applied (`false`: duplicate id on insert,
    /// unknown id on remove/move — the index is unchanged).
    pub applied: bool,
    /// Number of `(worker, slot)` entries re-gridded by the splice — the
    /// actual maintenance cost paid.
    pub entries_touched: usize,
    /// What a from-scratch rebuild at the resulting state would re-grid
    /// (the total indexed entries): the cost the in-place mutation avoided.
    pub rebuild_equiv_entries: usize,
}

/// A registered worker's indexed state, as returned by
/// [`MutableSpatialIndex::worker_profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerProfile {
    /// The worker's reliability score.
    pub reliability: f64,
    /// In-horizon `(slot, location)` entries, ascending slot.
    pub entries: Vec<(SlotIndex, Location)>,
}

/// Registry of the workers an index currently holds: the lookup that makes
/// `remove`/`move` local (which buckets hold this worker?) without consulting
/// the original pool.  Shared by the dense and sharded indexes.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkerRegistry {
    entries: HashMap<WorkerId, RegisteredWorker>,
}

#[derive(Debug, Clone)]
pub(crate) struct RegisteredWorker {
    reliability: f64,
    /// In-horizon `(slot, location)` entries, ascending slot.
    slots: Vec<(SlotIndex, Location)>,
}

impl WorkerRegistry {
    pub(crate) fn from_pool(pool: &WorkerPool, num_slots: usize) -> Self {
        let mut registry = Self::default();
        for worker in pool.workers() {
            registry.insert(worker, num_slots);
        }
        registry
    }

    /// Registers a worker; returns its in-horizon entries, or `None` when the
    /// id is already present (the registry is unchanged).
    pub(crate) fn insert(
        &mut self,
        worker: &Worker,
        num_slots: usize,
    ) -> Option<Vec<(SlotIndex, Location)>> {
        if self.entries.contains_key(&worker.id) {
            return None;
        }
        let slots: Vec<(SlotIndex, Location)> = worker
            .availability()
            .iter()
            .filter(|ws| ws.slot < num_slots)
            .map(|ws| (ws.slot, ws.location))
            .collect();
        self.entries.insert(
            worker.id,
            RegisteredWorker {
                reliability: worker.reliability,
                slots: slots.clone(),
            },
        );
        Some(slots)
    }

    /// Unregisters a worker, returning its entries (`None` for unknown ids).
    pub(crate) fn remove(&mut self, id: WorkerId) -> Option<RegisteredWorker> {
        self.entries.remove(&id)
    }

    /// Relocates every entry of a worker to `new_loc`, returning the
    /// *previous* `(slot, location)` entries (`None` for unknown ids).
    pub(crate) fn relocate(
        &mut self,
        id: WorkerId,
        new_loc: Location,
    ) -> Option<Vec<(SlotIndex, Location)>> {
        let reg = self.entries.get_mut(&id)?;
        let old = reg.slots.clone();
        for (_, loc) in &mut reg.slots {
            *loc = new_loc;
        }
        Some(old)
    }

    pub(crate) fn get(&self, id: WorkerId) -> Option<&RegisteredWorker> {
        self.entries.get(&id)
    }

    pub(crate) fn profile(&self, id: WorkerId) -> Option<WorkerProfile> {
        self.entries.get(&id).map(|reg| WorkerProfile {
            reliability: reg.reliability,
            entries: reg.slots.clone(),
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

impl RegisteredWorker {
    pub(crate) fn reliability(&self) -> f64 {
        self.reliability
    }

    pub(crate) fn slots(&self) -> &[(SlotIndex, Location)] {
        &self.slots
    }
}

/// One indexed worker position: a worker available at the slot of the
/// enclosing per-slot grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexedWorker {
    /// The worker id.
    pub worker: WorkerId,
    /// The worker's position during the slot.
    pub location: Location,
    /// The worker's reliability score.
    pub reliability: f64,
}

impl IndexedWorker {
    /// This worker as a query answer at `distance` from the query point.
    pub(crate) fn at_distance(&self, distance: f64) -> NearestWorker {
        NearestWorker {
            worker: self.worker,
            location: self.location,
            reliability: self.reliability,
            distance,
        }
    }
}

/// Result of a nearest-worker query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NearestWorker {
    /// The worker found.
    pub worker: WorkerId,
    /// The worker's position during the queried slot.
    pub location: Location,
    /// The worker's reliability score.
    pub reliability: f64,
    /// Euclidean distance from the query point.
    pub distance: f64,
}

/// Uniform grid over the workers available during a single time slot.
///
/// Shared between the dense [`WorkerIndex`] (one grid per slot over the whole
/// domain) and the sharded index (one grid per `(shard, slot)` bucket over
/// the shard's tile), so both resolve distance ties identically: workers are
/// stored in ascending id order and every query sorts by
/// `(distance, position)`.
#[derive(Debug, Clone)]
pub(crate) struct SlotGrid {
    /// All workers available in this slot.
    workers: Vec<IndexedWorker>,
    /// Grid buckets holding indices into `workers`.
    cells: Vec<Vec<u32>>,
    cols: usize,
    rows: usize,
    cell_size: f64,
    origin: Location,
}

impl SlotGrid {
    pub(crate) fn build(workers: Vec<IndexedWorker>, domain: &Domain) -> Self {
        // Aim for a handful of workers per cell on average.
        let n = workers.len().max(1);
        let target_cells = (n as f64 / 2.0).ceil().max(1.0);
        let cols = (target_cells.sqrt().ceil() as usize).max(1);
        let rows = cols;
        let cell_size = (domain.width().max(domain.height()) / cols as f64).max(f64::MIN_POSITIVE);
        let mut cells = vec![Vec::new(); cols * rows];
        let origin = domain.min;
        for (i, w) in workers.iter().enumerate() {
            let (cx, cy) = Self::cell_coords(origin, cell_size, cols, rows, &w.location);
            cells[cy * cols + cx].push(i as u32);
        }
        Self {
            workers,
            cells,
            cols,
            rows,
            cell_size,
            origin,
        }
    }

    /// The indexed workers in ascending-id (build) order.
    pub(crate) fn workers(&self) -> &[IndexedWorker] {
        &self.workers
    }

    /// Takes the worker list out of the grid for a splice-and-rebuild
    /// mutation.  The grid is left with dangling cell indices and MUST be
    /// replaced by a fresh [`SlotGrid::build`] before the next query — the
    /// mutable-index ops do exactly that, which is what keeps a mutated grid
    /// bit-identical to a freshly built one (grid geometry depends on the
    /// worker count, so in-place cell edits could not be).
    pub(crate) fn take_workers(&mut self) -> Vec<IndexedWorker> {
        std::mem::take(&mut self.workers)
    }

    /// `(max_len, non_empty_cells, total_entries)` over the grid's cells —
    /// the building block of the occupancy-imbalance gauge.
    pub(crate) fn cell_stats(&self) -> (usize, usize, usize) {
        let mut max = 0usize;
        let mut non_empty = 0usize;
        let mut total = 0usize;
        for cell in &self.cells {
            if cell.is_empty() {
                continue;
            }
            max = max.max(cell.len());
            non_empty += 1;
            total += cell.len();
        }
        (max, non_empty, total)
    }

    fn cell_coords(
        origin: Location,
        cell_size: f64,
        cols: usize,
        rows: usize,
        loc: &Location,
    ) -> (usize, usize) {
        let cx = ((loc.x - origin.x) / cell_size).floor().max(0.0) as usize;
        let cy = ((loc.y - origin.y) / cell_size).floor().max(0.0) as usize;
        (cx.min(cols - 1), cy.min(rows - 1))
    }

    /// Lower bound on the distance from `query` to any worker in a cell NOT
    /// yet scanned after rings `0..=ring` around `(qx, qy)`: the distance to
    /// the nearest edge of the scanned cell rectangle (sides already clamped
    /// to the grid border are exhausted and contribute `INFINITY`).
    ///
    /// A search may stop once its current answer is **strictly** below this
    /// bound; at exact equality one more ring is scanned so a worker sitting
    /// precisely on the rectangle edge can still win a distance tie on its
    /// id.  Shared by [`SlotGrid::nearest`] and [`SlotGrid::nearest_filtered`]
    /// so the bound math exists exactly once.
    fn unscanned_bound(&self, query: &Location, qx: usize, qy: usize, ring: usize) -> f64 {
        let mut bound = f64::INFINITY;
        if qx > ring {
            bound = bound.min(query.x - (self.origin.x + (qx - ring) as f64 * self.cell_size));
        }
        if qx + ring + 1 < self.cols {
            bound = bound.min(self.origin.x + (qx + ring + 1) as f64 * self.cell_size - query.x);
        }
        if qy > ring {
            bound = bound.min(query.y - (self.origin.y + (qy - ring) as f64 * self.cell_size));
        }
        if qy + ring + 1 < self.rows {
            bound = bound.min(self.origin.y + (qy + ring + 1) as f64 * self.cell_size - query.y);
        }
        bound
    }

    /// The `count` nearest workers to `query`, sorted by distance.
    /// Ring-expansion search over the grid; falls back to scanning everything
    /// when the rings are exhausted.
    pub(crate) fn nearest(&self, query: &Location, count: usize) -> Vec<NearestWorker> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.nearest_append(query, count, &mut scratch, &mut out);
        out
    }

    /// Allocation-free variant of [`SlotGrid::nearest`]: runs the search in
    /// the caller-provided `scratch` buffer and *appends* the top-`count`
    /// answers to `out` (callers merging several tiles reuse both buffers
    /// across tiles and calls).  Identical candidates in identical order.
    pub(crate) fn nearest_append(
        &self,
        query: &Location,
        count: usize,
        scratch: &mut Vec<(f64, u32)>,
        out: &mut Vec<NearestWorker>,
    ) {
        if self.workers.is_empty() || count == 0 {
            return;
        }
        scratch.clear();
        let found: &mut Vec<(f64, u32)> = scratch;
        // Tiny grids (common for the sharded index's per-tile buckets, which
        // hold a few workers each) skip the ring machinery: every worker is a
        // candidate anyway, and the final sort yields the identical order the
        // ring expansion would.
        if self.workers.len() <= count {
            found.extend(
                self.workers
                    .iter()
                    .enumerate()
                    .map(|(i, w)| (query.distance(&w.location), i as u32)),
            );
            found.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            out.extend(
                found
                    .iter()
                    .map(|&(d, idx)| self.workers[idx as usize].at_distance(d)),
            );
            return;
        }
        let (qx, qy) = Self::cell_coords(self.origin, self.cell_size, self.cols, self.rows, query);
        let max_ring = self.cols.max(self.rows);
        for ring in 0..=max_ring {
            // Visit the cells of this ring.
            let x_lo = qx.saturating_sub(ring);
            let x_hi = (qx + ring).min(self.cols - 1);
            let y_lo = qy.saturating_sub(ring);
            let y_hi = (qy + ring).min(self.rows - 1);
            for cy in y_lo..=y_hi {
                for cx in x_lo..=x_hi {
                    // Visit cells whose exact Chebyshev distance equals the
                    // ring: clamping at the grid borders would otherwise
                    // re-visit border cells on every later ring, and the
                    // duplicate entries would trip the stop condition before
                    // `count` *distinct* workers have been collected.
                    if cx.abs_diff(qx).max(cy.abs_diff(qy)) != ring {
                        continue;
                    }
                    for &idx in &self.cells[cy * self.cols + cx] {
                        let d = query.distance(&self.workers[idx as usize].location);
                        found.push((d, idx));
                    }
                }
            }
            // Stop once we have enough candidates and no unscanned cell can
            // hold anything closer (see `unscanned_bound`).
            if found.len() >= count {
                found.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                let kth = found[count - 1].0;
                if kth < self.unscanned_bound(query, qx, qy, ring) {
                    break;
                }
            }
        }
        found.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out.extend(
            found
                .iter()
                .take(count)
                .map(|&(d, idx)| self.workers[idx as usize].at_distance(d)),
        );
    }

    /// The nearest worker to `query` for which `skip` is false: the minimum
    /// of `(distance.total_cmp, worker id)` over the non-skipped workers, the
    /// same total order as the sorted [`SlotGrid::nearest`] and
    /// [`WorkerIndex::nearest_brute_force`].  The single-best search of both
    /// indexes: every `nearest*` query of the dense index is this search over
    /// the slot grid, and the sharded router runs it per tile bucket.
    ///
    /// Same ring expansion and stop bound as [`SlotGrid::nearest`]: a ring is
    /// scanned while the best answer so far is not strictly closer than the
    /// edge of the scanned cell rectangle, so skipped workers cost one
    /// predicate call each and never widen a fetch.  A NaN best distance
    /// never passes the strict stop test, so NaN queries scan every cell.
    pub(crate) fn nearest_filtered(
        &self,
        query: &Location,
        mut skip: impl FnMut(WorkerId) -> bool,
    ) -> Option<(f64, IndexedWorker)> {
        if self.workers.is_empty() {
            return None;
        }
        let (qx, qy) = Self::cell_coords(self.origin, self.cell_size, self.cols, self.rows, query);
        let mut best: Option<(f64, IndexedWorker)> = None;
        let max_ring = self.cols.max(self.rows);
        for ring in 0..=max_ring {
            let x_lo = qx.saturating_sub(ring);
            let x_hi = (qx + ring).min(self.cols - 1);
            let y_lo = qy.saturating_sub(ring);
            let y_hi = (qy + ring).min(self.rows - 1);
            for cy in y_lo..=y_hi {
                for cx in x_lo..=x_hi {
                    if cx.abs_diff(qx).max(cy.abs_diff(qy)) != ring {
                        continue;
                    }
                    for &idx in &self.cells[cy * self.cols + cx] {
                        let w = self.workers[idx as usize];
                        if skip(w.worker) {
                            continue;
                        }
                        let d = query.distance(&w.location);
                        if precedes(d, w.worker, best.as_ref()) {
                            best = Some((d, w));
                        }
                    }
                }
            }
            if let Some((bd, _)) = &best {
                if *bd < self.unscanned_bound(query, qx, qy, ring) {
                    break;
                }
            }
        }
        best
    }
}

/// Whether a candidate at distance `d` with id `id` beats the current `best`
/// under the `(distance.total_cmp, worker id)` total order of every index
/// query.  Plain `<` on `f64` is not a total order: with a NaN distance it
/// would keep whichever candidate came first in scan order, so the dense and
/// sharded scans (which visit workers in different orders) would disagree.
pub(crate) fn precedes(d: f64, id: WorkerId, best: Option<&(f64, IndexedWorker)>) -> bool {
    best.map_or(true, |(bd, bw)| {
        d.total_cmp(bd).then(id.cmp(&bw.worker)).is_lt()
    })
}

/// Per-slot spatial index over a worker pool.
///
/// Building the index costs `O(Σ availability)`; each nearest-worker query is
/// answered from the grid of the queried slot only.
#[derive(Debug, Clone)]
pub struct WorkerIndex {
    slots: Vec<SlotGrid>,
    /// The build domain, kept so mutations can re-grid a slot identically.
    domain: Domain,
    registry: WorkerRegistry,
    indexed_entries: usize,
}

impl WorkerIndex {
    /// Builds the index for the given pool over `num_slots` time slots within
    /// `domain`.
    pub fn build(pool: &WorkerPool, num_slots: usize, domain: &Domain) -> Self {
        let mut per_slot: Vec<Vec<IndexedWorker>> = vec![Vec::new(); num_slots];
        for worker in pool.workers() {
            for ws in worker.availability() {
                if ws.slot < num_slots {
                    per_slot[ws.slot].push(IndexedWorker {
                        worker: worker.id,
                        location: ws.location,
                        reliability: worker.reliability,
                    });
                }
            }
        }
        let indexed_entries = per_slot.iter().map(Vec::len).sum();
        let slots = per_slot
            .into_iter()
            .map(|workers| SlotGrid::build(workers, domain))
            .collect();
        Self {
            slots,
            domain: *domain,
            registry: WorkerRegistry::from_pool(pool, num_slots),
            indexed_entries,
        }
    }

    /// Splices one slot's worker list and rebuilds its grid whole — the dense
    /// index's (deliberately coarse) unit of mutation, and the reason it is
    /// the rebuild-equivalence oracle: the rebuilt grid is *by construction*
    /// the grid a fresh [`WorkerIndex::build`] would produce for the slot.
    /// Returns the number of entries re-gridded.
    fn regrid_slot(
        &mut self,
        slot: SlotIndex,
        edit: impl FnOnce(&mut Vec<IndexedWorker>),
    ) -> usize {
        let mut workers = self.slots[slot].take_workers();
        let before = workers.len();
        edit(&mut workers);
        let after = workers.len();
        self.indexed_entries = self.indexed_entries + after - before;
        self.slots[slot] = SlotGrid::build(workers, &self.domain);
        after
    }

    /// Number of time slots covered by the index.
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of workers in the indexed pool.
    pub fn total_workers(&self) -> usize {
        self.registry.len()
    }

    /// Number of workers available during `slot`.
    pub fn available_count(&self, slot: SlotIndex) -> usize {
        self.slots.get(slot).map_or(0, |g| g.workers.len())
    }

    /// The nearest available worker to `query` during `slot`.
    pub fn nearest(&self, slot: SlotIndex, query: &Location) -> Option<NearestWorker> {
        self.nearest_filtered(slot, query, |_| false)
    }

    /// The `count` nearest available workers to `query` during `slot`, sorted
    /// by distance (used for the `(d+1)`-NN bound expansion of the conflict
    /// graph and for falling back to the 2nd, 3rd, ... nearest worker when
    /// conflicts arise).
    pub fn k_nearest(&self, slot: SlotIndex, query: &Location, count: usize) -> Vec<NearestWorker> {
        self.slots
            .get(slot)
            .map_or_else(Vec::new, |g| g.nearest(query, count))
    }

    /// The nearest worker to `query` during `slot` whose id is not in
    /// `excluded` (the occupancy-aware conflict-fallback query).
    ///
    /// Takes the per-slot occupancy set of a ledger directly and filters
    /// inside the slot grid's ring search: each occupied worker the rings
    /// pass costs one `O(log n)` membership test, so the query does the work
    /// of a plain nearest search however large the occupancy grows.  Ids
    /// absent from the slot are never visited and cost nothing.
    pub fn nearest_excluding_set(
        &self,
        slot: SlotIndex,
        query: &Location,
        excluded: &BTreeSet<WorkerId>,
    ) -> Option<NearestWorker> {
        self.nearest_filtered(slot, query, |id| excluded.contains(&id))
    }

    /// [`SlotGrid::nearest_filtered`] over the grid of `slot`.
    fn nearest_filtered(
        &self,
        slot: SlotIndex,
        query: &Location,
        skip: impl FnMut(WorkerId) -> bool,
    ) -> Option<NearestWorker> {
        let (distance, w) = self.slots.get(slot)?.nearest_filtered(query, skip)?;
        Some(w.at_distance(distance))
    }

    /// Brute-force nearest query, used as a correctness oracle in tests.
    pub fn nearest_brute_force(
        pool: &WorkerPool,
        slot: SlotIndex,
        query: &Location,
    ) -> Option<NearestWorker> {
        pool.available_at(slot)
            .map(|(w, loc)| NearestWorker {
                worker: w.id,
                location: loc,
                reliability: w.reliability,
                distance: query.distance(&loc),
            })
            .min_by(|a, b| {
                a.distance
                    .total_cmp(&b.distance)
                    .then(a.worker.cmp(&b.worker))
            })
    }
}

impl MutableSpatialIndex for WorkerIndex {
    fn insert_worker(&mut self, worker: &Worker) -> IndexMutation {
        let Some(entries) = self.registry.insert(worker, self.slots.len()) else {
            return IndexMutation::default();
        };
        let mut entries_touched = 0;
        for (slot, location) in entries {
            entries_touched += self.regrid_slot(slot, |workers| {
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
        for &(slot, _) in reg.slots() {
            entries_touched += self.regrid_slot(slot, |workers| {
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
        let Some(old) = self.registry.relocate(id, new_loc) else {
            return IndexMutation::default();
        };
        let mut entries_touched = 0;
        for (slot, _) in old {
            entries_touched += self.regrid_slot(slot, |workers| {
                if let Some(w) = workers.iter_mut().find(|w| w.worker == id) {
                    w.location = new_loc;
                }
            });
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
        let mut non_empty = 0usize;
        let mut total = 0usize;
        for grid in &self.slots {
            let (m, n, t) = grid.cell_stats();
            max = max.max(m);
            non_empty += n;
            total += t;
        }
        imbalance_milli(max, non_empty, total)
    }
}

/// `max * 1000 / (total / buckets)` in integer arithmetic: the milli-scaled
/// max-over-mean bucket-occupancy ratio (0 when there are no buckets).
pub(crate) fn imbalance_milli(max: usize, buckets: usize, total: usize) -> u64 {
    if total == 0 {
        return 0;
    }
    (max as u64 * 1000 * buckets as u64) / total as u64
}

impl SpatialQuery for WorkerIndex {
    fn num_slots(&self) -> usize {
        WorkerIndex::num_slots(self)
    }

    fn total_workers(&self) -> usize {
        WorkerIndex::total_workers(self)
    }

    fn available_count(&self, slot: SlotIndex) -> usize {
        WorkerIndex::available_count(self, slot)
    }

    fn nearest(&self, slot: SlotIndex, query: &Location) -> Option<NearestWorker> {
        WorkerIndex::nearest(self, slot, query)
    }

    fn k_nearest(&self, slot: SlotIndex, query: &Location, count: usize) -> Vec<NearestWorker> {
        WorkerIndex::k_nearest(self, slot, query, count)
    }

    fn nearest_excluding_set(
        &self,
        slot: SlotIndex,
        query: &Location,
        excluded: &BTreeSet<WorkerId>,
    ) -> Option<NearestWorker> {
        WorkerIndex::nearest_excluding_set(self, slot, query, excluded)
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
    fn nearest_on_empty_slot_is_none() {
        let pool = pool_of(&[(0, 1.0, 1.0)]);
        let index = WorkerIndex::build(&pool, 3, &Domain::square(10.0));
        assert!(index.nearest(1, &Location::new(0.0, 0.0)).is_none());
        assert_eq!(index.available_count(1), 0);
        assert_eq!(index.available_count(0), 1);
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pool = pool_of(&[
            (0, 1.0, 1.0),
            (0, 5.0, 5.0),
            (0, 9.0, 2.0),
            (0, 2.0, 8.0),
            (0, 4.9, 5.1),
        ]);
        let domain = Domain::square(10.0);
        let index = WorkerIndex::build(&pool, 1, &domain);
        for q in [
            Location::new(0.0, 0.0),
            Location::new(5.0, 5.0),
            Location::new(10.0, 10.0),
            Location::new(7.0, 3.0),
        ] {
            let fast = index.nearest(0, &q).unwrap();
            let slow = WorkerIndex::nearest_brute_force(&pool, 0, &q).unwrap();
            assert_eq!(fast.worker, slow.worker, "query {q}");
            assert!((fast.distance - slow.distance).abs() < 1e-12);
        }
    }

    #[test]
    fn k_nearest_is_sorted_by_distance() {
        let pool = pool_of(&[(0, 1.0, 0.0), (0, 2.0, 0.0), (0, 5.0, 0.0), (0, 9.0, 0.0)]);
        let index = WorkerIndex::build(&pool, 1, &Domain::square(10.0));
        let res = index.k_nearest(0, &Location::new(0.0, 0.0), 3);
        assert_eq!(res.len(), 3);
        assert!(res[0].distance <= res[1].distance && res[1].distance <= res[2].distance);
        assert_eq!(res[0].worker, WorkerId(0));
        assert_eq!(res[2].worker, WorkerId(2));
    }

    #[test]
    fn k_nearest_caps_at_available_workers() {
        let pool = pool_of(&[(0, 1.0, 0.0), (0, 2.0, 0.0)]);
        let index = WorkerIndex::build(&pool, 1, &Domain::square(10.0));
        let res = index.k_nearest(0, &Location::new(0.0, 0.0), 10);
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn nearest_excluding_skips_workers() {
        let pool = pool_of(&[(0, 1.0, 0.0), (0, 2.0, 0.0), (0, 3.0, 0.0)]);
        let index = WorkerIndex::build(&pool, 1, &Domain::square(10.0));
        let q = Location::new(0.0, 0.0);
        let excluding = |ids: &[u32]| {
            let set: BTreeSet<WorkerId> = ids.iter().copied().map(WorkerId).collect();
            index.nearest_excluding_set(0, &q, &set).map(|w| w.worker)
        };
        assert_eq!(excluding(&[]), Some(WorkerId(0)));
        assert_eq!(excluding(&[0]), Some(WorkerId(1)));
        assert_eq!(excluding(&[0, 1]), Some(WorkerId(2)));
        assert_eq!(excluding(&[0, 1, 2]), None);
    }

    /// The filtered-query oracle: the minimum of `(distance.total_cmp, id)`
    /// over the slot's workers outside `excluded`.
    fn brute_force_excluding(
        pool: &WorkerPool,
        slot: SlotIndex,
        query: &Location,
        excluded: &BTreeSet<WorkerId>,
    ) -> Option<(WorkerId, u64)> {
        pool.available_at(slot)
            .filter(|(w, _)| !excluded.contains(&w.id))
            .map(|(w, loc)| (query.distance(&loc), w.id))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(d, id)| (id, d.to_bits()))
    }

    #[test]
    fn nearest_excluding_set_agrees_with_brute_force() {
        // Two workers share a location, so exclusions decide distance ties.
        let pool = pool_of(&[
            (0, 1.0, 0.0),
            (0, 2.0, 0.0),
            (0, 3.0, 0.0),
            (0, 4.0, 0.0),
            (0, 2.0, 0.0),
        ]);
        let index = WorkerIndex::build(&pool, 1, &Domain::square(10.0));
        for q in [Location::new(0.0, 0.0), Location::new(9.0, 9.0)] {
            for excluded in [
                vec![],
                vec![0],
                vec![0, 1],
                vec![1, 3],
                vec![0, 4],
                vec![0, 1, 2, 3],
                vec![0, 1, 2, 3, 4],
            ] {
                let set: BTreeSet<WorkerId> = excluded.iter().copied().map(WorkerId).collect();
                assert_eq!(
                    index
                        .nearest_excluding_set(0, &q, &set)
                        .map(|w| (w.worker, w.distance.to_bits())),
                    brute_force_excluding(&pool, 0, &q, &set),
                    "query {q}, excluding {excluded:?}"
                );
            }
        }
    }

    #[test]
    fn nearest_excluding_set_skips_ids_missing_from_the_slot() {
        // Excluded ids that are not available during the slot must not hide
        // the slot's own workers.
        let pool = pool_of(&[(0, 1.0, 0.0), (0, 2.0, 0.0)]);
        let index = WorkerIndex::build(&pool, 1, &Domain::square(10.0));
        let set: BTreeSet<WorkerId> = [WorkerId(0), WorkerId(7), WorkerId(9)].into();
        let found = index
            .nearest_excluding_set(0, &Location::new(0.0, 0.0), &set)
            .unwrap();
        assert_eq!(found.worker, WorkerId(1));
    }

    #[test]
    fn worker_available_in_multiple_slots_is_indexed_in_each() {
        let worker = Worker::new(
            WorkerId(0),
            vec![
                WorkerSlot {
                    slot: 0,
                    location: Location::new(1.0, 1.0),
                },
                WorkerSlot {
                    slot: 2,
                    location: Location::new(8.0, 8.0),
                },
            ],
        );
        let pool = WorkerPool::new(vec![worker]);
        let index = WorkerIndex::build(&pool, 3, &Domain::square(10.0));
        assert_eq!(index.available_count(0), 1);
        assert_eq!(index.available_count(1), 0);
        assert_eq!(index.available_count(2), 1);
        let near = index.nearest(2, &Location::new(9.0, 9.0)).unwrap();
        assert_eq!(near.location, Location::new(8.0, 8.0));
    }

    #[test]
    fn availability_beyond_horizon_is_ignored() {
        let worker = Worker::new(
            WorkerId(0),
            vec![WorkerSlot {
                slot: 10,
                location: Location::new(1.0, 1.0),
            }],
        );
        let pool = WorkerPool::new(vec![worker]);
        let index = WorkerIndex::build(&pool, 5, &Domain::square(10.0));
        assert_eq!(index.num_slots(), 5);
        assert_eq!(index.available_count(4), 0);
    }

    #[test]
    fn grid_handles_many_random_workers() {
        // Deterministic pseudo-random spread; compare against brute force.
        let mut pts = Vec::new();
        let mut state = 42u64;
        for _ in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = ((state >> 20) % 1000) as f64 / 10.0;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let y = ((state >> 20) % 1000) as f64 / 10.0;
            pts.push((0usize, x, y));
        }
        let pool = pool_of(&pts);
        let domain = Domain::square(100.0);
        let index = WorkerIndex::build(&pool, 1, &domain);
        for q in [
            Location::new(0.0, 0.0),
            Location::new(50.0, 50.0),
            Location::new(99.0, 1.0),
            Location::new(33.3, 66.6),
        ] {
            let fast = index.nearest(0, &q).unwrap();
            let slow = WorkerIndex::nearest_brute_force(&pool, 0, &q).unwrap();
            assert!((fast.distance - slow.distance).abs() < 1e-9, "query {q}");
        }
    }
}
