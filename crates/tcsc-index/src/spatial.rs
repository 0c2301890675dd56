//! Spatial index over worker locations, per time slot.
//!
//! The assignment algorithms repeatedly ask: *"who is the nearest available
//! worker to this task at time slot `t`?"* (and, for the multi-task conflict
//! resolution of Section IV-A, *"who is the j-th nearest?"*).  This module
//! answers those queries with a per-slot uniform grid over worker locations,
//! which is the classic light-weight index for low-dimensional nearest
//! neighbour search.  Moving workers edit the grid in place, cell by cell, in
//! the manner of uniform grids for moving objects (Šidlauskas et al., "Trees
//! or grids?", GIS 2009).  A brute-force path is kept as a correctness oracle
//! for the tests.

use std::collections::{hash_map::Entry, HashMap};

use tcsc_core::{Domain, Location, SlotIndex, Worker, WorkerId, WorkerPool, WorkerSet};

/// Nearest-available-worker queries over a per-slot worker index.
///
/// Implemented by the dense [`WorkerIndex`] and by
/// [`crate::sharded::ShardedWorkerIndex`], a tile-routed view that forwards
/// every query to one.  Every method orders its answers by
/// `(distance.total_cmp, worker id)`, so no answer depends on the grid's
/// geometry or on the order in which a search visits its cells.
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
    /// `excluded` (the occupancy-aware query).  The search probes the hashed
    /// set, expected `O(1)` each, only for a worker that ranks ahead of the
    /// best free worker found so far; the set's iteration order never
    /// matters.
    fn nearest_excluding_set(
        &self,
        slot: SlotIndex,
        query: &Location,
        excluded: &WorkerSet,
    ) -> Option<NearestWorker>;
}

/// Point mutations over a per-slot spatial index: insert, remove and move a
/// worker without rebuilding the whole structure.
///
/// Implemented by the dense [`WorkerIndex`], whose mutations edit only the
/// grid cells an entry leaves or enters, and by the sharded view, which
/// forwards to it.  Both uphold the **rebuild equivalence invariant**: after
/// any sequence of mutations, every [`SpatialQuery`] method answers
/// bit-identically to an index freshly built from the equivalently mutated
/// worker pool — same workers, same order, same `f64` distances.  A mutated
/// slot grid keeps the geometry of its last build while a fresh build sizes
/// its grid to the current population, but the answers cannot tell: each
/// cell holds the same entries in ascending-id order and every query orders
/// by `(distance.total_cmp, worker id)`.  `tests/mutable_index_fuzz.rs` locks
/// the invariant in over hundreds of seeded mutation tapes, including tapes
/// that cross the re-grid threshold.
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
    /// index's non-empty grid cells (milli-scaled; `1000` = perfectly
    /// balanced, `0` = no cells).  The service drivers export this as a
    /// gauge.
    fn occupancy_imbalance_milli(&self) -> u64;
}

/// Outcome of one [`MutableSpatialIndex`] operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexMutation {
    /// Whether the operation applied (`false`: duplicate id on insert,
    /// unknown id on remove/move — the index is unchanged).
    pub applied: bool,
    /// Number of `(worker, slot)` entries the operation wrote — the actual
    /// maintenance cost paid: one per entry inserted, removed or relocated,
    /// plus every entry of each slot grid the operation re-gridded (a slot
    /// re-grids when its population has doubled or halved since its last
    /// build).
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
/// `remove`/`move` local (which cells hold this worker?) without consulting
/// the original pool.
#[derive(Debug, Clone, Default)]
struct WorkerRegistry {
    entries: HashMap<WorkerId, RegisteredWorker>,
}

#[derive(Debug, Clone)]
struct RegisteredWorker {
    reliability: f64,
    /// In-horizon `(slot, location)` entries, ascending slot.
    slots: Vec<(SlotIndex, Location)>,
}

impl WorkerRegistry {
    /// Registers a worker; returns its in-horizon entries, or `None` when the
    /// id is already present (the registry is unchanged).
    fn insert(&mut self, worker: &Worker, num_slots: usize) -> Option<&[(SlotIndex, Location)]> {
        let Entry::Vacant(entry) = self.entries.entry(worker.id) else {
            return None;
        };
        let slots = worker
            .availability()
            .iter()
            .filter(|ws| ws.slot < num_slots)
            .map(|ws| (ws.slot, ws.location))
            .collect();
        let registered = entry.insert(RegisteredWorker {
            reliability: worker.reliability,
            slots,
        });
        Some(&registered.slots)
    }

    /// Unregisters a worker, returning its entries (`None` for unknown ids).
    fn remove(&mut self, id: WorkerId) -> Option<RegisteredWorker> {
        self.entries.remove(&id)
    }

    /// A worker's `(slot, location)` entries, for relocating in place
    /// (`None` for unknown ids).
    fn slots_mut(&mut self, id: WorkerId) -> Option<&mut [(SlotIndex, Location)]> {
        self.entries
            .get_mut(&id)
            .map(|reg| reg.slots.as_mut_slice())
    }

    fn profile(&self, id: WorkerId) -> Option<WorkerProfile> {
        self.entries.get(&id).map(|reg| WorkerProfile {
            reliability: reg.reliability,
            entries: reg.slots.clone(),
        })
    }

    fn len(&self) -> usize {
        self.entries.len()
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
    fn at_distance(&self, distance: f64) -> NearestWorker {
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

impl NearestWorker {
    /// The total order of every index answer: `(distance.total_cmp, worker
    /// id)`.  Plain `<` on `f64` is not a total order: with a NaN distance it
    /// would keep whichever candidate a scan met first.
    fn cmp_rank(&self, other: &Self) -> std::cmp::Ordering {
        self.distance
            .total_cmp(&other.distance)
            .then(self.worker.cmp(&other.worker))
    }
}

/// Uniform grid over the workers available during a single time slot.
///
/// The geometry — `cols × cols` square cells of side `cell_size` from
/// `origin`, sized for about two workers per cell — is fixed when the grid is
/// built.  Insert and remove then edit only the touched cell, each of which
/// holds its workers inline in ascending-id order, and the owner re-grids
/// ([`SlotGrid::rebalance`]) only once the population has doubled or halved
/// since the last build.
#[derive(Debug, Clone)]
struct SlotGrid {
    /// Row-major cells, each in ascending worker-id order.
    cells: Vec<Vec<IndexedWorker>>,
    /// Number of workers in the grid.
    len: usize,
    /// `len` at the last build: the reference of the re-grid rule.
    built_len: usize,
    /// Cells per axis.
    cols: usize,
    cell_size: f64,
    origin: Location,
}

impl SlotGrid {
    /// The grid over `domain` of `workers`, given in ascending-id order.
    fn build(workers: Vec<IndexedWorker>, domain: &Domain) -> Self {
        // Aim for a handful of workers per cell on average.
        let n = workers.len().max(1);
        let target_cells = (n as f64 / 2.0).ceil().max(1.0);
        let cols = (target_cells.sqrt().ceil() as usize).max(1);
        let mut grid = Self {
            cells: Vec::new(),
            len: workers.len(),
            built_len: workers.len(),
            cols,
            cell_size: (domain.width().max(domain.height()) / cols as f64).max(f64::MIN_POSITIVE),
            origin: domain.min,
        };
        // Size every cell exactly: most cells hold a couple of workers, below
        // the capacity a first push would reserve.
        let homes: Vec<usize> = workers.iter().map(|w| grid.cell_of(&w.location)).collect();
        let mut sizes = vec![0; cols * cols];
        for &cell in &homes {
            sizes[cell] += 1;
        }
        grid.cells = sizes.into_iter().map(Vec::with_capacity).collect();
        for (w, cell) in workers.into_iter().zip(homes) {
            grid.cells[cell].push(w);
        }
        grid
    }

    /// The `(column, row)` of the cell holding `loc`.  Locations outside the
    /// domain clamp into the border cells.
    fn cell_coords(&self, loc: &Location) -> (usize, usize) {
        let axis =
            |offset: f64| ((offset / self.cell_size).floor().max(0.0) as usize).min(self.cols - 1);
        (axis(loc.x - self.origin.x), axis(loc.y - self.origin.y))
    }

    fn cell_of(&self, loc: &Location) -> usize {
        let (cx, cy) = self.cell_coords(loc);
        cy * self.cols + cx
    }

    /// Inserts a worker into its cell, keeping the cell in ascending-id
    /// order.
    fn insert(&mut self, worker: IndexedWorker) {
        let cell = self.cell_of(&worker.location);
        let cell = &mut self.cells[cell];
        let at = cell.partition_point(|w| w.worker < worker.worker);
        cell.insert(at, worker);
        self.len += 1;
    }

    /// Removes worker `id` from the cell of `at`, its indexed location.
    fn remove(&mut self, id: WorkerId, at: &Location) -> Option<IndexedWorker> {
        let cell = self.cell_of(at);
        let cell = &mut self.cells[cell];
        let pos = cell.binary_search_by_key(&id, |w| w.worker).ok()?;
        self.len -= 1;
        Some(cell.remove(pos))
    }

    /// Re-grids over `domain` once the population has doubled or halved
    /// since the last build, so cells keep about two workers each.  Returns
    /// the number of entries re-gridded (zero when the geometry stands).
    fn rebalance(&mut self, domain: &Domain) -> usize {
        let base = self.built_len.max(1);
        if self.len < 2 * base && 2 * self.len > base {
            return 0;
        }
        let mut workers: Vec<IndexedWorker> = self.cells.drain(..).flatten().collect();
        workers.sort_unstable_by_key(|w| w.worker);
        *self = Self::build(workers, domain);
        self.len
    }

    /// `(max_len, non_empty_cells, total_entries)` over the grid's cells —
    /// the building block of the occupancy-imbalance gauge.
    fn cell_stats(&self) -> (usize, usize, usize) {
        let mut max = 0usize;
        let mut non_empty = 0usize;
        for cell in self.cells.iter().filter(|c| !c.is_empty()) {
            max = max.max(cell.len());
            non_empty += 1;
        }
        (max, non_empty, self.len)
    }

    /// Calls `visit` on every cell whose Chebyshev distance from cell
    /// `(qx, qy)` is exactly `ring` (the ring's border, clipped to the grid),
    /// so each cell is visited once across all rings: clamped re-visits
    /// would add duplicate candidates and trip the stop test before enough
    /// distinct workers were found.
    fn for_ring(&self, qx: usize, qy: usize, ring: usize, mut visit: impl FnMut(&[IndexedWorker])) {
        let last = self.cols - 1;
        let (x_lo, x_hi) = (qx.saturating_sub(ring), (qx + ring).min(last));
        for cy in qy.saturating_sub(ring)..=(qy + ring).min(last) {
            let row = &self.cells[cy * self.cols..][..self.cols];
            if cy.abs_diff(qy) == ring {
                row[x_lo..=x_hi].iter().for_each(|cell| visit(cell));
            } else {
                if qx >= ring {
                    visit(&row[qx - ring]);
                }
                if qx + ring <= last {
                    visit(&row[qx + ring]);
                }
            }
        }
    }

    /// Lower bound on the distance from `query` to any worker in a cell NOT
    /// yet scanned after rings `0..=ring` around `(qx, qy)`: the distance to
    /// the nearest edge of the scanned cell rectangle (sides already clamped
    /// to the grid border are exhausted and contribute `INFINITY`).
    ///
    /// A search may stop once its current answer is **strictly** below this
    /// bound; at exact equality one more ring is scanned so a worker sitting
    /// precisely on the rectangle edge can still win a distance tie on its
    /// id.  A NaN answer never passes the strict test, so NaN queries scan
    /// every cell.
    fn unscanned_bound(&self, query: &Location, qx: usize, qy: usize, ring: usize) -> f64 {
        let edge = |cells: usize, origin: f64| origin + cells as f64 * self.cell_size;
        let mut bound = f64::INFINITY;
        if qx > ring {
            bound = bound.min(query.x - edge(qx - ring, self.origin.x));
        }
        if qx + ring + 1 < self.cols {
            bound = bound.min(edge(qx + ring + 1, self.origin.x) - query.x);
        }
        if qy > ring {
            bound = bound.min(query.y - edge(qy - ring, self.origin.y));
        }
        if qy + ring + 1 < self.cols {
            bound = bound.min(edge(qy + ring + 1, self.origin.y) - query.y);
        }
        bound
    }

    /// The `count` nearest workers to `query` in rank order: ring expansion,
    /// stopping once the `count`-th answer is strictly closer than any
    /// unscanned cell.
    fn k_nearest(&self, query: &Location, count: usize) -> Vec<NearestWorker> {
        let mut found: Vec<NearestWorker> = Vec::new();
        if count == 0 || self.len == 0 {
            return found;
        }
        let add = |found: &mut Vec<NearestWorker>, cell: &[IndexedWorker]| {
            found.extend(
                cell.iter()
                    .map(|w| w.at_distance(query.distance(&w.location))),
            );
        };
        if self.len <= count {
            // Every worker is an answer: skip the ring machinery.
            self.cells.iter().for_each(|cell| add(&mut found, cell));
        } else {
            let (qx, qy) = self.cell_coords(query);
            for ring in 0..self.cols {
                self.for_ring(qx, qy, ring, |cell| add(&mut found, cell));
                if found.len() >= count {
                    found.sort_by(NearestWorker::cmp_rank);
                    if found[count - 1].distance < self.unscanned_bound(query, qx, qy, ring) {
                        break;
                    }
                }
            }
        }
        found.sort_by(NearestWorker::cmp_rank);
        found.truncate(count);
        found
    }

    /// The first worker in rank order for which `skip` is false.  Same ring
    /// expansion and stop bound as [`SlotGrid::k_nearest`], so skipped
    /// workers never widen the search.  `skip` runs only for a worker that
    /// ranks ahead of the best unskipped worker found so far, at most once
    /// per visited worker: a worker ranked after it cannot be the answer
    /// whether or not it is skipped, so its occupancy is never probed.
    fn nearest_filtered(
        &self,
        query: &Location,
        mut skip: impl FnMut(&IndexedWorker) -> bool,
    ) -> Option<NearestWorker> {
        if self.len == 0 {
            return None;
        }
        let (qx, qy) = self.cell_coords(query);
        let mut best: Option<NearestWorker> = None;
        for ring in 0..self.cols {
            self.for_ring(qx, qy, ring, |cell| {
                for w in cell {
                    let candidate = w.at_distance(query.distance(&w.location));
                    if best
                        .as_ref()
                        .map_or(true, |b| candidate.cmp_rank(b).is_lt())
                        && !skip(w)
                    {
                        best = Some(candidate);
                    }
                }
            });
            if best.is_some_and(|b| b.distance < self.unscanned_bound(query, qx, qy, ring)) {
                break;
            }
        }
        best
    }
}

/// Per-slot spatial index over a worker pool.
///
/// Building the index costs `O(Σ availability)`; each nearest-worker query is
/// answered from the grid of the queried slot only, and each mutation edits
/// only the grid cells its entries leave or enter.
#[derive(Debug, Clone)]
pub struct WorkerIndex {
    slots: Vec<SlotGrid>,
    /// The build domain, which a slot re-grids over.
    domain: Domain,
    registry: WorkerRegistry,
    indexed_entries: usize,
}

impl WorkerIndex {
    /// Builds the index for the given pool over `num_slots` time slots within
    /// `domain`.
    ///
    /// Of several pool workers sharing an id, only the first (in pool order)
    /// is indexed — the rule [`Worker::new`] applies to duplicate slots — so
    /// the index and [`MutableSpatialIndex::worker_profile`] always agree.
    pub fn build(pool: &WorkerPool, num_slots: usize, domain: &Domain) -> Self {
        let mut registry = WorkerRegistry::default();
        // Pool iteration is worker-id ascending, so every slot's list is too.
        let mut per_slot: Vec<Vec<IndexedWorker>> = vec![Vec::new(); num_slots];
        for worker in pool.workers() {
            let Some(entries) = registry.insert(worker, num_slots) else {
                continue;
            };
            for &(slot, location) in entries {
                per_slot[slot].push(IndexedWorker {
                    worker: worker.id,
                    location,
                    reliability: worker.reliability,
                });
            }
        }
        Self {
            indexed_entries: per_slot.iter().map(Vec::len).sum(),
            slots: per_slot
                .into_iter()
                .map(|workers| SlotGrid::build(workers, domain))
                .collect(),
            domain: *domain,
            registry,
        }
    }

    /// The outcome of an applied mutation that wrote `entries_touched`
    /// entries.
    fn applied(&self, entries_touched: usize) -> IndexMutation {
        IndexMutation {
            applied: true,
            entries_touched,
            rebuild_equiv_entries: self.indexed_entries,
        }
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
        self.slots.get(slot).map_or(0, |g| g.len)
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
            .map_or_else(Vec::new, |g| g.k_nearest(query, count))
    }

    /// The nearest worker to `query` during `slot` whose id is not in
    /// `excluded` (the occupancy-aware query of a one-shot checkout and of a
    /// conflict fallback).
    ///
    /// Takes the per-slot occupancy set of a ledger directly and filters
    /// inside the slot grid's ring search: only a worker that ranks ahead of
    /// the best free worker found so far costs an expected-`O(1)` probe of
    /// the hashed set, so the query does the work of a plain nearest search
    /// plus one probe per contender.  Ids absent from the slot are never
    /// visited and cost nothing.
    pub fn nearest_excluding_set(
        &self,
        slot: SlotIndex,
        query: &Location,
        excluded: &WorkerSet,
    ) -> Option<NearestWorker> {
        self.nearest_filtered(slot, query, |w| excluded.contains(&w.worker))
    }

    /// The nearest worker to `query` during `slot` for which `skip` is false:
    /// the single-best search behind every `nearest*` query.
    pub(crate) fn nearest_filtered(
        &self,
        slot: SlotIndex,
        query: &Location,
        skip: impl FnMut(&IndexedWorker) -> bool,
    ) -> Option<NearestWorker> {
        self.slots.get(slot)?.nearest_filtered(query, skip)
    }

    /// Brute-force nearest query over the slot's workers outside `excluded`:
    /// the correctness oracle of this crate's unit tests.
    #[cfg(test)]
    pub(crate) fn nearest_brute_force(
        pool: &WorkerPool,
        slot: SlotIndex,
        query: &Location,
        excluded: &WorkerSet,
    ) -> Option<NearestWorker> {
        pool.available_at(slot)
            .filter(|(w, _)| !excluded.contains(&w.id))
            .map(|(w, loc)| NearestWorker {
                worker: w.id,
                location: loc,
                reliability: w.reliability,
                distance: query.distance(&loc),
            })
            .min_by(NearestWorker::cmp_rank)
    }
}

impl MutableSpatialIndex for WorkerIndex {
    fn insert_worker(&mut self, worker: &Worker) -> IndexMutation {
        let Some(entries) = self.registry.insert(worker, self.slots.len()) else {
            return IndexMutation::default();
        };
        let mut entries_touched = 0;
        for &(slot, location) in entries {
            let grid = &mut self.slots[slot];
            grid.insert(IndexedWorker {
                worker: worker.id,
                location,
                reliability: worker.reliability,
            });
            entries_touched += 1 + grid.rebalance(&self.domain);
        }
        self.indexed_entries += entries.len();
        self.applied(entries_touched)
    }

    fn remove_worker(&mut self, id: WorkerId) -> IndexMutation {
        let Some(reg) = self.registry.remove(id) else {
            return IndexMutation::default();
        };
        let mut entries_touched = 0;
        for (slot, location) in &reg.slots {
            let grid = &mut self.slots[*slot];
            grid.remove(id, location);
            entries_touched += 1 + grid.rebalance(&self.domain);
        }
        self.indexed_entries -= reg.slots.len();
        self.applied(entries_touched)
    }

    fn move_worker(&mut self, id: WorkerId, new_loc: Location) -> IndexMutation {
        let Some(entries) = self.registry.slots_mut(id) else {
            return IndexMutation::default();
        };
        for (slot, location) in entries.iter_mut() {
            let grid = &mut self.slots[*slot];
            if let Some(mut w) = grid.remove(id, location) {
                w.location = new_loc;
                grid.insert(w);
            }
            *location = new_loc;
        }
        let entries_touched = entries.len();
        self.applied(entries_touched)
    }

    fn worker_profile(&self, id: WorkerId) -> Option<WorkerProfile> {
        self.registry.profile(id)
    }

    fn indexed_entries(&self) -> usize {
        self.indexed_entries
    }

    fn occupancy_imbalance_milli(&self) -> u64 {
        let (mut max, mut cells, mut total) = (0, 0, 0);
        for grid in &self.slots {
            let (m, n, t) = grid.cell_stats();
            max = max.max(m);
            cells += n;
            total += t;
        }
        // `max * 1000 / (total / cells)` in integer arithmetic.
        if total == 0 {
            return 0;
        }
        (max as u64 * 1000 * cells as u64) / total as u64
    }
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
        excluded: &WorkerSet,
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
            let slow =
                WorkerIndex::nearest_brute_force(&pool, 0, &q, &WorkerSet::default()).unwrap();
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
            let set: WorkerSet = ids.iter().copied().map(WorkerId).collect();
            index.nearest_excluding_set(0, &q, &set).map(|w| w.worker)
        };
        assert_eq!(excluding(&[]), Some(WorkerId(0)));
        assert_eq!(excluding(&[0]), Some(WorkerId(1)));
        assert_eq!(excluding(&[0, 1]), Some(WorkerId(2)));
        assert_eq!(excluding(&[0, 1, 2]), None);
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
                let set: WorkerSet = excluded.iter().copied().map(WorkerId).collect();
                assert_eq!(
                    index
                        .nearest_excluding_set(0, &q, &set)
                        .map(|w| (w.worker, w.distance.to_bits())),
                    WorkerIndex::nearest_brute_force(&pool, 0, &q, &set)
                        .map(|w| (w.worker, w.distance.to_bits())),
                    "query {q}, excluding {excluded:?}"
                );
            }
        }
    }

    #[test]
    fn filtered_search_probes_only_contenders() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::cmp::Ordering;

        let rank = |a: (f64, WorkerId), b: (f64, WorkerId)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        let mut rng = StdRng::seed_from_u64(0x0cc0);
        for case in 0..200 {
            // Integer coordinates on a small lattice, so many workers share a
            // distance (and some a location) and ids decide the ties.
            let n = rng.gen_range(1usize..=80);
            let side = rng.gen_range(2u32..=12);
            let points: Vec<(usize, f64, f64)> = (0..n)
                .map(|_| {
                    let x = rng.gen_range(0..=side) as f64;
                    (0, x, rng.gen_range(0..=side) as f64)
                })
                .collect();
            let pool = pool_of(&points);
            let index = WorkerIndex::build(&pool, 1, &Domain::square(side as f64));
            let share = [0.0, 0.3, 0.7, 0.95, 1.0][case % 5];
            let excluded: WorkerSet = (0..n as u32)
                .filter(|_| rng.gen_bool(share))
                .map(WorkerId)
                .collect();
            for _ in 0..8 {
                let q = Location::new(
                    rng.gen_range(-1..=side as i32 + 1) as f64,
                    rng.gen_range(-1..=side as i32 + 1) as f64,
                );
                let mut probed = WorkerSet::default();
                let mut best: Option<(f64, WorkerId)> = None;
                let found = index.nearest_filtered(0, &q, |w| {
                    assert!(
                        probed.insert(w.worker),
                        "case {case}: {:?} probed twice",
                        w.worker
                    );
                    let key = (q.distance(&w.location), w.worker);
                    assert!(
                        best.map_or(true, |b| rank(key, b) == Ordering::Less),
                        "case {case}: probed {key:?}, which ranks after {best:?}"
                    );
                    let skip = excluded.contains(&w.worker);
                    if !skip {
                        best = Some(key);
                    }
                    skip
                });
                let keys = |w: Option<NearestWorker>| w.map(|w| (w.worker, w.distance.to_bits()));
                assert_eq!(
                    keys(found),
                    keys(WorkerIndex::nearest_brute_force(&pool, 0, &q, &excluded)),
                    "case {case}, query {q}"
                );
                assert_eq!(found.map(|w| w.worker), best.map(|b| b.1), "case {case}");
            }
        }
    }

    #[test]
    fn nearest_excluding_set_skips_ids_missing_from_the_slot() {
        // Excluded ids that are not available during the slot must not hide
        // the slot's own workers.
        let pool = pool_of(&[(0, 1.0, 0.0), (0, 2.0, 0.0)]);
        let index = WorkerIndex::build(&pool, 1, &Domain::square(10.0));
        let set: WorkerSet = [WorkerId(0), WorkerId(7), WorkerId(9)]
            .into_iter()
            .collect();
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
    fn duplicate_worker_ids_index_only_the_first() {
        // The pool keeps both id-7 workers; the registry keeps the first, and
        // the index must hold exactly what the registry holds, or a removal
        // would leave the second entry behind as a ghost.
        let at = |v: f64| {
            vec![WorkerSlot {
                slot: 0,
                location: Location::new(v, v),
            }]
        };
        let pool = WorkerPool::new(vec![
            Worker::new(WorkerId(7), at(10.0)),
            Worker::new(WorkerId(7), at(90.0)),
        ]);
        let mut index = WorkerIndex::build(&pool, 1, &Domain::square(100.0));
        assert_eq!(index.total_workers(), 1);
        assert_eq!(index.available_count(0), 1);
        assert_eq!(index.indexed_entries(), 1);
        let far_corner = Location::new(95.0, 95.0);
        assert_eq!(
            index.nearest(0, &far_corner).unwrap().location,
            Location::new(10.0, 10.0)
        );
        assert_eq!(
            index.worker_profile(WorkerId(7)).unwrap().entries,
            vec![(0, Location::new(10.0, 10.0))]
        );
        assert!(index.remove_worker(WorkerId(7)).applied);
        assert_eq!(index.available_count(0), 0);
        assert!(index.nearest(0, &far_corner).is_none());
    }

    #[test]
    fn mutations_edit_cells_in_place_and_regrid_on_double_or_halve() {
        // Slot 0 is built with 4 workers.  Inserts touch one entry each until
        // the population doubles to 8, which re-grids all 8; moves never
        // re-grid; removals re-grid once the population halves to 4.
        let pool = pool_of(&[(0, 1.0, 1.0), (0, 3.0, 7.0), (0, 6.0, 2.0), (0, 9.0, 9.0)]);
        let mut index = WorkerIndex::build(&pool, 1, &Domain::square(10.0));
        let joiner = |id: u32| {
            let x = f64::from(id) - 9.5;
            Worker::new(
                WorkerId(id),
                vec![WorkerSlot {
                    slot: 0,
                    location: Location::new(x, 10.0 - x),
                }],
            )
        };
        let touched: Vec<usize> = (10..14)
            .map(|id| index.insert_worker(&joiner(id)).entries_touched)
            .collect();
        assert_eq!(touched, [1, 1, 1, 1 + 8]);
        let moved = index.move_worker(WorkerId(0), Location::new(5.0, 5.0));
        assert_eq!((moved.entries_touched, moved.rebuild_equiv_entries), (1, 8));
        let touched: Vec<usize> = (10..14)
            .map(|id| index.remove_worker(WorkerId(id)).entries_touched)
            .collect();
        assert_eq!(touched, [1, 1, 1, 1 + 4]);
        assert_eq!(
            index.nearest(0, &Location::new(5.2, 5.2)).unwrap().worker,
            WorkerId(0)
        );
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
            let slow =
                WorkerIndex::nearest_brute_force(&pool, 0, &q, &WorkerSet::default()).unwrap();
            assert!((fast.distance - slow.distance).abs() < 1e-9, "query {q}");
        }
    }
}
