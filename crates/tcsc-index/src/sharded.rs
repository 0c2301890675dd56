//! The tile-routed view over the dense index.
//!
//! [`ShardedWorkerIndex`] is one [`WorkerIndex`] plus a [`TileRouter`]: every
//! query and mutation forwards to the dense index, whose answers it therefore
//! gives by construction, and the router names the spatial tile (shard) that
//! owns a location.  The sharded engine's per-tile ledgers key occupancy by
//! that tile (see `tcsc-assign::engine::concurrent`), and
//! [`ShardedWorkerIndex::nearest_excluding_with`] hands its filter the tile
//! of each worker the dense search visits, so the filter consults only the
//! ledger shard of the tile the worker stands in.

use tcsc_core::{Domain, Location, SlotIndex, Worker, WorkerId, WorkerPool, WorkerSet};

use crate::spatial::{
    IndexMutation, MutableSpatialIndex, NearestWorker, SpatialQuery, WorkerIndex, WorkerProfile,
};
use crate::tiles::{ShardGridConfig, TileRouter};

/// A [`WorkerIndex`] whose workers are routed to the spatial tiles of a
/// [`ShardGridConfig`].  Answers every [`SpatialQuery`] exactly as the dense
/// index does.
#[derive(Debug, Clone)]
pub struct ShardedWorkerIndex {
    index: WorkerIndex,
    /// The tile layout and the location → tile routing rule.
    router: TileRouter,
}

impl ShardedWorkerIndex {
    /// Builds the dense index for the given pool over `num_slots` time slots
    /// within `domain`, routed by the given tile layout.
    pub fn build(
        pool: &WorkerPool,
        num_slots: usize,
        domain: &Domain,
        config: ShardGridConfig,
    ) -> Self {
        Self {
            index: WorkerIndex::build(pool, num_slots, domain),
            router: TileRouter::new(domain, config),
        }
    }

    /// Number of spatial shards (tiles).
    pub fn num_spatial_shards(&self) -> usize {
        self.router.grid.num_tiles()
    }

    /// The tile coordinates of a location, by [`TileRouter::tile_of`].
    pub fn tile_of(&self, loc: &Location) -> (usize, usize) {
        self.router.tile_of(loc)
    }

    /// The spatial shard (tile) id owning a location, by
    /// [`TileRouter::tile_id`].
    pub fn spatial_shard_of(&self, loc: &Location) -> usize {
        self.router.tile_id(loc)
    }

    /// The nearest worker to `query` during `slot` for which
    /// `occupied(spatial_shard, worker)` is false, where `spatial_shard` is
    /// the tile of the worker's location during `slot`: the dense index's
    /// filtered search, so it returns the minimum over non-excluded workers
    /// of `(distance.total_cmp, worker id)`.
    ///
    /// This is the occupancy query of the sharded engine, whose ledger shard
    /// `t` holds the commitments of the workers located in tile `t`.
    pub fn nearest_excluding_with(
        &self,
        slot: SlotIndex,
        query: &Location,
        mut occupied: impl FnMut(usize, WorkerId) -> bool,
    ) -> Option<NearestWorker> {
        self.index.nearest_filtered(slot, query, |w| {
            occupied(self.router.tile_id(&w.location), w.worker)
        })
    }
}

impl MutableSpatialIndex for ShardedWorkerIndex {
    fn insert_worker(&mut self, worker: &Worker) -> IndexMutation {
        self.index.insert_worker(worker)
    }

    fn remove_worker(&mut self, id: WorkerId) -> IndexMutation {
        self.index.remove_worker(id)
    }

    fn move_worker(&mut self, id: WorkerId, new_loc: Location) -> IndexMutation {
        self.index.move_worker(id, new_loc)
    }

    fn worker_profile(&self, id: WorkerId) -> Option<WorkerProfile> {
        self.index.worker_profile(id)
    }

    fn indexed_entries(&self) -> usize {
        self.index.indexed_entries()
    }

    fn occupancy_imbalance_milli(&self) -> u64 {
        self.index.occupancy_imbalance_milli()
    }
}

impl SpatialQuery for ShardedWorkerIndex {
    fn num_slots(&self) -> usize {
        self.index.num_slots()
    }

    fn total_workers(&self) -> usize {
        self.index.total_workers()
    }

    fn available_count(&self, slot: SlotIndex) -> usize {
        self.index.available_count(slot)
    }

    fn nearest(&self, slot: SlotIndex, query: &Location) -> Option<NearestWorker> {
        self.index.nearest(slot, query)
    }

    fn k_nearest(&self, slot: SlotIndex, query: &Location, count: usize) -> Vec<NearestWorker> {
        self.index.k_nearest(slot, query, count)
    }

    fn nearest_excluding_set(
        &self,
        slot: SlotIndex,
        query: &Location,
        excluded: &WorkerSet,
    ) -> Option<NearestWorker> {
        self.index.nearest_excluding_set(slot, query, excluded)
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
        assert_eq!(index.num_spatial_shards(), 4);
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
        let far = index.nearest(0, &Location::new(99.0, 99.0)).unwrap();
        assert_eq!(far.worker, WorkerId(1));
        assert_eq!(index.k_nearest(0, &Location::new(99.0, 99.0), 5).len(), 3);
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
        // Worker 0 stands in tile 0, so an exclusion filed under another
        // tile does not hide it.
        let elsewhere = index
            .nearest_excluding_with(0, &q, |s, w| s != shard0 && w == WorkerId(0))
            .unwrap();
        assert_eq!(elsewhere.worker, WorkerId(0));
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
        // Worker 0 at (-9, 12) lies outside the domain, so both the tile
        // router and the slot grid clamp it into a border tile/cell while
        // its true position lies beyond that rectangle.  A search bounding
        // border cells by their rectangles would stop at worker 1 (3, 0),
        // distance 13; worker 0 is ≈ 12.04 from the query.
        let pool = pool_of(&[(0, -9.0, 12.0), (0, 3.0, 0.0)]);
        let domain = Domain::square(40.0);
        let index = ShardedWorkerIndex::build(&pool, 1, &domain, ShardGridConfig::new(4, 4));
        let q = Location::new(-10.0, 0.0);
        assert_eq!(index.nearest(0, &q).unwrap().worker, WorkerId(0));
        assert_eq!(
            index.nearest_excluding_with(0, &q, |_, _| false),
            WorkerIndex::nearest_brute_force(&pool, 0, &q, &WorkerSet::default())
        );
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
        assert_eq!(m.entries_touched, 1, "one entry edited in its cell");
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
        // The dense grid's cells are the buckets.  Balanced: two workers
        // build a one-cell grid holding both.
        let pool = pool_of(&[(0, 1.0, 1.0), (0, 9.0, 9.0)]);
        let index =
            ShardedWorkerIndex::build(&pool, 1, &Domain::square(10.0), ShardGridConfig::new(2, 2));
        assert_eq!(index.occupancy_imbalance_milli(), 1000);
        // Skewed: four workers build a 2x2 grid with 3 workers in one cell
        // and 1 in another -> max/mean = 3/2.
        let pool = pool_of(&[(0, 1.0, 1.0), (0, 1.2, 1.2), (0, 1.4, 1.4), (0, 9.0, 9.0)]);
        let index =
            ShardedWorkerIndex::build(&pool, 1, &Domain::square(10.0), ShardGridConfig::new(2, 2));
        assert_eq!(index.occupancy_imbalance_milli(), 1500);
    }
}
