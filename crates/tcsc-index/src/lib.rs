//! # tcsc-index
//!
//! Indexing structures for Time-Continuous Spatial Crowdsourcing (TCSC):
//!
//! * [`voronoi`] — the exact one-dimensional order-k Voronoi diagram over a
//!   task's executed slots, capturing the locality of temporal k-NN search
//!   (Section III-C of the paper);
//! * [`vtree`] — the approximated Voronoi diagram indexed by an aggregated
//!   binary tree, with exact quality-gain computation that reuses unaffected
//!   subtree aggregates, and the best-first search with upper-bound pruning
//!   used by the `Approx*` algorithm;
//! * [`spatial`] — a per-time-slot uniform grid over worker locations for
//!   nearest-available-worker queries (worker cost retrieval), whose worker
//!   insert/remove/move edit single grid cells in place, staying
//!   bit-identical to a from-scratch rebuild; and the [`SpatialQuery`] /
//!   [`MutableSpatialIndex`] traits shared by every worker index;
//! * [`sharded`] — that dense index seen through a [`TileRouter`]: the same
//!   answers, plus the spatial tile owning each worker, which the sharded
//!   engine's per-tile ledgers key occupancy by;
//! * [`tiles`] — the tile layout ([`ShardGridConfig`]) and the border-clamp
//!   [`TileRouter`] that maps a location to its tile, shared by the sharded
//!   view and the simulated cluster's dispatcher.
//!
//! These indexes are consumed by the assignment algorithms in `tcsc-assign`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sharded;
pub mod spatial;
pub mod tiles;
pub mod voronoi;
pub mod vtree;

pub use sharded::ShardedWorkerIndex;
pub use spatial::{
    IndexMutation, IndexedWorker, MutableSpatialIndex, NearestWorker, SpatialQuery, WorkerIndex,
    WorkerProfile,
};
pub use tiles::{ShardGridConfig, TileRouter};
pub use voronoi::{site_knn_set, OrderKVoronoi, VoronoiCell};
pub use vtree::{BestSlot, SearchStats, VTree, VTreeConfig};
