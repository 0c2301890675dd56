//! # tcsc-core
//!
//! Core data model and quality metric for **Time-Continuous Spatial
//! Crowdsourcing (TCSC)**, reproducing the system described in
//! *"On Efficient and Scalable Time-Continuous Spatial Crowdsourcing"*
//! (ICDE 2021, arXiv:2010.15404).
//!
//! A TCSC task observes one location for a long duration split into `m` time
//! slots; workers with registered availability windows are assigned to
//! individual slots (subtasks).  Because budgets and worker availability are
//! limited, not every slot can be probed, and the unprobed slots are inferred
//! by temporal k-NN inverse-distance interpolation.  The crate provides:
//!
//! * the data model: [`model::Task`], [`model::Subtask`], [`model::Worker`],
//!   [`model::WorkerPool`], locations and the spatial [`model::Domain`];
//! * the cost model and budget accounting: [`cost::CostModel`],
//!   [`cost::EuclideanCost`], [`cost::Budget`];
//! * the entropy-based quality metric with its reliability extension:
//!   [`quality::QualityEvaluator`];
//! * the spatiotemporal (STCC) extension of the metric:
//!   [`spatiotemporal::SpatioTemporalEvaluator`];
//! * assignment-plan result types: [`assignment::AssignmentPlan`],
//!   [`assignment::MultiAssignment`];
//! * the FNV-1a [`fnv::plan_hash`] and stream [`fnv::fold`] every pinned
//!   plan hash and delivery digest is computed with.
//!
//! Assignment algorithms (greedy `Approx`, index-accelerated `Approx*`,
//! exhaustive `OPT`, randomized baselines, and the multi-task / parallel
//! frameworks) live in the `tcsc-assign` crate; indexing structures in
//! `tcsc-index`; workload generators in `tcsc-workload`.
//!
//! ## Example
//!
//! ```
//! use tcsc_core::quality::QualityEvaluator;
//!
//! // A task with 10 slots, interpolating from the 3 nearest executed slots.
//! let mut quality = QualityEvaluator::with_slots(10, 3);
//! assert_eq!(quality.quality(), 0.0);
//!
//! // Executing subtasks raises the entropy-based quality monotonically,
//! // up to log2(10) when everything is executed.
//! quality.execute(2);
//! quality.execute(7);
//! assert!(quality.quality() > 0.0);
//! assert!(quality.quality() <= 10f64.log2());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod cost;
pub mod fnv;
pub mod model;
pub mod quality;
pub mod spatiotemporal;

pub use assignment::{AssignmentPlan, ExecutedSubtask, MultiAssignment};
pub use cost::{Budget, CandidateAssignment, CostModel, EuclideanCost};
pub use model::{
    Domain, IdHasher, Location, SlotIndex, Subtask, Task, TaskId, Worker, WorkerId, WorkerPool,
    WorkerSet, WorkerSlot,
};
pub use quality::{ExecutedSlot, Neighbor, QualityEvaluator, QualityParams};
pub use spatiotemporal::{InterpolationWeights, SpatioTemporalEvaluator};
