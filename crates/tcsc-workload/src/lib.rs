//! # tcsc-workload
//!
//! Workload generators and synthetic datasets for the TCSC experiments:
//!
//! * [`distribution`] — uniform / Gaussian / Zipfian / clustered spatial
//!   distributions of task locations (Section V-A of the paper);
//! * [`tasks`] — TCSC task generation;
//! * [`trajectory`] — synthetic worker trajectories and availability windows
//!   (the substitute for the T-Drive taxi dataset);
//! * [`poi`] — a synthetic clustered POI dataset (the substitute for the
//!   Beijing POI dataset);
//! * [`scenario`] — the paper's default parameter sets bundled into
//!   reproducible, seeded scenarios;
//! * [`streaming`] — task batches arriving over rounds, for the batched /
//!   streaming assignment engine;
//! * [`events`] — scenario → event-trace conversion: timed task-arrival
//!   traces for the discrete-event distributed runtime (`tcsc-sim`), plus
//!   heavy-tailed service streams (bounded-Pareto inter-arrivals under a
//!   cyclic rush-hour [`PhaseSchedule`], sampled one arrival at a time by
//!   the O(1)-memory [`ArrivalSampler`]) and seeded worker-motion tapes
//!   ([`MotionTape`]: waypoint drift + session churn) for the mobile-worker
//!   service driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distribution;
pub mod events;
pub mod poi;
pub mod scenario;
pub mod streaming;
pub mod tasks;
pub mod trajectory;

pub use distribution::SpatialDistribution;
pub use events::{
    ArrivalPhase, ArrivalSampler, ArrivalTrace, BoundedPareto, HeavyTailedArrivals, MotionEvent,
    MotionTape, PhaseSchedule, TaskArrival, WorkerChurnConfig, WorkerMotion,
};
pub use poi::{PoiConfig, PoiDataset};
pub use scenario::{Scenario, ScenarioConfig, TaskPlacement};
pub use streaming::{StreamingConfig, StreamingScenario};
pub use tasks::{generate_tasks, tasks_from_locations};
pub use trajectory::{generate_workers, TrajectoryConfig};
