//! # tcsc-sim
//!
//! A deterministic discrete-event simulation of a **distributed TCSC
//! runtime**, following the component/event-queue architecture of the dslab
//! simulation framework:
//!
//! * [`kernel`] — the simulation kernel: virtual clock, binary-heap event
//!   queue with stable `(time, seq)` ordering, FIFO links, and the
//!   [`kernel::Component`] trait with typed message delivery;
//! * [`latency`] — seeded network-latency models (zero / fixed / uniform
//!   jitter), reproducible per seed;
//! * [`messages`] — the runtime's network protocol, wrapping the
//!   master/owner protocol of `tcsc-assign::multi::protocol`;
//! * [`node`] — [`node::RegionNode`] components owning the task states of
//!   their spatial shards, computing against one shared read-only worker
//!   index;
//! * [`dispatcher`] — the [`dispatcher::Dispatcher`] component routing tasks
//!   by their [`tcsc_index::TileRouter`] tile, driving the barrier
//!   task-parallel master over the simulated network and rejecting any
//!   double grant of a `(slot, worker)`;
//! * [`cluster`] — one-call assembly: build the cluster, feed timed task
//!   arrivals, run to quiescence, collect the [`cluster::SimOutcome`].
//!
//! # Guarantees
//!
//! * **Determinism** — same seed, same inputs ⇒ identical delivery
//!   timeline ([`cluster::SimOutcome::delivery_digest`]), plans, conflicts
//!   and executions, for every latency model.
//! * **Engine bit-identity** — the committed results (plans, conflicts,
//!   executions, cache counters) are identical to the in-process
//!   [`tcsc_assign::AssignmentEngine`] for *any* node count and latency
//!   model; with zero latency and a single node the run degrades to exactly
//!   the engine's loop.  Locked in by `tests/sim_equivalence.rs`, which
//!   compares plans through [`tcsc_core::fnv::plan_hash`] — the same hash
//!   the kernel's delivery digest folds bytes with.
//!
//! The simulated runtime is the third driver of the paper's task-level
//! master (Section IV-A.2), next to the serial engine and the threaded
//! task-parallel framework: it shows that message latency and task
//! placement over nodes move the virtual timeline but never a decision, and
//! it feeds the `fig9dist` (timeline vs node count × latency) and `fig9obs`
//! (layout-invariant logical digest) figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod dispatcher;
pub mod kernel;
pub mod latency;
pub mod messages;
pub mod node;

pub use cluster::{run_cluster, SimBatch, SimClusterConfig, SimOutcome};
pub use dispatcher::{Dispatcher, DispatcherReport};
pub use kernel::{Component, ComponentId, Context, Message, SimTime, Simulation};
pub use latency::LatencyModel;
pub use messages::NetMessage;
pub use node::RegionNode;
