//! One small adapter per engine: every call the service loop makes into an
//! engine goes through [`Engine`], so the loop itself is engine-agnostic.
//!
//! The adapters also replay checkout's k-NN query stream against the live
//! index and ledger (the traced run's k-NN probe), since that stream is
//! reached differently on the dense and the sharded engine.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use tcsc_assign::{
    AssignmentEngine, ChurnCounters, ConcurrentAssignmentEngine, MultiOutcome, Objective,
};
use tcsc_core::{AssignmentPlan, SlotIndex, Task, WorkerId};
use tcsc_index::{IndexMutation, MutableSpatialIndex, SpatialQuery};
use tcsc_obs::Recorder;
use tcsc_workload::WorkerMotion;

/// Per-call timings of the k-NN probe.
#[derive(Debug, Default)]
pub struct KnnProbe {
    /// Wall time of every probed query, µs.
    pub us: Vec<f64>,
    /// Queries that had to skip occupied workers.
    pub excluding: usize,
    /// Sum of the excluded-set sizes of those queries.
    pub excluded_total: usize,
}

impl KnnProbe {
    fn time<T>(&mut self, query: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(query());
        self.us.push(start.elapsed().as_secs_f64() * 1e6);
        out
    }
}

/// The engine calls of the service loop.
pub trait Engine {
    /// Sets the budget of the next drain.
    fn set_budget(&mut self, budget: f64);
    /// Queues a batch for the next drain.
    fn submit(&mut self, tasks: Vec<Task>);
    /// Solves the queued batch (MSQM) and commits its occupancy.
    fn drain(&mut self) -> MultiOutcome;
    /// Retires a plan, returning the commitments released.
    fn release(&mut self, plan: &AssignmentPlan) -> usize;
    /// Applies one fleet motion through the engine's mutation API.
    fn apply(&mut self, motion: &WorkerMotion) -> IndexMutation;
    /// Commitments currently held by the engine's ledger.
    fn ledger_len(&self) -> usize;
    /// Whether the engine's index holds `worker` at `slot`.
    fn available(&self, slot: SlotIndex, worker: WorkerId) -> bool;
    /// Index churn since the last drain.
    fn churn(&self) -> ChurnCounters;
    /// Bucket-occupancy imbalance of the index (max/mean × 1000).
    fn imbalance_milli(&self) -> u64;
    /// The engine's index, for the state-build probe.
    fn query(&self) -> &dyn SpatialQuery;
    /// Replays checkout's k-NN query stream for `tasks` against the live
    /// index and ledger, timing every query.
    fn probe_knn(&self, tasks: &[Task], probe: &mut KnnProbe);
}

fn holds(index: &impl MutableSpatialIndex, slot: SlotIndex, worker: WorkerId) -> bool {
    index
        .worker_profile(worker)
        .is_some_and(|p| p.entries.iter().any(|(s, _)| *s == slot))
}

/// The serial engine on the dense index (`svc-rush`).
impl<R: Recorder> Engine for AssignmentEngine<'_, R> {
    fn set_budget(&mut self, budget: f64) {
        AssignmentEngine::set_budget(self, budget);
    }

    fn submit(&mut self, tasks: Vec<Task>) {
        AssignmentEngine::submit(self, tasks);
    }

    fn drain(&mut self) -> MultiOutcome {
        AssignmentEngine::drain(self, Objective::SumQuality)
    }

    fn release(&mut self, plan: &AssignmentPlan) -> usize {
        self.release_plan(plan)
    }

    fn apply(&mut self, motion: &WorkerMotion) -> IndexMutation {
        match motion {
            WorkerMotion::Move { id, to } => self.move_worker(*id, *to),
            WorkerMotion::Offline { id } => self.remove_worker(*id),
            WorkerMotion::Online { worker } => self.insert_worker(worker),
        }
    }

    fn ledger_len(&self) -> usize {
        self.ledger().len()
    }

    fn available(&self, slot: SlotIndex, worker: WorkerId) -> bool {
        holds(self.index(), slot, worker)
    }

    fn churn(&self) -> ChurnCounters {
        AssignmentEngine::churn(self)
    }

    fn imbalance_milli(&self) -> u64 {
        self.index().occupancy_imbalance_milli()
    }

    fn query(&self) -> &dyn SpatialQuery {
        self.index()
    }

    /// Checkout computes each slot's nearest worker, then re-queries with the
    /// slot's occupancy set wherever that worker is taken.
    fn probe_knn(&self, tasks: &[Task], probe: &mut KnnProbe) {
        let index = self.index();
        let ledger = self.ledger();
        for task in tasks {
            for slot in 0..task.num_slots {
                let Some(base) = probe.time(|| index.nearest(slot, &task.location)) else {
                    continue;
                };
                if let Some(excluded) = ledger
                    .occupied_set_at(slot)
                    .filter(|set| set.contains(&base.worker))
                {
                    probe.time(|| index.nearest_excluding_set(slot, &task.location, excluded));
                    probe.excluding += 1;
                    probe.excluded_total += excluded.len();
                }
            }
        }
    }
}

/// The concurrent engine on the sharded index (`mob-churn`).  It has no
/// `release_plan`, so plans retire through the public sharded ledger, routed
/// to the shard owning the worker's current location at the slot.
impl<R: Recorder> Engine for ConcurrentAssignmentEngine<'_, R> {
    fn set_budget(&mut self, budget: f64) {
        ConcurrentAssignmentEngine::set_budget(self, budget);
    }

    fn submit(&mut self, tasks: Vec<Task>) {
        ConcurrentAssignmentEngine::submit(self, tasks);
    }

    fn drain(&mut self) -> MultiOutcome {
        self.drain_parallel(Objective::SumQuality)
    }

    fn release(&mut self, plan: &AssignmentPlan) -> usize {
        let index = self.index();
        let ledger = self.ledger();
        plan.executions
            .iter()
            .filter(|exec| {
                let Some(profile) = index.worker_profile(exec.worker) else {
                    // Went offline: `remove_worker` already freed it.
                    return false;
                };
                profile
                    .entries
                    .iter()
                    .find(|(slot, _)| *slot == exec.slot)
                    .is_some_and(|(_, loc)| {
                        ledger.release(index.spatial_shard_of(loc), exec.slot, exec.worker)
                    })
            })
            .count()
    }

    fn apply(&mut self, motion: &WorkerMotion) -> IndexMutation {
        match motion {
            WorkerMotion::Move { id, to } => self.move_worker(*id, *to),
            WorkerMotion::Offline { id } => self.remove_worker(*id),
            WorkerMotion::Online { worker } => self.insert_worker(worker),
        }
    }

    fn ledger_len(&self) -> usize {
        self.ledger().len()
    }

    fn available(&self, slot: SlotIndex, worker: WorkerId) -> bool {
        holds(self.index(), slot, worker)
    }

    fn churn(&self) -> ChurnCounters {
        ConcurrentAssignmentEngine::churn(self)
    }

    fn imbalance_milli(&self) -> u64 {
        self.index().occupancy_imbalance_milli()
    }

    fn query(&self) -> &dyn SpatialQuery {
        self.index()
    }

    /// Checkout computes each slot's nearest worker, then runs the
    /// shard-filtered search wherever that worker is taken.  The ledger is
    /// snapshotted first so the probe takes no shard locks per worker.
    fn probe_knn(&self, tasks: &[Task], probe: &mut KnnProbe) {
        let index = self.index();
        let commitments = self.ledger().commitments();
        let mut per_slot: HashMap<SlotIndex, usize> = HashMap::new();
        for (_, slot, _) in &commitments {
            *per_slot.entry(*slot).or_default() += 1;
        }
        let occupied: HashSet<(usize, SlotIndex, WorkerId)> = commitments.into_iter().collect();
        for task in tasks {
            for slot in 0..task.num_slots {
                let Some(base) = probe.time(|| index.nearest(slot, &task.location)) else {
                    continue;
                };
                if occupied.contains(&(index.spatial_shard_of(&base.location), slot, base.worker)) {
                    probe.time(|| {
                        index.nearest_excluding_with(slot, &task.location, |shard, worker| {
                            occupied.contains(&(shard, slot, worker))
                        })
                    });
                    probe.excluding += 1;
                    probe.excluded_total += per_slot.get(&slot).copied().unwrap_or(0);
                }
            }
        }
    }
}
