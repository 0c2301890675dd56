//! The open-loop service workloads (`svc-rush`, `mob-churn`) on a replayed
//! clock.
//!
//! Arrivals are pre-generated from the seeded heavy-tailed schedule and cut
//! into 5 ms ticks.  Batch `k` is exactly the tasks due in tick `k`, so the
//! plans never depend on timing.  Each tick the loop retires plans whose
//! service window ended, applies the fleet motions due, then submits and
//! drains the batch; every one of those engine calls is timed.  The commit
//! time of batch `k` is `max(close_k, commit_{k-1}) + busy_k`, and a task's
//! latency is its commit time minus its due time.  The generator replays a
//! tape, so it never runs late.

use std::collections::VecDeque;
use std::time::Instant;

use tcsc_assign::{AssignmentEngine, ConcurrentAssignmentEngine, MultiTaskConfig};
use tcsc_core::{AssignmentPlan, CostModel, EuclideanCost, Task};
use tcsc_index::{ShardGridConfig, ShardedWorkerIndex, WorkerIndex};
use tcsc_obs::ObsSession;
use tcsc_workload::{
    ArrivalTrace, BoundedPareto, HeavyTailedArrivals, MotionTape, PhaseSchedule, ScenarioConfig,
    SpatialDistribution, WorkerChurnConfig, WorkerMotion,
};

use crate::adapter::Engine;
use crate::pass::{call, probe_state_build, Pass};

/// Replayed-clock tick: one drain per tick.
const TICK_US: u64 = 5_000;
/// Slots per service task.
const NUM_SLOTS: usize = 2;
/// Budget per task of a drain.
const TASK_BUDGET: f64 = 8.0;

/// The fixed shape of one service workload.
#[derive(Debug, Clone, Copy)]
pub struct ServiceSpec {
    pub workers: usize,
    /// Tasks streamed per pass.
    pub tasks: usize,
    /// Bounded-Pareto inter-arrival bounds in µs (tail index 1.5), at the
    /// calm rate; the rush divides the gaps by four.
    pub inter_arrival_us: (f64, f64),
    /// How long a committed plan holds its workers before it retires.
    pub service_us: u64,
    /// Sharded engine: the tile grid and thread count, plus fleet churn.
    pub sharded: Option<(ShardGridConfig, usize)>,
}

/// `svc-rush`: the serial engine on the dense index, static fleet.
pub const SVC_RUSH: ServiceSpec = ServiceSpec {
    workers: 800,
    tasks: 40_000,
    inter_arrival_us: (150.0, 20_000.0),
    service_us: 40_000,
    sharded: None,
};

/// `mob-churn`: the concurrent engine on the sharded index, moving fleet.
pub const MOB_CHURN: ServiceSpec = ServiceSpec {
    workers: 2_400,
    tasks: 30_000,
    inter_arrival_us: (150.0, 20_000.0),
    service_us: 20_000,
    sharded: Some((
        ShardGridConfig {
            tiles_x: 5,
            tiles_y: 5,
            time_splits: 1,
        },
        2,
    )),
};

/// One tick of the replayed stream.
#[derive(Debug, Default)]
pub struct Tick {
    /// `(due µs, task)` of every arrival due in the tick.
    pub arrivals: Vec<(u64, Task)>,
    /// Fleet motions applied before the tick's drain.
    pub motions: Vec<WorkerMotion>,
}

/// The index a service workload's engine runs on.
#[derive(Debug)]
pub enum ServiceIndex {
    /// The serial engine's dense index.
    Dense(WorkerIndex),
    /// The concurrent engine's sharded index and its thread count.
    Sharded(ShardedWorkerIndex, usize),
}

/// A service workload's generated inputs and built index.
#[derive(Debug)]
pub struct ServiceInput {
    pub spec: ServiceSpec,
    pub ticks: Vec<Tick>,
    pub index: ServiceIndex,
    /// Scenario, arrival and motion-tape generation, ms.
    pub gen_ms: f64,
    /// Index build, ms.
    pub build_ms: f64,
}

/// Generates the workload from `seed` and builds its index.
pub fn setup(spec: ServiceSpec, seed: u64) -> ServiceInput {
    let start = Instant::now();
    let scenario = ScenarioConfig::small()
        .with_num_slots(NUM_SLOTS)
        .with_num_workers(spec.workers)
        .with_seed(seed)
        .build();
    let arrivals = HeavyTailedArrivals {
        seed: seed ^ 0x5eed_a771,
        inter_arrival_us: BoundedPareto::new(1.5, spec.inter_arrival_us.0, spec.inter_arrival_us.1),
        schedule: PhaseSchedule::rush_hour(200_000, 50_000, 4.0),
        num_slots: NUM_SLOTS,
        distribution: SpatialDistribution::Uniform,
        domain: scenario.domain,
    };
    let trace = ArrivalTrace::heavy_tailed(&arrivals, spec.tasks);
    // Enough ticks for the last arrival plus every plan's service window.
    let num_ticks = (trace.duration_us() + spec.service_us) / TICK_US + 2;
    let mut ticks: Vec<Tick> = (0..num_ticks).map(|_| Tick::default()).collect();
    for arrival in trace.arrivals {
        ticks[(arrival.at_us / TICK_US) as usize]
            .arrivals
            .push((arrival.at_us, arrival.task));
    }
    if spec.sharded.is_some() {
        let churn = WorkerChurnConfig {
            seed: seed ^ 0xc4_0123,
            tick_us: TICK_US,
            moves_per_tick: 6,
            churn_prob: 0.3,
            drift_fraction: 0.25,
            num_slots: NUM_SLOTS,
            domain: scenario.domain,
        };
        // Motion tick `t` lands at `t * TICK_US`: due by the close of tick
        // `t - 1`.
        let tape = MotionTape::generate(&churn, &scenario.workers, num_ticks as usize - 1);
        for event in tape.events {
            ticks[(event.at_us / TICK_US) as usize - 1]
                .motions
                .push(event.motion);
        }
    }
    let gen_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let index = match spec.sharded {
        None => ServiceIndex::Dense(WorkerIndex::build(
            &scenario.workers,
            NUM_SLOTS,
            &scenario.domain,
        )),
        Some((grid, threads)) => ServiceIndex::Sharded(
            ShardedWorkerIndex::build(&scenario.workers, NUM_SLOTS, &scenario.domain, grid),
            threads,
        ),
    };
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    ServiceInput {
        spec,
        ticks,
        index,
        gen_ms,
        build_ms,
    }
}

/// Runs one pass on a fresh engine; `traced` attaches a wall-clock session
/// to the engine and runs the probes.
pub fn run_pass(input: &ServiceInput, traced: bool) -> Pass {
    let cost = EuclideanCost::default();
    let config = MultiTaskConfig::new(0.0);
    let session = ObsSession::wall();
    let mut pass = match &input.index {
        ServiceIndex::Dense(index) => {
            let engine = AssignmentEngine::borrowed(index, &cost, config);
            if traced {
                drive(
                    &mut engine.with_recorder(&session),
                    input,
                    Some(&session),
                    &cost,
                )
            } else {
                drive(&mut { engine }, input, None, &cost)
            }
        }
        ServiceIndex::Sharded(index, threads) => {
            let engine = ConcurrentAssignmentEngine::new(index.clone(), &cost, config, *threads);
            if traced {
                drive(
                    &mut engine.with_recorder(&session),
                    input,
                    Some(&session),
                    &cost,
                )
            } else {
                drive(&mut { engine }, input, None, &cost)
            }
        }
    };
    if traced {
        pass.layers.absorb(&session);
    }
    pass
}

/// The tick loop shared by both service workloads.
fn drive<E: Engine>(
    engine: &mut E,
    input: &ServiceInput,
    obs: Option<&ObsSession>,
    cost: &dyn CostModel,
) -> Pass {
    let traced = obs.is_some();
    let mut pass = Pass::new();
    pass.layers.ledger_capacity = input.spec.workers * NUM_SLOTS;
    let mut retire: VecDeque<(u64, AssignmentPlan)> = VecDeque::new();
    // Batches submitted but not yet committed on the replayed clock.
    let mut in_flight: VecDeque<(u64, usize)> = VecDeque::new();
    let mut commit_prev_ns = 0u64;

    for (k, tick) in input.ticks.iter().enumerate() {
        let close_us = (k as u64 + 1) * TICK_US;
        let close_ns = close_us * 1_000;
        let due = tick.arrivals.len();
        // Whether the tick calls the engine at all: a round on the services.
        let round = due > 0
            || !tick.motions.is_empty()
            || retire.front().is_some_and(|(at, _)| *at <= close_us);
        let mut busy_ns = 0u64;

        // Retired-plan GC.
        while retire.front().is_some_and(|(at, _)| *at <= close_us) {
            let (_, plan) = retire.pop_front().expect("front checked");
            let (released, ns) = call(obs, "bench.release_plan", || engine.release(&plan));
            busy_ns += ns;
            pass.layers.released += released as u64;
            if traced {
                pass.layers.release_us.push(ns as f64 / 1e3);
            }
            pass.checker.release(&plan);
        }

        // Fleet motion due by the tick close.
        for motion in &tick.motions {
            let before = engine.ledger_len();
            let (mutation, ns) = call(obs, "bench.mutate", || engine.apply(motion));
            busy_ns += ns;
            if !mutation.applied {
                pass.checker.fail(format!("motion rejected: {motion:?}"));
            }
            pass.layers.entries_spliced += mutation.entries_touched as u64;
            pass.layers.rebuild_equiv += mutation.rebuild_equiv_entries as u64;
            if traced {
                pass.layers.mutate_us.push(ns as f64 / 1e3);
            }
            if let WorkerMotion::Offline { id } = motion {
                // `remove_worker` frees the worker's commitments itself.
                let freed = before - engine.ledger_len();
                let held = pass.checker.remove_worker(*id);
                if freed != held {
                    pass.checker
                        .fail(format!("removing {id:?} freed {freed}, held {held}"));
                }
                pass.layers.released += freed as u64;
            }
        }
        pass.layers.invalidation_refreshes += engine.churn().cache_refreshes;

        if due > 0 {
            let tasks: Vec<Task> = tick.arrivals.iter().map(|(_, t)| t.clone()).collect();
            let budget = due as f64 * TASK_BUDGET;
            if traced {
                engine.probe_knn(&tasks, &mut pass.layers.knn);
                let config = MultiTaskConfig::new(budget);
                probe_state_build(&tasks, engine.query(), cost, &config, &mut pass.layers);
            }
            let batch = tasks.clone();
            let ((), ns) = call(obs, "bench.submit", || {
                engine.set_budget(budget);
                engine.submit(batch);
            });
            busy_ns += ns;
            let (outcome, ns) = call(obs, "bench.drain", || engine.drain());
            busy_ns += ns;
            pass.layers.drain_ms.push(ns as f64 / 1e6);

            pass.checker
                .solve(&tasks, &outcome, budget, |slot, worker| {
                    engine.available(slot, worker)
                });
            pass.quality(&outcome);
            pass.min_quality.push(outcome.min_quality());
            pass.layers.solve(&outcome, due);
            pass.tasks += due;
            for plan in outcome.assignment.plans {
                if !plan.executions.is_empty() {
                    retire.push_back((close_us + input.spec.service_us, plan));
                }
            }

            while in_flight
                .front()
                .is_some_and(|(commit, _)| *commit <= close_ns)
            {
                in_flight.pop_front();
            }
            let backlog = in_flight.iter().map(|(_, n)| n).sum::<usize>() + due;
            pass.layers.backlog_peak = pass.layers.backlog_peak.max(backlog);

            let commit_ns = close_ns.max(commit_prev_ns) + busy_ns;
            for (due_us, _) in &tick.arrivals {
                pass.latency_ms
                    .push((commit_ns - due_us * 1_000) as f64 / 1e6);
            }
            in_flight.push_back((commit_ns, due));
            commit_prev_ns = commit_ns;
        } else {
            commit_prev_ns = close_ns.max(commit_prev_ns) + busy_ns;
        }
        if round {
            pass.round_ms.push(busy_ns as f64 / 1e6);
        }
        pass.busy_ns += busy_ns;
        let held = engine.ledger_len();
        pass.layers.ledger_peak = pass.layers.ledger_peak.max(held);
        pass.checker.ledger(held);
    }

    if !retire.is_empty() {
        pass.checker
            .fail(format!("{} plans outlived the tape", retire.len()));
    }
    if engine.ledger_len() != 0 {
        pass.checker
            .fail(format!("{} commitments left after GC", engine.ledger_len()));
    }
    if pass.layers.released != pass.checker.executions {
        pass.checker.fail(format!(
            "released {} of {} executions",
            pass.layers.released, pass.checker.executions
        ));
    }
    pass.layers.imbalance_milli = engine.imbalance_milli();
    pass.span_ns = commit_prev_ns.max(input.ticks.len() as u64 * TICK_US * 1_000);
    pass
}
