//! The closed-loop re-planning workload (`batch-replan`).
//!
//! One caller re-plans a fresh seeded batch per round: it solves the batch
//! under a budget sweep for both objectives through `assign_batch`, with
//! `release_all` between solves, so every solve after the first of a round
//! reuses the engine's warm candidate cache.  A round is one request.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tcsc_assign::{AssignmentEngine, MultiTaskConfig, Objective};
use tcsc_core::{EuclideanCost, Task};
use tcsc_index::WorkerIndex;
use tcsc_obs::{ObsSession, Recorder};
use tcsc_workload::{generate_tasks, ScenarioConfig, SpatialDistribution};

use crate::adapter::Engine;
use crate::pass::{call, probe_state_build, Pass};

const TASKS: usize = 128;
const SLOTS: usize = 96;
const WORKERS: usize = 4_000;
/// Rounds per pass, each on its own batch.
const ROUNDS: usize = 16;
/// The budget sweep, per task.  `MinQuality` reaches `q_min > 0` on all of
/// them.
const BUDGETS_PER_TASK: [f64; 2] = [3.0, 6.0];
const OBJECTIVES: [Objective; 2] = [Objective::SumQuality, Objective::MinQuality];

/// The workload's generated batches and built index.
#[derive(Debug)]
pub struct ReplanInput {
    pub index: WorkerIndex,
    pub batches: Vec<Vec<Task>>,
    pub gen_ms: f64,
    pub build_ms: f64,
}

/// Generates the fleet and one batch per round from `seed`, and builds the
/// index.
pub fn setup(seed: u64) -> ReplanInput {
    let start = Instant::now();
    let scenario = ScenarioConfig::small()
        .with_num_tasks(TASKS)
        .with_num_slots(SLOTS)
        .with_num_workers(WORKERS)
        .with_seed(seed)
        .build();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c_4e5a);
    let batches = (0..ROUNDS)
        .map(|_| {
            generate_tasks(
                &mut rng,
                TASKS,
                SLOTS,
                &SpatialDistribution::Uniform,
                &scenario.domain,
            )
        })
        .collect();
    let gen_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let index = WorkerIndex::build(&scenario.workers, SLOTS, &scenario.domain);
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    ReplanInput {
        index,
        batches,
        gen_ms,
        build_ms,
    }
}

/// Runs one pass (every batch once) on a fresh engine.
pub fn run_pass(input: &ReplanInput, traced: bool) -> Pass {
    let cost = EuclideanCost::default();
    let engine = AssignmentEngine::borrowed(&input.index, &cost, MultiTaskConfig::new(0.0));
    if traced {
        let session = ObsSession::wall();
        let mut pass = drive(
            &mut engine.with_recorder(&session),
            input,
            Some(&session),
            &cost,
        );
        pass.layers.absorb(&session);
        pass
    } else {
        drive(&mut { engine }, input, None, &cost)
    }
}

fn drive<R: Recorder>(
    engine: &mut AssignmentEngine<'_, R>,
    input: &ReplanInput,
    obs: Option<&ObsSession>,
    cost: &EuclideanCost,
) -> Pass {
    let traced = obs.is_some();
    let mut pass = Pass::new();
    pass.layers.ledger_capacity = input.index.total_workers() * SLOTS;
    let start = Instant::now();
    for batch in &input.batches {
        let mut round_ns = 0u64;
        for (i, (per_task, objective)) in BUDGETS_PER_TASK
            .iter()
            .flat_map(|b| OBJECTIVES.iter().map(move |o| (*b, *o)))
            .enumerate()
        {
            let budget = per_task * TASKS as f64;
            if traced && i == 0 {
                // Only the round's first solve misses the cache and queries
                // the index; the ledger is empty then.
                engine.probe_knn(batch, &mut pass.layers.knn);
                let config = MultiTaskConfig::new(budget);
                probe_state_build(batch, &input.index, cost, &config, &mut pass.layers);
            }
            let ((), ns) = call(obs, "bench.set_budget", || engine.set_budget(budget));
            round_ns += ns;
            let (outcome, ns) = call(obs, "bench.assign_batch", || {
                engine.assign_batch(batch, objective)
            });
            round_ns += ns;
            pass.layers.drain_ms.push(ns as f64 / 1e6);

            pass.checker.solve(batch, &outcome, budget, |slot, worker| {
                Engine::available(&*engine, slot, worker)
            });
            pass.checker.ledger(engine.ledger().len());
            pass.layers.ledger_peak = pass.layers.ledger_peak.max(engine.ledger().len());
            pass.quality(&outcome);
            if objective == Objective::MinQuality {
                pass.min_quality.push(outcome.min_quality());
            }
            pass.layers.solve(&outcome, batch.len());
            pass.tasks += batch.len();

            let held = engine.ledger().len();
            let ((), ns) = call(obs, "bench.release_all", || engine.release_all());
            round_ns += ns;
            if traced {
                pass.layers.release_us.push(ns as f64 / 1e3);
            }
            pass.layers.released += held as u64;
            pass.checker.release_all();
            pass.checker.ledger(engine.ledger().len());
        }
        // The round is the caller's request: its latency is its busy time.
        pass.latency_ms.push(round_ns as f64 / 1e6);
        pass.round_ms.push(round_ns as f64 / 1e6);
        pass.busy_ns += round_ns;
    }
    pass.layers.backlog_peak = TASKS;
    pass.layers.imbalance_milli = Engine::imbalance_milli(&*engine);
    pass.span_ns = start.elapsed().as_nanos() as u64;
    pass
}
