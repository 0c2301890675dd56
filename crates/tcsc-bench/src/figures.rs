//! Per-figure experiment drivers.
//!
//! Every public function regenerates one figure of the paper's evaluation and
//! returns the plotted series as [`Experiment`] rows.  The `Scale` parameter
//! switches between CI-sized workloads (`Quick`) and workloads close to the
//! paper's parameters (`Full`).

use rand::rngs::StdRng;
use rand::SeedableRng;

use tcsc::solver::{Runtime, SolveObjective, SolverBuilder};
use tcsc_assign::candidates::SlotCandidates;
use tcsc_assign::{
    approx, approx_star, independence_graph, msqm_rebuild, optimal, random_summary,
    AssignmentEngine, ConcurrentAssignmentEngine, MultiTaskConfig, Objective, SingleTaskConfig,
    SpatioTemporalObjective,
};
use tcsc_core::{EuclideanCost, InterpolationWeights};
use tcsc_index::{ShardGridConfig, ShardedWorkerIndex, WorkerIndex};
use tcsc_workload::{
    PoiConfig, ScenarioConfig, SpatialDistribution, StreamingConfig, TaskPlacement,
};

use crate::{best_of, prepare_multi, prepare_single, timed, Experiment, Row, Scale};

/// Shorthand: a [`SolverBuilder`] seeded from a figure's `MultiTaskConfig`.
///
/// Every multi-task figure routes through the facade; the prebuilt dense
/// index stays outside the timed regions via [`SolverBuilder::solve_indexed`].
fn builder(cfg: &MultiTaskConfig) -> SolverBuilder {
    SolverBuilder::new(cfg.budget).with_config(*cfg)
}

/// Workload sizes per scale.
struct Params {
    /// `m` used for quality experiments where OPT must stay feasible.
    opt_slots: usize,
    /// `m` sweep for the single-task efficiency experiments (Fig. 8).
    m_sweep: Vec<usize>,
    /// Worker-count sweep for Fig. 8(b).
    worker_sweep: Vec<usize>,
    /// Default worker count.
    workers: usize,
    /// Task-count sweep for the multi-task experiments (Fig. 9).
    task_sweep: Vec<usize>,
    /// Default task count.
    tasks: usize,
    /// Default `m` for multi-task experiments.
    multi_slots: usize,
    /// Core-count sweep for Fig. 9(a)(f).
    cores: Vec<usize>,
    /// Randomized-baseline repetitions.
    rand_runs: usize,
}

fn params(scale: Scale) -> Params {
    match scale {
        Scale::Quick => Params {
            opt_slots: 14,
            m_sweep: vec![100, 200, 300],
            worker_sweep: vec![500, 1000, 2000],
            workers: 1000,
            task_sweep: vec![4, 8, 12],
            tasks: 8,
            multi_slots: 60,
            cores: vec![1, 2, 4, 8],
            rand_runs: 10,
        },
        Scale::Full => Params {
            opt_slots: 18,
            m_sweep: vec![300, 500, 1000],
            worker_sweep: vec![5000, 7500, 10000],
            workers: 10_357,
            task_sweep: vec![100, 300, 500],
            tasks: 100,
            multi_slots: 300,
            cores: vec![1, 2, 4, 8, 10, 12, 16],
            rand_runs: 20,
        },
    }
}

/// The three synthetic distributions plus the POI ("real") placement.
fn placements() -> Vec<TaskPlacement> {
    vec![
        TaskPlacement::Synthetic(SpatialDistribution::Uniform),
        TaskPlacement::Synthetic(SpatialDistribution::Gaussian),
        TaskPlacement::Synthetic(SpatialDistribution::zipf_default()),
        TaskPlacement::Poi(PoiConfig::default()),
    ]
}

fn synthetic_placements() -> Vec<TaskPlacement> {
    placements().into_iter().take(3).collect()
}

/// The cost of executing every available slot of the prepared task; budgets
/// are expressed as fractions of it, mirroring the paper's "12.5% / 25% /
/// 50% of the average task cost" calibration.
fn full_cost(candidates: &SlotCandidates) -> f64 {
    (0..candidates.len())
        .filter_map(|j| candidates.cost(j))
        .sum()
}

// ---------------------------------------------------------------------------
// Figure 6: quality of the single-task case
// ---------------------------------------------------------------------------

/// Fig. 6(a): single-task average quality per task-location distribution
/// (RandMin, RandMax, Opt, Approx).
pub fn fig6a(scale: Scale) -> Experiment {
    let p = params(scale);
    let mut rows = Vec::new();
    for placement in placements() {
        let cfg = ScenarioConfig::small()
            .with_num_slots(p.opt_slots)
            .with_num_workers(p.workers.min(2000))
            .with_placement(placement.clone());
        let prepared = prepare_single(&cfg);
        let budget = 0.25 * full_cost(&prepared.candidates);
        let single = SingleTaskConfig::new(budget);
        let mut rng = StdRng::seed_from_u64(7);
        let rand = random_summary(
            &mut rng,
            &prepared.task,
            &prepared.candidates,
            &single,
            p.rand_runs,
        );
        let opt = optimal(&prepared.task, &prepared.candidates, &single);
        let greedy = approx(&prepared.task, &prepared.candidates, &single);
        rows.push(Row::new(
            placement.label(),
            vec![
                ("RandMin".into(), rand.min),
                ("RandMax".into(), rand.max),
                ("Opt".into(), opt.quality),
                ("Approx".into(), greedy.plan.quality),
            ],
        ));
    }
    Experiment {
        id: "fig6a",
        caption: "Single-task quality vs task-location distribution",
        rows,
    }
}

/// Fig. 6(b): single-task quality vs budget (Opt, Approx, RandAvg).
pub fn fig6b(scale: Scale) -> Experiment {
    let p = params(scale);
    let cfg = ScenarioConfig::small()
        .with_num_slots(p.opt_slots)
        .with_num_workers(p.workers.min(2000));
    let prepared = prepare_single(&cfg);
    let full = full_cost(&prepared.candidates);
    let mut rows = Vec::new();
    for fraction in [0.15, 0.25, 0.35] {
        let single = SingleTaskConfig::new(fraction * full);
        let mut rng = StdRng::seed_from_u64(11);
        let rand = random_summary(
            &mut rng,
            &prepared.task,
            &prepared.candidates,
            &single,
            p.rand_runs,
        );
        let opt = optimal(&prepared.task, &prepared.candidates, &single);
        let greedy = approx(&prepared.task, &prepared.candidates, &single);
        rows.push(Row::new(
            format!("b={:.0}%", fraction * 100.0),
            vec![
                ("Opt".into(), opt.quality),
                ("Approx".into(), greedy.plan.quality),
                ("RandAvg".into(), rand.avg),
            ],
        ));
    }
    Experiment {
        id: "fig6b",
        caption: "Single-task quality vs budget",
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figure 7: quality of the multi-task case
// ---------------------------------------------------------------------------

fn multi_rand_baseline(
    prepared: &crate::PreparedMulti,
    config: &MultiTaskConfig,
    runs: usize,
) -> (f64, f64, f64, f64) {
    // Randomized multi-task baseline: the budget is split evenly over tasks
    // and each task assigns random subtasks to its nearest workers.  Returns
    // (sum of per-task min, sum of per-task max, min over tasks of avg,
    //  max over tasks of avg).
    let per_task_budget = config.budget / prepared.scenario.tasks.len().max(1) as f64;
    let cost_model = EuclideanCost::default();
    let mut sum_min = 0.0;
    let mut sum_max = 0.0;
    let mut min_avg = f64::INFINITY;
    let mut max_avg: f64 = 0.0;
    for (i, task) in prepared.scenario.tasks.iter().enumerate() {
        let candidates = SlotCandidates::compute(task, &prepared.index, &cost_model);
        let single = SingleTaskConfig::new(per_task_budget).with_k(config.k);
        let mut rng = StdRng::seed_from_u64(100 + i as u64);
        let rand = random_summary(&mut rng, task, &candidates, &single, runs);
        sum_min += rand.min;
        sum_max += rand.max;
        min_avg = min_avg.min(rand.avg);
        max_avg = max_avg.max(rand.avg);
    }
    if !min_avg.is_finite() {
        min_avg = 0.0;
    }
    (sum_min, sum_max, min_avg, max_avg)
}

fn multi_scenario(p: &Params, placement: TaskPlacement) -> ScenarioConfig {
    ScenarioConfig::small()
        .with_num_tasks(p.tasks)
        .with_num_slots(p.multi_slots)
        .with_num_workers(p.workers.min(3000))
        .with_placement(placement)
}

/// Fig. 7(a): multi-task summation quality per distribution.
pub fn fig7a(scale: Scale) -> Experiment {
    let p = params(scale);
    let mut rows = Vec::new();
    for placement in synthetic_placements() {
        let prepared = prepare_multi(&multi_scenario(&p, placement.clone()));
        let budget = budget_for_multi(&prepared, 0.25);
        let cfg = MultiTaskConfig::new(budget);
        let (rand_min, rand_max, _, _) = multi_rand_baseline(&prepared, &cfg, p.rand_runs.min(5));
        let outcome = builder(&cfg).solve_indexed(
            &prepared.scenario.tasks,
            &prepared.index,
            &prepared.scenario.domain,
            &EuclideanCost::default(),
        );
        rows.push(Row::new(
            placement.label(),
            vec![
                ("RandMin".into(), rand_min),
                ("RandMax".into(), rand_max),
                ("Approx".into(), outcome.sum_quality()),
            ],
        ));
    }
    Experiment {
        id: "fig7a",
        caption: "Multi-task summation quality vs distribution (q_sum)",
        rows,
    }
}

/// Budget for a multi-task scenario: `fraction` of the total full-completion
/// cost of all tasks.
fn budget_for_multi(prepared: &crate::PreparedMulti, fraction: f64) -> f64 {
    let cost_model = EuclideanCost::default();
    let total: f64 = prepared
        .scenario
        .tasks
        .iter()
        .map(|t| full_cost(&SlotCandidates::compute(t, &prepared.index, &cost_model)))
        .sum();
    fraction * total
}

/// Fig. 7(b): multi-task summation quality vs budget.
pub fn fig7b(scale: Scale) -> Experiment {
    let p = params(scale);
    let prepared = prepare_multi(&multi_scenario(
        &p,
        TaskPlacement::Synthetic(SpatialDistribution::Uniform),
    ));
    let mut rows = Vec::new();
    for fraction in [0.125, 0.25, 0.375, 0.5] {
        let budget = budget_for_multi(&prepared, fraction);
        let cfg = MultiTaskConfig::new(budget);
        let (_, _, _, _) = (0.0, 0.0, 0.0, 0.0);
        let (rand_min, rand_max, _, _) = multi_rand_baseline(&prepared, &cfg, 3);
        let outcome = builder(&cfg).solve_indexed(
            &prepared.scenario.tasks,
            &prepared.index,
            &prepared.scenario.domain,
            &EuclideanCost::default(),
        );
        rows.push(Row::new(
            format!("b={:.1}%", fraction * 100.0),
            vec![
                ("Approx".into(), outcome.sum_quality()),
                ("RandAvg".into(), (rand_min + rand_max) / 2.0),
            ],
        ));
    }
    Experiment {
        id: "fig7b",
        caption: "Multi-task summation quality vs budget (q_sum)",
        rows,
    }
}

/// Fig. 7(c): multi-task minimum quality per distribution.
pub fn fig7c(scale: Scale) -> Experiment {
    let p = params(scale);
    let mut rows = Vec::new();
    for placement in synthetic_placements() {
        let prepared = prepare_multi(&multi_scenario(&p, placement.clone()));
        let budget = budget_for_multi(&prepared, 0.25);
        let cfg = MultiTaskConfig::new(budget);
        let (_, _, rand_min_avg, rand_max_avg) =
            multi_rand_baseline(&prepared, &cfg, p.rand_runs.min(5));
        let outcome = builder(&cfg)
            .with_objective(SolveObjective::MinQuality)
            .solve_indexed(
                &prepared.scenario.tasks,
                &prepared.index,
                &prepared.scenario.domain,
                &EuclideanCost::default(),
            );
        rows.push(Row::new(
            placement.label(),
            vec![
                ("RandMin".into(), rand_min_avg),
                ("RandMax".into(), rand_max_avg),
                ("Approx".into(), outcome.min_quality()),
            ],
        ));
    }
    Experiment {
        id: "fig7c",
        caption: "Multi-task minimum quality vs distribution (q_min)",
        rows,
    }
}

/// Fig. 7(d): multi-task minimum quality vs budget.
pub fn fig7d(scale: Scale) -> Experiment {
    let p = params(scale);
    let prepared = prepare_multi(&multi_scenario(
        &p,
        TaskPlacement::Synthetic(SpatialDistribution::Uniform),
    ));
    let mut rows = Vec::new();
    for fraction in [0.125, 0.25, 0.375, 0.5] {
        let budget = budget_for_multi(&prepared, fraction);
        let cfg = MultiTaskConfig::new(budget);
        let (_, _, rand_min_avg, _) = multi_rand_baseline(&prepared, &cfg, 3);
        let outcome = builder(&cfg)
            .with_objective(SolveObjective::MinQuality)
            .solve_indexed(
                &prepared.scenario.tasks,
                &prepared.index,
                &prepared.scenario.domain,
                &EuclideanCost::default(),
            );
        rows.push(Row::new(
            format!("b={:.1}%", fraction * 100.0),
            vec![
                ("Approx".into(), outcome.min_quality()),
                ("RandAvg".into(), rand_min_avg),
            ],
        ));
    }
    Experiment {
        id: "fig7d",
        caption: "Multi-task minimum quality vs budget (q_min)",
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figure 8: efficiency of the single-task case
// ---------------------------------------------------------------------------

fn single_efficiency_scenario(
    m: usize,
    workers: usize,
    placement: TaskPlacement,
) -> ScenarioConfig {
    ScenarioConfig::small()
        .with_num_slots(m)
        .with_num_workers(workers)
        .with_placement(placement)
}

/// Fig. 8(a): single-task running time vs `m` (Approx vs Approx*).
pub fn fig8a(scale: Scale) -> Experiment {
    let p = params(scale);
    let mut rows = Vec::new();
    for &m in &p.m_sweep {
        let prepared = prepare_single(&single_efficiency_scenario(
            m,
            p.workers,
            TaskPlacement::Synthetic(SpatialDistribution::Uniform),
        ));
        let budget = 0.25 * full_cost(&prepared.candidates);
        let cfg = SingleTaskConfig::new(budget);
        let (_, plain_ms) = timed(|| approx(&prepared.task, &prepared.candidates, &cfg));
        let (_, fast_ms) = timed(|| approx_star(&prepared.task, &prepared.candidates, &cfg));
        rows.push(Row::new(
            format!("m={m}"),
            vec![("Approx".into(), plain_ms), ("Approx*".into(), fast_ms)],
        ));
    }
    Experiment {
        id: "fig8a",
        caption: "Single-task time (ms) vs number of subtasks m",
        rows,
    }
}

/// Fig. 8(b): single-task running time vs number of workers.
pub fn fig8b(scale: Scale) -> Experiment {
    let p = params(scale);
    let m = p.m_sweep[p.m_sweep.len() / 2];
    let mut rows = Vec::new();
    for &w in &p.worker_sweep {
        let prepared = prepare_single(&single_efficiency_scenario(
            m,
            w,
            TaskPlacement::Synthetic(SpatialDistribution::Uniform),
        ));
        let budget = 0.25 * full_cost(&prepared.candidates);
        let cfg = SingleTaskConfig::new(budget);
        let (_, plain_ms) = timed(|| approx(&prepared.task, &prepared.candidates, &cfg));
        let (_, fast_ms) = timed(|| approx_star(&prepared.task, &prepared.candidates, &cfg));
        rows.push(Row::new(
            format!("|W|={w}"),
            vec![("Approx".into(), plain_ms), ("Approx*".into(), fast_ms)],
        ));
    }
    Experiment {
        id: "fig8b",
        caption: "Single-task time (ms) vs number of workers",
        rows,
    }
}

/// Fig. 8(c): time breakdown of Approx vs Approx* (worker cost retrieval,
/// heuristic calculation / k-NN interpolation, tree construction).
pub fn fig8c(scale: Scale) -> Experiment {
    let p = params(scale);
    let m = p.m_sweep[p.m_sweep.len() / 2];
    let prepared = prepare_single(&single_efficiency_scenario(
        m,
        p.workers,
        TaskPlacement::Synthetic(SpatialDistribution::Uniform),
    ));
    let budget = 0.25 * full_cost(&prepared.candidates);
    let cfg = SingleTaskConfig::new(budget);
    let (plain, plain_ms) = timed(|| approx(&prepared.task, &prepared.candidates, &cfg));
    let (fast, fast_ms) = timed(|| approx_star(&prepared.task, &prepared.candidates, &cfg));
    Experiment {
        id: "fig8c",
        caption: "Time breakdown (ms) of Approx and Approx*",
        rows: vec![
            Row::new(
                "Approx",
                vec![
                    ("WorkerCostRetrieval".into(), prepared.retrieval_ms),
                    (
                        "HeuristicCalc".into(),
                        plain.stats.heuristic_seconds * 1000.0,
                    ),
                    ("Total".into(), plain_ms + prepared.retrieval_ms),
                ],
            ),
            Row::new(
                "Approx*",
                vec![
                    ("WorkerCostRetrieval".into(), prepared.retrieval_ms),
                    ("HeuristicCalc".into(), fast.timings.search * 1000.0),
                    (
                        "TreeConstruction".into(),
                        fast.timings.tree_construction * 1000.0,
                    ),
                    (
                        "TreeMaintenance".into(),
                        fast.timings.tree_maintenance * 1000.0,
                    ),
                    ("Total".into(), fast_ms + prepared.retrieval_ms),
                ],
            ),
        ],
    }
}

/// Fig. 8(d): pruning ratio of Approx* vs `m`, per distribution.
pub fn fig8d(scale: Scale) -> Experiment {
    let p = params(scale);
    let mut rows = Vec::new();
    for &m in &p.m_sweep {
        let mut values = Vec::new();
        for placement in placements() {
            let prepared =
                prepare_single(&single_efficiency_scenario(m, p.workers, placement.clone()));
            let budget = 0.25 * full_cost(&prepared.candidates);
            let outcome = approx_star(
                &prepared.task,
                &prepared.candidates,
                &SingleTaskConfig::new(budget),
            );
            values.push((
                placement.label().to_string(),
                outcome.search_stats.pruning_ratio() * 100.0,
            ));
        }
        rows.push(Row::new(format!("m={m}"), values));
    }
    Experiment {
        id: "fig8d",
        caption: "Pruning ratio (%) of Approx* vs m, per distribution",
        rows,
    }
}

/// Fig. 8(e): tree construction time vs the split threshold `ts`.
pub fn fig8e(scale: Scale) -> Experiment {
    let p = params(scale);
    let m = *p.m_sweep.last().unwrap();
    let prepared = prepare_single(&single_efficiency_scenario(
        m,
        p.workers,
        TaskPlacement::Synthetic(SpatialDistribution::Uniform),
    ));
    let budget = 0.25 * full_cost(&prepared.candidates);
    let mut rows = Vec::new();
    for ts in [2usize, 3, 4, 5, 6, 8, 10] {
        let outcome = approx_star(
            &prepared.task,
            &prepared.candidates,
            &SingleTaskConfig::new(budget).with_ts(ts),
        );
        rows.push(Row::new(
            format!("ts={ts}"),
            vec![
                (
                    "TreeConstructionMs".into(),
                    outcome.timings.tree_construction * 1000.0,
                ),
                ("TreeNodes".into(), outcome.tree_nodes as f64),
            ],
        ));
    }
    Experiment {
        id: "fig8e",
        caption: "Tree construction time vs split threshold ts",
        rows,
    }
}

/// Fig. 8(f): effect of the task-location distribution on running time.
pub fn fig8f(scale: Scale) -> Experiment {
    let p = params(scale);
    let m = p.m_sweep[p.m_sweep.len() / 2];
    let mut rows = Vec::new();
    for placement in synthetic_placements() {
        let prepared = prepare_single(&single_efficiency_scenario(m, p.workers, placement.clone()));
        let budget = 0.25 * full_cost(&prepared.candidates);
        let cfg = SingleTaskConfig::new(budget);
        let (_, plain_ms) = timed(|| approx(&prepared.task, &prepared.candidates, &cfg));
        let (_, fast_ms) = timed(|| approx_star(&prepared.task, &prepared.candidates, &cfg));
        rows.push(Row::new(
            placement.label(),
            vec![("Approx*".into(), fast_ms), ("Approx".into(), plain_ms)],
        ));
    }
    Experiment {
        id: "fig8f",
        caption: "Single-task time (ms) vs task-location distribution",
        rows,
    }
}

/// Fig. 8(g): effect of the interpolation parameter `k`.
pub fn fig8g(scale: Scale) -> Experiment {
    let p = params(scale);
    let m = p.m_sweep[p.m_sweep.len() / 2];
    let prepared = prepare_single(&single_efficiency_scenario(
        m,
        p.workers,
        TaskPlacement::Synthetic(SpatialDistribution::Uniform),
    ));
    let budget = 0.25 * full_cost(&prepared.candidates);
    let mut rows = Vec::new();
    for k in [1usize, 2, 3, 5, 7, 10] {
        let cfg = SingleTaskConfig::new(budget).with_k(k);
        let (_, plain_ms) = timed(|| approx(&prepared.task, &prepared.candidates, &cfg));
        let (_, fast_ms) = timed(|| approx_star(&prepared.task, &prepared.candidates, &cfg));
        rows.push(Row::new(
            format!("k={k}"),
            vec![("Approx".into(), plain_ms), ("Approx*".into(), fast_ms)],
        ));
    }
    Experiment {
        id: "fig8g",
        caption: "Single-task time (ms) vs interpolation parameter k",
        rows,
    }
}

/// Fig. 8(h): Approx* running time vs budget, per distribution.
pub fn fig8h(scale: Scale) -> Experiment {
    let p = params(scale);
    let m = p.m_sweep[p.m_sweep.len() / 2];
    let mut rows = Vec::new();
    for fraction in [0.125, 0.25, 0.5] {
        let mut values = Vec::new();
        for placement in placements() {
            let prepared =
                prepare_single(&single_efficiency_scenario(m, p.workers, placement.clone()));
            let budget = fraction * full_cost(&prepared.candidates);
            let (_, fast_ms) = timed(|| {
                approx_star(
                    &prepared.task,
                    &prepared.candidates,
                    &SingleTaskConfig::new(budget),
                )
            });
            values.push((placement.label().to_string(), fast_ms));
        }
        rows.push(Row::new(format!("b={:.1}%", fraction * 100.0), values));
    }
    Experiment {
        id: "fig8h",
        caption: "Approx* time (ms) vs budget, per distribution",
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figure 9: efficiency of the multi-task case
// ---------------------------------------------------------------------------

/// Fig. 9(a): multi-task running time vs number of cores (task-level,
/// group-level, without parallelization).
pub fn fig9a(scale: Scale) -> Experiment {
    let p = params(scale);
    let prepared = prepare_multi(&multi_scenario(
        &p,
        TaskPlacement::Synthetic(SpatialDistribution::Uniform),
    ));
    let budget = budget_for_multi(&prepared, 0.25);
    let cfg = MultiTaskConfig::new(budget);
    let cost_model = EuclideanCost::default();
    let (_, serial_ms) = timed(|| {
        builder(&cfg).solve_indexed(
            &prepared.scenario.tasks,
            &prepared.index,
            &prepared.scenario.domain,
            &cost_model,
        )
    });
    let mut rows = Vec::new();
    for &cores in &p.cores {
        let (_, task_ms) = timed(|| {
            builder(&cfg)
                .with_runtime(Runtime::TaskParallel)
                .with_threads(cores)
                .with_priorities(true)
                .solve_indexed(
                    &prepared.scenario.tasks,
                    &prepared.index,
                    &prepared.scenario.domain,
                    &cost_model,
                )
        });
        let (_, group_ms) = timed(|| {
            builder(&cfg)
                .with_runtime(Runtime::GroupParallel)
                .with_threads(cores)
                .solve_indexed(
                    &prepared.scenario.tasks,
                    &prepared.index,
                    &prepared.scenario.domain,
                    &cost_model,
                )
        });
        rows.push(Row::new(
            format!("cores={cores}"),
            vec![
                ("TaskLevel".into(), task_ms),
                ("GroupLevel".into(), group_ms),
                ("NoParallel".into(), serial_ms),
            ],
        ));
    }
    Experiment {
        id: "fig9a",
        caption: "Multi-task time (ms) vs number of cores",
        rows,
    }
}

/// Fig. 9(b): multi-task running time and worker conflicts vs distribution.
pub fn fig9b(scale: Scale) -> Experiment {
    let p = params(scale);
    let cores = *p.cores.last().unwrap();
    let cost_model = EuclideanCost::default();
    let mut rows = Vec::new();
    for placement in synthetic_placements() {
        let prepared = prepare_multi(&multi_scenario(&p, placement.clone()));
        let budget = budget_for_multi(&prepared, 0.25);
        let cfg = MultiTaskConfig::new(budget);
        let (task_outcome, task_ms) = timed(|| {
            builder(&cfg)
                .with_runtime(Runtime::TaskParallel)
                .with_threads(cores)
                .with_priorities(true)
                .solve_indexed(
                    &prepared.scenario.tasks,
                    &prepared.index,
                    &prepared.scenario.domain,
                    &cost_model,
                )
        });
        let (_, group_ms) = timed(|| {
            builder(&cfg)
                .with_runtime(Runtime::GroupParallel)
                .with_threads(cores)
                .solve_indexed(
                    &prepared.scenario.tasks,
                    &prepared.index,
                    &prepared.scenario.domain,
                    &cost_model,
                )
        });
        rows.push(Row::new(
            placement.label(),
            vec![
                ("TaskLevel".into(), task_ms),
                ("GroupLevel".into(), group_ms),
                ("WorkerConflicts".into(), task_outcome.conflicts as f64),
            ],
        ));
    }
    Experiment {
        id: "fig9b",
        caption: "Multi-task time (ms) and worker conflicts vs distribution",
        rows,
    }
}

/// Fig. 9(c): worker conflicts vs number of tasks, per distribution.
pub fn fig9c(scale: Scale) -> Experiment {
    let p = params(scale);
    let cost_model = EuclideanCost::default();
    let mut rows = Vec::new();
    for &t in &p.task_sweep {
        let mut values = Vec::new();
        for placement in placements() {
            let prepared = prepare_multi(&multi_scenario(&p, placement.clone()).with_num_tasks(t));
            let budget = budget_for_multi(&prepared, 0.25);
            let cfg = MultiTaskConfig::new(budget);
            let outcome = builder(&cfg).solve_indexed(
                &prepared.scenario.tasks,
                &prepared.index,
                &prepared.scenario.domain,
                &cost_model,
            );
            let graph = independence_graph(&prepared.scenario.tasks, &prepared.index, 4);
            values.push((
                placement.label().to_string(),
                (outcome.conflicts + graph.conflict_count()) as f64,
            ));
        }
        rows.push(Row::new(format!("|T|={t}"), values));
    }
    Experiment {
        id: "fig9c",
        caption: "Worker conflicts vs number of tasks, per distribution",
        rows,
    }
}

/// Fig. 9(d): multi-task running time vs number of tasks.
pub fn fig9d(scale: Scale) -> Experiment {
    let p = params(scale);
    let cores = *p.cores.last().unwrap();
    let cost_model = EuclideanCost::default();
    let mut rows = Vec::new();
    for &t in &p.task_sweep {
        let prepared = prepare_multi(
            &multi_scenario(&p, TaskPlacement::Synthetic(SpatialDistribution::Uniform))
                .with_num_tasks(t),
        );
        let budget = budget_for_multi(&prepared, 0.25);
        let cfg = MultiTaskConfig::new(budget);
        let (_, task_ms) = timed(|| {
            builder(&cfg)
                .with_runtime(Runtime::TaskParallel)
                .with_threads(cores)
                .with_priorities(true)
                .solve_indexed(
                    &prepared.scenario.tasks,
                    &prepared.index,
                    &prepared.scenario.domain,
                    &cost_model,
                )
        });
        let (_, group_ms) = timed(|| {
            builder(&cfg)
                .with_runtime(Runtime::GroupParallel)
                .with_threads(cores)
                .solve_indexed(
                    &prepared.scenario.tasks,
                    &prepared.index,
                    &prepared.scenario.domain,
                    &cost_model,
                )
        });
        rows.push(Row::new(
            format!("|T|={t}"),
            vec![
                ("TaskLevel".into(), task_ms),
                ("GroupLevel".into(), group_ms),
            ],
        ));
    }
    Experiment {
        id: "fig9d",
        caption: "Multi-task time (ms) vs number of tasks",
        rows,
    }
}

/// Fig. 9(e): multi-task running time vs `m`, per distribution (task-level).
pub fn fig9e(scale: Scale) -> Experiment {
    let p = params(scale);
    let cores = *p.cores.last().unwrap();
    let cost_model = EuclideanCost::default();
    let m_values: Vec<usize> = p
        .m_sweep
        .iter()
        .map(|&m| m.min(p.multi_slots * 4))
        .collect();
    let mut rows = Vec::new();
    for &m in &m_values {
        let mut values = Vec::new();
        for placement in placements() {
            let prepared = prepare_multi(&multi_scenario(&p, placement.clone()).with_num_slots(m));
            let budget = budget_for_multi(&prepared, 0.25);
            let cfg = MultiTaskConfig::new(budget);
            let (_, ms) = timed(|| {
                builder(&cfg)
                    .with_runtime(Runtime::TaskParallel)
                    .with_threads(cores)
                    .with_priorities(true)
                    .solve_indexed(
                        &prepared.scenario.tasks,
                        &prepared.index,
                        &prepared.scenario.domain,
                        &cost_model,
                    )
            });
            values.push((placement.label().to_string(), ms));
        }
        rows.push(Row::new(format!("m={m}"), values));
    }
    Experiment {
        id: "fig9e",
        caption: "Multi-task time (ms) vs m, per distribution (task-level)",
        rows,
    }
}

/// Fig. 9(f): effect of dynamic thread priorities on the task-level framework.
pub fn fig9f(scale: Scale) -> Experiment {
    let p = params(scale);
    let prepared = prepare_multi(&multi_scenario(
        &p,
        TaskPlacement::Synthetic(SpatialDistribution::Uniform),
    ));
    let budget = budget_for_multi(&prepared, 0.25);
    let cfg = MultiTaskConfig::new(budget);
    let cost_model = EuclideanCost::default();
    let mut rows = Vec::new();
    for &cores in &p.cores {
        let (_, with_ms) = timed(|| {
            builder(&cfg)
                .with_runtime(Runtime::TaskParallel)
                .with_threads(cores)
                .with_priorities(true)
                .solve_indexed(
                    &prepared.scenario.tasks,
                    &prepared.index,
                    &prepared.scenario.domain,
                    &cost_model,
                )
        });
        let (_, without_ms) = timed(|| {
            builder(&cfg)
                .with_runtime(Runtime::TaskParallel)
                .with_threads(cores)
                .with_priorities(false)
                .solve_indexed(
                    &prepared.scenario.tasks,
                    &prepared.index,
                    &prepared.scenario.domain,
                    &cost_model,
                )
        });
        rows.push(Row::new(
            format!("cores={cores}"),
            vec![("Priority".into(), with_ms), ("Default".into(), without_ms)],
        ));
    }
    Experiment {
        id: "fig9f",
        caption: "Task-level parallelization time (ms): priority vs default",
        rows,
    }
}

/// Fig. 9(g): MMQM running time vs number of tasks (Approx vs Approx*).
pub fn fig9g(scale: Scale) -> Experiment {
    let p = params(scale);
    let cost_model = EuclideanCost::default();
    let mut rows = Vec::new();
    for &t in &p.task_sweep {
        let prepared = prepare_multi(
            &multi_scenario(&p, TaskPlacement::Synthetic(SpatialDistribution::Uniform))
                .with_num_tasks(t),
        );
        let budget = budget_for_multi(&prepared, 0.25);
        let (_, plain_ms) = timed(|| {
            builder(&MultiTaskConfig::new(budget).with_index(false))
                .with_objective(SolveObjective::MinQuality)
                .solve_indexed(
                    &prepared.scenario.tasks,
                    &prepared.index,
                    &prepared.scenario.domain,
                    &cost_model,
                )
        });
        let (_, fast_ms) = timed(|| {
            builder(&MultiTaskConfig::new(budget))
                .with_objective(SolveObjective::MinQuality)
                .solve_indexed(
                    &prepared.scenario.tasks,
                    &prepared.index,
                    &prepared.scenario.domain,
                    &cost_model,
                )
        });
        rows.push(Row::new(
            format!("|T|={t}"),
            vec![("Approx".into(), plain_ms), ("Approx*".into(), fast_ms)],
        ));
    }
    Experiment {
        id: "fig9g",
        caption: "MMQM time (ms) vs number of tasks",
        rows,
    }
}

/// Fig. 9(h): MMQM running time vs `m` (Approx vs Approx*).
pub fn fig9h(scale: Scale) -> Experiment {
    let p = params(scale);
    let cost_model = EuclideanCost::default();
    let mut rows = Vec::new();
    for &m in &p.m_sweep {
        let prepared = prepare_multi(
            &multi_scenario(&p, TaskPlacement::Synthetic(SpatialDistribution::Uniform))
                .with_num_slots(m),
        );
        let budget = budget_for_multi(&prepared, 0.25);
        let (_, plain_ms) = timed(|| {
            builder(&MultiTaskConfig::new(budget).with_index(false))
                .with_objective(SolveObjective::MinQuality)
                .solve_indexed(
                    &prepared.scenario.tasks,
                    &prepared.index,
                    &prepared.scenario.domain,
                    &cost_model,
                )
        });
        let (_, fast_ms) = timed(|| {
            builder(&MultiTaskConfig::new(budget))
                .with_objective(SolveObjective::MinQuality)
                .solve_indexed(
                    &prepared.scenario.tasks,
                    &prepared.index,
                    &prepared.scenario.domain,
                    &cost_model,
                )
        });
        rows.push(Row::new(
            format!("m={m}"),
            vec![("Approx".into(), plain_ms), ("Approx*".into(), fast_ms)],
        ));
    }
    Experiment {
        id: "fig9h",
        caption: "MMQM time (ms) vs number of subtasks m",
        rows,
    }
}

/// Fig. 9(i) — repo extension beyond the paper: throughput of the batched
/// engine vs the rebuild-per-call baseline on a re-planning sweep (the same
/// task batch solved under several budgets, as in the paper's budget
/// ablations).  The rebuild baseline recomputes every task's candidates per
/// call; the engine serves repeated solves from its incremental candidate
/// cache.  Slot-computation counters are reported alongside wall-clock time.
pub fn fig9i(scale: Scale) -> Experiment {
    let p = params(scale);
    let cost_model = EuclideanCost::default();
    let mut rows = Vec::new();
    for &t in &p.task_sweep {
        let prepared = prepare_multi(
            &multi_scenario(&p, TaskPlacement::Synthetic(SpatialDistribution::Uniform))
                .with_num_tasks(t),
        );
        let tasks = &prepared.scenario.tasks;
        let budgets: Vec<f64> = [0.125, 0.25, 0.375, 0.5]
            .iter()
            .map(|&f| budget_for_multi(&prepared, f))
            .collect();

        let (rebuild_slots, rebuild_ms) = timed(|| {
            let mut slots = 0usize;
            for &budget in &budgets {
                let outcome = msqm_rebuild(
                    tasks,
                    &prepared.index,
                    &cost_model,
                    &MultiTaskConfig::new(budget),
                );
                slots += outcome.stats.slot_computations;
            }
            slots
        });
        let (engine_slots, engine_ms) = timed(|| {
            let mut engine = AssignmentEngine::borrowed(
                &prepared.index,
                &cost_model,
                MultiTaskConfig::new(budgets[0]),
            );
            for &budget in &budgets {
                engine.release_all();
                engine.set_budget(budget);
                engine.assign_batch(tasks, Objective::SumQuality);
            }
            engine.stats().slot_computations
        });
        rows.push(Row::new(
            format!("|T|={t}"),
            vec![
                ("Rebuild".into(), rebuild_ms),
                ("Engine".into(), engine_ms),
                ("RebuildSlotComps".into(), rebuild_slots as f64),
                ("EngineSlotComps".into(), engine_slots as f64),
            ],
        ));
    }
    Experiment {
        id: "fig9i",
        caption:
            "Batched engine vs rebuild-per-call: re-planning sweep time (ms) and slot computations",
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figure 9s (repo extension): sharded index + concurrent engine
// ---------------------------------------------------------------------------

/// One thread-count row of the `fig9s` serial-vs-concurrent comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9sThreadRow {
    /// Worker threads of the concurrent engine.
    pub threads: usize,
    /// Cold-cache `assign_batch` time of the serial engine (ms).
    pub serial_ms: f64,
    /// Cold-cache `assign_batch_parallel` time of the concurrent engine (ms).
    pub concurrent_ms: f64,
    /// `serial_ms / concurrent_ms`.
    pub speedup: f64,
    /// Tasks assigned per second by the concurrent engine.
    pub throughput_tasks_per_s: f64,
}

/// The raw measurements behind [`fig9s`]: dense-vs-sharded index query time
/// and serial-vs-concurrent batch-assign time per thread count, on the
/// region-partitioned streaming preset.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9sMeasurements {
    /// Scale label (`"quick"` / `"full"`).
    pub scale: &'static str,
    /// Hardware threads of the measuring machine (`1` serialises every
    /// parallel phase, so speedups can only materialise when this is > 1 —
    /// recorded so the artifact is interpretable across machines).
    pub hardware_threads: usize,
    /// Number of tasks in the batch.
    pub num_tasks: usize,
    /// Bulk k-NN query time over the dense index (ms).
    pub dense_knn_ms: f64,
    /// The same query bulk over the sharded index (ms).
    pub sharded_knn_ms: f64,
    /// Per-thread-count engine comparison.
    pub threads: Vec<Fig9sThreadRow>,
}

impl Fig9sMeasurements {
    /// Renders the measurements as an [`Experiment`] table.
    pub fn to_experiment(&self) -> Experiment {
        let mut rows = vec![Row::new(
            "index(kNN)",
            vec![
                ("DenseMs".into(), self.dense_knn_ms),
                ("ShardedMs".into(), self.sharded_knn_ms),
            ],
        )];
        for row in &self.threads {
            rows.push(Row::new(
                format!("threads={}", row.threads),
                vec![
                    ("Serial".into(), row.serial_ms),
                    ("Concurrent".into(), row.concurrent_ms),
                    ("Speedup".into(), row.speedup),
                    ("TasksPerSec".into(), row.throughput_tasks_per_s),
                ],
            ));
        }
        Experiment {
            id: "fig9s",
            caption: "Sharded index + concurrent engine: batch assign vs threads \
                      (region-partitioned streaming preset)",
            rows,
        }
    }

    /// Serialises the measurements as the `BENCH_fig9.json` artifact tracked
    /// across PRs (hand-rolled JSON; no serde in the hermetic build).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"figure\": \"fig9s\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        out.push_str(&format!(
            "  \"hardware_threads\": {},\n",
            self.hardware_threads
        ));
        out.push_str(&format!("  \"num_tasks\": {},\n", self.num_tasks));
        out.push_str(&format!(
            "  \"index\": {{ \"dense_knn_ms\": {:.4}, \"sharded_knn_ms\": {:.4} }},\n",
            self.dense_knn_ms, self.sharded_knn_ms
        ));
        out.push_str("  \"threads\": [\n");
        for (i, row) in self.threads.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"threads\": {}, \"serial_ms\": {:.4}, \"concurrent_ms\": {:.4}, \
                 \"speedup\": {:.4}, \"throughput_tasks_per_s\": {:.2} }}{}\n",
                row.threads,
                row.serial_ms,
                row.concurrent_ms,
                row.speedup,
                row.throughput_tasks_per_s,
                if i + 1 < self.threads.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Measures Fig. 9s: dense-vs-sharded query time, then cold-cache batch
/// assignment of the region-partitioned streaming preset through the serial
/// engine and through the concurrent engine at increasing thread counts.
pub fn fig9s_measurements(scale: Scale) -> Fig9sMeasurements {
    // The batch is deliberately wide (many concurrent arrivals) with a
    // budget that executes a moderate fraction of it: the cold-cache
    // checkout and the all-tasks warm-start candidate wave dominate, which
    // is the work the region sharding spreads across threads; the serial
    // commit tail (one winner refresh per grant) stays short.
    let (label, regions, rounds, per_round, slots, workers, cores, runs) = match scale {
        Scale::Quick => (
            "quick",
            4usize,
            8usize,
            16usize,
            96usize,
            4000usize,
            vec![1, 2, 4, 8],
            3,
        ),
        Scale::Full => ("full", 8, 8, 40, 300, 10_357, vec![1, 2, 4, 8, 16], 3),
    };
    let base = ScenarioConfig::small()
        .with_num_slots(slots)
        .with_num_workers(workers);
    let streaming = StreamingConfig::region_partitioned(base, regions, rounds, per_round).build();
    let tasks = streaming.concatenated();
    let grid = ShardGridConfig::new(regions, regions);
    let dense = WorkerIndex::build(&streaming.workers, slots, &streaming.domain);
    let sharded = ShardedWorkerIndex::build(&streaming.workers, slots, &streaming.domain, grid);
    let cost = EuclideanCost::default();

    // Index comparison: the conflict-fallback query shape (k-NN per task per
    // slot) over both indexes.
    let dense_knn_ms = best_of(runs, || {
        let mut acc = 0usize;
        for task in &tasks {
            for slot in (0..slots).step_by(7) {
                acc += dense.k_nearest(slot, &task.location, 8).len();
            }
        }
        acc
    });
    let sharded_knn_ms = best_of(runs, || {
        let mut acc = 0usize;
        for task in &tasks {
            for slot in (0..slots).step_by(7) {
                acc += sharded.k_nearest(slot, &task.location, 8).len();
            }
        }
        acc
    });

    // Engine comparison: cold-cache batch assignment.  The budget scales
    // with the batch so the greedy grants a realistic number of executions
    // without letting the (inherently serial) commit tail dominate.
    let budget = tasks.len() as f64 * 0.2;
    let cfg = MultiTaskConfig::new(budget);
    let serial_ms = best_of(runs, || {
        AssignmentEngine::borrowed(&dense, &cost, cfg).assign_batch(&tasks, Objective::SumQuality)
    });
    let threads = cores
        .into_iter()
        .map(|t| {
            let concurrent_ms = best_of(runs, || {
                ConcurrentAssignmentEngine::new(sharded.clone(), &cost, cfg, t)
                    .assign_batch_parallel(&tasks, Objective::SumQuality)
            });
            Fig9sThreadRow {
                threads: t,
                serial_ms,
                concurrent_ms,
                speedup: serial_ms / concurrent_ms,
                throughput_tasks_per_s: tasks.len() as f64 / (concurrent_ms / 1000.0),
            }
        })
        .collect();

    Fig9sMeasurements {
        scale: label,
        hardware_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        num_tasks: tasks.len(),
        dense_knn_ms,
        sharded_knn_ms,
        threads,
    }
}

/// Fig. 9s (repo extension): dense-vs-sharded index and serial-vs-concurrent
/// engine on the region-partitioned streaming preset.
pub fn fig9s(scale: Scale) -> Experiment {
    fig9s_measurements(scale).to_experiment()
}

// ---------------------------------------------------------------------------
// Figure 9p (repo extension): incremental-gain commit engine
// ---------------------------------------------------------------------------

/// One refresh-strategy row of the `fig9p` old-vs-incremental comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9pStrategyRow {
    /// Strategy label (`"full"` / `"incremental"`).
    pub strategy: &'static str,
    /// End-to-end cold-cache `assign_batch` time (ms, best-of).
    pub batch_ms: f64,
    /// Commit-tail refresh time of that run (ms): best-candidate searches
    /// beyond each task's warm start, ledger pops and patches.
    pub refresh_ms: f64,
    /// Refresh time per committed grant (µs).
    pub per_grant_refresh_us: f64,
    /// Fraction of the batch time spent in commit-tail refreshes.
    pub commit_tail_share: f64,
    /// Full best-candidate recomputes on the commit tail.
    pub full_refreshes: usize,
    /// Gain-ledger entry patches (conflict refreshes / undos).
    pub incremental_patches: usize,
    /// Stale ledger entries re-scored on pop.
    pub stale_pops: usize,
}

/// The raw measurements behind [`fig9p`]: the same cold-cache batch solved
/// under [`tcsc_assign::RefreshStrategy::Full`] (the pre-ledger
/// recompute-per-grant path, kept as the oracle) and under
/// [`tcsc_assign::RefreshStrategy::Incremental`] (the gain ledger), with the
/// commit-tail refresh cost broken out.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9pMeasurements {
    /// Scale label (`"quick"` / `"full"`).
    pub scale: &'static str,
    /// Number of tasks in the batch.
    pub num_tasks: usize,
    /// Committed grants of the solve (identical across strategies).
    pub executions: usize,
    /// Worker conflicts of the solve (identical across strategies).
    pub conflicts: usize,
    /// Whether the two strategies committed bit-identical outcomes (plans,
    /// conflicts, executions) — the in-tree equivalence gate.
    pub plans_match: bool,
    /// `full.per_grant_refresh_us / incremental.per_grant_refresh_us`.
    pub refresh_speedup: f64,
    /// The full-refresh (old-path) measurements.
    pub full: Fig9pStrategyRow,
    /// The incremental-gain measurements.
    pub incremental: Fig9pStrategyRow,
}

impl Fig9pMeasurements {
    /// Renders the measurements as an [`Experiment`] table.
    pub fn to_experiment(&self) -> Experiment {
        let mut rows = Vec::new();
        for row in [&self.full, &self.incremental] {
            rows.push(Row::new(
                row.strategy,
                vec![
                    ("BatchMs".into(), row.batch_ms),
                    ("RefreshMs".into(), row.refresh_ms),
                    ("PerGrantUs".into(), row.per_grant_refresh_us),
                    ("TailShare".into(), row.commit_tail_share),
                    ("FullRefreshes".into(), row.full_refreshes as f64),
                    ("Patches".into(), row.incremental_patches as f64),
                    ("StalePops".into(), row.stale_pops as f64),
                ],
            ));
        }
        rows.push(Row::new(
            "summary",
            vec![
                ("RefreshSpeedup".into(), self.refresh_speedup),
                ("Executions".into(), self.executions as f64),
                ("Conflicts".into(), self.conflicts as f64),
                ("PlansMatch".into(), f64::from(u8::from(self.plans_match))),
            ],
        ));
        Experiment {
            id: "fig9p",
            caption: "Incremental-gain commit engine: per-grant refresh cost and commit-tail \
                      share, full vs incremental strategy",
            rows,
        }
    }

    /// Serialises the measurements as the `BENCH_fig9p.json` artifact tracked
    /// across PRs (hand-rolled JSON; no serde in the hermetic build).
    pub fn to_json(&self) -> String {
        let strategy = |row: &Fig9pStrategyRow| {
            format!(
                "{{ \"strategy\": \"{}\", \"batch_ms\": {:.4}, \"refresh_ms\": {:.4}, \
                 \"per_grant_refresh_us\": {:.4}, \"commit_tail_share\": {:.4}, \
                 \"full_refreshes\": {}, \"incremental_patches\": {}, \"stale_pops\": {} }}",
                row.strategy,
                row.batch_ms,
                row.refresh_ms,
                row.per_grant_refresh_us,
                row.commit_tail_share,
                row.full_refreshes,
                row.incremental_patches,
                row.stale_pops
            )
        };
        let mut out = String::from("{\n");
        out.push_str("  \"figure\": \"fig9p\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        out.push_str(&format!("  \"num_tasks\": {},\n", self.num_tasks));
        out.push_str(&format!("  \"executions\": {},\n", self.executions));
        out.push_str(&format!("  \"conflicts\": {},\n", self.conflicts));
        out.push_str(&format!("  \"plans_match\": {},\n", self.plans_match));
        out.push_str(&format!(
            "  \"refresh_speedup\": {:.4},\n",
            self.refresh_speedup
        ));
        out.push_str(&format!("  \"full\": {},\n", strategy(&self.full)));
        out.push_str(&format!(
            "  \"incremental\": {}\n",
            strategy(&self.incremental)
        ));
        out.push_str("}\n");
        out
    }
}

/// Measures Fig. 9p: one cold-cache MSQM batch with a commit-heavy budget
/// (many grants, so the per-grant refresh dominates), solved under both
/// refresh strategies.
pub fn fig9p_measurements(scale: Scale) -> Fig9pMeasurements {
    // The fig9s shape that motivated this figure: a wide batch of many-slot
    // tasks under a tight budget, where every grant triggers the winner's
    // recompute *and* budget-staleness invalidations across the batch — the
    // commit tail that pinned the concurrent engine's speedup below 1x.
    let (label, num_tasks, slots, workers, budget_per_task, runs) = match scale {
        Scale::Quick => ("quick", 128usize, 96usize, 4000usize, 0.2f64, 3usize),
        Scale::Full => ("full", 256, 300, 10_357, 0.25, 3),
    };
    let cfg = ScenarioConfig::small()
        .with_num_tasks(num_tasks)
        .with_num_slots(slots)
        .with_num_workers(workers);
    let prepared = prepare_multi(&cfg);
    let tasks = &prepared.scenario.tasks;
    let cost = EuclideanCost::default();
    let budget = num_tasks as f64 * budget_per_task;

    // Best-of-`runs` on *both* reported quantities independently: the batch
    // wall clock and the commit-tail refresh nanos.  The refresh figure is a
    // hard CI gate (incremental must not exceed full), so it must not
    // inherit the noise of whichever run happened to win on batch time — a
    // preemption inside a timed section would flake the gate otherwise.
    // All deterministic counters are identical across runs by construction.
    let run = |strategy: tcsc_assign::RefreshStrategy| {
        let mcfg = MultiTaskConfig::new(budget).with_refresh(strategy);
        let mut best: Option<(tcsc_assign::MultiOutcome, f64)> = None;
        let mut best_refresh_nanos = u64::MAX;
        for _ in 0..runs.max(1) {
            let (outcome, ms) = timed(|| {
                AssignmentEngine::borrowed(&prepared.index, &cost, mcfg)
                    .assign_batch(tasks, Objective::SumQuality)
            });
            best_refresh_nanos = best_refresh_nanos.min(outcome.stats.refresh_nanos);
            if best.as_ref().map_or(true, |(_, best_ms)| ms < *best_ms) {
                best = Some((outcome, ms));
            }
        }
        let (outcome, ms) = best.expect("at least one run");
        (outcome, ms, best_refresh_nanos)
    };
    let (full_outcome, full_ms, full_refresh_nanos) = run(tcsc_assign::RefreshStrategy::Full);
    let (inc_outcome, inc_ms, inc_refresh_nanos) = run(tcsc_assign::RefreshStrategy::Incremental);

    let strategy_row = |name: &'static str,
                        outcome: &tcsc_assign::MultiOutcome,
                        batch_ms: f64,
                        refresh_nanos: u64|
     -> Fig9pStrategyRow {
        let refresh_ms = refresh_nanos as f64 / 1e6;
        Fig9pStrategyRow {
            strategy: name,
            batch_ms,
            refresh_ms,
            per_grant_refresh_us: refresh_nanos as f64 / 1e3 / outcome.executions.max(1) as f64,
            commit_tail_share: refresh_ms / batch_ms.max(f64::MIN_POSITIVE),
            full_refreshes: outcome.stats.full_refreshes,
            incremental_patches: outcome.stats.incremental_patches,
            stale_pops: outcome.stats.stale_pops,
        }
    };
    let full = strategy_row("full", &full_outcome, full_ms, full_refresh_nanos);
    let incremental = strategy_row("incremental", &inc_outcome, inc_ms, inc_refresh_nanos);
    let plans_match = full_outcome.assignment == inc_outcome.assignment
        && full_outcome.conflicts == inc_outcome.conflicts
        && full_outcome.executions == inc_outcome.executions;

    Fig9pMeasurements {
        scale: label,
        num_tasks,
        executions: inc_outcome.executions,
        conflicts: inc_outcome.conflicts,
        plans_match,
        refresh_speedup: full.per_grant_refresh_us
            / incremental.per_grant_refresh_us.max(f64::MIN_POSITIVE),
        full,
        incremental,
    }
}

/// Fig. 9p (repo extension): the incremental-gain commit engine against the
/// recompute-per-grant path on the same batch.
pub fn fig9p(scale: Scale) -> Experiment {
    fig9p_measurements(scale).to_experiment()
}

// ---------------------------------------------------------------------------
// Figure 9d (repo extension): the simulated distributed runtime
// ---------------------------------------------------------------------------

/// One `(node count, latency model)` cell of the fig9dist sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9dRow {
    /// Region nodes in the cluster.
    pub nodes: usize,
    /// Latency-model label.
    pub latency: String,
    /// Mean one-way latency (µs).
    pub latency_mean_us: f64,
    /// Virtual completion time (ms).
    pub virtual_ms: f64,
    /// Delivered events.
    pub events: u64,
    /// Wall-clock time to simulate the run (ms).
    pub wall_ms: f64,
}

/// The raw measurements behind [`fig9dist`]: the distributed discrete-event
/// runtime swept over node count × network latency, plus the zero-latency
/// single-node cross-check against the in-process engine (the CI gate).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9dMeasurements {
    /// Scale label (`"quick"` / `"full"`).
    pub scale: &'static str,
    /// Total simulated task arrivals.
    pub num_tasks: usize,
    /// Arrival rounds.
    pub rounds: usize,
    /// Worker conflicts of the committed solve.
    pub conflicts: usize,
    /// Committed executions.
    pub executions: usize,
    /// Plan hash of the zero-latency single-node simulation.
    pub sim_plan_hash: u64,
    /// Plan hash of the in-process engine on the same rounds.
    pub engine_plan_hash: u64,
    /// Whether the two hashes agree (must be `true`; CI asserts it).
    pub plan_hash_matches: bool,
    /// The sweep cells.
    pub rows: Vec<Fig9dRow>,
}

impl Fig9dMeasurements {
    /// Renders the measurements as an [`Experiment`] table.
    pub fn to_experiment(&self) -> Experiment {
        let mut rows = vec![Row::new(
            "plan-hash",
            vec![(
                "Matches".into(),
                f64::from(u8::from(self.plan_hash_matches)),
            )],
        )];
        for row in &self.rows {
            rows.push(Row::new(
                format!("n={} {}", row.nodes, row.latency),
                vec![
                    ("VirtualMs".into(), row.virtual_ms),
                    ("Events".into(), row.events as f64),
                ],
            ));
        }
        Experiment {
            id: "fig9dist",
            caption: "Distributed discrete-event runtime: virtual completion time vs \
                      node count x network latency",
            rows,
        }
    }

    /// Serialises the measurements as the `BENCH_fig9d.json` artifact
    /// (hand-rolled JSON; no serde in the hermetic build).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"figure\": \"fig9d\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        out.push_str(&format!("  \"num_tasks\": {},\n", self.num_tasks));
        out.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        out.push_str(&format!("  \"conflicts\": {},\n", self.conflicts));
        out.push_str(&format!("  \"executions\": {},\n", self.executions));
        out.push_str(&format!(
            "  \"sim_plan_hash\": \"{:#018x}\",\n",
            self.sim_plan_hash
        ));
        out.push_str(&format!(
            "  \"engine_plan_hash\": \"{:#018x}\",\n",
            self.engine_plan_hash
        ));
        out.push_str(&format!(
            "  \"plan_hash_matches\": {},\n",
            self.plan_hash_matches
        ));
        out.push_str("  \"sweep\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"nodes\": {}, \"latency\": \"{}\", \"latency_mean_us\": {:.1}, \
                 \"virtual_ms\": {:.4}, \"events\": {}, \"wall_ms\": {:.4} }}{}\n",
                row.nodes,
                row.latency,
                row.latency_mean_us,
                row.virtual_ms,
                row.events,
                row.wall_ms,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Measures fig9dist: a region-partitioned streaming workload converted to a
/// timed arrival trace and replayed through the simulated distributed
/// runtime, sweeping node count × network latency.  Every cell's plans are
/// checked against the in-process engine.
pub fn fig9dist_measurements(scale: Scale) -> Fig9dMeasurements {
    use std::rc::Rc;

    use tcsc_sim::{plan_hash, run_cluster, LatencyModel, SimBatch, SimClusterConfig};
    use tcsc_workload::ArrivalTrace;

    let (label, regions, rounds, per_round, slots, workers, node_sweep, latencies) = match scale {
        Scale::Quick => (
            "quick",
            3usize,
            3usize,
            6usize,
            24usize,
            120usize,
            vec![1usize, 2, 4],
            vec![
                LatencyModel::Zero,
                LatencyModel::Fixed(200),
                LatencyModel::Uniform { min: 50, max: 2000 },
            ],
        ),
        Scale::Full => (
            "full",
            4,
            4,
            15,
            60,
            800,
            vec![1, 2, 4, 8, 16],
            vec![
                LatencyModel::Zero,
                LatencyModel::Fixed(200),
                LatencyModel::Fixed(2_000),
                LatencyModel::Uniform { min: 50, max: 5000 },
            ],
        ),
    };
    let base = ScenarioConfig::small()
        .with_num_slots(slots)
        .with_num_workers(workers);
    let streaming = StreamingConfig::region_partitioned(base, regions, rounds, per_round).build();
    // Rounds arrive back to back (10ms apart), so completion time measures
    // the protocol's latency behaviour rather than the arrival schedule.
    let trace = ArrivalTrace::from_streaming(&streaming, 10_000);
    let budget = trace.len() as f64 * 2.0;
    let cost = EuclideanCost::default();

    // The in-process reference: the serial engine on the same rounds.
    let dense = WorkerIndex::build(&streaming.workers, slots, &streaming.domain);
    let mut engine = AssignmentEngine::borrowed(&dense, &cost, MultiTaskConfig::new(budget));
    let mut engine_plans = Vec::new();
    let mut conflicts = 0usize;
    let mut executions = 0usize;
    for round in &streaming.rounds {
        engine.submit(round.clone());
        let outcome = engine.drain(Objective::SumQuality);
        engine_plans.extend(outcome.assignment.plans);
        conflicts += outcome.conflicts;
        executions += outcome.executions;
    }
    let engine_plan_hash = tcsc_sim::plan_hash(&tcsc_core::MultiAssignment::new(engine_plans));

    let batches = |trace: &ArrivalTrace| -> Vec<SimBatch> {
        trace
            .batches()
            .into_iter()
            .map(|(at_us, tasks)| SimBatch { at_us, tasks })
            .collect()
    };

    // CI gate: the zero-latency single-node sim must reproduce the engine's
    // plans bit for bit.
    let gate = run_cluster(
        &streaming.workers,
        slots,
        &streaming.domain,
        batches(&trace),
        Rc::new(EuclideanCost::default()),
        &SimClusterConfig::new(1, regions, budget, LatencyModel::Zero),
    );
    let sim_plan_hash = plan_hash(&gate.assignment);
    let plan_hash_matches = sim_plan_hash == engine_plan_hash;

    let mut rows = Vec::new();
    for &nodes in &node_sweep {
        for latency in &latencies {
            let (sim, wall_ms) = timed(|| {
                run_cluster(
                    &streaming.workers,
                    slots,
                    &streaming.domain,
                    batches(&trace),
                    Rc::new(EuclideanCost::default()),
                    &SimClusterConfig::new(nodes, regions, budget, *latency)
                        .with_service_us(50)
                        .with_pings(10_000, 16),
                )
            });
            assert_eq!(
                plan_hash(&sim.assignment),
                engine_plan_hash,
                "sim diverged from the engine at {nodes} nodes, {latency:?}"
            );
            rows.push(Fig9dRow {
                nodes,
                latency: latency.describe(),
                latency_mean_us: latency.mean(),
                virtual_ms: sim.finish_time_us as f64 / 1000.0,
                events: sim.delivered_events,
                wall_ms,
            });
        }
    }

    Fig9dMeasurements {
        scale: label,
        num_tasks: trace.len(),
        rounds: trace.rounds,
        conflicts,
        executions,
        sim_plan_hash,
        engine_plan_hash,
        plan_hash_matches,
        rows,
    }
}

/// Fig. 9d (repo extension): the distributed discrete-event runtime swept
/// over node count × network latency.
pub fn fig9dist(scale: Scale) -> Experiment {
    fig9dist_measurements(scale).to_experiment()
}

// ---------------------------------------------------------------------------
// Figure 9obs (repo extension): the observability layer itself — digest
// stability across cluster layouts, trace export/replay, recorder overhead
// ---------------------------------------------------------------------------

/// One `(nodes, latency)` cell of the fig9obs digest sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9oRow {
    /// Region nodes in the cluster.
    pub nodes: usize,
    /// Latency-model label.
    pub latency: String,
    /// Logical-stream digest of the recorded run.
    pub digest: u64,
    /// Total recorded events (all scopes).
    pub events: usize,
}

/// The raw measurements behind [`fig9obs`]: the trace digest swept over
/// cluster layouts (must be uniform — the equivalence lock), the chrome
/// export → replay round trip, and the recorder's overhead on the fig9p
/// commit-tail workload against the static no-op baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9oMeasurements {
    /// Scale label (`"quick"` / `"full"`).
    pub scale: &'static str,
    /// The digest sweep cells.
    pub rows: Vec<Fig9oRow>,
    /// Whether every cell produced the identical logical digest (CI gate).
    pub digest_uniform: bool,
    /// Whether exporting the trace and replaying it through the parser
    /// reproduced the digest bit for bit (CI gate).
    pub digest_match: bool,
    /// fig9p-shaped batch wall clock with the `NoopRecorder` default (ms,
    /// best-of).
    pub noop_ms: f64,
    /// The same batch with a live `ObsSession` attached (ms, best-of).
    pub recorded_ms: f64,
    /// `recorded_ms / noop_ms`.
    pub overhead_ratio: f64,
    /// Whether the live recorder stayed within noise of the no-op baseline
    /// (generous bound — the gate guards order-of-magnitude regressions,
    /// not scheduler jitter).
    pub overhead_ok: bool,
    /// chrome://tracing dump of one recorded run (the CI artifact).
    pub trace_jsonl: String,
    /// Plain-text summary of the same run (events + metrics registry).
    pub summary: String,
}

impl Fig9oMeasurements {
    /// Renders the measurements as an [`Experiment`] table.
    pub fn to_experiment(&self) -> Experiment {
        let reference = self.rows.first().map_or(0, |r| r.digest);
        let mut rows = vec![
            Row::new(
                "locks",
                vec![
                    (
                        "DigestUniform".into(),
                        f64::from(u8::from(self.digest_uniform)),
                    ),
                    (
                        "ReplayMatches".into(),
                        f64::from(u8::from(self.digest_match)),
                    ),
                ],
            ),
            Row::new(
                "overhead",
                vec![
                    ("NoopMs".into(), self.noop_ms),
                    ("RecordedMs".into(), self.recorded_ms),
                    ("Ratio".into(), self.overhead_ratio),
                ],
            ),
        ];
        for row in &self.rows {
            rows.push(Row::new(
                format!("n={} {}", row.nodes, row.latency),
                vec![
                    ("Events".into(), row.events as f64),
                    (
                        "DigestOk".into(),
                        f64::from(u8::from(row.digest == reference)),
                    ),
                ],
            ));
        }
        Experiment {
            id: "fig9obs",
            caption: "Observability layer: logical digest across cluster layouts, \
                      trace export/replay round trip, recorder overhead vs no-op",
            rows,
        }
    }

    /// Serialises the measurements as the `BENCH_obs.json` artifact
    /// (hand-rolled JSON; no serde in the hermetic build).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"figure\": \"fig9obs\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        out.push_str(&format!("  \"digest_uniform\": {},\n", self.digest_uniform));
        out.push_str(&format!("  \"digest_match\": {},\n", self.digest_match));
        out.push_str(&format!("  \"noop_ms\": {:.4},\n", self.noop_ms));
        out.push_str(&format!("  \"recorded_ms\": {:.4},\n", self.recorded_ms));
        out.push_str(&format!(
            "  \"overhead_ratio\": {:.4},\n",
            self.overhead_ratio
        ));
        out.push_str(&format!("  \"overhead_ok\": {},\n", self.overhead_ok));
        out.push_str("  \"sweep\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"nodes\": {}, \"latency\": \"{}\", \
                 \"digest\": \"{:#018x}\", \"events\": {} }}{}\n",
                row.nodes,
                row.latency,
                row.digest,
                row.events,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Measures fig9obs: records the seeded sim across node count × latency and
/// checks the logical digest is layout-invariant, round-trips
/// one trace through the chrome exporter/parser, then times the fig9p-shaped
/// commit-tail batch with and without a live recorder.
pub fn fig9obs_measurements(scale: Scale) -> Fig9oMeasurements {
    use std::rc::Rc;

    use tcsc_obs::{parse_chrome_trace_jsonl, replay_digest, ObsSession};
    use tcsc_sim::{run_cluster, LatencyModel, SimBatch, SimClusterConfig};

    let (label, node_sweep, latencies, overhead_tasks, overhead_workers, runs) = match scale {
        Scale::Quick => (
            "quick",
            vec![1usize, 2, 4],
            vec![
                LatencyModel::Zero,
                LatencyModel::Uniform { min: 20, max: 4000 },
            ],
            128usize,
            4000usize,
            3usize,
        ),
        Scale::Full => (
            "full",
            vec![1, 2, 4, 8],
            vec![
                LatencyModel::Zero,
                LatencyModel::Fixed(250),
                LatencyModel::Uniform { min: 20, max: 4000 },
            ],
            256,
            10_357,
            5,
        ),
    };

    let cfg = ScenarioConfig::small()
        .with_num_tasks(10)
        .with_num_slots(30)
        .with_num_workers(150)
        .with_placement(TaskPlacement::Synthetic(SpatialDistribution::region_grid(
            3,
        )));
    let scenario = cfg.build();
    let slots = cfg.num_slots;

    let mut rows = Vec::new();
    let mut kept: Option<tcsc_obs::ObsReport> = None;
    for &nodes in &node_sweep {
        for latency in &latencies {
            let config = SimClusterConfig::new(nodes, 3, 55.0, *latency)
                .with_seed(7 + nodes as u64)
                .with_obs();
            let outcome = run_cluster(
                &scenario.workers,
                slots,
                &scenario.domain,
                vec![SimBatch::immediate(scenario.tasks.clone())],
                Rc::new(EuclideanCost::default()),
                &config,
            );
            let report = outcome.obs.expect("with_obs() records");
            rows.push(Fig9oRow {
                nodes,
                latency: latency.describe(),
                digest: report.digest,
                events: report.events.len(),
            });
            kept.get_or_insert(report);
        }
    }
    let reference = rows.first().map_or(0, |r| r.digest);
    let digest_uniform = rows.iter().all(|r| r.digest == reference);

    let kept = kept.expect("at least one sweep cell");
    let trace_jsonl = kept.chrome_trace();
    let digest_match = replay_digest(&parse_chrome_trace_jsonl(&trace_jsonl)) == kept.digest;
    let summary = format!(
        "fig9obs ({label}): {} sweep cells, digest {:#018x} (uniform: {digest_uniform}, \
         replay match: {digest_match})\n\n{}",
        rows.len(),
        reference,
        kept.metrics.render()
    );

    // Recorder overhead on the fig9p commit-tail shape: the per-grant
    // incremental-refresh batch, untimed instrumentation (NoopRecorder
    // default) against a live wall-clock session.
    let pcfg = ScenarioConfig::small()
        .with_num_tasks(overhead_tasks)
        .with_num_slots(96)
        .with_num_workers(overhead_workers);
    let prepared = prepare_multi(&pcfg);
    let tasks = &prepared.scenario.tasks;
    let cost = EuclideanCost::default();
    let mcfg = MultiTaskConfig::new(overhead_tasks as f64 * 0.2)
        .with_refresh(tcsc_assign::RefreshStrategy::Incremental);
    let noop_ms = best_of(runs, || {
        AssignmentEngine::borrowed(&prepared.index, &cost, mcfg)
            .assign_batch(tasks, Objective::SumQuality)
    });
    let session = ObsSession::wall();
    let recorded_ms = best_of(runs, || {
        AssignmentEngine::borrowed(&prepared.index, &cost, mcfg)
            .with_recorder(&session)
            .assign_batch(tasks, Objective::SumQuality)
    });
    let overhead_ratio = recorded_ms / noop_ms.max(f64::MIN_POSITIVE);
    // Within noise: a live session appends one buffered event per span —
    // nanoseconds against a millisecond-scale batch.  The bound is generous
    // (1.5x + 1ms) because CI machines preempt; it exists to catch a
    // recorder that accidentally becomes O(events) per record.
    let overhead_ok = recorded_ms <= noop_ms * 1.5 + 1.0;

    Fig9oMeasurements {
        scale: label,
        rows,
        digest_uniform,
        digest_match,
        noop_ms,
        recorded_ms,
        overhead_ratio,
        overhead_ok,
        trace_jsonl,
        summary,
    }
}

/// Fig. 9obs (repo extension): digest stability of the observability layer
/// across cluster layouts, plus recorder overhead against the no-op default.
pub fn fig9obs(scale: Scale) -> Experiment {
    fig9obs_measurements(scale).to_experiment()
}

// ---------------------------------------------------------------------------
// Figure 9svc (repo extension): service-mode SLOs — the streaming engine fed
// by a heavy-tailed arrival process with rush-hour bursts, windowed latency
// percentiles per phase, span-tree profile and retired-task GC
// ---------------------------------------------------------------------------

/// Slots per service task (kept small: the service figure measures latency
/// under load, not assignment quality).
const SVC_NUM_SLOTS: usize = 2;
/// The service drains its queue every `DRAIN` microseconds of virtual time.
const SVC_DRAIN_EVERY_US: u64 = 5_000;
/// A committed plan occupies its workers for this long before the
/// retired-task GC releases them back to the pool.
const SVC_SERVICE_US: u64 = 20_000;
/// Per-phase submit→commit latency windows installed on the virtual-clock
/// session (indexed by phase position in the rush-hour schedule).
const SVC_WINDOWS: [&str; 3] = [
    "svc.latency_us.calm",
    "svc.latency_us.rush",
    "svc.latency_us.recovery",
];
/// Window slice width (virtual nanoseconds): two drain ticks per slice.
const SVC_WINDOW_SLICE_NANOS: u64 = 2 * SVC_DRAIN_EVERY_US * 1_000;
/// Slices per window: the windowed SLO spans the last 16 drain ticks.
const SVC_WINDOW_SLICES: usize = 8;

/// One phase of the fig9svc SLO table: submit→commit latency (virtual
/// microseconds) for tasks that *arrived* during the phase, plus committed
/// throughput per virtual second of phase time.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9svcPhaseRow {
    /// Phase label (`calm` / `rush` / `recovery`).
    pub label: &'static str,
    /// Tasks that arrived while the phase was active (all cycles).
    pub arrivals: u64,
    /// Tasks committed whose arrival fell in the phase.
    pub commits: u64,
    /// Median submit→commit latency, virtual µs.
    pub p50_us: u64,
    /// 99th-percentile submit→commit latency, virtual µs.
    pub p99_us: u64,
    /// Worst submit→commit latency, virtual µs.
    pub max_us: u64,
    /// p99 of the *sliding window* at stream end (the recent-SLO view; 0
    /// when the window has fully rotated past the phase's last samples).
    pub window_p99_us: u64,
    /// Commits per virtual second of phase time.
    pub throughput_per_s: f64,
}

/// The raw measurements behind [`fig9svc`]: a long task stream served by the
/// batched engine under a rush-hour arrival schedule, with per-phase latency
/// SLOs, the obs-on/obs-off plan-hash identity, the retired-task-GC memory
/// bound and the span-tree profile reconciliation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9svcMeasurements {
    /// Scale label (`"quick"` / `"full"`).
    pub scale: &'static str,
    /// Tasks streamed through the service (per pass).
    pub tasks_streamed: usize,
    /// Worker-pool size.
    pub workers: usize,
    /// Per-drain submission capacity (the modelled server drain rate).
    pub capacity: usize,
    /// Total committed executions (slot grants) in the observed pass.
    pub executions: u64,
    /// Drain rounds executed.
    pub drains: u64,
    /// Virtual time at stream end, µs.
    pub virtual_end_us: u64,
    /// The per-phase SLO rows.
    pub phases: Vec<Fig9svcPhaseRow>,
    /// Gate: every phase committed tasks and reports a finite, positive p99.
    pub p99_finite: bool,
    /// Gate: every phase sustained positive committed throughput.
    pub throughput_positive: bool,
    /// Folded per-drain plan hash of the unobserved (NoopRecorder) pass.
    pub noop_plan_hash: u64,
    /// Folded per-drain plan hash of the recorded pass.
    pub obs_plan_hash: u64,
    /// Gate: the two passes decided bit-identical plans.
    pub plan_hash_match: bool,
    /// Peak engine queue depth sampled by the `engine.queue_depth` gauge.
    pub peak_queue_depth: u64,
    /// Peak driver-side backlog (arrivals waiting for drain capacity).
    pub peak_backlog: u64,
    /// Peak occupancy-ledger size across the stream.
    pub peak_ledger: u64,
    /// Occupancies returned to the pool by the retired-task GC.
    pub released: u64,
    /// Ledger size after the final GC flush (must be 0).
    pub final_ledger: usize,
    /// Gate: the ledger stayed proportional to live commitments (peak below
    /// the worker pool and the lifetime execution count, empty at the end,
    /// every execution released).
    pub ledger_bounded: bool,
    /// Wall-clock milliseconds measured around every `drain` call.
    pub drain_wall_ms: f64,
    /// Span-tree profile self-time total over the same drains, ms.
    pub profile_self_ms: f64,
    /// Gate: profile self-time reconciles with the measured drain wall
    /// clock within 5%.
    pub profile_within_bound: bool,
    /// Collapsed-stack (flamegraph.pl) rendering of the span-tree profile.
    pub collapsed: String,
    /// chrome://tracing dump of the engine's wall-clock session.
    pub trace_jsonl: String,
    /// Plain-text summary (phase table + gates + metrics registries).
    pub summary: String,
}

impl Fig9svcMeasurements {
    /// Renders the measurements as an [`Experiment`] table.
    pub fn to_experiment(&self) -> Experiment {
        let mut rows = vec![
            Row::new(
                "locks",
                vec![
                    (
                        "PlanHashMatch".into(),
                        f64::from(u8::from(self.plan_hash_match)),
                    ),
                    (
                        "LedgerBounded".into(),
                        f64::from(u8::from(self.ledger_bounded)),
                    ),
                    (
                        "ProfileWithin5".into(),
                        f64::from(u8::from(self.profile_within_bound)),
                    ),
                    ("P99Finite".into(), f64::from(u8::from(self.p99_finite))),
                    (
                        "ThroughputPos".into(),
                        f64::from(u8::from(self.throughput_positive)),
                    ),
                ],
            ),
            Row::new(
                "service",
                vec![
                    ("Tasks".into(), self.tasks_streamed as f64),
                    ("Drains".into(), self.drains as f64),
                    ("Execs".into(), self.executions as f64),
                    ("PeakLedger".into(), self.peak_ledger as f64),
                    ("PeakBacklog".into(), self.peak_backlog as f64),
                ],
            ),
            Row::new(
                "profile",
                vec![
                    ("DrainMs".into(), self.drain_wall_ms),
                    ("SelfMs".into(), self.profile_self_ms),
                ],
            ),
        ];
        for phase in &self.phases {
            rows.push(Row::new(
                phase.label,
                vec![
                    ("Arrivals".into(), phase.arrivals as f64),
                    ("P50us".into(), phase.p50_us as f64),
                    ("P99us".into(), phase.p99_us as f64),
                    ("WinP99us".into(), phase.window_p99_us as f64),
                    ("PerSec".into(), phase.throughput_per_s),
                ],
            ));
        }
        Experiment {
            id: "fig9svc",
            caption: "Service-mode SLOs: streaming engine under rush-hour bursts — \
                      windowed latency percentiles per phase, retired-task GC, \
                      span profile vs measured drain time",
            rows,
        }
    }

    /// Serialises the measurements as the `BENCH_svc.json` artifact
    /// (hand-rolled JSON; no serde in the hermetic build).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"figure\": \"fig9svc\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        out.push_str(&format!(
            "  \"tasks_streamed\": {},\n  \"workers\": {},\n  \"capacity\": {},\n",
            self.tasks_streamed, self.workers, self.capacity
        ));
        out.push_str(&format!(
            "  \"executions\": {},\n  \"drains\": {},\n  \"virtual_end_us\": {},\n",
            self.executions, self.drains, self.virtual_end_us
        ));
        out.push_str(&format!(
            "  \"noop_plan_hash\": \"{:#018x}\",\n  \"obs_plan_hash\": \"{:#018x}\",\n",
            self.noop_plan_hash, self.obs_plan_hash
        ));
        out.push_str(&format!(
            "  \"plan_hash_match\": {},\n  \"p99_finite\": {},\n  \
             \"throughput_positive\": {},\n  \"ledger_bounded\": {},\n  \
             \"profile_within_bound\": {},\n",
            self.plan_hash_match,
            self.p99_finite,
            self.throughput_positive,
            self.ledger_bounded,
            self.profile_within_bound
        ));
        out.push_str(&format!(
            "  \"peak_queue_depth\": {},\n  \"peak_backlog\": {},\n  \
             \"peak_ledger\": {},\n  \"released\": {},\n  \"final_ledger\": {},\n",
            self.peak_queue_depth,
            self.peak_backlog,
            self.peak_ledger,
            self.released,
            self.final_ledger
        ));
        out.push_str(&format!(
            "  \"drain_wall_ms\": {:.4},\n  \"profile_self_ms\": {:.4},\n",
            self.drain_wall_ms, self.profile_self_ms
        ));
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"label\": \"{}\", \"arrivals\": {}, \"commits\": {}, \
                 \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}, \
                 \"window_p99_us\": {}, \"throughput_per_s\": {:.4} }}{}\n",
                p.label,
                p.arrivals,
                p.commits,
                p.p50_us,
                p.p99_us,
                p.max_us,
                p.window_p99_us,
                p.throughput_per_s,
                if i + 1 < self.phases.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The outcome of one service pass (shared by the obs-off and obs-on runs).
struct SvcRun {
    plan_hash: u64,
    commits: u64,
    executions: u64,
    drains: u64,
    drain_wall_ms: f64,
    peak_backlog: usize,
    peak_ledger: usize,
    released: u64,
    final_ledger: usize,
    virtual_end_us: u64,
    phase_arrivals: Vec<u64>,
    phase_commits: Vec<u64>,
    phase_time_us: Vec<u64>,
    phase_hist: Vec<tcsc_obs::Histogram>,
}

/// Folds one drain's plan hash into the running stream hash (order matters:
/// the same plans in a different drain order must produce a different fold).
fn fold_plan_hash(acc: u64, h: u64) -> u64 {
    (acc.rotate_left(7) ^ h).wrapping_mul(0x0100_0000_01b3)
}

/// Drives one full service pass: a virtual clock ticking every
/// [`SVC_DRAIN_EVERY_US`], arrivals pulled from the heavy-tailed sampler
/// into a driver-side backlog, at most `capacity` tasks submitted per tick
/// (the modelled drain rate — rush-hour arrivals outpace it, so the backlog
/// and the latency tail grow), and committed plans retired back to the pool
/// [`SVC_SERVICE_US`] later.  Submit→commit latency is the virtual time from
/// arrival to the end of the drain that served the task; when a virtual
/// session is supplied, every latency feeds its phase's sliding window and
/// the backlog depth is emitted as a counter track.
fn fig9svc_service_run<R: tcsc_obs::Recorder>(
    engine: &mut AssignmentEngine<'_, R>,
    arrivals: &tcsc_workload::HeavyTailedArrivals,
    total_tasks: usize,
    capacity: usize,
    latency: Option<&tcsc_obs::ObsSession>,
) -> SvcRun {
    use std::collections::VecDeque;

    use tcsc_obs::Recorder as _;

    let nphases = arrivals.schedule.phases().len();
    let mut run = SvcRun {
        plan_hash: 0xcbf2_9ce4_8422_2325,
        commits: 0,
        executions: 0,
        drains: 0,
        drain_wall_ms: 0.0,
        peak_backlog: 0,
        peak_ledger: 0,
        released: 0,
        final_ledger: 0,
        virtual_end_us: 0,
        phase_arrivals: vec![0; nphases],
        phase_commits: vec![0; nphases],
        phase_time_us: vec![0; nphases],
        phase_hist: vec![tcsc_obs::Histogram::default(); nphases],
    };
    let mut sampler = arrivals.sampler();
    let mut next = sampler.next_arrival();
    let mut backlog: VecDeque<(u64, usize, tcsc_core::Task)> = VecDeque::new();
    let mut retire: VecDeque<(u64, tcsc_core::AssignmentPlan)> = VecDeque::new();
    let mut streamed = 0usize;
    let mut tick_us = 0u64;

    while streamed < total_tasks || !backlog.is_empty() || !retire.is_empty() {
        tick_us += SVC_DRAIN_EVERY_US;

        // Arrivals up to the tick join the backlog (O(1) memory upstream:
        // the sampler is an infinite iterator, nothing is materialised).
        while streamed < total_tasks && next.at_us < tick_us {
            let arrival = std::mem::replace(&mut next, sampler.next_arrival());
            let phase = arrival.round % nphases;
            run.phase_arrivals[phase] += 1;
            backlog.push_back((arrival.at_us, phase, arrival.task));
            streamed += 1;
        }
        run.peak_backlog = run.peak_backlog.max(backlog.len());

        // Retired-task GC: plans whose service window elapsed release their
        // workers, keeping the ledger proportional to live commitments.
        while retire.front().is_some_and(|(at, _)| *at <= tick_us) {
            let (_, plan) = retire.pop_front().expect("front checked");
            run.released += engine.release_plan(&plan) as u64;
        }

        // Serve up to `capacity` backlog tasks this tick.
        let take = backlog.len().min(capacity);
        if take > 0 {
            let mut meta = Vec::with_capacity(take);
            let mut batch = Vec::with_capacity(take);
            for _ in 0..take {
                let (at, phase, task) = backlog.pop_front().expect("take <= len");
                meta.push((at, phase));
                batch.push(task);
            }
            engine.submit(batch);
            let (outcome, ms) = timed(|| engine.drain(Objective::SumQuality));
            run.drain_wall_ms += ms;
            run.drains += 1;
            run.commits += take as u64;
            run.executions += outcome.executions as u64;
            run.plan_hash = fold_plan_hash(run.plan_hash, tcsc_sim::plan_hash(&outcome.assignment));
            if let Some(session) = latency {
                session.set_virtual_nanos(tick_us.saturating_mul(1_000));
                session.gauge("svc.backlog", backlog.len() as u64);
            }
            for (at, phase) in meta {
                let lat_us = tick_us - at;
                run.phase_hist[phase].record(lat_us);
                run.phase_commits[phase] += 1;
                if let Some(session) = latency {
                    session.value(SVC_WINDOWS[phase.min(SVC_WINDOWS.len() - 1)], lat_us);
                }
            }
            for plan in outcome.assignment.plans {
                if !plan.executions.is_empty() {
                    retire.push_back((tick_us + SVC_SERVICE_US, plan));
                }
            }
        }

        let (segment, _) = arrivals.schedule.segment_at(tick_us - SVC_DRAIN_EVERY_US);
        run.phase_time_us[segment % nphases] += SVC_DRAIN_EVERY_US;
        run.peak_ledger = run.peak_ledger.max(engine.ledger().len());
    }
    run.final_ledger = engine.ledger().len();
    run.virtual_end_us = tick_us;
    run
}

/// Measures fig9svc: streams the heavy-tailed rush-hour workload through the
/// batched engine twice — once unobserved (NoopRecorder), once with a
/// wall-clock session on the engine plus a virtual-clock session holding the
/// per-phase latency windows — then reconciles the span-tree profile against
/// the measured drain wall clock and checks every service gate.
pub fn fig9svc_measurements(scale: Scale) -> Fig9svcMeasurements {
    use tcsc_obs::{profile_spans, ObsSession};
    use tcsc_workload::{BoundedPareto, HeavyTailedArrivals, PhaseSchedule};

    let (label, total_tasks, workers) = match scale {
        Scale::Quick => ("quick", 30_000usize, 800usize),
        Scale::Full => ("full", 1_000_000, 2_000),
    };

    let cfg = ScenarioConfig::small()
        .with_num_slots(SVC_NUM_SLOTS)
        .with_num_workers(workers);
    let scenario = cfg.build();
    let index = WorkerIndex::build(&scenario.workers, SVC_NUM_SLOTS, &scenario.domain);
    let cost = EuclideanCost::default();

    // Bounded-Pareto inter-arrivals (mean ≈ 57 µs) under the canonical
    // calm → rush(×4) → recovery schedule.  The per-tick capacity sits
    // between the calm and rush arrival rates, so the backlog — and the
    // latency tail — grows during every rush and drains during recovery.
    let inter = BoundedPareto::new(1.5, 20.0, 10_000.0);
    let arrivals = HeavyTailedArrivals {
        seed: 4242,
        inter_arrival_us: inter,
        schedule: PhaseSchedule::rush_hour(200_000, 50_000, 4.0),
        num_slots: SVC_NUM_SLOTS,
        distribution: SpatialDistribution::Uniform,
        domain: scenario.domain,
    };
    let capacity = ((SVC_DRAIN_EVERY_US as f64 / inter.mean()) * 1.7).ceil() as usize;
    let mcfg = MultiTaskConfig::new(capacity as f64 * 2.0);

    // Pass 1: unobserved — the NoopRecorder default compiles every hook away.
    let mut plain = AssignmentEngine::borrowed(&index, &cost, mcfg);
    let off = fig9svc_service_run(&mut plain, &arrivals, total_tasks, capacity, None);

    // Pass 2: observed — wall-clock session on the engine (spans, gauges),
    // virtual-clock session owning the per-phase latency windows.
    let wall = ObsSession::wall();
    let virt = ObsSession::virtual_time();
    for name in SVC_WINDOWS {
        virt.install_window(name, SVC_WINDOW_SLICE_NANOS, SVC_WINDOW_SLICES);
    }
    let mut engine = AssignmentEngine::borrowed(&index, &cost, mcfg).with_recorder(&wall);
    let on = fig9svc_service_run(&mut engine, &arrivals, total_tasks, capacity, Some(&virt));

    let plan_hash_match = off.plan_hash == on.plan_hash;

    // Span-tree profile over the engine's wall session: every root span is
    // an `engine.drain`, so total self-time telescopes to the summed drain
    // time and must reconcile with the stopwatch around the same calls.
    let events = wall.merged_events();
    let profile = profile_spans(&events);
    let profile_self_ms = profile.total_self_nanos() as f64 / 1e6;
    let drain_wall_ms = on.drain_wall_ms;
    let profile_within_bound = (profile_self_ms - drain_wall_ms).abs() <= drain_wall_ms * 0.05;

    let virt_metrics = virt.metrics();
    let phases = arrivals.schedule.phases();
    let mut phase_rows = Vec::new();
    for (i, phase) in phases.iter().enumerate() {
        let hist = &on.phase_hist[i];
        let window_p99 = virt_metrics
            .window(SVC_WINDOWS[i])
            .map_or(0, |w| w.windowed().quantile(0.99));
        phase_rows.push(Fig9svcPhaseRow {
            label: phase.label,
            arrivals: on.phase_arrivals[i],
            commits: on.phase_commits[i],
            p50_us: hist.quantile(0.50),
            p99_us: hist.quantile(0.99),
            max_us: hist.max(),
            window_p99_us: window_p99,
            throughput_per_s: on.phase_commits[i] as f64 * 1e6 / on.phase_time_us[i].max(1) as f64,
        });
    }
    let p99_finite = phase_rows
        .iter()
        .all(|r| r.commits > 0 && (r.p99_us as f64).is_finite() && r.p99_us > 0);
    let throughput_positive = phase_rows.iter().all(|r| r.throughput_per_s > 0.0);
    let ledger_bounded = on.final_ledger == 0
        && on.released == on.executions
        && on.peak_ledger <= workers
        && (on.peak_ledger as u64) < on.executions;

    let peak_queue_depth = wall.metrics().gauge_peak("engine.queue_depth");
    let collapsed = profile.collapsed_stacks();
    let trace_jsonl = wall.chrome_trace();
    let mut summary = format!(
        "fig9svc ({label}): {} tasks over {} drains, {:.1} virtual s, \
         plan hash {:#018x} (obs-off match: {plan_hash_match})\n\
         drain wall {:.2} ms vs profile self {:.2} ms (within 5%: \
         {profile_within_bound}); peak ledger {} of {} workers, released {} \
         of {} executions (bounded: {ledger_bounded})\n\nphases:\n",
        on.commits,
        on.drains,
        on.virtual_end_us as f64 / 1e6,
        on.plan_hash,
        drain_wall_ms,
        profile_self_ms,
        on.peak_ledger,
        workers,
        on.released,
        on.executions,
    );
    for row in &phase_rows {
        summary.push_str(&format!(
            "  {:<9} arrivals={:<8} p50={:<7} p99={:<7} max={:<8} winP99={:<7} \
             {:.0}/s\n",
            row.label,
            row.arrivals,
            row.p50_us,
            row.p99_us,
            row.max_us,
            row.window_p99_us,
            row.throughput_per_s,
        ));
    }
    summary.push_str("\nspan-tree profile:\n");
    summary.push_str(&profile.render());
    summary.push_str("\nvirtual-session registry (latency windows):\n");
    summary.push_str(&virt_metrics.render());
    summary.push_str("\nengine-session registry (index churn counters, gauges):\n");
    summary.push_str(&wall.metrics().render());

    Fig9svcMeasurements {
        scale: label,
        tasks_streamed: total_tasks,
        workers,
        capacity,
        executions: on.executions,
        drains: on.drains,
        virtual_end_us: on.virtual_end_us,
        phases: phase_rows,
        p99_finite,
        throughput_positive,
        noop_plan_hash: off.plan_hash,
        obs_plan_hash: on.plan_hash,
        plan_hash_match,
        peak_queue_depth,
        peak_backlog: on.peak_backlog as u64,
        peak_ledger: on.peak_ledger as u64,
        released: on.released,
        final_ledger: on.final_ledger,
        ledger_bounded,
        drain_wall_ms,
        profile_self_ms,
        profile_within_bound,
        collapsed,
        trace_jsonl,
        summary,
    }
}

/// Fig. 9svc (repo extension): service-mode SLO observability — the
/// streaming engine under heavy-tailed rush-hour arrivals with windowed
/// latency percentiles, retired-task GC and the span-tree profile.
pub fn fig9svc(scale: Scale) -> Experiment {
    fig9svc_measurements(scale).to_experiment()
}

// ---------------------------------------------------------------------------
// Figure 9mob (repo extension): mobile workers on the mutable sharded index
// ---------------------------------------------------------------------------

/// Drain interval of the mobile-worker service loop, virtual µs (one motion
/// tick per drain tick).
const MOB_DRAIN_EVERY_US: u64 = 5_000;

/// How the mobile-worker pass keeps its index current between drains.
enum MobMaintenance {
    /// Apply each motion event through the engine's mutation API
    /// (tile-local splice; the shard caches are cleared).
    Mutate,
    /// Track the fleet in a mirror pool and rebuild the sharded index from
    /// scratch before every drain that saw motion — the pre-mutable-index
    /// baseline.
    Rebuild,
}

/// One pass of the fig9mob service loop.
struct MobRun {
    plan_hash: u64,
    executions: u64,
    drains: u64,
    maintenance_ms: f64,
    rebuilds: u64,
    moves: u64,
    offline: u64,
    online: u64,
    entries_spliced: u64,
    rebuild_equiv: u64,
    final_ledger: usize,
    final_imbalance_milli: u64,
}

/// The raw measurements behind [`fig9mob`]: the fig9svc-style service loop
/// with per-tick worker motion, run twice over identical arrival and motion
/// tapes — mutate-in-place vs rebuild-per-drain — comparing index
/// maintenance cost under the identical-plans gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9mMeasurements {
    /// Scale label (`"quick"` / `"full"`).
    pub scale: &'static str,
    /// Tasks streamed through the service (per pass).
    pub tasks_streamed: usize,
    /// Initial worker-pool size (churn keeps it stable).
    pub workers: usize,
    /// Per-drain submission capacity.
    pub capacity: usize,
    /// Drain rounds executed (identical across passes).
    pub drains: u64,
    /// Committed executions of the mutate pass.
    pub executions: u64,
    /// Motion events applied: waypoint-drift moves.
    pub moves: u64,
    /// Motion events applied: sessions retired.
    pub offline: u64,
    /// Motion events applied: fresh sessions admitted.
    pub online: u64,
    /// Index entries spliced by the mutate pass (sum of
    /// `IndexMutation::entries_touched`).
    pub entries_spliced: u64,
    /// Entries a rebuild would have re-inserted per mutation, summed — the
    /// work the mutate pass avoided.
    pub rebuild_equiv: u64,
    /// Index rebuilds performed by the rebuild pass.
    pub rebuilds: u64,
    /// Total index-maintenance wall time of the mutate pass, ms.
    pub mutate_maintenance_ms: f64,
    /// Total index-maintenance wall time of the rebuild pass, ms.
    pub rebuild_maintenance_ms: f64,
    /// `rebuild_maintenance_ms / mutate_maintenance_ms`.
    pub maintenance_speedup: f64,
    /// Gate: in-place maintenance is ≥5× cheaper than rebuild-per-drain.
    pub speedup_ok: bool,
    /// Folded per-drain plan hash of the mutate pass.
    pub mutate_plan_hash: u64,
    /// Folded per-drain plan hash of the rebuild pass.
    pub rebuild_plan_hash: u64,
    /// Gate: the two passes decided bit-identical plans in every drain.
    pub plan_hash_match: bool,
    /// Occupancy-ledger size at stream end (identical across passes).
    pub final_ledger: usize,
    /// Tile-occupancy imbalance (max/mean bucket length ×1000) at stream
    /// end.
    pub final_imbalance_milli: u64,
}

impl Fig9mMeasurements {
    /// Renders the measurements as an [`Experiment`] table.
    pub fn to_experiment(&self) -> Experiment {
        Experiment {
            id: "fig9mob",
            caption: "Mobile workers: mutate-in-place sharded index vs rebuild-per-drain \
                      — maintenance cost under the identical-plans gate",
            rows: vec![
                Row::new(
                    "locks",
                    vec![
                        (
                            "PlanHashMatch".into(),
                            f64::from(u8::from(self.plan_hash_match)),
                        ),
                        ("SpeedupOk".into(), f64::from(u8::from(self.speedup_ok))),
                    ],
                ),
                Row::new(
                    "maintenance",
                    vec![
                        ("MutateMs".into(), self.mutate_maintenance_ms),
                        ("RebuildMs".into(), self.rebuild_maintenance_ms),
                        ("Speedup".into(), self.maintenance_speedup),
                        ("Rebuilds".into(), self.rebuilds as f64),
                    ],
                ),
                Row::new(
                    "motion",
                    vec![
                        ("Moves".into(), self.moves as f64),
                        ("Offline".into(), self.offline as f64),
                        ("Online".into(), self.online as f64),
                        ("Spliced".into(), self.entries_spliced as f64),
                        ("RebuildEquiv".into(), self.rebuild_equiv as f64),
                    ],
                ),
                Row::new(
                    "service",
                    vec![
                        ("Tasks".into(), self.tasks_streamed as f64),
                        ("Drains".into(), self.drains as f64),
                        ("Execs".into(), self.executions as f64),
                        ("ImbalanceMilli".into(), self.final_imbalance_milli as f64),
                    ],
                ),
            ],
        }
    }

    /// Serialises the measurements as the `BENCH_fig9m.json` artifact
    /// (hand-rolled JSON; no serde in the hermetic build).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"figure\": \"fig9mob\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        out.push_str(&format!(
            "  \"tasks_streamed\": {},\n  \"workers\": {},\n  \"capacity\": {},\n",
            self.tasks_streamed, self.workers, self.capacity
        ));
        out.push_str(&format!(
            "  \"drains\": {},\n  \"executions\": {},\n",
            self.drains, self.executions
        ));
        out.push_str(&format!(
            "  \"moves\": {},\n  \"offline\": {},\n  \"online\": {},\n",
            self.moves, self.offline, self.online
        ));
        out.push_str(&format!(
            "  \"entries_spliced\": {},\n  \"rebuild_equiv\": {},\n  \"rebuilds\": {},\n",
            self.entries_spliced, self.rebuild_equiv, self.rebuilds
        ));
        out.push_str(&format!(
            "  \"mutate_maintenance_ms\": {:.4},\n  \"rebuild_maintenance_ms\": {:.4},\n  \
             \"maintenance_speedup\": {:.4},\n  \"maintenance_speedup_ok\": {},\n",
            self.mutate_maintenance_ms,
            self.rebuild_maintenance_ms,
            self.maintenance_speedup,
            self.speedup_ok
        ));
        out.push_str(&format!(
            "  \"mutate_plan_hash\": \"{:#018x}\",\n  \"rebuild_plan_hash\": \"{:#018x}\",\n  \
             \"plan_hash_match\": {},\n",
            self.mutate_plan_hash, self.rebuild_plan_hash, self.plan_hash_match
        ));
        out.push_str(&format!(
            "  \"final_ledger\": {},\n  \"final_imbalance_milli\": {}\n",
            self.final_ledger, self.final_imbalance_milli
        ));
        out.push_str("}\n");
        out
    }
}

/// Drives one mobile-worker service pass.  Arrivals join a backlog per tick
/// and at most `capacity` are drained; motion events with `at_us` up to the
/// tick are applied first (fleet state precedes planning, matching
/// [`tcsc_workload::interleave`]'s tie order).  Under
/// [`MobMaintenance::Mutate`] each event goes through the engine's mutation
/// API as it arrives; under [`MobMaintenance::Rebuild`] events update a
/// mirror pool and the sharded index is rebuilt before the next drain — so
/// both passes plan every drain against the same fleet state, and the timed
/// maintenance regions are exactly the work each strategy does to get there.
#[allow(clippy::too_many_arguments)]
fn fig9mob_service_run(
    mode: MobMaintenance,
    pool: &tcsc_core::WorkerPool,
    arrivals: &tcsc_workload::HeavyTailedArrivals,
    tape: &tcsc_workload::MotionTape,
    total_tasks: usize,
    capacity: usize,
    grid: ShardGridConfig,
    threads: usize,
) -> MobRun {
    use std::collections::VecDeque;

    use tcsc_index::MutableSpatialIndex as _;
    use tcsc_workload::WorkerMotion;

    let cost = EuclideanCost::default();
    let domain = arrivals.domain;
    let num_slots = arrivals.num_slots;
    let cfg = MultiTaskConfig::new(capacity as f64 * 2.0);
    let mut engine = ConcurrentAssignmentEngine::new(
        ShardedWorkerIndex::build(pool, num_slots, &domain, grid),
        &cost,
        cfg,
        threads,
    );
    let mut mirror: Vec<tcsc_core::Worker> = pool.workers().to_vec();

    let mut run = MobRun {
        plan_hash: 0xcbf2_9ce4_8422_2325,
        executions: 0,
        drains: 0,
        maintenance_ms: 0.0,
        rebuilds: 0,
        moves: 0,
        offline: 0,
        online: 0,
        entries_spliced: 0,
        rebuild_equiv: 0,
        final_ledger: 0,
        final_imbalance_milli: 0,
    };
    let mut sampler = arrivals.sampler();
    let mut next = sampler.next_arrival();
    let mut events = tape.events.iter().peekable();
    let mut backlog: VecDeque<tcsc_core::Task> = VecDeque::new();
    let mut streamed = 0usize;
    let mut tick_us = 0u64;
    let mut stale = false;

    while streamed < total_tasks || !backlog.is_empty() {
        tick_us += MOB_DRAIN_EVERY_US;
        while streamed < total_tasks && next.at_us < tick_us {
            let arrival = std::mem::replace(&mut next, sampler.next_arrival());
            backlog.push_back(arrival.task);
            streamed += 1;
        }

        // Fleet motion up to the tick.
        let mut due = Vec::new();
        while events.peek().is_some_and(|e| e.at_us <= tick_us) {
            due.push(&events.next().expect("peeked").motion);
        }
        for motion in &due {
            match motion {
                WorkerMotion::Move { .. } => run.moves += 1,
                WorkerMotion::Offline { .. } => run.offline += 1,
                WorkerMotion::Online { .. } => run.online += 1,
            }
        }
        match mode {
            MobMaintenance::Mutate => {
                let (mutations, ms) = timed(|| {
                    due.iter()
                        .map(|motion| match motion {
                            WorkerMotion::Move { id, to } => engine.move_worker(*id, *to),
                            WorkerMotion::Offline { id } => engine.remove_worker(*id),
                            WorkerMotion::Online { worker } => engine.insert_worker(worker),
                        })
                        .collect::<Vec<_>>()
                });
                run.maintenance_ms += ms;
                for m in mutations {
                    assert!(m.applied, "motion tapes only target live sessions");
                    run.entries_spliced += m.entries_touched as u64;
                    run.rebuild_equiv += m.rebuild_equiv_entries as u64;
                }
            }
            MobMaintenance::Rebuild => {
                let (_, ms) = timed(|| {
                    for motion in &due {
                        match motion {
                            WorkerMotion::Move { id, to } => {
                                let at = mirror
                                    .iter()
                                    .position(|w| w.id == *id)
                                    .expect("move targets a live session");
                                let old = &mirror[at];
                                let slots = old
                                    .availability()
                                    .iter()
                                    .map(|ws| tcsc_core::WorkerSlot {
                                        slot: ws.slot,
                                        location: *to,
                                    })
                                    .collect();
                                mirror[at] = tcsc_core::Worker::with_reliability(
                                    *id,
                                    slots,
                                    old.reliability,
                                );
                            }
                            WorkerMotion::Offline { id } => {
                                mirror.retain(|w| w.id != *id);
                            }
                            WorkerMotion::Online { worker } => mirror.push((*worker).clone()),
                        }
                    }
                });
                run.maintenance_ms += ms;
                stale = stale || !due.is_empty();
            }
        }

        let take = backlog.len().min(capacity);
        if take > 0 {
            if let (MobMaintenance::Rebuild, true) = (&mode, stale) {
                let (_, ms) = timed(|| {
                    let rebuilt = tcsc_core::WorkerPool::new(mirror.clone());
                    engine.rebuild_index(ShardedWorkerIndex::build(
                        &rebuilt, num_slots, &domain, grid,
                    ));
                });
                run.maintenance_ms += ms;
                run.rebuilds += 1;
                stale = false;
            }
            engine.submit(backlog.drain(..take));
            let outcome = engine.drain_parallel(Objective::SumQuality);
            run.drains += 1;
            run.executions += outcome.executions as u64;
            run.plan_hash = fold_plan_hash(run.plan_hash, tcsc_sim::plan_hash(&outcome.assignment));
        }
    }
    run.final_ledger = engine.ledger().len();
    run.final_imbalance_milli = engine.index().occupancy_imbalance_milli();
    run
}

/// Measures fig9mob: the heavy-tailed service stream with per-tick worker
/// motion (waypoint drift + session churn), served by the concurrent sharded
/// engine twice over identical tapes — mutate-in-place vs rebuild-per-drain
/// — with the plan-hash identity and the ≥5× maintenance-speedup gate.
pub fn fig9mob_measurements(scale: Scale) -> Fig9mMeasurements {
    use tcsc_workload::{
        BoundedPareto, HeavyTailedArrivals, MotionTape, PhaseSchedule, WorkerChurnConfig,
    };

    // The worker pool is deliberately large relative to the task stream:
    // the rebuild baseline pays O(workers) per drain while a tile-local
    // splice pays O(bucket), so the fleet size is what separates the two
    // maintenance strategies (mobile fleets are big; drains are frequent).
    let (label, total_tasks, workers, grid, threads) = match scale {
        Scale::Quick => (
            "quick",
            6_000usize,
            2_400usize,
            ShardGridConfig::new(5, 5),
            4,
        ),
        Scale::Full => ("full", 200_000, 10_000, ShardGridConfig::new(8, 8), 8),
    };

    let cfg = ScenarioConfig::small()
        .with_num_slots(SVC_NUM_SLOTS)
        .with_num_workers(workers);
    let scenario = cfg.build();
    let inter = BoundedPareto::new(1.5, 20.0, 10_000.0);
    let arrivals = HeavyTailedArrivals {
        seed: 4242,
        inter_arrival_us: inter,
        schedule: PhaseSchedule::rush_hour(200_000, 50_000, 4.0),
        num_slots: SVC_NUM_SLOTS,
        distribution: SpatialDistribution::Uniform,
        domain: scenario.domain,
    };
    let capacity = ((MOB_DRAIN_EVERY_US as f64 / inter.mean()) * 1.7).ceil() as usize;

    // One motion tick per drain tick, generously over-provisioned past the
    // expected stream duration (leftover events are simply never due).
    let churn = WorkerChurnConfig {
        seed: 77,
        tick_us: MOB_DRAIN_EVERY_US,
        moves_per_tick: 6,
        churn_prob: 0.3,
        drift_fraction: 0.25,
        num_slots: SVC_NUM_SLOTS,
        domain: scenario.domain,
    };
    let ticks = (total_tasks as f64 * inter.mean() / MOB_DRAIN_EVERY_US as f64 * 2.0) as usize + 50;
    let tape = MotionTape::generate(&churn, &scenario.workers, ticks);

    let mutate = fig9mob_service_run(
        MobMaintenance::Mutate,
        &scenario.workers,
        &arrivals,
        &tape,
        total_tasks,
        capacity,
        grid,
        threads,
    );
    let rebuild = fig9mob_service_run(
        MobMaintenance::Rebuild,
        &scenario.workers,
        &arrivals,
        &tape,
        total_tasks,
        capacity,
        grid,
        threads,
    );

    let maintenance_speedup = rebuild.maintenance_ms / mutate.maintenance_ms.max(1e-9);
    Fig9mMeasurements {
        scale: label,
        tasks_streamed: total_tasks,
        workers,
        capacity,
        drains: mutate.drains,
        executions: mutate.executions,
        moves: mutate.moves,
        offline: mutate.offline,
        online: mutate.online,
        entries_spliced: mutate.entries_spliced,
        rebuild_equiv: mutate.rebuild_equiv,
        rebuilds: rebuild.rebuilds,
        mutate_maintenance_ms: mutate.maintenance_ms,
        rebuild_maintenance_ms: rebuild.maintenance_ms,
        maintenance_speedup,
        speedup_ok: maintenance_speedup >= 5.0,
        mutate_plan_hash: mutate.plan_hash,
        rebuild_plan_hash: rebuild.plan_hash,
        plan_hash_match: mutate.plan_hash == rebuild.plan_hash
            && mutate.final_ledger == rebuild.final_ledger,
        final_ledger: mutate.final_ledger,
        final_imbalance_milli: mutate.final_imbalance_milli,
    }
}

/// Fig. 9mob (repo extension): mobile workers on the mutable sharded index —
/// in-place move/insert/remove vs rebuild-per-drain.
pub fn fig9mob(scale: Scale) -> Experiment {
    fig9mob_measurements(scale).to_experiment()
}

// ---------------------------------------------------------------------------
// Figure 11: spatiotemporal interpolation (appendix)
// ---------------------------------------------------------------------------

fn st_scenario(p: &Params, placement: TaskPlacement) -> ScenarioConfig {
    ScenarioConfig::small()
        .with_num_tasks(p.tasks.min(6))
        .with_num_slots(p.opt_slots)
        .with_num_workers(p.workers.min(2000))
        .with_placement(placement)
}

/// Fig. 11(a): quality per distribution with spatiotemporal interpolation
/// (RandMin, RandMax, Approx, SApprox, Opt — Opt reported per-task averaged).
pub fn fig11a(scale: Scale) -> Experiment {
    let p = params(scale);
    let cost_model = EuclideanCost::default();
    let mut rows = Vec::new();
    for placement in synthetic_placements() {
        let prepared = prepare_multi(&st_scenario(&p, placement.clone()));
        let budget = budget_for_multi(&prepared, 0.25);
        let cfg = MultiTaskConfig::new(budget);
        let (rand_min, rand_max, _, _) = multi_rand_baseline(&prepared, &cfg, 5);
        let temporal = builder(&cfg)
            .with_objective(SolveObjective::SpatioTemporal {
                weights: InterpolationWeights::temporal_only(),
                objective: SpatioTemporalObjective::Sum,
            })
            .solve_indexed(
                &prepared.scenario.tasks,
                &prepared.index,
                &prepared.scenario.domain,
                &cost_model,
            );
        let spatiotemporal = builder(&cfg)
            .with_objective(SolveObjective::SpatioTemporal {
                weights: InterpolationWeights::paper_default(),
                objective: SpatioTemporalObjective::Sum,
            })
            .solve_indexed(
                &prepared.scenario.tasks,
                &prepared.index,
                &prepared.scenario.domain,
                &cost_model,
            );
        // Per-task OPT (temporal metric) with an even budget split serves as
        // the optimal yardstick of the appendix figure.
        let per_task_budget = budget / prepared.scenario.tasks.len() as f64;
        let opt_sum: f64 = prepared
            .scenario
            .tasks
            .iter()
            .map(|task| {
                let candidates = SlotCandidates::compute(task, &prepared.index, &cost_model);
                optimal(task, &candidates, &SingleTaskConfig::new(per_task_budget)).quality
            })
            .sum();
        let n = prepared.scenario.tasks.len() as f64;
        rows.push(Row::new(
            placement.label(),
            vec![
                ("RandMin".into(), rand_min / n),
                ("RandMax".into(), rand_max / n),
                ("Approx".into(), temporal.sum_quality() / n),
                ("SApprox".into(), spatiotemporal.sum_quality() / n),
                ("Opt".into(), opt_sum / n),
            ],
        ));
    }
    Experiment {
        id: "fig11a",
        caption: "Average quality vs distribution with spatiotemporal interpolation",
        rows,
    }
}

/// Fig. 11(b): quality vs budget with spatiotemporal interpolation.
pub fn fig11b(scale: Scale) -> Experiment {
    let p = params(scale);
    let cost_model = EuclideanCost::default();
    let prepared = prepare_multi(&st_scenario(
        &p,
        TaskPlacement::Synthetic(SpatialDistribution::Uniform),
    ));
    let mut rows = Vec::new();
    for fraction in [0.15, 0.25, 0.35] {
        let budget = budget_for_multi(&prepared, fraction);
        let cfg = MultiTaskConfig::new(budget);
        let (rand_min, rand_max, _, _) = multi_rand_baseline(&prepared, &cfg, 3);
        let n = prepared.scenario.tasks.len() as f64;
        let temporal = builder(&cfg)
            .with_objective(SolveObjective::SpatioTemporal {
                weights: InterpolationWeights::temporal_only(),
                objective: SpatioTemporalObjective::Sum,
            })
            .solve_indexed(
                &prepared.scenario.tasks,
                &prepared.index,
                &prepared.scenario.domain,
                &cost_model,
            );
        let spatiotemporal = builder(&cfg)
            .with_objective(SolveObjective::SpatioTemporal {
                weights: InterpolationWeights::paper_default(),
                objective: SpatioTemporalObjective::Sum,
            })
            .solve_indexed(
                &prepared.scenario.tasks,
                &prepared.index,
                &prepared.scenario.domain,
                &cost_model,
            );
        rows.push(Row::new(
            format!("b={:.0}%", fraction * 100.0),
            vec![
                ("Approx".into(), temporal.sum_quality() / n),
                ("SApprox".into(), spatiotemporal.sum_quality() / n),
                ("RandAvg".into(), (rand_min + rand_max) / (2.0 * n)),
            ],
        ));
    }
    Experiment {
        id: "fig11b",
        caption: "Average quality vs budget with spatiotemporal interpolation",
        rows,
    }
}

/// Fig. 11(c): quality vs the temporal weight `w_t` (Gaussian distribution).
pub fn fig11c(scale: Scale) -> Experiment {
    let p = params(scale);
    let cost_model = EuclideanCost::default();
    let prepared = prepare_multi(&st_scenario(
        &p,
        TaskPlacement::Synthetic(SpatialDistribution::Gaussian),
    ));
    let budget = budget_for_multi(&prepared, 0.25);
    let cfg = MultiTaskConfig::new(budget);
    let n = prepared.scenario.tasks.len() as f64;
    let mut rows = Vec::new();
    for wt in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
        let outcome = builder(&cfg)
            .with_objective(SolveObjective::SpatioTemporal {
                weights: InterpolationWeights::from_temporal_ratio(wt),
                objective: SpatioTemporalObjective::Sum,
            })
            .solve_indexed(
                &prepared.scenario.tasks,
                &prepared.index,
                &prepared.scenario.domain,
                &cost_model,
            );
        rows.push(Row::new(
            format!("wt={wt:.1}"),
            vec![("SApprox".into(), outcome.sum_quality() / n)],
        ));
    }
    Experiment {
        id: "fig11c",
        caption: "Average quality vs temporal weight w_t (Gaussian)",
        rows,
    }
}

/// Every figure id, in figure order (the `experiments` binary iterates this
/// so special-cased figures like `fig9s` keep a single dispatch table).
pub const ALL_IDS: &[&str] = &[
    "fig6a", "fig6b", "fig7a", "fig7b", "fig7c", "fig7d", "fig8a", "fig8b", "fig8c", "fig8d",
    "fig8e", "fig8f", "fig8g", "fig8h", "fig9a", "fig9b", "fig9c", "fig9d", "fig9e", "fig9f",
    "fig9g", "fig9h", "fig9i", "fig9s", "fig9p", "fig9dist", "fig9obs", "fig9svc", "fig9mob",
    "fig11a", "fig11b", "fig11c",
];

/// Every experiment, in figure order (derived from [`ALL_IDS`] so the id
/// table exists exactly once).
pub fn all(scale: Scale) -> Vec<Experiment> {
    ALL_IDS.iter().filter_map(|id| by_id(id, scale)).collect()
}

/// Runs one experiment by id (`"fig6a"`, `"fig9c"`, ...).
pub fn by_id(id: &str, scale: Scale) -> Option<Experiment> {
    let experiment = match id {
        "fig6a" => fig6a(scale),
        "fig6b" => fig6b(scale),
        "fig7a" => fig7a(scale),
        "fig7b" => fig7b(scale),
        "fig7c" => fig7c(scale),
        "fig7d" => fig7d(scale),
        "fig8a" => fig8a(scale),
        "fig8b" => fig8b(scale),
        "fig8c" => fig8c(scale),
        "fig8d" => fig8d(scale),
        "fig8e" => fig8e(scale),
        "fig8f" => fig8f(scale),
        "fig8g" => fig8g(scale),
        "fig8h" => fig8h(scale),
        "fig9a" => fig9a(scale),
        "fig9b" => fig9b(scale),
        "fig9c" => fig9c(scale),
        "fig9d" => fig9d(scale),
        "fig9e" => fig9e(scale),
        "fig9f" => fig9f(scale),
        "fig9g" => fig9g(scale),
        "fig9h" => fig9h(scale),
        "fig9i" => fig9i(scale),
        "fig9s" => fig9s(scale),
        "fig9p" => fig9p(scale),
        "fig9dist" => fig9dist(scale),
        "fig9obs" => fig9obs(scale),
        "fig9svc" => fig9svc(scale),
        "fig9mob" => fig9mob(scale),
        "fig11a" => fig11a(scale),
        "fig11b" => fig11b(scale),
        "fig11c" => fig11c(scale),
        _ => return None,
    };
    Some(experiment)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The figure drivers are exercised end-to-end by the benches and the
    // `experiments` binary; here we only smoke-test the cheapest quality
    // figures so `cargo test` stays fast.

    #[test]
    fn fig6a_quick_produces_four_rows_with_expected_ordering() {
        let exp = fig6a(Scale::Quick);
        assert_eq!(exp.rows.len(), 4);
        for row in &exp.rows {
            let get = |name: &str| {
                row.values
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            assert!(
                get("Opt") + 1e-9 >= get("Approx"),
                "OPT must dominate Approx"
            );
            assert!(get("RandMax") + 1e-9 >= get("RandMin"));
            assert!(
                get("Approx") + 1e-9 >= get("RandMin"),
                "Approx must beat RandMin"
            );
        }
    }

    #[test]
    fn by_id_knows_every_figure() {
        // Only check the dispatcher's id table, not the (expensive) runs:
        // ids must be unique, fig9s must be present, and unknown ids must be
        // rejected.  (`all()` is derived from ALL_IDS, so ALL_IDS and the
        // by_id match are the only two places an id lives; by_id falls back
        // to None, which `all()` would silently drop — hence the length
        // check against the match arms is exercised by the binary smoke.)
        let unique: std::collections::HashSet<_> = ALL_IDS.iter().collect();
        assert_eq!(unique.len(), ALL_IDS.len());
        assert_eq!(ALL_IDS.len(), 32);
        assert!(ALL_IDS.contains(&"fig9s"));
        assert!(ALL_IDS.contains(&"fig9p"));
        assert!(ALL_IDS.contains(&"fig9dist"));
        assert!(ALL_IDS.contains(&"fig9obs"));
        assert!(ALL_IDS.contains(&"fig9svc"));
        assert!(ALL_IDS.contains(&"fig9mob"));
        assert!(by_id("nonexistent", Scale::Quick).is_none());
    }

    #[test]
    fn fig9s_json_is_well_formed() {
        // A hand-rolled serialiser deserves a shape check; keep the workload
        // tiny by reusing the quick measurements' serialisation only.
        let m = Fig9sMeasurements {
            scale: "quick",
            hardware_threads: 1,
            num_tasks: 24,
            dense_knn_ms: 1.5,
            sharded_knn_ms: 0.5,
            threads: vec![Fig9sThreadRow {
                threads: 4,
                serial_ms: 10.0,
                concurrent_ms: 4.0,
                speedup: 2.5,
                throughput_tasks_per_s: 6000.0,
            }],
        };
        let json = m.to_json();
        assert!(json.contains("\"figure\": \"fig9s\""));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"speedup\": 2.5000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn fig9p_json_is_well_formed() {
        let row = |strategy: &'static str, per_grant: f64| Fig9pStrategyRow {
            strategy,
            batch_ms: 10.0,
            refresh_ms: 4.0,
            per_grant_refresh_us: per_grant,
            commit_tail_share: 0.4,
            full_refreshes: 12,
            incremental_patches: 3,
            stale_pops: 7,
        };
        let m = Fig9pMeasurements {
            scale: "quick",
            num_tasks: 48,
            executions: 120,
            conflicts: 5,
            plans_match: true,
            refresh_speedup: 6.25,
            full: row("full", 25.0),
            incremental: row("incremental", 4.0),
        };
        let json = m.to_json();
        assert!(json.contains("\"figure\": \"fig9p\""));
        assert!(json.contains("\"plans_match\": true"));
        assert!(json.contains("\"refresh_speedup\": 6.2500"));
        assert!(json.contains("\"strategy\": \"incremental\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn fig9mob_json_is_well_formed() {
        let m = Fig9mMeasurements {
            scale: "quick",
            tasks_streamed: 6_000,
            workers: 800,
            capacity: 100,
            drains: 70,
            executions: 9_000,
            moves: 700,
            offline: 20,
            online: 20,
            entries_spliced: 1_500,
            rebuild_equiv: 60_000,
            rebuilds: 68,
            mutate_maintenance_ms: 3.0,
            rebuild_maintenance_ms: 45.0,
            maintenance_speedup: 15.0,
            speedup_ok: true,
            mutate_plan_hash: 0x1234,
            rebuild_plan_hash: 0x1234,
            plan_hash_match: true,
            final_ledger: 320,
            final_imbalance_milli: 2_400,
        };
        let json = m.to_json();
        assert!(json.contains("\"figure\": \"fig9mob\""));
        assert!(json.contains("\"plan_hash_match\": true"));
        assert!(json.contains("\"maintenance_speedup_ok\": true"));
        assert!(json.contains("\"maintenance_speedup\": 15.0000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn fig9dist_json_is_well_formed() {
        let m = Fig9dMeasurements {
            scale: "quick",
            num_tasks: 18,
            rounds: 3,
            conflicts: 2,
            executions: 30,
            sim_plan_hash: 0xabcd,
            engine_plan_hash: 0xabcd,
            plan_hash_matches: true,
            rows: vec![Fig9dRow {
                nodes: 2,
                latency: "fixed:200us".into(),
                latency_mean_us: 200.0,
                virtual_ms: 12.5,
                events: 400,
                wall_ms: 3.0,
            }],
        };
        let json = m.to_json();
        assert!(json.contains("\"figure\": \"fig9d\""));
        assert!(json.contains("\"plan_hash_matches\": true"));
        assert!(json.contains("\"virtual_ms\": 12.5000, \"events\": 400"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn fig9obs_json_is_well_formed() {
        let m = Fig9oMeasurements {
            scale: "quick",
            rows: vec![Fig9oRow {
                nodes: 2,
                latency: "zero".into(),
                digest: 0xabcd,
                events: 321,
            }],
            digest_uniform: true,
            digest_match: true,
            noop_ms: 10.0,
            recorded_ms: 10.2,
            overhead_ratio: 1.02,
            overhead_ok: true,
            trace_jsonl: "[\n]\n".into(),
            summary: "fig9obs".into(),
        };
        let json = m.to_json();
        assert!(json.contains("\"figure\": \"fig9obs\""));
        assert!(json.contains("\"digest_uniform\": true"));
        assert!(json.contains("\"digest_match\": true"));
        assert!(json.contains("\"overhead_ok\": true"));
        assert!(json.contains("\"digest\": \"0x000000000000abcd\", \"events\": 321"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let exp = m.to_experiment();
        assert_eq!(exp.id, "fig9obs");
        assert!(exp.rows.len() >= 3);
    }

    #[test]
    fn fig9svc_json_is_well_formed() {
        let phase = |label: &'static str, p99: u64| Fig9svcPhaseRow {
            label,
            arrivals: 1000,
            commits: 1000,
            p50_us: 2500,
            p99_us: p99,
            max_us: p99 * 2,
            window_p99_us: p99,
            throughput_per_s: 17_000.0,
        };
        let m = Fig9svcMeasurements {
            scale: "quick",
            tasks_streamed: 3000,
            workers: 800,
            capacity: 148,
            executions: 5600,
            drains: 40,
            virtual_end_us: 400_000,
            phases: vec![phase("calm", 8191), phase("rush", 65_535)],
            p99_finite: true,
            throughput_positive: true,
            noop_plan_hash: 0xabcd,
            obs_plan_hash: 0xabcd,
            plan_hash_match: true,
            peak_queue_depth: 148,
            peak_backlog: 2048,
            peak_ledger: 700,
            released: 5600,
            final_ledger: 0,
            ledger_bounded: true,
            drain_wall_ms: 120.0,
            profile_self_ms: 118.5,
            profile_within_bound: true,
            collapsed: "engine.drain 100\n".into(),
            trace_jsonl: "[\n]\n".into(),
            summary: "fig9svc".into(),
        };
        let json = m.to_json();
        assert!(json.contains("\"figure\": \"fig9svc\""));
        assert!(json.contains("\"plan_hash_match\": true"));
        assert!(json.contains("\"ledger_bounded\": true"));
        assert!(json.contains("\"profile_within_bound\": true"));
        assert!(json.contains("\"p99_finite\": true"));
        assert!(json.contains("\"throughput_positive\": true"));
        assert!(json.contains("\"label\": \"rush\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let exp = m.to_experiment();
        assert_eq!(exp.id, "fig9svc");
        assert_eq!(exp.rows.len(), 3 + 2);
    }

    #[test]
    fn fig9svc_service_run_is_deterministic_and_gc_empties_the_ledger() {
        // A miniature stream (short phases, ~1.2k tasks) through the real
        // service loop: two unobserved passes must fold the identical plan
        // hash, the retired-task GC must release every execution, and the
        // rush phase must see a worse latency tail than calm.
        use tcsc_workload::{BoundedPareto, HeavyTailedArrivals, PhaseSchedule};
        let cfg = ScenarioConfig::small()
            .with_num_slots(SVC_NUM_SLOTS)
            .with_num_workers(300);
        let scenario = cfg.build();
        let index = WorkerIndex::build(&scenario.workers, SVC_NUM_SLOTS, &scenario.domain);
        let cost = EuclideanCost::default();
        let inter = BoundedPareto::new(1.5, 20.0, 10_000.0);
        let arrivals = HeavyTailedArrivals {
            seed: 7,
            inter_arrival_us: inter,
            schedule: PhaseSchedule::rush_hour(40_000, 15_000, 4.0),
            num_slots: SVC_NUM_SLOTS,
            distribution: SpatialDistribution::Uniform,
            domain: scenario.domain,
        };
        let capacity = ((SVC_DRAIN_EVERY_US as f64 / inter.mean()) * 1.7).ceil() as usize;
        let mcfg = MultiTaskConfig::new(capacity as f64 * 2.0);

        let mut a = AssignmentEngine::borrowed(&index, &cost, mcfg);
        let run_a = fig9svc_service_run(&mut a, &arrivals, 1200, capacity, None);
        let mut b = AssignmentEngine::borrowed(&index, &cost, mcfg);
        let run_b = fig9svc_service_run(&mut b, &arrivals, 1200, capacity, None);

        assert_eq!(
            run_a.plan_hash, run_b.plan_hash,
            "the service loop is seeded"
        );
        assert_eq!(run_a.commits, 1200);
        assert_eq!(run_a.commits, run_b.commits);
        assert_eq!(run_a.executions, run_b.executions);
        assert!(run_a.executions > 0);
        assert_eq!(
            run_a.released, run_a.executions,
            "the GC must return every committed occupancy"
        );
        assert_eq!(run_a.final_ledger, 0, "the ledger drains to empty");
        assert!(run_a.peak_ledger > 0);
        assert!(
            (run_a.peak_ledger as u64) < run_a.executions,
            "GC keeps the peak ledger below the lifetime execution count"
        );
        // The rush backlog stretches the tail: rush-arrived tasks wait
        // longer than calm-arrived ones at the 99th percentile.
        let calm_p99 = run_a.phase_hist[0].quantile(0.99);
        let rush_p99 = run_a.phase_hist[1].quantile(0.99);
        assert!(
            rush_p99 > calm_p99,
            "rush p99 ({rush_p99}us) must exceed calm p99 ({calm_p99}us)"
        );
    }

    #[test]
    fn fig9i_engine_never_recomputes_more_than_the_rebuild_baseline() {
        let exp = fig9i(Scale::Quick);
        assert!(!exp.rows.is_empty());
        for row in &exp.rows {
            let get = |name: &str| {
                row.values
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            assert!(
                get("EngineSlotComps") < get("RebuildSlotComps"),
                "engine must amortise candidate computations across the sweep ({})",
                row.label
            );
        }
    }
}
