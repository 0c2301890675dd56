//! The paper's evaluation: Figs. 6–9 (single- and multi-task quality and
//! efficiency, plus the fig9i re-planning sweep) and the appendix's Fig. 11.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tcsc_assign::candidates::SlotCandidates;
use tcsc_assign::{
    approx, approx_star, independence_graph, msqm_group_parallel, msqm_task_parallel, optimal,
    random_summary, AssignmentEngine, MultiOutcome, MultiTaskConfig, Objective, SingleTaskConfig,
};
use tcsc_core::quality::QualityEvaluator;
use tcsc_core::{EuclideanCost, InterpolationWeights};
use tcsc_index::vtree::{VTree, VTreeConfig};
use tcsc_workload::{PoiConfig, ScenarioConfig, SpatialDistribution, TaskPlacement};

use crate::{best_of, prepare_multi, prepare_single, timed, PreparedMulti, Report, Row, Scale};

// The multi-task solvers over a prepared batch's prebuilt dense index
// (Euclidean cost), so the index build stays outside every timed region.

/// The serial engine greedy: MSQM or MMQM.
fn serial(prepared: &PreparedMulti, cfg: &MultiTaskConfig, objective: Objective) -> MultiOutcome {
    AssignmentEngine::borrowed(&prepared.index, &EuclideanCost::default(), *cfg)
        .assign_batch(&prepared.scenario.tasks, objective)
}

/// The task-level parallel framework (MSQM) on `cores` threads, with or
/// without the master's priority queue.
fn task_parallel(
    prepared: &PreparedMulti,
    cfg: &MultiTaskConfig,
    cores: usize,
    priorities: bool,
) -> MultiOutcome {
    let cost_model = EuclideanCost::default();
    msqm_task_parallel(
        &prepared.scenario.tasks,
        &prepared.index,
        &cost_model,
        cfg,
        cores,
        priorities,
    )
    .outcome
}

/// The group-level parallel framework (MSQM) on `cores` threads.
fn group_parallel(prepared: &PreparedMulti, cfg: &MultiTaskConfig, cores: usize) -> MultiOutcome {
    let cost_model = EuclideanCost::default();
    msqm_group_parallel(
        &prepared.scenario.tasks,
        &prepared.index,
        &cost_model,
        cfg,
        cores,
    )
    .outcome
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
pub fn fig6a(scale: Scale) -> Report {
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
    Report::new(
        "fig6a",
        "Single-task quality vs task-location distribution",
        rows,
    )
}

/// Fig. 6(b): single-task quality vs budget (Opt, Approx, RandAvg).
pub fn fig6b(scale: Scale) -> Report {
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
    Report::new("fig6b", "Single-task quality vs budget", rows)
}

// ---------------------------------------------------------------------------
// Figure 7: quality of the multi-task case
// ---------------------------------------------------------------------------

fn multi_rand_baseline(
    prepared: &PreparedMulti,
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
pub fn fig7a(scale: Scale) -> Report {
    let p = params(scale);
    let mut rows = Vec::new();
    for placement in synthetic_placements() {
        let prepared = prepare_multi(&multi_scenario(&p, placement.clone()));
        let budget = budget_for_multi(&prepared, 0.25);
        let cfg = MultiTaskConfig::new(budget);
        let (rand_min, rand_max, _, _) = multi_rand_baseline(&prepared, &cfg, p.rand_runs.min(5));
        let outcome = serial(&prepared, &cfg, Objective::SumQuality);
        rows.push(Row::new(
            placement.label(),
            vec![
                ("RandMin".into(), rand_min),
                ("RandMax".into(), rand_max),
                ("Approx".into(), outcome.sum_quality()),
            ],
        ));
    }
    Report::new(
        "fig7a",
        "Multi-task summation quality vs distribution (q_sum)",
        rows,
    )
}

/// Budget for a multi-task scenario: `fraction` of the total full-completion
/// cost of all tasks.
fn budget_for_multi(prepared: &PreparedMulti, fraction: f64) -> f64 {
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
pub fn fig7b(scale: Scale) -> Report {
    let p = params(scale);
    let prepared = prepare_multi(&multi_scenario(
        &p,
        TaskPlacement::Synthetic(SpatialDistribution::Uniform),
    ));
    let mut rows = Vec::new();
    for fraction in [0.125, 0.25, 0.375, 0.5] {
        let budget = budget_for_multi(&prepared, fraction);
        let cfg = MultiTaskConfig::new(budget);
        let (rand_min, rand_max, _, _) = multi_rand_baseline(&prepared, &cfg, 3);
        let outcome = serial(&prepared, &cfg, Objective::SumQuality);
        rows.push(Row::new(
            format!("b={:.1}%", fraction * 100.0),
            vec![
                ("Approx".into(), outcome.sum_quality()),
                ("RandAvg".into(), (rand_min + rand_max) / 2.0),
            ],
        ));
    }
    Report::new(
        "fig7b",
        "Multi-task summation quality vs budget (q_sum)",
        rows,
    )
}

/// Fig. 7(c): multi-task minimum quality per distribution.
pub fn fig7c(scale: Scale) -> Report {
    let p = params(scale);
    let mut rows = Vec::new();
    for placement in synthetic_placements() {
        let prepared = prepare_multi(&multi_scenario(&p, placement.clone()));
        let budget = budget_for_multi(&prepared, 0.25);
        let cfg = MultiTaskConfig::new(budget);
        let (_, _, rand_min_avg, rand_max_avg) =
            multi_rand_baseline(&prepared, &cfg, p.rand_runs.min(5));
        let outcome = serial(&prepared, &cfg, Objective::MinQuality);
        rows.push(Row::new(
            placement.label(),
            vec![
                ("RandMin".into(), rand_min_avg),
                ("RandMax".into(), rand_max_avg),
                ("Approx".into(), outcome.min_quality()),
            ],
        ));
    }
    Report::new(
        "fig7c",
        "Multi-task minimum quality vs distribution (q_min)",
        rows,
    )
}

/// Fig. 7(d): multi-task minimum quality vs budget.
pub fn fig7d(scale: Scale) -> Report {
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
        let outcome = serial(&prepared, &cfg, Objective::MinQuality);
        rows.push(Row::new(
            format!("b={:.1}%", fraction * 100.0),
            vec![
                ("Approx".into(), outcome.min_quality()),
                ("RandAvg".into(), rand_min_avg),
            ],
        ));
    }
    Report::new(
        "fig7d",
        "Multi-task minimum quality vs budget (q_min)",
        rows,
    )
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
pub fn fig8a(scale: Scale) -> Report {
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
    Report::new(
        "fig8a",
        "Single-task time (ms) vs number of subtasks m",
        rows,
    )
}

/// Fig. 8(b): single-task running time vs number of workers.
pub fn fig8b(scale: Scale) -> Report {
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
    Report::new("fig8b", "Single-task time (ms) vs number of workers", rows)
}

/// Fig. 8(c): time breakdown of Approx vs Approx* (worker cost retrieval,
/// heuristic calculation / k-NN interpolation, tree construction), with the
/// tree's deterministic upkeep counters on the `Approx*` row (slot partial
/// qualities computed, nodes allocated), plus the exact-gain kernel
/// `VTree::gain` alone (the `vtree_gain` row).
pub fn fig8c(scale: Scale) -> Report {
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
    Report::new(
        "fig8c",
        "Time breakdown (ms) of Approx and Approx*",
        vec![
            Row::new(
                "Approx",
                vec![
                    ("WorkerCostRetrieval".into(), prepared.retrieval_ms),
                    ("HeuristicCalc".into(), plain.timings.search * 1000.0),
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
                    ("RecomputedSlots".into(), fast.recomputed_slots as f64),
                    ("NodesBuilt".into(), fast.nodes_built as f64),
                ],
            ),
            vtree_gain_row(),
        ],
    )
}

/// `VTree::gain` over all 96 slots of a `k = 3` task (the `batch-replan`
/// shape) with 0, 3 and 12 slots executed, spread evenly over the timeline:
/// µs per 96-slot sweep, best of 5 runs of 100 sweeps each.
fn vtree_gain_row() -> Row {
    const M: usize = 96;
    const SWEEPS: usize = 100;
    let values = [0usize, 3, 12]
        .into_iter()
        .map(|executed| {
            let mut evaluator = QualityEvaluator::with_slots(M, 3);
            for i in 0..executed {
                evaluator.execute((2 * i + 1) * M / (2 * executed));
            }
            let tree = VTree::build(&evaluator, vec![Some(1.0); M], VTreeConfig::default());
            let ms = best_of(5, || {
                for _ in 0..SWEEPS {
                    std::hint::black_box((0..M).map(|t| tree.gain(&evaluator, t)).sum::<f64>());
                }
            });
            (format!("Executed{executed}Us"), ms * 1e3 / SWEEPS as f64)
        })
        .collect();
    Row::new("vtree_gain", values)
}

/// Fig. 8(d): pruning ratio of Approx* vs `m`, per distribution.
pub fn fig8d(scale: Scale) -> Report {
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
    Report::new(
        "fig8d",
        "Pruning ratio (%) of Approx* vs m, per distribution",
        rows,
    )
}

/// Fig. 8(e): tree construction time vs the split threshold `ts`.
pub fn fig8e(scale: Scale) -> Report {
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
    Report::new(
        "fig8e",
        "Tree construction time vs split threshold ts",
        rows,
    )
}

/// Fig. 8(f): effect of the task-location distribution on running time.
pub fn fig8f(scale: Scale) -> Report {
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
    Report::new(
        "fig8f",
        "Single-task time (ms) vs task-location distribution",
        rows,
    )
}

/// Fig. 8(g): effect of the interpolation parameter `k`.
pub fn fig8g(scale: Scale) -> Report {
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
    Report::new(
        "fig8g",
        "Single-task time (ms) vs interpolation parameter k",
        rows,
    )
}

/// Fig. 8(h): Approx* running time vs budget, per distribution.
pub fn fig8h(scale: Scale) -> Report {
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
    Report::new(
        "fig8h",
        "Approx* time (ms) vs budget, per distribution",
        rows,
    )
}

// ---------------------------------------------------------------------------
// Figure 9: efficiency of the multi-task case
// ---------------------------------------------------------------------------

/// Fig. 9(a): multi-task running time vs number of cores (task-level,
/// group-level, without parallelization).
pub fn fig9a(scale: Scale) -> Report {
    let p = params(scale);
    let prepared = prepare_multi(&multi_scenario(
        &p,
        TaskPlacement::Synthetic(SpatialDistribution::Uniform),
    ));
    let budget = budget_for_multi(&prepared, 0.25);
    let cfg = MultiTaskConfig::new(budget);
    let (_, serial_ms) = timed(|| serial(&prepared, &cfg, Objective::SumQuality));
    let mut rows = Vec::new();
    for &cores in &p.cores {
        let (_, task_ms) = timed(|| task_parallel(&prepared, &cfg, cores, true));
        let (_, group_ms) = timed(|| group_parallel(&prepared, &cfg, cores));
        rows.push(Row::new(
            format!("cores={cores}"),
            vec![
                ("TaskLevel".into(), task_ms),
                ("GroupLevel".into(), group_ms),
                ("NoParallel".into(), serial_ms),
            ],
        ));
    }
    Report::new("fig9a", "Multi-task time (ms) vs number of cores", rows)
}

/// Fig. 9(b): multi-task running time and worker conflicts vs distribution.
pub fn fig9b(scale: Scale) -> Report {
    let p = params(scale);
    let cores = *p.cores.last().unwrap();
    let mut rows = Vec::new();
    for placement in synthetic_placements() {
        let prepared = prepare_multi(&multi_scenario(&p, placement.clone()));
        let budget = budget_for_multi(&prepared, 0.25);
        let cfg = MultiTaskConfig::new(budget);
        let (task_outcome, task_ms) = timed(|| task_parallel(&prepared, &cfg, cores, true));
        let (_, group_ms) = timed(|| group_parallel(&prepared, &cfg, cores));
        rows.push(Row::new(
            placement.label(),
            vec![
                ("TaskLevel".into(), task_ms),
                ("GroupLevel".into(), group_ms),
                ("WorkerConflicts".into(), task_outcome.conflicts as f64),
            ],
        ));
    }
    Report::new(
        "fig9b",
        "Multi-task time (ms) and worker conflicts vs distribution",
        rows,
    )
}

/// Fig. 9(c): worker conflicts vs number of tasks, per distribution.
pub fn fig9c(scale: Scale) -> Report {
    let p = params(scale);
    let mut rows = Vec::new();
    for &t in &p.task_sweep {
        let mut values = Vec::new();
        for placement in placements() {
            let prepared = prepare_multi(&multi_scenario(&p, placement.clone()).with_num_tasks(t));
            let budget = budget_for_multi(&prepared, 0.25);
            let cfg = MultiTaskConfig::new(budget);
            let outcome = serial(&prepared, &cfg, Objective::SumQuality);
            let graph = independence_graph(&prepared.scenario.tasks, &prepared.index, 4);
            values.push((
                placement.label().to_string(),
                (outcome.conflicts + graph.conflict_count()) as f64,
            ));
        }
        rows.push(Row::new(format!("|T|={t}"), values));
    }
    Report::new(
        "fig9c",
        "Worker conflicts vs number of tasks, per distribution",
        rows,
    )
}

/// Fig. 9(d): multi-task running time vs number of tasks (task-level,
/// group-level, without parallelization).
pub fn fig9d(scale: Scale) -> Report {
    let p = params(scale);
    let cores = *p.cores.last().unwrap();
    let mut rows = Vec::new();
    for &t in &p.task_sweep {
        let prepared = prepare_multi(
            &multi_scenario(&p, TaskPlacement::Synthetic(SpatialDistribution::Uniform))
                .with_num_tasks(t),
        );
        let budget = budget_for_multi(&prepared, 0.25);
        let cfg = MultiTaskConfig::new(budget);
        let (_, task_ms) = timed(|| task_parallel(&prepared, &cfg, cores, true));
        let (_, group_ms) = timed(|| group_parallel(&prepared, &cfg, cores));
        let (_, serial_ms) = timed(|| serial(&prepared, &cfg, Objective::SumQuality));
        rows.push(Row::new(
            format!("|T|={t}"),
            vec![
                ("TaskLevel".into(), task_ms),
                ("GroupLevel".into(), group_ms),
                ("NoParallel".into(), serial_ms),
            ],
        ));
    }
    Report::new("fig9d", "Multi-task time (ms) vs number of tasks", rows)
}

/// Fig. 9(e): multi-task running time vs `m`, per distribution (task-level).
pub fn fig9e(scale: Scale) -> Report {
    let p = params(scale);
    let cores = *p.cores.last().unwrap();
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
            let (_, ms) = timed(|| task_parallel(&prepared, &cfg, cores, true));
            values.push((placement.label().to_string(), ms));
        }
        rows.push(Row::new(format!("m={m}"), values));
    }
    Report::new(
        "fig9e",
        "Multi-task time (ms) vs m, per distribution (task-level)",
        rows,
    )
}

/// Fig. 9(f): effect of dynamic thread priorities on the task-level framework.
pub fn fig9f(scale: Scale) -> Report {
    let p = params(scale);
    let prepared = prepare_multi(&multi_scenario(
        &p,
        TaskPlacement::Synthetic(SpatialDistribution::Uniform),
    ));
    let budget = budget_for_multi(&prepared, 0.25);
    let cfg = MultiTaskConfig::new(budget);
    let mut rows = Vec::new();
    for &cores in &p.cores {
        let (_, with_ms) = timed(|| task_parallel(&prepared, &cfg, cores, true));
        let (_, without_ms) = timed(|| task_parallel(&prepared, &cfg, cores, false));
        rows.push(Row::new(
            format!("cores={cores}"),
            vec![("Priority".into(), with_ms), ("Default".into(), without_ms)],
        ));
    }
    Report::new(
        "fig9f",
        "Task-level parallelization time (ms): priority vs default",
        rows,
    )
}

/// Fig. 9(g): MMQM running time vs number of tasks (Approx vs Approx*).
pub fn fig9g(scale: Scale) -> Report {
    let p = params(scale);
    let mut rows = Vec::new();
    for &t in &p.task_sweep {
        let prepared = prepare_multi(
            &multi_scenario(&p, TaskPlacement::Synthetic(SpatialDistribution::Uniform))
                .with_num_tasks(t),
        );
        let budget = budget_for_multi(&prepared, 0.25);
        let (_, plain_ms) = timed(|| {
            serial(
                &prepared,
                &MultiTaskConfig::new(budget).with_index(false),
                Objective::MinQuality,
            )
        });
        let (_, fast_ms) = timed(|| {
            serial(
                &prepared,
                &MultiTaskConfig::new(budget),
                Objective::MinQuality,
            )
        });
        rows.push(Row::new(
            format!("|T|={t}"),
            vec![("Approx".into(), plain_ms), ("Approx*".into(), fast_ms)],
        ));
    }
    Report::new("fig9g", "MMQM time (ms) vs number of tasks", rows)
}

/// Fig. 9(h): MMQM running time vs `m` (Approx vs Approx*).
pub fn fig9h(scale: Scale) -> Report {
    let p = params(scale);
    let mut rows = Vec::new();
    for &m in &p.m_sweep {
        let prepared = prepare_multi(
            &multi_scenario(&p, TaskPlacement::Synthetic(SpatialDistribution::Uniform))
                .with_num_slots(m),
        );
        let budget = budget_for_multi(&prepared, 0.25);
        let (_, plain_ms) = timed(|| {
            serial(
                &prepared,
                &MultiTaskConfig::new(budget).with_index(false),
                Objective::MinQuality,
            )
        });
        let (_, fast_ms) = timed(|| {
            serial(
                &prepared,
                &MultiTaskConfig::new(budget),
                Objective::MinQuality,
            )
        });
        rows.push(Row::new(
            format!("m={m}"),
            vec![("Approx".into(), plain_ms), ("Approx*".into(), fast_ms)],
        ));
    }
    Report::new("fig9h", "MMQM time (ms) vs number of subtasks m", rows)
}

/// Fig. 9(i) — repo extension beyond the paper: throughput of one long-lived
/// engine vs a fresh engine per call on a re-planning sweep (the same task
/// batch solved under several budgets, as in the paper's budget ablations).
/// A fresh engine recomputes every task's candidates per call; the
/// long-lived engine serves repeated solves from its candidate cache.
/// Slot-computation counters are reported alongside wall-clock time.
pub fn fig9i(scale: Scale) -> Report {
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

        let (fresh_slots, fresh_ms) = timed(|| {
            let mut slots = 0usize;
            for &budget in &budgets {
                let outcome = AssignmentEngine::borrowed(
                    &prepared.index,
                    &cost_model,
                    MultiTaskConfig::new(budget),
                )
                .assign_batch(tasks, Objective::SumQuality);
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
                ("Fresh".into(), fresh_ms),
                ("Engine".into(), engine_ms),
                ("FreshSlotComps".into(), fresh_slots as f64),
                ("EngineSlotComps".into(), engine_slots as f64),
            ],
        ));
    }
    Report::new(
        "fig9i",
        "Long-lived engine vs a fresh engine per call: re-planning sweep time (ms) and slot \
         computations",
        rows,
    )
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

/// `SApprox` on the summed spatiotemporal (STCC) objective.
fn st_sum(
    prepared: &PreparedMulti,
    cfg: &MultiTaskConfig,
    weights: InterpolationWeights,
) -> MultiOutcome {
    AssignmentEngine::borrowed(&prepared.index, &EuclideanCost::default(), *cfg)
        .assign_spatiotemporal(
            &prepared.scenario.tasks,
            &prepared.scenario.domain,
            weights,
            Objective::SumQuality,
        )
}

/// Fig. 11(a): quality per distribution with spatiotemporal interpolation
/// (RandMin, RandMax, Approx, SApprox, Opt — Opt reported per-task averaged).
pub fn fig11a(scale: Scale) -> Report {
    let p = params(scale);
    let cost_model = EuclideanCost::default();
    let mut rows = Vec::new();
    for placement in synthetic_placements() {
        let prepared = prepare_multi(&st_scenario(&p, placement.clone()));
        let budget = budget_for_multi(&prepared, 0.25);
        let cfg = MultiTaskConfig::new(budget);
        let (rand_min, rand_max, _, _) = multi_rand_baseline(&prepared, &cfg, 5);
        let temporal = st_sum(&prepared, &cfg, InterpolationWeights::temporal_only());
        let spatiotemporal = st_sum(&prepared, &cfg, InterpolationWeights::paper_default());
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
    Report::new(
        "fig11a",
        "Average quality vs distribution with spatiotemporal interpolation",
        rows,
    )
}

/// Fig. 11(b): quality vs budget with spatiotemporal interpolation.
pub fn fig11b(scale: Scale) -> Report {
    let p = params(scale);
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
        let temporal = st_sum(&prepared, &cfg, InterpolationWeights::temporal_only());
        let spatiotemporal = st_sum(&prepared, &cfg, InterpolationWeights::paper_default());
        rows.push(Row::new(
            format!("b={:.0}%", fraction * 100.0),
            vec![
                ("Approx".into(), temporal.sum_quality() / n),
                ("SApprox".into(), spatiotemporal.sum_quality() / n),
                ("RandAvg".into(), (rand_min + rand_max) / (2.0 * n)),
            ],
        ));
    }
    Report::new(
        "fig11b",
        "Average quality vs budget with spatiotemporal interpolation",
        rows,
    )
}

/// Fig. 11(c): quality vs the temporal weight `w_t` (Gaussian distribution).
pub fn fig11c(scale: Scale) -> Report {
    let p = params(scale);
    let prepared = prepare_multi(&st_scenario(
        &p,
        TaskPlacement::Synthetic(SpatialDistribution::Gaussian),
    ));
    let budget = budget_for_multi(&prepared, 0.25);
    let cfg = MultiTaskConfig::new(budget);
    let n = prepared.scenario.tasks.len() as f64;
    let mut rows = Vec::new();
    for wt in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
        let outcome = st_sum(
            &prepared,
            &cfg,
            InterpolationWeights::from_temporal_ratio(wt),
        );
        rows.push(Row::new(
            format!("wt={wt:.1}"),
            vec![("SApprox".into(), outcome.sum_quality() / n)],
        ));
    }
    Report::new(
        "fig11c",
        "Average quality vs temporal weight w_t (Gaussian)",
        rows,
    )
}
