//! A TCSC platform serving many tasks at once: demonstrates the multi-task
//! pipeline end to end — workload generation, conflict analysis, and the
//! serial / group-level / task-level assignment frameworks (Section IV of
//! the paper).
//!
//! Run with `cargo run --example crowdsourcing_platform`.

use tcsc::prelude::*;

fn main() {
    // A batch of environmental-sensing tasks submitted to the platform.
    let config = ScenarioConfig::small()
        .with_num_tasks(12)
        .with_num_slots(60)
        .with_num_workers(1200)
        .with_placement(TaskPlacement::Synthetic(SpatialDistribution::Gaussian))
        .with_seed(2026);
    let scenario = config.build();
    let index = WorkerIndex::build(&scenario.workers, 60, &scenario.domain);
    let cost_model = EuclideanCost::default();

    // Inspect the conflict structure first: which tasks compete for workers?
    let graph = independence_graph(&scenario.tasks, &index, 6);
    println!(
        "independence graph   : {} tasks, {} conflict edges, {} groups (largest {})",
        graph.num_tasks,
        graph.conflict_count(),
        graph.groups.len(),
        graph.largest_group()
    );

    let budget = 250.0;
    let multi = MultiTaskConfig::new(budget);

    // Serial reference.
    let sw = Stopwatch::start();
    let serial = AssignmentEngine::borrowed(&index, &cost_model, multi)
        .assign_batch(&scenario.tasks, Objective::SumQuality);
    let serial_ms = sw.elapsed_ms();

    // Group-level parallelization.
    let sw = Stopwatch::start();
    let grouped = msqm_group_parallel(&scenario.tasks, &index, &cost_model, &multi, 4).outcome;
    let grouped_ms = sw.elapsed_ms();

    // Task-level parallelization (deterministic: same plan as the serial run).
    let sw = Stopwatch::start();
    let task_level =
        msqm_task_parallel(&scenario.tasks, &index, &cost_model, &multi, 4, true).outcome;
    let task_ms = sw.elapsed_ms();

    println!();
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>10}",
        "framework", "sum quality", "min quality", "conflicts", "ms"
    );
    println!(
        "{:<22} {:>12.3} {:>12.3} {:>12} {:>10.1}",
        "serial (no parallel)",
        serial.sum_quality(),
        serial.min_quality(),
        serial.conflicts,
        serial_ms
    );
    println!(
        "{:<22} {:>12.3} {:>12.3} {:>12} {:>10.1}",
        "group-level",
        grouped.sum_quality(),
        grouped.min_quality(),
        grouped.conflicts,
        grouped_ms
    );
    println!(
        "{:<22} {:>12.3} {:>12.3} {:>12} {:>10.1}",
        "task-level",
        task_level.sum_quality(),
        task_level.min_quality(),
        task_level.conflicts,
        task_ms
    );

    println!();
    assert!(
        (task_level.sum_quality() - serial.sum_quality()).abs() < 1e-9,
        "the task-level framework is deterministic and matches the serial plan"
    );
}
