//! Long-term water-quality monitoring (the paper's motivating example,
//! Fig. 1): a crowdsourcer wants microbial content measured at several river
//! sites for a week, but the budget only covers a fraction of the
//! site-hours.  The example shows how the entropy quality metric trades
//! executed probes against interpolation error, and how worker reliability
//! is taken into account.
//!
//! Run with `cargo run --example water_quality_monitoring`.

use tcsc::prelude::*;

fn main() {
    // A week of 2-hour slots.
    let num_slots = 84;
    // Five monitoring sites along a river (clustered locations).
    let sites = [
        Location::new(20.0, 15.0),
        Location::new(32.0, 28.0),
        Location::new(45.0, 42.0),
        Location::new(58.0, 55.0),
        Location::new(70.0, 69.0),
    ];
    let tasks: Vec<Task> = sites
        .iter()
        .enumerate()
        .map(|(i, &loc)| Task::new(TaskId(i as u32), loc, num_slots))
        .collect();

    // Citizen-science volunteers with limited availability and imperfect
    // reliability (sensor handling errors, etc.).
    let trajectories = TrajectoryConfig::paper_default(num_slots).with_reliability(0.6, 1.0);
    let scenario = ScenarioConfig::small()
        .with_num_slots(num_slots)
        .with_num_workers(800)
        .with_seed(13)
        .build();
    let mut rng = rand::rngs::StdRng::from_seed_u64(13);
    let workers = tcsc_workload::generate_workers(&mut rng, 800, &scenario.domain, &trajectories);
    let index = WorkerIndex::build(&workers, num_slots, &scenario.domain);
    let cost_model = EuclideanCost::default();

    // Multi-task assignment: maximise the *minimum* site quality so no site
    // is left unmonitored (MMQM), with worker reliability weighting.
    let budget = 120.0;
    let config = MultiTaskConfig::new(budget).with_reliability();
    let outcome = AssignmentEngine::borrowed(&index, &cost_model, config)
        .assign_batch(&tasks, Objective::MinQuality);

    println!("budget shared by {} sites : {budget}", tasks.len());
    println!("worker conflicts          : {}", outcome.conflicts);
    println!("total executed probes     : {}", outcome.executions);
    println!();
    println!(
        "{:<8} {:>10} {:>10} {:>12}",
        "site", "probes", "cost", "quality"
    );
    for plan in &outcome.assignment.plans {
        println!(
            "{:<8} {:>10} {:>10.2} {:>12.3}",
            format!("site-{}", plan.task.0),
            plan.executed_count(),
            plan.total_cost(),
            plan.quality
        );
    }
    println!();
    println!("minimum site quality      : {:.3}", outcome.min_quality());
    println!("summed quality            : {:.3}", outcome.sum_quality());

    // For comparison: the sum-oriented objective concentrates probes on cheap
    // sites and can starve the weakest one.
    let sum_outcome = AssignmentEngine::borrowed(&index, &cost_model, config)
        .assign_batch(&tasks, Objective::SumQuality);
    println!(
        "MSQM (sum-oriented)       : min {:.3}, sum {:.3}",
        sum_outcome.min_quality(),
        sum_outcome.sum_quality()
    );
}

/// Small helper extending `StdRng` with a seeded constructor without pulling
/// the `SeedableRng` trait into the example's namespace.
trait SeedExt {
    fn from_seed_u64(seed: u64) -> rand::rngs::StdRng;
}

impl SeedExt for rand::rngs::StdRng {
    fn from_seed_u64(seed: u64) -> rand::rngs::StdRng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed)
    }
}
