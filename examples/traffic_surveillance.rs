//! Traffic surveillance with spatiotemporal interpolation (the STCC extension
//! of the paper's appendix): several road segments are monitored
//! simultaneously, and an unobserved segment-hour can be inferred both from
//! other hours of the same segment (temporal) and from nearby segments
//! observed during the same hour (spatial).
//!
//! Run with `cargo run --example traffic_surveillance`.

use tcsc::prelude::*;

fn main() {
    let num_slots = 36; // three days of 2-hour slots

    // Road segments across a city grid.
    let tasks: Vec<Task> = (0..8)
        .map(|i| {
            let x = 15.0 + 10.0 * (i % 4) as f64;
            let y = 30.0 + 25.0 * (i / 4) as f64;
            Task::new(TaskId(i as u32), Location::new(x, y), num_slots)
        })
        .collect();

    let scenario = ScenarioConfig::small()
        .with_num_slots(num_slots)
        .with_num_workers(600)
        .with_seed(99)
        .build();
    let index = WorkerIndex::build(&scenario.workers, num_slots, &scenario.domain);
    let cost_model = EuclideanCost::default();
    let budget = 150.0;
    let config = MultiTaskConfig::new(budget);
    // `SApprox` maximising the summed quality under the given weights.
    let sapprox = |weights| {
        AssignmentEngine::borrowed(&index, &cost_model, config).assign_spatiotemporal(
            &tasks,
            &scenario.domain,
            weights,
            Objective::SumQuality,
        )
    };

    // Temporal-only interpolation (the base TCSC metric) ...
    let temporal = sapprox(InterpolationWeights::temporal_only());
    // ... versus the weighted spatiotemporal metric (w_t = 0.7, w_s = 0.3).
    let spatiotemporal = sapprox(InterpolationWeights::paper_default());

    println!("road segments        : {}", tasks.len());
    println!("budget               : {budget}");
    println!();
    println!(
        "Approx  (temporal)   : sum quality {:.3}, {} probes, {} conflicts",
        temporal.sum_quality(),
        temporal.executions,
        temporal.conflicts
    );
    println!(
        "SApprox (spatiotemp.): sum quality {:.3}, {} probes, {} conflicts",
        spatiotemporal.sum_quality(),
        spatiotemporal.executions,
        spatiotemporal.conflicts
    );
    println!();

    // Sweep the temporal weight, as in Fig. 11(c).
    println!("{:<8} {:>12}", "w_t", "sum quality");
    for wt in [0.0, 0.25, 0.5, 0.7, 0.9, 1.0] {
        let outcome = sapprox(InterpolationWeights::from_temporal_ratio(wt));
        println!("{wt:<8.2} {:>12.3}", outcome.sum_quality());
    }
}
