//! Figure 7 bench: multi-task quality (q_sum and q_min) and the latency of
//! the serial MSQM / MMQM solvers.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use tcsc_assign::{AssignmentEngine, MultiTaskConfig, Objective};
use tcsc_bench::figures::{fig7a, fig7b, fig7c, fig7d};
use tcsc_bench::{prepare_multi, Scale};
use tcsc_core::EuclideanCost;
use tcsc_workload::ScenarioConfig;

fn bench_fig7(c: &mut Criterion) {
    println!("{}", fig7a(Scale::Quick).render());
    println!("{}", fig7b(Scale::Quick).render());
    println!("{}", fig7c(Scale::Quick).render());
    println!("{}", fig7d(Scale::Quick).render());

    let prepared = prepare_multi(
        &ScenarioConfig::small()
            .with_num_tasks(6)
            .with_num_slots(40)
            .with_num_workers(600),
    );
    let cfg = MultiTaskConfig::new(40.0);
    let cost = EuclideanCost::default();

    let mut group = c.benchmark_group("fig7_multi_quality");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("msqm_serial_6x40", |b| {
        b.iter(|| {
            AssignmentEngine::borrowed(&prepared.index, &cost, cfg)
                .assign_batch(&prepared.scenario.tasks, Objective::SumQuality)
        })
    });
    group.bench_function("mmqm_6x40", |b| {
        b.iter(|| {
            AssignmentEngine::borrowed(&prepared.index, &cost, cfg)
                .assign_batch(&prepared.scenario.tasks, Objective::MinQuality)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
