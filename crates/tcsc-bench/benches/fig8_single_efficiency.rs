//! Figure 8 bench: single-task efficiency — Approx vs Approx* scaling with
//! `m`, `|W|`, `k`, `ts`, budgets and distributions, plus the time breakdown
//! and pruning-ratio analyses.  `vtree_gain` times the exact-gain kernel
//! under Approx* on its own: `VTree::gain` over every slot of one task.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use tcsc_assign::{approx, approx_star, SingleTaskConfig};
use tcsc_bench::figures::{fig8a, fig8b, fig8c, fig8d, fig8e, fig8f, fig8g, fig8h};
use tcsc_bench::{prepare_single, Scale};
use tcsc_core::quality::QualityEvaluator;
use tcsc_index::vtree::{VTree, VTreeConfig};
use tcsc_workload::ScenarioConfig;

fn bench_fig8(c: &mut Criterion) {
    for experiment in [
        fig8a(Scale::Quick),
        fig8b(Scale::Quick),
        fig8c(Scale::Quick),
        fig8d(Scale::Quick),
        fig8e(Scale::Quick),
        fig8f(Scale::Quick),
        fig8g(Scale::Quick),
        fig8h(Scale::Quick),
    ] {
        println!("{}", experiment.render());
    }

    let mut group = c.benchmark_group("fig8_single_efficiency");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for m in [100usize, 200] {
        let prepared = prepare_single(
            &ScenarioConfig::small()
                .with_num_slots(m)
                .with_num_workers(1000),
        );
        let budget: f64 = (0..m)
            .filter_map(|j| prepared.candidates.cost(j))
            .sum::<f64>()
            * 0.25;
        let cfg = SingleTaskConfig::new(budget);
        group.bench_with_input(BenchmarkId::new("approx", m), &m, |b, _| {
            b.iter(|| approx(&prepared.task, &prepared.candidates, &cfg))
        });
        group.bench_with_input(BenchmarkId::new("approx_star", m), &m, |b, _| {
            b.iter(|| approx_star(&prepared.task, &prepared.candidates, &cfg))
        });
    }
    group.finish();
}

/// `VTree::gain` over all 96 slots of a `k = 3` task (the `batch-replan`
/// shape) with 0, 3 and 12 slots executed, spread evenly over the timeline;
/// reported as `vtree_gain/<executed>`.
fn vtree_gain(c: &mut Criterion) {
    const M: usize = 96;
    let mut group = c.benchmark_group("fig8_single_efficiency");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for executed in [0usize, 3, 12] {
        let mut evaluator = QualityEvaluator::with_slots(M, 3);
        for i in 0..executed {
            evaluator.execute((2 * i + 1) * M / (2 * executed));
        }
        let tree = VTree::build(&evaluator, vec![Some(1.0); M], VTreeConfig::default());
        group.bench_with_input(
            BenchmarkId::new("vtree_gain", executed),
            &executed,
            |b, _| b.iter(|| (0..M).map(|t| tree.gain(&evaluator, t)).sum::<f64>()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fig8, vtree_gain);
criterion_main!(benches);
