//! Figure 9d bench (repo extension): the discrete-event distributed runtime
//! — how fast the simulator itself replays a region-partitioned arrival
//! trace through the dispatcher/region-node cluster.

use std::rc::Rc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use tcsc_core::EuclideanCost;
use tcsc_sim::{run_cluster, LatencyModel, SimBatch, SimClusterConfig};
use tcsc_workload::{ArrivalTrace, ScenarioConfig, StreamingConfig};

fn bench_sim_runtime(c: &mut Criterion) {
    let streaming = StreamingConfig::region_partitioned(
        ScenarioConfig::small()
            .with_num_slots(24)
            .with_num_workers(300),
        3,
        3,
        5,
    )
    .build();
    let slots = streaming.config.base.num_slots;
    let trace = ArrivalTrace::from_streaming(&streaming, 50_000);
    let budget = trace.len() as f64 * 2.0;
    let batches: Vec<SimBatch> = trace
        .batches()
        .into_iter()
        .map(|(at_us, tasks)| SimBatch { at_us, tasks })
        .collect();

    let mut group = c.benchmark_group("fig9d_sim_runtime");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("barrier", |b| {
        b.iter(|| {
            run_cluster(
                &streaming.workers,
                slots,
                &streaming.domain,
                batches.clone(),
                Rc::new(EuclideanCost::default()),
                &SimClusterConfig::new(4, 3, budget, LatencyModel::Fixed(200)),
            )
            .executions
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sim_runtime);
criterion_main!(benches);
