//! Figure 9s bench (repo extension): the sharded spatial index against the
//! dense grid, and the sharded engine against the serial dense-index engine,
//! on the region-partitioned streaming preset.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Duration;

use tcsc_assign::{AssignmentEngine, ConcurrentAssignmentEngine, MultiTaskConfig, Objective};
use tcsc_bench::figures::fig9s;
use tcsc_bench::Scale;
use tcsc_core::{EuclideanCost, WorkerId};
use tcsc_index::{ShardGridConfig, ShardedWorkerIndex, WorkerIndex};
use tcsc_workload::{ScenarioConfig, StreamingConfig};

fn bench_sharded_engine(c: &mut Criterion) {
    println!("{}", fig9s(Scale::Quick).render());

    // A CI-sized slice of the fig9s preset (smaller than the driver's, so
    // the criterion samples stay fast).
    let base = ScenarioConfig::small()
        .with_num_slots(60)
        .with_num_workers(1500);
    let streaming = StreamingConfig::region_partitioned(base, 4, 3, 8).build();
    let tasks = streaming.concatenated();
    let num_slots = streaming.config.base.num_slots;
    let dense = WorkerIndex::build(&streaming.workers, num_slots, &streaming.domain);
    let sharded = ShardedWorkerIndex::build(
        &streaming.workers,
        num_slots,
        &streaming.domain,
        ShardGridConfig::new(4, 4),
    );
    let cost = EuclideanCost::default();
    let cfg = MultiTaskConfig::new(tasks.len() as f64 * 0.25);

    let mut group = c.benchmark_group("fig9s_sharded_engine");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("dense_knn_queries", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for task in &tasks {
                for slot in (0..num_slots).step_by(5) {
                    acc += dense.k_nearest(slot, &task.location, 8).len();
                }
            }
            acc
        })
    });
    group.bench_function("sharded_knn_queries", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for task in &tasks {
                for slot in (0..num_slots).step_by(5) {
                    acc += sharded.k_nearest(slot, &task.location, 8).len();
                }
            }
            acc
        })
    });
    // Occupancy-filtered queries against a seeded exclusion set holding
    // about half of each slot's workers: the peak occupancy ratio of the
    // serial service workload, where every conflict fallback and commit
    // refresh asks for the nearest *free* worker.
    let mut rng = StdRng::seed_from_u64(9);
    let occupied: Vec<BTreeSet<WorkerId>> = (0..num_slots)
        .map(|slot| {
            streaming
                .workers
                .available_at(slot)
                .filter(|_| rng.gen_bool(0.5))
                .map(|(w, _)| w.id)
                .collect()
        })
        .collect();
    group.bench_function("dense_filtered_queries", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for task in &tasks {
                for slot in (0..num_slots).step_by(5) {
                    acc += dense
                        .nearest_excluding_set(slot, &task.location, &occupied[slot])
                        .is_some() as usize;
                }
            }
            acc
        })
    });
    group.bench_function("sharded_filtered_queries", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for task in &tasks {
                for slot in (0..num_slots).step_by(5) {
                    acc += sharded
                        .nearest_excluding_set(slot, &task.location, &occupied[slot])
                        .is_some() as usize;
                }
            }
            acc
        })
    });
    group.bench_function("serial_engine_batch", |b| {
        b.iter(|| {
            AssignmentEngine::borrowed(&dense, &cost, cfg)
                .assign_batch(&tasks, Objective::SumQuality)
        })
    });
    group.bench_function("concurrent_engine_batch", |b| {
        b.iter(|| {
            ConcurrentAssignmentEngine::new(sharded.clone(), &cost, cfg, 1)
                .assign_batch(&tasks, Objective::SumQuality)
        })
    });
    group.bench_function("concurrent_engine_streaming_drains", |b| {
        b.iter(|| {
            let mut engine = ConcurrentAssignmentEngine::new(sharded.clone(), &cost, cfg, 1);
            for round in &streaming.rounds {
                engine.submit(round.clone());
                engine.drain(Objective::SumQuality);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_sharded_engine);
criterion_main!(benches);
