//! Repo-extension figures beyond the paper: the simulated distributed
//! runtime (fig9dist), the observability layer (fig9obs), the service-mode
//! SLO driver (fig9svc) and mobile workers on the mutable index (fig9mob).
//! fig9svc and fig9mob run one service loop, [`service_run`], on the dense
//! engine: fig9svc with the retired-task GC and latency windows, fig9mob
//! with a worker-motion tape.

use tcsc_assign::{AssignmentEngine, MultiTaskConfig, Objective};
use tcsc_core::fnv::{self, plan_hash};
use tcsc_core::{AssignmentPlan, EuclideanCost, Task, Worker, WorkerPool, WorkerSlot};
use tcsc_index::{MutableSpatialIndex as _, WorkerIndex};
use tcsc_obs::ObsSession;
use tcsc_sim::LatencyModel;
use tcsc_workload::{
    BoundedPareto, HeavyTailedArrivals, MotionTape, PhaseSchedule, Scenario, ScenarioConfig,
    SpatialDistribution, StreamingConfig, TaskPlacement, WorkerChurnConfig, WorkerMotion,
};

use crate::{best_of, prepare_multi, timed, Report, Row, Scale};

// ---------------------------------------------------------------------------
// Figure 9dist (repo extension): the simulated distributed runtime
// ---------------------------------------------------------------------------

/// Fig. 9dist (repo extension): a region-partitioned streaming workload
/// converted to a timed arrival trace and replayed through the simulated
/// distributed runtime, sweeping node count × network latency.  Every
/// cell's plans are checked against the in-process engine.
pub fn fig9dist(scale: Scale) -> Report {
    match scale {
        Scale::Quick => fig9dist_sized(
            3,
            3,
            6,
            24,
            120,
            &[1, 2, 4],
            &[
                LatencyModel::Zero,
                LatencyModel::Fixed(200),
                LatencyModel::Uniform { min: 50, max: 2000 },
            ],
        ),
        Scale::Full => fig9dist_sized(
            4,
            4,
            15,
            60,
            800,
            &[1, 2, 4, 8, 16],
            &[
                LatencyModel::Zero,
                LatencyModel::Fixed(200),
                LatencyModel::Fixed(2_000),
                LatencyModel::Uniform { min: 50, max: 5000 },
            ],
        ),
    }
}

/// [`fig9dist`] on an explicit workload: `regions` regions, `rounds` ×
/// `per_round` tasks of `slots` slots over `workers` workers, swept over
/// `node_sweep` × `latencies`.
pub(super) fn fig9dist_sized(
    regions: usize,
    rounds: usize,
    per_round: usize,
    slots: usize,
    workers: usize,
    node_sweep: &[usize],
    latencies: &[LatencyModel],
) -> Report {
    use std::rc::Rc;

    use tcsc_sim::{run_cluster, SimBatch, SimClusterConfig};
    use tcsc_workload::ArrivalTrace;

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
    let engine_plan_hash = plan_hash(&tcsc_core::MultiAssignment::new(engine_plans));

    let batches = |trace: &ArrivalTrace| -> Vec<SimBatch> {
        trace
            .batches()
            .into_iter()
            .map(|(at_us, tasks)| SimBatch { at_us, tasks })
            .collect()
    };

    // The zero-latency single-node sim must reproduce the engine's plans
    // bit for bit.
    let reference = run_cluster(
        &streaming.workers,
        slots,
        &streaming.domain,
        batches(&trace),
        Rc::new(EuclideanCost::default()),
        &SimClusterConfig::new(1, regions, budget, LatencyModel::Zero),
    );
    let sim_plan_hash = plan_hash(&reference.assignment);

    let mut rows = Vec::new();
    let mut diverged = Vec::new();
    for &nodes in node_sweep {
        for latency in latencies {
            let (sim, wall_ms) = timed(|| {
                run_cluster(
                    &streaming.workers,
                    slots,
                    &streaming.domain,
                    batches(&trace),
                    Rc::new(EuclideanCost::default()),
                    &SimClusterConfig::new(nodes, regions, budget, *latency).with_service_us(50),
                )
            });
            let label = format!("n={nodes} {}", latency.describe());
            if plan_hash(&sim.assignment) != engine_plan_hash {
                diverged.push(label.clone());
            }
            rows.push(Row::new(
                label,
                vec![
                    ("VirtualMs".into(), sim.finish_time_us as f64 / 1000.0),
                    ("Events".into(), sim.delivered_events as f64),
                    ("LatencyMeanUs".into(), latency.mean()),
                    ("WallMs".into(), wall_ms),
                ],
            ));
        }
    }

    Report::new(
        "fig9dist",
        "Distributed discrete-event runtime: virtual completion time vs \
         node count x network latency",
        rows,
    )
    .num("num_tasks", trace.len() as f64)
    .num("rounds", trace.rounds as f64)
    .num("conflicts", conflicts as f64)
    .num("executions", executions as f64)
    .hash("sim_plan_hash", sim_plan_hash)
    .hash("engine_plan_hash", engine_plan_hash)
    .gate(
        "plan_hash_matches",
        sim_plan_hash == engine_plan_hash,
        format!(
            "zero-latency single-node sim {sim_plan_hash:#018x} vs serial engine \
             {engine_plan_hash:#018x}"
        ),
    )
    .gate(
        "sweep_plans_match",
        diverged.is_empty(),
        format!(
            "sweep cells whose plans diverge from the engine: [{}]",
            diverged.join(", ")
        ),
    )
}

// ---------------------------------------------------------------------------
// Figure 9obs (repo extension): the observability layer itself — digest
// stability across cluster layouts, trace export/replay, recorder overhead
// ---------------------------------------------------------------------------

/// Fig. 9obs (repo extension): records the seeded sim across node count ×
/// latency and checks the logical digest is layout-invariant, round-trips
/// one trace through the chrome exporter/parser, then times a commit-heavy
/// MSQM batch with and without a live recorder.
pub fn fig9obs(scale: Scale) -> Report {
    match scale {
        Scale::Quick => fig9obs_sized(
            &[1, 2, 4],
            &[
                LatencyModel::Zero,
                LatencyModel::Uniform { min: 20, max: 4000 },
            ],
            128,
            4000,
            3,
        ),
        Scale::Full => fig9obs_sized(
            &[1, 2, 4, 8],
            &[
                LatencyModel::Zero,
                LatencyModel::Fixed(250),
                LatencyModel::Uniform { min: 20, max: 4000 },
            ],
            256,
            10_357,
            5,
        ),
    }
}

/// [`fig9obs`] on an explicit workload: the digest sweep over `node_sweep`
/// × `latencies`, the overhead batch of `overhead_tasks` tasks over
/// `overhead_workers` workers, best of `runs`.
pub(super) fn fig9obs_sized(
    node_sweep: &[usize],
    latencies: &[LatencyModel],
    overhead_tasks: usize,
    overhead_workers: usize,
    runs: usize,
) -> Report {
    use std::rc::Rc;

    use tcsc_obs::{parse_chrome_trace_jsonl, replay_digest};
    use tcsc_sim::{run_cluster, SimBatch, SimClusterConfig};

    let cfg = ScenarioConfig::small()
        .with_num_tasks(10)
        .with_num_slots(30)
        .with_num_workers(150)
        .with_placement(TaskPlacement::Synthetic(SpatialDistribution::region_grid(
            3,
        )));
    let scenario = cfg.build();
    let slots = cfg.num_slots;

    let mut cells = Vec::new();
    let mut kept: Option<tcsc_obs::ObsReport> = None;
    for &nodes in node_sweep {
        for latency in latencies {
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
            cells.push((
                format!("n={nodes} {}", latency.describe()),
                report.digest,
                report.events.len(),
            ));
            kept.get_or_insert(report);
        }
    }
    let kept = kept.expect("at least one sweep cell");
    let digest_uniform = cells.iter().all(|(_, digest, _)| *digest == kept.digest);
    let trace_jsonl = kept.chrome_trace();
    let replayed = replay_digest(&parse_chrome_trace_jsonl(&trace_jsonl));

    // Recorder overhead on a commit-heavy batch (many-slot tasks under a
    // tight budget, so per-grant refreshes dominate): untimed
    // instrumentation (NoopRecorder default) against a live wall-clock
    // session.
    let pcfg = ScenarioConfig::small()
        .with_num_tasks(overhead_tasks)
        .with_num_slots(96)
        .with_num_workers(overhead_workers);
    let prepared = prepare_multi(&pcfg);
    let tasks = &prepared.scenario.tasks;
    let cost = EuclideanCost::default();
    let mcfg = MultiTaskConfig::new(overhead_tasks as f64 * 0.2);
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

    let mut rows = vec![Row::new(
        "overhead",
        vec![
            ("NoopMs".into(), noop_ms),
            ("RecordedMs".into(), recorded_ms),
            ("Ratio".into(), recorded_ms / noop_ms.max(f64::MIN_POSITIVE)),
        ],
    )];
    for (label, digest, events) in &cells {
        rows.push(Row::new(
            label.as_str(),
            vec![
                ("Events".into(), *events as f64),
                (
                    "DigestOk".into(),
                    f64::from(u8::from(*digest == kept.digest)),
                ),
            ],
        ));
    }
    let report = Report::new(
        "fig9obs",
        "Observability layer: logical digest across cluster layouts, \
         trace export/replay round trip, recorder overhead vs no-op",
        rows,
    )
    .hash("digest", kept.digest)
    .gate(
        "digest_uniform",
        digest_uniform,
        format!(
            "the logical-stream digest of all {} node-count x latency cells equals {:#018x}",
            cells.len(),
            kept.digest
        ),
    )
    .gate(
        "digest_match",
        replayed == kept.digest,
        format!(
            "chrome-trace export replays to {replayed:#018x} vs recorded {:#018x}",
            kept.digest
        ),
    )
    // Within noise: a live session appends one buffered event per span —
    // nanoseconds against a millisecond-scale batch.  The bound is generous
    // (1.5x + 1ms) because CI machines preempt; it exists to catch a
    // recorder that accidentally becomes O(events) per record.
    .gate(
        "overhead_ok",
        recorded_ms <= noop_ms * 1.5 + 1.0,
        format!("{recorded_ms:.2}ms recorded <= 1.5 x {noop_ms:.2}ms no-op + 1ms"),
    )
    .artifact("TRACE_fig9obs.jsonl", trace_jsonl);
    let summary = format!("{}\n{}", report.render(), kept.metrics.render());
    report.artifact("OBS_SUMMARY.txt", summary)
}

// ---------------------------------------------------------------------------
// The service loop shared by fig9svc and fig9mob: the streaming engine fed by
// a heavy-tailed arrival process with rush-hour bursts, drained on a virtual
// tick, with retired-task GC and fleet motion between drains
// ---------------------------------------------------------------------------

/// Slots per service task (kept small: the service figures measure latency
/// and index maintenance under load, not assignment quality).
pub(super) const SVC_NUM_SLOTS: usize = 2;
/// The service drains its queue every `SVC_DRAIN_EVERY_US` microseconds of
/// virtual time (fig9mob's fleet moves on the same tick).
pub(super) const SVC_DRAIN_EVERY_US: u64 = 5_000;
/// A committed plan occupies its workers for this long before the
/// retired-task GC releases them back to the pool.
pub(super) const SVC_SERVICE_US: u64 = 20_000;
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

/// A virtual-clock session holding the per-phase latency windows.
pub(super) fn svc_latency_session() -> ObsSession {
    let session = ObsSession::virtual_time();
    for name in SVC_WINDOWS {
        session.install_window(name, SVC_WINDOW_SLICE_NANOS, SVC_WINDOW_SLICES);
    }
    session
}

/// A service workload: `total_tasks` two-slot tasks streamed over the
/// workers of a seeded scenario, and the per-tick drain capacity.
pub(super) struct ServiceLoad {
    scenario: Scenario,
    pub(super) arrivals: HeavyTailedArrivals,
    total_tasks: usize,
    capacity: usize,
}

impl ServiceLoad {
    /// Bounded-Pareto inter-arrivals (mean ≈ 57 µs) under the canonical
    /// calm → rush(×4) → recovery schedule.  The per-tick capacity sits
    /// between the calm and rush arrival rates, so the backlog — and the
    /// latency tail — grows during every rush and drains during recovery.
    pub(super) fn new(total_tasks: usize, workers: usize) -> Self {
        let scenario = ScenarioConfig::small()
            .with_num_slots(SVC_NUM_SLOTS)
            .with_num_workers(workers)
            .build();
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
        Self {
            scenario,
            arrivals,
            total_tasks,
            capacity,
        }
    }

    /// The dense index over the scenario's workers.
    pub(super) fn index(&self) -> WorkerIndex {
        WorkerIndex::build(&self.scenario.workers, SVC_NUM_SLOTS, &self.scenario.domain)
    }

    /// The engine configuration: a budget of two per task of per-tick
    /// capacity.
    pub(super) fn config(&self) -> MultiTaskConfig {
        MultiTaskConfig::new(self.capacity as f64 * 2.0)
    }

    /// Waypoint drift plus session churn, one motion tick per drain tick,
    /// generously over-provisioned past the expected stream duration
    /// (leftover events are simply never due).
    pub(super) fn motion_tape(&self) -> MotionTape {
        let churn = WorkerChurnConfig {
            seed: 77,
            tick_us: SVC_DRAIN_EVERY_US,
            moves_per_tick: 6,
            churn_prob: 0.3,
            drift_fraction: 0.25,
            num_slots: SVC_NUM_SLOTS,
            domain: self.scenario.domain,
        };
        let mean_us = self.arrivals.inter_arrival_us.mean();
        let ticks =
            (self.total_tasks as f64 * mean_us / SVC_DRAIN_EVERY_US as f64 * 2.0) as usize + 50;
        MotionTape::generate(&churn, &self.scenario.workers, ticks)
    }
}

/// How a service pass keeps its index current as the fleet moves.
#[derive(Debug, Clone, Copy)]
pub(super) enum Maintenance {
    /// Apply each motion in place through the engine's mutation API (grid
    /// cell edits).
    Mutate,
    /// Track the fleet in a mirror pool and swap in a rebuilt index before
    /// every drain that follows motion — the pre-mutable-index baseline.
    Rebuild,
}

/// The outcome of one service pass.
#[derive(Default)]
pub(super) struct ServiceRun {
    pub(super) plan_hash: u64,
    pub(super) commits: u64,
    pub(super) executions: u64,
    drains: u64,
    drain_wall_ms: f64,
    peak_backlog: usize,
    pub(super) peak_ledger: usize,
    /// Commitments freed by the GC, by a worker going offline, or by a
    /// rebuilt index no longer holding the worker.
    pub(super) released: u64,
    pub(super) final_ledger: usize,
    virtual_end_us: u64,
    phase_arrivals: Vec<u64>,
    phase_commits: Vec<u64>,
    phase_time_us: Vec<u64>,
    pub(super) phase_hist: Vec<tcsc_obs::Histogram>,
    /// Each phase's sliding-window p99, read as the phase's last tick
    /// closes (0 without a latency session).
    pub(super) phase_window_p99: Vec<u64>,
    /// Wall clock spent keeping the index current with the fleet.
    maintenance_ms: f64,
    pub(super) rebuilds: u64,
    pub(super) moves: u64,
    pub(super) offline: u64,
    online: u64,
    entries_spliced: u64,
    rebuild_equiv: u64,
    imbalance_milli: u64,
}

/// Applies one motion to a mirror of the fleet.
fn mirror_motion(mirror: &mut Vec<Worker>, motion: &WorkerMotion) {
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
                .map(|ws| WorkerSlot {
                    slot: ws.slot,
                    location: *to,
                })
                .collect();
            mirror[at] = Worker::with_reliability(*id, slots, old.reliability);
        }
        WorkerMotion::Offline { id } => mirror.retain(|w| w.id != *id),
        WorkerMotion::Online { worker } => mirror.push(worker.clone()),
    }
}

/// Drives one service pass over `load`: a virtual clock ticking every
/// [`SVC_DRAIN_EVERY_US`], and per tick, in order:
///
/// 1. arrivals due by the tick join a driver-side backlog (the sampler is
///    an infinite iterator, nothing is materialised);
/// 2. with a `service_us`, plans committed that long ago retire and
///    release their workers;
/// 3. with a `fleet`, the tape's motions due by the tick are applied —
///    in place under [`Maintenance::Mutate`]; under
///    [`Maintenance::Rebuild`] they update a mirror pool and a rebuilt
///    index is swapped in before the next drain, so both strategies plan
///    every drain against the same fleet and the timed maintenance is
///    exactly the work each does to get there;
/// 4. at most `capacity` backlog tasks are submitted and drained (timed);
/// 5. each served task's submit→commit latency — the virtual time from its
///    arrival to the end of the tick — is recorded per phase.  With a
///    latency session (see [`svc_latency_session`]) it also feeds the
///    phase's sliding window, the backlog depth is emitted as a gauge, and
///    each phase's window p99 is read when the phase's last tick closes.
///
/// The pass ends once every task is served and every plan retired.
pub(super) fn service_run<R: tcsc_obs::Recorder>(
    engine: &mut AssignmentEngine<'_, R>,
    load: &ServiceLoad,
    service_us: Option<u64>,
    fleet: Option<(&MotionTape, Maintenance)>,
    latency: Option<&ObsSession>,
) -> ServiceRun {
    use std::collections::VecDeque;

    use tcsc_obs::Recorder as _;

    let arrivals = &load.arrivals;
    let nphases = arrivals.schedule.phases().len();
    let mut run = ServiceRun {
        plan_hash: fnv::OFFSET,
        phase_arrivals: vec![0; nphases],
        phase_commits: vec![0; nphases],
        phase_time_us: vec![0; nphases],
        phase_hist: vec![tcsc_obs::Histogram::default(); nphases],
        phase_window_p99: vec![0; nphases],
        ..ServiceRun::default()
    };
    let mut sampler = arrivals.sampler();
    let mut next = sampler.next_arrival();
    let mut backlog: VecDeque<(u64, usize, Task)> = VecDeque::new();
    let mut retire: VecDeque<(u64, AssignmentPlan)> = VecDeque::new();
    let mut motions = fleet
        .map_or(&[][..], |(tape, _)| &tape.events)
        .iter()
        .peekable();
    let mut mirror: Vec<Worker> = match fleet {
        Some((_, Maintenance::Rebuild)) => load.scenario.workers.workers().to_vec(),
        _ => Vec::new(),
    };
    let mut stale = false;
    let mut streamed = 0usize;
    let mut tick_us = 0u64;

    while streamed < load.total_tasks || !backlog.is_empty() || !retire.is_empty() {
        tick_us += SVC_DRAIN_EVERY_US;

        while streamed < load.total_tasks && next.at_us < tick_us {
            let arrival = std::mem::replace(&mut next, sampler.next_arrival());
            let phase = arrival.round % nphases;
            run.phase_arrivals[phase] += 1;
            backlog.push_back((arrival.at_us, phase, arrival.task));
            streamed += 1;
        }
        run.peak_backlog = run.peak_backlog.max(backlog.len());

        // Retired-task GC: keeps the ledger proportional to live
        // commitments.
        while retire.front().is_some_and(|(at, _)| *at <= tick_us) {
            let (_, plan) = retire.pop_front().expect("front checked");
            run.released += engine.release_plan(&plan) as u64;
        }

        let mut due = Vec::new();
        while motions.peek().is_some_and(|e| e.at_us <= tick_us) {
            due.push(&motions.next().expect("peeked").motion);
        }
        for motion in &due {
            match motion {
                WorkerMotion::Move { .. } => run.moves += 1,
                WorkerMotion::Offline { .. } => run.offline += 1,
                WorkerMotion::Online { .. } => run.online += 1,
            }
        }
        match fleet {
            Some((_, Maintenance::Mutate)) if !due.is_empty() => {
                let held = engine.ledger().len();
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
                // `remove_worker` frees the worker's commitments itself.
                run.released += (held - engine.ledger().len()) as u64;
                for m in mutations {
                    assert!(m.applied, "motion tapes only target live sessions");
                    run.entries_spliced += m.entries_touched as u64;
                    run.rebuild_equiv += m.rebuild_equiv_entries as u64;
                }
            }
            Some((_, Maintenance::Rebuild)) if !due.is_empty() => {
                let ((), ms) = timed(|| {
                    for motion in &due {
                        mirror_motion(&mut mirror, motion);
                    }
                });
                run.maintenance_ms += ms;
                stale = true;
            }
            _ => {}
        }

        let take = backlog.len().min(load.capacity);
        if take > 0 {
            if stale {
                let held = engine.ledger().len();
                let ((), ms) = timed(|| {
                    let pool = WorkerPool::new(mirror.clone());
                    engine.replace_index(WorkerIndex::build(
                        &pool,
                        SVC_NUM_SLOTS,
                        &arrivals.domain,
                    ));
                });
                run.maintenance_ms += ms;
                run.rebuilds += 1;
                // The swap releases the commitments of workers gone offline.
                run.released += (held - engine.ledger().len()) as u64;
                stale = false;
            }
            let mut meta = Vec::with_capacity(take);
            engine.submit(backlog.drain(..take).map(|(at, phase, task)| {
                meta.push((at, phase));
                task
            }));
            let (outcome, ms) = timed(|| engine.drain(Objective::SumQuality));
            run.drain_wall_ms += ms;
            run.drains += 1;
            run.commits += take as u64;
            run.executions += outcome.executions as u64;
            run.plan_hash = fnv::fold(run.plan_hash, plan_hash(&outcome.assignment));
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
            if let Some(service_us) = service_us {
                for plan in outcome.assignment.plans {
                    if !plan.executions.is_empty() {
                        retire.push_back((tick_us + service_us, plan));
                    }
                }
            }
        }

        let (segment, _) = arrivals.schedule.segment_at(tick_us - SVC_DRAIN_EVERY_US);
        let phase = segment % nphases;
        run.phase_time_us[phase] += SVC_DRAIN_EVERY_US;
        run.peak_ledger = run.peak_ledger.max(engine.ledger().len());

        // A phase's window is read as its last tick closes (the next tick
        // starts a new segment, or the stream ends): by stream end it has
        // rotated past every earlier phase.  A closing window that holds no
        // samples keeps the phase's previous reading.
        let stream_done = streamed == load.total_tasks && backlog.is_empty() && retire.is_empty();
        let closes = stream_done || arrivals.schedule.segment_at(tick_us).0 != segment;
        if let (Some(session), true) = (latency, closes) {
            let window_p99 = session
                .metrics()
                .window(SVC_WINDOWS[phase.min(SVC_WINDOWS.len() - 1)])
                .filter(|w| w.windowed_count() > 0)
                .map(|w| w.windowed().quantile(0.99));
            if let Some(p99) = window_p99 {
                run.phase_window_p99[phase] = p99;
            }
        }
    }
    run.final_ledger = engine.ledger().len();
    run.imbalance_milli = engine.index().occupancy_imbalance_milli();
    run.virtual_end_us = tick_us;
    run
}

// ---------------------------------------------------------------------------
// Figure 9svc (repo extension): service-mode SLOs — windowed latency
// percentiles per phase, span-tree profile and retired-task GC
// ---------------------------------------------------------------------------

/// Fig. 9svc (repo extension): streams the heavy-tailed rush-hour workload
/// through the batched engine twice — once unobserved (NoopRecorder), once
/// with a wall-clock session on the engine plus a virtual-clock session
/// holding the per-phase latency windows — then reconciles the span-tree
/// profile against the measured drain wall clock and checks every service
/// gate.
pub fn fig9svc(scale: Scale) -> Report {
    match scale {
        Scale::Quick => fig9svc_sized(30_000, 800),
        Scale::Full => fig9svc_sized(1_000_000, 2_000),
    }
}

/// [`fig9svc`] on an explicit workload: a stream of `total_tasks` tasks
/// over `workers` workers.
pub(super) fn fig9svc_sized(total_tasks: usize, workers: usize) -> Report {
    use tcsc_obs::profile_spans;

    let load = ServiceLoad::new(total_tasks, workers);
    let index = load.index();
    let cost = EuclideanCost::default();
    let service = Some(SVC_SERVICE_US);

    // Pass 1: unobserved — the NoopRecorder default compiles every hook away.
    let mut plain = AssignmentEngine::borrowed(&index, &cost, load.config());
    let off = service_run(&mut plain, &load, service, None, None);

    // Pass 2: observed — wall-clock session on the engine (spans, gauges),
    // virtual-clock session owning the per-phase latency windows.
    let wall = ObsSession::wall();
    let virt = svc_latency_session();
    let mut engine = AssignmentEngine::borrowed(&index, &cost, load.config()).with_recorder(&wall);
    let on = service_run(&mut engine, &load, service, None, Some(&virt));
    // Span-tree profile over the engine's wall session: every root span is
    // an `engine.drain`, so total self-time telescopes to the summed drain
    // time and must reconcile with the stopwatch around the same calls.
    let profile = profile_spans(&wall.merged_events());
    let profile_self_ms = profile.total_self_nanos() as f64 / 1e6;
    let drain_wall_ms = on.drain_wall_ms;

    let mut rows = vec![
        Row::new(
            "service",
            vec![
                ("Tasks".into(), total_tasks as f64),
                ("Drains".into(), on.drains as f64),
                ("Execs".into(), on.executions as f64),
                ("PeakLedger".into(), on.peak_ledger as f64),
                ("PeakBacklog".into(), on.peak_backlog as f64),
            ],
        ),
        Row::new(
            "profile",
            vec![
                ("DrainMs".into(), drain_wall_ms),
                ("SelfMs".into(), profile_self_ms),
            ],
        ),
    ];
    let mut p99_finite = true;
    let mut throughput_positive = true;
    for (i, phase) in load.arrivals.schedule.phases().iter().enumerate() {
        let hist = &on.phase_hist[i];
        let per_sec = on.phase_commits[i] as f64 * 1e6 / on.phase_time_us[i].max(1) as f64;
        p99_finite &= on.phase_commits[i] > 0 && hist.quantile(0.99) > 0;
        throughput_positive &= per_sec > 0.0;
        rows.push(Row::new(
            phase.label,
            vec![
                ("Arrivals".into(), on.phase_arrivals[i] as f64),
                ("Commits".into(), on.phase_commits[i] as f64),
                ("P50us".into(), hist.quantile(0.50) as f64),
                ("P99us".into(), hist.quantile(0.99) as f64),
                ("MaxUs".into(), hist.max() as f64),
                ("WinP99us".into(), on.phase_window_p99[i] as f64),
                ("PerSec".into(), per_sec),
            ],
        ));
    }
    let ledger_bounded = on.final_ledger == 0
        && on.released == on.executions
        && on.peak_ledger <= workers
        && (on.peak_ledger as u64) < on.executions;

    let report = Report::new(
        "fig9svc",
        "Service-mode SLOs: streaming engine under rush-hour bursts — \
         windowed latency percentiles per phase, retired-task GC, \
         span profile vs measured drain time",
        rows,
    )
    .num("workers", workers as f64)
    .num("capacity", load.capacity as f64)
    .num("virtual_end_us", on.virtual_end_us as f64)
    .num(
        "peak_queue_depth",
        wall.metrics().gauge_peak("engine.queue_depth") as f64,
    )
    .num("released", on.released as f64)
    .num("final_ledger", on.final_ledger as f64)
    .hash("noop_plan_hash", off.plan_hash)
    .hash("obs_plan_hash", on.plan_hash)
    .gate(
        "p99_finite",
        p99_finite,
        "every phase must commit tasks and report a positive p99 latency",
    )
    .gate(
        "throughput_positive",
        throughput_positive,
        "every phase must sustain positive committed throughput",
    )
    .gate(
        "plan_hash_match",
        off.plan_hash == on.plan_hash,
        format!(
            "observed pass {:#018x} vs unobserved pass {:#018x}",
            on.plan_hash, off.plan_hash
        ),
    )
    .gate(
        "ledger_bounded",
        ledger_bounded,
        format!(
            "peak ledger {} of {workers} workers, released {} of {} executions, final {}",
            on.peak_ledger, on.released, on.executions, on.final_ledger
        ),
    )
    .gate(
        "profile_within_bound",
        (profile_self_ms - drain_wall_ms).abs() <= drain_wall_ms * 0.05,
        format!(
            "span-tree self time {profile_self_ms:.2}ms within 5% of measured drain wall \
             clock {drain_wall_ms:.2}ms"
        ),
    )
    .artifact("TRACE_fig9svc.jsonl", wall.chrome_trace())
    .artifact("PROFILE_fig9svc.txt", profile.collapsed_stacks());
    let summary = format!(
        "{}\nspan-tree profile:\n{}\nvirtual-session registry (latency windows):\n{}\n\
         engine-session registry (index churn counters, gauges):\n{}",
        report.render(),
        profile.render(),
        virt.metrics().render(),
        wall.metrics().render()
    );
    report.artifact("SVC_SUMMARY.txt", summary)
}

// ---------------------------------------------------------------------------
// Figure 9mob (repo extension): mobile workers on the mutable index
// ---------------------------------------------------------------------------

/// Fig. 9mob (repo extension): the heavy-tailed service stream with
/// per-tick worker motion (waypoint drift + session churn), served by the
/// dense engine twice over identical tapes — mutate-in-place vs
/// rebuild-per-drain — with the plan-hash identity and the ≥5×
/// maintenance-speedup gate.
pub fn fig9mob(scale: Scale) -> Report {
    // The worker pool is deliberately large relative to the task stream:
    // the rebuild baseline pays O(workers) per drain while an in-place edit
    // pays O(cell), so the fleet size is what separates the two
    // maintenance strategies (mobile fleets are big; drains are frequent).
    match scale {
        Scale::Quick => fig9mob_sized(6_000, 2_400),
        Scale::Full => fig9mob_sized(200_000, 10_000),
    }
}

/// [`fig9mob`] on an explicit workload: a stream of `total_tasks` tasks
/// over `workers` mobile workers.
pub(super) fn fig9mob_sized(total_tasks: usize, workers: usize) -> Report {
    let load = ServiceLoad::new(total_tasks, workers);
    let tape = load.motion_tape();
    let cost = EuclideanCost::default();
    let pass = |mode| {
        let mut engine = AssignmentEngine::new(load.index(), &cost, load.config());
        service_run(&mut engine, &load, None, Some((&tape, mode)), None)
    };
    let mutate = pass(Maintenance::Mutate);
    let rebuild = pass(Maintenance::Rebuild);

    let speedup = rebuild.maintenance_ms / mutate.maintenance_ms.max(1e-9);
    Report::new(
        "fig9mob",
        "Mobile workers: in-place cell edits vs rebuild-per-drain on the \
         dense index \
         — maintenance cost under the identical-plans gate",
        vec![
            Row::new(
                "maintenance",
                vec![
                    ("MutateMs".into(), mutate.maintenance_ms),
                    ("RebuildMs".into(), rebuild.maintenance_ms),
                    ("Speedup".into(), speedup),
                    ("Rebuilds".into(), rebuild.rebuilds as f64),
                ],
            ),
            Row::new(
                "motion",
                vec![
                    ("Moves".into(), mutate.moves as f64),
                    ("Offline".into(), mutate.offline as f64),
                    ("Online".into(), mutate.online as f64),
                    ("Spliced".into(), mutate.entries_spliced as f64),
                    ("RebuildEquiv".into(), mutate.rebuild_equiv as f64),
                ],
            ),
            Row::new(
                "service",
                vec![
                    ("Tasks".into(), total_tasks as f64),
                    ("Drains".into(), mutate.drains as f64),
                    ("Execs".into(), mutate.executions as f64),
                    ("ImbalanceMilli".into(), mutate.imbalance_milli as f64),
                ],
            ),
        ],
    )
    .num("workers", workers as f64)
    .num("capacity", load.capacity as f64)
    .num("final_ledger", mutate.final_ledger as f64)
    .hash("mutate_plan_hash", mutate.plan_hash)
    .hash("rebuild_plan_hash", rebuild.plan_hash)
    .gate(
        "plan_hash_match",
        mutate.plan_hash == rebuild.plan_hash && mutate.final_ledger == rebuild.final_ledger,
        format!(
            "mutate-in-place {:#018x} vs rebuild-per-drain {:#018x}, final ledgers {} vs {}",
            mutate.plan_hash, rebuild.plan_hash, mutate.final_ledger, rebuild.final_ledger
        ),
    )
    .gate(
        "maintenance_speedup_ok",
        speedup >= 5.0,
        format!(
            "in-place maintenance {:.2}ms vs rebuild {:.2}ms: {speedup:.1}x >= 5x",
            mutate.maintenance_ms, rebuild.maintenance_ms
        ),
    )
}
