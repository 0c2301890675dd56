//! Trace determinism: the observability layer is locked the same way the
//! committed results are.
//!
//! * the same seed must reproduce a **byte-identical** chrome://tracing dump;
//! * the logical-stream digest (`ObsReport::digest`) is invariant across node
//!   counts and latency models — transport and policy events move, the
//!   committed logical timeline never does;
//! * exporting a trace and replaying it through the parser reproduces the
//!   digest bit-for-bit (`replay_digest` round trip);
//! * turning recording on changes nothing about the outcome itself.

use std::rc::Rc;

use tcsc_core::EuclideanCost;
use tcsc_obs::{parse_chrome_trace_jsonl, replay_digest};
use tcsc_sim::{run_cluster, LatencyModel, SimBatch, SimClusterConfig, SimOutcome};
use tcsc_workload::{ScenarioConfig, SpatialDistribution, TaskPlacement};

fn scenario() -> (tcsc_workload::Scenario, usize) {
    let cfg = ScenarioConfig::small()
        .with_num_tasks(10)
        .with_num_slots(30)
        .with_num_workers(150)
        .with_placement(TaskPlacement::Synthetic(SpatialDistribution::region_grid(
            3,
        )));
    let slots = cfg.num_slots;
    (cfg.build(), slots)
}

fn run(scenario: &tcsc_workload::Scenario, slots: usize, config: &SimClusterConfig) -> SimOutcome {
    run_cluster(
        &scenario.workers,
        slots,
        &scenario.domain,
        vec![SimBatch::immediate(scenario.tasks.clone())],
        Rc::new(EuclideanCost::default()),
        config,
    )
}

#[test]
fn same_seed_reproduces_a_byte_identical_chrome_trace() {
    let (scenario, slots) = scenario();
    let config = SimClusterConfig::new(3, 3, 40.0, LatencyModel::Uniform { min: 10, max: 900 })
        .with_seed(21)
        .with_obs();
    let a = run(&scenario, slots, &config);
    let b = run(&scenario, slots, &config);
    let (obs_a, obs_b) = (a.obs.expect("obs recorded"), b.obs.expect("obs recorded"));
    assert_eq!(
        obs_a.chrome_trace(),
        obs_b.chrome_trace(),
        "same seed must dump the identical trace, byte for byte"
    );
    assert_eq!(obs_a.digest, obs_b.digest);
    assert_eq!(obs_a.events, obs_b.events);
    assert!(
        !obs_a.events.is_empty(),
        "a live cluster run must leave a trace"
    );
}

#[test]
fn logical_digest_is_invariant_across_nodes_latency_and_policy() {
    let (scenario, slots) = scenario();
    let mut digests = Vec::new();
    for nodes in [1, 2, 4] {
        for latency in [
            LatencyModel::Zero,
            LatencyModel::Fixed(250),
            LatencyModel::Uniform { min: 20, max: 4000 },
        ] {
            let config = SimClusterConfig::new(nodes, 3, 55.0, latency)
                .with_seed(7 + nodes as u64)
                .with_obs();
            let outcome = run(&scenario, slots, &config);
            let obs = outcome.obs.expect("obs recorded");
            digests.push((nodes, latency, obs.digest));
        }
    }
    let reference = digests[0].2;
    for (nodes, latency, digest) in &digests {
        assert_eq!(
            *digest, reference,
            "logical digest diverged: {nodes} nodes, {latency:?}"
        );
    }
}

#[test]
fn exported_trace_replays_to_the_same_digest() {
    let (scenario, slots) = scenario();
    let config = SimClusterConfig::new(2, 3, 40.0, LatencyModel::Fixed(300))
        .with_seed(5)
        .with_obs();
    let outcome = run(&scenario, slots, &config);
    let obs = outcome.obs.expect("obs recorded");
    let replayed = parse_chrome_trace_jsonl(&obs.chrome_trace());
    assert!(!replayed.is_empty(), "the dump must parse back");
    assert_eq!(
        replay_digest(&replayed),
        obs.digest,
        "export -> parse -> digest must round-trip"
    );
}

#[test]
fn recording_never_perturbs_the_outcome() {
    let (scenario, slots) = scenario();
    let base = SimClusterConfig::new(3, 3, 55.0, LatencyModel::Uniform { min: 20, max: 4000 })
        .with_seed(13);
    let off = run(&scenario, slots, &base);
    let on = run(&scenario, slots, &base.clone().with_obs());
    assert!(off.obs.is_none());
    assert!(on.obs.is_some());
    assert_eq!(off.assignment, on.assignment, "plans diverged");
    assert_eq!(off.conflicts, on.conflicts);
    assert_eq!(off.executions, on.executions);
    assert_eq!(off.stats, on.stats);
    assert_eq!(off.finish_time_us, on.finish_time_us);
    assert_eq!(off.delivered_events, on.delivered_events);
    assert_eq!(
        off.delivery_digest, on.delivery_digest,
        "the delivery timeline must be untouched"
    );
}

#[test]
fn recorded_metrics_mirror_the_outcome_counters() {
    let (scenario, slots) = scenario();
    let config = SimClusterConfig::new(4, 3, 60.0, LatencyModel::Fixed(1_000))
        .with_seed(9)
        .with_obs();
    let outcome = run(&scenario, slots, &config);
    let obs = outcome.obs.as_ref().expect("obs recorded");
    let metrics = &obs.metrics;
    assert_eq!(
        metrics.counter_value("sim.delivered_events"),
        outcome.delivered_events
    );
    assert_eq!(
        metrics.counter_value("master.executions"),
        outcome.executions as u64
    );
    assert_eq!(
        metrics.counter_value("master.grants"),
        outcome.executions as u64,
        "every grant is executed"
    );
    // The summary is the human-facing view of the same registry — spot-check
    // that it actually renders the counters it claims to hold.
    let summary = obs.metrics.render();
    assert!(summary.contains("sim.delivered_events"));
}

#[test]
fn kernel_clock_rotates_session_windows_on_virtual_time() {
    // The kernel advances the shared session's virtual clock before every
    // delivery, and `set_virtual_nanos` rotates installed sliding windows —
    // so windowed SLOs evict on *simulation* time exactly as wall-clock
    // windows evict on wall time.  A fixed-latency ping-pong makes the
    // schedule exact: one 250 µs hop per window slice.
    use tcsc_obs::{ObsSession, Recorder};
    use tcsc_sim::{Component, ComponentId, Context, Message, Simulation};

    #[derive(Clone, Debug)]
    struct Tick(u64);
    impl Message for Tick {
        fn label(&self) -> &'static str {
            "tick"
        }
    }

    struct Bouncer {
        peer: ComponentId,
        session: Rc<ObsSession>,
        hops: u64,
    }
    impl Component<Tick> for Bouncer {
        fn on_message(&mut self, _: ComponentId, message: Tick, ctx: &mut Context<'_, Tick>) {
            let Tick(n) = message;
            // The kernel already advanced the virtual clock to this
            // delivery's time; the observation lands in the live slice.
            self.session.value("sim.hop_us", 10 + n);
            if n < self.hops {
                ctx.send(self.peer, Tick(n + 1));
            }
        }
    }

    let session = Rc::new(ObsSession::virtual_time());
    // Four live slices of 250 µs: samples older than 1 ms of virtual time
    // must have been evicted by the kernel's clock advances alone.
    session.install_window("sim.hop_us", 250_000, 4);
    let mut sim: Simulation<Tick> = Simulation::new(LatencyModel::Fixed(250), 5);
    sim.set_obs(Some(session.clone()));
    let a = sim.add_component(Box::new(Bouncer {
        peer: 1,
        session: session.clone(),
        hops: 12,
    }));
    let _b = sim.add_component(Box::new(Bouncer {
        peer: 0,
        session: session.clone(),
        hops: 12,
    }));
    sim.schedule(a, Tick(0), 0);
    sim.run();

    // Deliveries at 0, 250 µs, ..., 3000 µs record values 10..=22; the final
    // clock sits in slice 12, so slices 9..=12 (values 19..=22) are live.
    assert_eq!(sim.time(), 3_000, "12 fixed 250us hops");
    let metrics = session.metrics();
    let window = metrics.window("sim.hop_us").expect("window installed");
    assert_eq!(window.lifetime_count(), 13, "every hop was recorded");
    assert_eq!(window.windowed_count(), 4, "only the last 1ms stays live");
    assert_eq!(window.windowed_sum(), 19 + 20 + 21 + 22);
    assert_eq!(window.windowed().max(), 22);
    // The lifetime histogram fed by the same `value` calls never evicts.
    assert_eq!(metrics.histogram("sim.hop_us").unwrap().count(), 13);
}
