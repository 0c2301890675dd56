//! The discrete-event simulation kernel: a virtual clock, a binary-heap
//! event queue with stable `(time, seq)` ordering, and a [`Component`] trait
//! with typed message delivery (the dslab-style component/event split).
//!
//! # Ordering guarantees
//!
//! * Events are delivered in ascending virtual time; **ties are broken by
//!   the send sequence number**, so two events scheduled for the same instant
//!   are delivered in the order they were sent — the queue order is a total
//!   order and every run of the same seed and inputs replays it exactly.
//! * Links are **FIFO**: a message from component `a` to component `b` is
//!   never delivered before an earlier message of the same `(a, b)` pair,
//!   even when the latency model samples a shorter delay for it (the delivery
//!   time is clamped to the link's previous delivery).  The distributed
//!   runtime's protocol relies on this — e.g. a grant winner's follow-up
//!   `Compute` must not overtake its `Execute`.
//! * Latency samples are drawn from one seeded generator in delivery order,
//!   so the virtual timeline itself is a pure function of `(seed, inputs)`.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tcsc_obs::{ObsSession, Recorder, Scope};

use crate::latency::LatencyModel;

/// Identifier of a component within one simulation.
pub type ComponentId = usize;

/// Virtual time, in microseconds since the simulation start.
pub type SimTime = u64;

/// The pseudo-component id used for externally scheduled events (workload
/// arrivals injected by the harness rather than sent by a component).
pub const EXTERNAL: ComponentId = usize::MAX;

/// A typed simulation message.
pub trait Message: Clone {
    /// A short static label for the trace (message kind, not payload).
    fn label(&self) -> &'static str;
}

/// A simulated component: reacts to delivered messages by mutating its own
/// state and sending further messages through the [`Context`].
pub trait Component<M: Message> {
    /// Handles one delivered message.
    fn on_message(&mut self, from: ComponentId, message: M, ctx: &mut Context<'_, M>);
}

/// One delivered event, as recorded in the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Delivery time.
    pub time: SimTime,
    /// Global send sequence number (the tie-break).
    pub seq: u64,
    /// Sender (or [`EXTERNAL`]).
    pub src: ComponentId,
    /// Receiver.
    pub dst: ComponentId,
    /// Message label.
    pub label: &'static str,
}

/// The send-side API handed to a component while it processes a message.
pub struct Context<'a, M: Message> {
    now: SimTime,
    self_id: ComponentId,
    outbox: &'a mut Vec<(ComponentId, M, SimTime)>,
}

impl<M: Message> Context<'_, M> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the component processing the message.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Sends a message (network latency is added by the kernel).
    pub fn send(&mut self, dst: ComponentId, message: M) {
        self.send_after(dst, message, 0);
    }

    /// Sends a message after an extra local delay (service time) on top of
    /// the network latency.  Sends to `self_id` are local timers: they pay
    /// `extra` only, never a latency draw.
    pub fn send_after(&mut self, dst: ComponentId, message: M, extra: SimTime) {
        self.outbox.push((dst, message, extra));
    }
}

/// One scheduled event in the queue.
struct Scheduled<M> {
    time: SimTime,
    seq: u64,
    src: ComponentId,
    dst: ComponentId,
    message: M,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<M> Eq for Scheduled<M> {}

impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the binary heap is a max-heap, we want the earliest
        // `(time, seq)` on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The deterministic discrete-event simulation.
pub struct Simulation<M: Message> {
    clock: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled<M>>,
    components: Vec<Option<Box<dyn Component<M>>>>,
    latency: LatencyModel,
    rng: StdRng,
    /// Last scheduled delivery time per `(src, dst)` link (FIFO clamp).
    last_delivery: HashMap<(ComponentId, ComponentId), SimTime>,
    delivered: u64,
    record_trace: bool,
    trace: Vec<TraceRecord>,
    /// Optional shared observability session.  The kernel drives its virtual
    /// clock (`set_virtual_nanos` before every delivery) and emits
    /// transport-scope send/recv events plus an execute span per delivery;
    /// components holding the same `Rc` record their own events against the
    /// already-advanced clock.  One predictable branch per event when `None`.
    obs: Option<Rc<ObsSession>>,
}

impl<M: Message> Simulation<M> {
    /// A simulation over the given latency model, seeded for reproducible
    /// latency draws.  `record_trace` retains the full delivery trace (used
    /// by the determinism tests; costs memory proportional to the event
    /// count).
    pub fn new(latency: LatencyModel, seed: u64, record_trace: bool) -> Self {
        Self {
            clock: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            components: Vec::new(),
            latency,
            rng: StdRng::seed_from_u64(seed),
            last_delivery: HashMap::new(),
            delivered: 0,
            record_trace,
            trace: Vec::new(),
            obs: None,
        }
    }

    /// Attaches a shared observability session (see the `obs` field docs).
    /// Call before [`Simulation::run`]; the session should be created with
    /// `ObsSession::virtual_time()` so events carry simulation timestamps.
    pub fn set_obs(&mut self, obs: Option<Rc<ObsSession>>) {
        self.obs = obs;
    }

    /// Registers a component, returning its id.
    pub fn add_component(&mut self, component: Box<dyn Component<M>>) -> ComponentId {
        self.components.push(Some(component));
        self.components.len() - 1
    }

    /// Schedules an external event (no latency added) for delivery at `at`.
    pub fn schedule(&mut self, dst: ComponentId, message: M, at: SimTime) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled {
            time: at,
            seq,
            src: EXTERNAL,
            dst,
            message,
        });
    }

    /// Runs the simulation to quiescence (empty event queue).
    pub fn run(&mut self) {
        let mut outbox: Vec<(ComponentId, M, SimTime)> = Vec::new();
        while let Some(event) = self.queue.pop() {
            debug_assert!(event.time >= self.clock, "time must not run backwards");
            self.clock = event.time;
            self.delivered += 1;
            if self.record_trace {
                self.trace.push(TraceRecord {
                    time: event.time,
                    seq: event.seq,
                    src: event.src,
                    dst: event.dst,
                    label: event.message.label(),
                });
            }
            if let Some(obs) = &self.obs {
                // SimTime is microseconds; the session clock is nanoseconds.
                obs.set_virtual_nanos(event.time.saturating_mul(1_000));
                obs.instant(
                    Scope::Transport,
                    event.message.label(),
                    event.src as u64,
                    event.dst as u64,
                    1, // direction: recv
                );
                obs.begin("sim.execute", event.dst as u64);
            }
            let mut component = self.components[event.dst]
                .take()
                .expect("components never send to themselves re-entrantly");
            let mut ctx = Context {
                now: self.clock,
                self_id: event.dst,
                outbox: &mut outbox,
            };
            component.on_message(event.src, event.message, &mut ctx);
            self.components[event.dst] = Some(component);
            if let Some(obs) = &self.obs {
                obs.end("sim.execute", event.dst as u64);
            }
            for (dst, message, extra) in outbox.drain(..) {
                // Self-sends are local timers, not network messages: they pay
                // the requested delay only (no latency draw is consumed, so a
                // component's tick cadence never perturbs the latency samples
                // of protocol messages).
                let latency = if dst == event.dst {
                    0
                } else {
                    self.latency.sample(&mut self.rng)
                };
                let mut deliver_at = self.clock + extra + latency;
                // FIFO clamp: never deliver before an earlier message of the
                // same link (ties resolve by seq = send order).
                let link = (event.dst, dst);
                if let Some(last) = self.last_delivery.get(&link) {
                    deliver_at = deliver_at.max(*last);
                }
                self.last_delivery.insert(link, deliver_at);
                if let Some(obs) = &self.obs {
                    obs.instant(
                        Scope::Transport,
                        message.label(),
                        event.dst as u64,
                        dst as u64,
                        0, // direction: send
                    );
                }
                let seq = self.seq;
                self.seq += 1;
                self.queue.push(Scheduled {
                    time: deliver_at,
                    seq,
                    src: event.dst,
                    dst,
                    message,
                });
            }
        }
    }

    /// The current virtual time (after [`Simulation::run`]: the delivery time
    /// of the last event).
    pub fn time(&self) -> SimTime {
        self.clock
    }

    /// Number of delivered events.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The recorded delivery trace (empty unless `record_trace` was set).
    pub fn trace(&self) -> &[TraceRecord] {
        &self.trace
    }

    /// Consumes the simulation, returning the trace.
    pub fn into_trace(self) -> Vec<TraceRecord> {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Ping {
        Ping(u32),
        Pong(u32),
    }

    impl Message for Ping {
        fn label(&self) -> &'static str {
            match self {
                Ping::Ping(_) => "ping",
                Ping::Pong(_) => "pong",
            }
        }
    }

    struct Echo {
        peer: ComponentId,
        received: Vec<(SimTime, u32)>,
        bounces: u32,
    }

    impl Component<Ping> for Echo {
        fn on_message(&mut self, _from: ComponentId, message: Ping, ctx: &mut Context<'_, Ping>) {
            match message {
                Ping::Ping(n) => {
                    self.received.push((ctx.now(), n));
                    if n < self.bounces {
                        ctx.send(self.peer, Ping::Pong(n + 1));
                    }
                }
                Ping::Pong(n) => {
                    self.received.push((ctx.now(), n));
                    if n < self.bounces {
                        ctx.send(self.peer, Ping::Ping(n + 1));
                    }
                }
            }
        }
    }

    fn run_pair(latency: LatencyModel, seed: u64) -> (SimTime, Vec<TraceRecord>) {
        let mut sim: Simulation<Ping> = Simulation::new(latency, seed, true);
        let a = sim.add_component(Box::new(Echo {
            peer: 1,
            received: Vec::new(),
            bounces: 8,
        }));
        let _b = sim.add_component(Box::new(Echo {
            peer: 0,
            received: Vec::new(),
            bounces: 8,
        }));
        sim.schedule(a, Ping::Ping(0), 0);
        sim.run();
        (sim.time(), sim.into_trace())
    }

    #[test]
    fn same_seed_replays_the_identical_trace() {
        let (t1, trace1) = run_pair(LatencyModel::Uniform { min: 10, max: 500 }, 42);
        let (t2, trace2) = run_pair(LatencyModel::Uniform { min: 10, max: 500 }, 42);
        assert_eq!(t1, t2);
        assert_eq!(trace1, trace2);
        assert_eq!(trace1.len(), 9, "ping + 8 bounces");
    }

    #[test]
    fn zero_latency_orders_by_sequence() {
        let (t, trace) = run_pair(LatencyModel::Zero, 7);
        assert_eq!(t, 0, "zero latency keeps the virtual clock at 0");
        let seqs: Vec<u64> = trace.iter().map(|r| r.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted, "same-instant events deliver in send order");
    }

    #[test]
    fn links_are_fifo_under_random_latency() {
        // A sender fires many messages back to back; the receiver must see
        // them in send order even when later messages sample lower latency.
        struct Burst {
            peer: ComponentId,
        }
        impl Component<Ping> for Burst {
            fn on_message(&mut self, _: ComponentId, _: Ping, ctx: &mut Context<'_, Ping>) {
                for n in 0..50 {
                    ctx.send(self.peer, Ping::Ping(n));
                }
            }
        }
        struct Sink {
            seen: std::rc::Rc<std::cell::RefCell<Vec<u32>>>,
        }
        impl Component<Ping> for Sink {
            fn on_message(&mut self, _: ComponentId, message: Ping, _: &mut Context<'_, Ping>) {
                if let Ping::Ping(n) = message {
                    self.seen.borrow_mut().push(n);
                }
            }
        }
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut sim: Simulation<Ping> =
            Simulation::new(LatencyModel::Uniform { min: 1, max: 1000 }, 99, false);
        let sink = sim.add_component(Box::new(Sink { seen: seen.clone() }));
        let burst = sim.add_component(Box::new(Burst { peer: sink }));
        sim.schedule(burst, Ping::Ping(0), 0);
        sim.run();
        assert_eq!(*seen.borrow(), (0..50).collect::<Vec<_>>());
    }
}
