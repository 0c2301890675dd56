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
//!
//! The kernel folds every delivery's `(time, seq, src, dst, label)` into one
//! FNV-1a [`Simulation::delivery_digest`]: the same timeline gives the same
//! digest, and any change to a delivery changes it, barring a hash
//! collision.  The determinism tests compare whole runs by it without
//! retaining them.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tcsc_core::fnv;
use tcsc_obs::{ObsSession, Recorder, Scope};

use crate::latency::LatencyModel;

/// Identifier of a component within one simulation.
pub type ComponentId = usize;

/// Virtual time, in microseconds since the simulation start.
pub type SimTime = u64;

/// The pseudo-component id used for externally scheduled events (workload
/// arrivals injected by the harness rather than sent by a component).
const EXTERNAL: ComponentId = usize::MAX;

/// A typed simulation message.
pub trait Message: Clone {
    /// A short static label (message kind, not payload): the transport
    /// events' name and part of the delivery digest.
    fn label(&self) -> &'static str;
}

/// A simulated component: reacts to delivered messages by mutating its own
/// state and sending further messages through the [`Context`].
pub trait Component<M: Message> {
    /// Handles one delivered message.
    fn on_message(&mut self, from: ComponentId, message: M, ctx: &mut Context<'_, M>);
}

/// The send-side API handed to a component while it processes a message.
pub struct Context<'a, M: Message> {
    now: SimTime,
    outbox: &'a mut Vec<(ComponentId, M, SimTime)>,
}

impl<M: Message> Context<'_, M> {
    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends a message (network latency is added by the kernel).
    pub fn send(&mut self, dst: ComponentId, message: M) {
        self.send_after(dst, message, 0);
    }

    /// Sends a message after an extra local delay (service time) on top of
    /// the network latency.
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
    /// FNV-1a fold of every delivery's `(time, seq, src, dst, label)`.
    digest: u64,
    /// Optional shared observability session.  The kernel drives its virtual
    /// clock (`set_virtual_nanos` before every delivery) and emits
    /// transport-scope send/recv events plus an execute span per delivery;
    /// components holding the same `Rc` record their own events against the
    /// already-advanced clock.  One predictable branch per event when `None`.
    obs: Option<Rc<ObsSession>>,
}

impl<M: Message> Simulation<M> {
    /// A simulation over the given latency model, seeded for reproducible
    /// latency draws.
    pub fn new(latency: LatencyModel, seed: u64) -> Self {
        Self {
            clock: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            components: Vec::new(),
            latency,
            rng: StdRng::seed_from_u64(seed),
            last_delivery: HashMap::new(),
            delivered: 0,
            digest: fnv::OFFSET,
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
            for word in [event.time, event.seq, event.src as u64, event.dst as u64] {
                self.digest = fnv::hash_bytes(self.digest, &word.to_le_bytes());
            }
            // The 0xff separator keeps label boundaries unambiguous.
            self.digest = fnv::hash_bytes(self.digest, event.message.label().as_bytes());
            self.digest = fnv::hash_bytes(self.digest, &[0xff]);
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
                outbox: &mut outbox,
            };
            component.on_message(event.src, event.message, &mut ctx);
            self.components[event.dst] = Some(component);
            if let Some(obs) = &self.obs {
                obs.end("sim.execute", event.dst as u64);
            }
            for (dst, message, extra) in outbox.drain(..) {
                let latency = self.latency.sample(&mut self.rng);
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

    /// The FNV-1a fold of every delivery's `(time, seq, src, dst, label)`,
    /// in delivery order (the FNV-1a offset basis before the first
    /// delivery).
    pub fn delivery_digest(&self) -> u64 {
        self.digest
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

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

    /// Deliveries as the receiving components saw them: `(time, receiver,
    /// payload)`, in delivery order.
    type Log = Rc<RefCell<Vec<(SimTime, ComponentId, u32)>>>;

    struct Echo {
        me: ComponentId,
        peer: ComponentId,
        log: Log,
        bounces: u32,
    }

    impl Component<Ping> for Echo {
        fn on_message(&mut self, _from: ComponentId, message: Ping, ctx: &mut Context<'_, Ping>) {
            let (Ping::Ping(n) | Ping::Pong(n)) = message.clone();
            self.log.borrow_mut().push((ctx.now(), self.me, n));
            if n < self.bounces {
                let reply = match message {
                    Ping::Ping(_) => Ping::Pong(n + 1),
                    Ping::Pong(_) => Ping::Ping(n + 1),
                };
                ctx.send(self.peer, reply);
            }
        }
    }

    /// A ping-pong of 8 bounces: the final time, the receivers' log and the
    /// kernel's delivery digest.
    fn run_pair(
        latency: LatencyModel,
        seed: u64,
    ) -> (SimTime, Vec<(SimTime, ComponentId, u32)>, u64) {
        let log = Log::default();
        let mut sim: Simulation<Ping> = Simulation::new(latency, seed);
        for (me, peer) in [(0, 1), (1, 0)] {
            let id = sim.add_component(Box::new(Echo {
                me,
                peer,
                log: log.clone(),
                bounces: 8,
            }));
            assert_eq!(id, me);
        }
        sim.schedule(0, Ping::Ping(0), 0);
        sim.run();
        let log = log.take();
        (sim.time(), log, sim.delivery_digest())
    }

    #[test]
    fn same_seed_replays_the_identical_trace() {
        let latency = LatencyModel::Uniform { min: 10, max: 500 };
        let (t1, log1, digest1) = run_pair(latency, 42);
        let (t2, log2, digest2) = run_pair(latency, 42);
        assert_eq!(t1, t2);
        assert_eq!(log1, log2);
        assert_eq!(digest1, digest2);
        assert_eq!(log1.len(), 9, "ping + 8 bounces");
        assert_eq!(t1, log1[8].0, "the clock stops at the last delivery");
        // Another seed moves the timeline, and the digest sees it.
        let (_, log3, digest3) = run_pair(latency, 43);
        assert_ne!(log1, log3);
        assert_ne!(digest1, digest3);
    }

    #[test]
    fn zero_latency_orders_by_sequence() {
        // One burst fans out to two receivers at the same instant: with no
        // link in common, only the send sequence orders the deliveries.
        struct Burst {
            peers: [ComponentId; 2],
        }
        impl Component<Ping> for Burst {
            fn on_message(&mut self, _: ComponentId, _: Ping, ctx: &mut Context<'_, Ping>) {
                for n in 0..20 {
                    ctx.send(self.peers[n as usize % 2], Ping::Ping(n));
                }
            }
        }
        let log = Log::default();
        let mut sim: Simulation<Ping> = Simulation::new(LatencyModel::Zero, 7);
        for me in 0..2 {
            sim.add_component(Box::new(Echo {
                me,
                peer: me,
                log: log.clone(),
                bounces: 0,
            }));
        }
        let burst = sim.add_component(Box::new(Burst { peers: [0, 1] }));
        sim.schedule(burst, Ping::Ping(0), 0);
        sim.run();
        assert_eq!(sim.time(), 0, "zero latency keeps the virtual clock at 0");
        let expected: Vec<_> = (0..20).map(|n| (0, n as usize % 2, n)).collect();
        assert_eq!(
            log.take(),
            expected,
            "same-instant events deliver in send order"
        );
    }

    #[test]
    fn links_are_fifo_under_random_latency() {
        // A sender fires many messages back to back; the receiver must see
        // them in send order, at non-decreasing times, even when later
        // messages sample lower latency.
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
        let log = Log::default();
        let mut sim: Simulation<Ping> =
            Simulation::new(LatencyModel::Uniform { min: 1, max: 1000 }, 99);
        let sink = sim.add_component(Box::new(Echo {
            me: 0,
            peer: 0,
            log: log.clone(),
            bounces: 0,
        }));
        let burst = sim.add_component(Box::new(Burst { peer: sink }));
        sim.schedule(burst, Ping::Ping(0), 0);
        sim.run();
        let log = log.take();
        let payloads: Vec<u32> = log.iter().map(|&(_, _, n)| n).collect();
        assert_eq!(payloads, (0..50).collect::<Vec<_>>());
        assert!(log.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(log[49].0 > 0, "the draws are not all zero");
    }
}
