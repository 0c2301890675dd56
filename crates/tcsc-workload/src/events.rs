//! Scenario → event-trace conversion: turns a [`StreamingScenario`]'s rounds
//! into a timed sequence of task-arrival events, the input format of the
//! discrete-event distributed runtime (`tcsc-sim`) — and of any future real
//! ingestion pipeline.
//!
//! Beyond the fixed-interval round traces, the module provides **heavy-tailed
//! service arrivals**: a seeded [`BoundedPareto`] inter-arrival sampler
//! modulated by a [`PhaseSchedule`] of rate multipliers (rush-hour bursts
//! where the arrival rate exceeds the drain rate), consumed either as an
//! unbounded streaming [`ArrivalSampler`] (the million-task `fig9svc` service
//! driver) or collected into a finite [`ArrivalTrace`] via
//! [`ArrivalTrace::heavy_tailed`].  Generation is deterministic per seed and
//! arrival times are monotone — both pinned by the module's property tests.
//!
//! The mobile-worker side of a service workload lives here too: seeded
//! [`WorkerMotion`] tapes (waypoint drift plus offline/online session churn,
//! generated by [`MotionTape::generate`]), which the `fig9mob` mutable-index
//! driver applies between drains.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcsc_core::{Domain, Location, Task, TaskId, Worker, WorkerId, WorkerPool, WorkerSlot};

use crate::distribution::SpatialDistribution;
use crate::streaming::StreamingScenario;

/// One task arrival at a virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskArrival {
    /// Arrival time in microseconds since the trace start.
    pub at_us: u64,
    /// The arrival round the task belongs to.
    pub round: usize,
    /// The arriving task.
    pub task: Task,
}

/// A timed trace of task arrivals, grouped into rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    /// The arrivals, sorted by `(at_us, round, submission order)`.
    pub arrivals: Vec<TaskArrival>,
    /// The configured inter-round interval.
    pub round_interval_us: u64,
    /// Number of rounds in the trace.
    pub rounds: usize,
}

impl ArrivalTrace {
    /// Converts a streaming scenario into an arrival trace: round `r`'s tasks
    /// all arrive at `r * round_interval_us`, in their submission order.
    pub fn from_streaming(scenario: &StreamingScenario, round_interval_us: u64) -> Self {
        let arrivals = scenario
            .rounds
            .iter()
            .enumerate()
            .flat_map(|(round, tasks)| {
                tasks.iter().cloned().map(move |task| TaskArrival {
                    at_us: round as u64 * round_interval_us,
                    round,
                    task,
                })
            })
            .collect();
        Self {
            arrivals,
            round_interval_us,
            rounds: scenario.rounds.len(),
        }
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The time of the last arrival (0 for an empty trace).
    pub fn duration_us(&self) -> u64 {
        self.arrivals.last().map_or(0, |a| a.at_us)
    }

    /// The trace regrouped as `(arrival time, tasks)` batches in round order
    /// — the shape consumed by the simulated cluster's submit schedule.
    pub fn batches(&self) -> Vec<(u64, Vec<Task>)> {
        let mut out: Vec<(u64, Vec<Task>)> = Vec::with_capacity(self.rounds);
        for arrival in &self.arrivals {
            match out.last_mut() {
                Some((at, tasks)) if *at == arrival.at_us => tasks.push(arrival.task.clone()),
                _ => out.push((arrival.at_us, vec![arrival.task.clone()])),
            }
        }
        out
    }

    /// A finite heavy-tailed trace: the first `count` arrivals of
    /// `config`'s [`ArrivalSampler`].  Each arrival's `round` is the phase
    /// segment it fell into; `round_interval_us` is 0 (inter-arrival times
    /// are irregular by construction).
    pub fn heavy_tailed(config: &HeavyTailedArrivals, count: usize) -> Self {
        let arrivals: Vec<TaskArrival> = config.sampler().take(count).collect();
        let rounds = arrivals.last().map_or(0, |a| a.round + 1);
        Self {
            arrivals,
            round_interval_us: 0,
            rounds,
        }
    }
}

/// A bounded-Pareto distribution over `[low, high]`: the heavy-tailed
/// inter-arrival model.  Most samples sit near `low`, a tail reaches up to
/// `high` — the burstiness of real task streams, without the unbounded
/// variance of the pure Pareto (the cap keeps trace durations and test
/// expectations finite).
///
/// Sampling inverts the truncated CDF:
/// `x = low * (1 - u * (1 - (low/high)^alpha))^(-1/alpha)` for uniform `u`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    alpha: f64,
    low: f64,
    high: f64,
}

impl BoundedPareto {
    /// A bounded Pareto with tail index `alpha` over `[low, high]`.
    ///
    /// # Panics
    /// Panics unless `alpha > 0` and `0 < low < high`.
    pub fn new(alpha: f64, low: f64, high: f64) -> Self {
        assert!(alpha > 0.0, "the Pareto tail index must be positive");
        assert!(
            0.0 < low && low < high,
            "a bounded Pareto needs 0 < low < high"
        );
        Self { alpha, low, high }
    }

    /// The lower bound.
    pub fn low(&self) -> f64 {
        self.low
    }

    /// The upper truncation bound.
    pub fn high(&self) -> f64 {
        self.high
    }

    /// Draws one sample (always inside `[low, high]`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u = rng.gen_range(0.0..1.0);
        let ratio_a = (self.low / self.high).powf(self.alpha);
        let x = self.low * (1.0 - u * (1.0 - ratio_a)).powf(-1.0 / self.alpha);
        x.clamp(self.low, self.high)
    }

    /// The distribution mean (closed form of the truncated Pareto).
    pub fn mean(&self) -> f64 {
        let (a, l, h) = (self.alpha, self.low, self.high);
        let ratio_a = (l / h).powf(a);
        if (a - 1.0).abs() < 1e-12 {
            // alpha = 1: the general formula degenerates; mean is
            // l * ln(h/l) / (1 - l/h).
            return l * (h / l).ln() / (1.0 - ratio_a);
        }
        (a * l.powf(a)) / (1.0 - ratio_a) * (l.powf(1.0 - a) - h.powf(1.0 - a)) / (a - 1.0)
    }
}

/// One phase of an arrival schedule: a label, a duration and a rate
/// multiplier applied to the base arrival rate (so `2.0` halves the
/// inter-arrival times — a burst; `0.5` doubles them — a lull).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalPhase {
    /// Phase name (reported per-phase in the service SLO tables).
    pub label: &'static str,
    /// Phase duration in microseconds of trace time.
    pub duration_us: u64,
    /// Arrival-rate multiplier (`> 0`); inter-arrival samples are divided
    /// by it.
    pub rate_multiplier: f64,
}

/// A cyclic schedule of [`ArrivalPhase`]s: the trace walks the phases in
/// order and wraps around — mornings keep coming.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSchedule {
    phases: Vec<ArrivalPhase>,
}

impl PhaseSchedule {
    /// A schedule cycling through `phases`.
    ///
    /// # Panics
    /// Panics when `phases` is empty, any duration is zero or any rate
    /// multiplier is non-positive.
    pub fn new(phases: Vec<ArrivalPhase>) -> Self {
        assert!(!phases.is_empty(), "a schedule needs at least one phase");
        for p in &phases {
            assert!(p.duration_us > 0, "phase {} has zero duration", p.label);
            assert!(
                p.rate_multiplier > 0.0,
                "phase {} has non-positive rate",
                p.label
            );
        }
        Self { phases }
    }

    /// The canonical service-day shape: calm → rush-hour burst → recovery,
    /// with the rush arriving `burst_multiplier` times faster.
    pub fn rush_hour(calm_us: u64, rush_us: u64, burst_multiplier: f64) -> Self {
        Self::new(vec![
            ArrivalPhase {
                label: "calm",
                duration_us: calm_us,
                rate_multiplier: 1.0,
            },
            ArrivalPhase {
                label: "rush",
                duration_us: rush_us,
                rate_multiplier: burst_multiplier,
            },
            ArrivalPhase {
                label: "recovery",
                duration_us: calm_us,
                rate_multiplier: 1.0,
            },
        ])
    }

    /// The phases in cycle order.
    pub fn phases(&self) -> &[ArrivalPhase] {
        &self.phases
    }

    /// One full cycle's duration in microseconds.
    pub fn cycle_us(&self) -> u64 {
        self.phases.iter().map(|p| p.duration_us).sum()
    }

    /// The phase in effect at `at_us`, with the global **segment index** —
    /// the number of phase boundaries crossed since the trace start (cycle
    /// count × phases per cycle + position in cycle).  Segment indices are
    /// what [`TaskArrival::round`] carries for heavy-tailed traces.
    pub fn segment_at(&self, at_us: u64) -> (usize, &ArrivalPhase) {
        let cycle = self.cycle_us();
        let (full_cycles, mut within) = (at_us / cycle, at_us % cycle);
        for (i, phase) in self.phases.iter().enumerate() {
            if within < phase.duration_us {
                return (full_cycles as usize * self.phases.len() + i, phase);
            }
            within -= phase.duration_us;
        }
        unreachable!("within < cycle_us is inside some phase");
    }
}

/// Configuration of a heavy-tailed service arrival stream: a seeded
/// bounded-Pareto inter-arrival sampler modulated by a cyclic phase
/// schedule, with task locations drawn from a spatial distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyTailedArrivals {
    /// Generator seed: same seed ⇒ bit-identical stream.
    pub seed: u64,
    /// Base inter-arrival distribution in microseconds.
    pub inter_arrival_us: BoundedPareto,
    /// Rate-multiplier schedule (bursts and lulls).
    pub schedule: PhaseSchedule,
    /// Slots per generated task.
    pub num_slots: usize,
    /// Spatial distribution of task locations.
    pub distribution: SpatialDistribution,
    /// The domain locations are drawn over.
    pub domain: Domain,
}

impl HeavyTailedArrivals {
    /// An unbounded streaming sampler over this configuration (restartable:
    /// every call starts an identical stream).
    pub fn sampler(&self) -> ArrivalSampler<'_> {
        ArrivalSampler {
            config: self,
            rng: StdRng::seed_from_u64(self.seed),
            clock_us: 0.0,
            next_id: 0,
        }
    }
}

/// The streaming iterator over a [`HeavyTailedArrivals`] configuration:
/// yields one [`TaskArrival`] at a time, forever, in O(1) memory — the
/// shape a million-task service driver consumes without materialising a
/// trace.  `round` is the schedule's phase segment index at the arrival
/// time.
#[derive(Debug)]
pub struct ArrivalSampler<'a> {
    config: &'a HeavyTailedArrivals,
    rng: StdRng,
    clock_us: f64,
    next_id: u32,
}

impl ArrivalSampler<'_> {
    /// Generates the next arrival.
    pub fn next_arrival(&mut self) -> TaskArrival {
        let config = self.config;
        let at_us = self.clock_us as u64;
        let (segment, phase) = config.schedule.segment_at(at_us);
        // Inter-arrival to the *next* task, compressed by the current
        // phase's rate multiplier.  The clock accumulates in f64 so bursts
        // with sub-microsecond gaps still advance monotonically.
        let gap = config.inter_arrival_us.sample(&mut self.rng) / phase.rate_multiplier;
        self.clock_us += gap;
        let location = config.distribution.sample(&mut self.rng, &config.domain);
        let task = Task::new(TaskId(self.next_id), location, config.num_slots);
        self.next_id = self.next_id.wrapping_add(1);
        TaskArrival {
            at_us,
            round: segment,
            task,
        }
    }
}

impl Iterator for ArrivalSampler<'_> {
    type Item = TaskArrival;

    fn next(&mut self) -> Option<TaskArrival> {
        Some(self.next_arrival())
    }
}

/// One worker mobility event — the workload-side mirror of the engine's
/// index mutation API (`move_worker` / `remove_worker` / `insert_worker`).
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMotion {
    /// The worker drifts to `to`: every availability slot relocates there.
    Move {
        /// The moving worker.
        id: WorkerId,
        /// Its new position.
        to: Location,
    },
    /// The worker's session ends; the engine removes it and releases its
    /// commitments.
    Offline {
        /// The departing worker.
        id: WorkerId,
    },
    /// A new worker session starts.  Returning couriers come back under a
    /// **fresh id** — sessions, not identities — which is what keeps a
    /// mutate-in-place engine equivalent to one that rebuilds its index at
    /// drain boundaries (recycling an id across a rebuild is out of
    /// contract for the rebuild baselines).
    Online {
        /// The arriving worker.
        worker: Worker,
    },
}

/// A [`WorkerMotion`] stamped with its virtual occurrence time.
#[derive(Debug, Clone, PartialEq)]
pub struct MotionEvent {
    /// Event time in microseconds since the trace start.
    pub at_us: u64,
    /// The motion itself.
    pub motion: WorkerMotion,
}

/// Configuration of the seeded waypoint-drift churn generator.
///
/// Each mobile worker holds a waypoint drawn uniformly over the domain and
/// covers `drift_fraction` of the remaining distance per tick; on (near-)
/// arrival it draws a new waypoint.  Independently, each tick flips a
/// `churn_prob` coin: heads retires one live worker ([`WorkerMotion::Offline`])
/// and admits one fresh session ([`WorkerMotion::Online`]), keeping the pool
/// size stable while ids keep advancing.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerChurnConfig {
    /// Generator seed: same seed and pool ⇒ bit-identical tape.
    pub seed: u64,
    /// Interval between motion ticks, in microseconds.
    pub tick_us: u64,
    /// How many live workers drift per tick.
    pub moves_per_tick: usize,
    /// Per-tick probability of one offline + one online event.
    pub churn_prob: f64,
    /// Fraction of the remaining waypoint distance covered per tick
    /// (`0 < f <= 1`).
    pub drift_fraction: f64,
    /// Slots per freshly admitted worker (all at its spawn location).
    pub num_slots: usize,
    /// The domain waypoints and spawn locations are drawn over.
    pub domain: Domain,
}

/// A finite, replayable worker-motion tape: the events of
/// [`MotionTape::generate`], sorted by time (ties keep generation order —
/// moves before churn within a tick).
#[derive(Debug, Clone, PartialEq)]
pub struct MotionTape {
    /// The motion events in time order.
    pub events: Vec<MotionEvent>,
    /// The configured tick interval.
    pub tick_us: u64,
    /// Number of ticks generated.
    pub ticks: usize,
}

impl MotionTape {
    /// Generates `ticks` ticks of waypoint drift and session churn over the
    /// live descendants of `pool`.  Deterministic per `(config, pool)`;
    /// fresh sessions take ids above the pool's maximum.
    ///
    /// # Panics
    /// Panics unless `0 < drift_fraction <= 1`, `(0..=1).contains(&churn_prob)`
    /// and `tick_us > 0`.
    pub fn generate(config: &WorkerChurnConfig, pool: &WorkerPool, ticks: usize) -> Self {
        assert!(
            config.drift_fraction > 0.0 && config.drift_fraction <= 1.0,
            "drift_fraction must be in (0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&config.churn_prob),
            "churn_prob must be a probability"
        );
        assert!(config.tick_us > 0, "ticks need a positive interval");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let domain = &config.domain;
        let waypoint =
            |rng: &mut StdRng| -> Location { SpatialDistribution::Uniform.sample(rng, domain) };
        // Live worker state: (id, position, waypoint).  Position starts at
        // the worker's first availability slot.
        let mut live: Vec<(WorkerId, Location, Location)> = pool
            .workers()
            .iter()
            .filter_map(|w| {
                let start = w.availability().first()?.location;
                Some((w.id, start, waypoint(&mut rng)))
            })
            .collect();
        let mut next_id = pool
            .workers()
            .iter()
            .map(|w| w.id.0)
            .max()
            .map_or(0, |m| m + 1);
        let mut events = Vec::new();
        for tick in 1..=ticks {
            let at_us = tick as u64 * config.tick_us;
            for _ in 0..config.moves_per_tick.min(live.len()) {
                let at = rng.gen_range(0..live.len());
                let (id, pos, goal) = &mut live[at];
                let to = Location::new(
                    pos.x + (goal.x - pos.x) * config.drift_fraction,
                    pos.y + (goal.y - pos.y) * config.drift_fraction,
                );
                *pos = to;
                if pos.distance(goal) < 1e-3 * (domain.width() + domain.height()) {
                    *goal = waypoint(&mut rng);
                }
                events.push(MotionEvent {
                    at_us,
                    motion: WorkerMotion::Move { id: *id, to },
                });
            }
            if rng.gen_range(0.0..1.0) < config.churn_prob && !live.is_empty() {
                let (gone, _, _) = live.swap_remove(rng.gen_range(0..live.len()));
                events.push(MotionEvent {
                    at_us,
                    motion: WorkerMotion::Offline { id: gone },
                });
                let spawn = waypoint(&mut rng);
                let slots = (0..config.num_slots)
                    .map(|slot| WorkerSlot {
                        slot,
                        location: spawn,
                    })
                    .collect();
                let worker = Worker::new(WorkerId(next_id), slots);
                next_id += 1;
                live.push((worker.id, spawn, waypoint(&mut rng)));
                events.push(MotionEvent {
                    at_us,
                    motion: WorkerMotion::Online { worker },
                });
            }
        }
        Self {
            events,
            tick_us: config.tick_us,
            ticks,
        }
    }

    /// Number of events on the tape.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::StreamingConfig;

    #[test]
    fn streaming_rounds_map_to_timed_batches() {
        let streaming = StreamingConfig::small(3, 4).build();
        let trace = ArrivalTrace::from_streaming(&streaming, 50_000);
        assert_eq!(trace.len(), 12);
        assert_eq!(trace.rounds, 3);
        assert_eq!(trace.duration_us(), 100_000);
        let batches = trace.batches();
        assert_eq!(batches.len(), 3);
        for (round, (at, tasks)) in batches.iter().enumerate() {
            assert_eq!(*at, round as u64 * 50_000);
            assert_eq!(tasks.len(), 4);
            assert_eq!(tasks, &streaming.rounds[round]);
        }
        // The flattened trace preserves the submission order exactly.
        let flat: Vec<_> = trace.arrivals.iter().map(|a| a.task.clone()).collect();
        assert_eq!(flat, streaming.concatenated());
    }

    #[test]
    fn zero_interval_collapses_rounds_into_one_batch() {
        let streaming = StreamingConfig::small(3, 2).build();
        let trace = ArrivalTrace::from_streaming(&streaming, 0);
        assert_eq!(trace.rounds, 3);
        let batches = trace.batches();
        assert_eq!(batches.len(), 1, "same-time rounds merge into one batch");
        assert_eq!(batches[0].1.len(), 6);
    }

    fn heavy_config(seed: u64) -> HeavyTailedArrivals {
        HeavyTailedArrivals {
            seed,
            inter_arrival_us: BoundedPareto::new(1.3, 50.0, 20_000.0),
            schedule: PhaseSchedule::rush_hour(400_000, 200_000, 4.0),
            num_slots: 3,
            distribution: SpatialDistribution::Uniform,
            domain: Domain::square(1_000.0),
        }
    }

    #[test]
    fn bounded_pareto_samples_stay_in_bounds_and_match_the_mean() {
        let dist = BoundedPareto::new(1.3, 50.0, 20_000.0);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = dist.sample(&mut rng);
            assert!((dist.low()..=dist.high()).contains(&x), "sample {x}");
            sum += x;
        }
        let empirical = sum / n as f64;
        let analytic = dist.mean();
        assert!(
            (empirical - analytic).abs() / analytic < 0.05,
            "empirical mean {empirical} vs analytic {analytic}"
        );
        // alpha = 1 uses the degenerate closed form.
        let unit = BoundedPareto::new(1.0, 1.0, 100.0);
        assert!((unit.mean() - 100.0f64.ln() / 0.99).abs() < 1e-9);
    }

    #[test]
    fn heavy_tailed_streams_are_deterministic_per_seed_and_monotone() {
        for seed in [0u64, 7, 99] {
            let config = heavy_config(seed);
            let a: Vec<TaskArrival> = config.sampler().take(2_000).collect();
            let b: Vec<TaskArrival> = config.sampler().take(2_000).collect();
            assert_eq!(a, b, "seed {seed}: same seed must replay bit-identically");
            // Monotone arrival times, sequential ids, segments non-decreasing.
            for pair in a.windows(2) {
                assert!(pair[0].at_us <= pair[1].at_us, "seed {seed}: time reversed");
                assert!(
                    pair[0].round <= pair[1].round,
                    "seed {seed}: segment reversed"
                );
            }
            for (i, arrival) in a.iter().enumerate() {
                assert_eq!(arrival.task.id, tcsc_core::TaskId(i as u32));
                assert_eq!(arrival.task.num_slots, 3);
                assert!(config.domain.contains(&arrival.task.location));
            }
        }
        // Different seeds diverge.
        let a: Vec<TaskArrival> = heavy_config(1).sampler().take(100).collect();
        let b: Vec<TaskArrival> = heavy_config(2).sampler().take(100).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn burst_phases_compress_inter_arrival_times() {
        let config = heavy_config(11);
        let arrivals: Vec<TaskArrival> = config.sampler().take(50_000).collect();
        // Count arrivals per phase label over the covered span.
        let (mut rush, mut calm) = (0u64, 0u64);
        let (mut rush_us, mut calm_us) = (0u64, 0u64);
        let cycle = config.schedule.cycle_us();
        let covered_cycles = arrivals.last().unwrap().at_us / cycle + 1;
        for phase in config.schedule.phases() {
            if phase.label == "rush" {
                rush_us += phase.duration_us * covered_cycles;
            } else {
                calm_us += phase.duration_us * covered_cycles;
            }
        }
        for arrival in &arrivals {
            let (_, phase) = config.schedule.segment_at(arrival.at_us);
            if phase.label == "rush" {
                rush += 1;
            } else {
                calm += 1;
            }
        }
        let rush_rate = rush as f64 / rush_us as f64;
        let calm_rate = calm as f64 / calm_us as f64;
        assert!(
            rush_rate > 2.5 * calm_rate,
            "a 4x burst must arrive much faster: rush {rush_rate} vs calm {calm_rate}"
        );
    }

    #[test]
    fn segment_indices_walk_the_cyclic_schedule() {
        let schedule = PhaseSchedule::rush_hour(100, 50, 4.0);
        assert_eq!(schedule.cycle_us(), 250);
        assert_eq!(schedule.segment_at(0), (0, &schedule.phases()[0]));
        assert_eq!(schedule.segment_at(99), (0, &schedule.phases()[0]));
        assert_eq!(schedule.segment_at(100), (1, &schedule.phases()[1]));
        assert_eq!(schedule.segment_at(150), (2, &schedule.phases()[2]));
        // The second cycle continues the global segment count.
        assert_eq!(schedule.segment_at(250), (3, &schedule.phases()[0]));
        assert_eq!(schedule.segment_at(350), (4, &schedule.phases()[1]));
    }

    #[test]
    fn heavy_tailed_trace_collects_the_stream() {
        let config = heavy_config(3);
        let trace = ArrivalTrace::heavy_tailed(&config, 500);
        assert_eq!(trace.len(), 500);
        assert_eq!(trace.round_interval_us, 0);
        assert_eq!(trace.rounds, trace.arrivals.last().unwrap().round + 1);
        let direct: Vec<TaskArrival> = config.sampler().take(500).collect();
        assert_eq!(trace.arrivals, direct);
    }

    fn churn_pool(seed: u64) -> (WorkerChurnConfig, WorkerPool) {
        // 50 ms ticks, 8 drifting workers per tick covering 30% of the way
        // to their waypoint, and a 25% churn chance per tick.
        let config = WorkerChurnConfig {
            seed,
            tick_us: 50_000,
            moves_per_tick: 8,
            churn_prob: 0.25,
            drift_fraction: 0.3,
            num_slots: 3,
            domain: Domain::square(1_000.0),
        };
        let pool: WorkerPool = (0..20u32)
            .map(|i| {
                Worker::new(
                    WorkerId(i),
                    vec![WorkerSlot {
                        slot: (i % 3) as usize,
                        location: Location::new(f64::from(i) * 40.0, f64::from(i) * 11.0),
                    }],
                )
            })
            .collect();
        (config, pool)
    }

    #[test]
    fn motion_tapes_replay_bit_identically_per_seed() {
        let (config, pool) = churn_pool(42);
        let a = MotionTape::generate(&config, &pool, 30);
        let b = MotionTape::generate(&config, &pool, 30);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let (other, _) = churn_pool(43);
        assert_ne!(a, MotionTape::generate(&other, &pool, 30));
    }

    #[test]
    fn motion_tapes_target_live_sessions_with_fresh_online_ids() {
        let (config, pool) = churn_pool(7);
        let tape = MotionTape::generate(&config, &pool, 60);
        let mut live: std::collections::BTreeSet<WorkerId> =
            pool.workers().iter().map(|w| w.id).collect();
        let mut seen_ids: std::collections::BTreeSet<WorkerId> = live.clone();
        let mut last_at = 0;
        let (mut moves, mut churns) = (0usize, 0usize);
        for event in &tape.events {
            assert!(event.at_us >= last_at, "tape must be time-sorted");
            last_at = event.at_us;
            match &event.motion {
                WorkerMotion::Move { id, to } => {
                    assert!(live.contains(id), "move targets a live session");
                    assert!(config.domain.contains(to), "drift stays in-domain");
                    moves += 1;
                }
                WorkerMotion::Offline { id } => {
                    assert!(live.remove(id), "offline targets a live session");
                    churns += 1;
                }
                WorkerMotion::Online { worker } => {
                    assert!(
                        seen_ids.insert(worker.id),
                        "returning sessions use fresh ids"
                    );
                    assert_eq!(worker.availability().len(), config.num_slots);
                    live.insert(worker.id);
                }
            }
        }
        assert!(moves > 0, "drift events occurred");
        assert!(churns > 0, "a 25% churn chance fires within 60 ticks");
        assert_eq!(live.len(), pool.len(), "churn keeps the pool size stable");
    }

    #[test]
    #[should_panic(expected = "drift_fraction")]
    fn degenerate_drift_fractions_are_rejected() {
        let (mut config, pool) = churn_pool(1);
        config.drift_fraction = 0.0;
        let _ = MotionTape::generate(&config, &pool, 1);
    }

    #[test]
    #[should_panic(expected = "0 < low < high")]
    fn degenerate_pareto_bounds_are_rejected() {
        let _ = BoundedPareto::new(1.5, 10.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_schedules_are_rejected() {
        let _ = PhaseSchedule::new(Vec::new());
    }
}
