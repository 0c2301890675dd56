//! Differential fuzz of the mutable spatial index: random
//! insert/remove/move tapes applied to a live [`WorkerIndex`] must answer
//! every [`SpatialQuery`] path bit-identically to an index **rebuilt from
//! scratch** from an equivalently mutated mirror pool — the rebuild
//! equivalence invariant of [`MutableSpatialIndex`].  The tapes drive the
//! index through the [`ShardedWorkerIndex`] view, which forwards every
//! mutation and query to it and adds the tile-filtered query.
//!
//! Two tape families:
//!
//! * 320 seeds × 24-op mixed tapes, checkpointed every few ops;
//! * 40 seeds of growth tapes that fill one slot from its build population
//!   (often zero) to more than 4× it and drain it back to empty, so the slot
//!   re-grids on every doubling and halving in both directions while the
//!   other slots keep their build geometry.
//!
//! Covered paths: `nearest`, `k_nearest` (several counts),
//! `nearest_excluding_set` (including absent ids), the view's
//! occupancy-filtered `nearest_excluding_with`, and the counters
//! `available_count`, `total_workers` and `indexed_entries`.  The checks
//! compare query answers, never grid layout: a mutated grid keeps the
//! geometry of its last build.  Tapes deliberately move and insert workers
//! *outside* the domain, exercising the border-clamp of cells and tiles.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcsc_core::{Domain, Location, Worker, WorkerId, WorkerPool, WorkerSet, WorkerSlot};
use tcsc_index::{
    MutableSpatialIndex, NearestWorker, ShardGridConfig, ShardedWorkerIndex, SpatialQuery,
    WorkerIndex,
};

const SEEDS: u64 = 320;
const OPS_PER_TAPE: usize = 24;
const CHECK_EVERY: usize = 6;
const GROWTH_SEEDS: u64 = 40;

/// Bit-exact comparison key of one query answer.
fn key(w: &NearestWorker) -> (WorkerId, u64, u64, u64, u64) {
    (
        w.worker,
        w.distance.to_bits(),
        w.location.x.to_bits(),
        w.location.y.to_bits(),
        w.reliability.to_bits(),
    )
}

fn keys(found: impl IntoIterator<Item = NearestWorker>) -> Vec<(WorkerId, u64, u64, u64, u64)> {
    found.into_iter().map(|w| key(&w)).collect()
}

/// A deterministic pseudo-occupancy predicate over worker ids (the shard
/// argument is irrelevant for occupancy *membership*, which is global).
fn occupied(id: WorkerId) -> bool {
    id.0.wrapping_mul(2654435761) % 4 == 0
}

fn random_location(rng: &mut StdRng, domain: &Domain) -> Location {
    // 20% of placements land outside the domain (up to 30% beyond each
    // edge), so border clamping is continuously exercised.
    let slack = if rng.gen_range(0..5) == 0 { 0.3 } else { 0.0 };
    let w = domain.width();
    let h = domain.height();
    Location::new(
        rng.gen_range(domain.min.x - slack * w..domain.max.x + slack * w),
        rng.gen_range(domain.min.y - slack * h..domain.max.y + slack * h),
    )
}

fn random_worker(rng: &mut StdRng, id: u32, num_slots: usize, domain: &Domain) -> Worker {
    let count = rng.gen_range(1..=3);
    let slots = (0..count)
        .map(|_| WorkerSlot {
            // Some entries beyond the slot horizon: ignored by every build
            // and by the registry, so they must not perturb equivalence.
            slot: rng.gen_range(0..num_slots + 2),
            location: random_location(rng, domain),
        })
        .collect();
    Worker::with_reliability(WorkerId(id), slots, rng.gen_range(0.5..1.0))
}

/// A worker available in `slot` only.
fn slot_worker(rng: &mut StdRng, id: u32, slot: usize, domain: &Domain) -> Worker {
    let location = random_location(rng, domain);
    Worker::with_reliability(
        WorkerId(id),
        vec![WorkerSlot { slot, location }],
        rng.gen_range(0.5..1.0),
    )
}

fn query_points(rng: &mut StdRng, domain: &Domain) -> Vec<Location> {
    let mut points = vec![
        domain.min,
        domain.max,
        Location::new(domain.min.x, domain.max.y),
        domain.center(),
        // An out-of-domain query: its cell and tile clamp to the border.
        Location::new(domain.min.x - 7.0, domain.center().y),
    ];
    points.push(random_location(rng, domain));
    points.push(random_location(rng, domain));
    points
}

/// The mutated index and the mirror pool it must equal.
struct Tape {
    index: ShardedWorkerIndex,
    mirror: Vec<Worker>,
    num_slots: usize,
    domain: Domain,
}

impl Tape {
    fn new(mirror: Vec<Worker>, num_slots: usize, domain: Domain, config: ShardGridConfig) -> Self {
        let pool = WorkerPool::new(mirror.clone());
        Self {
            index: ShardedWorkerIndex::build(&pool, num_slots, &domain, config),
            mirror,
            num_slots,
            domain,
        }
    }

    /// Inserts `worker`, returning how many entries the index re-gridded.
    fn insert(&mut self, worker: Worker) -> usize {
        let m = self.index.insert_worker(&worker);
        assert!(m.applied);
        let inserted = worker
            .availability()
            .iter()
            .filter(|ws| ws.slot < self.num_slots)
            .count();
        self.mirror.push(worker);
        m.entries_touched - inserted
    }

    fn remove(&mut self, at: usize) {
        let id = self.mirror.remove(at).id;
        assert!(self.index.remove_worker(id).applied);
    }

    /// Moves the mirror worker at `at`: every availability entry relocates.
    fn relocate(&mut self, at: usize, to: Location) {
        let old = &self.mirror[at];
        let id = old.id;
        let moved_slots = old
            .availability()
            .iter()
            .map(|ws| WorkerSlot {
                slot: ws.slot,
                location: to,
            })
            .collect();
        self.mirror[at] = Worker::with_reliability(id, moved_slots, old.reliability);
        let m = self.index.move_worker(id, to);
        assert!(m.applied);
        assert!(
            m.entries_touched <= m.rebuild_equiv_entries,
            "an in-place move never exceeds the full rebuild"
        );
    }

    /// Asserts that the mutated index answers every query path exactly
    /// like an index rebuilt from scratch at the mirror-pool state.
    fn assert_checkpoint(&self, rng: &mut StdRng, ctx: &str) {
        let pool = WorkerPool::new(self.mirror.clone());
        let fresh = WorkerIndex::build(&pool, self.num_slots, &self.domain);
        let index = &self.index;
        assert_eq!(index.total_workers(), pool.len(), "{ctx}");
        assert_eq!(index.indexed_entries(), fresh.indexed_entries(), "{ctx}");
        let points = query_points(rng, &self.domain);
        for slot in 0..self.num_slots {
            let ctx = format!("{ctx}, slot {slot}");
            // The global exclusion set equivalent to the pseudo-occupancy
            // predicate: every available worker the predicate marks occupied.
            let occupied_set: WorkerSet = pool
                .available_at(slot)
                .filter(|(w, _)| occupied(w.id))
                .map(|(w, _)| w.id)
                .collect();
            // An exclusion set mixing present and absent ids.
            let mixed_set: WorkerSet = pool
                .workers()
                .iter()
                .filter(|w| w.id.0 % 3 == 0)
                .map(|w| w.id)
                .chain([WorkerId(u32::MAX), WorkerId(u32::MAX - 7)])
                .collect();
            assert_eq!(
                index.available_count(slot),
                fresh.available_count(slot),
                "{ctx}"
            );
            for q in &points {
                let ctx = format!("{ctx}, query {q}");
                assert_eq!(keys(index.nearest(slot, q)), keys(fresh.nearest(slot, q)));
                for count in [1usize, 3, 7] {
                    assert_eq!(
                        keys(index.k_nearest(slot, q, count)),
                        keys(fresh.k_nearest(slot, q, count)),
                        "{ctx}, k={count}"
                    );
                }
                for set in [&occupied_set, &mixed_set] {
                    assert_eq!(
                        keys(index.nearest_excluding_set(slot, q, set)),
                        keys(fresh.nearest_excluding_set(slot, q, set)),
                        "{ctx}"
                    );
                }
                // Occupancy-filtered path: the per-tile callback answers
                // like the equivalent global exclusion set.
                assert_eq!(
                    keys(index.nearest_excluding_with(slot, q, |_, id| occupied(id))),
                    keys(fresh.nearest_excluding_set(slot, q, &occupied_set)),
                    "{ctx}"
                );
            }
        }
    }
}

fn random_domain(rng: &mut StdRng) -> Domain {
    let side = rng.gen_range(30.0..80.0);
    Domain::new(
        Location::new(-side / 4.0, 0.0),
        Location::new(side, side * 0.75),
    )
}

#[test]
fn mutated_indexes_stay_bit_identical_to_rebuilds() {
    let layouts = [
        ShardGridConfig::new(1, 1),
        ShardGridConfig::new(2, 3),
        ShardGridConfig::new(4, 4),
        ShardGridConfig::new(5, 5),
    ];
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x0b57_ac1e ^ seed);
        let num_slots = rng.gen_range(2..=4);
        let domain = random_domain(&mut rng);
        let config = layouts[seed as usize % layouts.len()];

        let initial = rng.gen_range(8..=20);
        let mirror: Vec<Worker> = (0..initial)
            .map(|id| random_worker(&mut rng, id, num_slots, &domain))
            .collect();
        let mut next_id = initial;
        let mut tape = Tape::new(mirror, num_slots, domain, config);

        for step in 0..OPS_PER_TAPE {
            match rng.gen_range(0..4) {
                // Insert a brand-new worker (offline worker coming online).
                0 => {
                    let worker = random_worker(&mut rng, next_id, num_slots, &domain);
                    next_id += 1;
                    tape.insert(worker);
                }
                // Remove a random worker (going offline).
                1 if !tape.mirror.is_empty() => {
                    let at = rng.gen_range(0..tape.mirror.len());
                    tape.remove(at);
                }
                // Move a random worker: every availability entry relocates.
                _ if !tape.mirror.is_empty() => {
                    let at = rng.gen_range(0..tape.mirror.len());
                    let to = random_location(&mut rng, &domain);
                    tape.relocate(at, to);
                }
                _ => {}
            }
            if (step + 1) % CHECK_EVERY == 0 || step + 1 == OPS_PER_TAPE {
                tape.assert_checkpoint(&mut rng, &format!("seed {seed}, step {step}"));
            }
        }
        // Rejections leave the index untouched.
        let index = &mut tape.index;
        assert!(!index.remove_worker(WorkerId(u32::MAX)).applied);
        assert!(
            !index
                .move_worker(WorkerId(u32::MAX), domain.center())
                .applied
        );
        tape.assert_checkpoint(&mut rng, &format!("seed {seed}, rejections"));
    }
}

#[test]
fn slots_grown_past_four_times_their_build_and_drained_match_rebuilds() {
    for seed in 0..GROWTH_SEEDS {
        let mut rng = StdRng::seed_from_u64(0x6a0d ^ seed);
        let num_slots = 3;
        let domain = random_domain(&mut rng);
        // Slot 0 starts with 0–5 workers (zero on every fourth seed); a
        // background of workers in the other slots stays put.
        let start: usize = if seed % 4 == 0 {
            0
        } else {
            rng.gen_range(1..=5)
        };
        let mut next_id = 0u32;
        let mut mirror = Vec::new();
        for i in 0..start + 12 {
            let slot = if i < start { 0 } else { 1 + i % 2 };
            mirror.push(slot_worker(&mut rng, next_id, slot, &domain));
            next_id += 1;
        }
        let config = ShardGridConfig::new(1 + seed as usize % 4, 3);
        let mut tape = Tape::new(mirror, num_slots, domain, config);
        let in_slot_0 = |tape: &Tape| {
            let count = tape.index.available_count(0);
            assert_eq!(
                count,
                tape.mirror.iter().filter(|w| w.is_available_at(0)).count()
            );
            count
        };
        let peak = 4 * start.max(1) + rng.gen_range(1..=6usize);
        let mut step = 0;
        let mut checkpoint = |tape: &Tape, rng: &mut StdRng, phase: &str| {
            step += 1;
            if step % 5 == 0 {
                tape.assert_checkpoint(rng, &format!("seed {seed}, {phase} step {step}"));
            }
        };

        // Grow: mostly joins to slot 0, with a move in every few ops.
        let mut regridded = 0;
        while in_slot_0(&tape) < peak {
            if rng.gen_range(0..4) == 0 && !tape.mirror.is_empty() {
                let at = rng.gen_range(0..tape.mirror.len());
                let to = random_location(&mut rng, &domain);
                tape.relocate(at, to);
            } else {
                let worker = slot_worker(&mut rng, next_id, 0, &domain);
                next_id += 1;
                regridded += tape.insert(worker);
            }
            checkpoint(&tape, &mut rng, "grow");
        }
        assert!(
            regridded >= 4 * start.max(1),
            "seed {seed}: slot 0 re-gridded at 4x"
        );
        tape.assert_checkpoint(&mut rng, &format!("seed {seed}, peak"));

        // Drain slot 0 to empty in random order, moving as it goes.
        while in_slot_0(&tape) > 0 {
            let members: Vec<usize> = (0..tape.mirror.len())
                .filter(|&i| tape.mirror[i].is_available_at(0))
                .collect();
            let at = members[rng.gen_range(0..members.len())];
            if rng.gen_range(0..4) == 0 {
                let to = random_location(&mut rng, &domain);
                tape.relocate(at, to);
            } else {
                tape.remove(at);
            }
            checkpoint(&tape, &mut rng, "drain");
        }
        tape.assert_checkpoint(&mut rng, &format!("seed {seed}, drained"));

        // Refill a little: the emptied slot still serves fresh joins.
        for _ in 0..3 {
            let worker = slot_worker(&mut rng, next_id, 0, &domain);
            next_id += 1;
            tape.insert(worker);
        }
        tape.assert_checkpoint(&mut rng, &format!("seed {seed}, refilled"));
    }
}
