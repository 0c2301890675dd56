//! Core data model for time-continuous spatial crowdsourcing (TCSC).
//!
//! A TCSC [`Task`] occupies a single [`Location`] for a long duration that is
//! divided into `m` equal-sized time slots.  Each time slot corresponds to a
//! [`Subtask`].  A [`Worker`] registers, per time slot, whether she is
//! available and where she is located (derived from her trajectory).  Task
//! assignment maps workers to subtasks; see `tcsc-assign` for the assignment
//! algorithms and `crate::quality` for the entropy-based quality metric.

use std::collections::HashSet;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a TCSC task within a task set `T`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// Identifier of a registered worker within the worker set `W`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub u32);

/// A multiplicative hasher for worker ids, slot indices and their tuples
/// (the `rustc-hash` construction): one multiply per word, a final rotation
/// that brings the well-mixed high bits down to the bucket index.
///
/// It gives up SipHash's resistance to crafted collisions.  Ids that agree
/// in their low bits still spread (the multiply carries every input bit
/// upwards), but a caller who picks ids to collide can push a set towards
/// the linear scan it replaced.  The ids hashed here are the program's own
/// slot indices and registered worker ids, and every map and set keyed by
/// them answers the same whatever the collisions: no enumeration of one
/// depends on its hash order.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(Self::MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A set of worker ids hashed with [`IdHasher`]: a membership probe costs
/// expected `O(1)`.  Its iteration order is the hash table's, so whoever
/// enumerates one sorts first.
pub type WorkerSet = HashSet<WorkerId, BuildHasherDefault<IdHasher>>;

/// Zero-based index of a time slot within a task's duration (`0..m`).
///
/// The paper indexes slots `1..=m`; we use zero-based indices internally.
/// Temporal distances `|a, b|` are absolute differences of slot indices and
/// are therefore identical under either convention.
pub type SlotIndex = usize;

/// A point in the two-dimensional spatial domain.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Location {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Location {
    /// Creates a new location.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another location.
    ///
    /// This is the travel-cost primitive of the paper (Section II-A): the cost
    /// of a subtask is the Euclidean distance between the subtask's location
    /// and the assigned worker's location.
    pub fn distance(&self, other: &Location) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

/// Rectangular spatial domain in which tasks and workers live.
///
/// The domain is needed by the spatiotemporal quality extension (Appendix C of
/// the paper): spatial interpolation distances are normalised by the domain
/// size `|D|` so that the spatial error ratio stays within `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Domain {
    /// Minimum corner of the rectangle.
    pub min: Location,
    /// Maximum corner of the rectangle.
    pub max: Location,
}

impl Domain {
    /// Creates a new rectangular domain; panics if the corners are inverted.
    pub fn new(min: Location, max: Location) -> Self {
        assert!(
            min.x <= max.x && min.y <= max.y,
            "domain min corner must not exceed max corner"
        );
        Self { min, max }
    }

    /// A square domain `[0, side] x [0, side]`.
    pub fn square(side: f64) -> Self {
        Self::new(Location::new(0.0, 0.0), Location::new(side, side))
    }

    /// Domain side length along the x axis.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Domain side length along the y axis.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Centre of the domain (used as the mean of the Gaussian generator).
    pub fn center(&self) -> Location {
        Location::new(
            (self.min.x + self.max.x) / 2.0,
            (self.min.y + self.max.y) / 2.0,
        )
    }

    /// The normalisation constant `|D|` of the spatial error ratio: the
    /// diagonal length, i.e. the largest possible distance between two points
    /// of the domain.
    pub fn diagonal(&self) -> f64 {
        self.min.distance(&self.max)
    }

    /// Whether a location lies inside the domain (inclusive).
    pub fn contains(&self, loc: &Location) -> bool {
        loc.x >= self.min.x && loc.x <= self.max.x && loc.y >= self.min.y && loc.y <= self.max.y
    }

    /// Clamps a location into the domain.
    pub fn clamp(&self, loc: Location) -> Location {
        Location::new(
            loc.x.clamp(self.min.x, self.max.x),
            loc.y.clamp(self.min.y, self.max.y),
        )
    }
}

impl Default for Domain {
    fn default() -> Self {
        Self::square(100.0)
    }
}

/// A subtask `τ(j)`: one time slot of a TCSC task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Subtask {
    /// The task this subtask belongs to.
    pub task: TaskId,
    /// Zero-based slot index `j` within the task.
    pub slot: SlotIndex,
    /// Location inherited from the parent task.
    pub location: Location,
}

/// A TCSC task `τ`: a location observed over `m` consecutive time slots.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Identifier of the task.
    pub id: TaskId,
    /// Location `τ.loc` of the task.
    pub location: Location,
    /// Number of subtasks / time slots `m`.
    pub num_slots: usize,
}

impl Task {
    /// Creates a task with `num_slots` subtasks at `location`.
    pub fn new(id: TaskId, location: Location, num_slots: usize) -> Self {
        assert!(num_slots > 0, "a task must have at least one subtask");
        Self {
            id,
            location,
            num_slots,
        }
    }

    /// The subtask at slot `j`.
    ///
    /// # Panics
    /// Panics if `slot >= self.num_slots`.
    pub fn subtask(&self, slot: SlotIndex) -> Subtask {
        assert!(slot < self.num_slots, "slot {slot} out of range");
        Subtask {
            task: self.id,
            slot,
            location: self.location,
        }
    }

    /// Iterator over all subtasks in slot order.
    pub fn subtasks(&self) -> impl Iterator<Item = Subtask> + '_ {
        (0..self.num_slots).map(move |slot| self.subtask(slot))
    }
}

/// A worker's presence during one time slot: where she is and that she is
/// available to take a subtask at that slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerSlot {
    /// The time slot during which the worker is available.
    pub slot: SlotIndex,
    /// The worker's location during that slot (from her trajectory).
    pub location: Location,
}

/// A registered worker `w_i` with her availability windows.
///
/// The paper cuts each T-Drive trajectory into pieces of 1–5 time slots that
/// become the worker's active slots; `availability` holds exactly those
/// (slot, location) pairs, sorted by slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Worker {
    /// Identifier of the worker.
    pub id: WorkerId,
    /// Reliability score `λ_i ∈ [0, 1]` (Section II-B, reliability extension).
    /// Defaults to `1.0` (fully reliable), which degenerates the reliability
    /// metric into the basic metric.
    pub reliability: f64,
    /// Sorted list of (slot, location) availability entries.
    availability: Vec<WorkerSlot>,
}

impl Worker {
    /// Creates a fully reliable worker from (slot, location) availability
    /// entries.  Entries are sorted by slot; duplicate slots keep the first
    /// entry.
    pub fn new(id: WorkerId, availability: Vec<WorkerSlot>) -> Self {
        Self::with_reliability(id, availability, 1.0)
    }

    /// Creates a worker with an explicit reliability score.
    ///
    /// # Panics
    /// Panics if `reliability` is not within `[0, 1]`.
    pub fn with_reliability(
        id: WorkerId,
        mut availability: Vec<WorkerSlot>,
        reliability: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&reliability),
            "worker reliability must lie in [0, 1], got {reliability}"
        );
        availability.sort_by_key(|ws| ws.slot);
        availability.dedup_by_key(|ws| ws.slot);
        Self {
            id,
            reliability,
            availability,
        }
    }

    /// Sorted availability entries.
    pub fn availability(&self) -> &[WorkerSlot] {
        &self.availability
    }

    /// Whether the worker is available at `slot`, and if so where.
    pub fn location_at(&self, slot: SlotIndex) -> Option<Location> {
        self.availability
            .binary_search_by_key(&slot, |ws| ws.slot)
            .ok()
            .map(|idx| self.availability[idx].location)
    }

    /// Whether the worker is available at `slot`.
    pub fn is_available_at(&self, slot: SlotIndex) -> bool {
        self.location_at(slot).is_some()
    }

    /// Number of slots the worker is available for.
    pub fn availability_len(&self) -> usize {
        self.availability.len()
    }
}

/// A collection of registered workers, the worker set `W`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerPool {
    workers: Vec<Worker>,
}

impl WorkerPool {
    /// Creates a pool from a vector of workers, sorted by id.
    pub fn new(mut workers: Vec<Worker>) -> Self {
        workers.sort_by_key(|w| w.id);
        Self { workers }
    }

    /// An empty pool.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Adds a worker to the pool.
    pub fn push(&mut self, worker: Worker) {
        self.workers.push(worker);
        self.workers.sort_by_key(|w| w.id);
    }

    /// Number of registered workers `n = |W|`.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the pool has no workers.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// All workers, sorted by id.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Looks a worker up by id.
    pub fn get(&self, id: WorkerId) -> Option<&Worker> {
        self.workers
            .binary_search_by_key(&id, |w| w.id)
            .ok()
            .map(|idx| &self.workers[idx])
    }

    /// Iterator over workers available at a given slot together with their
    /// location during that slot.
    pub fn available_at(&self, slot: SlotIndex) -> impl Iterator<Item = (&Worker, Location)> + '_ {
        self.workers
            .iter()
            .filter_map(move |w| w.location_at(slot).map(|loc| (w, loc)))
    }

    /// The largest slot index any worker is available at, plus one (i.e. the
    /// horizon covered by the pool), or zero for an empty pool.
    pub fn horizon(&self) -> usize {
        self.workers
            .iter()
            .filter_map(|w| w.availability().last().map(|ws| ws.slot + 1))
            .max()
            .unwrap_or(0)
    }
}

impl FromIterator<Worker> for WorkerPool {
    fn from_iter<I: IntoIterator<Item = Worker>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wslot(slot: SlotIndex, x: f64, y: f64) -> WorkerSlot {
        WorkerSlot {
            slot,
            location: Location::new(x, y),
        }
    }

    #[test]
    fn location_distance_is_euclidean() {
        let a = Location::new(0.0, 0.0);
        let b = Location::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn location_distance_is_symmetric() {
        let a = Location::new(-1.5, 2.0);
        let b = Location::new(7.25, -3.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-12);
    }

    #[test]
    fn domain_center_and_diagonal() {
        let d = Domain::square(100.0);
        assert_eq!(d.center(), Location::new(50.0, 50.0));
        assert!((d.diagonal() - (2.0f64).sqrt() * 100.0).abs() < 1e-9);
        assert_eq!(d.width(), 100.0);
        assert_eq!(d.height(), 100.0);
    }

    #[test]
    fn domain_contains_and_clamp() {
        let d = Domain::square(10.0);
        assert!(d.contains(&Location::new(5.0, 5.0)));
        assert!(!d.contains(&Location::new(11.0, 5.0)));
        assert_eq!(d.clamp(Location::new(-2.0, 15.0)), Location::new(0.0, 10.0));
    }

    #[test]
    #[should_panic(expected = "domain min corner")]
    fn domain_rejects_inverted_corners() {
        let _ = Domain::new(Location::new(1.0, 1.0), Location::new(0.0, 0.0));
    }

    #[test]
    fn task_produces_subtasks_in_order() {
        let t = Task::new(TaskId(7), Location::new(1.0, 2.0), 5);
        let subs: Vec<_> = t.subtasks().collect();
        assert_eq!(subs.len(), 5);
        for (j, s) in subs.iter().enumerate() {
            assert_eq!(s.slot, j);
            assert_eq!(s.task, TaskId(7));
            assert_eq!(s.location, t.location);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn task_subtask_out_of_range_panics() {
        let t = Task::new(TaskId(0), Location::default(), 3);
        let _ = t.subtask(3);
    }

    #[test]
    #[should_panic(expected = "at least one subtask")]
    fn task_requires_slots() {
        let _ = Task::new(TaskId(0), Location::default(), 0);
    }

    #[test]
    fn worker_availability_is_sorted_and_queryable() {
        let w = Worker::new(
            WorkerId(1),
            vec![wslot(5, 1.0, 1.0), wslot(2, 0.0, 0.0), wslot(9, 2.0, 2.0)],
        );
        assert_eq!(w.availability_len(), 3);
        assert!(w.is_available_at(2));
        assert!(w.is_available_at(5));
        assert!(!w.is_available_at(3));
        assert_eq!(w.location_at(9), Some(Location::new(2.0, 2.0)));
        assert_eq!(w.location_at(0), None);
        // Sorted.
        let slots: Vec<_> = w.availability().iter().map(|ws| ws.slot).collect();
        assert_eq!(slots, vec![2, 5, 9]);
    }

    #[test]
    fn worker_dedups_duplicate_slots() {
        let w = Worker::new(WorkerId(1), vec![wslot(2, 0.0, 0.0), wslot(2, 1.0, 1.0)]);
        assert_eq!(w.availability_len(), 1);
    }

    #[test]
    #[should_panic(expected = "reliability")]
    fn worker_rejects_bad_reliability() {
        let _ = Worker::with_reliability(WorkerId(0), vec![], 1.5);
    }

    #[test]
    fn pool_lookup_and_available_at() {
        let pool: WorkerPool = vec![
            Worker::new(WorkerId(2), vec![wslot(0, 0.0, 0.0)]),
            Worker::new(WorkerId(1), vec![wslot(0, 5.0, 5.0), wslot(1, 6.0, 6.0)]),
        ]
        .into_iter()
        .collect();
        assert_eq!(pool.len(), 2);
        assert!(pool.get(WorkerId(1)).is_some());
        assert!(pool.get(WorkerId(3)).is_none());
        let at0: Vec<_> = pool.available_at(0).map(|(w, _)| w.id).collect();
        assert_eq!(at0, vec![WorkerId(1), WorkerId(2)]);
        let at1: Vec<_> = pool.available_at(1).map(|(w, _)| w.id).collect();
        assert_eq!(at1, vec![WorkerId(1)]);
        assert_eq!(pool.horizon(), 2);
    }

    #[test]
    fn empty_pool_horizon_is_zero() {
        assert_eq!(WorkerPool::empty().horizon(), 0);
        assert!(WorkerPool::empty().is_empty());
    }
}
