//! Entropy-based quality metric for TCSC tasks (Section II-B of the paper).
//!
//! The metric captures the joint effect of *incompletion* (not every subtask
//! can be executed under a limited budget) and *imprecision* (unexecuted
//! subtasks are inferred by temporal k-NN inverse-distance interpolation).
//!
//! For a task with `m` subtasks and executed-slot set `E`:
//!
//! * interpolation error ratio (Eq. 3):
//!   `ρ_err(τ(j)) = Σ_{e ∈ SkNN(j)} |j, e| / (k·m)`, where `SkNN(j)` are the
//!   `k` executed slots nearest in time to `j`; missing neighbours (when
//!   `|E| < k`) count with the largest possible distance `m`;
//! * subtask finishing probability (Eq. 2):
//!   `p(j) = (1/m)(1 − ρ_err(τ(j)))`, which is `1/m` for executed subtasks
//!   and `0` when nothing has been executed;
//! * task quality (Eq. 1): `q(τ) = −Σ_j p(j)·log2 p(j)`, ranging from `0`
//!   (no information) to `log2 m` (every subtask executed).
//!
//! The reliability extension (Eq. 4–5) weights every executed slot with the
//! reliability `λ ∈ [0, 1]` of the worker that executed it; setting every
//! `λ = 1` recovers the basic metric exactly.
//!
//! [`QualityEvaluator`] is the single shared implementation of this metric:
//! the greedy algorithms, the Voronoi-tree index and the baselines all consult
//! it, so Eq. 1–5 are defined in exactly one place.
//!
//! # The unit-reliability table
//!
//! The k-NN walk folds the neighbours through a closure, so no per-slot query
//! allocates.  On top of that, while every executed reliability (and the
//! tentative one, if any) is exactly `1` — always the case for the basic
//! metric — a slot's partial quality depends only on the integer sum `S` of
//! its `k` neighbour distances (`S = 0` for an executed slot, `S = k·m` when
//! nothing is executed).  Such slots read `−p·log2 p` from a table of `k·m + 1`
//! entries instead of calling `log2`.  The table is filled by the same
//! expression the formula path evaluates, fed the same `f64` operands: with
//! unit reliabilities the formula's neighbour sums are `Σ 1 = k` and
//! `Σ 1·d = S`, both integers far below `2^53` and therefore exact in any
//! summation order, so every entry equals the formula's result to the bit.
//! Debug builds assert this on every lookup.  One table is built per
//! `(m, k)` per process and shared by every evaluator with those parameters;
//! a slot executed with `λ ≠ 1` switches its evaluator to the formula path
//! until it is unexecuted again.
//!
//! The table has a second reader: [`QualityEvaluator::unit_partial_table`]
//! hands it to the V-tree (`tcsc_index::vtree`), which caches every slot's
//! `S` and k-th neighbour distance and scores a tentative execution at `t`
//! without a walk.  A unit-reliability `t` that enters slot `j`'s neighbour
//! set replaces the k-th neighbour, so `j`'s new sum is the exact integer
//! `S − kth + |j − t|` and its partial quality is the table entry the walk
//! would have read.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use crate::model::SlotIndex;

/// Parameters of the quality metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QualityParams {
    /// Number of time slots `m` of the task.
    pub num_slots: usize,
    /// Number of neighbours `k` used by the inverse-distance interpolation
    /// (the paper's default is `k = 3`).
    pub k: usize,
}

impl QualityParams {
    /// Creates metric parameters.
    ///
    /// # Panics
    /// Panics if `num_slots == 0` or `k == 0`.
    pub fn new(num_slots: usize, k: usize) -> Self {
        assert!(num_slots > 0, "a task needs at least one slot");
        assert!(k > 0, "k-NN interpolation needs k >= 1");
        Self { num_slots, k }
    }
}

/// An executed slot together with the reliability of the worker that probed
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutedSlot {
    /// The slot index.
    pub slot: SlotIndex,
    /// Reliability `λ` of the executing worker (`1.0` for the basic metric).
    pub reliability: f64,
}

/// One temporal nearest neighbour of a slot: an executed slot, its temporal
/// distance and the executing worker's reliability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The executed slot serving as interpolation source, or `None` for a
    /// "padding" neighbour standing in for a missing executed slot (counted
    /// with the largest possible distance `m` and reliability `1`).
    pub slot: Option<SlotIndex>,
    /// Temporal distance `|j, e|` (in slots) from the query slot.
    pub distance: usize,
    /// Reliability of the executing worker.
    pub reliability: f64,
}

/// A slot's partial quality together with its k-NN distances, from one
/// neighbour walk (see [`QualityEvaluator::slot_summary`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotSummary {
    /// `−p(j)·log2 p(j)`, bit-identical to
    /// [`QualityEvaluator::partial_quality`].
    pub partial_quality: f64,
    /// Whether the slot is executed.  The distances below are `0` then.
    pub executed: bool,
    /// Distance to the k-th nearest neighbour (`m` for a padding neighbour).
    pub kth_distance: usize,
    /// Sum of the `k` neighbour distances.
    pub distance_sum: usize,
}

/// `x · log2(x)` with the convention `0 · log2(0) = 0`.
#[inline]
fn xlog2x(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        x * x.log2()
    }
}

/// Largest unit-reliability table (`k·m + 1` entries) that is shared; larger
/// shapes stay on the formula path rather than pin megabytes per `(m, k)`.
const MAX_TABLE_LEN: usize = 1 << 16;

/// The neighbour sums of one slot, accumulated in walk order.
#[derive(Clone, Copy)]
struct KnnSums {
    /// `Σ λ`, started from `-0.0` exactly like `Iterator::sum`.
    reliability: f64,
    /// `Σ λ·d`, started from `-0.0` exactly like `Iterator::sum`.
    weighted: f64,
    /// `Σ d`.
    distance: usize,
    /// The last (largest) neighbour distance.
    kth: usize,
}

/// Finishing probability of an unexecuted slot from its neighbour sums
/// (Eq. 2 / Eq. 4): `(Σλ / k − Σλ·d / (k·m)) / m`, clamped at zero.
#[inline]
fn probability_from_sums(params: QualityParams, reliability_sum: f64, weighted_sum: f64) -> f64 {
    let k = params.k as f64;
    let m = params.num_slots as f64;
    let avg_reliability = reliability_sum / k;
    let rho = weighted_sum / (k * m);
    ((avg_reliability - rho) / m).max(0.0)
}

/// The shared unit-reliability table of `params`: entry `S` is the partial
/// quality of a slot whose `k` unit-reliability neighbours sum to distance
/// `S`.  `None` when the table would exceed [`MAX_TABLE_LEN`].
fn unit_table(params: QualityParams) -> Option<Arc<[f64]>> {
    type Tables = Mutex<HashMap<(usize, usize), Arc<[f64]>>>;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    let len = params.k.checked_mul(params.num_slots)?.checked_add(1)?;
    if len > MAX_TABLE_LEN {
        return None;
    }
    // A poisoned lock still guards a valid map: a table is inserted only
    // after it is fully built.
    let mut tables = TABLES
        .get_or_init(Tables::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let table = tables
        .entry((params.num_slots, params.k))
        .or_insert_with(|| {
            (0..len)
                .map(|s| -xlog2x(probability_from_sums(params, params.k as f64, s as f64)))
                .collect()
        });
    Some(Arc::clone(table))
}

/// Incremental evaluator of the entropy-based task quality.
///
/// The evaluator stores the sorted list of executed slots (with worker
/// reliabilities) and answers:
///
/// * exact temporal k-NN queries over the executed slots ([`Self::knn`]);
/// * per-slot error ratios, finishing probabilities and partial qualities;
/// * the total task quality ([`Self::quality`]);
/// * the *quality gain* of tentatively executing one more slot
///   ([`Self::gain_if_executed`]), the quantity the greedy Algorithm 1
///   maximises per unit cost.
#[derive(Clone, PartialEq)]
pub struct QualityEvaluator {
    params: QualityParams,
    /// Executed slots sorted by slot index.
    executed: Vec<ExecutedSlot>,
    /// Number of executed slots whose reliability is not exactly `1`; the
    /// unit-reliability table applies only while this is zero.
    non_unit: usize,
    /// The shared unit-reliability table of `params` (module docs).
    unit_table: Option<Arc<[f64]>>,
}

impl fmt::Debug for QualityEvaluator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QualityEvaluator")
            .field("params", &self.params)
            .field("executed", &self.executed)
            .finish_non_exhaustive()
    }
}

impl QualityEvaluator {
    /// Creates an evaluator with no executed subtasks (all states "null").
    pub fn new(params: QualityParams) -> Self {
        Self {
            params,
            executed: Vec::new(),
            non_unit: 0,
            unit_table: unit_table(params),
        }
    }

    /// Returns the evaluator to the state [`QualityEvaluator::new`] gives
    /// for `params`, keeping its buffer: every executed slot is forgotten,
    /// and the shared table is looked up again only when `params` changed.
    pub fn reset(&mut self, params: QualityParams) {
        if params != self.params {
            self.params = params;
            self.unit_table = unit_table(params);
        }
        self.executed.clear();
        self.non_unit = 0;
    }

    /// Convenience constructor: `m` slots, interpolation parameter `k`.
    pub fn with_slots(num_slots: usize, k: usize) -> Self {
        Self::new(QualityParams::new(num_slots, k))
    }

    /// The metric parameters.
    pub fn params(&self) -> QualityParams {
        self.params
    }

    /// Number of slots `m`.
    pub fn num_slots(&self) -> usize {
        self.params.num_slots
    }

    /// Interpolation parameter `k`.
    pub fn k(&self) -> usize {
        self.params.k
    }

    /// The executed slots, sorted by slot index.
    pub fn executed(&self) -> &[ExecutedSlot] {
        &self.executed
    }

    /// Number of executed slots.
    pub fn executed_len(&self) -> usize {
        self.executed.len()
    }

    /// `Ok(i)` when `slot` is executed at `executed[i]`, otherwise `Err(i)`
    /// with its insertion point.
    #[inline]
    fn search(&self, slot: SlotIndex) -> Result<usize, usize> {
        self.executed.binary_search_by_key(&slot, |e| e.slot)
    }

    /// Whether `slot` has been executed.
    pub fn is_executed(&self, slot: SlotIndex) -> bool {
        self.search(slot).is_ok()
    }

    /// Reliability recorded for an executed slot, if any.
    pub fn reliability_of(&self, slot: SlotIndex) -> Option<f64> {
        self.search(slot).ok().map(|i| self.executed[i].reliability)
    }

    /// Marks `slot` as executed by a fully reliable worker.
    ///
    /// Returns `false` (and changes nothing) if the slot was already executed.
    pub fn execute(&mut self, slot: SlotIndex) -> bool {
        self.execute_with_reliability(slot, 1.0)
    }

    /// Marks `slot` as executed by a worker with reliability `λ`.
    ///
    /// # Panics
    /// Panics if the slot is out of range or the reliability is outside
    /// `[0, 1]`.
    pub fn execute_with_reliability(&mut self, slot: SlotIndex, reliability: f64) -> bool {
        assert!(
            slot < self.params.num_slots,
            "slot {slot} out of range (m = {})",
            self.params.num_slots
        );
        assert!(
            (0.0..=1.0).contains(&reliability),
            "reliability must lie in [0, 1]"
        );
        match self.search(slot) {
            Ok(_) => false,
            Err(pos) => {
                self.executed
                    .insert(pos, ExecutedSlot { slot, reliability });
                if reliability != 1.0 {
                    self.non_unit += 1;
                }
                true
            }
        }
    }

    /// Reverts an executed slot back to the unexecuted state (used by
    /// algorithms that roll back tentative executions).  Returns `true` when
    /// the slot was executed.
    pub fn unexecute(&mut self, slot: SlotIndex) -> bool {
        match self.search(slot) {
            Ok(pos) => {
                if self.executed.remove(pos).reliability != 1.0 {
                    self.non_unit -= 1;
                }
                true
            }
            Err(_) => false,
        }
    }

    /// The unit-reliability table (module docs) while it applies, i.e. while
    /// every executed slot has reliability exactly `1`: entry `S` is the
    /// partial quality of an unexecuted slot whose `k` neighbour distances
    /// (padded with `m`) sum to `S`, and entry `0` that of an executed slot.
    /// Valid for any query whose tentative execution, if any, is also fully
    /// reliable.  `None` under mixed reliabilities, and for shapes with
    /// `k·m + 1 > 65_536`, which have no table.
    pub fn unit_partial_table(&self) -> Option<&[f64]> {
        self.table_for(None)
    }

    /// The unit-reliability table, when it applies to a query with `extra`.
    #[inline]
    fn table_for(&self, extra: Option<ExecutedSlot>) -> Option<&[f64]> {
        if self.non_unit == 0 && extra.map_or(true, |e| e.reliability == 1.0) {
            self.unit_table.as_deref()
        } else {
            None
        }
    }

    /// Walks the `k` temporal nearest neighbours of `slot` outwards from its
    /// position `found` in the executed list (the result of
    /// [`Self::search`]), merged with the optional `extra`, and hands each to
    /// `visit` in ascending order of distance (ties towards the earlier slot;
    /// an `extra` on an executed slot comes after that slot).  Missing
    /// neighbours are padded with distance `m` and reliability `1`.  The
    /// query slot itself is never its own neighbour.
    #[inline]
    fn walk_knn(
        &self,
        slot: SlotIndex,
        found: Result<usize, usize>,
        extra: Option<ExecutedSlot>,
        mut visit: impl FnMut(Neighbor),
    ) {
        let executed = &self.executed;
        // `executed[..left]` lies left of `slot`, `executed[right..]` right.
        let (mut left, mut right) = match found {
            Ok(i) => (i, i + 1),
            Err(i) => (i, i),
        };
        let mut extra = extra.filter(|e| e.slot != slot);
        for _ in 0..self.params.k {
            // Closest of the three cursors; between the two executed ones the
            // left wins a distance tie because its slot is smaller.
            let mut best: Option<(usize, ExecutedSlot)> = None;
            let mut from = 0u8;
            if left > 0 {
                let e = executed[left - 1];
                best = Some((slot - e.slot, e));
                from = 1;
            }
            if let Some(&e) = executed.get(right) {
                let d = e.slot - slot;
                if best.map_or(true, |(bd, _)| d < bd) {
                    best = Some((d, e));
                    from = 2;
                }
            }
            if let Some(e) = extra {
                let d = e.slot.abs_diff(slot);
                if best.map_or(true, |(bd, be)| d < bd || (d == bd && e.slot < be.slot)) {
                    best = Some((d, e));
                    from = 3;
                }
            }
            match from {
                1 => left -= 1,
                2 => right += 1,
                3 => extra = None,
                _ => {}
            }
            visit(match best {
                Some((distance, e)) => Neighbor {
                    slot: Some(e.slot),
                    distance,
                    reliability: e.reliability,
                },
                None => Neighbor {
                    slot: None,
                    distance: self.params.num_slots,
                    reliability: 1.0,
                },
            });
        }
    }

    /// The neighbour sums of `slot` from one walk.
    #[inline]
    fn knn_sums(
        &self,
        slot: SlotIndex,
        found: Result<usize, usize>,
        extra: Option<ExecutedSlot>,
    ) -> KnnSums {
        let mut sums = KnnSums {
            reliability: -0.0,
            weighted: -0.0,
            distance: 0,
            kth: 0,
        };
        self.walk_knn(slot, found, extra, |n| {
            sums.reliability += n.reliability;
            sums.weighted += n.reliability * n.distance as f64;
            sums.distance += n.distance;
            sums.kth = n.distance;
        });
        sums
    }

    /// The `k` executed slots nearest in time to `slot` (the set
    /// `SkNN(τ(j))`), padded with sentinel neighbours of distance `m` when
    /// fewer than `k` slots have been executed (footnote 2 of the paper).
    ///
    /// Neighbours are returned in ascending order of distance; ties are broken
    /// towards the earlier slot so the result is deterministic.
    pub fn knn(&self, slot: SlotIndex) -> Vec<Neighbor> {
        self.knn_with_extra(slot, None)
    }

    /// Like [`Self::knn`] but treating `extra` as an additionally executed
    /// slot (a *tentative execution*).  The query slot itself is never its own
    /// neighbour.
    pub fn knn_with_extra(&self, slot: SlotIndex, extra: Option<ExecutedSlot>) -> Vec<Neighbor> {
        let mut result = Vec::with_capacity(self.params.k);
        self.walk_knn(slot, self.search(slot), extra, |n| result.push(n));
        result
    }

    /// Interpolation error ratio `ρ_err(τ(j))` (Eq. 3, or Eq. 5 with worker
    /// reliabilities).  Zero for executed slots, one when nothing has been
    /// executed.
    pub fn error_ratio(&self, slot: SlotIndex) -> f64 {
        self.error_ratio_with_extra(slot, None)
    }

    /// Error ratio assuming `extra` were additionally executed.
    pub fn error_ratio_with_extra(&self, slot: SlotIndex, extra: Option<ExecutedSlot>) -> f64 {
        let found = self.search(slot);
        if found.is_ok() || extra.map(|e| e.slot) == Some(slot) {
            return 0.0;
        }
        if self.executed.is_empty() && extra.is_none() {
            return 1.0;
        }
        let k = self.params.k as f64;
        let m = self.params.num_slots as f64;
        self.knn_sums(slot, found, extra).weighted / (k * m)
    }

    /// Subtask finishing probability `p(j)` (Eq. 2, or Eq. 4 with worker
    /// reliabilities).
    pub fn finishing_probability(&self, slot: SlotIndex) -> f64 {
        self.finishing_probability_with_extra(slot, None)
    }

    /// Finishing probability assuming `extra` were additionally executed.
    pub fn finishing_probability_with_extra(
        &self,
        slot: SlotIndex,
        extra: Option<ExecutedSlot>,
    ) -> f64 {
        let found = self.search(slot);
        match self.executed_reliability(slot, found, extra) {
            Some(lambda) => lambda / self.params.num_slots as f64,
            None => self.unexecuted_probability(&self.knn_sums(slot, found, extra), extra),
        }
    }

    /// The reliability `slot` counts as executed with: its own, or the
    /// tentative `extra`'s when `extra` is the slot.  `None` when unexecuted.
    #[inline]
    fn executed_reliability(
        &self,
        slot: SlotIndex,
        found: Result<usize, usize>,
        extra: Option<ExecutedSlot>,
    ) -> Option<f64> {
        match found {
            Ok(i) => Some(self.executed[i].reliability),
            Err(_) => extra.filter(|e| e.slot == slot).map(|e| e.reliability),
        }
    }

    /// Finishing probability of an unexecuted slot from its neighbour sums:
    /// zero when nothing is executed at all, Eq. 2 / Eq. 4 otherwise.
    #[inline]
    fn unexecuted_probability(&self, sums: &KnnSums, extra: Option<ExecutedSlot>) -> f64 {
        if self.executed.is_empty() && extra.is_none() {
            return 0.0;
        }
        probability_from_sums(self.params, sums.reliability, sums.weighted)
    }

    /// Partial quality of an executed slot with reliability `lambda`.
    #[inline]
    fn executed_partial(&self, lambda: f64) -> f64 {
        let formula = || -xlog2x(lambda / self.params.num_slots as f64);
        match self.unit_table.as_deref() {
            Some(table) if lambda == 1.0 => {
                debug_assert_eq!(table[0].to_bits(), formula().to_bits());
                table[0]
            }
            _ => formula(),
        }
    }

    /// Partial quality of an unexecuted slot from its neighbour sums: the
    /// table entry while all reliabilities are one, Eq. 1 otherwise.
    #[inline]
    fn unexecuted_partial(&self, sums: &KnnSums, extra: Option<ExecutedSlot>) -> f64 {
        let formula = || -xlog2x(self.unexecuted_probability(sums, extra));
        match self.table_for(extra) {
            Some(table) => {
                debug_assert_eq!(table[sums.distance].to_bits(), formula().to_bits());
                table[sums.distance]
            }
            None => formula(),
        }
    }

    /// Partial quality of a single slot: `−p(j)·log2 p(j)`.
    pub fn partial_quality(&self, slot: SlotIndex) -> f64 {
        self.partial_quality_with_extra(slot, None)
    }

    /// Partial quality of a slot assuming `extra` were additionally executed.
    pub fn partial_quality_with_extra(&self, slot: SlotIndex, extra: Option<ExecutedSlot>) -> f64 {
        let found = self.search(slot);
        match self.executed_reliability(slot, found, extra) {
            Some(lambda) => self.executed_partial(lambda),
            None => self.unexecuted_partial(&self.knn_sums(slot, found, extra), extra),
        }
    }

    /// [`Self::partial_quality`] of `slot` together with its k-th neighbour
    /// distance and neighbour distance sum, from a single walk.
    pub fn slot_summary(&self, slot: SlotIndex) -> SlotSummary {
        let found = self.search(slot);
        if let Ok(i) = found {
            return SlotSummary {
                partial_quality: self.executed_partial(self.executed[i].reliability),
                executed: true,
                kth_distance: 0,
                distance_sum: 0,
            };
        }
        let sums = self.knn_sums(slot, found, None);
        SlotSummary {
            partial_quality: self.unexecuted_partial(&sums, None),
            executed: false,
            kth_distance: sums.kth,
            distance_sum: sums.distance,
        }
    }

    /// Total task quality `q(τ)` (Eq. 1).
    pub fn quality(&self) -> f64 {
        (0..self.params.num_slots)
            .map(|j| self.partial_quality(j))
            .sum()
    }

    /// Quality of the task assuming `extra` were additionally executed.
    pub fn quality_with_extra(&self, extra: ExecutedSlot) -> f64 {
        (0..self.params.num_slots)
            .map(|j| self.partial_quality_with_extra(j, Some(extra)))
            .sum()
    }

    /// Quality gain `Δq = q(E ∪ {slot}) − q(E)` of tentatively executing
    /// `slot` with a fully reliable worker.
    pub fn gain_if_executed(&self, slot: SlotIndex) -> f64 {
        self.gain_if_executed_with_reliability(slot, 1.0)
    }

    /// Quality gain of tentatively executing `slot` with reliability `λ`.
    ///
    /// Already-executed slots yield a gain of zero.
    pub fn gain_if_executed_with_reliability(&self, slot: SlotIndex, reliability: f64) -> f64 {
        if self.is_executed(slot) {
            return 0.0;
        }
        let extra = ExecutedSlot { slot, reliability };
        self.quality_with_extra(extra) - self.quality()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn executed(ev: &mut QualityEvaluator, slots: &[SlotIndex]) {
        for &s in slots {
            ev.execute(s);
        }
    }

    #[test]
    fn empty_task_has_zero_quality() {
        let ev = QualityEvaluator::with_slots(10, 3);
        assert_eq!(ev.quality(), 0.0);
        assert_eq!(ev.finishing_probability(4), 0.0);
        assert_eq!(ev.error_ratio(4), 1.0);
    }

    #[test]
    fn fully_executed_task_reaches_log2_m() {
        let m = 16;
        let mut ev = QualityEvaluator::with_slots(m, 3);
        executed(&mut ev, &(0..m).collect::<Vec<_>>());
        assert!((ev.quality() - (m as f64).log2()).abs() < 1e-12);
    }

    #[test]
    fn a_reset_evaluator_is_a_new_one() {
        let mut ev = QualityEvaluator::with_slots(12, 2);
        ev.execute_with_reliability(4, 0.5);
        ev.execute(9);
        for params in [QualityParams::new(12, 2), QualityParams::new(30, 3)] {
            ev.reset(params);
            let fresh = QualityEvaluator::new(params);
            assert_eq!(ev.params(), params);
            assert_eq!(ev.executed(), fresh.executed());
            assert_eq!(ev.unit_partial_table(), fresh.unit_partial_table());
            ev.execute(5);
            let mut fresh = fresh;
            fresh.execute(5);
            assert_eq!(ev.quality().to_bits(), fresh.quality().to_bits());
        }
    }

    #[test]
    fn executed_slot_has_probability_one_over_m() {
        let mut ev = QualityEvaluator::with_slots(10, 2);
        ev.execute(3);
        assert!((ev.finishing_probability(3) - 0.1).abs() < 1e-12);
        assert_eq!(ev.error_ratio(3), 0.0);
    }

    #[test]
    fn paper_running_example_error_ratio() {
        // Fig. 2 of the paper: m = 5... but the worked number uses m = 100,
        // k = 2 with executed slots {2, 4} (1-based) and query slot 1:
        // ρ_err(τ(1)) = (1 + 3) / (2 · 100) = 0.02.
        let mut ev = QualityEvaluator::with_slots(100, 2);
        // 1-based slots 2 and 4 are 0-based 1 and 3.
        executed(&mut ev, &[1, 3]);
        let rho = ev.error_ratio(0);
        assert!((rho - 0.02).abs() < 1e-12, "got {rho}");
    }

    #[test]
    fn fig3_example_knn_locality() {
        // Fig. 3 of the paper: k = 2, m = 100 executed (1-based) {2, 4, 7, 9}.
        let mut ev = QualityEvaluator::with_slots(100, 2);
        executed(&mut ev, &[1, 3, 6, 8]);
        // The unexecuted slots of the first Voronoi cell (1-based 1 and 3)
        // share the 2-NN result {2, 4}.
        for slot in [0, 2] {
            let nn: Vec<_> = ev.knn(slot).iter().map(|n| n.slot.unwrap()).collect();
            let mut sorted = nn.clone();
            sorted.sort_unstable();
            assert_eq!(
                sorted,
                vec![1, 3],
                "slot {slot} should see {{2,4}} (1-based)"
            );
        }
    }

    #[test]
    fn knn_pads_missing_neighbors_with_distance_m() {
        let mut ev = QualityEvaluator::with_slots(50, 3);
        ev.execute(10);
        let nn = ev.knn(12);
        assert_eq!(nn.len(), 3);
        assert_eq!(nn[0].slot, Some(10));
        assert_eq!(nn[0].distance, 2);
        assert_eq!(nn[1].slot, None);
        assert_eq!(nn[1].distance, 50);
        assert_eq!(nn[2].slot, None);
    }

    #[test]
    fn knn_never_returns_query_slot() {
        let mut ev = QualityEvaluator::with_slots(20, 3);
        executed(&mut ev, &[4, 5, 6, 7]);
        let nn = ev.knn(5);
        assert!(nn.iter().all(|n| n.slot != Some(5)));
    }

    #[test]
    fn knn_tie_breaks_towards_earlier_slot() {
        let mut ev = QualityEvaluator::with_slots(20, 1);
        executed(&mut ev, &[3, 7]);
        // Slot 5 is equidistant from 3 and 7; the earlier slot wins.
        let nn = ev.knn(5);
        assert_eq!(nn[0].slot, Some(3));
    }

    #[test]
    fn knn_with_extra_sees_tentative_slot() {
        let mut ev = QualityEvaluator::with_slots(20, 2);
        executed(&mut ev, &[10]);
        let extra = ExecutedSlot {
            slot: 4,
            reliability: 1.0,
        };
        let nn = ev.knn_with_extra(5, Some(extra));
        assert_eq!(nn[0].slot, Some(4));
        assert_eq!(nn[1].slot, Some(10));
    }

    #[test]
    fn quality_is_monotone_in_executions() {
        let mut ev = QualityEvaluator::with_slots(30, 3);
        let mut last = ev.quality();
        for slot in [5, 17, 2, 29, 11, 23, 8] {
            ev.execute(slot);
            let q = ev.quality();
            assert!(
                q >= last - 1e-12,
                "quality decreased after executing {slot}: {last} -> {q}"
            );
            last = q;
        }
    }

    #[test]
    fn gain_matches_execute_then_recompute() {
        let mut ev = QualityEvaluator::with_slots(40, 3);
        executed(&mut ev, &[3, 19, 33]);
        let before = ev.quality();
        let gain = ev.gain_if_executed(10);
        ev.execute(10);
        let after = ev.quality();
        assert!((after - before - gain).abs() < 1e-9);
    }

    #[test]
    fn unit_partial_table_applies_only_to_unit_reliabilities() {
        let mut ev = QualityEvaluator::with_slots(12, 3);
        let table = ev.unit_partial_table().expect("a 37-entry table").to_vec();
        assert_eq!(table.len(), 3 * 12 + 1);
        ev.execute(4);
        assert_eq!(
            table[0].to_bits(),
            ev.partial_quality(4).to_bits(),
            "entry 0 is an executed slot"
        );
        // Slot 6's neighbours: 4 at distance 2, then two paddings at m = 12.
        assert_eq!(table[2 + 24].to_bits(), ev.partial_quality(6).to_bits());
        ev.execute_with_reliability(9, 0.5);
        assert!(ev.unit_partial_table().is_none());
        ev.unexecute(9);
        assert!(ev.unit_partial_table().is_some());
    }

    #[test]
    fn gain_of_executed_slot_is_zero() {
        let mut ev = QualityEvaluator::with_slots(10, 2);
        ev.execute(4);
        assert_eq!(ev.gain_if_executed(4), 0.0);
    }

    #[test]
    fn unexecute_rolls_back() {
        let mut ev = QualityEvaluator::with_slots(10, 2);
        let q0 = ev.quality();
        ev.execute(5);
        assert!(ev.is_executed(5));
        assert!(ev.unexecute(5));
        assert!(!ev.is_executed(5));
        assert!(!ev.unexecute(5));
        assert!((ev.quality() - q0).abs() < 1e-12);
    }

    #[test]
    fn reliability_scales_executed_probability() {
        let mut ev = QualityEvaluator::with_slots(10, 2);
        ev.execute_with_reliability(3, 0.5);
        assert!((ev.finishing_probability(3) - 0.05).abs() < 1e-12);
        assert_eq!(ev.reliability_of(3), Some(0.5));
    }

    #[test]
    fn full_reliability_degenerates_to_basic_metric() {
        let mut basic = QualityEvaluator::with_slots(25, 3);
        let mut reliable = QualityEvaluator::with_slots(25, 3);
        for slot in [2, 9, 14, 20] {
            basic.execute(slot);
            reliable.execute_with_reliability(slot, 1.0);
        }
        for j in 0..25 {
            assert!(
                (basic.finishing_probability(j) - reliable.finishing_probability(j)).abs() < 1e-12
            );
        }
        assert!((basic.quality() - reliable.quality()).abs() < 1e-12);
    }

    #[test]
    fn lower_reliability_never_increases_quality() {
        let mut high = QualityEvaluator::with_slots(20, 3);
        let mut low = QualityEvaluator::with_slots(20, 3);
        for slot in [1, 7, 13] {
            high.execute_with_reliability(slot, 0.9);
            low.execute_with_reliability(slot, 0.4);
        }
        assert!(low.quality() <= high.quality() + 1e-12);
    }

    #[test]
    fn double_execute_is_rejected() {
        let mut ev = QualityEvaluator::with_slots(10, 2);
        assert!(ev.execute(5));
        assert!(!ev.execute(5));
        assert_eq!(ev.executed_len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn execute_out_of_range_panics() {
        let mut ev = QualityEvaluator::with_slots(10, 2);
        ev.execute(10);
    }

    #[test]
    fn error_ratio_bounded_by_one() {
        let mut ev = QualityEvaluator::with_slots(8, 4);
        ev.execute(0);
        for j in 0..8 {
            let rho = ev.error_ratio(j);
            assert!((0.0..=1.0).contains(&rho), "rho({j}) = {rho}");
        }
    }
}
