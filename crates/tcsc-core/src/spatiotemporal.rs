//! Spatiotemporal interpolation extension (Appendix C of the paper, "STCC").
//!
//! With multiple TCSC tasks running simultaneously, an unexecuted subtask
//! `τ_i(j)` can be interpolated *temporally* (from executed subtasks of the
//! same task, as in the base metric) or *spatially* (from subtasks executed at
//! the same time slot `j` by *other* tasks).  The combined error ratio is a
//! weighted sum
//!
//! ```text
//! ρ_err = w_s · ρ_s + w_t · ρ_t        with w_s + w_t = 1
//! ```
//!
//! where the spatial error ratio normalises spatial distances by the domain
//! size `|D|` (Eq. 13), so both components stay within `[0, 1]` and the
//! combined metric remains submodular and non-decreasing (the paper's
//! composition argument).  Finishing probabilities and the per-task entropy
//! quality are then defined exactly as in the temporal-only case.

use crate::model::{Domain, Location, SlotIndex};
use crate::quality::{ExecutedSlot, QualityEvaluator, QualityParams};

/// Weights of the spatial and temporal interpolation components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterpolationWeights {
    /// Spatial weight `w_s`.
    pub spatial: f64,
    /// Temporal weight `w_t`.
    pub temporal: f64,
}

impl InterpolationWeights {
    /// Creates weights; they must be non-negative and sum to one (within a
    /// small tolerance).
    pub fn new(spatial: f64, temporal: f64) -> Self {
        assert!(
            spatial >= 0.0 && temporal >= 0.0,
            "interpolation weights must be non-negative"
        );
        assert!(
            (spatial + temporal - 1.0).abs() < 1e-9,
            "interpolation weights must sum to 1, got {spatial} + {temporal}"
        );
        Self { spatial, temporal }
    }

    /// The paper's default: `w_t = 0.7`, `w_s = 0.3` (best setting found in
    /// Fig. 11(c)).
    pub fn paper_default() -> Self {
        Self::new(0.3, 0.7)
    }

    /// Temporal-only interpolation (`w_t = 1`), which degenerates the STCC
    /// metric into the base TCSC metric.
    pub fn temporal_only() -> Self {
        Self::new(0.0, 1.0)
    }

    /// Weights from a temporal ratio `w_t ∈ [0, 1]` (the x-axis of
    /// Fig. 11(c)).
    pub fn from_temporal_ratio(temporal: f64) -> Self {
        assert!((0.0..=1.0).contains(&temporal), "w_t must lie in [0, 1]");
        Self::new(1.0 - temporal, temporal)
    }
}

impl Default for InterpolationWeights {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// An executed subtask of some *other* task during the same time slot, used as
/// a spatial interpolation source.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SpatialSource {
    task: usize,
    location: Location,
    reliability: f64,
}

/// Quality evaluator for a *set* of TCSC tasks under spatiotemporal
/// interpolation.
///
/// Task are addressed by their index in the task set (0-based).  Every task
/// must have the same number of slots `m`; the spatial domain is needed for
/// the `|D|` normalisation of spatial distances.
#[derive(Debug, Clone)]
pub struct SpatioTemporalEvaluator {
    params: QualityParams,
    weights: InterpolationWeights,
    domain_size: f64,
    /// Task locations, indexed by task index.
    locations: Vec<Location>,
    /// Per-task temporal evaluators.
    temporal: Vec<QualityEvaluator>,
    /// Per-slot executed subtasks across all tasks (spatial sources).
    by_slot: Vec<Vec<SpatialSource>>,
}

impl SpatioTemporalEvaluator {
    /// Creates an evaluator for tasks at `locations`, each with
    /// `params.num_slots` slots, in `domain`, using `weights`.
    pub fn new(
        locations: Vec<Location>,
        params: QualityParams,
        domain: Domain,
        weights: InterpolationWeights,
    ) -> Self {
        let diagonal = domain.diagonal();
        assert!(diagonal > 0.0, "domain must have a positive extent");
        let temporal = locations
            .iter()
            .map(|_| QualityEvaluator::new(params))
            .collect();
        Self {
            params,
            weights,
            domain_size: diagonal,
            by_slot: vec![Vec::new(); params.num_slots],
            locations,
            temporal,
        }
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.locations.len()
    }

    /// Number of slots per task.
    pub fn num_slots(&self) -> usize {
        self.params.num_slots
    }

    /// The interpolation weights in use.
    pub fn weights(&self) -> InterpolationWeights {
        self.weights
    }

    /// The per-task temporal evaluator (read-only), mainly for tests and the
    /// assignment algorithms' bookkeeping.
    pub fn temporal(&self, task: usize) -> &QualityEvaluator {
        &self.temporal[task]
    }

    /// Whether the subtask `(task, slot)` has been executed.
    pub fn is_executed(&self, task: usize, slot: SlotIndex) -> bool {
        self.temporal[task].is_executed(slot)
    }

    /// Marks subtask `(task, slot)` as executed by a worker with reliability
    /// `λ`.  Returns `false` if it was already executed.
    pub fn execute(&mut self, task: usize, slot: SlotIndex, reliability: f64) -> bool {
        if !self.temporal[task].execute_with_reliability(slot, reliability) {
            return false;
        }
        self.by_slot[slot].push(SpatialSource {
            task,
            location: self.locations[task],
            reliability,
        });
        true
    }

    /// Spatial error ratio of subtask `(task, slot)` (Eq. 13): inverse
    /// distance interpolation from the `k` spatially nearest subtasks executed
    /// during the same slot by other tasks (plus the optional tentative
    /// execution `extra`), with distances normalised by the domain size.
    fn spatial_error_ratio_with_extra(
        &self,
        task: usize,
        slot: SlotIndex,
        extra: Option<(usize, f64)>,
    ) -> f64 {
        if self.temporal[task].is_executed(slot) {
            return 0.0;
        }
        if let Some((t, _)) = extra {
            if t == task {
                return 0.0;
            }
        }
        let k = self.params.k;
        let my_loc = self.locations[task];
        // Gather candidate sources: executed subtasks of other tasks at this
        // slot, plus the optional tentative execution.
        let mut dists: Vec<(f64, f64)> = self.by_slot[slot]
            .iter()
            .filter(|s| s.task != task)
            .map(|s| (my_loc.distance(&s.location), s.reliability))
            .collect();
        if let Some((t, reliability)) = extra {
            if t != task && !self.temporal[t].is_executed(slot) {
                dists.push((my_loc.distance(&self.locations[t]), reliability));
            }
        }
        if dists.is_empty() {
            return 1.0;
        }
        dists.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut sum = 0.0;
        for i in 0..k {
            match dists.get(i) {
                // Distances are clamped to |D| so that the ratio stays ≤ 1
                // even for locations on the domain boundary.
                Some(&(d, lambda)) => sum += lambda * d.min(self.domain_size),
                // Padding: missing neighbours count with the largest possible
                // spatial distance |D|.
                None => sum += self.domain_size,
            }
        }
        sum / (k as f64 * self.domain_size)
    }

    /// Combined error ratio `w_s·ρ_s + w_t·ρ_t` of subtask `(task, slot)`.
    pub fn error_ratio(&self, task: usize, slot: SlotIndex) -> f64 {
        self.error_ratio_with_extra(task, slot, None)
    }

    fn error_ratio_with_extra(
        &self,
        task: usize,
        slot: SlotIndex,
        extra: Option<(usize, SlotIndex, f64)>,
    ) -> f64 {
        let temporal_extra = extra.and_then(|(t, s, lambda)| {
            (t == task).then_some(ExecutedSlot {
                slot: s,
                reliability: lambda,
            })
        });
        let spatial_extra = extra.and_then(|(t, s, lambda)| (s == slot).then_some((t, lambda)));
        let rho_t = self.temporal[task].error_ratio_with_extra(slot, temporal_extra);
        let rho_s = self.spatial_error_ratio_with_extra(task, slot, spatial_extra);
        self.weights.spatial * rho_s + self.weights.temporal * rho_t
    }

    /// Finishing probability of subtask `(task, slot)` under spatiotemporal
    /// interpolation.
    pub fn finishing_probability(&self, task: usize, slot: SlotIndex) -> f64 {
        self.finishing_probability_with_extra(task, slot, None)
    }

    fn finishing_probability_with_extra(
        &self,
        task: usize,
        slot: SlotIndex,
        extra: Option<(usize, SlotIndex, f64)>,
    ) -> f64 {
        let m = self.params.num_slots as f64;
        if let Some(lambda) = self.temporal[task].reliability_of(slot) {
            return lambda / m;
        }
        if let Some((t, s, lambda)) = extra {
            if t == task && s == slot {
                return lambda / m;
            }
        }
        // Zero knowledge: nothing executed anywhere that could interpolate
        // this subtask, neither temporally nor spatially.
        let has_temporal = self.temporal[task].executed_len() > 0
            || extra.map(|(t, _, _)| t == task).unwrap_or(false);
        let has_spatial = self.by_slot[slot].iter().any(|s| s.task != task)
            || extra
                .map(|(t, s, _)| t != task && s == slot)
                .unwrap_or(false);
        if !has_temporal && !has_spatial {
            return 0.0;
        }
        let rho = self.error_ratio_with_extra(task, slot, extra);
        ((1.0 - rho) / m).max(0.0)
    }

    /// Partial quality `−p·log2 p` of subtask `(task, slot)`.
    pub fn partial_quality(&self, task: usize, slot: SlotIndex) -> f64 {
        self.partial_quality_with_extra(task, slot, None)
    }

    fn partial_quality_with_extra(
        &self,
        task: usize,
        slot: SlotIndex,
        extra: Option<(usize, SlotIndex, f64)>,
    ) -> f64 {
        let p = self.finishing_probability_with_extra(task, slot, extra);
        if p <= 0.0 {
            0.0
        } else {
            -p * p.log2()
        }
    }

    /// Quality `q(τ_i)` of one task under spatiotemporal interpolation.
    pub fn task_quality(&self, task: usize) -> f64 {
        (0..self.params.num_slots)
            .map(|j| self.partial_quality(task, j))
            .sum()
    }

    /// Summation quality `q_sum(T)` over all tasks.
    pub fn sum_quality(&self) -> f64 {
        (0..self.num_tasks()).map(|i| self.task_quality(i)).sum()
    }

    /// Minimum quality `q_min(T)` over all tasks (zero for an empty set).
    pub fn min_quality(&self) -> f64 {
        let min = (0..self.num_tasks())
            .map(|i| self.task_quality(i))
            .fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            min
        } else {
            0.0
        }
    }

    /// Gain in **summation quality** of tentatively executing `(task, slot)`
    /// with reliability `λ`.
    ///
    /// The tentative execution affects the task itself (temporal component)
    /// and, through the spatial component, every other task's subtask at the
    /// same slot.
    pub fn sum_gain_if_executed(&self, task: usize, slot: SlotIndex, reliability: f64) -> f64 {
        if self.is_executed(task, slot) {
            return 0.0;
        }
        // Temporal effect: every slot of the same task may change.
        let mut gain = self.task_gain_if_executed(task, slot, reliability);
        // Spatial effect: other tasks' subtasks at the same slot.
        let extra = Some((task, slot, reliability));
        for other in (0..self.num_tasks()).filter(|&other| other != task) {
            gain += self.partial_quality_with_extra(other, slot, extra)
                - self.partial_quality(other, slot);
        }
        gain
    }

    /// Gain in the quality of a *single* task of tentatively executing
    /// `(task, slot)` (used by the max-min objective).
    pub fn task_gain_if_executed(&self, task: usize, slot: SlotIndex, reliability: f64) -> f64 {
        if self.is_executed(task, slot) {
            return 0.0;
        }
        let extra = Some((task, slot, reliability));
        let mut gain = 0.0;
        for j in 0..self.params.num_slots {
            gain += self.partial_quality_with_extra(task, j, extra) - self.partial_quality(task, j);
        }
        gain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evaluator(
        num_tasks: usize,
        m: usize,
        weights: InterpolationWeights,
    ) -> SpatioTemporalEvaluator {
        let domain = Domain::square(100.0);
        let locations: Vec<_> = (0..num_tasks)
            .map(|i| Location::new(10.0 * i as f64, 10.0 * i as f64))
            .collect();
        SpatioTemporalEvaluator::new(locations, QualityParams::new(m, 2), domain, weights)
    }

    #[test]
    fn weights_validation() {
        let w = InterpolationWeights::paper_default();
        assert!((w.spatial - 0.3).abs() < 1e-12);
        assert!((w.temporal - 0.7).abs() < 1e-12);
        let t = InterpolationWeights::from_temporal_ratio(0.25);
        assert!((t.spatial - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn weights_must_sum_to_one() {
        let _ = InterpolationWeights::new(0.5, 0.6);
    }

    #[test]
    fn temporal_only_matches_base_metric() {
        let mut st = evaluator(3, 20, InterpolationWeights::temporal_only());
        let mut base = QualityEvaluator::with_slots(20, 2);
        for slot in [2, 9, 15] {
            st.execute(0, slot, 1.0);
            base.execute(slot);
        }
        // Executions on other tasks must not influence task 0 when w_s = 0.
        st.execute(1, 4, 1.0);
        for j in 0..20 {
            assert!(
                (st.finishing_probability(0, j) - base.finishing_probability(j)).abs() < 1e-12,
                "slot {j}"
            );
        }
        assert!((st.task_quality(0) - base.quality()).abs() < 1e-9);
    }

    #[test]
    fn spatial_interpolation_adds_information() {
        let w = InterpolationWeights::paper_default();
        let mut with_spatial = evaluator(2, 10, w);
        let mut temporal_only = evaluator(2, 10, InterpolationWeights::temporal_only());
        // Execute slot 3 on task 1 only; task 0's slot 3 is spatially
        // interpolated in the first evaluator.
        with_spatial.execute(1, 3, 1.0);
        temporal_only.execute(1, 3, 1.0);
        assert!(with_spatial.finishing_probability(0, 3) > 0.0);
        assert_eq!(temporal_only.finishing_probability(0, 3), 0.0);
        // Task 0 (which executed nothing) gains information purely from the
        // spatial component.
        assert!(with_spatial.task_quality(0) > temporal_only.task_quality(0));
    }

    #[test]
    fn spatial_error_decreases_with_proximity() {
        let w = InterpolationWeights::new(1.0, 0.0);
        let domain = Domain::square(100.0);
        let locations = vec![
            Location::new(0.0, 0.0),
            Location::new(5.0, 0.0),
            Location::new(90.0, 90.0),
        ];
        let mut near =
            SpatioTemporalEvaluator::new(locations.clone(), QualityParams::new(10, 1), domain, w);
        let mut far = SpatioTemporalEvaluator::new(locations, QualityParams::new(10, 1), domain, w);
        near.execute(1, 2, 1.0); // 5 units away from task 0
        far.execute(2, 2, 1.0); // ~127 units away (clamped to |D|)
        assert!(
            near.spatial_error_ratio_with_extra(0, 2, None)
                < far.spatial_error_ratio_with_extra(0, 2, None)
        );
        assert!(far.spatial_error_ratio_with_extra(0, 2, None) <= 1.0);
    }

    #[test]
    fn executed_subtask_has_zero_error() {
        let mut st = evaluator(2, 10, InterpolationWeights::paper_default());
        st.execute(0, 5, 1.0);
        assert_eq!(st.error_ratio(0, 5), 0.0);
        assert_eq!(st.spatial_error_ratio_with_extra(0, 5, None), 0.0);
        assert!((st.finishing_probability(0, 5) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn sum_gain_matches_execute_then_recompute() {
        let mut st = evaluator(3, 12, InterpolationWeights::paper_default());
        st.execute(0, 2, 1.0);
        st.execute(1, 7, 1.0);
        let before = st.sum_quality();
        let gain = st.sum_gain_if_executed(2, 7, 1.0);
        st.execute(2, 7, 1.0);
        let after = st.sum_quality();
        assert!(
            (after - before - gain).abs() < 1e-9,
            "gain {gain} vs delta {}",
            after - before
        );
    }

    #[test]
    fn sum_quality_is_monotone() {
        let mut st = evaluator(3, 15, InterpolationWeights::paper_default());
        let mut last = st.sum_quality();
        for (task, slot) in [(0, 3), (1, 3), (2, 10), (0, 12), (1, 0)] {
            st.execute(task, slot, 1.0);
            let q = st.sum_quality();
            assert!(q >= last - 1e-9, "sum quality decreased: {last} -> {q}");
            last = q;
        }
    }

    #[test]
    fn min_quality_of_empty_set_is_zero() {
        let st = evaluator(0, 5, InterpolationWeights::paper_default());
        assert_eq!(st.min_quality(), 0.0);
        assert_eq!(st.sum_quality(), 0.0);
    }

    #[test]
    fn double_execute_rejected() {
        let mut st = evaluator(2, 10, InterpolationWeights::paper_default());
        assert!(st.execute(0, 1, 1.0));
        assert!(!st.execute(0, 1, 1.0));
    }

    #[test]
    fn task_gain_ignores_other_tasks() {
        let mut st = evaluator(2, 10, InterpolationWeights::paper_default());
        st.execute(1, 4, 1.0);
        let before = st.task_quality(0);
        let gain = st.task_gain_if_executed(0, 4, 1.0);
        st.execute(0, 4, 1.0);
        let after = st.task_quality(0);
        assert!((after - before - gain).abs() < 1e-9);
    }
}
