//! Property-based tests of the entropy quality metric.
//!
//! These properties mirror the paper's Lemmas:
//! * Lemma 7: the finishing probability function is non-decreasing in the set
//!   of executed subtasks;
//! * Lemma 6: the finishing probability function is submodular;
//! * Lemma 2: the task quality `q` is non-decreasing and submodular.
//!
//! The entropy-composition argument requires `p ≤ 1/e`, which holds whenever
//! `m ≥ 3`; the generators below therefore use `m ≥ 4`.
//!
//! Each property is checked over a seeded stream of random instances (the
//! workspace vendors a deterministic `rand`, so failures are reproducible
//! from the case index alone).

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcsc_core::quality::{ExecutedSlot, Neighbor, QualityEvaluator};

/// Number of random cases checked per property.
const CASES: usize = 400;

/// Builds an evaluator with the given executed slots.
fn evaluator(m: usize, k: usize, executed: &BTreeSet<usize>) -> QualityEvaluator {
    let mut ev = QualityEvaluator::with_slots(m, k);
    for &s in executed {
        ev.execute(s);
    }
    ev
}

/// Generates one random instance: (m, k, executed-set, candidate slot).
fn instance(rng: &mut StdRng) -> (usize, usize, BTreeSet<usize>, usize) {
    let m = rng.gen_range(4usize..60);
    let k = rng.gen_range(1usize..6);
    let set_size = rng.gen_range(0..m.min(12));
    // Partial Fisher-Yates: draw exactly `set_size` *distinct* slots so the
    // set-size distribution matches the drawn size (duplicates would skew
    // small-m instances away from near-maximal executed sets).
    let mut slots: Vec<usize> = (0..m).collect();
    for i in 0..set_size {
        let j = rng.gen_range(i..m);
        slots.swap(i, j);
    }
    let executed: BTreeSet<usize> = slots[..set_size].iter().copied().collect();
    let extra = rng.gen_range(0..m);
    (m, k, executed, extra)
}

/// Executing one more subtask never decreases any finishing probability
/// (Lemma 7), and never decreases the task quality (Lemma 2).
#[test]
fn quality_and_probability_are_monotone() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for case in 0..CASES {
        let (m, k, executed, extra) = instance(&mut rng);
        let base = evaluator(m, k, &executed);
        let mut more = base.clone();
        more.execute(extra);

        for j in 0..m {
            assert!(
                more.finishing_probability(j) + 1e-12 >= base.finishing_probability(j),
                "case {case}: p({j}) decreased after executing {extra}"
            );
        }
        assert!(
            more.quality() + 1e-9 >= base.quality(),
            "case {case}: quality decreased"
        );
    }
}

/// Submodularity / diminishing returns of the quality function (Lemma 2):
/// for executed sets A ⊆ B and a slot e ∉ B,
/// q(A ∪ {e}) − q(A) ≥ q(B ∪ {e}) − q(B).
#[test]
fn quality_has_diminishing_returns() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let mut checked = 0usize;
    while checked < CASES {
        let (m, k, set_b, extra) = instance(&mut rng);
        if set_b.contains(&extra) {
            continue;
        }
        checked += 1;
        // A is a random subset of B.
        let set_a: BTreeSet<usize> = set_b
            .iter()
            .filter(|_| rng.gen_bool(0.5))
            .copied()
            .collect();

        let a = evaluator(m, k, &set_a);
        let b = evaluator(m, k, &set_b);
        let gain_a = a.gain_if_executed(extra);
        let gain_b = b.gain_if_executed(extra);
        assert!(
            gain_a + 1e-9 >= gain_b,
            "case {checked}: marginal gain grew on the superset: \
             A-gain {gain_a} < B-gain {gain_b}"
        );
    }
}

/// The error ratio stays within [0, 1] and the finishing probability within
/// [0, 1/m] for every slot, regardless of the executed set.
#[test]
fn metric_values_stay_in_range() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    for case in 0..CASES {
        let (m, k, executed, _extra) = instance(&mut rng);
        let ev = evaluator(m, k, &executed);
        for j in 0..m {
            let rho = ev.error_ratio(j);
            let p = ev.finishing_probability(j);
            assert!(
                (0.0..=1.0 + 1e-12).contains(&rho),
                "case {case}: rho({j}) = {rho}"
            );
            assert!(
                p >= 0.0 && p <= 1.0 / m as f64 + 1e-12,
                "case {case}: p({j}) = {p}"
            );
        }
        let q = ev.quality();
        assert!(
            q >= 0.0 && q <= (m as f64).log2() + 1e-9,
            "case {case}: q = {q}"
        );
    }
}

/// The incremental gain computation agrees with executing the slot and
/// recomputing the quality from scratch.
#[test]
fn gain_is_consistent_with_recomputation() {
    let mut rng = StdRng::seed_from_u64(0xD00D);
    let mut checked = 0usize;
    while checked < CASES {
        let (m, k, executed, extra) = instance(&mut rng);
        if executed.contains(&extra) {
            continue;
        }
        checked += 1;
        let mut ev = evaluator(m, k, &executed);
        let before = ev.quality();
        let gain = ev.gain_if_executed(extra);
        ev.execute(extra);
        let after = ev.quality();
        assert!(
            (after - before - gain).abs() < 1e-9,
            "case {checked}: incremental gain {gain} disagrees with \
             recomputed {}",
            after - before
        );
    }
}

/// Executing every slot always yields exactly log2(m), independent of the
/// execution order.
#[test]
fn full_execution_reaches_maximum() {
    let mut rng = StdRng::seed_from_u64(0xF00);
    for case in 0..CASES {
        let m = rng.gen_range(4usize..40);
        let k = rng.gen_range(1usize..6);
        // Fisher-Yates shuffle of the execution order.
        let mut order: Vec<usize> = (0..m).collect();
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut ev = QualityEvaluator::with_slots(m, k);
        for s in order {
            ev.execute(s);
        }
        assert!(
            (ev.quality() - (m as f64).log2()).abs() < 1e-9,
            "case {case}: full execution missed the maximum"
        );
    }
}

/// Worker reliability weighting: lowering the reliability of the executing
/// workers never increases the quality.
#[test]
fn reliability_weighting_is_monotone() {
    let mut rng = StdRng::seed_from_u64(0xFADE);
    for case in 0..CASES {
        let (m, k, executed, _extra) = instance(&mut rng);
        let lambda = rng.gen_range(0.05f64..1.0);
        let full = evaluator(m, k, &executed);
        let mut weighted = QualityEvaluator::with_slots(m, k);
        for &s in &executed {
            weighted.execute_with_reliability(s, lambda);
        }
        assert!(
            weighted.quality() <= full.quality() + 1e-9,
            "case {case}: reliability {lambda} increased quality"
        );
    }
}

/// The allocating k-NN walk and the plain iterator sums the evaluator used
/// before its neighbour walk became allocation-free and its unit-reliability
/// entropy term became a table lookup.  The evaluator must reproduce every
/// value bit for bit.
mod reference {
    use super::*;

    pub fn knn_with_extra(
        ev: &QualityEvaluator,
        slot: usize,
        extra: Option<ExecutedSlot>,
    ) -> Vec<Neighbor> {
        let executed = ev.executed();
        let k = ev.k();
        let m = ev.num_slots();
        let mut result: Vec<Neighbor> = Vec::with_capacity(k);
        let pos = executed
            .binary_search_by_key(&slot, |e| e.slot)
            .unwrap_or_else(|p| p);
        let mut left: isize = pos as isize - 1;
        let mut right: usize = pos;
        if right < executed.len() && executed[right].slot == slot {
            right += 1;
        }
        let mut extra = extra.filter(|e| e.slot != slot);
        while result.len() < k {
            let left_cand = (left >= 0).then(|| executed[left as usize]);
            let right_cand = (right < executed.len()).then(|| executed[right]);
            let mut best: Option<(usize, ExecutedSlot, u8)> = None;
            for (cand, tag) in [(left_cand, 0u8), (right_cand, 1u8), (extra, 2u8)] {
                if let Some(e) = cand {
                    let d = e.slot.abs_diff(slot);
                    let better = match best {
                        None => true,
                        Some((bd, be, _)) => d < bd || (d == bd && e.slot < be.slot),
                    };
                    if better {
                        best = Some((d, e, tag));
                    }
                }
            }
            match best {
                Some((d, e, tag)) => {
                    result.push(Neighbor {
                        slot: Some(e.slot),
                        distance: d,
                        reliability: e.reliability,
                    });
                    match tag {
                        0 => left -= 1,
                        1 => {
                            right += 1;
                            if right < executed.len() && executed[right].slot == slot {
                                right += 1;
                            }
                        }
                        _ => extra = None,
                    }
                }
                None => result.push(Neighbor {
                    slot: None,
                    distance: m,
                    reliability: 1.0,
                }),
            }
        }
        result
    }

    fn xlog2x(x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            x * x.log2()
        }
    }

    pub fn error_ratio_with_extra(
        ev: &QualityEvaluator,
        slot: usize,
        extra: Option<ExecutedSlot>,
    ) -> f64 {
        if ev.is_executed(slot) || extra.map(|e| e.slot) == Some(slot) {
            return 0.0;
        }
        if ev.executed().is_empty() && extra.is_none() {
            return 1.0;
        }
        let k = ev.k() as f64;
        let m = ev.num_slots() as f64;
        knn_with_extra(ev, slot, extra)
            .iter()
            .map(|n| n.reliability * n.distance as f64)
            .sum::<f64>()
            / (k * m)
    }

    pub fn finishing_probability_with_extra(
        ev: &QualityEvaluator,
        slot: usize,
        extra: Option<ExecutedSlot>,
    ) -> f64 {
        let m = ev.num_slots() as f64;
        if let Some(lambda) = ev.reliability_of(slot) {
            return lambda / m;
        }
        if let Some(e) = extra {
            if e.slot == slot {
                return e.reliability / m;
            }
        }
        if ev.executed().is_empty() && extra.is_none() {
            return 0.0;
        }
        let k = ev.k() as f64;
        let neighbors = knn_with_extra(ev, slot, extra);
        let avg_reliability = neighbors.iter().map(|n| n.reliability).sum::<f64>() / k;
        let rho = neighbors
            .iter()
            .map(|n| n.reliability * n.distance as f64)
            .sum::<f64>()
            / (k * m);
        ((avg_reliability - rho) / m).max(0.0)
    }

    pub fn partial_quality_with_extra(
        ev: &QualityEvaluator,
        slot: usize,
        extra: Option<ExecutedSlot>,
    ) -> f64 {
        -xlog2x(finishing_probability_with_extra(ev, slot, extra))
    }

    pub fn quality(ev: &QualityEvaluator) -> f64 {
        (0..ev.num_slots())
            .map(|j| partial_quality_with_extra(ev, j, None))
            .sum()
    }
}

/// Asserts that every per-slot value and the total quality of `ev` equal
/// the reference bit for bit, for each tentative execution in `extras`.
fn assert_matches_reference(ev: &QualityEvaluator, extras: &[Option<ExecutedSlot>], what: &str) {
    for &extra in extras {
        for j in 0..ev.num_slots() {
            let ctx = || {
                format!(
                    "{what}: slot {j}, extra {extra:?}, executed {:?}",
                    ev.executed()
                )
            };
            assert_eq!(
                ev.knn_with_extra(j, extra),
                reference::knn_with_extra(ev, j, extra),
                "{}",
                ctx()
            );
            assert_eq!(
                ev.partial_quality_with_extra(j, extra).to_bits(),
                reference::partial_quality_with_extra(ev, j, extra).to_bits(),
                "partial quality, {}",
                ctx()
            );
            assert_eq!(
                ev.finishing_probability_with_extra(j, extra).to_bits(),
                reference::finishing_probability_with_extra(ev, j, extra).to_bits(),
                "finishing probability, {}",
                ctx()
            );
            assert_eq!(
                ev.error_ratio_with_extra(j, extra).to_bits(),
                reference::error_ratio_with_extra(ev, j, extra).to_bits(),
                "error ratio, {}",
                ctx()
            );
        }
    }
    assert_eq!(
        ev.quality().to_bits(),
        reference::quality(ev).to_bits(),
        "quality, {what}: executed {:?}",
        ev.executed()
    );
}

/// The allocation-free walk and the unit-reliability table reproduce the
/// allocating reference to the bit: `m ∈ 1..=128`, `k ∈ 1..=5` (including
/// `k > m`), executed sets from empty to full, unit and mixed reliabilities,
/// and a tentative execution that is absent, fully reliable, partly reliable
/// or on an executed slot.  Mixed cases then unexecute their non-unit slots
/// one by one, so the evaluator returns to the table path.
#[test]
fn evaluator_is_bit_identical_to_allocating_reference() {
    let mut rng = StdRng::seed_from_u64(0xB175);
    for case in 0..240 {
        // A quarter of the cases use tiny timelines, where `k > m` is common.
        let m = if case % 4 == 0 {
            rng.gen_range(1usize..=6)
        } else {
            rng.gen_range(1usize..=128)
        };
        let k = rng.gen_range(1usize..=5);
        let mixed = case % 3 == 0;
        let executed_count = match case % 5 {
            0 => 0,
            1 => m,
            _ => rng.gen_range(0..=m),
        };
        let mut order: Vec<usize> = (0..m).collect();
        for i in 0..executed_count {
            let j = rng.gen_range(i..m);
            order.swap(i, j);
        }
        let mut ev = QualityEvaluator::with_slots(m, k);
        let mut non_unit = Vec::new();
        for &slot in &order[..executed_count] {
            let reliability = if mixed && rng.gen_bool(0.4) {
                // Include the boundary reliability 0.
                if rng.gen_bool(0.1) {
                    0.0
                } else {
                    rng.gen_range(0.05..1.0)
                }
            } else {
                1.0
            };
            ev.execute_with_reliability(slot, reliability);
            if reliability != 1.0 {
                non_unit.push(slot);
            }
        }
        let unexecuted = order.get(executed_count).copied();
        let executed = (executed_count > 0).then(|| order[0]);
        let extras = [
            None,
            unexecuted.map(|slot| ExecutedSlot {
                slot,
                reliability: 1.0,
            }),
            unexecuted.map(|slot| ExecutedSlot {
                slot,
                reliability: rng.gen_range(0.05..1.0),
            }),
            executed.map(|slot| ExecutedSlot {
                slot,
                reliability: 1.0,
            }),
        ];
        assert_matches_reference(&ev, &extras, &format!("case {case} (m={m}, k={k})"));
        while let Some(slot) = non_unit.pop() {
            assert!(ev.unexecute(slot));
            assert_matches_reference(
                &ev,
                &extras,
                &format!("case {case} (m={m}, k={k}) after unexecuting {slot}"),
            );
        }
    }
}
