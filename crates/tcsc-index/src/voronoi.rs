//! Exact one-dimensional order-k Voronoi diagram over the executed slots of a
//! task (Section III-C of the paper).
//!
//! The timeline of a task is the one-dimensional interval `[0, m)`.  The
//! executed slots act as Voronoi *sites*; an order-k Voronoi cell is a maximal
//! interval of slots that share the same set of k nearest executed slots.  The
//! paper uses the diagram to exploit the *locality* of k-NN searching: within
//! a cell, interpolation results (and therefore finishing probabilities) are
//! identical functions of the same neighbour set, so they can be reused.
//!
//! This module provides the exact diagram; the `vtree` module provides the
//! approximated, tree-indexed version that the `Approx*` algorithm uses.

use tcsc_core::quality::QualityEvaluator;
use tcsc_core::SlotIndex;

/// A single order-k Voronoi cell: an interval of slots sharing one k-NN set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoronoiCell {
    /// First slot of the cell (inclusive).
    pub start: SlotIndex,
    /// Last slot of the cell (inclusive).
    pub end: SlotIndex,
    /// The shared k-NN result: executed slots sorted ascending.  Contains
    /// fewer than `k` entries when fewer than `k` slots have been executed.
    pub neighbors: Vec<SlotIndex>,
}

impl VoronoiCell {
    /// Number of slots covered by the cell.
    pub fn len(&self) -> usize {
        self.end - self.start + 1
    }

    /// Whether the cell is empty (never true for cells produced by
    /// [`OrderKVoronoi::build`]).
    pub fn is_empty(&self) -> bool {
        self.end < self.start
    }

    /// Whether a slot belongs to the cell.
    pub fn contains(&self, slot: SlotIndex) -> bool {
        (self.start..=self.end).contains(&slot)
    }
}

/// The exact order-k Voronoi diagram of a task's executed slots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKVoronoi {
    cells: Vec<VoronoiCell>,
    k: usize,
    num_slots: usize,
}

/// The k-NN *site set* of a slot: the k nearest executed slots, where an
/// executed slot is considered its own nearest neighbour (distance zero), as
/// in a classical Voronoi diagram of sites.  Returns fewer than `k` slots when
/// fewer than `k` slots are executed.  The result is sorted ascending.
pub fn site_knn_set(evaluator: &QualityEvaluator, slot: SlotIndex, k: usize) -> Vec<SlotIndex> {
    let executed = evaluator.executed();
    if executed.is_empty() {
        return Vec::new();
    }
    // Two-pointer outward walk over the sorted executed slots, including the
    // query slot itself when executed.
    let pos = executed
        .binary_search_by_key(&slot, |e| e.slot)
        .unwrap_or_else(|p| p);
    let mut left: isize = pos as isize - 1;
    let mut right: usize = pos;
    let mut result = Vec::with_capacity(k);
    while result.len() < k && (left >= 0 || right < executed.len()) {
        let left_d = (left >= 0).then(|| executed[left as usize].slot.abs_diff(slot));
        let right_d = (right < executed.len()).then(|| executed[right].slot.abs_diff(slot));
        match (left_d, right_d) {
            (Some(ld), Some(rd)) => {
                // Ties go to the earlier (left) slot for determinism.
                if ld <= rd {
                    result.push(executed[left as usize].slot);
                    left -= 1;
                } else {
                    result.push(executed[right].slot);
                    right += 1;
                }
            }
            (Some(_), None) => {
                result.push(executed[left as usize].slot);
                left -= 1;
            }
            (None, Some(_)) => {
                result.push(executed[right].slot);
                right += 1;
            }
            (None, None) => break,
        }
    }
    result.sort_unstable();
    result
}

impl OrderKVoronoi {
    /// Builds the exact diagram for the current executed-slot set of
    /// `evaluator`, using the evaluator's own `k`.
    pub fn build(evaluator: &QualityEvaluator) -> Self {
        let (m, k) = (evaluator.num_slots(), evaluator.k());
        let mut cells: Vec<VoronoiCell> = Vec::new();
        for slot in 0..m {
            let neighbors = site_knn_set(evaluator, slot, k);
            match cells.last_mut() {
                Some(cell) if cell.neighbors == neighbors => cell.end = slot,
                _ => cells.push(VoronoiCell {
                    start: slot,
                    end: slot,
                    neighbors,
                }),
            }
        }
        Self {
            cells,
            k,
            num_slots: m,
        }
    }

    /// The Voronoi cells in timeline order.
    pub fn cells(&self) -> &[VoronoiCell] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the diagram has no cells (only for `m == 0`, which cannot be
    /// constructed through [`QualityEvaluator`]).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The order `k` of the diagram.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of slots covered.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// The cell containing `slot`.
    pub fn cell_of(&self, slot: SlotIndex) -> Option<&VoronoiCell> {
        // Cells are sorted and contiguous; binary search on start.
        let idx = self
            .cells
            .partition_point(|c| c.start <= slot)
            .checked_sub(1)?;
        let cell = &self.cells[idx];
        cell.contains(slot).then_some(cell)
    }

    /// The shared k-NN set of the cell containing `slot` (constant-time k-NN
    /// lookup once the diagram is built).
    pub fn knn_of(&self, slot: SlotIndex) -> Option<&[SlotIndex]> {
        self.cell_of(slot).map(|c| c.neighbors.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evaluator(m: usize, k: usize, executed: &[usize]) -> QualityEvaluator {
        let mut ev = QualityEvaluator::with_slots(m, k);
        for &s in executed {
            ev.execute(s);
        }
        ev
    }

    #[test]
    fn empty_execution_yields_single_cell_with_no_neighbors() {
        let ev = evaluator(10, 2, &[]);
        let vd = OrderKVoronoi::build(&ev);
        assert_eq!(vd.len(), 1);
        assert_eq!(vd.cells()[0].start, 0);
        assert_eq!(vd.cells()[0].end, 9);
        assert!(vd.cells()[0].neighbors.is_empty());
    }

    #[test]
    fn fig3_cells_match_paper() {
        // Fig. 3 (c): k = 2, executed (1-based) {2, 4, 7, 9}.  The first cell
        // V(τ(2), τ(4)) covers 1-based slots 1..=4.
        let ev = evaluator(100, 2, &[1, 3, 6, 8]);
        let vd = OrderKVoronoi::build(&ev);
        let first = vd.cell_of(0).unwrap();
        assert_eq!(first.start, 0);
        assert_eq!(first.end, 3);
        assert_eq!(first.neighbors, vec![1, 3]);
        // Slots 1-based 5..=?: V(τ(4), τ(7)) etc.  Verify each slot's cell
        // neighbours match a direct site k-NN query.
        for slot in 0..100 {
            assert_eq!(
                vd.knn_of(slot).unwrap(),
                site_knn_set(&ev, slot, 2).as_slice(),
                "slot {slot}"
            );
        }
    }

    #[test]
    fn cells_partition_the_timeline() {
        let ev = evaluator(60, 3, &[5, 12, 13, 40, 55]);
        let vd = OrderKVoronoi::build(&ev);
        let mut covered = 0usize;
        let mut next = 0usize;
        for cell in vd.cells() {
            assert_eq!(cell.start, next, "cells must be contiguous");
            assert!(cell.end >= cell.start);
            assert!(!cell.is_empty());
            covered += cell.len();
            next = cell.end + 1;
        }
        assert_eq!(covered, 60);
        assert_eq!(next, 60);
    }

    #[test]
    fn cell_count_is_bounded_by_k_times_sites() {
        // The average number of order-k cells is O(k (n_sites)) in 1D.
        let executed: Vec<usize> = (0..20).map(|i| i * 7 % 100).collect();
        let ev = evaluator(100, 3, &executed);
        let vd = OrderKVoronoi::build(&ev);
        assert!(vd.len() <= 3 * 20 + 1, "got {} cells", vd.len());
    }

    #[test]
    fn lemma8_same_endpoint_knn_implies_same_cell() {
        // Lemma 8: if knn(l) == knn(r) then every slot in [l, r] has the same
        // k-NN set.
        let ev = evaluator(80, 2, &[10, 30, 31, 60]);
        let vd = OrderKVoronoi::build(&ev);
        // Sanity: the diagram itself satisfies the lemma cell by cell.
        for cell in vd.cells() {
            assert_eq!(
                site_knn_set(&ev, cell.start, 2),
                site_knn_set(&ev, cell.end, 2)
            );
        }
        for l in 0..80 {
            for r in l..80 {
                let kl = site_knn_set(&ev, l, 2);
                let kr = site_knn_set(&ev, r, 2);
                if kl == kr {
                    for e in l..=r {
                        assert_eq!(site_knn_set(&ev, e, 2), kl, "l={l} r={r} e={e}");
                    }
                }
                // Keep the quadratic loop small.
                if r > l + 20 {
                    break;
                }
            }
        }
    }

    #[test]
    fn site_is_its_own_nearest_neighbor() {
        let ev = evaluator(30, 1, &[4, 20]);
        assert_eq!(site_knn_set(&ev, 4, 1), vec![4]);
        assert_eq!(site_knn_set(&ev, 20, 1), vec![20]);
        assert_eq!(site_knn_set(&ev, 10, 1), vec![4]);
        assert_eq!(site_knn_set(&ev, 13, 1), vec![20]);
    }

    #[test]
    fn fewer_sites_than_k_returns_all_sites() {
        let ev = evaluator(30, 5, &[4, 20]);
        assert_eq!(site_knn_set(&ev, 0, 5), vec![4, 20]);
    }

    #[test]
    fn cell_of_out_of_range_is_none() {
        let ev = evaluator(10, 2, &[3]);
        let vd = OrderKVoronoi::build(&ev);
        assert!(vd.cell_of(10).is_none());
        assert!(vd.cell_of(9).is_some());
    }
}
