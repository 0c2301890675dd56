//! Incremental-gain maintenance for the greedy commit loops.
//!
//! Every multi-task driver (the engine on either index, the task-parallel
//! master, the simulated cluster) repeatedly asks one question of a task: *"what
//! is your best affordable `(gain / cost)` execution right now?"*.  The
//! direct answer recomputes it from scratch on every call: a V-tree
//! best-first search (or a plain scan) over the whole candidate set, per
//! grant, per conflict, per budget-staleness invalidation.  That recompute
//! is the serial commit tail that caps the parallel engines' speedup.
//!
//! [`GainLedger`] replaces the recompute with a **per-task lazy max-structure
//! over the `(slot, worker)` candidate pairs**:
//!
//! * every feasible slot owns one live entry `(heuristic key, gain, cost,
//!   slot, worker)` in a max-heap ordered by `(key, slot asc)`; a slot is
//!   feasible when it is unexecuted, has a candidate worker and its exact
//!   gain is positive (a slot that cannot raise the quality is never
//!   offered);
//! * the first request builds the ledger with exact, fresh entries only: a
//!   task with no executions whose shape has a unit-reliability table reads
//!   its gains from one vector shared per shape, and every other task scores
//!   each slot exactly, so the first pop re-scores nothing;
//! * when a grant lands on *another* `(slot, worker)` pair, nothing here is
//!   touched — entries are only **patched** (re-scored and re-stamped) for
//!   the slots whose candidate actually changed: the conflict-loser refreshes
//!   that the reverse holder map already identifies;
//! * when a slot of *this* task executes, the task's gains shift, so the
//!   ledger bumps a **score version**: every entry key becomes a *stale upper
//!   bound* (the entropy quality metric has diminishing marginal gains — the
//!   same lazy-greedy justification the MMQM heap already relies on), and
//!   stale entries are **re-scored on pop**, exactly like a lazy-greedy
//!   priority queue;
//! * affordability never forces a re-score: an entry costing more than the
//!   query bound is dropped, since every driver asks a state with a bound
//!   that never rises (the remaining budget only shrinks) and so could never
//!   afford it again; a caller that does raise the bound above the last
//!   pop's gets a rebuilt ledger from [`crate::multi::TaskState`], so its
//!   answer stays exact;
//! * a query nothing can afford never reaches the ledger: when the V-tree's
//!   cheapest candidate (its root's minimum cost over unexecuted slots)
//!   exceeds the bound, [`crate::multi::TaskState`] answers `None` at once,
//!   instead of popping and dropping every entry one by one and re-scoring
//!   entries of executed slots only to find them dead;
//! * a stale top entry is re-keyed in place (`BinaryHeap::peek_mut`): the
//!   fresh score overwrites it and sifts down, with no pop and push.
//!
//! # Why the committed plan stays bit-identical
//!
//! The returned candidate's `gain` / `cost` / `heuristic` are produced by the
//! *same* scoring functions the full search uses (`VTree::gain` under
//! `use_index`, `QualityEvaluator::gain_if_executed` otherwise) evaluated at
//! the same state, so the values are the same `f64`s.  The selection is the
//! same argmax: stale keys only ever *over*-estimate (diminishing gains), so
//! popping until the top entry is freshly scored yields the true maximum, and
//! final comparisons use the exact `>` / `==` + lower-slot tie-break of the
//! full search.  Neither the early-out nor the in-place re-key changes a
//! returned candidate: the early-out answers only when every entry the pop
//! could reach is unaffordable or dead, and the entries' order is total, so
//! where an entry sits in the heap does not change what pops first.
//! Floating-point jitter can push a re-scored gain a few ULP
//! *above* its stale key; the pop loop therefore keeps re-scoring every entry
//! whose key is within a small margin (`RESCORE_MARGIN`) of the current
//! best — orders of magnitude wider than the observed jitter (~1e-15) and
//! narrower than any meaningful heuristic gap — before trusting the argmax.
//! Zero-cost candidates (`heuristic == INFINITY`) tie, and the ledger
//! breaks the tie to the lower slot, as the plain scan does.  The V-tree's
//! best-first search breaks it by its visit order instead, so with the index
//! on the caller hands such a request to [`tcsc_index::VTree::best_slot`]
//! (the zero-cost fallback; such candidates are executed at once, so it is
//! at most a handful of searches per task).  The differential fuzz suite
//! (`crates/tcsc-assign/tests/incremental_gain_fuzz.rs`) and the engine
//! equivalence suite pin the bit-identity against a test-local full search
//! across presets, budgets and threads.

use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use tcsc_core::{SlotIndex, WorkerId};

/// Re-score margin of the lazy pop: an entry whose stale key is within this
/// (relative + absolute) band of the current best is re-scored before the
/// argmax is trusted.  Wide enough to swallow the float jitter of re-scored
/// gains (observed ≤ 4e-15), narrow enough never to matter for real gaps.
const RESCORE_MARGIN: f64 = 1e-9;

/// One `(slot, worker)` candidate entry of the ledger.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GainEntry {
    /// Heuristic key `gain / cost` (`INFINITY` for zero-cost candidates).
    pub heuristic: f64,
    /// Quality gain at scoring time.
    pub gain: f64,
    /// Assignment cost at scoring time (exact while `slot_version` matches:
    /// costs only change through patches, which re-stamp the version).
    pub cost: f64,
    /// The slot this entry scores.
    pub slot: SlotIndex,
    /// The candidate worker at scoring time (diagnostic; the version stamp is
    /// what detects candidate changes).
    pub worker: WorkerId,
    /// Slot-version stamp: the entry is dead once the slot was patched.
    pub slot_version: u32,
    /// Score-version stamp: the entry is stale (key = upper bound) once the
    /// task executed another slot.
    pub scored_at: u32,
}

impl PartialEq for GainEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for GainEntry {}
impl PartialOrd for GainEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for GainEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: highest key first, ties to the *lower* slot (the serial
        // tie-break), then the version stamps for a total order.
        self.heuristic
            .total_cmp(&other.heuristic)
            .then_with(|| other.slot.cmp(&self.slot))
            .then_with(|| self.slot_version.cmp(&other.slot_version))
            .then_with(|| self.scored_at.cmp(&other.scored_at))
    }
}

/// What [`GainLedger::pop_best`] asks of an entry it is about to trust.
pub(crate) enum EntryState {
    /// The slot can no longer be a candidate (executed / candidate gone).
    Dead,
    /// The entry's key is stale; `rescore` carries the fresh score.
    Stale {
        /// Freshly computed `(gain, cost, heuristic)`.
        gain: f64,
        /// Current candidate cost.
        cost: f64,
        /// Current heuristic.
        heuristic: f64,
        /// Current candidate worker.
        worker: WorkerId,
    },
}

/// The per-task lazy max-structure over `(slot, worker)` candidate entries.
///
/// The ledger is a dumb container: scoring needs the task's evaluator, tree
/// and candidates, so [`crate::multi::TaskState`] drives it and hands in the
/// scores.  See the [module docs](self) for the maintenance protocol.
#[derive(Debug, Default)]
pub(crate) struct GainLedger {
    heap: BinaryHeap<GainEntry>,
    /// The bound of the last pop (`INFINITY` until the first pop after a
    /// build): entries costing more were dropped, so a larger bound needs a
    /// rebuild.
    bound: f64,
    /// Per-slot patch versions; entries stamped with an older version are
    /// dead.
    slot_versions: Vec<u32>,
    /// Bumped on every execution of this task; entries stamped older are
    /// stale upper bounds to be re-scored on pop.
    score_version: u32,
    built: bool,
}

impl GainLedger {
    /// An unbuilt ledger over `num_slots` slots (entries are installed by
    /// [`GainLedger::build`]).
    #[cfg(test)]
    pub(crate) fn new(num_slots: usize) -> Self {
        let mut ledger = Self::default();
        ledger.reset(num_slots);
        ledger
    }

    /// Returns the ledger to the unbuilt state over `num_slots` slots,
    /// keeping its buffers.
    pub(crate) fn reset(&mut self, num_slots: usize) {
        self.heap.clear();
        self.heap.reserve(num_slots);
        self.bound = f64::INFINITY;
        self.slot_versions.clear();
        self.slot_versions.resize(num_slots, 0);
        self.score_version = 0;
        self.built = false;
    }

    /// Whether the initial build has run.
    pub(crate) fn is_built(&self) -> bool {
        self.built
    }

    /// Whether the ledger holds every entry a query with bound `max_cost`
    /// may need: it is built and no earlier pop dropped an entry that
    /// `max_cost` affords.
    pub(crate) fn is_built_for(&self, max_cost: f64) -> bool {
        self.built && max_cost <= self.bound
    }

    /// (Re)builds the ledger from freshly scored entries (see
    /// [`GainLedger::extend_scored`]), dropping whatever it held.
    pub(crate) fn build(
        &mut self,
        scored: impl IntoIterator<Item = (SlotIndex, WorkerId, f64, f64, f64)>,
    ) {
        self.heap.clear();
        self.bound = f64::INFINITY;
        self.extend_scored(scored);
        self.built = true;
    }

    /// The entries held whose key is exact for the current state: live and
    /// scored since the task's last execution.
    #[cfg(test)]
    pub(crate) fn fresh_entries(&self) -> impl Iterator<Item = &GainEntry> {
        self.heap.iter().filter(|e| {
            e.slot_version == self.slot_versions[e.slot] && e.scored_at == self.score_version
        })
    }

    /// Entries currently in the structure (may include version-dead garbage
    /// awaiting a pop).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Installs freshly scored `(slot, worker, gain, cost, heuristic)`
    /// entries at once (one heap rebuild instead of a sift per entry).
    pub(crate) fn extend_scored(
        &mut self,
        scored: impl IntoIterator<Item = (SlotIndex, WorkerId, f64, f64, f64)>,
    ) {
        let (versions, score_version) = (&self.slot_versions, self.score_version);
        self.heap.extend(
            scored
                .into_iter()
                .map(|(slot, worker, gain, cost, heuristic)| GainEntry {
                    heuristic,
                    gain,
                    cost,
                    slot,
                    worker,
                    slot_version: versions[slot],
                    scored_at: score_version,
                }),
        );
    }

    /// Patch entry point: the slot's candidate changed (conflict fallback).
    /// Bumps the slot version so the old entry dies; the caller re-scores
    /// and installs the replacement if a candidate remains.
    pub(crate) fn invalidate_slot(&mut self, slot: SlotIndex) {
        self.slot_versions[slot] = self.slot_versions[slot].wrapping_add(1);
    }

    /// Execution entry point: this task executed a slot, every key becomes a
    /// stale upper bound.
    pub(crate) fn bump_score_version(&mut self) {
        self.score_version = self.score_version.wrapping_add(1);
    }

    /// Could an entry with stale key `key` still beat `best_key` once
    /// re-scored?  (Stale keys are upper bounds up to float jitter.)
    fn could_beat(key: f64, best_key: f64) -> bool {
        key + RESCORE_MARGIN * key.abs() + RESCORE_MARGIN >= best_key
    }

    /// The lazy-greedy pop: returns the affordable entry with the exact
    /// maximum `(heuristic, lower slot)` — bit-identical to a full search —
    /// re-scoring stale entries through `probe` on the way.  `probe` returns
    /// [`EntryState::Dead`] when the slot is executed / candidate-less, or
    /// the fresh score.  `stale_pops` counts the re-scores performed.
    /// Entries costing more than `max_cost` are dropped; the caller asks
    /// with a larger bound only after a rebuild
    /// ([`GainLedger::is_built_for`]).  `aside` is an empty buffer the pop
    /// parks the fresh entries it passes over in; it is empty again on
    /// return.
    pub(crate) fn pop_best(
        &mut self,
        max_cost: f64,
        mut probe: impl FnMut(SlotIndex) -> EntryState,
        stale_pops: &mut usize,
        aside: &mut Vec<GainEntry>,
    ) -> Option<GainEntry> {
        debug_assert!(
            self.is_built_for(max_cost),
            "the bound rose without a rebuild"
        );
        debug_assert!(aside.is_empty(), "the aside buffer starts empty");
        self.bound = max_cost;
        let mut best: Option<GainEntry> = None;
        loop {
            let Some(mut top) = self.heap.peek_mut() else {
                break;
            };
            if let Some(b) = &best {
                if !Self::could_beat(top.heuristic, b.heuristic) {
                    break;
                }
            }
            if top.slot_version != self.slot_versions[top.slot] {
                PeekMut::pop(top);
                continue;
            }
            // Affordability first: the recorded cost is exact while the slot
            // version matches (patches re-stamp it; executions of *other*
            // slots never change it), so an unaffordable entry drops without
            // paying for a gain re-score — the case where the full search
            // prunes on `min_cost > max_cost` for free.
            if top.cost > max_cost {
                PeekMut::pop(top);
                continue;
            }
            if top.scored_at != self.score_version {
                // Stale upper bound: re-score against the current state.
                *stale_pops += 1;
                match probe(top.slot) {
                    EntryState::Dead => {
                        // Kill the slot so later duplicates die cheaply.
                        let slot = PeekMut::pop(top).slot;
                        self.invalidate_slot(slot);
                    }
                    EntryState::Stale {
                        gain,
                        cost,
                        heuristic,
                        worker,
                    } => {
                        // Re-key in place: dropping `top` sifts the entry
                        // down, so the heap is in order again without a pop
                        // and a push.
                        *top = GainEntry {
                            heuristic,
                            gain,
                            cost,
                            slot: top.slot,
                            worker,
                            slot_version: top.slot_version,
                            scored_at: self.score_version,
                        };
                    }
                }
                continue;
            }
            let top = PeekMut::pop(top);
            // Fresh and affordable: exact comparison, exact tie-break.
            let better = match &best {
                None => true,
                Some(b) => {
                    top.heuristic > b.heuristic
                        || (top.heuristic == b.heuristic && top.slot < b.slot)
                }
            };
            if better {
                if let Some(b) = best.replace(top) {
                    aside.push(b);
                }
            } else {
                aside.push(top);
            }
        }
        // Losing fresh entries — and the winner — stay in the structure: the
        // winner's entry dies naturally when the caller executes or refreshes
        // the slot.
        for entry in aside.drain(..) {
            self.heap.push(entry);
        }
        if let Some(b) = &best {
            self.heap.push(*b);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::multi::heuristic;

    fn probe_table(scores: Vec<Option<(f64, f64)>>) -> impl FnMut(SlotIndex) -> EntryState {
        move |slot| match scores[slot] {
            None => EntryState::Dead,
            Some((gain, cost)) => EntryState::Stale {
                gain,
                cost,
                heuristic: heuristic(gain, cost),
                worker: WorkerId(slot as u32),
            },
        }
    }

    /// A ledger built over `(slot, gain, cost)` entries.
    fn ledger_of(num_slots: usize, entries: &[(SlotIndex, f64, f64)]) -> GainLedger {
        let mut ledger = GainLedger::new(num_slots);
        ledger.build(entries.iter().map(|&(slot, gain, cost)| {
            (
                slot,
                WorkerId(slot as u32),
                gain,
                cost,
                heuristic(gain, cost),
            )
        }));
        ledger
    }

    #[test]
    fn pop_returns_the_exact_argmax_with_lower_slot_ties() {
        // h = 2.0, 2.0 (tie, lower slot wins), 4.5
        let mut ledger = ledger_of(4, &[(2, 4.0, 2.0), (0, 2.0, 1.0), (3, 9.0, 2.0)]);
        let mut pops = 0;
        let best = ledger
            .pop_best(
                f64::INFINITY,
                |_| EntryState::Dead,
                &mut pops,
                &mut Vec::new(),
            )
            .unwrap();
        assert_eq!(best.slot, 3);
        assert_eq!(pops, 0, "fresh entries need no re-score");
        // Kill slot 3; the 2.0-tie resolves to slot 0.
        ledger.invalidate_slot(3);
        let best = ledger
            .pop_best(
                f64::INFINITY,
                |_| EntryState::Dead,
                &mut pops,
                &mut Vec::new(),
            )
            .unwrap();
        assert_eq!(best.slot, 0);
    }

    #[test]
    fn stale_entries_are_rescored_on_pop() {
        let mut ledger = ledger_of(2, &[(0, 10.0, 1.0), (1, 8.0, 1.0)]);
        ledger.bump_score_version();
        // After the "execution", slot 0's gain collapsed below slot 1's.
        let mut pops = 0;
        let best = ledger
            .pop_best(
                f64::INFINITY,
                probe_table(vec![Some((1.0, 1.0)), Some((7.0, 1.0))]),
                &mut pops,
                &mut Vec::new(),
            )
            .unwrap();
        assert_eq!(best.slot, 1);
        assert!((best.heuristic - 7.0).abs() < 1e-12);
        assert_eq!(pops, 2, "both stale entries had to be re-scored");
        // A second pop re-scores nothing: the tops are fresh now.
        let mut more = 0;
        let again = ledger
            .pop_best(
                f64::INFINITY,
                |_| EntryState::Dead,
                &mut more,
                &mut Vec::new(),
            )
            .unwrap();
        assert_eq!(again.slot, 1);
        assert_eq!(more, 0);
    }

    #[test]
    fn dead_slots_are_skipped() {
        let mut ledger = ledger_of(2, &[(0, 5.0, 1.0), (1, 4.0, 1.0)]);
        ledger.bump_score_version();
        let mut pops = 0;
        // Slot 0 reports dead on re-score (it was executed).
        let best = ledger
            .pop_best(
                f64::INFINITY,
                probe_table(vec![None, Some((4.0, 1.0))]),
                &mut pops,
                &mut Vec::new(),
            )
            .unwrap();
        assert_eq!(best.slot, 1);
        assert_eq!(GainLedger::new(0).len(), 0);
    }
}
