//! Approximated order-k Voronoi diagram indexed by an aggregated binary tree
//! ("V-tree", Section III-C of the paper), plus the best-first / upper-bound
//! pruned search for the slot with the maximum heuristic value.
//!
//! The tree covers the task timeline `[0, m)`.  Each node represents a time
//! segment `[l, r]` and stores the auxiliary quadruple of the paper —
//! `⟨k-set, knn(l), knn(r), q′⟩` — materialised here as:
//!
//! * the k-th NN distances `kmax(l)`, `kmax(r)` of the two end slots, from
//!   which the node's *influence range* `[l − kmax(l), r + kmax(r)]` is
//!   derived (their k-NN sets decide the split; every slot's set is kept
//!   per slot, see below);
//! * the aggregated partial quality `q′` of all slots in the segment;
//! * additional aggregates used by the pruned search: the summed *potential*
//!   (the largest possible partial-quality improvement of each unexecuted
//!   slot under a single additional execution, per Eq. 6 of the paper), the
//!   minimum assignment cost and the minimum current partial quality among
//!   unexecuted slots.
//!
//! Splitting stops when a segment is entirely contained in one Voronoi cell
//! (`knn(l) = knn(r)`, Condition 1 / Lemma 8) or when the segment length
//! drops below the threshold `ts` (Condition 2), which bounds the tree depth
//! by `⌈log2(m/ts)⌉` and acts as the approximation knob.
//!
//! Three operations drive the `Approx*` algorithm:
//!
//! * [`VTree::notify_executed`] — upkeep after an execution, as continuous
//!   k-NN monitoring per slot in one dimension.  Every slot keeps its k-NN
//!   site set (the `k` nearest executed slots, itself included when
//!   executed) as compact slot ids.  An execution at `t` enters slot `j`'s
//!   set only if it beats the set's farthest member, and changes `j`'s
//!   cached partial quality only if `|j − t|` is below `j`'s k-th neighbour
//!   distance; such a slot's new neighbour-distance sum is the exact integer
//!   the neighbour walk would reach, so with unit reliabilities its partial
//!   quality is one table read.  The tree keeps the shape a from-scratch
//!   rebuild of every influenced leaf would give: the same influence test
//!   picks the nodes to touch, an influenced inner node stays inner and
//!   re-reads its endpoints' sets, and an influenced leaf re-splits from the
//!   cached sets exactly where a rebuild would, in place.  Under mixed
//!   reliabilities, and for shapes with no table (`k·m + 1 > 65_536`), a
//!   slot whose set changed re-walks its neighbours instead of reading the
//!   table — the one fallback, with the same result;
//! * [`VTree::gain`] — the exact quality increment of tentatively executing a
//!   slot, computed by reusing the stored `q′` of every node whose influence
//!   range excludes the tentative slot (the "locality of k-NN searching");
//!   inside an influenced leaf, each slot's cached partial quality, k-th NN
//!   distance and neighbour-distance sum are reused too.  A slot the
//!   tentative execution cannot reach keeps its cached partial quality; with
//!   unit reliabilities a slot it does reach reads the evaluator's shared
//!   entropy table at the exactly updated distance sum, so no neighbour walk
//!   runs and the result stays bit-identical to a full leaf recompute.  The
//!   same table gives each leaf slot's potential, and the cached partial
//!   qualities summed in slot order give the task quality
//!   ([`VTree::slot_quality_sum`]) without a walk;
//! * [`VTree::best_slot`] — best-first search over the tree with an
//!   admissible upper bound on each node's heuristic value (quality increment
//!   per unit cost), pruning nodes that cannot beat the best exact value
//!   found so far.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tcsc_core::quality::{ExecutedSlot, QualityEvaluator, SlotSummary};
use tcsc_core::SlotIndex;

use crate::voronoi::site_knn_set;

/// Configuration of the tree index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VTreeConfig {
    /// Segment-length threshold `ts`: nodes whose segment is not longer than
    /// this are never split (paper default: 4).
    pub ts: usize,
}

impl VTreeConfig {
    /// Creates a configuration; `ts` must be at least 1.
    pub fn new(ts: usize) -> Self {
        assert!(ts >= 1, "ts must be at least 1");
        Self { ts }
    }
}

impl Default for VTreeConfig {
    fn default() -> Self {
        Self { ts: 4 }
    }
}

/// Statistics of one [`VTree::best_slot`] search, used for the pruning-ratio
/// analysis of Fig. 8(d).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SearchStats {
    /// Number of unexecuted slots whose exact heuristic value was computed.
    pub evaluated_slots: usize,
    /// Number of unexecuted candidate slots in total.
    pub candidate_slots: usize,
    /// Number of tree nodes popped from the search heap.
    pub visited_nodes: usize,
    /// Number of tree nodes pruned by the upper bound.
    pub pruned_nodes: usize,
}

impl SearchStats {
    /// Fraction of candidate slots that were *not* exactly evaluated.
    pub fn pruning_ratio(&self) -> f64 {
        if self.candidate_slots == 0 {
            0.0
        } else {
            1.0 - self.evaluated_slots as f64 / self.candidate_slots as f64
        }
    }

    /// Accumulates another search's statistics into this one.
    pub fn merge(&mut self, other: &SearchStats) {
        self.evaluated_slots += other.evaluated_slots;
        self.candidate_slots += other.candidate_slots;
        self.visited_nodes += other.visited_nodes;
        self.pruned_nodes += other.pruned_nodes;
    }
}

/// The best slot found by [`VTree::best_slot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BestSlot {
    /// The slot with the maximum heuristic value.
    pub slot: SlotIndex,
    /// Its exact quality increment.
    pub gain: f64,
    /// Its assignment cost.
    pub cost: f64,
    /// The heuristic value `gain / cost`.
    pub heuristic: f64,
}

#[derive(Debug, Clone)]
struct Node {
    start: usize,
    end: usize,
    left: Option<usize>,
    right: Option<usize>,
    /// Aggregated partial quality `q′` of the segment.
    quality: f64,
    /// Aggregated potential (max possible single-insertion improvement) of
    /// unexecuted slots in the segment.
    potential: f64,
    /// Minimum partial quality among unexecuted, affordable slots.
    min_unexec_pq: f64,
    /// Minimum assignment cost among unexecuted, affordable slots.
    min_cost: f64,
    /// Maximum k-th NN distance among unexecuted slots of the segment.
    max_kth_dist: usize,
    /// Number of unexecuted slots with a finite cost in the segment.
    candidates: usize,
    /// k-NN site distances of the left end slot (distance to its k-th NN, or
    /// `m` when fewer than k slots are executed).
    kmax_l: usize,
    /// Same for the right end slot.
    kmax_r: usize,
    /// Build order: the number of nodes built (or rebuilt in place) before
    /// this one.  [`VTree::best_slot`] visits equal-bound nodes oldest
    /// first, so its order does not depend on where the arena keeps a node.
    stamp: usize,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.left.is_none()
    }

    /// Influence range: a tentative execution outside this range cannot
    /// change the k-NN interpolation of any slot in the segment.
    fn influence_contains(&self, slot: SlotIndex, m: usize) -> bool {
        let lo = self.start.saturating_sub(self.kmax_l);
        let hi = (self.end + self.kmax_r).min(m.saturating_sub(1));
        (lo..=hi).contains(&slot)
    }
}

/// Max-heap entry for the best-first search: highest bound first, ties to
/// the older node (lower [`Node::stamp`]).
struct HeapEntry {
    bound: f64,
    stamp: usize,
    node: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| other.stamp.cmp(&self.stamp))
    }
}

/// One slot's cached neighbour state, kept exact by every update.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SlotCache {
    /// Partial quality `−p·log2 p` of the slot.
    pq: f64,
    /// k-th NN distance (`0` for an executed slot).  A tentative execution
    /// at `t` with `|j − t| > kth` cannot enter slot `j`'s neighbour set, so
    /// `pq` stays exact.
    kth: u32,
    /// Sum of the `k` neighbour distances, missing neighbours padded with
    /// `m` (`0` for an executed slot).  With `kth` it gives the exact
    /// distance sum under a tentative execution, `sum − kth + |j − t|`,
    /// which [`VTree::gain`] looks up in the unit-reliability table.
    sum: u32,
}

impl SlotCache {
    fn of(summary: SlotSummary) -> Self {
        Self {
            pq: summary.partial_quality,
            kth: summary.kth_distance as u32,
            sum: summary.distance_sum as u32,
        }
    }
}

/// The aggregated tree index over a task's timeline.
///
/// The tree holds per-slot assignment costs (`None` for slots with no
/// available worker) so that heuristic values `Δq / c` can be bounded and
/// evaluated without consulting the worker index again.
#[derive(Debug, Clone)]
pub struct VTree {
    config: VTreeConfig,
    num_slots: usize,
    k: usize,
    costs: Vec<Option<f64>>,
    /// Per-slot caches, one 16-byte record per slot.
    slots: Vec<SlotCache>,
    /// Per-slot k-NN site sets, `k` entries per slot: slot `j`'s set is
    /// `site_sets[j·k..][..min(k, sites)]`, ascending (the sets of
    /// `crate::voronoi::site_knn_set`, kept current by
    /// [`VTree::notify_executed`]).
    site_sets: Vec<u32>,
    /// Number of executed slots the sets hold.
    sites: usize,
    nodes: Vec<Node>,
    root: usize,
    /// Nodes built or rebuilt in place so far: the next [`Node::stamp`].
    stamps: usize,
    /// Slot partial qualities computed: `m` at construction, then one per
    /// slot an execution changed (the upkeep work of the Fig. 8(c)
    /// breakdown).
    recomputed_slots: usize,
    /// Nodes allocated in the arena since construction.
    nodes_built: usize,
}

impl VTree {
    /// Builds the tree for the current state of `evaluator`.
    ///
    /// `costs[j]` is the assignment cost of slot `j` (distance to its nearest
    /// available worker), or `None` when the slot cannot be executed.
    ///
    /// # Panics
    /// Panics if `costs` does not have one entry per slot, or if `k·m`
    /// exceeds `u32::MAX` (slot ids and distance sums are kept as `u32`).
    pub fn build(
        evaluator: &QualityEvaluator,
        costs: Vec<Option<f64>>,
        config: VTreeConfig,
    ) -> Self {
        let mut tree = Self {
            config,
            num_slots: 0,
            k: 0,
            costs,
            slots: Vec::new(),
            site_sets: Vec::new(),
            sites: 0,
            nodes: Vec::new(),
            root: 0,
            stamps: 0,
            recomputed_slots: 0,
            nodes_built: 0,
        };
        tree.init(evaluator, config);
        tree
    }

    /// Rebuilds this tree in place for the current state of `evaluator`
    /// and the given per-slot costs, reusing its buffers: the result is the
    /// tree [`VTree::build`] would return, counters included.
    ///
    /// # Panics
    /// As [`VTree::build`].
    pub fn rebuild(
        &mut self,
        evaluator: &QualityEvaluator,
        costs: impl IntoIterator<Item = Option<f64>>,
        config: VTreeConfig,
    ) {
        self.costs.clear();
        self.costs.extend(costs);
        self.init(evaluator, config);
    }

    /// The one construction path: every field but `costs` is set afresh
    /// from `evaluator`, in the buffers the tree already holds.
    fn init(&mut self, evaluator: &QualityEvaluator, config: VTreeConfig) {
        let m = evaluator.num_slots();
        let k = evaluator.k();
        assert_eq!(self.costs.len(), m, "one cost entry per slot is required");
        assert!(
            k.checked_mul(m).is_some_and(|km| u32::try_from(km).is_ok()),
            "slot ids and distance sums must fit in u32"
        );
        self.config = config;
        self.num_slots = m;
        self.k = k;
        self.site_sets.clear();
        self.site_sets.resize(m * k, 0);
        self.sites = evaluator.executed_len();
        self.nodes.clear();
        self.nodes.reserve(2 * m / config.ts.max(1) + 4);
        self.stamps = 0;
        self.nodes_built = 0;
        self.slots.clear();
        if self.sites == 0 {
            // Every slot's `k` neighbours are padding: one summary fits all.
            self.slots
                .resize(m, SlotCache::of(evaluator.slot_summary(0)));
        } else {
            for slot in 0..m {
                let set = site_knn_set(evaluator, slot, k);
                for (cached, site) in self.site_sets[slot * k..].iter_mut().zip(set) {
                    *cached = site as u32;
                }
                self.slots.push(SlotCache::of(evaluator.slot_summary(slot)));
            }
        }
        self.recomputed_slots = m;
        self.root = self.build_node(evaluator, None, 0, m - 1);
    }

    /// The configured split threshold `ts`.
    pub fn config(&self) -> VTreeConfig {
        self.config
    }

    /// Number of nodes in the tree.  Updates refresh nodes in place and
    /// only a split allocates, so every arena node is in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth of the tree.
    pub fn depth(&self) -> usize {
        self.depth_of(self.root)
    }

    fn depth_of(&self, idx: usize) -> usize {
        let node = &self.nodes[idx];
        1 + node
            .left
            .map_or(0, |l| self.depth_of(l))
            .max(node.right.map_or(0, |r| self.depth_of(r)))
    }

    /// Number of slot partial qualities computed so far: `m` at construction,
    /// then one per slot an execution actually changed (a table read, or a
    /// neighbour walk under the fallback).  The index upkeep work.
    pub fn recomputed_slots(&self) -> usize {
        self.recomputed_slots
    }

    /// Number of nodes allocated so far: the construction's, then the
    /// children of every split an execution caused.
    pub fn nodes_built(&self) -> usize {
        self.nodes_built
    }

    /// Task quality summed from the cached per-slot partial qualities in slot
    /// order.  Every cached value is exactly
    /// [`QualityEvaluator::partial_quality`] (a walk's
    /// [`QualityEvaluator::slot_summary`], or the table entry at the walk's
    /// distance sum), and a slot an execution does not reach keeps a value
    /// the execution cannot change, so this is [`QualityEvaluator::quality`]
    /// to the bit: the same values summed in the same order.
    pub fn slot_quality_sum(&self) -> f64 {
        self.slots.iter().map(|s| s.pq).sum()
    }

    /// Lowest assignment cost among unexecuted slots with a candidate
    /// (`INFINITY` when there is none): no slot is affordable under a bound
    /// below it.
    pub fn min_candidate_cost(&self) -> f64 {
        self.nodes[self.root].min_cost
    }

    /// Updates the assignment cost of a slot (used when multi-task conflicts
    /// force a task to fall back to its 2nd, 3rd, ... nearest worker) and
    /// refreshes the cost aggregates along the affected path.
    pub fn update_cost(
        &mut self,
        evaluator: &QualityEvaluator,
        slot: SlotIndex,
        cost: Option<f64>,
    ) {
        self.costs[slot] = cost;
        self.refresh_for_slot(evaluator, self.root, slot);
    }

    fn refresh_for_slot(&mut self, evaluator: &QualityEvaluator, idx: usize, slot: SlotIndex) {
        let (start, end, left, right, is_leaf) = {
            let n = &self.nodes[idx];
            (n.start, n.end, n.left, n.right, n.is_leaf())
        };
        if slot < start || slot > end {
            return;
        }
        if is_leaf {
            self.aggregate_leaf(evaluator, idx);
            return;
        }
        if let Some(l) = left {
            self.refresh_for_slot(evaluator, l, slot);
        }
        if let Some(r) = right {
            self.refresh_for_slot(evaluator, r, slot);
        }
        self.recompute_inner(idx);
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Builds the subtree over `[start, end]` from the cached site sets and
    /// slot caches, the way a rebuild from the evaluator would: a segment
    /// stays a leaf when it is not longer than `ts` or its two end slots
    /// share one k-NN set, and splits at its midpoint otherwise.  The root
    /// of the subtree takes arena node `at` when given (a leaf rebuilt in
    /// place); every other node is allocated.
    fn build_node(
        &mut self,
        evaluator: &QualityEvaluator,
        at: Option<usize>,
        start: usize,
        end: usize,
    ) -> usize {
        let len = end - start + 1;
        let stop = len <= self.config.ts || self.site_set(start) == self.site_set(end);
        let node = Node {
            start,
            end,
            left: None,
            right: None,
            quality: 0.0,
            potential: 0.0,
            min_unexec_pq: f64::INFINITY,
            min_cost: f64::INFINITY,
            max_kth_dist: 0,
            candidates: 0,
            kmax_l: self.site_kth(start),
            kmax_r: self.site_kth(end),
            stamp: self.stamps,
        };
        self.stamps += 1;
        let idx = match at {
            Some(idx) => {
                self.nodes[idx] = node;
                idx
            }
            None => {
                self.nodes_built += 1;
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };

        if stop {
            self.aggregate_leaf(evaluator, idx);
        } else {
            let mid = start + (end - start) / 2;
            let left = self.build_node(evaluator, None, start, mid);
            let right = self.build_node(evaluator, None, mid + 1, end);
            self.nodes[idx].left = Some(left);
            self.nodes[idx].right = Some(right);
            self.recompute_inner(idx);
        }
        idx
    }

    /// The cached k-NN site set of `slot`, ascending.
    fn site_set(&self, slot: SlotIndex) -> &[u32] {
        &self.site_sets[slot * self.k..][..self.sites.min(self.k)]
    }

    /// Distance from `slot` to its k-th nearest executed site, or `m` when
    /// fewer than `k` sites exist.  The set is a contiguous run of the
    /// executed slots, so its farthest member is one of its two ends.
    fn site_kth(&self, slot: SlotIndex) -> usize {
        let set = self.site_set(slot);
        if set.len() < self.k {
            return self.num_slots;
        }
        let (first, last) = (set[0] as usize, set[set.len() - 1] as usize);
        slot.abs_diff(first).max(slot.abs_diff(last))
    }

    /// Recomputes a leaf's aggregates from its slot caches and costs.  An
    /// executed slot is the one with `kth == 0`: an unexecuted slot's
    /// nearest neighbour, or its padding at `m`, is at distance 1 or more.
    ///
    /// A slot's potential (Eq. 6) is its partial quality once its k-th
    /// neighbour moves to distance 1, `pq_ub` at neighbour-distance sum
    /// `S − kth + 1`.  While the unit-reliability table applies, that is the
    /// table entry at `S − kth + 1`: the table is built by the same
    /// operations as [`VTree::potential_bound`] on the same operands, so the
    /// lookup replaces a `log2` per slot without changing a bit of the
    /// leaf's potential.
    fn aggregate_leaf(&mut self, evaluator: &QualityEvaluator, idx: usize) {
        let (start, end) = {
            let n = &self.nodes[idx];
            (n.start, n.end)
        };
        let table = evaluator.unit_partial_table();
        let mut quality = 0.0;
        let mut potential = 0.0;
        let mut min_unexec_pq = f64::INFINITY;
        let mut min_cost = f64::INFINITY;
        let mut max_kth_dist = 0usize;
        let mut candidates = 0usize;

        for slot in start..=end {
            let SlotCache { pq, kth, sum } = self.slots[slot];
            let (kth, sum) = (kth as usize, sum as usize);
            quality += pq;
            if kth == 0 {
                continue;
            }
            // Potential improvement of this slot under one more execution
            // elsewhere (Eq. 6): its k-th NN distance can drop to 1 at best.
            max_kth_dist = max_kth_dist.max(kth);
            let pq_ub = match table {
                Some(table) => table[sum - kth + 1],
                None => self.potential_bound(sum, kth),
            };
            // The two differ only in the sign of a zero bound (`m = 1`),
            // where `pq` is `-0.0` and both headrooms come out `+0.0`.
            debug_assert_eq!(
                (pq_ub - pq).max(0.0).to_bits(),
                (self.potential_bound(sum, kth) - pq).max(0.0).to_bits(),
                "table potential of slot {slot} disagrees with the formula"
            );
            potential += (pq_ub - pq).max(0.0);

            if let Some(cost) = self.costs[slot] {
                candidates += 1;
                min_cost = min_cost.min(cost);
                min_unexec_pq = min_unexec_pq.min(pq);
            }
        }
        let node = &mut self.nodes[idx];
        node.quality = quality;
        node.potential = potential;
        node.min_unexec_pq = min_unexec_pq;
        node.min_cost = min_cost;
        node.max_kth_dist = max_kth_dist;
        node.candidates = candidates;
    }

    fn recompute_inner(&mut self, idx: usize) {
        let (l, r) = {
            let n = &self.nodes[idx];
            (n.left.unwrap(), n.right.unwrap())
        };
        let (lq, lp, lmin_pq, lmin_c, lkd, lc) = {
            let n = &self.nodes[l];
            (
                n.quality,
                n.potential,
                n.min_unexec_pq,
                n.min_cost,
                n.max_kth_dist,
                n.candidates,
            )
        };
        let (rq, rp, rmin_pq, rmin_c, rkd, rc) = {
            let n = &self.nodes[r];
            (
                n.quality,
                n.potential,
                n.min_unexec_pq,
                n.min_cost,
                n.max_kth_dist,
                n.candidates,
            )
        };
        let node = &mut self.nodes[idx];
        node.quality = lq + rq;
        node.potential = lp + rp;
        node.min_unexec_pq = lmin_pq.min(rmin_pq);
        node.min_cost = lmin_c.min(rmin_c);
        node.max_kth_dist = lkd.max(rkd);
        node.candidates = lc + rc;
    }

    /// The partial quality a slot with neighbour-distance sum `sum` and k-th
    /// neighbour distance `kth` reaches when that neighbour is replaced by
    /// one at distance 1: the error ratio falls to `(sum − kth + 1) / (k·m)`.
    fn potential_bound(&self, sum: usize, kth: usize) -> f64 {
        let m = self.num_slots as f64;
        let k = self.k as f64;
        let rho_lb = ((sum as f64 - kth as f64 + 1.0) / (k * m)).max(0.0);
        let p_ub = ((1.0 - rho_lb) / m).max(0.0);
        Self::entropy_term(p_ub)
    }

    #[inline]
    fn entropy_term(p: f64) -> f64 {
        if p <= 0.0 {
            0.0
        } else {
            -p * p.log2()
        }
    }

    // ------------------------------------------------------------------
    // Exact gain with locality
    // ------------------------------------------------------------------

    /// Exact quality increment of tentatively executing `slot` (with a fully
    /// reliable worker), reusing stored aggregates of unaffected nodes and,
    /// inside influenced leaves, the stored partial quality of every slot the
    /// tentative execution cannot reach (executed slots, and slots `j` with
    /// `|j − slot|` beyond their k-th NN distance: Lemma 8 at slot grain).
    ///
    /// While the evaluator's unit-reliability table applies
    /// ([`QualityEvaluator::unit_partial_table`]), the reachable slots cost a
    /// table lookup instead of a neighbour walk: `slot` itself reads entry
    /// `0`, and a slot `j` with `d = |j − slot| < kth` takes the tentative
    /// execution in place of its k-th neighbour, so it reads entry
    /// `sum − kth + d` of its cached sums (at `d = kth` the sum does not
    /// change and the stored value stands).  That index is the exact integer
    /// the walk sums and the entry is the one it reads; mixed reliabilities
    /// and shapes without a table walk as before.  The table kernel reads a
    /// leaf's slot caches as a slice in two runs, the slots left of `slot`
    /// (`d = slot − j`) and those right of it (`d = j − slot`), with entry
    /// `0` between them, so no slot pays for an `abs_diff` or an index
    /// check.  Either way the summed values and their ascending-slot order
    /// are those of a full leaf recompute, so the result is bit-identical to
    /// it.
    pub fn gain(&self, evaluator: &QualityEvaluator, slot: SlotIndex) -> f64 {
        if evaluator.is_executed(slot) {
            return 0.0;
        }
        let extra = ExecutedSlot {
            slot,
            reliability: 1.0,
        };
        let new_total = self.quality_with_extra(evaluator, self.root, extra);
        new_total - self.nodes[self.root].quality
    }

    fn quality_with_extra(
        &self,
        evaluator: &QualityEvaluator,
        idx: usize,
        extra: ExecutedSlot,
    ) -> f64 {
        let node = &self.nodes[idx];
        if !node.influence_contains(extra.slot, self.num_slots) {
            return node.quality;
        }
        if node.is_leaf() {
            match evaluator.unit_partial_table() {
                Some(table) => {
                    // `[start, lo)` lies left of `t` and `[hi, end]` right of
                    // it; `t` itself is in the leaf when `lo < hi`.
                    let t = extra.slot;
                    let lo = t.clamp(node.start, node.end + 1);
                    let hi = (t + 1).clamp(node.start, node.end + 1);
                    let reached = |j: SlotIndex, d: usize, pq: f64, kth: usize, sum: usize| {
                        let pq = if d < kth { table[sum - kth + d] } else { pq };
                        debug_assert_eq!(
                            pq.to_bits(),
                            evaluator
                                .partial_quality_with_extra(j, Some(extra))
                                .to_bits(),
                            "cached sums of slot {j} disagree with the walk (tentative {t})"
                        );
                        pq
                    };
                    let left = self
                        .cached_run(node.start, lo)
                        .map(|(j, pq, kth, sum)| reached(j, t - j, pq, kth, sum));
                    let right = self
                        .cached_run(hi, node.end + 1)
                        .map(|(j, pq, kth, sum)| reached(j, j - t, pq, kth, sum));
                    left.chain((lo < hi).then_some(table[0])).chain(right).sum()
                }
                None => (node.start..=node.end)
                    .map(|j| {
                        let cache = self.slots[j];
                        if j.abs_diff(extra.slot) > cache.kth as usize {
                            cache.pq
                        } else {
                            evaluator.partial_quality_with_extra(j, Some(extra))
                        }
                    })
                    .sum(),
            }
        } else {
            self.quality_with_extra(evaluator, node.left.unwrap(), extra)
                + self.quality_with_extra(evaluator, node.right.unwrap(), extra)
        }
    }

    /// The cached `(j, pq, kth, sum)` of the slots in `[from, to)`, in
    /// ascending slot order.
    fn cached_run(
        &self,
        from: SlotIndex,
        to: SlotIndex,
    ) -> impl Iterator<Item = (SlotIndex, f64, usize, usize)> + '_ {
        (from..to)
            .zip(&self.slots[from..to])
            .map(|(j, s)| (j, s.pq, s.kth as usize, s.sum as usize))
    }

    /// [`VTree::gain`] without the per-slot cache: every slot of an
    /// influenced leaf is re-evaluated.  The reference the cached sum must
    /// match bit for bit.
    #[cfg(test)]
    fn gain_uncached(&self, evaluator: &QualityEvaluator, slot: SlotIndex) -> f64 {
        if evaluator.is_executed(slot) {
            return 0.0;
        }
        let extra = ExecutedSlot {
            slot,
            reliability: 1.0,
        };
        self.quality_with_extra_uncached(evaluator, self.root, extra)
            - self.nodes[self.root].quality
    }

    #[cfg(test)]
    fn quality_with_extra_uncached(
        &self,
        evaluator: &QualityEvaluator,
        idx: usize,
        extra: ExecutedSlot,
    ) -> f64 {
        let node = &self.nodes[idx];
        if !node.influence_contains(extra.slot, self.num_slots) {
            return node.quality;
        }
        if node.is_leaf() {
            (node.start..=node.end)
                .map(|j| evaluator.partial_quality_with_extra(j, Some(extra)))
                .sum()
        } else {
            self.quality_with_extra_uncached(evaluator, node.left.unwrap(), extra)
                + self.quality_with_extra_uncached(evaluator, node.right.unwrap(), extra)
        }
    }

    // ------------------------------------------------------------------
    // Update after an execution
    // ------------------------------------------------------------------

    /// Refreshes the tree after `slot` was executed on `evaluator` (call
    /// *after* `evaluator.execute(slot)`).  A call that finds no new
    /// execution on `evaluator` changes nothing.
    ///
    /// Only nodes whose influence range contains `slot` are touched, and
    /// inside them only the slots the execution reaches change (module
    /// docs).  An execution at `t` enters slot `j`'s k-NN site set only if
    /// it beats the set's farthest member; the set is a contiguous run of
    /// the executed slots, so that member is one of its two ends.  With unit
    /// reliabilities, a reached slot with `|j − t|` below its k-th neighbour
    /// distance takes `t` in place of that neighbour: its new distance sum
    /// is `sum − kth + |j − t|` of its cached sums, the integer the neighbour
    /// walk would reach, and its partial quality is the table entry there;
    /// at `|j − t| = kth` nothing it caches changes.  Under mixed
    /// reliabilities, and for shapes with no table, a slot whose set changed
    /// re-walks its neighbours instead.  Either way every cached value, node
    /// aggregate and split equals what rebuilding each influenced leaf from
    /// the evaluator would give, bit for bit.  Influenced leaves are rebuilt
    /// in place from the caches, so only a split allocates nodes.
    pub fn notify_executed(&mut self, evaluator: &QualityEvaluator, slot: SlotIndex) {
        debug_assert!(evaluator.is_executed(slot), "slot {slot} is not executed");
        if evaluator.executed_len() == self.sites {
            return;
        }
        debug_assert_eq!(
            evaluator.executed_len(),
            self.sites + 1,
            "every execution must be notified"
        );
        self.sites += 1;
        self.update_node(evaluator, self.root, slot);
    }

    fn update_node(&mut self, evaluator: &QualityEvaluator, idx: usize, t: SlotIndex) {
        let node = &self.nodes[idx];
        if !node.influence_contains(t, self.num_slots) {
            return;
        }
        let (start, end) = (node.start, node.end);
        match (node.left, node.right) {
            (Some(left), Some(right)) => {
                // An inner node stays inner; its end slots' sets are current
                // once its influenced children are.
                self.update_node(evaluator, left, t);
                self.update_node(evaluator, right, t);
                let (kmax_l, kmax_r) = (self.site_kth(start), self.site_kth(end));
                let node = &mut self.nodes[idx];
                node.kmax_l = kmax_l;
                node.kmax_r = kmax_r;
                self.recompute_inner(idx);
            }
            _ => {
                self.admit_leaf(evaluator, start, end, t);
                self.build_node(evaluator, Some(idx), start, end);
            }
        }
    }

    /// Enters the new execution `t` into the site set of every slot of the
    /// leaf `[start, end]` that now has it among its `k` nearest, and
    /// refreshes the caches of the slots where that changed them.
    fn admit_leaf(&mut self, evaluator: &QualityEvaluator, start: usize, end: usize, t: SlotIndex) {
        let (k, m) = (self.k, self.num_slots);
        let held = (self.sites - 1).min(k);
        let table = evaluator.unit_partial_table();
        let mut recomputed = 0;
        let sets = self.site_sets[start * k..(end + 1) * k].chunks_exact_mut(k);
        let caches = self.slots[start..=end].iter_mut();
        for (j, (set, cache)) in (start..=end).zip(sets.zip(caches)) {
            if !enter_site(set, held, j, t as u32) {
                continue;
            }
            if j != t && cache.kth == 0 {
                // Another executed slot: its partial quality is its own.
                continue;
            }
            let d = j.abs_diff(t);
            match table {
                Some(table) if j != t => {
                    let kth = cache.kth as usize;
                    if d == kth {
                        // `t` replaced a neighbour at the same distance.
                        continue;
                    }
                    let sum = cache.sum as usize - kth + d;
                    let kth = if held + 1 < k {
                        m
                    } else {
                        j.abs_diff(set[0] as usize)
                            .max(j.abs_diff(set[k - 1] as usize))
                    };
                    *cache = SlotCache {
                        pq: table[sum],
                        kth: kth as u32,
                        sum: sum as u32,
                    };
                    debug_assert_eq!(
                        SlotCache::of(evaluator.slot_summary(j)),
                        *cache,
                        "slot {j}'s caches disagree with the walk after executing {t}"
                    );
                }
                _ => *cache = SlotCache::of(evaluator.slot_summary(j)),
            }
            recomputed += 1;
        }
        self.recomputed_slots += recomputed;
    }

    // ------------------------------------------------------------------
    // Best-first search with upper-bound pruning
    // ------------------------------------------------------------------

    /// Finds the unexecuted, affordable slot maximising the heuristic value
    /// `Δq / cost`, using best-first search with an admissible upper bound.
    ///
    /// Returns `None` when no slot has an available worker.  `max_cost`
    /// restricts candidates to those whose assignment cost does not exceed
    /// the remaining budget.
    pub fn best_slot(
        &self,
        evaluator: &QualityEvaluator,
        max_cost: f64,
        stats: &mut SearchStats,
    ) -> Option<BestSlot> {
        let root = &self.nodes[self.root];
        if root.candidates == 0 {
            return None;
        }
        stats.candidate_slots += root.candidates;
        // Global bound on how far an execution can reach: any affected slot j
        // satisfies |j - e| < kth-NN-distance(j) <= max_kth_dist.
        let reach = root.max_kth_dist;

        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        heap.push(self.heap_entry(self.root, reach, max_cost));

        let mut best: Option<BestSlot> = None;
        while let Some(entry) = heap.pop() {
            if entry.bound <= 0.0 {
                stats.pruned_nodes += 1;
                continue;
            }
            if let Some(b) = &best {
                if entry.bound <= b.heuristic {
                    stats.pruned_nodes += 1;
                    continue;
                }
            }
            stats.visited_nodes += 1;
            let node = &self.nodes[entry.node];
            if node.is_leaf() {
                for slot in node.start..=node.end {
                    if evaluator.is_executed(slot) {
                        continue;
                    }
                    let Some(cost) = self.costs[slot] else {
                        continue;
                    };
                    if cost > max_cost {
                        continue;
                    }
                    stats.evaluated_slots += 1;
                    let gain = self.gain(evaluator, slot);
                    let heuristic = if cost > 0.0 {
                        gain / cost
                    } else {
                        f64::INFINITY
                    };
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            heuristic > b.heuristic || (heuristic == b.heuristic && slot < b.slot)
                        }
                    };
                    if better {
                        best = Some(BestSlot {
                            slot,
                            gain,
                            cost,
                            heuristic,
                        });
                    }
                }
            } else {
                for child in [node.left.unwrap(), node.right.unwrap()] {
                    if self.nodes[child].candidates == 0 {
                        continue;
                    }
                    heap.push(self.heap_entry(child, reach, max_cost));
                }
            }
        }
        best
    }

    fn heap_entry(&self, node: usize, reach: usize, max_cost: f64) -> HeapEntry {
        HeapEntry {
            bound: self.node_bound(node, reach, max_cost),
            stamp: self.nodes[node].stamp,
            node,
        }
    }

    /// Admissible upper bound on the heuristic value of any slot within the
    /// node:
    ///
    /// * the slot's own partial quality can rise at most to the executed
    ///   value `−(1/m)·log2(1/m)`;
    /// * every other slot it can influence lies within `reach` slots of the
    ///   node's segment, and each such slot can improve at most by its stored
    ///   potential (Eq. 6);
    /// * the cost is at least the node's minimum candidate cost.
    fn node_bound(&self, idx: usize, reach: usize, max_cost: f64) -> f64 {
        let node = &self.nodes[idx];
        if node.candidates == 0 || node.min_cost > max_cost {
            return 0.0;
        }
        let m = self.num_slots as f64;
        let own_ub = (Self::entropy_term(1.0 / m)
            - if node.min_unexec_pq.is_finite() {
                node.min_unexec_pq
            } else {
                0.0
            })
        .max(0.0);
        let lo = node.start.saturating_sub(reach);
        let hi = (node.end + reach).min(self.num_slots - 1);
        let cost = node.min_cost.max(f64::MIN_POSITIVE);
        (own_ub + self.potential_in_range(self.root, lo, hi)) / cost
    }

    /// Sum of stored potentials of slots within `[lo, hi]`, accumulated from
    /// node aggregates.
    fn potential_in_range(&self, idx: usize, lo: usize, hi: usize) -> f64 {
        let node = &self.nodes[idx];
        if node.end < lo || node.start > hi {
            return 0.0;
        }
        if lo <= node.start && node.end <= hi {
            return node.potential;
        }
        if node.is_leaf() {
            // Partial overlap with a leaf: the leaf potential is an upper
            // bound for the covered part.
            return node.potential;
        }
        self.potential_in_range(node.left.unwrap(), lo, hi)
            + self.potential_in_range(node.right.unwrap(), lo, hi)
    }
}

/// Enters the executed slot `site` into slot `j`'s k-NN site `set`, which
/// holds `held` sites ascending (`set.len() = k`), if `site` is among `j`'s
/// `k` nearest under the walk's order (distance, then the earlier slot).
/// Returns whether the set changed.  A full set is a contiguous run of the
/// executed slots, so its farthest member is one of its two ends.
fn enter_site(set: &mut [u32], held: usize, j: SlotIndex, site: u32) -> bool {
    let k = set.len();
    if held == k {
        let key = |s: u32| (j.abs_diff(s as usize), s);
        let drop_first = key(set[0]) > key(set[k - 1]);
        if key(site) >= key(if drop_first { set[0] } else { set[k - 1] }) {
            return false;
        }
        if drop_first {
            set.copy_within(1.., 0);
        }
    }
    // Insert into the ascending `set[..held.min(k - 1)]`, whose next
    // position is free.
    let mut i = held.min(k - 1);
    while i > 0 && set[i - 1] > site {
        set[i] = set[i - 1];
        i -= 1;
    }
    set[i] = site;
    true
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

    fn uniform_costs(m: usize, cost: f64) -> Vec<Option<f64>> {
        vec![Some(cost); m]
    }

    #[test]
    fn tree_quality_matches_evaluator() {
        let ev = evaluator(64, 3, &[3, 17, 40, 41, 60]);
        let tree = VTree::build(&ev, uniform_costs(64, 1.0), VTreeConfig::default());
        assert_eq!(tree.slot_quality_sum().to_bits(), ev.quality().to_bits());
    }

    #[test]
    fn tree_depth_respects_ts() {
        let ev = evaluator(128, 3, &[1, 60, 100]);
        for ts in [2, 4, 8, 16] {
            let tree = VTree::build(&ev, uniform_costs(128, 1.0), VTreeConfig::new(ts));
            let max_depth = (128usize / ts).next_power_of_two().trailing_zeros() as usize + 2;
            assert!(
                tree.depth() <= max_depth,
                "ts={ts}: depth {} > {}",
                tree.depth(),
                max_depth
            );
        }
    }

    #[test]
    fn larger_ts_builds_smaller_trees() {
        let ev = evaluator(256, 3, &(0..32).map(|i| i * 8).collect::<Vec<_>>());
        let small = VTree::build(&ev, uniform_costs(256, 1.0), VTreeConfig::new(2));
        let large = VTree::build(&ev, uniform_costs(256, 1.0), VTreeConfig::new(10));
        assert!(large.node_count() <= small.node_count());
    }

    #[test]
    fn gain_matches_plain_evaluator() {
        let ev = evaluator(80, 3, &[5, 22, 23, 50, 77]);
        let tree = VTree::build(&ev, uniform_costs(80, 1.0), VTreeConfig::default());
        for slot in [0, 10, 24, 49, 51, 79] {
            let expected = ev.gain_if_executed(slot);
            let got = tree.gain(&ev, slot);
            assert!(
                (expected - got).abs() < 1e-9,
                "slot {slot}: tree gain {got} vs evaluator {expected}"
            );
        }
    }

    #[test]
    fn cached_gain_is_bit_identical_to_full_leaf_sum() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x5107);
        for case in 0..64 {
            // 60 random shapes, then the `k > m` shapes (`m` in 1..=4,
            // `k = 5`) the random draw reaches only occasionally.
            let (m, k) = if case < 60 {
                (rng.gen_range(1usize..=100), rng.gen_range(1usize..=5))
            } else {
                (case - 59, 5)
            };
            let ts = rng.gen_range(1usize..=8);
            // Every fourth case executes some slots with reliability < 1, so
            // the evaluator leaves the unit-reliability table.
            let mixed = case % 4 == 3;
            let mut ev = QualityEvaluator::with_slots(m, k);
            let costs: Vec<Option<f64>> = (0..m).map(|_| Some(rng.gen_range(0.5..4.0))).collect();
            let mut tree = VTree::build(&ev, costs, VTreeConfig::new(ts));
            let steps = rng.gen_range(0..=m);
            for step in 0..=steps {
                for t in 0..m {
                    let cached = tree.gain(&ev, t);
                    let full = tree.gain_uncached(&ev, t);
                    assert_eq!(
                        cached.to_bits(),
                        full.to_bits(),
                        "case {case} (m={m}, k={k}, ts={ts}) step {step} slot {t}: \
                         {cached} vs {full}"
                    );
                }
                if step == steps {
                    break;
                }
                if rng.gen_bool(0.3) {
                    let slot = rng.gen_range(0..m);
                    let cost = rng.gen_bool(0.8).then(|| rng.gen_range(0.5..4.0));
                    tree.update_cost(&ev, slot, cost);
                } else {
                    let slot = rng.gen_range(0..m);
                    let reliability = if mixed && rng.gen_bool(0.5) {
                        rng.gen_range(0.2..1.0)
                    } else {
                        1.0
                    };
                    if ev.execute_with_reliability(slot, reliability) {
                        tree.notify_executed(&ev, slot);
                    }
                }
            }
        }
    }

    /// The leaves reachable from the root.
    fn leaves(tree: &VTree) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![tree.root];
        while let Some(idx) = stack.pop() {
            let node = &tree.nodes[idx];
            match (node.left, node.right) {
                (Some(l), Some(r)) => stack.extend([l, r]),
                _ => out.push(idx),
            }
        }
        out
    }

    /// Checks the three table- and cache-backed kernels of `tree` against
    /// their references, bit for bit: the slot-order quality sum against the
    /// evaluator, every leaf's potential against the `log2` formula fed by
    /// fresh neighbour walks, and the sliced gain of every unexecuted slot
    /// against the uncached leaf sum.
    fn assert_kernels_bit_identical(tree: &VTree, ev: &QualityEvaluator, label: &str) {
        assert_eq!(
            tree.slot_quality_sum().to_bits(),
            ev.quality().to_bits(),
            "{label}: slot-order quality sum"
        );
        for idx in leaves(tree) {
            let node = &tree.nodes[idx];
            let mut potential = 0.0;
            for j in node.start..=node.end {
                let summary = ev.slot_summary(j);
                if summary.executed {
                    continue;
                }
                let pq_ub = tree.potential_bound(summary.distance_sum, summary.kth_distance);
                potential += (pq_ub - summary.partial_quality).max(0.0);
            }
            assert_eq!(
                node.potential.to_bits(),
                potential.to_bits(),
                "{label}: potential of leaf [{}, {}]",
                node.start,
                node.end
            );
        }
        for t in (0..ev.num_slots()).filter(|&t| !ev.is_executed(t)) {
            let sliced = tree.gain(ev, t);
            let full = tree.gain_uncached(ev, t);
            assert_eq!(
                sliced.to_bits(),
                full.to_bits(),
                "{label}: gain of slot {t}: {sliced} vs {full}"
            );
        }
    }

    #[test]
    fn table_and_slice_kernels_are_bit_identical_on_random_states() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x7ab1e);
        for m in [1, 2, 5, 17, 96] {
            for k in [1, 3, 5] {
                for ts in [1, 4, 96] {
                    for mixed in [false, true] {
                        let mut ev = QualityEvaluator::with_slots(m, k);
                        let costs = (0..m).map(|_| Some(rng.gen_range(0.5..4.0))).collect();
                        let mut tree = VTree::build(&ev, costs, VTreeConfig::new(ts));
                        let label = |n: usize| format!("m={m} k={k} ts={ts} mixed={mixed} n={n}");
                        assert_kernels_bit_identical(&tree, &ev, &label(0));
                        // Execute in random order up to all `m` slots, so the
                        // states run from a one-leaf tree of padded slots
                        // through split trees to a fully executed task.
                        let mut order: Vec<usize> = (0..m).collect();
                        for i in (1..m).rev() {
                            order.swap(i, rng.gen_range(0..=i));
                        }
                        for (n, slot) in order.into_iter().enumerate() {
                            let reliability = if mixed && rng.gen_bool(0.5) {
                                rng.gen_range(0.2..1.0)
                            } else {
                                1.0
                            };
                            assert!(ev.execute_with_reliability(slot, reliability));
                            tree.notify_executed(&ev, slot);
                            assert_kernels_bit_identical(&tree, &ev, &label(n + 1));
                        }
                    }
                }
            }
        }
    }

    /// The rebuild-based upkeep the incremental [`VTree::notify_executed`]
    /// replaced, kept as its reference: every influenced leaf is rebuilt
    /// from the evaluator into freshly pushed arena nodes (the old ones stay
    /// behind as garbage), with fresh neighbour walks for its slots and
    /// fresh k-NN site sets for every node's end slots.  A node's arena
    /// index is its build order, which the incremental tree's `stamp` must
    /// reproduce.
    mod reference {
        use super::*;

        pub fn build(evaluator: &QualityEvaluator, costs: Vec<Option<f64>>, ts: usize) -> VTree {
            let m = evaluator.num_slots();
            let mut tree = VTree {
                config: VTreeConfig::new(ts),
                num_slots: m,
                k: evaluator.k(),
                costs,
                slots: vec![SlotCache::of(evaluator.slot_summary(0)); m],
                site_sets: Vec::new(),
                sites: 0,
                nodes: Vec::new(),
                root: 0,
                stamps: 0,
                recomputed_slots: 0,
                nodes_built: 0,
            };
            tree.root = build_node(&mut tree, evaluator, 0, m - 1);
            tree
        }

        pub fn notify_executed(tree: &mut VTree, evaluator: &QualityEvaluator, slot: SlotIndex) {
            tree.root = update_node(tree, evaluator, tree.root, slot);
        }

        fn kth_distance(knn: &[SlotIndex], slot: SlotIndex, k: usize, m: usize) -> usize {
            if knn.len() < k {
                m
            } else {
                knn.iter().map(|&e| e.abs_diff(slot)).max().unwrap_or(m)
            }
        }

        fn build_node(
            tree: &mut VTree,
            evaluator: &QualityEvaluator,
            start: usize,
            end: usize,
        ) -> usize {
            let (k, m) = (tree.k, tree.num_slots);
            let knn_l = site_knn_set(evaluator, start, k);
            let knn_r = site_knn_set(evaluator, end, k);
            let stop = end - start < tree.config.ts || knn_l == knn_r;
            let idx = tree.nodes.len();
            tree.nodes.push(Node {
                start,
                end,
                left: None,
                right: None,
                quality: 0.0,
                potential: 0.0,
                min_unexec_pq: f64::INFINITY,
                min_cost: f64::INFINITY,
                max_kth_dist: 0,
                candidates: 0,
                kmax_l: kth_distance(&knn_l, start, k, m),
                kmax_r: kth_distance(&knn_r, end, k, m),
                stamp: idx,
            });
            if stop {
                for slot in start..=end {
                    tree.slots[slot] = SlotCache::of(evaluator.slot_summary(slot));
                    tree.recomputed_slots += 1;
                }
                tree.aggregate_leaf(evaluator, idx);
            } else {
                let mid = start + (end - start) / 2;
                let left = build_node(tree, evaluator, start, mid);
                let right = build_node(tree, evaluator, mid + 1, end);
                tree.nodes[idx].left = Some(left);
                tree.nodes[idx].right = Some(right);
                tree.recompute_inner(idx);
            }
            idx
        }

        fn update_node(
            tree: &mut VTree,
            evaluator: &QualityEvaluator,
            idx: usize,
            slot: SlotIndex,
        ) -> usize {
            let node = &tree.nodes[idx];
            if !node.influence_contains(slot, tree.num_slots) {
                return idx;
            }
            let (start, end) = (node.start, node.end);
            let Some((left, right)) = node.left.zip(node.right) else {
                return build_node(tree, evaluator, start, end);
            };
            let new_left = update_node(tree, evaluator, left, slot);
            let new_right = update_node(tree, evaluator, right, slot);
            let (k, m) = (tree.k, tree.num_slots);
            let kmax_l = kth_distance(&site_knn_set(evaluator, start, k), start, k, m);
            let kmax_r = kth_distance(&site_knn_set(evaluator, end, k), end, k, m);
            let node = &mut tree.nodes[idx];
            node.left = Some(new_left);
            node.right = Some(new_right);
            node.kmax_l = kmax_l;
            node.kmax_r = kmax_r;
            tree.recompute_inner(idx);
            idx
        }
    }

    /// Checks that `tree` has `reference`'s shape, node for node in
    /// pre-order: the same segments and leaves, the same `kmax_l`/`kmax_r`,
    /// the same aggregates and slot caches bit for bit, and `stamp`s equal
    /// to the reference's arena indices.  Also bounds the arena by the live
    /// node count.
    fn assert_same_tree(tree: &VTree, reference: &VTree, label: &str) {
        let mut stack = vec![(tree.root, reference.root)];
        let mut live = 0;
        while let Some((a, b)) = stack.pop() {
            live += 1;
            let (x, y) = (&tree.nodes[a], &reference.nodes[b]);
            let shape = |n: &Node| {
                (
                    n.start,
                    n.end,
                    n.is_leaf(),
                    n.kmax_l,
                    n.kmax_r,
                    n.max_kth_dist,
                    n.candidates,
                )
            };
            let bits =
                |n: &Node| [n.quality, n.potential, n.min_unexec_pq, n.min_cost].map(f64::to_bits);
            assert_eq!(shape(x), shape(y), "{label}: node shape");
            assert_eq!(
                bits(x),
                bits(y),
                "{label}: aggregates of [{}, {}]",
                x.start,
                x.end
            );
            assert_eq!(
                x.stamp, b,
                "{label}: build order of [{}, {}]",
                x.start, x.end
            );
            if let (Some(xl), Some(xr), Some(yl), Some(yr)) = (x.left, x.right, y.left, y.right) {
                stack.push((xr, yr));
                stack.push((xl, yl));
            }
        }
        let caches = |t: &VTree| -> Vec<_> {
            t.slots
                .iter()
                .map(|s| (s.pq.to_bits(), s.kth, s.sum))
                .collect()
        };
        assert_eq!(caches(tree), caches(reference), "{label}: slot caches");
        assert!(
            tree.nodes.len() <= 2 * live + 4,
            "{label}: {} arena nodes for {live} live ones",
            tree.nodes.len()
        );
    }

    #[test]
    fn incremental_upkeep_matches_the_rebuild_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x1c9e);
        for m in [1, 2, 5, 17, 96] {
            for k in 1..=5 {
                for ts in [1, 4, 96] {
                    for mixed in [false, true] {
                        let mut ev = QualityEvaluator::with_slots(m, k);
                        let costs: Vec<_> = (0..m).map(|_| Some(rng.gen_range(0.5..4.0))).collect();
                        let mut tree = VTree::build(&ev, costs.clone(), VTreeConfig::new(ts));
                        let mut expected = reference::build(&ev, costs, ts);
                        let label = |n: usize| format!("m={m} k={k} ts={ts} mixed={mixed} n={n}");
                        assert_same_tree(&tree, &expected, &label(0));
                        let mut order: Vec<usize> = (0..m).collect();
                        for i in (1..m).rev() {
                            order.swap(i, rng.gen_range(0..=i));
                        }
                        for (n, slot) in order.into_iter().enumerate() {
                            if rng.gen_bool(0.2) {
                                // A conflict fallback moves some slot's cost.
                                let at = rng.gen_range(0..m);
                                let cost = rng.gen_bool(0.8).then(|| rng.gen_range(0.5..4.0));
                                tree.update_cost(&ev, at, cost);
                                expected.update_cost(&ev, at, cost);
                            }
                            let reliability = if mixed && rng.gen_bool(0.5) {
                                rng.gen_range(0.2..1.0)
                            } else {
                                1.0
                            };
                            assert!(ev.execute_with_reliability(slot, reliability));
                            tree.notify_executed(&ev, slot);
                            reference::notify_executed(&mut expected, &ev, slot);
                            assert_same_tree(&tree, &expected, &label(n + 1));
                        }
                        assert!(tree.recomputed_slots() <= expected.recomputed_slots());
                        assert!(tree.nodes_built() <= expected.nodes.len());
                    }
                }
            }
        }
    }

    #[test]
    fn a_rebuilt_tree_is_a_fresh_build() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x7e5e);
        // A dirty tree of another shape, executed and re-costed.
        let dirty_ev = evaluator(40, 2, &[3, 17, 30]);
        let mut dirty = VTree::build(&dirty_ev, uniform_costs(40, 2.0), VTreeConfig::new(2));
        let mut dirty_after = dirty_ev.clone();
        dirty_after.execute(9);
        dirty.notify_executed(&dirty_after, 9);
        dirty.update_cost(&dirty_after, 11, None);
        for m in [1, 2, 17, 96] {
            for k in [1, 3] {
                for ts in [1, 4] {
                    for executed in [0, m / 3] {
                        let slots: Vec<usize> = (0..executed).map(|i| i * 3 % m).collect();
                        let ev = evaluator(m, k, &slots);
                        let costs: Vec<_> = (0..m)
                            .map(|_| rng.gen_bool(0.9).then(|| rng.gen_range(0.5..4.0)))
                            .collect();
                        let mut tree = dirty.clone();
                        tree.rebuild(&ev, costs.iter().copied(), VTreeConfig::new(ts));
                        let fresh = VTree::build(&ev, costs, VTreeConfig::new(ts));
                        // Every field, counters and build stamps included.
                        assert_eq!(
                            format!("{tree:?}"),
                            format!("{fresh:?}"),
                            "m={m} k={k} ts={ts} executed={executed}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gain_walks_bit_identically_on_a_shape_without_a_table() {
        // `k·m + 1 > 65_536`: no unit-reliability table exists, so
        // `VTree::gain` keeps the neighbour walk even with unit reliabilities,
        // and the upkeep re-walks every slot an execution reaches.
        let (m, k) = (21_846, 3);
        let mut ev = QualityEvaluator::with_slots(m, k);
        assert!(ev.unit_partial_table().is_none());
        let mut tree = VTree::build(&ev, uniform_costs(m, 1.0), VTreeConfig::default());
        let mut expected = reference::build(&ev, uniform_costs(m, 1.0), 4);
        let probes = [
            0, 1, 99, 100, 101, 2_500, 5_000, 10_922, 10_923, 17_000, 21_844, 21_845,
        ];
        for slot in [5_000, 100, 17_001, 10_923, 21_845] {
            ev.execute(slot);
            tree.notify_executed(&ev, slot);
            reference::notify_executed(&mut expected, &ev, slot);
            // A repeated notification finds nothing new.
            tree.notify_executed(&ev, slot);
            assert_same_tree(&tree, &expected, &format!("after executing {slot}"));
            for &t in &probes {
                let cached = tree.gain(&ev, t);
                let full = tree.gain_uncached(&ev, t);
                assert_eq!(
                    cached.to_bits(),
                    full.to_bits(),
                    "after executing {slot}, slot {t}: {cached} vs {full}"
                );
            }
        }
    }

    #[test]
    fn gain_of_executed_slot_is_zero() {
        let ev = evaluator(40, 2, &[10]);
        let tree = VTree::build(&ev, uniform_costs(40, 1.0), VTreeConfig::default());
        assert_eq!(tree.gain(&ev, 10), 0.0);
    }

    #[test]
    fn notify_executed_keeps_tree_consistent() {
        let mut ev = evaluator(96, 3, &[]);
        let mut tree = VTree::build(&ev, uniform_costs(96, 1.0), VTreeConfig::default());
        for slot in [48, 10, 70, 11, 90, 0, 30] {
            ev.execute(slot);
            tree.notify_executed(&ev, slot);
            assert_eq!(
                tree.slot_quality_sum().to_bits(),
                ev.quality().to_bits(),
                "after executing {slot}"
            );
            // Gains must stay exact after updates.
            for probe in [5, 33, 60, 95] {
                let expected = ev.gain_if_executed(probe);
                let got = tree.gain(&ev, probe);
                assert!(
                    (expected - got).abs() < 1e-9,
                    "probe {probe} after executing {slot}: {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn best_slot_matches_brute_force() {
        let mut ev = evaluator(60, 3, &[]);
        // Varying costs to exercise the heuristic denominator.
        let costs: Vec<Option<f64>> = (0..60).map(|i| Some(1.0 + (i % 7) as f64 * 0.5)).collect();
        let mut tree = VTree::build(&ev, costs.clone(), VTreeConfig::default());
        let mut stats = SearchStats::default();
        for _ in 0..8 {
            let best = tree.best_slot(&ev, f64::INFINITY, &mut stats).unwrap();
            // Brute force: maximum gain/cost over all unexecuted slots.
            let mut best_ratio = f64::NEG_INFINITY;
            for (slot, cost) in costs.iter().enumerate() {
                if ev.is_executed(slot) {
                    continue;
                }
                let ratio = ev.gain_if_executed(slot) / cost.unwrap();
                if ratio > best_ratio {
                    best_ratio = ratio;
                }
            }
            assert!(
                (best.heuristic - best_ratio).abs() < 1e-9,
                "best-first {} vs brute force {}",
                best.heuristic,
                best_ratio
            );
            ev.execute(best.slot);
            tree.notify_executed(&ev, best.slot);
        }
    }

    #[test]
    fn best_slot_respects_max_cost() {
        let ev = evaluator(20, 2, &[]);
        let costs: Vec<Option<f64>> = (0..20)
            .map(|i| Some(if i < 10 { 5.0 } else { 1.0 }))
            .collect();
        let tree = VTree::build(&ev, costs, VTreeConfig::default());
        let mut stats = SearchStats::default();
        let best = tree.best_slot(&ev, 2.0, &mut stats).unwrap();
        assert!(best.slot >= 10, "must pick an affordable slot");
        assert!(best.cost <= 2.0);
    }

    #[test]
    fn best_slot_none_when_no_candidates() {
        let ev = evaluator(10, 2, &[]);
        let tree = VTree::build(&ev, vec![None; 10], VTreeConfig::default());
        let mut stats = SearchStats::default();
        assert!(tree.best_slot(&ev, f64::INFINITY, &mut stats).is_none());
    }

    #[test]
    fn pruning_kicks_in_once_executions_accumulate() {
        let mut ev = evaluator(400, 3, &[]);
        // Slots in the second half of the timeline are far from any worker
        // (high assignment cost): their heuristic values cannot compete, so
        // the upper bound prunes them without exact evaluation.
        let costs: Vec<Option<f64>> = (0..400)
            .map(|i| Some(if i < 200 { 1.0 } else { 50.0 }))
            .collect();
        let mut tree = VTree::build(&ev, costs, VTreeConfig::default());
        // Execute a spread of slots so that k-NN reach shrinks.
        for slot in (0..400).step_by(25) {
            ev.execute(slot);
            tree.notify_executed(&ev, slot);
        }
        let mut stats = SearchStats::default();
        let _ = tree.best_slot(&ev, f64::INFINITY, &mut stats);
        assert!(
            stats.pruning_ratio() > 0.3,
            "expected meaningful pruning, got ratio {} ({} / {})",
            stats.pruning_ratio(),
            stats.evaluated_slots,
            stats.candidate_slots
        );
    }

    #[test]
    fn update_cost_changes_candidate_selection() {
        let ev = evaluator(30, 2, &[15]);
        let mut tree = VTree::build(&ev, uniform_costs(30, 1.0), VTreeConfig::default());
        let mut stats = SearchStats::default();
        let before = tree.best_slot(&ev, f64::INFINITY, &mut stats).unwrap();
        // Make the previously best slot prohibitively expensive.
        tree.update_cost(&ev, before.slot, Some(1000.0));
        let after = tree.best_slot(&ev, f64::INFINITY, &mut stats).unwrap();
        assert_ne!(before.slot, after.slot);
        // Removing the cost entirely excludes the slot.
        tree.update_cost(&ev, after.slot, None);
        let third = tree.best_slot(&ev, f64::INFINITY, &mut stats).unwrap();
        assert_ne!(third.slot, after.slot);
    }

    #[test]
    fn search_stats_merge_accumulates() {
        let mut a = SearchStats {
            evaluated_slots: 2,
            candidate_slots: 10,
            visited_nodes: 3,
            pruned_nodes: 1,
        };
        let b = SearchStats {
            evaluated_slots: 3,
            candidate_slots: 5,
            visited_nodes: 2,
            pruned_nodes: 4,
        };
        a.merge(&b);
        assert_eq!(a.evaluated_slots, 5);
        assert_eq!(a.candidate_slots, 15);
        assert_eq!(a.visited_nodes, 5);
        assert_eq!(a.pruned_nodes, 5);
        assert!((a.pruning_ratio() - (1.0 - 5.0 / 15.0)).abs() < 1e-12);
    }
}
