//! Output checks: every solve's plans are validated against the submitted
//! batch, the budget, the worker index and the set of live commitments, and
//! folded into a plan hash that must repeat across passes.

use std::collections::BTreeMap;

use tcsc_assign::MultiOutcome;
use tcsc_core::{AssignmentPlan, MultiAssignment, SlotIndex, Task, TaskId, WorkerId};

/// Relative slack on the budget comparison (the engines sum `f64` costs).
const BUDGET_SLACK: f64 = 1e-9;

/// FNV-1a over every plan's task, slot count, quality and executions.
pub fn plan_hash(assignment: &MultiAssignment) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |value: u64| {
        for byte in value.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for plan in &assignment.plans {
        eat(u64::from(plan.task.0));
        eat(plan.num_slots as u64);
        eat(plan.quality.to_bits());
        for exec in &plan.executions {
            eat(exec.slot as u64);
            eat(u64::from(exec.worker.0));
            eat(exec.cost.to_bits());
        }
    }
    h
}

/// Folds one solve's plan hash into a stream hash (order-sensitive).
fn fold(acc: u64, h: u64) -> u64 {
    (acc.rotate_left(7) ^ h).wrapping_mul(0x0100_0000_01b3)
}

/// Running validator of one pass.
#[derive(Debug)]
pub struct Checker {
    /// Live commitments of committed, not yet released plans:
    /// `(worker, slot) -> task`.
    live: BTreeMap<(WorkerId, SlotIndex), TaskId>,
    /// Tasks submitted.
    pub attempted: usize,
    /// Tasks whose plan was missing or invalid.
    pub failed: usize,
    /// Executions committed.
    pub executions: u64,
    /// Folded plan hash of every solve, in order.
    pub hash: u64,
    /// First violation seen (for the report).
    pub first_violation: Option<String>,
    /// Whether every ledger reconciliation held.
    pub ledger_ok: bool,
}

impl Checker {
    pub fn new() -> Self {
        Self {
            live: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            executions: 0,
            hash: 0xcbf2_9ce4_8422_2325,
            first_violation: None,
            ledger_ok: true,
        }
    }

    fn violation(&mut self, what: String) {
        if self.first_violation.is_none() {
            self.first_violation = Some(what);
        }
    }

    /// Validates one solve of `tasks` under `budget` and records its plans
    /// as live commitments.  `available(slot, worker)` answers whether the
    /// index held the worker at the slot when the solve ran.
    pub fn solve(
        &mut self,
        tasks: &[Task],
        outcome: &MultiOutcome,
        budget: f64,
        available: impl Fn(SlotIndex, WorkerId) -> bool,
    ) {
        self.attempted += tasks.len();
        self.hash = fold(self.hash, plan_hash(&outcome.assignment));
        let plans = &outcome.assignment.plans;
        if plans.len() != tasks.len() {
            self.failed += tasks.len();
            self.violation(format!("{} plans for {} tasks", plans.len(), tasks.len()));
            return;
        }
        let spend = outcome.assignment.total_cost();
        let limit = budget + BUDGET_SLACK * budget.abs().max(1.0);
        if !(spend.is_finite() && spend <= limit) {
            self.failed += tasks.len();
            self.violation(format!("spend {spend} over budget {budget}"));
        }
        let executed: usize = plans.iter().map(|p| p.executions.len()).sum();
        if executed != outcome.executions {
            self.violation(format!(
                "{executed} planned executions, {} reported",
                outcome.executions
            ));
            self.failed += tasks.len();
        }
        for (task, plan) in tasks.iter().zip(plans) {
            if let Err(what) = self.commit(task, plan, &available) {
                self.failed += 1;
                self.violation(what);
            }
        }
        self.executions += executed as u64;
    }

    /// Checks one plan and records its executions as live.
    fn commit(
        &mut self,
        task: &Task,
        plan: &AssignmentPlan,
        available: &impl Fn(SlotIndex, WorkerId) -> bool,
    ) -> Result<(), String> {
        if plan.task != task.id || plan.num_slots != task.num_slots {
            return Err(format!(
                "plan for {:?} answers task {:?}",
                plan.task, task.id
            ));
        }
        if !plan.quality.is_finite() || plan.quality < 0.0 {
            return Err(format!("task {:?} has quality {}", task.id, plan.quality));
        }
        let mut result = Ok(());
        for exec in &plan.executions {
            if exec.slot >= task.num_slots || !available(exec.slot, exec.worker) {
                result = Err(format!(
                    "task {:?}: worker {:?} is not available at slot {}",
                    task.id, exec.worker, exec.slot
                ));
            } else if let Some(holder) = self.live.insert((exec.worker, exec.slot), task.id) {
                result = Err(format!(
                    "worker {:?} double-booked at slot {} by {:?} and {:?}",
                    exec.worker, exec.slot, holder, task.id
                ));
            }
        }
        result
    }

    /// Drops a retired plan's executions from the live commitments.
    pub fn release(&mut self, plan: &AssignmentPlan) {
        for exec in &plan.executions {
            if self.live.get(&(exec.worker, exec.slot)) == Some(&plan.task) {
                self.live.remove(&(exec.worker, exec.slot));
            }
        }
    }

    /// Drops every live commitment (re-planning from an empty ledger).
    pub fn release_all(&mut self) {
        self.live.clear();
    }

    /// Drops the live commitments of a worker that went offline, returning
    /// how many there were.
    pub fn remove_worker(&mut self, worker: WorkerId) -> usize {
        let held: Vec<_> = self
            .live
            .range((worker, 0)..=(worker, SlotIndex::MAX))
            .map(|(key, _)| *key)
            .collect();
        for key in &held {
            self.live.remove(key);
        }
        held.len()
    }

    /// Reconciles the engine's ledger size with the live commitments.
    pub fn ledger(&mut self, ledger_len: usize) {
        if ledger_len != self.live.len() {
            self.ledger_ok = false;
            let live = self.live.len();
            self.violation(format!("ledger holds {ledger_len}, live plans {live}"));
        }
    }

    /// Records an engine-side inconsistency the checks above do not cover.
    pub fn fail(&mut self, what: String) {
        self.ledger_ok = false;
        self.violation(what);
    }

    /// Whether no task failed and the ledger always reconciled.
    pub fn ok(&self) -> bool {
        self.failed == 0 && self.ledger_ok
    }
}
