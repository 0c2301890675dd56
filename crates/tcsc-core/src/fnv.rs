//! FNV-1a hashing of plans and event streams: the one copy behind every
//! plan hash and delivery digest the workspace pins.
//!
//! A hash is a pure function of its input bytes, so the same plans give the
//! same [`plan_hash`] on every run, driver and machine, and any change to a
//! task id, slot, worker, quality bit or cost bit changes it (barring a
//! collision).  Streams of plan hashes are combined with the
//! order-sensitive [`fold`].

use crate::assignment::MultiAssignment;

/// FNV-1a offset basis: the hash of no bytes, and the start of every fold.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a hash.
pub fn hash_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// FNV-1a over every plan's task id, slot count and quality bits, then each
/// execution's slot, worker id and cost bits, as little-endian `u64`s.
pub fn plan_hash(assignment: &MultiAssignment) -> u64 {
    let mut h = OFFSET;
    let mut eat = |value: u64| h = hash_bytes(h, &value.to_le_bytes());
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

/// Folds one solve's plan hash into a stream hash, starting from
/// [`OFFSET`].  Order matters: the same plans in a different solve order
/// give a different fold.
pub fn fold(acc: u64, hash: u64) -> u64 {
    (acc.rotate_left(7) ^ hash).wrapping_mul(PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::AssignmentPlan;
    use crate::model::TaskId;

    #[test]
    fn no_plans_hash_to_the_offset_basis() {
        assert_eq!(plan_hash(&MultiAssignment::default()), OFFSET);
        assert_eq!(hash_bytes(OFFSET, &[]), OFFSET);
    }

    #[test]
    fn plans_and_folds_are_order_sensitive() {
        let plan = |id| AssignmentPlan::empty(TaskId(id), 4);
        let ab = MultiAssignment::new(vec![plan(1), plan(2)]);
        let ba = MultiAssignment::new(vec![plan(2), plan(1)]);
        assert_ne!(plan_hash(&ab), plan_hash(&ba));
        let (a, b) = (plan_hash(&ab), plan_hash(&ba));
        assert_ne!(fold(fold(OFFSET, a), b), fold(fold(OFFSET, b), a));
    }
}
