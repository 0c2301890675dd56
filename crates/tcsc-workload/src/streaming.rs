//! Streaming workloads: task batches arriving over rounds.
//!
//! The batched/streaming assignment engine consumes task *arrivals* rather
//! than one fixed task set: every round a new batch of tasks enters the
//! system while the worker pool (and its occupancy) persists.
//! [`StreamingScenario`] models that setting deterministically by generating
//! one ordinary [`Scenario`] and splitting its task set into per-round
//! batches, so that the concatenation of all rounds is exactly the task set
//! of the equivalent one-shot scenario — the property the engine's
//! `submit`/`drain` equivalence tests rely on.

use tcsc_core::{Domain, Task, WorkerPool};

use crate::distribution::SpatialDistribution;
use crate::scenario::{Scenario, ScenarioConfig, TaskPlacement};

/// Configuration of a streaming workload.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingConfig {
    /// The underlying scenario parameters (`num_tasks` is overridden to
    /// `rounds * tasks_per_round`).
    pub base: ScenarioConfig,
    /// Number of arrival rounds.
    pub rounds: usize,
    /// Number of tasks arriving per round.
    pub tasks_per_round: usize,
}

impl StreamingConfig {
    /// A streaming workload over the given base scenario.
    ///
    /// # Panics
    /// Panics when `rounds` or `tasks_per_round` is zero: the generated
    /// scenario guarantees `rounds.len() == config.rounds` with
    /// `tasks_per_round` tasks each, which is unsatisfiable for empty rounds.
    pub fn new(base: ScenarioConfig, rounds: usize, tasks_per_round: usize) -> Self {
        assert!(rounds > 0, "a streaming workload needs at least one round");
        assert!(
            tasks_per_round > 0,
            "a streaming workload needs at least one task per round"
        );
        Self {
            base,
            rounds,
            tasks_per_round,
        }
    }

    /// A CI-sized streaming workload derived from [`ScenarioConfig::small`].
    pub fn small(rounds: usize, tasks_per_round: usize) -> Self {
        Self::new(ScenarioConfig::small(), rounds, tasks_per_round)
    }

    /// A region-partitioned streaming workload: task locations are drawn
    /// from [`SpatialDistribution::RegionGrid`] over a `regions x regions`
    /// lattice, so every arrival clusters strictly inside one region cell
    /// (workers still roam the whole domain).  The simulated cluster's
    /// figures run on this shape (`fig9dist`): matching its region grid to
    /// `regions` homes every task of a region on one node.
    pub fn region_partitioned(
        base: ScenarioConfig,
        regions: usize,
        rounds: usize,
        tasks_per_round: usize,
    ) -> Self {
        let base = base.with_placement(TaskPlacement::Synthetic(SpatialDistribution::region_grid(
            regions,
        )));
        Self::new(base, rounds, tasks_per_round)
    }

    /// Generates the streaming scenario deterministically.
    pub fn build(&self) -> StreamingScenario {
        let scenario = self
            .base
            .clone()
            .with_num_tasks(self.rounds * self.tasks_per_round)
            .build();
        let Scenario {
            tasks,
            workers,
            domain,
            ..
        } = scenario;
        let rounds = tasks
            .chunks(self.tasks_per_round)
            .map(|chunk| chunk.to_vec())
            .collect();
        StreamingScenario {
            rounds,
            workers,
            domain,
            config: self.clone(),
        }
    }
}

/// A fully generated streaming workload: per-round task batches over one
/// persistent worker pool.
#[derive(Debug, Clone)]
pub struct StreamingScenario {
    /// Task batches in arrival order; `rounds[r]` arrives in round `r`.
    pub rounds: Vec<Vec<Task>>,
    /// The registered workers (shared by every round).
    pub workers: WorkerPool,
    /// The spatial domain.
    pub domain: Domain,
    /// The configuration that produced the scenario.
    pub config: StreamingConfig,
}

impl StreamingScenario {
    /// Total number of tasks across all rounds.
    pub fn num_tasks(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// All tasks in arrival order, as the equivalent one-shot batch.
    pub fn concatenated(&self) -> Vec<Task> {
        self.rounds.iter().flatten().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_partition_the_equivalent_batch_scenario() {
        let streaming = StreamingConfig::small(3, 4).build();
        assert_eq!(streaming.rounds.len(), 3);
        assert!(streaming.rounds.iter().all(|r| r.len() == 4));
        assert_eq!(streaming.num_tasks(), 12);
        // The concatenation equals the one-shot scenario's task set.
        let batch = ScenarioConfig::small().with_num_tasks(12).build();
        assert_eq!(streaming.concatenated(), batch.tasks);
        assert_eq!(streaming.workers, batch.workers);
    }

    #[test]
    fn same_seed_reproduces_the_stream() {
        let a = StreamingConfig::small(2, 3).build();
        let b = StreamingConfig::small(2, 3).build();
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    #[should_panic(expected = "at least one task per round")]
    fn zero_tasks_per_round_is_rejected() {
        let _ = StreamingConfig::small(3, 0);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_is_rejected() {
        let _ = StreamingConfig::small(0, 3);
    }

    #[test]
    fn region_partitioned_rounds_cluster_inside_region_cells() {
        let streaming =
            StreamingConfig::region_partitioned(ScenarioConfig::small(), 4, 3, 4).build();
        assert_eq!(streaming.rounds.len(), 3);
        let side = streaming.domain.width() / 4.0;
        for task in streaming.concatenated() {
            for c in [task.location.x, task.location.y] {
                let offset = c.rem_euclid(side);
                let to_boundary = offset.min(side - offset);
                assert!(
                    to_boundary > 0.0,
                    "task at {} sits on a region boundary",
                    task.location
                );
            }
        }
    }

    #[test]
    fn task_ids_are_unique_across_rounds() {
        let streaming = StreamingConfig::small(4, 3).build();
        let mut seen = std::collections::HashSet::new();
        for task in streaming.concatenated() {
            assert!(seen.insert(task.id), "duplicate task id across rounds");
        }
    }
}
