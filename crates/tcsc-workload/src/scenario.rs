//! Experiment scenarios: the parameter sets of the paper's evaluation
//! (Section V-A) bundled with deterministic workload generation.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tcsc_core::{Domain, Task, WorkerPool};

use crate::distribution::SpatialDistribution;
use crate::poi::{PoiConfig, PoiDataset};
use crate::tasks::{generate_tasks, tasks_from_locations};
use crate::trajectory::{generate_workers, TrajectoryConfig};

/// How task locations are drawn.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskPlacement {
    /// A synthetic spatial distribution (uniform / Gaussian / Zipf / ...).
    Synthetic(SpatialDistribution),
    /// Sampled from a synthetic POI dataset (the "real dataset" substitute).
    Poi(PoiConfig),
}

impl TaskPlacement {
    /// Label used in benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Synthetic(d) => d.label(),
            Self::Poi(_) => "Real(POI)",
        }
    }
}

/// Full description of an experiment scenario: the workload only.  The
/// solver parameters of the paper's setup (interpolation `k`, split
/// threshold `ts`) are not part of it; they live in the solvers' own
/// configurations (`tcsc_assign::MultiTaskConfig` and `SingleTaskConfig`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Number of TCSC tasks `|T|` (paper: 100 / 300 / 500, default 100).
    pub num_tasks: usize,
    /// Number of subtasks per task `m` (paper: 300 / 500 / 1000, default 500).
    pub num_slots: usize,
    /// Number of registered workers `|W|` (paper: the 10,357 T-Drive
    /// trajectories; scaled down by default for laptop-scale runs).
    pub num_workers: usize,
    /// Budget `b` per task-assignment problem (paper: 50 / 100 / 200).
    pub budget: f64,
    /// Task placement.
    pub placement: TaskPlacement,
    /// Side length of the square spatial domain.
    pub domain_side: f64,
    /// Worker-trajectory configuration.
    pub trajectories: TrajectoryConfig,
    /// RNG seed so that every scenario is reproducible.
    pub seed: u64,
}

impl ScenarioConfig {
    /// The paper's default parameterisation, scaled to the requested number of
    /// workers (use `10_357` for the full-size setup).
    pub fn paper_default() -> Self {
        let domain_side = 100.0;
        Self {
            num_tasks: 100,
            num_slots: 500,
            num_workers: 10_357,
            budget: 100.0,
            placement: TaskPlacement::Synthetic(SpatialDistribution::Uniform),
            domain_side,
            trajectories: TrajectoryConfig::paper_default(500),
            seed: 42,
        }
    }

    /// A scaled-down variant that exercises the same code paths within
    /// seconds on a laptop / CI machine.
    pub fn small() -> Self {
        Self {
            num_tasks: 10,
            num_slots: 60,
            num_workers: 400,
            budget: 30.0,
            placement: TaskPlacement::Synthetic(SpatialDistribution::Uniform),
            domain_side: 100.0,
            trajectories: TrajectoryConfig::paper_default(60),
            seed: 42,
        }
    }

    /// Sets the number of subtasks per task (and matches the trajectory
    /// horizon to it).
    pub fn with_num_slots(mut self, m: usize) -> Self {
        self.num_slots = m;
        self.trajectories.horizon = m;
        self
    }

    /// Sets the number of tasks.
    pub fn with_num_tasks(mut self, t: usize) -> Self {
        self.num_tasks = t;
        self
    }

    /// Sets the number of workers.
    pub fn with_num_workers(mut self, w: usize) -> Self {
        self.num_workers = w;
        self
    }

    /// Sets the budget.
    pub fn with_budget(mut self, b: f64) -> Self {
        self.budget = b;
        self
    }

    /// Sets the task placement.
    pub fn with_placement(mut self, placement: TaskPlacement) -> Self {
        self.placement = placement;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the scenario deterministically.
    pub fn build(&self) -> Scenario {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let domain = Domain::square(self.domain_side);
        let tasks = match &self.placement {
            TaskPlacement::Synthetic(dist) => {
                generate_tasks(&mut rng, self.num_tasks, self.num_slots, dist, &domain)
            }
            TaskPlacement::Poi(cfg) => {
                let poi = PoiDataset::generate(&mut rng, &domain, *cfg);
                let locations = poi.sample_locations(&mut rng, self.num_tasks);
                tasks_from_locations(&locations, self.num_slots)
            }
        };
        let mut trajectories = self.trajectories.clone();
        trajectories.horizon = self.num_slots;
        let workers = generate_workers(&mut rng, self.num_workers, &domain, &trajectories);
        Scenario {
            tasks,
            workers,
            domain,
            config: self.clone(),
        }
    }
}

/// A fully generated scenario: tasks, workers and the spatial domain.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The TCSC tasks to assign.
    pub tasks: Vec<Task>,
    /// The registered workers.
    pub workers: WorkerPool,
    /// The spatial domain.
    pub domain: Domain,
    /// The configuration that produced the scenario.
    pub config: ScenarioConfig,
}

impl Scenario {
    /// The first task (convenient for single-task experiments).
    pub fn first_task(&self) -> &Task {
        &self.tasks[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_builds_consistently() {
        let scenario = ScenarioConfig::small().build();
        assert_eq!(scenario.tasks.len(), 10);
        assert_eq!(scenario.workers.len(), 400);
        assert!(scenario.tasks.iter().all(|t| t.num_slots == 60));
        assert!(scenario
            .tasks
            .iter()
            .all(|t| scenario.domain.contains(&t.location)));
    }

    #[test]
    fn builders_adjust_parameters() {
        let cfg = ScenarioConfig::small()
            .with_num_slots(80)
            .with_num_tasks(5)
            .with_num_workers(50)
            .with_budget(12.0)
            .with_seed(7);
        assert_eq!(cfg.num_slots, 80);
        assert_eq!(cfg.trajectories.horizon, 80);
        let scenario = cfg.build();
        assert_eq!(scenario.tasks.len(), 5);
        assert_eq!(scenario.workers.len(), 50);
        assert_eq!(scenario.config.budget, 12.0);
    }

    #[test]
    fn same_seed_gives_identical_scenarios() {
        let a = ScenarioConfig::small().with_seed(9).build();
        let b = ScenarioConfig::small().with_seed(9).build();
        assert_eq!(a.tasks, b.tasks);
        assert_eq!(a.workers, b.workers);
    }

    #[test]
    fn different_seeds_give_different_scenarios() {
        let a = ScenarioConfig::small().with_seed(1).build();
        let b = ScenarioConfig::small().with_seed(2).build();
        assert_ne!(a.tasks, b.tasks);
    }

    #[test]
    fn poi_placement_builds() {
        let cfg = ScenarioConfig::small().with_placement(TaskPlacement::Poi(PoiConfig::default()));
        assert_eq!(cfg.placement.label(), "Real(POI)");
        let scenario = cfg.build();
        assert_eq!(scenario.tasks.len(), 10);
    }

    #[test]
    fn paper_default_matches_section_v() {
        let cfg = ScenarioConfig::paper_default();
        assert_eq!(cfg.num_tasks, 100);
        assert_eq!(cfg.num_slots, 500);
        assert_eq!(cfg.num_workers, 10_357);
        assert_eq!(cfg.budget, 100.0);
    }
}
