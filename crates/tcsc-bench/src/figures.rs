//! Per-figure experiment drivers.
//!
//! Every public function regenerates one figure of the paper's evaluation
//! (or one repo-extension figure) and returns it as a [`Report`]: the
//! plotted series as rows, plus named scalars, gates and extra files.  The
//! `Scale` parameter switches between CI-sized workloads (`Quick`) and
//! workloads close to the paper's parameters (`Full`).

mod extensions;
mod paper;

pub use extensions::{fig9dist, fig9mob, fig9obs, fig9svc};
pub use paper::{
    fig11a, fig11b, fig11c, fig6a, fig6b, fig7a, fig7b, fig7c, fig7d, fig8a, fig8b, fig8c, fig8d,
    fig8e, fig8f, fig8g, fig8h, fig9a, fig9b, fig9c, fig9d, fig9e, fig9f, fig9g, fig9h, fig9i,
};

use crate::{Report, Scale};

/// A figure driver.
pub type Driver = fn(Scale) -> Report;

/// Every figure driver by id, in figure order — the one id table the
/// `experiments` binary and [`by_id`] read.
pub const FIGURES: &[(&str, Driver)] = &[
    ("fig6a", fig6a),
    ("fig6b", fig6b),
    ("fig7a", fig7a),
    ("fig7b", fig7b),
    ("fig7c", fig7c),
    ("fig7d", fig7d),
    ("fig8a", fig8a),
    ("fig8b", fig8b),
    ("fig8c", fig8c),
    ("fig8d", fig8d),
    ("fig8e", fig8e),
    ("fig8f", fig8f),
    ("fig8g", fig8g),
    ("fig8h", fig8h),
    ("fig9a", fig9a),
    ("fig9b", fig9b),
    ("fig9c", fig9c),
    ("fig9d", fig9d),
    ("fig9e", fig9e),
    ("fig9f", fig9f),
    ("fig9g", fig9g),
    ("fig9h", fig9h),
    ("fig9i", fig9i),
    ("fig9dist", fig9dist),
    ("fig9obs", fig9obs),
    ("fig9svc", fig9svc),
    ("fig9mob", fig9mob),
    ("fig11a", fig11a),
    ("fig11b", fig11b),
    ("fig11c", fig11c),
];

/// The driver of one figure by id (`"fig6a"`, `"fig9svc"`, ...).
pub fn by_id(id: &str) -> Option<Driver> {
    FIGURES
        .iter()
        .find(|(name, _)| *name == id)
        .map(|(_, run)| *run)
}

#[cfg(test)]
mod tests {
    use tcsc_assign::AssignmentEngine;
    use tcsc_core::EuclideanCost;
    use tcsc_sim::LatencyModel;
    use tcsc_workload::PhaseSchedule;

    use super::extensions::{
        fig9dist_sized, fig9mob_sized, fig9obs_sized, fig9svc_sized, service_run,
        svc_latency_session, Maintenance, ServiceLoad, SVC_SERVICE_US,
    };
    use super::*;

    /// The report's `BENCH_<id>.json`, checked for balanced nesting and its
    /// figure id.
    fn bench_json(report: &Report, id: &str) -> String {
        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains(&format!("\"figure\": \"{id}\",")), "{json}");
        json
    }

    /// Asserts every `"name":` key appears in the JSON (scalars and row
    /// series serialise as `"name": value`).
    fn assert_fields(json: &str, names: &[&str]) {
        for name in names {
            assert!(
                json.contains(&format!("\"{name}\": ")),
                "{name} missing:\n{json}"
            );
        }
    }

    /// Asserts the named gates are present in the JSON and held.
    fn assert_gates_pass(json: &str, gates: &[&str]) {
        for gate in gates {
            assert!(
                json.contains(&format!("\"name\": \"{gate}\", \"pass\": true")),
                "gate {gate} missing or failed:\n{json}"
            );
        }
    }

    /// Asserts the named gates are present in the JSON, whatever their
    /// verdict (wall-clock gates are not meaningful on a test-sized run).
    fn assert_gates_present(json: &str, gates: &[&str]) {
        for gate in gates {
            assert!(
                json.contains(&format!("\"name\": \"{gate}\", \"pass\": ")),
                "gate {gate} missing:\n{json}"
            );
        }
    }

    #[test]
    fn fig9mob_json_is_well_formed() {
        let report = fig9mob_sized(2_000, 400);
        let json = bench_json(&report, "fig9mob");
        assert_fields(
            &json,
            &[
                "workers",
                "capacity",
                "final_ledger",
                "mutate_plan_hash",
                "rebuild_plan_hash",
                "Speedup",
                "Spliced",
            ],
        );
        assert_gates_pass(&json, &["plan_hash_match"]);
        assert_gates_present(&json, &["maintenance_speedup_ok"]);
    }

    #[test]
    fn fig9dist_json_is_well_formed() {
        let report = fig9dist_sized(
            2,
            2,
            3,
            8,
            60,
            &[1, 2],
            &[LatencyModel::Zero, LatencyModel::Fixed(200)],
        );
        let json = bench_json(&report, "fig9dist");
        assert_fields(
            &json,
            &[
                "num_tasks",
                "rounds",
                "sim_plan_hash",
                "engine_plan_hash",
                "VirtualMs",
            ],
        );
        assert!(json.contains("\"label\": \"n=2 fixed:200us\", \"VirtualMs\": "));
        assert_eq!(
            report.rows.len(),
            4,
            "one row per node count x latency cell"
        );
        assert_gates_pass(&json, &["plan_hash_matches", "sweep_plans_match"]);
    }

    #[test]
    fn fig9obs_json_is_well_formed() {
        let report = fig9obs_sized(
            &[1, 2],
            &[
                LatencyModel::Zero,
                LatencyModel::Uniform { min: 20, max: 4000 },
            ],
            16,
            300,
            1,
        );
        let json = bench_json(&report, "fig9obs");
        assert_fields(&json, &["digest", "NoopMs", "RecordedMs", "DigestOk"]);
        assert!(
            json.contains("\"digest\": \"0x"),
            "the digest is a hex hash"
        );
        assert_eq!(report.rows.len(), 5, "overhead row plus one row per cell");
        assert_gates_pass(&json, &["digest_uniform", "digest_match"]);
        assert_gates_present(&json, &["overhead_ok"]);
        let files: Vec<_> = report.artifacts.iter().map(|(name, _)| *name).collect();
        assert_eq!(files, ["TRACE_fig9obs.jsonl", "OBS_SUMMARY.txt"]);
    }

    #[test]
    fn fig9svc_json_is_well_formed() {
        // Enough tasks to reach the recovery phase of the first rush-hour
        // cycle, so every phase row is populated.
        let report = fig9svc_sized(12_000, 800);
        let json = bench_json(&report, "fig9svc");
        assert_fields(
            &json,
            &[
                "workers",
                "capacity",
                "virtual_end_us",
                "peak_queue_depth",
                "released",
                "final_ledger",
                "noop_plan_hash",
                "obs_plan_hash",
                "WinP99us",
            ],
        );
        for phase in ["calm", "rush", "recovery"] {
            assert!(json.contains(&format!("\"label\": \"{phase}\", \"Arrivals\": ")));
        }
        assert_gates_pass(
            &json,
            &[
                "p99_finite",
                "throughput_positive",
                "plan_hash_match",
                "ledger_bounded",
            ],
        );
        assert_gates_present(&json, &["profile_within_bound"]);
        let files: Vec<_> = report.artifacts.iter().map(|(name, _)| *name).collect();
        assert_eq!(
            files,
            [
                "TRACE_fig9svc.jsonl",
                "PROFILE_fig9svc.txt",
                "SVC_SUMMARY.txt"
            ]
        );
    }

    // The figure drivers are exercised end-to-end by the `experiments`
    // binary; here we only smoke-test the cheapest quality figures so
    // `cargo test` stays fast.

    #[test]
    fn fig6a_quick_produces_four_rows_with_expected_ordering() {
        let exp = fig6a(Scale::Quick);
        assert_eq!(exp.rows.len(), 4);
        for row in &exp.rows {
            let get = |name: &str| {
                row.values
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            assert!(
                get("Opt") + 1e-9 >= get("Approx"),
                "OPT must dominate Approx"
            );
            assert!(get("RandMax") + 1e-9 >= get("RandMin"));
            assert!(
                get("Approx") + 1e-9 >= get("RandMin"),
                "Approx must beat RandMin"
            );
        }
    }

    #[test]
    fn by_id_knows_every_figure() {
        // Only check the id table, not the (expensive) runs: ids are unique,
        // all 30 figures are present, and unknown ids are rejected.
        let unique: std::collections::HashSet<_> = FIGURES.iter().map(|(id, _)| id).collect();
        assert_eq!(unique.len(), FIGURES.len());
        assert_eq!(FIGURES.len(), 30);
        for id in [
            "fig6a", "fig9i", "fig9dist", "fig9obs", "fig9svc", "fig9mob",
        ] {
            assert!(by_id(id).is_some(), "{id} missing");
        }
        assert!(by_id("nonexistent").is_none());
    }

    #[test]
    fn fig9svc_service_run_is_deterministic_and_gc_empties_the_ledger() {
        // A miniature stream (one short rush-hour cycle, 8k tasks) through
        // the real service loop: an observed and an unobserved pass must
        // fold the identical plan hash, the retired-task GC must release
        // every execution, the rush phase must see a worse latency tail than
        // calm, and every phase must report a windowed p99 — the stream ends
        // long after the rush, so a window read only at stream end has
        // rotated past it.
        const TASKS: usize = 8000;
        let mut load = ServiceLoad::new(TASKS, 300);
        load.arrivals.seed = 7;
        load.arrivals.schedule = PhaseSchedule::rush_hour(200_000, 20_000, 4.0);
        let index = load.index();
        let cost = EuclideanCost::default();
        let service = Some(SVC_SERVICE_US);

        let mut a = AssignmentEngine::borrowed(&index, &cost, load.config());
        let session = svc_latency_session();
        let run_a = service_run(&mut a, &load, service, None, Some(&session));
        let mut b = AssignmentEngine::borrowed(&index, &cost, load.config());
        let run_b = service_run(&mut b, &load, service, None, None);

        assert_eq!(
            run_a.plan_hash, run_b.plan_hash,
            "the service loop is seeded"
        );
        assert_eq!(run_a.commits, TASKS as u64);
        assert_eq!(run_a.commits, run_b.commits);
        assert_eq!(run_a.executions, run_b.executions);
        assert!(run_a.executions > 0);
        assert_eq!(
            run_a.released, run_a.executions,
            "the GC must return every committed occupancy"
        );
        assert_eq!(run_a.final_ledger, 0, "the ledger drains to empty");
        assert!(run_a.peak_ledger > 0);
        assert!(
            (run_a.peak_ledger as u64) < run_a.executions,
            "GC keeps the peak ledger below the lifetime execution count"
        );
        // The rush backlog stretches the tail: rush-arrived tasks wait
        // longer than calm-arrived ones at the 99th percentile.
        let calm_p99 = run_a.phase_hist[0].quantile(0.99);
        let rush_p99 = run_a.phase_hist[1].quantile(0.99);
        assert!(
            rush_p99 > calm_p99,
            "rush p99 ({rush_p99}us) must exceed calm p99 ({calm_p99}us)"
        );
        assert!(
            run_a.phase_window_p99.iter().all(|&p99| p99 > 0),
            "every phase reports a windowed p99: {:?}",
            run_a.phase_window_p99
        );
    }

    #[test]
    fn service_run_with_gc_and_motion_matches_across_maintenance() {
        // `mob-churn`'s shape, which neither figure runs: the retired-task
        // GC and a motion tape together.  Mutating in place and rebuilding
        // before each drain must commit the same plans and release every
        // commitment exactly once — by the GC, by `remove_worker`, or by the
        // rebuilt index dropping a worker gone offline.
        let load = ServiceLoad::new(2_000, 400);
        let tape = load.motion_tape();
        let cost = EuclideanCost::default();
        let pass = |mode| {
            let mut engine = AssignmentEngine::new(load.index(), &cost, load.config());
            service_run(
                &mut engine,
                &load,
                Some(SVC_SERVICE_US),
                Some((&tape, mode)),
                None,
            )
        };
        let mutate = pass(Maintenance::Mutate);
        let rebuild = pass(Maintenance::Rebuild);

        assert!(mutate.moves > 0 && mutate.offline > 0, "the tape is live");
        assert!(rebuild.rebuilds > 0);
        assert_eq!(mutate.plan_hash, rebuild.plan_hash);
        assert_eq!(mutate.executions, rebuild.executions);
        assert!(mutate.executions > 0);
        assert_eq!(mutate.released, rebuild.released);
        assert_eq!(mutate.released, mutate.executions);
        assert_eq!(mutate.final_ledger, 0);
        assert_eq!(rebuild.final_ledger, 0);
    }

    #[test]
    fn fig8c_json_carries_the_vtree_gain_row() {
        let json = bench_json(&fig8c(Scale::Quick), "fig8c");
        assert!(
            json.contains("\"label\": \"vtree_gain\", \"Executed0Us\": "),
            "{json}"
        );
        assert_fields(&json, &["Executed3Us", "Executed12Us"]);
    }

    #[test]
    fn fig9i_engine_never_recomputes_more_than_the_rebuild_baseline() {
        let exp = fig9i(Scale::Quick);
        assert!(!exp.rows.is_empty());
        for row in &exp.rows {
            let get = |name: &str| {
                row.values
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            assert!(
                get("EngineSlotComps") < get("FreshSlotComps"),
                "engine must amortise candidate computations across the sweep ({})",
                row.label
            );
        }
    }
}
