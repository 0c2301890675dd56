//! Experiment runner: regenerates the rows of every figure in the paper's
//! evaluation.
//!
//! Usage:
//!
//! ```text
//! experiments [--quick|--full] [all | fig6a fig6b ... fig9s ... fig11c]
//! ```
//!
//! With no figure ids, every figure is run.  `--quick` (default) uses
//! CI-sized workloads; `--full` approaches the paper's parameters and can
//! take much longer.
//!
//! Running `fig9s` (directly or via `all`) additionally writes
//! `BENCH_fig9.json` — the machine-readable throughput/speedup-per-thread
//! artifact that tracks the sharded-engine perf trajectory across PRs.
//! Running `fig9p` writes `BENCH_fig9p.json` — the incremental-gain commit
//! engine against the full-refresh path (per-grant refresh cost, commit-tail
//! share) — and **exits non-zero** when the two strategies' outcomes diverge,
//! when the incremental path's measured per-grant refresh cost exceeds the
//! full path's, or when the incremental commit tail ran a full recompute.
//! Running `fig9dist` writes `BENCH_fig9d.json` — the distributed-runtime
//! sweep (node count × latency) including the
//! zero-latency-sim-vs-engine plan-hash gate, and **exits non-zero when the
//! hashes disagree** so CI fails loudly.
//! Running `fig9obs` writes `BENCH_obs.json`, a chrome://tracing dump
//! (`TRACE_fig9obs.jsonl`, loadable in Perfetto) and a plain-text
//! `OBS_SUMMARY.txt`, and **exits non-zero** when the logical digest differs
//! across cluster layouts, when the exported trace fails to replay to the
//! same digest, or when a live recorder costs more than noise over the
//! statically-dispatched no-op baseline.
//! Running `fig9svc` writes `BENCH_svc.json` (per-phase windowed latency
//! SLOs of the streaming service driver), `TRACE_fig9svc.jsonl` (the engine
//! wall-clock spans and gauge tracks), `PROFILE_fig9svc.txt` (collapsed
//! stacks, pipe into flamegraph.pl) and `SVC_SUMMARY.txt`, and **exits
//! non-zero** when any phase's p99 is missing, when any phase's committed
//! throughput is zero, when the obs-on plan hash diverges from the
//! unobserved pass, when the retired-task GC fails to bound the occupancy
//! ledger, or when the span-tree profile's self-time disagrees with the
//! measured drain wall clock by more than 5%.
//! Running `fig9mob` writes `BENCH_fig9m.json` (mobile-worker service loop:
//! mutate-in-place index maintenance vs rebuild-per-drain) and **exits
//! non-zero** when the two passes' folded plan hashes diverge or when
//! in-place maintenance fails to be at least 5× cheaper than the rebuild
//! baseline at the current scale.

use tcsc_bench::figures;
use tcsc_bench::Scale;

/// Runs one figure: prints its table and, for `fig9s` / `fig9dist`, writes
/// the JSON artifact from the same measurement pass (no double measuring).
fn run_figure(id: &str, scale: Scale) -> bool {
    if id == "fig9s" {
        let measurements = figures::fig9s_measurements(scale);
        println!("{}", measurements.to_experiment().render());
        match std::fs::write("BENCH_fig9.json", measurements.to_json()) {
            Ok(()) => eprintln!("wrote BENCH_fig9.json"),
            Err(e) => eprintln!("could not write BENCH_fig9.json: {e}"),
        }
        return true;
    }
    if id == "fig9p" {
        let measurements = figures::fig9p_measurements(scale);
        println!("{}", measurements.to_experiment().render());
        match std::fs::write("BENCH_fig9p.json", measurements.to_json()) {
            Ok(()) => eprintln!("wrote BENCH_fig9p.json"),
            Err(e) => eprintln!("could not write BENCH_fig9p.json: {e}"),
        }
        assert!(
            measurements.plans_match,
            "the incremental-gain commit engine must be bit-identical to the full-refresh path \
             (plans/conflicts/executions diverged)"
        );
        assert!(
            measurements.incremental.per_grant_refresh_us <= measurements.full.per_grant_refresh_us,
            "per-grant refresh regression: incremental {:.2}us > full {:.2}us",
            measurements.incremental.per_grant_refresh_us,
            measurements.full.per_grant_refresh_us
        );
        assert_eq!(
            measurements.incremental.full_refreshes, 0,
            "the incremental commit tail must not run full best-candidate recomputes"
        );
        return true;
    }
    if id == "fig9dist" {
        let measurements = figures::fig9dist_measurements(scale);
        println!("{}", measurements.to_experiment().render());
        match std::fs::write("BENCH_fig9d.json", measurements.to_json()) {
            Ok(()) => eprintln!("wrote BENCH_fig9d.json"),
            Err(e) => eprintln!("could not write BENCH_fig9d.json: {e}"),
        }
        assert!(
            measurements.plan_hash_matches,
            "the zero-latency single-node simulation must reproduce the serial engine's plans \
             (sim {:#018x} vs engine {:#018x})",
            measurements.sim_plan_hash, measurements.engine_plan_hash
        );
        return true;
    }
    if id == "fig9obs" {
        let measurements = figures::fig9obs_measurements(scale);
        println!("{}", measurements.to_experiment().render());
        for (path, contents) in [
            ("BENCH_obs.json", measurements.to_json()),
            ("TRACE_fig9obs.jsonl", measurements.trace_jsonl.clone()),
            ("OBS_SUMMARY.txt", measurements.summary.clone()),
        ] {
            match std::fs::write(path, contents) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
        assert!(
            measurements.digest_uniform,
            "the logical-stream digest must be identical across node counts, latency models \
             and grant policies (the trace equivalence lock)"
        );
        assert!(
            measurements.digest_match,
            "exporting the trace and replaying it through the parser must reproduce the digest"
        );
        assert!(
            measurements.overhead_ok,
            "a live recorder must stay within noise of the no-op baseline \
             ({:.2}ms recorded vs {:.2}ms noop)",
            measurements.recorded_ms, measurements.noop_ms
        );
        return true;
    }
    if id == "fig9svc" {
        let measurements = figures::fig9svc_measurements(scale);
        println!("{}", measurements.to_experiment().render());
        for (path, contents) in [
            ("BENCH_svc.json", measurements.to_json()),
            ("TRACE_fig9svc.jsonl", measurements.trace_jsonl.clone()),
            ("PROFILE_fig9svc.txt", measurements.collapsed.clone()),
            ("SVC_SUMMARY.txt", measurements.summary.clone()),
        ] {
            match std::fs::write(path, contents) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
        assert!(
            measurements.p99_finite,
            "every service phase must commit tasks and report a finite, positive p99 latency"
        );
        assert!(
            measurements.throughput_positive,
            "every service phase must sustain positive committed throughput"
        );
        assert!(
            measurements.plan_hash_match,
            "the observed service pass must decide bit-identical plans to the unobserved pass \
             (obs {:#018x} vs noop {:#018x})",
            measurements.obs_plan_hash, measurements.noop_plan_hash
        );
        assert!(
            measurements.ledger_bounded,
            "the retired-task GC must bound the occupancy ledger (peak {} of {} workers, \
             released {} of {} executions, final {})",
            measurements.peak_ledger,
            measurements.workers,
            measurements.released,
            measurements.executions,
            measurements.final_ledger
        );
        assert!(
            measurements.profile_within_bound,
            "the span-tree profile's self-time must reconcile with the measured drain wall \
             clock within 5% ({:.2}ms profiled vs {:.2}ms measured)",
            measurements.profile_self_ms, measurements.drain_wall_ms
        );
        return true;
    }
    if id == "fig9mob" {
        let measurements = figures::fig9mob_measurements(scale);
        println!("{}", measurements.to_experiment().render());
        match std::fs::write("BENCH_fig9m.json", measurements.to_json()) {
            Ok(()) => eprintln!("wrote BENCH_fig9m.json"),
            Err(e) => eprintln!("could not write BENCH_fig9m.json: {e}"),
        }
        assert!(
            measurements.plan_hash_match,
            "the mutate-in-place pass must decide bit-identical plans to rebuild-per-drain \
             (mutate {:#018x} vs rebuild {:#018x})",
            measurements.mutate_plan_hash, measurements.rebuild_plan_hash
        );
        assert!(
            measurements.speedup_ok,
            "in-place index maintenance must be at least 5x cheaper than rebuild-per-drain \
             ({:.2}ms mutate vs {:.2}ms rebuild, {:.1}x)",
            measurements.mutate_maintenance_ms,
            measurements.rebuild_maintenance_ms,
            measurements.maintenance_speedup
        );
        return true;
    }
    match figures::by_id(id, scale) {
        Some(experiment) => {
            println!("{}", experiment.render());
            true
        }
        None => false,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut ids: Vec<String> = Vec::new();
    for arg in &args {
        if let Some(s) = Scale::from_flag(arg) {
            scale = s;
        } else if arg == "all" {
            ids.clear();
        } else if arg == "--help" || arg == "-h" {
            eprintln!("usage: experiments [--quick|--full] [all | fig6a fig6b ... fig11c]");
            return;
        } else {
            ids.push(arg.clone());
        }
    }

    if ids.is_empty() {
        for id in figures::ALL_IDS {
            run_figure(id, scale);
        }
    } else {
        for id in ids {
            if !run_figure(&id, scale) {
                eprintln!("unknown figure id: {id}");
            }
        }
    }
}
