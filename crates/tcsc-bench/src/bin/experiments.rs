//! Experiment runner: regenerates every figure of the paper's evaluation and
//! the repository's extension figures.
//!
//! Usage:
//!
//! ```text
//! experiments [--quick|--full] [all | fig6a fig6b ... fig9mob ... fig11c]
//! ```
//!
//! With no figure ids, every figure is run.  `--quick` (default) uses
//! CI-sized workloads; `--full` approaches the paper's parameters and can
//! take much longer.  Each figure's [`tcsc_bench::Report`] is printed, then
//! written to `BENCH_<id>.json` next to the report's extra files (traces,
//! profiles, summaries).  After the last figure the binary exits non-zero
//! when any id was unknown, any file could not be written, or any gate
//! failed; `EXPERIMENTS.md` lists every gate.

use std::process::ExitCode;

use tcsc_bench::figures;
use tcsc_bench::Scale;

fn main() -> ExitCode {
    let mut scale = Scale::Quick;
    let mut ids: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if let Some(s) = Scale::from_flag(&arg) {
            scale = s;
        } else if arg == "all" {
            ids.clear();
        } else if arg == "--help" || arg == "-h" {
            eprintln!("usage: experiments [--quick|--full] [all | fig6a fig6b ... fig11c]");
            return ExitCode::SUCCESS;
        } else {
            ids.push(arg);
        }
    }
    if ids.is_empty() {
        ids = figures::FIGURES
            .iter()
            .map(|(id, _)| id.to_string())
            .collect();
    }

    let mut failures = Vec::new();
    for id in &ids {
        let Some(run) = figures::by_id(id) else {
            failures.push(format!("unknown figure id: {id}"));
            continue;
        };
        let report = run(scale);
        println!("{}", report.render());
        let json = (format!("BENCH_{id}.json"), report.to_json());
        let extra = report
            .artifacts
            .iter()
            .map(|(n, c)| (n.to_string(), c.clone()));
        for (path, contents) in std::iter::once(json).chain(extra) {
            match std::fs::write(&path, &contents) {
                Ok(()) if contents.is_empty() => failures.push(format!("wrote an empty {path}")),
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => failures.push(format!("could not write {path}: {e}")),
            }
        }
        failures.extend(
            report
                .failed()
                .map(|g| format!("gate {id}/{} failed: {}", g.name, g.detail)),
        );
    }

    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    for failure in &failures {
        eprintln!("{failure}");
    }
    ExitCode::FAILURE
}
