//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <svc-rush|mob-churn|batch-replan> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats passes for `--seconds`: each pass sets the workload up afresh from
//! the seed (timing the set-up) and replays it on a fresh engine, checking
//! every solve's output.  `--trace 0` reports the end-to-end metrics of
//! untraced passes; `--trace 1` alternates untraced and traced passes and
//! reports the per-layer metrics.  The last line of standard output is one
//! JSON object; see `README.md` for the metrics.

mod adapter;
mod checks;
mod pass;
mod replan;
mod service;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use pass::Pass;
use replan::ReplanInput;
use service::ServiceInput;
use stats::{mean, median, percentile, ratio};

/// Fewest set-ups a run times; `setup_s` is their median.
const MIN_SETUPS: usize = 11;

const USAGE: &str =
    "usage: perfbench --workload <svc-rush|mob-churn|batch-replan> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "svc-rush" | "mob-churn" | "batch-replan") {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// A workload's generated inputs.
enum Input {
    Service(Box<ServiceInput>),
    Replan(ReplanInput),
}

impl Input {
    fn setup(workload: &str, seed: u64) -> Self {
        match workload {
            "svc-rush" => Self::Service(Box::new(service::setup(service::SVC_RUSH, seed))),
            "mob-churn" => Self::Service(Box::new(service::setup(service::MOB_CHURN, seed))),
            _ => Self::Replan(replan::setup(seed)),
        }
    }

    fn run_pass(&self, traced: bool) -> Pass {
        match self {
            Self::Service(input) => service::run_pass(input, traced),
            Self::Replan(input) => replan::run_pass(input, traced),
        }
    }

    fn gen_build_ms(&self) -> (f64, f64) {
        match self {
            Self::Service(input) => (input.gen_ms, input.build_ms),
            Self::Replan(input) => (input.gen_ms, input.build_ms),
        }
    }
}

/// Wall times of every set-up of a run.
#[derive(Default)]
struct SetupTimes {
    setup_s: Vec<f64>,
    gen_ms: Vec<f64>,
    build_ms: Vec<f64>,
}

impl SetupTimes {
    fn run(&mut self, workload: &str, seed: u64) -> Input {
        let start = Instant::now();
        let input = Input::setup(workload, seed);
        self.setup_s.push(start.elapsed().as_secs_f64());
        let (gen, build) = input.gen_build_ms();
        self.gen_ms.push(gen);
        self.build_ms.push(build);
        input
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind a percentile, printed with it.
    samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

fn sampled(name: &'static str, samples: &[f64], q: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: percentile(samples, q),
        unit,
        samples: Some(samples.len()),
    }
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn pooled(passes: &[Pass], samples: impl Fn(&Pass) -> &[f64]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| samples(p).iter().copied())
        .collect()
}

fn per_pass(passes: &[Pass], value: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(value).collect::<Vec<_>>())
}

/// Every pass replays the same requests in the same order; each request's
/// time is its fastest replay.  The host's speed drifts by tens of percent
/// over minutes, and the fastest replay is the one it disturbed least.
fn per_request(passes: &[Pass], samples: impl Fn(&Pass) -> &[f64]) -> Vec<f64> {
    (0..samples(&passes[0]).len())
        .map(|i| {
            passes
                .iter()
                .map(|p| samples(p)[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

fn end_to_end(passes: &[Pass], setup_s: &[f64], rss_mb: f64) -> Vec<Metric> {
    let latency = per_request(passes, |p| &p.latency_ms);
    let rounds = per_request(passes, |p| &p.round_ms);
    let quality: f64 = passes.iter().map(|p| p.quality_sum).sum();
    let plans: usize = passes.iter().map(|p| p.plans).sum();
    vec![
        sampled("latency_p50_ms", &latency, 0.50, "ms"),
        sampled("latency_p99_ms", &latency, 0.99, "ms"),
        sampled("round_p50_ms", &rounds, 0.50, "ms"),
        sampled("round_p90_ms", &rounds, 0.90, "ms"),
        metric(
            "tasks_per_s",
            ratio(passes[0].tasks as f64, rounds.iter().sum::<f64>() / 1e3),
            "1/s",
        ),
        metric("mean_quality", ratio(quality, plans as f64), "entropy"),
        metric(
            "min_quality",
            mean(&pooled(passes, |p| &p.min_quality)),
            "entropy",
        ),
        metric("setup_s", median(setup_s), "s"),
        metric("peak_rss_mb", rss_mb, "MB"),
    ]
}

fn per_layer(workload: &str, plain: &[Pass], traced: &[Pass], setups: &SetupTimes) -> Vec<Metric> {
    let l = |f: fn(&Pass) -> f64| per_pass(traced, f);
    let knn = pooled(traced, |p| &p.layers.knn.us);
    let mutate = pooled(traced, |p| &p.layers.mutate_us);
    let drains = pooled(traced, |p| &p.layers.drain_ms);
    let concurrent: &[f64] = if workload == "mob-churn" {
        &drains
    } else {
        &[]
    };
    let busy =
        |passes: &[Pass]| median(&passes.iter().map(|p| p.busy_ns as f64).collect::<Vec<_>>());
    fn rounds(p: &Pass) -> f64 {
        p.round_ms.len() as f64
    }
    vec![
        sampled("index.knn_us.p50", &knn, 0.50, "us"),
        sampled("index.knn_us.p99", &knn, 0.99, "us"),
        metric(
            "index.knn_queries",
            l(|p| p.layers.knn.us.len() as f64),
            "count",
        ),
        metric(
            "index.excluding_share",
            l(|p| ratio(p.layers.knn.excluding as f64, p.layers.knn.us.len() as f64)),
            "ratio",
        ),
        metric(
            "index.excluded_set_mean",
            l(|p| {
                ratio(
                    p.layers.knn.excluded_total as f64,
                    p.layers.knn.excluding as f64,
                )
            }),
            "count",
        ),
        sampled("index.mutate_us.p50", &mutate, 0.50, "us"),
        sampled("index.mutate_us.p99", &mutate, 0.99, "us"),
        metric(
            "index.entries_spliced",
            l(|p| p.layers.entries_spliced as f64),
            "count",
        ),
        metric(
            "index.rebuild_equiv",
            l(|p| p.layers.rebuild_equiv as f64),
            "count",
        ),
        metric(
            "cache.invalidation_refreshes",
            l(|p| p.layers.invalidation_refreshes as f64),
            "count",
        ),
        metric(
            "index.imbalance_milli",
            l(|p| p.layers.imbalance_milli as f64),
            "milli",
        ),
        metric(
            "engine.checkout_ms",
            l(|p| ratio(p.layers.checkout_ns as f64 / 1e6, rounds(p))),
            "ms",
        ),
        metric(
            "cache.hits",
            l(|p| p.layers.stats.tasks_reused as f64),
            "count",
        ),
        metric(
            "cache.misses",
            l(|p| p.layers.stats.tasks_computed as f64),
            "count",
        ),
        metric(
            "cache.hit_ratio",
            l(|p| {
                let s = &p.layers.stats;
                ratio(
                    s.tasks_reused as f64,
                    (s.tasks_reused + s.tasks_computed) as f64,
                )
            }),
            "ratio",
        ),
        metric(
            "engine.slot_computations",
            l(|p| p.layers.stats.slot_computations as f64),
            "count",
        ),
        metric(
            "engine.slot_refreshes",
            l(|p| p.layers.stats.slot_refreshes as f64),
            "count",
        ),
        sampled(
            "state.build_us.p50",
            &pooled(traced, |p| &p.layers.state_build_us),
            0.50,
            "us",
        ),
        sampled(
            "state.first_best_us.p50",
            &pooled(traced, |p| &p.layers.first_best_us),
            0.50,
            "us",
        ),
        metric(
            "engine.commit_ms",
            l(|p| ratio(p.layers.commit_ns as f64 / 1e6, rounds(p))),
            "ms",
        ),
        metric(
            "engine.commit_rescores",
            l(|p| p.layers.stats.commit_rescores as f64),
            "count",
        ),
        metric(
            "engine.stale_pops",
            l(|p| p.layers.stats.stale_pops as f64),
            "count",
        ),
        metric(
            "engine.incremental_patches",
            l(|p| p.layers.stats.incremental_patches as f64),
            "count",
        ),
        metric(
            "engine.full_refreshes",
            l(|p| p.layers.stats.full_refreshes as f64),
            "count",
        ),
        metric(
            "engine.refresh_ms",
            l(|p| ratio(p.layers.stats.refresh_nanos as f64 / 1e6, rounds(p))),
            "ms",
        ),
        metric(
            "engine.conflicts",
            l(|p| p.layers.conflicts as f64),
            "count",
        ),
        metric(
            "engine.executions",
            l(|p| p.checker.executions as f64),
            "count",
        ),
        metric("ledger.peak", l(|p| p.layers.ledger_peak as f64), "count"),
        metric(
            "ledger.occupancy_peak_ratio",
            l(|p| ratio(p.layers.ledger_peak as f64, p.layers.ledger_capacity as f64)),
            "ratio",
        ),
        sampled(
            "ledger.release_us.p50",
            &pooled(traced, |p| &p.layers.release_us),
            0.50,
            "us",
        ),
        metric("ledger.released", l(|p| p.layers.released as f64), "count"),
        sampled("cengine.drain_ms.p50", concurrent, 0.50, "ms"),
        sampled("cengine.drain_ms.p99", concurrent, 0.99, "ms"),
        metric(
            "router.tile_visits",
            l(|p| p.layers.tile_visits as f64),
            "count",
        ),
        sampled("engine.drain_ms.p50", &drains, 0.50, "ms"),
        sampled("engine.drain_ms.p99", &drains, 0.99, "ms"),
        metric(
            "engine.busy_share",
            l(|p| ratio(p.busy_ns as f64, p.span_ns as f64)),
            "ratio",
        ),
        metric(
            "queue.backlog_peak",
            l(|p| p.layers.backlog_peak as f64),
            "count",
        ),
        metric(
            "engine.tasks_per_drain",
            l(|p| {
                ratio(
                    p.layers.drained_tasks as f64,
                    p.layers.drain_ms.len() as f64,
                )
            }),
            "count",
        ),
        metric(
            "obs.overhead_ratio",
            ratio(busy(traced), busy(plain)),
            "ratio",
        ),
        metric(
            "obs.span_coverage",
            l(|p| ratio(p.layers.span_self_ns as f64, p.busy_ns as f64)),
            "ratio",
        ),
        metric("workload.gen_ms", median(&setups.gen_ms), "ms"),
        metric("index.build_ms", median(&setups.build_ms), "ms"),
    ]
}

/// A number as JSON: finite, with `-0.0` printed as `0`.
fn json_number(value: f64) -> String {
    if !value.is_finite() || value == 0.0 {
        "0".to_string()
    } else {
        format!("{value}")
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut setups = SetupTimes::default();

    // Every pass starts from a fresh set-up of the same seed, so set-up is
    // timed across the whole run rather than in one burst.
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut rss_mb = 0.0;
    loop {
        let input = setups.run(&args.workload, args.seed);
        plain.push(input.run_pass(false));
        if rss_mb == 0.0 {
            // Set-up plus one pass: independent of how many passes fit.
            rss_mb = peak_rss_mb();
        }
        if args.trace {
            traced.push(input.run_pass(true));
        }
        if start.elapsed() >= deadline {
            break;
        }
    }
    while setups.setup_s.len() < MIN_SETUPS {
        setups.run(&args.workload, args.seed);
    }

    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let hash = all[0].checker.hash;
    let hashes_match = all.iter().all(|p| p.checker.hash == hash);
    let attempted: usize = all.iter().map(|p| p.checker.attempted).sum();
    let failed: usize = all.iter().map(|p| p.checker.failed).sum();
    let correct = hashes_match && all.iter().all(|p| p.checker.ok());

    let metrics = if args.trace {
        per_layer(&args.workload, &plain, &traced, &setups)
    } else {
        end_to_end(&plain, &setups.setup_s, rss_mb)
    };

    println!(
        "{} seed {}: {} untraced + {} traced passes, plan hash {hash:#018x} (all passes equal: {hashes_match})",
        args.workload,
        args.seed,
        plain.len(),
        traced.len(),
    );
    if let Some(violation) = all.iter().find_map(|p| p.checker.first_violation.as_ref()) {
        println!("first violation: {violation}");
    }
    println!("generator lag: 0 us (arrivals replay a pre-generated tape on a virtual clock)");
    println!(
        "failed {failed} of {attempted} tasks (failed_ratio {})",
        json_number(ratio(failed as f64, attempted as f64))
    );
    for m in &metrics {
        match m.samples {
            Some(n) => println!("  {:<30} {:>14.6} {:<7} (n = {n})", m.name, m.value, m.unit),
            None => println!("  {:<30} {:>14.6} {}", m.name, m.value, m.unit),
        }
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    ExitCode::SUCCESS
}
