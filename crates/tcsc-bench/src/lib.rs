//! # tcsc-bench
//!
//! Benchmark harness reproducing every figure of the paper's evaluation
//! (Section V and the appendix) plus the repository's extension figures.
//! Each figure has a driver in [`figures`] that generates the corresponding
//! workload, runs the competing algorithms and returns a [`Report`]: the
//! table rows the figure plots, named scalars and pass/fail gates.  The
//! `experiments` binary prints, writes and gates every report; the timings
//! are part of the reports.
//!
//! Absolute running times differ from the paper (different language, machine
//! and data substitutes); the drivers are designed so the *shape* of every
//! series — which method wins, how curves scale with `m`, `|W|`, `|T|`,
//! budgets, cores — can be compared directly.  See `EXPERIMENTS.md` at the
//! repository root for the recorded comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

use tcsc_assign::candidates::SlotCandidates;
use tcsc_core::{EuclideanCost, Task};
use tcsc_index::WorkerIndex;
use tcsc_workload::{Scenario, ScenarioConfig};

/// How large the generated workloads are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Laptop/CI-sized workloads (seconds per figure).
    Quick,
    /// Larger workloads closer to the paper's parameters (minutes per
    /// figure).
    Full,
}

impl Scale {
    /// Parses a scale flag.
    pub fn from_flag(flag: &str) -> Option<Self> {
        match flag {
            "--quick" | "quick" => Some(Self::Quick),
            "--full" | "full" | "--paper" | "paper" => Some(Self::Full),
            _ => None,
        }
    }
}

/// A single output row of an experiment: a label and one or more named
/// numeric series values.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// X-axis label (distribution name, budget, `m`, number of cores, ...).
    pub label: String,
    /// (series name, value) pairs.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Creates a row.
    pub fn new(label: impl Into<String>, values: Vec<(String, f64)>) -> Self {
        Self {
            label: label.into(),
            values,
        }
    }

    /// Formats the row as a fixed-width table line.
    pub fn render(&self) -> String {
        let mut s = format!("{:<18}", self.label);
        for (name, value) in &self.values {
            s.push_str(&format!(" {name}={value:<12.4}"));
        }
        s
    }
}

/// A named scalar of a [`Report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// A measurement or count.
    Num(f64),
    /// A yes/no fact.
    Bool(bool),
    /// A 64-bit hash, written as `{:#018x}`.
    Hash(u64),
}

impl Scalar {
    fn json(&self) -> String {
        match self {
            Scalar::Num(v) if v.is_finite() => format!("{v}"),
            Scalar::Num(_) => "null".into(),
            Scalar::Bool(b) => b.to_string(),
            Scalar::Hash(h) => format!("\"{h:#018x}\""),
        }
    }
}

/// A named pass/fail check of a [`Report`]; the `experiments` binary exits
/// non-zero when any gate of any figure it ran failed.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Gate name, unique within its figure (`plans_match`, ...).
    pub name: &'static str,
    /// Whether the check held.
    pub pass: bool,
    /// The measured quantities behind the verdict.
    pub detail: String,
}

/// The result of one figure driver: the table rows the figure plots, named
/// scalars, named gates and any extra files (traces, profiles, summaries).
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Figure identifier, e.g. `"fig6a"`.
    pub id: &'static str,
    /// Human-readable caption.
    pub caption: &'static str,
    /// Named scalars, in insertion order.
    pub scalars: Vec<(&'static str, Scalar)>,
    /// The result rows.
    pub rows: Vec<Row>,
    /// Named checks.
    pub gates: Vec<Gate>,
    /// Extra files to write next to `BENCH_<id>.json`: (file name, contents).
    pub artifacts: Vec<(&'static str, String)>,
}

impl Report {
    /// A report holding only table rows.
    pub fn new(id: &'static str, caption: &'static str, rows: Vec<Row>) -> Self {
        Self {
            id,
            caption,
            scalars: Vec::new(),
            rows,
            gates: Vec::new(),
            artifacts: Vec::new(),
        }
    }

    /// Adds a numeric scalar.
    pub fn num(mut self, name: &'static str, value: f64) -> Self {
        self.scalars.push((name, Scalar::Num(value)));
        self
    }

    /// Adds a boolean scalar.
    pub fn flag(mut self, name: &'static str, value: bool) -> Self {
        self.scalars.push((name, Scalar::Bool(value)));
        self
    }

    /// Adds a hash scalar.
    pub fn hash(mut self, name: &'static str, value: u64) -> Self {
        self.scalars.push((name, Scalar::Hash(value)));
        self
    }

    /// Adds a gate.
    pub fn gate(mut self, name: &'static str, pass: bool, detail: impl Into<String>) -> Self {
        self.gates.push(Gate {
            name,
            pass,
            detail: detail.into(),
        });
        self
    }

    /// Adds an extra file.
    pub fn artifact(mut self, file_name: &'static str, contents: String) -> Self {
        self.artifacts.push((file_name, contents));
        self
    }

    /// The gates that did not hold.
    pub fn failed(&self) -> impl Iterator<Item = &Gate> {
        self.gates.iter().filter(|g| !g.pass)
    }

    /// Renders the table, the scalars and the gate verdicts as a printable
    /// block.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.caption);
        for row in &self.rows {
            out.push_str(&row.render());
            out.push('\n');
        }
        for (name, scalar) in &self.scalars {
            let value = match scalar {
                Scalar::Num(v) if v.fract() == 0.0 => format!("{v:.0}"),
                Scalar::Num(v) => format!("{v:.4}"),
                Scalar::Bool(b) => b.to_string(),
                Scalar::Hash(h) => format!("{h:#018x}"),
            };
            out.push_str(&format!("{name:<18} {value}\n"));
        }
        for gate in &self.gates {
            let verdict = if gate.pass { "pass" } else { "FAIL" };
            out.push_str(&format!(
                "gate {}/{}: {verdict} ({})\n",
                self.id, gate.name, gate.detail
            ));
        }
        out
    }

    /// Serialises the report as the `BENCH_<id>.json` artifact (hand-rolled
    /// JSON; no serde in the hermetic build).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"figure\": {},\n  \"caption\": {},\n",
            json_str(self.id),
            json_str(self.caption)
        );
        for (name, scalar) in &self.scalars {
            out.push_str(&format!("  {}: {},\n", json_str(name), scalar.json()));
        }
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let label = format!("\"label\": {}", json_str(&row.label));
                let values = row
                    .values
                    .iter()
                    .map(|(name, v)| format!("{}: {}", json_str(name), Scalar::Num(*v).json()));
                let fields: Vec<String> = std::iter::once(label).chain(values).collect();
                format!("    {{ {} }}", fields.join(", "))
            })
            .collect();
        let gates: Vec<String> = self
            .gates
            .iter()
            .map(|g| {
                format!(
                    "    {{ \"name\": {}, \"pass\": {}, \"detail\": {} }}",
                    json_str(g.name),
                    g.pass,
                    json_str(&g.detail)
                )
            })
            .collect();
        out.push_str(&format!(
            "  \"rows\": [\n{}\n  ],\n  \"gates\": [\n{}\n  ]\n}}\n",
            rows.join(",\n"),
            gates.join(",\n")
        ));
        out
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Times a closure on the wall clock, returning (result, elapsed
/// milliseconds): the harness's one timing path, on the same
/// [`tcsc_obs::Stopwatch`] the solvers read.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let sw = tcsc_obs::Stopwatch::start();
    let result = f();
    (result, sw.elapsed_ms())
}

/// The best-of-`runs` wall-clock time of a closure, in milliseconds.
///
/// Min (not mean) because the drivers report *capability* numbers: the
/// fastest observed run is the one least perturbed by scheduler noise.
pub fn best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..runs.max(1))
        .map(|_| timed(&mut f).1)
        .fold(f64::INFINITY, f64::min)
}

/// A prepared single-task instance: the scenario, its worker index and the
/// per-slot candidates of the first task.
pub struct PreparedSingle {
    /// The generated scenario.
    pub scenario: Scenario,
    /// The per-slot worker index.
    pub index: WorkerIndex,
    /// The task under assignment.
    pub task: Task,
    /// Its per-slot candidates.
    pub candidates: SlotCandidates,
    /// Milliseconds spent on worker cost retrieval (index build + candidate
    /// computation), for the Fig. 8(c) breakdown.
    pub retrieval_ms: f64,
}

/// Builds a single-task instance from a scenario configuration.
pub fn prepare_single(config: &ScenarioConfig) -> PreparedSingle {
    let scenario = config.build();
    let (index, index_ms) =
        timed(|| WorkerIndex::build(&scenario.workers, config.num_slots, &scenario.domain));
    let task = scenario.first_task().clone();
    let (candidates, cand_ms) =
        timed(|| SlotCandidates::compute(&task, &index, &EuclideanCost::default()));
    PreparedSingle {
        scenario,
        index,
        task,
        candidates,
        retrieval_ms: index_ms + cand_ms,
    }
}

/// A prepared multi-task instance.
pub struct PreparedMulti {
    /// The generated scenario.
    pub scenario: Scenario,
    /// The per-slot worker index.
    pub index: WorkerIndex,
}

/// Builds a multi-task instance from a scenario configuration.
pub fn prepare_multi(config: &ScenarioConfig) -> PreparedMulti {
    let scenario = config.build();
    let index = WorkerIndex::build(&scenario.workers, config.num_slots, &scenario.domain);
    PreparedMulti { scenario, index }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::from_flag("--quick"), Some(Scale::Quick));
        assert_eq!(Scale::from_flag("paper"), Some(Scale::Full));
        assert_eq!(Scale::from_flag("bogus"), None);
    }

    #[test]
    fn timed_returns_the_closure_result() {
        let (value, ms) = timed(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn row_and_experiment_render() {
        let row = Row::new("Uniform", vec![("Approx".into(), 3.2), ("Opt".into(), 3.4)]);
        assert!(row.render().contains("Approx=3.2"));
        let rendered = Report::new("fig6a", "test", vec![row]).render();
        assert!(rendered.starts_with("== fig6a"));
        assert!(rendered.contains("Uniform"));
    }

    #[test]
    fn report_json_escapes_and_gates_show_in_failed_and_render() {
        let report = Report::new(
            "figX",
            "a \"quoted\" caption",
            vec![
                Row::new("n=2 \"zero\"", vec![("Ms".into(), 12.5)]),
                Row::new("empty", vec![("Ms".into(), f64::NAN)]),
            ],
        )
        .flag("plans_match", true)
        .num("refresh_speedup", 6.25)
        .num("executions", 120.0)
        .hash("plan_hash", 0xabcd)
        .gate("holds", true, "1 <= 2")
        .gate("breaks", false, "3 > 2")
        .artifact("TRACE_figX.jsonl", "[\n]\n".into());

        let json = report.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"figure\": \"figX\""));
        assert!(json.contains("\"caption\": \"a \\\"quoted\\\" caption\""));
        assert!(json.contains("\"label\": \"n=2 \\\"zero\\\"\", \"Ms\": 12.5 }"));
        assert!(json.contains("\"Ms\": null"), "non-finite numbers are null");
        assert!(json.contains("\"plans_match\": true,"));
        assert!(json.contains("\"refresh_speedup\": 6.25,"));
        assert!(json.contains("\"executions\": 120,"));
        assert!(json.contains("\"plan_hash\": \"0x000000000000abcd\","));
        assert!(json.contains("\"name\": \"breaks\", \"pass\": false, \"detail\": \"3 > 2\""));

        let failed: Vec<_> = report.failed().map(|g| g.name).collect();
        assert_eq!(failed, ["breaks"]);
        let rendered = report.render();
        assert!(rendered.contains("gate figX/holds: pass (1 <= 2)"));
        assert!(rendered.contains("gate figX/breaks: FAIL (3 > 2)"));
        assert!(rendered.contains("0x000000000000abcd"));
        assert_eq!(report.artifacts[0].0, "TRACE_figX.jsonl");
    }

    #[test]
    fn prepare_single_produces_candidates() {
        let cfg = ScenarioConfig::small()
            .with_num_slots(30)
            .with_num_workers(200);
        let prepared = prepare_single(&cfg);
        assert_eq!(prepared.candidates.len(), 30);
        assert!(prepared.retrieval_ms >= 0.0);
        assert!(prepared.candidates.available() > 0);
        assert_eq!(prepared.task.num_slots, 30);
    }

    #[test]
    fn prepare_multi_produces_index() {
        let cfg = ScenarioConfig::small().with_num_tasks(4);
        let prepared = prepare_multi(&cfg);
        assert_eq!(prepared.scenario.tasks.len(), 4);
        assert_eq!(prepared.index.num_slots(), cfg.num_slots);
    }
}
