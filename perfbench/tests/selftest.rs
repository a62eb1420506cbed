//! Self-test of the benchmark: every workload at a tiny size, run twice in
//! each mode, must repeat its simulated metrics and per-layer counts
//! exactly; every metric must be named in the accepted alphabet and carry
//! a unit; and `BENCHMARK.json` must say why each workload exists.
//!
//! Run with `cargo test --release --offline --manifest-path
//! perfbench/Cargo.toml`.

use ctg_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["mpeg-adaptive", "mpeg-portfolio", "serve-fleet"];

/// Metrics whose value comes from a clock or the allocator rather than
/// from the simulation or a count.
fn measured(name: &str, unit: &str) -> bool {
    matches!(unit, "s" | "us" | "1/s" | "MiB")
        || matches!(name, "scheduler.race_to_dls" | "obs.overhead_ratio")
}

struct Run {
    result: Value,
    noise: Value,
}

impl Run {
    fn metrics(&self) -> &BTreeMap<String, Value> {
        match self.result.get("metrics") {
            Some(Value::Object(m)) => m,
            other => panic!("metrics is not an object: {other:?}"),
        }
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics()[name]
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name} has no numeric value"))
    }

    /// The metrics that must repeat exactly, with their values.
    fn exact(&self) -> Vec<(String, f64)> {
        self.metrics()
            .iter()
            .filter(|(name, m)| {
                !measured(name, m.get("unit").and_then(Value::as_str).unwrap_or(""))
            })
            .map(|(name, _)| (name.clone(), self.value(name)))
            .collect()
    }
}

fn bench(workload: &str, trace: bool, extra_env: Option<(&str, &str)>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.05",
        "--tiny",
    ])
    .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some((k, v)) = extra_env {
        cmd.env(k, v);
    }
    cmd.output().expect("the benchmark binary runs")
}

fn run(workload: &str, trace: bool) -> Run {
    let out = bench(workload, trace, None);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines.len() >= 2,
        "{workload}: expected noise and result lines"
    );
    let result = json::parse(lines[lines.len() - 1]).expect("result line is JSON");
    let noise = json::parse(lines[lines.len() - 2]).expect("noise line is JSON");
    assert_eq!(
        result.get("correct"),
        Some(&Value::Bool(true)),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    Run { result, noise }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string();
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            (name, unit)
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn tiny_runs_repeat_exactly_and_report_every_declared_metric() {
    let doc = benchmark_json();
    let end_to_end = names(&doc, "end_to_end");
    let per_layer = names(&doc, "per_layer");
    for workload in WORKLOADS {
        for (trace, declared) in [(false, &end_to_end), (true, &per_layer)] {
            let a = run(workload, trace);
            let b = run(workload, trace);
            assert_eq!(a.exact(), b.exact(), "{workload} (trace {trace})");
            assert_eq!(a.noise.get("digest"), b.noise.get("digest"), "{workload}");
            assert_eq!(
                a.noise.get("layer_digest"),
                b.noise.get("layer_digest"),
                "{workload}"
            );
            let reported: Vec<(String, String)> = a
                .metrics()
                .iter()
                .map(|(name, m)| {
                    let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                    (name.clone(), unit.to_string())
                })
                .collect();
            let mut expected = declared.clone();
            expected.sort();
            assert_eq!(reported, expected, "{workload} (trace {trace}) metric set");
            for (name, unit) in &reported {
                assert!(valid_name(name), "{name}");
                assert!(!unit.is_empty(), "{name} has no unit");
            }
            if trace {
                // Layers never cover more than the traced wall time.
                assert!(a.value("unattributed_s") >= 0.0, "{workload}");
                assert!(a.value("trace.wall_s") > 0.0, "{workload}");
            }
        }
    }
}

#[test]
fn benchmark_json_says_why_each_workload_exists() {
    let doc = benchmark_json();
    let workloads = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads list");
    let listed: Vec<&str> = workloads
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(listed, WORKLOADS);
    for w in workloads {
        let why = w.get("why").and_then(Value::as_str).expect("why");
        let body = why
            .strip_suffix('.')
            .expect("why is a sentence ending in a full stop");
        assert!(
            !body.is_empty() && !body.contains(". "),
            "one sentence: {why:?}"
        );
        assert!(!why.contains('\n'));
    }
}

#[test]
fn refuses_to_run_under_library_environment_knobs() {
    let out = bench("mpeg-adaptive", false, Some(("CTG_WORKERS", "2")));
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result may be printed");
}
