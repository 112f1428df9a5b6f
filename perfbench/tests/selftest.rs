//! Self-tests of the benchmark on smoke-sized inputs: every metric named
//! in BENCHMARK.json is emitted with its unit, traced spans are
//! well-nested and add up to the traced wall time, per-layer counts
//! repeat across runs and thread counts, and no operation fails at the
//! default seed.
//!
//! Run with: `cargo test --release --manifest-path perfbench/Cargo.toml`

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 4] = ["rx_eye_prbs7", "tx_stream_prbs31", "mc_yield", "la_ac_tune"];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

fn num(v: &Value) -> f64 {
    match v {
        Value::Num(n) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

/// `(name, unit)` of every metric in a BENCHMARK.json section.
fn declared(section: &str) -> Vec<(String, String)> {
    match benchmark_json().get(section) {
        Some(Value::Arr(items)) => items
            .iter()
            .map(|m| (str_of(m, "name").to_string(), str_of(m, "unit").to_string()))
            .collect(),
        other => panic!("BENCHMARK.json {section}: {other:?}"),
    }
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn perfbench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("spawn perfbench");
    assert!(
        out.status.success(),
        "perfbench {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Smoke-sized reference outputs of `workload` at the default seed,
/// written under a name private to the calling test.
fn smoke_reference(test: &str, workload: &str) -> PathBuf {
    let path = tmp(&format!("{test}-{workload}-ref.json"));
    let p = path.to_str().expect("utf-8 path");
    perfbench(&["reference", "--smoke", "--workload", workload, "--out", p]);
    path
}

/// One smoke measurement; returns the result object.
fn measure(
    workload: &str,
    reference: &Path,
    trace: bool,
    threads: usize,
    detail: Option<&Path>,
) -> Value {
    let threads = threads.to_string();
    let mut args = vec![
        "measure",
        "--smoke",
        "--workload",
        workload,
        "--seconds",
        "0.3",
        "--trace",
        if trace { "1" } else { "0" },
        "--threads",
        &threads,
        "--ref",
        reference.to_str().expect("utf-8 path"),
    ];
    if let Some(d) = detail {
        args.extend(["--detail", d.to_str().expect("utf-8 path")]);
    }
    let stdout = perfbench(&args);
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse(last).expect("result is JSON")
}

fn metrics(result: &Value) -> Vec<(String, f64, String)> {
    match result.get("metrics") {
        Some(Value::Obj(fields)) => fields
            .iter()
            .map(|(k, m)| {
                (
                    k.clone(),
                    num(m.get("value").expect("value")),
                    str_of(m, "unit").to_string(),
                )
            })
            .collect(),
        other => panic!("metrics: {other:?}"),
    }
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    for w in WORKLOADS {
        let reference = smoke_reference("names", w);
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = measure(w, &reference, trace, 2, None);
            let got: Vec<(String, String)> = metrics(&result)
                .into_iter()
                .map(|(name, value, unit)| {
                    assert!(value.is_finite(), "{w} {name} = {value}");
                    (name, unit)
                })
                .collect();
            assert_eq!(got, declared(section), "{w} --trace {}", u8::from(trace));
            let keys: Vec<&str> = match &result {
                Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                _ => panic!("result is not an object"),
            };
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        }
    }
}

#[test]
fn traced_spans_are_well_nested_and_add_up() {
    for w in WORKLOADS {
        let reference = smoke_reference("nesting", w);
        let detail = tmp(&format!("nesting-{w}-detail.json"));
        let result = measure(w, &reference, true, 2, Some(detail.as_path()));
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{w}");
        let d = serde_json::parse(&std::fs::read_to_string(&detail).expect("detail file"))
            .expect("detail parses");
        assert_eq!(
            d.get("nesting_errors"),
            Some(&Value::Arr(Vec::new())),
            "{w}"
        );
        let wall = num(d.get("traced_wall_ms").expect("wall"));
        let layers: f64 = match d.get("layer_self_ms") {
            Some(Value::Obj(fields)) => fields.iter().map(|(_, v)| num(v)).sum(),
            other => panic!("layer_self_ms: {other:?}"),
        };
        let unattributed = num(d.get("unattributed_ms").expect("unattributed"));
        assert!(
            (layers + unattributed - wall).abs() <= 1e-9 * wall.max(1.0),
            "{w}: layers {layers} + unattributed {unattributed} != traced wall {wall}"
        );
        assert!(layers > 0.0 && wall > 0.0, "{w}: nothing attributed");
    }
}

/// Per-layer metrics that are counts or ratios of counts (everything
/// but times, worker balance and tracing overhead).
fn counts(result: &Value) -> Vec<(String, f64)> {
    metrics(result)
        .into_iter()
        .filter(|(name, _, unit)| {
            unit != "ms" && name != "runner.imbalance" && name != "telemetry.overhead_frac"
        })
        .map(|(name, value, _)| (name, value))
        .collect()
}

#[test]
fn per_layer_counts_repeat_across_runs_and_thread_counts() {
    for w in WORKLOADS {
        let reference = smoke_reference("counts", w);
        let first = counts(&measure(w, &reference, true, 2, None));
        let second = counts(&measure(w, &reference, true, 2, None));
        let serial = counts(&measure(w, &reference, true, 1, None));
        assert_eq!(first, second, "{w}: counts differ between two traced runs");
        assert_eq!(first, serial, "{w}: counts differ between 2 threads and 1");
        assert!(
            first.iter().any(|&(_, v)| v > 0.0),
            "{w}: no counts recorded"
        );
    }
}

#[test]
fn no_operation_fails_at_the_default_seed() {
    for w in WORKLOADS {
        let reference = smoke_reference("fails", w);
        let result = measure(w, &reference, false, 2, None);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{w}");
        assert_eq!(result.get("failed"), Some(&Value::Num(0.0)), "{w}");
        assert!(
            num(result.get("attempted").expect("attempted")) >= 1.0,
            "{w}"
        );
        let pass = metrics(&result)
            .into_iter()
            .find(|(name, _, _)| name == "pass_frac")
            .map(|(_, v, _)| v);
        assert_eq!(pass, Some(1.0), "{w}: fail_frac is not 0");
    }
}
