//! The benchmark specification (`spec.json`), compiled into the binary
//! so that the documented seeds, pins, sizes and tolerances are the ones
//! that run.

use serde::Value;

const SPEC_JSON: &str = include_str!("../spec.json");

/// Typed view of the parts of `spec.json` the binary reads.
#[derive(Debug, Clone)]
pub struct Spec {
    pub default_seed: u64,
    pub threads: usize,
    pub pinned: Vec<(String, String)>,
    pub accuracy_floor: f64,
    pub setup_reps: usize,
    pub workloads: Value,
}

impl Spec {
    /// Parses the embedded specification.
    ///
    /// # Panics
    ///
    /// Panics when `spec.json` is malformed; the self-tests parse it on
    /// every run, so a broken file never reaches a measurement.
    #[must_use]
    pub fn load() -> Self {
        let v = serde_json::parse(SPEC_JSON).expect("spec.json parses");
        let num = |path: &[&str]| -> f64 {
            let mut cur = &v;
            for key in path {
                cur = cur
                    .get(key)
                    .unwrap_or_else(|| panic!("spec.json lacks {path:?}"));
            }
            match cur {
                Value::Num(n) => *n,
                other => panic!("spec.json {path:?} is not a number: {other:?}"),
            }
        };
        let pinned = match v.get("env").and_then(|e| e.get("pinned")) {
            Some(Value::Obj(fields)) => fields
                .iter()
                .map(|(k, val)| match val {
                    Value::Str(s) => (k.clone(), s.clone()),
                    other => panic!("pinned {k} is not a string: {other:?}"),
                })
                .collect(),
            _ => panic!("spec.json lacks env.pinned"),
        };
        Spec {
            default_seed: num(&["seeds", "default"]) as u64,
            threads: num(&["threads"]) as usize,
            pinned,
            accuracy_floor: num(&["accuracy_floor"]),
            setup_reps: num(&["setup", "reps"]) as usize,
            workloads: v
                .get("workloads")
                .cloned()
                .expect("spec.json lacks workloads"),
        }
    }

    /// The named workload's section.
    #[must_use]
    pub fn workload(&self, name: &str) -> Option<&Value> {
        self.workloads.get(name)
    }
}

/// Reads a number at `path` below `v`, from the `smoke` section first
/// when `smoke` is set and the key is there.
///
/// # Panics
///
/// Panics when the key is absent or not a number.
#[must_use]
pub fn size(v: &Value, key: &str, smoke: bool) -> f64 {
    let found = smoke
        .then(|| v.get("smoke").and_then(|s| s.get(key)))
        .flatten()
        .or_else(|| v.get("inputs").and_then(|i| i.get(key)));
    match found {
        Some(Value::Num(n)) => *n,
        other => panic!("spec.json workload input {key} missing or not a number: {other:?}"),
    }
}

/// The output names and per-output tolerances of a workload section.
///
/// # Panics
///
/// Panics when `outputs` or a tolerance is missing.
#[must_use]
pub fn outputs(v: &Value) -> Vec<(String, f64)> {
    let Some(Value::Arr(names)) = v.get("outputs") else {
        panic!("spec.json workload lacks outputs");
    };
    names
        .iter()
        .map(|n| {
            let Value::Str(name) = n else {
                panic!("output name is not a string: {n:?}")
            };
            let tol = match v.get("tolerance").and_then(|t| t.get(name)) {
                Some(Value::Num(t)) => *t,
                other => panic!("tolerance of {name} missing: {other:?}"),
            };
            (name.clone(), tol)
        })
        .collect()
}
