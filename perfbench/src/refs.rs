//! Stored reference outputs and the check of a job against them.

use crate::workloads::OpOutput;
use serde::Value;
use std::path::Path;

const SCHEMA: &str = "cml-perfbench-ref-v1";

/// Reference outputs of one workload job at one seed.
#[derive(Debug)]
pub struct Reference {
    pub workload: String,
    pub seed: u64,
    pub smoke: bool,
    pub outputs: Vec<String>,
    pub values: Vec<Vec<f64>>,
}

fn num_arr(v: &[f64]) -> Value {
    Value::Arr(v.iter().map(|&x| Value::Num(x)).collect())
}

impl Reference {
    /// Renders the reference as pretty JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let v = Value::Obj(vec![
            ("schema".into(), Value::Str(SCHEMA.into())),
            ("workload".into(), Value::Str(self.workload.clone())),
            ("seed".into(), Value::Num(self.seed as f64)),
            ("smoke".into(), Value::Bool(self.smoke)),
            (
                "outputs".into(),
                Value::Arr(self.outputs.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "values".into(),
                Value::Arr(self.values.iter().map(|r| num_arr(r)).collect()),
            ),
        ]);
        let mut s = serde_json::to_string_pretty(&v).unwrap_or_default();
        s.push('\n');
        s
    }

    /// Reads a reference file.
    ///
    /// # Errors
    ///
    /// I/O failures and malformed files.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
        let v = serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if v.get("schema") != Some(&Value::Str(SCHEMA.into())) {
            return Err(format!("{}: not a {SCHEMA} file", path.display()));
        }
        let bad = |what: &str| format!("{}: bad {what}", path.display());
        let string = |key: &str| match v.get(key) {
            Some(Value::Str(s)) => Ok(s.clone()),
            _ => Err(bad(key)),
        };
        let nums = |row: &Value| match row {
            Value::Arr(xs) => xs
                .iter()
                .map(|x| match x {
                    Value::Num(n) => Ok(*n),
                    _ => Err(bad("value")),
                })
                .collect::<Result<Vec<f64>, String>>(),
            _ => Err(bad("values row")),
        };
        Ok(Reference {
            workload: string("workload")?,
            seed: match v.get("seed") {
                Some(Value::Num(n)) => *n as u64,
                _ => return Err(bad("seed")),
            },
            smoke: matches!(v.get("smoke"), Some(Value::Bool(true))),
            outputs: match v.get("outputs") {
                Some(Value::Arr(a)) => a
                    .iter()
                    .map(|x| match x {
                        Value::Str(s) => Ok(s.clone()),
                        _ => Err(bad("outputs")),
                    })
                    .collect::<Result<_, _>>()?,
                _ => return Err(bad("outputs")),
            },
            values: match v.get("values") {
                Some(Value::Arr(rows)) => rows.iter().map(nums).collect::<Result<_, _>>()?,
                _ => return Err(bad("values")),
            },
        })
    }
}

/// Outcome of checking operations against a reference.
#[derive(Debug, Clone, Copy, Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// Largest deviation seen (relative, or absolute on a 0..1 scale).
    pub max_dev: f64,
}

impl Check {
    /// Checks one job's operations against the reference rows; an
    /// operation fails on an error, a non-finite output, or a deviation
    /// above its output's tolerance.
    pub fn add(
        &mut self,
        ops: &[OpOutput],
        reference: &Reference,
        tols: &[(String, f64)],
        absolute: bool,
    ) {
        for (i, op) in ops.iter().enumerate() {
            self.attempted += 1;
            let (Ok(vals), Some(want)) = (op, reference.values.get(i)) else {
                self.failed += 1;
                continue;
            };
            let mut ok = vals.len() == want.len() && vals.len() == tols.len();
            for ((x, r), (_, tol)) in vals.iter().zip(want).zip(tols) {
                let scale = if absolute { 1.0 } else { r.abs() };
                let dev = (x - r).abs() / scale;
                if dev.is_nan() || dev > *tol {
                    ok = false;
                }
                if dev.is_finite() {
                    self.max_dev = self.max_dev.max(dev);
                }
            }
            if !ok {
                self.failed += 1;
            }
        }
        let missing = reference.values.len().saturating_sub(ops.len()) as u64;
        self.attempted += missing;
        self.failed += missing;
    }
}
