//! Repository benchmark: four paper workloads run as closed loops, each
//! reporting the end-to-end metrics (`--trace 0`) or a per-layer table
//! from a traced run (`--trace 1`).
//!
//! ```text
//! perfbench measure   --workload W --seed N --seconds S --trace 0|1 --ref FILE
//!                     [--threads N] [--smoke] [--detail FILE (traced runs)]
//! perfbench reference --workload W --seed N --out FILE [--threads N] [--smoke]
//! ```
//!
//! `measure` prints one JSON object as the last line of its output.
//! `reference` computes the workload's outputs through the repository's
//! reference path and writes them to FILE. `perfbench/run.py` drives
//! both; see `perfbench/spec.json` for what each workload is.

mod refs;
mod spec;
mod timing;
mod trace;
mod workloads;

use refs::{Check, Reference};
use serde::Value;
use spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use timing::{median, Recorder};
use trace::{Metric, Trace};
use workloads::Workload;

#[derive(Debug, Default)]
struct Args {
    mode: String,
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    reference: Option<PathBuf>,
    out: Option<PathBuf>,
    detail: Option<PathBuf>,
    threads: Option<usize>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut a = Args {
        mode: it.next().ok_or("missing mode (measure or reference)")?,
        seconds: 10.0,
        ..Args::default()
    };
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = Some(val.parse().map_err(|e| bad(&e))?),
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--ref" => a.reference = Some(val.into()),
            "--out" => a.out = Some(val.into()),
            "--detail" => a.detail = Some(val.into()),
            "--threads" => {
                a.threads = Some(val.parse().map_err(|e| bad(&e))?).filter(|&n| n > 0);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Removes every `CML_*` variable, then sets the pinned ones, so the
/// caller's shell and any disk-tier cache cannot change what runs.
/// Called before anything reads the environment.
fn isolate_env(spec: &Spec, threads: usize) {
    let stale: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("CML_"))
        .collect();
    for k in stale {
        std::env::remove_var(k);
    }
    for (k, v) in &spec.pinned {
        std::env::set_var(k, v);
    }
    std::env::set_var("CML_THREADS", threads.to_string());
}

fn metric_obj(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The workload's output names and tolerances, and whether outputs are
/// compared on an absolute scale.
fn tolerances(spec: &Spec, name: &str) -> Result<(Vec<(String, f64)>, bool), String> {
    let ws = spec
        .workload(name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let absolute = ws.get("compare") == Some(&Value::Str("absolute".into()));
    Ok((spec::outputs(ws), absolute))
}

struct Run<'a> {
    spec: &'a Spec,
    args: &'a Args,
    seed: u64,
    reference: Reference,
    tols: Vec<(String, f64)>,
    absolute: bool,
}

impl Run<'_> {
    fn setup(&self, tr: &Trace) -> Result<Box<dyn Workload>, String> {
        workloads::setup(
            self.spec,
            &self.args.workload,
            self.seed,
            self.args.smoke,
            self.args.threads,
            tr,
        )
    }

    /// `--trace 0`: repeated cold set-ups, then the closed loop, every
    /// time scaled to the reference host (see [`timing`]). `setup_s` is
    /// the median set-up; throughput and unit latencies come from the
    /// fastest quarter of the jobs, which all do identical work.
    fn end_to_end(&self) -> Result<(Check, Vec<Metric>), String> {
        let mut setups = Recorder::new();
        let mut wl = None;
        for _ in 0..self.spec.setup_reps.max(1) {
            cml_cache::intern::clear_in_memory();
            wl = Some(setups.record(|_| self.setup(&Trace::off()))?);
        }
        let mut wl = wl.ok_or("no set-up ran")?;
        let off = Trace::off();
        let mut check = Check::default();
        let mut jobs = Recorder::new();
        let t0 = Instant::now();
        while jobs.is_empty() || t0.elapsed().as_secs_f64() < self.args.seconds {
            let ops = jobs.record(|units| wl.job(&off, units));
            check.add(&ops, &self.reference, &self.tols, self.absolute);
        }
        let (throughput, p50, p90) = jobs.quiet_stats(wl.items_per_job());
        let rss = cml_telemetry::peak_rss_bytes().ok_or("VmHWM is unavailable")?;
        let pass = 1.0 - check.failed as f64 / check.attempted.max(1) as f64;
        let metrics = vec![
            ("setup_s", setups.median_s(), "s"),
            ("throughput", throughput, "1/s"),
            ("unit_ms_p50", p50, "ms"),
            ("unit_ms_p90", p90, "ms"),
            ("peak_rss_mb", rss as f64 / 1e6, "MB"),
            ("pass_frac", pass, "frac"),
            (
                "accuracy_err",
                check.max_dev.max(self.spec.accuracy_floor),
                "rel",
            ),
        ];
        Ok((check, metrics))
    }

    /// One leg of a traced run: cold cache, one set-up, one job. Returns
    /// the leg's wall time (set-up + job) in nanoseconds.
    fn leg(&self, tr: &Trace, check: &mut Check) -> Result<f64, String> {
        cml_cache::intern::clear_in_memory();
        let t = Instant::now();
        let mut wl = self.setup(tr)?;
        let ops = wl.job(tr, &mut Vec::new());
        let wall_ns = t.elapsed().as_secs_f64() * 1e9;
        check.add(&ops, &self.reference, &self.tols, self.absolute);
        Ok(wall_ns)
    }

    /// `--trace 1`: untraced and traced legs alternate until the run's
    /// seconds are spent; the table is the median traced leg's.
    fn per_layer(&self) -> Result<(Check, trace::LayerTable, f64, usize), String> {
        let mut check = Check::default();
        let mut tables = Vec::new();
        let mut overhead = Vec::new();
        let t0 = Instant::now();
        while tables.is_empty() || t0.elapsed().as_secs_f64() < self.args.seconds {
            let plain = self.leg(&Trace::off(), &mut check)?;
            let tr = Trace::on();
            let traced = self.leg(&tr, &mut check)?;
            overhead.push(traced / plain - 1.0);
            tables.push(tr.finish(traced));
        }
        let legs = tables.len();
        tables.sort_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms));
        let table = tables.swap_remove(legs / 2);
        Ok((check, table, median(&overhead), legs))
    }
}

fn detail_json(table: &trace::LayerTable, legs: usize) -> Value {
    Value::Obj(vec![
        ("legs".into(), Value::Num(legs as f64)),
        ("traced_wall_ms".into(), Value::Num(table.wall_ms)),
        (
            "layer_self_ms".into(),
            Value::Obj(
                table
                    .self_ms
                    .iter()
                    .map(|&(l, t)| (l.to_string(), Value::Num(t)))
                    .collect(),
            ),
        ),
        ("unattributed_ms".into(), Value::Num(table.unattributed_ms)),
        (
            "nesting_errors".into(),
            Value::Arr(
                table
                    .nesting_errors
                    .iter()
                    .cloned()
                    .map(Value::Str)
                    .collect(),
            ),
        ),
    ])
}

fn measure(spec: &Spec, args: &Args, seed: u64) -> Result<Value, String> {
    let path = args.reference.as_ref().ok_or("measure needs --ref FILE")?;
    let reference = Reference::load(path)?;
    if reference.workload != args.workload
        || reference.seed != seed
        || reference.smoke != args.smoke
    {
        return Err(format!(
            "{} holds {} seed {} (smoke {}), not {} seed {seed} (smoke {})",
            path.display(),
            reference.workload,
            reference.seed,
            reference.smoke,
            args.workload,
            args.smoke
        ));
    }
    let (tols, absolute) = tolerances(spec, &args.workload)?;
    let run = Run {
        spec,
        args,
        seed,
        reference,
        tols,
        absolute,
    };
    let (check, metrics, nesting_ok) = if args.trace {
        let (check, table, overhead, legs) = run.per_layer()?;
        if let Some(p) = &args.detail {
            let text = serde_json::to_string_pretty(&detail_json(&table, legs)).unwrap_or_default();
            std::fs::write(p, text).map_err(|e| format!("{}: {e}", p.display()))?;
        }
        for e in &table.nesting_errors {
            eprintln!("perfbench: {e}");
        }
        (
            check,
            table.metrics(overhead),
            table.nesting_errors.is_empty(),
        )
    } else {
        let (check, metrics) = run.end_to_end()?;
        (check, metrics, true)
    };
    Ok(Value::Obj(vec![
        (
            "correct".into(),
            Value::Bool(check.failed == 0 && nesting_ok),
        ),
        ("attempted".into(), Value::Num(check.attempted as f64)),
        ("failed".into(), Value::Num(check.failed as f64)),
        ("metrics".into(), metric_obj(&metrics)),
    ]))
}

fn reference(spec: &Spec, args: &Args, seed: u64) -> Result<(), String> {
    let out = args.out.as_ref().ok_or("reference needs --out FILE")?;
    let (tols, _) = tolerances(spec, &args.workload)?;
    let wl = workloads::setup(
        spec,
        &args.workload,
        seed,
        args.smoke,
        args.threads,
        &Trace::off(),
    )?;
    let reference = Reference {
        workload: args.workload.clone(),
        seed,
        smoke: args.smoke,
        outputs: tols.into_iter().map(|(n, _)| n).collect(),
        values: wl.reference()?,
    };
    std::fs::write(out, reference.to_json()).map_err(|e| format!("{}: {e}", out.display()))
}

fn main() -> ExitCode {
    let spec = Spec::load();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    isolate_env(&spec, args.threads.unwrap_or(spec.threads));
    let seed = args.seed.unwrap_or(spec.default_seed);
    let result = match args.mode.as_str() {
        "measure" => measure(&spec, &args, seed)
            .map(|v| println!("{}", serde_json::to_string(&v).unwrap_or_default())),
        "reference" => reference(&spec, &args, seed),
        other => Err(format!("unknown mode {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
