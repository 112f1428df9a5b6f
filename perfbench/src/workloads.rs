//! The four paper workloads: set-up, one job of the closed loop, and
//! the reference path each job's outputs are checked against.

use crate::spec::{self, Spec};
use crate::trace::{Par, Trace};
use cml_core::cells::cml_buffer::{self, CmlBufferConfig};
use cml_core::cells::input_interface::{self, InputInterfaceConfig};
use cml_core::cells::{add_diff_drive, add_supply, DiffPort};
use cml_core::stream::EyeSink;
use cml_core::yield_est::{
    transistor_offset_yield_scalar, transistor_offset_yield_traced, PairYieldSpec, YieldConfig,
};
use cml_pdk::Pdk018;
use cml_runner::point_seed;
use cml_sig::eye::EyeDiagram;
use cml_sig::measure::Bode;
use cml_sig::nrz::NrzConfig;
use cml_sig::prbs::Prbs;
use cml_sig::streaming::{EyeAccumulator, EyeAccumulatorConfig};
use cml_sig::UniformWave;
use cml_spice::analysis::sink::{DenseSink, TranMeta, TranProbes, WaveChunk, WaveSink};
use cml_spice::analysis::{ac, op, NewtonOptions};
use cml_spice::prelude::*;
use cml_spice::SpiceError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::time::Instant;

/// 10 Gb/s unit interval.
const UI: f64 = 100e-12;

/// The outputs of one operation (one transient, yield call or design
/// point), or why it failed.
pub type OpOutput = Result<Vec<f64>, String>;

/// A set-up workload, ready to run jobs of its closed loop.
pub trait Workload {
    /// Items (simulated bits, trials, design points) one job delivers.
    fn items_per_job(&self) -> u64;

    /// Runs one job, pushing the latency of every delivered unit (ms)
    /// onto `units`, and returns the outputs of each operation in order.
    fn job(&mut self, tr: &Trace, units: &mut Vec<f64>) -> Vec<OpOutput>;

    /// The job's outputs computed through the repository's reference
    /// path.
    ///
    /// # Errors
    ///
    /// The first failing reference solve.
    fn reference(&self) -> Result<Vec<Vec<f64>>, String>;
}

/// Builds workload `name` for `seed`: netlists, stimuli, lint and the
/// first DC operating point. Calls that fan out use the workload's own
/// thread count unless `threads` overrides it.
///
/// # Errors
///
/// An unknown name or a failing set-up solve.
pub fn setup(
    spec: &Spec,
    name: &str,
    seed: u64,
    smoke: bool,
    threads: Option<usize>,
    tr: &Trace,
) -> Result<Box<dyn Workload>, String> {
    let ws = spec
        .workload(name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let threads = match (threads, ws.get("threads")) {
        (Some(n), _) => n,
        (None, Some(Value::Num(n))) => *n as usize,
        _ => return Err(format!("workload {name} lacks threads")),
    };
    Ok(match name {
        "rx_eye_prbs7" => Box::new(EyeBench::rx(ws, seed, smoke, tr)?),
        "tx_stream_prbs31" => Box::new(EyeBench::tx(ws, seed, smoke, tr)?),
        "mc_yield" => Box::new(YieldBench::new(ws, seed, smoke, threads, tr)?),
        "la_ac_tune" => Box::new(AcTuneBench::new(ws, seed, smoke, threads, tr)?),
        _ => return Err(format!("workload {name} has no implementation")),
    })
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A PRBS generator of `order` whose start state is drawn from `seed`.
fn seeded_prbs(order: u32, taps: (u32, u32), seed: u64) -> Prbs {
    let period = (1u64 << order) - 1;
    Prbs::with_seed(order, taps, (point_seed(seed, 0) % period + 1) as u32)
}

/// Lint precheck issued by the benchmark as its own set-up step.
fn lint(ckt: &Circuit, tr: &Trace) -> Result<(), String> {
    tr.note_explicit_lint();
    tr.span("spice.lint", || cml_spice::lint::precheck(ckt))
        .map_err(err)
}

fn first_op(ckt: &Circuit, opts: &NewtonOptions, tr: &Trace) -> Result<OpResult, String> {
    tr.call("spice.op", Par::Serial, |tel| {
        op::solve_traced(ckt, opts, None, tel)
    })
    .map_err(err)
}

// ---------------------------------------------------------------------
// Eye workloads
// ---------------------------------------------------------------------

/// How the reference eye is folded.
#[derive(Debug, Clone, Copy)]
enum RefFold {
    /// `EyeDiagram::fold` on the full record.
    Exact,
    /// `EyeAccumulator` fed the record (for multi-million-sample runs,
    /// where the exact fold is too slow).
    Streaming,
}

/// A transient streamed through an eye sink: the two eye workloads
/// differ only in circuit, pattern and stepping.
struct EyeBench {
    ckt: Circuit,
    probes: TranProbes,
    tcfg: TranConfig,
    eye_cfg: EyeAccumulatorConfig,
    bits: usize,
    ref_fold: RefFold,
}

/// Forwards chunks to an [`EyeSink`], timing the fold as its own layer
/// and recording each chunk's delivery latency.
struct TimedEyeSink<'a> {
    inner: EyeSink,
    tr: &'a Trace,
    last: Instant,
    units: &'a mut Vec<f64>,
}

impl WaveSink for TimedEyeSink<'_> {
    fn begin(&mut self, meta: &TranMeta) -> Result<(), SpiceError> {
        self.inner.begin(meta)
    }

    fn chunk(&mut self, chunk: &WaveChunk<'_>) -> Result<(), SpiceError> {
        let inner = &mut self.inner;
        let r = self.tr.span("sig.eye.fold", || inner.chunk(chunk));
        self.tr.note_eye_chunk(chunk.len());
        let now = Instant::now();
        self.units.push((now - self.last).as_secs_f64() * 1e3);
        self.last = now;
        r
    }

    fn finish(&mut self, meta: &TranMeta) -> Result<(), SpiceError> {
        self.inner.finish(meta)
    }
}

fn eye_outputs(m: &cml_sig::eye::EyeMetrics) -> Vec<f64> {
    vec![m.height, m.width, m.rms_jitter]
}

impl EyeBench {
    /// Transistor-level input interface, three periods of PRBS-7,
    /// adaptive sparse transient.
    fn rx(ws: &Value, seed: u64, smoke: bool, tr: &Trace) -> Result<Self, String> {
        let bits = if smoke {
            spec::size(ws, "bits", true) as usize
        } else {
            spec::size(ws, "periods", false) as usize * 127
        };
        let skip = if smoke { 4.0 } else { 127.0 } * UI;
        let amplitude = spec::size(ws, "amplitude_v", false);
        let cfg = InputInterfaceConfig::paper_default();
        let vcm = cfg.equalizer.input_common_mode();
        let pwl = tr.span("sig.nrz.render", || {
            let pattern: Vec<bool> = seeded_prbs(7, (7, 1), seed).take(bits).collect();
            NrzConfig::new(UI, amplitude)
                .with_offset(vcm)
                .render_pwl(&pattern)
        });
        let (ckt, out) = tr.span("core.cells.build", || {
            let pdk = Pdk018::typical();
            let mut ckt = Circuit::new();
            let vdd = add_supply(&mut ckt, cml_pdk::VDD);
            let input = DiffPort::named(&mut ckt, "in");
            let out = DiffPort::named(&mut ckt, "out");
            add_diff_drive(&mut ckt, "VIN", input, vcm, Some(Waveform::Pwl(pwl)));
            input_interface::build(&mut ckt, &pdk, &cfg, "rx", input, out, vdd);
            ckt.add(Capacitor::new("CLP", out.p, Circuit::GROUND, 20e-15));
            ckt.add(Capacitor::new("CLN", out.n, Circuit::GROUND, 20e-15));
            (ckt, out)
        });
        let tcfg = TranConfig::new(bits as f64 * UI, 1e-12).adaptive();
        lint(&ckt, tr)?;
        first_op(&ckt, &tcfg.newton, tr)?;
        Ok(EyeBench {
            probes: TranProbes::new().differential("vout", out.p, out.n),
            ckt,
            tcfg,
            // Folding whole periods after a settling period makes the eye
            // the same bit population whatever the PRBS start state.
            eye_cfg: EyeAccumulatorConfig::new(UI, 1e-12, -1.0, 1.0).with_skip(skip),
            bits,
            ref_fold: RefFold::Exact,
        })
    }

    /// Transistor-level CML buffer, ~20 k bits of PRBS-31, fixed 5 ps
    /// dense transient.
    fn tx(ws: &Value, seed: u64, smoke: bool, tr: &Trace) -> Result<Self, String> {
        let bits = spec::size(ws, "bits", smoke) as usize;
        let cfg = CmlBufferConfig::paper_default();
        let vcm = cml_buffer::output_common_mode(&cfg);
        let swing = cfg.stage.swing();
        let pwl = tr.span("sig.nrz.render", || {
            let pattern: Vec<bool> = seeded_prbs(31, (29, 1), seed).take(bits).collect();
            NrzConfig::new(UI, swing)
                .with_offset(vcm)
                .render_pwl(&pattern)
        });
        let (ckt, out) = tr.span("core.cells.build", || {
            let pdk = Pdk018::typical();
            let mut ckt = Circuit::new();
            let vdd = add_supply(&mut ckt, cml_pdk::VDD);
            let input = DiffPort::named(&mut ckt, "in");
            let out = DiffPort::named(&mut ckt, "out");
            add_diff_drive(&mut ckt, "VIN", input, vcm, Some(Waveform::Pwl(pwl)));
            cml_buffer::build(&mut ckt, &pdk, &cfg, "buf", input, out, vdd);
            (ckt, out)
        });
        let dt = 5e-12;
        let tcfg = TranConfig::new(bits as f64 * UI, dt);
        lint(&ckt, tr)?;
        first_op(&ckt, &tcfg.newton, tr)?;
        Ok(EyeBench {
            probes: TranProbes::new().differential("vout", out.p, out.n),
            ckt,
            tcfg,
            eye_cfg: EyeAccumulatorConfig::new(UI, dt, -1.2 * swing, 1.2 * swing)
                .with_skip(8.0 * UI),
            bits,
            ref_fold: RefFold::Streaming,
        })
    }
}

impl Workload for EyeBench {
    fn items_per_job(&self) -> u64 {
        self.bits as u64
    }

    fn job(&mut self, tr: &Trace, units: &mut Vec<f64>) -> Vec<OpOutput> {
        let mut sink = TimedEyeSink {
            inner: EyeSink::new("vout", self.eye_cfg.clone()),
            tr,
            last: Instant::now(),
            units,
        };
        let run = tr.call("spice.tran", Par::Serial, |tel| {
            tran::run_streaming_traced(&self.ckt, &self.tcfg, &self.probes, &mut sink, tel)
        });
        let out = run.map_err(err).map(|_| {
            tr.span("sig.eye.fold", || {
                eye_outputs(&sink.inner.accumulator().metrics())
            })
        });
        vec![out]
    }

    fn reference(&self) -> Result<Vec<Vec<f64>>, String> {
        let dt = 1e-12;
        let mut cfg = TranConfig::new(self.tcfg.t_stop, dt);
        cfg.newton.sparse_threshold = usize::MAX;
        let mut record = DenseSink::new();
        tran::run_streaming(&self.ckt, &cfg, &self.probes, &mut record).map_err(err)?;
        let (times, cols) = record.into_parts();
        let m = match self.ref_fold {
            RefFold::Exact => {
                let wave = UniformWave::from_series(&times, &cols[0], dt);
                EyeDiagram::fold(&wave.skip_initial(self.eye_cfg.skip), UI).metrics()
            }
            RefFold::Streaming => {
                let mut acc = EyeAccumulator::new(EyeAccumulatorConfig {
                    dt,
                    ..self.eye_cfg.clone()
                });
                acc.feed(&times, &cols[0]);
                acc.metrics()
            }
        };
        Ok(vec![eye_outputs(&m)])
    }
}

// ---------------------------------------------------------------------
// Monte-Carlo yield
// ---------------------------------------------------------------------

/// Batched transistor-level pair-offset yield over the five corners.
struct YieldBench {
    spec: PairYieldSpec,
    thresholds: Vec<f64>,
    seed: u64,
    trials: usize,
    chunk: usize,
    calls: usize,
    threads: usize,
}

impl YieldBench {
    fn new(ws: &Value, seed: u64, smoke: bool, threads: usize, tr: &Trace) -> Result<Self, String> {
        let thresholds = match ws.get("inputs").and_then(|i| i.get("thresholds_v")) {
            Some(Value::Arr(a)) => a
                .iter()
                .map(|v| match v {
                    Value::Num(n) => Ok(*n),
                    other => Err(format!("threshold is not a number: {other:?}")),
                })
                .collect::<Result<Vec<f64>, String>>()?,
            _ => return Err("mc_yield lacks inputs.thresholds_v".into()),
        };
        let bench = YieldBench {
            spec: PairYieldSpec::paper_chain().all_corners(),
            thresholds,
            seed,
            trials: spec::size(ws, "trials_per_call", smoke) as usize,
            chunk: spec::size(ws, "chunk", smoke) as usize,
            calls: spec::size(ws, "calls_per_job", smoke) as usize,
            threads,
        };
        // Priming call: nominal corner ops plus one batch, which is what
        // reaches the first DC operating point of this workload.
        let prime = YieldConfig::new(8, seed).with_chunk(8);
        tr.call("core.yield", Par::Chunks(1), |tel| {
            transistor_offset_yield_traced(&prime, &bench.spec, &bench.thresholds, tel)
        })
        .map_err(err)?;
        Ok(bench)
    }

    fn config(&self, call: usize) -> YieldConfig {
        YieldConfig::new(self.trials, point_seed(self.seed, call))
            .with_chunk(self.chunk)
            .with_threads(self.threads)
    }

    fn table(&self, y: &cml_core::yield_est::TransistorYield) -> Vec<f64> {
        (0..self.thresholds.len())
            .map(|i| y.estimate.yield_frac(i))
            .collect()
    }
}

impl Workload for YieldBench {
    fn items_per_job(&self) -> u64 {
        (self.trials * self.calls) as u64
    }

    fn job(&mut self, tr: &Trace, units: &mut Vec<f64>) -> Vec<OpOutput> {
        let workers = self.threads.min(self.trials.div_ceil(self.chunk));
        (0..self.calls)
            .map(|call| {
                let cfg = self.config(call);
                let t = Instant::now();
                let r = tr.call("core.yield", Par::Chunks(workers), |tel| {
                    transistor_offset_yield_traced(&cfg, &self.spec, &self.thresholds, tel)
                });
                units.push(ms_since(t));
                r.map(|y| self.table(&y)).map_err(err)
            })
            .collect()
    }

    fn reference(&self) -> Result<Vec<Vec<f64>>, String> {
        (0..self.calls)
            .map(|call| {
                transistor_offset_yield_scalar(&self.config(call), &self.spec, &self.thresholds)
                    .map(|y| self.table(&y))
                    .map_err(err)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Equalizer / limiting-amp AC tuning loop
// ---------------------------------------------------------------------

/// Build → lint → op → log AC sweep → Bode over seeded design points
/// that share one topology.
struct AcTuneBench {
    points: Vec<InputInterfaceConfig>,
    freqs: Vec<f64>,
    threads: usize,
}

fn range(ws: &Value, key: &str) -> Result<(f64, f64), String> {
    match ws
        .get("inputs")
        .and_then(|i| i.get("ranges"))
        .and_then(|r| r.get(key))
    {
        Some(Value::Arr(a)) => match a.as_slice() {
            [Value::Num(lo), Value::Num(hi)] => Ok((*lo, *hi)),
            _ => Err(format!("range {key} is not [lo, hi]")),
        },
        _ => Err(format!("la_ac_tune lacks inputs.ranges.{key}")),
    }
}

/// One design point: a circuit and its differential output.
fn ac_circuit(cfg: &InputInterfaceConfig) -> (Circuit, DiffPort) {
    let pdk = Pdk018::typical();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let out = DiffPort::named(&mut ckt, "out");
    add_diff_drive(
        &mut ckt,
        "VIN",
        input,
        cfg.equalizer.input_common_mode(),
        None,
    );
    input_interface::build(&mut ckt, &pdk, cfg, "rx", input, out, vdd);
    ckt.add(Capacitor::new("CLP", out.p, Circuit::GROUND, 20e-15));
    ckt.add(Capacitor::new("CLN", out.n, Circuit::GROUND, 20e-15));
    (ckt, out)
}

/// Gain at the first swept frequency and −3 dB bandwidth.
fn bode_outputs(freqs: &[f64], res: &AcResult, out: DiffPort) -> Result<Vec<f64>, String> {
    let bode = Bode::new(freqs.to_vec(), res.differential_trace(out.p, out.n));
    let bw = bode
        .bandwidth_3db()
        .ok_or("the gain never falls 3 dB inside the sweep")?;
    Ok(vec![bode.gains()[0].abs(), bw])
}

impl AcTuneBench {
    fn new(ws: &Value, seed: u64, smoke: bool, threads: usize, tr: &Trace) -> Result<Self, String> {
        let n = spec::size(ws, "points_per_job", smoke) as usize;
        let keys = [
            "equalizer.v_control",
            "la.stage.r_load",
            "la.stage.i_tail",
            "la.stage.peaking_frac",
            "la.interstage_fb",
        ];
        let ranges = keys
            .iter()
            .map(|k| range(ws, k))
            .collect::<Result<Vec<_>, String>>()?;
        let points = (0..n)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(point_seed(seed, i));
                let mut draw = |k: usize| rng.gen_range(ranges[k].0..ranges[k].1);
                let mut cfg = InputInterfaceConfig::paper_default();
                cfg.equalizer.v_control = draw(0);
                cfg.la.stage.stage.r_load = draw(1);
                cfg.la.stage.stage.i_tail = draw(2);
                cfg.la.stage.peaking_frac = draw(3);
                cfg.la.interstage_fb = draw(4);
                cfg
            })
            .collect::<Vec<_>>();
        let freqs = cml_numeric::logspace(
            spec::size(ws, "f_start_hz", false),
            spec::size(ws, "f_stop_hz", false),
            spec::size(ws, "ac_points", false) as usize,
        );
        let (ckt, _) = tr.span("core.cells.build", || ac_circuit(&points[0]));
        lint(&ckt, tr)?;
        first_op(&ckt, &NewtonOptions::default(), tr)?;
        Ok(AcTuneBench {
            points,
            freqs,
            threads,
        })
    }

    fn point(&self, cfg: &InputInterfaceConfig, tr: &Trace) -> OpOutput {
        let (ckt, out) = tr.span("core.cells.build", || ac_circuit(cfg));
        lint(&ckt, tr)?;
        let opts = NewtonOptions::default();
        let x = first_op(&ckt, &opts, tr)?;
        let res = tr
            .call("spice.ac", Par::AcFanout, |tel| {
                ac::sweep_traced(&ckt, x.solution(), &self.freqs, &opts, self.threads, tel)
            })
            .map_err(err)?;
        tr.span("sig.measure", || bode_outputs(&self.freqs, &res, out))
    }
}

impl Workload for AcTuneBench {
    fn items_per_job(&self) -> u64 {
        self.points.len() as u64
    }

    fn job(&mut self, tr: &Trace, units: &mut Vec<f64>) -> Vec<OpOutput> {
        self.points
            .iter()
            .map(|cfg| {
                let t = Instant::now();
                let r = self.point(cfg, tr);
                units.push(ms_since(t));
                r
            })
            .collect()
    }

    fn reference(&self) -> Result<Vec<Vec<f64>>, String> {
        let dense = NewtonOptions {
            sparse_threshold: usize::MAX,
            ..NewtonOptions::default()
        };
        self.points
            .iter()
            .map(|cfg| {
                let (ckt, out) = ac_circuit(cfg);
                let x = op::solve_with(&ckt, &dense, None).map_err(err)?;
                let res =
                    ac::sweep_with(&ckt, x.solution(), &self.freqs, &dense, 1).map_err(err)?;
                bode_outputs(&self.freqs, &res, out)
            })
            .collect()
    }
}
