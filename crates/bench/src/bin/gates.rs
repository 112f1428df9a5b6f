//! Wall-clock and peak-memory gates.
//!
//! Every correctness check (bit-identity, ≤ 1e-9 agreement, thread
//! invariance, replay) lives in the tier-1 test suite; performance
//! numbers come from `perfbench/`. What is left here are the bounds
//! that only a release build on real hardware can check: cost ratios
//! between two code paths on one host, and flat peak memory on
//! workloads too large for a test.
//!
//! | Gate | Statistic | Bound (smoke / full) |
//! |---|---|---|
//! | importance-sampled sweep peak RSS growth | one run | < 64 MiB |
//! | streaming eye peak RSS growth | one run | < 256 MiB |
//! | lint precheck / dense transient | avg of 20 / 200 vs one run | < 1 % |
//! | analyzer / dense transient | avg of 20 / 200 vs one run | < 5 % / < 1 % |
//! | batched vs scalar Monte-Carlo | avg of 10 / 3 interleaved | ≥ 3× |
//! | warm vs cold topology cache | avg of 30 / 40 interleaved | ≥ 1.05× / ≥ 1.3× |
//! | telemetry on vs off, transient | median of 15 interleaved | full only: < 2 % |
//! | telemetry on vs off, AC sweep | median of 25 interleaved | full only: < 2 % |
//! | event log on vs off, transient | min of 21 interleaved | full only: < 2 % |
//! | sparse parallel vs dense serial AC | one run each | full only: ≥ 3× |
//!
//! Full mode streams a million-bit PRBS-31 eye and a 10 M-trial sweep
//! (a few minutes); `--smoke` shrinks every workload for CI. Every gate
//! runs; the process exits 1 if any failed. `CML_TELEMETRY=json:...`
//! / `prom:...` sinks receive the traced runs.
//!
//! Run with: `cargo run --release -p cml-bench --bin gates [-- --smoke]`

// Command-line target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_bench::UI;
use cml_core::cells::cml_buffer::{self, CmlBufferConfig};
use cml_core::cells::input_interface::{self, InputInterfaceConfig};
use cml_core::cells::limiting_amp::{self, LimitingAmpConfig};
use cml_core::cells::{add_diff_drive, add_supply, DiffPort};
use cml_core::stream::{EyeSink, MetricsSink};
use cml_core::yield_est::{self, ChainSpec, PairYieldSpec, YieldConfig};
use cml_lint::builtin_circuit;
use cml_numeric::logspace;
use cml_pdk::Pdk018;
use cml_sig::nrz::NrzConfig;
use cml_sig::prbs::Prbs;
use cml_sig::streaming::EyeAccumulatorConfig;
use cml_spice::analysis::tran::{self, TranConfig};
use cml_spice::analysis::{ac, op, NewtonOptions};
use cml_spice::prelude::*;
use cml_spice::telemetry::{self, Telemetry};
use cml_spice::{analyze, lint};
use std::time::Instant;

const MIB: u64 = 1024 * 1024;

/// How [`time_ms`] reduces one leg's per-round samples.
#[derive(Clone, Copy)]
enum Stat {
    Avg,
    /// Robust to stalls and to lucky rounds alike.
    Median,
    /// Scheduler noise is strictly additive, so the fastest round is
    /// the closest estimate of a leg's true cost.
    Min,
}

/// Times every leg once per round for `reps` interleaved rounds (so
/// slow drift hits all legs alike) and returns each leg's `stat`, in
/// milliseconds.
fn time_ms(reps: usize, stat: Stat, legs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut samples = vec![Vec::with_capacity(reps); legs.len()];
    for _ in 0..reps {
        for (leg, s) in legs.iter_mut().zip(&mut samples) {
            let t0 = Instant::now();
            leg();
            s.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    samples
        .into_iter()
        .map(|mut v| match stat {
            Stat::Avg => v.iter().sum::<f64>() / v.len() as f64,
            Stat::Min => v.into_iter().fold(f64::INFINITY, f64::min),
            Stat::Median => {
                v.sort_by(f64::total_cmp);
                let n = v.len();
                if n % 2 == 1 {
                    v[n / 2]
                } else {
                    (v[n / 2 - 1] + v[n / 2]) / 2.0
                }
            }
        })
        .collect()
}

/// Peak resident set size (`VmHWM`) of this process so far, bytes.
fn peak_rss() -> u64 {
    telemetry::peak_rss_bytes().expect("VmHWM available on Linux")
}

/// The paper's transistor-level receive chain (equalizer → buffer → LA
/// → output buffer, ~100 MNA unknowns) driven by `n_bits` of 10 Gb/s
/// PRBS-7, with a 20 fF load per output. Returns the circuit and the
/// stop time.
fn transistor_eye(n_bits: usize) -> (Circuit, f64) {
    let pdk = Pdk018::typical();
    let cfg = InputInterfaceConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let out = DiffPort::named(&mut ckt, "out");
    let vcm = cfg.equalizer.input_common_mode();
    let bits: Vec<bool> = Prbs::prbs7().take(n_bits).collect();
    let pwl = NrzConfig::new(UI, 0.2).with_offset(vcm).render_pwl(&bits);
    add_diff_drive(&mut ckt, "VIN", input, vcm, Some(Waveform::Pwl(pwl)));
    input_interface::build(&mut ckt, &pdk, &cfg, "rx", input, out, vdd);
    ckt.add(Capacitor::new("CLP", out.p, Circuit::GROUND, 20e-15));
    ckt.add(Capacitor::new("CLN", out.n, Circuit::GROUND, 20e-15));
    (ckt, n_bits as f64 * UI)
}

/// The transistor-level four-stage limiting amplifier with a unit
/// differential AC drive and a 20 fF load per output.
fn limiting_amp() -> Circuit {
    let pdk = Pdk018::typical();
    let cfg = LimitingAmpConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let out = DiffPort::named(&mut ckt, "out");
    let vcm = limiting_amp::common_mode(&cfg);
    add_diff_drive(&mut ckt, "VIN", input, vcm, None);
    limiting_amp::build(&mut ckt, &pdk, &cfg, "la", input, out, vdd);
    ckt.add(Capacitor::new("CLP", out.p, Circuit::GROUND, 20e-15));
    ckt.add(Capacitor::new("CLN", out.n, Circuit::GROUND, 20e-15));
    ckt
}

fn sparse() -> NewtonOptions {
    NewtonOptions {
        sparse_threshold: 1,
        ..NewtonOptions::default()
    }
}

/// Collects gate outcomes; every gate runs even after one fails.
#[derive(Default)]
struct Gates {
    failed: Vec<&'static str>,
}

impl Gates {
    fn record(&mut self, name: &'static str, ok: bool, shown: String) {
        println!("{} {name:<34} {shown}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            self.failed.push(name);
        }
    }

    /// A cost ratio that must stay under `budget`.
    fn cost(&mut self, name: &'static str, ratio: f64, budget: f64) {
        let shown = format!("{:8.4} %  (< {} %)", ratio * 1e2, budget * 1e2);
        self.record(name, ratio < budget, shown);
    }

    /// A speedup that must reach `floor`.
    fn speedup(&mut self, name: &'static str, ratio: f64, floor: f64) {
        self.record(
            name,
            ratio >= floor,
            format!("{ratio:8.2} x  (>= {floor} x)"),
        );
    }

    /// Peak-RSS growth that must stay under `budget_mib`.
    fn memory(&mut self, name: &'static str, bytes: u64, budget_mib: u64) {
        let shown = format!("{:8.1} MiB (< {budget_mib} MiB)", bytes as f64 / MIB as f64);
        self.record(name, bytes < budget_mib * MIB, shown);
    }
}

/// Peak-RSS growth of a multi-million-trial importance-sampled
/// behavioral yield sweep streamed through `par_fold` chunks. Holding
/// 10 M trials would need ~240 MB for the sample vectors alone.
fn sweep_rss(g: &mut Gates, smoke: bool, threads: usize, tel: &Telemetry) {
    let n: usize = if smoke { 200_000 } else { 10_000_000 };
    let cfg = YieldConfig::new(n, 0x106B5)
        .with_chunk(8192)
        .with_threads(threads)
        .with_sigma_scale(2.0);
    let thresholds = [0.05, 0.1, 0.2, 0.24];
    let before = peak_rss();
    let est = yield_est::behavioral_offset_yield_traced(
        &cfg,
        &ChainSpec::paper_default(),
        &thresholds,
        tel,
    );
    let delta = peak_rss() - before;
    assert_eq!(est.raw.trials, n as u64, "trial count mismatch");
    println!("     {n} importance-sampled behavioral trials, {threads} threads");
    g.memory("sweep peak RSS growth", delta, 64);
}

/// Peak-RSS growth of a streamed PRBS eye through a transistor-level
/// CML buffer at 20 samples per UI. The dense record of the million-bit
/// run would be ~8 GB; the budget covers the sinks, the solver and the
/// PWL drive (~32 B/bit, the one O(bits) term).
fn stream_rss(g: &mut Gates, smoke: bool, tel: &Telemetry) {
    let n_bits = if smoke { 4_000 } else { 1_000_000 };
    let (pattern, bits): (&str, Vec<bool>) = if smoke {
        ("PRBS-15", Prbs::prbs15().take(n_bits).collect())
    } else {
        ("PRBS-31", Prbs::prbs31().take(n_bits).collect())
    };
    let pdk = Pdk018::typical();
    let cfg = CmlBufferConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let out = DiffPort::named(&mut ckt, "out");
    let vcm = cml_buffer::output_common_mode(&cfg);
    let swing = cfg.stage.swing();
    let pwl = NrzConfig::new(UI, swing).with_offset(vcm).render_pwl(&bits);
    add_diff_drive(&mut ckt, "VIN", input, vcm, Some(Waveform::Pwl(pwl)));
    cml_buffer::build(&mut ckt, &pdk, &cfg, "buf", input, out, vdd);

    let dt = 5e-12;
    let tcfg = TranConfig::new(n_bits as f64 * UI, dt);
    let eye_cfg = EyeAccumulatorConfig::new(UI, dt, -1.2 * swing, 1.2 * swing).with_skip(8.0 * UI);
    let probes = TranProbes::new().differential("vout", out.p, out.n);
    let mut eye = EyeSink::new("vout", eye_cfg);
    let mut metrics = MetricsSink::new("vout", 0.0);
    let before = peak_rss();
    let stats = {
        let mut tee = Tee::new(&mut eye, &mut metrics);
        tran::run_streaming_traced(&ckt, &tcfg, &probes, &mut tee, tel).expect("streamed eye")
    };
    let delta = peak_rss() - before;
    // t = 0 plus ~t_stop/dt steps (fp rounding of the grid may shift
    // the count by one).
    let expected = (n_bits as f64 * UI / dt) as u64 + 1;
    assert!(
        stats.samples.abs_diff(expected) <= 1,
        "sample count {} far from expected {expected}",
        stats.samples
    );
    assert_eq!(
        metrics.metrics().count(),
        stats.samples,
        "sink missed samples"
    );
    let m = eye.accumulator().metrics();
    assert!(m.height > 0.0, "eye closed at the buffer output");
    println!(
        "     {pattern} {n_bits} bits, {} samples, eye {:.1} mV x {:.1} ps",
        stats.samples,
        m.height * 1e3,
        m.width * 1e12
    );
    g.memory("streaming eye peak RSS growth", delta, 256);
}

/// Lint precheck and static analyzer cost, each against one dense
/// fixed-step transient of the PRBS-7 receive chain. The analyzer's
/// cost is fixed per circuit while the smoke transient is 5x shorter,
/// so its smoke budget is 5x wider.
fn precheck_costs(g: &mut Gates, smoke: bool, tel: &Telemetry) {
    let (ckt, t_stop) = transistor_eye(if smoke { 8 } else { 40 });
    let reps = if smoke { 20 } else { 200 };
    let t = time_ms(
        reps,
        Stat::Avg,
        &mut [
            &mut || lint::precheck(&ckt).expect("clean workload"),
            &mut || drop(analyze::analyze(&ckt)),
        ],
    );
    let mut dense = TranConfig::new(t_stop, 1e-12);
    dense.newton.sparse_threshold = usize::MAX;
    let t0 = Instant::now();
    tran::run_traced(&ckt, &dense, tel).expect("dense transient");
    let dense_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("     dense transient {dense_ms:.1} ms");
    g.cost("lint precheck / dense tran", t[0] / dense_ms, 0.01);
    let budget = if smoke { 0.05 } else { 0.01 };
    g.cost("analyzer / dense tran", t[1] / dense_ms, budget);
}

/// Transistor-level pair-offset trials per second: warm-started
/// batched lockstep against the per-trial scalar Newton ladder on the
/// four-stage chain, in interleaved rounds.
fn batched_yield(g: &mut Gates, smoke: bool, threads: usize, tel: &Telemetry) {
    let (n, reps) = if smoke { (768, 10) } else { (12_288, 3) };
    let spec = PairYieldSpec::paper_chain();
    let thresholds = [5e-3, 0.1, 0.5];
    let cfg = YieldConfig::new(n, 0xBEEF)
        .with_chunk(512)
        .with_threads(threads);
    let t = time_ms(
        reps,
        Stat::Avg,
        &mut [
            &mut || {
                yield_est::transistor_offset_yield_scalar(&cfg, &spec, &thresholds)
                    .expect("scalar sweep");
            },
            &mut || {
                yield_est::transistor_offset_yield_traced(&cfg, &spec, &thresholds, tel)
                    .expect("batched sweep");
            },
        ],
    );
    println!(
        "     {n} transistor trials, {threads} threads: scalar {:.1} ms/round, batched {:.1} ms/round",
        t[0], t[1]
    );
    g.speedup("batched / scalar Monte-Carlo", t[0] / t[1], 3.0);
}

/// Rounds of lint-prechecked op plus a small AC sweep over four
/// builtin blocks, with the topology cache off (every round derives
/// everything) and on (the first warm round primes the interner and is
/// included), interleaved so that drift hits both legs alike.
fn warm_cache(g: &mut Gates, smoke: bool, tel: &Telemetry) {
    let reps = if smoke { 30 } else { 40 };
    let freqs = logspace(1e6, 60e9, if smoke { 8 } else { 16 });
    let circuits: Vec<Circuit> = ["buffer", "equalizer", "la", "gain"]
        .iter()
        .map(|n| builtin_circuit(n).expect("builtin"))
        .collect();
    let round = |cache: bool, tel: &Telemetry| {
        let o = NewtonOptions { cache, ..sparse() };
        for ckt in &circuits {
            let x = op::solve_traced(ckt, &o, None, tel).expect("op converges");
            ac::sweep_traced(ckt, x.solution(), &freqs, &o, 1, tel).expect("ac sweep");
        }
    };
    cml_cache::set_enabled(true);
    // Untimed warmup, so the cold leg does not also pay first touches.
    round(false, &Telemetry::disabled());
    cml_cache::intern::clear_in_memory();
    let t = time_ms(
        reps,
        Stat::Avg,
        &mut [&mut || round(false, tel), &mut || round(true, tel)],
    );
    let (cold_ms, warm_ms) = (t[0], t[1]);
    println!("     cold {cold_ms:.3} ms/round, warm {warm_ms:.3} ms/round");
    let floor = if smoke { 1.05 } else { 1.3 };
    g.speedup("warm / cold topology cache", cold_ms / warm_ms, floor);
}

/// Telemetry and event-log cost on the sparse adaptive PRBS-7 eye and
/// the sparse parallel limiting-amp AC sweep, plus the AC engine's
/// end-to-end speedup over dense serial sweeps. Full mode only: the
/// smoke grids are too small to time.
fn full_only(g: &mut Gates, par_threads: usize, tel: &Telemetry) {
    const BUDGET: f64 = 0.02;
    let (ckt, t_stop) = transistor_eye(40);
    let mut cfg = TranConfig::new(t_stop, 1e-12).adaptive();
    cfg.newton.sparse_threshold = 1;
    let mut off = || drop(tran::run_traced(&ckt, &cfg, &Telemetry::disabled()).expect("tran"));
    let mut on = || drop(tran::run_traced(&ckt, &cfg, &Telemetry::enabled()).expect("tran"));
    off(); // untimed warmup
    let t = time_ms(15, Stat::Median, &mut [&mut off, &mut on]);
    g.cost("telemetry overhead, tran", t[1] / t[0] - 1.0, BUDGET);
    let t = time_ms(21, Stat::Min, &mut [&mut off, &mut on]);
    g.cost("event-log overhead, tran", t[1] / t[0] - 1.0, BUDGET);

    let la = limiting_amp();
    let x = op::solve(&la).expect("operating point");
    let sweep = |n_points: usize, opts: &NewtonOptions, threads: usize, tel: &Telemetry| {
        let freqs = logspace(1e2, 60e9, n_points);
        ac::sweep_traced(&la, x.solution(), &freqs, opts, threads, tel).expect("ac sweep");
    };
    let mut off = || sweep(1200, &sparse(), par_threads, &Telemetry::disabled());
    let mut on = || sweep(1200, &sparse(), par_threads, &Telemetry::enabled());
    off(); // untimed warmup
    let t = time_ms(25, Stat::Median, &mut [&mut off, &mut on]);
    g.cost("telemetry overhead, AC", t[1] / t[0] - 1.0, BUDGET);

    let dense = NewtonOptions {
        sparse_threshold: usize::MAX,
        ..NewtonOptions::default()
    };
    let t = time_ms(
        1,
        Stat::Avg,
        &mut [
            &mut || sweep(2400, &dense, 1, &Telemetry::disabled()),
            &mut || sweep(2400, &sparse(), par_threads, tel),
        ],
    );
    g.speedup("AC sparse parallel / dense serial", t[0] / t[1], 3.0);
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let threads = cml_runner::threads(None);
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "gates ({}), {threads} threads",
        if smoke { "smoke" } else { "full" }
    );
    let tel = Telemetry::enabled_with_env_sinks();
    let mut g = Gates::default();
    // Peak RSS is a high-water mark: the two memory gates run first, the
    // smaller one first, so neither delta is hidden by an earlier peak.
    sweep_rss(&mut g, smoke, threads, &tel);
    stream_rss(&mut g, smoke, &tel);
    precheck_costs(&mut g, smoke, &tel);
    batched_yield(&mut g, smoke, threads, &tel);
    warm_cache(&mut g, smoke, &tel);
    if !smoke {
        full_only(&mut g, host.max(4), &tel);
    }
    for p in tel.flush().expect("flush telemetry sinks") {
        println!("wrote {}", p.display());
    }
    if !g.failed.is_empty() {
        eprintln!("failed gates: {}", g.failed.join(", "));
        std::process::exit(1);
    }
}
