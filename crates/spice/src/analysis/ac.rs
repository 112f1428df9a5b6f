//! AC small-signal analysis.
//!
//! Linearizes every element around a previously computed operating point
//! and solves one complex MNA system per frequency. The excitation is the
//! set of sources constructed `.with_ac(magnitude)` — conventionally one
//! source with magnitude 1, so node voltages *are* transfer functions.
//!
//! # One stamp per sweep
//!
//! `G`, `C` and the excitation do not depend on frequency, so each
//! element stamps once per sweep into an `AcTape`: the matrix entries
//! `(row, col, g, c)` in write order, plus the RHS. Every point then
//! assembles `G + jωC` by replaying the tape. Replaying `g + jω·c` in the
//! original write order reproduces the per-point element stamps bit for
//! bit.
//!
//! # Sparse path and parallel sweeps
//!
//! At or above [`NewtonOptions::sparse_threshold`] unknowns the sweep
//! runs on a sparse complex LU: the CSR pattern is read off the tape,
//! every tape entry is mapped to its CSR value slot once, one reference
//! factorization at the first frequency freezes the symbolic analysis
//! and pivot order, and every subsequent point replays an in-place
//! numeric refactorization — no DFS, no pivot search, no dense O(n³)
//! elimination. The frequency grid is partitioned into chunks executed
//! on `cml_runner::par_map`; each chunk clones the reference
//! factorization, so all points share one pivot order and results are
//! bit-identical for any thread count. A tape entry outside the pattern
//! is found while mapping slots and sends the whole sweep dense; a dead
//! frozen pivot falls back to the dense solve for that point only.

use super::{cache, AcSparseState, NewtonOptions, System};
use crate::circuit::{Circuit, NodeId};
use crate::element::AcTape;
use crate::SpiceError;
use cml_numeric::{Complex64, ComplexMatrix};
use cml_telemetry::{Phase, Telemetry};

/// Result of an AC sweep.
#[derive(Debug, Clone)]
pub struct AcResult {
    freqs: Vec<f64>,
    /// MNA dimension (node voltages + branch currents) of one solution.
    dim: usize,
    /// Complex solutions, flat: point `idx` occupies
    /// `sols[idx * dim..(idx + 1) * dim]`.
    sols: Vec<Complex64>,
}

impl AcResult {
    /// Swept frequencies in Hz.
    #[must_use]
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Complex voltage of `node` at sweep index `idx`.
    #[must_use]
    pub fn voltage(&self, node: NodeId, idx: usize) -> Complex64 {
        match node.index() {
            Some(i) => self.sols[idx * self.dim + i],
            None => Complex64::ZERO,
        }
    }

    /// Complex voltage trace of `node` across the sweep.
    #[must_use]
    pub fn voltage_trace(&self, node: NodeId) -> Vec<Complex64> {
        (0..self.freqs.len())
            .map(|i| self.voltage(node, i))
            .collect()
    }

    /// Differential voltage trace `v(p) − v(n)` across the sweep.
    #[must_use]
    pub fn differential_trace(&self, p: NodeId, n: NodeId) -> Vec<Complex64> {
        (0..self.freqs.len())
            .map(|i| self.voltage(p, i) - self.voltage(n, i))
            .collect()
    }

    /// Gain magnitude of `node` in dB across the sweep.
    #[must_use]
    pub fn magnitude_db(&self, node: NodeId) -> Vec<f64> {
        self.voltage_trace(node).iter().map(|z| z.db()).collect()
    }

    /// Phase of `node` in degrees across the sweep.
    #[must_use]
    pub fn phase_deg(&self, node: NodeId) -> Vec<f64> {
        self.voltage_trace(node)
            .iter()
            .map(|z| z.arg().to_degrees())
            .collect()
    }
}

/// Runs an AC sweep over `freqs` (Hz) using the operating point `x_op`
/// (the raw solution vector from [`super::op::OpResult::solution`]),
/// with default options and automatic thread-count resolution
/// (`CML_THREADS`, else available parallelism).
///
/// # Errors
///
/// [`SpiceError::Singular`] if the small-signal system is singular at some
/// frequency; [`SpiceError::LintRejected`] if the netlist fails the
/// pre-simulation lint.
pub fn sweep(ckt: &Circuit, x_op: &[f64], freqs: &[f64]) -> Result<AcResult, SpiceError> {
    sweep_with(
        ckt,
        x_op,
        freqs,
        &NewtonOptions::default(),
        cml_runner::threads(None),
    )
}

/// [`sweep`] with explicit options (the sparse crossover lives in
/// [`NewtonOptions::sparse_threshold`]) and worker-thread count.
/// Results are bit-identical for any `threads` value.
///
/// # Errors
///
/// As [`sweep`].
pub fn sweep_with(
    ckt: &Circuit,
    x_op: &[f64],
    freqs: &[f64],
    opts: &NewtonOptions,
    threads: usize,
) -> Result<AcResult, SpiceError> {
    sweep_traced(ckt, x_op, freqs, opts, threads, &Telemetry::disabled())
}

/// [`sweep_with`] recording solver telemetry into `tel`: the sweep span,
/// per-point sparse/fallback counters (merged from the parallel workers
/// in input order, so totals are bit-identical for any `threads`) and
/// the per-worker chunk load.
///
/// # Errors
///
/// As [`sweep`].
pub fn sweep_traced(
    ckt: &Circuit,
    x_op: &[f64],
    freqs: &[f64],
    opts: &NewtonOptions,
    threads: usize,
    tel: &Telemetry,
) -> Result<AcResult, SpiceError> {
    {
        let _t = tel.timer(Phase::LintPrecheck);
        cache::lint_precheck_cached(ckt, opts.cache_enabled(), tel)?;
    }
    tel.count(|c| c.lint_prechecks += 1);
    sweep_prechecked(ckt, x_op, freqs, opts, threads, tel)
}

/// Convenience: solve the operating point, then sweep — with default
/// options and automatic thread-count resolution.
///
/// # Errors
///
/// Propagates operating-point and AC solve failures.
pub fn sweep_auto(ckt: &Circuit, freqs: &[f64]) -> Result<AcResult, SpiceError> {
    sweep_auto_with(
        ckt,
        freqs,
        &NewtonOptions::default(),
        cml_runner::threads(None),
    )
}

/// [`sweep_auto`] with explicit options and worker-thread count.
///
/// The netlist lint runs exactly once (inside the operating-point
/// solve); the sweep itself enters below the precheck.
///
/// # Errors
///
/// As [`sweep_auto`].
pub fn sweep_auto_with(
    ckt: &Circuit,
    freqs: &[f64],
    opts: &NewtonOptions,
    threads: usize,
) -> Result<AcResult, SpiceError> {
    sweep_auto_traced(ckt, freqs, opts, threads, &Telemetry::disabled())
}

/// [`sweep_auto_with`] recording solver telemetry into `tel` — the
/// operating-point counters and the sweep counters land in one report.
///
/// # Errors
///
/// As [`sweep_auto`].
pub fn sweep_auto_traced(
    ckt: &Circuit,
    freqs: &[f64],
    opts: &NewtonOptions,
    threads: usize,
    tel: &Telemetry,
) -> Result<AcResult, SpiceError> {
    let op = super::op::solve_traced(ckt, opts, None, tel)?;
    sweep_prechecked(ckt, op.solution(), freqs, opts, threads, tel)
}

/// The sweep engine, entered after the lint precheck has already run.
/// Any failure dumps an `"ac"` forensic flight bundle (see
/// [`crate::flight`]).
fn sweep_prechecked(
    ckt: &Circuit,
    x_op: &[f64],
    freqs: &[f64],
    opts: &NewtonOptions,
    threads: usize,
    tel: &Telemetry,
) -> Result<AcResult, SpiceError> {
    let res = sweep_prechecked_impl(ckt, x_op, freqs, opts, threads, tel);
    if let Err(e) = &res {
        crate::flight::record_failure(ckt, opts, "ac", e, tel);
    }
    res
}

fn sweep_prechecked_impl(
    ckt: &Circuit,
    x_op: &[f64],
    freqs: &[f64],
    opts: &NewtonOptions,
    threads: usize,
    tel: &Telemetry,
) -> Result<AcResult, SpiceError> {
    let _span = tel.span("analysis", "ac_sweep");
    let sys = System::new(ckt);
    let dim = sys.dim();
    let gmin = opts.gmin;
    let tape = sys.ac_tape(x_op);

    // One reference sparse factorization for the whole sweep: pattern,
    // slot map, symbolic analysis and pivot order all frozen here, then
    // shared by every chunk. If the system is below the crossover, the
    // pattern or slot map can't be built, or the first point's
    // factorization fails, the whole sweep runs dense (which reports
    // singularities with the established error).
    let want_sparse = dim > 0 && dim >= opts.sparse_threshold && !freqs.is_empty();
    let reference: Option<(AcSparseState, Vec<usize>)> = if want_sparse {
        let _t = tel.timer(Phase::PatternDiscovery);
        if opts.cache_enabled() {
            cache::prepare_ac_sparse_cached(&sys, &tape, freqs[0], gmin, tel)
        } else {
            prepare_ac_sparse(&sys, &tape, freqs[0], gmin)
        }
    } else {
        None
    };
    if want_sparse {
        if reference.is_some() {
            tel.count(|c| c.pattern_builds += 1);
        } else {
            tel.count(|c| c.dense_fallbacks += 1);
            tel.degradation(
                "ac-sparse-reference",
                "AC sweep requested the sparse path but the reference \
                 pattern/factorization could not be built; the whole sweep \
                 runs dense",
            );
        }
    }

    // Chunked fan-out: big enough chunks to amortize the per-chunk
    // workspace clone, small enough to load-balance. Chunking affects
    // only scheduling — every point is a pure function of (tape, f).
    // Telemetry from each worker is recorded into a forked buffer and
    // absorbed in chunk order below, so counter totals cannot depend on
    // the thread count (per-point events only; nothing per-chunk).
    let chunk_len = freqs
        .len()
        .div_ceil(threads.max(1) * 4)
        .max(8)
        .min(freqs.len().max(1));
    let chunks: Vec<&[f64]> = freqs.chunks(chunk_len).collect();
    let probe = tel.probe();
    let (results, per_worker) = cml_runner::par_map_stats(threads, &chunks, |i, chunk| {
        let wtel = probe.fork(i as u32 + 1);
        let r = {
            let _span = wtel.span("phase", "ac_chunk");
            solve_chunk(&sys, &tape, chunk, gmin, reference.as_ref(), &wtel)
        };
        (r, wtel.into_parts())
    });
    tel.note_worker_items(&per_worker);

    let mut sols = Vec::with_capacity(freqs.len() * dim);
    for (r, parts) in results {
        tel.absorb(parts);
        sols.extend(r?);
    }
    Ok(AcResult {
        freqs: freqs.to_vec(),
        dim,
        sols,
    })
}

/// Builds the reference sparse state and its tape slot map, and factors
/// it at the sweep's first frequency. `None` (→ dense sweep) when the
/// pattern or slot map cannot be built or the reference factorization
/// fails.
fn prepare_ac_sparse(
    sys: &System<'_>,
    tape: &AcTape,
    f0: f64,
    gmin: f64,
) -> Option<(AcSparseState, Vec<usize>)> {
    let mut sp = sys.build_ac_sparse(tape)?;
    let slots = sp.slot_map(tape)?;
    sp.assemble(tape, &slots, 2.0 * std::f64::consts::PI * f0, gmin);
    sp.lu.factor(&sp.mat).ok()?;
    Some((sp, slots))
}

/// Solves one chunk of frequency points, returning the flat solutions.
///
/// Each chunk clones the reference factorization, so every point in
/// every chunk replays the *same* frozen pivot order; a point whose
/// replay fails (dead pivot) is solved dense instead. Both make each
/// point's result independent of the chunking, which is what guarantees
/// bit-identical sweeps across thread counts.
fn solve_chunk(
    sys: &System<'_>,
    tape: &AcTape,
    freqs: &[f64],
    gmin: f64,
    reference: Option<&(AcSparseState, Vec<usize>)>,
    tel: &Telemetry,
) -> Result<Vec<Complex64>, SpiceError> {
    let dim = sys.dim();
    let mut out = Vec::with_capacity(freqs.len() * dim);
    let mut sp = reference.map(|(state, slots)| (state.clone(), slots.as_slice()));
    let mut dense: Option<ComplexMatrix> = None;
    let mut x: Vec<Complex64> = vec![Complex64::ZERO; dim];
    for &f in freqs {
        let omega = 2.0 * std::f64::consts::PI * f;
        let solved_sparse = match sp.as_mut() {
            Some((sp, slots)) => {
                sp.assemble(tape, slots, omega, gmin);
                let refactored = {
                    let _t = tel.timer_fine(Phase::Refactor);
                    sp.lu.refactor_frozen(&sp.mat).is_ok()
                };
                refactored && {
                    let _t = tel.timer_fine(Phase::BackSubstitute);
                    sp.lu.solve_into(tape.rhs(), &mut x).is_ok()
                }
            }
            None => false,
        };
        // Per-point events only: counting anything per *chunk* here would
        // make totals depend on the thread count via the partitioning.
        tel.count(|c| {
            c.ac_points += 1;
            if solved_sparse {
                c.ac_points_sparse += 1;
            } else if sp.is_some() {
                c.ac_point_fallbacks += 1;
            }
        });
        if !solved_sparse {
            if sp.is_some() {
                tel.degradation(
                    "ac-point-fallback",
                    "an AC point's frozen-pivot replay failed (pivot \
                     death); that point was solved dense",
                );
            }
            let matrix = dense.get_or_insert_with(|| ComplexMatrix::zeros(dim, dim));
            sys.solve_ac_into(tape, omega, gmin, matrix, &mut x)?;
        }
        out.extend_from_slice(&x);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use cml_numeric::logspace;

    #[test]
    fn rc_lowpass_pole() {
        // R = 1 kΩ, C = 1 nF → f3dB = 159.15 kHz.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, 0.0).with_ac(1.0));
        ckt.add(Resistor::new("R1", vin, out, 1e3));
        ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-9));
        let f3db = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let ac = sweep_auto(&ckt, &[f3db / 100.0, f3db, f3db * 100.0]).unwrap();
        let mags = ac.magnitude_db(out);
        assert!(mags[0].abs() < 0.01, "passband should be 0 dB");
        assert!((mags[1] + 3.0103).abs() < 0.01, "-3 dB at the pole");
        assert!((mags[2] + 40.0).abs() < 0.2, "-40 dB two decades up");
        // Phase at the pole is −45°.
        let ph = ac.phase_deg(out);
        assert!((ph[1] + 45.0).abs() < 0.5);
    }

    #[test]
    fn rlc_series_resonance() {
        // Series RLC driven by 1 V: at resonance the current is limited
        // only by R, so the resistor voltage equals the source.
        let (r, l, c): (f64, f64, f64) = (10.0, 1e-9, 1e-12);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * c).sqrt());
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let n1 = ckt.node("n1");
        let out = ckt.node("out");
        ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, 0.0).with_ac(1.0));
        ckt.add(Inductor::new("L1", vin, n1, l));
        ckt.add(Capacitor::new("C1", n1, out, c));
        ckt.add(Resistor::new("R1", out, Circuit::GROUND, r));
        let ac = sweep_auto(&ckt, &[f0]).unwrap();
        let v_r = ac.voltage(out, 0);
        assert!((v_r.abs() - 1.0).abs() < 1e-6, "|v_R| = {}", v_r.abs());
    }

    #[test]
    fn vccs_gain_stage() {
        // gm = 10 mS into 1 kΩ → gain −10 (20 dB).
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, 0.0).with_ac(1.0));
        ckt.add(Vccs::new(
            "G1",
            out,
            Circuit::GROUND,
            vin,
            Circuit::GROUND,
            10e-3,
        ));
        ckt.add(Resistor::new("RL", out, Circuit::GROUND, 1e3));
        let ac = sweep_auto(&ckt, &[1e6]).unwrap();
        let g = ac.voltage(out, 0);
        assert!((g.re + 10.0).abs() < 1e-6);
        assert!((g.db() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn mosfet_common_source_gain() {
        // Gain ≈ −gm·(RD ∥ ro); check AC against hand small-signal math.
        let params = MosParams {
            mos_type: MosType::Nmos,
            w: 10e-6,
            l: 0.18e-6,
            vth0: 0.45,
            kp: 170e-6,
            lambda: 0.1,
            cox: 8.4e-3,
            cov: 3.0e-10,
            cj: 1.0e-3,
            ldiff: 0.5e-6,
        };
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.add(Vsource::dc("VDD", vdd, Circuit::GROUND, 1.8));
        ckt.add(Vsource::dc("VG", g, Circuit::GROUND, 0.8).with_ac(1.0));
        ckt.add(Resistor::new("RD", vdd, d, 1e3));
        let m = Mosfet::new("M1", d, g, Circuit::GROUND, Circuit::GROUND, params);
        let m_probe = m.clone();
        ckt.add(m);
        let op = op::solve(&ckt).unwrap();
        let ss = m_probe.small_signal(op.solution());
        let expected = ss.gm / (1e-3 + ss.gds); // gm · (RD ∥ ro)
        let ac = sweep(&ckt, op.solution(), &[1e5]).unwrap();
        let gain = ac.voltage(d, 0);
        assert!(
            (gain.re + expected).abs() / expected < 1e-6,
            "gain {} vs expected {}",
            gain.re,
            -expected
        );
        assert!(
            gain.im.abs() < expected * 1e-3,
            "low-frequency phase ≈ 180°"
        );
    }

    #[test]
    fn gain_rolls_off_with_load_capacitance() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, 0.0).with_ac(1.0));
        ckt.add(Vccs::new(
            "G1",
            out,
            Circuit::GROUND,
            vin,
            Circuit::GROUND,
            1e-3,
        ));
        ckt.add(Resistor::new("RL", out, Circuit::GROUND, 1e3));
        ckt.add(Capacitor::new("CL", out, Circuit::GROUND, 100e-15));
        let freqs = logspace(1e6, 100e9, 51);
        let ac = sweep_auto(&ckt, &freqs).unwrap();
        let mags = ac.magnitude_db(out);
        assert!(mags[0] > mags[50], "gain must roll off");
        assert!(mags.windows(2).all(|w| w[1] <= w[0] + 1e-9));
    }

    #[test]
    fn sparse_matches_dense_and_threads_are_bit_identical() {
        // RC ladder big enough to clear any forced threshold, swept on
        // the dense path, the sparse path, and several thread counts.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, 0.0).with_ac(1.0));
        let mut prev = vin;
        let mut last = vin;
        for i in 0..40 {
            let n = ckt.node(&format!("n{i}"));
            ckt.add(Resistor::new(&format!("R{i}"), prev, n, 50.0));
            ckt.add(Capacitor::new(&format!("C{i}"), n, Circuit::GROUND, 20e-15));
            prev = n;
            last = n;
        }
        let freqs = logspace(1e6, 50e9, 40);
        let op = op::solve(&ckt).unwrap();
        let dense_opts = NewtonOptions {
            sparse_threshold: usize::MAX,
            ..NewtonOptions::default()
        };
        let sparse_opts = NewtonOptions {
            sparse_threshold: 1,
            ..NewtonOptions::default()
        };
        let dense = sweep_with(&ckt, op.solution(), &freqs, &dense_opts, 1).unwrap();
        let sparse1 = sweep_with(&ckt, op.solution(), &freqs, &sparse_opts, 1).unwrap();
        for (i, _) in freqs.iter().enumerate() {
            let d = dense.voltage(last, i);
            let s = sparse1.voltage(last, i);
            assert!((d - s).abs() < 1e-9, "point {i}: {d:?} vs {s:?}");
        }
        for threads in [2, 3, 8] {
            let sp = sweep_with(&ckt, op.solution(), &freqs, &sparse_opts, threads).unwrap();
            for (i, _) in freqs.iter().enumerate() {
                let a = sparse1.voltage(last, i);
                let b = sp.voltage(last, i);
                assert_eq!(
                    a.re.to_bits(),
                    b.re.to_bits(),
                    "threads {threads} point {i}"
                );
                assert_eq!(
                    a.im.to_bits(),
                    b.im.to_bits(),
                    "threads {threads} point {i}"
                );
            }
        }
    }
}
