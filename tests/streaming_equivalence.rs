//! End-to-end equivalence of the streaming transient path against the
//! dense path, across crates: `cml-spice` sinks, `cml-sig` streaming
//! accumulators, `cml-core` adapters and `cml-runner` fan-in.
//!
//! The contract under test: streaming is a *refactor*, not an
//! approximation. For any chunk size, any probe set and any stepping
//! mode, the streamed samples are bit-identical to the dense record,
//! and every streaming accumulator fed chunk-by-chunk produces
//! bit-identical results to the same accumulator fed the dense record
//! in one call.

// Driver-style target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_core::cells::input_interface::InputInterfaceConfig;
use cml_core::cells::{add_diff_drive, add_supply, input_interface, DiffPort};
use cml_core::stream::EyeSink;
use cml_pdk::Pdk018;
use cml_sig::nrz::NrzConfig;
use cml_sig::prbs::Prbs;
use cml_sig::streaming::{EyeAccumulator, EyeAccumulatorConfig};
use cml_spice::analysis::tran;
use cml_spice::prelude::*;
use cml_spice::SpiceError;

/// 10 Gb/s unit interval.
const UI: f64 = 100e-12;

/// Small transistor-level workload: the paper's input interface driven
/// by a PRBS-7 NRZ pattern (kept to a few bits — this is a correctness
/// gate, not a benchmark).
fn transistor_workload(n_bits: usize) -> (Circuit, DiffPort) {
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
    (ckt, out)
}

/// RLC circuit with a pulse source: cheap, with breakpoints.
fn pulse_rlc() -> (Circuit, NodeId) {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add(Vsource::new(
        "V1",
        a,
        Circuit::GROUND,
        Waveform::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 1e-9,
            rise: 1e-10,
            fall: 1e-10,
            width: 2e-9,
            period: 5e-9,
        },
    ));
    ckt.add(Resistor::new("R1", a, b, 50.0));
    ckt.add(Inductor::new("L1", b, Circuit::GROUND, 10e-9));
    ckt.add(Capacitor::new("C1", b, Circuit::GROUND, 1e-12));
    (ckt, b)
}

/// RC circuit with a sine source: no breakpoints at all.
fn sine_rc() -> (Circuit, NodeId) {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add(Vsource::new(
        "V1",
        a,
        Circuit::GROUND,
        Waveform::Sine {
            offset: 0.0,
            ampl: 1.0,
            freq: 200e6,
            delay: 0.0,
        },
    ));
    ckt.add(Resistor::new("R1", a, b, 1e3));
    ckt.add(Capacitor::new("C1", b, Circuit::GROUND, 1e-12));
    (ckt, b)
}

/// Asserts that streaming `ckt` through a `DenseSink` with the given
/// chunk size reproduces the dense run bit-for-bit.
fn assert_streamed_equals_dense(ckt: &Circuit, node: NodeId, cfg: &TranConfig, chunk: usize) {
    let dense = tran::run(ckt, cfg).unwrap();
    let probes = TranProbes::new()
        .voltage("v", node)
        .current("i", "V1")
        .differential("d", node, Circuit::GROUND);
    let mut sink = DenseSink::new();
    let stats =
        tran::run_streaming(ckt, &cfg.clone().with_chunk_size(chunk), &probes, &mut sink).unwrap();
    assert_eq!(stats.samples as usize, dense.len());
    assert_eq!(sink.times().len(), dense.len());
    let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(to_bits(sink.times()), to_bits(dense.times()));
    assert_eq!(to_bits(&sink.cols()[0]), to_bits(&dense.voltage(node)));
    assert_eq!(
        to_bits(&sink.cols()[1]),
        to_bits(&dense.current("V1").unwrap())
    );
    assert_eq!(
        to_bits(&sink.cols()[2]),
        to_bits(&dense.differential(node, Circuit::GROUND))
    );
}

#[test]
fn streamed_equals_dense_fixed_and_adaptive_with_and_without_breakpoints() {
    for (ckt, node) in [pulse_rlc(), sine_rc()] {
        let fixed = TranConfig::new(20e-9, 2e-11);
        let adaptive = TranConfig::new(20e-9, 2e-11).adaptive();
        for cfg in [&fixed, &adaptive] {
            for chunk in [1, 17, 4096] {
                assert_streamed_equals_dense(&ckt, node, cfg, chunk);
            }
        }
    }
}

#[test]
fn streamed_eye_matches_dense_fold_on_transistor_prbs7() {
    let n_bits = 6;
    let (ckt, out) = transistor_workload(n_bits);
    let cfg = TranConfig::new(n_bits as f64 * UI, 2e-12);
    let eye_cfg = EyeAccumulatorConfig::new(UI, 1e-12, -1.0, 1.0).with_skip(2.0 * UI);

    let probes = TranProbes::new().differential("vout", out.p, out.n);
    let mut eye = EyeSink::new("vout", eye_cfg.clone());
    // Teed into the disk spill, whose delta encoding must beat raw f64.
    let spill_path = std::env::temp_dir().join(format!("cml_eye_spill_{}.cmw", std::process::id()));
    let mut spill = SpillSink::create(&spill_path);
    tran::run_streaming(&ckt, &cfg, &probes, &mut Tee::new(&mut eye, &mut spill)).unwrap();
    drop(spill);

    let dense = tran::run(&ckt, &cfg).unwrap();
    let spilled = std::fs::metadata(&spill_path).unwrap().len();
    let raw = (2 * dense.len() * 8) as u64; // time + one probe column
    std::fs::remove_file(&spill_path).ok();
    std::fs::remove_file(spill_path.with_extension("cmw.ckpt")).ok();
    assert!(
        spilled < raw,
        "spill {spilled} B is not below raw f64 {raw} B"
    );
    let mut reference = EyeAccumulator::new(eye_cfg);
    reference.feed(dense.times(), &dense.differential(out.p, out.n));

    let a = eye.accumulator().metrics();
    let b = reference.metrics();
    // The acceptance bound is ≤ 1e-12; the implementation actually
    // achieves bit-identity, so assert both (the bits subsume the bound).
    assert!((a.height - b.height).abs() <= 1e-12);
    assert!((a.rms_jitter - b.rms_jitter).abs() <= 1e-12);
    assert_eq!(a.height.to_bits(), b.height.to_bits());
    assert_eq!(a.width.to_bits(), b.width.to_bits());
    assert_eq!(a.v_high.to_bits(), b.v_high.to_bits());
    assert_eq!(a.v_low.to_bits(), b.v_low.to_bits());
    assert_eq!(a.rms_jitter.to_bits(), b.rms_jitter.to_bits());
    assert_eq!(a.pp_jitter.to_bits(), b.pp_jitter.to_bits());
    assert_eq!(eye.accumulator().samples(), reference.samples());
}

/// Tee partner that aborts the run after a fixed number of chunks —
/// simulates a crash mid-simulation for the resume test.
struct AbortAfter {
    left: usize,
}

impl WaveSink for AbortAfter {
    fn chunk(&mut self, _chunk: &WaveChunk<'_>) -> Result<(), SpiceError> {
        if self.left == 0 {
            return Err(SpiceError::InvalidConfig {
                message: "simulated interruption".into(),
            });
        }
        self.left -= 1;
        Ok(())
    }
}

#[test]
fn spill_resume_after_interruption_is_byte_identical_end_to_end() {
    let (ckt, node) = pulse_rlc();
    let cfg = TranConfig::new(20e-9, 2e-11).with_chunk_size(64);
    let probes = TranProbes::new().voltage("v", node).current("i", "V1");
    let dir = std::env::temp_dir().join(format!("cml_stream_eq_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Reference: one uninterrupted spill.
    let ref_path = dir.join("ref.cmw");
    let mut sink = SpillSink::create(&ref_path);
    tran::run_streaming(&ckt, &cfg, &probes, &mut sink).unwrap();
    drop(sink);

    // Interrupted run: the spill sink persists 3 chunks, then the tee
    // partner kills the run (spill side already checkpointed).
    let path = dir.join("resumed.cmw");
    let mut spill = SpillSink::create(&path);
    let mut abort = AbortAfter { left: 3 };
    {
        let mut tee = Tee::new(&mut spill, &mut abort);
        let err = tran::run_streaming(&ckt, &cfg, &probes, &mut tee).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidConfig { .. }));
    }
    drop(spill);

    // Resume: replay the (deterministic) run; persisted chunks are
    // skipped, the rest appended. The file must equal the reference
    // byte for byte.
    let mut resumed = SpillSink::resume(&path).unwrap();
    assert!(resumed.persisted_samples() > 0);
    tran::run_streaming(&ckt, &cfg, &probes, &mut resumed).unwrap();
    drop(resumed);
    let a = std::fs::read(&ref_path).unwrap();
    let b = std::fs::read(&path).unwrap();
    assert_eq!(a, b, "resumed spill differs from uninterrupted spill");

    // And the spill decodes back to the dense record bit-for-bit.
    let dense = tran::run(&ckt, &cfg).unwrap();
    let contents = SpillReader::read(&ref_path).unwrap();
    assert_eq!(contents.col_names, vec!["v".to_string(), "i".to_string()]);
    let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(to_bits(&contents.times), to_bits(dense.times()));
    assert_eq!(to_bits(&contents.cols[0]), to_bits(&dense.voltage(node)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn par_fold_eye_fan_in_is_thread_invariant() {
    // Six sweep segments (different drive amplitudes), each streaming
    // its own eye; fan-in by input-order merge. Any thread count must
    // produce the same merged accumulator bit-for-bit.
    let amplitudes: Vec<f64> = vec![0.6, 0.8, 1.0, 1.2, 1.4, 1.6];
    let eye_cfg = EyeAccumulatorConfig::new(4e-9, 2e-11, -2.0, 2.0);
    let segment = |_i: usize, amp: &f64| -> EyeAccumulator {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Vsource::new(
            "V1",
            a,
            Circuit::GROUND,
            Waveform::Pulse {
                v1: -amp / 2.0,
                v2: amp / 2.0,
                delay: 0.0,
                rise: 2e-10,
                fall: 2e-10,
                width: 1.8e-9,
                period: 4e-9,
            },
        ));
        ckt.add(Resistor::new("R1", a, b, 200.0));
        ckt.add(Capacitor::new("C1", b, Circuit::GROUND, 2e-12));
        let cfg = TranConfig::new(40e-9, 2e-11);
        let probes = TranProbes::new().voltage("v", b);
        let mut eye = EyeSink::new("v", eye_cfg.clone());
        tran::run_streaming(&ckt, &cfg, &probes, &mut eye).unwrap();
        eye.into_accumulator()
    };
    let merge = |mut a: EyeAccumulator, b: EyeAccumulator| {
        a.merge(&b);
        a
    };
    let reference = cml_runner::par_fold(1, &amplitudes, segment, merge).unwrap();
    for threads in [2, 3, 6] {
        let got = cml_runner::par_fold(threads, &amplitudes, segment, merge).unwrap();
        assert_eq!(got.samples(), reference.samples());
        assert_eq!(got.crossings(), reference.crossings());
        let (ma, mb) = (got.metrics(), reference.metrics());
        assert_eq!(ma.height.to_bits(), mb.height.to_bits());
        assert_eq!(ma.rms_jitter.to_bits(), mb.rms_jitter.to_bits());
        assert_eq!(ma.pp_jitter.to_bits(), mb.pp_jitter.to_bits());
    }
}
