//! Equivalence properties of the batched multi-variant solver.
//!
//! The batch engine's contract is that lane packing is invisible: a
//! K-variant batch must produce the same answers as K independent
//! scalar solves, for every lane width, for operating-point and
//! transient analyses, on linear and transistor-level circuits alike —
//! and a lane evicted to the scalar fallback ladder must land on the
//! scalar answer exactly. On top sit the yield-estimator invariants:
//! the estimate is a pure function of `(parameters, seed)`,
//! independent of thread count and of the batch/scalar engine choice.

// Driver-style target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_core::yield_est::{
    behavioral_offset_yield, behavioral_offset_yield_scalar, pair_offsets_batched,
    pair_offsets_scalar, transistor_offset_yield, transistor_offset_yield_scalar, ChainSpec,
    PairYieldSpec, YieldConfig,
};
use cml_spice::analysis::tran::TranConfig;
use cml_spice::analysis::{batch, op, NewtonOptions};
use cml_spice::prelude::*;
use proptest::prelude::*;

fn nmos(vth0: f64) -> MosParams {
    MosParams {
        mos_type: MosType::Nmos,
        w: 10e-6,
        l: 0.18e-6,
        vth0,
        kp: 170e-6,
        lambda: 0.1,
        cox: 8.4e-3,
        cov: 3.0e-10,
        cj: 1.0e-3,
        ldiff: 0.5e-6,
    }
}

/// NMOS differential pair with mismatched thresholds — the
/// transistor-level Monte-Carlo workhorse.
fn diff_pair(dvth: f64, vin: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let outp = ckt.node("outp");
    let outn = ckt.node("outn");
    let tail = ckt.node("tail");
    let inp = ckt.node("inp");
    let inn = ckt.node("inn");
    ckt.add(Vsource::dc("VDD", vdd, Circuit::GROUND, 1.8));
    ckt.add(Vsource::dc("VBP", inp, Circuit::GROUND, 0.9 + vin));
    ckt.add(Vsource::dc("VBN", inn, Circuit::GROUND, 0.9 - vin));
    ckt.add(Resistor::new("RL1", vdd, outp, 500.0));
    ckt.add(Resistor::new("RL2", vdd, outn, 500.0));
    ckt.add(Mosfet::new(
        "M1",
        outp,
        inp,
        tail,
        Circuit::GROUND,
        nmos(0.45 + dvth / 2.0),
    ));
    ckt.add(Mosfet::new(
        "M2",
        outn,
        inn,
        tail,
        Circuit::GROUND,
        nmos(0.45 - dvth / 2.0),
    ));
    ckt.add(Isource::dc("IT", tail, Circuit::GROUND, 1e-3));
    ckt
}

/// Linear divider driven by `v`; an analytically known solution.
fn divider(r_top: f64, v: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.add(Vsource::dc("V1", vin, Circuit::GROUND, v));
    ckt.add(Resistor::new("R1", vin, out, r_top));
    ckt.add(Resistor::new("R2", out, Circuit::GROUND, 1000.0));
    ckt
}

/// RC step-response circuit for the transient property.
fn rc_cell(r: f64) -> Circuit {
    let mut ckt = Circuit::new();
    let inp = ckt.node("in");
    let out = ckt.node("out");
    ckt.add(Vsource::new(
        "V1",
        inp,
        Circuit::GROUND,
        Waveform::step(0.0, 1.0, 1e-10, 2e-11),
    ));
    ckt.add(Resistor::new("R1", inp, out, r));
    ckt.add(Capacitor::new("C1", out, Circuit::GROUND, 1e-12));
    ckt
}

proptest! {
    /// K-lane batched operating point == K independent scalar solves,
    /// MOSFET circuits, every lane width.
    #[test]
    fn batched_op_equals_scalar_mosfet(
        dvths in prop::collection::vec(-10e-3..10e-3f64, 1..=7),
        vin in -0.05..0.05f64,
        lanes_idx in 0usize..4,
    ) {
        let lanes = [1usize, 2, 4, 8][lanes_idx];
        let ckts: Vec<Circuit> = dvths.iter().map(|&d| diff_pair(d, vin)).collect();
        let opts = NewtonOptions::default();
        let res = batch::op_batch_with_lanes(
            &ckts, &opts, None, lanes, &cml_spice::telemetry::Telemetry::disabled(),
        ).expect("batched op");
        prop_assert_eq!(res.len(), ckts.len());
        for (v, ckt) in ckts.iter().enumerate() {
            let scalar = op::solve(ckt).expect("scalar op");
            for (a, b) in res.solution(v).iter().zip(scalar.solution()) {
                prop_assert!((a - b).abs() <= 1e-9,
                    "lanes={} variant={} batched={} scalar={}", lanes, v, a, b);
            }
        }
    }

    /// Same property on purely linear circuits, where the solve is one
    /// Newton step and any lane cross-talk would surface immediately.
    #[test]
    fn batched_op_equals_scalar_linear(
        r_tops in prop::collection::vec(10.0..10_000.0f64, 1..=8),
        v in 0.1..5.0f64,
        lanes_idx in 0usize..4,
    ) {
        let lanes = [1usize, 2, 4, 8][lanes_idx];
        let ckts: Vec<Circuit> = r_tops.iter().map(|&r| divider(r, v)).collect();
        let opts = NewtonOptions::default();
        let res = batch::op_batch_with_lanes(
            &ckts, &opts, None, lanes, &cml_spice::telemetry::Telemetry::disabled(),
        ).expect("batched op");
        let out = ckts[0].find_node("out").expect("out node");
        for (variant, (ckt, &r)) in ckts.iter().zip(&r_tops).enumerate() {
            let scalar = op::solve(ckt).expect("scalar op");
            let b = res.voltage(variant, out);
            prop_assert!((b - scalar.voltage(out)).abs() <= 1e-12);
            // And both sit on the analytic divider (gmin-conditioned,
            // hence the looser gate).
            let expect = v * 1000.0 / (1000.0 + r);
            prop_assert!((b - expect).abs() <= 1e-6);
        }
    }

    /// K-lane batched fixed-grid transient == K scalar transients over
    /// the whole waveform.
    #[test]
    fn batched_tran_equals_scalar(
        rs in prop::collection::vec(100.0..2_000.0f64, 1..=5),
        lanes_idx in 0usize..4,
    ) {
        let lanes = [1usize, 2, 4, 8][lanes_idx];
        let ckts: Vec<Circuit> = rs.iter().map(|&r| rc_cell(r)).collect();
        let config = TranConfig::new(1e-9, 2e-11);
        let res = batch::tran_batch_with_lanes(
            &ckts, &config, lanes, &cml_spice::telemetry::Telemetry::disabled(),
        ).expect("batched tran");
        let out = ckts[0].find_node("out").expect("out node");
        for (variant, ckt) in ckts.iter().enumerate() {
            let scalar = cml_spice::analysis::tran::run(ckt, &config).expect("scalar tran");
            prop_assert_eq!(scalar.times().len(), res.times().len());
            for (a, b) in res.voltage(variant, out).iter().zip(scalar.voltage(out)) {
                prop_assert!((a - b).abs() <= 1e-9, "variant {}", variant);
            }
        }
    }

    /// A lane whose plain-Newton lockstep fails (100 V supply needs the
    /// source-stepping homotopy) is evicted and must land exactly on
    /// the scalar ladder's answer — and must not disturb its lane-mates.
    #[test]
    fn forced_fallback_matches_scalar_ladder(
        sick in 0usize..4,
        v_ok in 0.5..3.0f64,
    ) {
        let ckts: Vec<Circuit> = (0..4)
            .map(|i| divider(1000.0, if i == sick { 100.0 } else { v_ok }))
            .collect();
        let res = batch::op_batch(&ckts, &NewtonOptions::default()).expect("batched op");
        for (variant, ckt) in ckts.iter().enumerate() {
            let scalar = op::solve(ckt).expect("scalar ladder");
            for (a, b) in res.solution(variant).iter().zip(scalar.solution()) {
                prop_assert!((a - b).abs() <= 1e-12, "variant {}", variant);
            }
        }
    }

    /// The behavioral yield estimate is a pure function of the seed:
    /// identical for any thread count and for packed vs scalar kernels.
    #[test]
    fn behavioral_yield_thread_and_engine_invariant(
        seed in any::<u64>(),
        threads in 1usize..6,
    ) {
        let chain = ChainSpec::paper_default();
        let thresholds = [0.05, 0.2];
        let base = YieldConfig::new(600, seed).with_chunk(97);
        let reference = behavioral_offset_yield(&base, &chain, &thresholds);
        let threaded = behavioral_offset_yield(
            &base.clone().with_threads(threads), &chain, &thresholds,
        );
        prop_assert_eq!(&reference, &threaded);
        let scalar = behavioral_offset_yield_scalar(&base, &chain, &thresholds);
        prop_assert_eq!(&reference, &scalar);
    }
}

/// Transistor-level yield: the estimate is bit-identical across thread
/// counts (single deterministic case — each trial is a real solve), and
/// the warm-started batched table agrees with the scalar one to ≤ 1e-9.
#[test]
fn transistor_yield_thread_invariant() {
    let spec = PairYieldSpec::paper_default();
    let thresholds = [2e-3, 5e-3];
    let base = YieldConfig::new(48, 0xBA7C4).with_chunk(16);
    let reference = transistor_offset_yield(&base, &spec, &thresholds).expect("1 thread");
    for threads in [2, 5, 8] {
        let run = transistor_offset_yield(&base.clone().with_threads(threads), &spec, &thresholds)
            .expect("n threads");
        assert_eq!(reference.estimate, run.estimate, "threads={threads}");
    }
    let scalar = transistor_offset_yield_scalar(&base, &spec, &thresholds).expect("scalar");
    for i in 0..thresholds.len() {
        let (b, s) = (
            reference.estimate.fail_prob(i),
            scalar.estimate.fail_prob(i),
        );
        assert!(
            (b - s).abs() <= 1e-9,
            "threshold {i}: batched {b} scalar {s}"
        );
    }
}

/// Cold-started batched trials reproduce the scalar flow to ≤ 1e-9 on
/// the paper's four-stage chain across all process corners.
#[test]
fn chain_offsets_batched_agree_with_scalar() {
    let spec = PairYieldSpec::paper_chain().all_corners();
    let cfg = YieldConfig::new(24, 0x5EED)
        .with_chunk(12)
        .with_warm_start(false);
    let (batched, _) = pair_offsets_batched(&cfg, &spec).expect("batched offsets");
    let scalar = pair_offsets_scalar(&cfg, &spec).expect("scalar offsets");
    assert_eq!(batched.len(), scalar.len());
    for (i, (a, b)) in batched.iter().zip(&scalar).enumerate() {
        assert!((a - b).abs() <= 1e-9, "trial {i}: batched {a} scalar {b}");
    }
}
