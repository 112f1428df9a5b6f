//! Pins full-state transient trajectories to recorded bit patterns.
//!
//! The other transient equivalence suites compare two solver paths
//! (streamed vs dense, warm vs cold, sparse vs dense) against each
//! other, so a change that alters the floating-point summation order of
//! every path at once passes them all. This suite instead folds every
//! `to_bits` of every accepted time point and every MNA unknown into an
//! FNV-1a digest and compares it with a digest recorded before the
//! compiled device-load program replaced per-element stamping.
//!
//! The circuits use no diodes and no sine sources, so no libm
//! transcendental enters the trajectory and the digests do not depend on
//! the host's math library.

// Driver-style target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_core::cells::cml_buffer::{self, CmlBufferConfig};
use cml_core::cells::input_interface::{self, InputInterfaceConfig};
use cml_core::cells::{add_diff_drive, add_supply, DiffPort};
use cml_pdk::Pdk018;
use cml_sig::nrz::NrzConfig;
use cml_sig::prbs::Prbs;
use cml_spice::analysis::sink::{DenseSink, TranProbes};
use cml_spice::analysis::tran::{self, TranConfig};
use cml_spice::prelude::*;

/// 10 Gb/s unit interval.
const UI: f64 = 100e-12;

/// FNV-1a over the little-endian bytes of every time point, then every
/// column of the full-state record.
fn full_state_digest(ckt: &Circuit, cfg: &TranConfig) -> u64 {
    let mut sink = DenseSink::new();
    tran::run_streaming(ckt, cfg, &TranProbes::full_state(), &mut sink).expect("transient");
    let (times, cols) = sink.into_parts();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in times.iter().chain(cols.iter().flatten()) {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The transistor-level input interface driven by `n_bits` of PRBS-7,
/// with a 20 fF load per output (the `rx_eye_prbs7` circuit, shortened).
fn rx_interface(n_bits: usize) -> Circuit {
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
    ckt
}

/// The transistor-level CML buffer driven by `n_bits` of PRBS-31 at its
/// own output swing (the `tx_stream_prbs31` circuit, shortened).
fn tx_buffer(n_bits: usize) -> Circuit {
    let pdk = Pdk018::typical();
    let cfg = CmlBufferConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let out = DiffPort::named(&mut ckt, "out");
    let vcm = cml_buffer::output_common_mode(&cfg);
    let bits: Vec<bool> = Prbs::prbs31().take(n_bits).collect();
    let pwl = NrzConfig::new(UI, cfg.stage.swing())
        .with_offset(vcm)
        .render_pwl(&bits);
    add_diff_drive(&mut ckt, "VIN", input, vcm, Some(Waveform::Pwl(pwl)));
    cml_buffer::build(&mut ckt, &pdk, &cfg, "buf", input, out, vdd);
    ckt
}

#[test]
fn adaptive_sparse_input_interface_matches_recorded_digest() {
    let ckt = rx_interface(12);
    let mut cfg = TranConfig::new(12.0 * UI, 1e-12).adaptive();
    cfg.newton.sparse_threshold = 1;
    assert_eq!(full_state_digest(&ckt, &cfg), 0x1c50_e99a_7189_a404);
}

#[test]
fn fixed_step_dense_buffer_matches_recorded_digest() {
    let ckt = tx_buffer(100);
    let mut cfg = TranConfig::new(100.0 * UI, 5e-12);
    cfg.newton.sparse_threshold = usize::MAX;
    assert_eq!(full_state_digest(&ckt, &cfg), 0xec43_019e_963b_b4f3);
}

#[test]
fn backward_euler_sparse_buffer_matches_recorded_digest() {
    let ckt = tx_buffer(24);
    let mut cfg = TranConfig::new(24.0 * UI, 2e-12).backward_euler();
    cfg.newton.sparse_threshold = 1;
    assert_eq!(full_state_digest(&ckt, &cfg), 0x36ae_f94d_d542_8175);
}
