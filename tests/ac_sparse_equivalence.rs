//! Equivalence tests for the sparse complex AC path.
//!
//! The AC engine switches from the per-point dense complex solve to the
//! pattern-reusing sparse complex LU at `NewtonOptions::sparse_threshold`
//! unknowns, and partitions the frequency grid across worker threads.
//! These tests pin the contract that neither switch changes results:
//! dense and sparse sweeps agree to ≤ 1e-9 on every seed cell over a
//! 200-point grid without a single sparse→dense fallback, and the
//! parallel sweep is bit-identical to the serial one for any thread
//! count. A property test additionally checks the complex sparse
//! factorization against dense complex elimination on random
//! diagonally-dominant MNA-shaped systems.

// Driver-style target: aborting on a malformed result with a message
// is the intended failure mode, so expect/unwrap are fine here.
#![allow(clippy::expect_used, clippy::unwrap_used)]

use cml_core::cells::cml_buffer::{self, CmlBufferConfig};
use cml_core::cells::equalizer::{self, EqualizerConfig};
use cml_core::cells::input_interface::{self, InputInterfaceConfig};
use cml_core::cells::limiting_amp::{self, LimitingAmpConfig};
use cml_core::cells::{add_diff_drive, add_supply, DiffPort};
use cml_numeric::sparse::CsrMatrix;
use cml_numeric::{logspace, Complex64, ComplexMatrix, SparseLu};
use cml_pdk::Pdk018;
use cml_spice::analysis::ac::{self, AcResult};
use cml_spice::analysis::{op, NewtonOptions};
use cml_spice::prelude::*;
use cml_spice::telemetry::Telemetry;
use proptest::prelude::*;

fn equalizer_circuit() -> Circuit {
    let pdk = Pdk018::typical();
    let cfg = EqualizerConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let output = DiffPort::named(&mut ckt, "out");
    add_diff_drive(&mut ckt, "VIN", input, cfg.input_common_mode(), None);
    equalizer::build(&mut ckt, &pdk, &cfg, "eq", input, output, vdd);
    ckt.add(Capacitor::new("CLP", output.p, Circuit::GROUND, 20e-15));
    ckt.add(Capacitor::new("CLN", output.n, Circuit::GROUND, 20e-15));
    ckt
}

fn limiting_amp_circuit() -> Circuit {
    let pdk = Pdk018::typical();
    let cfg = LimitingAmpConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let output = DiffPort::named(&mut ckt, "out");
    add_diff_drive(
        &mut ckt,
        "VIN",
        input,
        limiting_amp::common_mode(&cfg),
        None,
    );
    limiting_amp::build(&mut ckt, &pdk, &cfg, "la", input, output, vdd);
    ckt.add(Capacitor::new("CLP", output.p, Circuit::GROUND, 20e-15));
    ckt.add(Capacitor::new("CLN", output.n, Circuit::GROUND, 20e-15));
    ckt
}

fn buffer_circuit() -> Circuit {
    let pdk = Pdk018::typical();
    let cfg = CmlBufferConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let output = DiffPort::named(&mut ckt, "out");
    add_diff_drive(
        &mut ckt,
        "VIN",
        input,
        cml_buffer::output_common_mode(&cfg),
        None,
    );
    cml_buffer::build(&mut ckt, &pdk, &cfg, "buf", input, output, vdd);
    ckt.add(Capacitor::new("CLP", output.p, Circuit::GROUND, 30e-15));
    ckt.add(Capacitor::new("CLN", output.n, Circuit::GROUND, 30e-15));
    ckt
}

fn interface_circuit() -> Circuit {
    let pdk = Pdk018::typical();
    let cfg = InputInterfaceConfig::paper_default();
    let mut ckt = Circuit::new();
    let vdd = add_supply(&mut ckt, cml_pdk::VDD);
    let input = DiffPort::named(&mut ckt, "in");
    let output = DiffPort::named(&mut ckt, "out");
    add_diff_drive(
        &mut ckt,
        "VIN",
        input,
        cfg.equalizer.input_common_mode(),
        None,
    );
    input_interface::build(&mut ckt, &pdk, &cfg, "rx", input, output, vdd);
    ckt
}

fn seed_cells() -> Vec<(&'static str, Circuit)> {
    vec![
        ("equalizer", equalizer_circuit()),
        ("limiting_amp", limiting_amp_circuit()),
        ("cml_buffer", buffer_circuit()),
        ("input_interface", interface_circuit()),
    ]
}

/// Worst complex node-voltage difference between two sweeps across every
/// unknown node and every frequency point.
fn worst_diff(ckt: &Circuit, a: &AcResult, b: &AcResult, n_freqs: usize) -> f64 {
    let mut worst = 0.0f64;
    for raw in 1..=ckt.num_unknown_nodes() {
        let node = NodeId::from_raw(raw as u32);
        for idx in 0..n_freqs {
            worst = worst.max((a.voltage(node, idx) - b.voltage(node, idx)).abs());
        }
    }
    worst
}

#[test]
fn ac_sparse_matches_dense_on_seed_cells() {
    let freqs = logspace(1e6, 60e9, 200);
    let dense_opts = NewtonOptions {
        sparse_threshold: usize::MAX,
        ..NewtonOptions::default()
    };
    let sparse_opts = NewtonOptions {
        sparse_threshold: 1,
        ..NewtonOptions::default()
    };
    for (name, ckt) in &seed_cells() {
        let op = op::solve(ckt).expect("operating point");
        let dense = ac::sweep_with(ckt, op.solution(), &freqs, &dense_opts, 1).expect("dense ac");
        let tel = Telemetry::enabled();
        let sparse =
            ac::sweep_traced(ckt, op.solution(), &freqs, &sparse_opts, 1, &tel).expect("sparse ac");
        let worst = worst_diff(ckt, &dense, &sparse, freqs.len());
        assert!(worst <= 1e-9, "{name}: ac sparse/dense diff {worst:.3e}");
        assert_eq!(
            tel.report().counters.dense_fallbacks,
            0,
            "{name}: sparse AC sweep fell back to the dense solver"
        );
    }
}

#[test]
fn ac_parallel_is_bit_identical_to_serial() {
    let freqs = logspace(1e6, 60e9, 200);
    let sparse_opts = NewtonOptions {
        sparse_threshold: 1,
        ..NewtonOptions::default()
    };
    for (name, ckt) in &seed_cells() {
        let op = op::solve(ckt).expect("operating point");
        let serial =
            ac::sweep_with(ckt, op.solution(), &freqs, &sparse_opts, 1).expect("serial ac");
        for threads in [2, 3, 5, 8] {
            let parallel = ac::sweep_with(ckt, op.solution(), &freqs, &sparse_opts, threads)
                .expect("parallel ac");
            for raw in 1..=ckt.num_unknown_nodes() {
                let node = NodeId::from_raw(raw as u32);
                for idx in 0..freqs.len() {
                    let a = serial.voltage(node, idx);
                    let b = parallel.voltage(node, idx);
                    assert!(
                        a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                        "{name}: node {raw} at point {idx} differs with {threads} threads"
                    );
                }
            }
        }
    }
}

proptest! {
    /// Complex sparse LU agrees with dense complex elimination on random
    /// diagonally-dominant MNA-shaped systems (a band plus an arrow of
    /// couplings into the last rows, the structure branch currents
    /// create) — the complex-scalar twin of the f64 property test in
    /// `sparse_equivalence.rs`.
    #[test]
    fn complex_sparse_lu_matches_dense_complex(
        seed in any::<u64>(),
        n in 3usize..40,
        band in 1usize..5,
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut positions = Vec::new();
        for r in 0..n {
            for c in 0..n {
                if r.abs_diff(c) <= band || r >= n - 2 || c >= n - 2 {
                    positions.push((r, c));
                }
            }
        }
        let mut dense = ComplexMatrix::zeros(n, n);
        let mut csr = CsrMatrix::<Complex64>::from_pattern(n, n, &positions).expect("in-bounds");
        for &(r, c) in &positions {
            let mut v = Complex64::new(next(), next());
            if r == c {
                // G + jωC diagonals dominate in both parts.
                v += Complex64::new(2.0 * (band as f64 + 2.0), 2.0 * (band as f64 + 2.0));
            }
            dense[(r, c)] = v;
            let slot = csr.find(r, c).expect("patterned");
            csr.vals_mut()[slot] = v;
        }
        let b: Vec<Complex64> = (0..n).map(|_| Complex64::new(next(), next())).collect();
        let x_dense = dense.solve(&b).expect("diag dominant");
        let mut lu = SparseLu::new(&csr).expect("square");
        lu.factor(&csr).expect("diag dominant");
        let x_sparse = lu.solve(&b).expect("factored");
        for (a, s) in x_dense.iter().zip(&x_sparse) {
            prop_assert!((*a - *s).abs() < 1e-9, "dense {a:?} vs sparse {s:?}");
        }
    }
}
