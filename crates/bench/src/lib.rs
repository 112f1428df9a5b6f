//! Shared harness utilities for the figure/table regeneration binaries.
//!
//! Every table and figure in the paper's evaluation has a matching
//! binary in `src/bin/`:
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Fig. 5(a)/(b) equalizer frequency response | `fig05_equalizer` |
//! | Fig. 7(a)/(b) active-inductor control      | `fig07_active_inductor` |
//! | Fig. 14(a)/(b) I/O eye @ 10 Gb/s           | `fig14_eye` |
//! | Fig. 15(a)/(b) input eye ± equalizer       | `fig15_equalizer_eye` |
//! | Fig. 16(a)/(b) output ± voltage peaking    | `fig16_peaking` |
//! | Table I performance comparison             | `table1_performance` |
//! | §III.E BMVR claims                         | `bmvr_sweep` |
//! | §II.A sensitivity / dynamic range          | `sensitivity_sweep` |
//!
//! The `gates` binary holds the timing and peak-memory bounds; the
//! benchmark itself (the paper's four workloads, measured end to end
//! and per layer) lives in `perfbench/` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cml_sig::nrz::NrzConfig;
use cml_sig::prbs::Prbs;
use cml_sig::{EyeDiagram, EyeMetrics, UniformWave};

/// Unit interval used throughout: 100 ps (10 Gb/s).
pub const UI: f64 = 100e-12;

/// Renders the paper's 2⁷−1 PRBS test pattern (three periods so the eye
/// statistics settle) at the given peak-to-peak amplitude.
#[must_use]
pub fn prbs7_wave(amplitude: f64) -> UniformWave {
    let bits: Vec<bool> = Prbs::prbs7().take(381).collect();
    NrzConfig::new(UI, amplitude).render(&bits)
}

/// Folds a waveform into eye metrics, discarding the first 3 ns of
/// startup transient.
#[must_use]
pub fn eye_metrics(wave: &UniformWave) -> EyeMetrics {
    EyeDiagram::fold(&wave.skip_initial(3e-9), UI).metrics()
}

/// Renders an ASCII eye diagram (startup discarded).
#[must_use]
pub fn eye_art(wave: &UniformWave) -> String {
    EyeDiagram::fold(&wave.skip_initial(3e-9), UI).render_ascii(16, 64)
}

/// Prints a standard header for a figure binary.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Formats eye metrics on one line.
#[must_use]
pub fn fmt_eye(m: &EyeMetrics) -> String {
    format!(
        "height {:6.1} mV | width {:5.1} ps | rms jitter {:4.1} ps | opening {:4.2}",
        m.height * 1e3,
        m.width * 1e12,
        m.rms_jitter * 1e12,
        m.opening
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prbs_wave_has_expected_shape() {
        let w = prbs7_wave(0.5);
        assert_eq!(w.len(), 381 * 32);
        let m = eye_metrics(&w);
        assert!(m.opening > 0.9);
    }

    #[test]
    fn eye_art_renders() {
        let art = eye_art(&prbs7_wave(0.5));
        assert_eq!(art.lines().count(), 16);
    }

    #[test]
    fn fmt_eye_contains_units() {
        let s = fmt_eye(&eye_metrics(&prbs7_wave(0.5)));
        assert!(s.contains("mV") && s.contains("ps"));
    }
}

#[cfg(test)]
mod serde_tests {
    #[test]
    fn table_rows_roundtrip_as_json() {
        let rows = cml_core::report::table_one();
        let json = serde_json::to_string(&rows).expect("serialize");
        let back: Vec<cml_core::report::PerformanceRow> =
            serde_json::from_str(&json).expect("deserialize");
        assert_eq!(rows, back);
        assert!(json.contains("\"power\""));
    }

    #[test]
    fn eye_metrics_serialize() {
        let m = crate::eye_metrics(&crate::prbs7_wave(0.5));
        let json = serde_json::to_string(&m).expect("serialize");
        assert!(json.contains("\"height\""));
    }
}
