//! Timing statistics of an untraced run, scaled to a reference host
//! speed.
//!
//! The benchmark runs on shared 2-vCPU hosts whose speed drifts by
//! 20-40 % over tens of seconds as neighbours load the machine; a run
//! cannot average that out, because the slowdown covers the whole run.
//! So the benchmark times a fixed piece of its own arithmetic (the
//! calibration kernel, which no change to the program can touch)
//! between consecutive jobs and set-ups, and scales each job's times by
//! `CAL_REF_S / calibration time around that job`: every reported time
//! is what the run would have measured on a host where the kernel takes
//! `CAL_REF_S`.

use std::hint::black_box;
use std::time::Instant;

/// Calibration-kernel time of the reference host, seconds (about what
/// the kernel takes on an idle 2-vCPU Xeon VM of the kind the benchmark
/// was tuned on).
pub const CAL_REF_S: f64 = 2.5e-3;

/// Share of a run's jobs, fastest first, that the job metrics are taken
/// from: bursts of load shorter than a run only ever slow jobs down.
const QUIET_SHARE: f64 = 0.25;

/// Times the calibration kernel once: Gaussian elimination of a fixed
/// diagonally dominant 48×48 matrix, 100 times, plus a transcendental
/// per pass — the mix of small dense factorizations and device-model
/// math the simulator itself spends its time on.
#[must_use]
pub fn calibrate() -> f64 {
    const N: usize = 48;
    let t = Instant::now();
    let mut acc = 0.0;
    for rep in 0..100 {
        let mut a: Vec<f64> = (0..N * N)
            .map(|k| {
                let (i, j) = (k / N, k % N);
                if i == j {
                    100.0 + f64::from(rep)
                } else {
                    ((i * 7 + j * 3) % 11) as f64 * 0.1
                }
            })
            .collect();
        for k in 0..N {
            let pivot = a[k * N + k];
            for i in k + 1..N {
                let f = a[i * N + k] / pivot;
                for j in k..N {
                    a[i * N + j] -= f * a[k * N + j];
                }
            }
        }
        acc += black_box(a[N * N - 1]).ln();
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Linear-interpolated quantile `q` of `v` (NaN when empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[must_use]
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Scale factor to the reference host for a span bracketed by
/// calibration times `before` and `after`.
fn scale(before: f64, after: f64) -> f64 {
    2.0 * CAL_REF_S / (before + after)
}

/// Records repeated, identical pieces of work (set-ups or jobs) with a
/// calibration between consecutive pieces.
#[derive(Debug)]
pub struct Recorder {
    cals: Vec<f64>,
    /// Wall seconds and unit latencies (ms) of each piece.
    pieces: Vec<(f64, Vec<f64>)>,
}

impl Recorder {
    /// Starts with a calibration.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            cals: vec![calibrate()],
            pieces: Vec::new(),
        }
    }

    /// Times `f`, which pushes its unit latencies (ms), then calibrates.
    pub fn record<R>(&mut self, f: impl FnOnce(&mut Vec<f64>) -> R) -> R {
        let mut units = Vec::new();
        let t = Instant::now();
        let r = f(&mut units);
        self.pieces.push((t.elapsed().as_secs_f64(), units));
        self.cals.push(calibrate());
        r
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }

    /// Each piece's seconds and unit latencies on the reference host.
    fn scaled(&self) -> Vec<(f64, Vec<f64>)> {
        self.pieces
            .iter()
            .zip(self.cals.windows(2))
            .map(|((s, units), c)| {
                let k = scale(c[0], c[1]);
                (s * k, units.iter().map(|u| u * k).collect())
            })
            .collect()
    }

    /// Median piece time on the reference host, seconds.
    #[must_use]
    pub fn median_s(&self) -> f64 {
        median(
            &self
                .scaled()
                .into_iter()
                .map(|(s, _)| s)
                .collect::<Vec<_>>(),
        )
    }

    /// `(throughput, unit p50, unit p90)` on the reference host from the
    /// fastest quarter of the pieces: items per second, and quantiles of
    /// those pieces' unit latencies (ms).
    #[must_use]
    pub fn quiet_stats(&self, items_per_piece: u64) -> (f64, f64, f64) {
        let mut pieces = self.scaled();
        pieces.sort_by(|a, b| a.0.total_cmp(&b.0));
        pieces.truncate((pieces.len() as f64 * QUIET_SHARE).ceil() as usize);
        let secs: f64 = pieces.iter().map(|(s, _)| s).sum();
        let units: Vec<f64> = pieces.iter().flat_map(|(_, u)| u.iter().copied()).collect();
        (
            (items_per_piece * pieces.len() as u64) as f64 / secs,
            quantile(&units, 0.5),
            quantile(&units, 0.9),
        )
    }
}
