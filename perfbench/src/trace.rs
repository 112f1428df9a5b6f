//! Per-layer attribution from outside the program.
//!
//! The benchmark opens its own span around every call into a crate's
//! public function ([`Trace::span`]) and, for calls that take a
//! telemetry handle, hands them a fresh `Telemetry::enabled_fine()`
//! whose phase timers and counters it reads back afterwards
//! ([`Trace::call`]). A layer's *self* time is its span minus every span
//! and phase nested inside it, so the self times of all layers plus the
//! unattributed remainder add up to the traced wall time exactly.
//!
//! An untraced [`Trace`] records nothing and hands out disabled handles.

use cml_telemetry::{Counters, Phase, SolverReport, SpanRecord, Telemetry};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Time layers, in report order. Every nanosecond a traced leg spends
/// inside a span lands in exactly one of these.
pub const TIME_LAYERS: [&str; 14] = [
    "core.cells.build",
    "sig.nrz.render",
    "spice.lint",
    "spice.op",
    "spice.tran",
    "numeric.factor",
    "numeric.refactor",
    "numeric.back_substitute",
    "numeric.pattern",
    "sig.eye.fold",
    "spice.ac",
    "sig.measure",
    "spice.batch",
    "core.yield",
];

/// A reported metric: name, value and unit.
pub type Metric = (&'static str, f64, &'static str);

/// Where a traced call's telemetry phases ran.
#[derive(Debug, Clone, Copy)]
pub enum Par {
    /// Every phase ran on the calling thread.
    Serial,
    /// Only the AC per-point phase (`Refactor`) ran on the sweep's
    /// workers; the worker count comes from the report.
    AcFanout,
    /// Every phase ran on chunk workers (the yield fold) with this many
    /// workers.
    Chunks(usize),
}

#[derive(Debug, Default)]
struct Inner {
    self_ns: BTreeMap<&'static str, f64>,
    /// Sum of every self time recorded so far.
    attributed_ns: f64,
    depth: u32,
    spans: Vec<SpanRecord>,
    /// Counters of every handle.
    all: Counters,
    op_calls: u64,
    op: Counters,
    tran: Counters,
    explicit_lint_calls: u64,
    eye_samples: u64,
    eye_chunks: u64,
    /// max/mean worker busy time, one entry per fan-out.
    imbalance: Vec<f64>,
    nesting_errors: Vec<String>,
}

/// Span recorder and layer table of one leg.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Trace {
    /// A recorder that records nothing and hands out disabled handles.
    #[must_use]
    pub fn off() -> Self {
        Trace {
            on: false,
            epoch: Instant::now(),
            inner: RefCell::default(),
        }
    }

    /// A recording tracer.
    #[must_use]
    pub fn on() -> Self {
        Trace {
            on: true,
            ..Trace::off()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&self) -> (u64, f64) {
        let mut g = self.inner.borrow_mut();
        g.depth += 1;
        (self.now_ns(), g.attributed_ns)
    }

    /// Closes a span opened at `start` and returns its wall time and the
    /// time already attributed to spans nested in it.
    fn close(&self, layer: &'static str, start: u64, before: f64) -> (f64, f64) {
        let end = self.now_ns().max(start + 1);
        let mut g = self.inner.borrow_mut();
        g.depth -= 1;
        let depth = g.depth;
        g.spans.push(SpanRecord {
            name: layer,
            cat: "layer",
            tid: 0,
            depth,
            start_ns: start,
            dur_ns: end - start,
        });
        ((end - start) as f64, g.attributed_ns - before)
    }

    fn attribute(&self, layer: &'static str, ns: f64) {
        let mut g = self.inner.borrow_mut();
        *g.self_ns.entry(layer).or_default() += ns;
        g.attributed_ns += ns;
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let (start, before) = self.open();
        let r = f();
        let (dur, nested) = self.close(layer, start, before);
        self.attribute(layer, dur - nested);
        r
    }

    /// Counts a lint precheck the benchmark itself issued.
    pub fn note_explicit_lint(&self) {
        if self.on {
            self.inner.borrow_mut().explicit_lint_calls += 1;
        }
    }

    /// Counts one chunk of `samples` folded by an eye sink.
    pub fn note_eye_chunk(&self, samples: usize) {
        if self.on {
            let mut g = self.inner.borrow_mut();
            g.eye_chunks += 1;
            g.eye_samples += samples as u64;
        }
    }

    /// Runs `f` inside a span of `layer`, handing it a telemetry handle,
    /// and attributes the handle's phase timers to their layers.
    pub fn call<R>(&self, layer: &'static str, par: Par, f: impl FnOnce(&Telemetry) -> R) -> R {
        if !self.on {
            return f(&Telemetry::disabled());
        }
        let tel = Telemetry::enabled_fine();
        let (start, before) = self.open();
        let r = f(&tel);
        let (dur, nested) = self.close(layer, start, before);
        let rep = tel.report();
        let children = self.attribute_phases(&rep, par);
        self.attribute(layer, dur - nested - children);
        self.absorb_report(layer, &rep, par);
        r
    }

    /// Attributes the report's phase timers to their layers and returns
    /// their total (wall-clock equivalent).
    fn attribute_phases(&self, rep: &SolverReport, par: Par) -> f64 {
        let workers = match par {
            Par::Serial => 1.0,
            Par::AcFanout => rep.worker_items.len().max(1) as f64,
            Par::Chunks(w) => w.max(1) as f64,
        };
        let ns = |p: Phase| {
            let raw = rep.timings.ns[p.index()] as f64;
            let parallel = match par {
                Par::Serial => false,
                Par::AcFanout => p == Phase::Refactor,
                Par::Chunks(_) => true,
            };
            if parallel {
                raw / workers
            } else {
                raw
            }
        };
        let numeric = [
            ("numeric.factor", ns(Phase::Factor)),
            ("numeric.refactor", ns(Phase::Refactor)),
            ("numeric.back_substitute", ns(Phase::BackSubstitute)),
            ("numeric.pattern", ns(Phase::PatternDiscovery)),
        ];
        let numeric_total: f64 = numeric.iter().map(|(_, t)| t).sum();
        // The batched kernel's numeric phases all run inside its
        // BatchSolve timer; elsewhere BatchSolve is 0.
        let batch = ns(Phase::BatchSolve);
        let batch_self = if batch > 0.0 {
            batch - numeric_total
        } else {
            0.0
        };
        let lint = ns(Phase::LintPrecheck);
        for (layer, t) in numeric {
            self.attribute(layer, t);
        }
        self.attribute("spice.batch", batch_self);
        self.attribute("spice.lint", lint);
        numeric_total + batch_self + lint
    }

    fn absorb_report(&self, layer: &'static str, rep: &SolverReport, par: Par) {
        let mut g = self.inner.borrow_mut();
        g.all.merge(&rep.counters);
        match layer {
            "spice.op" => {
                g.op_calls += 1;
                g.op.merge(&rep.counters);
            }
            "spice.tran" => g.tran.merge(&rep.counters),
            _ => {}
        }
        if let Err(e) = rep.check_well_nested() {
            g.nesting_errors.push(format!("{layer} telemetry: {e}"));
        }
        let threads = match par {
            Par::Serial => return,
            Par::AcFanout => rep.worker_items.len(),
            Par::Chunks(w) => w,
        };
        g.imbalance.push(fanout_imbalance(&rep.spans, threads));
    }

    /// Closes the leg: the per-layer table over a leg of `wall_ns`.
    #[must_use]
    pub fn finish(&self, wall_ns: f64) -> LayerTable {
        let g = self.inner.borrow();
        let own = SolverReport {
            spans: g.spans.clone(),
            ..SolverReport::default()
        };
        let mut nesting_errors = g.nesting_errors.clone();
        if let Err(e) = own.check_well_nested() {
            nesting_errors.push(format!("benchmark spans: {e}"));
        }
        let self_ms: Vec<(&'static str, f64)> = TIME_LAYERS
            .iter()
            .map(|&l| (l, g.self_ns.get(l).copied().unwrap_or(0.0) / 1e6))
            .collect();
        let attributed_ms: f64 = self_ms.iter().map(|(_, t)| t).sum();
        LayerTable {
            wall_ms: wall_ns / 1e6,
            unattributed_ms: wall_ns / 1e6 - attributed_ms,
            self_ms,
            all: g.all.clone(),
            op_calls: g.op_calls,
            op: g.op.clone(),
            tran: g.tran.clone(),
            explicit_lint_calls: g.explicit_lint_calls,
            eye_samples: g.eye_samples,
            eye_chunks: g.eye_chunks,
            imbalance: if g.imbalance.is_empty() {
                1.0
            } else {
                g.imbalance.iter().sum::<f64>() / g.imbalance.len() as f64
            },
            nesting_errors,
        }
    }
}

/// max/mean busy time over the workers of one fan-out. Workers are
/// reconstructed from the top-level span each forked worker handle
/// records per chunk (tid >= 1, depth 0): a worker runs its chunks one
/// after another, so chunks are packed greedily into the fewest
/// non-overlapping lanes.
fn fanout_imbalance(spans: &[SpanRecord], threads: usize) -> f64 {
    let mut chunks: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.tid >= 1 && s.depth == 0)
        .collect();
    if chunks.is_empty() {
        return 1.0;
    }
    chunks.sort_by_key(|s| s.start_ns);
    // (end_ns, busy_ns) per lane.
    let mut lanes: Vec<(u64, u64)> = Vec::new();
    for s in &chunks {
        let free = lanes
            .iter_mut()
            .filter(|(end, _)| *end <= s.start_ns)
            .max_by_key(|(end, _)| *end);
        match free {
            Some(lane) => {
                lane.0 = s.start_ns + s.dur_ns;
                lane.1 += s.dur_ns;
            }
            None => lanes.push((s.start_ns + s.dur_ns, s.dur_ns)),
        }
    }
    let n = lanes.len().max(threads.min(chunks.len())).max(1);
    let busy: Vec<f64> = lanes.iter().map(|&(_, b)| b as f64).collect();
    let mean = busy.iter().sum::<f64>() / n as f64;
    let max = busy.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// The per-layer table of one traced leg.
#[derive(Debug, Clone)]
pub struct LayerTable {
    pub wall_ms: f64,
    pub unattributed_ms: f64,
    pub self_ms: Vec<(&'static str, f64)>,
    all: Counters,
    op_calls: u64,
    op: Counters,
    tran: Counters,
    explicit_lint_calls: u64,
    eye_samples: u64,
    eye_chunks: u64,
    imbalance: f64,
    pub nesting_errors: Vec<String>,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl LayerTable {
    fn ms(&self, layer: &str) -> f64 {
        self.self_ms
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |&(_, t)| t)
    }

    /// Every per-layer metric as `(name, value, unit)`, given the leg
    /// pair overhead measured alongside.
    #[must_use]
    pub fn metrics(&self, overhead_frac: f64) -> Vec<Metric> {
        let c = &self.all;
        let factor_uses = c.factor_reuse_hits + c.full_factorizations + c.refactorizations;
        vec![
            ("core.cells.build_ms", self.ms("core.cells.build"), "ms"),
            ("sig.nrz.render_ms", self.ms("sig.nrz.render"), "ms"),
            ("spice.lint.ms", self.ms("spice.lint"), "ms"),
            (
                "spice.lint.calls",
                (c.lint_prechecks + self.explicit_lint_calls) as f64,
                "count",
            ),
            ("cache.hits", c.cache_hits as f64, "count"),
            ("cache.misses", c.cache_misses as f64, "count"),
            (
                "cache.hit_ratio",
                ratio(c.cache_hits, c.cache_hits + c.cache_misses),
                "ratio",
            ),
            (
                "cache.validation_failures",
                c.cache_validation_failures as f64,
                "count",
            ),
            ("spice.op.ms", self.ms("spice.op"), "ms"),
            (
                "spice.op.newton_iterations",
                self.op.newton_iterations as f64,
                "count",
            ),
            (
                "spice.op.retries",
                self.op.newton_solves.saturating_sub(self.op_calls) as f64,
                "count",
            ),
            ("spice.tran.self_ms", self.ms("spice.tran"), "ms"),
            ("spice.tran.steps", self.tran.tran_steps as f64, "count"),
            (
                "spice.tran.lte_accept_ratio",
                ratio(
                    self.tran.lte_accepts,
                    self.tran.lte_accepts + self.tran.lte_rejects,
                ),
                "ratio",
            ),
            (
                "spice.tran.iters_per_step",
                ratio(self.tran.newton_iterations, self.tran.tran_steps),
                "1/step",
            ),
            (
                "spice.tran.breakpoint_restarts",
                self.tran.breakpoint_restarts as f64,
                "count",
            ),
            ("numeric.factor_ms", self.ms("numeric.factor"), "ms"),
            ("numeric.refactor_ms", self.ms("numeric.refactor"), "ms"),
            (
                "numeric.back_substitute_ms",
                self.ms("numeric.back_substitute"),
                "ms",
            ),
            ("numeric.pattern_ms", self.ms("numeric.pattern"), "ms"),
            (
                "numeric.full_factorizations",
                c.full_factorizations as f64,
                "count",
            ),
            (
                "numeric.refactorizations",
                c.refactorizations as f64,
                "count",
            ),
            (
                "numeric.factor_reuse_ratio",
                ratio(c.factor_reuse_hits, factor_uses),
                "ratio",
            ),
            ("numeric.pivot_fallbacks", c.pivot_fallbacks as f64, "count"),
            ("numeric.sparse_solves", c.sparse_solves as f64, "count"),
            ("numeric.dense_solves", c.dense_solves as f64, "count"),
            ("sig.eye.fold_ms", self.ms("sig.eye.fold"), "ms"),
            ("sig.eye.samples", self.eye_samples as f64, "count"),
            ("sig.eye.chunks", self.eye_chunks as f64, "count"),
            ("spice.ac.ms", self.ms("spice.ac"), "ms"),
            ("spice.ac.points", c.ac_points as f64, "count"),
            (
                "spice.ac.sparse_fraction",
                ratio(c.ac_points_sparse, c.ac_points),
                "ratio",
            ),
            (
                "spice.ac.point_fallbacks",
                c.ac_point_fallbacks as f64,
                "count",
            ),
            ("sig.measure.ms", self.ms("sig.measure"), "ms"),
            ("spice.batch.ms", self.ms("spice.batch"), "ms"),
            ("spice.batch.solves", c.batch_solves as f64, "count"),
            (
                "spice.batch.lane_occupancy",
                ratio(c.batch_lanes_active, c.batch_lane_slots),
                "ratio",
            ),
            (
                "spice.batch.lane_fallbacks",
                c.lane_fallbacks as f64,
                "count",
            ),
            ("core.yield.self_ms", self.ms("core.yield"), "ms"),
            ("runner.imbalance", self.imbalance, "ratio"),
            ("telemetry.overhead_frac", overhead_frac, "frac"),
            ("unattributed_ms", self.unattributed_ms, "ms"),
        ]
    }
}
