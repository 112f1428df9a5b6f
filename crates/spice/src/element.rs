//! The element interface: how devices stamp themselves into the MNA system.
//!
//! Every circuit element implements [`Element`]. During each Newton
//! iteration the analysis drivers call [`Element::stamp`] with the current
//! solution guess; linear elements stamp constants, nonlinear elements stamp
//! their linearization (Norton companion form, exactly as SPICE does).
//! Reactive elements additionally keep per-element state (previous voltage /
//! current) in a flat arena owned by the analysis, sliced per element.

use crate::circuit::NodeId;
use cml_numeric::sparse::CsrMatrix;
use cml_numeric::{Complex64, DenseMatrix};
use std::fmt;

/// Numerical integration method for transient companion models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integration {
    /// Trapezoidal rule — second-order, the SPICE default.
    #[default]
    Trapezoidal,
    /// Backward Euler — first-order, more damped; useful for circuits with
    /// trapezoidal ringing artifacts.
    BackwardEuler,
}

/// What kind of solve the current stamp call belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StampMode {
    /// DC solve (operating point, DC sweep, or transient initial condition).
    Dc {
        /// Scale factor applied to all independent sources (source
        /// stepping homotopy uses values < 1).
        source_scale: f64,
        /// When `Some(t)`, sources evaluate their waveform at `t` instead
        /// of their DC value (used for the transient initial solution).
        at_time: Option<f64>,
    },
    /// One timestep of transient analysis.
    Tran {
        /// Absolute time of the step being solved (end of the interval).
        time: f64,
        /// Step size.
        dt: f64,
        /// Companion-model integration method.
        method: Integration,
    },
}

impl StampMode {
    /// Plain DC mode with full sources.
    #[must_use]
    pub fn dc() -> Self {
        StampMode::Dc {
            source_scale: 1.0,
            at_time: None,
        }
    }
}

/// Per-element context for a stamp call.
#[derive(Debug)]
pub struct StampCtx<'a> {
    /// Current Newton guess: node voltages followed by branch currents.
    pub x: &'a [f64],
    /// This element's slice of previous-timestep state (empty outside
    /// transient analysis or for stateless elements).
    pub state: &'a [f64],
    /// First branch-current unknown allocated to this element (offset into
    /// the branch region; see [`Stamper::branch`]).
    pub branch_base: usize,
    /// Number of non-ground nodes in the system (`x[n_nodes..]` are the
    /// branch currents).
    pub n_nodes: usize,
    /// Analysis mode.
    pub mode: StampMode,
}

impl StampCtx<'_> {
    /// Voltage of `node` under the current guess (0 for ground).
    #[must_use]
    pub fn v(&self, node: NodeId) -> f64 {
        match node.index() {
            Some(i) => self.x[i],
            None => 0.0,
        }
    }

    /// Absolute index into `x` of this element's first branch current.
    #[must_use]
    pub fn branch_base_abs(&self) -> usize {
        self.n_nodes + self.branch_base
    }
}

/// Cached stamp-pointer sequence for one sparse assembly pass.
///
/// While stamping into a [`CsrMatrix`], the stamper records the flat
/// value-slot of every matrix write in call order. On the next pass over
/// the same elements, each write is satisfied by the cached slot after a
/// cheap `(row, col)` check — no binary search, no triplet rebuild. A
/// mismatch (e.g. a MOSFET reordering its drain/source writes between
/// Newton iterations) self-heals via binary search on the CSR row, so
/// correctness never depends on the cache being right.
#[derive(Debug, Default, Clone)]
pub struct StampSlots {
    seq: Vec<(usize, usize, usize)>,
    cursor: usize,
    missing: bool,
}

impl StampSlots {
    /// Starts a new assembly pass at the head of the cached sequence.
    pub fn begin_pass(&mut self) {
        self.cursor = 0;
        self.missing = false;
    }

    /// Whether a write in the last pass hit a position absent from the
    /// matrix pattern — the signal for the analysis driver to rebuild
    /// the pattern (or fall back to dense assembly).
    #[must_use]
    pub fn missing(&self) -> bool {
        self.missing
    }

    /// Drops the cached sequence (used when the pattern is rebuilt).
    pub fn clear(&mut self) {
        self.seq.clear();
        self.cursor = 0;
        self.missing = false;
    }
}

/// Where matrix writes of a [`Stamper`] go.
#[derive(Debug)]
enum MatSink<'a> {
    /// Discard matrix writes (RHS-only assembly over a cached Jacobian).
    Discard,
    /// Accumulate into a dense MNA matrix.
    Dense(&'a mut DenseMatrix),
    /// Record `(row, col)` of every write; values are discarded. Used
    /// once per topology to discover the sparsity pattern.
    Pattern(&'a mut Vec<(usize, usize)>),
    /// Accumulate into the reserved slots of a fixed-pattern CSR matrix,
    /// with stamp-pointer caching through `slots`.
    Sparse {
        mat: &'a mut CsrMatrix,
        slots: &'a mut StampSlots,
    },
}

/// Write access to the real MNA matrix and right-hand side, with
/// ground-aware indexing.
///
/// The matrix side is pluggable: analyses that have a still-valid cached
/// Jacobian (see factorization reuse in `analysis`) construct the stamper
/// with [`Stamper::rhs_only`] and every matrix write is dropped; the
/// sparse solve path uses [`Stamper::pattern`] once per topology and
/// [`Stamper::sparse`] on every subsequent assembly.
#[derive(Debug)]
pub struct Stamper<'a> {
    matrix: MatSink<'a>,
    rhs: &'a mut [f64],
    n_nodes: usize,
}

impl<'a> Stamper<'a> {
    /// Creates a stamper over an MNA system with `n_nodes` non-ground nodes.
    pub fn new(matrix: &'a mut DenseMatrix, rhs: &'a mut [f64], n_nodes: usize) -> Self {
        Stamper {
            matrix: MatSink::Dense(matrix),
            rhs,
            n_nodes,
        }
    }

    /// Creates a stamper that assembles only the right-hand side,
    /// discarding matrix writes (used when a cached factorization of the
    /// unchanged Jacobian is being reused).
    pub fn rhs_only(rhs: &'a mut [f64], n_nodes: usize) -> Self {
        Stamper {
            matrix: MatSink::Discard,
            rhs,
            n_nodes,
        }
    }

    /// Creates a stamper that records the `(row, col)` position of every
    /// matrix write into `positions` instead of accumulating values —
    /// the pattern-discovery pass of the sparse solve path.
    pub fn pattern(
        positions: &'a mut Vec<(usize, usize)>,
        rhs: &'a mut [f64],
        n_nodes: usize,
    ) -> Self {
        Stamper {
            matrix: MatSink::Pattern(positions),
            rhs,
            n_nodes,
        }
    }

    /// Creates a stamper that accumulates matrix writes directly into the
    /// reserved nonzero slots of `matrix` (a fixed-pattern CSR built by
    /// the analysis), using — and maintaining — the stamp-pointer cache
    /// in `slots`. Call [`StampSlots::begin_pass`] before each assembly.
    pub fn sparse(
        matrix: &'a mut CsrMatrix,
        slots: &'a mut StampSlots,
        rhs: &'a mut [f64],
        n_nodes: usize,
    ) -> Self {
        Stamper {
            matrix: MatSink::Sparse { mat: matrix, slots },
            rhs,
            n_nodes,
        }
    }

    /// Row/column index of a branch unknown.
    #[must_use]
    pub fn branch(&self, branch: usize) -> usize {
        self.n_nodes + branch
    }

    /// Adds `v` at matrix position (`r`, `c`); either index may be a ground
    /// node (`None`), in which case the write is dropped. In rhs-only mode
    /// all matrix writes are dropped.
    pub fn mat(&mut self, r: Option<usize>, c: Option<usize>, v: f64) {
        let (Some(r), Some(c)) = (r, c) else { return };
        match &mut self.matrix {
            MatSink::Discard => {}
            MatSink::Dense(m) => m[(r, c)] += v,
            MatSink::Pattern(p) => p.push((r, c)),
            MatSink::Sparse { mat, slots } => {
                let cur = slots.cursor;
                if let Some(&(er, ec, es)) = slots.seq.get(cur) {
                    if er == r && ec == c {
                        mat.vals_mut()[es] += v;
                        slots.cursor = cur + 1;
                        return;
                    }
                }
                // Cache miss: the write order changed since the cache was
                // recorded. Repair this position and keep going.
                match mat.find(r, c) {
                    Some(s) => {
                        mat.vals_mut()[s] += v;
                        if cur < slots.seq.len() {
                            slots.seq[cur] = (r, c, s);
                        } else {
                            slots.seq.push((r, c, s));
                        }
                        slots.cursor = cur + 1;
                    }
                    None => slots.missing = true,
                }
            }
        }
    }

    /// Adds `v` to the RHS at row `r` (ignored for ground).
    pub fn rhs(&mut self, r: Option<usize>, v: f64) {
        if let Some(r) = r {
            self.rhs[r] += v;
        }
    }

    /// Stamps a conductance `g` between nodes `a` and `b` (standard
    /// two-terminal pattern).
    pub fn conductance(&mut self, a: Option<usize>, b: Option<usize>, g: f64) {
        self.mat(a, a, g);
        self.mat(b, b, g);
        self.mat(a, b, -g);
        self.mat(b, a, -g);
    }

    /// Stamps a current source of value `i` flowing from node `a` through
    /// the element to node `b` (SPICE convention: `i` leaves `a`, enters `b`).
    pub fn current_source(&mut self, a: Option<usize>, b: Option<usize>, i: f64) {
        self.rhs(a, -i);
        self.rhs(b, i);
    }
}

/// One small-signal matrix entry: the admittance `g + jω·c` added at
/// (`row`, `col`). `g` is the conductance part, `c` the susceptance per
/// rad/s (a capacitance, or `−L` on an inductor's branch diagonal).
#[derive(Debug, Clone, Copy)]
pub(crate) struct AcEntry {
    pub(crate) row: usize,
    pub(crate) col: usize,
    pub(crate) g: f64,
    pub(crate) c: f64,
}

impl AcEntry {
    /// The entry's value at angular frequency `omega`.
    #[inline]
    pub(crate) fn at(&self, omega: f64) -> Complex64 {
        Complex64::new(self.g, omega * self.c)
    }
}

/// The frequency-independent small-signal system `G + jωC`, `b` of one
/// circuit around one operating point, recorded once per AC sweep.
///
/// Matrix entries keep the order the elements wrote them in; replaying
/// `vals[slot] += entry.at(ω)` in that order assembles the system at any
/// frequency. The RHS does not depend on `ω` and is accumulated as it is
/// recorded.
#[derive(Debug)]
pub(crate) struct AcTape {
    entries: Vec<AcEntry>,
    rhs: Vec<Complex64>,
}

impl AcTape {
    /// An empty tape for a system of `dim` unknowns.
    pub(crate) fn new(dim: usize) -> Self {
        AcTape {
            entries: Vec::new(),
            rhs: vec![Complex64::ZERO; dim],
        }
    }

    /// Matrix entries in write order.
    pub(crate) fn entries(&self) -> &[AcEntry] {
        &self.entries
    }

    /// The excitation vector.
    pub(crate) fn rhs(&self) -> &[Complex64] {
        &self.rhs
    }
}

/// Write access to the small-signal tape of an AC sweep, with
/// ground-aware indexing. Every matrix write is an admittance
/// `g + jω·c` given as its two real coefficients.
#[derive(Debug)]
pub struct AcStamper<'a> {
    tape: &'a mut AcTape,
    n_nodes: usize,
}

impl<'a> AcStamper<'a> {
    /// Creates an AC stamper recording into `tape`, over a system with
    /// `n_nodes` non-ground nodes.
    pub(crate) fn new(tape: &'a mut AcTape, n_nodes: usize) -> Self {
        AcStamper { tape, n_nodes }
    }

    /// Row/column index of a branch unknown.
    #[must_use]
    pub fn branch(&self, branch: usize) -> usize {
        self.n_nodes + branch
    }

    /// Adds `g + jω·c` at (`row`, `col`), dropping ground writes.
    pub fn mat(&mut self, row: Option<usize>, col: Option<usize>, g: f64, c: f64) {
        let (Some(row), Some(col)) = (row, col) else {
            return;
        };
        self.tape.entries.push(AcEntry { row, col, g, c });
    }

    /// Adds `v` to the RHS at `r` (dropped for ground).
    pub fn rhs(&mut self, r: Option<usize>, v: Complex64) {
        if let Some(r) = r {
            self.tape.rhs[r] += v;
        }
    }

    /// Stamps an admittance `g + jω·c` between nodes `a` and `b`.
    pub fn admittance(&mut self, a: Option<usize>, b: Option<usize>, g: f64, c: f64) {
        self.mat(a, a, g, c);
        self.mat(b, b, g, c);
        self.mat(a, b, -g, -c);
        self.mat(b, a, -g, -c);
    }

    /// Stamps a real conductance between nodes `a` and `b`.
    pub fn conductance(&mut self, a: Option<usize>, b: Option<usize>, g: f64) {
        self.admittance(a, b, g, 0.0);
    }

    /// Stamps a capacitance `c` between `a` and `b`.
    pub fn capacitance(&mut self, a: Option<usize>, b: Option<usize>, c: f64) {
        self.admittance(a, b, 0.0, c);
    }

    /// Stamps a transconductance: current `gm·(v_cp − v_cn)` flowing from
    /// `a` to `b`.
    pub fn transconductance(
        &mut self,
        a: Option<usize>,
        b: Option<usize>,
        cp: Option<usize>,
        cn: Option<usize>,
        gm: f64,
    ) {
        self.mat(a, cp, gm, 0.0);
        self.mat(a, cn, -gm, 0.0);
        self.mat(b, cp, -gm, 0.0);
        self.mat(b, cn, gm, 0.0);
    }
}

/// Coarse element classification, used by the netlist linter
/// ([`crate::lint`]) and other diagnostics to reason about an element
/// without downcasting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementKind {
    /// Linear resistor.
    Resistor,
    /// Linear capacitor.
    Capacitor,
    /// Linear inductor.
    Inductor,
    /// Independent voltage source.
    VoltageSource,
    /// Independent current source.
    CurrentSource,
    /// Voltage-controlled voltage source.
    Vcvs,
    /// Voltage-controlled current source.
    Vccs,
    /// MOSFET device.
    Mosfet,
    /// Diode device.
    Diode,
    /// Anything else (custom or behavioural elements).
    Other,
}

/// How a pair of element terminals is coupled at DC, as seen by the
/// netlist linter's connectivity and loop analyses ([`crate::lint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcCoupling {
    /// A finite, generically nonzero DC conductance links the two nodes
    /// (resistor, diode, MOSFET channel, VCCS output that can hold its
    /// node).
    Conductive(NodeId, NodeId),
    /// The element forces the DC voltage difference between the two
    /// nodes through a branch-current unknown (voltage source, inductor
    /// as a DC short, VCVS output branch). Loops of such couplings make
    /// the MNA system singular.
    VoltageDefined(NodeId, NodeId),
    /// A guess-independent current is pushed between the nodes with no
    /// matrix entries at all (independent current source). Cutsets made
    /// only of such couplings leave the island's potential undefined.
    CurrentInjection(NodeId, NodeId),
}

/// Abstract DC transfer model of an element, consumed by the static
/// analyzer ([`crate::analyze`]).
///
/// Where [`DcCoupling`] answers the linter's *structural* questions (is
/// there a path?), `DcTransfer` carries the *quantitative* model the
/// interval abstract interpretation needs: conductances, source values
/// and full device cards. Elements outside this vocabulary report
/// [`DcTransfer::Opaque`]; the analyzer then refuses to tighten any node
/// they touch (sound, just imprecise) and flags the node `A001`.
#[derive(Debug, Clone)]
pub enum DcTransfer {
    /// Linear conductance `g` siemens between `a` and `b`.
    Conductance {
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Conductance, siemens.
        g: f64,
    },
    /// Branch element forcing `v_a − v_b = v` at DC (voltage source with
    /// its DC value, inductor with `v = 0`).
    VoltageDefined {
        /// Positive terminal.
        a: NodeId,
        /// Negative terminal.
        b: NodeId,
        /// Forced DC voltage difference, volts.
        v: f64,
    },
    /// Independent DC current `i` flowing from `a` through the element
    /// into `b` (SPICE convention: `i` leaves node `a`).
    CurrentSource {
        /// Terminal the current leaves.
        a: NodeId,
        /// Terminal the current enters.
        b: NodeId,
        /// DC current, amps.
        i: f64,
    },
    /// No DC coupling at all (capacitor).
    Open,
    /// Square-law MOSFET channel between drain and source, gate sensing.
    MosChannel {
        /// Drain terminal.
        d: NodeId,
        /// Gate terminal.
        g: NodeId,
        /// Source terminal.
        s: NodeId,
        /// Full Level-1 model card.
        params: crate::devices::mosfet::MosParams,
    },
    /// Exponential diode junction from anode to cathode.
    Junction {
        /// Anode.
        a: NodeId,
        /// Cathode.
        k: NodeId,
        /// Diode model card.
        params: crate::devices::diode::DiodeParams,
    },
    /// Element outside the analyzer's vocabulary; nodes it touches keep
    /// their global envelope bounds.
    Opaque,
}

/// A circuit element that can stamp itself into the MNA system.
///
/// Implementors live in [`crate::elements`] and [`crate::devices`]. The
/// trait is object-safe; circuits own elements as `Box<dyn Element>`.
pub trait Element: fmt::Debug + Send + Sync {
    /// Unique name of the element instance (used in diagnostics and for
    /// branch-current lookup).
    fn name(&self) -> &str;

    /// Nodes this element connects to (used for connectivity checks).
    fn nodes(&self) -> Vec<NodeId>;

    /// Number of extra branch-current unknowns this element adds to the
    /// MNA system (voltage sources and inductors need one).
    fn num_branches(&self) -> usize {
        0
    }

    /// Number of `f64` state slots the element needs across transient
    /// timesteps (e.g. capacitor: previous voltage and current).
    fn state_size(&self) -> usize {
        0
    }

    /// Initializes transient state from a converged DC solution `x`.
    fn init_state(&self, _ctx: &StampCtx<'_>, _state: &mut [f64]) {}

    /// Whether this element's stamp depends on the Newton guess `ctx.x`.
    ///
    /// When this returns `false` (the default), the element promises that
    /// its **entire** stamp — matrix *and* RHS — is a function of
    /// `ctx.mode` and `ctx.state` only, never of `ctx.x`. The analysis
    /// drivers exploit the promise to cache linear-element stamps and
    /// reuse matrix factorizations across Newton iterations and
    /// timesteps; a violating element would silently converge to wrong
    /// answers, so nonlinear devices (MOSFET, diode) must override this
    /// to return `true`.
    fn is_nonlinear(&self) -> bool {
        false
    }

    /// Stamps the element's (linearized) contribution for the mode in
    /// `ctx.mode`.
    fn stamp(&self, ctx: &StampCtx<'_>, out: &mut Stamper<'_>);

    /// Writes the element's next-timestep state after a converged step.
    /// `ctx.x` holds the converged solution; `ctx.state` the previous state.
    fn update_state(&self, _ctx: &StampCtx<'_>, _state_next: &mut [f64]) {}

    /// Appends the times in `[0, t_stop]` at which this element's
    /// behaviour has a corner (PWL knots, pulse edges, …). The adaptive
    /// transient controller lands a step exactly on every breakpoint so
    /// sharp source edges are never straddled by a large step. Stateless
    /// smooth elements keep the empty default.
    fn breakpoints(&self, _t_stop: f64, _out: &mut Vec<f64>) {}

    /// Stamps the small-signal contribution linearized around the
    /// operating point `x_op`.
    ///
    /// The stamp must not depend on frequency: every matrix write is an
    /// admittance whose value at angular frequency `ω` is `g + jω·c`
    /// (see [`AcStamper::mat`]), and the RHS is `ω`-independent. An AC
    /// sweep calls this once per element and replays the recorded stamp
    /// at every frequency point.
    fn stamp_ac(&self, x_op: &[f64], branch_base: usize, out: &mut AcStamper<'_>);

    /// DC power dissipated by the element at operating point `x_op`, in
    /// watts; `None` when the notion does not apply. Sources report the
    /// power they *deliver* as negative dissipation.
    fn dc_power(&self, _x_op: &[f64], _branch_base: usize) -> Option<f64> {
        None
    }

    /// Coarse classification of this element for diagnostics. Custom
    /// elements may keep the [`ElementKind::Other`] default.
    fn kind(&self) -> ElementKind {
        ElementKind::Other
    }

    /// DC couplings between this element's terminals, consumed by the
    /// netlist linter's connectivity, loop and cutset analyses.
    ///
    /// The default is deliberately generous — every terminal pair is
    /// reported [`DcCoupling::Conductive`] — so that unknown custom
    /// elements can never cause false-positive "no DC path" errors;
    /// genuinely broken topologies are still caught by the structural
    /// rank check, which works from the recorded stamp pattern alone.
    /// Built-in elements override this with their true couplings.
    fn dc_couplings(&self) -> Vec<DcCoupling> {
        let nodes = self.nodes();
        let mut out = Vec::new();
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                out.push(DcCoupling::Conductive(nodes[i], nodes[j]));
            }
        }
        out
    }

    /// DC value of an independent source, `None` for everything else.
    /// Used by the linter's bias-path heuristics.
    fn dc_source_value(&self) -> Option<f64> {
        None
    }

    /// Quantitative DC model for the static analyzer ([`crate::analyze`]).
    ///
    /// The default [`DcTransfer::Opaque`] is always sound: the analyzer
    /// treats opaque elements as "could inject anything" and keeps the
    /// global envelope on their nodes. Built-in elements override this
    /// with their true transfer model so interval bounds stay tight.
    fn dc_transfer(&self) -> DcTransfer {
        DcTransfer::Opaque
    }

    /// Element-local sanity findings (degenerate connections, dead
    /// sources, implausible parameter magnitudes) as `(code, message)`
    /// pairs; the linter wraps them into full diagnostics. The default
    /// reports nothing.
    fn lint_self(&self) -> Vec<(crate::lint::LintCode, String)> {
        Vec::new()
    }

    /// SPICE-netlist card for this element, using `node_name` to render
    /// node references. The default lists the name and nodes as a
    /// comment; concrete elements override with real SPICE syntax so
    /// [`crate::circuit::Circuit::netlist`] round-trips into other
    /// simulators.
    fn card(&self, node_name: &dyn Fn(NodeId) -> String) -> String {
        let nodes: Vec<String> = self.nodes().iter().map(|&n| node_name(n)).collect();
        format!("* {} {}", self.name(), nodes.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamper_ground_writes_are_dropped() {
        let mut m = DenseMatrix::zeros(2, 2);
        let mut rhs = vec![0.0; 2];
        let mut s = Stamper::new(&mut m, &mut rhs, 2);
        s.conductance(Some(0), None, 2.0);
        s.current_source(None, Some(1), 1.5);
        assert_eq!(m[(0, 0)], 2.0);
        assert_eq!(m[(1, 1)], 0.0);
        assert_eq!(rhs, vec![0.0, 1.5]);
    }

    #[test]
    fn conductance_pattern_is_symmetric() {
        let mut m = DenseMatrix::zeros(2, 2);
        let mut rhs = vec![0.0; 2];
        let mut s = Stamper::new(&mut m, &mut rhs, 2);
        s.conductance(Some(0), Some(1), 3.0);
        assert_eq!(m[(0, 0)], 3.0);
        assert_eq!(m[(1, 1)], 3.0);
        assert_eq!(m[(0, 1)], -3.0);
        assert_eq!(m[(1, 0)], -3.0);
    }

    #[test]
    fn branch_indices_follow_nodes() {
        let mut m = DenseMatrix::zeros(5, 5);
        let mut rhs = vec![0.0; 5];
        let s = Stamper::new(&mut m, &mut rhs, 3);
        assert_eq!(s.branch(0), 3);
        assert_eq!(s.branch(1), 4);
    }

    #[test]
    fn ac_capacitance_is_imaginary() {
        let mut tape = AcTape::new(1);
        let mut s = AcStamper::new(&mut tape, 1);
        s.capacitance(Some(0), None, 1e-12);
        assert_eq!(tape.entries().len(), 1, "ground writes are dropped");
        let y = tape.entries()[0].at(2.0 * std::f64::consts::PI * 1e9);
        assert_eq!(y.re, 0.0);
        assert!(y.im > 0.0);
    }

    #[test]
    fn transconductance_pattern() {
        let mut tape = AcTape::new(4);
        let mut s = AcStamper::new(&mut tape, 4);
        s.transconductance(Some(0), Some(1), Some(2), Some(3), 0.01);
        let got: Vec<(usize, usize, f64, f64)> = tape
            .entries()
            .iter()
            .map(|e| (e.row, e.col, e.g, e.c))
            .collect();
        assert_eq!(
            got,
            vec![
                (0, 2, 0.01, 0.0),
                (0, 3, -0.01, 0.0),
                (1, 2, -0.01, 0.0),
                (1, 3, 0.01, 0.0)
            ]
        );
    }

    #[test]
    fn ac_tape_accumulates_rhs() {
        let mut tape = AcTape::new(2);
        let mut s = AcStamper::new(&mut tape, 2);
        s.rhs(Some(1), Complex64::ONE);
        s.rhs(None, Complex64::ONE);
        s.rhs(Some(1), Complex64::new(0.5, 0.0));
        assert!(tape.entries().is_empty());
        assert_eq!(tape.rhs(), &[Complex64::ZERO, Complex64::new(1.5, 0.0)]);
    }

    #[test]
    fn stamp_ctx_ground_voltage_is_zero() {
        let x = [1.5, 2.5];
        let ctx = StampCtx {
            x: &x,
            state: &[],
            branch_base: 0,
            n_nodes: 2,
            mode: StampMode::dc(),
        };
        assert_eq!(ctx.v(NodeId::GROUND), 0.0);
        assert_eq!(ctx.v(NodeId::from_raw(1)), 1.5);
    }
}
