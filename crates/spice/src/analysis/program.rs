//! The compiled nonlinear top-up pass of the transient Newton loop.
//!
//! With factorization reuse on, every transient Newton iteration copies
//! the cached linear stamps and adds the nonlinear elements'
//! linearizations on top. [`DeviceProgram`] is that pass, compiled once
//! per Newton workspace and sparsity pattern:
//!
//! * Every element that hands over a [`MosCard`] (the MOSFETs) becomes a
//!   row of a struct-of-arrays table: node indices, square-law scalars,
//!   terminal capacitances, state base, and the value slot of each of its
//!   up to 18 matrix writes, resolved once. A slot is a CSR slot from
//!   `CsrMatrix::find` on the sparse path and `r·dim + c` on the dense
//!   path; the six channel slots are kept for both drain/source
//!   orientations.
//! * The cap companions `(geq, ieq)` depend only on the step and the
//!   previous state, so [`DeviceProgram::begin_solve`] computes them once
//!   per solve rather than once per iteration.
//! * Every other nonlinear element stays an in-order step that calls
//!   [`Element::stamp`](crate::element::Element::stamp) through a
//!   [`Stamper`], with a stamp-pointer cache on the sparse path.
//!
//! [`DeviceProgram::run`] walks the steps in circuit order and adds every
//! value in the order `Mosfet::stamp` writes it, through the same
//! [`SquareLaw::channel`] and [`DeviceCap::companion`] equations. Every
//! slot therefore sees the same floating-point additions in the same
//! order as element-by-element stamping, and results are bit-identical
//! (Rust does not contract `a + b·c` into a fused multiply-add).

use super::{AttemptError, System};
use crate::circuit::NodeId;
use crate::devices::mosfet::{MosCard, SquareLaw, CHANNEL_WRITES};
use crate::devices::DeviceCap;
use crate::element::{StampMode, StampSlots, Stamper};
use cml_numeric::sparse::CsrMatrix;
use cml_numeric::DenseMatrix;

/// A ground terminal, or the slot of a dropped write (a ground row or
/// column, or a capacitance that is never stamped).
const NONE: usize = usize::MAX;

/// The matrix one program run adds into.
pub(super) enum Target<'m> {
    /// The dense Jacobian; slots are row-major flat indices.
    Dense(&'m mut DenseMatrix),
    /// The fixed-pattern CSR Jacobian; slots are value slots.
    Sparse(&'m mut CsrMatrix),
}

/// One entry of the pass, in circuit order.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A MOSFET table row.
    Mosfet(usize),
    /// A circuit element index, stamped through `Element::stamp`.
    Element(usize),
}

/// The compiled nonlinear top-up pass; see the module docs.
#[derive(Debug, Clone)]
pub(super) struct DeviceProgram {
    steps: Vec<Step>,
    mos: MosTable,
    /// Stamp-pointer cache of the `Step::Element` writes (sparse path).
    slots: StampSlots,
    /// Whether the current solve stamps the MOSFET capacitances
    /// (transient mode).
    caps_on: bool,
}

/// The MOSFETs of a circuit, one row per device in circuit order.
#[derive(Debug, Clone, Default)]
struct MosTable {
    /// Drain, gate and source unknowns (`NONE` for ground).
    dgs: Vec<[usize; 3]>,
    law: Vec<SquareLaw>,
    /// Gate-source, gate-drain and drain-body capacitance.
    caps: Vec<[f64; 3]>,
    /// First state slot of the device.
    state_base: Vec<usize>,
    /// Channel write slots in `CHANNEL_WRITES` order: as wired, and with
    /// drain and source swapped.
    chan_slots: Vec<[[usize; 6]; 2]>,
    /// Each capacitance's write slots in `Stamper::conductance` order:
    /// `(a, a)`, `(b, b)`, `(a, b)`, `(b, a)`.
    cap_slots: Vec<[[usize; 4]; 3]>,
    /// Each capacitance's RHS rows `[a, b]`.
    cap_rows: Vec<[[usize; 2]; 3]>,
    /// Each capacitance's `(geq, ieq)` for the current solve.
    companions: Vec<[(f64, f64); 3]>,
}

/// Adds `v` at `slot` unless the write is dropped.
#[inline]
fn add(vals: &mut [f64], slot: usize, v: f64) {
    if slot != NONE {
        vals[slot] += v;
    }
}

fn unknown(n: NodeId) -> usize {
    n.index().unwrap_or(NONE)
}

impl DeviceProgram {
    /// Compiles the nonlinear elements of `sys`, resolving every MOSFET
    /// matrix position `(r, c)` through `slot`. Returns `None` when
    /// `slot` does not know a position (it lies outside the pattern).
    pub(super) fn build(
        sys: &System<'_>,
        slot: impl Fn(usize, usize) -> Option<usize>,
    ) -> Option<Self> {
        let mut steps = Vec::new();
        let mut mos = MosTable::default();
        for (idx, e) in sys.circuit().elements().enumerate() {
            if !e.is_nonlinear() {
                continue;
            }
            steps.push(match e.mos_card() {
                Some(card) => Step::Mosfet(mos.push(&card, sys.state_bases[idx], &slot)?),
                None => Step::Element(idx),
            });
        }
        Some(DeviceProgram {
            steps,
            mos,
            slots: StampSlots::default(),
            caps_on: false,
        })
    }

    /// Readies the program for one Newton solve in `mode` over the
    /// previous-step `state`: computes the cap companions.
    pub(super) fn begin_solve(&mut self, state: &[f64], mode: StampMode) {
        let StampMode::Tran { dt, method, .. } = mode else {
            self.caps_on = false;
            return;
        };
        self.caps_on = true;
        let m = &mut self.mos;
        for ((out, caps), &sb) in m.companions.iter_mut().zip(&m.caps).zip(&m.state_base) {
            for (k, (o, &c)) in out.iter_mut().zip(caps).enumerate() {
                let s = sb + 2 * k;
                *o = DeviceCap::companion(c, dt, method, state[s], state[s + 1]);
            }
        }
    }

    /// Adds every nonlinear linearization at guess `x` into `target` and
    /// `rhs`, on top of the linear stamps already there. A sparse-path
    /// write outside the pattern by a non-MOSFET element returns
    /// [`AttemptError::PatternMiss`].
    pub(super) fn run(
        &mut self,
        sys: &System<'_>,
        x: &[f64],
        state: &[f64],
        mode: StampMode,
        mut target: Target<'_>,
        rhs: &mut [f64],
    ) -> Result<(), AttemptError> {
        self.slots.begin_pass();
        for &step in &self.steps {
            match step {
                Step::Mosfet(i) => {
                    let vals = match &mut target {
                        Target::Dense(m) => m.as_mut_slice(),
                        Target::Sparse(m) => m.vals_mut(),
                    };
                    self.mos.stamp(i, self.caps_on, x, vals, rhs);
                }
                Step::Element(idx) => {
                    let e = sys.circuit().element(idx);
                    let ctx = sys.ctx(idx, e, x, state, mode);
                    let mut out = match &mut target {
                        Target::Dense(m) => Stamper::new(m, rhs, sys.n_nodes),
                        Target::Sparse(m) => Stamper::sparse(m, &mut self.slots, rhs, sys.n_nodes),
                    };
                    e.stamp(&ctx, &mut out);
                }
            }
        }
        if self.slots.missing() {
            return Err(AttemptError::PatternMiss);
        }
        Ok(())
    }
}

impl MosTable {
    /// Appends one device, resolving its write slots; returns its row.
    fn push(
        &mut self,
        card: &MosCard,
        state_base: usize,
        slot: &impl Fn(usize, usize) -> Option<usize>,
    ) -> Option<usize> {
        let at = |r: usize, c: usize| {
            if r == NONE || c == NONE {
                Some(NONE)
            } else {
                slot(r, c)
            }
        };
        let [d, g, s] = card.dgs.map(unknown);
        let mut chan = [[NONE; 6]; 2];
        for (slots, t) in chan.iter_mut().zip([[d, g, s], [s, g, d]]) {
            for (sl, &(r, c)) in slots.iter_mut().zip(&CHANNEL_WRITES) {
                *sl = at(t[r], t[c])?;
            }
        }
        let mut caps = [0.0; 3];
        let mut cap_slots = [[NONE; 4]; 3];
        let mut cap_rows = [[NONE; 2]; 3];
        for (k, &(c, a, b)) in card.caps.iter().enumerate() {
            caps[k] = c;
            if DeviceCap::is_open(c) {
                continue;
            }
            let (a, b) = (unknown(a), unknown(b));
            cap_slots[k] = [at(a, a)?, at(b, b)?, at(a, b)?, at(b, a)?];
            cap_rows[k] = [a, b];
        }
        self.dgs.push([d, g, s]);
        self.law.push(card.law);
        self.caps.push(caps);
        self.state_base.push(state_base);
        self.chan_slots.push(chan);
        self.cap_slots.push(cap_slots);
        self.cap_rows.push(cap_rows);
        self.companions.push([(0.0, 0.0); 3]);
        Some(self.dgs.len() - 1)
    }

    /// Stamps row `i` at guess `x`, in `Mosfet::stamp`'s write order.
    fn stamp(&self, i: usize, caps_on: bool, x: &[f64], vals: &mut [f64], rhs: &mut [f64]) {
        let v = |n: usize| if n == NONE { 0.0 } else { x[n] };
        let [d, g, s] = self.dgs[i];
        let ch = self.law[i].channel(v(d), v(g), v(s));
        let slots = &self.chan_slots[i][usize::from(ch.swapped)];
        for (&sl, &val) in slots.iter().zip(&ch.vals) {
            add(vals, sl, val);
        }
        let (nd, ns) = if ch.swapped { (s, d) } else { (d, s) };
        add(rhs, nd, -ch.ieq);
        add(rhs, ns, ch.ieq);
        if !caps_on {
            return;
        }
        for k in 0..3 {
            let (geq, ieq) = self.companions[i][k];
            let [aa, bb, ab, ba] = self.cap_slots[i][k];
            add(vals, aa, geq);
            add(vals, bb, geq);
            add(vals, ab, -geq);
            add(vals, ba, -geq);
            let [a, b] = self.cap_rows[i][k];
            add(rhs, b, -ieq);
            add(rhs, a, ieq);
        }
    }
}
