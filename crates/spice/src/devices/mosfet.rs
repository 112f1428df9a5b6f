//! Level-1 MOSFET with channel-length modulation and fixed terminal
//! capacitances.
//!
//! The model implements the square-law equations every 0.18 µm hand design
//! starts from. Second-order effects that matter to the paper's circuits —
//! output conductance (λ), gate capacitance loading, drain/source junction
//! capacitance — are included; velocity saturation and body effect are
//! approximated by parameter choice (see `cml-pdk` for calibration notes).
//! Terminal capacitances use the operating-region-independent Meyer
//! averages (`2/3·W·L·Cox` gate-source in saturation plus overlaps), kept
//! constant across the simulation for robustness.

use super::DeviceCap;
use crate::circuit::NodeId;
use crate::element::{
    AcStamper, DcCoupling, DcTransfer, Element, ElementKind, StampCtx, StampMode, Stamper,
};
use crate::lint::LintCode;
use std::fmt;

/// Channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosType {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

impl MosType {
    /// +1 for NMOS, −1 for PMOS.
    #[must_use]
    pub fn polarity(self) -> f64 {
        match self {
            MosType::Nmos => 1.0,
            MosType::Pmos => -1.0,
        }
    }
}

impl fmt::Display for MosType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MosType::Nmos => write!(f, "nmos"),
            MosType::Pmos => write!(f, "pmos"),
        }
    }
}

/// Level-1 model card plus geometry.
///
/// All voltages are magnitudes in the device's own polarity: `vth0` is
/// positive for both NMOS and PMOS.
#[derive(Debug, Clone, PartialEq)]
pub struct MosParams {
    /// Channel polarity.
    pub mos_type: MosType,
    /// Drawn channel width, meters.
    pub w: f64,
    /// Drawn channel length, meters.
    pub l: f64,
    /// Zero-bias threshold voltage magnitude, volts.
    pub vth0: f64,
    /// Transconductance parameter `µ·Cox`, A/V².
    pub kp: f64,
    /// Channel-length modulation, 1/V.
    pub lambda: f64,
    /// Gate-oxide capacitance per area, F/m².
    pub cox: f64,
    /// Gate-source/drain overlap capacitance per width, F/m.
    pub cov: f64,
    /// Junction capacitance per area, F/m² (drain/source to body).
    pub cj: f64,
    /// Source/drain diffusion length used for junction area, meters.
    pub ldiff: f64,
}

impl MosParams {
    /// Validates the parameter set, returning a message on violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.w > 0.0 && self.w.is_finite()) {
            return Err(format!("width must be positive, got {}", self.w));
        }
        if !(self.l > 0.0 && self.l.is_finite()) {
            return Err(format!("length must be positive, got {}", self.l));
        }
        if !(self.kp > 0.0 && self.kp.is_finite()) {
            return Err(format!("kp must be positive, got {}", self.kp));
        }
        if !(self.vth0.is_finite() && self.vth0 >= 0.0) {
            return Err(format!(
                "vth0 must be a non-negative magnitude, got {}",
                self.vth0
            ));
        }
        if !(self.lambda >= 0.0 && self.lambda.is_finite()) {
            return Err(format!("lambda must be non-negative, got {}", self.lambda));
        }
        Ok(())
    }

    /// Device beta `kp·W/L`, A/V².
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.kp * self.w / self.l
    }

    /// Gate-source capacitance (Meyer saturation average + overlap).
    #[must_use]
    pub fn cgs(&self) -> f64 {
        2.0 / 3.0 * self.w * self.l * self.cox + self.cov * self.w
    }

    /// Gate-drain capacitance (overlap only, saturation assumption).
    #[must_use]
    pub fn cgd(&self) -> f64 {
        self.cov * self.w
    }

    /// Drain (or source) junction capacitance to body.
    #[must_use]
    pub fn cjunc(&self) -> f64 {
        self.cj * self.w * self.ldiff
    }
}

/// Large-signal evaluation in the normalized (NMOS, `vds ≥ 0`) frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosEval {
    /// Drain current, amps (≥ 0 in the normalized frame).
    pub ids: f64,
    /// `∂ids/∂vgs`, siemens.
    pub gm: f64,
    /// `∂ids/∂vds`, siemens.
    pub gds: f64,
    /// Operating region.
    pub region: MosRegion,
}

/// Operating region of the square-law model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosRegion {
    /// `vgs < vth`.
    Cutoff,
    /// `0 ≤ vds < vgs − vth`.
    Triode,
    /// `vds ≥ vgs − vth`.
    Saturation,
}

/// Square-law current and derivatives in the normalized frame.
///
/// `vgs`, `vds` must already be polarity-corrected with `vds ≥ 0`.
#[must_use]
pub fn square_law(params: &MosParams, vgs: f64, vds: f64) -> MosEval {
    SquareLaw::of(params).eval(vgs, vds)
}

/// The scalars of a model card that the square law reads, precomputed
/// once (`beta` included). Both [`Mosfet::stamp`] and the compiled
/// transient load evaluate the channel through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SquareLaw {
    /// +1 for NMOS, −1 for PMOS.
    polarity: f64,
    /// `kp·W/L`, A/V².
    beta: f64,
    /// Threshold voltage magnitude, volts.
    vth0: f64,
    /// Channel-length modulation, 1/V.
    lambda: f64,
}

/// Effective-frame terminals of the six channel Jacobian writes, in
/// stamp order: `0` = drain, `1` = gate, `2` = source.
pub(crate) const CHANNEL_WRITES: [(usize, usize); 6] =
    [(0, 1), (0, 0), (0, 2), (2, 1), (2, 0), (2, 2)];

/// Newton linearization of the channel at one guess, in the effective
/// frame (drain and source exchanged when `swapped`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Channel {
    /// Whether the effective drain is the physical source.
    pub(crate) swapped: bool,
    /// Jacobian values in [`CHANNEL_WRITES`] order.
    pub(crate) vals: [f64; 6],
    /// Norton current from effective drain to effective source.
    pub(crate) ieq: f64,
}

impl SquareLaw {
    pub(crate) fn of(params: &MosParams) -> Self {
        SquareLaw {
            polarity: params.mos_type.polarity(),
            beta: params.beta(),
            vth0: params.vth0,
            lambda: params.lambda,
        }
    }

    /// Square-law current and derivatives in the normalized frame.
    fn eval(&self, vgs: f64, vds: f64) -> MosEval {
        debug_assert!(vds >= 0.0, "square_law requires normalized vds");
        let beta = self.beta;
        let vov = vgs - self.vth0;
        if vov <= 0.0 {
            return MosEval {
                ids: 0.0,
                gm: 0.0,
                gds: 0.0,
                region: MosRegion::Cutoff,
            };
        }
        let clm = 1.0 + self.lambda * vds;
        if vds < vov {
            // Triode.
            let core = vov * vds - 0.5 * vds * vds;
            MosEval {
                ids: beta * core * clm,
                gm: beta * vds * clm,
                gds: beta * ((vov - vds) * clm + core * self.lambda),
                region: MosRegion::Triode,
            }
        } else {
            // Saturation.
            let core = 0.5 * vov * vov;
            MosEval {
                ids: beta * core * clm,
                gm: beta * vov * clm,
                gds: beta * core * self.lambda,
                region: MosRegion::Saturation,
            }
        }
    }

    /// Large-signal evaluation at the given terminal voltages (actual,
    /// un-normalized). Returns the evaluation in the normalized frame
    /// plus whether drain/source were swapped.
    fn eval_at(&self, vd: f64, vg: f64, vs: f64) -> (MosEval, bool) {
        let p = self.polarity;
        let vds_raw = p * (vd - vs);
        if vds_raw >= 0.0 {
            (self.eval(p * (vg - vs), vds_raw), false)
        } else {
            // Effective drain and source swap.
            (self.eval(p * (vg - vd), -vds_raw), true)
        }
    }

    /// The channel's Newton linearization at terminal voltages
    /// `vd`, `vg`, `vs`.
    #[inline]
    pub(crate) fn channel(&self, vd: f64, vg: f64, vs: f64) -> Channel {
        let (ev, swapped) = self.eval_at(vd, vg, vs);
        let (vde, vse) = if swapped { (vs, vd) } else { (vd, vs) };
        // Current from effective drain to effective source:
        // I = p · ids(vgs_eff, vds_eff), with vgs_eff = p(vg − vse),
        // vds_eff = p(vde − vse). Chain rule gives real-frame stamps:
        let (gm, gds) = (ev.gm, ev.gds);
        let i_actual = self.polarity * ev.ids;
        Channel {
            swapped,
            vals: [gm, gds, -(gm + gds), -gm, -gds, gm + gds],
            ieq: i_actual - gm * vg - gds * vde + (gm + gds) * vse,
        }
    }
}

/// What the compiled transient load needs of one MOSFET instance:
/// terminal nodes, precomputed square-law scalars and the three fixed
/// terminal capacitances. Handed over by [`Element::mos_card`].
#[derive(Debug, Clone)]
pub struct MosCard {
    /// Drain, gate, source.
    pub(crate) dgs: [NodeId; 3],
    pub(crate) law: SquareLaw,
    /// The capacitances in stamp order, each with its two terminals.
    pub(crate) caps: [(f64, NodeId, NodeId); N_CAPS],
}

/// A four-terminal MOSFET instance (body terminal accepted for netlist
/// fidelity; the Level-1 equations here use `gamma = 0`, so it only loads
/// the circuit through junction capacitance).
#[derive(Debug, Clone)]
pub struct Mosfet {
    name: String,
    d: NodeId,
    g: NodeId,
    s: NodeId,
    b: NodeId,
    params: MosParams,
}

impl Mosfet {
    /// Creates a MOSFET. Terminal order: drain, gate, source, body.
    ///
    /// # Panics
    ///
    /// Panics if the parameter card is invalid (non-positive W/L/KP, …).
    #[must_use]
    pub fn new(name: &str, d: NodeId, g: NodeId, s: NodeId, b: NodeId, params: MosParams) -> Self {
        if let Err(msg) = params.validate() {
            panic!("mosfet {name}: {msg}");
        }
        Mosfet {
            name: name.to_string(),
            d,
            g,
            s,
            b,
            params,
        }
    }

    /// The model card.
    #[must_use]
    pub fn params(&self) -> &MosParams {
        &self.params
    }

    fn law(&self) -> SquareLaw {
        SquareLaw::of(&self.params)
    }

    /// The terminal capacitances in stamp order — gate-source, gate-drain,
    /// drain-body — each with its two terminals; capacitance `k` owns
    /// state slots `2k..2k + 2`.
    fn caps(&self) -> [(f64, NodeId, NodeId); N_CAPS] {
        [
            (self.params.cgs(), self.g, self.s),
            (self.params.cgd(), self.g, self.d),
            (self.params.cjunc(), self.d, self.b),
        ]
    }

    /// Small-signal parameters at an operating point (gm, gds referred to
    /// the *actual* drain/source orientation).
    #[must_use]
    pub fn small_signal(&self, x_op: &[f64]) -> MosEval {
        let vd = self.d.index().map_or(0.0, |i| x_op[i]);
        let vg = self.g.index().map_or(0.0, |i| x_op[i]);
        let vs = self.s.index().map_or(0.0, |i| x_op[i]);
        self.law().eval_at(vd, vg, vs).0
    }

    /// Drain current at an operating point, in the device's own polarity
    /// (positive = conventional current into the drain for NMOS, out of
    /// the drain for PMOS).
    #[must_use]
    pub fn drain_current(&self, x_op: &[f64]) -> f64 {
        let vd = self.d.index().map_or(0.0, |i| x_op[i]);
        let vg = self.g.index().map_or(0.0, |i| x_op[i]);
        let vs = self.s.index().map_or(0.0, |i| x_op[i]);
        let (ev, swapped) = self.law().eval_at(vd, vg, vs);
        let p = self.params.mos_type.polarity();
        if swapped {
            -p * ev.ids
        } else {
            p * ev.ids
        }
    }
}

/// State slots: 3 internal caps × 2 (cgs, cgd, cdb). Source junction cap is
/// merged into cgs loading for simplicity (source is the low-impedance
/// terminal in every topology used here).
const N_CAPS: usize = 3;

impl Element for Mosfet {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.d, self.g, self.s, self.b]
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn state_size(&self) -> usize {
        2 * N_CAPS
    }

    fn init_state(&self, ctx: &StampCtx<'_>, state: &mut [f64]) {
        for (k, (_, a, b)) in self.caps().into_iter().enumerate() {
            DeviceCap::init(ctx.v(a), ctx.v(b), &mut state[2 * k..2 * k + 2]);
        }
    }

    fn stamp(&self, ctx: &StampCtx<'_>, out: &mut Stamper<'_>) {
        let ch = self
            .law()
            .channel(ctx.v(self.d), ctx.v(self.g), ctx.v(self.s));
        let (d, g, s) = (self.d.index(), self.g.index(), self.s.index());
        let t = if ch.swapped { [s, g, d] } else { [d, g, s] };
        for (&(r, c), &v) in CHANNEL_WRITES.iter().zip(&ch.vals) {
            out.mat(t[r], t[c], v);
        }
        out.current_source(t[0], t[2], ch.ieq);

        // Internal capacitances (transient only; no-ops in DC).
        if matches!(ctx.mode, StampMode::Tran { .. }) {
            for (k, (c, a, b)) in self.caps().into_iter().enumerate() {
                DeviceCap::stamp(
                    ctx,
                    out,
                    c,
                    a.index(),
                    b.index(),
                    &ctx.state[2 * k..2 * k + 2],
                );
            }
        }
    }

    fn mos_card(&self) -> Option<MosCard> {
        Some(MosCard {
            dgs: [self.d, self.g, self.s],
            law: self.law(),
            caps: self.caps(),
        })
    }

    fn update_state(&self, ctx: &StampCtx<'_>, state_next: &mut [f64]) {
        for (k, (c, a, b)) in self.caps().into_iter().enumerate() {
            let slots = 2 * k..2 * k + 2;
            DeviceCap::update(
                ctx,
                c,
                ctx.v(a),
                ctx.v(b),
                &ctx.state[slots.clone()],
                &mut state_next[slots],
            );
        }
    }

    fn stamp_ac(&self, x_op: &[f64], _bb: usize, out: &mut AcStamper<'_>) {
        let vd = self.d.index().map_or(0.0, |i| x_op[i]);
        let vg = self.g.index().map_or(0.0, |i| x_op[i]);
        let vs = self.s.index().map_or(0.0, |i| x_op[i]);
        let (ev, swapped) = self.law().eval_at(vd, vg, vs);
        let (nd, ns) = if swapped {
            (self.s.index(), self.d.index())
        } else {
            (self.d.index(), self.s.index())
        };
        let ng = self.g.index();
        // gm current from effective drain to effective source controlled
        // by (g, s_eff); gds between d_eff and s_eff.
        out.transconductance(nd, ns, ng, ns, ev.gm);
        out.conductance(nd, ns, ev.gds);
        // Capacitances at the physical terminals.
        for (c, a, b) in self.caps() {
            out.capacitance(a.index(), b.index(), c);
        }
    }

    fn dc_power(&self, x_op: &[f64], _bb: usize) -> Option<f64> {
        let vd = self.d.index().map_or(0.0, |i| x_op[i]);
        let vs = self.s.index().map_or(0.0, |i| x_op[i]);
        Some((vd - vs) * self.drain_current(x_op))
    }

    fn kind(&self) -> ElementKind {
        ElementKind::Mosfet
    }

    fn dc_couplings(&self) -> Vec<DcCoupling> {
        // Only the channel conducts at DC: the gate is an open circuit
        // and the bulk junctions are modelled as capacitances only.
        vec![DcCoupling::Conductive(self.d, self.s)]
    }

    fn dc_transfer(&self) -> DcTransfer {
        DcTransfer::MosChannel {
            d: self.d,
            g: self.g,
            s: self.s,
            params: self.params.clone(),
        }
    }

    fn lint_self(&self) -> Vec<(LintCode, String)> {
        if self.d == self.s {
            vec![(
                LintCode::MosfetDegenerate,
                format!(
                    "mosfet '{}' has drain and source on the same node",
                    self.name
                ),
            )]
        } else {
            Vec::new()
        }
    }

    fn card(&self, node_name: &dyn Fn(NodeId) -> String) -> String {
        format!(
            "M{} {} {} {} {} {} W={:.3e} L={:.3e}",
            self.name,
            node_name(self.d),
            node_name(self.g),
            node_name(self.s),
            node_name(self.b),
            self.params.mos_type,
            self.params.w,
            self.params.l
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nmos_params() -> MosParams {
        MosParams {
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
        }
    }

    #[test]
    fn cutoff_below_threshold() {
        let ev = square_law(&nmos_params(), 0.3, 1.0);
        assert_eq!(ev.region, MosRegion::Cutoff);
        assert_eq!(ev.ids, 0.0);
        assert_eq!(ev.gm, 0.0);
    }

    #[test]
    fn saturation_current_matches_formula() {
        let p = nmos_params();
        let (vgs, vds) = (0.9, 1.5);
        let ev = square_law(&p, vgs, vds);
        assert_eq!(ev.region, MosRegion::Saturation);
        let vov = vgs - p.vth0;
        let want = 0.5 * p.beta() * vov * vov * (1.0 + p.lambda * vds);
        assert!((ev.ids - want).abs() / want < 1e-12);
    }

    #[test]
    fn triode_current_matches_formula() {
        let p = nmos_params();
        let (vgs, vds) = (1.2, 0.2);
        let ev = square_law(&p, vgs, vds);
        assert_eq!(ev.region, MosRegion::Triode);
        let vov = vgs - p.vth0;
        let want = p.beta() * (vov * vds - 0.5 * vds * vds) * (1.0 + p.lambda * vds);
        assert!((ev.ids - want).abs() / want < 1e-12);
    }

    #[test]
    fn current_is_continuous_at_sat_boundary() {
        let p = nmos_params();
        let vgs = 1.0;
        let vdsat = vgs - p.vth0;
        let below = square_law(&p, vgs, vdsat - 1e-9);
        let above = square_law(&p, vgs, vdsat + 1e-9);
        assert!((below.ids - above.ids).abs() < 1e-9 * p.beta());
        assert!((below.gm - above.gm).abs() < 1e-6);
    }

    #[test]
    fn gm_matches_numeric_derivative() {
        let p = nmos_params();
        let (vgs, vds) = (1.0, 1.2);
        let h = 1e-7;
        let num = (square_law(&p, vgs + h, vds).ids - square_law(&p, vgs - h, vds).ids) / (2.0 * h);
        let ana = square_law(&p, vgs, vds).gm;
        assert!((num - ana).abs() / ana < 1e-5);
    }

    #[test]
    fn gds_matches_numeric_derivative_in_triode() {
        let p = nmos_params();
        let (vgs, vds) = (1.4, 0.3);
        let h = 1e-7;
        let num = (square_law(&p, vgs, vds + h).ids - square_law(&p, vgs, vds - h).ids) / (2.0 * h);
        let ana = square_law(&p, vgs, vds).gds;
        assert!((num - ana).abs() / ana.abs() < 1e-5);
    }

    #[test]
    fn capacitances_scale_with_geometry() {
        let p = nmos_params();
        let mut wide = p.clone();
        wide.w *= 2.0;
        assert!(wide.cgs() > p.cgs());
        assert!((wide.cgd() - 2.0 * p.cgd()).abs() < 1e-20);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn invalid_width_panics() {
        let mut p = nmos_params();
        p.w = 0.0;
        let _ = Mosfet::new(
            "M1",
            NodeId::from_raw(1),
            NodeId::from_raw(2),
            NodeId::GROUND,
            NodeId::GROUND,
            p,
        );
    }

    #[test]
    fn pmos_polarity() {
        assert_eq!(MosType::Pmos.polarity(), -1.0);
        assert_eq!(MosType::Nmos.polarity(), 1.0);
    }

    #[test]
    fn drain_current_sign_for_pmos() {
        let mut p = nmos_params();
        p.mos_type = MosType::Pmos;
        // PMOS: s at 1.8, g at 0.9, d at 0.0 → conducting, current flows
        // source→drain; drain_current (into drain, NMOS convention flipped)
        // is negative of the normalized ids.
        let m = Mosfet::new(
            "MP",
            NodeId::from_raw(1), // d
            NodeId::from_raw(2), // g
            NodeId::from_raw(3), // s
            NodeId::from_raw(3), // b
            p,
        );
        let x = [0.0, 0.9, 1.8];
        let i = m.drain_current(&x);
        assert!(i < 0.0, "pmos drain current should be negative, got {i}");
    }

    #[test]
    fn eval_swaps_when_vds_negative() {
        let m = Mosfet::new(
            "M1",
            NodeId::from_raw(1),
            NodeId::from_raw(2),
            NodeId::from_raw(3),
            NodeId::GROUND,
            nmos_params(),
        );
        // vd < vs: effective terminals swap, current reverses.
        let x = [0.0, 1.5, 1.0];
        let i = m.drain_current(&x);
        assert!(i < 0.0);
    }
}
