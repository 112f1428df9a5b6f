//! Resistors, capacitors and inductors.

use crate::circuit::NodeId;
use crate::element::{
    AcStamper, DcCoupling, DcTransfer, Element, ElementKind, Integration, StampCtx, StampMode,
    Stamper,
};
use crate::lint::LintCode;

/// A linear resistor between two nodes.
#[derive(Debug, Clone)]
pub struct Resistor {
    name: String,
    a: NodeId,
    b: NodeId,
    ohms: f64,
}

impl Resistor {
    /// Creates a resistor of `ohms` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive and finite — zero-ohm
    /// "resistors" should be voltage sources or node merges instead.
    #[must_use]
    pub fn new(name: &str, a: NodeId, b: NodeId, ohms: f64) -> Self {
        assert!(
            ohms > 0.0 && ohms.is_finite(),
            "resistor {name}: resistance must be positive and finite, got {ohms}"
        );
        Resistor {
            name: name.to_string(),
            a,
            b,
            ohms,
        }
    }

    /// Resistance in ohms.
    #[must_use]
    pub fn ohms(&self) -> f64 {
        self.ohms
    }
}

impl Element for Resistor {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.a, self.b]
    }

    fn stamp(&self, _ctx: &StampCtx<'_>, out: &mut Stamper<'_>) {
        out.conductance(self.a.index(), self.b.index(), 1.0 / self.ohms);
    }

    fn stamp_ac(&self, _x_op: &[f64], _bb: usize, out: &mut AcStamper<'_>) {
        out.conductance(self.a.index(), self.b.index(), 1.0 / self.ohms);
    }

    fn dc_power(&self, x_op: &[f64], _bb: usize) -> Option<f64> {
        let va = self.a.index().map_or(0.0, |i| x_op[i]);
        let vb = self.b.index().map_or(0.0, |i| x_op[i]);
        Some((va - vb) * (va - vb) / self.ohms)
    }

    fn kind(&self) -> ElementKind {
        ElementKind::Resistor
    }

    fn dc_couplings(&self) -> Vec<DcCoupling> {
        vec![DcCoupling::Conductive(self.a, self.b)]
    }

    fn dc_transfer(&self) -> DcTransfer {
        DcTransfer::Conductance {
            a: self.a,
            b: self.b,
            g: 1.0 / self.ohms,
        }
    }

    fn lint_self(&self) -> Vec<(LintCode, String)> {
        let mut out = Vec::new();
        if self.a == self.b {
            out.push((
                LintCode::SelfLoop,
                format!(
                    "resistor '{}' has both terminals on the same node",
                    self.name
                ),
            ));
        }
        if let Some(msg) = crate::lint::extreme_value("resistance", self.ohms, self.kind()) {
            out.push((LintCode::ExtremeParameter, msg));
        }
        out
    }

    fn card(&self, node_name: &dyn Fn(NodeId) -> String) -> String {
        format!(
            "R{} {} {} {:.6e}",
            self.name,
            node_name(self.a),
            node_name(self.b),
            self.ohms
        )
    }
}

/// A linear capacitor between two nodes.
///
/// Open in DC; in transient analysis it stamps the Norton companion of the
/// chosen integration rule. State layout: `[v_prev, i_prev]`.
#[derive(Debug, Clone)]
pub struct Capacitor {
    name: String,
    a: NodeId,
    b: NodeId,
    farads: f64,
}

impl Capacitor {
    /// Creates a capacitor of `farads` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not strictly positive and finite.
    #[must_use]
    pub fn new(name: &str, a: NodeId, b: NodeId, farads: f64) -> Self {
        assert!(
            farads > 0.0 && farads.is_finite(),
            "capacitor {name}: capacitance must be positive and finite, got {farads}"
        );
        Capacitor {
            name: name.to_string(),
            a,
            b,
            farads,
        }
    }

    /// Capacitance in farads.
    #[must_use]
    pub fn farads(&self) -> f64 {
        self.farads
    }

    /// Companion conductance and source for one step.
    fn companion(&self, dt: f64, method: Integration, v_prev: f64, i_prev: f64) -> (f64, f64) {
        match method {
            Integration::Trapezoidal => {
                let geq = 2.0 * self.farads / dt;
                (geq, geq * v_prev + i_prev)
            }
            Integration::BackwardEuler => {
                let geq = self.farads / dt;
                (geq, geq * v_prev)
            }
        }
    }
}

impl Element for Capacitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.a, self.b]
    }

    fn state_size(&self) -> usize {
        2 // [v_prev, i_prev]
    }

    fn init_state(&self, ctx: &StampCtx<'_>, state: &mut [f64]) {
        state[0] = ctx.v(self.a) - ctx.v(self.b);
        state[1] = 0.0; // steady state: no capacitor current
    }

    fn stamp(&self, ctx: &StampCtx<'_>, out: &mut Stamper<'_>) {
        if let StampMode::Tran { dt, method, .. } = ctx.mode {
            let (geq, ieq) = self.companion(dt, method, ctx.state[0], ctx.state[1]);
            let (a, b) = (self.a.index(), self.b.index());
            out.conductance(a, b, geq);
            // ieq is the Norton source driving current from b to a.
            out.current_source(b, a, ieq);
        }
        // DC: open circuit, nothing to stamp.
    }

    fn update_state(&self, ctx: &StampCtx<'_>, state_next: &mut [f64]) {
        if let StampMode::Tran { dt, method, .. } = ctx.mode {
            let (geq, ieq) = self.companion(dt, method, ctx.state[0], ctx.state[1]);
            let v_new = ctx.v(self.a) - ctx.v(self.b);
            state_next[0] = v_new;
            state_next[1] = geq * v_new - ieq;
        }
    }

    fn stamp_ac(&self, _x_op: &[f64], _bb: usize, out: &mut AcStamper<'_>) {
        out.capacitance(self.a.index(), self.b.index(), self.farads);
    }

    fn kind(&self) -> ElementKind {
        ElementKind::Capacitor
    }

    fn dc_couplings(&self) -> Vec<DcCoupling> {
        Vec::new() // open at DC
    }

    fn dc_transfer(&self) -> DcTransfer {
        DcTransfer::Open
    }

    fn lint_self(&self) -> Vec<(LintCode, String)> {
        let mut out = Vec::new();
        if self.a == self.b {
            out.push((
                LintCode::SelfLoop,
                format!(
                    "capacitor '{}' has both terminals on the same node",
                    self.name
                ),
            ));
        }
        if let Some(msg) = crate::lint::extreme_value("capacitance", self.farads, self.kind()) {
            out.push((LintCode::ExtremeParameter, msg));
        }
        out
    }

    fn card(&self, node_name: &dyn Fn(NodeId) -> String) -> String {
        format!(
            "C{} {} {} {:.6e}",
            self.name,
            node_name(self.a),
            node_name(self.b),
            self.farads
        )
    }
}

/// A linear inductor between two nodes.
///
/// Adds one branch-current unknown. Short in DC. State layout:
/// `[v_prev, i_prev]`.
#[derive(Debug, Clone)]
pub struct Inductor {
    name: String,
    a: NodeId,
    b: NodeId,
    henries: f64,
}

impl Inductor {
    /// Creates an inductor of `henries` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `henries` is not strictly positive and finite.
    #[must_use]
    pub fn new(name: &str, a: NodeId, b: NodeId, henries: f64) -> Self {
        assert!(
            henries > 0.0 && henries.is_finite(),
            "inductor {name}: inductance must be positive and finite, got {henries}"
        );
        Inductor {
            name: name.to_string(),
            a,
            b,
            henries,
        }
    }

    /// Inductance in henries.
    #[must_use]
    pub fn henries(&self) -> f64 {
        self.henries
    }
}

impl Element for Inductor {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.a, self.b]
    }

    fn num_branches(&self) -> usize {
        1
    }

    fn state_size(&self) -> usize {
        2 // [v_prev, i_prev]
    }

    fn init_state(&self, ctx: &StampCtx<'_>, state: &mut [f64]) {
        state[0] = 0.0; // DC: zero volts across
        state[1] = ctx.x[ctx.branch_base_abs()];
    }

    fn stamp(&self, ctx: &StampCtx<'_>, out: &mut Stamper<'_>) {
        let (a, b) = (self.a.index(), self.b.index());
        let br = out.branch(ctx.branch_base);
        // KCL: branch current leaves a, enters b.
        out.mat(a, Some(br), 1.0);
        out.mat(b, Some(br), -1.0);
        match ctx.mode {
            StampMode::Dc { .. } => {
                // v_a - v_b = 0 (ideal short).
                out.mat(Some(br), a, 1.0);
                out.mat(Some(br), b, -1.0);
            }
            StampMode::Tran { dt, method, .. } => {
                let (v_prev, i_prev) = (ctx.state[0], ctx.state[1]);
                // Trap: i = i_prev + dt/(2L)(v + v_prev); BE: i = i_prev + dt/L·v.
                let (k, rhs) = match method {
                    Integration::Trapezoidal => {
                        let k = dt / (2.0 * self.henries);
                        (k, i_prev + k * v_prev)
                    }
                    Integration::BackwardEuler => (dt / self.henries, i_prev),
                };
                out.mat(Some(br), Some(br), 1.0);
                out.mat(Some(br), a, -k);
                out.mat(Some(br), b, k);
                out.rhs(Some(br), rhs);
            }
        }
    }

    fn update_state(&self, ctx: &StampCtx<'_>, state_next: &mut [f64]) {
        state_next[0] = ctx.v(self.a) - ctx.v(self.b);
        state_next[1] = ctx.x[ctx.branch_base_abs()];
    }

    fn stamp_ac(&self, _x_op: &[f64], bb: usize, out: &mut AcStamper<'_>) {
        let (a, b) = (self.a.index(), self.b.index());
        let br = out.branch(bb);
        out.mat(a, Some(br), 1.0, 0.0);
        out.mat(b, Some(br), -1.0, 0.0);
        out.mat(Some(br), a, 1.0, 0.0);
        out.mat(Some(br), b, -1.0, 0.0);
        out.mat(Some(br), Some(br), 0.0, -self.henries);
    }

    fn kind(&self) -> ElementKind {
        ElementKind::Inductor
    }

    fn dc_couplings(&self) -> Vec<DcCoupling> {
        vec![DcCoupling::VoltageDefined(self.a, self.b)] // DC short
    }

    fn dc_transfer(&self) -> DcTransfer {
        DcTransfer::VoltageDefined {
            a: self.a,
            b: self.b,
            v: 0.0,
        }
    }

    fn lint_self(&self) -> Vec<(LintCode, String)> {
        let mut out = Vec::new();
        if self.a == self.b {
            out.push((
                LintCode::SelfLoop,
                format!(
                    "inductor '{}' has both terminals on the same node",
                    self.name
                ),
            ));
        }
        if let Some(msg) = crate::lint::extreme_value("inductance", self.henries, self.kind()) {
            out.push((LintCode::ExtremeParameter, msg));
        }
        out
    }

    fn card(&self, node_name: &dyn Fn(NodeId) -> String) -> String {
        format!(
            "L{} {} {} {:.6e}",
            self.name,
            node_name(self.a),
            node_name(self.b),
            self.henries
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resistance_rejected() {
        let _ = Resistor::new("R", NodeId::GROUND, NodeId::from_raw(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_capacitance_rejected() {
        let _ = Capacitor::new("C", NodeId::GROUND, NodeId::from_raw(1), -1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nan_inductance_rejected() {
        let _ = Inductor::new("L", NodeId::GROUND, NodeId::from_raw(1), f64::NAN);
    }

    #[test]
    fn resistor_power() {
        let r = Resistor::new("R", NodeId::from_raw(1), NodeId::GROUND, 100.0);
        let x = [5.0];
        assert!((r.dc_power(&x, 0).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn capacitor_companion_trapezoidal() {
        let c = Capacitor::new("C", NodeId::from_raw(1), NodeId::GROUND, 1e-12);
        let (geq, ieq) = c.companion(1e-12, Integration::Trapezoidal, 1.0, 0.5);
        assert!((geq - 2.0).abs() < 1e-12);
        assert!((ieq - 2.5).abs() < 1e-12);
    }

    #[test]
    fn capacitor_companion_backward_euler() {
        let c = Capacitor::new("C", NodeId::from_raw(1), NodeId::GROUND, 1e-12);
        let (geq, ieq) = c.companion(1e-12, Integration::BackwardEuler, 2.0, 9.9);
        assert!((geq - 1.0).abs() < 1e-12);
        assert!((ieq - 2.0).abs() < 1e-12); // i_prev ignored by BE
    }
}
