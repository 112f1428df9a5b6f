//! Linear controlled sources (VCVS, VCCS).
//!
//! These are the workhorses of behavioural macromodels: ideal gain blocks,
//! transconductors and buffers used both in tests and in the baseline
//! limiting-amplifier models of `cml-core`.

use crate::circuit::NodeId;
use crate::element::{AcStamper, DcCoupling, Element, ElementKind, StampCtx, Stamper};
use crate::lint::LintCode;

/// Voltage-controlled voltage source: `v(a,b) = gain · v(cp,cn)`.
///
/// Adds one branch-current unknown for the output branch.
#[derive(Debug, Clone)]
pub struct Vcvs {
    name: String,
    a: NodeId,
    b: NodeId,
    cp: NodeId,
    cn: NodeId,
    gain: f64,
}

impl Vcvs {
    /// Creates a VCVS with output `(a, b)`, control `(cp, cn)` and the
    /// given voltage gain.
    ///
    /// # Panics
    ///
    /// Panics if `gain` is not finite.
    #[must_use]
    pub fn new(name: &str, a: NodeId, b: NodeId, cp: NodeId, cn: NodeId, gain: f64) -> Self {
        assert!(gain.is_finite(), "vcvs {name}: gain must be finite");
        Vcvs {
            name: name.to_string(),
            a,
            b,
            cp,
            cn,
            gain,
        }
    }

    /// Voltage gain.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gain
    }
}

impl Element for Vcvs {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.a, self.b, self.cp, self.cn]
    }

    fn num_branches(&self) -> usize {
        1
    }

    fn stamp(&self, ctx: &StampCtx<'_>, out: &mut Stamper<'_>) {
        let (a, b) = (self.a.index(), self.b.index());
        let (cp, cn) = (self.cp.index(), self.cn.index());
        let br = out.branch(ctx.branch_base);
        out.mat(a, Some(br), 1.0);
        out.mat(b, Some(br), -1.0);
        // v_a - v_b - gain·(v_cp - v_cn) = 0
        out.mat(Some(br), a, 1.0);
        out.mat(Some(br), b, -1.0);
        out.mat(Some(br), cp, -self.gain);
        out.mat(Some(br), cn, self.gain);
    }

    fn stamp_ac(&self, _x_op: &[f64], bb: usize, out: &mut AcStamper<'_>) {
        let (a, b) = (self.a.index(), self.b.index());
        let (cp, cn) = (self.cp.index(), self.cn.index());
        let br = out.branch(bb);
        out.mat(a, Some(br), 1.0, 0.0);
        out.mat(b, Some(br), -1.0, 0.0);
        out.mat(Some(br), a, 1.0, 0.0);
        out.mat(Some(br), b, -1.0, 0.0);
        out.mat(Some(br), cp, -self.gain, 0.0);
        out.mat(Some(br), cn, self.gain, 0.0);
    }

    fn kind(&self) -> ElementKind {
        ElementKind::Vcvs
    }

    fn dc_couplings(&self) -> Vec<DcCoupling> {
        // Only the output branch holds a DC relation; the control pair is
        // sensed with infinite impedance.
        vec![DcCoupling::VoltageDefined(self.a, self.b)]
    }
}

/// Voltage-controlled current source: current `gm · v(cp,cn)` flows from
/// `a` through the source to `b`.
#[derive(Debug, Clone)]
pub struct Vccs {
    name: String,
    a: NodeId,
    b: NodeId,
    cp: NodeId,
    cn: NodeId,
    gm: f64,
}

impl Vccs {
    /// Creates a VCCS with output `(a, b)`, control `(cp, cn)` and the
    /// given transconductance in siemens.
    ///
    /// # Panics
    ///
    /// Panics if `gm` is not finite.
    #[must_use]
    pub fn new(name: &str, a: NodeId, b: NodeId, cp: NodeId, cn: NodeId, gm: f64) -> Self {
        assert!(gm.is_finite(), "vccs {name}: gm must be finite");
        Vccs {
            name: name.to_string(),
            a,
            b,
            cp,
            cn,
            gm,
        }
    }

    /// Transconductance in siemens.
    #[must_use]
    pub fn gm(&self) -> f64 {
        self.gm
    }
}

impl Element for Vccs {
    fn name(&self) -> &str {
        &self.name
    }

    fn nodes(&self) -> Vec<NodeId> {
        vec![self.a, self.b, self.cp, self.cn]
    }

    fn stamp(&self, _ctx: &StampCtx<'_>, out: &mut Stamper<'_>) {
        let (a, b) = (self.a.index(), self.b.index());
        let (cp, cn) = (self.cp.index(), self.cn.index());
        // i(a→b) = gm (v_cp − v_cn): leaves a, enters b.
        out.mat(a, cp, self.gm);
        out.mat(a, cn, -self.gm);
        out.mat(b, cp, -self.gm);
        out.mat(b, cn, self.gm);
    }

    fn stamp_ac(&self, _x_op: &[f64], _bb: usize, out: &mut AcStamper<'_>) {
        out.transconductance(
            self.a.index(),
            self.b.index(),
            self.cp.index(),
            self.cn.index(),
            self.gm,
        );
    }

    fn kind(&self) -> ElementKind {
        ElementKind::Vccs
    }

    fn dc_couplings(&self) -> Vec<DcCoupling> {
        // Generously treat the output pair as conductive so a VCCS-loaded
        // node is not flagged as having no DC path; a genuinely unheld
        // output column is still caught by the structural-rank pass.
        vec![DcCoupling::Conductive(self.a, self.b)]
    }

    fn lint_self(&self) -> Vec<(LintCode, String)> {
        if self.gm == 0.0 {
            vec![(
                LintCode::DeadSource,
                format!("vccs '{}' has zero transconductance", self.name),
            )]
        } else {
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "finite")]
    fn vcvs_rejects_nan_gain() {
        let _ = Vcvs::new(
            "E1",
            NodeId::from_raw(1),
            NodeId::GROUND,
            NodeId::from_raw(2),
            NodeId::GROUND,
            f64::NAN,
        );
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn vccs_rejects_infinite_gm() {
        let _ = Vccs::new(
            "G1",
            NodeId::from_raw(1),
            NodeId::GROUND,
            NodeId::from_raw(2),
            NodeId::GROUND,
            f64::INFINITY,
        );
    }

    #[test]
    fn accessors() {
        let e = Vcvs::new(
            "E1",
            NodeId::from_raw(1),
            NodeId::GROUND,
            NodeId::from_raw(2),
            NodeId::GROUND,
            10.0,
        );
        assert_eq!(e.gain(), 10.0);
        assert_eq!(e.num_branches(), 1);
        let g = Vccs::new(
            "G1",
            NodeId::from_raw(1),
            NodeId::GROUND,
            NodeId::from_raw(2),
            NodeId::GROUND,
            1e-3,
        );
        assert_eq!(g.gm(), 1e-3);
        assert_eq!(g.num_branches(), 0);
    }
}
