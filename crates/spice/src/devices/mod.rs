//! Nonlinear semiconductor device models.

pub mod diode;
pub mod mosfet;

use crate::element::{Integration, StampCtx, StampMode, Stamper};

/// Shared companion-model helper for the fixed capacitances inside device
/// models (MOSFET terminal caps, diode junction cap).
///
/// State layout per capacitance: `[v_prev, i_prev]`.
pub(crate) struct DeviceCap;

impl DeviceCap {
    /// Stamps one internal capacitance for the current mode. `state` is the
    /// 2-slot state slice for this capacitance.
    pub(crate) fn stamp(
        ctx: &StampCtx<'_>,
        out: &mut Stamper<'_>,
        c: f64,
        a: Option<usize>,
        b: Option<usize>,
        state: &[f64],
    ) {
        if Self::is_open(c) {
            return;
        }
        if let StampMode::Tran { dt, method, .. } = ctx.mode {
            let (geq, ieq) = Self::companion(c, dt, method, state[0], state[1]);
            out.conductance(a, b, geq);
            out.current_source(b, a, ieq);
        }
    }

    /// Writes next state for one internal capacitance after convergence.
    pub(crate) fn update(
        ctx: &StampCtx<'_>,
        c: f64,
        va: f64,
        vb: f64,
        state_prev: &[f64],
        state_next: &mut [f64],
    ) {
        if let StampMode::Tran { dt, method, .. } = ctx.mode {
            let (geq, ieq) = Self::companion(c, dt, method, state_prev[0], state_prev[1]);
            let v_new = va - vb;
            state_next[0] = v_new;
            state_next[1] = geq * v_new - ieq;
        }
    }

    /// Initializes state from a DC solution.
    pub(crate) fn init(va: f64, vb: f64, state: &mut [f64]) {
        state[0] = va - vb;
        state[1] = 0.0;
    }

    /// Whether a capacitance of `c` farads is left out of the stamp.
    pub(crate) fn is_open(c: f64) -> bool {
        c <= 0.0
    }

    /// The companion conductance and history current `(geq, ieq)` of a
    /// capacitance `c` over a step `dt`, from its previous voltage and
    /// current. The stamp is `geq` between the terminals and `ieq`
    /// flowing from `b` to `a`.
    pub(crate) fn companion(
        c: f64,
        dt: f64,
        method: Integration,
        v_prev: f64,
        i_prev: f64,
    ) -> (f64, f64) {
        match method {
            Integration::Trapezoidal => {
                let geq = 2.0 * c / dt;
                (geq, geq * v_prev + i_prev)
            }
            Integration::BackwardEuler => {
                let geq = c / dt;
                (geq, geq * v_prev)
            }
        }
    }
}
