//! Pass 3: stiffness / time-constant spectrum.
//!
//! Estimates a per-node RC time constant `τ_i = C_ii / G_ii` from the local
//! AC stamps evaluated at the interval-box midpoint: `G_ii` and `C_ii` are
//! summed straight off the small-signal tape's diagonal entries (plus the
//! solver's gmin on `G_ii`, which really is in the transient Jacobian). The diagonal Gershgorin-style estimate ignores off-diagonal
//! coupling, so it is a *spectrum sketch*, not an eigensolve — good enough
//! to recommend an initial `dt` and to flag spectra whose `τ_max/τ_min`
//! ratio will make LTE-adaptive stepping thrash (`A005`).
//!
//! Nodes incident to voltage-defined branches are excluded: their voltage is
//! pinned by the branch equation, so the local RC estimate is meaningless
//! there (a source-driven gate would otherwise report `G_ii ≈ 0` and a
//! spuriously infinite τ).

use super::{AnalyzeCode, AnalyzeOptions, Finding, StiffnessSummary};
use crate::analysis::System;
use crate::circuit::{Circuit, NodeId};
use crate::element::DcTransfer;
use cml_numeric::Interval;

pub(crate) fn stiffness(
    ckt: &Circuit,
    bounds: &[Interval],
    opts: &AnalyzeOptions,
) -> (Option<StiffnessSummary>, Vec<Finding>) {
    let n_nodes = ckt.num_unknown_nodes();
    let mut n_branches = 0;
    let mut pinned = vec![false; n_nodes];
    for e in ckt.elements() {
        n_branches += e.num_branches();
        if let DcTransfer::VoltageDefined { a, b, .. } = e.dc_transfer() {
            for id in [a, b] {
                if let Some(i) = id.index() {
                    pinned[i] = true;
                }
            }
        }
    }
    let dim = n_nodes + n_branches;

    // Sample at the box midpoint, clamped to a supply-scale excursion: a
    // node the interval pass could only bound loosely (active-inductor legs,
    // opaque neighborhoods) would otherwise be sampled at an absurd bias
    // where device transconductances — and hence τ — are meaningless.
    let limit = 10.0
        + ckt
            .elements()
            .filter_map(|e| match e.dc_transfer() {
                DcTransfer::VoltageDefined { v, .. } => Some(v.abs()),
                _ => None,
            })
            .sum::<f64>();
    let mut x_mid = vec![0.0; dim];
    for (raw, b) in bounds.iter().enumerate().skip(1) {
        if raw - 1 < n_nodes {
            let m = b.midpoint();
            x_mid[raw - 1] = if m.is_finite() {
                m.clamp(-limit, limit)
            } else {
                0.0
            };
        }
    }

    // Node diagonals `(G_ii, C_ii)`, summed in tape order.
    let mut diag = vec![(0.0, 0.0); n_nodes];
    for e in System::new(ckt).ac_tape(&x_mid).entries() {
        if e.row == e.col && e.row < n_nodes {
            diag[e.row].0 += e.g;
            diag[e.row].1 += e.c;
        }
    }

    let mut taus: Vec<(usize, f64)> = Vec::new();
    for (i, &(g, c)) in diag.iter().enumerate() {
        if pinned[i] || c <= 1e-21 {
            continue; // pinned, or no usable local capacitance
        }
        taus.push((i, c / (g.abs() + opts.gmin)));
    }

    if taus.is_empty() {
        return (None, Vec::new());
    }

    let (mut i_min, mut tau_min) = taus[0];
    let (mut i_max, mut tau_max) = taus[0];
    for &(i, tau) in &taus[1..] {
        if tau < tau_min {
            (i_min, tau_min) = (i, tau);
        }
        if tau > tau_max {
            (i_max, tau_max) = (i, tau);
        }
    }
    let name = |i: usize| {
        ckt.node_name(NodeId::from_raw(u32::try_from(i + 1).unwrap_or(u32::MAX)))
            .to_string()
    };
    let ratio = tau_max / tau_min;
    let summary = StiffnessSummary {
        tau_min,
        tau_max,
        tau_min_node: name(i_min),
        tau_max_node: name(i_max),
        stiffness_ratio: ratio,
        recommended_dt: tau_min / 4.0,
        reactive_nodes: taus.len(),
    };

    let mut findings = Vec::new();
    if ratio > opts.stiffness_limit {
        findings.push(Finding {
            code: AnalyzeCode::StiffSpectrum,
            element: None,
            nodes: vec![summary.tau_min_node.clone(), summary.tau_max_node.clone()],
            message: format!(
                "RC time constants span {:.1e}× (τ = {:.3e} s at {} to \
                 {:.3e} s at {}); LTE-adaptive stepping will thrash — start \
                 at dt ≈ {:.3e} s",
                ratio,
                tau_min,
                summary.tau_min_node,
                tau_max,
                summary.tau_max_node,
                summary.recommended_dt
            ),
        });
    }
    (Some(summary), findings)
}
