//! Fast first-order analytic IR-drop estimator.
//!
//! The full MNA solve is exact but costs milliseconds per operating point.
//! Timing tables only need a *conservative* voltage estimate at worst-case
//! operating points, so this module computes the IR drop along the selected
//! wordline and bitlines by superposition of nominal sneak currents:
//!
//! * each fully-selected cell injects `I_f = Vd / R_lrs` into the grounded
//!   wordline and draws the same from its bitline;
//! * each half-selected cell conducts `V_bias / (R_cell · κ)` where `κ` is
//!   the selector non-linearity at half bias.
//!
//! Line sag is ignored when evaluating the half-select currents, which
//! *overestimates* them and therefore underestimates the target voltage —
//! the resulting latency is an upper bound on the true requirement, exactly
//! the safety direction a write-timing table needs. The fully-selected
//! current is resolved self-consistently by fixed-point iteration.

use crate::params::CrossbarParams;

/// Number of fixed-point iterations resolving `I_f = Vd / R_lrs`.
const FIXED_POINT_ITERS: usize = 24;

/// Operating point for an analytic voltage estimate.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// Wordline being RESET (0 = nearest the bitline drivers).
    pub target_wl: usize,
    /// Columns of the fully-selected cells.
    pub target_bls: Vec<usize>,
    /// Number of LRS cells on the selected wordline (worst-case placed at
    /// the far end of the line).
    pub wl_ones: usize,
    /// Number of LRS cells on each selected bitline (worst-case placed at
    /// the far end of the line).
    pub bl_ones: usize,
}

/// Estimates the voltage drop across each fully-selected cell.
///
/// Returns one `(column, volts)` pair per target bitline, in ascending
/// column order. The estimate is conservative: it never exceeds the exact
/// MNA voltage (up to solver tolerance).
///
/// # Panics
///
/// Panics if any coordinate or population is out of range for the mat.
///
/// # Examples
///
/// ```
/// use ladder_xbar::{analytic, CrossbarParams};
///
/// let params = CrossbarParams::default();
/// let op = analytic::OperatingPoint {
///     target_wl: 511,
///     target_bls: vec![63, 127, 191, 255, 319, 383, 447, 511],
///     wl_ones: 512,
///     bl_ones: 512,
/// };
/// let vd = analytic::estimate_vd(&params, &op);
/// assert_eq!(vd.len(), 8);
/// assert!(vd.iter().all(|&(_, v)| v > 0.0 && v < 3.0));
/// ```
#[expect(clippy::expect_used, reason = "the assert above makes bls nonempty")]
pub fn estimate_vd(params: &CrossbarParams, op: &OperatingPoint) -> Vec<(usize, f64)> {
    let (rows, cols) = (params.rows, params.cols);
    assert!(op.target_wl < rows, "target wordline out of range");
    assert!(
        op.wl_ones <= cols && op.bl_ones <= rows,
        "LRS population exceeds line length"
    );
    let mut bls = op.target_bls.clone();
    bls.sort_unstable();
    bls.dedup();
    assert!(!bls.is_empty(), "at least one target bitline required");
    assert!(
        *bls.last().expect("nonempty") < cols,
        "target bitline out of range"
    );

    let kappa = params.selector_multiplier(params.bias_voltage);
    // Half-selected sneak currents at nominal bias, per cell. Cells on the
    // selected wordline carry the calibrated gain (see
    // `CrossbarParams::wl_sneak_gain`).
    let i_half_lrs = params.bias_voltage / (params.r_lrs * kappa);
    let i_half_hrs = params.bias_voltage / (params.r_hrs * kappa);
    let i_wl_lrs = i_half_lrs * params.wl_sneak_gain;
    let i_wl_hrs = i_half_hrs * params.wl_sneak_gain;
    let r_w = params.r_wire;

    // Worst-case far-end placement of the wordline LRS population
    // (excluding the target columns themselves, which are fully selected):
    // the `wl_lrs` highest non-target columns, starting at `wl_lo`.
    let wl_lrs = op.wl_ones.min(cols - bls.len());
    let wl_lo = far_end_start(cols, &bls, wl_lrs);
    let wl_hrs_count = cols - bls.len() - wl_lrs;
    // Far-end placement of the bitline LRS population (excluding target row).
    let w = op.target_wl;
    let bl_lrs = op.bl_ones.min(rows - 1);
    let bl_lo = far_end_start(rows, &[w], bl_lrs);
    let bl_hrs_count = rows - 1 - bl_lrs;

    // Aggregate wordline sneak: total current and, per target position b,
    // the LRS and HRS current moments. Neither depends on the fully-selected
    // currents, so both are fixed before the iteration. HRS cells contribute
    // uniformly; approximate their positions as spread over the whole line
    // (they are everywhere the LRS cells are not).
    let wl_sneak_total = i_wl_lrs * wl_lrs as f64 + i_wl_hrs * wl_hrs_count as f64;
    let wl_sneak_moments: Vec<(f64, f64)> = bls
        .iter()
        .map(|&b| {
            let lrs_moment = far_end_moment(wl_lo, cols, &bls, b) as f64;
            let hrs_moment = wl_hrs_count as f64 * (b as f64) * 0.5;
            (i_wl_lrs * lrs_moment, hrs_moment * i_wl_hrs)
        })
        .collect();

    // Bitline sneak per selected bitline.
    let bl_sneak_total = i_half_lrs * bl_lrs as f64 + i_half_hrs * bl_hrs_count as f64;
    let bl_lrs_moment = far_end_moment(bl_lo, rows, &[w], w) as f64;
    let bl_hrs_moment: f64 = bl_hrs_count as f64 * (w as f64) * 0.5;
    let bl_drop_static = params.r_output * bl_sneak_total
        + r_w * (i_half_lrs * bl_lrs_moment + i_half_hrs * bl_hrs_moment);

    // Fixed point on the fully-selected currents (cells under active RESET
    // present the transition resistance, not the initial LRS value).
    let mut i_f = vec![params.write_voltage / params.r_reset_transition; bls.len()];
    let mut vd = vec![params.write_voltage; bls.len()];
    for _ in 0..FIXED_POINT_ITERS {
        let i_f_total: f64 = i_f.iter().sum();
        for (k, (&b, &(wl_lrs_term, wl_hrs_term))) in bls.iter().zip(&wl_sneak_moments).enumerate()
        {
            // Wordline drop at column b: driver drop plus wire drop from all
            // currents sharing segments 0..b with the target.
            let full_moment: f64 = bls
                .iter()
                .zip(&i_f)
                .map(|(&bk, &ik)| ik * bk.min(b) as f64)
                .sum();
            let drop_wl = params.r_input * (i_f_total + wl_sneak_total)
                + r_w * (full_moment + wl_lrs_term + wl_hrs_term);
            // Bitline drop at row w for this bitline's own current.
            let drop_bl = params.r_output * i_f[k] + r_w * i_f[k] * w as f64 + bl_drop_static;
            let new_vd = (params.write_voltage - drop_wl - drop_bl).max(0.05);
            vd[k] = new_vd;
            i_f[k] = new_vd / params.r_reset_transition;
        }
    }
    bls.into_iter().zip(vd).collect()
}

/// First position of the worst-case far-end run: the `n` highest positions
/// in `0..len` not listed in `skip` (ascending) occupy `lo..len` minus
/// `skip`. Requires `n + skip.len() <= len`.
fn far_end_start(len: usize, skip: &[usize], n: usize) -> usize {
    // Each skipped position inside the run pushes its start down by one;
    // walking `skip` from the top sees every such position.
    skip.iter()
        .rev()
        .fold(len - n, |lo, &t| if t >= lo { lo - 1 } else { lo })
}

/// `Σ min(i, at)` over the far-end run `lo..len` minus `skip`: the wire
/// moment, seen from position `at`, of unit currents at those positions.
/// Exact in integers, so converting the result to `f64` equals summing
/// the terms in `f64` (every partial sum stays far below 2^53).
fn far_end_moment(lo: usize, len: usize, skip: &[usize], at: usize) -> usize {
    // Closed form of Σ_{i=lo}^{len-1} min(i, at): positions below `at`
    // contribute themselves, the rest contribute `at`.
    let mid = at.clamp(lo, len);
    let run = (mid - lo) * (lo + mid).saturating_sub(1) / 2 + (len - mid) * at;
    let skipped: usize = skip.iter().filter(|&&t| t >= lo).map(|&t| t.min(at)).sum();
    run - skipped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mna::{solve_reset, ResetOp, SolverKind};
    use crate::pattern::PatternSpec;

    fn point(
        n: usize,
        w: usize,
        bls: Vec<usize>,
        wl_ones: usize,
        bl_ones: usize,
    ) -> OperatingPoint {
        let _ = n;
        OperatingPoint {
            target_wl: w,
            target_bls: bls,
            wl_ones,
            bl_ones,
        }
    }

    #[test]
    fn estimate_is_monotone_in_content() {
        let params = CrossbarParams::default();
        let mut prev = f64::INFINITY;
        for ones in [0usize, 64, 128, 256, 512] {
            let op = point(512, 511, vec![511], ones, 512);
            let vd = estimate_vd(&params, &op)[0].1;
            assert!(vd <= prev + 1e-12, "vd must fall as content grows");
            prev = vd;
        }
    }

    #[test]
    fn estimate_is_monotone_in_location() {
        let params = CrossbarParams::default();
        let near = estimate_vd(&params, &point(512, 0, vec![0], 256, 256))[0].1;
        let far = estimate_vd(&params, &point(512, 511, vec![511], 256, 256))[0].1;
        assert!(far < near);
    }

    #[test]
    fn estimate_is_conservative_vs_mna() {
        // On a mat small enough for exact solves, the analytic voltage must
        // never exceed the MNA voltage by more than solver noise.
        let n = 48;
        let params = CrossbarParams::with_size(n, n);
        for (w, b, ones) in [
            (n - 1, n - 1, n),
            (n - 1, n - 1, 0),
            (0, 0, n),
            (n / 2, n / 2, n / 2),
        ] {
            let ones = ones.min(n);
            let grid = PatternSpec::WorstCaseWl { wl_ones: ones }.materialize(n, n, w, &[b]);
            let exact = solve_reset(
                &params,
                &grid,
                &ResetOp::new(w, vec![b]),
                SolverKind::LineRelaxation,
            )
            .expect("mna solve")
            .min_target_vd();
            let approx = estimate_vd(&params, &point(n, w, vec![b], ones, n))[0].1;
            assert!(
                approx <= exact + 0.02,
                "analytic {approx:.4} V must not exceed MNA {exact:.4} V (w={w}, b={b}, ones={ones})"
            );
            // And it should not be wildly pessimistic either.
            assert!(
                approx > exact - 0.45,
                "analytic {approx:.4} V too far below MNA {exact:.4} V"
            );
        }
    }

    #[test]
    fn eight_cell_reset_orders_by_distance() {
        let params = CrossbarParams::default();
        let bls: Vec<usize> = (0..8).map(|i| i * 64 + 63).collect();
        let op = point(512, 255, bls, 384, 384);
        let vd = estimate_vd(&params, &op);
        for w in vd.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-12, "farther columns cannot be faster");
        }
    }

    #[test]
    fn far_end_run_matches_its_definition() {
        // The run is the `n` highest positions not in `skip`; its moment
        // is Σ min(i, at) over them. Check both against the literal
        // filter-and-sum on every small case.
        for len in 1..=10usize {
            for mask in 0u32..(1 << len) {
                let skip: Vec<usize> = (0..len).filter(|&i| mask >> i & 1 == 1).collect();
                for n in 0..=len - skip.len() {
                    let run: Vec<usize> = (0..len)
                        .rev()
                        .filter(|i| !skip.contains(i))
                        .take(n)
                        .collect();
                    let lo = far_end_start(len, &skip, n);
                    let expect_lo = run.last().copied().unwrap_or(len);
                    assert_eq!(lo, expect_lo, "len={len} skip={skip:?} n={n}");
                    for at in 0..=len {
                        let expect: usize = run.iter().map(|&i| i.min(at)).sum();
                        assert_eq!(far_end_moment(lo, len, &skip, at), expect);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_wordline_panics() {
        let params = CrossbarParams::with_size(8, 8);
        let op = point(8, 8, vec![0], 0, 0);
        let _ = estimate_vd(&params, &op);
    }
}
