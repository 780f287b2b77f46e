//! Piecewise degree-5 polynomial runtime interpolation (paper §V-C).
//!
//! TDGEN executes (simulates) each (skeleton, assignment) pair only at a
//! small log-spaced *knot set* of input cardinalities, fits a piecewise
//! degree-5 polynomial through the knots, and synthesizes labels at every
//! other scale from the fit — that is where the simulator-call reduction
//! comes from. Fitting happens in **log-log space** (`ln scale` against
//! `ln(1 + seconds)`): runtime curves that look violently non-polynomial
//! in linear space (startup floors, `n·log n` shuffles, memory-cliff
//! jumps) are gentle there, and degree 5 over a 6-knot window tracks them
//! to small q-error.
//!
//! The polynomial is kept in Newton divided-difference form, which is
//! exact at its own knots up to roundoff — the property test in
//! `tests/tdgen_training.rs` pins that down.

/// Knots per polynomial piece: degree-5 pieces interpolate 6 points.
pub const WINDOW: usize = 6;

/// A piecewise polynomial through `k` knots, `(k - 1) % (WINDOW - 1) == 0`,
/// one degree-5 Newton-form piece per window of [`WINDOW`] knots; adjacent
/// windows share their boundary knot.
#[derive(Debug, Clone)]
pub struct PiecewisePoly {
    /// Strictly increasing knot abscissae.
    xs: Vec<f64>,
    /// Newton coefficients, [`WINDOW`] per piece.
    coeffs: Vec<f64>,
}

impl PiecewisePoly {
    /// Fit the interpolant through `(xs[i], ys[i])`. Panics unless `xs` is
    /// strictly increasing with a window-compatible length (6, 11, 16, …).
    pub fn fit(xs: &[f64], ys: &[f64]) -> PiecewisePoly {
        assert_eq!(xs.len(), ys.len(), "one ordinate per knot");
        assert!(
            xs.len() >= WINDOW && (xs.len() - 1).is_multiple_of(WINDOW - 1),
            "knot count must be 6, 11, 16, … (got {})",
            xs.len()
        );
        assert!(
            xs.iter().zip(xs.iter().skip(1)).all(|(a, b)| a < b),
            "knot abscissae must be strictly increasing"
        );
        let n_pieces = (xs.len() - 1) / (WINDOW - 1);
        let mut coeffs = Vec::with_capacity(n_pieces * WINDOW);
        for piece in 0..n_pieces {
            let lo = piece * (WINDOW - 1);
            coeffs.extend_from_slice(&newton_coeffs(&xs[lo..lo + WINDOW], &ys[lo..lo + WINDOW]));
        }
        PiecewisePoly {
            xs: xs.to_vec(),
            coeffs,
        }
    }

    /// Evaluate at `x`. Inside the knot range the covering piece is used;
    /// outside, the nearest boundary piece extrapolates.
    pub fn eval(&self, x: f64) -> f64 {
        let n_pieces = self.coeffs.len() / WINDOW;
        // Index of the last piece whose left boundary is <= x.
        let piece = self.xs[..self.xs.len() - 1]
            .iter()
            .step_by(WINDOW - 1)
            .take_while(|&&left| left <= x)
            .count()
            .saturating_sub(1)
            .min(n_pieces - 1);
        let lo = piece * (WINDOW - 1);
        let nodes = &self.xs[lo..lo + WINDOW];
        let c = &self.coeffs[piece * WINDOW..(piece + 1) * WINDOW];
        // Horner in Newton form.
        let mut acc = c[WINDOW - 1];
        for j in (0..WINDOW - 1).rev() {
            acc = acc * (x - nodes[j]) + c[j];
        }
        acc
    }
}

/// Newton divided-difference coefficients for one window.
fn newton_coeffs(xs: &[f64], ys: &[f64]) -> [f64; WINDOW] {
    #[expect(
        clippy::expect_used,
        reason = "callers slice exact WINDOW-length windows out of the knot grid"
    )]
    let mut table: [f64; WINDOW] = ys.try_into().expect("window of 6 ordinates");
    let mut out = [0.0; WINDOW];
    out[0] = table[0];
    for order in 1..WINDOW {
        for i in 0..WINDOW - order {
            table[i] = (table[i + 1] - table[i]) / (xs[i + order] - xs[i]);
        }
        out[order] = table[0];
    }
    out
}

/// `k` log-spaced knots covering `[lo, hi]`: the geometric progression
/// whose endpoints are exactly `lo` and `hi`.
pub fn log_knots(lo: f64, hi: f64, k: usize) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
    assert!(k >= 2, "need at least both endpoints");
    let (lln, hln) = (lo.ln(), hi.ln());
    (0..k)
        .map(|i| (lln + (hln - lln) * i as f64 / (k - 1) as f64).exp())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_window_reproduces_a_degree_5_polynomial_everywhere() {
        let p = |x: f64| 2.0 - x + 0.5 * x.powi(2) + 0.125 * x.powi(5);
        let xs: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| p(x)).collect();
        let poly = PiecewisePoly::fit(&xs, &ys);
        for i in 0..=50 {
            let x = i as f64 * 0.1;
            assert!(
                (poly.eval(x) - p(x)).abs() < 1e-9 * (1.0 + p(x).abs()),
                "degree-5 data must be reproduced exactly at x = {x}"
            );
        }
    }

    #[test]
    fn multi_window_interpolant_is_exact_at_every_knot() {
        let xs = log_knots(1.0, 1e5, 11);
        let ys: Vec<f64> = xs.iter().map(|x| x.ln().sin() + 0.01 * x.ln()).collect();
        let poly = PiecewisePoly::fit(&xs, &ys);
        for (x, y) in xs.iter().zip(&ys) {
            assert!(
                (poly.eval(*x) - y).abs() < 1e-9 * (1.0 + y.abs()),
                "interpolant must pass through its knots"
            );
        }
        assert_eq!(poly.xs.len(), 11);
    }

    #[test]
    fn window_boundaries_pick_a_piece_consistently() {
        // Piecewise fit of a smooth function: evaluation just left and
        // right of a shared boundary knot must agree closely even though
        // different pieces serve the two sides.
        let xs: Vec<f64> = (0..11).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| (0.3 * x).cos()).collect();
        let poly = PiecewisePoly::fit(&xs, &ys);
        let boundary = xs[5];
        let eps = 1e-7;
        let (l, r) = (poly.eval(boundary - eps), poly.eval(boundary + eps));
        assert!((l - r).abs() < 1e-4, "pieces must agree at the boundary");
    }

    #[test]
    fn log_knots_hit_both_endpoints() {
        let ks = log_knots(1e4, 1e9, 11);
        assert_eq!(ks.len(), 11);
        assert!((ks[0] - 1e4).abs() < 1e-6);
        assert!((ks[10] - 1e9).abs() < 1e-3);
        assert!(ks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    #[should_panic(expected = "knot count")]
    fn incompatible_knot_counts_are_rejected() {
        let xs: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let ys = vec![0.0; 9];
        PiecewisePoly::fit(&xs, &ys);
    }
}
