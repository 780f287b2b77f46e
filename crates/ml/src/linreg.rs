//! Closed-form ridge linear regression — the accuracy baseline the forest
//! must beat (paper Fig 9: linear cost models collapse on non-linear
//! runtime surfaces; see also DESIGN §6.2).
//!
//! Fit solves the normal equations `(XᵀX + λ·diag(XᵀX))·w = Xᵀy` with a
//! bias column appended to `X`, via an in-tree Cholesky factorization.
//! The ridge is *relative* (each diagonal entry scaled by its own
//! magnitude), so the regularization is invariant to per-feature scale —
//! plan-vector columns span ~15 orders of magnitude between operator
//! counts and tuple cardinalities.

use robopt_vector::RowsView;

use crate::model::Model;

/// Relative ridge factor λ: large enough to keep constant and all-zero
/// columns from making `XᵀX` singular, small enough to leave a well-posed
/// fit within a few λ of where least squares puts it.
const RIDGE: f64 = 1e-6;

/// A fitted ridge-regularized linear model with intercept.
#[derive(Debug, Clone)]
pub struct LinearModel {
    /// `width + 1` coefficients; the last entry is the bias.
    weights: Vec<f64>,
}

impl LinearModel {
    /// Fitted coefficients (feature weights, then bias).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Fit on `rows` (one feature row per label).
    pub fn fit(rows: RowsView<'_>, labels: &[f64]) -> LinearModel {
        let n = rows.rows();
        assert_eq!(n, labels.len(), "one label per feature row");
        assert!(n >= 1, "cannot fit on zero samples");
        let w = rows.width();
        // Accumulate XᵀX (symmetric, stored dense row-major, plus a bias
        // column of ones) and Xᵀy.
        let d = w + 1;
        let mut xtx = vec![0.0; d * d];
        let mut xty = vec![0.0; d];
        for (r, &y) in labels.iter().enumerate() {
            let row = rows.row(r);
            for i in 0..w {
                let xi = row[i];
                if xi == 0.0 {
                    continue; // plan vectors are sparse; skip zero terms
                }
                for (j, &xj) in row.iter().enumerate().skip(i) {
                    xtx[i * d + j] += xi * xj;
                }
                xtx[i * d + w] += xi; // bias column is all ones
                xty[i] += xi * y;
            }
            xtx[w * d + w] += 1.0;
            xty[w] += y;
        }
        // Mirror the upper triangle and apply the relative ridge.
        for i in 0..d {
            for j in 0..i {
                xtx[i * d + j] = xtx[j * d + i];
            }
            let diag = xtx[i * d + i];
            // The floor keeps all-zero columns (unused layout cells)
            // invertible instead of producing NaN weights.
            xtx[i * d + i] = diag + RIDGE * diag.max(1.0);
        }
        LinearModel {
            weights: cholesky_solve(&mut xtx, &xty, d),
        }
    }
}

impl Model for LinearModel {
    fn width(&self) -> usize {
        self.weights.len() - 1
    }

    fn predict_row(&self, feats: &[f64]) -> f64 {
        let w = self.width();
        debug_assert_eq!(feats.len(), w);
        let mut acc = self.weights[w]; // bias
        for (x, coef) in feats.iter().zip(&self.weights[..w]) {
            acc += x * coef;
        }
        acc
    }
}

/// Solve `A·x = b` for symmetric positive-definite `A` (destroyed in
/// place) via Cholesky `A = L·Lᵀ` and two triangular substitutions.
fn cholesky_solve(a: &mut [f64], b: &[f64], d: usize) -> Vec<f64> {
    // Factor: L overwrites the lower triangle of `a`.
    for i in 0..d {
        for j in 0..=i {
            let mut sum = a[i * d + j];
            for k in 0..j {
                sum -= a[i * d + k] * a[j * d + k];
            }
            if i == j {
                assert!(sum > 0.0, "XtX not positive definite (column {i})");
                a[i * d + i] = sum.sqrt();
            } else {
                a[i * d + j] = sum / a[j * d + j];
            }
        }
    }
    // Forward: L·z = b.
    let mut x = b.to_vec();
    for i in 0..d {
        for k in 0..i {
            x[i] -= a[i * d + k] * x[k];
        }
        x[i] /= a[i * d + i];
    }
    // Backward: Lᵀ·w = z.
    for i in (0..d).rev() {
        for k in i + 1..d {
            x[i] -= a[k * d + i] * x[k];
        }
        x[i] /= a[i * d + i];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use robopt_plan::rng::SplitMix64;

    #[test]
    fn recovers_an_exact_linear_relationship() {
        // y = 3·x0 - 2·x1 + 5, noise-free. The relative ridge pulls each
        // weight off its exact value by a few RIDGE of itself (3–6× here:
        // the bias column correlates with both features), so every weight
        // and the prediction are recovered within 10 RIDGE of themselves.
        let mut rng = SplitMix64::new(3);
        let n = 50;
        let mut feats = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let (x0, x1) = (rng.next_f64() * 10.0, rng.next_f64() * 10.0);
            feats.extend_from_slice(&[x0, x1]);
            labels.push(3.0 * x0 - 2.0 * x1 + 5.0);
        }
        let model = LinearModel::fit(RowsView::new(&feats, 2), &labels);
        let w = model.weights();
        let tol = 10.0 * RIDGE;
        assert!((w[0] - 3.0).abs() < tol * 3.0, "slope x0: {}", w[0]);
        assert!((w[1] + 2.0).abs() < tol * 2.0, "slope x1: {}", w[1]);
        assert!((w[2] - 5.0).abs() < tol * 5.0, "bias: {}", w[2]);
        assert!((model.predict_row(&[1.0, 1.0]) - 6.0).abs() < tol * 6.0);
    }

    #[test]
    fn tolerates_constant_and_zero_columns() {
        // Column 1 is always zero, column 2 constant: rank-deficient
        // without the ridge floor.
        let feats = [
            1.0, 0.0, 7.0, //
            2.0, 0.0, 7.0, //
            3.0, 0.0, 7.0, //
            4.0, 0.0, 7.0,
        ];
        let labels = [2.0, 4.0, 6.0, 8.0];
        let model = LinearModel::fit(RowsView::new(&feats, 3), &labels);
        let pred = model.predict_row(&[2.5, 0.0, 7.0]);
        assert!(pred.is_finite());
        assert!((pred - 5.0).abs() < 1e-3, "interpolation off: {pred}");
    }
}
