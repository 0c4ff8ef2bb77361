//! Finite-difference gradient verification.
//!
//! Used by the property-based tests: for a scalar-valued function built on a
//! [`Graph`], the analytic gradient from [`Graph::backward`] must agree with
//! a central finite difference to a loose tolerance (f32 + second-order
//! truncation error).

use crate::graph::{Graph, Var};
use crate::tensor::Tensor;

/// Result of a gradient check: the largest absolute deviation found and the
/// element where it occurred.
#[derive(Debug, Clone, Copy)]
pub struct CheckReport {
    /// Largest `|analytic − numeric|`.
    pub max_abs_err: f32,
    /// Flat index of the worst element.
    pub worst_index: usize,
    /// Analytic value at the worst element.
    pub analytic: f32,
    /// Numeric value at the worst element.
    pub numeric: f32,
}

/// Verify the gradient of `f` with respect to a single input tensor.
///
/// `f` receives a graph and the input leaf and must return a scalar (`1×1`)
/// node. The input is perturbed elementwise with step `eps` (central
/// differences).
pub fn check_gradient(input: &Tensor, eps: f32, f: impl Fn(&mut Graph, Var) -> Var) -> CheckReport {
    // Analytic gradient.
    let mut g = Graph::new();
    let x = g.leaf(input.clone());
    let loss = f(&mut g, x);
    assert_eq!(g.value(loss).shape(), (1, 1), "loss must be scalar");
    g.backward(loss);
    let analytic = g
        .grad(x)
        .cloned()
        .unwrap_or_else(|| Tensor::zeros(input.rows(), input.cols()));

    // Numeric gradient by central differences.
    let mut report = CheckReport {
        max_abs_err: 0.0,
        worst_index: 0,
        analytic: 0.0,
        numeric: 0.0,
    };
    let eval = |t: &Tensor| -> f32 {
        let mut g = Graph::new();
        let x = g.leaf(t.clone());
        let loss = f(&mut g, x);
        g.value(loss).item()
    };
    for i in 0..input.len() {
        let mut plus = input.clone();
        plus.as_mut_slice()[i] += eps;
        let mut minus = input.clone();
        minus.as_mut_slice()[i] -= eps;
        let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
        let a = analytic.as_slice()[i];
        let err = (a - numeric).abs();
        if err > report.max_abs_err {
            report = CheckReport {
                max_abs_err: err,
                worst_index: i,
                analytic: a,
                numeric,
            };
        }
    }
    report
}

/// Assert-style wrapper around [`check_gradient`] for tests.
pub fn assert_gradients_close(
    input: &Tensor,
    eps: f32,
    tol: f32,
    f: impl Fn(&mut Graph, Var) -> Var,
) {
    let report = check_gradient(input, eps, f);
    assert!(
        report.max_abs_err <= tol,
        "gradient mismatch at flat index {}: analytic={} numeric={} (err={} > tol={})",
        report.worst_index,
        report.analytic,
        report.numeric,
        report.max_abs_err,
        tol
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f32 = 1e-3;
    const TOL: f32 = 2e-2;

    #[test]
    fn quadratic() {
        let x = Tensor::row_vector(&[0.5, -1.5, 2.0]);
        assert_gradients_close(&x, EPS, TOL, |g, v| {
            let y = g.mul(v, v);
            g.sum_all(y)
        });
    }

    #[test]
    fn tanh_chain() {
        let x = Tensor::row_vector(&[0.2, -0.4, 0.9]);
        assert_gradients_close(&x, EPS, TOL, |g, v| {
            let t = g.tanh(v);
            g.mean_all(t)
        });
    }

    #[test]
    fn l2norm_away_from_zero() {
        let x = Tensor::row_vector(&[1.0, 2.0, -0.5]);
        assert_gradients_close(&x, EPS, TOL, |g, v| {
            let n = g.rows_l2norm(v);
            g.sum_all(n)
        });
    }

    #[test]
    fn softmax_log_pick() {
        let x = Tensor::row_vector(&[0.1, 0.7, -0.3]);
        assert_gradients_close(&x, EPS, TOL, |g, v| {
            let s = g.softmax_rows(v);
            let l = g.log(s);
            let mask = g.leaf(Tensor::row_vector(&[0.0, 1.0, 0.0]));
            let picked = g.mul(l, mask);
            let sum = g.sum_all(picked);
            g.neg(sum)
        });
    }

    #[test]
    fn matmul_against_fixed_weight() {
        let x = Tensor::from_rows(&[&[0.3, -0.8], &[1.1, 0.4]]);
        assert_gradients_close(&x, EPS, TOL, |g, v| {
            let w = g.leaf(Tensor::from_rows(&[&[0.5, -1.0], &[0.25, 0.75]]));
            let y = g.matmul(v, w);
            let y2 = g.mul(y, y);
            g.sum_all(y2)
        });
    }

    #[test]
    fn cosine_rows_grad() {
        let x = Tensor::row_vector(&[0.9, -0.3, 0.5]);
        assert_gradients_close(&x, EPS, TOL, |g, v| {
            let other = g.leaf(Tensor::row_vector(&[0.1, 0.8, -0.2]));
            let c = g.cosine_rows(v, other);
            g.sum_all(c)
        });
    }

    #[test]
    fn trig_ops() {
        let x = Tensor::row_vector(&[0.3, 1.2, -0.7]);
        assert_gradients_close(&x, EPS, TOL, |g, v| {
            let s = g.sin(v);
            let c = g.cos(v);
            let p = g.mul(s, c);
            g.sum_all(p)
        });
    }

    #[test]
    fn pow_scalar_grad() {
        let x = Tensor::row_vector(&[0.4, 0.9, 0.2]);
        assert_gradients_close(&x, EPS, TOL, |g, v| {
            let p = g.pow_scalar(v, 2.0);
            g.sum_all(p)
        });
    }
}
