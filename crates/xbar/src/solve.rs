//! Linear-algebra kernels used by the crossbar MNA solver.
//!
//! * [`dense`] — LU factorization with partial pivoting, `O(n³)`; used for
//!   small arrays and as the reference in tests.
//! * [`tridiag`] — Thomas algorithm for the per-line subproblems of the
//!   block Gauss–Seidel ("line relaxation") solver.

/// Dense direct solver.
pub mod dense {
    /// Solves `a · x = b` in place via LU with partial pivoting.
    ///
    /// `a` is a row-major `n × n` matrix; both `a` and `b` are consumed and
    /// overwritten. Returns the solution vector.
    ///
    /// # Errors
    ///
    /// Returns `Err(col)` if a zero (or numerically negligible) pivot is
    /// encountered at column `col`, i.e. the matrix is singular.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != b.len() * b.len()`.
    pub fn lu_solve(mut a: Vec<f64>, mut b: Vec<f64>) -> Result<Vec<f64>, usize> {
        let n = b.len();
        assert_eq!(a.len(), n * n, "matrix/vector dimension mismatch");
        for k in 0..n {
            // Partial pivoting.
            let mut piv = k;
            let mut max = a[k * n + k].abs();
            for r in (k + 1)..n {
                let v = a[r * n + k].abs();
                if v > max {
                    max = v;
                    piv = r;
                }
            }
            if max < 1e-300 {
                return Err(k);
            }
            if piv != k {
                for c in 0..n {
                    a.swap(k * n + c, piv * n + c);
                }
                b.swap(k, piv);
            }
            let pivot = a[k * n + k];
            for r in (k + 1)..n {
                let f = a[r * n + k] / pivot;
                if f == 0.0 {
                    continue;
                }
                a[r * n + k] = 0.0;
                for c in (k + 1)..n {
                    a[r * n + c] -= f * a[k * n + c];
                }
                b[r] -= f * b[k];
            }
        }
        // Back substitution.
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let mut s = b[k];
            for c in (k + 1)..n {
                s -= a[k * n + c] * x[c];
            }
            x[k] = s / a[k * n + k];
        }
        Ok(x)
    }
}

/// Thomas-algorithm tridiagonal solver.
pub mod tridiag {
    /// Solves a tridiagonal system in `O(n)`.
    ///
    /// `lower[i]` couples unknown `i` to `i-1` (with `lower[0]` unused),
    /// `diag[i]` is the main diagonal and `upper[i]` couples `i` to `i+1`
    /// (with `upper[n-1]` unused). `rhs` is overwritten with intermediate
    /// values; scratch buffers are provided by the caller so hot loops do
    /// not allocate.
    ///
    /// # Panics
    ///
    /// Panics if the slices have mismatched lengths, or (debug builds only)
    /// if a pivot underflows, which cannot happen for the diagonally
    /// dominant systems produced by resistive networks.
    pub fn solve_into(
        lower: &[f64],
        diag: &[f64],
        upper: &[f64],
        rhs: &mut [f64],
        scratch: &mut [f64],
        x: &mut [f64],
    ) {
        let n = diag.len();
        assert!(
            lower.len() == n && upper.len() == n && rhs.len() == n && x.len() == n,
            "tridiagonal system slice length mismatch"
        );
        assert_eq!(scratch.len(), n, "scratch length mismatch");
        // Forward elimination: scratch holds the modified upper diagonal.
        let mut beta = diag[0];
        debug_assert!(beta.abs() > 1e-300, "zero pivot in tridiagonal solve");
        scratch[0] = upper[0] / beta;
        rhs[0] /= beta;
        for i in 1..n {
            beta = diag[i] - lower[i] * scratch[i - 1];
            debug_assert!(beta.abs() > 1e-300, "zero pivot in tridiagonal solve");
            scratch[i] = upper[i] / beta;
            rhs[i] = (rhs[i] - lower[i] * rhs[i - 1]) / beta;
        }
        // Back substitution.
        x[n - 1] = rhs[n - 1];
        for i in (0..n - 1).rev() {
            x[i] = rhs[i] - scratch[i] * x[i + 1];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_solves_identity() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![3.0, -4.0];
        let x = dense::lu_solve(a, b).expect("solvable");
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] + 4.0).abs() < 1e-12);
    }

    #[test]
    fn dense_solves_with_pivoting() {
        // Requires a row swap: zero leading pivot.
        let a = vec![0.0, 1.0, 1.0, 0.0];
        let b = vec![2.0, 5.0];
        let x = dense::lu_solve(a, b).expect("solvable");
        assert!((x[0] - 5.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn dense_detects_singular() {
        let a = vec![1.0, 2.0, 2.0, 4.0];
        assert!(dense::lu_solve(a, vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn tridiag_matches_dense() {
        let n = 7;
        let lower = vec![-1.0; n];
        let diag = vec![4.0; n];
        let upper = vec![-1.5; n];
        let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 1.0).collect();
        // Dense reference.
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = diag[i];
            if i > 0 {
                a[i * n + i - 1] = lower[i];
            }
            if i + 1 < n {
                a[i * n + i + 1] = upper[i];
            }
        }
        let x_ref = dense::lu_solve(a, rhs.clone()).expect("solvable");
        let mut rhs_mut = rhs;
        let mut scratch = vec![0.0; n];
        let mut x = vec![0.0; n];
        tridiag::solve_into(&lower, &diag, &upper, &mut rhs_mut, &mut scratch, &mut x);
        for (xa, xb) in x.iter().zip(&x_ref) {
            assert!((xa - xb).abs() < 1e-10);
        }
    }
}
