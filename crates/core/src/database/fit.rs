//! Least-squares quadratic curve fitting (`Perf = l + m·P + n·P²`).
//!
//! The paper (§IV-B2) fits a quadratic relational equation to the (power,
//! performance) samples collected during training runs — quadratic because
//! a linear projection cannot express performance saturation near peak
//! power, while higher orders needlessly complicate the solver.
//!
//! Numerical care: powers are standardized (centered and scaled) before the
//! normal equations are solved, then the coefficients are mapped back to
//! the raw power domain. Raw watt values in the hundreds would otherwise
//! produce badly conditioned `P⁴` sums.

use serde::{Deserialize, Serialize};

use crate::error::CoreError;

/// Coefficients of `y = l + m·x + n·x²` in the raw (watt) domain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quadratic {
    /// Constant term `l`.
    pub l: f64,
    /// Linear term `m`.
    pub m: f64,
    /// Quadratic term `n`.
    pub n: f64,
}

impl Quadratic {
    /// Evaluates the polynomial at `x`.
    #[must_use]
    // greenhetero-lint: allow(GH002) Quadratic is the raw-math layer beneath the newtypes
    pub fn eval(&self, x: f64) -> f64 {
        self.l + self.m * x + self.n * x * x
    }

    /// First derivative `m + 2·n·x`.
    #[must_use]
    // greenhetero-lint: allow(GH002) Quadratic is the raw-math layer beneath the newtypes
    pub fn derivative(&self, x: f64) -> f64 {
        self.m + 2.0 * self.n * x
    }

    /// `true` if the parabola opens downward (diminishing returns), the
    /// physically expected shape for performance vs. power.
    #[must_use]
    pub fn is_concave(&self) -> bool {
        self.n <= 0.0
    }

    /// The stationary point `-m / 2n`, if the quadratic term is non-zero.
    #[must_use]
    // greenhetero-lint: allow(GH002) Quadratic is the raw-math layer beneath the newtypes
    pub fn vertex(&self) -> Option<f64> {
        if self.n == 0.0 {
            None
        } else {
            Some(-self.m / (2.0 * self.n))
        }
    }
}

/// A fitted curve together with its fit quality.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitResult {
    /// The fitted coefficients.
    pub curve: Quadratic,
    /// Root-mean-square residual of the fit.
    pub rmse: f64,
    /// Number of samples used.
    pub samples: usize,
}

/// Fits `y = l + m·x + n·x²` to the given points by least squares.
///
/// Falls back to a linear fit (`n = 0`) when only two distinct `x` values
/// are present, and to a constant when only one distinct `x` exists but
/// multiple samples share it (their mean). The training run collects five
/// samples, so the quadratic path is the common case.
///
/// # Errors
///
/// * [`CoreError::InsufficientSamples`] if fewer than 2 points are given.
/// * [`CoreError::DegenerateFit`] if the system is singular despite enough
///   distinct points (should not happen with standardized inputs).
///
/// # Examples
///
/// ```
/// use greenhetero_core::database::fit_quadratic;
///
/// // Samples from y = 5 + 2x − 0.01x²
/// let pts: Vec<(f64, f64)> = [60.0, 80.0, 100.0, 120.0, 140.0]
///     .iter()
///     .map(|&x| (x, 5.0 + 2.0 * x - 0.01 * x * x))
///     .collect();
/// let fit = fit_quadratic(&pts)?;
/// assert!((fit.curve.l - 5.0).abs() < 1e-6);
/// assert!((fit.curve.m - 2.0).abs() < 1e-8);
/// assert!((fit.curve.n + 0.01).abs() < 1e-10);
/// assert!(fit.rmse < 1e-8);
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
// greenhetero-lint: allow(GH002) least-squares input is raw (power, throughput) samples
pub fn fit_quadratic(points: &[(f64, f64)]) -> Result<FitResult, CoreError> {
    let curve = fit_curve(points, |&point| point, distinct_x_upto_3(points, |p| p.0))?;
    let sse: f64 = points
        .iter()
        .map(|&(x, y)| {
            let r = curve.eval(x) - y;
            r * r
        })
        .sum();
    Ok(FitResult {
        curve,
        rmse: (sse / points.len() as f64).sqrt(),
        samples: points.len(),
    })
}

/// [`fit_quadratic`]'s curve over any sample type, read in place: `xy`
/// maps a sample to its `(x, y)` point, and `distinct_x` is
/// [`distinct_x_upto_3`] of the samples' `x` values, which picks the
/// constant, linear or quadratic fit. Allocation-free and O(n): the
/// points are never copied, standardized `x` values are recomputed where
/// a sum needs them, and every sum is accumulated over the samples in
/// slice order.
pub(crate) fn fit_curve<T>(
    samples: &[T],
    xy: impl Fn(&T) -> (f64, f64) + Copy,
    distinct_x: usize,
) -> Result<Quadratic, CoreError> {
    if samples.len() < 2 {
        return Err(CoreError::InsufficientSamples {
            got: samples.len(),
            need: 2,
        });
    }
    match distinct_x {
        1 => {
            // All samples at one power level: the best projection is their
            // mean, constant in power.
            let mean_y = samples.iter().map(|s| xy(s).1).sum::<f64>() / samples.len() as f64;
            Ok(Quadratic {
                l: mean_y,
                m: 0.0,
                n: 0.0,
            })
        }
        2 => fit_linear(samples, xy),
        _ => fit_quadratic_full(samples, xy),
    }
}

/// The number of distinct `x` values, capped at 3, where two values count
/// as one when they lie within `1e-9` — exactly the count a copy sorted
/// with `f64::total_cmp` and then `dedup_by(|a, b| (a - b).abs() < 1e-9)`
/// leaves, without the copy or the sort.
///
/// That chain keeps the minimum `x0`, drops what follows it while it is
/// within `1e-9` of `x0`, keeps the next value `x1`, and so on. In sorted
/// order the values near `x0` form a prefix (`x − x0` only grows; NaN and
/// infinite differences are never near), so `x1` is the smallest value
/// not near `x0`, and a third survivor exists exactly when some other
/// value is near neither.
pub(crate) fn distinct_x_upto_3<T>(samples: &[T], x: impl Fn(&T) -> f64) -> usize {
    let near = |value: f64, kept: f64| (value - kept).abs() < 1e-9;
    let smallest = |keep: &dyn Fn(usize, f64) -> bool| {
        samples
            .iter()
            .map(&x)
            .enumerate()
            .filter(|&(i, value)| keep(i, value))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    };
    let Some((i0, x0)) = smallest(&|_, _| true) else {
        return 0;
    };
    let Some((i1, x1)) = smallest(&|i, value| i != i0 && !near(value, x0)) else {
        return 1;
    };
    let third = samples
        .iter()
        .map(&x)
        .enumerate()
        .any(|(i, value)| i != i0 && i != i1 && !near(value, x0) && !near(value, x1));
    if third {
        3
    } else {
        2
    }
}

/// The mean and scale that standardize `x` as `q = (x − mean) / scale`.
fn standardization<T>(samples: &[T], xy: impl Fn(&T) -> (f64, f64)) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().map(|s| xy(s).0).sum::<f64>() / n;
    let var = samples
        .iter()
        .map(|s| (xy(s).0 - mean).powi(2))
        .sum::<f64>()
        / n;
    (mean, var.sqrt().max(1e-12))
}

fn fit_linear<T>(
    samples: &[T],
    xy: impl Fn(&T) -> (f64, f64) + Copy,
) -> Result<Quadratic, CoreError> {
    let (mu, s) = standardization(samples, xy);
    let qy = |sample: &T| {
        let (x, y) = xy(sample);
        ((x - mu) / s, y)
    };
    let n = samples.len() as f64;
    let sx: f64 = samples.iter().map(|p| qy(p).0).sum();
    let sxx: f64 = samples
        .iter()
        .map(|p| {
            let q = qy(p).0;
            q * q
        })
        .sum();
    let sy: f64 = samples.iter().map(|p| xy(p).1).sum();
    let sxy: f64 = samples
        .iter()
        .map(|p| {
            let (q, y) = qy(p);
            q * y
        })
        .sum();
    let det = n * sxx - sx * sx;
    if det.abs() < 1e-12 {
        return Err(CoreError::DegenerateFit);
    }
    let a = (sy * sxx - sx * sxy) / det; // intercept in standardized domain
    let b = (n * sxy - sx * sy) / det; // slope in standardized domain
    Ok(destandardize(a, b, 0.0, mu, s))
}

fn fit_quadratic_full<T>(
    samples: &[T],
    xy: impl Fn(&T) -> (f64, f64) + Copy,
) -> Result<Quadratic, CoreError> {
    let (mu, s) = standardization(samples, xy);
    // Normal equations for [a, b, c] of y = a + b·q + c·q².
    let mut m = [[0.0f64; 3]; 3];
    let mut v = [0.0f64; 3];
    for sample in samples {
        let (x, y) = xy(sample);
        let q = (x - mu) / s;
        let basis = [1.0, q, q * q];
        for i in 0..3 {
            for j in 0..3 {
                m[i][j] += basis[i] * basis[j];
            }
            v[i] += basis[i] * y;
        }
    }
    let coeffs = solve_3x3(m, v).ok_or(CoreError::DegenerateFit)?;
    Ok(destandardize(coeffs[0], coeffs[1], coeffs[2], mu, s))
}

/// Maps `y = a + b·q + c·q²` with `q = (x − μ)/s` back to the raw domain.
fn destandardize(a: f64, b: f64, c: f64, mu: f64, s: f64) -> Quadratic {
    let l = a - b * mu / s + c * mu * mu / (s * s);
    let m = b / s - 2.0 * c * mu / (s * s);
    let n = c / (s * s);
    Quadratic { l, m, n }
}

/// Gaussian elimination with partial pivoting for a 3×3 system.
fn solve_3x3(mut m: [[f64; 3]; 3], mut v: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        // Partial pivot.
        let pivot_row = (col..3)
            .max_by(|&a, &b| m[a][col].abs().total_cmp(&m[b][col].abs()))
            .unwrap_or(col);
        if m[pivot_row][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot_row);
        v.swap(col, pivot_row);
        for row in (col + 1)..3 {
            let factor = m[row][col] / m[col][col];
            let pivot_row_vals = m[col];
            for (k, pivot_val) in pivot_row_vals.iter().enumerate().skip(col) {
                m[row][k] -= factor * pivot_val;
            }
            v[row] -= factor * v[col];
        }
    }
    // Back substitution.
    let mut x = [0.0f64; 3];
    for row in (0..3).rev() {
        let mut acc = v[row];
        for k in (row + 1)..3 {
            acc -= m[row][k] * x[k];
        }
        x[row] = acc / m[row][row];
    }
    Some(x)
}

#[cfg(test)]
// Tests compare results of exact literal arithmetic.
#[allow(clippy::float_cmp)]
pub(crate) mod tests {
    use super::*;

    fn sample_curve(q: Quadratic, xs: &[f64]) -> Vec<(f64, f64)> {
        xs.iter().map(|&x| (x, q.eval(x))).collect()
    }

    /// The copy-and-sort fit `fit_quadratic` replaces: distinct powers
    /// counted on a sorted, deduplicated copy, sums taken over a
    /// standardized copy.
    pub(crate) fn fit_reference(points: &[(f64, f64)]) -> Result<FitResult, CoreError> {
        if points.len() < 2 {
            return Err(CoreError::InsufficientSamples {
                got: points.len(),
                need: 2,
            });
        }
        let mut xs: Vec<f64> = points.iter().map(|p| p.0).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        let n = points.len() as f64;
        let mean = points.iter().map(|p| p.0).sum::<f64>() / n;
        let var = points.iter().map(|p| (p.0 - mean).powi(2)).sum::<f64>() / n;
        let scale = var.sqrt().max(1e-12);
        let std_pts: Vec<(f64, f64)> = points
            .iter()
            .map(|&(x, y)| ((x - mean) / scale, y))
            .collect();
        let curve = match xs.len() {
            1 => Quadratic {
                l: points.iter().map(|p| p.1).sum::<f64>() / n,
                m: 0.0,
                n: 0.0,
            },
            2 => {
                let sx: f64 = std_pts.iter().map(|p| p.0).sum();
                let sxx: f64 = std_pts.iter().map(|p| p.0 * p.0).sum();
                let sy: f64 = std_pts.iter().map(|p| p.1).sum();
                let sxy: f64 = std_pts.iter().map(|p| p.0 * p.1).sum();
                let det = n * sxx - sx * sx;
                if det.abs() < 1e-12 {
                    return Err(CoreError::DegenerateFit);
                }
                let a = (sy * sxx - sx * sxy) / det;
                let b = (n * sxy - sx * sy) / det;
                destandardize(a, b, 0.0, mean, scale)
            }
            _ => {
                let mut m = [[0.0f64; 3]; 3];
                let mut v = [0.0f64; 3];
                for &(q, y) in &std_pts {
                    let basis = [1.0, q, q * q];
                    for i in 0..3 {
                        for j in 0..3 {
                            m[i][j] += basis[i] * basis[j];
                        }
                        v[i] += basis[i] * y;
                    }
                }
                let c = solve_3x3(m, v).ok_or(CoreError::DegenerateFit)?;
                destandardize(c[0], c[1], c[2], mean, scale)
            }
        };
        let sse: f64 = points
            .iter()
            .map(|&(x, y)| {
                let r = curve.eval(x) - y;
                r * r
            })
            .sum();
        Ok(FitResult {
            curve,
            rmse: (sse / n).sqrt(),
            samples: points.len(),
        })
    }

    /// A fit result as raw bits, so NaN compares equal to the same NaN.
    pub(crate) fn fit_bits(fit: &Result<FitResult, CoreError>) -> Result<[u64; 4], CoreError> {
        fit.clone().map(|f| {
            [
                f.curve.l.to_bits(),
                f.curve.m.to_bits(),
                f.curve.n.to_bits(),
                f.rmse.to_bits(),
            ]
        })
    }

    #[test]
    fn in_place_fit_matches_copy_and_sort_reference() {
        // Distinct-power counts of 1, 2 and 3+, tolerance chains that
        // drop or keep a neighbour, signed zeros, and non-finite powers.
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        let xs_cases: [&[f64]; 16] = [
            &[80.0, 80.0],
            &[80.0, 80.0 + 0.5e-9, 80.0 - 0.4e-9],
            &[80.0, 80.0 + 0.6e-9, 80.0 + 1.2e-9],
            &[80.0 + 1.8e-9, 80.0, 80.0 + 0.9e-9],
            &[
                80.0,
                80.0 + 0.6e-9,
                80.0 + 1.2e-9,
                80.0 + 1.8e-9,
                80.0 + 2.4e-9,
            ],
            &[50.0, 100.0, 100.0],
            &[100.0, 50.0, 100.0 + 1e-9, 50.0 - 0.5e-9],
            &[150.0, 215.0, 280.0, 345.0, 411.0],
            &[0.0, -0.0, 0.0],
            &[-0.0, 0.5e-9, 1e-9, 2e-9],
            &[60.0, nan, 70.0],
            &[nan, nan],
            &[inf, inf, 60.0],
            &[-inf, 60.0, 60.0],
            &[60.0, 60.0, -nan],
            &[inf, nan, -inf, 60.0],
        ];
        for xs in xs_cases {
            for perm in 0..xs.len() {
                let pts: Vec<(f64, f64)> = (0..xs.len())
                    .map(|i| {
                        let x = xs[(i + perm) % xs.len()];
                        (x, 3.0 + 0.5 * f64::from(i as u32) - 0.01 * x)
                    })
                    .collect();
                assert_eq!(
                    fit_bits(&fit_quadratic(&pts)),
                    fit_bits(&fit_reference(&pts)),
                    "{pts:?}"
                );
            }
        }
    }

    #[test]
    fn recovers_exact_quadratic() {
        let truth = Quadratic {
            l: -120.0,
            m: 4.5,
            n: -0.012,
        };
        let pts = sample_curve(truth, &[50.0, 75.0, 100.0, 125.0, 150.0]);
        let fit = fit_quadratic(&pts).unwrap();
        assert!((fit.curve.l - truth.l).abs() < 1e-6);
        assert!((fit.curve.m - truth.m).abs() < 1e-7);
        assert!((fit.curve.n - truth.n).abs() < 1e-9);
        assert!(fit.rmse < 1e-7);
        assert_eq!(fit.samples, 5);
    }

    #[test]
    fn recovers_quadratic_with_noise_approximately() {
        let truth = Quadratic {
            l: 10.0,
            m: 2.0,
            n: -0.005,
        };
        // Deterministic pseudo-noise, alternating sign.
        let pts: Vec<(f64, f64)> = (0..20)
            .map(|i| {
                let x = 60.0 + 5.0 * f64::from(i);
                let noise = if i % 2 == 0 { 1.5 } else { -1.5 };
                (x, truth.eval(x) + noise)
            })
            .collect();
        let fit = fit_quadratic(&pts).unwrap();
        assert!((fit.curve.m - truth.m).abs() < 0.2);
        assert!(fit.rmse < 3.0);
    }

    #[test]
    fn two_distinct_points_fall_back_to_linear() {
        let pts = vec![(50.0, 100.0), (100.0, 200.0), (100.0, 200.0)];
        let fit = fit_quadratic(&pts).unwrap();
        assert_eq!(fit.curve.n, 0.0);
        assert!((fit.curve.eval(75.0) - 150.0).abs() < 1e-6);
    }

    #[test]
    fn one_distinct_point_falls_back_to_constant_mean() {
        let pts = vec![(80.0, 90.0), (80.0, 110.0)];
        let fit = fit_quadratic(&pts).unwrap();
        assert_eq!(fit.curve.m, 0.0);
        assert_eq!(fit.curve.n, 0.0);
        assert!((fit.curve.l - 100.0).abs() < 1e-9);
    }

    #[test]
    fn too_few_points_error() {
        assert_eq!(
            fit_quadratic(&[(1.0, 2.0)]),
            Err(CoreError::InsufficientSamples { got: 1, need: 2 })
        );
        assert_eq!(
            fit_quadratic(&[]),
            Err(CoreError::InsufficientSamples { got: 0, need: 2 })
        );
    }

    #[test]
    fn large_watt_values_stay_well_conditioned() {
        // GPU-class powers: hundreds of watts. Without standardization the
        // normal equations involve 1e10-scale sums.
        let truth = Quadratic {
            l: -500.0,
            m: 9.0,
            n: -0.009,
        };
        let pts = sample_curve(truth, &[150.0, 215.0, 280.0, 345.0, 411.0]);
        let fit = fit_quadratic(&pts).unwrap();
        assert!((fit.curve.n - truth.n).abs() < 1e-8);
        assert!(fit.rmse < 1e-6);
    }

    #[test]
    fn quadratic_helpers() {
        let q = Quadratic {
            l: 0.0,
            m: 4.0,
            n: -1.0,
        };
        assert_eq!(q.eval(2.0), 4.0);
        assert_eq!(q.derivative(2.0), 0.0);
        assert!(q.is_concave());
        assert_eq!(q.vertex(), Some(2.0));
        let lin = Quadratic {
            l: 1.0,
            m: 1.0,
            n: 0.0,
        };
        assert_eq!(lin.vertex(), None);
        assert!(lin.is_concave()); // n = 0 counts as (weakly) concave
    }

    #[test]
    fn solve_3x3_singular_returns_none() {
        let m = [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]];
        assert_eq!(solve_3x3(m, [1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn solve_3x3_identity() {
        let m = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
        let x = solve_3x3(m, [4.0, 5.0, 6.0]).unwrap();
        assert_eq!(x, [4.0, 5.0, 6.0]);
    }
}
