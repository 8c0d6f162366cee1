//! Training of the Holt smoothing parameters (the paper's Eq. 5).
//!
//! The paper obtains α and β "by training the past renewable power
//! generation records", minimizing the squared difference ΔD² between
//! predicted and observed values within the `[0, 1] × [0, 1]` constraint.
//! We implement this as a coarse grid search followed by a local grid
//! refinement around the best coarse cell — derivative-free, robust, and
//! fast enough to re-run every few hours of simulated time. Each grid is
//! scored a chunk of points at a time, all of them stepping through the
//! history together, with the same result bit for bit as scoring the
//! points one by one.

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::predictor::HoltPredictor;

/// A trained (α, β) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HoltParams {
    /// Level smoothing parameter.
    pub alpha: f64,
    /// Trend smoothing parameter.
    pub beta: f64,
}

impl HoltParams {
    /// Reasonable defaults for a diurnal power series when no history is
    /// available yet: responsive level, conservative trend.
    pub const DEFAULT: HoltParams = HoltParams {
        alpha: 0.8,
        beta: 0.2,
    };

    /// Builds a predictor from these parameters.
    ///
    /// # Panics
    ///
    /// Never panics for values produced by [`train_holt`]; panics if the
    /// fields were manually set outside `[0, 1]`.
    #[must_use]
    #[allow(clippy::expect_used)]
    pub fn predictor(self) -> HoltPredictor {
        HoltPredictor::new(self.alpha, self.beta)
            // greenhetero-lint: allow(GH001) documented panic contract on manually-built params
            .expect("HoltParams fields must lie in [0, 1]")
    }
}

impl Default for HoltParams {
    fn default() -> Self {
        HoltParams::DEFAULT
    }
}

/// Result of a training run: the chosen parameters and their training error.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainOutcome {
    /// The parameters minimizing the training SSE.
    pub params: HoltParams,
    /// Sum of squared one-step-ahead errors over the history (ΔD²).
    pub sse: f64,
}

/// Trains Holt parameters on `history` by two-level grid search.
///
/// `coarse_step` is the spacing of the first grid (the paper does not state
/// its granularity; `0.05` is a good default). A second grid with one tenth
/// of that spacing is searched around the best coarse point.
///
/// # Errors
///
/// * [`CoreError::NoObservations`] if `history` has fewer than 3 points —
///   a shorter series cannot score even one prediction meaningfully.
/// * [`CoreError::InvalidQuantity`] if `coarse_step` is not in `(0, 1]`.
///
/// # Examples
///
/// ```
/// use greenhetero_core::predictor::train_holt;
///
/// // A sine-like power curve: training finds parameters with low error.
/// let history: Vec<f64> = (0..96)
///     .map(|i| (1.0 - ((i as f64 / 96.0 - 0.5) * 3.0).powi(2)).max(0.0) * 1000.0)
///     .collect();
/// let outcome = train_holt(&history, 0.05)?;
/// assert!(outcome.sse.is_finite());
/// assert!((0.0..=1.0).contains(&outcome.params.alpha));
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
// greenhetero-lint: allow(GH002) the predictor smooths an abstract series; units are the caller's
pub fn train_holt(history: &[f64], coarse_step: f64) -> Result<TrainOutcome, CoreError> {
    if history.len() < 3 {
        return Err(CoreError::NoObservations);
    }
    if !coarse_step.is_finite() || coarse_step <= 0.0 || coarse_step > 1.0 {
        return Err(CoreError::InvalidQuantity {
            quantity: "coarse_step",
            value: coarse_step,
        });
    }

    let coarse = grid_search(history, 0.0, 1.0, 0.0, 1.0, coarse_step);
    let fine_step = coarse_step / 10.0;
    let refined = grid_search(
        history,
        (coarse.params.alpha - coarse_step).max(0.0),
        (coarse.params.alpha + coarse_step).min(1.0),
        (coarse.params.beta - coarse_step).max(0.0),
        (coarse.params.beta + coarse_step).min(1.0),
        fine_step,
    );
    Ok(if refined.sse < coarse.sse {
        refined
    } else {
        coarse
    })
}

/// Grid points scored together per pass over the history. A chunk's
/// level, trend and error columns live on the stack (a few kB), so the
/// search allocates nothing and keeps no buffer between calls.
const LANES: usize = 64;

/// Scores every point of the `[alpha_lo, alpha_hi] × [beta_lo, beta_hi]`
/// grid and returns the regularized arg-min.
///
/// The points are scored [`LANES`] at a time by [`score_chunk`], but the
/// result is bit-identical to scoring them one by one with
/// [`sum_squared_error`](crate::predictor::sum_squared_error): every lane
/// performs the same IEEE operations as the scalar recurrence, and the
/// arg-min is scanned in the scalar grid's order with the same strict `<`,
/// so ties still go to the first point.
fn grid_search(
    history: &[f64],
    alpha_lo: f64,
    alpha_hi: f64,
    beta_lo: f64,
    beta_hi: f64,
    step: f64,
) -> TrainOutcome {
    // Degenerate histories (e.g. a night of all-zero solar readings) score
    // every (α, β) identically; a naive arg-min would then lock in α = 0,
    // which can never track the series again once it starts moving. A tiny
    // regularizer pulls ties toward the responsive defaults without
    // affecting genuinely informative histories.
    let scale = history.iter().map(|v| v * v).sum::<f64>().max(1.0);
    let weight = 1e-9 * scale;

    let mut best = TrainOutcome {
        params: HoltParams {
            alpha: alpha_lo,
            beta: beta_lo,
        },
        sse: f64::INFINITY,
    };
    let mut best_score = f64::INFINITY;
    let mut points = GridPoints {
        alpha: alpha_lo,
        beta: beta_lo,
        alpha_end: alpha_hi + 1e-12,
        beta_lo,
        beta_end: beta_hi + 1e-12,
        step,
    };
    let mut alphas = [0.0; LANES];
    let mut betas = [0.0; LANES];
    let mut sse = [0.0; LANES];
    loop {
        let mut len = 0;
        for (i, (a, b)) in points.by_ref().take(LANES).enumerate() {
            alphas[i] = a;
            betas[i] = b;
            len = i + 1;
        }
        if len == 0 {
            return best;
        }
        score_chunk(history, &alphas, &betas, &mut sse);
        for ((&a, &b), &lane_sse) in alphas.iter().zip(&betas).zip(&sse).take(len) {
            let da = a - HoltParams::DEFAULT.alpha;
            let db = b - HoltParams::DEFAULT.beta;
            let score = lane_sse + weight * (da * da + db * db);
            if score < best_score {
                best_score = score;
                best = TrainOutcome {
                    params: HoltParams { alpha: a, beta: b },
                    sse: lane_sse,
                };
            }
        }
        if len < LANES {
            return best;
        }
    }
}

/// The search grid in scoring order: α-major, each coordinate advanced by
/// repeated `+= step` from its lower end (not `lo + k·step`, whose
/// rounding differs) and clamped into `[0, 1]`, duplicates kept.
struct GridPoints {
    alpha: f64,
    beta: f64,
    alpha_end: f64,
    beta_lo: f64,
    beta_end: f64,
    step: f64,
}

impl Iterator for GridPoints {
    type Item = (f64, f64);

    fn next(&mut self) -> Option<(f64, f64)> {
        while self.alpha <= self.alpha_end {
            if self.beta <= self.beta_end {
                let point = (self.alpha.clamp(0.0, 1.0), self.beta.clamp(0.0, 1.0));
                self.beta += self.step;
                return Some(point);
            }
            self.alpha += self.step;
            self.beta = self.beta_lo;
        }
        None
    }
}

/// Writes into `sse` the one-step-ahead SSE of Holt's recurrence over
/// `history` for each `(alphas[i], betas[i])` lane.
///
/// The lanes step through the history together, so the loop over lanes
/// has no dependency chain and vectorizes. Per lane this is
/// [`sum_squared_error`](crate::predictor::sum_squared_error) of a
/// [`HoltPredictor`](crate::predictor::HoltPredictor), operation for
/// operation: the first two observations only prime the level and trend
/// and are the same for every lane, so they are taken once; `1 − α` and
/// `1 − β` are hoisted out of the loop (the same values the scalar code
/// recomputes each step); and the forecast `level + trend` (the scalar
/// `level + 1.0·trend`, the same value) feeds both the error and the
/// level update, as it does there.
fn score_chunk(
    history: &[f64],
    alphas: &[f64; LANES],
    betas: &[f64; LANES],
    sse: &mut [f64; LANES],
) {
    let [first, second, rest @ ..] = history else {
        // Fewer than two observations: nothing was ever forecast.
        *sse = [0.0; LANES];
        return;
    };
    // The primed forecast is the first observation itself. The scalar sum
    // starts at +0.0, and adding a square (never −0.0) to it is exact.
    let warmup = first - second;
    *sse = [warmup * warmup; LANES];
    let mut level = [*second; LANES];
    let mut trend = [second - first; LANES];
    let keep_level = alphas.map(|a| 1.0 - a);
    let keep_trend = betas.map(|b| 1.0 - b);
    for &observed in rest {
        for i in 0..LANES {
            let forecast = level[i] + trend[i];
            let d = forecast - observed;
            sse[i] += d * d;
            let new_level = alphas[i] * observed + keep_level[i] * forecast;
            trend[i] = betas[i] * (new_level - level[i]) + keep_trend[i] * trend[i];
            level[i] = new_level;
        }
    }
}

/// Trains on `history` but falls back to [`HoltParams::DEFAULT`] when the
/// history is too short to train — the behaviour the scheduler wants during
/// the first epochs of a run.
#[must_use]
// greenhetero-lint: allow(GH002) the predictor smooths an abstract series; units are the caller's
pub fn train_or_default(history: &[f64], coarse_step: f64) -> HoltParams {
    train_holt(history, coarse_step)
        .map(|o| o.params)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::sum_squared_error;

    /// The scalar search `grid_search` replaces: one `HoltPredictor` per
    /// grid point, scored in turn.
    fn grid_search_scalar(
        history: &[f64],
        alpha_lo: f64,
        alpha_hi: f64,
        beta_lo: f64,
        beta_hi: f64,
        step: f64,
    ) -> TrainOutcome {
        let scale = history.iter().map(|v| v * v).sum::<f64>().max(1.0);
        let regularizer = |a: f64, b: f64| {
            let da = a - HoltParams::DEFAULT.alpha;
            let db = b - HoltParams::DEFAULT.beta;
            1e-9 * scale * (da * da + db * db)
        };
        let mut best = TrainOutcome {
            params: HoltParams {
                alpha: alpha_lo,
                beta: beta_lo,
            },
            sse: f64::INFINITY,
        };
        let mut best_score = f64::INFINITY;
        let mut alpha = alpha_lo;
        while alpha <= alpha_hi + 1e-12 {
            let mut beta = beta_lo;
            while beta <= beta_hi + 1e-12 {
                let a = alpha.clamp(0.0, 1.0);
                let b = beta.clamp(0.0, 1.0);
                let sse = sum_squared_error(HoltPredictor::new(a, b).unwrap(), history);
                let score = sse + regularizer(a, b);
                if score < best_score {
                    best_score = score;
                    best = TrainOutcome {
                        params: HoltParams { alpha: a, beta: b },
                        sse,
                    };
                }
                beta += step;
            }
            alpha += step;
        }
        best
    }

    fn bits(o: TrainOutcome) -> (u64, u64, u64) {
        (
            o.params.alpha.to_bits(),
            o.params.beta.to_bits(),
            o.sse.to_bits(),
        )
    }

    #[test]
    fn lane_kernel_matches_scalar_reference() {
        // Lengths around the warm-up and chunk edges, steps whose grids
        // end mid-chunk, windows clipped at either end, and histories
        // with ties (constant, all-zero) and a sunrise.
        let windows = [
            (0.0, 1.0, 0.0, 1.0),
            (0.0, 0.1, 0.9, 1.0),
            (0.35, 0.45, 0.0, 0.05),
            (0.2, 0.2, 0.3, 0.3),
        ];
        for len in [0, 1, 2, 3, 4, 5, 17, 64, 65, 96, 130] {
            let wavy: Vec<f64> = (0..len)
                .map(|i| 400.0 + 300.0 * (f64::from(i) * 0.37).sin() + f64::from(i % 7))
                .collect();
            let sunrise: Vec<f64> = (0..len)
                .map(|i| (f64::from(i) - 10.0).max(0.0) * 25.0)
                .collect();
            for history in [
                wavy,
                sunrise,
                vec![0.0; len as usize],
                vec![42.5; len as usize],
            ] {
                for step in [0.03, 0.05, 0.1, 0.2, 1.0, 0.005] {
                    for (a_lo, a_hi, b_lo, b_hi) in windows {
                        assert_eq!(
                            bits(grid_search(&history, a_lo, a_hi, b_lo, b_hi, step)),
                            bits(grid_search_scalar(&history, a_lo, a_hi, b_lo, b_hi, step)),
                            "len {len}, step {step}, window {:?}",
                            (a_lo, a_hi, b_lo, b_hi)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_short_history() {
        assert_eq!(train_holt(&[1.0, 2.0], 0.1), Err(CoreError::NoObservations));
    }

    #[test]
    fn rejects_bad_step() {
        let h = [1.0, 2.0, 3.0, 4.0];
        assert!(train_holt(&h, 0.0).is_err());
        assert!(train_holt(&h, 1.5).is_err());
        assert!(train_holt(&h, f64::NAN).is_err());
    }

    #[test]
    fn linear_series_is_tracked_exactly() {
        // Holt's trend initialization makes a noiseless linear ramp exactly
        // predictable for *every* (α, β), so the trained SSE must be ~0.
        // The only irreducible error is the warm-up prediction after a
        // single observation (it predicts 0 for the observed 10 → 100).
        let history: Vec<f64> = (0..60).map(|i| 10.0 * f64::from(i)).collect();
        let outcome = train_holt(&history, 0.1).unwrap();
        assert!(outcome.sse <= 100.0 + 1e-9, "sse = {}", outcome.sse);
    }

    #[test]
    fn training_beats_a_fixed_midpoint_choice() {
        // A bent ramp (slope change halfway): the trained parameters must
        // do at least as well as an arbitrary fixed pick.
        let history: Vec<f64> = (0..80)
            .map(|i| {
                if i < 40 {
                    5.0 * f64::from(i)
                } else {
                    200.0 + 25.0 * f64::from(i - 40)
                }
            })
            .collect();
        let outcome = train_holt(&history, 0.05).unwrap();
        let fixed =
            crate::predictor::sum_squared_error(HoltPredictor::new(0.5, 0.5).unwrap(), &history);
        assert!(outcome.sse <= fixed + 1e-9, "{} vs {}", outcome.sse, fixed);
    }

    #[test]
    fn noisy_constant_training_beats_full_responsiveness() {
        // Alternating noise around a constant: chasing every observation
        // (α = β = 1) is the worst thing to do; training must beat it.
        let history: Vec<f64> = (0..80)
            .map(|i| 200.0 + if i % 2 == 0 { 15.0 } else { -15.0 })
            .collect();
        let outcome = train_holt(&history, 0.05).unwrap();
        let chasing =
            crate::predictor::sum_squared_error(HoltPredictor::new(1.0, 1.0).unwrap(), &history);
        assert!(outcome.sse < chasing, "{} vs {}", outcome.sse, chasing);
    }

    #[test]
    fn refinement_never_worse_than_coarse() {
        let history: Vec<f64> = (0..50)
            .map(|i| 100.0 + (f64::from(i) * 0.7).sin() * 30.0 + f64::from(i))
            .collect();
        let coarse_only = grid_search(&history, 0.0, 1.0, 0.0, 1.0, 0.1);
        let trained = train_holt(&history, 0.1).unwrap();
        assert!(trained.sse <= coarse_only.sse + 1e-12);
    }

    #[test]
    fn trained_params_are_valid_for_predictor_construction() {
        let history: Vec<f64> = (0..30).map(|i| (f64::from(i) * 0.3).cos() * 50.0).collect();
        let outcome = train_holt(&history, 0.2).unwrap();
        let _ = outcome.params.predictor(); // must not panic
    }

    #[test]
    fn degenerate_history_keeps_responsive_defaults() {
        // An all-zero (night-time solar) history scores every (α, β)
        // identically; training must not lock in α = 0.
        let history = vec![0.0; 24];
        let outcome = train_holt(&history, 0.05).unwrap();
        assert!(
            (outcome.params.alpha - HoltParams::DEFAULT.alpha).abs() < 0.11,
            "{:?}",
            outcome.params
        );
        // And the trained predictor still tracks a sunrise afterwards.
        use crate::predictor::Predictor as _;
        let mut p = outcome.params.predictor();
        for v in [0.0, 0.0, 100.0, 300.0, 600.0] {
            p.observe(v);
        }
        assert!(p.predict().unwrap() > 400.0);
    }

    #[test]
    fn train_or_default_falls_back() {
        assert_eq!(train_or_default(&[1.0], 0.1), HoltParams::DEFAULT);
        // A trainable history yields *some* valid parameters.
        let history: Vec<f64> = (0..30).map(|i| (f64::from(i) * 0.4).sin() * 50.0).collect();
        let trained = train_or_default(&history, 0.1);
        assert!((0.0..=1.0).contains(&trained.alpha));
        assert!((0.0..=1.0).contains(&trained.beta));
    }
}
