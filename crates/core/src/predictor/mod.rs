//! Time-series prediction of renewable power supply and rack power demand.
//!
//! The paper's scheduler (§IV-B1) predicts, at the start of each 15-minute
//! epoch, both the renewable power generation and the server-rack power
//! demand for the upcoming epoch, using **Holt double exponential
//! smoothing** (Eqs. 2–4) with smoothing parameters α and β trained on
//! historical records by minimizing the squared prediction error (Eq. 5).
//!
//! The paper notes that "any other proven prediction approaches can be
//! integrated" — the [`Predictor`] trait is that integration point, and
//! three baselines ([`LastValue`], [`MovingAverage`], [`SeasonalNaive`])
//! are provided for the predictor ablation.

mod baseline;
mod holt;
mod train;

pub use baseline::{LastValue, MovingAverage, SeasonalNaive};
pub use holt::HoltPredictor;
pub use train::{train_holt, train_holt_from, train_or_default, HoltParams, TrainOutcome};

use crate::error::CoreError;

/// A one-step-ahead time-series predictor over evenly spaced observations.
///
/// Implementations consume raw `f64` observations (the scheduler converts
/// [`crate::types::Watts`] at the boundary) and forecast the next value.
///
/// # Examples
///
/// ```
/// use greenhetero_core::predictor::{HoltPredictor, Predictor};
///
/// let mut p = HoltPredictor::new(0.8, 0.2)?;
/// for v in [100.0, 110.0, 120.0, 130.0] {
///     p.observe(v);
/// }
/// // A steady upward trend: the forecast continues it.
/// assert!(p.predict()? > 130.0);
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
pub trait Predictor {
    /// Feeds the observation for the epoch that just finished.
    // greenhetero-lint: allow(GH002) the predictor smooths an abstract series; units are the caller's
    fn observe(&mut self, value: f64);

    /// Forecasts the value for the next epoch.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoObservations`] if called before any
    /// observation has been fed.
    // greenhetero-lint: allow(GH002) the predictor smooths an abstract series; units are the caller's
    fn predict(&self) -> Result<f64, CoreError>;

    /// Number of observations consumed so far.
    fn len(&self) -> usize;

    /// `true` if no observations have been consumed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runs `predictor` over `history`, collecting the one-step-ahead squared
/// error for every prediction it could make.
///
/// This is the ΔD² objective of Eq. 5 evaluated on a record of past
/// observations; the trainer minimizes it over (α, β).
#[must_use]
// greenhetero-lint: allow(GH002) the predictor smooths an abstract series; units are the caller's
pub fn sum_squared_error<P: Predictor>(mut predictor: P, history: &[f64]) -> f64 {
    let mut sse = 0.0;
    for &observed in history {
        if let Ok(predicted) = predictor.predict() {
            let d = predicted - observed;
            sse += d * d;
        }
        predictor.observe(observed);
    }
    sse
}

#[cfg(test)]
// Tests compare results of exact literal arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn sse_of_perfect_linear_series_is_tiny_for_holt() {
        let series: Vec<f64> = (0..50).map(|i| 10.0 + 2.0 * i as f64).collect();
        // α = β = 1 tracks a noiseless linear trend exactly after warm-up.
        let sse = sum_squared_error(HoltPredictor::new(1.0, 1.0).unwrap(), &series);
        assert!(sse < 20.0, "sse = {sse}");
    }

    #[test]
    fn sse_counts_only_predictable_points() {
        // With one observation, Holt still cannot predict (needs level and
        // trend init); SSE over a 1-element history is 0.
        let sse = sum_squared_error(HoltPredictor::new(0.5, 0.5).unwrap(), &[42.0]);
        assert_eq!(sse, 0.0);
    }
}
