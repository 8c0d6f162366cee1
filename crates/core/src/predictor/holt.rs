//! Holt double exponential smoothing (the paper's Eqs. 2–4).

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::predictor::Predictor;

/// Holt (double exponential smoothing) predictor.
///
/// Maintains a smoothed **level** `S_t` and **trend** `B_t`:
///
/// ```text
/// S_t = α·O_t + (1 − α)(S_{t−1} + B_{t−1})        (level, Eq. 2)
/// B_t = β(S_t − S_{t−1}) + (1 − β)·B_{t−1}        (trend, Eq. 3)
/// P_{t+1} = S_t + B_t                              (forecast, Eq. 4)
/// ```
///
/// Initialization follows the standard convention: the level starts at the
/// first observation and the trend at the difference of the first two.
/// Until two observations have arrived the forecast falls back to the last
/// observed value.
///
/// # Examples
///
/// ```
/// use greenhetero_core::predictor::{HoltPredictor, Predictor};
///
/// let mut holt = HoltPredictor::new(0.7, 0.3)?;
/// holt.observe(500.0);
/// assert_eq!(holt.predict()?, 500.0); // level-only until trend exists
/// holt.observe(520.0);
/// assert!(holt.predict()? > 520.0);   // trend picked up
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HoltPredictor {
    alpha: f64,
    beta: f64,
    state: State,
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
enum State {
    /// No observations yet.
    Empty,
    /// One observation: level known, trend not yet.
    Primed { first: f64, count: usize },
    /// Two or more observations: full level + trend smoothing.
    Running {
        level: f64,
        trend: f64,
        count: usize,
    },
}

impl HoltPredictor {
    /// Creates a Holt predictor with the given smoothing parameters.
    ///
    /// `alpha` smooths the level and `beta` the trend; both must lie in
    /// `[0, 1]` (the paper's range constraint on Eq. 5).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidQuantity`] if either parameter is outside
    /// `[0, 1]` or not finite.
    // greenhetero-lint: allow(GH002) the predictor smooths an abstract series; units are the caller's
    pub fn new(alpha: f64, beta: f64) -> Result<Self, CoreError> {
        for (name, v) in [("alpha", alpha), ("beta", beta)] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(CoreError::InvalidQuantity {
                    quantity: name,
                    value: v,
                });
            }
        }
        Ok(HoltPredictor {
            alpha,
            beta,
            state: State::Empty,
        })
    }

    /// The level smoothing parameter α.
    #[must_use]
    // greenhetero-lint: allow(GH002) smoothing parameters are dimensionless by definition
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The trend smoothing parameter β.
    #[must_use]
    // greenhetero-lint: allow(GH002) smoothing parameters are dimensionless by definition
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The current smoothed level `S_t`, if at least one observation has
    /// been consumed.
    #[must_use]
    // greenhetero-lint: allow(GH002) the predictor smooths an abstract series; units are the caller's
    pub fn level(&self) -> Option<f64> {
        match self.state {
            State::Empty => None,
            State::Primed { first, .. } => Some(first),
            State::Running { level, .. } => Some(level),
        }
    }

    /// The current smoothed trend `B_t`, if it exists yet.
    #[must_use]
    // greenhetero-lint: allow(GH002) the predictor smooths an abstract series; units are the caller's
    pub fn trend(&self) -> Option<f64> {
        match self.state {
            State::Running { trend, .. } => Some(trend),
            _ => None,
        }
    }

    /// Forecasts `steps` epochs ahead: `S_t + steps·B_t`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoObservations`] before the first observation.
    // greenhetero-lint: allow(GH002) the predictor smooths an abstract series; units are the caller's
    pub fn predict_ahead(&self, steps: u32) -> Result<f64, CoreError> {
        match self.state {
            State::Empty => Err(CoreError::NoObservations),
            State::Primed { first, .. } => Ok(first),
            State::Running { level, trend, .. } => Ok(level + f64::from(steps) * trend),
        }
    }
}

impl Predictor for HoltPredictor {
    fn observe(&mut self, value: f64) {
        self.state = match self.state {
            State::Empty => State::Primed {
                first: value,
                count: 1,
            },
            State::Primed { first, count } => State::Running {
                level: value,
                trend: value - first,
                count: count + 1,
            },
            State::Running {
                level,
                trend,
                count,
            } => {
                let new_level = self.alpha * value + (1.0 - self.alpha) * (level + trend);
                let new_trend = self.beta * (new_level - level) + (1.0 - self.beta) * trend;
                State::Running {
                    level: new_level,
                    trend: new_trend,
                    count: count + 1,
                }
            }
        };
    }

    fn predict(&self) -> Result<f64, CoreError> {
        self.predict_ahead(1)
    }

    fn len(&self) -> usize {
        match self.state {
            State::Empty => 0,
            State::Primed { count, .. } | State::Running { count, .. } => count,
        }
    }
}

#[cfg(test)]
// Tests compare results of exact literal arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_parameters() {
        assert!(HoltPredictor::new(-0.1, 0.5).is_err());
        assert!(HoltPredictor::new(0.5, 1.1).is_err());
        assert!(HoltPredictor::new(f64::NAN, 0.5).is_err());
        assert!(HoltPredictor::new(0.0, 0.0).is_ok());
        assert!(HoltPredictor::new(1.0, 1.0).is_ok());
    }

    #[test]
    fn predict_before_observe_errors() {
        let p = HoltPredictor::new(0.5, 0.5).unwrap();
        assert_eq!(p.predict(), Err(CoreError::NoObservations));
        assert!(p.is_empty());
    }

    #[test]
    fn single_observation_predicts_itself() {
        let mut p = HoltPredictor::new(0.5, 0.5).unwrap();
        p.observe(321.0);
        assert_eq!(p.predict().unwrap(), 321.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.level(), Some(321.0));
        assert_eq!(p.trend(), None);
    }

    #[test]
    fn tracks_linear_trend_exactly_with_unit_parameters() {
        let mut p = HoltPredictor::new(1.0, 1.0).unwrap();
        for i in 0..20 {
            p.observe(100.0 + 5.0 * f64::from(i));
        }
        // Next value of the series is 100 + 5·20 = 200.
        assert!((p.predict().unwrap() - 200.0).abs() < 1e-9);
        // Two steps ahead: 205.
        assert!((p.predict_ahead(2).unwrap() - 205.0).abs() < 1e-9);
    }

    #[test]
    fn constant_series_predicts_the_constant() {
        let mut p = HoltPredictor::new(0.4, 0.3).unwrap();
        for _ in 0..50 {
            p.observe(77.0);
        }
        assert!((p.predict().unwrap() - 77.0).abs() < 1e-9);
        assert!(p.trend().unwrap().abs() < 1e-9);
    }

    #[test]
    fn zero_alpha_ignores_new_observations_for_level() {
        let mut p = HoltPredictor::new(0.0, 0.0).unwrap();
        p.observe(10.0);
        p.observe(10.0); // level 10, trend 0
        p.observe(1000.0); // α = 0 → level unmoved
        assert!((p.predict().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn smoothing_dampens_noise_relative_to_last_value() {
        // A noisy constant series (after a short calm warm-up so the trend
        // initializes near zero): Holt with moderate α should predict
        // closer to the true mean than the raw last value does on average.
        let truth = 500.0;
        let noise = [
            40.0, -35.0, 22.0, -18.0, 31.0, -44.0, 12.0, -9.0, 27.0, -30.0,
        ];
        let mut series = vec![truth; 5];
        series.extend(noise.iter().map(|n| truth + n));
        let mut p = HoltPredictor::new(0.3, 0.1).unwrap();
        let mut holt_err = 0.0;
        let mut naive_err = 0.0;
        let mut last = None;
        for &v in &series {
            if let (Ok(pred), Some(prev)) = (p.predict(), last) {
                holt_err += (pred - truth).abs();
                let prev: f64 = prev;
                naive_err += (prev - truth).abs();
            }
            p.observe(v);
            last = Some(v);
        }
        assert!(
            holt_err < naive_err,
            "holt {holt_err} should beat naive {naive_err}"
        );
    }
}
