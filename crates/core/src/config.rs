//! Controller configuration.

use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::types::{SimDuration, Watts};

/// Tunables of the GreenHetero controller, defaulting to the paper's
/// published settings.
///
/// # Examples
///
/// ```
/// use greenhetero_core::config::ControllerConfig;
/// use greenhetero_core::types::SimDuration;
///
/// let cfg = ControllerConfig::default();
/// assert_eq!(cfg.epoch_len, SimDuration::from_minutes(15));
/// cfg.validate()?;
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Scheduling epoch length (paper: 15 minutes).
    pub epoch_len: SimDuration,
    /// Training-run length, "slightly shorter than the scheduling epoch"
    /// (paper: 10 minutes).
    pub training_len: SimDuration,
    /// Monitor sampling period during training runs (paper: every
    /// 2 minutes → 5 samples per training run).
    pub sample_period: SimDuration,
    /// Below this, the renewable supply counts as "unavailable" and the
    /// scheduler enters Case C.
    pub renewable_negligible: Watts,
    /// Grid-search step when training Holt's (α, β) on history.
    pub holt_grid_step: f64,
    /// Re-train the Holt parameters after this many epochs of fresh
    /// observations.
    pub holt_retrain_epochs: u64,
    /// How many past observations the predictor trainer looks at.
    pub holt_history: usize,
    /// Serve daemon: epoch-step panics a session survives before it is
    /// quarantined. `0` quarantines on the first panic.
    pub serve_restart_budget: u32,
    /// Serve daemon: backoff before the first restart, in milliseconds.
    /// Each further restart doubles it (deterministic exponential
    /// backoff) up to [`Self::serve_backoff_cap_ms`].
    pub serve_backoff_base_ms: u64,
    /// Serve daemon: upper bound on the per-restart backoff, in
    /// milliseconds.
    pub serve_backoff_cap_ms: u64,
    /// Serve daemon: a session making no epoch progress for this long is
    /// evicted by the watchdog, in milliseconds.
    pub serve_heartbeat_timeout_ms: u64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            epoch_len: SimDuration::from_minutes(15),
            training_len: SimDuration::from_minutes(10),
            sample_period: SimDuration::from_minutes(2),
            renewable_negligible: Watts::new(5.0),
            holt_grid_step: 0.05,
            holt_retrain_epochs: 24,
            holt_history: 192,
            serve_restart_budget: 3,
            serve_backoff_base_ms: 50,
            serve_backoff_cap_ms: 2_000,
            serve_heartbeat_timeout_ms: 5_000,
        }
    }
}

impl ControllerConfig {
    /// Number of monitor samples one training run yields.
    #[must_use]
    pub fn samples_per_training(&self) -> u64 {
        self.training_len.div_chunks(self.sample_period)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when any duration is zero, the
    /// training run does not fit in an epoch, the sampling period yields
    /// fewer than two samples, or the Holt settings are out of range.
    pub fn validate(&self) -> Result<(), CoreError> {
        let fail = |reason: String| Err(CoreError::InvalidConfig { reason });
        if self.epoch_len.is_zero() {
            return fail("epoch length must be non-zero".into());
        }
        if self.training_len.is_zero() || self.training_len > self.epoch_len {
            return fail(format!(
                "training length {} must be non-zero and fit within the epoch {}",
                self.training_len, self.epoch_len
            ));
        }
        if self.sample_period.is_zero() || self.samples_per_training() < 2 {
            return fail(format!(
                "sample period {} must yield at least 2 samples per training run",
                self.sample_period
            ));
        }
        if self.renewable_negligible.value() < 0.0 {
            return fail("renewable-negligible threshold must be non-negative".into());
        }
        if !(self.holt_grid_step > 0.0 && self.holt_grid_step <= 1.0) {
            return fail(format!(
                "holt grid step must be in (0, 1], got {}",
                self.holt_grid_step
            ));
        }
        if self.holt_history < 3 {
            return fail("holt history must keep at least 3 observations".into());
        }
        if self.holt_retrain_epochs == 0 {
            return fail("holt retrain interval must be at least 1 epoch".into());
        }
        if self.serve_backoff_base_ms == 0 {
            return fail("serve restart backoff base must be at least 1 ms".into());
        }
        if self.serve_backoff_cap_ms < self.serve_backoff_base_ms {
            return fail(format!(
                "serve backoff cap {} ms must be at least the base {} ms",
                self.serve_backoff_cap_ms, self.serve_backoff_base_ms
            ));
        }
        if self.serve_heartbeat_timeout_ms == 0 {
            return fail("serve heartbeat timeout must be at least 1 ms".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let cfg = ControllerConfig::default();
        assert_eq!(cfg.epoch_len, SimDuration::from_minutes(15));
        assert_eq!(cfg.training_len, SimDuration::from_minutes(10));
        assert_eq!(cfg.sample_period, SimDuration::from_minutes(2));
        assert_eq!(cfg.samples_per_training(), 5);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn serve_knob_defaults_and_validation() {
        let cfg = ControllerConfig::default();
        assert_eq!(cfg.serve_restart_budget, 3);
        assert_eq!(cfg.serve_backoff_base_ms, 50);
        assert_eq!(cfg.serve_backoff_cap_ms, 2_000);
        assert_eq!(cfg.serve_heartbeat_timeout_ms, 5_000);

        let zero_base = ControllerConfig {
            serve_backoff_base_ms: 0,
            ..ControllerConfig::default()
        };
        assert!(zero_base.validate().is_err());

        let cap_below_base = ControllerConfig {
            serve_backoff_base_ms: 100,
            serve_backoff_cap_ms: 50,
            ..ControllerConfig::default()
        };
        assert!(cap_below_base.validate().is_err());

        let zero_heartbeat = ControllerConfig {
            serve_heartbeat_timeout_ms: 0,
            ..ControllerConfig::default()
        };
        assert!(zero_heartbeat.validate().is_err());

        // A zero budget is legal: quarantine on the first panic.
        let strict = ControllerConfig {
            serve_restart_budget: 0,
            ..ControllerConfig::default()
        };
        assert!(strict.validate().is_ok());
    }

    #[test]
    fn rejects_training_longer_than_epoch() {
        let cfg = ControllerConfig {
            training_len: SimDuration::from_minutes(20),
            ..ControllerConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_zero_epoch() {
        let cfg = ControllerConfig {
            epoch_len: SimDuration::ZERO,
            ..ControllerConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_sparse_sampling() {
        let cfg = ControllerConfig {
            sample_period: SimDuration::from_minutes(10),
            ..ControllerConfig::default()
        };
        // 10-minute training / 10-minute period → 1 sample: not fittable.
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn rejects_bad_holt_settings() {
        let mut cfg = ControllerConfig {
            holt_grid_step: 0.0,
            ..ControllerConfig::default()
        };
        assert!(cfg.validate().is_err());
        cfg.holt_grid_step = 0.05;
        cfg.holt_history = 2;
        assert!(cfg.validate().is_err());
        cfg.holt_history = 10;
        cfg.holt_retrain_epochs = 0;
        assert!(cfg.validate().is_err());
    }
}
