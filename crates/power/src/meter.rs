//! Power metering with measurement noise.
//!
//! The paper monitors each server with an external power meter (a ZH-101
//! recorder) and feeds those readings into the profiling database. Real
//! meters are noisy; [`PowerMeter`] adds seeded gaussian noise so the
//! database's curve fitting is exercised under realistic conditions (the
//! `ablation_noise` harness sweeps the noise level).

use greenhetero_core::types::Watts;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A sampled power meter with gaussian measurement noise.
///
/// # Examples
///
/// ```
/// use greenhetero_power::meter::PowerMeter;
/// use greenhetero_core::types::Watts;
///
/// let mut meter = PowerMeter::new(Watts::new(0.5), 42);
/// let reading = meter.read(Watts::new(100.0));
/// assert!((reading.value() - 100.0).abs() < 5.0); // within a few σ
/// ```
#[derive(Debug)]
pub struct PowerMeter {
    noise_std: Watts,
    rng: StdRng,
}

impl PowerMeter {
    /// Creates a meter with the given noise standard deviation and seed.
    ///
    /// # Panics
    ///
    /// Panics if `noise_std` is negative.
    #[must_use]
    pub fn new(noise_std: Watts, seed: u64) -> Self {
        assert!(
            noise_std.value() >= 0.0,
            "noise standard deviation must be non-negative"
        );
        PowerMeter {
            noise_std,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configured noise level.
    #[must_use]
    pub fn noise_std(&self) -> Watts {
        self.noise_std
    }

    /// Takes a reading of `true_power`. Readings are floored at zero —
    /// a watt meter never reports negative draw.
    pub fn read(&mut self, true_power: Watts) -> Watts {
        if self.noise_std.is_zero() {
            return true_power.non_negative();
        }
        let noise = self.standard_normal() * self.noise_std.value();
        Watts::new((true_power.value() + noise).max(0.0))
    }

    /// Box–Muller standard normal draw (avoids an extra distribution
    /// dependency).
    fn standard_normal(&mut self) -> f64 {
        loop {
            let u1: f64 = self.rng.random();
            let u2: f64 = self.rng.random();
            if u1 > f64::EPSILON {
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_meter_is_exact() {
        let mut m = PowerMeter::new(Watts::ZERO, 0);
        assert_eq!(m.read(Watts::new(123.4)), Watts::new(123.4));
        assert_eq!(m.read(Watts::new(-3.0)), Watts::ZERO);
    }

    #[test]
    fn noise_is_unbiased_and_scaled() {
        let mut m = PowerMeter::new(Watts::new(2.0), 7);
        let n = 20_000;
        let readings: Vec<f64> = (0..n).map(|_| m.read(Watts::new(100.0)).value()).collect();
        let mean = readings.iter().sum::<f64>() / n as f64;
        let var = readings.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = PowerMeter::new(Watts::new(1.0), 3);
        let mut b = PowerMeter::new(Watts::new(1.0), 3);
        for _ in 0..10 {
            assert_eq!(a.read(Watts::new(50.0)), b.read(Watts::new(50.0)));
        }
    }

    #[test]
    fn readings_never_negative() {
        let mut m = PowerMeter::new(Watts::new(10.0), 5);
        for _ in 0..1000 {
            assert!(m.read(Watts::new(1.0)).value() >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "noise standard deviation")]
    fn rejects_negative_noise() {
        let _ = PowerMeter::new(Watts::new(-1.0), 0);
    }
}
