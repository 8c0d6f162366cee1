//! PV solar generation: synthetic NREL-like irradiance traces and the
//! array that converts them to electrical power.
//!
//! The paper replays two one-week NREL solar traces at 15-minute
//! resolution: a *High* trace (strong, clear-sky generation) and a *Low*
//! trace (weak and heavily fluctuating generation). We synthesize
//! statistically similar traces from a clear-sky bell curve modulated by a
//! seeded cloud process, and support loading real NREL CSV exports through
//! [`crate::trace::PowerTrace::read_csv`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use greenhetero_core::error::CoreError;
use greenhetero_core::types::{Ratio, SimDuration, Watts};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::trace::PowerTrace;

/// A photovoltaic array: converts irradiance (W/m²) into electrical watts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PvArray {
    /// Total panel area in m².
    pub area_m2: f64,
    /// Panel + inverter efficiency.
    pub efficiency: Ratio,
}

impl PvArray {
    /// Creates an array.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a non-positive area.
    // greenhetero-lint: allow(GH002) panel area in m² is outside the power/energy newtype set
    pub fn new(area_m2: f64, efficiency: Ratio) -> Result<Self, CoreError> {
        if !(area_m2.is_finite() && area_m2 > 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!("pv array area must be positive, got {area_m2}"),
            });
        }
        Ok(PvArray {
            area_m2,
            efficiency,
        })
    }

    /// Electrical output for a given plane-of-array irradiance.
    #[must_use]
    // greenhetero-lint: allow(GH002) irradiance in W/m² is outside the power/energy newtype set
    pub fn output(&self, irradiance_w_per_m2: f64) -> Watts {
        Watts::new((irradiance_w_per_m2.max(0.0)) * self.area_m2 * self.efficiency.value())
    }
}

/// Weather regimes matching the paper's two NREL traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SolarProfile {
    /// Clear-sky, high-generation week (the paper's *High solar trace*).
    High,
    /// Overcast, fluctuating, low-generation week (the *Low solar trace*).
    Low,
}

impl SolarProfile {
    /// Peak attainable fraction of clear-sky output for this regime.
    fn clearness(self) -> f64 {
        match self {
            SolarProfile::High => 0.95,
            SolarProfile::Low => 0.45,
        }
    }

    /// Magnitude of cloud-induced fluctuation.
    fn cloud_depth(self) -> f64 {
        match self {
            SolarProfile::High => 0.08,
            SolarProfile::Low => 0.55,
        }
    }

    /// How quickly cloud cover decorrelates (per 15-minute step).
    fn cloud_volatility(self) -> f64 {
        match self {
            SolarProfile::High => 0.10,
            SolarProfile::Low => 0.35,
        }
    }
}

/// Parameters for synthetic solar trace generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolarConfig {
    /// Weather regime.
    pub profile: SolarProfile,
    /// Number of days to generate (paper: 7).
    pub days: u64,
    /// Sampling interval (paper: 15 minutes).
    pub interval: SimDuration,
    /// Clear-sky peak electrical output of the plant at solar noon.
    pub peak: Watts,
    /// Sunrise hour-of-day.
    pub sunrise: f64,
    /// Sunset hour-of-day.
    pub sunset: f64,
    /// RNG seed: the same seed always produces the same week of weather.
    pub seed: u64,
}

impl SolarConfig {
    /// A one-week trace mirroring the paper's *High* trace, scaled to the
    /// given plant peak.
    #[must_use]
    pub fn high(peak: Watts, seed: u64) -> Self {
        SolarConfig {
            profile: SolarProfile::High,
            days: 7,
            interval: SimDuration::from_minutes(15),
            peak,
            sunrise: 6.0,
            sunset: 19.0,
            seed,
        }
    }

    /// A one-week trace mirroring the paper's *Low* trace.
    #[must_use]
    pub fn low(peak: Watts, seed: u64) -> Self {
        SolarConfig {
            profile: SolarProfile::Low,
            ..SolarConfig::high(peak, seed)
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero days/interval, a
    /// non-positive peak, or an inverted sunrise/sunset pair.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.days == 0 || self.interval.is_zero() {
            return Err(CoreError::InvalidConfig {
                reason: "solar trace needs at least one day and a non-zero interval".into(),
            });
        }
        if self.peak.value() <= 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: "solar plant peak must be positive".into(),
            });
        }
        if !(0.0..24.0).contains(&self.sunrise)
            || !(0.0..=24.0).contains(&self.sunset)
            || self.sunset <= self.sunrise
        {
            return Err(CoreError::InvalidConfig {
                reason: "sunrise must precede sunset within one day".into(),
            });
        }
        Ok(())
    }
}

/// Synthesizes a solar power trace.
///
/// The clear-sky envelope is a half-sine between sunrise and sunset raised
/// to 1.2 (sharper shoulders, like measured irradiance); a mean-reverting
/// cloud process multiplies it. Deterministic for a given seed.
///
/// # Errors
///
/// Propagates [`SolarConfig::validate`] failures.
///
/// # Examples
///
/// ```
/// use greenhetero_power::solar::{synthesize, SolarConfig};
/// use greenhetero_core::types::{SimTime, Watts};
///
/// let trace = synthesize(&SolarConfig::high(Watts::new(2000.0), 42))?;
/// assert_eq!(trace.len(), 7 * 96);
/// assert_eq!(trace.at(SimTime::from_hours(0)), Watts::ZERO);      // night
/// assert!(trace.at(SimTime::from_hours(12)) > Watts::new(1000.0)); // noon
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
pub fn synthesize(config: &SolarConfig) -> Result<PowerTrace, CoreError> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let samples_per_day = (86_400 / config.interval.as_secs()).max(1);
    let mut values = Vec::with_capacity((samples_per_day * config.days) as usize);

    let profile = config.profile;
    // Cloud state: 0 = fully clouded, 1 = clear. Mean-reverting walk.
    let mut cloud = profile.clearness();

    for _day in 0..config.days {
        // Day-to-day clearness varies a little (more for Low).
        let day_clearness = (profile.clearness()
            + (rng.random::<f64>() - 0.5) * profile.cloud_depth())
        .clamp(0.05, 1.0);
        for i in 0..samples_per_day {
            let hour = (i * config.interval.as_secs()) as f64 / 3600.0;
            let envelope = clear_sky(hour, config.sunrise, config.sunset);
            // Mean-reverting cloud attenuation.
            let noise = (rng.random::<f64>() - 0.5) * 2.0;
            cloud += profile.cloud_volatility() * (day_clearness - cloud)
                + profile.cloud_depth() * profile.cloud_volatility() * noise;
            cloud = cloud.clamp(0.02, 1.0);
            values.push(config.peak * (envelope * cloud));
        }
    }

    PowerTrace::new(config.interval, values)
}

/// Capacity of the process-wide synthesis memo cache, in distinct
/// configurations. Sweeps replay a handful of configs thousands of
/// times; a small LRU covers them all.
const MEMO_CAPACITY: usize = 8;

/// The process-wide synthesis memo: recently synthesized traces keyed by
/// their full [`SolarConfig`], most recently used last.
static MEMO: Mutex<Vec<(SolarConfig, Arc<PowerTrace>)>> = Mutex::new(Vec::new());

/// Lifetime hit count of the synthesis memo, process-wide.
static MEMO_HITS: AtomicU64 = AtomicU64::new(0);
/// Lifetime miss count of the synthesis memo, process-wide.
static MEMO_MISSES: AtomicU64 = AtomicU64::new(0);

/// Lifetime `(hits, misses)` of the process-wide synthesis memo.
///
/// The memo is process-global state, so its counters live here — never
/// in a run's [`RunLedger`](greenhetero_core::telemetry::RunLedger),
/// which must be a pure function of the scenario (the same scenario run
/// twice in one process is a miss then a hit). The corresponding
/// catalog names are `names::SOLAR_CACHE_HIT`/`SOLAR_CACHE_MISS` in
/// `greenhetero_core::telemetry`.
#[must_use]
pub fn cache_stats() -> (u64, u64) {
    (
        MEMO_HITS.load(Ordering::Relaxed),
        MEMO_MISSES.load(Ordering::Relaxed),
    )
}

/// As [`synthesize`], memoized: repeated requests for the same
/// [`SolarConfig`] share one immutable [`PowerTrace`] behind an `Arc`
/// instead of re-running the cloud process. Returns the trace and
/// whether it came from the cache (`true` = hit).
///
/// The cache is keyed by the *entire* config — any field change,
/// including the seed, is a different trace — so memoization cannot
/// change results, only skip recomputation. The cache holds at most
/// [`MEMO_CAPACITY`] traces (LRU) and is shared process-wide; lifetime
/// hit/miss counts are readable through [`cache_stats`].
///
/// # Errors
///
/// Propagates [`SolarConfig::validate`] failures.
pub fn synthesize_shared(config: &SolarConfig) -> Result<(Arc<PowerTrace>, bool), CoreError> {
    {
        let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(idx) = memo.iter().position(|(key, _)| key == config) {
            let entry = memo.remove(idx);
            let trace = Arc::clone(&entry.1);
            memo.push(entry);
            MEMO_HITS.fetch_add(1, Ordering::Relaxed);
            return Ok((trace, true));
        }
    }
    // Synthesize outside the lock: a miss is the slow path, and two
    // threads racing on the same config just do the work twice.
    let trace = Arc::new(synthesize(config)?);
    MEMO_MISSES.fetch_add(1, Ordering::Relaxed);
    let mut memo = MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    if !memo.iter().any(|(key, _)| key == config) {
        if memo.len() >= MEMO_CAPACITY {
            memo.remove(0);
        }
        memo.push((*config, Arc::clone(&trace)));
    }
    Ok((trace, false))
}

/// Clear-sky envelope in `[0, 1]`: a sharpened half-sine over daylight.
fn clear_sky(hour: f64, sunrise: f64, sunset: f64) -> f64 {
    if hour <= sunrise || hour >= sunset {
        return 0.0;
    }
    let t = (hour - sunrise) / (sunset - sunrise);
    (std::f64::consts::PI * t).sin().powf(1.2)
}

#[cfg(test)]
// Tests compare results of exact literal arithmetic.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use greenhetero_core::types::SimTime;

    #[test]
    fn pv_array_validation_and_output() {
        assert!(PvArray::new(0.0, Ratio::saturating(0.2)).is_err());
        assert!(PvArray::new(f64::NAN, Ratio::saturating(0.2)).is_err());
        let pv = PvArray::new(10.0, Ratio::saturating(0.2)).unwrap();
        assert_eq!(pv.output(1000.0), Watts::new(2000.0));
        assert_eq!(pv.output(-50.0), Watts::ZERO);
    }

    #[test]
    fn config_validation() {
        let mut c = SolarConfig::high(Watts::new(1000.0), 1);
        assert!(c.validate().is_ok());
        c.days = 0;
        assert!(c.validate().is_err());
        c = SolarConfig::high(Watts::ZERO, 1);
        assert!(c.validate().is_err());
        c = SolarConfig::high(Watts::new(1000.0), 1);
        c.sunrise = 20.0;
        c.sunset = 6.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn night_is_dark_noon_is_bright() {
        let t = synthesize(&SolarConfig::high(Watts::new(2000.0), 7)).unwrap();
        for day in 0..7u64 {
            let midnight = t.at(SimTime::from_hours(day * 24));
            let predawn = t.at(SimTime::from_hours(day * 24 + 4));
            let noon = t.at(SimTime::from_hours(day * 24 + 12));
            assert_eq!(midnight, Watts::ZERO);
            assert_eq!(predawn, Watts::ZERO);
            assert!(noon > Watts::new(800.0), "day {day}: noon {noon}");
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let a = synthesize(&SolarConfig::low(Watts::new(1500.0), 99)).unwrap();
        let b = synthesize(&SolarConfig::low(Watts::new(1500.0), 99)).unwrap();
        assert_eq!(a, b);
        let c = synthesize(&SolarConfig::low(Watts::new(1500.0), 100)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn low_trace_generates_less_and_fluctuates_more() {
        let peak = Watts::new(2000.0);
        let high = synthesize(&SolarConfig::high(peak, 3)).unwrap();
        let low = synthesize(&SolarConfig::low(peak, 3)).unwrap();
        assert!(
            low.mean().value() < 0.65 * high.mean().value(),
            "low mean {} vs high mean {}",
            low.mean(),
            high.mean()
        );

        // Fluctuation: mean absolute step during daylight, relative to mean.
        let rel_flux = |t: &PowerTrace| {
            let daylight: Vec<f64> = t
                .values()
                .iter()
                .map(|w| w.value())
                .filter(|v| *v > 1.0)
                .collect();
            let steps: f64 = daylight.windows(2).map(|w| (w[1] - w[0]).abs()).sum();
            let mean: f64 = daylight.iter().sum::<f64>() / daylight.len() as f64;
            steps / (daylight.len() as f64 - 1.0) / mean
        };
        assert!(
            rel_flux(&low) > 1.5 * rel_flux(&high),
            "low flux {} vs high flux {}",
            rel_flux(&low),
            rel_flux(&high)
        );
    }

    #[test]
    fn output_never_exceeds_peak_or_goes_negative() {
        for seed in 0..5u64 {
            let t = synthesize(&SolarConfig::low(Watts::new(1000.0), seed)).unwrap();
            for w in t.values() {
                assert!(w.value() >= 0.0);
                assert!(w.value() <= 1000.0 + 1e-9);
            }
        }
    }

    #[test]
    fn trace_has_paper_shape() {
        let t = synthesize(&SolarConfig::high(Watts::new(2000.0), 11)).unwrap();
        assert_eq!(t.interval(), SimDuration::from_minutes(15));
        assert_eq!(t.duration(), SimDuration::from_hours(7 * 24));
    }

    #[test]
    fn shared_synthesis_memoizes_by_full_config() {
        // A seed no other test uses, so the first call must miss.
        let config = SolarConfig::high(Watts::new(1234.5), 0xFEED_F00D);
        let (hits_before, misses_before) = cache_stats();
        let (first, first_hit) = synthesize_shared(&config).unwrap();
        assert!(!first_hit, "fresh config must synthesize");
        let (second, second_hit) = synthesize_shared(&config).unwrap();
        assert!(second_hit, "repeat config must hit the memo");
        assert!(Arc::ptr_eq(&first, &second), "hit must share the trace");
        assert_eq!(*first, synthesize(&config).unwrap());
        // Stats are process-global and monotone, so with concurrent
        // tests only lower bounds on the deltas are stable.
        let (hits_after, misses_after) = cache_stats();
        assert!(hits_after > hits_before);
        assert!(misses_after > misses_before);

        // Any field change is a different cache key.
        let other = SolarConfig::low(Watts::new(1234.5), 0xFEED_F00D);
        let (low, low_hit) = synthesize_shared(&other).unwrap();
        assert!(!low_hit);
        assert_ne!(*low, *first);
    }

    #[test]
    fn shared_synthesis_propagates_validation_errors() {
        let mut bad = SolarConfig::high(Watts::new(1000.0), 1);
        bad.days = 0;
        assert!(synthesize_shared(&bad).is_err());
    }

    #[test]
    fn clear_sky_envelope() {
        assert_eq!(clear_sky(3.0, 6.0, 19.0), 0.0);
        assert_eq!(clear_sky(21.0, 6.0, 19.0), 0.0);
        let mid = clear_sky(12.5, 6.0, 19.0);
        assert!(mid > 0.99);
        assert!(clear_sky(7.0, 6.0, 19.0) < mid);
    }
}
