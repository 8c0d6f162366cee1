//! Scenario description: everything needed to reproduce one experiment.

use std::path::PathBuf;
use std::sync::Arc;

use greenhetero_core::config::ControllerConfig;
use greenhetero_core::error::CoreError;
use greenhetero_core::policies::PolicyKind;
use greenhetero_core::telemetry::{JsonlSink, Telemetry, TelemetrySink};
use greenhetero_core::types::Watts;
use greenhetero_power::battery::BatterySpec;
use greenhetero_power::grid::GridTariff;
use greenhetero_power::solar::{SolarConfig, SolarProfile};
use greenhetero_server::platform::PlatformKind;
use greenhetero_server::rack::{Combination, Rack};
use greenhetero_server::workload::WorkloadKind;

use crate::faults::FaultSchedule;
use crate::intensity::IntensityProfile;

/// The longest horizon a scenario may span, in epochs: ten years of the
/// paper's 15-minute epochs. A run reserves its epoch records when it
/// starts, so a horizon far past any real use would abort the process on
/// that allocation instead of failing validation.
const MAX_EPOCHS: u64 = 3_650 * 96;

/// How (and whether) a run exports telemetry.
///
/// The default is [`TelemetrySpec::Off`]: counters still accumulate (they
/// are a handful of relaxed atomics) but no spans or per-epoch events are
/// built, keeping the hot path allocation-free. Telemetry never feeds
/// back into the simulation, so seeded runs produce bit-identical
/// [`EpochRecord`](crate::report::EpochRecord) streams whichever variant
/// is selected.
#[derive(Debug, Clone, Default)]
pub enum TelemetrySpec {
    /// No telemetry export (the default).
    #[default]
    Off,
    /// Stream one JSON event line per epoch to this file.
    Jsonl(PathBuf),
    /// Send spans and events to a caller-provided sink (tests use
    /// [`CollectingSink`](greenhetero_core::telemetry::CollectingSink)).
    Sink(Arc<dyn TelemetrySink>),
}

impl TelemetrySpec {
    /// Builds the telemetry handle this spec describes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when a JSONL log file cannot
    /// be created.
    pub fn build(&self) -> Result<Telemetry, CoreError> {
        match self {
            TelemetrySpec::Off => Ok(Telemetry::disabled()),
            TelemetrySpec::Jsonl(path) => {
                Ok(Telemetry::with_sink(Arc::new(JsonlSink::create(path)?)))
            }
            TelemetrySpec::Sink(sink) => Ok(Telemetry::with_sink(Arc::clone(sink))),
        }
    }
}

/// A complete experiment description.
///
/// Defaults mirror the paper's runtime setup: Comb1 with 5 servers per
/// type running SPECjbb under the diurnal datacenter pattern, a High solar
/// week sized at 1.6× rack peak demand, the 12 kWh battery bank, and a
/// 1000 W grid budget.
///
/// # Examples
///
/// ```
/// use greenhetero_sim::scenario::Scenario;
/// use greenhetero_core::policies::PolicyKind;
///
/// let scenario = Scenario::paper_runtime(PolicyKind::GreenHetero);
/// assert_eq!(scenario.days, 1);
/// scenario.validate()?;
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Server combination (Table IV).
    pub combination: Combination,
    /// When set, overrides `combination`/`servers_per_type`/`workload`
    /// with an explicit per-group composition — each group may run its
    /// own workload (the paper's future-work direction).
    pub mixed: Option<Vec<(PlatformKind, u32, WorkloadKind)>>,
    /// Servers per platform type (paper: 5).
    pub servers_per_type: u32,
    /// The workload every server runs.
    pub workload: WorkloadKind,
    /// Allocation policy under test.
    pub policy: PolicyKind,
    /// Solar regime (High/Low).
    pub solar_profile: SolarProfile,
    /// Peak solar plant output as a multiple of rack peak demand.
    pub solar_peak_ratio: f64,
    /// Battery bank parameters.
    pub battery: BatterySpec,
    /// Grid power budget (paper: 1000 W).
    pub grid_budget: Watts,
    /// Grid tariff for cost accounting.
    pub tariff: GridTariff,
    /// Offered-load profile.
    pub intensity: IntensityProfile,
    /// Days to simulate.
    pub days: u64,
    /// Controller configuration.
    pub controller: ControllerConfig,
    /// Power-meter noise (standard deviation).
    pub meter_noise: Watts,
    /// Relative throughput-counter noise (e.g. 0.01 = 1 %).
    pub perf_noise: f64,
    /// Master RNG seed (traces, meters).
    pub seed: u64,
    /// Timed disruptions injected during the run (empty = fault-free).
    pub faults: FaultSchedule,
    /// Telemetry export for the run (default: off).
    pub telemetry: TelemetrySpec,
}

impl Scenario {
    /// The paper's 24-hour runtime experiment (Figs. 8/11): Comb1 ×5,
    /// SPECjbb, diurnal demand, 1000 W grid budget, High solar trace.
    #[must_use]
    pub fn paper_runtime(policy: PolicyKind) -> Self {
        Scenario {
            combination: Combination::Comb1,
            mixed: None,
            servers_per_type: 5,
            workload: WorkloadKind::SpecJbb,
            policy,
            solar_profile: SolarProfile::High,
            solar_peak_ratio: 1.6,
            battery: BatterySpec::paper_rack_bank(),
            grid_budget: Watts::new(1000.0),
            tariff: GridTariff::paper(),
            intensity: IntensityProfile::datacenter_diurnal(),
            days: 1,
            controller: ControllerConfig::default(),
            meter_noise: Watts::new(0.8),
            perf_noise: 0.01,
            seed: 42,
            faults: FaultSchedule::none(),
            telemetry: TelemetrySpec::Off,
        }
    }

    /// The acceptance chaos experiment: the paper runtime plus
    /// [`FaultSchedule::chaos_day`] — a midday solar dropout, a battery
    /// string failure, a server crash/recovery, and a 2-hour telemetry
    /// outage, all clearing by 20:00.
    #[must_use]
    pub fn chaos_runtime(policy: PolicyKind) -> Self {
        Scenario {
            faults: FaultSchedule::chaos_day(),
            ..Scenario::paper_runtime(policy)
        }
    }

    /// The workload-sweep setting of Figs. 9/10: saturating intensity and
    /// a scarcity-heavy solar supply, so allocation decisions matter.
    #[must_use]
    pub fn workload_study(workload: WorkloadKind, policy: PolicyKind) -> Self {
        Scenario {
            workload,
            intensity: IntensityProfile::SATURATED,
            solar_profile: SolarProfile::Low,
            solar_peak_ratio: 1.2,
            grid_budget: Watts::new(1000.0),
            days: 2,
            ..Scenario::paper_runtime(policy)
        }
    }

    /// Builds the rack this scenario describes.
    ///
    /// # Errors
    ///
    /// Propagates rack construction failures (e.g. a CPU-only workload on
    /// the GPU combination).
    pub fn build_rack(&self) -> Result<Rack, CoreError> {
        match &self.mixed {
            Some(composition) => Rack::mixed(composition),
            None => Rack::combination(self.combination, self.servers_per_type, self.workload),
        }
    }

    /// The solar trace configuration, with the plant peak sized relative
    /// to the rack's peak demand.
    ///
    /// # Errors
    ///
    /// Propagates rack construction failures.
    pub fn solar_config(&self) -> Result<SolarConfig, CoreError> {
        let rack = self.build_rack()?;
        let peak = rack.controller_spec()?.peak_demand() * self.solar_peak_ratio;
        Ok(match self.solar_profile {
            SolarProfile::High => SolarConfig::high(peak, self.seed),
            SolarProfile::Low => SolarConfig::low(peak, self.seed),
        })
    }

    /// Validates the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero days/servers, a
    /// horizon of more than 350,400 epochs (ten years of 15-minute
    /// epochs), a non-positive solar ratio, or invalid nested configs.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.days == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "scenario must simulate at least one day".into(),
            });
        }
        if self.servers_per_type == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "scenario needs at least one server per type".into(),
            });
        }
        if !(self.solar_peak_ratio.is_finite() && self.solar_peak_ratio >= 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "solar peak ratio must be non-negative, got {}",
                    self.solar_peak_ratio
                ),
            });
        }
        if !(self.perf_noise.is_finite() && self.perf_noise >= 0.0) {
            return Err(CoreError::InvalidConfig {
                reason: "perf noise must be non-negative".into(),
            });
        }
        self.controller.validate()?;
        // Checked: past about 2.1 × 10^14 days the seconds overflow.
        let epochs = self
            .days
            .checked_mul(86_400)
            .map(|secs| secs / self.controller.epoch_len.as_secs());
        if epochs.is_none_or(|n| n > MAX_EPOCHS) {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "a {}-day horizon exceeds the bound of {MAX_EPOCHS} epochs",
                    self.days
                ),
            });
        }
        self.battery.validate()?;
        let rack = self.build_rack()?;
        self.faults.validate(rack.groups().len())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_runtime_is_valid() {
        let s = Scenario::paper_runtime(PolicyKind::GreenHetero);
        assert!(s.validate().is_ok());
        assert_eq!(s.grid_budget, Watts::new(1000.0));
        assert_eq!(s.servers_per_type, 5);
    }

    #[test]
    fn invalid_scenarios_rejected() {
        let mut s = Scenario::paper_runtime(PolicyKind::Uniform);
        s.days = 0;
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_runtime(PolicyKind::Uniform);
        s.servers_per_type = 0;
        assert!(s.validate().is_err());

        let mut s = Scenario::paper_runtime(PolicyKind::Uniform);
        s.solar_peak_ratio = -1.0;
        assert!(s.validate().is_err());

        // GPU combination with a CPU-only workload.
        let mut s = Scenario::paper_runtime(PolicyKind::Uniform);
        s.combination = Combination::Comb6;
        assert!(s.validate().is_err());
    }

    #[test]
    fn horizons_past_ten_years_of_epochs_are_rejected() {
        let mut s = Scenario::paper_runtime(PolicyKind::GreenHetero);
        s.days = 3_650;
        assert!(s.validate().is_ok(), "ten years of 15-minute epochs");
        s.days = 3_651;
        assert!(s.validate().is_err());
        // The 2^53-day wire maximum, and a horizon whose seconds overflow.
        for days in [1_000_000_000, 1 << 53, u64::MAX] {
            s.days = days;
            let err = s.validate().expect_err("bounded");
            assert!(err.to_string().contains("epochs"), "{err}");
        }
        // The bound counts epochs: hourly epochs admit a longer horizon.
        s.days = 3_651;
        s.controller.epoch_len = greenhetero_core::types::SimDuration::from_hours(1);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn chaos_runtime_is_valid() {
        let s = Scenario::chaos_runtime(PolicyKind::GreenHetero);
        assert!(!s.faults.is_empty());
        assert!(s.validate().is_ok());
    }

    #[test]
    fn faults_are_validated_against_the_rack() {
        use crate::faults::{FaultKind, FaultSchedule, FaultWindow};
        use greenhetero_core::types::{SimDuration, SimTime};

        let mut s = Scenario::paper_runtime(PolicyKind::GreenHetero);
        s.faults = FaultSchedule::new(vec![FaultWindow {
            start: SimTime::ZERO,
            len: SimDuration::from_hours(1),
            kind: FaultKind::ServerCrash {
                group: 99,
                count: 1,
            },
        }]);
        assert!(s.validate().is_err());
    }

    #[test]
    fn solar_plant_scales_with_rack() {
        let small = Scenario {
            servers_per_type: 1,
            ..Scenario::paper_runtime(PolicyKind::GreenHetero)
        };
        let large = Scenario::paper_runtime(PolicyKind::GreenHetero);
        let p_small = small.solar_config().unwrap().peak;
        let p_large = large.solar_config().unwrap().peak;
        assert!(p_large.value() > 4.0 * p_small.value());
    }

    #[test]
    fn workload_study_uses_scarce_solar() {
        let s = Scenario::workload_study(WorkloadKind::Canneal, PolicyKind::Uniform);
        assert_eq!(s.solar_profile, SolarProfile::Low);
        assert_eq!(s.intensity, IntensityProfile::SATURATED);
        assert!(s.validate().is_ok());
    }
}
