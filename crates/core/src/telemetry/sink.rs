//! The span/event sink: where per-epoch telemetry goes.
//!
//! The controller and the simulation engine emit two record shapes — a
//! [`SpanRecord`] per timed phase and one [`EpochEvent`] per scheduling
//! epoch. A [`TelemetrySink`] decides what happens to them: the default
//! [`NoopSink`] reports `enabled() == false` so emitters skip building
//! records entirely (the hot path stays allocation-free), the JSONL sink
//! streams them to disk, and [`CollectingSink`] buffers them for tests.

use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use crate::controller::DegradeLevel;
use crate::sources::SupplyCase;
use crate::telemetry::jsonl::JsonObject;
use crate::types::{EpochId, Ratio, SimTime, Throughput, Watts};

/// One timed phase of one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Phase name (e.g. `"controller.predict"`).
    pub name: &'static str,
    /// The epoch the phase ran in.
    pub epoch: EpochId,
    /// Wall-clock time the phase took, in nanoseconds.
    pub nanos: u64,
}

impl SpanRecord {
    /// Builds a span from a measured duration (nanoseconds saturate).
    #[must_use]
    pub fn new(name: &'static str, epoch: EpochId, took: Duration) -> Self {
        SpanRecord {
            name,
            epoch,
            nanos: u64::try_from(took.as_nanos()).unwrap_or(u64::MAX),
        }
    }
}

/// Everything one scheduling epoch emitted: identity, phase timings,
/// the solver-engine choice, the degradation rung, and the per-source
/// power flows. One of these becomes one JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochEvent {
    /// The epoch index.
    pub epoch: EpochId,
    /// The rack that emitted the event (`0` for single-rack runs).
    pub rack_id: u32,
    /// Start time of the epoch.
    pub time: SimTime,
    /// `true` when the epoch ran a training run instead of an allocation.
    pub training: bool,
    /// The supply regime the scheduler selected.
    pub case: SupplyCase,
    /// The degradation rung the decision landed on.
    pub degrade: DegradeLevel,
    /// Which engine produced the allocation (`"exact"`, `"grid"`,
    /// `"uniform"`, `"greedy"`, `"manual"`, `"training"`, `"none"`).
    pub engine: &'static str,
    /// Prediction phase wall time.
    pub predict: Duration,
    /// Source-selection phase wall time.
    pub sources: Duration,
    /// Solve phase wall time.
    pub solve: Duration,
    /// Enforcement (measure + dispatch) phase wall time.
    pub enforce: Duration,
    /// Whole-epoch wall time.
    pub epoch_wall: Duration,
    /// Power budget offered to the servers.
    pub budget: Watts,
    /// Unconstrained rack demand at this epoch's offered load.
    pub demand: Watts,
    /// Actual solar generation (epoch average).
    pub solar: Watts,
    /// Power the servers actually drew.
    pub load: Watts,
    /// Renewable power serving the load.
    pub renewable_to_load: Watts,
    /// Battery power serving the load.
    pub battery_to_load: Watts,
    /// Grid power serving the load.
    pub grid_to_load: Watts,
    /// Power charging the battery.
    pub charging: Watts,
    /// Renewable power curtailed (nowhere to put it).
    pub curtailed: Watts,
    /// Planned power the sources could not deliver.
    pub unserved: Watts,
    /// Battery state of charge at the end of the epoch.
    pub soc: Ratio,
    /// Offered-load intensity.
    pub intensity: Ratio,
    /// Measured rack throughput.
    pub throughput: Throughput,
    /// Servers the controller shed to fit the budget.
    pub shed: u32,
    /// Servers offline due to injected faults.
    pub offline: u32,
    /// Feedback samples the monitor's sanity gate rejected this epoch.
    pub rejected_feedback: u32,
    /// Profile entries quarantined this epoch.
    pub quarantines: u32,
    /// Solver allocation-cache hits this epoch.
    pub cache_hits: u32,
    /// Solver allocation-cache misses this epoch.
    pub cache_misses: u32,
    /// Solver allocation-cache evictions this epoch.
    pub cache_evicts: u32,
    /// Solves answered by reusing the previous answer this epoch.
    pub warm_starts: u32,
}

impl EpochEvent {
    /// The supply-case letter used in the JSON schema.
    #[must_use]
    pub fn case_name(&self) -> &'static str {
        match self.case {
            SupplyCase::A => "A",
            SupplyCase::B => "B",
            SupplyCase::C => "C",
        }
    }

    /// Serializes the event as one single-line JSON object, the stable
    /// JSONL schema documented in DESIGN.md §10. Key order is fixed.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let mut o = JsonObject::with_capacity(512);
        o.u64("epoch", self.epoch.raw())
            .u64("rack_id", u64::from(self.rack_id))
            .u64("time_s", self.time.as_secs())
            .bool("training", self.training)
            .str("case", self.case_name())
            .str("degrade", self.degrade.name())
            .str("engine", self.engine)
            .u64("predict_us", us(self.predict))
            .u64("sources_us", us(self.sources))
            .u64("solve_us", us(self.solve))
            .u64("enforce_us", us(self.enforce))
            .u64("epoch_us", us(self.epoch_wall))
            .f64("budget_w", self.budget.value())
            .f64("demand_w", self.demand.value())
            .f64("solar_w", self.solar.value())
            .f64("load_w", self.load.value())
            .f64("renewable_w", self.renewable_to_load.value())
            .f64("battery_w", self.battery_to_load.value())
            .f64("grid_w", self.grid_to_load.value())
            .f64("charge_w", self.charging.value())
            .f64("curtailed_w", self.curtailed.value())
            .f64("unserved_w", self.unserved.value())
            .f64("soc", self.soc.value())
            .f64("intensity", self.intensity.value())
            .f64("throughput", self.throughput.value())
            .u64("shed", u64::from(self.shed))
            .u64("offline", u64::from(self.offline))
            .u64("rejected_feedback", u64::from(self.rejected_feedback))
            .u64("quarantines", u64::from(self.quarantines))
            .u64("cache_hits", u64::from(self.cache_hits))
            .u64("cache_misses", u64::from(self.cache_misses))
            .u64("cache_evicts", u64::from(self.cache_evicts))
            .u64("warm_starts", u64::from(self.warm_starts));
        o.finish()
    }
}

/// Where spans and epoch events go.
///
/// Implementations must be cheap and must never fail the caller: a sink
/// that loses a record loses telemetry, not the run.
pub trait TelemetrySink: std::fmt::Debug + Send + Sync {
    /// `false` when emitters should skip building records entirely (the
    /// [`NoopSink`] contract that keeps disabled telemetry free).
    fn enabled(&self) -> bool {
        true
    }

    /// Records one timed phase.
    fn record_span(&self, span: &SpanRecord);

    /// Records one epoch's event.
    fn record_epoch(&self, event: &EpochEvent);
}

/// The default sink: drops everything and tells emitters not to bother.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TelemetrySink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record_span(&self, _span: &SpanRecord) {}

    fn record_epoch(&self, _event: &EpochEvent) {}
}

/// A sink that buffers every record in memory — the test harness's view
/// into what a run emitted.
#[derive(Debug, Default)]
pub struct CollectingSink {
    spans: Mutex<Vec<SpanRecord>>,
    epochs: Mutex<Vec<EpochEvent>>,
}

impl CollectingSink {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        CollectingSink::default()
    }

    /// All spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// All epoch events recorded so far.
    #[must_use]
    pub fn epochs(&self) -> Vec<EpochEvent> {
        self.epochs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl TelemetrySink for CollectingSink {
    fn record_span(&self, span: &SpanRecord) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(*span);
    }

    fn record_epoch(&self, event: &EpochEvent) {
        self.epochs
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event.clone());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_event() -> EpochEvent {
        EpochEvent {
            epoch: EpochId::new(5),
            rack_id: 0,
            time: SimTime::from_secs(4500),
            training: false,
            case: SupplyCase::B,
            degrade: DegradeLevel::Nominal,
            engine: "exact",
            predict: Duration::from_micros(3),
            sources: Duration::from_micros(1),
            solve: Duration::from_micros(120),
            enforce: Duration::from_micros(40),
            epoch_wall: Duration::from_micros(200),
            budget: Watts::new(728.5),
            demand: Watts::new(912.0),
            solar: Watts::new(310.25),
            load: Watts::new(700.0),
            renewable_to_load: Watts::new(310.25),
            battery_to_load: Watts::new(200.0),
            grid_to_load: Watts::new(189.75),
            charging: Watts::ZERO,
            curtailed: Watts::ZERO,
            unserved: Watts::ZERO,
            soc: Ratio::saturating(0.8125),
            intensity: Ratio::saturating(0.9),
            throughput: Throughput::new(12345.5),
            shed: 0,
            offline: 1,
            rejected_feedback: 2,
            quarantines: 0,
            cache_hits: 1,
            cache_misses: 0,
            cache_evicts: 0,
            warm_starts: 1,
        }
    }

    #[test]
    fn json_line_has_the_stable_schema() {
        let line = sample_event().to_json_line();
        assert!(line.starts_with("{\"epoch\":5,\"rack_id\":0,\"time_s\":4500,\"training\":false,"));
        assert!(line.contains("\"case\":\"B\""));
        assert!(line.contains("\"degrade\":\"nominal\""));
        assert!(line.contains("\"engine\":\"exact\""));
        assert!(line.contains("\"solve_us\":120"));
        assert!(line.contains("\"budget_w\":728.5"));
        assert!(line.contains("\"soc\":0.8125"));
        assert!(line.contains("\"rejected_feedback\":2"));
        assert!(line.contains("\"quarantines\":0"));
        assert!(line.contains("\"cache_hits\":1"));
        assert!(line.ends_with("\"warm_starts\":1}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn non_finite_values_become_null() {
        let mut event = sample_event();
        event.budget = Watts::new(1.0) * f64::NAN;
        let line = event.to_json_line();
        assert!(line.contains("\"budget_w\":null"));
    }

    #[test]
    fn noop_sink_is_disabled_and_silent() {
        let sink = NoopSink;
        assert!(!sink.enabled());
        sink.record_epoch(&sample_event());
        sink.record_span(&SpanRecord::new(
            "x",
            EpochId::FIRST,
            Duration::from_nanos(10),
        ));
    }

    #[test]
    fn collecting_sink_buffers_in_order() {
        let sink = CollectingSink::new();
        assert!(sink.enabled());
        sink.record_span(&SpanRecord::new(
            "controller.predict",
            EpochId::new(1),
            Duration::from_micros(2),
        ));
        let mut second = sample_event();
        second.epoch = EpochId::new(6);
        sink.record_epoch(&sample_event());
        sink.record_epoch(&second);
        assert_eq!(sink.spans().len(), 1);
        assert_eq!(sink.spans()[0].nanos, 2000);
        let epochs = sink.epochs();
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0].epoch, EpochId::new(5));
        assert_eq!(epochs[1].epoch, EpochId::new(6));
    }
}
