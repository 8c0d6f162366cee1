//! Epoch telemetry: metrics, spans, and exporters for the controller
//! loop.
//!
//! The layer has three parts:
//!
//! * a [`Registry`] of lock-free counters, gauges, and log-bucketed
//!   histograms ([`registry`]);
//! * a [`TelemetrySink`] trait for per-phase spans and per-epoch events,
//!   with a [`NoopSink`] default (disabled telemetry costs a handful of
//!   relaxed atomics and zero allocations), a [`JsonlSink`] that streams
//!   one JSON line per epoch, and a [`CollectingSink`] for tests
//!   ([`sink`], [`jsonl`]);
//! * exporters: a [`RunLedger`] summary attached to run reports, a
//!   Prometheus text dump, and the JSONL replay reader that proves an
//!   exported log matches the live counters ([`ledger`],
//!   [`replay_totals`]).
//!
//! Everything is dependency-free and deterministic: telemetry observes
//! the simulation but never feeds back into it, so seeded runs are
//! bit-identical with telemetry on or off.

/// JSONL event export and the replay parser that audits it.
pub mod jsonl;
/// End-of-run snapshots of every registered instrument.
pub mod ledger;
/// Lock-free counters, gauges and log₂-bucketed histograms.
pub mod registry;
/// Span/event sink trait and the no-op and collecting implementations.
pub mod sink;

use std::sync::Arc;

pub use jsonl::{replay_totals, EventLine, JsonObject, JsonValue, JsonlSink, ReplayTotals};
pub use ledger::{CounterSnapshot, GaugeSnapshot, HistogramSnapshot, RunLedger};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use sink::{CollectingSink, EpochEvent, NoopSink, SpanRecord, TelemetrySink};

/// The canonical metric names — the catalog documented in DESIGN.md §10.
///
/// Counters end in `_total`, histograms carry their unit as a suffix
/// (`_seconds`), gauges name their unit (`_watts`, `_ratio`).
pub mod names {
    /// Epochs that entered [`DegradeLevel::Nominal`] from a worse rung.
    ///
    /// [`DegradeLevel::Nominal`]: crate::controller::DegradeLevel::Nominal
    pub const DEGRADE_TO_NOMINAL: &str = "greenhetero_degrade_to_nominal_total";
    /// Transitions into [`DegradeLevel::FallbackSolve`].
    ///
    /// [`DegradeLevel::FallbackSolve`]: crate::controller::DegradeLevel::FallbackSolve
    pub const DEGRADE_TO_FALLBACK: &str = "greenhetero_degrade_to_fallback_solve_total";
    /// Transitions into [`DegradeLevel::LoadShed`].
    ///
    /// [`DegradeLevel::LoadShed`]: crate::controller::DegradeLevel::LoadShed
    pub const DEGRADE_TO_LOAD_SHED: &str = "greenhetero_degrade_to_load_shed_total";
    /// Transitions into [`DegradeLevel::SafeIdle`].
    ///
    /// [`DegradeLevel::SafeIdle`]: crate::controller::DegradeLevel::SafeIdle
    pub const DEGRADE_TO_SAFE_IDLE: &str = "greenhetero_degrade_to_safe_idle_total";
    /// Feedback samples the monitor's sanity gate rejected.
    pub const FEEDBACK_REJECTED: &str = "greenhetero_feedback_rejected_total";
    /// Profile entries the divergence watchdog quarantined.
    pub const PROFILE_QUARANTINED: &str = "greenhetero_profile_quarantined_total";
    /// Epochs answered by the exact (closed-form) solver engine.
    pub const SOLVER_EXACT_WINS: &str = "greenhetero_solver_exact_wins_total";
    /// Epochs answered by the grid-search solver engine: problems over
    /// `MAX_EXACT_GROUPS` groups, and the fallback rung.
    pub const SOLVER_GRID_WINS: &str = "greenhetero_solver_grid_wins_total";
    /// Allocation-cache lookups that returned a revalidated stored answer.
    pub const SOLVER_CACHE_HIT: &str = "greenhetero_solver_cache_hit_total";
    /// Solves that consulted the allocation cache and missed.
    pub const SOLVER_CACHE_MISS: &str = "greenhetero_solver_cache_miss_total";
    /// Allocation-cache entries displaced by LRU eviction.
    pub const SOLVER_CACHE_EVICT: &str = "greenhetero_solver_cache_evict_total";
    /// Solves answered by reusing the previous solve's answer.
    pub const SOLVER_WARM_START: &str = "greenhetero_solver_warm_start_total";
    /// Grid cross-checks of the exact engine. None run since the exact
    /// engine answers alone; the counter stays registered and reads 0.
    pub const SOLVER_CROSS_CHECK: &str = "greenhetero_solver_cross_check_total";
    /// Cross-checks where the grid beat the exact answer; reads 0.
    pub const SOLVER_CROSS_CHECK_GRID_WIN: &str = "greenhetero_solver_cross_check_grid_win_total";
    /// Epochs spent running training plans.
    pub const TRAINING_RUNS: &str = "greenhetero_training_runs_total";
    /// Solar-trace synthesis requests served from the memo cache.
    ///
    /// Process-global (the memo outlives runs: the same scenario run
    /// twice is a miss then a hit), so it is deliberately **never**
    /// recorded into a per-run registry or [`RunLedger`] — ledgers must
    /// be pure functions of the spec. Read the lifetime totals through
    /// `greenhetero_power::solar::cache_stats`.
    ///
    /// [`RunLedger`]: crate::telemetry::RunLedger
    // greenhetero-lint: allow(GH009) documented name only: the process-global solar memo is read via solar::cache_stats, never registered per-run
    pub const SOLAR_CACHE_HIT: &str = "greenhetero_solar_cache_hit_total";
    /// Solar-trace synthesis requests that had to synthesize from
    /// scratch. Process-global like [`SOLAR_CACHE_HIT`]: kept out of
    /// per-run ledgers, surfaced by
    /// `greenhetero_power::solar::cache_stats`.
    // greenhetero-lint: allow(GH009) documented name only: process-global like SOLAR_CACHE_HIT, surfaced by solar::cache_stats
    pub const SOLAR_CACHE_MISS: &str = "greenhetero_solar_cache_miss_total";

    // The shared (cross-controller) solve cache's counters are
    // scheduling-dependent — *which* rack pays a cold solve or Holt
    // training depends on thread interleaving — so, like the solar memo
    // above, they are
    // never recorded into a per-run registry or ledger. They surface as
    // `FleetReport::shared_solve` provenance and through the serve
    // daemon's Prometheus dump (`Supervisor::shared_solve_stats`).
    /// Shared-solve lookups answered by a revalidated stored allocation.
    pub const SHARED_SOLVE_HIT: &str = "greenhetero_shared_solve_hit_total";
    /// Shared-solve lookups that found no entry under the key.
    pub const SHARED_SOLVE_MISS: &str = "greenhetero_shared_solve_miss_total";
    /// Shared-solve lookups that found the key but failed full-equality
    /// revalidation (a digest collision).
    pub const SHARED_SOLVE_REVALIDATION_MISS: &str =
        "greenhetero_shared_solve_revalidation_miss_total";
    /// Shared-solve entries displaced by per-shard LRU eviction.
    pub const SHARED_SOLVE_EVICT: &str = "greenhetero_shared_solve_evict_total";
    /// Holt retrains answered by a training of the same history stored
    /// in the shared cache.
    pub const SHARED_TRAINING_HIT: &str = "greenhetero_shared_training_hit_total";
    /// Holt retrains that ran the α/β search and published it to the
    /// shared cache.
    pub const SHARED_TRAINING_MISS: &str = "greenhetero_shared_training_miss_total";

    /// Serve sessions restarted after an epoch-step panic.
    pub const SESSION_RESTARTS: &str = "greenhetero_session_restart_total";
    /// Serve sessions quarantined after exhausting their restart budget.
    pub const SESSION_QUARANTINED: &str = "greenhetero_session_quarantined_total";
    /// Serve sessions evicted by the heartbeat watchdog.
    pub const SESSION_EVICTED: &str = "greenhetero_session_evicted_total";
    /// Serve sessions that ran their full epoch horizon to completion.
    pub const SESSION_COMPLETED: &str = "greenhetero_session_completed_total";
    /// Serve requests refused with a reason: a full tick queue
    /// (backpressure), the session or connection cap, a duplicate name,
    /// an invalid spec or substrate, or a draining daemon.
    pub const SERVE_REJECTED: &str = "greenhetero_serve_rejected_total";
    /// Wire frames rejected as malformed (bad length, bad UTF-8, bad
    /// JSON); each closes only the offending connection.
    pub const SERVE_MALFORMED_FRAMES: &str = "greenhetero_serve_malformed_frame_total";
    /// Session checkpoints flushed by the graceful-drain protocol.
    pub const SERVE_DRAIN_CHECKPOINTS: &str = "greenhetero_serve_drain_checkpoint_total";

    // The bounded session pool's counters come from `TaskPool::stats()`
    // atomics. Work-stealing activity is scheduling-dependent (which
    // worker polls which task depends on timing), so like the shared
    // solve cache these surface only through the serve daemon's
    // Prometheus dump, never a per-run registry or ledger.
    /// Worker threads in the serve daemon's bounded session pool.
    pub const POOL_WORKERS: &str = "greenhetero_pool_workers";
    /// Session tasks submitted to the bounded pool over its lifetime.
    pub const POOL_TASKS_SPAWNED: &str = "greenhetero_pool_task_spawned_total";
    /// Session tasks the bounded pool ran to completion.
    pub const POOL_TASKS_COMPLETED: &str = "greenhetero_pool_task_completed_total";
    /// Individual task polls executed by pool workers.
    pub const POOL_POLLS: &str = "greenhetero_pool_poll_total";
    /// Polls served from another worker's deque (work stealing).
    pub const POOL_STEALS: &str = "greenhetero_pool_steal_total";

    /// Prediction-phase wall time per epoch, in seconds.
    pub const PREDICT_SECONDS: &str = "greenhetero_controller_predict_seconds";
    /// Source-selection wall time per epoch, in seconds.
    pub const SELECT_SOURCES_SECONDS: &str = "greenhetero_controller_select_sources_seconds";
    /// Solve-phase wall time per epoch, in seconds.
    pub const SOLVE_SECONDS: &str = "greenhetero_controller_solve_seconds";
    /// Enforcement (measure + dispatch) wall time per epoch, in seconds.
    pub const ENFORCE_SECONDS: &str = "greenhetero_enforce_seconds";
    /// Whole-epoch wall time, in seconds.
    pub const EPOCH_WALL_SECONDS: &str = "greenhetero_epoch_wall_seconds";
    /// RMSE of each successful profile refit, a refit that quarantines
    /// its entry included: the RMS residual of `Perf = f(Power)`, in the
    /// workload's throughput unit.
    pub const REFIT_RMSE: &str = "greenhetero_refit_rmse";
    /// Time each sweep scenario waited in the runner queue, in seconds.
    pub const RUNNER_QUEUE_WAIT_SECONDS: &str = "greenhetero_runner_queue_wait_seconds";

    // Gauges hold one run's most recent reading. When per-rack ledgers
    // are merged into a fleet ledger, gauges resolve last-write-wins in
    // merge (rack) order: a merged gauge is the highest rack id's last
    // reading, **not** a fleet-wide aggregate. Fleet-wide flows and SoC
    // live in `FleetEpochRecord` / the fleet CSV.
    /// Renewable power serving the load, in watts.
    pub const FLOW_RENEWABLE_WATTS: &str = "greenhetero_flow_renewable_watts";
    /// Battery power serving the load, in watts.
    pub const FLOW_BATTERY_WATTS: &str = "greenhetero_flow_battery_watts";
    /// Grid power serving the load, in watts.
    pub const FLOW_GRID_WATTS: &str = "greenhetero_flow_grid_watts";
    /// Power charging the battery, in watts.
    pub const FLOW_CHARGING_WATTS: &str = "greenhetero_flow_charging_watts";
    /// Renewable power curtailed, in watts.
    pub const FLOW_CURTAILED_WATTS: &str = "greenhetero_flow_curtailed_watts";
    /// Planned power the sources could not deliver, in watts.
    pub const FLOW_UNSERVED_WATTS: &str = "greenhetero_flow_unserved_watts";
    /// Battery state of charge, as a ratio.
    pub const BATTERY_SOC_RATIO: &str = "greenhetero_battery_soc_ratio";
}

/// A telemetry handle: one shared [`Registry`] plus one shared
/// [`TelemetrySink`]. Cloning is cheap (two `Arc` bumps); clones observe
/// the same instruments.
#[derive(Debug, Clone)]
pub struct Telemetry {
    registry: Arc<Registry>,
    sink: Arc<dyn TelemetrySink>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// A telemetry handle with the [`NoopSink`]: metrics still accumulate
    /// (they are nearly free) but no spans or events are built.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry {
            registry: Arc::new(Registry::new()),
            sink: Arc::new(NoopSink),
        }
    }

    /// A telemetry handle emitting spans and events to `sink`.
    #[must_use]
    pub fn with_sink(sink: Arc<dyn TelemetrySink>) -> Self {
        Telemetry {
            registry: Arc::new(Registry::new()),
            sink,
        }
    }

    /// The shared instrument registry.
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The shared sink.
    #[must_use]
    pub fn sink(&self) -> &dyn TelemetrySink {
        self.sink.as_ref()
    }

    /// `true` when the sink wants spans and events built.
    #[must_use]
    pub fn sink_enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// Snapshots every registered instrument.
    #[must_use]
    pub fn ledger(&self) -> RunLedger {
        self.registry.ledger()
    }

    /// Renders every registered instrument in Prometheus text format.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        self.registry.render_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_still_counts() {
        let t = Telemetry::disabled();
        assert!(!t.sink_enabled());
        t.registry().counter(names::TRAINING_RUNS).inc();
        assert_eq!(t.ledger().counter(names::TRAINING_RUNS), Some(1));
    }

    #[test]
    fn clones_share_instruments() {
        let t = Telemetry::disabled();
        let clone = t.clone();
        clone.registry().counter(names::SOLVER_EXACT_WINS).add(3);
        assert_eq!(t.ledger().counter(names::SOLVER_EXACT_WINS), Some(3));
    }

    #[test]
    fn with_sink_reports_enabled() {
        let sink = Arc::new(CollectingSink::new());
        let t = Telemetry::with_sink(sink.clone());
        assert!(t.sink_enabled());
        t.sink().record_span(&SpanRecord::new(
            "phase",
            crate::types::EpochId::FIRST,
            std::time::Duration::from_micros(1),
        ));
        assert_eq!(sink.spans().len(), 1);
    }
}
