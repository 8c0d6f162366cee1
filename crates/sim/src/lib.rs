//! # greenhetero-sim
//!
//! The discrete-time simulation engine tying the GreenHetero controller
//! (`greenhetero-core`) to its physical substrates (`greenhetero-power`,
//! `greenhetero-server`).
//!
//! * [`scenario`] — experiment descriptions with paper-faithful defaults;
//! * [`engine`] — the epoch loop (predict → select sources → allocate →
//!   enforce → advance physics → observe);
//! * [`faults`] — deterministic fault schedules (crashes, dropouts,
//!   brownouts, telemetry gaps) the engine injects mid-run;
//! * [`intensity`] — offered-load profiles (constant / diurnal);
//! * [`runner`] — parallel policy comparisons and parameter sweeps;
//! * [`fleet`] — N racks in lock-step epochs on a shared substrate,
//!   reduced in rack order;
//! * [`sched`] — the two executors: a run-queue pool for the
//!   daemon's long-lived sessions, and a scoped lock-step executor for
//!   fleet epochs and sweeps;
//! * [`report`] — per-epoch records, run summaries and CSV export.
//!
//! ```no_run
//! use greenhetero_core::policies::PolicyKind;
//! use greenhetero_sim::{engine::run_scenario, scenario::Scenario};
//!
//! let report = run_scenario(Scenario::paper_runtime(PolicyKind::GreenHetero))?;
//! println!("mean throughput: {}", report.mean_throughput());
//! println!("EPU: {}", report.epu());
//! # Ok::<(), greenhetero_core::error::CoreError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// The discrete-time epoch simulation engine.
pub mod engine;
/// Deterministic fault injection: timed disruption schedules.
pub mod faults;
/// Fleet-scale lock-step simulation on a shared, zero-copy substrate.
pub mod fleet;
/// Workload-intensity patterns driving the simulated load.
pub mod intensity;
/// Result collection and summary reporting.
pub mod report;
/// Experiment runner executing scenarios (optionally in parallel).
pub mod runner;
/// Scenario builder: datacenter composition, traces, and policy.
pub mod scenario;
/// Epoch schedulers: a session pool and a scoped fleet/sweep executor.
pub mod sched;
