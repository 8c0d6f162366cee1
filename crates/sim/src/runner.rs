//! Experiment runners: policy comparisons and parameter sweeps.
//!
//! The paper's figures compare the five Table III policies across
//! workloads, server combinations and grid budgets. These helpers run the
//! cross-products in parallel on the scoped executor
//! ([`crate::sched::run_epoch_batches`]); each simulation is independent
//! and seeded.

use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Instant;

use greenhetero_core::error::CoreError;
use greenhetero_core::policies::PolicyKind;
use greenhetero_core::solver::SharedSolveCache;

use crate::engine::Simulation;
use crate::report::RunReport;
use crate::scenario::Scenario;
use crate::sched::run_epoch_batches;

/// The outcome of one (policy, scenario) cell.
#[derive(Debug)]
pub struct PolicyOutcome {
    /// The policy that ran.
    pub policy: PolicyKind,
    /// Its run report.
    pub report: RunReport,
}

/// Runs the same scenario under every policy in `policies`, in parallel.
///
/// # Errors
///
/// Propagates the first simulation failure encountered.
///
/// # Examples
///
/// ```no_run
/// use greenhetero_core::policies::PolicyKind;
/// use greenhetero_sim::runner::compare_policies;
/// use greenhetero_sim::scenario::Scenario;
///
/// let base = Scenario::paper_runtime(PolicyKind::Uniform);
/// let outcomes = compare_policies(&base, &PolicyKind::ALL)?;
/// for o in &outcomes {
///     println!("{}: {}", o.policy, o.report.mean_throughput());
/// }
/// # Ok::<(), greenhetero_core::error::CoreError>(())
/// ```
pub fn compare_policies(
    base: &Scenario,
    policies: &[PolicyKind],
) -> Result<Vec<PolicyOutcome>, CoreError> {
    let scenarios: Vec<Scenario> = policies
        .iter()
        .map(|&policy| Scenario {
            policy,
            ..base.clone()
        })
        .collect();
    let reports = run_all(scenarios)?;
    Ok(policies
        .iter()
        .zip(reports)
        .map(|(&policy, report)| PolicyOutcome { policy, report })
        .collect())
}

/// Capacity of the [`SharedSolveCache`] one [`run_all`] batch shares. The
/// five policies of a sweep cell share a seed, so their predictor lanes
/// retrain on the same histories, about 16 per two-day run: 64 trainings
/// keep a cell's alive across its runs. The runs rarely pose each other's
/// allocation problems, so the solves are held to the same 64 entries,
/// and a batch's memory stays flat.
const BATCH_SHARED_CAPACITY: usize = 64;

/// Runs every scenario on a bounded worker pool and collects the reports
/// in input order.
///
/// The scenarios run as one epoch of one-scenario batches on
/// [`run_epoch_batches`], at [`worker_count`] threads (capped at the
/// scenario count), not one thread per scenario: a 500-cell sweep on an
/// 8-core box runs 8 simulations at a time instead of spawning 500 OS
/// threads. Each run's telemetry records how long it waited in the
/// queue before a worker picked it up
/// ([`names::RUNNER_QUEUE_WAIT_SECONDS`](greenhetero_core::telemetry::names::RUNNER_QUEUE_WAIT_SECONDS)).
///
/// Every run of one call shares one [`SharedSolveCache`], so a Holt
/// training (or a solve) that another run of the batch already did is
/// taken from it, bit for bit: each report is byte-identical to
/// [`run_scenario`](crate::engine::run_scenario)'s for the same scenario.
///
/// # Errors
///
/// Propagates the first simulation failure (in input order). A worker
/// panic is resumed on the calling thread.
pub fn run_all(scenarios: Vec<Scenario>) -> Result<Vec<RunReport>, CoreError> {
    let queued_at = Instant::now();
    let shared = Arc::new(SharedSolveCache::new(BATCH_SHARED_CAPACITY));
    let cells: Vec<Cell> = scenarios
        .into_iter()
        .map(|scenario| (Some(scenario), None))
        .collect();
    let run_cell = |(scenario, outcome): &mut Cell, _epoch: u64| {
        *outcome = scenario.take().map(|scenario| {
            let waited = queued_at.elapsed();
            let mut sim = Simulation::new(scenario)?;
            sim.set_shared_solve_cache(Arc::clone(&shared));
            sim.note_queue_wait(waited);
            sim.run()
        });
        true
    };
    run_epoch_batches(worker_count(), 1, cells, &run_cell, &|_, _| {}, &|_| {})
        .into_iter()
        .map(|(_, outcome)| {
            outcome.unwrap_or_else(|| {
                Err(CoreError::InvalidConfig {
                    reason: "sweep executor never ran a scenario".into(),
                })
            })
        })
        .collect()
}

/// One sweep cell: its scenario until a worker takes it, then its outcome.
type Cell = (Option<Scenario>, Option<Result<RunReport, CoreError>>);

/// The worker-pool width: the `GH_SIM_THREADS` environment variable when
/// set to a positive integer (clamped to ≥ 1 — CI and benchmarks use it
/// to pin parallelism), otherwise the machine's available parallelism,
/// or one worker when that cannot be determined.
///
/// A set-but-unusable override (garbage, `0`, or a value that overflows
/// `usize`) no longer degrades silently: the first call logs a one-line
/// warning to stderr naming the rejected value and the width actually
/// used.
#[must_use]
pub fn worker_count() -> usize {
    static WARN_ONCE: std::sync::Once = std::sync::Once::new();
    let (count, warning) = worker_count_from(std::env::var("GH_SIM_THREADS").ok().as_deref());
    if let Some(warning) = warning {
        WARN_ONCE.call_once(|| eprintln!("greenhetero-sim: {warning}"));
    }
    count
}

/// [`worker_count`] with the override injected, so tests never have to
/// mutate process-global environment state. Returns the width plus the
/// warning (if any) that the caller should surface exactly once.
fn worker_count_from(override_: Option<&str>) -> (usize, Option<String>) {
    let machine = || std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let Some(raw) = override_ else {
        return (machine(), None);
    };
    match raw.trim().parse::<usize>() {
        Ok(0) => (
            1,
            Some("GH_SIM_THREADS=0 is not a valid pool width; clamping to 1 worker".into()),
        ),
        Ok(requested) => (requested, None),
        Err(_) => {
            let fallback = machine();
            (
                fallback,
                Some(format!(
                    "GH_SIM_THREADS={raw:?} is not a positive integer (unparseable or \
                     overflowing); falling back to machine parallelism ({fallback} workers)"
                )),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenhetero_server::workload::WorkloadKind;

    fn tiny(policy: PolicyKind) -> Scenario {
        Scenario {
            servers_per_type: 1,
            days: 1,
            ..Scenario::paper_runtime(policy)
        }
    }

    #[test]
    fn worker_count_override_parses_and_clamps() {
        assert_eq!(worker_count_from(Some("3")), (3, None));
        assert_eq!(worker_count_from(Some(" 2 ")), (2, None));
        assert_eq!(worker_count_from(Some("0")).0, 1, "override clamps to ≥ 1");
        let (fallback, none) = worker_count_from(None);
        assert!(fallback >= 1);
        assert!(none.is_none(), "an absent override is not a warning");
        // Garbage falls back to machine parallelism.
        assert_eq!(worker_count_from(Some("lots")).0, fallback);
        assert_eq!(worker_count_from(Some("-4")).0, fallback);
    }

    #[test]
    fn worker_count_garbage_override_warns() {
        let (count, warning) = worker_count_from(Some("lots"));
        assert!(count >= 1);
        let warning = warning.expect("garbage override must warn");
        assert!(
            warning.contains("\"lots\""),
            "warning names the value: {warning}"
        );
        assert!(
            warning.contains("falling back"),
            "warning says what happened: {warning}"
        );
    }

    #[test]
    fn worker_count_zero_override_warns_and_clamps() {
        let (count, warning) = worker_count_from(Some("0"));
        assert_eq!(count, 1);
        let warning = warning.expect("zero override must warn");
        assert!(warning.contains("GH_SIM_THREADS=0"), "warning: {warning}");
        // Whitespace-padded zero takes the same path.
        assert_eq!(worker_count_from(Some(" 0 ")).0, 1);
        assert!(worker_count_from(Some(" 0 ")).1.is_some());
    }

    #[test]
    fn worker_count_overflow_override_warns_and_falls_back() {
        // One past usize::MAX: parses under u128 semantics but overflows
        // usize, so it must take the warning fallback path, not wrap.
        let overflow = format!("{}0", usize::MAX);
        let (count, warning) = worker_count_from(Some(&overflow));
        assert_eq!(count, worker_count_from(None).0);
        let warning = warning.expect("overflowing override must warn");
        assert!(warning.contains("overflowing"), "warning: {warning}");
    }

    #[test]
    fn compare_policies_preserves_order() {
        let outcomes = compare_policies(
            &tiny(PolicyKind::Uniform),
            &[PolicyKind::Uniform, PolicyKind::GreenHetero],
        )
        .unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].policy, PolicyKind::Uniform);
        assert_eq!(outcomes[1].policy, PolicyKind::GreenHetero);
    }

    #[test]
    fn run_all_completes_more_scenarios_than_cores() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let n = cores + 2;
        let scenarios: Vec<Scenario> = (0..n).map(|_| tiny(PolicyKind::Uniform)).collect();
        let reports = run_all(scenarios).unwrap();
        assert_eq!(reports.len(), n);
        // Every run passed through the pool, so each ledger holds one
        // queue-wait observation.
        for report in &reports {
            let hist = report
                .ledger
                .histogram(greenhetero_core::telemetry::names::RUNNER_QUEUE_WAIT_SECONDS)
                .expect("queue-wait histogram registered");
            assert_eq!(hist.count, 1);
        }
    }

    #[test]
    fn batch_equals_runs_one_by_one() {
        // One sweep cell: five policies on one seed, so the batch's runs
        // train on each other's histories. Every report must still be the
        // lone run's, byte for byte, at any `GH_SIM_THREADS`.
        let cell: Vec<Scenario> = PolicyKind::ALL
            .iter()
            .map(|&policy| Scenario {
                servers_per_type: 1,
                seed: 11,
                ..Scenario::workload_study(WorkloadKind::Memcached, policy)
            })
            .collect();
        let csv = |report: &RunReport| {
            let mut bytes = Vec::new();
            report.write_csv(&mut bytes).unwrap();
            bytes
        };
        let batch = run_all(cell.clone()).unwrap();
        for (scenario, report) in cell.into_iter().zip(&batch) {
            let policy = scenario.policy;
            let alone = crate::engine::run_scenario(scenario).unwrap();
            assert_eq!(report.epochs, alone.epochs, "{policy:?}");
            assert_eq!(csv(report), csv(&alone), "{policy:?}");
        }
    }

    #[test]
    fn first_error_in_input_order_propagates() {
        let mut bad_days = tiny(PolicyKind::Uniform);
        bad_days.days = 0;
        let mut bad_servers = tiny(PolicyKind::Uniform);
        bad_servers.servers_per_type = 0;
        let scenarios = vec![tiny(PolicyKind::Uniform), bad_days, bad_servers];
        let err = run_all(scenarios).unwrap_err();
        assert!(
            err.to_string().contains("day"),
            "expected the earlier (days=0) failure, got: {err}"
        );
    }
}
