//! End-to-end counters of the solver fast path: reuse of the last answer
//! and the engine runs behind it reach the run ledger. (The core crate's
//! property tests hold every fast-path answer to `solve_with_engine`'s
//! bits; `fleet.rs` shows a shared solve cache changes no artifact.)

use greenhetero_core::policies::PolicyKind;
use greenhetero_core::telemetry::names;
use greenhetero_sim::engine::run_scenario;
use greenhetero_sim::scenario::Scenario;

fn tiny(policy: PolicyKind) -> Scenario {
    Scenario {
        servers_per_type: 2,
        days: 1,
        ..Scenario::paper_runtime(policy)
    }
}

#[test]
fn fast_path_counters_reach_the_run_ledger() {
    // Static models (the A variant) and next to no solar: the budget
    // stands still across some epochs, and reuse answers those; the exact
    // engine answers every other solve.
    let dark = Scenario {
        solar_peak_ratio: 1e-6,
        ..tiny(PolicyKind::GreenHeteroA)
    };
    let report = run_scenario(dark).expect("simulation runs");
    let counter = |name: &str| report.ledger.counter(name).unwrap_or(0);
    let reused = counter(names::SOLVER_WARM_START);
    assert!(reused > 0, "reuse never engaged");
    assert_eq!(
        counter(names::SOLVER_CACHE_MISS) + reused,
        counter(names::SOLVER_EXACT_WINS),
        "every solve is reused or a miss the exact engine answered"
    );
    // No per-controller cache is left to hit or evict; the counters stay
    // registered.
    assert_eq!(report.ledger.counter(names::SOLVER_CACHE_HIT), Some(0));
    assert_eq!(report.ledger.counter(names::SOLVER_CACHE_EVICT), Some(0));
    assert_eq!(counter(names::SOLVER_GRID_WINS), 0);
    // Nothing is cross-checked any more; the counters stay registered.
    assert_eq!(report.ledger.counter(names::SOLVER_CROSS_CHECK), Some(0));
    assert_eq!(
        report.ledger.counter(names::SOLVER_CROSS_CHECK_GRID_WIN),
        Some(0)
    );

    // The online-refit variant moves its models with each accepted refit;
    // on this day no problem repeats the one before it, so reuse never
    // answers.
    let refit = run_scenario(tiny(PolicyKind::GreenHetero)).expect("simulation runs");
    let refit_counter = |name: &str| refit.ledger.counter(name).unwrap_or(0);
    assert_eq!(
        refit_counter(names::SOLVER_WARM_START),
        0,
        "refit models must not be reused"
    );
    assert!(
        refit_counter(names::SOLVER_CACHE_MISS) > 0,
        "solves reuse did not answer must be counted"
    );
}
