//! End-to-end purity tests for the solver fast path: reuse of the last
//! answer and the allocation cache are pure accelerators, so seeded runs
//! must be bit-identical with the cache on, off, or resized. (Reuse has
//! no knob; the core crate's property tests hold every fast-path answer
//! to `solve_with_engine`'s bits.)

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

fn chaos(policy: PolicyKind) -> Scenario {
    Scenario {
        servers_per_type: 2,
        days: 1,
        ..Scenario::chaos_runtime(policy)
    }
}

/// Asserts that two scenario variants produce bit-identical runs.
fn assert_identical(base: Scenario, variant: Scenario, label: &str) {
    let a = run_scenario(base).unwrap_or_else(|e| panic!("{label} base: {e}"));
    let b = run_scenario(variant).unwrap_or_else(|e| panic!("{label} variant: {e}"));
    assert_eq!(a.epochs, b.epochs, "{label}: epoch streams diverged");
    assert_eq!(
        a.grid_cost.to_bits(),
        b.grid_cost.to_bits(),
        "{label}: grid cost diverged"
    );
    assert_eq!(
        a.battery_cycles.to_bits(),
        b.battery_cycles.to_bits(),
        "{label}: battery cycles diverged"
    );
}

#[test]
fn cache_on_and_off_are_bit_identical() {
    for policy in [PolicyKind::GreenHetero, PolicyKind::GreenHeteroA] {
        let base = tiny(policy);
        let mut no_cache = tiny(policy);
        no_cache.controller.solver_cache_capacity = 0;
        assert_identical(base, no_cache, "paper cache-off");

        let mut tiny_cache = tiny(policy);
        tiny_cache.controller.solver_cache_capacity = 2;
        assert_identical(tiny(policy), tiny_cache, "paper cache-resized");
    }
}

#[test]
fn cache_on_and_off_are_bit_identical_under_chaos() {
    let base = chaos(PolicyKind::GreenHetero);
    let mut no_cache = chaos(PolicyKind::GreenHetero);
    no_cache.controller.solver_cache_capacity = 0;
    assert_identical(base, no_cache, "chaos cache-off");
}

#[test]
fn fast_path_counters_reach_the_run_ledger() {
    // Static models (the A variant) and next to no solar: the budget
    // stands still across some epochs, and reuse answers those; every
    // other solve consults the cache. The exact engine answers them all.
    let dark = Scenario {
        solar_peak_ratio: 1e-6,
        ..tiny(PolicyKind::GreenHeteroA)
    };
    let report = run_scenario(dark).expect("simulation runs");
    let counter = |name: &str| report.ledger.counter(name).unwrap_or(0);
    let reused = counter(names::SOLVER_WARM_START);
    assert!(reused > 0, "reuse never engaged");
    assert_eq!(
        counter(names::SOLVER_CACHE_HIT) + counter(names::SOLVER_CACHE_MISS) + reused,
        counter(names::SOLVER_EXACT_WINS),
        "every solve is reused, a cache hit, or a miss the exact engine answered"
    );
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
        "solves must consult the cache"
    );
}
