//! Cross-crate integration tests: full simulated days driven through the
//! public API, checking system-level invariants the unit tests cannot see.

use greenhetero::core::policies::PolicyKind;
use greenhetero::core::sources::SupplyCase;
use greenhetero::core::types::Watts;
use greenhetero::power::solar::SolarProfile;
use greenhetero::server::rack::Combination;
use greenhetero::server::workload::WorkloadKind;
use greenhetero::sim::engine::run_scenario;
use greenhetero::sim::report::RunReport;
use greenhetero::sim::runner::{compare_policies, run_all};
use greenhetero::sim::scenario::Scenario;

fn small(policy: PolicyKind) -> Scenario {
    Scenario {
        servers_per_type: 2,
        ..Scenario::paper_runtime(policy)
    }
}

#[test]
fn every_policy_survives_a_week() {
    for policy in PolicyKind::ALL {
        let scenario = Scenario {
            days: 7,
            servers_per_type: 1,
            ..Scenario::paper_runtime(policy)
        };
        let report = run_scenario(scenario).expect("week-long run");
        assert_eq!(report.epochs.len(), 7 * 96, "{policy}");
        assert!(report.mean_throughput().value() > 0.0, "{policy}");
    }
}

#[test]
fn grid_draw_never_exceeds_budget_in_any_epoch() {
    let report = run_scenario(small(PolicyKind::GreenHetero)).expect("run");
    for e in &report.epochs {
        assert!(
            (e.grid_load + e.grid_charge).value() <= 1000.0 + 1e-6,
            "epoch {} drew {} + {}",
            e.epoch,
            e.grid_load,
            e.grid_charge
        );
    }
    assert!(report.grid_peak <= Watts::new(1000.0));
}

#[test]
fn battery_never_violates_dod_floor() {
    let report = run_scenario(small(PolicyKind::GreenHetero)).expect("run");
    for e in &report.epochs {
        assert!(
            e.soc.value() >= 0.6 - 1e-6,
            "epoch {}: SoC {} below the 40% DoD floor",
            e.epoch,
            e.soc
        );
        assert!(e.soc.value() <= 1.0 + 1e-9);
    }
}

#[test]
fn no_epoch_charges_and_discharges_simultaneously() {
    let report = run_scenario(small(PolicyKind::GreenHetero)).expect("run");
    for e in &report.epochs {
        assert!(
            e.battery_charge.is_zero() || e.battery_discharge.is_zero(),
            "epoch {} both charged and discharged",
            e.epoch
        );
    }
}

#[test]
fn load_power_is_covered_by_sources_each_epoch() {
    let report = run_scenario(small(PolicyKind::GreenHetero)).expect("run");
    for e in &report.epochs {
        // Load never exceeds what the sources could deliver that epoch.
        let sources = e.solar + e.battery_discharge + e.grid_load;
        assert!(
            e.load.value() <= sources.value() + 1e-6,
            "epoch {}: load {} exceeds sources {}",
            e.epoch,
            e.load,
            sources
        );
        // And never exceeds the scheduler's budget.
        assert!(e.load.value() <= e.budget.value() + 1e-6);
    }
}

#[test]
fn epu_is_a_valid_ratio_for_all_policies() {
    for policy in PolicyKind::ALL {
        let report = run_scenario(small(policy)).expect("run");
        let epu = report.epu().value();
        assert!((0.0..=1.0).contains(&epu), "{policy}: EPU {epu}");
    }
}

#[test]
fn greenhetero_dominates_uniform_on_throughput_and_epu() {
    let outcomes = compare_policies(
        &small(PolicyKind::Uniform),
        &[PolicyKind::Uniform, PolicyKind::GreenHetero],
    )
    .expect("comparison");
    let uni = &outcomes[0].report;
    let gh = &outcomes[1].report;
    assert!(gh.mean_throughput() > uni.mean_throughput());
    assert!(gh.epu().value() >= uni.epu().value() - 1e-9);
}

#[test]
fn runs_are_deterministic_per_seed_and_diverge_across_seeds() {
    let a = run_scenario(small(PolicyKind::GreenHetero)).expect("run");
    let b = run_scenario(small(PolicyKind::GreenHetero)).expect("run");
    assert_eq!(a.epochs, b.epochs);

    let c = run_scenario(Scenario {
        seed: 7,
        ..small(PolicyKind::GreenHetero)
    })
    .expect("run");
    assert_ne!(a.epochs, c.epochs);
}

#[test]
fn more_grid_budget_never_hurts() {
    let reports = run_all(
        [400.0, 800.0, 1200.0]
            .into_iter()
            .map(|w| Scenario {
                grid_budget: Watts::new(w),
                ..small(PolicyKind::GreenHetero)
            })
            .collect(),
    )
    .expect("sweep");
    for pair in reports.windows(2) {
        assert!(
            pair[1].mean_throughput().value() >= pair[0].mean_throughput().value() - 1e-6,
            "throughput decreased when the grid budget grew"
        );
    }
}

#[test]
fn night_is_case_c_and_noon_is_not() {
    let report = run_scenario(small(PolicyKind::GreenHetero)).expect("run");
    let at = |h: usize| &report.epochs[h * 4];
    assert_eq!(at(1).case, SupplyCase::C);
    assert_eq!(at(23).case, SupplyCase::C);
    assert_ne!(at(12).case, SupplyCase::C);
}

#[test]
fn training_happens_once_per_pair_then_never_again() {
    let report = run_scenario(small(PolicyKind::GreenHetero)).expect("run");
    let training: Vec<usize> = report
        .epochs
        .iter()
        .enumerate()
        .filter(|(_, e)| e.training)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(training, vec![0], "only the first epoch trains");
}

#[test]
fn low_trace_uses_more_grid_than_high_trace() {
    let high = run_scenario(small(PolicyKind::GreenHetero)).expect("run");
    let low = run_scenario(Scenario {
        solar_profile: SolarProfile::Low,
        ..small(PolicyKind::GreenHetero)
    })
    .expect("run");
    assert!(
        low.grid_energy > high.grid_energy,
        "low {} vs high {}",
        low.grid_energy,
        high.grid_energy
    );
}

#[test]
fn gpu_combination_runs_rodinia_end_to_end() {
    let scenario = Scenario {
        combination: Combination::Comb6,
        servers_per_type: 2,
        workload: WorkloadKind::SradV1,
        days: 1,
        ..Scenario::paper_runtime(PolicyKind::GreenHetero)
    };
    let report = run_scenario(scenario).expect("gpu run");
    assert!(report.mean_throughput().value() > 0.0);
}

#[test]
fn three_type_rack_runs_end_to_end() {
    let scenario = Scenario {
        combination: Combination::Comb5,
        servers_per_type: 2,
        ..Scenario::paper_runtime(PolicyKind::GreenHetero)
    };
    let report = run_scenario(scenario).expect("comb5 run");
    assert!(report.mean_throughput().value() > 0.0);
}

#[test]
fn mixed_workload_rack_trains_every_pair_and_runs() {
    use greenhetero::server::platform::PlatformKind;
    let scenario = Scenario {
        mixed: Some(vec![
            (PlatformKind::XeonE52620, 3, WorkloadKind::Streamcluster),
            (PlatformKind::XeonE52620, 2, WorkloadKind::Mcf),
            (PlatformKind::CoreI54460, 5, WorkloadKind::Memcached),
        ]),
        ..Scenario::paper_runtime(PolicyKind::GreenHetero)
    };
    let report = run_scenario(scenario).expect("mixed run");
    assert_eq!(report.epochs.len(), 96);
    // All three (config, workload) pairs train in the first epoch, then run.
    assert!(report.epochs[0].training);
    assert!(!report.epochs[1].training);
    assert!(report.mean_throughput().value() > 0.0);
}

#[test]
fn mixed_rack_beats_uniform_too() {
    use greenhetero::server::platform::PlatformKind;
    let base = Scenario {
        mixed: Some(vec![
            (PlatformKind::XeonE52620, 5, WorkloadKind::Streamcluster),
            (PlatformKind::CoreI54460, 5, WorkloadKind::Memcached),
        ]),
        ..Scenario::workload_study(WorkloadKind::SpecJbb, PolicyKind::Uniform)
    };
    let outcomes = compare_policies(&base, &[PolicyKind::Uniform, PolicyKind::GreenHetero])
        .expect("comparison");
    let gain = outcomes[1].report.mean_scarce_throughput().value()
        / outcomes[0].report.mean_scarce_throughput().value();
    assert!(gain > 1.2, "mixed-rack gain was only {gain:.2}");
}

#[test]
fn csv_export_has_a_row_per_epoch() {
    let report = run_scenario(small(PolicyKind::Uniform)).expect("run");
    let mut buf = Vec::new();
    report.write_csv(&mut buf).expect("csv");
    let text = String::from_utf8(buf).expect("utf8");
    assert_eq!(text.lines().count(), report.epochs.len() + 1);
}

#[test]
fn scarce_epochs_exist_and_are_where_greenhetero_wins() {
    // Needs the full-size rack: a 2-per-type rack's 456 W peak demand
    // never outgrows the 1000 W grid budget, so nothing is ever scarce.
    let base = Scenario {
        days: 1,
        ..Scenario::workload_study(WorkloadKind::SpecJbb, PolicyKind::Uniform)
    };
    let outcomes = compare_policies(&base, &[PolicyKind::Uniform, PolicyKind::GreenHetero])
        .expect("comparison");
    let uni = &outcomes[0].report;
    let gh = &outcomes[1].report;
    let scarce_count = gh.epochs.iter().filter(|e| RunReport::is_scarce(e)).count();
    assert!(scarce_count > 10, "expected plenty of scarce epochs");
    let gain = gh.mean_scarce_throughput().value() / uni.mean_scarce_throughput().value();
    assert!(gain > 1.1, "scarce-epoch gain was only {gain:.2}");
}
