//! Chaos-day integration suite: the full fault taxonomy — solar dropout,
//! battery string failure, server crash/recovery, telemetry outage, grid
//! brownout — injected into end-to-end runs for every allocation policy.
//!
//! The contract under test: faults degrade a run, they never kill it. No
//! `Err`, no panic, bounded EPU loss, and recovery once the last fault
//! clears.

use greenhetero_core::policies::PolicyKind;
use greenhetero_core::types::{Ratio, SimDuration, SimTime, Watts};
use greenhetero_sim::engine::run_scenario;
use greenhetero_sim::faults::{FaultKind, FaultSchedule, FaultWindow};
use greenhetero_sim::scenario::Scenario;

/// The chaos day at integration-test scale (2 servers per type, 1 day).
fn chaos(policy: PolicyKind) -> Scenario {
    Scenario {
        servers_per_type: 2,
        days: 1,
        ..Scenario::chaos_runtime(policy)
    }
}

/// The identical run with no faults injected — the degradation baseline.
fn fault_free(policy: PolicyKind) -> Scenario {
    Scenario {
        faults: FaultSchedule::none(),
        ..chaos(policy)
    }
}

#[test]
fn chaos_day_runs_to_completion_for_every_policy() {
    for policy in PolicyKind::ALL {
        let report = run_scenario(chaos(policy)).unwrap_or_else(|e| panic!("{policy}: {e}"));
        assert_eq!(report.epochs.len(), 96, "{policy}");
        assert!(report.mean_throughput().value() > 0.0, "{policy}");
        // The faults must actually leave a mark on the ledger: the 2-hour
        // telemetry outage alone covers 8 epochs.
        assert!(report.degraded_epochs >= 8, "{policy}: faults left no mark");
        // Crash epochs are visible as offline servers.
        assert!(
            report.epochs.iter().any(|e| e.offline_servers > 0),
            "{policy}: crash window never surfaced"
        );
    }
}

#[test]
fn chaos_degradation_is_bounded_and_recovers() {
    for policy in PolicyKind::ALL {
        let baseline = run_scenario(fault_free(policy)).unwrap();
        let stressed = run_scenario(chaos(policy)).unwrap();
        // Bounded degradation: EPU stays within 30 % of the fault-free run.
        let floor = 0.7 * baseline.epu().value();
        assert!(
            stressed.epu().value() >= floor,
            "{policy}: EPU collapsed under faults ({:.3} < {floor:.3})",
            stressed.epu().value()
        );
        // Recovery: once the last fault clears (20:00), the controller
        // returns to non-degraded operation within a couple of epochs.
        let latency = stressed
            .recovery_latency_epochs
            .unwrap_or_else(|| panic!("{policy}: never recovered after the last fault"));
        assert!(latency <= 8, "{policy}: recovery took {latency} epochs");
    }
}

#[test]
fn chaos_runs_are_deterministic_given_a_seed() {
    for policy in [PolicyKind::GreenHetero, PolicyKind::Manual] {
        let a = run_scenario(chaos(policy)).unwrap();
        let b = run_scenario(chaos(policy)).unwrap();
        // The full record streams match, fault timings included.
        assert_eq!(a.epochs, b.epochs, "{policy}");
        assert_eq!(a.degraded_epochs, b.degraded_epochs, "{policy}");
        assert_eq!(a.unserved_energy, b.unserved_energy, "{policy}");
        assert_eq!(
            a.recovery_latency_epochs, b.recovery_latency_epochs,
            "{policy}"
        );
    }
}

#[test]
fn seeded_schedules_are_reproducible() {
    let a = FaultSchedule::seeded(7, 2, 2);
    let b = FaultSchedule::seeded(7, 2, 2);
    assert_eq!(a, b);
    assert_ne!(a, FaultSchedule::seeded(8, 2, 2));
    // And a seeded schedule drives a deterministic run end to end.
    let scenario = |seed| Scenario {
        faults: FaultSchedule::seeded(seed, 2, 1),
        ..fault_free(PolicyKind::GreenHetero)
    };
    let x = run_scenario(scenario(7)).unwrap();
    let y = run_scenario(scenario(7)).unwrap();
    assert_eq!(x.epochs, y.epochs);
}

#[test]
fn brownout_caps_the_grid_draw() {
    // A 6-hour overnight brownout cuts the utility feed to half budget;
    // every epoch in the window must respect the reduced cap.
    let brownout = FaultWindow {
        start: SimTime::ZERO,
        len: SimDuration::from_hours(6),
        kind: FaultKind::GridBrownout {
            factor: Ratio::HALF,
        },
    };
    let scenario = Scenario {
        faults: FaultSchedule::new(vec![brownout]),
        ..fault_free(PolicyKind::GreenHetero)
    };
    let budget = scenario.grid_budget;
    let report = run_scenario(scenario).unwrap();
    let cut = budget * 0.5;
    for e in report.epochs.iter().take(24) {
        assert!(
            e.grid_load + e.grid_charge <= cut + Watts::new(1e-6),
            "epoch {:?} drew {} over the browned-out cap {cut}",
            e.epoch,
            e.grid_load + e.grid_charge
        );
    }
    // Outside the window the full cap applies and the run stays healthy.
    for e in report.epochs.iter().skip(24) {
        assert!(e.grid_load + e.grid_charge <= budget + Watts::new(1e-6));
    }
    assert!(report.mean_throughput().value() > 0.0);
}

#[test]
fn telemetry_outage_epochs_are_flagged_degraded() {
    let report = run_scenario(chaos(PolicyKind::GreenHetero)).unwrap();
    // The chaos day's telemetry outage spans 18:00–20:00: epochs 72..80.
    for e in &report.epochs[72..80] {
        assert!(
            e.degraded,
            "epoch {:?} in the outage is not degraded",
            e.epoch
        );
    }
}

#[test]
fn faults_during_training_epochs_degrade_and_recover() {
    // Both faults strike at t = 0, while the database is still empty: a
    // 30-minute telemetry outage (epochs 0–1) and a 45-minute one-server
    // crash on group 0 (epochs 0–2). Training epochs measure, dispatch
    // and report through the same tail as run epochs, so these epochs
    // carry the faults' marks too.
    let outage = FaultWindow {
        start: SimTime::ZERO,
        len: SimDuration::from_minutes(30),
        kind: FaultKind::TelemetryOutage,
    };
    let crash = FaultWindow {
        start: SimTime::ZERO,
        len: SimDuration::from_minutes(45),
        kind: FaultKind::ServerCrash { group: 0, count: 1 },
    };
    for policy in PolicyKind::ALL {
        let report = run_scenario(Scenario {
            faults: FaultSchedule::new(vec![outage, crash]),
            ..fault_free(policy)
        })
        .unwrap_or_else(|e| panic!("{policy}: {e}"));
        let e = &report.epochs;
        // The outage hides the training sweeps, so the controller asks
        // again each epoch until the meters come back.
        for epoch in &e[..2] {
            assert!(epoch.training, "{policy}: {:?} trains", epoch.epoch);
            assert!(epoch.degraded, "{policy}: {:?} is degraded", epoch.epoch);
            assert_eq!(epoch.offline_servers, 1, "{policy}: {:?}", epoch.epoch);
            assert_eq!(epoch.par, None, "{policy}: {:?}", epoch.epoch);
        }
        assert!(e[2].training, "{policy}: epoch 2 trains");
        assert!(!e[2].degraded, "{policy}: epoch 2 reads its meters");
        assert_eq!(e[2].offline_servers, 1, "{policy}: epoch 2");
        assert!(!e[3].training, "{policy}: epoch 3 runs");
        assert!(e[3].par.is_some(), "{policy}: epoch 3 enforces a PAR");
        assert_eq!(e[3].offline_servers, 0, "{policy}: epoch 3");
        assert_eq!(report.degraded_epochs, 2, "{policy}");
        assert_eq!(report.recovery_latency_epochs, Some(0), "{policy}");
    }
}
