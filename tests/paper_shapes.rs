//! Reproduction-band regression tests: the headline shapes of the paper's
//! figures must keep holding as the code evolves. Bands are deliberately
//! generous — they pin the *shape* (who wins, roughly by how much), not
//! exact values.

use greenhetero::core::metrics::{geometric_mean, EpuAccumulator};
use greenhetero::core::policies::PolicyKind;
use greenhetero::core::sources::SupplyCase;
use greenhetero::core::types::{Ratio, Watts};
use greenhetero::power::solar::SolarProfile;
use greenhetero::server::rack::{Combination, Rack};
use greenhetero::server::workload::WorkloadKind;
use greenhetero::sim::engine::run_scenario;
use greenhetero::sim::report::RunReport;
use greenhetero::sim::runner::compare_policies;
use greenhetero::sim::scenario::Scenario;

/// Fig. 3: the case study's optimum PAR lies near 65 % and beats the
/// uniform split by roughly 1.5×; uniform EPU sits near 0.86.
#[test]
fn fig3_case_study_shape() {
    let rack = Rack::combination(Combination::Comb1, 1, WorkloadKind::SpecJbb).unwrap();
    let budget = Watts::new(220.0);
    let eval = |par: f64| {
        let a = budget * Ratio::from_percent(par);
        let m = rack.measure(&[a, budget - a], Ratio::ONE);
        let mut epu = EpuAccumulator::new();
        epu.record(m.total_power().min(budget), budget);
        (epu.epu().value(), m.total_throughput().value())
    };
    let (epu_uniform, perf_uniform) = eval(50.0);
    assert!(
        (0.80..0.92).contains(&epu_uniform),
        "uniform EPU {epu_uniform}"
    );

    let mut best = (0.0, 0.0f64);
    for step in 0..=100 {
        let par = f64::from(step);
        let (_, perf) = eval(par);
        if perf > best.1 {
            best = (par, perf);
        }
    }
    assert!(
        (55.0..=75.0).contains(&best.0),
        "optimal PAR {} out of the paper's band",
        best.0
    );
    let gain = best.1 / perf_uniform;
    assert!((1.3..=1.8).contains(&gain), "case-study gain {gain}");
    let (epu_best, _) = eval(best.0);
    assert!(epu_best > 0.95, "EPU at the optimum {epu_best}");
}

/// Fig. 8: under the High trace, GreenHetero gains ≈1.5× while renewable
/// power is insufficient and ≈1× while abundant; mean PAR near 58 %.
#[test]
fn fig8_runtime_shape() {
    let gh = run_scenario(Scenario::paper_runtime(PolicyKind::GreenHetero)).unwrap();
    let uni = run_scenario(Scenario::paper_runtime(PolicyKind::Uniform)).unwrap();

    let scarce = gh
        .mean_throughput_where(|e| e.case != SupplyCase::A)
        .value()
        / uni
            .mean_throughput_where(|e| e.case != SupplyCase::A)
            .value();
    assert!((1.25..=1.9).contains(&scarce), "scarce gain {scarce}");

    let abundant = gh
        .mean_throughput_where(|e| e.case == SupplyCase::A)
        .value()
        / uni
            .mean_throughput_where(|e| e.case == SupplyCase::A)
            .value();
    assert!(
        (0.95..=1.25).contains(&abundant),
        "abundant gain {abundant}"
    );

    let par = gh.mean_par().unwrap().as_percent();
    assert!((50.0..=70.0).contains(&par), "mean PAR {par}%");

    // The battery carries Case C for a few hours before the grid takes over.
    let mut longest = 0.0f64;
    let mut streak = 0.0f64;
    for e in &gh.epochs {
        if e.case == SupplyCase::C && e.battery_discharge.value() > 0.0 {
            streak += 0.25;
            longest = longest.max(streak);
        } else {
            streak = 0.0;
        }
    }
    assert!((3.0..=7.0).contains(&longest), "ride-through {longest} h");
}

/// Figs. 9/10 condensed: on the scarce-supply workload study, GreenHetero
/// beats Uniform on every probe workload, Streamcluster gains most among
/// them, and Memcached sits near the bottom.
#[test]
fn fig9_workload_ordering_shape() {
    let gain = |w: WorkloadKind| {
        let base = Scenario::workload_study(w, PolicyKind::Uniform);
        let o = compare_policies(&base, &[PolicyKind::Uniform, PolicyKind::GreenHetero]).unwrap();
        o[1].report.mean_scarce_throughput().value() / o[0].report.mean_scarce_throughput().value()
    };
    let stream = gain(WorkloadKind::Streamcluster);
    let memcached = gain(WorkloadKind::Memcached);
    let jbb = gain(WorkloadKind::SpecJbb);
    assert!(stream > 1.5, "streamcluster gain {stream}");
    assert!(
        stream > memcached && stream > jbb,
        "streamcluster must lead"
    );
    assert!(
        (1.05..=1.45).contains(&memcached),
        "memcached gain {memcached}"
    );
    assert!(jbb > 1.2, "SPECjbb gain {jbb}");
}

/// EPU over a run's scarce steady epochs, epoch by epoch, as
/// `fig10_workload_epu` computes it (the run's EPU when none was scarce).
fn scarce_epu(report: &RunReport) -> f64 {
    let mut acc = EpuAccumulator::new();
    for e in report.epochs.iter().filter(|e| !e.training) {
        if RunReport::is_scarce(e) {
            acc.record(e.load.min(e.budget), e.budget);
        }
    }
    if acc.is_empty() {
        report.epu().value()
    } else {
        acc.epu().value()
    }
}

/// Fig. 10 on four workloads of the study under all five policies (the
/// Manual baseline's oracle search included): GreenHetero's scarce-epoch
/// EPU over Uniform has a geo-mean near the 1.04× of all 12 workloads
/// (far below the paper's ≈2.2×, EXPERIMENTS.md D3), and its best
/// workload gains at least 1.1×.
#[test]
fn fig10_workload_epu_shape() {
    let gains: Vec<f64> = [
        WorkloadKind::WebSearch,
        WorkloadKind::Memcached,
        WorkloadKind::Streamcluster,
        WorkloadKind::Vips,
    ]
    .into_iter()
    .map(|w| {
        let base = Scenario::workload_study(w, PolicyKind::Uniform);
        let o = compare_policies(&base, &PolicyKind::ALL).unwrap();
        let epu = |p: PolicyKind| scarce_epu(&o.iter().find(|run| run.policy == p).unwrap().report);
        epu(PolicyKind::GreenHetero) / epu(PolicyKind::Uniform)
    })
    .collect();
    let mean = geometric_mean(&gains).unwrap();
    assert!((0.98..=1.10).contains(&mean), "EPU geo-mean gain {mean}");
    let best = gains.iter().copied().fold(f64::MIN, f64::max);
    assert!(best >= 1.1, "best EPU gain {best}");
}

/// Fig. 11: under the Low trace the rack draws more grid energy than
/// under High, GreenHetero gains ≈1.5× during Cases A and B (the paper's
/// ≈1.2×, EXPERIMENTS.md D4), and the battery cycles to its DoD limit
/// about 1.5 times a day.
#[test]
fn fig11_runtime_low_shape() {
    let low = |p| Scenario {
        solar_profile: SolarProfile::Low,
        ..Scenario::paper_runtime(p)
    };
    let gh = run_scenario(low(PolicyKind::GreenHetero)).unwrap();
    let uni = run_scenario(low(PolicyKind::Uniform)).unwrap();
    let gh_high = run_scenario(Scenario::paper_runtime(PolicyKind::GreenHetero)).unwrap();

    let (low_kwh, high_kwh) = (
        gh.grid_energy.as_kilowatt_hours(),
        gh_high.grid_energy.as_kilowatt_hours(),
    );
    assert!(
        low_kwh > high_kwh,
        "grid {low_kwh} kWh (Low) vs {high_kwh} kWh (High)"
    );

    let ab = gh
        .mean_throughput_where(|e| e.case != SupplyCase::C)
        .value()
        / uni
            .mean_throughput_where(|e| e.case != SupplyCase::C)
            .value();
    assert!((1.3..=1.7).contains(&ab), "Cases A+B gain {ab}");
    assert!(
        (1.0..=2.0).contains(&gh.battery_cycles),
        "battery cycles per day {}",
        gh.battery_cycles
    );
}

/// Fig. 13: Comb2/Comb4 behave near-homogeneously; Comb1 and Comb5 show
/// clearly heterogeneous gains.
#[test]
fn fig13_combination_shape() {
    let gain = |comb: Combination| {
        let base = Scenario {
            combination: comb,
            ..Scenario::workload_study(WorkloadKind::SpecJbb, PolicyKind::Uniform)
        };
        let o = compare_policies(&base, &[PolicyKind::Uniform, PolicyKind::GreenHetero]).unwrap();
        o[1].report.mean_scarce_throughput().value() / o[0].report.mean_scarce_throughput().value()
    };
    let c1 = gain(Combination::Comb1);
    let c2 = gain(Combination::Comb2);
    let c4 = gain(Combination::Comb4);
    let c5 = gain(Combination::Comb5);
    assert!(c2 < c1 && c4 < c1, "near-homogeneous pairs must gain least");
    assert!(c2 < 1.25 && c4 < 1.25, "c2 {c2}, c4 {c4}");
    assert!(c1 > 1.25, "c1 {c1}");
    assert!(c5 > 1.3, "c5 {c5}");
}

/// Fig. 14: on the GPU rack, Srad_v1 gains the most (≈4.6× in the paper)
/// and Cfd the least.
#[test]
fn fig14_gpu_shape() {
    let gain = |w: WorkloadKind| {
        let base = Scenario {
            combination: Combination::Comb6,
            ..Scenario::workload_study(w, PolicyKind::Uniform)
        };
        let o = compare_policies(&base, &[PolicyKind::Uniform, PolicyKind::GreenHetero]).unwrap();
        o[1].report.mean_scarce_throughput().value() / o[0].report.mean_scarce_throughput().value()
    };
    let srad = gain(WorkloadKind::SradV1);
    let cfd = gain(WorkloadKind::Cfd);
    assert!((3.5..=6.0).contains(&srad), "srad gain {srad}");
    assert!(cfd < srad, "cfd {cfd} must gain less than srad {srad}");
    assert!(cfd > 1.2, "cfd still gains: {cfd}");
}
