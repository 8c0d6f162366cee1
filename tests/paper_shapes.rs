//! Reproduction-band regression tests: the headline shapes of the paper's
//! figures must keep holding as the code evolves. Bands are deliberately
//! generous — they pin the *shape* (who wins, roughly by how much), not
//! exact values. Each test reads the `greenhetero_bench` computation that
//! the figure's binary and `all_experiments` print.

use greenhetero::core::policies::PolicyKind;
use greenhetero::power::solar::SolarProfile;
use greenhetero::server::rack::Combination;
use greenhetero::server::workload::WorkloadKind;
use greenhetero::sim::scenario::Scenario;
use greenhetero_bench::{
    combination_study, greenhetero_gain, CaseStudy, Comparison, GainSpread, RuntimeDay,
};

/// Fig. 3: the case study's optimum PAR lies near 65 % and beats the
/// uniform split by roughly 1.5×; uniform EPU sits near 0.86.
#[test]
fn fig3_case_study_shape() {
    let case = CaseStudy::default().summary();
    let epu_uniform = case.uniform_epu;
    assert!(
        (0.80..0.92).contains(&epu_uniform),
        "uniform EPU {epu_uniform}"
    );
    assert!(
        (55.0..=75.0).contains(&case.optimal_par),
        "optimal PAR {} out of the paper's band",
        case.optimal_par
    );
    let gain = case.gain;
    assert!((1.3..=1.8).contains(&gain), "case-study gain {gain}");
    let epu_best = case.optimum_epu;
    assert!(epu_best > 0.95, "EPU at the optimum {epu_best}");
}

/// Fig. 8: under the High trace, GreenHetero gains ≈1.5× while renewable
/// power is insufficient and ≈1× while abundant; mean PAR near 58 %.
#[test]
fn fig8_runtime_shape() {
    let day = RuntimeDay::run(SolarProfile::High).summary();

    let scarce = day.scarce_gain;
    assert!((1.25..=1.9).contains(&scarce), "scarce gain {scarce}");

    let abundant = day.abundant_gain;
    assert!(
        (0.95..=1.25).contains(&abundant),
        "abundant gain {abundant}"
    );

    let par = day.mean_par_percent;
    assert!((50.0..=70.0).contains(&par), "mean PAR {par}%");

    // The battery carries Case C for a few hours before the grid takes over.
    let longest = day.ride_through_h;
    assert!((3.0..=7.0).contains(&longest), "ride-through {longest} h");
}

/// Figs. 9/10 condensed: on the scarce-supply workload study, GreenHetero
/// beats Uniform on every probe workload, Streamcluster gains most among
/// them, and Memcached sits near the bottom.
#[test]
fn fig9_workload_ordering_shape() {
    let study = |w| Scenario::workload_study(w, PolicyKind::Uniform);
    let stream = greenhetero_gain(&study(WorkloadKind::Streamcluster));
    let memcached = greenhetero_gain(&study(WorkloadKind::Memcached));
    let jbb = greenhetero_gain(&study(WorkloadKind::SpecJbb));
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

/// Fig. 10 on four workloads of the study under all five policies (the
/// Manual baseline's oracle search included): GreenHetero's scarce-epoch
/// EPU over Uniform has a geo-mean near the 1.04× of all 12 workloads
/// (far below the paper's ≈2.2×, EXPERIMENTS.md D3), and its best
/// workload gains at least 1.1×.
#[test]
fn fig10_workload_epu_shape() {
    let gains: Vec<_> = [
        WorkloadKind::WebSearch,
        WorkloadKind::Memcached,
        WorkloadKind::Streamcluster,
        WorkloadKind::Vips,
    ]
    .into_iter()
    .map(|w| {
        let runs = Comparison::run(
            &Scenario::workload_study(w, PolicyKind::Uniform),
            &PolicyKind::ALL,
        );
        (w, runs.epu_gain(PolicyKind::GreenHetero))
    })
    .collect();
    let spread = GainSpread::of(&gains);
    let mean = spread.geo_mean;
    assert!((0.98..=1.10).contains(&mean), "EPU geo-mean gain {mean}");
    let best = spread.best.1;
    assert!(best >= 1.1, "best EPU gain {best}");
}

/// Fig. 11: under the Low trace the rack draws more grid energy than
/// under High, GreenHetero gains ≈1.5× during Cases A and B (the paper's
/// ≈1.2×, EXPERIMENTS.md D4), and the battery cycles to its DoD limit
/// about 1.5 times a day.
#[test]
fn fig11_runtime_low_shape() {
    let low = RuntimeDay::run(SolarProfile::Low).summary();
    let high = RuntimeDay::run(SolarProfile::High).summary();

    let (low_kwh, high_kwh) = (low.grid_kwh, high.grid_kwh);
    assert!(
        low_kwh > high_kwh,
        "grid {low_kwh} kWh (Low) vs {high_kwh} kWh (High)"
    );

    let ab = low.cases_ab_gain;
    assert!((1.3..=1.7).contains(&ab), "Cases A+B gain {ab}");
    assert!(
        (1.0..=2.0).contains(&low.battery_cycles),
        "battery cycles per day {}",
        low.battery_cycles
    );
}

/// Fig. 13: Comb2/Comb4 behave near-homogeneously; Comb1 and Comb5 show
/// clearly heterogeneous gains.
#[test]
fn fig13_combination_shape() {
    let jbb = |comb| combination_study(comb, WorkloadKind::SpecJbb);
    let c1 = greenhetero_gain(&jbb(Combination::Comb1));
    let c2 = greenhetero_gain(&jbb(Combination::Comb2));
    let c4 = greenhetero_gain(&jbb(Combination::Comb4));
    let c5 = greenhetero_gain(&jbb(Combination::Comb5));
    assert!(c2 < c1 && c4 < c1, "near-homogeneous pairs must gain least");
    assert!(c2 < 1.25 && c4 < 1.25, "c2 {c2}, c4 {c4}");
    assert!(c1 > 1.25, "c1 {c1}");
    assert!(c5 > 1.3, "c5 {c5}");
}

/// Fig. 14: on the GPU rack, Srad_v1 gains the most (≈4.6× in the paper)
/// and Cfd the least.
#[test]
fn fig14_gpu_shape() {
    let gpu = |w| combination_study(Combination::Comb6, w);
    let srad = greenhetero_gain(&gpu(WorkloadKind::SradV1));
    let cfd = greenhetero_gain(&gpu(WorkloadKind::Cfd));
    assert!((3.5..=6.0).contains(&srad), "srad gain {srad}");
    assert!(cfd < srad, "cfd {cfd} must gain less than srad {srad}");
    assert!(cfd > 1.2, "cfd still gains: {cfd}");
}
