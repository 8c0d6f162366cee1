//! Reproduction summary — runs the headline measurement of every table
//! and figure and prints paper-reported vs measured values side by side.
//! This is the generator behind `EXPERIMENTS.md`. Each measurement is the
//! library's one computation of that quantity, shared with the figure's
//! own binary and with `tests/paper_shapes.rs`.
//!
//! It simulates about 160 scenario-days, in under a second in release.

use greenhetero_bench::{
    banner, combination_study, greenhetero_gain, policy_order, run_workload_study, table_header,
    table_row, CaseStudy, GainSpread, NightPoint, RuntimeDay,
};
use greenhetero_core::policies::PolicyKind;
use greenhetero_core::types::Watts;
use greenhetero_power::solar::SolarProfile;
use greenhetero_server::platform::PlatformKind;
use greenhetero_server::rack::Combination;
use greenhetero_server::workload::WorkloadKind;

/// Experiment, quantity and paper-reported value of each printed row, in
/// the order `main` measures them.
const ROWS: [(&str, &str, &str); 28] = [
    ("Fig 3", "optimal PAR", "65%"),
    ("Fig 3", "gain at optimum vs uniform", "≈1.5x"),
    ("Fig 3", "uniform EPU", "≈0.86"),
    ("Fig 3", "EPU at optimum", "→1.0"),
    ("Fig 8", "gain while renewable insufficient", "≈1.5x"),
    ("Fig 8", "gain while renewable abundant", "≈1.0x"),
    ("Fig 8", "mean PAR", "≈58%"),
    ("Fig 8", "Case C battery ride-through", "≈4.2 h"),
    ("Fig 9", "mean perf gain over workloads", "≈1.6x"),
    ("Fig 9", "best workload", "Streamcluster 2.2x"),
    ("Fig 9", "worst workload", "Memcached 1.2x"),
    ("Fig 10", "mean EPU gain", "≈2.2x"),
    ("Fig 10", "best EPU gain", "Canneal 2.7x"),
    ("Fig 11", "gain during Cases A+B (Low trace)", "≈1.2x"),
    ("Fig 11", "battery DoD cycles per day", "≈2"),
    ("Fig 12", "gain shrinks as grid budget grows", "monotone ↓"),
    ("Fig 13", "Comb1 gain (SPECjbb)", "≈1.5x"),
    ("Fig 13", "Comb2 gain (SPECjbb)", "≈1.03x"),
    ("Fig 13", "Comb3 gain (SPECjbb)", "≈1.5x"),
    ("Fig 13", "Comb4 gain (SPECjbb)", "≈1.03x"),
    ("Fig 13", "Comb5 gain (SPECjbb)", "≈1.6x"),
    ("Fig 14", "Srad_v1 gain on GPU rack", "≈4.6x"),
    ("Fig 14", "mean gain on GPU rack", "≈2.5x"),
    ("Fig 14", "Cfd gain (smallest)", "smallest"),
    ("Tab I", "workload catalog", "16 workloads / 4 suites"),
    ("Tab II", "platform catalog", "6 platforms"),
    ("Tab III", "policies", "5 policies"),
    ("Tab IV", "combinations", "6 combinations"),
];

/// A gain as the table prints it.
fn times(gain: f64) -> String {
    format!("{gain:.2}x")
}

fn main() {
    banner(
        "GreenHetero reproduction",
        "paper-reported vs measured, every table and figure",
    );

    let case = CaseStudy::default().summary();
    let high = RuntimeDay::run(SolarProfile::High).summary();
    let study = run_workload_study();
    let gh = PolicyKind::GreenHetero;
    let perf: Vec<_> = study.iter().map(|(w, r)| (*w, r.gain(gh))).collect();
    let epu: Vec<_> = study.iter().map(|(w, r)| (*w, r.epu_gain(gh))).collect();
    let (perf, epu) = (GainSpread::of(&perf), GainSpread::of(&epu));
    let low = RuntimeDay::run(SolarProfile::Low).summary();
    let tight = NightPoint::at(Watts::new(600.0)).gain();
    let ample = NightPoint::at(Watts::new(1400.0)).gain();
    let mut measured = vec![
        format!("{:.0}%", case.optimal_par),
        times(case.gain),
        format!("{:.2}", case.uniform_epu),
        format!("{:.2}", case.optimum_epu),
        times(high.scarce_gain),
        times(high.abundant_gain),
        format!("{:.0}%", high.mean_par_percent),
        format!("{:.1} h", high.ride_through_h),
        times(perf.geo_mean),
        format!("{} {}", perf.best.0, times(perf.best.1)),
        format!("{} {}", perf.worst.0, times(perf.worst.1)),
        times(epu.geo_mean),
        times(epu.best.1),
        times(low.cases_ab_gain),
        format!("{:.1}", low.battery_cycles),
        format!("600 W: {} → 1400 W: {}", times(tight), times(ample)),
    ];
    for comb in &Combination::ALL[..5] {
        measured.push(times(greenhetero_gain(&combination_study(
            *comb,
            WorkloadKind::SpecJbb,
        ))));
    }
    let gpu: Vec<_> = WorkloadKind::COMB6_SET
        .into_iter()
        .map(|w| {
            (
                w,
                greenhetero_gain(&combination_study(Combination::Comb6, w)),
            )
        })
        .collect();
    let on_gpu = |workload| {
        gpu.iter()
            .find(|(w, _)| *w == workload)
            .map_or(0.0, |g| g.1)
    };
    measured.extend([
        times(on_gpu(WorkloadKind::SradV1)),
        times(GainSpread::of(&gpu).geo_mean),
        times(on_gpu(WorkloadKind::Cfd)),
        format!("{} workloads", WorkloadKind::ALL.len()),
        format!("{} platforms", PlatformKind::ALL.len()),
        format!("{} policies", policy_order().len()),
        format!("{} combinations", Combination::ALL.len()),
    ]);

    assert_eq!(measured.len(), ROWS.len(), "one measurement per row");
    println!();
    table_header(&["Experiment", "Quantity", "Paper", "Measured"]);
    for ((id, what, paper), measured) in ROWS.into_iter().zip(measured) {
        table_row(&[id.into(), what.into(), paper.into(), measured]);
    }
}
