//! Figure 11 — 24-hour runtime results of SPECjbb under the **Low** solar
//! trace: more fluctuation, more frequent battery discharge/charge
//! activity, and more grid usage than Fig. 8.
//!
//! Paper shape: ≈ 1.2× mean gain over Uniform during Cases A and B; the
//! batteries cycle to max DoD about twice per day; more grid energy is
//! consumed than under the High trace.

use greenhetero_bench::{banner, table_header, table_row, RuntimeDay};
use greenhetero_power::solar::SolarProfile;
use greenhetero_sim::report::RunReport;

fn main() {
    banner(
        "Figure 11",
        "Runtime results of SPECjbb using the Low solar trace (24 h, Comb1 x5, 1000 W grid)",
    );

    let low = RuntimeDay::run(SolarProfile::Low);
    let high = RuntimeDay::run(SolarProfile::High);
    let (gh, uni, gh_high) = (&low.greenhetero, &low.uniform, &high.greenhetero);
    let (low_summary, high_summary) = (low.summary(), high.summary());

    println!("\n(a) hourly performance (normalized to Uniform) and supply case");
    table_header(&[
        "Hour",
        "Case",
        "GreenHetero/Uniform",
        "Solar (W)",
        "Budget (W)",
    ]);
    for hour in 0..24u64 {
        let slice = &gh.epochs[(hour * 4) as usize..((hour + 1) * 4) as usize];
        let uslice = &uni.epochs[(hour * 4) as usize..((hour + 1) * 4) as usize];
        let g: f64 = slice.iter().map(|e| e.throughput.value()).sum();
        let u: f64 = uslice.iter().map(|e| e.throughput.value()).sum();
        table_row(&[
            format!("{hour:02}"),
            format!("{:?}", slice[0].case)
                .chars()
                .last()
                .unwrap()
                .to_string(),
            format!("{:.2}x", if u > 0.0 { g / u } else { 1.0 }),
            format!(
                "{:.0}",
                slice.iter().map(|e| e.solar.value()).sum::<f64>() / 4.0
            ),
            format!(
                "{:.0}",
                slice.iter().map(|e| e.budget.value()).sum::<f64>() / 4.0
            ),
        ]);
    }

    println!("\n(b) power profile comparison vs the High trace");
    table_header(&["Metric", "Low trace", "High trace"]);
    let charge_events = |r: &RunReport| {
        r.epochs
            .iter()
            .filter(|e| e.battery_charge.value() > 0.0)
            .count()
    };
    let discharge_events = |r: &RunReport| {
        r.epochs
            .iter()
            .filter(|e| e.battery_discharge.value() > 0.0)
            .count()
    };
    table_row(&[
        "battery cycles/day".to_string(),
        format!("{:.2}", low_summary.battery_cycles),
        format!("{:.2}", high_summary.battery_cycles),
    ]);
    table_row(&[
        "charging epochs".to_string(),
        format!("{}", charge_events(gh)),
        format!("{}", charge_events(gh_high)),
    ]);
    table_row(&[
        "discharging epochs".to_string(),
        format!("{}", discharge_events(gh)),
        format!("{}", discharge_events(gh_high)),
    ]);
    table_row(&[
        "grid energy (kWh)".to_string(),
        format!("{:.1}", low_summary.grid_kwh),
        format!("{:.1}", high_summary.grid_kwh),
    ]);
    table_row(&[
        "grid cost ($)".to_string(),
        format!("{:.2}", gh.grid_cost),
        format!("{:.2}", gh_high.grid_cost),
    ]);

    println!();
    println!(
        "mean gain during Cases A and B: {:.2}x (paper: ≈1.2x)",
        low_summary.cases_ab_gain
    );
    println!(
        "battery cycled {:.1}x to max DoD (paper: about twice per day)",
        low_summary.battery_cycles
    );
    println!(
        "paper: the Low trace shows more frequent charge/discharge and more grid usage than High"
    );
}
