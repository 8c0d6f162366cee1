//! Figure 8 — 24-hour runtime results of SPECjbb under the *High* solar
//! trace: (a) normalized performance of GreenHetero vs Uniform plus the
//! PAR trajectory; (b) battery discharging/charging and grid activity.
//!
//! Paper shape: ≈ 1.5× mean gain while renewable power is insufficient
//! (Cases B/C), ≈ 1× when abundant; mean PAR ≈ 58 %; the battery carries
//! Case C for ≈ 4.2 h before the grid takes over and recharges it.

use std::path::PathBuf;

use greenhetero_bench::{banner, table_header, table_row, RuntimeDay};
use greenhetero_power::solar::SolarProfile;
use greenhetero_sim::report::RunReport;
use greenhetero_sim::scenario::TelemetrySpec;

/// Parses `--telemetry <out.jsonl>` from the command line; without the
/// flag the run exports nothing.
fn telemetry_from_args() -> TelemetrySpec {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--telemetry" {
            let path = args.next().expect("--telemetry requires a file path");
            return TelemetrySpec::Jsonl(PathBuf::from(path));
        }
    }
    TelemetrySpec::Off
}

fn main() {
    banner(
        "Figure 8",
        "Runtime results of SPECjbb using the High solar trace (24 h, Comb1 x5, 1000 W grid)",
    );

    let telemetry = telemetry_from_args();
    if let TelemetrySpec::Jsonl(path) = &telemetry {
        println!("streaming per-epoch telemetry to {}", path.display());
    }
    let day = RuntimeDay::with_telemetry(SolarProfile::High, telemetry);
    let (gh, uni) = (&day.greenhetero, &day.uniform);

    println!("\n(a) hourly performance (normalized to Uniform) and PAR");
    table_header(&[
        "Hour",
        "Case",
        "GreenHetero/Uniform",
        "PAR",
        "Budget (W)",
        "Solar (W)",
    ]);
    for hour in 0..24 {
        let idx = |h: u64| (h * 4) as usize..((h + 1) * 4) as usize;
        let mean_thr = |r: &RunReport, h: u64| {
            let slice = &r.epochs[idx(h)];
            slice.iter().map(|e| e.throughput.value()).sum::<f64>() / slice.len() as f64
        };
        let g = mean_thr(gh, hour);
        let u = mean_thr(uni, hour);
        let slice = &gh.epochs[idx(hour)];
        let par = slice
            .iter()
            .filter_map(|e| e.par)
            .map(|p| p.value())
            .sum::<f64>()
            / slice.iter().filter(|e| e.par.is_some()).count().max(1) as f64;
        let case = slice[0].case;
        table_row(&[
            format!("{hour:02}"),
            format!("{case:?}").chars().last().unwrap().to_string(),
            format!("{:.2}x", if u > 0.0 { g / u } else { 1.0 }),
            format!("{:.0}%", par * 100.0),
            format!(
                "{:.0}",
                slice.iter().map(|e| e.budget.value()).sum::<f64>() / 4.0
            ),
            format!(
                "{:.0}",
                slice.iter().map(|e| e.solar.value()).sum::<f64>() / 4.0
            ),
        ]);
    }

    println!("\n(b) battery and grid activity (hourly watt averages)");
    table_header(&[
        "Hour",
        "Discharge",
        "Charge",
        "Grid load",
        "Grid charging",
        "SoC",
    ]);
    for hour in 0..24 {
        let slice = &gh.epochs[(hour * 4) as usize..((hour + 1) * 4) as usize];
        let avg = |f: &dyn Fn(&greenhetero_sim::report::EpochRecord) -> f64| {
            slice.iter().map(f).sum::<f64>() / slice.len() as f64
        };
        table_row(&[
            format!("{hour:02}"),
            format!("{:.0} W", avg(&|e| e.battery_discharge.value())),
            format!("{:.0} W", avg(&|e| e.battery_charge.value())),
            format!("{:.0} W", avg(&|e| e.grid_load.value())),
            format!("{:.0} W", avg(&|e| e.grid_charge.value())),
            format!("{:.0}%", slice.last().unwrap().soc.value() * 100.0),
        ]);
    }

    let summary = day.summary();
    println!();
    println!(
        "mean gain while supply is insufficient: {:.2}x (paper: ≈1.5x)",
        summary.scarce_gain
    );
    println!(
        "mean gain while supply is abundant:     {:.2}x (paper: ≈1.0x)",
        summary.abundant_gain
    );
    println!("mean PAR: {:.0}% (paper: ≈58%)", summary.mean_par_percent);
    println!(
        "Case C battery ride-through: {:.1} h (paper: ≈4.2 h)",
        summary.ride_through_h
    );
    println!("battery cycles used: {:.2}", summary.battery_cycles);
}
