//! Figure 9 — performance of the five power-allocation policies across
//! the datacenter workloads, normalized to the Uniform baseline, when the
//! renewable supply is insufficient (Low solar trace, saturating load).
//!
//! Paper shape: GreenHetero best everywhere (mean ≈ 1.6×), Streamcluster
//! the biggest winner (≈ 2.2×), Memcached the smallest (≈ 1.2×), Mcf
//! ≈ 1.3×, and GreenHetero ≥ GreenHetero-a ≥ {GreenHetero-p, Manual}
//! ≥ Uniform.

use greenhetero_bench::{
    banner, policy_order, run_workload_study, table_header, table_row, GainSpread,
};
use greenhetero_core::policies::PolicyKind;

fn main() {
    banner(
        "Figure 9",
        "Normalized performance of five power allocation policies for different workloads",
    );

    let study = run_workload_study();
    let policies = policy_order();

    let mut header: Vec<&str> = vec!["Workload"];
    let names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
    header.extend(&names);
    table_header(&header);

    for (workload, runs) in &study {
        let mut cells = vec![workload.to_string()];
        cells.extend(policies.iter().map(|&p| format!("{:.2}x", runs.gain(p))));
        table_row(&cells);
    }

    let spread = |policy: PolicyKind| {
        let gains: Vec<_> = study
            .iter()
            .map(|(w, runs)| (*w, runs.gain(policy)))
            .collect();
        GainSpread::of(&gains)
    };
    let mut mean_cells = vec!["**geo-mean**".to_string()];
    mean_cells.extend(
        policies
            .iter()
            .map(|&p| format!("{:.2}x", spread(p).geo_mean)),
    );
    table_row(&mean_cells);

    let gh = spread(PolicyKind::GreenHetero);
    println!();
    println!(
        "GreenHetero vs Uniform: geo-mean {:.2}x, best {:.2}x, worst {:.2}x",
        gh.geo_mean, gh.best.1, gh.worst.1
    );
    println!("paper reports: average ≈1.6x, best 2.2x (Streamcluster), worst 1.2x (Memcached), Mcf ≈1.3x");
}
