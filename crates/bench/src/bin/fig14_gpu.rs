//! Figure 14 — performance of Comb6 (Xeon E5-2620 + Titan Xp GPU) for the
//! Rodinia workloads, five policies, normalized to Uniform.
//!
//! Paper shape: GreenHetero best everywhere; Srad_v1 gains up to 4.6×
//! (the GPU dwarfs the CPU on it, and Uniform starves the 149 W-idle GPU);
//! Cfd gains least (CPU and GPU perform similarly); mean ≈ 2.5×.

use greenhetero_bench::{
    banner, combination_study, policy_order, table_header, table_row, Comparison, GainSpread,
};
use greenhetero_core::policies::PolicyKind;
use greenhetero_server::rack::Combination;
use greenhetero_server::workload::WorkloadKind;

fn main() {
    banner(
        "Figure 14",
        "Performance of Comb6 (E5-2620 + Titan Xp) for the Rodinia workloads (normalized to Uniform)",
    );

    let policies = policy_order();
    let mut header: Vec<&str> = vec!["Workload"];
    let names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
    header.extend(&names);
    table_header(&header);

    let mut gh_gains = Vec::new();
    for workload in WorkloadKind::COMB6_SET {
        let runs = Comparison::run(&combination_study(Combination::Comb6, workload), &policies);
        let mut cells = vec![workload.to_string()];
        cells.extend(policies.iter().map(|&p| format!("{:.2}x", runs.gain(p))));
        table_row(&cells);
        gh_gains.push((workload, runs.gain(PolicyKind::GreenHetero)));
    }

    let gh = GainSpread::of(&gh_gains);
    println!();
    println!(
        "GreenHetero vs Uniform on the GPU rack: geo-mean {:.2}x, best {:.2}x",
        gh.geo_mean, gh.best.1
    );
    println!("paper reports: mean ≈2.5x, Srad_v1 up to 4.6x, Cfd smallest (CPU ≈ GPU)");
}
