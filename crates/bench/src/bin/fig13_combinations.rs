//! Figure 13 — SPECjbb performance across the server combinations of
//! Table IV (Comb1–Comb5), five policies, normalized to Uniform.
//!
//! Paper shape: Comb2 and Comb4 behave near-homogeneously (only ≈ 3 %
//! improvement — their members have similar power profiles); Comb1 and
//! Comb3 show up to 1.5× gains; the three-type Comb5 reaches ≈ 1.6×.

use greenhetero_bench::{
    banner, combination_study, policy_order, table_header, table_row, Comparison,
};
use greenhetero_server::rack::Combination;
use greenhetero_server::workload::WorkloadKind;

fn main() {
    banner(
        "Figure 13",
        "Performance of different server combinations (SPECjbb, normalized to Uniform)",
    );

    let policies = policy_order();
    let mut header: Vec<&str> = vec!["Combination", "Platforms"];
    let names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
    header.extend(&names);
    table_header(&header);

    for comb in [
        Combination::Comb1,
        Combination::Comb2,
        Combination::Comb3,
        Combination::Comb4,
        Combination::Comb5,
    ] {
        let runs = Comparison::run(&combination_study(comb, WorkloadKind::SpecJbb), &policies);
        let mut cells = vec![
            comb.to_string(),
            comb.platforms()
                .iter()
                .map(|p| p.name())
                .collect::<Vec<_>>()
                .join(" + "),
        ];
        cells.extend(policies.iter().map(|&p| format!("{:.2}x", runs.gain(p))));
        table_row(&cells);
    }

    println!();
    println!("paper reports: Comb2/Comb4 ≈ +3% (near-homogeneous power profiles),");
    println!("Comb1/Comb3 up to 1.5x, Comb5 (three types) ≈ 1.6x");
}
