//! Figure 10 — effective power utilization (EPU) of the five policies for
//! different workloads, normalized to the Uniform baseline.
//!
//! Paper shape: GreenHetero's EPU averages ≈ 2.2× Uniform's; Canneal shows
//! the largest improvement (≈ 2.7×) and Web-search the smallest (≈ 1.1×);
//! several policies often tie on EPU.

use greenhetero_bench::{
    banner, policy_order, run_workload_study, scarce_epu, table_header, table_row, GainSpread,
};
use greenhetero_core::policies::PolicyKind;

fn main() {
    banner(
        "Figure 10",
        "Effective power utilization of five power allocation policies (normalized to Uniform)",
    );

    let study = run_workload_study();
    let policies = policy_order();

    let mut header: Vec<&str> = vec!["Workload"];
    let names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
    header.extend(&names);
    header.push("GreenHetero EPU (abs)");
    table_header(&header);

    let mut gh_gains = Vec::new();
    for (workload, runs) in &study {
        let mut cells = vec![workload.to_string()];
        cells.extend(
            policies
                .iter()
                .map(|&p| format!("{:.2}x", runs.epu_gain(p))),
        );
        cells.push(format!(
            "{:.3}",
            scarce_epu(runs.report(PolicyKind::GreenHetero))
        ));
        table_row(&cells);
        gh_gains.push((*workload, runs.epu_gain(PolicyKind::GreenHetero)));
    }

    let gh = GainSpread::of(&gh_gains);
    println!();
    println!(
        "GreenHetero EPU vs Uniform: geo-mean {:.2}x, best {:.2}x, worst {:.2}x",
        gh.geo_mean, gh.best.1, gh.worst.1
    );
    println!("paper reports: average ≈2.2x, best 2.7x (Canneal), worst 1.1x (Web-search)");
}
