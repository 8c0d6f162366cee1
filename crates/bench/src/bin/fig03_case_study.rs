//! Figure 3 — the §III-B case study: the impact of the power allocation
//! ratio (PAR) on EPU and performance for two heterogeneous servers
//! sharing a fixed 220 W green budget.
//!
//! Server A = dual-socket Xeon E5-2620 (idle 88 W, SPECjbb max ≈ 147 W);
//! Server B = Core i5-4460 (idle 47 W, SPECjbb max ≈ 81 W). The x-axis is
//! the percentage of the 220 W supply allocated to Server A; both series
//! are normalized to the uniform 50 % split, as in the paper. The table
//! steps PAR by 5 %; the optimum line below it comes from the 1 % scan
//! that `all_experiments` reports.

use greenhetero_bench::{banner, bar, table_header, table_row, CaseStudy};

fn main() {
    banner(
        "Figure 3",
        "EPU and normalized performance vs power allocation ratio (SPECjbb, 220 W)",
    );

    let study = CaseStudy::default();
    let perf_uniform = study.at(50.0).throughput;

    table_header(&["PAR (to Server A)", "EPU", "Perf (norm. to 50%)", ""]);
    for step in 0..=20 {
        let par = f64::from(step) * 5.0;
        let point = study.at(par);
        let norm = point.throughput / perf_uniform;
        table_row(&[
            format!("{par:3.0}%"),
            format!("{:.3}", point.epu),
            format!("{norm:.3}x"),
            bar(norm, 1.6, 24),
        ]);
    }

    let summary = study.summary();
    println!();
    println!(
        "optimal PAR ≈ {:.0}% with {:.2}x the uniform performance",
        summary.optimal_par, summary.gain
    );
    println!("paper reports: optimum at 65% PAR, ≈1.5x gain, uniform EPU ≈ 0.86, EPU → 1.0 at the optimum");
}
