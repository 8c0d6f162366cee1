//! Figure 12 — performance under different grid power budgets once the
//! batteries drain out.
//!
//! Paper shape: GreenHetero's advantage over Uniform shrinks as the grid
//! budget grows (with ample grid power everyone reaches peak), but
//! under-provisioned budgets are exactly where heterogeneity-awareness
//! pays — and peak grid power is expensive (up to $13.61/kW), so
//! GreenHetero lets operators under-provision the grid infrastructure.

use greenhetero_bench::{banner, table_header, table_row, NightPoint};
use greenhetero_core::types::Watts;

fn main() {
    banner(
        "Figure 12",
        "Performance of different grid power budgets (SPECjbb, batteries drained at night)",
    );

    table_header(&[
        "Grid budget (W)",
        "Uniform",
        "GreenHetero",
        "Gain",
        "GreenHetero grid cost ($)",
    ]);

    // Scarcity bites at night, when the battery hits its DoD floor and the
    // grid budget is all there is — precisely the Fig. 12 condition.
    for budget in [400.0, 600.0, 800.0, 1000.0, 1200.0, 1400.0] {
        let night = NightPoint::at(Watts::new(budget));
        table_row(&[
            format!("{budget:.0}"),
            format!("{:.0}", night.uniform),
            format!("{:.0}", night.greenhetero),
            format!("{:.2}x", night.gain()),
            format!("{:.2}", night.grid_cost),
        ]);
    }

    println!();
    println!("paper reports: the GreenHetero-vs-Uniform gain shrinks as the grid budget grows;");
    println!(
        "under-provisioned grid budgets are where heterogeneity-aware allocation matters most"
    );
}
