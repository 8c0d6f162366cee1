//! Every figure, table, ablation and extension binary prints its numbers
//! to standard output, and each output is pinned here byte for byte
//! against `fixtures/<bin>.txt`, so no figure can move without a fixture
//! diff. `bench_snapshot` stays out: its output carries timings.
//!
//! `all_experiments` prints the headline number of every paper table and
//! figure; EXPERIMENTS.md's headline table must carry each of its rows
//! (`experiments_md_carries_every_headline_row`), and the cells it adds
//! from other binaries must match their fixtures
//! (`experiments_md_carries_the_figure_cells_all_experiments_omits`).
//!
//! The sweeps inside fan out through `runner::run_all`, so CI runs this
//! test at several `GH_SIM_THREADS` widths: the output must not depend on
//! the worker count.
//!
//! After an intended change to a figure, regenerate every fixture with
//!
//! ```text
//! for f in crates/bench/tests/fixtures/*.txt; do b=$(basename "$f" .txt); cargo run -q --release -p greenhetero-bench --bin "$b" > "$f"; done
//! ```
//!
//! and update EXPERIMENTS.md to match.

use std::process::Command;

/// Runs `bin` and asserts its standard output equals `expected`.
fn assert_prints(name: &str, bin: &str, expected: &str) {
    let out = Command::new(bin)
        .output()
        .unwrap_or_else(|e| panic!("{name} runs: {e}"));
    assert!(
        out.status.success(),
        "{name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let printed = String::from_utf8(out.stdout).expect("output is UTF-8");
    if printed != expected {
        let first = printed
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(printed.lines().count().min(expected.lines().count()));
        panic!(
            "{name} output differs from its fixture at line {}:\n  printed:  {:?}\n  expected: {:?}",
            first + 1,
            printed.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}

macro_rules! golden {
    ($($bin:ident),* $(,)?) => {
        /// Each binary's standard output against its fixture.
        mod stdout_matches_the_fixture {
            use super::assert_prints;
            $(
                #[test]
                fn $bin() {
                    assert_prints(
                        stringify!($bin),
                        env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
                        include_str!(concat!("fixtures/", stringify!($bin), ".txt")),
                    );
                }
            )*
        }

        /// The binaries the fixtures cover.
        const PINNED: &[&str] = &[$(stringify!($bin)),*];
    };
}

golden!(
    ablation_dod,
    ablation_noise,
    ablation_predictor,
    all_experiments,
    ext_mixed_workloads,
    fig01_heterogeneity,
    fig03_case_study,
    fig06_source_selection,
    fig08_runtime_high,
    fig09_workload_perf,
    fig10_workload_epu,
    fig11_runtime_low,
    fig12_grid_budget,
    fig13_combinations,
    fig14_gpu,
    table1_workloads,
    table2_servers,
    table3_policies,
    table4_combinations,
);

#[test]
fn every_binary_but_bench_snapshot_is_pinned() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin");
    let mut bins: Vec<String> = std::fs::read_dir(dir)
        .expect("src/bin lists")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let stem = path.file_stem().expect("a file name");
            stem.to_string_lossy().into_owned()
        })
        .filter(|bin| bin != "bench_snapshot")
        .collect();
    bins.sort();
    assert_eq!(bins, PINNED);
}

/// `×` as `x` and `64 %` as `64%`, so the doc's typography matches the
/// program's ASCII.
fn normalize(cell: &str) -> String {
    cell.trim().replace('×', "x").replace(" %", "%")
}

/// The cells of a markdown table row, or `None` for any other line.
fn cells(line: &str) -> Option<Vec<String>> {
    let inner = line.trim().strip_prefix('|')?.strip_suffix('|')?;
    Some(inner.split('|').map(normalize).collect())
}

/// The rows of EXPERIMENTS.md's headline table, cells normalized.
fn headline_rows() -> Vec<Vec<String>> {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let headline = doc
        .split("## Headline table")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("EXPERIMENTS.md has a headline table");
    headline.lines().filter_map(cells).collect()
}

/// The Measured cell EXPERIMENTS.md's headline table gives `quantity`
/// of `experiment`.
fn documented(experiment: &str, quantity: &str) -> String {
    headline_rows()
        .into_iter()
        .find(|row| row.len() >= 4 && row[0] == experiment && row[1] == quantity)
        .map(|row| row[3].clone())
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no `{experiment} | {quantity}` row"))
}

/// The `column` cell of the table row whose first cell is `row`; the
/// column is looked up in the nearest header above that row.
fn table_cell(text: &str, row: &str, column: &str) -> String {
    let mut index = None;
    for line in text.lines().filter_map(cells) {
        if let Some(i) = line.iter().position(|c| c == column) {
            index = Some(i);
        } else if line[0] == row {
            let i = index.unwrap_or_else(|| panic!("no `{column}` column above `{row}`"));
            return line[i].clone();
        }
    }
    panic!("no `{row}` row")
}

#[test]
fn experiments_md_carries_every_headline_row() {
    let fixture = include_str!("fixtures/all_experiments.txt");
    let doc_rows = headline_rows();
    let printed: Vec<Vec<String>> = fixture
        .lines()
        .filter_map(cells)
        .skip_while(|row| row[0] != "Experiment")
        .skip(2)
        .collect();
    assert!(!printed.is_empty(), "the fixture has no headline rows");
    let mut missing = Vec::new();
    for row in &printed {
        let (experiment, quantity, measured) = (&row[0], &row[1], &row[3]);
        let documented = doc_rows.iter().any(|doc| {
            doc.len() >= 4
                && doc[0] == *experiment
                && doc[1] == *quantity
                && doc[3].starts_with(measured.as_str())
        });
        if !documented {
            missing.push(format!("| {experiment} | {quantity} | … | {measured} |"));
        }
    }
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md's headline table lacks these all_experiments rows:\n{}",
        missing.join("\n")
    );
}

/// The headline cells `all_experiments` does not print, against the
/// figure binaries that do. Fig 6's "reproduced" is a judgement, not a
/// number, and stays a manual check.
#[test]
fn experiments_md_carries_the_figure_cells_all_experiments_omits() {
    let gain = table_cell(
        include_str!("fixtures/fig09_workload_perf.txt"),
        "Memcached",
        "GreenHetero",
    );
    let worst = documented("Fig 9", "worst workload");
    assert!(
        worst.ends_with(&format!("(Memcached {gain})")),
        "Fig 9's worst-workload cell `{worst}` should end with `(Memcached {gain})`"
    );

    let fig11 = include_str!("fixtures/fig11_runtime_low.txt");
    let low = table_cell(fig11, "grid energy (kWh)", "Low trace");
    let high = table_cell(fig11, "grid energy (kWh)", "High trace");
    assert_eq!(
        documented("Fig 11", "Low trace uses more grid than High"),
        format!("{low} vs {high} kWh"),
        "Fig 11's grid energies"
    );

    let share = include_str!("fixtures/fig01_heterogeneity.txt")
        .lines()
        .find_map(|line| line.strip_prefix("datacenters with 2–3 configurations: "))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("fig01 prints the 2–3 configuration share");
    assert_eq!(
        documented("Fig 1", "DCs with 2–3 configurations"),
        share,
        "Fig 1's share"
    );
}
