//! `all_experiments` prints the headline number of every paper table and
//! figure, and EXPERIMENTS.md's Measured column reads from it. Its
//! standard output is pinned here byte for byte, so a figure cannot move
//! without a fixture diff.
//!
//! The sweeps inside fan out through `runner::run_all`, so CI runs this
//! test at several `GH_SIM_THREADS` widths: the output must not depend on
//! the worker count.
//!
//! After an intended change to a figure, regenerate the fixture with
//! `cargo run --release -p greenhetero-bench --bin all_experiments >
//! crates/bench/tests/fixtures/all_experiments.txt` and update
//! EXPERIMENTS.md to match.

use std::process::Command;

#[test]
fn all_experiments_output_matches_the_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .output()
        .expect("all_experiments runs");
    assert!(
        out.status.success(),
        "all_experiments failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let printed = String::from_utf8(out.stdout).expect("output is UTF-8");
    let expected = include_str!("fixtures/all_experiments.txt");
    if printed != expected {
        let first = printed
            .lines()
            .zip(expected.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(printed.lines().count().min(expected.lines().count()));
        panic!(
            "all_experiments output differs from the fixture at line {}:\n  printed:  {:?}\n  expected: {:?}",
            first + 1,
            printed.lines().nth(first),
            expected.lines().nth(first)
        );
    }
}
