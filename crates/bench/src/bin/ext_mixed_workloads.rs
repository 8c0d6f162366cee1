//! Extension experiment — mixed workloads on one rack.
//!
//! The paper runs one workload across the rack and leaves "more complex
//! cases as future work". The controller's database is keyed by
//! (configuration, workload) pairs, so per-group workloads come for free:
//! here the dual-socket Xeons crunch a batch job while the i5s serve an
//! interactive service, and the solver must trade *batch throughput*
//! against *service throughput* through their very different
//! power-response curves.

use greenhetero_bench::{banner, policy_order, table_header, table_row, Comparison};
use greenhetero_core::policies::PolicyKind;
use greenhetero_server::platform::PlatformKind;
use greenhetero_server::workload::WorkloadKind;
use greenhetero_sim::scenario::Scenario;

type Mix = (&'static str, Vec<(PlatformKind, u32, WorkloadKind)>);

fn main() {
    banner(
        "Extension: mixed workloads",
        "Xeons on Streamcluster + i5s on Memcached, one rack, one green budget",
    );

    let mixes: [Mix; 3] = [
        (
            "batch on Xeons, service on i5s",
            vec![
                (PlatformKind::XeonE52620, 5, WorkloadKind::Streamcluster),
                (PlatformKind::CoreI54460, 5, WorkloadKind::Memcached),
            ],
        ),
        (
            "service on Xeons, batch on i5s",
            vec![
                (PlatformKind::XeonE52620, 5, WorkloadKind::Memcached),
                (PlatformKind::CoreI54460, 5, WorkloadKind::Streamcluster),
            ],
        ),
        (
            "three groups, three workloads",
            vec![
                (PlatformKind::XeonE52620, 4, WorkloadKind::Streamcluster),
                (PlatformKind::XeonE52603, 4, WorkloadKind::Mcf),
                (PlatformKind::CoreI54460, 4, WorkloadKind::Memcached),
            ],
        ),
    ];

    let policies = policy_order();
    let mut header: Vec<&str> = vec!["Mix"];
    let names: Vec<&str> = policies.iter().map(|p| p.name()).collect();
    header.extend(&names);
    table_header(&header);

    for (label, composition) in &mixes {
        let base = Scenario {
            mixed: Some(composition.clone()),
            ..Scenario::workload_study(WorkloadKind::SpecJbb, PolicyKind::Uniform)
        };
        let runs = Comparison::run(&base, &policies);
        let mut cells = vec![(*label).to_string()];
        cells.extend(policies.iter().map(|&p| format!("{:.2}x", runs.gain(p))));
        table_row(&cells);
    }

    println!();
    println!("note: throughputs of different workloads are summed in their native units, so");
    println!("absolute numbers mix apples and oranges — the per-policy *ratios* are the result");
}
