//! Golden-fixture byte-identity: the fleet engine's CSV and JSONL
//! exports are held to the exact bytes the pre-scheduler contiguous
//! shard path produced (fixtures under `tests/fixtures/`, regenerated
//! only deliberately via `cargo run --example gen_golden`). This pins
//! execution-model changes — like the scoped lock-step executor —
//! to history, not just to their own reruns, at every worker count.

use std::sync::{Arc, Mutex, PoisonError};

use greenhetero_core::policies::PolicyKind;
use greenhetero_core::telemetry::JsonlSink;
use greenhetero_sim::fleet::FleetSpec;
use greenhetero_sim::scenario::{Scenario, TelemetrySpec};

/// An in-memory `Write` target shareable between the sink and the test.
#[derive(Debug, Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn bytes(&self) -> Vec<u8> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn paper_fleet(racks: u32) -> FleetSpec {
    FleetSpec::new(
        Scenario {
            servers_per_type: 2,
            days: 1,
            ..Scenario::paper_runtime(PolicyKind::GreenHetero)
        },
        racks,
    )
}

fn chaos_fleet(racks: u32) -> FleetSpec {
    let mut spec = FleetSpec::new(
        Scenario {
            servers_per_type: 2,
            days: 1,
            ..Scenario::chaos_runtime(PolicyKind::GreenHetero)
        },
        racks,
    );
    spec.solar_scale_spread = 0.15;
    spec.pretrain = false;
    spec
}

fn csv_bytes(spec: FleetSpec) -> Vec<u8> {
    let report = spec.run().unwrap_or_else(|e| panic!("fleet run: {e}"));
    let mut buf = Vec::new();
    report
        .write_csv(&mut buf)
        .unwrap_or_else(|e| panic!("in-memory CSV write: {e}"));
    buf
}

/// Drops the contiguous `"predict_us"…"epoch_us"` wall-clock field block
/// from each JSONL line, leaving every deterministic field in place.
fn strip_wall_clock(jsonl: &str) -> String {
    jsonl
        .lines()
        .map(|line| {
            let start = line.find(",\"predict_us\":");
            let end = line.find(",\"budget_w\":");
            match (start, end) {
                (Some(s), Some(e)) if s < e => format!("{}{}", &line[..s], &line[e..]),
                _ => panic!("JSONL line missing the fixed wall-clock block: {line}"),
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 16];

#[test]
fn paper_fleet_csv_matches_the_golden_fixture_at_every_worker_count() {
    let golden = include_bytes!("fixtures/golden_fleet_paper.csv").to_vec();
    for workers in WORKER_SWEEP {
        let mut spec = paper_fleet(3);
        spec.workers = workers;
        assert_eq!(
            csv_bytes(spec),
            golden,
            "paper fleet CSV diverged from the golden shard-path fixture at {workers} workers"
        );
    }
}

#[test]
fn chaos_fleet_csv_matches_the_golden_fixture_at_every_worker_count() {
    let golden = include_bytes!("fixtures/golden_fleet_chaos.csv").to_vec();
    for workers in WORKER_SWEEP {
        let mut spec = chaos_fleet(5);
        spec.workers = workers;
        assert_eq!(
            csv_bytes(spec),
            golden,
            "chaos fleet CSV diverged from the golden shard-path fixture at {workers} workers"
        );
    }
}

#[test]
fn sequential_oracle_matches_the_golden_fixtures() {
    let golden_paper = include_bytes!("fixtures/golden_fleet_paper.csv").to_vec();
    let report = paper_fleet(3).run_sequential().expect("sequential fleet");
    let mut buf = Vec::new();
    report.write_csv(&mut buf).expect("in-memory CSV write");
    assert_eq!(
        buf, golden_paper,
        "sequential oracle CSV diverged from the golden fixture"
    );

    let golden_chaos = include_bytes!("fixtures/golden_fleet_chaos.csv").to_vec();
    let report = chaos_fleet(5).run_sequential().expect("sequential chaos");
    let mut buf = Vec::new();
    report.write_csv(&mut buf).expect("in-memory CSV write");
    assert_eq!(
        buf, golden_chaos,
        "sequential chaos oracle CSV diverged from the golden fixture"
    );
}

#[test]
fn paper_fleet_jsonl_matches_the_golden_fixture_at_every_worker_count() {
    let golden = include_str!("fixtures/golden_fleet_paper.jsonl");
    let golden = golden.strip_suffix('\n').unwrap_or(golden);
    for workers in WORKER_SWEEP {
        let buf = SharedBuf::default();
        let mut spec = paper_fleet(3);
        spec.workers = workers;
        spec.base.telemetry = TelemetrySpec::Sink(Arc::new(JsonlSink::from_writer(buf.clone())));
        spec.run().expect("fleet with JSONL sink");
        let jsonl = strip_wall_clock(&String::from_utf8(buf.bytes()).expect("JSONL is UTF-8"));
        assert_eq!(
            jsonl, golden,
            "fleet JSONL diverged from the golden shard-path fixture at {workers} workers"
        );
    }
}
