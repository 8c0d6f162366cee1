//! Determinism-under-parallelism tests for the fleet engine: a fleet
//! run is a pure function of its [`FleetSpec`], so worker count — 1,
//! the machine's parallelism, or anything between — must never leak
//! into the numbers. The lock-step engine is also held to the plain
//! sequential reference, byte for byte.

use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

use greenhetero_core::policies::PolicyKind;
use greenhetero_core::solver::DEFAULT_SHARED_SOLVE_CAPACITY;
use greenhetero_core::telemetry::{names, JsonlSink};
use greenhetero_core::types::Watts;
use greenhetero_sim::fleet::{FleetReport, FleetSpec};
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

impl Write for SharedBuf {
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

fn tiny_fleet(racks: u32) -> FleetSpec {
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

fn csv_bytes(report: &FleetReport) -> Vec<u8> {
    let mut buf = Vec::new();
    report
        .write_csv(&mut buf)
        .unwrap_or_else(|e| panic!("in-memory CSV write: {e}"));
    buf
}

/// Asserts two fleet reports carry bit-identical results (the `workers`
/// provenance field is allowed — required, even — to differ).
fn assert_identical(a: &FleetReport, b: &FleetReport, label: &str) {
    assert_eq!(a.epochs, b.epochs, "{label}: fleet epoch streams diverged");
    assert_eq!(
        a.rack_summaries, b.rack_summaries,
        "{label}: rack summaries diverged"
    );
    // Counters and gauges are pure functions of the run; histogram
    // *values* for `_seconds` instruments are wall-clock and thus
    // legitimately differ, but their observation counts may not.
    assert_eq!(
        a.ledger.counters, b.ledger.counters,
        "{label}: merged counter totals diverged"
    );
    assert_eq!(
        a.ledger.gauges, b.ledger.gauges,
        "{label}: merged gauges diverged"
    );
    let counts = |r: &FleetReport| {
        r.ledger
            .histograms
            .iter()
            .map(|h| (h.name.clone(), h.count))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        counts(a),
        counts(b),
        "{label}: histogram observation counts diverged"
    );
    assert_eq!(
        a.mean_epu.value().to_bits(),
        b.mean_epu.value().to_bits(),
        "{label}: mean EPU diverged"
    );
    assert_eq!(
        csv_bytes(a),
        csv_bytes(b),
        "{label}: CSV exports are not byte-identical"
    );
}

#[test]
fn one_worker_and_full_parallelism_are_bit_identical() {
    let mut solo = tiny_fleet(9);
    solo.workers = 1;
    let mut wide = tiny_fleet(9);
    wide.workers = std::thread::available_parallelism().map_or(4, usize::from);

    let a = solo.run().expect("single-worker fleet");
    let b = wide.run().expect("parallel fleet");
    assert_eq!(a.workers, 1);
    assert_identical(&a, &b, "paper fleet 1 vs N workers");
}

#[test]
fn every_worker_count_matches_the_sequential_reference() {
    let reference = tiny_fleet(7).run_sequential().expect("sequential fleet");
    for workers in [1, 2, 3, 5, 8, 16] {
        let mut spec = tiny_fleet(7);
        spec.workers = workers;
        let report = spec.run().expect("lock-step fleet");
        assert_identical(
            &reference,
            &report,
            &format!("sequential vs {workers} workers"),
        );
    }
}

#[test]
fn chaos_fleet_with_spread_and_training_stays_deterministic() {
    let mut solo = chaos_fleet(6);
    solo.workers = 1;
    let mut wide = chaos_fleet(6);
    wide.workers = 4;

    let a = solo.run().expect("single-worker chaos fleet");
    let b = wide.run().expect("parallel chaos fleet");
    assert_identical(&a, &b, "chaos fleet 1 vs 4 workers");
    assert_identical(
        &a,
        &chaos_fleet(6).run_sequential().expect("sequential chaos"),
        "chaos fleet lock-step vs sequential",
    );
}

#[test]
fn merged_ledger_totals_match_across_worker_counts() {
    let mut solo = tiny_fleet(5);
    solo.workers = 1;
    let mut wide = tiny_fleet(5);
    wide.workers = 4;

    let a = solo.run().expect("single-worker fleet");
    let b = wide.run().expect("parallel fleet");

    let epochs = |r: &FleetReport| {
        r.ledger
            .histogram(names::EPOCH_WALL_SECONDS)
            .map(|h| h.count)
            .expect("epoch wall histogram")
    };
    assert_eq!(epochs(&a), 5 * 96, "five racks, one day each");
    assert_eq!(epochs(&a), epochs(&b));
    assert_eq!(
        a.ledger.counter(names::TRAINING_RUNS),
        b.ledger.counter(names::TRAINING_RUNS),
    );
    assert_eq!(
        a.ledger.histogram(names::SOLVE_SECONDS).map(|h| h.count),
        b.ledger.histogram(names::SOLVE_SECONDS).map(|h| h.count),
    );
}

#[test]
fn rerun_exports_are_byte_identical() {
    // The report artifacts — CSV rows and the merged ledger — are pure
    // functions of the spec: two cold runs must export the same bytes.
    // (GH007 exists to keep it that way: one unordered-map iteration in
    // a reduction path and this assertion starts flapping.)
    let a = chaos_fleet(5).run().expect("first chaos fleet run");
    let b = chaos_fleet(5).run().expect("second chaos fleet run");
    assert_identical(&a, &b, "chaos fleet rerun");
    assert_eq!(
        csv_bytes(&a),
        csv_bytes(&b),
        "fleet CSV export is not byte-identical across reruns"
    );

    // The ordered shared sink buffers per-rack lines and flushes them
    // in (epoch, rack) order, so the JSONL event log reproduces byte
    // for byte at ANY worker count — except the `*_us` wall-clock
    // block, the same carve-out `assert_identical` grants `_seconds`
    // histograms. Everything semantic (epochs, cases, flows, SoC,
    // counters) sits outside that block.
    let jsonl_run = |workers: usize| {
        let buf = SharedBuf::default();
        let mut spec = tiny_fleet(3);
        spec.workers = workers;
        spec.base.telemetry = TelemetrySpec::Sink(Arc::new(JsonlSink::from_writer(buf.clone())));
        spec.run().expect("fleet with JSONL sink");
        String::from_utf8(buf.bytes()).expect("JSONL is UTF-8")
    };
    let reference = strip_wall_clock(&jsonl_run(1));
    assert!(!reference.is_empty(), "JSONL sink captured no events");
    for workers in [1, 2, 4, 16] {
        assert_eq!(
            reference,
            strip_wall_clock(&jsonl_run(workers)),
            "fleet JSONL export is not byte-identical at {workers} workers"
        );
    }
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

#[test]
fn shared_cache_on_off_or_resized_is_invisible_in_the_artifacts() {
    // The fleet-wide solve cache is purely an acceleration: every
    // report, CSV row, and ledger entry must be bit-identical whether
    // the cache is at its default size, disabled outright, or squeezed
    // so hard it thrashes — at every worker count, on the nastiest
    // variant we have (chaos faults + solar spread + per-rack
    // training). Capacity 3 keeps one solve and one Holt training per
    // shard, so it thrashes the memoized trainings as well.
    let reference = {
        let mut spec = chaos_fleet(6);
        spec.shared_solve_capacity = 0;
        spec.run_sequential()
            .expect("uncached sequential reference")
    };
    for capacity in [DEFAULT_SHARED_SOLVE_CAPACITY, 0, 3] {
        for workers in [1, 2, 16] {
            let mut spec = chaos_fleet(6);
            spec.shared_solve_capacity = capacity;
            spec.workers = workers;
            let report = spec.run().expect("lock-step chaos fleet");
            assert_identical(
                &reference,
                &report,
                &format!("shared cache capacity {capacity} at {workers} workers"),
            );
        }
    }
}

#[test]
fn homogeneous_fleet_pays_one_cold_solve_per_problem() {
    // With noise zeroed, no solar spread, and the shared pretrained
    // profile, all 16 racks pose bit-identical allocation problems
    // every epoch: the fleet pays ~one cold solve per distinct problem
    // and the other 15 racks reuse it from the shared cache.
    let mut spec = tiny_fleet(16);
    spec.base.meter_noise = Watts::new(0.0);
    spec.base.perf_noise = 0.0;
    let report = spec.run().expect("homogeneous fleet");
    let stats = report.shared_solve;
    let epochs = report.epochs.len() as u64;
    assert!(epochs > 0, "fleet produced no epochs");
    assert!(stats.hits > 0, "identical racks never hit the shared cache");
    let cold = stats.misses + stats.revalidation_misses;
    assert!(
        cold <= 2 * epochs,
        "expected ~one cold solve per epoch, got {cold} over {epochs} epochs"
    );
    assert!(
        stats.reuse_rate() >= 0.9,
        "homogeneous 16-rack fleet should reuse >=90% of solves, got {:.3} ({stats:?})",
        stats.reuse_rate()
    );
}

#[test]
fn homogeneous_fleet_trains_each_distinct_history_once() {
    // Zero noise and no solar spread give every rack's predictor lanes
    // the same readings, so the fleet runs each distinct Holt search once
    // and the other racks take its bits from the shared cache. A
    // one-rack fleet counts the distinct histories. One worker, so that
    // no two racks race to the same search.
    let quiet = |racks| {
        let mut spec = tiny_fleet(racks);
        spec.base.meter_noise = Watts::new(0.0);
        spec.base.perf_noise = 0.0;
        spec.workers = 1;
        spec
    };
    let distinct = quiet(1)
        .run()
        .expect("one rack")
        .shared_solve
        .training_misses;
    assert!(distinct > 0, "the rack never retrained");
    let stats = quiet(16).run().expect("homogeneous fleet").shared_solve;
    assert!(
        stats.training_misses <= distinct,
        "{} searches for {distinct} distinct histories ({stats:?})",
        stats.training_misses
    );
    let trainings = stats.training_hits + stats.training_misses;
    let share = stats.training_hits as f64 / trainings as f64;
    assert!(
        share >= 0.9,
        "16 identical racks should take >=90% of trainings from the cache, got {share:.3} ({stats:?})"
    );
}

#[test]
fn fleet_racks_differ_from_each_other_but_not_across_runs() {
    let report = tiny_fleet(4).run().expect("fleet");
    // Different seeds ⇒ rack trajectories should not be carbon copies.
    let throughputs: std::collections::HashSet<u64> = report
        .rack_summaries
        .iter()
        .map(|r| r.mean_throughput.value().to_bits())
        .collect();
    assert!(
        throughputs.len() > 1,
        "racks should diverge under distinct seeds"
    );
    // But the whole fleet is reproducible run over run.
    let again = tiny_fleet(4).run().expect("fleet rerun");
    assert_identical(&report, &again, "fleet rerun");
}
