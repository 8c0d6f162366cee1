//! The `paper_sweep` workload: the Fig. 9/10 workload study (12
//! workloads x 5 policies, Low solar, saturated load) over Comb1-Comb5,
//! as one `runner::run_all` batch per pass.
//!
//! It is the only workload on `runner`, the only one that starts every
//! rack untrained (training epochs, the Manual oracle search, cold and
//! warm solves with no shared cache), and it carries the paper's
//! accuracy metrics.

use std::time::Instant;

use greenhetero_core::metrics::geometric_mean;
use greenhetero_core::policies::PolicyKind;
use greenhetero_core::telemetry::{names, RunLedger};
use greenhetero_server::rack::Combination;
use greenhetero_server::workload::WorkloadKind;
use greenhetero_sim::engine::{run_scenario, Simulation};
use greenhetero_sim::report::RunReport;
use greenhetero_sim::runner::{run_all, worker_count};
use greenhetero_sim::scenario::Scenario;

use crate::replica::{ledger_metrics, run_solo, Tracer};
use crate::util::{derive_seed, fnv1a, median, pace, peak_rss_kb, setup_line, Line};

const COMBINATIONS: [Combination; 5] = [
    Combination::Comb1,
    Combination::Comb2,
    Combination::Comb3,
    Combination::Comb4,
    Combination::Comb5,
];
const POLICIES: [PolicyKind; 5] = [
    PolicyKind::Uniform,
    PolicyKind::Manual,
    PolicyKind::GreenHeteroP,
    PolicyKind::GreenHeteroA,
    PolicyKind::GreenHetero,
];
/// Days per run: long enough for the predictors to retrain and the
/// database to refit, short enough for several passes in a window.
const DAYS: u64 = 2;
/// Runs rerun one by one as the oracle, per window.
const ORACLE_RUNS: usize = 8;
/// Pieces of a timed pass, with the pace taken between them.
const PIECES: usize = 10;

/// Every run of one pass, combination-major, then workload, then
/// policy. Each (combination, workload) cell has its own solar seed, so
/// the accuracy geo-means average over 60 traces; the five policies of
/// a cell share it, so each ratio compares like with like.
fn scenarios(seed: u64) -> Vec<Scenario> {
    let mut out = Vec::with_capacity(COMBINATIONS.len() * 12 * POLICIES.len());
    for combination in COMBINATIONS {
        for workload in WorkloadKind::FIG9_SET {
            let cell_seed = derive_seed(seed, out.len() as u64) >> 11;
            for policy in POLICIES {
                out.push(Scenario {
                    combination,
                    days: DAYS,
                    seed: cell_seed,
                    ..Scenario::workload_study(workload, policy)
                });
            }
        }
    }
    out
}

fn digest(reports: &[RunReport]) -> Result<u64, String> {
    let mut buf = Vec::new();
    for r in reports {
        r.write_csv(&mut buf).map_err(|e| e.to_string())?;
    }
    Ok(fnv1a(&buf))
}

/// Geo-mean over (combination, workload) of GreenHetero's mean
/// throughput and EPU over Uniform's (Figs. 9 and 10).
fn gains(reports: &[RunReport]) -> (f64, f64) {
    let (mut perf, mut epu) = (Vec::new(), Vec::new());
    for cell in reports.chunks(POLICIES.len()) {
        let (uniform, gh) = (&cell[0], &cell[POLICIES.len() - 1]);
        perf.push(gh.mean_throughput().value() / uniform.mean_throughput().value());
        epu.push(gh.epu().value() / uniform.epu().value());
    }
    (
        geometric_mean(&perf).unwrap_or(0.0),
        geometric_mean(&epu).unwrap_or(0.0),
    )
}

/// Passes of the whole sweep at one worker until `seconds` have passed,
/// one line per pass. A pass runs in `PIECES` pieces with the pace taken
/// between them, each piece's wall time rescaled by the mean of the
/// paces before and after it; `pace` is the pass's mean. Every pass
/// must equal the first, which runs whole before the window and before
/// the pace first runs, so its peak RSS is the program's alone; its
/// reports feed the accuracy metrics and the oracle.
///
/// The window runs one worker, not nproc: on a 2-vCPU VM the sweep's
/// speed at 2 workers rose by 76% between two sets of runs of the same
/// code minutes apart, as the host moved the vCPUs. `trace` runs the
/// sweep at nproc workers for the runner's metrics.
pub fn timed(seed: u64, seconds: f64) -> Result<(), String> {
    // `run_all` reads its width here; no other thread runs yet.
    std::env::set_var("GH_SIM_THREADS", "1");
    let runs = scenarios(seed);
    let reports = run_all(runs.clone()).map_err(|e| e.to_string())?;
    let first_digest = digest(&reports)?;
    Line::new("memory")
        .int("peak_rss_kb", peak_rss_kb())
        .int("held", runs.len() as u64)
        .emit();

    let window = Instant::now();
    let mut before = pace();
    loop {
        let (mut pass, mut wall, mut paced) = (Vec::with_capacity(runs.len()), 0.0, 0.0);
        for piece in runs.chunks(runs.len().div_ceil(PIECES)) {
            let started = Instant::now();
            pass.extend(run_all(piece.to_vec()).map_err(|e| e.to_string())?);
            let took = started.elapsed().as_secs_f64();
            let after = pace();
            wall += took;
            paced += took * (before + after) / 2.0;
            before = after;
        }
        let epochs: u64 = pass.iter().map(|r| r.epochs.len() as u64).sum();
        let same = digest(&pass)? == first_digest;
        let done = pass.len() as u64;
        Line::new("rep")
            .int("ops", epochs)
            .num("wall_s", wall)
            .num("pace", paced / wall)
            .int("attempted", done)
            .int("failed", if same { 0 } else { done })
            .emit();
        if window.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let (gain, epu_gain) = gains(&reports);
    Line::new("quality")
        .num("gain", gain)
        .num("epu_gain", epu_gain)
        .emit();

    // A sample of runs, rerun one at a time, must equal the sweep's.
    let step = runs.len() / ORACLE_RUNS;
    let offset = (seed as usize) % step.max(1);
    let mut failed = 0;
    for i in (0..ORACLE_RUNS).map(|k| k * step + offset) {
        let again = run_scenario(runs[i].clone()).map_err(|e| e.to_string())?;
        failed += u64::from(again.epochs != reports[i].epochs);
    }
    Line::new("oracle")
        .int("attempted", 0)
        .int("failed", failed)
        .emit();
    Ok(())
}

/// Building every run of a pass without stepping it: the work
/// `run_all` does per run before its first epoch.
pub fn setup(seed: u64) -> Result<(), String> {
    setup_line(|| {
        let started = Instant::now();
        let sims = scenarios(seed)
            .into_iter()
            .map(Simulation::new)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let took = started.elapsed().as_secs_f64();
        std::hint::black_box(sims);
        Ok(took)
    })
}

/// The traced run: one pass for the runner's queue and busy metrics and
/// the program's counts, then the replica of one workload per
/// combination under all five policies, checked against the pass.
pub fn trace(seed: u64) -> Result<(), String> {
    let err = |e: greenhetero_core::error::CoreError| e.to_string();
    let runs = scenarios(seed);
    let started = Instant::now();
    let reports = run_all(runs.clone()).map_err(err)?;
    let wall = started.elapsed().as_secs_f64();

    let waits: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.ledger.histogram(names::RUNNER_QUEUE_WAIT_SECONDS))
        .map(|h| h.sum * 1e3)
        .collect();
    let busy: f64 = reports
        .iter()
        .filter_map(|r| r.ledger.histogram(names::EPOCH_WALL_SECONDS))
        .map(|h| h.sum)
        .sum();
    let mut ledger = RunLedger::default();
    for r in &reports {
        ledger.merge(&r.ledger);
    }
    let ops: u64 = reports.iter().map(|r| r.epochs.len() as u64).sum();
    let degraded: u64 = reports.iter().map(|r| r.degraded_epochs).sum();
    let mut line = Line::new("runner")
        .num("runner.queue_wait_p50_ms", median(&waits))
        .num("runner.busy_share", busy / (worker_count() as f64 * wall));
    for (name, value) in ledger_metrics(&ledger, ops, degraded, 0.0) {
        line = line.num(name, value);
    }
    line.emit();

    let per_cell = POLICIES.len();
    let cells = runs.len() / per_cell;
    let picked: Vec<usize> = (0..COMBINATIONS.len())
        .flat_map(|c| {
            let cell = c * 12 + (seed as usize + c) % 12;
            (0..per_cell).map(move |p| cell * per_cell + p)
        })
        .filter(|&i| i < cells * per_cell)
        .collect();
    let mut mismatched = 0;
    let mut untraced = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for &i in &picked {
        let started = Instant::now();
        let plain = run_solo(runs[i].clone(), &mut untraced).map_err(err)?;
        plain_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let records = run_solo(runs[i].clone(), &mut traced).map_err(err)?;
        traced_s += started.elapsed().as_secs_f64();
        mismatched +=
            u64::from(plain != reports[i].epochs) + u64::from(records != reports[i].epochs);
    }
    let mut line = Line::new("trace")
        .int("ops", traced.rack_epochs)
        .int("mismatched_runs", mismatched);
    for (name, us) in traced.per_rack_epoch_us() {
        line = line.num(name, us);
    }
    line.num("trace.overhead", traced_s / plain_s).emit();
    Ok(())
}
