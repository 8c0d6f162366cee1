//! The two fleet workloads, on `FleetSpec::run`.
//!
//! `fleet_homog`: every rack poses the same problem, so the fleet-wide
//! solve cache answers nearly every solve and the time goes to per-rack
//! upkeep, physics and the scheduler. `fleet_diverse`: three server
//! types, meter and counter noise, a per-rack solar spread and the chaos
//! fault day, with JSONL events formatted and discarded, so every rack
//! solves its own problem.
//!
//! A workload is `FLEETS` fleets run one after another, each with its
//! own seed and so its own solar day: a fleet shares one solar trace,
//! and how dear a rack-epoch is depends on that day by up to 15%, so a
//! run of one fleet per seed would measure the seed.

use std::sync::Arc;
use std::time::Instant;

use greenhetero_core::error::CoreError;
use greenhetero_core::metrics::geometric_mean;
use greenhetero_core::policies::PolicyKind;
use greenhetero_core::solver::{SharedSolveCache, DEFAULT_SHARED_SOLVE_CAPACITY};
use greenhetero_core::telemetry::{JsonlSink, Telemetry, TelemetrySink};
use greenhetero_core::types::Watts;
use greenhetero_power::solar::synthesize_shared;
use greenhetero_server::rack::Combination;
use greenhetero_sim::engine::Simulation;
use greenhetero_sim::faults::FaultSchedule;
use greenhetero_sim::fleet::{pretrain_database, FleetReport, FleetSpec};
use greenhetero_sim::scenario::{Scenario, TelemetrySpec};

use crate::replica::{ledger_metrics, FleetReplica, OrderedSink, Tracer};
use crate::util::{derive_seed, fnv1a, nproc, pace, peak_rss_kb, setup_line, Line};

/// Fleets per workload, and racks per fleet. One pass over the fleets
/// takes about two seconds at one worker (~45k rack-epochs/s homogeneous,
/// ~8k diverse), so a window holds several passes, and the pace taken
/// between fleets follows the machine every fifth of a second.
const FLEETS: u64 = 10;
const HOMOG_RACKS: u32 = 100;
const DIVERSE_RACKS: u32 = 15;

/// The small GreenHetero-vs-Uniform fleets behind the quality metrics:
/// how many, and racks in each.
const QUALITY_FLEETS: u64 = 8;
const QUALITY_RACKS: u32 = 8;

/// The workload's fleets, each seeded from the benchmark seed.
pub fn fleets(workload: &str, seed: u64) -> Result<Vec<FleetSpec>, String> {
    (0..FLEETS)
        .map(|k| spec(workload, derive_seed(seed, k) >> 11))
        .collect()
}

/// One fleet as large as a whole pass, on the first fleet's seed. Runs
/// at nproc workers use it: the rollover race in the epoch scheduler
/// wedged one nproc pass of ten 100-rack fleets in five, while fleets of
/// this size ran hundreds of times without a wedge.
fn whole(fleets: &[FleetSpec]) -> FleetSpec {
    let mut whole = fleets[0].clone();
    whole.racks = fleets.iter().map(|f| f.racks).sum();
    whole
}

fn spec(workload: &str, seed: u64) -> Result<FleetSpec, String> {
    let paper = Scenario::paper_runtime(PolicyKind::GreenHetero);
    let (base, racks, spread) = match workload {
        "fleet_homog" => (
            Scenario {
                meter_noise: Watts::ZERO,
                perf_noise: 0.0,
                seed,
                ..paper
            },
            HOMOG_RACKS,
            0.0,
        ),
        "fleet_diverse" => {
            let sink: Arc<dyn TelemetrySink> = Arc::new(JsonlSink::from_writer(std::io::sink()));
            (
                Scenario {
                    combination: Combination::Comb5,
                    faults: FaultSchedule::chaos_day(),
                    telemetry: TelemetrySpec::Sink(sink),
                    seed,
                    ..paper
                },
                DIVERSE_RACKS,
                0.2,
            )
        }
        other => return Err(format!("not a fleet workload: {other}")),
    };
    Ok(FleetSpec {
        base,
        racks,
        workers: nproc(),
        solar_scale_spread: spread,
        pretrain: true,
        shared_solve_capacity: DEFAULT_SHARED_SOLVE_CAPACITY,
    })
}

fn csv_digest(report: &FleetReport) -> Result<u64, String> {
    let mut buf = Vec::new();
    report.write_csv(&mut buf).map_err(|e| e.to_string())?;
    Ok(fnv1a(&buf))
}

/// Runs every fleet with `run` and prints one line of `kind`: the
/// rack-epochs and the fleets' CSV digests, in fleet order.
fn digests_line(
    kind: &str,
    fleets: &[FleetSpec],
    run: impl Fn(&FleetSpec) -> Result<FleetReport, CoreError>,
) -> Result<(), String> {
    let (mut ops, mut csv) = (0, Vec::new());
    for fleet in fleets {
        let report = run(fleet).map_err(|e| e.to_string())?;
        ops += report.rack_epochs();
        csv.push(format!("{:016x}", csv_digest(&report)?));
    }
    Line::new(kind)
        .text("csv", &csv.join(","))
        .int("ops", ops)
        .emit();
    Ok(())
}

/// Everything `FleetSpec::run` builds before its first epoch, through
/// the same public constructors: rack table, solar trace, pretrained
/// curve store, event sink, solve cache and one simulation per rack.
/// Construction cost does not depend on the per-rack seeds, so they are
/// simply offset from the base seed.
fn build_once(spec: &FleetSpec) -> Result<usize, CoreError> {
    spec.validate()?;
    let base = &spec.base;
    let rack = Arc::new(base.build_rack()?);
    let (solar, _hit) = synthesize_shared(&base.solar_config()?)?;
    let profile = if spec.pretrain {
        Some(Arc::new(pretrain_database(&rack, base)?))
    } else {
        None
    };
    let sink = match &base.telemetry {
        TelemetrySpec::Off => None,
        other => Some(Arc::new(OrderedSink::new(other.build()?))),
    };
    let cache = Arc::new(SharedSolveCache::new(spec.shared_solve_capacity));
    let mut sims = Vec::with_capacity(spec.racks as usize);
    for rack_id in 0..spec.racks {
        let mut scenario = base.clone();
        scenario.seed = base.seed.wrapping_add(u64::from(rack_id));
        scenario.telemetry = TelemetrySpec::Off;
        let telemetry = match &sink {
            Some(sink) => Telemetry::with_sink(Arc::clone(sink) as Arc<dyn TelemetrySink>),
            None => Telemetry::disabled(),
        };
        let mut sim = Simulation::with_substrate(
            scenario,
            Arc::clone(&rack),
            Arc::clone(&solar),
            1.0,
            rack_id,
            telemetry,
            profile.clone(),
        )?;
        sim.set_shared_solve_cache(Arc::clone(&cache));
        sims.push(sim);
    }
    Ok(sims.len())
}

/// The set-up of one pass: every fleet built in turn, as the pass runs
/// them.
pub fn setup(fleets: &[FleetSpec]) -> Result<(), String> {
    setup_line(|| {
        let started = Instant::now();
        for fleet in fleets {
            let built = build_once(fleet).map_err(|e| e.to_string())?;
            std::hint::black_box(built);
        }
        Ok(started.elapsed().as_secs_f64())
    })
}

/// Passes over the fleets, each fleet on `FleetSpec::run` at one worker,
/// until `seconds` have passed, one line per pass. The pace is taken
/// between fleets, and each fleet's wall time is rescaled by the mean of
/// the paces before and after it; `pace` is the pass's mean. The CSV
/// digests are compared by `run.py` with the sequential oracle's.
///
/// The window runs one worker, not nproc: on a 2-vCPU VM the same
/// nproc-worker run swings by up to 60% from run to run while a
/// reference kernel on both vCPUs at once holds within a few percent, so
/// its figure measures how soon an idle vCPU wakes at each epoch's
/// rollover, not the program.
/// `check` checks the nproc run and `scale` times it.
pub fn timed(fleets: &[FleetSpec], seconds: f64) -> Result<(), String> {
    // Warm-up and memory: one fleet as large as a whole pass, before the
    // pace first runs, so the peak RSS is the program's alone.
    let mut warm = whole(fleets);
    warm.workers = 1;
    warm.run().map_err(|e| e.to_string())?;
    Line::new("memory")
        .int("peak_rss_kb", peak_rss_kb())
        .int("held", u64::from(warm.racks))
        .emit();

    let window = Instant::now();
    let mut before = pace();
    loop {
        let (mut ops, mut wall, mut paced, mut csv) = (0, 0.0, 0.0, Vec::new());
        for fleet in fleets {
            let mut one = fleet.clone();
            one.workers = 1;
            let started = Instant::now();
            let report = one.run().map_err(|e| e.to_string())?;
            let took = started.elapsed().as_secs_f64();
            let after = pace();
            ops += report.rack_epochs();
            wall += took;
            paced += took * (before + after) / 2.0;
            csv.push(format!("{:016x}", csv_digest(&report)?));
            before = after;
        }
        Line::new("rep")
            .int("ops", ops)
            .num("wall_s", wall)
            .num("pace", paced / wall)
            .text("csv", &csv.join(","))
            .emit();
        if window.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

/// The oracle runs, the quality fleets and the whole-pass fleet at
/// nproc workers against its own oracle, outside the timed window. The
/// nproc run comes last: it can wedge on the rollover race, and then
/// only its own line is missing.
pub fn check(fleets: &[FleetSpec]) -> Result<(), String> {
    digests_line("oracle", fleets, FleetSpec::run_sequential)?;
    let whole = [whole(fleets)];
    digests_line("whole_oracle", &whole, FleetSpec::run_sequential)?;

    // GreenHetero against Uniform on small fleets of the same shape,
    // each under its own solar trace.
    let (mut gains, mut epu_gains) = (Vec::new(), Vec::new());
    let first = fleets.first().ok_or("no fleets")?;
    for k in 0..QUALITY_FLEETS {
        let mut small = first.clone();
        small.racks = QUALITY_RACKS;
        small.base.seed = derive_seed(first.base.seed, k);
        small.base.telemetry = TelemetrySpec::Off;
        let gh = small.run_sequential().map_err(|e| e.to_string())?;
        small.base.policy = PolicyKind::Uniform;
        let uniform = small.run_sequential().map_err(|e| e.to_string())?;
        gains.push(gh.mean_throughput().value() / uniform.mean_throughput().value());
        epu_gains.push(gh.mean_epu.value() / uniform.mean_epu.value());
    }
    let geo = |v: &[f64]| geometric_mean(v).unwrap_or(0.0);
    Line::new("quality")
        .num("gain", geo(&gains))
        .num("epu_gain", geo(&epu_gains))
        .emit();

    digests_line("wide", &whole, FleetSpec::run)
}

/// `FleetSpec::run` of the whole-pass fleet at one worker and at nproc
/// workers; the nproc run can wedge, so it runs in its own process under
/// a deadline. A warm-up run comes first: the first in a process pays
/// for cold caches and a cold heap.
pub fn scale(fleets: &[FleetSpec]) -> Result<(), String> {
    let wide = whole(fleets);
    let mut one = wide.clone();
    one.workers = 1;
    one.run().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let report = one.run().map_err(|e| e.to_string())?;
    let one_s = started.elapsed().as_secs_f64();
    Line::new("scale_one")
        .int("ops", report.rack_epochs())
        .emit();
    let started = Instant::now();
    let report = wide.run().map_err(|e| e.to_string())?;
    let wide_s = started.elapsed().as_secs_f64();
    Line::new("scale")
        .num("sched.scaling", one_s / wide_s)
        .int("ops", report.rack_epochs())
        .emit();
    Ok(())
}

/// The traced run, on one of the workload's fleets: the replica
/// untraced, traced, traced and untraced again (so a drift in machine
/// speed cancels out of the ratio), each against the sequential oracle;
/// then the scheduler's single-worker cost and the program's own solver
/// and database counts.
pub fn trace(spec: &FleetSpec) -> Result<(), String> {
    let err = |e: CoreError| e.to_string();
    let oracle = spec.run_sequential().map_err(err)?;
    let ops = oracle.rack_epochs();

    let mut untraced = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut mismatched = 0;
    for on in [false, true, true, false] {
        let (tracer, wall) = if on {
            (&mut traced, &mut traced_s)
        } else {
            (&mut untraced, &mut untraced_s)
        };
        let started = Instant::now();
        let epochs = FleetReplica::build(spec, &oracle.rack_summaries)
            .and_then(|r| r.run(tracer))
            .map_err(err)?;
        *wall += started.elapsed().as_secs_f64();
        mismatched += u64::from(epochs != oracle.epochs);
    }

    let mut one = spec.clone();
    one.workers = 1;
    let started = Instant::now();
    let single = one.run().map_err(err)?;
    let single_s = started.elapsed().as_secs_f64();

    let degraded: u64 = oracle
        .epochs
        .iter()
        .map(|e| u64::from(e.degraded_racks))
        .sum();
    let mut line = Line::new("trace")
        .int("ops", traced.rack_epochs)
        .int("mismatched_runs", mismatched)
        .num("single_worker_s", single_s)
        .num(
            "sched.overhead_us",
            (single_s - untraced_s / 2.0) * 1e6 / ops.max(1) as f64,
        );
    let counts = ledger_metrics(
        &oracle.ledger,
        ops,
        degraded,
        single.shared_solve.reuse_rate(),
    );
    for (name, value) in counts.into_iter().chain(traced.per_rack_epoch_us()) {
        line = line.num(name, value);
    }
    line.num("trace.overhead", traced_s / untraced_s).emit();
    Ok(())
}
