//! The `serve_mixed` workload: one in-process `Daemon`, used two ways at
//! once.
//!
//! Bulk: free-running sessions admitted through `Supervisor::submit`
//! (retrying on backpressure), a fixed number in flight, run to the end.
//! Interactive, beside the bulk, on its own thread: one connection drives
//! manual sessions in a closed loop (`tick`, then page `decisions` until
//! the new line lands), and between pages a second connection times one
//! `status` round trip. Each round runs a fresh daemon.
//!
//! The timed window's daemon runs one pool worker, not nproc: on a
//! 2-vCPU VM its speed at 2 workers rose by 53% between two sets of runs
//! of the same code minutes apart, as the host moved the vCPUs. The
//! traced run keeps nproc workers for the pool and latency metrics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use greenhetero_core::metrics::geometric_mean;
use greenhetero_core::policies::PolicyKind;
use greenhetero_core::telemetry::RunLedger;
use greenhetero_serve::{decision_line, Daemon, ServeClient, ServeConfig, SessionSpec};
use greenhetero_sim::engine::run_scenario;
use greenhetero_sim::report::RunReport;

use crate::replica::{ledger_metrics, run_solo, Tracer};
use crate::util::{derive_seed, median, nproc, pace, peak_rss_kb, quantile, setup_line, Line};

/// Bulk sessions kept admitted at once: enough queued work that the
/// pool never waits for the submitter.
const BULK_IN_FLIGHT: usize = 24;
/// Days per bulk session (96 decisions a day).
const BULK_DAYS: u64 = 2;
/// Bulk sessions whose whole stream is checked against the oracle.
const SAMPLED_BULK: usize = 4;
/// Session specs behind the quality metrics.
const QUALITY_SESSIONS: u64 = 16;
/// Length of one daemon's window, s.
const ROUND: f64 = 2.0;
/// Heartbeat timeout of the manual sessions, ms.
const MANUAL_HEARTBEAT_MS: u64 = 600_000;
/// How long a tick in flight at the end of the window is still awaited.
const TICK_GRACE: Duration = Duration::from_secs(30);
/// How often the submitter looks for finished bulk sessions.
const BULK_POLL: Duration = Duration::from_millis(2);

fn config(worker_threads: usize) -> ServeConfig {
    ServeConfig {
        worker_threads,
        max_sessions: 64,
        ..ServeConfig::default()
    }
}

/// A session seed: the wire carries numbers as f64, so seeds stay below
/// 2^53.
fn session_seed(seed: u64, i: u64) -> u64 {
    derive_seed(seed, i) >> 11
}

fn bulk_spec(seed: u64, i: u64) -> SessionSpec {
    let mut spec = SessionSpec::named(&format!("bulk-{i}"));
    spec.seed = session_seed(seed, i);
    spec.days = BULK_DAYS;
    spec
}

/// Manual sessions get a heartbeat timeout longer than any window: a
/// ticked session parked behind saturating bulk work is measured, not
/// evicted.
fn manual_spec(seed: u64, i: u64) -> SessionSpec {
    let mut spec = SessionSpec::named(&format!("tick-{i}"));
    spec.seed = session_seed(seed, (1 << 40) + i);
    spec.manual = true;
    spec.controller.serve_heartbeat_timeout_ms = MANUAL_HEARTBEAT_MS;
    spec
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[derive(Default)]
struct Interactive {
    tick_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    rtt_ms: Vec<f64>,
    sessions: Vec<(SessionSpec, Vec<String>)>,
}

/// The interactive client thread: manual sessions ticked one at a time
/// in a closed loop. While it waits for a decision it alternates one
/// `decisions` page on the ticking connection with one `status` round
/// trip on the probing connection. A tick in flight when the window
/// closes is still waited for, up to `TICK_GRACE`.
fn interactive(addr: &str, seed: u64, stop: &AtomicBool) -> Result<Interactive, String> {
    let io = |e: greenhetero_serve::FrameError| e.to_string();
    let mut ticker = ServeClient::connect(addr).map_err(io)?;
    let mut prober = ServeClient::connect(addr).map_err(io)?;
    let mut out = Interactive::default();
    let mut next = 0;
    while !stop.load(Ordering::Acquire) {
        let spec = manual_spec(seed, next);
        next += 1;
        let total = spec.epochs_total().map_err(|e| e.to_string())?;
        // The bulk submitter can fill the admission queue; retry then.
        loop {
            let reply = ticker.submit(&spec).map_err(io)?;
            if reply.flag("ok") == Some(true) {
                break;
            }
            let reason = reply.text("reason").unwrap_or_default();
            if reason != "backpressure" && reason != "capacity" {
                return Err(format!("manual session refused: {reason}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut lines = Vec::new();
        while !stop.load(Ordering::Acquire) && (lines.len() as u64) < total {
            let sent = Instant::now();
            let ack = ticker.tick(&spec.name).map_err(io)?;
            if ack.flag("ok") != Some(true) {
                return Err(format!("tick refused: {:?}", ack.text("reason")));
            }
            out.ack_ms.push(ms(sent.elapsed()));
            let want = lines.len() as u64;
            let mut stopped: Option<Instant> = None;
            let line = loop {
                if let Some(line) = ticker.decisions(&spec.name, want, 1).map_err(io)?.pop() {
                    break line;
                }
                let probe = Instant::now();
                prober.status().map_err(io)?;
                out.rtt_ms.push(ms(probe.elapsed()));
                if stop.load(Ordering::Acquire) {
                    let since = *stopped.get_or_insert_with(Instant::now);
                    if since.elapsed() > TICK_GRACE {
                        return Err(format!("tick on {} never landed", spec.name));
                    }
                }
            };
            out.tick_ms.push(ms(sent.elapsed()));
            lines.push(line);
        }
        out.sessions.push((spec, lines));
    }
    Ok(out)
}

struct Window {
    bulk_decisions: u64,
    bulk_wall_s: f64,
    submit_us: Vec<f64>,
    submit_rejects: u64,
    bulk: Vec<SessionSpec>,
    failed: u64,
    interactive: Interactive,
    polls: u64,
    steals: u64,
    peak_rss_kb: u64,
    daemon: Daemon,
}

/// Runs the mixed window on a daemon of `workers` pool workers: bulk
/// sessions are submitted until `seconds` have passed, then run to the
/// end.
fn run_window(seed: u64, seconds: f64, workers: usize) -> Result<Window, String> {
    let daemon = Daemon::start(config(workers)).map_err(|e| e.to_string())?;
    let addr = daemon.local_addr().to_string();
    let sup = daemon.supervisor();
    let stop = AtomicBool::new(false);
    let started = Instant::now();

    let mut submit_us = Vec::new();
    let mut submit_rejects = 0;
    let mut bulk = Vec::new();
    let mut in_flight: Vec<String> = Vec::new();
    let mut bulk_decisions = 0;
    let mut failed = 0;
    let mut first_submit: Option<Instant> = None;

    let outcome = std::thread::scope(|scope| {
        let worker = scope.spawn(|| interactive(&addr, seed, &stop));
        let mut retire = |in_flight: &mut Vec<String>| {
            in_flight.retain(|name| match sup.session_status(name) {
                Ok(s) if s.state == "finished" => {
                    bulk_decisions += s.cursor;
                    false
                }
                Ok(s) if s.state == "pending" || s.state == "running" => true,
                Ok(s) => {
                    failed += s.epochs_total.max(s.cursor);
                    false
                }
                Err(_) => {
                    failed += 1;
                    false
                }
            });
        };
        let mut bulk_run = || -> Result<f64, String> {
            while started.elapsed().as_secs_f64() < seconds && !worker.is_finished() {
                while in_flight.len() < BULK_IN_FLIGHT {
                    let spec = bulk_spec(seed, bulk.len() as u64);
                    let sent = Instant::now();
                    let outcome = sup.submit(spec.clone());
                    submit_us.push(sent.elapsed().as_secs_f64() * 1e6);
                    match outcome {
                        Ok(_) => {
                            first_submit.get_or_insert(sent);
                            in_flight.push(spec.name.clone());
                            bulk.push(spec);
                        }
                        Err((tag, _)) if tag == "backpressure" || tag == "capacity" => {
                            submit_rejects += 1;
                            break;
                        }
                        Err((tag, msg)) => {
                            return Err(format!("bulk submit refused: {tag}: {msg}"))
                        }
                    }
                }
                std::thread::sleep(BULK_POLL);
                retire(&mut in_flight);
            }
            stop.store(true, Ordering::Release);
            while !in_flight.is_empty() {
                std::thread::sleep(Duration::from_micros(200));
                retire(&mut in_flight);
            }
            Ok(first_submit.map_or(0.0, |t| t.elapsed().as_secs_f64()))
        };
        let bulk_wall_s = bulk_run();
        // Whatever ended the bulk run, the interactive client stops too.
        stop.store(true, Ordering::Release);
        let interactive = worker
            .join()
            .map_err(|_| "interactive client panicked".to_string());
        Ok::<_, String>((interactive??, bulk_wall_s?))
    });
    let (interactive, bulk_wall_s) = outcome?;
    let pool = sup.pool_stats();
    Ok(Window {
        bulk_decisions,
        bulk_wall_s,
        submit_us,
        submit_rejects,
        bulk,
        failed,
        interactive,
        polls: pool.polls,
        steals: pool.steals,
        peak_rss_kb: peak_rss_kb(),
        daemon,
    })
}

/// The bulk sessions whose streams are checked whole: the first few
/// submitted, which every window has.
fn sampled(bulk: &[SessionSpec]) -> &[SessionSpec] {
    &bulk[..bulk.len().min(SAMPLED_BULK)]
}

fn oracle(spec: &SessionSpec, policy: PolicyKind) -> Result<RunReport, String> {
    let mut scenario = spec.scenario().map_err(|e| e.to_string())?;
    scenario.policy = policy;
    run_scenario(scenario).map_err(|e| e.to_string())
}

/// Checks served streams against `decision_line` over `run_scenario`.
/// Returns (attempted, failed) decisions.
fn check(w: &Window) -> Result<(u64, u64), String> {
    let sup = w.daemon.supervisor();
    let mut served: Vec<(&SessionSpec, Vec<String>)> = Vec::new();
    for spec in sampled(&w.bulk) {
        let (lines, _, _, _) = sup
            .decisions(&spec.name, 0, u64::MAX)
            .map_err(|(tag, msg)| format!("{tag}: {msg}"))?;
        served.push((spec, lines));
    }
    for (spec, lines) in &w.interactive.sessions {
        served.push((spec, lines.clone()));
    }
    let mut failed = w.failed;
    let mut interactive = 0;
    for (spec, lines) in &served {
        let gh = oracle(spec, PolicyKind::GreenHetero)?;
        let expected: Vec<String> = gh
            .epochs
            .iter()
            .take(lines.len())
            .map(decision_line)
            .collect();
        if *lines != expected {
            failed += lines.len() as u64;
        }
        if spec.manual {
            interactive += lines.len() as u64;
        }
    }
    Ok((w.bulk_decisions + w.failed + interactive, failed))
}

/// GreenHetero against Uniform over a fixed set of the workload's
/// session specs, whatever the window served.
fn quality(seed: u64) -> Result<(), String> {
    let (mut gains, mut epu_gains) = (Vec::new(), Vec::new());
    for i in 0..QUALITY_SESSIONS {
        let spec = bulk_spec(seed, i);
        let gh = oracle(&spec, PolicyKind::GreenHetero)?;
        let uniform = oracle(&spec, PolicyKind::Uniform)?;
        gains.push(gh.mean_throughput().value() / uniform.mean_throughput().value());
        epu_gains.push(gh.epu().value() / uniform.epu().value());
    }
    let geo = |v: &[f64]| geometric_mean(v).unwrap_or(0.0);
    Line::new("quality")
        .num("gain", geo(&gains))
        .num("epu_gain", geo(&epu_gains))
        .emit();
    Ok(())
}

fn finish(w: Window) -> Result<(), String> {
    let report = w.daemon.drain();
    if !report.within_deadline {
        return Err(format!("drain left {} sessions running", report.leaked));
    }
    Ok(())
}

/// Runs fresh daemons of `workers` pool workers, one `ROUND` each, until
/// `seconds` have passed, handing each finished window and the mean of
/// the paces taken before and after it to `each` before its daemon
/// drains. The first round runs before the pace first does, so its peak
/// RSS is the program's alone; its pace is the one taken after it.
/// Rounds keep the retained decision streams, and so memory, bounded
/// whatever the daemon's speed, and give several samples per run.
fn rounds(
    seed: u64,
    seconds: f64,
    workers: usize,
    mut each: impl FnMut(&Window, f64) -> Result<(), String>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut before = None;
    loop {
        let w = run_window(seed, ROUND.min(seconds), workers)?;
        let after = pace();
        let before = before.replace(after).unwrap_or(after);
        each(&w, (before + after) / 2.0)?;
        finish(w)?;
        if started.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

pub fn timed(seed: u64, seconds: f64) -> Result<(), String> {
    rounds(seed, seconds, 1, |w, pace| {
        let (attempted, failed) = check(w)?;
        Line::new("rep")
            .int("ops", w.bulk_decisions)
            .num("wall_s", w.bulk_wall_s)
            .num("pace", pace)
            .int("peak_rss_kb", w.peak_rss_kb)
            .int(
                "held",
                w.bulk.len() as u64 + w.interactive.sessions.len() as u64,
            )
            .int("attempted", attempted)
            .int("failed", failed)
            .emit();
        Ok(())
    })?;
    quality(seed)
}

pub fn setup(seed: u64) -> Result<(), String> {
    setup_line(|| {
        let started = Instant::now();
        let daemon = Daemon::start(config(1)).map_err(|e| e.to_string())?;
        let sup = daemon.supervisor();
        let spec = bulk_spec(seed, 0);
        while let Err((tag, msg)) = sup.submit(spec.clone()) {
            if tag != "backpressure" {
                return Err(format!("{tag}: {msg}"));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        while sup
            .session_status(&spec.name)
            .map_err(|(tag, msg)| format!("{tag}: {msg}"))?
            .state
            == "pending"
        {
            std::thread::sleep(Duration::from_micros(50));
        }
        let took = started.elapsed().as_secs_f64();
        daemon.drain();
        Ok(took)
    })
}

/// The traced run: the same rounds for the client-side and pool
/// metrics, then the replica of the workload's session scenarios,
/// checked against `run_scenario`.
pub fn trace(seed: u64, seconds: f64) -> Result<(), String> {
    let (mut rtt, mut tick, mut ack, mut submit) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut decisions, mut polls, mut steals, mut rejects) = (0, 0, 0, 0);
    let mut reuse = Vec::new();
    rounds(seed, seconds, nproc(), |w, _pace| {
        let i = &w.interactive;
        rtt.extend(&i.rtt_ms);
        tick.extend(&i.tick_ms);
        ack.extend(&i.ack_ms);
        submit.extend(&w.submit_us);
        decisions += w.bulk_decisions + i.sessions.iter().map(|(_, l)| l.len() as u64).sum::<u64>();
        polls += w.polls;
        steals += w.steals;
        rejects += w.submit_rejects;
        reuse.push(w.daemon.supervisor().shared_solve_stats().reuse_rate());
        Ok(())
    })?;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    Line::new("serve")
        .num("serve.rtt_p50_ms", median(&rtt))
        .num("serve.rtt_p90_ms", quantile(&rtt, 0.9))
        .num("serve.tick_p50_ms", median(&tick))
        .num("serve.tick_p90_ms", quantile(&tick, 0.9))
        .int("serve.tick_samples", tick.len() as u64)
        .num("serve.tick_ack_p50_ms", median(&ack))
        .num("serve.submit_p50_us", median(&submit))
        .num("serve.polls_per_decision", ratio(polls, decisions))
        .num("serve.steal_share", ratio(steals, polls))
        .num("serve.reject_share", ratio(rejects, submit.len() as u64))
        .emit();
    let specs: Vec<SessionSpec> = (0..QUALITY_SESSIONS).map(|i| bulk_spec(seed, i)).collect();
    replica_lines(&specs, median(&reuse))
}

/// Replays session scenarios through the replica, untraced and traced,
/// and reports layer self times and the mismatches against the program.
fn replica_lines(specs: &[SessionSpec], shared_reuse: f64) -> Result<(), String> {
    let err = |e: greenhetero_core::error::CoreError| e.to_string();
    let mut ledger = RunLedger::default();
    let mut degraded = 0;
    let mut mismatched = 0;
    let mut untraced = Tracer::new(false);
    let mut traced = Tracer::new(true);
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for spec in specs {
        let scenario = spec.scenario().map_err(err)?;
        let program = run_scenario(scenario.clone()).map_err(err)?;
        ledger.merge(&program.ledger);
        degraded += program.degraded_epochs;
        let started = Instant::now();
        let plain = run_solo(scenario.clone(), &mut untraced).map_err(err)?;
        plain_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        let records = run_solo(scenario, &mut traced).map_err(err)?;
        traced_s += started.elapsed().as_secs_f64();
        mismatched += u64::from(plain != program.epochs) + u64::from(records != program.epochs);
    }
    let ops = traced.rack_epochs;
    let mut line = Line::new("trace")
        .int("ops", ops)
        .int("mismatched_runs", mismatched);
    let counts = ledger_metrics(&ledger, ops, degraded, shared_reuse);
    for (name, value) in counts.into_iter().chain(traced.per_rack_epoch_us()) {
        line = line.num(name, value);
    }
    line.num("trace.overhead", traced_s / plain_s).emit();
    Ok(())
}
