//! Admission racing a drain: several threads submit short sessions in a
//! loop while the main thread drains the daemon. Each submit must be
//! either admitted and then stopped, joined and checkpointed by the
//! drain, or refused with `draining` — never admitted behind the
//! drain's back. A watchdog turns a wedge into a failure instead of a
//! hung test.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use greenhetero_core::types::SimDuration;
use greenhetero_serve::supervisor::Rejection;
use greenhetero_serve::{Daemon, ServeConfig, SessionSpec};

const SUBMITTERS: usize = 4;
/// Submits per thread before the drain returns, at most.
const BEFORE: usize = 150;
/// Submits per thread once the drain has returned.
const AFTER: usize = 3;
/// Admitted sessions the drain waits for before it starts.
const WARMUP: usize = 8;
/// Shorter than a session's 24 s horizon.
const DRAIN_DEADLINE_MS: u64 = 10_000;
const WATCHDOG: Duration = Duration::from_secs(120);

/// One submit: the session name, the answer, and whether the drain had
/// already returned when the submit began.
struct Outcome {
    name: String,
    result: Result<u64, Rejection>,
    after_drain: bool,
}

/// A short-horizon session: 24 hourly epochs, one a second. Only a
/// stop flag ends it inside `DRAIN_DEADLINE_MS`, so a session admitted
/// behind the drain's stop loop leaks instead of finishing on its own.
fn short_spec(name: &str) -> SessionSpec {
    let mut spec = SessionSpec::named(name);
    spec.controller.epoch_len = SimDuration::from_minutes(60);
    spec.pace_ms = 1_000;
    spec
}

/// Submits until the drain has returned (at most `BEFORE` times), then
/// `AFTER` more times.
fn submitter(
    t: usize,
    daemon: &Daemon,
    drained: &AtomicBool,
    admitted: &AtomicUsize,
) -> Vec<Outcome> {
    let mut outcomes = Vec::new();
    let mut submit = |i: usize| {
        let after_drain = drained.load(Ordering::Acquire);
        let name = format!("t{t}-{i:03}");
        let result = daemon.supervisor().submit(short_spec(&name));
        if result.is_ok() {
            admitted.fetch_add(1, Ordering::AcqRel);
        }
        outcomes.push(Outcome {
            name,
            result,
            after_drain,
        });
    };
    let mut i = 0;
    while i < BEFORE && !drained.load(Ordering::Acquire) {
        submit(i);
        i += 1;
    }
    while !drained.load(Ordering::Acquire) {
        thread::sleep(Duration::from_millis(1));
    }
    for j in 0..AFTER {
        submit(i + j);
    }
    outcomes
}

fn race() -> Result<(), String> {
    let daemon = Daemon::start(ServeConfig {
        max_sessions: SUBMITTERS * (BEFORE + AFTER) + 1,
        worker_threads: 2,
        drain_deadline_ms: DRAIN_DEADLINE_MS,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())?;
    let drained = AtomicBool::new(false);
    let admitted = AtomicUsize::new(0);
    let (report, outcomes) = thread::scope(|s| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                let (daemon, drained, admitted) = (&daemon, &drained, &admitted);
                s.spawn(move || submitter(t, daemon, drained, admitted))
            })
            .collect();
        while admitted.load(Ordering::Acquire) < WARMUP {
            thread::sleep(Duration::from_micros(100));
        }
        let report = daemon.drain();
        drained.store(true, Ordering::Release);
        let outcomes: Vec<Outcome> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect();
        (report, outcomes)
    });

    if report.leaked != 0 || !report.within_deadline {
        return Err(format!(
            "drain leaked {} sessions in {} ms (within deadline: {})",
            report.leaked, report.elapsed_ms, report.within_deadline
        ));
    }
    let mut admitted_names = Vec::new();
    for outcome in &outcomes {
        match (&outcome.result, outcome.after_drain) {
            (Ok(_), false) => admitted_names.push(outcome.name.as_str()),
            (Err(("draining", _)), _) => {}
            (Ok(_), true) => return Err(format!("{} was admitted after the drain", outcome.name)),
            (Err((reason, msg)), _) => {
                return Err(format!("{} refused with {reason}: {msg}", outcome.name))
            }
        }
    }
    let late = outcomes.iter().filter(|o| o.after_drain).count();
    println!(
        "{} submits: {} admitted, {} refused while draining, {late} after the drain",
        outcomes.len(),
        admitted_names.len(),
        outcomes.len() - admitted_names.len() - late
    );
    if late != SUBMITTERS * AFTER {
        return Err(format!(
            "{late} submits after the drain, expected {}",
            SUBMITTERS * AFTER
        ));
    }
    if report.checkpoints.len() != admitted_names.len() {
        return Err(format!(
            "{} admitted sessions but {} checkpoints",
            admitted_names.len(),
            report.checkpoints.len()
        ));
    }
    for name in admitted_names {
        let checkpoint = report
            .checkpoints
            .iter()
            .find(|c| c.session == name)
            .ok_or_else(|| format!("admitted session {name} has no checkpoint"))?;
        if !["finished", "quarantined", "evicted", "drained"].contains(&checkpoint.state) {
            return Err(format!("{name} checkpointed as {}", checkpoint.state));
        }
    }
    if daemon.supervisor().status().total() != 0 {
        return Err("a refused submit left a session behind".into());
    }
    Ok(())
}

#[test]
fn submits_racing_a_drain_are_admitted_and_joined_or_refused() {
    let (done, outcome) = mpsc::sync_channel(1);
    thread::spawn(move || {
        // The receiver may have given up already; nothing to report then.
        let _ = done.send(race());
    });
    match outcome.recv_timeout(WATCHDOG) {
        Ok(result) => result.unwrap_or_else(|e| panic!("{e}")),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("submitting while draining wedged: no verdict within {WATCHDOG:?}")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("the race thread panicked before reporting")
        }
    }
}
