//! Lock-step stress for the fleet executor's epoch hand-off.
//!
//! `run_epoch_batches` hands every epoch to its helper threads and waits
//! for one answer from each before it folds the epoch and starts the
//! next. No-op steps leave that hand-off the most room to go wrong: a
//! lost epoch or answer would wedge the run, and a claim that leaked
//! across epochs would step a batch twice or not at all.
//!
//! The stress runs on a spawned thread and the test waits for it with a
//! timeout, so a regression fails with a message instead of hanging the
//! test run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use greenhetero_sim::sched::run_epoch_batches;

const WORKERS: usize = 4;
const BATCHES: u64 = 8;
const EPOCHS: u64 = 2_000;
const ROUNDS: u32 = 50;

/// Far above the stress's normal run time (two to three seconds on two
/// cores, in a debug or a release build).
const WATCHDOG: Duration = Duration::from_secs(120);

/// Runs `ROUNDS` executor runs of no-op steps and returns the first
/// round whose step count drifted from `EPOCHS × BATCHES`.
fn stress() -> Result<(), String> {
    for round in 0..ROUNDS {
        let steps = AtomicU64::new(0);
        let out = run_epoch_batches(
            WORKERS,
            EPOCHS,
            (0..BATCHES).collect(),
            &|_batch, _epoch| {
                steps.fetch_add(1, Ordering::Relaxed);
                true
            },
            &|_epoch, _batch| {},
            &|_epoch| {},
        );
        let stepped = steps.load(Ordering::Relaxed);
        if out.len() as u64 != BATCHES || stepped != EPOCHS * BATCHES {
            return Err(format!(
                "round {round}: {} batches back, {stepped} steps, expected {BATCHES} and {}",
                out.len(),
                EPOCHS * BATCHES
            ));
        }
    }
    Ok(())
}

#[test]
fn lock_step_epochs_finish_under_a_watchdog() {
    let (done, outcome) = mpsc::sync_channel(1);
    thread::spawn(move || {
        // The receiver may have given up already; nothing to report then.
        let _ = done.send(stress());
    });
    match outcome.recv_timeout(WATCHDOG) {
        Ok(result) => result.unwrap(),
        Err(mpsc::RecvTimeoutError::Timeout) => panic!(
            "run_epoch_batches wedged: {ROUNDS} rounds of {EPOCHS} epochs x {BATCHES} batches \
             on {WORKERS} workers did not finish within {WATCHDOG:?}"
        ),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("the stress thread panicked before reporting")
        }
    }
}
