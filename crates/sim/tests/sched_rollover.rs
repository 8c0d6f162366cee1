//! Regression test for the fleet executor's epoch rollover.
//!
//! The rollover leader of `run_epoch_batches` must publish the next
//! epoch's batch count before it makes any batch visible. When it seeded
//! the queues first, a worker could pop a fresh batch, finish it and
//! decrement the count, and the leader's late store then overwrote the
//! decrement: the count never reached zero and every worker waited on
//! the rollover condvar forever.
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

/// Far above the stress's normal run time (well under a second on two
/// cores in a release build, a few seconds in a debug build).
const WATCHDOG: Duration = Duration::from_secs(120);

/// Runs `ROUNDS` executor runs of no-op steps, which leave the rollover
/// the most room to race, and returns the first round whose step count
/// drifted from `EPOCHS × BATCHES`.
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
fn rollover_publishes_the_count_before_seeding_batches() {
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
