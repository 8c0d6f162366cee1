//! Scheduler probes with no-op work, so only the scheduler is timed.
//!
//! `narrow`: `run_epoch_batches` at 1 worker (dispatch cost per batch
//! and per rollover) and a `TaskPool` at the daemon's width (cost per
//! poll, and how late a parked task wakes against its deadline).
//! `wide`: `run_epoch_batches` at nproc workers; it can wedge, so
//! `run.py` runs it in its own process under a short deadline and counts
//! a kill in `sched.hangs`.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use greenhetero_sim::sched::{run_epoch_batches, PollTask, TaskPoll, TaskPool};

use crate::util::{median, nproc, Line};

const BATCHES: usize = 8;
const EPOCHS: u64 = 20_000;
const POLLS: u64 = 200_000;
const WAKES: u32 = 40;
const WAKE_MS: u64 = 5;
const WIDE_ROUNDS: u64 = 20;
const WIDE_EPOCHS: u64 = 2_000;

#[derive(Default)]
struct Gaps {
    epoch: u64,
    last_end: Option<Instant>,
    rollover: Duration,
}

fn batches_at_one_worker() -> (f64, f64) {
    let gaps = Mutex::new(Gaps::default());
    let started = Instant::now();
    let out = run_epoch_batches(
        1,
        EPOCHS,
        (0..BATCHES).collect::<Vec<usize>>(),
        &|_batch, epoch| {
            let now = Instant::now();
            let mut g = gaps.lock().unwrap_or_else(PoisonError::into_inner);
            if epoch != g.epoch {
                if let Some(end) = g.last_end {
                    g.rollover += now - end;
                }
                g.epoch = epoch;
            }
            g.last_end = Some(Instant::now());
            true
        },
        &|_epoch, _batch| {},
        &|_epoch| {},
    );
    let wall = started.elapsed();
    std::hint::black_box(out);
    let g = gaps.into_inner().unwrap_or_else(PoisonError::into_inner);
    let steps = (EPOCHS * BATCHES as u64) as f64;
    let batch_us = (wall.saturating_sub(g.rollover)).as_secs_f64() * 1e6 / steps;
    let rollover_us = g.rollover.as_secs_f64() * 1e6 / (EPOCHS - 1) as f64;
    (batch_us, rollover_us)
}

type Signal = Arc<(Mutex<bool>, Condvar)>;

fn wait(signal: &Signal) {
    let (lock, cv) = &**signal;
    let mut done = lock.lock().unwrap_or_else(PoisonError::into_inner);
    while !*done {
        done = cv.wait(done).unwrap_or_else(PoisonError::into_inner);
    }
}

fn raise(signal: &Signal) {
    let (lock, cv) = &**signal;
    *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
    cv.notify_all();
}

/// Returns `Again` until its budget is spent.
struct Spin {
    left: u64,
    done: Signal,
}

impl PollTask for Spin {
    fn poll(&mut self) -> TaskPoll {
        if self.left == 0 {
            raise(&self.done);
            return TaskPoll::Done;
        }
        self.left -= 1;
        TaskPoll::Again
    }
}

/// Parks itself for `WAKE_MS` again and again, noting how late each
/// wake-up comes against its deadline.
struct Sleeper {
    left: u32,
    due: Option<Instant>,
    late_ms: Arc<Mutex<Vec<f64>>>,
    done: Signal,
}

impl PollTask for Sleeper {
    fn poll(&mut self) -> TaskPoll {
        let now = Instant::now();
        if let Some(due) = self.due {
            let late = now.saturating_duration_since(due).as_secs_f64() * 1e3;
            self.late_ms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(late);
        }
        if self.left == 0 {
            raise(&self.done);
            return TaskPoll::Done;
        }
        self.left -= 1;
        self.due = Some(now + Duration::from_millis(WAKE_MS));
        TaskPoll::After(WAKE_MS)
    }
}

fn pool_probe() -> Result<(f64, f64), String> {
    let pool = TaskPool::start(nproc()).map_err(|e| e.to_string())?;
    let done: Signal = Arc::default();
    let started = Instant::now();
    pool.spawn(Box::new(Spin {
        left: POLLS,
        done: Arc::clone(&done),
    }));
    wait(&done);
    let poll_us = started.elapsed().as_secs_f64() * 1e6 / (POLLS + 1) as f64;

    let late_ms = Arc::new(Mutex::new(Vec::new()));
    let done: Signal = Arc::default();
    pool.spawn(Box::new(Sleeper {
        left: WAKES,
        due: None,
        late_ms: Arc::clone(&late_ms),
        done: Arc::clone(&done),
    }));
    wait(&done);
    pool.shutdown();
    let late = late_ms.lock().unwrap_or_else(PoisonError::into_inner);
    Ok((poll_us, median(&late)))
}

pub fn narrow() -> Result<(), String> {
    let (batch_us, rollover_us) = batches_at_one_worker();
    let (poll_us, wake_late_ms) = pool_probe()?;
    Line::new("probe")
        .num("sched.batch_us", batch_us)
        .num("sched.rollover_us", rollover_us)
        .num("pool.poll_us", poll_us)
        .num("pool.wake_late_ms", wake_late_ms)
        .emit();
    Ok(())
}

/// Rounds of the no-op epoch probe at nproc workers, one line each, so a
/// wedged round shows as the line that never comes.
pub fn wide() -> Result<(), String> {
    for round in 0..WIDE_ROUNDS {
        let started = Instant::now();
        let out = run_epoch_batches(
            nproc(),
            WIDE_EPOCHS,
            (0..BATCHES).collect::<Vec<usize>>(),
            &|_batch, _epoch| true,
            &|_epoch, _batch| {},
            &|_epoch| {},
        );
        std::hint::black_box(out);
        Line::new("wide")
            .int("round", round)
            .num("wall_s", started.elapsed().as_secs_f64())
            .emit();
    }
    Ok(())
}
