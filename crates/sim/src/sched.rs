//! Epoch schedulers: a run-queue pool for long-lived sessions and a
//! scoped lock-step executor for fleets and sweeps.
//!
//! * [`TaskPool`] — a long-lived pool for the serving daemon. Each rack
//!   session is a [`PollTask`] that advances one epoch (or one waiting
//!   quantum) per [`PollTask::poll`] call and yields the thread between
//!   steps, so a 1,000-session daemon runs on `workers` threads instead
//!   of 1,000. Tasks that need to wait (pacing, crash backoff, manual
//!   ticks) return [`TaskPoll::After`] and are parked on a deadline
//!   rather than blocking a worker. A worker keeps polling its task
//!   while it has work, and yields it only to parked tasks that come due.
//! * [`run_epoch_batches`] — a scoped, lock-step executor for fleet
//!   epochs and sweeps. The calling thread works beside `workers − 1`
//!   scoped helpers that start once per run. Within an epoch every
//!   thread claims the next batch through one atomic cursor; once each
//!   helper has answered, the calling thread folds every batch **in
//!   ascending batch order** (= rack order) and starts the next epoch.
//!   Execution order is free; reduction order is pinned — which is
//!   exactly the determinism contract the fleet byte-identity suite
//!   enforces.
//!
//! There are two because the work has two lifetimes. Pool tasks are
//! `Box<dyn PollTask>` that outlive any caller, so they must be
//! `'static`. Fleet and sweep closures borrow the caller's stack (the
//! fleet's fold state, a sweep's scenarios and results), which in safe
//! Rust only scoped threads can run. Neither keeps a hand-written join
//! protocol: the executor's epoch hand-off is a pair of bounded channels
//! per helper.
//!
//! Determinism proof obligation (see DESIGN.md §15): no task may derive
//! behaviour from worker identity, claim order, or wall-clock readings;
//! those inputs exist only in this module and never flow into task
//! state. Everything a task computes is a function of its own spec and
//! its own step counter.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use greenhetero_core::error::CoreError;

/// What a task wants the pool to do after one `poll`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPoll {
    /// Poll the task again: it has more work ready right now. Its
    /// worker keeps it until it parks or finishes, or until a parked
    /// task comes due and runs ahead of it.
    Again,
    /// Park the task and re-poll it no sooner than this many
    /// milliseconds from now (pacing, crash backoff, waiting for a
    /// manual tick). A [`TaskPool::kick`] may wake it earlier.
    After(u64),
    /// The task reached a terminal state; drop it.
    Done,
}

/// A cooperatively-scheduled unit of work: one rack session, polled one
/// epoch (or one waiting quantum) at a time on the bounded pool.
pub trait PollTask: Send {
    /// Advances the task by one step and reports what to do next.
    ///
    /// A poll should stay short — one epoch step, one queue check — so
    /// thousands of tasks share a handful of workers fairly. Blocking
    /// inside `poll` stalls one worker (the pool tolerates it: the
    /// other workers keep taking tasks from the run queue, and an idle
    /// one wakes for the earliest parked deadline) but is reserved for
    /// genuinely stuck tasks, not for pacing.
    fn poll(&mut self) -> TaskPoll;
}

/// Counters describing pool activity, for telemetry export.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskPoolStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Tasks ever submitted via [`TaskPool::spawn`].
    pub spawned: u64,
    /// Tasks that returned [`TaskPoll::Done`].
    pub completed: u64,
    /// Total `poll` invocations across all tasks.
    pub polls: u64,
    /// Always 0: every worker takes its tasks from the one run queue,
    /// so none is stolen. Kept only because `perfbench`'s serve
    /// workload reads it.
    pub steals: u64,
}

/// What the pool's one lock guards.
struct RunQueue {
    /// Runnable tasks, taken from the front. `spawn` joins the back;
    /// parked tasks that come due, and the busy task they preempt,
    /// rejoin the front.
    runnable: VecDeque<Box<dyn PollTask>>,
    /// Parked tasks keyed by `(wake_deadline_ms, sequence)` so the
    /// earliest deadline is always the first key.
    parked: BTreeMap<(u64, u64), Box<dyn PollTask>>,
    seq: u64,
    live: bool,
    /// The worker threads, taken once by [`TaskPool::shutdown`].
    handles: Vec<JoinHandle<()>>,
}

struct PoolInner {
    queue: Mutex<RunQueue>,
    /// Idle workers wait here, on `queue`'s lock.
    wake: Condvar,
    /// The first parked deadline, `u64::MAX` when nothing is parked.
    /// It is written under the lock and read without it, so a busy
    /// worker sees a due task at its next poll without taking the lock.
    /// A stale read costs one poll's delay or one needless trip to the
    /// lock, so `Relaxed` suffices.
    next_due: AtomicU64,
    epoch: Instant,
    spawned: AtomicU64,
    completed: AtomicU64,
    polls: AtomicU64,
}

impl PoolInner {
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> MutexGuard<'_, RunQueue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Moves every parked task whose deadline has passed to the front
    /// of the run queue, earliest first, and publishes the next
    /// deadline.
    fn promote_due(&self, queue: &mut RunQueue) {
        let now = self.now_ms();
        let mut at = 0;
        while let Some(entry) = queue.parked.first_entry() {
            if entry.key().0 > now {
                break;
            }
            queue.runnable.insert(at, entry.remove());
            at += 1;
        }
        let next = queue.parked.keys().next().map_or(u64::MAX, |key| key.0);
        self.next_due.store(next, Ordering::Relaxed);
    }

    /// The task this worker polls next. It keeps `held` while no parked
    /// task is due; otherwise `held` rejoins the front of the queue
    /// behind the due tasks, and the front is taken. Waits while nothing
    /// is runnable, and returns `None` once the pool stops.
    fn next(&self, held: Option<Box<dyn PollTask>>) -> Option<Box<dyn PollTask>> {
        if held.is_some() && self.next_due.load(Ordering::Relaxed) > self.now_ms() {
            return held;
        }
        let mut queue = self.lock();
        if let Some(task) = held {
            queue.runnable.push_front(task);
        }
        while queue.live {
            self.promote_due(&mut queue);
            if let Some(task) = queue.runnable.pop_front() {
                if !queue.runnable.is_empty() {
                    // A preempted task or a second due one is left over:
                    // an idle worker, if there is one, takes it.
                    self.wake.notify_one();
                }
                return Some(task);
            }
            // Until the first parked deadline; with nothing parked,
            // `u64::MAX` ms is a wait without end.
            let wait = self
                .next_due
                .load(Ordering::Relaxed)
                .saturating_sub(self.now_ms());
            (queue, _) = self
                .wake
                .wait_timeout(queue, Duration::from_millis(wait))
                .unwrap_or_else(PoisonError::into_inner);
        }
        None
    }

    fn park(&self, task: Box<dyn PollTask>, ms: u64) {
        let deadline = self.now_ms().saturating_add(ms);
        let mut queue = self.lock();
        let key = (deadline, queue.seq);
        queue.seq += 1;
        queue.parked.insert(key, task);
        if deadline < self.next_due.load(Ordering::Relaxed) {
            // A new earliest deadline: an idle worker waiting for a later
            // one, or for none, re-arms, so a worker stuck inside a poll
            // cannot hold this task up.
            self.next_due.store(deadline, Ordering::Relaxed);
            self.wake.notify_one();
        }
    }

    fn worker_loop(&self) {
        let mut held = None;
        while let Some(mut task) = self.next(held.take()) {
            self.polls.fetch_add(1, Ordering::Relaxed);
            match task.poll() {
                TaskPoll::Again => held = Some(task),
                TaskPoll::After(ms) => self.park(task, ms),
                TaskPoll::Done => {
                    self.completed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// A bounded pool hosting [`PollTask`]s on `workers` OS threads, all
/// fed from one run queue. Dropping the pool stops the workers; tasks
/// still resident (runnable or parked) are dropped without further
/// polls — callers that need orderly shutdown should stop their tasks
/// first (the serve supervisor's drain raises every session's stop
/// flag, then [`kick`](TaskPool::kick)s the pool so parked sessions
/// observe it).
pub struct TaskPool {
    inner: Arc<PoolInner>,
    workers: usize,
}

impl std::fmt::Debug for TaskPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskPool")
            .field("workers", &self.workers)
            .field("stats", &self.stats())
            .finish()
    }
}

impl TaskPool {
    /// Starts a pool with `workers` threads (0 ⇒ `available_parallelism`).
    pub fn start(workers: usize) -> Result<Self, CoreError> {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            workers
        };
        let pool = TaskPool {
            inner: Arc::new(PoolInner {
                queue: Mutex::new(RunQueue {
                    runnable: VecDeque::new(),
                    parked: BTreeMap::new(),
                    seq: 0,
                    live: true,
                    handles: Vec::with_capacity(workers),
                }),
                wake: Condvar::new(),
                next_due: AtomicU64::new(u64::MAX),
                epoch: Instant::now(),
                spawned: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                polls: AtomicU64::new(0),
            }),
            workers,
        };
        for i in 0..workers {
            let inner = Arc::clone(&pool.inner);
            // On a failed spawn, dropping `pool` stops and joins the
            // workers already started.
            let handle = std::thread::Builder::new()
                .name(format!("gh-pool-{i}"))
                .spawn(move || inner.worker_loop())
                .map_err(|e| CoreError::InvalidConfig {
                    reason: format!("pool worker spawn failed: {e}"),
                })?;
            pool.inner.lock().handles.push(handle);
        }
        Ok(pool)
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Submits a task at the back of the run queue: an idle worker takes
    /// it at once, a busy one once its own task parks or finishes.
    pub fn spawn(&self, task: Box<dyn PollTask>) {
        self.inner.spawned.fetch_add(1, Ordering::Relaxed);
        let mut queue = self.inner.lock();
        queue.runnable.push_back(task);
        self.inner.wake.notify_one();
    }

    /// Makes every parked task due now (their `After` deadlines are
    /// forfeited): idle workers wake to run them, and busy workers yield
    /// to them at their next poll. Used by drain so sessions sitting out
    /// a backoff or pacing interval observe their stop flags now rather
    /// than at the next deadline.
    pub fn kick(&self) {
        let mut queue = self.inner.lock();
        let parked = std::mem::take(&mut queue.parked);
        queue.parked = parked
            .into_iter()
            .map(|((_, seq), task)| ((0, seq), task))
            .collect();
        if !queue.parked.is_empty() {
            self.inner.next_due.store(0, Ordering::Relaxed);
        }
        self.inner.wake.notify_all();
    }

    /// Activity counters for telemetry export.
    pub fn stats(&self) -> TaskPoolStats {
        TaskPoolStats {
            workers: self.workers,
            spawned: self.inner.spawned.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            polls: self.inner.polls.load(Ordering::Relaxed),
            steals: 0,
        }
    }

    /// Stops the workers and joins them. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        let handles = {
            let mut queue = self.inner.lock();
            queue.live = false;
            // Busy workers come to the lock at their next poll and stop.
            self.inner.next_due.store(0, Ordering::Relaxed);
            self.inner.wake.notify_all();
            std::mem::take(&mut queue.handles)
        };
        for handle in handles {
            if handle.join().is_err() {
                // A worker panicked while unwinding a task poll; the
                // pool is shutting down anyway, nothing to salvage.
            }
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Scoped lock-step executor for fleet epochs and sweeps.
// ---------------------------------------------------------------------------

/// Runs `epochs` lock-step epochs over `batches` on `workers` threads,
/// folding each finished epoch in a pinned order.
///
/// The calling thread coordinates and works. It starts `workers − 1`
/// scoped helpers once per run (none at one worker). Each epoch it
/// resets a shared cursor, sends the epoch number to every helper over
/// that helper's own bounded channel, claims batches through the cursor
/// like any helper, and then receives one answer per helper. So every
/// batch is stepped exactly once per epoch via `step(&mut batch,
/// epoch)`, on whichever thread claims it. The calling thread then
/// calls `fold(epoch, &mut batch)` for every batch in **ascending batch
/// index order** — with ascending rack order inside a batch, that is
/// ascending global rack order, the order the sequential oracle folds
/// in — and then `epoch_done(epoch)` (sink flush). There is no
/// run-ahead: no batch starts epoch `e+1` before every batch finished
/// epoch `e`, the lock-step contract the shared solve cache and the
/// ≤1-epoch sink buffering rely on.
///
/// `step` returns `false` to report a failed batch: the other batches
/// still step that epoch, then the run ends with its fold and flush
/// skipped, and the caller inspects its own per-batch error state. A
/// panic in `step`, `fold` or `epoch_done` reaches the caller with its
/// own payload once every helper has stopped. Returns the batches for
/// post-run harvest.
pub fn run_epoch_batches<B: Send>(
    workers: usize,
    epochs: u64,
    batches: Vec<B>,
    step: &(dyn Fn(&mut B, u64) -> bool + Sync),
    fold: &(dyn Fn(u64, &mut B) + Sync),
    epoch_done: &(dyn Fn(u64) + Sync),
) -> Vec<B> {
    if batches.is_empty() || epochs == 0 {
        return batches;
    }
    let workers = workers.clamp(1, batches.len());
    let slots: Vec<Mutex<B>> = batches.into_iter().map(Mutex::new).collect();
    // `Relaxed` suffices for both atomics: a channel send and its
    // receive pair as release and acquire, so a helper's epoch receive
    // orders the cursor reset before its claims, and the caller's answer
    // receive orders every claim and `failed` store before the fold. The
    // slot mutexes carry the batches between threads.
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let claim = |epoch: u64| {
        while let Some(slot) = slots.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let mut batch = slot.lock().unwrap_or_else(PoisonError::into_inner);
            if !step(&mut batch, epoch) {
                failed.store(true, Ordering::Relaxed);
            }
        }
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers)
            .map(|_| {
                let (epoch_tx, epoch_rx) = sync_channel::<u64>(1);
                let (answer_tx, answer_rx) = sync_channel::<()>(1);
                let claim = &claim;
                // A helper that panics drops `answer_tx`, so the caller's
                // receive fails instead of waiting for it.
                let handle = scope.spawn(move || {
                    for epoch in epoch_rx {
                        claim(epoch);
                        if answer_tx.send(()).is_err() {
                            return;
                        }
                    }
                });
                (epoch_tx, answer_rx, handle)
            })
            .collect();
        for epoch in 0..epochs {
            cursor.store(0, Ordering::Relaxed);
            for (epoch_tx, _, _) in &helpers {
                // A closed channel means that helper panicked; its
                // answer below fails and ends the run.
                epoch_tx.send(epoch).ok();
            }
            claim(epoch);
            let answered = helpers
                .iter()
                .all(|(_, answer_rx, _)| answer_rx.recv().is_ok());
            if !answered || failed.load(Ordering::Relaxed) {
                break;
            }
            for slot in &slots {
                let mut batch = slot.lock().unwrap_or_else(PoisonError::into_inner);
                fold(epoch, &mut batch);
            }
            epoch_done(epoch);
        }
        // Dropping the epoch senders ends every helper's loop. Joining
        // each one here, rather than leaving it to the scope, resumes a
        // helper's own panic payload instead of a generic message.
        let handles: Vec<_> = helpers.into_iter().map(|(_, _, handle)| handle).collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        n: u64,
        limit: u64,
        hits: Arc<AtomicU64>,
    }

    impl PollTask for Counter {
        fn poll(&mut self) -> TaskPoll {
            self.n += 1;
            self.hits.fetch_add(1, Ordering::Relaxed);
            if self.n >= self.limit {
                TaskPoll::Done
            } else if self.n.is_multiple_of(3) {
                TaskPoll::After(1)
            } else {
                TaskPoll::Again
            }
        }
    }

    fn wait_for<F: FnMut() -> bool>(mut done: F, what: &str) {
        let start = Instant::now();
        while !done() {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "timed out waiting for {what}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn pool_runs_many_tasks_to_completion_on_few_workers() {
        let pool = TaskPool::start(2).expect("pool");
        assert_eq!(pool.workers(), 2);
        let hits = Arc::new(AtomicU64::new(0));
        let tasks = 64u64;
        let polls_each = 10u64;
        for _ in 0..tasks {
            pool.spawn(Box::new(Counter {
                n: 0,
                limit: polls_each,
                hits: Arc::clone(&hits),
            }));
        }
        wait_for(
            || pool.stats().completed == tasks,
            "all pool tasks to finish",
        );
        assert_eq!(hits.load(Ordering::Relaxed), tasks * polls_each);
        let stats = pool.stats();
        assert_eq!(stats.spawned, tasks);
        assert!(stats.polls >= tasks * polls_each);
        pool.shutdown();
    }

    #[test]
    fn kick_wakes_parked_tasks_early() {
        struct Sleeper {
            woke: Arc<AtomicU64>,
        }
        impl PollTask for Sleeper {
            fn poll(&mut self) -> TaskPoll {
                if self.woke.fetch_add(1, Ordering::Relaxed) == 0 {
                    // Park far beyond the test timeout; only a kick can
                    // bring us back.
                    TaskPoll::After(3_600_000)
                } else {
                    TaskPoll::Done
                }
            }
        }
        let pool = TaskPool::start(1).expect("pool");
        let woke = Arc::new(AtomicU64::new(0));
        pool.spawn(Box::new(Sleeper {
            woke: Arc::clone(&woke),
        }));
        wait_for(|| woke.load(Ordering::Relaxed) == 1, "first poll");
        pool.kick();
        wait_for(|| pool.stats().completed == 1, "kicked task to finish");
        pool.shutdown();
    }

    /// Returns `Again` until `stop` is raised, or for at most 20 s, so a
    /// pool that never preempts it fails a test instead of hanging it.
    struct Busy {
        stop: Arc<AtomicBool>,
        polls: Arc<AtomicU64>,
        started: Instant,
    }

    impl PollTask for Busy {
        fn poll(&mut self) -> TaskPoll {
            self.polls.fetch_add(1, Ordering::Relaxed);
            if self.stop.load(Ordering::Relaxed) || self.started.elapsed() > Duration::from_secs(20)
            {
                TaskPoll::Done
            } else {
                TaskPoll::Again
            }
        }
    }

    /// Parks for `park_ms` on its first poll and finishes on its second.
    struct Parker {
        park_ms: u64,
        polls: Arc<AtomicU64>,
    }

    impl PollTask for Parker {
        fn poll(&mut self) -> TaskPoll {
            if self.polls.fetch_add(1, Ordering::Relaxed) == 0 {
                TaskPoll::After(self.park_ms)
            } else {
                TaskPoll::Done
            }
        }
    }

    /// On a one-worker pool, parks a task for `park_ms`, keeps the worker
    /// busy with a task that always has work, calls `nudge`, and reports
    /// whether the parked task was polled again within 2 s.
    fn parked_task_runs_beside_a_busy_task(park_ms: u64, nudge: fn(&TaskPool)) -> bool {
        let pool = TaskPool::start(1).expect("pool");
        let parked = Arc::new(AtomicU64::new(0));
        let busy = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        pool.spawn(Box::new(Parker {
            park_ms,
            polls: Arc::clone(&parked),
        }));
        pool.spawn(Box::new(Busy {
            stop: Arc::clone(&stop),
            polls: Arc::clone(&busy),
            started: Instant::now(),
        }));
        wait_for(
            || busy.load(Ordering::Relaxed) > 0,
            "the busy task's first poll",
        );
        nudge(&pool);
        let nudged = Instant::now();
        while parked.load(Ordering::Relaxed) < 2 && nudged.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let ran = parked.load(Ordering::Relaxed) == 2;
        stop.store(true, Ordering::Relaxed);
        wait_for(|| pool.stats().completed == 2, "both tasks to finish");
        pool.shutdown();
        ran
    }

    #[test]
    fn a_due_parked_task_runs_beside_a_busy_task() {
        assert!(
            parked_task_runs_beside_a_busy_task(5, |_| {}),
            "a parked task that came due waited out a busy task"
        );
    }

    #[test]
    fn kick_runs_parked_tasks_beside_a_busy_task() {
        assert!(
            parked_task_runs_beside_a_busy_task(3_600_000, TaskPool::kick),
            "a kicked task waited out a busy task"
        );
    }

    #[test]
    fn a_task_keeps_its_worker_while_it_has_work() {
        struct Tagged {
            tag: u8,
            left: u32,
            log: Arc<Mutex<Vec<u8>>>,
        }
        impl PollTask for Tagged {
            fn poll(&mut self) -> TaskPoll {
                self.log
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(self.tag);
                if self.left == 0 {
                    return TaskPoll::Done;
                }
                self.left -= 1;
                TaskPoll::Again
            }
        }
        let pool = TaskPool::start(1).expect("pool");
        let log = Arc::new(Mutex::new(Vec::new()));
        for tag in [0, 1] {
            pool.spawn(Box::new(Tagged {
                tag,
                left: 200,
                log: Arc::clone(&log),
            }));
        }
        wait_for(|| pool.stats().completed == 2, "both tasks to finish");
        pool.shutdown();
        let log = log.lock().unwrap_or_else(PoisonError::into_inner);
        let switches = log.windows(2).filter(|pair| pair[0] != pair[1]).count();
        assert_eq!(switches, 1, "each task runs its 201 polls in one stretch");
    }

    #[test]
    fn epoch_batches_fold_in_order_at_every_worker_count() {
        // Each batch appends (epoch, batch_id) at fold time; the fold
        // log must be identical — ascending batch order within each
        // ascending epoch — no matter how many workers claim the steps.
        let epochs = 7u64;
        let batches = 13usize;
        let reference: Vec<(u64, usize)> = (0..epochs)
            .flat_map(|e| (0..batches).map(move |b| (e, b)))
            .collect();
        for workers in [1usize, 2, 4, 16] {
            let log = Mutex::new(Vec::new());
            let steps = AtomicU64::new(0);
            let slots: Vec<usize> = (0..batches).collect();
            let out = run_epoch_batches(
                workers,
                epochs,
                slots,
                &|_b, _e| {
                    steps.fetch_add(1, Ordering::Relaxed);
                    true
                },
                &|e, b| {
                    log.lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((e, *b));
                },
                &|_e| {},
            );
            assert_eq!(out.len(), batches);
            assert_eq!(
                steps.load(Ordering::Relaxed),
                epochs * batches as u64,
                "every batch steps once per epoch at {workers} workers"
            );
            assert_eq!(
                *log.lock().unwrap_or_else(PoisonError::into_inner),
                reference,
                "fold order must be (epoch, batch) ascending at {workers} workers"
            );
        }
    }

    #[test]
    fn epoch_batches_abort_skips_the_failed_epochs_rollover() {
        // Batch 3 fails in epoch 2: the run stops once every batch has
        // stepped epoch 2, and epoch 2 is neither folded nor flushed
        // (partial epochs never reach the artifacts).
        let folded = Mutex::new(Vec::new());
        let flushed = Mutex::new(Vec::new());
        let slots: Vec<usize> = (0..5).collect();
        let epoch_of = Mutex::new(vec![0u64; 5]);
        run_epoch_batches(
            4,
            10,
            slots,
            &|b, _e| {
                let mut epochs = epoch_of.lock().unwrap_or_else(PoisonError::into_inner);
                let e = epochs[*b];
                epochs[*b] += 1;
                !(*b == 3 && e == 2)
            },
            &|e, _b| {
                folded
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(e);
            },
            &|e| {
                flushed
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(e);
            },
        );
        let folded = folded.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(
            folded.iter().all(|&e| e < 2),
            "aborted epoch must not fold: {folded:?}"
        );
        assert_eq!(
            *flushed.lock().unwrap_or_else(PoisonError::into_inner),
            vec![0, 1],
            "only complete epochs flush"
        );
    }

    #[test]
    fn epoch_batches_keep_input_order_with_more_batches_than_workers() {
        let out = run_epoch_batches(
            3,
            1,
            (0..23).collect::<Vec<usize>>(),
            &|x, _e| {
                *x *= 2;
                true
            },
            &|_e, _x| {},
            &|_e| {},
        );
        assert_eq!(out, (0..23).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn epoch_batches_on_one_worker_run_everything_on_the_caller() {
        let caller = std::thread::current().id();
        let out = run_epoch_batches(
            1,
            2,
            (0..7).collect::<Vec<u32>>(),
            &|x, _e| {
                assert_eq!(
                    std::thread::current().id(),
                    caller,
                    "one worker spawns nothing"
                );
                *x += 1;
                true
            },
            &|_e, _x| {},
            &|_e| {},
        );
        assert_eq!(out, (2..9).collect::<Vec<_>>());
    }

    #[test]
    fn epoch_batches_resume_the_steps_own_panic() {
        // At one worker the caller's own step panics, mid-run. Above one,
        // the panic is forced onto a helper: the caller's step waits
        // until a helper has claimed a batch, and every helper step
        // panics. Either way the caller sees the step's message, not the
        // scope's generic one.
        let caller = std::thread::current().id();
        for workers in [1usize, 2, 4] {
            let helper_claimed = AtomicBool::new(false);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                run_epoch_batches(
                    workers,
                    3,
                    (0..5).collect::<Vec<u32>>(),
                    &|_x, e| {
                        if std::thread::current().id() != caller {
                            helper_claimed.store(true, Ordering::Release);
                            panic!("boom");
                        }
                        assert!(workers > 1 || e < 1, "boom");
                        while !helper_claimed.load(Ordering::Acquire) && workers > 1 {
                            std::thread::yield_now();
                        }
                        true
                    },
                    &|_e, _x| {},
                    &|_e| {},
                )
            }));
            let Err(payload) = caught else {
                panic!("the step's panic must reach the caller at {workers} workers");
            };
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned());
            assert_eq!(
                message.as_deref(),
                Some("boom"),
                "the caller sees the step's own message at {workers} workers"
            );
        }
    }

    #[test]
    fn epoch_batches_handle_more_workers_than_batches() {
        let slots: Vec<u64> = vec![0, 0];
        let out = run_epoch_batches(
            16,
            3,
            slots,
            &|b, _e| {
                *b += 1;
                true
            },
            &|_e, _b| {},
            &|_e| {},
        );
        assert_eq!(out, vec![3, 3]);
    }
}
