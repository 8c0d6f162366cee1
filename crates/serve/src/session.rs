//! One rack session: an epoch-ticking control loop with panic
//! isolation, deterministic restart-and-replay recovery, and a
//! progress heartbeat.
//!
//! A session is a [`SessionTask`] — a poll-able state machine scheduled
//! onto the supervisor's bounded work-stealing pool
//! ([`greenhetero_sim::sched::TaskPool`]), one epoch step (or one
//! waiting quantum) per poll, so thousands of sessions share ~cores
//! worker threads instead of owning one OS thread each. Everything the
//! rest of the daemon needs to observe lives in [`SessionShared`]
//! (atomics plus a decisions log behind a mutex), so supervision never
//! blocks on a stepping session.
//!
//! **Crash recovery.** Each epoch step runs under
//! [`std::panic::catch_unwind`]. On a panic the stepper is discarded
//! wholesale (its internals may be mid-update), the session backs off
//! `base · 2^(n-1)` ms (capped), and a fresh stepper is rebuilt from
//! the spec and silently re-stepped to the decision cursor. Stepping is
//! deterministic, so the replayed state — and therefore every decision
//! emitted after recovery — is bit-identical to an undisturbed run.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use greenhetero_core::database::PerfDatabase;
use greenhetero_core::error::CoreError;
use greenhetero_core::solver::SharedSolveCache;
use greenhetero_core::telemetry::{names, JsonObject, Telemetry};
use greenhetero_power::solar::synthesize_shared;
use greenhetero_server::rack::Rack;
use greenhetero_sim::engine::{Simulation, Stepper};
use greenhetero_sim::sched::{PollTask, TaskPoll};

use crate::spec::{decision_line, SessionSpec};
use crate::ServeClock;

/// Sleep-chunk granularity for interruptible waits, in milliseconds.
const WAIT_CHUNK_MS: u64 = 10;

/// A session's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Admitted; its task has not built its stepper yet.
    Pending,
    /// The control loop is stepping (or backing off between restarts).
    Running,
    /// Every epoch in the horizon was stepped.
    Finished,
    /// The restart budget was exhausted (or rebuilding failed); the
    /// session is parked with its decisions intact.
    Quarantined,
    /// The heartbeat watchdog declared the session stale.
    Evicted,
    /// The graceful-drain protocol stopped the session mid-run.
    Drained,
}

impl SessionState {
    /// The wire name of this state.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SessionState::Pending => "pending",
            SessionState::Running => "running",
            SessionState::Finished => "finished",
            SessionState::Quarantined => "quarantined",
            SessionState::Evicted => "evicted",
            SessionState::Drained => "drained",
        }
    }

    /// `true` once the session can make no further progress.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        !matches!(self, SessionState::Pending | SessionState::Running)
    }

    fn from_u8(raw: u8) -> SessionState {
        match raw {
            1 => SessionState::Running,
            2 => SessionState::Finished,
            3 => SessionState::Quarantined,
            4 => SessionState::Evicted,
            5 => SessionState::Drained,
            _ => SessionState::Pending,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            SessionState::Pending => 0,
            SessionState::Running => 1,
            SessionState::Finished => 2,
            SessionState::Quarantined => 3,
            SessionState::Evicted => 4,
            SessionState::Drained => 5,
        }
    }
}

/// The supervisor- and connection-visible face of one session.
#[derive(Debug)]
pub(crate) struct SessionShared {
    /// The session's unique name.
    pub(crate) name: String,
    /// Epoch horizon (set once the session's task builds its stepper).
    pub(crate) epochs_total: AtomicU64,
    /// Stale-heartbeat eviction threshold for this session, ms.
    pub(crate) heartbeat_timeout_ms: u64,
    state: AtomicU8,
    cursor: AtomicU64,
    restarts: AtomicU32,
    degraded_epochs: AtomicU64,
    heartbeat_ms: AtomicU64,
    /// The liveness flag: `true` tells the session's task to finish at
    /// its next poll (graceful drain / eviction).
    pub(crate) stop: AtomicBool,
    last_error: Mutex<Option<String>>,
    decisions: Mutex<Vec<String>>,
}

impl SessionShared {
    pub(crate) fn new(name: &str, heartbeat_timeout_ms: u64, now_ms: u64) -> Self {
        SessionShared {
            name: name.to_string(),
            epochs_total: AtomicU64::new(0),
            heartbeat_timeout_ms,
            state: AtomicU8::new(SessionState::Pending.as_u8()),
            cursor: AtomicU64::new(0),
            restarts: AtomicU32::new(0),
            degraded_epochs: AtomicU64::new(0),
            heartbeat_ms: AtomicU64::new(now_ms),
            stop: AtomicBool::new(false),
            last_error: Mutex::new(None),
            decisions: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn state(&self) -> SessionState {
        SessionState::from_u8(self.state.load(Ordering::Acquire))
    }

    pub(crate) fn set_state(&self, next: SessionState) {
        self.state.store(next.as_u8(), Ordering::Release);
    }

    /// Transitions `from → to` atomically; `false` if the state moved on.
    pub(crate) fn transition(&self, from: SessionState, to: SessionState) -> bool {
        self.state
            .compare_exchange(
                from.as_u8(),
                to.as_u8(),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    pub(crate) fn cursor(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    pub(crate) fn restarts(&self) -> u32 {
        self.restarts.load(Ordering::Acquire)
    }

    pub(crate) fn degraded_epochs(&self) -> u64 {
        self.degraded_epochs.load(Ordering::Acquire)
    }

    pub(crate) fn heartbeat_ms(&self) -> u64 {
        self.heartbeat_ms.load(Ordering::Acquire)
    }

    pub(crate) fn beat(&self, now_ms: u64) {
        self.heartbeat_ms.store(now_ms, Ordering::Release);
    }

    pub(crate) fn last_error(&self) -> Option<String> {
        self.last_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn record_error(&self, error: String) {
        *self
            .last_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(error);
    }

    /// Copies out decision lines `[from, from + max)`; also returns the
    /// total emitted so far.
    pub(crate) fn decisions_from(&self, from: u64, max: u64) -> (Vec<String>, u64) {
        let log = self
            .decisions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let total = log.len() as u64;
        let start = from.min(total) as usize;
        let end = from.saturating_add(max).min(total) as usize;
        (log[start..end].to_vec(), total)
    }

    fn push_decision(&self, line: String, degraded: bool) {
        self.decisions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(line);
        self.cursor.fetch_add(1, Ordering::AcqRel);
        if degraded {
            self.degraded_epochs.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// The session's drain checkpoint: its decision cursor and
    /// supervision counters, frozen at collection time.
    pub(crate) fn checkpoint(&self) -> SessionCheckpoint {
        SessionCheckpoint {
            session: self.name.clone(),
            state: self.state().name(),
            cursor: self.cursor(),
            epochs_total: self.epochs_total.load(Ordering::Acquire),
            restarts: self.restarts(),
        }
    }
}

/// A session's position at drain time, flushed before the daemon exits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionCheckpoint {
    /// Session name.
    pub session: String,
    /// Terminal state name.
    pub state: &'static str,
    /// Decisions emitted (the epoch to resume from).
    pub cursor: u64,
    /// The session's full horizon.
    pub epochs_total: u64,
    /// Panic restarts consumed.
    pub restarts: u32,
}

impl SessionCheckpoint {
    /// Renders the checkpoint as one flat JSON line.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut o = JsonObject::new();
        o.str("session", &self.session)
            .str("state", self.state)
            .u64("cursor", self.cursor)
            .u64("epochs_total", self.epochs_total)
            .u64("restarts", u64::from(self.restarts));
        o.finish()
    }
}

/// The payload of a deliberately injected session panic (fault
/// injection for the supervision tests).
#[derive(Debug)]
struct InjectedPanic {
    #[allow(dead_code)] // carried for panic-hook visibility only
    epoch: u64,
}

/// Everything a session's task owns.
pub(crate) struct SessionRuntime {
    pub(crate) spec: SessionSpec,
    pub(crate) shared: Arc<SessionShared>,
    /// Manual-pacing ticks: one message, one epoch.
    pub(crate) tick_rx: Receiver<()>,
    /// The daemon's registry: supervision counters land here, never in
    /// the session's own (disabled) simulation telemetry.
    pub(crate) telemetry: Telemetry,
    pub(crate) clock: ServeClock,
    pub(crate) rack: Arc<Rack>,
    pub(crate) profile_base: Option<Arc<PerfDatabase>>,
    /// The substrate's shared solve cache: sessions on the same
    /// substrate key dedup bit-identical PAR solves across threads.
    pub(crate) solve_cache: Arc<SharedSolveCache>,
}

impl SessionRuntime {
    /// Builds a fresh stepper for this spec on the shared substrate.
    /// Crash-recovery replays rebuild through here too: shared-cache
    /// hits never change a controller's output, so a replay against a
    /// warmer (or colder) cache still reproduces the abandoned state
    /// bit for bit.
    fn build_stepper(&self) -> Result<Stepper, CoreError> {
        let scenario = self.spec.scenario()?;
        let (solar, _memo_hit) = synthesize_shared(&scenario.solar_config()?)?;
        let mut sim = Simulation::with_substrate(
            scenario,
            Arc::clone(&self.rack),
            solar,
            1.0,
            0,
            Telemetry::disabled(),
            self.profile_base.clone(),
        )?;
        sim.set_shared_solve_cache(Arc::clone(&self.solve_cache));
        Ok(Stepper::from_simulation(sim))
    }

    /// Rebuilds after a panic and silently replays to `cursor`.
    fn rebuild_to(&self, cursor: u64) -> Result<Stepper, CoreError> {
        let mut stepper = self.build_stepper()?;
        for _ in 0..cursor {
            self.shared.beat(self.clock.now_ms());
            if stepper.step()?.is_none() {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "replay exhausted the horizon before cursor {cursor}; spec and \
                         checkpoint disagree"
                    ),
                });
            }
        }
        Ok(stepper)
    }

    fn quarantine(&self, error: String) {
        self.shared.record_error(error);
        self.shared.set_state(SessionState::Quarantined);
        self.telemetry
            .registry()
            .counter(names::SESSION_QUARANTINED)
            .inc();
    }

    /// The deterministic exponential backoff before restart `n` (1-based).
    fn backoff_ms(&self, restart: u32) -> u64 {
        let base = self.spec.controller.serve_backoff_base_ms;
        let cap = self.spec.controller.serve_backoff_cap_ms;
        let doublings = restart.saturating_sub(1).min(32);
        base.saturating_mul(1u64 << doublings).min(cap)
    }

    /// Drives the session's poll task to completion on the calling
    /// thread — the blocking form the unit tests use to exercise the
    /// state machine in isolation; the daemon schedules the same
    /// [`SessionTask`] on its bounded pool instead.
    #[cfg(test)]
    pub(crate) fn run(self) {
        let mut task = SessionTask::new(self);
        loop {
            match task.poll() {
                TaskPoll::Done => return,
                TaskPoll::After(ms) => {
                    std::thread::sleep(Duration::from_millis(ms.min(WAIT_CHUNK_MS)));
                }
                TaskPoll::Again => {}
            }
        }
    }
}

/// A crash backoff in progress: the cursor to replay to once the
/// deadline passes.
#[derive(Debug, Clone, Copy)]
struct Backoff {
    until_ms: u64,
    cursor: u64,
}

/// The session control loop as a poll-able state machine for the
/// supervisor's bounded [`TaskPool`](greenhetero_sim::sched::TaskPool).
///
/// Each poll performs at most one of: build the stepper (first poll),
/// wait out a pacing/backoff quantum (returning [`TaskPoll::After`] so
/// no worker thread blocks), or step one epoch under
/// [`std::panic::catch_unwind`]. Panics discard the stepper and
/// rebuild-and-replay deterministically after an exponential backoff,
/// an exhausted restart budget quarantines, waiting manual sessions do
/// not beat their heartbeat (so the watchdog can evict silent clients),
/// and the stop flag is honoured at every poll entry, the first one
/// included.
pub(crate) struct SessionTask {
    rt: SessionRuntime,
    stepper: Option<Stepper>,
    fired: BTreeSet<u64>,
    stalled: bool,
    started: bool,
    backoff: Option<Backoff>,
    pace_until: Option<u64>,
}

impl SessionTask {
    pub(crate) fn new(rt: SessionRuntime) -> Self {
        SessionTask {
            rt,
            stepper: None,
            fired: BTreeSet::new(),
            stalled: false,
            started: false,
            backoff: None,
            pace_until: None,
        }
    }

    /// Terminal stop transition: eviction already stamped its state; a
    /// drain stop lands here still Running, or Pending when it came
    /// before the first poll.
    fn drained(&self) -> TaskPoll {
        self.rt
            .shared
            .transition(SessionState::Running, SessionState::Drained);
        self.rt
            .shared
            .transition(SessionState::Pending, SessionState::Drained);
        TaskPoll::Done
    }
}

impl PollTask for SessionTask {
    fn poll(&mut self) -> TaskPoll {
        if self.rt.shared.stop.load(Ordering::Acquire) {
            return self.drained();
        }
        if !self.started {
            self.started = true;
            match self.rt.build_stepper() {
                Ok(stepper) => {
                    self.rt
                        .shared
                        .epochs_total
                        .store(stepper.epochs_total(), Ordering::Release);
                    self.rt
                        .shared
                        .transition(SessionState::Pending, SessionState::Running);
                    self.rt.shared.beat(self.rt.clock.now_ms());
                    self.stepper = Some(stepper);
                }
                Err(e) => {
                    self.rt.quarantine(format!("session build failed: {e}"));
                    return TaskPoll::Done;
                }
            }
        }

        // A backoff in progress waits in heartbeat-beating quanta, then
        // rebuilds and silently replays to the abandoned cursor.
        if let Some(backoff) = self.backoff {
            let now = self.rt.clock.now_ms();
            if now < backoff.until_ms {
                self.rt.shared.beat(now);
                return TaskPoll::After((backoff.until_ms - now).min(WAIT_CHUNK_MS));
            }
            self.backoff = None;
            self.rt.shared.beat(now);
            match self.rt.rebuild_to(backoff.cursor) {
                Ok(rebuilt) => self.stepper = Some(rebuilt),
                Err(e) => {
                    self.rt.quarantine(format!("restart rebuild failed: {e}"));
                    return TaskPoll::Done;
                }
            }
            return TaskPoll::Again;
        }

        let Some(stepper) = self.stepper.as_mut() else {
            // Unreachable by construction (stepper exists outside
            // backoff); quarantine rather than poison the pool.
            self.rt.quarantine("session lost its stepper".into());
            return TaskPoll::Done;
        };
        let cursor = stepper.cursor();

        if self.rt.spec.manual {
            // Manual pacing: one epoch per tick; ticks are the
            // heartbeat, so a silent client eventually trips the
            // watchdog (waiting here deliberately does NOT beat).
            match self.rt.tick_rx.try_recv() {
                Ok(()) => {}
                Err(TryRecvError::Empty) => return TaskPoll::After(WAIT_CHUNK_MS * 5),
                Err(TryRecvError::Disconnected) => return self.drained(),
            }
        } else if self.rt.spec.pace_ms > 0 {
            // Free-running pace: wait out the interval in beating
            // quanta before each step, like the old paced sleep.
            let now = self.rt.clock.now_ms();
            match self.pace_until {
                None => {
                    self.pace_until = Some(now.saturating_add(self.rt.spec.pace_ms));
                    self.rt.shared.beat(now);
                    return TaskPoll::After(self.rt.spec.pace_ms.min(WAIT_CHUNK_MS));
                }
                Some(until) if now < until => {
                    self.rt.shared.beat(now);
                    return TaskPoll::After((until - now).min(WAIT_CHUNK_MS));
                }
                Some(_) => {
                    self.pace_until = None;
                    self.rt.shared.beat(now);
                }
            }
        }

        // Injected stall: block the worker without heartbeating, exactly
        // once, so the watchdog's eviction path can be tested end to
        // end (a genuinely wedged step blocks a pool worker the same
        // way; the other workers keep stealing).
        if self.rt.spec.stall_epoch == Some(cursor) && !self.stalled {
            self.stalled = true;
            std::thread::sleep(Duration::from_millis(self.rt.spec.stall_ms));
            return TaskPoll::Again;
        }

        let panic_due = self.rt.spec.panic_epochs.contains(&cursor);
        let fired = &mut self.fired;
        let step = catch_unwind(AssertUnwindSafe(|| {
            if panic_due && fired.insert(cursor) {
                std::panic::panic_any(InjectedPanic { epoch: cursor });
            }
            stepper
                .step()
                .map(|record| record.map(|r| (decision_line(r), r.degraded)))
        }));

        match step {
            Err(_panic) => {
                // The stepper may be mid-update: discard it wholesale.
                self.stepper = None;
                let restart = self.rt.shared.restarts.fetch_add(1, Ordering::AcqRel) + 1;
                self.rt
                    .telemetry
                    .registry()
                    .counter(names::SESSION_RESTARTS)
                    .inc();
                if restart > self.rt.spec.controller.serve_restart_budget {
                    self.rt.quarantine(format!(
                        "panicked at epoch {cursor}; restart budget {} exhausted",
                        self.rt.spec.controller.serve_restart_budget
                    ));
                    return TaskPoll::Done;
                }
                let now = self.rt.clock.now_ms();
                let wait = self.rt.backoff_ms(restart);
                self.backoff = Some(Backoff {
                    until_ms: now.saturating_add(wait),
                    cursor,
                });
                self.rt.shared.beat(now);
                TaskPoll::After(wait.min(WAIT_CHUNK_MS))
            }
            Ok(Err(e)) => {
                self.rt
                    .quarantine(format!("controller error at epoch {cursor}: {e}"));
                TaskPoll::Done
            }
            Ok(Ok(None)) => {
                self.rt.shared.set_state(SessionState::Finished);
                self.rt
                    .telemetry
                    .registry()
                    .counter(names::SESSION_COMPLETED)
                    .inc();
                TaskPoll::Done
            }
            Ok(Ok(Some((line, degraded)))) => {
                self.rt.shared.push_decision(line, degraded);
                self.rt.shared.beat(self.rt.clock.now_ms());
                TaskPoll::Again
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    fn runtime(spec: SessionSpec) -> (SessionRuntime, Arc<SessionShared>) {
        let clock = ServeClock::new();
        let shared = Arc::new(SessionShared::new(
            &spec.name,
            spec.controller.serve_heartbeat_timeout_ms,
            clock.now_ms(),
        ));
        let (_tx, tick_rx) = sync_channel(4);
        let rack = Arc::new(
            spec.scenario()
                .expect("valid scenario")
                .build_rack()
                .expect("rack builds"),
        );
        let rt = SessionRuntime {
            spec,
            shared: Arc::clone(&shared),
            tick_rx,
            telemetry: Telemetry::disabled(),
            clock,
            rack,
            profile_base: None,
            solve_cache: Arc::new(SharedSolveCache::new(
                greenhetero_core::solver::DEFAULT_SHARED_SOLVE_CAPACITY,
            )),
        };
        (rt, shared)
    }

    #[test]
    fn session_runs_to_completion_and_matches_batch_oracle() {
        let spec = SessionSpec::named("clean");
        let batch = greenhetero_sim::engine::run_scenario(spec.scenario().expect("valid"))
            .expect("batch runs");
        let (rt, shared) = runtime(spec);
        rt.run();
        assert_eq!(shared.state(), SessionState::Finished);
        assert_eq!(shared.cursor(), 96);
        assert_eq!(shared.restarts(), 0);
        let (lines, total) = shared.decisions_from(0, u64::MAX);
        assert_eq!(total, 96);
        let oracle: Vec<String> = batch.epochs.iter().map(decision_line).collect();
        assert_eq!(lines, oracle, "decision stream must equal the batch run");
    }

    #[test]
    fn injected_panics_restart_and_replay_bit_identically() {
        let mut spec = SessionSpec::named("crashy");
        spec.panic_epochs = vec![0, 13, 40];
        spec.controller.serve_restart_budget = 5;
        spec.controller.serve_backoff_base_ms = 1;
        spec.controller.serve_backoff_cap_ms = 2;
        let batch = greenhetero_sim::engine::run_scenario(spec.scenario().expect("valid"))
            .expect("batch runs");
        let (rt, shared) = runtime(spec);
        rt.run();
        assert_eq!(shared.state(), SessionState::Finished);
        assert_eq!(shared.restarts(), 3, "one restart per injected panic");
        let (lines, _) = shared.decisions_from(0, u64::MAX);
        let oracle: Vec<String> = batch.epochs.iter().map(decision_line).collect();
        assert_eq!(
            lines, oracle,
            "restart-and-replay must reproduce the undisturbed stream"
        );
    }

    #[test]
    fn exhausted_restart_budget_quarantines() {
        let mut spec = SessionSpec::named("doomed");
        spec.panic_epochs = vec![0, 1, 2, 3];
        spec.controller.serve_restart_budget = 2;
        spec.controller.serve_backoff_base_ms = 1;
        spec.controller.serve_backoff_cap_ms = 1;
        let (rt, shared) = runtime(spec);
        rt.run();
        assert_eq!(shared.state(), SessionState::Quarantined);
        assert_eq!(
            shared.restarts(),
            3,
            "two restarts spent, third panic fatal"
        );
        let err = shared.last_error().expect("quarantine reason recorded");
        assert!(err.contains("budget"), "reason names the budget: {err}");
        // Decisions up to the fatal epoch survive quarantine.
        let (lines, total) = shared.decisions_from(0, u64::MAX);
        assert_eq!(total, 2);
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn stop_flag_drains_a_running_session() {
        let mut spec = SessionSpec::named("slow");
        spec.pace_ms = 20;
        let (rt, shared) = runtime(spec);
        let stopper = Arc::clone(&shared);
        let handle = std::thread::spawn(move || rt.run());
        // Let it emit at least one decision, then drain.
        while stopper.cursor() == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        stopper.stop.store(true, Ordering::Release);
        handle.join().expect("session thread joins");
        assert_eq!(shared.state(), SessionState::Drained);
        let checkpoint = shared.checkpoint();
        assert!(checkpoint.cursor >= 1);
        assert_eq!(checkpoint.state, "drained");
        assert!(checkpoint.to_json_line().contains("\"session\":\"slow\""));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut spec = SessionSpec::named("b");
        spec.controller.serve_backoff_base_ms = 10;
        spec.controller.serve_backoff_cap_ms = 50;
        let (rt, _shared) = runtime(spec);
        assert_eq!(rt.backoff_ms(1), 10);
        assert_eq!(rt.backoff_ms(2), 20);
        assert_eq!(rt.backoff_ms(3), 40);
        assert_eq!(rt.backoff_ms(4), 50, "capped");
        assert_eq!(rt.backoff_ms(60), 50, "doubling saturates, never wraps");
    }
}
