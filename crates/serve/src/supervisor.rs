//! The session supervisor: admission, a substrate cache, the heartbeat
//! watchdog, and the graceful-drain protocol.
//!
//! The supervision tree (DESIGN.md §13, §15):
//!
//! ```text
//! Daemon
//! ├── accept thread        (TCP; never blocks on sessions)
//! ├── watchdog thread      (evicts heartbeat-stale sessions)
//! └── session pool         (~cores workers hosting every session as
//!                           a poll task; work-stealing, bounded)
//! ```
//!
//! Sessions are not threads: each one is a
//! [`SessionTask`](crate::session) polled by the supervisor's bounded
//! [`TaskPool`], so thousands of sessions fit on roughly
//! `available_parallelism` worker threads (the `worker_threads` knob
//! overrides the auto sizing). [`Supervisor::submit`] admits a session
//! in one call on the caller's thread: it resolves the shared substrate
//! and hands the session's task to the pool, or refuses with a reason
//! (the telemetry counter [`names::SERVE_REJECTED`] tracks every
//! refusal). Drain raises `draining` and every stop flag,
//! [`kick`](TaskPool::kick)s the pool so parked sessions observe the
//! flags immediately, waits for every session to reach a terminal state
//! against a deadline, and flushes one [`SessionCheckpoint`] per session
//! before the map is cleared.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use greenhetero_core::database::PerfDatabase;
use greenhetero_core::error::CoreError;
use greenhetero_core::solver::{SharedSolveCache, SharedSolveStats, DEFAULT_SHARED_SOLVE_CAPACITY};
use greenhetero_core::telemetry::{names, Telemetry};
use greenhetero_server::rack::Rack;
use greenhetero_sim::fleet::pretrain_database;
use greenhetero_sim::sched::{TaskPool, TaskPoolStats};

use crate::session::{SessionRuntime, SessionShared, SessionTask};
use crate::spec::SessionSpec;
use crate::{ServeClock, ServeConfig, SessionCheckpoint, SessionState};

/// A rejected request: a machine-readable tag plus a human-readable
/// message, rendered onto the wire as `reason`/`error`.
pub type Rejection = (&'static str, String);

/// One session's supervision handle.
struct SessionHandle {
    shared: Arc<SessionShared>,
    tick_tx: SyncSender<()>,
}

/// What [`Supervisor::substrate_for`] hands a new session: the shared
/// rack model, the optional pretrained profile base, and the
/// substrate's shared solve cache.
type SubstrateParts = (Arc<Rack>, Option<Arc<PerfDatabase>>, Arc<SharedSolveCache>);

/// Cached per-substrate-key shared state: one rack model, one shared
/// solve cache (sessions on the same substrate dedup identical PAR
/// solves), plus the pretrained profile database once a `pretrain`
/// session asked for it.
struct SubstrateEntry {
    rack: Arc<Rack>,
    pretrained: Option<Arc<PerfDatabase>>,
    solve_cache: Arc<SharedSolveCache>,
}

/// Point-in-time status of one session.
#[derive(Debug, Clone)]
pub struct SessionStatus {
    /// Session name.
    pub session: String,
    /// Wire name of the current state.
    pub state: &'static str,
    /// Decisions emitted so far.
    pub cursor: u64,
    /// The session's epoch horizon (0 until its stepper is built).
    pub epochs_total: u64,
    /// Panic restarts consumed.
    pub restarts: u32,
    /// Epochs that ran in a degraded mode.
    pub degraded_epochs: u64,
    /// The most recent quarantine/build error, if any.
    pub last_error: Option<String>,
}

/// A point-in-time snapshot of the whole supervisor.
#[derive(Debug, Clone, Default)]
pub struct StatusSnapshot {
    /// Admitted sessions whose task has not built its stepper yet.
    pub pending: u64,
    /// Sessions actively stepping.
    pub running: u64,
    /// Sessions that completed their horizon.
    pub finished: u64,
    /// Sessions parked after exhausting their restart budget.
    pub quarantined: u64,
    /// Sessions evicted by the watchdog.
    pub evicted: u64,
    /// Sessions stopped by a drain.
    pub drained: u64,
    /// Panic restarts summed over hosted sessions.
    pub restarts_total: u64,
    /// Per-session detail, in name order.
    pub sessions: Vec<SessionStatus>,
}

impl StatusSnapshot {
    /// Sessions that can still make progress.
    #[must_use]
    pub fn active(&self) -> u64 {
        self.pending + self.running
    }

    /// All hosted sessions.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.sessions.len() as u64
    }
}

/// The outcome of a graceful drain.
#[derive(Debug, Clone, Default)]
pub struct DrainReport {
    /// One checkpoint per hosted session, flushed in name order.
    pub checkpoints: Vec<SessionCheckpoint>,
    /// Sessions that reached a terminal state within the deadline.
    pub joined: usize,
    /// Sessions still non-terminal when the deadline expired.
    pub leaked: usize,
    /// `true` when every session settled before the deadline.
    pub within_deadline: bool,
    /// Wall time the drain took, ms.
    pub elapsed_ms: u64,
    /// Failure writing the checkpoint file, if one was configured.
    pub checkpoint_write_error: Option<String>,
}

/// Hosts and supervises rack sessions. Constructed by
/// [`Daemon::start`](crate::Daemon::start); connections reach it
/// through the daemon's command dispatch.
pub struct Supervisor {
    cfg: ServeConfig,
    telemetry: Telemetry,
    clock: ServeClock,
    live: Arc<AtomicBool>,
    pool: TaskPool,
    sessions: Mutex<BTreeMap<String, SessionHandle>>,
    substrates: Mutex<BTreeMap<String, SubstrateEntry>>,
    draining: AtomicBool,
    drain_report: Mutex<Option<DrainReport>>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("draining", &self.draining.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    /// Builds the supervisor, starts its bounded session pool, and
    /// starts its watchdog thread; the caller joins the returned handle
    /// at shutdown (the pool joins itself on drop).
    ///
    /// # Errors
    ///
    /// Fails when a pool worker thread cannot be spawned.
    pub(crate) fn start(
        cfg: ServeConfig,
        telemetry: Telemetry,
        clock: ServeClock,
        live: Arc<AtomicBool>,
    ) -> Result<(Arc<Supervisor>, JoinHandle<()>), CoreError> {
        let pool = TaskPool::start(cfg.worker_threads)?;
        let supervisor = Arc::new(Supervisor {
            cfg,
            telemetry,
            clock,
            live,
            pool,
            sessions: Mutex::new(BTreeMap::new()),
            substrates: Mutex::new(BTreeMap::new()),
            draining: AtomicBool::new(false),
            drain_report: Mutex::new(None),
        });
        let watchdog = {
            let sup = Arc::clone(&supervisor);
            std::thread::spawn(move || sup.watchdog_loop())
        };
        Ok((supervisor, watchdog))
    }

    /// Activity counters of the bounded session pool, for the daemon's
    /// Prometheus dump.
    #[must_use]
    pub fn pool_stats(&self) -> TaskPoolStats {
        self.pool.stats()
    }

    fn reject(&self, tag: &'static str, message: String) -> Rejection {
        self.telemetry
            .registry()
            .counter(names::SERVE_REJECTED)
            .inc();
        (tag, message)
    }

    /// Admits a new session and hands its task to the pool. Returns its
    /// epoch horizon on success.
    ///
    /// The `draining` check, the insert and the spawn happen under the
    /// sessions lock, which drain takes after raising `draining`, so a
    /// session is either refused here or seen by drain's stop loop.
    ///
    /// # Errors
    ///
    /// Rejects (with a wire reason) invalid specs and substrates,
    /// duplicate names, a full host, and a draining daemon.
    pub fn submit(&self, spec: SessionSpec) -> Result<u64, Rejection> {
        let epochs_total = spec
            .epochs_total()
            .map_err(|e| self.reject("invalid_spec", e.to_string()))?;
        let (rack, profile_base, solve_cache) = self
            .substrate_for(&spec)
            .map_err(|e| self.reject("invalid_spec", format!("substrate build failed: {e}")))?;
        let shared = Arc::new(SessionShared::new(
            &spec.name,
            spec.controller.serve_heartbeat_timeout_ms,
            self.clock.now_ms(),
        ));
        let (tick_tx, tick_rx) = sync_channel(self.cfg.tick_queue_depth.max(1));
        let mut sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        if self.draining.load(Ordering::Acquire) {
            return Err(self.reject("draining", "daemon is draining".into()));
        }
        if sessions.contains_key(&spec.name) {
            return Err(self.reject(
                "duplicate",
                format!("session {:?} already exists", spec.name),
            ));
        }
        let active = sessions
            .values()
            .filter(|h| !h.shared.state().is_terminal())
            .count();
        if active >= self.cfg.max_sessions {
            return Err(self.reject(
                "capacity",
                format!(
                    "{active} active sessions at the cap of {}",
                    self.cfg.max_sessions
                ),
            ));
        }
        sessions.insert(
            spec.name.clone(),
            SessionHandle {
                shared: Arc::clone(&shared),
                tick_tx,
            },
        );
        self.pool.spawn(Box::new(SessionTask::new(SessionRuntime {
            spec,
            shared,
            tick_rx,
            telemetry: self.telemetry.clone(),
            clock: self.clock.clone(),
            rack,
            profile_base,
            solve_cache,
        })));
        Ok(epochs_total)
    }

    /// Enqueues one manual-pacing tick (also the session's heartbeat).
    /// Returns the session's decision cursor at enqueue time.
    ///
    /// # Errors
    ///
    /// Rejects unknown or terminal sessions, and reports backpressure
    /// when the bounded tick queue is full.
    pub fn tick(&self, name: &str) -> Result<u64, Rejection> {
        let (tick_tx, shared) = {
            let sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
            let handle = sessions
                .get(name)
                .ok_or_else(|| ("unknown_session", format!("no session {name:?}")))?;
            (handle.tick_tx.clone(), Arc::clone(&handle.shared))
        };
        let state = shared.state();
        if state.is_terminal() {
            return Err(("terminal", format!("session {name:?} is {}", state.name())));
        }
        match tick_tx.try_send(()) {
            Ok(()) => Ok(shared.cursor()),
            Err(TrySendError::Full(_)) => Err(self.reject(
                "backpressure",
                format!("tick queue for {name:?} is full; retry"),
            )),
            Err(TrySendError::Disconnected(_)) => {
                Err(("terminal", format!("session {name:?} is gone")))
            }
        }
    }

    /// Copies out decision lines `[from, from+max)` for one session,
    /// plus (total emitted, horizon, state name).
    ///
    /// # Errors
    ///
    /// Rejects unknown sessions.
    pub fn decisions(
        &self,
        name: &str,
        from: u64,
        max: u64,
    ) -> Result<(Vec<String>, u64, u64, &'static str), Rejection> {
        let shared = {
            let sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
            let handle = sessions
                .get(name)
                .ok_or_else(|| ("unknown_session", format!("no session {name:?}")))?;
            Arc::clone(&handle.shared)
        };
        let (lines, total) = shared.decisions_from(from, max);
        Ok((
            lines,
            total,
            shared.epochs_total.load(Ordering::Acquire),
            shared.state().name(),
        ))
    }

    /// Point-in-time status of one session.
    ///
    /// # Errors
    ///
    /// Rejects unknown sessions.
    pub fn session_status(&self, name: &str) -> Result<SessionStatus, Rejection> {
        let sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        let handle = sessions
            .get(name)
            .ok_or_else(|| ("unknown_session", format!("no session {name:?}")))?;
        Ok(status_of(&handle.shared))
    }

    /// Point-in-time status of every hosted session.
    #[must_use]
    pub fn status(&self) -> StatusSnapshot {
        let sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        let mut snap = StatusSnapshot::default();
        for handle in sessions.values() {
            let status = status_of(&handle.shared);
            match handle.shared.state() {
                SessionState::Pending => snap.pending += 1,
                SessionState::Running => snap.running += 1,
                SessionState::Finished => snap.finished += 1,
                SessionState::Quarantined => snap.quarantined += 1,
                SessionState::Evicted => snap.evicted += 1,
                SessionState::Drained => snap.drained += 1,
            }
            snap.restarts_total += u64::from(status.restarts);
            snap.sessions.push(status);
        }
        snap
    }

    /// Resolves (building and caching on first use) the shared
    /// substrate for a spec: one rack model and one shared solve cache
    /// per substrate key, plus the shared pretrained profile database
    /// when requested. Sessions sharing a substrate key face the same
    /// rack model, so bit-identical allocation problems across them pay
    /// one cold solve; replay after a crash restart stays bit-identical
    /// because shared-cache hits never change a controller's output.
    fn substrate_for(&self, spec: &SessionSpec) -> Result<SubstrateParts, CoreError> {
        let key = spec.substrate_key();
        let mut cache = self
            .substrates
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if !cache.contains_key(&key) {
            let scenario = spec.scenario()?;
            let rack = Arc::new(scenario.build_rack()?);
            cache.insert(
                key.clone(),
                SubstrateEntry {
                    rack,
                    pretrained: None,
                    solve_cache: Arc::new(SharedSolveCache::new(DEFAULT_SHARED_SOLVE_CAPACITY)),
                },
            );
        }
        let entry = cache
            .get_mut(&key)
            .ok_or_else(|| CoreError::InvalidConfig {
                reason: "substrate cache entry vanished".into(),
            })?;
        let profile_base = if spec.pretrain {
            if entry.pretrained.is_none() {
                let scenario = spec.scenario()?;
                entry.pretrained = Some(Arc::new(pretrain_database(&entry.rack, &scenario)?));
            }
            entry.pretrained.clone()
        } else {
            None
        };
        Ok((
            Arc::clone(&entry.rack),
            profile_base,
            Arc::clone(&entry.solve_cache),
        ))
    }

    /// Shared-cache counter totals, solves and Holt trainings, summed
    /// over every cached substrate — the daemon's Prometheus dump renders
    /// these. Scheduling-dependent (which session pays a cold solve or
    /// training depends on arrival order), so they never feed any
    /// replayable artifact.
    #[must_use]
    pub fn shared_solve_stats(&self) -> SharedSolveStats {
        let cache = self
            .substrates
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut totals = SharedSolveStats::default();
        for entry in cache.values() {
            let s = entry.solve_cache.stats();
            totals.hits += s.hits;
            totals.misses += s.misses;
            totals.revalidation_misses += s.revalidation_misses;
            totals.insertions += s.insertions;
            totals.evictions += s.evictions;
            totals.training_hits += s.training_hits;
            totals.training_misses += s.training_misses;
        }
        totals
    }

    /// The watchdog: evicts Running sessions whose heartbeat is older
    /// than their timeout. Eviction stamps the state first (so the
    /// session's own exit keeps it), then raises stop, which the task
    /// observes at its next poll.
    fn watchdog_loop(&self) {
        while self.live.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(self.cfg.watchdog_tick_ms.max(1)));
            let now = self.clock.now_ms();
            let sessions = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
            for handle in sessions.values() {
                if handle.shared.state() != SessionState::Running {
                    continue;
                }
                let stale_ms = now.saturating_sub(handle.shared.heartbeat_ms());
                if stale_ms <= handle.shared.heartbeat_timeout_ms {
                    continue;
                }
                if handle
                    .shared
                    .transition(SessionState::Running, SessionState::Evicted)
                {
                    self.telemetry
                        .registry()
                        .counter(names::SESSION_EVICTED)
                        .inc();
                    handle.shared.stop.store(true, Ordering::Release);
                }
            }
        }
    }

    /// The graceful drain: refuse further submits, raise every
    /// session's stop flag, kick the pool so parked sessions observe the
    /// flags now, wait for every session to reach a terminal state
    /// against `deadline_ms`, flush one checkpoint per session, and
    /// clear the session map. Idempotent — a second call returns the
    /// stored report.
    pub fn drain(&self, deadline_ms: u64) -> DrainReport {
        if self.draining.swap(true, Ordering::AcqRel) {
            return self
                .drain_report
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
                .unwrap_or_default();
        }
        let started = self.clock.now_ms();
        for handle in self
            .sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            handle.shared.stop.store(true, Ordering::Release);
        }
        // Forfeit every parked task's backoff/pacing deadline so the
        // stop flags are observed immediately, not at the next wake.
        self.pool.kick();
        while self.outstanding() > 0 && self.clock.now_ms().saturating_sub(started) <= deadline_ms {
            std::thread::sleep(Duration::from_millis(5));
        }
        let (checkpoints, leaked) = self.flush_checkpoints();
        let elapsed_ms = self.clock.now_ms().saturating_sub(started);
        let report = DrainReport {
            checkpoint_write_error: self.write_checkpoints(&checkpoints),
            joined: checkpoints.len() - leaked,
            leaked,
            within_deadline: leaked == 0 && elapsed_ms <= deadline_ms,
            elapsed_ms,
            checkpoints,
        };
        *self
            .drain_report
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(report.clone());
        report
    }

    /// Hosted sessions not yet in a terminal state.
    fn outstanding(&self) -> usize {
        self.sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|h| !h.shared.state().is_terminal())
            .count()
    }

    /// Collects every session's checkpoint, counts the flushes, and
    /// clears the map (the post-drain `/status` must be empty). Returns
    /// the checkpoints and the number of sessions still non-terminal
    /// past the deadline: those leak (a task keeps its shared Arc alive
    /// until the pool drops it, but the daemon forgets it).
    fn flush_checkpoints(&self) -> (Vec<SessionCheckpoint>, usize) {
        let sessions =
            std::mem::take(&mut *self.sessions.lock().unwrap_or_else(PoisonError::into_inner));
        self.telemetry
            .registry()
            .counter(names::SERVE_DRAIN_CHECKPOINTS)
            .add(sessions.len() as u64);
        let leaked = sessions
            .values()
            .filter(|h| !h.shared.state().is_terminal())
            .count();
        let checkpoints = sessions.values().map(|h| h.shared.checkpoint()).collect();
        (checkpoints, leaked)
    }

    /// Writes the checkpoint JSONL file, when configured.
    fn write_checkpoints(&self, checkpoints: &[SessionCheckpoint]) -> Option<String> {
        let path = self.cfg.checkpoint_path.as_ref()?;
        let render = || -> std::io::Result<()> {
            let mut file = std::fs::File::create(path)?;
            for checkpoint in checkpoints {
                writeln!(file, "{}", checkpoint.to_json_line())?;
            }
            file.flush()
        };
        render().err().map(|e| format!("{}: {e}", path.display()))
    }
}

/// Builds the status row for one session.
fn status_of(shared: &SessionShared) -> SessionStatus {
    SessionStatus {
        session: shared.name.clone(),
        state: shared.state().name(),
        cursor: shared.cursor(),
        epochs_total: shared.epochs_total.load(Ordering::Acquire),
        restarts: shared.restarts(),
        degraded_epochs: shared.degraded_epochs(),
        last_error: shared.last_error(),
    }
}
