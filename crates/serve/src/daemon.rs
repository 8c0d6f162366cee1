//! The TCP daemon: a non-blocking accept loop, per-connection handler
//! threads, and the flat-JSON command dispatch.
//!
//! The accept loop never blocks on session work: each connection has
//! its own handler thread, a submit hands the session to the bounded
//! pool, and a tick to a full tick queue answers
//! `{"ok":false,"reason":"backpressure",...}` instead of stalling the
//! socket. A malformed frame bumps
//! [`names::SERVE_MALFORMED_FRAMES`] and closes *only* the offending
//! connection — every other session and connection is untouched.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use greenhetero_core::error::CoreError;
use greenhetero_core::telemetry::{names, EventLine, JsonObject, Telemetry};
use greenhetero_power::solar;

use crate::proto::{error_frame, read_frame, write_frame, FrameError};
use crate::spec::SessionSpec;
use crate::supervisor::{DrainReport, Supervisor};
use crate::ServeClock;

/// Daemon sizing, pacing, and timeout knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Daemon::local_addr`]).
    pub addr: String,
    /// Non-terminal sessions hosted at once.
    pub max_sessions: usize,
    /// Depth of each session's bounded tick channel.
    pub tick_queue_depth: usize,
    /// Concurrent client connections; excess connects are rejected.
    pub max_connections: usize,
    /// Upper bound on an incoming frame's payload, bytes.
    pub max_frame_len: usize,
    /// Per-read socket timeout, ms.
    pub read_timeout_ms: u64,
    /// Per-write socket timeout, ms.
    pub write_timeout_ms: u64,
    /// Idle time after which a silent connection is closed, ms.
    pub idle_timeout_ms: u64,
    /// Watchdog scan period, ms.
    pub watchdog_tick_ms: u64,
    /// Worker threads in the bounded session pool; 0 sizes the pool to
    /// `available_parallelism`. Every hosted session is a poll task on
    /// this pool — the daemon never spawns a thread per session.
    pub worker_threads: usize,
    /// Deadline for [`Daemon::drain`] to join every session, ms.
    pub drain_deadline_ms: u64,
    /// Where drain writes its checkpoint JSONL, when set.
    pub checkpoint_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            max_sessions: 64,
            tick_queue_depth: 8,
            max_connections: 32,
            max_frame_len: crate::proto::DEFAULT_MAX_FRAME_LEN,
            read_timeout_ms: 250,
            write_timeout_ms: 2_000,
            idle_timeout_ms: 30_000,
            watchdog_tick_ms: 50,
            worker_threads: 0,
            drain_deadline_ms: 10_000,
            checkpoint_path: None,
        }
    }
}

/// A running control-plane daemon. Dropping it raises the liveness
/// flag's complement (threads exit soon after) without joining; call
/// [`Daemon::drain`] for the graceful, checkpointing shutdown.
pub struct Daemon {
    cfg: ServeConfig,
    addr: SocketAddr,
    live: Arc<AtomicBool>,
    telemetry: Telemetry,
    supervisor: Arc<Supervisor>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("addr", &self.addr)
            .field("live", &self.live.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Binds the listener, starts the session pool, and starts the
    /// accept and watchdog threads.
    ///
    /// # Errors
    ///
    /// `CoreError::InvalidConfig` when the bind address is unusable.
    pub fn start(cfg: ServeConfig) -> Result<Daemon, CoreError> {
        let listener = TcpListener::bind(&cfg.addr).map_err(|e| CoreError::InvalidConfig {
            reason: format!("serve bind {} failed: {e}", cfg.addr),
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| CoreError::InvalidConfig {
                reason: format!("serve listener nonblocking failed: {e}"),
            })?;
        let addr = listener
            .local_addr()
            .map_err(|e| CoreError::InvalidConfig {
                reason: format!("serve local_addr failed: {e}"),
            })?;
        let live = Arc::new(AtomicBool::new(true));
        let telemetry = Telemetry::disabled();
        // Pre-register the serve counters so a fresh daemon's metrics
        // dump shows them at zero instead of omitting them.
        for name in [
            names::SESSION_RESTARTS,
            names::SESSION_QUARANTINED,
            names::SESSION_EVICTED,
            names::SESSION_COMPLETED,
            names::SERVE_REJECTED,
            names::SERVE_MALFORMED_FRAMES,
            names::SERVE_DRAIN_CHECKPOINTS,
        ] {
            let _ = telemetry.registry().counter(name);
        }
        let clock = ServeClock::new();
        let (supervisor, watchdog) =
            Supervisor::start(cfg.clone(), telemetry.clone(), clock, Arc::clone(&live))?;
        let accept = {
            let live = Arc::clone(&live);
            let supervisor = Arc::clone(&supervisor);
            let telemetry = telemetry.clone();
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("gh-serve-accept".into())
                .spawn(move || accept_loop(&listener, &cfg, &live, &supervisor, &telemetry))
                .map_err(|e| CoreError::InvalidConfig {
                    reason: format!("serve accept thread spawn failed: {e}"),
                })?
        };
        Ok(Daemon {
            cfg,
            addr,
            live,
            telemetry,
            supervisor,
            threads: Mutex::new(vec![watchdog, accept]),
        })
    }

    /// The bound address (with the real port when the config asked
    /// for port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's telemetry (supervision counters live here).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The session supervisor, for in-process callers and tests.
    #[must_use]
    pub fn supervisor(&self) -> &Arc<Supervisor> {
        &self.supervisor
    }

    /// Graceful shutdown: drains the supervisor (stop flags raised,
    /// sessions joined against the configured deadline, checkpoints
    /// flushed), lowers the liveness flag, and joins the daemon's own
    /// threads. Idempotent through the supervisor's stored report.
    pub fn drain(&self) -> DrainReport {
        let report = self.supervisor.drain(self.cfg.drain_deadline_ms);
        self.live.store(false, Ordering::Release);
        let threads =
            std::mem::take(&mut *self.threads.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in threads {
            let _ = handle.join();
        }
        report
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.live.store(false, Ordering::Release);
    }
}

/// The accept loop: non-blocking accept with a connection-count guard;
/// each accepted socket gets a detached handler thread.
fn accept_loop(
    listener: &TcpListener,
    cfg: &ServeConfig,
    live: &Arc<AtomicBool>,
    supervisor: &Arc<Supervisor>,
    telemetry: &Telemetry,
) {
    let conns = Arc::new(AtomicUsize::new(0));
    while live.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if conns.load(Ordering::Acquire) >= cfg.max_connections {
                    reject_connection(stream, cfg, telemetry);
                    continue;
                }
                conns.fetch_add(1, Ordering::AcqRel);
                let live = Arc::clone(live);
                let supervisor = Arc::clone(supervisor);
                let telemetry = telemetry.clone();
                let cfg = cfg.clone();
                let conns_in_handler = Arc::clone(&conns);
                let spawned = std::thread::Builder::new()
                    .name("gh-serve-conn".into())
                    .spawn(move || {
                        handle_connection(stream, &cfg, &live, &supervisor, &telemetry);
                        conns_in_handler.fetch_sub(1, Ordering::AcqRel);
                    });
                if spawned.is_err() {
                    conns.fetch_sub(1, Ordering::AcqRel);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Turns away a connection over the cap with a best-effort error frame.
fn reject_connection(mut stream: TcpStream, cfg: &ServeConfig, telemetry: &Telemetry) {
    telemetry.registry().counter(names::SERVE_REJECTED).inc();
    let _ = stream.set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms.max(1))));
    let _ = write_frame(
        &mut stream,
        &error_frame("capacity", "connection limit reached; retry"),
    );
}

/// One connection: read frames until close, idle timeout, or a
/// protocol violation. A malformed frame closes this connection only.
fn handle_connection(
    mut stream: TcpStream,
    cfg: &ServeConfig,
    live: &Arc<AtomicBool>,
    supervisor: &Arc<Supervisor>,
    telemetry: &Telemetry,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1))));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms.max(1))));
    let mut idle_ms = 0u64;
    while live.load(Ordering::Acquire) {
        match read_frame(&mut stream, cfg.max_frame_len) {
            Ok(frame) => {
                idle_ms = 0;
                match dispatch(&frame, &mut stream, cfg, live, supervisor, telemetry) {
                    Dispatch::KeepOpen => {}
                    Dispatch::Close => return,
                }
            }
            Err(FrameError::TimedOut) => {
                idle_ms = idle_ms.saturating_add(cfg.read_timeout_ms);
                if idle_ms >= cfg.idle_timeout_ms {
                    return;
                }
            }
            Err(FrameError::Malformed(reason)) => {
                telemetry
                    .registry()
                    .counter(names::SERVE_MALFORMED_FRAMES)
                    .inc();
                let _ = write_frame(&mut stream, &error_frame("malformed", &reason));
                return;
            }
            Err(FrameError::Closed | FrameError::Io(_)) => return,
        }
    }
}

/// What the handler should do with the connection after a command.
enum Dispatch {
    KeepOpen,
    Close,
}

/// Parses one request frame and answers it. Unknown commands get an
/// error frame but keep the connection; an unparseable frame counts as
/// malformed and closes it.
fn dispatch(
    frame: &str,
    stream: &mut TcpStream,
    cfg: &ServeConfig,
    live: &Arc<AtomicBool>,
    supervisor: &Arc<Supervisor>,
    telemetry: &Telemetry,
) -> Dispatch {
    let Some(line) = EventLine::parse(frame) else {
        telemetry
            .registry()
            .counter(names::SERVE_MALFORMED_FRAMES)
            .inc();
        let _ = write_frame(stream, &error_frame("malformed", "frame is not flat JSON"));
        return Dispatch::Close;
    };
    let Some(cmd) = line.text("cmd") else {
        let _ = write_frame(stream, &error_frame("bad_request", "missing \"cmd\" field"));
        return Dispatch::KeepOpen;
    };
    match cmd {
        "submit" => {
            let reply = match SessionSpec::from_line(&line) {
                Err(e) => error_frame("invalid_spec", &e),
                Ok(spec) => {
                    let name = spec.name.clone();
                    match supervisor.submit(spec) {
                        Ok(epochs_total) => {
                            let mut o = JsonObject::new();
                            o.bool("ok", true)
                                .str("session", &name)
                                .u64("epochs_total", epochs_total);
                            o.finish()
                        }
                        Err((reason, msg)) => error_frame(reason, &msg),
                    }
                }
            };
            let _ = write_frame(stream, &reply);
            Dispatch::KeepOpen
        }
        "tick" => {
            let reply = match line.text("session") {
                None => error_frame("bad_request", "tick needs a \"session\" field"),
                Some(name) => match supervisor.tick(name) {
                    Ok(cursor) => {
                        let mut o = JsonObject::new();
                        o.bool("ok", true)
                            .str("session", name)
                            .u64("cursor", cursor);
                        o.finish()
                    }
                    Err((reason, msg)) => error_frame(reason, &msg),
                },
            };
            let _ = write_frame(stream, &reply);
            Dispatch::KeepOpen
        }
        "decisions" => {
            let Some(name) = line.text("session") else {
                let _ = write_frame(
                    stream,
                    &error_frame("bad_request", "decisions needs a \"session\" field"),
                );
                return Dispatch::KeepOpen;
            };
            let from = line.num("from").map_or(0, |v| v.max(0.0) as u64);
            let max = line.num("max").map_or(u64::MAX, |v| v.max(0.0) as u64);
            match supervisor.decisions(name, from, max) {
                Err((reason, msg)) => {
                    let _ = write_frame(stream, &error_frame(reason, &msg));
                    Dispatch::KeepOpen
                }
                Ok((lines, total, epochs_total, state)) => {
                    let mut header = JsonObject::new();
                    header
                        .bool("ok", true)
                        .str("session", name)
                        .u64("count", lines.len() as u64)
                        .u64("from", from)
                        .u64("total", total)
                        .u64("epochs_total", epochs_total)
                        .str("state", state);
                    if write_frame(stream, &header.finish()).is_err() {
                        return Dispatch::Close;
                    }
                    for decision in &lines {
                        if write_frame(stream, decision).is_err() {
                            return Dispatch::Close;
                        }
                    }
                    Dispatch::KeepOpen
                }
            }
        }
        "status" => {
            let reply = match line.text("session") {
                Some(name) => match supervisor.session_status(name) {
                    Ok(status) => {
                        let mut o = JsonObject::new();
                        o.bool("ok", true)
                            .str("session", &status.session)
                            .str("state", status.state)
                            .u64("cursor", status.cursor)
                            .u64("epochs_total", status.epochs_total)
                            .u64("restarts", u64::from(status.restarts))
                            .u64("degraded_epochs", status.degraded_epochs);
                        match &status.last_error {
                            Some(err) => o.str("last_error", err),
                            None => o.null("last_error"),
                        };
                        o.finish()
                    }
                    Err((reason, msg)) => error_frame(reason, &msg),
                },
                None => daemon_status_frame(live, supervisor, telemetry),
            };
            let _ = write_frame(stream, &reply);
            Dispatch::KeepOpen
        }
        "metrics" => {
            let mut dump = telemetry.render_prometheus();
            let (hits, misses) = solar::cache_stats();
            dump.push_str(&format!(
                "# TYPE {hit} counter\n{hit} {hits}\n# TYPE {miss} counter\n{miss} {misses}\n",
                hit = names::SOLAR_CACHE_HIT,
                miss = names::SOLAR_CACHE_MISS,
            ));
            // Shared-cache counters are scheduling-dependent (which
            // session pays the cold solve or training depends on thread
            // interleaving), so they live here in the scrape rather than
            // in any per-run registry.
            let solve = supervisor.shared_solve_stats();
            dump.push_str(&format!(
                "# TYPE {hit} counter\n{hit} {h}\n\
                 # TYPE {miss} counter\n{miss} {m}\n\
                 # TYPE {reval} counter\n{reval} {r}\n\
                 # TYPE {evict} counter\n{evict} {e}\n\
                 # TYPE {train_hit} counter\n{train_hit} {th}\n\
                 # TYPE {train_miss} counter\n{train_miss} {tm}\n",
                hit = names::SHARED_SOLVE_HIT,
                miss = names::SHARED_SOLVE_MISS,
                reval = names::SHARED_SOLVE_REVALIDATION_MISS,
                evict = names::SHARED_SOLVE_EVICT,
                train_hit = names::SHARED_TRAINING_HIT,
                train_miss = names::SHARED_TRAINING_MISS,
                h = solve.hits,
                m = solve.misses,
                r = solve.revalidation_misses,
                e = solve.evictions,
                th = solve.training_hits,
                tm = solve.training_misses,
            ));
            // Pool counters depend on which worker polled what, and
            // when — scheduling-dependent like the shared-solve stats, so
            // they live only in the scrape.
            let pool = supervisor.pool_stats();
            dump.push_str(&format!(
                "# TYPE {workers} gauge\n{workers} {w}\n\
                 # TYPE {spawned} counter\n{spawned} {sp}\n\
                 # TYPE {completed} counter\n{completed} {c}\n\
                 # TYPE {polls} counter\n{polls} {p}\n",
                workers = names::POOL_WORKERS,
                spawned = names::POOL_TASKS_SPAWNED,
                completed = names::POOL_TASKS_COMPLETED,
                polls = names::POOL_POLLS,
                w = pool.workers,
                sp = pool.spawned,
                c = pool.completed,
                p = pool.polls,
            ));
            let mut o = JsonObject::new();
            o.bool("ok", true).str("metrics", &dump);
            let _ = write_frame(stream, &o.finish());
            Dispatch::KeepOpen
        }
        "drain" => {
            let report = supervisor.drain(cfg.drain_deadline_ms);
            live.store(false, Ordering::Release);
            let mut o = JsonObject::new();
            o.bool("ok", true)
                .u64("checkpoints", report.checkpoints.len() as u64)
                .u64("joined", report.joined as u64)
                .u64("leaked", report.leaked as u64)
                .bool("within_deadline", report.within_deadline)
                .u64("elapsed_ms", report.elapsed_ms);
            let _ = write_frame(stream, &o.finish());
            let _ = stream.flush();
            Dispatch::Close
        }
        other => {
            let _ = write_frame(
                stream,
                &error_frame("unknown_cmd", &format!("unknown cmd {other:?}")),
            );
            Dispatch::KeepOpen
        }
    }
}

/// The daemon-level `/status` frame: liveness, per-state session
/// counts, supervision counters, and the process-global solar memo
/// stats (satellite: solar cache observability).
fn daemon_status_frame(
    live: &Arc<AtomicBool>,
    supervisor: &Arc<Supervisor>,
    telemetry: &Telemetry,
) -> String {
    let snap = supervisor.status();
    let registry = telemetry.registry();
    let (hits, misses) = solar::cache_stats();
    let names_joined = snap
        .sessions
        .iter()
        .map(|s| s.session.as_str())
        .collect::<Vec<_>>()
        .join(",");
    let mut o = JsonObject::new();
    o.bool("ok", true)
        .bool("live", live.load(Ordering::Acquire))
        .u64("sessions", snap.total())
        .u64("pending", snap.pending)
        .u64("running", snap.running)
        .u64("finished", snap.finished)
        .u64("quarantined", snap.quarantined)
        .u64("evicted", snap.evicted)
        .u64("drained", snap.drained)
        .u64("restarts_total", snap.restarts_total)
        .u64(
            "rejected_total",
            registry.counter(names::SERVE_REJECTED).get(),
        )
        .u64(
            "malformed_total",
            registry.counter(names::SERVE_MALFORMED_FRAMES).get(),
        )
        .u64(
            "drain_checkpoints_total",
            registry.counter(names::SERVE_DRAIN_CHECKPOINTS).get(),
        )
        .u64("solar_cache_hits", hits)
        .u64("solar_cache_misses", misses)
        .str("session_names", &names_joined);
    o.finish()
}
