//! Pool-scaling soak (ISSUE acceptance): 1,000 sessions hosted on a
//! 4-worker pool. The daemon's thread count stays at the pool size plus
//! its fixed supervision overhead (accept + watchdog) — no
//! thread-per-session — while every session still reaches its
//! deterministic terminal state and a graceful drain checkpoints all
//! 1,000 within the deadline.

use std::time::{Duration, Instant};

use greenhetero_serve::{Daemon, ServeConfig, SessionSpec, SessionState};

const SESSIONS: usize = 1_000;
const DOOMED: usize = 10;
const WORKERS: usize = 4;
/// Accept + watchdog: the daemon's fixed thread overhead on top of the
/// session pool.
const SUPERVISION_THREADS: usize = 2;

/// Current thread count of this process, from /proc/self/status.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status")
        .unwrap_or_else(|e| panic!("/proc/self/status: {e}"));
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or_else(|| panic!("no Threads: line in /proc/self/status"))
}

/// A short-horizon session: 24 hourly epochs instead of the default 96,
/// so a thousand of them soak in test time.
fn short_spec(name: &str) -> SessionSpec {
    let mut spec = SessionSpec::named(name);
    spec.controller.epoch_len = greenhetero_core::types::SimDuration::from_minutes(60);
    spec
}

#[test]
fn a_thousand_sessions_run_on_a_four_worker_pool() {
    let threads_before = process_threads();
    let daemon = Daemon::start(ServeConfig {
        max_sessions: SESSIONS,
        watchdog_tick_ms: 50,
        worker_threads: WORKERS,
        drain_deadline_ms: 60_000,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let supervisor = daemon.supervisor();

    // The daemon's whole thread bill, before any session exists, is the
    // pool plus the fixed supervision threads.
    assert_eq!(
        process_threads() - threads_before,
        WORKERS + SUPERVISION_THREADS,
        "daemon thread overhead must be pool + accept + watchdog"
    );

    // 990 clean sessions plus 10 quarantine-bound ones (panic past
    // their budget); each submit hands its task to the pool at once.
    for i in 0..SESSIONS {
        let spec = if i < DOOMED {
            let mut spec = short_spec(&format!("doomed-{i:04}"));
            spec.panic_epochs = vec![1, 2, 3];
            spec.controller.serve_restart_budget = 1;
            spec.controller.serve_backoff_base_ms = 1;
            spec.controller.serve_backoff_cap_ms = 1;
            spec
        } else {
            short_spec(&format!("clean-{i:04}"))
        };
        if let Err((reason, msg)) = supervisor.submit(spec) {
            panic!("submit {i} rejected: {reason}: {msg}");
        }
    }

    // Soak: every session reaches a terminal state on its own. Sample
    // the thread count while the fleet runs — it must never grow with
    // the session count.
    let mut peak_threads = process_threads();
    let started = Instant::now();
    loop {
        peak_threads = peak_threads.max(process_threads());
        let snap = supervisor.status();
        if snap.active() == 0 {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(600),
            "fleet failed to settle: {} active of {}",
            snap.active(),
            snap.total()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        peak_threads - threads_before <= WORKERS + SUPERVISION_THREADS,
        "hosting {SESSIONS} sessions grew the thread count: {} over a budget of {}",
        peak_threads - threads_before,
        WORKERS + SUPERVISION_THREADS
    );

    // Deterministic terminal states: every clean session finished its
    // full horizon, every doomed one quarantined with the budget named.
    let snap = supervisor.status();
    assert_eq!(snap.total(), SESSIONS as u64, "all sessions hosted");
    assert_eq!(snap.finished, (SESSIONS - DOOMED) as u64, "clean finishes");
    assert_eq!(snap.quarantined, DOOMED as u64, "doomed quarantines");
    assert_eq!(snap.evicted, 0, "no watchdog evictions under load");
    for status in &snap.sessions {
        if status.session.starts_with("clean-") {
            assert_eq!(status.state, SessionState::Finished.name(), "{status:?}");
            assert_eq!(status.cursor, 24, "{status:?}");
        } else {
            assert_eq!(status.state, SessionState::Quarantined.name(), "{status:?}");
            let err = status.last_error.as_deref().unwrap_or("");
            assert!(err.contains("budget"), "{status:?}");
        }
    }

    // Byte-determinism across the pool: every clean session emitted the
    // identical decision stream regardless of which workers polled it.
    let (first, total, _, _) = supervisor
        .decisions("clean-0010", 0, u64::MAX)
        .expect("stream");
    assert_eq!(total, 24);
    for name in ["clean-0500", "clean-0999"] {
        let (lines, _, _, _) = supervisor.decisions(name, 0, u64::MAX).expect("stream");
        assert_eq!(lines, first, "{name} diverged across the pool");
    }

    // Graceful drain: 1,000/1,000 checkpoints, every session already
    // terminal, inside the deadline.
    let report = daemon.drain();
    assert!(report.within_deadline, "{:?}", report.elapsed_ms);
    assert_eq!(report.checkpoints.len(), SESSIONS);
    assert_eq!(report.joined, SESSIONS);
    assert_eq!(report.leaked, 0);
    assert_eq!(supervisor.status().total(), 0, "post-drain map is empty");
}
