//! Fault-isolation proof for the control-plane daemon (ISSUE.md
//! acceptance): a crash-looping session never disturbs its neighbours —
//! their decision streams stay byte-identical to the batch-run oracle —
//! and the daemon's protocol-level failure modes (malformed frames,
//! capacity, backpressure, stale heartbeats) each hit exactly one
//! session or connection.

// Integration-test helpers sit outside `#[test]` fns, where the
// allow-*-in-tests clippy knobs do not reach; panicking is fine here.
#![allow(clippy::expect_used)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use greenhetero_serve::{decision_line, Daemon, ServeClient, ServeConfig, SessionSpec};
use greenhetero_sim::engine::run_scenario;

/// A daemon tuned for fast tests: quick watchdog, quick read timeout.
fn test_daemon() -> Daemon {
    Daemon::start(ServeConfig {
        watchdog_tick_ms: 25,
        read_timeout_ms: 50,
        drain_deadline_ms: 10_000,
        ..ServeConfig::default()
    })
    .expect("daemon starts")
}

fn client(daemon: &Daemon) -> ServeClient {
    ServeClient::connect(&daemon.local_addr().to_string()).expect("client connects")
}

/// The no-fault oracle: the batch simulation's decision stream for the
/// same spec.
fn oracle(spec: &SessionSpec) -> Vec<String> {
    let report = run_scenario(spec.scenario().expect("valid scenario")).expect("batch run");
    report.epochs.iter().map(decision_line).collect()
}

/// Polls one session's wire status until it reaches `state` (or panics
/// after `deadline`).
fn wait_for_state(client: &mut ServeClient, session: &str, state: &str, deadline: Duration) {
    let start = Instant::now();
    loop {
        let status = client.session_status(session).expect("status round trip");
        let current = status.text("state").expect("state field").to_string();
        if current == state {
            return;
        }
        assert!(
            start.elapsed() < deadline,
            "session {session:?} stuck in {current:?} waiting for {state:?}: {:?}",
            status.text("last_error")
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn undisturbed_sessions_match_the_batch_oracle_over_the_wire() {
    let daemon = test_daemon();
    let mut client = client(&daemon);
    let spec = SessionSpec::named("clean-1");
    let expected = oracle(&spec);

    let reply = client.submit(&spec).expect("submit round trip");
    assert_eq!(reply.flag("ok"), Some(true), "{reply:?}");
    assert_eq!(reply.num("epochs_total"), Some(96.0));

    wait_for_state(&mut client, "clean-1", "finished", Duration::from_secs(30));
    let lines = client
        .decisions("clean-1", 0, u64::MAX)
        .expect("decision stream");
    assert_eq!(lines, expected, "wire stream must equal the batch oracle");

    // Paged reads see the same bytes.
    let page = client.decisions("clean-1", 90, 4).expect("paged read");
    assert_eq!(page, expected[90..94].to_vec());
}

#[test]
fn a_crash_looping_session_never_disturbs_its_neighbours() {
    let daemon = test_daemon();
    let mut client = client(&daemon);

    // The victim panics at EVERY epoch of its horizon; the budget lets
    // it restart through all of them.
    let mut crashy = SessionSpec::named("crashy");
    crashy.panic_epochs = (0..96).collect();
    crashy.controller.serve_restart_budget = 100;
    crashy.controller.serve_backoff_base_ms = 1;
    crashy.controller.serve_backoff_cap_ms = 2;
    let neighbours = ["neighbour-a", "neighbour-b", "neighbour-c"];
    let expected = oracle(&SessionSpec::named("any"));

    for name in neighbours {
        let reply = client
            .submit(&SessionSpec::named(name))
            .expect("submit neighbour");
        assert_eq!(reply.flag("ok"), Some(true), "{reply:?}");
    }
    let reply = client.submit(&crashy).expect("submit crashy");
    assert_eq!(reply.flag("ok"), Some(true), "{reply:?}");

    for name in neighbours {
        wait_for_state(&mut client, name, "finished", Duration::from_secs(30));
    }
    wait_for_state(&mut client, "crashy", "finished", Duration::from_secs(60));

    // Neighbours: byte-identical to the no-fault run.
    for name in neighbours {
        let lines = client.decisions(name, 0, u64::MAX).expect("stream");
        assert_eq!(lines, expected, "neighbour {name} diverged from the oracle");
    }

    // The victim restarted once per epoch and STILL matches the oracle:
    // restart-and-replay is bit-deterministic.
    let status = client.session_status("crashy").expect("status");
    assert_eq!(status.num("restarts"), Some(96.0), "{status:?}");
    let lines = client.decisions("crashy", 0, u64::MAX).expect("stream");
    assert_eq!(lines, expected, "crashed session diverged after replay");

    // Neighbours saw no restarts at all.
    for name in neighbours {
        let status = client.session_status(name).expect("status");
        assert_eq!(status.num("restarts"), Some(0.0), "{status:?}");
    }
}

#[test]
fn restart_budget_exhaustion_quarantines_without_touching_neighbours() {
    let daemon = test_daemon();
    let mut client = client(&daemon);

    let mut doomed = SessionSpec::named("doomed");
    doomed.panic_epochs = vec![5, 6, 7, 8];
    doomed.controller.serve_restart_budget = 2;
    doomed.controller.serve_backoff_base_ms = 1;
    doomed.controller.serve_backoff_cap_ms = 1;
    let expected = oracle(&SessionSpec::named("any"));

    client
        .submit(&SessionSpec::named("bystander"))
        .expect("submit");
    client.submit(&doomed).expect("submit");

    wait_for_state(
        &mut client,
        "doomed",
        "quarantined",
        Duration::from_secs(30),
    );
    wait_for_state(
        &mut client,
        "bystander",
        "finished",
        Duration::from_secs(30),
    );

    let status = client.session_status("doomed").expect("status");
    assert_eq!(status.num("restarts"), Some(3.0), "{status:?}");
    let err = status.text("last_error").expect("quarantine reason");
    assert!(err.contains("budget"), "reason names the budget: {err}");

    // The budget recovered the panics at epochs 5 and 6; the third
    // panic (epoch 7) was fatal. Decisions up to there survive and
    // match the oracle prefix bit-for-bit.
    let lines = client.decisions("doomed", 0, u64::MAX).expect("stream");
    assert_eq!(lines, expected[..7].to_vec());

    let lines = client.decisions("bystander", 0, u64::MAX).expect("stream");
    assert_eq!(lines, expected);
}

#[test]
fn stale_sessions_are_evicted_by_the_watchdog() {
    let daemon = test_daemon();
    let mut client = client(&daemon);

    // Manual pacing with a short heartbeat timeout: the client ticks
    // twice, then goes silent — the watchdog must evict.
    let mut stale = SessionSpec::named("stale");
    stale.manual = true;
    stale.controller.serve_heartbeat_timeout_ms = 200;
    client.submit(&stale).expect("submit");

    wait_for_state(&mut client, "stale", "running", Duration::from_secs(10));
    for _ in 0..2 {
        let reply = client.tick("stale").expect("tick");
        assert_eq!(reply.flag("ok"), Some(true), "{reply:?}");
    }
    wait_for_state(&mut client, "stale", "evicted", Duration::from_secs(10));

    // A tick after eviction is rejected as terminal, not queued.
    let reply = client.tick("stale").expect("tick round trip");
    assert_eq!(reply.flag("ok"), Some(false));
    assert_eq!(reply.text("reason"), Some("terminal"), "{reply:?}");

    let status = client.status().expect("daemon status");
    assert_eq!(status.num("evicted"), Some(1.0), "{status:?}");
}

#[test]
fn malformed_frames_close_only_the_offending_connection() {
    let daemon = test_daemon();
    let mut healthy = client(&daemon);
    let spec = SessionSpec::named("survivor");
    healthy.submit(&spec).expect("submit");

    // A raw connection that violates the protocol: valid framing, but
    // the payload is not flat JSON.
    let mut rogue = TcpStream::connect(daemon.local_addr()).expect("connect");
    rogue
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let garbage = b"this is not json";
    rogue
        .write_all(&(garbage.len() as u32).to_be_bytes())
        .expect("prefix");
    rogue.write_all(garbage).expect("payload");
    // The daemon answers with a malformed-frame error, then closes.
    let mut len_buf = [0u8; 4];
    rogue.read_exact(&mut len_buf).expect("error frame prefix");
    let mut reply = vec![0u8; u32::from_be_bytes(len_buf) as usize];
    rogue.read_exact(&mut reply).expect("error frame body");
    let reply = String::from_utf8(reply).expect("utf8");
    assert!(reply.contains("malformed"), "{reply}");
    let eof = rogue.read(&mut len_buf).expect("post-error read");
    assert_eq!(eof, 0, "daemon must close the offending connection");

    // A zero length prefix is also malformed (different path: the frame
    // reader itself rejects it before dispatch).
    let mut rogue2 = TcpStream::connect(daemon.local_addr()).expect("connect");
    rogue2.write_all(&0u32.to_be_bytes()).expect("zero prefix");
    // (reply and close are best-effort; the counter is the contract)

    // The healthy connection is untouched: its session finishes and
    // its decision stream is intact.
    wait_for_state(
        &mut healthy,
        "survivor",
        "finished",
        Duration::from_secs(30),
    );
    let lines = healthy.decisions("survivor", 0, u64::MAX).expect("stream");
    assert_eq!(lines, oracle(&spec));
    let status = healthy.status().expect("daemon status");
    assert!(
        status.num("malformed_total").unwrap_or(0.0) >= 1.0,
        "{status:?}"
    );
}

#[test]
fn capacity_duplicates_and_backpressure_reject_with_reasons() {
    let daemon = Daemon::start(ServeConfig {
        max_sessions: 1,
        tick_queue_depth: 1,
        watchdog_tick_ms: 25,
        read_timeout_ms: 50,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = client(&daemon);

    // A manual session that will occupy the single slot indefinitely
    // (generous heartbeat so the watchdog leaves it alone), with an
    // injected stall so its tick queue can be filled.
    let mut hog = SessionSpec::named("hog");
    hog.manual = true;
    hog.stall_epoch = Some(0);
    hog.stall_ms = 1_000;
    hog.controller.serve_heartbeat_timeout_ms = 60_000;
    let reply = client.submit(&hog).expect("submit");
    assert_eq!(reply.flag("ok"), Some(true), "{reply:?}");
    wait_for_state(&mut client, "hog", "running", Duration::from_secs(10));

    // Same name again: duplicate.
    let reply = client.submit(&hog).expect("submit round trip");
    assert_eq!(reply.text("reason"), Some("duplicate"), "{reply:?}");

    // Different name: the host is full.
    let reply = client
        .submit(&SessionSpec::named("overflow"))
        .expect("submit round trip");
    assert_eq!(reply.text("reason"), Some("capacity"), "{reply:?}");

    // Flood the depth-1 tick queue while the session is stalled: at
    // least one tick must be rejected as backpressure, and none may
    // block the connection.
    let mut backpressured = 0;
    for _ in 0..4 {
        let reply = client.tick("hog").expect("tick round trip");
        if reply.text("reason") == Some("backpressure") {
            backpressured += 1;
        }
    }
    assert!(
        backpressured >= 1,
        "a full tick queue must reject, not block"
    );

    let status = client.status().expect("daemon status");
    assert!(
        status.num("rejected_total").unwrap_or(0.0) >= 3.0,
        "capacity + duplicate + backpressure all count: {status:?}"
    );

    // Unknown sessions are a distinct reason.
    let reply = client.tick("nope").expect("tick round trip");
    assert_eq!(reply.text("reason"), Some("unknown_session"), "{reply:?}");
}

#[test]
fn an_unbounded_horizon_is_refused_and_the_daemon_keeps_serving() {
    let daemon = test_daemon();
    let mut client = client(&daemon);

    // A billion days would reserve terabytes of epoch records at the
    // session's first poll; validation refuses the horizon instead.
    let mut huge = SessionSpec::named("huge");
    huge.days = 1_000_000_000;
    let reply = client.submit(&huge).expect("submit round trip");
    assert_eq!(reply.flag("ok"), Some(false), "{reply:?}");
    assert_eq!(reply.text("reason"), Some("invalid_spec"), "{reply:?}");

    let spec = SessionSpec::named("after-huge");
    let reply = client.submit(&spec).expect("submit round trip");
    assert_eq!(reply.flag("ok"), Some(true), "{reply:?}");
    wait_for_state(
        &mut client,
        "after-huge",
        "finished",
        Duration::from_secs(30),
    );
    let lines = client.decisions("after-huge", 0, u64::MAX).expect("stream");
    assert_eq!(lines, oracle(&spec));
}
