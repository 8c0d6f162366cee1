//! Smoke-and-soak for the daemon (ISSUE.md acceptance): a mixed fleet
//! of sessions — clean, chaos-scheduled, crash-injected, and
//! manually ticked — all reach terminal states with restarts inside
//! their budgets, and a graceful drain joins every session thread,
//! flushes one checkpoint per session, finishes within its deadline,
//! and leaves the daemon empty.

use std::time::{Duration, Instant};

use greenhetero_serve::{Daemon, ServeClient, ServeConfig, SessionSpec};

fn wait_until<F: FnMut() -> bool>(deadline: Duration, what: &str, mut done: F) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn mixed_fleet_soaks_and_drains_cleanly() {
    let checkpoint_path =
        std::env::temp_dir().join(format!("gh-soak-checkpoints-{}.jsonl", std::process::id()));
    let daemon = Daemon::start(ServeConfig {
        max_sessions: 16,
        watchdog_tick_ms: 25,
        read_timeout_ms: 50,
        drain_deadline_ms: 10_000,
        checkpoint_path: Some(checkpoint_path.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let mut client = ServeClient::connect(&daemon.local_addr().to_string()).expect("connect");

    // The fleet: 4 clean free-runners, 2 chaos-day runs, 2
    // crash-injected runs (a panic every 8th epoch), 1 quarantine-bound
    // run, 1 free-runner on a different policy, and 2 manual sessions
    // that are ticked a few epochs and then left running for the drain
    // to stop.
    let mut fleet: Vec<SessionSpec> = Vec::new();
    for i in 0..4 {
        fleet.push(SessionSpec::named(&format!("clean-{i}")));
    }
    for i in 0..2 {
        let mut spec = SessionSpec::named(&format!("chaos-{i}"));
        spec.chaos = true;
        fleet.push(spec);
    }
    for i in 0..2 {
        let mut spec = SessionSpec::named(&format!("crashy-{i}"));
        spec.panic_epochs = (0..96).step_by(8).collect();
        spec.controller.serve_restart_budget = 100;
        spec.controller.serve_backoff_base_ms = 1;
        spec.controller.serve_backoff_cap_ms = 2;
        fleet.push(spec);
    }
    {
        let mut spec = SessionSpec::named("doomed");
        spec.panic_epochs = vec![2, 3, 4];
        spec.controller.serve_restart_budget = 1;
        spec.controller.serve_backoff_base_ms = 1;
        spec.controller.serve_backoff_cap_ms = 1;
        fleet.push(spec);
    }
    {
        let mut spec = SessionSpec::named("uniform");
        spec.policy = greenhetero_core::policies::PolicyKind::Uniform;
        fleet.push(spec);
    }
    for i in 0..2 {
        let mut spec = SessionSpec::named(&format!("manual-{i}"));
        spec.manual = true;
        spec.controller.serve_heartbeat_timeout_ms = 60_000;
        fleet.push(spec);
    }
    assert_eq!(fleet.len(), 12);

    for spec in &fleet {
        let reply = client.submit(spec).expect("submit round trip");
        assert_eq!(
            reply.flag("ok"),
            Some(true),
            "submit {:?} rejected: {reply:?}",
            spec.name
        );
    }

    // Tick each manual session a few epochs so drain checkpoints a
    // non-zero cursor for them.
    for i in 0..2 {
        let name = format!("manual-{i}");
        wait_until(Duration::from_secs(10), "manual session running", || {
            let status = client.session_status(&name).expect("status");
            status.text("state") == Some("running")
        });
        let mut acked = 0;
        while acked < 3 {
            let reply = client.tick(&name).expect("tick round trip");
            if reply.flag("ok") == Some(true) {
                acked += 1;
            } else {
                // Bounded queue pushed back; yield and retry.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    // Everything except the two manual sessions reaches a terminal
    // state on its own.
    wait_until(Duration::from_secs(60), "fleet to settle", || {
        let status = client.status().expect("status");
        let running = status.num("running").expect("running");
        let pending = status.num("pending").expect("pending");
        pending == 0.0 && running <= 2.0
    });

    let status = client.status().expect("status");
    assert_eq!(status.num("sessions"), Some(12.0), "{status:?}");
    assert_eq!(status.num("finished"), Some(9.0), "{status:?}");
    assert_eq!(status.num("quarantined"), Some(1.0), "{status:?}");
    assert_eq!(status.num("evicted"), Some(0.0), "{status:?}");
    // 12 restarts per crashy session, + 2 for doomed (budget 1 spent,
    // then the fatal panic counts as the second).
    let restarts = status.num("restarts_total").expect("restarts_total");
    assert_eq!(restarts as u64, 26, "{status:?}");
    // 12 sessions share one solar trace: the memo must have hits.
    assert!(
        status.num("solar_cache_hits").unwrap_or(0.0) >= 1.0,
        "{status:?}"
    );

    // Per-session restart counts stay within each budget.
    for i in 0..2 {
        let s = client
            .session_status(&format!("crashy-{i}"))
            .expect("status");
        assert_eq!(s.num("restarts"), Some(12.0), "{s:?}");
        assert_eq!(s.num("cursor"), Some(96.0), "{s:?}");
    }

    // The Prometheus dump carries the supervision counters, the
    // process-global solar memo stats, and the per-substrate shared
    // cache's solve and training counters (scheduling-dependent, so
    // scraped here rather than recorded into any per-run ledger).
    let metrics = client.metrics().expect("metrics dump");
    for name in [
        "greenhetero_session_restart_total",
        "greenhetero_session_quarantined_total",
        "greenhetero_session_completed_total",
        "greenhetero_serve_rejected_total",
        "greenhetero_solar_cache_hit_total",
        "greenhetero_solar_cache_miss_total",
        "greenhetero_shared_solve_hit_total",
        "greenhetero_shared_solve_miss_total",
        "greenhetero_shared_solve_revalidation_miss_total",
        "greenhetero_shared_solve_evict_total",
        "greenhetero_shared_training_hit_total",
        "greenhetero_shared_training_miss_total",
    ] {
        assert!(
            metrics.contains(name),
            "metrics dump missing {name}:\n{metrics}"
        );
    }

    // Graceful drain: every thread joins, one checkpoint per session,
    // inside the deadline, nothing leaked.
    let report = daemon.drain();
    assert!(report.within_deadline, "{report:?}");
    assert_eq!(report.leaked, 0, "{report:?}");
    assert_eq!(report.checkpoints.len(), 12, "{report:?}");
    assert_eq!(report.joined, 12, "every session thread joins: {report:?}");
    assert!(report.checkpoint_write_error.is_none(), "{report:?}");

    // The manual sessions were stopped mid-run with their cursors
    // intact; finished sessions checkpoint at the full horizon.
    for checkpoint in &report.checkpoints {
        if checkpoint.session.starts_with("manual-") {
            assert_eq!(checkpoint.state, "drained", "{checkpoint:?}");
            assert!(checkpoint.cursor >= 3, "{checkpoint:?}");
        }
        if checkpoint.session.starts_with("clean-") {
            assert_eq!(checkpoint.state, "finished", "{checkpoint:?}");
            assert_eq!(checkpoint.cursor, 96, "{checkpoint:?}");
        }
    }

    // The checkpoint file holds one JSON line per session.
    let flushed = std::fs::read_to_string(&checkpoint_path).expect("checkpoint file");
    assert_eq!(flushed.lines().count(), 12);
    assert!(flushed.contains("\"session\":\"doomed\""));
    let _ = std::fs::remove_file(&checkpoint_path);

    // Post-drain the daemon is empty (no leaked sessions) and a second
    // drain returns the stored report instead of re-draining.
    let status = daemon.supervisor().status();
    assert_eq!(status.total(), 0, "post-drain status must be empty");
    let again = daemon.drain();
    assert_eq!(again.checkpoints.len(), 12, "idempotent drain: {again:?}");

    // New submissions are refused after drain.
    let rejected = daemon
        .supervisor()
        .submit(SessionSpec::named("late"))
        .expect_err("draining daemon refuses work");
    assert_eq!(rejected.0, "draining");
}
