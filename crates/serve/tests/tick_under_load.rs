//! A ticked manual session is served while bulk sessions keep the
//! daemon's only pool worker busy: each tick's decision lands within a
//! second, long before the bulk work is done, and the daemon still
//! drains within its deadline.

// Integration-test helpers sit outside `#[test]` fns, where the
// allow-*-in-tests clippy knobs do not reach; panicking is fine here.
#![allow(clippy::expect_used)]

use std::time::{Duration, Instant};

use greenhetero_serve::{Daemon, ServeConfig, SessionSpec, Supervisor};

const BULK: usize = 4;
const TICKS: u64 = 5;
const TICK_BOUND: Duration = Duration::from_secs(1);

fn state_of(sup: &Supervisor, name: &str) -> &'static str {
    sup.session_status(name).expect("hosted session").state
}

#[test]
fn a_ticked_session_is_served_while_bulk_work_keeps_the_pool_busy() {
    let daemon = Daemon::start(ServeConfig {
        worker_threads: 1,
        drain_deadline_ms: 10_000,
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let sup = daemon.supervisor();

    // The manual session comes first, so it is parked on its tick wait
    // before the bulk sessions take the worker.
    let mut ticked = SessionSpec::named("ticked");
    ticked.manual = true;
    ticked.controller.serve_heartbeat_timeout_ms = 600_000;
    sup.submit(ticked).expect("manual session admitted");
    let started = Instant::now();
    while state_of(sup, "ticked") != "running" {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the manual session never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    // Ten years each: free-running work that outlasts the ticks.
    for i in 0..BULK {
        let mut bulk = SessionSpec::named(&format!("bulk-{i}"));
        bulk.days = 3_650;
        sup.submit(bulk).expect("bulk session admitted");
    }

    for tick in 1..=TICKS {
        let cursor = sup.tick("ticked").expect("tick accepted");
        let sent = Instant::now();
        loop {
            let (_, total, _, _) = sup.decisions("ticked", 0, 0).expect("decisions");
            if total > cursor {
                break;
            }
            assert!(
                sent.elapsed() < TICK_BOUND,
                "tick {tick} waited past {TICK_BOUND:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert!(
        (0..BULK).any(|i| state_of(sup, &format!("bulk-{i}")) == "running"),
        "the ticks must be served beside the bulk work, not after it"
    );

    let report = sup.drain(10_000);
    assert!(report.within_deadline, "{report:?}");
    assert_eq!(report.leaked, 0, "{report:?}");
}
