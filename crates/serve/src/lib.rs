//! The GreenHetero control-plane daemon: the paper's online SPC loop,
//! promoted from a batch simulation into a long-lived service.
//!
//! A [`Daemon`] hosts N *rack sessions*, each an epoch-ticking control
//! loop ([`greenhetero_sim::engine::Stepper`]) over the fleet substrate:
//! one shared `Arc<Rack>`, the memoized solar trace, (optionally) one
//! pretrained profile database whose entries every session's clone
//! shares until it writes one, and one solve cache per substrate. The
//! robustness core is the session [`Supervisor`]:
//!
//! * **panic isolation** — every epoch step runs under
//!   `catch_unwind`; a panicking session never touches its neighbours;
//! * **deterministic restarts** — a panicked session backs off
//!   exponentially (base·2ⁿ, capped), is rebuilt from its spec, and
//!   silently replays to its decision cursor before resuming, so even a
//!   crashed session's decision stream stays byte-identical to an
//!   undisturbed run;
//! * **restart budget → quarantine** — sessions that keep panicking are
//!   quarantined instead of restarted forever;
//! * **heartbeat watchdog** — sessions making no progress for longer
//!   than their heartbeat timeout are evicted;
//! * **bounded admission** — a submit is one call that hands the
//!   session's task to the bounded pool or refuses it with a reason
//!   (session cap, duplicate name, bad spec, draining daemon);
//! * **bounded queues everywhere** — tick queues are `sync_channel`s; a
//!   full queue rejects with a reason instead of blocking the
//!   connection (lint rule GH011 enforces this);
//! * **graceful drain** — per-session stop flags plus `Arc<AtomicBool>`
//!   liveness plus joinable handles; every session's decision cursor is
//!   checkpointed before exit.
//!
//! The wire protocol is length-prefixed flat JSON over TCP
//! ([`proto`]): submit a session spec, tick manual sessions (telemetry
//! in), stream decision lines out, snapshot `/status` (including
//! degrade state, restart counts, and the process-global solar memo
//! stats), and drain. Malformed frames close only the offending
//! connection.
//!
//! Sessions are bit-deterministic: an undisturbed session's decision
//! stream equals the batch [`greenhetero_sim::engine::Simulation`] run
//! for the same spec, rendered through [`spec::decision_line`] — the
//! fleet determinism suite is the oracle for the fault-isolation tests.

/// TCP client for the daemon's frame protocol.
pub mod client;
/// The TCP daemon: accept loop, connection handling, command dispatch.
pub mod daemon;
/// Length-prefixed JSON framing.
pub mod proto;
/// Session state, the epoch-ticking run loop, and crash recovery.
pub mod session;
/// Session specs, scenario mapping, and the decision-line formatter.
pub mod spec;
/// The session supervisor: admission, watchdog, and graceful drain.
pub mod supervisor;

pub use client::{ClientTimeouts, ServeClient};
pub use daemon::{Daemon, ServeConfig};
pub use proto::{read_frame, write_frame, FrameError};
pub use session::{SessionCheckpoint, SessionState};
pub use spec::{decision_line, SessionSpec};
pub use supervisor::{DrainReport, SessionStatus, StatusSnapshot, Supervisor};

use std::time::Instant;

/// The daemon's monotonic clock: every timestamp in the serve layer is
/// "milliseconds since daemon start", so heartbeats and timeouts never
/// touch wall-clock time.
#[derive(Debug, Clone)]
pub(crate) struct ServeClock {
    origin: Instant,
}

impl ServeClock {
    /// A clock anchored at "now".
    pub(crate) fn new() -> Self {
        ServeClock {
            origin: Instant::now(),
        }
    }

    /// Milliseconds elapsed since the daemon started.
    pub(crate) fn now_ms(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_millis()).unwrap_or(u64::MAX)
    }
}
