//! A small blocking TCP client for the daemon's frame protocol — used
//! by the integration tests and handy for tooling.

use std::net::TcpStream;
use std::time::Duration;

use greenhetero_core::telemetry::{EventLine, JsonObject};

use crate::proto::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME_LEN};
use crate::spec::SessionSpec;

/// One connection to a running [`Daemon`](crate::Daemon).
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    max_frame_len: usize,
}

/// Socket timeouts for a [`ServeClient`] connection. The defaults are
/// generous (the daemon's own read timeout paces its replies, so a
/// short client read timeout would race it); callers embedding the
/// client in latency-sensitive tooling tighten them with
/// [`ServeClient::connect_with_timeouts`].
#[derive(Debug, Clone, Copy)]
pub struct ClientTimeouts {
    /// Per-read socket timeout; `None` blocks indefinitely.
    pub read: Option<Duration>,
    /// Per-write socket timeout; `None` blocks indefinitely.
    pub write: Option<Duration>,
}

impl Default for ClientTimeouts {
    fn default() -> Self {
        ClientTimeouts {
            read: Some(Duration::from_secs(60)),
            write: Some(Duration::from_secs(10)),
        }
    }
}

impl ServeClient {
    /// Connects to `addr` with the default [`ClientTimeouts`].
    ///
    /// # Errors
    ///
    /// The classified connect/configure failure.
    pub fn connect(addr: &str) -> Result<ServeClient, FrameError> {
        Self::connect_with_timeouts(addr, ClientTimeouts::default())
    }

    /// Connects to `addr` with explicit socket timeouts.
    ///
    /// # Errors
    ///
    /// The classified connect/configure failure (a zero `Duration` is
    /// rejected by the OS and surfaces as [`FrameError::Io`]).
    pub fn connect_with_timeouts(
        addr: &str,
        timeouts: ClientTimeouts,
    ) -> Result<ServeClient, FrameError> {
        let stream = TcpStream::connect(addr).map_err(FrameError::Io)?;
        stream
            .set_read_timeout(timeouts.read)
            .map_err(FrameError::Io)?;
        stream
            .set_write_timeout(timeouts.write)
            .map_err(FrameError::Io)?;
        Ok(ServeClient {
            stream,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        })
    }

    /// Sends one request frame and reads one reply frame.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`] from the round trip.
    pub fn request(&mut self, payload: &str) -> Result<String, FrameError> {
        write_frame(&mut self.stream, payload)?;
        read_frame(&mut self.stream, self.max_frame_len)
    }

    /// Sends one request frame and parses the reply as a flat JSON
    /// line.
    ///
    /// # Errors
    ///
    /// I/O failures, plus [`FrameError::Malformed`] when the reply is
    /// not flat JSON.
    pub fn request_line(&mut self, payload: &str) -> Result<EventLine, FrameError> {
        let reply = self.request(payload)?;
        EventLine::parse(&reply)
            .ok_or_else(|| FrameError::Malformed(format!("reply is not flat JSON: {reply}")))
    }

    /// Submits a session spec; returns the daemon's reply line
    /// (`ok`/`reason` tell the caller whether it was admitted).
    ///
    /// # Errors
    ///
    /// Frame-level failures only — a *rejected* submit is an `Ok` reply
    /// with `ok:false`.
    pub fn submit(&mut self, spec: &SessionSpec) -> Result<EventLine, FrameError> {
        self.request_line(&spec.to_submit_line())
    }

    /// Ticks a manual-pacing session once.
    ///
    /// # Errors
    ///
    /// Frame-level failures only.
    pub fn tick(&mut self, session: &str) -> Result<EventLine, FrameError> {
        let mut o = JsonObject::new();
        o.str("cmd", "tick").str("session", session);
        self.request_line(&o.finish())
    }

    /// Fetches the daemon-level status frame.
    ///
    /// # Errors
    ///
    /// Frame-level failures only.
    pub fn status(&mut self) -> Result<EventLine, FrameError> {
        self.request_line(r#"{"cmd":"status"}"#)
    }

    /// Fetches one session's status frame.
    ///
    /// # Errors
    ///
    /// Frame-level failures only.
    pub fn session_status(&mut self, session: &str) -> Result<EventLine, FrameError> {
        let mut o = JsonObject::new();
        o.str("cmd", "status").str("session", session);
        self.request_line(&o.finish())
    }

    /// Fetches the Prometheus metrics dump (unescaped).
    ///
    /// # Errors
    ///
    /// Frame-level failures, plus [`FrameError::Malformed`] when the
    /// reply lacks the `metrics` field.
    pub fn metrics(&mut self) -> Result<String, FrameError> {
        let line = self.request_line(r#"{"cmd":"metrics"}"#)?;
        line.text("metrics")
            .map(str::to_string)
            .ok_or_else(|| FrameError::Malformed("metrics reply missing \"metrics\"".into()))
    }

    /// Streams decision lines `[from, from+max)` for one session:
    /// reads the header frame, then exactly `count` decision frames.
    ///
    /// # Errors
    ///
    /// Frame-level failures, plus [`FrameError::Malformed`] when the
    /// header is an error reply or not flat JSON.
    pub fn decisions(
        &mut self,
        session: &str,
        from: u64,
        max: u64,
    ) -> Result<Vec<String>, FrameError> {
        let mut o = JsonObject::new();
        o.str("cmd", "decisions").str("session", session);
        // u64→f64 is exact for every cursor the daemon can reach (the
        // wire carries numbers as f64).
        o.f64("from", from as f64)
            .f64("max", max.min(1 << 52) as f64);
        let header = self.request_line(&o.finish())?;
        if header.flag("ok") != Some(true) {
            return Err(FrameError::Malformed(format!(
                "decisions rejected: {:?}",
                header.text("error").unwrap_or("<no error field>")
            )));
        }
        let count = header.num("count").map_or(0, |v| v.max(0.0) as u64);
        let mut lines = Vec::with_capacity(count as usize);
        for _ in 0..count {
            lines.push(read_frame(&mut self.stream, self.max_frame_len)?);
        }
        Ok(lines)
    }

    /// Asks the daemon to drain; returns the summary reply line. The
    /// daemon closes the connection afterwards.
    ///
    /// # Errors
    ///
    /// Frame-level failures only.
    pub fn drain(&mut self) -> Result<EventLine, FrameError> {
        self.request_line(r#"{"cmd":"drain"}"#)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configured_read_timeout_bounds_a_silent_server() {
        // A listener that accepts but never replies: a client with a
        // short read timeout must surface TimedOut instead of hanging.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let mut client = ServeClient::connect_with_timeouts(
            &addr,
            ClientTimeouts {
                read: Some(Duration::from_millis(50)),
                write: Some(Duration::from_millis(500)),
            },
        )
        .expect("connect");
        let started = std::time::Instant::now();
        let err = client
            .request(r#"{"cmd":"status"}"#)
            .expect_err("silent server must time the read out");
        assert!(matches!(err, FrameError::TimedOut), "{err:?}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timeout must bound the wait"
        );
        drop(hold.join());
    }

    #[test]
    fn default_timeouts_are_generous() {
        let defaults = ClientTimeouts::default();
        assert_eq!(defaults.read, Some(Duration::from_secs(60)));
        assert_eq!(defaults.write, Some(Duration::from_secs(10)));
    }
}
