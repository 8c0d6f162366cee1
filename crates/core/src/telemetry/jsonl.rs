//! The JSONL event-log sink, and the reader that replays such a log back
//! into counter totals.
//!
//! One [`EpochEvent`](crate::telemetry::EpochEvent) becomes one line of
//! flat JSON (see [`EpochEvent::to_json_line`]); the reader side parses
//! those lines without any external JSON dependency (the schema is flat:
//! no nested objects or arrays) and recomputes the totals the live
//! counters accumulated, which is how tests prove the exported log is a
//! faithful account of the run.
//!
//! [`EpochEvent::to_json_line`]: crate::telemetry::EpochEvent::to_json_line

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use crate::error::CoreError;
use crate::telemetry::sink::{EpochEvent, SpanRecord, TelemetrySink};

/// A sink that appends one JSON line per epoch event to a writer.
///
/// Spans are not written (phase timings already ride on the epoch line);
/// write errors are swallowed — a full disk loses telemetry, never the
/// run.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Creates (truncating) the log file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the file cannot be
    /// created.
    pub fn create(path: &Path) -> Result<Self, CoreError> {
        let file = File::create(path).map_err(|e| CoreError::InvalidConfig {
            reason: format!("cannot create telemetry log {}: {e}", path.display()),
        })?;
        Ok(Self::from_writer(BufWriter::new(file)))
    }

    /// Wraps an arbitrary writer (tests use a `Vec<u8>` behind a handle).
    pub fn from_writer(writer: impl Write + Send + 'static) -> Self {
        JsonlSink {
            out: Mutex::new(Box::new(writer)),
        }
    }
}

impl TelemetrySink for JsonlSink {
    fn record_span(&self, _span: &SpanRecord) {}

    fn record_epoch(&self, event: &EpochEvent) {
        let line = event.to_json_line();
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// A value in a parsed flat-JSON event line.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// JSON `null` (emitted for non-finite numbers).
    Null,
    /// A boolean.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
}

/// One parsed event line: ordered `(key, value)` pairs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventLine {
    fields: Vec<(String, JsonValue)>,
}

impl EventLine {
    /// Parses one line of flat JSON (one object, no nesting). Returns
    /// `None` for anything that is not a well-formed flat object.
    #[must_use]
    pub fn parse(line: &str) -> Option<Self> {
        let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
        let mut fields = Vec::new();
        let mut rest = body.trim();
        while !rest.is_empty() {
            let (key, after_key) = parse_string(rest)?;
            rest = after_key.trim_start().strip_prefix(':')?.trim_start();
            let (value, after_value) = parse_value(rest)?;
            fields.push((key, value));
            rest = after_value.trim_start();
            match rest.strip_prefix(',') {
                Some(more) => rest = more.trim_start(),
                None => break,
            }
        }
        rest.is_empty().then_some(EventLine { fields })
    }

    /// All fields, in line order.
    #[must_use]
    pub fn fields(&self) -> &[(String, JsonValue)] {
        &self.fields
    }

    /// Looks up a field by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The numeric field `key`, if present and a number.
    #[must_use]
    // greenhetero-lint: allow(GH002) parsed JSON numbers are untyped by nature; callers re-wrap
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string field `key`, if present and a string.
    #[must_use]
    pub fn text(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean field `key`, if present and a boolean.
    #[must_use]
    pub fn flag(&self, key: &str) -> Option<bool> {
        match self.get(key)? {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses a leading `"…"` string, decoding the standard JSON escapes
/// (`\" \\ \/ \n \r \t \uXXXX`); returns the content and the rest of
/// the input. The telemetry schema itself emits no escapes, but the
/// serve wire protocol shares this parser and its error messages may
/// quote arbitrary session names.
///
/// `\uXXXX` units follow RFC 8259: a high surrogate (`D800`–`DBFF`)
/// must be immediately followed by an escaped low surrogate
/// (`DC00`–`DFFF`) and the pair decodes to one supplementary code
/// point; a lone surrogate in either direction rejects the string.
fn parse_string(input: &str) -> Option<(String, &str)> {
    let inner = input.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = inner.char_indices();
    while let Some((at, c)) = chars.next() {
        match c {
            '"' => return Some((out, &inner[at + 1..])),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                '/' => out.push('/'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let unit = hex4(&mut chars)?;
                    let code = match unit {
                        0xD800..=0xDBFF => {
                            (chars.next()?.1 == '\\' && chars.next()?.1 == 'u').then_some(())?;
                            let low = hex4(&mut chars)?;
                            (0xDC00..=0xDFFF).contains(&low).then_some(())?;
                            0x1_0000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                        }
                        0xDC00..=0xDFFF => return None,
                        unit => unit,
                    };
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

/// Reads four hex digits from `chars` as one UTF-16 code unit.
fn hex4(chars: &mut std::str::CharIndices<'_>) -> Option<u32> {
    let mut unit = 0u32;
    for _ in 0..4 {
        unit = unit * 16 + chars.next()?.1.to_digit(16)?;
    }
    Some(unit)
}

/// Parses one leading JSON scalar; returns it and the rest of the input.
fn parse_value(input: &str) -> Option<(JsonValue, &str)> {
    if input.starts_with('"') {
        let (s, rest) = parse_string(input)?;
        return Some((JsonValue::Str(s), rest));
    }
    for (literal, value) in [
        ("null", JsonValue::Null),
        ("true", JsonValue::Bool(true)),
        ("false", JsonValue::Bool(false)),
    ] {
        if let Some(rest) = input.strip_prefix(literal) {
            return Some((value, rest));
        }
    }
    let end = input
        .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .unwrap_or(input.len());
    let number: f64 = input[..end].parse().ok()?;
    Some((JsonValue::Num(number), &input[end..]))
}

/// Counter totals recomputed from an exported JSONL event log — the
/// replay side of the determinism contract: these must equal what the
/// live [`RunLedger`](crate::telemetry::RunLedger) counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayTotals {
    /// Event lines replayed.
    pub events: u64,
    /// Epochs that ran a training run.
    pub training_epochs: u64,
    /// Sum of per-epoch rejected feedback samples.
    pub rejected_feedback: u64,
    /// Sum of per-epoch quarantines.
    pub quarantines: u64,
    /// Epochs whose allocation came from the exact engine.
    pub engine_exact: u64,
    /// Epochs whose allocation came from the grid engine.
    pub engine_grid: u64,
    /// Transitions into `nominal` (from a worse rung).
    pub degrade_to_nominal: u64,
    /// Transitions into `fallback_solve`.
    pub degrade_to_fallback: u64,
    /// Transitions into `load_shed`.
    pub degrade_to_load_shed: u64,
    /// Transitions into `safe_idle`.
    pub degrade_to_safe_idle: u64,
    /// Sum of per-epoch allocation-cache hits.
    pub cache_hits: u64,
    /// Sum of per-epoch allocation-cache misses.
    pub cache_misses: u64,
    /// Sum of per-epoch allocation-cache evictions.
    pub cache_evicts: u64,
    /// Sum of per-epoch solves answered by reusing the previous answer.
    pub warm_starts: u64,
}

/// Replays an exported JSONL log (unparsable lines are skipped) into the
/// totals the live counters would hold. Degrade transitions are counted
/// exactly as the controller counts them: against the previous epoch's
/// rung, starting from `nominal`.
pub fn replay_totals<'a>(lines: impl IntoIterator<Item = &'a str>) -> ReplayTotals {
    let mut totals = ReplayTotals::default();
    let mut previous = "nominal".to_owned();
    for line in lines {
        let Some(event) = EventLine::parse(line) else {
            continue;
        };
        totals.events += 1;
        if event.flag("training") == Some(true) {
            totals.training_epochs += 1;
        }
        totals.rejected_feedback += event.num("rejected_feedback").unwrap_or(0.0) as u64;
        totals.quarantines += event.num("quarantines").unwrap_or(0.0) as u64;
        totals.cache_hits += event.num("cache_hits").unwrap_or(0.0) as u64;
        totals.cache_misses += event.num("cache_misses").unwrap_or(0.0) as u64;
        totals.cache_evicts += event.num("cache_evicts").unwrap_or(0.0) as u64;
        totals.warm_starts += event.num("warm_starts").unwrap_or(0.0) as u64;
        match event.text("engine") {
            Some("exact") => totals.engine_exact += 1,
            Some("grid") => totals.engine_grid += 1,
            _ => {}
        }
        if let Some(degrade) = event.text("degrade") {
            if degrade != previous {
                match degrade {
                    "nominal" => totals.degrade_to_nominal += 1,
                    "fallback_solve" => totals.degrade_to_fallback += 1,
                    "load_shed" => totals.degrade_to_load_shed += 1,
                    "safe_idle" => totals.degrade_to_safe_idle += 1,
                    _ => {}
                }
                previous = degrade.to_owned();
            }
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::sink::tests::sample_event;
    use std::sync::Arc;

    /// A shared byte buffer usable as a `Write` target behind the sink.
    #[derive(Debug, Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let buf = SharedBuf::default();
        let sink = JsonlSink::from_writer(buf.clone());
        sink.record_epoch(&sample_event());
        sink.record_epoch(&sample_event());
        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            assert!(EventLine::parse(line).is_some(), "unparsable: {line}");
        }
    }

    #[test]
    fn parse_roundtrips_an_emitted_line() {
        let event = sample_event();
        let line = event.to_json_line();
        let parsed = EventLine::parse(&line).unwrap();
        assert_eq!(parsed.num("epoch"), Some(5.0));
        assert_eq!(parsed.num("rack_id"), Some(0.0));
        assert_eq!(parsed.num("time_s"), Some(4500.0));
        assert_eq!(parsed.flag("training"), Some(false));
        assert_eq!(parsed.text("case"), Some("B"));
        assert_eq!(parsed.text("degrade"), Some("nominal"));
        assert_eq!(parsed.text("engine"), Some("exact"));
        assert_eq!(parsed.num("solve_us"), Some(120.0));
        assert_eq!(
            parsed.num("budget_w").map(f64::to_bits),
            Some(728.5f64.to_bits())
        );
        assert_eq!(
            parsed.num("soc").map(f64::to_bits),
            Some(0.8125f64.to_bits())
        );
        assert_eq!(parsed.num("rejected_feedback"), Some(2.0));
        assert_eq!(parsed.num("cache_hits"), Some(1.0));
        assert_eq!(parsed.num("warm_starts"), Some(1.0));
        assert_eq!(parsed.fields().len(), 33);
    }

    #[test]
    fn parse_handles_null_and_rejects_garbage() {
        let parsed = EventLine::parse("{\"a\":null,\"b\":true}").unwrap();
        assert_eq!(parsed.get("a"), Some(&JsonValue::Null));
        assert_eq!(parsed.flag("b"), Some(true));
        assert!(EventLine::parse("not json").is_none());
        assert!(EventLine::parse("{\"a\":}").is_none());
        assert!(EventLine::parse("{\"a\"").is_none());
        assert!(EventLine::parse("{}").is_some());
    }

    #[test]
    fn parse_decodes_string_escapes() {
        let parsed =
            EventLine::parse(r#"{"error":"session \"hog\" already\texists\nline2 é"}"#).unwrap();
        assert_eq!(
            parsed.text("error"),
            Some("session \"hog\" already\texists\nline2 é")
        );
        // A dangling or unknown escape is malformed, not silently kept.
        assert!(EventLine::parse(r#"{"a":"\q"}"#).is_none());
        assert!(EventLine::parse(r#"{"a":"trailing\"#).is_none());
    }

    #[test]
    fn parse_decodes_unicode_escapes_and_surrogate_pairs() {
        let parsed = EventLine::parse("{\"a\":\"snowman \\u2603\"}").unwrap();
        assert_eq!(parsed.text("a"), Some("snowman \u{2603}"));
        // A valid UTF-16 surrogate pair decodes to one supplementary
        // code point rather than rejecting the whole frame.
        let parsed = EventLine::parse("{\"a\":\"grin \\uD83D\\uDE00!\"}").unwrap();
        assert_eq!(parsed.text("a"), Some("grin \u{1F600}!"));
        // Lone surrogates in either direction are malformed.
        assert!(EventLine::parse(r#"{"a":"\uD83D"}"#).is_none());
        assert!(EventLine::parse(r#"{"a":"\uD83D!"}"#).is_none());
        assert!(EventLine::parse(r#"{"a":"\uDE00"}"#).is_none());
        assert!(EventLine::parse(r#"{"a":"\uD83DA"}"#).is_none());
        assert!(EventLine::parse(r#"{"a":"\uD83D\uD83D"}"#).is_none());
        // Truncated hex is malformed, not partially decoded.
        assert!(EventLine::parse(r#"{"a":"\u26"}"#).is_none());
        assert!(EventLine::parse(r#"{"a":"\uD83D\uDE"}"#).is_none());
    }

    #[test]
    fn replay_counts_totals_and_transitions() {
        let mk = |epoch: u64, degrade: &'static str, engine: &'static str, rejected: u32| {
            let mut e = sample_event();
            e.epoch = crate::types::EpochId::new(epoch);
            e.degrade = match degrade {
                "fallback_solve" => crate::controller::DegradeLevel::FallbackSolve,
                "load_shed" => crate::controller::DegradeLevel::LoadShed,
                "safe_idle" => crate::controller::DegradeLevel::SafeIdle,
                _ => crate::controller::DegradeLevel::Nominal,
            };
            e.engine = engine;
            e.rejected_feedback = rejected;
            e.to_json_line()
        };
        let lines = [
            mk(0, "nominal", "exact", 0),
            mk(1, "fallback_solve", "grid", 1),
            mk(2, "fallback_solve", "grid", 0),
            mk(3, "load_shed", "exact", 0),
            mk(4, "nominal", "exact", 2),
        ];
        let totals = replay_totals(lines.iter().map(String::as_str));
        assert_eq!(totals.events, 5);
        assert_eq!(totals.engine_exact, 3);
        assert_eq!(totals.engine_grid, 2);
        assert_eq!(totals.rejected_feedback, 3);
        // nominal→fallback→load_shed→nominal: one transition into each.
        assert_eq!(totals.degrade_to_fallback, 1);
        assert_eq!(totals.degrade_to_load_shed, 1);
        assert_eq!(totals.degrade_to_nominal, 1);
        assert_eq!(totals.degrade_to_safe_idle, 0);
        // sample_event carries cache_hits: 1 and warm_starts: 1 per line.
        assert_eq!(totals.cache_hits, 5);
        assert_eq!(totals.cache_misses, 0);
        assert_eq!(totals.cache_evicts, 0);
        assert_eq!(totals.warm_starts, 5);
    }
}
