//! A structured JSON-lines logger for the binaries' stderr
//! diagnostics.
//!
//! One log call produces exactly one line of JSON and exactly one
//! `write` syscall (the line is assembled in a `String` first and
//! written through a single locked handle), so concurrent threads never
//! interleave fragments. The level filter comes from the `BI_LOG`
//! environment variable — `error`, `warn`, `info` (the default),
//! `debug`, or `off` — read once per process.
//!
//! The logger is **never** invoked on the zero-copy hot path: the
//! serving layer only logs at startup, on error paths, and when a
//! request trips a `--trace-slow-us` threshold (slow-request sampling),
//! so steady-state hit traffic performs zero logging work beyond one
//! branch on the threshold.
//!
//! Line shape (stdout stays free for machine-readable reports):
//!
//! ```text
//! {"ts_ms":"1754650000123","level":"info","component":"bi-serve","msg":"listening","addr":"127.0.0.1:8080"}
//! ```

use std::io::Write as _;
use std::sync::OnceLock;

use bi_util::Json;

use crate::span::{Recorder, SpanEvent};

/// Log severity, most severe first so `Ord` matches "is at least as
/// severe as".
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The process cannot do what it was asked to.
    Error,
    /// Degraded but proceeding (failover, eject, dropped append).
    Warn,
    /// Lifecycle and slow-request samples. The default threshold.
    Info,
    /// Per-decision detail (probe results, pool churn).
    Debug,
}

impl Level {
    /// The wire name of the level.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn parse(s: &str) -> Option<Option<Level>> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Some(Level::Error)),
            "warn" | "warning" => Some(Some(Level::Warn)),
            "info" => Some(Some(Level::Info)),
            "debug" => Some(Some(Level::Debug)),
            "off" | "none" => Some(None),
            _ => None,
        }
    }
}

/// The process-wide threshold: `None` means logging is off entirely.
/// Parsed from `BI_LOG` once, on the first log call.
fn threshold() -> Option<Level> {
    static THRESHOLD: OnceLock<Option<Level>> = OnceLock::new();
    *THRESHOLD.get_or_init(|| match std::env::var("BI_LOG") {
        Ok(raw) => Level::parse(&raw).unwrap_or(Some(Level::Info)),
        Err(_) => Some(Level::Info),
    })
}

/// Whether a message at `level` would be emitted — check before
/// assembling expensive fields (like a span tree dump).
#[must_use]
pub fn enabled(level: Level) -> bool {
    threshold().is_some_and(|t| level <= t)
}

/// Builds one log line as a JSON document (no trailing newline). Pure,
/// so tests can pin the format without capturing stderr.
#[must_use]
pub fn format_line(
    ts_ms: u64,
    level: Level,
    component: &str,
    msg: &str,
    fields: &[(&str, Json)],
) -> String {
    let mut doc = vec![
        ("ts_ms".to_string(), Json::from_u64(ts_ms)),
        ("level".to_string(), Json::str(level.name())),
        ("component".to_string(), Json::str(component)),
        ("msg".to_string(), Json::str(msg)),
    ];
    doc.extend(fields.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
    Json::Obj(doc).to_string()
}

/// Emits one structured line to stderr (level-filtered; a single
/// `write_all` on the locked handle, so lines never interleave).
pub fn log(level: Level, component: &str, msg: &str, fields: &[(&str, Json)]) {
    if !enabled(level) {
        return;
    }
    let ts_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX));
    let mut line = format_line(ts_ms, level, component, msg, fields);
    line.push('\n');
    // A failed stderr write has nowhere better to report itself.
    let _ = std::io::stderr().lock().write_all(line.as_bytes());
}

/// [`log`] at [`Level::Error`].
pub fn error(component: &str, msg: &str, fields: &[(&str, Json)]) {
    log(Level::Error, component, msg, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(component: &str, msg: &str, fields: &[(&str, Json)]) {
    log(Level::Warn, component, msg, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(component: &str, msg: &str, fields: &[(&str, Json)]) {
    log(Level::Info, component, msg, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(component: &str, msg: &str, fields: &[(&str, Json)]) {
    log(Level::Debug, component, msg, fields);
}

/// Slow-request sampling, shared by every server: when a request's
/// `total_us` reaches the `slow_us` threshold, logs its whole span tree
/// (as `recorder` holds it for `trace_id`) as one `warn` line. A no-op
/// without a threshold, under it, or with `warn` filtered out — so the
/// hot path pays one comparison.
pub fn slow_request(
    component: &str,
    recorder: &Recorder,
    slow_us: Option<u64>,
    trace_id: u64,
    total_us: u64,
) {
    if slow_us.is_none_or(|limit| total_us < limit) || !enabled(Level::Warn) {
        return;
    }
    let spans = recorder.trace_spans(trace_id);
    warn(
        component,
        "slow request",
        &[
            ("trace", Json::from_u64(trace_id)),
            ("total_us", Json::from_u64(total_us)),
            (
                "spans",
                Json::Arr(spans.iter().map(SpanEvent::to_json).collect()),
            ),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_most_severe_first() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn level_parsing_accepts_the_documented_spellings() {
        assert_eq!(Level::parse("error"), Some(Some(Level::Error)));
        assert_eq!(Level::parse(" WARN "), Some(Some(Level::Warn)));
        assert_eq!(Level::parse("warning"), Some(Some(Level::Warn)));
        assert_eq!(Level::parse("info"), Some(Some(Level::Info)));
        assert_eq!(Level::parse("debug"), Some(Some(Level::Debug)));
        assert_eq!(Level::parse("off"), Some(None));
        assert_eq!(Level::parse("none"), Some(None));
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn format_line_is_one_parseable_json_object() {
        let line = format_line(
            1_754_650_000_123,
            Level::Warn,
            "bi-router",
            "backend ejected",
            &[
                ("backend", Json::str("127.0.0.1:9001")),
                ("failures", Json::num(3.0)),
            ],
        );
        assert!(!line.contains('\n'), "one line, always");
        let doc = Json::parse(&line).expect("a log line is valid JSON");
        assert_eq!(doc.get("ts_ms").unwrap().as_u64(), Some(1_754_650_000_123));
        assert_eq!(doc.get("level").unwrap().as_str(), Some("warn"));
        assert_eq!(doc.get("component").unwrap().as_str(), Some("bi-router"));
        assert_eq!(doc.get("msg").unwrap().as_str(), Some("backend ejected"));
        assert_eq!(doc.get("backend").unwrap().as_str(), Some("127.0.0.1:9001"));
        assert_eq!(doc.get("failures").unwrap().as_usize(), Some(3));
    }

    #[test]
    fn format_line_escapes_hostile_messages() {
        let line = format_line(0, Level::Error, "bi-serve", "path \"a\\b\"\nnext", &[]);
        assert!(!line.contains('\n'), "newlines in messages are escaped");
        let doc = Json::parse(&line).unwrap();
        assert_eq!(
            doc.get("msg").unwrap().as_str(),
            Some("path \"a\\b\"\nnext")
        );
    }
}
