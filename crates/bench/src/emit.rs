//! Shared timing and emit helpers for the perf benches and their
//! `BENCH_*.json` reports.
//!
//! Every perf bench times its kernels with [`min_secs`], and every
//! perf bench that writes a report (and the `rekey workload` sweep)
//! emits a hand-rolled JSON report with the same host-context header:
//! `available_parallelism`, `rustc`, and the externally supplied
//! `BENCH_TIMESTAMP`. The escaping, toolchain probing, and header
//! layout used to be copy-pasted per bench; this module is the single
//! implementation, and the byte layout it emits matches the existing
//! committed `BENCH_*.json` files exactly.

use std::fmt::Write as _;
use std::time::Instant;

/// Minimum wall-clock seconds over `reps` runs of `f`: the least
/// disturbed run on a shared host.
pub fn min_secs<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut min = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        min = min.min(start.elapsed().as_secs_f64());
    }
    min
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The `rustc --version` line of the toolchain on `PATH`, or
/// `"unknown"`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|v| v.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host-context fields every `BENCH_*.json` report carries.
#[derive(Debug, Clone)]
pub struct HostContext {
    /// `std::thread::available_parallelism()` (1 on error).
    pub available_parallelism: usize,
    /// Output of [`rustc_version`].
    pub rustc: String,
    /// The `BENCH_TIMESTAMP` environment variable, if set (timestamps
    /// are injected, never sampled, so reports stay reproducible).
    pub timestamp: Option<String>,
}

impl HostContext {
    /// Probes the current host and environment.
    pub fn detect() -> Self {
        HostContext {
            available_parallelism: std::thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(1),
            rustc: rustc_version(),
            timestamp: std::env::var("BENCH_TIMESTAMP").ok(),
        }
    }

    /// Appends the standard two-space-indented host block —
    /// `  "host": { ... },\n` — optionally with extra pre-rendered
    /// lines (e.g. `perf_crypto`'s `cpu_features`) between
    /// `available_parallelism` and `rustc`. Byte-compatible with the
    /// blocks the benches used to emit inline.
    pub fn push_json(&self, json: &mut String, extra_lines: &[String]) {
        json.push_str("  \"host\": {\n");
        let _ = writeln!(
            json,
            "    \"available_parallelism\": {},",
            self.available_parallelism
        );
        for line in extra_lines {
            json.push_str(line);
            if !line.ends_with('\n') {
                json.push('\n');
            }
        }
        let _ = writeln!(json, "    \"rustc\": \"{}\",", json_escape(&self.rustc));
        match &self.timestamp {
            Some(ts) => {
                let _ = writeln!(json, "    \"timestamp\": \"{}\"", json_escape(ts));
            }
            None => json.push_str("    \"timestamp\": null\n"),
        }
        json.push_str("  },\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_secs_runs_every_rep() {
        let mut runs = 0;
        let secs = min_secs(3, || runs += 1);
        assert_eq!(runs, 3);
        assert!(secs.is_finite() && secs >= 0.0);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t\r"), "x\\n\\t\\r");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn host_block_shape() {
        let host = HostContext {
            available_parallelism: 4,
            rustc: "rustc 1.0.0".into(),
            timestamp: None,
        };
        let mut json = String::new();
        host.push_json(&mut json, &[]);
        assert_eq!(
            json,
            "  \"host\": {\n    \"available_parallelism\": 4,\n    \"rustc\": \"rustc 1.0.0\",\n    \"timestamp\": null\n  },\n"
        );

        let mut with_ts = String::new();
        HostContext {
            timestamp: Some("2026-01-01T00:00:00Z".into()),
            ..host.clone()
        }
        .push_json(&mut with_ts, &["    \"cores_extra\": true,".into()]);
        assert!(with_ts.contains("\"cores_extra\": true,\n    \"rustc\""));
        assert!(with_ts.contains("\"timestamp\": \"2026-01-01T00:00:00Z\"\n"));
    }
}
