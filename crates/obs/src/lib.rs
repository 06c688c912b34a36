//! Zero-dependency tracing, metrics, and per-phase profiling for the
//! `rekey` workspace.
//!
//! The paper's claims are *measurements* (key-server bandwidth,
//! transport bandwidth), and every performance PR needs to know where
//! cycles and bytes go. This crate provides the observability substrate
//! the rest of the workspace instruments itself with:
//!
//! - [`span!`] — RAII scoped timers (`let _s = span!("rekey.plan");`)
//!   that record wall-clock spans per thread,
//! - [`count`] — monotonic counters (crypto ops, encrypted keys),
//! - [`sample`] — timestamped gauge samples (per-interval series),
//! - [`hist::Log2Histogram`] — fixed-bucket log₂ histograms giving
//!   p50/p90/p99/max without allocation per sample,
//! - [`Recorder`] — the sink trait; [`Collector`] is the standard
//!   in-memory implementation,
//! - [`chrome`] — Chrome `trace_event` JSON export (loadable in
//!   `about:tracing` / [Perfetto](https://ui.perfetto.dev)) plus a
//!   validator for the emitted format,
//! - [`prom`] — Prometheus text exposition (`# HELP`/`# TYPE`,
//!   cumulative histogram buckets) plus a validator for the format,
//! - [`flight::FlightRecorder`] — a lock-free ring of structured
//!   events ("what was the daemon doing right before the failure"),
//!   dumped as JSONL,
//! - [`admin`] — a zero-dependency HTTP/1.0 admin plane (`/metrics`,
//!   `/healthz`, `/readyz`, `/vars`, `/flightrec`) and the matching
//!   [`admin::http_get`] client used by `rekey top` and CI probes,
//! - [`json`] — the in-house JSON parser backing the validators and
//!   admin pollers.
//!
//! # Global or injected
//!
//! Instrumented code records through the process-global recorder
//! ([`install`] / [`uninstall`]). When nothing is installed every
//! probe is one relaxed atomic load and a predictable branch — cheap
//! enough for per-call sites inside ChaCha20 and HMAC. Code that wants
//! explicit wiring can instead hold an `Arc<Collector>` (or any
//! [`Recorder`]) and call its methods directly; the global hooks are a
//! convenience, not a requirement.
//!
//! # Example
//!
//! ```
//! use rekey_obs::{Collector, span};
//! use std::sync::Arc;
//!
//! let collector = Arc::new(Collector::new());
//! rekey_obs::install(collector.clone());
//! {
//!     let _outer = span!("work.outer");
//!     let _inner = span!("work.inner");
//!     rekey_obs::count("work.items", 3);
//! }
//! rekey_obs::uninstall();
//!
//! let snap = collector.snapshot();
//! assert_eq!(snap.counter("work.items"), 3);
//! let json = collector.chrome_trace_json();
//! rekey_obs::chrome::validate_trace(&json).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod chrome;
pub mod flight;
pub mod hist;
pub mod json;
pub mod prom;

mod collect;
mod error;
mod recorder;

pub use admin::{AdminServer, AdminState, HealthFlags};
pub use collect::{Collector, MetricsSnapshot, SampleEvent, SpanEvent};
pub use error::ObsError;
pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use recorder::{
    count, enabled, install, intern, now_ns, sample, thread_id, time_ns, total_time_ns, uninstall,
    Recorder, SpanGuard,
};

/// Opens a scoped wall-clock span: the returned guard records the span
/// to the global [`Recorder`] when dropped. Bind it to a named `_xyz`
/// variable — `let _ = span!(..)` drops immediately.
///
/// When no recorder is installed the guard is inert and costs one
/// atomic load.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::new($name)
    };
}
