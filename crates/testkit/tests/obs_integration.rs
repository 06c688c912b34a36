//! Integration tests for the observability pipeline: a run of the
//! paper's membership process must export a valid, balanced Chrome
//! trace and a metrics dump, and turning the recorder on must not
//! change a single reported number (the determinism guard, mirroring
//! the engine's byte-identical parallelism property).

use rekey_core::partition::TtManager;
use rekey_obs::Collector;
use rekey_testkit::{
    run_scenario_with, GenParams, IntervalObservation, Paper, RunOptions, RunStats, Workload,
};
use std::sync::{Arc, Mutex, MutexGuard};

/// The global recorder is process-wide state; tests that install one
/// must not overlap.
fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs TT over `intervals` churn intervals of a 300-member paper
/// workload, returning the run statistics and every observation.
fn run(intervals: usize, workers: usize) -> (RunStats, Vec<IntervalObservation>) {
    let params = GenParams {
        bootstrap: 300,
        k: 5,
        ..GenParams::default()
    };
    let scenario = Paper::default().compile(4242, intervals, &params);
    let opts = RunOptions {
        workers,
        check: false,
        ..RunOptions::default()
    };
    let mut seen = Vec::new();
    let stats = run_scenario_with(
        &|_| Box::new(TtManager::new(4, 5)),
        &scenario,
        &opts,
        &mut |obs| seen.push(obs),
    )
    .expect("unchecked run");
    (stats, seen)
}

#[test]
fn sim_run_exports_valid_trace_and_metrics() {
    let _guard = global_lock();
    let collector = Arc::new(Collector::new());
    rekey_obs::install(collector.clone());
    let (stats, _) = run(10, 2);
    rekey_obs::uninstall();

    // The trace validates: well-formed JSON, balanced begin/end per
    // thread, counters with numeric values.
    let trace = collector.chrome_trace_json();
    let summary = rekey_obs::chrome::validate_trace(&trace).expect("exported trace is valid");
    assert_eq!(summary.begin_events, summary.end_events);
    assert!(summary.begin_events > 0, "trace has no spans");

    // Every engine phase shows up, including the parallel workers.
    for phase in [
        "rekey.batch",
        "rekey.mutate",
        "rekey.plan",
        "rekey.execute",
        "rekey.execute.worker",
    ] {
        assert!(
            summary.span_names.contains(phase),
            "span {phase:?} missing from trace (have {:?})",
            summary.span_names
        );
    }
    // Per-interval gauge tracks ride along as counter events.
    for track in [
        "sim.joins",
        "sim.leaves",
        "sim.migrations",
        "sim.encrypted_keys",
        "sim.message_bytes",
    ] {
        assert!(
            summary.counter_names.contains(track),
            "counter {track:?} missing from trace"
        );
    }

    // The metrics dump carries the crypto counters and the bandwidth
    // gauges in Prometheus text form.
    let metrics = collector.prometheus_text();
    for needle in [
        "crypto_chacha20_blocks_total",
        "crypto_hmac_total",
        "crypto_keywrap_wrap_total",
        "rekey_encrypted_keys_total",
        "rekey_execute_seconds",
        "sim_message_bytes",
    ] {
        assert!(
            metrics.contains(needle),
            "metrics dump missing {needle}:\n{metrics}"
        );
    }
    assert!(stats.total_entries > 0);
}

#[test]
fn tracing_does_not_change_reported_numbers() {
    let _guard = global_lock();
    let plain = run(10, 1);
    rekey_obs::install(Arc::new(Collector::new()));
    let traced = run(10, 1);
    rekey_obs::uninstall();

    // Statistics (the wire digest included) and every per-interval
    // measurement except the wall clock are identical.
    assert_eq!(plain.0, traced.0);
    let strip = |seen: &[IntervalObservation]| -> Vec<_> {
        seen.iter()
            .map(|o| (o.interval, o.bytes, o.entries, o.members))
            .collect()
    };
    assert_eq!(strip(&plain.1), strip(&traced.1));
}

#[test]
fn message_bytes_accompany_encrypted_keys() {
    // Every entry carries a header plus a 60-byte wrapped key, and
    // even an empty message has a header.
    let (_, seen) = run(8, 1);
    for obs in &seen {
        assert!(
            obs.bytes > 60 * obs.entries,
            "interval {}: {} bytes for {} keys",
            obs.interval,
            obs.bytes,
            obs.entries
        );
    }
}
