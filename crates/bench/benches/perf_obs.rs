//! Observability overhead benchmark: the per-probe cost of the
//! instrumentation that PR 7 threads through the hot paths, written to
//! `BENCH_obs.json` at the workspace root.
//!
//! The number that matters is the **disabled** probe cost — every
//! `count`/`time_ns`/`span!` site in the engine and the network stack
//! pays it even when nobody installed a recorder. That path is one
//! relaxed atomic load plus a predicted branch, and the acceptance bar
//! is ≤ 5 ns/probe. The enabled costs and the flight-recorder push
//! cost (a seqlock write: one `fetch_add` plus five relaxed stores)
//! are reported alongside so regressions in either path show up in
//! the same artifact.
//!
//! Measured per (probe, state): minimum of `REPS` wall-clock runs over
//! a large iteration count, divided down to ns/op.

use rekey_bench::emit::min_secs;
use rekey_obs::{Collector, FlightKind, FlightRecorder};
use std::fmt::Write as _;
use std::sync::Arc;

const REPS: usize = 5;
/// Iterations per timed rep; large enough that `Instant` overhead and
/// loop setup vanish against even the ~1 ns disabled probe.
const ITERS: usize = 4_000_000;

struct Row {
    probe: &'static str,
    state: &'static str,
    ns_per_op: f64,
}

/// Minimum over `REPS` runs of `f` (whole-run seconds), as ns/op.
fn time_min_ns_per_op<F: FnMut()>(f: F) -> f64 {
    min_secs(REPS, f) * 1e9 / ITERS as f64
}

fn bench_probes(state: &'static str, rows: &mut Vec<Row>) {
    rows.push(Row {
        probe: "counter",
        state,
        ns_per_op: time_min_ns_per_op(|| {
            for i in 0..ITERS {
                rekey_obs::count("bench.obs.counter", std::hint::black_box(i as u64) & 1);
            }
        }),
    });
    rows.push(Row {
        probe: "timer",
        state,
        ns_per_op: time_min_ns_per_op(|| {
            for i in 0..ITERS {
                rekey_obs::time_ns("bench.obs.timer", std::hint::black_box(i as u64));
            }
        }),
    });
    rows.push(Row {
        probe: "span",
        state,
        ns_per_op: time_min_ns_per_op(|| {
            for _ in 0..ITERS {
                let guard = rekey_obs::span!("bench.obs.span");
                std::hint::black_box(&guard);
            }
        }),
    });
}

fn main() {
    let host = rekey_bench::emit::HostContext::detect();
    println!(
        "observability probe bench ({} core(s), {})",
        host.available_parallelism, host.rustc
    );

    let mut rows: Vec<Row> = Vec::new();

    // Disabled: no recorder installed; probes must be near-free.
    rekey_obs::uninstall();
    bench_probes("disabled", &mut rows);

    // Enabled: a live Collector behind the global slot.
    let collector = Arc::new(Collector::new());
    rekey_obs::install(collector.clone());
    bench_probes("enabled", &mut rows);
    rekey_obs::uninstall();
    std::hint::black_box(collector.snapshot());

    // Flight-recorder push: wait-free seqlock write into a fixed ring.
    let flight = FlightRecorder::new(4096);
    rows.push(Row {
        probe: "flight_record",
        state: "enabled",
        ns_per_op: time_min_ns_per_op(|| {
            for i in 0..ITERS {
                flight.record(FlightKind::Nack, std::hint::black_box(i as u64), 3);
            }
        }),
    });
    std::hint::black_box(flight.recorded());

    for row in &rows {
        println!(
            "{:<14} {:<9} {:>8.2} ns/op",
            row.probe, row.state, row.ns_per_op
        );
    }
    let disabled_max = rows
        .iter()
        .filter(|r| r.state == "disabled")
        .map(|r| r.ns_per_op)
        .fold(0.0f64, f64::max);
    println!("disabled probe worst case: {disabled_max:.2} ns/op (budget 5.00)");

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"perf_obs\",");
    host.push_json(&mut json, &[]);
    let _ = writeln!(json, "  \"reps_per_point\": {REPS},");
    let _ = writeln!(json, "  \"iters_per_rep\": {ITERS},");
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"probe\": \"{}\", \"state\": \"{}\", \"ns_per_op\": {:.3}}}{sep}",
            r.probe, r.state, r.ns_per_op
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"disabled_probe_max_ns\": {disabled_max:.3}");
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs.json");
    std::fs::write(path, &json).expect("write BENCH_obs.json");
    println!("wrote {path}");
}
