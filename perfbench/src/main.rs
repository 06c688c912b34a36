//! End-to-end epoch benchmark for the `rekey` key server.
//!
//! Drives the real epoch pipeline — membership batch → engine →
//! epoch WAL append + fsync → fan-out on a loopback `rekeyd` → DEK
//! install on two probe members over TCP — in a closed loop: epoch
//! *i + 1* starts only once epoch *i* is durable and installed, so the
//! run measures the shortest rekey period the server sustains.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-steady --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-check
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer split (layer wrappers on, a `rekey_obs::Collector`
//! installed, bench spans written to `perfbench/run/`). The last line
//! of standard output is one JSON object; the exit code is non-zero
//! when any output check fails.

mod metrics;
mod pipeline;
mod workload;

use metrics::{Counters, Traced, END_TO_END, PER_LAYER};
use pipeline::{Sample, Stack, SNAPSHOT_EVERY};
use rekey_bench::emit::{json_escape, HostContext};
use rekey_obs::Collector;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workload::{Batch, Spec, Workload};

/// Set-ups per run: at least `MIN_SETUPS`, and more while they have
/// taken less than `SETUP_SECONDS` in all (cheap set-ups are noisy);
/// `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_SECONDS: f64 = 1.0;

/// Rounds that `epochs_per_s` takes its median over.
const ROUNDS: usize = 5;

/// A tail percentile needs ten samples beyond it: p95 needs 200.
const MIN_TIMED_EPOCHS: usize = 200;

/// Distinct KEKs in the crypto unit-cost measurement.
const CRYPTO_KEKS: usize = 4096;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-check" {
            args.self_check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// How much a run does.
#[derive(Debug, Clone, Copy)]
struct Plan {
    timed_epochs: usize,
    min_setups: usize,
}

impl Plan {
    /// A fixed amount of work per (workload, seconds): about `seconds`
    /// of epochs at the workload's reference rate, at least
    /// [`MIN_TIMED_EPOCHS`], in whole cycles. Identical inputs on every
    /// run of a seed, whatever the speed of the program.
    fn for_seconds(spec: &Spec, seconds: f64) -> Plan {
        let epochs = ((seconds * spec.epochs_per_second).round() as usize).max(MIN_TIMED_EPOCHS);
        Plan {
            timed_epochs: epochs.div_ceil(spec.cycle) * spec.cycle,
            min_setups: MIN_SETUPS,
        }
    }
}

/// Splits `n` timed epochs into about [`ROUNDS`] contiguous rounds of
/// whole cycles; the last round takes the remainder.
fn rounds(n: usize, cycle: usize) -> Vec<std::ops::Range<usize>> {
    let len = (n / cycle / ROUNDS).max(1) * cycle;
    let count = (n / len).max(1);
    (0..count)
        .map(|r| r * len..if r + 1 == count { n } else { (r + 1) * len })
        .collect()
}

/// Traced runs alternate traced and untraced blocks of this many
/// epochs, so one run also measures the tracing overhead. A block is a
/// whole snapshot cadence (or crowd cycle), so both halves see the
/// same mix of epochs.
fn trace_block(spec: &Spec) -> usize {
    spec.cycle.max(SNAPSHOT_EVERY as usize)
}

/// What one run produced.
struct RunOutput {
    attempted: u64,
    failure: Option<String>,
    metrics: BTreeMap<&'static str, f64>,
    input_digest: u64,
    wire_digest: Option<[u8; 32]>,
    /// Share of host CPU time stolen by other guests while the timed
    /// epochs ran.
    steal: f64,
    /// Bench spans of the traced epochs, as JSON lines.
    spans: String,
}

fn bench_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("run")
}

fn keytree_totals() -> [u64; 3] {
    ["rekey.mutate", "rekey.plan", "rekey.execute"].map(rekey_obs::total_time_ns)
}

fn run(spec: &Spec, seed: u64, plan: Plan, trace: bool) -> RunOutput {
    let mut out = RunOutput {
        attempted: 0,
        failure: None,
        metrics: BTreeMap::new(),
        input_digest: 0,
        wire_digest: None,
        steal: 0.0,
        spans: String::new(),
    };
    if let Err(e) = run_into(spec, seed, plan, trace, &mut out) {
        out.failure = Some(e);
    }
    out
}

fn run_into(
    spec: &Spec,
    seed: u64,
    plan: Plan,
    trace: bool,
    out: &mut RunOutput,
) -> Result<(), String> {
    let dir = bench_dir().join(format!("data-{}-{}", spec.name, std::process::id()));
    // Inputs are generated before any clock starts.
    let mut workload = Workload::new(spec, seed);
    let setup: Vec<Batch> = (0..=spec.warmup_epochs)
        .map(|_| workload.next_batch())
        .collect();
    let timed: Vec<Batch> = (0..plan.timed_epochs)
        .map(|_| workload.next_batch())
        .collect();
    out.input_digest = workload.digest();

    let mut setup_s = Vec::new();
    let mut bootstrap_core_ms = Vec::new();
    let mut stack: Option<Stack> = None;
    while setup_s.len() < plan.min_setups
        || (setup_s.iter().sum::<f64>() < SETUP_SECONDS && setup_s.len() < MAX_SETUPS)
    {
        if let Some(previous) = stack.take() {
            previous.finish()?;
        }
        let started = Instant::now();
        let mut s = Stack::open(spec, seed, &dir)?;
        out.attempted += 1;
        let boot = s.epoch(&setup[0], true)?;
        bootstrap_core_ms.extend(
            boot.calls
                .iter()
                .filter(|c| c.name == "core.process_interval")
                .map(|c| c.ns() as f64 / 1e6),
        );
        s.start_probes(seed)?;
        for batch in &setup[1..] {
            out.attempted += 1;
            s.epoch(batch, false)?;
        }
        setup_s.push(started.elapsed().as_secs_f64());
        stack = Some(s);
    }
    let mut stack = stack.ok_or("no set-up ran")?;

    let collector = Arc::new(Collector::new());
    let block = trace_block(spec);
    let net_before = stack.net_counters();
    let jiffies_before = metrics::cpu_jiffies();
    let (mut traced, mut untraced, mut keytree) = (Vec::new(), Vec::new(), Vec::new());
    for (i, batch) in timed.iter().enumerate() {
        let on = trace && (i / block).is_multiple_of(2);
        if on && !rekey_obs::enabled() {
            rekey_obs::install(collector.clone());
        } else if !on && rekey_obs::enabled() {
            rekey_obs::uninstall();
        }
        let before = if on { keytree_totals() } else { [0; 3] };
        out.attempted += 1;
        let sample = stack.epoch(batch, on);
        if sample.is_err() {
            rekey_obs::uninstall();
        }
        let sample = sample?;
        if on {
            let after = keytree_totals();
            keytree.push([0, 1, 2].map(|k| after[k] - before[k]));
            traced.push(sample);
        } else {
            untraced.push(sample);
        }
    }
    rekey_obs::uninstall();
    let jiffies_after = metrics::cpu_jiffies();
    out.steal = (jiffies_after.0 - jiffies_before.0) as f64
        / (jiffies_after.1 - jiffies_before.1).max(1) as f64;
    let net_after = stack.net_counters();
    let (wire, reconnects) = stack.finish()?;
    out.wire_digest = Some(wire);

    if !trace {
        let rounds = rounds(untraced.len(), spec.cycle);
        out.metrics = metrics::end_to_end(&untraced, &rounds, &setup_s);
        return Ok(());
    }
    let snap = collector.snapshot();
    let counters = Counters {
        wraps: snap.counter("crypto.keywrap.wrap") as f64,
        unwraps: snap.counter("crypto.keywrap.unwrap") as f64,
        hkdf: snap.counter("crypto.hkdf") as f64,
        net_bytes_out: (net_after.bytes_out - net_before.bytes_out) as f64,
        net_retries: (net_after.nacks - net_before.nacks + net_after.backpressure_drops
            - net_before.backpressure_drops
            + reconnects) as f64,
    };
    out.metrics = metrics::per_layer(&Traced {
        traced: &traced,
        untraced: &untraced,
        keytree: &keytree,
        counters,
        timed_epochs: plan.timed_epochs,
        bootstrap_core_ms: &bootstrap_core_ms,
        crypto: metrics::crypto_unit_costs(CRYPTO_KEKS, 5, seed),
    });
    out.spans = spans_jsonl(&traced);
    Ok(())
}

/// The bench's own spans for the traced epochs, one JSON object per
/// line: every layer call is a child of its epoch's
/// `persist.durable_interval` span, which (with the probes'
/// `net.install`) is a child of the epoch span. Times are nanoseconds
/// since the first traced epoch started.
fn spans_jsonl(traced: &[Sample]) -> String {
    let Some(origin) = traced.first().map(|s| s.start) else {
        return String::new();
    };
    let mut out = String::new();
    let mut id = 0u64;
    let mut span = |out: &mut String,
                    parent: u64,
                    name: &str,
                    epoch: usize,
                    a: Instant,
                    b: Instant| {
        id += 1;
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"epoch\":{epoch},\"name\":\"{name}\",\"start_ns\":{},\"dur_ns\":{}}}",
            a.duration_since(origin).as_nanos(),
            b.saturating_duration_since(a).as_nanos()
        );
        id
    };
    for (epoch, s) in traced.iter().enumerate() {
        let root = span(
            &mut out,
            0,
            "epoch",
            epoch,
            s.start,
            s.returned.max(s.installed),
        );
        let persist = span(
            &mut out,
            root,
            "persist.durable_interval",
            epoch,
            s.start,
            s.returned,
        );
        for call in &s.calls {
            span(&mut out, persist, call.name, epoch, call.start, call.end);
        }
        span(
            &mut out,
            root,
            "net.install",
            epoch,
            s.published(),
            s.installed,
        );
    }
    out
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        let _ = write!(s, "{b:02x}");
        s
    })
}

/// The run's host and configuration context, as one JSON object.
fn context_json(spec: &Spec, seed: u64, plan: Plan, trace: bool) -> String {
    let host = HostContext::detect();
    format!(
        "{{\"workload\":\"{}\",\"why\":\"{}\",\"scheme\":\"{}\",\"d\":{},\"k\":{},\"seed\":{seed},\
         \"trace\":{trace},\"timed_epochs\":{},\"warmup_epochs\":{},\"min_setups\":{},\
         \"nproc\":{},\"rustc\":\"{}\",\"simd\":\"{}\",\"rekey_simd_env\":\"{}\",\
         \"data_dir_fs\":\"{}\",\"fsync_per_epoch\":1,\"snapshot_every\":{SNAPSHOT_EVERY}}}",
        spec.name,
        json_escape(spec.why),
        spec.scheme,
        spec.degree,
        spec.k,
        plan.timed_epochs,
        spec.warmup_epochs,
        plan.min_setups,
        host.available_parallelism,
        json_escape(&host.rustc),
        rekey_crypto::simd::active().name(),
        json_escape(&std::env::var("REKEY_SIMD").unwrap_or_default()),
        json_escape(&metrics::filesystem_of(&bench_dir())),
    )
}

/// The metric table a run reports: per-layer when traced.
fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Prints the human-readable report and the final JSON line.
fn report(spec: &Spec, seed: u64, trace: bool, out: &RunOutput) {
    let failed = u64::from(out.failure.is_some());
    println!(
        "{} seed {seed}: inputs fnv1a {:016x}, wire sha256 {}, host cpu steal {:.1}%",
        spec.name,
        out.input_digest,
        out.wire_digest.map_or_else(|| "-".to_string(), |d| hex(&d)),
        out.steal * 100.0,
    );
    let mut json = String::new();
    for (name, unit) in table(trace) {
        if let Some(value) = out.metrics.get(name) {
            println!("  {name:<26} {value:>14.4} {unit}");
            let _ = write!(
                json,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if json.is_empty() { "" } else { ", " }
            );
        }
    }
    println!(
        "  {:<26} {:>14.4} (failed {failed} of {} epochs)",
        "fail_ratio",
        failed as f64 / out.attempted.max(1) as f64,
        out.attempted
    );
    if let Some(unaccounted) = out.metrics.get("layers.unaccounted") {
        if *unaccounted > 0.10 {
            println!(
                "  WARNING: the layers explain only {:.1}% of epoch time on {}",
                (1.0 - unaccounted) * 100.0,
                spec.name
            );
        }
    }
    if let Some(failure) = &out.failure {
        println!("  FAILED: {failure}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        out.failure.is_none(),
        out.attempted.max(1),
    );
}

/// Every workload, a few epochs each, traced and untraced: every metric
/// of `BENCHMARK.json` is emitted with its unit, and the output checks
/// pass.
fn self_check() -> Result<(), String> {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&manifest)
        .map_err(|e| format!("reading {}: {e}", manifest.display()))?;
    let doc = rekey_obs::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let listed = |key: &str, field: &str| -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_default()
            .iter()
            .filter_map(|m| m.get(field).and_then(|v| v.as_str()).map(str::to_string))
            .collect()
    };
    for (field, want) in [
        ("name", workload::ALL.map(|s| s.name)),
        ("why", workload::ALL.map(|s| s.why)),
    ] {
        if listed("workloads", field) != want {
            return Err(format!(
                "BENCHMARK.json workload {field}s differ from {want:?}"
            ));
        }
    }
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want: Vec<(String, String)> = table(trace)
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let have: Vec<(String, String)> = listed(key, "name")
            .into_iter()
            .zip(listed(key, "unit"))
            .collect();
        if have != want {
            return Err(format!(
                "BENCHMARK.json {key} differs from the emitted metrics"
            ));
        }
    }
    for spec in workload::ALL {
        for trace in [false, true] {
            let plan = Plan {
                timed_epochs: 2 * trace_block(&spec),
                min_setups: 1,
            };
            let out = run(&spec, 1, plan, trace);
            report(&spec, 1, trace, &out);
            if let Some(failure) = out.failure {
                return Err(format!("{} trace={trace}: {failure}", spec.name));
            }
            for (name, _) in table(trace) {
                match out.metrics.get(name) {
                    Some(v) if v.is_finite() => {}
                    _ => return Err(format!("{}: metric {name} missing", spec.name)),
                }
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        return match self_check() {
            Ok(()) => {
                println!("self-check OK");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("self-check FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(spec) = args.workload.as_deref().and_then(workload::by_name) else {
        let names: Vec<_> = workload::ALL.iter().map(|s| s.name).collect();
        eprintln!("error: --workload must be one of {names:?}");
        return ExitCode::from(2);
    };
    let plan = Plan::for_seconds(&spec, args.seconds);
    println!(
        "context {}",
        context_json(&spec, args.seed, plan, args.trace)
    );
    let out = run(&spec, args.seed, plan, args.trace);
    if args.trace && !out.spans.is_empty() {
        let path = bench_dir().join(format!("trace-{}-seed{}.jsonl", spec.name, args.seed));
        if let Err(e) = std::fs::write(&path, &out.spans) {
            eprintln!("warning: writing {}: {e}", path.display());
        } else {
            println!("spans written to {}", path.display());
        }
    }
    report(&spec, args.seed, args.trace, &out);
    if out.failure.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
