//! Turning epoch samples into the benchmark's metrics, plus the host
//! context and the distinct-KEK crypto unit costs.

use crate::pipeline::Sample;
use rekey_crypto::keywrap::WrapKek;
use rekey_crypto::Key;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// End-to-end metrics (untraced runs), with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p95", "ms"),
    ("epochs_per_s", "1/s"),
    ("keys_per_epoch", "keys"),
    ("wire_bytes_per_epoch", "B"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs), with their units.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("core.process_ms_p50", "ms"),
    ("core.share", "ratio"),
    ("core.ns_per_key", "ns"),
    ("setup.bootstrap_ms", "ms"),
    ("keytree.mutate_ms", "ms"),
    ("keytree.plan_ms", "ms"),
    ("keytree.execute_ms", "ms"),
    ("crypto.wraps_per_epoch", "count"),
    ("crypto.hkdf_per_wrap", "ratio"),
    ("crypto.unwraps_per_epoch", "count"),
    ("crypto.kek_setup_us", "us"),
    ("crypto.wrap_us", "us"),
    ("crypto.unwrap_us", "us"),
    ("crypto.share_est", "ratio"),
    ("persist.commit_us_p50", "us"),
    ("storage.sync_us_p50", "us"),
    ("storage.snapshot_ms_p50", "ms"),
    ("storage.flushes_per_epoch", "count"),
    ("storage.bytes_per_epoch", "B"),
    ("net.publish_us_p50", "us"),
    ("net.install_ms_p50", "ms"),
    ("net.bytes_out_per_epoch", "B"),
    ("net.retries", "count"),
    ("obs.trace_overhead", "ratio"),
    ("layers.unaccounted", "ratio"),
];

/// The `q`-quantile of `values`, interpolating linearly between the
/// two nearest ranks (0 for no values).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of an untraced run. `epochs_per_s` is the
/// median over `rounds` (contiguous runs of whole cycles) of each
/// round's epochs per second of epoch time, so that one burst of
/// outside load moves at most one round.
pub fn end_to_end(
    samples: &[Sample],
    rounds: &[std::ops::Range<usize>],
    setup_s: &[f64],
) -> BTreeMap<&'static str, f64> {
    let epoch_ms: Vec<f64> = samples.iter().map(|s| s.ns() as f64 / 1e6).collect();
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| {
            ratio(
                r.len() as f64,
                epoch_ms[r.clone()].iter().sum::<f64>() / 1e3,
            )
        })
        .collect();
    let n = samples.len() as f64;
    BTreeMap::from([
        ("setup_s", median(setup_s)),
        ("epoch_ms_p50", median(&epoch_ms)),
        ("epoch_ms_p95", quantile(&epoch_ms, 0.95)),
        ("epochs_per_s", median(&rates)),
        (
            "keys_per_epoch",
            ratio(samples.iter().map(|s| s.keys as f64).sum(), n),
        ),
        (
            "wire_bytes_per_epoch",
            ratio(samples.iter().map(|s| s.wire_bytes as f64).sum(), n),
        ),
        ("peak_rss_mb", peak_rss_mb()),
    ])
}

/// Per-epoch layer times of one traced epoch, in nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
struct LayerSplit {
    epoch: f64,
    core: f64,
    save_state: f64,
    storage: f64,
    sync: f64,
    /// `write_snapshot` + `reset_wal`, 0 on epochs without a snapshot.
    snapshot: f64,
    flushes: f64,
    storage_bytes: f64,
    publish: f64,
    install: f64,
    /// `durable_interval`'s self time.
    persist: f64,
    /// Layer time on the critical path.
    critical: f64,
}

impl LayerSplit {
    fn of(sample: &Sample) -> LayerSplit {
        let mut split = LayerSplit {
            epoch: sample.ns() as f64,
            ..LayerSplit::default()
        };
        for call in &sample.calls {
            let ns = call.ns() as f64;
            match call.name {
                "core.process_interval" => split.core += ns,
                "core.save_state" => split.save_state += ns,
                "net.publish" => split.publish += ns,
                name => {
                    split.storage += ns;
                    split.storage_bytes += call.bytes as f64;
                    match name {
                        "storage.sync_wal" => split.sync += ns,
                        "storage.write_snapshot" | "storage.reset_wal" => split.snapshot += ns,
                        _ => {}
                    }
                    if name != "storage.append_wal" {
                        split.flushes += 1.0;
                    }
                }
            }
        }
        let persist_span = sample.returned.duration_since(sample.start).as_nanos() as f64;
        split.persist =
            (persist_span - split.core - split.save_state - split.storage - split.publish).max(0.0);
        split.install = sample
            .installed
            .saturating_duration_since(sample.published())
            .as_nanos() as f64;
        // The snapshot runs after fan-out, while the probes install:
        // of the two, only the longer one is on the critical path.
        let snapshot = split.save_state + split.snapshot;
        split.critical = split.core
            + (split.storage - split.snapshot)
            + split.publish
            + split.persist
            + snapshot.max(split.install);
        split
    }
}

/// Program counters read over a run's traced epochs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub wraps: f64,
    pub unwraps: f64,
    pub hkdf: f64,
    pub net_bytes_out: f64,
    pub net_retries: f64,
}

/// Distinct-KEK unit costs in microseconds: (KEK setup, wrap, unwrap).
pub type CryptoCosts = (f64, f64, f64);

/// Inputs of [`per_layer`].
pub struct Traced<'a> {
    pub traced: &'a [Sample],
    pub untraced: &'a [Sample],
    /// Per traced epoch: `rekey.mutate`, `rekey.plan`, `rekey.execute`
    /// nanoseconds.
    pub keytree: &'a [[u64; 3]],
    pub counters: Counters,
    /// Timed epochs, traced or not (the daemon counters span them all).
    pub timed_epochs: usize,
    pub bootstrap_core_ms: &'a [f64],
    pub crypto: CryptoCosts,
}

/// The per-layer metrics of a traced run.
pub fn per_layer(t: &Traced) -> BTreeMap<&'static str, f64> {
    let splits: Vec<LayerSplit> = t.traced.iter().map(LayerSplit::of).collect();
    let col = |f: fn(&LayerSplit) -> f64| splits.iter().map(f).collect::<Vec<f64>>();
    let sum = |f: fn(&LayerSplit) -> f64| splits.iter().map(f).sum::<f64>();
    let n = splits.len() as f64;
    let epoch_sum = sum(|s| s.epoch);
    let keys: f64 = t.traced.iter().map(|s| s.keys as f64).sum();
    let keytree = |i: usize| {
        median(
            &t.keytree
                .iter()
                .map(|k| k[i] as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let syncs: Vec<f64> = splits
        .iter()
        .filter(|s| s.sync > 0.0)
        .map(|s| s.sync / 1e3)
        .collect();
    let snapshots: Vec<f64> = splits
        .iter()
        .filter(|s| s.snapshot > 0.0)
        .map(|s| s.snapshot / 1e6)
        .collect();
    let c = t.counters;
    let (kek_setup_us, wrap_us, unwrap_us) = t.crypto;
    // Each `WrapKek::new` runs two HKDF derivations.
    let crypto_us =
        (c.wraps * wrap_us + c.unwraps * unwrap_us + c.hkdf / 2.0 * kek_setup_us) / n.max(1.0);
    let p50 =
        |samples: &[Sample]| median(&samples.iter().map(|s| s.ns() as f64).collect::<Vec<_>>());
    BTreeMap::from([
        ("core.process_ms_p50", median(&col(|s| s.core)) / 1e6),
        (
            "core.share",
            ratio(sum(|s| s.core + s.save_state), epoch_sum),
        ),
        ("core.ns_per_key", ratio(sum(|s| s.core), keys)),
        ("setup.bootstrap_ms", median(t.bootstrap_core_ms)),
        ("keytree.mutate_ms", keytree(0)),
        ("keytree.plan_ms", keytree(1)),
        ("keytree.execute_ms", keytree(2)),
        ("crypto.wraps_per_epoch", ratio(c.wraps, n)),
        ("crypto.hkdf_per_wrap", ratio(c.hkdf, c.wraps)),
        ("crypto.unwraps_per_epoch", ratio(c.unwraps, n)),
        ("crypto.kek_setup_us", kek_setup_us),
        ("crypto.wrap_us", wrap_us),
        ("crypto.unwrap_us", unwrap_us),
        ("crypto.share_est", ratio(crypto_us * 1e3 * n, epoch_sum)),
        ("persist.commit_us_p50", median(&col(|s| s.persist)) / 1e3),
        ("storage.sync_us_p50", median(&syncs)),
        ("storage.snapshot_ms_p50", median(&snapshots)),
        ("storage.flushes_per_epoch", ratio(sum(|s| s.flushes), n)),
        (
            "storage.bytes_per_epoch",
            ratio(sum(|s| s.storage_bytes), n),
        ),
        ("net.publish_us_p50", median(&col(|s| s.publish)) / 1e3),
        ("net.install_ms_p50", median(&col(|s| s.install)) / 1e6),
        (
            "net.bytes_out_per_epoch",
            ratio(c.net_bytes_out, t.timed_epochs as f64),
        ),
        ("net.retries", c.net_retries),
        (
            "obs.trace_overhead",
            ratio(p50(t.traced), p50(t.untraced)) - 1.0,
        ),
        (
            "layers.unaccounted",
            1.0 - ratio(sum(|s| s.critical), epoch_sum),
        ),
    ])
}

/// Times `WrapKek::new`, `wrap` and `unwrap` on `n` distinct KEKs —
/// the shape the engine runs, where a KEK wraps one or a few entries —
/// and returns the median over `reps` repetitions of the per-call
/// microseconds.
pub fn crypto_unit_costs(n: usize, reps: usize, seed: u64) -> CryptoCosts {
    let mut rng = crate::workload::Rng::new(seed ^ 0x6b656b);
    let keks: Vec<Key> = (0..n).map(|_| rng.key()).collect();
    let payloads: Vec<Key> = (0..n).map(|_| rng.key()).collect();
    let (mut setup, mut wrap, mut unwrap) = (Vec::new(), Vec::new(), Vec::new());
    let per_call_us = |t: Instant| t.elapsed().as_secs_f64() * 1e6 / n as f64;
    for _ in 0..reps {
        let t = Instant::now();
        let prepared: Vec<WrapKek> = keks.iter().map(|k| WrapKek::new(black_box(k))).collect();
        setup.push(per_call_us(t));
        let t = Instant::now();
        let wrapped: Vec<_> = prepared
            .iter()
            .zip(&payloads)
            .enumerate()
            .map(|(i, (kek, payload))| {
                let mut nonce = [0u8; 12];
                nonce[..8].copy_from_slice(&(i as u64).to_le_bytes());
                kek.wrap_with_nonce(black_box(payload), nonce)
            })
            .collect();
        wrap.push(per_call_us(t));
        let t = Instant::now();
        let ok = prepared
            .iter()
            .zip(&wrapped)
            .zip(&payloads)
            .all(|((kek, w), payload)| kek.unwrap(black_box(w)).as_ref() == Ok(payload));
        unwrap.push(per_call_us(t));
        assert!(ok, "distinct-KEK round trip failed");
    }
    (median(&setup), median(&wrap), median(&unwrap))
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative (steal, total) CPU jiffies of the host, from
/// `/proc/stat`: time the hypervisor gave this machine's CPUs to other
/// guests, which slows every timed epoch.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// The filesystem type and device that `path` lives on, from
/// `/proc/mounts` (longest mount-point prefix).
pub fn filesystem_of(path: &std::path::Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (device, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), format!("{fstype} on {device}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}
