//! Crypto kernel benchmark: per-backend (scalar/sse2/avx2) throughput
//! of the three SIMD-dispatched kernels plus keywrap, written to
//! `BENCH_crypto.json` at the workspace root.
//!
//! The headline metric is **encrypted keys per second** — the
//! denominator of every cost model in the repo (the paper counts
//! rekey cost in encrypted keys; this bench says how many of those a
//! second of CPU buys). Bulk kernels additionally report MB/sec, and
//! keywrap reports the equivalent wire MB/sec (keys/sec × the 60-byte
//! wire size). `keywrap_distinct_kek` (one KEK setup per key, the
//! shape the key server runs) is the whole-stack figure;
//! `keywrap_batch` (4 096 keys under one KEK) isolates the per-wrap
//! cipher + MAC cost and overstates what the engine reaches.
//!
//! Backends are swept with the explicit `*_with` kernel entry points
//! (and `rekey_crypto::simd::force` for the whole-stack keywrap path),
//! so one process measures every tier the CPU supports back to back.
//! The `scalar_vs_best` block records the speedup of the best
//! supported tier over scalar per kernel; on hosts with no SIMD it
//! honestly records 1.0.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_bench::emit::min_secs;
use rekey_crypto::keywrap::{WrapKek, WRAPPED_LEN};
use rekey_crypto::simd::{self, Backend};
use rekey_crypto::{chacha20, sha256, Key};
use rekey_transport::gf256;
use std::fmt::Write as _;

/// Bulk-kernel buffer size: large enough that the multi-block ChaCha20
/// lanes and the GF(256) vector loop dominate setup cost.
const BUF_LEN: usize = 16 * 1024;

/// Keys wrapped per keywrap rep: one batch through a cached KEK for
/// `keywrap_batch`, one key under each of this many distinct KEKs for
/// `keywrap_distinct_kek`.
const WRAP_KEYS: usize = 4096;

const REPS: usize = 5;

struct Row {
    kernel: &'static str,
    backend: Backend,
    mb_per_s: f64,
    /// Encrypted keys per second; only for the keywrap kernels.
    keys_per_s: Option<f64>,
}

fn bench_chacha20(backend: Backend, rows: &mut Vec<Row>) {
    let key = [7u8; 32];
    let nonce = [9u8; 12];
    let mut buf = vec![0x5Au8; BUF_LEN];
    const ITERS: usize = 64;
    let secs = min_secs(REPS, || {
        for i in 0..ITERS {
            chacha20::xor_in_place_with(backend, &key, &nonce, i as u32, &mut buf);
        }
    });
    std::hint::black_box(&buf);
    rows.push(Row {
        kernel: "chacha20_multiblock",
        backend,
        mb_per_s: (ITERS * BUF_LEN) as f64 / secs / 1e6,
        keys_per_s: None,
    });
}

fn bench_sha256(backend: Backend, rows: &mut Vec<Row>) {
    let data = vec![0xABu8; BUF_LEN];
    const ITERS: usize = 32;
    let mut sink = 0u8;
    let secs = min_secs(REPS, || {
        for _ in 0..ITERS {
            sink ^= sha256::digest_with(backend, &data)[0];
        }
    });
    std::hint::black_box(sink);
    rows.push(Row {
        kernel: "sha256",
        backend,
        mb_per_s: (ITERS * BUF_LEN) as f64 / secs / 1e6,
        keys_per_s: None,
    });
}

fn bench_gf256(backend: Backend, rows: &mut Vec<Row>) {
    let src: Vec<u8> = (0..BUF_LEN).map(|i| (i * 37 + 5) as u8).collect();
    let mut dst = vec![0xC3u8; BUF_LEN];
    const ITERS: usize = 128;
    let secs = min_secs(REPS, || {
        for i in 0..ITERS {
            gf256::mul_acc_with(backend, &mut dst, &src, (i % 254 + 2) as u8);
        }
    });
    std::hint::black_box(&dst);
    rows.push(Row {
        kernel: "gf256_mul_acc",
        backend,
        mb_per_s: (ITERS * BUF_LEN) as f64 / secs / 1e6,
        keys_per_s: None,
    });
}

/// Batched keywrap through the whole stack (HKDF-derived `WrapKek`
/// setup once, then ChaCha20 + HMAC-SHA256 per key): the per-wrap cost
/// alone. Uses `simd::force` so the internal `simd::active()` dispatch
/// resolves to the swept backend.
fn bench_keywrap(backend: Backend, rows: &mut Vec<Row>) {
    simd::force(backend);
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let kek = Key::generate(&mut rng);
    let payloads: Vec<Key> = (0..WRAP_KEYS).map(|_| Key::generate(&mut rng)).collect();
    let mut sink = 0u8;
    let secs = min_secs(REPS, || {
        let cached = WrapKek::new(&kek);
        for (i, payload) in payloads.iter().enumerate() {
            let nonce = (i as u128).to_le_bytes()[..12]
                .try_into()
                .expect("12 bytes");
            sink ^= cached.wrap_with_nonce(payload, nonce).to_bytes()[0];
        }
    });
    std::hint::black_box(sink);
    let keys_per_s = WRAP_KEYS as f64 / secs;
    rows.push(Row {
        kernel: "keywrap_batch",
        backend,
        mb_per_s: keys_per_s * WRAPPED_LEN as f64 / 1e6,
        keys_per_s: Some(keys_per_s),
    });
}

/// Keywrap in the shape the key server runs: every key under its own
/// KEK, so each pays the `WrapKek` setup (HKDF sub-key derivation and
/// MAC schedule) plus one wrap. Group-oriented rekeying wraps each
/// refreshed key under each child's key, so a fresh KEK per wrap is the
/// common case; this is the whole-stack encrypted-keys-per-second
/// figure.
fn bench_keywrap_distinct(backend: Backend, rows: &mut Vec<Row>) {
    simd::force(backend);
    let mut rng = StdRng::seed_from_u64(0xD157);
    let keks: Vec<Key> = (0..WRAP_KEYS).map(|_| Key::generate(&mut rng)).collect();
    let payloads: Vec<Key> = (0..WRAP_KEYS).map(|_| Key::generate(&mut rng)).collect();
    let mut sink = 0u8;
    let secs = min_secs(REPS, || {
        for (i, (kek, payload)) in keks.iter().zip(&payloads).enumerate() {
            let nonce = (i as u128).to_le_bytes()[..12]
                .try_into()
                .expect("12 bytes");
            sink ^= WrapKek::new(kek).wrap_with_nonce(payload, nonce).to_bytes()[0];
        }
    });
    std::hint::black_box(sink);
    let keys_per_s = WRAP_KEYS as f64 / secs;
    rows.push(Row {
        kernel: "keywrap_distinct_kek",
        backend,
        mb_per_s: keys_per_s * WRAPPED_LEN as f64 / 1e6,
        keys_per_s: Some(keys_per_s),
    });
}

fn main() {
    let host = rekey_bench::emit::HostContext::detect();
    let cores = host.available_parallelism;
    let feats = simd::detect();
    let selected = simd::active();

    let mut backends = vec![Backend::Scalar];
    if feats.sse2 {
        backends.push(Backend::Sse2);
    }
    if feats.avx2 {
        backends.push(Backend::Avx2);
    }

    println!(
        "crypto kernel bench ({cores} core(s), sse2={} ssse3={} avx2={}, selected backend {selected}, {})",
        feats.sse2, feats.ssse3, feats.avx2, host.rustc
    );

    let mut rows: Vec<Row> = Vec::new();
    for &backend in &backends {
        bench_chacha20(backend, &mut rows);
        bench_sha256(backend, &mut rows);
        bench_gf256(backend, &mut rows);
        bench_keywrap(backend, &mut rows);
        bench_keywrap_distinct(backend, &mut rows);
    }
    // Leave the process-wide selection as the environment dictates.
    simd::force(selected);

    for row in &rows {
        match row.keys_per_s {
            Some(k) => println!(
                "{:<20} {:<7} {:>10.1} MB/s  {:>12.0} keys/s",
                row.kernel,
                row.backend.name(),
                row.mb_per_s,
                k
            ),
            None => println!(
                "{:<20} {:<7} {:>10.1} MB/s",
                row.kernel,
                row.backend.name(),
                row.mb_per_s
            ),
        }
    }

    // Best-supported-tier vs scalar ratio per kernel (1.0 when only
    // scalar is available).
    let kernels = [
        "chacha20_multiblock",
        "sha256",
        "gf256_mul_acc",
        "keywrap_batch",
        "keywrap_distinct_kek",
    ];
    let ratio_for = |kernel: &str| -> f64 {
        let scalar = rows
            .iter()
            .find(|r| r.kernel == kernel && r.backend == Backend::Scalar)
            .map(|r| r.mb_per_s)
            .unwrap_or(f64::NAN);
        let best = rows
            .iter()
            .filter(|r| r.kernel == kernel)
            .map(|r| r.mb_per_s)
            .fold(f64::NAN, f64::max);
        best / scalar
    };
    for kernel in kernels {
        println!("{kernel}: best/scalar = {:.2}x", ratio_for(kernel));
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"perf_crypto\",");
    host.push_json(
        &mut json,
        &[
            format!(
                "    \"cpu_features\": {{\"sse2\": {}, \"ssse3\": {}, \"avx2\": {}}},",
                feats.sse2, feats.ssse3, feats.avx2
            ),
            format!("    \"selected_backend\": \"{selected}\","),
        ],
    );
    let _ = writeln!(json, "  \"reps_per_point\": {REPS},");
    let _ = writeln!(json, "  \"bulk_buffer_bytes\": {BUF_LEN},");
    let _ = writeln!(json, "  \"keywrap_batch_keys\": {WRAP_KEYS},");
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let keys = match r.keys_per_s {
            Some(k) => format!("{k:.0}"),
            None => "null".to_string(),
        };
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"{}\", \"backend\": \"{}\", \"mb_per_s\": {:.2}, \"keys_per_s\": {keys}}}{sep}",
            r.kernel,
            r.backend.name(),
            r.mb_per_s
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"scalar_vs_best\": {\n");
    for (i, kernel) in kernels.iter().enumerate() {
        let sep = if i + 1 == kernels.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{kernel}\": {:.3}{sep}", ratio_for(kernel));
    }
    json.push_str("  }\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_crypto.json");
    std::fs::write(path, &json).expect("write BENCH_crypto.json");
    println!("wrote {path}");
}
