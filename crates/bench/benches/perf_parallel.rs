//! Parallel rekey-engine benchmark: wall-clock time of one mixed
//! rekey batch across a sweep of encryption worker counts (default
//! 1/2/4/8, capped at `available_parallelism`; override with
//! `--workers 1,2,4,8`) for several group sizes, written to
//! `BENCH_parallel.json` at the workspace root.
//!
//! Three scenarios: a single LKH tree (workers split one tree's plan
//! into chunks), a four-tree loss-homogenized forest through the
//! unified engine (workers execute whole trees concurrently — the
//! cross-tree fan-out path), and a bootstrap (all `n` members join an
//! empty tree in one pure-join batch, the §2.1 per-joiner plan, whose
//! cost must grow ~n log n).
//!
//! The JSON also records the memory cost of the key server's
//! prepared-KEK cache per tree node.
//!
//! The engine guarantees byte-identical output for every worker count
//! (asserted here as well), so the only thing that may change with
//! `--threads` is time. Speedups require physical cores: on a 1-core
//! host every worker count measures the same sequential work plus
//! thread overhead.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::loss_forest::LossForestManager;
use rekey_core::{GroupKeyManager, Join};
use rekey_crypto::keywrap::WrapKek;
use rekey_crypto::Key;
use rekey_keytree::server::LkhServer;
use rekey_keytree::MemberId;
use std::fmt::Write as _;
use std::time::Instant;

const GROUP_SIZES: [u64; 3] = [4096, 16384, 65536];
const DEFAULT_WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 5;

/// Worker counts to sweep and whether the default sweep was capped.
///
/// An explicit `--workers 1,2,4` (or `--workers=1,2,4`) after `--` is
/// taken verbatim. Otherwise the default sweep is capped at
/// `available_parallelism`: worker counts above the core count cannot
/// speed anything up, so the uncapped sweep only produced
/// honest-but-noisy <1.0× rows on small hosts. The cap is recorded in
/// the JSON host block so readers know which rows were skipped.
fn worker_counts(cores: usize) -> (Vec<usize>, bool) {
    let args: Vec<String> = std::env::args().collect();
    for (i, arg) in args.iter().enumerate() {
        let list = if let Some(rest) = arg.strip_prefix("--workers=") {
            Some(rest.to_string())
        } else if arg == "--workers" {
            args.get(i + 1).cloned()
        } else {
            None
        };
        if let Some(list) = list {
            let parsed: Vec<usize> = list
                .split(',')
                .filter_map(|w| w.trim().parse().ok())
                .filter(|&w| w > 0)
                .collect();
            if !parsed.is_empty() {
                return (parsed, false);
            }
        }
    }
    let capped: Vec<usize> = DEFAULT_WORKER_COUNTS
        .iter()
        .copied()
        .filter(|&w| w <= cores)
        .collect();
    let was_capped = capped.len() < DEFAULT_WORKER_COUNTS.len();
    (if capped.is_empty() { vec![1] } else { capped }, was_capped)
}

/// All `n` members' join requests for the bootstrap scenario.
fn bootstrap_joins(n: u64) -> Vec<(MemberId, Key)> {
    let mut rng = StdRng::seed_from_u64(n ^ 0xB007);
    (0..n)
        .map(|i| (MemberId(i), Key::generate(&mut rng)))
        .collect()
}

/// Builds a one-tree scenario's base server, joins and leavers for a
/// group size.
type TreeCase = fn(u64) -> (LkhServer, Vec<(MemberId, Key)>, Vec<MemberId>);

/// Loss-class boundaries for the cross-tree scenario: four trees.
const BOUNDARIES: [f64; 3] = [0.25, 0.5, 0.75];

struct Sample {
    scenario: &'static str,
    n: u64,
    workers: usize,
    encrypted_keys: usize,
    mean_s: f64,
    min_s: f64,
    speedup_vs_seq: f64,
}

fn build_server(n: u64) -> LkhServer {
    let mut rng = StdRng::seed_from_u64(n);
    let mut server = LkhServer::new(4, 0);
    let joins: Vec<(MemberId, Key)> = (0..n)
        .map(|i| (MemberId(i), Key::generate(&mut rng)))
        .collect();
    server.apply_batch(&joins, &[], &mut rng);
    server
}

/// One rekey interval with churn at 1/16 of the group: half leaves,
/// half joins — a group-oriented batch, the expensive mode.
fn churn(n: u64) -> (Vec<(MemberId, Key)>, Vec<MemberId>) {
    let mut rng = StdRng::seed_from_u64(n ^ 0xC0FFEE);
    let each = (n / 32).max(8);
    let stride = (n / each) | 1;
    let leavers: Vec<MemberId> = (0..each).map(|i| MemberId((i * stride) % n)).collect();
    let joins: Vec<(MemberId, Key)> = (0..each)
        .map(|i| (MemberId(1_000_000 + i), Key::generate(&mut rng)))
        .collect();
    (joins, leavers)
}

/// Representative loss rate for class `c` under [`BOUNDARIES`].
fn class_loss(c: u64) -> f64 {
    [0.1, 0.3, 0.6, 0.9][(c % 4) as usize]
}

/// A four-tree loss-homogenized forest with members striped across all
/// classes — the engine's cross-tree fan-out path, where whole trees
/// (not chunks of one plan) are executed by parallel workers.
fn build_forest(n: u64) -> LossForestManager {
    let mut rng = StdRng::seed_from_u64(n ^ 0xF0);
    let mut manager = LossForestManager::new(4, &BOUNDARIES);
    let joins: Vec<Join> = (0..n)
        .map(|i| Join::new(MemberId(i), Key::generate(&mut rng)).with_loss_rate(class_loss(i)))
        .collect();
    manager
        .process_interval(&joins, &[], &mut rng)
        .expect("forest seed interval");
    manager
}

/// Churn for the forest scenario: leavers and joiners striped across
/// every loss class, so all four trees carry planned work.
fn forest_churn(n: u64) -> (Vec<Join>, Vec<MemberId>) {
    let mut rng = StdRng::seed_from_u64(n ^ 0xBEEF);
    let each = (n / 32).max(8);
    let stride = (n / each) | 1;
    let leavers: Vec<MemberId> = (0..each).map(|i| MemberId((i * stride) % n)).collect();
    let joins: Vec<Join> = (0..each)
        .map(|i| {
            Join::new(MemberId(2_000_000 + i), Key::generate(&mut rng))
                .with_loss_rate(class_loss(i))
        })
        .collect();
    (joins, leavers)
}

fn main() {
    let host = rekey_bench::emit::HostContext::detect();
    let cores = host.available_parallelism;
    let (sweep, sweep_capped) = worker_counts(cores);
    println!(
        "parallel rekey engine bench ({cores} core(s) available, {})",
        host.rustc
    );
    println!(
        "worker sweep: {sweep:?}{}",
        if sweep_capped {
            " (default sweep capped at available_parallelism; pass --workers to override)"
        } else {
            ""
        }
    );

    let mut samples: Vec<Sample> = Vec::new();
    // One-tree scenarios, each a base server and one batch per group
    // size: churn on a built group (workers split the plan into
    // chunks), and bootstrap — all `n` members joining an empty tree.
    let tree_scenarios: [(&'static str, u64, TreeCase); 2] = [
        ("single-tree", 7, |n| {
            let (joins, leavers) = churn(n);
            (build_server(n), joins, leavers)
        }),
        ("bootstrap", 13, |n| {
            (LkhServer::new(4, 0), bootstrap_joins(n), Vec::new())
        }),
    ];
    for (scenario, seed, case) in tree_scenarios {
        for n in GROUP_SIZES {
            let (base, joins, leavers) = case(n);
            let mut seq_min = 0.0f64;
            let mut reference = None;
            for (wi, &workers) in sweep.iter().enumerate() {
                let mut times = Vec::with_capacity(REPS);
                let mut encrypted_keys = 0;
                for rep in 0..REPS {
                    let mut server = base.clone();
                    server.set_parallelism(workers);
                    let mut rng = StdRng::seed_from_u64(seed + rep as u64);
                    let start = Instant::now();
                    let out = server.apply_batch(&joins, &leavers, &mut rng);
                    times.push(start.elapsed().as_secs_f64());
                    encrypted_keys = out.stats.encrypted_keys;
                    if rep == 0 {
                        // The engine's core guarantee, re-checked on bench
                        // inputs: worker count never changes the message.
                        match &reference {
                            None => reference = Some(out.message),
                            Some(msg) => assert_eq!(msg, &out.message, "output diverged"),
                        }
                    }
                }
                let min_s = times.iter().cloned().fold(f64::INFINITY, f64::min);
                let mean_s = times.iter().sum::<f64>() / times.len() as f64;
                if wi == 0 {
                    seq_min = min_s;
                }
                let speedup = seq_min / min_s;
                println!(
                    "{scenario:<11} n={n:>6} workers={workers}  min {:>9.3} ms  mean {:>9.3} ms  {encrypted_keys} keys  speedup {speedup:>5.2}x",
                    min_s * 1e3,
                    mean_s * 1e3
                );
                samples.push(Sample {
                    scenario,
                    n,
                    workers,
                    encrypted_keys,
                    mean_s,
                    min_s,
                    speedup_vs_seq: speedup,
                });
            }
        }
    }

    // Cross-tree fan-out: a four-tree loss forest through the unified
    // engine, where parallelism distributes whole trees across workers
    // (each tree's plan was drawn sequentially, so output bytes are
    // pinned regardless of worker count — asserted below).
    for n in GROUP_SIZES {
        let base = build_forest(n);
        let (joins, leavers) = forest_churn(n);
        let mut seq_min = 0.0f64;
        let mut reference = None;
        for (wi, &workers) in sweep.iter().enumerate() {
            let mut times = Vec::with_capacity(REPS);
            let mut encrypted_keys = 0;
            for rep in 0..REPS {
                let mut manager = base.clone();
                manager.set_parallelism(workers);
                let mut rng = StdRng::seed_from_u64(11 + rep as u64);
                let start = Instant::now();
                let out = manager
                    .process_interval(&joins, &leavers, &mut rng)
                    .expect("forest churn interval");
                times.push(start.elapsed().as_secs_f64());
                encrypted_keys = out.stats.encrypted_keys;
                if rep == 0 {
                    match &reference {
                        None => reference = Some(out.message),
                        Some(msg) => assert_eq!(msg, &out.message, "output diverged"),
                    }
                }
            }
            let min_s = times.iter().cloned().fold(f64::INFINITY, f64::min);
            let mean_s = times.iter().sum::<f64>() / times.len() as f64;
            if wi == 0 {
                seq_min = min_s;
            }
            let speedup = seq_min / min_s;
            println!(
                "cross-tree  n={n:>6} workers={workers}  min {:>9.3} ms  mean {:>9.3} ms  {encrypted_keys} keys  speedup {speedup:>5.2}x",
                min_s * 1e3,
                mean_s * 1e3
            );
            samples.push(Sample {
                scenario: "cross-tree-forest",
                n,
                workers,
                encrypted_keys,
                mean_s,
                min_s,
                speedup_vs_seq: speedup,
            });
        }
    }

    // Each tree node holds an `Option<Box<WrapKek>>`: a pointer inline,
    // plus the prepared KEK on the heap while the node's key version
    // has been used as a KEK.
    let cache_inline = std::mem::size_of::<Option<Box<WrapKek>>>();
    let cache_heap = std::mem::size_of::<WrapKek>();
    println!(
        "prepared-KEK cache: {cache_inline} B per node inline, +{cache_heap} B heap per prepared node"
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"perf_parallel\",");
    host.push_json(
        &mut json,
        &[
            format!(
                "    \"worker_sweep\": [{}],",
                sweep
                    .iter()
                    .map(|w| w.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            format!("    \"worker_sweep_capped_at_cores\": {sweep_capped},"),
        ],
    );
    let _ = writeln!(json, "  \"host_cores\": {cores},");
    let _ = writeln!(json, "  \"reps_per_point\": {REPS},");
    let _ = writeln!(
        json,
        "  \"kek_cache\": {{\"inline_bytes_per_node\": {cache_inline}, \"heap_bytes_per_prepared_node\": {cache_heap}}},"
    );
    json.push_str("  \"results\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let sep = if i + 1 == samples.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"scenario\": \"{}\", \"n\": {}, \"workers\": {}, \"encrypted_keys\": {}, \"min_s\": {:.6}, \"mean_s\": {:.6}, \"speedup_vs_seq\": {:.3}}}{sep}",
            s.scenario, s.n, s.workers, s.encrypted_keys, s.min_s, s.mean_s, s.speedup_vs_seq
        );
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    std::fs::write(path, &json).expect("write BENCH_parallel.json");
    println!("wrote {path}");
}
