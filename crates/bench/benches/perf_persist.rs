//! Durability-layer benchmark: what the WAL-before-fan-out policy and
//! the snapshot/recovery machinery cost, written to
//! `BENCH_persist.json` at the workspace root.
//!
//! Three sections:
//!
//! - **wal** — framed epoch-record append throughput (records/s and
//!   MB/s) for the in-memory backend (pure framing + CRC cost) and the
//!   directory backend with an fsync per record (the latency the
//!   daemon actually adds between `process_interval` and fan-out).
//! - **snapshot** — serialize-and-store plus load-and-restore times
//!   for a TT key forest at several member counts, with the blob size:
//!   how the `snapshot_every` bound trades WAL replay against pause.
//! - **recovery** — end-to-end `Journal::recover` over a churned WAL
//!   tail (no snapshot): deterministic re-execution of every logged
//!   interval, in records/s.
//!
//! Measured as the minimum of `REPS` wall-clock runs, like the other
//! perf benches.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_bench::emit::min_secs;
use rekey_core::persist::EpochRecord;
use rekey_core::{GroupKeyManager, Join, Journal, Scheme, SchemeConfig};
use rekey_crypto::Key;
use rekey_keytree::MemberId;
use rekey_storage::{DirStorage, MemStorage, Storage};
use std::fmt::Write as _;

const REPS: usize = 3;
const MEM_WAL_RECORDS: usize = 50_000;
const DIR_WAL_RECORDS: usize = 200;
const SNAPSHOT_SIZES: [u64; 3] = [256, 1024, 4096];
const REPLAY_BOOTSTRAP: u64 = 512;
const REPLAY_RECORDS: usize = 64;

/// A representative epoch record: 2 joins with hints, 1 leave.
fn sample_record(rng: &mut StdRng) -> Vec<u8> {
    let record = EpochRecord {
        epoch: 1,
        rng_state: rng.state_bytes(),
        joins: vec![
            Join::new(MemberId(1), Key::generate(rng)).with_loss_rate(0.04),
            Join::new(MemberId(2), Key::generate(rng)),
        ],
        leaves: vec![MemberId(3)],
    };
    let mut buf = Vec::new();
    record.encode_into(&mut buf);
    buf
}

struct WalRow {
    backend: &'static str,
    fsync_per_record: bool,
    record_bytes: usize,
    records_per_s: f64,
    mb_per_s: f64,
}

fn bench_wal(rng: &mut StdRng) -> Vec<WalRow> {
    let record = sample_record(rng);
    let mut rows = Vec::new();

    let secs = min_secs(REPS, || {
        let mut storage = MemStorage::new();
        for _ in 0..MEM_WAL_RECORDS {
            storage.append_wal(&record).expect("append");
        }
        storage.sync_wal().expect("sync");
        std::hint::black_box(storage.wal_bytes().len());
    }) / MEM_WAL_RECORDS as f64;
    rows.push(WalRow {
        backend: "mem",
        fsync_per_record: false,
        record_bytes: record.len(),
        records_per_s: 1.0 / secs,
        mb_per_s: record.len() as f64 / secs / 1e6,
    });

    let dir = scratch_dir("wal");
    let secs = min_secs(REPS, || {
        // Fresh file per rep so appends never compound across reps.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let mut storage = DirStorage::open(&dir).expect("open");
        for _ in 0..DIR_WAL_RECORDS {
            storage.append_wal(&record).expect("append");
            // The daemon's policy: durable before fan-out.
            storage.sync_wal().expect("fsync");
        }
    }) / DIR_WAL_RECORDS as f64;
    let _ = std::fs::remove_dir_all(&dir);
    rows.push(WalRow {
        backend: "dir",
        fsync_per_record: true,
        record_bytes: record.len(),
        records_per_s: 1.0 / secs,
        mb_per_s: record.len() as f64 / secs / 1e6,
    });
    rows
}

struct SnapshotRow {
    members: u64,
    blob_bytes: usize,
    write_ms: f64,
    load_ms: f64,
}

fn build_manager() -> Box<dyn GroupKeyManager> {
    Scheme::Tt.build(&SchemeConfig::new().degree(4).s_period(8))
}

/// A TT manager with `members` members admitted (then aged past the
/// S-period so both partitions are populated).
fn populated_manager(members: u64, rng: &mut StdRng) -> Box<dyn GroupKeyManager> {
    let mut manager = build_manager();
    let joins: Vec<Join> = (0..members)
        .map(|m| Join::new(MemberId(m), Key::generate(rng)))
        .collect();
    manager
        .process_interval(&joins, &[], rng)
        .expect("bootstrap");
    for _ in 0..9 {
        manager.process_interval(&[], &[], rng).expect("age");
    }
    manager
}

fn bench_snapshot(rng: &mut StdRng) -> Vec<SnapshotRow> {
    let mut rows = Vec::new();
    for members in SNAPSHOT_SIZES {
        let manager = populated_manager(members, rng);
        let mut journal = Journal::new(MemStorage::new(), 0);
        let write_s = min_secs(REPS, || {
            journal.snapshot(manager.as_ref(), rng).expect("snapshot");
        });
        let blob = journal
            .storage_mut()
            .snapshot_bytes()
            .expect("snapshot written");

        let load_s = min_secs(REPS, || {
            let mut restored = build_manager();
            let mut journal =
                Journal::new(MemStorage::from_parts(Vec::new(), Some(blob.clone())), 0);
            let recovery = journal.recover(restored.as_mut()).expect("recover");
            assert!(recovery.snapshot_loaded);
            std::hint::black_box(restored.member_count());
        });
        rows.push(SnapshotRow {
            members,
            blob_bytes: blob.len(),
            write_ms: write_s * 1e3,
            load_ms: load_s * 1e3,
        });
    }
    rows
}

struct RecoveryRow {
    records: usize,
    replay_ms: f64,
    records_per_s: f64,
}

fn bench_recovery(rng: &mut StdRng) -> RecoveryRow {
    // Journal a bootstrapped group plus churned intervals, WAL only.
    let mut manager = build_manager();
    let mut journal = Journal::new(MemStorage::new(), 0);
    let mut sink = |_: &rekey_keytree::message::RekeyMessage| {};
    let bootstrap: Vec<Join> = (0..REPLAY_BOOTSTRAP)
        .map(|m| Join::new(MemberId(m), Key::generate(rng)))
        .collect();
    journal
        .durable_interval(manager.as_mut(), &bootstrap, &[], rng, &mut sink)
        .expect("bootstrap interval");
    for i in 0..REPLAY_RECORDS as u64 - 1 {
        let joins = vec![Join::new(
            MemberId(REPLAY_BOOTSTRAP + i),
            Key::generate(rng),
        )];
        let leaves = vec![MemberId(i)];
        journal
            .durable_interval(manager.as_mut(), &joins, &leaves, rng, &mut sink)
            .expect("churn interval");
    }
    let storage = journal.into_storage();
    let wal = storage.wal_bytes().to_vec();

    let replay_s = min_secs(REPS, || {
        let mut restored = build_manager();
        let mut journal = Journal::new(MemStorage::from_parts(wal.clone(), None), 0);
        let recovery = journal.recover(restored.as_mut()).expect("recover");
        assert_eq!(recovery.replayed, REPLAY_RECORDS);
        std::hint::black_box(recovery.epoch);
    });
    RecoveryRow {
        records: REPLAY_RECORDS,
        replay_ms: replay_s * 1e3,
        records_per_s: REPLAY_RECORDS as f64 / replay_s,
    }
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rekey-perf-persist-{tag}-{}", std::process::id()))
}

fn main() {
    let host = rekey_bench::emit::HostContext::detect();
    println!(
        "persistence bench ({} core(s), {})",
        host.available_parallelism, host.rustc
    );

    let mut rng = StdRng::seed_from_u64(11);
    let wal = bench_wal(&mut rng);
    for row in &wal {
        println!(
            "wal {:<4} (fsync/record: {:<5}) {:>12.0} records/s {:>9.2} MB/s ({} B/record)",
            row.backend, row.fsync_per_record, row.records_per_s, row.mb_per_s, row.record_bytes
        );
    }
    let snapshots = bench_snapshot(&mut rng);
    for row in &snapshots {
        println!(
            "snapshot n={:<5} {:>8} B  write {:>8.3} ms  load {:>8.3} ms",
            row.members, row.blob_bytes, row.write_ms, row.load_ms
        );
    }
    let recovery = bench_recovery(&mut rng);
    println!(
        "recovery replay {} records in {:.3} ms ({:.0} records/s)",
        recovery.records, recovery.replay_ms, recovery.records_per_s
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"perf_persist\",");
    host.push_json(&mut json, &[]);
    let _ = writeln!(json, "  \"reps_per_point\": {REPS},");
    json.push_str("  \"wal\": [\n");
    for (i, r) in wal.iter().enumerate() {
        let sep = if i + 1 == wal.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"fsync_per_record\": {}, \"record_bytes\": {}, \"records_per_s\": {:.1}, \"mb_per_s\": {:.3}}}{sep}",
            r.backend, r.fsync_per_record, r.record_bytes, r.records_per_s, r.mb_per_s
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"snapshot\": [\n");
    for (i, r) in snapshots.iter().enumerate() {
        let sep = if i + 1 == snapshots.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"members\": {}, \"blob_bytes\": {}, \"write_ms\": {:.4}, \"load_ms\": {:.4}}}{sep}",
            r.members, r.blob_bytes, r.write_ms, r.load_ms
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"recovery\": {{\"records\": {}, \"replay_ms\": {:.4}, \"records_per_s\": {:.1}}}",
        recovery.records, recovery.replay_ms, recovery.records_per_s
    );
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_persist.json");
    std::fs::write(path, &json).expect("write BENCH_persist.json");
    println!("wrote {path}");
}
