//! Reliable-transport benchmark: Reed–Solomon coding, a full WKA-BKR
//! delivery round, and interest-map construction.
//!
//! Each case runs `ITERS` operations per rep and reports the minimum
//! of `REPS` reps ([`min_secs`]) per operation. Prints a table; writes
//! no report file.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rekey_bench::emit::min_secs;
use rekey_bench::{fmt, print_table};
use rekey_crypto::Key;
use rekey_keytree::server::LkhServer;
use rekey_keytree::MemberId;
use rekey_transport::interest::interest_map;
use rekey_transport::loss::Population;
use rekey_transport::rs::ReedSolomon;
use rekey_transport::wka_bkr::{self, WkaBkrConfig};

const REPS: usize = 5;
const ITERS: usize = 50;

/// Seconds per operation: the fastest rep of `ITERS` calls of `op`.
fn per_op<O>(mut op: impl FnMut() -> O) -> f64 {
    min_secs(REPS, || {
        for _ in 0..ITERS {
            std::hint::black_box(op());
        }
    }) / ITERS as f64
}

fn main() {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row = |name: &str, secs: f64, bytes: Option<usize>| {
        let mb_per_s = bytes.map_or("-".to_string(), |b| fmt(b as f64 / secs / 1e6, 1));
        rows.push(vec![name.to_string(), fmt(secs * 1e6, 1), mb_per_s]);
    };

    let mut rng = StdRng::seed_from_u64(1);
    let (k, m, shard_len) = (8usize, 4usize, 1400usize);
    let data: Vec<Vec<u8>> = (0..k)
        .map(|_| (0..shard_len).map(|_| rng.gen()).collect())
        .collect();
    let rs = ReedSolomon::new(k, m);
    let payload = Some(k * shard_len);
    row(
        "reed_solomon/encode_8+4_1400B",
        per_op(|| rs.encode(&data)),
        payload,
    );

    let parity = rs.encode(&data);
    let mut shards: Vec<Option<Vec<u8>>> = data
        .iter()
        .chain(parity.iter())
        .cloned()
        .map(Some)
        .collect();
    shards[0] = None;
    shards[3] = None;
    shards[5] = None;
    row(
        "reed_solomon/reconstruct_3_erasures",
        per_op(|| rs.reconstruct(&shards).unwrap()),
        payload,
    );

    let mut rng = StdRng::seed_from_u64(2);
    let mut server = LkhServer::new(4, 0);
    let joins: Vec<(MemberId, Key)> = (0..1024)
        .map(|i| (MemberId(i), Key::generate(&mut rng)))
        .collect();
    server.apply_batch(&joins, &[], &mut rng);
    let leavers: Vec<MemberId> = (0..16).map(|i| MemberId(i * 60)).collect();
    let out = server.apply_batch(&[], &leavers, &mut rng);
    let present: Vec<MemberId> = (0..1024)
        .map(MemberId)
        .filter(|m| !leavers.contains(m))
        .collect();
    let interest = interest_map(&out.message, |n, out| server.members_under_into(n, out));
    let pop = Population::homogeneous(&present, 0.05);

    let mut seed = 0u64;
    row(
        "wka_bkr_delivery_n1024_l16_p5",
        per_op(|| {
            seed += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            wka_bkr::deliver(
                &out.message,
                &interest,
                &pop,
                &WkaBkrConfig::default(),
                &mut rng,
            )
        }),
        None,
    );
    row(
        "interest_map_n1024",
        per_op(|| interest_map(&out.message, |n, out| server.members_under_into(n, out))),
        None,
    );

    print_table(
        &format!("transport operations (min of {REPS} reps x {ITERS} ops)"),
        &["bench", "us/op", "MB/s"],
        &rows,
    );
}
