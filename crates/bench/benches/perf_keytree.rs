//! Key-tree operation benchmark: the key server's processing cost
//! that periodic batching is designed to reduce, plus a receiver's
//! cost of applying one batch message.
//!
//! Each case is timed as the minimum of `REPS` single runs with
//! [`min_secs`]; every run starts from a fresh clone made before the
//! clock starts, and its input and result are dropped after the clock
//! stops.
//! Prints a table; writes no report file.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_bench::emit::min_secs;
use rekey_bench::{fmt, print_table};
use rekey_crypto::Key;
use rekey_keytree::member::GroupMember;
use rekey_keytree::server::LkhServer;
use rekey_keytree::MemberId;

const REPS: usize = 20;
const MEMBERS: u64 = 4096;

fn build_server(n: u64, rng: &mut StdRng) -> LkhServer {
    let mut server = LkhServer::new(4, 0);
    let joins: Vec<(MemberId, Key)> = (0..n).map(|i| (MemberId(i), Key::generate(rng))).collect();
    server.apply_batch(&joins, &[], rng);
    server
}

/// Minimum seconds of `op` over `REPS` fresh inputs from `setup`. Each
/// input is built just before its timed run, so it is cache-warm like
/// a live server's tree; input and output are dropped after the clock
/// stops.
fn time_batched<I, O>(mut setup: impl FnMut() -> I, mut op: impl FnMut(&mut I) -> O) -> f64 {
    (0..REPS)
        .map(|_| {
            let mut input = setup();
            let mut output = None;
            min_secs(1, || output = Some(op(&mut input)))
        })
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    let server = build_server(MEMBERS, &mut rng);
    let mut rows: Vec<(&str, f64)> = Vec::new();

    rows.push((
        "lkh_single_leave_n4096",
        time_batched(
            || (server.clone(), StdRng::seed_from_u64(1)),
            |(s, r)| s.leave(MemberId(7), r).unwrap(),
        ),
    ));
    let ik = Key::generate(&mut rng);
    rows.push((
        "lkh_single_join_n4096",
        time_batched(
            || (server.clone(), StdRng::seed_from_u64(2)),
            |(s, r)| s.join(MemberId(999_999), ik.clone(), r),
        ),
    ));

    let mut rng = StdRng::seed_from_u64(3);
    let server = build_server(MEMBERS, &mut rng);
    let leavers: Vec<MemberId> = (0..64).map(|i| MemberId(i * 61)).collect();
    let joins: Vec<(MemberId, Key)> = (0..64u64)
        .map(|i| (MemberId(100_000 + i), Key::generate(&mut rng)))
        .collect();
    rows.push((
        "lkh_batch_64in_64out_n4096",
        time_batched(
            || (server.clone(), StdRng::seed_from_u64(4)),
            |(s, r)| s.apply_batch(&joins, &leavers, r),
        ),
    ));

    let mut rng = StdRng::seed_from_u64(5);
    let mut server = LkhServer::new(4, 0);
    let joins: Vec<(MemberId, Key)> = (0..MEMBERS)
        .map(|i| (MemberId(i), Key::generate(&mut rng)))
        .collect();
    let bootstrap = server.apply_batch(&joins, &[], &mut rng);
    let mut member = GroupMember::new(MemberId(17), joins[17].1.clone());
    member.process(&bootstrap.message).unwrap();
    let leavers: Vec<MemberId> = (0..64).map(|i| MemberId(1 + i * 61)).collect();
    let update = server.apply_batch(&[], &leavers, &mut rng);
    rows.push((
        "member_process_batch_message",
        time_batched(|| member.clone(), |m| m.process(&update.message).unwrap()),
    ));

    let rows: Vec<Vec<String>> = rows
        .into_iter()
        .map(|(name, secs)| vec![name.to_string(), fmt(secs * 1e6, 1)])
        .collect();
    print_table(
        &format!("key-tree operations (min of {REPS} runs)"),
        &["bench", "us/op"],
        &rows,
    );
}
