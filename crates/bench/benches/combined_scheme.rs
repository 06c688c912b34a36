//! The §4.2 combination: two-partition rekeying + loss-homogenized
//! L-trees, with loss rates *learned* from transport feedback while
//! members sit in the S-partition.
//!
//! Runs one churn workload (80% short-lived members; 30% of receivers
//! behind 20%-loss links, the rest at 2%) through three key servers —
//! the one-keytree baseline, the TT-scheme, and the combined manager —
//! delivering every interval's rekey message with the executable
//! WKA-BKR protocol. Reports both of the paper's cost metrics at once:
//! key-server encryptions (§3) and reliable-transport transmissions
//! (§4). The combined scheme should win on both.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rekey_bench::{fmt, print_table, write_csv};
use rekey_core::combined::CombinedManager;
use rekey_core::one_tree::OneTreeManager;
use rekey_core::partition::TtManager;
use rekey_core::{GroupKeyManager, Join};
use rekey_crypto::Key;
use rekey_keytree::MemberId;
use rekey_testkit::{GenParams, JoinOp, Paper, Workload};
use rekey_transport::interest::interest_map;
use rekey_transport::loss::Population;
use rekey_transport::wka_bkr::{self, WkaBkrConfig};
use std::collections::BTreeMap;

const N: usize = 1024;
const K: u64 = 5;
const HIGH_LOSS_FRACTION: f64 = 0.3;
const P_HIGH: f64 = 0.2;
const P_LOW: f64 = 0.02;
const WARMUP: usize = 10;
const MEASURED: usize = 25;

struct RunResult {
    server_keys: f64,
    transport_keys: f64,
}

/// Runs the workload through one manager; `feedback` receives
/// per-member (lost, seen) counts after every delivery (the combined
/// manager learns from it, the others ignore it).
fn run<M: GroupKeyManager>(
    manager: &mut M,
    mut feedback: impl FnMut(&mut M, &BTreeMap<MemberId, (u64, u64)>),
    seed: u64,
) -> RunResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = GenParams {
        bootstrap: N,
        ..GenParams::default()
    };
    let session = Paper::default().compile(seed, WARMUP + MEASURED, &params);
    let mut losses: BTreeMap<MemberId, f64> = BTreeMap::new();
    fn admit(ops: &[JoinOp], losses: &mut BTreeMap<MemberId, f64>, rng: &mut StdRng) -> Vec<Join> {
        ops.iter()
            .map(|op| {
                let p = if rng.gen::<f64>() < HIGH_LOSS_FRACTION {
                    P_HIGH
                } else {
                    P_LOW
                };
                losses.insert(MemberId(op.member), p);
                Join::new(MemberId(op.member), Key::generate(rng))
            })
            .collect()
    }

    // Bootstrap the steady-state population.
    let joins = admit(&session.intervals[0].joins, &mut losses, &mut rng);
    manager.process_interval(&joins, &[], &mut rng).unwrap();

    let (mut server_keys, mut transport_keys, mut measured) = (0u64, 0u64, 0usize);
    for (step, ops) in session.intervals[1..].iter().enumerate() {
        let joins = admit(&ops.joins, &mut losses, &mut rng);
        let leaves: Vec<MemberId> = ops.leaves.iter().map(|&m| MemberId(m)).collect();
        let out = manager.process_interval(&joins, &leaves, &mut rng).unwrap();
        for m in &leaves {
            losses.remove(m);
        }

        // Deliver the interval's message over the lossy channel.
        let interest = interest_map(&out.message, |node, out| {
            manager.members_under_into(node, out)
        });
        let pop = Population::from_map(
            interest
                .keys()
                .map(|m| (*m, losses.get(m).copied().unwrap_or(P_LOW)))
                .collect(),
        );
        let delivery = wka_bkr::deliver(
            &out.message,
            &interest,
            &pop,
            &WkaBkrConfig::default(),
            &mut rng,
        );
        assert!(delivery.report.complete, "delivery incomplete");
        feedback(manager, &delivery.lost_packets);

        if step >= WARMUP {
            server_keys += out.stats.encrypted_keys as u64;
            transport_keys += delivery.report.keys_transmitted as u64;
            measured += 1;
        }
    }
    RunResult {
        server_keys: server_keys as f64 / measured as f64,
        transport_keys: transport_keys as f64 / measured as f64,
    }
}

fn main() {
    println!(
        "N={N}, K={K}, alpha=0.8; {:.0}% of receivers at {P_HIGH} loss, rest at {P_LOW}",
        HIGH_LOSS_FRACTION * 100.0
    );

    let seed = 2003;
    let mut one = OneTreeManager::new(4);
    let baseline = run(&mut one, |_, _| {}, seed);
    let mut tt = TtManager::new(4, K);
    let tt_result = run(&mut tt, |_, _| {}, seed);
    let mut combined = CombinedManager::two_loss_classes(4, K);
    let combined_result = run(
        &mut combined,
        |mgr: &mut CombinedManager, feedback| {
            for (&m, &(lost, seen)) in feedback {
                mgr.record_feedback(m, lost, seen);
            }
        },
        seed,
    );

    let rows = [
        ("one-keytree", baseline.server_keys, baseline.transport_keys),
        ("tt-scheme", tt_result.server_keys, tt_result.transport_keys),
        (
            "combined (§3 + §4.2)",
            combined_result.server_keys,
            combined_result.transport_keys,
        ),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, server, transport)| {
            vec![
                name.to_string(),
                fmt(*server, 0),
                fmt(100.0 * (1.0 - server / baseline.server_keys), 1),
                fmt(*transport, 0),
                fmt(100.0 * (1.0 - transport / baseline.transport_keys), 1),
            ]
        })
        .collect();
    print_table(
        "Combined scheme — key-server and transport cost per interval (measured)",
        &[
            "scheme",
            "server keys",
            "saving%",
            "transport keys",
            "saving%",
        ],
        &table,
    );
    write_csv(
        "combined_scheme",
        &[
            "scheme",
            "server_keys",
            "server_saving",
            "transport_keys",
            "transport_saving",
        ],
        &table,
    );

    assert!(
        combined_result.server_keys < baseline.server_keys,
        "combined should beat the baseline on server cost"
    );
    assert!(
        combined_result.transport_keys < baseline.transport_keys,
        "combined should beat the baseline on transport cost"
    );
    println!("[claim OK] §4.2: the two optimizations compose — both cost metrics improve");
}
