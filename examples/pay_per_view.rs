//! A pay-per-view broadcast session (the paper's motivating workload):
//! most viewers sample the stream for a few minutes, a minority stays
//! for hours ([AA97] MBone behaviour).
//!
//! Runs the same simulated session under all four schemes — the
//! one-keytree baseline and the paper's QT / TT / PT two-partition
//! schemes — and reports the key-server bandwidth of each, next to the
//! analytic model's prediction.
//!
//! Run with: `cargo run --release --example pay_per_view`

use rekey_analytic::partition::PartitionParams;
use rekey_core::one_tree::OneTreeManager;
use rekey_core::partition::{PtManager, QtManager, TtManager};
use rekey_core::GroupKeyManager;
use rekey_testkit::{run_measured, GenParams, Paper, RunOptions, Scenario, Workload};

const SUBSCRIBERS: usize = 4096;
const K: u64 = 10;
const SEED: u64 = 42;
const WARMUP: usize = 15;
const MEASURED: usize = 40;

/// Mean encrypted keys per measured interval of `scenario`. Every join
/// carries its true duration class; only the oracle PT-scheme reads it.
fn simulate(manager: impl Fn() -> Box<dyn GroupKeyManager>, scenario: &Scenario) -> f64 {
    let opts = RunOptions {
        check: false,
        ..RunOptions::default()
    };
    let (_, keys) = run_measured(&|_| manager(), scenario, &opts, WARMUP).expect("unchecked run");
    keys.mean
}

fn main() {
    println!("Pay-per-view session: {SUBSCRIBERS} subscribers, 80% channel-surfers");
    println!("(mean stay 3 min) and 20% committed viewers (mean stay 3 h);");
    println!("rekeying every 60 s, S-period K = {K} intervals.\n");

    let model = PartitionParams {
        group_size: SUBSCRIBERS as u64,
        k: K as u32,
        ..PartitionParams::paper_default()
    };
    let predicted = model.costs();

    let params = GenParams {
        bootstrap: SUBSCRIBERS,
        ..GenParams::default()
    };
    let session = Paper::default().compile(SEED, WARMUP + MEASURED, &params);

    let rows: Vec<(&str, f64, f64)> = vec![
        (
            "one-keytree",
            simulate(|| Box::new(OneTreeManager::new(4)), &session),
            predicted.one_keytree,
        ),
        (
            "TT-scheme",
            simulate(|| Box::new(TtManager::new(4, K)), &session),
            predicted.tt,
        ),
        (
            "QT-scheme",
            simulate(|| Box::new(QtManager::new(4, K)), &session),
            predicted.qt,
        ),
        (
            "PT-scheme (oracle)",
            simulate(|| Box::new(PtManager::new(4)), &session),
            predicted.pt,
        ),
    ];

    let baseline = rows[0].1;
    println!(
        "{:<20} {:>14} {:>14} {:>10}",
        "scheme", "measured", "model", "savings"
    );
    println!("{}", "-".repeat(62));
    for (name, measured, model) in &rows {
        println!(
            "{:<20} {:>10.0} keys {:>10.0} keys {:>9.1}%",
            name,
            measured,
            model,
            100.0 * (1.0 - measured / baseline)
        );
    }
    println!("\n(measured = mean encrypted keys per 60 s rekey interval over the");
    println!(" simulated session; model = §3.3.1 steady-state prediction)");
}
