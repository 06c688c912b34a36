//! The adaptive deployment loop of §3.4.
//!
//! "At the beginning of a session, the key server just maintains one
//! key tree; later, from its collected trace data it can compute the
//! group statistics such as Ms, Ml, and α. Then using our analytic
//! model, the key server can choose the best scheme to use."
//!
//! This example runs a session whose churn the operator did not know
//! in advance: the server starts with a single key tree, collects the
//! membership trace, fits the two-class exponential mixture, consults
//! the analytic model, and switches to the recommended two-partition
//! scheme — then shows the realized savings.
//!
//! Run with: `cargo run --release --example adaptive_server`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::adaptive::{recommend, SchemeChoice, TraceCollector};
use rekey_core::one_tree::OneTreeManager;
use rekey_core::partition::{QtManager, TtManager};
use rekey_core::{GroupKeyManager, Join};
use rekey_crypto::Key;
use rekey_keytree::MemberId;
use rekey_testkit::{GenParams, IntervalOps, Paper, Workload};

const N: usize = 2048;
const OBSERVE_INTERVALS: usize = 60;
const WARMUP_INTERVALS: usize = 15;
const MEASURE_INTERVALS: usize = 30;

/// The interval's joins (each with a fresh individual key) and leaves.
fn batch(ops: &IntervalOps, rng: &mut StdRng) -> (Vec<Join>, Vec<MemberId>) {
    let joins = ops
        .joins
        .iter()
        .map(|j| Join::new(MemberId(j.member), Key::generate(rng)))
        .collect();
    let leaves = ops.leaves.iter().map(|&m| MemberId(m)).collect();
    (joins, leaves)
}

fn main() {
    // The session's churn: the paper's two-class process, which the
    // server does not know in advance.
    let mut paper = Paper::default();
    let rekey_period = paper.rekey_period;
    let params = GenParams {
        bootstrap: N,
        ..GenParams::default()
    };
    let session = paper.compile(
        7,
        OBSERVE_INTERVALS + WARMUP_INTERVALS + MEASURE_INTERVALS,
        &params,
    );
    let (bootstrap, observe) = session.intervals[..=OBSERVE_INTERVALS]
        .split_first()
        .expect("bootstrap interval");
    let measure = &session.intervals[OBSERVE_INTERVALS + 1..];
    let mut rng = StdRng::seed_from_u64(7);

    // Phase 1: one key tree + trace collection.
    let mut manager = OneTreeManager::new(4);
    let mut collector = TraceCollector::new(8192);
    let mut clock = 0.0f64;

    // Bootstrap the pre-populated group.
    let (joins, _) = batch(bootstrap, &mut rng);
    for join in &joins {
        collector.record_join(join.member, clock);
    }
    manager
        .process_interval(&joins, &[], &mut rng)
        .expect("bootstrap batch of fresh members");

    println!("Phase 1: single key tree, observing the session…");
    let mut phase1_keys = 0usize;
    for ops in observe {
        clock += rekey_period;
        let (joins, leaves) = batch(ops, &mut rng);
        for join in &joins {
            collector.record_join(join.member, clock);
        }
        for &m in &leaves {
            collector.record_leave(m, clock);
        }
        let out = manager
            .process_interval(&joins, &leaves, &mut rng)
            .expect("paper workload batches are consistent");
        phase1_keys += out.stats.encrypted_keys;
    }
    let phase1_mean = phase1_keys as f64 / OBSERVE_INTERVALS as f64;
    println!(
        "  observed {} completed memberships; one-keytree cost {:.0} keys/interval\n",
        collector.sample_count(),
        phase1_mean
    );

    // Phase 2: fit the mixture and consult the model.
    let estimate = collector.estimate();
    match &estimate {
        Some(e) => println!(
            "Fitted duration mixture: α̂ = {:.2}, M̂s = {:.0} s, M̂l = {:.0} s ({} samples)",
            e.alpha, e.mean_short, e.mean_long, e.samples
        ),
        None => println!("No bimodality detected; the one-keytree scheme is appropriate."),
    }
    let rec = recommend(N as u64, 4, rekey_period, estimate, 20);
    println!(
        "Model recommendation: {:?} (predicted {:.0} vs {:.0} keys/interval)\n",
        rec.scheme, rec.predicted_cost, rec.one_keytree_cost
    );

    // Phase 3: switch to the recommended scheme. Switching re-admits
    // the current population into the new structure once (a one-off
    // cost amortized over the rest of the session).
    let mut new_manager: Box<dyn GroupKeyManager> = match rec.scheme {
        SchemeChoice::OneKeytree => Box::new(OneTreeManager::new(4)),
        SchemeChoice::Tt { k } => Box::new(TtManager::new(4, k as u64)),
        SchemeChoice::Qt { k } => Box::new(QtManager::new(4, k as u64)),
    };
    let members = manager.members_under(manager.dek_node());
    let rejoin: Vec<Join> = members
        .iter()
        .map(|&m| Join::new(m, Key::generate(&mut rng)))
        .collect();
    new_manager
        .process_interval(&rejoin, &[], &mut rng)
        .unwrap();
    println!(
        "Phase 3: switched to {} with {} members",
        new_manager.scheme_name(),
        new_manager.member_count()
    );

    let mut phase3_keys = 0usize;
    let mut measured = 0usize;
    for (step, ops) in measure.iter().enumerate() {
        let (joins, leaves) = batch(ops, &mut rng);
        let out = new_manager
            .process_interval(&joins, &leaves, &mut rng)
            .expect("paper workload batches are consistent");
        // Skip the first intervals while partitions fill.
        if step >= WARMUP_INTERVALS {
            phase3_keys += out.stats.encrypted_keys;
            measured += 1;
        }
    }
    let phase3_mean = phase3_keys as f64 / measured as f64;
    println!(
        "  {} cost {:.0} keys/interval — {:.1}% below the observed one-keytree phase",
        new_manager.scheme_name(),
        phase3_mean,
        100.0 * (1.0 - phase3_mean / phase1_mean)
    );
}
