//! Cross-validation of the paper's analytic models (what the paper's
//! figures are computed from) against the executable system (what the
//! paper did not have).
//!
//! The real key server — actual trees, actual key wrapping, actual
//! migrations — driven through the paper's membership process (the
//! testkit's `paper` workload) must land close to the closed-form
//! steady-state costs of §3.3.1, and preserve the paper's scheme
//! ordering. Every comparison sweeps several workload seeds and
//! reports the worst-case model/sim deviation, so a single lucky draw
//! can neither pass nor fail the suite.

use rekey_analytic::partition::PartitionParams;
use rekey_core::one_tree::OneTreeManager;
use rekey_core::partition::{QtManager, TtManager};
use rekey_core::GroupKeyManager;
use rekey_testkit::{run_measured, GenParams, Paper, RunOptions, Scenario, Workload};

const N: usize = 2048;
/// Independent workload seeds; deviation bounds must hold for all.
const SEEDS: [u64; 3] = [20030412, 7, 424242];
/// Churn intervals excluded from the measurement while the partitions
/// fill, then the measured ones.
const WARMUP: usize = 15;
const MEASURED: usize = 50;

fn workload(seed: u64, intervals: usize) -> (Paper, Scenario) {
    let params = GenParams {
        bootstrap: N,
        ..GenParams::default()
    };
    let mut paper = Paper::default();
    let scenario = paper.compile(seed, intervals, &params);
    (paper, scenario)
}

fn model(k: u32) -> PartitionParams {
    PartitionParams {
        group_size: N as u64,
        k,
        ..PartitionParams::paper_default()
    }
}

/// Mean encrypted keys per measured interval. Unchecked: the oracle
/// and the member farm would dominate the run time at this size, and
/// the statistics are the same either way.
fn simulate(make: impl Fn() -> Box<dyn GroupKeyManager>, seed: u64) -> f64 {
    let (_, scenario) = workload(seed, WARMUP + MEASURED);
    let opts = RunOptions {
        check: false,
        ..RunOptions::default()
    };
    let (_, keys) = run_measured(&|_| make(), &scenario, &opts, WARMUP).expect("unchecked run");
    keys.mean
}

/// Sweeps every seed, requires each run's measured cost within
/// `tolerance` of the model, and reports the worst-case deviation.
///
/// The simulation runs a slightly lighter workload than the model
/// (members joining and leaving within one interval are never
/// admitted), so the band is a modest one.
fn assert_close_over_seeds(
    make: impl Fn() -> Box<dyn GroupKeyManager>,
    predicted: f64,
    tolerance: f64,
    label: &str,
) {
    let mut worst_dev = 0.0f64;
    let mut worst_seed = SEEDS[0];
    for &seed in &SEEDS {
        let measured = simulate(&make, seed);
        let ratio = measured / predicted;
        let dev = (ratio - 1.0).abs();
        if dev > worst_dev {
            worst_dev = dev;
            worst_seed = seed;
        }
        assert!(
            dev <= tolerance,
            "{label} @ seed {seed}: measured {measured:.0} vs model {predicted:.0} \
             (ratio {ratio:.3})"
        );
    }
    println!(
        "{label}: worst-case model/sim deviation {:.1}% (seed {worst_seed}) over {} seeds",
        100.0 * worst_dev,
        SEEDS.len()
    );
}

#[test]
fn one_keytree_cost_matches_model() {
    assert_close_over_seeds(
        || Box::new(OneTreeManager::new(4)),
        model(10).cost_one_keytree(),
        0.15,
        "one-keytree",
    );
}

#[test]
fn tt_cost_matches_model() {
    assert_close_over_seeds(
        || Box::new(TtManager::new(4, 10)),
        model(10).cost_tt(),
        0.15,
        "tt-scheme",
    );
}

#[test]
fn qt_cost_matches_model() {
    assert_close_over_seeds(
        || Box::new(QtManager::new(4, 10)),
        model(10).cost_qt(),
        0.15,
        "qt-scheme",
    );
}

#[test]
fn scheme_ordering_is_preserved() {
    // Fig. 3 at K = 10, α = 0.8: both partition schemes beat the
    // one-keytree scheme, on the executable system too — for every
    // workload seed, with the TT gain tracking the model's prediction.
    let predicted_gain = 1.0 - model(10).cost_tt() / model(10).cost_one_keytree();
    let mut worst_gap = 0.0f64;
    for &seed in &SEEDS {
        let one = simulate(|| Box::new(OneTreeManager::new(4)), seed);
        let tt = simulate(|| Box::new(TtManager::new(4, 10)), seed);
        let qt = simulate(|| Box::new(QtManager::new(4, 10)), seed);
        assert!(
            tt < one,
            "seed {seed}: TT ({tt:.0}) should beat one-keytree ({one:.0})"
        );
        assert!(
            qt < one,
            "seed {seed}: QT ({qt:.0}) should beat one-keytree ({one:.0})"
        );
        let measured_gain = 1.0 - tt / one;
        let gap = (measured_gain - predicted_gain).abs();
        worst_gap = worst_gap.max(gap);
        assert!(
            gap < 0.08,
            "seed {seed}: TT gain measured {measured_gain:.3} vs model {predicted_gain:.3}"
        );
    }
    println!(
        "tt gain: worst-case gap to model {:.1}% over {} seeds",
        100.0 * worst_gap,
        SEEDS.len()
    );
}

#[test]
fn join_rate_matches_queueing_model() {
    // The generator reproduces the J of equations (1)–(5) under every
    // seed, counting the arrivals that leave within their arrival
    // interval (never admitted under batch rekeying).
    let expected = Paper::default().joins_per_interval(N);
    let mut worst = 0.0f64;
    for &seed in &SEEDS {
        let rounds = 150;
        let (paper, scenario) = workload(seed, rounds);
        let joins: usize = scenario.intervals[1..]
            .iter()
            .map(|iv| iv.joins.len())
            .sum();
        let measured = (joins + paper.transients()) as f64 / rounds as f64;
        let dev = (measured / expected - 1.0).abs();
        worst = worst.max(dev);
        assert!(
            dev < 0.1,
            "seed {seed}: arrival rate {measured:.1} vs model J {expected:.1}"
        );
    }
    println!(
        "join rate: worst-case deviation {:.1}% over {} seeds",
        100.0 * worst,
        SEEDS.len()
    );
}
