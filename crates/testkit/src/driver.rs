//! Measured runs of compiled workloads.
//!
//! The runner ([`crate::runner::run_scenario_with`]) executes a
//! scenario and reports each interval to an observer; the functions
//! here are the two observers every caller needs. [`run_workload`]
//! tracks peak group size, bandwidth and rekey latency for the
//! workload sweep; [`run_measured`] summarizes the encrypted keys of
//! the paper's measured window (after the warm-up), which is what
//! `rekey simulate`, the model cross-validation, ablation 6 and the
//! examples report.

use crate::metrics::Summary;
use crate::runner::{run_scenario_with, ManagerFactory, RunOptions, RunStats, Violation};
use crate::scenario::Scenario;
use crate::workload::{bytes_counter, members_gauge};
use rekey_obs::hist::Log2Histogram;

/// Aggregates of one observed workload run: the plain [`RunStats`]
/// plus the per-interval series the sweep reports.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// The underlying oracle-checked run.
    pub stats: RunStats,
    /// Largest group size reached after any interval — the peak key
    /// tree size.
    pub peak_members: usize,
    /// Largest multicast payload of any single interval, in bytes.
    pub max_interval_bytes: usize,
    /// Mean multicast bytes per interval.
    pub mean_interval_bytes: f64,
    /// Per-interval `process_interval` wall-clock latency, as a log₂
    /// histogram (p50/p90/p99/max via [`Log2Histogram::quantile`]).
    pub latency_ns: Log2Histogram,
}

/// Runs a compiled workload scenario with per-interval observation:
/// like [`crate::runner::run_scenario`], but additionally tracks peak
/// group size, per-interval bandwidth, and rekey latency percentiles,
/// and records the per-workload obs gauges/counters (visible in any
/// installed [`rekey_obs::Recorder`]).
pub fn run_workload(
    workload_name: &str,
    factory: &ManagerFactory,
    scenario: &Scenario,
    opts: &RunOptions,
) -> Result<WorkloadRun, Violation> {
    let members_gauge = members_gauge(workload_name);
    let bytes_counter = bytes_counter(workload_name);
    let mut peak_members = 0usize;
    let mut max_interval_bytes = 0usize;
    let mut latency_ns = Log2Histogram::new();
    let stats = run_scenario_with(factory, scenario, opts, &mut |obs| {
        peak_members = peak_members.max(obs.members);
        max_interval_bytes = max_interval_bytes.max(obs.bytes);
        latency_ns.record(obs.process_ns);
        rekey_obs::sample(members_gauge, obs.members as f64);
        rekey_obs::count(bytes_counter, obs.bytes as u64);
    })?;
    let mean_interval_bytes = stats.total_bytes as f64 / stats.intervals.max(1) as f64;
    Ok(WorkloadRun {
        stats,
        peak_members,
        max_interval_bytes,
        mean_interval_bytes,
        latency_ns,
    })
}

/// Runs `scenario` and summarizes the encrypted keys of each interval
/// after the bootstrap and the first `warmup` churn intervals: the
/// measured window of the paper's evaluation, once the partitions have
/// filled.
pub fn run_measured(
    factory: &ManagerFactory,
    scenario: &Scenario,
    opts: &RunOptions,
    warmup: usize,
) -> Result<(RunStats, Summary), Violation> {
    let mut keys = Vec::with_capacity(scenario.intervals.len());
    let stats = run_scenario_with(factory, scenario, opts, &mut |obs| {
        if obs.interval > warmup {
            keys.push(obs.entries as f64);
        }
    })?;
    Ok((stats, Summary::of(&keys)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory_for;
    use crate::scenario::GenParams;
    use crate::workload::{Paper, Workload};
    use rekey_core::scheme::Scheme;

    /// The paper's process at a small group size, `intervals` churn
    /// intervals after the bootstrap.
    fn paper(seed: u64, intervals: usize) -> Scenario {
        let params = GenParams {
            bootstrap: 200,
            ..GenParams::default()
        };
        Paper::default().compile(seed, intervals, &params)
    }

    fn checked_paper_run(
        scheme: Scheme,
        seed: u64,
        intervals: usize,
        warmup: usize,
    ) -> (RunStats, Summary) {
        let factory = factory_for(scheme);
        run_measured(
            &factory,
            &paper(seed, intervals),
            &RunOptions::default(),
            warmup,
        )
        .unwrap_or_else(|v| panic!("{scheme}: {v}"))
    }

    #[test]
    fn one_tree_simulation_runs_verified() {
        let (stats, keys) = checked_paper_run(Scheme::OneTree, 1, 10, 2);
        assert_eq!(stats.intervals, 11);
        assert_eq!(keys.count, 8);
        assert!(keys.mean > 0.0);
    }

    #[test]
    fn tt_simulation_runs_verified() {
        let (stats, keys) = checked_paper_run(Scheme::Tt, 2, 12, 3);
        assert!(stats.final_members > 0);
        assert_eq!(keys.count, 9);
    }

    #[test]
    fn qt_simulation_runs_verified() {
        let (stats, _) = checked_paper_run(Scheme::Qt, 3, 12, 3);
        assert_eq!(stats.intervals, 13);
    }

    #[test]
    fn bandwidth_metrics_invariant_under_parallelism() {
        // The worker pool must never change what is measured: the same
        // seeded workload must produce identical runs at 1 and 8
        // workers.
        let scenario = paper(99, 30);
        let factory = factory_for(Scheme::Tt);
        let run = |workers: usize| {
            let opts = RunOptions {
                workers,
                check: false,
                ..RunOptions::default()
            };
            run_workload("paper", &factory, &scenario, &opts).expect("unchecked run")
        };
        let seq = run(1);
        let par = run(8);
        assert_eq!(seq.stats, par.stats);
        assert_eq!(seq.peak_members, par.peak_members);
        assert_eq!(seq.max_interval_bytes, par.max_interval_bytes);
        assert_eq!(seq.mean_interval_bytes, par.mean_interval_bytes);
    }
}
