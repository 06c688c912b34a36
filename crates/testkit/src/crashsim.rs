//! Crash-simulation harness: scenario-driven crash/recovery
//! equivalence over an in-memory [`Storage`].
//!
//! [`run_with_crashes`] drives a [`GroupKeyManager`] through a
//! [`Scenario`] with every interval journaled to a [`MemStorage`], and
//! "crashes" the process every `crash_every` intervals: the manager,
//! RNG, and journal are thrown away and only the sealed storage bytes
//! — exactly what [`rekey_storage::DirStorage`] would have forced to
//! disk — survive into a fresh manager built by the factory. After
//! every crash the recovered replay, and at the end the full run
//! digest, must be byte-identical to an uninterrupted run of the same
//! scenario. Same seed, any crash schedule ⇒ same digest.
//!
//! [`Storage`]: rekey_storage::Storage
//! [`GroupKeyManager`]: rekey_core::GroupKeyManager

use crate::runner::ManagerFactory;
use crate::scenario::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::{Join, Journal};
use rekey_crypto::sha256::Sha256;
use rekey_keytree::message::codec;
use rekey_keytree::MemberId;
use rekey_storage::MemStorage;

/// Aggregates of a crash/recovery-equivalence run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSimReport {
    /// Intervals executed.
    pub intervals: usize,
    /// Crash/recover cycles injected.
    pub crashes: usize,
    /// WAL records replayed across all recoveries.
    pub replayed: usize,
    /// Snapshot loads across all recoveries.
    pub snapshots_loaded: usize,
    /// SHA-256 over the concatenated wire bytes of every interval —
    /// equals the uninterrupted run's digest by construction.
    pub digest: [u8; 32],
}

/// The per-interval churn batch of `scenario`, drawing join keys from
/// `churn_rng` exactly as [`crate::runner::run_scenario`] does. The
/// draws ride the same RNG the engine consumes, so a recovered RNG
/// position regenerates the identical keys.
fn batch(
    scenario: &Scenario,
    interval: usize,
    churn_rng: &mut StdRng,
) -> (Vec<Join>, Vec<MemberId>) {
    let ops = &scenario.intervals[interval];
    let mut joins = Vec::with_capacity(ops.joins.len());
    for op in &ops.joins {
        let key = rekey_crypto::Key::generate(churn_rng);
        let mut join = Join::new(MemberId(op.member), key).with_loss_rate(op.loss);
        if let Some(class) = op.class {
            join = join.with_class(class);
        }
        joins.push(join);
    }
    let leaves: Vec<MemberId> = ops.leaves.iter().map(|&m| MemberId(m)).collect();
    (joins, leaves)
}

/// Runs `scenario` with a journaled manager, crashing and recovering
/// every `crash_every` intervals (`0` = never), and checks every
/// replayed and every live epoch against an uninterrupted reference
/// run. `snapshot_every` is forwarded to the journal (`0` = WAL only).
///
/// # Errors
///
/// A human-readable description of the first divergence or recovery
/// failure.
pub fn run_with_crashes(
    factory: &ManagerFactory,
    scenario: &Scenario,
    crash_every: usize,
    snapshot_every: u64,
) -> Result<CrashSimReport, String> {
    // The uninterrupted reference: plain process_interval, no journal.
    let mut reference: Vec<Vec<u8>> = Vec::with_capacity(scenario.intervals.len());
    {
        let mut manager = factory(scenario);
        let mut churn_rng = StdRng::seed_from_u64(scenario.seed ^ 0x9E37_79B9_7F4A_7C15);
        for interval in 0..scenario.intervals.len() {
            let (joins, leaves) = batch(scenario, interval, &mut churn_rng);
            let out = manager
                .process_interval(&joins, &leaves, &mut churn_rng)
                .map_err(|e| format!("reference interval {interval}: {e}"))?;
            reference.push(codec::encode_message(&out.message));
        }
    }

    let mut manager = factory(scenario);
    let mut churn_rng = StdRng::seed_from_u64(scenario.seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut journal = Journal::new(MemStorage::new(), snapshot_every);
    let mut hasher = Sha256::new();
    let mut crashes = 0usize;
    let mut replayed = 0usize;
    let mut snapshots_loaded = 0usize;

    for interval in 0..scenario.intervals.len() {
        let epoch = interval as u64 + 1;
        let (joins, leaves) = batch(scenario, interval, &mut churn_rng);
        let mut published = Vec::new();
        journal
            .durable_interval(
                manager.as_mut(),
                &joins,
                &leaves,
                &mut churn_rng,
                &mut |message: &rekey_keytree::message::RekeyMessage| {
                    published.push(codec::encode_message(message));
                },
            )
            .map_err(|e| format!("interval {interval}: {e}"))?;
        let [bytes] = &published[..] else {
            return Err(format!(
                "interval {interval}: expected exactly one fanned-out message, got {}",
                published.len()
            ));
        };
        if *bytes != reference[interval] {
            return Err(format!(
                "interval {interval}: journaled epoch diverged from the reference run"
            ));
        }
        hasher.update(bytes);

        if crash_every > 0 && (interval + 1) % crash_every == 0 {
            // Crash: everything in memory dies; only the sealed
            // storage bytes cross the line, byte-for-byte.
            let storage = journal.into_storage();
            let sealed =
                MemStorage::from_parts(storage.wal_bytes().to_vec(), storage.snapshot_bytes());
            manager = factory(scenario);
            journal = Journal::new(sealed, snapshot_every);
            let recovery = journal
                .recover(manager.as_mut())
                .map_err(|e| format!("recovery after interval {interval}: {e}"))?;
            if recovery.epoch != epoch {
                return Err(format!(
                    "recovery after interval {interval}: resumed at epoch {} instead of {epoch}",
                    recovery.epoch
                ));
            }
            for message in &recovery.messages {
                if codec::encode_message(message) != reference[(message.epoch - 1) as usize] {
                    return Err(format!(
                        "recovery after interval {interval}: replayed epoch {} diverged",
                        message.epoch
                    ));
                }
            }
            churn_rng = recovery.rng.ok_or_else(|| {
                format!("recovery after interval {interval}: no RNG position recovered")
            })?;
            crashes += 1;
            replayed += recovery.replayed;
            snapshots_loaded += usize::from(recovery.snapshot_loaded);
        }
    }

    Ok(CrashSimReport {
        intervals: scenario.intervals.len(),
        crashes,
        replayed,
        snapshots_loaded,
        digest: hasher.finalize(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory_for;
    use crate::scenario::GenParams;
    use rekey_core::Scheme;

    /// Digest of the uninterrupted run, via the same harness with
    /// crashes disabled.
    fn baseline(scheme: Scheme, scenario: &Scenario) -> [u8; 32] {
        run_with_crashes(&factory_for(scheme), scenario, 0, 0)
            .expect("uninterrupted run")
            .digest
    }

    #[test]
    fn every_scheme_survives_repeated_crashes() {
        let scenario = Scenario::generate(77, 18, &GenParams::default());
        for scheme in Scheme::ALL {
            let expected = baseline(scheme, &scenario);
            let report = run_with_crashes(&factory_for(scheme), &scenario, 4, 3)
                .unwrap_or_else(|e| panic!("{scheme}: {e}"));
            assert_eq!(report.crashes, 4, "{scheme}: crash schedule");
            assert_eq!(
                report.digest, expected,
                "{scheme}: crashed run diverged from uninterrupted run"
            );
            assert!(
                report.snapshots_loaded > 0,
                "{scheme}: snapshots never used"
            );
        }
    }

    #[test]
    fn crash_every_interval_with_wal_only() {
        // The hardest schedule — a crash after every single interval,
        // no snapshots at all — still reproduces the reference stream.
        let scenario = Scenario::generate(78, 10, &GenParams::default());
        let expected = baseline(Scheme::Combined, &scenario);
        let report =
            run_with_crashes(&factory_for(Scheme::Combined), &scenario, 1, 0).expect("run");
        assert_eq!(report.crashes, report.intervals, "one crash per interval");
        assert_eq!(report.digest, expected);
        assert_eq!(report.snapshots_loaded, 0);
    }
}
