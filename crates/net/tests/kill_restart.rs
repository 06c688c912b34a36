//! Crash/restart durability over real sockets: a `rekeyd` journaling
//! to a `DirStorage` is torn down mid-stream *without* a drain-time
//! snapshot (the moral equivalent of SIGKILL — everything in memory is
//! lost, only the WAL and the last periodic snapshot survive), a fresh
//! daemon recovers from the same directory on a new port, clients are
//! redirected to it, and the combined stream every client applied must
//! be byte-identical to an uninterrupted reference run — including for
//! a straggler that stopped polling epochs before the crash and
//! recovers them from the restarted daemon's republished window.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::{GroupKeyManager, Join, Journal, Scheme, SchemeConfig};
use rekey_crypto::sha256::Sha256;
use rekey_keytree::message::{codec, RekeyMessage};
use rekey_keytree::MemberId;
use rekey_net::{demo_member_key, BackoffConfig, ClientConfig, RekeyClient, Rekeyd, ServerConfig};
use rekey_storage::DirStorage;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Duration;

const SEED: u64 = 42;
const KEY_SEED: u64 = 9;
const MEMBERS: u64 = 6;
const CRASH_AFTER: u64 = 7;
const TOTAL: u64 = 12;
const SYNC_BUDGET: Duration = Duration::from_secs(10);

fn test_client_config() -> ClientConfig {
    ClientConfig {
        backoff: BackoffConfig {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(100),
            seed: 1,
        },
        ..ClientConfig::default()
    }
}

/// A unique per-test scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("rekey-kill-restart-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn build_manager(scheme: Scheme) -> Box<dyn GroupKeyManager> {
    scheme.build(&SchemeConfig::new().degree(3).s_period(3))
}

/// The deterministic membership schedule both worlds run: interval 1
/// admits the demo members, later intervals cycle ghost members
/// (outside the client id range) through join/leave. Presence is read
/// back from the manager, so the restarted run derives the same
/// batches from its recovered state.
fn batch(interval: u64, manager: &dyn GroupKeyManager) -> (Vec<Join>, Vec<MemberId>) {
    let mut joins = Vec::new();
    let mut leaves = Vec::new();
    if interval == 1 {
        for m in 0..MEMBERS {
            joins.push(Join::new(
                MemberId(m),
                demo_member_key(KEY_SEED, MemberId(m)),
            ));
        }
    } else {
        let ghost = MemberId(100 + interval % 3);
        if manager.contains(ghost) {
            leaves.push(ghost);
        } else {
            joins.push(Join::new(ghost, demo_member_key(KEY_SEED, ghost)));
        }
    }
    (joins, leaves)
}

/// The uninterrupted reference: same scheme, seed, and schedule, no
/// crash — collects the codec bytes of every epoch.
fn reference_epochs(scheme: Scheme) -> Vec<Vec<u8>> {
    let mut manager = build_manager(scheme);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut epochs = Vec::new();
    for interval in 1..=TOTAL {
        let (joins, leaves) = batch(interval, manager.as_ref());
        let out = manager
            .process_interval(&joins, &leaves, &mut rng)
            .expect("reference interval");
        assert_eq!(out.message.epoch, interval);
        epochs.push(codec::encode_message(&out.message));
    }
    epochs
}

fn digest_of(epochs: &[Vec<u8>]) -> [u8; 32] {
    let mut digest = Sha256::new();
    for bytes in epochs {
        digest.update(bytes);
    }
    digest.finalize()
}

fn register_all(daemon: &Rekeyd) {
    for m in 0..MEMBERS {
        daemon.register(MemberId(m), demo_member_key(KEY_SEED, MemberId(m)));
    }
}

/// One durable interval published through a daemon.
fn publish_interval(
    journal: &mut Journal<DirStorage>,
    manager: &mut Box<dyn GroupKeyManager>,
    rng: &mut StdRng,
    daemon: &Rekeyd,
    interval: u64,
) {
    let (joins, leaves) = batch(interval, manager.as_ref());
    let mut publish_err = None;
    let mut sink = |message: &RekeyMessage| {
        if let Err(e) = daemon.publish(message) {
            publish_err = Some(e);
        }
    };
    let out = journal
        .durable_interval(manager.as_mut(), &joins, &leaves, rng, &mut sink)
        .expect("durable interval");
    assert!(publish_err.is_none(), "publish failed: {publish_err:?}");
    assert_eq!(out.message.epoch, interval);
}

/// Runs the kill/restart scenario under `scheme`. `snapshot_every`
/// shapes what the restart finds on disk (periodic snapshots + short
/// WAL tail vs one long WAL); `straggler` optionally stops polling one member several
/// epochs before the crash, forcing it to recover those epochs from
/// the *restarted* daemon's republished retransmission window.
fn run_kill_restart(scheme: Scheme, tag: &str, snapshot_every: u64, straggler: Option<MemberId>) {
    let scratch = TempDir::new(tag);
    let reference = reference_epochs(scheme);

    let mut manager = build_manager(scheme);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut journal = Journal::new(
        DirStorage::open(&scratch.0).expect("open storage"),
        snapshot_every,
    );

    let daemon = Rekeyd::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    register_all(&daemon);
    let mut clients: HashMap<MemberId, RekeyClient> = (0..MEMBERS)
        .map(|m| {
            let member = MemberId(m);
            (
                member,
                RekeyClient::new(
                    daemon.local_addr(),
                    member,
                    demo_member_key(KEY_SEED, member),
                    1,
                    test_client_config(),
                ),
            )
        })
        .collect();

    for interval in 1..=CRASH_AFTER {
        publish_interval(&mut journal, &mut manager, &mut rng, &daemon, interval);
        for (member, client) in clients.iter_mut() {
            // The straggler goes quiet three epochs before the crash:
            // those epochs exist only in the journal once the first
            // daemon dies.
            if straggler == Some(*member) && interval > CRASH_AFTER - 3 {
                continue;
            }
            client.sync_to(interval, SYNC_BUDGET).expect("sync");
        }
    }

    // Crash: the daemon dies and every in-memory structure — manager,
    // RNG, journal, retransmission window — is dropped. No drain-time
    // snapshot is taken; only what `durable_interval` already forced
    // to disk survives.
    drop(daemon);
    drop(manager);
    drop(journal);
    #[allow(clippy::drop_non_drop)]
    drop(rng);

    // Restart: fresh manager, fresh journal, same directory, new port.
    let mut manager = build_manager(scheme);
    let mut journal = Journal::new(
        DirStorage::open(&scratch.0).expect("reopen storage"),
        snapshot_every,
    );
    let recovery = journal.recover(manager.as_mut()).expect("recover");
    assert_eq!(
        recovery.epoch, CRASH_AFTER,
        "recovery resumes at the logged epoch"
    );
    assert_eq!(recovery.dropped_wal_bytes, 0);
    let mut rng = recovery
        .rng
        .expect("a non-empty journal always yields an RNG position");

    // The re-derived epochs are byte-identical to the reference run.
    for message in &recovery.messages {
        assert_eq!(
            codec::encode_message(message),
            reference[(message.epoch - 1) as usize],
            "replayed epoch {} diverged from the uninterrupted run",
            message.epoch
        );
    }

    let daemon = Rekeyd::bind("127.0.0.1:0", ServerConfig::default()).expect("rebind");
    register_all(&daemon);
    // Reseed the retransmission window so reconnecting clients can
    // NACK what they missed while the first daemon was dead.
    for message in &recovery.messages {
        daemon.publish(message).expect("republish");
    }

    for client in clients.values_mut() {
        client.redirect(daemon.local_addr());
    }
    for interval in CRASH_AFTER + 1..=TOTAL {
        publish_interval(&mut journal, &mut manager, &mut rng, &daemon, interval);
        for client in clients.values_mut() {
            client
                .sync_to(interval, SYNC_BUDGET)
                .expect("sync after restart");
        }
    }

    // Every client — including the straggler — applied the exact byte
    // stream of the uninterrupted run and holds the final DEK.
    let expected_digest = digest_of(&reference);
    for (member, client) in &clients {
        assert_eq!(client.applied(), TOTAL, "member {member:?} applied count");
        assert_eq!(client.next_epoch(), TOTAL + 1);
        assert_eq!(
            client.digest(),
            expected_digest,
            "member {member:?}: stream across crash/restart is not byte-identical"
        );
        assert_eq!(
            client.member().key_for(manager.dek_node()),
            Some(manager.dek()),
            "member {member:?} cannot derive the final group DEK"
        );
    }
    if let Some(straggler) = straggler {
        assert!(
            clients[&straggler].reconnects() > 0,
            "the straggler never reconnected"
        );
    }

    daemon.shutdown().expect("clean shutdown");
}

#[test]
fn restart_resumes_byte_identical_stream() {
    // Periodic snapshots: the restart loads a snapshot and replays a
    // short WAL tail.
    run_kill_restart(Scheme::Tt, "snap", 3, None);
    // The adaptive switcher persists its own header ahead of the
    // active inner manager's state.
    run_kill_restart(Scheme::Adaptive, "snap-adaptive", 3, None);
}

#[test]
fn straggler_recovers_missed_epochs_across_restart() {
    // No periodic snapshots: the whole stream is in the WAL, so the
    // restarted daemon's republished window reaches back far enough
    // for the straggler to recover everything it slept through.
    run_kill_restart(Scheme::Tt, "straggler", 0, Some(MemberId(0)))
}
