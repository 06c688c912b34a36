//! Durable key-forest state: an epoch write-ahead log plus periodic
//! snapshots over a pluggable [`Storage`] backend.
//!
//! # Design: log the inputs, not the outputs
//!
//! Every scheme in this crate is deterministic: given the same
//! membership batch and the same RNG stream, [`GroupKeyManager::
//! process_interval`] emits byte-identical rekey messages (the golden
//! conformance digests pin this). The WAL therefore records only an
//! interval's *inputs* — the epoch number, the RNG state *before* the
//! interval drew from it, and the join/leave batch — and recovery
//! simply re-runs the intervals. A WAL record is a few hundred bytes
//! regardless of group size, and replay reproduces every emitted byte,
//! so reconnecting clients can be served the exact frames they missed.
//!
//! # Write-ahead ordering
//!
//! [`Journal::durable_interval`] appends and fsyncs the epoch record
//! **before** handing the rekey message to the [`RekeySink`]. If the
//! append or sync fails, the frame is never released: a frame a client
//! may have seen is always re-derivable from disk. (The interval is
//! computed before the append — the record's contents don't depend on
//! the outputs — but nothing observable leaves the journal until the
//! log is durable.)
//!
//! # Snapshots bound replay
//!
//! Every `snapshot_every` intervals the journal serializes the whole
//! manager (trees, policy bookkeeping, DEK, epoch) together with the
//! *post*-interval RNG state, atomically replaces the snapshot blob,
//! and truncates the WAL. Recovery is then: restore the snapshot,
//! re-run the WAL tail (at most `snapshot_every` intervals), resume. A
//! crash between the snapshot write and the WAL truncation leaves
//! records the snapshot already covers; recovery skips any record
//! whose epoch is not past the snapshot's.

use crate::engine::ENGINE_WIRE_VERSION;
use crate::{DurationClass, GroupKeyManager, IntervalOutcome, Join, JoinHint, RekeySink};
use rand::rngs::StdRng;
use rekey_keytree::message::codec::{get_u32, get_u64, get_u8, put_u32, put_u64};
use rekey_keytree::message::RekeyMessage;
use rekey_keytree::{KeyTreeError, MemberId};
use rekey_storage::{Storage, StorageError};
use std::fmt;
use std::time::Instant;

/// Version byte leading a serialized [`EpochRecord`].
pub const RECORD_WIRE_VERSION: u8 = 1;

/// Version byte leading a snapshot blob.
pub const SNAPSHOT_WIRE_VERSION: u8 = 1;

/// Error of a durability operation.
#[derive(Debug)]
pub enum PersistError {
    /// The storage backend failed.
    Storage(StorageError),
    /// A persisted blob did not parse (truncated, wrong magic,
    /// structurally invalid).
    Codec {
        /// What was being decoded.
        what: &'static str,
    },
    /// Replaying a WAL record against the restored manager failed —
    /// the log does not match the snapshot it extends.
    Replay(KeyTreeError),
    /// The snapshot was written by a different scheme than the manager
    /// being restored.
    SchemeMismatch {
        /// Scheme of the restoring manager.
        expected: String,
        /// Scheme recorded in the snapshot.
        found: String,
    },
    /// WAL epochs are not contiguous with the recovered state — the
    /// log lost records in the middle, which repair cannot fix.
    EpochGap {
        /// The epoch recovery expected next.
        expected: u64,
        /// The epoch the record carried.
        found: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Storage(e) => write!(f, "storage backend: {e}"),
            PersistError::Codec { what } => write!(f, "corrupt persisted state: bad {what}"),
            PersistError::Replay(e) => write!(f, "WAL replay rejected by the manager: {e}"),
            PersistError::SchemeMismatch { expected, found } => write!(
                f,
                "snapshot belongs to scheme {found}, manager runs {expected}"
            ),
            PersistError::EpochGap { expected, found } => {
                write!(f, "WAL epoch gap: expected epoch {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Storage(e) => Some(e),
            PersistError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for PersistError {
    fn from(e: StorageError) -> Self {
        PersistError::Storage(e)
    }
}

/// One interval's inputs — everything needed to re-run it bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Engine epoch this interval produced (1-based).
    pub epoch: u64,
    /// RNG state captured *before* the interval drew from it.
    pub rng_state: [u8; 32],
    /// The interval's join requests, hints included (hints steer
    /// placement, so they steer bytes).
    pub joins: Vec<Join>,
    /// The interval's departures, in batch order.
    pub leaves: Vec<MemberId>,
}

impl EpochRecord {
    /// Serializes the record onto `buf` ([`RECORD_WIRE_VERSION`]-led,
    /// big-endian, following the message codec conventions).
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.push(RECORD_WIRE_VERSION);
        put_u64(buf, self.epoch);
        buf.extend_from_slice(&self.rng_state);
        put_u32(buf, self.joins.len() as u32);
        for join in &self.joins {
            put_u64(buf, join.member.0);
            buf.extend_from_slice(join.individual_key.as_bytes());
            put_hint(buf, &join.hint);
        }
        put_u32(buf, self.leaves.len() as u32);
        for &leave in &self.leaves {
            put_u64(buf, leave.0);
        }
    }

    /// Decodes a record serialized by [`EpochRecord::encode_into`],
    /// requiring the whole of `bytes` to be consumed.
    pub fn decode(bytes: &[u8]) -> Option<EpochRecord> {
        let mut buf = bytes;
        if get_u8(&mut buf)? != RECORD_WIRE_VERSION {
            return None;
        }
        let epoch = get_u64(&mut buf)?;
        let (rng_state, rest) = buf.split_first_chunk::<32>()?;
        buf = rest;
        let join_count = get_u32(&mut buf)? as usize;
        let mut joins = Vec::with_capacity(join_count);
        for _ in 0..join_count {
            let member = MemberId(get_u64(&mut buf)?);
            let (key, rest) = buf.split_first_chunk::<32>()?;
            buf = rest;
            joins.push(Join {
                member,
                individual_key: rekey_crypto::Key::from_bytes(*key),
                hint: get_hint(&mut buf)?,
            });
        }
        let leave_count = get_u32(&mut buf)? as usize;
        let mut leaves = Vec::with_capacity(leave_count);
        for _ in 0..leave_count {
            leaves.push(MemberId(get_u64(&mut buf)?));
        }
        buf.is_empty().then_some(EpochRecord {
            epoch,
            rng_state: *rng_state,
            joins,
            leaves,
        })
    }
}

/// Serializes a join hint: a class byte (0 none, 1 short, 2 long),
/// then a presence byte and the loss rate's `f64` bits if it is set.
/// The one hint format of the WAL and of every state blob.
pub(crate) fn put_hint(buf: &mut Vec<u8>, hint: &JoinHint) {
    buf.push(match hint.expected_class {
        None => 0,
        Some(DurationClass::Short) => 1,
        Some(DurationClass::Long) => 2,
    });
    match hint.loss_rate {
        None => buf.push(0),
        Some(loss) => {
            buf.push(1);
            put_u64(buf, loss.to_bits());
        }
    }
}

/// Decodes a hint written by [`put_hint`], advancing `buf` past it.
pub(crate) fn get_hint(buf: &mut &[u8]) -> Option<JoinHint> {
    let expected_class = match get_u8(buf)? {
        0 => None,
        1 => Some(DurationClass::Short),
        2 => Some(DurationClass::Long),
        _ => return None,
    };
    let loss_rate = match get_u8(buf)? {
        0 => None,
        1 => Some(f64::from_bits(get_u64(buf)?)),
        _ => return None,
    };
    Some(JoinHint {
        expected_class,
        loss_rate,
    })
}

/// Writes the header every manager state blob starts with:
/// [`ENGINE_WIRE_VERSION`] and the length-prefixed scheme name.
pub(crate) fn put_state_header(buf: &mut Vec<u8>, scheme: &str) {
    buf.push(ENGINE_WIRE_VERSION);
    put_u32(buf, scheme.len() as u32);
    buf.extend_from_slice(scheme.as_bytes());
}

/// Reads a header written by [`put_state_header`], advancing `buf`
/// past it, and checks that the blob belongs to `expected`.
pub(crate) fn check_state_header(buf: &mut &[u8], expected: &str) -> Result<(), PersistError> {
    let bad = |what: &'static str| PersistError::Codec { what };
    if get_u8(buf).ok_or(bad("manager state"))? != ENGINE_WIRE_VERSION {
        return Err(bad("manager state version"));
    }
    let name_len = get_u32(buf).ok_or(bad("scheme name"))? as usize;
    if buf.len() < name_len {
        return Err(bad("scheme name"));
    }
    let (name, rest) = buf.split_at(name_len);
    *buf = rest;
    if name != expected.as_bytes() {
        return Err(PersistError::SchemeMismatch {
            expected: expected.to_string(),
            found: String::from_utf8_lossy(name).into_owned(),
        });
    }
    Ok(())
}

/// What [`Journal::recover`] reconstructed from disk.
#[derive(Debug)]
pub struct Recovery {
    /// The epoch the manager resumed at (0 on a fresh store).
    pub epoch: u64,
    /// The RNG positioned exactly where the crashed process left it,
    /// or `None` on a fresh store (seed a new one).
    pub rng: Option<StdRng>,
    /// The rekey messages re-derived from the WAL tail, in epoch
    /// order — republish these into the retransmission window so
    /// reconnecting clients can NACK across the crash.
    pub messages: Vec<RekeyMessage>,
    /// Whether a snapshot was restored.
    pub snapshot_loaded: bool,
    /// WAL records re-run (the tail past the snapshot).
    pub replayed: usize,
    /// Torn/corrupt bytes the backend discarded from the log tail.
    pub dropped_wal_bytes: usize,
}

/// The durability orchestrator: owns a [`Storage`] backend and runs
/// intervals write-ahead — log, fsync, *then* fan out — snapshotting
/// every `snapshot_every` intervals to bound replay.
#[derive(Debug)]
pub struct Journal<S> {
    storage: S,
    snapshot_every: u64,
    since_snapshot: u64,
    epoch: u64,
}

impl<S: Storage> Journal<S> {
    /// Creates a journal over `storage`, snapshotting every
    /// `snapshot_every` intervals (`0` disables periodic snapshots —
    /// the WAL then grows until [`Journal::snapshot`] is called
    /// explicitly, e.g. at drain).
    pub fn new(storage: S, snapshot_every: u64) -> Self {
        Journal {
            storage,
            snapshot_every,
            since_snapshot: 0,
            epoch: 0,
        }
    }

    /// The last epoch made durable (0 before any interval).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Direct access to the backend (fault injection in tests,
    /// inspection in tools).
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.storage
    }

    /// Consumes the journal, returning its backend — lets a test hand
    /// a "crashed" store to a fresh journal.
    pub fn into_storage(self) -> S {
        self.storage
    }

    /// Runs one interval durably: capture the RNG pre-state, process,
    /// append + fsync the [`EpochRecord`], and only then hand the
    /// frame to `sink`. On a storage error the sink is never invoked —
    /// no client can observe a frame the log cannot re-derive.
    ///
    /// # Errors
    ///
    /// [`PersistError::Replay`] if the batch is inconsistent,
    /// [`PersistError::Storage`] if the append or sync failed (the
    /// manager *has* advanced in memory at that point; callers should
    /// treat the journal as poisoned and stop the daemon).
    pub fn durable_interval(
        &mut self,
        manager: &mut dyn GroupKeyManager,
        joins: &[Join],
        leaves: &[MemberId],
        rng: &mut StdRng,
        sink: &mut dyn RekeySink,
    ) -> Result<IntervalOutcome, PersistError> {
        let rng_state = rng.state_bytes();
        let outcome = manager
            .process_interval(joins, leaves, rng)
            .map_err(PersistError::Replay)?;
        let record = EpochRecord {
            epoch: outcome.message.epoch,
            rng_state,
            joins: joins.to_vec(),
            leaves: leaves.to_vec(),
        };
        let mut buf = Vec::new();
        record.encode_into(&mut buf);
        self.storage.append_wal(&buf)?;
        let sync_start = Instant::now();
        self.storage.sync_wal()?;
        rekey_obs::time_ns("persist.wal.fsync", sync_start.elapsed().as_nanos() as u64);
        rekey_obs::count("persist.wal.append.records", 1);
        rekey_obs::count("persist.wal.append.bytes", buf.len() as u64);
        self.epoch = record.epoch;
        sink.on_message(&outcome.message);
        self.since_snapshot += 1;
        if self.snapshot_every > 0 && self.since_snapshot >= self.snapshot_every {
            self.snapshot(manager, rng)?;
        }
        Ok(outcome)
    }

    /// Serializes the manager + the RNG's current position, atomically
    /// replaces the snapshot, and truncates the WAL it subsumes. Also
    /// the drain-time flush: call on shutdown so restart replays
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`PersistError::Storage`] on a backend failure.
    pub fn snapshot(
        &mut self,
        manager: &dyn GroupKeyManager,
        rng: &StdRng,
    ) -> Result<(), PersistError> {
        let mut blob = Vec::new();
        blob.push(SNAPSHOT_WIRE_VERSION);
        put_u64(&mut blob, self.epoch);
        blob.extend_from_slice(&rng.state_bytes());
        manager.save_state(&mut blob)?;
        let write_start = Instant::now();
        self.storage.write_snapshot(&blob)?;
        self.storage.reset_wal()?;
        rekey_obs::time_ns(
            "persist.snapshot.write",
            write_start.elapsed().as_nanos() as u64,
        );
        rekey_obs::count("persist.snapshot.writes", 1);
        rekey_obs::count("persist.snapshot.bytes", blob.len() as u64);
        self.since_snapshot = 0;
        Ok(())
    }

    /// Rebuilds state from disk: restore the snapshot (if any) into
    /// `manager`, then re-run the WAL tail past it. After this returns
    /// the manager, the returned RNG, and the journal are positioned
    /// exactly as the crashed process left them.
    ///
    /// # Errors
    ///
    /// [`PersistError::SchemeMismatch`] if the snapshot belongs to a
    /// different scheme, [`PersistError::EpochGap`] if the log is not
    /// contiguous, [`PersistError::Codec`] on a corrupt snapshot or
    /// record (a torn WAL *tail* is repaired, not an error).
    pub fn recover(&mut self, manager: &mut dyn GroupKeyManager) -> Result<Recovery, PersistError> {
        let load_start = Instant::now();
        let mut epoch = 0u64;
        let mut rng = None;
        let mut snapshot_loaded = false;
        if let Some(blob) = self.storage.load_snapshot()? {
            let mut cursor = &blob[..];
            if get_u8(&mut cursor).ok_or(PersistError::Codec { what: "snapshot" })?
                != SNAPSHOT_WIRE_VERSION
            {
                return Err(PersistError::Codec {
                    what: "snapshot version",
                });
            }
            epoch = get_u64(&mut cursor).ok_or(PersistError::Codec { what: "snapshot" })?;
            let (state, rest) = cursor
                .split_first_chunk::<32>()
                .ok_or(PersistError::Codec { what: "snapshot" })?;
            manager.restore_state(rest)?;
            rng = Some(StdRng::from_state_bytes(*state));
            snapshot_loaded = true;
            rekey_obs::time_ns(
                "persist.snapshot.load",
                load_start.elapsed().as_nanos() as u64,
            );
        }

        let replay = self.storage.read_wal()?;
        let mut messages = Vec::new();
        let mut replayed = 0usize;
        for bytes in &replay.records {
            let record =
                EpochRecord::decode(bytes).ok_or(PersistError::Codec { what: "WAL record" })?;
            if record.epoch <= epoch {
                // The crash landed between the snapshot write and the
                // WAL truncation; the snapshot already covers this.
                continue;
            }
            if record.epoch != epoch + 1 {
                return Err(PersistError::EpochGap {
                    expected: epoch + 1,
                    found: record.epoch,
                });
            }
            let mut record_rng = StdRng::from_state_bytes(record.rng_state);
            let outcome = manager
                .process_interval(&record.joins, &record.leaves, &mut record_rng)
                .map_err(PersistError::Replay)?;
            if outcome.message.epoch != record.epoch {
                return Err(PersistError::EpochGap {
                    expected: record.epoch,
                    found: outcome.message.epoch,
                });
            }
            epoch = record.epoch;
            rng = Some(record_rng);
            messages.push(outcome.message);
            replayed += 1;
        }
        self.epoch = epoch;
        self.since_snapshot = replayed as u64;
        rekey_obs::count("persist.recover.replayed", replayed as u64);
        rekey_obs::count("persist.recover.dropped_bytes", replay.dropped_bytes as u64);
        Ok(Recovery {
            epoch,
            rng,
            messages,
            snapshot_loaded,
            replayed,
            dropped_wal_bytes: replay.dropped_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::TtManager;
    use crate::Scheme;
    use rand::SeedableRng;
    use rekey_crypto::Key;
    use rekey_storage::{FaultStorage, MemStorage};

    fn joins(base: u64, n: usize, rng: &mut StdRng) -> Vec<Join> {
        (0..n as u64)
            .map(|i| Join::new(MemberId(base + i), Key::generate(rng)))
            .collect()
    }

    /// Runs `intervals` churn intervals through a journal, returning
    /// the emitted frame bytes.
    fn churn(
        journal: &mut Journal<impl Storage>,
        manager: &mut dyn GroupKeyManager,
        rng: &mut StdRng,
        intervals: u64,
    ) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        for i in 0..intervals {
            let js = joins(1000 * (i + 1), 3, rng);
            let leaves: Vec<MemberId> = if i > 1 {
                vec![MemberId(1000 * i)]
            } else {
                vec![]
            };
            let mut sink = |m: &RekeyMessage| {
                frames.push(rekey_keytree::message::codec::encode_message(m));
            };
            journal
                .durable_interval(manager, &js, &leaves, rng, &mut sink)
                .unwrap();
        }
        frames
    }

    #[test]
    fn epoch_record_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let record = EpochRecord {
            epoch: 42,
            rng_state: rng.state_bytes(),
            joins: vec![
                Join::new(MemberId(7), Key::generate(&mut rng)),
                Join::new(MemberId(8), Key::generate(&mut rng))
                    .with_class(crate::DurationClass::Short)
                    .with_loss_rate(0.25),
            ],
            leaves: vec![MemberId(1), MemberId(2)],
        };
        let mut buf = Vec::new();
        record.encode_into(&mut buf);
        let decoded = EpochRecord::decode(&buf).unwrap();
        assert_eq!(decoded.epoch, record.epoch);
        assert_eq!(decoded.rng_state, record.rng_state);
        assert_eq!(decoded.leaves, record.leaves);
        assert_eq!(decoded.joins.len(), 2);
        assert_eq!(decoded.joins[1].hint, record.joins[1].hint);
        // Truncations never parse.
        for cut in 0..buf.len() {
            assert!(EpochRecord::decode(&buf[..cut]).is_none(), "cut {cut}");
        }
    }

    #[test]
    fn recovery_from_wal_alone_is_byte_identical() {
        // Reference run: no crash.
        let mut rng = StdRng::seed_from_u64(99);
        let mut manager = TtManager::new(3, 4);
        let mut journal = Journal::new(MemStorage::new(), 0);
        let reference = churn(&mut journal, &mut manager, &mut rng, 6);

        // Crashed run: same storage contents, fresh manager.
        let mut rebuilt = TtManager::new(3, 4);
        let mut recovered = Journal::new(
            MemStorage::from_parts(journal.storage_mut().wal_bytes().to_vec(), None),
            0,
        );
        let recovery = recovered.recover(&mut rebuilt).unwrap();
        assert!(!recovery.snapshot_loaded);
        assert_eq!(recovery.replayed, 6);
        assert_eq!(recovery.epoch, 6);
        let replayed: Vec<Vec<u8>> = recovery
            .messages
            .iter()
            .map(rekey_keytree::message::codec::encode_message)
            .collect();
        assert_eq!(replayed, reference, "replay must reproduce every byte");

        // And the recovered state continues identically: the two RNG
        // streams are at the same position, so identical future calls
        // draw identical bytes on both sides.
        let mut recovered_rng = recovery.rng.unwrap();
        assert_eq!(recovered_rng.state_bytes(), rng.state_bytes());
        let js = joins(50_000, 2, &mut rng);
        let mirror = joins(50_000, 2, &mut recovered_rng);
        let a = manager.process_interval(&js, &[], &mut rng).unwrap();
        let b = rebuilt
            .process_interval(&mirror, &[], &mut recovered_rng)
            .unwrap();
        assert_eq!(
            rekey_keytree::message::codec::encode_message(&a.message),
            rekey_keytree::message::codec::encode_message(&b.message)
        );
    }

    #[test]
    fn snapshot_truncates_wal_and_recovery_resumes() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut manager = TtManager::new(3, 3);
        let mut journal = Journal::new(MemStorage::new(), 4);
        let reference = churn(&mut journal, &mut manager, &mut rng, 10);
        // 10 intervals, snapshot every 4: WAL holds epochs 9..=10.
        let wal = journal.storage_mut().wal_bytes().to_vec();
        let snap = journal.storage_mut().snapshot_bytes();
        assert!(snap.is_some());

        let mut rebuilt = TtManager::new(3, 3);
        let mut recovered = Journal::new(MemStorage::from_parts(wal, snap), 4);
        let recovery = recovered.recover(&mut rebuilt).unwrap();
        assert!(recovery.snapshot_loaded);
        assert_eq!(recovery.epoch, 10);
        assert_eq!(recovery.replayed, 2, "snapshot bounded the replay");
        let replayed: Vec<Vec<u8>> = recovery
            .messages
            .iter()
            .map(rekey_keytree::message::codec::encode_message)
            .collect();
        assert_eq!(replayed, reference[8..], "tail frames re-derived exactly");
        assert_eq!(rebuilt.member_count(), manager.member_count());
    }

    #[test]
    fn every_scheme_survives_snapshot_restore() {
        for scheme in Scheme::ALL {
            let config = crate::SchemeConfig::default();
            let mut rng = StdRng::seed_from_u64(31);
            let mut manager = scheme.build(&config);
            let mut journal = Journal::new(MemStorage::new(), 0);
            churn(&mut journal, &mut *manager, &mut rng, 5);
            journal.snapshot(&*manager, &rng).unwrap();
            assert_eq!(
                journal.storage_mut().wal_bytes().len(),
                0,
                "snapshot resets the WAL"
            );

            let mut rebuilt = scheme.build(&config);
            let mut recovered = Journal::new(
                MemStorage::from_parts(Vec::new(), journal.storage_mut().snapshot_bytes()),
                0,
            );
            let recovery = recovered.recover(&mut *rebuilt).unwrap();
            assert_eq!(recovery.replayed, 0);
            assert_eq!(recovery.epoch, 5, "{scheme:?}");
            assert_eq!(rebuilt.member_count(), manager.member_count());
            assert_eq!(rebuilt.dek(), manager.dek(), "{scheme:?} DEK restored");

            // Post-restore continuation is byte-identical.
            let mut rng_b = recovery.rng.unwrap();
            assert_eq!(rng_b.state_bytes(), rng.state_bytes());
            let js = joins(90_000, 2, &mut rng);
            let mirror = joins(90_000, 2, &mut rng_b);
            let a = manager.process_interval(&js, &[], &mut rng).unwrap();
            let b = rebuilt.process_interval(&mirror, &[], &mut rng_b).unwrap();
            assert_eq!(
                rekey_keytree::message::codec::encode_message(&a.message),
                rekey_keytree::message::codec::encode_message(&b.message),
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn scheme_mismatch_is_detected() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut manager = TtManager::new(3, 4);
        let mut journal = Journal::new(MemStorage::new(), 0);
        churn(&mut journal, &mut manager, &mut rng, 2);
        journal.snapshot(&manager, &rng).unwrap();

        let mut other = crate::partition::QtManager::new(3, 4);
        let mut recovered = Journal::new(
            MemStorage::from_parts(Vec::new(), journal.storage_mut().snapshot_bytes()),
            0,
        );
        assert!(matches!(
            recovered.recover(&mut other),
            Err(PersistError::SchemeMismatch { .. })
        ));
    }

    /// The WAL-before-fan-out pin: when the append (or sync) fails,
    /// the sink must never see the frame — a frame no restart can
    /// re-derive must not reach a single client.
    #[test]
    fn failed_append_withholds_the_frame() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut manager = TtManager::new(3, 4);
        let mut storage = FaultStorage::new(MemStorage::new());
        storage.fail_after_appends(2);
        let mut journal = Journal::new(storage, 0);

        let mut delivered = 0usize;
        for i in 0..4u64 {
            let js = joins(100 * (i + 1), 2, &mut rng);
            let mut sink = |_: &RekeyMessage| delivered += 1;
            let result = journal.durable_interval(&mut manager, &js, &[], &mut rng, &mut sink);
            if i < 2 {
                result.unwrap();
            } else {
                assert!(matches!(
                    result,
                    Err(PersistError::Storage(StorageError::Injected))
                ));
            }
        }
        assert_eq!(delivered, 2, "no frame released after the log failed");
    }

    /// A torn WAL tail (crash mid-append) is repaired: replay stops at
    /// the last valid record and recovery proceeds from there.
    #[test]
    fn torn_wal_tail_recovers_to_last_valid_epoch() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut manager = TtManager::new(3, 4);
        let mut journal = Journal::new(FaultStorage::new(MemStorage::new()), 0);
        let frames = churn(&mut journal, &mut manager, &mut rng, 5);

        // Tear the last record mid-payload.
        journal.storage_mut().truncate_wal_tail(10);

        let mut rebuilt = TtManager::new(3, 4);
        let mut recovered = Journal::new(journal.into_storage(), 0);
        let recovery = recovered.recover(&mut rebuilt).unwrap();
        assert_eq!(recovery.replayed, 4, "tail record dropped");
        assert_eq!(recovery.epoch, 4);
        assert!(recovery.dropped_wal_bytes > 0);
        let replayed: Vec<Vec<u8>> = recovery
            .messages
            .iter()
            .map(rekey_keytree::message::codec::encode_message)
            .collect();
        assert_eq!(replayed, frames[..4]);
    }

    /// A corrupt byte mid-log also stops replay cleanly at the last
    /// record before the corruption.
    #[test]
    fn corrupt_wal_byte_stops_replay_at_last_valid_record() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut manager = TtManager::new(3, 4);
        let mut journal = Journal::new(FaultStorage::new(MemStorage::new()), 0);
        churn(&mut journal, &mut manager, &mut rng, 5);

        // Flip a byte about a third from the end of the stream: the
        // records at and past the corruption are lost, the prefix
        // replays.
        let wal_len = journal.storage_mut().wal_len();
        journal.storage_mut().corrupt_wal_byte(wal_len / 3);

        let mut rebuilt = TtManager::new(3, 4);
        let mut recovered = Journal::new(journal.into_storage(), 0);
        let recovery = recovered.recover(&mut rebuilt).unwrap();
        assert!(recovery.replayed < 5, "corruption truncated the replay");
        assert_eq!(recovery.epoch, recovery.replayed as u64);
        assert!(recovery.dropped_wal_bytes > 0);
    }
}
