//! The epoch pipeline under test, driven the way `rekey serve
//! --data-dir` drives it: each batch goes through
//! [`Journal::durable_interval`] over an fsyncing [`DirStorage`], the
//! sink publishes on a loopback [`Rekeyd`], and two probe members
//! follow over TCP as [`RekeyClient`]s on one probe thread.
//!
//! Layers are timed from outside, by delegating wrappers around the
//! calls into them: [`TimedManager`] (core), [`TimedStorage`]
//! (storage) and [`PublishSink`] (net). Each records a [`Call`] per
//! call while its log is switched on.

use crate::workload::{probe_key, Batch, Spec, PROBES};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rekey_core::{
    GroupKeyManager, IntervalOutcome, Join, Journal, PersistError, RekeySink, SchemeConfig,
};
use rekey_crypto::sha256::Sha256;
use rekey_crypto::Key;
use rekey_keytree::message::{codec, RekeyMessage};
use rekey_keytree::{KeyTreeError, MemberId, NodeId};
use rekey_net::{ClientConfig, NetError, RekeyClient, Rekeyd, ServerConfig};
use rekey_storage::{DirStorage, Storage, StorageError, WalReplay};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The daemon's default snapshot cadence (`rekey serve
/// --snapshot-every`).
pub const SNAPSHOT_EVERY: u64 = 8;

/// How long a probe may take to hold an epoch's DEK before the epoch
/// counts as failed.
const SYNC_BUDGET: Duration = Duration::from_secs(10);

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Bytes handed to the layer (storage writes), else 0.
    pub bytes: u64,
}

impl Call {
    pub fn ns(&self) -> u64 {
        self.end.duration_since(self.start).as_nanos() as u64
    }
}

/// The calls a wrapper saw while switched on.
#[derive(Debug, Default)]
struct CallLog {
    on: bool,
    calls: Vec<Call>,
}

impl CallLog {
    fn time<T>(&mut self, name: &'static str, bytes: usize, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.calls.push(Call {
            name,
            start,
            end: Instant::now(),
            bytes: bytes as u64,
        });
        out
    }
}

/// Delegating [`GroupKeyManager`]: times the calls the journal makes
/// into the core layer.
struct TimedManager {
    inner: Box<dyn GroupKeyManager>,
    /// In a cell because the journal calls `save_state` through `&self`.
    log: RefCell<CallLog>,
}

impl GroupKeyManager for TimedManager {
    fn process_interval(
        &mut self,
        joins: &[Join],
        leaves: &[MemberId],
        rng: &mut dyn RngCore,
    ) -> Result<IntervalOutcome, KeyTreeError> {
        let inner = &mut self.inner;
        self.log.get_mut().time("core.process_interval", 0, || {
            inner.process_interval(joins, leaves, rng)
        })
    }
    fn set_parallelism(&mut self, workers: usize) {
        self.inner.set_parallelism(workers);
    }
    fn dek_node(&self) -> NodeId {
        self.inner.dek_node()
    }
    fn dek(&self) -> &Key {
        self.inner.dek()
    }
    fn member_count(&self) -> usize {
        self.inner.member_count()
    }
    fn contains(&self, member: MemberId) -> bool {
        self.inner.contains(member)
    }
    fn members_under(&self, node: NodeId) -> Vec<MemberId> {
        self.inner.members_under(node)
    }
    fn members_under_into(&self, node: NodeId, out: &mut Vec<MemberId>) {
        self.inner.members_under_into(node, out);
    }
    fn scheme_name(&self) -> &'static str {
        self.inner.scheme_name()
    }
    fn save_state(&self, buf: &mut Vec<u8>) -> Result<(), PersistError> {
        self.log
            .borrow_mut()
            .time("core.save_state", 0, || self.inner.save_state(buf))
    }
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.inner.restore_state(bytes)
    }
}

/// Delegating [`Storage`]: times the journal's calls into the storage
/// layer.
struct TimedStorage<S> {
    inner: S,
    log: CallLog,
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn append_wal(&mut self, record: &[u8]) -> Result<(), StorageError> {
        let inner = &mut self.inner;
        self.log.time("storage.append_wal", record.len(), || {
            inner.append_wal(record)
        })
    }
    fn sync_wal(&mut self) -> Result<(), StorageError> {
        let inner = &mut self.inner;
        self.log.time("storage.sync_wal", 0, || inner.sync_wal())
    }
    fn read_wal(&mut self) -> Result<WalReplay, StorageError> {
        self.inner.read_wal()
    }
    fn reset_wal(&mut self) -> Result<(), StorageError> {
        let inner = &mut self.inner;
        self.log.time("storage.reset_wal", 0, || inner.reset_wal())
    }
    fn write_snapshot(&mut self, blob: &[u8]) -> Result<(), StorageError> {
        let inner = &mut self.inner;
        self.log.time("storage.write_snapshot", blob.len(), || {
            inner.write_snapshot(blob)
        })
    }
    fn load_snapshot(&mut self) -> Result<Option<Vec<u8>>, StorageError> {
        self.inner.load_snapshot()
    }
}

/// The journal's sink: publishes each epoch on the daemon.
struct PublishSink<'a> {
    daemon: &'a Rekeyd,
    log: CallLog,
    error: Option<NetError>,
}

impl RekeySink for PublishSink<'_> {
    fn on_message(&mut self, message: &RekeyMessage) {
        let daemon = self.daemon;
        if let Err(e) = self.log.time("net.publish", 0, || daemon.publish(message)) {
            self.error = Some(e);
        }
    }
}

enum ProbeCmd {
    /// Sync every probe to this epoch and report.
    Expect(u64),
    Stop,
}

struct ProbeReport {
    done: Instant,
    deks: Vec<Option<Key>>,
    error: Option<String>,
}

/// What the probe thread hands back when it stops.
struct ProbeEnd {
    digests: Vec<[u8; 32]>,
    reconnects: u64,
}

/// The probe thread: owns both probe clients and syncs them, one
/// after the other, to each epoch the main thread announces.
fn probe_main(
    mut clients: Vec<RekeyClient>,
    dek_node: NodeId,
    commands: Receiver<ProbeCmd>,
    reports: Sender<ProbeReport>,
) -> ProbeEnd {
    while let Ok(ProbeCmd::Expect(epoch)) = commands.recv() {
        let mut error = None;
        for client in &mut clients {
            if let Err(e) = client.sync_to(epoch, SYNC_BUDGET) {
                error = Some(format!(
                    "probe {} at epoch {epoch}: {e}",
                    client.member().id().0
                ));
            }
        }
        let done = Instant::now();
        let deks = clients
            .iter()
            .map(|c| c.member().key_for(dek_node).cloned())
            .collect();
        if reports.send(ProbeReport { done, deks, error }).is_err() {
            break;
        }
    }
    for client in &mut clients {
        client.close();
    }
    ProbeEnd {
        digests: clients.iter().map(RekeyClient::digest).collect(),
        reconnects: clients.iter().map(RekeyClient::reconnects).sum(),
    }
}

/// Per-epoch timings and counts.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Epoch start: `durable_interval` is about to be called.
    pub start: Instant,
    /// `durable_interval` returned.
    pub returned: Instant,
    /// The last probe installed the epoch's DEK.
    pub installed: Instant,
    pub keys: usize,
    pub wire_bytes: usize,
    /// Layer calls, when the epoch was traced.
    pub calls: Vec<Call>,
}

impl Sample {
    /// When the sink's publish returned: the fan-out hand-off (the
    /// epoch start when the epoch was not traced).
    pub fn published(&self) -> Instant {
        self.calls
            .iter()
            .find(|c| c.name == "net.publish")
            .map_or(self.start, |c| c.end)
    }

    /// Epoch latency: until the later of return and last install.
    pub fn ns(&self) -> u64 {
        self.returned
            .max(self.installed)
            .duration_since(self.start)
            .as_nanos() as u64
    }
}

/// The daemon's traffic counters, read around the timed epochs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NetCounters {
    pub bytes_out: u64,
    pub nacks: u64,
    pub backpressure_drops: u64,
}

/// One set-up instance of the whole pipeline.
pub struct Stack {
    daemon: Rekeyd,
    journal: Journal<TimedStorage<DirStorage>>,
    manager: TimedManager,
    rng: StdRng,
    dir: PathBuf,
    dek_node: NodeId,
    probes: Option<Probes>,
    wire: Sha256,
}

impl Stack {
    /// Binds the daemon on loopback, registers the probes, and opens a
    /// fresh store in `dir`.
    pub fn open(spec: &Spec, seed: u64, dir: &Path) -> Result<Stack, String> {
        match std::fs::remove_dir_all(dir) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("clearing {}: {e}", dir.display())),
        }
        let daemon = Rekeyd::bind("127.0.0.1:0", ServerConfig::default())
            .map_err(|e| format!("binding rekeyd: {e}"))?;
        for member in PROBES {
            daemon.register(member, probe_key(seed, member));
        }
        let storage = DirStorage::open(dir).map_err(|e| format!("opening store: {e}"))?;
        let journal = Journal::new(
            TimedStorage {
                inner: storage,
                log: CallLog::default(),
            },
            SNAPSHOT_EVERY,
        );
        let inner = spec
            .scheme
            .build(&SchemeConfig::new().degree(spec.degree).s_period(spec.k));
        let dek_node = inner.dek_node();
        Ok(Stack {
            daemon,
            journal,
            manager: TimedManager {
                inner,
                log: RefCell::default(),
            },
            rng: StdRng::seed_from_u64(seed),
            dir: dir.to_path_buf(),
            dek_node,
            probes: None,
            wire: Sha256::new(),
        })
    }

    /// Starts the probe thread and syncs it to the current epoch.
    /// Called after the bootstrap epoch: the probes' handshake reports
    /// epoch 1 as the daemon's latest, and they NACK it back from the
    /// retransmission window.
    pub fn start_probes(&mut self, seed: u64) -> Result<(), String> {
        let addr = self.daemon.local_addr();
        let clients = PROBES
            .iter()
            .map(|&m| RekeyClient::new(addr, m, probe_key(seed, m), 1, ClientConfig::default()))
            .collect();
        let (cmd_tx, cmd_rx) = mpsc::channel();
        let (report_tx, report_rx) = mpsc::channel();
        let dek_node = self.dek_node;
        let handle = std::thread::Builder::new()
            .name("probes".into())
            .spawn(move || probe_main(clients, dek_node, cmd_rx, report_tx))
            .map_err(|e| format!("spawning probe thread: {e}"))?;
        self.probes = Some(Probes {
            commands: cmd_tx,
            reports: report_rx,
            thread: handle,
        });
        let epoch = self.journal.epoch();
        self.announce(epoch)?;
        self.collect(epoch).map(|_| ())
    }

    fn announce(&self, epoch: u64) -> Result<(), String> {
        match &self.probes {
            Some(probes) => probes
                .commands
                .send(ProbeCmd::Expect(epoch))
                .map_err(|_| "probe thread exited".to_string()),
            None => Ok(()),
        }
    }

    /// Waits for the probes' report on `epoch` and checks that each
    /// probe holds the server's DEK. Returns when the last one
    /// installed it (`None` before the probes start).
    fn collect(&self, epoch: u64) -> Result<Option<Instant>, String> {
        let Some(probes) = &self.probes else {
            return Ok(None);
        };
        let report = probes
            .reports
            .recv_timeout(SYNC_BUDGET * (PROBES.len() as u32 + 1))
            .map_err(|_| format!("probes did not report epoch {epoch}"))?;
        if let Some(error) = report.error {
            return Err(error);
        }
        let expected = self.manager.dek();
        if report.deks.iter().any(|dek| dek.as_ref() != Some(expected)) {
            return Err(format!(
                "a probe does not hold the server's DEK after epoch {epoch}"
            ));
        }
        Ok(Some(report.done))
    }

    /// Runs one epoch through the pipeline. With `trace` the layer
    /// wrappers record their calls into the sample.
    pub fn epoch(&mut self, batch: &Batch, trace: bool) -> Result<Sample, String> {
        let epoch = self.journal.epoch() + 1;
        self.manager.log.get_mut().on = trace;
        self.journal.storage_mut().log.on = trace;
        let mut sink = PublishSink {
            daemon: &self.daemon,
            log: CallLog {
                on: trace,
                calls: Vec::new(),
            },
            error: None,
        };
        self.announce(epoch)?;
        let start = Instant::now();
        let outcome = self.journal.durable_interval(
            &mut self.manager,
            &batch.joins,
            &batch.leaves,
            &mut self.rng,
            &mut sink,
        );
        let returned = Instant::now();
        let outcome = outcome.map_err(|e| format!("server error at epoch {epoch}: {e}"))?;
        if let Some(e) = sink.error {
            return Err(format!("publish error at epoch {epoch}: {e}"));
        }
        let installed = self.collect(epoch)?.unwrap_or(returned);

        // Outside the epoch: chain the wire digest the probes must match.
        let wire = codec::encode_message(&outcome.message);
        self.wire.update(&wire);
        let mut calls = std::mem::take(&mut self.manager.log.get_mut().calls);
        calls.append(&mut self.journal.storage_mut().log.calls);
        calls.append(&mut sink.log.calls);
        Ok(Sample {
            start,
            returned,
            installed,
            keys: outcome.message.encrypted_key_count(),
            wire_bytes: wire.len(),
            calls,
        })
    }

    /// The daemon's traffic counters so far.
    pub fn net_counters(&self) -> NetCounters {
        let snap = self.daemon.collector().snapshot();
        NetCounters {
            bytes_out: snap.counter("net.bytes_out"),
            nacks: snap.counter("net.nacks"),
            backpressure_drops: snap.counter("net.sessions.dropped_backpressure"),
        }
    }

    /// Stops the probes and checks that each one's chained wire
    /// digest equals the server's. Returns the server's digest and the
    /// probes' reconnect count. Dropping the stack then shuts the
    /// daemon down and removes the store.
    pub fn finish(mut self) -> Result<([u8; 32], u64), String> {
        let server = self.wire.clone().finalize();
        let end = self.stop_probes()?;
        if end.digests.iter().any(|d| *d != server) {
            return Err("a probe's wire digest differs from the server's".into());
        }
        Ok((server, end.reconnects))
    }

    fn stop_probes(&mut self) -> Result<ProbeEnd, String> {
        let probes = self.probes.take().ok_or("the probes never started")?;
        let _ = probes.commands.send(ProbeCmd::Stop);
        probes
            .thread
            .join()
            .map_err(|_| "probe thread panicked".to_string())
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // Best effort on every path, failed runs included; the daemon's
        // own `Drop` then stops it and joins its threads.
        if self.probes.is_some() {
            let _ = self.stop_probes();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

struct Probes {
    commands: Sender<ProbeCmd>,
    reports: Receiver<ProbeReport>,
    thread: JoinHandle<ProbeEnd>,
}
