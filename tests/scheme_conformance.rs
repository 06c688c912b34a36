//! Scheme-conformance harness: every group-key manager runs the same
//! deterministic seeded join/leave script and must uphold the same
//! contract —
//!
//! - **liveness / forward / backward secrecy**: present members always
//!   hold the current DEK, departed members never do, the DEK changes
//!   every interval;
//! - **member-count bookkeeping**: `member_count` / `contains` agree
//!   with the script's ground-truth membership after every interval;
//! - **parallelism transparency**: the rekey messages are
//!   byte-identical at 1 and 8 encryption workers;
//! - **golden digests**: the sha256 of all serialized rekey messages
//!   (versioned `codec::encode_message` envelope) is pinned per
//!   scheme, so any refactor that changes a single emitted byte fails
//!   loudly. The engine/policy split was landed against these digests.
//!
//! The script is shared across schemes: identical member ids, join
//! hints, and leave picks every interval. Key material differs per
//! scheme because each manager draws differently from the shared RNG,
//! which the digests absorb (they are per-scheme constants).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rekey_core::adaptive::AdaptiveManager;
use rekey_core::combined::CombinedManager;
use rekey_core::loss_forest::LossForestManager;
use rekey_core::one_tree::OneTreeManager;
use rekey_core::partition::{PtManager, QtManager, TtManager};
use rekey_core::{DurationClass, GroupKeyManager, Join};
use rekey_crypto::sha256::Sha256;
use rekey_crypto::Key;
use rekey_keytree::member::GroupMember;
use rekey_keytree::message::codec;
use rekey_keytree::MemberId;
use std::collections::BTreeMap;

const BOOTSTRAP: usize = 40;
const INTERVALS: usize = 12;
const JOINS_PER_INTERVAL: usize = 3;

/// Deterministic churn plan for one interval: how many members leave.
/// Interval 3, 7, 11 are pure-join (exercises the QT queue's cheap
/// join branch); the rest leave 1–3 members spread across the group
/// (old bootstrap members and young recent joiners alike, so
/// partitions, queues, and migrated members all see departures).
fn leaves_at(interval: usize) -> usize {
    if interval % 4 == 3 {
        0
    } else {
        1 + interval % 3
    }
}

fn hex(digest: &[u8]) -> String {
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// Ground truth the script maintains independently of the manager.
struct Script {
    /// Every member ever created, with its receiver state (departed
    /// members keep processing multicasts to prove forward secrecy).
    states: BTreeMap<MemberId, GroupMember>,
    present: Vec<MemberId>,
    departed: Vec<MemberId>,
    old_deks: Vec<Key>,
    next_id: u64,
}

impl Script {
    fn new() -> Self {
        Script {
            states: BTreeMap::new(),
            present: Vec::new(),
            departed: Vec::new(),
            old_deks: Vec::new(),
            next_id: 0,
        }
    }

    fn make_joins(&mut self, n: usize, rng: &mut StdRng) -> Vec<Join> {
        (0..n)
            .map(|i| {
                let id = MemberId(self.next_id);
                self.next_id += 1;
                let ik = Key::generate(rng);
                self.states.insert(id, GroupMember::new(id, ik.clone()));
                self.present.push(id);
                // Alternate hints so oracle placement and loss classes
                // are both exercised.
                let join = Join::new(id, ik);
                if i % 2 == 0 {
                    join.with_class(DurationClass::Short).with_loss_rate(0.2)
                } else {
                    join.with_class(DurationClass::Long).with_loss_rate(0.02)
                }
            })
            .collect()
    }

    /// Picks `n` leavers spread across the present set — index stride
    /// over the id-ordered membership, so departures hit old and young
    /// members alike. Pure function of the membership, no RNG.
    fn pick_leavers(&mut self, n: usize) -> Vec<MemberId> {
        self.present.sort_unstable();
        let stride = (self.present.len() / n.max(1)).max(1);
        let picked: Vec<MemberId> = (0..n)
            .map(|i| self.present[(1 + i * stride) % self.present.len()])
            .collect();
        self.present.retain(|m| !picked.contains(m));
        self.departed.extend(&picked);
        picked
    }

    fn broadcast(&mut self, message: &rekey_keytree::message::RekeyMessage) {
        for s in self.states.values_mut() {
            let _ = s.process(message);
        }
    }

    fn check(&self, mgr: &dyn GroupKeyManager, scheme: &str) {
        assert_eq!(
            mgr.member_count(),
            self.present.len(),
            "[{scheme}] member_count disagrees with the script"
        );
        let node = mgr.dek_node();
        let dek = mgr.dek();
        for id in &self.present {
            assert!(mgr.contains(*id), "[{scheme}] lost member {id}");
            assert_eq!(
                self.states[id].key_for(node),
                Some(dek),
                "[{scheme}] member {id} cannot produce the DEK"
            );
        }
        for id in &self.departed {
            assert!(!mgr.contains(*id), "[{scheme}] kept departed {id}");
            assert_ne!(
                self.states[id].key_for(node),
                Some(dek),
                "[{scheme}] departed member {id} holds the current DEK"
            );
        }
    }
}

/// Runs the shared script against one manager and returns the
/// serialized rekey message of every interval (bootstrap included).
fn run_script(mut mgr: Box<dyn GroupKeyManager>, workers: usize) -> Vec<Vec<u8>> {
    let scheme = mgr.scheme_name();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut script = Script::new();
    mgr.set_parallelism(workers);
    let mut wires = Vec::with_capacity(1 + INTERVALS);

    let joins = script.make_joins(BOOTSTRAP, &mut rng);
    let out = mgr
        .process_interval(&joins, &[], &mut rng)
        .expect("bootstrap");
    script.broadcast(&out.message);
    script.check(mgr.as_ref(), scheme);
    script.old_deks.push(mgr.dek().clone());
    wires.push(codec::encode_message(&out.message));

    for interval in 0..INTERVALS {
        let joins = script.make_joins(JOINS_PER_INTERVAL, &mut rng);
        let leavers = script.pick_leavers(leaves_at(interval));
        let out = mgr
            .process_interval(&joins, &leavers, &mut rng)
            .expect("scripted interval is consistent");
        assert_eq!(out.stats.joins, JOINS_PER_INTERVAL);
        assert_eq!(out.stats.leaves, leavers.len());
        assert_eq!(
            out.stats.message_bytes,
            out.message.byte_len(),
            "[{scheme}] reported wire size disagrees with the message"
        );
        script.broadcast(&out.message);
        script.check(mgr.as_ref(), scheme);

        // The DEK rotates every interval, and no newcomer ever saw a
        // previous one (its state was created after those were
        // multicast).
        let dek = mgr.dek().clone();
        assert!(
            !script.old_deks.contains(&dek),
            "[{scheme}] DEK repeated at interval {interval}"
        );
        script.old_deks.push(dek);
        wires.push(codec::encode_message(&out.message));
    }
    wires
}

/// Golden run digests: sha256 over the concatenated versioned
/// encodings of every interval's rekey message, per scheme. Pinned
/// from the pre-engine managers; the engine refactor reproduced them
/// byte for byte. The adaptive run switches scheme at interval 8, and
/// its messages carry epochs 1..=13 straight through the switch.
const GOLDEN_DIGESTS: [(&str, &str); 7] = [
    (
        "one-keytree",
        "97604917abca4ee22227541061e8ff1ab41525e36cfd08edf0b6042c8c75afc8",
    ),
    (
        "tt-scheme",
        "d272bd7e4048d739799e77270d3472190db881920a809275e7ed87b697474d40",
    ),
    (
        "qt-scheme",
        "08da5c11de01419b18200e513d784d20e4e39d446453d6fb682e747f70d1a9cc",
    ),
    (
        "pt-scheme",
        "db05208d9f8a67cdcce4acb94d308782e012945488f1a58f20621cf8e752af21",
    ),
    (
        "loss-homogenized-forest",
        "914a7346e3503abd32cff4b85a8d42b3707ec98c8a7e96b6fba1cd21ba801929",
    ),
    (
        "combined-partition-forest",
        "a07fa54cb0314090dd02653a7d3806765b4161993fafe1077e94a9b46b1f6247",
    ),
    (
        "adaptive",
        "53c459e8b65ae5bdcda2e3738d4920591c89c43b90a96df727e00679ca956b6d",
    ),
];

fn managers() -> Vec<Box<dyn GroupKeyManager>> {
    vec![
        Box::new(OneTreeManager::new(4)),
        Box::new(TtManager::new(4, 3)),
        Box::new(QtManager::new(4, 3)),
        Box::new(PtManager::new(4)),
        Box::new(LossForestManager::two_trees(4)),
        Box::new(CombinedManager::two_loss_classes(4, 3)),
        Box::new(AdaptiveManager::paper_default(4)),
    ]
}

fn digest_of(wires: &[Vec<u8>]) -> String {
    let mut hasher = Sha256::new();
    for wire in wires {
        hasher.update(wire);
    }
    hex(&hasher.finalize())
}

#[test]
fn all_schemes_satisfy_the_conformance_contract() {
    for mgr in managers() {
        // run_script asserts secrecy + bookkeeping internally.
        run_script(mgr, 1);
    }
}

#[test]
fn rekey_messages_are_byte_identical_across_worker_counts() {
    for (seq_mgr, par_mgr) in managers().into_iter().zip(managers()) {
        let scheme = seq_mgr.scheme_name();
        let seq = run_script(seq_mgr, 1);
        let par = run_script(par_mgr, 8);
        assert_eq!(
            seq, par,
            "[{scheme}] messages diverged between 1 and 8 workers"
        );
    }
}

#[test]
fn golden_digests_pin_every_scheme_byte_exactly() {
    let golden: BTreeMap<&str, &str> = GOLDEN_DIGESTS.into_iter().collect();
    for mgr in managers() {
        let scheme = mgr.scheme_name();
        let digest = digest_of(&run_script(mgr, 1));
        let expected = golden
            .get(scheme)
            .unwrap_or_else(|| panic!("no golden digest for scheme {scheme}"));
        assert_eq!(
            &digest.as_str(),
            expected,
            "[{scheme}] rekey output changed: the seeded run no longer emits \
             byte-identical messages. If the change is intentional and \
             behaviour-preserving arguments do not apply, re-pin the digest."
        );
    }
}
