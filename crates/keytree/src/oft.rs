//! One-way function trees (OFT) \[BM00\] — full wire protocol.
//!
//! OFT is the other major logical-key-hierarchy family the paper's
//! optimizations apply to (§2.1.1). In an OFT the key of an interior
//! node is not chosen by the server but *computed* from its children:
//!
//! ```text
//! k(parent) = mix(blind(k(left)), blind(k(right)))
//! ```
//!
//! where `blind` is a one-way function (HKDF with label `oft-blind`)
//! and `mix` combines two blinded keys (HKDF over their
//! concatenation). A member holds its own leaf key plus the blinded
//! keys of the *siblings* of every node on its path, from which it
//! recomputes every path key including the root. An eviction costs
//! about `h + 1` encrypted items instead of LKH's `d·h`.
//!
//! This module implements both sides of the protocol:
//!
//! - [`OftServer`] — tree maintenance; [`OftServer::join`] /
//!   [`OftServer::leave`] emit an [`OftBroadcast`] of operations:
//!   public structural deltas ([`OftOp::Split`], [`OftOp::Promote`])
//!   plus encrypted payloads ([`OftOp::Blind`], [`OftOp::LeafRefresh`],
//!   [`OftOp::Welcome`]) wrapped with [`rekey_crypto::keywrap`];
//! - [`OftMember`] — processes broadcasts, maintaining its path
//!   levels (ancestor id, sibling id, side, sibling blind) and
//!   recomputing the group key after every change.
//!
//! As in LKH, tree *structure* (node ids, sides) is public; only key
//! material is encrypted.

use crate::{KeyTreeError, MemberId, NodeId};
use rand::RngCore;
use rekey_crypto::hmac::HmacKey;
use rekey_crypto::keywrap::{self, WrappedKey};
use rekey_crypto::{hkdf, Key};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Which side of its parent a node hangs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The left child slot.
    Left,
    /// The right child slot.
    Right,
}

impl Side {
    /// The opposite side.
    pub fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// Computes the one-way blind of a node key.
pub fn blind(key: &Key) -> Key {
    key.derive(b"oft-blind")
}

/// Mixes two blinded child keys into the parent key: RFC 5869 HKDF
/// with salt `"oft-mix"` (scheduled once per process), IKM the two
/// blinds, info `"parent-key"`.
pub fn mix(left_blind: &Key, right_blind: &Key) -> Key {
    static SALT: OnceLock<HmacKey> = OnceLock::new();
    let mut ikm = [0u8; 64];
    ikm[..32].copy_from_slice(left_blind.as_bytes());
    ikm[32..].copy_from_slice(right_blind.as_bytes());
    rekey_obs::count("crypto.hkdf", 1);
    let prk = hkdf::extract_with(SALT.get_or_init(|| HmacKey::new(b"oft-mix")), &ikm);
    let mut out = [0u8; 32];
    hkdf::expand(&prk, b"parent-key", &mut out);
    Key::from_bytes(out)
}

/// One level of a member's path-state, bottom-up.
#[derive(Debug, Clone)]
pub struct PathLevel {
    /// The member's ancestor at this level (parent of the node below).
    pub ancestor: NodeId,
    /// The sibling whose blind the member holds.
    pub sibling: NodeId,
    /// Which side the *sibling* is on.
    pub sibling_side: Side,
    /// The sibling's blinded key.
    pub sibling_blind: Key,
}

/// One level of a welcome packet: sibling metadata in the clear, the
/// blind encrypted under the joining member's individual key.
#[derive(Debug, Clone)]
pub struct WelcomeLevel {
    /// The new member's ancestor at this level.
    pub ancestor: NodeId,
    /// Sibling node id.
    pub sibling: NodeId,
    /// Side the sibling is on.
    pub sibling_side: Side,
    /// `blind(k(sibling))` wrapped under the member's individual key.
    pub wrapped_blind: WrappedKey,
}

/// One operation of an OFT broadcast, applied in order.
#[derive(Debug, Clone)]
pub enum OftOp {
    /// Leaf `split_leaf` was replaced by interior `new_interior` whose
    /// children are `[split_leaf, new_leaf]` (public structure).
    Split {
        /// The leaf that was split.
        split_leaf: NodeId,
        /// The interior node created in its place.
        new_interior: NodeId,
        /// The joining member's leaf (right child).
        new_leaf: NodeId,
    },
    /// Interior `removed_parent` was deleted and its child `promoted`
    /// took its place (public structure).
    Promote {
        /// The deleted interior node.
        removed_parent: NodeId,
        /// The child that moved up.
        promoted: NodeId,
    },
    /// The (new) blinded key of `node`, encrypted under the node key
    /// of `under` — needed by every member of `under`'s subtree.
    Blind {
        /// Whose blind is transported.
        node: NodeId,
        /// Whose key encrypts it.
        under: NodeId,
        /// The encrypted blind.
        wrapped: WrappedKey,
    },
    /// A fresh leaf key for the member owning `leaf`, encrypted under
    /// that leaf's previous key.
    LeafRefresh {
        /// The refreshed leaf.
        leaf: NodeId,
        /// The new leaf key under the old one.
        wrapped: WrappedKey,
    },
    /// The joining member's bootstrap: its leaf id and key plus its
    /// initial path, all key material under its individual key.
    Welcome {
        /// The joining member.
        member: MemberId,
        /// Its new leaf.
        leaf: NodeId,
        /// Its server-chosen leaf key, under its individual key.
        wrapped_leaf_key: WrappedKey,
        /// Its path levels, blinds under its individual key.
        levels: Vec<WelcomeLevel>,
    },
}

/// The multicast message of one OFT membership operation.
#[derive(Debug, Clone, Default)]
pub struct OftBroadcast {
    /// Rekey epoch.
    pub epoch: u64,
    /// Operations, to be applied in order.
    pub ops: Vec<OftOp>,
}

impl OftBroadcast {
    /// Number of encrypted items (blinds, leaf keys) — directly
    /// comparable to LKH's encrypted-key count.
    pub fn encrypted_key_count(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                OftOp::Blind { .. } | OftOp::LeafRefresh { .. } => 1,
                OftOp::Welcome { levels, .. } => 1 + levels.len(),
                OftOp::Split { .. } | OftOp::Promote { .. } => 0,
            })
            .sum()
    }
}

// ---------------------------------------------------------------------
// Member side
// ---------------------------------------------------------------------

/// Receiver-side OFT state: the leaf key and one [`PathLevel`] per
/// tree level, bottom-up.
#[derive(Debug, Clone)]
pub struct OftMember {
    id: MemberId,
    individual: Key,
    /// `None` until the member's welcome arrives.
    leaf: Option<NodeId>,
    leaf_key: Option<Key>,
    levels: Vec<PathLevel>,
}

impl OftMember {
    /// A member that has registered `individual_key` with the server
    /// but not yet joined.
    pub fn new(id: MemberId, individual_key: Key) -> Self {
        OftMember {
            id,
            individual: individual_key,
            leaf: None,
            leaf_key: None,
            levels: Vec::new(),
        }
    }

    /// This member's id.
    pub fn id(&self) -> MemberId {
        self.id
    }

    /// The member's leaf node, once joined.
    pub fn leaf(&self) -> Option<NodeId> {
        self.leaf
    }

    /// Recomputes the group key from the leaf key and sibling blinds;
    /// `None` before the welcome arrived.
    pub fn group_key(&self) -> Option<Key> {
        let mut key = self.leaf_key.clone()?;
        for level in &self.levels {
            let own = blind(&key);
            key = match level.sibling_side {
                Side::Left => mix(&level.sibling_blind, &own),
                Side::Right => mix(&own, &level.sibling_blind),
            };
        }
        Some(key)
    }

    /// The node key of the member's ancestor at `level` (level 0 =
    /// parent of the leaf).
    fn key_at(&self, level: usize) -> Option<Key> {
        let mut key = self.leaf_key.clone()?;
        for l in self.levels.iter().take(level + 1) {
            let own = blind(&key);
            key = match l.sibling_side {
                Side::Left => mix(&l.sibling_blind, &own),
                Side::Right => mix(&own, &l.sibling_blind),
            };
        }
        Some(key)
    }

    /// Processes one broadcast, returning the number of encrypted
    /// items this member decrypted.
    ///
    /// # Errors
    ///
    /// [`KeyTreeError::Crypto`] if an item addressed to this member
    /// fails authentication (corruption / forgery).
    pub fn process(&mut self, broadcast: &OftBroadcast) -> Result<usize, KeyTreeError> {
        let mut decrypted = 0;
        for op in &broadcast.ops {
            match op {
                OftOp::Split {
                    split_leaf,
                    new_interior,
                    new_leaf,
                } => {
                    if Some(*split_leaf) == self.leaf {
                        // Our leaf was split: gain a bottom level whose
                        // sibling is the new (right) leaf. The blind
                        // arrives in a following Blind op.
                        self.levels.insert(
                            0,
                            PathLevel {
                                ancestor: *new_interior,
                                sibling: *new_leaf,
                                sibling_side: Side::Right,
                                sibling_blind: Key::from_bytes([0; 32]),
                            },
                        );
                    } else {
                        // If the split leaf was our sibling at some
                        // level, the interior node takes its place.
                        for level in &mut self.levels {
                            if level.sibling == *split_leaf {
                                level.sibling = *new_interior;
                            }
                        }
                    }
                }
                OftOp::Promote {
                    removed_parent,
                    promoted,
                } => {
                    // Inside the promoted subtree: drop the level whose
                    // ancestor vanished.
                    if let Some(pos) = self
                        .levels
                        .iter()
                        .position(|l| l.ancestor == *removed_parent)
                    {
                        self.levels.remove(pos);
                    }
                    // Outside: the removed interior may have been our
                    // sibling; the promoted child replaces it.
                    for level in &mut self.levels {
                        if level.sibling == *removed_parent {
                            level.sibling = *promoted;
                        }
                    }
                }
                OftOp::Blind {
                    node,
                    under,
                    wrapped,
                } => {
                    let Some(leaf) = self.leaf else { continue };
                    // Which of our keys encrypts this? Our leaf, or an
                    // ancestor (in which case the blind belongs to the
                    // level above it).
                    let (level_idx, key) = if *under == leaf {
                        (0, self.leaf_key.clone())
                    } else {
                        match self.levels.iter().position(|l| l.ancestor == *under) {
                            Some(j) => (j + 1, self.key_at(j)),
                            None => continue, // not for us
                        }
                    };
                    let Some(key) = key else { continue };
                    if level_idx >= self.levels.len() || self.levels[level_idx].sibling != *node {
                        continue; // stale or mis-addressed
                    }
                    let new_blind = keywrap::unwrap(&key, wrapped)?;
                    self.levels[level_idx].sibling_blind = new_blind;
                    decrypted += 1;
                }
                OftOp::LeafRefresh { leaf, wrapped } => {
                    if Some(*leaf) == self.leaf {
                        let old = self.leaf_key.as_ref().expect("joined member has a key");
                        self.leaf_key = Some(keywrap::unwrap(old, wrapped)?);
                        decrypted += 1;
                    }
                }
                OftOp::Welcome {
                    member,
                    leaf,
                    wrapped_leaf_key,
                    levels,
                } => {
                    if *member != self.id {
                        continue;
                    }
                    self.leaf = Some(*leaf);
                    self.leaf_key = Some(keywrap::unwrap(&self.individual, wrapped_leaf_key)?);
                    decrypted += 1;
                    self.levels = levels
                        .iter()
                        .map(|w| {
                            let blind = keywrap::unwrap(&self.individual, &w.wrapped_blind)?;
                            decrypted += 1;
                            Ok(PathLevel {
                                ancestor: w.ancestor,
                                sibling: w.sibling,
                                sibling_side: w.sibling_side,
                                sibling_blind: blind,
                            })
                        })
                        .collect::<Result<_, KeyTreeError>>()?;
                }
            }
        }
        Ok(decrypted)
    }
}

// ---------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct OftNode {
    id: NodeId,
    parent: Option<usize>,
    /// `[left, right]` for interior nodes, empty for leaves.
    children: Vec<usize>,
    member: Option<MemberId>,
    key: Key,
    leaf_count: usize,
}

/// Server side of a one-way function tree.
#[derive(Debug, Clone)]
pub struct OftServer {
    slots: Vec<Option<OftNode>>,
    free: Vec<usize>,
    index_of: HashMap<NodeId, usize>,
    leaf_of: HashMap<MemberId, NodeId>,
    /// Arena index of the root, `None` while the group is empty.
    root: Option<usize>,
    namespace: u32,
    next_counter: u64,
    epoch: u64,
}

impl OftServer {
    /// Creates an empty OFT drawing node ids from `namespace`.
    pub fn new(namespace: u32) -> Self {
        OftServer {
            slots: Vec::new(),
            free: Vec::new(),
            index_of: HashMap::new(),
            leaf_of: HashMap::new(),
            root: None,
            namespace,
            next_counter: 0,
            epoch: 0,
        }
    }

    fn fresh_id(&mut self) -> NodeId {
        let id = NodeId::from_parts(self.namespace, self.next_counter);
        self.next_counter += 1;
        id
    }

    fn alloc(&mut self, node: OftNode) -> usize {
        let id = node.id;
        let idx = if let Some(idx) = self.free.pop() {
            self.slots[idx] = Some(node);
            idx
        } else {
            self.slots.push(Some(node));
            self.slots.len() - 1
        };
        self.index_of.insert(id, idx);
        idx
    }

    fn dealloc(&mut self, idx: usize) {
        if let Some(node) = self.slots[idx].take() {
            self.index_of.remove(&node.id);
            self.free.push(idx);
        }
    }

    fn node(&self, idx: usize) -> &OftNode {
        self.slots[idx].as_ref().expect("dangling OFT node index")
    }

    fn node_mut(&mut self, idx: usize) -> &mut OftNode {
        self.slots[idx].as_mut().expect("dangling OFT node index")
    }

    /// Number of members.
    pub fn member_count(&self) -> usize {
        self.leaf_of.len()
    }

    /// Whether `member` is present.
    pub fn contains(&self, member: MemberId) -> bool {
        self.leaf_of.contains_key(&member)
    }

    /// The current group key, or `None` while the group is empty.
    pub fn root_key(&self) -> Option<&Key> {
        self.root.map(|idx| &self.node(idx).key)
    }

    /// Height of the tree (edges on the longest root-leaf path).
    pub fn height(&self) -> usize {
        fn depth(server: &OftServer, idx: usize) -> usize {
            server
                .node(idx)
                .children
                .iter()
                .map(|&c| 1 + depth(server, c))
                .max()
                .unwrap_or(0)
        }
        self.root.map(|r| depth(self, r)).unwrap_or(0)
    }

    /// Recomputes interior keys from `start_idx` up to the root after
    /// a blind below changed.
    fn recompute_up(&mut self, start_idx: Option<usize>) {
        let mut walk = start_idx;
        while let Some(idx) = walk {
            let n = self.node(idx);
            if n.children.len() == 2 {
                let left = blind(&self.node(n.children[0]).key);
                let right = blind(&self.node(n.children[1]).key);
                self.node_mut(idx).key = mix(&left, &right);
            }
            walk = self.node(idx).parent;
        }
    }

    /// Walks from `from_idx` to the root, emitting each changed blind
    /// to the sibling's subtree encrypted under the sibling's key.
    fn blind_updates_up<R: RngCore>(&self, from_idx: usize, rng: &mut R, ops: &mut Vec<OftOp>) {
        let mut idx = from_idx;
        while let Some(parent) = self.node(idx).parent {
            let p = self.node(parent);
            let sibling_idx = if p.children[0] == idx {
                p.children[1]
            } else {
                p.children[0]
            };
            let sibling = self.node(sibling_idx);
            ops.push(OftOp::Blind {
                node: self.node(idx).id,
                under: sibling.id,
                wrapped: keywrap::wrap(&sibling.key, &blind(&self.node(idx).key), rng),
            });
            idx = parent;
        }
    }

    /// The path levels of `member` as the server sees them (used for
    /// welcomes and for tests).
    fn path_levels(&self, leaf_idx: usize) -> Vec<(NodeId, NodeId, Side, Key)> {
        let mut out = Vec::new();
        let mut idx = leaf_idx;
        while let Some(parent) = self.node(idx).parent {
            let p = self.node(parent);
            let (sibling_idx, side) = if p.children[0] == idx {
                (p.children[1], Side::Right)
            } else {
                (p.children[0], Side::Left)
            };
            let sib = self.node(sibling_idx);
            out.push((p.id, sib.id, side, blind(&sib.key)));
            idx = parent;
        }
        out
    }

    /// Admits a member: the member must have registered
    /// `individual_key`; the server picks a fresh leaf key and welcomes
    /// the member with its path.
    ///
    /// # Errors
    ///
    /// [`KeyTreeError::DuplicateMember`] if already present.
    pub fn join<R: RngCore>(
        &mut self,
        member: MemberId,
        individual_key: &Key,
        rng: &mut R,
    ) -> Result<OftBroadcast, KeyTreeError> {
        if self.contains(member) {
            return Err(KeyTreeError::DuplicateMember(member));
        }
        self.epoch += 1;
        let leaf_id = self.fresh_id();
        let leaf_key = Key::generate(rng);
        let mut ops = Vec::new();

        let leaf_idx = match self.root {
            None => {
                let idx = self.alloc(OftNode {
                    id: leaf_id,
                    parent: None,
                    children: Vec::new(),
                    member: Some(member),
                    key: leaf_key.clone(),
                    leaf_count: 1,
                });
                self.root = Some(idx);
                idx
            }
            Some(root) => {
                // Descend into the lighter subtree until a leaf, then
                // split it.
                let mut at = root;
                while self.node(at).children.len() == 2 {
                    let n = self.node(at);
                    let (l, r) = (n.children[0], n.children[1]);
                    at = if self.node(l).leaf_count <= self.node(r).leaf_count {
                        l
                    } else {
                        r
                    };
                }
                let interior_id = self.fresh_id();
                let old_parent = self.node(at).parent;
                let interior_idx = self.alloc(OftNode {
                    id: interior_id,
                    parent: old_parent,
                    children: vec![at],
                    member: None,
                    key: Key::from_bytes([0; 32]), // recomputed below
                    leaf_count: self.node(at).leaf_count,
                });
                match old_parent {
                    Some(p) => {
                        let pos = self
                            .node(p)
                            .children
                            .iter()
                            .position(|&c| c == at)
                            .expect("child listed under parent");
                        self.node_mut(p).children[pos] = interior_idx;
                    }
                    None => self.root = Some(interior_idx),
                }
                self.node_mut(at).parent = Some(interior_idx);
                let leaf_idx = self.alloc(OftNode {
                    id: leaf_id,
                    parent: Some(interior_idx),
                    children: Vec::new(),
                    member: Some(member),
                    key: leaf_key.clone(),
                    leaf_count: 1,
                });
                self.node_mut(interior_idx).children.push(leaf_idx);
                let mut walk = Some(interior_idx);
                while let Some(idx) = walk {
                    self.node_mut(idx).leaf_count += 1;
                    walk = self.node(idx).parent;
                }
                ops.push(OftOp::Split {
                    split_leaf: self.node(at).id,
                    new_interior: interior_id,
                    new_leaf: leaf_id,
                });
                leaf_idx
            }
        };
        self.leaf_of.insert(member, leaf_id);
        self.recompute_up(self.node(leaf_idx).parent);

        // Changed blinds propagate to the other half at each level.
        self.blind_updates_up(leaf_idx, rng, &mut ops);

        // Welcome packet for the new member.
        let levels = self
            .path_levels(leaf_idx)
            .into_iter()
            .map(|(ancestor, sibling, side, blind)| WelcomeLevel {
                ancestor,
                sibling,
                sibling_side: side,
                wrapped_blind: keywrap::wrap(individual_key, &blind, rng),
            })
            .collect();
        ops.push(OftOp::Welcome {
            member,
            leaf: leaf_id,
            wrapped_leaf_key: keywrap::wrap(individual_key, &leaf_key, rng),
            levels,
        });

        Ok(OftBroadcast {
            epoch: self.epoch,
            ops,
        })
    }

    /// Evicts a member.
    ///
    /// The evicted leaf's sibling subtree is promoted; one leaf inside
    /// it is given a fresh key (communicated under that leaf's *old*
    /// key, which the evicted member never knew), and the changed
    /// blinds propagate to the root.
    ///
    /// # Errors
    ///
    /// [`KeyTreeError::UnknownMember`] if absent.
    pub fn leave<R: RngCore>(
        &mut self,
        member: MemberId,
        rng: &mut R,
    ) -> Result<OftBroadcast, KeyTreeError> {
        let leaf_id = self
            .leaf_of
            .remove(&member)
            .ok_or(KeyTreeError::UnknownMember(member))?;
        self.epoch += 1;
        let leaf_idx = self.index_of[&leaf_id];
        debug_assert_eq!(
            self.node(leaf_idx).member,
            Some(member),
            "leaf map out of sync"
        );

        let Some(parent_idx) = self.node(leaf_idx).parent else {
            // Last member: the tree becomes empty.
            self.dealloc(leaf_idx);
            self.root = None;
            return Ok(OftBroadcast {
                epoch: self.epoch,
                ops: Vec::new(),
            });
        };

        // Promote the sibling into the parent's place.
        let p = self.node(parent_idx);
        let removed_parent_id = p.id;
        let sibling_idx = if p.children[0] == leaf_idx {
            p.children[1]
        } else {
            p.children[0]
        };
        let promoted_id = self.node(sibling_idx).id;
        let grand = p.parent;
        self.node_mut(sibling_idx).parent = grand;
        match grand {
            Some(g) => {
                let pos = self
                    .node(g)
                    .children
                    .iter()
                    .position(|&c| c == parent_idx)
                    .expect("parent listed under grandparent");
                self.node_mut(g).children[pos] = sibling_idx;
            }
            None => self.root = Some(sibling_idx),
        }
        self.dealloc(leaf_idx);
        self.dealloc(parent_idx);
        let mut walk = grand;
        while let Some(idx) = walk {
            self.node_mut(idx).leaf_count -= 1;
            walk = self.node(idx).parent;
        }

        let mut ops = vec![OftOp::Promote {
            removed_parent: removed_parent_id,
            promoted: promoted_id,
        }];

        // Refresh one leaf inside the promoted subtree so every key the
        // evicted member could compute goes stale.
        let mut refresh_idx = sibling_idx;
        while self.node(refresh_idx).children.len() == 2 {
            refresh_idx = self.node(refresh_idx).children[0];
        }
        let old_leaf_key = self.node(refresh_idx).key.clone();
        let new_leaf_key = Key::generate(rng);
        ops.push(OftOp::LeafRefresh {
            leaf: self.node(refresh_idx).id,
            wrapped: keywrap::wrap(&old_leaf_key, &new_leaf_key, rng),
        });
        self.node_mut(refresh_idx).key = new_leaf_key;
        self.recompute_up(self.node(refresh_idx).parent);

        // Changed blinds propagate up.
        self.blind_updates_up(refresh_idx, rng, &mut ops);
        Ok(OftBroadcast {
            epoch: self.epoch,
            ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    #[test]
    fn mix_is_rfc5869_hkdf() {
        let (l, r) = (Key::from_bytes([1; 32]), Key::from_bytes([2; 32]));
        let mut ikm = l.as_bytes().to_vec();
        ikm.extend_from_slice(r.as_bytes());
        let mut expected = [0u8; 32];
        hkdf::derive(b"oft-mix", &ikm, b"parent-key", &mut expected);
        assert_eq!(mix(&l, &r), Key::from_bytes(expected));
    }

    struct Group {
        server: OftServer,
        members: BTreeMap<MemberId, OftMember>,
        rng: StdRng,
    }

    impl Group {
        fn new(n: u64, seed: u64) -> Self {
            let mut g = Group {
                server: OftServer::new(9),
                members: BTreeMap::new(),
                rng: StdRng::seed_from_u64(seed),
            };
            for i in 0..n {
                g.join(MemberId(i));
            }
            g
        }

        fn join(&mut self, id: MemberId) {
            let ik = Key::generate(&mut self.rng);
            let broadcast = self.server.join(id, &ik, &mut self.rng).unwrap();
            self.members.insert(id, OftMember::new(id, ik));
            for m in self.members.values_mut() {
                m.process(&broadcast).unwrap();
            }
        }

        fn leave(&mut self, id: MemberId) -> (OftMember, OftBroadcast) {
            let evicted = self.members.remove(&id).expect("member present");
            let broadcast = self.server.leave(id, &mut self.rng).unwrap();
            for m in self.members.values_mut() {
                m.process(&broadcast).unwrap();
            }
            (evicted, broadcast)
        }

        fn assert_synchronized(&self) {
            let root = self.server.root_key().unwrap();
            for (id, m) in &self.members {
                assert_eq!(
                    m.group_key().as_ref(),
                    Some(root),
                    "member {id} out of sync"
                );
            }
        }
    }

    #[test]
    fn members_follow_joins() {
        let g = Group::new(13, 1);
        g.assert_synchronized();
    }

    #[test]
    fn members_follow_leaves() {
        let mut g = Group::new(16, 2);
        for id in [3u64, 7, 0, 12] {
            g.leave(MemberId(id));
            g.assert_synchronized();
        }
        assert_eq!(g.server.member_count(), 12);
    }

    #[test]
    fn evicted_member_locked_out_even_processing_later_broadcasts() {
        let mut g = Group::new(16, 3);
        let (mut evicted, broadcast) = g.leave(MemberId(5));
        // The evicted member sees the eviction broadcast and every
        // later broadcast, and still cannot compute the group key.
        let _ = evicted.process(&broadcast);
        assert_ne!(
            evicted.group_key().as_ref(),
            Some(g.server.root_key().unwrap()),
            "forward secrecy violated at eviction"
        );
        for round in 0..4u64 {
            g.join(MemberId(100 + round));
            let (_, b) = g.leave(MemberId(round));
            let _ = evicted.process(&b);
            assert_ne!(
                evicted.group_key().as_ref(),
                Some(g.server.root_key().unwrap()),
                "forward secrecy violated at round {round}"
            );
            g.assert_synchronized();
        }
    }

    #[test]
    fn newcomer_cannot_compute_old_root() {
        let mut g = Group::new(8, 4);
        let old_root = g.server.root_key().unwrap().clone();
        g.join(MemberId(100));
        let new_root = g.server.root_key().unwrap();
        assert_ne!(&old_root, new_root, "join must change the group key");
        let newcomer = &g.members[&MemberId(100)];
        assert_eq!(newcomer.group_key().as_ref(), Some(new_root));
        assert_ne!(newcomer.group_key().as_ref(), Some(&old_root));
    }

    #[test]
    fn eviction_cost_is_about_height_plus_one() {
        let mut g = Group::new(64, 5);
        let h = g.server.height();
        let (_, broadcast) = g.leave(MemberId(20));
        let cost = broadcast.encrypted_key_count();
        assert!(
            cost <= h + 1,
            "OFT eviction cost {cost} exceeds h+1 = {}",
            h + 1
        );
        assert!(cost >= 2);
    }

    #[test]
    fn tree_stays_balanced() {
        let g = Group::new(128, 6);
        assert!(g.server.height() <= 9, "height {}", g.server.height());
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        let mut g = Group::new(32, 7);
        for (round, next) in (0..20u64).zip(1000u64..) {
            g.join(MemberId(next));
            let victim = *g
                .members
                .keys()
                .nth((round as usize * 5) % g.members.len())
                .unwrap();
            g.leave(victim);
            g.assert_synchronized();
        }
        assert_eq!(g.server.member_count(), 32);
    }

    #[test]
    fn last_member_leaves_empty_tree() {
        let mut g = Group::new(1, 8);
        g.leave(MemberId(0));
        assert_eq!(g.server.member_count(), 0);
        assert!(g.server.root_key().is_none());
    }

    #[test]
    fn duplicate_join_rejected() {
        let mut g = Group::new(2, 9);
        let ik = Key::generate(&mut g.rng);
        assert!(matches!(
            g.server.join(MemberId(0), &ik, &mut g.rng),
            Err(KeyTreeError::DuplicateMember(_))
        ));
    }

    #[test]
    fn unknown_leave_rejected() {
        let mut g = Group::new(2, 10);
        assert!(matches!(
            g.server.leave(MemberId(55), &mut g.rng),
            Err(KeyTreeError::UnknownMember(_))
        ));
    }

    #[test]
    fn broadcast_costs_match_oft_promise() {
        // Joins cost ~2h (blind updates + welcome), evictions ~h+1 —
        // both logarithmic.
        let mut g = Group::new(256, 11);
        let h = g.server.height() as f64;
        let ik = Key::generate(&mut g.rng);
        let b = g.server.join(MemberId(999), &ik, &mut g.rng).unwrap();
        assert!(
            (b.encrypted_key_count() as f64) <= 2.0 * h + 3.0,
            "join cost {} vs 2h = {}",
            b.encrypted_key_count(),
            2.0 * h
        );
    }

    #[test]
    fn welcome_is_only_readable_by_its_member() {
        let mut g = Group::new(4, 12);
        // Member 0's state before member 100 joins.
        let before = g.members[&MemberId(0)].clone();
        g.join(MemberId(100));
        // Member 0 processed the broadcast; its levels changed only via
        // public structure + blinds, and it did not absorb the
        // newcomer's welcome.
        let after = &g.members[&MemberId(0)];
        assert_eq!(after.leaf(), before.leaf());
        g.assert_synchronized();
    }
}
