//! The shared multi-tree rekey engine.
//!
//! Every scheme in this crate — the one-tree baseline, the §3
//! two-partition constructions, the §4 loss-homogenized forest, and
//! the §4.2 combination — is the same pipeline: *route members among
//! several LKH trees, batch-rekey each tree, merge the messages, and
//! refresh the group DEK above the roots*. [`RekeyEngine`] implements
//! that pipeline once; a scheme is reduced to a [`PlacementPolicy`]
//! that answers the routing questions (where does a joiner go, who
//! migrates, how is the DEK distributed).
//!
//! # Epoch pipeline
//!
//! One [`GroupKeyManager::process_interval`] call runs:
//!
//! 1. **Route departures** — [`PlacementPolicy::route_leave`] assigns
//!    each leaver to the tree (or policy-internal structure) holding
//!    it, updating policy bookkeeping.
//! 2. **Plan migrations** — [`PlacementPolicy::plan_migrations`]
//!    names the members whose placement changes this interval (e.g.
//!    S-period survivors). The engine turns each into a removal from
//!    the source tree and a join into the destination tree.
//! 3. **Route joins** — [`PlacementPolicy::route_join`] picks the
//!    destination tree (or internal structure) for each joiner.
//! 4. **Plan every tree** — sequentially, in tree order, against the
//!    caller's RNG ([`LkhServer::plan_batch`]). Sequential planning
//!    pins the RNG draw order, which pins every emitted byte.
//! 5. **Record joins** — [`PlacementPolicy::record_joins`] updates
//!    policy bookkeeping (ages, keys, queues).
//! 6. **Execute every tree** — [`LkhServer::execute_planned`] is pure,
//!    so the engine fans the trees out across scoped threads when the
//!    batch is large enough ([`RekeyEngine::set_parallelism`]), each
//!    under a `rekey.tree.<name>` span. Output bytes are identical at
//!    every worker count.
//! 7. **Merge** — tree messages are merged in tree order.
//! 8. **Refresh + distribute the DEK** — the engine refreshes the DEK
//!    and [`PlacementPolicy::dek_entries`] appends the entries that
//!    deliver it (default: once under every occupied tree root).
//!
//! The whole interval runs under a `rekey.batch` span.

use crate::dek::DekState;
use crate::persist::{check_state_header, put_state_header, PersistError};
use crate::{GroupKeyManager, IntervalOutcome, IntervalStats, Join};
use rand::RngCore;
use rekey_crypto::keywrap::WrapKek;
use rekey_crypto::Key;
use rekey_keytree::message::codec::{get_u32, get_u64, get_u8, put_u32, put_u64};
use rekey_keytree::message::{RekeyEntry, RekeyMessage};
use rekey_keytree::server::{BatchOutcome, LkhServer, PlannedBatch};
use rekey_keytree::{KeyTreeError, MemberId, NodeId};

/// Version byte leading every manager state blob: a serialized
/// [`RekeyEngine`] and the adaptive manager's header alike.
pub const ENGINE_WIRE_VERSION: u8 = 1;

/// Below this many planned encryptions (summed over all trees) the
/// engine executes trees inline even when parallelism is enabled:
/// cross-tree thread fan-out would cost more than it saves.
const CROSS_TREE_MIN_JOBS: usize = 64;

/// One tree's join batch for an interval.
type TreeBatchJoins = Vec<(MemberId, Key)>;
/// One tree's leave batch for an interval.
type TreeBatchLeaves = Vec<MemberId>;

/// Where a routed member goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Into the engine tree with this index.
    Tree(usize),
    /// Into a policy-internal structure (e.g. the QT-scheme's key
    /// queue); the engine's trees are not involved.
    Internal,
}

/// One member changing placement this interval (e.g. an S-period
/// survivor moving to the L-partition).
#[derive(Debug, Clone)]
pub struct Migration {
    /// The migrating member.
    pub member: MemberId,
    /// Its registered individual key (needed to join the destination
    /// tree).
    pub individual_key: Key,
    /// Source tree, or `None` if the member lived in a
    /// policy-internal structure.
    pub from: Option<usize>,
    /// Destination tree.
    pub to: usize,
}

/// Read-only view of the engine's trees, handed to policy callbacks.
#[derive(Debug, Clone, Copy)]
pub struct Trees<'a> {
    slots: &'a [TreeSlot],
}

impl<'a> Trees<'a> {
    /// Number of trees.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the engine owns no trees.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The server of tree `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn server(&self, index: usize) -> &'a LkhServer {
        &self.slots[index].server
    }

    /// Iterates over the tree servers in tree order.
    pub fn iter(self) -> impl Iterator<Item = &'a LkhServer> + 'a {
        self.slots.iter().map(|slot| &slot.server)
    }

    /// Index of the tree holding `member`, scanning in tree order.
    pub fn find(&self, member: MemberId) -> Option<usize> {
        self.slots
            .iter()
            .position(|slot| slot.server.contains(member))
    }

    /// Total members across all trees (policy-internal members not
    /// included).
    pub fn total_members(&self) -> usize {
        self.slots
            .iter()
            .map(|slot| slot.server.member_count())
            .sum()
    }
}

/// Interval facts handed to [`PlacementPolicy::dek_entries`].
#[derive(Debug, Clone, Copy)]
pub struct IntervalCtx<'a> {
    /// The engine epoch of this interval (1-based).
    pub epoch: u64,
    /// This interval's join requests.
    pub joins: &'a [Join],
    /// Whether any member departed this interval.
    pub had_departures: bool,
}

/// Handle on the freshly-rotated group DEK, letting policies wrap it
/// without owning the key state.
#[derive(Debug)]
pub struct DekCtx<'a> {
    dek: &'a DekState,
    previous_key: Key,
    previous_version: u64,
}

impl DekCtx<'_> {
    /// Node id the DEK is distributed under.
    pub fn node(&self) -> NodeId {
        self.dek.node
    }

    /// The DEK key that was current *before* this interval's refresh —
    /// join-only intervals may re-wrap the new DEK under it.
    pub fn previous_key(&self) -> &Key {
        &self.previous_key
    }

    /// Version of [`DekCtx::previous_key`].
    pub fn previous_version(&self) -> u64 {
        self.previous_version
    }

    /// Entry wrapping the current DEK under an arbitrary key; see
    /// `DekState::wrap_under`.
    #[allow(clippy::too_many_arguments)]
    pub fn wrap_under(
        &self,
        under: NodeId,
        under_version: u64,
        under_key: &Key,
        under_is_leaf: bool,
        recipient: Option<MemberId>,
        audience: u32,
        rng: &mut dyn RngCore,
    ) -> RekeyEntry {
        self.dek.wrap_under(
            under,
            under_version,
            &WrapKek::new(under_key),
            under_is_leaf,
            recipient,
            audience,
            rng,
        )
    }

    /// Entry wrapping the current DEK under a tree's root key, with
    /// the tree's population as the audience. The root's KEK comes from
    /// the tree's node cache: the engine prepares every occupied root
    /// before DEK distribution.
    pub fn wrap_tree_root(&self, server: &LkhServer, rng: &mut dyn RngCore) -> RekeyEntry {
        self.dek.wrap_under(
            server.root_node(),
            server.root_version(),
            server.root_kek(),
            false,
            None,
            server.member_count() as u32,
            rng,
        )
    }
}

/// A scheme, reduced to its placement decisions.
///
/// The engine calls the methods in pipeline order (see the module
/// docs); implementations hold only scheme bookkeeping (ages, queues,
/// estimators) — trees, message assembly, parallelism, and DEK state
/// live in [`RekeyEngine`].
pub trait PlacementPolicy {
    /// Short human-readable scheme name for reports.
    fn scheme_name(&self) -> &'static str;

    /// Routes one departing member, removing any policy bookkeeping
    /// for it. Called once per leaver, in batch order, before any tree
    /// is touched.
    ///
    /// # Errors
    ///
    /// [`KeyTreeError::UnknownMember`] if no tree or internal
    /// structure holds the member.
    fn route_leave(&mut self, member: MemberId, trees: &Trees) -> Result<Placement, KeyTreeError>;

    /// Members whose placement changes this interval, in the order
    /// their tree removals/joins should be batched. Departures have
    /// already been routed; this interval's joins have not been
    /// recorded yet. The default migrates nobody.
    fn plan_migrations(&mut self, epoch: u64, trees: &Trees) -> Vec<Migration> {
        let _ = (epoch, trees);
        Vec::new()
    }

    /// Routes one joining member. Pure routing — bookkeeping happens
    /// in [`PlacementPolicy::record_joins`] after the trees are
    /// planned.
    fn route_join(&self, join: &Join, trees: &Trees) -> Placement;

    /// Records this interval's joins in policy bookkeeping (join
    /// epochs, individual keys, queue slots). Runs after every tree
    /// planned its batch and before the DEK is refreshed.
    ///
    /// # Errors
    ///
    /// [`KeyTreeError::DuplicateMember`] if a joiner is already held
    /// by a policy-internal structure.
    fn record_joins(&mut self, joins: &[Join], epoch: u64) -> Result<(), KeyTreeError> {
        let _ = (joins, epoch);
        Ok(())
    }

    /// Appends the entries distributing the freshly-rotated DEK. The
    /// default wraps it once under every occupied tree root, in tree
    /// order — the §3/§4 layering. Policies with internal members
    /// (queues) override this.
    fn dek_entries(
        &mut self,
        dek: &DekCtx,
        interval: &IntervalCtx,
        trees: &Trees,
        message: &mut RekeyMessage,
        rng: &mut dyn RngCore,
    ) {
        let _ = interval;
        for server in trees.iter() {
            if server.member_count() > 0 {
                message.entries.push(dek.wrap_tree_root(server, rng));
            }
        }
    }

    /// Number of members held in policy-internal structures (outside
    /// every tree). Default: none.
    fn internal_member_count(&self) -> usize {
        0
    }

    /// Whether a policy-internal structure holds `member`.
    fn internal_contains(&self, member: MemberId) -> bool {
        let _ = member;
        false
    }

    /// Appends the members held in policy-internal structures, in
    /// deterministic order (they lead the DEK audience listing).
    fn internal_members(&self, out: &mut Vec<MemberId>) {
        let _ = out;
    }

    /// Audience of a policy-internal node (e.g. a queue slot), or
    /// `None` if the node is not policy-internal.
    fn internal_members_under(&self, node: NodeId) -> Option<Vec<MemberId>> {
        let _ = node;
        None
    }

    /// Serializes the policy's bookkeeping (ages, keys, queues,
    /// estimators) onto `buf` for crash recovery. Configuration that
    /// the constructor re-derives (periods, boundaries) is *not*
    /// serialized. The default writes nothing — correct for stateless
    /// policies; stateful policies must override this together with
    /// [`PlacementPolicy::load_policy_state`].
    fn save_policy_state(&self, buf: &mut Vec<u8>) {
        let _ = buf;
    }

    /// Restores bookkeeping serialized by
    /// [`PlacementPolicy::save_policy_state`], consuming exactly the
    /// bytes it wrote from `buf`. Returns `None` if they do not parse.
    fn load_policy_state(&mut self, buf: &mut &[u8]) -> Option<()> {
        let _ = buf;
        Some(())
    }
}

/// One named tree owned by the engine.
#[derive(Debug, Clone)]
struct TreeSlot {
    /// `rekey.tree.<name>`, interned so obs spans (which require
    /// `&'static str`) can carry the tree name.
    span_name: &'static str,
    server: LkhServer,
}

/// The shared epoch pipeline: a set of named LKH trees, an optional
/// DEK layered above their roots, and a [`PlacementPolicy`] deciding
/// who lives where.
///
/// The concrete schemes are type aliases over this engine (e.g.
/// [`crate::partition::TtManager`]); all of them implement
/// [`GroupKeyManager`] through the single blanket `impl` below, and
/// all inherit the engine's guarantees: byte-identical output at
/// every worker count, deterministic message order, per-tree obs
/// spans.
#[derive(Debug, Clone)]
pub struct RekeyEngine<P> {
    policy: P,
    trees: Vec<TreeSlot>,
    dek: Option<DekState>,
    epoch: u64,
    parallelism: usize,
}

impl<P: PlacementPolicy> RekeyEngine<P> {
    /// Creates an engine over `trees` (name + server pairs, in tree
    /// order). `dek_namespace` layers a group DEK above the tree
    /// roots; `None` means the root of the first (sole) tree *is* the
    /// group key — the one-tree baseline.
    ///
    /// Named `with_trees` (not `new`) so the concrete manager aliases
    /// can offer their own `new` constructors without colliding.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty.
    pub fn with_trees(
        policy: P,
        trees: Vec<(&str, LkhServer)>,
        dek_namespace: Option<u32>,
    ) -> Self {
        assert!(!trees.is_empty(), "an engine needs at least one tree");
        let trees = trees
            .into_iter()
            .map(|(name, server)| TreeSlot {
                span_name: rekey_obs::intern(&format!("rekey.tree.{name}")),
                server,
            })
            .collect();
        RekeyEngine {
            policy,
            trees,
            dek: dek_namespace.map(DekState::new),
            epoch: 0,
            parallelism: 1,
        }
    }

    /// The engine's policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the engine's policy (feedback hooks).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// The server of tree `index`, in registration order.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn tree(&self, index: usize) -> &LkhServer {
        &self.trees[index].server
    }

    /// Number of trees the engine owns.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Engine epoch: number of intervals processed.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Routes this interval's leaves, migrations, and joins into
    /// per-tree batches (phases 1–3 of the pipeline). Returns
    /// per-tree join and leave lists plus the migration count.
    fn route_interval(
        &mut self,
        joins: &[Join],
        leaves: &[MemberId],
    ) -> Result<(Vec<TreeBatchJoins>, Vec<TreeBatchLeaves>, usize), KeyTreeError> {
        let mut tree_joins: Vec<Vec<(MemberId, Key)>> = vec![Vec::new(); self.trees.len()];
        let mut tree_leaves: Vec<Vec<MemberId>> = vec![Vec::new(); self.trees.len()];
        let trees = Trees { slots: &self.trees };
        for &member in leaves {
            if let Placement::Tree(i) = self.policy.route_leave(member, &trees)? {
                tree_leaves[i].push(member);
            }
        }
        let migrations = self.policy.plan_migrations(self.epoch, &trees);
        for migration in &migrations {
            if let Some(from) = migration.from {
                tree_leaves[from].push(migration.member);
            }
            tree_joins[migration.to].push((migration.member, migration.individual_key.clone()));
        }
        for join in joins {
            if let Placement::Tree(i) = self.policy.route_join(join, &trees) {
                tree_joins[i].push((join.member, join.individual_key.clone()));
            }
        }
        Ok((tree_joins, tree_leaves, migrations.len()))
    }

    /// Executes every tree's planned batch (phase 6). When the
    /// combined batch is large enough and more than one tree has work,
    /// trees execute concurrently on scoped threads; execution draws
    /// no randomness, so the output is byte-identical either way.
    fn execute_all(&mut self, planned: Vec<PlannedBatch>) -> Vec<BatchOutcome> {
        let busy = self
            .trees
            .iter()
            .filter(|slot| slot.server.planned_encryptions() > 0)
            .count();
        let total: usize = self
            .trees
            .iter()
            .map(|slot| slot.server.planned_encryptions())
            .sum();
        if self.parallelism > 1 && busy >= 2 && total >= CROSS_TREE_MIN_JOBS {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .trees
                    .iter_mut()
                    .zip(planned)
                    .map(|(slot, plan)| {
                        scope.spawn(move || {
                            let _span = rekey_obs::span!(slot.span_name);
                            slot.server.execute_planned(plan)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("tree execution thread"))
                    .collect()
            })
        } else {
            self.trees
                .iter_mut()
                .zip(planned)
                .map(|(slot, plan)| {
                    let _span = rekey_obs::span!(slot.span_name);
                    slot.server.execute_planned(plan)
                })
                .collect()
        }
    }
}

impl<P: PlacementPolicy> GroupKeyManager for RekeyEngine<P> {
    fn process_interval(
        &mut self,
        joins: &[Join],
        leaves: &[MemberId],
        mut rng: &mut dyn RngCore,
    ) -> Result<IntervalOutcome, KeyTreeError> {
        self.epoch += 1;
        let _batch_span = rekey_obs::span!("rekey.batch");

        // Phases 1–3: routing.
        let (tree_joins, tree_leaves, migrations) = self.route_interval(joins, leaves)?;

        // Phase 4: plan every tree sequentially against the caller's
        // RNG — tree order fixes the draw order, which fixes every
        // output byte. Empty batches still run (tree epochs advance in
        // lockstep) but draw nothing.
        let mut planned = Vec::with_capacity(self.trees.len());
        for (slot, (joins_in, leaves_out)) in self
            .trees
            .iter_mut()
            .zip(tree_joins.iter().zip(&tree_leaves))
        {
            let _span = rekey_obs::span!(slot.span_name);
            planned.push(slot.server.plan_batch(joins_in, leaves_out, &mut rng)?);
        }

        // Phase 5: policy bookkeeping for this interval's joins.
        self.policy.record_joins(joins, self.epoch)?;

        // Phase 6: execute — pure, parallel across trees.
        let outcomes = self.execute_all(planned);

        // Phase 7: merge in tree order.
        let mut message = RekeyMessage::new(self.epoch);
        for outcome in outcomes {
            message.merge(outcome.message);
        }

        // Phase 8: DEK rotation + distribution.
        if let Some(dek) = &mut self.dek {
            // Occupied roots are the usual DEK KEKs; their prepared
            // KEKs stay cached until the root key changes, and also
            // serve a later pure-join batch's wrap under the old root.
            for slot in &mut self.trees {
                if slot.server.member_count() > 0 {
                    slot.server.prepare_root_kek();
                }
            }
            let (previous_key, previous_version) = dek.refresh(rng);
            let ctx = DekCtx {
                dek,
                previous_key,
                previous_version,
            };
            let interval = IntervalCtx {
                epoch: self.epoch,
                joins,
                had_departures: !leaves.is_empty(),
            };
            let trees = Trees { slots: &self.trees };
            self.policy
                .dek_entries(&ctx, &interval, &trees, &mut message, rng);
        }

        // Per-backend throughput counter: lets traces attribute this
        // interval's encryption work to the SIMD tier that ran it.
        rekey_obs::count(
            match rekey_crypto::simd::active() {
                rekey_crypto::simd::Backend::Scalar => "engine.encrypted_keys.scalar",
                rekey_crypto::simd::Backend::Sse2 => "engine.encrypted_keys.sse2",
                rekey_crypto::simd::Backend::Avx2 => "engine.encrypted_keys.avx2",
            },
            message.encrypted_key_count() as u64,
        );

        Ok(IntervalOutcome {
            stats: IntervalStats {
                joins: joins.len(),
                leaves: leaves.len(),
                migrations,
                encrypted_keys: message.encrypted_key_count(),
                message_bytes: message.byte_len(),
            },
            message,
        })
    }

    fn set_parallelism(&mut self, workers: usize) {
        self.parallelism = workers.max(1);
        for slot in &mut self.trees {
            slot.server.set_parallelism(workers);
        }
    }

    fn dek_node(&self) -> NodeId {
        match &self.dek {
            Some(dek) => dek.node,
            None => self.trees[0].server.root_node(),
        }
    }

    fn dek(&self) -> &Key {
        match &self.dek {
            Some(dek) => &dek.key,
            None => self.trees[0].server.root_key(),
        }
    }

    fn member_count(&self) -> usize {
        self.policy.internal_member_count()
            + self
                .trees
                .iter()
                .map(|slot| slot.server.member_count())
                .sum::<usize>()
    }

    fn contains(&self, member: MemberId) -> bool {
        self.policy.internal_contains(member)
            || self.trees.iter().any(|slot| slot.server.contains(member))
    }

    fn members_under_into(&self, node: NodeId, out: &mut Vec<MemberId>) {
        if let Some(dek) = &self.dek {
            if node == dek.node {
                // Whole-group audience: internal members first, then
                // the trees in tree order.
                self.policy.internal_members(out);
                for slot in &self.trees {
                    slot.server.members_under_into(slot.server.root_node(), out);
                }
                return;
            }
        }
        if let Some(members) = self.policy.internal_members_under(node) {
            out.extend(members);
            return;
        }
        for slot in &self.trees {
            if node.namespace() == slot.server.tree().namespace() {
                slot.server.members_under_into(node, out);
                return;
            }
        }
    }

    fn scheme_name(&self) -> &'static str {
        self.policy.scheme_name()
    }

    fn save_state(&self, buf: &mut Vec<u8>) -> Result<(), PersistError> {
        put_state_header(buf, self.policy.scheme_name());
        put_u64(buf, self.epoch);
        match &self.dek {
            Some(dek) => {
                buf.push(1);
                put_u64(buf, dek.node.0);
                buf.extend_from_slice(dek.key.as_bytes());
                put_u64(buf, dek.version);
            }
            None => buf.push(0),
        }
        put_u32(buf, self.trees.len() as u32);
        for slot in &self.trees {
            slot.server.encode_into(buf);
        }
        self.policy.save_policy_state(buf);
        Ok(())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let bad = |what: &'static str| PersistError::Codec { what };
        let mut buf = bytes;
        check_state_header(&mut buf, self.policy.scheme_name())?;
        let epoch = get_u64(&mut buf).ok_or(bad("engine epoch"))?;
        // The DEK layering is configuration; the blob must agree with
        // how this engine was built before its key material is taken.
        match get_u8(&mut buf).ok_or(bad("DEK flag"))? {
            0 if self.dek.is_none() => {}
            1 if self.dek.is_some() => {
                let node = NodeId(get_u64(&mut buf).ok_or(bad("DEK node"))?);
                let (key, rest) = buf.split_first_chunk::<32>().ok_or(bad("DEK key"))?;
                buf = rest;
                let version = get_u64(&mut buf).ok_or(bad("DEK version"))?;
                let dek = self.dek.as_mut().expect("checked above");
                if dek.node != node {
                    return Err(bad("DEK namespace"));
                }
                dek.key = Key::from_bytes(*key);
                dek.version = version;
            }
            _ => return Err(bad("DEK layering")),
        }
        let count = get_u32(&mut buf).ok_or(bad("tree count"))? as usize;
        if count != self.trees.len() {
            return Err(bad("tree count"));
        }
        for slot in &mut self.trees {
            let mut server = LkhServer::decode(&mut buf).ok_or(bad("tree"))?;
            server.set_parallelism(self.parallelism);
            slot.server = server;
        }
        self.policy
            .load_policy_state(&mut buf)
            .ok_or(bad("policy state"))?;
        if !buf.is_empty() {
            return Err(bad("trailing bytes"));
        }
        self.epoch = epoch;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::partition::TtManager;

    #[test]
    fn engines_share_interned_span_names() {
        let a = TtManager::new(4, 10);
        let b = TtManager::new(4, 10);
        assert_eq!(a.trees[0].span_name, "rekey.tree.s");
        for (x, y) in a.trees.iter().zip(&b.trees) {
            assert!(
                std::ptr::eq(x.span_name, y.span_name),
                "{} leaked twice",
                x.span_name
            );
        }
    }
}
