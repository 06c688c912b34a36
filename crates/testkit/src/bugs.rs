//! Deliberately broken manager wrappers.
//!
//! These exist to prove the oracle can actually catch the bug classes
//! it was built for: each wrapper injects a realistic server defect
//! while keeping the server's *bookkeeping* self-consistent, so only
//! the wire-level knowledge model can notice.

use rand::RngCore;
use rekey_core::{GroupKeyManager, IntervalOutcome, Join, PersistError};
use rekey_crypto::Key;
use rekey_keytree::message::codec::{get_u64, get_u8, put_u64};
use rekey_keytree::{KeyTreeError, MemberId, NodeId};

/// Simulates "forgot to refresh the path keys for one leave": the
/// first leaver ever processed is silently dropped from the batch
/// handed to the inner manager, so none of the keys on its path
/// rotate — but the wrapper *lies* about membership (count, contains,
/// members-under) exactly the way a server with this bug would: its
/// bookkeeping says the member left while its tree still encrypts to
/// it.
pub struct SkipOneLeave<M> {
    inner: M,
    skipped: Option<MemberId>,
}

impl<M> SkipOneLeave<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        SkipOneLeave {
            inner,
            skipped: None,
        }
    }

    fn hidden(&self, member: MemberId) -> bool {
        self.skipped == Some(member)
    }
}

impl<M: GroupKeyManager> GroupKeyManager for SkipOneLeave<M> {
    fn process_interval(
        &mut self,
        joins: &[Join],
        leaves: &[MemberId],
        rng: &mut dyn RngCore,
    ) -> Result<IntervalOutcome, KeyTreeError> {
        if self.skipped.is_none() {
            if let Some((&first, rest)) = leaves.split_first() {
                let mut out = self.inner.process_interval(joins, rest, rng)?;
                self.skipped = Some(first);
                out.stats.leaves = leaves.len();
                return Ok(out);
            }
        }
        self.inner.process_interval(joins, leaves, rng)
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
        let hidden = self.skipped.is_some_and(|m| self.inner.contains(m)) as usize;
        self.inner.member_count() - hidden
    }

    fn contains(&self, member: MemberId) -> bool {
        !self.hidden(member) && self.inner.contains(member)
    }

    fn members_under_into(&self, node: NodeId, out: &mut Vec<MemberId>) {
        let start = out.len();
        self.inner.members_under_into(node, out);
        if let Some(skipped) = self.skipped {
            let mut idx = start;
            while idx < out.len() {
                if out[idx] == skipped {
                    out.remove(idx);
                } else {
                    idx += 1;
                }
            }
        }
    }

    fn scheme_name(&self) -> &'static str {
        self.inner.scheme_name()
    }

    /// The skipped member (a flag byte, then its id), then the inner
    /// manager's blob.
    fn save_state(&self, buf: &mut Vec<u8>) -> Result<(), PersistError> {
        match self.skipped {
            None => buf.push(0),
            Some(member) => {
                buf.push(1);
                put_u64(buf, member.0);
            }
        }
        self.inner.save_state(buf)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut buf = bytes;
        let bad = PersistError::Codec {
            what: "skipped leaver",
        };
        let skipped = match get_u8(&mut buf) {
            Some(0) => None,
            Some(1) => Some(MemberId(get_u64(&mut buf).ok_or(bad)?)),
            _ => return Err(bad),
        };
        self.inner.restore_state(buf)?;
        self.skipped = skipped;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rekey_core::partition::TtManager;
    use rekey_keytree::message::codec::encode_message;

    #[test]
    fn restore_keeps_the_skipped_leaver_hidden() {
        let mut rng = StdRng::seed_from_u64(3);
        let joins: Vec<Join> = (0..4u64)
            .map(|i| Join::new(MemberId(i), Key::generate(&mut rng)))
            .collect();
        let mut mgr = SkipOneLeave::new(TtManager::new(3, 2));
        mgr.process_interval(&joins, &[], &mut rng).unwrap();
        mgr.process_interval(&[], &[MemberId(1)], &mut rng).unwrap();

        let mut blob = Vec::new();
        mgr.save_state(&mut blob).unwrap();
        let mut restored = SkipOneLeave::new(TtManager::new(3, 2));
        restored.restore_state(&blob).unwrap();
        assert!(!restored.contains(MemberId(1)));
        assert_eq!(restored.member_count(), mgr.member_count());

        let mut rng_b = rng.clone();
        let a = mgr.process_interval(&[], &[MemberId(2)], &mut rng).unwrap();
        let b = restored
            .process_interval(&[], &[MemberId(2)], &mut rng_b)
            .unwrap();
        assert_eq!(encode_message(&a.message), encode_message(&b.message));
    }
}
