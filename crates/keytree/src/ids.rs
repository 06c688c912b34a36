//! Identifier newtypes shared across the workspace.

use std::fmt;

/// Identifies a group member (receiver).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MemberId(pub u64);

impl fmt::Display for MemberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl From<u64> for MemberId {
    fn from(v: u64) -> Self {
        MemberId(v)
    }
}

/// Identifies a key node (a key slot in a logical key tree, a queue
/// slot, or a manager-level key such as the group DEK).
///
/// Node ids are globally unique and never reused. The top 24 bits are
/// a *namespace* distinguishing independent trees managed by one
/// group-key manager (e.g. the S-partition, the L-partition, and the
/// DEK), so their rekey messages can be merged without collisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u64);

impl NodeId {
    /// Builds a node id from a namespace and a per-namespace counter.
    ///
    /// # Panics
    ///
    /// Panics if `counter` overflows the 40-bit per-namespace space —
    /// unreachable in practice (>10^12 nodes).
    pub fn from_parts(namespace: u32, counter: u64) -> Self {
        assert!(counter < (1u64 << 40), "node counter overflow");
        NodeId(((namespace as u64) << 40) | counter)
    }

    /// The namespace this node id belongs to.
    pub fn namespace(self) -> u32 {
        (self.0 >> 40) as u32
    }

    /// The per-namespace counter component.
    pub fn counter(self) -> u64 {
        self.0 & ((1u64 << 40) - 1)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}.{}", self.namespace(), self.counter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from_parts(7, 42);
        assert_eq!(id.namespace(), 7);
        assert_eq!(id.counter(), 42);
    }

    #[test]
    fn node_ids_distinct_across_namespaces() {
        assert_ne!(NodeId::from_parts(0, 1), NodeId::from_parts(1, 1));
    }

    #[test]
    #[should_panic(expected = "node counter overflow")]
    fn node_id_counter_overflow_panics() {
        NodeId::from_parts(0, 1u64 << 40);
    }

    #[test]
    fn display_forms() {
        assert_eq!(MemberId(3).to_string(), "u3");
        assert_eq!(NodeId::from_parts(1, 2).to_string(), "k1.2");
    }
}
