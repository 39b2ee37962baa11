//! Strongly-typed identifiers for substrate and virtual network elements.
//!
//! Every entity in the model is referred to by a small copyable id newtype
//! ([`NodeId`], [`LinkId`], [`VnodeId`], [`VlinkId`], [`AppId`],
//! [`RequestId`]) rather than by raw integers, so that e.g. a virtual node
//! index can never be confused with a substrate node index at compile time.
//!
//! [`IdHasher`] is the one hasher the workspace keys request-id maps with
//! (`HashMap<RequestId, _, IdHashing>`).

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $repr:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        pub struct $name(pub $repr);

        impl $name {
            /// Returns the raw index wrapped by this id.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Creates an id from a raw `usize` index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in the underlying representation.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                Self(<$repr>::try_from(index).expect("id index out of range"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_type!(
    /// Identifier of a substrate (physical) node — a datacenter.
    NodeId,
    u32,
    "n"
);
id_type!(
    /// Identifier of a substrate (physical) link between two datacenters.
    LinkId,
    u32,
    "l"
);
id_type!(
    /// Identifier of a virtual node (VNF) within one virtual network.
    VnodeId,
    u16,
    "v"
);
id_type!(
    /// Identifier of a virtual link within one virtual network.
    VlinkId,
    u16,
    "e"
);
id_type!(
    /// Identifier of an application (virtual network topology) in an [`crate::app::AppSet`].
    AppId,
    u32,
    "a"
);
id_type!(
    /// Identifier of an online embedding request.
    RequestId,
    u64,
    "r"
);

/// A substrate element: either a node or a link.
///
/// Capacities, costs and loads are defined uniformly over elements
/// (`s ∈ S` in the paper), so APIs that apply to both use this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ElementId {
    /// A substrate node (datacenter).
    Node(NodeId),
    /// A substrate link.
    Link(LinkId),
}

impl fmt::Display for ElementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElementId::Node(n) => write!(f, "{n}"),
            ElementId::Link(l) => write!(f, "{l}"),
        }
    }
}

/// A request class: all requests sharing an application and ingress location.
///
/// Classes are the aggregation unit of the offline plan (`r̃_{a,v}` in the
/// paper, Eq. 5): requests of the same class share placement constraints,
/// element sizes and inefficiency coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClassId {
    /// The application requested.
    pub app: AppId,
    /// The ingress substrate node (`v(r)`).
    pub ingress: NodeId,
}

impl ClassId {
    /// Creates the class of requests for application `app` arriving at `ingress`.
    pub fn new(app: AppId, ingress: NodeId) -> Self {
        Self { app, ingress }
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.app, self.ingress)
    }
}

/// The multiplier of [`IdHasher`]: an odd 64-bit constant with
/// well-spread bits.
const ID_HASH_K: u64 = 0xf135_7aea_2e62_a9c5;

/// A deterministic one-multiply hasher for small integer keys — request
/// ids above all.
///
/// `write_u64` adds the word and multiplies by an odd constant (the one
/// rustc-hash 2 uses); `finish` rotates left by 16, moving the product's
/// best-mixed high bits into the low bits a hash table takes its bucket
/// index from. The rotation is where this departs from rustc-hash 2,
/// which rotates by 26 and so takes the low bits from product bits
/// 38..47: those are all zero for ids strided by `1 << 48`, which would
/// then share one bucket. Rotating by 16 takes them from bits 48..57,
/// which every stride up to `1 << 48` still mixes (the hasher tests
/// pin the spread for sequential, `i << 32` and `i << 48` ids).
///
/// It is not HashDoS-resistant, and needs not be: request ids are
/// assigned by the trace generators and by the daemon's own counter,
/// never chosen by a client. It hashes the same in every process, but a
/// hashed map's iteration order is still not id order, so every reader
/// whose result could show that order sorts by id first.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(ID_HASH_K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(16)
    }
}

/// The [`std::hash::BuildHasher`] of [`IdHasher`]: the third parameter
/// of every request-id map, `HashMap<RequestId, _, IdHashing>`.
pub type IdHashing = BuildHasherDefault<IdHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip_through_usize() {
        let n = NodeId::from_index(42);
        assert_eq!(n.index(), 42);
        assert_eq!(usize::from(n), 42);
        assert_eq!(n, NodeId(42));
    }

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(LinkId(7).to_string(), "l7");
        assert_eq!(VnodeId(1).to_string(), "v1");
        assert_eq!(VlinkId(0).to_string(), "e0");
        assert_eq!(AppId(2).to_string(), "a2");
        assert_eq!(RequestId(9).to_string(), "r9");
    }

    #[test]
    fn element_display_delegates() {
        assert_eq!(ElementId::Node(NodeId(1)).to_string(), "n1");
        assert_eq!(ElementId::Link(LinkId(2)).to_string(), "l2");
    }

    #[test]
    fn class_id_orders_by_app_then_ingress() {
        let a = ClassId::new(AppId(0), NodeId(5));
        let b = ClassId::new(AppId(1), NodeId(0));
        assert!(a < b);
        assert_eq!(a.to_string(), "a0@n5");
    }

    #[test]
    #[should_panic(expected = "id index out of range")]
    fn vnode_id_rejects_oversized_index() {
        let _ = VnodeId::from_index(usize::from(u16::MAX) + 1);
    }

    #[test]
    fn ids_are_hash_and_ord_usable() {
        use std::collections::{BTreeSet, HashSet};
        let mut h = HashSet::new();
        h.insert(ClassId::new(AppId(1), NodeId(2)));
        assert!(h.contains(&ClassId::new(AppId(1), NodeId(2))));
        let mut b = BTreeSet::new();
        b.insert(ElementId::Link(LinkId(1)));
        b.insert(ElementId::Node(NodeId(1)));
        assert_eq!(b.len(), 2);
    }

    fn id_hash(id: RequestId) -> u64 {
        use std::hash::BuildHasher;
        IdHashing::default().hash_one(id)
    }

    #[test]
    fn id_hashes_are_fixed() {
        // The same in every process: no per-process random state.
        assert_eq!(id_hash(RequestId(0)), 0);
        assert_eq!(id_hash(RequestId(1)), ID_HASH_K.rotate_left(16));
        let pinned: Vec<u64> = [1u64, 2, 12_345, 1 << 32, u64::MAX]
            .into_iter()
            .map(|i| id_hash(RequestId(i)))
            .collect();
        assert_eq!(
            pinned,
            vec![
                0x7aea_2e62_a9c5_f135,
                0xf5d4_5cc5_538a_e26a,
                0x46d6_d3cc_bcdd_bbf4,
                0xa9c5_0000_0000_2e62,
                0x8515_d19d_563b_0eca,
            ]
        );
    }

    #[test]
    fn strided_ids_spread_over_the_low_bits() {
        // hashbrown takes the bucket index from the low bits: 1024
        // sequential or strided ids must not collapse into few buckets.
        for shift in [0u32, 32, 48] {
            let buckets: std::collections::BTreeSet<u64> = (0..1024u64)
                .map(|i| id_hash(RequestId(i << shift)) & 0x3ff)
                .collect();
            assert!(
                buckets.len() >= 512,
                "ids i << {shift}: {} distinct low-10-bit values",
                buckets.len()
            );
        }
    }
}
