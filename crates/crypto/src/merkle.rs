//! Binary Merkle trees for block transaction roots and state roots.
//!
//! Leaves are hashed with a `0x00` prefix and interior nodes with `0x01`
//! (second-preimage-resistance domain separation, as in RFC 6962). Odd
//! levels promote the last node unchanged.

use crate::sha256::{Hash, Sha256};

fn leaf_hash(data: &[u8]) -> Hash {
    let mut h = Sha256::new();
    h.update([0x00u8]);
    h.update(data);
    h.finalize()
}

fn node_hash(left: &Hash, right: &Hash) -> Hash {
    let mut h = Sha256::new();
    h.update([0x01u8]);
    h.update(left.0);
    h.update(right.0);
    h.finalize()
}

/// A Merkle tree over a list of byte-string leaves.
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// levels[0] = leaf hashes, levels.last() = [root].
    levels: Vec<Vec<Hash>>,
}

/// An inclusion proof: sibling hashes from leaf to root, with direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// (sibling, sibling_is_right) from bottom to top. Levels where the node
    /// is promoted without a sibling are skipped.
    pub path: Vec<(Hash, bool)>,
}

impl MerkleTree {
    /// Build a tree over `leaves`. An empty list yields the zero root.
    pub fn build<T: AsRef<[u8]>>(leaves: &[T]) -> Self {
        if leaves.is_empty() {
            return MerkleTree {
                levels: vec![vec![]],
            };
        }
        let mut levels = vec![leaves
            .iter()
            .map(|l| leaf_hash(l.as_ref()))
            .collect::<Vec<_>>()];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                match pair {
                    [l, r] => next.push(node_hash(l, r)),
                    [l] => next.push(*l), // odd node promoted unchanged
                    _ => unreachable!("chunks(2) yields 1..=2 items"),
                }
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The root hash ([`Hash::ZERO`] for an empty tree).
    pub fn root(&self) -> Hash {
        self.levels
            .last()
            .and_then(|l| l.first())
            .copied()
            .unwrap_or(Hash::ZERO)
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map(Vec::len).unwrap_or(0)
    }

    /// True when the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produce an inclusion proof for leaf `index`, or `None` out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut path = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = idx ^ 1;
            if sibling < level.len() {
                path.push((level[sibling], sibling > idx));
            }
            idx /= 2;
        }
        Some(MerkleProof {
            leaf_index: index,
            path,
        })
    }
}

/// Verify `proof` that `leaf_data` is included under `root`.
pub fn verify_proof(root: &Hash, leaf_data: &[u8], proof: &MerkleProof) -> bool {
    let mut acc = leaf_hash(leaf_data);
    for (sibling, sibling_is_right) in &proof.path {
        acc = if *sibling_is_right {
            node_hash(&acc, sibling)
        } else {
            node_hash(sibling, &acc)
        };
    }
    acc == *root
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("txn-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_zero_root() {
        let t = MerkleTree::build::<Vec<u8>>(&[]);
        assert_eq!(t.root(), Hash::ZERO);
        assert!(t.is_empty());
        assert!(t.prove(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let t = MerkleTree::build(&[b"a".to_vec()]);
        assert_eq!(t.root(), leaf_hash(b"a"));
        let p = t.prove(0).expect("leaf 0");
        assert!(p.path.is_empty());
        assert!(verify_proof(&t.root(), b"a", &p));
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=33 {
            let data = leaves(n);
            let t = MerkleTree::build(&data);
            for (i, leaf) in data.iter().enumerate() {
                let p = t.prove(i).expect("in range");
                assert!(verify_proof(&t.root(), leaf, &p), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_rejected() {
        let data = leaves(8);
        let t = MerkleTree::build(&data);
        let p = t.prove(3).expect("leaf 3");
        assert!(!verify_proof(&t.root(), b"txn-4", &p));
    }

    #[test]
    fn tampered_root_rejected() {
        let data = leaves(8);
        let t = MerkleTree::build(&data);
        let p = t.prove(3).expect("leaf 3");
        let mut bad_root = t.root();
        bad_root.0[0] ^= 1;
        assert!(!verify_proof(&bad_root, &data[3], &p));
    }

    #[test]
    fn different_leaf_sets_different_roots() {
        let a = MerkleTree::build(&leaves(8));
        let mut modified = leaves(8);
        modified[7] = b"txn-7-evil".to_vec();
        let b = MerkleTree::build(&modified);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn leaf_interior_domain_separation() {
        // A two-leaf tree's root must differ from a single leaf whose data is
        // the concatenation of the two leaf hashes (classic CVE-2012-2459
        // style ambiguity).
        let t = MerkleTree::build(&[b"a".to_vec(), b"b".to_vec()]);
        let concat: Vec<u8> = leaf_hash(b"a")
            .0
            .iter()
            .chain(leaf_hash(b"b").0.iter())
            .copied()
            .collect();
        let fake = MerkleTree::build(&[concat]);
        assert_ne!(t.root(), fake.root());
    }

    proptest::proptest! {
        #[test]
        fn all_proofs_verify(n in 1usize..64, pick in 0usize..64) {
            let pick = pick % n;
            let data = leaves(n);
            let t = MerkleTree::build(&data);
            let p = t.prove(pick).expect("in range");
            proptest::prop_assert!(verify_proof(&t.root(), &data[pick], &p));
        }

        #[test]
        fn proof_does_not_transfer(n in 2usize..64, a in 0usize..64, b in 0usize..64) {
            let a = a % n;
            let b = b % n;
            if a != b {
                let data = leaves(n);
                let t = MerkleTree::build(&data);
                let p = t.prove(a).expect("in range");
                proptest::prop_assert!(!verify_proof(&t.root(), &data[b], &p));
            }
        }
    }
}
