//! A *persistent* sparse Merkle tree over 256-bit key paths.
//!
//! Keys are hashed to a 256-bit *path* (`sha256(key)`); the tree is the
//! path-compressed binary trie over the paths of all live keys (a crit-bit
//! tree), with a cached hash per node:
//!
//! * leaf hash    = `H(0x00 ‖ path ‖ value_hash)` — the full path is inside
//!   the leaf, so compression loses no position information,
//! * branch hash  = `H(0x01 ‖ left ‖ right)` — branches exist only where two
//!   live paths diverge, so every update touches O(log n) nodes,
//! * empty tree   = [`Hash::ZERO`].
//!
//! Domain separation (`0x00`/`0x01`) follows the block-Merkle convention in
//! `ahl_crypto::MerkleTree`. The same `combine` rule (empty sides pass
//! through) lets a verifier fold proofs without knowing the tree shape.
//!
//! ## Structural sharing (copy-on-write)
//!
//! Nodes are reference-counted ([`std::sync::Arc`]) and never mutated while
//! shared: an update clones only the O(log n) nodes on the leaf's root path
//! (via `Arc::make_mut`, which mutates in place when the node is unshared —
//! the common case with no snapshot outstanding). Consequently
//! [`SparseMerkleTree::clone`] is **O(1)**: it copies one pointer and a
//! counter, and the clone is a true immutable snapshot — its root, proofs,
//! and chunk proofs stay byte-identical no matter how the live tree evolves.
//! This is what makes per-checkpoint state snapshots free and lets a server
//! retain several certified snapshots for diff computation.
//!
//! The tree is generic over the leaf *value* `V` (any [`StateValue`]), so a
//! snapshot alone can serve complete state-sync chunks — keys, values and
//! proofs — without a side copy of the state. The default `V = Hash`
//! (where a value is its own digest) keeps the classic authenticated-index
//! shape.
//!
//! Three proof forms back the store subsystem:
//! * **inclusion** — `key` maps to `value_hash` under `root`,
//! * **exclusion** — `key` is absent under `root` (the proof exhibits the
//!   leaf occupying the key's position, or the empty tree),
//! * **chunk** — the complete, ordered set of leaves whose path starts with
//!   a given prefix (state-sync transfers ride on this: a chunk that drops,
//!   adds, or alters any key fails verification against the root).
//!
//! On top of chunks, [`SparseMerkleTree::diff_chunks`] compares two trees
//! (typically two retained snapshots) and returns exactly the chunk indices
//! whose content differs — the unit of *incremental* state sync.
//!
//! ## When node hashes are fresh
//!
//! Leaf hashes are always current. Branch hashes may lag behind content:
//! [`SparseMerkleTree::insert_deferred`] and
//! [`SparseMerkleTree::remove_deferred`] flag every branch on the written
//! path *stale* instead of re-hashing it, so a block of writes that share
//! ancestors pays for each ancestor once, in the single bottom-up
//! [`SparseMerkleTree::rehash`] that ends the block. A stale branch's
//! ancestors are all stale, so the tree is fresh exactly when its root is.
//! The flag is explicit: [`Hash::ZERO`] already means "empty subtree".
//!
//! [`SparseMerkleTree::insert`], [`SparseMerkleTree::remove`],
//! [`SparseMerkleTree::build`] and [`SparseMerkleTree::batch_apply`] leave
//! the tree fresh. Lookups ([`SparseMerkleTree::get`], `iter`, `len`) work
//! on a stale tree; every reader of a hash — `root_hash`, `prove`, the
//! `chunk_*` family, `visit_nodes`, `diff_chunks`, `rehash_audit` — and
//! the snapshot [`Clone`] panic on one, in release builds too, because a
//! stale hash handed out would be a wrong commitment.

use std::sync::Arc;

use ahl_crypto::{sha256_parts, Hash};

use crate::StateValue;

/// The path of a key: `sha256(key)`.
pub fn key_path(key: &str) -> Hash {
    sha256_parts(&[key.as_bytes()])
}

/// Bit `i` (0 = most significant) of a path.
#[inline]
fn path_bit(path: &Hash, i: u16) -> usize {
    ((path.0[(i / 8) as usize] >> (7 - (i % 8))) & 1) as usize
}

/// Hash of a leaf: `H(0x00 ‖ path ‖ value_hash)`.
pub fn leaf_hash(path: &Hash, vhash: &Hash) -> Hash {
    sha256_parts(&[&[0x00], &path.0, &vhash.0])
}

/// Hash of an interior node. Empty subtrees pass the sibling through, so
/// single-leaf subtrees promote to their leaf hash (path compression).
pub fn combine(left: &Hash, right: &Hash) -> Hash {
    if *left == Hash::ZERO {
        *right
    } else if *right == Hash::ZERO {
        *left
    } else {
        sha256_parts(&[&[0x01], &left.0, &right.0])
    }
}

/// The chunk (of `1 << bits` total) a path falls into: its top `bits` bits.
pub fn chunk_of(path: &Hash, bits: u8) -> u32 {
    debug_assert!(bits <= 32);
    if bits == 0 {
        return 0;
    }
    let word = u32::from_be_bytes([path.0[0], path.0[1], path.0[2], path.0[3]]);
    word >> (32 - bits as u32)
}

#[inline]
fn chunk_bit(chunk: u32, bits: u8, d: u16) -> usize {
    debug_assert!((d as u32) < bits as u32);
    ((chunk >> (bits as u32 - 1 - d as u32)) & 1) as usize
}

struct Leaf<V> {
    path: Hash,
    key: String,
    vhash: Hash,
    hash: Hash,
    value: V,
}

impl<V: Clone> Clone for Leaf<V> {
    fn clone(&self) -> Self {
        Leaf {
            path: self.path,
            key: self.key.clone(),
            vhash: self.vhash,
            hash: self.hash,
            value: self.value.clone(),
        }
    }
}

struct Branch<V> {
    /// The bit index at which the two children diverge. All leaves below
    /// share path bits `0..bit`; children split on bit `bit`.
    bit: u16,
    /// `hash` is out of date: a deferred write changed this subtree and
    /// [`SparseMerkleTree::rehash`] has not run since.
    stale: bool,
    hash: Hash,
    children: [Node<V>; 2],
}

impl<V> Clone for Branch<V> {
    fn clone(&self) -> Self {
        // Children are Arc handles: a branch clone is O(1) and shares both
        // subtrees (this is the copy-on-write path clone).
        Branch {
            bit: self.bit,
            stale: self.stale,
            hash: self.hash,
            children: [self.children[0].clone(), self.children[1].clone()],
        }
    }
}

enum Node<V> {
    Empty,
    Leaf(Arc<Leaf<V>>),
    Branch(Arc<Branch<V>>),
}

impl<V> Clone for Node<V> {
    fn clone(&self) -> Self {
        match self {
            Node::Empty => Node::Empty,
            Node::Leaf(l) => Node::Leaf(Arc::clone(l)),
            Node::Branch(b) => Node::Branch(Arc::clone(b)),
        }
    }
}

// Not derived: a derive would bound `V: Default`, which leaf values need
// not satisfy.
#[allow(clippy::derivable_impls)]
impl<V> Default for Node<V> {
    fn default() -> Self {
        Node::Empty
    }
}

impl<V> Node<V> {
    fn hash(&self) -> Hash {
        match self {
            Node::Empty => Hash::ZERO,
            Node::Leaf(l) => l.hash,
            Node::Branch(b) => {
                debug_assert!(!b.stale, "hash read from a stale branch");
                b.hash
            }
        }
    }

    /// Path of the leftmost leaf below this node (`None` for `Empty`).
    /// All leaves below a branch at bit `b` share path bits `0..b`, so any
    /// leaf is a representative for prefix checks.
    fn representative(&self) -> Option<&Hash> {
        match self {
            Node::Empty => None,
            Node::Leaf(l) => Some(&l.path),
            Node::Branch(b) => b.children[0].representative(),
        }
    }
}

fn branch_hash<V>(children: &[Node<V>; 2]) -> Hash {
    sha256_parts(&[&[0x01], &children[0].hash().0, &children[1].hash().0])
}

/// A borrowed view of one tree node, as yielded by
/// [`SparseMerkleTree::visit_nodes`]. Persistence layers serialize each
/// view as one content-addressed page keyed by `hash`: leaf and branch
/// hashes are domain-separated (`0x00`/`0x01` prefixes), so a node's hash
/// identifies its kind and full content.
pub enum NodeView<'a, V> {
    /// A leaf: the stored key and value (the path is `sha256(key)`).
    Leaf {
        /// The leaf's node hash (`H(0x00 ‖ path ‖ value_hash)`).
        hash: Hash,
        /// The stored key.
        key: &'a str,
        /// The stored value.
        value: &'a V,
    },
    /// An interior node: crit bit plus the two child node hashes (branches
    /// always have two non-empty children — removal collapses them).
    Branch {
        /// The branch's node hash (`H(0x01 ‖ left ‖ right)`).
        hash: Hash,
        /// Bit index at which the children diverge.
        bit: u16,
        /// Left child's node hash.
        left: Hash,
        /// Right child's node hash.
        right: Hash,
    },
}

/// An inclusion/exclusion proof: the leaf found at the key's position plus
/// the branch siblings from that leaf to the root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmtProof {
    /// Path of the terminal leaf (equal to the proven key's path for
    /// inclusion; a different co-resident for exclusion). `None` only for
    /// the empty tree.
    pub leaf_path: Option<Hash>,
    /// Value hash of the terminal leaf.
    pub leaf_vhash: Option<Hash>,
    /// `(bit index, sibling subtree hash)` for every branch on the leaf's
    /// root path, in ascending bit order.
    pub siblings: Vec<(u16, Hash)>,
}

impl SmtProof {
    /// Approximate wire size in bytes.
    pub fn wire_size(&self) -> usize {
        72 + 34 * self.siblings.len()
    }
}

/// A persistent sparse Merkle tree mapping keys to values (each committed
/// through its [`StateValue::leaf_digest`]).
///
/// The tree owns the key strings *and* values, so a snapshot (an O(1)
/// [`Clone`]) can serve state-sync chunk enumeration and payloads without a
/// side index.
pub struct SparseMerkleTree<V = Hash> {
    root: Node<V>,
    len: usize,
}

impl<V> Default for SparseMerkleTree<V> {
    fn default() -> Self {
        SparseMerkleTree { root: Node::Empty, len: 0 }
    }
}

impl<V> Clone for SparseMerkleTree<V> {
    /// O(1): shares the whole node graph. The clone is an immutable
    /// snapshot — subsequent mutations of either tree copy-on-write the
    /// affected root path and leave the other untouched. Panics on a stale
    /// tree: a snapshot must commit to its content.
    fn clone(&self) -> Self {
        self.assert_fresh();
        SparseMerkleTree { root: self.root.clone(), len: self.len }
    }
}

impl<V> std::fmt::Debug for SparseMerkleTree<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("SparseMerkleTree");
        d.field("len", &self.len);
        if self.is_fresh() {
            d.field("root", &self.root_hash());
        } else {
            d.field("root", &"stale");
        }
        d.finish()
    }
}

type BuildEntry<V> = Option<(Hash, String, Hash, V)>;

impl<V> SparseMerkleTree<V> {
    /// An empty tree (root = [`Hash::ZERO`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root hash ([`Hash::ZERO`] when empty).
    pub fn root_hash(&self) -> Hash {
        self.assert_fresh();
        self.root.hash()
    }

    /// Whether every cached node hash is current (no deferred write is
    /// waiting for [`SparseMerkleTree::rehash`]).
    pub fn is_fresh(&self) -> bool {
        !matches!(&self.root, Node::Branch(b) if b.stale)
    }

    fn assert_fresh(&self) {
        assert!(self.is_fresh(), "SparseMerkleTree hash read before rehash()");
    }

    /// The leaf stored at `path`, if any — the one descent every point
    /// lookup shares.
    fn find(&self, path: &Hash) -> Option<&Leaf<V>> {
        let mut node = &self.root;
        loop {
            match node {
                Node::Empty => return None,
                Node::Leaf(l) => return (l.path == *path).then_some(&**l),
                Node::Branch(b) => node = &b.children[path_bit(path, b.bit)],
            }
        }
    }

    /// The value stored for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&V> {
        self.find(&key_path(key)).map(|l| &l.value)
    }

    /// The value hash committed for `key`, if present.
    pub fn get_hash(&self, key: &str) -> Option<Hash> {
        self.find(&key_path(key)).map(|l| l.vhash)
    }

    /// Produce a proof for `key`: an inclusion proof when the key is live,
    /// otherwise an exclusion proof (verify with [`verify_proof`]).
    pub fn prove(&self, key: &str) -> SmtProof {
        self.assert_fresh();
        let path = key_path(key);
        let mut siblings = Vec::new();
        let mut node = &self.root;
        loop {
            match node {
                Node::Empty => {
                    return SmtProof { leaf_path: None, leaf_vhash: None, siblings };
                }
                Node::Leaf(l) => {
                    return SmtProof {
                        leaf_path: Some(l.path),
                        leaf_vhash: Some(l.vhash),
                        siblings,
                    };
                }
                Node::Branch(b) => {
                    let dir = path_bit(&path, b.bit);
                    siblings.push((b.bit, b.children[1 - dir].hash()));
                    node = &b.children[dir];
                }
            }
        }
    }

    /// Iterate all `(key, value)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        let mut stack = vec![&self.root];
        std::iter::from_fn(move || loop {
            let node = stack.pop()?;
            match node {
                Node::Empty => continue,
                Node::Leaf(l) => return Some((l.key.as_str(), &l.value)),
                Node::Branch(b) => {
                    stack.push(&b.children[1]);
                    stack.push(&b.children[0]);
                }
            }
        })
    }

    /// The keys whose paths fall in chunk `chunk` of `1 << bits`, in path
    /// order (the unit of state-sync transfer).
    pub fn chunk_keys(&self, chunk: u32, bits: u8) -> Vec<&str> {
        self.chunk_entries(chunk, bits).into_iter().map(|(k, _)| k).collect()
    }

    /// The `(key, value)` pairs of chunk `chunk` of `1 << bits`, in path
    /// order — the complete payload of one state-sync chunk, served from
    /// this tree (or any snapshot of it) alone.
    pub fn chunk_entries(&self, chunk: u32, bits: u8) -> Vec<(&str, &V)> {
        self.assert_fresh();
        let mut out = Vec::new();
        let mut node = &self.root;
        loop {
            match node {
                Node::Empty => return out,
                Node::Leaf(l) => {
                    if chunk_of(&l.path, bits) == chunk {
                        out.push((l.key.as_str(), &l.value));
                    }
                    return out;
                }
                Node::Branch(b) => {
                    let rep = *b.children[0].representative().expect("branches are non-empty");
                    if b.bit as u32 >= bits as u32 {
                        if chunk_of(&rep, bits) == chunk {
                            Self::collect_entries(node, &mut out);
                        }
                        return out;
                    }
                    // A bit skipped by path compression may already diverge
                    // from the chunk prefix.
                    if matches!(first_chunk_diff(&rep, chunk, bits), Some(d) if d < b.bit) {
                        return out;
                    }
                    node = &b.children[chunk_bit(chunk, bits, b.bit)];
                }
            }
        }
    }

    fn collect_entries<'a>(node: &'a Node<V>, out: &mut Vec<(&'a str, &'a V)>) {
        match node {
            Node::Empty => {}
            Node::Leaf(l) => out.push((l.key.as_str(), &l.value)),
            Node::Branch(b) => {
                Self::collect_entries(&b.children[0], out);
                Self::collect_entries(&b.children[1], out);
            }
        }
    }

    /// Sibling subtree hashes for chunk `chunk` of `1 << bits`: entry `d`
    /// is the hash of the subtree holding every key that shares the chunk's
    /// top `d` bits and differs at bit `d` (ZERO when no such key exists).
    /// Together with the chunk's own leaves this reassembles the root — see
    /// [`verify_chunk`].
    pub fn chunk_proof(&self, chunk: u32, bits: u8) -> Vec<Hash> {
        self.assert_fresh();
        let mut sibs = vec![Hash::ZERO; bits as usize];
        let mut node = &self.root;
        loop {
            match node {
                Node::Empty => return sibs,
                Node::Leaf(l) => {
                    if chunk_of(&l.path, bits) != chunk {
                        let d = first_chunk_diff(&l.path, chunk, bits)
                            .expect("differs within prefix");
                        sibs[d as usize] = l.hash;
                    }
                    return sibs;
                }
                Node::Branch(b) => {
                    let rep = *b.children[0].representative().expect("branches are non-empty");
                    if b.bit as u32 >= bits as u32 {
                        if chunk_of(&rep, bits) != chunk {
                            let d = first_chunk_diff(&rep, chunk, bits)
                                .expect("differs within prefix");
                            sibs[d as usize] = b.hash;
                        }
                        return sibs;
                    }
                    // A skipped bit may already diverge from the chunk.
                    if let Some(d) = first_chunk_diff(&rep, chunk, bits) {
                        if d < b.bit {
                            sibs[d as usize] = b.hash;
                            return sibs;
                        }
                    }
                    let dir = chunk_bit(chunk, bits, b.bit);
                    sibs[b.bit as usize] = b.children[1 - dir].hash();
                    node = &b.children[dir];
                }
            }
        }
    }

    /// Hash of the subtree holding exactly the leaves of chunk `chunk` of
    /// `1 << bits` (the value [`verify_chunk`] reassembles from the served
    /// entries). ZERO for an empty chunk. Two trees hold identical content
    /// in a chunk iff their chunk roots match — the basis of
    /// [`SparseMerkleTree::diff_chunks`].
    pub fn chunk_root(&self, chunk: u32, bits: u8) -> Hash {
        self.assert_fresh();
        let mut node = &self.root;
        loop {
            match node {
                Node::Empty => return Hash::ZERO,
                Node::Leaf(l) => {
                    return if chunk_of(&l.path, bits) == chunk { l.hash } else { Hash::ZERO };
                }
                Node::Branch(b) => {
                    let rep = *b.children[0].representative().expect("branches are non-empty");
                    if b.bit as u32 >= bits as u32 {
                        return if chunk_of(&rep, bits) == chunk { b.hash } else { Hash::ZERO };
                    }
                    if matches!(first_chunk_diff(&rep, chunk, bits), Some(d) if d < b.bit) {
                        return Hash::ZERO;
                    }
                    node = &b.children[chunk_bit(chunk, bits, b.bit)];
                }
            }
        }
    }

    /// Walk the node graph bottom-up: children are visited (post-order)
    /// before their parent, and any subtree whose root hash `prune`
    /// accepts is skipped entirely.
    ///
    /// This is the traversal persistence layers need: `prune` answers "is
    /// this content-addressed page already on disk?" (structural sharing
    /// between snapshots thus dedups on disk exactly where it dedups in
    /// memory), and the children-first emit order guarantees that a page's
    /// existence implies its *whole subtree* exists — a crash mid-persist
    /// leaves only complete orphan subtrees behind, never a parent with
    /// missing children that a later dedup pass would wrongly trust. The
    /// empty tree visits nothing.
    pub fn visit_nodes(
        &self,
        prune: &mut dyn FnMut(&Hash) -> bool,
        visit: &mut dyn FnMut(NodeView<'_, V>),
    ) {
        enum Step<'a, V> {
            Enter(&'a Node<V>),
            Emit(&'a Node<V>),
        }
        self.assert_fresh();
        let mut stack = vec![Step::Enter(&self.root)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(node) => match node {
                    Node::Empty => {}
                    Node::Leaf(l) => {
                        if !prune(&l.hash) {
                            visit(NodeView::Leaf { hash: l.hash, key: &l.key, value: &l.value });
                        }
                    }
                    Node::Branch(b) => {
                        if !prune(&b.hash) {
                            stack.push(Step::Emit(node));
                            stack.push(Step::Enter(&b.children[1]));
                            stack.push(Step::Enter(&b.children[0]));
                        }
                    }
                },
                Step::Emit(node) => {
                    let Node::Branch(b) = node else { unreachable!("only branches are deferred") };
                    visit(NodeView::Branch {
                        hash: b.hash,
                        bit: b.bit,
                        left: b.children[0].hash(),
                        right: b.children[1].hash(),
                    });
                }
            }
        }
    }

    /// The chunk indices (of `1 << bits`) whose content differs between
    /// `self` (the older snapshot) and `newer`, ascending.
    ///
    /// This is the server half of incremental state sync: a requester that
    /// still holds this tree's certified root only needs these chunks (plus
    /// per-chunk proofs against the *new* root) to reach the new state. The
    /// comparison is hash-only — with structural sharing between snapshots,
    /// unchanged regions compare equal without touching their leaves.
    pub fn diff_chunks(&self, newer: &Self, bits: u8) -> Vec<u32> {
        if self.root_hash() == newer.root_hash() {
            return Vec::new();
        }
        (0..1u32 << bits)
            .filter(|&c| self.chunk_root(c, bits) != newer.chunk_root(c, bits))
            .collect()
    }
}

impl<V: StateValue> SparseMerkleTree<V> {
    /// Bulk-build from `(key, value)` pairs (one hash per node instead of
    /// O(log n) per insert — use for genesis and state-sync install).
    /// Later duplicates of a key win.
    pub fn build(entries: impl IntoIterator<Item = (String, V)>) -> Self {
        let mut leaves: Vec<(Hash, String, Hash, V)> = entries
            .into_iter()
            .map(|(k, v)| (key_path(&k), k, v.leaf_digest(), v))
            .collect();
        leaves.sort_by_key(|l| l.0 .0);
        leaves.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                // Keep the later insertion, matching insert-loop semantics.
                earlier.2 = later.2;
                std::mem::swap(&mut earlier.1, &mut later.1);
                std::mem::swap(&mut earlier.3, &mut later.3);
                true
            } else {
                false
            }
        });
        let len = leaves.len();
        let mut slots: Vec<BuildEntry<V>> = leaves.into_iter().map(Some).collect();
        let root = Self::build_node(&mut slots[..]);
        SparseMerkleTree { root, len }
    }

    fn build_node(leaves: &mut [BuildEntry<V>]) -> Node<V> {
        match leaves {
            [] => Node::Empty,
            [slot] => {
                let (path, key, vhash, value) = slot.take().expect("each slot consumed once");
                let hash = leaf_hash(&path, &vhash);
                Node::Leaf(Arc::new(Leaf { path, key, vhash, hash, value }))
            }
            _ => {
                // Sorted slice: the crit bit is the first bit where the
                // first and last path differ.
                let first = leaves.first().and_then(|s| s.as_ref()).expect("non-empty").0;
                let last = leaves.last().and_then(|s| s.as_ref()).expect("non-empty").0;
                let bit = first_diff_bit(&first, &last).expect("distinct paths");
                let split = leaves
                    .partition_point(|s| path_bit(&s.as_ref().expect("unconsumed").0, bit) == 0);
                let (l, r) = leaves.split_at_mut(split);
                let left = Self::build_node(l);
                let right = Self::build_node(r);
                let children = [left, right];
                let hash = branch_hash(&children);
                Node::Branch(Arc::new(Branch { bit, stale: false, hash, children }))
            }
        }
    }
}

impl<V: StateValue + Clone> SparseMerkleTree<V> {
    /// Insert or update `key` with `value`. O(log n) hashes; clones only
    /// the nodes on the key's root path that are shared with snapshots.
    pub fn insert(&mut self, key: &str, value: V) {
        self.insert_deferred(key, value);
        self.rehash();
    }

    /// [`SparseMerkleTree::insert`] without re-hashing: the branches on
    /// the key's root path are flagged stale until the next
    /// [`SparseMerkleTree::rehash`], so writes that share ancestors hash
    /// each of them once.
    pub fn insert_deferred(&mut self, key: &str, value: V) {
        let _prof = ahl_telemetry::Profiler::span("smt.update");
        let path = key_path(key);
        let vhash = value.leaf_digest();
        // Find the leaf the path routes to (the crit-bit candidate).
        let mut node = &self.root;
        let existing = loop {
            match node {
                Node::Empty => break None,
                Node::Leaf(l) => break Some(l.path),
                Node::Branch(b) => node = &b.children[path_bit(&path, b.bit)],
            }
        };
        match existing {
            None => {
                debug_assert!(matches!(self.root, Node::Empty));
                self.root = Self::new_leaf(path, key, vhash, value);
                self.len = 1;
            }
            Some(lpath) if lpath == path => {
                let leaf = Self::descend_stale(&mut self.root, &path, 256);
                let Node::Leaf(l) = leaf else { unreachable!("the path routes to its leaf") };
                match Arc::get_mut(l) {
                    Some(l) => {
                        l.vhash = vhash;
                        l.hash = leaf_hash(&path, &vhash);
                        l.value = value;
                    }
                    // Shared with a snapshot: build the replacement from
                    // the write itself instead of cloning the old key and
                    // value only to overwrite the value.
                    None => *leaf = Self::new_leaf(path, key, vhash, value),
                }
            }
            Some(lpath) => {
                let crit = first_diff_bit(&path, &lpath).expect("paths differ");
                // Splice a new branch at `crit` above the node found there.
                let slot = Self::descend_stale(&mut self.root, &path, crit);
                let old = std::mem::take(slot);
                let dir = path_bit(&path, crit);
                let mut children = [Node::Empty, Node::Empty];
                children[dir] = Self::new_leaf(path, key, vhash, value);
                children[1 - dir] = old;
                *slot = Node::Branch(Arc::new(Branch {
                    bit: crit,
                    stale: true,
                    hash: Hash::ZERO,
                    children,
                }));
                self.len += 1;
            }
        }
    }

    fn new_leaf(path: Hash, key: &str, vhash: Hash, value: V) -> Node<V> {
        let hash = leaf_hash(&path, &vhash);
        Node::Leaf(Arc::new(Leaf { path, key: key.to_string(), vhash, hash, value }))
    }

    /// Follow `path` through every branch above bit `until`, flagging each
    /// stale (copy-on-write where shared), and return the slot reached.
    fn descend_stale<'a>(mut node: &'a mut Node<V>, path: &Hash, until: u16) -> &'a mut Node<V> {
        while matches!(node, Node::Branch(b) if b.bit < until) {
            let Node::Branch(b) = node else { unreachable!("matched a branch") };
            let b = Arc::make_mut(b);
            b.stale = true;
            node = &mut b.children[path_bit(path, b.bit)];
        }
        node
    }

    /// Remove `key`. Returns whether it was present. O(log n) hashes;
    /// copy-on-write like [`SparseMerkleTree::insert`].
    pub fn remove(&mut self, key: &str) -> bool {
        let hit = self.remove_deferred(key);
        self.rehash();
        hit
    }

    /// [`SparseMerkleTree::remove`] without re-hashing (see
    /// [`SparseMerkleTree::insert_deferred`]).
    pub fn remove_deferred(&mut self, key: &str) -> bool {
        let path = key_path(key);
        // Probe first: a miss must not copy-on-write any shared node.
        if self.find(&path).is_none() {
            return false;
        }
        Self::remove_rec(&mut self.root, &path);
        self.len -= 1;
        true
    }

    /// Remove the (known-present) leaf at `path`.
    fn remove_rec(node: &mut Node<V>, path: &Hash) {
        match node {
            Node::Leaf(l) => {
                debug_assert_eq!(l.path, *path);
                *node = Node::Empty;
            }
            Node::Branch(b) => {
                let b = Arc::make_mut(b);
                let dir = path_bit(path, b.bit);
                Self::remove_rec(&mut b.children[dir], path);
                if matches!(b.children[dir], Node::Empty) {
                    // Collapse the branch: the sibling takes its place.
                    let sibling = std::mem::take(&mut b.children[1 - dir]);
                    *node = sibling;
                } else {
                    b.stale = true;
                }
            }
            Node::Empty => unreachable!("probe found the key"),
        }
    }

    /// Recompute every stale branch hash once, bottom-up, leaving the tree
    /// fresh. Visits only stale branches and their children, so a no-op on
    /// a fresh tree.
    pub fn rehash(&mut self) {
        if self.is_fresh() {
            return;
        }
        let _prof = ahl_telemetry::Profiler::span("smt.rehash");
        Self::rehash_rec(&mut self.root);
    }

    fn rehash_rec(node: &mut Node<V>) {
        if let Node::Branch(b) = node {
            if b.stale {
                let b = Arc::make_mut(b);
                Self::rehash_rec(&mut b.children[0]);
                Self::rehash_rec(&mut b.children[1]);
                b.hash = branch_hash(&b.children);
                b.stale = false;
            }
        }
    }

    /// Mutate a stored value in place *without* refreshing the cached
    /// digests — the only way to manufacture the cache corruption
    /// `rehash_audit` exists to detect. Test-only by construction.
    #[cfg(test)]
    pub(crate) fn get_mut_for_test(&mut self, key: &str) -> Option<&mut V> {
        let path = key_path(key);
        Self::get_mut_rec(&mut self.root, &path)
    }

    #[cfg(test)]
    fn get_mut_rec<'a>(node: &'a mut Node<V>, path: &Hash) -> Option<&'a mut V> {
        match node {
            Node::Empty => None,
            Node::Leaf(l) => {
                if l.path == *path {
                    Some(&mut Arc::make_mut(l).value)
                } else {
                    None
                }
            }
            Node::Branch(b) => {
                let b = Arc::make_mut(b);
                let dir = path_bit(path, b.bit);
                Self::get_mut_rec(&mut b.children[dir], path)
            }
        }
    }
}

/// Below this many changes, [`SparseMerkleTree::batch_apply`] runs the
/// plain insert/remove loop: the merge setup (sort, dedup, probes) costs
/// more than it saves on a handful of keys.
const MIN_PARALLEL_BATCH: usize = 32;

/// A side of a recursive merge split must carry at least this many changes
/// before a thread is spawned for it.
const MIN_SPAWN_CHANGES: usize = 8;

/// One pending change in a batch merge: `(path, key, value_hash, value)`;
/// a `None` value is a removal. `Option`-wrapped so slices can hand
/// ownership to [`SparseMerkleTree::build_node`]-style consumers.
type ApplyEntry<V> = Option<(Hash, String, Hash, Option<V>)>;

impl<V: StateValue + Clone + Send + Sync> SparseMerkleTree<V> {
    /// Apply a batch of changes (`Some(value)` = insert/update, `None` =
    /// remove), equivalent to calling [`SparseMerkleTree::insert`] /
    /// [`SparseMerkleTree::remove`] in order — later changes to the same
    /// key win. With `workers > 1` the batch is merged in one recursive
    /// descent that re-hashes disjoint subtrees on separate threads and
    /// hashes each shared ancestor once per batch instead of once per key;
    /// the resulting tree is the canonical crit-bit tree over the final
    /// content, so the root is bit-identical to the sequential loop.
    pub fn batch_apply(&mut self, changes: Vec<(String, Option<V>)>, workers: usize) {
        self.assert_fresh();
        if changes.is_empty() {
            return;
        }
        if workers <= 1 || changes.len() < MIN_PARALLEL_BATCH {
            for (k, v) in changes {
                match v {
                    Some(v) => self.insert(&k, v),
                    None => {
                        self.remove(&k);
                    }
                }
            }
            return;
        }
        let _prof = ahl_telemetry::Profiler::span("smt.batch_apply");
        let mut slots: Vec<(Hash, String, Option<V>)> = changes
            .into_iter()
            .map(|(k, v)| (key_path(&k), k, v))
            .collect();
        // Stable sort + keep-the-later-change dedup (same discipline as
        // `build`): the batch collapses to its final per-key content.
        slots.sort_by_key(|s| s.0 .0);
        slots.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                std::mem::swap(earlier, later);
                true
            } else {
                false
            }
        });
        // Removals of absent keys are no-ops; dropping them up front means
        // every surviving removal routes to a live leaf, which keeps the
        // recursive split well-defined (only *inserts* can diverge above a
        // subtree) and makes the length delta exact.
        slots.retain(|(path, _, v)| v.is_some() || self.find(path).is_some());
        if slots.is_empty() {
            return;
        }
        let mut entries: Vec<ApplyEntry<V>> = slots
            .into_iter()
            .map(|(path, key, v)| {
                let vhash = v.as_ref().map_or(Hash::ZERO, StateValue::leaf_digest);
                Some((path, key, vhash, v))
            })
            .collect();
        let root = std::mem::take(&mut self.root);
        let (root, delta) = Self::merge_node(root, &mut entries, workers);
        self.root = root;
        self.len = (self.len as isize + delta) as usize;
    }

    /// Merge sorted, per-path-unique `entries` into `node`, returning the
    /// new node and the leaf-count delta. All entry paths share the
    /// routing prefix that led to `node`. `threads` is the spawn budget
    /// for disjoint subtrees.
    fn merge_node(node: Node<V>, entries: &mut [ApplyEntry<V>], threads: usize) -> (Node<V>, isize) {
        if entries.is_empty() {
            return (node, 0);
        }
        match node {
            Node::Empty => {
                // Only reachable at the root of an empty tree; removals of
                // absent keys were filtered, so everything is an insert.
                let mut puts = Self::take_puts(entries);
                let delta = puts.len() as isize;
                (Self::build_node(&mut puts), delta)
            }
            Node::Leaf(l) => {
                let touched = entries
                    .iter()
                    .any(|s| s.as_ref().expect("unconsumed").0 == l.path);
                let mut puts = Self::take_puts(entries);
                if !touched {
                    // The existing leaf survives: slot it into path order.
                    let (path, key, vhash, value) = match Arc::try_unwrap(l) {
                        Ok(leaf) => (leaf.path, leaf.key, leaf.vhash, leaf.value),
                        Err(l) => (l.path, l.key.clone(), l.vhash, l.value.clone()),
                    };
                    let pos = puts.partition_point(|s| {
                        s.as_ref().expect("unconsumed").0 .0 < path.0
                    });
                    puts.insert(pos, Some((path, key, vhash, value)));
                }
                let delta = puts.len() as isize - 1;
                (Self::build_node(&mut puts), delta)
            }
            Node::Branch(b) => {
                let rep = *b.children[0].representative().expect("branches are non-empty");
                // An insert whose path diverges from the subtree's shared
                // prefix belongs *above* this branch. Splice at the
                // shallowest such divergence first. (Removals always route
                // to live leaves, so they never diverge.)
                let div = entries
                    .iter()
                    .filter_map(|s| {
                        let e = s.as_ref().expect("unconsumed");
                        e.3.as_ref().and(first_diff_bit(&e.0, &rep))
                    })
                    .filter(|d| *d < b.bit)
                    .min();
                let bit = div.unwrap_or(b.bit);
                // Every entry shares path bits `0..bit` (divergences are
                // at >= bit), so the sorted slice splits cleanly on it.
                let split = entries.partition_point(|s| {
                    path_bit(&s.as_ref().expect("unconsumed").0, bit) == 0
                });
                let (ls, rs) = entries.split_at_mut(split);
                match div {
                    Some(d) => {
                        // New ancestor at `d`: the subtree keeps the side
                        // the representative routes to, the far side is
                        // built fresh from its inserts.
                        let dir = path_bit(&rep, d);
                        let (near, far) = if dir == 0 { (ls, rs) } else { (rs, ls) };
                        let (merged, d1) = Self::merge_node(Node::Branch(b), near, threads);
                        let mut far_puts = Self::take_puts(far);
                        let d2 = far_puts.len() as isize;
                        let far_node = Self::build_node(&mut far_puts);
                        (Self::join(d, dir, merged, far_node), d1 + d2)
                    }
                    None => {
                        let [c0, c1] = match Arc::try_unwrap(b) {
                            Ok(b) => b.children,
                            Err(b) => b.children.clone(),
                        };
                        let spawn = threads > 1
                            && ls.len() >= MIN_SPAWN_CHANGES
                            && rs.len() >= MIN_SPAWN_CHANGES;
                        let ((n0, d0), (n1, d1)) = if spawn {
                            std::thread::scope(|s| {
                                let h = s.spawn(|| Self::merge_node(c0, ls, threads / 2));
                                let right =
                                    Self::merge_node(c1, rs, threads - threads / 2);
                                (h.join().expect("merge thread panicked"), right)
                            })
                        } else {
                            (
                                Self::merge_node(c0, ls, threads),
                                Self::merge_node(c1, rs, threads),
                            )
                        };
                        (Self::join(bit, 0, n0, n1), d0 + d1)
                    }
                }
            }
        }
    }

    /// Extract the inserts of a consumed entry slice as build slots (in
    /// path order); removals are dropped (their leaves are not in `node0`'s
    /// side of the split, or the subtree is being rebuilt without them).
    fn take_puts(entries: &mut [ApplyEntry<V>]) -> Vec<BuildEntry<V>> {
        let mut puts: Vec<BuildEntry<V>> = Vec::with_capacity(entries.len());
        for s in entries.iter_mut() {
            let (path, key, vhash, value) = s.take().expect("slot consumed once");
            if let Some(v) = value {
                puts.push(Some((path, key, vhash, v)));
            }
        }
        puts
    }

    /// Rebuild a branch at `bit` whose `dir` child is `near`, collapsing if
    /// either side came back empty (removals can empty a whole subtree).
    fn join(bit: u16, dir: usize, near: Node<V>, far: Node<V>) -> Node<V> {
        match (&near, &far) {
            (Node::Empty, _) => far,
            (_, Node::Empty) => near,
            _ => {
                let mut children = [Node::Empty, Node::Empty];
                children[dir] = near;
                children[1 - dir] = far;
                let hash = branch_hash(&children);
                Node::Branch(Arc::new(Branch { bit, stale: false, hash, children }))
            }
        }
    }
}

impl<V: StateValue + Send + Sync> SparseMerkleTree<V> {
    /// Recompute every node hash bottom-up from leaf content — value
    /// digests, leaf hashes, branch hashes — across up to `workers`
    /// threads (disjoint subtrees audit concurrently), and compare against
    /// the cached hashes. Returns `true` when the entire tree is
    /// consistent. Checkpoint integrity check: a corrupted cache or a
    /// miscomputed parallel batch merge cannot certify a bad root.
    pub fn rehash_audit(&self, workers: usize) -> bool {
        self.assert_fresh();
        Self::audit_node(&self.root, workers.max(1))
    }

    fn audit_node(node: &Node<V>, threads: usize) -> bool {
        match node {
            Node::Empty => true,
            Node::Leaf(l) => {
                l.vhash == l.value.leaf_digest() && l.hash == leaf_hash(&l.path, &l.vhash)
            }
            Node::Branch(b) => {
                let children_ok = if threads > 1 {
                    std::thread::scope(|s| {
                        let h = s.spawn(|| Self::audit_node(&b.children[0], threads / 2));
                        let right = Self::audit_node(&b.children[1], threads - threads / 2);
                        h.join().expect("audit thread panicked") && right
                    })
                } else {
                    Self::audit_node(&b.children[0], 1) && Self::audit_node(&b.children[1], 1)
                };
                children_ok
                    && !matches!(b.children[0], Node::Empty)
                    && !matches!(b.children[1], Node::Empty)
                    && b.hash == branch_hash(&b.children)
            }
        }
    }
}

/// First bit (0 = most significant) where two paths differ.
fn first_diff_bit(a: &Hash, b: &Hash) -> Option<u16> {
    for i in 0..32 {
        let x = a.0[i] ^ b.0[i];
        if x != 0 {
            return Some((i * 8) as u16 + x.leading_zeros() as u16);
        }
    }
    None
}

/// First bit in `0..bits` where `path` differs from the chunk prefix.
fn first_chunk_diff(path: &Hash, chunk: u32, bits: u8) -> Option<u16> {
    (0..bits as u16).find(|&d| path_bit(path, d) != chunk_bit(chunk, bits, d))
}

/// Verify an [`SmtProof`] for `key` against `root`.
///
/// `expected` is `Some(value_hash)` for an inclusion claim and `None` for an
/// exclusion claim ("`key` is not in the state committed by `root`").
pub fn verify_proof(root: &Hash, key: &str, expected: Option<&Hash>, proof: &SmtProof) -> bool {
    let path = key_path(key);
    let (Some(lpath), Some(lvhash)) = (proof.leaf_path, proof.leaf_vhash) else {
        // Empty-tree form: only valid as exclusion from the zero root.
        return expected.is_none() && proof.siblings.is_empty() && *root == Hash::ZERO;
    };
    match expected {
        Some(vh) => {
            if lpath != path || lvhash != *vh {
                return false;
            }
        }
        None => {
            if lpath == path {
                return false;
            }
            // The exhibited leaf must occupy the key's position: the key's
            // path must route identically at every branch on the proof.
            if !proof.siblings.iter().all(|(bit, _)| {
                *bit < 256 && path_bit(&path, *bit) == path_bit(&lpath, *bit)
            }) {
                return false;
            }
        }
    }
    // Bits must strictly increase (each branch deeper than its parent).
    if proof.siblings.windows(2).any(|w| w[0].0 >= w[1].0)
        || proof.siblings.iter().any(|(bit, _)| *bit >= 256)
    {
        return false;
    }
    let mut acc = leaf_hash(&lpath, &lvhash);
    for (bit, sib) in proof.siblings.iter().rev() {
        acc = if path_bit(&lpath, *bit) == 0 {
            sha256_parts(&[&[0x01], &acc.0, &sib.0])
        } else {
            sha256_parts(&[&[0x01], &sib.0, &acc.0])
        };
    }
    acc == *root
}

/// Verify that `entries` is the complete leaf set of chunk `chunk` (of
/// `1 << bits`) in the state committed by `root`.
///
/// `entries` are `(path, value_hash)` pairs sorted strictly by path (the
/// transfer layer recomputes both from the raw key/value payload, so a
/// tampered, truncated, or padded chunk changes a hash and fails here).
/// `siblings` is the output of [`SparseMerkleTree::chunk_proof`].
pub fn verify_chunk(
    root: &Hash,
    chunk: u32,
    bits: u8,
    entries: &[(Hash, Hash)],
    siblings: &[Hash],
) -> bool {
    let _prof = ahl_telemetry::Profiler::span("sync.verify_chunk");
    if siblings.len() != bits as usize || bits > 32 {
        return false;
    }
    if entries
        .windows(2)
        .any(|w| w[0].0 .0 >= w[1].0 .0)
    {
        return false; // unsorted or duplicate paths
    }
    if entries.iter().any(|(p, _)| chunk_of(p, bits) != chunk) {
        return false; // leaf outside the claimed range
    }
    let mut acc = subtree_from_leaves(entries, bits as u16);
    for d in (0..bits as u16).rev() {
        let sib = siblings[d as usize];
        let dir = chunk_bit(chunk, bits, d);
        acc = if dir == 0 {
            combine(&acc, &sib)
        } else {
            combine(&sib, &acc)
        };
    }
    acc == *root
}

/// Hash of the subtree holding exactly `leaves` (sorted by path), rooted at
/// depth `depth` — replicating the path-compressed hashing rules.
fn subtree_from_leaves(leaves: &[(Hash, Hash)], depth: u16) -> Hash {
    match leaves {
        [] => Hash::ZERO,
        [(path, vhash)] => leaf_hash(path, vhash),
        _ => {
            debug_assert!(depth < 256, "distinct sorted paths diverge before depth 256");
            let split = leaves.partition_point(|(p, _)| path_bit(p, depth) == 0);
            let left = subtree_from_leaves(&leaves[..split], depth + 1);
            let right = subtree_from_leaves(&leaves[split..], depth + 1);
            combine(&left, &right)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vh(i: u64) -> Hash {
        sha256_parts(&[&i.to_be_bytes()])
    }

    fn tree_of(n: u64) -> SparseMerkleTree {
        let mut t = SparseMerkleTree::new();
        for i in 0..n {
            t.insert(&format!("key-{i}"), vh(i));
        }
        t
    }

    #[test]
    fn empty_tree_zero_root() {
        let t: SparseMerkleTree = SparseMerkleTree::new();
        assert_eq!(t.root_hash(), Hash::ZERO);
        assert!(t.is_empty());
        let p = t.prove("missing");
        assert!(verify_proof(&t.root_hash(), "missing", None, &p));
    }

    #[test]
    fn insert_get_update_remove() {
        let mut t = SparseMerkleTree::new();
        t.insert("a", vh(1));
        assert_eq!(t.get("a"), Some(&vh(1)));
        let r1 = t.root_hash();
        t.insert("a", vh(2));
        assert_eq!(t.get("a"), Some(&vh(2)));
        assert_eq!(t.get_hash("a"), Some(vh(2)));
        assert_ne!(t.root_hash(), r1);
        assert_eq!(t.len(), 1);
        assert!(t.remove("a"));
        assert!(!t.remove("a"));
        assert_eq!(t.root_hash(), Hash::ZERO);
    }

    #[test]
    fn root_matches_bulk_build() {
        let t = tree_of(200);
        let bulk = SparseMerkleTree::build((0..200u64).map(|i| (format!("key-{i}"), vh(i))));
        assert_eq!(t.root_hash(), bulk.root_hash());
        assert_eq!(bulk.len(), 200);
    }

    #[test]
    fn bulk_build_last_duplicate_wins() {
        let bulk = SparseMerkleTree::build(vec![
            ("k".to_string(), vh(1)),
            ("other".to_string(), vh(9)),
            ("k".to_string(), vh(2)),
        ]);
        assert_eq!(bulk.len(), 2);
        assert_eq!(bulk.get("k"), Some(&vh(2)));
    }

    #[test]
    fn insert_order_does_not_matter() {
        let mut a = SparseMerkleTree::new();
        let mut b = SparseMerkleTree::new();
        for i in 0..50u64 {
            a.insert(&format!("key-{i}"), vh(i));
        }
        for i in (0..50u64).rev() {
            b.insert(&format!("key-{i}"), vh(i));
        }
        assert_eq!(a.root_hash(), b.root_hash());
    }

    #[test]
    fn inclusion_proofs_verify() {
        let t = tree_of(64);
        for i in 0..64u64 {
            let key = format!("key-{i}");
            let p = t.prove(&key);
            assert!(verify_proof(&t.root_hash(), &key, Some(&vh(i)), &p), "key {i}");
            // Wrong value hash fails.
            assert!(!verify_proof(&t.root_hash(), &key, Some(&vh(i + 1)), &p));
            // Inclusion proof is not an exclusion proof.
            assert!(!verify_proof(&t.root_hash(), &key, None, &p));
        }
    }

    #[test]
    fn exclusion_proofs_verify() {
        let t = tree_of(64);
        for i in 0..32u64 {
            let key = format!("absent-{i}");
            let p = t.prove(&key);
            assert!(verify_proof(&t.root_hash(), &key, None, &p), "key {key}");
            // An exclusion proof cannot claim inclusion.
            assert!(!verify_proof(&t.root_hash(), &key, Some(&vh(i)), &p));
        }
    }

    #[test]
    fn exclusion_proof_rejected_for_present_key() {
        let t = tree_of(64);
        // Take the proof for an absent key and try to use it to claim a
        // *present* key is absent: the routing-consistency check fails.
        let p = t.prove("absent-1");
        for i in 0..64u64 {
            assert!(!verify_proof(&t.root_hash(), &format!("key-{i}"), None, &p));
        }
    }

    #[test]
    fn tampered_proof_rejected() {
        let t = tree_of(16);
        let mut p = t.prove("key-3");
        if let Some((_, sib)) = p.siblings.first_mut() {
            sib.0[0] ^= 1;
        }
        assert!(!verify_proof(&t.root_hash(), "key-3", Some(&vh(3)), &p));
    }

    #[test]
    fn proof_does_not_transfer_between_roots() {
        let a = tree_of(16);
        let b = tree_of(17);
        let p = a.prove("key-3");
        assert!(!verify_proof(&b.root_hash(), "key-3", Some(&vh(3)), &p));
    }

    #[test]
    fn chunks_partition_all_keys() {
        let t = tree_of(100);
        for bits in [0u8, 1, 2, 3, 5] {
            let mut seen = 0usize;
            for chunk in 0..(1u32 << bits) {
                seen += t.chunk_keys(chunk, bits).len();
            }
            assert_eq!(seen, 100, "bits {bits}");
        }
    }

    #[test]
    fn chunks_verify_and_reassemble_root() {
        let t = tree_of(100);
        for bits in [0u8, 1, 3, 4] {
            for chunk in 0..(1u32 << bits) {
                let entries: Vec<(Hash, Hash)> = t
                    .chunk_entries(chunk, bits)
                    .iter()
                    .map(|(k, v)| (key_path(k), **v))
                    .collect();
                let proof = t.chunk_proof(chunk, bits);
                assert!(
                    verify_chunk(&t.root_hash(), chunk, bits, &entries, &proof),
                    "bits {bits} chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn tampered_chunk_rejected() {
        let t = tree_of(50);
        let bits = 2u8;
        // Find a non-empty chunk.
        let chunk = (0..4u32)
            .find(|c| !t.chunk_keys(*c, bits).is_empty())
            .expect("some chunk non-empty");
        let keys = t.chunk_keys(chunk, bits);
        let mut entries: Vec<(Hash, Hash)> = keys
            .iter()
            .map(|k| (key_path(k), *t.get(k).expect("live")))
            .collect();
        let proof = t.chunk_proof(chunk, bits);
        // Alter one value hash.
        entries[0].1 .0[0] ^= 1;
        assert!(!verify_chunk(&t.root_hash(), chunk, bits, &entries, &proof));
        entries[0].1 .0[0] ^= 1;
        // Drop one leaf.
        let dropped = entries.split_off(entries.len() - 1);
        let ok_short = verify_chunk(&t.root_hash(), chunk, bits, &entries, &proof);
        assert!(!ok_short || keys.len() == 1);
        entries.extend(dropped);
        // Present the chunk under the wrong index.
        assert!(!verify_chunk(&t.root_hash(), chunk ^ 1, bits, &entries, &proof));
    }

    #[test]
    fn chunk_of_takes_top_bits() {
        let mut p = Hash::ZERO;
        p.0[0] = 0b1010_0000;
        assert_eq!(chunk_of(&p, 1), 1);
        assert_eq!(chunk_of(&p, 2), 0b10);
        assert_eq!(chunk_of(&p, 4), 0b1010);
        assert_eq!(chunk_of(&p, 0), 0);
    }

    #[test]
    fn iter_yields_all_pairs() {
        let t = tree_of(30);
        let mut keys: Vec<String> = t.iter().map(|(k, _)| k.to_string()).collect();
        keys.sort();
        let mut want: Vec<String> = (0..30).map(|i| format!("key-{i}")).collect();
        want.sort();
        assert_eq!(keys, want);
    }

    #[test]
    fn clone_preserves_root() {
        let t = tree_of(40);
        let c = t.clone();
        assert_eq!(t.root_hash(), c.root_hash());
        assert_eq!(t.len(), c.len());
    }

    #[test]
    fn snapshot_isolated_from_mutations() {
        let mut t = tree_of(64);
        let snap = t.clone(); // O(1) handle
        let root = snap.root_hash();
        let proof = snap.prove("key-7");
        // Mutate the live tree heavily: update, insert, remove.
        for i in 0..64u64 {
            t.insert(&format!("key-{i}"), vh(i + 1000));
        }
        for i in 0..32u64 {
            t.insert(&format!("new-{i}"), vh(i));
        }
        for i in 0..16u64 {
            t.remove(&format!("key-{i}"));
        }
        assert_ne!(t.root_hash(), root, "live tree diverged");
        // The snapshot is byte-identical to its capture point.
        assert_eq!(snap.root_hash(), root);
        assert_eq!(snap.len(), 64);
        assert_eq!(snap.prove("key-7"), proof);
        assert!(verify_proof(&root, "key-7", Some(&vh(7)), &snap.prove("key-7")));
        assert_eq!(snap.get("key-3"), Some(&vh(3)));
        // Chunk proofs of the snapshot still verify against the old root.
        let bits = 2u8;
        for chunk in 0..4u32 {
            let entries: Vec<(Hash, Hash)> = snap
                .chunk_entries(chunk, bits)
                .iter()
                .map(|(k, v)| (key_path(k), **v))
                .collect();
            assert!(verify_chunk(&root, chunk, bits, &entries, &snap.chunk_proof(chunk, bits)));
        }
    }

    #[test]
    fn visit_nodes_covers_tree_and_skip_prunes() {
        let t = tree_of(50);
        // Full walk: every leaf visited exactly once, branch hashes match
        // their children (the invariant page stores rely on), and every
        // branch is emitted only after both its children (children-first
        // order is what makes crash-interrupted persists safe).
        let mut seen: std::collections::HashSet<Hash> = std::collections::HashSet::new();
        let mut leaves = 0usize;
        let mut branches = 0usize;
        t.visit_nodes(&mut |_| false, &mut |view| match view {
            NodeView::Leaf { hash, key, value } => {
                leaves += 1;
                assert_eq!(hash, leaf_hash(&key_path(key), value));
                seen.insert(hash);
            }
            NodeView::Branch { hash, left, right, .. } => {
                branches += 1;
                assert_eq!(hash, sha256_parts(&[&[0x01], &left.0, &right.0]));
                assert!(seen.contains(&left) && seen.contains(&right), "children first");
                seen.insert(hash);
            }
        });
        assert_eq!(leaves, 50);
        assert_eq!(branches, 49, "a crit-bit tree has n-1 branches");
        // Pruning everything visits nothing.
        t.visit_nodes(&mut |_| true, &mut |_| panic!("fully pruned"));
        // Empty tree: no visits at all.
        let empty: SparseMerkleTree = SparseMerkleTree::new();
        empty.visit_nodes(&mut |_| false, &mut |_| panic!("empty tree has no nodes"));
    }

    #[test]
    fn chunk_root_matches_reassembly() {
        let t = tree_of(80);
        for bits in [0u8, 2, 4] {
            for chunk in 0..(1u32 << bits) {
                let entries: Vec<(Hash, Hash)> = t
                    .chunk_entries(chunk, bits)
                    .iter()
                    .map(|(k, v)| (key_path(k), **v))
                    .collect();
                assert_eq!(
                    t.chunk_root(chunk, bits),
                    subtree_from_leaves(&entries, bits as u16),
                    "bits {bits} chunk {chunk}"
                );
            }
        }
    }

    #[test]
    fn diff_chunks_finds_exactly_changed_chunks() {
        let old = tree_of(120);
        let mut new = old.clone();
        // Touch a handful of keys (update, insert, delete).
        new.insert("key-5", vh(999));
        new.insert("brand-new", vh(1));
        new.remove("key-77");
        let bits = 5u8;
        let changed = old.diff_chunks(&new, bits);
        let expect: std::collections::BTreeSet<u32> = [
            chunk_of(&key_path("key-5"), bits),
            chunk_of(&key_path("brand-new"), bits),
            chunk_of(&key_path("key-77"), bits),
        ]
        .into_iter()
        .collect();
        assert_eq!(changed, expect.into_iter().collect::<Vec<u32>>());
        // Applying the changed chunks' new content onto the old tree
        // reproduces the new root exactly (the client-side diff install).
        let mut merged = old.clone();
        for &c in &old.diff_chunks(&new, bits) {
            let stale: Vec<String> =
                merged.chunk_keys(c, bits).iter().map(|k| k.to_string()).collect();
            for k in stale {
                merged.remove(&k);
            }
            let fresh: Vec<(String, Hash)> = new
                .chunk_entries(c, bits)
                .iter()
                .map(|(k, v)| (k.to_string(), **v))
                .collect();
            for (k, v) in fresh {
                merged.insert(&k, v);
            }
        }
        assert_eq!(merged.root_hash(), new.root_hash());
        // Identical trees have an empty diff.
        assert!(new.diff_chunks(&new.clone(), bits).is_empty());
    }

    /// The change mix every batch-apply test runs: fresh inserts, updates,
    /// removals of live keys, removals of absent keys, and same-key
    /// rewrites within one batch (later must win).
    fn batch_changes() -> Vec<(String, Option<Hash>)> {
        let mut changes: Vec<(String, Option<Hash>)> = Vec::new();
        for i in 0..120u64 {
            changes.push((format!("new-{i}"), Some(vh(1000 + i))));
        }
        for i in 0..40u64 {
            changes.push((format!("key-{i}"), Some(vh(2000 + i)))); // update
        }
        for i in 40..80u64 {
            changes.push((format!("key-{i}"), None)); // remove live
        }
        for i in 0..20u64 {
            changes.push((format!("ghost-{i}"), None)); // remove absent
        }
        for i in 0..10u64 {
            changes.push((format!("new-{i}"), Some(vh(3000 + i)))); // rewrite
            changes.push((format!("key-{}", 40 + i), Some(vh(4000 + i)))); // resurrect
        }
        changes
    }

    #[test]
    fn batch_apply_matches_sequential_loop() {
        for workers in [1usize, 2, 4, 8] {
            let mut seq = tree_of(100);
            let mut par = tree_of(100);
            for (k, v) in batch_changes() {
                match v {
                    Some(v) => seq.insert(&k, v),
                    None => {
                        seq.remove(&k);
                    }
                }
            }
            par.batch_apply(batch_changes(), workers);
            assert_eq!(par.root_hash(), seq.root_hash(), "workers={workers}");
            assert_eq!(par.len(), seq.len(), "workers={workers}");
            assert!(par.rehash_audit(workers), "workers={workers}");
        }
    }

    #[test]
    fn batch_apply_into_empty_and_single_leaf_trees() {
        for base in [0u64, 1] {
            let mut seq = tree_of(base);
            let mut par = tree_of(base);
            let changes: Vec<(String, Option<Hash>)> = (0..64u64)
                .map(|i| (format!("k{i}"), Some(vh(i))))
                .chain(std::iter::once(("key-0".to_string(), None)))
                .collect();
            for (k, v) in changes.clone() {
                match v {
                    Some(v) => seq.insert(&k, v),
                    None => {
                        seq.remove(&k);
                    }
                }
            }
            par.batch_apply(changes, 4);
            assert_eq!(par.root_hash(), seq.root_hash(), "base={base}");
            assert_eq!(par.len(), seq.len(), "base={base}");
        }
    }

    #[test]
    fn batch_apply_can_empty_the_tree() {
        let mut t = tree_of(40);
        let changes: Vec<(String, Option<Hash>)> =
            (0..40u64).map(|i| (format!("key-{i}"), None)).collect();
        t.batch_apply(changes, 4);
        assert_eq!(t.root_hash(), Hash::ZERO);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn batch_apply_shares_structure_with_snapshots() {
        // A frozen clone must be unaffected by a parallel batch apply.
        let mut t = tree_of(80);
        let snap = t.clone();
        let before = snap.root_hash();
        t.batch_apply(batch_changes(), 4);
        assert_eq!(snap.root_hash(), before);
        assert_eq!(snap.len(), 80);
        assert!(snap.rehash_audit(2));
        assert_ne!(t.root_hash(), before);
    }

    #[test]
    fn rehash_audit_detects_stale_cache() {
        let t = tree_of(50);
        assert!(t.rehash_audit(4));
        // Mutate one value behind the digest cache: the audit must notice
        // the leaf's content no longer matches its committed digest.
        #[derive(Clone)]
        struct Bad(Hash);
        impl StateValue for Bad {
            fn leaf_digest(&self) -> Hash {
                self.0
            }
        }
        let mut bad: SparseMerkleTree<Bad> = SparseMerkleTree::build(
            (0..50u64).map(|i| (format!("key-{i}"), Bad(vh(i)))),
        );
        assert!(bad.rehash_audit(2));
        bad.get_mut_for_test("key-7").expect("present").0 = vh(999);
        assert!(!bad.rehash_audit(2));
    }

    proptest::proptest! {
        /// Random op sequences: the incremental tree equals a bulk rebuild
        /// of the surviving reference map, regardless of operation order.
        #[test]
        fn incremental_equals_reference(
            ops in proptest::collection::vec((0u8..3, 0u64..40, 0u64..1000), 1..120)
        ) {
            let mut t = SparseMerkleTree::new();
            let mut reference = std::collections::BTreeMap::new();
            for (kind, k, v) in ops {
                let key = format!("k{k}");
                match kind {
                    0 | 1 => {
                        t.insert(&key, vh(v));
                        reference.insert(key, vh(v));
                    }
                    _ => {
                        let a = t.remove(&key);
                        let b = reference.remove(&key).is_some();
                        proptest::prop_assert_eq!(a, b);
                    }
                }
            }
            let bulk = SparseMerkleTree::build(
                reference.iter().map(|(k, v)| (k.clone(), *v)),
            );
            proptest::prop_assert_eq!(t.root_hash(), bulk.root_hash());
            proptest::prop_assert_eq!(t.len(), reference.len());
        }

        /// Parallel batch apply ≡ the sequential insert/remove loop, for
        /// random change sets (inserts, updates, removals, duplicates)
        /// at every worker count the exec engine uses.
        #[test]
        fn batch_apply_equals_loop(
            changes in proptest::collection::vec((0u8..4, 0u64..60, 0u64..1000), 0..150),
            workers in 2usize..9,
        ) {
            let mut seq = SparseMerkleTree::new();
            for i in 0..30u64 {
                seq.insert(&format!("k{i}"), vh(i));
            }
            let mut par = seq.clone();
            let batch: Vec<(String, Option<Hash>)> = changes
                .into_iter()
                .map(|(kind, k, v)| {
                    // kind 3 = remove, 0..=2 = insert/update (insert-biased
                    // so batches grow past the parallel threshold).
                    (format!("k{k}"), (kind != 3).then(|| vh(v)))
                })
                .collect();
            for (k, v) in batch.clone() {
                match v {
                    Some(v) => seq.insert(&k, v),
                    None => {
                        seq.remove(&k);
                    }
                }
            }
            par.batch_apply(batch, workers);
            proptest::prop_assert_eq!(par.root_hash(), seq.root_hash());
            proptest::prop_assert_eq!(par.len(), seq.len());
            proptest::prop_assert!(par.rehash_audit(workers));
        }

        /// Chunk decomposition always reassembles the root.
        #[test]
        fn chunks_reassemble(n in 0usize..60, bits in 0u8..5) {
            let t = SparseMerkleTree::build(
                (0..n as u64).map(|i| (format!("key-{i}"), vh(i))),
            );
            for chunk in 0..(1u32 << bits) {
                let entries: Vec<(Hash, Hash)> = t
                    .chunk_entries(chunk, bits)
                    .iter()
                    .map(|(k, v)| (key_path(k), **v))
                    .collect();
                let proof = t.chunk_proof(chunk, bits);
                proptest::prop_assert!(
                    verify_chunk(&t.root_hash(), chunk, bits, &entries, &proof)
                );
            }
        }
    }
}
