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
//! A tree and every clone and snapshot taken from it form one *lineage*,
//! and the lineage keeps all its nodes in one slab: a branch column and a
//! leaf column addressed by `u32` indices, and a LIFO free list per column,
//! so a freed slot is the next allocation's. A tree handle is a root index
//! into that slab, which sits behind one `Arc<RwLock<…>>`.
//!
//! A branch record is 16 bytes: its two children as tagged `u32`
//! references (`u32::MAX` for an empty side, bit 31 set for a leaf), its
//! crit bit, its stale flag and its reference count — everything a descent,
//! a copy-on-write or a release reads. Its 32-byte hash lives in a column
//! of its own, which only hash readers and the re-hash visit. A leaf keeps
//! its count beside its path. The tag bit and the sentinel leave
//! `2³¹ − 1` slots per column; allocating past that panics rather than
//! alias a reference.
//!
//! Nodes are never mutated while shared. An update walks the leaf's root
//! path and mutates a node in place when its count is 1 — the common case
//! with no snapshot outstanding — and otherwise copies the 16-byte record
//! and bumps the two children's counts, without copying the children.
//! Consequently [`SparseMerkleTree::clone`] is **O(1)**: it bumps one
//! count, and the clone is a true immutable snapshot — its root, proofs,
//! and chunk proofs stay byte-identical no matter how the live tree
//! evolves. Dropping a handle releases its root, freeing only the nodes
//! whose count reaches zero, so retiring a snapshot walks exactly the nodes
//! no other handle shares. This is what makes per-checkpoint state
//! snapshots free and lets a server retain several certified snapshots for
//! diff computation. A lineage can also span several owners: a PBFT
//! committee builds its genesis tree once and every replica starts from a
//! clone of it, so one slab holds the whole committee's state.
//!
//! Readers that lend out keys or values go through a [`SmtView`], which
//! holds the slab read-locked for its lifetime; every other reader takes
//! the lock for the duration of the call. A handle must not be mutated (or
//! cloned, or dropped) on a thread that holds a view of the same lineage.
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
//! Leaf hashes are always current; branch hashes are brought up to date
//! when read. [`SparseMerkleTree::insert`] and [`SparseMerkleTree::remove`]
//! flag every branch on the written root path *stale* instead of
//! re-hashing it. The next reader of a hash — `root_hash`, `prove`,
//! `chunk_proof`, `chunk_root`, `visit_nodes`, `diff_chunks`,
//! `rehash_audit` — or the snapshot [`Clone`] first re-hashes every stale
//! branch once, bottom-up, in place under the lineage's write lock; on a
//! fresh tree it takes only the read lock. Writes that share ancestors
//! between two reads pay for each ancestor once, so a replica that reads
//! its root once per checkpoint hashes once per checkpoint, not per block.
//!
//! A stale branch's ancestors are all stale, so the tree is fresh exactly
//! when its root is. Only unshared branches are ever stale (a clone
//! freshens first), so freshening one handle touches no node another
//! handle reaches. The flag is explicit: [`Hash::ZERO`] already means
//! "empty subtree". [`SparseMerkleTree::build`] and a parallel
//! [`SparseMerkleTree::batch_apply`] leave the tree fresh; lookups
//! ([`SmtView::get`], [`SmtView::iter`], the chunk listings, `len`) read no
//! hash and leave a stale tree stale. Freshening takes the write lock, so
//! drop any [`SmtView`] of the lineage before reading a hash from a stale
//! tree on the same thread.

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

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

/// A reference to a node: a slot in one of the slab's two columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Node {
    Empty,
    Leaf(u32),
    Branch(u32),
}

/// Slots a column may hold: indices `0..SLOTS` encode as a [`Ref`] that
/// neither sets the leaf tag on a branch nor collides with the empty
/// sentinel (a leaf at `2³¹ − 1` would read back as `Empty`).
const SLOTS: usize = (1 << 31) - 1;

/// A [`Node`] as a branch stores it: `u32::MAX` for `Empty`, the index
/// with bit 31 set for a leaf, the bare index for a branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ref(u32);

impl Ref {
    const EMPTY: u32 = u32::MAX;
    const LEAF: u32 = 1 << 31;
}

impl From<Node> for Ref {
    #[inline]
    fn from(node: Node) -> Ref {
        Ref(match node {
            Node::Empty => Ref::EMPTY,
            Node::Leaf(i) => Ref::LEAF | i,
            Node::Branch(i) => i,
        })
    }
}

impl From<Ref> for Node {
    #[inline]
    fn from(r: Ref) -> Node {
        match r.0 {
            Ref::EMPTY => Node::Empty,
            i if i & Ref::LEAF != 0 => Node::Leaf(i & !Ref::LEAF),
            i => Node::Branch(i),
        }
    }
}

struct Leaf<V> {
    path: Hash,
    refs: u32,
    key: String,
    vhash: Hash,
    hash: Hash,
    value: V,
}

/// The record every walk, copy-on-write and release touches. Its hash sits
/// apart, in [`Slab::branch_hashes`], which only hash readers visit.
#[derive(Clone, Copy)]
struct Branch {
    links: [Ref; 2],
    refs: u32,
    /// The bit index at which the two children diverge. All leaves below
    /// share path bits `0..bit`; children split on bit `bit`.
    bit: u16,
    /// The branch's hash is out of date: a write changed this subtree
    /// since a hash was last read. Only unshared branches are ever stale
    /// (a clone freshens first).
    stale: bool,
}

const _: () = assert!(std::mem::size_of::<Branch>() == 16, "one branch record");

impl Branch {
    #[inline]
    fn child(&self, dir: usize) -> Node {
        self.links[dir].into()
    }

    #[inline]
    fn children(&self) -> [Node; 2] {
        [self.child(0), self.child(1)]
    }
}

/// Where a node reference lives: the handle's root (`None`) or child `dir`
/// of branch `b` (`Some((b, dir))`).
type Slot = Option<(u32, usize)>;

/// Every node of one tree lineage. A live slot's count (`refs`, inline in
/// the record) is the number of references to it: its parent branches plus
/// the handles rooted at it. A free branch slot has count 0; a free leaf
/// slot is `None`.
struct Slab<V> {
    branches: Vec<Branch>,
    /// Branch `i`'s hash, current unless `branches[i].stale`.
    branch_hashes: Vec<Hash>,
    free_branches: Vec<u32>,
    leaves: Vec<Option<Leaf<V>>>,
    free_leaves: Vec<u32>,
    /// Scratch for [`Slab::rehash`]: `(branch, fresh hash)` pairs.
    rehashed: Vec<(u32, Hash)>,
}

impl<V> Default for Slab<V> {
    fn default() -> Self {
        Slab {
            branches: Vec::new(),
            branch_hashes: Vec::new(),
            free_branches: Vec::new(),
            leaves: Vec::new(),
            free_leaves: Vec::new(),
            rehashed: Vec::new(),
        }
    }
}

/// What a handle on a poisoned slab reports: a writer panicked mid-update,
/// so the counts can no longer be trusted.
const POISONED: &str = "state tree slab poisoned by a panicked writer";

impl<V> Slab<V> {
    fn leaf(&self, i: u32) -> &Leaf<V> {
        self.leaves[i as usize].as_ref().expect("live leaf slot")
    }

    fn leaf_mut(&mut self, i: u32) -> &mut Leaf<V> {
        self.leaves[i as usize].as_mut().expect("live leaf slot")
    }

    fn branch(&self, i: u32) -> &Branch {
        &self.branches[i as usize]
    }

    fn hash(&self, node: Node) -> Hash {
        match node {
            Node::Empty => Hash::ZERO,
            Node::Leaf(i) => self.leaf(i).hash,
            Node::Branch(i) => {
                debug_assert!(!self.branch(i).stale, "hash read from a stale branch");
                self.branch_hashes[i as usize]
            }
        }
    }

    fn branch_hash(&self, children: [Node; 2]) -> Hash {
        let (l, r) = (self.hash(children[0]), self.hash(children[1]));
        sha256_parts(&[&[0x01], &l.0, &r.0])
    }

    fn is_fresh(&self, root: Node) -> bool {
        !matches!(root, Node::Branch(i) if self.branch(i).stale)
    }

    /// Path of the leftmost leaf below `node` (`None` for `Empty`). All
    /// leaves below a branch at bit `b` share path bits `0..b`, so any leaf
    /// is a representative for prefix checks.
    fn representative(&self, mut node: Node) -> Option<Hash> {
        loop {
            match node {
                Node::Empty => return None,
                Node::Leaf(i) => return Some(self.leaf(i).path),
                Node::Branch(i) => node = self.branch(i).child(0),
            }
        }
    }

    /// The leaf slot stored at `path` under `root`, if any — the one
    /// descent every point lookup shares.
    fn find(&self, root: Node, path: &Hash) -> Option<u32> {
        let mut node = root;
        loop {
            match node {
                Node::Empty => return None,
                Node::Leaf(i) => return (self.leaf(i).path == *path).then_some(i),
                Node::Branch(i) => {
                    let b = self.branch(i);
                    node = b.child(path_bit(path, b.bit));
                }
            }
        }
    }

    // ---- slot accounting --------------------------------------------------

    /// Store `leaf` (count 1) in a free slot, or a new one.
    fn new_leaf(&mut self, leaf: Leaf<V>) -> Node {
        Node::Leaf(match self.free_leaves.pop() {
            Some(i) => {
                self.leaves[i as usize] = Some(leaf);
                i
            }
            None => {
                assert!(
                    self.leaves.len() < SLOTS,
                    "leaf column full: slot {SLOTS} would read back as an empty child"
                );
                self.leaves.push(Some(leaf));
                (self.leaves.len() - 1) as u32
            }
        })
    }

    /// Store `branch` (count 1) in a free slot, or a new one. The slot's
    /// hash is whatever it last held: the caller sets it or flags `stale`.
    fn new_branch(&mut self, branch: Branch) -> u32 {
        match self.free_branches.pop() {
            Some(i) => {
                self.branches[i as usize] = branch;
                i
            }
            None => {
                assert!(
                    self.branches.len() < SLOTS,
                    "branch column full: a child reference addresses {SLOTS} slots"
                );
                self.branches.push(branch);
                self.branch_hashes.push(Hash::ZERO);
                (self.branches.len() - 1) as u32
            }
        }
    }

    fn retain(&mut self, node: Node) {
        match node {
            Node::Empty => {}
            Node::Leaf(i) => self.leaf_mut(i).refs += 1,
            Node::Branch(i) => self.branches[i as usize].refs += 1,
        }
    }

    /// Drop one reference to `node`, freeing it — and, recursively, what
    /// only it referenced — when its count reaches zero.
    fn release(&mut self, node: Node) {
        match node {
            Node::Empty => {}
            Node::Leaf(i) => {
                let l = self.leaf_mut(i);
                l.refs -= 1;
                if l.refs == 0 {
                    self.leaves[i as usize] = None;
                    self.free_leaves.push(i);
                }
            }
            Node::Branch(i) => {
                let b = &mut self.branches[i as usize];
                b.refs -= 1;
                if b.refs == 0 {
                    let [c0, c1] = b.children();
                    self.free_branches.push(i);
                    self.release(c0);
                    self.release(c1);
                }
            }
        }
    }

    /// Branch `i` made safe to mutate and flagged stale: itself when
    /// unshared, else a copy that takes over this reference (the children
    /// gain a parent). The copy's hash is never read before it is
    /// recomputed, so it is not copied.
    fn own_branch(&mut self, i: u32) -> u32 {
        let b = &mut self.branches[i as usize];
        if b.refs == 1 {
            b.stale = true;
            return i;
        }
        b.refs -= 1;
        let copy = Branch {
            refs: 1,
            stale: true,
            ..*b
        };
        self.retain(copy.child(0));
        self.retain(copy.child(1));
        self.new_branch(copy)
    }

    fn set(&mut self, root: &mut Node, slot: Slot, node: Node) {
        match slot {
            None => *root = node,
            Some((b, dir)) => self.branches[b as usize].links[dir] = node.into(),
        }
    }

    // ---- structural updates -------------------------------------------------

    /// Follow `path` through every branch above bit `until`, flagging each
    /// stale (copy-on-write where shared), and return the slot reached and
    /// the node in it.
    fn descend_stale(&mut self, root: &mut Node, path: &Hash, until: u16) -> (Slot, Node) {
        let (mut slot, mut node) = (None, *root);
        while let Node::Branch(i) = node {
            if self.branch(i).bit >= until {
                break;
            }
            let j = self.own_branch(i);
            if j != i {
                self.set(root, slot, Node::Branch(j));
            }
            let b = self.branch(j);
            let dir = path_bit(path, b.bit);
            (slot, node) = (Some((j, dir)), b.child(dir));
        }
        (slot, node)
    }

    /// Insert or overwrite the leaf at `path`, leaving its root path stale.
    /// Returns whether the key is new.
    fn insert(&mut self, root: &mut Node, key: &str, leaf: (Hash, Hash, Hash), value: V) -> bool {
        let (path, vhash, hash) = leaf;
        // Find the leaf the path routes to (the crit-bit candidate).
        let mut node = *root;
        let existing = loop {
            match node {
                Node::Empty => break None,
                Node::Leaf(i) => break Some(self.leaf(i).path),
                Node::Branch(i) => {
                    let b = self.branch(i);
                    node = b.child(path_bit(&path, b.bit));
                }
            }
        };
        // How deep to descend: to the crit bit for a new key, to the leaf
        // itself for an update.
        let (new_key, until) = match existing {
            Some(lpath) if lpath == path => (false, 256),
            Some(lpath) => (true, first_diff_bit(&path, &lpath).expect("paths differ")),
            None => (true, 0),
        };
        let (slot, old) = self.descend_stale(root, &path, until);
        if !new_key {
            let Node::Leaf(i) = old else {
                unreachable!("the path routes to its leaf")
            };
            let l = self.leaf_mut(i);
            if l.refs == 1 {
                (l.vhash, l.hash, l.value) = (vhash, hash, value);
                return false;
            }
            // Shared with a snapshot: build the replacement from the write
            // itself instead of copying the old key and value.
            self.release(old);
        }
        let mut node = self.new_leaf(Leaf {
            path,
            refs: 1,
            key: key.to_string(),
            vhash,
            hash,
            value,
        });
        if new_key && old != Node::Empty {
            // Splice a new branch at the crit bit above `old`.
            let mut links = [old.into(); 2];
            links[path_bit(&path, until)] = node.into();
            let branch = Branch {
                links,
                refs: 1,
                bit: until,
                stale: true,
            };
            node = Node::Branch(self.new_branch(branch));
        }
        self.set(root, slot, node);
        new_key
    }

    /// Remove the leaf at `path`, leaving its root path stale. Returns
    /// whether it was present; a miss copies nothing.
    fn remove(&mut self, root: &mut Node, path: &Hash) -> bool {
        if self.find(*root, path).is_none() {
            return false;
        }
        let (mut slot, mut node) = (None, *root);
        while let Node::Branch(i) = node {
            let b = *self.branch(i);
            let dir = path_bit(path, b.bit);
            let sibling = b.child(1 - dir);
            if let Node::Leaf(_) = b.child(dir) {
                // Collapse: the sibling takes the branch's place. Releasing
                // the branch frees it (and the leaf) unless a snapshot
                // still shares it.
                self.retain(sibling);
                self.release(node);
                self.set(root, slot, sibling);
                return true;
            }
            let j = self.own_branch(i);
            if j != i {
                self.set(root, slot, Node::Branch(j));
            }
            (slot, node) = (Some((j, dir)), b.child(dir));
        }
        debug_assert!(matches!(node, Node::Leaf(_)), "the leaf is the root");
        self.release(node);
        *root = Node::Empty;
        true
    }

    /// The hash of `node`, computing every stale branch below it bottom-up
    /// into `out` — across up to `threads` threads on disjoint subtrees,
    /// all reading the slab through one shared borrow.
    fn stale_hashes(&self, node: Node, threads: usize, out: &mut Vec<(u32, Hash)>) -> Hash
    where
        V: Sync,
    {
        let Node::Branch(i) = node else {
            return self.hash(node);
        };
        let b = self.branch(i);
        if !b.stale {
            return self.branch_hashes[i as usize];
        }
        let [c0, c1] = b.children();
        let (l, r) = if threads > 1 {
            std::thread::scope(|s| {
                let h = s.spawn(|| {
                    let mut mine = Vec::new();
                    (self.stale_hashes(c0, threads / 2, &mut mine), mine)
                });
                let r = self.stale_hashes(c1, threads - threads / 2, out);
                let (l, mine) = h.join().expect("rehash thread panicked");
                out.extend(mine);
                (l, r)
            })
        } else {
            (self.stale_hashes(c0, 1, out), self.stale_hashes(c1, 1, out))
        };
        let hash = sha256_parts(&[&[0x01], &l.0, &r.0]);
        out.push((i, hash));
        hash
    }

    /// Recompute every stale branch hash under `root` once, bottom-up,
    /// across up to `threads` threads: a no-op on a fresh tree.
    fn rehash(&mut self, root: Node, threads: usize)
    where
        V: Sync,
    {
        if self.is_fresh(root) {
            return;
        }
        let _prof = ahl_telemetry::Profiler::span("smt.rehash");
        let mut out = std::mem::take(&mut self.rehashed);
        self.stale_hashes(root, threads, &mut out);
        for (i, hash) in out.drain(..) {
            let b = &mut self.branches[i as usize];
            debug_assert_eq!(b.refs, 1, "stale branches are unshared");
            b.stale = false;
            self.branch_hashes[i as usize] = hash;
        }
        self.rehashed = out;
    }

    fn build_node(&mut self, leaves: &mut [BuildEntry<V>]) -> Node {
        match leaves {
            [] => Node::Empty,
            [slot] => {
                let (path, key, vhash, value) = slot.take().expect("each slot consumed once");
                let hash = leaf_hash(&path, &vhash);
                self.new_leaf(Leaf {
                    path,
                    refs: 1,
                    key,
                    vhash,
                    hash,
                    value,
                })
            }
            _ => {
                // Sorted slice: the crit bit is the first bit where the
                // first and last path differ.
                let first = leaves
                    .first()
                    .and_then(|s| s.as_ref())
                    .expect("non-empty")
                    .0;
                let last = leaves.last().and_then(|s| s.as_ref()).expect("non-empty").0;
                let bit = first_diff_bit(&first, &last).expect("distinct paths");
                let split = leaves
                    .partition_point(|s| path_bit(&s.as_ref().expect("unconsumed").0, bit) == 0);
                let (l, r) = leaves.split_at_mut(split);
                let children = [self.build_node(l), self.build_node(r)];
                let hash = self.branch_hash(children);
                let i = self.new_branch(Branch {
                    links: children.map(Ref::from),
                    refs: 1,
                    bit,
                    stale: false,
                });
                self.branch_hashes[i as usize] = hash;
                Node::Branch(i)
            }
        }
    }

    // ---- readers --------------------------------------------------------------

    fn prove(&self, root: Node, key: &str) -> SmtProof {
        let path = key_path(key);
        let mut siblings = Vec::new();
        let mut node = root;
        loop {
            match node {
                Node::Empty => {
                    return SmtProof {
                        leaf_path: None,
                        leaf_vhash: None,
                        siblings,
                    };
                }
                Node::Leaf(i) => {
                    let l = self.leaf(i);
                    return SmtProof {
                        leaf_path: Some(l.path),
                        leaf_vhash: Some(l.vhash),
                        siblings,
                    };
                }
                Node::Branch(i) => {
                    let b = self.branch(i);
                    let dir = path_bit(&path, b.bit);
                    siblings.push((b.bit, self.hash(b.child(1 - dir))));
                    node = b.child(dir);
                }
            }
        }
    }

    fn chunk_entries(&self, root: Node, chunk: u32, bits: u8) -> Vec<(&str, &V)> {
        let mut out = Vec::new();
        let mut node = root;
        loop {
            match node {
                Node::Empty => return out,
                Node::Leaf(i) => {
                    let l = self.leaf(i);
                    if chunk_of(&l.path, bits) == chunk {
                        out.push((l.key.as_str(), &l.value));
                    }
                    return out;
                }
                Node::Branch(i) => {
                    let b = self.branch(i);
                    let rep = self.representative(node).expect("branches are non-empty");
                    if b.bit as u32 >= bits as u32 {
                        if chunk_of(&rep, bits) == chunk {
                            self.collect_entries(node, &mut out);
                        }
                        return out;
                    }
                    // A bit skipped by path compression may already diverge
                    // from the chunk prefix.
                    if matches!(first_chunk_diff(&rep, chunk, bits), Some(d) if d < b.bit) {
                        return out;
                    }
                    node = b.child(chunk_bit(chunk, bits, b.bit));
                }
            }
        }
    }

    fn collect_entries<'a>(&'a self, node: Node, out: &mut Vec<(&'a str, &'a V)>) {
        match node {
            Node::Empty => {}
            Node::Leaf(i) => {
                let l = self.leaf(i);
                out.push((l.key.as_str(), &l.value));
            }
            Node::Branch(i) => {
                let [c0, c1] = self.branch(i).children();
                self.collect_entries(c0, out);
                self.collect_entries(c1, out);
            }
        }
    }

    fn chunk_proof(&self, root: Node, chunk: u32, bits: u8) -> Vec<Hash> {
        let mut sibs = vec![Hash::ZERO; bits as usize];
        let mut node = root;
        loop {
            match node {
                Node::Empty => return sibs,
                Node::Leaf(i) => {
                    let l = self.leaf(i);
                    if chunk_of(&l.path, bits) != chunk {
                        let d =
                            first_chunk_diff(&l.path, chunk, bits).expect("differs within prefix");
                        sibs[d as usize] = l.hash;
                    }
                    return sibs;
                }
                Node::Branch(i) => {
                    let b = self.branch(i);
                    let rep = self.representative(node).expect("branches are non-empty");
                    if b.bit as u32 >= bits as u32 {
                        if chunk_of(&rep, bits) != chunk {
                            let d =
                                first_chunk_diff(&rep, chunk, bits).expect("differs within prefix");
                            sibs[d as usize] = self.hash(node);
                        }
                        return sibs;
                    }
                    // A skipped bit may already diverge from the chunk.
                    if let Some(d) = first_chunk_diff(&rep, chunk, bits) {
                        if d < b.bit {
                            sibs[d as usize] = self.hash(node);
                            return sibs;
                        }
                    }
                    let dir = chunk_bit(chunk, bits, b.bit);
                    sibs[b.bit as usize] = self.hash(b.child(1 - dir));
                    node = b.child(dir);
                }
            }
        }
    }

    fn chunk_root(&self, root: Node, chunk: u32, bits: u8) -> Hash {
        let mut node = root;
        loop {
            match node {
                Node::Empty => return Hash::ZERO,
                Node::Leaf(i) => {
                    let l = self.leaf(i);
                    return if chunk_of(&l.path, bits) == chunk {
                        l.hash
                    } else {
                        Hash::ZERO
                    };
                }
                Node::Branch(i) => {
                    let b = self.branch(i);
                    let rep = self.representative(node).expect("branches are non-empty");
                    if b.bit as u32 >= bits as u32 {
                        return if chunk_of(&rep, bits) == chunk {
                            self.hash(node)
                        } else {
                            Hash::ZERO
                        };
                    }
                    if matches!(first_chunk_diff(&rep, chunk, bits), Some(d) if d < b.bit) {
                        return Hash::ZERO;
                    }
                    node = b.child(chunk_bit(chunk, bits, b.bit));
                }
            }
        }
    }

    fn diff_chunks(&self, old: Node, new: &Self, new_root: Node, bits: u8) -> Vec<u32> {
        if self.hash(old) == new.hash(new_root) {
            return Vec::new();
        }
        (0..1u32 << bits)
            .filter(|&c| self.chunk_root(old, c, bits) != new.chunk_root(new_root, c, bits))
            .collect()
    }

    fn audit_node(&self, node: Node, threads: usize) -> bool
    where
        V: StateValue,
    {
        match node {
            Node::Empty => true,
            Node::Leaf(i) => {
                let l = self.leaf(i);
                l.vhash == l.value.leaf_digest() && l.hash == leaf_hash(&l.path, &l.vhash)
            }
            Node::Branch(i) => {
                let [c0, c1] = self.branch(i).children();
                let children_ok = if threads > 1 {
                    std::thread::scope(|s| {
                        let h = s.spawn(|| self.audit_node(c0, threads / 2));
                        let right = self.audit_node(c1, threads - threads / 2);
                        h.join().expect("audit thread panicked") && right
                    })
                } else {
                    self.audit_node(c0, 1) && self.audit_node(c1, 1)
                };
                children_ok
                    && c0 != Node::Empty
                    && c1 != Node::Empty
                    && self.hash(node) == self.branch_hash([c0, c1])
            }
        }
    }
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
    slab: Arc<RwLock<Slab<V>>>,
    root: Node,
    len: usize,
}

impl<V> Default for SparseMerkleTree<V> {
    fn default() -> Self {
        SparseMerkleTree {
            slab: Default::default(),
            root: Node::Empty,
            len: 0,
        }
    }
}

impl<V: StateValue> Clone for SparseMerkleTree<V> {
    /// O(1) on a fresh tree: bumps the root's count and shares the whole
    /// lineage. The clone is an immutable snapshot — subsequent mutations
    /// of either tree copy-on-write the affected root path and leave the
    /// other untouched. A stale tree is re-hashed first, so the snapshot
    /// commits to its content and shares no stale branch.
    fn clone(&self) -> Self {
        let mut slab = self.write();
        slab.rehash(self.root, 1);
        slab.retain(self.root);
        SparseMerkleTree {
            slab: Arc::clone(&self.slab),
            root: self.root,
            len: self.len,
        }
    }
}

impl<V> Drop for SparseMerkleTree<V> {
    /// Releases the root, freeing the nodes no other handle shares. Never
    /// panics: on a slab poisoned by a panicked writer the counts cannot be
    /// trusted, so this handle's slots are leaked instead.
    fn drop(&mut self) {
        if let Ok(mut slab) = self.slab.write() {
            slab.release(self.root);
        }
    }
}

impl<V> std::fmt::Debug for SparseMerkleTree<V> {
    /// Prints the root only when it is fresh: formatting hashes nothing.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("SparseMerkleTree");
        d.field("len", &self.len);
        let slab = self.read();
        if slab.is_fresh(self.root) {
            d.field("root", &slab.hash(self.root));
        } else {
            d.field("root", &"stale");
        }
        d.finish()
    }
}

type BuildEntry<V> = Option<(Hash, String, Hash, V)>;

/// A read view of a [`SparseMerkleTree`]: it holds the lineage's slab
/// read-locked for its lifetime, which is what lets it lend out keys and
/// values. Drop it before mutating, cloning or dropping any tree of the
/// same lineage on this thread, or reading a hash from a stale one.
pub struct SmtView<'a, V> {
    slab: RwLockReadGuard<'a, Slab<V>>,
    root: Node,
}

impl<V> SmtView<'_, V> {
    /// The value stored for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&V> {
        self.slab
            .find(self.root, &key_path(key))
            .map(|i| &self.slab.leaf(i).value)
    }

    /// Iterate all `(key, value)` pairs in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        let slab = &*self.slab;
        let mut stack = vec![self.root];
        std::iter::from_fn(move || loop {
            match stack.pop()? {
                Node::Empty => continue,
                Node::Leaf(i) => {
                    let l = slab.leaf(i);
                    return Some((l.key.as_str(), &l.value));
                }
                Node::Branch(i) => {
                    let [c0, c1] = slab.branch(i).children();
                    stack.push(c1);
                    stack.push(c0);
                }
            }
        })
    }

    /// The keys whose paths fall in chunk `chunk` of `1 << bits`, in path
    /// order (the unit of state-sync transfer).
    pub fn chunk_keys(&self, chunk: u32, bits: u8) -> Vec<&str> {
        self.chunk_entries(chunk, bits)
            .into_iter()
            .map(|(k, _)| k)
            .collect()
    }

    /// The `(key, value)` pairs of chunk `chunk` of `1 << bits`, in path
    /// order — the complete payload of one state-sync chunk, served from
    /// this tree (or any snapshot of it) alone.
    pub fn chunk_entries(&self, chunk: u32, bits: u8) -> Vec<(&str, &V)> {
        self.slab.chunk_entries(self.root, chunk, bits)
    }
}

impl<V> SparseMerkleTree<V> {
    /// An empty tree (root = [`Hash::ZERO`]).
    pub fn new() -> Self {
        Self::default()
    }

    fn read(&self) -> RwLockReadGuard<'_, Slab<V>> {
        self.slab.read().expect(POISONED)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Slab<V>> {
        self.slab.write().expect(POISONED)
    }

    /// A read view: point lookups, iteration and chunk listings that lend
    /// out keys and values. It holds the lineage's read lock until dropped.
    pub fn view(&self) -> SmtView<'_, V> {
        SmtView {
            slab: self.read(),
            root: self.root,
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether every cached node hash is current, i.e. no write since the
    /// last hash read left a branch stale.
    pub fn is_fresh(&self) -> bool {
        self.read().is_fresh(self.root)
    }

    /// The value hash committed for `key`, if present.
    pub fn get_hash(&self, key: &str) -> Option<Hash> {
        let slab = self.read();
        slab.find(self.root, &key_path(key))
            .map(|i| slab.leaf(i).vhash)
    }
}

impl<V: StateValue> SparseMerkleTree<V> {
    /// Bulk-build from `(key, value)` pairs (one hash per node instead of
    /// O(log n) per insert — use for genesis and state-sync install).
    /// Later duplicates of a key win. The tree starts a new lineage.
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
        let mut slab = Slab::default();
        let root = slab.build_node(&mut slots[..]);
        SparseMerkleTree {
            slab: Arc::new(RwLock::new(slab)),
            root,
            len,
        }
    }

    /// Insert or update `key` with `value`: one leaf hash, with the
    /// branches on the key's root path left stale until the next hash read.
    /// Copies only the root-path nodes shared with snapshots.
    pub fn insert(&mut self, key: &str, value: V) {
        let _prof = ahl_telemetry::Profiler::span("smt.update");
        let leaf = leaf_digests(key, &value);
        let mut slab = self.slab.write().expect(POISONED);
        self.len += slab.insert(&mut self.root, key, leaf, value) as usize;
    }

    /// Remove `key`. Returns whether it was present. Leaves the root path
    /// stale and copies on write like [`SparseMerkleTree::insert`].
    pub fn remove(&mut self, key: &str) -> bool {
        let _prof = ahl_telemetry::Profiler::span("smt.update");
        let path = key_path(key);
        let mut slab = self.slab.write().expect(POISONED);
        let hit = slab.remove(&mut self.root, &path);
        self.len -= hit as usize;
        hit
    }

    /// The slab read-locked with every hash under this root current: the
    /// read lock alone when fresh, else the write lock first to re-hash.
    /// Only writes through `&mut self` make a root stale, so it stays fresh
    /// between the two locks.
    fn read_fresh(&self) -> RwLockReadGuard<'_, Slab<V>> {
        let slab = self.read();
        if slab.is_fresh(self.root) {
            return slab;
        }
        drop(slab);
        self.write().rehash(self.root, 1);
        self.read()
    }

    /// The root hash ([`Hash::ZERO`] when empty).
    pub fn root_hash(&self) -> Hash {
        self.read_fresh().hash(self.root)
    }

    /// Produce a proof for `key`: an inclusion proof when the key is live,
    /// otherwise an exclusion proof (verify with [`verify_proof`]).
    pub fn prove(&self, key: &str) -> SmtProof {
        self.read_fresh().prove(self.root, key)
    }

    /// Sibling subtree hashes for chunk `chunk` of `1 << bits`: entry `d`
    /// is the hash of the subtree holding every key that shares the chunk's
    /// top `d` bits and differs at bit `d` (ZERO when no such key exists).
    /// Together with the chunk's own leaves this reassembles the root — see
    /// [`verify_chunk`].
    pub fn chunk_proof(&self, chunk: u32, bits: u8) -> Vec<Hash> {
        self.read_fresh().chunk_proof(self.root, chunk, bits)
    }

    /// Hash of the subtree holding exactly the leaves of chunk `chunk` of
    /// `1 << bits` (the value [`verify_chunk`] reassembles from the served
    /// entries). ZERO for an empty chunk. Two trees hold identical content
    /// in a chunk iff their chunk roots match — the basis of
    /// [`SparseMerkleTree::diff_chunks`].
    pub fn chunk_root(&self, chunk: u32, bits: u8) -> Hash {
        self.read_fresh().chunk_root(self.root, chunk, bits)
    }

    /// Walk the node graph bottom-up: children are visited (post-order)
    /// before their parent, and any subtree whose root hash `prune`
    /// accepts is skipped entirely. The lineage stays read-locked for the
    /// whole walk.
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
        enum Step {
            Enter(Node),
            Emit(u32),
        }
        let slab = self.read_fresh();
        let mut stack = vec![Step::Enter(self.root)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(Node::Empty) => {}
                Step::Enter(Node::Leaf(i)) => {
                    let l = slab.leaf(i);
                    if !prune(&l.hash) {
                        visit(NodeView::Leaf {
                            hash: l.hash,
                            key: &l.key,
                            value: &l.value,
                        });
                    }
                }
                Step::Enter(Node::Branch(i)) => {
                    if !prune(&slab.branch_hashes[i as usize]) {
                        let [c0, c1] = slab.branch(i).children();
                        stack.push(Step::Emit(i));
                        stack.push(Step::Enter(c1));
                        stack.push(Step::Enter(c0));
                    }
                }
                Step::Emit(i) => {
                    let b = slab.branch(i);
                    visit(NodeView::Branch {
                        hash: slab.branch_hashes[i as usize],
                        bit: b.bit,
                        left: slab.hash(b.child(0)),
                        right: slab.hash(b.child(1)),
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
        let old = self.read_fresh();
        if Arc::ptr_eq(&self.slab, &newer.slab) {
            // One lineage: one read lock serves both roots, once `newer`
            // is fresh too.
            drop(old);
            let slab = newer.read_fresh();
            return slab.diff_chunks(self.root, &slab, newer.root, bits);
        }
        old.diff_chunks(self.root, &newer.read_fresh(), newer.root, bits)
    }

    /// Recompute every node hash bottom-up from leaf content — value
    /// digests, leaf hashes, branch hashes — across up to `workers`
    /// threads (disjoint subtrees audit concurrently), and compare against
    /// the cached hashes. Returns `true` when the entire tree is
    /// consistent. Checkpoint integrity check: a corrupted cache or a
    /// miscomputed parallel batch merge cannot certify a bad root.
    pub fn rehash_audit(&self, workers: usize) -> bool {
        self.read_fresh().audit_node(self.root, workers.max(1))
    }

    /// Overwrite a stored value *without* refreshing the cached digests —
    /// the only way to manufacture the cache corruption `rehash_audit`
    /// exists to detect. Test-only by construction.
    #[cfg(test)]
    pub(crate) fn corrupt_value_for_test(&mut self, key: &str, value: V) -> bool {
        let mut slab = self.write();
        let Some(i) = slab.find(self.root, &key_path(key)) else {
            return false;
        };
        let l = slab.leaf_mut(i);
        assert_eq!(l.refs, 1, "corrupting a shared leaf");
        l.value = value;
        true
    }

    /// Apply a batch of changes (`Some(value)` = insert/update, `None` =
    /// remove), equivalent to calling [`SparseMerkleTree::insert`] /
    /// [`SparseMerkleTree::remove`] in order — later changes to the same
    /// key win. With `workers > 1`, threads compute the writes' leaf
    /// digests, one ordered pass splices every change into the tree with
    /// its root path left stale, and threads then hash disjoint stale
    /// subtrees over a shared read of the slab — each shared ancestor once
    /// per batch instead of once per key. The root is bit-identical to the
    /// sequential loop.
    pub fn batch_apply(&mut self, changes: Vec<(String, Option<V>)>, workers: usize) {
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
        let per_thread = changes.len().div_ceil(workers);
        let digests: Vec<Option<(Hash, Hash, Hash)>> = std::thread::scope(|s| {
            let handles: Vec<_> = changes
                .chunks(per_thread)
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|(k, v)| v.as_ref().map(|v| leaf_digests(k, v)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("digest thread panicked"))
                .collect()
        });
        let mut slab = self.slab.write().expect(POISONED);
        for ((key, value), leaf) in changes.into_iter().zip(digests) {
            match (value, leaf) {
                (Some(v), Some(leaf)) => {
                    self.len += slab.insert(&mut self.root, &key, leaf, v) as usize;
                }
                _ => self.len -= slab.remove(&mut self.root, &key_path(&key)) as usize,
            }
        }
        slab.rehash(self.root, workers);
    }
}

/// `(path, value hash, leaf hash)` of a write.
fn leaf_digests<V: StateValue>(key: &str, value: &V) -> (Hash, Hash, Hash) {
    let path = key_path(key);
    let vhash = value.leaf_digest();
    (path, vhash, leaf_hash(&path, &vhash))
}

/// Below this many changes, [`SparseMerkleTree::batch_apply`] runs the
/// plain insert/remove loop: the thread setup costs more than it saves on
/// a handful of keys.
const MIN_PARALLEL_BATCH: usize = 32;

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
            if !proof
                .siblings
                .iter()
                .all(|(bit, _)| *bit < 256 && path_bit(&path, *bit) == path_bit(&lpath, *bit))
            {
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
    if entries.windows(2).any(|w| w[0].0 .0 >= w[1].0 .0) {
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
            debug_assert!(
                depth < 256,
                "distinct sorted paths diverge before depth 256"
            );
            let split = leaves.partition_point(|(p, _)| path_bit(p, depth) == 0);
            let left = subtree_from_leaves(&leaves[..split], depth + 1);
            let right = subtree_from_leaves(&leaves[split..], depth + 1);
            combine(&left, &right)
        }
    }
}

/// Slab accounting under random interleavings: several handles of one
/// lineage (plus fresh lineages from `build`) are written, cloned and
/// dropped in random order. After every step each handle must read exactly
/// like a tree bulk-built from its model map, and every slab must hold
/// exactly the nodes its live handles reach, each counted once per
/// reference. Once the last handle drops, no slot may stay live.
#[cfg(test)]
mod accounting {
    use std::collections::{BTreeMap, HashMap};

    use super::*;

    const KEYS: u64 = 24;
    const MAX_HANDLES: usize = 4;

    type Model = BTreeMap<String, Hash>;

    /// One lineage's slab, as every handle of it holds it.
    type SharedSlab = Arc<RwLock<Slab<Hash>>>;

    fn vh(i: u64) -> Hash {
        sha256_parts(&[&i.to_be_bytes()])
    }

    fn key(k: u64) -> String {
        format!("k{}", k % KEYS)
    }

    impl<V> Slab<V> {
        /// Slots currently in use, read off the two columns and free lists.
        fn live(&self) -> usize {
            self.branches.len() - self.free_branches.len() + self.leaves.len()
                - self.free_leaves.len()
        }

        /// Add one reference per edge and per root below `node` to `refs`,
        /// walking each node's children only on its first visit.
        fn count_refs(&self, node: Node, refs: &mut HashMap<Node, u32>) {
            if node == Node::Empty {
                return;
            }
            let seen = refs.contains_key(&node);
            *refs.entry(node).or_default() += 1;
            if let (false, Node::Branch(i)) = (seen, node) {
                let [c0, c1] = self.branch(i).children();
                self.count_refs(c0, refs);
                self.count_refs(c1, refs);
            }
        }

        fn count_of(&self, node: Node) -> u32 {
            match node {
                Node::Empty => 0,
                Node::Leaf(i) => self.leaf(i).refs,
                Node::Branch(i) => self.branch(i).refs,
            }
        }
    }

    /// A batch of `n` changes seeded by `(k, v)`: mostly writes, every fifth a
    /// removal, with repeated keys so later changes must win.
    fn batch(k: u64, v: u64, n: u64) -> Vec<(String, Option<Hash>)> {
        (0..n)
            .map(|j| (key(k + j * 5), (j % 5 != 4).then(|| vh(v + j))))
            .collect()
    }

    fn apply_model(model: &mut Model, changes: &[(String, Option<Hash>)]) {
        for (k, v) in changes {
            match v {
                Some(v) => model.insert(k.clone(), *v),
                None => model.remove(k),
            };
        }
    }

    fn check_handle(t: &SparseMerkleTree, model: &Model, chunk: u32) {
        let want = SparseMerkleTree::build(model.iter().map(|(k, v)| (k.clone(), *v)));
        assert_eq!(t.root_hash(), want.root_hash());
        assert_eq!(t.len(), model.len());
        let view = t.view();
        for k in 0..KEYS {
            assert_eq!(view.get(&key(k)), model.get(&key(k)), "read {}", key(k));
        }
        assert_eq!(
            view.chunk_entries(chunk, 2),
            want.view().chunk_entries(chunk, 2)
        );
        drop(view);
        assert_eq!(t.chunk_proof(chunk, 2), want.chunk_proof(chunk, 2));
    }

    /// Every slab holds exactly the nodes its handles reach, each with a count
    /// equal to its references.
    fn check_slabs(handles: &[(SparseMerkleTree, Model)]) {
        let mut lineages: Vec<(&SharedSlab, Vec<Node>)> = Vec::new();
        for (t, _) in handles {
            match lineages.iter_mut().find(|(s, _)| Arc::ptr_eq(s, &t.slab)) {
                Some((_, roots)) => roots.push(t.root),
                None => lineages.push((&t.slab, vec![t.root])),
            }
        }
        for (slab, roots) in lineages {
            let slab = slab.read().expect("unpoisoned");
            let mut refs = HashMap::new();
            for root in roots {
                slab.count_refs(root, &mut refs);
            }
            assert_eq!(slab.live(), refs.len(), "live slots = reachable nodes");
            for (node, n) in refs {
                assert_eq!(slab.count_of(node), n, "count of {node:?}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn slab_counts_match_reachable_nodes(
            ops in proptest::collection::vec((0u8..9, 0usize..MAX_HANDLES, 0u64..KEYS, 0u64..1000), 1..60)
        ) {
            let mut handles: Vec<(SparseMerkleTree, Model)> = vec![Default::default()];
            let mut slabs: Vec<SharedSlab> = vec![Arc::clone(&handles[0].0.slab)];
            for (step, (op, h, k, v)) in ops.into_iter().enumerate() {
                let h = h % handles.len();
                match op {
                    5 | 6 if handles.len() < MAX_HANDLES => {
                        let fork = (handles[h].0.clone(), handles[h].1.clone());
                        handles.push(fork);
                    }
                    7 if handles.len() > 1 => {
                        handles.swap_remove(h);
                    }
                    5..=7 => {}
                    _ => {
                        let (t, model) = &mut handles[h];
                        match op {
                            0 => {
                                t.insert(&key(k), vh(v));
                                model.insert(key(k), vh(v));
                            }
                            1 => {
                                t.insert(&key(k), vh(v));
                                t.insert(&key(k + 7), vh(v + 1));
                                t.remove(&key(k + 3));
                                apply_model(model, &[
                                    (key(k), Some(vh(v))),
                                    (key(k + 7), Some(vh(v + 1))),
                                    (key(k + 3), None),
                                ]);
                            }
                            2 => {
                                let hit = t.remove(&key(k));
                                proptest::prop_assert_eq!(hit, model.remove(&key(k)).is_some());
                            }
                            3 | 4 => {
                                // 40 changes clear the parallel threshold; 6 do not.
                                let (workers, n) = if op == 3 { (1, 6) } else { (2, 40) };
                                let changes = batch(k, v, n);
                                apply_model(model, &changes);
                                t.batch_apply(changes, workers);
                            }
                            _ => {
                                *t = SparseMerkleTree::build(model.iter().map(|(k, v)| (k.clone(), *v)));
                                slabs.push(Arc::clone(&t.slab));
                            }
                        }
                    }
                }
                // Counts first, while writes may still have left handles stale.
                check_slabs(&handles);
                for (t, model) in &handles {
                    check_handle(t, model, step as u32 % 4);
                }
            }
            drop(handles);
            for slab in slabs {
                let slab = slab.read().expect("unpoisoned");
                proptest::prop_assert_eq!(slab.live(), 0);
                proptest::prop_assert!(slab.branches.iter().all(|b| b.refs == 0));
                proptest::prop_assert!(slab.leaves.iter().all(Option::is_none));
            }
        }
    }

    /// A writer that panics poisons the slab; every handle of that lineage
    /// then drops without panicking, leaking its slots instead.
    #[test]
    fn drop_after_a_poisoned_lock_does_not_panic() {
        let t = SparseMerkleTree::build((0..64u64).map(|i| (format!("acc{i}"), vh(i))));
        let snap = t.clone();
        let slab = Arc::clone(&t.slab);
        let poisoner = std::thread::spawn(move || {
            let _guard = slab.write().expect("first writer");
            panic!("writer dies holding the slab");
        });
        assert!(poisoner.join().is_err());
        assert!(t.slab.is_poisoned());
        drop(snap);
        drop(t);
    }

    /// Fork-and-retention cell: one snapshot stays pinned across several
    /// checkpoint intervals while a two-deep serving window retires its
    /// siblings behind it. The pinned snapshot serves byte-identical roots,
    /// chunks and chunk proofs throughout, and the live tree's writes take the
    /// slots each retirement freed before the slab grows.
    #[test]
    fn pinned_snapshot_survives_churn_while_siblings_retire() {
        type Served = (Hash, Vec<Vec<(String, Hash)>>, Vec<Vec<Hash>>);
        let serve = |t: &SparseMerkleTree| -> Served {
            let view = t.view();
            let entries = (0..4)
                .map(|c| {
                    view.chunk_entries(c, 2)
                        .into_iter()
                        .map(|(k, v)| (k.to_string(), *v))
                        .collect()
                })
                .collect();
            drop(view);
            (
                t.root_hash(),
                entries,
                (0..4).map(|c| t.chunk_proof(c, 2)).collect(),
            )
        };
        let mut t = SparseMerkleTree::build((0..512u64).map(|i| (format!("acc{i}"), vh(i))));
        let pinned = t.clone();
        let served = serve(&pinned);
        let mut window: std::collections::VecDeque<SparseMerkleTree> = Default::default();
        let columns = |t: &SparseMerkleTree| {
            let slab = t.read();
            (
                slab.branches.len() + slab.leaves.len(),
                slab.free_branches.len() + slab.free_leaves.len(),
            )
        };
        let mut reused = 0;
        for interval in 0..5u64 {
            let (len_before, free_before) = columns(&t);
            for j in 0..64u64 {
                let k = (interval * 131 + j * 17) % 512;
                t.insert(&format!("acc{k}"), vh(1_000 * (interval + 1) + j));
            }
            let (len_after, free_after) = columns(&t);
            // Writes free nothing, so the free list only shrinks, and the slab
            // grows only once it is empty.
            assert!(free_after <= free_before);
            assert!(
                len_after == len_before || free_after == 0,
                "grew with free slots left"
            );
            reused += free_before - free_after;
            window.push_back(t.clone());
            if window.len() > 2 {
                window.pop_front();
            }
            assert_eq!(
                serve(&pinned),
                served,
                "pinned snapshot moved in interval {interval}"
            );
        }
        assert!(
            reused > 0,
            "retired siblings' slots were taken by later writes"
        );
        let handles: Vec<(SparseMerkleTree, Model)> = std::iter::once(t)
            .chain(std::iter::once(pinned))
            .chain(window)
            .map(|t| (t, Model::new()))
            .collect();
        check_slabs(&handles);
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

    /// A branch stores its children as tagged `u32`s: every node at the
    /// edges of the index range reads back as itself, and no two collide.
    #[test]
    fn child_refs_round_trip_at_their_edges() {
        let last = (SLOTS - 1) as u32;
        let edges = [
            Node::Empty,
            Node::Leaf(0),
            Node::Branch(0),
            Node::Leaf(last),
            Node::Branch(last),
        ];
        for (k, node) in edges.into_iter().enumerate() {
            assert_eq!(Node::from(Ref::from(node)), node);
            for other in &edges[..k] {
                assert_ne!(Ref::from(node), Ref::from(*other), "{node:?} vs {other:?}");
            }
        }
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
        assert_eq!(t.view().get("a"), Some(&vh(1)));
        let r1 = t.root_hash();
        t.insert("a", vh(2));
        assert_eq!(t.view().get("a"), Some(&vh(2)));
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
        assert_eq!(bulk.view().get("k"), Some(&vh(2)));
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
            assert!(
                verify_proof(&t.root_hash(), &key, Some(&vh(i)), &p),
                "key {i}"
            );
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
                seen += t.view().chunk_keys(chunk, bits).len();
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
                    .view()
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
            .find(|c| !t.view().chunk_keys(*c, bits).is_empty())
            .expect("some chunk non-empty");
        let view = t.view();
        let keys = view.chunk_keys(chunk, bits);
        let mut entries: Vec<(Hash, Hash)> = keys
            .iter()
            .map(|k| (key_path(k), *view.get(k).expect("live")))
            .collect();
        let n_keys = keys.len();
        drop(view);
        let proof = t.chunk_proof(chunk, bits);
        // Alter one value hash.
        entries[0].1 .0[0] ^= 1;
        assert!(!verify_chunk(&t.root_hash(), chunk, bits, &entries, &proof));
        entries[0].1 .0[0] ^= 1;
        // Drop one leaf.
        let dropped = entries.split_off(entries.len() - 1);
        let ok_short = verify_chunk(&t.root_hash(), chunk, bits, &entries, &proof);
        assert!(!ok_short || n_keys == 1);
        entries.extend(dropped);
        // Present the chunk under the wrong index.
        assert!(!verify_chunk(
            &t.root_hash(),
            chunk ^ 1,
            bits,
            &entries,
            &proof
        ));
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
        let mut keys: Vec<String> = t.view().iter().map(|(k, _)| k.to_string()).collect();
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
        assert!(verify_proof(
            &root,
            "key-7",
            Some(&vh(7)),
            &snap.prove("key-7")
        ));
        assert_eq!(snap.view().get("key-3"), Some(&vh(3)));
        // Chunk proofs of the snapshot still verify against the old root.
        let bits = 2u8;
        for chunk in 0..4u32 {
            let entries: Vec<(Hash, Hash)> = snap
                .view()
                .chunk_entries(chunk, bits)
                .iter()
                .map(|(k, v)| (key_path(k), **v))
                .collect();
            assert!(verify_chunk(
                &root,
                chunk,
                bits,
                &entries,
                &snap.chunk_proof(chunk, bits)
            ));
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
            NodeView::Branch {
                hash, left, right, ..
            } => {
                branches += 1;
                assert_eq!(hash, sha256_parts(&[&[0x01], &left.0, &right.0]));
                assert!(
                    seen.contains(&left) && seen.contains(&right),
                    "children first"
                );
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
                    .view()
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
            let stale: Vec<String> = merged
                .view()
                .chunk_keys(c, bits)
                .iter()
                .map(|k| k.to_string())
                .collect();
            for k in stale {
                merged.remove(&k);
            }
            let fresh: Vec<(String, Hash)> = new
                .view()
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
        let mut bad: SparseMerkleTree<Bad> =
            SparseMerkleTree::build((0..50u64).map(|i| (format!("key-{i}"), Bad(vh(i)))));
        assert!(bad.rehash_audit(2));
        assert!(bad.corrupt_value_for_test("key-7", Bad(vh(999))));
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
                    .view()
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
