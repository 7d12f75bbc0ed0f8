//! The atomically swapped checkpoint manifest.
//!
//! A node directory's `MANIFEST` file is the single pointer that makes a
//! checkpoint *durable*: it names the certified sequence, the state root
//! (whose pages must already be on disk, synced, before the manifest may
//! reference them), and an opaque metadata blob (the owner serializes its
//! checkpoint certificate, 2PC sidecar, and the hashes of the
//! executed-request segments it stored in the page store there).
//!
//! Publication is write-temp → fsync → rename: the rename is atomic on
//! POSIX, so a crash at any point leaves either the old manifest or the
//! new one — never a mix. A CRC over the body rejects partial or damaged
//! files; a manifest that fails validation is treated as absent (the node
//! cold-starts and recovers via state sync — recovery trades completeness
//! for correctness, never serving unverified state).

use std::io::Write;
use std::path::Path;

use ahl_crypto::Hash;

use crate::codec::{crc32, crc32_parts, Reader, Writer};
use crate::kill::KillSwitch;

const MAGIC: &[u8; 8] = b"AHLMANI1";

/// The durable checkpoint pointer (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Certified sequence number of the checkpoint.
    pub seq: u64,
    /// State root; every page reachable from it must be in the page store.
    pub root: Hash,
    /// Owner-defined metadata (certificate, sidecar, executed set).
    pub meta: Vec<u8>,
}

fn manifest_path(dir: &Path) -> std::path::PathBuf {
    dir.join("MANIFEST")
}

fn tmp_path(dir: &Path) -> std::path::PathBuf {
    dir.join("MANIFEST.tmp")
}

/// Publish `m` atomically. Three kill points: the temp-file write (torn
/// temp is ignored by readers), the rename (the old manifest stays live —
/// the *stale manifest* recovery case), and the directory fsync after the
/// rename (the rename itself can be lost to a power cut, resurrecting the
/// old manifest *after* the caller saw success-so-far — which is exactly
/// why WAL compaction must wait for this function to return).
pub fn write_manifest(dir: &Path, m: &Manifest, kill: &KillSwitch) -> std::io::Result<()> {
    // File = MAGIC, CRC of the body, body; body = seq, root, length-prefixed
    // metadata. The metadata goes from the caller's buffer to the file
    // once: the CRC runs over the two parts and each is written as it
    // lies. (A replica's metadata is a few KB — its executed-id window is
    // named by segment hashes, the ids live in the page store.)
    let mut body_head = Writer::new();
    body_head.u64(m.seq);
    body_head.hash(&m.root);
    body_head.u32(m.meta.len() as u32);
    let body_head = body_head.into_bytes();
    let crc = crc32_parts(&[&body_head, &m.meta]).to_be_bytes();
    let head = [&MAGIC[..], &crc, &body_head].concat();

    let tmp = tmp_path(dir);
    {
        let mut f = std::fs::File::create(&tmp)?;
        if let Err(e) = kill.check() {
            // Torn write: the first half of the file's bytes.
            let half = (head.len() + m.meta.len()) / 2;
            let _ = f.write_all(&head[..half.min(head.len())]);
            let _ = f.write_all(&m.meta[..half.saturating_sub(head.len())]);
            return Err(e);
        }
        f.write_all(&head)?;
        f.write_all(&m.meta)?;
        f.sync_data()?;
    }
    // Crash between temp write and rename: the previous manifest remains
    // the durable truth and recovery replays a longer WAL tail.
    kill.check()?;
    let dst = manifest_path(dir);
    // Only when a kill is pending: capture the pre-swap bytes so the
    // post-rename kill point below can emulate the rename being lost to a
    // power cut. A production switch is never armed and reads nothing.
    let prev = kill.is_armed().then(|| std::fs::read(&dst).ok());
    std::fs::rename(&tmp, &dst)?;
    // The rename is atomic, but only the directory fsync makes it survive
    // power loss — without it a "published" checkpoint could vanish while
    // the WAL segments it authorized compacting are already gone. This is
    // the kill point that pins the cert-then-compact ordering: the caller
    // must treat the checkpoint as durable ONLY after this function
    // returns, because a crash here rolls the directory entry back to the
    // old manifest. Compacting the WAL before this point would drop
    // records the resurrected old manifest still needs.
    if let Err(e) = kill.check() {
        match prev {
            Some(Some(bytes)) => {
                let _ = std::fs::write(&dst, &bytes);
            }
            Some(None) => {
                let _ = std::fs::remove_file(&dst);
            }
            // Armed by another thread after the capture decision: the
            // rename stands — the other legal outcome of this crash.
            None => {}
        }
        return Err(e);
    }
    crate::codec::fsync_dir(dir)?;
    Ok(())
}

/// Read and validate the manifest; `None` when absent, torn, or corrupt.
pub fn read_manifest(dir: &Path) -> Option<Manifest> {
    let bytes = std::fs::read(manifest_path(dir)).ok()?;
    if bytes.len() < 12 || &bytes[..8] != MAGIC {
        return None;
    }
    let crc = u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let body = &bytes[12..];
    if crc32(body) != crc {
        return None;
    }
    let mut r = Reader::new(body);
    let seq = r.u64()?;
    let root = r.hash()?;
    let meta = r.bytes()?.to_vec();
    r.is_done().then_some(Manifest { seq, root, meta })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use ahl_crypto::sha256;

    fn sample(seq: u64) -> Manifest {
        Manifest { seq, root: sha256(&seq.to_be_bytes()[..]), meta: vec![1, 2, 3, seq as u8] }
    }

    #[test]
    fn round_trip_and_overwrite() {
        let dir = TempDir::new("manifest");
        let kill = KillSwitch::new();
        assert_eq!(read_manifest(dir.path()), None);
        write_manifest(dir.path(), &sample(5), &kill).expect("write");
        assert_eq!(read_manifest(dir.path()), Some(sample(5)));
        write_manifest(dir.path(), &sample(9), &kill).expect("overwrite");
        assert_eq!(read_manifest(dir.path()), Some(sample(9)));
    }

    #[test]
    fn crash_during_temp_write_keeps_old_manifest() {
        let dir = TempDir::new("manifest-torn");
        let kill = KillSwitch::new();
        write_manifest(dir.path(), &sample(5), &kill).expect("write");
        kill.arm(0);
        write_manifest(dir.path(), &sample(9), &kill).expect_err("kill at temp write");
        assert_eq!(read_manifest(dir.path()), Some(sample(5)), "old manifest survives");
    }

    #[test]
    fn crash_before_rename_keeps_old_manifest() {
        let dir = TempDir::new("manifest-stale");
        let kill = KillSwitch::new();
        write_manifest(dir.path(), &sample(5), &kill).expect("write");
        kill.arm(1);
        write_manifest(dir.path(), &sample(9), &kill).expect_err("kill at rename");
        // The fully written temp file is ignored; the manifest is stale
        // but valid — the recovery path the stale-manifest matrix covers.
        assert_eq!(read_manifest(dir.path()), Some(sample(5)));
        // A later successful publish wins.
        write_manifest(dir.path(), &sample(12), &kill).expect("publish");
        assert_eq!(read_manifest(dir.path()), Some(sample(12)));
    }

    #[test]
    fn crash_after_rename_before_dir_fsync_resurrects_old_manifest() {
        // The lost-rename case: the rename happened in the directory
        // cache but the crash hits before the directory fsync, so the
        // entry reverts. Anything the caller did on the strength of the
        // "published" checkpoint (WAL compaction!) would be wrong — which
        // is why rotate_keep runs only after write_manifest returns Ok.
        let dir = TempDir::new("manifest-lostrename");
        let kill = KillSwitch::new();
        write_manifest(dir.path(), &sample(5), &kill).expect("write");
        kill.arm(2);
        write_manifest(dir.path(), &sample(9), &kill).expect_err("kill after rename");
        assert_eq!(
            read_manifest(dir.path()),
            Some(sample(5)),
            "old manifest is the durable truth again"
        );
        // On a cold store the same crash leaves no manifest at all.
        let dir2 = TempDir::new("manifest-lostrename-cold");
        kill.arm(2);
        write_manifest(dir2.path(), &sample(3), &kill).expect_err("kill after first rename");
        assert_eq!(read_manifest(dir2.path()), None);
        // Recovery retries and wins.
        write_manifest(dir2.path(), &sample(3), &kill).expect("retry");
        assert_eq!(read_manifest(dir2.path()), Some(sample(3)));
    }

    #[test]
    fn lost_rename_restores_previous_bytes_and_disarmed_path_publishes() {
        // A metadata blob large enough that a lazy capture or a wrong CRC
        // split would show, with a length that is no multiple of 8.
        let big = |seq: u64| Manifest {
            seq,
            root: sha256(&seq.to_be_bytes()[..]),
            meta: (0..100_003u32).map(|i| (i as u64 * seq) as u8).collect(),
        };
        let dir = TempDir::new("manifest-lostrename-bytes");
        let kill = KillSwitch::new();
        let path = dir.path().join("MANIFEST");
        write_manifest(dir.path(), &big(5), &kill).expect("write");
        let before = std::fs::read(&path).expect("published");
        // Armed at the post-rename site: the previous file comes back
        // byte for byte.
        kill.arm(2);
        write_manifest(dir.path(), &big(9), &kill).expect_err("kill after rename");
        assert!(kill.fired());
        assert_eq!(std::fs::read(&path).expect("restored"), before);
        assert_eq!(read_manifest(dir.path()), Some(big(5)));
        // Disarmed (the production path, which reads nothing back): the
        // new manifest is published, all three sites visited.
        let visited = kill.visited();
        write_manifest(dir.path(), &big(9), &kill).expect("publish");
        assert_eq!(kill.visited() - visited, 3);
        assert_eq!(read_manifest(dir.path()), Some(big(9)));
        assert_ne!(std::fs::read(&path).expect("new"), before);
    }

    #[test]
    fn corrupt_manifest_treated_as_absent() {
        let dir = TempDir::new("manifest-corrupt");
        let kill = KillSwitch::new();
        write_manifest(dir.path(), &sample(5), &kill).expect("write");
        let path = dir.path().join("MANIFEST");
        let mut bytes = std::fs::read(&path).expect("read");
        *bytes.last_mut().expect("non-empty") ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt");
        assert_eq!(read_manifest(dir.path()), None);
        // Truncations are refused too.
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncate");
        assert_eq!(read_manifest(dir.path()), None);
    }
}
