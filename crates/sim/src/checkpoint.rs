//! Atomic, checksummed checkpoints for long-running searches.
//!
//! A [`CheckpointStore`] manages numbered snapshots under a run directory.
//! Every snapshot is written to a temp file and atomically renamed into
//! place, so a crash mid-write can never corrupt an existing snapshot —
//! at worst it leaves a stray `.tmp` that the next open sweeps away. Each
//! snapshot file carries a one-line schema-versioned header with the
//! payload length and an FNV-1a 64 checksum; [`CheckpointStore::load_latest`]
//! verifies both and falls back to the newest *older* snapshot when the
//! latest is truncated or bit-flipped, recording what it skipped.
//!
//! Snapshots also carry a *fingerprint* of the computation's inputs
//! (scenario, grids, fault schedule), so resuming against a directory
//! written for different inputs is a hard error rather than a silently
//! wrong table.

use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::error::SimError;

/// Schema tag written into every snapshot header.
pub const CHECKPOINT_SCHEMA: &str = "dcs-sim/checkpoint-v1";

/// How many snapshots [`CheckpointStore::save`] keeps before pruning the
/// oldest (the latest plus two fallbacks).
const KEEP_SNAPSHOTS: usize = 3;

/// FNV-1a 64-bit hash — checksum for snapshot payloads and input
/// fingerprints. Hand-rolled so checkpoints need no new dependencies.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprints any serializable description of a computation's inputs.
pub fn fingerprint_of<T: Serialize>(inputs: &T) -> u64 {
    let text = serde_json::to_string(inputs).unwrap_or_default();
    fnv1a64(text.as_bytes())
}

/// One-line JSON header preceding every snapshot payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct SnapshotHeader {
    /// Schema tag; must equal [`CHECKPOINT_SCHEMA`].
    schema: String,
    /// What computation this snapshot belongs to (`"oracle"`, `"table"`).
    kind: String,
    /// Fingerprint of the computation's inputs, hex.
    fingerprint: String,
    /// Monotonic snapshot sequence number.
    seq: u64,
    /// Payload length in bytes.
    len: u64,
    /// FNV-1a 64 checksum of the payload bytes, hex.
    checksum: String,
}

/// A snapshot skipped during [`CheckpointStore::load_latest`], with the
/// reason it was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedSnapshot {
    /// The rejected file.
    pub path: String,
    /// Why it was rejected (truncated, checksum mismatch, parse error…).
    pub reason: String,
}

/// A successfully loaded snapshot plus the corrupt ones skipped on the
/// way to it.
#[derive(Debug)]
pub struct LoadedSnapshot<P> {
    /// The decoded payload of the newest intact snapshot.
    pub payload: P,
    /// Sequence number of that snapshot.
    pub seq: u64,
    /// Corrupt snapshots that were newer but rejected, newest first.
    pub skipped: Vec<SkippedSnapshot>,
}

/// Manages atomic, checksummed snapshots for one resumable computation.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    kind: String,
    fingerprint: u64,
    next_seq: u64,
    saves: u64,
    kill_after: Option<u64>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory for a computation
    /// of the given `kind` whose inputs hash to `fingerprint`. Stray
    /// `snap-*.json.tmp` files from a previous crash mid-save are removed
    /// (only the store's own naming pattern — unrelated `.tmp` files in a
    /// shared directory are left alone); the next sequence number
    /// continues after the newest existing snapshot.
    pub fn open(
        dir: impl Into<PathBuf>,
        kind: impl Into<String>,
        fingerprint: u64,
    ) -> Result<CheckpointStore, SimError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| SimError::io(dir.display().to_string(), e.to_string()))?;
        let mut next_seq = 1;
        for (_, seq) in snapshot_files(&dir)? {
            if seq >= next_seq {
                next_seq = seq + 1;
            }
        }
        for entry in fs::read_dir(&dir)
            .map_err(|e| SimError::io(dir.display().to_string(), e.to_string()))?
        {
            let entry =
                entry.map_err(|e| SimError::io(dir.display().to_string(), e.to_string()))?;
            let path = entry.path();
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(is_stale_snapshot_tmp)
            {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(CheckpointStore {
            dir,
            kind: kind.into(),
            fingerprint,
            next_seq,
            saves: 0,
            kill_after: None,
        })
    }

    /// Arms the kill-after-save test hook: the `n`-th successful
    /// [`save`](Self::save) in this store's lifetime returns
    /// [`SimError::Interrupted`] *after* the snapshot has been renamed into
    /// place, simulating a process killed exactly at a snapshot boundary.
    #[must_use]
    pub fn with_kill_after(mut self, saves: u64) -> CheckpointStore {
        self.kill_after = Some(saves);
        self
    }

    /// The run directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// How many snapshots this store instance has written.
    #[must_use]
    pub fn saves(&self) -> u64 {
        self.saves
    }

    /// Writes a snapshot atomically: serialize, write header + payload to
    /// `snap-NNNNNN.json.tmp`, rename into place, prune old snapshots
    /// beyond the keep window. Returns [`SimError::Interrupted`] if the
    /// kill-after hook fires (the snapshot itself is intact).
    ///
    /// Nothing is fsynced: a saved snapshot survives the death of this
    /// process (the kernel still holds the written pages), but not a host
    /// crash or power loss, after which the newest snapshot may be missing
    /// or truncated and [`load_latest`](Self::load_latest) falls back to an
    /// older one.
    pub fn save<P: Serialize>(&mut self, payload: &P) -> Result<(), SimError> {
        let body = serde_json::to_string(payload)
            .map_err(|e| SimError::checkpoint(self.dir.display().to_string(), e.to_string()))?;
        let header = SnapshotHeader {
            schema: CHECKPOINT_SCHEMA.to_owned(),
            kind: self.kind.clone(),
            fingerprint: format!("{:016x}", self.fingerprint),
            seq: self.next_seq,
            len: body.len() as u64,
            checksum: format!("{:016x}", fnv1a64(body.as_bytes())),
        };
        let header_line = serde_json::to_string(&header)
            .map_err(|e| SimError::checkpoint(self.dir.display().to_string(), e.to_string()))?;
        let text = format!("{header_line}\n{body}");
        let final_path = self.dir.join(snapshot_name(self.next_seq));
        let tmp_path = self
            .dir
            .join(format!("{}.tmp", snapshot_name(self.next_seq)));
        fs::write(&tmp_path, text.as_bytes())
            .map_err(|e| SimError::io(tmp_path.display().to_string(), e.to_string()))?;
        fs::rename(&tmp_path, &final_path)
            .map_err(|e| SimError::io(final_path.display().to_string(), e.to_string()))?;
        self.next_seq += 1;
        self.saves += 1;
        self.prune()?;
        if self.kill_after == Some(self.saves) {
            return Err(SimError::Interrupted {
                message: format!(
                    "killed after snapshot {} at {}",
                    self.saves,
                    final_path.display()
                ),
            });
        }
        Ok(())
    }

    /// Loads the newest intact snapshot, skipping corrupt ones (bad
    /// header, wrong length, checksum mismatch, undecodable payload) and
    /// recording why. Returns `Ok(None)` if the directory holds no intact
    /// snapshot at all; returns an error if a snapshot is intact but was
    /// written for different inputs (fingerprint mismatch) or a different
    /// computation kind.
    pub fn load_latest<P: Deserialize>(&self) -> Result<Option<LoadedSnapshot<P>>, SimError> {
        let mut files = snapshot_files(&self.dir)?;
        files.sort_by_key(|&(_, seq)| std::cmp::Reverse(seq));
        let mut skipped = Vec::new();
        for (path, seq) in files {
            match self.read_snapshot::<P>(&path) {
                Ok(payload) => {
                    return Ok(Some(LoadedSnapshot {
                        payload,
                        seq,
                        skipped,
                    }))
                }
                Err(SnapshotRejection::Corrupt(reason)) => {
                    skipped.push(SkippedSnapshot {
                        path: path.display().to_string(),
                        reason,
                    });
                }
                Err(SnapshotRejection::Fatal(err)) => return Err(err),
            }
        }
        Ok(None)
    }

    fn read_snapshot<P: Deserialize>(&self, path: &Path) -> Result<P, SnapshotRejection> {
        let text = fs::read_to_string(path)
            .map_err(|e| SnapshotRejection::Corrupt(format!("unreadable: {e}")))?;
        let (header_line, body) = text
            .split_once('\n')
            .ok_or_else(|| SnapshotRejection::Corrupt("truncated: no payload line".into()))?;
        let header: SnapshotHeader = serde_json::from_str(header_line)
            .map_err(|e| SnapshotRejection::Corrupt(format!("bad header: {e}")))?;
        if header.schema != CHECKPOINT_SCHEMA {
            return Err(SnapshotRejection::Corrupt(format!(
                "unknown schema {}",
                header.schema
            )));
        }
        if header.kind != self.kind {
            return Err(SnapshotRejection::Fatal(SimError::checkpoint(
                path.display().to_string(),
                format!(
                    "snapshot is for a {} run, this is a {} run",
                    header.kind, self.kind
                ),
            )));
        }
        let expected_fp = format!("{:016x}", self.fingerprint);
        if header.fingerprint != expected_fp {
            return Err(SnapshotRejection::Fatal(SimError::checkpoint(
                path.display().to_string(),
                format!(
                    "input fingerprint mismatch: snapshot {} vs run {expected_fp} \
                     (directory belongs to a different scenario/grid)",
                    header.fingerprint
                ),
            )));
        }
        if body.len() as u64 != header.len {
            return Err(SnapshotRejection::Corrupt(format!(
                "truncated: payload is {} bytes, header says {}",
                body.len(),
                header.len
            )));
        }
        let checksum = format!("{:016x}", fnv1a64(body.as_bytes()));
        if checksum != header.checksum {
            return Err(SnapshotRejection::Corrupt(format!(
                "checksum mismatch: payload {checksum}, header {}",
                header.checksum
            )));
        }
        serde_json::from_str(body)
            .map_err(|e| SnapshotRejection::Corrupt(format!("undecodable payload: {e}")))
    }

    /// Removes snapshots beyond the keep window (newest [`KEEP_SNAPSHOTS`]
    /// survive as fallbacks).
    fn prune(&self) -> Result<(), SimError> {
        let mut files = snapshot_files(&self.dir)?;
        files.sort_by_key(|&(_, seq)| std::cmp::Reverse(seq));
        for (path, _) in files.into_iter().skip(KEEP_SNAPSHOTS) {
            let _ = fs::remove_file(path);
        }
        Ok(())
    }
}

enum SnapshotRejection {
    /// Skip this snapshot and try an older one.
    Corrupt(String),
    /// Stop: the directory does not belong to this computation.
    Fatal(SimError),
}

fn snapshot_name(seq: u64) -> String {
    format!("snap-{seq:06}.json")
}

/// Whether `name` is a stray temp file from one of this store's own
/// interrupted saves (`snap-<digits>.json.tmp`) — the only files the
/// open-time sweep may delete.
fn is_stale_snapshot_tmp(name: &str) -> bool {
    name.strip_prefix("snap-")
        .and_then(|rest| rest.strip_suffix(".json.tmp"))
        .is_some_and(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
}

/// Lists `(path, seq)` for every well-named snapshot file in `dir`.
fn snapshot_files(dir: &Path) -> Result<Vec<(PathBuf, u64)>, SimError> {
    let mut files = Vec::new();
    let entries =
        fs::read_dir(dir).map_err(|e| SimError::io(dir.display().to_string(), e.to_string()))?;
    for entry in entries {
        let entry = entry.map_err(|e| SimError::io(dir.display().to_string(), e.to_string()))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(seq) = name
            .strip_prefix("snap-")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            files.push((path, seq));
        }
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("dcs-ckpt-{}-{}-{}", tag, std::process::id(), n))
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Payload {
        values: Vec<u64>,
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn save_load_round_trip_and_prune() {
        let dir = scratch_dir("roundtrip");
        let mut store = CheckpointStore::open(&dir, "oracle", 7).unwrap();
        for i in 1..=5_u64 {
            store.save(&Payload { values: vec![i] }).unwrap();
        }
        let loaded = store.load_latest::<Payload>().unwrap().unwrap();
        assert_eq!(loaded.payload, Payload { values: vec![5] });
        assert_eq!(loaded.seq, 5);
        assert!(loaded.skipped.is_empty());
        // Only the keep-window survives.
        let files = snapshot_files(&dir).unwrap();
        assert_eq!(files.len(), KEEP_SNAPSHOTS);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_snapshot_falls_back_to_previous() {
        let dir = scratch_dir("truncate");
        let mut store = CheckpointStore::open(&dir, "oracle", 7).unwrap();
        store.save(&Payload { values: vec![1, 2] }).unwrap();
        store
            .save(&Payload {
                values: vec![1, 2, 3],
            })
            .unwrap();
        // Truncate the newest snapshot mid-payload.
        let newest = dir.join(snapshot_name(2));
        let text = fs::read_to_string(&newest).unwrap();
        fs::write(&newest, &text[..text.len() - 4]).unwrap();
        let loaded = store.load_latest::<Payload>().unwrap().unwrap();
        assert_eq!(loaded.payload, Payload { values: vec![1, 2] });
        assert_eq!(loaded.seq, 1);
        assert_eq!(loaded.skipped.len(), 1);
        assert!(
            loaded.skipped[0].reason.contains("truncated"),
            "{}",
            loaded.skipped[0].reason
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flipped_snapshot_fails_checksum() {
        let dir = scratch_dir("bitflip");
        let mut store = CheckpointStore::open(&dir, "table", 9).unwrap();
        store.save(&Payload { values: vec![10] }).unwrap();
        store.save(&Payload { values: vec![20] }).unwrap();
        let newest = dir.join(snapshot_name(2));
        let mut bytes = fs::read(&newest).unwrap();
        let flip = bytes.len() - 2;
        bytes[flip] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        let loaded = store.load_latest::<Payload>().unwrap().unwrap();
        assert_eq!(loaded.payload, Payload { values: vec![10] });
        assert_eq!(loaded.skipped.len(), 1);
        assert!(
            loaded.skipped[0].reason.contains("checksum")
                || loaded.skipped[0].reason.contains("undecodable"),
            "{}",
            loaded.skipped[0].reason
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_is_fatal() {
        let dir = scratch_dir("fingerprint");
        let mut store = CheckpointStore::open(&dir, "oracle", 7).unwrap();
        store.save(&Payload { values: vec![1] }).unwrap();
        let other = CheckpointStore::open(&dir, "oracle", 8).unwrap();
        let err = other
            .load_latest::<Payload>()
            .expect_err("different inputs must not resume");
        assert!(err.to_string().contains("fingerprint"), "{err}");
        assert_eq!(err.exit_code(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_loads_none_and_tmp_is_swept() {
        let dir = scratch_dir("empty");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("snap-000001.json.tmp"), b"partial").unwrap();
        let store = CheckpointStore::open(&dir, "oracle", 1).unwrap();
        assert!(store.load_latest::<Payload>().unwrap().is_none());
        assert!(
            !dir.join("snap-000001.json.tmp").exists(),
            "stray tmp must be swept on open"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tmp_sweep_only_touches_own_snapshots() {
        let dir = scratch_dir("sweep-scope");
        fs::create_dir_all(&dir).unwrap();
        // A stale temp from a kill mid-save of this store's own snapshot…
        fs::write(dir.join("snap-000007.json.tmp"), b"partial").unwrap();
        // …and tmp files that are NOT ours: a foreign tool's scratch file,
        // and near-miss names that don't match the snapshot pattern.
        fs::write(dir.join("notes.txt.tmp"), b"keep me").unwrap();
        fs::write(dir.join("snap-extra.json.tmp"), b"keep me too").unwrap();
        fs::write(dir.join("snap-.json.tmp"), b"no digits").unwrap();
        let _store = CheckpointStore::open(&dir, "oracle", 1).unwrap();
        assert!(
            !dir.join("snap-000007.json.tmp").exists(),
            "own stale tmp must be swept"
        );
        assert!(
            dir.join("notes.txt.tmp").exists(),
            "foreign tmp files must survive the sweep"
        );
        assert!(dir.join("snap-extra.json.tmp").exists());
        assert!(dir.join("snap-.json.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_after_fires_post_save() {
        let dir = scratch_dir("kill");
        let mut store = CheckpointStore::open(&dir, "oracle", 7)
            .unwrap()
            .with_kill_after(2);
        store.save(&Payload { values: vec![1] }).unwrap();
        let err = store
            .save(&Payload { values: vec![2] })
            .expect_err("second save must interrupt");
        assert!(matches!(err, SimError::Interrupted { .. }), "{err}");
        // The snapshot the kill fired on is intact on disk.
        let loaded = store.load_latest::<Payload>().unwrap().unwrap();
        assert_eq!(loaded.payload, Payload { values: vec![2] });
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_continues_sequence() {
        let dir = scratch_dir("reopen");
        let mut store = CheckpointStore::open(&dir, "oracle", 7).unwrap();
        store.save(&Payload { values: vec![1] }).unwrap();
        drop(store);
        let mut store = CheckpointStore::open(&dir, "oracle", 7).unwrap();
        store.save(&Payload { values: vec![2] }).unwrap();
        let loaded = store.load_latest::<Payload>().unwrap().unwrap();
        assert_eq!(loaded.seq, 2);
        assert_eq!(loaded.payload, Payload { values: vec![2] });
        fs::remove_dir_all(&dir).unwrap();
    }
}
