//! Stable media: the boundary between what survives a crash and what
//! does not.
//!
//! This is the one crash model: the [`WriteAheadLog`](super::WriteAheadLog)
//! under the resource manager and under the store engine both append
//! through a [`StableMedia`] (the engine also stages its snapshots
//! there), and only what has been [`sync`](StableMedia::sync)ed is
//! promised to survive [`crash`](StableMedia::crash). Two
//! implementations:
//!
//! - [`MemMedia`] — deterministic in-memory media with an explicit
//!   synced watermark, the medium every simulation and property test
//!   uses. `crash()` discards the unsynced WAL tail and any staged
//!   snapshot, exactly like power loss under a buffered file.
//! - [`FileMedia`] — the same contract over real files (append-only WAL
//!   file, snapshot replaced via write-to-temp + rename), for runs that
//!   want bytes on disk. Writes are buffered in memory until `sync`, so
//!   `crash()` models the same loss window.
//!
//! Snapshot replacement is atomic at sync: a crash either keeps the old
//! snapshot or installs the new one, never a torn mixture. Resetting
//! the WAL ([`wal_reset`](StableMedia::wal_reset)) is likewise atomic —
//! it models a rename, not an in-place truncate — and the engine orders
//! it strictly after the covering snapshot's sync, so a crash between
//! the two leaves snapshot + over-long log, which replay tolerates.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Durable byte storage with an explicit crash model.
pub trait StableMedia {
    /// Appends bytes to the WAL (volatile until [`sync`](Self::sync)).
    fn wal_append(&mut self, bytes: &[u8]);

    /// All readable WAL bytes, including the unsynced tail.
    fn wal_bytes(&self) -> &[u8];

    /// Atomically replaces the whole WAL (compaction). Durable
    /// immediately, like a rename over the old log.
    fn wal_reset(&mut self, bytes: &[u8]);

    /// Stages a snapshot, atomically replacing the previous one at the
    /// next [`sync`](Self::sync).
    fn snapshot_write(&mut self, bytes: &[u8]);

    /// The current durable snapshot, if one has ever been synced.
    fn snapshot_bytes(&self) -> Option<&[u8]>;

    /// Makes every appended WAL byte and any staged snapshot
    /// crash-proof.
    fn sync(&mut self);

    /// Simulates power loss: the unsynced WAL tail and any staged (but
    /// unsynced) snapshot are gone; everything synced survives.
    fn crash(&mut self);

    /// Bytes currently occupied by the WAL (synced or not).
    fn wal_len(&self) -> usize {
        self.wal_bytes().len()
    }

    /// Bytes occupied by the durable snapshot.
    fn snapshot_len(&self) -> usize {
        self.snapshot_bytes().map_or(0, <[u8]>::len)
    }
}

/// Deterministic in-memory stable media.
#[derive(Debug, Default, Clone)]
pub struct MemMedia {
    wal: Vec<u8>,
    synced: usize,
    snapshot: Option<Vec<u8>>,
    staged_snapshot: Option<Vec<u8>>,
}

impl MemMedia {
    /// Fresh, empty media.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many WAL bytes are currently durable.
    pub fn synced_len(&self) -> usize {
        self.synced
    }

    /// Truncates the *durable* WAL to `len` bytes — the probe the
    /// crash-at-every-prefix property test uses to stand at each
    /// possible crash point.
    pub fn truncate_wal(&mut self, len: usize) {
        self.wal.truncate(len);
        self.synced = self.synced.min(len);
    }
}

impl StableMedia for MemMedia {
    fn wal_append(&mut self, bytes: &[u8]) {
        self.wal.extend_from_slice(bytes);
    }

    fn wal_bytes(&self) -> &[u8] {
        &self.wal
    }

    fn wal_reset(&mut self, bytes: &[u8]) {
        self.wal = bytes.to_vec();
        self.synced = self.wal.len();
    }

    fn snapshot_write(&mut self, bytes: &[u8]) {
        self.staged_snapshot = Some(bytes.to_vec());
    }

    fn snapshot_bytes(&self) -> Option<&[u8]> {
        self.snapshot.as_deref()
    }

    fn sync(&mut self) {
        self.synced = self.wal.len();
        if let Some(staged) = self.staged_snapshot.take() {
            self.snapshot = Some(staged);
        }
    }

    fn crash(&mut self) {
        self.wal.truncate(self.synced);
        self.staged_snapshot = None;
    }
}

/// [`StableMedia`] over two real files: `<base>.wal` and `<base>.snap`.
///
/// Appends are buffered in memory and written + flushed at `sync`; the
/// snapshot goes through `<base>.snap.tmp` and a rename. `crash()` drops
/// the buffer and re-reads the files, modelling the same loss window as
/// [`MemMedia`].
#[derive(Debug)]
pub struct FileMedia {
    wal_path: PathBuf,
    snap_path: PathBuf,
    /// Full WAL image: durable prefix + buffered tail.
    wal: Vec<u8>,
    /// How many of `wal`'s bytes are on disk.
    on_disk: usize,
    snapshot: Option<Vec<u8>>,
    staged_snapshot: Option<Vec<u8>>,
}

impl FileMedia {
    /// Opens (or creates) media at `<base>.wal` / `<base>.snap`.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn open(base: &Path) -> std::io::Result<Self> {
        let wal_path = base.with_extension("wal");
        let snap_path = base.with_extension("snap");
        if let Some(dir) = base.parent() {
            fs::create_dir_all(dir)?;
        }
        let wal = match fs::read(&wal_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let snapshot = match fs::read(&snap_path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let on_disk = wal.len();
        Ok(Self {
            wal_path,
            snap_path,
            wal,
            on_disk,
            snapshot,
            staged_snapshot: None,
        })
    }

    fn persist(&mut self) -> std::io::Result<()> {
        if self.wal.len() > self.on_disk {
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.wal_path)?;
            f.write_all(&self.wal[self.on_disk..])?;
            f.sync_data()?;
            self.on_disk = self.wal.len();
        }
        if let Some(staged) = self.staged_snapshot.take() {
            let tmp = self.snap_path.with_extension("snap.tmp");
            fs::write(&tmp, &staged)?;
            fs::rename(&tmp, &self.snap_path)?;
            self.snapshot = Some(staged);
        }
        Ok(())
    }
}

impl StableMedia for FileMedia {
    fn wal_append(&mut self, bytes: &[u8]) {
        self.wal.extend_from_slice(bytes);
    }

    fn wal_bytes(&self) -> &[u8] {
        &self.wal
    }

    fn wal_reset(&mut self, bytes: &[u8]) {
        let tmp = self.wal_path.with_extension("wal.tmp");
        fs::write(&tmp, bytes).expect("write compacted WAL");
        fs::rename(&tmp, &self.wal_path).expect("install compacted WAL");
        self.wal = bytes.to_vec();
        self.on_disk = self.wal.len();
    }

    fn snapshot_write(&mut self, bytes: &[u8]) {
        self.staged_snapshot = Some(bytes.to_vec());
    }

    fn snapshot_bytes(&self) -> Option<&[u8]> {
        self.snapshot.as_deref()
    }

    fn sync(&mut self) {
        self.persist().expect("sync stable media");
    }

    fn crash(&mut self) {
        self.wal.truncate(self.on_disk);
        self.staged_snapshot = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_media_crash_loses_only_the_unsynced_tail() {
        let mut m = MemMedia::new();
        m.wal_append(b"abc");
        m.sync();
        m.wal_append(b"def");
        m.snapshot_write(b"snap");
        assert_eq!(m.wal_bytes(), b"abcdef");
        m.crash();
        assert_eq!(m.wal_bytes(), b"abc");
        assert_eq!(m.snapshot_bytes(), None, "staged snapshot is lost");
        m.snapshot_write(b"snap2");
        m.sync();
        m.crash();
        assert_eq!(m.snapshot_bytes(), Some(&b"snap2"[..]));
    }

    #[test]
    fn mem_media_reset_is_durable() {
        let mut m = MemMedia::new();
        m.wal_append(b"old records");
        m.sync();
        m.wal_reset(b"tail");
        m.crash();
        assert_eq!(m.wal_bytes(), b"tail");
        assert_eq!(m.synced_len(), 4);
    }

    #[test]
    fn file_media_round_trips_across_reopen() {
        let base = std::env::temp_dir().join(format!(
            "rmodp-store-media-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_file(base.with_extension("wal"));
        let _ = fs::remove_file(base.with_extension("snap"));

        let mut m = FileMedia::open(&base).unwrap();
        m.wal_append(b"r1");
        m.sync();
        m.wal_append(b"r2-unsynced");
        m.crash();
        assert_eq!(m.wal_bytes(), b"r1", "unsynced tail gone");
        m.snapshot_write(b"state");
        m.sync();
        drop(m);

        let m = FileMedia::open(&base).unwrap();
        assert_eq!(m.wal_bytes(), b"r1");
        assert_eq!(m.snapshot_bytes(), Some(&b"state"[..]));
        let _ = fs::remove_file(base.with_extension("wal"));
        let _ = fs::remove_file(base.with_extension("snap"));
    }
}
