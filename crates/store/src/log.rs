//! The append-only record log: file format, commit protocol, recovery.
//!
//! ## File format (DESIGN.md §14)
//!
//! ```text
//! header   := "RBDSTORE" u32_le(version=1)
//! frame    := u32_le(payload_len) u32_le(crc32(payload)) payload
//! payload  := kind_byte body
//! doc      := 0x01 hash[32] json(StoredDoc body)
//! commit   := 0x02 u64_le(cumulative committed doc count)
//! index    := 0x03 json(...)   (legacy: read past, never written)
//! ```
//!
//! Stores written before the index frame was dropped carry one index
//! frame per commit; recovery skips it, since the hash→offset index is
//! rebuilt from the doc frames themselves.
//!
//! ## Commit protocol
//!
//! A batch appends its doc frames, `sync_data`s, then appends the commit
//! frame and `sync_data`s again. A crash between the two syncs leaves doc frames
//! with no commit record; a crash mid-write leaves a torn frame. Either
//! way the tail after the last commit frame is discarded on open.
//!
//! ## Recovery invariants
//!
//! * Opening never panics: every failure is an [`StoreError`].
//! * The committed prefix — every frame up to and including the last
//!   valid commit frame — survives any crash byte-for-byte.
//! * Uncommitted or torn tail bytes are truncated on open; at most the
//!   one in-flight batch is lost.
//! * CRC-valid frames that are semantically impossible (unknown kind,
//!   short doc payload, commit count mismatch) mean the file is not a
//!   crash remnant but a corrupt store: typed [`StoreError::Corrupt`].

use crate::doc::StoredDoc;
use crate::hash::{crc32, ContentHash};
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Leading file magic.
pub const MAGIC: &[u8; 8] = b"RBDSTORE";
/// Format version the crate writes and accepts.
pub const VERSION: u32 = 1;
/// Header length: magic plus version.
const HEADER_LEN: u64 = 12;
/// Upper bound on a single frame payload (256 MiB) — anything larger in a
/// length prefix is corruption, not data.
const MAX_FRAME: u64 = 256 * 1024 * 1024;

/// Frame kind: one persisted document.
const KIND_DOC: u8 = 1;
/// Frame kind: a batch commit record.
const KIND_COMMIT: u8 = 2;
/// Frame kind: a legacy per-commit index segment. Older stores carry one;
/// recovery skips it and nothing writes it.
const KIND_INDEX: u8 = 3;

/// Cap on the resident bytes of the in-memory hit layer. When an insert
/// would cross it the layer is dropped wholesale (generational eviction):
/// the log below remains the source of truth, so eviction only costs the
/// next hit a re-read, never data.
const MAX_RESIDENT_BYTES: usize = 64 * 1024 * 1024;

/// Typed store failures — the store never panics on a bad file.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// The file is not a valid store (bad magic/version, impossible frame,
    /// commit-count mismatch, or a checksum failure in the committed
    /// region).
    Corrupt {
        /// Byte offset of the offending frame or field.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// A committed frame's JSON body failed to parse.
    Json {
        /// Byte offset of the frame.
        offset: u64,
        /// Parser message.
        message: String,
    },
    /// A single document serialized beyond the maximum frame size.
    TooLarge {
        /// The oversized payload length.
        bytes: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt { offset, reason } => {
                write!(f, "corrupt store at byte {offset}: {reason}")
            }
            StoreError::Json { offset, message } => {
                write!(
                    f,
                    "corrupt store at byte {offset}: bad frame body: {message}"
                )
            }
            StoreError::TooLarge { bytes } => {
                write!(f, "document frame of {bytes} bytes exceeds the frame cap")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl StoreError {
    /// Short machine-readable kind tag (`io` / `corrupt` / `json` /
    /// `too_large`) for JSON reports.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            StoreError::Io(_) => "io",
            StoreError::Corrupt { .. } => "corrupt",
            StoreError::Json { .. } => "json",
            StoreError::TooLarge { .. } => "too_large",
        }
    }
}

/// A fully materialized cache hit: the committed document's canonical
/// serve-response bytes, built once per document and then shared.
#[derive(Debug)]
pub struct HitEntry {
    /// The canonical response JSON (`StoredDoc::response_json`) serialized
    /// once, so repeat hits serve bytes without re-serializing.
    pub response: String,
}

/// A crash-safe, append-only store of [`StoredDoc`]s keyed by content
/// hash, backed by one file.
#[derive(Debug)]
pub struct Store {
    file: File,
    path: PathBuf,
    /// Committed doc-frame offsets by content hash.
    index: HashMap<ContentHash, u64>,
    /// File length up to and including the last valid commit frame; all
    /// writes append from here.
    committed_len: u64,
    /// Committed document count (matches the last commit frame's body).
    docs: u64,
    /// The in-memory hit layer: serialized responses memoized on first
    /// [`Store::hit`], bounded by [`MAX_RESIDENT_BYTES`]. Purely a
    /// read cache over the log — never consulted by recovery, never
    /// written to disk.
    resident: HashMap<ContentHash, Arc<HitEntry>>,
    /// Approximate bytes held by `resident`, for the eviction bound.
    resident_bytes: usize,
}

impl Store {
    /// Opens (creating if absent) the store at `path`, running crash
    /// recovery: the committed prefix is validated and indexed, and any
    /// torn or uncommitted tail is truncated.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, [`StoreError::Corrupt`]
    /// when the committed region itself is invalid.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut store = Store {
            file,
            path,
            index: HashMap::new(),
            committed_len: HEADER_LEN,
            docs: 0,
            resident: HashMap::new(),
            resident_bytes: 0,
        };
        let len = store.file.metadata()?.len();
        if len == 0 {
            let mut header = Vec::with_capacity(12);
            header.extend_from_slice(MAGIC);
            header.extend_from_slice(&VERSION.to_le_bytes());
            store.write_and_sync(0, &header)?;
            return Ok(store);
        }
        store.recover()?;
        Ok(store)
    }

    /// The backing file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of committed documents.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.docs
    }

    /// `true` when no documents are committed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.docs == 0
    }

    /// `true` when a committed document with this content hash exists.
    #[must_use]
    pub fn contains(&self, hash: &ContentHash) -> bool {
        self.index.contains_key(hash)
    }

    /// Fetches the committed document with this content hash, re-verifying
    /// the frame checksum on the way in.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on read failures; [`StoreError::Corrupt`] /
    /// [`StoreError::Json`] when the committed frame no longer passes
    /// validation (on-disk corruption after commit).
    pub fn get(&mut self, hash: &ContentHash) -> Result<Option<StoredDoc>, StoreError> {
        let Some(&offset) = self.index.get(hash) else {
            return Ok(None);
        };
        let payload = self.read_frame(offset)?;
        if payload.first() != Some(&KIND_DOC) || payload.len() < 33 {
            return Err(StoreError::Corrupt {
                offset,
                reason: "indexed frame is not a document frame".to_owned(),
            });
        }
        let mut hash_bytes = [0u8; 32];
        hash_bytes.copy_from_slice(&payload[1..33]);
        let frame_hash = ContentHash(hash_bytes);
        if frame_hash != *hash {
            return Err(StoreError::Corrupt {
                offset,
                reason: "document frame hash does not match the index".to_owned(),
            });
        }
        let body = std::str::from_utf8(&payload[33..]).map_err(|e| StoreError::Corrupt {
            offset,
            reason: format!("frame body is not UTF-8: {e}"),
        })?;
        let doc = StoredDoc::parse_body(frame_hash, body)
            .map_err(|message| StoreError::Json { offset, message })?;
        Ok(Some(doc))
    }

    /// Fetches a committed document's response through the in-memory hit
    /// layer: the first hit per document pays one [`Store::get`] (read +
    /// checksum + parse) plus one response serialization; every later hit
    /// is a map lookup returning the same shared entry. An absent hash is
    /// `Ok(None)`. This is the steady-state cache-hit path
    /// `rbd serve --store` answers from.
    ///
    /// # Errors
    ///
    /// As for [`Store::get`].
    pub fn hit(&mut self, hash: &ContentHash) -> Result<Option<Arc<HitEntry>>, StoreError> {
        if let Some(entry) = self.resident.get(hash) {
            return Ok(Some(Arc::clone(entry)));
        }
        let Some(doc) = self.get(hash)? else {
            return Ok(None);
        };
        let response = doc.response_json().to_compact();
        // Entry cost ≈ response bytes plus map overhead.
        let cost = response.len() + 256;
        if self.resident_bytes.saturating_add(cost) > MAX_RESIDENT_BYTES {
            self.resident.clear();
            self.resident_bytes = 0;
        }
        let entry = Arc::new(HitEntry { response });
        self.resident.insert(*hash, Arc::clone(&entry));
        self.resident_bytes += cost;
        Ok(Some(entry))
    }

    /// Loads every committed document in commit order.
    ///
    /// # Errors
    ///
    /// As for [`Store::get`].
    pub fn load_all(&mut self) -> Result<Vec<StoredDoc>, StoreError> {
        let mut offsets: Vec<(u64, ContentHash)> =
            self.index.iter().map(|(h, &o)| (o, *h)).collect();
        offsets.sort_unstable_by_key(|&(o, _)| o);
        let mut docs = Vec::with_capacity(offsets.len());
        for (offset, hash) in offsets {
            match self.get(&hash)? {
                Some(doc) => docs.push(doc),
                None => {
                    return Err(StoreError::Corrupt {
                        offset,
                        reason: "index entry vanished during load".to_owned(),
                    })
                }
            }
        }
        Ok(docs)
    }

    /// Appends and commits a batch of documents: doc frames, `sync_data`,
    /// then the commit frame, `sync_data` again.
    /// Documents whose hash is already committed (or repeated within the
    /// batch) are skipped. Returns the number of documents newly
    /// committed.
    ///
    /// On failure nothing is committed: the in-memory state is unchanged
    /// and any partial bytes are overwritten by the next append or
    /// truncated by the next open.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on write/sync failures, [`StoreError::TooLarge`]
    /// when one document serializes beyond the frame cap.
    pub fn append_batch(&mut self, docs: &[StoredDoc]) -> Result<u64, StoreError> {
        let mut data = Vec::new();
        let mut new_entries: Vec<(ContentHash, u64)> = Vec::new();
        for doc in docs {
            if self.index.contains_key(&doc.hash) || new_entries.iter().any(|(h, _)| *h == doc.hash)
            {
                continue;
            }
            let offset = self.committed_len + data.len() as u64;
            let mut payload = Vec::with_capacity(64);
            payload.push(KIND_DOC);
            payload.extend_from_slice(&doc.hash.0);
            payload.extend_from_slice(doc.body_json().to_compact().as_bytes());
            push_frame(&mut data, &payload)?;
            new_entries.push((doc.hash, offset));
        }
        if new_entries.is_empty() {
            return Ok(0);
        }

        let added = new_entries.len() as u64;
        let mut commit_payload = vec![KIND_COMMIT];
        commit_payload.extend_from_slice(&(self.docs + added).to_le_bytes());
        let mut commit = Vec::new();
        push_frame(&mut commit, &commit_payload)?;

        // The two-phase protocol: data durable first, then the commit
        // record that makes it visible to recovery.
        self.write_and_sync(self.committed_len, &data)?;
        self.write_and_sync(self.committed_len + data.len() as u64, &commit)?;

        self.committed_len += (data.len() + commit.len()) as u64;
        self.docs += added;
        self.index.extend(new_entries);
        Ok(added)
    }

    /// Seeks to `offset`, writes `bytes`, and flushes them to stable
    /// storage. Every write in this crate goes through here: the commit
    /// protocol is only sound if data reaches the disk before the commit
    /// record does, so a write without a sync is a bug (and `rbd-lint`'s
    /// `store-durability` rule denies it).
    fn write_and_sync(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StoreError> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(bytes)?;
        self.file.sync_data()?;
        Ok(())
    }

    /// Reads one frame's payload at `offset`, validating length and CRC.
    fn read_frame(&mut self, offset: u64) -> Result<Vec<u8>, StoreError> {
        self.file.seek(SeekFrom::Start(offset))?;
        let mut header = [0u8; 8];
        self.file.read_exact(&mut header)?;
        let len = u64::from(u32::from_le_bytes([
            header[0], header[1], header[2], header[3],
        ]));
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len == 0 || len > MAX_FRAME {
            return Err(StoreError::Corrupt {
                offset,
                reason: format!("impossible frame length {len}"),
            });
        }
        let mut payload = vec![0u8; usize::try_from(len).unwrap_or(usize::MAX)];
        self.file.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            return Err(StoreError::Corrupt {
                offset,
                reason: "frame checksum mismatch".to_owned(),
            });
        }
        Ok(payload)
    }

    /// Open-time recovery: forward-scan the whole file, promote pending
    /// doc frames at each commit frame, then truncate anything after the
    /// last commit.
    fn recover(&mut self) -> Result<(), StoreError> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf)?;
        if buf.len() < usize::try_from(HEADER_LEN).unwrap_or(usize::MAX) {
            return Err(StoreError::Corrupt {
                offset: 0,
                reason: "file shorter than the store header".to_owned(),
            });
        }
        if &buf[..8] != MAGIC {
            return Err(StoreError::Corrupt {
                offset: 0,
                reason: "bad magic: not an rbd store".to_owned(),
            });
        }
        let version = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
        if version != VERSION {
            return Err(StoreError::Corrupt {
                offset: 8,
                reason: format!("unsupported store version {version}"),
            });
        }

        let mut pos: usize = 12;
        let mut pending: Vec<(ContentHash, u64)> = Vec::new();
        let mut committed_end: usize = 12;
        let mut committed_docs = 0u64;
        let mut committed_index: HashMap<ContentHash, u64> = HashMap::new();
        // Scan until the first invalid frame: everything after the last
        // commit frame before it is an interrupted append.
        while pos + 8 <= buf.len() {
            let len = u64::from(u32::from_le_bytes([
                buf[pos],
                buf[pos + 1],
                buf[pos + 2],
                buf[pos + 3],
            ]));
            let crc = u32::from_le_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]]);
            if len == 0 || len > MAX_FRAME {
                break;
            }
            let Some(body_len) = usize::try_from(len).ok() else {
                break;
            };
            let Some(end) = pos.checked_add(8).and_then(|p| p.checked_add(body_len)) else {
                break;
            };
            if end > buf.len() {
                break;
            }
            let payload = &buf[pos + 8..end];
            if crc32(payload) != crc {
                break;
            }
            match payload.first().copied() {
                Some(k) if k == KIND_DOC => {
                    if payload.len() < 33 {
                        return Err(StoreError::Corrupt {
                            offset: pos as u64,
                            reason: "document frame shorter than its hash".to_owned(),
                        });
                    }
                    let mut hash = [0u8; 32];
                    hash.copy_from_slice(&payload[1..33]);
                    pending.push((ContentHash(hash), pos as u64));
                }
                Some(k) if k == KIND_COMMIT => {
                    if payload.len() != 9 {
                        return Err(StoreError::Corrupt {
                            offset: pos as u64,
                            reason: "malformed commit frame".to_owned(),
                        });
                    }
                    let mut count_bytes = [0u8; 8];
                    count_bytes.copy_from_slice(&payload[1..9]);
                    let recorded = u64::from_le_bytes(count_bytes);
                    for (hash, offset) in pending.drain(..) {
                        if committed_index.insert(hash, offset).is_none() {
                            committed_docs += 1;
                        }
                    }
                    if recorded != committed_docs {
                        return Err(StoreError::Corrupt {
                            offset: pos as u64,
                            reason: format!(
                                "commit frame records {recorded} documents but the log \
                                 holds {committed_docs}"
                            ),
                        });
                    }
                    committed_end = end;
                }
                // Legacy index segment: the doc frames already say where
                // each document lives.
                Some(k) if k == KIND_INDEX => {}
                _ => {
                    return Err(StoreError::Corrupt {
                        offset: pos as u64,
                        reason: "unknown frame kind in a checksummed frame".to_owned(),
                    });
                }
            }
            pos = end;
        }

        if committed_end < buf.len() {
            // Torn or uncommitted tail: discard it so the next append
            // starts at a clean boundary.
            self.file.set_len(committed_end as u64)?;
            self.file.sync_data()?;
        }
        self.committed_len = committed_end as u64;
        self.docs = committed_docs;
        self.index = committed_index;
        Ok(())
    }
}

/// Appends one `len | crc | payload` frame to `buf`.
fn push_frame(buf: &mut Vec<u8>, payload: &[u8]) -> Result<(), StoreError> {
    let Ok(len) = u32::try_from(payload.len()) else {
        return Err(StoreError::TooLarge {
            bytes: payload.len(),
        });
    };
    if u64::from(len) > MAX_FRAME {
        return Err(StoreError::TooLarge {
            bytes: payload.len(),
        });
    }
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbd_core::Record;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rbd-store-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    fn doc(seed: &str) -> StoredDoc {
        StoredDoc {
            hash: ContentHash::of(seed.as_bytes()),
            source: Some(format!("docs/{seed}.html")),
            separator: "hr".to_owned(),
            subtree_tag: "td".to_owned(),
            preamble: None,
            records: vec![Record {
                start: 0,
                end: 40,
                text: format!("record for {seed}"),
            }],
            degraded: 0,
        }
    }

    #[test]
    fn create_append_get_round_trip() {
        let path = scratch("roundtrip.rbd");
        std::fs::remove_file(&path).ok();
        let mut store = Store::open(&path).expect("create");
        assert!(store.is_empty());
        let docs = vec![doc("a"), doc("b")];
        assert_eq!(store.append_batch(&docs).expect("commit"), 2);
        assert_eq!(store.len(), 2);
        let got = store.get(&docs[0].hash).expect("read").expect("present");
        assert_eq!(got, docs[0]);
        assert!(store
            .get(&ContentHash::of(b"absent"))
            .expect("read")
            .is_none());
    }

    #[test]
    fn legacy_index_frames_are_read_past() {
        // A commit as older stores wrote it: doc frames, an index frame,
        // then the commit frame.
        let docs = vec![doc("p"), doc("q")];
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        let mut entries = Vec::new();
        for d in &docs {
            entries.push(format!(
                "{{\"hash\":\"{}\",\"offset\":{}}}",
                d.hash.to_hex(),
                bytes.len()
            ));
            let mut payload = vec![KIND_DOC];
            payload.extend_from_slice(&d.hash.0);
            payload.extend_from_slice(d.body_json().to_compact().as_bytes());
            push_frame(&mut bytes, &payload).expect("small frame");
        }
        let mut index = vec![KIND_INDEX];
        index.extend_from_slice(format!("[{}]", entries.join(",")).as_bytes());
        let mut index_frame = Vec::new();
        push_frame(&mut index_frame, &index).expect("small frame");
        bytes.extend_from_slice(&index_frame);
        let mut commit = vec![KIND_COMMIT];
        commit.extend_from_slice(&2u64.to_le_bytes());
        push_frame(&mut bytes, &commit).expect("small frame");

        let path = scratch("legacy_index.rbd");
        std::fs::write(&path, &bytes).expect("write legacy store");
        let mut store = Store::open(&path).expect("legacy store opens");
        assert_eq!(store.len(), 2);
        for d in &docs {
            assert_eq!(store.get(&d.hash).expect("read").as_ref(), Some(d));
        }
        assert_eq!(store.load_all().expect("load"), docs);
        store
            .append_batch(&[doc("r")])
            .expect("append after legacy");
        drop(store);
        assert_eq!(Store::open(&path).expect("reopen").len(), 3);

        // The same commit written today is the legacy bytes minus the
        // index frame.
        let fresh = scratch("no_index.rbd");
        std::fs::remove_file(&fresh).ok();
        Store::open(&fresh)
            .expect("create")
            .append_batch(&docs)
            .expect("commit");
        let written = std::fs::read(&fresh).expect("read back");
        assert_eq!(written.len(), bytes.len() - index_frame.len());
    }

    #[test]
    fn reopen_recovers_the_index() {
        let path = scratch("reopen.rbd");
        std::fs::remove_file(&path).ok();
        let docs = vec![doc("x"), doc("y"), doc("z")];
        {
            let mut store = Store::open(&path).expect("create");
            store.append_batch(&docs[..2]).expect("commit 1");
            store.append_batch(&docs[2..]).expect("commit 2");
        }
        let mut store = Store::open(&path).expect("reopen");
        assert_eq!(store.len(), 3);
        for d in &docs {
            assert_eq!(store.get(&d.hash).expect("read").as_ref(), Some(d));
        }
        let all = store.load_all().expect("load");
        assert_eq!(all, docs);
    }

    #[test]
    fn duplicate_hashes_are_committed_once() {
        let path = scratch("dedup.rbd");
        std::fs::remove_file(&path).ok();
        let mut store = Store::open(&path).expect("create");
        let d = doc("same");
        assert_eq!(
            store.append_batch(&[d.clone(), d.clone()]).expect("commit"),
            1
        );
        assert_eq!(
            store
                .append_batch(std::slice::from_ref(&d))
                .expect("recommit"),
            0
        );
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let path = scratch("empty.rbd");
        std::fs::remove_file(&path).ok();
        let mut store = Store::open(&path).expect("create");
        assert_eq!(store.append_batch(&[]).expect("commit"), 0);
        let len_before = std::fs::metadata(&path).expect("meta").len();
        drop(store);
        let store = Store::open(&path).expect("reopen");
        assert_eq!(std::fs::metadata(&path).expect("meta").len(), len_before);
        assert!(store.is_empty());
    }

    #[test]
    fn uncommitted_tail_is_truncated_on_open() {
        let path = scratch("tail.rbd");
        std::fs::remove_file(&path).ok();
        {
            let mut store = Store::open(&path).expect("create");
            store.append_batch(&[doc("kept")]).expect("commit");
        }
        let committed = std::fs::read(&path).expect("snapshot");
        // Simulate a crash after some doc bytes but before the commit.
        let mut torn = committed.clone();
        torn.extend_from_slice(&[7u8; 21]);
        std::fs::write(&path, &torn).expect("inject");
        let mut store = Store::open(&path).expect("recover");
        assert_eq!(store.len(), 1);
        assert!(store
            .get(&ContentHash::of(b"kept"))
            .expect("read")
            .is_some());
        assert_eq!(std::fs::read(&path).expect("reread"), committed);
    }

    #[test]
    fn bad_magic_is_a_typed_corruption() {
        let path = scratch("magic.rbd");
        std::fs::write(&path, b"NOTASTORE___").expect("inject");
        match Store::open(&path) {
            Err(StoreError::Corrupt { offset: 0, reason }) => {
                assert!(reason.contains("magic"), "{reason}");
            }
            other => panic!("expected corrupt magic, got {other:?}"),
        }
    }

    #[test]
    fn wrong_version_is_a_typed_corruption() {
        let path = scratch("version.rbd");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &bytes).expect("inject");
        match Store::open(&path) {
            Err(StoreError::Corrupt { reason, .. }) => {
                assert!(reason.contains("version"), "{reason}");
            }
            other => panic!("expected version corruption, got {other:?}"),
        }
    }

    #[test]
    fn commit_count_mismatch_is_a_typed_corruption() {
        let path = scratch("count.rbd");
        std::fs::remove_file(&path).ok();
        {
            let mut store = Store::open(&path).expect("create");
            store.append_batch(&[doc("one")]).expect("commit");
        }
        let mut bytes = std::fs::read(&path).expect("snapshot");
        // The commit frame is the last frame; its count is the 8 bytes
        // after the kind byte. Rewrite the count and refresh the CRC so
        // only the semantic check can catch it.
        let payload_len = 9;
        let frame_start = bytes.len() - (8 + payload_len);
        bytes[frame_start + 9..frame_start + 17].copy_from_slice(&42u64.to_le_bytes());
        let crc = crc32(&bytes[frame_start + 8..]);
        bytes[frame_start + 4..frame_start + 8].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &bytes).expect("inject");
        match Store::open(&path) {
            Err(StoreError::Corrupt { reason, .. }) => {
                assert!(reason.contains("commit frame records"), "{reason}");
            }
            other => panic!("expected count mismatch, got {other:?}"),
        }
    }

    #[test]
    fn committed_frame_bit_flip_surfaces_on_get() {
        let path = scratch("bitflip.rbd");
        std::fs::remove_file(&path).ok();
        let d = doc("flip");
        {
            let mut store = Store::open(&path).expect("create");
            store
                .append_batch(std::slice::from_ref(&d))
                .expect("commit");
        }
        let mut store = Store::open(&path).expect("reopen");
        assert!(store.contains(&d.hash));
        // Flip one byte inside the doc frame body, behind the index's back.
        let mut bytes = std::fs::read(&path).expect("snapshot");
        bytes[60] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("inject");
        match store.get(&d.hash) {
            Err(StoreError::Corrupt { reason, .. }) => {
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected checksum corruption, got {other:?}"),
        }
    }

    #[test]
    fn hit_layer_memoizes_and_matches_get() {
        let path = scratch("hitlayer.rbd");
        std::fs::remove_file(&path).ok();
        let d = doc("resident");
        let mut store = Store::open(&path).expect("create");
        store
            .append_batch(std::slice::from_ref(&d))
            .expect("commit");
        assert!(store
            .hit(&ContentHash::of(b"absent"))
            .expect("read")
            .is_none());
        let first = store.hit(&d.hash).expect("read").expect("present");
        assert_eq!(first.response, d.response_json().to_compact());
        // Second hit returns the same shared entry, no re-parse.
        let second = store.hit(&d.hash).expect("read").expect("present");
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn error_display_and_kind_are_stable() {
        let e = StoreError::Corrupt {
            offset: 12,
            reason: "x".into(),
        };
        assert_eq!(e.to_string(), "corrupt store at byte 12: x");
        assert_eq!(e.kind(), "corrupt");
        assert_eq!(StoreError::TooLarge { bytes: 9 }.kind(), "too_large");
        assert_eq!(StoreError::Io(std::io::Error::other("boom")).kind(), "io");
        assert_eq!(
            StoreError::Json {
                offset: 0,
                message: "m".into()
            }
            .kind(),
            "json"
        );
    }
}
