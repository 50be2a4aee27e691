//! The disk-backed second cache tier: an append-only log of canonical
//! request bytes → response bytes, CRC-framed, with an in-memory FNV
//! index rebuilt by scanning on boot.
//!
//! The paper's measures are pure functions of the canonical request
//! bytes, so the cache key *is* the result identity — which makes a
//! persistent tier exact: replaying the log after a restart serves the
//! same bytes the engine computed before it. The in-memory LRU stays the
//! first tier; this log is the second, consulted on LRU misses (with
//! promotion back into the LRU) and appended **behind** the hot path by
//! a dedicated writer thread, so neither the reactor nor the solver pool
//! ever blocks on `write(2)`.
//!
//! # On-disk format
//!
//! The log is a sequence of frames, each:
//!
//! ```text
//! [key_len: u32 LE][val_len: u32 LE][crc32: u32 LE][key bytes][val bytes]
//! ```
//!
//! where the CRC-32 (IEEE, [`bi_util::crc32`]) covers `key ‖ val`. A
//! crash mid-append leaves a torn tail: on boot the scan stops at the
//! first incomplete or CRC-invalid frame, truncates the file back to the
//! last whole record, and keeps serving — recovery is never fatal. A key
//! appended twice keeps the last value (the scan overwrites the index
//! entry), though in practice the content-addressed keying makes every
//! re-append byte-identical.
//!
//! # Examples
//!
//! ```
//! use bi_service::persist::{DiskTier, DiskTierConfig};
//!
//! let path = std::env::temp_dir().join(format!("bi-doc-{}.log", std::process::id()));
//! # let _ = std::fs::remove_file(&path);
//! let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
//! tier.append(b"key", b"value");
//! tier.sync();
//! drop(tier);
//! // A reboot rebuilds the index by scanning the log.
//! let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
//! assert_eq!(tier.get(b"key").as_deref(), Some(&b"value"[..]));
//! # drop(tier);
//! # std::fs::remove_file(&path).unwrap();
//! ```

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use bi_util::{crc32, Crc32, FnvBuildHasher};

/// Frame header: `key_len`, `val_len`, `crc32`.
const HEADER_LEN: u64 = 12;

/// Bound of the write-behind queue; when full, appends are dropped (and
/// counted) instead of blocking the hot path.
const QUEUE_CAPACITY: usize = 4096;

/// Compaction trigger: the log is rewritten once its on-disk size
/// exceeds this multiple of the live (last-version) bytes.
const COMPACT_RATIO: u64 = 2;

/// The compaction floor of a [`DiskTier`]. The write-behind queue bound
/// (4096 appends) and the compaction ratio (2× live bytes) are fixed.
#[derive(Clone, Copy, Debug)]
pub struct DiskTierConfig {
    /// Logs smaller than this never compact — rewriting a few KiB to
    /// reclaim half of it is churn, not savings.
    pub compact_min_bytes: u64,
}

impl Default for DiskTierConfig {
    /// Compaction only on logs of at least 64 KiB.
    fn default() -> Self {
        DiskTierConfig {
            compact_min_bytes: 64 * 1024,
        }
    }
}

/// A point-in-time snapshot of the disk tier, reported by `GET /metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskTierStats {
    /// Whole records recovered by the boot scan.
    pub recovered_records: u64,
    /// Torn-tail bytes truncated by the boot scan (0 on a clean log).
    pub truncated_bytes: u64,
    /// `get` calls answered from disk.
    pub hits: u64,
    /// `get` calls that found no entry.
    pub misses: u64,
    /// Records durably appended since boot.
    pub appends: u64,
    /// Appends dropped because the write-behind queue was full.
    pub dropped_appends: u64,
    /// Log rewrites completed since boot.
    pub compactions: u64,
    /// Current on-disk log size in bytes.
    pub log_bytes: u64,
    /// Bytes of the live (last-version) records, headers included —
    /// what a compaction would shrink the log to.
    pub live_bytes: u64,
    /// Distinct keys currently indexed.
    pub entries: usize,
}

/// Where a value lives in the log.
#[derive(Clone, Copy, Debug)]
struct ValueLoc {
    offset: u64,
    len: u32,
}

/// Counters shared between the tier handle and its writer thread.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    appends: AtomicU64,
    dropped_appends: AtomicU64,
    compactions: AtomicU64,
    log_bytes: AtomicU64,
    live_bytes: AtomicU64,
}

/// Key bytes → value location; rebuilt by the boot scan, extended by
/// the writer thread as appends land.
type Index = HashMap<Arc<[u8]>, ValueLoc, FnvBuildHasher>;

/// One message to the write-behind thread.
enum WriteMsg {
    /// Append `key → value` to the log.
    Append(Vec<u8>, Arc<[u8]>),
    /// Flush everything queued so far and ack.
    Barrier(SyncSender<()>),
}

/// The disk-backed cache tier. Cheap to share behind an `Arc`; dropping
/// the last handle flushes and joins the writer thread.
pub struct DiskTier {
    index: Arc<Mutex<Index>>,
    /// Read handle. Lookups hold this lock across the index probe *and*
    /// the value read, and compaction swaps the handle (plus the index
    /// offsets) while holding the same lock — so a reader can never pair
    /// a pre-compaction offset with the post-compaction file. Normal
    /// appends only ever grow the file past every indexed offset, so
    /// they need no such coordination.
    reader: Arc<Mutex<File>>,
    tx: Option<SyncSender<WriteMsg>>,
    writer: Option<JoinHandle<()>>,
    counters: Arc<Counters>,
    recovered_records: u64,
    truncated_bytes: u64,
    path: PathBuf,
}

impl DiskTier {
    /// Opens (or creates) the log at `path`, scanning it to rebuild the
    /// in-memory index. A torn tail — from a crash mid-append — is
    /// truncated, not fatal; every complete record is recovered.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures (open, scan read, truncate).
    pub fn open(path: impl AsRef<Path>, config: DiskTierConfig) -> io::Result<DiskTier> {
        let path = path.as_ref().to_path_buf();
        // A leftover `.compact` file is a compaction that died before its
        // rename — the main log is still complete, so the half-written
        // rewrite is garbage.
        let _ = std::fs::remove_file(compact_path(&path));
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let (index, end, recovered, file_len, live) = scan_log(&mut file)?;
        let truncated = file_len - end;
        if truncated > 0 {
            file.set_len(end)?;
        }
        let append_file = OpenOptions::new().append(true).open(&path)?;
        let index = Arc::new(Mutex::new(index));
        let counters = Arc::new(Counters::default());
        counters.log_bytes.store(end, Ordering::Relaxed);
        counters.live_bytes.store(live, Ordering::Relaxed);
        let reader = Arc::new(Mutex::new(file));
        let (tx, rx) = sync_channel(QUEUE_CAPACITY);
        let writer = {
            let index = Arc::clone(&index);
            let counters = Arc::clone(&counters);
            let reader = Arc::clone(&reader);
            let path = path.clone();
            std::thread::spawn(move || {
                let mut state = WriterState {
                    out: BufWriter::new(append_file),
                    end,
                    live,
                    path,
                    compact_min_bytes: config.compact_min_bytes,
                };
                writer_loop(&rx, &mut state, &index, &reader, &counters);
            })
        };
        Ok(DiskTier {
            index,
            reader,
            tx: Some(tx),
            writer: Some(writer),
            counters,
            recovered_records: recovered,
            truncated_bytes: truncated,
            path,
        })
    }

    /// The log path this tier persists to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Looks up `key`, reading the value bytes back off the log.
    /// Returns `None` when the key was never durably appended (including
    /// appends still queued behind the write-behind channel).
    #[must_use]
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        // Lock order: reader, then index — the same order compaction
        // uses to swap both, so an offset looked up here is always read
        // against the file it indexes into.
        let mut file = self.reader.lock().expect("disk reader poisoned");
        let loc = {
            let index = self.index.lock().expect("disk index poisoned");
            index.get(key).copied()
        };
        let Some(loc) = loc else {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let mut value = vec![0u8; loc.len as usize];
        if file
            .seek(SeekFrom::Start(loc.offset))
            .and_then(|_| file.read_exact(&mut value))
            .is_err()
        {
            // An indexed record must be readable; treat I/O decay as
            // a miss rather than serving partial bytes.
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        drop(file);
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
        Some(value)
    }

    /// Queues `key → value` for appending. Never blocks: when the
    /// write-behind queue is full the append is dropped and counted —
    /// the disk tier is an optimization, not a durability contract.
    pub fn append(&self, key: &[u8], value: &[u8]) {
        self.append_shared(key, Arc::from(value));
    }

    /// [`DiskTier::append`] taking the value as the shared `Arc` the
    /// cache already holds, avoiding a copy on the hot path.
    pub fn append_shared(&self, key: &[u8], value: Arc<[u8]>) {
        let Some(tx) = &self.tx else { return };
        match tx.try_send(WriteMsg::Append(key.to_vec(), value)) {
            Ok(()) => {}
            Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                self.counters
                    .dropped_appends
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Blocks until every append queued before this call is durably on
    /// disk and indexed (tests and orderly shutdown; the serving path
    /// never calls this).
    pub fn sync(&self) {
        let Some(tx) = &self.tx else { return };
        let (ack_tx, ack_rx) = sync_channel(1);
        if tx.send(WriteMsg::Barrier(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// A point-in-time effectiveness snapshot.
    #[must_use]
    pub fn stats(&self) -> DiskTierStats {
        DiskTierStats {
            recovered_records: self.recovered_records,
            truncated_bytes: self.truncated_bytes,
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            appends: self.counters.appends.load(Ordering::Relaxed),
            dropped_appends: self.counters.dropped_appends.load(Ordering::Relaxed),
            compactions: self.counters.compactions.load(Ordering::Relaxed),
            log_bytes: self.counters.log_bytes.load(Ordering::Relaxed),
            live_bytes: self.counters.live_bytes.load(Ordering::Relaxed),
            entries: self.index.lock().expect("disk index poisoned").len(),
        }
    }
}

impl Drop for DiskTier {
    fn drop(&mut self) {
        drop(self.tx.take()); // disconnects the writer's recv
        if let Some(writer) = self.writer.take() {
            let _ = writer.join();
        }
    }
}

/// Scans the log from the start, returning the rebuilt index, the byte
/// offset of the last whole record's end, the record count, the file
/// length, and the live bytes (last-version frames only). Stops (without
/// error) at the first torn or CRC-invalid frame.
fn scan_log(file: &mut File) -> io::Result<(Index, u64, u64, u64, u64)> {
    let file_len = file.seek(SeekFrom::End(0))?;
    file.seek(SeekFrom::Start(0))?;
    let mut reader = io::BufReader::new(&mut *file);
    let mut index = Index::with_hasher(FnvBuildHasher);
    let mut pos = 0u64;
    let mut recovered = 0u64;
    let mut live = 0u64;
    loop {
        if file_len - pos < HEADER_LEN {
            break; // torn or empty header
        }
        let mut header = [0u8; HEADER_LEN as usize];
        reader.read_exact(&mut header)?;
        let key_len = u64::from(u32::from_le_bytes(
            header[0..4].try_into().expect("4 bytes"),
        ));
        let val_len = u64::from(u32::from_le_bytes(
            header[4..8].try_into().expect("4 bytes"),
        ));
        let crc = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        let payload = key_len + val_len;
        if file_len - pos - HEADER_LEN < payload {
            break; // torn payload (or a garbage length field — same thing)
        }
        let mut key = vec![0u8; key_len as usize];
        reader.read_exact(&mut key)?;
        let mut val = vec![0u8; val_len as usize];
        reader.read_exact(&mut val)?;
        let mut acc = Crc32::new();
        acc.update(&key);
        acc.update(&val);
        if acc.finish() != crc {
            break; // corrupt frame: treat as the new end of log
        }
        let val_offset = pos + HEADER_LEN + key_len;
        let replaced = index.insert(
            Arc::from(key),
            ValueLoc {
                offset: val_offset,
                len: u32::try_from(val_len).expect("val_len came from a u32"),
            },
        );
        live += HEADER_LEN + payload;
        if let Some(old) = replaced {
            // The superseded frame had the same key, so its dead weight
            // is the same header + key plus its own value length.
            live -= HEADER_LEN + key_len + u64::from(old.len);
        }
        recovered += 1;
        pos += HEADER_LEN + payload;
    }
    Ok((index, pos, recovered, file_len, live))
}

/// The writer thread's mutable view of the log: the append handle, the
/// current end offset, and the live-byte estimate compaction triggers on.
struct WriterState {
    out: BufWriter<File>,
    end: u64,
    live: u64,
    path: PathBuf,
    compact_min_bytes: u64,
}

/// The sibling path a compaction rewrites into before the atomic rename.
#[must_use]
pub fn compact_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".compact");
    PathBuf::from(name)
}

/// The write-behind thread: frames and appends records, indexing each
/// one once it (and everything before it) is flushed, and compacting
/// the log when dead re-append weight crosses `COMPACT_RATIO`.
fn writer_loop(
    rx: &Receiver<WriteMsg>,
    state: &mut WriterState,
    index: &Mutex<Index>,
    reader: &Mutex<File>,
    counters: &Counters,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            WriteMsg::Append(key, value) => {
                let key_len = u32::try_from(key.len()).unwrap_or(u32::MAX);
                let val_len = u32::try_from(value.len()).unwrap_or(u32::MAX);
                if key_len as usize != key.len() || val_len as usize != value.len() {
                    counters.dropped_appends.fetch_add(1, Ordering::Relaxed);
                    continue; // a >4 GiB frame cannot be framed; skip it
                }
                let mut acc = Crc32::new();
                acc.update(&key);
                acc.update(&value);
                let write = state
                    .out
                    .write_all(&key_len.to_le_bytes())
                    .and_then(|()| state.out.write_all(&val_len.to_le_bytes()))
                    .and_then(|()| state.out.write_all(&acc.finish().to_le_bytes()))
                    .and_then(|()| state.out.write_all(&key))
                    .and_then(|()| state.out.write_all(&value))
                    .and_then(|()| state.out.flush());
                if write.is_err() {
                    // The log is now suspect past `end`; stop appending
                    // (boot-scan truncation repairs the tail) but keep
                    // draining so the hot path's try_send never sees a
                    // dropped receiver mid-run.
                    counters.dropped_appends.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let val_offset = state.end + HEADER_LEN + u64::from(key_len);
                let frame = HEADER_LEN + u64::from(key_len) + u64::from(val_len);
                let replaced = index.lock().expect("disk index poisoned").insert(
                    Arc::from(key),
                    ValueLoc {
                        offset: val_offset,
                        len: val_len,
                    },
                );
                state.end += frame;
                state.live += frame;
                if let Some(old) = replaced {
                    state.live -= HEADER_LEN + u64::from(key_len) + u64::from(old.len);
                }
                counters.appends.fetch_add(1, Ordering::Relaxed);
                counters.log_bytes.store(state.end, Ordering::Relaxed);
                counters.live_bytes.store(state.live, Ordering::Relaxed);
                maybe_compact(state, index, reader, counters);
            }
            WriteMsg::Barrier(ack) => {
                let _ = state.out.flush();
                let _ = ack.try_send(());
            }
        }
    }
    let _ = state.out.flush();
}

/// Compacts when the log has outgrown `COMPACT_RATIO` times its
/// live bytes. All fallible work — rewriting the live records into a
/// sibling file, fsyncing it, opening the new read/append handles —
/// happens *before* the commit point, a single atomic rename; a crash
/// anywhere before it leaves the original log untouched (the leftover
/// `.compact` file is removed on the next boot), and a crash after it
/// leaves the fully-fsynced compacted log. Failures abort the attempt
/// and keep serving from the old log.
fn maybe_compact(
    state: &mut WriterState,
    index: &Mutex<Index>,
    reader: &Mutex<File>,
    counters: &Counters,
) {
    if state.end < state.compact_min_bytes || state.end <= state.live.saturating_mul(COMPACT_RATIO)
    {
        return;
    }
    // Snapshot the live set. Only this thread mutates the index, so the
    // snapshot cannot go stale before the swap below.
    let entries: Vec<(Arc<[u8]>, ValueLoc)> = {
        let index = index.lock().expect("disk index poisoned");
        index.iter().map(|(k, &loc)| (Arc::clone(k), loc)).collect()
    };
    let tmp = compact_path(&state.path);
    let rewritten = rewrite_live(&state.path, &tmp, &entries);
    let Ok((new_index, new_end)) = rewritten else {
        let _ = std::fs::remove_file(&tmp);
        return;
    };
    // Open both successor handles on the sibling file *before* the
    // rename — they stay valid across it (same inode), so once the
    // rename lands nothing can fail.
    let Ok(new_reader) = OpenOptions::new().read(true).open(&tmp) else {
        let _ = std::fs::remove_file(&tmp);
        return;
    };
    let Ok(new_append) = OpenOptions::new().append(true).open(&tmp) else {
        let _ = std::fs::remove_file(&tmp);
        return;
    };
    {
        // Same lock order as `DiskTier::get`: reader, then index. While
        // both are held, readers can neither look up an offset nor read
        // a value, so the offsets and the file swap together.
        let mut reader = reader.lock().expect("disk reader poisoned");
        let mut index = index.lock().expect("disk index poisoned");
        if std::fs::rename(&tmp, &state.path).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        *index = new_index;
        *reader = new_reader;
    }
    state.out = BufWriter::new(new_append);
    state.end = new_end;
    state.live = new_end;
    counters.compactions.fetch_add(1, Ordering::Relaxed);
    counters.log_bytes.store(new_end, Ordering::Relaxed);
    counters.live_bytes.store(new_end, Ordering::Relaxed);
}

/// Writes every live record of `src` into `dst` (fsynced), returning
/// the rebuilt index and the new log size. Records are re-framed from
/// the values read back off the old log, so the result is byte-identical
/// to a log that only ever saw the last version of each key.
fn rewrite_live(
    src: &Path,
    dst: &Path,
    entries: &[(Arc<[u8]>, ValueLoc)],
) -> io::Result<(Index, u64)> {
    let mut from = OpenOptions::new().read(true).open(src)?;
    let file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(dst)?;
    let mut out = BufWriter::new(file);
    let mut new_index = Index::with_hasher(FnvBuildHasher);
    let mut pos = 0u64;
    for (key, loc) in entries {
        let mut value = vec![0u8; loc.len as usize];
        from.seek(SeekFrom::Start(loc.offset))?;
        from.read_exact(&mut value)?;
        let frame = frame_record(key, &value);
        out.write_all(&frame)?;
        new_index.insert(
            Arc::clone(key),
            ValueLoc {
                offset: pos + HEADER_LEN + key.len() as u64,
                len: loc.len,
            },
        );
        pos += frame.len() as u64;
    }
    out.flush()?;
    out.get_ref().sync_all()?;
    Ok((new_index, pos))
}

/// A CRC-framed record as [`DiskTier`] writes it — exposed so tests can
/// author and dissect log files byte-exactly.
#[must_use]
pub fn frame_record(key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut acc = Crc32::new();
    acc.update(key);
    acc.update(value);
    let mut out = Vec::with_capacity(HEADER_LEN as usize + key.len() + value.len());
    out.extend_from_slice(
        &u32::try_from(key.len())
            .expect("test keys fit u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(
        &u32::try_from(value.len())
            .expect("test values fit u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(&acc.finish().to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(value);
    debug_assert_eq!(crc32(&[key, value].concat()), acc.finish());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("bi-persist-{}-{tag}-{n}.log", std::process::id()))
    }

    #[test]
    fn appends_survive_a_reopen() {
        let path = temp_log("reopen");
        {
            let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
            tier.append(b"k1", b"v1");
            tier.append(b"k2", b"v2-longer");
            tier.sync();
            assert_eq!(tier.get(b"k1").as_deref(), Some(&b"v1"[..]));
            let stats = tier.stats();
            assert_eq!(stats.appends, 2);
            assert_eq!(stats.entries, 2);
            assert_eq!(stats.recovered_records, 0);
        }
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        let stats = tier.stats();
        assert_eq!(stats.recovered_records, 2);
        assert_eq!(stats.truncated_bytes, 0);
        assert_eq!(tier.get(b"k1").as_deref(), Some(&b"v1"[..]));
        assert_eq!(tier.get(b"k2").as_deref(), Some(&b"v2-longer"[..]));
        assert_eq!(tier.get(b"k3"), None);
        assert_eq!(tier.stats().hits, 2);
        assert_eq!(tier.stats().misses, 1);
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewritten_keys_keep_the_last_value() {
        let path = temp_log("rewrite");
        {
            let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
            tier.append(b"k", b"old");
            tier.append(b"k", b"new");
            tier.sync();
            assert_eq!(tier.get(b"k").as_deref(), Some(&b"new"[..]));
        }
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        assert_eq!(tier.get(b"k").as_deref(), Some(&b"new"[..]));
        assert_eq!(tier.stats().recovered_records, 2, "both frames are whole");
        assert_eq!(tier.stats().entries, 1, "one key");
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_middle_frame_truncates_everything_after_it() {
        let path = temp_log("corrupt");
        let mut log = Vec::new();
        log.extend_from_slice(&frame_record(b"a", b"1"));
        let corrupt_at = log.len() + HEADER_LEN as usize; // first key byte of frame 2
        log.extend_from_slice(&frame_record(b"b", b"2"));
        log.extend_from_slice(&frame_record(b"c", b"3"));
        log[corrupt_at] ^= 0xFF;
        std::fs::write(&path, &log).unwrap();
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        let stats = tier.stats();
        // The CRC failure on frame 2 ends the log there; frame 3 is
        // unreachable (the log is append-only, so bytes after a corrupt
        // frame have no trustworthy framing).
        assert_eq!(stats.recovered_records, 1);
        assert!(stats.truncated_bytes > 0);
        assert_eq!(tier.get(b"a").as_deref(), Some(&b"1"[..]));
        assert_eq!(tier.get(b"b"), None);
        drop(tier);
        // The truncation is durable: a re-open sees a clean short log.
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        assert_eq!(tier.stats().truncated_bytes, 0);
        assert_eq!(tier.stats().recovered_records, 1);
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_resume_cleanly_after_a_torn_tail() {
        let path = temp_log("resume");
        let mut log = Vec::new();
        log.extend_from_slice(&frame_record(b"a", b"1"));
        log.extend_from_slice(&frame_record(b"b", b"2"));
        log.truncate(log.len() - 1); // torn tail
        std::fs::write(&path, &log).unwrap();
        {
            let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
            assert_eq!(tier.stats().recovered_records, 1);
            tier.append(b"c", b"3");
            tier.sync();
            assert_eq!(tier.get(b"c").as_deref(), Some(&b"3"[..]));
        }
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        assert_eq!(tier.stats().recovered_records, 2);
        assert_eq!(tier.get(b"a").as_deref(), Some(&b"1"[..]));
        assert_eq!(tier.get(b"b"), None, "the torn record stays gone");
        assert_eq!(tier.get(b"c").as_deref(), Some(&b"3"[..]));
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }

    /// A config that compacts aggressively (no minimum size) so tests
    /// can trigger rewrites with a handful of records.
    fn eager_compaction() -> DiskTierConfig {
        DiskTierConfig {
            compact_min_bytes: 1,
        }
    }

    #[test]
    fn re_appends_trigger_compaction_and_bound_the_log() {
        let path = temp_log("compact");
        let tier = DiskTier::open(&path, eager_compaction()).unwrap();
        // 8 distinct keys, each overwritten 8 times: without compaction
        // the log holds 64 frames for 8 live records.
        for round in 0..8u8 {
            for k in 0..8u8 {
                tier.append(&[b'k', k], &[round; 100]);
            }
        }
        tier.sync();
        let stats = tier.stats();
        assert!(stats.compactions > 0, "overwrites must trigger a rewrite");
        assert!(
            stats.log_bytes <= 2 * stats.live_bytes,
            "log ({}) must stay within 2x live bytes ({})",
            stats.log_bytes,
            stats.live_bytes
        );
        // Every key still answers its last value, through the swap.
        for k in 0..8u8 {
            assert_eq!(tier.get(&[b'k', k]).as_deref(), Some(&[7u8; 100][..]));
        }
        drop(tier);
        // The compacted log replays clean: exactly the live records.
        let tier = DiskTier::open(&path, eager_compaction()).unwrap();
        assert_eq!(tier.stats().truncated_bytes, 0);
        assert_eq!(tier.stats().entries, 8);
        for k in 0..8u8 {
            assert_eq!(tier.get(&[b'k', k]).as_deref(), Some(&[7u8; 100][..]));
        }
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appends_after_compaction_land_in_the_new_log() {
        let path = temp_log("compact-append");
        let tier = DiskTier::open(&path, eager_compaction()).unwrap();
        for round in 0..4u8 {
            tier.append(b"hot", &[round; 64]);
        }
        tier.sync();
        assert!(tier.stats().compactions > 0);
        tier.append(b"fresh", b"post-compaction value");
        tier.sync();
        assert_eq!(
            tier.get(b"fresh").as_deref(),
            Some(&b"post-compaction value"[..])
        );
        drop(tier);
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        assert_eq!(tier.get(b"hot").as_deref(), Some(&[3u8; 64][..]));
        assert_eq!(
            tier.get(b"fresh").as_deref(),
            Some(&b"post-compaction value"[..])
        );
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_stale_compact_sibling_is_discarded_on_boot() {
        let path = temp_log("stale-sibling");
        let mut log = Vec::new();
        log.extend_from_slice(&frame_record(b"a", b"1"));
        log.extend_from_slice(&frame_record(b"b", b"2"));
        std::fs::write(&path, &log).unwrap();
        // A compaction that crashed pre-rename: a half-written sibling.
        std::fs::write(compact_path(&path), &frame_record(b"a", b"1")[..7]).unwrap();
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        assert_eq!(tier.stats().recovered_records, 2);
        assert_eq!(tier.get(b"a").as_deref(), Some(&b"1"[..]));
        assert_eq!(tier.get(b"b").as_deref(), Some(&b"2"[..]));
        assert!(
            !compact_path(&path).exists(),
            "the dead rewrite must be cleaned up"
        );
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn live_bytes_track_the_last_version_of_each_key() {
        let path = temp_log("live-bytes");
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        tier.append(b"k", b"four");
        tier.append(b"k", b"eight-by!");
        tier.sync();
        let stats = tier.stats();
        let frame = |val: usize| HEADER_LEN + 1 + val as u64;
        assert_eq!(stats.log_bytes, frame(4) + frame(9));
        assert_eq!(stats.live_bytes, frame(9));
        drop(tier);
        // The boot scan recomputes the same accounting.
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        let stats = tier.stats();
        assert_eq!(stats.log_bytes, frame(4) + frame(9));
        assert_eq!(stats.live_bytes, frame(9));
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_length_fields_are_a_torn_tail_not_an_allocation() {
        let path = temp_log("garbage");
        let mut log = frame_record(b"a", b"1");
        // A header claiming a 3 GiB payload that isn't there: must be
        // treated as torn (no allocation of the claimed size).
        log.extend_from_slice(&0xC000_0000u32.to_le_bytes());
        log.extend_from_slice(&0xC000_0000u32.to_le_bytes());
        log.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &log).unwrap();
        let tier = DiskTier::open(&path, DiskTierConfig::default()).unwrap();
        assert_eq!(tier.stats().recovered_records, 1);
        assert_eq!(tier.get(b"a").as_deref(), Some(&b"1"[..]));
        drop(tier);
        std::fs::remove_file(&path).unwrap();
    }
}
