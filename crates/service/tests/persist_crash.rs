//! Crash-safety sweep for the disk cache tier: a torn final frame —
//! cut at *every* possible byte offset — must never cost more than the
//! torn record itself.
//!
//! The log format is append-only CRC-framed records, so the only crash
//! the tier has to survive is a partial final write. This test builds a
//! known-good log, then simulates that crash exhaustively: for each cut
//! point inside the last frame it truncates the file there, boots a
//! fresh [`DiskTier`] on it, and asserts every complete record is
//! recovered byte-identical, the torn record is gone, and the log is
//! usable for new appends afterwards.

use std::sync::atomic::{AtomicU64, Ordering};

use bi_service::persist::{compact_path, frame_record, DiskTier, DiskTierConfig};

/// A unique temp path per call so parallel tests never collide.
fn temp_log(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("bi-crash-{}-{tag}-{n}.log", std::process::id()))
}

/// The fixture: three complete records plus one final frame that the
/// sweep tears. Varied key/value lengths so the cut points cross every
/// region of a frame — each length header, the CRC, the key, the value.
fn records() -> Vec<(Vec<u8>, Vec<u8>)> {
    vec![
        (b"alpha".to_vec(), b"the first value".to_vec()),
        (b"b".to_vec(), vec![0xAB; 64]),
        (b"gamma-key".to_vec(), Vec::new()),
        (
            b"the-final-key".to_vec(),
            b"payload of the torn frame".to_vec(),
        ),
    ]
}

#[test]
fn every_torn_tail_offset_recovers_all_complete_records() {
    let all = records();
    let (complete, torn) = all.split_at(all.len() - 1);
    let mut base = Vec::new();
    for (key, value) in complete {
        base.extend_from_slice(&frame_record(key, value));
    }
    let last = frame_record(&torn[0].0, &torn[0].1);

    let path = temp_log("sweep");
    // Cut at every offset that leaves the last frame incomplete: from
    // zero extra bytes up to one byte short of the full frame.
    for cut in 0..last.len() {
        let mut bytes = base.clone();
        bytes.extend_from_slice(&last[..cut]);
        std::fs::write(&path, &bytes).expect("write fixture");

        let tier = DiskTier::open(&path, DiskTierConfig::default()).expect("boot on torn log");
        let stats = tier.stats();
        assert_eq!(
            stats.recovered_records,
            complete.len() as u64,
            "cut at +{cut}: every complete record must be recovered"
        );
        assert_eq!(
            stats.truncated_bytes, cut as u64,
            "cut at +{cut}: exactly the torn bytes must be discarded"
        );
        for (key, value) in complete {
            assert_eq!(
                tier.get(key).as_deref(),
                Some(value.as_slice()),
                "cut at +{cut}: recovered value must be byte-identical"
            );
        }
        assert_eq!(
            tier.get(&torn[0].0),
            None,
            "cut at +{cut}: the torn record must not resurface"
        );
        drop(tier);
    }
    std::fs::remove_file(&path).ok();
}

/// The newest version of each key — what compaction must preserve.
type LiveSet = Vec<(Vec<u8>, Vec<u8>)>;

/// A log whose history overwrote two of its three keys, plus the
/// compacted image a finished rewrite would leave: the raw material for
/// the compaction crash sweeps below.
fn overwritten_log() -> (Vec<u8>, LiveSet, Vec<u8>) {
    let history: Vec<(&[u8], Vec<u8>)> = vec![
        (b"alpha", b"first alpha".to_vec()),
        (b"beta", vec![0x5A; 48]),
        (b"alpha", b"second alpha".to_vec()),
        (b"gamma", b"only gamma".to_vec()),
        (b"beta", b"final beta".to_vec()),
        (b"alpha", b"final alpha, the longest of the three".to_vec()),
    ];
    let mut log = Vec::new();
    for (key, value) in &history {
        log.extend_from_slice(&frame_record(key, value));
    }
    let live: Vec<(Vec<u8>, Vec<u8>)> = vec![
        (
            b"alpha".to_vec(),
            b"final alpha, the longest of the three".to_vec(),
        ),
        (b"beta".to_vec(), b"final beta".to_vec()),
        (b"gamma".to_vec(), b"only gamma".to_vec()),
    ];
    let mut compacted = Vec::new();
    for (key, value) in &live {
        compacted.extend_from_slice(&frame_record(key, value));
    }
    (log, live, compacted)
}

#[test]
fn a_compaction_crash_at_every_tmp_offset_leaves_the_old_log_authoritative() {
    let (log, live, compacted) = overwritten_log();
    let path = temp_log("compact-crash");
    let tmp = compact_path(&path);
    // A compaction that dies before its rename leaves the main log
    // complete and a partial `.compact` sibling — cut at every offset,
    // including the full fsynced-but-unrenamed image.
    for cut in 0..=compacted.len() {
        std::fs::write(&path, &log).expect("write main log");
        std::fs::write(&tmp, &compacted[..cut]).expect("write torn compact file");

        let tier = DiskTier::open(&path, DiskTierConfig::default()).expect("boot after crash");
        let stats = tier.stats();
        assert_eq!(
            stats.recovered_records, 6,
            "cut at +{cut}: the whole pre-compaction history must be scanned"
        );
        assert_eq!(
            stats.truncated_bytes, 0,
            "cut at +{cut}: the old log is clean"
        );
        for (key, value) in &live {
            assert_eq!(
                tier.get(key).as_deref(),
                Some(value.as_slice()),
                "cut at +{cut}: the last version of every key must survive"
            );
        }
        drop(tier);
        assert!(
            !tmp.exists(),
            "cut at +{cut}: boot must discard the half-written rewrite"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_compaction_that_reached_its_rename_boots_on_the_live_set() {
    let (_, live, compacted) = overwritten_log();
    // Past the commit point the compacted image *is* the main log and no
    // sibling remains — exactly what the atomic rename leaves behind.
    let path = temp_log("compact-done");
    std::fs::write(&path, &compacted).expect("write compacted log");

    let tier = DiskTier::open(&path, DiskTierConfig::default()).expect("boot on compacted log");
    let stats = tier.stats();
    assert_eq!(stats.recovered_records, live.len() as u64);
    assert_eq!(stats.truncated_bytes, 0);
    assert_eq!(
        stats.log_bytes, stats.live_bytes,
        "a freshly compacted log carries no dead weight"
    );
    for (key, value) in &live {
        assert_eq!(tier.get(key).as_deref(), Some(value.as_slice()));
    }
    drop(tier);
    std::fs::remove_file(&path).ok();
}

#[test]
fn compaction_bounds_the_log_to_twice_its_live_bytes() {
    let path = temp_log("compact-bound");
    let config = DiskTierConfig {
        compact_min_bytes: 1024,
    };
    let keys = 32usize;
    let versions = 40u32;
    {
        let tier = DiskTier::open(&path, config).expect("open");
        // Overwrite a small key set many times: almost all appended
        // bytes are dead weight, so the ratio trigger must fire.
        for version in 0..versions {
            for key in 0..keys {
                let value = format!("key {key} at version {version}, padded {}", "x".repeat(64));
                tier.append(format!("key-{key}").as_bytes(), value.as_bytes());
            }
            tier.sync();
        }
        let stats = tier.stats();
        assert!(stats.compactions >= 1, "the rewrite trigger must fire");
        assert!(
            stats.log_bytes <= 2 * stats.live_bytes,
            "log ({}) must stay within 2x live bytes ({})",
            stats.log_bytes,
            stats.live_bytes,
        );
        for key in 0..keys {
            let expect = format!(
                "key {key} at version {}, padded {}",
                versions - 1,
                "x".repeat(64)
            );
            assert_eq!(
                tier.get(format!("key-{key}").as_bytes()).as_deref(),
                Some(expect.as_bytes()),
                "compaction must keep exactly the newest version"
            );
        }
    }
    // Reboot: the boot scan sees the compacted log plus whatever landed
    // after the last rewrite, and still resolves every key to its
    // newest version.
    let tier = DiskTier::open(&path, config).expect("reboot");
    let stats = tier.stats();
    assert_eq!(stats.truncated_bytes, 0);
    assert!(stats.log_bytes <= 2 * stats.live_bytes);
    for key in 0..keys {
        let expect = format!(
            "key {key} at version {}, padded {}",
            versions - 1,
            "x".repeat(64)
        );
        assert_eq!(
            tier.get(format!("key-{key}").as_bytes()).as_deref(),
            Some(expect.as_bytes())
        );
    }
    drop(tier);
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_torn_log_accepts_new_appends_and_replays_them_after_reboot() {
    let all = records();
    let (complete, torn) = all.split_at(all.len() - 1);
    let mut bytes = Vec::new();
    for (key, value) in complete {
        bytes.extend_from_slice(&frame_record(key, value));
    }
    // Tear the final frame mid-CRC (inside the 12-byte header).
    let last = frame_record(&torn[0].0, &torn[0].1);
    bytes.extend_from_slice(&last[..9]);

    let path = temp_log("resume");
    std::fs::write(&path, &bytes).expect("write fixture");

    {
        let tier = DiskTier::open(&path, DiskTierConfig::default()).expect("boot on torn log");
        assert_eq!(tier.stats().recovered_records, complete.len() as u64);
        // Re-append the record the crash destroyed, plus a fresh one.
        tier.append(&torn[0].0, &torn[0].1);
        tier.append(b"post-crash", b"written after recovery");
        tier.sync();
    }

    let tier = DiskTier::open(&path, DiskTierConfig::default()).expect("reboot");
    let stats = tier.stats();
    assert_eq!(
        stats.recovered_records,
        all.len() as u64 + 1,
        "the truncated tail must not shadow post-recovery appends"
    );
    assert_eq!(stats.truncated_bytes, 0, "the reopened log is clean");
    for (key, value) in &all {
        assert_eq!(tier.get(key).as_deref(), Some(value.as_slice()));
    }
    assert_eq!(
        tier.get(b"post-crash").as_deref(),
        Some(b"written after recovery".as_slice())
    );
    drop(tier);
    std::fs::remove_file(&path).ok();
}
