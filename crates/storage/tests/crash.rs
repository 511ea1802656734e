//! Crash-recovery behavior the conformance suite can't express
//! generically: corruption detection in active and sealed segments,
//! and every window of an interrupted segment compaction.

use std::fs;
use std::path::{Path, PathBuf};
use storage::{
    NamespaceProfile, Retention, SegmentBackend, SegmentOptions, StorageBackend, StorageError,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("roleclass-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn small() -> SegmentOptions {
    SegmentOptions {
        max_segment_bytes: 1 << 20,
        max_segment_records: 4,
        compact_sealed_segments: 3,
        index_every: 2,
    }
}

/// Drives enough appends through a segment namespace that at least one
/// compaction has produced a covering segment.
fn build_compacted(dir: &PathBuf) -> Vec<(u64, Vec<u8>)> {
    let b = SegmentBackend::with_options(dir, small()).unwrap();
    b.define("log", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    let mut expect = Vec::new();
    // 12 records = three seals, which triggers exactly ONE compaction:
    // the covering segment holds keys 0..=7 and nothing newer.
    for key in 0..12u64 {
        let value = format!("record-{key}").into_bytes();
        b.append("log", key, &value).unwrap();
        expect.push((key, value));
    }
    b.flush().unwrap();
    let covering = fs::read_dir(dir.join("log"))
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("seg-") && {
                let body = name.trim_start_matches("seg-").trim_end_matches(".seg");
                let (lo, hi) = body.split_once('-').unwrap();
                lo != hi
            }
        })
        .count();
    assert!(covering >= 1, "the workload must trigger a compaction");
    expect
}

fn scan_all(b: &dyn StorageBackend) -> Vec<(u64, Vec<u8>)> {
    b.scan("log", 0, u64::MAX)
        .unwrap()
        .into_iter()
        .map(|r| (r.key, r.value))
        .collect()
}

/// The one segment file of namespace directory `ns_dir`.
fn only_segment(ns_dir: &Path) -> PathBuf {
    let segs: Vec<PathBuf> = fs::read_dir(ns_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .collect();
    assert_eq!(segs.len(), 1, "expected a single (active) segment");
    segs.into_iter().next().unwrap()
}

/// Flips one bit of the byte at `at` in `path`, returning the new bytes.
fn flip(path: &Path, at: usize) -> Vec<u8> {
    let mut bytes = fs::read(path).unwrap();
    bytes[at] ^= 0x20;
    fs::write(path, &bytes).unwrap();
    bytes
}

fn expect_corrupt(b: &SegmentBackend, ns: &str, profile: NamespaceProfile) {
    match b.define(ns, profile) {
        Err(StorageError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn segment_active_interior_corruption_is_detected_not_misread() {
    // 8-byte segment magic, then records of a 16-byte header plus the
    // payload; every payload below is 7 bytes, so record i starts at
    // byte 8 + 23 * i and its payload 16 bytes later.
    let payload_byte = |i: usize| 8 + 23 * i + 16;
    let log = NamespaceProfile::log(Retention::unbounded());

    // Log namespace: a bad record with valid records after it is
    // corruption, not a torn tail. Open must refuse rather than cut
    // the namespace back to record 0, and must leave the file alone.
    let dir = temp_dir("seg-active-log");
    {
        let b = SegmentBackend::new(&dir).unwrap();
        b.define("log", log).unwrap();
        for key in 0..4u64 {
            b.append("log", key, format!("value-{key}").as_bytes())
                .unwrap();
        }
        b.flush().unwrap();
    }
    let seg = only_segment(&dir.join("log"));
    let damaged = flip(&seg, payload_byte(1));
    expect_corrupt(&SegmentBackend::new(&dir).unwrap(), "log", log);
    assert_eq!(fs::read(&seg).unwrap(), damaged, "a refused open truncated");

    // The same damage on the final record reaches EOF: that is a torn
    // append, dropped on open while every earlier record survives.
    flip(&seg, payload_byte(1));
    flip(&seg, payload_byte(3));
    let b = SegmentBackend::new(&dir).unwrap();
    b.define("log", log).unwrap();
    assert_eq!(
        scan_all(&b),
        (0..3u64)
            .map(|k| (k, format!("value-{k}").into_bytes()))
            .collect::<Vec<_>>()
    );
    let _ = fs::remove_dir_all(&dir);

    // Snapshot namespace capped at two generations: generation A is
    // already retired, but its bytes still sit in the active segment
    // ahead of the live B and C. Damage there must not cost B and C
    // silently (the checkpoint ladder would start fresh).
    let dir = temp_dir("seg-active-snap");
    let snap = NamespaceProfile::snapshot(2);
    {
        let b = SegmentBackend::new(&dir).unwrap();
        b.define("ckpt", snap).unwrap();
        for gen in ["gen-AAA", "gen-BBB", "gen-CCC"] {
            b.append("ckpt", 0, gen.as_bytes()).unwrap();
        }
        assert_eq!(b.len("ckpt").unwrap(), 2);
    }
    flip(&only_segment(&dir.join("ckpt")), payload_byte(0));
    expect_corrupt(&SegmentBackend::new(&dir).unwrap(), "ckpt", snap);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn segment_crash_before_compaction_rename_discards_tmp() {
    let dir = temp_dir("seg-tmp");
    let expect = build_compacted(&dir);
    // Crash window: a compaction output existed only as a temp file.
    fs::write(
        dir.join("log").join("seg-000900-000901.seg.tmp"),
        b"half-written merge",
    )
    .unwrap();
    let b = SegmentBackend::with_options(&dir, small()).unwrap();
    b.define("log", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    assert_eq!(scan_all(&b), expect, "data is bit-identical after recovery");
    assert!(!dir.join("log").join("seg-000900-000901.seg.tmp").exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn segment_crash_after_compaction_rename_sweeps_superseded_inputs() {
    // Build two identical histories; A stops before the compaction,
    // B runs past it. Copying B's covering segment into A reproduces
    // the crash window where the merge committed but the inputs were
    // never deleted.
    let dir_a = temp_dir("seg-covered-a");
    let dir_b = temp_dir("seg-covered-b");
    let pre = {
        let b = SegmentBackend::with_options(&dir_a, small()).unwrap();
        b.define("log", NamespaceProfile::log(Retention::unbounded()))
            .unwrap();
        let mut expect = Vec::new();
        // 11 records: two sealed segments (0-3, 4-7) + active, one
        // append short of the third seal that triggers compaction.
        for key in 0..11u64 {
            let value = format!("record-{key}").into_bytes();
            b.append("log", key, &value).unwrap();
            expect.push((key, value));
        }
        b.flush().unwrap();
        expect
    };
    let expect = build_compacted(&dir_b);
    assert_eq!(pre, expect[..11].to_vec());
    let covering = fs::read_dir(dir_b.join("log"))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .find(|n| {
            n.starts_with("seg-")
                && n.trim_start_matches("seg-")
                    .trim_end_matches(".seg")
                    .split_once('-')
                    .is_some_and(|(lo, hi)| lo != hi)
        })
        .expect("covering segment");
    fs::copy(
        dir_b.join("log").join(&covering),
        dir_a.join("log").join(&covering),
    )
    .unwrap();
    let inputs_before = fs::read_dir(dir_a.join("log")).unwrap().count();
    let b = SegmentBackend::with_options(&dir_a, small()).unwrap();
    b.define("log", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    // Every record is present exactly once despite the duplicate files.
    assert_eq!(scan_all(&b), pre);
    let files_after = fs::read_dir(dir_a.join("log")).unwrap().count();
    assert!(
        files_after < inputs_before,
        "superseded input segments must be swept ({inputs_before} -> {files_after})"
    );
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

#[test]
fn segment_corruption_in_sealed_segment_is_detected() {
    let dir = temp_dir("seg-corrupt");
    build_compacted(&dir);
    // Corrupt a payload byte in the OLDEST segment (sealed, so open
    // must refuse rather than silently truncate history).
    let oldest = fs::read_dir(dir.join("log"))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .min()
        .unwrap();
    let mut bytes = fs::read(&oldest).unwrap();
    let n = bytes.len();
    bytes[n / 2] ^= 0x01;
    fs::write(&oldest, &bytes).unwrap();
    let b = SegmentBackend::with_options(&dir, small()).unwrap();
    match b.define("log", NamespaceProfile::log(Retention::unbounded())) {
        Err(StorageError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn segment_retention_drops_whole_old_segments_with_accurate_counts() {
    let dir = temp_dir("seg-retain");
    let b = SegmentBackend::with_options(&dir, small()).unwrap();
    b.define(
        "log",
        NamespaceProfile::log(Retention::unbounded().keep_records(5)),
    )
    .unwrap();
    for key in 0..16u64 {
        b.append("log", key, format!("record-{key}").as_bytes())
            .unwrap();
    }
    let before = b.len("log").unwrap();
    let pruned = b.retain("log").unwrap();
    let after = b.len("log").unwrap();
    assert_eq!(pruned.records, before - after);
    assert!(after <= 5 || pruned.records > 0);
    assert_eq!(b.latest("log").unwrap().unwrap().key, 15);
    // The cut survives a restart (persisted min_key + deleted files).
    drop(b);
    let b = SegmentBackend::with_options(&dir, small()).unwrap();
    b.define("log", NamespaceProfile::log(Retention::unbounded()))
        .unwrap();
    assert_eq!(b.len("log").unwrap(), after);
    assert_eq!(b.latest("log").unwrap().unwrap().key, 15);
    let _ = fs::remove_dir_all(&dir);
}
