//! Crash-safe checkpointing: a restarted aggregator resumes correlation
//! with stable group ids, even when the newest checkpoint generation
//! was torn or corrupted mid-crash.
//!
//! A "process" here is one `StorageStack::open` of a segment store in a
//! temp directory; a restart drops the stack and opens it again.

use aggregator::store::CHECKPOINT_NS;
use aggregator::{
    Aggregator, AggregatorConfig, Alert, AlertKind, RecoverySource, ReplayProbe, RunRecord,
    StorageStack, SupervisorConfig,
};
use flow::{FlowRecord, HostAddr, TimeWindow};
use roleclass::{EngineConfig, Params};
use std::fs;
use std::path::{Path, PathBuf};
use storage::StorageConfig;

const WINDOW_MS: u64 = 1000;

fn h(x: u32) -> HostAddr {
    HostAddr::v4(x)
}

/// One window of stable two-pod structure, shifted to window `w`.
fn window_trace(w: u64) -> Vec<FlowRecord> {
    let mut out = Vec::new();
    for (i, c) in [11u32, 12, 13].into_iter().enumerate() {
        for (j, s) in [1u32, 2, 3].into_iter().enumerate() {
            let mut f = FlowRecord::pair(h(c), h(s));
            f.start_ms = w * WINDOW_MS + (i * 3 + j) as u64;
            out.push(f);
        }
    }
    for (i, c) in [21u32, 22, 23].into_iter().enumerate() {
        for (j, s) in [1u32, 2, 4].into_iter().enumerate() {
            let mut f = FlowRecord::pair(h(c), h(s));
            f.start_ms = w * WINDOW_MS + 100 + (i * 3 + j) as u64;
            out.push(f);
        }
    }
    out
}

/// Pod A's clients in window `w` of the churning trace: twelve, then
/// five at window 4 and two at window 5. Each drop keeps under half of
/// the previous members, so one RoleChurn episode opens at window 4 and
/// is still open at window 5.
fn pod_a(w: u64) -> std::ops::RangeInclusive<u32> {
    match w {
        0..=3 => 11..=22,
        4 => 11..=15,
        _ => 11..=12,
    }
}

/// `windows` windows of a churning network: pod A (servers 1, 2, 3)
/// collapses as [`pod_a`] says, pod B (servers 1, 2, 4) holds steady,
/// and host 41 wanders between the two pods every window.
fn churn_trace(windows: u64) -> Vec<FlowRecord> {
    let mut out = Vec::new();
    for w in 0..windows {
        let wanderer = if w % 2 == 0 { [1, 2, 3] } else { [1, 2, 4] };
        let clients = pod_a(w)
            .map(|c| (c, [1u32, 2, 3]))
            .chain([31u32, 32, 33].map(|c| (c, [1, 2, 4])))
            .chain([(41, wanderer)]);
        for (i, (c, servers)) in clients.enumerate() {
            for (j, s) in servers.into_iter().enumerate() {
                let mut f = FlowRecord::pair(h(c), h(s));
                f.start_ms = w * WINDOW_MS + (i * 3 + j) as u64;
                out.push(f);
            }
        }
    }
    out
}

fn role_churn_windows(alerts: &[Alert]) -> Vec<u64> {
    alerts
        .iter()
        .filter_map(|a| match a.kind {
            AlertKind::RoleChurn { window, .. } => Some(window.start_ms),
            _ => None,
        })
        .collect()
}

/// Runs `windows` more windows on the uninterrupted aggregator `a` and
/// the restored `b`, and requires them to agree on every run's window,
/// grouping and correlation, the alerts queued, the stability rows,
/// the churn table and the host ids.
fn assert_same_continuation(a: &mut Aggregator, b: &mut Aggregator, windows: u64) {
    let rows_before = a.stability_history().len();
    for _ in 0..windows {
        let (ra, rb) = (a.run_cycle(), b.run_cycle());
        assert_eq!(ra.window, rb.window);
        assert_eq!(ra.grouping, rb.grouping, "window {:?}", ra.window);
        assert_eq!(
            format!("{:?}", ra.correlation),
            format!("{:?}", rb.correlation),
            "window {:?}",
            ra.window
        );
        assert_eq!(a.take_alerts(), b.take_alerts(), "window {:?}", ra.window);
    }
    assert_eq!(&a.stability_history()[rows_before..], b.stability_history());
    assert_eq!(a.churn_table(), b.churn_table());
    assert!(a.host_table().iter().eq(b.host_table().iter()));
}

fn config() -> AggregatorConfig {
    AggregatorConfig {
        window_ms: WINDOW_MS,
        origin_ms: 0,
        engine: EngineConfig::new(Params::default().with_s_lo(90.0).with_s_hi(95.0)),
        min_flows: 1,
        supervisor: SupervisorConfig::immediate(),
        ..AggregatorConfig::default()
    }
}

/// A segment store over a fresh temp directory.
fn state_dir(tag: &str) -> (StorageConfig, PathBuf) {
    let dir = std::env::temp_dir().join(format!("roleclass-crash-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    (StorageConfig::new(dir.to_string_lossy()), dir)
}

fn open(config: &StorageConfig) -> StorageStack {
    StorageStack::open(config).unwrap()
}

/// One process that appends `generations` verbatim to the checkpoint
/// namespace: how foreign or damaged payloads reach the ladder.
fn append_generations(config: &StorageConfig, generations: &[&[u8]]) {
    let stack = open(config);
    let b = stack.backend();
    b.define(CHECKPOINT_NS, config.checkpoint_profile())
        .unwrap();
    for g in generations {
        b.append(CHECKPOINT_NS, 0, g).unwrap();
    }
}

/// The newest segment file of the checkpoint namespace.
fn checkpoint_segment(dir: &Path) -> PathBuf {
    fs::read_dir(dir.join(CHECKPOINT_NS))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "seg"))
        .max()
        .expect("a checkpoint segment")
}

#[test]
fn restart_resumes_correlation_with_stable_ids() {
    let (store, dir) = state_dir("resume");
    let stack = open(&store);

    // First process: two windows, checkpoint after each run (as a
    // deployment would).
    let mut agg = Aggregator::new(config());
    let trace: Vec<FlowRecord> = (0..2).flat_map(window_trace).collect();
    agg.attach(Box::new(ReplayProbe::new("p0", trace)));
    agg.run_cycle();
    agg.checkpoint(stack.checkpointer()).unwrap();
    agg.run_cycle();
    agg.checkpoint(stack.checkpointer()).unwrap();
    let before = agg.current_grouping().unwrap();

    // "Crash": drop the aggregator and its stack. Restart from the
    // checkpoint.
    drop(agg);
    drop(stack);
    let stack = open(&store);
    let mut agg2 = Aggregator::new(config());
    agg2.attach(Box::new(ReplayProbe::new("p0", window_trace(2))));
    let recovery = agg2.restore_from(stack.checkpointer());
    assert_eq!(recovery.source, RecoverySource::Primary);
    assert!(recovery.notes.is_empty());
    // The restored anchor is the last checkpointed window.
    let anchor = recovery.runs.last().expect("an anchor run");
    assert_eq!(anchor.window, TimeWindow::new(WINDOW_MS, 2 * WINDOW_MS));
    assert_eq!(agg2.current_grouping().as_ref(), Some(&before));

    // The next window continues the chain: same window numbering, same
    // group ids for every host.
    let run3 = agg2.run_cycle();
    assert_eq!(run3.window.start_ms, 2 * WINDOW_MS);
    assert!(run3.correlation.is_some());
    for host in [11u32, 21, 1, 2, 3, 4] {
        assert_eq!(
            before.group_of(h(host)),
            run3.grouping.group_of(h(host)),
            "host {host} lost its group id across the restart"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncated_checkpoint_recovers_to_last_good_state() {
    let (store, dir) = state_dir("truncated");
    let stack = open(&store);

    let mut agg = Aggregator::new(config());
    let trace: Vec<FlowRecord> = (0..2).flat_map(window_trace).collect();
    agg.attach(Box::new(ReplayProbe::new("p0", trace)));
    agg.run_cycle();
    agg.checkpoint(stack.checkpointer()).unwrap();
    let seg = checkpoint_segment(&dir);
    let first_len = fs::metadata(&seg).unwrap().len();
    let after_first = agg.current_grouping().unwrap();
    agg.run_cycle();
    agg.checkpoint(stack.checkpointer()).unwrap();
    assert_eq!(
        checkpoint_segment(&dir),
        seg,
        "both generations share a segment"
    );
    let full_len = fs::metadata(&seg).unwrap().len();
    drop(agg);
    drop(stack);

    // Crash mid-write: the newest generation loses its last third.
    // Reopening drops the torn record, so the generation before it is
    // served as the primary.
    let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(first_len + (full_len - first_len) * 2 / 3)
        .unwrap();
    drop(f);

    let stack = open(&store);
    let mut agg2 = Aggregator::new(config());
    agg2.attach(Box::new(ReplayProbe::new("p0", window_trace(1))));
    let recovery = agg2.restore_from(stack.checkpointer());
    assert_eq!(recovery.source, RecoverySource::Primary);
    assert!(recovery.notes.is_empty());
    // Last good state = the checkpoint taken after the first window.
    let anchor = recovery.runs.last().expect("an anchor run");
    assert_eq!(anchor.window, TimeWindow::new(0, WINDOW_MS));
    assert_eq!(agg2.current_grouping().as_ref(), Some(&after_first));

    // Ingestion resumes from window 1 (after the recovered run) and the
    // correlation chain holds.
    let run2 = agg2.run_cycle();
    assert_eq!(run2.window.start_ms, WINDOW_MS);
    assert!(run2.correlation.is_some());
    for host in [11u32, 21, 1, 4] {
        assert_eq!(
            after_first.group_of(h(host)),
            run2.grouping.group_of(h(host)),
            "host {host} lost its group id after corrupt-checkpoint recovery"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn interior_corruption_is_reported_not_misread() {
    let (store, dir) = state_dir("interior");
    let stack = open(&store);
    let mut agg = Aggregator::new(config());
    let trace: Vec<FlowRecord> = (0..2).flat_map(window_trace).collect();
    agg.attach(Box::new(ReplayProbe::new("p0", trace)));
    agg.run_cycle();
    agg.checkpoint(stack.checkpointer()).unwrap();
    agg.run_cycle();
    agg.checkpoint(stack.checkpointer()).unwrap();
    drop(stack);

    // Bit rot inside the older generation, with the newer one intact
    // after it: not a torn tail, so the store must not truncate the
    // file back to before it and serve nothing.
    let seg = checkpoint_segment(&dir);
    let mut bytes = fs::read(&seg).unwrap();
    bytes[8 + 16 + 40] ^= 0x20;
    fs::write(&seg, &bytes).unwrap();

    let stack = open(&store);
    let mut agg2 = Aggregator::new(config());
    let recovery = agg2.restore_from(stack.checkpointer());
    assert_eq!(recovery.source, RecoverySource::Fresh);
    assert!(
        recovery.notes.iter().any(|n| n.contains("unreadable")),
        "{:?}",
        recovery.notes
    );
    // Later checkpoints keep failing loudly; the file is left as found.
    assert!(agg.checkpoint(stack.checkpointer()).is_err());
    assert_eq!(fs::read(&seg).unwrap(), bytes);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn total_corruption_falls_back_to_fresh_start() {
    let (store, dir) = state_dir("fresh");
    // Both generations are garbage (checksum-valid records whose
    // payloads are no checkpoint).
    append_generations(
        &store,
        &[
            b"roleclass-checkpoint v1\n[{\"window\"",
            b"\x7f\x45\x4c\x46 definitely not json",
        ],
    );

    let stack = open(&store);
    let mut agg = Aggregator::new(config());
    agg.attach(Box::new(ReplayProbe::new("p0", window_trace(0))));
    let recovery = agg.restore_from(stack.checkpointer());
    assert_eq!(recovery.source, RecoverySource::Fresh);
    assert_eq!(recovery.notes.len(), 2);
    assert!(recovery.runs.is_empty());
    assert!(agg.current_grouping().is_none());

    // Still fully operational: classification starts over from window 0.
    let run = agg.run_cycle();
    assert_eq!(run.window.start_ms, 0);
    assert!(run.correlation.is_none());
    assert_eq!(run.grouping.host_count(), 10);
    let _ = fs::remove_dir_all(&dir);
}

/// The last window the churning runs checkpoint after, and how many
/// windows they run in all.
const K: u64 = 4;
const N: u64 = 8;

#[test]
fn restore_continues_exactly_like_the_uninterrupted_run() {
    let (store, dir) = state_dir("equivalence");
    let stack = open(&store);

    let mut a = Aggregator::new(config());
    a.attach(Box::new(ReplayProbe::new("p0", churn_trace(N))));
    for _ in 0..=K {
        a.run_cycle();
    }
    a.checkpoint(stack.checkpointer()).unwrap();
    drop(stack);
    // The collapse episode opened at window K, before the checkpoint.
    assert_eq!(role_churn_windows(&a.take_alerts()), [K * WINDOW_MS]);

    let stack = open(&store);
    let mut b = Aggregator::new(config());
    b.attach(Box::new(ReplayProbe::new("p0", churn_trace(N))));
    let recovery = b.restore_from(stack.checkpointer());
    assert_eq!(recovery.source, RecoverySource::Primary);
    assert_eq!(recovery.runs.len(), 1, "v3 anchors on the last run only");
    assert!(recovery.stability.is_some());
    assert!(b.take_alerts().is_empty());
    assert_eq!(b.current_grouping(), a.current_grouping());

    assert_same_continuation(&mut a, &mut b, N - K - 1);
    // Window K+1 is still collapsed, so only the restored latch kept B
    // from alerting a second time for the open episode.
    let first = &b.stability_history()[0];
    assert!(first
        .groups
        .iter()
        .any(|g| g.persistence >= 2 && g.prev_members >= 3 && g.backbone < 0.5));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn literal_v2_checkpoint_still_restores() {
    let (store, dir) = state_dir("v2");

    let mut a = Aggregator::new(config());
    a.attach(Box::new(ReplayProbe::new("p0", churn_trace(N))));
    let runs: Vec<RunRecord> = (0..=K).map(|_| a.run_cycle()).collect();
    assert_eq!(role_churn_windows(&a.take_alerts()), [K * WINDOW_MS]);
    // A v2 payload as earlier releases wrote it: the identity table and
    // every run, with no stability state.
    let payload = format!(
        "roleclass-checkpoint v2\n{{\"table\":{},\"runs\":{}}}",
        serde_json::to_string(a.host_table()).unwrap(),
        serde_json::to_string(&runs).unwrap()
    );
    append_generations(&store, &[payload.as_bytes()]);

    let stack = open(&store);
    let mut b = Aggregator::new(config());
    b.attach(Box::new(ReplayProbe::new("p0", churn_trace(N))));
    let recovery = b.restore_from(stack.checkpointer());
    assert_eq!(recovery.source, RecoverySource::Primary);
    assert!(recovery.notes.is_empty());
    assert_eq!(recovery.runs.len(), runs.len());
    assert!(recovery.stability.is_none());
    assert!(b.take_alerts().is_empty());
    assert_eq!(b.churn_table(), a.churn_table());

    assert_same_continuation(&mut a, &mut b, N - K - 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_size_is_flat_in_uptime() {
    let stack = StorageStack::open(&StorageConfig::memory()).unwrap();
    let mut agg = Aggregator::new(config());
    agg.attach(Box::new(ReplayProbe::new(
        "p0",
        (0..60).flat_map(window_trace).collect(),
    )));
    let mut sizes = Vec::new();
    for w in 1..=60 {
        agg.run_cycle();
        if [5, 20, 60].contains(&w) {
            agg.checkpoint(stack.checkpointer()).unwrap();
            let latest = stack.backend().latest(CHECKPOINT_NS).unwrap();
            sizes.push(latest.expect("a checkpoint generation").value.len());
        }
    }
    assert!(
        sizes[2] as f64 <= 1.1 * sizes[0] as f64,
        "checkpoint bytes after windows 5, 20, 60: {sizes:?}"
    );
}
