//! Chaos integration: supervised ingestion under injected probe faults.
//!
//! Two probes each carry one pod of a stable network. One probe is
//! wrapped in synthnet's fault injectors; the aggregator must classify
//! every window without panicking, account for the damage in each
//! window's [`WindowHealth`], and keep group ids stable for the hosts
//! the healthy probe covers.

use aggregator::{Aggregator, AggregatorConfig, ProbeHealth, ReplayProbe, SupervisorConfig};
use flow::{FlowRecord, HostAddr};
use roleclass::{EngineConfig, Params};
use synthnet::{ClockSkewProbe, DuplicatingProbe, FlakyProbe, TruncatingProbe};

const WINDOWS: u64 = 6;
const WINDOW_MS: u64 = 1000;
/// Flows per pod per window (3 clients x 3 servers).
const POD_FLOWS: u64 = 9;

fn h(x: u32) -> HostAddr {
    HostAddr::v4(x)
}

/// Pod A: clients 11-13 -> servers 1, 2, 3. Present every window.
fn pod_a(windows: u64) -> Vec<FlowRecord> {
    pod(windows, [11, 12, 13], [1, 2, 3])
}

/// Pod B: clients 21-23 -> servers 1, 2, 4. Carried by the faulty probe.
fn pod_b(windows: u64) -> Vec<FlowRecord> {
    pod(windows, [21, 22, 23], [1, 2, 4])
}

fn pod(windows: u64, clients: [u32; 3], servers: [u32; 3]) -> Vec<FlowRecord> {
    let mut out = Vec::new();
    for w in 0..windows {
        for (i, c) in clients.into_iter().enumerate() {
            for (j, s) in servers.into_iter().enumerate() {
                let mut f = FlowRecord::pair(h(c), h(s));
                f.start_ms = w * WINDOW_MS + (i * 3 + j) as u64;
                f.end_ms = f.start_ms + 1;
                out.push(f);
            }
        }
    }
    out
}

fn config() -> AggregatorConfig {
    AggregatorConfig {
        window_ms: WINDOW_MS,
        origin_ms: 0,
        // Formation-phase parameters: more groups, more structure.
        engine: EngineConfig::new(Params::default().with_s_lo(90.0).with_s_hi(95.0)),
        min_flows: 1,
        supervisor: SupervisorConfig::immediate(),
        ..AggregatorConfig::default()
    }
}

/// Hosts that must be classified, with stable ids, in every window the
/// healthy probe alone guarantees.
const ALWAYS_PRESENT: [u32; 6] = [11, 12, 13, 1, 2, 3];

#[test]
fn flaky_probe_over_many_windows_keeps_correlation_continuity() {
    let mut agg = Aggregator::new(config());
    agg.attach(Box::new(ReplayProbe::new("healthy", pod_a(WINDOWS))));
    // Per-attempt failure rate 0.8: with 2 retries a window still fails
    // about half the time, so (for this seed) the run sees both healthy
    // and degraded windows.
    agg.attach(Box::new(FlakyProbe::new(
        ReplayProbe::new("pod-b", pod_b(WINDOWS)),
        0.8,
        42,
    )));

    let history = agg.drain();
    assert_eq!(
        history.len(),
        WINDOWS as usize,
        "every window must classify"
    );

    let mut degraded = 0;
    let mut healthy = 0;
    for run in history.iter() {
        assert_eq!(run.health.probes_total, 2);
        // WindowHealth must agree exactly with what's in the window's
        // connection sets: the flaky probe's pod is either fully there
        // or fully absent, never half-reported.
        if run.health.degraded() {
            degraded += 1;
            assert_eq!(run.health.probes_delivered(), 1);
            assert_eq!(run.health.records_accepted, POD_FLOWS);
            assert!(!run.connsets.contains(h(21)));
            assert!(!run.connsets.contains(h(4)));
            if run.health.probes_failed > 0 {
                assert!(run.health.errors.iter().any(|e| e.contains("pod-b")));
            }
        } else {
            healthy += 1;
            assert_eq!(run.health.records_accepted, 2 * POD_FLOWS);
            assert!(run.connsets.contains(h(21)));
        }
        // The healthy pod is classified in every window, degraded or not.
        for host in ALWAYS_PRESENT {
            assert!(
                run.grouping.group_of(h(host)).is_some(),
                "host {host} missing from window {:?}",
                run.window
            );
        }
    }
    assert!(degraded > 0, "seed 42 must produce degraded windows");
    assert!(healthy > 0, "seed 42 must produce healthy windows");

    // Correlation continuity: the pod A *clients* keep their group id
    // through every degraded window — their connection sets ({1,2,3})
    // are fully covered by the healthy probe. (The servers are not so
    // lucky: with pod B absent, servers 1, 2, and 3 have identical
    // connection sets and merge — the exact phantom-churn artifact that
    // WindowHealth exists to flag.)
    for host in [11u32, 12, 13] {
        let ids: Vec<_> = history
            .iter()
            .map(|r| r.grouping.group_of(h(host)).unwrap())
            .collect();
        assert!(
            ids.windows(2).all(|w| w[0] == w[1]),
            "host {host} changed group across windows: {ids:?}"
        );
    }
    // And the server groups shift ONLY across health transitions, never
    // between two equally-healthy windows.
    for pair in history.windows(2) {
        if pair[0].health.degraded() == pair[1].health.degraded() {
            for host in ALWAYS_PRESENT {
                assert_eq!(
                    pair[0].grouping.group_of(h(host)),
                    pair[1].grouping.group_of(h(host)),
                    "host {host} churned between same-health windows"
                );
            }
        }
    }

    // The flaky probe's lifetime accounting matches the window tally.
    let reports = agg.probe_reports();
    let flaky = reports.iter().find(|r| r.name.contains("pod-b")).unwrap();
    assert_eq!(
        flaky.stats.windows_failed + flaky.stats.windows_skipped,
        degraded as u64
    );
    assert_eq!(
        flaky.stats.windows_polled + flaky.stats.windows_skipped,
        WINDOWS
    );
}

#[test]
fn dead_probe_is_quarantined_and_the_rest_continue() {
    let mut agg = Aggregator::new(config());
    agg.attach(Box::new(ReplayProbe::new("healthy", pod_a(WINDOWS))));
    // Fails every poll: exhausts its error budget and stays quarantined.
    agg.attach(Box::new(FlakyProbe::new(
        ReplayProbe::new("pod-b", pod_b(WINDOWS)),
        1.0,
        7,
    )));

    let history = agg.drain();
    assert_eq!(history.len(), WINDOWS as usize);
    assert!(history.iter().all(|r| r.health.degraded()));
    // Budget is 3 failed windows; everything after that is skipped.
    let skipped: usize = history.iter().map(|r| r.health.probes_skipped).sum();
    assert!(skipped > 0, "quarantine must kick in");
    let reports = agg.probe_reports();
    assert!(reports
        .iter()
        .any(|r| r.name.contains("pod-b") && r.health == ProbeHealth::Quarantined));
    // The healthy pod never noticed.
    for host in ALWAYS_PRESENT {
        let ids: Vec<_> = history
            .iter()
            .map(|r| r.grouping.group_of(h(host)).unwrap())
            .collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}

#[test]
fn lossy_and_skewed_probes_do_not_break_structure() {
    // Truncation, duplication, and clock skew all distort the record
    // stream without failing polls. Structure must survive: truncation
    // can only *remove* pairs, duplication must not invent any, and a
    // skewed probe's records still land in the right windows.
    let mut agg = Aggregator::new(config());
    agg.attach(Box::new(ReplayProbe::new("healthy", pod_a(WINDOWS))));
    agg.attach(Box::new(DuplicatingProbe::new(
        TruncatingProbe::new(ReplayProbe::new("pod-b", pod_b(WINDOWS)), 0.3, 5),
        0.3,
        6,
    )));
    let history = agg.drain();
    assert_eq!(history.len(), WINDOWS as usize);
    for run in history.iter() {
        // Lossy but never failing: the window is *not* marked degraded
        // (that is exactly why record counts are tracked separately).
        assert_eq!(run.health.probes_failed, 0);
        // No invented structure: every edge is one of the pods' true
        // client-server pairs.
        for ((a, b), _) in run.connsets.pairs() {
            let (c, s) = if a.as_u32() > 20 || (11..=13).contains(&a.as_u32()) {
                (a, b)
            } else {
                (b, a)
            };
            assert!(
                (11..=13).contains(&c.as_u32()) || (21..=23).contains(&c.as_u32()),
                "unexpected client {c}"
            );
            assert!([1, 2, 3, 4].contains(&s.as_u32()), "unexpected server {s}");
        }
    }

    // Clock skew smaller than a window: records stay in their windows.
    let mut agg2 = Aggregator::new(config());
    agg2.attach(Box::new(ClockSkewProbe::new(
        ReplayProbe::new("pod-a", pod_a(WINDOWS)),
        250,
    )));
    let history2 = agg2.drain();
    assert!(history2.len() >= WINDOWS as usize);
    let classified: usize = history2
        .iter()
        .map(|r| r.connsets.host_count())
        .max()
        .unwrap_or(0);
    assert_eq!(classified, 6, "skewed probe still yields the full pod");
}
