//! Properties of the stability observatory, plus the role-drift
//! end-to-end scenario.
//!
//! The stability scores (persistence, backbone, churn) are defined over
//! the *partition structure* of successive groupings: they must be
//! invariant under relabeling the host addresses and under the engine's
//! worker count, and the `RoleChurn` alert must fire exactly once per
//! collapse episode — not once per window the backbone stays low.

use proptest::prelude::*;
use role_classification::aggregator::{
    Aggregator, AggregatorConfig, AlertKind, ReplayProbe, SupervisorConfig,
};
use role_classification::flow::{FlowRecord, HostAddr};
use role_classification::roleclass::{
    EngineConfig, Group, GroupId, Grouping, Params, StabilityTracker,
};
use role_classification::synthnet::{churn, scenarios, trace};
use std::collections::BTreeMap;

/// Builds a grouping from a dense assignment `host index -> group id`.
fn grouping_from(assign: &[u32], addr: &dyn Fn(usize) -> HostAddr) -> Grouping {
    let mut members: BTreeMap<u32, Vec<HostAddr>> = BTreeMap::new();
    for (i, &g) in assign.iter().enumerate() {
        members.entry(g).or_default().push(addr(i));
    }
    Grouping::new(
        members
            .into_iter()
            .map(|(g, m)| Group {
                id: GroupId(g),
                k: 1,
                members: m,
            })
            .collect(),
    )
}

/// A deterministic permutation of `0..n` from a seed (Fisher–Yates over
/// an LCG stream).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let j = (state >> 33) as usize % (i + 1);
        p.swap(i, j);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Persistence, backbone, and churn depend only on the partition
    /// structure: relabeling every host address leaves every
    /// [`WindowStability`] row and every per-host churn summary (under
    /// the relabeling) unchanged.
    #[test]
    fn stability_scores_invariant_under_host_relabeling(
        seq in prop::collection::vec(prop::collection::vec(0u32..5, 12), 1..6),
        perm_seed in any::<u64>(),
    ) {
        let n = seq[0].len();
        let p = permutation(n, perm_seed);
        let mut plain = StabilityTracker::new(4);
        let mut relabeled = StabilityTracker::new(4);
        for assign in &seq {
            let ga = grouping_from(assign, &|i| HostAddr::v4(100 + i as u32));
            let gb = grouping_from(assign, &|i| HostAddr::v4(5000 + p[i] as u32));
            let ra = plain.observe(&ga);
            let rb = relabeled.observe(&gb);
            // WindowStability carries no host addresses, so the rows are
            // equal outright, per-group scores included.
            prop_assert_eq!(ra, rb);
        }
        // Per-host churn follows the relabeling exactly.
        for (i, &pi) in p.iter().enumerate() {
            let a = plain.host_churn(HostAddr::v4(100 + i as u32));
            let b = relabeled.host_churn(HostAddr::v4(5000 + pi as u32));
            match (a, b) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.flips, b.flips);
                    prop_assert_eq!(a.windows, b.windows);
                    prop_assert_eq!(a.group, b.group);
                }
                (None, None) => {}
                (a, b) => prop_assert!(false, "churn presence diverged: {a:?} vs {b:?}"),
            }
        }
    }
}

fn drift_config(workers: usize) -> AggregatorConfig {
    AggregatorConfig {
        window_ms: 1000,
        origin_ms: 0,
        engine: EngineConfig::new(Params::default().with_s_lo(90.0).with_s_hi(95.0))
            .with_workers(workers),
        min_flows: 1,
        supervisor: SupervisorConfig::immediate(),
        ..AggregatorConfig::default()
    }
}

/// One day of records per window, offset into that window's time range.
fn windowed_records(nets: &[role_classification::synthnet::SyntheticNetwork]) -> Vec<FlowRecord> {
    nets.iter()
        .enumerate()
        .flat_map(|(day, net)| {
            let mut r = trace::expand(
                &net.connsets,
                trace::TraceOptions::default(),
                day as u64 + 3,
            );
            for f in &mut r {
                f.start_ms = day as u64 * 1000 + f.start_ms % 1000;
            }
            r
        })
        .collect()
}

/// The drift scenario: a stable network for three windows, then the
/// majority of the sales pod migrates to engineering behavior, then the
/// drifted network stays put. Every window is a valid classification;
/// only the sales group's membership backbone collapses.
fn drift_windows() -> Vec<role_classification::synthnet::SyntheticNetwork> {
    let stable = scenarios::figure1(8, 8);
    let mut drifted = scenarios::figure1(8, 8);
    let movers: Vec<HostAddr> = drifted.role_hosts("sales")[..5].to_vec();
    let template = drifted.role_hosts("eng")[0];
    for h in movers {
        churn::remove_host(&mut drifted, h);
        churn::add_host_like(&mut drifted, template, h);
    }
    vec![
        stable.clone(),
        stable.clone(),
        stable,
        drifted.clone(),
        drifted.clone(),
        drifted,
    ]
}

/// The worker count is a pure throughput knob for the stability
/// observatory too: rows, churn tables, and queued alerts are
/// bit-identical at any parallelism.
#[test]
fn stability_rows_invariant_under_worker_count() {
    let records = windowed_records(&drift_windows());
    let mut outcomes = Vec::new();
    for workers in [1usize, 4] {
        let mut agg = Aggregator::new(drift_config(workers));
        agg.attach(Box::new(ReplayProbe::new("p0", records.clone())));
        agg.drain();
        let alerts = agg.take_alerts();
        outcomes.push((agg.stability_history().to_vec(), agg.churn_table(), alerts));
    }
    assert_eq!(outcomes[0].0, outcomes[1].0, "stability rows diverged");
    assert_eq!(outcomes[0].1, outcomes[1].1, "churn tables diverged");
    assert_eq!(outcomes[0].2, outcomes[1].2, "alerts diverged");
}

/// The end-to-end drift scenario: the backbone collapse raises
/// [`AlertKind::RoleChurn`] exactly once, in the window the majority of
/// the sales pod left — not again while the group stays small, and not
/// for any healthy group.
#[test]
fn role_drift_scenario_trips_role_churn_exactly_once() {
    let windows = drift_windows();
    let sales_survivor = windows[0].role_hosts("sales")[7];
    let mut agg = Aggregator::new(drift_config(0));
    agg.attach(Box::new(ReplayProbe::new("p0", windowed_records(&windows))));
    let history = agg.drain();
    assert_eq!(history.len(), 6);

    let churn_alerts: Vec<_> = agg
        .take_alerts()
        .into_iter()
        .filter(|a| matches!(a.kind, AlertKind::RoleChurn { .. }))
        .collect();
    assert_eq!(
        churn_alerts.len(),
        1,
        "expected exactly one RoleChurn alert, got {churn_alerts:#?}"
    );
    let AlertKind::RoleChurn {
        window,
        group,
        persistence,
        retained,
        prev_members,
        backbone_permille,
        threshold_permille,
    } = churn_alerts[0].kind
    else {
        unreachable!("filtered to RoleChurn above");
    };
    // The collapse happened in the fourth window (start 3000), on the
    // group the surviving sales hosts still publish under.
    assert_eq!(window.start_ms, 3000);
    let sales_group = history[3]
        .grouping
        .group_of(sales_survivor)
        .expect("surviving sales host still grouped");
    assert_eq!(group, sales_group);
    assert!(persistence >= 2, "only persistent groups may alert");
    assert_eq!(prev_members, 8);
    assert_eq!(retained, 3);
    assert_eq!(backbone_permille, 375);
    assert_eq!(threshold_permille, 500);

    // The stability rows tell the same story: full backbone before the
    // drift, the collapse at window 3, recovery after.
    let rows = agg.stability_history();
    assert_eq!(rows.len(), 6);
    assert_eq!(rows[2].backbone_min, 1.0);
    assert!(rows[3].backbone_min < 0.5);
    let sales_row = rows[3]
        .groups
        .iter()
        .find(|g| g.group == sales_group)
        .expect("sales group scored in the drift window");
    assert_eq!(sales_row.backbone, 0.375);
    // The migrated hosts show up as churned in the drift window only.
    assert_eq!(rows[2].churned_hosts, 0);
    assert!(rows[3].churned_hosts >= 5);
    assert_eq!(rows[5].churned_hosts, 0);
}
