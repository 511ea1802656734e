//! Differential test: the production correlator (dense common-row plane)
//! against an address-keyed reference that keeps every intermediate in
//! `BTreeMap`/`BTreeSet`s over `HostAddr` and calls only public APIs.
//!
//! The two must agree on every `Correlation` field — scores compared by
//! `f64::to_bits` — on the order of the `id_carried`/`id_minted`/
//! `id_retired` decisions, and on the candidate/evaluation counts. The
//! BigCompany case is slow in debug builds; run it with
//! `cargo test --release -p roleclass --test correlate_reference -- --include-ignored`.

use flow::{ConnectionSets, ConnsetBuilder, HostAddr, HostTable};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use roleclass::{
    try_classify, try_correlate, Correlation, Engine, EngineConfig, Group, GroupId, Grouping,
    Params,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use synthnet::{churn, scenarios, trace, SyntheticNetwork};
use telemetry::{FieldValue, Recorder};

/// One id decision, in journal order.
#[derive(Clone, Debug, PartialEq)]
enum Decision {
    Carried {
        curr: u32,
        prev: u32,
        score_bits: u64,
        rule: String,
    },
    Minted(u32),
    Retired(u32),
}

/// The reference's output: the correlation, its decisions, and its
/// (candidate pairs, similarity evaluations) tallies.
struct Reference {
    corr: Correlation,
    decisions: Vec<Decision>,
    candidates: u64,
    evals: u64,
}

/// Per-group view over the *restricted* (common-host) connection sets.
struct GroupView {
    id: GroupId,
    members: BTreeSet<HostAddr>,
    nbr_conns: BTreeMap<HostAddr, u64>,
    total: u64,
    avg_conns: f64,
}

fn build_views(
    cs: &ConnectionSets,
    common: &BTreeSet<HostAddr>,
    grouping: &Grouping,
) -> Vec<GroupView> {
    let mut views = Vec::new();
    for g in grouping.groups() {
        let members: BTreeSet<HostAddr> = g.members.iter().copied().collect();
        let mut nbr_conns: BTreeMap<HostAddr, u64> = BTreeMap::new();
        let mut deg_sum = 0usize;
        for &m in &members {
            let Some(nbrs) = cs.neighbors(m) else {
                continue;
            };
            for n in nbrs {
                if !common.contains(&n) {
                    continue;
                }
                deg_sum += 1;
                if !members.contains(&n) {
                    *nbr_conns.entry(n).or_insert(0) += 1;
                }
            }
        }
        let total = nbr_conns.values().sum();
        let avg_conns = deg_sum as f64 / members.len().max(1) as f64;
        views.push(GroupView {
            id: g.id,
            members,
            nbr_conns,
            total,
            avg_conns,
        });
    }
    views
}

fn within(tol: f64, a: f64, b: f64) -> bool {
    let hi = a.max(b);
    if hi == 0.0 {
        return true;
    }
    (a - b).abs() <= tol * hi
}

fn time_varying_similarity(
    curr: &GroupView,
    prev: &GroupView,
    curr_cs: &ConnectionSets,
    prev_cs: &ConnectionSets,
    h_same: &BTreeSet<HostAddr>,
    t_hi: f64,
) -> f64 {
    let inter = curr.members.intersection(&prev.members).count();
    let union = curr.members.len() + prev.members.len() - inter;
    let member_jaccard = if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    };
    if curr.total == 0 && prev.total == 0 {
        return (100.0 * member_jaccard).clamp(0.0, 100.0);
    }
    if curr.total == 0 || prev.total == 0 {
        return 0.0;
    }
    const W_IDENTITY_SAME: f64 = 1.0;
    const W_IDENTITY: f64 = 0.95;
    const W_SIZE_MATCH: f64 = 0.85;
    const MEMBER_BONUS: f64 = 5.0;

    let mut acc = 0.0f64;
    let mut unmatched_curr: Vec<HostAddr> = Vec::new();
    let mut unmatched_prev: BTreeSet<HostAddr> = prev.nbr_conns.keys().copied().collect();
    for (&h, &w_curr) in &curr.nbr_conns {
        if prev.nbr_conns.contains_key(&h) {
            let d_t = curr_cs.degree(h).unwrap_or(0);
            let d_p = prev_cs.degree(h).unwrap_or(0);
            let weight = if h_same.contains(&h) {
                W_IDENTITY_SAME
            } else if within(t_hi, d_t as f64, d_p as f64) {
                W_IDENTITY
            } else {
                unmatched_curr.push(h);
                continue;
            };
            let w_prev = prev.nbr_conns[&h];
            acc +=
                weight * (w_curr as f64 / curr.total as f64).min(w_prev as f64 / prev.total as f64);
            unmatched_prev.remove(&h);
        } else {
            unmatched_curr.push(h);
        }
    }
    let mut prev_by_deg: BTreeMap<(usize, HostAddr), HostAddr> = unmatched_prev
        .iter()
        .map(|&h| ((prev_cs.degree(h).unwrap_or(0), h), h))
        .collect();
    for h_t in unmatched_curr {
        if prev_by_deg.is_empty() {
            break;
        }
        let d_t = curr_cs.degree(h_t).unwrap_or(0);
        let above = prev_by_deg
            .range((d_t, HostAddr::v4(0))..)
            .next()
            .map(|(&k, &v)| (k, v));
        let below = prev_by_deg
            .range(..(d_t, HostAddr::v4(0)))
            .next_back()
            .map(|(&k, &v)| (k, v));
        let pick = match (below, above) {
            (None, None) => None,
            (Some(x), None) => Some(x),
            (None, Some(y)) => Some(y),
            (Some(x), Some(y)) => {
                if d_t.abs_diff(x.0 .0) <= d_t.abs_diff(y.0 .0) {
                    Some(x)
                } else {
                    Some(y)
                }
            }
        };
        let Some(((d_p, _), h_p)) = pick else {
            continue;
        };
        if !within(t_hi, d_t as f64, d_p as f64) {
            continue;
        }
        let w_curr = curr.nbr_conns[&h_t];
        let w_prev = prev.nbr_conns[&h_p];
        acc += W_SIZE_MATCH
            * (w_curr as f64 / curr.total as f64).min(w_prev as f64 / prev.total as f64);
        prev_by_deg.remove(&(d_p, h_p));
    }
    (100.0 * acc + MEMBER_BONUS * member_jaccard).clamp(0.0, 100.0)
}

fn neighbor_group_similarity(
    curr: &GroupView,
    prev: &GroupView,
    curr_grouping: &Grouping,
    prev_grouping: &Grouping,
    id_map: &BTreeMap<GroupId, GroupId>,
) -> f64 {
    if curr.total == 0 || prev.total == 0 {
        return 0.0;
    }
    let mut curr_by_group: BTreeMap<GroupId, u64> = BTreeMap::new();
    for (&h, &w) in &curr.nbr_conns {
        if let Some(gid) = curr_grouping.group_of(h) {
            *curr_by_group.entry(gid).or_insert(0) += w;
        }
    }
    let mut prev_by_group: BTreeMap<GroupId, u64> = BTreeMap::new();
    for (&h, &w) in &prev.nbr_conns {
        if let Some(gid) = prev_grouping.group_of(h) {
            *prev_by_group.entry(gid).or_insert(0) += w;
        }
    }
    let mut acc = 0.0f64;
    for (gid_t, &w_t) in &curr_by_group {
        let Some(gid_p) = id_map.get(gid_t) else {
            continue;
        };
        let Some(&w_p) = prev_by_group.get(gid_p) else {
            continue;
        };
        acc += (w_t as f64 / curr.total as f64).min(w_p as f64 / prev.total as f64);
    }
    (100.0 * acc).clamp(0.0, 100.0)
}

/// Greedy best-first acceptance shared by both steps.
#[allow(clippy::too_many_arguments)]
fn accept(
    scored: &mut [(f64, usize, usize)],
    rule: &str,
    curr_views: &[GroupView],
    prev_views: &[GroupView],
    curr_taken: &mut [bool],
    prev_taken: &mut [bool],
    out: &mut Correlation,
    decisions: &mut Vec<Decision>,
) {
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    for &(s, ci, pi) in scored.iter() {
        if curr_taken[ci] || prev_taken[pi] {
            continue;
        }
        curr_taken[ci] = true;
        prev_taken[pi] = true;
        out.id_map.insert(curr_views[ci].id, prev_views[pi].id);
        out.scores.insert((curr_views[ci].id, prev_views[pi].id), s);
        decisions.push(Decision::Carried {
            curr: curr_views[ci].id.0,
            prev: prev_views[pi].id.0,
            score_bits: s.to_bits(),
            rule: rule.to_string(),
        });
    }
}

/// The address-keyed correlator: Section 5 over cloned, restricted
/// connection sets and host-keyed ordered maps.
fn correlate_reference(
    prev_cs: &ConnectionSets,
    prev_grouping: &Grouping,
    curr_cs: &ConnectionSets,
    curr_grouping: &Grouping,
    params: &Params,
) -> Reference {
    let mut out = Correlation {
        added_hosts: curr_cs.hosts_not_in(prev_cs),
        removed_hosts: prev_cs.hosts_not_in(curr_cs),
        ..Correlation::default()
    };
    let mut decisions = Vec::new();
    let (mut candidates, mut evals) = (0u64, 0u64);

    let common: BTreeSet<HostAddr> = curr_cs.hosts().filter(|h| prev_cs.contains(*h)).collect();
    let mut prev_r = prev_cs.clone();
    prev_r.retain_hosts(&common);
    let mut curr_r = curr_cs.clone();
    curr_r.retain_hosts(&common);
    for &h in &common {
        if prev_r.neighbors(h) == curr_r.neighbors(h) {
            out.h_same.insert(h);
        }
    }
    let curr_views = build_views(curr_cs, &common, curr_grouping);
    let prev_views = build_views(prev_cs, &common, prev_grouping);

    // Candidates: groups sharing a member or a neighbor identifier.
    let mut prev_index: BTreeMap<HostAddr, BTreeSet<usize>> = BTreeMap::new();
    for (i, v) in prev_views.iter().enumerate() {
        for &m in v.members.iter().chain(v.nbr_conns.keys()) {
            prev_index.entry(m).or_default().insert(i);
        }
    }
    let mut scored: Vec<(f64, usize, usize)> = Vec::new();
    for (ci, cv) in curr_views.iter().enumerate() {
        let mut cand: BTreeSet<usize> = BTreeSet::new();
        for &m in cv.members.iter().chain(cv.nbr_conns.keys()) {
            if let Some(set) = prev_index.get(&m) {
                cand.extend(set.iter().copied());
            }
        }
        for pi in cand {
            candidates += 1;
            let pv = &prev_views[pi];
            if !within(params.t_hi, cv.avg_conns, pv.avg_conns) {
                continue;
            }
            evals += 1;
            let s = time_varying_similarity(cv, pv, &curr_r, &prev_r, &out.h_same, params.t_hi);
            if s >= params.s_corr {
                scored.push((s, ci, pi));
            }
        }
    }
    let mut curr_taken = vec![false; curr_views.len()];
    let mut prev_taken = vec![false; prev_views.len()];
    accept(
        &mut scored,
        "time_varying",
        &curr_views,
        &prev_views,
        &mut curr_taken,
        &mut prev_taken,
        &mut out,
        &mut decisions,
    );

    let mut scored2: Vec<(f64, usize, usize)> = Vec::new();
    for (ci, cv) in curr_views.iter().enumerate() {
        if curr_taken[ci] {
            continue;
        }
        for (pi, pv) in prev_views.iter().enumerate() {
            if prev_taken[pi] {
                continue;
            }
            candidates += 1;
            if !within(params.t_hi, cv.avg_conns, pv.avg_conns) {
                continue;
            }
            evals += 1;
            let s = neighbor_group_similarity(cv, pv, curr_grouping, prev_grouping, &out.id_map);
            if s >= params.s_corr {
                scored2.push((s, ci, pi));
            }
        }
    }
    accept(
        &mut scored2,
        "neighbor_groups",
        &curr_views,
        &prev_views,
        &mut curr_taken,
        &mut prev_taken,
        &mut out,
        &mut decisions,
    );

    for g in curr_grouping.groups() {
        if !out.id_map.contains_key(&g.id) {
            out.new_groups.push(g.id);
            decisions.push(Decision::Minted(g.id.0));
        }
    }
    let matched_prev: BTreeSet<GroupId> = out.id_map.values().copied().collect();
    for g in prev_grouping.groups() {
        if !matched_prev.contains(&g.id) {
            out.vanished_groups.push(g.id);
            decisions.push(Decision::Retired(g.id.0));
        }
    }
    Reference {
        corr: out,
        decisions,
        candidates,
        evals,
    }
}

/// Field-by-field equality, scores by bit pattern.
fn assert_same(label: &str, dense: &Correlation, reference: &Correlation) {
    assert_eq!(dense.id_map, reference.id_map, "{label}: id_map");
    assert_eq!(
        dense.new_groups, reference.new_groups,
        "{label}: new_groups"
    );
    assert_eq!(
        dense.vanished_groups, reference.vanished_groups,
        "{label}: vanished_groups"
    );
    assert_eq!(
        dense.added_hosts, reference.added_hosts,
        "{label}: added_hosts"
    );
    assert_eq!(
        dense.removed_hosts, reference.removed_hosts,
        "{label}: removed_hosts"
    );
    assert_eq!(dense.h_same, reference.h_same, "{label}: h_same");
    let bits = |c: &Correlation| -> Vec<((GroupId, GroupId), u64)> {
        c.scores.iter().map(|(&k, v)| (k, v.to_bits())).collect()
    };
    assert_eq!(bits(dense), bits(reference), "{label}: score bits");
}

/// The id decisions the engine journaled, in order.
fn journaled_decisions(rec: &Recorder) -> Vec<Decision> {
    let field = |fields: &[(&'static str, FieldValue)], name: &str| -> FieldValue {
        fields
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("event without field {name}"))
    };
    let id = |v: FieldValue| match v {
        FieldValue::U64(x) => x as u32,
        other => panic!("unexpected id field {other:?}"),
    };
    rec.events()
        .take()
        .into_iter()
        .filter_map(|e| match e.name {
            "roleclass_engine_id_carried" => Some(Decision::Carried {
                curr: id(field(&e.fields, "curr")),
                prev: id(field(&e.fields, "prev")),
                score_bits: match field(&e.fields, "score") {
                    FieldValue::F64(s) => s.to_bits(),
                    other => panic!("unexpected score field {other:?}"),
                },
                rule: match field(&e.fields, "rule") {
                    FieldValue::Str(s) => s,
                    other => panic!("unexpected rule field {other:?}"),
                },
            }),
            "roleclass_engine_id_minted" => Some(Decision::Minted(id(field(&e.fields, "group")))),
            "roleclass_engine_id_retired" => Some(Decision::Retired(id(field(&e.fields, "group")))),
            _ => None,
        })
        .collect()
}

/// `windows` snapshots of `net`: the original, then — before each later
/// one — every role swaps one host with the next role and replaces one
/// host with a brand-new address.
fn churned(mut net: SyntheticNetwork, windows: usize, seed: u64) -> Vec<SyntheticNetwork> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fresh = HostAddr::from_octets(172, 16, 0, 1).as_u32();
    let mut out = vec![net.clone()];
    for _ in 1..windows {
        let roles: Vec<String> = net.hosts_by_role.keys().cloned().collect();
        for (i, role) in roles.iter().enumerate() {
            let next = &roles[(i + 1) % roles.len()];
            let pick = |net: &SyntheticNetwork, r: &str, rng: &mut StdRng| {
                let hs = net.role_hosts(r);
                hs[rng.gen_range(0..hs.len())]
            };
            let (a, b) = (pick(&net, role, &mut rng), pick(&net, next, &mut rng));
            churn::swap_hosts(&mut net, a, b);
            let old = pick(&net, role, &mut rng);
            churn::replace_host(&mut net, old, HostAddr::v4(fresh));
            fresh += 1;
        }
        out.push(net.clone());
    }
    out
}

/// Runs `nets` as consecutive engine windows over connection sets
/// interned into one shared `HostTable`, and checks every correlation
/// against the reference: fields, decision order and work counters.
/// Then re-interns each window into its own fresh table and checks
/// `try_correlate` against the same reference.
fn check_windows(label: &str, nets: &[SyntheticNetwork], params: Params) {
    let mut table = HostTable::new();
    let opts = trace::TraceOptions {
        min_flows_per_conn: 1,
        max_flows_per_conn: 1,
        ..trace::TraceOptions::default()
    };
    let shared: Vec<ConnectionSets> = nets
        .iter()
        .enumerate()
        .map(|(w, net)| {
            let mut b = ConnsetBuilder::new();
            b.add_records(&trace::expand(&net.connsets, opts, w as u64));
            b.build_with_stats_into(&mut table).0
        })
        .collect();

    let rec = Arc::new(Recorder::new());
    let mut engine = Engine::from_config(EngineConfig::new(params))
        .expect("valid params")
        .with_recorder(rec.clone());
    let counter = |name: &str| rec.registry().counter(name).get();
    let mut prev: Option<(usize, Grouping)> = None;
    let mut raw = Vec::new();
    for (w, cs) in shared.iter().enumerate() {
        let (c0, e0) = (
            counter("roleclass_engine_correlate_candidates_total"),
            counter("roleclass_engine_correlate_similarity_evals_total"),
        );
        let outcome = engine.run_window(cs);
        let decisions = journaled_decisions(&rec);
        let curr = outcome.classification.grouping.clone();
        if let Some((p, prev_grouping)) = &prev {
            let want = correlate_reference(&shared[*p], prev_grouping, cs, &curr, &params);
            let got = outcome.correlation.as_ref().expect("correlated window");
            let label = format!("{label}/shared/window {w}");
            assert_same(&label, got, &want.corr);
            assert_eq!(decisions, want.decisions, "{label}: decision order");
            assert_eq!(
                counter("roleclass_engine_correlate_candidates_total") - c0,
                want.candidates,
                "{label}: candidates"
            );
            assert_eq!(
                counter("roleclass_engine_correlate_similarity_evals_total") - e0,
                want.evals,
                "{label}: similarity evals"
            );
        }
        prev = Some((w, outcome.grouping.clone()));
        raw.push(curr);
    }

    // Separate tables: same content, each window interned afresh.
    let separate: Vec<ConnectionSets> = shared
        .iter()
        .map(|cs| ConnectionSets::from_pairs(cs.hosts(), cs.edges()))
        .collect();
    for w in 1..separate.len() {
        let (p, c) = (&separate[w - 1], &separate[w]);
        assert!(!Arc::ptr_eq(p.table(), c.table()));
        let want = correlate_reference(p, &raw[w - 1], c, &raw[w], &params);
        let got = try_correlate(p, &raw[w - 1], c, &raw[w], &params).unwrap();
        assert_same(&format!("{label}/separate/window {w}"), &got, &want.corr);
    }
}

#[test]
fn dense_matches_reference_on_churned_mazu() {
    check_windows(
        "mazu",
        &churned(scenarios::mazu(7), 3, 7),
        Params::default(),
    );
}

#[test]
fn dense_matches_reference_on_churned_small_office() {
    check_windows(
        "small_office",
        &churned(scenarios::small_office(11), 3, 11),
        Params::default(),
    );
}

#[test]
fn dense_matches_reference_on_churned_datacenter() {
    check_windows(
        "datacenter",
        &churned(scenarios::datacenter(13), 3, 13),
        Params::default(),
    );
}

#[test]
fn dense_matches_reference_on_formation_groups() {
    // Tight merging thresholds keep many small groups: more candidates,
    // more size matching, more step-2 leftovers.
    let params = Params::default().with_s_lo(90.0).with_s_hi(95.0);
    check_windows("mazu/formation", &churned(scenarios::mazu(3), 3, 3), params);
}

#[test]
fn dense_matches_reference_on_churned_department_3k() {
    check_windows(
        "department(3000)",
        &churned(scenarios::department(3000, 17), 3, 17),
        Params::default(),
    );
}

#[test]
#[ignore = "slow in debug builds: run in release with --include-ignored"]
fn dense_matches_reference_on_churned_big_company() {
    check_windows(
        "big_company",
        &churned(scenarios::big_company(19), 3, 19),
        Params::default(),
    );
}

/// Known deviation from the paper-literal all-pairs step 1: the
/// candidate pre-filter scores only previous groups that share a member
/// or neighbor identifier with the current group, yet pass 2's size
/// matching alone can score an identifier-disjoint pair above `s_corr`.
/// Such a pair stays unmatched (`new` + `vanished`) instead of being
/// carried. DESIGN.md documents this; the test pins it.
#[test]
fn identifier_disjoint_groups_are_never_paired() {
    let h = HostAddr::v4;
    let hosts = || [1, 2, 3, 10, 11, 21, 22, 23, 30, 31].map(h);
    // Previous window: clients 1..=3 use servers 10 and 11; hosts 21..=23,
    // 30 and 31 are present but idle. Current window: clients 21..=23 use
    // servers 30 and 31 — the same shape on disjoint hosts — while
    // 1..=3, 10 and 11 fall idle.
    let star = |clients: [u32; 3], servers: [u32; 2]| {
        ConnectionSets::from_pairs(
            hosts(),
            clients
                .into_iter()
                .flat_map(move |c| servers.map(|s| (h(c), h(s)))),
        )
    };
    let prev = star([1, 2, 3], [10, 11]);
    let curr = star([21, 22, 23], [30, 31]);
    let grouping = |groups: [&[u32]; 3]| {
        Grouping::new(
            (0u32..)
                .zip(groups)
                .map(|(id, members)| Group {
                    id: GroupId(id),
                    k: 1,
                    members: members.iter().copied().map(h).collect(),
                })
                .collect(),
        )
    };
    let prev_g = grouping([&[1, 2, 3], &[10, 11], &[21, 22, 23, 30, 31]]);
    let curr_g = grouping([&[21, 22, 23], &[30, 31], &[1, 2, 3, 10, 11]]);
    let params = Params::default();

    // Scored directly, the two client groups match on size alone: each
    // neighbor is a server of degree 3 in both windows, so pass 2 pairs
    // them all at weight 0.85, i.e. 85 >= s_corr. (Every host is in both
    // windows, so the restricted sets are the full ones.)
    let common: BTreeSet<HostAddr> = hosts().into_iter().collect();
    let (pv, cv) = (
        build_views(&prev, &common, &prev_g),
        build_views(&curr, &common, &curr_g),
    );
    let direct = time_varying_similarity(&cv[0], &pv[0], &curr, &prev, &BTreeSet::new(), 0.3);
    assert!(
        direct >= params.s_corr,
        "size matching alone scores {direct}"
    );

    // But the client groups share no identifier, so the pre-filter never
    // offers the pair; their only candidates are the idle groups, which
    // fail the average-connection gate. Nothing is carried.
    let got = try_correlate(&prev, &prev_g, &curr, &curr_g, &params).unwrap();
    assert!(got.id_map.is_empty(), "{:?}", got.id_map);
    assert_eq!(got.new_groups, [0, 1, 2].map(GroupId));
    assert_eq!(got.vanished_groups, [0, 1, 2].map(GroupId));
    let want = correlate_reference(&prev, &prev_g, &curr, &curr_g, &params);
    assert_same("disjoint", &got, &want.corr);
}

/// A random host population `0..n` (isolated hosts included) with
/// random edges.
fn arb_connsets(n: u32, max_edges: usize) -> impl Strategy<Value = ConnectionSets> {
    prop::collection::vec((0..n, 0..n), 0..max_edges).prop_map(move |edges| {
        ConnectionSets::from_pairs(
            (0..n).map(HostAddr::v4),
            edges
                .into_iter()
                .map(|(a, b)| (HostAddr::v4(a), HostAddr::v4(b))),
        )
    })
}

/// Derives a "next window" from `prev`: drops the hosts in `gone`,
/// rewires a few edges, and adds a few hosts above the population.
fn next_window(
    prev: &ConnectionSets,
    gone: &BTreeSet<u32>,
    extra: &[(u32, u32)],
    n: u32,
) -> ConnectionSets {
    let keep = |a: &HostAddr| !gone.contains(&a.as_u32());
    ConnectionSets::from_pairs(
        prev.hosts().filter(keep),
        prev.edges()
            .into_iter()
            .filter(|(a, b)| keep(a) && keep(b))
            .chain(
                extra
                    .iter()
                    .map(|&(a, b)| (HostAddr::v4(a % (n + 4)), HostAddr::v4(b % n))),
            ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_matches_reference_on_random_pairs(
        prev in arb_connsets(24, 70),
        gone in prop::collection::btree_set(0u32..24, 0..5),
        extra in prop::collection::vec((0u32..40, 0u32..24), 0..12),
        tight in any::<bool>(),
    ) {
        let n = 24;
        let curr = next_window(&prev, &gone, &extra, n);
        let params = if tight {
            Params::default().with_s_lo(90.0).with_s_hi(95.0)
        } else {
            Params::default()
        };
        let gp = try_classify(&prev, &params).unwrap().grouping;
        let gc = try_classify(&curr, &params).unwrap().grouping;
        let got = try_correlate(&prev, &gp, &curr, &gc, &params).unwrap();
        let want = correlate_reference(&prev, &gp, &curr, &gc, &params);
        assert_same("random", &got, &want.corr);
    }

    /// Groupings need not come from the snapshots they are correlated
    /// over: members absent from their snapshot (or from the other one)
    /// still count as identifiers, exactly as in the reference.
    #[test]
    fn dense_matches_reference_on_arbitrary_partitions(
        prev in arb_connsets(16, 40),
        curr in arb_connsets(20, 50),
        prev_labels in prop::collection::vec(0u32..5, 22),
        curr_labels in prop::collection::vec(0u32..5, 22),
    ) {
        let partition = |labels: &[u32]| {
            let mut groups: BTreeMap<u32, Vec<HostAddr>> = BTreeMap::new();
            for (h, &l) in labels.iter().enumerate() {
                groups.entry(l).or_default().push(HostAddr::v4(h as u32));
            }
            Grouping::new(
                groups
                    .into_iter()
                    .map(|(id, members)| Group { id: GroupId(id), k: 1, members })
                    .collect(),
            )
        };
        let (gp, gc) = (partition(&prev_labels), partition(&curr_labels));
        let params = Params::default();
        let got = try_correlate(&prev, &gp, &curr, &gc, &params).unwrap();
        let want = correlate_reference(&prev, &gp, &curr, &gc, &params);
        assert_same("partition", &got, &want.corr);
    }
}
