//! Role correlation across grouping runs (Section 5).
//!
//! Two runs of the grouping algorithm assign unrelated ids; this module
//! matches the groups of the *current* run to those of a *previous* run
//! so that a stable logical role keeps a stable id, surviving host
//! arrivals and removals, role swaps (the paper's unix_mail/ms_exchange
//! IP exchange), and server replacement.
//!
//! The algorithm never consults a change log; like the paper, it works
//! from the same connection sets the grouping algorithm saw:
//!
//! 1. strip hosts present in only one snapshot, so connection-set
//!    differences reflect behavior changes, not population changes;
//! 2. compute `H_same`, the hosts whose connection sets are bitwise
//!    identical across snapshots — they anchor neighbor matching;
//! 3. **step 1** — for each current group, score every plausible previous
//!    group with a *time-varying similarity* built from matched neighbor
//!    pairs (identity for `H_same` neighbors, otherwise nearest
//!    connection-set size within `T^hi`), require the groups' average
//!    connection counts to be within `T^hi`, and greedily take the best
//!    one-to-one matches;
//! 4. **step 2** — for groups still uncorrelated, compare their
//!    connection patterns *to already-correlated neighbor groups* and
//!    accept sufficiently similar pairs.

use crate::group::{GroupId, Grouping};
use crate::params::{ParamError, Params};
use flow::{ConnectionSets, HostAddr};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Result of correlating a current grouping against a previous one.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Correlation {
    /// Current-group → previous-group id matches.
    pub id_map: BTreeMap<GroupId, GroupId>,
    /// Current groups with no previous counterpart.
    pub new_groups: Vec<GroupId>,
    /// Previous groups with no current counterpart.
    pub vanished_groups: Vec<GroupId>,
    /// Hosts only present in the current snapshot.
    pub added_hosts: BTreeSet<HostAddr>,
    /// Hosts only present in the previous snapshot.
    pub removed_hosts: BTreeSet<HostAddr>,
    /// Hosts whose connection sets did not change at all.
    pub h_same: BTreeSet<HostAddr>,
    /// The similarity score behind each accepted match.
    #[serde(with = "score_map")]
    pub scores: BTreeMap<(GroupId, GroupId), f64>,
}

/// Serde adapter: tuple-keyed maps are not representable in JSON, so the
/// score map round-trips as a vector of `(curr, prev, score)` entries.
mod score_map {
    use super::{BTreeMap, GroupId};
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(
        map: &BTreeMap<(GroupId, GroupId), f64>,
        s: S,
    ) -> Result<S::Ok, S::Error> {
        let entries: Vec<(GroupId, GroupId, f64)> =
            map.iter().map(|(&(a, b), &v)| (a, b, v)).collect();
        entries.serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        d: D,
    ) -> Result<BTreeMap<(GroupId, GroupId), f64>, D::Error> {
        let entries: Vec<(GroupId, GroupId, f64)> = Vec::deserialize(d)?;
        Ok(entries.into_iter().map(|(a, b, v)| ((a, b), v)).collect())
    }
}

/// "No row" / "no group" marker in the dense index arrays.
const NONE: u32 = u32::MAX;

/// The common-host plane of two snapshots.
///
/// Both `member_addrs()` columns are sorted, so one merge-walk numbers
/// the hosts present in both snapshots in address order: the *common
/// rows*. Common-row order is address order, so every walk below visits
/// hosts in the order an address-keyed formulation would, which keeps
/// each f64 sum and each "smallest address" tie-break bit-identical to
/// it. Snapshots interned into separate `HostTable`s line up the same.
struct Plane {
    /// Snapshot row → common row (or [`NONE`]), per snapshot.
    prev_common: Vec<u32>,
    curr_common: Vec<u32>,
    /// Common row → its (previous, current) snapshot rows.
    rows: Vec<(u32, u32)>,
    /// Restricted degree `|C(h) ∩ common|` per common row, per snapshot.
    prev_deg: Vec<u32>,
    curr_deg: Vec<u32>,
    /// `H_same` as a bitset over common rows.
    same: Vec<u64>,
}

/// Snapshot row `row`'s neighbors that are common hosts, as ascending
/// common rows.
fn restricted<'a>(
    cs: &'a ConnectionSets,
    to_common: &'a [u32],
    row: u32,
) -> impl Iterator<Item = u32> + 'a {
    let (off, adj) = cs.csr();
    adj[off[row as usize] as usize..off[row as usize + 1] as usize]
        .iter()
        .map(|&x| to_common[x as usize])
        .filter(|&c| c != NONE)
}

impl Plane {
    /// Numbers the common rows and records the one-sided hosts in `out`
    /// (span `correlate.restrict`), then marks `H_same`, the common hosts
    /// whose restricted connection sets are identical in both snapshots
    /// (span `correlate.h_same`).
    fn new(
        prev: &ConnectionSets,
        curr: &ConnectionSets,
        out: &mut Correlation,
        rec: Option<&telemetry::Recorder>,
    ) -> Plane {
        let restrict_span = telemetry::span(rec, "correlate.restrict");
        let (pa, ca) = (prev.member_addrs(), curr.member_addrs());
        let mut prev_common = vec![NONE; pa.len()];
        let mut curr_common = vec![NONE; ca.len()];
        let mut rows = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < pa.len() || j < ca.len() {
            if j == ca.len() || (i < pa.len() && pa[i] < ca[j]) {
                out.removed_hosts.insert(pa[i]);
                i += 1;
            } else if i == pa.len() || ca[j] < pa[i] {
                out.added_hosts.insert(ca[j]);
                j += 1;
            } else {
                prev_common[i] = rows.len() as u32;
                curr_common[j] = rows.len() as u32;
                rows.push((i as u32, j as u32));
                i += 1;
                j += 1;
            }
        }
        let deg = |cs, to_common, row: fn(&(u32, u32)) -> u32| {
            let count = |r| restricted(cs, to_common, row(r)).count() as u32;
            rows.iter().map(count).collect()
        };
        let (prev_deg, curr_deg): (Vec<u32>, Vec<u32>) = (
            deg(prev, &prev_common, |r| r.0),
            deg(curr, &curr_common, |r| r.1),
        );
        drop(restrict_span);

        let _h_same_span = telemetry::span(rec, "correlate.h_same");
        let mut same = vec![0u64; rows.len().div_ceil(64)];
        for (c, &(p, q)) in rows.iter().enumerate() {
            if prev_deg[c] == curr_deg[c]
                && restricted(prev, &prev_common, p).eq(restricted(curr, &curr_common, q))
            {
                same[c / 64] |= 1 << (c % 64);
                out.h_same.insert(pa[p as usize]);
            }
        }
        Plane {
            prev_common,
            curr_common,
            rows,
            prev_deg,
            curr_deg,
            same,
        }
    }

    fn is_same(&self, c: u32) -> bool {
        self.same[c as usize / 64] >> (c % 64) & 1 == 1
    }
}

/// One neighbor of a group view, with everything an evaluation reads
/// about it stored inline.
#[derive(Clone, Copy)]
struct Nbr {
    /// Common row.
    row: u32,
    /// `CP(h, G)`: members of the group connected to `h`.
    count: u32,
    /// Restricted degree of `h` in the view's own snapshot.
    deg: u32,
    /// `h ∈ H_same`.
    same: bool,
}

/// Per-group view over the common-row plane.
///
/// Members are kept even when they are arrivals/departures (only their
/// connections to the common population count), so a group whose entire
/// membership was replaced — the paper's load-sharing server split — can
/// still correlate through its unchanged client side.
struct View {
    id: GroupId,
    /// Members present in both snapshots, as ascending common rows.
    members: Vec<u32>,
    /// The other members, ascending.
    extra: Vec<HostAddr>,
    /// Neighbors outside the group, by ascending row, and Σ `count`.
    nbrs: Vec<Nbr>,
    total: u64,
    /// Average member connection count.
    avg_conns: f64,
    /// Previous-run views only: neighbor positions sorted by (restricted
    /// degree, row) — the size-matching index — and its inverse.
    by_deg: Vec<(u32, u32)>,
    deg_rank: Vec<u32>,
}

impl View {
    /// Neighbor `i`'s share `CP(h, G) / total` of the group's connections.
    fn share(&self, i: usize) -> f64 {
        self.nbrs[i].count as f64 / self.total as f64
    }
}

/// Builds the views of `grouping` over its snapshot `cs` — the previous
/// one when `prev`, whose views also carry the size-matching index —
/// plus the common row → group index map.
fn build_views(
    plane: &Plane,
    cs: &ConnectionSets,
    grouping: &Grouping,
    prev: bool,
) -> (Vec<View>, Vec<u32>) {
    let (to_common, deg) = match prev {
        true => (&plane.prev_common, &plane.prev_deg),
        false => (&plane.curr_common, &plane.curr_deg),
    };
    let (addrs, (off, adj)) = (cs.member_addrs(), cs.csr());
    let row_of = |h: &HostAddr| addrs.binary_search(h).ok();
    let mut group_of_common = vec![NONE; deg.len()];
    let mut cnt = vec![0u32; deg.len()];
    let mut views = Vec::with_capacity(grouping.group_count());
    for (gi, g) in (0u32..).zip(grouping.groups()) {
        let (mut members, mut extra, mut rows) = (Vec::new(), Vec::new(), Vec::new());
        for m in &g.members {
            match row_of(m).map(|r| to_common[r]) {
                Some(c) if c != NONE => members.push(c),
                _ => extra.push(*m),
            }
        }
        for &c in &members {
            group_of_common[c as usize] = gi;
        }
        // Members' connections into the common plane: all of them count
        // towards the average, those leaving the group are its neighbors.
        let mut deg_sum = 0usize;
        for r in g.members.iter().filter_map(row_of) {
            for &n in &adj[off[r] as usize..off[r + 1] as usize] {
                let c = to_common[n as usize];
                if c == NONE {
                    continue;
                }
                deg_sum += 1;
                if group_of_common[c as usize] != gi {
                    if cnt[c as usize] == 0 {
                        rows.push(c);
                    }
                    cnt[c as usize] += 1;
                }
            }
        }
        rows.sort_unstable();
        let nbrs: Vec<Nbr> = rows
            .into_iter()
            .map(|row| Nbr {
                row,
                count: std::mem::take(&mut cnt[row as usize]),
                deg: deg[row as usize],
                same: plane.is_same(row),
            })
            .collect();
        let mut by_deg: Vec<(u32, u32)> = match prev {
            true => (0u32..).zip(&nbrs).map(|(k, h)| (h.deg, k)).collect(),
            false => Vec::new(),
        };
        by_deg.sort_unstable();
        let mut deg_rank = vec![0; by_deg.len()];
        for (rank, &(_, k)) in (0u32..).zip(&by_deg) {
            deg_rank[k as usize] = rank;
        }
        views.push(View {
            id: g.id,
            members,
            extra,
            total: nbrs.iter().map(|h| u64::from(h.count)).sum(),
            nbrs,
            avg_conns: deg_sum as f64 / g.members.len().max(1) as f64,
            by_deg,
            deg_rank,
        });
    }
    (views, group_of_common)
}

/// `a` and `b` within fraction `tol` of each other.
fn within(tol: f64, a: f64, b: f64) -> bool {
    let hi = a.max(b);
    if hi == 0.0 {
        return true;
    }
    (a - b).abs() <= tol * hi
}

/// Root of `x` in a path-halving "next alive" forest: `p[x] == x` marks
/// an alive entry, a dead one points one step along its direction.
fn alive_root(p: &mut [u32], mut x: u32) -> u32 {
    while p[x as usize] != x {
        let up = p[p[x as usize] as usize];
        p[x as usize] = up;
        x = up;
    }
    x
}

/// Reusable per-evaluation scratch for step 1.
#[derive(Default)]
struct Scratch {
    /// Current-view positions of the neighbors left for pass 2.
    unmatched: Vec<u32>,
    /// Alive forests over the previous view's `by_deg`: next-alive
    /// pointers (sentinel `len`), and prev-alive pointers shifted by one
    /// (index `k + 1` is entry `k`, sentinel 0).
    next: Vec<u32>,
    prev: Vec<u32>,
}

impl Scratch {
    /// Marks entry `k` dead in both forests.
    fn kill(&mut self, k: u32) {
        self.next[k as usize] = k + 1;
        self.prev[k as usize + 1] = k;
    }
}

/// The time-varying similarity between a current and a previous group
/// view, in `[0, 100]`. `inter` is their member-identifier overlap.
fn time_varying_similarity(
    curr: &View,
    prev: &View,
    inter: usize,
    t_hi: f64,
    s: &mut Scratch,
) -> f64 {
    let size = |v: &View| v.members.len() + v.extra.len();
    let union = size(curr) + size(prev) - inter;
    // With `union == 0`, `inter` is 0 too and the overlap scores 0.
    let member_jaccard = inter as f64 / union.max(1) as f64;
    if curr.total == 0 && prev.total == 0 {
        // Neither group has external neighbors (e.g., the whole network
        // collapsed into one group): the connection-pattern signal is
        // empty, so identity is all there is.
        return (100.0 * member_jaccard).clamp(0.0, 100.0);
    }
    if curr.total == 0 || prev.total == 0 {
        return 0.0;
    }
    // Matched neighbor pairs contribute at a confidence weight that
    // prefers stronger evidence: an identical host with an unchanged
    // connection set (H_same) counts fully; the same identifier with a
    // changed set counts slightly less; a pure size match (the paper's
    // fallback rule) less still. The discounts act only as tie-breakers —
    // the paper leaves "strongest similarity" ties unspecified, and
    // without them a clean role swap scores its true predecessor and an
    // unrelated same-shape group identically.
    const W_IDENTITY_SAME: f64 = 1.0;
    const W_IDENTITY: f64 = 0.95;
    const W_SIZE_MATCH: f64 = 0.85;
    // A small bonus for member overlap. Kept well below the identity/
    // size-match discounts' spread so that behavior still beats identity
    // when the two disagree outright (the paper's server role swap must
    // follow behavior), while identical member sets win genuine ties
    // (two client populations distinguishable only through the swapped
    // servers).
    const MEMBER_BONUS: f64 = 5.0;

    let mut acc = 0.0f64;
    // Pass 1: identity matches, a merge-walk of the two ascending
    // neighbor lists. A neighbor with the same identifier matches itself
    // outright; full weight if its whole connection set is unchanged
    // (h ∈ H_same).
    let len = prev.by_deg.len() as u32;
    let mut alive = len;
    s.unmatched.clear();
    s.next.clear();
    s.next.extend(0..=len);
    s.prev.clear();
    s.prev.extend(0..=len);
    let mut j = 0;
    for (i, h) in curr.nbrs.iter().enumerate() {
        while j < prev.nbrs.len() && prev.nbrs[j].row < h.row {
            j += 1;
        }
        let weight = match prev.nbrs.get(j).filter(|p| p.row == h.row) {
            Some(_) if h.same => W_IDENTITY_SAME,
            Some(p) if within(t_hi, h.deg as f64, p.deg as f64) => W_IDENTITY,
            // Not a neighbor of both, or changed beyond tolerance.
            _ => {
                s.unmatched.push(i as u32);
                continue;
            }
        };
        acc += weight * curr.share(i).min(prev.share(j));
        s.kill(prev.deg_rank[j]);
        alive -= 1;
    }
    // Pass 2: size matching. "The connection set size of h_{t-1} is
    // within T^hi percent of that of h_t and no other neighbor of
    // G_{t-1} has the connection set size closer to that of h_t." The
    // still-unmatched previous neighbors are the alive entries of
    // `by_deg`; the nearest one on each side of `d_t` is a
    // path-compressed pointer chase away, never a linear skip.
    for i in 0..s.unmatched.len() {
        let i = s.unmatched[i];
        if alive == 0 {
            break;
        }
        let d_t = curr.nbrs[i as usize].deg;
        let at = prev.by_deg.partition_point(|&(d, _)| d < d_t) as u32;
        // Closest size, the lower one on ties. Within a size, `by_deg`'s
        // row order takes the smallest address above and the largest
        // below, as a range query on an address-keyed ordered map would.
        let (above, below) = (alive_root(&mut s.next, at), alive_root(&mut s.prev, at));
        let gap = |k: u32| d_t.abs_diff(prev.by_deg[k as usize].0);
        let k = if below > 0 && (above == len || gap(below - 1) <= gap(above)) {
            below - 1
        } else if above < len {
            above
        } else {
            continue;
        };
        let (d_p, j) = prev.by_deg[k as usize];
        if within(t_hi, d_t as f64, d_p as f64) {
            acc += W_SIZE_MATCH * curr.share(i as usize).min(prev.share(j as usize));
            s.kill(k);
            alive -= 1;
        }
    }
    (100.0 * acc + MEMBER_BONUS * member_jaccard).clamp(0.0, 100.0)
}

/// A view's neighbor connections collapsed onto the groups of
/// `group_of_common`: group index (= id order) → Σ `CP`.
fn by_group(view: &View, group_of_common: &[u32]) -> BTreeMap<u32, u64> {
    let mut sums = BTreeMap::new();
    for h in &view.nbrs {
        let g = group_of_common[h.row as usize];
        if g != NONE {
            *sums.entry(g).or_insert(0) += u64::from(h.count);
        }
    }
    sums
}

/// Group-level neighbor-pattern similarity for step 2: compares how the
/// two groups connect to *already-correlated* neighbor groups. `curr`
/// lists the current group's neighbor groups as their step-1 previous
/// counterparts, in current-id order; `prev` maps the previous group's.
fn neighbor_group_similarity(
    curr: &[(u32, u64)],
    ct: u64,
    prev: &BTreeMap<u32, u64>,
    pt: u64,
) -> f64 {
    if ct == 0 || pt == 0 {
        return 0.0;
    }
    let mut acc = 0.0f64;
    for &(g, w_t) in curr {
        if let Some(&w_p) = prev.get(&g) {
            acc += (w_t as f64 / ct as f64).min(w_p as f64 / pt as f64);
        }
    }
    (100.0 * acc).clamp(0.0, 100.0)
}

/// Greedy one-to-one matching state shared by steps 1 and 2.
struct Matching<'a> {
    curr: &'a [View],
    prev: &'a [View],
    /// Current view → matched previous view (or [`NONE`]).
    curr_match: Vec<u32>,
    prev_taken: Vec<bool>,
}

impl Matching<'_> {
    /// Accepts `scored` pairs best-first (ties keep their scoring order),
    /// skipping pairs with an already-matched side.
    fn take(
        &mut self,
        mut scored: Vec<(f64, usize, usize)>,
        rule: &str,
        out: &mut Correlation,
        rec: Option<&telemetry::Recorder>,
    ) {
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        for (s, ci, pi) in scored {
            if self.curr_match[ci] != NONE || self.prev_taken[pi] {
                continue;
            }
            self.curr_match[ci] = pi as u32;
            self.prev_taken[pi] = true;
            let (curr, prev) = (self.curr[ci].id, self.prev[pi].id);
            out.id_map.insert(curr, prev);
            out.scores.insert((curr, prev), s);
            if let Some(r) = rec {
                r.events().record(
                    "engine",
                    "roleclass_engine_id_carried",
                    vec![
                        ("curr", u64::from(curr.0).into()),
                        ("prev", u64::from(prev.0).into()),
                        ("score", s.into()),
                        ("rule", rule.into()),
                    ],
                );
            }
        }
    }
}

/// Fallible entry point of role correlation: validates `params`, then
/// correlates.
///
/// `prev_cs`/`curr_cs` must be the connection sets the respective
/// groupings were computed from.
pub fn try_correlate(
    prev_cs: &ConnectionSets,
    prev_grouping: &Grouping,
    curr_cs: &ConnectionSets,
    curr_grouping: &Grouping,
    params: &Params,
) -> Result<Correlation, ParamError> {
    params.validate()?;
    Ok(correlate_with_events(
        prev_cs,
        prev_grouping,
        curr_cs,
        curr_grouping,
        params,
        None,
    ))
}

/// Correlation proper, with an optional recorder. Callers must have
/// validated `params`. Emits one provenance event per id decision —
/// `id_carried` (with the matching rule that fired and its score),
/// `id_minted` for new groups, and `id_retired` for vanished ones — plus
/// per-phase introspection: spans for each internal phase
/// (`correlate.restrict`, `.h_same`, `.views`, `.step1`, `.step2`,
/// `.finalize`, nested under the caller's `engine.correlate` span) and
/// counters for candidate pairs examined, similarity evaluations run,
/// and ids carried/minted/retired. With `None` the phase is exactly the
/// uninstrumented one.
pub(crate) fn correlate_with_events(
    prev_cs: &ConnectionSets,
    prev_grouping: &Grouping,
    curr_cs: &ConnectionSets,
    curr_grouping: &Grouping,
    params: &Params,
    rec: Option<&telemetry::Recorder>,
) -> Correlation {
    let mut out = Correlation::default();

    // Phase counters, folded into the registry once at the end so the
    // hot loops stay branch-light. They tally regardless of attachment
    // (plain integer adds) — outcomes are identical either way.
    let mut candidate_pairs = 0u64;
    let mut similarity_evals = 0u64;

    // 1–2. Restrict both snapshots to the common host population, and
    // find H_same.
    let plane = Plane::new(prev_cs, curr_cs, &mut out, rec);

    let views_span = telemetry::span(rec, "correlate.views");
    let (curr_views, curr_goc) = build_views(&plane, curr_cs, curr_grouping, false);
    let (prev_views, prev_goc) = build_views(&plane, prev_cs, prev_grouping, true);
    // Candidate pre-filter: groups sharing a member or a neighbor
    // identifier. `prev_goc` finds a common host's previous group,
    // `nbr_of` the previous groups it neighbors, and other members
    // match through the previous grouping itself.
    let mut nbr_of: Vec<Vec<u32>> = vec![Vec::new(); plane.rows.len()];
    for (pi, v) in (0u32..).zip(&prev_views) {
        for h in &v.nbrs {
            nbr_of[h.row as usize].push(pi);
        }
    }
    let prev_view_of = |h: &HostAddr| {
        let g = prev_grouping.group_of(*h);
        let groups = prev_grouping.groups();
        g.and_then(|g| groups.binary_search_by_key(&g, |g| g.id).ok())
            .map_or(NONE, |pi| pi as u32)
    };
    drop(views_span);

    // 3. Step 1: greedy best-first matching on time-varying similarity.
    let step1_span = telemetry::span(rec, "correlate.step1");
    let mut scored: Vec<(f64, usize, usize)> = Vec::new();
    let (mut stamp, mut inter) = (vec![0u32; prev_views.len()], vec![0u32; prev_views.len()]);
    let mut cand: Vec<u32> = Vec::new();
    let mut scratch = Scratch::default();
    for (ci, cv) in curr_views.iter().enumerate() {
        // One walk over the view finds its candidates and, since a member
        // belongs to at most one previous group, every member overlap.
        cand.clear();
        let tag = ci as u32 + 1;
        let mut offer = |pi: u32, member: bool| {
            if pi == NONE {
                return;
            }
            if member {
                inter[pi as usize] += 1;
            }
            if stamp[pi as usize] != tag {
                stamp[pi as usize] = tag;
                cand.push(pi);
            }
        };
        for &c in &cv.members {
            offer(prev_goc[c as usize], true);
        }
        for h in &cv.extra {
            offer(prev_view_of(h), true);
        }
        let nbr_rows = cv.nbrs.iter().map(|h| h.row);
        for c in nbr_rows.clone() {
            offer(prev_goc[c as usize], false);
        }
        for c in cv.members.iter().copied().chain(nbr_rows) {
            for &pi in &nbr_of[c as usize] {
                offer(pi, false);
            }
        }
        cand.sort_unstable();
        for &pi in &cand {
            let (pi, pv) = (pi as usize, &prev_views[pi as usize]);
            candidate_pairs += 1;
            if !within(params.t_hi, cv.avg_conns, pv.avg_conns) {
                continue;
            }
            similarity_evals += 1;
            let s = time_varying_similarity(cv, pv, inter[pi] as usize, params.t_hi, &mut scratch);
            if s >= params.s_corr {
                scored.push((s, ci, pi));
            }
        }
        for &pi in &cand {
            inter[pi as usize] = 0;
        }
    }
    let mut matching = Matching {
        curr: &curr_views,
        prev: &prev_views,
        curr_match: vec![NONE; curr_views.len()],
        prev_taken: vec![false; prev_views.len()],
    };
    matching.take(scored, "time_varying", &mut out, rec);
    drop(step1_span);

    // 4. Step 2: leftover groups correlate through their (already
    // correlated) neighbor groups.
    let step2_span = telemetry::span(rec, "correlate.step2");
    let prev_groups: Vec<Option<BTreeMap<u32, u64>>> = prev_views
        .iter()
        .zip(&matching.prev_taken)
        .map(|(pv, &taken)| (!taken).then(|| by_group(pv, &prev_goc)))
        .collect();
    let mut scored2: Vec<(f64, usize, usize)> = Vec::new();
    for (ci, cv) in curr_views.iter().enumerate() {
        if matching.curr_match[ci] != NONE {
            continue;
        }
        let translated: Vec<(u32, u64)> = by_group(cv, &curr_goc)
            .into_iter()
            .map(|(g, w)| (matching.curr_match[g as usize], w))
            .filter(|&(g, _)| g != NONE)
            .collect();
        for (pi, (pv, pg)) in prev_views.iter().zip(&prev_groups).enumerate() {
            let Some(pg) = pg else {
                continue;
            };
            candidate_pairs += 1;
            if !within(params.t_hi, cv.avg_conns, pv.avg_conns) {
                continue;
            }
            similarity_evals += 1;
            let s = neighbor_group_similarity(&translated, cv.total, pg, pv.total);
            if s >= params.s_corr {
                scored2.push((s, ci, pi));
            }
        }
    }
    matching.take(scored2, "neighbor_groups", &mut out, rec);
    drop(step2_span);

    // 5. Leftovers: unmatched current groups are new, unmatched previous
    // groups vanished.
    let finalize_span = telemetry::span(rec, "correlate.finalize");
    for (g, &m) in curr_grouping.groups().iter().zip(&matching.curr_match) {
        if m == NONE {
            out.new_groups.push(g.id);
            record_lifecycle(rec, "roleclass_engine_id_minted", g);
        }
    }
    for (g, &taken) in prev_grouping.groups().iter().zip(&matching.prev_taken) {
        if !taken {
            out.vanished_groups.push(g.id);
            record_lifecycle(rec, "roleclass_engine_id_retired", g);
        }
    }
    drop(finalize_span);

    if let Some(r) = rec {
        for (name, n) in [
            (
                "roleclass_engine_correlate_candidates_total",
                candidate_pairs,
            ),
            (
                "roleclass_engine_correlate_similarity_evals_total",
                similarity_evals,
            ),
            (
                "roleclass_engine_ids_carried_total",
                out.id_map.len() as u64,
            ),
            (
                "roleclass_engine_ids_minted_total",
                out.new_groups.len() as u64,
            ),
            (
                "roleclass_engine_ids_retired_total",
                out.vanished_groups.len() as u64,
            ),
        ] {
            r.registry().counter(name).add(n);
        }
    }
    out
}

/// Journals an `id_minted`/`id_retired` decision for `g`.
fn record_lifecycle(rec: Option<&telemetry::Recorder>, name: &'static str, g: &crate::Group) {
    if let Some(r) = rec {
        r.events().record(
            "engine",
            name,
            vec![
                ("group", u64::from(g.id.0).into()),
                ("members", g.members.len().into()),
            ],
        );
    }
}

/// Applies a correlation to the current grouping: correlated groups take
/// their previous ids; genuinely new groups get fresh ids above every id
/// either run used.
pub fn apply_correlation(corr: &Correlation, curr: &Grouping) -> Grouping {
    let mut next_fresh = corr
        .id_map
        .values()
        .map(|g| g.0)
        .chain(corr.vanished_groups.iter().map(|g| g.0))
        .chain(curr.groups().iter().map(|g| g.id.0))
        .max()
        .map_or(0, |m| m + 1);
    let mut map: BTreeMap<GroupId, GroupId> = corr.id_map.clone();
    for g in curr.groups() {
        map.entry(g.id).or_insert_with(|| {
            let fresh = GroupId(next_fresh);
            next_fresh += 1;
            fresh
        });
    }
    curr.clone().renumber(&map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::try_classify;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    /// Figure 1 network (M = N = 3), same layout as the other modules.
    fn figure1() -> ConnectionSets {
        let mut cs = ConnectionSets::new();
        for s in [11, 12, 13] {
            cs.add_pair(h(s), h(1));
            cs.add_pair(h(s), h(2));
            cs.add_pair(h(s), h(3));
        }
        for e in [21, 22, 23] {
            cs.add_pair(h(e), h(1));
            cs.add_pair(h(e), h(2));
            cs.add_pair(h(e), h(4));
        }
        cs
    }

    fn params() -> Params {
        // Keep formation-phase groups so there is structure to correlate.
        Params::default().with_s_lo(90.0).with_s_hi(95.0)
    }

    #[test]
    fn self_correlation_is_identity() {
        let cs = figure1();
        let c = try_classify(&cs, &params()).unwrap();
        let corr = try_correlate(&cs, &c.grouping, &cs, &c.grouping, &params()).unwrap();
        assert_eq!(corr.id_map.len(), c.grouping.group_count());
        for (a, b) in &corr.id_map {
            assert_eq!(a, b);
        }
        assert!(corr.new_groups.is_empty());
        assert!(corr.vanished_groups.is_empty());
        assert_eq!(corr.h_same.len(), cs.host_count());
        let renamed = apply_correlation(&corr, &c.grouping);
        assert_eq!(&renamed, &c.grouping);
    }

    #[test]
    fn detects_added_and_removed_hosts() {
        let prev = figure1();
        let mut curr = figure1();
        curr.remove_host(h(13));
        curr.add_pair(h(99), h(1));
        let gp = try_classify(&prev, &params()).unwrap().grouping;
        let gc = try_classify(&curr, &params()).unwrap().grouping;
        let corr = try_correlate(&prev, &gp, &curr, &gc, &params()).unwrap();
        assert!(corr.removed_hosts.contains(&h(13)));
        assert!(corr.added_hosts.contains(&h(99)));
    }

    #[test]
    fn role_swap_correlates_by_behavior_not_identity() {
        // Swap the "IP addresses" of the sales database (3) and the
        // source-control server (4): host 3 now serves eng, host 4 serves
        // sales. The group that *behaves* like the old sales-db group —
        // now containing host 4 — must inherit its id.
        let prev = figure1();
        let mut curr = ConnectionSets::new();
        for s in [11, 12, 13] {
            curr.add_pair(h(s), h(1));
            curr.add_pair(h(s), h(2));
            curr.add_pair(h(s), h(4)); // db is now host 4
        }
        for e in [21, 22, 23] {
            curr.add_pair(h(e), h(1));
            curr.add_pair(h(e), h(2));
            curr.add_pair(h(e), h(3)); // src-ctl is now host 3
        }
        let gp = try_classify(&prev, &params()).unwrap().grouping;
        let gc = try_classify(&curr, &params()).unwrap().grouping;
        let corr = try_correlate(&prev, &gp, &curr, &gc, &params()).unwrap();

        let prev_db = gp.group_of(h(3)).unwrap(); // db group at t-1
        let curr_db = gc.group_of(h(4)).unwrap(); // db group (by role) at t
        assert_eq!(corr.id_map.get(&curr_db), Some(&prev_db));
        let prev_src = gp.group_of(h(4)).unwrap();
        let curr_src = gc.group_of(h(3)).unwrap();
        assert_eq!(corr.id_map.get(&curr_src), Some(&prev_src));
        // The stable groups correlate to themselves.
        let prev_mw = gp.group_of(h(1)).unwrap();
        let curr_mw = gc.group_of(h(1)).unwrap();
        assert_eq!(corr.id_map.get(&curr_mw), Some(&prev_mw));
    }

    #[test]
    fn server_replacement_correlates_new_host() {
        // Replace the web server (2) with a brand-new machine (9).
        let prev = figure1();
        let mut curr = ConnectionSets::new();
        for s in [11, 12, 13] {
            curr.add_pair(h(s), h(1));
            curr.add_pair(h(s), h(9));
            curr.add_pair(h(s), h(3));
        }
        for e in [21, 22, 23] {
            curr.add_pair(h(e), h(1));
            curr.add_pair(h(e), h(9));
            curr.add_pair(h(e), h(4));
        }
        let gp = try_classify(&prev, &params()).unwrap().grouping;
        let gc = try_classify(&curr, &params()).unwrap().grouping;
        let corr = try_correlate(&prev, &gp, &curr, &gc, &params()).unwrap();
        // {mail, new-web} inherits the {mail, web} id.
        let prev_mw = gp.group_of(h(1)).unwrap();
        let curr_mw = gc.group_of(h(9)).unwrap();
        assert_eq!(gc.group_of(h(1)), Some(curr_mw));
        assert_eq!(corr.id_map.get(&curr_mw), Some(&prev_mw));
    }

    #[test]
    fn fresh_groups_get_fresh_ids() {
        // An entirely new, disconnected cluster appears at time t.
        let prev = figure1();
        let mut curr = figure1();
        for c in [31, 32, 33] {
            curr.add_pair(h(c), h(40));
            curr.add_pair(h(c), h(41));
        }
        let gp = try_classify(&prev, &params()).unwrap().grouping;
        let gc = try_classify(&curr, &params()).unwrap().grouping;
        let corr = try_correlate(&prev, &gp, &curr, &gc, &params()).unwrap();
        assert!(!corr.new_groups.is_empty());
        let renamed = apply_correlation(&corr, &gc);
        // Fresh ids must not collide with any previous id.
        let prev_ids: BTreeSet<GroupId> = gp.groups().iter().map(|g| g.id).collect();
        for gid in &corr.new_groups {
            let new_id = renamed.group_of(gc.group(*gid).unwrap().members[0]);
            assert!(new_id.is_some());
            assert!(
                !prev_ids.contains(&new_id.unwrap())
                    || corr.id_map.values().any(|v| Some(*v) == new_id)
            );
        }
    }

    #[test]
    fn empty_snapshots_correlate_trivially() {
        let cs = ConnectionSets::new();
        let g = Grouping::new(vec![]);
        let corr = try_correlate(&cs, &g, &cs, &g, &Params::default()).unwrap();
        assert!(corr.id_map.is_empty());
        assert!(corr.new_groups.is_empty());
        assert!(corr.vanished_groups.is_empty());
    }

    #[test]
    fn within_tolerance_math() {
        assert!(within(0.3, 10.0, 8.0));
        assert!(!within(0.3, 10.0, 6.0));
        assert!(within(0.3, 0.0, 0.0));
        assert!(within(1.0, 100.0, 1.0));
    }
}
