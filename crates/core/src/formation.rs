//! Group formation (Section 4.1): iterated k-neighborhood BCCs.
//!
//! Starting from the connectivity graph, the algorithm sweeps a
//! similarity level `k` from `k_max` (the largest connection-set size)
//! down to 1. At each level it builds the *k-neighborhood graph* — an
//! edge between every pair of ungrouped hosts sharing at least `k`
//! common neighbors — extracts its biconnected components, and contracts
//! each component into a *group node* labeled `(ID, K_G = k)`. Group
//! nodes leave the candidate pool but keep acting as (weighted) shared
//! neighbors, which is what lets hosts with disjoint concrete neighbor
//! sets group once their servers have collapsed into common group nodes.
//! A bootstrap rule (step 2e) turns an ungrouped host `h` into a
//! singleton group as soon as `k < α·|C(h)|`, i.e., when no remaining
//! partner could ever match a meaningful fraction of its connections.
//!
//! The sweep is implemented with *level jumping*: after a level
//! stabilizes, `k` drops directly to the next level at which anything can
//! happen (the maximum surviving common-neighbor weight, or the largest
//! pending bootstrap trigger). This preserves the sequential semantics —
//! nothing can form at skipped levels by construction — while keeping
//! the number of expensive neighborhood recomputations proportional to
//! the number of *productive* levels.
//!
//! Since the engine rework, the counts themselves come from a
//! [`CommonNeighborKernel`]: one parallel full pass when the sweep
//! starts, then a threshold query per level and a localized patch per
//! contraction, instead of a full `Σ deg(v)²` recount on every round.
//! [`form_groups_reference`] preserves the recounting implementation as
//! the executable specification the kernel path is tested (and
//! benchmarked) against.

use crate::config::{EngineConfig, PruneMode};
use crate::group::{Group, GroupId, Grouping};
use crate::params::{ParamError, Params, TieBreak};
use flow::{ConnectionSets, HostAddr};
use netgraph::{
    biconnected_components, common_neighbor_min_weights, CommonNeighborEdge, CommonNeighborKernel,
    NodeId, SimpleGraph, WGraph,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// Why a formation-phase group came into being.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FormationKind {
    /// The group is a biconnected component of the k-neighborhood graph.
    Bcc,
    /// The bootstrap rule (step 2e) promoted a lone host.
    Bootstrap,
    /// The sweep ended with the host still ungrouped (isolated hosts and
    /// other leftovers at `k = 0`).
    Leftover,
}

/// One event of the formation trace — the raw material for the paper's
/// Figure 2 walk-through.
#[derive(Clone, Debug)]
pub struct FormationEvent {
    /// The level `k` at which the group formed (0 for leftovers).
    pub k: u32,
    /// How it formed.
    pub kind: FormationKind,
    /// The member hosts.
    pub members: Vec<HostAddr>,
}

/// A group produced by the formation phase, before merging.
#[derive(Clone, Debug)]
pub struct ProtoGroup {
    /// Member hosts, sorted.
    pub members: Vec<HostAddr>,
    /// The `K_G` label.
    pub k: u32,
}

/// Output of the formation phase.
pub struct FormationResult {
    /// The groups, in creation order (index = provisional group number).
    pub groups: Vec<ProtoGroup>,
    /// The fully contracted connectivity graph: exactly one node per
    /// group, edge weights = number of host-pair connections between the
    /// two groups (`CP`).
    pub graph: WGraph,
    /// Node in [`FormationResult::graph`] for each group (same indexing
    /// as [`FormationResult::groups`]).
    pub node_of_group: Vec<NodeId>,
    /// The formation trace.
    pub trace: Vec<FormationEvent>,
}

impl FormationResult {
    /// Renders the result as a [`Grouping`] with sequential ids, mostly
    /// for callers that skip the merging phase.
    pub fn to_grouping(&self) -> Grouping {
        Grouping::new(
            self.groups
                .iter()
                .enumerate()
                .map(|(i, pg)| Group {
                    id: GroupId(i as u32),
                    k: pg.k,
                    members: pg.members.clone(),
                })
                .collect(),
        )
    }
}

/// Internal sweep state.
struct State {
    g: WGraph,
    /// The incremental count table; `None` in the reference
    /// implementation, which recounts from the graph instead.
    kernel: Option<CommonNeighborKernel>,
    /// Host represented by each node; `None` for group nodes.
    host_of_node: Vec<Option<HostAddr>>,
    /// Group index represented by each node, for group nodes.
    group_of_node: HashMap<NodeId, usize>,
    groups: Vec<ProtoGroup>,
    node_of_group: Vec<NodeId>,
    trace: Vec<FormationEvent>,
    /// Pre-contraction degree of each host node, indexed by the node's
    /// initial id (= the host's row in the connection sets).
    orig_degree: Vec<usize>,
}

impl State {
    /// Builds the initial conn-graph state: one node per host, unit edge
    /// weights (one "connection" per communicating host pair).
    ///
    /// The connection sets' columnar layout is consumed directly: host
    /// rows become node ids (rows are address-sorted, matching the
    /// historical id assignment) and the borrowed CSR adjacency seeds the
    /// graph without per-edge lookups.
    fn init(cs: &ConnectionSets) -> State {
        let (offsets, nbrs) = cs.csr();
        let g = WGraph::from_unit_csr(offsets, nbrs);
        let host_of_node: Vec<Option<HostAddr>> =
            cs.member_addrs().iter().map(|&h| Some(h)).collect();
        let orig_degree: Vec<usize> = offsets.windows(2).map(|w| (w[1] - w[0]) as usize).collect();
        State {
            g,
            kernel: None,
            host_of_node,
            group_of_node: HashMap::new(),
            groups: Vec::new(),
            node_of_group: Vec::new(),
            trace: Vec::new(),
            orig_degree,
        }
    }

    fn is_host(&self, n: NodeId) -> bool {
        self.host_of_node
            .get(n.index())
            .is_some_and(Option::is_some)
    }

    fn host(&self, n: NodeId) -> HostAddr {
        self.host_of_node[n.index()].expect("node is not a host node")
    }

    /// Contracts `nodes` (host nodes) into a fresh group node, through
    /// the kernel when one is attached so the count table stays exact.
    fn form_group(&mut self, nodes: &[NodeId], k: u32, kind: FormationKind) {
        let mut members: Vec<HostAddr> = nodes.iter().map(|&n| self.host(n)).collect();
        members.sort_unstable();
        let (gnode, _internal) = match self.kernel.as_mut() {
            Some(kernel) => kernel.contract(&mut self.g, nodes),
            None => self.g.contract(nodes),
        };
        while self.host_of_node.len() < self.g.id_bound() {
            self.host_of_node.push(None);
        }
        let idx = self.groups.len();
        self.group_of_node.insert(gnode, idx);
        self.groups.push(ProtoGroup {
            members: members.clone(),
            k,
        });
        self.node_of_group.push(gnode);
        self.trace.push(FormationEvent { k, kind, members });
    }

    fn ungrouped_hosts(&self) -> Vec<NodeId> {
        self.g.nodes().filter(|&n| self.is_host(n)).collect()
    }

    /// Largest pending bootstrap trigger below `k` over ungrouped hosts.
    fn bootstrap_next(&self, alpha: f64, k: u32) -> u32 {
        self.ungrouped_hosts()
            .iter()
            .filter_map(|&n| bootstrap_trigger(alpha, self.orig_degree[n.index()]))
            .map(|t| t.min(k.saturating_sub(1)))
            .max()
            .unwrap_or(0)
    }

    /// Runs the step-2e bootstrap at level `k`.
    fn bootstrap(&mut self, alpha: f64, k: u32) {
        let lonely: Vec<NodeId> = self
            .ungrouped_hosts()
            .into_iter()
            .filter(|&n| (k as f64) < alpha * self.orig_degree[n.index()] as f64)
            .collect();
        for n in lonely {
            self.form_group(&[n], k, FormationKind::Bootstrap);
        }
    }

    /// Finalizes the sweep: leftovers become `k = 0` singletons and the
    /// state is rendered as a [`FormationResult`].
    fn finish(mut self) -> FormationResult {
        for n in self.ungrouped_hosts() {
            self.form_group(&[n], 0, FormationKind::Leftover);
        }
        FormationResult {
            groups: self.groups,
            graph: self.g,
            node_of_group: self.node_of_group,
            trace: self.trace,
        }
    }
}

/// Largest integer `k ≥ 1` satisfying `k < α·deg`, or `None`.
fn bootstrap_trigger(alpha: f64, deg: usize) -> Option<u32> {
    let t = alpha * deg as f64;
    if t <= 1.0 {
        return None;
    }
    let k = if t.fract() == 0.0 { t - 1.0 } else { t.floor() };
    if k >= 1.0 {
        Some(k as u32)
    } else {
        None
    }
}

/// Orders BCC candidate node sets for assignment: larger first, then the
/// configured tie-break.
fn order_bccs(mut bccs: Vec<Vec<NodeId>>, tie_break: TieBreak) -> Vec<Vec<NodeId>> {
    match tie_break {
        TieBreak::Deterministic => {
            bccs.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
        }
        TieBreak::Seeded(seed) => {
            let mut rng = StdRng::seed_from_u64(seed);
            // Shuffle then stable-sort by size: equal-size components end
            // up in seeded-random order.
            for i in (1..bccs.len()).rev() {
                let j = rng.gen_range(0..=i);
                bccs.swap(i, j);
            }
            bccs.sort_by_key(|b| std::cmp::Reverse(b.len()));
        }
    }
    bccs
}

/// Extracts the BCCs of the strong-pair graph and contracts each into a
/// group node, biggest first. Returns `true` if any group formed.
fn assign_bccs(st: &mut State, strong: Vec<(NodeId, NodeId)>, k: u32, tie_break: TieBreak) -> bool {
    let sg = SimpleGraph::from_edges([], strong);
    let bccs: Vec<Vec<NodeId>> = biconnected_components(&sg)
        .into_iter()
        .map(|b| b.nodes)
        .collect();
    // A node on several BCCs joins the largest (Section 4.1);
    // we realize that by assigning greedily, biggest first.
    let ordered = order_bccs(bccs, tie_break);
    let mut assigned: HashSet<NodeId> = HashSet::new();
    let mut formed = false;
    for bcc in ordered {
        let avail: Vec<NodeId> = bcc.into_iter().filter(|n| !assigned.contains(n)).collect();
        if avail.len() >= 2 {
            assigned.extend(avail.iter().copied());
            st.form_group(&avail, k, FormationKind::Bcc);
            formed = true;
        }
    }
    formed
}

/// Runs the group formation phase over `cs`.
///
/// The returned partition is total: every host of `cs` (including
/// isolated ones) lands in exactly one group. Validates `params`, then
/// runs the kernel-backed sweep.
pub fn try_form_groups(
    cs: &ConnectionSets,
    params: &Params,
) -> Result<FormationResult, ParamError> {
    params.validate()?;
    Ok(form_groups_validated(cs, params))
}

/// The kernel-backed sweep with default execution knobs. Callers must
/// have validated `params`.
pub(crate) fn form_groups_validated(cs: &ConnectionSets, params: &Params) -> FormationResult {
    form_groups_with(cs, &EngineConfig::new(*params), None)
}

/// [`form_groups_validated`] with explicit execution knobs
/// ([`EngineConfig`]) and an optional recorder: emits the `engine.form`
/// span (with the kernel's build phases nested inside), counts
/// productive sweep levels and fixpoint rounds, and times the phase.
/// With `None` the sweep is exactly the uninstrumented one. The
/// config's worker count and prune mode never change the output — only
/// how fast it is computed.
pub(crate) fn form_groups_with(
    cs: &ConnectionSets,
    cfg: &EngineConfig,
    rec: Option<&telemetry::Recorder>,
) -> FormationResult {
    let params = &cfg.params;
    let _span = telemetry::span(rec, "engine.form");
    let started = rec.map(|_| std::time::Instant::now());
    let mut levels = 0u64;
    let mut rounds = 0u64;

    let mut st = State::init(cs);
    // One full parallel counting pass; every level below reads the
    // cached table, and every contraction patches it in place. The
    // kernel counts straight off the connection sets' borrowed CSR (at
    // this point identical to `st.g`, which has not been contracted yet)
    // instead of re-snapshotting the graph.
    //
    // Prune floors (`PruneMode::Auto`): host `h` leaves the candidate
    // pool no later than its bootstrap trigger (step 2e fires at the
    // first level processed at or below it, and the first processed
    // level ≤ the trigger is the trigger itself, by the level-jump
    // rule), so `h` is never an eligible pair endpoint at any level
    // below `trigger(h)` — that level is a sound per-host floor. A pair
    // whose count upper bound cannot reach the larger of its two floors
    // can therefore never enter a BCC round, and — because the kernel's
    // level-jump oracle is always dominated by the pending bootstrap
    // triggers for such pairs — never shifts the sweep either.
    let (offsets, nbrs) = cs.csr();
    let workers = cfg.resolved_kernel_workers();
    st.kernel = Some(match cfg.prune {
        PruneMode::Auto => {
            let floors: Vec<u32> = st
                .orig_degree
                .iter()
                .map(|&d| bootstrap_trigger(params.alpha, d).unwrap_or(1))
                .collect();
            CommonNeighborKernel::build_from_unit_csr_pruned(
                offsets,
                nbrs,
                |_| true,
                workers,
                &floors,
                rec,
            )
        }
        PruneMode::Off => {
            CommonNeighborKernel::build_from_unit_csr(offsets, nbrs, |_| true, workers, rec)
        }
    });

    let mut k = cs.max_degree() as u32;
    while k >= 1 && !st.ungrouped_hosts().is_empty() {
        levels += 1;
        // Inner fixpoint at this level: contraction can only *raise*
        // common-neighbor weights (group nodes aggregate edges), so new
        // k-edges may appear after each round of group formation.
        loop {
            rounds += 1;
            let strong: Vec<(NodeId, NodeId)> = st
                .kernel
                .as_ref()
                .expect("kernel attached for the whole sweep")
                .edges_at_least(k)
                .into_iter()
                .map(|e| (e.a, e.b))
                .collect();
            if strong.is_empty() {
                break;
            }
            if !assign_bccs(&mut st, strong, k, params.tie_break) {
                break;
            }
        }

        // Bootstrap (step 2e): hosts whose connection count dwarfs the
        // current level can no longer find strong partners.
        st.bootstrap(params.alpha, k);

        // Jump to the next productive level: the strongest surviving
        // pair weight, or the largest pending bootstrap trigger below k.
        // (Bootstrap contractions are singletons, which preserve every
        // surviving pair's count, so querying after them matches the
        // reference implementation's pre-bootstrap snapshot.)
        let w_next = st
            .kernel
            .as_ref()
            .expect("kernel attached for the whole sweep")
            .max_count()
            .min(k.saturating_sub(1));
        let next = w_next.max(st.bootstrap_next(params.alpha, k));
        if next == 0 {
            break;
        }
        k = next;
    }
    let result = st.finish();
    if let Some(r) = rec {
        // Provenance: one `host_grouped` event per host, emitted post-hoc
        // from the trace (trace index == group index: `form_group` pushes
        // both in lockstep), so the sweep itself stays untouched.
        for (group, ev) in result.trace.iter().enumerate() {
            let kind = match ev.kind {
                FormationKind::Bcc => "bcc",
                FormationKind::Bootstrap => "bootstrap",
                FormationKind::Leftover => "leftover",
            };
            for &host in &ev.members {
                r.events().record(
                    "engine",
                    "roleclass_engine_host_grouped",
                    vec![
                        ("host", host.to_string().into()),
                        ("group", group.into()),
                        ("k", ev.k.into()),
                        ("bcc_size", ev.members.len().into()),
                        ("bootstrap", (ev.kind == FormationKind::Bootstrap).into()),
                        ("kind", kind.into()),
                    ],
                );
            }
        }
    }
    if let (Some(r), Some(t0)) = (rec, started) {
        let reg = r.registry();
        reg.counter("roleclass_engine_sweep_levels_total")
            .add(levels);
        reg.counter("roleclass_engine_sweep_rounds_total")
            .add(rounds);
        reg.gauge("roleclass_engine_groups_formed")
            .set(result.groups.len() as i64);
        reg.histogram("roleclass_engine_form_seconds", telemetry::DURATION_BUCKETS)
            .observe(t0.elapsed().as_secs_f64());
    }
    result
}

/// The pre-kernel formation implementation: recomputes the full
/// common-neighbor table on every round of every level.
///
/// Kept as the executable specification — `form_groups` must produce
/// bit-identical output (asserted by the `engine_equivalence` tests and
/// the `kernel_bench` speedup baseline). Do not use it for real
/// workloads; it is the `O(rounds · Σ deg²)` path this crate exists to
/// avoid.
///
/// # Panics
///
/// Panics if `params` fail validation.
pub fn form_groups_reference(cs: &ConnectionSets, params: &Params) -> FormationResult {
    params.validate().expect("invalid parameters");
    let mut st = State::init(cs);

    let mut k = cs.max_degree() as u32;
    while k >= 1 && !st.ungrouped_hosts().is_empty() {
        let mut last_edges: Vec<CommonNeighborEdge>;
        loop {
            last_edges = common_neighbor_min_weights(&st.g, |n| st.is_host(n));
            let strong: Vec<(NodeId, NodeId)> = last_edges
                .iter()
                .filter(|e| e.count >= k)
                .map(|e| (e.a, e.b))
                .collect();
            if strong.is_empty() {
                break;
            }
            if !assign_bccs(&mut st, strong, k, params.tie_break) {
                break;
            }
        }

        st.bootstrap(params.alpha, k);

        let w_next = last_edges
            .iter()
            .filter(|e| st.g.contains_node(e.a) && st.g.contains_node(e.b))
            .filter(|e| st.is_host(e.a) && st.is_host(e.b))
            .map(|e| e.count.min(k.saturating_sub(1)))
            .max()
            .unwrap_or(0);
        let next = w_next.max(st.bootstrap_next(params.alpha, k));
        if next == 0 {
            break;
        }
        k = next;
    }
    st.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

    /// The Figure 1 network with M = N = 3:
    /// mail = 1, web = 2, salesdb = 3, srcctl = 4,
    /// sales = 11, 12, 13, eng = 21, 22, 23.
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

    fn members_sets(r: &FormationResult) -> Vec<Vec<HostAddr>> {
        let mut v: Vec<Vec<HostAddr>> = r.groups.iter().map(|g| g.members.clone()).collect();
        v.sort();
        v
    }

    #[test]
    fn figure2_walkthrough() {
        let r = try_form_groups(&figure1(), &Params::default()).unwrap();
        // Five groups: {mail, web}, sales triangle, eng triangle, and the
        // two database singletons.
        assert_eq!(r.groups.len(), 5);
        let sets = members_sets(&r);
        assert!(sets.contains(&vec![h(1), h(2)]));
        assert!(sets.contains(&vec![h(3)]));
        assert!(sets.contains(&vec![h(4)]));
        assert!(sets.contains(&vec![h(11), h(12), h(13)]));
        assert!(sets.contains(&vec![h(21), h(22), h(23)]));
    }

    #[test]
    fn figure2_k_levels() {
        let r = try_form_groups(&figure1(), &Params::default()).unwrap();
        let find = |m: &[HostAddr]| {
            r.trace
                .iter()
                .find(|e| e.members == m)
                .expect("group missing from trace")
        };
        // {Mail, Web} forms at k = M + N = 6.
        let mw = find(&[h(1), h(2)]);
        assert_eq!(mw.k, 6);
        assert_eq!(mw.kind, FormationKind::Bcc);
        // Client triangles form at k = 3 (two servers as one group node,
        // counted with weight 2, plus the role-specific database).
        let sales = find(&[h(11), h(12), h(13)]);
        assert_eq!(sales.k, 3);
        assert_eq!(sales.kind, FormationKind::Bcc);
        // Databases bootstrap at k = 1 < 0.6 × 3.
        let db = find(&[h(3)]);
        assert_eq!(db.k, 1);
        assert_eq!(db.kind, FormationKind::Bootstrap);
    }

    #[test]
    fn contracted_graph_has_one_node_per_group() {
        let r = try_form_groups(&figure1(), &Params::default()).unwrap();
        assert_eq!(r.graph.node_count(), r.groups.len());
        assert_eq!(r.node_of_group.len(), r.groups.len());
        // CP between the client groups and the server group is 6 each.
        let mw_idx = r
            .groups
            .iter()
            .position(|g| g.members == vec![h(1), h(2)])
            .unwrap();
        let sales_idx = r
            .groups
            .iter()
            .position(|g| g.members == vec![h(11), h(12), h(13)])
            .unwrap();
        let w = r
            .graph
            .edge_weight(r.node_of_group[mw_idx], r.node_of_group[sales_idx]);
        assert_eq!(w, Some(6));
    }

    #[test]
    fn partition_is_total_and_disjoint() {
        let cs = figure1();
        let r = try_form_groups(&cs, &Params::default()).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for g in &r.groups {
            for &m in &g.members {
                assert!(seen.insert(m), "host {m} in two groups");
            }
        }
        assert_eq!(seen.len(), cs.host_count());
    }

    #[test]
    fn isolated_hosts_become_leftover_singletons() {
        let mut cs = figure1();
        cs.add_host(h(99));
        let r = try_form_groups(&cs, &Params::default()).unwrap();
        let ev = r
            .trace
            .iter()
            .find(|e| e.members == vec![h(99)])
            .expect("isolated host must appear in trace");
        assert_eq!(ev.kind, FormationKind::Leftover);
        assert_eq!(ev.k, 0);
    }

    #[test]
    fn single_pair_forms_two_node_group() {
        // Two hosts that only talk to the same two servers: the pair
        // shares 2 common neighbors and forms a 2-node group (the paper
        // explicitly allows this).
        let mut cs = ConnectionSets::new();
        cs.add_pair(h(1), h(10));
        cs.add_pair(h(1), h(11));
        cs.add_pair(h(2), h(10));
        cs.add_pair(h(2), h(11));
        let r = try_form_groups(&cs, &Params::default()).unwrap();
        let sets = members_sets(&r);
        assert!(sets.contains(&vec![h(1), h(2)]));
        // Servers 10 and 11 also share two common neighbors (1 and 2).
        assert!(sets.contains(&vec![h(10), h(11)]));
    }

    #[test]
    fn empty_input_produces_empty_result() {
        let cs = ConnectionSets::new();
        let r = try_form_groups(&cs, &Params::default()).unwrap();
        assert!(r.groups.is_empty());
        assert!(r.trace.is_empty());
        assert!(r.to_grouping().is_empty());
    }

    #[test]
    fn bootstrap_trigger_math() {
        // α·deg = 1.8 -> largest k < 1.8 is 1.
        assert_eq!(bootstrap_trigger(0.6, 3), Some(1));
        // α·deg = 3.0 (integer) -> k = 2.
        assert_eq!(bootstrap_trigger(0.6, 5), Some(2));
        // α·deg = 0.6 -> no k ≥ 1 possible.
        assert_eq!(bootstrap_trigger(0.6, 1), None);
        // Degree 0 never bootstraps.
        assert_eq!(bootstrap_trigger(0.6, 0), None);
    }

    #[test]
    fn alpha_zero_never_bootstraps() {
        let p = Params {
            alpha: 0.0,
            ..Params::default()
        };
        let r = try_form_groups(&figure1(), &p).unwrap();
        assert!(r.trace.iter().all(|e| e.kind != FormationKind::Bootstrap));
        // The databases end up as leftovers instead.
        let db = r.trace.iter().find(|e| e.members == vec![h(3)]).unwrap();
        assert_eq!(db.kind, FormationKind::Leftover);
    }

    #[test]
    fn seeded_tie_break_is_reproducible() {
        let p = Params {
            tie_break: TieBreak::Seeded(123),
            ..Params::default()
        };
        let a = try_form_groups(&figure1(), &p).unwrap();
        let b = try_form_groups(&figure1(), &p).unwrap();
        assert_eq!(members_sets(&a), members_sets(&b));
    }

    #[test]
    fn hub_spokes_group_at_k1() {
        // A scanner touching 50 idle hosts: all spokes share exactly the
        // hub, so they coalesce into one group at k = 1 — the paper's
        // BigCompany "idle" group (Table 1).
        let mut cs = ConnectionSets::new();
        for i in 1..=50 {
            cs.add_pair(h(0), h(i));
        }
        let r = try_form_groups(&cs, &Params::default()).unwrap();
        let spokes: Vec<HostAddr> = (1..=50).map(h).collect();
        let idle = r
            .groups
            .iter()
            .find(|g| g.members.len() == 50)
            .expect("idle group must form");
        assert_eq!(idle.members, spokes);
        assert_eq!(idle.k, 1);
        // The hub bootstraps (its 50 connections dwarf every level).
        let hub_ev = r.trace.iter().find(|e| e.members == vec![h(0)]).unwrap();
        assert_eq!(hub_ev.kind, FormationKind::Bootstrap);
    }

    fn traces(r: &FormationResult) -> Vec<(u32, FormationKind, Vec<HostAddr>)> {
        r.trace
            .iter()
            .map(|e| (e.k, e.kind, e.members.clone()))
            .collect()
    }

    #[test]
    fn kernel_sweep_matches_reference() {
        for params in [
            Params::default(),
            Params::default().with_alpha(0.0),
            Params {
                tie_break: TieBreak::Seeded(7),
                ..Params::default()
            },
        ] {
            let mut cs = figure1();
            cs.add_host(h(99)); // leftover path
            for i in 1..=20 {
                cs.add_pair(h(50), h(100 + i)); // hub + idle spokes
            }
            let fast = try_form_groups(&cs, &params).unwrap();
            let slow = form_groups_reference(&cs, &params);
            assert_eq!(traces(&fast), traces(&slow));
            assert_eq!(members_sets(&fast), members_sets(&slow));
        }
    }

    #[test]
    fn try_form_groups_rejects_invalid_params() {
        let bad = Params {
            alpha: 2.0,
            ..Params::default()
        };
        assert!(try_form_groups(&figure1(), &bad).is_err());
        assert!(try_form_groups(&figure1(), &Params::default()).is_ok());
    }

    #[test]
    fn to_grouping_assigns_sequential_ids() {
        let r = try_form_groups(&figure1(), &Params::default()).unwrap();
        let g = r.to_grouping();
        assert_eq!(g.group_count(), 5);
        assert_eq!(g.host_count(), 10);
        for (i, grp) in g.groups().iter().enumerate() {
            assert_eq!(grp.id, GroupId(i as u32));
        }
    }
}
