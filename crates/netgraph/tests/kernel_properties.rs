//! Property-based tests of the common-neighbor kernel: on arbitrary
//! unit edge lists the cached, parallel, incrementally-updated kernel
//! must be indistinguishable from the straightforward recomputation it
//! replaces — including after contractions, which leave weighted group
//! edges behind.

use netgraph::{
    common_neighbor_min_weights, CommonNeighborEdge, CommonNeighborKernel, NodeId, WGraph,
};
use proptest::prelude::*;

const N: u32 = 20;

/// A unit edge list as the kernel's CSR input (ascending, deduplicated
/// neighbor rows over `N` rows) plus the equivalent weight-1 graph the
/// oracle and contractions run on.
struct Unit {
    offsets: Vec<u32>,
    nbrs: Vec<u32>,
    g: WGraph,
}

impl Unit {
    fn new(edges: &[(u32, u32)]) -> Unit {
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); N as usize];
        for &(a, b) in edges {
            rows[a as usize].push(b);
            rows[b as usize].push(a);
        }
        let mut g = WGraph::new();
        g.add_nodes(N as usize);
        let (mut offsets, mut nbrs) = (vec![0u32], Vec::new());
        for (a, row) in rows.iter_mut().enumerate() {
            row.sort_unstable();
            row.dedup();
            for &b in row.iter().filter(|&&b| b as usize > a) {
                g.add_edge(NodeId(a as u32), NodeId(b), 1);
            }
            nbrs.extend_from_slice(row);
            offsets.push(nbrs.len() as u32);
        }
        Unit { offsets, nbrs, g }
    }

    fn build(
        &self,
        ok: impl Fn(NodeId) -> bool,
        workers: usize,
        floors: &[u32],
    ) -> CommonNeighborKernel {
        CommonNeighborKernel::build(&self.offsets, &self.nbrs, ok, workers, floors, None)
    }

    /// Degree per node id — the count upper bound the prune table
    /// compares floors against. Contraction never changes a survivor's
    /// weighted degree, so the build-time value stays the bound.
    fn degrees(&self) -> Vec<u64> {
        self.offsets
            .windows(2)
            .map(|w| u64::from(w[1] - w[0]))
            .collect()
    }
}

/// Whether the prune contract removes pair `(a, b)` under `floors`:
/// its count upper bound (the smaller degree) cannot reach the larger
/// endpoint floor.
fn pair_pruned(deg: &[u64], floors: &[u32], a: NodeId, b: NodeId) -> bool {
    let floor = floors[a.0 as usize].max(floors[b.0 as usize]) as u64;
    deg[a.0 as usize].min(deg[b.0 as usize]) < floor
}

/// `edges` minus the pairs `floors` prunes.
fn unpruned(
    mut edges: Vec<CommonNeighborEdge>,
    deg: &[u64],
    floors: &[u32],
) -> Vec<CommonNeighborEdge> {
    edges.retain(|e| !pair_pruned(deg, floors, e.a, e.b));
    edges
}

/// Strategy: a random undirected unit edge list over `N` nodes
/// (duplicates collapse in [`Unit::new`]; self-loops are dropped).
fn arb_edges(max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..N, 0..N), 0..max_edges)
        .prop_map(|v| v.into_iter().filter(|(a, b)| a != b).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The kernel's full view equals the reference recomputation.
    #[test]
    fn kernel_matches_reference_counts(edges in arb_edges(60)) {
        let u = Unit::new(&edges);
        let kernel = u.build(|_| true, 2, &[]);
        prop_assert_eq!(kernel.edges(), common_neighbor_min_weights(&u.g, |_| true));
    }

    /// Endpoint filtering at build time equals filtering the reference.
    #[test]
    fn kernel_respects_endpoint_filter(edges in arb_edges(60)) {
        let u = Unit::new(&edges);
        let ok = |x: NodeId| !x.0.is_multiple_of(3);
        let kernel = u.build(ok, 2, &[]);
        prop_assert_eq!(kernel.edges(), common_neighbor_min_weights(&u.g, ok));
        for v in 0..N {
            prop_assert_eq!(kernel.is_eligible(NodeId(v)), ok(NodeId(v)));
        }
    }

    /// Every thresholded view equals recomputing that level from
    /// scratch — the property that lets the formation sweep serve all
    /// k-levels from one build.
    #[test]
    fn threshold_views_match_per_level_recount(edges in arb_edges(60)) {
        let u = Unit::new(&edges);
        let kernel = u.build(|_| true, 2, &[]);
        let reference = common_neighbor_min_weights(&u.g, |_| true);
        for k in 1..=kernel.max_count().saturating_add(1) {
            let mut expect = reference.clone();
            expect.retain(|e| e.count >= k);
            prop_assert_eq!(kernel.edges_at_least(k), expect, "level {}", k);
        }
    }

    /// Worker count is a throughput knob, never an output knob: 1, 2
    /// and 8 workers all equal the reference.
    #[test]
    fn worker_count_never_changes_output(edges in arb_edges(80)) {
        let u = Unit::new(&edges);
        let reference = common_neighbor_min_weights(&u.g, |_| true);
        for workers in [1, 2, 8] {
            let kernel = u.build(|_| true, workers, &[]);
            prop_assert_eq!(kernel.edges(), reference.clone(), "{} workers", workers);
        }
    }

    /// The pruned build is the reference minus exactly the pairs the
    /// floor contract says can never matter — at every threshold level,
    /// for arbitrary floors. In particular, any pair queried at a level
    /// reaching both endpoint floors is answered identically, which is
    /// the soundness the formation sweep relies on.
    #[test]
    fn pruned_build_drops_exactly_the_contracted_pairs(
        edges in arb_edges(60),
        floors in prop::collection::vec(0u32..5, N as usize),
    ) {
        let u = Unit::new(&edges);
        let deg = u.degrees();
        let pruned = u.build(|_| true, 1, &floors);
        let reference = common_neighbor_min_weights(&u.g, |_| true);
        let top = reference.iter().map(|e| e.count).max().unwrap_or(0);
        for k in 1..=top.saturating_add(1) {
            let mut expect = unpruned(reference.clone(), &deg, &floors);
            expect.retain(|e| e.count >= k);
            prop_assert_eq!(pruned.edges_at_least(k), expect, "level {}", k);
        }
    }

    /// Floors of 0 and 1 can never prune anything: the build equals the
    /// reference.
    #[test]
    fn trivial_floors_prune_nothing(
        edges in arb_edges(60),
        floors in prop::collection::vec(0u32..2, N as usize),
    ) {
        let u = Unit::new(&edges);
        let kernel = u.build(|_| true, 1, &floors);
        prop_assert_eq!(kernel.edges(), common_neighbor_min_weights(&u.g, |_| true));
    }

    /// The prune set is stable under contraction: contracting a pruned
    /// kernel equals the recount on the mutated graph minus the pairs
    /// the build-time floors prune (survivors keep their weighted
    /// degrees, so the same pairs stay pruned).
    #[test]
    fn pruned_contraction_matches_reference_minus_pruned_pairs(
        edges in arb_edges(60),
        floors in prop::collection::vec(0u32..5, N as usize),
        members in prop::collection::btree_set(0u32..N, 1..5),
    ) {
        let mut u = Unit::new(&edges);
        let deg = u.degrees();
        let mut kernel = u.build(|_| true, 1, &floors);
        let members: Vec<NodeId> = members.iter().map(|&v| NodeId(v)).collect();
        kernel.contract(&mut u.g, &members);
        let fresh = common_neighbor_min_weights(&u.g, |x| kernel.is_eligible(x));
        prop_assert_eq!(kernel.edges(), unpruned(fresh, &deg, &floors), "after contraction");
    }

    /// Worker count never changes a pruned build either.
    #[test]
    fn pruned_worker_count_never_changes_output(
        edges in arb_edges(80),
        floors in prop::collection::vec(0u32..5, N as usize),
    ) {
        let u = Unit::new(&edges);
        let expect = unpruned(common_neighbor_min_weights(&u.g, |_| true), &u.degrees(), &floors);
        for workers in [1, 2, 8] {
            let kernel = u.build(|_| true, workers, &floors);
            prop_assert_eq!(kernel.edges(), expect.clone(), "{} workers", workers);
        }
    }

    /// Incremental contraction equals recounting on the mutated graph —
    /// across a two-step contraction sequence, the mode the formation
    /// sweep actually exercises.
    #[test]
    fn contraction_matches_fresh_rebuild(
        edges in arb_edges(60),
        first in prop::collection::btree_set(0u32..N, 1..5),
        second in prop::collection::btree_set(0u32..N, 1..5),
    ) {
        let mut u = Unit::new(&edges);
        let mut kernel = u.build(|_| true, 2, &[]);

        let members: Vec<NodeId> = first.iter().map(|&v| NodeId(v)).collect();
        let (m1, _) = kernel.contract(&mut u.g, &members);
        prop_assert!(!kernel.is_eligible(m1));
        let fresh = common_neighbor_min_weights(&u.g, |x| kernel.is_eligible(x));
        prop_assert_eq!(kernel.edges(), fresh, "after first contraction");

        // Contract a second, disjoint set of surviving original nodes.
        let members2: Vec<NodeId> = second
            .iter()
            .filter(|v| !first.contains(v))
            .map(|&v| NodeId(v))
            .collect();
        if !members2.is_empty() {
            kernel.contract(&mut u.g, &members2);
            let fresh = common_neighbor_min_weights(&u.g, |x| kernel.is_eligible(x));
            prop_assert_eq!(kernel.edges(), fresh, "after second contraction");
        }
    }
}
