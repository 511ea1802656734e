//! Differential test: the production formation phase (with level
//! jumping) against a literal, slow reference that walks k down one
//! level at a time exactly as Section 4.1 states the algorithm.
//!
//! If the jumping optimization ever skips a level where a BCC or a
//! bootstrap could fire, this test catches it.

use flow::{ConnectionSets, HostAddr};
use netgraph::{biconnected_components, common_neighbor_min_weights, NodeId, SimpleGraph, WGraph};
use proptest::prelude::*;
use roleclass::{try_form_groups, Params};

use std::collections::{BTreeSet, HashSet};

/// Literal reference implementation: k from k_max down to 1, step 1.
fn reference_formation(cs: &ConnectionSets, params: &Params) -> Vec<(Vec<HostAddr>, u32)> {
    let mut g = WGraph::new();
    let mut node_of_host = std::collections::BTreeMap::new();
    let mut host_of_node: Vec<Option<HostAddr>> = Vec::new();
    for h in cs.hosts() {
        let n = g.add_node();
        node_of_host.insert(h, n);
        host_of_node.push(Some(h));
    }
    for (a, b) in cs.edges() {
        g.add_edge(node_of_host[&a], node_of_host[&b], 1);
    }
    let orig_degree: std::collections::BTreeMap<HostAddr, usize> =
        cs.hosts().map(|h| (h, cs.degree(h).unwrap_or(0))).collect();

    let mut groups: Vec<(Vec<HostAddr>, u32)> = Vec::new();
    let mut grouped_nodes: HashSet<NodeId> = HashSet::new();
    let is_host = |host_of_node: &Vec<Option<HostAddr>>, n: NodeId| {
        host_of_node.get(n.index()).is_some_and(Option::is_some)
    };

    let kmax = cs.max_degree() as u32;
    let mut k = kmax;
    while k >= 1 {
        loop {
            let edges = common_neighbor_min_weights(&g, |n| {
                is_host(&host_of_node, n) && !grouped_nodes.contains(&n)
            });
            let strong: Vec<(NodeId, NodeId)> = edges
                .iter()
                .filter(|e| e.count >= k)
                .map(|e| (e.a, e.b))
                .collect();
            if strong.is_empty() {
                break;
            }
            let sg = SimpleGraph::from_edges([], strong);
            let mut bccs: Vec<Vec<NodeId>> = biconnected_components(&sg)
                .into_iter()
                .map(|b| b.nodes)
                .collect();
            bccs.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
            let mut assigned: HashSet<NodeId> = HashSet::new();
            let mut formed = false;
            for bcc in bccs {
                let avail: Vec<NodeId> =
                    bcc.into_iter().filter(|n| !assigned.contains(n)).collect();
                if avail.len() >= 2 {
                    assigned.extend(avail.iter().copied());
                    let mut members: Vec<HostAddr> = avail
                        .iter()
                        .map(|&n| host_of_node[n.index()].expect("host node"))
                        .collect();
                    members.sort_unstable();
                    let (gnode, _) = g.contract(&avail);
                    while host_of_node.len() < g.id_bound() {
                        host_of_node.push(None);
                    }
                    grouped_nodes.insert(gnode);
                    groups.push((members, k));
                    formed = true;
                }
            }
            if !formed {
                break;
            }
        }
        // Bootstrap at this k.
        let lonely: Vec<(NodeId, HostAddr)> = g
            .nodes()
            .filter(|&n| is_host(&host_of_node, n))
            .map(|n| (n, host_of_node[n.index()].expect("host node")))
            .filter(|&(_, h)| (k as f64) < params.alpha * orig_degree[&h] as f64)
            .collect();
        for (n, h) in lonely {
            let (gnode, _) = g.contract(&[n]);
            while host_of_node.len() < g.id_bound() {
                host_of_node.push(None);
            }
            grouped_nodes.insert(gnode);
            groups.push((vec![h], k));
        }
        k -= 1;
    }
    // Leftovers.
    let leftover: Vec<(NodeId, HostAddr)> = g
        .nodes()
        .filter(|&n| is_host(&host_of_node, n))
        .map(|n| (n, host_of_node[n.index()].expect("host node")))
        .collect();
    for (_, h) in leftover {
        groups.push((vec![h], 0));
    }
    groups
}

fn as_set(groups: &[(Vec<HostAddr>, u32)]) -> BTreeSet<(Vec<HostAddr>, u32)> {
    groups.iter().cloned().collect()
}

fn arb_connsets(max_hosts: u32, max_edges: usize) -> impl Strategy<Value = ConnectionSets> {
    prop::collection::vec((0..max_hosts, 0..max_hosts), 0..max_edges).prop_map(|pairs| {
        let mut cs = ConnectionSets::new();
        for (a, b) in pairs {
            if a != b {
                cs.add_pair(HostAddr::v4(a), HostAddr::v4(b));
            }
        }
        cs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jumping_matches_literal_sweep(cs in arb_connsets(30, 70)) {
        let params = Params::default();
        let fast = try_form_groups(&cs, &params).unwrap();
        let fast_groups: Vec<(Vec<HostAddr>, u32)> = fast
            .groups
            .iter()
            .map(|g| (g.members.clone(), g.k))
            .collect();
        let slow_groups = reference_formation(&cs, &params);
        prop_assert_eq!(as_set(&fast_groups), as_set(&slow_groups));
    }

    /// Same check under a different alpha (bootstrap interacts with the
    /// jump target computation).
    #[test]
    fn jumping_matches_literal_sweep_alpha(cs in arb_connsets(25, 50), alpha in 0.0f64..=1.0) {
        let params = Params {
            alpha,
            ..Params::default()
        };
        let fast = try_form_groups(&cs, &params).unwrap();
        let fast_groups: Vec<(Vec<HostAddr>, u32)> = fast
            .groups
            .iter()
            .map(|g| (g.members.clone(), g.k))
            .collect();
        let slow_groups = reference_formation(&cs, &params);
        prop_assert_eq!(as_set(&fast_groups), as_set(&slow_groups));
    }
}

/// Keep the reference honest on the Figure 2 walk-through too.
#[test]
fn reference_agrees_on_figure1() {
    let mut cs = ConnectionSets::new();
    let h = HostAddr::v4;
    for s in [11u32, 12, 13] {
        cs.add_pair(h(s), h(1));
        cs.add_pair(h(s), h(2));
        cs.add_pair(h(s), h(3));
    }
    for e in [21u32, 22, 23] {
        cs.add_pair(h(e), h(1));
        cs.add_pair(h(e), h(2));
        cs.add_pair(h(e), h(4));
    }
    let slow = reference_formation(&cs, &Params::default());
    assert_eq!(slow.len(), 5);
    let find = |m: &[u32]| {
        let m: Vec<HostAddr> = m.iter().map(|&x| h(x)).collect();
        slow.iter().find(|(g, _)| g == &m).map(|&(_, k)| k)
    };
    assert_eq!(find(&[1, 2]), Some(6));
    assert_eq!(find(&[11, 12, 13]), Some(3));
    assert_eq!(find(&[3]), Some(1));
}
