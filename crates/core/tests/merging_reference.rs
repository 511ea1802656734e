//! Differential test: the production merging phase (incremental
//! similarity maintenance after each merge) against a naive reference
//! that recomputes every candidate similarity from scratch each round.
//!
//! The incremental path only refreshes pairs touching the merged node or
//! its neighbors; if that dirty set is ever too small, greedy order
//! diverges and this test catches it.

use flow::{ConnectionSets, HostAddr};
use netgraph::{NodeId, WGraph};
use proptest::prelude::*;
use roleclass::{try_form_groups, try_merge_groups, Params, SimilarityVariant};

use std::collections::{BTreeSet, HashMap};

/// Naive reference for the merging phase. Mirrors the Figure 3
/// requirements but recomputes all pair similarities every iteration.
fn reference_merge(cs: &ConnectionSets, params: &Params) -> BTreeSet<Vec<HostAddr>> {
    #[derive(Clone)]
    struct Info {
        members: Vec<HostAddr>,
        k: u32,
        sum_deg: u64,
        min_deg: u32,
    }
    let formation = try_form_groups(cs, params).unwrap();
    let mut g: WGraph = formation.graph;
    let mut info: HashMap<NodeId, Info> = HashMap::new();
    for (idx, pg) in formation.groups.iter().enumerate() {
        let degs: Vec<u32> = pg
            .members
            .iter()
            .map(|h| cs.degree(*h).unwrap_or(0) as u32)
            .collect();
        info.insert(
            formation.node_of_group[idx],
            Info {
                members: pg.members.clone(),
                k: pg.k,
                sum_deg: degs.iter().map(|&d| d as u64).sum(),
                min_deg: degs.iter().copied().min().unwrap_or(0),
            },
        );
    }

    let similarity = |g: &WGraph, info: &HashMap<NodeId, Info>, x: NodeId, y: NodeId| -> f64 {
        let tx = g.weighted_degree(x) as f64;
        let ty = g.weighted_degree(y) as f64;
        if tx == 0.0 || ty == 0.0 {
            return 0.0;
        }
        let nx: std::collections::BTreeMap<NodeId, u64> = g.neighbors(x).collect();
        let ny: std::collections::BTreeMap<NodeId, u64> = g.neighbors(y).collect();
        let mut acc = 0.0;
        for (v, wx) in &nx {
            if *v == x || *v == y {
                continue;
            }
            if let Some(wy) = ny.get(v) {
                acc += match params.similarity {
                    SimilarityVariant::Normalized => (*wx as f64 / tx).min(*wy as f64 / ty),
                    SimilarityVariant::Literal => {
                        (*wx as f64 / nx.len() as f64).min(*wy as f64 / ny.len() as f64)
                    }
                };
            }
        }
        let sim = match params.similarity {
            SimilarityVariant::Normalized => 100.0 * acc,
            SimilarityVariant::Literal => {
                let cx = tx / info[&x].members.len() as f64;
                let cy = ty / info[&y].members.len() as f64;
                50.0 * (acc / cx + acc / cy)
            }
        };
        sim.clamp(0.0, 100.0)
    };

    loop {
        let nodes: Vec<NodeId> = g.nodes().collect();
        let mut best: Option<(f64, NodeId, NodeId)> = None;
        for (i, &x) in nodes.iter().enumerate() {
            for &y in &nodes[i + 1..] {
                let s = similarity(&g, &info, x, y);
                if s <= 0.0 {
                    continue;
                }
                let (ix, iy) = (&info[&x], &info[&y]);
                let a1 = ix.sum_deg as f64 / ix.members.len() as f64;
                let a2 = iy.sum_deg as f64 / iy.members.len() as f64;
                let hi = a1.max(a2);
                if hi > 0.0 && (a1 - a2).abs() > params.beta * hi {
                    continue;
                }
                let kmax = ix.k.max(iy.k);
                let thresh = if kmax >= params.k_hi {
                    params.s_hi
                } else {
                    params.s_lo
                };
                if s < thresh {
                    continue;
                }
                if best.is_none_or(|(bs, _, _)| s > bs) {
                    best = Some((s, x, y));
                }
            }
        }
        let Some((_, x, y)) = best else { break };
        let ix = info.remove(&x).expect("alive");
        let iy = info.remove(&y).expect("alive");
        let (m, _) = g.contract(&[x, y]);
        let mut members = ix.members;
        members.extend(iy.members);
        members.sort_unstable();
        let min_deg = ix.min_deg.min(iy.min_deg);
        info.insert(
            m,
            Info {
                members,
                k: min_deg,
                sum_deg: ix.sum_deg + iy.sum_deg,
                min_deg,
            },
        );
    }
    info.into_values().map(|i| i.members).collect()
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_merging_matches_naive(cs in arb_connsets(28, 60)) {
        let params = Params::default();
        let fast = try_merge_groups(&cs, try_form_groups(&cs, &params).unwrap(), &params).unwrap();
        let fast_set: BTreeSet<Vec<HostAddr>> = fast
            .grouping
            .groups()
            .iter()
            .map(|g| g.members.clone())
            .collect();
        let slow_set = reference_merge(&cs, &params);
        prop_assert_eq!(fast_set, slow_set);
    }

    #[test]
    fn incremental_merging_matches_naive_low_thresholds(cs in arb_connsets(22, 45)) {
        // Low thresholds force many merges, stressing the dirty-set
        // bookkeeping through long merge chains.
        let params = Params::default().with_s_lo(10.0).with_s_hi(20.0);
        let fast = try_merge_groups(&cs, try_form_groups(&cs, &params).unwrap(), &params).unwrap();
        let fast_set: BTreeSet<Vec<HostAddr>> = fast
            .grouping
            .groups()
            .iter()
            .map(|g| g.members.clone())
            .collect();
        let slow_set = reference_merge(&cs, &params);
        prop_assert_eq!(fast_set, slow_set);
    }

    #[test]
    fn floor_gated_merging_matches_naive_across_thresholds(
        cs in arb_connsets(24, 50),
        s_lo in 0.0f64..95.0,
        gap in 0.5f64..40.0,
        k_hi in 1u32..8,
        literal in any::<bool>(),
    ) {
        // The fast path stores only pairs at or above S^lo; the naive
        // reference applies the full K^hi-gated test to every pair, so
        // any floor, gate split, or variant where the two disagree is a
        // pair the floor wrongly dropped or kept.
        let params = Params {
            similarity: if literal {
                SimilarityVariant::Literal
            } else {
                SimilarityVariant::Normalized
            },
            ..Params::default()
                .with_s_lo(s_lo)
                .with_s_hi((s_lo + gap).min(100.0))
                .with_k_hi(k_hi)
        };
        let fast = try_merge_groups(&cs, try_form_groups(&cs, &params).unwrap(), &params).unwrap();
        let fast_set: BTreeSet<Vec<HostAddr>> = fast
            .grouping
            .groups()
            .iter()
            .map(|g| g.members.clone())
            .collect();
        let slow_set = reference_merge(&cs, &params);
        prop_assert_eq!(fast_set, slow_set);
    }
}
