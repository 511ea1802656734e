//! The public entry point: full two-phase role classification.

use crate::config::EngineConfig;
use crate::formation::{form_groups_validated, form_groups_with, FormationEvent, FormationResult};
use crate::group::{GroupId, Grouping};
use crate::merging::{merge_groups_with, MergeEvent};
use crate::params::{ParamError, Params};
use flow::ConnectionSets;
use serde::{Deserialize, Serialize};

/// Per-group neighborhood summary, the information Figure 4 of the paper
/// renders for each group: which groups it communicates with and the
/// average number of connections per member to each.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GroupNeighborhood {
    /// The group.
    pub id: GroupId,
    /// Its `K_G` label.
    pub k: u32,
    /// Member count.
    pub size: usize,
    /// Average member connection count (original connection sets).
    pub avg_conns: f64,
    /// Neighboring groups with the average number of connections between
    /// a member of this group and that neighbor group.
    pub neighbors: Vec<(GroupId, f64)>,
}

/// Result of a full classification run.
#[derive(Clone, Debug)]
pub struct Classification {
    /// The final partitioning.
    pub grouping: Grouping,
    /// Formation-phase trace (Figure 2 material).
    pub formation_trace: Vec<FormationEvent>,
    /// Merging-phase trace.
    pub merge_trace: Vec<MergeEvent>,
    /// Per-group neighborhood summaries (Figure 4 material), ordered
    /// like [`Grouping::groups`].
    pub neighborhoods: Vec<GroupNeighborhood>,
}

impl Classification {
    /// Renders the group-level structure as a Graphviz DOT document:
    /// one node per group (labeled with id, `K_G` and size), one edge
    /// per communicating group pair (labeled with the average
    /// connections per member of the smaller group). This is the
    /// visualization hook the paper positions as complementary to
    /// grouping (Section 7).
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "graph \"{name}\" {{");
        let _ = writeln!(out, "  node [shape=ellipse];");
        for nb in &self.neighborhoods {
            let _ = writeln!(
                out,
                "  g{} [label=\"group {} (K={})\\n{} hosts\"];",
                nb.id, nb.id, nb.k, nb.size
            );
        }
        for nb in &self.neighborhoods {
            for &(peer, avg) in &nb.neighbors {
                if nb.id < peer {
                    let _ = writeln!(out, "  g{} -- g{} [label=\"{avg:.1}\"];", nb.id, peer);
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Runs the complete role classification algorithm (Section 4): group
/// formation followed by group merging. Validates `params` first; use
/// [`Engine`](crate::engine::Engine) to validate once and keep
/// cross-window state.
pub fn try_classify(cs: &ConnectionSets, params: &Params) -> Result<Classification, ParamError> {
    params.validate()?;
    Ok(classify_validated(cs, params))
}

/// Full classification with pre-validated `params`.
pub(crate) fn classify_validated(cs: &ConnectionSets, params: &Params) -> Classification {
    finish_classification(cs, form_groups_validated(cs, params), params)
}

/// [`classify_validated`] with explicit execution knobs and an optional
/// recorder threading telemetry through both phases. `None` is exactly
/// the uninstrumented path.
pub(crate) fn classify_with(
    cs: &ConnectionSets,
    cfg: &EngineConfig,
    rec: Option<&telemetry::Recorder>,
) -> Classification {
    finish_classification_with(cs, form_groups_with(cs, cfg, rec), cfg, rec)
}

/// Merges a formation result and assembles the [`Classification`]
/// (merge phase + the Figure 4 neighborhood summaries). Callers must
/// have validated `params`.
pub(crate) fn finish_classification(
    cs: &ConnectionSets,
    formation: FormationResult,
    params: &Params,
) -> Classification {
    finish_classification_with(cs, formation, &EngineConfig::new(*params), None)
}

/// [`finish_classification`] with explicit execution knobs and an
/// optional recorder: emits the `engine.merge` span and the merge-phase
/// metrics.
pub(crate) fn finish_classification_with(
    cs: &ConnectionSets,
    formation: FormationResult,
    cfg: &EngineConfig,
    rec: Option<&telemetry::Recorder>,
) -> Classification {
    let _span = telemetry::span(rec, "engine.merge");
    let started = rec.map(|_| std::time::Instant::now());
    let formation_trace = formation.trace.clone();
    let out = merge_groups_with(cs, formation, cfg, rec);
    if let (Some(r), Some(t0)) = (rec, started) {
        let reg = r.registry();
        reg.counter("roleclass_engine_merges_total")
            .add(out.merges.len() as u64);
        reg.gauge("roleclass_engine_groups_final")
            .set(out.grouping.group_count() as i64);
        reg.histogram(
            "roleclass_engine_merge_seconds",
            telemetry::DURATION_BUCKETS,
        )
        .observe(t0.elapsed().as_secs_f64());
    }

    let mut neighborhoods = Vec::with_capacity(out.grouping.group_count());
    for (idx, group) in out.grouping.groups().iter().enumerate() {
        let node = out.node_of_group[idx];
        let size = group.len().max(1) as f64;
        let mut neighbors: Vec<(GroupId, f64)> = out
            .graph
            .neighbors(node)
            .map(|(nbr, w)| {
                let nbr_idx = out
                    .node_of_group
                    .iter()
                    .position(|&n| n == nbr)
                    .expect("neighbor node must be a final group");
                (out.grouping.groups()[nbr_idx].id, w as f64 / size)
            })
            .collect();
        neighbors.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let avg_conns = group
            .members
            .iter()
            .map(|&m| cs.degree(m).unwrap_or(0))
            .sum::<usize>() as f64
            / size;
        neighborhoods.push(GroupNeighborhood {
            id: group.id,
            k: group.k,
            size: group.len(),
            avg_conns,
            neighbors,
        });
    }

    Classification {
        grouping: out.grouping,
        formation_trace,
        merge_trace: out.merges,
        neighborhoods,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow::HostAddr;

    fn h(x: u32) -> HostAddr {
        HostAddr::v4(x)
    }

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

    #[test]
    fn classify_runs_both_phases() {
        let c = try_classify(&figure1(), &Params::default()).unwrap();
        assert!(!c.formation_trace.is_empty());
        assert!(!c.merge_trace.is_empty());
        assert_eq!(c.grouping.host_count(), 10);
        assert_eq!(c.neighborhoods.len(), c.grouping.group_count());
    }

    #[test]
    fn neighborhoods_reference_valid_groups() {
        let c = try_classify(&figure1(), &Params::default()).unwrap();
        for nb in &c.neighborhoods {
            assert!(c.grouping.group(nb.id).is_some());
            for &(nbr, avg) in &nb.neighbors {
                assert!(c.grouping.group(nbr).is_some());
                assert!(avg > 0.0);
            }
        }
    }

    #[test]
    fn figure4_style_averages() {
        // At high S^lo nothing merges; the sales group's average number
        // of connections to the {Mail, Web} group is 2 per member.
        let p = Params::default().with_s_lo(90.0).with_s_hi(95.0);
        let c = try_classify(&figure1(), &p).unwrap();
        let sales_id = c.grouping.group_of(h(11)).unwrap();
        let mw_id = c.grouping.group_of(h(1)).unwrap();
        let nb = c.neighborhoods.iter().find(|n| n.id == sales_id).unwrap();
        let (_, avg) = nb.neighbors.iter().find(|(g, _)| *g == mw_id).unwrap();
        assert!((avg - 2.0).abs() < 1e-9);
        assert!((nb.avg_conns - 3.0).abs() < 1e-9);
    }

    #[test]
    fn try_classify_rejects_invalid_params() {
        let bad = Params {
            s_lo: 90.0,
            s_hi: 80.0,
            ..Params::default()
        };
        assert!(try_classify(&figure1(), &bad).is_err());
        assert!(try_classify(&figure1(), &Params::default()).is_ok());
    }

    #[test]
    fn empty_input() {
        let c = try_classify(&ConnectionSets::new(), &Params::default()).unwrap();
        assert!(c.grouping.is_empty());
        assert!(c.neighborhoods.is_empty());
    }

    #[test]
    fn dot_export_names_every_group_once() {
        let p = Params::default().with_s_lo(90.0).with_s_hi(95.0);
        let c = try_classify(&figure1(), &p).unwrap();
        let dot = c.to_dot("fig1");
        assert!(dot.starts_with("graph \"fig1\" {"));
        for g in c.grouping.groups() {
            assert!(dot.contains(&format!("g{} [label=", g.id)));
        }
        // Each undirected group edge appears exactly once.
        let edge_lines = dot.lines().filter(|l| l.contains(" -- ")).count();
        let expected: usize = c
            .neighborhoods
            .iter()
            .map(|nb| nb.neighbors.iter().filter(|(p, _)| nb.id < *p).count())
            .sum();
        assert_eq!(edge_lines, expected);
    }
}
