//! Per-layer figures of the traced pass, and how they are printed.
//!
//! Times are sums over the traced pass's timed windows; counts are the
//! registry's cumulative counters read before and after those windows,
//! so nothing done before the traced pass (set-up, the warm window, the
//! untraced passes) leaks into them.

use crate::measure::{median, Metrics};
use crate::persist::Pass;
use telemetry::{Recorder, SpanNode};

/// The counters the per-layer ratios are built on.
pub const COUNTERS: [&str; 9] = [
    "roleclass_kernel_contractions_total",
    "roleclass_kernel_pruned_paths_total",
    "roleclass_engine_merge_heap_pops_total",
    "roleclass_engine_merges_total",
    "roleclass_engine_correlate_candidates_total",
    "roleclass_engine_correlate_similarity_evals_total",
    "roleclass_engine_ids_carried_total",
    "roleclass_engine_ids_minted_total",
    "roleclass_engine_ids_retired_total",
];

/// A reading of [`COUNTERS`].
pub fn read_counters(rec: &Recorder) -> [u64; 9] {
    COUNTERS.map(|name| rec.registry().counter(name).get())
}

/// Total `(seconds, bytes allocated)` of every span called `name`,
/// counting only the outermost of nested same-name spans.
pub fn span_total(roots: &[SpanNode], name: &str) -> (f64, u64) {
    roots.iter().fold((0.0, 0), |(s, b), n| {
        let (ns, nb) = if n.name == name {
            (n.secs(), n.alloc_bytes)
        } else {
            span_total(&n.children, name)
        };
        (s + ns, b + nb)
    })
}

/// Everything the traced pass measures. Fields a workload does not
/// exercise stay zero (no transport or aggregator on the engine
/// workloads).
#[derive(Debug, Default)]
pub struct Layers {
    pub windows: usize,
    /// Sum of the traced windows, each from records in to correlated
    /// grouping out (`run_cycle` on `ingest-history`).
    pub window_s: f64,
    pub flow_build_s: f64,
    pub flow_records: f64,
    pub transport_bytes: f64,
    pub transport_frames: f64,
    pub transport_retransmits: f64,
    pub poll_s: f64,
    pub cycle_s: f64,
    /// The cycle minus poll, build and the engine's window: persisting,
    /// stability scoring and alerts.
    pub aggregator_rest_s: f64,
    pub formation_s: f64,
    pub kernel_build_s: f64,
    pub kernel_count_s: f64,
    pub merging_s: f64,
    pub agglomerate_s: f64,
    pub correlate_s: f64,
    pub step1_s: f64,
    /// Counter deltas over the traced windows, in [`COUNTERS`] order.
    pub counts: [u64; 9],
    /// Checkpoint plus flush, one per checkpoint taken, in order.
    pub checkpoints_s: Vec<f64>,
    pub summaries_s: f64,
    pub at_s: f64,
    pub disk_bytes: f64,
    /// Main-thread bytes allocated per layer.
    pub alloc_flow: u64,
    pub alloc_formation: u64,
    pub alloc_merging: u64,
    pub alloc_correlate: u64,
    pub alloc_storage: u64,
    pub alloc_aggregator: u64,
    /// The traced pass's timed part, to set against the untraced one.
    pub run_s: f64,
}

impl Layers {
    /// Takes the storage timings of a traced pass: one checkpoint per
    /// window, the last window's being the median of its repeats, and
    /// the median history read after the last window.
    pub fn storage_from(&mut self, pass: &Pass) {
        let repeated = pass.final_checkpoints_s.len();
        let per_window = pass.checkpoints_s.len() - repeated;
        self.checkpoints_s = pass.checkpoints_s[..per_window].to_vec();
        self.checkpoints_s.push(median(&pass.final_checkpoints_s));
        self.summaries_s = median(&pass.final_reads_s.iter().map(|r| r.0).collect::<Vec<_>>());
        self.at_s = median(&pass.final_reads_s.iter().map(|r| r.1).collect::<Vec<_>>());
    }

    /// Prints and records every per-layer metric. `untraced_run_s` is the
    /// median untraced `run_s` of the same run.
    pub fn emit(&self, untraced_run_s: f64, m: &mut Metrics) {
        let [contractions, pruned, pops, merges, candidates, evals, carried, minted, retired] =
            self.counts.map(|c| c as f64);

        m.push("flow.build_s", self.flow_build_s, "s");
        m.push("flow.records", self.flow_records, "count");
        m.ratio(
            "flow.ns_per_record",
            ("flow.build_s", self.flow_build_s),
            ("flow.records", self.flow_records),
            1e9,
            "ns",
        );

        m.push("transport.bytes", self.transport_bytes, "bytes");
        m.push("transport.frames", self.transport_frames, "count");
        m.push("transport.retransmits", self.transport_retransmits, "count");
        m.push("aggregator.poll_s", self.poll_s, "s");
        m.push("aggregator.cycle_s", self.cycle_s, "s");
        m.push("aggregator.unattributed_s", self.aggregator_rest_s, "s");

        m.push("formation.s", self.formation_s, "s");
        m.push("kernel.build_s", self.kernel_build_s, "s");
        m.push("kernel.count_s", self.kernel_count_s, "s");
        m.push("kernel.contractions", contractions, "count");
        m.push("kernel.pruned_paths", pruned, "count");

        m.push("merging.s", self.merging_s, "s");
        m.push("merging.agglomerate_s", self.agglomerate_s, "s");
        m.push("merging.heap_pops", pops, "count");
        m.push("merging.merges", merges, "count");
        m.ratio(
            "merging.ns_per_pop",
            ("merging.agglomerate_s", self.agglomerate_s),
            ("merging.heap_pops", pops),
            1e9,
            "ns",
        );
        m.ratio(
            "merging.merge_yield",
            ("merging.merges", merges),
            ("merging.heap_pops", pops),
            1.0,
            "ratio",
        );

        m.push("correlate.s", self.correlate_s, "s");
        m.push("correlate.step1_s", self.step1_s, "s");
        m.push("correlate.candidates", candidates, "count");
        m.push("correlate.similarity_evals", evals, "count");
        m.ratio(
            "correlate.ns_per_eval",
            ("correlate.s", self.correlate_s),
            ("correlate.similarity_evals", evals),
            1e9,
            "ns",
        );
        m.push("correlate.ids_carried", carried, "count");
        m.push("correlate.ids_minted", minted, "count");
        m.push("correlate.ids_retired", retired, "count");
        m.ratio(
            "correlate.eval_yield",
            ("correlate.ids_carried", carried),
            ("correlate.similarity_evals", evals),
            1.0,
            "ratio",
        );

        let mean_checkpoint =
            self.checkpoints_s.iter().sum::<f64>() / self.checkpoints_s.len().max(1) as f64;
        println!(
            "storage.checkpoint_s is the mean of {} checkpoint(s)",
            self.checkpoints_s.len()
        );
        m.push("storage.checkpoint_s", mean_checkpoint, "s");
        let first = self.checkpoints_s.first().copied().unwrap_or(0.0);
        let last = self.checkpoints_s.last().copied().unwrap_or(0.0);
        m.ratio(
            "storage.checkpoint_growth",
            ("last checkpoint s", last),
            ("first checkpoint s", first),
            1.0,
            "ratio",
        );
        m.push("storage.summaries_s", self.summaries_s, "s");
        m.push("storage.at_s", self.at_s, "s");
        m.push("storage.disk_bytes", self.disk_bytes, "bytes");

        m.ratio(
            "telemetry.overhead_frac",
            ("traced run_s - untraced run_s", self.run_s - untraced_run_s),
            ("untraced run_s", untraced_run_s),
            1.0,
            "ratio",
        );
        println!("alloc.bytes.* count main-thread allocations only: engine and transport worker threads are missing");
        for (layer, bytes) in [
            ("flow", self.alloc_flow),
            ("formation", self.alloc_formation),
            ("merging", self.alloc_merging),
            ("correlate", self.alloc_correlate),
            ("storage", self.alloc_storage),
            ("aggregator", self.alloc_aggregator),
        ] {
            m.push(
                format!("alloc.bytes.{layer}"),
                bytes as f64,
                "B-main-thread",
            );
        }

        let attributed = self.poll_s
            + self.flow_build_s
            + self.formation_s
            + self.merging_s
            + self.correlate_s
            + self.aggregator_rest_s;
        println!(
            "unattributed_s = {:.6} s  (window sum {:.6} s over {} window(s) - per-layer self times {:.6} s)",
            self.window_s - attributed,
            self.window_s,
            self.windows,
            attributed
        );
        m.push("unattributed_s", self.window_s - attributed, "s");
    }
}
