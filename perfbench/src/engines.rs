//! The two engine-heavy workloads, `dept-scale` and `bigco-churn`:
//! day-long flow traces go through `ConnsetBuilder` and
//! `Engine::run_window` window after window, with each correlated
//! window persisted to a `RunStore`, and one checkpoint plus one history
//! read at the end of a pass.

use crate::layers::{read_counters, span_total, Layers};
use crate::measure::{dir_bytes, pair_counts, partitions_window, secs, Tally};
use crate::persist::Pass;
use crate::{alloc, DAY_MS};
use aggregator::{RunRecord, StorageStack, WindowHealth};
use flow::{ConnectionSets, ConnsetBuilder, FlowRecord, HostAddr, HostTable, TimeWindow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roleclass::{apply_correlation, Engine, EngineConfig, EngineSnapshot, Grouping, Params};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use storage::StorageConfig;
use synthnet::{churn, scenarios, trace, SyntheticNetwork};
use telemetry::Recorder;

/// Hosts of the `dept-scale` network. At this size correlation and
/// merging outgrow formation, so costs that grow faster than the input
/// show here.
const DEPT_HOSTS: usize = 20_000;
/// Timed windows per pass (each pass also reuses the warm window's
/// state as its anchor).
const DEPT_WINDOWS: usize = 1;
const BIGCO_WINDOWS: usize = 4;
/// Engine workers on both workloads (the bench box has two cores).
const WORKERS: usize = 2;

/// One day of flow records.
struct Window {
    start_ms: u64,
    records: Vec<FlowRecord>,
}

/// A set-up engine workload: its windows (the first one warms up), the
/// true roles at the last window, and the warm engine state every pass
/// starts from.
pub struct EngineLoad {
    name: &'static str,
    hosts: usize,
    windows: Vec<Window>,
    truth: Vec<Vec<HostAddr>>,
    engine: Engine,
    table: HostTable,
    /// The groupings of the first pass, which later passes and the
    /// traced pass must reproduce exactly.
    reference: Vec<Grouping>,
}

fn expand(net: &SyntheticNetwork, day: u64, seed: u64) -> Window {
    let opts = trace::TraceOptions {
        start_ms: day * DAY_MS,
        span_ms: DAY_MS,
        ..trace::TraceOptions::default()
    };
    Window {
        start_ms: day * DAY_MS,
        records: trace::expand(&net.connsets, opts, seed ^ day.wrapping_mul(0x9E37_79B9)),
    }
}

/// Steady state: the same department network every day, fresh flows.
fn dept_windows(seed: u64) -> (usize, Vec<Window>, Vec<Vec<HostAddr>>) {
    let net = scenarios::department(DEPT_HOSTS, seed);
    let windows = (0..=DEPT_WINDOWS as u64)
        .map(|d| expand(&net, d, seed))
        .collect();
    (net.host_count(), windows, net.truth.partition())
}

/// Churn: before every day after the first, each role swaps one host
/// with the next role and replaces one host with a brand-new address.
fn bigco_windows(seed: u64) -> (usize, Vec<Window>, Vec<Vec<HostAddr>>) {
    let mut net = scenarios::big_company(seed);
    let hosts = net.host_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fresh = HostAddr::from_octets(172, 16, 0, 1).as_u32();
    let mut windows = vec![expand(&net, 0, seed)];
    for day in 1..=BIGCO_WINDOWS as u64 {
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
            let new = HostAddr::v4(fresh);
            fresh += 1;
            churn::replace_host(&mut net, old, new);
        }
        windows.push(expand(&net, day, seed));
    }
    (hosts, windows, net.truth.partition())
}

fn build(records: &[FlowRecord], table: &mut HostTable) -> (ConnectionSets, u64) {
    let mut builder = ConnsetBuilder::new();
    builder.add_records(records);
    let (cs, stats) = builder.build_with_stats_into(table);
    (cs, stats.kept_flows)
}

fn record(
    window: &Window,
    cs: ConnectionSets,
    grouping: Grouping,
    kept: u64,
    corr: Option<roleclass::Correlation>,
) -> RunRecord {
    RunRecord {
        window: TimeWindow::new(window.start_ms, window.start_ms + DAY_MS),
        connsets: cs,
        grouping,
        correlation: corr,
        health: WindowHealth {
            probes_total: 1,
            records_accepted: kept,
            ..WindowHealth::default()
        },
    }
}

impl EngineLoad {
    /// Generates the network and its traces, opens a store in `dir`, and
    /// runs the untimed warm window.
    pub fn setup(name: &'static str, seed: u64, dir: &Path, tally: &mut Tally) -> EngineLoad {
        let (hosts, windows, truth) = match name {
            "dept-scale" => dept_windows(seed),
            _ => bigco_windows(seed),
        };
        tally.op(
            "open storage",
            StorageStack::open(&StorageConfig::new(dir.to_string_lossy())),
        );
        let config = EngineConfig::new(Params::default()).with_workers(WORKERS);
        let mut engine = Engine::from_config(config).expect("default parameters are valid");
        let mut table = HostTable::new();
        let (cs, _) = build(&windows[0].records, &mut table);
        let warm = engine.run_window(&cs);
        tally.check(partitions_window(&warm.grouping, &cs), || {
            format!("{name}: warm window grouping does not partition its hosts")
        });
        EngineLoad {
            name,
            hosts,
            windows,
            truth,
            engine,
            table,
            reference: Vec::new(),
        }
    }

    pub fn context(&self) -> Vec<(&'static str, String)> {
        let records = self.windows[1..]
            .iter()
            .map(|w| w.records.len())
            .sum::<usize>()
            / (self.windows.len() - 1);
        vec![
            ("hosts", self.hosts.to_string()),
            ("records_per_window", records.to_string()),
            ("windows_per_pass", (self.windows.len() - 1).to_string()),
            ("engine_workers", WORKERS.to_string()),
        ]
    }

    /// One timed pass over every window after the warm one, starting
    /// from the warm state.
    pub fn pass(&mut self, dir: &Path, tally: &mut Tally) -> Pass {
        let mut pass = Pass::default();
        let Some(stack) = tally.op(
            "open storage",
            StorageStack::open(&StorageConfig::new(dir.to_string_lossy())),
        ) else {
            return pass;
        };
        let mut engine = self.engine.clone();
        let mut table = self.table.clone();
        let mut runs = Vec::new();
        for (i, window) in self.windows[1..].iter().enumerate() {
            let t0 = Instant::now();
            let (cs, kept) = build(&window.records, &mut table);
            let out = engine.run_window(&cs);
            pass.windows_s.push(secs(t0));

            tally.check(partitions_window(&out.grouping, &cs), || {
                format!(
                    "{}: window {i} grouping does not partition its hosts",
                    self.name
                )
            });
            match self.reference.get(i) {
                Some(g) => tally.check(*g == out.grouping, || {
                    format!(
                        "{}: window {i} grouping differs from the first pass",
                        self.name
                    )
                }),
                None => self.reference.push(out.grouping.clone()),
            }
            let run = record(window, cs, out.grouping, kept, out.correlation);
            let t1 = Instant::now();
            tally.op("persist window", stack.runs().record(&run));
            pass.persist_s += secs(t1);
            runs.push(run);
        }
        pass.finish(
            &stack,
            &runs,
            || stack.checkpointer().save_with_table(&runs, &table),
            tally,
        );
        pass
    }

    /// The traced pass: the staged `form → merge → correlate_with` path
    /// with a recorder attached and allocation counting on, each layer
    /// timed around its public call. Its groupings must equal the ones
    /// `run_window` produced.
    pub fn traced_pass(&mut self, dir: &Path, tally: &mut Tally) -> Layers {
        let mut layers = Layers::default();
        let Some(stack) = tally.op(
            "open storage",
            StorageStack::open(&StorageConfig::new(dir.to_string_lossy())),
        ) else {
            return layers;
        };
        let recorder = Arc::new(Recorder::new());
        let mut engine = self.engine.clone();
        engine.set_recorder(Some(Arc::clone(&recorder)));
        let mut table = self.table.clone();
        let mut runs = Vec::new();
        alloc::set_counting(true);
        let counts_before = read_counters(&recorder);
        for (i, window) in self.windows[1..].iter().enumerate() {
            let a0 = alloc::main_thread_bytes();
            let t0 = Instant::now();
            let (cs, kept) = build(&window.records, &mut table);
            let t1 = Instant::now();
            let a1 = alloc::main_thread_bytes();
            let formed = engine.form(&cs);
            let t2 = Instant::now();
            let a2 = alloc::main_thread_bytes();
            let merged = formed.merge();
            let t3 = Instant::now();
            let a3 = alloc::main_thread_bytes();
            let prev = engine
                .previous()
                .expect("every pass starts from the warm window");
            let corr = merged.correlate_with(prev);
            let t4 = Instant::now();
            let a4 = alloc::main_thread_bytes();
            let grouping = apply_correlation(&corr, &merged.classification().grouping);
            drop(merged);
            engine.set_previous(Some(EngineSnapshot {
                connsets: cs.clone(),
                grouping: grouping.clone(),
            }));
            let t5 = Instant::now();
            layers.flow_build_s += (t1 - t0).as_secs_f64();
            layers.formation_s += (t2 - t1).as_secs_f64();
            layers.merging_s += (t3 - t2).as_secs_f64();
            layers.correlate_s += (t4 - t3).as_secs_f64();
            layers.window_s += (t5 - t0).as_secs_f64();
            layers.flow_records += window.records.len() as f64;
            layers.alloc_flow += a1 - a0;
            layers.alloc_formation += a2 - a1;
            layers.alloc_merging += a3 - a2;
            layers.alloc_correlate += a4 - a3;

            tally.check(self.reference.get(i) == Some(&grouping), || {
                format!(
                    "{}: window {i}: staged form/merge/correlate_with differs from run_window",
                    self.name
                )
            });
            let run = record(window, cs, grouping, kept, Some(corr));
            let a5 = alloc::main_thread_bytes();
            let t6 = Instant::now();
            tally.op("persist window", stack.runs().record(&run));
            layers.run_s += secs(t6);
            layers.alloc_storage += alloc::main_thread_bytes() - a5;
            runs.push(run);
        }
        let counts_after = read_counters(&recorder);
        layers.windows = runs.len();
        layers.counts = std::array::from_fn(|k| counts_after[k] - counts_before[k]);
        let mut pass = Pass::default();
        let a6 = alloc::main_thread_bytes();
        pass.finish(
            &stack,
            &runs,
            || stack.checkpointer().save_with_table(&runs, &table),
            tally,
        );
        layers.alloc_storage += alloc::main_thread_bytes() - a6;
        alloc::set_counting(false);

        let spans = recorder.spans();
        layers.kernel_build_s = span_total(&spans, "kernel.build").0;
        layers.kernel_count_s = span_total(&spans, "kernel.count").0;
        layers.agglomerate_s = span_total(&spans, "merge.agglomerate").0;
        layers.step1_s = span_total(&spans, "correlate.step1").0;
        layers.storage_from(&pass);
        layers.disk_bytes = dir_bytes(dir) as f64;
        layers.run_s += layers.window_s + pass.run_s();
        layers
    }

    /// The Rand statistic of the last window's grouping against the true
    /// roles, from the first pass. On `bigco-churn` it is cross-checked
    /// against the quadratic `cluster::metrics::pair_counts`.
    pub fn rand_index(&self, tally: &mut Tally) -> f64 {
        let Some(last) = self.reference.last() else {
            return 0.0;
        };
        let counts = pair_counts(&self.truth, last);
        if self.name == "bigco-churn" {
            let exact = cluster::metrics::pair_counts(&self.truth, &last.as_partition());
            tally.check(exact == counts && exact.rand() == counts.rand(), || {
                format!("contingency pair counts {counts:?} differ from cluster::metrics::pair_counts {exact:?}")
            });
        }
        counts.rand()
    }
}
