//! The `ingest-history` workload: a small department network with heavy
//! flow volume, streamed window by window over loopback TCP into an
//! `Aggregator` backed by a segment `StorageStack`, with a checkpoint and
//! a `/history` read after every window. Ingest, persistence and reads
//! dominate; their costs grow with uptime.

use crate::layers::{read_counters, span_total, Layers};
use crate::measure::{dir_bytes, pair_counts, partitions_window, secs, Tally};
use crate::persist::Pass;
use crate::{alloc, DAY_MS};
use aggregator::transport::{stream_records, SenderStats, TransportConfig, WireListener};
use aggregator::{Aggregator, AggregatorConfig, RunRecord, StorageStack, SupervisorConfig};
use flow::{FlowRecord, HostAddr};
use roleclass::{apply_correlation, Engine, EngineConfig, EngineSnapshot, Grouping, Params};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use storage::StorageConfig;
use synthnet::{scenarios, trace};
use telemetry::Recorder;

const HOSTS: usize = 2_000;
const WINDOWS: u64 = 10;
/// Flows per connection: about 220k records per window at 2k hosts.
const FLOWS: (u32, u32) = (16, 32);
/// One engine worker: the sender thread has the other core.
const WORKERS: usize = 1;

pub struct IngestLoad {
    hosts: usize,
    records: Vec<FlowRecord>,
    truth: Vec<Vec<HostAddr>>,
    /// The groupings of the first pass, which later passes must
    /// reproduce exactly.
    reference: Vec<Grouping>,
}

fn config() -> AggregatorConfig {
    AggregatorConfig {
        window_ms: DAY_MS,
        origin_ms: 0,
        engine: EngineConfig::new(Params::default()).with_workers(WORKERS),
        min_flows: 1,
        supervisor: SupervisorConfig::immediate(),
        ..AggregatorConfig::default()
    }
}

/// What one pass through the aggregator leaves behind.
struct Streamed {
    runs: Vec<RunRecord>,
    sender: Option<SenderStats>,
    /// Main-thread bytes allocated by checkpoints and history reads.
    storage_alloc: u64,
}

impl IngestLoad {
    /// Generates the network and its trace, opens a store in `dir`, and
    /// classifies the first window once, untimed, to warm up.
    pub fn setup(seed: u64, dir: &Path, tally: &mut Tally) -> IngestLoad {
        let net = scenarios::department(HOSTS, seed);
        let mut records = Vec::new();
        for day in 0..WINDOWS {
            let opts = trace::TraceOptions {
                min_flows_per_conn: FLOWS.0,
                max_flows_per_conn: FLOWS.1,
                start_ms: day * DAY_MS,
                span_ms: DAY_MS,
            };
            records.extend(trace::expand(
                &net.connsets,
                opts,
                seed ^ day.wrapping_mul(0x9E37_79B9),
            ));
        }
        tally.op(
            "open storage",
            StorageStack::open(&StorageConfig::new(dir.to_string_lossy())),
        );
        let engine = Engine::from_config(config().engine).expect("default parameters are valid");
        engine.classify(&net.connsets);
        IngestLoad {
            hosts: net.host_count(),
            records,
            truth: net.truth.partition(),
            reference: Vec::new(),
        }
    }

    pub fn context(&self) -> Vec<(&'static str, String)> {
        vec![
            ("hosts", self.hosts.to_string()),
            (
                "records_per_window",
                (self.records.len() as u64 / WINDOWS).to_string(),
            ),
            ("windows_per_pass", WINDOWS.to_string()),
            ("engine_workers", WORKERS.to_string()),
        ]
    }

    /// Streams every window through a fresh aggregator and store in
    /// `dir`. After each window: checkpoint plus flush, then the history
    /// read, all timed into `pass`.
    fn stream(
        &self,
        dir: &Path,
        recorder: Option<Arc<Recorder>>,
        pass: &mut Pass,
        tally: &mut Tally,
    ) -> Option<Streamed> {
        let stack = tally.op(
            "open storage",
            StorageStack::open(&StorageConfig::new(dir.to_string_lossy())),
        )?;
        let listener = tally.op(
            "bind loopback listener",
            WireListener::bind(
                "127.0.0.1:0",
                TransportConfig::default(),
                recorder.clone(),
                None,
            ),
        )?;
        let addr = listener.local_addr();
        let mut agg = Aggregator::new(config())
            .with_shared_flight_recorder(Arc::clone(stack.recorder()))
            .with_run_store(Arc::clone(stack.runs()));
        if let Some(r) = recorder {
            agg = agg.with_recorder(r);
        }
        agg.attach(Box::new(listener.probe("probe")));
        let mut out = Streamed {
            runs: Vec::new(),
            sender: None,
            storage_alloc: 0,
        };
        std::thread::scope(|s| {
            let sender = s.spawn(|| {
                stream_records(
                    addr,
                    "probe",
                    &self.records,
                    0,
                    DAY_MS,
                    TransportConfig::default(),
                )
            });
            for w in 0..WINDOWS as usize {
                let t0 = Instant::now();
                let run = agg.run_cycle();
                pass.windows_s.push(secs(t0));
                tally.check(!run.health.degraded(), || {
                    format!("window {w} degraded: {:?}", run.health.errors)
                });
                tally.check(partitions_window(&run.grouping, &run.connsets), || {
                    format!("window {w} grouping does not partition its hosts")
                });
                out.runs.push(run);

                let a0 = alloc::main_thread_bytes();
                if w + 1 < WINDOWS as usize {
                    pass.checkpoint(&stack, || agg.checkpoint(stack.checkpointer()), tally);
                    pass.history_read(&stack, &out.runs, tally);
                } else {
                    pass.finish(
                        &stack,
                        &out.runs,
                        || agg.checkpoint(stack.checkpointer()),
                        tally,
                    );
                }
                out.storage_alloc += alloc::main_thread_bytes() - a0;
            }
            out.sender = tally.op(
                "stream records",
                sender.join().expect("sender thread panicked"),
            );
        });
        listener.shutdown();
        Some(out)
    }

    /// Checks a pass's groupings against the first pass's.
    fn compare(&mut self, runs: &[RunRecord], tally: &mut Tally) {
        for (w, run) in runs.iter().enumerate() {
            match self.reference.get(w) {
                Some(g) => tally.check(*g == run.grouping, || {
                    format!("window {w} grouping differs from the first pass")
                }),
                None => self.reference.push(run.grouping.clone()),
            }
        }
    }

    pub fn pass(&mut self, dir: &Path, tally: &mut Tally) -> Pass {
        let mut pass = Pass::default();
        if let Some(out) = self.stream(dir, None, &mut pass, tally) {
            self.compare(&out.runs, tally);
        }
        pass
    }

    /// The traced pass: the same stream with a recorder on the aggregator
    /// and listener and allocation counting on. Layer times come from the
    /// spans the program already emits; every window is re-run through
    /// the staged `form → merge → correlate_with` path, which must give
    /// the grouping `run_window` gave.
    pub fn traced_pass(&mut self, dir: &Path, tally: &mut Tally) -> Layers {
        let mut layers = Layers::default();
        let recorder = Arc::new(Recorder::new());
        let counts_before = read_counters(&recorder);
        let mut pass = Pass::default();
        alloc::set_counting(true);
        let streamed = self.stream(dir, Some(Arc::clone(&recorder)), &mut pass, tally);
        alloc::set_counting(false);
        let Some(out) = streamed else {
            return layers;
        };
        let counts_after = read_counters(&recorder);
        layers.counts = std::array::from_fn(|k| counts_after[k] - counts_before[k]);
        layers.disk_bytes = dir_bytes(dir) as f64;
        self.compare(&out.runs, tally);

        let spans = recorder.spans();
        let (build_s, build_b) = span_total(&spans, "aggregator.build");
        let poll_s = span_total(&spans, "aggregator.poll").0;
        let (engine_s, engine_b) = span_total(&spans, "engine.run_window");
        let (_, cycle_b) = span_total(&spans, "aggregator.run_cycle");
        let (form_s, form_b) = span_total(&spans, "engine.form");
        let (merge_s, merge_b) = span_total(&spans, "engine.merge");
        let (corr_s, corr_b) = span_total(&spans, "engine.correlate");
        layers.windows = out.runs.len();
        layers.window_s = pass.windows_s.iter().sum();
        layers.cycle_s = layers.window_s;
        layers.poll_s = poll_s;
        layers.flow_build_s = build_s;
        layers.aggregator_rest_s = layers.cycle_s - poll_s - build_s - engine_s;
        layers.formation_s = form_s;
        layers.merging_s = merge_s;
        layers.correlate_s = corr_s;
        layers.kernel_build_s = span_total(&spans, "kernel.build").0;
        layers.kernel_count_s = span_total(&spans, "kernel.count").0;
        layers.agglomerate_s = span_total(&spans, "merge.agglomerate").0;
        layers.step1_s = span_total(&spans, "correlate.step1").0;
        layers.flow_records = out
            .runs
            .iter()
            .map(|r| (r.health.records_accepted + r.health.records_dropped) as f64)
            .sum();
        if let Some(s) = out.sender {
            layers.transport_bytes = s.bytes_sent as f64;
            layers.transport_frames = s.frames_sent as f64;
            layers.transport_retransmits = s.retransmits as f64;
        }
        layers.alloc_flow = build_b;
        layers.alloc_formation = form_b;
        layers.alloc_merging = merge_b;
        layers.alloc_correlate = corr_b;
        layers.alloc_aggregator = cycle_b.saturating_sub(build_b + engine_b);
        layers.alloc_storage = out.storage_alloc;
        layers.storage_from(&pass);
        layers.run_s = pass.run_s();

        let config = config().engine;
        let engine = Engine::from_config(config).expect("default parameters are valid");
        for (w, run) in out.runs.iter().enumerate() {
            let merged = engine.form(&run.connsets).merge();
            let staged = match w.checked_sub(1).map(|p| &out.runs[p]) {
                None => merged.classification().grouping.clone(),
                Some(prev) => {
                    let prev = EngineSnapshot {
                        connsets: prev.connsets.clone(),
                        grouping: prev.grouping.clone(),
                    };
                    apply_correlation(
                        &merged.correlate_with(&prev),
                        &merged.classification().grouping,
                    )
                }
            };
            tally.check(staged == run.grouping, || {
                format!("window {w}: staged form/merge/correlate_with differs from run_window")
            });
        }
        layers
    }

    /// The Rand statistic of the last window's grouping against the true
    /// roles, from the first pass.
    pub fn rand_index(&self) -> f64 {
        self.reference
            .last()
            .map_or(0.0, |g| pair_counts(&self.truth, g).rand())
    }
}
