//! End-to-end decision provenance: one degraded, multi-window pipeline
//! run with churn must produce every declared event type, in both the
//! in-memory journal and the durable flight-recorder journal, and every
//! journal line must parse as JSON carrying a declared name.

use role_classification::aggregator::store::JOURNAL_NS;
use role_classification::aggregator::{
    Aggregator, AggregatorConfig, Probe, ProbeError, RecoverySource, ReplayProbe, RunStore,
    StorageStack, SupervisorConfig, AGGREGATOR_EVENT_NAMES, STORAGE_EVENT_NAMES,
};
use role_classification::flow::{FlowRecord, HostAddr};
use role_classification::roleclass::{
    EngineConfig, Params, ENGINE_EVENT_NAMES, STABILITY_EVENT_NAMES,
};
use role_classification::storage::{MemoryBackend, NamespaceProfile, Retention, StorageConfig};
use role_classification::telemetry::Recorder;
use serde::value::Value;
use std::collections::BTreeSet;
use std::sync::Arc;

fn h(x: u32) -> HostAddr {
    HostAddr::v4(x)
}

/// One window of figure-1-style traffic. From window 2 on, the pod-B
/// source-control server (host 4) disappears — its group id retires —
/// and a brand-new isolated pair 31↔32 appears, minting a fresh id.
fn window_trace(window: u64) -> Vec<FlowRecord> {
    let base = window * 1000;
    let mut out = Vec::new();
    let mut push = |a: u32, b: u32, off: u64| {
        let mut f = FlowRecord::pair(h(a), h(b));
        f.start_ms = base + off;
        out.push(f);
    };
    for (i, s) in [11, 12, 13].into_iter().enumerate() {
        push(s, 1, i as u64);
        push(s, 2, 10 + i as u64);
        push(s, 3, 20 + i as u64);
    }
    for (i, e) in [21, 22, 23].into_iter().enumerate() {
        push(e, 1, 30 + i as u64);
        push(e, 2, 40 + i as u64);
        if window < 2 {
            push(e, 4, 50 + i as u64);
        }
    }
    if window >= 2 {
        push(31, 32, 60);
    }
    out
}

/// A probe that dies fatally on its first poll: the first window fails,
/// every later window skips it (quarantined) — both probe event types.
struct FatalProbe;

impl Probe for FatalProbe {
    fn name(&self) -> &str {
        "flaky"
    }
    fn poll(&mut self, _: u64, _: u64) -> Result<Vec<FlowRecord>, ProbeError> {
        Err(ProbeError::Fatal("device gone".into()))
    }
    fn horizon_ms(&self) -> Option<u64> {
        Some(0)
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(m) => &m.iter().find(|(k, _)| k == key).expect("missing field").1,
        other => panic!("expected object, got {}", other.kind()),
    }
}

#[test]
fn degraded_pipeline_produces_every_declared_event_type() {
    let dir = std::env::temp_dir().join(format!("roleclass-events-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = StorageConfig::new(dir.to_string_lossy());
    let stack = StorageStack::open(&store).unwrap();

    let recorder = Arc::new(Recorder::new());
    let mut agg = Aggregator::try_new(AggregatorConfig {
        window_ms: 1000,
        origin_ms: 0,
        engine: EngineConfig::new(Params::default().with_s_lo(90.0).with_s_hi(95.0)),
        min_flows: 1,
        supervisor: SupervisorConfig::immediate(),
        ..AggregatorConfig::default()
    })
    .unwrap()
    .with_recorder(Arc::clone(&recorder))
    .with_shared_flight_recorder(Arc::clone(stack.recorder()))
    // Run history with a two-window retention cap: over four windows,
    // both storage event types (history_recorded + retention_pruned)
    // must fire. It sits on its own memory backend because the segment
    // store prunes whole segments, which four small windows never fill.
    .with_run_store(Arc::new(
        RunStore::open(
            Arc::new(MemoryBackend::new()),
            "runs",
            NamespaceProfile::log(Retention::unbounded().keep_records(2)),
        )
        .unwrap(),
    ));

    // Four windows; the structure churns after window 1, so correlation
    // carries, mints, and retires ids.
    let trace: Vec<FlowRecord> = (0..4).flat_map(window_trace).collect();
    agg.attach(Box::new(ReplayProbe::new("good", trace)));
    agg.attach(Box::new(FatalProbe));
    assert_eq!(agg.drain().len(), 4);
    agg.checkpoint(stack.checkpointer()).unwrap();

    // Restart: reopen the stack; restore is journaled too
    // (checkpoint_restored).
    drop(agg);
    drop(stack);
    let stack = StorageStack::open(&store).unwrap();
    let mut fresh = Aggregator::try_new(AggregatorConfig {
        window_ms: 1000,
        origin_ms: 0,
        engine: EngineConfig::new(Params::default().with_s_lo(90.0).with_s_hi(95.0)),
        min_flows: 1,
        supervisor: SupervisorConfig::immediate(),
        ..AggregatorConfig::default()
    })
    .unwrap()
    .with_recorder(Arc::clone(&recorder))
    .with_shared_flight_recorder(Arc::clone(stack.recorder()));
    let recovery = fresh.restore_from(stack.checkpointer());
    assert_eq!(recovery.source, RecoverySource::Primary);

    // Every declared event type — engine, aggregator, and stability
    // alike — occurred.
    let events = recorder.events().snapshot();
    let seen: BTreeSet<&str> = events.iter().map(|e| e.name).collect();
    for name in ENGINE_EVENT_NAMES
        .iter()
        .chain(AGGREGATOR_EVENT_NAMES)
        .chain(STABILITY_EVENT_NAMES)
        .chain(STORAGE_EVENT_NAMES)
    {
        assert!(seen.contains(name), "event type {name} never emitted");
    }
    // And nothing undeclared was emitted.
    for ev in &events {
        let declared = match ev.layer {
            "engine" => ENGINE_EVENT_NAMES.contains(&ev.name),
            "aggregator" => AGGREGATOR_EVENT_NAMES.contains(&ev.name),
            "stability" => STABILITY_EVENT_NAMES.contains(&ev.name),
            "storage" => STORAGE_EVENT_NAMES.contains(&ev.name),
            other => panic!("unexpected layer {other}"),
        };
        assert!(declared, "{} not declared for layer {}", ev.name, ev.layer);
    }

    // Every durable journal line parses as JSON with a declared
    // aggregator or stability event name and a dense sequence.
    let lines = stack.backend().scan(JOURNAL_NS, 0, u64::MAX).unwrap();
    assert!(!lines.is_empty());
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(line.key, i as u64, "journal keys are sequence numbers");
        let text = std::str::from_utf8(&line.value).expect("journal line must be UTF-8");
        let v: Value = serde_json::from_str(text).expect("journal line must parse");
        assert_eq!(field(&v, "seq"), &Value::U64(i as u64));
        let Value::Str(layer) = field(&v, "layer") else {
            panic!("layer must be a string");
        };
        let Value::Str(name) = field(&v, "name") else {
            panic!("name must be a string");
        };
        let declared = match layer.as_str() {
            "aggregator" => AGGREGATOR_EVENT_NAMES.contains(&name.as_str()),
            "stability" => STABILITY_EVENT_NAMES.contains(&name.as_str()),
            "storage" => STORAGE_EVENT_NAMES.contains(&name.as_str()),
            other => panic!("unexpected journal layer {other}"),
        };
        assert!(declared, "{name} not declared for journal layer {layer}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
