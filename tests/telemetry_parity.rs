//! Attaching a telemetry recorder must be purely observational: the
//! engine's window outcomes — and the aggregator's stability rows —
//! are bit-identical with and without one.

use role_classification::aggregator::{
    Aggregator, AggregatorConfig, ReplayProbe, SupervisorConfig,
};
use role_classification::roleclass::{
    Engine, EngineConfig, Params, ENGINE_EVENT_NAMES, STABILITY_METRIC_NAMES,
};
use role_classification::synthnet::{scenarios, trace};
use role_classification::telemetry::Recorder;
use std::sync::Arc;

#[test]
fn run_window_is_bit_identical_with_and_without_recorder() {
    let params = Params::default().with_s_lo(90.0).with_s_hi(95.0);
    let mut plain = Engine::new(params).unwrap();
    let mut traced = Engine::new(params)
        .unwrap()
        .with_recorder(Arc::new(Recorder::new()));

    // Two windows with different seeds: the second correlates against
    // the first, so both the classify and correlate paths are compared.
    let net = scenarios::figure1(4, 5);
    for seed in [3u64, 4] {
        let records = trace::expand(&net.connsets, trace::TraceOptions::default(), seed);
        let mut builder = role_classification::flow::ConnsetBuilder::new();
        builder.add_records(records.iter());
        let cs = builder.build();

        let a = plain.run_window(&cs);
        let b = traced.run_window(&cs);
        assert_eq!(a.grouping, b.grouping);
        assert_eq!(a.classification.grouping, b.classification.grouping);
        assert_eq!(a.correlation.is_some(), b.correlation.is_some());
        // Correlation has no PartialEq; its serialized form is stable.
        assert_eq!(
            serde_json::to_string(&a.correlation).unwrap(),
            serde_json::to_string(&b.correlation).unwrap()
        );
    }

    // And the recorder actually observed the work it did not perturb.
    let rec = traced.recorder().unwrap();
    assert_eq!(
        rec.registry()
            .counter("roleclass_engine_windows_total")
            .get(),
        2
    );
    assert_eq!(rec.spans().len(), 2);

    // Decision provenance rides the same recorder: the journal is
    // populated, every event name is declared, and the sequence is
    // dense — yet none of it changed the outcomes compared above.
    let events = rec.events().snapshot();
    assert!(!events.is_empty(), "provenance events were recorded");
    for (i, ev) in events.iter().enumerate() {
        assert_eq!(ev.layer, "engine");
        assert!(
            ENGINE_EVENT_NAMES.contains(&ev.name),
            "{} is not a declared engine event",
            ev.name
        );
        assert_eq!(ev.seq, i as u64);
    }
    // Both windows left formation traces; the second window correlated.
    assert!(events
        .iter()
        .any(|e| e.name == "roleclass_engine_host_grouped"));
    assert!(events
        .iter()
        .any(|e| e.name == "roleclass_engine_id_carried"));
}

/// Profiler-attached vs detached classification outcomes, pinned
/// bit-identical across worker counts. The profiling subsystem (span
/// self-time, allocation snapshots, unit-cost series) rides the same
/// recorder as plain telemetry; this pins that none of it perturbs the
/// grouping at 1, 2, or 8 kernel/merge workers.
#[test]
fn profiler_attached_outcomes_identical_across_worker_counts() {
    let params = Params::default().with_s_lo(90.0).with_s_hi(95.0);
    let net = scenarios::figure1(6, 7);
    let windows: Vec<_> = (0..3u64)
        .map(|seed| {
            let records = trace::expand(&net.connsets, trace::TraceOptions::default(), 11 + seed);
            let mut builder = role_classification::flow::ConnsetBuilder::new();
            builder.add_records(records.iter());
            builder.build()
        })
        .collect();

    let mut reference: Option<Vec<String>> = None;
    for workers in [1usize, 2, 8] {
        let config = EngineConfig::new(params).with_workers(workers);
        let mut plain = Engine::from_config(config.clone()).unwrap();
        let rec = Arc::new(Recorder::new());
        let mut profiled = Engine::from_config(config)
            .unwrap()
            .with_recorder(Arc::clone(&rec));

        let mut outcomes = Vec::new();
        for cs in &windows {
            let a = plain.run_window(cs);
            let b = profiled.run_window(cs);
            assert_eq!(a.grouping, b.grouping, "workers={workers}");
            assert_eq!(
                serde_json::to_string(&a.correlation).unwrap(),
                serde_json::to_string(&b.correlation).unwrap(),
                "workers={workers}"
            );
            outcomes.push(format!("{:?}|{:?}", a.grouping, a.correlation.is_some()));
        }
        // ... and the outcomes agree across worker counts too, so the
        // profile rows below describe one single canonical run.
        match &reference {
            None => reference = Some(outcomes),
            Some(r) => assert_eq!(r, &outcomes, "workers={workers}"),
        }

        // The profiled run actually profiled: the aggregated table has
        // the full window span set with coherent self times.
        let profile = rec.profile();
        for stage in ["engine.run_window", "engine.classify", "engine.correlate"] {
            let e = profile
                .get(stage)
                .unwrap_or_else(|| panic!("{stage} missing"));
            assert_eq!(
                e.count as usize,
                if stage == "engine.correlate" { 2 } else { 3 }
            );
            assert!(e.self_time <= e.total);
            assert!(e.min <= e.max);
        }
        // Collapsed export parses back and its values (self micros)
        // cover every line.
        let collapsed = rec.collapsed_spans();
        assert!(!collapsed.is_empty());
        for line in collapsed.lines() {
            let (frames, _) =
                role_classification::telemetry::parse_collapsed_line(line).expect(line);
            assert_eq!(frames[0], "roleclass");
        }
    }
}

#[test]
fn stability_rows_are_bit_identical_with_and_without_recorder() {
    let config = || AggregatorConfig {
        window_ms: 1000,
        origin_ms: 0,
        engine: EngineConfig::new(Params::default().with_s_lo(90.0).with_s_hi(95.0)),
        min_flows: 1,
        supervisor: SupervisorConfig::immediate(),
        ..AggregatorConfig::default()
    };
    let net = scenarios::figure1(4, 5);
    let probe = || {
        let records: Vec<_> = (0..3u64)
            .flat_map(|day| {
                let mut r = trace::expand(&net.connsets, trace::TraceOptions::default(), day + 7);
                for f in &mut r {
                    f.start_ms = day * 1000 + f.start_ms % 1000;
                }
                r
            })
            .collect();
        ReplayProbe::new("p0", records)
    };

    let mut plain = Aggregator::new(config());
    plain.attach(Box::new(probe()));
    let a = plain.drain();

    let rec = Arc::new(Recorder::new());
    let mut traced = Aggregator::new(config()).with_recorder(Arc::clone(&rec));
    traced.attach(Box::new(probe()));
    let b = traced.drain();

    // The groupings, the stability rows, the churn tables, and the
    // timeseries frames (modulo wall-clock timestamps) all match.
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.grouping, y.grouping);
    }
    assert_eq!(plain.stability_history(), traced.stability_history());
    assert_eq!(plain.churn_table(), traced.churn_table());
    // Frames match modulo the `roleclass_profile_` series: unit costs
    // are derived from recorder stage timings, so they exist only on
    // the attached side — everything else must be value-identical.
    let (fa, fb) = (
        plain.timeseries().snapshot(),
        traced.timeseries().snapshot(),
    );
    assert_eq!(fa.len(), fb.len());
    for (x, y) in fa.iter().zip(fb.iter()) {
        assert_eq!(x.window, y.window);
        let y_profile: Vec<&str> = y
            .values
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| n.starts_with("roleclass_profile_"))
            .collect();
        assert_eq!(
            y_profile,
            role_classification::telemetry::PROFILE_METRIC_NAMES,
            "attached frames carry every declared profile series"
        );
        let y_stripped: Vec<(&'static str, f64)> = y
            .values
            .iter()
            .filter(|(n, _)| !n.starts_with("roleclass_profile_"))
            .copied()
            .collect();
        assert_eq!(x.values, y_stripped);
        assert!(
            !x.values
                .iter()
                .any(|(n, _)| n.starts_with("roleclass_profile_")),
            "detached frames never carry profile series"
        );
    }

    // The attached run registered its stability metrics, all declared.
    let reg = rec.registry();
    assert_eq!(reg.counter("roleclass_stability_windows_total").get(), 3);
    for line in reg.prometheus_text().lines() {
        if let Some(name) = line.split([' ', '{']).next() {
            if name.starts_with("roleclass_stability_") {
                let base = name
                    .trim_end_matches("_bucket")
                    .trim_end_matches("_sum")
                    .trim_end_matches("_count");
                assert!(
                    STABILITY_METRIC_NAMES.contains(&base),
                    "{base} not declared"
                );
            }
        }
    }
}
