//! Workspace-wide lint over the declared metric and event names: every
//! layer's `*_METRIC_NAMES` / `*_EVENT_NAMES` list must be unique,
//! snake_case, and prefixed with `roleclass_<layer>_` (DESIGN.md §7's
//! naming convention).

use role_classification::aggregator::{
    AGGREGATOR_EVENT_NAMES, AGGREGATOR_METRIC_NAMES, STORAGE_EVENT_NAMES, STORAGE_METRIC_NAMES,
    TRANSPORT_EVENT_NAMES, TRANSPORT_METRIC_NAMES,
};
use role_classification::flow::FLOW_METRIC_NAMES;
use role_classification::netgraph::KERNEL_METRIC_NAMES;
use role_classification::roleclass::{
    ENGINE_EVENT_NAMES, ENGINE_METRIC_NAMES, STABILITY_EVENT_NAMES, STABILITY_METRIC_NAMES,
};
use role_classification::telemetry::PROFILE_METRIC_NAMES;
use std::collections::BTreeSet;

fn layers() -> [(&'static str, &'static [&'static str]); 8] {
    [
        ("roleclass_flow_", FLOW_METRIC_NAMES),
        ("roleclass_kernel_", KERNEL_METRIC_NAMES),
        ("roleclass_engine_", ENGINE_METRIC_NAMES),
        ("roleclass_aggregator_", AGGREGATOR_METRIC_NAMES),
        ("roleclass_stability_", STABILITY_METRIC_NAMES),
        ("roleclass_transport_", TRANSPORT_METRIC_NAMES),
        ("roleclass_storage_", STORAGE_METRIC_NAMES),
        ("roleclass_profile_", PROFILE_METRIC_NAMES),
    ]
}

fn event_layers() -> [(&'static str, &'static [&'static str]); 5] {
    [
        ("roleclass_engine_", ENGINE_EVENT_NAMES),
        ("roleclass_aggregator_", AGGREGATOR_EVENT_NAMES),
        ("roleclass_stability_", STABILITY_EVENT_NAMES),
        ("roleclass_transport_", TRANSPORT_EVENT_NAMES),
        ("roleclass_storage_", STORAGE_EVENT_NAMES),
    ]
}

/// Every declared name, metric or event, across every layer.
fn all_declarations() -> Vec<(&'static str, &'static [&'static str])> {
    layers().into_iter().chain(event_layers()).collect()
}

#[test]
fn metric_and_event_names_are_unique_across_layers() {
    // Metrics and events share one namespace: an event named after a
    // metric would make journal greps and dashboards ambiguous.
    let mut seen = BTreeSet::new();
    for (_, names) in all_declarations() {
        for name in names {
            assert!(seen.insert(*name), "duplicate declared name {name}");
        }
    }
    assert!(!seen.is_empty());
}

#[test]
fn metric_names_are_snake_case_and_layer_prefixed() {
    for (prefix, names) in all_declarations() {
        assert!(!names.is_empty(), "layer {prefix} declares no names");
        for name in names {
            assert!(
                name.starts_with(prefix),
                "{name} must start with its layer prefix {prefix}"
            );
            let mut chars = name.chars();
            let first = chars.next().unwrap();
            assert!(
                first.is_ascii_lowercase(),
                "{name} must start with a lowercase letter"
            );
            assert!(
                chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{name} must match [a-z][a-z0-9_]*"
            );
            assert!(!name.contains("__"), "{name} has a double underscore");
            assert!(!name.ends_with('_'), "{name} ends with an underscore");
        }
    }
}

#[test]
fn metric_name_lists_are_sorted() {
    // Sorted lists keep the declarations greppable and diffs minimal.
    for (_, names) in all_declarations() {
        let mut sorted = names.to_vec();
        sorted.sort_unstable();
        assert_eq!(names, sorted.as_slice());
    }
}

#[test]
fn unit_cost_denominators_are_declared_cumulative_counters() {
    // Each `roleclass_profile_*_ns_per_*` series divides a stage's time
    // by the per-cycle delta of a work counter. A gauge there (one that a
    // later phase overwrites, as kernel compaction does to
    // `roleclass_kernel_base_pairs`) would make the ratio meaningless, so
    // every denominator must be a declared `_total` counter.
    let declared: BTreeSet<&str> = layers()
        .into_iter()
        .flat_map(|(_, names)| names.iter().copied())
        .collect();
    for (series, denominator) in [
        (
            "roleclass_profile_correlate_ns_per_candidate",
            "roleclass_engine_correlate_candidates_total",
        ),
        (
            "roleclass_profile_correlate_ns_per_eval",
            "roleclass_engine_correlate_similarity_evals_total",
        ),
        (
            "roleclass_profile_merge_ns_per_pop",
            "roleclass_engine_merge_heap_pops_total",
        ),
        (
            "roleclass_profile_kernel_ns_per_pair",
            "roleclass_kernel_base_pairs_emitted_total",
        ),
    ] {
        assert!(PROFILE_METRIC_NAMES.contains(&series), "{series}");
        assert!(declared.contains(denominator), "{denominator} undeclared");
        assert!(denominator.ends_with("_total"), "{denominator}");
    }
}
