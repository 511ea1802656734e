//! Typed engine configuration: the algorithm parameters plus the one
//! execution knob, as plain data.
//!
//! [`EngineConfig`] replaces the environment-variable knobs that used to
//! be read deep inside the libraries (`ROLECLASS_THREADS` in the kernel)
//! with explicit configuration resolved at the edge: binaries parse
//! their flags/env once, build a config, and hand it to
//! [`Engine::from_config`][crate::Engine::from_config] or the
//! aggregator. Libraries below this type never touch `std::env`.
//!
//! The worker count is a *determinism-free* knob: every parallel path
//! in the pipeline (kernel counting, merge scoring) reduces worker
//! output in a fixed order with exact integer or per-pair-pure
//! arithmetic, so any worker count produces bit-identical groupings and
//! correlation ids. `0` means "use the machine's parallelism".

use crate::params::{ParamError, Params};
use netgraph::MAX_WORKERS;

/// Configuration carried by [`Engine`][crate::Engine] and the
/// aggregator pipeline: algorithm parameters plus the worker count.
///
/// The `Default` value matches the paper's parameters on one
/// auto-sized worker pool. Telemetry attaches to the engine or the
/// aggregator that runs this config, not to the config itself.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineConfig {
    /// Algorithm parameters (α, β, thresholds, variants).
    pub params: Params,
    /// Worker threads for the common-neighbor kernel build and
    /// merge-phase similarity scoring; `0` sizes from the machine.
    /// Output is bit-identical at any value.
    pub workers: usize,
}

impl EngineConfig {
    /// A config with the given parameters and an auto-sized worker pool.
    pub fn new(params: Params) -> Self {
        EngineConfig { params, workers: 0 }
    }

    /// Builder-style setter for the worker count (`0` = auto).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The worker count to actually run with: the configured count, or
    /// the machine's parallelism for `0`, clamped to `[1, MAX_WORKERS]`
    /// so kernel counting and merge scoring share one thread bound.
    pub fn resolved_workers(&self) -> usize {
        match self.workers {
            0 => netgraph::default_worker_count(),
            n => n,
        }
        .clamp(1, MAX_WORKERS)
    }

    /// Validates the algorithm parameters (the worker count has no
    /// invalid values: `0` means auto and anything else is a count).
    pub fn validate(&self) -> Result<(), ParamError> {
        self.params.validate()
    }
}

impl From<Params> for EngineConfig {
    fn from(params: Params) -> Self {
        EngineConfig::new(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_auto_everything() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg.params, Params::default());
        assert_eq!(cfg.workers, 0);
        assert!(cfg.resolved_workers() >= 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn builders_chain() {
        let cfg = EngineConfig::new(Params::default().with_k_hi(3)).with_workers(4);
        assert_eq!(cfg.params.k_hi, 3);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.resolved_workers(), 4);
    }

    #[test]
    fn resolved_workers_clamps_to_the_shared_cap() {
        // Pure arithmetic: resolving a count spawns nothing.
        let resolved = |n| EngineConfig::default().with_workers(n).resolved_workers();
        assert_eq!(MAX_WORKERS, 64);
        assert_eq!(resolved(10_000), 64);
        assert_eq!(resolved(65), 64);
        assert_eq!(resolved(64), 64);
        assert_eq!(resolved(1), 1);
        assert!((1..=64).contains(&resolved(0)));
    }

    #[test]
    fn invalid_params_fail_validation() {
        let cfg = EngineConfig::new(Params {
            alpha: 2.0,
            ..Params::default()
        });
        assert!(cfg.validate().is_err());
    }
}
