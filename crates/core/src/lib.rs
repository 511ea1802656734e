//! Role classification of hosts from connection patterns.
//!
//! A from-scratch implementation of the two algorithms of *"Role
//! Classification of Hosts within Enterprise Networks Based on Connection
//! Patterns"* (Tan, Poletto, Guttag, Kaashoek — USENIX ATC 2003):
//!
//! * the **grouping algorithm** ([`try_classify()`][classify::try_classify]) — partitions a
//!   network's hosts into role groups from nothing but their connection
//!   sets, in two phases: BCC-based [`formation`] over the
//!   k-neighborhood graph, then similarity-gated [`merging`];
//! * the **correlation algorithm** ([`try_correlate()`][correlate::try_correlate]) — matches the
//!   group ids of two runs taken at different times so that stable
//!   logical roles keep stable ids through host arrivals, removals, role
//!   swaps, and server replacement.
//!
//! For long-running pipelines, the [`engine`] module wraps both
//! algorithms behind a reusable [`Engine`](engine::Engine): parameters
//! are validated once at construction (every entry point also has a
//! fallible `try_*` twin returning [`ParamError`]), the phases are
//! staged (`form → merge → correlate_with`), and cross-window state is
//! retained so successive windows keep stable group ids. Execution
//! knobs — worker counts, kernel pruning, recorder attachment — live in
//! the typed [`EngineConfig`](config::EngineConfig), built at the edge
//! and passed to [`Engine::from_config`](engine::Engine::from_config);
//! nothing in this crate reads environment variables.
//!
//! Supporting modules: [`params`] (all tunables, with the paper's
//! defaults), [`group`] (partition types), [`diff`] (partition change
//! reports, the paper's property 4), [`services`] (the
//! port/protocol-aware refinement sketched in the paper's Sections 2
//! and 8), and [`stability`] (cross-window persistence/backbone/churn
//! scoring over the published group ids).
//!
//! # Quick start
//!
//! ```
//! use flow::ConnectionSets;
//! use roleclass::{try_classify, Params};
//!
//! // Two workstations that talk to the same two servers...
//! let mut cs = ConnectionSets::new();
//! for ws in [10u32, 11] {
//!     for srv in [1u32, 2] {
//!         cs.add_pair(flow::HostAddr::v4(ws), flow::HostAddr::v4(srv));
//!     }
//! }
//! let result = try_classify(&cs, &Params::default()).expect("valid params");
//! // ...end up in the same role group.
//! assert_eq!(
//!     result.grouping.group_of(flow::HostAddr::v4(10)),
//!     result.grouping.group_of(flow::HostAddr::v4(11)),
//! );
//! ```

pub mod autotune;
pub mod classify;
pub mod config;
pub mod correlate;
pub mod diff;
pub mod engine;
pub mod formation;
pub mod group;
pub mod merging;
pub mod model;
pub mod params;
pub mod services;
pub mod stability;

pub use autotune::{auto_k_hi_kcore, auto_k_hi_otsu, auto_params};
pub use classify::{try_classify, Classification, GroupNeighborhood};
pub use config::{EngineConfig, PruneMode};
pub use correlate::{apply_correlation, try_correlate, Correlation};
pub use diff::{diff_groupings, GroupingDiff};
pub use engine::{
    Engine, EngineSnapshot, Formed, Merged, WindowOutcome, ENGINE_EVENT_NAMES, ENGINE_METRIC_NAMES,
};
pub use formation::{
    form_groups_reference, try_form_groups, FormationEvent, FormationKind, FormationResult,
};
pub use group::{Group, GroupId, Grouping};
pub use merging::{try_merge_groups, MergeEvent, MergeOutcome};
pub use model::{avg_similarity, avg_similarity_violations, s_min_violations, similarity};
pub use params::{ParamError, Params, SimilarityVariant, TieBreak};
pub use stability::{
    GroupStability, HostChurn, StabilityTracker, WindowStability, DEFAULT_CHURN_HORIZON,
    STABILITY_EVENT_NAMES, STABILITY_METRIC_NAMES,
};

/// One-stop imports for typical pipeline code.
///
/// ```
/// use roleclass::prelude::*;
/// ```
///
/// brings in the [`Engine`], its stage types and [`EngineConfig`], the
/// fallible (`try_*`) classification functions, and the
/// parameter/result types they exchange.
pub mod prelude {
    pub use crate::classify::{try_classify, Classification, GroupNeighborhood};
    pub use crate::config::{EngineConfig, PruneMode};
    pub use crate::correlate::{apply_correlation, try_correlate, Correlation};
    pub use crate::engine::{Engine, EngineSnapshot, Formed, Merged, WindowOutcome};
    pub use crate::formation::{try_form_groups, FormationResult};
    pub use crate::group::{Group, GroupId, Grouping};
    pub use crate::merging::{try_merge_groups, MergeOutcome};
    pub use crate::params::{ParamError, Params, SimilarityVariant, TieBreak};
    pub use crate::stability::{GroupStability, HostChurn, StabilityTracker, WindowStability};
}
