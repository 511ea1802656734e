//! Compact undirected graph substrate for network-structure analysis.
//!
//! This crate provides the graph machinery required by the role
//! classification algorithms of Tan et al. (USENIX 2003):
//!
//! * [`WGraph`] — a mutable, weighted, undirected graph with stable node
//!   ids, node removal, and *node contraction* (collapsing a set of nodes
//!   into a single replacement node, as the grouping algorithm does when
//!   it turns a biconnected component into a group node).
//! * [`SimpleGraph`] — an immutable, unweighted adjacency snapshot built
//!   from an edge list; the algorithms below run on it.
//! * [`bcc`] — biconnected components, articulation points and bridges
//!   (iterative Hopcroft–Tarjan, no recursion, safe for deep graphs).
//! * [`components`] — connected components.
//! * [`common`] — common-neighbor counting (the *neighborhood graph* of
//!   the paper), implemented by enumerating two-paths so the cost is
//!   `Σ deg(v)²` rather than `|V|²`.
//! * [`kernel`] — the [`CommonNeighborKernel`]: the same counts computed
//!   **once** in parallel, served per similarity level by thresholding,
//!   and maintained incrementally through graph contractions.
//! * [`unionfind`] — a union-find used by components and by callers.
//!
//! The crate is dependency-light by design and written from scratch; it
//! is not a general-purpose graph library, but it is a complete one for
//! the connection-pattern analyses in this workspace.

pub mod bcc;
pub mod common;
pub mod components;
pub mod id;
pub mod kcore;
pub mod kernel;
pub mod simple;
pub mod unionfind;
pub mod wgraph;

pub use bcc::{articulation_points, biconnected_components, bridges, Bcc};
pub use common::{
    common_neighbor_counts, common_neighbor_counts_filtered, common_neighbor_counts_sorted,
    common_neighbor_min_weights, CommonNeighborEdge,
};
pub use components::{connected_components, largest_component};
pub use id::NodeId;
pub use kcore::{core_numbers, degeneracy, k_core};
pub use kernel::{
    default_worker_count, CommonNeighborKernel, KernelMetrics, NodeBitSet, KERNEL_METRIC_NAMES,
    MAX_WORKERS,
};
pub use simple::SimpleGraph;
pub use unionfind::UnionFind;
pub use wgraph::WGraph;
