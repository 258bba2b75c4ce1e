//! Graph substrate for parallel local graph clustering.
//!
//! Provides the compressed-sparse-row [`Graph`] the algorithms traverse,
//! a cleaning [`GraphBuilder`] (symmetrize, dedup, strip self-loops —
//! the paper's §4 preprocessing), conductance/volume utilities (§2),
//! the largest connected component for seed selection, text I/O compatible with
//! Ligra's `AdjacencyGraph` format, and the synthetic generator suite
//! standing in for the paper's evaluation graphs (see [`gen`]).

pub mod backend;
mod components;
mod csr;
pub mod gen;
mod induced;
pub mod io;
pub mod stats;

pub use backend::{CsrBackend, CsrCompressed};
pub use components::largest_component;
pub use csr::{Graph, GraphBuilder};
pub use induced::{induced_cut_subgraph, CutSubgraph};
