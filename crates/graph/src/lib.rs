//! Graph substrate for parallel local graph clustering.
//!
//! Provides the compressed-sparse-row [`Graph`] the algorithms traverse
//! and its byte-coded twin [`CsrCompressed`], both behind the
//! [`CsrBackend`] access trait; a cleaning [`GraphBuilder`] (symmetrize,
//! dedup, strip self-loops — the paper's §4 preprocessing); the §2 set
//! queries `vol(S)`, `|∂(S)|` and `φ(S)`, which are [`CsrBackend`]'s
//! provided methods (import the trait to call them on a [`Graph`]) over
//! the one conductance formula [`cut_conductance`]; the cut bookkeeping
//! flow refinement builds on ([`induced_cut_subgraph`]); the largest
//! connected component for seed selection; the [`stats::GraphSummary`]
//! an introspection endpoint reports; text I/O compatible with SNAP edge
//! lists and Ligra's `AdjacencyGraph` format, the route for the paper's
//! inputs; and the synthetic generator suite standing in for the paper's
//! evaluation graphs (see [`gen`]).

// Results never depend on hash order, the clock or an unaudited ordering.
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod backend;
mod components;
mod csr;
pub mod gen;
mod induced;
pub mod io;
pub mod stats;

pub use backend::{cut_conductance, CsrBackend, CsrCompressed};
pub use components::largest_component;
pub use csr::{Graph, GraphBuilder};
pub use induced::{induced_cut_subgraph, CutSubgraph};
