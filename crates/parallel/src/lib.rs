//! Work-depth parallel primitives for local graph clustering.
//!
//! The paper ("Parallel Local Graph Clustering", Shun et al., VLDB 2016)
//! builds its algorithms out of a small set of classic parallel primitives
//! from the Problem Based Benchmark Suite: **prefix sums**, **filter**,
//! **comparison sorting**, and **integer sorting**, executed on a Cilk-style
//! fork-join runtime. This crate reproduces that substrate:
//!
//! * [`Pool`] — a fixed-size thread pool executing dynamically-chunked
//!   parallel loops ([`Pool::run`], [`Pool::for_each_index`]). A pool with
//!   one thread degenerates to plain sequential execution with zero
//!   synchronization, which is how the `T1` columns of the paper's tables
//!   are measured. A loop that fills parts of one buffer takes the part
//!   it owns as a `&mut` slice: [`Pool::for_each_chunk_mut`] cuts the
//!   buffer at a fixed grain, [`Pool::map_ranges_mut`] at ascending cut
//!   points, on top of the first. The first holds the crate's one
//!   `unsafe` split; every primitive below that builds an output buffer
//!   (initialised before the loop) writes it through these two.
//! * [`scan_inclusive`] / [`scan_exclusive`] — prefix sums over an arbitrary
//!   associative operator (the paper needs `+` and `min`).
//! * [`filter`] / [`filter_map_index`] — stable parallel filtering.
//! * [`merge_sort_by`] — a stable parallel comparison sort using co-ranked
//!   parallel merges (`O(N log N)` work, polylog depth).
//! * [`counting_sort_by_key`] — a stable parallel integer sort for bounded
//!   keys (`O(N + K)` work), used by the randomized heat-kernel
//!   aggregation (Theorem 5).
//! * [`AtomicF64`] — the atomic `fetchAdd` on doubles that the paper's
//!   `edgeMap` update functions rely on — every mass cell is one.
//! * [`Bitset`] — a fixed-universe bitset with parallel construction from
//!   (and enumeration back to) sorted id lists; the dense frontier
//!   representation behind the direction-optimizing `edgeMap`; [`ones`]
//!   walks the members in one of its words.
//!
//! The primitives with a one-pass sequential form (filter, scan, both
//! sorts, [`max_by`]) take it below 8192 elements — the crate's one cutoff
//! — or when the pool has no thread to lend them ([`Pool::can_fork`]: a
//! single-thread pool, or one whose width the callers already fill), so
//! they are safe to use at any problem size and beside any other query.

// Results never depend on hash order, the clock or an unaudited ordering.
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]

mod atomic;
mod bitset;
mod filter;
mod intsort;
mod map;
mod pool;
mod scan;
mod sort;

pub use atomic::AtomicF64;
pub use bitset::{ones, Bitset};
pub use filter::{filter, filter_map_index};
pub use intsort::counting_sort_by_key;
pub use map::{map_chunks, map_index, max_by, sum_f64_by_index};
pub use pool::{Caller, Pool, PoolStats};
pub use scan::{scan_exclusive, scan_inclusive};
pub use sort::merge_sort_by;

/// Picks a chunk grain so that each thread receives several chunks
/// (for dynamic load balancing) while chunks stay large enough to
/// amortize scheduling overhead.
pub(crate) fn default_grain(len: usize, threads: usize) -> usize {
    let target_chunks = threads.max(1) * 8;
    (len / target_chunks).max(1024)
}
