//! Sparse sets for local graph algorithms.
//!
//! Local clustering algorithms only touch the vertices near the seed, so
//! they cannot afford `O(|V|)` dense vectors; the paper stores every
//! diffusion vector in a *sparse set* — a hash table keyed by vertex id
//! where a missing key reads as the zero element `⊥ = 0`.
//!
//! Two implementations, mirroring the paper's §2 "Sparse Sets":
//!
//! * [`SparseVec`] / [`SparseMap`] — sequential open-addressing tables
//!   (the paper uses STL `unordered_map` here; ours uses linear probing
//!   with a strong integer mixer, which is also why the parallel codes run
//!   on one thread can beat the "sequential" baselines, as the paper
//!   observes in §4).
//! * [`ConcurrentSparseVec`] — a lock-free linear probing table in the
//!   style of the *phase-concurrent* hash table of Shun and Blelloch
//!   (SPAA 2014, the paper's \[42\]): keys are claimed with
//!   compare-and-swap and `f64` values accumulate with an atomic
//!   fetch-add, so a batch of `N` inserts/accumulates takes `O(N)` work
//!   and `O(log N)` depth w.h.p.
//!
//! A third, adaptive layer sits on top for the diffusion hot loops:
//!
//! * [`MassMap`] — an adaptive mass vector that starts as a
//!   [`ConcurrentSparseVec`] and upgrades itself to a direct-indexed
//!   dense backend ([`DenseMassVec`]: `n` [`lgc_parallel::AtomicF64`]
//!   mass cells + a touched bitset, enumerated in key order and cleaned
//!   by words in `O(n/64 + support)`) once the caller-declared key bound
//!   crosses a tunable fraction of the vertex universe `n`. It is the one
//!   destination type of `lgc-ligra`'s edge map: every diffusion's
//!   `UpdateNgh` adds into a `MassMap` (the evolving-set process's
//!   `|N(v) ∩ S|` counter too), and the query path's other keyed tables —
//!   the sweep's ranks and rand-HK-PR's destination ids — are `MassMap`s
//!   as well, so [`ConcurrentSparseVec`] is its sparse backend and nothing
//!   else. The edge map's push sums destinations in a [`DenseMassVec`]
//!   too: one dense store type.
//!
//! # Dense/sparse switch heuristic
//!
//! The diffusions declare, at every sequential point, how many keys the
//! next phase may touch (the per-iteration bound `|frontier| +
//! vol(frontier)` from the paper's work theorems). [`MassMap::reset`]
//! and [`MassMap::reserve_more`] compare that bound `b` against
//! `frac · n` (`frac` defaults to
//! [`MassMap::DEFAULT_DENSE_FRACTION`] `= 1/8`, overridable per map via
//! [`MassMap::with_dense_fraction`], and per PR-Nibble run via
//! `PrNibbleParams::dense_frac`):
//!
//! * `b ≥ frac · n` → dense mode: one `O(n)` allocation the first time
//!   (amortized against the `Ω(frac·n)` support that triggered it, then
//!   cached for the map's lifetime), after which every operation is one
//!   indexed atomic with no hashing or probing, and clearing walks only
//!   the touched bits.
//! * `b < frac · n` → sparse mode: the hash table keeps memory
//!   proportional to the bound, which is what keeps strictly-local runs
//!   `o(n)` as the paper requires.
//!
//! `reserve_more` migrates live entries on a sparse → dense upgrade;
//! `reset` just swaps (it empties anyway) and stashes dense buffers on a
//! downgrade so later upgrades are allocation-free.
//!
//! # Phase-concurrency contract
//!
//! The concurrent tables support *one kind* of operation per parallel
//! phase: any number of threads may call `add`/`set` concurrently, or
//! any number may call `get` concurrently, but mixing writers and readers
//! of the *same key set* within a phase yields unspecified (though still
//! memory-safe) snapshots. The clustering algorithms naturally obey this:
//! `edgeMap` accumulates in one phase, the frontier filter reads in the
//! next. Capacity is fixed during a parallel phase; grow only at the
//! sequential points between phases ([`ConcurrentSparseVec::reset`],
//! [`ConcurrentSparseVec::reserve_rehash`]).
//!
//! [`MassMap`] honors the identical contract in both modes — concurrent
//! `add`s accumulate exactly (same CAS fetch-add), `set` races pick one
//! writer, and mode switches happen only inside `reset` /
//! `reserve_more`, which take `&mut self` and are therefore
//! sequential points by construction. Dense mode additionally requires
//! every key to be `< n` (diffusion keys are vertex ids, so this holds
//! by construction).

// Results never depend on hash order, the clock or an unaudited ordering.
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]

mod conc;
mod hash;
mod mass;
mod seq;

pub use conc::ConcurrentSparseVec;
pub use hash::hash_u32;
pub use mass::{DenseMassVec, MassMap};
pub use seq::{SparseMap, SparseVec};

/// Key slot sentinel: vertex ids must be `< u32::MAX`.
pub(crate) const EMPTY: u32 = u32::MAX;
