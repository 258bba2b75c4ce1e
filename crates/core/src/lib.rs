//! Parallel local graph clustering — a Rust reproduction of
//! *"Parallel Local Graph Clustering"* (Shun, Roosta-Khorasani,
//! Fountoulakis, Mahoney; VLDB 2016).
//!
//! Local clustering algorithms find a low-conductance cluster around a
//! seed vertex with work proportional to the size of the cluster, not the
//! graph. This crate provides sequential and work-efficient parallel
//! implementations of the paper's four diffusion processes and its
//! parallel sweep-cut rounding procedure:
//!
//! | Algorithm | Sequential | Parallel | Paper |
//! |---|---|---|---|
//! | Nibble (truncated lazy random walk) | [`nibble_seq`] | [`Algorithm::Nibble`] | §3.2, Thm 2 |
//! | PageRank-Nibble (approximate PPR pushes) | [`prnibble_seq`] | [`Algorithm::PrNibble`] | §3.3, Thm 3 |
//! | Deterministic heat-kernel PageRank | [`hkpr_seq`] | [`Algorithm::Hkpr`] | §3.4, Thm 4 |
//! | Randomized heat-kernel PageRank | [`rand_hkpr_seq`] | [`Algorithm::RandHkpr`] | §3.5, Thm 5 |
//! | Sweep cut | [`sweep_cut_seq`] | [`sweep_cut_par`] | §3.1, Thm 1 |
//!
//! A parallel diffusion has one entry: [`LocalDiffusion::diffuse`] on its
//! [`Algorithm`] variant, over a [`Workspace`] (fresh for a one-shot run),
//! or [`Engine::diffuse`], which keeps the workspaces warm.
//!
//! Each diffusion returns a sparse mass vector `p` ([`Diffusion`]); the
//! sweep cut sorts its support by `p[v]/d(v)` and returns the prefix with
//! minimum conductance ([`SweepCut`]). The one-call convenience wrapper is
//! [`find_cluster`]; query loops should build an [`Engine`] instead — the
//! same pipeline over recyclable [`Workspace`] checkouts, `&self`-queryable
//! from any number of threads, with every algorithm behind [`Algorithm`]'s
//! [`LocalDiffusion`] impl and batch fan-out via [`Engine::run_batch`].
//! Processes serving *several* graphs register them into a [`Service`],
//! which shares one [`lgc_parallel::Pool`] across all of them.
//!
//! How parallel a query runs is decided per iteration, from the work the
//! iteration has: one with `|F| + vol(F)` below
//! [`lgc_ligra::FORK_MIN_WORK`] runs as the one-thread code, a larger one
//! offers its loops to the pool — so a point query costs what the
//! sequential algorithm costs, and a saturating one uses every thread
//! ("The fork policy" on [`lgc_ligra::EdgeSpread`]; no result bit depends
//! on it).
//!
//! ```
//! use lgc_core::{find_cluster, Algorithm, PrNibbleParams, Seed};
//! use lgc_graph::gen;
//! use lgc_parallel::Pool;
//!
//! // Two 12-cliques joined by one edge: the planted cluster is obvious.
//! let g = gen::two_cliques_bridge(12);
//! let pool = Pool::new(2);
//! let result = find_cluster(
//!     &pool,
//!     &g,
//!     &Seed::single(3),
//!     &Algorithm::PrNibble(PrNibbleParams::default()),
//! );
//! let mut cluster = result.cluster.clone();
//! cluster.sort_unstable();
//! assert_eq!(cluster, (0..12).collect::<Vec<u32>>());
//! ```
//!
//! Extensions beyond the paper's core (flagged as such in its text):
//! multi-vertex seeds (footnote 5), the β-fraction PR-Nibble variant
//! (§3.3), the evolving-set process (§5), and network-community-profile
//! generation (§4, Fig. 12).

// The query layer writes shared buffers through `lgc_parallel`'s disjoint
// writes; it needs no unsafe of its own. Keep it that way.
#![forbid(unsafe_code)]
// Results never depend on hash order, the clock or an unaudited ordering.
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]

mod batch;
mod budget;
mod driver;
mod engine;
mod evolving;
mod hkpr;
mod ncp;
mod nibble;
mod prnibble;
mod rand_hkpr;
mod refine;
mod result;
mod seed;
mod service;
mod sweep;
mod workspace;

pub use budget::{InvalidParams, InvalidSeed, LifecycleSnapshot, PartialResult, QueryError};
pub use engine::{Engine, EngineBuilder, LocalDiffusion, Query};
pub use evolving::{evolving_set_par, evolving_set_seq, EvolvingParams, EvolvingResult};
pub use hkpr::{hkpr_seq, psi_table, HkprParams};
pub use ncp::{NcpParams, NcpPoint};
pub use nibble::{nibble_seq, NibbleParams};
pub use prnibble::{prnibble_seq, PrNibbleParams, PushRule};
pub use rand_hkpr::{rand_hkpr_seq, RandHkprParams};
pub use result::{ClusterResult, Diffusion, DiffusionStats};
pub use seed::Seed;
pub use service::{GraphStore, Service, ServiceBuilder, ServiceEngine};
pub use sweep::{sweep_cut_par, sweep_cut_seq, SweepCut};
pub use workspace::{Workspace, WorkspaceBudgetExceeded};

// What `Engine::summary` and `Service::summary` return.
pub use lgc_graph::stats::GraphSummary;

// The direction policy `EngineBuilder::direction` takes, re-exported so
// callers can pin one without a direct lgc-ligra dep.
pub use lgc_ligra::{Direction, DirectionParams};

// A query's limits and how a stopped run ends, which live with the
// cooperative-interrupt machinery that enforces them: `Query.budget` is a
// `QueryBudget` (with its tokens and hooks), `LocalDiffusion`'s guarded
// signature takes the `Checkpoint` one arms, and every stop — a diffusion,
// a refinement, `QueryError::Tripped` — is a `Tripped`.
pub use lgc_ligra::{BoundaryHook, CancelToken, Checkpoint, FaultPlan, QueryBudget, Trip, Tripped};

// The max-flow refinement stage consumed by `Engine::improve`,
// re-exported so umbrella users see one API.
pub use lgc_flow::{RefineStats, RefinedCut};

use lgc_graph::CsrBackend;
use lgc_parallel::Pool;

/// Which diffusion to run (with its parameters).
///
/// `Algorithm` is the one implementor of [`LocalDiffusion`] — this enum is
/// what [`Engine::run`] and [`find_cluster`] dispatch on.
#[derive(Clone, Debug)]
pub enum Algorithm {
    /// Spielman–Teng truncated lazy random walk (§3.2).
    Nibble(NibbleParams),
    /// Andersen–Chung–Lang approximate personalized PageRank (§3.3).
    PrNibble(PrNibbleParams),
    /// Kloster–Gleich deterministic heat-kernel PageRank (§3.4).
    Hkpr(HkprParams),
    /// Chung–Simpson randomized heat-kernel PageRank (§3.5).
    RandHkpr(RandHkprParams),
    /// Andersen–Peres evolving-set process (§5). Selects its cluster
    /// directly (no sweep); see [`ClusterResult::from_evolving`].
    Evolving(EvolvingParams),
}

impl Algorithm {
    /// Whether the parameters are ones the diffusion is defined on:
    /// every `f64` finite (`dense_frac` may be `+∞`, its documented
    /// "never go dense") and in its range, every count at least 1, and
    /// the three counts that size an up-front allocation (`walks`,
    /// `max_len`, `n_levels`) under their documented caps. The engine
    /// calls this at admission, so hostile parameters — a remote
    /// client controls every one of them — end in a typed
    /// [`QueryError::InvalidParams`] instead of a panic mid-query;
    /// [`LocalDiffusion::diffuse`] and the `*_seq` references assert the
    /// same predicates.
    pub fn check(&self) -> Result<(), InvalidParams> {
        match self {
            Algorithm::Nibble(p) => p.check(),
            Algorithm::PrNibble(p) => p.check(),
            Algorithm::Hkpr(p) => p.check(),
            Algorithm::RandHkpr(p) => p.check(),
            Algorithm::Evolving(p) => p.check(),
        }
    }
}

/// Runs the chosen diffusion from `seed` and rounds with the parallel
/// sweep cut — the full pipeline of the paper, in one call.
///
/// With a 1-thread [`Pool`] every stage runs sequentially (the paper's
/// `T1` configuration); with more threads every stage with enough work to
/// be worth a fork is parallel ([`lgc_ligra::FORK_MIN_WORK`]). This
/// is the one-shot form of [`Engine::run`]: same code path, but scratch
/// state is allocated fresh and dropped. Query loops should build an
/// [`Engine`] instead and let its [`Workspace`] amortize the allocations.
pub fn find_cluster<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    algo: &Algorithm,
) -> ClusterResult {
    let ws = &mut Workspace::new();
    engine::try_run_query(pool, g, ws, seed, algo, &Checkpoint::unlimited())
        .unwrap_or_else(|_| unreachable!("an unlimited checkpoint never trips"))
}
