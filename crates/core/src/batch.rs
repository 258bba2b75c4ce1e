//! Inter-query parallelism — the baseline the paper argues *against*.
//!
//! §1: "A straightforward way to use parallelism is to run many local
//! graph computations independently in parallel, and this can be useful
//! for certain applications. However, since all of the local algorithms
//! have many input parameters ... it may be hard to know a priori how to
//! set the input parameters for the multiple independent computations."
//!
//! This module provides that straightforward mode, generalized to *any*
//! algorithm: [`Engine::run_batch`] fans a list of [`Query`]s (any mix of
//! the five diffusions) across the pool's threads. Each worker chunk
//! holds a private [`Workspace`](crate::Workspace) recycled from query to
//! query, and runs every query through the engine's one executor — the
//! path [`Engine::run`] takes — on a single-threaded pool, so a batch
//! item is **bit-identical to a 1-thread engine run of the same query**,
//! and the whole batch is deterministic and thread-count independent.
//! Items are ungoverned, as in [`Engine::run`]: never shed, never
//! budgeted. The governed path is [`Engine::try_run`], one query at a
//! time.
//! Users with embarrassingly-many queries (e.g. NCP-style scans with
//! known parameters — [`Engine::ncp`] is one) saturate their machine
//! this way, while interactive single-query workloads use the paper's
//! intra-query parallel algorithms; the two modes compose the same
//! primitives, so comparing them quantifies the paper's §1 trade-off on
//! real hardware.
//!
//! The two modes also meet without a batch: independent threads that
//! each call [`Engine::run`] on one shared pool. The pool's width is one
//! budget for both — every query counts its thread against it
//! ([`Pool::enter`]), and a loop forks only onto threads no query
//! occupies — so a lone query gets the intra-query parallelism and as
//! many concurrent queries as the pool is wide get the inter-query
//! kind, one thread each, without either waiting for the other.

use crate::budget::QueryError;
use crate::engine::{Admission, Engine, Query};
use crate::result::ClusterResult;
use lgc_graph::CsrBackend;
use lgc_parallel::Pool;

impl<B: CsrBackend> Engine<'_, B> {
    /// Runs many independent queries — any mix of algorithms — fanned
    /// across the pool's threads, each worker chunk checking a private
    /// workspace out of the engine's pool, so a stream of small batches
    /// reuses warm workspaces *across* calls (`benchmark/` reports the
    /// difference as `core.engine.cold_over_warm`).
    ///
    /// Results are position-aligned with `queries` and bit-identical to
    /// running each query alone on a 1-thread engine (workspace recycling
    /// is observationally invisible — see the workspace-reuse
    /// proptests), so the output does not depend on the thread count.
    /// Like [`Engine::run`], every item bypasses admission and ignores
    /// its budget.
    ///
    /// # Panics
    /// As [`Engine::run`], for any item.
    pub fn run_batch(&self, queries: &[Query]) -> Vec<ClusterResult> {
        let n = queries.len();
        let mut out: Vec<Option<Result<ClusterResult, QueryError>>> =
            (0..n).map(|_| None).collect();
        let pool = self.pool();
        // The fan-out is this thread's query; its items enter their own
        // workerless sub-pools, which counts nothing.
        let _caller = pool.enter();
        let workspaces = &self.core.workspaces;
        // Chunks big enough that each worker's workspace amortizes over
        // several queries, small enough to load-balance uneven queries.
        let grain = n.div_ceil(pool.num_threads() * 4).max(1);
        pool.for_each_chunk_mut(&mut out, grain, |s, results| {
            // Per-worker-chunk state: the workerless pool as the items'
            // sub-pool, plus a workspace recycled across the chunk's
            // queries (lock held only at the chunk boundary; over budget,
            // a transient one).
            let sub = Pool::solo();
            let mut ws = workspaces.checkout();
            for (result, query) in results.iter_mut().zip(&queries[s..]) {
                *result = Some(self.execute(sub, Some(&mut ws), query, Admission::Bypass));
            }
            workspaces.restore(ws, &self.core.counters);
        });
        // Panic on the calling thread, once every item has run.
        out.into_iter()
            .map(|r| {
                r.expect("every query executed")
                    .unwrap_or_else(|e| panic!("Engine::run_batch: {e}"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Algorithm, EvolvingParams, HkprParams, NibbleParams, PrNibbleParams, RandHkprParams, Seed,
    };
    use lgc_graph::gen;

    fn run_batch<B: CsrBackend>(threads: usize, g: &B, qs: &[Query]) -> Vec<ClusterResult> {
        Engine::builder(g).threads(threads).build().run_batch(qs)
    }

    fn queries(n: u32) -> Vec<Query> {
        (0..n)
            .map(|i| {
                let seed = Seed::single(i * 7 % 160);
                // Cycle through all five algorithms — batch execution is
                // algorithm-generic now.
                let algo = match i % 5 {
                    0 => Algorithm::PrNibble(PrNibbleParams {
                        alpha: 0.05,
                        eps: 1e-6,
                        ..Default::default()
                    }),
                    1 => Algorithm::Nibble(NibbleParams {
                        t_max: 10,
                        eps: 1e-6,
                    }),
                    2 => Algorithm::Hkpr(HkprParams {
                        t: 4.0,
                        n_levels: 8,
                        eps: 1e-5,
                    }),
                    3 => Algorithm::RandHkpr(RandHkprParams {
                        walks: 2_000,
                        rng_seed: i as u64,
                        ..Default::default()
                    }),
                    _ => Algorithm::Evolving(EvolvingParams {
                        max_steps: 15,
                        rng_seed: i as u64,
                        ..Default::default()
                    }),
                };
                Query::new(seed, algo)
            })
            .collect()
    }

    /// The batch contract: each item is bit-identical to running its
    /// query alone on a single-threaded engine.
    #[test]
    fn batch_matches_individual_one_thread_engine_runs() {
        let (g, _) = gen::sbm(&[40, 40, 40, 40], 0.3, 0.01, 8);
        let qs = queries(10);
        let batch = run_batch(2, &g, &qs);
        assert_eq!(batch.len(), 10);
        let engine = Engine::builder(&g).threads(1).build();
        for (q, got) in qs.iter().zip(&batch) {
            let want = engine.run(q);
            assert_eq!(got.cluster, want.cluster, "{:?}", q.algo);
            assert_eq!(got.conductance, want.conductance);
            assert_eq!(got.diffusion.p, want.diffusion.p);
            assert_eq!(got.diffusion.stats, want.diffusion.stats);
        }
    }

    #[test]
    fn batch_is_thread_count_independent() {
        let g = gen::rand_local(500, 5, 4);
        let qs = queries(9);
        let base = run_batch(1, &g, &qs);
        for threads in [2, 4] {
            let got = run_batch(threads, &g, &qs);
            for (a, b) in base.iter().zip(&got) {
                assert_eq!(a.cluster, b.cluster, "threads={threads}");
                assert_eq!(a.conductance, b.conductance);
                assert_eq!(a.diffusion.p, b.diffusion.p);
            }
        }
    }

    #[test]
    fn empty_batch() {
        let g = gen::cycle(10);
        assert!(run_batch(2, &g, &[]).is_empty());
    }
}
