//! Max-flow refinement on top of the engine.
//!
//! The paper's diffusions *find* low-conductance cuts; this module lets
//! a caller *improve* one afterwards. [`Engine::improve`] runs the MQI
//! max-flow refinement of [`lgc_flow`] over any sweep cut, booking it in
//! the engine's `refined` / `refine_improved` counters;
//! [`Engine::try_improve`] runs it under a [`QueryBudget`] whose
//! checkpoint ticks inside the flow solver's phase loop.
//!
//! Refinement is sequential and canonical, so its output is
//! bit-identical across thread counts and storage backends.

use crate::budget::{PartialResult, QueryError};
use crate::engine::Engine;
use crate::result::ClusterResult;
use lgc_flow::RefinedCut;
use lgc_graph::CsrBackend;
use lgc_ligra::QueryBudget;

impl<B: CsrBackend> Engine<'_, B> {
    /// MQI max-flow refinement of a sweep cut: returns a subset of the
    /// result's cluster with conductance ≤ the input's, deterministically
    /// (see [`lgc_flow::improve`]).
    pub fn improve(&self, result: &ClusterResult) -> RefinedCut {
        self.improve_set(&result.cluster)
    }

    /// [`Engine::improve`] on a bare vertex set (any order, duplicates
    /// tolerated) — the analyst-supplied-cut form.
    pub fn improve_set(&self, cluster: &[u32]) -> RefinedCut {
        let refined = lgc_flow::improve(self.graph(), cluster);
        self.core.counters.note_refined(refined.improved());
        refined
    }

    /// The governed form of [`Engine::improve`]: refinement runs under
    /// `budget` (merged over the engine's default), with checkpoint
    /// ticks in the flow solver's phase loop. On a trip the error's
    /// [`PartialResult`] carries the *unrefined* input cut — always
    /// still a valid cluster. A refinement is not a query: a trip books
    /// no query counter, so `admitted = completed + tripped` holds.
    pub fn try_improve(
        &self,
        result: &ClusterResult,
        budget: &QueryBudget,
    ) -> Result<RefinedCut, QueryError> {
        let cp = budget.or(&self.core.default_budget).arm();
        match lgc_flow::improve_guarded(self.graph(), &result.cluster, &cp) {
            Ok(refined) => {
                self.core.counters.note_refined(refined.improved());
                Ok(refined)
            }
            // The typed partial carries the *unrefined* input cut: the
            // caller keeps a valid cluster either way.
            Err(tripped) => Err(QueryError::Tripped(tripped.map(|_| {
                Box::new(PartialResult {
                    diffusion: Some(result.diffusion.clone()),
                    sweep: Some(result.sweep.clone()),
                    stats: result.diffusion.stats,
                })
            }))),
        }
    }
}
