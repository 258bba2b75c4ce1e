//! The one frontier loop: §2's `while (F ≠ ∅) { vertexMap; edgeMap;
//! filter }`, which PR-Nibble, HK-PR, Nibble and the evolving-set process
//! each run their iteration body on. What every iteration does around the
//! body is written here once.

use crate::result::DiffusionStats;
use lgc_graph::CsrBackend;
use lgc_ligra::{lane, Checkpoint, Trip, VertexSubset};
use lgc_parallel::Pool;

/// Runs `iteration` while `frontier` is non-empty, at most
/// `max_iterations` times, until `iteration` returns `false` or `cp` trips.
///
/// Before each iteration: ticks `cp` with the pushes and edges so far,
/// counts the iteration, measures `k = |F|` and `vol = vol(F)`, charges
/// both to the stats, and asks the fork policy for the iteration's lane.
/// `iteration(lane, k, vol, frontier)` then runs on that lane and leaves the
/// next frontier in `frontier`.
///
/// Returns the stats (`iterations`, `pushes`, `pushed_volume`,
/// `edges_traversed`) and the trip that stopped the loop, if one did. A
/// trip stops it at an iteration boundary, so the caller's stores hold the
/// last completed iteration.
pub(crate) fn drive<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    cp: &Checkpoint,
    max_iterations: usize,
    frontier: &mut VertexSubset,
    mut iteration: impl FnMut(&Pool, usize, usize, &mut VertexSubset) -> bool,
) -> (DiffusionStats, Option<Trip>) {
    let mut stats = DiffusionStats::default();
    let mut left = max_iterations;
    while left > 0 && !frontier.is_empty() {
        if let Err(trip) = cp.tick(stats.pushes, stats.edges_traversed) {
            return (stats, Some(trip));
        }
        left -= 1;
        stats.iterations += 1;
        let (k, vol) = (frontier.len(), frontier.volume(g));
        stats.pushes += k as u64;
        stats.pushed_volume += vol as u64;
        stats.edges_traversed += vol as u64;
        if !iteration(lane(pool, k, vol), k, vol, frontier) {
            break;
        }
    }
    (stats, None)
}
