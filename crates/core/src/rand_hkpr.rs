//! Randomized heat-kernel PageRank — Chung & Simpson's Monte-Carlo
//! estimator (§3.5).
//!
//! Run `N` lazy-free random walks from the seed whose lengths follow a
//! Poisson(`t`) truncated at `K`; the empirical distribution of the
//! walks' final vertices estimates the heat-kernel vector.
//!
//! Parallelization is embarrassing — all walks are independent — but the
//! paper found the naive "fetch-and-add a shared counter per destination"
//! scheme bottlenecked on memory contention (many walks end on the same
//! few vertices). Its fix, reproduced here: write each walk's destination
//! into a length-`N` array, remap destinations to compact ids with a
//! concurrent sparse set (a [`MassMap`], dense once `N ≥ n/8`), *integer
//! sort* the ids, and read off the counts from the run boundaries
//! (Theorem 5: `O(N·K)` work, `O(K + log N)` depth). Each walk derives
//! its own RNG from the master seed, so the sequential and parallel
//! versions produce *identical* vectors.

use crate::budget::InvalidParams;
use crate::result::{Diffusion, DiffusionStats};
use crate::seed::Seed;
use crate::workspace::Workspace;
use lgc_graph::CsrBackend;
use lgc_ligra::{lane, Checkpoint, Tripped};
use lgc_parallel::{counting_sort_by_key, fill_with_index, filter_map_index, map_index, Pool};
use lgc_sparse::{MassMap, SparseVec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters for randomized heat-kernel PageRank.
#[derive(Clone, Copy, Debug)]
pub struct RandHkprParams {
    /// Diffusion time `t` (Poisson mean of the walk length).
    pub t: f64,
    /// Maximum walk length `K` (longer draws are truncated to `K`), at
    /// most 2¹⁶: it sizes the length-CDF table.
    pub max_len: usize,
    /// Number of random walks `N`, at most 2²⁷ (the paper's `10⁸` fits):
    /// it sizes the walk-destination array, 8 bytes per walk.
    pub walks: usize,
    /// Master RNG seed (each walk uses an independent stream derived
    /// from it, making runs reproducible and thread-count independent).
    pub rng_seed: u64,
}

impl Default for RandHkprParams {
    /// The paper's Table 3 setting scaled to laptop size: `t = 10`,
    /// `K = 10`; the paper uses `N = 10⁸` walks, we default to `10⁵`.
    fn default() -> Self {
        RandHkprParams {
            t: 10.0,
            max_len: 10,
            walks: 100_000,
            rng_seed: 42,
        }
    }
}

/// Caps on the two counts that size an allocation before the first
/// checkpoint tick — a remote client controls both, and no budget can
/// trip on memory that is reserved up front.
const MAX_WALKS: usize = 1 << 27;
const MAX_WALK_LEN: usize = 1 << 16;

impl RandHkprParams {
    pub(crate) fn check(&self) -> Result<(), InvalidParams> {
        let require = InvalidParams::require;
        InvalidParams::positive(self.t, "t")?;
        require(self.walks >= 1, "walks", "must be at least 1")?;
        require(self.walks <= MAX_WALKS, "walks", "must be at most 2^27")?;
        require(
            self.max_len <= MAX_WALK_LEN,
            "max_len",
            "must be at most 2^16",
        )
    }

    fn validate(&self) {
        self.check().expect("RandHkprParams");
    }

    /// CDF of the truncated Poisson(`t`) walk-length distribution:
    /// `P(len = k) = e^{−t}·t^k/k!` for `k < K`, remainder at `K`.
    fn length_cdf(&self) -> Vec<f64> {
        let mut cdf = Vec::with_capacity(self.max_len + 1);
        let mut pmf = (-self.t).exp(); // k = 0
        let mut acc = 0.0;
        for k in 0..self.max_len {
            acc += pmf;
            cdf.push(acc.min(1.0));
            pmf *= self.t / (k + 1) as f64;
        }
        cdf.push(1.0); // truncation bucket at K
        cdf
    }
}

/// Raw draws buffered per walk block (the whole truncated length in one
/// refill for the paper's `K = 10` defaults).
const WALK_RNG_BLOCK: usize = 16;

/// Unbiased index in `[0, span)` from a pre-drawn raw value (Lemire
/// multiply-shift); the rare rejection falls back to fresh draws.
#[inline]
fn pick_below(mut raw: u64, rng: &mut StdRng, span: u64) -> u64 {
    debug_assert!(span > 0);
    // No checkpoint tick: Lemire's rejection loop retries with probability
    // < 2^-32 per draw; it is not a frontier loop.
    loop {
        let m = (raw as u128).wrapping_mul(span as u128);
        if (m as u64) >= span.wrapping_neg() % span {
            return (m >> 64) as u64;
        }
        raw = rng.next_u64();
    }
}

/// One walk: derives its RNG from `(master_seed, walk_index)`, samples a
/// length from `cdf`, walks uniformly over neighbors. Returns the final
/// vertex and the number of steps taken.
///
/// The per-step randomness is drawn in blocks ([`Rng::fill_u64`], one
/// refill per [`WALK_RNG_BLOCK`] steps) instead of one generator call per
/// step, which keeps the generator state hot in registers across the
/// block — the walk loop's only memory traffic is then the adjacency
/// lookups themselves. Sequential and parallel callers share this
/// function, so the two remain destination-for-destination identical.
fn run_walk<B: CsrBackend>(
    g: &B,
    seed: &Seed,
    cdf: &[f64],
    master_seed: u64,
    i: usize,
) -> (u32, u32) {
    let mut rng =
        StdRng::seed_from_u64(master_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let starts = seed.vertices();
    let mut v = starts[if starts.len() == 1 {
        0
    } else {
        rng.gen_range(0..starts.len())
    }];
    let u: f64 = rng.gen();
    let len = cdf.partition_point(|&c| c < u);
    let mut steps = 0u32;
    let mut buf = [0u64; WALK_RNG_BLOCK];
    let mut remaining = len;
    // No checkpoint tick: one walk of pre-sampled truncated length (K
    // steps); `rand_hkpr_par` ticks once per block of walks.
    'walk: while remaining > 0 {
        let take = remaining.min(WALK_RNG_BLOCK);
        rng.fill_u64(&mut buf[..take]);
        for &raw in &buf[..take] {
            let d = g.degree(v);
            if d == 0 {
                break 'walk;
            }
            v = g.neighbor_at(v, pick_below(raw, &mut rng, d as u64) as usize);
            steps += 1;
        }
        remaining -= take;
    }
    (v, steps)
}

/// Sequential rand-HK-PR: one walk at a time into a sparse counter.
pub fn rand_hkpr_seq<B: CsrBackend>(g: &B, seed: &Seed, params: &RandHkprParams) -> Diffusion {
    params.validate();
    let cdf = params.length_cdf();
    let mut stats = DiffusionStats::default();
    let mut p = SparseVec::new_f64();
    for i in 0..params.walks {
        let (dest, steps) = run_walk(g, seed, &cdf, params.rng_seed, i);
        p.add(dest, 1.0); // exact integer counts; scaled once below
        stats.edges_traversed += steps as u64;
    }
    stats.pushes = params.walks as u64;
    stats.iterations = params.walks as u64;
    // Scaling counts once (instead of accumulating 1/N) keeps the values
    // bit-identical to the parallel sort-based aggregation.
    let scale = 1.0 / params.walks as f64;
    let entries = p
        .entries_sorted()
        .into_iter()
        .map(|(v, c)| (v, c * scale))
        .collect();
    Diffusion::from_entries(entries, stats)
}

/// Walks between two checkpoint ticks of [`rand_hkpr_par`]. All walks
/// are independent with per-walk RNG streams, so a blocked fill writes
/// the exact bits one full-array fill would.
const WALK_BLOCK: usize = 1 << 15;

/// Parallel rand-HK-PR with the paper's sort-based aggregation. The
/// length-`N` walk-destination array comes from `ws`, and the
/// destination-compaction table is a [`MassMap`] checked out of it with
/// key bound `N`. Per-walk
/// RNG streams make the walks themselves reuse-invariant, and the
/// aggregation's output is sorted by vertex id, so neither the recycled
/// buffers nor the order the table hands out compact ids in can
/// influence the result bits.
///
/// `cp` is consulted between [`WALK_BLOCK`]-walk blocks (the algorithm
/// has no frontier iterations; this is its amortized boundary). On a
/// trip, the completed prefix of walks is aggregated into an estimate
/// with the number of *completed* walks as the denominator — still a
/// unit-mass empirical distribution, just from fewer samples — and
/// returned as the `Err` payload. Reached as
/// [`crate::LocalDiffusion::diffuse`] on [`crate::Algorithm::RandHkpr`].
pub(crate) fn rand_hkpr_par<B: CsrBackend>(
    pool: &Pool,
    g: &B,
    seed: &Seed,
    params: &RandHkprParams,
    ws: &mut Workspace,
    cp: &Checkpoint,
) -> Result<Diffusion, Tripped<Diffusion>> {
    params.validate();
    let cdf = params.length_cdf();
    let n = params.walks;
    let mut stats = DiffusionStats::default();
    // One answer from the fork policy covers the walks and their
    // aggregation. Its volume is `walks × max_len`, an upper bound on the
    // steps taken that is known before any walk runs.
    let pool = lane(pool, n, n.saturating_mul(params.max_len));

    // All walks of a block in parallel; destinations into a length-N
    // array (the contention-free scheme), recycled across queries.
    ws.walks.resize(n, (0, 0));
    let mut done = 0usize;
    let mut tripped = None;
    while done < n {
        if let Err(trip) = cp.tick(done as u64, stats.edges_traversed) {
            tripped = Some(trip);
            break;
        }
        let end = (done + WALK_BLOCK).min(n);
        fill_with_index(pool, &mut ws.walks[done..end], |i| {
            run_walk(g, seed, &cdf, params.rng_seed, done + i)
        });
        stats.edges_traversed += ws.walks[done..end]
            .iter()
            .map(|&(_, s)| s as u64)
            .sum::<u64>();
        done = end;
    }
    stats.pushes = done as u64;
    stats.iterations = done as u64;

    let entries: Vec<(u32, f64)> = if done == 0 {
        // Tripped before the first block: nothing past `done` was
        // written this run, so the stale tail must not be aggregated.
        Vec::new()
    } else {
        // Remap destinations to compact ids through a workspace mass map:
        // claim every destination, then store each distinct key's index.
        let ids_of = ws.take_mass(
            pool,
            g.num_vertices(),
            done,
            MassMap::DEFAULT_DENSE_FRACTION,
        );
        let walks = &ws.walks[..done];
        pool.run(done, 1024, |s, e| {
            for &(dest, _) in &walks[s..e] {
                ids_of.set(dest, 0.0);
            }
        });
        let distinct: Vec<u32> = ids_of.entries(pool).into_iter().map(|(k, _)| k).collect();
        pool.run(distinct.len(), 1024, |s, e| {
            for (i, &k) in distinct[s..e].iter().enumerate() {
                ids_of.set(k, (s + i) as f64);
            }
        });
        let ids: Vec<u32> = map_index(pool, done, |i| ids_of.get(walks[i].0) as u32);
        ws.put_mass(ids_of);

        // Integer sort, then run boundaries give per-destination counts.
        let sorted = counting_sort_by_key(pool, &ids, |&id| id as usize, distinct.len());
        let boundaries: Vec<u32> = filter_map_index(pool, sorted.len(), |i| {
            (i == 0 || sorted[i] != sorted[i - 1]).then_some(i as u32)
        });
        let scale = 1.0 / done as f64;
        map_index(pool, boundaries.len(), |b| {
            let start = boundaries[b] as usize;
            let end = boundaries.get(b + 1).map_or(done, |&x| x as usize);
            (
                distinct[sorted[start] as usize],
                (end - start) as f64 * scale,
            )
        })
    };

    Tripped::outcome(tripped, Diffusion::from_entries(entries, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algorithm, LocalDiffusion};
    use lgc_graph::gen;

    #[test]
    fn length_cdf_is_monotone_and_complete() {
        let params = RandHkprParams {
            t: 3.0,
            max_len: 12,
            ..Default::default()
        };
        let cdf = params.length_cdf();
        assert_eq!(cdf.len(), 13);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cdf.last().unwrap(), 1.0);
        // For t=3, P(len = 0) = e^{-3}.
        assert!((cdf[0] - (-3.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn total_mass_is_exactly_one() {
        let g = gen::rand_local(300, 5, 1);
        let params = RandHkprParams {
            walks: 5000,
            ..Default::default()
        };
        let d = rand_hkpr_seq(&g, &Seed::single(0), &params);
        assert!((d.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_equals_sequential_exactly() {
        // Same per-walk RNG streams ⇒ identical destination multiset ⇒
        // identical vector, regardless of thread count.
        let g = gen::rmat_graph500(9, 8, 3);
        let seed = Seed::single(lgc_graph::largest_component(&g)[0]);
        let params = RandHkprParams {
            t: 5.0,
            max_len: 8,
            walks: 20_000,
            rng_seed: 7,
        };
        let a = rand_hkpr_seq(&g, &seed, &params);
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let b = Algorithm::RandHkpr(params).diffuse(&pool, &g, &seed, &mut Workspace::new());
            assert_eq!(a.p, b.p, "threads={threads}");
        }
    }

    #[test]
    fn walk_length_zero_stays_at_seed() {
        // t tiny: almost all walks have length 0.
        let g = gen::cycle(10);
        let params = RandHkprParams {
            t: 1e-9,
            max_len: 5,
            walks: 1000,
            rng_seed: 1,
        };
        let d = rand_hkpr_seq(&g, &Seed::single(4), &params);
        assert!(d.mass_of(4) > 0.99);
    }

    #[test]
    fn isolated_seed_all_mass_at_seed() {
        let g = lgc_graph::Graph::from_edges(2, &[]);
        let params = RandHkprParams {
            walks: 100,
            ..Default::default()
        };
        let d = rand_hkpr_seq(&g, &Seed::single(0), &params);
        assert_eq!(d.p, vec![(0, 1.0)]);
        let pool = Pool::new(2);
        let dp =
            Algorithm::RandHkpr(params).diffuse(&pool, &g, &Seed::single(0), &mut Workspace::new());
        assert_eq!(dp.p, vec![(0, 1.0)]);
    }

    #[test]
    fn distribution_approximates_deterministic_hkpr() {
        // Monte-Carlo estimate should land near the deterministic vector
        // (loose tolerance: sampling noise ~ 1/sqrt(walks)).
        let g = gen::two_cliques_bridge(8);
        let t = 4.0;
        let det = crate::hkpr::hkpr_seq(
            &g,
            &Seed::single(0),
            &crate::hkpr::HkprParams {
                t,
                n_levels: 30,
                eps: 1e-10,
            },
        );
        let rnd = rand_hkpr_seq(
            &g,
            &Seed::single(0),
            &RandHkprParams {
                t,
                max_len: 30,
                walks: 200_000,
                rng_seed: 3,
            },
        );
        // Compare the mass of the seeded clique as a whole.
        let clique_mass =
            |d: &Diffusion| -> f64 { d.p.iter().filter(|&&(v, _)| v < 8).map(|&(_, m)| m).sum() };
        let (a, b) = (clique_mass(&det), clique_mass(&rnd));
        assert!((a - b).abs() < 0.02, "det {a} vs mc {b}");
    }

    #[test]
    fn more_walks_reduce_variance() {
        let g = gen::rand_local(200, 5, 9);
        let run = |walks, rng_seed| {
            rand_hkpr_seq(
                &g,
                &Seed::single(0),
                &RandHkprParams {
                    t: 5.0,
                    max_len: 10,
                    walks,
                    rng_seed,
                },
            )
            .mass_of(0)
        };
        // Spread of the seed-mass estimate across RNG seeds shrinks.
        let small: Vec<f64> = (0..5).map(|s| run(500, s)).collect();
        let large: Vec<f64> = (0..5).map(|s| run(50_000, s)).collect();
        let spread = |v: &[f64]| {
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            max - min
        };
        assert!(spread(&large) < spread(&small));
    }
}
