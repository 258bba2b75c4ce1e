//! Synthetic graph generators.
//!
//! The paper evaluates on SNAP social networks, web crawls, and two
//! synthetic families (`randLocal`, `3D-grid`). The synthetic families are
//! implemented exactly per the paper's §4 description; the social/web
//! graphs are substituted with scaled-down R-MAT and preferential
//! attachment graphs, which keep what a local algorithm can see of them —
//! a heavy-tailed degree distribution around the seed. The
//! planted-partition (SBM) family adds ground truth for recovery tests.
//!
//! Every generator takes an explicit RNG seed so experiments reproduce.

use crate::csr::{Graph, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The paper's `3D-grid`: a torus in 3-d space "where every vertex has six
/// edges, each connecting it to its 2 neighbors in each dimension" (§4).
pub fn grid_3d(nx: usize, ny: usize, nz: usize) -> Graph {
    assert!(nx >= 1 && ny >= 1 && nz >= 1);
    let n = nx * ny * nz;
    let id = |x: usize, y: usize, z: usize| -> u32 { ((x * ny + y) * nz + z) as u32 };
    let mut b = GraphBuilder::new(n);
    for x in 0..nx {
        for y in 0..ny {
            for z in 0..nz {
                let v = id(x, y, z);
                // One direction per dimension; symmetrization adds the rest.
                b.edge(v, id((x + 1) % nx, y, z));
                b.edge(v, id(x, (y + 1) % ny, z));
                b.edge(v, id(x, y, (z + 1) % nz));
            }
        }
    }
    b.edges([]).build()
}

/// The paper's `randLocal`: "a random graph where every vertex has five
/// edges to neighbors chosen with probability proportional to the
/// difference in the neighbor's ID value from the vertex's ID" (§4).
///
/// We read this as PBBS's `randLocalGraph`: the probability of an edge at
/// id-distance `d` decays like `1/d`, so most edges are short-range in id
/// space. Distance is sampled by inverse transform (`d = ⌊exp(U·ln(n/2))⌋`),
/// direction is uniform, and ids wrap around.
pub fn rand_local(n: usize, edges_per_vertex: usize, seed: u64) -> Graph {
    assert!(n >= 4);
    let mut rng = StdRng::seed_from_u64(seed);
    let max_dist = (n / 2).max(2) as f64;
    let ln_max = max_dist.ln();
    let mut b = GraphBuilder::new(n);
    for v in 0..n as u32 {
        for _ in 0..edges_per_vertex {
            let u: f64 = rng.gen();
            let d = (u * ln_max).exp().floor().max(1.0) as usize;
            let d = d.min(n - 1);
            let w = if rng.gen::<bool>() {
                (v as usize + d) % n
            } else {
                (v as usize + n - d) % n
            };
            b.edge(v, w as u32);
        }
    }
    b.edges([]).build()
}

/// R-MAT (recursive matrix) generator — our stand-in for the paper's
/// social and web graphs (soc-LJ, com-Orkut, Twitter, …): heavy-tailed
/// degrees and community structure from the skewed quadrant recursion.
///
/// `scale` gives `n = 2^scale` vertices; about `n · edge_factor` edge
/// samples are drawn (duplicates/self-loops are removed, so the final
/// count is slightly lower). Quadrant probabilities default to the
/// Graph500 values `(0.57, 0.19, 0.19, 0.05)` when `a/b/c` are not given.
pub fn rmat(scale: u32, edge_factor: usize, a: f64, b: f64, c: f64, seed: u64) -> Graph {
    assert!((2..31).contains(&scale));
    assert!(a > 0.0 && b >= 0.0 && c >= 0.0 && a + b + c < 1.0);
    let n = 1usize << scale;
    let m = n * edge_factor;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..scale {
            u <<= 1;
            v <<= 1;
            // Add per-level noise so duplicates don't dominate (standard
            // practice for R-MAT).
            let r: f64 = rng.gen();
            let (da, db, dc) = (
                a * (0.95 + 0.1 * rng.gen::<f64>()),
                b * (0.95 + 0.1 * rng.gen::<f64>()),
                c * (0.95 + 0.1 * rng.gen::<f64>()),
            );
            let sum = da + db + dc + (1.0 - a - b - c) * (0.95 + 0.1 * rng.gen::<f64>());
            let r = r * sum;
            if r < da {
                // quadrant (0,0)
            } else if r < da + db {
                v |= 1;
            } else if r < da + db + dc {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        builder.edge(u as u32, v as u32);
    }
    builder.edges([]).build()
}

/// R-MAT with the standard Graph500 parameters.
pub fn rmat_graph500(scale: u32, edge_factor: usize, seed: u64) -> Graph {
    rmat(scale, edge_factor, 0.57, 0.19, 0.19, seed)
}

/// Barabási–Albert preferential attachment — our stand-in for
/// `cit-Patents` (citation networks are the canonical PA family).
/// Each new vertex attaches to `m_attach` existing vertices chosen with
/// probability proportional to their degree (repeated-endpoint trick).
pub fn barabasi_albert(n: usize, m_attach: usize, seed: u64) -> Graph {
    assert!(m_attach >= 1 && n > m_attach);
    let mut rng = StdRng::seed_from_u64(seed);
    // `targets` holds every edge endpoint ever created; sampling uniformly
    // from it is sampling proportional to degree.
    let mut endpoints: Vec<u32> = Vec::with_capacity(2 * n * m_attach);
    let mut b = GraphBuilder::new(n);
    // Seed clique over the first m_attach + 1 vertices.
    for u in 0..=(m_attach as u32) {
        for v in (u + 1)..=(m_attach as u32) {
            b.edge(u, v);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for v in (m_attach as u32 + 1)..(n as u32) {
        for _ in 0..m_attach {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            b.edge(v, t);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    b.edges([]).build()
}

/// Erdős–Rényi `G(n, p)` via geometric skip sampling (`O(np)` expected
/// work instead of `O(n²)`).
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    let total_pairs = (n as u64 * (n as u64 - 1)) / 2;
    sample_pairs(total_pairs, p, &mut rng, |idx| {
        let (u, v) = unrank_pair(idx, n as u64);
        b.edge(u as u32, v as u32);
    });
    b.edges([]).build()
}

/// Stochastic block model (planted partition): `block_sizes[i]` vertices
/// in block `i`; intra-block edges appear with probability `p_in`,
/// inter-block with `p_out`. With `p_in ≫ p_out` each block is a planted
/// low-conductance cluster — ground truth the real-world inputs lack.
///
/// Returns the graph and each vertex's block id.
pub fn sbm(block_sizes: &[usize], p_in: f64, p_out: f64, seed: u64) -> (Graph, Vec<u32>) {
    assert!((0.0..=1.0).contains(&p_in) && (0.0..=1.0).contains(&p_out));
    let n: usize = block_sizes.iter().sum();
    let mut labels = Vec::with_capacity(n);
    let mut starts = Vec::with_capacity(block_sizes.len() + 1);
    let mut acc = 0usize;
    for (i, &s) in block_sizes.iter().enumerate() {
        starts.push(acc);
        labels.extend(std::iter::repeat_n(i as u32, s));
        acc += s;
    }
    starts.push(acc);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Intra-block: triangle of each block.
    for (i, &s) in block_sizes.iter().enumerate() {
        let base = starts[i] as u64;
        let pairs = (s as u64) * (s as u64 - 1) / 2;
        sample_pairs(pairs, p_in, &mut rng, |idx| {
            let (u, v) = unrank_pair(idx, s as u64);
            b.edge((base + u) as u32, (base + v) as u32);
        });
    }
    // Inter-block: full rectangles between block pairs.
    for i in 0..block_sizes.len() {
        for j in (i + 1)..block_sizes.len() {
            let (bi, bj) = (starts[i] as u64, starts[j] as u64);
            let (si, sj) = (block_sizes[i] as u64, block_sizes[j] as u64);
            sample_pairs(si * sj, p_out, &mut rng, |idx| {
                let (u, v) = (idx / sj, idx % sj);
                b.edge((bi + u) as u32, (bj + v) as u32);
            });
        }
    }
    (b.edges([]).build(), labels)
}

/// Visits each index of `0..space` independently with probability `p`,
/// using geometric skips so the work is `O(p·space)` in expectation.
fn sample_pairs(space: u64, p: f64, rng: &mut StdRng, mut emit: impl FnMut(u64)) {
    if p <= 0.0 || space == 0 {
        return;
    }
    if p >= 1.0 {
        for idx in 0..space {
            emit(idx);
        }
        return;
    }
    let log1mp = (1.0 - p).ln();
    let mut idx: u64 = 0;
    loop {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let skip = (u.ln() / log1mp).floor() as u64;
        idx = idx.saturating_add(skip);
        if idx >= space {
            return;
        }
        emit(idx);
        idx += 1;
        if idx >= space {
            return;
        }
    }
}

/// Maps a linear index into the strictly-upper-triangular pair `(u, v)`,
/// `u < v < n` (row-major over rows `v`, i.e. pair `idx` of the triangle).
fn unrank_pair(idx: u64, n: u64) -> (u64, u64) {
    // Row v contains v pairs (0..v, v); find v with v(v-1)/2 <= idx < v(v+1)/2.
    let v = ((1.0 + 8.0 * idx as f64).sqrt() * 0.5 + 0.5).floor() as u64;
    let v = v.clamp(1, n - 1);
    // Float rounding can be off by one; correct exactly.
    let v = if v * (v - 1) / 2 > idx {
        v - 1
    } else if (v + 1) * v / 2 <= idx {
        v + 1
    } else {
        v
    };
    let u = idx - v * (v - 1) / 2;
    debug_assert!(u < v && v < n, "idx={idx} n={n} -> ({u},{v})");
    (u, v)
}

/// Simple path `0 − 1 − … − (n−1)`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n as u32 {
        b.edge(v - 1, v);
    }
    b.edges([]).build()
}

/// Cycle on `n` vertices.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3);
    let mut b = GraphBuilder::new(n);
    for v in 0..n as u32 {
        b.edge(v, ((v as usize + 1) % n) as u32);
    }
    b.edges([]).build()
}

/// Complete graph on `n` vertices.
pub fn clique(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            b.edge(u, v);
        }
    }
    b.edges([]).build()
}

/// Star: vertex 0 joined to all others.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2);
    let mut b = GraphBuilder::new(n);
    for v in 1..n as u32 {
        b.edge(0, v);
    }
    b.edges([]).build()
}

/// Two `k`-cliques joined by a single bridge edge — the canonical
/// low-conductance planted cluster (`φ(first clique) = 1/(k(k−1)+1)`).
pub fn two_cliques_bridge(k: usize) -> Graph {
    assert!(k >= 2);
    let mut b = GraphBuilder::new(2 * k);
    for u in 0..k as u32 {
        for v in (u + 1)..k as u32 {
            b.edge(u, v);
            b.edge(u + k as u32, v + k as u32);
        }
    }
    b.edge(0, k as u32);
    b.edges([]).build()
}

/// The 8-vertex example graph of the paper's Figure 1 (vertices
/// `A..H ↦ 0..7`). The figure fixes `m = 8`, `d(A)=2, d(B)=2, d(C)=3,
/// d(D)=4`, cluster boundaries `∂({A})=2, ∂({A,B})=2, ∂({A,B,C})=1,
/// ∂({A,B,C,D})=3`, and the worked §3.1 example fixes the edges
/// `A−B, A−C, B−C, C−D` plus three edges from `D` to outside vertices;
/// the one remaining edge lies inside `{E,F,G,H}`.
pub fn figure1_graph() -> Graph {
    const A: u32 = 0;
    const B: u32 = 1;
    const C: u32 = 2;
    const D: u32 = 3;
    const E: u32 = 4;
    const F: u32 = 5;
    const G: u32 = 6;
    const H: u32 = 7;
    Graph::from_edges(
        8,
        &[
            (A, B),
            (A, C),
            (B, C),
            (C, D),
            (D, E),
            (D, F),
            (D, G),
            (G, H),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CsrBackend;

    #[test]
    fn grid_3d_is_6_regular_torus() {
        let g = grid_3d(4, 3, 5);
        assert_eq!(g.num_vertices(), 60);
        for v in 0..60u32 {
            assert_eq!(g.degree(v), 6, "vertex {v}");
        }
        assert_eq!(g.num_edges(), 60 * 6 / 2);
    }

    #[test]
    fn grid_3d_small_dims_collapse_duplicates() {
        // nx=2 means +x and -x wrap to the same neighbor: degree 5.
        let g = grid_3d(2, 3, 3);
        assert_eq!(g.degree(0), 5);
    }

    #[test]
    fn rand_local_degrees_near_request() {
        let g = rand_local(1000, 5, 1);
        // Symmetrized: expected average degree ≈ 10 minus dedup losses.
        let avg = g.total_degree() as f64 / g.num_vertices() as f64;
        assert!(avg > 8.0 && avg <= 10.0, "avg degree {avg}");
    }

    #[test]
    fn rand_local_is_deterministic_per_seed() {
        let g1 = rand_local(500, 5, 7);
        let g2 = rand_local(500, 5, 7);
        let g3 = rand_local(500, 5, 8);
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(g1.neighbors(42), g2.neighbors(42));
        assert_ne!(
            (g1.num_edges(), g1.neighbors(42).to_vec()),
            (g3.num_edges(), g3.neighbors(42).to_vec())
        );
    }

    #[test]
    fn rmat_has_skewed_degrees() {
        let g = rmat_graph500(12, 8, 3);
        assert_eq!(g.num_vertices(), 4096);
        assert!(g.num_edges() > 10_000);
        let avg = g.total_degree() as f64 / g.num_vertices() as f64;
        let max = crate::stats::GraphSummary::of(&g).max_degree;
        assert!(
            max as f64 > 8.0 * avg,
            "power law should give max ≫ avg: max={max} avg={avg}"
        );
    }

    /// The power-law signature: in power-of-two degree buckets (entry `i`
    /// counts degrees in `[2^i, 2^{i+1})`, entry 0 degree 0), the tail is
    /// far below the head.
    #[test]
    fn rmat_degree_histogram_decays() {
        let g = rmat_graph500(10, 8, 1);
        let mut hist = Vec::new();
        for v in 0..g.num_vertices() as u32 {
            let b = (usize::BITS - g.degree(v).leading_zeros()) as usize;
            if hist.len() <= b {
                hist.resize(b + 1, 0usize);
            }
            hist[b] += 1;
        }
        assert_eq!(hist.iter().sum::<usize>(), g.num_vertices());
        assert!(hist[1] > *hist.last().unwrap());
    }

    #[test]
    fn barabasi_albert_shape() {
        let g = barabasi_albert(2000, 3, 5);
        assert_eq!(g.num_vertices(), 2000);
        // Every non-seed vertex attaches with ≥1 distinct edge.
        for v in 4..2000u32 {
            assert!(g.degree(v) >= 1);
        }
        let avg = g.total_degree() as f64 / 2000.0;
        assert!(avg > 4.0 && avg < 7.0, "avg {avg}");
    }

    #[test]
    fn erdos_renyi_edge_count_concentrates() {
        let n = 2000;
        let p = 0.01;
        let g = erdos_renyi(n, p, 11);
        let expected = (n * (n - 1) / 2) as f64 * p;
        let got = g.num_edges() as f64;
        assert!(
            (got - expected).abs() < 0.15 * expected,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn sbm_blocks_are_denser_inside() {
        let (g, labels) = sbm(&[200, 200, 200], 0.2, 0.005, 13);
        assert_eq!(g.num_vertices(), 600);
        let block0: Vec<u32> = (0..600u32).filter(|&v| labels[v as usize] == 0).collect();
        let phi = g.conductance(&block0);
        assert!(phi < 0.25, "planted block conductance {phi}");
    }

    #[test]
    fn unrank_pair_roundtrip() {
        let n = 50u64;
        let mut idx = 0u64;
        for v in 1..n {
            for u in 0..v {
                assert_eq!(unrank_pair(idx, n), (u, v), "idx {idx}");
                idx += 1;
            }
        }
    }

    #[test]
    fn small_families() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(clique(6).num_edges(), 15);
        assert_eq!(star(7).num_edges(), 6);
        assert_eq!(star(7).degree(0), 6);
    }

    #[test]
    fn two_cliques_bridge_has_planted_cut() {
        let g = two_cliques_bridge(10);
        let first: Vec<u32> = (0..10).collect();
        // vol = 10·9 + 1, boundary = 1.
        assert_eq!(g.conductance(&first), 1.0 / 91.0);
    }

    #[test]
    fn figure1_matches_paper_degrees_and_conductances() {
        let g = figure1_graph();
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.degree(0), 2); // A
        assert_eq!(g.degree(1), 2); // B
        assert_eq!(g.degree(2), 3); // C
        assert_eq!(g.degree(3), 4); // D
                                    // Figure 1's table:
        assert_eq!(g.conductance(&[0]), 1.0); // 2/min(2,14)
        assert_eq!(g.conductance(&[0, 1]), 0.5); // 2/min(4,12)
        assert_eq!(g.conductance(&[0, 1, 2]), 1.0 / 7.0); // 1/min(7,9)
        assert_eq!(g.conductance(&[0, 1, 2, 3]), 3.0 / 5.0); // 3/min(11,5)
    }
}
