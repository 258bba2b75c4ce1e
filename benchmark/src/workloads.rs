//! The four workloads: graphs, query kinds and list sizes, all pinned.
//! Inputs are generated here from `--seed`; the program under test only
//! ever sees graphs and queries.

use crate::fnv::Fnv;
use lgc_core::{Algorithm, HkprParams, NibbleParams, PrNibbleParams, Query, RandHkprParams, Seed};
use lgc_graph::{gen, Graph};

/// The seed the lock file and the checked-in references are recorded for.
pub const DEFAULT_SEED: u64 = 1;

/// Times the whole set-up runs in one untraced process; `setup_s` is the
/// median of them. `serve`'s set-up is 0.4 s, short enough for one
/// disturbed second to move a median of three by a third, so it runs
/// more often.
pub const SETUP_REPS: usize = 3;
pub const SERVE_SETUP_REPS: usize = 7;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    Deep,
    Interactive,
    Batch,
    Serve,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::Deep,
        WorkloadId::Interactive,
        WorkloadId::Batch,
        WorkloadId::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Deep => "deep",
            WorkloadId::Interactive => "interactive",
            WorkloadId::Batch => "batch",
            WorkloadId::Serve => "serve",
        }
    }

    pub fn parse(s: &str) -> Option<WorkloadId> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One kind of query in a workload's list.
#[derive(Clone, Debug)]
pub struct Kind {
    pub name: &'static str,
    pub algo: Algorithm,
    /// The sequential reference is cheap enough to compute in every run
    /// (kinds without it are checked against the reference only on the
    /// default seed, from `expected/`).
    pub cheap_ref: bool,
    /// Used for the fixed-overhead ratios (cold/warm, guard/plain, TCP
    /// over direct), where a short query shows the most.
    pub light: bool,
    /// Results of this kind are local cuts worth refining with the flow
    /// stage (never whole-component cuts).
    pub flow: bool,
}

/// One query of the list, with the kind it belongs to.
#[derive(Clone, Debug)]
pub struct Item {
    pub kind: usize,
    pub query: Query,
}

fn prn(alpha: f64, eps: f64) -> Algorithm {
    Algorithm::PrNibble(PrNibbleParams {
        alpha,
        eps,
        ..Default::default()
    })
}

fn kind(name: &'static str, algo: Algorithm, cheap_ref: bool, light: bool, flow: bool) -> Kind {
    Kind {
        name,
        algo,
        cheap_ref,
        light,
        flow,
    }
}

/// SplitMix64: the harness's own generator for seed vertices, so the load
/// does not depend on the workspace's `rand` stand-in.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniformly drawn vertex of positive degree.
    pub fn vertex(&mut self, g: &Graph) -> u32 {
        loop {
            let v = (self.next() % g.num_vertices() as u64) as u32;
            if g.degree(v) > 0 {
                return v;
            }
        }
    }
}

/// Everything pinned about one workload.
pub struct Spec {
    pub id: WorkloadId,
    pub kinds: Vec<Kind>,
    /// Seed vertices per kind in the list (`serve`: in the replay sample).
    pub seeds: usize,
    /// A latency sample slower than this misses `within_limit_frac`.
    pub limit_ms: f64,
    /// Whether a latency sample is one whole pass rather than one query:
    /// `batch` (results arrive together) and `deep` (five queries of five
    /// very different costs: a percentile across them would report one
    /// kind's time, and which kind would hinge on the seed vertex).
    pub latency_per_pass: bool,
    /// Leading list items the traced run replays and decomposes.
    pub replay_items: usize,
    /// Whether the engine serves the byte-compressed backend.
    pub compressed: bool,
}

/// `serve`: interactive arrival rate (open loop), bulk requests in flight
/// (closed loop), and the bulk list one "pass" cycles through.
pub const SERVE_RATE_HZ: f64 = 200.0;
/// `serve`: the window is cut into slices of about this long, each timed
/// on its own (1000 interactive samples: p99 has ten beyond it).
pub const SERVE_SLICE_S: f64 = 5.0;
pub const SERVE_BULK_IN_FLIGHT: usize = 4;
pub const SERVE_BULK_LIST: usize = 32;
/// One response in this many is compared with a 1-thread recomputation.
pub const SERVE_VERIFY_EVERY: usize = 50;

impl Spec {
    pub fn of(id: WorkloadId, seed: u64) -> Spec {
        match id {
            WorkloadId::Deep => Spec {
                id,
                kinds: vec![
                    kind("prn_sat", prn(0.01, 1e-7), false, false, false),
                    kind("prn_mid", prn(0.01, 1e-6), true, true, true),
                    kind(
                        "hkpr_sat",
                        Algorithm::Hkpr(HkprParams {
                            t: 10.0,
                            n_levels: 20,
                            eps: 1e-5,
                            ..Default::default()
                        }),
                        false,
                        false,
                        false,
                    ),
                    kind(
                        "nibble_mid",
                        Algorithm::Nibble(NibbleParams {
                            t_max: 20,
                            eps: 1e-7,
                            ..Default::default()
                        }),
                        true,
                        false,
                        false,
                    ),
                    kind(
                        "rhk",
                        Algorithm::RandHkpr(RandHkprParams {
                            walks: 100_000,
                            rng_seed: seed,
                            ..Default::default()
                        }),
                        true,
                        true,
                        false,
                    ),
                ],
                seeds: 1,
                limit_ms: 30_000.0,
                latency_per_pass: true,
                replay_items: 5,
                compressed: false,
            },
            WorkloadId::Interactive => Spec {
                id,
                kinds: vec![
                    kind("prn_a", prn(0.1, 1e-4), true, true, true),
                    kind("prn_b", prn(0.05, 1e-5), true, false, true),
                    // Five kinds, not four: with an odd count the median
                    // sample falls inside one kind's group (this one's),
                    // not on the gap between a fast and a slow kind.
                    kind("prn_c", prn(0.1, 1e-5), true, false, true),
                    kind(
                        "hkpr",
                        Algorithm::Hkpr(HkprParams {
                            t: 5.0,
                            eps: 1e-4,
                            ..Default::default()
                        }),
                        true,
                        false,
                        true,
                    ),
                    kind(
                        "nibble",
                        Algorithm::Nibble(NibbleParams {
                            t_max: 10,
                            eps: 1e-5,
                            ..Default::default()
                        }),
                        true,
                        true,
                        true,
                    ),
                ],
                seeds: 100,
                limit_ms: 100.0,
                latency_per_pass: false,
                replay_items: 500,
                compressed: false,
            },
            WorkloadId::Batch => Spec {
                id,
                kinds: vec![
                    kind("a0.1_e1e-4", prn(0.1, 1e-4), true, true, true),
                    kind("a0.1_e1e-5", prn(0.1, 1e-5), true, true, true),
                    kind("a0.1_e1e-6", prn(0.1, 1e-6), true, false, true),
                    kind("a0.01_e1e-4", prn(0.01, 1e-4), true, true, true),
                    kind("a0.01_e1e-5", prn(0.01, 1e-5), false, false, true),
                    kind("a0.01_e1e-6", prn(0.01, 1e-6), false, false, true),
                ],
                seeds: 24,
                limit_ms: 60_000.0,
                latency_per_pass: true,
                replay_items: 36,
                compressed: true,
            },
            WorkloadId::Serve => Spec {
                id,
                kinds: vec![
                    kind("interactive", prn(0.1, 1e-4), true, true, true),
                    kind("bulk", prn(0.01, 1e-5), true, false, true),
                ],
                seeds: 32,
                limit_ms: 100.0,
                latency_per_pass: false,
                replay_items: 64,
                compressed: false,
            },
        }
    }

    /// The workload's graph. (`interactive`'s torus is the same for every
    /// seed: it is vertex-transitive, so only the seed vertices vary.)
    pub fn graph(&self, seed: u64) -> Graph {
        match self.id {
            WorkloadId::Deep | WorkloadId::Serve => gen::rand_local(300_000, 5, seed),
            WorkloadId::Interactive => gen::grid_3d(64, 64, 64),
            WorkloadId::Batch => gen::barabasi_albert(300_000, 5, seed),
        }
    }

    /// The fixed query list: `seeds` seed vertices, every kind from each,
    /// seed-major (an analyst's mixed stream; an NCP grid). For `serve`
    /// this is the sample the in-process replay decomposes; the traffic
    /// itself comes from [`Spec::serve_query`].
    pub fn list(&self, g: &Graph, seed: u64) -> Vec<Item> {
        let mut rng = SplitMix64::new(seed ^ 0x5eed_0000 ^ self.id as u64);
        let mut items = Vec::with_capacity(self.seeds * self.kinds.len());
        for _ in 0..self.seeds {
            let v = rng.vertex(g);
            for (k, kind) in self.kinds.iter().enumerate() {
                items.push(Item {
                    kind: k,
                    query: Query::new(Seed::single(v), kind.algo.clone()),
                });
            }
        }
        items
    }

    /// `serve`: the `i`-th request of one class (kind 0 interactive,
    /// kind 1 bulk). Bulk cycles through a list of [`SERVE_BULK_LIST`].
    pub fn serve_query(&self, g: &Graph, seed: u64, kind: usize, i: usize) -> Query {
        let slot = if kind == 1 { i % SERVE_BULK_LIST } else { i };
        let mut rng =
            SplitMix64::new(seed ^ ((kind as u64 + 1) << 40) ^ (slot as u64).wrapping_mul(0x9e37));
        Query::new(Seed::single(rng.vertex(g)), self.kinds[kind].algo.clone())
    }
}

/// FNV-1a over the CSR arrays: every offset (as `u64`), then every
/// adjacency entry.
pub fn graph_digest(g: &Graph) -> u64 {
    let mut h = Fnv::default();
    let mut offset = 0u64;
    h.u64(offset);
    for v in 0..g.num_vertices() as u32 {
        offset += g.degree(v) as u64;
        h.u64(offset);
    }
    for v in 0..g.num_vertices() as u32 {
        for &w in g.neighbors(v) {
            h.u32(w);
        }
    }
    h.finish()
}

fn digest_query(h: &mut Fnv, name: &str, q: &Query) {
    h.bytes(name.as_bytes());
    for &v in q.seed.vertices() {
        h.u32(v);
    }
    match &q.algo {
        Algorithm::PrNibble(p) => {
            h.f64(p.alpha);
            h.f64(p.eps);
        }
        Algorithm::Hkpr(p) => {
            h.f64(p.t);
            h.u64(p.n_levels as u64);
            h.f64(p.eps);
        }
        Algorithm::Nibble(p) => {
            h.u64(p.t_max as u64);
            h.f64(p.eps);
        }
        Algorithm::RandHkpr(p) => {
            h.f64(p.t);
            h.u64(p.max_len as u64);
            h.u64(p.walks as u64);
            h.u64(p.rng_seed);
        }
        Algorithm::Evolving(_) => unreachable!("no workload runs the evolving-set process"),
    }
}

/// FNV-1a over a query list: per query its kind name, seed vertices and
/// the parameters the workload sets.
pub fn list_digest(spec: &Spec, items: &[Item]) -> u64 {
    let mut h = Fnv::default();
    for it in items {
        digest_query(&mut h, spec.kinds[it.kind].name, &it.query);
    }
    h.finish()
}

/// What the lock pins for one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub n: usize,
    pub m: usize,
    pub graph: u64,
    pub queries: u64,
}

impl Fingerprint {
    pub fn of(spec: &Spec, g: &Graph, seed: u64) -> Fingerprint {
        let mut items = spec.list(g, seed);
        if spec.id == WorkloadId::Serve {
            // The traffic, not the replay sample: the first requests of
            // the interactive schedule and the whole bulk list.
            items = (0..256)
                .map(|i| (0, i))
                .chain((0..SERVE_BULK_LIST).map(|i| (1, i)))
                .map(|(kind, i)| Item {
                    kind,
                    query: spec.serve_query(g, seed, kind, i),
                })
                .collect();
        }
        Fingerprint {
            n: g.num_vertices(),
            m: g.num_edges(),
            graph: graph_digest(g),
            queries: list_digest(spec, &items),
        }
    }

    pub fn render(&self) -> String {
        format!(
            "n={} m={} graph={:016x} queries={:016x}",
            self.n, self.m, self.graph, self.queries
        )
    }
}

/// Reads `workloads.lock` text: one `name n=… m=… graph=… queries=…` line
/// per workload.
pub fn locked_fingerprint(lock_text: &str, workload: &str) -> Option<String> {
    lock_text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(workload)?.strip_prefix(' '))
        .map(|rest| rest.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let spec = Spec::of(WorkloadId::Interactive, 7);
        let g = gen::grid_3d(8, 8, 8);
        let a = list_digest(&spec, &spec.list(&g, 7));
        let b = list_digest(&spec, &spec.list(&g, 7));
        let c = list_digest(&spec, &spec.list(&g, 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(spec.list(&g, 7).len(), 100 * 5);
    }

    #[test]
    fn graph_digest_sees_one_moved_edge() {
        let a = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        assert_ne!(graph_digest(&a), graph_digest(&b));
        assert_eq!(graph_digest(&a), graph_digest(&a.clone()));
    }

    #[test]
    fn lock_lines_are_found_by_workload_name() {
        let text =
            "# comment\ndeep n=1 m=2 graph=00 queries=11\nserve n=3 m=4 graph=22 queries=33\n";
        assert_eq!(
            locked_fingerprint(text, "serve").as_deref(),
            Some("n=3 m=4 graph=22 queries=33")
        );
        assert_eq!(locked_fingerprint(text, "batch"), None);
        let fp = Fingerprint {
            n: 1,
            m: 2,
            graph: 0,
            queries: 0x11,
        };
        assert_eq!(
            fp.render(),
            "n=1 m=2 graph=0000000000000000 queries=0000000000000011"
        );
    }

    #[test]
    fn bulk_requests_cycle_through_a_fixed_list() {
        let spec = Spec::of(WorkloadId::Serve, 3);
        let g = gen::grid_3d(8, 8, 8);
        let a = spec.serve_query(&g, 3, 1, 5);
        let b = spec.serve_query(&g, 3, 1, 5 + SERVE_BULK_LIST);
        assert_eq!(a.seed, b.seed);
        let c = spec.serve_query(&g, 3, 0, 5);
        let d = spec.serve_query(&g, 3, 0, 5 + SERVE_BULK_LIST);
        assert_ne!(c.seed, d.seed);
    }
}
