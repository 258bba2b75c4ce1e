//! Hand-rolled Dinic max-flow on an explicit residual arc list.
//!
//! No external crates and no recursion: the blocking-flow walk keeps its
//! own arc-index path stack, so pathological long-path networks cannot
//! overflow the call stack. Arcs are stored pairwise (`arc i` ↔
//! `arc i ^ 1`) and scanned in insertion order, which makes the whole
//! computation — levels, augmenting paths, and the final residual
//! reachability — a pure function of the construction order. The MQI
//! caller builds networks in ascending vertex order, so refinement is
//! deterministic across backends and thread counts.
//!
//! Cooperative interrupts: [`FlowNetwork::max_flow`] ticks its
//! [`Checkpoint`] once per BFS *phase* (Dinic runs `O(√E)` phases on
//! unit-style networks — a natural coarse-grained cadence, mirroring the
//! per-iteration ticks of the diffusions), reporting augmenting paths as
//! the push counter and scanned arcs as the edge counter.

use lgc_ligra::{Checkpoint, Trip};

/// Cumulative work counters for one refinement call (possibly several
/// max-flow solves).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct FlowWork {
    /// Dinic BFS phases completed.
    pub phases: u64,
    /// Augmenting paths pushed.
    pub augmentations: u64,
    /// Residual arcs scanned (BFS + DFS + augmentation walks) — the
    /// deterministic work measure reported to `Checkpoint::tick`.
    pub arcs_scanned: u64,
}

const UNREACHED: u32 = u32::MAX;

/// A flow network under construction / solution. Node ids are `u32`;
/// capacities are `u64` (the MQI capacities `c·d(v)`, `a·bdry(v)`, `a`
/// are products of two graph-sized integers).
pub(crate) struct FlowNetwork {
    /// Per-node arc indices, in insertion order.
    adj: Vec<Vec<u32>>,
    /// Head of each arc; arc `i` is the reverse of arc `i ^ 1`.
    to: Vec<u32>,
    /// Residual capacity of each arc.
    cap: Vec<u64>,
}

impl FlowNetwork {
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            adj: vec![Vec::new(); n],
            to: Vec::new(),
            cap: Vec::new(),
        }
    }

    fn push_pair(&mut self, u: u32, v: u32, cap_uv: u64, cap_vu: u64) {
        let i = self.to.len() as u32;
        self.to.push(v);
        self.cap.push(cap_uv);
        self.to.push(u);
        self.cap.push(cap_vu);
        self.adj[u as usize].push(i);
        self.adj[v as usize].push(i + 1);
    }

    /// Directed arc `u → v` of the given capacity (zero-capacity
    /// residual reverse).
    pub fn add_arc(&mut self, u: u32, v: u32, cap: u64) {
        self.push_pair(u, v, cap, 0);
    }

    /// Undirected edge: capacity `cap` in both directions.
    pub fn add_undirected(&mut self, u: u32, v: u32, cap: u64) {
        self.push_pair(u, v, cap, cap);
    }

    /// Runs Dinic to completion from `s` to `t`, ticking `cp` once per
    /// phase with the caller's cumulative work counters. On a trip the
    /// network is left mid-solve and the caller falls back to its last
    /// completed iterate.
    pub fn max_flow(
        &mut self,
        s: u32,
        t: u32,
        cp: &Checkpoint,
        work: &mut FlowWork,
    ) -> Result<u64, Trip> {
        let n = self.adj.len();
        let mut flow = 0u64;
        let mut level = vec![UNREACHED; n];
        let mut it = vec![0usize; n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        loop {
            cp.tick(work.augmentations, work.arcs_scanned)?;
            work.phases += 1;
            // BFS level graph over positive-capacity residual arcs.
            level.fill(UNREACHED);
            level[s as usize] = 0;
            queue.clear();
            queue.push(s);
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                for &a in &self.adj[u] {
                    work.arcs_scanned += 1;
                    let v = self.to[a as usize];
                    if self.cap[a as usize] > 0 && level[v as usize] == UNREACHED {
                        level[v as usize] = level[u] + 1;
                        queue.push(v);
                    }
                }
            }
            if level[t as usize] == UNREACHED {
                return Ok(flow);
            }
            it.fill(0);
            flow += self.blocking_flow(s, t, &mut level, &mut it, work);
        }
    }

    /// One blocking-flow pass over the current level graph, via an
    /// explicit arc-index path stack (no recursion).
    fn blocking_flow(
        &mut self,
        s: u32,
        t: u32,
        level: &mut [u32],
        it: &mut [usize],
        work: &mut FlowWork,
    ) -> u64 {
        let mut flow = 0u64;
        let mut path: Vec<u32> = Vec::new();
        loop {
            let u = match path.last() {
                Some(&a) => self.to[a as usize],
                None => s,
            };
            if u == t {
                // Augment along the path by its bottleneck, then retreat
                // to just before the first saturated arc.
                let mut aug = u64::MAX;
                for &a in &path {
                    aug = aug.min(self.cap[a as usize]);
                }
                let mut cut_pos = path.len();
                for (i, &a) in path.iter().enumerate() {
                    work.arcs_scanned += 1;
                    self.cap[a as usize] -= aug;
                    self.cap[(a ^ 1) as usize] += aug;
                    if self.cap[a as usize] == 0 && i < cut_pos {
                        cut_pos = i;
                    }
                }
                path.truncate(cut_pos);
                flow += aug;
                work.augmentations += 1;
                continue;
            }
            // Advance along the next admissible arc out of `u`.
            let ui = u as usize;
            let mut advanced = false;
            while it[ui] < self.adj[ui].len() {
                let a = self.adj[ui][it[ui]];
                work.arcs_scanned += 1;
                let v = self.to[a as usize] as usize;
                if self.cap[a as usize] > 0 && level[v] == level[ui] + 1 {
                    path.push(a);
                    advanced = true;
                    break;
                }
                it[ui] += 1;
            }
            if !advanced {
                if u == s {
                    return flow;
                }
                // Dead end: prune `u` from this phase and retreat.
                level[ui] = UNREACHED;
                let a = path.pop().expect("non-source dead end has a parent arc");
                let parent = self.to[(a ^ 1) as usize] as usize;
                it[parent] += 1;
            }
        }
    }

    /// The canonical minimum cut's source side after [`max_flow`]: every
    /// node reachable from `s` through positive-capacity residual arcs,
    /// in ascending id order.
    pub fn source_side(&self, s: u32) -> Vec<u32> {
        let n = self.adj.len();
        let mut seen = vec![false; n];
        seen[s as usize] = true;
        let mut stack = vec![s];
        while let Some(u) = stack.pop() {
            for &a in &self.adj[u as usize] {
                let v = self.to[a as usize];
                if self.cap[a as usize] > 0 && !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        (0..n as u32).filter(|&v| seen[v as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgc_ligra::QueryBudget;

    fn solve(net: &mut FlowNetwork, s: u32, t: u32) -> u64 {
        let mut work = FlowWork::default();
        net.max_flow(s, t, &Checkpoint::unlimited(), &mut work)
            .expect("unlimited checkpoint never trips")
    }

    #[test]
    fn single_arc() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 7);
        assert_eq!(solve(&mut net, 0, 1), 7);
        assert_eq!(net.source_side(0), vec![0]);
    }

    #[test]
    fn classic_diamond() {
        // s=0, t=3; two disjoint-ish paths plus a cross edge.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 10);
        net.add_arc(0, 2, 10);
        net.add_arc(1, 3, 4);
        net.add_arc(2, 3, 9);
        net.add_arc(1, 2, 6);
        assert_eq!(solve(&mut net, 0, 3), 13);
    }

    #[test]
    fn undirected_edge_carries_both_ways() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 5);
        net.add_undirected(1, 2, 3);
        let mut net2 = FlowNetwork::new(3);
        net2.add_arc(0, 2, 5);
        net2.add_undirected(1, 2, 3);
        assert_eq!(solve(&mut net, 0, 2), 3);
        assert_eq!(solve(&mut net2, 0, 1), 3);
    }

    #[test]
    fn min_cut_side_is_the_bottleneck_side() {
        // 0 -4-> 1 -2-> 2 -4-> 3 : bottleneck between 1 and 2.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 4);
        net.add_arc(1, 2, 2);
        net.add_arc(2, 3, 4);
        assert_eq!(solve(&mut net, 0, 3), 2);
        assert_eq!(net.source_side(0), vec![0, 1]);
    }

    #[test]
    fn work_budget_trips_mid_solve() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 4);
        net.add_arc(1, 2, 2);
        net.add_arc(2, 3, 4);
        let cp = QueryBudget::unlimited().with_max_edges_traversed(0).arm();
        let mut work = FlowWork::default();
        // First phase scans arcs; the second tick sees them and trips.
        let r = net.max_flow(0, 3, &cp, &mut work);
        assert!(matches!(r, Err(Trip::WorkBudget)));
    }
}
