//! Pluggable CSR storage backends — plain arrays or Ligra+-style
//! byte-coded compression.
//!
//! The traversal kernels in `lgc-ligra` and the diffusions in `lgc-core`
//! are generic over [`CsrBackend`], an access trait exposing exactly the
//! surface they need: degrees, ascending-order neighbor iteration
//! (whole-list, sub-range, and single-index forms) and memory
//! accounting. The §2 set queries — `vol(S)`, `|∂(S)|` and `φ(S)` — are
//! the trait's provided methods, written once over that surface, and every
//! conductance in the workspace is [`cut_conductance`]. Two
//! implementations ship:
//!
//! * [`Graph`] — offsets + flat `u32` adjacency, the
//!   fastest random-access layout.
//! * [`CsrCompressed`] — each sorted adjacency list stored as a delta-
//!   coded byte stream (the family of byte codes Ligra+ uses to fit
//!   billion-edge graphs in memory): the first neighbor as a
//!   zigzag-coded varint of the signed delta from the vertex id, the
//!   remaining gaps in group-varint form (one tag byte carries the
//!   lengths of the next ≤ 4 gaps, so payload loads never wait on a
//!   continuation bit). Sequential decode emits neighbors in ascending
//!   order, so the dense pull traversals stay bitwise deterministic
//!   across backends and thread counts; social-network graphs
//!   typically shrink 2–3×.
//!
//! Because every neighbor loop goes through `for_each_neighbor*`
//! (monomorphized per backend — the plain impl compiles down to the
//! same slice iteration as before), swapping backends changes bandwidth
//! and footprint but not one bit of any diffusion's output.

use crate::csr::Graph;

/// The storage-access surface the traversal kernels require.
///
/// Implementations must present each vertex's neighbors **in ascending
/// id order** — the dense pull engines rely on it for bitwise
/// determinism — with no duplicates or self-loops (the clean-CSR
/// invariant [`crate::GraphBuilder`] establishes).
pub trait CsrBackend: Send + Sync {
    /// Number of vertices `n`.
    fn num_vertices(&self) -> usize;

    /// Number of undirected edges `m`.
    fn num_edges(&self) -> usize;

    /// Total degree `Σ_v d(v) = 2m` — the paper's `vol(V)`.
    fn total_degree(&self) -> usize;

    /// Degree of vertex `v`.
    fn degree(&self, v: u32) -> usize;

    /// Calls `f` with each neighbor of `v`, in ascending id order.
    fn for_each_neighbor(&self, v: u32, f: impl FnMut(u32));

    /// Calls `f` with the neighbors of `v` whose adjacency-list index is
    /// in `[start, end)` (`end ≤ degree(v)`), in ascending id order —
    /// the sub-range form the flattened-edge-space kernels chunk by.
    fn for_each_neighbor_in(&self, v: u32, start: usize, end: usize, f: impl FnMut(u32));

    /// The `k`-th neighbor of `v` (`k < degree(v)`) — the random-access
    /// form the walk engines sample by.
    fn neighbor_at(&self, v: u32, k: usize) -> u32;

    /// Bytes held by the adjacency structure alone (the compressible
    /// part: excludes the per-vertex offset/degree indexes).
    fn adjacency_bytes(&self) -> usize;

    /// Total resident bytes of the graph storage.
    fn memory_bytes(&self) -> usize;

    /// `vol(S) = Σ_{v∈S} d(v)`.
    fn volume(&self, set: &[u32]) -> u64 {
        set.iter().map(|&v| self.degree(v) as u64).sum()
    }

    /// `|∂(S)|` — edges with exactly one endpoint in `S`, membership
    /// checked against a sorted copy of the set (`O(|S| log |S| + vol(S)
    /// log |S|)`). The sweep and the evolving-set process count their
    /// sets' boundaries their own way, from the same integers.
    fn boundary_size(&self, set: &[u32]) -> u64 {
        let mut members = set.to_vec();
        members.sort_unstable();
        let mut crossing = 0u64;
        for &v in set {
            self.for_each_neighbor(v, |w| {
                crossing += u64::from(members.binary_search(&w).is_err());
            });
        }
        crossing
    }

    /// Conductance `φ(S)` (§2), by [`cut_conductance`] over
    /// [`boundary_size`](Self::boundary_size) and [`volume`](Self::volume).
    fn conductance(&self, set: &[u32]) -> f64 {
        let vol = self.volume(set);
        cut_conductance(self.boundary_size(set), vol, self.total_degree() as u64)
    }
}

/// Conductance `φ(S) = |∂(S)| / min(vol(S), 2m − vol(S))` (§2) from the
/// cut's integers: `cut = |∂(S)|`, `vol = vol(S)` and `total_degree = 2m`.
/// `+∞` when the denominator is zero — the empty set, a set of isolated
/// vertices, the whole graph — so such sets never win a sweep. Every
/// conductance in the workspace is this one division, so two callers that
/// count the same integers agree bit for bit.
#[inline]
pub fn cut_conductance(cut: u64, vol: u64, total_degree: u64) -> f64 {
    let denom = vol.min(total_degree - vol);
    if denom == 0 {
        f64::INFINITY
    } else {
        cut as f64 / denom as f64
    }
}

impl CsrBackend for Graph {
    #[inline]
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    #[inline]
    fn num_edges(&self) -> usize {
        Graph::num_edges(self)
    }

    #[inline]
    fn total_degree(&self) -> usize {
        Graph::total_degree(self)
    }

    #[inline]
    fn degree(&self, v: u32) -> usize {
        Graph::degree(self, v)
    }

    #[inline]
    fn for_each_neighbor(&self, v: u32, mut f: impl FnMut(u32)) {
        for &w in self.neighbors(v) {
            f(w);
        }
    }

    #[inline]
    fn for_each_neighbor_in(&self, v: u32, start: usize, end: usize, mut f: impl FnMut(u32)) {
        for &w in &self.neighbors(v)[start..end] {
            f(w);
        }
    }

    #[inline]
    fn neighbor_at(&self, v: u32, k: usize) -> u32 {
        self.neighbors(v)[k]
    }

    fn adjacency_bytes(&self) -> usize {
        self.total_degree() * std::mem::size_of::<u32>()
    }

    fn memory_bytes(&self) -> usize {
        Graph::memory_bytes(self)
    }
}

/// Appends `value` to `out` as an LEB128 varint (7 bits per byte,
/// high bit = continuation).
fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from `data` at `*pos`, advancing `*pos` —
/// the checked reference reader the tests verify the unchecked decoder
/// against.
#[cfg(test)]
fn read_varint(data: &[u8], pos: &mut usize) -> u64 {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = data[*pos];
        *pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return value;
        }
        shift += 7;
    }
}

/// Zero bytes appended after the concatenated streams so the decoders
/// may always load 4 bytes starting at a payload's first byte.
const STREAM_PAD: usize = 3;

/// Payload masks for group-varint gaps, indexed by `len − 1`.
const GROUP_MASKS: [u32; 4] = [0xff, 0xffff, 0x00ff_ffff, 0xffff_ffff];

/// Appends `gaps` as group-varint: one tag byte per ≤ 4 gaps carrying
/// their byte lengths (2 bits each, `len − 1`), then the gaps'
/// little-endian bytes, shortest-form. Unlike LEB128, the lengths live
/// in the tag — the decoder never derives a length from payload bytes,
/// so consecutive payload loads don't serialize on each other.
fn write_gap_groups(out: &mut Vec<u8>, gaps: &[u32]) {
    for chunk in gaps.chunks(4) {
        let tag_pos = out.len();
        out.push(0);
        let mut tag = 0u8;
        for (i, &gap) in chunk.iter().enumerate() {
            let len = ((32 - gap.max(1).leading_zeros()) as usize).div_ceil(8);
            tag |= ((len - 1) as u8) << (2 * i);
            out.extend_from_slice(&gap.to_le_bytes()[..len]);
        }
        out[tag_pos] = tag;
    }
}

/// Streaming group-varint gap reader: tracks the byte cursor and the
/// current tag's remaining slots. All four [`CsrBackend`] access forms
/// share it, so the encoding exists in exactly one reader and one
/// writer.
struct GapDecoder {
    pos: usize,
    tag: u32,
    slots: u32,
}

impl GapDecoder {
    #[inline(always)]
    fn new(pos: usize) -> GapDecoder {
        GapDecoder {
            pos,
            tag: 0,
            slots: 0,
        }
    }

    /// Decodes the next gap.
    ///
    /// # Safety
    ///
    /// The cursor must sit on a stream with at least one gap remaining
    /// (so at most 1 tag + 4 payload bytes ahead, all within the
    /// [`STREAM_PAD`]-slackened `data`).
    #[inline(always)]
    unsafe fn next(&mut self, data: *const u8) -> u32 {
        // SAFETY: in-bounds per the contract above.
        unsafe {
            if self.slots == 0 {
                self.tag = u32::from(*data.add(self.pos));
                self.pos += 1;
                self.slots = 4;
            }
            let len = 1 + (self.tag & 3) as usize;
            self.tag >>= 2;
            self.slots -= 1;
            let w = u32::from_le_bytes((data.add(self.pos) as *const [u8; 4]).read_unaligned());
            self.pos += len;
            w & GROUP_MASKS[len - 1]
        }
    }
}

/// Reads one LEB128 varint without bounds checks, branchlessly for the
/// ≤ 4-byte encodings (28 payload bits) that cover every realistic
/// neighbor gap: one unaligned little-endian word load, stop-byte
/// detection via `trailing_zeros` on the inverted continuation bits,
/// and mask/shift extraction of the four 7-bit groups. This is the
/// per-edge instruction stream of every compressed traversal — a
/// per-byte loop's data-dependent continuation branch mispredicts on
/// real gap distributions, which costs more than the whole decode.
///
/// # Safety
///
/// A terminated varint must start at `data[*pos]` with at least 4
/// readable bytes there — the stream well-formedness + [`STREAM_PAD`]
/// invariant [`CsrCompressed`]'s constructors establish and its private
/// fields preserve.
#[inline(always)]
unsafe fn read_varint_unchecked(data: *const u8, pos: &mut usize) -> u64 {
    // SAFETY: caller guarantees 4 readable bytes at `*pos`.
    let w = u32::from_le_bytes(unsafe { (data.add(*pos) as *const [u8; 4]).read_unaligned() });
    let stop = !w & 0x8080_8080;
    if stop != 0 {
        let tz = stop.trailing_zeros(); // 7 | 15 | 23 | 31 → 1..=4 bytes
        *pos += (tz as usize >> 3) + 1;
        // Zero everything past the stop byte, then splice the 7-bit
        // payload groups together (the masks skip continuation bits).
        let w = w & (u32::MAX >> (31 - tz));
        return u64::from(
            (w & 0x7f) | ((w >> 1) & 0x3f80) | ((w >> 2) & 0x001f_c000) | ((w >> 3) & 0x0fe0_0000),
        );
    }
    // SAFETY: forwarded guarantee; ≥ 5-byte varints only arise from the
    // first-neighbor zigzag delta on billion-vertex ranges.
    unsafe { read_varint_tail(data, pos) }
}

/// The ≥ 5-byte continuation of [`read_varint_unchecked`] (first four
/// bytes all had their continuation bit set).
///
/// # Safety
///
/// As [`read_varint_unchecked`]: a terminated varint starts at `*pos`.
#[cold]
unsafe fn read_varint_tail(data: *const u8, pos: &mut usize) -> u64 {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        // SAFETY: still inside the terminated varint.
        let byte = unsafe { *data.add(*pos) };
        *pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return value;
        }
        shift += 7;
    }
}

/// Zigzag-encodes a signed delta into an unsigned varint payload.
#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverts [`zigzag`].
#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// The compressed backend: each vertex's sorted adjacency list as a
/// delta-coded byte stream (Ligra+-style byte codes).
///
/// Layout per vertex: the first neighbor is stored as an LEB128 varint
/// of the zigzag-coded signed delta `n₀ − v` (neighbors cluster near
/// their source on locally-ordered graphs, keeping the delta small);
/// the gaps to each subsequent neighbor (`≥ 1`, since the lists are
/// strictly ascending) follow in group-varint form — a tag byte whose
/// four 2-bit fields give the byte lengths of the next ≤ 4 gaps, then
/// the gaps' shortest-form little-endian bytes. Moving the lengths out
/// of the payload bytes lets the decoder issue one unaligned word load
/// per gap with no continuation-bit branches, which is what keeps the
/// per-edge decode cost near plain-CSR on cache-resident graphs.
/// Decoding is strictly sequential and emits neighbors in ascending
/// order — the property the dense pull kernels' bitwise-determinism
/// contract rests on.
#[derive(Clone, Debug)]
pub struct CsrCompressed {
    /// Byte offset of each vertex's stream in `data` (`n + 1` entries).
    offsets: Box<[usize]>,
    /// Degrees, stored explicitly (a byte stream has no length index).
    degrees: Box<[u32]>,
    /// The concatenated per-vertex byte streams.
    data: Box<[u8]>,
    /// Undirected edge count `m` (adjacency entries / 2).
    num_edges: usize,
}

impl CsrCompressed {
    /// Compresses a plain CSR graph (the graph is unchanged; clustering
    /// pipelines typically build plain, compress, and drop the plain
    /// copy).
    pub fn from_graph(g: &Graph) -> CsrCompressed {
        let n = Graph::num_vertices(g);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut degrees = Vec::with_capacity(n);
        // Social-network gaps usually fit one byte; reserve accordingly.
        let mut data = Vec::with_capacity(Graph::total_degree(g) + n);
        let mut gaps: Vec<u32> = Vec::new();
        offsets.push(0);
        for v in 0..n as u32 {
            let nbrs = g.neighbors(v);
            degrees.push(nbrs.len() as u32);
            if let Some((&first, rest)) = nbrs.split_first() {
                write_varint(&mut data, zigzag(first as i64 - v as i64));
                gaps.clear();
                let mut prev = first;
                for &w in rest {
                    debug_assert!(w > prev, "adjacency must be strictly ascending");
                    gaps.push(w - prev);
                    prev = w;
                }
                write_gap_groups(&mut data, &gaps);
            }
            offsets.push(data.len());
        }
        // The branchless decoder loads 4 bytes from any varint start;
        // padding keeps the tail loads in bounds (offsets still index
        // the logical, unpadded streams).
        data.extend_from_slice(&[0; STREAM_PAD]);
        CsrCompressed {
            offsets: offsets.into_boxed_slice(),
            degrees: degrees.into_boxed_slice(),
            data: data.into_boxed_slice(),
            num_edges: Graph::num_edges(g),
        }
    }

    /// Builds directly from an edge list (cleaning like
    /// [`Graph::from_edges`], then compressing).
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> CsrCompressed {
        CsrCompressed::from_graph(&Graph::from_edges(n, edges))
    }

    /// Decompresses back to the flat-array representation.
    pub fn to_graph(&self) -> Graph {
        let n = self.degrees.len();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(2 * self.num_edges);
        offsets.push(0usize);
        for v in 0..n as u32 {
            self.for_each_neighbor(v, |w| adj.push(w));
            offsets.push(adj.len());
        }
        Graph::from_raw(offsets.into_boxed_slice(), adj.into_boxed_slice())
    }

    /// Total resident bytes (streams + offset and degree indexes).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.degrees.len() * std::mem::size_of::<u32>()
            + self.data.len()
    }
}

impl From<&Graph> for CsrCompressed {
    fn from(g: &Graph) -> CsrCompressed {
        CsrCompressed::from_graph(g)
    }
}

impl From<Graph> for CsrCompressed {
    fn from(g: Graph) -> CsrCompressed {
        CsrCompressed::from_graph(&g)
    }
}

impl CsrBackend for CsrCompressed {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.degrees.len()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.num_edges
    }

    #[inline]
    fn total_degree(&self) -> usize {
        2 * self.num_edges
    }

    #[inline]
    fn degree(&self, v: u32) -> usize {
        self.degrees[v as usize] as usize
    }

    #[inline]
    fn for_each_neighbor(&self, v: u32, mut f: impl FnMut(u32)) {
        let d = self.degrees[v as usize] as usize;
        if d == 0 {
            return;
        }
        let mut pos = self.offsets[v as usize];
        let data = self.data.as_ptr();
        // SAFETY: construction invariant — `v`'s stream (one terminated
        // varint + `d − 1` group-varint gaps) starts at `offsets[v]`
        // and ends at `offsets[v + 1] ≤ ` logical end, with
        // `STREAM_PAD` readable bytes past it.
        unsafe {
            let mut cur = (v as i64 + unzigzag(read_varint_unchecked(data, &mut pos))) as u32;
            f(cur);
            let mut rem = d - 1;
            // Full groups unrolled: all four payload offsets derive from
            // the tag byte alone, so the loads issue in parallel instead
            // of serializing on a byte cursor.
            while rem >= 4 {
                let tag = *data.add(pos) as usize;
                let base = pos + 1;
                let l0 = 1 + (tag & 3);
                let l1 = 1 + ((tag >> 2) & 3);
                let l2 = 1 + ((tag >> 4) & 3);
                let l3 = 1 + (tag >> 6);
                let load =
                    |p: usize| u32::from_le_bytes((data.add(p) as *const [u8; 4]).read_unaligned());
                let g0 = load(base) & GROUP_MASKS[l0 - 1];
                let g1 = load(base + l0) & GROUP_MASKS[l1 - 1];
                let g2 = load(base + l0 + l1) & GROUP_MASKS[l2 - 1];
                let g3 = load(base + l0 + l1 + l2) & GROUP_MASKS[l3 - 1];
                cur += g0;
                f(cur);
                cur += g1;
                f(cur);
                cur += g2;
                f(cur);
                cur += g3;
                f(cur);
                pos = base + l0 + l1 + l2 + l3;
                rem -= 4;
            }
            let mut dec = GapDecoder::new(pos);
            for _ in 0..rem {
                cur += dec.next(data);
                f(cur);
            }
        }
    }

    #[inline]
    fn for_each_neighbor_in(&self, v: u32, start: usize, end: usize, mut f: impl FnMut(u32)) {
        let d = self.degrees[v as usize] as usize;
        debug_assert!(start <= end && end <= d);
        if start >= end || d == 0 {
            return;
        }
        let mut pos = self.offsets[v as usize];
        let data = self.data.as_ptr();
        // SAFETY: as in `for_each_neighbor`, with `end ≤ d` decoded.
        unsafe {
            let mut cur = (v as i64 + unzigzag(read_varint_unchecked(data, &mut pos))) as u32;
            if start == 0 {
                f(cur);
            }
            let mut dec = GapDecoder::new(pos);
            for k in 1..end {
                cur += dec.next(data);
                if k >= start {
                    f(cur);
                }
            }
        }
    }

    #[inline]
    fn neighbor_at(&self, v: u32, k: usize) -> u32 {
        debug_assert!(k < self.degree(v));
        let mut pos = self.offsets[v as usize];
        let data = self.data.as_ptr();
        // SAFETY: `k < degree(v)`, so at most `degree(v)` entries are
        // decoded — all within `v`'s stream.
        unsafe {
            let mut cur = (v as i64 + unzigzag(read_varint_unchecked(data, &mut pos))) as u32;
            let mut dec = GapDecoder::new(pos);
            for _ in 0..k {
                cur += dec.next(data);
            }
            cur
        }
    }

    fn adjacency_bytes(&self) -> usize {
        // The logical stream bytes (excludes the decoder padding).
        self.offsets[self.degrees.len()]
    }

    fn memory_bytes(&self) -> usize {
        CsrCompressed::memory_bytes(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn reference_graphs() -> Vec<Graph> {
        vec![
            Graph::from_edges(1, &[]),
            Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (5, 0)]),
            gen::star(50),
            gen::cycle(64),
            gen::rand_local(300, 5, 7),
            gen::rmat_graph500(9, 8, 3),
        ]
    }

    fn assert_backends_agree(g: &Graph) {
        let c = CsrCompressed::from_graph(g);
        assert_eq!(CsrBackend::num_vertices(&c), Graph::num_vertices(g));
        assert_eq!(CsrBackend::num_edges(&c), Graph::num_edges(g));
        assert_eq!(CsrBackend::total_degree(&c), Graph::total_degree(g));
        for v in 0..Graph::num_vertices(g) as u32 {
            assert_eq!(CsrBackend::degree(&c, v), Graph::degree(g, v), "v={v}");
            let mut all = Vec::new();
            c.for_each_neighbor(v, |w| all.push(w));
            assert_eq!(all, g.neighbors(v), "v={v}");
            for (k, &w) in g.neighbors(v).iter().enumerate() {
                assert_eq!(CsrBackend::neighbor_at(&c, v, k), w);
            }
            // Sub-range decode matches direct slicing.
            let d = Graph::degree(g, v);
            for (s, e) in [(0, d), (d / 3, d), (0, d / 2), (d / 2, d.div_ceil(2))] {
                let mut got = Vec::new();
                c.for_each_neighbor_in(v, s, e, |w| got.push(w));
                assert_eq!(got, &g.neighbors(v)[s..e], "v={v} [{s},{e})");
            }
        }
    }

    #[test]
    fn compressed_matches_plain_on_reference_graphs() {
        for g in reference_graphs() {
            assert_backends_agree(&g);
        }
    }

    /// The §2 set queries on a 0-1-2 triangle with a 2-3 tail, through
    /// the trait's provided methods.
    #[test]
    fn volume_boundary_conductance() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        assert_eq!(g.volume(&[0, 1]), 4);
        // ∂({0,1}) = {0-2, 1-2}; φ({0,1}) = 2 / min(4, 8-4) = 0.5
        assert_eq!(g.boundary_size(&[0, 1]), 2);
        assert_eq!(g.conductance(&[0, 1]), 0.5);
        // φ({3}) = 1 / min(1, 7) = 1
        assert_eq!(g.conductance(&[3]), 1.0);
        assert!(g.conductance(&[]).is_infinite());
        assert!(g.conductance(&[0, 1, 2, 3]).is_infinite());
        assert_eq!(cut_conductance(2, 4, 8), 0.5);
        assert!(cut_conductance(0, 0, 8).is_infinite());
        assert!(cut_conductance(0, 8, 8).is_infinite());
    }

    #[test]
    fn roundtrip_through_to_graph() {
        for g in reference_graphs() {
            let c = CsrCompressed::from_graph(&g);
            let back = c.to_graph();
            assert_eq!(back.num_edges(), g.num_edges());
            for v in 0..g.num_vertices() as u32 {
                assert_eq!(back.neighbors(v), g.neighbors(v));
            }
        }
    }

    #[test]
    fn varint_zigzag_roundtrip() {
        for d in [
            0i64,
            1,
            -1,
            63,
            -64,
            300,
            -300,
            i64::from(u32::MAX),
            -(i64::from(u32::MAX)),
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, zigzag(d));
            let mut pos = 0;
            assert_eq!(unzigzag(read_varint(&buf, &mut pos)), d);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn unchecked_reader_matches_checked() {
        let vals: Vec<u64> = (0..2000u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (i % 64))
            .collect();
        let mut buf = Vec::new();
        for &v in &vals {
            write_varint(&mut buf, v);
        }
        let logical = buf.len();
        buf.extend_from_slice(&[0; STREAM_PAD]); // decoder load slack
        let (mut a, mut b) = (0usize, 0usize);
        for &v in &vals {
            assert_eq!(read_varint(&buf, &mut a), v);
            // SAFETY: `buf` holds well-formed varints plus STREAM_PAD
            // slack bytes, so 4 bytes are readable at every cursor.
            assert_eq!(unsafe { read_varint_unchecked(buf.as_ptr(), &mut b) }, v);
            assert_eq!(a, b);
        }
        assert_eq!(a, logical);
    }

    #[test]
    fn compression_shrinks_local_graphs() {
        // Gap-coded neighbors of a locally-clustered graph fit in 1–2
        // bytes; plain CSR pays 4 per neighbor.
        let g = gen::rand_local(4000, 8, 1);
        let c = CsrCompressed::from_graph(&g);
        let plain = CsrBackend::adjacency_bytes(&g);
        let comp = CsrBackend::adjacency_bytes(&c);
        assert!(
            (plain as f64) / (comp as f64) >= 2.0,
            "plain {plain} vs compressed {comp}"
        );
        assert!(c.memory_bytes() < Graph::memory_bytes(&g));
    }

    #[test]
    fn memory_bytes_accounts_all_arrays() {
        let g = gen::cycle(10);
        assert_eq!(Graph::memory_bytes(&g), 11 * 8 + 20 * 4);
        let c = CsrCompressed::from_graph(&g);
        assert_eq!(
            c.memory_bytes(),
            11 * 8 + 10 * 4 + CsrBackend::adjacency_bytes(&c) + STREAM_PAD
        );
    }
}
