//! A fixed-universe bitset with parallel construction and enumeration —
//! the dense half of a Ligra-style frontier.
//!
//! Direction-optimizing traversals need to answer "is `v` in the
//! frontier?" in O(1) from many threads while the frontier itself was
//! produced as a sorted id list. [`Bitset`] stores one bit per vertex in
//! atomic 64-bit words so that
//!
//! * membership writes from concurrent chunks are safe (two sorted-id
//!   chunks can share a boundary word, so [`Bitset::set_sorted`] uses a
//!   relaxed `fetch_or`, coalescing all bits that fall into one word into
//!   a single RMW),
//! * membership reads ([`Bitset::contains`]) are one relaxed load + mask,
//! * clearing by the previous id list ([`Bitset::clear_sorted`]) costs
//!   `O(len)` — racy duplicate stores of `0` to a shared word are benign —
//!   so a recycled bitset never pays the `O(n/64)` full wipe twice,
//! * a traversal that owns a whole range of vertices reads and writes the
//!   set a word at a time ([`Bitset::word`], [`Bitset::store_word`]): a
//!   dense `edgeMap` emits its output frontier with one plain store per 64
//!   destinations, and a set with no id list at hand is wiped by words
//!   ([`Bitset::clear_all`]).
//!
//! Conversion back to a sorted id list ([`Bitset::to_sorted_ids`]) is the
//! classic parallel pack: per-chunk popcounts, an exclusive prefix sum for
//! the output offsets, then an independent write pass per chunk.

use crate::{scan_exclusive, Pool};
#[expect(
    clippy::disallowed_types,
    reason = "frontier bits in atomic words: relaxed `fetch_or` marks on shared boundary words, relaxed loads and word stores"
)]
use std::sync::atomic::{AtomicU64, Ordering};

/// How many vertices one enumeration/clear chunk covers (a multiple of
/// 64 so chunks own whole words).
const WORDS_PER_CHUNK: usize = 1 << 10;

/// A set over the fixed universe `0..n`, one bit per element.
pub struct Bitset {
    lines: Box<[Line]>,
    n: usize,
}

/// Eight words on a cache line of their own, so that the 512-vertex chunks
/// of the dense traversals never write a line a neighbouring chunk writes.
#[derive(Default)]
#[repr(align(64))]
struct Line([AtomicU64; 8]);

impl Bitset {
    /// An empty set over universe `0..n`.
    pub fn new(n: usize) -> Self {
        Bitset {
            lines: (0..n.div_ceil(512)).map(|_| Line::default()).collect(),
            n,
        }
    }

    /// The universe size `n` fixed at construction.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Resident bytes of the word array.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.lines)
    }

    /// The cell holding word `w` of the set.
    #[inline]
    fn cell(&self, w: usize) -> &AtomicU64 {
        &self.lines[w >> 3].0[w & 7]
    }

    /// Number of words covering the universe, `⌈n / 64⌉`.
    pub fn num_words(&self) -> usize {
        self.n.div_ceil(64)
    }

    /// Word `w` of the set: bit `i` is member `64w + i` (relaxed load, as
    /// [`Bitset::contains`]).
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.cell(w).load(Ordering::Relaxed)
    }

    /// Overwrites word `w` — members `64w..64w + 64` all at once — with a
    /// plain store. The caller must be the only writer of that word in this
    /// phase, which a traversal partitioned into whole-word vertex ranges is
    /// (the dense traversals' 512-vertex chunks own one line of eight).
    #[inline]
    pub fn store_word(&self, w: usize, bits: u64) {
        debug_assert!(w < self.num_words(), "word out of universe");
        debug_assert!(
            64 * (w + 1) <= self.n || bits >> (self.n - 64 * w) == 0,
            "bits past the universe"
        );
        self.cell(w).store(bits, Ordering::Relaxed);
    }

    /// Empties the set by words — `n/64` stores on the calling thread, the
    /// wipe for a set whose member list was never built (sequential point).
    pub fn clear_all(&self) {
        for w in 0..self.num_words() {
            self.cell(w).store(0, Ordering::Relaxed);
        }
    }

    /// Whether `v` is in the set (safe during a write phase that only
    /// *adds* members; relaxed — phase boundaries provide ordering).
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        let i = v as usize;
        debug_assert!(i < self.n, "id out of universe");
        self.word(i >> 6) & (1u64 << (i & 63)) != 0
    }

    /// Inserts one id (safe from any thread; relaxed RMW) and says whether
    /// it was absent and whether its word was empty — of several threads
    /// inserting one id, exactly one hears it was absent, and of several
    /// inserting into one word, exactly one hears the word was empty.
    #[inline]
    pub fn insert(&self, v: u32) -> (bool, bool) {
        let i = v as usize;
        debug_assert!(i < self.n, "id out of universe");
        let bit = 1u64 << (i & 63);
        let before = self.cell(i >> 6).fetch_or(bit, Ordering::Relaxed);
        (before & bit == 0, before == 0)
    }

    /// Inserts every id of a sorted list in parallel — `O(len)` work.
    /// The caller must be the only writer during the call (the sequential
    /// point every frontier construction already is).
    ///
    /// Ids falling into one word are coalesced into a single update. Only
    /// a chunk's *first and last* words can be shared with a neighboring
    /// chunk (the ids are sorted, so each chunk owns a contiguous id
    /// range); those two use an atomic `fetch_or`, while every interior
    /// word — all of them, on a single-threaded pool — takes a plain
    /// load/store with no lock-prefixed RMW. This is the ROADMAP's
    /// "non-atomic fast path": `T1` dense iterations no longer pay an
    /// atomic per frontier word just because the words are `AtomicU64`.
    pub fn set_sorted(&self, pool: &Pool, ids: &[u32]) {
        pool.run(ids.len(), 1 << 11, |s, e| {
            let chunk = &ids[s..e];
            // Words that may be shared with the previous/next chunk.
            let first_w = (chunk[0] as usize) >> 6;
            let last_w = (chunk[chunk.len() - 1] as usize) >> 6;
            let shared = |w: usize| (w == first_w && s > 0) || (w == last_w && e < ids.len());
            let mut k = 0;
            while k < chunk.len() {
                let w = (chunk[k] as usize) >> 6;
                let mut mask = 0u64;
                while k < chunk.len() && (chunk[k] as usize) >> 6 == w {
                    mask |= 1u64 << (chunk[k] & 63);
                    k += 1;
                }
                if shared(w) {
                    self.cell(w).fetch_or(mask, Ordering::Relaxed);
                } else {
                    self.cell(w).store(self.word(w) | mask, Ordering::Relaxed);
                }
            }
        });
    }

    /// Clears the words containing the given sorted ids — `O(len)`, the
    /// cheap wipe when the previous member list is still at hand.
    /// (Duplicate zero-stores to a shared boundary word are benign.)
    pub fn clear_sorted(&self, pool: &Pool, ids: &[u32]) {
        pool.run(ids.len(), 1 << 11, |s, e| {
            for &v in &ids[s..e] {
                self.cell((v as usize) >> 6).store(0, Ordering::Relaxed);
            }
        });
    }

    /// Members among words `s..e`.
    fn count_words(&self, s: usize, e: usize) -> usize {
        (s..e).map(|w| self.word(w).count_ones() as usize).sum()
    }

    /// Number of members — an `O(n/64)` popcount on the calling thread
    /// (sequential point).
    pub fn count_seq(&self) -> usize {
        self.count_words(0, self.lines.len() * 8)
    }

    /// Packs the members into a sorted id list — `O(n/64 + len)` work:
    /// per-chunk popcounts, a prefix sum for offsets, then each chunk
    /// writes its ids independently.
    pub fn to_sorted_ids(&self, pool: &Pool) -> Vec<u32> {
        self.pack(pool, self.lines.len() * 8, |i| i)
    }

    /// Packs the members of the listed words — ascending, distinct word
    /// indices that hold every member — into a sorted id list:
    /// `O(words.len() + len)` work, as [`Bitset::to_sorted_ids`] over the
    /// listed words only.
    pub fn to_sorted_ids_in(&self, pool: &Pool, words: &[u32]) -> Vec<u32> {
        self.pack(pool, words.len(), |i| words[i] as usize)
    }

    /// The pack over the `count` words `word_at(0..count)`, ascending.
    fn pack(&self, pool: &Pool, count: usize, word_at: impl Fn(usize) -> usize + Sync) -> Vec<u32> {
        let chunk = |c: usize| c * WORDS_PER_CHUNK..((c + 1) * WORDS_PER_CHUNK).min(count);
        let counts = crate::map_index(pool, count.div_ceil(WORDS_PER_CHUNK), |c| {
            chunk(c)
                .map(|i| self.word(word_at(i)).count_ones() as usize)
                .sum()
        });
        let (mut bounds, total) = scan_exclusive(pool, &counts, 0usize, |a, b| a + b);
        bounds.push(total);
        let mut out = vec![0u32; total];
        pool.map_ranges_mut(&mut out, &bounds, |c, part| {
            let mut pos = 0;
            for w in chunk(c).map(&word_at) {
                for v in ones(w, self.word(w)) {
                    part[pos] = v;
                    pos += 1;
                }
            }
        });
        out
    }
}

/// The members of word `w` whose bits are set in `bits`, ascending — the
/// one walk over the bits of a word.
#[inline]
pub fn ones(w: usize, mut bits: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let b = (bits != 0).then(|| bits.trailing_zeros())?;
        bits &= bits - 1;
        Some((64 * w) as u32 + b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_sorted_ids() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let n = 10_000;
            let ids: Vec<u32> = (0..n as u32)
                .filter(|v| v % 7 == 0 || v % 64 == 63)
                .collect();
            let bits = Bitset::new(n);
            bits.set_sorted(&pool, &ids);
            for v in 0..n as u32 {
                assert_eq!(bits.contains(v), ids.binary_search(&v).is_ok(), "v={v}");
            }
            assert_eq!(bits.count_seq(), ids.len());
            assert_eq!(bits.to_sorted_ids(&pool), ids, "t={threads}");
            let words: Vec<u32> = (0..bits.num_words() as u32)
                .filter(|&w| bits.word(w as usize) != 0)
                .collect();
            assert_eq!(bits.to_sorted_ids_in(&pool, &words), ids, "t={threads}");
        }
    }

    #[test]
    fn empty_and_full() {
        let pool = Pool::new(2);
        let bits = Bitset::new(129);
        assert_eq!(bits.count_seq(), 0);
        assert!(bits.to_sorted_ids(&pool).is_empty());
        let all: Vec<u32> = (0..129).collect();
        bits.set_sorted(&pool, &all);
        assert_eq!(bits.count_seq(), 129);
        assert_eq!(bits.to_sorted_ids(&pool), all);
        bits.clear_sorted(&pool, &all);
        assert_eq!(bits.count_seq(), 0);
    }

    /// Word `8k` starts a cache line, whatever the allocator handed out:
    /// a dense traversal's 512-vertex chunk owns its line of the set.
    #[test]
    fn every_eighth_word_starts_a_cache_line() {
        for n in [1, 64, 513, 300_000] {
            let bits = Bitset::new(n);
            for w in (0..n.div_ceil(64)).step_by(8) {
                assert_eq!(bits.cell(w) as *const AtomicU64 as usize % 64, 0);
            }
            assert_eq!(bits.resident_bytes(), n.div_ceil(512) * 64);
        }
    }

    /// The word view is the member view: storing word `w` sets members
    /// `64w..64w + 64` all at once, and a wipe by words leaves nothing.
    #[test]
    fn words_are_the_members_sixty_four_at_a_time() {
        let pool = Pool::new(2);
        let n = 1000; // 15 full words and one of 40 bits
        let bits = Bitset::new(n);
        assert_eq!(bits.num_words(), 16);
        let ids: Vec<u32> = (0..n as u32).filter(|v| v % 5 == 1).collect();
        for w in 0..bits.num_words() {
            let members = ids.iter().filter(|&&v| v as usize / 64 == w);
            bits.store_word(w, members.fold(0, |word, &v| word | 1u64 << (v % 64)));
        }
        assert_eq!(bits.to_sorted_ids(&pool), ids);
        let want = Bitset::new(n);
        want.set_sorted(&pool, &ids);
        assert!((0..16).all(|w| bits.word(w) == want.word(w)));
        bits.store_word(3, 0);
        assert!((192..256).all(|v| !bits.contains(v)) && bits.contains(191));
        bits.clear_all();
        assert_eq!(bits.count_seq(), 0);
    }

    #[test]
    fn clear_sorted_recycles() {
        let pool = Pool::new(2);
        let bits = Bitset::new(1000);
        let a: Vec<u32> = (0..1000).step_by(3).collect();
        bits.set_sorted(&pool, &a);
        bits.clear_sorted(&pool, &a);
        assert_eq!(bits.count_seq(), 0, "clear by id list wipes everything");
        let b = vec![1u32, 63, 64, 999];
        bits.set_sorted(&pool, &b);
        assert_eq!(bits.to_sorted_ids(&pool), b);
    }

    #[test]
    fn word_boundary_neighbors_from_parallel_chunks() {
        // Ids 63 and 64 sit in adjacent words; dense runs crossing word
        // boundaries must survive chunked parallel insertion.
        let pool = Pool::new(4);
        let n = 1 << 16;
        let ids: Vec<u32> = (0..n as u32).collect();
        let bits = Bitset::new(n);
        bits.set_sorted(&pool, &ids);
        assert_eq!(bits.count_seq(), n);
    }

    #[test]
    fn set_sorted_matches_per_insert_across_chunkings() {
        // The boundary-aware fast path (plain stores for chunk-interior
        // words, RMW only at chunk edges) must produce exactly the set
        // that per-id atomic inserts produce, for id patterns that share
        // words across chunk boundaries and at any thread count.
        let n = 1 << 15;
        let patterns: Vec<Vec<u32>> = vec![
            (0..n as u32).collect(),                         // every id
            (0..n as u32).filter(|v| v % 63 == 0).collect(), // straddles words
            (0..n as u32).filter(|v| v & 64 == 0).collect(), // alternating words
            vec![0, 1, 62, 63, 64, 65, 127, 128, (n - 1) as u32],
        ];
        for ids in &patterns {
            let want = Bitset::new(n);
            for (i, &v) in ids.iter().enumerate() {
                let empty = i == 0 || ids[i - 1] >> 6 != v >> 6;
                assert_eq!(
                    want.insert(v),
                    (true, empty),
                    "a first insert finds {v} absent"
                );
                assert_eq!(want.insert(v), (false, false), "a second finds it present");
            }
            for threads in [1, 2, 4] {
                let pool = Pool::new(threads);
                let bits = Bitset::new(n);
                bits.set_sorted(&pool, ids);
                assert_eq!(
                    bits.to_sorted_ids(&pool),
                    want.to_sorted_ids(&pool),
                    "|ids|={} t={threads}",
                    ids.len()
                );
            }
        }
    }

    #[test]
    fn zero_universe() {
        let pool = Pool::new(2);
        let bits = Bitset::new(0);
        assert_eq!(bits.count_seq(), 0);
        assert!(bits.to_sorted_ids(&pool).is_empty());
    }
}
