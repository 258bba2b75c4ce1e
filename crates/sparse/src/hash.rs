//! Integer hashing for vertex ids.

/// Mixes a 32-bit vertex id into a well-distributed 64-bit hash
/// (the SplitMix64 finalizer). Linear probing requires strong avalanche
/// behaviour — sequential vertex ids must not cluster into runs.
#[inline]
pub(crate) fn hash_u32(key: u32) -> u64 {
    let mut x = (key as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_inputs_distinct_hashes() {
        // Not a proof, but catches catastrophic regressions.
        let mut seen = std::collections::HashSet::new();
        for k in 0..100_000u32 {
            assert!(seen.insert(hash_u32(k)));
        }
    }

    #[test]
    fn sequential_ids_spread_across_buckets() {
        // With 2^16 buckets, 65536 consecutive ids should hit a large
        // fraction of distinct buckets (no linear clustering).
        let mask = (1u64 << 16) - 1;
        let distinct: std::collections::HashSet<u64> =
            (0..65_536u32).map(|k| hash_u32(k) & mask).collect();
        assert!(distinct.len() > 40_000, "got {}", distinct.len());
    }
}
