//! FNV-1a: artifacts and bundles are fingerprinted with [`fnv1a`]; key
//! words are folded with [`fold`] (the single-threaded code cache's start
//! slot), and [`finalized`] finishes that fold with murmur3's `fmix64`
//! (the shared code cache, the flight map and the emitter's unit-key
//! interner).

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    (bytes.iter()).fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// FNV-1a over key words, one word per step. Its low bits depend mostly
/// on the low bits of the words, so keys that differ only in their high
/// bits (float keys, say) share them.
#[inline]
pub(crate) fn fold(words: &[u64]) -> u64 {
    (words.iter()).fold(FNV_OFFSET, |h, &w| (h ^ w).wrapping_mul(FNV_PRIME))
}

/// [`fold`] finished with murmur3's `fmix64`, so every output bit depends
/// on every bit of every word: both ends of the hash are usable at once.
#[inline]
pub(crate) fn finalized(words: &[u64]) -> u64 {
    let mut h = fold(words);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Known FNV-1a test vectors.
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn finalized_spreads_high_bit_keys_over_the_low_bits() {
        // Float keys differ only in their high bits: FNV's low bits
        // barely move, the finalized hash's do.
        let keys: Vec<u64> = (0..64).map(|k| (f64::from(k) * 0.5).to_bits()).collect();
        let low = |h: fn(&[u64]) -> u64| {
            let mut seen: Vec<u64> = keys.iter().map(|&k| h(&[k]) & 63).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.len()
        };
        assert!(low(fold) <= 4, "FNV's low bits took {} values", low(fold));
        assert!(low(finalized) >= 32);
    }
}
