//! FNV-1a: artifacts and bundles are fingerprinted with [`fnv1a`], and the
//! emitter's unit-key interner folds its key words with the same
//! constants (the function the concurrent shard selector and `dyc-obs`
//! key hashing use).

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
}
