//! Direct-mapped L1 instruction-cache simulator.
//!
//! The 21164's L1 I-cache is 8KB, direct-mapped, with 32-byte lines. The
//! paper's pnmconvol result hinges on it: without dynamic dead-assignment
//! elimination "the amount of generated code exceeded the size of the L1
//! cache by a factor of 2.7, causing slowdowns relative to the static code"
//! (§4.4.4). Each VM instruction occupies one 4-byte slot, so a line holds 8
//! instructions.
//!
//! Code placement: every function (static or dynamically generated) is
//! assigned a distinct address range by the [`Module`](crate::module::Module)
//! so that different code bodies genuinely compete for cache lines.

/// Direct-mapped I-cache model.
#[derive(Debug, Clone)]
pub struct ICache {
    /// log2(line size in bytes).
    line_shift: u32,
    /// Tag store, one entry per line; `u64::MAX` = invalid. Its length is
    /// a power of two, so a line's index is `line & (len - 1)`.
    tags: Vec<u64>,
    /// The line of the previous fetch (`u64::MAX` = none). That fetch
    /// left the line resident, and only another fetch, `flush` or
    /// `reset` can evict it, so a fetch from it is a hit without a tag
    /// lookup; `flush` and `reset` clear it.
    last_line: u64,
    /// Number of accesses.
    accesses: u64,
    /// Number of misses.
    misses: u64,
}

/// Bytes occupied by one VM instruction for cache-addressing purposes.
pub const INSTR_BYTES: u64 = 4;

impl ICache {
    /// Create a direct-mapped cache of `size_bytes` with `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics unless both sizes are powers of two and
    /// `size_bytes >= line_bytes`.
    pub fn new(size_bytes: u64, line_bytes: u64) -> ICache {
        assert!(
            size_bytes.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(size_bytes >= line_bytes);
        let lines = (size_bytes / line_bytes) as usize;
        ICache {
            line_shift: line_bytes.trailing_zeros(),
            tags: vec![u64::MAX; lines],
            last_line: u64::MAX,
            accesses: 0,
            misses: 0,
        }
    }

    /// The 21164 configuration: 8KB, direct-mapped, 32-byte lines.
    pub fn alpha21164() -> ICache {
        ICache::new(8 * 1024, 32)
    }

    /// Simulate a fetch of the instruction at byte address `addr`.
    /// Returns `true` on a miss.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        line != self.last_line && self.fetch_line(line)
    }

    /// A fetch from a line other than the previous fetch's: look up and
    /// replace its tag.
    fn fetch_line(&mut self, line: u64) -> bool {
        self.last_line = line;
        let idx = (line as usize) & (self.tags.len() - 1);
        if self.tags[idx] == line {
            false
        } else {
            self.tags[idx] = line;
            self.misses += 1;
            true
        }
    }

    /// Number of fetches simulated.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio (0 if no accesses yet).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Capacity in instructions (how much straight-line code fits).
    pub fn capacity_instrs(&self) -> u64 {
        (self.tags.len() as u64) << self.line_shift >> INSTR_BYTES.trailing_zeros()
    }

    /// Invalidate all lines, preserving statistics. The run-time system
    /// calls this after installing new code ("operations to ensure
    /// instruction-cache coherence" are one of the overhead sources listed
    /// in §4.2).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.last_line = u64::MAX;
    }

    /// Reset statistics and contents.
    pub fn reset(&mut self) {
        self.flush();
        self.accesses = 0;
        self.misses = 0;
    }
}

impl Default for ICache {
    fn default() -> Self {
        ICache::alpha21164()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_fetch_misses_once_per_line() {
        let mut c = ICache::new(1024, 32);
        // 64 instructions = 256 bytes = 8 lines.
        for i in 0..64u64 {
            c.access(i * INSTR_BYTES);
        }
        assert_eq!(c.accesses(), 64);
        assert_eq!(c.misses(), 8);
    }

    #[test]
    fn loop_that_fits_hits_after_warmup() {
        let mut c = ICache::new(1024, 32);
        for _round in 0..10 {
            for i in 0..16u64 {
                c.access(i * INSTR_BYTES);
            }
        }
        // 16 instructions = 2 lines; only the first round misses.
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn loop_larger_than_cache_thrashes() {
        let mut c = ICache::new(256, 32); // 8 lines, 64 instructions capacity
        let body = 128u64; // 2x capacity
        for _round in 0..4 {
            for i in 0..body {
                c.access(i * INSTR_BYTES);
            }
        }
        // Every line conflicts with its alias: all accesses at line
        // granularity miss in every round.
        assert_eq!(c.misses(), 4 * body / 8);
        assert!(c.miss_ratio() > 0.12);
    }

    #[test]
    fn last_line_memo_matches_a_tag_lookup_on_every_fetch() {
        // Reference: the same direct-mapped cache without the memo.
        let mut tags = [u64::MAX; 8];
        let mut c = ICache::new(256, 32);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..20_000u64 {
            if i.is_multiple_of(997) {
                c.flush();
                tags.fill(u64::MAX);
            }
            // Mostly sequential fetches with frequent jumps between
            // aliasing lines, like a loop calling a distant function.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = if x.is_multiple_of(4) {
                (x >> 8) % 1024
            } else {
                i % 96
            } * INSTR_BYTES;
            let line = addr >> 5;
            let slot = (line % 8) as usize;
            let want = tags[slot] != line;
            tags[slot] = line;
            assert_eq!(c.access(addr), want, "fetch {i} at {addr}");
        }
    }

    #[test]
    fn capacity_matches_config() {
        assert_eq!(ICache::alpha21164().capacity_instrs(), 2048);
    }

    #[test]
    fn flush_preserves_stats() {
        let mut c = ICache::new(256, 32);
        c.access(0);
        c.flush();
        assert_eq!(c.accesses(), 1);
        assert_eq!(c.misses(), 1);
        assert!(c.access(0)); // misses again after flush
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = ICache::new(1000, 32);
    }
}
