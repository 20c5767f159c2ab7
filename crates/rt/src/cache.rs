//! The dynamic-code cache.
//!
//! DyC's default `cache-all` policy "maintains a cache at each of these
//! points, implemented using double hashing" (§2.2.3, citing Cormen et
//! al.). The cache maps the values of the static variables at a promotion
//! point to the code specialized for those values. We implement the same
//! open-addressing double-hash table and meter its probe counts so the
//! dispatch-cost analysis of §4.4.3 (~90 cycles per hashed dispatch,
//! rising to ~150 under collisions as in mipsi) can be reproduced.
//!
//! The table is generic over its value type and its hash scheme
//! ([`Probing`]): single-threaded dispatch stores [`FuncId`]s under DyC's
//! scheme ([`Fnv`], whose probe counts the cycle model charges), while
//! the sharded concurrent cache ([`crate::concurrent`]) stores registry
//! handles under [`Mixed`], whose one hash also picks the shard. A key
//! of up to [`INLINE_KEY_WORDS`] words lives inside its slot; a longer
//! one is boxed. Deletion (needed by the bounded `cache_all(k)` eviction
//! policy) uses tombstones so probe chains through deleted slots stay
//! intact.
//!
//! A bounded site picks what to evict with one second-chance clock
//! (`EvictCtl`), the same in both code stores.

use crate::fnv;
use crate::policy::PolicyEngine;
use dyc_vm::FuncId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Result of a metered lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probed<T> {
    /// The value found, if any.
    pub value: Option<T>,
    /// Number of slots inspected.
    pub probes: u32,
}

/// Result of an entry-style lookup: a hit, or a reserved vacant slot the
/// caller fills after specializing (one hash for the miss+insert pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheEntry<V = FuncId> {
    /// The key is cached.
    Hit {
        /// The cached specialization.
        value: V,
        /// Slots inspected.
        probes: u32,
    },
    /// The key is absent; `slot` is where it belongs.
    Vacant {
        /// Slot index to pass to [`DoubleHashCache::fill`].
        slot: usize,
        /// Slots inspected.
        probes: u32,
    },
}

/// Where a key's probe sequence starts and how it steps: a table's hash
/// scheme. The start slot is the hash's low bits; the step is odd, so
/// it is coprime with the power-of-two table size and a probe sequence
/// visits every slot. Only a lookup whose first probe misses computes
/// the step.
pub trait Probing {
    /// The key's hash.
    fn hash(key: &[u64]) -> u64;
    /// The probe step for `key`, whose hash is `hash`, in a table of `m`
    /// slots.
    fn step(key: &[u64], hash: u64, m: usize) -> usize;
}

/// DyC's scheme, the single-threaded store's: the start slot is the low
/// bits of an FNV-1a fold of the key words, the step an independent fold.
/// Its probe counts are the ones the §4.4.3 cycle model charges. Keys
/// that differ only in their high bits (float keys) share start slots.
#[derive(Debug, Clone, Copy)]
pub struct Fnv;

impl Probing for Fnv {
    #[inline]
    fn hash(key: &[u64]) -> u64 {
        fnv::fold(key)
    }

    #[inline]
    fn step(key: &[u64], _hash: u64, m: usize) -> usize {
        let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
        for w in key {
            h = h.rotate_left(13) ^ w.wrapping_mul(0xff51_afd7_ed55_8ccd);
        }
        ((h as usize) & (m - 1)) | 1
    }
}

/// The shared cache's scheme: FNV-1a finished with murmur3's `fmix64`,
/// so every bit of the hash depends on every bit of the key. The
/// sharded cache hashes a key once per operation and takes the shard
/// from the top bits; the start slot is the bottom bits and the step the
/// bits from 32 up.
#[derive(Debug, Clone, Copy)]
pub struct Mixed;

impl Probing for Mixed {
    #[inline]
    fn hash(key: &[u64]) -> u64 {
        fnv::finalized(key)
    }

    #[inline]
    fn step(_key: &[u64], hash: u64, m: usize) -> usize {
        (((hash >> 32) as usize) & (m - 1)) | 1
    }
}

/// Key words a slot stores inline. The shared cache's key for a site
/// with one promoted value (`[site, value]`, `serve`'s) fits, as does
/// the single-threaded store's key for a site with up to two; a longer
/// key is boxed.
pub const INLINE_KEY_WORDS: usize = 2;

/// A cached key, inside its slot when it is short.
#[derive(Debug, Clone, PartialEq)]
enum SlotKey {
    /// The key's length and its words, zero-padded.
    Inline(u8, [u64; INLINE_KEY_WORDS]),
    Boxed(Box<[u64]>),
}

impl SlotKey {
    fn new(key: &[u64]) -> SlotKey {
        if key.len() <= INLINE_KEY_WORDS {
            let mut words = [0; INLINE_KEY_WORDS];
            words[..key.len()].copy_from_slice(key);
            SlotKey::Inline(key.len() as u8, words)
        } else {
            SlotKey::Boxed(key.into())
        }
    }

    fn as_slice(&self) -> &[u64] {
        match self {
            SlotKey::Inline(n, words) => &words[..*n as usize],
            SlotKey::Boxed(words) => words,
        }
    }

    /// `self == key`, word by word for an inline key.
    #[inline]
    fn matches(&self, key: &[u64]) -> bool {
        match self {
            SlotKey::Inline(n, words) => {
                *n as usize == key.len() && words.iter().zip(key).all(|(a, b)| a == b)
            }
            SlotKey::Boxed(words) => **words == *key,
        }
    }
}

/// One open-addressed slot. `Tomb` marks a deleted entry: probes continue
/// through it (the chain may have been built around the dead key) but
/// inserts may reuse it.
#[derive(Debug, Clone, PartialEq)]
enum Slot<V> {
    Empty,
    Tomb,
    Full(SlotKey, V),
}

/// An open-addressing hash table with double hashing, keyed by the values
/// of the static variables at a promotion point, under the hash scheme
/// `P`.
///
/// # Examples
///
/// ```
/// use dyc_rt::DoubleHashCache;
/// use dyc_vm::FuncId;
///
/// let mut c = DoubleHashCache::new();
/// assert_eq!(c.lookup(&[42]).value, None);          // miss
/// c.insert(&[42], FuncId(7));
/// assert_eq!(c.lookup(&[42]).value, Some(FuncId(7))); // hit
/// assert_eq!(c.remove(&[42]), Some(FuncId(7)));     // evict
/// assert_eq!(c.lookup(&[42]).value, None);
/// // Probe metering feeds the §4.4.3 dispatch-cost analysis.
/// assert_eq!(c.lookups, 3);
/// assert!(c.mean_probes() >= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct DoubleHashCache<V = FuncId, P = Fnv> {
    slots: Vec<Slot<V>>,
    len: usize,
    /// Tombstones currently in the table (count toward the load factor so
    /// probe chains stay short even under heavy eviction churn).
    tombs: usize,
    /// Total probes across all lookups (for dispatch-cost reporting).
    pub total_probes: u64,
    /// Total lookups.
    pub lookups: u64,
    scheme: std::marker::PhantomData<P>,
}

impl<V: Copy> DoubleHashCache<V> {
    /// An empty cache under DyC's scheme, [`Fnv`], with a small initial
    /// capacity. ([`Default`] makes one under any scheme.)
    pub fn new() -> DoubleHashCache<V> {
        DoubleHashCache::default()
    }
}

impl<V: Copy, P: Probing> DoubleHashCache<V, P> {
    /// Number of cached specializations.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot-table size (grows by doubling on rehash).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    // The slot table's size `m` starts at 16 and grows only by doubling, so
    // every reduction mod `m` is a mask with `m - 1`.

    /// Walk the probe sequence of `key`, whose hash is `hash`: the slot
    /// holding it (`Ok`), or else where it belongs (`Err`) — the first
    /// tombstone on the path, or the empty slot that ended it — and the
    /// slots inspected. A table full of other keys ends the walk after
    /// `m + 1` probes with `Err(None)`, or the first tombstone.
    #[inline]
    fn seek(&self, key: &[u64], hash: u64) -> (Result<usize, Option<usize>>, u32) {
        let m = self.slots.len();
        debug_assert!(m.is_power_of_two());
        let mut idx = (hash as usize) & (m - 1);
        let mut step = 0;
        let mut reuse = None;
        let mut probes = 0;
        loop {
            probes += 1;
            match &self.slots[idx] {
                Slot::Empty => return (Err(Some(reuse.unwrap_or(idx))), probes),
                Slot::Full(k, _) if k.matches(key) => return (Ok(idx), probes),
                Slot::Full(..) => {}
                Slot::Tomb => {
                    reuse.get_or_insert(idx);
                }
            }
            if probes as usize > m {
                return (Err(reuse), probes);
            }
            if step == 0 {
                step = P::step(key, hash, m);
            }
            idx = (idx + step) & (m - 1);
        }
    }

    fn value_at(&self, idx: usize) -> V {
        match &self.slots[idx] {
            Slot::Full(_, v) => *v,
            _ => unreachable!("seek found a key in a slot that holds none"),
        }
    }

    /// Probe for `key` without touching the meters — the shared cache
    /// probes this way, with the key's hash already computed, and counts
    /// the probes in the reading thread's own meters.
    pub fn probe(&self, key: &[u64]) -> Probed<V> {
        self.probe_hashed(key, P::hash(key))
    }

    /// [`DoubleHashCache::probe`] with `key`'s hash already computed.
    #[inline]
    pub(crate) fn probe_hashed(&self, key: &[u64], hash: u64) -> Probed<V> {
        let (at, probes) = self.seek(key, hash);
        Probed {
            value: at.ok().map(|idx| self.value_at(idx)),
            probes,
        }
    }

    /// Look up `key`, metering probes.
    pub fn lookup(&mut self, key: &[u64]) -> Probed<V> {
        let p = self.probe(key);
        self.lookups += 1;
        self.total_probes += u64::from(p.probes);
        p
    }

    /// Grow (or compact) the table when one more entry would push the
    /// load factor, tombstones included, over 0.5.
    fn reserve_one(&mut self) {
        if (self.len + self.tombs + 1) * 2 > self.slots.len() {
            self.grow();
        }
    }

    /// Entry-style lookup: find `key` or reserve the slot where it would
    /// be inserted, hashing the key once. A dispatch miss followed by
    /// specialization calls [`DoubleHashCache::fill`] with the returned
    /// slot instead of re-hashing through [`DoubleHashCache::insert`].
    ///
    /// The table is grown *before* probing when the next insert would
    /// push the load factor over 0.5, so a reserved slot stays valid
    /// while the caller specializes.
    pub fn lookup_or_reserve(&mut self, key: &[u64]) -> CacheEntry<V> {
        self.reserve_one();
        self.lookups += 1;
        let (at, probes) = self.seek(key, P::hash(key));
        self.total_probes += u64::from(probes);
        match at {
            Ok(idx) => CacheEntry::Hit {
                value: self.value_at(idx),
                probes,
            },
            Err(slot) => CacheEntry::Vacant {
                slot: slot.expect("a table at most half full has an empty slot"),
                probes,
            },
        }
    }

    /// Fill a slot reserved by [`DoubleHashCache::lookup_or_reserve`].
    /// A key of up to [`INLINE_KEY_WORDS`] words is stored without
    /// allocating.
    pub fn fill(&mut self, slot: usize, key: &[u64], value: V) {
        debug_assert!(
            !matches!(self.slots[slot], Slot::Full(..)),
            "slot already filled"
        );
        self.place(slot, SlotKey::new(key), value);
    }

    /// Store `key` in the empty or tombstoned slot `at`.
    fn place(&mut self, at: usize, key: SlotKey, value: V) {
        if matches!(self.slots[at], Slot::Tomb) {
            self.tombs -= 1;
        }
        self.slots[at] = Slot::Full(key, value);
        self.len += 1;
    }

    /// Insert (or overwrite) a specialization for `key`, returning the
    /// value it replaced. A key of up to [`INLINE_KEY_WORDS`] words is
    /// stored without allocating.
    pub fn insert(&mut self, key: &[u64], value: V) -> Option<V> {
        self.insert_hashed(key, P::hash(key), value)
    }

    /// [`DoubleHashCache::insert`] with `key`'s hash already computed.
    pub(crate) fn insert_hashed(&mut self, key: &[u64], hash: u64, value: V) -> Option<V> {
        self.reserve_one();
        match self.seek(key, hash).0 {
            Ok(idx) => match &mut self.slots[idx] {
                Slot::Full(_, old) => Some(std::mem::replace(old, value)),
                _ => unreachable!("seek found a key in a slot that holds none"),
            },
            Err(at) => {
                let at = at.expect("a table at most half full has an empty slot");
                self.place(at, SlotKey::new(key), value);
                None
            }
        }
    }

    /// Remove `key`, returning its cached value. The slot becomes a
    /// tombstone (probe chains through it are preserved); tombstones are
    /// purged wholesale on the next rehash.
    pub fn remove(&mut self, key: &[u64]) -> Option<V> {
        self.remove_hashed(key, P::hash(key))
    }

    /// [`DoubleHashCache::remove`] with `key`'s hash already computed.
    pub(crate) fn remove_hashed(&mut self, key: &[u64], hash: u64) -> Option<V> {
        let idx = self.seek(key, hash).0.ok()?;
        let v = self.value_at(idx);
        self.slots[idx] = Slot::Tomb;
        self.len -= 1;
        self.tombs += 1;
        Some(v)
    }

    /// Drop every cached entry (capacity is kept). The probe meters are
    /// deliberately **not** touched: `total_probes`/`lookups` feed the
    /// cumulative §4.4.3 dispatch-cost analysis and survive invalidation.
    /// Call [`DoubleHashCache::reset_counters`] to zero them explicitly.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = Slot::Empty;
        }
        self.len = 0;
        self.tombs = 0;
    }

    /// Explicitly zero the probe meters (`total_probes` and `lookups`).
    pub fn reset_counters(&mut self) {
        self.total_probes = 0;
        self.lookups = 0;
    }

    /// Iterate over the cached `(key, value)` pairs, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u64], V)> + '_ {
        self.slots.iter().filter_map(|s| match s {
            Slot::Full(k, v) => Some((k.as_slice(), *v)),
            _ => None,
        })
    }

    /// Rehash into a fresh slot table, moving each key (inline or boxed)
    /// into its new slot without copying its words.
    fn grow(&mut self) {
        // Rehashing drops tombstones; only double if the *live* entries
        // actually crowd the table (eviction churn alone just compacts).
        let new_size = if (self.len + 1) * 2 > self.slots.len() {
            self.slots.len() * 2
        } else {
            self.slots.len()
        };
        let old = std::mem::replace(
            &mut self.slots,
            (0..new_size).map(|_| Slot::Empty).collect(),
        );
        self.len = 0;
        self.tombs = 0;
        for e in old {
            if let Slot::Full(k, v) = e {
                let (at, _) = self.seek(k.as_slice(), P::hash(k.as_slice()));
                let at = at.expect_err("rehashed keys are distinct");
                self.place(at.expect("the new table has room"), k, v);
            }
        }
    }

    /// Mean probes per lookup so far (0 if no lookups).
    pub fn mean_probes(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.total_probes as f64 / self.lookups as f64
        }
    }
}

impl<V: Copy, P: Probing> Default for DoubleHashCache<V, P> {
    fn default() -> Self {
        DoubleHashCache {
            slots: (0..16).map(|_| Slot::Empty).collect(),
            len: 0,
            tombs: 0,
            total_probes: 0,
            lookups: 0,
            scheme: std::marker::PhantomData,
        }
    }
}

/// Second-chance clock for one bounded (`cache_all(k)`) site. Reference
/// bits are atomics so the shared store's cache-hit path can mark an
/// entry recently used without taking the clock mutex. The key ring and
/// hand are only touched under the mutex, which the shared store holds
/// across a binding's admit, victim removal and insert (and an
/// invalidation's purge and reset), so the site's bindings and its ring
/// never disagree: every binding is evictable, and the site never holds
/// more than its capacity. The single-threaded store reaches the ring
/// through `Mutex::get_mut`.
#[derive(Debug)]
pub(crate) struct EvictCtl {
    /// Reference bit per clock slot.
    pub(crate) bits: Box<[AtomicBool]>,
    pub(crate) clock: Mutex<ClockKeys>,
}

/// The key ring of an [`EvictCtl`].
#[derive(Debug)]
pub(crate) struct ClockKeys {
    /// The key per retained entry, indexed by clock slot.
    keys: Vec<Vec<u64>>,
    hand: usize,
    /// Effective capacity. Starts at the declared `cache_all(k)` bound;
    /// the adaptive policy may grow it, never past `max`, the number of
    /// reference bits, which are pre-allocated at the largest capacity
    /// so they are never reallocated while the hit path touches them
    /// lock-free.
    cap: usize,
    max: usize,
}

impl EvictCtl {
    /// The clock of a `cache_all(k)` site, whose capacity may grow to
    /// `growth` times `k` (see [`EvictCtl::growth`]).
    pub(crate) fn new(k: u32, growth: usize) -> EvictCtl {
        let cap = k.max(1) as usize;
        let max = cap.saturating_mul(growth.max(1));
        EvictCtl {
            bits: (0..max).map(|_| AtomicBool::new(false)).collect(),
            clock: Mutex::new(ClockKeys {
                keys: Vec::new(),
                hand: 0,
                cap,
                max,
            }),
        }
    }

    /// How many times its declared bound a bounded site's capacity may
    /// grow: the adaptive `policy`'s `cap_growth_limit` (its
    /// [`PolicyEngine::cap_for`] never asks for more), 1 without one.
    pub(crate) fn growth(policy: Option<&PolicyEngine>) -> usize {
        policy.map_or(1, |e| e.params().cap_growth_limit.max(1))
    }

    /// Mark clock slot `idx` recently used.
    pub(crate) fn touch(&self, idx: u32) {
        self.bits[idx as usize].store(true, Ordering::Relaxed);
    }
}

impl ClockKeys {
    /// Raise the effective capacity to `n` (clamped to the pre-allocated
    /// maximum; never shrinks).
    pub(crate) fn grow_to(&mut self, n: usize) {
        self.cap = self.cap.max(n.min(self.max));
    }

    /// True when the ring already retains its capacity — admitting
    /// another key would evict. Warm-start uses this to reject surplus
    /// bundle entries instead of evicting ones it just restored.
    pub(crate) fn at_capacity(&self) -> bool {
        self.keys.len() >= self.cap
    }

    /// Admit `key`, choosing an eviction victim if the ring is at
    /// capacity; `bits` are the clock's reference bits. Returns the clock
    /// slot for the new entry and the evicted key, if any. The caller
    /// removes the victim's binding and inserts the new one before it
    /// releases the ring: a binding inserted after another thread's admit
    /// had already chosen its slot would never be evicted.
    pub(crate) fn admit(&mut self, bits: &[AtomicBool], key: &[u64]) -> (u32, Option<Vec<u64>>) {
        let cap = self.cap;
        if self.keys.len() < cap {
            self.keys.push(key.to_vec());
            let idx = self.keys.len() - 1;
            bits[idx].store(true, Ordering::Relaxed);
            return (idx as u32, None);
        }
        // Sweep, clearing reference bits until an unreferenced victim
        // turns up: within one revolution when only this thread sets
        // bits. Concurrent hits can re-set bits mid-sweep, so bound the
        // sweep at two revolutions and then take the hand's slot.
        let mut steps = 0;
        let victim = loop {
            steps += 1;
            if steps > 2 * cap || !bits[self.hand].swap(false, Ordering::Relaxed) {
                break self.hand;
            }
            self.hand = (self.hand + 1) % cap;
        };
        self.hand = (victim + 1) % cap;
        let old = std::mem::replace(&mut self.keys[victim], key.to_vec());
        bits[victim].store(true, Ordering::Relaxed);
        (victim as u32, Some(old))
    }

    /// Empty the ring and clear `bits`, the clock's reference bits.
    pub(crate) fn reset(&mut self, bits: &[AtomicBool]) {
        self.keys.clear();
        self.hand = 0;
        for b in bits {
            b.store(false, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = DoubleHashCache::new();
        let key = vec![1, 2, 3];
        assert!(c.lookup(&key).value.is_none());
        c.insert(&key, FuncId(7));
        assert_eq!(c.lookup(&key).value, Some(FuncId(7)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn default_is_an_empty_cache() {
        let mut c: DoubleHashCache = DoubleHashCache::default();
        assert!(c.is_empty());
        assert_eq!(c.lookups, 0);
        assert_eq!(c.total_probes, 0);
        assert_eq!(c.lookup(&[1]).value, None);
    }

    #[test]
    fn distinct_keys_do_not_collide_logically() {
        let mut c = DoubleHashCache::new();
        for i in 0..100u64 {
            c.insert(&[i, i * 31], FuncId(i as u32));
        }
        for i in 0..100u64 {
            assert_eq!(
                c.lookup(&[i, i * 31]).value,
                Some(FuncId(i as u32)),
                "key {i}"
            );
        }
        assert_eq!(c.len(), 100);
    }

    #[test]
    fn overwrite_same_key() {
        let mut c = DoubleHashCache::new();
        c.insert(&[9], FuncId(1));
        c.insert(&[9], FuncId(2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&[9]).value, Some(FuncId(2)));
    }

    #[test]
    fn probes_are_metered() {
        let mut c = DoubleHashCache::new();
        c.insert(&[1], FuncId(0));
        let p = c.lookup(&[1]);
        assert!(p.probes >= 1);
        assert!(c.mean_probes() >= 1.0);
        assert_eq!(c.lookups, 1);
    }

    #[test]
    fn probe_is_unmetered() {
        let mut c = DoubleHashCache::new();
        c.insert(&[5], FuncId(1));
        let before = (c.lookups, c.total_probes);
        assert_eq!(c.probe(&[5]).value, Some(FuncId(1)));
        assert_eq!((c.lookups, c.total_probes), before);
    }

    #[test]
    fn empty_key_is_a_valid_key() {
        let mut c = DoubleHashCache::new();
        c.insert(&[], FuncId(3));
        assert_eq!(c.lookup(&[]).value, Some(FuncId(3)));
    }

    #[test]
    fn grow_preserves_every_entry() {
        let mut c = DoubleHashCache::new();
        // Enough inserts to force several doublings from the initial 16.
        for i in 0..500u64 {
            c.insert(&[i, !i], FuncId(i as u32));
        }
        assert!(c.slots.len() >= 1024, "table did not grow");
        assert_eq!(c.len(), 500);
        for i in 0..500u64 {
            assert_eq!(c.lookup(&[i, !i]).value, Some(FuncId(i as u32)), "key {i}");
        }
    }

    #[test]
    fn full_table_lookup_of_absent_key_terminates() {
        // Build a pathologically full table directly (insert() would have
        // grown it): every slot occupied by some other key. The lookup
        // must detect the full cycle via the probes > m guard and report
        // a miss instead of spinning.
        let mut c = DoubleHashCache::new();
        let m = c.slots.len();
        for (i, s) in c.slots.iter_mut().enumerate() {
            *s = Slot::Full(SlotKey::new(&[i as u64 + 1000]), FuncId(i as u32));
        }
        c.len = m;
        let p = c.lookup(&[7]);
        assert_eq!(p.value, None);
        assert!(p.probes as usize > m, "miss path should exhaust the table");
    }

    #[test]
    fn h2_step_is_odd_for_any_key() {
        for key in [vec![], vec![0u64], vec![1, 2, 3], vec![u64::MAX]] {
            for m in [16usize, 64, 1024] {
                assert_eq!(Fnv::step(&key, Fnv::hash(&key), m) % 2, 1);
                assert_eq!(Mixed::step(&key, Mixed::hash(&key), m) % 2, 1);
            }
        }
    }

    #[test]
    fn inline_and_boxed_keys_are_told_apart_by_length() {
        // Inline keys are zero-padded: a shorter key must not match a
        // longer one that pads the same, across the inline/boxed line.
        let keys: [&[u64]; 6] = [&[], &[0], &[0, 0], &[0, 0, 0], &[7, 8], &[7, 8, 9, 10]];
        let mut c = DoubleHashCache::new();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(c.insert(k, FuncId(i as u32)), None, "key {k:?}");
        }
        // Past several rehashes, which move every key to a new slot.
        for i in 100..400u64 {
            c.insert(&[i, i, i], FuncId(i as u32));
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(c.lookup(k).value, Some(FuncId(i as u32)), "key {k:?}");
        }
        let mut got: Vec<&[u64]> = c
            .iter()
            .map(|(k, _)| k)
            .filter(|k| k.len() != 3 || k[0] < 100)
            .collect();
        got.sort_unstable();
        let mut want = keys.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn lookup_or_reserve_hits_and_fills() {
        let mut c = DoubleHashCache::new();
        let key = vec![4u64, 2];
        let slot = match c.lookup_or_reserve(&key) {
            CacheEntry::Vacant { slot, probes } => {
                assert!(probes >= 1);
                slot
            }
            CacheEntry::Hit { .. } => panic!("empty cache cannot hit"),
        };
        c.fill(slot, &key, FuncId(9));
        assert_eq!(c.len(), 1);
        match c.lookup_or_reserve(&key) {
            CacheEntry::Hit { value, .. } => assert_eq!(value, FuncId(9)),
            CacheEntry::Vacant { .. } => panic!("filled key must hit"),
        }
        assert_eq!(c.lookup(&key).value, Some(FuncId(9)));
    }

    #[test]
    fn lookup_or_reserve_grows_before_reserving() {
        let mut c = DoubleHashCache::new();
        for i in 0..1000u64 {
            match c.lookup_or_reserve(&[i]) {
                CacheEntry::Vacant { slot, .. } => c.fill(slot, &[i], FuncId(i as u32)),
                CacheEntry::Hit { .. } => panic!("fresh key hit"),
            }
        }
        assert_eq!(c.len(), 1000);
        // Load factor stays at or under one half, so probing always
        // terminates at an empty slot.
        assert!(c.slots.len() >= 2 * c.len());
        for i in 0..1000u64 {
            assert_eq!(c.lookup(&[i]).value, Some(FuncId(i as u32)), "key {i}");
        }
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut c = DoubleHashCache::new();
        for i in 0..1000u64 {
            c.insert(&[i], FuncId(i as u32));
        }
        assert_eq!(c.len(), 1000);
        assert_eq!(c.lookup(&[999]).value, Some(FuncId(999)));
    }

    #[test]
    fn remove_leaves_probe_chains_intact() {
        // Insert enough keys that probe chains form, delete half, and
        // check every survivor is still reachable through the tombstones.
        let mut c = DoubleHashCache::new();
        for i in 0..200u64 {
            c.insert(&[i], FuncId(i as u32));
        }
        for i in (0..200u64).step_by(2) {
            assert_eq!(c.remove(&[i]), Some(FuncId(i as u32)), "remove {i}");
        }
        assert_eq!(c.len(), 100);
        for i in 0..200u64 {
            let want = (i % 2 == 1).then_some(FuncId(i as u32));
            assert_eq!(c.lookup(&[i]).value, want, "key {i}");
        }
        assert_eq!(c.remove(&[4]), None, "double remove");
    }

    #[test]
    fn tombstones_are_reused_and_purged() {
        let mut c = DoubleHashCache::new();
        // Churn a bounded working set: the table must not grow without
        // bound under insert/remove cycles (tombstones get compacted).
        for round in 0..200u64 {
            c.insert(&[round], FuncId(round as u32));
            if round >= 4 {
                assert_eq!(c.remove(&[round - 4]), Some(FuncId((round - 4) as u32)));
            }
        }
        assert_eq!(c.len(), 4);
        assert!(
            c.slots.len() <= 64,
            "bounded churn must not balloon the table (got {})",
            c.slots.len()
        );
    }

    #[test]
    fn colliding_insert_reuses_the_tombstone_without_growing() {
        let mut c = DoubleHashCache::new();
        let m = c.capacity();
        let first = vec![1u64];
        // Brute-force a *different* key whose h1 lands on the same slot,
        // so its probe path starts exactly where the removed entry was.
        let h1 = |k: &[u64]| Fnv::hash(k) as usize & (m - 1);
        let h = h1(&first);
        let collider = (2u64..)
            .map(|w| vec![w])
            .find(|k| h1(k) == h)
            .expect("a 16-slot table has colliding single-word keys");
        c.insert(&first, FuncId(1));
        c.remove(&first);
        assert_eq!((c.len(), c.tombs), (0, 1));
        c.insert(&collider, FuncId(2));
        assert_eq!(c.capacity(), m, "colliding insert must not grow the table");
        assert_eq!(
            (c.len(), c.tombs),
            (1, 0),
            "the tombstone slot must be reused, not accumulated"
        );
        assert!(
            matches!(&c.slots[h], Slot::Full(k, _) if k.as_slice() == collider),
            "collider must occupy the removed entry's slot"
        );
        assert_eq!(c.lookup(&collider).value, Some(FuncId(2)));
        assert_eq!(c.lookup(&first).value, None);
    }

    #[test]
    fn reserve_reuses_tombstones() {
        let mut c = DoubleHashCache::new();
        c.insert(&[1], FuncId(1));
        c.remove(&[1]);
        match c.lookup_or_reserve(&[1]) {
            CacheEntry::Vacant { slot, .. } => c.fill(slot, &[1], FuncId(2)),
            CacheEntry::Hit { .. } => panic!("removed key must miss"),
        }
        assert_eq!(c.lookup(&[1]).value, Some(FuncId(2)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_keeps_meters_reset_counters_zeroes_them() {
        let mut c = DoubleHashCache::new();
        c.insert(&[1], FuncId(1));
        c.insert(&[2], FuncId(2));
        c.lookup(&[1]);
        c.lookup(&[3]);
        let (lk, tp) = (c.lookups, c.total_probes);
        assert!(lk == 2 && tp >= 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.lookup(&[1]).value, None, "cleared entries are gone");
        // clear() preserved the cumulative meters (plus the lookup above).
        assert_eq!(c.lookups, lk + 1);
        assert!(c.total_probes > tp);
        c.reset_counters();
        assert_eq!((c.lookups, c.total_probes), (0, 0));
        assert_eq!(c.mean_probes(), 0.0);
    }

    #[test]
    fn iter_yields_every_live_entry() {
        let mut c = DoubleHashCache::new();
        for i in 0..10u64 {
            c.insert(&[i], FuncId(i as u32));
        }
        c.remove(&[3]);
        let mut got: Vec<u64> = c.iter().map(|(k, _)| k[0]).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 4, 5, 6, 7, 8, 9]);
    }
}
