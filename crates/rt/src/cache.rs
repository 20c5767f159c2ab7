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
//! The table is generic over its value type: single-threaded dispatch
//! stores [`FuncId`]s directly, while the sharded concurrent cache
//! ([`crate::concurrent`]) stores registry handles. Deletion (needed by
//! the bounded `cache_all(k)` eviction policy) uses tombstones so probe
//! chains through deleted slots stay intact.
//!
//! A bounded site picks what to evict with one second-chance clock
//! (`EvictCtl`), the same in both code stores.

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

/// One open-addressed slot. `Tomb` marks a deleted entry: probes continue
/// through it (the chain may have been built around the dead key) but
/// inserts may reuse it.
#[derive(Debug, Clone, PartialEq)]
enum Slot<V> {
    Empty,
    Tomb,
    Full(Vec<u64>, V),
}

/// An open-addressing hash table with double hashing, keyed by the values
/// of the static variables at a promotion point.
///
/// # Examples
///
/// ```
/// use dyc_rt::DoubleHashCache;
/// use dyc_vm::FuncId;
///
/// let mut c = DoubleHashCache::new();
/// assert_eq!(c.lookup(&[42]).value, None);          // miss
/// c.insert(vec![42], FuncId(7));
/// assert_eq!(c.lookup(&[42]).value, Some(FuncId(7))); // hit
/// assert_eq!(c.remove(&[42]), Some(FuncId(7)));     // evict
/// assert_eq!(c.lookup(&[42]).value, None);
/// // Probe metering feeds the §4.4.3 dispatch-cost analysis.
/// assert_eq!(c.lookups, 3);
/// assert!(c.mean_probes() >= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct DoubleHashCache<V = FuncId> {
    slots: Vec<Slot<V>>,
    len: usize,
    /// Tombstones currently in the table (count toward the load factor so
    /// probe chains stay short even under heavy eviction churn).
    tombs: usize,
    /// Total probes across all lookups (for dispatch-cost reporting).
    pub total_probes: u64,
    /// Total lookups.
    pub lookups: u64,
}

impl<V: Copy> DoubleHashCache<V> {
    /// An empty cache with a small initial capacity.
    pub fn new() -> DoubleHashCache<V> {
        DoubleHashCache {
            slots: (0..16).map(|_| Slot::Empty).collect(),
            len: 0,
            tombs: 0,
            total_probes: 0,
            lookups: 0,
        }
    }

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

    fn h1(key: &[u64], m: usize) -> usize {
        debug_assert!(m.is_power_of_two());
        // FNV-style fold of the key words.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in key {
            h ^= *w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h as usize) & (m - 1)
    }

    fn h2(key: &[u64], m: usize) -> usize {
        debug_assert!(m.is_power_of_two());
        // Second hash must be odd so it is coprime with the power-of-two
        // table size (guarantees a full probe cycle).
        let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
        for w in key {
            h = h.rotate_left(13) ^ w.wrapping_mul(0xff51_afd7_ed55_8ccd);
        }
        ((h as usize) & (m - 1)) | 1
    }

    /// Probe for `key` without touching the meters — the shared-cache hit
    /// path calls this under a read lock and accumulates the probe count
    /// into per-shard atomics instead.
    pub fn probe(&self, key: &[u64]) -> Probed<V> {
        let m = self.slots.len();
        let start = Self::h1(key, m);
        let step = Self::h2(key, m);
        let mut idx = start;
        let mut probes = 0;
        loop {
            probes += 1;
            match &self.slots[idx] {
                Slot::Empty => {
                    return Probed {
                        value: None,
                        probes,
                    }
                }
                Slot::Full(k, v) if k.as_slice() == key => {
                    return Probed {
                        value: Some(*v),
                        probes,
                    };
                }
                Slot::Full(..) | Slot::Tomb => {
                    idx = (idx + step) & (m - 1);
                    if probes as usize > m {
                        // Table full of other keys; treat as a miss.
                        return Probed {
                            value: None,
                            probes,
                        };
                    }
                }
            }
        }
    }

    /// Look up `key`, metering probes.
    pub fn lookup(&mut self, key: &[u64]) -> Probed<V> {
        let p = self.probe(key);
        self.lookups += 1;
        self.total_probes += u64::from(p.probes);
        p
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
        if (self.len + self.tombs + 1) * 2 > self.slots.len() {
            self.grow();
        }
        self.lookups += 1;
        let m = self.slots.len();
        let start = Self::h1(key, m);
        let step = Self::h2(key, m);
        let mut idx = start;
        let mut probes = 0;
        // First tombstone on the probe path: reused for the insert (the
        // chain up to here already skips it, so lookups stay correct).
        let mut reuse: Option<usize> = None;
        loop {
            probes += 1;
            match &self.slots[idx] {
                Slot::Empty => {
                    self.total_probes += u64::from(probes);
                    return CacheEntry::Vacant {
                        slot: reuse.unwrap_or(idx),
                        probes,
                    };
                }
                Slot::Full(k, v) if k.as_slice() == key => {
                    self.total_probes += u64::from(probes);
                    return CacheEntry::Hit { value: *v, probes };
                }
                Slot::Tomb => {
                    reuse.get_or_insert(idx);
                    idx = (idx + step) & (m - 1);
                }
                Slot::Full(..) => idx = (idx + step) & (m - 1),
            }
        }
    }

    /// Fill a slot reserved by [`DoubleHashCache::lookup_or_reserve`].
    pub fn fill(&mut self, slot: usize, key: Vec<u64>, value: V) {
        debug_assert!(
            !matches!(self.slots[slot], Slot::Full(..)),
            "slot already filled"
        );
        if matches!(self.slots[slot], Slot::Tomb) {
            self.tombs -= 1;
        }
        self.slots[slot] = Slot::Full(key, value);
        self.len += 1;
    }

    /// Insert (or overwrite) a specialization for `key`, returning the
    /// value it replaced.
    pub fn insert(&mut self, key: Vec<u64>, value: V) -> Option<V> {
        if (self.len + self.tombs + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let m = self.slots.len();
        let start = Self::h1(&key, m);
        let step = Self::h2(&key, m);
        let mut idx = start;
        let mut reuse: Option<usize> = None;
        loop {
            match &self.slots[idx] {
                Slot::Empty => {
                    let at = reuse.unwrap_or(idx);
                    if matches!(self.slots[at], Slot::Tomb) {
                        self.tombs -= 1;
                    }
                    self.slots[at] = Slot::Full(key, value);
                    self.len += 1;
                    return None;
                }
                Slot::Full(k, old) if *k == key => {
                    let old = *old;
                    self.slots[idx] = Slot::Full(key, value);
                    return Some(old);
                }
                Slot::Tomb => {
                    reuse.get_or_insert(idx);
                    idx = (idx + step) & (m - 1);
                }
                Slot::Full(..) => idx = (idx + step) & (m - 1),
            }
        }
    }

    /// Remove `key`, returning its cached value. The slot becomes a
    /// tombstone (probe chains through it are preserved); tombstones are
    /// purged wholesale on the next rehash.
    pub fn remove(&mut self, key: &[u64]) -> Option<V> {
        let m = self.slots.len();
        let start = Self::h1(key, m);
        let step = Self::h2(key, m);
        let mut idx = start;
        let mut probes = 0usize;
        loop {
            probes += 1;
            match &self.slots[idx] {
                Slot::Empty => return None,
                Slot::Full(k, v) if k.as_slice() == key => {
                    let v = *v;
                    self.slots[idx] = Slot::Tomb;
                    self.len -= 1;
                    self.tombs += 1;
                    return Some(v);
                }
                Slot::Full(..) | Slot::Tomb => {
                    idx = (idx + step) & (m - 1);
                    if probes > m {
                        return None;
                    }
                }
            }
        }
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
                self.insert(k, v);
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

impl<V: Copy> Default for DoubleHashCache<V> {
    fn default() -> Self {
        DoubleHashCache::new()
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
        c.insert(key.clone(), FuncId(7));
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
            c.insert(vec![i, i * 31], FuncId(i as u32));
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
        c.insert(vec![9], FuncId(1));
        c.insert(vec![9], FuncId(2));
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(&[9]).value, Some(FuncId(2)));
    }

    #[test]
    fn probes_are_metered() {
        let mut c = DoubleHashCache::new();
        c.insert(vec![1], FuncId(0));
        let p = c.lookup(&[1]);
        assert!(p.probes >= 1);
        assert!(c.mean_probes() >= 1.0);
        assert_eq!(c.lookups, 1);
    }

    #[test]
    fn probe_is_unmetered() {
        let mut c = DoubleHashCache::new();
        c.insert(vec![5], FuncId(1));
        let before = (c.lookups, c.total_probes);
        assert_eq!(c.probe(&[5]).value, Some(FuncId(1)));
        assert_eq!((c.lookups, c.total_probes), before);
    }

    #[test]
    fn empty_key_is_a_valid_key() {
        let mut c = DoubleHashCache::new();
        c.insert(vec![], FuncId(3));
        assert_eq!(c.lookup(&[]).value, Some(FuncId(3)));
    }

    #[test]
    fn grow_preserves_every_entry() {
        let mut c = DoubleHashCache::new();
        // Enough inserts to force several doublings from the initial 16.
        for i in 0..500u64 {
            c.insert(vec![i, !i], FuncId(i as u32));
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
            *s = Slot::Full(vec![i as u64 + 1000], FuncId(i as u32));
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
                assert_eq!(DoubleHashCache::<FuncId>::h2(&key, m) % 2, 1);
            }
        }
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
        c.fill(slot, key.clone(), FuncId(9));
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
                CacheEntry::Vacant { slot, .. } => c.fill(slot, vec![i], FuncId(i as u32)),
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
            c.insert(vec![i], FuncId(i as u32));
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
            c.insert(vec![i], FuncId(i as u32));
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
            c.insert(vec![round], FuncId(round as u32));
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
        let h = DoubleHashCache::<FuncId>::h1(&first, m);
        let collider = (2u64..)
            .map(|w| vec![w])
            .find(|k| DoubleHashCache::<FuncId>::h1(k, m) == h)
            .expect("a 16-slot table has colliding single-word keys");
        c.insert(first.clone(), FuncId(1));
        c.remove(&first);
        assert_eq!((c.len(), c.tombs), (0, 1));
        c.insert(collider.clone(), FuncId(2));
        assert_eq!(c.capacity(), m, "colliding insert must not grow the table");
        assert_eq!(
            (c.len(), c.tombs),
            (1, 0),
            "the tombstone slot must be reused, not accumulated"
        );
        assert!(
            matches!(&c.slots[h], Slot::Full(k, _) if *k == collider),
            "collider must occupy the removed entry's slot"
        );
        assert_eq!(c.lookup(&collider).value, Some(FuncId(2)));
        assert_eq!(c.lookup(&first).value, None);
    }

    #[test]
    fn reserve_reuses_tombstones() {
        let mut c = DoubleHashCache::new();
        c.insert(vec![1], FuncId(1));
        c.remove(&[1]);
        match c.lookup_or_reserve(&[1]) {
            CacheEntry::Vacant { slot, .. } => c.fill(slot, vec![1], FuncId(2)),
            CacheEntry::Hit { .. } => panic!("removed key must miss"),
        }
        assert_eq!(c.lookup(&[1]).value, Some(FuncId(2)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_keeps_meters_reset_counters_zeroes_them() {
        let mut c = DoubleHashCache::new();
        c.insert(vec![1], FuncId(1));
        c.insert(vec![2], FuncId(2));
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
            c.insert(vec![i], FuncId(i as u32));
        }
        c.remove(&[3]);
        let mut got: Vec<u64> = c.iter().map(|(k, _)| k[0]).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 4, 5, 6, 7, 8, 9]);
    }
}
