//! Concurrent dispatch: a sharded, `Arc`-shared code cache with
//! single-flight specialization and bounded eviction.
//!
//! The single-threaded [`Runtime`](crate::Runtime) is the dispatch core
//! ([`crate::dispatch`]) over a private [`LocalStore`](crate::runtime::LocalStore);
//! this module supplies the second code store, which makes the same
//! protocol safely callable from many threads:
//!
//! * **[`SharedRuntime`]** holds everything immutable or lock-guarded that
//!   threads share: the staged program, the [`ShardedCache`] mapping
//!   `(site, key)` to published code, an append-only site table (internal
//!   promotion sites discovered by any thread become visible to all), the
//!   code registry, the single-flight wait-map, and the global meters.
//!   The registry is a table of generation-tagged slots: unbinding code
//!   (an eviction, an invalidation) frees its slot at once, and the next
//!   publication reuses it under a new generation.
//! * **[`SharedStore`]** is one thread's view of it, and
//!   **[`ThreadRuntime`]** the dispatch core over that view: one thread's
//!   [`DispatchHandler`](dyc_vm::DispatchHandler). The thread owns a
//!   private [`Module`] replica and [`Vm`](dyc_vm::Vm), so *execution*
//!   never takes a lock — only dispatch lookups touch the shared cache,
//!   and a steady-state hit is one shard read-lock with zero
//!   allocations.
//! * **Single-flight**: exactly one thread runs the GE executor per
//!   `(site, key)`. Racers either block on the winner's `Flight`
//!   ([`MissPolicy::Block`]) or immediately run a *generic continuation*
//!   — unspecialized code for the region compiled on demand
//!   ([`MissPolicy::Fallback`]) — so no duplicate specializations are
//!   ever performed.
//! * **Bounded eviction**: `cache_all(k)` sites keep at most `k`
//!   specializations, evicted by a second-chance clock whose reference
//!   bits are lock-free atomics set on the hit path.
//! * **Reclamation**: a code handle is a registry slot and its
//!   generation. Each thread copies published code into its module once
//!   per generation; a copy of an older generation is retired to the
//!   dispatch core, which frees it once no VM frame can hold it, so a
//!   thread's module is bounded by the registry's slot high-water mark.
//!   A handle whose generation is gone by the time a thread copies it
//!   (another thread evicted the code and reused the slot) is refused,
//!   and the dispatch probes again: a stale handle is never served.
//!
//! # Memory ordering
//!
//! Publication is lock-mediated: a winner stores the new [`CodeFunc`] in
//! a registry slot (write lock), inserts the cache binding (shard write
//! lock), and only then resolves and removes its flight (the key's
//! flight-shard mutex — the wait-map is sharded by the same key hash as
//! the cache, so each key's flight protocol runs under one mutex).
//! Any thread that observes the cache binding or the flight result
//! acquired one of those locks after the winner released it, so it also
//! observes the registry entry — plain `Relaxed` atomics are only used
//! for meters and clock reference bits, never to publish data.
//!
//! ```
//! use std::sync::Arc;
//! use dyc_bta::OptConfig;
//! use dyc_rt::concurrent::SharedRuntime;
//! use dyc_vm::{CostModel, Value, Vm};
//!
//! let src = "int pow(int b, int e) { make_static(e);
//!            int r = 1; while (e > 0) { r = r * b; e = e - 1; } return r; }";
//! let mut ir = dyc_ir::lower_program(&dyc_lang::parse_program(src).unwrap()).unwrap();
//! dyc_ir::opt::optimize_program(&mut ir);
//! let staged = dyc_stage::stage_program(ir, OptConfig::all());
//! let shared = Arc::new(SharedRuntime::new(staged));
//!
//! // Each thread gets its own handler, module replica, and VM.
//! let mut handler = SharedRuntime::thread(&shared);
//! let mut module = shared.base_module();
//! let mut vm = Vm::new(CostModel::alpha21164());
//! let id = module.func_by_name("pow").unwrap();
//! for _ in 0..3 {
//!     let out = vm
//!         .call_with_handler(&mut module, &mut handler, id, &[Value::I(3), Value::I(4)])
//!         .unwrap();
//!     assert_eq!(out, Some(Value::I(81)));
//! }
//! // One specialization served all three calls (two were shard hits).
//! assert_eq!(shared.stats().specializations, 1);
//! ```

use crate::artifact::{self, CacheBundle, CodeArtifact, WarmHost};
use crate::cache::{DoubleHashCache, EvictCtl, Probed};
use crate::dispatch::{Claim, CodeStore, Dispatcher, Lane, Retired};
use crate::ge_exec::SpecHost;
use crate::policy::{PolicyEngine, PolicyParams};
use crate::runtime::Site;
use crate::stats::{ConcStats, Counter, RtStats, Sinks};
use dyc_bta::PolicyMode;
use dyc_obs::{now_ns, EventKind, LatencyHistogram, LiveHandles, Trace};
use dyc_stage::{SitePolicy, StagedProgram};
use dyc_vm::{CodeFunc, FuncId, Module, VmError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// What a racing thread does when another thread is already specializing
/// the same `(site, key)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MissPolicy {
    /// Wait for the winner and invoke its specialized code — preserves
    /// the single-threaded runtime's code and cache contents exactly.
    #[default]
    Block,
    /// Run a *generic continuation* (unspecialized code for the region)
    /// immediately instead of waiting. Results are identical; the racing
    /// call just doesn't benefit from specialization.
    Fallback,
}

/// A handle to published code: its registry slot and the generation the
/// code was published under. A slot's generation advances when it is
/// freed, so a handle outlives its code only as a refusal, never as
/// another key's code. (The public global id of a slot is `base_len`
/// plus its index, so it never collides with a base-module id.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Gid {
    slot: u32,
    gen: u32,
}

/// Cached binding: the published code's handle plus, for bounded sites,
/// its slot in the site's second-chance clock (so a hit can set the
/// reference bit without a second hash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheVal {
    gid: Gid,
    clock_idx: u32,
}

/// Per-shard meter snapshot (feeds the §4.4.3 dispatch-cost tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardMeter {
    /// Lookups routed to this shard.
    pub lookups: u64,
    /// Total probe count across those lookups.
    pub probes: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Slot-table size (open-addressing capacity, grows by doubling).
    pub slots: usize,
}

struct Shard<V> {
    table: RwLock<DoubleHashCache<V>>,
    lookups: AtomicU64,
    probes: AtomicU64,
}

/// FNV-1a over the key words. Shared by [`ShardedCache`] and
/// [`FlightMap`], so a key's cache shard and flight shard indices agree
/// (modulo mask width). It is the same fold [`DoubleHashCache`] reduces
/// to pick a key's start slot inside its shard, so the keys of one shard
/// share their low start-slot bits and the shard's probe chains cluster
/// (3.5 probes per lookup on a warm 4096-key `serve` cache). A finalized
/// hash fixes that but costs memory; see EXPERIMENTS.md, "Lean VM loop".
fn shard_hash(key: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in key {
        h ^= *w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A sharded double-hash code cache: N independent
/// [`DoubleHashCache`] shards, each behind its own reader-writer lock,
/// selected by a hash of the key. Readers on different shards never
/// contend, and readers on the same shard share the read lock; only an
/// insert or removal takes a shard's write lock.
///
/// # Examples
///
/// ```
/// use dyc_rt::concurrent::ShardedCache;
/// use dyc_vm::FuncId;
///
/// let c: ShardedCache = ShardedCache::new(8);
/// c.insert(vec![1, 42], FuncId(7));
/// assert_eq!(c.get(&[1, 42]).value, Some(FuncId(7)));
/// assert_eq!(c.get(&[2, 42]).value, None);
/// assert_eq!(c.len(), 1);
/// ```
pub struct ShardedCache<V = FuncId> {
    shards: Box<[Shard<V>]>,
    mask: u64,
}

impl<V: Copy> ShardedCache<V> {
    /// A cache with `shards` shards (rounded up to a power of two).
    pub fn new(shards: usize) -> ShardedCache<V> {
        let n = shards.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| Shard {
                table: RwLock::new(DoubleHashCache::new()),
                lookups: AtomicU64::new(0),
                probes: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedCache {
            shards,
            mask: (n - 1) as u64,
        }
    }

    /// Shard selection — see [`shard_hash`].
    fn shard_of(&self, key: &[u64]) -> &Shard<V> {
        &self.shards[(shard_hash(key) & self.mask) as usize]
    }

    /// Metered lookup: one shard read-lock, no allocations.
    pub fn get(&self, key: &[u64]) -> Probed<V> {
        let s = self.shard_of(key);
        let p = s.table.read().unwrap().probe(key);
        s.lookups.fetch_add(1, Ordering::Relaxed);
        s.probes.fetch_add(u64::from(p.probes), Ordering::Relaxed);
        p
    }

    /// Insert (or overwrite) a binding, returning the one it replaced.
    pub fn insert(&self, key: Vec<u64>, value: V) -> Option<V> {
        self.shard_of(&key)
            .table
            .write()
            .unwrap()
            .insert(key, value)
    }

    /// Remove a binding, returning it if present.
    pub fn remove(&self, key: &[u64]) -> Option<V> {
        self.shard_of(key).table.write().unwrap().remove(key)
    }

    /// Remove every binding whose first key word equals `first` (the
    /// shared cache prefixes every key with its site id). Returns the
    /// values removed.
    pub fn purge_prefix(&self, first: u64) -> Vec<V> {
        let mut removed = Vec::new();
        for s in &self.shards {
            let mut t = s.table.write().unwrap();
            let doomed: Vec<Vec<u64>> = t
                .iter()
                .filter(|(k, _)| k.first() == Some(&first))
                .map(|(k, _)| k.to_vec())
                .collect();
            removed.extend(doomed.iter().filter_map(|k| t.remove(k)));
        }
        removed
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.table.read().unwrap().len())
            .sum()
    }

    /// True if no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard meters, in shard order.
    pub fn meters(&self) -> Vec<ShardMeter> {
        self.shards
            .iter()
            .map(|s| {
                let t = s.table.read().unwrap();
                ShardMeter {
                    lookups: s.lookups.load(Ordering::Relaxed),
                    probes: s.probes.load(Ordering::Relaxed),
                    entries: t.len(),
                    slots: t.capacity(),
                }
            })
            .collect()
    }

    /// Every `(key, value)` binding currently cached.
    pub fn snapshot(&self) -> Vec<(Vec<u64>, V)> {
        let mut out = Vec::new();
        for s in &self.shards {
            let t = s.table.read().unwrap();
            out.extend(t.iter().map(|(k, v)| (k.to_vec(), v)));
        }
        out
    }
}

impl<V: Copy> std::fmt::Debug for ShardedCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("entries", &self.len())
            .finish()
    }
}

/// One shared dispatch site: the [`Site`] itself plus the concurrent
/// per-site state (eviction clock, lazily built generic continuation).
#[derive(Debug)]
struct SiteEntry {
    site: Site,
    evict: Option<EvictCtl>,
    /// Handle of the site's generic continuation, built on first use by
    /// the [`MissPolicy::Fallback`] path.
    fallback: Mutex<Option<Gid>>,
}

impl SiteEntry {
    /// A bounded site's clock may grow `growth` times its bound.
    fn new(site: Site, growth: usize) -> SiteEntry {
        let evict = match site.policy {
            SitePolicy::CacheAllBounded(k) => Some(EvictCtl::new(k, growth)),
            _ => None,
        };
        SiteEntry {
            site,
            evict,
            fallback: Mutex::new(None),
        }
    }
}

/// One in-flight specialization: racers park on the condvar until the
/// winner resolves it with the published handle (or the error).
#[derive(Debug)]
pub(crate) struct Flight {
    state: Mutex<Option<Result<Gid, String>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, r: Result<Gid, String>) {
        *self.state.lock().unwrap() = Some(r);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Gid, String> {
        let mut g = self.state.lock().unwrap();
        loop {
            if let Some(r) = g.clone() {
                return r;
            }
            g = self.cv.wait(g).unwrap();
        }
    }
}

/// The single-flight wait-map, sharded by the same FNV-1a hash as the
/// code cache so a key's flight entry and cache binding live in the
/// same 1/Nth of the keyspace. Before the serving work this was one
/// global `Mutex<HashMap>`: under a cold-start stampede every miss on
/// *any* key serialized on it, convoying unrelated sites (see
/// EXPERIMENTS.md, hypothesis H1). Sharding preserves the protocol
/// exactly — single-flight is a per-key property, and one key always
/// maps to one shard — while letting misses on unrelated keys proceed
/// independently.
/// One flight-map shard: the in-flight specializations whose keys hash
/// into it.
type FlightShard = Mutex<HashMap<Vec<u64>, Arc<Flight>>>;

#[derive(Debug)]
struct FlightMap {
    shards: Box<[FlightShard]>,
    mask: u64,
}

impl FlightMap {
    fn new(shards: usize) -> FlightMap {
        let n = shards.max(1).next_power_of_two();
        FlightMap {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: (n - 1) as u64,
        }
    }

    /// The mutex guarding `key`'s flight entry. Both winner steps (insert
    /// on entry, remove after publication) and every racer check go
    /// through this one lock, so the per-key protocol is untouched by
    /// sharding.
    fn shard(&self, key: &[u64]) -> &Mutex<HashMap<Vec<u64>, Arc<Flight>>> {
        &self.shards[(shard_hash(key) & self.mask) as usize]
    }

    fn n_shards(&self) -> usize {
        self.shards.len()
    }
}

/// Plain snapshot of the shared runtime's meters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConcSnapshot {
    /// Specializations performed across all threads. With
    /// [`MissPolicy::Block`] this equals what a single-threaded oracle
    /// running the same call sequence performs — single-flight suppresses
    /// every duplicate.
    pub specializations: u64,
    /// Times a racing thread blocked on another thread's in-flight
    /// specialization.
    pub single_flight_waits: u64,
    /// Times a racing thread took the generic continuation instead.
    pub single_flight_fallbacks: u64,
    /// Times a miss lost the publication race: between the failed cache
    /// probe and taking the flight-shard lock, the winner had already
    /// published, so the miss was served from the cache with no
    /// specialization, wait, or fallback. With this meter the serving
    /// harness can balance its books exactly: `misses = specializations
    /// + waits + fallbacks + races + policy defers + policy throttles`.
    pub single_flight_races: u64,
    /// Bounded-site evictions performed by the second-chance clock.
    pub cache_evictions: u64,
    /// Explicit site invalidations.
    pub cache_invalidations: u64,
    /// Generic continuations compiled (at most one per site).
    pub generic_continuations: u64,
    /// Cached specializations restored from a snapshot bundle at
    /// warm-start (each skips a future first-dispatch specialization).
    pub cache_warm_loads: u64,
    /// Snapshot entries rejected at warm-start: stale or corrupted
    /// fingerprints, schema mismatches, or bounded-capacity surplus.
    /// Per-entry and never fatal — rejected keys re-specialize on first
    /// dispatch.
    pub cache_warm_rejects: u64,
    /// Materialized functions additionally lowered to native x86-64
    /// machine code across all threads (each thread installs into its
    /// own engine, so one published specialization can count once per
    /// thread that runs it).
    pub native_installs: u64,
    /// Materializations that stayed on the VM backend despite the
    /// native option — the lowering declined or the platform lacks the
    /// backend.
    pub native_fallbacks: u64,
    /// Adaptive policy only: dispatch misses whose specialization was
    /// deferred below the site's break-even threshold (the dispatch ran
    /// the generic continuation). Always zero in `PolicyMode::Always`.
    pub policy_defers: u64,
    /// Adaptive policy only: keys specialized after at least one
    /// deferral (the miss that crossed the threshold).
    pub policy_promotes: u64,
    /// Adaptive policy only: misses suppressed because the (internal)
    /// site's specializations were never re-dispatched.
    pub policy_throttled: u64,
    /// Times a dispatch found code whose registry slot another thread
    /// freed (and possibly reused) before this thread copied it, and
    /// probed the cache again. Each re-probe is one more shard lookup.
    pub stale_reprobes: u64,
    /// Code functions ever published to the shared registry (cumulative:
    /// freed slots still count).
    pub published: u64,
    /// Registry slots holding code now: cached specializations, generic
    /// continuations, and publications between their insert and their
    /// binding.
    pub registry_live: u64,
    /// Registry slots ever allocated: the most code the registry has
    /// held at once, and the bound on every thread's copies.
    pub registry_high_water: u64,
    /// Per-shard cache meters.
    pub shards: Vec<ShardMeter>,
}

impl ConcSnapshot {
    /// Duplicate specializations avoided by single-flight (waits plus
    /// fallbacks — each one is a miss that did *not* redundantly run the
    /// GE executor).
    pub fn single_flight_suppressed(&self) -> u64 {
        self.single_flight_waits + self.single_flight_fallbacks
    }
}

/// What [`SharedRuntime::bind`] evicted: the key (with its site), the
/// clock slot it held, and the handle of the code bound to it (`None` if
/// a concurrent removal got there first).
type Evicted = (Vec<u64>, u32, Option<Gid>);

/// One registry slot: the code published into it, if any, and the
/// generation that code was published under.
#[derive(Debug, Default)]
struct RegSlot {
    gen: u32,
    code: Option<Arc<CodeFunc>>,
}

/// The code registry: generation-tagged slots and the free list. Its lock
/// is a leaf: no other lock is taken while it is held (a site's generic
/// continuation is published under that site's `fallback` mutex; every
/// other publication and free holds no lock).
#[derive(Debug, Default)]
struct Registry {
    slots: Vec<RegSlot>,
    /// Freed slots, reused last-freed first.
    free: Vec<u32>,
    /// Publications ever made (the [`ConcSnapshot::published`] meter).
    published: u64,
}

impl Registry {
    /// Store `code` in a free slot (or a new one); returns its handle.
    fn publish(&mut self, code: Arc<CodeFunc>) -> Gid {
        self.published += 1;
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(RegSlot::default());
            (self.slots.len() - 1) as u32
        });
        let slot = &mut self.slots[idx as usize];
        slot.code = Some(code);
        Gid {
            slot: idx,
            gen: slot.gen,
        }
    }

    /// Free the slot `g` names: drop the code and advance the
    /// generation, so every outstanding handle to it is refused from now
    /// on.
    fn free(&mut self, g: Gid) {
        let slot = &mut self.slots[g.slot as usize];
        debug_assert!(
            slot.gen == g.gen && slot.code.is_some(),
            "freeing a registry slot twice"
        );
        slot.code = None;
        slot.gen = slot.gen.wrapping_add(1);
        self.free.push(g.slot);
    }

    /// The code `g` names, unless its slot was freed since.
    fn live(&self, g: Gid) -> Option<Arc<CodeFunc>> {
        let slot = &self.slots[g.slot as usize];
        slot.code.as_ref().filter(|_| slot.gen == g.gen).cloned()
    }
}

/// Construction options for [`SharedRuntime`]. Tracing, the native
/// backend and the adaptive policy are the staged program's
/// [`OptConfig`](dyc_bta::OptConfig) flags (`trace`, `native`, `policy`),
/// exactly as for the single-threaded [`Runtime`](crate::Runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedOptions {
    /// Shard count for the code cache (rounded up to a power of two).
    /// `0` (the default) auto-sizes from the machine: 8 shards per
    /// hardware thread, clamped to `[16, 512]`. The serving measurements
    /// (EXPERIMENTS.md, "Serving under skewed traffic") found throughput
    /// flat from 16 shards up but degrading below 4 on write-heavy churn,
    /// so auto keeps a 16-shard floor even on small machines and scales
    /// with the hardware instead of freezing yesterday's constant.
    pub shards: usize,
    /// Shard count for the single-flight wait-map (rounded up to a power
    /// of two). `0` (the default) matches the resolved cache shard
    /// count, so one key contends with the same 1/Nth of the keyspace in
    /// both structures. `1` reproduces the pre-serving global mutex —
    /// kept selectable so the EXPERIMENTS.md before/after numbers stay
    /// reproducible from one binary.
    pub flight_shards: usize,
    /// What racing threads do on a miss that is already in flight.
    pub miss_policy: MissPolicy,
    /// Give every [`ThreadRuntime`] an allocation-free miss-path latency
    /// histogram ([`LatencyHistogram`]): each dispatch miss records the
    /// wall nanoseconds from miss detection to having runnable code
    /// (specialization, single-flight wait, or generic-continuation
    /// build). Unlike the event ring this survives 10⁸-dispatch runs
    /// whole, so the serving harness computes true p50/p95/p99 from it.
    /// Off by default: the hit path is untouched either way, but each
    /// miss pays two clock reads.
    pub latency: bool,
}

impl Default for SharedOptions {
    fn default() -> SharedOptions {
        SharedOptions {
            shards: 0,
            flight_shards: 0,
            miss_policy: MissPolicy::Block,
            latency: false,
        }
    }
}

/// Resolve a shard-count knob: `0` auto-sizes to 8 shards per hardware
/// thread, clamped to `[16, 512]` (see [`SharedOptions::shards`] for the
/// measured rationale).
fn resolve_shards(n: usize) -> usize {
    if n != 0 {
        return n;
    }
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    (hw * 8).clamp(16, 512)
}

/// The thread-shared half of the concurrent runtime. Wrap it in an
/// [`Arc`] and hand each thread a [`ThreadRuntime`] from
/// [`SharedRuntime::thread`]; see the [module docs](self) for the full
/// protocol.
pub struct SharedRuntime {
    staged: StagedProgram,
    opts: SharedOptions,
    /// The statically compiled module every thread replica starts from;
    /// global code ids below `base_len` are base functions with the same
    /// [`FuncId`] in every replica.
    base_module: Module,
    base_len: usize,
    /// Append-only site table. Entry sites occupy the prefix; internal
    /// promotion sites discovered during any thread's specialization are
    /// appended under the write lock and never mutated afterwards.
    sites: RwLock<Vec<Arc<SiteEntry>>>,
    /// `[site, key bits...]` → published code.
    cache: ShardedCache<CacheVal>,
    /// Published code, in generation-tagged slots. Global id =
    /// `base_len + slot`; threads copy code into their own modules on
    /// first use of each generation.
    registry: RwLock<Registry>,
    /// Single-flight wait-map, keyed (and sharded) like the cache.
    inflight: FlightMap,
    /// Global meters, shared with every thread handler.
    stats: Arc<ConcStats>,
    /// Adaptive specialization policy, `None` in `Always` mode (the
    /// default). Consulted only on the miss path; see [`crate::policy`].
    policy: Option<PolicyEngine>,
    /// Trace thread-id allocator: each [`ThreadRuntime`] takes the next
    /// id so merged event streams distinguish recorders.
    next_thread: AtomicU32,
    /// Live-telemetry handles ([`SharedRuntime::attach_live`]). `None`
    /// (the default) costs the warm path nothing; threads created after
    /// attachment register a per-thread slot and flight ring.
    live: RwLock<Option<LiveHandles>>,
}

impl std::fmt::Debug for SharedRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedRuntime")
            .field("base_len", &self.base_len)
            .field("n_sites", &self.n_sites())
            .field("published", &self.registry.read().unwrap().published)
            .field("opts", &self.opts)
            .finish()
    }
}

/// Site-table host over the shared runtime: internal promotion sites
/// found by any thread are appended to the shared table, visible to all.
impl SpecHost for &SharedRuntime {
    fn add_site(&mut self, mut site: Site) -> u32 {
        site.precompute_layout();
        let mut sites = self.sites.write().unwrap();
        let id = sites.len() as u32;
        let growth = EvictCtl::growth(self.policy.as_ref());
        sites.push(Arc::new(SiteEntry::new(site, growth)));
        id
    }
}

impl SharedRuntime {
    /// Build the shared runtime for a staged program with default
    /// options (auto-sized shards, [`MissPolicy::Block`]).
    pub fn new(staged: StagedProgram) -> SharedRuntime {
        SharedRuntime::with_options(staged, SharedOptions::default())
    }

    /// Build the shared runtime with explicit [`SharedOptions`].
    pub fn with_options(staged: StagedProgram, opts: SharedOptions) -> SharedRuntime {
        let base_module = staged.build_module();
        let policy = (staged.cfg.policy == PolicyMode::Adaptive)
            .then(|| PolicyEngine::new(PolicyParams::default()));
        let cache_shards = resolve_shards(opts.shards);
        let flight_shards = if opts.flight_shards == 0 {
            cache_shards
        } else {
            opts.flight_shards
        };
        let shared = SharedRuntime {
            cache: ShardedCache::new(cache_shards),
            opts,
            base_len: base_module.len(),
            base_module,
            sites: RwLock::new(Vec::new()),
            registry: RwLock::new(Registry::default()),
            inflight: FlightMap::new(flight_shards),
            stats: Arc::default(),
            policy,
            next_thread: AtomicU32::new(0),
            live: RwLock::new(None),
            staged,
        };
        for i in 0..shared.staged.entry_sites.len() {
            let site = Site::entry(&shared.staged, i);
            SpecHost::add_site(&mut &shared, site);
        }
        shared
    }

    /// Attach live-telemetry handles: every [`ThreadRuntime`] created
    /// afterwards registers a sharded counter slot (and a flight ring
    /// when the handles carry a recorder) and feeds the registry from
    /// its meter points. Attach before spawning workers; existing
    /// threads are unaffected. Telemetry never changes published code,
    /// results, or [`RtStats`] — see `dyc_obs::live`'s
    /// observer-effect-free obligations.
    pub fn attach_live(&self, handles: LiveHandles) {
        *self.live.write().unwrap() = Some(handles);
    }

    /// The attached live-telemetry handles, if any.
    pub fn live_handles(&self) -> Option<LiveHandles> {
        self.live.read().unwrap().clone()
    }

    /// The adaptive policy engine, when enabled (diagnostics and tests).
    pub fn policy_engine(&self) -> Option<&PolicyEngine> {
        self.policy.as_ref()
    }

    /// A fresh per-thread dispatch handler. Pair it with
    /// [`SharedRuntime::base_module`] and the thread's own
    /// [`Vm`](dyc_vm::Vm).
    pub fn thread(shared: &Arc<SharedRuntime>) -> ThreadRuntime {
        let tid = shared.next_thread.fetch_add(1, Ordering::Relaxed);
        let miss_hist = shared
            .opts
            .latency
            .then(|| Box::new(LatencyHistogram::new()));
        let live = shared
            .live
            .read()
            .unwrap()
            .as_ref()
            .map(|h| Box::new(h.thread(tid)));
        let store = SharedStore {
            shared: Arc::clone(shared),
            local_ids: Vec::new(),
            site_cache: Vec::new(),
        };
        let global = Some(Arc::clone(&shared.stats));
        Dispatcher::with_store(store, tid, miss_hist, live, global)
    }

    /// A fresh copy of the statically compiled base module for a thread
    /// replica.
    pub fn base_module(&self) -> Module {
        self.base_module.clone()
    }

    /// The staged program being run.
    pub fn staged(&self) -> &StagedProgram {
        &self.staged
    }

    /// Number of dispatch sites (entries + internal promotions so far).
    pub fn n_sites(&self) -> usize {
        self.sites.read().unwrap().len()
    }

    /// Number of entry (statically splice-created) dispatch sites. Site
    /// ids at or above this are internal promotion sites, numbered in
    /// the order their parent specializations first created them.
    pub fn n_entry_sites(&self) -> usize {
        self.staged.entry_sites.len()
    }

    /// Number of code functions ever published to the shared registry.
    pub fn published(&self) -> usize {
        self.registry.read().unwrap().published as usize
    }

    /// Resolved code-cache shard count (after auto-sizing and
    /// power-of-two rounding).
    pub fn n_cache_shards(&self) -> usize {
        self.cache.n_shards()
    }

    /// Resolved single-flight wait-map shard count.
    pub fn n_flight_shards(&self) -> usize {
        self.inflight.n_shards()
    }

    /// The code in the registry slot with global id `gid` (diagnostics /
    /// the stress harness's byte-identity check). Ids come from
    /// [`SharedRuntime::cache_snapshot`]; a slot freed since (its binding
    /// evicted or invalidated by a running thread) has no code.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is a base-module id, out of range, or freed.
    pub fn code(&self, gid: u32) -> Arc<CodeFunc> {
        let reg = self.registry.read().unwrap();
        let slot = &reg.slots[gid as usize - self.base_len];
        Arc::clone(slot.code.as_ref().expect("registry slot was freed"))
    }

    /// Store `code` in a free registry slot; returns its handle.
    fn publish_code(&self, code: CodeFunc) -> Gid {
        self.registry.write().unwrap().publish(Arc::new(code))
    }

    /// Free the registry slot of code just unbound from the cache.
    fn free_code(&self, gid: Gid) {
        self.registry.write().unwrap().free(gid);
    }

    /// The code `gid` names, unless its slot was freed since.
    fn live_code(&self, gid: Gid) -> Option<Arc<CodeFunc>> {
        self.registry.read().unwrap().live(gid)
    }

    /// The public global id of `gid`'s slot.
    fn global_id(&self, gid: Gid) -> u32 {
        self.base_len as u32 + gid.slot
    }

    /// Bind `key` to published code `gid` in the cache, admitting it to a
    /// bounded site's clock first, and free the registry slot of every
    /// binding this removes. Returns the key the clock evicted to make
    /// room, with the clock slot it freed and the handle of the code
    /// that was bound to it.
    fn bind(&self, entry: &SiteEntry, key: &[u64], gid: Gid) -> Option<Evicted> {
        let Some(ev) = &entry.evict else {
            if let Some(old) = self
                .cache
                .insert(key.to_vec(), CacheVal { gid, clock_idx: 0 })
            {
                self.free_code(old.gid);
            }
            return None;
        };
        let mut ring = ev.clock.lock().unwrap();
        let (clock_idx, old) = ring.admit(&ev.bits, key);
        let gone = old
            .as_ref()
            .and_then(|k| self.cache.remove(k))
            .map(|v| v.gid);
        let replaced = self.cache.insert(key.to_vec(), CacheVal { gid, clock_idx });
        drop(ring);
        for g in gone.into_iter().chain(replaced.map(|v| v.gid)) {
            self.free_code(g);
        }
        old.map(|old| (old, clock_idx, gone))
    }

    /// Meter an event of the shared runtime itself, outside any thread
    /// handler: only the global meters see it.
    fn global_sinks<R>(&self, f: impl FnOnce(&mut Sinks<'_>) -> R) -> R {
        let (mut stats, mut trace) = (RtStats::new(), Trace::off());
        f(&mut Sinks {
            stats: &mut stats,
            trace: &mut trace,
            live: None,
            global: Some(&*self.stats),
        })
    }

    /// Unbind every specialization cached at `point` and free their
    /// registry slots; returns the freed handles.
    fn purge(&self, point: u32) -> Vec<Gid> {
        let entry = self.sites.read().unwrap().get(point as usize).cloned();
        let ev = entry.as_ref().and_then(|e| e.evict.as_ref());
        let mut ring = ev.map(|ev| ev.clock.lock().unwrap());
        let gone: Vec<Gid> = self
            .cache
            .purge_prefix(u64::from(point))
            .into_iter()
            .map(|v| v.gid)
            .collect();
        if let (Some(ev), Some(ring)) = (ev, ring.as_mut()) {
            ring.reset(&ev.bits);
        }
        drop(ring);
        for &g in &gone {
            self.free_code(g);
        }
        gone
    }

    /// Drop every specialization cached at `point`, exactly like
    /// [`Runtime::invalidate_site`](crate::Runtime::invalidate_site). The
    /// next dispatch through the site re-specializes. The dropped code's
    /// registry slots are freed at once; a thread's copy of one is freed
    /// when that thread next copies code into the slot, and a handle to
    /// it taken before the purge is refused by its generation, so stale
    /// code is never served. An invalidation racing an in-flight
    /// specialization may see that specialization's binding appear after
    /// the purge — that binding is freshly generated code, not stale
    /// code.
    pub fn invalidate_site(&self, point: u32) {
        self.purge(point);
        self.global_sinks(|s| s.note(EventKind::CacheInvalidate, point, &[], 0, 0, 0));
    }

    /// Snapshot of every `(site, key, global id)` binding currently
    /// cached, with the site prefix stripped from the key (matching
    /// [`Runtime::cache_entries`](crate::Runtime::cache_entries)).
    pub fn cache_snapshot(&self) -> Vec<(u32, Vec<u64>, u32)> {
        self.cache
            .snapshot()
            .into_iter()
            .map(|(k, v)| (k[0] as u32, k[1..].to_vec(), self.global_id(v.gid)))
            .collect()
    }

    /// Every `(site, key, code)` binding currently cached, like
    /// [`SharedRuntime::cache_snapshot`] but with the code read at the
    /// same time, so it is safe while threads evict: a binding evicted
    /// (and its registry slot freed) between the cache snapshot and the
    /// code read is left out.
    pub fn cached_code(&self) -> Vec<(u32, Vec<u64>, Arc<CodeFunc>)> {
        self.cache
            .snapshot()
            .into_iter()
            .filter_map(|(k, v)| Some((k[0] as u32, k[1..].to_vec(), self.live_code(v.gid)?)))
            .collect()
    }

    /// Serialize the shared dynamic-code cache — every `(site, key,
    /// code)` binding plus the internal promotion sites — as a
    /// versioned, fingerprinted [`CacheBundle`]. The published registry
    /// supplies the code bytes, so no thread module is needed. Safe to
    /// call while threads run, though a bundle snapshotted mid-burst
    /// simply misses in-flight specializations.
    pub fn snapshot_bundle(&self) -> CacheBundle {
        let guard = self.sites.read().unwrap();
        let sites: Vec<&Site> = guard.iter().map(|e| &e.site).collect();
        artifact::snapshot(&self.staged, &sites, self.cached_code())
    }

    /// Warm-start the shared runtime from a snapshot bundle, with the
    /// same verification as
    /// [`Runtime::restore_bundle`](crate::Runtime::restore_bundle) (the
    /// runtime must be fresh: nothing published or promoted yet).
    /// Accepted code is published to the registry and bound in the
    /// sharded cache — threads spawned afterwards hit it on their first
    /// dispatch. Rejections and loads are metered in [`ConcSnapshot`]
    /// (`cache_warm_rejects` / `cache_warm_loads`); nothing panics.
    pub fn restore_bundle(&self, bundle: &CacheBundle) {
        let fresh = self.n_sites() == self.staged.entry_sites.len() && self.published() == 0;
        let mut host = self;
        self.global_sinks(|sinks| {
            let policy = self.policy.as_ref();
            artifact::restore(&self.staged, bundle, fresh, policy, &mut host, sinks)
        });
    }

    /// Snapshot of the global meters.
    pub fn stats(&self) -> ConcSnapshot {
        let g = |c| self.stats.get(c);
        let (published, live, high_water) = {
            let reg = self.registry.read().unwrap();
            (
                reg.published,
                reg.slots.len() - reg.free.len(),
                reg.slots.len(),
            )
        };
        ConcSnapshot {
            specializations: g(Counter::Specializations),
            single_flight_waits: g(Counter::FlightWaits),
            single_flight_fallbacks: g(Counter::FlightFallbacks),
            single_flight_races: g(Counter::FlightRaces),
            cache_evictions: g(Counter::Evictions),
            cache_invalidations: g(Counter::Invalidations),
            generic_continuations: g(Counter::GenericContinuations),
            cache_warm_loads: g(Counter::WarmLoads),
            cache_warm_rejects: g(Counter::WarmRejects),
            native_installs: g(Counter::NativeInstalls),
            native_fallbacks: g(Counter::NativeFallbacks),
            policy_defers: g(Counter::PolicyDefers),
            policy_promotes: g(Counter::PolicyPromotes),
            policy_throttled: g(Counter::PolicyThrottles),
            stale_reprobes: g(Counter::FlightStales),
            published,
            registry_live: live as u64,
            registry_high_water: high_water as u64,
            shards: self.cache.meters(),
        }
    }

    /// The handle of `point`'s generic continuation, and whether this
    /// call compiled and published it (at most one call per site does).
    /// A continuation is never unbound, so its handle never goes stale.
    fn generic_continuation(&self, point: u32) -> (Gid, bool) {
        let entry = Arc::clone(&self.sites.read().unwrap()[point as usize]);
        let mut slot = entry.fallback.lock().unwrap();
        if let Some(g) = *slot {
            return (g, false);
        }
        let gid = self.publish_code(entry.site.generic_code(&self.staged));
        *slot = Some(gid);
        (gid, true)
    }
}

impl WarmHost for &SharedRuntime {
    fn add_site(&mut self, site: Site) {
        SpecHost::add_site(self, site);
    }

    fn install(&mut self, art: &CodeArtifact) -> Option<FuncId> {
        let entry = Arc::clone(&self.sites.read().unwrap()[art.site as usize]);
        // Surplus beyond a bounded site's capacity is rejected, not
        // admitted at the expense of entries just restored.
        if (entry.evict.as_ref()).is_some_and(|ev| ev.clock.lock().unwrap().at_capacity()) {
            return None;
        }
        let mut key = Vec::with_capacity(art.key.len() + 1);
        key.push(u64::from(art.site));
        key.extend_from_slice(&art.key);
        let gid = self.publish_code(art.to_func());
        self.bind(&entry, &key, gid);
        Some(FuncId(self.global_id(gid)))
    }
}

/// One thread's view of a [`SharedRuntime`]: the code store a
/// [`ThreadRuntime`] dispatches against. It owns the thread-local state —
/// the lazy map from registry slots to the thread's module-local
/// [`FuncId`]s and a prefix of the site table — so the steady-state hit
/// path takes one shard read-lock, compares one generation and performs
/// no heap allocation.
#[derive(Debug)]
pub struct SharedStore {
    shared: Arc<SharedRuntime>,
    /// Registry slot → the generation this thread copied from it and the
    /// copy's local [`FuncId`], filled on first use. At most one copy per
    /// slot: copying a newer generation retires the older copy.
    local_ids: Vec<Option<(u32, FuncId)>>,
    /// Locally cached prefix of the shared site table (append-only, so a
    /// prefix is never stale).
    site_cache: Vec<Arc<SiteEntry>>,
}

impl CodeStore for SharedStore {
    /// A registry slot and its generation.
    type Code = Gid;
    type Vacancy = ();
    /// The flight this thread resolves once it publishes.
    type Ticket = Arc<Flight>;

    fn staged(&self) -> &StagedProgram {
        &self.shared.staged
    }

    #[inline]
    fn policy(&self) -> Option<&PolicyEngine> {
        self.shared.policy.as_ref()
    }

    /// Refreshes the local prefix from the shared table only when `point`
    /// is beyond it (another thread registered a new promotion site).
    #[inline]
    fn site(&mut self, point: u32) -> &Site {
        if point as usize >= self.site_cache.len() {
            let sites = self.shared.sites.read().unwrap();
            let have = self.site_cache.len();
            self.site_cache.extend(sites[have..].iter().cloned());
        }
        &self.site_cache[point as usize].site
    }

    /// Every lane is one shard read-lock on the shared cache; the cycle
    /// model still charges each lane its own cost.
    #[inline]
    fn probe(&mut self, _lane: Lane, key: &[u64]) -> (Option<Gid>, u32, ()) {
        let p = self.shared.cache.get(key);
        let gid = p.value.map(|v| {
            if let Some(ev) = &self.site_cache[key[0] as usize].evict {
                ev.touch(v.clock_idx);
            }
            v.gid
        });
        (gid, p.probes, ())
    }

    /// Single-flight: become the winner, or follow the miss policy.
    fn claim(&mut self, key: &[u64], _: ()) -> Claim<Gid, Arc<Flight>> {
        let flight = {
            let mut map = self.shared.inflight.shard(key).lock().unwrap();
            if let Some(fl) = map.get(key) {
                Arc::clone(fl)
            } else if let Some(v) = self.shared.cache.get(key).value {
                // Published between our probe and taking the shard lock.
                return Claim::Raced(v.gid);
            } else {
                let fl = Arc::new(Flight::new());
                map.insert(key.to_vec(), Arc::clone(&fl));
                return Claim::Win(fl);
            }
        };
        match self.shared.opts.miss_policy {
            MissPolicy::Block => {
                let t0 = now_ns();
                let result = flight.wait();
                Claim::Waited(result, now_ns().saturating_sub(t0))
            }
            MissPolicy::Fallback => Claim::Fallback,
        }
    }

    /// Publish to the registry and the cache, then resolve and remove the
    /// flight (in that order — see the module docs on memory ordering).
    /// This thread's copy of the evicted code is retired.
    fn publish(
        &mut self,
        key: &[u64],
        flight: Arc<Flight>,
        func: FuncId,
        module: &Module,
        retired: &mut Retired,
    ) -> (Gid, Option<(Vec<u64>, u32)>) {
        let gid = self.shared.publish_code(module.func(func).clone());
        self.bind_local(gid, func, retired);
        let (shared, entry) = (&self.shared, &self.site_cache[key[0] as usize]);
        if let (Some(ev), Some(eng), SitePolicy::CacheAllBounded(k)) =
            (&entry.evict, &shared.policy, entry.site.policy)
        {
            // Auto-sizing: revivals observed at this site grow the
            // effective bound (pre-allocated headroom, so no reallocation).
            let cap = eng.cap_for(key[0] as u32, k.max(1) as usize);
            ev.clock.lock().unwrap().grow_to(cap);
        }
        let evicted = shared.bind(entry, key, gid);
        shared.inflight.shard(key).lock().unwrap().remove(key);
        flight.resolve(Ok(gid));
        let evicted = evicted.map(|(mut old, slot, gone)| {
            if let Some(f) = gone.and_then(|g| self.forget_local(g)) {
                retired.push(f);
            }
            old.remove(0);
            (old, slot)
        });
        (gid, evicted)
    }

    fn abandon(&mut self, key: &[u64], flight: Arc<Flight>, err: &VmError) {
        self.shared.inflight.shard(key).lock().unwrap().remove(key);
        flight.resolve(Err(err.to_string()));
    }

    /// Copy published code into this thread's module on first use of its
    /// generation; `None` if the generation is gone.
    #[inline]
    fn resolve(
        &mut self,
        gid: Gid,
        module: &mut Module,
        retired: &mut Retired,
    ) -> Option<(FuncId, bool)> {
        if let Some(Some((gen, f))) = self.local_ids.get(gid.slot as usize) {
            if *gen == gid.gen {
                return Some((*f, false));
            }
        }
        self.copy(gid, module, retired).map(|f| (f, true))
    }

    fn generic(
        &mut self,
        point: u32,
        module: &mut Module,
        retired: &mut Retired,
    ) -> (FuncId, bool, bool) {
        let (gid, built) = self.shared.generic_continuation(point);
        let (f, fresh) = self
            .resolve(gid, module, retired)
            .expect("generic continuations are never freed");
        (f, built, fresh)
    }

    fn with_spec<R>(
        &mut self,
        point: u32,
        f: impl FnOnce(&StagedProgram, &Site, &mut dyn SpecHost) -> R,
    ) -> R {
        self.site(point);
        let entry = Arc::clone(&self.site_cache[point as usize]);
        f(&self.shared.staged, &entry.site, &mut &*self.shared)
    }
}

impl SharedStore {
    /// Copy the code `gid` names into `module`, unless its slot was freed
    /// since the handle was taken. Out of line: the hit path only
    /// compares generations.
    #[cold]
    #[inline(never)]
    fn copy(&mut self, gid: Gid, module: &mut Module, retired: &mut Retired) -> Option<FuncId> {
        let code = self.shared.live_code(gid)?;
        let f = module.add_func(code.as_ref().clone());
        self.bind_local(gid, f, retired);
        Some(f)
    }

    /// Record that published code `gid` is `func` in this thread's
    /// module, retiring this thread's copy of an older generation.
    fn bind_local(&mut self, gid: Gid, func: FuncId, retired: &mut Retired) {
        let idx = gid.slot as usize;
        if idx >= self.local_ids.len() {
            self.local_ids.resize(idx + 1, None);
        }
        if let Some((_, old)) = self.local_ids[idx].replace((gid.gen, func)) {
            retired.push(old);
        }
    }

    /// Forget this thread's copy of `gid`, just unbound, returning it for
    /// the caller to retire.
    fn forget_local(&mut self, gid: Gid) -> Option<FuncId> {
        let local = self.local_ids.get_mut(gid.slot as usize)?;
        let (_, f) = local.filter(|(gen, _)| *gen == gid.gen)?;
        *local = None;
        Some(f)
    }
}

/// One thread's dispatch handler over a [`SharedRuntime`]: the dispatch
/// core over the thread's [`SharedStore`]. Its [`RtStats`] are the
/// thread's own meters.
pub type ThreadRuntime = Dispatcher<SharedStore>;

impl ThreadRuntime {
    /// The shared runtime this handler dispatches against.
    pub fn shared(&self) -> &Arc<SharedRuntime> {
        &self.store.shared
    }

    /// [`SharedRuntime::invalidate_site`], metered by this thread (its
    /// [`RtStats`] and trace as well as the global meters). This thread's
    /// copies of the dropped code are retired too; the next dispatch
    /// frees them.
    pub fn invalidate_site(&mut self, point: u32) {
        for g in self.store.shared.purge(point) {
            if let Some(f) = self.store.forget_local(g) {
                self.retired.push_idle(f);
            }
        }
        self.note(EventKind::CacheInvalidate, point, &[], 0, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyc_bta::OptConfig;
    use dyc_vm::{CostModel, Value, Vm};

    fn staged_with(src: &str, cfg: OptConfig) -> StagedProgram {
        let mut ir = dyc_ir::lower_program(&dyc_lang::parse_program(src).unwrap()).unwrap();
        dyc_ir::opt::optimize_program(&mut ir);
        dyc_stage::stage_program(ir, cfg)
    }

    fn staged(src: &str) -> StagedProgram {
        staged_with(src, OptConfig::all())
    }

    fn adaptive(src: &str) -> StagedProgram {
        staged_with(src, OptConfig::all().with_policy(PolicyMode::Adaptive))
    }

    const POWER: &str = "int pow(int b, int e) { make_static(e);
        int r = 1; while (e > 0) { r = r * b; e = e - 1; } return r; }";

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_runtime_is_send_and_sync() {
        assert_send_sync::<SharedRuntime>();
        assert_send_sync::<ThreadRuntime>();
    }

    #[test]
    fn sharded_cache_basics() {
        let c: ShardedCache<u32> = ShardedCache::new(3); // rounds to 4
        assert_eq!(c.n_shards(), 4);
        assert!(c.is_empty());
        for i in 0..100u64 {
            c.insert(vec![i % 7, i], i as u32);
        }
        assert_eq!(c.len(), 100);
        for i in 0..100u64 {
            assert_eq!(c.get(&[i % 7, i]).value, Some(i as u32));
        }
        assert_eq!(c.remove(&[0, 0]), Some(0));
        assert_eq!(c.get(&[0, 0]).value, None);
        // Purge everything with site prefix 3.
        let purged = c.purge_prefix(3);
        assert!(!purged.is_empty());
        assert!(c.snapshot().iter().all(|(k, _)| k[0] != 3));
        let m = c.meters();
        assert_eq!(m.len(), 4);
        assert!(m.iter().map(|s| s.lookups).sum::<u64>() >= 101);
    }

    #[test]
    fn single_thread_end_to_end_with_cache_hits() {
        let shared = Arc::new(SharedRuntime::new(staged(POWER)));
        let mut t = SharedRuntime::thread(&shared);
        let mut module = shared.base_module();
        let mut vm = Vm::new(CostModel::alpha21164());
        let id = module.func_by_name("pow").unwrap();
        for _ in 0..4 {
            let out = vm
                .call_with_handler(&mut module, &mut t, id, &[Value::I(3), Value::I(4)])
                .unwrap();
            assert_eq!(out, Some(Value::I(81)));
        }
        let s = shared.stats();
        assert_eq!(s.specializations, 1);
        assert_eq!(s.published, 1);
        assert_eq!(s.single_flight_suppressed(), 0);
        assert_eq!(t.stats.specializations, 1);
        assert_eq!(t.stats.runtime_bta_calls, 0);
        // New key, new specialization.
        let out = vm
            .call_with_handler(&mut module, &mut t, id, &[Value::I(2), Value::I(10)])
            .unwrap();
        assert_eq!(out, Some(Value::I(1024)));
        assert_eq!(shared.stats().specializations, 2);
    }

    #[test]
    fn threads_race_without_duplicate_specializations() {
        let shared = Arc::new(SharedRuntime::new(staged(POWER)));
        let n = 8;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut t = SharedRuntime::thread(&shared);
                    let mut module = shared.base_module();
                    let mut vm = Vm::new(CostModel::alpha21164());
                    let id = module.func_by_name("pow").unwrap();
                    barrier.wait();
                    for e in [4i64, 4, 7, 7, 4, 9] {
                        let out = vm
                            .call_with_handler(&mut module, &mut t, id, &[Value::I(2), Value::I(e)])
                            .unwrap();
                        assert_eq!(out, Some(Value::I(1i64 << e)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Three distinct keys → exactly three specializations globally,
        // no matter how the eight threads interleaved.
        let s = shared.stats();
        assert_eq!(s.specializations, 3);
        assert_eq!(s.published, 3);
        assert_eq!(shared.cache_snapshot().len(), 3);
    }

    #[test]
    fn fallback_policy_produces_correct_results_under_races() {
        let shared = Arc::new(SharedRuntime::with_options(
            staged(POWER),
            SharedOptions {
                miss_policy: MissPolicy::Fallback,
                ..SharedOptions::default()
            },
        ));
        let n = 8;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut t = SharedRuntime::thread(&shared);
                    let mut module = shared.base_module();
                    let mut vm = Vm::new(CostModel::alpha21164());
                    let id = module.func_by_name("pow").unwrap();
                    barrier.wait();
                    for e in [5i64, 5, 8, 8, 5] {
                        let out = vm
                            .call_with_handler(&mut module, &mut t, id, &[Value::I(2), Value::I(e)])
                            .unwrap();
                        assert_eq!(out, Some(Value::I(1i64 << e)));
                    }
                    t.stats.single_flight_fallbacks
                })
            })
            .collect();
        let fallbacks: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let s = shared.stats();
        assert_eq!(s.specializations, 2); // two distinct keys
        assert_eq!(s.single_flight_fallbacks, fallbacks);
        // Whether any race actually happened is scheduling-dependent, but
        // a compiled continuation implies at least one fallback occurred.
        assert!(s.generic_continuations <= 1);
        assert!((s.generic_continuations == 0) == (fallbacks == 0));
    }

    #[test]
    fn generic_continuation_matches_specialized_results() {
        let shared = Arc::new(SharedRuntime::new(staged(POWER)));
        let mut t = SharedRuntime::thread(&shared);
        let mut module = shared.base_module();
        let mut vm = Vm::new(CostModel::alpha21164());
        // Force-build the continuation for the entry site and run it with
        // the full dispatch arguments [b, e] (arg order).
        let entry = Arc::clone(&shared.sites.read().unwrap()[0]);
        let fid = t.generic(0, &mut module);
        for (b, e) in [(3i64, 4i64), (2, 0), (5, 3), (-2, 5)] {
            let args: Vec<Value> = entry
                .site
                .arg_vars
                .iter()
                .map(|v| {
                    // pow's arg_vars are its two params in order (b, e).
                    let idx = entry.site.arg_vars.iter().position(|x| x == v).unwrap();
                    if idx == 0 {
                        Value::I(b)
                    } else {
                        Value::I(e)
                    }
                })
                .collect();
            let generic = vm.call(&mut module, fid, &args).unwrap();
            assert_eq!(generic, Some(Value::I(b.pow(e as u32))), "pow({b},{e})");
        }
        // Only one continuation is ever compiled per site.
        assert_eq!(t.generic(0, &mut module), fid);
        assert_eq!(shared.stats().generic_continuations, 1);
        assert_eq!(t.stats.dyncomp_cycles, 0, "no dynamic-compilation cycles");
    }

    #[test]
    fn bounded_sites_evict_and_respecialize() {
        let src = "int pow(int b, int e) { make_static(e: cache_all(2));
            int r = 1; while (e > 0) { r = r * b; e = e - 1; } return r; }";
        let shared = Arc::new(SharedRuntime::new(staged(src)));
        let mut t = SharedRuntime::thread(&shared);
        let mut module = shared.base_module();
        let mut vm = Vm::new(CostModel::alpha21164());
        let id = module.func_by_name("pow").unwrap();
        let mut run = |e: i64| {
            let out = vm
                .call_with_handler(&mut module, &mut t, id, &[Value::I(2), Value::I(e)])
                .unwrap();
            assert_eq!(out, Some(Value::I(1i64 << e)));
        };
        run(1);
        run(2);
        run(3); // capacity 2: someone is evicted
        let s = shared.stats();
        assert_eq!(s.specializations, 3);
        assert_eq!(s.cache_evictions, 1);
        assert!(shared.cache_snapshot().len() <= 2);
        // The evicted key re-specializes correctly (never a stale id).
        let before = shared.stats().specializations;
        run(1);
        run(2);
        run(3);
        let after = shared.stats().specializations;
        assert!(after > before, "an evicted key must re-specialize");
        assert!(shared.cache_snapshot().len() <= 2);
    }

    #[test]
    fn a_stale_handle_is_refused_and_the_dispatch_probes_again() {
        // Two stores over one shared runtime, driven in turn on one
        // thread: store B evicts the code store A found and republishes
        // into its freed registry slot before A resolves its handle.
        let src = "int pow(int b, int e) { make_static(e: cache_all(1));
            int r = 1; while (e > 0) { r = r * b; e = e - 1; } return r; }";
        let shared = Arc::new(SharedRuntime::new(staged(src)));
        let (mut a, mut b) = (
            SharedRuntime::thread(&shared),
            SharedRuntime::thread(&shared),
        );
        let (mut ma, mut mb) = (shared.base_module(), shared.base_module());
        let (mut va, mut vb) = (
            Vm::new(CostModel::alpha21164()),
            Vm::new(CostModel::alpha21164()),
        );
        let id = ma.func_by_name("pow").unwrap();
        let run = |t: &mut ThreadRuntime, m: &mut Module, vm: &mut Vm, e: i64| {
            vm.call_with_handler(m, t, id, &[Value::I(2), Value::I(e)])
                .unwrap()
        };
        let key = |e: i64| [0, Value::I(e).key_bits()];

        // B specializes e = 3, and A probes it (after loading the site,
        // as a dispatch does first).
        assert_eq!(run(&mut b, &mut mb, &mut vb, 3), Some(Value::I(8)));
        a.store.site(0);
        let stale = a
            .store
            .probe(Lane::Hashed, &key(3))
            .0
            .expect("e = 3 is bound");
        // B evicts e = 3 (e = 4 takes a new slot, freeing e = 3's), then
        // publishes e = 5 into the freed slot, evicting e = 4.
        assert_eq!(run(&mut b, &mut mb, &mut vb, 4), Some(Value::I(16)));
        assert_eq!(run(&mut b, &mut mb, &mut vb, 5), Some(Value::I(32)));
        let reused = a
            .store
            .probe(Lane::Hashed, &key(5))
            .0
            .expect("e = 5 is bound");
        assert_eq!(
            reused.slot, stale.slot,
            "e = 5 reuses e = 3's registry slot"
        );
        assert_ne!(reused.gen, stale.gen);
        let s = shared.stats();
        assert_eq!(
            (s.published, s.registry_live, s.registry_high_water),
            (3, 1, 2)
        );

        // A's resolve refuses the old generation; the dispatch probes
        // again, misses, and specializes e = 3 afresh.
        assert_eq!(a.store.resolve(stale, &mut ma, &mut a.retired), None);
        assert_eq!(a.store.probe(Lane::Hashed, &key(3)).0, None);
        assert_eq!(run(&mut a, &mut ma, &mut va, 3), Some(Value::I(8)));

        // B evicts A's e = 3 and reuses its slot for e = 6 (via e = 4
        // again): A must copy e = 6 rather than run its own copy of the
        // e = 3 code that slot held before.
        assert_eq!(run(&mut b, &mut mb, &mut vb, 4), Some(Value::I(16)));
        assert_eq!(run(&mut b, &mut mb, &mut vb, 6), Some(Value::I(64)));
        assert_eq!(run(&mut a, &mut ma, &mut va, 6), Some(Value::I(64)));
        // A's copy of e = 3 is retired by that copy and freed by A's next
        // miss, in a later run: A's module holds at most the slots' worth
        // of copies plus what one run retires.
        let base = shared.base_module().len();
        assert_eq!(ma.len(), base + 2);
        assert_eq!(run(&mut a, &mut ma, &mut va, 7), Some(Value::I(128)));
        assert_eq!(ma.len(), base + 2);
    }

    #[test]
    fn invalidate_site_forces_respecialization() {
        let shared = Arc::new(SharedRuntime::new(staged(POWER)));
        let mut t = SharedRuntime::thread(&shared);
        let mut module = shared.base_module();
        let mut vm = Vm::new(CostModel::alpha21164());
        let id = module.func_by_name("pow").unwrap();
        let args = [Value::I(3), Value::I(4)];
        vm.call_with_handler(&mut module, &mut t, id, &args)
            .unwrap();
        assert_eq!(shared.stats().specializations, 1);
        shared.invalidate_site(0);
        assert!(shared.cache_snapshot().is_empty());
        let out = vm
            .call_with_handler(&mut module, &mut t, id, &args)
            .unwrap();
        assert_eq!(out, Some(Value::I(81)));
        let s = shared.stats();
        assert_eq!(s.specializations, 2);
        assert_eq!(s.cache_invalidations, 1);
    }

    #[test]
    fn steady_state_hits_do_not_allocate_in_dispatch() {
        let shared = Arc::new(SharedRuntime::new(staged(POWER)));
        let mut t = SharedRuntime::thread(&shared);
        let mut module = shared.base_module();
        let mut vm = Vm::new(CostModel::alpha21164());
        let id = module.func_by_name("pow").unwrap();
        let args = [Value::I(3), Value::I(4)];
        // Warm up: specialize + materialize + grow the scratch key.
        vm.call_with_handler(&mut module, &mut t, id, &args)
            .unwrap();
        vm.call_with_handler(&mut module, &mut t, id, &args)
            .unwrap();
        let allocs = t.stats.dispatch_allocs;
        for _ in 0..50 {
            vm.call_with_handler(&mut module, &mut t, id, &args)
                .unwrap();
        }
        assert_eq!(
            t.stats.dispatch_allocs, allocs,
            "hit path must not allocate"
        );
    }

    #[test]
    fn conc_snapshot_covers_every_meter() {
        // Every global meter is bumped through the meter table: noting
        // each kind once must surface as exactly one count in its
        // snapshot field, and no kind may reach a field it does not own.
        assert_eq!(
            std::mem::size_of::<ConcSnapshot>(),
            std::mem::size_of::<Vec<ShardMeter>>() + 18 * 8
        );
        let shared = SharedRuntime::new(staged(POWER));
        let noted = |kind: EventKind| {
            shared.global_sinks(|s| s.note(kind, 0, &[], 0, 0, 0));
            shared.stats()
        };
        type Field = fn(&ConcSnapshot) -> u64;
        let cases: [(EventKind, Field); 15] = [
            (EventKind::GeExecEnd, |s| s.specializations),
            (EventKind::FlightWait, |s| s.single_flight_waits),
            (EventKind::FlightFallback, |s| s.single_flight_fallbacks),
            (EventKind::FlightRace, |s| s.single_flight_races),
            (EventKind::CacheEvict, |s| s.cache_evictions),
            (EventKind::CacheInvalidate, |s| s.cache_invalidations),
            (EventKind::GenericBuild, |s| s.generic_continuations),
            (EventKind::CacheWarmLoad, |s| s.cache_warm_loads),
            (EventKind::CacheWarmReject, |s| s.cache_warm_rejects),
            (EventKind::NativeInstall, |s| s.native_installs),
            (EventKind::NativeFallback, |s| s.native_fallbacks),
            (EventKind::PolicyDefer, |s| s.policy_defers),
            (EventKind::PolicyPromote, |s| s.policy_promotes),
            (EventKind::PolicyThrottle, |s| s.policy_throttled),
            (EventKind::FlightStale, |s| s.stale_reprobes),
        ];
        for (i, (kind, field)) in cases.iter().enumerate() {
            let s = noted(*kind);
            assert_eq!(field(&s), 1, "{kind:?} missed its meter");
            let total: u64 = cases.iter().map(|(_, f)| f(&s)).sum();
            assert_eq!(total, i as u64 + 1, "{kind:?} bumped a foreign meter");
        }
        let s = shared.stats();
        assert_eq!(
            (s.published, s.registry_live, s.registry_high_water),
            (0, 0, 0)
        );
    }

    #[test]
    fn adaptive_policy_defers_then_promotes() {
        let shared = Arc::new(SharedRuntime::new(adaptive(POWER)));
        let mut t = SharedRuntime::thread(&shared);
        let mut module = shared.base_module();
        let mut vm = Vm::new(CostModel::alpha21164());
        let id = module.func_by_name("pow").unwrap();
        let run = |t: &mut ThreadRuntime, module: &mut Module, vm: &mut Vm| {
            vm.call_with_handler(module, t, id, &[Value::I(3), Value::I(4)])
                .unwrap()
        };
        // First dispatch: below the cold-start threshold (2) → the
        // generic continuation runs, with the right answer.
        assert_eq!(run(&mut t, &mut module, &mut vm), Some(Value::I(81)));
        let s = shared.stats();
        assert_eq!(
            (s.specializations, s.policy_defers, s.generic_continuations),
            (0, 1, 1)
        );
        // Second: crosses the threshold → promoted and specialized.
        assert_eq!(run(&mut t, &mut module, &mut vm), Some(Value::I(81)));
        let s = shared.stats();
        assert_eq!((s.specializations, s.policy_promotes), (1, 1));
        // Third: a plain cache hit.
        assert_eq!(run(&mut t, &mut module, &mut vm), Some(Value::I(81)));
        assert_eq!(shared.stats().specializations, 1);
        // Per-thread meters agree with the global atomics.
        assert_eq!((t.stats.policy_defers, t.stats.policy_promotes), (1, 1));
    }

    #[test]
    fn adaptive_policy_counts_exactly_under_contention() {
        let shared = Arc::new(SharedRuntime::new(adaptive(POWER)));
        let n = 8;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut t = SharedRuntime::thread(&shared);
                    let mut module = shared.base_module();
                    let mut vm = Vm::new(CostModel::alpha21164());
                    let id = module.func_by_name("pow").unwrap();
                    barrier.wait();
                    for _ in 0..50 {
                        let out = vm
                            .call_with_handler(&mut module, &mut t, id, &[Value::I(2), Value::I(6)])
                            .unwrap();
                        assert_eq!(out, Some(Value::I(64)));
                    }
                    (t.stats.policy_defers, t.stats.policy_promotes)
                })
            })
            .collect();
        let (mut defers, mut promotes) = (0u64, 0u64);
        for h in handles {
            let (d, p) = h.join().unwrap();
            defers += d;
            promotes += p;
        }
        // Every per-key decision is serialized by the engine's map
        // mutex, so for one shared key exactly one miss defers (count 1)
        // and exactly one promotes (count 2), no matter how the eight
        // threads interleave — and single-flight still collapses the
        // post-promotion races into one specialization.
        let s = shared.stats();
        assert_eq!((s.policy_defers, s.policy_promotes), (1, 1));
        assert_eq!((defers, promotes), (1, 1));
        assert_eq!(s.specializations, 1);
        assert_eq!(s.policy_throttled, 0);
    }

    #[test]
    fn adaptive_grows_bounded_caps_to_fit_the_working_set() {
        let src = "int pow(int b, int e) { make_static(e: cache_all(2));
            int r = 1; while (e > 0) { r = r * b; e = e - 1; } return r; }";
        let shared = Arc::new(SharedRuntime::new(adaptive(src)));
        let mut t = SharedRuntime::thread(&shared);
        let mut module = shared.base_module();
        let mut vm = Vm::new(CostModel::alpha21164());
        let id = module.func_by_name("pow").unwrap();
        // Working set of 3 cycled through a declared bound of 2: each
        // eviction's victim comes back (a revival), growing the
        // effective cap until all three variants are co-resident.
        for _round in 0..6 {
            for e in [1i64, 2, 3] {
                let out = vm
                    .call_with_handler(&mut module, &mut t, id, &[Value::I(2), Value::I(e)])
                    .unwrap();
                assert_eq!(out, Some(Value::I(1i64 << e)));
            }
        }
        assert_eq!(shared.cache_snapshot().len(), 3);
        // Steady state: a further round is all hits — no re-specialization,
        // no eviction (impossible under the fixed cap of 2).
        let s0 = shared.stats();
        for e in [1i64, 2, 3] {
            vm.call_with_handler(&mut module, &mut t, id, &[Value::I(2), Value::I(e)])
                .unwrap();
        }
        let s1 = shared.stats();
        assert_eq!(s1.specializations, s0.specializations);
        assert_eq!(s1.cache_evictions, s0.cache_evictions);
    }
}
