//! The single-threaded run-time system: dispatch sites, the per-policy
//! code caches, and [`Runtime`], the dispatch core over them.
//!
//! "At run time, a dynamic region's custom dynamic compiler is invoked to
//! generate the region's code. The dynamic compiler first checks an
//! internal cache of previously dynamically generated code for a version
//! that was compiled for the values of the annotated variables. If one is
//! found, it is reused." (§2.1) The protocol itself lives in
//! [`crate::dispatch`]; this module supplies the [`LocalStore`] it runs
//! against, whose tables' probe counts feed the cycle model.

use crate::artifact::{self, CacheBundle, CodeArtifact, WarmHost};
use crate::cache::{CacheEntry, ClockKeys, DoubleHashCache, EvictCtl};
use crate::dispatch::{Claim, CodeStore, Dispatcher, Lane, Retired};
use crate::ge_exec::SpecHost;
use crate::policy::{PolicyEngine, PolicyParams};
use crate::stats::Sinks;
use dyc_bta::PolicyMode;
use dyc_ir::{BlockId, VReg};
use dyc_obs::EventKind;
use dyc_stage::{SitePolicy, StagedProgram};
use dyc_vm::{CodeFunc, FuncId, Module, Value, VmError};
use std::sync::{Arc, Mutex};

/// A dispatch site: a dynamic-region entry or an internal
/// dynamic-to-static promotion point.
#[derive(Debug, Clone)]
pub struct Site {
    /// Function containing the site.
    pub func: usize,
    /// Block of the resume point.
    pub block: BlockId,
    /// Instruction index of the resume point (the annotation).
    pub inst_idx: usize,
    /// Static context baked in at emit time, sorted by vreg (empty for
    /// entry sites). With the promoted `key_vars`, it is the static store
    /// specialization resumes with.
    pub base_store: Vec<(VReg, Value)>,
    /// Variables promoted at this site (their values form the cache key).
    pub key_vars: Vec<VReg>,
    /// Dispatch argument layout (all live variables at the point for entry
    /// sites; the live *dynamic* variables for internal sites).
    pub arg_vars: Vec<VReg>,
    /// Caching policy.
    pub policy: SitePolicy,
    /// Entry division in the function's precompiled GE program, when one
    /// exists: specialization runs through the staged
    /// [`GeExecutor`](crate::GeExecutor).
    /// `None` routes through the online `Specializer` (staging disabled
    /// or the function fell back).
    pub division: Option<u32>,
    /// Position of each `key_vars` entry within `arg_vars`. Derived once
    /// when the site is registered, so a dispatch extracts its cache key
    /// by direct indexing instead of per-call position searches.
    pub key_pos: Vec<usize>,
    /// Positions of the pass-through (dynamic) arguments within
    /// `arg_vars`: everything not in `base_store` or `key_vars`. Derived
    /// once, so the cache-hit path subsets the arguments without
    /// rebuilding the static store.
    pub dyn_pos: Vec<usize>,
}

impl Site {
    /// Entry site `i` of a staged program (layout not yet computed: the
    /// site table does that on registration).
    pub(crate) fn entry(staged: &StagedProgram, i: usize) -> Site {
        let e = &staged.entry_sites[i];
        Site {
            func: e.func,
            block: e.block,
            inst_idx: e.inst_idx,
            base_store: Vec::new(),
            key_vars: e.key_vars.iter().map(|(v, _)| *v).collect(),
            arg_vars: e.arg_vars.clone(),
            policy: e.policy,
            division: staged.ge.entry_divisions[i],
            key_pos: Vec::new(),
            dyn_pos: Vec::new(),
        }
    }

    /// The site's generic continuation: unspecialized code for the region
    /// resuming here, taking every dispatch argument, with the site's
    /// baked static context materialized as constants.
    pub(crate) fn generic_code(&self, staged: &StagedProgram) -> CodeFunc {
        dyc_ir::codegen::codegen_region_generic(
            &staged.ir.funcs[self.func],
            self.block,
            self.inst_idx,
            &self.arg_vars,
            &self.base_store,
        )
    }

    /// Is `v` in the base store?
    pub(crate) fn in_base_store(&self, v: VReg) -> bool {
        self.base_store
            .binary_search_by_key(&v, |(w, _)| *w)
            .is_ok()
    }

    pub(crate) fn precompute_layout(&mut self) {
        self.key_pos = self
            .key_vars
            .iter()
            .map(|kv| {
                self.arg_vars
                    .iter()
                    .position(|a| a == kv)
                    .expect("key vars are live at their own promotion point")
            })
            .collect();
        self.dyn_pos = self
            .arg_vars
            .iter()
            .enumerate()
            .filter(|(_, v)| !self.in_base_store(**v) && !self.key_vars.contains(v))
            .map(|(i, _)| i)
            .collect();
    }
}

#[derive(Debug)]
enum CacheState {
    All(DoubleHashCache),
    One(Option<FuncId>),
    /// Array-indexed lookup for byte-ranged keys (§3.1 extension), with a
    /// hashed overflow table for out-of-range values.
    Indexed {
        slots: Box<[Option<FuncId>; 256]>,
        overflow: DoubleHashCache,
    },
    /// Bounded `cache_all(k)`: the hashed table holds at most the
    /// clock's capacity of specializations, and the clock picks which to
    /// evict. Cached values carry their clock slot so a hit can set the
    /// reference bit without a second hash.
    Bounded {
        cache: DoubleHashCache<(FuncId, u32)>,
        evict: EvictCtl,
    },
}

impl CacheState {
    /// The table for a site under `policy`; a bounded site's clock may
    /// grow `growth` times its declared bound.
    fn for_policy(policy: SitePolicy, growth: usize) -> CacheState {
        match policy {
            SitePolicy::CacheAll => CacheState::All(DoubleHashCache::new()),
            SitePolicy::CacheAllBounded(k) => CacheState::Bounded {
                cache: DoubleHashCache::new(),
                evict: EvictCtl::new(k, growth),
            },
            SitePolicy::CacheOneUnchecked => CacheState::One(None),
            SitePolicy::CacheIndexed => CacheState::Indexed {
                slots: Box::new([None; 256]),
                overflow: DoubleHashCache::new(),
            },
        }
    }
}

/// A bounded site's clock ring, reached without locking: the store owns
/// it exclusively.
fn ring(clock: &mut Mutex<ClockKeys>) -> &mut ClockKeys {
    clock.get_mut().expect("a local clock is never locked")
}

/// The site table with one cache per site — the [`SpecHost`] new
/// internal promotion sites are registered in. Sites are shared, so a
/// specialization reads its own site while registering new ones.
#[derive(Debug)]
struct SiteTable {
    sites: Vec<Arc<Site>>,
    caches: Vec<CacheState>,
    /// How many times its bound a bounded site's clock may grow
    /// ([`EvictCtl::growth`]).
    growth: usize,
}

impl SpecHost for SiteTable {
    fn add_site(&mut self, mut site: Site) -> u32 {
        let id = self.sites.len() as u32;
        site.precompute_layout();
        self.caches
            .push(CacheState::for_policy(site.policy, self.growth));
        self.sites.push(Arc::new(site));
        id
    }
}

/// The single-threaded code store: one table per site, chosen by the
/// site's policy — the unchecked slot, the 256-entry array with its
/// hashed overflow, the double-hash table, or the bounded table with its
/// second-chance clock. Installed code lives in the one module the
/// runtime runs; code a bounded site evicts, or an invalidation drops,
/// is retired to the dispatch core, which removes it from the module.
#[derive(Debug)]
pub struct LocalStore {
    staged: StagedProgram,
    table: SiteTable,
    /// Adaptive specialization policy (`OptConfig::policy`), `None` in
    /// the default `Always` mode — the engine is consulted only on the
    /// dispatch miss path, so `Always` behavior is bit-for-bit unchanged.
    policy: Option<PolicyEngine>,
    /// Per-site generic continuation, compiled on first deferral.
    generic: Vec<Option<FuncId>>,
}

impl CodeStore for LocalStore {
    type Code = FuncId;
    /// The slot a hashed miss reserved (one probe sequence serves both
    /// the miss and the fill).
    type Vacancy = Option<usize>;
    type Ticket = Option<usize>;

    fn staged(&self) -> &StagedProgram {
        &self.staged
    }

    #[inline]
    fn policy(&self) -> Option<&PolicyEngine> {
        self.policy.as_ref()
    }

    #[inline]
    fn site(&mut self, point: u32) -> &Site {
        &self.table.sites[point as usize]
    }

    #[inline]
    fn probe(&mut self, lane: Lane, key: &[u64]) -> (Option<FuncId>, u32, Option<usize>) {
        let hashed = |e: CacheEntry| match e {
            CacheEntry::Hit { value, probes } => (Some(value), probes, None),
            CacheEntry::Vacant { slot, probes } => (None, probes, Some(slot)),
        };
        match &mut self.table.caches[key[0] as usize] {
            CacheState::One(f) => (*f, 0, None),
            CacheState::Indexed { slots, .. } if lane == Lane::Indexed => {
                // §3.1's proposed fast dispatch: "the lookup could be
                // implemented as a simple array indexing, in place of
                // DyC's current general-purpose hash-table lookup."
                (slots[key[1] as usize], 0, None)
            }
            CacheState::Indexed { overflow, .. } => hashed(overflow.lookup_or_reserve(&key[1..])),
            CacheState::All(c) => hashed(c.lookup_or_reserve(&key[1..])),
            CacheState::Bounded { cache, evict } => match cache.lookup_or_reserve(&key[1..]) {
                CacheEntry::Hit {
                    value: (f, idx),
                    probes,
                } => {
                    // Second chance: mark the entry recently used.
                    evict.touch(idx);
                    (Some(f), probes, None)
                }
                CacheEntry::Vacant { slot, probes } => (None, probes, Some(slot)),
            },
        }
    }

    fn claim(&mut self, _key: &[u64], vacancy: Option<usize>) -> Claim<FuncId, Option<usize>> {
        Claim::Win(vacancy)
    }

    fn publish(
        &mut self,
        key: &[u64],
        slot: Option<usize>,
        func: FuncId,
        _module: &Module,
        retired: &mut Retired,
    ) -> (FuncId, Option<(Vec<u64>, u32)>) {
        let point = key[0] as u32;
        let words = &key[1..];
        let reserved = || slot.expect("a hashed miss reserves its slot");
        // Auto-sizing: a revival (promoted key missing again) grows the
        // effective bound, so keys with reuse distance beyond the
        // declared `k` stop thrashing. Bounded by `k * cap_growth_limit`.
        let grown_cap = match (&self.policy, self.table.sites[point as usize].policy) {
            (Some(eng), SitePolicy::CacheAllBounded(k)) => {
                Some(eng.cap_for(point, k.max(1) as usize))
            }
            _ => None,
        };
        match &mut self.table.caches[point as usize] {
            CacheState::One(f) => *f = Some(func),
            CacheState::Indexed { slots, overflow } => match slot {
                Some(s) => overflow.fill(s, words.to_vec(), func),
                None => slots[words[0] as usize] = Some(func),
            },
            CacheState::All(c) => c.fill(reserved(), words.to_vec(), func),
            CacheState::Bounded { cache, evict } => {
                let ring = ring(&mut evict.clock);
                if let Some(nc) = grown_cap {
                    ring.grow_to(nc);
                }
                let (idx, old) = ring.admit(&evict.bits, words);
                let evicted = old.map(|old| {
                    if let Some((gone, _)) = cache.remove(&old) {
                        retired.push(gone);
                    }
                    (old, idx)
                });
                cache.fill(reserved(), words.to_vec(), (func, idx));
                return (func, evicted);
            }
        }
        (func, None)
    }

    /// A failed specialization leaves its reserved slot unfilled — the
    /// reservation is just an index, so that is harmless.
    fn abandon(&mut self, _key: &[u64], _slot: Option<usize>, _err: &VmError) {}

    #[inline]
    fn resolve(
        &mut self,
        func: FuncId,
        _module: &mut Module,
        _retired: &mut Retired,
    ) -> Option<(FuncId, bool)> {
        Some((func, false))
    }

    fn generic(
        &mut self,
        point: u32,
        module: &mut Module,
        _retired: &mut Retired,
    ) -> (FuncId, bool, bool) {
        let p = point as usize;
        if p >= self.generic.len() {
            self.generic.resize(p + 1, None);
        }
        if let Some(f) = self.generic[p] {
            return (f, false, false);
        }
        let f = module.add_func(self.table.sites[p].generic_code(&self.staged));
        self.generic[p] = Some(f);
        (f, true, true)
    }

    fn with_spec<R>(
        &mut self,
        point: u32,
        f: impl FnOnce(&StagedProgram, &Site, &mut dyn SpecHost) -> R,
    ) -> R {
        let site = Arc::clone(&self.table.sites[point as usize]);
        f(&self.staged, &site, &mut self.table)
    }
}

/// Warm-start installer over a [`SiteTable`] and its module.
struct LocalWarm<'a> {
    table: &'a mut SiteTable,
    module: &'a mut Module,
}

impl WarmHost for LocalWarm<'_> {
    fn add_site(&mut self, site: Site) {
        self.table.add_site(site);
    }

    fn install(&mut self, art: &CodeArtifact) -> Option<FuncId> {
        let key = &art.key;
        let state = &mut self.table.caches[art.site as usize];
        if let CacheState::Bounded { evict, .. } = state {
            // An over-capacity bundle (snapshotted under a larger bound,
            // say) cannot be admitted without evicting — the surplus is
            // rejected, not installed.
            if ring(&mut evict.clock).at_capacity() {
                return None;
            }
        }
        let f = self.module.add_func(art.to_func());
        match state {
            CacheState::All(c) => {
                c.insert(key.clone(), f);
            }
            CacheState::One(slot) => *slot = Some(f),
            CacheState::Indexed { slots, overflow } => match key.as_slice() {
                [v] if *v < 256 => slots[*v as usize] = Some(f),
                k => {
                    overflow.insert(k.to_vec(), f);
                }
            },
            CacheState::Bounded { cache, evict } => {
                let (idx, _) = ring(&mut evict.clock).admit(&evict.bits, key);
                cache.insert(key.clone(), (f, idx));
            }
        }
        Some(f)
    }
}

/// The single-threaded run-time system: the dispatch core over a
/// [`LocalStore`]. Implements [`dyc_vm::DispatchHandler`]; attach it to a
/// [`dyc_vm::Vm`] run with [`dyc_vm::Vm::call_with_handler`].
pub type Runtime = Dispatcher<LocalStore>;

impl Runtime {
    /// Build the run-time system for a staged program.
    pub fn new(staged: StagedProgram) -> Runtime {
        let policy = (staged.cfg.policy == PolicyMode::Adaptive)
            .then(|| PolicyEngine::new(PolicyParams::default()));
        let mut table = SiteTable {
            sites: Vec::new(),
            caches: Vec::new(),
            growth: EvictCtl::growth(policy.as_ref()),
        };
        for i in 0..staged.entry_sites.len() {
            table.add_site(Site::entry(&staged, i));
        }
        let store = LocalStore {
            staged,
            table,
            policy,
            generic: Vec::new(),
        };
        Dispatcher::with_store(store, 0, None, None, None)
    }

    /// The adaptive policy engine, when `OptConfig::policy` is
    /// [`PolicyMode::Adaptive`] (diagnostics and tests).
    pub fn policy_engine(&self) -> Option<&PolicyEngine> {
        self.store.policy.as_ref()
    }

    /// Number of dispatch sites (entries + internal promotions so far).
    pub fn n_sites(&self) -> usize {
        self.store.table.sites.len()
    }

    /// Number of entry (statically splice-created) dispatch sites. Site
    /// ids at or above this are internal promotion sites, numbered in
    /// the order their parent specializations first created them.
    pub fn n_entry_sites(&self) -> usize {
        self.store.staged.entry_sites.len()
    }

    /// The site table (diagnostics).
    pub fn site(&self, id: u32) -> &Site {
        &self.store.table.sites[id as usize]
    }

    /// Drop every specialization cached at `point`. The next dispatch
    /// through the site re-specializes from scratch. The dropped code is
    /// retired, and the next dispatch removes it from the module (an
    /// invalidation runs outside any VM run, so no frame holds it);
    /// cumulative probe meters survive via [`DoubleHashCache::clear`]'s
    /// explicit-reset contract.
    pub fn invalidate_site(&mut self, point: u32) {
        let retired = &mut self.retired;
        match &mut self.store.table.caches[point as usize] {
            CacheState::All(c) => {
                c.iter().for_each(|(_, f)| retired.push_idle(f));
                c.clear();
            }
            CacheState::One(f) => {
                if let Some(f) = f.take() {
                    retired.push_idle(f);
                }
            }
            CacheState::Indexed { slots, overflow } => {
                slots.iter().flatten().for_each(|&f| retired.push_idle(f));
                overflow.iter().for_each(|(_, f)| retired.push_idle(f));
                **slots = [None; 256];
                overflow.clear();
            }
            CacheState::Bounded { cache, evict } => {
                cache.iter().for_each(|(_, (f, _))| retired.push_idle(f));
                cache.clear();
                ring(&mut evict.clock).reset(&evict.bits);
            }
        }
        self.note(EventKind::CacheInvalidate, point, &[], 0, 0, 0);
    }

    /// Snapshot of every `(site, key, code)` binding currently cached —
    /// the differential harnesses compare this against the concurrent
    /// runtime's shared cache. `CacheOneUnchecked` sites report an empty
    /// key; indexed sites report the canonical hashed key they would use.
    pub fn cache_entries(&self) -> Vec<(u32, Vec<u64>, FuncId)> {
        let mut out = Vec::new();
        for (i, c) in self.store.table.caches.iter().enumerate() {
            let site = i as u32;
            match c {
                CacheState::All(c) => {
                    out.extend(c.iter().map(|(k, v)| (site, k.to_vec(), v)));
                }
                CacheState::Bounded { cache, .. } => {
                    out.extend(cache.iter().map(|(k, (f, _))| (site, k.to_vec(), f)));
                }
                CacheState::One(f) => {
                    if let Some(f) = f {
                        out.push((site, Vec::new(), *f));
                    }
                }
                CacheState::Indexed { slots, overflow } => {
                    for (v, f) in slots.iter().enumerate() {
                        if let Some(f) = f {
                            out.push((site, vec![Value::I(v as i64).key_bits()], *f));
                        }
                    }
                    out.extend(overflow.iter().map(|(k, v)| (site, k.to_vec(), v)));
                }
            }
        }
        out
    }

    /// Serialize the entire dynamic-code cache — every `(site, key,
    /// code)` binding plus the internal promotion sites created while
    /// specializing — as a versioned, fingerprinted [`CacheBundle`].
    /// `module` must be the module this runtime installed its code into
    /// (the bundle captures the cached functions' instruction streams).
    pub fn snapshot_bundle(&self, module: &Module) -> CacheBundle {
        let sites: Vec<&Site> = self.store.table.sites.iter().map(|s| &**s).collect();
        let entries = self
            .cache_entries()
            .into_iter()
            .map(|(site, key, f)| (site, key, module.func(f)));
        artifact::snapshot(&self.store.staged, &sites, entries)
    }

    /// Warm-start: re-install a snapshot bundle's specializations into
    /// this (fresh) runtime and `module`, so their first dispatches hit
    /// the cache instead of re-specializing.
    ///
    /// Verification is layered and *never* fatal. The bundle header's
    /// `(version, config-hash, program-hash)` triple and site layout
    /// must match this runtime exactly, and the runtime must not have
    /// specialized yet (internal promotion sites are restored with their
    /// snapshot ids, which emitted `Dispatch` instructions bake in);
    /// otherwise every entry is rejected. Each entry then re-verifies its
    /// own triple plus its site binding, so a corrupted entry is dropped
    /// individually. Every rejection is metered in
    /// [`RtStats::cache_warm_rejects`](crate::RtStats), every installed
    /// entry in [`RtStats::cache_warm_loads`](crate::RtStats) (and traced
    /// as an [`EventKind::CacheWarmLoad`] event). A rejected key simply
    /// re-specializes on its first dispatch.
    pub fn restore_bundle(&mut self, bundle: &CacheBundle, module: &mut Module) {
        let store = &mut self.store;
        // Internal promotion sites are restored with their snapshot ids,
        // which emitted `Dispatch` instructions bake in: only a runtime
        // that has not specialized yet can take them.
        let fresh = store.table.sites.len() == store.staged.entry_sites.len();
        let mut sinks = Sinks {
            stats: &mut self.stats,
            trace: &mut self.trace,
            live: None,
            global: None,
        };
        let mut host = LocalWarm {
            table: &mut store.table,
            module,
        };
        let installed = artifact::restore(
            &store.staged,
            bundle,
            fresh,
            store.policy.as_ref(),
            &mut host,
            &mut sinks,
        );
        for (site, f) in installed {
            self.lower(site, f, module);
        }
    }
}
