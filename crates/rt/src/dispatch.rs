//! The dispatch core: the run-time protocol of §2.1, implemented once and
//! generic over where the code lives.
//!
//! "The dynamic compiler first checks an internal cache of previously
//! dynamically generated code for a version that was compiled for the
//! values of the annotated variables. If one is found, it is reused."
//! [`Dispatcher`] runs that protocol for every dispatch:
//!
//! 1. check the arguments and build the cache key `[site, promoted key
//!    bits...]` in a reusable buffer (cache-one-unchecked sites key on
//!    the site alone);
//! 2. probe the code store and charge the §4.4.3 dispatch cost of the
//!    site's lane (unchecked, array-indexed, indexed overflow, hashed);
//! 3. on a hit, reuse the code;
//! 4. on a miss, ask the adaptive policy first (a deferred or throttled
//!    miss runs the site's generic continuation), then let the store
//!    decide who resolves it: this dispatch specializes (GE executor, or
//!    the online specializer for sites without a GE division), installs,
//!    lowers to native code and publishes — or, in a shared store, it
//!    waits for, races, or falls back around another thread's
//!    specialization;
//! 5. copy the pass-through arguments and run the code, natively when it
//!    has a machine-code entry.
//!
//! Code a store unbinds — a bounded site's eviction victim, an
//! invalidated site's code, a thread's copy of code another thread
//! evicted — is retired to the core, tagged with the VM's outermost run
//! ([`Vm::current_run`]), and removed from the module by the first miss
//! or fresh copy in a later run: no frame survives from one outermost
//! run into the next, so the function is on no VM frame by then.
//!
//! Two code stores instantiate it. [`LocalStore`](crate::runtime::LocalStore)
//! keeps the single-threaded per-policy tables whose probe counts feed
//! the cycle model; [`Runtime`](crate::Runtime) is the core over it.
//! [`SharedStore`](crate::concurrent::SharedStore) is one thread's view of
//! the sharded, single-flight shared cache;
//! [`ThreadRuntime`](crate::ThreadRuntime) is the core over it. Every
//! meter point of both is one `note()` call (see [`crate::stats`]).

use crate::costs::DynCosts;
use crate::ge_exec::{GeExecutor, SpecEnv, SpecHost, SpecScratch, SCRATCH_KEEP_BYTES};
use crate::native::{exec_entry, lower_func, NativeDispatch, NativeEngine};
use crate::policy::{PolicyDecision, PolicyEngine};
use crate::runtime::Site;
use crate::specializer::Specializer;
use crate::stats::{ConcStats, RtStats, Sinks};
use dyc_obs::{now_ns, EventKind, LatencyHistogram, LiveThread, Trace};
use dyc_stage::{SitePolicy, StagedProgram};
use dyc_vm::{DispatchHandler, DispatchOutcome, FuncId, Module, Value, Vm, VmError};
use std::sync::Arc;

/// How a dispatch is looked up and charged (§4.4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    /// `cache_one_unchecked`: no key, no check.
    Unchecked,
    /// Array-indexed lookup of a byte-ranged key (§3.1's proposal).
    Indexed,
    /// An indexed site's key outside the array: the hashed fallback.
    Overflow,
    /// `cache_all` / `cache_all(k)`: a double-hashed lookup.
    Hashed,
}

impl Lane {
    fn of(policy: SitePolicy, key: &[u64]) -> Lane {
        match policy {
            SitePolicy::CacheOneUnchecked => Lane::Unchecked,
            SitePolicy::CacheIndexed if key[1] < 256 => Lane::Indexed,
            SitePolicy::CacheIndexed => Lane::Overflow,
            SitePolicy::CacheAll | SitePolicy::CacheAllBounded(_) => Lane::Hashed,
        }
    }
}

/// Functions a store has unbound but that may still be on a VM frame of
/// the run that unbound them, each tagged with that run. The dispatch
/// core frees them off the hit path, from the first miss or fresh copy
/// that sees a different run.
#[derive(Debug, Default)]
pub(crate) struct Retired {
    /// The outermost run of the dispatch in progress.
    pub(crate) run: u64,
    funcs: Vec<(u64, FuncId)>,
}

impl Retired {
    /// Retire `func`, unbound during the current run.
    pub(crate) fn push(&mut self, func: FuncId) {
        self.funcs.push((self.run, func));
    }

    /// Retire `func`, unbound outside any run (an invalidation): the next
    /// dispatch frees it.
    pub(crate) fn push_idle(&mut self, func: FuncId) {
        self.funcs.push((0, func));
    }
}

/// Who resolves a miss, as decided by the store.
pub(crate) enum Claim<C, T> {
    /// This dispatch specializes and publishes; `T` is held until then.
    Win(T),
    /// The key was published between the probe and the claim (a lost
    /// publication race): run the winner's code.
    Raced(C),
    /// Another thread specialized the key while this one waited `.1`
    /// wall nanoseconds for its result.
    Waited(Result<C, String>, u64),
    /// Another thread is specializing the key; run the generic
    /// continuation instead of waiting.
    Fallback,
}

/// Where the dispatch core finds and keeps code: the part of the
/// protocol that differs between the single-threaded and the shared
/// runtime. Every key is the full dispatch key `[site, key bits...]`.
pub(crate) trait CodeStore {
    /// A handle to cached code.
    type Code: Copy;
    /// What a missed probe reserves for the later fill.
    type Vacancy;
    /// What a miss's winner holds until it publishes.
    type Ticket;

    /// The staged program.
    fn staged(&self) -> &StagedProgram;
    /// The adaptive policy engine, in `PolicyMode::Adaptive`.
    fn policy(&self) -> Option<&PolicyEngine>;
    /// The dispatch site `point`.
    fn site(&mut self, point: u32) -> &Site;
    /// Look `key` up on `lane`: the code, the probe count, and the
    /// reservation a miss fills later. A hit marks a bounded site's
    /// entry recently used.
    fn probe(&mut self, lane: Lane, key: &[u64]) -> (Option<Self::Code>, u32, Self::Vacancy);
    /// Decide who resolves a miss on `key`.
    fn claim(&mut self, key: &[u64], vacancy: Self::Vacancy) -> Claim<Self::Code, Self::Ticket>;
    /// Bind `func`, just specialized into `module`, to `key`. Returns its
    /// handle and, when a bounded site evicted an entry to make room, the
    /// evicted key's words (without the site) and its clock slot. The
    /// victim's code in `module` goes to `retired`.
    fn publish(
        &mut self,
        key: &[u64],
        ticket: Self::Ticket,
        func: FuncId,
        module: &Module,
        retired: &mut Retired,
    ) -> (Self::Code, Option<(Vec<u64>, u32)>);
    /// The winner's specialization failed: release whoever waits on it.
    fn abandon(&mut self, key: &[u64], ticket: Self::Ticket, err: &VmError);
    /// `code` as a function of `module`, and whether it was copied into
    /// `module` just now (an older copy it replaces goes to `retired`).
    /// `None` when the handle is stale: the code was unbound, and its
    /// slot freed, after the handle was taken.
    fn resolve(
        &mut self,
        code: Self::Code,
        module: &mut Module,
        retired: &mut Retired,
    ) -> Option<(FuncId, bool)>;
    /// The site's generic continuation as a function of `module`, whether
    /// it was compiled just now, and whether it was copied into `module`
    /// just now.
    fn generic(
        &mut self,
        point: u32,
        module: &mut Module,
        retired: &mut Retired,
    ) -> (FuncId, bool, bool);
    /// Run `f` with what a specialization of site `point` needs from the
    /// store: the staged program, the site, and the host new promotion
    /// sites register with.
    fn with_spec<R>(
        &mut self,
        point: u32,
        f: impl FnOnce(&StagedProgram, &Site, &mut dyn SpecHost) -> R,
    ) -> R;
}

/// How a miss was resolved.
enum Resolved<C> {
    /// Specialized code (this dispatch's own, or another thread's).
    Code(C),
    /// The generic continuation — invoked with the *full* dispatch
    /// arguments, not the dynamic subset.
    Generic(FuncId),
}

/// The dispatch core over a code store `S`. Implements
/// [`DispatchHandler`] (attach it to a [`Vm`] run with
/// [`Vm::call_with_handler`]) and [`NativeDispatch`]; use it as
/// [`Runtime`](crate::Runtime) or [`ThreadRuntime`](crate::ThreadRuntime).
///
/// The warm hit path is allocation-free and statically dispatched: it
/// reuses the key buffer, probes the store, charges the cycle model and
/// notes the hit. The miss path reuses the specialization scratch beside
/// the key buffer, static frame included, so it allocates only what it
/// publishes.
#[derive(Debug)]
pub struct Dispatcher<S> {
    /// Run-time statistics (Table 2/3 instrumentation). In a
    /// [`ThreadRuntime`](crate::ThreadRuntime) these are the thread's own
    /// meters: `specializations` counts the specializations this thread
    /// ran; the global totals live in
    /// [`SharedRuntime::stats`](crate::SharedRuntime::stats).
    pub stats: RtStats,
    /// Event recorder, enabled by `OptConfig::trace` (off by default).
    /// Purely observational: recording never touches [`RtStats`], the
    /// emitted code, or results; drain it with [`Trace::events`].
    pub trace: Trace,
    pub(crate) store: S,
    costs: DynCosts,
    /// `OptConfig::native`: lower installed code to x86-64 and run it.
    native_on: bool,
    /// Native x86-64 engine: owns the handler's executable code arena and
    /// the map from its functions to their machine-code entries. Inert (a
    /// no-op stub) on platforms without the backend.
    native: NativeEngine,
    /// Reusable cache-key buffer.
    scratch_key: Vec<u64>,
    /// Every table a specialization builds, lent to each miss and kept
    /// between misses (see `SpecScratch`).
    spec: SpecScratch,
    /// Code unbound from the store, waiting for its run to end.
    pub(crate) retired: Retired,
    /// Miss-path latency histogram (`SharedOptions::latency`). Boxed so
    /// the cold miss path's bookkeeping doesn't bloat the handler.
    miss_hist: Option<Box<LatencyHistogram>>,
    /// The thread's live-telemetry handle, present when its shared
    /// runtime had handles attached before the thread was created. The
    /// warm path pays one `None` branch when telemetry is off and two
    /// relaxed atomic adds when on.
    live: Option<Box<LiveThread>>,
    /// The shared runtime's global meters (a [`Runtime`](crate::Runtime)
    /// has none).
    global: Option<Arc<ConcStats>>,
}

impl<S> Dispatcher<S> {
    /// A handler over `store`, tracing as `thread` when the staged
    /// config asks for it.
    pub(crate) fn with_store(
        store: S,
        thread: u32,
        miss_hist: Option<Box<LatencyHistogram>>,
        live: Option<Box<LiveThread>>,
        global: Option<Arc<ConcStats>>,
    ) -> Dispatcher<S>
    where
        S: CodeStore,
    {
        let cfg = store.staged().cfg;
        Dispatcher {
            stats: RtStats::new(),
            trace: if cfg.trace {
                Trace::on(thread)
            } else {
                Trace::off()
            },
            store,
            costs: DynCosts::calibrated(),
            native_on: cfg.native,
            native: NativeEngine::new(),
            scratch_key: Vec::new(),
            spec: SpecScratch::default(),
            retired: Retired::default(),
            miss_hist,
            live,
            global,
        }
    }

    /// Number of functions with an installed native machine-code entry
    /// (always zero unless `OptConfig::native` is set, and on platforms
    /// without the backend).
    pub fn native_installed(&self) -> usize {
        self.native.installed()
    }

    /// Heap bytes the specialization scratch keeps between misses.
    #[cfg(test)]
    pub(crate) fn spec_heap_bytes(&self) -> usize {
        self.spec.heap_bytes()
    }

    /// The miss-path latency histogram, when
    /// [`SharedOptions::latency`](crate::SharedOptions::latency) was set:
    /// one sample per dispatch miss, wall nanoseconds from miss detection
    /// to runnable code. Merge the per-thread histograms
    /// ([`LatencyHistogram::merge`]) for whole-run percentiles.
    pub fn miss_latency(&self) -> Option<&LatencyHistogram> {
        self.miss_hist.as_deref()
    }

    fn charge(&mut self, vm: &mut Vm, cycles: u64) {
        self.stats.dyncomp_cycles += cycles;
        vm.stats.dyncomp_cycles += cycles;
    }

    /// The meter point: see [`Sinks::note`].
    #[inline(always)]
    pub(crate) fn note(
        &mut self,
        kind: EventKind,
        site: u32,
        key_words: &[u64],
        cycle: u64,
        a: u64,
        b: u64,
    ) {
        let mut sinks = Sinks {
            stats: &mut self.stats,
            trace: &mut self.trace,
            live: self.live.as_deref(),
            global: self.global.as_deref(),
        };
        sinks.note(kind, site, key_words, cycle, a, b);
    }

    /// [`Self::note`] for an event about dispatch key `key` (`[site, key
    /// words...]`), stamped with the VM's current cycle.
    #[inline(always)]
    fn note_key(&mut self, kind: EventKind, key: &[u64], vm: &Vm, a: u64, b: u64) {
        self.note(
            kind,
            key[0] as u32,
            &key[1..],
            vm.stats.total_cycles(),
            a,
            b,
        );
    }

    /// Code just installed in this handler's module — a specialization,
    /// a generic continuation, another thread's code or a warm-started
    /// entry: when the native backend is on, lower it and hand the result
    /// to the engine, and meter the outcome. The VM code stays installed
    /// as the always-correct fallback.
    pub(crate) fn lower(&mut self, point: u32, func: FuncId, module: &Module) {
        if !self.native_on {
            return;
        }
        match self.native.install(func, lower_func(module.func(func))) {
            Some(len) => self.note(EventKind::NativeInstall, point, &[], 0, len as u64, 0),
            None => self.note(EventKind::NativeFallback, point, &[], 0, 0, 0),
        }
    }

    /// Run `func` on `args`: natively when it has a machine-code entry —
    /// deliberately charging nothing to the cycle model, whose staged
    /// pipeline is unchanged; only wall clock improves — else hand the
    /// interpreter a frame to push.
    fn run(
        &mut self,
        func: FuncId,
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<DispatchOutcome, VmError>
    where
        S: CodeStore,
    {
        if self.native_on {
            if let Some(entry) = self.native.entry(func) {
                let value = exec_entry(&entry, args, self, module, vm)?;
                return Ok(DispatchOutcome::Completed { value });
            }
        }
        Ok(DispatchOutcome::Invoke { func })
    }

    /// Free every retired function whose run has ended: remove it from
    /// `module` and drop its native entry, so a reused id never runs the
    /// old machine code.
    fn reclaim(&mut self, module: &mut Module) {
        let run = self.retired.run;
        let native = &mut self.native;
        self.retired.funcs.retain(|&(r, f)| {
            if r == run {
                return true;
            }
            module.remove_func(f);
            native.remove(f);
            false
        });
    }

    /// The site's generic continuation in this handler's module. Like
    /// statically compiled code it costs no dynamic-compilation cycles
    /// and no I-cache flush; it is lowered to native code like any
    /// installed code.
    pub(crate) fn generic(&mut self, point: u32, module: &mut Module) -> FuncId
    where
        S: CodeStore,
    {
        let (func, built, fresh) = self.store.generic(point, module, &mut self.retired);
        if built {
            self.note(EventKind::GenericBuild, point, &[], 0, 0, 0);
        }
        if fresh {
            self.lower(point, func, module);
        }
        func
    }

    /// Specialize dispatch key `key` in this handler's module: run the GE
    /// executor (or the online specializer for a site without a GE
    /// division), charge the install, lower to native code, and feed the
    /// measured cost to the policy.
    fn specialize(
        &mut self,
        key: &[u64],
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<FuncId, VmError>
    where
        S: CodeStore,
    {
        let (point, words) = (key[0] as u32, &key[1..]);
        self.note_key(EventKind::GeExecBegin, key, vm, 0, 0);
        let (dyn0, instr0) = (self.stats.dyncomp_cycles, self.stats.instrs_generated);
        let sinks = Sinks {
            stats: &mut self.stats,
            trace: &mut self.trace,
            live: self.live.as_deref(),
            global: self.global.as_deref(),
        };
        let (costs, scratch) = (self.costs, &mut self.spec);
        let spec = self.store.with_spec(point, |staged, site, host| {
            let mut env = SpecEnv {
                staged,
                costs,
                sinks,
                point,
                key: words,
            };
            // True staging: sites with a precompiled entry division run
            // the flat GE program; everything else falls back to the
            // online specializer. Both emit byte-identical code.
            match site.division {
                Some(d) => GeExecutor::run(&mut env, scratch, host, site, args, d, module, vm),
                None => Specializer::run(&mut env, &mut scratch.emit, host, site, args, module, vm),
            }
        });
        // The scratch is kept for the next miss, errors included, unless
        // this one grew it past the ceiling.
        if self.spec.heap_bytes() > SCRATCH_KEEP_BYTES {
            self.spec = SpecScratch::default();
        }
        let func = spec?;
        // Install: I-cache coherence + bookkeeping.
        vm.flush_icache();
        self.charge(vm, self.costs.install);
        self.lower(point, func, module);
        let (spent, instrs) = (
            self.stats.dyncomp_cycles - dyn0,
            self.stats.instrs_generated - instr0,
        );
        self.note_key(EventKind::GeExecEnd, key, vm, spent, instrs);
        if let Some(eng) = self.store.policy() {
            // Feed the measured cost into the site's break-even estimate.
            eng.note_spec(point, spent);
        }
        Ok(func)
    }

    /// [`Self::miss`], timed into the miss-path latency histogram and the
    /// live slot: miss detection → runnable code. Hits never come here,
    /// so the warm path reads no clock.
    fn timed_miss(
        &mut self,
        key: &[u64],
        vacancy: S::Vacancy,
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<Resolved<S::Code>, VmError>
    where
        S: CodeStore,
    {
        let t0 = (self.miss_hist.is_some() || self.live.is_some()).then(now_ns);
        let resolved = self.miss(key, vacancy, args, module, vm);
        if let Some(t0) = t0 {
            let d = now_ns().saturating_sub(t0);
            if let Some(h) = self.miss_hist.as_mut() {
                h.record(d);
            }
            if let Some(l) = &self.live {
                l.slot.record_miss_ns(d);
            }
        }
        resolved
    }

    /// Resolve a miss on `key`: the adaptive policy's gate first (a
    /// deferred or throttled miss never enters the store's protocol),
    /// then the store's claim. Out of line, so the warm path stays small.
    #[cold]
    #[inline(never)]
    fn miss(
        &mut self,
        key: &[u64],
        vacancy: S::Vacancy,
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<Resolved<S::Code>, VmError>
    where
        S: CodeStore,
    {
        let point = key[0] as u32;
        self.reclaim(module);
        let gate = self.store.policy().map(|eng| {
            let entry_site = (point as usize) < self.store.staged().entry_sites.len();
            (eng.on_miss(key, entry_site), u64::from(eng.count_of(key)))
        });
        if let Some((decision, count)) = gate {
            let kind = match decision {
                PolicyDecision::Specialize { promoted: false } => None,
                PolicyDecision::Specialize { promoted: true } => Some(EventKind::PolicyPromote),
                PolicyDecision::Defer => Some(EventKind::PolicyDefer),
                PolicyDecision::Throttle => Some(EventKind::PolicyThrottle),
            };
            if let Some(kind) = kind {
                self.note_key(kind, key, vm, count, 0);
            }
            if matches!(decision, PolicyDecision::Defer | PolicyDecision::Throttle) {
                return Ok(Resolved::Generic(self.generic(point, module)));
            }
        }
        match self.store.claim(key, vacancy) {
            Claim::Raced(code) => {
                self.note_key(EventKind::FlightRace, key, vm, 0, 0);
                Ok(Resolved::Code(code))
            }
            Claim::Waited(result, waited) => {
                self.note_key(EventKind::FlightWait, key, vm, waited, 0);
                result.map(Resolved::Code).map_err(VmError::Dispatch)
            }
            Claim::Fallback => {
                self.note_key(EventKind::FlightFallback, key, vm, 0, 0);
                Ok(Resolved::Generic(self.generic(point, module)))
            }
            Claim::Win(ticket) => match self.specialize(key, args, module, vm) {
                Ok(func) => {
                    let (code, evicted) =
                        self.store
                            .publish(key, ticket, func, module, &mut self.retired);
                    if let Some((old, slot)) = evicted {
                        self.note(
                            EventKind::CacheEvict,
                            point,
                            &old,
                            vm.stats.total_cycles(),
                            u64::from(slot),
                            0,
                        );
                    }
                    Ok(Resolved::Code(code))
                }
                Err(e) => {
                    self.store.abandon(key, ticket, &e);
                    Err(e)
                }
            },
        }
    }
}

impl<S: CodeStore> DispatchHandler for Dispatcher<S> {
    fn dispatch(
        &mut self,
        point: u32,
        args: &[Value],
        out_args: &mut Vec<Value>,
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<DispatchOutcome, VmError> {
        let site = self.store.site(point);
        if args.len() != site.arg_vars.len() {
            return Err(VmError::Dispatch(format!(
                "site {point}: expected {} args, got {}",
                site.arg_vars.len(),
                args.len()
            )));
        }
        let policy = site.policy;
        self.retired.run = vm.current_run();
        let mut key = std::mem::take(&mut self.scratch_key);
        key.clear();
        let cap = key.capacity();
        key.push(u64::from(point));
        if policy != SitePolicy::CacheOneUnchecked {
            key.extend(site.key_pos.iter().map(|&p| args[p].key_bits()));
        }
        if key.capacity() != cap {
            self.stats.dispatch_allocs += 1;
        }

        let lane = Lane::of(policy, &key);
        let (found, probes, vacancy) = self.store.probe(lane, &key);
        let (cost, hit_kind, b) = match lane {
            Lane::Unchecked => {
                self.stats.dispatch_unchecked += 1;
                (
                    self.costs.dispatch_unchecked,
                    EventKind::DispatchUnchecked,
                    0,
                )
            }
            Lane::Indexed => {
                self.stats.dispatch_indexed += 1;
                (self.costs.dispatch_indexed, EventKind::DispatchIndexed, 0)
            }
            Lane::Overflow | Lane::Hashed => {
                self.stats.dispatch_hashed += 1;
                if lane == Lane::Hashed {
                    self.stats.dispatch_probes += u64::from(probes);
                }
                let c = self.costs.hashed_dispatch(key.len() - 1, probes);
                (c, EventKind::DispatchHit, u64::from(probes))
            }
        };
        self.stats.dispatch_cycles += cost;
        vm.stats.dispatch_cycles += cost;

        let mut resolved = match found {
            Some(code) => {
                if let Some(eng) = self.store.policy() {
                    eng.note_hit(point);
                }
                self.note_key(hit_kind, &key, vm, cost, b);
                Ok(Resolved::Code(code))
            }
            None => {
                vm.stats.dispatch_misses += 1;
                self.note_key(EventKind::DispatchMiss, &key, vm, cost, b);
                self.timed_miss(&key, vacancy, args, module, vm)
            }
        };

        let cap = out_args.capacity();
        let func = loop {
            let code = match resolved {
                Ok(Resolved::Code(code)) => code,
                Ok(Resolved::Generic(func)) => {
                    // The generic continuation takes every dispatch argument.
                    out_args.extend_from_slice(args);
                    break func;
                }
                Err(e) => {
                    self.scratch_key = key;
                    return Err(e);
                }
            };
            let Some((func, fresh)) = self.store.resolve(code, module, &mut self.retired) else {
                // Another thread unbound the code and freed its slot after
                // this dispatch found it: look the key up again.
                self.note_key(EventKind::FlightStale, &key, vm, 0, 0);
                resolved = match self.store.probe(lane, &key) {
                    (Some(code), _, _) => Ok(Resolved::Code(code)),
                    (None, _, vacancy) => self.timed_miss(&key, vacancy, args, module, vm),
                };
                continue;
            };
            if fresh {
                // Another thread's code, first run here: installing it
                // in this module models the `imb` + install cost the
                // winner paid in its own.
                vm.flush_icache();
                self.charge(vm, self.costs.install);
                self.lower(point, func, module);
                self.reclaim(module);
            }
            // Pass-through arguments, subset by the precomputed layout
            // into the interpreter's reusable buffer.
            let site = self.store.site(point);
            out_args.extend(site.dyn_pos.iter().map(|&i| args[i]));
            break func;
        };
        self.scratch_key = key;
        if out_args.capacity() != cap {
            self.stats.dispatch_allocs += 1;
        }
        self.run(func, out_args, module, vm)
    }
}

impl<S: CodeStore> NativeDispatch for Dispatcher<S> {
    fn native_dispatch(
        &mut self,
        point: u32,
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<Option<Value>, VmError> {
        // Mirror of the interpreter's `Dispatch` arm: count it, run the
        // handler, then either take the completed value (the callee ran
        // natively too) or interpret the specialized function.
        vm.stats.dispatches += 1;
        let mut out_args = Vec::new();
        match self.dispatch(point, args, &mut out_args, module, vm)? {
            DispatchOutcome::Completed { value } => Ok(value),
            DispatchOutcome::Invoke { func } => vm.call_with_handler(module, self, func, &out_args),
        }
    }

    fn native_call(
        &mut self,
        func: FuncId,
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<Option<Value>, VmError> {
        if let Some(entry) = self.native.entry(func) {
            return exec_entry(&entry, args, self, module, vm);
        }
        vm.call_with_handler(module, self, func, args)
    }
}
