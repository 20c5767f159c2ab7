//! Run-time-system statistics and the single meter point.
//!
//! These counters drive the reproduction's Table 2 (which optimizations
//! each program actually used), Table 3 (instructions generated,
//! dynamic-compilation overhead), and the §4.4.3 dispatch-cost analysis.
//!
//! Every metered event of the run-time system goes through one call,
//! `note()`. It counts the event once, by kind, in the thread's
//! [`LiveSlot`] — the counts the [`ConcSnapshot`](crate::ConcSnapshot)
//! meters and the live registry are both read from — and bumps the
//! [`RtStats`] field the kind names (`RtStats::field`). It records the
//! event in the trace when tracing is on, and in the flight ring when
//! one is attached and the kind is rung ([`EventKind::ringed`]).

use dyc_obs::{EventKind, LiveSlot, LiveThread, Trace};

/// Counters accumulated by the run-time system.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RtStats {
    /// Specializations performed (dispatch misses).
    pub specializations: u64,
    /// Specialization units (block instances) emitted.
    pub units_emitted: u64,
    /// VM instructions generated (after dead-assignment elimination).
    pub instrs_generated: u64,
    /// Static computations executed at dynamic compile time.
    pub static_ops: u64,
    /// Static loads executed (§2.2.6).
    pub static_loads: u64,
    /// Static calls executed/memoized (§2.2.6).
    pub static_calls: u64,
    /// Conditional branches / switches folded on static values.
    pub branches_folded: u64,
    /// Dynamic zero/copy-propagation folds (§2.2.7).
    pub zero_copy_folds: u64,
    /// Instructions removed by dynamic dead-assignment elimination.
    pub dae_removed: u64,
    /// Dynamic strength reductions applied (§2.2.7).
    pub strength_reductions: u64,
    /// Internal dynamic-to-static promotion sites created (§2.2.2).
    pub internal_promotions: u64,
    /// Loop headers that were completely unrolled (≥2 specialized units).
    pub loops_unrolled: u64,
    /// True if multi-way unrolling was observed: the unrolled loop body
    /// formed a dag/graph rather than a chain (divergent static stores in
    /// one loop, or a return to a previously emitted iteration).
    pub multi_way_unroll: bool,
    /// Distinct static-variable *sets* observed per program point beyond
    /// the first — evidence of polyvariant division (§2.2.5).
    pub divisions_observed: u64,
    /// Dispatches served by the unchecked (cache-one) policy.
    pub dispatch_unchecked: u64,
    /// Dispatches served by the hashed cache-all policy.
    pub dispatch_hashed: u64,
    /// Dispatches served by the array-indexed policy (§3.1 extension).
    pub dispatch_indexed: u64,
    /// Total probe count across hashed dispatches.
    pub dispatch_probes: u64,
    /// Cycles charged to dynamic compilation (mirror of the VM counter).
    pub dyncomp_cycles: u64,
    /// Cycles charged to dispatching.
    pub dispatch_cycles: u64,
    /// Binding-time classifications and liveness queries performed at run
    /// time. The staged GE path must keep this at exactly zero — all of
    /// that work happens once, at static compile time.
    pub runtime_bta_calls: u64,
    /// Dynamic-compilation cycles spent executing the generating
    /// extension itself (static computations, decisions, bookkeeping).
    pub ge_exec_cycles: u64,
    /// Dynamic-compilation cycles spent constructing, emitting, and
    /// patching code.
    pub emit_cycles: u64,
    /// Instructions emitted through the copy-and-patch template path
    /// (before dead-assignment elimination).
    pub template_instrs: u64,
    /// Template holes patched (register and immediate holes).
    pub holes_patched: u64,
    /// Sub-split of [`RtStats::emit_cycles`]: cycles copying prebuilt
    /// template instructions.
    pub template_copy_cycles: u64,
    /// Sub-split of [`RtStats::emit_cycles`]: cycles patching template
    /// holes.
    pub hole_patch_cycles: u64,
    /// Templates whose guards failed at run time (a value hit an emit-time
    /// special case, e.g. a zero/copy fold), falling back to per-
    /// instruction emission for the rest of the unit.
    pub template_fallbacks: u64,
    /// Growths of the dispatch scratch buffers: the handler's reusable
    /// cache-key buffer and the pass-through argument buffer. Zero on
    /// every cache-hit region entry once warm: the dispatch path reuses
    /// both. Cache insertions on a miss are not counted — their cost
    /// is a specialization's, not a dispatch's.
    pub dispatch_allocs: u64,
    /// Bounded `cache_all(k)` evictions: specializations dropped by the
    /// second-chance sweep when a site hit its capacity.
    pub cache_evictions: u64,
    /// Explicit site invalidations (all cached code for the site dropped).
    pub cache_invalidations: u64,
    /// Concurrent dispatch only: times this thread blocked on another
    /// thread's in-flight specialization of the same (site, key).
    pub single_flight_waits: u64,
    /// Concurrent dispatch only: times this thread, racing an in-flight
    /// specialization, took the generic (unspecialized) continuation
    /// instead of blocking.
    pub single_flight_fallbacks: u64,
    /// Cached specializations restored from a snapshot bundle at
    /// warm-start (each skips one future first-dispatch specialization).
    pub cache_warm_loads: u64,
    /// Snapshot entries rejected at warm-start — a stale or corrupted
    /// (config-hash, program-hash, artifact-version) fingerprint, or a
    /// malformed artifact. Rejection is per-entry and never fatal; the
    /// key simply re-specializes on first dispatch.
    pub cache_warm_rejects: u64,
    /// Specializations whose code was additionally lowered to native
    /// x86-64 machine code and installed in the executable arena.
    pub native_installs: u64,
    /// Specializations that stayed on the VM backend despite
    /// `OptConfig::native` — the lowering declined (an unsupported
    /// instruction or an out-of-range branch) or the platform lacks the
    /// native backend. The VM path is always a correct fallback.
    pub native_fallbacks: u64,
    /// Adaptive policy only: dispatch misses whose specialization was
    /// deferred (below the site's break-even threshold) — the dispatch
    /// ran the generic continuation instead. Always zero in
    /// `PolicyMode::Always`.
    pub policy_defers: u64,
    /// Adaptive policy only: keys specialized after at least one
    /// deferral (the miss that crossed the break-even threshold).
    pub policy_promotes: u64,
    /// Adaptive policy only: dispatch misses suppressed because the
    /// (internal) site's specializations were never re-dispatched — the
    /// dispatch ran the generic continuation instead.
    pub policy_throttled: u64,
}

/// Every `u64` counter field of [`RtStats`], listed once. `delta` and
/// `counters` both expand through this list, so a field added to the
/// struct but not here breaks the size-accounting test below.
macro_rules! counter_fields {
    ($with:ident) => {
        $with!(
            specializations,
            units_emitted,
            instrs_generated,
            static_ops,
            static_loads,
            static_calls,
            branches_folded,
            zero_copy_folds,
            dae_removed,
            strength_reductions,
            internal_promotions,
            loops_unrolled,
            divisions_observed,
            dispatch_unchecked,
            dispatch_hashed,
            dispatch_indexed,
            dispatch_probes,
            dyncomp_cycles,
            dispatch_cycles,
            runtime_bta_calls,
            ge_exec_cycles,
            emit_cycles,
            template_instrs,
            holes_patched,
            template_copy_cycles,
            hole_patch_cycles,
            template_fallbacks,
            dispatch_allocs,
            cache_evictions,
            cache_invalidations,
            single_flight_waits,
            single_flight_fallbacks,
            cache_warm_loads,
            cache_warm_rejects,
            native_installs,
            native_fallbacks,
            policy_defers,
            policy_promotes,
            policy_throttled
        )
    };
}

impl RtStats {
    /// Fresh counters.
    pub fn new() -> RtStats {
        RtStats::default()
    }

    /// Counter-wise difference `self - baseline` (saturating), for
    /// measuring what one phase of a run contributed: snapshot, run the
    /// phase, `after.delta(&snapshot)`. The `multi_way_unroll` flag is
    /// set only if it became true during the phase.
    pub fn delta(&self, baseline: &RtStats) -> RtStats {
        macro_rules! sub_each {
            ($($f:ident),*) => {
                RtStats {
                    $($f: self.$f.saturating_sub(baseline.$f),)*
                    multi_way_unroll: self.multi_way_unroll && !baseline.multi_way_unroll,
                }
            };
        }
        counter_fields!(sub_each)
    }

    /// Every counter as a `(name, value)` pair, in declaration order —
    /// the export surface for `dycstat`'s Prometheus exposition.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        macro_rules! list_each {
            ($($f:ident),*) => {
                vec![$((stringify!($f), self.$f),)*]
            };
        }
        counter_fields!(list_each)
    }

    /// Dynamic-compilation overhead per generated instruction — Table 3's
    /// "DC Overhead (cycles/instruction generated)".
    pub fn overhead_per_instr(&self) -> f64 {
        if self.instrs_generated == 0 {
            0.0
        } else {
            self.dyncomp_cycles as f64 / self.instrs_generated as f64
        }
    }

    /// True if complete loop unrolling fired.
    pub fn used_loop_unrolling(&self) -> bool {
        self.loops_unrolled > 0
    }

    /// Duplicate specializations *avoided* by single-flight: every time a
    /// racing thread either waited for or routed around another thread's
    /// in-flight specialization instead of redundantly running the GE
    /// executor itself.
    pub fn single_flight_suppressed(&self) -> u64 {
        self.single_flight_waits + self.single_flight_fallbacks
    }
}

impl RtStats {
    /// The field an event of `kind` bumps by one, if this struct has
    /// one. A specialization counts here when it starts (a failed one
    /// still counts); dispatches are counted per lane by the dispatch
    /// core itself, and races, stale handles and generic continuations
    /// are shared-runtime meters only.
    pub(crate) fn field(&mut self, kind: EventKind) -> Option<&mut u64> {
        use EventKind as K;
        Some(match kind {
            K::GeExecBegin => &mut self.specializations,
            K::FlightWait => &mut self.single_flight_waits,
            K::FlightFallback => &mut self.single_flight_fallbacks,
            K::CacheEvict => &mut self.cache_evictions,
            K::CacheInvalidate => &mut self.cache_invalidations,
            K::Promotion => &mut self.internal_promotions,
            K::CacheWarmLoad => &mut self.cache_warm_loads,
            K::CacheWarmReject => &mut self.cache_warm_rejects,
            K::NativeInstall => &mut self.native_installs,
            K::NativeFallback => &mut self.native_fallbacks,
            K::PolicyDefer => &mut self.policy_defers,
            K::PolicyPromote => &mut self.policy_promotes,
            K::PolicyThrottle => &mut self.policy_throttled,
            K::DispatchHit
            | K::DispatchMiss
            | K::DispatchUnchecked
            | K::DispatchIndexed
            | K::GeExecEnd
            | K::TemplateCopy
            | K::HolePatch
            | K::FlightRace
            | K::FlightStale
            | K::GenericBuild => return None,
        })
    }
}

/// Everything one meter point can write to. A single-threaded runtime
/// has no slot and no live wiring; a shared runtime's own (thread-less)
/// meter points pass the runtime's slot, a scratch [`RtStats`] and an
/// off [`Trace`].
pub(crate) struct Sinks<'a> {
    /// The handler's counters.
    pub stats: &'a mut RtStats,
    /// The handler's event recorder.
    pub trace: &'a mut Trace,
    /// The per-kind counts of a shared runtime's thread (or of the
    /// shared runtime itself).
    pub slot: Option<&'a LiveSlot>,
    /// The thread's live-telemetry wiring, when attached.
    pub live: Option<&'a LiveThread>,
}

impl Sinks<'_> {
    /// The meter point: count `kind` in the slot and in its [`RtStats`]
    /// field, and record the event where it is recorded. The key words
    /// are hashed at most once, and only when the event is actually
    /// recorded. Always inlined, so a warm hit with telemetry and
    /// tracing off costs a relaxed add and a few branches.
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
        if let Some(f) = self.stats.field(kind) {
            *f += 1;
        }
        if let Some(s) = self.slot {
            s.add(kind, 1);
        }
        if self.live.is_some() || self.trace.is_on() {
            self.record(kind, site, key_words, cycle, a, b);
        }
    }

    /// The live and recording half of [`Sinks::note`].
    fn record(
        &mut self,
        kind: EventKind,
        site: u32,
        key_words: &[u64],
        cycle: u64,
        a: u64,
        b: u64,
    ) {
        let ring = self.live.and_then(|l| {
            if kind == EventKind::GeExecEnd {
                // Per-site specialization economics for the sampler's
                // break-even-drift window.
                l.registry.note_spec(site, a);
            }
            l.ring.as_deref().filter(|_| kind.ringed())
        });
        if self.trace.is_on() || ring.is_some() {
            let key = dyc_obs::key_hash(key_words);
            self.trace.rec(kind, site, key, cycle, a, b);
            if let Some(r) = ring {
                r.record(kind, site, key, cycle, a, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_counterwise() {
        let mut before = RtStats::new();
        before.specializations = 3;
        before.dyncomp_cycles = 1000;
        before.dispatch_probes = 7;
        let mut after = before.clone();
        after.specializations = 5;
        after.dyncomp_cycles = 1800;
        after.dispatch_probes = 7;
        after.multi_way_unroll = true;
        let d = after.delta(&before);
        assert_eq!(d.specializations, 2);
        assert_eq!(d.dyncomp_cycles, 800);
        assert_eq!(d.dispatch_probes, 0);
        assert!(d.multi_way_unroll);
        // Identical snapshots difference to all-zero.
        assert_eq!(after.delta(&after), RtStats::new());
    }

    #[test]
    fn delta_saturates_instead_of_underflowing() {
        let mut a = RtStats::new();
        a.cache_evictions = 2;
        let mut b = RtStats::new();
        b.cache_evictions = 5;
        assert_eq!(a.delta(&b).cache_evictions, 0);
    }

    #[test]
    fn counters_cover_every_u64_field() {
        let s = RtStats::new();
        let counters = s.counters();
        // 39 u64 counters + the one bool (padded to 8 bytes) accounts
        // for the whole struct; a counter field missing from the macro
        // breaks this equation.
        assert_eq!(
            std::mem::size_of::<RtStats>(),
            (counters.len() + 1) * std::mem::size_of::<u64>()
        );
        let mut names: Vec<_> = counters.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), counters.len(), "duplicate counter names");
    }

    #[test]
    fn every_counter_round_trips_through_delta_and_counters() {
        // Give every counter a distinct nonzero value, positionally, so
        // a field silently dropped from `delta` (or swapped with a
        // neighbor) is caught — the latent gap that once let new meters
        // bypass phase accounting.
        let mut s = RtStats::new();
        let n = s.counters().len();
        {
            // Safety net: the size test above proves the struct is
            // exactly `n` u64s + one bool-in-a-u64-slot, and the macro
            // lists fields in declaration order.
            let fields: Vec<*mut u64> = {
                macro_rules! addrs {
                    ($($f:ident),*) => { vec![$(std::ptr::addr_of_mut!(s.$f),)*] };
                }
                counter_fields!(addrs)
            };
            assert_eq!(fields.len(), n);
            for (i, p) in fields.into_iter().enumerate() {
                unsafe { *p = (i + 1) as u64 };
            }
        }
        // counters() reports every value under its own name...
        for (i, (name, v)) in s.counters().into_iter().enumerate() {
            assert_eq!(v, (i + 1) as u64, "{name} lost its value");
        }
        // ...and delta against zero reproduces the struct exactly, so
        // no field is dropped by phase subtraction.
        assert_eq!(s.delta(&RtStats::new()), s);
        let names: Vec<&str> = s.counters().iter().map(|(n, _)| *n).collect();
        for meter in ["policy_defers", "policy_promotes", "policy_throttled"] {
            assert!(names.contains(&meter), "{meter} missing from counters()");
        }
    }

    #[test]
    fn note_counts_each_kind_once_in_its_slot_and_field() {
        use EventKind as K;
        // The RtStats field each kind bumps; the other kinds bump none.
        let fields = [
            (K::GeExecBegin, "specializations"),
            (K::FlightWait, "single_flight_waits"),
            (K::FlightFallback, "single_flight_fallbacks"),
            (K::CacheEvict, "cache_evictions"),
            (K::CacheInvalidate, "cache_invalidations"),
            (K::Promotion, "internal_promotions"),
            (K::CacheWarmLoad, "cache_warm_loads"),
            (K::CacheWarmReject, "cache_warm_rejects"),
            (K::NativeInstall, "native_installs"),
            (K::NativeFallback, "native_fallbacks"),
            (K::PolicyDefer, "policy_defers"),
            (K::PolicyPromote, "policy_promotes"),
            (K::PolicyThrottle, "policy_throttled"),
        ];
        for kind in dyc_obs::ALL_KINDS {
            let (mut stats, mut trace, slot) = (RtStats::new(), Trace::off(), LiveSlot::new());
            let mut sinks = Sinks {
                stats: &mut stats,
                trace: &mut trace,
                slot: Some(&slot),
                live: None,
            };
            sinks.note(kind, 0, &[], 0, 0, 0);
            let counts = slot.counts();
            for k in dyc_obs::ALL_KINDS {
                assert_eq!(
                    counts.get(k),
                    u64::from(k == kind),
                    "{kind:?} counted as {k:?}"
                );
            }
            let bumped: Vec<&str> = stats
                .counters()
                .into_iter()
                .filter(|&(_, v)| v != 0)
                .map(|(n, _)| n)
                .collect();
            let want: Vec<&str> = fields
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, n)| *n)
                .collect();
            assert_eq!(bumped, want, "{kind:?}");
        }
    }

    #[test]
    fn overhead_per_instr_handles_zero() {
        assert_eq!(RtStats::new().overhead_per_instr(), 0.0);
        let s = RtStats {
            instrs_generated: 100,
            dyncomp_cycles: 5000,
            ..RtStats::new()
        };
        assert_eq!(s.overhead_per_instr(), 50.0);
    }
}
