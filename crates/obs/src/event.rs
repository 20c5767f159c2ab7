//! The typed events the run-time system records.

/// What happened. Every variant maps to one [`Category`]; the payload
/// words `a`/`b` on [`Event`] are kind-specific (documented per
/// variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EventKind {
    /// Hashed (`cache_all`/`cache_all(k)`, or indexed-overflow) dispatch
    /// that hit cached code. `a` = dispatch cycles charged, `b` =
    /// probes.
    #[default]
    DispatchHit,
    /// Dispatch that missed and triggered a specialization (or, in the
    /// concurrent runtime, entered the single-flight miss path). `a` =
    /// dispatch cycles charged, `b` = probes (0 for non-hashed
    /// policies).
    DispatchMiss,
    /// `cache_one_unchecked` dispatch that hit. `a` = dispatch cycles.
    DispatchUnchecked,
    /// Array-indexed (§3.1) dispatch that hit. `a` = dispatch cycles.
    DispatchIndexed,
    /// Concurrent only: this thread blocked on another thread's
    /// in-flight specialization of the same (site, key). `a` = wall
    /// nanoseconds spent waiting.
    FlightWait,
    /// Concurrent only: this thread, racing an in-flight
    /// specialization, ran the generic continuation instead of waiting.
    FlightFallback,
    /// A specialization (GE execution) started at this site.
    GeExecBegin,
    /// The specialization finished. `a` = dynamic-compilation cycles it
    /// charged, `b` = VM instructions generated.
    GeExecEnd,
    /// Copy-and-patch templates contributed instructions to a sealed
    /// unit (post dead-assignment elimination, matching
    /// `RtStats::template_instrs`). `a` = instructions copied.
    TemplateCopy,
    /// Template holes were patched in a sealed unit (matching
    /// `RtStats::holes_patched`). `a` = holes patched.
    HolePatch,
    /// A bounded `cache_all(k)` site evicted a resident specialization.
    /// The event's `key` is the hash of the *evicted* key; `a` = the
    /// victim's clock slot.
    CacheEvict,
    /// All cached code for the site was explicitly invalidated.
    CacheInvalidate,
    /// An internal dynamic-to-static promotion created a new dispatch
    /// site mid-specialization. The event's `site` is the parent
    /// (specializing) site; `a` = the new site's id.
    Promotion,
    /// A cached specialization was restored from a snapshot bundle at
    /// warm-start (no GE execution ran). `a` = instructions in the
    /// restored code.
    CacheWarmLoad,
    /// A specialization was additionally lowered to native x86-64
    /// machine code and installed in the executable arena. `a` = bytes
    /// of machine code published.
    NativeInstall,
    /// A specialization stayed on the VM backend despite the native
    /// config — the lowering declined or the platform has no native
    /// backend.
    NativeFallback,
    /// Adaptive policy deferred a below-threshold miss to the generic
    /// continuation instead of specializing. `a` = the (site, key)
    /// dispatch count so far.
    PolicyDefer,
    /// Adaptive policy promoted a (site, key) past its break-even
    /// threshold: this miss specializes after earlier deferrals. `a` =
    /// the dispatch count at promotion.
    PolicyPromote,
    /// Adaptive policy throttled an internal-promotion site whose
    /// specializations never get re-dispatched; the generic
    /// continuation ran instead. `a` = the (site, key) dispatch count.
    PolicyThrottle,
    /// Concurrent only: a miss found its key already published when it
    /// reached the single-flight table (it lost the publication race)
    /// and ran the winner's code — no specialization, wait or fallback.
    FlightRace,
    /// The site's generic continuation (unspecialized code for the
    /// region, run by policy deferrals and single-flight fallbacks) was
    /// compiled. At most once per site; no dynamic-compilation cycles.
    GenericBuild,
    /// A snapshot-bundle entry was rejected at warm-start: a stale or
    /// corrupted fingerprint, a site mismatch, or bounded-capacity
    /// surplus. The key re-specializes on its first dispatch.
    CacheWarmReject,
    /// Concurrent only: the code a dispatch found had been unbound since,
    /// and its registry slot freed or reused, by another thread before
    /// this thread could copy it; the dispatch probed the cache again.
    FlightStale,
}

/// Event categories — the `cat` field of the Chrome trace, and the
/// granularity at which CI's `dycstat check` asserts coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Dispatch hits and misses, all policies.
    Dispatch,
    /// Single-flight waits, fallbacks and lost publication races.
    Flight,
    /// GE-executor (specialization) begin/end spans, native installs
    /// and generic-continuation builds.
    Spec,
    /// Template copies and hole patches.
    Template,
    /// Cache evictions, invalidations and warm-start loads and rejects.
    Cache,
    /// Internal dynamic-to-static promotions.
    Promote,
    /// Adaptive-policy decisions: defers, promotions past break-even,
    /// and internal-site throttles.
    Policy,
}

impl Category {
    /// The category's stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Category::Dispatch => "dispatch",
            Category::Flight => "flight",
            Category::Spec => "spec",
            Category::Template => "template",
            Category::Cache => "cache",
            Category::Promote => "promote",
            Category::Policy => "policy",
        }
    }
}

impl EventKind {
    /// The kind's stable kebab-case name (the Chrome trace's `name`
    /// field, except that [`EventKind::GeExecBegin`]/[`EventKind::GeExecEnd`]
    /// share the name `ge-exec` so Chrome pairs them into a span).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::DispatchHit => "dispatch-hit",
            EventKind::DispatchMiss => "dispatch-miss",
            EventKind::DispatchUnchecked => "dispatch-unchecked",
            EventKind::DispatchIndexed => "dispatch-indexed",
            EventKind::FlightWait => "flight-wait",
            EventKind::FlightFallback => "flight-fallback",
            EventKind::GeExecBegin | EventKind::GeExecEnd => "ge-exec",
            EventKind::TemplateCopy => "template-copy",
            EventKind::HolePatch => "hole-patch",
            EventKind::CacheEvict => "cache-evict",
            EventKind::CacheInvalidate => "cache-invalidate",
            EventKind::Promotion => "promotion",
            EventKind::CacheWarmLoad => "cache-warm-load",
            EventKind::NativeInstall => "native-install",
            EventKind::NativeFallback => "native-fallback",
            EventKind::PolicyDefer => "policy-defer",
            EventKind::PolicyPromote => "policy-promote",
            EventKind::PolicyThrottle => "policy-throttle",
            EventKind::FlightRace => "flight-race",
            EventKind::GenericBuild => "generic-build",
            EventKind::CacheWarmReject => "cache-warm-reject",
            EventKind::FlightStale => "flight-stale",
        }
    }

    /// True for the kinds the flight recorder rings: the miss path's
    /// events. Hits, template copies and hole patches (per-dispatch or
    /// per-unit volume), and invalidations, internal promotions and
    /// warm-start loads and rejects are only counted.
    pub fn ringed(self) -> bool {
        !matches!(
            self,
            EventKind::DispatchHit
                | EventKind::DispatchUnchecked
                | EventKind::DispatchIndexed
                | EventKind::TemplateCopy
                | EventKind::HolePatch
                | EventKind::CacheInvalidate
                | EventKind::Promotion
                | EventKind::CacheWarmLoad
                | EventKind::CacheWarmReject
        )
    }

    /// The kind's [`Category`].
    pub fn category(self) -> Category {
        match self {
            EventKind::DispatchHit
            | EventKind::DispatchMiss
            | EventKind::DispatchUnchecked
            | EventKind::DispatchIndexed => Category::Dispatch,
            EventKind::FlightWait
            | EventKind::FlightFallback
            | EventKind::FlightRace
            | EventKind::FlightStale => Category::Flight,
            EventKind::GeExecBegin
            | EventKind::GeExecEnd
            | EventKind::GenericBuild
            | EventKind::NativeInstall
            | EventKind::NativeFallback => Category::Spec,
            EventKind::TemplateCopy | EventKind::HolePatch => Category::Template,
            EventKind::CacheEvict
            | EventKind::CacheInvalidate
            | EventKind::CacheWarmLoad
            | EventKind::CacheWarmReject => Category::Cache,
            EventKind::Promotion => Category::Promote,
            EventKind::PolicyDefer | EventKind::PolicyPromote | EventKind::PolicyThrottle => {
                Category::Policy
            }
        }
    }
}

/// One recorded event: 72 bytes, `Copy`, written into the ring buffer
/// without any allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// The dispatch site (for [`EventKind::Promotion`], the parent
    /// site).
    pub site: u32,
    /// Recording thread (0 for the single-threaded runtime; assigned
    /// per thread handle in the concurrent one).
    pub thread: u32,
    /// FNV-1a hash of the cache-key words ([`crate::key_hash`]).
    pub key: u64,
    /// Strictly increasing per-recorder sequence number.
    pub seq: u64,
    /// Wall nanoseconds since the process trace epoch
    /// ([`crate::now_ns`]).
    pub t_ns: u64,
    /// Model-cycle stamp: the recording VM's cumulative cycle count at
    /// record time (0 where no VM is in reach, e.g. explicit
    /// invalidation from outside a run).
    pub cycle: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub b: u64,
}

/// Number of event kinds: the length of every per-kind array.
pub const N_KINDS: usize = 23;

/// Every kind, in declaration order, so `ALL_KINDS[kind as usize] ==
/// kind`: per-kind arrays (a live slot's counts, a ring slot's kind word)
/// are indexed by `kind as usize`.
pub const ALL_KINDS: [EventKind; N_KINDS] = [
    EventKind::DispatchHit,
    EventKind::DispatchMiss,
    EventKind::DispatchUnchecked,
    EventKind::DispatchIndexed,
    EventKind::FlightWait,
    EventKind::FlightFallback,
    EventKind::GeExecBegin,
    EventKind::GeExecEnd,
    EventKind::TemplateCopy,
    EventKind::HolePatch,
    EventKind::CacheEvict,
    EventKind::CacheInvalidate,
    EventKind::Promotion,
    EventKind::CacheWarmLoad,
    EventKind::NativeInstall,
    EventKind::NativeFallback,
    EventKind::PolicyDefer,
    EventKind::PolicyPromote,
    EventKind::PolicyThrottle,
    EventKind::FlightRace,
    EventKind::GenericBuild,
    EventKind::CacheWarmReject,
    EventKind::FlightStale,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_except_the_span_pair() {
        let mut names: Vec<&str> = ALL_KINDS.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        // Every kind is named once, except that begin/end share "ge-exec".
        assert_eq!(names.len(), ALL_KINDS.len() - 1);
    }

    #[test]
    fn every_kind_indexes_its_own_slot() {
        for (i, k) in ALL_KINDS.into_iter().enumerate() {
            assert_eq!(k as usize, i, "{k:?} out of declaration order");
        }
        assert_eq!(ALL_KINDS.len(), N_KINDS);
    }

    #[test]
    fn the_flight_ring_takes_the_miss_path_kinds() {
        use EventKind as K;
        // Kind by kind, what the flight recorder rang before the meter
        // table became a predicate: 14 kinds on, 9 off.
        let ringed = [
            (K::DispatchHit, false),
            (K::DispatchMiss, true),
            (K::DispatchUnchecked, false),
            (K::DispatchIndexed, false),
            (K::FlightWait, true),
            (K::FlightFallback, true),
            (K::GeExecBegin, true),
            (K::GeExecEnd, true),
            (K::TemplateCopy, false),
            (K::HolePatch, false),
            (K::CacheEvict, true),
            (K::CacheInvalidate, false),
            (K::Promotion, false),
            (K::CacheWarmLoad, false),
            (K::NativeInstall, true),
            (K::NativeFallback, true),
            (K::PolicyDefer, true),
            (K::PolicyPromote, true),
            (K::PolicyThrottle, true),
            (K::FlightRace, true),
            (K::GenericBuild, true),
            (K::CacheWarmReject, false),
            (K::FlightStale, true),
        ];
        assert_eq!(ringed.len(), N_KINDS);
        for (k, on) in ringed {
            assert_eq!(k.ringed(), on, "{k:?}");
        }
    }

    #[test]
    fn every_category_is_covered() {
        for c in [
            Category::Dispatch,
            Category::Flight,
            Category::Spec,
            Category::Template,
            Category::Cache,
            Category::Promote,
            Category::Policy,
        ] {
            assert!(
                ALL_KINDS.iter().any(|k| k.category() == c),
                "no kind maps to {:?}",
                c.name()
            );
        }
    }
}
