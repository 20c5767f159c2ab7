//! The aggregation pass: events → per-site profiles, the threaded
//! contention summary, and the miss-path latency histogram.

use crate::event::{Event, EventKind};
use crate::hist::LatencyHistogram;

/// Everything a recorded run says about one dispatch site — the row of
/// `dycstat`'s paper-style table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteProfile {
    /// The site id.
    pub site: u32,
    /// Specializations started here ([`EventKind::GeExecBegin`]).
    pub specializations: u64,
    /// Distinct cache-key hashes seen across misses — the cached
    /// variants the site accumulated (eviction can later shrink the
    /// resident set below this).
    pub variants: u64,
    /// Cache hits, all policies.
    pub hits: u64,
    /// Dispatch misses.
    pub misses: u64,
    /// Hits served unchecked (`cache_one_unchecked`).
    pub unchecked: u64,
    /// Hits served by array indexing (§3.1).
    pub indexed: u64,
    /// Hits served by the hashed `cache_all` table.
    pub hashed: u64,
    /// Total probes across hashed lookups (hits and misses).
    pub probes: u64,
    /// Cycles charged to dispatching at this site.
    pub dispatch_cycles: u64,
    /// Dynamic-compilation cycles charged by this site's
    /// specializations ([`EventKind::GeExecEnd`] payloads).
    pub dyncomp_cycles: u64,
    /// VM instructions those specializations generated.
    pub instrs_generated: u64,
    /// Instructions contributed by copy-and-patch templates.
    pub template_instrs: u64,
    /// Template holes patched.
    pub holes_patched: u64,
    /// Bounded-cache evictions at this site.
    pub evictions: u64,
    /// Explicit invalidations of this site.
    pub invalidations: u64,
    /// Internal promotion sites created while specializing this site.
    pub promotions: u64,
    /// Specializations restored from a snapshot bundle at warm-start.
    /// Each restored variant serves hits without this run ever paying
    /// its specialization cost, so break-even accounting must treat the
    /// site's `dyncomp_cycles` as covering only the *non*-restored
    /// variants.
    pub warm_loads: u64,
    /// Single-flight waits at this site (concurrent runs).
    pub waits: u64,
    /// Wall nanoseconds spent in those waits.
    pub wait_ns: u64,
    /// Single-flight generic-continuation fallbacks (concurrent runs).
    pub fallbacks: u64,
    /// Specializations additionally installed as native x86-64 machine
    /// code at this site.
    pub native_installs: u64,
    /// Total machine-code bytes those installs published.
    pub native_bytes: u64,
    /// Specializations that stayed on the VM backend despite the native
    /// config (lowering declined, or no backend on this platform).
    pub native_fallbacks: u64,
    /// Adaptive-policy deferrals: below-threshold misses that ran the
    /// generic continuation instead of specializing.
    pub policy_defers: u64,
    /// Adaptive-policy promotions: (site, key) pairs that crossed the
    /// break-even threshold and specialized after earlier deferrals.
    pub policy_promotes: u64,
    /// Adaptive-policy throttles: internal-site misses routed to the
    /// generic continuation because the site's specializations never
    /// got re-dispatched.
    pub policy_throttled: u64,
}

impl SiteProfile {
    /// Dispatches through the site (hits + misses).
    pub fn uses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Mean probes per hashed lookup (0 when the site never hashed).
    pub fn probe_rate(&self) -> f64 {
        let lookups = self.hashed + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.probes as f64 / lookups as f64
        }
    }

    /// The §4.2 break-even estimate: how many uses of the region pay
    /// off this site's dynamic-compilation investment, given the cycles
    /// each specialized use saves over the static build. `None` when
    /// the savings are non-positive (specialization never pays off) —
    /// a *finite* break-even exists exactly when `saved_per_use > 0`.
    pub fn break_even(&self, saved_per_use: f64) -> Option<f64> {
        if saved_per_use > 0.0 {
            Some(self.dyncomp_cycles as f64 / saved_per_use)
        } else {
            None
        }
    }
}

/// Aggregate a merged event stream into per-site profiles, ordered by
/// site id. Sites appear if any event mentions them.
pub fn site_profiles(events: &[Event]) -> Vec<SiteProfile> {
    fn at(site: u32, out: &mut Vec<SiteProfile>, variant_keys: &mut Vec<Vec<u64>>) -> usize {
        match out.binary_search_by_key(&site, |p| p.site) {
            Ok(i) => i,
            Err(i) => {
                out.insert(
                    i,
                    SiteProfile {
                        site,
                        ..SiteProfile::default()
                    },
                );
                variant_keys.insert(i, Vec::new());
                i
            }
        }
    }
    let mut out: Vec<SiteProfile> = Vec::new();
    let mut variant_keys: Vec<Vec<u64>> = Vec::new();
    for e in events {
        let i = at(e.site, &mut out, &mut variant_keys);
        let p = &mut out[i];
        match e.kind {
            EventKind::DispatchHit => {
                p.hits += 1;
                p.hashed += 1;
                p.probes += e.b;
                p.dispatch_cycles += e.a;
            }
            EventKind::DispatchMiss => {
                p.misses += 1;
                p.probes += e.b;
                p.dispatch_cycles += e.a;
                let keys = &mut variant_keys[i];
                if let Err(j) = keys.binary_search(&e.key) {
                    keys.insert(j, e.key);
                    p.variants += 1;
                }
            }
            EventKind::DispatchUnchecked => {
                p.hits += 1;
                p.unchecked += 1;
                p.dispatch_cycles += e.a;
            }
            EventKind::DispatchIndexed => {
                p.hits += 1;
                p.indexed += 1;
                p.dispatch_cycles += e.a;
            }
            EventKind::FlightWait => {
                p.waits += 1;
                p.wait_ns += e.a;
            }
            EventKind::FlightFallback => p.fallbacks += 1,
            EventKind::GeExecBegin => p.specializations += 1,
            EventKind::GeExecEnd => {
                p.dyncomp_cycles += e.a;
                p.instrs_generated += e.b;
            }
            EventKind::TemplateCopy => p.template_instrs += e.a,
            EventKind::HolePatch => p.holes_patched += e.a,
            EventKind::CacheEvict => p.evictions += 1,
            EventKind::CacheInvalidate => p.invalidations += 1,
            EventKind::Promotion => p.promotions += 1,
            EventKind::CacheWarmLoad => p.warm_loads += 1,
            EventKind::NativeInstall => {
                p.native_installs += 1;
                p.native_bytes += e.a;
            }
            EventKind::NativeFallback => p.native_fallbacks += 1,
            EventKind::PolicyDefer => p.policy_defers += 1,
            EventKind::PolicyPromote => p.policy_promotes += 1,
            EventKind::PolicyThrottle => p.policy_throttled += 1,
            EventKind::FlightRace
            | EventKind::FlightStale
            | EventKind::GenericBuild
            | EventKind::CacheWarmReject => {}
        }
    }
    out
}

/// One thread's share of a concurrent run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ThreadLoad {
    /// The thread id.
    pub thread: u32,
    /// Events this thread recorded.
    pub events: u64,
    /// Dispatch misses it took.
    pub misses: u64,
    /// Single-flight waits it suffered.
    pub waits: u64,
    /// Wall nanoseconds spent waiting.
    pub wait_ns: u64,
    /// Generic-continuation fallbacks it took.
    pub fallbacks: u64,
}

/// The threaded contention summary: per-thread loads, ordered by
/// thread id.
pub fn contention(events: &[Event]) -> Vec<ThreadLoad> {
    let mut out: Vec<ThreadLoad> = Vec::new();
    for e in events {
        let i = match out.binary_search_by_key(&e.thread, |t| t.thread) {
            Ok(i) => i,
            Err(i) => {
                out.insert(
                    i,
                    ThreadLoad {
                        thread: e.thread,
                        ..ThreadLoad::default()
                    },
                );
                i
            }
        };
        let t = &mut out[i];
        t.events += 1;
        match e.kind {
            EventKind::DispatchMiss => t.misses += 1,
            EventKind::FlightWait => {
                t.waits += 1;
                t.wait_ns += e.a;
            }
            EventKind::FlightFallback => t.fallbacks += 1,
            _ => {}
        }
    }
    out
}

/// Miss-path latency spans recoverable from an event stream: each
/// GE-executor run ([`EventKind::GeExecBegin`]→[`EventKind::GeExecEnd`]
/// wall time, paired per thread, nesting-aware for internal promotion)
/// and each single-flight wait ([`EventKind::FlightWait`]'s wall-ns
/// payload). Together these are the two ways a dispatch miss stalls a
/// serving thread.
///
/// Note the ring-buffer caveat: a trace's [`crate::EventRing`] keeps only the
/// newest [`crate::DEFAULT_CAPACITY`] events, so on long runs this
/// histogram covers the trailing window. The serving harness instead
/// uses the runtime's always-on per-thread histogram for whole-run
/// percentiles; this aggregation is `dycstat`'s view over a recorded
/// trace.
pub fn miss_latency(events: &[Event]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    // Per-thread stacks of open GeExecBegin timestamps (promotion can
    // nest a specialization inside a specialization on one thread).
    let mut open: Vec<(u32, Vec<u64>)> = Vec::new();
    let stack = |open: &mut Vec<(u32, Vec<u64>)>, thread: u32| -> usize {
        match open.binary_search_by_key(&thread, |(t, _)| *t) {
            Ok(i) => i,
            Err(i) => {
                open.insert(i, (thread, Vec::new()));
                i
            }
        }
    };
    for e in events {
        match e.kind {
            EventKind::GeExecBegin => {
                let i = stack(&mut open, e.thread);
                open[i].1.push(e.t_ns);
            }
            EventKind::GeExecEnd => {
                let i = stack(&mut open, e.thread);
                if let Some(t0) = open[i].1.pop() {
                    h.record(e.t_ns.saturating_sub(t0));
                }
            }
            EventKind::FlightWait => h.record(e.a),
            _ => {}
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, site: u32, key: u64, a: u64, b: u64) -> Event {
        Event {
            kind,
            site,
            key,
            a,
            b,
            ..Event::default()
        }
    }

    #[test]
    fn profiles_aggregate_per_site() {
        let events = vec![
            ev(EventKind::DispatchMiss, 0, 11, 90, 1),
            ev(EventKind::GeExecBegin, 0, 11, 0, 0),
            ev(EventKind::TemplateCopy, 0, 11, 5, 0),
            ev(EventKind::HolePatch, 0, 11, 3, 0),
            ev(EventKind::GeExecEnd, 0, 11, 700, 12),
            ev(EventKind::DispatchHit, 0, 11, 90, 1),
            ev(EventKind::DispatchMiss, 0, 22, 98, 2),
            ev(EventKind::GeExecBegin, 0, 22, 0, 0),
            ev(EventKind::GeExecEnd, 0, 22, 300, 6),
            ev(EventKind::DispatchMiss, 1, 11, 10, 0),
            ev(EventKind::DispatchUnchecked, 1, 11, 10, 0),
        ];
        let ps = site_profiles(&events);
        assert_eq!(ps.len(), 2);
        let p0 = &ps[0];
        assert_eq!(p0.site, 0);
        assert_eq!(p0.specializations, 2);
        assert_eq!(p0.variants, 2);
        assert_eq!((p0.hits, p0.misses), (1, 2));
        assert_eq!(p0.dyncomp_cycles, 1000);
        assert_eq!(p0.instrs_generated, 18);
        assert_eq!(p0.template_instrs, 5);
        assert_eq!(p0.holes_patched, 3);
        assert_eq!(p0.dispatch_cycles, 90 + 90 + 98);
        assert_eq!(p0.uses(), 3);
        // 4 probes over 3 hashed lookups (1 hashed hit + 2 misses).
        assert!((p0.probe_rate() - 4.0 / 3.0).abs() < 1e-9);
        let p1 = &ps[1];
        assert_eq!(p1.site, 1);
        assert_eq!((p1.unchecked, p1.misses), (1, 1));
        // A repeated miss key is one variant.
        assert_eq!(p1.variants, 1);
    }

    #[test]
    fn break_even_is_finite_iff_savings_positive() {
        let p = SiteProfile {
            dyncomp_cycles: 1000,
            ..SiteProfile::default()
        };
        assert_eq!(p.break_even(50.0), Some(20.0));
        assert_eq!(p.break_even(0.0), None);
        assert_eq!(p.break_even(-3.0), None);
    }

    #[test]
    fn miss_latency_pairs_spans_per_thread_and_counts_waits() {
        let span = |kind, thread, t_ns| Event {
            kind,
            thread,
            t_ns,
            ..Event::default()
        };
        let events = vec![
            // Thread 0: a 1000 ns specialization with a nested (promoted)
            // 200 ns specialization inside it.
            span(EventKind::GeExecBegin, 0, 100),
            span(EventKind::GeExecBegin, 0, 500),
            span(EventKind::GeExecEnd, 0, 700),
            span(EventKind::GeExecEnd, 0, 1100),
            // Thread 1: a 300 ns specialization, interleaved in time.
            span(EventKind::GeExecBegin, 1, 400),
            span(EventKind::GeExecEnd, 1, 700),
            // Thread 2: a single-flight wait of 5000 ns.
            Event {
                kind: EventKind::FlightWait,
                thread: 2,
                a: 5000,
                ..Event::default()
            },
            // A dangling End (its Begin fell off the ring) is dropped.
            span(EventKind::GeExecEnd, 3, 900),
        ];
        let h = miss_latency(&events);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 5000);
        assert_eq!(h.sum(), 1000 + 200 + 300 + 5000);
    }

    #[test]
    fn contention_groups_by_thread() {
        let mut e1 = ev(EventKind::FlightWait, 0, 0, 500, 0);
        e1.thread = 1;
        let mut e2 = ev(EventKind::DispatchMiss, 0, 0, 90, 1);
        e2.thread = 0;
        let mut e3 = ev(EventKind::FlightFallback, 0, 0, 0, 0);
        e3.thread = 1;
        let loads = contention(&[e1, e2, e3]);
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].thread, 0);
        assert_eq!(loads[0].misses, 1);
        assert_eq!(loads[1].thread, 1);
        assert_eq!(
            (loads[1].waits, loads[1].wait_ns, loads[1].fallbacks),
            (1, 500, 1)
        );
    }
}
