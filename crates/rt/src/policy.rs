//! Online adaptive specialization policy (§4.2's break-even, applied
//! live).
//!
//! The paper answers *when staged specialization pays for itself*
//! post-hoc, from measured per-site overhead and savings. This module
//! closes that loop at run time: a [`PolicyEngine`] counts dispatches
//! per `(site, key)` and only approves a specialization once the key
//! has been dispatched at least a per-site *threshold* number of times
//! — below the threshold the dispatch is **deferred** to the site's
//! generic continuation (ordinary unspecialized code, the same
//! continuation [`MissPolicy::Fallback`](crate::MissPolicy) racers
//! run), which is always correct and charges no dynamic-compilation
//! cycles.
//!
//! The per-key state machine:
//!
//! ```text
//!            miss, count < threshold            miss, count ≥ threshold
//! Cold ───────────────► Deferred ──────────────────────► Promoted
//!  │                        │  ▲                            │
//!  │ miss, threshold == 1   │  │ site throttled             │ evicted, miss
//!  └────────────────────────┼──┘ (internal sites only)      │ again later
//!                           ▼                               ▼
//!                       Promoted ◄────────────────────── Revived
//!                                  (re-specialize; the site's bounded
//!                                   cap may grow — see below)
//! ```
//!
//! * **Threshold estimation.** Until a site's first specialization
//!   completes, the threshold is [`PolicyParams::initial_threshold`].
//!   Afterwards it is `ceil(avg dyncomp cycles per specialization /
//!   assumed_saved_per_use)`, clamped to `[1,
//!   PolicyParams::max_threshold]` — the same arithmetic as
//!   `SiteProfile::break_even` in `dyc-obs`, fed by the engine's own
//!   running average instead of a trace.
//! * **Throttling.** An *internal promotion* site whose
//!   specializations are never re-dispatched (≥
//!   [`PolicyParams::throttle_probe`] specializations, zero cache
//!   hits) stops specializing: further misses run the generic
//!   continuation. The first cache hit at the site lifts the throttle
//!   permanently. Entry sites are never throttled, so a hot entry key
//!   is always eventually specialized.
//! * **Bounded-cap auto-sizing.** When a key that was already
//!   specialized misses again, it was evicted and has come back — the
//!   site's reuse distance exceeds its `cache_all(k)` bound. The
//!   engine counts these *revivals* and
//!   [`PolicyEngine::cap_for`] grows the site's effective bound by one
//!   slot per revival, up to `k ×` [`PolicyParams::cap_growth_limit`].
//!
//! # Locking and counter exactness
//!
//! Per-key counters live in one [`Mutex`]ed map keyed by the full
//! `[site, key bits...]` cache key and are touched **only on the miss
//! path** — a cache hit never takes the lock, preserving the warm
//! dispatch path's lock-free, allocation-free cache read. Per-site
//! meters (hits, specializations, average cost, revivals) are plain
//! relaxed atomics inside an append-only table guarded by a [`RwLock`]
//! taken for reading only. Every decision for a given `(site, key)`
//! happens under the map mutex, so counts are exact under arbitrary
//! thread interleavings: no increment is lost and no miss is counted
//! twice. Ordering between the counters and code publication is
//! irrelevant — the engine only *schedules* specializations; the
//! runtime's existing single-flight protocol still serializes who
//! performs them.
//!
//! Both [`Runtime`](crate::Runtime) and the sharded
//! [`SharedRuntime`](crate::SharedRuntime) embed the same engine type,
//! consulted by the one dispatch core; it is enabled by
//! `OptConfig::policy =` [`PolicyMode::Adaptive`](dyc_bta::PolicyMode),
//! and the default `Always` mode bypasses it entirely — dispatch behavior, code bytes, and every existing table
//! are unchanged.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Tuning knobs for the [`PolicyEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyParams {
    /// Dispatch count a key must reach before its site's first
    /// specialization cost is known (the cold-start threshold).
    pub initial_threshold: u32,
    /// Assumed cycles saved per dispatch by running specialized instead
    /// of generic code — the denominator of the break-even estimate.
    pub assumed_saved_per_use: u64,
    /// Upper clamp on the estimated threshold: even a very expensive
    /// site specializes a key after this many dispatches.
    pub max_threshold: u32,
    /// Specializations an *internal* site may perform with zero cache
    /// hits before further specialization is throttled.
    pub throttle_probe: u64,
    /// Multiplier bounding bounded-cache growth: a `cache_all(k)` site's
    /// effective capacity never exceeds `k * cap_growth_limit`.
    pub cap_growth_limit: usize,
}

impl Default for PolicyParams {
    fn default() -> PolicyParams {
        PolicyParams {
            initial_threshold: 2,
            assumed_saved_per_use: 1_000,
            max_threshold: 8,
            throttle_probe: 4,
            cap_growth_limit: 4,
        }
    }
}

/// What the engine decided for one dispatch miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyDecision {
    /// Specialize now.
    Specialize {
        /// True when the key had previously been deferred — this miss
        /// crossed the threshold (a *promotion*, metered as
        /// `policy_promotes`).
        promoted: bool,
    },
    /// Below break-even: run the generic continuation instead.
    Defer,
    /// Site throttled (internal site whose specializations are never
    /// re-dispatched): run the generic continuation.
    Throttle,
}

#[derive(Debug, Default)]
struct KeyState {
    count: u32,
    promoted: bool,
}

/// Per-site meters, all relaxed atomics (exactness per *site* is not
/// load-bearing; per-key decisions are serialized by the map mutex).
#[derive(Debug, Default)]
struct SiteMeter {
    hits: AtomicU64,
    specs: AtomicU64,
    spec_cycles: AtomicU64,
    revived: AtomicU64,
}

/// The online policy engine. Thread-safe by construction; see the
/// [module docs](self) for the state machine and locking rules.
#[derive(Debug)]
pub struct PolicyEngine {
    params: PolicyParams,
    /// `[site, key bits...]` → per-key dispatch state. Miss-path only.
    counts: Mutex<HashMap<Vec<u64>, KeyState>>,
    /// Append-only per-site meter table, indexed by site id.
    meters: RwLock<Vec<Arc<SiteMeter>>>,
}

impl PolicyEngine {
    /// An engine with the given tuning parameters.
    pub fn new(params: PolicyParams) -> PolicyEngine {
        PolicyEngine {
            params,
            counts: Mutex::new(HashMap::new()),
            meters: RwLock::new(Vec::new()),
        }
    }

    /// The engine's parameters.
    pub fn params(&self) -> &PolicyParams {
        &self.params
    }

    fn meter(&self, site: u32) -> Arc<SiteMeter> {
        {
            let g = self.meters.read().unwrap();
            if let Some(m) = g.get(site as usize) {
                return Arc::clone(m);
            }
        }
        let mut g = self.meters.write().unwrap();
        while g.len() <= site as usize {
            g.push(Arc::new(SiteMeter::default()));
        }
        Arc::clone(&g[site as usize])
    }

    /// The site's current promotion threshold: the cold-start value
    /// until a specialization cost is known, then the break-even
    /// estimate `ceil(avg spec cycles / assumed saved per use)` clamped
    /// to `[1, max_threshold]`.
    pub fn threshold(&self, site: u32) -> u32 {
        let m = self.meter(site);
        let specs = m.specs.load(Ordering::Relaxed);
        if specs == 0 {
            return self.params.initial_threshold.max(1);
        }
        let avg = m.spec_cycles.load(Ordering::Relaxed) / specs;
        let est = avg.div_ceil(self.params.assumed_saved_per_use.max(1));
        (est as u32).clamp(1, self.params.max_threshold)
    }

    /// Record a cache hit at `site`. Lifts any throttle (the site's
    /// specializations *are* being re-dispatched) and feeds the
    /// throttling heuristic. Called on the hit path only in adaptive
    /// mode; one atomic increment, no locks beyond the meter-table
    /// read lock.
    pub fn note_hit(&self, site: u32) {
        self.meter(site).hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a completed specialization at `site` costing `cycles`
    /// dynamic-compilation cycles — the input to the site's break-even
    /// threshold estimate.
    pub fn note_spec(&self, site: u32, cycles: u64) {
        let m = self.meter(site);
        m.specs.fetch_add(1, Ordering::Relaxed);
        m.spec_cycles.fetch_add(cycles, Ordering::Relaxed);
    }

    /// Decide a dispatch miss for the full cache key `[site, key
    /// bits...]`. `entry_site` exempts the site from throttling (entry
    /// sites must retain the eventually-specialized guarantee).
    pub fn on_miss(&self, key: &[u64], entry_site: bool) -> PolicyDecision {
        let site = key[0] as u32;
        let m = self.meter(site);
        let threshold = self.threshold(site);
        let mut g = self.counts.lock().unwrap();
        let st = g.entry(key.to_vec()).or_default();
        st.count = st.count.saturating_add(1);
        if st.promoted {
            // Already specialized once; the cache lost it (eviction or
            // invalidation) and the key came back — evidence the reuse
            // distance exceeds the site's bound.
            m.revived.fetch_add(1, Ordering::Relaxed);
            return PolicyDecision::Specialize { promoted: false };
        }
        if st.count < threshold {
            return PolicyDecision::Defer;
        }
        if !entry_site
            && m.specs.load(Ordering::Relaxed) >= self.params.throttle_probe
            && m.hits.load(Ordering::Relaxed) == 0
        {
            // Leave the key un-promoted: if the throttle ever lifts (a
            // hit arrives), its next miss specializes immediately.
            return PolicyDecision::Throttle;
        }
        st.promoted = true;
        PolicyDecision::Specialize {
            promoted: st.count > 1,
        }
    }

    /// Seed a warm-started `(site, key)` as already promoted, so a
    /// later miss (post-eviction) re-specializes immediately instead of
    /// deferring, and the restored entry never counts as a cold key.
    /// Restored entries deliberately do *not* count toward the site's
    /// specialization meters — they cost nothing this run and must not
    /// trip the throttle.
    pub fn seed_promoted(&self, key: Vec<u64>) {
        let threshold = self.threshold(key[0] as u32);
        self.counts.lock().unwrap().insert(
            key,
            KeyState {
                count: threshold,
                promoted: true,
            },
        );
    }

    /// Effective capacity for a bounded site declared `cache_all(k)`
    /// with `base_cap = k`: one extra slot per observed revival, capped
    /// at `k * cap_growth_limit`.
    pub fn cap_for(&self, site: u32, base_cap: usize) -> usize {
        let revived = self.meter(site).revived.load(Ordering::Relaxed) as usize;
        (base_cap + revived).min(base_cap.saturating_mul(self.params.cap_growth_limit.max(1)))
    }

    /// Dispatch count recorded for the full cache key (diagnostics and
    /// tests).
    pub fn count_of(&self, key: &[u64]) -> u32 {
        self.counts.lock().unwrap().get(key).map_or(0, |s| s.count)
    }

    /// True once the key has been approved for specialization.
    pub fn is_promoted(&self, key: &[u64]) -> bool {
        self.counts
            .lock()
            .unwrap()
            .get(key)
            .is_some_and(|s| s.promoted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(site: u64, k: u64) -> Vec<u64> {
        vec![site, k]
    }

    #[test]
    fn cold_key_defers_until_initial_threshold() {
        let e = PolicyEngine::new(PolicyParams::default());
        assert_eq!(e.on_miss(&key(0, 7), true), PolicyDecision::Defer);
        assert_eq!(
            e.on_miss(&key(0, 7), true),
            PolicyDecision::Specialize { promoted: true }
        );
        assert!(e.is_promoted(&key(0, 7)));
        // A different key at the same site starts cold.
        assert_eq!(e.on_miss(&key(0, 8), true), PolicyDecision::Defer);
    }

    #[test]
    fn threshold_one_specializes_immediately_without_promotion_flag() {
        let e = PolicyEngine::new(PolicyParams {
            initial_threshold: 1,
            ..PolicyParams::default()
        });
        assert_eq!(
            e.on_miss(&key(0, 7), true),
            PolicyDecision::Specialize { promoted: false }
        );
    }

    #[test]
    fn threshold_tracks_measured_spec_cost() {
        let e = PolicyEngine::new(PolicyParams::default());
        assert_eq!(e.threshold(3), 2); // cold start
        e.note_spec(3, 5_000);
        assert_eq!(e.threshold(3), 5); // ceil(5000 / 1000)
        e.note_spec(3, 1);
        assert_eq!(e.threshold(3), 3); // avg 2500 → ceil 3
        e.note_spec(3, 100_000);
        assert_eq!(e.threshold(3), 8); // clamped to max_threshold
    }

    #[test]
    fn promoted_key_missing_again_counts_a_revival_and_grows_cap() {
        let e = PolicyEngine::new(PolicyParams {
            initial_threshold: 1,
            ..PolicyParams::default()
        });
        assert_eq!(e.cap_for(0, 2), 2);
        e.on_miss(&key(0, 1), true); // promoted
        assert_eq!(
            e.on_miss(&key(0, 1), true),
            PolicyDecision::Specialize { promoted: false }
        );
        assert_eq!(e.cap_for(0, 2), 3);
        for _ in 0..100 {
            e.on_miss(&key(0, 1), true);
        }
        // Growth is bounded by base * cap_growth_limit.
        assert_eq!(e.cap_for(0, 2), 8);
    }

    #[test]
    fn internal_sites_throttle_without_reuse_and_recover_on_hit() {
        let p = PolicyParams {
            initial_threshold: 1,
            throttle_probe: 2,
            ..PolicyParams::default()
        };
        let e = PolicyEngine::new(p);
        // Two keys specialize; the site now has 2 specs, 0 hits.
        e.on_miss(&key(5, 1), false);
        e.note_spec(5, 100);
        e.on_miss(&key(5, 2), false);
        e.note_spec(5, 100);
        assert_eq!(e.on_miss(&key(5, 3), false), PolicyDecision::Throttle);
        // Throttled keys stay un-promoted.
        assert!(!e.is_promoted(&key(5, 3)));
        // A cache hit lifts the throttle; the held-back key specializes
        // on its next miss.
        e.note_hit(5);
        assert_eq!(
            e.on_miss(&key(5, 3), false),
            PolicyDecision::Specialize { promoted: true }
        );
        // Entry sites are never throttled.
        let e2 = PolicyEngine::new(p);
        e2.note_spec(0, 100);
        e2.note_spec(0, 100);
        assert_eq!(
            e2.on_miss(&key(0, 3), true),
            PolicyDecision::Specialize { promoted: false }
        );
    }

    #[test]
    fn seeded_keys_never_defer() {
        let e = PolicyEngine::new(PolicyParams::default());
        e.seed_promoted(key(0, 42));
        assert!(e.is_promoted(&key(0, 42)));
        // If the restored entry is later evicted, it re-specializes
        // immediately (a revival), never deferring.
        assert_eq!(
            e.on_miss(&key(0, 42), true),
            PolicyDecision::Specialize { promoted: false }
        );
    }

    #[test]
    fn counters_are_exact_under_contention() {
        let e = Arc::new(PolicyEngine::new(PolicyParams {
            initial_threshold: u32::MAX, // never promote: pure counting
            ..PolicyParams::default()
        }));
        let threads = 8;
        let per_thread = 500;
        let barrier = Arc::new(std::sync::Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let e = Arc::clone(&e);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..per_thread {
                        // All threads hammer one shared key, plus a
                        // thread-private key each.
                        e.on_miss(&[0, 9], true);
                        e.on_miss(&[0, 100 + t as u64], true);
                        e.note_hit((i % 3) as u32);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(e.count_of(&[0, 9]), (threads * per_thread) as u32);
        for t in 0..threads {
            assert_eq!(e.count_of(&[0, 100 + t as u64]), per_thread as u32);
        }
        let hits: u64 = (0..3)
            .map(|s| e.meter(s).hits.load(Ordering::Relaxed))
            .sum();
        assert_eq!(hits, (threads * per_thread) as u64);
    }
}
