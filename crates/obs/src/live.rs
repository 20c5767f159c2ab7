//! Live telemetry: per-kind event counts readable while workers run, an
//! atomic mirror of the latency histogram, and the flight recorder's
//! cross-thread-readable event rings.
//!
//! A trace ring ([`crate::Trace`]) is harvested *after* a run; a
//! long-running server is a black box while it serves. This module is
//! the live complement. Every thread of a shared runtime owns one
//! cache-line-aligned [`LiveSlot`]: one relaxed atomic per
//! [`EventKind`], bumped at every meter point. The runtime sums its
//! threads' slots for its own meters; a [`LiveRegistry`] holds the same
//! slots (possibly of several runtimes), so any other thread can take a
//! coherent [`LiveSnapshot`] at any time without stopping the workers.
//!
//! # Observer-effect-free obligations
//!
//! The live layer must never change what the runtime computes, which
//! code it emits, or which meters it charges:
//!
//! * Counting is a relaxed `fetch_add` into the thread's own padded
//!   slot — no locks, no allocation, no cache line shared between
//!   threads on the warm path — and happens whether or not a registry
//!   is attached. Attaching one only registers the slots and adds the
//!   per-site cost table and the flight ring; with none attached, those
//!   hooks are a branch on a `None`.
//! * The registry reads the counts the runtime keeps, never a copy of
//!   them: a sampled and an unsampled run write the same counters, so
//!   the meter-balance identities hold bit-for-bit with or without
//!   sampling (enforced by the serving regression suite).
//! * Snapshots read counters the workers keep writing. Per-counter
//!   values are exact at some instant; *cross*-counter identities (for
//!   example `hits + misses == dispatches`) may be off by the handful
//!   of dispatches in flight during the read — statistically coherent,
//!   never torn. Final snapshots taken after workers quiesce are exact.

use crate::event::{Event, EventKind, N_KINDS};
use crate::hist::{bucket_index, LatencyHistogram, BUCKET_COUNT};
use crate::now_ns;
use crate::recorder::EventRing;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Per-kind event counts, indexed by `kind as usize`: a [`LiveSlot`]'s
/// values, summed over slots or differenced between two snapshots.
/// Every live counter is one kind's count, except dispatches and hits,
/// which sum the dispatch kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts(pub [u64; N_KINDS]);

impl Counts {
    /// One kind's count.
    pub fn get(&self, kind: EventKind) -> u64 {
        self.0[kind as usize]
    }

    /// Dispatches served from cached code: the three hit kinds.
    pub fn hits(&self) -> u64 {
        use EventKind as K;
        self.get(K::DispatchHit) + self.get(K::DispatchUnchecked) + self.get(K::DispatchIndexed)
    }

    /// Dispatches: the hits plus [`EventKind::DispatchMiss`] (every
    /// dispatch notes exactly one of the four dispatch kinds).
    pub fn dispatches(&self) -> u64 {
        self.hits() + self.get(EventKind::DispatchMiss)
    }

    /// Add `other`'s counts, kind by kind.
    pub fn merge(&mut self, other: &Counts) {
        for (c, o) in self.0.iter_mut().zip(other.0) {
            *c += o;
        }
    }

    /// `self - prev`, kind by kind (saturating).
    pub fn diff(&self, prev: &Counts) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i].saturating_sub(prev.0[i])))
    }
}

/// An atomic mirror of [`LatencyHistogram`] sharing the same
/// log-linear bucket table ([`crate::hist::BUCKET_FLOORS`]), so a
/// sampler can read miss-path percentiles while workers keep
/// recording. Recording is one relaxed `fetch_add` per field — no
/// locks, no allocation.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram (one allocation, ~4 KB, never grows).
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Fold one sample in (relaxed; allocation-free).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy as a plain [`LatencyHistogram`]. The count
    /// is recomputed from the bucket reads, so `count == Σ buckets`
    /// holds exactly even while workers record concurrently; sum and
    /// max are read separately and may trail the buckets by the few
    /// samples in flight (documented as statistically coherent).
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut buckets = Box::new([0u64; BUCKET_COUNT]);
        for (d, s) in buckets.iter_mut().zip(self.buckets.iter()) {
            *d = s.load(Ordering::Relaxed);
        }
        LatencyHistogram::from_parts(
            buckets,
            self.sum.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }
}

/// One thread's event counts: a relaxed atomic per [`EventKind`],
/// indexed by `kind as usize`, plus the miss-path latency histogram.
/// Each slot is its own `Arc` allocation aligned to 128 bytes, so no two
/// threads' warm-path counters ever share a cache line (the sampler's
/// reads are the only cross-thread traffic).
#[derive(Debug)]
#[repr(align(128))]
pub struct LiveSlot {
    counts: [AtomicU64; N_KINDS],
    miss_ns: AtomicHistogram,
}

impl Default for LiveSlot {
    fn default() -> LiveSlot {
        LiveSlot::new()
    }
}

impl LiveSlot {
    /// A zeroed slot.
    pub fn new() -> LiveSlot {
        LiveSlot {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            miss_ns: AtomicHistogram::new(),
        }
    }

    /// Add `n` to `kind`'s count (relaxed, allocation-free).
    #[inline]
    pub fn add(&self, kind: EventKind, n: u64) {
        self.counts[kind as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Record one miss-path wall-clock sample.
    #[inline]
    pub fn record_miss_ns(&self, ns: u64) {
        self.miss_ns.record(ns);
    }

    /// Current counts of every kind.
    pub fn counts(&self) -> Counts {
        Counts(std::array::from_fn(|i| {
            self.counts[i].load(Ordering::Relaxed)
        }))
    }
}

/// Per-site specialization-cost accumulators — the break-even drift
/// input. Updated only on the (cold) specialization path.
#[derive(Debug, Default)]
struct SiteLive {
    specs: AtomicU64,
    spec_cycles: AtomicU64,
}

/// One site's cumulative specialization economics in a
/// [`LiveSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteCost {
    /// The dispatch site id.
    pub site: u32,
    /// Specializations charged to the site so far.
    pub specs: u64,
    /// Dynamic-compilation model cycles those specializations cost.
    pub spec_cycles: u64,
}

impl SiteCost {
    /// Mean dynamic-compilation cycles per specialization (0 when the
    /// site has none) — the quantity whose drift the watchdog's
    /// break-even rule tracks.
    pub fn avg_spec_cycles(&self) -> f64 {
        if self.specs == 0 {
            0.0
        } else {
            self.spec_cycles as f64 / self.specs as f64
        }
    }
}

/// The shared registry of per-thread [`LiveSlot`]s and per-site
/// specialization costs. Worker threads register their slot once (cold)
/// and then only touch it; the sampler reads everything.
#[derive(Debug, Default)]
pub struct LiveRegistry {
    slots: RwLock<Vec<Arc<LiveSlot>>>,
    sites: RwLock<Vec<Arc<SiteLive>>>,
}

impl LiveRegistry {
    /// An empty registry.
    pub fn new() -> LiveRegistry {
        LiveRegistry::default()
    }

    /// Register one worker thread's slot (cold path). The registry
    /// reads it; the thread keeps writing it.
    pub fn register(&self, slot: &Arc<LiveSlot>) {
        self.slots
            .write()
            .expect("slot list poisoned")
            .push(Arc::clone(slot));
    }

    /// Charge one specialization's dynamic-compilation cycles to a
    /// site (cold path — runs once per published specialization).
    pub fn note_spec(&self, site: u32, cycles: u64) {
        let idx = site as usize;
        {
            let sites = self.sites.read().unwrap();
            if let Some(s) = sites.get(idx) {
                s.specs.fetch_add(1, Ordering::Relaxed);
                s.spec_cycles.fetch_add(cycles, Ordering::Relaxed);
                return;
            }
        }
        let mut sites = self.sites.write().unwrap();
        while sites.len() <= idx {
            sites.push(Arc::new(SiteLive::default()));
        }
        sites[idx].specs.fetch_add(1, Ordering::Relaxed);
        sites[idx].spec_cycles.fetch_add(cycles, Ordering::Relaxed);
    }

    /// A coherent point-in-time view while workers keep dispatching:
    /// counters summed across slots, the miss-path histogram merged,
    /// per-site specialization costs copied.
    pub fn snapshot(&self) -> LiveSnapshot {
        let slots = self.slots.read().unwrap();
        let mut counts = Counts::default();
        let mut miss_ns = LatencyHistogram::new();
        for slot in slots.iter() {
            counts.merge(&slot.counts());
            miss_ns.merge(&slot.miss_ns.snapshot());
        }
        let threads = slots.len();
        drop(slots);
        let sites = self
            .sites
            .read()
            .unwrap()
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let specs = s.specs.load(Ordering::Relaxed);
                (specs > 0).then(|| SiteCost {
                    site: i as u32,
                    specs,
                    spec_cycles: s.spec_cycles.load(Ordering::Relaxed),
                })
            })
            .collect();
        LiveSnapshot {
            t_ns: now_ns(),
            counts,
            miss_ns,
            sites,
            threads,
        }
    }
}

/// A point-in-time view of a [`LiveRegistry`].
#[derive(Debug, Clone)]
pub struct LiveSnapshot {
    /// When the snapshot was taken ([`crate::now_ns`]).
    pub t_ns: u64,
    /// Cumulative counts, summed over the registered slots.
    pub counts: Counts,
    /// Cumulative miss-path latency histogram.
    pub miss_ns: LatencyHistogram,
    /// Per-site specialization costs (sites with at least one spec).
    pub sites: Vec<SiteCost>,
    /// Worker threads registered at snapshot time.
    pub threads: usize,
}

/// The flight recorder: one [`EventRing`] per registered thread,
/// capturable as a merged timeline at any moment. Only *miss-path*
/// events are ringed ([`EventKind::ringed`]: dispatch misses, flight
/// waits/fallbacks, GE-exec spans, evictions, policy decisions, native
/// installs) — hits are only counted in the thread's [`LiveSlot`], so
/// the warm path never touches the ring.
#[derive(Debug)]
pub struct FlightRecorder {
    rings: RwLock<Vec<Arc<EventRing>>>,
    cap: usize,
}

impl FlightRecorder {
    /// A recorder whose per-thread rings hold `cap` events each
    /// (minimum 16).
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            rings: RwLock::new(Vec::new()),
            cap,
        }
    }

    /// Register one thread's ring (cold path).
    pub fn register(&self, thread: u32) -> Arc<EventRing> {
        let ring = Arc::new(EventRing::new(self.cap.max(16), thread));
        self.rings.write().unwrap().push(Arc::clone(&ring));
        ring
    }

    /// Capture the tail of every thread's ring as one merged timeline
    /// (ordered by wall time, thread, sequence) — the incident dump's
    /// event stream.
    pub fn capture(&self) -> Vec<Event> {
        let rings = self.rings.read().unwrap();
        crate::recorder::merge(rings.iter().map(|r| r.events()).collect())
    }
}

/// Everything a runtime needs to feed the live layer: the counter
/// registry plus (optionally) the flight recorder. `Clone` is shallow —
/// clones share the same registry — so the handles can be passed to a
/// runtime (`SharedRuntime::attach_live`) while the sampler keeps its
/// own copy.
#[derive(Debug, Clone, Default)]
pub struct LiveHandles {
    /// The shared counter/histogram registry.
    pub registry: Arc<LiveRegistry>,
    /// The flight recorder, when incident capture is wanted.
    pub flight: Option<Arc<FlightRecorder>>,
}

impl LiveHandles {
    /// Counters only (no flight recorder).
    pub fn new() -> LiveHandles {
        LiveHandles::default()
    }

    /// Counters plus a flight recorder with `cap`-event rings.
    pub fn with_flight(cap: usize) -> LiveHandles {
        LiveHandles {
            registry: Arc::new(LiveRegistry::new()),
            flight: Some(Arc::new(FlightRecorder::new(cap))),
        }
    }

    /// Wire up one worker thread: register its slot — the counts its
    /// runtime already keeps — and (when the flight recorder is on) its
    /// event ring.
    pub fn thread(&self, tid: u32, slot: &Arc<LiveSlot>) -> LiveThread {
        self.registry.register(slot);
        LiveThread {
            registry: Arc::clone(&self.registry),
            ring: self.flight.as_ref().map(|f| f.register(tid)),
        }
    }
}

/// One worker thread's live wiring beyond its counts: the registry (for
/// per-site spec-cost attribution) and its flight ring when the
/// recorder is armed.
#[derive(Debug, Clone)]
pub struct LiveThread {
    /// The shared registry ([`LiveRegistry::note_spec`] target).
    pub registry: Arc<LiveRegistry>,
    /// The thread's flight ring, if incident capture is armed.
    pub ring: Option<Arc<EventRing>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ALL_KINDS;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn per_kind_arrays_hold_every_kind() {
        assert_eq!(Counts::default().0.len(), ALL_KINDS.len());
        let slot = LiveSlot::new();
        for (i, k) in ALL_KINDS.into_iter().enumerate() {
            slot.add(k, i as u64 + 1);
        }
        let c = slot.counts();
        for (i, k) in ALL_KINDS.into_iter().enumerate() {
            assert_eq!(c.get(k), i as u64 + 1, "{k:?}");
        }
        // Hits are the three hit kinds; dispatches add the misses.
        assert_eq!(c.hits(), 1 + 3 + 4);
        assert_eq!(c.dispatches(), 1 + 2 + 3 + 4);
    }

    #[test]
    fn slots_do_not_share_cache_lines() {
        assert_eq!(std::mem::align_of::<LiveSlot>(), 128);
        assert!(std::mem::size_of::<LiveSlot>() >= 128);
    }

    #[test]
    fn registry_snapshot_sums_across_threads() {
        let reg = LiveRegistry::new();
        let (a, b) = (Arc::new(LiveSlot::new()), Arc::new(LiveSlot::new()));
        reg.register(&a);
        reg.register(&b);
        a.add(EventKind::DispatchHit, 7);
        a.add(EventKind::DispatchMiss, 3);
        a.record_miss_ns(1_000);
        b.add(EventKind::DispatchUnchecked, 5);
        b.record_miss_ns(2_000);
        b.record_miss_ns(3_000);
        reg.note_spec(2, 700);
        reg.note_spec(2, 300);
        reg.note_spec(0, 50);
        let s = reg.snapshot();
        assert_eq!(s.threads, 2);
        assert_eq!(s.counts.dispatches(), 15);
        assert_eq!(s.counts.hits(), 12);
        assert_eq!(s.counts.get(EventKind::DispatchMiss), 3);
        assert_eq!(s.miss_ns.count(), 3);
        assert_eq!(s.miss_ns.sum(), 6_000);
        assert_eq!(s.sites.len(), 2);
        assert_eq!((s.sites[0].site, s.sites[0].specs), (0, 1));
        assert_eq!((s.sites[1].site, s.sites[1].spec_cycles), (2, 1_000));
        assert!((s.sites[1].avg_spec_cycles() - 500.0).abs() < 1e-9);
        // Differencing two snapshots is per kind.
        a.add(EventKind::DispatchHit, 2);
        let d = reg.snapshot().counts.diff(&s.counts);
        assert_eq!((d.dispatches(), d.hits()), (2, 2));
    }

    #[test]
    fn atomic_histogram_snapshot_matches_mutable_recording() {
        let ah = AtomicHistogram::new();
        let mut h = LatencyHistogram::new();
        for v in [0u64, 5, 90, 1_234, 999_999] {
            ah.record(v);
            h.record(v);
        }
        let snap = ah.snapshot();
        assert_eq!(snap.count(), h.count());
        assert_eq!(snap.sum(), h.sum());
        assert_eq!(snap.max(), h.max());
        for p in [50.0, 95.0, 99.0] {
            assert_eq!(snap.percentile(p), h.percentile(p));
        }
    }

    #[test]
    fn recorder_capture_merges_rings_while_writers_run() {
        let rec = Arc::new(FlightRecorder::new(1024));
        let stop = Arc::new(AtomicBool::new(false));
        // Each writer records once and then meets the main thread here,
        // so both rings are non-empty before any capture, however the
        // threads are scheduled.
        let started = Arc::new(std::sync::Barrier::new(3));
        let writers: Vec<_> = (0..2u32)
            .map(|t| {
                let ring = rec.register(t);
                let stop = Arc::clone(&stop);
                let started = Arc::clone(&started);
                std::thread::spawn(move || {
                    ring.record(EventKind::CacheEvict, 1, 0, 0, 0, 0);
                    let mut n = 1u64;
                    started.wait();
                    while !stop.load(Ordering::Relaxed) {
                        ring.record(EventKind::CacheEvict, 1, n, 0, 0, 0);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        started.wait();
        // Capture repeatedly mid-run: every capture must be readable
        // and time-ordered (torn slots skipped, not crashed on).
        for _ in 0..50 {
            let events = rec.capture();
            for w in events.windows(2) {
                assert!(w[0].t_ns <= w[1].t_ns, "capture not time-ordered");
            }
        }
        stop.store(true, Ordering::Relaxed);
        let counts: Vec<u64> = writers.into_iter().map(|w| w.join().unwrap()).collect();
        assert!(counts.iter().all(|&n| n > 0));
        // Quiesced capture is exact: the resident tail of each ring.
        let quiesced = rec.capture();
        let expect: usize = counts.iter().map(|&n| (n as usize).min(1024)).sum();
        assert_eq!(quiesced.len(), expect);
    }
}
