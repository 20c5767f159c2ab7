//! Live telemetry: snapshot-while-running counters, an atomic mirror of
//! the latency histogram, and the cross-thread-readable flight-recorder
//! rings.
//!
//! The event ring ([`crate::Recorder`]) and the runtime's meters are
//! harvested *after* a run; a long-running server is a black box while
//! it serves. This module is the live complement: every serving thread
//! registers one cache-line-aligned [`LiveSlot`] of relaxed atomics in
//! a shared [`LiveRegistry`], and any other thread can take a coherent
//! [`LiveSnapshot`] at any time without stopping the workers.
//!
//! # Observer-effect-free obligations
//!
//! The live layer must never change what the runtime computes, which
//! code it emits, or which meters it charges:
//!
//! * Recording is relaxed `fetch_add` into preallocated padded slots —
//!   no locks, no allocation, no shared cache line between threads on
//!   the warm path. With no registry attached, every hook is a branch
//!   on a `None`.
//! * The registry is parallel to `RtStats`/`ConcStats`, never a
//!   replacement: the runtime's own meters are untouched, so the
//!   meter-balance identities hold bit-for-bit with or without
//!   sampling (enforced by the serving regression suite).
//! * Snapshots read counters the workers keep writing. Per-counter
//!   values are exact at some instant; *cross*-counter identities (for
//!   example `hits + misses == dispatches`) may be off by the handful
//!   of dispatches in flight during the read — statistically coherent,
//!   never torn. Final snapshots taken after workers quiesce are exact.

use crate::event::{Event, EventKind, ALL_KINDS};
use crate::hist::{bucket_index, LatencyHistogram, BUCKET_COUNT};
use crate::now_ns;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of live counters in a [`LiveSlot`].
pub const N_LIVE_METRICS: usize = 11;

/// The live counters every serving thread maintains. These mirror (a
/// subset of) the runtime's meters so windowed rates can be computed
/// without draining any ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum LiveMetric {
    /// Dispatches through any site (hits + misses).
    Dispatches,
    /// Dispatches served from the shared code cache.
    Hits,
    /// Dispatches that entered the miss path.
    Misses,
    /// Specializations published (single-flight winners).
    Specializations,
    /// Bounded-cache (`cache_all(k)`) evictions.
    Evictions,
    /// Single-flight waits behind another thread's specialization.
    FlightWaits,
    /// Single-flight generic-continuation fallbacks.
    FlightFallbacks,
    /// Misses that found the key already published when they reached
    /// the flight table (lost races).
    FlightRaces,
    /// Adaptive-policy deferrals to the generic continuation.
    PolicyDefers,
    /// Adaptive-policy promotions past the break-even threshold.
    PolicyPromotes,
    /// Adaptive-policy throttled internal-promotion misses.
    PolicyThrottles,
}

/// Every live metric, in [`LiveSlot`] index order.
pub const LIVE_METRICS: [LiveMetric; N_LIVE_METRICS] = [
    LiveMetric::Dispatches,
    LiveMetric::Hits,
    LiveMetric::Misses,
    LiveMetric::Specializations,
    LiveMetric::Evictions,
    LiveMetric::FlightWaits,
    LiveMetric::FlightFallbacks,
    LiveMetric::FlightRaces,
    LiveMetric::PolicyDefers,
    LiveMetric::PolicyPromotes,
    LiveMetric::PolicyThrottles,
];

impl LiveMetric {
    /// The metric's stable `snake_case` name (the Prometheus family is
    /// `dyc_live_<name>_total`).
    pub fn name(self) -> &'static str {
        match self {
            LiveMetric::Dispatches => "dispatches",
            LiveMetric::Hits => "hits",
            LiveMetric::Misses => "misses",
            LiveMetric::Specializations => "specializations",
            LiveMetric::Evictions => "evictions",
            LiveMetric::FlightWaits => "flight_waits",
            LiveMetric::FlightFallbacks => "flight_fallbacks",
            LiveMetric::FlightRaces => "flight_races",
            LiveMetric::PolicyDefers => "policy_defers",
            LiveMetric::PolicyPromotes => "policy_promotes",
            LiveMetric::PolicyThrottles => "policy_throttles",
        }
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

/// One thread's private live counters. Each slot is its own `Arc`
/// allocation and is aligned to 128 bytes, so no two threads' warm-path
/// counters ever share a cache line (no false sharing between workers;
/// the sampler's reads are the only cross-thread traffic).
#[derive(Debug)]
#[repr(align(128))]
pub struct LiveSlot {
    counters: [AtomicU64; N_LIVE_METRICS],
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
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            miss_ns: AtomicHistogram::new(),
        }
    }

    /// Add `n` to a counter (relaxed, allocation-free).
    #[inline]
    pub fn add(&self, m: LiveMetric, n: u64) {
        self.counters[m as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Record one miss-path wall-clock sample.
    #[inline]
    pub fn record_miss_ns(&self, ns: u64) {
        self.miss_ns.record(ns);
    }

    /// Current value of one counter.
    pub fn get(&self, m: LiveMetric) -> u64 {
        self.counters[m as usize].load(Ordering::Relaxed)
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
/// specialization costs. Worker threads register once (cold) and then
/// only touch their own slot; the sampler reads everything.
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

    /// Register one worker thread: allocates its padded slot (cold
    /// path; the returned `Arc` is the thread's private handle).
    pub fn register_thread(&self) -> Arc<LiveSlot> {
        let slot = Arc::new(LiveSlot::new());
        self.slots.write().unwrap().push(Arc::clone(&slot));
        slot
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

    /// Threads registered so far.
    pub fn n_threads(&self) -> usize {
        self.slots.read().unwrap().len()
    }

    /// A coherent point-in-time view while workers keep dispatching:
    /// counters summed across slots, the miss-path histogram merged,
    /// per-site specialization costs copied.
    pub fn snapshot(&self) -> LiveSnapshot {
        let slots = self.slots.read().unwrap();
        let mut counters = [0u64; N_LIVE_METRICS];
        let mut miss_ns = LatencyHistogram::new();
        for slot in slots.iter() {
            for (i, c) in counters.iter_mut().enumerate() {
                *c += slot.counters[i].load(Ordering::Relaxed);
            }
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
            counters,
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
    /// Cumulative counter values, indexed by [`LiveMetric`].
    pub counters: [u64; N_LIVE_METRICS],
    /// Cumulative miss-path latency histogram.
    pub miss_ns: LatencyHistogram,
    /// Per-site specialization costs (sites with at least one spec).
    pub sites: Vec<SiteCost>,
    /// Worker threads registered at snapshot time.
    pub threads: usize,
}

impl LiveSnapshot {
    /// One counter's value.
    pub fn get(&self, m: LiveMetric) -> u64 {
        self.counters[m as usize]
    }
}

/// Words one flight-ring slot occupies (one encoded [`Event`]).
const EVENT_WORDS: usize = 8;

/// A cross-thread-readable event ring: the flight recorder's per-thread
/// buffer. Unlike [`crate::Recorder`] (which is `&mut`-owned by its
/// thread and unreadable until the run ends), this ring is written with
/// relaxed atomic stores and a `Release` head bump, so the watchdog can
/// capture its tail mid-run.
///
/// Single writer per ring (its owning thread); any number of readers.
/// A reader racing the writer may observe a slot mid-overwrite (torn
/// between two events); such slots are detected by an out-of-range
/// kind index or skipped as a benign mixed payload — the capture is a
/// diagnostic tail, not an exact log, and tearing affects at most the
/// oldest slot of a full ring.
#[derive(Debug)]
pub struct FlightRing {
    slots: Box<[AtomicU64]>,
    head: AtomicU64,
    cap: usize,
    thread: u32,
}

fn kind_code(kind: EventKind) -> u64 {
    // O(|ALL_KINDS|) scan — miss-path-only, never on the warm path.
    ALL_KINDS.iter().position(|&k| k == kind).unwrap_or(0) as u64
}

impl FlightRing {
    fn new(cap: usize, thread: u32) -> FlightRing {
        let cap = cap.max(16);
        FlightRing {
            slots: (0..cap * EVENT_WORDS).map(|_| AtomicU64::new(0)).collect(),
            head: AtomicU64::new(0),
            cap,
            thread,
        }
    }

    /// Record one event: eight relaxed stores plus a `Release` head
    /// bump. Allocation-free; overwrites the oldest slot when full.
    #[inline]
    pub fn record(&self, kind: EventKind, site: u32, key: u64, cycle: u64, a: u64, b: u64) {
        let h = self.head.load(Ordering::Relaxed);
        let base = (h as usize % self.cap) * EVENT_WORDS;
        let s = &self.slots;
        s[base].store(kind_code(kind), Ordering::Relaxed);
        s[base + 1].store(u64::from(site), Ordering::Relaxed);
        s[base + 2].store(key, Ordering::Relaxed);
        s[base + 3].store(h, Ordering::Relaxed);
        s[base + 4].store(now_ns(), Ordering::Relaxed);
        s[base + 5].store(cycle, Ordering::Relaxed);
        s[base + 6].store(a, Ordering::Relaxed);
        s[base + 7].store(b, Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Release);
    }

    /// The resident tail, oldest first. Slots whose kind word is out of
    /// range (a torn read racing the writer) are skipped.
    pub fn tail(&self) -> Vec<Event> {
        let h = self.head.load(Ordering::Acquire);
        let n = (h as usize).min(self.cap);
        let mut out = Vec::with_capacity(n);
        for i in (h - n as u64)..h {
            let base = (i as usize % self.cap) * EVENT_WORDS;
            let s = &self.slots;
            let code = s[base].load(Ordering::Relaxed) as usize;
            let Some(&kind) = ALL_KINDS.get(code) else {
                continue;
            };
            out.push(Event {
                kind,
                site: s[base + 1].load(Ordering::Relaxed) as u32,
                thread: self.thread,
                key: s[base + 2].load(Ordering::Relaxed),
                seq: s[base + 3].load(Ordering::Relaxed),
                t_ns: s[base + 4].load(Ordering::Relaxed),
                cycle: s[base + 5].load(Ordering::Relaxed),
                a: s[base + 6].load(Ordering::Relaxed),
                b: s[base + 7].load(Ordering::Relaxed),
            });
        }
        out
    }

    /// Events ever recorded into this ring.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// The flight recorder: one [`FlightRing`] per registered thread,
/// capturable as a merged timeline at any moment. Only *miss-path*
/// events are ringed (dispatch misses, flight waits/fallbacks, GE-exec
/// spans, evictions, policy decisions, native installs) — hits are
/// metered in [`LiveSlot`] counters, so the warm path never touches
/// the ring.
#[derive(Debug)]
pub struct FlightRecorder {
    rings: RwLock<Vec<Arc<FlightRing>>>,
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
    pub fn register(&self, thread: u32) -> Arc<FlightRing> {
        let ring = Arc::new(FlightRing::new(self.cap, thread));
        self.rings.write().unwrap().push(Arc::clone(&ring));
        ring
    }

    /// Capture the tail of every thread's ring as one merged timeline
    /// (ordered by wall time, thread, sequence) — the incident dump's
    /// event stream.
    pub fn capture(&self) -> Vec<Event> {
        let rings = self.rings.read().unwrap();
        crate::recorder::merge(rings.iter().map(|r| r.tail()).collect())
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

    /// Wire up one worker thread: register its counter slot and (when
    /// the flight recorder is on) its event ring.
    pub fn thread(&self, tid: u32) -> LiveThread {
        LiveThread {
            slot: self.registry.register_thread(),
            registry: Arc::clone(&self.registry),
            ring: self.flight.as_ref().map(|f| f.register(tid)),
        }
    }
}

/// One worker thread's live-telemetry wiring: its private counter
/// slot, the registry (for per-site spec-cost attribution), and its
/// flight ring when the recorder is armed.
#[derive(Debug, Clone)]
pub struct LiveThread {
    /// The thread's private padded counter slot.
    pub slot: Arc<LiveSlot>,
    /// The shared registry ([`LiveRegistry::note_spec`] target).
    pub registry: Arc<LiveRegistry>,
    /// The thread's flight ring, if incident capture is armed.
    pub ring: Option<Arc<FlightRing>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn live_metric_names_are_unique_and_snake_case() {
        let mut names: Vec<&str> = LIVE_METRICS.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_LIVE_METRICS);
        for n in names {
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
                "{n} not snake_case"
            );
        }
        for (i, m) in LIVE_METRICS.iter().enumerate() {
            assert_eq!(*m as usize, i, "LIVE_METRICS out of declaration order");
        }
    }

    #[test]
    fn slots_do_not_share_cache_lines() {
        assert_eq!(std::mem::align_of::<LiveSlot>(), 128);
        assert!(std::mem::size_of::<LiveSlot>() >= 128);
    }

    #[test]
    fn registry_snapshot_sums_across_threads() {
        let reg = LiveRegistry::new();
        let a = reg.register_thread();
        let b = reg.register_thread();
        a.add(LiveMetric::Dispatches, 10);
        a.add(LiveMetric::Hits, 7);
        a.add(LiveMetric::Misses, 3);
        a.record_miss_ns(1_000);
        b.add(LiveMetric::Dispatches, 5);
        b.add(LiveMetric::Hits, 5);
        b.record_miss_ns(2_000);
        b.record_miss_ns(3_000);
        reg.note_spec(2, 700);
        reg.note_spec(2, 300);
        reg.note_spec(0, 50);
        let s = reg.snapshot();
        assert_eq!(s.threads, 2);
        assert_eq!(s.get(LiveMetric::Dispatches), 15);
        assert_eq!(s.get(LiveMetric::Hits), 12);
        assert_eq!(s.get(LiveMetric::Misses), 3);
        assert_eq!(s.miss_ns.count(), 3);
        assert_eq!(s.miss_ns.sum(), 6_000);
        assert_eq!(s.sites.len(), 2);
        assert_eq!((s.sites[0].site, s.sites[0].specs), (0, 1));
        assert_eq!((s.sites[1].site, s.sites[1].spec_cycles), (2, 1_000));
        assert!((s.sites[1].avg_spec_cycles() - 500.0).abs() < 1e-9);
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
    fn flight_ring_tail_keeps_the_newest_events_in_order() {
        let ring = FlightRing::new(16, 3);
        for i in 0..40u64 {
            ring.record(EventKind::DispatchMiss, i as u32, i, i * 10, i, 0);
        }
        let tail = ring.tail();
        assert_eq!(tail.len(), 16);
        assert_eq!(ring.recorded(), 40);
        for (j, e) in tail.iter().enumerate() {
            assert_eq!(e.seq, 24 + j as u64, "tail not the newest window");
            assert_eq!(e.site, 24 + j as u32);
            assert_eq!(e.thread, 3);
            assert_eq!(e.kind, EventKind::DispatchMiss);
        }
    }

    #[test]
    fn flight_ring_round_trips_every_kind() {
        let ring = FlightRing::new(64, 0);
        for (i, kind) in ALL_KINDS.into_iter().enumerate() {
            ring.record(kind, i as u32, i as u64, 0, 7, 9);
        }
        let tail = ring.tail();
        assert_eq!(tail.len(), ALL_KINDS.len());
        for (i, e) in tail.iter().enumerate() {
            assert_eq!(e.kind, ALL_KINDS[i]);
            assert_eq!((e.a, e.b), (7, 9));
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
