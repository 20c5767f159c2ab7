//! The event ring — one type for the per-thread trace and the flight
//! recorder — and the trace's zero-cost-when-off wrapper.

use crate::event::{Event, EventKind, ALL_KINDS};
use crate::now_ns;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default ring capacity: 65 536 events (4 MiB). Old events are
/// overwritten once the ring is full — a trace always holds the
/// *newest* window of the run.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Words one ring slot occupies (one encoded [`Event`]).
const EVENT_WORDS: usize = 8;

/// A fixed-capacity ring of events with one writer (its owning thread)
/// and any number of readers. Recording is lock-free and
/// allocation-free: the buffer is sized at construction and never grows;
/// when full, the oldest event is overwritten and counts as dropped.
///
/// A slot is eight relaxed atomic stores and the head a `Release` store,
/// so another thread can read the ring while its owner records — the
/// flight recorder's watchdog captures tails mid-run. A reader racing
/// the writer may observe a slot mid-overwrite (torn between two
/// events): a slot whose kind word is out of range is skipped, any other
/// is a benign mixed payload. A ring read by its owner (a trace) is
/// exact.
///
/// # Examples
///
/// ```
/// use dyc_obs::{EventKind, EventRing};
///
/// let r = EventRing::new(4, 0);
/// for site in 0..6u32 {
///     r.record(EventKind::DispatchHit, site, 0, 0, 0, 0);
/// }
/// // Capacity 4: the two oldest events were overwritten.
/// let ev = r.events();
/// assert_eq!(ev.len(), 4);
/// assert_eq!(r.dropped(), 2);
/// assert_eq!(ev[0].site, 2); // oldest surviving
/// assert_eq!(ev[3].site, 5); // newest
/// ```
#[derive(Debug)]
pub struct EventRing {
    slots: Box<[AtomicU64]>,
    /// Events ever recorded; the next one's sequence number.
    head: AtomicU64,
    cap: usize,
    thread: u32,
}

impl EventRing {
    /// A ring for `thread` holding at most `cap` events (minimum 1).
    pub fn new(cap: usize, thread: u32) -> EventRing {
        let cap = cap.max(1);
        EventRing {
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
        let s = &self.slots[base..base + EVENT_WORDS];
        s[0].store(kind as u64, Ordering::Relaxed);
        s[1].store(u64::from(site), Ordering::Relaxed);
        s[2].store(key, Ordering::Relaxed);
        s[3].store(h, Ordering::Relaxed);
        s[4].store(now_ns(), Ordering::Relaxed);
        s[5].store(cycle, Ordering::Relaxed);
        s[6].store(a, Ordering::Relaxed);
        s[7].store(b, Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Release);
    }

    /// The resident events, oldest first. Slots whose kind word is out
    /// of range (a torn read racing the writer) are skipped.
    pub fn events(&self) -> Vec<Event> {
        let h = self.head.load(Ordering::Acquire);
        let n = (h as usize).min(self.cap);
        let mut out = Vec::with_capacity(n);
        for i in (h - n as u64)..h {
            let base = (i as usize % self.cap) * EVENT_WORDS;
            let s = &self.slots[base..base + EVENT_WORDS];
            let w = |j: usize| s[j].load(Ordering::Relaxed);
            let Some(&kind) = ALL_KINDS.get(w(0) as usize) else {
                continue;
            };
            out.push(Event {
                kind,
                site: w(1) as u32,
                thread: self.thread,
                key: w(2),
                seq: w(3),
                t_ns: w(4),
                cycle: w(5),
                a: w(6),
                b: w(7),
            });
        }
        out
    }

    /// Total events ever recorded (resident + dropped).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.cap as u64)
    }
}

/// An optional [`EventRing`]: the runtime knob. When off (the default),
/// [`Trace::rec`] is a single branch on a `None` — no ring is allocated
/// at all, so tracing is zero-cost for untraced runs.
#[derive(Debug, Default)]
pub struct Trace(Option<Box<EventRing>>);

impl Trace {
    /// Tracing disabled (records nothing).
    pub fn off() -> Trace {
        Trace(None)
    }

    /// Tracing enabled for `thread` with [`DEFAULT_CAPACITY`].
    pub fn on(thread: u32) -> Trace {
        Trace::with_capacity(DEFAULT_CAPACITY, thread)
    }

    /// Tracing enabled with an explicit ring capacity.
    pub fn with_capacity(cap: usize, thread: u32) -> Trace {
        Trace(Some(Box::new(EventRing::new(cap, thread))))
    }

    /// True if events are being recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Record one event (no-op when off).
    #[inline]
    pub fn rec(&mut self, kind: EventKind, site: u32, key: u64, cycle: u64, a: u64, b: u64) {
        if let Some(r) = &self.0 {
            r.record(kind, site, key, cycle, a, b);
        }
    }

    /// The resident events, oldest first (empty when off).
    pub fn events(&self) -> Vec<Event> {
        self.0.as_deref().map(EventRing::events).unwrap_or_default()
    }

    /// Events lost to overwriting (0 when off).
    pub fn dropped(&self) -> u64 {
        self.0.as_deref().map_or(0, EventRing::dropped)
    }
}

/// Merge per-thread event streams into one timeline, ordered by
/// (wall time, thread, sequence) — the order the exporters and the
/// aggregation pass expect.
pub fn merge(streams: Vec<Vec<Event>>) -> Vec<Event> {
    let mut all: Vec<Event> = streams.into_iter().flatten().collect();
    all.sort_by_key(|e| (e.t_ns, e.thread, e.seq));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_keeps_the_newest_window_and_counts_drops() {
        let r = EventRing::new(8, 3);
        for i in 0..20u64 {
            r.record(EventKind::DispatchMiss, i as u32, i, i * 10, i, 0);
        }
        let ev = r.events();
        assert_eq!(ev.len(), 8);
        assert_eq!(r.dropped(), 12);
        assert_eq!(r.recorded(), 20);
        // The surviving window is exactly the last 8 records, in order.
        for (j, e) in ev.iter().enumerate() {
            assert_eq!(e.seq, 12 + j as u64);
            assert_eq!(e.site, 12 + j as u32);
            assert_eq!((e.key, e.cycle, e.a), (e.seq, e.seq * 10, e.seq));
            assert_eq!(e.thread, 3);
        }
    }

    #[test]
    fn seq_and_time_are_monotone() {
        let r = EventRing::new(64, 0);
        for i in 0..200u32 {
            r.record(EventKind::DispatchMiss, i, 0, u64::from(i), 0, 0);
        }
        let ev = r.events();
        for w in ev.windows(2) {
            assert!(w[1].seq == w[0].seq + 1, "seq strictly increasing");
            assert!(w[1].t_ns >= w[0].t_ns, "wall clock non-decreasing");
        }
    }

    #[test]
    fn partial_fill_reads_back_in_insertion_order() {
        let r = EventRing::new(16, 0);
        r.record(EventKind::GeExecBegin, 1, 0, 0, 0, 0);
        r.record(EventKind::GeExecEnd, 1, 0, 0, 9, 0);
        let ev = r.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].kind, EventKind::GeExecBegin);
        assert_eq!(ev[1].kind, EventKind::GeExecEnd);
        assert_eq!(ev[1].a, 9);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn every_kind_round_trips() {
        let r = EventRing::new(ALL_KINDS.len(), 0);
        for (i, kind) in ALL_KINDS.into_iter().enumerate() {
            r.record(kind, i as u32, i as u64, 0, 7, 9);
        }
        let ev = r.events();
        assert_eq!(ev.len(), ALL_KINDS.len());
        for (i, e) in ev.iter().enumerate() {
            assert_eq!(e.kind, ALL_KINDS[i]);
            assert_eq!((e.site, e.key, e.a, e.b), (i as u32, i as u64, 7, 9));
        }
    }

    #[test]
    fn a_trace_that_is_off_records_nothing() {
        let mut t = Trace::off();
        t.rec(EventKind::DispatchHit, 0, 0, 0, 0, 0);
        assert!(!t.is_on());
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
        let mut t = Trace::with_capacity(4, 7);
        t.rec(EventKind::CacheEvict, 2, 99, 0, 1, 0);
        assert!(t.is_on());
        let ev = t.events();
        assert_eq!(ev.len(), 1);
        assert_eq!((ev[0].thread, ev[0].key), (7, 99));
    }

    #[test]
    fn merge_orders_across_threads() {
        let a = EventRing::new(8, 0);
        let b = EventRing::new(8, 1);
        a.record(EventKind::DispatchHit, 0, 0, 0, 0, 0);
        b.record(EventKind::DispatchHit, 1, 0, 0, 0, 0);
        a.record(EventKind::DispatchHit, 2, 0, 0, 0, 0);
        let merged = merge(vec![a.events(), b.events()]);
        assert_eq!(merged.len(), 3);
        for w in merged.windows(2) {
            assert!((w[0].t_ns, w[0].thread, w[0].seq) <= (w[1].t_ns, w[1].thread, w[1].seq));
        }
    }
}
