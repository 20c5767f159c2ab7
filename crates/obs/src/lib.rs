//! # dyc-obs — staged-pipeline observability
//!
//! The paper's whole evaluation (Tables 2–5, the §4.2 break-even
//! analysis, the §4.4.3 dispatch costs) is an observability exercise
//! over the staged pipeline. This crate is the lens: a low-overhead,
//! cycle-stamped event-tracing layer the run-time system records into,
//! plus everything needed to turn a recorded run back into paper-style
//! numbers.
//!
//! * [`Event`]/[`EventKind`] — the typed events the runtime records:
//!   dispatch hit/miss/unchecked/indexed, single-flight wait/fallback,
//!   GE-exec begin/end, template copy + hole patch, cache
//!   eviction/invalidation, internal promotion. Each is tagged with
//!   (site, key hash, thread, wall nanos, model-cycle stamp).
//! * [`EventRing`]/[`Trace`] — a fixed-capacity event ring with one
//!   writer, readable from other threads while it records: the
//!   per-thread trace (a no-op, one branch on a `None`, when off) and
//!   the flight recorder's rings. No locks and no heap allocation on the
//!   record path.
//! * [`SiteProfile`]/[`site_profiles`] — the aggregation pass: per-site
//!   specializations, cached variants, cumulative dyncomp/dispatch
//!   cycles, probe rates, and the §4.2 break-even estimate
//!   (dyncomp cycles ÷ cycles saved per use).
//! * [`LatencyHistogram`] — a fixed-footprint log-linear histogram for
//!   whole-run tail latency (p50/p95/p99) where the ring would have
//!   dropped all but the newest window; [`miss_latency`] rebuilds one
//!   from a recorded event stream.
//! * [`chrome_trace`]/[`parse_chrome_trace`] — Chrome `trace_event`
//!   JSON, loadable in `chrome://tracing` or Perfetto, with enough
//!   metadata embedded to rebuild the profiles from the file alone.
//! * [`render_metrics`] — Prometheus-style text exposition of any set
//!   of named meters.
//! * [`LiveSlot`]/[`LiveRegistry`]/[`Sampler`]/[`Watchdog`] — the
//!   live-telemetry layer: each runtime thread's per-kind event
//!   [`Counts`] (one relaxed atomic per [`EventKind`], the counts the
//!   runtime's own meters are summed from) and miss-latency histogram,
//!   a registry that snapshots them while workers keep dispatching, a
//!   sampler thread folding snapshots into a bounded ring of windowed
//!   deltas, and an anomaly watchdog that dumps the flight recorder
//!   (every thread's event-ring tail) as a Chrome trace + JSON incident
//!   on trigger.
//!
//! The crate is dependency-free in both directions (it depends on
//! nothing and knows nothing about the runtime), so `dyc-rt` can record
//! into it and `dyc-bench`'s `dycstat` can report from it without a
//! cycle.

#![deny(missing_docs)]

pub mod anomaly;
pub mod chrome;
pub mod event;
pub mod hist;
pub mod json;
pub mod live;
pub mod profile;
pub mod prom;
pub mod recorder;
pub mod sampler;

pub use anomaly::{Anomaly, AnomalyKind, Watchdog, WatchdogConfig, ALL_ANOMALIES};
pub use chrome::{chrome_trace, parse_chrome_trace, ChromeTrace};
pub use event::{Category, Event, EventKind, ALL_KINDS, N_KINDS};
pub use hist::LatencyHistogram;
pub use json::Json;
pub use live::{
    AtomicHistogram, Counts, FlightRecorder, LiveHandles, LiveRegistry, LiveSlot, LiveSnapshot,
    LiveThread, SiteCost,
};
pub use profile::{contention, miss_latency, site_profiles, SiteProfile, ThreadLoad};
pub use prom::{render_metrics, Metric, MetricKind};
pub use recorder::{merge, EventRing, Trace, DEFAULT_CAPACITY};
pub use sampler::{IncidentRecord, Sampler, SamplerConfig, SamplerView, SiteWindow, Window};

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Wall-clock nanoseconds since the process's trace epoch (the first
/// call wins the race to define time zero). All threads share the
/// epoch, so cross-thread timelines line up in the Chrome trace.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// FNV-1a over the key words — the key *hash* recorded on events, so a
/// trace never contains raw key values, only stable 64-bit identities.
/// The empty key hashes to the FNV offset basis (the identity recorded
/// by `cache_one_unchecked` dispatches, which never build a key).
pub fn key_hash(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        h ^= *w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }

    #[test]
    fn key_hash_is_stable_and_discriminates() {
        assert_eq!(key_hash(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(key_hash(&[1, 2]), key_hash(&[1, 2]));
        assert_ne!(key_hash(&[1, 2]), key_hash(&[2, 1]));
    }
}
