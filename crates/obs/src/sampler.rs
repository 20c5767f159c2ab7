//! The sampler thread: interval snapshots of a [`LiveRegistry`],
//! windowed deltas, and anomaly-triggered incident dumps.
//!
//! The sampler wakes every `interval`, takes a [`LiveRegistry`]
//! snapshot, and folds the delta against the previous snapshot into a
//! [`Window`]: throughput, hit rate, windowed miss-path percentiles,
//! evictions/waits/races per second, and per-site break-even drift.
//! Windows are retained in a bounded ring; an optional
//! [`Watchdog`] judges each one and, on
//! trigger, the sampler captures the flight recorder's tail as a Chrome
//! trace plus a JSON incident record (written to `incident_dir` when
//! set, always retained in memory).
//!
//! The sampler never touches the runtime — it reads the registry's
//! atomics, so stopping or crashing it cannot perturb a serving run
//! (the observer-effect-free obligation in [`crate::live`]).

use crate::anomaly::{Anomaly, Watchdog, WatchdogConfig};
use crate::chrome::chrome_trace;
use crate::event::EventKind;
use crate::hist::LatencyHistogram;
use crate::json::escape;
use crate::live::{Counts, FlightRecorder, LiveRegistry, LiveSnapshot};
use crate::prom::{render_metrics, Metric};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// One site's share of a [`Window`], plus its cumulative economics.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteWindow {
    /// The dispatch site id.
    pub site: u32,
    /// Specializations published during this window.
    pub specs: u64,
    /// Dynamic-compilation cycles charged during this window.
    pub spec_cycles: u64,
    /// Cumulative specializations at window end.
    pub cum_specs: u64,
    /// Cumulative mean spec cycles at window end — the watchdog's
    /// break-even-drift input.
    pub cum_avg_cycles: f64,
}

/// One completed sampler window: the delta between two consecutive
/// registry snapshots.
#[derive(Debug, Clone)]
pub struct Window {
    /// Monotone window index (0-based, counts all windows ever taken,
    /// including ones the bounded ring has since dropped).
    pub index: u64,
    /// Window start ([`crate::now_ns`] domain).
    pub t0_ns: u64,
    /// Window end.
    pub t1_ns: u64,
    /// Per-kind count deltas.
    pub counts: Counts,
    /// Miss-path latency of samples recorded during this window
    /// (bucket-diffed; the max is the cumulative max, see
    /// [`LatencyHistogram::diff`]).
    pub miss_ns: LatencyHistogram,
    /// Per-site activity (sites with any cumulative specs).
    pub sites: Vec<SiteWindow>,
}

impl Window {
    /// The delta window between two snapshots of the same registry.
    pub fn between(index: u64, prev: &LiveSnapshot, cur: &LiveSnapshot) -> Window {
        let sites = cur
            .sites
            .iter()
            .map(|s| {
                let before = prev.sites.iter().find(|p| p.site == s.site);
                SiteWindow {
                    site: s.site,
                    specs: s.specs.saturating_sub(before.map_or(0, |p| p.specs)),
                    spec_cycles: s
                        .spec_cycles
                        .saturating_sub(before.map_or(0, |p| p.spec_cycles)),
                    cum_specs: s.specs,
                    cum_avg_cycles: s.avg_spec_cycles(),
                }
            })
            .collect();
        Window {
            index,
            t0_ns: prev.t_ns,
            t1_ns: cur.t_ns,
            counts: cur.counts.diff(&prev.counts),
            miss_ns: cur.miss_ns.diff(&prev.miss_ns),
            sites,
        }
    }

    /// Window length in seconds.
    pub fn secs(&self) -> f64 {
        self.t1_ns.saturating_sub(self.t0_ns) as f64 / 1e9
    }

    /// `n` events over this window, per second (0 for a zero-length
    /// window).
    pub fn rate(&self, n: u64) -> f64 {
        let s = self.secs();
        if s > 0.0 {
            n as f64 / s
        } else {
            0.0
        }
    }

    /// Dispatches per second.
    pub fn throughput(&self) -> f64 {
        self.rate(self.counts.dispatches())
    }

    /// Hit rate over the window's dispatches (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let d = self.counts.dispatches();
        if d == 0 {
            0.0
        } else {
            self.counts.hits() as f64 / d as f64
        }
    }

    /// True if nothing moved during the window.
    pub fn is_idle(&self) -> bool {
        self.counts == Counts::default()
    }
}

/// Sampler configuration.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Snapshot interval.
    pub interval: Duration,
    /// Windows retained in the bounded ring.
    pub ring: usize,
    /// Arm the anomaly watchdog with these thresholds.
    pub watchdog: Option<WatchdogConfig>,
    /// Directory for incident dumps (`incident-<n>-<kind>.json` plus
    /// the Chrome trace). Incidents are always retained in memory;
    /// files are written only when this is set.
    pub incident_dir: Option<PathBuf>,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            interval: Duration::from_millis(250),
            ring: 240,
            watchdog: None,
            incident_dir: None,
        }
    }
}

/// The cumulative `dyc_live_<name>_total` families: name, HELP text and
/// value. Each is one kind's count, or a sum of the dispatch kinds.
pub(crate) fn live_families(c: &Counts) -> [(&'static str, &'static str, u64); 11] {
    use EventKind as K;
    [
        (
            "dispatches",
            "Dispatches served since start",
            c.dispatches(),
        ),
        ("hits", "Dispatches served from the code cache", c.hits()),
        (
            "misses",
            "Dispatches that took the miss path",
            c.get(K::DispatchMiss),
        ),
        (
            "specializations",
            "Specializations published",
            c.get(K::GeExecEnd),
        ),
        ("evictions", "Bounded-cache evictions", c.get(K::CacheEvict)),
        ("flight_waits", "Single-flight waits", c.get(K::FlightWait)),
        (
            "flight_fallbacks",
            "Single-flight generic fallbacks",
            c.get(K::FlightFallback),
        ),
        (
            "flight_races",
            "Single-flight lost races",
            c.get(K::FlightRace),
        ),
        (
            "policy_defers",
            "Adaptive-policy deferrals",
            c.get(K::PolicyDefer),
        ),
        (
            "policy_promotes",
            "Adaptive-policy promotions",
            c.get(K::PolicyPromote),
        ),
        (
            "policy_throttles",
            "Adaptive-policy throttled misses",
            c.get(K::PolicyThrottle),
        ),
    ]
}

/// One retained incident: the anomaly, its JSON record, and the Chrome
/// trace captured from the flight recorder at trigger time.
#[derive(Debug, Clone)]
pub struct IncidentRecord {
    /// The anomaly that fired.
    pub anomaly: Anomaly,
    /// The JSON incident record (kind, window, value, threshold,
    /// recent-window summary).
    pub record_json: String,
    /// The flight-recorder capture as Chrome `trace_event` JSON
    /// (empty-event trace when no flight recorder was attached).
    pub trace_json: String,
    /// Files written (empty when `incident_dir` was unset or a write
    /// failed; a failed dump never kills the sampler).
    pub paths: Vec<PathBuf>,
}

#[derive(Debug)]
struct Shared {
    registry: Arc<LiveRegistry>,
    flight: Option<Arc<FlightRecorder>>,
    ring: usize,
    incident_dir: Option<PathBuf>,
    windows: Mutex<VecDeque<Window>>,
    incidents: Mutex<Vec<IncidentRecord>>,
    total_windows: AtomicU64,
    stop: AtomicBool,
}

/// A cloneable read handle onto a running (or stopped) [`Sampler`]:
/// the live exposition endpoint and `dycstat watch` read through this.
#[derive(Debug, Clone)]
pub struct SamplerView(Arc<Shared>);

impl SamplerView {
    /// The retained windows, oldest first.
    pub fn windows(&self) -> Vec<Window> {
        self.0.windows.lock().unwrap().iter().cloned().collect()
    }

    /// The most recent completed window.
    pub fn latest(&self) -> Option<Window> {
        self.0.windows.lock().unwrap().back().cloned()
    }

    /// Windows ever completed (including ring-dropped ones).
    pub fn total_windows(&self) -> u64 {
        self.0.total_windows.load(Ordering::Relaxed)
    }

    /// All retained incidents, in firing order.
    pub fn incidents(&self) -> Vec<IncidentRecord> {
        self.0.incidents.lock().unwrap().clone()
    }

    /// The full live exposition in Prometheus text format: cumulative
    /// counters, latest-window gauges, per-site spec economics, and
    /// incident/window totals.
    pub fn prometheus(&self) -> String {
        let snap = self.0.registry.snapshot();
        let mut ms = Vec::new();
        for (name, help, v) in live_families(&snap.counts) {
            ms.push(Metric::counter(
                &format!("dyc_live_{name}_total"),
                help,
                &[],
                v as f64,
            ));
        }
        ms.push(Metric::gauge(
            "dyc_live_threads",
            "Worker threads registered with the live registry",
            &[],
            snap.threads as f64,
        ));
        ms.push(Metric::counter(
            "dyc_live_windows_total",
            "Sampler windows completed",
            &[],
            self.total_windows() as f64,
        ));
        ms.push(Metric::counter(
            "dyc_live_incidents_total",
            "Anomaly incidents fired",
            &[],
            self.0.incidents.lock().unwrap().len() as f64,
        ));
        if let Some(w) = self.latest() {
            let (p50, p95, p99, _) = w.miss_ns.quantiles();
            let g = |name: &str, help: &str, v: f64| Metric::gauge(name, help, &[], v);
            ms.push(g(
                "dyc_live_window_throughput",
                "Dispatches per second over the latest window",
                w.throughput(),
            ));
            ms.push(g(
                "dyc_live_window_hit_rate",
                "Cache hit rate over the latest window",
                w.hit_rate(),
            ));
            ms.push(g(
                "dyc_live_window_miss_p50_ns",
                "Windowed miss-path p50 latency (ns)",
                p50 as f64,
            ));
            ms.push(g(
                "dyc_live_window_miss_p95_ns",
                "Windowed miss-path p95 latency (ns)",
                p95 as f64,
            ));
            ms.push(g(
                "dyc_live_window_miss_p99_ns",
                "Windowed miss-path p99 latency (ns)",
                p99 as f64,
            ));
            ms.push(g(
                "dyc_live_window_evictions_per_s",
                "Evictions per second over the latest window",
                w.rate(w.counts.get(EventKind::CacheEvict)),
            ));
            ms.push(g(
                "dyc_live_window_waits_per_s",
                "Single-flight waits per second over the latest window",
                w.rate(w.counts.get(EventKind::FlightWait)),
            ));
            ms.push(g(
                "dyc_live_window_races_per_s",
                "Single-flight lost races per second over the latest window",
                w.rate(w.counts.get(EventKind::FlightRace)),
            ));
        }
        for s in &snap.sites {
            ms.push(Metric::gauge(
                "dyc_live_site_spec_cycles_avg",
                "Mean dynamic-compilation cycles per specialization at the site",
                &[("site", s.site.to_string())],
                s.avg_spec_cycles(),
            ));
        }
        render_metrics(&ms)
    }
}

/// The sampler: owns the background thread. Construct with
/// [`Sampler::spawn`], read through [`Sampler::view`], and call
/// [`Sampler::stop`] to join (which takes one final flush window so
/// even a run shorter than one interval yields a complete view).
#[derive(Debug)]
pub struct Sampler {
    shared: Arc<Shared>,
    handle: JoinHandle<()>,
}

impl Sampler {
    /// Start sampling `registry` (and capturing `flight` on anomaly)
    /// on a background thread.
    pub fn spawn(
        registry: Arc<LiveRegistry>,
        flight: Option<Arc<FlightRecorder>>,
        cfg: SamplerConfig,
    ) -> Sampler {
        let shared = Arc::new(Shared {
            registry,
            flight,
            ring: cfg.ring.max(1),
            incident_dir: cfg.incident_dir.clone(),
            windows: Mutex::new(VecDeque::new()),
            incidents: Mutex::new(Vec::new()),
            total_windows: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let runner = Arc::clone(&shared);
        let interval = cfg.interval;
        let mut watchdog = cfg.watchdog.map(Watchdog::new);
        // The baseline is taken here, before the thread exists: counts
        // written between `spawn` returning and the thread's first
        // scheduling then land in its first window instead of vanishing
        // into the baseline.
        let mut prev = shared.registry.snapshot();
        let handle = std::thread::Builder::new()
            .name("dyc-sampler".into())
            .spawn(move || loop {
                let stopping = sleep_watching_stop(&runner.stop, interval);
                tick(&runner, &mut prev, &mut watchdog, stopping);
                if stopping {
                    break;
                }
            })
            .expect("spawn sampler thread");
        Sampler { shared, handle }
    }

    /// A cloneable read handle (usable after `stop`, too).
    pub fn view(&self) -> SamplerView {
        SamplerView(Arc::clone(&self.shared))
    }

    /// Stop and join the sampler. The final flush window covers
    /// everything since the last tick, so short runs still produce at
    /// least one window. Returns the retained windows and incidents.
    pub fn stop(self) -> (Vec<Window>, Vec<IncidentRecord>) {
        self.shared.stop.store(true, Ordering::Release);
        self.handle.join().expect("sampler thread panicked");
        let view = SamplerView(self.shared);
        (view.windows(), view.incidents())
    }
}

/// Sleep for `interval` in short steps, returning early (true) when the
/// stop flag rises.
fn sleep_watching_stop(stop: &AtomicBool, interval: Duration) -> bool {
    let step = Duration::from_millis(5).min(interval);
    let mut left = interval;
    while !left.is_zero() {
        if stop.load(Ordering::Acquire) {
            return true;
        }
        let d = step.min(left);
        std::thread::sleep(d);
        left -= d;
    }
    stop.load(Ordering::Acquire)
}

/// Take one window and run it past the watchdog. On the final (stop)
/// tick an all-idle window is skipped, so quiescent shutdown doesn't
/// append an empty window.
fn tick(shared: &Shared, prev: &mut LiveSnapshot, watchdog: &mut Option<Watchdog>, flush: bool) {
    let cur = shared.registry.snapshot();
    let index = shared.total_windows.load(Ordering::Relaxed);
    let w = Window::between(index, prev, &cur);
    *prev = cur;
    if flush && w.is_idle() {
        return;
    }
    shared.total_windows.store(index + 1, Ordering::Relaxed);
    if let Some(wd) = watchdog {
        for anomaly in wd.observe(&w) {
            let incident = build_incident(shared, anomaly, &w);
            shared.incidents.lock().unwrap().push(incident);
        }
    }
    let mut ring = shared.windows.lock().unwrap();
    ring.push_back(w);
    while ring.len() > shared.ring {
        ring.pop_front();
    }
}

/// Capture the flight recorder and render the incident artifacts.
fn build_incident(shared: &Shared, anomaly: Anomaly, w: &Window) -> IncidentRecord {
    let events = shared
        .flight
        .as_ref()
        .map(|f| f.capture())
        .unwrap_or_default();
    let meta = [
        ("incident".to_string(), anomaly.kind.name().to_string()),
        ("window".to_string(), anomaly.window.to_string()),
    ];
    let trace_json = chrome_trace(&events, &meta);
    let mut rec = String::new();
    let _ = writeln!(rec, "{{");
    let _ = writeln!(rec, "  \"kind\": {},", escape(anomaly.kind.name()));
    let _ = writeln!(rec, "  \"window\": {},", anomaly.window);
    let _ = writeln!(rec, "  \"t_ns\": {},", anomaly.t_ns);
    let _ = writeln!(rec, "  \"value\": {},", anomaly.value);
    let _ = writeln!(rec, "  \"threshold\": {},", anomaly.threshold);
    let _ = writeln!(rec, "  \"detail\": {},", escape(&anomaly.detail));
    let _ = writeln!(rec, "  \"flight_events\": {},", events.len());
    let (p50, p95, p99, _) = w.miss_ns.quantiles();
    let _ = writeln!(
        rec,
        "  \"window_stats\": {{ \"dispatches\": {}, \"hit_rate\": {:.6}, \
         \"evictions\": {}, \"flight_waits\": {}, \"miss_p50_ns\": {}, \
         \"miss_p95_ns\": {}, \"miss_p99_ns\": {} }}",
        w.counts.dispatches(),
        w.hit_rate(),
        w.counts.get(EventKind::CacheEvict),
        w.counts.get(EventKind::FlightWait),
        p50,
        p95,
        p99,
    );
    let _ = writeln!(rec, "}}");
    let mut paths = Vec::new();
    if let Some(dir) = &shared.incident_dir {
        let n = shared.incidents.lock().unwrap().len();
        let stem = format!("incident-{n}-{}", anomaly.kind.name());
        let _ = std::fs::create_dir_all(dir);
        let record_path = dir.join(format!("{stem}.json"));
        let trace_path = dir.join(format!("{stem}.trace.json"));
        if std::fs::write(&record_path, &rec).is_ok() {
            paths.push(record_path);
        }
        if std::fs::write(&trace_path, &trace_json).is_ok() {
            paths.push(trace_path);
        }
    }
    IncidentRecord {
        anomaly,
        record_json: rec,
        trace_json,
        paths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::{LiveHandles, LiveSlot};
    use crate::ALL_KINDS;
    use EventKind as K;

    /// A fresh slot registered with `reg`.
    fn slot(reg: &LiveRegistry) -> Arc<LiveSlot> {
        let slot = Arc::new(LiveSlot::new());
        reg.register(&slot);
        slot
    }

    #[test]
    fn window_between_computes_deltas_and_rates() {
        let reg = LiveRegistry::new();
        let slot = slot(&reg);
        slot.add(K::DispatchHit, 90);
        slot.add(K::DispatchMiss, 10);
        slot.record_miss_ns(1_000);
        reg.note_spec(0, 800);
        let a = reg.snapshot();
        slot.add(K::DispatchHit, 50);
        reg.note_spec(0, 1_200);
        let b = reg.snapshot();
        let w = Window::between(3, &a, &b);
        assert_eq!(w.index, 3);
        assert_eq!(w.counts.dispatches(), 50);
        assert_eq!(w.counts.hits(), 50);
        assert_eq!(w.counts.get(K::DispatchMiss), 0);
        assert_eq!(w.hit_rate(), 1.0);
        assert_eq!(w.miss_ns.count(), 0);
        assert_eq!(w.sites.len(), 1);
        assert_eq!(w.sites[0].specs, 1);
        assert_eq!(w.sites[0].spec_cycles, 1_200);
        assert_eq!(w.sites[0].cum_specs, 2);
        assert!((w.sites[0].cum_avg_cycles - 1_000.0).abs() < 1e-9);
        assert!(!w.is_idle());
    }

    #[test]
    fn sampler_final_flush_covers_a_short_run() {
        let handles = LiveHandles::new();
        let sampler = Sampler::spawn(
            Arc::clone(&handles.registry),
            None,
            SamplerConfig {
                // Far longer than the test: only the flush window can
                // capture the activity.
                interval: Duration::from_secs(3600),
                ..SamplerConfig::default()
            },
        );
        slot(&handles.registry).add(K::DispatchHit, 10);
        let (windows, incidents) = sampler.stop();
        assert_eq!(windows.len(), 1, "flush window missing");
        assert_eq!(windows[0].counts.dispatches(), 10);
        assert!(incidents.is_empty());
    }

    #[test]
    fn quiescent_stop_skips_the_empty_flush_window() {
        let handles = LiveHandles::new();
        let sampler = Sampler::spawn(
            Arc::clone(&handles.registry),
            None,
            SamplerConfig {
                interval: Duration::from_secs(3600),
                ..SamplerConfig::default()
            },
        );
        let (windows, _) = sampler.stop();
        assert!(windows.is_empty());
    }

    #[test]
    fn window_ring_is_bounded_and_total_keeps_counting() {
        let handles = LiveHandles::new();
        let slot = slot(&handles.registry);
        let sampler = Sampler::spawn(
            Arc::clone(&handles.registry),
            None,
            SamplerConfig {
                interval: Duration::from_millis(1),
                ring: 4,
                ..SamplerConfig::default()
            },
        );
        // Keep the counters moving so windows are non-idle.
        for _ in 0..200 {
            slot.add(K::DispatchHit, 1);
            std::thread::sleep(Duration::from_millis(1));
        }
        let view = sampler.view();
        let (windows, _) = sampler.stop();
        assert!(windows.len() <= 4);
        assert!(view.total_windows() >= windows.len() as u64);
        // Ring order is oldest-first by index.
        for pair in windows.windows(2) {
            assert!(pair[0].index < pair[1].index);
        }
    }

    #[test]
    fn watchdog_trigger_dumps_an_incident_with_flight_capture() {
        let handles = LiveHandles::with_flight(256);
        let slot = Arc::new(LiveSlot::new());
        let live = handles.thread(0, &slot);
        let sampler = Sampler::spawn(
            Arc::clone(&handles.registry),
            handles.flight.clone(),
            SamplerConfig {
                interval: Duration::from_secs(3600),
                watchdog: Some(WatchdogConfig {
                    trigger_after: 1,
                    evict_min: 16,
                    evict_share: 0.25,
                    ..WatchdogConfig::default()
                }),
                ..SamplerConfig::default()
            },
        );
        // Simulate a storm: half the dispatches evict, with ring
        // events to capture.
        slot.add(K::DispatchHit, 50);
        slot.add(K::DispatchMiss, 50);
        slot.add(K::CacheEvict, 50);
        let ring = live.ring.as_ref().unwrap();
        for i in 0..20 {
            ring.record(K::CacheEvict, 0, i, 0, 0, 0);
        }
        let (windows, incidents) = sampler.stop();
        assert_eq!(windows.len(), 1);
        assert_eq!(incidents.len(), 1, "expected exactly one incident");
        let inc = &incidents[0];
        assert_eq!(inc.anomaly.kind, crate::anomaly::AnomalyKind::EvictionStorm);
        // Both artifacts parse with our own parsers.
        let trace = crate::parse_chrome_trace(&inc.trace_json).expect("trace parses");
        assert_eq!(trace.events.len(), 20);
        assert!(trace
            .meta
            .iter()
            .any(|(k, v)| k == "incident" && v == "eviction-storm"));
        let rec = crate::Json::parse(&inc.record_json).expect("record parses");
        assert_eq!(
            rec.get("kind").and_then(crate::Json::str),
            Some("eviction-storm")
        );
        assert!(rec.get("window_stats").is_some());
        assert!(inc.paths.is_empty(), "no incident_dir set");
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let handles = LiveHandles::new();
        let sampler = Sampler::spawn(
            Arc::clone(&handles.registry),
            None,
            SamplerConfig {
                interval: Duration::from_secs(3600),
                ..SamplerConfig::default()
            },
        );
        let slot = slot(&handles.registry);
        slot.add(K::DispatchHit, 40);
        slot.add(K::DispatchMiss, 2);
        slot.record_miss_ns(5_000);
        handles.registry.note_spec(1, 900);
        let view = sampler.view();
        let _ = sampler.stop();
        let text = view.prometheus();
        assert!(text.contains("# TYPE dyc_live_dispatches_total counter"));
        assert!(text.contains("dyc_live_dispatches_total 42"));
        assert!(text.contains("# TYPE dyc_live_window_throughput gauge"));
        assert!(text.contains("dyc_live_site_spec_cycles_avg{site=\"1\"} 900"));
        assert!(text.contains("dyc_live_windows_total 1"));
    }

    #[test]
    fn prometheus_renders_every_live_family_from_the_kind_counts() {
        let handles = LiveHandles::new();
        let slot = slot(&handles.registry);
        // Kind i counts i + 1, so every family's sum is distinct.
        for (i, k) in ALL_KINDS.into_iter().enumerate() {
            slot.add(k, i as u64 + 1);
        }
        let sampler = Sampler::spawn(
            Arc::clone(&handles.registry),
            None,
            SamplerConfig {
                interval: Duration::from_secs(3600),
                ..SamplerConfig::default()
            },
        );
        let view = sampler.view();
        let _ = sampler.stop();
        let text = view.prometheus();
        let families = [
            ("dispatches", "Dispatches served since start", 1 + 2 + 3 + 4),
            ("hits", "Dispatches served from the code cache", 1 + 3 + 4),
            ("misses", "Dispatches that took the miss path", 2),
            ("specializations", "Specializations published", 8),
            ("evictions", "Bounded-cache evictions", 11),
            ("flight_waits", "Single-flight waits", 5),
            ("flight_fallbacks", "Single-flight generic fallbacks", 6),
            ("flight_races", "Single-flight lost races", 20),
            ("policy_defers", "Adaptive-policy deferrals", 17),
            ("policy_promotes", "Adaptive-policy promotions", 18),
            ("policy_throttles", "Adaptive-policy throttled misses", 19),
        ];
        for (name, help, v) in families {
            let f = format!("dyc_live_{name}_total");
            let block = format!("# HELP {f} {help}\n# TYPE {f} counter\n{f} {v}\n");
            assert!(text.contains(&block), "{f} missing or wrong:\n{text}");
        }
        assert_eq!(text.matches("_total counter").count(), families.len() + 2);
    }
}
