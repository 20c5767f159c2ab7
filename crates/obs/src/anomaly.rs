//! The anomaly watchdog: rules over sampler windows with hysteresis.
//!
//! The watchdog looks at each completed [`Window`]
//! and decides whether the run has entered a pathological regime. Four
//! rules cover the failure modes the serving campaign (DESIGN.md §15)
//! actually hit:
//!
//! * **Eviction storm** — a bounded `cache_all(k)` whose bound is far
//!   below the live key set thrashes: evictions per window approach
//!   dispatches per window.
//! * **Flight convoy** — threads pile up behind single-flight
//!   specializations (the stampede pathology): waits dominate
//!   dispatches.
//! * **Break-even regression** — a site's mean specialization cost
//!   drifts far above its first-observed baseline, so the §4.2
//!   break-even point recedes mid-run.
//! * **Specialization-latency spike** — the windowed miss-path p99
//!   jumps an order of magnitude over the recent median.
//!
//! Thresholds are *ratios* (share of window dispatches, factor over
//! baseline), not absolute rates, so the rules behave identically on a
//! fast release box and a slow CI runner. Each rule is a latch with
//! hysteresis: it fires after `trigger_after` consecutive offending
//! windows, then stays latched (no re-fire) until `clear_after`
//! consecutive clean windows re-arm it — a sustained storm produces
//! exactly one incident, not one per window.

use crate::sampler::Window;
use crate::EventKind;
use std::collections::HashMap;
use std::collections::VecDeque;

/// The anomaly classes the watchdog detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyKind {
    /// Bounded-cache thrash: evictions ≈ dispatches in a window.
    EvictionStorm,
    /// Single-flight pile-up: waits dominate a window's dispatches.
    FlightConvoy,
    /// A site's mean specialization cost drifted far above its
    /// first-observed baseline.
    BreakEvenRegression,
    /// Windowed miss-path p99 spiked over the recent median.
    SpecLatencySpike,
}

/// Every anomaly kind, in declaration order.
pub const ALL_ANOMALIES: [AnomalyKind; 4] = [
    AnomalyKind::EvictionStorm,
    AnomalyKind::FlightConvoy,
    AnomalyKind::BreakEvenRegression,
    AnomalyKind::SpecLatencySpike,
];

impl AnomalyKind {
    /// The kind's stable kebab-case name (incident-file stem).
    pub fn name(self) -> &'static str {
        match self {
            AnomalyKind::EvictionStorm => "eviction-storm",
            AnomalyKind::FlightConvoy => "flight-convoy",
            AnomalyKind::BreakEvenRegression => "break-even-regression",
            AnomalyKind::SpecLatencySpike => "spec-latency-spike",
        }
    }
}

/// Watchdog thresholds. All ratio-based (wall-clock independent); a
/// rule can be disabled outright by setting its factor/share to
/// `f64::INFINITY`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Eviction storm: evictions ≥ this share of window dispatches…
    pub evict_share: f64,
    /// …and at least this many evictions (absolute floor, so idle
    /// windows can't trigger on noise).
    pub evict_min: u64,
    /// Flight convoy: waits ≥ this share of window dispatches…
    pub convoy_share: f64,
    /// …and at least this many waits.
    pub convoy_min: u64,
    /// Break-even regression: a site's cumulative mean spec cycles ≥
    /// this factor × its first-observed baseline.
    pub break_even_factor: f64,
    /// A site's baseline is recorded (and the rule evaluated) only once
    /// it has at least this many specializations.
    pub break_even_min_specs: u64,
    /// Latency spike: windowed miss p99 ≥ this factor × the median p99
    /// of recent windows.
    pub spike_factor: f64,
    /// The spike rule only looks at windows with at least this many
    /// misses (thin windows have meaningless p99s).
    pub spike_min_misses: u64,
    /// Prior p99 observations needed before the spike rule arms.
    pub spike_history: usize,
    /// Consecutive offending windows before a rule fires.
    pub trigger_after: usize,
    /// Consecutive clean windows before a latched rule re-arms.
    pub clear_after: usize,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            evict_share: 0.25,
            evict_min: 64,
            convoy_share: 0.5,
            convoy_min: 64,
            break_even_factor: 4.0,
            break_even_min_specs: 8,
            spike_factor: 16.0,
            spike_min_misses: 256,
            spike_history: 4,
            trigger_after: 2,
            clear_after: 2,
        }
    }
}

/// One fired anomaly: what, when, and how far over threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// Which rule fired.
    pub kind: AnomalyKind,
    /// Index of the window that completed the trigger streak.
    pub window: u64,
    /// End timestamp of that window ([`crate::now_ns`] domain).
    pub t_ns: u64,
    /// The measured value (share, factor, or p99 ratio).
    pub value: f64,
    /// The configured threshold it crossed.
    pub threshold: f64,
    /// Human-readable one-liner for the incident record.
    pub detail: String,
}

/// Per-rule latch state.
#[derive(Debug, Clone, Copy, Default)]
struct RuleState {
    /// Consecutive offending windows seen while armed.
    over: usize,
    /// Consecutive clean windows seen while latched.
    clean: usize,
    /// True after firing, until `clear_after` clean windows.
    latched: bool,
}

impl RuleState {
    /// Advance the latch with one window's verdict; returns true when
    /// the rule fires (transition into latched).
    fn step(&mut self, offending: bool, cfg: &WatchdogConfig) -> bool {
        if self.latched {
            if offending {
                self.clean = 0;
            } else {
                self.clean += 1;
                if self.clean >= cfg.clear_after {
                    *self = RuleState::default();
                }
            }
            return false;
        }
        if offending {
            self.over += 1;
            if self.over >= cfg.trigger_after {
                self.latched = true;
                self.clean = 0;
                return true;
            }
        } else {
            self.over = 0;
        }
        false
    }
}

/// The watchdog: feed it each completed window with [`Watchdog::observe`];
/// it returns the anomalies that fired on that window.
#[derive(Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    states: [RuleState; ALL_ANOMALIES.len()],
    /// First-observed mean spec cycles per site (the drift baseline).
    site_base: HashMap<u32, f64>,
    /// Recent windowed miss p99s (spike baseline; bounded).
    p99s: VecDeque<u64>,
}

impl Watchdog {
    /// A watchdog with the given thresholds, fully re-armed.
    pub fn new(cfg: WatchdogConfig) -> Watchdog {
        Watchdog {
            cfg,
            states: [RuleState::default(); ALL_ANOMALIES.len()],
            site_base: HashMap::new(),
            p99s: VecDeque::new(),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &WatchdogConfig {
        &self.cfg
    }

    /// Judge one completed window. Returns the anomalies fired by this
    /// window (empty for clean or already-latched regimes).
    pub fn observe(&mut self, w: &Window) -> Vec<Anomaly> {
        let cfg = self.cfg;
        let dispatches = w.counts.dispatches();
        let mut fired = Vec::new();
        let mut judge = |states: &mut [RuleState],
                         kind: AnomalyKind,
                         over: bool,
                         value: f64,
                         threshold: f64,
                         detail: String| {
            let idx = ALL_ANOMALIES.iter().position(|&k| k == kind).unwrap();
            if states[idx].step(over, &cfg) {
                fired.push(Anomaly {
                    kind,
                    window: w.index,
                    t_ns: w.t1_ns,
                    value,
                    threshold,
                    detail,
                });
            }
        };

        // Eviction storm.
        let evictions = w.counts.get(EventKind::CacheEvict);
        let evict_ratio = if dispatches == 0 {
            0.0
        } else {
            evictions as f64 / dispatches as f64
        };
        judge(
            &mut self.states,
            AnomalyKind::EvictionStorm,
            evictions >= cfg.evict_min && evict_ratio >= cfg.evict_share,
            evict_ratio,
            cfg.evict_share,
            format!("{evictions} evictions over {dispatches} dispatches in one window"),
        );

        // Flight convoy.
        let waits = w.counts.get(EventKind::FlightWait);
        let wait_ratio = if dispatches == 0 {
            0.0
        } else {
            waits as f64 / dispatches as f64
        };
        judge(
            &mut self.states,
            AnomalyKind::FlightConvoy,
            waits >= cfg.convoy_min && wait_ratio >= cfg.convoy_share,
            wait_ratio,
            cfg.convoy_share,
            format!("{waits} single-flight waits over {dispatches} dispatches in one window"),
        );

        // Break-even regression: worst drift factor across sites with
        // an established baseline.
        let mut worst: Option<(u32, f64)> = None;
        for s in &w.sites {
            if s.cum_specs < cfg.break_even_min_specs {
                continue;
            }
            let avg = s.cum_avg_cycles;
            let base = *self.site_base.entry(s.site).or_insert(avg);
            if base > 0.0 {
                let factor = avg / base;
                if worst.is_none_or(|(_, f)| factor > f) {
                    worst = Some((s.site, factor));
                }
            }
        }
        let (site, factor) = worst.unwrap_or((0, 0.0));
        judge(
            &mut self.states,
            AnomalyKind::BreakEvenRegression,
            factor >= cfg.break_even_factor,
            factor,
            cfg.break_even_factor,
            format!("site {site} mean spec cycles drifted {factor:.2}x over its baseline"),
        );

        // Specialization-latency spike: window p99 vs recent median.
        let misses = w.counts.get(EventKind::DispatchMiss);
        let p99 = w.miss_ns.percentile(99.0);
        let thick = misses >= cfg.spike_min_misses;
        let mut spike = false;
        let mut ratio = 0.0;
        if thick && self.p99s.len() >= cfg.spike_history {
            let mut hist: Vec<u64> = self.p99s.iter().copied().collect();
            hist.sort_unstable();
            let median = hist[hist.len() / 2];
            if median > 0 {
                ratio = p99 as f64 / median as f64;
                spike = ratio >= cfg.spike_factor;
            }
        }
        judge(
            &mut self.states,
            AnomalyKind::SpecLatencySpike,
            spike,
            ratio,
            cfg.spike_factor,
            format!("windowed miss p99 {p99} ns is {ratio:.1}x the recent median"),
        );
        if thick {
            self.p99s.push_back(p99);
            if self.p99s.len() > 64 {
                self.p99s.pop_front();
            }
        }

        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;
    use crate::live::Counts;
    use crate::sampler::SiteWindow;
    use EventKind as K;

    /// A synthetic window: only the fields a rule reads are populated.
    fn window(index: u64, fill: impl Fn(&mut Window)) -> Window {
        let mut w = Window {
            index,
            t0_ns: index * 1_000,
            t1_ns: (index + 1) * 1_000,
            counts: Counts::default(),
            miss_ns: LatencyHistogram::new(),
            sites: Vec::new(),
        };
        fill(&mut w);
        w
    }

    fn set(w: &mut Window, kind: EventKind, v: u64) {
        w.counts.0[kind as usize] = v;
    }

    #[test]
    fn eviction_storm_fires_once_and_rearms_after_clean_windows() {
        let mut wd = Watchdog::new(WatchdogConfig {
            trigger_after: 2,
            clear_after: 2,
            ..WatchdogConfig::default()
        });
        let stormy = |i| {
            window(i, |w| {
                set(w, K::DispatchHit, 1_000);
                set(w, K::CacheEvict, 600);
            })
        };
        let calm = |i| {
            window(i, |w| {
                set(w, K::DispatchHit, 1_000);
                set(w, K::CacheEvict, 1);
            })
        };
        // One offending window: not yet (trigger_after = 2).
        assert!(wd.observe(&stormy(0)).is_empty());
        // Second consecutive: fires exactly one EvictionStorm.
        let fired = wd.observe(&stormy(1));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AnomalyKind::EvictionStorm);
        assert_eq!(fired[0].window, 1);
        assert!(fired[0].value >= fired[0].threshold);
        // Sustained storm: latched, no re-fire.
        for i in 2..10 {
            assert!(wd.observe(&stormy(i)).is_empty(), "re-fired while latched");
        }
        // One clean window is not enough to re-arm…
        assert!(wd.observe(&calm(10)).is_empty());
        assert!(wd.observe(&stormy(11)).is_empty(), "re-armed too early");
        // …but clear_after consecutive clean windows are.
        assert!(wd.observe(&calm(12)).is_empty());
        assert!(wd.observe(&calm(13)).is_empty());
        assert!(wd.observe(&stormy(14)).is_empty()); // streak 1 of 2
        let again = wd.observe(&stormy(15));
        assert_eq!(again.len(), 1, "did not re-fire after re-arm");
    }

    #[test]
    fn storm_needs_the_absolute_floor_too() {
        let mut wd = Watchdog::new(WatchdogConfig {
            trigger_after: 1,
            ..WatchdogConfig::default()
        });
        // 50% share but only 8 evictions: under evict_min, no fire.
        let w = window(0, |w| {
            set(w, K::DispatchHit, 16);
            set(w, K::CacheEvict, 8);
        });
        assert!(wd.observe(&w).is_empty());
    }

    #[test]
    fn flight_convoy_fires_on_wait_share() {
        let mut wd = Watchdog::new(WatchdogConfig {
            trigger_after: 1,
            ..WatchdogConfig::default()
        });
        let w = window(0, |w| {
            set(w, K::DispatchHit, 1_000);
            set(w, K::FlightWait, 700);
        });
        let fired = wd.observe(&w);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AnomalyKind::FlightConvoy);
    }

    #[test]
    fn break_even_regression_tracks_drift_from_first_baseline() {
        let mut wd = Watchdog::new(WatchdogConfig {
            trigger_after: 1,
            break_even_min_specs: 4,
            break_even_factor: 4.0,
            ..WatchdogConfig::default()
        });
        let site = |specs: u64, avg: f64| SiteWindow {
            site: 7,
            specs: 1,
            spec_cycles: 0,
            cum_specs: specs,
            cum_avg_cycles: avg,
        };
        // Establishes the baseline (1000 cycles/spec): clean.
        let w0 = window(0, |w| w.sites.push(site(8, 1_000.0)));
        assert!(wd.observe(&w0).is_empty());
        // 2x drift: still clean.
        let w1 = window(1, |w| w.sites.push(site(16, 2_000.0)));
        assert!(wd.observe(&w1).is_empty());
        // 5x drift: fires.
        let w2 = window(2, |w| w.sites.push(site(32, 5_000.0)));
        let fired = wd.observe(&w2);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AnomalyKind::BreakEvenRegression);
        assert!((fired[0].value - 5.0).abs() < 1e-9);
    }

    #[test]
    fn below_min_specs_never_establishes_a_baseline() {
        let mut wd = Watchdog::new(WatchdogConfig {
            trigger_after: 1,
            break_even_min_specs: 8,
            ..WatchdogConfig::default()
        });
        let w = window(0, |w| {
            w.sites.push(SiteWindow {
                site: 1,
                specs: 2,
                spec_cycles: 0,
                cum_specs: 2,
                cum_avg_cycles: 1e9,
            })
        });
        assert!(wd.observe(&w).is_empty());
        assert!(wd.site_base.is_empty());
    }

    #[test]
    fn latency_spike_needs_history_and_thickness() {
        let mut wd = Watchdog::new(WatchdogConfig {
            trigger_after: 1,
            spike_history: 3,
            spike_min_misses: 100,
            spike_factor: 16.0,
            ..WatchdogConfig::default()
        });
        let with_p99 = |i: u64, misses: u64, lat: u64| {
            window(i, |w| {
                set(w, K::DispatchHit, misses);
                set(w, K::DispatchMiss, misses);
                for _ in 0..misses {
                    w.miss_ns.record(lat);
                }
            })
        };
        // Build 3 windows of ~1µs history.
        for i in 0..3 {
            assert!(wd.observe(&with_p99(i, 200, 1_000)).is_empty());
        }
        // A thin spike window is ignored (too few misses).
        assert!(wd.observe(&with_p99(3, 10, 1_000_000)).is_empty());
        // A thick 100x spike fires.
        let fired = wd.observe(&with_p99(4, 200, 100_000));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AnomalyKind::SpecLatencySpike);
        assert!(fired[0].value >= 16.0);
    }

    #[test]
    fn infinite_thresholds_disable_a_rule() {
        let mut wd = Watchdog::new(WatchdogConfig {
            trigger_after: 1,
            evict_share: f64::INFINITY,
            ..WatchdogConfig::default()
        });
        let w = window(0, |w| {
            set(w, K::DispatchHit, 100);
            set(w, K::CacheEvict, 100);
        });
        assert!(wd.observe(&w).is_empty());
    }

    #[test]
    fn anomaly_names_are_stable_kebab_case() {
        for k in ALL_ANOMALIES {
            assert!(k.name().chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }
}
