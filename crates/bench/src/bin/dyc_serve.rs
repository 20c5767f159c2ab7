//! `dyc_serve` — traffic-scale serving replay.
//!
//! Replays deterministic zipfian / churn / flash-crowd / stampede key
//! streams against one shared concurrent runtime and reports
//! throughput, miss-path tail latency (p50/p95/p99), single-flight
//! traffic, per-shard probe contention, and (optionally) the eviction
//! hit-rate curve vs `cache_all(k)`. Every dispatch result is validated
//! against the closed-form oracle and every run is meter-balance
//! checked, so a replay that prints a report is also a passed
//! correctness check.
//!
//! ```text
//! cargo run --release -p dyc-bench --bin dyc_serve -- \
//!     --dispatches 1000000 --threads 16 --seed 42 --out serving.json
//! ```
//!
//! Flags (all optional):
//!
//! * `--dispatches N` — total dispatches per pattern (default 1_000_000)
//! * `--threads N` — serving threads (default 16)
//! * `--seed S` — stream seed (default 42)
//! * `--patterns a,b` — subset of `zipfian,churn,flash_crowd,stampede`
//! * `--miss-policy block|fallback` — racer behavior (default block)
//! * `--bound K` — compile `cache_all(K)` instead of unbounded
//! * `--curve k1,k2,...` — also replay the churn stream at each bound
//!   (0 = unbounded) and report the hit-rate curve
//! * `--curve-dispatches N` — dispatch budget per curve point
//!   (default 200_000)
//! * `--zipf-s F` / `--keys N` — zipfian shape
//! * `--out FILE` — also write the `serving` JSON section to FILE
//!
//! Live telemetry (all optional; any of these attaches the sampler):
//!
//! * `--live ADDR` — serve the Prometheus scrape at ADDR (e.g.
//!   `127.0.0.1:9184`; port 0 auto-picks) while the replay runs; pair
//!   with `dycstat watch ADDR`
//! * `--sample-ms N` — sampler window interval (default 250)
//! * `--watchdog` — arm the anomaly watchdog (default thresholds) with
//!   a flight recorder behind it
//! * `--incident-dir DIR` — write anomaly incident dumps (JSON record +
//!   Chrome trace) to DIR
//!
//! The sampler is observer-effect-free: a sampled replay publishes
//! byte-identical code and balances the same meters as an unsampled
//! one (enforced by the serving regression suite). The JSON's `live`
//! summary carries the registry's final dispatch, miss, specialization
//! and eviction counts: the same counts the pattern reports are summed
//! from, so each equals the sum over the sampled patterns (the curve
//! replays run unsampled).

use dyc_bench::live::LiveServe;
use dyc_bench::traffic::{
    curve_json, hit_rate_curve, replay_live, CurvePoint, Pattern, ServeConfig, ServeReport,
    StreamConfig, ALL_PATTERNS,
};
use dyc_obs::{Counts, EventKind, SamplerConfig, WatchdogConfig};
use dyc_rt::{MissPolicy, SharedOptions};
use std::fmt::Write as _;
use std::time::Duration;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag(args, name).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| panic!("bad value for {name}"))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dispatches: u64 = parse(&args, "--dispatches", 1_000_000);
    let threads: usize = parse(&args, "--threads", 16);
    let seed: u64 = parse(&args, "--seed", 42);
    let opts = SharedOptions {
        miss_policy: match flag(&args, "--miss-policy").unwrap_or("block") {
            "block" => MissPolicy::Block,
            "fallback" => MissPolicy::Fallback,
            other => panic!("unknown --miss-policy {other}"),
        },
        ..SharedOptions::default()
    };
    let bound: u32 = parse(&args, "--bound", 0);
    let patterns: Vec<Pattern> = match flag(&args, "--patterns") {
        Some(list) => list
            .split(',')
            .map(|p| Pattern::parse(p).unwrap_or_else(|| panic!("unknown pattern {p}")))
            .collect(),
        None => ALL_PATTERNS.to_vec(),
    };

    // Live telemetry: any live flag attaches the sampler (and the
    // scrape endpoint when --live gives an address).
    let live_addr = flag(&args, "--live");
    let watchdog = args.iter().any(|a| a == "--watchdog");
    let incident_dir = flag(&args, "--incident-dir");
    let sample_ms: u64 = parse(&args, "--sample-ms", 250);
    let live_on = live_addr.is_some()
        || watchdog
        || incident_dir.is_some()
        || flag(&args, "--sample-ms").is_some();
    let live = live_on.then(|| {
        let cfg = SamplerConfig {
            interval: Duration::from_millis(sample_ms.max(1)),
            watchdog: watchdog.then(WatchdogConfig::default),
            incident_dir: incident_dir.map(Into::into),
            ..SamplerConfig::default()
        };
        let serve = LiveServe::start(live_addr, cfg)
            .unwrap_or_else(|e| panic!("--live {}: {e}", live_addr.unwrap_or("<none>")));
        if let Some(a) = serve.local_addr() {
            println!("live metrics at http://{a}/metrics (dycstat watch {a})");
        }
        serve
    });

    let mut reports: Vec<ServeReport> = Vec::new();
    for &pattern in &patterns {
        let mut stream = StreamConfig::of(pattern);
        stream.zipf_s = parse(&args, "--zipf-s", stream.zipf_s);
        stream.keys = parse(&args, "--keys", stream.keys);
        let cfg = ServeConfig {
            stream,
            dispatches,
            threads,
            seed,
            opts,
            bound: (bound > 0).then_some(bound),
        };
        let r = replay_live(&cfg, live.as_ref().map(|l| &l.handles))
            .unwrap_or_else(|e| panic!("{} replay failed: {e}", pattern.name()));
        r.balance_check()
            .unwrap_or_else(|e| panic!("{} meters out of balance: {e}", pattern.name()));
        print_report(&r);
        reports.push(r);
    }

    let curve: Option<Vec<CurvePoint>> = flag(&args, "--curve").map(|list| {
        let bounds: Vec<u32> = list
            .split(',')
            .map(|b| b.parse().expect("--curve takes k1,k2,..."))
            .collect();
        let cfg = ServeConfig {
            stream: StreamConfig::of(Pattern::Churn),
            dispatches: parse(&args, "--curve-dispatches", 200_000),
            threads,
            seed,
            opts,
            bound: None,
        };
        let points = hit_rate_curve(&cfg, &bounds).unwrap_or_else(|e| panic!("curve: {e}"));
        print_curve(&points);
        points
    });

    let live_summary = live.map(|l| {
        let registry = std::sync::Arc::clone(&l.handles.registry);
        let (windows, incidents) = l.finish();
        let counts = registry.snapshot().counts;
        let peak = windows
            .iter()
            .map(dyc_obs::Window::throughput)
            .fold(0.0f64, f64::max);
        println!(
            "\nlive: {} windows retained, peak {:.0} disp/s, {} incident(s)",
            windows.len(),
            peak,
            incidents.len()
        );
        for inc in &incidents {
            println!(
                "  incident {}: {} (window {})",
                inc.anomaly.kind.name(),
                inc.anomaly.detail,
                inc.anomaly.window
            );
            for p in &inc.paths {
                println!("    wrote {}", p.display());
            }
        }
        (windows.len(), peak, incidents.len(), counts)
    });

    let json = serving_json(&reports, curve.as_deref(), live_summary);
    if let Some(path) = flag(&args, "--out") {
        std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\nwrote {path}");
    }
}

/// The `serving` JSON section: one object per pattern plus the optional
/// hit-rate curve and live-telemetry summary — windows, peak throughput,
/// incidents and the registry's final counts (same hand-rolled style as
/// BENCH_dyncompile.json).
fn serving_json(
    reports: &[ServeReport],
    curve: Option<&[CurvePoint]>,
    live: Option<(usize, f64, usize, Counts)>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"serving\": {{");
    for (i, r) in reports.iter().enumerate() {
        let last = i + 1 == reports.len() && curve.is_none() && live.is_none();
        let comma = if last { "" } else { "," };
        let _ = writeln!(out, "    \"{}\":", r.pattern);
        let _ = writeln!(out, "{}{comma}", r.json(4));
    }
    if let Some(points) = curve {
        let comma = if live.is_none() { "" } else { "," };
        let _ = writeln!(out, "    \"hit_rate_curve\":");
        let _ = writeln!(out, "{}{comma}", curve_json(points, 4));
    }
    if let Some((windows, peak, incidents, c)) = live {
        let _ = writeln!(
            out,
            "    \"live\": {{\"windows\": {windows}, \"peak_throughput_per_s\": {peak:.1}, \
             \"incidents\": {incidents}, \"dispatches\": {}, \"misses\": {}, \
             \"specializations\": {}, \"evictions\": {}}}",
            c.dispatches(),
            c.get(EventKind::DispatchMiss),
            c.get(EventKind::GeExecEnd),
            c.get(EventKind::CacheEvict),
        );
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

fn print_report(r: &ServeReport) {
    let (p50, p95, p99, max) = r.miss_hist.quantiles();
    println!(
        "{:<12} {:>9} disp x{:<3} {:>11.0}/s  hit {:>7.3}%  miss p50/p95/p99/max \
         {}/{}/{}/{} µs",
        r.pattern,
        r.dispatches,
        r.threads,
        r.throughput,
        r.hit_rate * 100.0,
        p50 / 1000,
        p95 / 1000,
        p99 / 1000,
        max / 1000,
    );
    println!(
        "{:<12} spec {} waits {} fallbacks {} races {} evictions {} | shards {} \
         (imbalance {:.2}, {:.3} probes/lookup) flights {}",
        "",
        r.snapshot.specializations,
        r.snapshot.single_flight_waits,
        r.snapshot.single_flight_fallbacks,
        r.snapshot.single_flight_races,
        r.snapshot.cache_evictions,
        r.cache_shards,
        r.shard_imbalance,
        r.probes_per_lookup,
        r.flight_shards,
    );
}

fn print_curve(points: &[CurvePoint]) {
    println!("\nhit-rate curve (churn stream):");
    for c in points {
        let bound = if c.bound == 0 {
            "unbounded".to_string()
        } else {
            format!("cache_all({})", c.bound)
        };
        println!(
            "  {bound:<16} hit {:>7.3}%  evictions {:>8}  specializations {:>8}",
            c.hit_rate * 100.0,
            c.evictions,
            c.specializations
        );
    }
}
