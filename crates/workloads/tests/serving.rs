//! Serving-harness regression tests: deterministic key streams, a
//! replay validated against the single-threaded oracle with zero
//! duplicate specializations, and an eviction hit-rate sanity bound
//! under churn.
//!
//! These ride on `dyc_bench::traffic` (a dev-only dependency cycle —
//! bench depends on workloads for its tables, workloads dev-depends on
//! bench for the harness). `dyc_serve` replays the same streams at
//! 10^6–10^8 dispatches; this file pins the behavior CI can afford.

use dyc::obs::{
    EventKind, Json, LatencyHistogram, LiveHandles, Sampler, SamplerConfig, Watchdog,
    WatchdogConfig,
};
use dyc::{Compiler, CostModel, SharedOptions, SharedRuntime, Value};
use dyc_bench::traffic::{
    expected, replay, replay_live, serve_source, Pattern, ServeConfig, ServeReport, StreamConfig,
    TrafficGen, ALL_PATTERNS,
};
use dyc_vm::Vm;
use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Dispatch budget for the replay tests: 10^5 in release (the scale the
/// issue pins), scaled down in debug where the interpreter runs ~20x
/// slower.
fn n_dispatches() -> u64 {
    if cfg!(debug_assertions) {
        20_000
    } else {
        100_000
    }
}

/// The streams are seeded SplitMix64: same (seed, thread) must replay
/// the same keys forever. These prefixes are pinned so any change to
/// the generators (CDF construction, per-thread seeding, pattern
/// arithmetic) fails loudly instead of silently re-shaping every
/// benchmark in EXPERIMENTS.md.
#[test]
fn stream_prefixes_are_pinned() {
    let golden: [(Pattern, [u64; 8]); 4] = [
        (Pattern::Zipfian, [0, 2, 4, 0, 727, 1, 332, 4]),
        (Pattern::Churn, [259, 338, 404, 498, 262, 349, 420, 469]),
        (
            Pattern::FlashCrowd,
            [4096, 4096, 4096, 4096, 4096, 4096, 4096, 4096],
        ),
        (Pattern::Stampede, [0, 0, 0, 0, 1, 1, 1, 1]),
    ];
    for (pattern, want) in golden {
        let gen = TrafficGen::new(StreamConfig::of(pattern));
        let mut s = gen.stream(42, 0);
        let got: Vec<u64> = (0..8).map(|_| s.next_key()).collect();
        assert_eq!(got, want, "{} stream prefix changed", pattern.name());
    }
}

/// Same (seed, thread) replays identically; different threads diverge
/// (except stampede, whose streams are position-driven by design so all
/// threads hit the same key at the same position).
#[test]
fn streams_deterministic_per_thread() {
    for pattern in ALL_PATTERNS {
        let gen = TrafficGen::new(StreamConfig::of(pattern));
        let a: Vec<u64> = {
            let mut s = gen.stream(7, 3);
            (0..256).map(|_| s.next_key()).collect()
        };
        let b: Vec<u64> = {
            let mut s = gen.stream(7, 3);
            (0..256).map(|_| s.next_key()).collect()
        };
        assert_eq!(a, b, "{}: same (seed, thread) diverged", pattern.name());
        let c: Vec<u64> = {
            let mut s = gen.stream(7, 4);
            (0..256).map(|_| s.next_key()).collect()
        };
        if pattern == Pattern::Stampede {
            assert_eq!(a, c, "stampede threads must run in lockstep");
        } else {
            assert_ne!(a, c, "{}: threads 3 and 4 identical", pattern.name());
        }
    }
}

/// The closed-form oracle the replay validates against must itself
/// match the interpreter running the serve region single-threaded.
#[test]
fn closed_form_oracle_matches_single_threaded_interpreter() {
    let program = Compiler::new()
        .compile(&serve_source(None))
        .expect("serve source compiles");
    let mut sess = program.dynamic_session();
    for key in [0i64, 1, 7, 8, 63, 4095] {
        for x in [0i64, 1, 4] {
            let out = sess
                .run("serve", &[Value::I(key), Value::I(x)])
                .expect("serve runs");
            assert_eq!(
                out,
                Some(Value::I(expected(key, x))),
                "oracle diverges at key {key}, x {x}"
            );
        }
    }
}

/// A multi-threaded zipfian replay must stay in balance and perform
/// exactly one specialization per distinct key — the single-flight map
/// suppresses every duplicate, so `specializations == |distinct keys|`.
/// (Each dispatch inside `replay` is already checked against the
/// closed-form oracle; a wrong result fails the test through `replay`.)
#[test]
fn replay_balances_with_zero_duplicate_specializations() {
    let cfg = ServeConfig {
        stream: StreamConfig::of(Pattern::Zipfian),
        dispatches: n_dispatches(),
        threads: 4,
        seed: 7,
        ..ServeConfig::default()
    };
    let r = replay(&cfg).expect("replay succeeds");
    r.balance_check().expect("meters balance");
    assert_eq!(r.dispatches, cfg.dispatches);

    // Mirror replay's thread slicing to enumerate the distinct keys the
    // run actually dispatched.
    let gen = TrafficGen::new(cfg.stream);
    let per = cfg.dispatches / cfg.threads as u64;
    let extra = (cfg.dispatches % cfg.threads as u64) as usize;
    let mut distinct: HashSet<u64> = HashSet::new();
    for t in 0..cfg.threads {
        let n = per + u64::from(t < extra);
        let mut s = gen.stream(cfg.seed, t as u32);
        for _ in 0..n {
            distinct.insert(s.next_key());
        }
    }
    assert_eq!(
        r.snapshot.specializations,
        distinct.len() as u64,
        "duplicate specializations slipped past the single-flight map"
    );
    assert_eq!(r.hits + r.misses, r.dispatches);
}

/// Under rolling churn with a `cache_all(k)` bound smaller than the
/// live window, the clock must evict; the bounded run's hit rate must
/// sit strictly below the unbounded run's, and the unbounded run on the
/// same stream must serve almost entirely from cache.
#[test]
fn churn_eviction_hit_rate_sanity() {
    let base = ServeConfig {
        stream: StreamConfig::of(Pattern::Churn),
        dispatches: n_dispatches(),
        threads: 2,
        seed: 11,
        ..ServeConfig::default()
    };
    let unbounded = replay(&base).expect("unbounded replay");
    unbounded.balance_check().expect("unbounded balance");
    let bounded = replay(&ServeConfig {
        bound: Some(64),
        ..base
    })
    .expect("bounded replay");
    bounded.balance_check().expect("bounded balance");

    assert_eq!(unbounded.snapshot.cache_evictions, 0);
    assert!(
        bounded.snapshot.cache_evictions > 0,
        "cache_all(64) under churn never evicted"
    );
    assert!(
        unbounded.hit_rate > 0.95,
        "unbounded churn hit rate too low: {}",
        unbounded.hit_rate
    );
    assert!(
        bounded.hit_rate < unbounded.hit_rate,
        "bounded hit rate {} not below unbounded {}",
        bounded.hit_rate,
        unbounded.hit_rate
    );
    // The bound still retains part of the window: the run must not
    // degenerate to a 100%-miss stream either.
    assert!(
        bounded.hit_rate > 0.01,
        "bounded churn hit rate implausibly low: {}",
        bounded.hit_rate
    );
}

/// The observer-effect-free guarantee, extended to the live sampler: on
/// every stream shape, a replay with the sampler ticking and the
/// watchdog armed must publish byte-identical specialized code, the
/// same specialization count, and balanced meters — while the live
/// counters themselves must agree exactly with the run's own meters.
/// (Raw hit/wait/race splits are scheduling-dependent and deliberately
/// NOT compared across the two runs.)
#[test]
fn sampled_replay_is_observer_effect_free() {
    for pattern in ALL_PATTERNS {
        let cfg = ServeConfig {
            stream: StreamConfig::of(pattern),
            dispatches: n_dispatches() / 2,
            threads: 4,
            seed: 13,
            ..ServeConfig::default()
        };
        let base = replay(&cfg).expect("unsampled replay");
        base.balance_check().expect("unsampled balance");

        let handles = LiveHandles::with_flight(4096);
        let sampler = Sampler::spawn(
            Arc::clone(&handles.registry),
            handles.flight.clone(),
            SamplerConfig {
                interval: Duration::from_millis(25),
                watchdog: Some(WatchdogConfig::default()),
                ring: 256,
                ..SamplerConfig::default()
            },
        );
        let sampled = replay_live(&cfg, Some(&handles)).expect("sampled replay");
        sampled.balance_check().expect("sampled balance");
        let snap = handles.registry.snapshot();
        let (windows, incidents) = sampler.stop();

        let p = pattern.name();
        assert_eq!(base.dispatches, sampled.dispatches, "{p}: dispatches");
        assert_eq!(
            base.code_digest, sampled.code_digest,
            "{p}: sampling changed the published code"
        );
        assert_eq!(
            base.snapshot.specializations, sampled.snapshot.specializations,
            "{p}: sampling changed the specialization count"
        );
        // The live counts are the runtime's own per-kind counts, read
        // through the registry — they must agree exactly with the
        // sampled run's meters.
        let live = &snap.counts;
        assert_eq!(live.dispatches(), sampled.dispatches, "{p}");
        assert_eq!(live.hits(), sampled.hits, "{p}: hits");
        assert_eq!(
            live.get(EventKind::DispatchMiss),
            sampled.misses,
            "{p}: misses"
        );
        assert_eq!(
            live.get(EventKind::GeExecEnd),
            sampled.snapshot.specializations,
            "{p}: live specializations"
        );
        assert_eq!(
            snap.miss_ns.count(),
            sampled.misses,
            "{p}: live miss histogram count"
        );
        assert!(!windows.is_empty(), "{p}: sampler produced no windows");
        assert!(
            incidents.is_empty(),
            "{p}: default thresholds fired on a healthy run: {:?}",
            incidents[0].anomaly
        );
    }
}

/// An induced eviction storm — a tiny `cache_all(4)` bound under a
/// rolling churn stream — must trigger the eviction-storm incident, and
/// every incident must carry a parseable Chrome trace of the
/// flight-recorder capture plus a parseable JSON record, dumped to the
/// incident directory.
///
/// How many incidents fire depends on scheduling: a stall that spans
/// two windows gives two storm-free windows, which re-arm the latch. So
/// the test keeps every window, replays them through a fresh watchdog
/// with the same thresholds, and requires the live incidents to be
/// exactly the replay's anomalies.
#[test]
fn eviction_storm_incidents_match_a_watchdog_replay() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("storm-incidents");
    let _ = std::fs::remove_dir_all(&dir);
    let handles = LiveHandles::with_flight(4096);
    // Eviction-storm rule only, hair trigger, latched.
    let watchdog = WatchdogConfig {
        trigger_after: 1,
        clear_after: 2,
        evict_share: 0.05,
        evict_min: 16,
        convoy_share: 1.1,
        break_even_factor: f64::INFINITY,
        spike_factor: f64::INFINITY,
        ..WatchdogConfig::default()
    };
    let sampler = Sampler::spawn(
        Arc::clone(&handles.registry),
        handles.flight.clone(),
        SamplerConfig {
            interval: Duration::from_millis(10),
            // Far more windows than any run takes, so the ring drops
            // none and the replay sees what the live watchdog saw.
            ring: 1 << 20,
            watchdog: Some(watchdog),
            incident_dir: Some(dir.clone()),
        },
    );
    let view = sampler.view();
    let cfg = ServeConfig {
        stream: StreamConfig::of(Pattern::Churn),
        dispatches: n_dispatches(),
        threads: 2,
        seed: 17,
        bound: Some(4),
        ..ServeConfig::default()
    };
    let r = replay_live(&cfg, Some(&handles)).expect("storm replay");
    r.balance_check().expect("storm balance");
    assert!(
        r.snapshot.cache_evictions > 1000,
        "cache_all(4) under churn should evict heavily, got {}",
        r.snapshot.cache_evictions
    );
    let (windows, incidents) = sampler.stop();
    assert_eq!(
        view.total_windows(),
        windows.len() as u64,
        "the ring dropped windows"
    );
    let mut replay = Watchdog::new(watchdog);
    let replayed: Vec<_> = windows.iter().flat_map(|w| replay.observe(w)).collect();
    let live: Vec<_> = incidents.iter().map(|i| i.anomaly.clone()).collect();
    assert_eq!(live, replayed, "live incidents differ from the replay");
    assert!(!live.is_empty(), "a sustained storm must fire an incident");
    for inc in &incidents {
        assert_eq!(inc.anomaly.kind.name(), "eviction-storm");
        let trace = dyc::obs::parse_chrome_trace(&inc.trace_json).expect("incident trace parses");
        assert!(!trace.events.is_empty(), "flight-recorder capture is empty");
        assert!(trace
            .meta
            .iter()
            .any(|(k, v)| k == "incident" && v == "eviction-storm"));
        let rec = Json::parse(&inc.record_json).expect("incident record parses");
        assert_eq!(rec.get("kind").and_then(Json::str), Some("eviction-storm"));
        assert_eq!(inc.paths.len(), 2, "record + trace files");
        for p in &inc.paths {
            assert!(p.exists(), "incident dump {} missing", p.display());
        }
    }
}

/// `dyc_serve --live`'s scrape path: while a replay runs with the
/// sampler attached, the std-only HTTP endpoint must answer a
/// Prometheus scrape whose counters are live (nonzero dispatches
/// mid-run or at worst immediately after).
#[test]
fn live_scrape_serves_prometheus_during_replay() {
    use dyc_bench::live::{http_get, MetricsServer};
    let handles = LiveHandles::new();
    let sampler = Sampler::spawn(
        Arc::clone(&handles.registry),
        None,
        SamplerConfig {
            interval: Duration::from_millis(10),
            ..SamplerConfig::default()
        },
    );
    let server = MetricsServer::start("127.0.0.1:0", sampler.view()).expect("bind");
    let addr = server.local_addr().to_string();
    let cfg = ServeConfig {
        stream: StreamConfig::of(Pattern::Zipfian),
        dispatches: n_dispatches(),
        threads: 4,
        seed: 19,
        ..ServeConfig::default()
    };
    let (r, scraped) = std::thread::scope(|s| {
        let replayer = s.spawn(|| replay_live(&cfg, Some(&handles)));
        // Poll until a scrape shows live dispatches (or the replay ends
        // — the counters are cumulative, so the last scrape still
        // proves the endpoint served during the session).
        let mut scraped = String::new();
        while !replayer.is_finished() {
            if let Ok(body) = http_get(&addr, "/metrics") {
                scraped = body;
                if scrape_value(&scraped, "dyc_live_dispatches_total") > 0.0 {
                    break;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let r = replayer.join().expect("replay thread").expect("replay");
        if scrape_value(&scraped, "dyc_live_dispatches_total") == 0.0 {
            scraped = http_get(&addr, "/metrics").expect("final scrape");
        }
        (r, scraped)
    });
    r.balance_check().expect("balance");
    server.stop();
    let _ = sampler.stop();
    assert!(scraped.contains("# TYPE dyc_live_dispatches_total counter"));
    assert!(scraped.contains("# HELP dyc_live_dispatches_total"));
    assert!(
        scrape_value(&scraped, "dyc_live_dispatches_total") > 0.0,
        "scrape never showed live dispatches:\n{scraped}"
    );
}

/// First sample value of `name` in a Prometheus text body.
fn scrape_value(body: &str, name: &str) -> f64 {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(name)?.trim_start().parse().ok())
        .unwrap_or(0.0)
}

/// Four threads replay a churn stream against one `cache_all(256)` site:
/// every eviction frees its code's registry slot, and each thread frees
/// its copies of evicted code. Two bounds hold under any schedule: the
/// registry never holds more than the site's bound, the code each thread
/// has in transit (a publication not yet bound, or a victim unbound but
/// not yet freed: at most two slots per thread) and the generic
/// continuations; and no thread's module holds more than its base
/// functions, one copy per registry slot and the two functions one run
/// may retire.
#[test]
fn four_thread_churn_frees_evicted_code() {
    const BOUND: u64 = 256;
    const THREADS: usize = 4;
    let program = Compiler::new()
        .compile(&serve_source(Some(BOUND as u32)))
        .expect("serve source compiles");
    let shared = program.shared_runtime_with(SharedOptions {
        latency: true,
        ..SharedOptions::default()
    });
    let gen = TrafficGen::new(StreamConfig {
        churn_window: 384,
        ..StreamConfig::of(Pattern::Churn)
    });
    let per_thread = n_dispatches() / THREADS as u64;
    let base = shared.base_module().len();
    let barrier = Barrier::new(THREADS);
    // Each thread's miss histogram and the most functions its module held.
    let outs: Vec<(LatencyHistogram, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (shared, gen, barrier) = (&shared, &gen, &barrier);
                s.spawn(move || {
                    let mut h = SharedRuntime::thread(shared);
                    let mut module = shared.base_module();
                    let mut vm = Vm::new(CostModel::alpha21164());
                    let id = module.func_by_name("serve").expect("serve");
                    let mut stream = gen.stream(5, t as u32);
                    let mut most = module.len();
                    barrier.wait();
                    for i in 0..per_thread {
                        let (key, x) = (stream.next_key() as i64, (i % 5) as i64);
                        let out = vm
                            .call_with_handler(
                                &mut module,
                                &mut h,
                                id,
                                &[Value::I(key), Value::I(x)],
                            )
                            .expect("serve runs");
                        assert_eq!(out, Some(Value::I(expected(key, x))), "serve({key}, {x})");
                        most = most.max(module.len());
                    }
                    (h.miss_latency().cloned().expect("latency on"), most)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serving thread"))
            .collect()
    });

    let mut miss_hist = LatencyHistogram::new();
    for (h, _) in &outs {
        miss_hist.merge(h);
    }
    let snapshot = shared.stats();
    let dispatches = per_thread * THREADS as u64;
    let misses = miss_hist.count();
    let report = ServeReport {
        pattern: "churn",
        dispatches,
        threads: THREADS,
        seed: 5,
        wall_ns: 0,
        throughput: 0.0,
        hits: dispatches - misses,
        misses,
        hit_rate: 0.0,
        miss_hist,
        probes_per_lookup: 0.0,
        shard_imbalance: 0.0,
        cache_shards: shared.n_cache_shards(),
        flight_shards: shared.n_flight_shards(),
        snapshot: snapshot.clone(),
        code_digest: 0,
    };
    report.balance_check().expect("meters balance");
    assert!(
        snapshot.cache_evictions > dispatches / 10,
        "cache_all({BOUND}) under a 384-key churn must evict"
    );
    let bound = BOUND + 2 * THREADS as u64 + snapshot.generic_continuations;
    assert!(
        snapshot.registry_high_water <= bound,
        "{} registry slots over a bound of {bound}",
        snapshot.registry_high_water
    );
    assert!(snapshot.registry_live <= snapshot.registry_high_water);
    for (t, (_, most)) in outs.iter().enumerate() {
        assert!(
            *most as u64 <= base as u64 + bound + 2,
            "thread {t}: {most} functions over {base} base functions"
        );
    }
}
