//! `dycstat` — the staged-pipeline trace reporter.
//!
//! Runs a workload with the event recorder on (or re-reads a dumped
//! Chrome trace) and prints a paper-style per-site table: variants
//! cached, dispatch mix, probe rate, dynamic-compilation cycles, and
//! the §4.2 break-even point per site, plus a per-thread contention
//! summary for concurrent runs.
//!
//! ```text
//! dycstat run <workload> [--threads N] [--reps N] [--native] [--policy]
//!                        [--out trace.json] [--prom metrics.txt]
//!                        [--require cat,cat,...]
//! dycstat report <trace.json> [--require cat,cat,...]
//! dycstat snapshot <workload> [--reps N] [--out bundle.json]
//! dycstat warm <workload> <bundle.json> [--reps N]
//! dycstat watch <addr> [--interval-ms N] [--count N]
//! dycstat list
//! ```
//!
//! `--require` exits nonzero unless the trace holds at least one event
//! of every named category (`dispatch`, `flight`, `spec`, `template`,
//! `cache`, `promote`, `policy`) — CI's smoke check.
//!
//! `snapshot` runs a workload cold and serializes its code cache as an
//! artifact bundle; `warm` restores the bundle into a fresh session and
//! prices the first region invocation cold vs. warm — the cycles a
//! warm start saves by skipping first-dispatch specialization.
//!
//! `--native` runs through the native x86-64 backend; traces recorded
//! that way (and reports over them) grow per-site native-vs-VM columns:
//! machine-code installs and bytes published per site.
//!
//! `--policy` runs with the adaptive specialization policy
//! (`PolicyMode::Adaptive`); traces recorded that way grow per-site
//! policy columns: deferrals, threshold promotions, and throttled
//! misses. Reports over policy-free traces stay byte-identical to
//! before.
//!
//! `watch` polls a `dyc_serve --live <addr>` Prometheus endpoint and
//! renders the windowed live view — throughput, hit rate, miss-path
//! percentiles, eviction/wait/race rates, and the incident count — one
//! row per scrape (`--interval-ms`, default 1000; `--count 0` = until
//! interrupted).

use dyc::obs::{
    chrome_trace, contention, merge, parse_chrome_trace, render_metrics, site_profiles, Category,
    Event, Metric, SiteProfile,
};
use dyc::{Compiler, OptConfig, PolicyMode};
use dyc_bench::{cell, rule};
use dyc_workloads::{all, by_name};
use std::process::ExitCode;
use std::sync::Arc;

/// Everything the report needs beyond the events themselves. Carried in
/// the Chrome trace's `otherData` so `dycstat report` can rebuild the
/// break-even column from a dump.
struct RunMeta {
    workload: String,
    threads: usize,
    invocations: u64,
    static_cycles: u64,
    dyn_cycles: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dycstat run <workload> [--threads N] [--reps N] [--native] [--policy] \
         [--out FILE] [--prom FILE] [--require cat,...]\n  dycstat report <trace.json> \
         [--require cat,...]\n  \
         dycstat snapshot <workload> [--reps N] [--out FILE]\n  \
         dycstat warm <workload> <bundle.json> [--reps N]\n  \
         dycstat watch <addr> [--interval-ms N] [--count N]\n  \
         dycstat list"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("warm") => cmd_warm(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("list") => {
            for w in all() {
                let m = w.meta();
                println!("{:<12} {}", m.name, m.description);
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

/// Parse `--flag value` pairs after the positional argument.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_require(args: &[String]) -> Result<Vec<Category>, String> {
    let Some(list) = flag(args, "--require") else {
        return Ok(Vec::new());
    };
    list.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            [
                Category::Dispatch,
                Category::Flight,
                Category::Spec,
                Category::Template,
                Category::Cache,
                Category::Promote,
                Category::Policy,
            ]
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| format!("unknown category '{s}'"))
        })
        .collect()
}

fn cmd_run(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage();
    };
    let Some(w) = by_name(name) else {
        eprintln!("unknown workload '{name}' (try `dycstat list`)");
        return ExitCode::FAILURE;
    };
    let threads: usize = flag(args, "--threads").map_or(1, |v| v.parse().expect("--threads"));
    let reps: u64 = flag(args, "--reps").map_or(12, |v| v.parse().expect("--reps"));
    let require = match parse_require(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let native = args.iter().any(|a| a == "--native");
    let adaptive = args.iter().any(|a| a == "--policy");
    let mut cfg = OptConfig::all();
    cfg.trace = true;
    cfg.native = native;
    if adaptive {
        cfg.policy = PolicyMode::Adaptive;
    }
    let program = Compiler::with_config(cfg)
        .compile(&w.source())
        .expect("workload compiles");
    let meta = w.meta();

    // Static baseline: cycles per region invocation.
    let mut s = program.static_session();
    let sargs = w.setup_region(&mut s);
    s.set_step_limit(200_000_000);
    let (out, _) = s.run_measured(meta.region_func, &sargs).unwrap();
    assert!(w.check_region(out, &mut s), "static result wrong");
    let mut static_total = 0u64;
    for _ in 0..reps {
        w.reset(&mut s, &sargs);
        let (_, d) = s.run_measured(meta.region_func, &sargs).unwrap();
        static_total += d.run_cycles();
    }
    let static_cycles = static_total / reps;

    // Traced dynamic run(s).
    let (events, dyn_cycles) = if threads <= 1 {
        let mut d = program.dynamic_session();
        let dargs = w.setup_region(&mut d);
        d.set_step_limit(200_000_000);
        let (out, _) = d.run_measured(meta.region_func, &dargs).unwrap();
        assert!(w.check_region(out, &mut d), "dynamic result wrong");
        let mut dyn_total = 0u64;
        for _ in 0..reps {
            w.reset(&mut d, &dargs);
            let (_, st) = d.run_measured(meta.region_func, &dargs).unwrap();
            dyn_total += st.run_cycles();
        }
        (d.trace_events(), dyn_total / reps)
    } else {
        let shared = program.shared_runtime();
        let w = Arc::new(w);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let w = Arc::clone(&w);
                let shared = Arc::clone(&shared);
                let sess = program.threaded_session(&shared);
                std::thread::spawn(move || {
                    let mut sess = sess;
                    let wl = w.as_ref().as_ref();
                    let m = wl.meta();
                    let dargs = wl.setup_region(&mut sess);
                    sess.set_step_limit(200_000_000);
                    let (out, _) = sess.run_measured(m.region_func, &dargs).unwrap();
                    assert!(wl.check_region(out, &mut sess), "threaded result wrong");
                    let mut total = 0u64;
                    for _ in 0..reps {
                        wl.reset(&mut sess, &dargs);
                        let (_, st) = sess.run_measured(m.region_func, &dargs).unwrap();
                        total += st.run_cycles();
                    }
                    (sess.trace_events(), total / reps)
                })
            })
            .collect();
        let mut streams = Vec::new();
        let mut dyn_cycles = u64::MAX;
        for h in handles {
            let (ev, cyc) = h.join().unwrap();
            dyn_cycles = dyn_cycles.min(cyc); // steady-state: all equal
            streams.push(ev);
        }
        (merge(streams), dyn_cycles)
    };

    let run = RunMeta {
        workload: meta.name.to_string(),
        threads,
        // First call compiles, then `reps` steady-state calls, per thread.
        invocations: (1 + reps) * threads as u64,
        static_cycles,
        dyn_cycles,
    };

    if let Some(path) = flag(args, "--out") {
        let meta_kv = [
            ("workload".to_string(), run.workload.clone()),
            ("threads".to_string(), run.threads.to_string()),
            ("invocations".to_string(), run.invocations.to_string()),
            ("static_cycles".to_string(), run.static_cycles.to_string()),
            ("dyn_cycles".to_string(), run.dyn_cycles.to_string()),
        ];
        std::fs::write(path, chrome_trace(&events, &meta_kv)).expect("write trace");
        println!("wrote {} events to {path}", events.len());
    }
    if let Some(path) = flag(args, "--prom") {
        std::fs::write(path, prometheus(&events, &run)).expect("write metrics");
        println!("wrote metrics to {path}");
    }

    print_report(&events, &run);
    check_required(&events, &require)
}

fn cmd_report(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let require = match parse_require(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match parse_chrome_trace(&text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{path}: not a dycstat Chrome trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    let get = |k: &str| {
        trace
            .meta
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.clone())
    };
    let num = |k: &str| get(k).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    let run = RunMeta {
        workload: get("workload").unwrap_or_else(|| "<unknown>".into()),
        threads: num("threads").max(1) as usize,
        invocations: num("invocations"),
        static_cycles: num("static_cycles"),
        dyn_cycles: num("dyn_cycles"),
    };
    print_report(&trace.events, &run);
    check_required(&trace.events, &require)
}

/// Compile `name` with the normal configuration and run one cold region
/// sequence: first invocation measured on its own (specialization cost
/// included), then `reps` steady-state invocations. Returns the session
/// plus (first-invocation total cycles, steady-state cycles/use).
fn cold_region_run(
    w: &dyn dyc_workloads::Workload,
    mut sess: dyc::Session,
    reps: u64,
) -> (dyc::Session, u64, u64) {
    let meta = w.meta();
    let args = w.setup_region(&mut sess);
    sess.set_step_limit(200_000_000);
    let (out, first) = sess.run_measured(meta.region_func, &args).unwrap();
    assert!(w.check_region(out, &mut sess), "wrong region result");
    let mut steady = 0u64;
    for _ in 0..reps {
        w.reset(&mut sess, &args);
        let (_, d) = sess.run_measured(meta.region_func, &args).unwrap();
        steady += d.run_cycles();
    }
    (sess, first.total_cycles(), steady / reps.max(1))
}

fn cmd_snapshot(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage();
    };
    let Some(w) = by_name(name) else {
        eprintln!("unknown workload '{name}' (try `dycstat list`)");
        return ExitCode::FAILURE;
    };
    let reps: u64 = flag(args, "--reps").map_or(4, |v| v.parse().expect("--reps"));
    let default_out = format!("{}.snapshot.json", name.replace(':', "-"));
    let out = flag(args, "--out").unwrap_or(&default_out);

    let program = Compiler::new().compile(&w.source()).expect("compiles");
    let (sess, first, steady) = cold_region_run(w.as_ref(), program.dynamic_session(), reps);
    let rt = sess.rt_stats().expect("dynamic session");
    if let Err(e) = sess.snapshot_cache(out) {
        eprintln!("snapshot failed: {e}");
        return ExitCode::FAILURE;
    }
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!(
        "dycstat snapshot: {name} — {} specializations, {} cached entries",
        rt.specializations,
        sess.cached_code().len()
    );
    println!(
        "cold first invocation : {first} cycles (incl. {} dyncomp)",
        rt.dyncomp_cycles
    );
    println!("steady state          : {steady} cycles/use");
    println!("wrote {out} ({bytes} bytes)");
    ExitCode::SUCCESS
}

fn cmd_warm(args: &[String]) -> ExitCode {
    let (Some(name), Some(bundle)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let Some(w) = by_name(name) else {
        eprintln!("unknown workload '{name}' (try `dycstat list`)");
        return ExitCode::FAILURE;
    };
    let reps: u64 = flag(args, "--reps").map_or(4, |v| v.parse().expect("--reps"));

    let program = Compiler::new().compile(&w.source()).expect("compiles");
    // Cold reference in-process, so the two first invocations are priced
    // by the same cost model on the same build.
    let (cold_sess, cold_first, cold_steady) =
        cold_region_run(w.as_ref(), program.dynamic_session(), reps);
    let warm_sess = match program.warm_start(bundle) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("warm start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (loads, rejects) = {
        let rt = warm_sess.rt_stats().expect("dynamic session");
        (rt.cache_warm_loads, rt.cache_warm_rejects)
    };
    let (warm_sess, warm_first, warm_steady) = cold_region_run(w.as_ref(), warm_sess, reps);
    let warm_rt = warm_sess.rt_stats().expect("dynamic session");
    let cold_rt = cold_sess.rt_stats().expect("dynamic session");

    println!("dycstat warm: {name} — restored {loads} entries, rejected {rejects}");
    println!(
        "first invocation : cold {cold_first} cycles ({} dyncomp)  warm {warm_first} cycles \
         ({} dyncomp)  — {:.1}x",
        cold_rt.dyncomp_cycles,
        warm_rt.dyncomp_cycles,
        cold_first as f64 / warm_first.max(1) as f64
    );
    println!("steady state     : cold {cold_steady} cycles/use  warm {warm_steady} cycles/use");
    println!(
        "warm run re-specialized {} key(s){}",
        warm_rt.specializations,
        if warm_rt.specializations == 0 {
            " — every dispatch hit restored code"
        } else {
            " (stale or rejected entries re-specialize on first use)"
        }
    );
    ExitCode::SUCCESS
}

/// `dycstat watch <addr>` — poll a `dyc_serve --live` endpoint and
/// render the windowed live view, one row per scrape.
fn cmd_watch(args: &[String]) -> ExitCode {
    let Some(addr) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage();
    };
    let interval: u64 =
        flag(args, "--interval-ms").map_or(1000, |v| v.parse().expect("--interval-ms"));
    let count: u64 = flag(args, "--count").map_or(0, |v| v.parse().expect("--count"));
    let mut row = 0u64;
    loop {
        let body = match dyc_bench::live::http_get(addr, "/metrics") {
            Ok(b) => b,
            Err(e) => {
                eprintln!("scrape {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if row.is_multiple_of(20) {
            println!(
                "{} {} {} {} {} {} {} {} {}",
                cell("window", 7),
                cell("disp/s", 10),
                cell("hit%", 7),
                cell("p50us", 8),
                cell("p95us", 8),
                cell("p99us", 8),
                cell("evict/s", 9),
                cell("waits/s", 9),
                cell("incidents", 9)
            );
        }
        let v = |name: &str| scrape_sample(&body, name).unwrap_or(0.0);
        println!(
            "{} {} {} {} {} {} {} {} {}",
            cell(&format!("{:.0}", v("dyc_live_windows_total")), 7),
            cell(&format!("{:.0}", v("dyc_live_window_throughput")), 10),
            cell(&format!("{:.2}", v("dyc_live_window_hit_rate") * 100.0), 7),
            cell(&format!("{:.0}", v("dyc_live_window_miss_p50_ns") / 1e3), 8),
            cell(&format!("{:.0}", v("dyc_live_window_miss_p95_ns") / 1e3), 8),
            cell(&format!("{:.0}", v("dyc_live_window_miss_p99_ns") / 1e3), 8),
            cell(&format!("{:.1}", v("dyc_live_window_evictions_per_s")), 9),
            cell(&format!("{:.1}", v("dyc_live_window_waits_per_s")), 9),
            cell(&format!("{:.0}", v("dyc_live_incidents_total")), 9)
        );
        row += 1;
        if count != 0 && row >= count {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval.max(1)));
    }
}

/// First sample of `name` in a Prometheus text body (label sets are
/// skipped over; comment lines ignored).
fn scrape_sample(body: &str, name: &str) -> Option<f64> {
    body.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let rest = l.strip_prefix(name)?;
        let value = match rest.as_bytes().first() {
            Some(b' ') => &rest[1..],
            Some(b'{') => rest.split_once("} ").map(|(_, v)| v)?,
            _ => return None,
        };
        value.parse().ok()
    })
}

fn check_required(events: &[Event], require: &[Category]) -> ExitCode {
    for cat in require {
        let n = events.iter().filter(|e| e.kind.category() == *cat).count();
        if n == 0 {
            eprintln!("required category '{}' recorded no events", cat.name());
            return ExitCode::FAILURE;
        }
        println!("require {}: {} events", cat.name(), n);
    }
    ExitCode::SUCCESS
}

/// Per-site cycles saved by one *use* of a specialized region, from the
/// region-level static-vs-dynamic measurement. The region saving is
/// attributed evenly over all dispatch uses it drove (for a region with
/// one site used once per invocation this is exactly the paper's
/// `s − d`).
fn saved_per_use(profiles: &[SiteProfile], run: &RunMeta) -> f64 {
    let total_uses: u64 = profiles.iter().map(|p| p.uses()).sum();
    if total_uses == 0 || run.static_cycles <= run.dyn_cycles {
        return 0.0;
    }
    (run.static_cycles - run.dyn_cycles) as f64 * run.invocations as f64 / total_uses as f64
}

fn print_report(events: &[Event], run: &RunMeta) {
    let profiles = site_profiles(events);
    let saved = saved_per_use(&profiles, run);
    println!(
        "dycstat: {} — {} events, {} thread(s), {} invocations",
        run.workload,
        events.len(),
        run.threads,
        run.invocations
    );
    println!(
        "region: static {} cyc/use, specialized {} cyc/use ({}x asymptotic)\n",
        run.static_cycles,
        run.dyn_cycles,
        if run.dyn_cycles > 0 {
            format!("{:.1}", run.static_cycles as f64 / run.dyn_cycles as f64)
        } else {
            "?".into()
        }
    );

    // Native-vs-VM columns only when the trace actually holds native
    // events — a pure-VM report stays byte-identical to before.
    let native = profiles
        .iter()
        .any(|p| p.native_installs + p.native_fallbacks > 0);
    // Same rule for the adaptive-policy columns: they appear only when
    // the trace holds policy events, so `always`-mode reports stay
    // byte-identical to before.
    let policy = profiles
        .iter()
        .any(|p| p.policy_defers + p.policy_promotes + p.policy_throttled > 0);
    let mut header = vec![
        ("site", 5),
        ("specs", 6),
        ("vars", 5),
        ("uses", 7),
        ("miss", 5),
        ("probe", 6),
        ("disp cyc", 9),
        ("dyncomp", 9),
        ("instrs", 7),
        ("tmpl", 6),
        ("holes", 6),
        ("evict", 6),
        ("promo", 6),
    ];
    if native {
        header.push(("native", 8));
        header.push(("nat B", 7));
    }
    if policy {
        header.push(("defer", 6));
        header.push(("p-pro", 6));
        header.push(("throt", 6));
    }
    header.push(("break-even", 11));
    let mut line = String::new();
    for &(h, w) in &header {
        line.push_str(&cell(h, w));
    }
    println!("{line}");
    rule(line.len());
    for p in &profiles {
        let be = match p.break_even(saved) {
            Some(b) if p.specializations > 0 => format!("{:.1} uses", b),
            Some(_) => "-".into(),
            None => "never".into(),
        };
        let mut row = vec![
            (p.site.to_string(), 5),
            (p.specializations.to_string(), 6),
            (p.variants.to_string(), 5),
            (p.uses().to_string(), 7),
            (p.misses.to_string(), 5),
            (format!("{:.2}", p.probe_rate()), 6),
            (p.dispatch_cycles.to_string(), 9),
            (p.dyncomp_cycles.to_string(), 9),
            (p.instrs_generated.to_string(), 7),
            (p.template_instrs.to_string(), 6),
            (p.holes_patched.to_string(), 6),
            (p.evictions.to_string(), 6),
            (p.promotions.to_string(), 6),
        ];
        if native {
            // "2" = all installs took; "2+1f" = one lowering fell back
            // to the VM for this site.
            let nat = if p.native_fallbacks == 0 {
                p.native_installs.to_string()
            } else {
                format!("{}+{}f", p.native_installs, p.native_fallbacks)
            };
            row.push((nat, 8));
            row.push((p.native_bytes.to_string(), 7));
        }
        if policy {
            row.push((p.policy_defers.to_string(), 6));
            row.push((p.policy_promotes.to_string(), 6));
            row.push((p.policy_throttled.to_string(), 6));
        }
        row.push((be, 11));
        let mut out = String::new();
        for (v, w) in row {
            out.push_str(&cell(&v, w));
        }
        println!("{out}");
    }

    let loads = contention(events);
    if loads.len() > 1 || loads.iter().any(|t| t.waits + t.fallbacks > 0) {
        println!("\ncontention:");
        println!(
            "{}{}{}{}{}{}",
            cell("thread", 8),
            cell("events", 8),
            cell("misses", 8),
            cell("waits", 7),
            cell("wait us", 9),
            cell("fallbacks", 10)
        );
        for t in &loads {
            println!(
                "{}{}{}{}{}{}",
                cell(&t.thread.to_string(), 8),
                cell(&t.events.to_string(), 8),
                cell(&t.misses.to_string(), 8),
                cell(&t.waits.to_string(), 7),
                cell(&format!("{:.1}", t.wait_ns as f64 / 1000.0), 9),
                cell(&t.fallbacks.to_string(), 10)
            );
        }
        let hist = dyc::obs::miss_latency(events);
        if !hist.is_empty() {
            let (p50, p95, p99, max) = hist.quantiles();
            println!(
                "\nmiss-path latency ({} spans): p50 {:.1} us  p95 {:.1} us  \
                 p99 {:.1} us  max {:.1} us",
                hist.count(),
                p50 as f64 / 1000.0,
                p95 as f64 / 1000.0,
                p99 as f64 / 1000.0,
                max as f64 / 1000.0
            );
        }
    }
}

/// Prometheus text exposition of the run: per-site counters plus the
/// region-level gauges.
fn prometheus(events: &[Event], run: &RunMeta) -> String {
    let profiles = site_profiles(events);
    let saved = saved_per_use(&profiles, run);
    let mut ms = Vec::new();
    ms.push(Metric::gauge(
        "dyc_region_static_cycles",
        "Static-build cycles per region invocation",
        &[("workload", run.workload.clone())],
        run.static_cycles as f64,
    ));
    ms.push(Metric::gauge(
        "dyc_region_specialized_cycles",
        "Specialized cycles per region invocation",
        &[("workload", run.workload.clone())],
        run.dyn_cycles as f64,
    ));
    for p in &profiles {
        let site = [("site", p.site.to_string())];
        let c = |name: &str, help: &str, v: u64| Metric::counter(name, help, &site, v as f64);
        ms.push(c(
            "dyc_site_specializations_total",
            "Specializations started at the site",
            p.specializations,
        ));
        ms.push(c(
            "dyc_site_variants_total",
            "Distinct cache keys specialized at the site",
            p.variants,
        ));
        ms.push(c("dyc_site_hits_total", "Dispatch cache hits", p.hits));
        ms.push(c(
            "dyc_site_misses_total",
            "Dispatch cache misses",
            p.misses,
        ));
        ms.push(c(
            "dyc_site_dispatch_cycles_total",
            "Cycles charged to dispatch at the site",
            p.dispatch_cycles,
        ));
        ms.push(c(
            "dyc_site_dyncomp_cycles_total",
            "Dynamic-compilation cycles charged at the site",
            p.dyncomp_cycles,
        ));
        ms.push(c(
            "dyc_site_flight_waits_total",
            "Single-flight waits at the site",
            p.waits,
        ));
        ms.push(c(
            "dyc_site_native_installs_total",
            "Specializations published as native machine code",
            p.native_installs,
        ));
        ms.push(c(
            "dyc_site_native_bytes_total",
            "Bytes of native machine code published for the site",
            p.native_bytes,
        ));
        ms.push(c(
            "dyc_site_native_fallbacks_total",
            "Native lowerings that fell back to the VM",
            p.native_fallbacks,
        ));
        ms.push(c(
            "dyc_site_policy_defers_total",
            "Adaptive-policy deferrals at the site",
            p.policy_defers,
        ));
        ms.push(c(
            "dyc_site_policy_promotes_total",
            "Adaptive-policy threshold promotions at the site",
            p.policy_promotes,
        ));
        ms.push(c(
            "dyc_site_policy_throttled_total",
            "Adaptive-policy throttled misses at the site",
            p.policy_throttled,
        ));
        if let Some(be) = p.break_even(saved) {
            ms.push(Metric::gauge(
                "dyc_site_break_even_uses",
                "Uses needed to amortize the site's dynamic compilation",
                &site,
                be,
            ));
        }
    }
    render_metrics(&ms)
}
