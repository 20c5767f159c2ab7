//! Snapshot → warm-start round-trip over the full benchmark suite.
//!
//! For every workload: run the region cold (specializing), snapshot the
//! session's code cache as a bundle, warm-start a fresh session from it,
//! and re-run the same deterministic invocations. The warm session must
//! produce identical, validated results with **zero** specializations —
//! every dispatch, entry sites and internal promotions alike, hits
//! restored code — and its cached bindings must be instruction-identical
//! to the cold session's.
//!
//! A bundle is outside input: an internal site this program cannot have
//! produced must be rejected, with every entry, never panic the loader or
//! a later miss.

use dyc::{CacheBundle, CodeFunc, Compiler, OptConfig, PolicyMode, Session, Value};
use dyc_workloads::{all, Workload};

/// Region invocations (enough to exercise cache hits after the miss).
fn n_reps() -> usize {
    if cfg!(debug_assertions) {
        2
    } else {
        4
    }
}

fn run_sequence(w: &dyn Workload, sess: &mut Session, reps: usize) -> Vec<Option<Value>> {
    let meta = w.meta();
    let args = w.setup_region(sess);
    sess.set_step_limit(200_000_000);
    let mut out = Vec::with_capacity(reps);
    for _ in 0..reps {
        let r = sess
            .run(meta.region_func, &args)
            .unwrap_or_else(|e| panic!("{}: region run failed: {e}", meta.name));
        assert!(
            w.check_region(r, sess),
            "{}: region result failed validation",
            meta.name
        );
        w.reset(sess, &args);
        out.push(r);
    }
    out
}

/// Sort cached bindings into a comparable form, dropping the base
/// address (a module-layout artifact, not code bytes).
fn normalize(mut entries: Vec<(u32, Vec<u64>, CodeFunc)>) -> Vec<(u32, Vec<u64>, String)> {
    entries.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    entries
        .into_iter()
        .map(|(s, k, f)| {
            (
                s,
                k,
                format!(
                    "name={} params={} regs={} code={:?}",
                    f.name, f.n_params, f.n_regs, f.code
                ),
            )
        })
        .collect()
}

#[test]
fn every_workload_warm_starts_with_zero_respecializations() {
    for w in all() {
        let meta = w.meta();
        let program = Compiler::new()
            .compile(&w.source())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", meta.name));

        // Cold: specialize and validate.
        let mut cold = program.dynamic_session();
        let cold_results = run_sequence(w.as_ref(), &mut cold, n_reps());
        let cold_stats = cold.rt_stats().unwrap().clone();
        assert!(
            cold_stats.specializations > 0,
            "{}: cold run never specialized",
            meta.name
        );
        let bundle = cold.cache_bundle().unwrap();

        // Warm: restore, re-run, compare.
        let mut warm = program
            .warm_start_from_str(&bundle)
            .unwrap_or_else(|e| panic!("{}: warm start failed: {e}", meta.name));
        {
            let rt = warm.rt_stats().unwrap();
            assert!(rt.cache_warm_loads > 0, "{}: nothing restored", meta.name);
            assert_eq!(rt.cache_warm_rejects, 0, "{}: rejected entries", meta.name);
            assert_eq!(
                rt.cache_warm_loads, cold_stats.specializations,
                "{}: restored count != cold specializations",
                meta.name
            );
        }
        let warm_results = run_sequence(w.as_ref(), &mut warm, n_reps());
        assert_eq!(warm_results, cold_results, "{}: results differ", meta.name);
        assert_eq!(
            warm.rt_stats().unwrap().specializations,
            0,
            "{}: warm run re-specialized",
            meta.name
        );
        assert_eq!(
            normalize(cold.cached_code()),
            normalize(warm.cached_code()),
            "{}: cached code differs after warm start",
            meta.name
        );
    }
}

/// Warm start into an *adaptive* session: restored cache entries are
/// seeded as already promoted, so re-running the cold sequence hits
/// restored code everywhere — zero re-specializations, and, critically,
/// zero policy deferrals: the engine must not make a restored key climb
/// the break-even threshold all over again. The bundle itself is
/// policy-agnostic (`config_hash` excludes the policy mode), so an
/// always-mode snapshot restores cleanly into an adaptive session.
#[test]
fn adaptive_warm_start_neither_respecializes_nor_defers() {
    for w in all() {
        let meta = w.meta();
        let cold_prog = Compiler::with_config(OptConfig::all())
            .compile(&w.source())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", meta.name));

        // Cold, always-specialize: populate and snapshot the cache.
        let mut cold = cold_prog.dynamic_session();
        let cold_results = run_sequence(w.as_ref(), &mut cold, n_reps());
        let cold_stats = cold.rt_stats().unwrap().clone();
        let bundle = cold.cache_bundle().unwrap();

        // Warm, adaptive: every restored key is born promoted.
        let adaptive_prog =
            Compiler::with_config(OptConfig::all().with_policy(PolicyMode::Adaptive))
                .compile(&w.source())
                .unwrap_or_else(|e| panic!("{}: adaptive compile failed: {e}", meta.name));
        let mut warm = adaptive_prog
            .warm_start_from_str(&bundle)
            .unwrap_or_else(|e| panic!("{}: adaptive warm start failed: {e}", meta.name));
        {
            let rt = warm.rt_stats().unwrap();
            assert_eq!(
                rt.cache_warm_loads, cold_stats.specializations,
                "{}: restored count != cold specializations",
                meta.name
            );
            assert_eq!(rt.cache_warm_rejects, 0, "{}: rejected entries", meta.name);
        }
        let warm_results = run_sequence(w.as_ref(), &mut warm, n_reps());
        assert_eq!(warm_results, cold_results, "{}: results differ", meta.name);

        let rt = warm.rt_stats().unwrap();
        assert_eq!(
            rt.specializations, 0,
            "{}: adaptive warm run re-specialized",
            meta.name
        );
        assert_eq!(
            (rt.policy_defers, rt.policy_throttled, rt.policy_promotes),
            (0, 0, 0),
            "{}: restored entries tripped the policy engine",
            meta.name
        );
    }
}

/// `f` promotes `j` mid-region, carrying a static int and a static float
/// across the promotion, so each specialization for a key of `k` creates
/// an internal site. The corruptions below edit the first.
const PROMOTING: &str = "int f(int k, int x) { make_static(k);
    float s = (float) k * 0.5; int j = x * 2 + k;
    make_static(j); return j * k + (int) s + x; }";

/// The calls of the cold run, then calls with keys of `j` the snapshot
/// never saw: each misses at the internal site.
fn promoting_calls() -> Vec<[Value; 2]> {
    let cold = (1..=3).flat_map(|k| (0..3).map(move |x| (k, x)));
    let fresh = (1..=3).flat_map(|k| (10..13).map(move |x| (k, x)));
    cold.chain(fresh)
        .map(|(k, x)| [Value::I(k), Value::I(x)])
        .collect()
}

fn run_calls(sess: &mut Session, calls: &[[Value; 2]]) -> Vec<Option<Value>> {
    calls
        .iter()
        .map(|args| sess.run("f", args).expect("f runs"))
        .collect()
}

#[test]
fn bundle_sites_the_program_cannot_have_produced_are_rejected() {
    let program = Compiler::new().compile(PROMOTING).unwrap();
    let calls = promoting_calls();
    let want = run_calls(&mut program.dynamic_session(), &calls);
    let mut cold = program.dynamic_session();
    run_calls(&mut cold, &calls[..9]);
    let text = cold.cache_bundle().unwrap();
    let bundle = CacheBundle::parse(&text).unwrap();
    assert_eq!(bundle.sites.len(), 3, "one internal site per key of k");
    let site = &bundle.sites[0];
    assert!(site.division.is_some() && site.base_store.len() == 2);
    let n_entries = bundle.entries.len() as u64;
    assert!(n_entries > 3, "{n_entries} entries");

    // The bundle loads as it is.
    let warm = program.warm_start_from_str(&text).unwrap();
    assert_eq!(warm.rt_stats().unwrap().cache_warm_loads, n_entries);

    // A vreg the site holds static: not a dispatch argument.
    let static_var = site.base_store[0].0;
    assert_eq!(site.arg_vars.len(), 2, "{:?}", site.arg_vars);
    type Corrupt = fn(&mut CacheBundle, u32);
    let corruptions: [(&str, Corrupt); 7] = [
        ("key var not an argument", |b, v| {
            b.sites[0].key_vars.push(v)
        }),
        ("division out of range", |b, _| {
            b.sites[0].division = Some(9999)
        }),
        ("function out of range", |b, _| b.sites[0].func = 77),
        ("base store vreg duplicated", |b, _| {
            let e = b.sites[0].base_store[0];
            b.sites[0].base_store.insert(0, e);
        }),
        ("base store float flag", |b, _| {
            let e = &mut b.sites[0].base_store[1];
            e.1 = !e.1;
        }),
        ("dispatch arguments permuted", |b, _| {
            b.sites[0].arg_vars.reverse()
        }),
        ("static vreg in place of a dynamic argument", |b, v| {
            let s = &mut b.sites[0];
            let key = s.key_vars[0];
            let dynamic = s.arg_vars.iter_mut().find(|a| **a != key).unwrap();
            *dynamic = v;
        }),
    ];
    for (what, corrupt) in corruptions {
        let mut bad = bundle.clone();
        corrupt(&mut bad, static_var);
        assert_ne!(bad, bundle, "{what}: no corruption");
        let bad = bad.to_json();

        let mut warm = program.warm_start_from_str(&bad).unwrap();
        let rt = warm.rt_stats().unwrap();
        assert_eq!(
            (rt.cache_warm_loads, rt.cache_warm_rejects),
            (0, n_entries),
            "{what}: dynamic session"
        );
        assert_eq!(
            run_calls(&mut warm, &calls),
            want,
            "{what}: dynamic session"
        );

        let shared = program.warm_shared_runtime(&bad).unwrap();
        let stats = shared.stats();
        assert_eq!(
            (stats.cache_warm_loads, stats.cache_warm_rejects),
            (0, n_entries),
            "{what}: shared runtime"
        );
        let mut thread = program.threaded_session(&shared);
        assert_eq!(
            run_calls(&mut thread, &calls),
            want,
            "{what}: threaded session"
        );
    }
}

/// The online specializer's internal sites pass the same checks as the
/// staged executor's: a snapshot of `PROMOTING` without staging loads
/// whole, and its warm session hits where the cold one specialized.
#[test]
fn online_specializer_sites_load_whole() {
    let cfg = OptConfig::all().without("staged_ge").unwrap();
    let program = Compiler::with_config(cfg).compile(PROMOTING).unwrap();
    let calls = promoting_calls();
    let mut cold = program.dynamic_session();
    let want = run_calls(&mut cold, &calls);
    let text = cold.cache_bundle().unwrap();
    let bundle = CacheBundle::parse(&text).unwrap();
    assert_eq!(bundle.sites.len(), 3, "one internal site per key of k");
    assert!(bundle.sites.iter().all(|s| s.division.is_none()));
    let n_entries = bundle.entries.len() as u64;

    let mut warm = program.warm_start_from_str(&text).unwrap();
    let rt = warm.rt_stats().unwrap();
    assert_eq!((rt.cache_warm_loads, rt.cache_warm_rejects), (n_entries, 0));
    assert_eq!(run_calls(&mut warm, &calls), want);
    assert_eq!(warm.rt_stats().unwrap().specializations, 0);
}
