//! Concurrent-dispatch stress test: every workload, many threads, one
//! shared runtime — verified against a single-threaded oracle.
//!
//! Each thread runs the *same* deterministic region-invocation sequence.
//! Under the blocking single-flight policy that serializes
//! specializations globally (a thread only reaches invocation N after
//! invocation N−1's specialization is published), so the shared cache
//! must end up with exactly the oracle's bindings: same (site, key)
//! pairs, instruction-identical code, and the same global
//! specialization count — i.e. zero duplicate specializations across
//! all threads. Steady-state dispatch must also stay allocation-free in
//! every thread.

use dyc::{CodeFunc, Compiler, MissPolicy, OptConfig, Session, SharedOptions, Value};
use dyc_workloads::{all, Workload};
use std::sync::Arc;

/// Threads per workload (lighter under debug builds, which run the
/// interpreter ~20x slower).
fn n_threads() -> usize {
    if cfg!(debug_assertions) {
        4
    } else {
        8
    }
}

/// Region invocations per thread.
fn n_reps() -> usize {
    if cfg!(debug_assertions) {
        3
    } else {
        6
    }
}

/// Run `reps` region invocations with the given args in one session.
/// Returns the region results, in order.
fn run_invocations(
    w: &dyn Workload,
    sess: &mut Session,
    args: &[Value],
    reps: usize,
) -> Vec<Option<Value>> {
    let meta = w.meta();
    let mut out = Vec::with_capacity(reps);
    for _ in 0..reps {
        let r = sess
            .run(meta.region_func, args)
            .unwrap_or_else(|e| panic!("{}: region run failed: {e}", meta.name));
        assert!(
            w.check_region(r, sess),
            "{}: region result failed validation",
            meta.name
        );
        w.reset(sess, args);
        out.push(r);
    }
    out
}

/// Set up the workload's deterministic inputs and run its sequence.
fn run_sequence(w: &dyn Workload, sess: &mut Session, reps: usize) -> Vec<Option<Value>> {
    let args = w.setup_region(sess);
    sess.set_step_limit(200_000_000);
    run_invocations(w, sess, &args, reps)
}

/// Sort cached bindings into a comparable form, dropping the name and
/// address (both embed module-local, order-dependent detail).
fn normalize(mut entries: Vec<(u32, Vec<u64>, CodeFunc)>) -> Vec<(u32, Vec<u64>, String)> {
    entries.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    entries
        .into_iter()
        .map(|(s, k, f)| {
            (
                s,
                k,
                format!("params={} regs={} code={:?}", f.n_params, f.n_regs, f.code),
            )
        })
        .collect()
}

#[test]
fn all_workloads_threads_match_single_threaded_oracle() {
    for w in all() {
        let meta = w.meta();
        let program = Compiler::new()
            .compile(&w.source())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", meta.name));
        let reps = n_reps();

        // Single-threaded oracle.
        let mut oracle = program.dynamic_session();
        let oracle_results = run_sequence(w.as_ref(), &mut oracle, reps);
        let oracle_specs = oracle.rt_stats().unwrap().specializations;
        let oracle_code = normalize(oracle.cached_code());
        assert!(
            !oracle_code.is_empty(),
            "{}: oracle cached no specializations",
            meta.name
        );

        // Shared concurrent runtime, all threads running the same
        // sequence under the blocking miss policy.
        let shared = program.shared_runtime();
        let threads = n_threads();
        let w = Arc::new(w);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let w = Arc::clone(&w);
                let shared = Arc::clone(&shared);
                let sess = program.threaded_session(&shared);
                std::thread::spawn(move || {
                    let mut sess = sess;
                    let wl = w.as_ref().as_ref();
                    let args = wl.setup_region(&mut sess);
                    sess.set_step_limit(200_000_000);
                    let results = run_invocations(wl, &mut sess, &args, reps);
                    // Steady state: every specialization is cached by
                    // now, so further invocations must not allocate in
                    // dispatch.
                    let warm_base = sess.rt_stats().unwrap().clone();
                    run_invocations(wl, &mut sess, &args, 2);
                    let warm = sess.rt_stats().unwrap().delta(&warm_base);
                    assert_eq!(
                        warm.dispatch_allocs,
                        0,
                        "{}: warm dispatch allocated",
                        wl.meta().name
                    );
                    (results, sess.cached_code())
                })
            })
            .collect();

        let mut thread_snapshots = Vec::new();
        for h in handles {
            let (results, snapshot) = h.join().unwrap();
            assert_eq!(
                results, oracle_results,
                "{}: threaded results diverge from oracle",
                meta.name
            );
            thread_snapshots.push(snapshot);
        }

        // No duplicate specializations: the global count matches the
        // oracle exactly, and every suppressed racer is accounted for.
        let s = shared.stats();
        assert_eq!(
            s.specializations, oracle_specs,
            "{}: single-flight failed to suppress duplicate specializations",
            meta.name
        );
        assert_eq!(
            s.single_flight_fallbacks, 0,
            "{}: blocking policy",
            meta.name
        );

        // Byte-identical code under the same (site, key) bindings.
        for snapshot in thread_snapshots {
            assert_eq!(
                normalize(snapshot),
                oracle_code,
                "{}: shared cache diverges from oracle cache",
                meta.name
            );
        }
        assert_eq!(
            shared.n_sites(),
            reps_independent_site_count(&mut program.dynamic_session(), w.as_ref().as_ref(), reps),
            "{}: internal promotion sites diverge from oracle",
            meta.name
        );
    }
}

/// The oracle's site count after the same sequence (entry sites plus
/// internal promotions).
fn reps_independent_site_count(sess: &mut Session, w: &dyn Workload, reps: usize) -> usize {
    run_sequence(w, sess, reps);
    sess.runtime().map(|rt| rt.n_sites()).unwrap_or(0)
}

#[test]
fn traced_threads_match_untraced_oracle_and_stay_allocation_free() {
    // Tracing is observational: with per-thread recorders on, every
    // thread must produce the same results and the same cached code
    // bytes as the untraced single-threaded oracle, keep the warm
    // dispatch path allocation-free, and actually record events.
    for w in all() {
        let meta = w.meta();
        let program = Compiler::new()
            .compile(&w.source())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", meta.name));
        let reps = n_reps();

        let mut oracle = program.dynamic_session();
        let oracle_results = run_sequence(w.as_ref(), &mut oracle, reps);
        let oracle_specs = oracle.rt_stats().unwrap().specializations;
        let oracle_code = normalize(oracle.cached_code());

        // The same source with per-thread recorders on.
        let traced = Compiler::with_config(OptConfig {
            trace: true,
            ..OptConfig::all()
        })
        .compile(&w.source())
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", meta.name));
        let shared = traced.shared_runtime();
        let threads = n_threads();
        let w = Arc::new(w);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let w = Arc::clone(&w);
                let shared = Arc::clone(&shared);
                let sess = traced.threaded_session(&shared);
                std::thread::spawn(move || {
                    let mut sess = sess;
                    let wl = w.as_ref().as_ref();
                    let args = wl.setup_region(&mut sess);
                    sess.set_step_limit(200_000_000);
                    let results = run_invocations(wl, &mut sess, &args, reps);
                    let warm_base = sess.rt_stats().unwrap().clone();
                    run_invocations(wl, &mut sess, &args, 2);
                    let warm = sess.rt_stats().unwrap().delta(&warm_base);
                    assert_eq!(
                        warm.dispatch_allocs,
                        0,
                        "{}: traced warm dispatch allocated",
                        wl.meta().name
                    );
                    (results, sess.cached_code(), sess.trace_events())
                })
            })
            .collect();

        for h in handles {
            let (results, snapshot, events) = h.join().unwrap();
            assert_eq!(
                results, oracle_results,
                "{}: traced results diverge from oracle",
                meta.name
            );
            assert_eq!(
                normalize(snapshot),
                oracle_code,
                "{}: traced cache diverges from oracle cache",
                meta.name
            );
            // Every thread dispatched, so every thread recorded.
            assert!(
                events
                    .iter()
                    .any(|e| e.kind.category() == dyc::obs::Category::Dispatch),
                "{}: traced thread recorded no dispatch events",
                meta.name
            );
        }
        assert_eq!(
            shared.stats().specializations,
            oracle_specs,
            "{}: tracing changed the specialization count",
            meta.name
        );
    }
}

#[test]
fn fallback_policy_matches_oracle_results_on_all_workloads() {
    // The Fallback miss policy trades specialization for latency on
    // races; results must still be identical everywhere.
    for w in all() {
        let meta = w.meta();
        let program = Compiler::new()
            .compile(&w.source())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", meta.name));
        let reps = n_reps().min(3);

        let mut oracle = program.dynamic_session();
        let oracle_results = run_sequence(w.as_ref(), &mut oracle, reps);

        let shared = program.shared_runtime_with(SharedOptions {
            miss_policy: MissPolicy::Fallback,
            ..SharedOptions::default()
        });
        let threads = n_threads().min(4);
        let w = Arc::new(w);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let w = Arc::clone(&w);
                let shared = Arc::clone(&shared);
                let sess = program.threaded_session(&shared);
                std::thread::spawn(move || {
                    let mut sess = sess;
                    run_sequence(w.as_ref().as_ref(), &mut sess, reps)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(
                h.join().unwrap(),
                oracle_results,
                "{}: fallback-policy results diverge from oracle",
                meta.name
            );
        }
    }
}
