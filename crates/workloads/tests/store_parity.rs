//! Store parity: the single-threaded runtime and a one-thread concurrent
//! runtime are the same dispatch protocol over two code stores, so on the
//! same invocation sequence they must agree on everything observable —
//! results, cached code, every run-time and VM meter (the cycle model
//! included), and the traced event stream's shape.
//!
//! The single-threaded meaning is the reference: the cycle-model gate,
//! the benchmark's policy economics and the fuzz oracle's
//! `specs + defers + throttles == dispatch_misses` invariant all pin it.

use dyc::obs::{Event, ALL_KINDS};
use dyc::{CodeFunc, Compiler, OptConfig, PolicyMode, Session, Value};
use dyc_workloads::rng::SplitMix64;
use dyc_workloads::{all, Workload};

/// Region invocations per session.
const REPS: usize = 6;

/// Set up the workload's inputs and run `REPS` checked region
/// invocations; returns the results in order.
fn run_sequence(w: &dyn Workload, sess: &mut Session) -> Vec<Option<Value>> {
    let meta = w.meta();
    let args = w.setup_region(sess);
    sess.set_step_limit(200_000_000);
    (0..REPS)
        .map(|_| {
            let r = sess
                .run(meta.region_func, &args)
                .unwrap_or_else(|e| panic!("{}: region run failed: {e}", meta.name));
            assert!(w.check_region(r, sess), "{}: wrong result", meta.name);
            w.reset(sess, &args);
            r
        })
        .collect()
}

/// Cached bindings in a comparable form: sorted, without the
/// module-local name and address.
fn normalize(mut entries: Vec<(u32, Vec<u64>, CodeFunc)>) -> Vec<(u32, Vec<u64>, String)> {
    entries.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    entries
        .into_iter()
        .map(|(s, k, f)| {
            let code = format!("params={} regs={} code={:?}", f.n_params, f.n_regs, f.code);
            (s, k, code)
        })
        .collect()
}

/// Recorded events per kind, in `ALL_KINDS` order.
fn kind_counts(events: &[Event]) -> Vec<(&'static str, usize)> {
    ALL_KINDS
        .iter()
        .map(|k| (k.name(), events.iter().filter(|e| e.kind == *k).count()))
        .collect()
}

#[test]
fn local_and_shared_stores_agree_on_every_workload() {
    for mode in [PolicyMode::Always, PolicyMode::Adaptive] {
        let cfg = OptConfig {
            trace: true,
            ..OptConfig::all().with_policy(mode)
        };
        for w in all() {
            let name = format!("{} ({mode:?})", w.meta().name);
            let program = Compiler::with_config(cfg)
                .compile(&w.source())
                .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));

            let mut local = program.dynamic_session();
            let local_results = run_sequence(w.as_ref(), &mut local);
            let shared = program.shared_runtime();
            let mut thread = program.threaded_session(&shared);
            let thread_results = run_sequence(w.as_ref(), &mut thread);

            assert_eq!(local_results, thread_results, "{name}: results");
            assert_eq!(
                normalize(local.cached_code()),
                normalize(thread.cached_code()),
                "{name}: cached code"
            );
            assert_eq!(local.rt_stats(), thread.rt_stats(), "{name}: RtStats");
            assert_eq!(local.stats(), thread.stats(), "{name}: VM stats");
            assert_eq!(
                kind_counts(&local.trace_events()),
                kind_counts(&thread.trace_events()),
                "{name}: trace events per kind"
            );
        }
    }
}

/// A `cache_all(4)` site under random reuse over nine keys: admissions
/// sweep past recently used entries and evict. Both stores run the one
/// second-chance clock, so after every call they hold the same keys, and
/// they specialize and evict alike (in `Adaptive` mode the policy also
/// grows the bound). Probe counts are the two hash tables' own: under
/// eviction churn their tombstones differ.
#[test]
fn bounded_sites_evict_the_same_keys_in_both_stores() {
    let src = "int poly(int x, int d) { make_static(x: cache_all(4)); return x * d; }";
    let keys = |sess: &Session| {
        let mut keys: Vec<Vec<u64>> = sess.cached_code().into_iter().map(|e| e.1).collect();
        keys.sort();
        keys
    };
    for mode in [PolicyMode::Always, PolicyMode::Adaptive] {
        let cfg = OptConfig {
            policy: mode,
            ..OptConfig::all()
        };
        let program = Compiler::with_config(cfg).compile(src).unwrap();
        let mut local = program.dynamic_session();
        let shared = program.shared_runtime();
        let mut thread = program.threaded_session(&shared);
        let mut rng = SplitMix64::seed_from_u64(7);
        for call in 0..300 {
            let args = [Value::I(rng.gen_range(0..9i64)), Value::I(call)];
            let want = local.run("poly", &args).unwrap();
            assert_eq!(want, Some(Value::I(args[0].as_i() * call)));
            assert_eq!(thread.run("poly", &args), Ok(want), "{mode:?}: call {call}");
            assert_eq!(keys(&local), keys(&thread), "{mode:?}: call {call}");
        }
        let counts = |sess: &Session| {
            let rt = sess.rt_stats().unwrap();
            let policy = (rt.policy_defers, rt.policy_promotes);
            (
                rt.specializations,
                rt.cache_evictions,
                rt.dyncomp_cycles,
                policy,
            )
        };
        assert!(counts(&local).1 > 0, "{mode:?}: nothing evicted");
        assert_eq!(counts(&local), counts(&thread), "{mode:?}");
    }
}
