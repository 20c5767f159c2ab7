//! §4.4.3 dispatch-cost analysis: unchecked vs hash-table dispatching.
//!
//! "An unchecked dispatch requires about 10 cycles … a general-purpose
//! hash-table-based dispatch (supporting the default cache-all policy)
//! requires on average 90 cycles. In mipsi, this figure rises to 150
//! cycles per dispatch, due to collisions in its hash table."

use dyc::{Compiler, OptConfig, Value};

const SRC: &str = r#"
    int region(int key, int d) {
        make_static(key);
        return key * 3 + d;
    }
    int region_unchecked(int key, int d) {
        make_static(key: cache_one_unchecked);
        return key * 3 + d;
    }
"#;

fn per_dispatch(func: &str, keys: &[i64]) -> f64 {
    let p = Compiler::with_config(OptConfig::all())
        .compile(SRC)
        .unwrap();
    let mut d = p.dynamic_session();
    // Warm: compile one version per key value.
    for &k in keys {
        d.run(func, &[Value::I(k), Value::I(1)]).unwrap();
    }
    let before = d.stats().dispatch_cycles;
    let allocs_warm = d.rt_stats().unwrap().dispatch_allocs;
    let reps = 1000;
    for i in 0..reps {
        let k = keys[i % keys.len()];
        d.run(func, &[Value::I(k), Value::I(2)]).unwrap();
    }
    assert_eq!(
        d.rt_stats().unwrap().dispatch_allocs,
        allocs_warm,
        "{func}: steady-state dispatch touched the heap"
    );
    (d.stats().dispatch_cycles - before) as f64 / reps as f64
}

/// Concurrent analogue: `threads` threads over one shared runtime, each
/// performing warm dispatches on `keys`. Returns (cycles/dispatch on one
/// thread, shared snapshot).
fn per_dispatch_shared(threads: usize, keys: &[i64]) -> (f64, dyc_rt::ConcSnapshot) {
    let p = Compiler::with_config(OptConfig::all())
        .compile(SRC)
        .unwrap();
    let shared = p.shared_runtime();
    let sessions: Vec<_> = (0..threads).map(|_| p.threaded_session(&shared)).collect();
    let per_thread: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .map(|mut d| {
                scope.spawn(move || {
                    for &k in keys {
                        d.run("region", &[Value::I(k), Value::I(1)]).unwrap();
                    }
                    let before = d.stats().dispatch_cycles;
                    let allocs_warm = d.rt_stats().unwrap().dispatch_allocs;
                    let reps = 1000;
                    for i in 0..reps {
                        let k = keys[i % keys.len()];
                        d.run("region", &[Value::I(k), Value::I(2)]).unwrap();
                    }
                    assert_eq!(
                        d.rt_stats().unwrap().dispatch_allocs,
                        allocs_warm,
                        "shared steady-state dispatch touched the heap"
                    );
                    (d.stats().dispatch_cycles - before) as f64 / reps as f64
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    (per_thread[0], shared.stats())
}

fn main() {
    println!("Dispatch cost per region entry (cycles), reproduction of §4.4.3\n");
    let unchecked = per_dispatch("region_unchecked", &[7]);
    println!("cache-one-unchecked (load + indirect jump) : {unchecked:>6.1}   (paper: ~10)");
    let hashed_one = per_dispatch("region", &[7]);
    println!("cache-all, single cached version           : {hashed_one:>6.1}   (paper: ~90)");
    let many: Vec<i64> = (0..1500).collect();
    let hashed_many = per_dispatch("region", &many);
    println!("cache-all, 1500 live versions              : {hashed_many:>6.1}   (paper: up to ~150 in mipsi)");
    println!();
    println!("Concurrent extension (sharded cache, blocking single-flight):\n");
    for (threads, nkeys) in [(1usize, 64usize), (4, 64), (8, 64)] {
        let keys: Vec<i64> = (0..nkeys as i64).collect();
        let (cy, s) = per_dispatch_shared(threads, &keys);
        let (lookups, probes) = s
            .shards
            .iter()
            .fold((0u64, 0u64), |(l, p), m| (l + m.lookups, p + m.probes));
        let per_lookup = probes as f64 / lookups.max(1) as f64;
        println!(
            "sharded cache-all, {threads} thread(s), {nkeys} versions : {cy:>6.1}   \
             ({per_lookup:.2} probes/lookup, {} waits, {} dup specs suppressed)",
            s.single_flight_waits,
            s.single_flight_suppressed()
        );
        assert_eq!(
            s.specializations, nkeys as u64,
            "single-flight must collapse every duplicate specialization"
        );
        assert!(
            per_lookup <= 1.5,
            "{per_lookup:.2} probes per shared-cache lookup: the shard hash clusters"
        );
    }
    println!();
    println!("The modeled per-dispatch cycle cost is thread-count-invariant — the");
    println!("hit path hashes its key once, reads one shard without a lock and");
    println!("shares the §4.4.3 hashed-dispatch cost model — so contention shows");
    println!("up only in the meters (single-flight waits) and in wall-clock time,");
    println!("not in guest cycles.\n");
    println!("The unchecked policy is unsafe if the annotated value actually varies;");
    println!("§4.4.3 notes most programs can use the safe cache-all policy without");
    println!("sacrificing much performance — except regions entered per simulated");
    println!("instruction, like m88ksim's breakpoint check. Our double-hash table");
    println!("keeps its load factor under 0.5, so extra probes are rare even with");
    println!("1500 live versions; each extra probe is metered at 30 cycles (the");
    println!("mipsi-style 150-cycle dispatches appear under collision clustering,");
    println!("exercised directly in dyc-rt's cost tests).");
}
