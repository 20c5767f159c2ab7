//! A cache-hit region entry never touches the heap, and a miss allocates
//! only what it publishes (DESIGN.md §9).
//!
//! The binary installs a counting global allocator. Counting is armed
//! per thread, so allocations made by other tests running in parallel,
//! or by this test outside the armed window, are not counted. The
//! region is the serving harness's `serve(key, x)`: once every key has
//! been specialized, further calls are dispatch hits, and the whole call
//! (argument passing, frames, dispatch, the specialized body, return)
//! must allocate nothing, through the single-threaded runtime and
//! through one thread of the shared runtime alike.
//!
//! A miss reuses the dispatch core's specialization scratch, static
//! frame included (each unit's store is decoded from its interned key),
//! so once it has grown, what a miss still allocates is what it
//! publishes: the module copy of the code and its name (formatting the
//! name grows it once), and the cache and clock copies of the key — plus,
//! in the shared runtime, the registry copy, the flight and its key. The
//! churn tests pin that count on a bounded site whose tables are already
//! full, so every miss also evicts.

use dyc::{Compiler, Session, Value};
use dyc_bench::traffic::{expected, serve_source};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when they can no longer be read.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            COUNT.with(|c| c.set(c.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only const-initialized thread-locals,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    COUNT.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    COUNT.with(Cell::get)
}

const KEYS: i64 = 16;

/// Specialize every key, then count the allocations of two rounds of
/// warm calls, one call per key each.
fn warm_call_allocations(mut sess: Session) -> [u64; 2] {
    let round = |sess: &mut Session| {
        for key in 0..KEYS {
            let out = sess.run("serve", &[Value::I(key), Value::I(3)]);
            assert_eq!(out, Ok(Some(Value::I(expected(key, 3)))), "serve({key}, 3)");
        }
    };
    round(&mut sess);
    let specs = sess.rt_stats().expect("dynamic session").specializations;
    let counts = [
        allocations(|| round(&mut sess)),
        allocations(|| round(&mut sess)),
    ];
    assert_eq!(
        sess.rt_stats().expect("dynamic session").specializations,
        specs,
        "warm calls must all hit"
    );
    counts
}

#[test]
fn warm_serve_through_a_dynamic_session_allocates_nothing() {
    let program = Compiler::new().compile(&serve_source(None)).unwrap();
    // The single-threaded store grows a double-hash table on the first
    // lookup after the insert that filled it to half load (here the
    // 16th key in 32 slots), hit or miss: one allocation per doubling,
    // paid by the first warm call. Every later warm call allocates
    // nothing.
    assert_eq!(warm_call_allocations(program.dynamic_session()), [1, 0]);
}

#[test]
fn warm_serve_through_a_threaded_session_allocates_nothing() {
    let program = Compiler::new().compile(&serve_source(None)).unwrap();
    let shared = program.shared_runtime();
    assert_eq!(
        warm_call_allocations(program.threaded_session(&shared)),
        [0, 0]
    );
}

/// Keys specialized before counting, so the tables and the scratch have
/// grown (and the 256-entry site has been evicting for a while).
const WARM_KEYS: i64 = 2_000;
/// Misses counted, each on a key never seen before.
const FRESH_KEYS: i64 = 1_000;

/// Warm `sess` with [`WARM_KEYS`] distinct keys, then count the
/// allocations of [`FRESH_KEYS`] misses, each result checked.
fn churn_miss_allocations(mut sess: Session) -> u64 {
    let call = |sess: &mut Session, key: i64| {
        let out = sess.run("serve", &[Value::I(key), Value::I(3)]);
        assert_eq!(out, Ok(Some(Value::I(expected(key, 3)))), "serve({key}, 3)");
    };
    for key in 0..WARM_KEYS {
        call(&mut sess, key);
    }
    let specs = sess.rt_stats().expect("dynamic session").specializations;
    let count = allocations(|| {
        for key in WARM_KEYS..WARM_KEYS + FRESH_KEYS {
            call(&mut sess, key);
        }
    });
    assert_eq!(
        sess.rt_stats().expect("dynamic session").specializations,
        specs + FRESH_KEYS as u64,
        "every fresh key misses"
    );
    assert!(
        count <= 16 * FRESH_KEYS as u64,
        "{count} allocations over {FRESH_KEYS} misses: more than 16 per miss"
    );
    count
}

#[test]
fn churn_misses_through_a_dynamic_session_allocate_only_what_they_publish() {
    let program = Compiler::new().compile(&serve_source(Some(256))).unwrap();
    // 5.0 per miss; 16.0 while each unit edge built a `BTreeMap` store,
    // 137.4 before the specialization scratch.
    assert_eq!(churn_miss_allocations(program.dynamic_session()), 5_005);
}

#[test]
fn churn_misses_through_a_threaded_session_allocate_only_what_they_publish() {
    let program = Compiler::new().compile(&serve_source(Some(256))).unwrap();
    let shared = program.shared_runtime();
    // 11.0 per miss (22.0 with `BTreeMap` stores, 143.4 before the
    // specialization scratch): the shared runtime also publishes the
    // registry copy of the code, and a flight keyed in its wait-map.
    assert_eq!(
        churn_miss_allocations(program.threaded_session(&shared)),
        11_003
    );
}
