//! Evicted code is freed only once no VM frame can hold it.
//!
//! A bounded `cache_all(k)` site evicts the coldest specialization to
//! make room, and the runtime removes the evicted function from the
//! module — but not while a frame of the run that evicted it may still
//! be executing it. Here a recursive region under `cache_all(1)` makes
//! every level specialize a new key and evict its caller's code while the
//! caller's frame is suspended in a call; when the call returns, the
//! caller resumes in the evicted code. Freeing it at eviction would leave
//! that frame running a freed slot (or, once the slot is reused, another
//! level's code), so every result is checked against the statically
//! compiled build.

use dyc::{Compiler, OptConfig, Session, Value};

/// Each level bakes its own `n` into the code that runs after the
/// recursive call returns.
const WALK: &str = "
int walk(int n, int x) {
    make_static(n: cache_all(1));
    if (n <= 0) { return x; }
    int r = walk(n - 1, x * 3 + n);
    return r * 2 + n * 7 + x;
}";

/// Deepest recursion the test drives.
const DEPTH: i64 = 6;

/// Run `walk` over a sweep of depths and arguments on `sess`, checking
/// each result against `reference`, and the module against its bound on
/// top of the base functions: the one cached specialization, plus what
/// one run retires — the previous run's cached code and a victim per
/// level.
fn check(mut sess: Session, reference: &mut Session) {
    let base = sess.module_len();
    for round in 0..3 {
        for n in 0..=DEPTH {
            for x in [-2i64, 0, 5] {
                let args = [Value::I(n), Value::I(x)];
                let want = reference.run("walk", &args).unwrap();
                let got = sess.run("walk", &args);
                assert_eq!(got, Ok(want), "round {round}: walk({n}, {x})");
                assert!(
                    sess.module_len() <= base + 2 + DEPTH as usize,
                    "round {round}: {} functions over {base} base functions",
                    sess.module_len()
                );
            }
        }
    }
    let rt = sess.rt_stats().expect("dynamic session");
    assert!(rt.cache_evictions > 0, "every level must evict its caller");
}

#[test]
fn evicted_callers_resume_in_their_own_code() {
    let program = Compiler::new().compile(WALK).unwrap();
    let mut reference = program.static_session();
    check(program.dynamic_session(), &mut reference);
    let shared = program.shared_runtime();
    check(program.threaded_session(&shared), &mut reference);
    let native = Compiler::with_config(OptConfig {
        native: true,
        ..OptConfig::all()
    })
    .compile(WALK)
    .unwrap();
    check(native.dynamic_session(), &mut reference);
}

/// An unbounded site the tests invalidate.
const POW: &str = "
int pow(int b, int e) {
    make_static(e);
    int r = 1;
    while (e > 0) { r = r * b; e = e - 1; }
    return r;
}";

/// Specialize four keys of `pow` on `sess`.
fn four_keys(sess: &mut Session) {
    for e in 0..4 {
        let out = sess.run("pow", &[Value::I(3), Value::I(e)]);
        assert_eq!(out, Ok(Some(Value::I(3i64.pow(e as u32)))));
    }
}

#[test]
fn invalidated_code_is_freed_by_the_next_dispatch() {
    let program = Compiler::new().compile(POW).unwrap();
    // The single-threaded runtime retires what an invalidation drops;
    // the next dispatch's miss removes it from the module.
    let mut sess = program.dynamic_session();
    let base = sess.module_len();
    four_keys(&mut sess);
    assert_eq!(sess.module_len(), base + 4);
    sess.runtime().unwrap().invalidate_site(0);
    assert_eq!(sess.module_len(), base + 4);
    four_keys(&mut sess);
    assert_eq!(sess.module_len(), base + 4);

    // The shared runtime frees the registry slots at once; a thread
    // frees its copies when it republishes into the slots.
    let shared = program.shared_runtime();
    let mut sess = program.threaded_session(&shared);
    four_keys(&mut sess);
    shared.invalidate_site(0);
    let s = shared.stats();
    assert_eq!(
        (s.published, s.registry_live, s.registry_high_water),
        (4, 0, 4)
    );
    four_keys(&mut sess);
    let s = shared.stats();
    assert_eq!(
        (s.published, s.registry_live, s.registry_high_water),
        (8, 4, 4)
    );
    assert!(sess.module_len() <= base + 4 + 2);
}
