//! Every miss of a runtime reuses the same specialization scratch (the
//! dispatch core's tables: unit interner, labels, fixups, static frame,
//! register map, rename table, emit buffer, worklist, unit graph), so
//! nothing may carry from one miss to the next — not even from a
//! specialization that aborted half-way through its generating extension.
//!
//! Five regions whose functions differ in vreg and division counts take
//! turns missing in one runtime, interleaved with a key whose
//! specialization divides by zero statically. Two of them load the static
//! frame from more than an integer key: `sign` carries a static float
//! across its unrolled loop's unit edges, which its keys make -0.0, +0.0
//! and infinity, and `promo` misses at an internal promotion site, whose
//! base store holds a static int and float. Each miss must install the
//! code a fresh runtime builds for that key alone, instruction for
//! instruction, and move the specialization meters exactly as much;
//! through the single-threaded runtime and a one-thread shared runtime
//! alike.

use dyc::{CodeFunc, Compiler, Program, RtStats, Session, Value, VmError};

const SOURCE: &str = r#"
    int tiny(int k, int x) {
        make_static(k);
        int d = 7 - x;
        int acc = x;
        int i = k % 4 + 1;
        while (i > 0) { acc = acc * 3 + k + i; i = i - 1; }
        if (x > 100) { acc = acc + 1; }
        int y = x;
        int q = 100 / (k - 3);
        if (x > 50) { y = y + d; }
        return acc + q + d + y;
    }
    int step(int k, int x) {
        make_static(k);
        return x * k;
    }
    int sign(int k, int x) {
        make_static(k);
        float f = (float) k * 0.0;
        if (k > 100) { f = 1.0 / f; }
        int acc = x;
        int i = 3;
        while (i > 0) {
            if (1.0 / f < 0.0) { acc = acc * 2 + i; } else { acc = acc * 3 - i; }
            if (f > 1.0) { acc = acc + 7; }
            i = i - 1;
        }
        return acc;
    }
    int promo(int x, int k) {
        make_static(k);
        float s = (float) k * 0.5;
        int j = x * 2 + k;
        make_static(j);
        return j * k + (int) s + x;
    }
    int search(int n, int x) {
        make_static(n);
        int lo = 0;
        int hi = n;
        int steps = 0;
        while (lo < hi) {
            int mid = (lo + hi) / 2;
            if (x < mid) { hi = mid; } else { lo = mid + 1; }
            steps = steps + 1;
        }
        return lo * 100 + steps;
    }
"#;

/// `tiny`'s key whose specialization aborts: `100 / (k - 3)` is static,
/// and evaluated only after the loop's units have been emitted, while
/// the dynamic branch's other side still waits on the worklist and the
/// dynamic copy `y = x` just before it has left an alias pending.
const ABORTING: i64 = 3;

/// The second argument of every call: dynamic, except in `promo`, where
/// it is the entry key.
const X: i64 = 4;

/// `promo`'s first argument in the call that specializes its entry, so
/// that every `promo` call in [`CALLS`] misses at its internal site only.
const PROMO_WARM: i64 = 1000;

/// The misses, in order: every region, each key new to the runtime, and
/// the aborting key three times (a failed specialization caches nothing,
/// so each call misses again), the first two times followed by a miss
/// with fewer units than the aborted one had interned, the second time
/// in `step`, which has fewer vregs than the pending alias's number, and
/// the third time by `sign`, whose frame holds a float.
const CALLS: [(&str, i64); 20] = [
    ("tiny", 5),
    ("sign", -4),
    ("search", 7),
    ("promo", 1),
    ("tiny", ABORTING),
    ("tiny", 0),
    ("sign", 200),
    ("search", 12),
    ("promo", -9),
    ("tiny", -6),
    ("step", 2),
    ("tiny", ABORTING),
    ("step", 9),
    ("search", 3),
    ("tiny", ABORTING),
    ("sign", 3),
    ("promo", 30),
    ("tiny", 10),
    ("search", 20),
    ("sign", -77),
];

fn expected(func: &str, key: i64) -> i64 {
    match func {
        "tiny" => {
            let mut acc = X;
            let mut i = key % 4 + 1;
            while i > 0 {
                acc = acc * 3 + key + i;
                i -= 1;
            }
            let y = if X > 50 { X + (7 - X) } else { X };
            acc + 100 / (key - 3) + (7 - X) + y
        }
        "step" => X * key,
        "sign" => {
            // -0.0 for a negative key, +0.0 up to 100, infinity above.
            let mut f = key as f64 * 0.0;
            if key > 100 {
                f = 1.0 / f;
            }
            let mut acc = X;
            for i in (1..=3).rev() {
                acc = if 1.0 / f < 0.0 {
                    acc * 2 + i
                } else {
                    acc * 3 - i
                };
                if f > 1.0 {
                    acc += 7;
                }
            }
            acc
        }
        "promo" => {
            let j = key * 2 + X;
            j * X + (X as f64 * 0.5) as i64 + key
        }
        _ => {
            let (mut lo, mut hi, mut steps) = (0, key, 0);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if X < mid {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
                steps += 1;
            }
            lo * 100 + steps
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Local,
    Threaded,
}

/// A new session with `promo`'s entry specialized: the one internal site
/// that creates is the session's first, so its id is the same in every
/// session.
fn session(program: &Program, kind: Kind) -> Session {
    let mut sess = match kind {
        Kind::Local => program.dynamic_session(),
        Kind::Threaded => program.threaded_session(&program.shared_runtime()),
    };
    let out = sess.run("promo", &[Value::I(PROMO_WARM), Value::I(X)]);
    assert_eq!(out, Ok(Some(Value::I(expected("promo", PROMO_WARM)))));
    sess
}

/// The specialization meters a miss moves: `(units_emitted,
/// loops_unrolled, divisions_observed, dae_removed, instrs_generated,
/// dyncomp_cycles)`, and the sticky `multi_way_unroll` flag.
fn meters(s: &RtStats) -> ([u64; 6], bool) {
    (
        [
            s.units_emitted,
            s.loops_unrolled,
            s.divisions_observed,
            s.dae_removed,
            s.instrs_generated,
            s.dyncomp_cycles,
        ],
        s.multi_way_unroll,
    )
}

/// The code a call installed: the cached bindings `after` has and
/// `before` lacks, without the module-local name and address.
fn installed(
    before: &[(u32, Vec<u64>, CodeFunc)],
    after: Vec<(u32, Vec<u64>, CodeFunc)>,
) -> Vec<(u32, Vec<u64>, CodeFunc)> {
    after
        .into_iter()
        .filter(|(s, k, _)| !before.iter().any(|(s0, k0, _)| (s0, k0) == (s, k)))
        .map(|(s, k, f)| {
            let f = CodeFunc {
                name: String::new(),
                base_addr: 0,
                ..f
            };
            (s, k, f)
        })
        .collect()
}

/// What one miss did: its result, the code it installed and its meter
/// deltas (the flag as it reads after the call).
type Miss = (
    Result<Option<Value>, VmError>,
    Vec<(u32, Vec<u64>, CodeFunc)>,
    [u64; 6],
    bool,
);

fn miss(sess: &mut Session, func: &str, key: i64) -> Miss {
    let stats = |s: &Session| meters(s.rt_stats().expect("dynamic session"));
    let (m0, _) = stats(sess);
    let code0 = sess.cached_code();
    let result = sess.run(func, &[Value::I(key), Value::I(X)]);
    let (m1, flag) = stats(sess);
    let delta = std::array::from_fn(|i| m1[i] - m0[i]);
    (result, installed(&code0, sess.cached_code()), delta, flag)
}

fn reuse_matches_fresh_runtimes(kind: Kind) {
    let program = Compiler::new().compile(SOURCE).unwrap();
    let mut reused = session(&program, kind);
    let mut aborts = 0;
    for (func, key) in CALLS {
        let flag_before = reused.rt_stats().unwrap().multi_way_unroll;
        let (result, code, delta, flag) = miss(&mut reused, func, key);
        let (fresh_result, fresh_code, fresh_delta, fresh_flag) =
            miss(&mut session(&program, kind), func, key);
        let at = format!("{kind:?} {func}({key})");

        assert_eq!(result, fresh_result, "{at}: result");
        if key == ABORTING && func == "tiny" {
            assert!(result.is_err(), "{at}: the static division aborts");
            assert!(code.is_empty(), "{at}: an aborted miss installs nothing");
            aborts += 1;
        } else {
            assert_eq!(result, Ok(Some(Value::I(expected(func, key)))), "{at}");
            assert_eq!(code.len(), 1, "{at}: one new binding");
        }
        assert_eq!(code, fresh_code, "{at}: installed code");
        assert_eq!(delta, fresh_delta, "{at}: meter deltas");
        assert_eq!(flag, flag_before || fresh_flag, "{at}: multi-way flag");
    }
    assert_eq!(aborts, 3);
    let stats = reused.rt_stats().unwrap();
    assert!(
        stats.loops_unrolled > 0 && stats.multi_way_unroll,
        "{kind:?}"
    );
}

#[test]
fn reused_scratch_matches_fresh_runtimes_through_a_dynamic_session() {
    reuse_matches_fresh_runtimes(Kind::Local);
}

#[test]
fn reused_scratch_matches_fresh_runtimes_through_a_threaded_session() {
    reuse_matches_fresh_runtimes(Kind::Threaded);
}
