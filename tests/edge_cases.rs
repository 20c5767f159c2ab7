//! Edge cases of the specialization machinery: recursion through dynamic
//! regions, float-valued keys, repeated promotion, mid-region
//! `make_dynamic`, and the one documented semantics deviation (the
//! NaN/zero-propagation interaction DyC shares).

use dyc::{Compiler, OptConfig, Session, Value, VmError};

#[test]
fn recursive_dynamic_region_specializes_per_depth() {
    // The recursive call goes through the driver stub, so each exponent
    // value gets its own specialization, built lazily as recursion
    // descends — a chain of cache misses the first time, all hits after.
    let src = r#"
        int rpow(int b, int e) {
            make_static(e);
            if (e == 0) { return 1; }
            return b * rpow(b, e - 1);
        }
    "#;
    let p = Compiler::new().compile(src).unwrap();
    let mut d = p.dynamic_session();
    assert_eq!(
        d.run("rpow", &[Value::I(3), Value::I(5)]).unwrap(),
        Some(Value::I(243))
    );
    let rt = d.rt_stats().unwrap();
    assert_eq!(rt.specializations, 6, "e = 5, 4, 3, 2, 1, 0");
    // Second call: every level hits the cache.
    assert_eq!(
        d.run("rpow", &[Value::I(2), Value::I(5)]).unwrap(),
        Some(Value::I(32))
    );
    assert_eq!(d.rt_stats().unwrap().specializations, 6);
}

#[test]
fn float_valued_specialization_keys() {
    let src = r#"
        float area(float r, float h) {
            make_static(r);
            return 3.14159265358979 * r * r + h;
        }
    "#;
    let p = Compiler::new().compile(src).unwrap();
    let mut d = p.dynamic_session();
    let a1 = d
        .run("area", &[Value::F(2.0), Value::F(1.0)])
        .unwrap()
        .unwrap()
        .as_f();
    let a2 = d
        .run("area", &[Value::F(2.0), Value::F(5.0)])
        .unwrap()
        .unwrap()
        .as_f();
    let a3 = d
        .run("area", &[Value::F(3.0), Value::F(1.0)])
        .unwrap()
        .unwrap()
        .as_f();
    assert!((a1 - (std::f64::consts::PI * 4.0 + 1.0)).abs() < 1e-3);
    assert!((a2 - a1 - 4.0).abs() < 1e-12);
    assert!(a3 > a1);
    // r == 2.0 twice (one version), r == 3.0 once (another).
    assert_eq!(d.rt_stats().unwrap().specializations, 2);
    // pi * r * r folds completely: no run-time multiplies for the r part.
    let code = d.disassemble_matching("area$spec");
    assert!(!code.contains("fmul"), "{code}");
}

#[test]
fn negative_and_extreme_keys() {
    let src = "int f(int k, int d) { make_static(k); return k * d; }";
    let p = Compiler::new().compile(src).unwrap();
    let mut d = p.dynamic_session();
    for k in [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX] {
        let out = d.run("f", &[Value::I(k), Value::I(3)]).unwrap();
        assert_eq!(out, Some(Value::I(k.wrapping_mul(3))), "k = {k}");
    }
    assert_eq!(d.rt_stats().unwrap().specializations, 5);
}

#[test]
fn promote_the_same_variable_repeatedly() {
    // Each promotion re-keys on the current value; the second promote of
    // an already-static variable is a no-op.
    let src = r#"
        int f(int a, int b, int d) {
            int x = 0;
            make_static(d);
            x = a;
            promote(x);
            int first = x * d;
            x = b;
            promote(x);
            return first + x * d;
        }
    "#;
    let p = Compiler::new().compile(src).unwrap();
    let mut s = p.static_session();
    let mut dd = p.dynamic_session();
    for (a, b) in [(2i64, 3i64), (5, 7), (2, 7)] {
        let sv = s
            .run("f", &[Value::I(a), Value::I(b), Value::I(10)])
            .unwrap();
        let dv = dd
            .run("f", &[Value::I(a), Value::I(b), Value::I(10)])
            .unwrap();
        assert_eq!(sv, dv);
        assert_eq!(sv, Some(Value::I(a * 10 + b * 10)));
    }
    assert!(dd.rt_stats().unwrap().internal_promotions >= 2);
}

#[test]
fn make_dynamic_inside_a_loop_body() {
    // The static value crosses into run time on every unrolled iteration.
    let src = r#"
        int f(int n, int d) {
            make_static(n);
            int acc = 0;
            int i = 0;
            while (i < n) {
                int copy = n;
                make_dynamic(copy);
                acc = acc + copy * d;
                i = i + 1;
            }
            return acc;
        }
    "#;
    let p = Compiler::new().compile(src).unwrap();
    let mut s = p.static_session();
    let mut d = p.dynamic_session();
    for n in [0i64, 1, 4] {
        let sv = s.run("f", &[Value::I(n), Value::I(7)]).unwrap();
        let dv = d.run("f", &[Value::I(n), Value::I(7)]).unwrap();
        assert_eq!(sv, dv, "n = {n}");
        assert_eq!(sv, Some(Value::I(n * n * 7)));
    }
}

#[test]
fn empty_region_and_annotation_of_unused_variable() {
    let src = "int f(int k, int d) { make_static(k); return d; }";
    let p = Compiler::new().compile(src).unwrap();
    let mut d = p.dynamic_session();
    assert_eq!(
        d.run("f", &[Value::I(1), Value::I(9)]).unwrap(),
        Some(Value::I(9))
    );
    assert_eq!(
        d.run("f", &[Value::I(2), Value::I(9)]).unwrap(),
        Some(Value::I(9))
    );
    // k is dead, so the dispatch key is empty after the live-variable
    // restriction ("only hash on the subset of live static variables",
    // §4.4.3)… but the cache still keys on the promoted values, so both
    // calls are correct either way.
    assert!(d.rt_stats().unwrap().specializations <= 2);
}

/// The documented deviation DyC shares (§2.2.7): dynamic *zero*
/// propagation folds `x * 0.0` to `0.0`, which differs from IEEE when `x`
/// is NaN or infinite. The static build preserves the NaN; the dynamic
/// build folds it away.
#[test]
fn zero_propagation_nan_deviation_is_as_documented() {
    let src = r#"
        float f(float k, float x) {
            make_static(k);
            return x * k;
        }
    "#;
    let p = Compiler::new().compile(src).unwrap();
    let mut s = p.static_session();
    let mut d = p.dynamic_session();
    let nan = f64::NAN;
    let sv = s
        .run("f", &[Value::F(0.0), Value::F(nan)])
        .unwrap()
        .unwrap()
        .as_f();
    let dv = d
        .run("f", &[Value::F(0.0), Value::F(nan)])
        .unwrap()
        .unwrap()
        .as_f();
    assert!(sv.is_nan(), "IEEE: NaN * 0.0 is NaN");
    assert_eq!(
        dv, 0.0,
        "zero propagation assumes finite operands, as in DyC"
    );
    // Strength reduction also clears multiplies by 0.0 ("the multiply can
    // be replaced with a clear instruction", §2.2.7); with *both*
    // value-dependent optimizations disabled, the builds agree bit for bit.
    let cfg = OptConfig::all()
        .without("zero_copy_propagation")
        .unwrap()
        .without("strength_reduction")
        .unwrap();
    let p2 = Compiler::with_config(cfg).compile(src).unwrap();
    let mut d2 = p2.dynamic_session();
    let dv2 = d2
        .run("f", &[Value::F(0.0), Value::F(nan)])
        .unwrap()
        .unwrap()
        .as_f();
    assert!(dv2.is_nan());
}

#[test]
fn dispatch_keys_distinguish_float_bit_patterns() {
    let src = "float f(float k, float x) { make_static(k); return x + k; }";
    let p = Compiler::new().compile(src).unwrap();
    let mut d = p.dynamic_session();
    d.run("f", &[Value::F(0.0), Value::F(1.0)]).unwrap();
    d.run("f", &[Value::F(-0.0), Value::F(1.0)]).unwrap();
    // 0.0 and -0.0 are distinct keys (distinct bit patterns) — two cached
    // versions, both correct.
    assert_eq!(d.rt_stats().unwrap().specializations, 2);
}

#[test]
fn deep_static_call_chains_execute_at_compile_time() {
    let src = r#"
        static int twice(int x) { return x * 2; }
        static int quad(int x) { return twice(twice(x)); }
        int f(int n, int d) {
            make_static(n);
            return quad(n) + d;
        }
    "#;
    let p = Compiler::new().compile(src).unwrap();
    let mut d = p.dynamic_session();
    assert_eq!(
        d.run("f", &[Value::I(5), Value::I(1)]).unwrap(),
        Some(Value::I(21))
    );
    // Only the outer call is a static call from the region's perspective;
    // the nested ones run inside it on the VM.
    assert_eq!(d.rt_stats().unwrap().static_calls, 1);
    let code = d.disassemble_matching("f$spec");
    assert!(!code.contains("call"), "no residual calls:\n{code}");
}

#[test]
fn region_faults_surface_as_dispatch_errors() {
    // A static division by zero happens at specialization time.
    let src = "int f(int k, int d) { make_static(k); return d / (100 / k); }";
    let p = Compiler::new().compile(src).unwrap();
    let mut d = p.dynamic_session();
    // k = 200 makes 100 / k == 0 at *run* time (dynamic divide), but
    // 100 / k itself is static: it executes during specialization and is
    // fine (== 0); the residual d / 0 faults at run time.
    let err = d.run("f", &[Value::I(200), Value::I(5)]).unwrap_err();
    assert_eq!(err, dyc::VmError::DivideByZero);
    // k = 0 faults inside the specializer (static 100 / 0).
    let err = d.run("f", &[Value::I(0), Value::I(5)]).unwrap_err();
    assert!(matches!(err, dyc::VmError::Dispatch(_)), "{err:?}");
}

#[test]
fn out_of_bounds_guest_accesses_are_errors_in_every_session() {
    // `buf` is the only allocation, so `buf[-1]` and `buf[n]` are outside
    // data memory. The store's index is dynamic (a fault of the emitted
    // code); the load's index is static, so a dynamic session performs it
    // while specializing.
    let src = "int f(int buf[], int n, int k, int i, int v) {
        make_static(buf, n, k);
        int t = buf@[k];
        buf[i] = v + t;
        return t + n;
    }";
    const N: i64 = 4;
    let cases = [
        (0, -1, VmError::OutOfBounds(-1)),
        (0, N, VmError::OutOfBounds(N)),
        (-1, 0, VmError::OutOfBounds(-1)),
        (N, 0, VmError::OutOfBounds(N)),
    ];
    let check = |mut sess: Session, what: &str| {
        let buf = sess.alloc(N as usize);
        assert_eq!(buf, 0, "{what}: buf is the only allocation");
        let args = |k: i64, i: i64| {
            [
                Value::I(buf),
                Value::I(N),
                Value::I(k),
                Value::I(i),
                Value::I(7),
            ]
        };
        for (k, i, want) in &cases {
            let got = sess.run("f", &args(*k, *i));
            assert_eq!(got, Err(want.clone()), "{what}: k = {k}, i = {i}");
            assert_eq!(
                sess.mem().read_ints(buf, N as usize),
                [0; 4],
                "{what}: nothing written"
            );
        }
        // The session still runs in-bounds calls, keys that faulted included.
        assert_eq!(sess.run("f", &args(0, 1)), Ok(Some(Value::I(N))), "{what}");
        assert_eq!(
            sess.mem().read_ints(buf, N as usize),
            [0, 7, 0, 0],
            "{what}"
        );
        if let Some(rt) = sess.rt_stats() {
            assert!(rt.static_loads > 0, "{what}: the load is static");
        }
    };
    let program = Compiler::new().compile(src).unwrap();
    check(program.static_session(), "static");
    check(program.dynamic_session(), "dynamic");
    let shared = program.shared_runtime();
    check(program.threaded_session(&shared), "threaded");
    let native = Compiler::with_config(OptConfig {
        native: true,
        ..OptConfig::all()
    })
    .compile(src)
    .unwrap();
    check(native.dynamic_session(), "native");
}
