//! Additional generative tests (fixed-seed SplitMix64 streams, so every
//! run tests the same corpus):
//!
//! * the independent AST reference interpreter agrees with the compiled
//!   builds (a third oracle that does not share the IR/VM code paths);
//! * the lexer never panics on arbitrary input;
//! * the pretty printer round-trips generated programs;
//! * the double-hash dynamic-code cache behaves like a map.

use dyc::{Compiler, Value};
use dyc_lang::{parse_program, pretty, EvalValue, Evaluator};
use dyc_rt::DoubleHashCache;
use dyc_vm::FuncId;
use dyc_workloads::rng::SplitMix64;
use std::collections::HashMap;

/// Reuses the structured generator idea from `tests/equivalence.rs`, but
/// with a smaller variable universe (kept local: the two suites evolve
/// independently).
fn expr(rng: &mut SplitMix64, depth: u32) -> String {
    if depth == 0 || rng.gen_range(0i64..3) == 0 {
        return match rng.gen_range(0i64..5) {
            0 => rng.gen_range(-9i64..9).to_string(),
            1 => "p0".to_string(),
            2 => "p1".to_string(),
            3 => "x".to_string(),
            _ => "a[iabs(x) % 4]".to_string(),
        };
    }
    match rng.gen_range(0i64..3) {
        0 => {
            let op = ["+", "-", "*"][rng.gen_range(0i64..3) as usize];
            let l = expr(rng, depth - 1);
            let r = expr(rng, depth - 1);
            format!("({l} {op} {r})")
        }
        1 => format!("({} % {})", expr(rng, depth - 1), rng.gen_range(1i64..5)),
        _ => {
            let op = if rng.gen_range(0i64..2) == 0 {
                "<"
            } else {
                "=="
            };
            let l = expr(rng, depth - 1);
            let r = expr(rng, depth - 1);
            format!("({l} {op} {r})")
        }
    }
}

fn stmt(rng: &mut SplitMix64, depth: u32) -> String {
    if depth == 0 || rng.gen_range(0i64..3) == 0 {
        return match rng.gen_range(0i64..3) {
            0 => format!("x = {};", expr(rng, 2)),
            1 => format!("a[{}] = {};", rng.gen_range(0i64..4), expr(rng, 2)),
            _ => format!("print_int({});", expr(rng, 1)),
        };
    }
    match rng.gen_range(0i64..3) {
        0 => {
            let c = expr(rng, 1);
            let t = stmt(rng, depth - 1);
            let f = stmt(rng, depth - 1);
            format!("if ({c}) {{ {t} }} else {{ {f} }}")
        }
        1 => {
            let n = rng.gen_range(1i64..4);
            let b = stmt(rng, depth - 1);
            format!("{{ int t = 0; while (t < {n}) {{ {b} t = t + 1; }} }}")
        }
        _ => {
            let a = stmt(rng, depth - 1);
            let b = stmt(rng, depth - 1);
            format!("{a} {b}")
        }
    }
}

fn program(rng: &mut SplitMix64) -> String {
    let n = rng.gen_range(1i64..4);
    let stmts: Vec<String> = (0..n).map(|_| stmt(rng, 2)).collect();
    format!(
        r#"
        int f(int p0, int p1, int a[4]) {{
            int x = 0;
            make_static(p0);
            {}
            return x + a[0] - a[3];
        }}
        "#,
        stmts.join("\n                ")
    )
}

/// Three-way oracle: AST interpreter vs static build vs dynamic build.
#[test]
fn reference_interpreter_agrees_with_both_builds() {
    let mut rng = SplitMix64::seed_from_u64(0x0A_AC1E);
    for case in 0..48 {
        let src = program(&mut rng);
        let p0 = rng.gen_range(-5i64..5);
        let p1 = rng.gen_range(-20i64..20);
        let mem: Vec<i64> = (0..4).map(|_| rng.gen_range(-9i64..9)).collect();

        // Reference semantics.
        let ast = parse_program(&src).unwrap();
        let mut ev = Evaluator::new(&ast, 4);
        ev.set_step_limit(1_000_000);
        ev.write_ints(0, &mem);
        let reference = ev.call("f", &[EvalValue::I(p0), EvalValue::I(p1), EvalValue::I(0)]);

        let compiled = Compiler::new().compile(&src).unwrap();
        for dynamic in [false, true] {
            let mut sess = if dynamic {
                compiled.dynamic_session()
            } else {
                compiled.static_session()
            };
            sess.set_step_limit(2_000_000);
            let a = sess.alloc(4);
            sess.mem().write_ints(a, &mem);
            let got = sess.run("f", &[Value::I(p0), Value::I(p1), Value::I(a)]);
            match (&reference, &got) {
                (Ok(Some(EvalValue::I(r))), Ok(Some(Value::I(g)))) => {
                    assert_eq!(r, g, "case {case}: build dynamic={dynamic} of:\n{src}");
                    // Printed output and memory must match too.
                    let ref_out: Vec<i64> = ev
                        .output
                        .iter()
                        .map(|v| match v {
                            EvalValue::I(i) => *i,
                            EvalValue::F(f) => *f as i64,
                        })
                        .collect();
                    let got_out: Vec<i64> = sess.output().iter().map(|v| v.as_i()).collect();
                    assert_eq!(ref_out, got_out, "case {case}: output of:\n{src}");
                    assert_eq!(
                        ev.read_ints(0, 4),
                        sess.mem().read_ints(a, 4),
                        "case {case}: memory of:\n{src}"
                    );
                }
                (Err(_), Err(_)) => {}
                (r, g) => panic!("case {case}: ref {r:?} vs compiled {g:?}\n{src}"),
            }
        }
    }
}

/// The lexer is total: arbitrary bytes never panic it.
#[test]
fn lexer_never_panics() {
    let mut rng = SplitMix64::seed_from_u64(0x0BAD_1EE7);
    for _ in 0..256 {
        let len = rng.gen_range(0i64..120) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        // Both raw-ish ASCII and arbitrary (lossily decoded) bytes.
        let _ = dyc_lang::lex(&String::from_utf8_lossy(&bytes));
        let ascii: String = bytes.iter().map(|b| (b % 0x60 + 0x20) as char).collect();
        let _ = dyc_lang::lex(&ascii);
    }
}

/// Pretty-printing a generated program re-parses to the same AST.
#[test]
fn pretty_round_trip() {
    let mut rng = SplitMix64::seed_from_u64(0x0091_8777);
    for case in 0..48 {
        let src = program(&mut rng);
        let ast1 = parse_program(&src).unwrap();
        let printed = pretty::program_to_string(&ast1);
        let ast2 = parse_program(&printed).unwrap();
        assert_eq!(ast1, ast2, "case {case}: printed:\n{printed}");
    }
}

/// The double-hash code cache behaves exactly like a map from key
/// vectors to function ids.
#[test]
fn code_cache_is_a_map() {
    let mut rng = SplitMix64::seed_from_u64(0xCAC4E);
    for _ in 0..32 {
        let n_ops = rng.gen_range(1i64..200);
        let ops: Vec<(Vec<u64>, u32)> = (0..n_ops)
            .map(|_| {
                let klen = rng.gen_range(1i64..3);
                let key: Vec<u64> = (0..klen).map(|_| rng.gen_range(0i64..32) as u64).collect();
                (key, rng.gen_range(0i64..64) as u32)
            })
            .collect();
        let mut cache = DoubleHashCache::new();
        let mut model: HashMap<Vec<u64>, u32> = HashMap::new();
        for (key, fid) in &ops {
            // Interleave lookups and inserts.
            let expected = model.get(key).map(|v| FuncId(*v));
            assert_eq!(cache.lookup(key).value, expected);
            cache.insert(key, FuncId(*fid));
            model.insert(key.clone(), *fid);
        }
        for (key, fid) in &model {
            assert_eq!(cache.lookup(key).value, Some(FuncId(*fid)));
        }
        assert_eq!(cache.len(), model.len());
    }
}
