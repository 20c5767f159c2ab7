//! The 4-way differential oracle.
//!
//! Every test case runs through four executions of the same DyCL source:
//!
//! | path    | build                                      | specialization   |
//! |---------|--------------------------------------------|------------------|
//! | interp  | `static_session()` (annotations compiled away) | none         |
//! | online  | `OptConfig::all().without("staged_ge")`    | run-time BTA     |
//! | staged  | `OptConfig::all().without("template_fusion")` | GE executor   |
//! | fused   | `OptConfig::all()`                         | copy-and-patch   |
//!
//! and the oracle asserts that the three dynamic paths are *pure*
//! refinements of each other and of the reference interpreter:
//!
//! * identical results, printed output, and final memory, four ways
//!   (floats compared with `==`, so DyC's `x*0.0 → 0.0` fold is allowed
//!   to canonicalize a negative zero; non-finite observables skip the
//!   case — the paper's optimizations assume finite floats);
//! * byte-identical disassembly of the whole specialized module across
//!   the three dynamic paths;
//! * `RtStats` agreement modulo the cycle meters (`normalized`),
//!   `runtime_bta_calls == 0` on both staged paths and `> 0` online
//!   whenever specialization happened, template instructions only on the
//!   fused path, and the overhead ordering fused ≤ unfused ≤ online;
//! * dispatch accounting balances: per-policy dispatch counts sum to the
//!   VM's dispatch count, and specializations equal dispatch misses;
//! * steady state is allocation-free: re-running the first tuple moves
//!   neither `specializations` nor `dispatch_allocs`;
//! * threaded equivalence: four threads over one shared concurrent
//!   runtime (blocking single-flight) reproduce the fused path's
//!   results, output, memory, cached `(site, key, code)` bindings, and
//!   global specialization count exactly;
//! * trace equivalence: a fifth, fused run with the event recorder on
//!   reproduces the fused path's observables, emitted code bytes, and
//!   *every* `RtStats` counter (tracing is observational), while
//!   recording events whenever specialization happened;
//! * snapshot equivalence: a sixth run warm-started from the fused
//!   session's cache bundle restores every cached binding
//!   (`cache_warm_loads` equals the snapshot size, zero rejects),
//!   reproduces the fused observables, re-specializes nothing when the
//!   cold cache saw no evictions or invalidations, and ends with
//!   instruction-identical cached code — while a bundle with one
//!   corrupted entry fingerprint loses exactly that entry (rejected and
//!   metered, never fatal) and still computes exact results;
//! * native equivalence: a seventh, fused run through the native x86-64
//!   backend (`OptConfig::native`) reproduces the fused path's results,
//!   output, and writable-array contents tuple for tuple, and on hosts
//!   with the backend actually installs machine code whenever it
//!   specializes (the suite's specialized ISA is fully lowerable);
//! * policy equivalence: an eighth, fused run under the adaptive
//!   specialization policy (`PolicyMode::Adaptive`) reproduces the
//!   fused path's results, output, and writable-array contents tuple
//!   for tuple — deferral changes *when* code is generated, never what
//!   a dispatch computes — its adaptive accounting balances
//!   (specializations + deferrals + throttles = dispatch misses), and
//!   every binding it did specialize is byte-identical to the
//!   always-specialize path's code for that binding.

use crate::gen::{ScalarArg, TestCase, ARRAY_LEN, TARGET};
use dyc::{
    CacheBundle, CodeFunc, Compiler, OptConfig, PolicyMode, Program, RtStats, Session, Value,
};
use dyc_lang::pretty::program_to_string;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Step budget per invocation — converts a runaway loop (a generator or
/// lowering bug) into a comparable `StepLimit` error instead of a hang.
const STEP_LIMIT: u64 = 10_000_000;

const PATHS: [&str; 4] = ["interp", "online", "staged", "fused"];

/// An oracle violation: the smallest unit the shrinker preserves is the
/// [`Violation::kind`] label, so a shrink step may not turn one failure
/// into a different one.
#[derive(Debug, Clone)]
pub enum Violation {
    /// The rendered program failed to compile on some path.
    Compile { path: &'static str, msg: String },
    /// A path panicked (compiler, runtime, or VM).
    Crash { path: &'static str, msg: String },
    /// Paths disagreed on whether (or how) the run fails.
    ErrorMismatch { tuple: usize, details: String },
    /// Paths returned different values.
    ResultMismatch { tuple: usize, details: String },
    /// Paths printed different output.
    OutputMismatch { tuple: usize, details: String },
    /// Paths left different contents in the writable array.
    MemoryMismatch { tuple: usize, details: String },
    /// The three dynamic paths emitted different specialized code.
    CodeMismatch { details: String },
    /// Normalized `RtStats` diverged between dynamic paths.
    StatsMismatch { details: String },
    /// A runtime invariant failed (dispatch accounting, staged-zero-BTA,
    /// overhead ordering, steady-state allocation-freedom, ...).
    Invariant { details: String },
    /// Threads over a shared concurrent runtime diverged from the fused
    /// single-threaded path (results, memory, cached code, or the
    /// global specialization count).
    ThreadMismatch { details: String },
    /// Enabling event tracing changed an observable: results, output,
    /// memory, emitted code bytes, or any `RtStats` counter — or a
    /// traced run that specialized recorded no events at all.
    TraceMismatch { details: String },
    /// A session warm-started from the fused path's snapshot bundle
    /// diverged: wrong warm-load accounting, different observables,
    /// re-specialization of restored keys, non-identical cached code —
    /// or a corrupted bundle entry that was not rejected per-entry.
    WarmMismatch { details: String },
    /// The native x86-64 backend diverged from the fused VM path:
    /// different results, output, or writable-array contents — or a
    /// host with the backend that specialized without installing any
    /// machine code.
    NativeMismatch { tuple: usize, details: String },
    /// The adaptive specialization policy diverged from the fused
    /// always-specialize path: different results, output, or
    /// writable-array contents, unbalanced adaptive accounting, or a
    /// specialized binding whose code is not byte-identical to the
    /// always path's code for the same binding.
    PolicyMismatch { tuple: usize, details: String },
}

impl Violation {
    /// A stable label naming the failure class; shrinking preserves it.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Compile { .. } => "compile",
            Violation::Crash { .. } => "crash",
            Violation::ErrorMismatch { .. } => "error-mismatch",
            Violation::ResultMismatch { .. } => "result-mismatch",
            Violation::OutputMismatch { .. } => "output-mismatch",
            Violation::MemoryMismatch { .. } => "memory-mismatch",
            Violation::CodeMismatch { .. } => "code-mismatch",
            Violation::StatsMismatch { .. } => "stats-mismatch",
            Violation::Invariant { .. } => "invariant",
            Violation::ThreadMismatch { .. } => "thread-mismatch",
            Violation::TraceMismatch { .. } => "trace-mismatch",
            Violation::WarmMismatch { .. } => "warm-mismatch",
            Violation::NativeMismatch { .. } => "native-mismatch",
            Violation::PolicyMismatch { .. } => "policy-mismatch",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Compile { path, msg } => write!(f, "compile error on {path}: {msg}"),
            Violation::Crash { path, msg } => write!(f, "panic on {path}: {msg}"),
            Violation::ErrorMismatch { tuple, details } => {
                write!(f, "error mismatch on tuple {tuple}: {details}")
            }
            Violation::ResultMismatch { tuple, details } => {
                write!(f, "result mismatch on tuple {tuple}: {details}")
            }
            Violation::OutputMismatch { tuple, details } => {
                write!(f, "output mismatch on tuple {tuple}: {details}")
            }
            Violation::MemoryMismatch { tuple, details } => {
                write!(f, "memory mismatch on tuple {tuple}: {details}")
            }
            Violation::CodeMismatch { details } => write!(f, "code mismatch: {details}"),
            Violation::StatsMismatch { details } => write!(f, "stats mismatch: {details}"),
            Violation::Invariant { details } => write!(f, "invariant violation: {details}"),
            Violation::ThreadMismatch { details } => write!(f, "thread mismatch: {details}"),
            Violation::TraceMismatch { details } => write!(f, "trace mismatch: {details}"),
            Violation::WarmMismatch { details } => write!(f, "warm-start mismatch: {details}"),
            Violation::NativeMismatch { tuple, details } => {
                write!(f, "native mismatch on tuple {tuple}: {details}")
            }
            Violation::PolicyMismatch { tuple, details } => {
                write!(f, "policy mismatch on tuple {tuple}: {details}")
            }
        }
    }
}

/// Optimization features the case actually exercised (from the fused
/// path's counters) — the fuzzer's coverage report aggregates these.
#[derive(Debug, Clone, Copy, Default)]
pub struct Coverage {
    pub specialized: bool,
    pub unrolled: bool,
    pub promoted: bool,
    pub templated: bool,
    pub indexed_dispatch: bool,
    pub unchecked_dispatch: bool,
    pub polyvariant: bool,
    pub static_loads: bool,
    pub static_calls: bool,
    pub branches_folded: bool,
    pub zero_copy_folds: bool,
}

/// The outcome of a clean (non-violating) case.
#[derive(Debug, Clone, Default)]
pub struct CaseReport {
    /// Which features fired.
    pub coverage: Coverage,
    /// `Some(reason)` if the case was skipped (non-finite float
    /// observable) rather than fully checked.
    pub skipped: Option<String>,
}

/// Zero the fields the dynamic paths are *allowed* to differ on — the
/// cycle split, the run-time-analysis counter, and the template meters —
/// mirroring `tests/staged_differential.rs`.
fn normalized(rt: &RtStats) -> RtStats {
    RtStats {
        dyncomp_cycles: 0,
        ge_exec_cycles: 0,
        emit_cycles: 0,
        runtime_bta_calls: 0,
        template_instrs: 0,
        holes_patched: 0,
        template_copy_cycles: 0,
        hole_patch_cycles: 0,
        template_fallbacks: 0,
        ..rt.clone()
    }
}

fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::I(x), Value::I(y)) => x == y,
        // `==` deliberately: the zero-fold may canonicalize -0.0 to 0.0.
        // NaN observables never reach this point (the case is skipped).
        (Value::F(x), Value::F(y)) => x == y || x.to_bits() == y.to_bits(),
        _ => false,
    }
}

fn values_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| value_eq(x, y))
}

fn non_finite(v: &Value) -> bool {
    matches!(v, Value::F(f) if !f.is_finite())
}

fn fmt_vals(vs: &[Value]) -> String {
    let parts: Vec<String> = vs
        .iter()
        .map(|v| match v {
            Value::I(i) => i.to_string(),
            Value::F(f) => format!("{f:?}"),
        })
        .collect();
    format!("[{}]", parts.join(", "))
}

/// One path's per-tuple observation.
struct Obs {
    result: Result<Option<Value>, String>,
    output: Vec<Value>,
    wbuf: Option<Vec<i64>>,
}

struct Path {
    name: &'static str,
    sess: Session,
    arr_base: Option<i64>,
    wbuf_base: Option<i64>,
}

impl Path {
    fn invoke(&mut self, case: &TestCase, tuple: &[ScalarArg]) -> Result<Obs, Violation> {
        // Reset the writable array so every invocation — including the
        // steady-state re-run — sees identical memory, keeping promoted
        // keys repeatable.
        if let (Some(base), Some(init)) = (self.wbuf_base, case.wbuf.as_ref()) {
            self.sess.mem().write_ints(base, init);
        }
        self.sess.take_output();
        let mut args: Vec<Value> = tuple
            .iter()
            .map(|a| match a {
                ScalarArg::I(v) => Value::I(*v),
                ScalarArg::F(v) => Value::F(*v),
            })
            .collect();
        if let Some(base) = self.arr_base {
            args.push(Value::I(base));
            args.push(Value::I(ARRAY_LEN as i64));
        }
        if let Some(base) = self.wbuf_base {
            args.push(Value::I(base));
            args.push(Value::I(ARRAY_LEN as i64));
        }
        let name = self.name;
        let ran = catch_unwind(AssertUnwindSafe(|| self.sess.run(TARGET, &args)));
        let result = match ran {
            Err(payload) => {
                return Err(Violation::Crash {
                    path: name,
                    msg: panic_message(&payload),
                })
            }
            Ok(r) => r.map_err(|e| e.to_string()),
        };
        let output = self.sess.take_output();
        let wbuf = self
            .wbuf_base
            .map(|base| self.sess.mem().read_ints(base, ARRAY_LEN));
        Ok(Obs {
            result,
            output,
            wbuf,
        })
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn build_path(
    name: &'static str,
    case: &TestCase,
    src: &str,
    cfg: OptConfig,
    dynamic: bool,
) -> Result<Path, Violation> {
    let program = catch_unwind(AssertUnwindSafe(|| Compiler::with_config(cfg).compile(src)))
        .map_err(|p| Violation::Crash {
            path: name,
            msg: format!("compiler panic: {}", panic_message(&p)),
        })?
        .map_err(|e| Violation::Compile {
            path: name,
            msg: e.to_string(),
        })?;
    let mut sess = if dynamic {
        program.dynamic_session()
    } else {
        program.static_session()
    };
    sess.set_step_limit(STEP_LIMIT);
    let arr_base = case.arr.as_ref().map(|init| {
        let base = sess.alloc(ARRAY_LEN);
        sess.mem().write_ints(base, init);
        base
    });
    let wbuf_base = case.wbuf.as_ref().map(|_| sess.alloc(ARRAY_LEN));
    Ok(Path {
        name,
        sess,
        arr_base,
        wbuf_base,
    })
}

/// Run one case through all four paths and check every oracle property.
///
/// # Errors
///
/// Returns the first [`Violation`] found.
pub fn run_case(case: &TestCase) -> Result<CaseReport, Box<Violation>> {
    let src = program_to_string(&case.program);
    run_case_src(case, &src)
}

fn run_case_src(case: &TestCase, src: &str) -> Result<CaseReport, Box<Violation>> {
    let fused_cfg = OptConfig::all();
    let unfused_cfg = OptConfig::all()
        .without("template_fusion")
        .expect("feature name");
    let online_cfg = OptConfig::all().without("staged_ge").expect("feature name");

    let mut paths = [
        build_path("interp", case, src, fused_cfg, false)?,
        build_path("online", case, src, online_cfg, true)?,
        build_path("staged", case, src, unfused_cfg, true)?,
        build_path("fused", case, src, fused_cfg, true)?,
    ];

    // Data memory layout must agree or address-typed arguments diverge
    // for reasons that have nothing to do with specialization.
    for p in &paths[1..] {
        if p.arr_base != paths[0].arr_base || p.wbuf_base != paths[0].wbuf_base {
            return Err(Box::new(Violation::Invariant {
                details: format!("allocation bases diverged between interp and {}", p.name),
            }));
        }
    }

    let mut report = CaseReport::default();
    let mut tuple0_ok = true;
    let mut fused_obs: Vec<Obs> = Vec::with_capacity(case.tuples.len());
    for (t, tuple) in case.tuples.iter().enumerate() {
        let mut obs: Vec<Obs> = Vec::with_capacity(4);
        for p in paths.iter_mut() {
            obs.push(p.invoke(case, tuple)?);
        }
        let n_err = obs.iter().filter(|o| o.result.is_err()).count();
        if n_err > 0 {
            if t == 0 {
                tuple0_ok = false;
            }
            // All four must fail, and identically: a fault (division by
            // zero, step limit) is an observable like any other.
            let msgs: Vec<&String> = obs.iter().filter_map(|o| o.result.as_ref().err()).collect();
            if n_err < 4 || msgs.windows(2).any(|w| w[0] != w[1]) {
                let details = obs
                    .iter()
                    .enumerate()
                    .map(|(i, o)| format!("{}: {:?}", PATHS[i], o.result))
                    .collect::<Vec<_>>()
                    .join("; ");
                return Err(Box::new(Violation::ErrorMismatch { tuple: t, details }));
            }
            fused_obs.push(obs.pop().expect("four observations"));
            continue;
        }

        // Skip (not fail) on non-finite observables: every float-folding
        // rule in the paper assumes finite arithmetic.
        let observables_nonfinite = obs.iter().any(|o| {
            o.result
                .as_ref()
                .ok()
                .and_then(|r| r.as_ref())
                .is_some_and(non_finite)
                || o.output.iter().any(non_finite)
        });
        if observables_nonfinite {
            report.skipped = Some(format!("non-finite float observable on tuple {t}"));
            return Ok(report);
        }

        let r0 = obs[0].result.as_ref().ok().unwrap();
        for (i, o) in obs.iter().enumerate().skip(1) {
            let ri = o.result.as_ref().ok().unwrap();
            let same = match (r0, ri) {
                (None, None) => true,
                (Some(a), Some(b)) => value_eq(a, b),
                _ => false,
            };
            if !same {
                return Err(Box::new(Violation::ResultMismatch {
                    tuple: t,
                    details: format!("interp: {r0:?} vs {}: {ri:?}", PATHS[i]),
                }));
            }
            if !values_eq(&obs[0].output, &o.output) {
                return Err(Box::new(Violation::OutputMismatch {
                    tuple: t,
                    details: format!(
                        "interp: {} vs {}: {}",
                        fmt_vals(&obs[0].output),
                        PATHS[i],
                        fmt_vals(&o.output)
                    ),
                }));
            }
            if obs[0].wbuf != o.wbuf {
                return Err(Box::new(Violation::MemoryMismatch {
                    tuple: t,
                    details: format!("interp: {:?} vs {}: {:?}", obs[0].wbuf, PATHS[i], o.wbuf),
                }));
            }
        }
        fused_obs.push(obs.pop().expect("four observations"));
    }

    // Steady state: the first tuple has been run twice already (tuples
    // ends with a repeat); a third run must move neither the
    // specialization counter nor the dispatch allocator.
    if tuple0_ok {
        for p in paths.iter_mut().skip(1) {
            let before = p.sess.rt_stats().expect("dynamic path").clone();
            p.invoke(case, &case.tuples[0])?;
            let after = p.sess.rt_stats().expect("dynamic path");
            if after.specializations != before.specializations {
                return Err(Box::new(Violation::Invariant {
                    details: format!(
                        "{}: steady-state re-run respecialized ({} -> {})",
                        p.name, before.specializations, after.specializations
                    ),
                }));
            }
            if after.dispatch_allocs != before.dispatch_allocs {
                return Err(Box::new(Violation::Invariant {
                    details: format!(
                        "{}: steady-state re-run allocated ({} -> {})",
                        p.name, before.dispatch_allocs, after.dispatch_allocs
                    ),
                }));
            }
        }
    }

    // Byte-identical code across the three dynamic paths: stubs plus
    // every dynamically generated `$spec` function.
    let online_code = paths[1].sess.disassemble_matching("");
    for p in &paths[2..] {
        let code = p.sess.disassemble_matching("");
        if code != online_code {
            return Err(Box::new(Violation::CodeMismatch {
                details: format!("online and {} emitted different code", p.name),
            }));
        }
    }

    // Runtime-statistics invariants.
    let online = paths[1].sess.rt_stats().expect("dynamic path").clone();
    let staged = paths[2].sess.rt_stats().expect("dynamic path").clone();
    let fused = paths[3].sess.rt_stats().expect("dynamic path").clone();

    for p in &paths[1..] {
        let rt = p.sess.rt_stats().expect("dynamic path");
        let vm = p.sess.stats();
        let served = rt.dispatch_unchecked + rt.dispatch_hashed + rt.dispatch_indexed;
        if served != vm.dispatches {
            return Err(Box::new(Violation::Invariant {
                details: format!(
                    "{}: dispatch accounting off: {} + {} + {} != {} dispatches",
                    p.name,
                    rt.dispatch_unchecked,
                    rt.dispatch_hashed,
                    rt.dispatch_indexed,
                    vm.dispatches
                ),
            }));
        }
        if rt.specializations != vm.dispatch_misses {
            return Err(Box::new(Violation::Invariant {
                details: format!(
                    "{}: specializations {} != dispatch misses {}",
                    p.name, rt.specializations, vm.dispatch_misses
                ),
            }));
        }
    }

    for (name, rt) in [("staged", &staged), ("fused", &fused)] {
        if rt.runtime_bta_calls != 0 {
            return Err(Box::new(Violation::Invariant {
                details: format!(
                    "{name}: staged path performed {} run-time BTA calls",
                    rt.runtime_bta_calls
                ),
            }));
        }
        if name == "staged" && rt.template_instrs != 0 {
            return Err(Box::new(Violation::Invariant {
                details: "staged (unfused) path reported template instructions".into(),
            }));
        }
    }
    if online.template_instrs != 0 {
        return Err(Box::new(Violation::Invariant {
            details: "online path reported template instructions".into(),
        }));
    }
    if online.specializations > 0 {
        if online.runtime_bta_calls == 0 {
            return Err(Box::new(Violation::Invariant {
                details: "online path specialized without run-time BTA calls".into(),
            }));
        }
        // Staging never costs more than online specialization; ties
        // happen on regions trivial enough that the run-time analysis
        // contributes no measured cycles.
        if staged.dyncomp_cycles > online.dyncomp_cycles {
            return Err(Box::new(Violation::Invariant {
                details: format!(
                    "staged overhead {} > online overhead {}",
                    staged.dyncomp_cycles, online.dyncomp_cycles
                ),
            }));
        }
    }
    if fused.dyncomp_cycles > staged.dyncomp_cycles {
        return Err(Box::new(Violation::Invariant {
            details: format!(
                "template fusion made dynamic compilation dearer: {} > {}",
                fused.dyncomp_cycles, staged.dyncomp_cycles
            ),
        }));
    }

    let (n_online, n_staged, n_fused) =
        (normalized(&online), normalized(&staged), normalized(&fused));
    if n_staged != n_online {
        return Err(Box::new(Violation::StatsMismatch {
            details: format!("staged vs online:\n{n_staged:#?}\nvs\n{n_online:#?}"),
        }));
    }
    if n_fused != n_staged {
        return Err(Box::new(Violation::StatsMismatch {
            details: format!("fused vs staged:\n{n_fused:#?}\nvs\n{n_staged:#?}"),
        }));
    }

    check_traced(case, src, &fused_obs, &paths[3], tuple0_ok)?;
    check_threaded(case, src, &fused_obs, &paths[3], &fused)?;
    check_warm(case, src, &fused_obs, &paths[3], &fused)?;
    check_native(case, src, &fused_obs, &paths[3])?;
    check_policy(case, src, &fused_obs, &paths[3], &fused)?;

    report.coverage = Coverage {
        specialized: fused.specializations > 0,
        unrolled: fused.loops_unrolled > 0,
        promoted: fused.internal_promotions > 0,
        templated: fused.template_instrs > 0,
        indexed_dispatch: fused.dispatch_indexed > 0,
        unchecked_dispatch: fused.dispatch_unchecked > 0,
        polyvariant: fused.divisions_observed > 0,
        static_loads: fused.static_loads > 0,
        static_calls: fused.static_calls > 0,
        branches_folded: fused.branches_folded > 0,
        zero_copy_folds: fused.zero_copy_folds > 0,
    };
    Ok(report)
}

/// Trace-equivalence check: a fifth execution of the fused configuration
/// with the event recorder on must be indistinguishable from the
/// untraced fused path — same per-tuple observables, byte-identical
/// emitted code, and `RtStats` equal counter for counter (recording
/// writes only to its own ring, never to the meters). A traced run that
/// specialized must also have actually recorded events.
fn check_traced(
    case: &TestCase,
    src: &str,
    fused_obs: &[Obs],
    fused_path: &Path,
    tuple0_ok: bool,
) -> Result<(), Box<Violation>> {
    let mut cfg = OptConfig::all();
    cfg.trace = true;
    let mut p = build_path("traced", case, src, cfg, true)?;
    if p.arr_base != fused_path.arr_base || p.wbuf_base != fused_path.wbuf_base {
        return Err(Box::new(Violation::TraceMismatch {
            details: "allocation bases diverged from the fused path".into(),
        }));
    }
    for (t, tuple) in case.tuples.iter().enumerate() {
        let o = p.invoke(case, tuple)?;
        let want = &fused_obs[t];
        let same = match (&want.result, &o.result) {
            // Same config, same thread: even the error text must match.
            (Err(a), Err(b)) => a == b,
            (Ok(a), Ok(b)) => match (a, b) {
                (None, None) => true,
                (Some(x), Some(y)) => value_eq(x, y),
                _ => false,
            },
            _ => false,
        };
        if !same {
            return Err(Box::new(Violation::TraceMismatch {
                details: format!(
                    "tuple {t}: fused {:?} vs traced {:?}",
                    want.result, o.result
                ),
            }));
        }
        if want.result.is_err() {
            continue;
        }
        if !values_eq(&want.output, &o.output) {
            return Err(Box::new(Violation::TraceMismatch {
                details: format!(
                    "tuple {t}: fused output {} vs traced {}",
                    fmt_vals(&want.output),
                    fmt_vals(&o.output)
                ),
            }));
        }
        if want.wbuf != o.wbuf {
            return Err(Box::new(Violation::TraceMismatch {
                details: format!(
                    "tuple {t}: fused wbuf {:?} vs traced {:?}",
                    want.wbuf, o.wbuf
                ),
            }));
        }
    }
    // Mirror the fused path's steady-state re-run so the cumulative
    // counters line up tick for tick.
    if tuple0_ok {
        p.invoke(case, &case.tuples[0])?;
    }
    if p.sess.disassemble_matching("") != fused_path.sess.disassemble_matching("") {
        return Err(Box::new(Violation::TraceMismatch {
            details: "tracing changed the emitted code bytes".into(),
        }));
    }
    let fused_rt = fused_path.sess.rt_stats().expect("dynamic path");
    let traced_rt = p.sess.rt_stats().expect("dynamic path");
    if traced_rt != fused_rt {
        return Err(Box::new(Violation::TraceMismatch {
            details: format!("tracing perturbed RtStats:\n{traced_rt:#?}\nvs\n{fused_rt:#?}"),
        }));
    }
    if fused_rt.specializations > 0 && p.sess.trace_events().is_empty() {
        return Err(Box::new(Violation::TraceMismatch {
            details: "traced run specialized but recorded no events".into(),
        }));
    }
    Ok(())
}

/// Threads racing one shared concurrent runtime per case.
const N_THREADS: usize = 4;

/// Cached bindings in comparable form: `(site, key, rendered code)`.
type NormalizedCode = Vec<(u32, Vec<u64>, String)>;

/// Sort cached `(site, key, code)` bindings into a comparable form,
/// dropping the function name and base address (both embed module-local,
/// order-dependent detail that legitimately differs between replicas).
fn normalized_code(mut entries: Vec<(u32, Vec<u64>, CodeFunc)>) -> NormalizedCode {
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

/// Threaded-equivalence check: [`N_THREADS`] threads over one shared
/// concurrent runtime (blocking single-flight policy), each running the
/// whole tuple sequence, must reproduce the fused path's per-tuple
/// observables, end with the fused path's cached bindings
/// instruction-for-instruction, and perform exactly the fused path's
/// number of specializations globally (single-flight suppresses every
/// duplicate). Error tuples must fail on every thread too, though the
/// message may carry a racer's single-flight wrapping.
///
/// Under eviction (a `cache_all(k)` site overflowed on either path) the
/// final cache and the specialization count depend on how the threads
/// interleaved: which keys survive, and how often an evicted key came
/// back. Per-tuple observables still must match, and so must the code of
/// every entry-site key both caches still hold — with internal dispatch
/// sites canonicalized, since a re-specialization numbers the promotion
/// sites it creates afresh.
fn check_threaded(
    case: &TestCase,
    src: &str,
    fused_obs: &[Obs],
    fused_path: &Path,
    fused_rt: &RtStats,
) -> Result<(), Box<Violation>> {
    let program = catch_unwind(AssertUnwindSafe(|| {
        Compiler::with_config(OptConfig::all()).compile(src)
    }))
    .map_err(|p| Violation::Crash {
        path: "threaded",
        msg: format!("compiler panic: {}", panic_message(&p)),
    })?
    .map_err(|e| Violation::Compile {
        path: "threaded",
        msg: e.to_string(),
    })?;
    let shared = program.shared_runtime();
    let fused_code = normalized_code(fused_path.sess.cached_code());

    // Build every thread's session (and its deterministic data-memory
    // layout) up front; threads only run the tuple sequence.
    let mut thread_paths = Vec::with_capacity(N_THREADS);
    for _ in 0..N_THREADS {
        let mut sess = program.threaded_session(&shared);
        sess.set_step_limit(STEP_LIMIT);
        let arr_base = case.arr.as_ref().map(|init| {
            let base = sess.alloc(ARRAY_LEN);
            sess.mem().write_ints(base, init);
            base
        });
        let wbuf_base = case.wbuf.as_ref().map(|_| sess.alloc(ARRAY_LEN));
        if arr_base != fused_path.arr_base || wbuf_base != fused_path.wbuf_base {
            return Err(Box::new(Violation::ThreadMismatch {
                details: "allocation bases diverged from the fused path".into(),
            }));
        }
        thread_paths.push(Path {
            name: "threaded",
            sess,
            arr_base,
            wbuf_base,
        });
    }

    let snapshots: Vec<Result<NormalizedCode, Violation>> = std::thread::scope(|scope| {
        let handles: Vec<_> = thread_paths
            .into_iter()
            .map(|mut p| {
                scope.spawn(move || {
                    for (t, tuple) in case.tuples.iter().enumerate() {
                        let o = p.invoke(case, tuple)?;
                        let want = &fused_obs[t];
                        let same = match (&want.result, &o.result) {
                            // Racers receive the winner's error via the
                            // single-flight wait, possibly rewrapped:
                            // require failure, not the exact message.
                            (Err(_), Err(_)) => true,
                            (Ok(a), Ok(b)) => match (a, b) {
                                (None, None) => true,
                                (Some(x), Some(y)) => value_eq(x, y),
                                _ => false,
                            },
                            _ => false,
                        };
                        if !same {
                            return Err(Violation::ThreadMismatch {
                                details: format!(
                                    "tuple {t}: fused {:?} vs threaded {:?}",
                                    want.result, o.result
                                ),
                            });
                        }
                        if want.result.is_err() {
                            continue;
                        }
                        if !values_eq(&want.output, &o.output) {
                            return Err(Violation::ThreadMismatch {
                                details: format!(
                                    "tuple {t}: fused output {} vs threaded {}",
                                    fmt_vals(&want.output),
                                    fmt_vals(&o.output)
                                ),
                            });
                        }
                        if want.wbuf != o.wbuf {
                            return Err(Violation::ThreadMismatch {
                                details: format!(
                                    "tuple {t}: fused wbuf {:?} vs threaded {:?}",
                                    want.wbuf, o.wbuf
                                ),
                            });
                        }
                    }
                    Ok(normalized_code(p.sess.cached_code()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|p| {
                    Err(Violation::Crash {
                        path: "threaded",
                        msg: panic_message(&p),
                    })
                })
            })
            .collect()
    });

    let stats = shared.stats();
    let evicting = fused_rt.cache_evictions > 0 || stats.cache_evictions > 0;
    for snap in snapshots {
        let code = snap.map_err(Box::new)?;
        if evicting {
            same_entry_code(
                &code,
                &fused_code,
                program.staged().entry_sites.len() as u32,
            )?;
        } else if code != fused_code {
            return Err(Box::new(Violation::ThreadMismatch {
                details: format!(
                    "shared cache diverged from fused cache:\n{code:#?}\nvs\n{fused_code:#?}"
                ),
            }));
        }
    }
    let fused_specs = fused_rt.specializations;
    if !evicting && stats.specializations != fused_specs {
        return Err(Box::new(Violation::ThreadMismatch {
            details: format!(
                "global specializations {} != fused {} (single-flight failed to \
                 suppress duplicates)",
                stats.specializations, fused_specs
            ),
        }));
    }
    if stats.single_flight_fallbacks != 0 {
        return Err(Box::new(Violation::ThreadMismatch {
            details: format!(
                "{} fallbacks under the blocking policy",
                stats.single_flight_fallbacks
            ),
        }));
    }
    Ok(())
}

/// Under eviction: every entry-site key cached by both the shared and the
/// fused cache maps to the same code, internal dispatch sites
/// canonicalized.
fn same_entry_code(
    code: &NormalizedCode,
    fused_code: &NormalizedCode,
    n_entry: u32,
) -> Result<(), Box<Violation>> {
    for (site, key, c) in code.iter().filter(|(s, _, _)| *s < n_entry) {
        let Some((_, _, want)) = fused_code.iter().find(|(s, k, _)| s == site && k == key) else {
            continue;
        };
        let (got, want) = (
            canonicalize_internal_points(c, n_entry),
            canonicalize_internal_points(want, n_entry),
        );
        if got != want {
            return Err(Box::new(Violation::ThreadMismatch {
                details: format!(
                    "site {site} key {key:?}: shared code diverged from fused:\n{got}\nvs\n{want}"
                ),
            }));
        }
    }
    Ok(())
}

/// Build a warm-started [`Path`] from a snapshot bundle string, with the
/// case's data memory laid out exactly as on the fused path.
fn warm_path(case: &TestCase, program: &Program, bundle: &str) -> Result<Path, Box<Violation>> {
    let mut sess = program
        .warm_start_from_str(bundle)
        .map_err(|e| Violation::WarmMismatch {
            details: format!("warm start rejected the bundle wholesale: {e}"),
        })?;
    sess.set_step_limit(STEP_LIMIT);
    let arr_base = case.arr.as_ref().map(|init| {
        let base = sess.alloc(ARRAY_LEN);
        sess.mem().write_ints(base, init);
        base
    });
    let wbuf_base = case.wbuf.as_ref().map(|_| sess.alloc(ARRAY_LEN));
    Ok(Path {
        name: "warm",
        sess,
        arr_base,
        wbuf_base,
    })
}

/// Re-run the whole tuple sequence on a warm-started path and require
/// the fused path's exact per-tuple observables (same config, same
/// thread: even error text must match).
fn warm_replay(case: &TestCase, p: &mut Path, fused_obs: &[Obs]) -> Result<(), Box<Violation>> {
    for (t, tuple) in case.tuples.iter().enumerate() {
        let o = p.invoke(case, tuple)?;
        let want = &fused_obs[t];
        let same = match (&want.result, &o.result) {
            (Err(a), Err(b)) => a == b,
            (Ok(a), Ok(b)) => match (a, b) {
                (None, None) => true,
                (Some(x), Some(y)) => value_eq(x, y),
                _ => false,
            },
            _ => false,
        };
        if !same {
            return Err(Box::new(Violation::WarmMismatch {
                details: format!("tuple {t}: fused {:?} vs warm {:?}", want.result, o.result),
            }));
        }
        if want.result.is_err() {
            continue;
        }
        if !values_eq(&want.output, &o.output) {
            return Err(Box::new(Violation::WarmMismatch {
                details: format!(
                    "tuple {t}: fused output {} vs warm {}",
                    fmt_vals(&want.output),
                    fmt_vals(&o.output)
                ),
            }));
        }
        if want.wbuf != o.wbuf {
            return Err(Box::new(Violation::WarmMismatch {
                details: format!("tuple {t}: fused wbuf {:?} vs warm {:?}", want.wbuf, o.wbuf),
            }));
        }
    }
    Ok(())
}

/// Snapshot / warm-start equivalence: serialize the fused session's code
/// cache, warm-start a fresh session from the bundle, and replay the
/// whole tuple sequence. Restored bindings must be counted exactly
/// (`cache_warm_loads` = snapshot size, zero rejects), the observables
/// must match the fused path's tuple for tuple, and — when the cold
/// cache saw neither evictions nor invalidations, so the snapshot is
/// complete — the warm run must perform **zero** specializations and end
/// with instruction-identical cached code. A second warm start from the
/// same bundle with one entry's config fingerprint corrupted must lose
/// exactly that entry (rejected per-entry and metered, never fatal) and
/// still compute exact results, re-specializing only on misses.
fn check_warm(
    case: &TestCase,
    src: &str,
    fused_obs: &[Obs],
    fused_path: &Path,
    fused_rt: &RtStats,
) -> Result<(), Box<Violation>> {
    let Some(bundle) = fused_path.sess.cache_bundle() else {
        return Ok(());
    };
    let program = catch_unwind(AssertUnwindSafe(|| {
        Compiler::with_config(OptConfig::all()).compile(src)
    }))
    .map_err(|p| Violation::Crash {
        path: "warm",
        msg: format!("compiler panic: {}", panic_message(&p)),
    })?
    .map_err(|e| Violation::Compile {
        path: "warm",
        msg: e.to_string(),
    })?;

    // With evictions or invalidations the snapshot is incomplete — some
    // once-specialized keys are no longer cached — so the guarantee
    // weakens from "zero re-specializations" to "no more than cold".
    let complete = fused_rt.cache_evictions == 0 && fused_rt.cache_invalidations == 0;
    let restored = fused_path.sess.cached_code().len() as u64;

    let mut p = warm_path(case, &program, &bundle)?;
    if p.arr_base != fused_path.arr_base || p.wbuf_base != fused_path.wbuf_base {
        return Err(Box::new(Violation::WarmMismatch {
            details: "allocation bases diverged from the fused path".into(),
        }));
    }
    {
        let rt = p.sess.rt_stats().expect("dynamic path");
        if rt.cache_warm_loads != restored || rt.cache_warm_rejects != 0 {
            return Err(Box::new(Violation::WarmMismatch {
                details: format!(
                    "pristine bundle of {restored} entries restored {} with {} rejects",
                    rt.cache_warm_loads, rt.cache_warm_rejects
                ),
            }));
        }
    }
    warm_replay(case, &mut p, fused_obs)?;
    let warm_specs = p.sess.rt_stats().expect("dynamic path").specializations;
    if complete && warm_specs != 0 {
        return Err(Box::new(Violation::WarmMismatch {
            details: format!("warm run re-specialized {warm_specs} complete-snapshot keys"),
        }));
    }
    if warm_specs > fused_rt.specializations {
        return Err(Box::new(Violation::WarmMismatch {
            details: format!(
                "warm run specialized more than cold: {warm_specs} > {}",
                fused_rt.specializations
            ),
        }));
    }
    if complete {
        let warm_code = normalized_code(p.sess.cached_code());
        let fused_code = normalized_code(fused_path.sess.cached_code());
        if warm_code != fused_code {
            return Err(Box::new(Violation::WarmMismatch {
                details: format!(
                    "restored cache diverged from fused cache:\n{warm_code:#?}\nvs\n{fused_code:#?}"
                ),
            }));
        }
    }

    // Corrupted-fingerprint variant: flip one bit in one entry's config
    // hash. Exactly that entry must be rejected (and metered); the
    // session still runs and produces exact results, re-specializing the
    // lost key on its first miss.
    if complete && restored > 0 {
        let mut corrupt = CacheBundle::parse(&bundle).map_err(|e| Violation::WarmMismatch {
            details: format!("own snapshot bundle failed to re-parse: {e}"),
        })?;
        corrupt.entries[0].config_hash ^= 1;
        let mut q = warm_path(case, &program, &corrupt.to_json())?;
        {
            let rt = q.sess.rt_stats().expect("dynamic path");
            if rt.cache_warm_rejects != 1 || rt.cache_warm_loads != restored - 1 {
                return Err(Box::new(Violation::WarmMismatch {
                    details: format!(
                        "one corrupted entry of {restored}: expected 1 reject / {} loads, \
                         got {} / {}",
                        restored - 1,
                        rt.cache_warm_rejects,
                        rt.cache_warm_loads
                    ),
                }));
            }
        }
        warm_replay(case, &mut q, fused_obs)?;
        let specs = q.sess.rt_stats().expect("dynamic path").specializations;
        if specs == 0 {
            return Err(Box::new(Violation::WarmMismatch {
                details: "rejected entry's key never re-specialized".into(),
            }));
        }
        if specs > fused_rt.specializations {
            return Err(Box::new(Violation::WarmMismatch {
                details: format!(
                    "corrupted warm run specialized more than cold: {specs} > {}",
                    fused_rt.specializations
                ),
            }));
        }
    }
    Ok(())
}

/// Fifth dynamic path: the fused configuration with the native x86-64
/// backend switched on (`OptConfig::native`).
///
/// Every tuple whose fused run completed must reproduce the fused
/// observables exactly — result, printed output, and writable-array
/// contents. Tuples whose fused run *failed* are skipped rather than
/// replayed: the dominant failure is the interpreter step limit, which
/// machine code deliberately does not meter, so replaying such a tuple
/// natively could run unboundedly. (Genuine faults — division by zero,
/// out-of-bounds — still surface on the tuples that complete before
/// them, and the workload-level differential test covers fault parity
/// directly.)
///
/// On hosts with the backend compiled in, the path must also have
/// installed machine code for every specialization: the generator's ISA
/// contains no instruction the encoder cannot lower, so a fallback here
/// is a lowering bug, not a coverage gap.
fn check_native(
    case: &TestCase,
    src: &str,
    fused_obs: &[Obs],
    fused_path: &Path,
) -> Result<(), Box<Violation>> {
    let native_cfg = OptConfig {
        native: true,
        ..OptConfig::all()
    };
    let mut p = build_path("native", case, src, native_cfg, true)?;
    if p.arr_base != fused_path.arr_base || p.wbuf_base != fused_path.wbuf_base {
        return Err(Box::new(Violation::NativeMismatch {
            tuple: 0,
            details: "allocation bases diverged from the fused path".into(),
        }));
    }

    for (t, tuple) in case.tuples.iter().enumerate() {
        if fused_obs[t].result.is_err() {
            continue;
        }
        let o = p.invoke(case, tuple)?;
        let f = &fused_obs[t];
        let same = match (&o.result, &f.result) {
            (Ok(None), Ok(None)) => true,
            (Ok(Some(a)), Ok(Some(b))) => value_eq(a, b),
            _ => false,
        };
        if !same {
            return Err(Box::new(Violation::NativeMismatch {
                tuple: t,
                details: format!("fused: {:?} vs native: {:?}", f.result, o.result),
            }));
        }
        if !values_eq(&f.output, &o.output) {
            return Err(Box::new(Violation::NativeMismatch {
                tuple: t,
                details: format!(
                    "output fused: {} vs native: {}",
                    fmt_vals(&f.output),
                    fmt_vals(&o.output)
                ),
            }));
        }
        if f.wbuf != o.wbuf {
            return Err(Box::new(Violation::NativeMismatch {
                tuple: t,
                details: format!("wbuf fused: {:?} vs native: {:?}", f.wbuf, o.wbuf),
            }));
        }
    }

    let rt = p.sess.rt_stats().expect("dynamic path");
    if rt.specializations > 0 && rt.native_installs + rt.native_fallbacks == 0 {
        return Err(Box::new(Violation::NativeMismatch {
            tuple: 0,
            details: format!(
                "specialized {} times but never attempted a native lowering",
                rt.specializations
            ),
        }));
    }
    #[cfg(all(target_arch = "x86_64", unix, not(dyc_no_native)))]
    if rt.specializations > 0 && rt.native_installs == 0 {
        return Err(Box::new(Violation::NativeMismatch {
            tuple: 0,
            details: format!(
                "specialized {} times but installed no machine code ({} fallbacks)",
                rt.specializations, rt.native_fallbacks
            ),
        }));
    }
    Ok(())
}

/// Rendered code with internal dispatch-site operands canonicalized to
/// `#`. Deferral can renumber internal promotion sites (they are
/// numbered in creation order, and the adaptive policy reorders — or
/// suppresses — first specializations), and a parent's specialized code
/// embeds its children's site ids as `Dispatch { point: N }` operands.
/// Those operands are the *only* legitimate byte difference between the
/// adaptive and always paths; everything else must still match exactly,
/// and the children themselves are compared by `(key, code)` membership.
fn canonicalize_internal_points(code: &str, n_entry: u32) -> String {
    let mut out = String::with_capacity(code.len());
    let mut rest = code;
    const PAT: &str = "point: ";
    while let Some(i) = rest.find(PAT) {
        let at = i + PAT.len();
        out.push_str(&rest[..at]);
        rest = &rest[at..];
        let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
        match rest[..digits].parse::<u32>() {
            Ok(n) if n >= n_entry => out.push('#'),
            _ => out.push_str(&rest[..digits]),
        }
        rest = &rest[digits..];
    }
    out.push_str(rest);
    out
}

/// Sixth dynamic path: the fused configuration under the adaptive
/// specialization policy (`PolicyMode::Adaptive`).
///
/// Deferral must change only *when* code is generated, never what a
/// dispatch computes: every tuple whose fused run completed must
/// reproduce the fused observables exactly. Tuples whose fused run
/// failed are skipped for the same reason as on the native path — a
/// deferred dispatch runs the generic continuation, which spends more
/// interpreter steps than specialized code, so an error tuple near the
/// step limit could legitimately fail at a different point (the
/// adaptive path also runs with extra step headroom so a deferral can
/// never *introduce* a limit error on a tuple the fused run completed).
///
/// Two structural properties are checked afterwards:
///
/// * adaptive accounting balances: every dispatch miss was either
///   specialized, deferred, or throttled — exactly once;
/// * once the policy does specialize a binding, the code is
///   byte-identical to the always-specialize path's code for that
///   binding. Entry-site ids are static, so entry bindings are matched
///   by `(site, key)`; internal promotion sites can be *numbered*
///   differently when deferral reorders first specializations, so
///   internal bindings are matched by `(key, code)` membership —
///   checked only when the fused cache is complete (no evictions or
///   invalidations), since an evicted binding has no counterpart left
///   to compare against.
fn check_policy(
    case: &TestCase,
    src: &str,
    fused_obs: &[Obs],
    fused_path: &Path,
    fused_rt: &RtStats,
) -> Result<(), Box<Violation>> {
    let cfg = OptConfig::all().with_policy(PolicyMode::Adaptive);
    let mut p = build_path("policy", case, src, cfg, true)?;
    p.sess.set_step_limit(STEP_LIMIT.saturating_mul(8));
    if p.arr_base != fused_path.arr_base || p.wbuf_base != fused_path.wbuf_base {
        return Err(Box::new(Violation::PolicyMismatch {
            tuple: 0,
            details: "allocation bases diverged from the fused path".into(),
        }));
    }

    for (t, tuple) in case.tuples.iter().enumerate() {
        if fused_obs[t].result.is_err() {
            continue;
        }
        let o = p.invoke(case, tuple)?;
        let f = &fused_obs[t];
        let same = match (&o.result, &f.result) {
            (Ok(None), Ok(None)) => true,
            (Ok(Some(a)), Ok(Some(b))) => value_eq(a, b),
            _ => false,
        };
        if !same {
            return Err(Box::new(Violation::PolicyMismatch {
                tuple: t,
                details: format!("fused: {:?} vs adaptive: {:?}", f.result, o.result),
            }));
        }
        if !values_eq(&f.output, &o.output) {
            return Err(Box::new(Violation::PolicyMismatch {
                tuple: t,
                details: format!(
                    "output fused: {} vs adaptive: {}",
                    fmt_vals(&f.output),
                    fmt_vals(&o.output)
                ),
            }));
        }
        if f.wbuf != o.wbuf {
            return Err(Box::new(Violation::PolicyMismatch {
                tuple: t,
                details: format!("wbuf fused: {:?} vs adaptive: {:?}", f.wbuf, o.wbuf),
            }));
        }
    }

    let rt = p.sess.rt_stats().expect("dynamic path").clone();
    let vm = p.sess.stats();
    if rt.specializations + rt.policy_defers + rt.policy_throttled != vm.dispatch_misses {
        return Err(Box::new(Violation::PolicyMismatch {
            tuple: 0,
            details: format!(
                "adaptive accounting off: {} specs + {} defers + {} throttles != {} misses",
                rt.specializations, rt.policy_defers, rt.policy_throttled, vm.dispatch_misses
            ),
        }));
    }

    let n_entry = p.sess.n_entry_sites() as u32;
    let canon = |entries: Vec<(u32, Vec<u64>, String)>| -> Vec<(u32, Vec<u64>, String)> {
        entries
            .into_iter()
            .map(|(s, k, c)| (s, k, canonicalize_internal_points(&c, n_entry)))
            .collect()
    };
    let fused_code = canon(normalized_code(fused_path.sess.cached_code()));
    let policy_code = canon(normalized_code(p.sess.cached_code()));
    let fused_complete = fused_rt.cache_evictions == 0 && fused_rt.cache_invalidations == 0;
    for (site, key, code) in &policy_code {
        if *site < n_entry {
            // The always path specialized every miss, so when both
            // caches still hold a binding the bytes must agree. (An
            // entry the always path later *evicted* has no counterpart
            // to compare — absence is not a violation.)
            if let Some((_, _, want)) = fused_code.iter().find(|(s, k, _)| s == site && k == key) {
                if want != code {
                    return Err(Box::new(Violation::PolicyMismatch {
                        tuple: 0,
                        details: format!(
                            "site {site} key {key:?}: adaptive code diverged from always \
                             path:\n{code}\nvs\n{want}"
                        ),
                    }));
                }
            }
        } else if fused_complete
            && !fused_code
                .iter()
                .any(|(s, k, c)| *s >= n_entry && k == key && c == code)
        {
            return Err(Box::new(Violation::PolicyMismatch {
                tuple: 0,
                details: format!(
                    "internal site {site} key {key:?}: no byte-identical counterpart in \
                     the always path's cache"
                ),
            }));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_case, GenConfig};

    #[test]
    fn first_seeds_pass_the_oracle() {
        for seed in 0..25u64 {
            let case = generate_case(seed, GenConfig::default());
            match run_case(&case) {
                Ok(_) => {}
                Err(v) => panic!(
                    "seed {seed} violated the oracle: {v}\n--- source ---\n{}",
                    program_to_string(&case.program)
                ),
            }
        }
    }
}
