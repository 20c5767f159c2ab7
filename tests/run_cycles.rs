//! Pins the run side of the 21164 cycle model: for every Table 1
//! workload, the `ExecStats` delta of one steady static and one steady
//! specialized region invocation. These counters are what every
//! asymptotic speedup in Tables 3–5 divides, so any change to the
//! interpreter loop, the cost model or the I-cache model that moves
//! them shows up here by name, field and build.

use dyc::{Compiler, ExecStats, Session};
use dyc_workloads::{all, Workload};

/// `[exec_cycles, icache_miss_cycles, dispatch_cycles, instrs_executed,
/// dispatches]` of one invocation.
type Run = [u64; 5];

/// `(workload, static invocation, specialized invocation)`, each measured
/// after one warm-up invocation (which, in the dynamic build,
/// specializes) and a `reset`.
const PINNED: &[(&str, Run, Run)] = &[
    (
        "dinero",
        [556737, 0, 0, 163241, 0],
        [178141, 0, 10, 150111, 1],
    ),
    ("m88ksim", [92, 0, 0, 62, 0], [19, 0, 10, 4, 1]),
    ("mipsi", [94751, 0, 0, 37426, 0], [9388, 288, 88, 6771, 2]),
    (
        "pnmconvol",
        [7474667, 0, 0, 3870875, 0],
        [769944, 62676, 110, 307580, 1],
    ),
    (
        "viewperf:project",
        [14111, 0, 0, 4953, 0],
        [6322, 0, 10, 2850, 1],
    ),
    (
        "viewperf:shade",
        [8223, 0, 0, 3131, 0],
        [6399, 18, 478, 2672, 7],
    ),
    ("binary", [61, 0, 0, 14, 0], [22, 0, 10, 6, 1]),
    ("chebyshev", [4080, 0, 0, 245, 0], [576, 0, 10, 137, 1]),
    ("dotproduct", [2013, 0, 0, 1007, 0], [81, 0, 10, 42, 1]),
    ("query", [121, 0, 0, 84, 0], [51, 0, 10, 28, 1]),
    ("romberg", [5686, 0, 0, 963, 0], [4628, 0, 10, 424, 1]),
];

fn fields(d: &ExecStats) -> Run {
    [
        d.exec_cycles,
        d.icache_miss_cycles,
        d.dispatch_cycles,
        d.instrs_executed,
        d.dispatches,
    ]
}

/// Warm up, reset, and measure one more invocation.
fn steady(w: &dyn Workload, mut sess: Session) -> Run {
    let m = w.meta();
    sess.set_step_limit(200_000_000);
    let args = w.setup_region(&mut sess);
    let out = sess.run(m.region_func, &args).expect("warm-up invocation");
    assert!(w.check_region(out, &mut sess), "{}: warm-up result", m.name);
    w.reset(&mut sess, &args);
    let (out, d) = sess
        .run_measured(m.region_func, &args)
        .expect("measured invocation");
    assert!(
        w.check_region(out, &mut sess),
        "{}: measured result",
        m.name
    );
    assert_eq!(d.dyncomp_cycles, 0, "{}: steady run compiled", m.name);
    fields(&d)
}

#[test]
fn region_run_cycles_match_the_pinned_model() {
    let mut got = Vec::new();
    for w in all() {
        let name = w.meta().name;
        let program = Compiler::new()
            .compile(&w.source())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let s = steady(w.as_ref(), program.static_session());
        let d = steady(w.as_ref(), program.dynamic_session());
        got.push((name, s, d));
    }
    let table: String = got
        .iter()
        .map(|(n, s, d)| format!("    (\"{n}\", {s:?}, {d:?}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        PINNED.len(),
        "workload count changed; measured:\n{table}"
    );
    for ((name, s, d), (pn, ps, pd)) in got.iter().zip(PINNED) {
        assert_eq!(name, pn, "workload order changed; measured:\n{table}");
        assert_eq!(s, ps, "{name}: static invocation moved; measured:\n{table}");
        assert_eq!(
            d, pd,
            "{name}: specialized invocation moved; measured:\n{table}"
        );
    }
}
