//! Pinned regressions found by `dyc-fuzz` (see DESIGN.md §10).
//!
//! Each case is stored as the minimized DyCL source plus its inputs and
//! replayed through the full 4-way differential oracle, so a fixed bug
//! stays fixed across all four execution paths at once. When the fuzzer
//! finds a new bug, its printed repro block is pinned here verbatim.

use dyc_fuzz::{case_from_source, case_seed, generate_case, run_case, GenConfig, ScalarArg};
use dyc_lang::pretty::program_to_string;

fn pin(src: &str, wbuf: Option<Vec<i64>>, tuples: Vec<Vec<ScalarArg>>) {
    pin_arr(src, None, wbuf, tuples);
}

fn pin_arr(src: &str, arr: Option<Vec<i64>>, wbuf: Option<Vec<i64>>, tuples: Vec<Vec<ScalarArg>>) {
    let case = case_from_source(src, arr, wbuf, tuples).expect("pinned source must parse");
    if let Err(v) = run_case(&case) {
        panic!("pinned regression failed the oracle again: {v}\n---\n{src}");
    }
}

/// Found by dyc-fuzz (minimized from seed-3 material): a non-void
/// function that falls off the end. The region-entry dispatch stub
/// always forwards a return register, so the static build returning
/// "nothing" while the dynamic builds returned the scratch register made
/// the paths diverge. Lowering (and the reference evaluator) now return
/// a defined zero.
#[test]
fn missing_return_through_region_stub() {
    pin(
        "int fuzz_target(int s0) {\n    make_static(s0);\n    int x = s0 + 1;\n}\n",
        None,
        vec![
            vec![ScalarArg::I(0)],
            vec![ScalarArg::I(7)],
            vec![ScalarArg::I(-3)],
            vec![ScalarArg::I(0)],
        ],
    );
}

/// Same bug, richer shape: the implicit return sits behind folded
/// control flow inside the dynamic region.
#[test]
fn missing_return_behind_folded_branch() {
    pin(
        "int fuzz_target(int s0, int d0) {\n    make_static(s0);\n    if (s0 > 0)\n    {\n        return d0;\n    }\n}\n",
        None,
        vec![
            vec![ScalarArg::I(1), ScalarArg::I(5)],
            vec![ScalarArg::I(0), ScalarArg::I(9)],
            vec![ScalarArg::I(1), ScalarArg::I(5)],
        ],
    );
}

/// Found by dyc-fuzz (case seed 11548805271789224382, seed-2 run): a
/// constant whose only in-block use is immediate-capable got folded into
/// the operand field and never materialized — but in the dynamic build
/// the use sits past the region entry, so the dispatch passed the
/// constant's *register*, which was never written. The specialized code
/// then computed `d0 | 0` instead of `d0 | 1`. Codegen now materializes
/// any constant feeding a dispatch argument.
#[test]
fn dispatch_args_materialize_folded_constants() {
    pin(
        "int fuzz_target(int s0, int s1, int d0, int d1, float f0, int wbuf[], int wn) {\n    int x2 = 1;\n    int x3 = 0;\n    make_static(x3);\n    print_int(d0 | x2);\n}\n",
        Some(vec![0; 8]),
        vec![
            vec![
                ScalarArg::I(0),
                ScalarArg::I(0),
                ScalarArg::I(2),
                ScalarArg::I(0),
                ScalarArg::F(0.0),
            ],
            vec![
                ScalarArg::I(1),
                ScalarArg::I(-1),
                ScalarArg::I(12),
                ScalarArg::I(3),
                ScalarArg::F(0.5),
            ],
        ],
    );
}

/// Found by dyc-fuzz: the pretty printer rendered a nested unary as
/// `--17`, which does not lex. Printing now parenthesizes the inner
/// unary; pin the whole round trip through the oracle.
#[test]
fn nested_unary_round_trips_and_runs() {
    pin(
        "int fuzz_target(int s0) {\n    make_static(s0);\n    return -(-17) + s0;\n}\n",
        None,
        vec![vec![ScalarArg::I(4)], vec![ScalarArg::I(4)]],
    );
}

/// Found by dyc-fuzz (case seed 17568163346389866865, seed-5 run): when
/// template fusion reverted a guarded singleton emit (its run was too
/// short to fuse), the op that triggered the revert had already been
/// planned against the revertee as a register. Its destination stayed
/// "register" in the abstract state while the concrete path could
/// constant-fold it into a rename, so a later template patched a
/// register that was never written — the fused path silently dropped
/// two instructions. The planner now marks the consumer's destination
/// value-dependent as well.
#[test]
fn reverted_guard_taints_consumer_destination() {
    pin_arr(
        "int fuzz_target(int s0, int arr[], int an) {\n    make_static(s0);\n    int i1 = 0;\n    int x1 = 0.0;\n    int x2 = 1;\n    x2 *= arr[x1];\n    x1 = 50 - (x2 & i1);\n    return (int) 1.75 & (x1 + 1);\n}\n",
        Some(vec![0, 7, -4, 0, 3, 0, 0, 1]),
        None,
        vec![
            vec![ScalarArg::I(0)],
            vec![ScalarArg::I(3)],
            vec![ScalarArg::I(0)],
        ],
    );
}

/// Found by dyc-fuzz (case seed 2470166100036192763, seed-2 run): a
/// region whose statics are immediately demoted made the staged path
/// one cycle dearer than online, because the online walk charged
/// nothing for inspecting annotation directives while the staged path
/// pays per GE op. The online specializer now charges its per-inst
/// classification for annotations too; the oracle holds staged ≤ online.
#[test]
fn degenerate_demoted_region_overhead_ordering() {
    pin(
        "int fuzz_target(int s0, int s1, int d0, int d1) {\n    make_static(s0);\n    make_dynamic(s0);\n    return s0;\n}\n",
        None,
        vec![
            vec![
                ScalarArg::I(0),
                ScalarArg::I(0),
                ScalarArg::I(0),
                ScalarArg::I(0),
            ],
            vec![
                ScalarArg::I(5),
                ScalarArg::I(1),
                ScalarArg::I(-2),
                ScalarArg::I(9),
            ],
        ],
    );
}

/// The generator must be a pure function of the case seed: the corpus
/// and every printed repro depend on it.
/// Found by dyc-fuzz once it sampled `cache_all(1)` (case seed
/// 4845446686184769625, seed-1 run): on the threaded path each thread
/// reads the shared cache's code when it finishes its tuples, while the
/// other threads still evict. `Session::cached_code` listed the bindings
/// and then read each one's registry slot, which another thread's
/// eviction could free in between, and panicked. The shared runtime now
/// reads each binding's code with the snapshot and leaves out a binding
/// whose slot was freed. The race depends on the schedule, so the case
/// is replayed a number of times.
#[test]
fn threaded_cache_read_races_eviction() {
    let src = "static int helper0(int p0, int p1) {\n    return p0;\n}\n\n\
static int helper1(int p0, int p1) {\n    return ~(-3) & (3 && p1);\n}\n\n\
int fuzz_target(int s0, int s1, int d0, int d1, int arr[], int an) {\n    \
make_static(s0: cache_all(1), s1);\n    int i0 = 0;\n    int i1 = 0;\n    \
int x0 = 4;\n    int x1 = 32;\n    int x2 = -3;\n    x0 = s1 >= (1 + -3);\n    \
return (i1 / (i0 | 1)) + iabs(i1);\n}\n";
    let t = |a: [i64; 4]| a.iter().map(|&v| ScalarArg::I(v)).collect::<Vec<_>>();
    for _ in 0..50 {
        pin_arr(
            src,
            Some(vec![1, 0, 0, 3, 0, 16, 0, 0]),
            None,
            vec![
                t([8, 5, -12, -4]),
                t([7, 3, -30, 17]),
                t([0, 2, -33, -36]),
                t([8, 5, -12, -4]),
            ],
        );
    }
}

#[test]
fn generation_is_a_pure_function_of_the_seed() {
    for seed in [1u64, 42, 0xdead_beef] {
        let a = generate_case(seed, GenConfig::default());
        let b = generate_case(seed, GenConfig::default());
        assert_eq!(a, b);
        assert_eq!(program_to_string(&a.program), program_to_string(&b.program));
    }
    // Case seeds are stable under --iters changes: case i of a run is
    // the same whether the run is long or short.
    assert_eq!(case_seed(1, 3), case_seed(1, 3));
    assert_ne!(case_seed(1, 3), case_seed(1, 4));
    assert_ne!(case_seed(1, 3), case_seed(2, 3));
}

/// A small fixed-seed smoke sweep: the first cases of the default run
/// must pass the oracle. (CI runs the full 500 via the fuzz-smoke job.)
#[test]
fn fixed_seed_smoke_sweep_passes_the_oracle() {
    for i in 0..40u64 {
        let cs = case_seed(1, i);
        let case = generate_case(cs, GenConfig::default());
        if let Err(v) = run_case(&case) {
            panic!(
                "case {i} (seed {cs}) failed: {v}\n---\n{}",
                program_to_string(&case.program)
            );
        }
    }
}
