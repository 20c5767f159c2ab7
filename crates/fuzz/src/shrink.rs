//! Delta-debugging minimizer for failing cases.
//!
//! Greedy fixpoint over a deterministic candidate enumeration: each
//! candidate is a strictly-smaller variant of the current best case (by a
//! well-founded measure — statement count, expression count, tuple count,
//! constant magnitude, annotation count), and is accepted only if it
//! still fails the oracle with the **same** [`Violation::kind`]. A
//! candidate that no longer compiles simply fails with a different kind
//! ("compile") and is rejected, so the shrinker never needs its own
//! validity checker. The eval budget bounds total oracle runs.

use crate::gen::{ScalarArg, TestCase};
use crate::oracle::{run_case, Violation};
use dyc_lang::ast::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The failure class of a case, if any — panics anywhere in the pipeline
/// count as the "crash" class, like [`Violation::Crash`].
pub fn violation_kind(case: &TestCase) -> Option<&'static str> {
    match catch_unwind(AssertUnwindSafe(|| run_case(case))) {
        Ok(Ok(_)) => None,
        Ok(Err(v)) => Some(v.kind()),
        Err(_) => Some(
            Violation::Crash {
                path: "oracle",
                msg: String::new(),
            }
            .kind(),
        ),
    }
}

/// The shrink-preservation key of a case: [`violation_kind`] plus what
/// a smaller case must keep to be the same failure — a compile error's
/// path and message, a crash's path. A panic that escapes the oracle is
/// a crash on path `oracle`.
pub fn violation_key(case: &TestCase) -> Option<String> {
    match catch_unwind(AssertUnwindSafe(|| run_case(case))) {
        Ok(Ok(_)) => None,
        Ok(Err(v)) => Some(key_of(&v)),
        Err(_) => Some(key_of(&Violation::Crash {
            path: "oracle",
            msg: String::new(),
        })),
    }
}

/// The shrink-preservation key of a violation. A compile error keeps its
/// path and message: minimizing a compile failure down to *any other*
/// compile failure (delete the decl, keep the use — still "compile")
/// would destroy the repro, so the key pins the exact diagnostic. A
/// crash keeps its path but not its message, which changes as the case
/// shrinks (an address or a value in it): a crash on another path is
/// another bug, which the shrinker must not settle on.
fn key_of(v: &Violation) -> String {
    match v {
        Violation::Compile { path, msg } => format!("compile:{path}:{msg}"),
        Violation::Crash { path, .. } => format!("crash:{path}"),
        other => other.kind().to_string(),
    }
}

/// One shrink transformation, addressed by deterministic DFS indices.
#[derive(Debug, Clone)]
enum Candidate {
    /// Remove a helper function (never the target, which is last).
    DropHelper(usize),
    /// Remove an invocation tuple.
    DropTuple(usize),
    /// Delete the k-th statement (pre-order over every statement list).
    DeleteStmt(usize),
    /// Replace the k-th statement with (part of) its body.
    Flatten(usize, FlattenMode),
    /// Shrink the k-th annotation statement.
    ShrinkAnnot(usize, usize, AnnotMode),
    /// Replace the k-th expression with a strictly smaller one.
    SimplifyExpr(usize, ExprMode),
    /// Halve a scalar argument toward zero (floats go straight to 0.0).
    ShrinkScalar(usize, usize),
    /// Zero one element of the read-only array.
    ZeroArr(usize),
    /// Zero one element of the writable array.
    ZeroWbuf(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum FlattenMode {
    /// `if`/`while`/`for`/`block` → body statements; `switch` → default.
    Body,
    /// `if` → else statements; `switch` → first case statements.
    Alt,
    /// `if` → drop the else branch only.
    DropElse,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum AnnotMode {
    /// Remove one variable from a `make_static` / `make_dynamic` list.
    DropVar,
    /// Reset one `make_static` policy to the default `cache_all`.
    DefaultPolicy,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ExprMode {
    /// Binary/unary/call → one child (index into children).
    Child(usize),
    /// Nonzero int literal → halved; nonzero float literal → 0.0.
    ShrinkConst,
}

// ---- statement traversal ------------------------------------------------

/// Pre-order count of statements across every list in the program.
fn count_stmts(p: &Program) -> usize {
    fn in_list(l: &[Stmt]) -> usize {
        l.iter().map(|s| 1 + in_children(s)).sum()
    }
    fn in_children(s: &Stmt) -> usize {
        match s {
            Stmt::Block(b) => in_list(b),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                let mut n = 1 + in_children(then_branch);
                if let Some(e) = else_branch {
                    n += 1 + in_children(e);
                }
                n
            }
            Stmt::While { body, .. } => 1 + in_children(body),
            Stmt::For {
                init, step, body, ..
            } => {
                let mut n = 1 + in_children(body);
                if let Some(i) = init {
                    n += 1 + in_children(i);
                }
                if let Some(s) = step {
                    n += 1 + in_children(s);
                }
                n
            }
            Stmt::Switch { cases, default, .. } => {
                cases.iter().map(|(_, c)| in_list(c)).sum::<usize>() + in_list(default)
            }
            _ => 0,
        }
    }
    p.functions.iter().map(|f| in_list(&f.body)).sum()
}

/// What to do when the walk reaches statement index `k`.
enum StmtOp {
    Delete,
    Flatten(FlattenMode),
    Annot(usize, AnnotMode),
}

/// Walk the program's statement lists in the same pre-order as
/// [`count_stmts`] and apply `op` at index `k`. Returns true on success.
/// Statements in non-list positions (loop bodies, `for` init/step) are
/// visited for their children but can only be rewritten in place
/// (flatten wraps the result in a `Block`).
fn apply_stmt_op(p: &mut Program, mut k: usize, op: &StmtOp) -> bool {
    for f in &mut p.functions {
        if op_in_list(&mut f.body, &mut k, op) {
            return true;
        }
    }
    false
}

/// Sentinel meaning "the target index was reached and the op either ran
/// or turned out not to apply; stop walking either way".
const CONSUMED: usize = usize::MAX;

fn op_in_list(list: &mut Vec<Stmt>, k: &mut usize, op: &StmtOp) -> bool {
    let mut i = 0;
    while i < list.len() {
        if *k == CONSUMED {
            return false;
        }
        if *k == 0 {
            *k = CONSUMED;
            return match op {
                StmtOp::Delete => {
                    list.remove(i);
                    true
                }
                StmtOp::Flatten(mode) => match flatten(&list[i], *mode) {
                    Some(repl) => {
                        list.splice(i..=i, repl);
                        true
                    }
                    None => false,
                },
                StmtOp::Annot(vi, mode) => shrink_annot(&mut list[i], *vi, *mode),
            };
        }
        *k -= 1;
        if op_in_children(&mut list[i], k, op) {
            return true;
        }
        i += 1;
    }
    false
}

fn op_in_boxed(s: &mut Stmt, k: &mut usize, op: &StmtOp) -> bool {
    if *k == CONSUMED {
        return false;
    }
    if *k == 0 {
        *k = CONSUMED;
        return match op {
            StmtOp::Delete => {
                *s = Stmt::Block(Vec::new());
                true
            }
            StmtOp::Flatten(mode) => match flatten(s, *mode) {
                Some(repl) => {
                    *s = Stmt::Block(repl);
                    true
                }
                None => false,
            },
            StmtOp::Annot(vi, mode) => shrink_annot(s, *vi, *mode),
        };
    }
    *k -= 1;
    op_in_children(s, k, op)
}

fn op_in_children(s: &mut Stmt, k: &mut usize, op: &StmtOp) -> bool {
    if *k == CONSUMED {
        return false;
    }
    match s {
        Stmt::Block(b) => op_in_list(b, k, op),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            if op_in_boxed(then_branch, k, op) {
                return true;
            }
            if let Some(e) = else_branch {
                if op_in_boxed(e, k, op) {
                    return true;
                }
            }
            false
        }
        Stmt::While { body, .. } => op_in_boxed(body, k, op),
        Stmt::For {
            init, step, body, ..
        } => {
            if let Some(i) = init {
                if op_in_boxed(i, k, op) {
                    return true;
                }
            }
            if let Some(st) = step {
                if op_in_boxed(st, k, op) {
                    return true;
                }
            }
            op_in_boxed(body, k, op)
        }
        Stmt::Switch { cases, default, .. } => {
            for (_, c) in cases.iter_mut() {
                if op_in_list(c, k, op) {
                    return true;
                }
            }
            op_in_list(default, k, op)
        }
        _ => false,
    }
}

/// The statements a compound statement flattens to, or None when the
/// mode does not apply. `DropElse` is signalled by an empty marker — it
/// mutates in place instead.
fn flatten(s: &Stmt, mode: FlattenMode) -> Option<Vec<Stmt>> {
    fn body_of(s: &Stmt) -> Vec<Stmt> {
        match s {
            Stmt::Block(b) => b.clone(),
            other => vec![other.clone()],
        }
    }
    match (s, mode) {
        (Stmt::Block(b), FlattenMode::Body) => Some(b.clone()),
        (Stmt::If { then_branch, .. }, FlattenMode::Body) => Some(body_of(then_branch)),
        (
            Stmt::If {
                else_branch: Some(e),
                ..
            },
            FlattenMode::Alt,
        ) => Some(body_of(e)),
        (
            Stmt::If {
                cond,
                then_branch,
                else_branch: Some(_),
            },
            FlattenMode::DropElse,
        ) => Some(vec![Stmt::If {
            cond: cond.clone(),
            then_branch: then_branch.clone(),
            else_branch: None,
        }]),
        (Stmt::While { body, .. }, FlattenMode::Body) => Some(body_of(body)),
        (Stmt::For { body, .. }, FlattenMode::Body) => Some(body_of(body)),
        (Stmt::Switch { default, .. }, FlattenMode::Body) => Some(default.clone()),
        (Stmt::Switch { cases, .. }, FlattenMode::Alt) if !cases.is_empty() => {
            Some(cases[0].1.clone())
        }
        _ => None,
    }
}

fn shrink_annot(s: &mut Stmt, vi: usize, mode: AnnotMode) -> bool {
    match (s, mode) {
        (Stmt::MakeStatic(vars), AnnotMode::DropVar) if vars.len() > 1 && vi < vars.len() => {
            vars.remove(vi);
            true
        }
        (Stmt::MakeStatic(vars), AnnotMode::DefaultPolicy)
            if vi < vars.len() && vars[vi].1 != Policy::CacheAll =>
        {
            vars[vi].1 = Policy::CacheAll;
            true
        }
        (Stmt::MakeDynamic(vars), AnnotMode::DropVar) if vars.len() > 1 && vi < vars.len() => {
            vars.remove(vi);
            true
        }
        _ => false,
    }
}

// ---- expression traversal -----------------------------------------------

fn count_exprs(p: &Program) -> usize {
    let mut n = 0;
    let mut count = |_e: &mut Expr| {
        n += 1;
        false
    };
    // Traversal requires &mut; counting clones once.
    let mut q = p.clone();
    for f in &mut q.functions {
        for s in &mut f.body {
            if visit_stmt_exprs(s, &mut count) {
                break;
            }
        }
    }
    n
}

/// Visit every expression in pre-order; `f` returns true to stop (after
/// mutating its argument).
fn visit_stmt_exprs(s: &mut Stmt, f: &mut impl FnMut(&mut Expr) -> bool) -> bool {
    match s {
        Stmt::Block(b) => b.iter_mut().any(|s| visit_stmt_exprs(s, f)),
        Stmt::Decl { inits, .. } => inits
            .iter_mut()
            .filter_map(|(_, e)| e.as_mut())
            .any(|e| visit_expr(e, f)),
        Stmt::Assign { lv, rhs, .. } => {
            if let LValue::Elem { indices, .. } = lv {
                if indices.iter_mut().any(|e| visit_expr(e, f)) {
                    return true;
                }
            }
            visit_expr(rhs, f)
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            visit_expr(cond, f)
                || visit_stmt_exprs(then_branch, f)
                || else_branch.as_mut().is_some_and(|e| visit_stmt_exprs(e, f))
        }
        Stmt::While { cond, body } => visit_expr(cond, f) || visit_stmt_exprs(body, f),
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            init.as_mut().is_some_and(|s| visit_stmt_exprs(s, f))
                || cond.as_mut().is_some_and(|e| visit_expr(e, f))
                || step.as_mut().is_some_and(|s| visit_stmt_exprs(s, f))
                || visit_stmt_exprs(body, f)
        }
        Stmt::Switch {
            scrutinee,
            cases,
            default,
        } => {
            visit_expr(scrutinee, f)
                || cases
                    .iter_mut()
                    .any(|(_, c)| c.iter_mut().any(|s| visit_stmt_exprs(s, f)))
                || default.iter_mut().any(|s| visit_stmt_exprs(s, f))
        }
        Stmt::Return(Some(e)) | Stmt::Expr(e) => visit_expr(e, f),
        _ => false,
    }
}

fn visit_expr(e: &mut Expr, f: &mut impl FnMut(&mut Expr) -> bool) -> bool {
    if f(e) {
        return true;
    }
    match e {
        Expr::Unary(_, inner) => visit_expr(inner, f),
        Expr::Binary(_, l, r) => visit_expr(l, f) || visit_expr(r, f),
        Expr::Index { indices, .. } => indices.iter_mut().any(|e| visit_expr(e, f)),
        Expr::Call { args, .. } => args.iter_mut().any(|e| visit_expr(e, f)),
        _ => false,
    }
}

fn apply_expr_op(p: &mut Program, k: usize, mode: ExprMode) -> bool {
    let mut idx = 0;
    let mut done = false;
    let mut f = |e: &mut Expr| {
        if idx == k {
            done = simplify(e, mode);
            idx += 1;
            true // stop either way
        } else {
            idx += 1;
            false
        }
    };
    for func in &mut p.functions {
        for s in &mut func.body {
            if visit_stmt_exprs(s, &mut f) {
                return done;
            }
        }
    }
    false
}

fn simplify(e: &mut Expr, mode: ExprMode) -> bool {
    match mode {
        ExprMode::Child(c) => {
            let child = match (&*e, c) {
                (Expr::Unary(_, inner), 0) => Some((**inner).clone()),
                (Expr::Binary(_, l, _), 0) => Some((**l).clone()),
                (Expr::Binary(_, _, r), 1) => Some((**r).clone()),
                (Expr::Call { args, .. }, i) if i < args.len() => Some(args[i].clone()),
                (Expr::Index { indices, .. }, i) if i < indices.len() => Some(indices[i].clone()),
                _ => None,
            };
            match child {
                Some(c) => {
                    *e = c;
                    true
                }
                None => false,
            }
        }
        ExprMode::ShrinkConst => match e {
            Expr::IntLit(n) if *n != 0 => {
                *n /= 2;
                true
            }
            Expr::FloatLit(f) if *f != 0.0 => {
                *f = 0.0;
                true
            }
            _ => false,
        },
    }
}

// ---- candidate application ----------------------------------------------

/// Apply one candidate, returning the transformed case (None if the
/// candidate does not apply to this case).
fn apply(case: &TestCase, cand: &Candidate) -> Option<TestCase> {
    let mut c = case.clone();
    let applied = match cand {
        Candidate::DropHelper(i) => {
            if c.program.functions.len() > 1 && *i < c.program.functions.len() - 1 {
                c.program.functions.remove(*i);
                true
            } else {
                false
            }
        }
        Candidate::DropTuple(i) => {
            if c.tuples.len() > 1 && *i < c.tuples.len() {
                c.tuples.remove(*i);
                true
            } else {
                false
            }
        }
        Candidate::DeleteStmt(k) => apply_stmt_op(&mut c.program, *k, &StmtOp::Delete),
        Candidate::Flatten(k, mode) => apply_stmt_op(&mut c.program, *k, &StmtOp::Flatten(*mode)),
        Candidate::ShrinkAnnot(k, vi, mode) => {
            apply_stmt_op(&mut c.program, *k, &StmtOp::Annot(*vi, *mode))
        }
        Candidate::SimplifyExpr(k, mode) => apply_expr_op(&mut c.program, *k, *mode),
        Candidate::ShrinkScalar(t, p) => {
            let tuple = c.tuples.get_mut(*t)?;
            match tuple.get_mut(*p) {
                Some(ScalarArg::I(v)) if *v != 0 => {
                    *v /= 2;
                    true
                }
                Some(ScalarArg::F(v)) if *v != 0.0 => {
                    *v = 0.0;
                    true
                }
                _ => false,
            }
        }
        Candidate::ZeroArr(i) => match c.arr.as_mut().and_then(|a| a.get_mut(*i)) {
            Some(v) if *v != 0 => {
                *v = 0;
                true
            }
            _ => false,
        },
        Candidate::ZeroWbuf(i) => match c.wbuf.as_mut().and_then(|a| a.get_mut(*i)) {
            Some(v) if *v != 0 => {
                *v = 0;
                true
            }
            _ => false,
        },
    };
    applied.then_some(c)
}

/// Deterministic candidate enumeration for the current case, coarsest
/// reductions first.
fn candidates(case: &TestCase) -> Vec<Candidate> {
    let mut out = Vec::new();
    let n_helpers = case.program.functions.len().saturating_sub(1);
    for i in (0..n_helpers).rev() {
        out.push(Candidate::DropHelper(i));
    }
    for i in (0..case.tuples.len()).rev() {
        if case.tuples.len() > 1 {
            out.push(Candidate::DropTuple(i));
        }
    }
    let n_stmts = count_stmts(&case.program);
    for k in 0..n_stmts {
        out.push(Candidate::DeleteStmt(k));
    }
    for k in 0..n_stmts {
        out.push(Candidate::Flatten(k, FlattenMode::Body));
        out.push(Candidate::Flatten(k, FlattenMode::DropElse));
        out.push(Candidate::Flatten(k, FlattenMode::Alt));
    }
    for k in 0..n_stmts {
        for vi in 0..4 {
            out.push(Candidate::ShrinkAnnot(k, vi, AnnotMode::DropVar));
            out.push(Candidate::ShrinkAnnot(k, vi, AnnotMode::DefaultPolicy));
        }
    }
    let n_exprs = count_exprs(&case.program);
    for k in 0..n_exprs {
        out.push(Candidate::SimplifyExpr(k, ExprMode::Child(0)));
        out.push(Candidate::SimplifyExpr(k, ExprMode::Child(1)));
        out.push(Candidate::SimplifyExpr(k, ExprMode::ShrinkConst));
    }
    for (t, tuple) in case.tuples.iter().enumerate() {
        for p in 0..tuple.len() {
            out.push(Candidate::ShrinkScalar(t, p));
        }
    }
    if let Some(a) = &case.arr {
        for i in 0..a.len() {
            out.push(Candidate::ZeroArr(i));
        }
    }
    if let Some(w) = &case.wbuf {
        for i in 0..w.len() {
            out.push(Candidate::ZeroWbuf(i));
        }
    }
    out
}

/// Shrink a failing case to a (locally) minimal one with the same
/// [`violation_key`], spending at most `budget` oracle evaluations.
/// Deterministic: the same input always minimizes to the same output.
pub fn shrink(case: &TestCase, key: &str, budget: usize) -> TestCase {
    let mut best = case.clone();
    let mut evals = 0usize;
    'outer: loop {
        for cand in candidates(&best) {
            if evals >= budget {
                return best;
            }
            let Some(next) = apply(&best, &cand) else {
                continue;
            };
            if next == best {
                continue; // e.g. flattening a block onto itself
            }
            evals += 1;
            if violation_key(&next).as_deref() == Some(key) {
                best = next;
                continue 'outer; // restart enumeration on the smaller case
            }
        }
        return best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_case, GenConfig};

    #[test]
    fn stmt_count_matches_op_indexing() {
        // Every index below the count must resolve to a deletable
        // statement; the first index past it must not.
        for seed in 0..10u64 {
            let case = generate_case(seed, GenConfig::default());
            let n = count_stmts(&case.program);
            assert!(n > 0);
            for k in 0..n {
                let mut p = case.program.clone();
                assert!(
                    apply_stmt_op(&mut p, k, &StmtOp::Delete),
                    "seed {seed}: index {k} < count {n} but Delete failed"
                );
                // Deleting a list element shrinks the count; deleting a
                // boxed child rewrites it to an empty block (same count
                // when the child was already empty).
                assert!(
                    count_stmts(&p) <= n,
                    "seed {seed}: deleting statement {k} grew the program"
                );
            }
            let mut p = case.program.clone();
            assert!(
                !apply_stmt_op(&mut p, n, &StmtOp::Delete),
                "seed {seed}: index {n} == count but Delete succeeded"
            );
        }
    }

    #[test]
    fn expr_indexing_is_exhaustive() {
        for seed in 0..10u64 {
            let case = generate_case(seed, GenConfig::default());
            let n = count_exprs(&case.program);
            assert!(n > 0);
            // ShrinkConst may or may not apply per node, but indexing past
            // the end must always be a no-op returning false.
            let mut p = case.program.clone();
            assert!(!apply_expr_op(&mut p, n, ExprMode::ShrinkConst));
            assert_eq!(p, case.program);
        }
    }

    #[test]
    fn crash_keys_keep_the_path_not_the_message() {
        let crash = |path, msg: &str| {
            key_of(&Violation::Crash {
                path,
                msg: msg.into(),
            })
        };
        assert_ne!(
            crash("interp", "index out of bounds"),
            crash("threaded", "index out of bounds"),
            "a crash on another path is another failure"
        );
        assert_eq!(
            crash("threaded", "registry slot 3 was freed"),
            crash("threaded", "registry slot 9 was freed"),
            "the message may change as the case shrinks"
        );
        assert_eq!(crash("oracle", ""), "crash:oracle");
    }

    #[test]
    fn shrinking_a_forced_failure_terminates_and_stays_failing() {
        // Manufacture a deterministic failure by lying about the kind we
        // want: a passing case has kind None, so shrink() over a passing
        // case with an impossible kind must return it unchanged after at
        // most `budget` evals.
        let case = generate_case(3, GenConfig::default());
        let shrunk = shrink(&case, "result-mismatch", 40);
        // No candidate reproduces a violation that never happened.
        assert_eq!(
            dyc_lang::pretty::program_to_string(&shrunk.program),
            dyc_lang::pretty::program_to_string(&case.program)
        );
    }
}
