//! Seeded generation of annotated DyCL programs.
//!
//! The generator builds `dyc_lang` ASTs directly (not source strings), so
//! every case also exercises the pretty-printer → parser round trip when
//! the oracle renders it. Programs are valid and terminating *by
//! construction*:
//!
//! * loops use dedicated counters (`i0`, `i1`) that only their own header
//!   and step touch, with loop-invariant bounds (constants or read-only
//!   parameters), so every loop runs a bounded number of iterations;
//! * `continue` is only generated where the innermost loop is a `for`
//!   (whose step block runs on continue); in a `while` it would skip the
//!   counter increment and diverge;
//! * integer division/remainder divisors are nonzero by construction
//!   (nonzero literals, or `e | 1`);
//! * `@`-annotated static loads only read `arr`, which no generated
//!   statement ever stores to — so a load executed at specialization time
//!   observes the same value as one executed at run time;
//! * `cache_one_unchecked` is only sampled for parameters the harness
//!   freezes to one value across all invocation tuples (the policy is
//!   unsound by design when the key actually varies, §2.2.3);
//! * float multiplications always have a literal on one side, drawn from
//!   a small pool, so loop-carried float values cannot overflow to
//!   infinity within the bounded iteration counts (DyC's zero-folds
//!   assume finite floats; the oracle additionally skips any case that
//!   still produces a non-finite observable).

use dyc_lang::ast::*;
use dyc_workloads::rng::SplitMix64;

/// Length of both memory-backed arrays (`arr`, `wbuf`). A power of two so
/// in-bounds indexing is a mask: `e & 7`.
pub const ARRAY_LEN: usize = 8;

/// A scalar argument for one invocation of the target function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScalarArg {
    /// An integer argument.
    I(i64),
    /// A float argument.
    F(f64),
}

/// One generated differential-test case: a program plus its inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct TestCase {
    /// Helper functions (if any) followed by the target `fuzz_target`.
    pub program: Program,
    /// Contents of the read-only array parameter `arr` (static loads may
    /// read it; nothing stores to it), if the target takes one.
    pub arr: Option<Vec<i64>>,
    /// Initial contents of the writable scratch array `wbuf`, if present.
    pub wbuf: Option<Vec<i64>>,
    /// Scalar arguments per invocation, in scalar-parameter order.
    pub tuples: Vec<Vec<ScalarArg>>,
}

/// Generation knobs.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Top-level statement budget for the target body.
    pub max_stmts: usize,
    /// Maximum statement nesting depth.
    pub max_depth: usize,
    /// Maximum expression depth.
    pub expr_depth: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_stmts: 10,
            max_depth: 2,
            expr_depth: 3,
        }
    }
}

/// The name of the generated entry function.
pub const TARGET: &str = "fuzz_target";

/// An enclosing construct `break`/`continue` could bind to.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ctx {
    /// A loop; true for for-loops (whose step runs on `continue`).
    Loop(bool),
    /// A switch case body: `break` here is the parser's case terminator,
    /// so the generator never emits it as a statement.
    Switch,
}

struct Gen {
    rng: SplitMix64,
    cfg: GenConfig,
    /// Readable int-typed names currently in scope.
    int_vars: Vec<String>,
    /// Readable float-typed names currently in scope.
    float_vars: Vec<String>,
    /// Assignable int locals.
    int_locals: Vec<String>,
    /// Assignable float locals.
    float_locals: Vec<String>,
    /// Names the current loop nest depends on (counters and bound
    /// variables) — never assigned while the loop is open.
    frozen: Vec<String>,
    /// Stack of enclosing breakable constructs, innermost last.
    /// `Loop(true)` is a for-loop (continue reaches the step block).
    ctx: Vec<Ctx>,
    /// Variables annotated `make_static` so far (candidates for
    /// `make_dynamic`).
    annotated: Vec<String>,
    /// True once a region entry exists (gates `promote`).
    has_region: bool,
    has_arr: bool,
    has_wbuf: bool,
    has_float: bool,
    helpers: Vec<(String, usize, bool)>, // (name, arity, returns_float)
    /// Remaining nested-loop iteration budget (bounds are drawn so the
    /// product over a nest stays small).
    stmt_budget: usize,
}

impl Gen {
    fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_f64() < p
    }

    fn open_loops(&self) -> usize {
        self.ctx
            .iter()
            .filter(|c| matches!(c, Ctx::Loop(_)))
            .count()
    }

    fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[(self.rng.next_u64() % xs.len() as u64) as usize]
    }

    fn int_const(&mut self) -> i64 {
        *self.pick(&[
            0,
            1,
            2,
            -1,
            3,
            4,
            5,
            7,
            8,
            16,
            32,
            -3,
            63,
            100,
            -17,
            1 << 20,
        ])
    }

    fn float_const(&mut self) -> f64 {
        *self.pick(&[0.0, 1.0, 0.5, 2.0, -1.5, 3.25, -0.25, 100.0, 1.75])
    }

    /// A float literal safe as a multiplication factor (bounded growth).
    fn float_factor(&mut self) -> f64 {
        *self.pick(&[0.5, 2.0, -0.5, 1.5, 0.25, -2.0, 1.0])
    }

    fn int_var(&mut self) -> String {
        self.pick(&self.int_vars.clone()).clone()
    }

    /// An integer literal in parser-canonical form: the parser reads
    /// `-3` as `Neg(IntLit(3))`, so negatives must be generated that way
    /// for the pretty-print → parse round trip to be the identity.
    fn lit(n: i64) -> Expr {
        if n < 0 {
            Expr::Unary(UnaryOp::Neg, Box::new(Expr::IntLit(-n)))
        } else {
            Expr::IntLit(n)
        }
    }

    /// A float literal in parser-canonical form (see [`Gen::lit`]).
    fn flit(f: f64) -> Expr {
        if f < 0.0 {
            Expr::Unary(UnaryOp::Neg, Box::new(Expr::FloatLit(-f)))
        } else {
            Expr::FloatLit(f)
        }
    }

    // ---- expressions ----------------------------------------------------

    fn int_expr(&mut self, depth: usize) -> Expr {
        if depth == 0 {
            return self.int_leaf();
        }
        match self.rng.next_u64() % 10 {
            0..=1 => self.int_leaf(),
            2..=4 => {
                let op = *self.pick(&[
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Add,
                    BinOp::BitAnd,
                    BinOp::BitOr,
                    BinOp::BitXor,
                ]);
                Expr::Binary(
                    op,
                    Box::new(self.int_expr(depth - 1)),
                    Box::new(self.int_expr(depth - 1)),
                )
            }
            5 => {
                // Division and remainder with a divisor that cannot be
                // zero: a nonzero literal or `e | 1`.
                let op = *self.pick(&[BinOp::Div, BinOp::Rem]);
                let divisor = if self.chance(0.5) {
                    Gen::lit(*self.pick(&[2, 3, 4, 8, 16, -2, 5, 7]))
                } else {
                    let e = self.int_expr(depth - 1);
                    Expr::Binary(BinOp::BitOr, Box::new(e), Box::new(Expr::IntLit(1)))
                };
                Expr::Binary(op, Box::new(self.int_expr(depth - 1)), Box::new(divisor))
            }
            6 => {
                // Shifts with an in-range amount: literal 0..63 or `e & 63`.
                let op = *self.pick(&[BinOp::Shl, BinOp::Shr]);
                let amt = if self.chance(0.6) {
                    Expr::IntLit((self.rng.next_u64() % 64) as i64)
                } else {
                    let e = self.int_expr(depth - 1);
                    Expr::Binary(BinOp::BitAnd, Box::new(e), Box::new(Expr::IntLit(63)))
                };
                Expr::Binary(op, Box::new(self.int_expr(depth - 1)), Box::new(amt))
            }
            7 => {
                let op = *self.pick(&[
                    BinOp::Eq,
                    BinOp::Ne,
                    BinOp::Lt,
                    BinOp::Le,
                    BinOp::Gt,
                    BinOp::Ge,
                    BinOp::And,
                    BinOp::Or,
                ]);
                Expr::Binary(
                    op,
                    Box::new(self.int_expr(depth - 1)),
                    Box::new(self.int_expr(depth - 1)),
                )
            }
            8 => {
                let op = *self.pick(&[UnaryOp::Neg, UnaryOp::Not, UnaryOp::BitNot]);
                Expr::Unary(op, Box::new(self.int_expr(depth - 1)))
            }
            _ => {
                if self.has_float && self.chance(0.3) {
                    let f = self.float_expr(depth - 1);
                    Expr::Unary(UnaryOp::CastInt, Box::new(f))
                } else if self.chance(0.3) {
                    let a = self.int_expr(depth - 1);
                    Expr::Call {
                        name: "iabs".into(),
                        args: vec![a],
                    }
                } else if !self.helpers.is_empty() && self.chance(0.5) {
                    let (name, arity, is_float) = self.pick(&self.helpers.clone()).clone();
                    let args = (0..arity).map(|_| self.int_expr(1)).collect();
                    let call = Expr::Call { name, args };
                    if is_float {
                        Expr::Unary(UnaryOp::CastInt, Box::new(call))
                    } else {
                        call
                    }
                } else {
                    self.int_leaf()
                }
            }
        }
    }

    fn int_leaf(&mut self) -> Expr {
        match self.rng.next_u64() % 8 {
            0..=2 => Gen::lit(self.int_const()),
            3..=5 => Expr::Var(self.int_var()),
            6 if self.has_arr => {
                let idx = self.masked_index();
                Expr::Index {
                    base: "arr".into(),
                    indices: vec![idx],
                    // Static loads are sound here because nothing ever
                    // stores to `arr`; with a dynamic index BTA simply
                    // demotes the load.
                    is_static: self.chance(0.6),
                }
            }
            7 if self.has_wbuf => {
                let idx = self.masked_index();
                Expr::Index {
                    base: "wbuf".into(),
                    indices: vec![idx],
                    is_static: false,
                }
            }
            _ => Expr::Var(self.int_var()),
        }
    }

    /// An in-bounds array index: `e & (ARRAY_LEN - 1)`.
    fn masked_index(&mut self) -> Expr {
        let e = self.int_expr(1);
        Expr::Binary(
            BinOp::BitAnd,
            Box::new(e),
            Box::new(Expr::IntLit(ARRAY_LEN as i64 - 1)),
        )
    }

    fn float_expr(&mut self, depth: usize) -> Expr {
        if depth == 0 || !self.has_float {
            return self.float_leaf();
        }
        match self.rng.next_u64() % 8 {
            0..=1 => self.float_leaf(),
            2..=3 => {
                let op = *self.pick(&[BinOp::Add, BinOp::Sub]);
                Expr::Binary(
                    op,
                    Box::new(self.float_expr(depth - 1)),
                    Box::new(self.float_expr(depth - 1)),
                )
            }
            4 => {
                // Multiplication by a bounded literal factor only.
                let f = self.float_factor();
                Expr::Binary(
                    BinOp::Mul,
                    Box::new(self.float_expr(depth - 1)),
                    Box::new(Gen::flit(f)),
                )
            }
            5 => {
                // Division by a nonzero literal only.
                let d = *self.pick(&[2.0, 4.0, 0.5, -2.0, 8.0]);
                Expr::Binary(
                    BinOp::Div,
                    Box::new(self.float_expr(depth - 1)),
                    Box::new(Gen::flit(d)),
                )
            }
            6 => {
                let name = *self.pick(&["cos", "sin", "fabs", "floor"]);
                let arg = self.float_expr(depth - 1);
                Expr::Call {
                    name: name.into(),
                    args: vec![arg],
                }
            }
            _ => {
                let i = self.int_expr(depth - 1);
                Expr::Unary(UnaryOp::CastFloat, Box::new(i))
            }
        }
    }

    fn float_leaf(&mut self) -> Expr {
        if !self.float_vars.is_empty() && self.chance(0.6) {
            Expr::Var(self.pick(&self.float_vars.clone()).clone())
        } else {
            let f = self.float_const();
            Gen::flit(f)
        }
    }

    // ---- statements -----------------------------------------------------

    fn stmts(&mut self, budget: usize, depth: usize) -> Vec<Stmt> {
        let n = 1 + (self.rng.next_u64() % budget.max(1) as u64) as usize;
        let mut out = Vec::new();
        for _ in 0..n {
            if self.stmt_budget == 0 {
                break;
            }
            self.stmt_budget -= 1;
            out.push(self.stmt(depth));
        }
        out
    }

    fn stmt(&mut self, depth: usize) -> Stmt {
        let roll = self.rng.next_u64() % 100;
        match roll {
            // Assignment to an int local.
            0..=29 => self.assign_stmt(),
            // Conditional.
            30..=44 if depth > 0 => {
                let cond = self.int_expr(self.cfg.expr_depth - 1);
                let then_branch = Stmt::Block(self.stmts(3, depth - 1));
                let else_branch = if self.chance(0.5) {
                    Some(Box::new(Stmt::Block(self.stmts(2, depth - 1))))
                } else {
                    None
                };
                Stmt::If {
                    cond,
                    then_branch: Box::new(then_branch),
                    else_branch,
                }
            }
            // Loops.
            45..=59 if depth > 0 && self.open_loops() < 2 => self.loop_stmt(depth),
            // Switch.
            60..=66 if depth > 0 => {
                let scrutinee = self.int_expr(self.cfg.expr_depth - 1);
                let n_cases = 2 + (self.rng.next_u64() % 2) as usize;
                let mut keys: Vec<i64> = vec![0, 1, 2, 3, 7, -1];
                self.rng.shuffle(&mut keys);
                self.ctx.push(Ctx::Switch);
                let cases: Vec<(i64, Vec<Stmt>)> = keys
                    .into_iter()
                    .take(n_cases)
                    .map(|k| (k, self.stmts(2, depth - 1)))
                    .collect();
                let default = if self.chance(0.7) {
                    self.stmts(2, depth - 1)
                } else {
                    Vec::new()
                };
                self.ctx.pop();
                Stmt::Switch {
                    scrutinee,
                    cases,
                    default,
                }
            }
            // Observable prints.
            67..=74 => {
                if self.has_float && self.chance(0.35) {
                    let e = self.float_expr(self.cfg.expr_depth - 1);
                    Stmt::Expr(Expr::Call {
                        name: "print_float".into(),
                        args: vec![e],
                    })
                } else {
                    let e = self.int_expr(self.cfg.expr_depth - 1);
                    Stmt::Expr(Expr::Call {
                        name: "print_int".into(),
                        args: vec![e],
                    })
                }
            }
            // Store to the writable scratch array.
            75..=82 if self.has_wbuf => {
                let idx = self.masked_index();
                let rhs = self.int_expr(self.cfg.expr_depth - 1);
                Stmt::Assign {
                    lv: LValue::Elem {
                        base: "wbuf".into(),
                        indices: vec![idx],
                    },
                    op: AssignOp::Set,
                    rhs,
                }
            }
            // Internal dynamic-to-static promotion.
            83..=86 if self.has_region => {
                let v = self.pick(&self.int_locals.clone()).clone();
                Stmt::Promote(v)
            }
            // End specialization on an annotated variable.
            87..=88 if !self.annotated.is_empty() => {
                let v = self.pick(&self.annotated.clone()).clone();
                Stmt::MakeDynamic(vec![v])
            }
            // Mid-region make_static of a local (always checked caching).
            89..=90 => {
                let v = self.pick(&self.int_locals.clone()).clone();
                self.has_region = true;
                self.annotated.push(v.clone());
                Stmt::MakeStatic(vec![(v, Policy::CacheAll)])
            }
            // Break out of a loop or switch.
            91..=92 if matches!(self.ctx.last(), Some(Ctx::Loop(_))) => Stmt::Break,
            // Continue — only when the innermost loop is a `for`.
            93 if matches!(self.ctx.last(), Some(Ctx::Loop(true))) => Stmt::Continue,
            _ => self.assign_stmt(),
        }
    }

    fn assign_stmt(&mut self) -> Stmt {
        if self.has_float && !self.float_locals.is_empty() && self.chance(0.25) {
            let v = self.pick(&self.float_locals.clone()).clone();
            let rhs = self.float_expr(self.cfg.expr_depth);
            return Stmt::Assign {
                lv: LValue::Var(v),
                op: AssignOp::Set,
                rhs,
            };
        }
        let candidates: Vec<String> = self
            .int_locals
            .iter()
            .filter(|v| !self.frozen.contains(v))
            .cloned()
            .collect();
        let v = self.pick(&candidates).clone();
        let op = if self.chance(0.25) {
            *self.pick(&[AssignOp::Add, AssignOp::Sub, AssignOp::Mul])
        } else {
            AssignOp::Set
        };
        let rhs = self.int_expr(self.cfg.expr_depth);
        Stmt::Assign {
            lv: LValue::Var(v),
            op,
            rhs,
        }
    }

    /// A bounded counting loop. The counter and every variable the bound
    /// reads are frozen for the duration of the body, so the trip count is
    /// fixed at loop entry (≤ 12) and nesting multiplies small factors.
    fn loop_stmt(&mut self, depth: usize) -> Stmt {
        let counter = if self.open_loops() == 0 { "i0" } else { "i1" }.to_string();
        // Bound: a literal, or a read-only parameter (possibly masked).
        let (bound, bound_frozen): (Expr, Vec<String>) = match self.rng.next_u64() % 4 {
            0 => (Expr::IntLit(1 + (self.rng.next_u64() % 8) as i64), vec![]),
            // A static parameter: with make_static this unrolls.
            1 => (Expr::Var("s0".into()), vec!["s0".into()]),
            2 => (Expr::Var("s1".into()), vec!["s1".into()]),
            // A dynamic parameter, masked small.
            _ => (
                Expr::Binary(
                    BinOp::BitAnd,
                    Box::new(Expr::Var("d0".into())),
                    Box::new(Expr::IntLit(7)),
                ),
                vec!["d0".into()],
            ),
        };
        let is_for = self.chance(0.5);
        self.frozen.push(counter.clone());
        self.frozen.extend(bound_frozen.iter().cloned());
        self.ctx.push(Ctx::Loop(is_for));
        let body = self.stmts(3, depth - 1);
        self.ctx.pop();
        for _ in 0..=bound_frozen.len() {
            self.frozen.pop();
        }

        let cond = Expr::Binary(
            BinOp::Lt,
            Box::new(Expr::Var(counter.clone())),
            Box::new(bound),
        );
        let incr = Stmt::Assign {
            lv: LValue::Var(counter.clone()),
            op: AssignOp::Set,
            rhs: Expr::Binary(
                BinOp::Add,
                Box::new(Expr::Var(counter.clone())),
                Box::new(Expr::IntLit(1)),
            ),
        };
        let init = Stmt::Assign {
            lv: LValue::Var(counter),
            op: AssignOp::Set,
            rhs: Expr::IntLit(0),
        };
        if is_for {
            Stmt::For {
                init: Some(Box::new(init)),
                cond: Some(cond),
                step: Some(Box::new(incr)),
                body: Box::new(Stmt::Block(body)),
            }
        } else {
            let mut b = body;
            b.push(incr);
            Stmt::Block(vec![
                init,
                Stmt::While {
                    cond,
                    body: Box::new(Stmt::Block(b)),
                },
            ])
        }
    }
}

/// Generate one deterministic test case from a seed.
pub fn generate_case(seed: u64, cfg: GenConfig) -> TestCase {
    let mut g = Gen {
        rng: SplitMix64::seed_from_u64(seed),
        cfg,
        int_vars: Vec::new(),
        float_vars: Vec::new(),
        int_locals: Vec::new(),
        float_locals: Vec::new(),
        frozen: Vec::new(),
        ctx: Vec::new(),
        annotated: Vec::new(),
        has_region: false,
        has_arr: false,
        has_wbuf: false,
        has_float: false,
        helpers: Vec::new(),
        stmt_budget: 0,
    };
    g.has_arr = g.chance(0.5);
    g.has_wbuf = g.chance(0.5);
    g.has_float = g.chance(0.4);

    let mut functions = Vec::new();

    // Helper functions: pure scalar arithmetic, optionally `static` so
    // calls with all-static arguments run at specialization time.
    let n_helpers = (g.rng.next_u64() % 3) as usize;
    let mut all_helpers: Vec<(String, usize, bool)> = Vec::new();
    let mut helper_is_static: Vec<bool> = Vec::new();
    for h in 0..n_helpers {
        let name = format!("helper{h}");
        let arity = 1 + (g.rng.next_u64() % 2) as usize;
        let is_static = g.chance(0.6);
        let params: Vec<Param> = (0..arity)
            .map(|i| Param {
                name: format!("p{i}"),
                ty: Type::Int,
                dims: vec![],
            })
            .collect();
        g.int_vars = params.iter().map(|p| p.name.clone()).collect();
        g.float_vars.clear();
        // Helpers are pure scalar arithmetic: no floats, no memory. The
        // verifier rejects a `static` function that calls a non-static
        // one, so a static helper's callee pool holds only static
        // helpers; a dynamic helper may call any earlier helper.
        let (was_float, was_arr, was_wbuf) = (g.has_float, g.has_arr, g.has_wbuf);
        g.has_float = false;
        g.has_arr = false;
        g.has_wbuf = false;
        g.helpers = all_helpers
            .iter()
            .zip(&helper_is_static)
            .filter(|&(_, &callee_static)| callee_static || !is_static)
            .map(|(hh, _)| hh.clone())
            .collect();
        let body = vec![Stmt::Return(Some(g.int_expr(2)))];
        g.has_float = was_float;
        g.has_arr = was_arr;
        g.has_wbuf = was_wbuf;
        all_helpers.push((name.clone(), arity, false));
        helper_is_static.push(is_static);
        functions.push(Function {
            name,
            is_static,
            ret: Type::Int,
            params,
            body,
        });
    }
    g.helpers = all_helpers;

    // Target signature: scalars first, then the array pairs.
    let mut params = vec![
        Param {
            name: "s0".into(),
            ty: Type::Int,
            dims: vec![],
        },
        Param {
            name: "s1".into(),
            ty: Type::Int,
            dims: vec![],
        },
        Param {
            name: "d0".into(),
            ty: Type::Int,
            dims: vec![],
        },
        Param {
            name: "d1".into(),
            ty: Type::Int,
            dims: vec![],
        },
    ];
    if g.has_float {
        params.push(Param {
            name: "f0".into(),
            ty: Type::Float,
            dims: vec![],
        });
    }
    let n_scalars = params.len();
    if g.has_arr {
        params.push(Param {
            name: "arr".into(),
            ty: Type::Int,
            dims: vec![None],
        });
        params.push(Param {
            name: "an".into(),
            ty: Type::Int,
            dims: vec![],
        });
    }
    if g.has_wbuf {
        params.push(Param {
            name: "wbuf".into(),
            ty: Type::Int,
            dims: vec![None],
        });
        params.push(Param {
            name: "wn".into(),
            ty: Type::Int,
            dims: vec![],
        });
    }

    let mut body: Vec<Stmt> = Vec::new();

    // The region entry: a sampled subset of annotatable parameters.
    let mut frozen_params: Vec<String> = Vec::new();
    let annotate = g.chance(0.9);
    if annotate {
        let mut vars: Vec<(String, Policy)> = Vec::new();
        let mut candidates: Vec<&str> = vec!["s0", "s1"];
        if g.has_arr {
            candidates.push("arr");
        }
        for c in candidates {
            let p = if c == "s0" { 0.85 } else { 0.5 };
            if g.chance(p) {
                // A fifth of the annotations bound the cache to one or
                // two entries, so the tuples evict (and the runtimes free
                // what they evict).
                let policy = match g.rng.next_u64() % 10 {
                    0..=3 => Policy::CacheAll,
                    4 => Policy::CacheAllBounded(1),
                    5 => Policy::CacheAllBounded(2),
                    6..=7 => Policy::CacheIndexed,
                    _ => Policy::CacheOneUnchecked,
                };
                if policy == Policy::CacheOneUnchecked {
                    frozen_params.push(c.to_string());
                }
                vars.push((c.to_string(), policy));
            }
        }
        if vars.iter().any(|(v, _)| v == "arr") {
            // The array base is only meaningful together with its length.
            vars.push(("an".into(), Policy::CacheOneUnchecked));
        }
        if !vars.is_empty() {
            g.has_region = true;
            g.annotated = vars.iter().map(|(v, _)| v.clone()).collect();
            let entry = Stmt::MakeStatic(vars);
            if g.chance(0.25) {
                // Conditional specialization (§2.2.5): the entry sits
                // under a dynamic test, exercising polyvariant division.
                body.push(Stmt::If {
                    cond: Expr::Binary(
                        BinOp::Gt,
                        Box::new(Expr::Var("d1".into())),
                        Box::new(Expr::IntLit(0)),
                    ),
                    then_branch: Box::new(Stmt::Block(vec![entry])),
                    else_branch: None,
                });
            } else {
                body.push(entry);
            }
        }
    }

    // Locals: loop counters first (so later initializers may read them),
    // then a pool of int scalars, optionally a float.
    let n_locals = 2 + (g.rng.next_u64() % 3) as usize;
    g.int_vars = vec!["s0".into(), "s1".into(), "d0".into(), "d1".into()];
    if g.has_arr {
        g.int_vars.push("an".into());
    }
    if g.has_wbuf {
        g.int_vars.push("wn".into());
    }
    body.push(Stmt::Decl {
        ty: Type::Int,
        inits: vec![("i0".into(), Some(Expr::IntLit(0)))],
    });
    body.push(Stmt::Decl {
        ty: Type::Int,
        inits: vec![("i1".into(), Some(Expr::IntLit(0)))],
    });
    g.int_vars.push("i0".into());
    g.int_vars.push("i1".into());
    for l in 0..n_locals {
        let name = format!("x{l}");
        let init = if g.chance(0.5) {
            Gen::lit(g.int_const())
        } else {
            g.int_expr(1)
        };
        body.push(Stmt::Decl {
            ty: Type::Int,
            inits: vec![(name.clone(), Some(init))],
        });
        g.int_locals.push(name.clone());
        g.int_vars.push(name);
    }
    if g.has_float {
        let init = Gen::flit(g.float_const());
        body.push(Stmt::Decl {
            ty: Type::Float,
            inits: vec![("g0".into(), Some(init))],
        });
        g.float_locals.push("g0".into());
        g.float_vars.push("g0".into());
        g.float_vars.push("f0".into());
    }

    // The body proper.
    g.stmt_budget = g.cfg.max_stmts;
    let depth = g.cfg.max_depth;
    while g.stmt_budget > 0 {
        g.stmt_budget -= 1;
        let s = g.stmt(depth);
        body.push(s);
    }

    // Return an int expression over whatever is in scope.
    let ret = g.int_expr(g.cfg.expr_depth);
    body.push(Stmt::Return(Some(ret)));

    functions.push(Function {
        name: TARGET.into(),
        is_static: false,
        ret: Type::Int,
        params,
        body,
    });

    // Array contents: small, with zeros and powers of two so the staged
    // zero-fold / strength-reduction paths fire on static loads.
    let arr = g.has_arr.then(|| {
        const POOL: [i64; 9] = [0, 1, 2, 4, 8, -1, 3, 16, 0];
        (0..ARRAY_LEN)
            .map(|_| POOL[(g.rng.next_u64() % POOL.len() as u64) as usize])
            .collect()
    });
    let wbuf = g.has_wbuf.then(|| {
        (0..ARRAY_LEN)
            .map(|_| (g.rng.next_u64() % 64) as i64 - 32)
            .collect()
    });

    // Invocation tuples: three bases, then a repeat of the first (the
    // oracle separately re-runs the first tuple for steady-state deltas).
    // Parameters under cache_one_unchecked keep tuple 0's value
    // everywhere — varying them is unsound by design.
    let n_scalar_params = n_scalars;
    let mut tuples: Vec<Vec<ScalarArg>> = Vec::new();
    for t in 0..3 {
        let mut tuple = Vec::with_capacity(n_scalar_params);
        for p in 0..n_scalar_params {
            let name = ["s0", "s1", "d0", "d1", "f0"][p];
            let arg = match name {
                "s0" | "s1" => ScalarArg::I(g.rng.gen_range(-2i64..9)),
                "f0" => ScalarArg::F(g.rng.gen_range(-4.0..4.0)),
                _ => ScalarArg::I(g.rng.gen_range(-40i64..41)),
            };
            let frozen = frozen_params.iter().any(|f| f == name);
            if frozen && t > 0 {
                tuple.push(tuples[0][p]);
            } else {
                tuple.push(arg);
            }
        }
        tuples.push(tuple);
    }
    tuples.push(tuples[0].clone());

    TestCase {
        program: Program { functions },
        arr,
        wbuf,
        tuples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyc_lang::pretty::program_to_string;

    #[test]
    fn generation_is_deterministic() {
        for seed in [1u64, 7, 42, 0xdead] {
            let a = generate_case(seed, GenConfig::default());
            let b = generate_case(seed, GenConfig::default());
            assert_eq!(program_to_string(&a.program), program_to_string(&b.program));
            assert_eq!(a.tuples, b.tuples);
            assert_eq!(a.arr, b.arr);
            assert_eq!(a.wbuf, b.wbuf);
        }
    }

    #[test]
    fn generated_programs_parse_back() {
        for seed in 0..50u64 {
            let c = generate_case(seed, GenConfig::default());
            let src = program_to_string(&c.program);
            let reparsed = dyc_lang::parse_program(&src).unwrap_or_else(|e| {
                panic!("seed {seed}: generated source fails to parse: {e}\n{src}")
            });
            assert_eq!(
                reparsed, c.program,
                "seed {seed}: round trip changed the AST"
            );
        }
    }
}
