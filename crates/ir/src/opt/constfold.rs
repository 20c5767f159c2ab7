//! Constant folding/propagation, copy propagation, and algebraic
//! simplification (block-local), plus constant-branch folding.
//!
//! This is the static half of what DyC's staged *dynamic* constant
//! propagation does at run time; here it only sees compile-time constants.

use crate::func::FuncIr;
use crate::ids::VReg;
use crate::inst::{Inst, Term};
use dyc_vm::interp::{falu, fcmp, ialu, icmp};
use dyc_vm::{FAluOp, IAluOp, UnOp};
use std::collections::HashMap;

/// A known compile-time constant.
#[derive(Debug, Clone, Copy, PartialEq)]
enum K {
    I(i64),
    F(f64),
}

#[derive(Default)]
struct Env {
    consts: HashMap<VReg, K>,
    copies: HashMap<VReg, VReg>,
}

impl Env {
    /// Resolve a use through the copy map.
    fn resolve(&self, r: VReg) -> VReg {
        let mut cur = r;
        let mut hops = 0;
        while let Some(&next) = self.copies.get(&cur) {
            cur = next;
            hops += 1;
            if hops > 64 {
                break; // defensive: copy chains are short in practice
            }
        }
        cur
    }

    fn const_of(&self, r: VReg) -> Option<K> {
        self.consts
            .get(&self.resolve(r))
            .copied()
            .or_else(|| self.consts.get(&r).copied())
    }

    /// Invalidate everything known about `d` (it was just redefined).
    fn kill(&mut self, d: VReg) {
        self.consts.remove(&d);
        self.copies.remove(&d);
        self.copies.retain(|_, v| *v != d);
    }
}

/// Run one pass; returns true if anything changed.
pub fn run(f: &mut FuncIr) -> bool {
    // Variables named by annotations are specialization keys: if copy
    // propagation replaced their downstream uses with the copy source, the
    // binding-time analysis would lose the link between the annotation and
    // the code it is meant to specialize. Pin them.
    let mut pinned: std::collections::HashSet<VReg> = std::collections::HashSet::new();
    for b in &f.blocks {
        for inst in &b.insts {
            crate::analysis::annotation_uses(inst, |v| {
                pinned.insert(v);
            });
        }
    }
    let mut changed = false;
    for bi in 0..f.blocks.len() {
        let mut env = Env::default();
        let block = &mut f.blocks[bi];
        for inst in &mut block.insts {
            // Rewrite uses through the copy map first.
            changed |= rewrite_uses(inst, &env);
            let new = fold(inst, &env);
            if let Some(n) = new {
                if *inst != n {
                    *inst = n;
                    changed = true;
                }
            }
            // Update the environment with the (possibly rewritten) inst.
            if let Some(d) = inst.def() {
                env.kill(d);
                match inst {
                    Inst::ConstI { dst, v } => {
                        env.consts.insert(*dst, K::I(*v));
                    }
                    Inst::ConstF { dst, v } => {
                        env.consts.insert(*dst, K::F(*v));
                    }
                    Inst::Copy { dst, src } => {
                        if let Some(k) = env.const_of(*src) {
                            env.consts.insert(*dst, k);
                        }
                        let root = env.resolve(*src);
                        if root != *dst && !pinned.contains(dst) {
                            env.copies.insert(*dst, root);
                        }
                    }
                    _ => {}
                }
            }
        }
        // Terminator: rewrite uses and fold constant branches.
        match &mut block.term {
            Term::Br { cond, t, f: fb } => {
                let r = env.resolve(*cond);
                if r != *cond {
                    *cond = r;
                    changed = true;
                }
                if let Some(k) = env.const_of(*cond) {
                    let taken = match k {
                        K::I(v) => v != 0,
                        K::F(v) => v != 0.0,
                    };
                    block.term = Term::Jmp(if taken { *t } else { *fb });
                    changed = true;
                }
            }
            Term::Switch { on, cases, default } => {
                let r = env.resolve(*on);
                if r != *on {
                    *on = r;
                    changed = true;
                }
                if let Some(K::I(v)) = env.const_of(*on) {
                    let target = cases
                        .iter()
                        .find_map(|(k, b)| (*k == v).then_some(*b))
                        .unwrap_or(*default);
                    block.term = Term::Jmp(target);
                    changed = true;
                }
            }
            Term::Ret(Some(v)) => {
                let r = env.resolve(*v);
                if r != *v {
                    *v = r;
                    changed = true;
                }
            }
            _ => {}
        }
    }
    changed
}

fn rewrite_uses(inst: &mut Inst, env: &Env) -> bool {
    let mut changed = false;
    let mut fix = |r: &mut VReg| {
        let n = env.resolve(*r);
        if n != *r {
            *r = n;
            changed = true;
        }
    };
    match inst {
        Inst::Copy { src, .. } | Inst::Un { src, .. } => fix(src),
        Inst::IBin { a, b, .. }
        | Inst::FBin { a, b, .. }
        | Inst::ICmp { a, b, .. }
        | Inst::FCmp { a, b, .. } => {
            fix(a);
            fix(b);
        }
        Inst::Load { base, idx, .. } => {
            fix(base);
            fix(idx);
        }
        Inst::Store { base, idx, src, .. } => {
            fix(base);
            fix(idx);
            fix(src);
        }
        Inst::Call { args, .. } => {
            for a in args {
                fix(a);
            }
        }
        _ => {}
    }
    changed
}

#[allow(clippy::too_many_lines)]
fn fold(inst: &Inst, env: &Env) -> Option<Inst> {
    match inst {
        Inst::IBin { op, dst, a, b } => {
            let ka = env.const_of(*a);
            let kb = env.const_of(*b);
            if let (Some(K::I(x)), Some(K::I(y))) = (ka, kb) {
                // A fault stays unfolded, for the code to raise at run time.
                if let Ok(v) = ialu(*op, x, y) {
                    return Some(Inst::ConstI { dst: *dst, v });
                }
            }
            // Algebraic identities on ints.
            match (op, ka, kb) {
                (IAluOp::Add, Some(K::I(0)), _) | (IAluOp::Mul, Some(K::I(1)), _) => {
                    return Some(Inst::Copy { dst: *dst, src: *b })
                }
                (IAluOp::Add, _, Some(K::I(0)))
                | (IAluOp::Sub, _, Some(K::I(0)))
                | (IAluOp::Mul, _, Some(K::I(1)))
                | (IAluOp::Div, _, Some(K::I(1)))
                | (IAluOp::Shl, _, Some(K::I(0)))
                | (IAluOp::Shr, _, Some(K::I(0))) => {
                    return Some(Inst::Copy { dst: *dst, src: *a })
                }
                (IAluOp::Mul, Some(K::I(0)), _) | (IAluOp::Mul, _, Some(K::I(0))) => {
                    return Some(Inst::ConstI { dst: *dst, v: 0 })
                }
                _ => {}
            }
            None
        }
        Inst::FBin { op, dst, a, b } => {
            let ka = env.const_of(*a);
            let kb = env.const_of(*b);
            if let (Some(K::F(x)), Some(K::F(y))) = (ka, kb) {
                return Some(Inst::ConstF {
                    dst: *dst,
                    v: falu(*op, x, y),
                });
            }
            // x * 1.0 and x / 1.0 are exact; other float identities are not.
            #[allow(clippy::redundant_guards)]
            match (op, ka, kb) {
                (FAluOp::Mul, Some(K::F(k)), _) if k == 1.0 => {
                    return Some(Inst::Copy { dst: *dst, src: *b })
                }
                (FAluOp::Mul, _, Some(K::F(k))) | (FAluOp::Div, _, Some(K::F(k))) if k == 1.0 => {
                    return Some(Inst::Copy { dst: *dst, src: *a })
                }
                _ => {}
            }
            None
        }
        Inst::ICmp { cc, dst, a, b } => {
            if let (Some(K::I(x)), Some(K::I(y))) = (env.const_of(*a), env.const_of(*b)) {
                return Some(Inst::ConstI {
                    dst: *dst,
                    v: icmp(*cc, x, y) as i64,
                });
            }
            None
        }
        Inst::FCmp { cc, dst, a, b } => {
            if let (Some(K::F(x)), Some(K::F(y))) = (env.const_of(*a), env.const_of(*b)) {
                return Some(Inst::ConstI {
                    dst: *dst,
                    v: fcmp(*cc, x, y) as i64,
                });
            }
            None
        }
        Inst::Un { op, dst, src } => {
            let k = env.const_of(*src)?;
            Some(match (op, k) {
                (UnOp::NegI, K::I(v)) => Inst::ConstI {
                    dst: *dst,
                    v: v.wrapping_neg(),
                },
                (UnOp::NotI, K::I(v)) => Inst::ConstI { dst: *dst, v: !v },
                (UnOp::NegF, K::F(v)) => Inst::ConstF { dst: *dst, v: -v },
                (UnOp::IToF, K::I(v)) => Inst::ConstF {
                    dst: *dst,
                    v: v as f64,
                },
                (UnOp::FToI, K::F(v)) => Inst::ConstI {
                    dst: *dst,
                    v: v as i64,
                },
                _ => return None,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use dyc_lang::parse_program;

    fn fold_once(src: &str) -> FuncIr {
        let mut ir = lower_program(&parse_program(src).unwrap()).unwrap();
        let mut f = ir.funcs.remove(0);
        run(&mut f);
        f
    }

    #[test]
    fn folds_constant_arithmetic() {
        let f = fold_once("int f() { return 6 * 7; }");
        assert!(f
            .block(f.entry)
            .insts
            .iter()
            .any(|i| matches!(i, Inst::ConstI { v: 42, .. })));
    }

    #[test]
    fn folds_through_copies() {
        let f = fold_once("int f() { int a = 5; int b = a; return b + 1; }");
        assert!(f
            .block(f.entry)
            .insts
            .iter()
            .any(|i| matches!(i, Inst::ConstI { v: 6, .. })));
    }

    #[test]
    fn multiplication_by_one_becomes_copy() {
        let f = fold_once("int f(int x) { return x * 1; }");
        let insts = &f.block(f.entry).insts;
        assert!(insts.iter().any(|i| matches!(i, Inst::Copy { .. })));
        assert!(!insts.iter().any(|i| matches!(
            i,
            Inst::IBin {
                op: IAluOp::Mul,
                ..
            }
        )));
    }

    #[test]
    fn float_mul_by_one_becomes_copy_but_add_zero_does_not() {
        let f = fold_once("float f(float x) { return x * 1.0; }");
        assert!(f
            .block(f.entry)
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Copy { .. })));
        // x + 0.0 must stay (negative-zero semantics).
        let g = fold_once("float f(float x) { return x + 0.0; }");
        assert!(g
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i, Inst::FBin { .. })));
    }

    #[test]
    fn divide_by_zero_not_folded() {
        let f = fold_once("int f() { return 1 / 0; }");
        assert!(f.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(
            i,
            Inst::IBin {
                op: IAluOp::Div,
                ..
            }
        )));
    }

    #[test]
    fn constant_branch_becomes_jump() {
        let f = fold_once("int f(int x) { if (2 > 1) { return 1; } return x; }");
        assert!(matches!(f.block(f.entry).term, Term::Jmp(_)));
    }

    #[test]
    fn redefinition_invalidates_knowledge() {
        // a is 1, then reassigned to x; the fold of a+1 must not use 1.
        let f = fold_once("int f(int x) { int a = 1; a = x; return a + 1; }");
        assert!(f.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(
            i,
            Inst::IBin {
                op: IAluOp::Add,
                ..
            }
        )));
    }

    #[test]
    fn constant_switch_becomes_jump() {
        let f = fold_once(
            "int f() { int r = 0; switch (2) { case 1: r = 1; break; case 2: r = 2; break; default: r = 3; } return r; }",
        );
        assert!(matches!(f.block(f.entry).term, Term::Jmp(_)));
    }
}
