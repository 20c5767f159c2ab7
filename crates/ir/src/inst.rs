//! IR instructions and terminators.
//!
//! Operation enums are shared with the VM ISA (`IAluOp`, `FAluOp`, `Cc`,
//! `UnOp`) so instruction selection is mostly one-to-one; what the IR adds
//! is virtual registers, explicit basic-block structure, typed loads/stores
//! with a `is_static` bit (the `@` annotation), call kinds, and DyC's
//! annotation pseudo-instructions.

use crate::ids::{BlockId, IrTy, VReg};
use dyc_lang::Policy;
use dyc_vm::{Cc, FAluOp, HostFn, IAluOp, UnOp};

/// What a call targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// A user function, by index into the program's function list.
    /// `is_static` records the `static` qualifier (pure; a *static call*
    /// candidate, §2.2.6).
    Func { index: usize, is_static: bool },
    /// A host function; purity comes from [`HostFn::is_pure`].
    Host(HostFn),
}

impl Callee {
    /// True if calls to this target with all-static arguments may be
    /// executed at dynamic compile time.
    pub fn is_pure(&self) -> bool {
        match self {
            Callee::Func { is_static, .. } => *is_static,
            Callee::Host(h) => h.is_pure(),
        }
    }
}

/// A non-terminator IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// `dst = <int const>`
    ConstI { dst: VReg, v: i64 },
    /// `dst = <float const>`
    ConstF { dst: VReg, v: f64 },
    /// `dst = src` (same type).
    Copy { dst: VReg, src: VReg },
    /// Integer ALU.
    IBin {
        op: IAluOp,
        dst: VReg,
        a: VReg,
        b: VReg,
    },
    /// Float ALU.
    FBin {
        op: FAluOp,
        dst: VReg,
        a: VReg,
        b: VReg,
    },
    /// Integer comparison (produces int 0/1).
    ICmp { cc: Cc, dst: VReg, a: VReg, b: VReg },
    /// Float comparison (produces int 0/1).
    FCmp { cc: Cc, dst: VReg, a: VReg, b: VReg },
    /// Unary op / conversion.
    Un { op: UnOp, dst: VReg, src: VReg },
    /// `dst = mem[base + idx]`; `is_static` marks the `@` annotation.
    Load {
        ty: IrTy,
        dst: VReg,
        base: VReg,
        idx: VReg,
        is_static: bool,
    },
    /// `mem[base + idx] = src`.
    Store {
        ty: IrTy,
        base: VReg,
        idx: VReg,
        src: VReg,
    },
    /// Call; `dst` is `None` for void calls.
    Call {
        callee: Callee,
        dst: Option<VReg>,
        args: Vec<VReg>,
    },
    /// Annotation: begin specialization on these variables (§2.1).
    MakeStatic { vars: Vec<(VReg, Policy)> },
    /// Annotation: end specialization on these variables.
    MakeDynamic { vars: Vec<VReg> },
    /// Annotation: internal dynamic-to-static promotion point (§2.2.2).
    Promote { var: VReg },
}

impl Inst {
    /// The register defined, if any.
    pub fn def(&self) -> Option<VReg> {
        match self {
            Inst::ConstI { dst, .. }
            | Inst::ConstF { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::IBin { dst, .. }
            | Inst::FBin { dst, .. }
            | Inst::ICmp { dst, .. }
            | Inst::FCmp { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Load { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Registers read.
    pub fn uses(&self) -> Vec<VReg> {
        let mut out = Vec::new();
        self.each_use(|v| out.push(v));
        out
    }

    /// Call `f` on each register this instruction reads, in the order of
    /// [`Inst::uses`], without collecting them.
    pub fn each_use(&self, mut f: impl FnMut(VReg)) {
        match self {
            Inst::ConstI { .. } | Inst::ConstF { .. } => {}
            Inst::Copy { src, .. } | Inst::Un { src, .. } => f(*src),
            Inst::IBin { a, b, .. }
            | Inst::FBin { a, b, .. }
            | Inst::ICmp { a, b, .. }
            | Inst::FCmp { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Inst::Load { base, idx, .. } => {
                f(*base);
                f(*idx);
            }
            Inst::Store { base, idx, src, .. } => {
                f(*base);
                f(*idx);
                f(*src);
            }
            Inst::Call { args, .. } => args.iter().copied().for_each(f),
            // Annotations read nothing at run time; they direct the BTA.
            Inst::MakeStatic { .. } | Inst::MakeDynamic { .. } | Inst::Promote { .. } => {}
        }
    }

    /// True if removable when `dst` is dead. Loads qualify (no volatile
    /// memory in the VM); calls do not unless the callee is pure.
    pub fn is_pure(&self) -> bool {
        match self {
            Inst::ConstI { .. }
            | Inst::ConstF { .. }
            | Inst::Copy { .. }
            | Inst::IBin { .. }
            | Inst::FBin { .. }
            | Inst::ICmp { .. }
            | Inst::FCmp { .. }
            | Inst::Un { .. }
            | Inst::Load { .. } => true,
            Inst::Call { callee, .. } => callee.is_pure(),
            Inst::Store { .. }
            | Inst::MakeStatic { .. }
            | Inst::MakeDynamic { .. }
            | Inst::Promote { .. } => false,
        }
    }

    /// True for annotation pseudo-instructions (no run-time effect).
    pub fn is_annotation(&self) -> bool {
        matches!(
            self,
            Inst::MakeStatic { .. } | Inst::MakeDynamic { .. } | Inst::Promote { .. }
        )
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// Unconditional jump.
    Jmp(BlockId),
    /// Two-way branch on an int condition.
    Br { cond: VReg, t: BlockId, f: BlockId },
    /// Multi-way switch on an int value.
    Switch {
        on: VReg,
        cases: Vec<(i64, BlockId)>,
        default: BlockId,
    },
    /// Function return.
    Ret(Option<VReg>),
}

impl Term {
    /// Successor blocks, in order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Jmp(b) => vec![*b],
            Term::Br { t, f, .. } => vec![*t, *f],
            Term::Switch { cases, default, .. } => {
                let mut v: Vec<BlockId> = cases.iter().map(|(_, b)| *b).collect();
                v.push(*default);
                v
            }
            Term::Ret(_) => vec![],
        }
    }

    /// Registers read by the terminator.
    pub fn uses(&self) -> Vec<VReg> {
        match self {
            Term::Br { cond, .. } => vec![*cond],
            Term::Switch { on, .. } => vec![*on],
            Term::Ret(Some(v)) => vec![*v],
            _ => vec![],
        }
    }

    /// Rewrite every successor through `f` (used by CFG simplification).
    pub fn map_succs(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Term::Jmp(b) => *b = f(*b),
            Term::Br { t, f: fb, .. } => {
                *t = f(*t);
                *fb = f(*fb);
            }
            Term::Switch { cases, default, .. } => {
                for (_, b) in cases.iter_mut() {
                    *b = f(*b);
                }
                *default = f(*default);
            }
            Term::Ret(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inst_defs_and_uses() {
        let i = Inst::IBin {
            op: IAluOp::Add,
            dst: VReg(2),
            a: VReg(0),
            b: VReg(1),
        };
        assert_eq!(i.def(), Some(VReg(2)));
        assert_eq!(i.uses(), vec![VReg(0), VReg(1)]);
    }

    #[test]
    fn each_use_visits_operands_in_order() {
        let visited = |i: &Inst| {
            let mut out = Vec::new();
            i.each_use(|v| out.push(v));
            out
        };
        let store = Inst::Store {
            ty: IrTy::Int,
            base: VReg(4),
            idx: VReg(5),
            src: VReg(6),
        };
        assert_eq!(visited(&store), vec![VReg(4), VReg(5), VReg(6)]);
        let call = Inst::Call {
            callee: Callee::Host(HostFn::Cos),
            dst: None,
            args: vec![VReg(9), VReg(7), VReg(8), VReg(7)],
        };
        assert_eq!(visited(&call), vec![VReg(9), VReg(7), VReg(8), VReg(7)]);
        assert!(visited(&Inst::Promote { var: VReg(1) }).is_empty());
    }

    #[test]
    fn purity() {
        assert!(Inst::Load {
            ty: IrTy::Int,
            dst: VReg(0),
            base: VReg(1),
            idx: VReg(2),
            is_static: false
        }
        .is_pure());
        assert!(!Inst::Store {
            ty: IrTy::Int,
            base: VReg(1),
            idx: VReg(2),
            src: VReg(0)
        }
        .is_pure());
        let pure_call = Inst::Call {
            callee: Callee::Host(HostFn::Cos),
            dst: Some(VReg(0)),
            args: vec![VReg(1)],
        };
        assert!(pure_call.is_pure());
        let print = Inst::Call {
            callee: Callee::Host(HostFn::PrintI),
            dst: None,
            args: vec![VReg(1)],
        };
        assert!(!print.is_pure());
    }

    #[test]
    fn term_successors() {
        let t = Term::Switch {
            on: VReg(0),
            cases: vec![(1, BlockId(1)), (2, BlockId(2))],
            default: BlockId(3),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2), BlockId(3)]);
        assert_eq!(Term::Ret(None).successors(), vec![]);
    }

    #[test]
    fn map_succs_rewrites_all() {
        let mut t = Term::Br {
            cond: VReg(0),
            t: BlockId(1),
            f: BlockId(2),
        };
        t.map_succs(|b| BlockId(b.0 + 10));
        assert_eq!(
            t,
            Term::Br {
                cond: VReg(0),
                t: BlockId(11),
                f: BlockId(12)
            }
        );
    }
}
