//! The VM instruction set.
//!
//! A small RISC-flavoured register machine. Design points that matter for
//! reproducing the paper:
//!
//! * Integer ALU instructions have a register/immediate second operand,
//!   modeling the Alpha's literal field — the dynamic compiler tries to fold
//!   run-time-constant operands into immediates ("attempt to fit integer
//!   static operands into instruction immediate fields", §2.2.7).
//! * Every instruction occupies one 4-byte slot for the purposes of the
//!   instruction-cache model, as on a real RISC.
//! * [`Instr::Dispatch`] re-enters the run-time system: it implements both
//!   dynamic-region entry dispatching and *internal dynamic-to-static
//!   promotion* points (§2.2.2–2.2.3).

use crate::host::HostFn;
use crate::module::FuncId;

/// A register index within a function's frame.
///
/// The VM allows large frames; register allocation pressure is not part of
/// the performance model (the paper's results are driven by instruction
/// counts and the I-cache, not spills).
pub type Reg = u32;

/// Scalar types, as carried by memory-access instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
}

/// Second operand of an integer ALU instruction: register or immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// An immediate operand (the Alpha literal field holds 8 bits; we are
    /// more generous but the cost model is unaffected either way).
    Imm(i64),
}

impl Operand {
    /// True if this operand is an immediate.
    pub fn is_imm(self) -> bool {
        matches!(self, Operand::Imm(_))
    }
}

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IAluOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// Floating-point ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FAluOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Comparison condition codes (produce 0/1 in an integer register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cc {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cc {
    /// The condition with operands swapped (`a < b` ⇔ `b > a`).
    pub fn swapped(self) -> Cc {
        match self {
            Cc::Eq => Cc::Eq,
            Cc::Ne => Cc::Ne,
            Cc::Lt => Cc::Gt,
            Cc::Le => Cc::Ge,
            Cc::Gt => Cc::Lt,
            Cc::Ge => Cc::Le,
        }
    }

    /// The negated condition (`!(a < b)` ⇔ `a >= b`).
    pub fn negated(self) -> Cc {
        match self {
            Cc::Eq => Cc::Ne,
            Cc::Ne => Cc::Eq,
            Cc::Lt => Cc::Ge,
            Cc::Le => Cc::Gt,
            Cc::Gt => Cc::Le,
            Cc::Ge => Cc::Lt,
        }
    }
}

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation.
    NegI,
    /// Bitwise not.
    NotI,
    /// Float negation.
    NegF,
    /// Convert int to float.
    IToF,
    /// Convert float to int (truncating, like a C cast).
    FToI,
}

/// A single VM instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Load an integer constant into a register.
    MovI { dst: Reg, imm: i64 },
    /// Load a float constant into a register.
    MovF { dst: Reg, imm: f64 },
    /// Register-to-register move.
    Mov { dst: Reg, src: Reg },
    /// Floating-point register move. Semantically identical to [`Instr::Mov`]
    /// but costed like an FP ALU operation: on the 21164 "a floating-point
    /// move takes the same time as a floating-point multiply" (§2.2.7) —
    /// the fact that makes dynamic zero/copy propagation and
    /// dead-assignment elimination necessary beyond strength reduction.
    FMov { dst: Reg, src: Reg },
    /// Integer ALU: `dst = a op b`.
    IAlu {
        op: IAluOp,
        dst: Reg,
        a: Reg,
        b: Operand,
    },
    /// Float ALU: `dst = a op b`.
    FAlu {
        op: FAluOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Integer compare producing 0/1.
    ICmp {
        cc: Cc,
        dst: Reg,
        a: Reg,
        b: Operand,
    },
    /// Float compare producing 0/1.
    FCmp { cc: Cc, dst: Reg, a: Reg, b: Reg },
    /// Unary operation.
    Un { op: UnOp, dst: Reg, src: Reg },
    /// Typed load: `dst = mem[base + idx]` (word addressed).
    Load {
        ty: Ty,
        dst: Reg,
        base: Reg,
        idx: Operand,
    },
    /// Typed store: `mem[base + idx] = src`.
    Store {
        ty: Ty,
        base: Reg,
        idx: Operand,
        src: Reg,
    },
    /// Unconditional jump to an instruction index within this function.
    Jmp { target: u32 },
    /// Branch to `target` if `cond` is zero.
    Brz { cond: Reg, target: u32 },
    /// Branch to `target` if `cond` is nonzero.
    Brnz { cond: Reg, target: u32 },
    /// Call a host (external) function.
    CallHost {
        f: HostFn,
        dst: Option<Reg>,
        args: Vec<Reg>,
    },
    /// Call another VM function.
    Call {
        func: FuncId,
        dst: Option<Reg>,
        args: Vec<Reg>,
    },
    /// Return, optionally with a value.
    Ret { src: Option<Reg> },
    /// Re-enter the run-time system at dispatch point `point` (a dynamic
    /// region entry or an internal promotion point). The handler inspects
    /// `args` (which include the promoted key values), finds or generates
    /// specialized code, and the VM transfers to it tail-call style: the
    /// specialized code's return value becomes this function's return value
    /// via `dst` (the emitter always places `Ret` right after `Dispatch`).
    Dispatch {
        point: u32,
        dst: Option<Reg>,
        args: Vec<Reg>,
    },
    /// Stop the machine (only valid in a top-level harness function).
    Halt,
}

impl Instr {
    /// The destination register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match *self {
            Instr::MovI { dst, .. }
            | Instr::MovF { dst, .. }
            | Instr::Mov { dst, .. }
            | Instr::FMov { dst, .. }
            | Instr::IAlu { dst, .. }
            | Instr::FAlu { dst, .. }
            | Instr::ICmp { dst, .. }
            | Instr::FCmp { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Load { dst, .. } => Some(dst),
            Instr::CallHost { dst, .. } | Instr::Call { dst, .. } | Instr::Dispatch { dst, .. } => {
                dst
            }
            _ => None,
        }
    }

    /// Registers read by this instruction.
    pub fn uses(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        self.each_use(|r| out.push(r));
        out
    }

    /// Call `f` on each register this instruction reads, in the order of
    /// [`Instr::uses`], without collecting them.
    pub fn each_use(&self, mut f: impl FnMut(Reg)) {
        fn op(f: &mut impl FnMut(Reg), o: &Operand) {
            if let Operand::Reg(r) = *o {
                f(r);
            }
        }
        match self {
            Instr::Mov { src, .. } | Instr::FMov { src, .. } => f(*src),
            Instr::IAlu { a, b, .. } | Instr::ICmp { a, b, .. } => {
                f(*a);
                op(&mut f, b);
            }
            Instr::FAlu { a, b, .. } | Instr::FCmp { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Instr::Un { src, .. } => f(*src),
            Instr::Load { base, idx, .. } => {
                f(*base);
                op(&mut f, idx);
            }
            Instr::Store { base, idx, src, .. } => {
                f(*base);
                op(&mut f, idx);
                f(*src);
            }
            Instr::Brz { cond, .. } | Instr::Brnz { cond, .. } => f(*cond),
            Instr::CallHost { args, .. }
            | Instr::Call { args, .. }
            | Instr::Dispatch { args, .. } => {
                for r in args {
                    f(*r);
                }
            }
            Instr::Ret { src: Some(r) } => f(*r),
            _ => {}
        }
    }

    /// True for instructions with no side effects other than writing `dst`
    /// (candidates for dead-assignment elimination). Loads are included:
    /// memory in the VM has no volatile locations.
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            Instr::MovI { .. }
                | Instr::MovF { .. }
                | Instr::Mov { .. }
                | Instr::FMov { .. }
                | Instr::IAlu { .. }
                | Instr::FAlu { .. }
                | Instr::ICmp { .. }
                | Instr::FCmp { .. }
                | Instr::Un { .. }
                | Instr::Load { .. }
        )
    }

    /// True for control-transfer instructions.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Instr::Jmp { .. } | Instr::Ret { .. } | Instr::Halt | Instr::Dispatch { .. }
        )
    }
}

/// The instruction's *encoding shape* for the native copy-and-patch
/// backend: two instructions share a shape iff their machine-code
/// encodings are byte-identical except for register-slot displacements
/// and 64-bit immediates (the "holes"). `0` means the instruction has no
/// fixed-layout encoding (branches are position-dependent, calls carry
/// variable-length argument lists) and must be lowered individually.
///
/// The stage-time template builder records one shape per template
/// instruction so the native sink can instantiate prebuilt byte
/// sequences with a hole-patch loop instead of re-encoding.
pub fn instr_shape(ins: &Instr) -> u16 {
    fn ialu_idx(op: IAluOp) -> u16 {
        match op {
            IAluOp::Add => 0,
            IAluOp::Sub => 1,
            IAluOp::Mul => 2,
            IAluOp::Div => 3,
            IAluOp::Rem => 4,
            IAluOp::And => 5,
            IAluOp::Or => 6,
            IAluOp::Xor => 7,
            IAluOp::Shl => 8,
            IAluOp::Shr => 9,
        }
    }
    fn falu_idx(op: FAluOp) -> u16 {
        match op {
            FAluOp::Add => 0,
            FAluOp::Sub => 1,
            FAluOp::Mul => 2,
            FAluOp::Div => 3,
        }
    }
    fn cc_idx(cc: Cc) -> u16 {
        match cc {
            Cc::Eq => 0,
            Cc::Ne => 1,
            Cc::Lt => 2,
            Cc::Le => 3,
            Cc::Gt => 4,
            Cc::Ge => 5,
        }
    }
    fn un_idx(op: UnOp) -> u16 {
        match op {
            UnOp::NegI => 0,
            UnOp::NotI => 1,
            UnOp::NegF => 2,
            UnOp::IToF => 3,
            UnOp::FToI => 4,
        }
    }
    fn ty_idx(ty: Ty) -> u16 {
        match ty {
            Ty::Int => 0,
            Ty::Float => 1,
        }
    }
    match ins {
        Instr::MovI { .. } => 1,
        Instr::MovF { .. } => 2,
        Instr::Mov { .. } => 3,
        Instr::FMov { .. } => 4,
        Instr::IAlu { op, b, .. } => 8 + ialu_idx(*op) * 2 + u16::from(b.is_imm()),
        Instr::FAlu { op, .. } => 28 + falu_idx(*op),
        Instr::ICmp { cc, b, .. } => 32 + cc_idx(*cc) * 2 + u16::from(b.is_imm()),
        Instr::FCmp { cc, .. } => 44 + cc_idx(*cc),
        Instr::Un { op, .. } => 50 + un_idx(*op),
        Instr::Load { ty, idx, .. } => 56 + ty_idx(*ty) * 2 + u16::from(idx.is_imm()),
        Instr::Store { ty, idx, .. } => 60 + ty_idx(*ty) * 2 + u16::from(idx.is_imm()),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cc_negation_is_involutive() {
        for cc in [Cc::Eq, Cc::Ne, Cc::Lt, Cc::Le, Cc::Gt, Cc::Ge] {
            assert_eq!(cc.negated().negated(), cc);
            assert_eq!(cc.swapped().swapped(), cc);
        }
    }

    #[test]
    fn defs_and_uses() {
        let i = Instr::IAlu {
            op: IAluOp::Add,
            dst: 3,
            a: 1,
            b: Operand::Reg(2),
        };
        assert_eq!(i.def(), Some(3));
        assert_eq!(i.uses(), vec![1, 2]);

        let s = Instr::Store {
            ty: Ty::Int,
            base: 4,
            idx: Operand::Imm(0),
            src: 5,
        };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses(), vec![4, 5]);
    }

    #[test]
    fn purity_classification() {
        assert!(Instr::Load {
            ty: Ty::Int,
            dst: 0,
            base: 1,
            idx: Operand::Imm(0)
        }
        .is_pure());
        assert!(!Instr::Store {
            ty: Ty::Int,
            base: 1,
            idx: Operand::Imm(0),
            src: 0
        }
        .is_pure());
        assert!(!Instr::CallHost {
            f: HostFn::Cos,
            dst: Some(0),
            args: vec![1]
        }
        .is_pure());
    }

    #[test]
    fn imm_operands_have_no_uses() {
        let i = Instr::IAlu {
            op: IAluOp::Mul,
            dst: 0,
            a: 1,
            b: Operand::Imm(8),
        };
        assert_eq!(i.uses(), vec![1]);
        assert!(Operand::Imm(8).is_imm());
        assert!(!Operand::Reg(1).is_imm());
    }
}
