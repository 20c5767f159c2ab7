//! The cycle cost model.
//!
//! Calibrated to the DEC Alpha 21164 the paper measured on. Two facts from
//! the paper constrain the model directly:
//!
//! * "On some architectures, such as the DEC Alpha 21164 …, a floating-point
//!   move takes the same time as a floating-point multiply" (§2.2.7) — so
//!   `fp_mov == fp_alu`. This is why dynamic *zero/copy propagation and
//!   dead-assignment elimination* (not mere strength reduction to a move)
//!   are needed to profit from `x * 1.0`.
//! * Unchecked dispatch ≈ 10 cycles; hash-based dispatch ≈ 90 cycles
//!   (§4.4.3). Those costs live in `dyc-rt`'s dispatch accounting, not here,
//!   but the per-operation constants below are chosen on the same scale.
//!
//! The model is deliberately simple — fixed cost per operation class plus an
//! I-cache miss penalty — because the paper's headline numbers are ratios of
//! instruction work, with the one strong microarchitectural effect being
//! pnmconvol's I-cache blow-up without dead-assignment elimination (§4.4.4).

use crate::host::HostFn;
use crate::isa::{FAluOp, IAluOp, Instr, UnOp};

/// Per-operation-class cycle costs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Integer add/sub/logic/shift/compare.
    pub int_alu: u64,
    /// Integer multiply (the 21164's `MULQ` latency is 8–16 cycles).
    pub int_mul: u64,
    /// Integer divide/remainder (software on Alpha; tens of cycles).
    pub int_div: u64,
    /// FP add/sub/compare/convert *and moves* (see module docs).
    pub fp_alu: u64,
    /// FP multiply — equal to `fp_alu` on the 21164.
    pub fp_mul: u64,
    /// FP divide.
    pub fp_div: u64,
    /// Constant materialization (LDA-style).
    pub mov_imm: u64,
    /// Register move (integer).
    pub int_mov: u64,
    /// Load (D-cache hit; the D-cache is not simulated).
    pub load: u64,
    /// Store.
    pub store: u64,
    /// Unconditional jump.
    pub jmp: u64,
    /// Conditional branch.
    pub branch: u64,
    /// VM-function call/return overhead.
    pub call: u64,
    /// I-cache miss penalty (fill from L2).
    pub icache_miss: u64,
}

impl CostModel {
    /// The Alpha-21164-calibrated model used for all experiments.
    pub fn alpha21164() -> CostModel {
        CostModel {
            int_alu: 1,
            int_mul: 8,
            int_div: 40,
            fp_alu: 4,
            fp_mul: 4,
            fp_div: 15,
            mov_imm: 1,
            int_mov: 1,
            load: 2,
            store: 1,
            jmp: 1,
            branch: 2,
            call: 6,
            icache_miss: 18,
        }
    }

    /// A uniform unit-cost model, useful in tests where only instruction
    /// counts matter.
    pub fn unit() -> CostModel {
        CostModel {
            int_alu: 1,
            int_mul: 1,
            int_div: 1,
            fp_alu: 1,
            fp_mul: 1,
            fp_div: 1,
            mov_imm: 1,
            int_mov: 1,
            load: 1,
            store: 1,
            jmp: 1,
            branch: 1,
            call: 1,
            icache_miss: 0,
        }
    }

    /// The execution cost of one instruction (host-call cost comes from
    /// [`HostFn::cost`]; dispatch cost is charged by the run-time system's
    /// dispatch policy, not here).
    ///
    /// The interpreter charges the same costs arm by arm while it executes
    /// (one match per instruction), through the per-class methods below.
    pub fn instr_cost(&self, i: &Instr) -> u64 {
        match i {
            Instr::MovI { .. } | Instr::MovF { .. } => self.mov_imm,
            Instr::Mov { .. } => self.int_mov,
            Instr::FMov { .. } => self.fp_alu,
            Instr::IAlu { op, .. } => self.ialu(*op),
            Instr::FAlu { op, .. } => self.falu(*op),
            Instr::ICmp { .. } => self.int_alu,
            Instr::FCmp { .. } => self.fp_alu,
            Instr::Un { op, .. } => self.unop(*op),
            Instr::Load { .. } => self.load,
            Instr::Store { .. } => self.store,
            Instr::Jmp { .. } => self.jmp,
            Instr::Brz { .. } | Instr::Brnz { .. } => self.branch,
            Instr::CallHost { f, .. } => self.host_cost(*f),
            Instr::Call { .. } => self.call,
            Instr::Ret { .. } => self.call,
            // Dispatch cost is policy-dependent; the handler charges it.
            Instr::Dispatch { .. } => 0,
            Instr::Halt => 0,
        }
    }

    /// Cost of an integer ALU operation.
    #[inline]
    pub fn ialu(&self, op: IAluOp) -> u64 {
        match op {
            IAluOp::Mul => self.int_mul,
            IAluOp::Div | IAluOp::Rem => self.int_div,
            _ => self.int_alu,
        }
    }

    /// Cost of a floating-point ALU operation.
    #[inline]
    pub fn falu(&self, op: FAluOp) -> u64 {
        match op {
            FAluOp::Mul => self.fp_mul,
            FAluOp::Div => self.fp_div,
            _ => self.fp_alu,
        }
    }

    /// Cost of a unary operation.
    #[inline]
    pub fn unop(&self, op: UnOp) -> u64 {
        match op {
            UnOp::NegI | UnOp::NotI => self.int_alu,
            _ => self.fp_alu,
        }
    }

    /// Cost of a host function, exposed for overhead accounting when the
    /// dynamic compiler executes a *static call* at specialization time.
    #[inline]
    pub fn host_cost(&self, f: HostFn) -> u64 {
        self.call + f.cost()
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::alpha21164()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Operand;

    #[test]
    fn fp_move_costs_same_as_fp_multiply() {
        // The paper's motivating microarchitectural fact (§2.2.7).
        let m = CostModel::alpha21164();
        let mul = Instr::FAlu {
            op: FAluOp::Mul,
            dst: 0,
            a: 1,
            b: 2,
        };
        assert_eq!(m.instr_cost(&mul), m.fp_mul);
        assert_eq!(m.fp_alu, m.fp_mul);
    }

    #[test]
    fn int_multiply_dearer_than_shift() {
        // Makes dynamic strength reduction profitable (§2.2.7).
        let m = CostModel::alpha21164();
        let mul = Instr::IAlu {
            op: IAluOp::Mul,
            dst: 0,
            a: 1,
            b: Operand::Imm(8),
        };
        let shl = Instr::IAlu {
            op: IAluOp::Shl,
            dst: 0,
            a: 1,
            b: Operand::Imm(3),
        };
        assert!(m.instr_cost(&mul) > m.instr_cost(&shl));
    }

    #[test]
    fn unit_model_counts_instructions() {
        let m = CostModel::unit();
        let i = Instr::IAlu {
            op: IAluOp::Div,
            dst: 0,
            a: 1,
            b: Operand::Reg(2),
        };
        assert_eq!(m.instr_cost(&i), 1);
        assert_eq!(m.icache_miss, 0);
    }

    #[test]
    fn dispatch_is_charged_by_the_runtime_not_the_model() {
        let m = CostModel::alpha21164();
        assert_eq!(
            m.instr_cost(&Instr::Dispatch {
                point: 0,
                dst: None,
                args: vec![]
            }),
            0
        );
    }
}
