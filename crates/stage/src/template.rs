//! Stage-time **copy-and-patch template fusion**.
//!
//! PR 1 turned run-time analysis into a flat GE program, but the executor
//! still walked that program one `EmitHole` at a time, re-running the full
//! optimizing emitter — operand classification, rename-table probes,
//! zero/copy-fold checks — per instruction. This pass finishes the job
//! §2.1 describes ("copy the pre-optimized templates"): each *maximal run*
//! of consecutive `EmitHole` ops whose emission shape is decidable from
//! the division's static-variable **set** alone is fused into one
//! [`Template`] — a prebuilt contiguous instruction vector plus a side
//! table of hole descriptors ([`PatchOp`]). At run time the executor
//! copies the whole block (`extend_from_slice`) and replays the patch
//! list; no per-instruction classification, no rename-map traffic.
//!
//! The fusion pass is an abstract interpretation of the emitter over the
//! division body:
//!
//! * The static-variable *set* is replayed exactly as lowering evolved it
//!   (an `Eval` inserts its destination, an emitted def removes it, a
//!   demotion removes its variables). Set membership decides which
//!   operands are immediate holes filled from the run-time store.
//! * The rename table of dynamic zero/copy propagation is tracked
//!   abstractly ([`AbsAlias`]): an entry aliases another variable's
//!   register, a stage-time literal, or a store value captured at a known
//!   point. Register numbers themselves are *not* baked — register holes
//!   name the vreg and are resolved through the emitter's first-touch
//!   allocator at patch time, in the same order the unfused path would
//!   touch them ([`PatchOp::Touch`]), which is what keeps the template
//!   output byte-identical.
//! * Emit-time special cases whose firing depends on a run-time value
//!   (the §2.2.7 zero/copy folds and strength reductions on an `IAlu`
//!   immediate) become [`Guard`]s: the template preassumes "no special
//!   case", the executor checks the guards up front, and a failing guard
//!   falls back to the exact pre-fusion per-instruction path.
//! * Anything whose shape stays value-dependent (scratch-register
//!   materialization of unknown constants, run-time constant folding,
//!   strength-reduced expansions) simply stays an unfused `EmitHole`,
//!   splitting the run. When a value-dependent *fold* may or may not
//!   insert a rename entry, only the destination vreg becomes
//!   `AbsVal::Unknown`: downstream ops reading it stay unfused, while
//!   runs over unrelated vregs keep fusing.
//!
//! Runs of fewer than two templatable emits are left alone — a template
//! would buy nothing over a single hole-filling emit.
//!
//! At run time the copied block joins the unit's emit buffer like any
//! other emission: each patched instruction carries a `templated` flag
//! and its filled-hole count, which only the cycle meter reads, so the
//! sealed code is the identical instruction stream the unfused path
//! would produce. Hole patching substitutes registers and immediates but
//! never an operand's kind, so every instance of a template instruction
//! shares its `dyc_vm::instr_shape`, and the native encoder reuses one
//! prebuilt byte sequence per shape within a function.

use crate::ge::{GeDivision, GeFunc, GeOp};
use dyc_bta::OptConfig;
use dyc_ir::inst::{Callee, Inst};
use dyc_ir::VReg;
use dyc_vm::interp::{falu, fcmp, ialu, icmp};
use dyc_vm::{FAluOp, FuncId, IAluOp, Instr, Operand, UnOp};
use std::collections::{BTreeSet, HashMap};

/// Where a patch writes inside a template instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// The destination register (including a call's `Some(dst)`).
    Dst,
    /// ALU/compare operand `a`.
    A,
    /// ALU/compare operand `b` (register or immediate form).
    B,
    /// `src` of moves, unary ops, and stores.
    Src,
    /// `base` of loads/stores.
    Base,
    /// `idx` of loads/stores (register or immediate form).
    Idx,
    /// The immediate of `MovI`/`MovF`.
    Imm,
    /// Call argument `n`.
    Arg(u16),
}

/// One hole descriptor. Patches are replayed **in order** at run time;
/// `Reg` and `Touch` drive the emitter's first-touch register allocator in
/// exactly the order the unfused path would, which is what makes template
/// output byte-identical to per-instruction emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatchOp {
    /// Write `reg_of(v)` into `slot` of template instruction `at`.
    Reg {
        /// Template-relative instruction index.
        at: u32,
        /// Which operand of that instruction to patch.
        slot: Slot,
        /// The virtual register whose allocation fills the hole.
        v: VReg,
    },
    /// Write the static store's integer value of `var` into `slot`.
    ImmI {
        /// Template-relative instruction index.
        at: u32,
        /// Which operand of that instruction to patch.
        slot: Slot,
        /// The static variable whose store value fills the hole.
        var: VReg,
    },
    /// Write the static store's float value of `var` into the `MovF`
    /// immediate of instruction `at`.
    ImmF {
        /// Template-relative instruction index.
        at: u32,
        /// The static variable whose store value fills the hole.
        var: VReg,
    },
    /// Call `reg_of(v)` for its allocation side effect only — a register
    /// the unfused path would first-touch here without leaving a hole.
    Touch {
        /// The virtual register to first-touch.
        v: VReg,
    },
}

/// A value guard checked before a template is copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Guard {
    /// Passes iff [`ibin_special_case`] is false for the store value of
    /// `var`: no zero/copy fold or strength reduction fires for this
    /// operand, so the prebuilt `IAlu … Imm` shape is exactly what the
    /// optimizing emitter would produce.
    IBinFoldFree {
        /// The ALU operation the template prebuilt.
        op: IAluOp,
        /// The static operand whose run-time value is checked.
        var: VReg,
    },
}

/// Stage-time abstraction of one rename-table value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AbsAlias {
    /// Aliases `reg_of(v)` — resolved through the run-time allocator.
    Reg(VReg),
    /// A stage-time integer literal.
    LitI(i64),
    /// A stage-time float literal.
    LitF(f64),
    /// The run-time static-store value of `v`, captured where the alias
    /// was created. Sound because the store only shrinks within a run,
    /// and the pass downgrades these to opaque once `v` is killed.
    FromStore(VReg),
}

/// Net rename/store updates a successful template applies after its
/// patch loop, replacing the per-instruction bookkeeping of the unfused
/// path. Kills run first, then inserts, then store removals (inserts may
/// read the pre-kill store).
#[derive(Debug, Clone)]
pub struct TemplateEffects {
    /// Rename entries removed by the run (sorted).
    pub rename_kill: Vec<VReg>,
    /// Rename entries inserted/overwritten by the run (sorted by key).
    pub rename_set: Vec<(VReg, AbsAlias)>,
    /// Static-store entries consumed by dynamic definitions (sorted).
    pub store_kill: Vec<VReg>,
}

/// One prebuilt template instruction.
#[derive(Debug, Clone)]
pub struct TInstr {
    /// The instruction, holes zeroed until patched.
    pub ins: Instr,
    /// Candidate for dead-assignment elimination (mirrors what the
    /// unfused emitter would have marked).
    pub deletable: bool,
}

/// A fused run of emits: copy `instrs`, replay `patches`, apply
/// `effects` — after `guards` all pass.
#[derive(Debug, Clone)]
pub struct Template {
    /// Value guards, checked up front against the run-time store.
    pub guards: Vec<Guard>,
    /// The contiguous prebuilt instruction block.
    pub instrs: Vec<TInstr>,
    /// Hole descriptors, replayed in order.
    pub patches: Vec<PatchOp>,
    /// Net rename/store bookkeeping of the whole run.
    pub effects: TemplateEffects,
    /// The original `EmitHole` payloads: on guard failure the executor
    /// re-emits these per-instruction — the exact pre-fusion path.
    pub fallback: Vec<(Inst, Vec<VReg>)>,
    /// Zero/copy-propagation folds baked into this template (the stat
    /// delta the unfused path would have counted).
    pub zcp_folds: u64,
}

/// Does the optimizing emitter treat `k` as a special case for
/// `a <op> k`? Mirrors `emit_ibin` exactly: the §2.2.7 zero/copy folds
/// when `zcp` is on, the simple strength reductions when only `sr` is on,
/// and the power-of-two expansions whenever `sr` is on. Templates assume
/// the answer is *no*; a run-time *yes* fails the guard.
pub fn ibin_special_case(zcp: bool, sr: bool, op: IAluOp, k: i64) -> bool {
    if zcp {
        let fold = matches!(
            (op, k),
            (IAluOp::Mul, 0 | 1)
                | (IAluOp::Div | IAluOp::Rem, 1)
                | (
                    IAluOp::Add
                        | IAluOp::Sub
                        | IAluOp::Or
                        | IAluOp::Xor
                        | IAluOp::And
                        | IAluOp::Shl
                        | IAluOp::Shr,
                    0
                )
        );
        if fold {
            return true;
        }
    } else if sr && matches!((op, k), (IAluOp::Mul, 0 | 1) | (IAluOp::Div, 1)) {
        return true;
    }
    sr && k > 1
        && (k as u64).is_power_of_two()
        && matches!(op, IAluOp::Mul | IAluOp::Div | IAluOp::Rem)
}

/// Fuse every division of `gef` in place.
pub fn fuse_ge_func(gef: &mut GeFunc, cfg: &OptConfig) {
    let fv = std::mem::take(&mut gef.float_vreg);
    for d in &mut gef.divisions {
        fuse_division(d, cfg, &fv);
    }
    gef.float_vreg = fv;
}

/// Abstract rename-table entry.
#[derive(Debug, Clone, PartialEq)]
enum AbsVal {
    Known(AbsAlias),
    /// The entry exists and holds a constant, but its value is no longer
    /// derivable at stage time (its source store slot was killed or
    /// rewritten after capture). The concrete table is still correct —
    /// opaqueness only blocks *baking* further reads of it.
    Opaque,
    /// Whether the entry exists at all is value-dependent: an upstream
    /// fold may or may not have fired (e.g. a float multiply by a
    /// promoted constant that might be 0.0). Any op consuming such a
    /// vreg has an undecidable emission shape and stays unfused, but —
    /// unlike a whole-table taint — ops on unrelated vregs still fuse.
    Unknown,
}

/// Abstract resolved operand (mirrors the emitter's `Opnd`).
#[derive(Debug, Clone, Copy)]
enum AOp {
    R {
        v: VReg,
        fresh: bool,
    },
    KiLit(i64),
    KiVar(VReg),
    KfLit(f64),
    KfVar(VReg),
    Opaque,
    /// Resolution of a vreg whose [`AbsVal::Unknown`] entry makes even
    /// the operand *kind* (register vs. constant) undecidable.
    Unk,
}

impl AOp {
    fn is_r(self) -> bool {
        matches!(self, AOp::R { .. })
    }
    /// Would the concrete resolution be `Opnd::KI(..)`? (`Opaque` only
    /// arises for constant-valued entries, so on an integer operand it is
    /// a `KI` at run time.)
    fn is_ki(self) -> bool {
        matches!(self, AOp::KiLit(_) | AOp::KiVar(_) | AOp::Opaque)
    }
    fn is_kf(self) -> bool {
        matches!(self, AOp::KfLit(_) | AOp::KfVar(_))
    }
    fn alias(self) -> AbsAlias {
        match self {
            AOp::R { v, .. } => AbsAlias::Reg(v),
            AOp::KiLit(k) => AbsAlias::LitI(k),
            AOp::KfLit(k) => AbsAlias::LitF(k),
            AOp::KiVar(w) | AOp::KfVar(w) => AbsAlias::FromStore(w),
            AOp::Opaque | AOp::Unk => unreachable!("never re-aliased"),
        }
    }
}

/// The planned template fragment of one fusable op.
#[derive(Default)]
struct OpPlan {
    instrs: Vec<TInstr>,
    patches: Vec<PatchOp>,
    guards: Vec<Guard>,
    zcp_folds: u64,
}

impl OpPlan {
    fn push_ins(&mut self, ins: Instr, deletable: bool) -> u32 {
        let at = self.instrs.len() as u32;
        self.instrs.push(TInstr { ins, deletable });
        at
    }
    fn reg(&mut self, at: u32, slot: Slot, v: VReg) {
        self.patches.push(PatchOp::Reg { at, slot, v });
    }
    fn immi(&mut self, at: u32, slot: Slot, var: VReg) {
        self.patches.push(PatchOp::ImmI { at, slot, var });
    }
}

fn downgrade(ren: &mut HashMap<VReg, AbsVal>, killed: VReg) {
    for a in ren.values_mut() {
        if *a == AbsVal::Known(AbsAlias::FromStore(killed)) {
            *a = AbsVal::Opaque;
        }
    }
}

fn resolve_abs(u: VReg, set: &BTreeSet<VReg>, ren: &HashMap<VReg, AbsVal>, fv: &[bool]) -> AOp {
    let isf = |v: VReg| fv.get(v.0 as usize).copied().unwrap_or(false);
    if set.contains(&u) {
        return if isf(u) { AOp::KfVar(u) } else { AOp::KiVar(u) };
    }
    match ren.get(&u) {
        Some(AbsVal::Known(AbsAlias::Reg(w))) => AOp::R {
            v: *w,
            fresh: false,
        },
        Some(AbsVal::Known(AbsAlias::LitI(k))) => AOp::KiLit(*k),
        Some(AbsVal::Known(AbsAlias::LitF(k))) => AOp::KfLit(*k),
        Some(AbsVal::Known(AbsAlias::FromStore(w))) => {
            if isf(*w) {
                AOp::KfVar(*w)
            } else {
                AOp::KiVar(*w)
            }
        }
        Some(AbsVal::Opaque) => AOp::Opaque,
        Some(AbsVal::Unknown) => AOp::Unk,
        None => AOp::R { v: u, fresh: true },
    }
}

/// Mirror of the emitter's `fold_to` for stage-time-known results: with
/// zero/copy propagation the destination is renamed (no code, one fold
/// counted); otherwise the literal is emitted as a constant move.
fn plan_fold_to(
    dst: VReg,
    k: AbsAlias,
    zcp: bool,
    ren: &mut HashMap<VReg, AbsVal>,
    plan: &mut OpPlan,
) -> bool {
    if zcp {
        plan.zcp_folds += 1;
        ren.insert(dst, AbsVal::Known(k));
        return true;
    }
    let at = match k {
        AbsAlias::LitI(v) => plan.push_ins(Instr::MovI { dst: 0, imm: v }, true),
        AbsAlias::LitF(v) => plan.push_ins(Instr::MovF { dst: 0, imm: v }, true),
        _ => unreachable!("stage-time fold results are literals"),
    };
    plan.reg(at, Slot::Dst, dst);
    true
}

fn eval_un(op: UnOp, v: AbsAlias) -> AbsAlias {
    match (op, v) {
        (UnOp::NegI, AbsAlias::LitI(i)) => AbsAlias::LitI(i.wrapping_neg()),
        (UnOp::NotI, AbsAlias::LitI(i)) => AbsAlias::LitI(!i),
        (UnOp::NegF, AbsAlias::LitF(f)) => AbsAlias::LitF(-f),
        (UnOp::IToF, AbsAlias::LitI(i)) => AbsAlias::LitF(i as f64),
        (UnOp::FToI, AbsAlias::LitF(f)) => AbsAlias::LitI(f as i64),
        _ => unreachable!("ill-typed unary literal fold"),
    }
}

/// Plan one `EmitHole` against the abstract state, mutating the state the
/// way the concrete emitter would. Returns `None` if the op's emission
/// shape is value-dependent (it stays an unfused `EmitHole`).
#[allow(clippy::too_many_lines)]
fn plan_emit_hole(
    inst: &Inst,
    reads_after: &[VReg],
    set: &mut BTreeSet<VReg>,
    ren: &mut HashMap<VReg, AbsVal>,
    fv: &[bool],
    cfg: &OptConfig,
) -> Option<OpPlan> {
    let zcp = cfg.zero_copy_propagation;
    let sr = cfg.strength_reduction;
    let isf = |v: VReg| fv.get(v.0 as usize).copied().unwrap_or(false);

    let uses = inst.uses();
    let aops: Vec<AOp> = uses.iter().map(|u| resolve_abs(*u, set, ren, fv)).collect();

    let mut plan = OpPlan::default();
    for (u, a) in uses.iter().zip(&aops) {
        if matches!(a, AOp::R { fresh: true, .. }) {
            plan.patches.push(PatchOp::Touch { v: *u });
        }
    }

    // Destination prologue (mirrors `emit_dynamic`): allocate the target
    // register, materialize stale aliases of it that are still read, then
    // drop the old bindings. `reg_of` is injective per vreg, so "aliases
    // the destination register" is exactly "aliases `Reg(d)`".
    if let Some(d) = inst.def() {
        plan.patches.push(PatchOp::Touch { v: d });
        let mut stale: Vec<VReg> = ren
            .iter()
            .filter(|(v, a)| **v != d && **a == AbsVal::Known(AbsAlias::Reg(d)))
            .map(|(v, _)| *v)
            .collect();
        stale.sort();
        for v in stale {
            ren.remove(&v);
            if reads_after.binary_search(&v).is_ok() {
                let ins = if isf(v) {
                    Instr::FMov { dst: 0, src: 0 }
                } else {
                    Instr::Mov { dst: 0, src: 0 }
                };
                let at = plan.push_ins(ins, true);
                plan.reg(at, Slot::Dst, v);
                plan.reg(at, Slot::Src, d);
            }
        }
        ren.remove(&d);
        set.remove(&d);
        downgrade(ren, d);
    }

    // An operand whose rename entry is itself undecidable: the emission
    // shape can't be planned, and for the op kinds that can fold, whether
    // the destination gains a rename entry can't be decided either.
    // (Loads, stores, and calls never rename their destination.)
    if aops.iter().any(|a| matches!(a, AOp::Unk)) {
        if let Some(d) = inst.def() {
            if !matches!(
                inst,
                Inst::Call { .. } | Inst::Load { .. } | Inst::Store { .. }
            ) {
                ren.insert(d, AbsVal::Unknown);
            }
        }
        return None;
    }

    let ok = match inst {
        Inst::ConstI { dst, v } => {
            if zcp {
                ren.insert(*dst, AbsVal::Known(AbsAlias::LitI(*v)));
            } else {
                let at = plan.push_ins(Instr::MovI { dst: 0, imm: *v }, true);
                plan.reg(at, Slot::Dst, *dst);
            }
            true
        }
        Inst::ConstF { dst, v } => {
            if zcp {
                ren.insert(*dst, AbsVal::Known(AbsAlias::LitF(*v)));
            } else {
                let at = plan.push_ins(Instr::MovF { dst: 0, imm: *v }, true);
                plan.reg(at, Slot::Dst, *dst);
            }
            true
        }
        Inst::Copy { dst, .. } => match aops[0] {
            AOp::R { v: w, .. } => {
                if w == *dst {
                    true // self-move after a collapsed chain: no code
                } else if zcp {
                    plan.zcp_folds += 1;
                    ren.insert(*dst, AbsVal::Known(AbsAlias::Reg(w)));
                    true
                } else {
                    let ins = if isf(*dst) {
                        Instr::FMov { dst: 0, src: 0 }
                    } else {
                        Instr::Mov { dst: 0, src: 0 }
                    };
                    let at = plan.push_ins(ins, true);
                    plan.reg(at, Slot::Dst, *dst);
                    plan.reg(at, Slot::Src, w);
                    true
                }
            }
            AOp::Opaque => {
                if zcp {
                    // The fold fires (source is a constant), but the
                    // copied value is no longer derivable here.
                    ren.insert(*dst, AbsVal::Opaque);
                }
                false
            }
            k => {
                if zcp {
                    plan.zcp_folds += 1;
                    ren.insert(*dst, AbsVal::Known(k.alias()));
                } else {
                    let at = match k {
                        AOp::KiLit(v) => plan.push_ins(Instr::MovI { dst: 0, imm: v }, true),
                        AOp::KfLit(v) => plan.push_ins(Instr::MovF { dst: 0, imm: v }, true),
                        AOp::KiVar(w) => {
                            let at = plan.push_ins(Instr::MovI { dst: 0, imm: 0 }, true);
                            plan.immi(at, Slot::Imm, w);
                            at
                        }
                        AOp::KfVar(w) => {
                            let at = plan.push_ins(Instr::MovF { dst: 0, imm: 0.0 }, true);
                            plan.patches.push(PatchOp::ImmF { at, var: w });
                            at
                        }
                        AOp::R { .. } | AOp::Opaque | AOp::Unk => unreachable!(),
                    };
                    plan.reg(at, Slot::Dst, *dst);
                }
                true
            }
        },
        Inst::IBin { op, dst, .. } => {
            let (ra, rb) = (aops[0], aops[1]);
            if !ra.is_r() && !rb.is_r() {
                // Both operands constant: the unfused path folds on their
                // run-time values.
                if let (AOp::KiLit(x), AOp::KiLit(y)) = (ra, rb) {
                    if let Ok(v) = ialu(*op, x, y) {
                        plan_fold_to(*dst, AbsAlias::LitI(v), zcp, ren, &mut plan)
                    } else {
                        // Division by zero falls through to scratch
                        // materialization (and a later zcp recheck on the
                        // literal, which cannot fire for k = 0 on Div/Rem).
                        false
                    }
                } else {
                    // Whether the fold succeeds — and whether a rename
                    // entry appears — depends on run-time values (a
                    // division by zero falls through to emission).
                    if zcp {
                        ren.insert(*dst, AbsVal::Unknown);
                    }
                    false
                }
            } else if ra.is_kf() || rb.is_kf() {
                false // ill-typed; the concrete path would scratch-materialize
            } else {
                // Commutative normalization puts a known operand right.
                let commutative = matches!(
                    op,
                    IAluOp::Add | IAluOp::Mul | IAluOp::And | IAluOp::Or | IAluOp::Xor
                );
                let (ra, rb) = if commutative && ra.is_ki() {
                    (rb, ra)
                } else {
                    (ra, rb)
                };
                match rb {
                    AOp::KiLit(k) => {
                        let AOp::R { v: av, .. } = ra else {
                            unreachable!("both-constant case handled above")
                        };
                        let mut done = None;
                        if zcp {
                            let fold = match op {
                                IAluOp::Mul if k == 0 => Some(AbsAlias::LitI(0)),
                                IAluOp::Mul | IAluOp::Div if k == 1 => Some(AbsAlias::Reg(av)),
                                IAluOp::Add | IAluOp::Sub | IAluOp::Or | IAluOp::Xor if k == 0 => {
                                    Some(AbsAlias::Reg(av))
                                }
                                IAluOp::And if k == 0 => Some(AbsAlias::LitI(0)),
                                IAluOp::Rem if k == 1 => Some(AbsAlias::LitI(0)),
                                IAluOp::Shl | IAluOp::Shr if k == 0 => Some(AbsAlias::Reg(av)),
                                _ => None,
                            };
                            if let Some(f) = fold {
                                plan.zcp_folds += 1;
                                ren.insert(*dst, AbsVal::Known(f));
                                done = Some(true);
                            }
                        } else if sr && matches!((op, k), (IAluOp::Mul, 0 | 1) | (IAluOp::Div, 1)) {
                            // Simple strength reduction writes the
                            // destination itself; left to the unfused path.
                            done = Some(false);
                        }
                        if done.is_none()
                            && sr
                            && k > 1
                            && (k as u64).is_power_of_two()
                            && matches!(op, IAluOp::Mul | IAluOp::Div | IAluOp::Rem)
                        {
                            done = Some(false); // pow-2 expansion: unfused
                        }
                        done.unwrap_or_else(|| {
                            let at = plan.push_ins(
                                Instr::IAlu {
                                    op: *op,
                                    dst: 0,
                                    a: 0,
                                    b: Operand::Imm(k),
                                },
                                true,
                            );
                            plan.reg(at, Slot::A, av);
                            plan.reg(at, Slot::Dst, *dst);
                            true
                        })
                    }
                    AOp::KiVar(w) => {
                        let AOp::R { v: av, .. } = ra else {
                            unreachable!("both-constant case handled above")
                        };
                        // Whether a fold or strength reduction fires
                        // depends on the run-time value: guard it.
                        if zcp || (sr && matches!(op, IAluOp::Mul | IAluOp::Div | IAluOp::Rem)) {
                            plan.guards.push(Guard::IBinFoldFree { op: *op, var: w });
                        }
                        let at = plan.push_ins(
                            Instr::IAlu {
                                op: *op,
                                dst: 0,
                                a: 0,
                                b: Operand::Imm(0),
                            },
                            true,
                        );
                        plan.reg(at, Slot::A, av);
                        plan.immi(at, Slot::B, w);
                        plan.reg(at, Slot::Dst, *dst);
                        true
                    }
                    AOp::Opaque => {
                        // A constant immediate whose value is opaque: the
                        // fold decision is value-dependent.
                        if zcp {
                            ren.insert(*dst, AbsVal::Unknown);
                        }
                        false
                    }
                    AOp::R { v: bv, .. } => {
                        if let AOp::R { v: av, .. } = ra {
                            let at = plan.push_ins(
                                Instr::IAlu {
                                    op: *op,
                                    dst: 0,
                                    a: 0,
                                    b: Operand::Reg(0),
                                },
                                true,
                            );
                            plan.reg(at, Slot::A, av);
                            plan.reg(at, Slot::B, bv);
                            plan.reg(at, Slot::Dst, *dst);
                            true
                        } else {
                            // Known left operand of a non-commutative op:
                            // scratch materialization.
                            false
                        }
                    }
                    AOp::KfLit(_) | AOp::KfVar(_) => unreachable!("filtered above"),
                    AOp::Unk => unreachable!("unknown operands bail out before planning"),
                }
            }
        }
        Inst::FBin { op, dst, .. } => {
            let (ra, rb) = (aops[0], aops[1]);
            let a_k = !ra.is_r();
            let b_k = !rb.is_r();
            if a_k && b_k {
                if let (AOp::KfLit(x), AOp::KfLit(y)) = (ra, rb) {
                    plan_fold_to(*dst, AbsAlias::LitF(falu(*op, x, y)), zcp, ren, &mut plan)
                } else {
                    // The fold always fires on two constants, so the
                    // entry definitely exists — its value is just unknown.
                    if zcp {
                        ren.insert(*dst, AbsVal::Opaque);
                    }
                    false
                }
            } else {
                let (ra, rb) = if matches!(op, FAluOp::Add | FAluOp::Mul) && a_k {
                    (rb, ra)
                } else {
                    (ra, rb)
                };
                match rb {
                    AOp::KfLit(k) => {
                        let mut folded = false;
                        if zcp {
                            let fold = match op {
                                FAluOp::Mul if k == 0.0 => Some(AbsAlias::LitF(0.0)),
                                FAluOp::Mul | FAluOp::Div if k == 1.0 => Some(ra.alias()),
                                FAluOp::Add | FAluOp::Sub if k == 0.0 => Some(ra.alias()),
                                _ => None,
                            };
                            if let Some(f) = fold {
                                plan.zcp_folds += 1;
                                ren.insert(*dst, AbsVal::Known(f));
                                folded = true;
                            }
                        }
                        // No fold: the float ALU has no immediate form, so
                        // the constant is scratch-materialized — unfused.
                        folded
                    }
                    AOp::KfVar(_) | AOp::Opaque => {
                        // Fold occurrence is value-dependent, and the
                        // float ALU has no immediate form to guard into.
                        if zcp {
                            ren.insert(*dst, AbsVal::Unknown);
                        }
                        false
                    }
                    AOp::R { v: bv, .. } => {
                        if let AOp::R { v: av, .. } = ra {
                            let at = plan.push_ins(
                                Instr::FAlu {
                                    op: *op,
                                    dst: 0,
                                    a: 0,
                                    b: 0,
                                },
                                true,
                            );
                            plan.reg(at, Slot::A, av);
                            plan.reg(at, Slot::B, bv);
                            plan.reg(at, Slot::Dst, *dst);
                            true
                        } else {
                            false
                        }
                    }
                    AOp::KiLit(_) | AOp::KiVar(_) => false, // ill-typed
                    AOp::Unk => unreachable!("unknown operands bail out before planning"),
                }
            }
        }
        Inst::ICmp { cc, dst, .. } => {
            let (ra, rb) = (aops[0], aops[1]);
            if ra.is_ki() && rb.is_ki() {
                if let (AOp::KiLit(x), AOp::KiLit(y)) = (ra, rb) {
                    plan_fold_to(
                        *dst,
                        AbsAlias::LitI(icmp(*cc, x, y) as i64),
                        zcp,
                        ren,
                        &mut plan,
                    )
                } else {
                    // The fold fires unconditionally on two constants.
                    if zcp {
                        ren.insert(*dst, AbsVal::Opaque);
                    }
                    false
                }
            } else if let (AOp::R { v: av, .. }, true) = (ra, rb.is_ki()) {
                match rb {
                    AOp::KiLit(y) => {
                        let at = plan.push_ins(
                            Instr::ICmp {
                                cc: *cc,
                                dst: 0,
                                a: 0,
                                b: Operand::Imm(y),
                            },
                            true,
                        );
                        plan.reg(at, Slot::A, av);
                        plan.reg(at, Slot::Dst, *dst);
                        true
                    }
                    AOp::KiVar(w) => {
                        let at = plan.push_ins(
                            Instr::ICmp {
                                cc: *cc,
                                dst: 0,
                                a: 0,
                                b: Operand::Imm(0),
                            },
                            true,
                        );
                        plan.reg(at, Slot::A, av);
                        plan.immi(at, Slot::B, w);
                        plan.reg(at, Slot::Dst, *dst);
                        true
                    }
                    _ => false, // opaque immediate
                }
            } else if let (true, AOp::R { v: bv, .. }) = (ra.is_ki(), rb) {
                match ra {
                    AOp::KiLit(x) => {
                        let at = plan.push_ins(
                            Instr::ICmp {
                                cc: cc.swapped(),
                                dst: 0,
                                a: 0,
                                b: Operand::Imm(x),
                            },
                            true,
                        );
                        plan.reg(at, Slot::A, bv);
                        plan.reg(at, Slot::Dst, *dst);
                        true
                    }
                    AOp::KiVar(w) => {
                        let at = plan.push_ins(
                            Instr::ICmp {
                                cc: cc.swapped(),
                                dst: 0,
                                a: 0,
                                b: Operand::Imm(0),
                            },
                            true,
                        );
                        plan.reg(at, Slot::A, bv);
                        plan.immi(at, Slot::B, w);
                        plan.reg(at, Slot::Dst, *dst);
                        true
                    }
                    _ => false,
                }
            } else if let (AOp::R { v: av, .. }, AOp::R { v: bv, .. }) = (ra, rb) {
                let at = plan.push_ins(
                    Instr::ICmp {
                        cc: *cc,
                        dst: 0,
                        a: 0,
                        b: Operand::Reg(0),
                    },
                    true,
                );
                plan.reg(at, Slot::A, av);
                plan.reg(at, Slot::B, bv);
                plan.reg(at, Slot::Dst, *dst);
                true
            } else {
                false // a float constant reached an int compare
            }
        }
        Inst::FCmp { cc, dst, .. } => {
            let (ra, rb) = (aops[0], aops[1]);
            if !ra.is_r() && !rb.is_r() {
                if let (AOp::KfLit(x), AOp::KfLit(y)) = (ra, rb) {
                    plan_fold_to(
                        *dst,
                        AbsAlias::LitI(fcmp(*cc, x, y) as i64),
                        zcp,
                        ren,
                        &mut plan,
                    )
                } else {
                    if zcp {
                        ren.insert(*dst, AbsVal::Opaque);
                    }
                    false
                }
            } else if let (AOp::R { v: av, .. }, AOp::R { v: bv, .. }) = (ra, rb) {
                let at = plan.push_ins(
                    Instr::FCmp {
                        cc: *cc,
                        dst: 0,
                        a: 0,
                        b: 0,
                    },
                    true,
                );
                plan.reg(at, Slot::A, av);
                plan.reg(at, Slot::B, bv);
                plan.reg(at, Slot::Dst, *dst);
                true
            } else {
                false // one constant: scratch-materialized
            }
        }
        Inst::Un { op, dst, .. } => match aops[0] {
            AOp::R { v: sv, .. } => {
                let at = plan.push_ins(
                    Instr::Un {
                        op: *op,
                        dst: 0,
                        src: 0,
                    },
                    true,
                );
                plan.reg(at, Slot::Src, sv);
                plan.reg(at, Slot::Dst, *dst);
                true
            }
            AOp::KiLit(i) => {
                plan_fold_to(*dst, eval_un(*op, AbsAlias::LitI(i)), zcp, ren, &mut plan)
            }
            AOp::KfLit(f) => {
                plan_fold_to(*dst, eval_un(*op, AbsAlias::LitF(f)), zcp, ren, &mut plan)
            }
            AOp::KiVar(_) | AOp::KfVar(_) | AOp::Opaque => {
                // The fold fires unconditionally on a constant source.
                if zcp {
                    ren.insert(*dst, AbsVal::Opaque);
                }
                false
            }
            AOp::Unk => unreachable!("unknown operands bail out before planning"),
        },
        Inst::Load { ty, dst, .. } => {
            let (b, i) = (aops[0], aops[1]);
            if b.is_ki() && i.is_ki() {
                false // fully known address: folds through a scratch zero base
            } else if b.is_ki() {
                // Address = known base + register index: the emitter loads
                // from the *index* register with the base as offset.
                let AOp::R { v: iv, .. } = i else {
                    return None;
                };
                let at = match b {
                    AOp::KiLit(bv) => plan.push_ins(
                        Instr::Load {
                            ty: ty.vm_ty(),
                            dst: 0,
                            base: 0,
                            idx: Operand::Imm(bv),
                        },
                        true,
                    ),
                    AOp::KiVar(w) => {
                        let at = plan.push_ins(
                            Instr::Load {
                                ty: ty.vm_ty(),
                                dst: 0,
                                base: 0,
                                idx: Operand::Imm(0),
                            },
                            true,
                        );
                        plan.immi(at, Slot::Idx, w);
                        at
                    }
                    _ => return None,
                };
                plan.reg(at, Slot::Base, iv);
                plan.reg(at, Slot::Dst, *dst);
                true
            } else if i.is_ki() {
                let AOp::R { v: bv, .. } = b else {
                    return None;
                };
                let at = match i {
                    AOp::KiLit(iv) => plan.push_ins(
                        Instr::Load {
                            ty: ty.vm_ty(),
                            dst: 0,
                            base: 0,
                            idx: Operand::Imm(iv),
                        },
                        true,
                    ),
                    AOp::KiVar(w) => {
                        let at = plan.push_ins(
                            Instr::Load {
                                ty: ty.vm_ty(),
                                dst: 0,
                                base: 0,
                                idx: Operand::Imm(0),
                            },
                            true,
                        );
                        plan.immi(at, Slot::Idx, w);
                        at
                    }
                    _ => return None,
                };
                plan.reg(at, Slot::Base, bv);
                plan.reg(at, Slot::Dst, *dst);
                true
            } else if let (AOp::R { v: bv, .. }, AOp::R { v: iv, .. }) = (b, i) {
                let at = plan.push_ins(
                    Instr::Load {
                        ty: ty.vm_ty(),
                        dst: 0,
                        base: 0,
                        idx: Operand::Reg(0),
                    },
                    true,
                );
                plan.reg(at, Slot::Base, bv);
                plan.reg(at, Slot::Idx, iv);
                plan.reg(at, Slot::Dst, *dst);
                true
            } else {
                false
            }
        }
        Inst::Store { ty, .. } => {
            let (b, i, s) = (aops[0], aops[1], aops[2]);
            let AOp::R { v: sv, .. } = s else {
                // The stored value is a constant: scratch-materialized.
                return None;
            };
            let planned = if b.is_ki() && i.is_ki() {
                None
            } else if b.is_ki() {
                if let AOp::R { v: iv, .. } = i {
                    let at = match b {
                        AOp::KiLit(bv) => Some(plan.push_ins(
                            Instr::Store {
                                ty: ty.vm_ty(),
                                base: 0,
                                idx: Operand::Imm(bv),
                                src: 0,
                            },
                            false,
                        )),
                        AOp::KiVar(w) => {
                            let at = plan.push_ins(
                                Instr::Store {
                                    ty: ty.vm_ty(),
                                    base: 0,
                                    idx: Operand::Imm(0),
                                    src: 0,
                                },
                                false,
                            );
                            plan.immi(at, Slot::Idx, w);
                            Some(at)
                        }
                        _ => None,
                    };
                    at.inspect(|&at| plan.reg(at, Slot::Base, iv))
                } else {
                    None
                }
            } else if i.is_ki() {
                if let AOp::R { v: bv, .. } = b {
                    let at = match i {
                        AOp::KiLit(iv) => Some(plan.push_ins(
                            Instr::Store {
                                ty: ty.vm_ty(),
                                base: 0,
                                idx: Operand::Imm(iv),
                                src: 0,
                            },
                            false,
                        )),
                        AOp::KiVar(w) => {
                            let at = plan.push_ins(
                                Instr::Store {
                                    ty: ty.vm_ty(),
                                    base: 0,
                                    idx: Operand::Imm(0),
                                    src: 0,
                                },
                                false,
                            );
                            plan.immi(at, Slot::Idx, w);
                            Some(at)
                        }
                        _ => None,
                    };
                    at.inspect(|&at| plan.reg(at, Slot::Base, bv))
                } else {
                    None
                }
            } else if let (AOp::R { v: bv, .. }, AOp::R { v: iv, .. }) = (b, i) {
                let at = plan.push_ins(
                    Instr::Store {
                        ty: ty.vm_ty(),
                        base: 0,
                        idx: Operand::Reg(0),
                        src: 0,
                    },
                    false,
                );
                plan.reg(at, Slot::Base, bv);
                plan.reg(at, Slot::Idx, iv);
                Some(at)
            } else {
                None
            };
            match planned {
                Some(at) => {
                    plan.reg(at, Slot::Src, sv);
                    true
                }
                None => false,
            }
        }
        Inst::Call { callee, dst, .. } => {
            if aops.iter().all(|a| a.is_r()) {
                let n = aops.len();
                let ins = match callee {
                    Callee::Func { index, .. } => Instr::Call {
                        func: FuncId(*index as u32),
                        dst: dst.map(|_| 0),
                        args: vec![0; n],
                    },
                    Callee::Host(h) => Instr::CallHost {
                        f: *h,
                        dst: dst.map(|_| 0),
                        args: vec![0; n],
                    },
                };
                let at = plan.push_ins(ins, false);
                for (k, a) in aops.iter().enumerate() {
                    let AOp::R { v, .. } = a else { unreachable!() };
                    plan.reg(at, Slot::Arg(k as u16), *v);
                }
                if let Some(d) = dst {
                    plan.reg(at, Slot::Dst, *d);
                }
                true
            } else {
                false // constant arguments: scratch-materialized
            }
        }
        Inst::MakeStatic { .. } | Inst::MakeDynamic { .. } | Inst::Promote { .. } => {
            unreachable!("annotations never reach EmitHole")
        }
    };

    ok.then_some(plan)
}

fn rebase(p: PatchOp, base: u32) -> PatchOp {
    match p {
        PatchOp::Reg { at, slot, v } => PatchOp::Reg {
            at: at + base,
            slot,
            v,
        },
        PatchOp::ImmI { at, slot, var } => PatchOp::ImmI {
            at: at + base,
            slot,
            var,
        },
        PatchOp::ImmF { at, var } => PatchOp::ImmF { at: at + base, var },
        t @ PatchOp::Touch { .. } => t,
    }
}

type RunItem = (Inst, Vec<VReg>, OpPlan);

/// Close the current run: fuse it into one template if it spans at least
/// two emits, otherwise put the plain holes back. Returns the
/// destinations of reverted *guarded* emits: their special case is
/// value-dependent again, so their rename entries become
/// [`AbsVal::Unknown`] — the caller must mirror that into any successor
/// state it planned before the flush.
fn flush_run(
    run: &mut Vec<RunItem>,
    out: &mut Vec<GeOp>,
    r0: &HashMap<VReg, AbsVal>,
    set0: &BTreeSet<VReg>,
    rename: &mut HashMap<VReg, AbsVal>,
    set1: &BTreeSet<VReg>,
) -> Vec<VReg> {
    if run.len() < 2 {
        // A lone emit gains nothing from fusion: keep the plain hole.
        let mut reverted = Vec::new();
        for (inst, reads_after, plan) in run.drain(..) {
            if !plan.guards.is_empty() {
                // The reverted op's guard is discarded with its template,
                // so whether its emit-time special case fires — and thus
                // whether the unfused emit leaves a rename entry for its
                // destination — is value-dependent again. Unlike a
                // whole-table taint, only that destination goes unknown;
                // unrelated entries stay bakeable.
                if let Some(d) = inst.def() {
                    rename.insert(d, AbsVal::Unknown);
                    reverted.push(d);
                }
            }
            out.push(GeOp::EmitHole { inst, reads_after });
        }
        return reverted;
    }
    let r1 = &*rename;
    let mut instrs = Vec::new();
    let mut patches = Vec::new();
    let mut guards = Vec::new();
    let mut zcp_folds = 0;
    let mut fallback = Vec::new();
    for (inst, reads_after, plan) in run.drain(..) {
        let base = instrs.len() as u32;
        instrs.extend(plan.instrs);
        patches.extend(plan.patches.into_iter().map(|p| rebase(p, base)));
        guards.extend(plan.guards);
        zcp_folds += plan.zcp_folds;
        fallback.push((inst, reads_after));
    }
    let mut rename_kill: Vec<VReg> = r0.keys().filter(|k| !r1.contains_key(k)).copied().collect();
    rename_kill.sort();
    // Entries that went opaque were downgraded *in place*: the concrete
    // table already holds their (captured) value, so no update is needed.
    let mut rename_set: Vec<(VReg, AbsAlias)> = r1
        .iter()
        .filter_map(|(k, v)| match v {
            AbsVal::Known(a) if r0.get(k) != Some(v) => Some((*k, *a)),
            _ => None,
        })
        .collect();
    rename_set.sort_by_key(|(k, _)| *k);
    let store_kill: Vec<VReg> = set0.difference(set1).copied().collect();
    out.push(GeOp::EmitTemplate(Box::new(Template {
        guards,
        instrs,
        patches,
        effects: TemplateEffects {
            rename_kill,
            rename_set,
            store_kill,
        },
        fallback,
        zcp_folds,
    })));
    Vec::new()
}

fn fuse_division(d: &mut GeDivision, cfg: &OptConfig, fv: &[bool]) {
    let mut set: BTreeSet<VReg> = d.vars.iter().copied().collect();
    let mut rename: HashMap<VReg, AbsVal> = HashMap::new();
    let mut out: Vec<GeOp> = Vec::with_capacity(d.ops.len());
    let mut run: Vec<RunItem> = Vec::new();
    let mut r0: HashMap<VReg, AbsVal> = HashMap::new();
    let mut set0: BTreeSet<VReg> = BTreeSet::new();

    for op in std::mem::take(&mut d.ops) {
        match op {
            GeOp::Eval(inst) => {
                flush_run(&mut run, &mut out, &r0, &set0, &mut rename, &set);
                let dst = inst.def().expect("static computations define a value");
                rename.remove(&dst);
                // The store slot is rewritten: captured reads of the
                // old value can no longer be baked.
                downgrade(&mut rename, dst);
                set.insert(dst);
                out.push(GeOp::Eval(inst));
            }
            GeOp::DemoteMaterialize { vars } => {
                flush_run(&mut run, &mut out, &r0, &set0, &mut rename, &set);
                for v in &vars {
                    set.remove(v);
                    downgrade(&mut rename, *v);
                }
                out.push(GeOp::DemoteMaterialize { vars });
            }
            GeOp::EmitHole { inst, reads_after } => {
                let mut new_set = set.clone();
                let mut new_rename = rename.clone();
                match plan_emit_hole(&inst, &reads_after, &mut new_set, &mut new_rename, fv, cfg) {
                    Some(plan) => {
                        if run.is_empty() {
                            r0 = rename.clone();
                            set0 = set.clone();
                        }
                        run.push((inst, reads_after, plan));
                    }
                    None => {
                        let reverted = flush_run(&mut run, &mut out, &r0, &set0, &mut rename, &set);
                        let uses = inst.uses();
                        let consumed_reverted = reverted.iter().any(|v| uses.contains(v));
                        for v in reverted {
                            // The flush reverted a guarded singleton after
                            // this op's successor state was planned:
                            // mirror the unknowns forward. (If this op
                            // redefines `v` the entry is really dead, but
                            // unknown is a sound over-approximation.)
                            new_rename.insert(v, AbsVal::Unknown);
                        }
                        if consumed_reverted {
                            // This op's own plan read a reverted vreg as a
                            // register; with that operand unknown again its
                            // emission shape — and whether its destination
                            // gains a rename entry — is value-dependent
                            // too. (Loads, stores, and calls never rename
                            // their destination.)
                            if let Some(dd) = inst.def() {
                                if !matches!(
                                    inst,
                                    Inst::Call { .. } | Inst::Load { .. } | Inst::Store { .. }
                                ) {
                                    new_rename.insert(dd, AbsVal::Unknown);
                                }
                            }
                        }
                        out.push(GeOp::EmitHole { inst, reads_after });
                    }
                }
                set = new_set;
                rename = new_rename;
            }
            t @ GeOp::EmitTemplate(_) => out.push(t),
        }
    }
    flush_run(&mut run, &mut out, &r0, &set0, &mut rename, &set);
    d.ops = out;
}
