//! Portable x86-64 encoding of the VM ISA (copy-and-patch lowering).
//!
//! This module turns sealed [`Instr`]s into the byte payload of a
//! [`NativeArtifact`]. It is *pure data transformation* — no memory
//! mapping, no execution — so it compiles and its golden-byte tests run
//! on every platform; only installing and calling the bytes (see the
//! platform backend in [`super`]) is gated on x86-64.
//!
//! # Register file in memory
//!
//! Generated code keeps the VM register file in memory rather than
//! allocating machine registers: `r14` points at a `u64` array of raw
//! register bits, `r13` at a parallel `u8` tag array (0 = int,
//! 1 = float), and `r15` at the [`NatCtx`](super) context struct. Every
//! VM register access is a single mov with a disp32 of `8 * vreg` (or
//! `vreg` for tags), which is exactly what makes copy-and-patch work:
//! two instructions with the same [`instr_shape`] differ only in those
//! disp32 fields and in 64-bit immediates, so a prebuilt byte sequence
//! plus a hole-patch loop reproduces a full re-encode.
//!
//! # ABI
//!
//! An emitted function is `unsafe extern "C" fn(*mut NatCtx) -> i32`.
//! The prologue saves `r13`/`r14`/`r15`, loads them from the context,
//! and leaves the stack 16-byte aligned at every helper call site. The
//! return value is a status code ([`STATUS_OK`] etc.); guest errors
//! (divide by zero, out-of-bounds addresses) exit through tiny inline
//! stubs so every non-branch instruction is position-independent.
//!
//! Semantic fidelity notes (each pinned by a golden test and exercised
//! by the differential suites):
//!
//! * `Div`/`Rem` guard `0` (status exit, matching [`dyc_vm::VmError::DivideByZero`])
//!   and `-1` (hand-expanded, because `idiv` traps on
//!   `i64::MIN / -1` where the VM's `wrapping_div` wraps).
//! * `Shl`/`Shr` use the `cl` shift whose architectural `& 63` masking
//!   equals the interpreter's.
//! * `FCmp` is NaN-correct: `Eq`/`Ne` combine `ZF` with `PF`, the
//!   orderings use `seta`/`setae` after operand-directed `ucomisd`.
//! * `FToI` calls back into Rust (`as i64` saturates and maps NaN to 0;
//!   `cvttsd2si` does neither).
//! * `Brz`/`Brnz` truthiness shifts the raw bits left by the tag, so a
//!   float's sign bit is ignored (`-0.0` is falsy) while every other
//!   bit pattern (NaN included) stays truthy — exactly
//!   [`dyc_vm::Value::is_truthy`].
//! * `Load`/`Store` bounds-check against the context's word count with
//!   an unsigned compare (negative addresses become huge), matching the
//!   interpreter's checked guest accesses: both report
//!   [`dyc_vm::VmError::OutOfBounds`] with the wrapped address.

use dyc_vm::{
    instr_shape, Cc, CodeFunc, FAluOp, FuncId, HostFn, IAluOp, Instr, Operand, Reg, Ty, UnOp,
};
use std::collections::HashMap;

/// Normal completion; the `Ret` fields of the context are valid.
pub const STATUS_OK: i32 = 0;
/// Integer division by zero (maps to [`dyc_vm::VmError::DivideByZero`]).
pub const STATUS_DIV0: i32 = 1;
/// Out-of-bounds memory access; the faulting address is in the
/// context's `fault_addr` (maps to [`dyc_vm::VmError::OutOfBounds`]).
pub const STATUS_OOB: i32 = 2;
/// A helper call (host call, static call, or re-entrant dispatch)
/// failed; the error or panic payload is stashed in the call
/// environment.
pub const STATUS_HELPER: i32 = 3;
/// Execution fell off the end of the function (maps to
/// [`dyc_vm::VmError::PcOutOfRange`]).
pub const STATUS_FELL_OFF: i32 = 4;

// Byte offsets of the leading `#[repr(C)]` fields of `NatCtx`, baked
// into generated code as `[r15 + disp8]` accesses. The platform
// backend asserts they match `mem::offset_of!` at test time.
pub(crate) const CTX_REGS: u8 = 0x00;
pub(crate) const CTX_TAGS: u8 = 0x08;
pub(crate) const CTX_MEM: u8 = 0x10;
pub(crate) const CTX_MEM_LEN: u8 = 0x18;
pub(crate) const CTX_RET_BITS: u8 = 0x20;
pub(crate) const CTX_RET_TAG: u8 = 0x28;
pub(crate) const CTX_HAS_RET: u8 = 0x30;
pub(crate) const CTX_FAULT: u8 = 0x38;
pub(crate) const CTX_CALL: u8 = 0x40;
pub(crate) const CTX_FTOI: u8 = 0x48;

/// Byte length of the function prologue (`push r13/r14/r15`, load
/// `r15`/`r14`/`r13` from the context argument).
pub(crate) const PROLOGUE_LEN: usize = 17;

// Scratch GPR encodings.
const RAX: u8 = 0;
const RCX: u8 = 1;
const RDX: u8 = 2;

/// One call-shaped instruction the generated code re-enters Rust for.
/// The byte stream only carries an index into this table; the runtime
/// helper reads the argument registers, performs the call (host
/// function, static VM call, or re-entrant dispatch), and writes the
/// destination register.
#[derive(Debug, Clone, PartialEq)]
pub enum CallDesc {
    /// A [`Instr::CallHost`].
    Host {
        /// The host function.
        f: HostFn,
        /// Destination register for the result, if any.
        dst: Option<Reg>,
        /// Argument registers.
        args: Vec<Reg>,
    },
    /// A [`Instr::Call`] to another VM function.
    Static {
        /// The callee.
        func: FuncId,
        /// Destination register for the result, if any.
        dst: Option<Reg>,
        /// Argument registers.
        args: Vec<Reg>,
    },
    /// A [`Instr::Dispatch`] re-entering the run-time system.
    Dispatch {
        /// The dispatch point.
        point: u32,
        /// Destination register for the result, if any.
        dst: Option<Reg>,
        /// Argument registers.
        args: Vec<Reg>,
    },
}

/// The lowered form of one specialized function: position-independent
/// machine code plus the call table its call sites index. Plain data —
/// installing it into executable memory is the platform backend's job.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeArtifact {
    /// The machine code (prologue + lowered instructions + fell-off-end
    /// stub), position-independent.
    pub bytes: Vec<u8>,
    /// Call descriptors, indexed by the `mov esi, imm32` at each call
    /// site.
    pub calls: Vec<CallDesc>,
    /// One past the highest VM register the code touches (the executor
    /// sizes the register/tag buffers from this and the argument count).
    pub n_regs: u32,
}

/// Which operand field of an instruction a hole's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Dst,
    A,
    B,
    Src,
    Base,
    Idx,
    Cond,
}

/// One patchable field of a prebuilt byte sequence.
#[derive(Debug, Clone, Copy)]
enum HoleKind {
    /// disp32 = `8 * reg(slot)` (a register-bits access off `r14`).
    RegDisp(Slot),
    /// disp32 = `reg(slot)` (a tag access off `r13`).
    TagDisp(Slot),
    /// A 64-bit immediate (`movabs`).
    Imm64,
}

#[derive(Debug, Clone, Copy)]
struct Hole {
    off: u32,
    kind: HoleKind,
}

#[derive(Debug, Clone)]
struct PreLowered {
    bytes: Vec<u8>,
    holes: Vec<Hole>,
}

#[derive(Debug, Clone, Copy)]
struct Branch {
    /// Byte position of the rel32 field.
    pos: u32,
    /// Index of the branch instruction (its target is read from the
    /// final instruction mirror at `finish` time).
    instr: u32,
}

/// Incremental encoder for one function. Feed it every instruction in
/// order, then [`FnEncoder::finish`] with the final instruction vector
/// to resolve branch rel32s. The first instruction of each
/// [`instr_shape`] is encoded in full and its bytes kept; every later
/// one of that shape copies them and patches its holes.
#[derive(Debug)]
pub struct FnEncoder {
    buf: Vec<u8>,
    /// Byte offset of each instruction's first byte, in order.
    instr_offs: Vec<u32>,
    branches: Vec<Branch>,
    calls: Vec<CallDesc>,
    unsupported: bool,
    /// Prebuilt byte sequences of this function, keyed by
    /// [`instr_shape`]. Populated on first encounter (the canonical
    /// instance's bytes *are* the template: every instance-dependent
    /// byte is covered by a hole).
    cache: HashMap<u16, PreLowered>,
    /// Hole positions recorded while encoding a cache-miss instance.
    scratch_holes: Vec<Hole>,
    recording: bool,
    max_reg: u32,
    /// Instructions instantiated through the prebuilt-bytes path.
    prelowered_hits: u64,
}

impl Default for FnEncoder {
    fn default() -> Self {
        FnEncoder::new()
    }
}

impl FnEncoder {
    /// A fresh encoder with the prologue already emitted.
    pub fn new() -> FnEncoder {
        let mut e = FnEncoder {
            buf: Vec::with_capacity(256),
            instr_offs: Vec::new(),
            branches: Vec::new(),
            calls: Vec::new(),
            unsupported: false,
            cache: HashMap::new(),
            scratch_holes: Vec::new(),
            recording: false,
            max_reg: 0,
            prelowered_hits: 0,
        };
        // push r13; push r14; push r15 — also re-aligns rsp to 16 at
        // every helper call site (entry rsp ≡ 8 mod 16 per SysV).
        e.bs(&[0x41, 0x55, 0x41, 0x56, 0x41, 0x57]);
        // mov r15, rdi; mov r14, [r15 + CTX_REGS]; mov r13, [r15 + CTX_TAGS]
        e.bs(&[0x49, 0x89, 0xFF]);
        e.bs(&[0x4D, 0x8B, 0x77, CTX_REGS]);
        e.bs(&[0x4D, 0x8B, 0x6F, CTX_TAGS]);
        debug_assert_eq!(e.buf.len(), PROLOGUE_LEN);
        e
    }

    /// True once an unsupported construct was seen; the function must
    /// fall back to VM interpretation ([`FnEncoder::finish`] returns
    /// `None`).
    pub fn unsupported(&self) -> bool {
        self.unsupported
    }

    /// Instructions instantiated via prebuilt bytes + hole patching
    /// instead of a full re-encode.
    pub fn prelowered_hits(&self) -> u64 {
        self.prelowered_hits
    }

    /// Append one instruction: through the prebuilt bytes of its
    /// [`instr_shape`] when an earlier instruction built them, else by a
    /// full encode (which builds them, for a shape other than `0`).
    pub fn emit(&mut self, ins: &Instr) {
        self.instr_offs.push(self.buf.len() as u32);
        if self.unsupported {
            return;
        }
        if let Some(d) = ins.def() {
            self.max_reg = self.max_reg.max(d + 1);
        }
        for u in ins.uses() {
            self.max_reg = self.max_reg.max(u + 1);
        }
        let shape = instr_shape(ins);
        if shape != 0 {
            if let Some(pl) = self.cache.get(&shape) {
                // Copy-and-patch fast path: memcpy the prebuilt bytes,
                // then write each hole from this instance's fields.
                let at = self.buf.len();
                self.buf.extend_from_slice(&pl.bytes);
                // `pl` borrows `self.cache`; holes are Copy and few.
                let holes: Vec<Hole> = pl.holes.clone();
                for h in holes {
                    let p = at + h.off as usize;
                    match h.kind {
                        HoleKind::RegDisp(s) => {
                            let v = slot_reg(ins, s) * 8;
                            self.buf[p..p + 4].copy_from_slice(&v.to_le_bytes());
                        }
                        HoleKind::TagDisp(s) => {
                            let v = slot_reg(ins, s);
                            self.buf[p..p + 4].copy_from_slice(&v.to_le_bytes());
                        }
                        HoleKind::Imm64 => {
                            let v = imm_bits(ins);
                            self.buf[p..p + 8].copy_from_slice(&v.to_le_bytes());
                        }
                    }
                }
                self.prelowered_hits += 1;
                return;
            }
            // Cache miss: encode this instance with hole recording on.
            // Its bytes become the shape's template — every variable
            // byte is a recorded hole, so any later same-shape instance
            // patches to exactly what a re-encode would produce.
            self.recording = true;
            self.scratch_holes.clear();
            let start = self.buf.len();
            self.encode(ins);
            self.recording = false;
            let bytes = self.buf[start..].to_vec();
            let holes = self
                .scratch_holes
                .iter()
                .map(|h| Hole {
                    off: h.off - start as u32,
                    kind: h.kind,
                })
                .collect();
            self.cache.insert(shape, PreLowered { bytes, holes });
            return;
        }
        self.encode(ins);
    }

    /// Resolve every branch rel32 against the final instruction vector
    /// (branch targets may have been patched after emission), append
    /// the fell-off-end stub, and return the artifact. `None` if any
    /// construct was unsupported or a branch target is out of range —
    /// the caller falls back to VM interpretation.
    pub fn finish(mut self, code: &[Instr]) -> Option<NativeArtifact> {
        if self.unsupported {
            return None;
        }
        // A branch to one-past-the-last instruction lands here and
        // reports PcOutOfRange, exactly like the interpreter's fetch.
        let end = self.buf.len() as u32;
        self.exit_stub(STATUS_FELL_OFF as u8);
        for br in std::mem::take(&mut self.branches) {
            let target = match code.get(br.instr as usize) {
                Some(Instr::Jmp { target })
                | Some(Instr::Brz { target, .. })
                | Some(Instr::Brnz { target, .. }) => *target,
                other => unreachable!("branch fixup on non-branch {other:?}"),
            };
            let toff = if (target as usize) < self.instr_offs.len() {
                self.instr_offs[target as usize]
            } else if target as usize == self.instr_offs.len() {
                end
            } else {
                return None;
            };
            let rel = i64::from(toff) - (i64::from(br.pos) + 4);
            let rel = i32::try_from(rel).ok()?;
            let p = br.pos as usize;
            self.buf[p..p + 4].copy_from_slice(&rel.to_le_bytes());
        }
        Some(NativeArtifact {
            bytes: self.buf,
            calls: self.calls,
            n_regs: self.max_reg.max(1),
        })
    }

    // --- byte-level helpers -------------------------------------------

    fn b(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bs(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    fn le32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn hole32(&mut self, kind: HoleKind, v: u32) {
        if self.recording {
            self.scratch_holes.push(Hole {
                off: self.buf.len() as u32,
                kind,
            });
        }
        self.le32(v);
    }

    fn hole64(&mut self, bits: u64) {
        if self.recording {
            self.scratch_holes.push(Hole {
                off: self.buf.len() as u32,
                kind: HoleKind::Imm64,
            });
        }
        self.buf.extend_from_slice(&bits.to_le_bytes());
    }

    /// `mov gpr, [r14 + 8*r]` — load a VM register's raw bits.
    fn load_reg(&mut self, gpr: u8, slot: Slot, r: Reg) {
        self.bs(&[0x49, 0x8B, modrm(2, gpr, 6)]);
        self.hole32(HoleKind::RegDisp(slot), r * 8);
    }

    /// `mov [r14 + 8*r], gpr` — store raw bits to a VM register.
    fn store_reg(&mut self, gpr: u8, slot: Slot, r: Reg) {
        self.bs(&[0x49, 0x89, modrm(2, gpr, 6)]);
        self.hole32(HoleKind::RegDisp(slot), r * 8);
    }

    /// `movabs gpr, bits` with a 64-bit immediate hole.
    fn movabs_hole(&mut self, gpr: u8, bits: u64) {
        self.bs(&[0x48, 0xB8 + gpr]);
        self.hole64(bits);
    }

    /// `movabs gpr, bits` with a shape-constant immediate (no hole).
    fn movabs_const(&mut self, gpr: u8, bits: u64) {
        self.bs(&[0x48, 0xB8 + gpr]);
        self.buf.extend_from_slice(&bits.to_le_bytes());
    }

    /// `movsd xmm, [r14 + 8*r]`.
    fn xmm_load(&mut self, xmm: u8, slot: Slot, r: Reg) {
        self.bs(&[0xF2, 0x41, 0x0F, 0x10, modrm(2, xmm, 6)]);
        self.hole32(HoleKind::RegDisp(slot), r * 8);
    }

    /// `movsd [r14 + 8*r], xmm`.
    fn xmm_store(&mut self, xmm: u8, slot: Slot, r: Reg) {
        self.bs(&[0xF2, 0x41, 0x0F, 0x11, modrm(2, xmm, 6)]);
        self.hole32(HoleKind::RegDisp(slot), r * 8);
    }

    /// `mov byte [r13 + r], tag` — set a destination tag.
    fn tag_set(&mut self, slot: Slot, r: Reg, tag: u8) {
        self.bs(&[0x41, 0xC6, 0x85]);
        self.hole32(HoleKind::TagDisp(slot), r);
        self.b(tag);
    }

    /// `mov cl, [r13 + r]` — read a tag into `cl`.
    fn tag_to_cl(&mut self, slot: Slot, r: Reg) {
        self.bs(&[0x41, 0x8A, 0x8D]);
        self.hole32(HoleKind::TagDisp(slot), r);
    }

    /// `mov [r13 + r], cl` — copy a tag from `cl`.
    fn tag_from_cl(&mut self, slot: Slot, r: Reg) {
        self.bs(&[0x41, 0x88, 0x8D]);
        self.hole32(HoleKind::TagDisp(slot), r);
    }

    /// `mov eax, status; pop r15; pop r14; pop r13; ret` — 12 bytes,
    /// position-independent, inline at every guarded exit.
    fn exit_stub(&mut self, status: u8) {
        self.b(0xB8);
        self.le32(u32::from(status));
        self.bs(&[0x41, 0x5F, 0x41, 0x5E, 0x41, 0x5D, 0xC3]);
    }

    /// Load the second IAlu/ICmp operand into `rcx`.
    fn operand_to_rcx(&mut self, b: &Operand) {
        match *b {
            Operand::Reg(r) => self.load_reg(RCX, Slot::B, r),
            Operand::Imm(v) => self.movabs_hole(RCX, v as u64),
        }
    }

    /// Compute a memory address (`base` bits + `idx`) into `rax`,
    /// wrapping like the release-mode interpreter.
    fn addr_to_rax(&mut self, base: Reg, idx: &Operand) {
        self.load_reg(RAX, Slot::Base, base);
        match *idx {
            // add rax, [r14 + 8*r]
            Operand::Reg(r) => {
                self.bs(&[0x49, 0x03, modrm(2, RAX, 6)]);
                self.hole32(HoleKind::RegDisp(Slot::Idx), r * 8);
            }
            Operand::Imm(v) => {
                self.movabs_hole(RCX, v as u64);
                self.bs(&[0x48, 0x01, 0xC8]); // add rax, rcx
            }
        }
    }

    /// Bounds check `rax` against the context word count and load the
    /// memory base into `rcx`. Out of bounds exits with [`STATUS_OOB`]
    /// after stashing the faulting address.
    fn bounds_check(&mut self) {
        self.bs(&[0x49, 0x8B, 0x4F, CTX_MEM]); // mov rcx, [r15 + mem]
        self.bs(&[0x49, 0x3B, 0x47, CTX_MEM_LEN]); // cmp rax, [r15 + mem_len]
        self.bs(&[0x72, 0x10]); // jb +16 (over the stub)
        self.bs(&[0x49, 0x89, 0x47, CTX_FAULT]); // mov [r15 + fault], rax
        self.exit_stub(STATUS_OOB as u8);
    }

    /// Record a rel32 branch site (placeholder 0) for the *current*
    /// instruction; resolved in [`FnEncoder::finish`].
    fn branch_here(&mut self) {
        self.branches.push(Branch {
            pos: self.buf.len() as u32,
            instr: self.instr_offs.len() as u32 - 1,
        });
        self.le32(0);
    }

    /// `mov rdi, r15; mov esi, idx; call [r15 + call]; test eax, eax;
    /// jz +7; pop×3; ret` — the helper-call sequence shared by host
    /// calls, static calls, and re-entrant dispatch.
    fn call_desc(&mut self, desc: CallDesc) {
        let idx = self.calls.len() as u32;
        self.calls.push(desc);
        self.bs(&[0x4C, 0x89, 0xFF, 0xBE]);
        self.le32(idx);
        self.bs(&[0x41, 0xFF, 0x57, CTX_CALL]);
        self.bs(&[0x85, 0xC0, 0x74, 0x07]);
        self.bs(&[0x41, 0x5F, 0x41, 0x5E, 0x41, 0x5D, 0xC3]);
    }

    // --- per-instruction encoders -------------------------------------

    fn encode(&mut self, ins: &Instr) {
        match ins {
            Instr::MovI { dst, imm } => {
                self.movabs_hole(RAX, *imm as u64);
                self.store_reg(RAX, Slot::Dst, *dst);
                self.tag_set(Slot::Dst, *dst, 0);
            }
            Instr::MovF { dst, imm } => {
                self.movabs_hole(RAX, imm.to_bits());
                self.store_reg(RAX, Slot::Dst, *dst);
                self.tag_set(Slot::Dst, *dst, 1);
            }
            Instr::Mov { dst, src } | Instr::FMov { dst, src } => {
                self.load_reg(RAX, Slot::Src, *src);
                self.store_reg(RAX, Slot::Dst, *dst);
                self.tag_to_cl(Slot::Src, *src);
                self.tag_from_cl(Slot::Dst, *dst);
            }
            Instr::IAlu { op, dst, a, b } => {
                self.load_reg(RAX, Slot::A, *a);
                self.operand_to_rcx(b);
                match op {
                    IAluOp::Add => self.bs(&[0x48, 0x01, 0xC8]),
                    IAluOp::Sub => self.bs(&[0x48, 0x29, 0xC8]),
                    IAluOp::Mul => self.bs(&[0x48, 0x0F, 0xAF, 0xC1]),
                    IAluOp::And => self.bs(&[0x48, 0x21, 0xC8]),
                    IAluOp::Or => self.bs(&[0x48, 0x09, 0xC8]),
                    IAluOp::Xor => self.bs(&[0x48, 0x31, 0xC8]),
                    IAluOp::Shl => self.bs(&[0x48, 0xD3, 0xE0]), // shl rax, cl
                    IAluOp::Shr => self.bs(&[0x48, 0xD3, 0xF8]), // sar rax, cl
                    IAluOp::Div => {
                        self.bs(&[0x48, 0x85, 0xC9, 0x75, 0x0C]); // test; jnz +12
                        self.exit_stub(STATUS_DIV0 as u8);
                        // idiv traps on i64::MIN / -1; wrapping_div
                        // wraps to i64::MIN, i.e. neg rax.
                        self.bs(&[0x48, 0x83, 0xF9, 0xFF, 0x75, 0x05]); // cmp rcx,-1; jne +5
                        self.bs(&[0x48, 0xF7, 0xD8, 0xEB, 0x05]); // neg rax; jmp +5
                        self.bs(&[0x48, 0x99, 0x48, 0xF7, 0xF9]); // cqo; idiv rcx
                    }
                    IAluOp::Rem => {
                        self.bs(&[0x48, 0x85, 0xC9, 0x75, 0x0C]);
                        self.exit_stub(STATUS_DIV0 as u8);
                        // wrapping_rem(i64::MIN, -1) == 0.
                        self.bs(&[0x48, 0x83, 0xF9, 0xFF, 0x75, 0x04]); // cmp rcx,-1; jne +4
                        self.bs(&[0x31, 0xD2, 0xEB, 0x05]); // xor edx,edx; jmp +5
                        self.bs(&[0x48, 0x99, 0x48, 0xF7, 0xF9]); // cqo; idiv rcx
                        self.bs(&[0x48, 0x89, 0xD0]); // mov rax, rdx
                    }
                }
                self.store_reg(RAX, Slot::Dst, *dst);
                self.tag_set(Slot::Dst, *dst, 0);
            }
            Instr::ICmp { cc, dst, a, b } => {
                self.load_reg(RAX, Slot::A, *a);
                self.operand_to_rcx(b);
                self.bs(&[0x48, 0x39, 0xC8]); // cmp rax, rcx
                let setcc = match cc {
                    Cc::Eq => 0x94,
                    Cc::Ne => 0x95,
                    Cc::Lt => 0x9C, // setl (signed)
                    Cc::Le => 0x9E,
                    Cc::Gt => 0x9F,
                    Cc::Ge => 0x9D,
                };
                self.bs(&[0x0F, setcc, 0xC0]); // setcc al
                self.bs(&[0x0F, 0xB6, 0xC0]); // movzx eax, al
                self.store_reg(RAX, Slot::Dst, *dst);
                self.tag_set(Slot::Dst, *dst, 0);
            }
            Instr::FAlu { op, dst, a, b } => {
                self.xmm_load(0, Slot::A, *a);
                self.xmm_load(1, Slot::B, *b);
                let opc = match op {
                    FAluOp::Add => 0x58,
                    FAluOp::Sub => 0x5C,
                    FAluOp::Mul => 0x59,
                    FAluOp::Div => 0x5E,
                };
                self.bs(&[0xF2, 0x0F, opc, 0xC1]); // opsd xmm0, xmm1
                self.xmm_store(0, Slot::Dst, *dst);
                self.tag_set(Slot::Dst, *dst, 1);
            }
            Instr::FCmp { cc, dst, a, b } => {
                self.xmm_load(0, Slot::A, *a);
                self.xmm_load(1, Slot::B, *b);
                match cc {
                    Cc::Eq => {
                        self.bs(&[0x66, 0x0F, 0x2E, 0xC1]); // ucomisd xmm0, xmm1
                        self.bs(&[0x0F, 0x9B, 0xC1]); // setnp cl (ordered)
                        self.bs(&[0x0F, 0x94, 0xC0]); // sete al
                        self.bs(&[0x20, 0xC8]); // and al, cl
                    }
                    Cc::Ne => {
                        self.bs(&[0x66, 0x0F, 0x2E, 0xC1]);
                        self.bs(&[0x0F, 0x9A, 0xC1]); // setp cl (unordered)
                        self.bs(&[0x0F, 0x95, 0xC0]); // setne al
                        self.bs(&[0x08, 0xC8]); // or al, cl
                    }
                    // a < b  ⇔  b > a: seta after ucomisd b, a is false
                    // on unordered (CF set), matching Rust's partial
                    // compare.
                    Cc::Lt => {
                        self.bs(&[0x66, 0x0F, 0x2E, 0xC8]); // ucomisd xmm1, xmm0
                        self.bs(&[0x0F, 0x97, 0xC0]); // seta al
                    }
                    Cc::Le => {
                        self.bs(&[0x66, 0x0F, 0x2E, 0xC8]);
                        self.bs(&[0x0F, 0x93, 0xC0]); // setae al
                    }
                    Cc::Gt => {
                        self.bs(&[0x66, 0x0F, 0x2E, 0xC1]);
                        self.bs(&[0x0F, 0x97, 0xC0]);
                    }
                    Cc::Ge => {
                        self.bs(&[0x66, 0x0F, 0x2E, 0xC1]);
                        self.bs(&[0x0F, 0x93, 0xC0]);
                    }
                }
                self.bs(&[0x0F, 0xB6, 0xC0]); // movzx eax, al
                self.store_reg(RAX, Slot::Dst, *dst);
                self.tag_set(Slot::Dst, *dst, 0);
            }
            Instr::Un { op, dst, src } => match op {
                UnOp::NegI => {
                    self.load_reg(RAX, Slot::Src, *src);
                    self.bs(&[0x48, 0xF7, 0xD8]); // neg rax
                    self.store_reg(RAX, Slot::Dst, *dst);
                    self.tag_set(Slot::Dst, *dst, 0);
                }
                UnOp::NotI => {
                    self.load_reg(RAX, Slot::Src, *src);
                    self.bs(&[0x48, 0xF7, 0xD0]); // not rax
                    self.store_reg(RAX, Slot::Dst, *dst);
                    self.tag_set(Slot::Dst, *dst, 0);
                }
                UnOp::NegF => {
                    // Sign-bit flip, exactly `-f` (NaN payloads kept).
                    self.load_reg(RAX, Slot::Src, *src);
                    self.movabs_const(RCX, 0x8000_0000_0000_0000);
                    self.bs(&[0x48, 0x31, 0xC8]); // xor rax, rcx
                    self.store_reg(RAX, Slot::Dst, *dst);
                    self.tag_set(Slot::Dst, *dst, 1);
                }
                UnOp::IToF => {
                    self.load_reg(RAX, Slot::Src, *src);
                    self.bs(&[0xF2, 0x48, 0x0F, 0x2A, 0xC0]); // cvtsi2sd xmm0, rax
                    self.xmm_store(0, Slot::Dst, *dst);
                    self.tag_set(Slot::Dst, *dst, 1);
                }
                UnOp::FToI => {
                    // Rust's `as i64` saturates and maps NaN to 0;
                    // cvttsd2si does neither, so call back into Rust.
                    self.xmm_load(0, Slot::Src, *src);
                    self.bs(&[0x41, 0xFF, 0x57, CTX_FTOI]); // call [r15 + ftoi]
                    self.store_reg(RAX, Slot::Dst, *dst);
                    self.tag_set(Slot::Dst, *dst, 0);
                }
            },
            Instr::Load { ty, dst, base, idx } => {
                self.addr_to_rax(*base, idx);
                self.bounds_check();
                self.bs(&[0x48, 0x8B, 0x04, 0xC1]); // mov rax, [rcx + rax*8]
                self.store_reg(RAX, Slot::Dst, *dst);
                self.tag_set(Slot::Dst, *dst, matches!(ty, Ty::Float) as u8);
            }
            Instr::Store {
                ty: _,
                base,
                idx,
                src,
            } => {
                // The interpreter's store writes raw bits regardless of
                // the declared type; so do we.
                self.addr_to_rax(*base, idx);
                self.bounds_check();
                self.load_reg(RDX, Slot::Src, *src);
                self.bs(&[0x48, 0x89, 0x14, 0xC1]); // mov [rcx + rax*8], rdx
            }
            Instr::Jmp { .. } => {
                self.b(0xE9);
                self.branch_here();
            }
            Instr::Brz { cond, .. } | Instr::Brnz { cond, .. } => {
                // Truthiness: shift the raw bits left by the tag (0 for
                // ints, 1 for floats) so a float's sign bit is dropped
                // (-0.0 falsy) while NaNs and i64::MIN stay truthy —
                // exactly `Value::is_truthy`.
                self.load_reg(RAX, Slot::Cond, *cond);
                self.tag_to_cl(Slot::Cond, *cond);
                self.bs(&[0x48, 0xD3, 0xE0]); // shl rax, cl
                self.bs(&[0x48, 0x85, 0xC0]); // test rax, rax
                let jcc = if matches!(ins, Instr::Brz { .. }) {
                    0x84 // jz
                } else {
                    0x85 // jnz
                };
                self.bs(&[0x0F, jcc]);
                self.branch_here();
            }
            Instr::Ret { src } => {
                match src {
                    Some(r) => {
                        self.load_reg(RAX, Slot::Src, *r);
                        self.bs(&[0x49, 0x89, 0x47, CTX_RET_BITS]);
                        self.tag_to_cl(Slot::Src, *r);
                        self.bs(&[0x41, 0x88, 0x4F, CTX_RET_TAG]);
                        self.bs(&[0x41, 0xC6, 0x47, CTX_HAS_RET, 0x01]);
                    }
                    None => {
                        self.bs(&[0x41, 0xC6, 0x47, CTX_HAS_RET, 0x00]);
                    }
                }
                self.bs(&[0x31, 0xC0]); // xor eax, eax (STATUS_OK)
                self.bs(&[0x41, 0x5F, 0x41, 0x5E, 0x41, 0x5D, 0xC3]);
            }
            Instr::CallHost { f, dst, args } => {
                self.call_desc(CallDesc::Host {
                    f: *f,
                    dst: *dst,
                    args: args.clone(),
                });
            }
            Instr::Call { func, dst, args } => {
                self.call_desc(CallDesc::Static {
                    func: *func,
                    dst: *dst,
                    args: args.clone(),
                });
            }
            Instr::Dispatch { point, dst, args } => {
                self.call_desc(CallDesc::Dispatch {
                    point: *point,
                    dst: *dst,
                    args: args.clone(),
                });
            }
            Instr::Halt => {
                // Only harness top-levels halt; specialized regions never
                // should. Bail to the VM rather than encode it.
                self.unsupported = true;
            }
        }
    }
}

const fn modrm(md: u8, reg: u8, rm: u8) -> u8 {
    (md << 6) | (reg << 3) | rm
}

/// The register an instruction carries in `slot` (hole patching).
fn slot_reg(ins: &Instr, slot: Slot) -> u32 {
    match (ins, slot) {
        (Instr::MovI { dst, .. } | Instr::MovF { dst, .. }, Slot::Dst) => *dst,
        (Instr::Mov { dst, .. } | Instr::FMov { dst, .. }, Slot::Dst) => *dst,
        (Instr::Mov { src, .. } | Instr::FMov { src, .. }, Slot::Src) => *src,
        (Instr::IAlu { dst, .. } | Instr::ICmp { dst, .. }, Slot::Dst) => *dst,
        (Instr::IAlu { a, .. } | Instr::ICmp { a, .. }, Slot::A) => *a,
        (
            Instr::IAlu {
                b: Operand::Reg(r), ..
            }
            | Instr::ICmp {
                b: Operand::Reg(r), ..
            },
            Slot::B,
        ) => *r,
        (Instr::FAlu { dst, .. } | Instr::FCmp { dst, .. }, Slot::Dst) => *dst,
        (Instr::FAlu { a, .. } | Instr::FCmp { a, .. }, Slot::A) => *a,
        (Instr::FAlu { b, .. } | Instr::FCmp { b, .. }, Slot::B) => *b,
        (Instr::Un { dst, .. }, Slot::Dst) => *dst,
        (Instr::Un { src, .. }, Slot::Src) => *src,
        (Instr::Load { dst, .. }, Slot::Dst) => *dst,
        (Instr::Load { base, .. } | Instr::Store { base, .. }, Slot::Base) => *base,
        (
            Instr::Load {
                idx: Operand::Reg(r),
                ..
            }
            | Instr::Store {
                idx: Operand::Reg(r),
                ..
            },
            Slot::Idx,
        ) => *r,
        (Instr::Store { src, .. }, Slot::Src) => *src,
        (Instr::Brz { cond, .. } | Instr::Brnz { cond, .. }, Slot::Cond) => *cond,
        (Instr::Ret { src: Some(r) }, Slot::Src) => *r,
        _ => unreachable!("no {slot:?} slot on {ins:?}"),
    }
}

/// The 64-bit immediate an instruction carries (hole patching).
fn imm_bits(ins: &Instr) -> u64 {
    match ins {
        Instr::MovI { imm, .. } => *imm as u64,
        Instr::MovF { imm, .. } => imm.to_bits(),
        Instr::IAlu {
            b: Operand::Imm(v), ..
        }
        | Instr::ICmp {
            b: Operand::Imm(v), ..
        }
        | Instr::Load {
            idx: Operand::Imm(v),
            ..
        }
        | Instr::Store {
            idx: Operand::Imm(v),
            ..
        } => *v as u64,
        _ => unreachable!("no 64-bit immediate on {ins:?}"),
    }
}

/// Lower a complete [`CodeFunc`] to a [`NativeArtifact`], or `None` if
/// it contains an unsupported construct. Every install lowers through
/// here: specializations, generic continuations, another thread's code
/// and warm-started entries alike.
pub fn lower_func(cf: &CodeFunc) -> Option<NativeArtifact> {
    let mut enc = FnEncoder::new();
    for ins in &cf.code {
        enc.emit(ins);
    }
    enc.finish(&cf.code)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        s.split_whitespace()
            .flat_map(|w| {
                (0..w.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&w[i..i + 2], 16).unwrap())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Encode one instruction (a full encode: the first of its shape)
    /// and return its bytes.
    fn enc1(ins: &Instr) -> Vec<u8> {
        let mut e = FnEncoder::new();
        e.emit(ins);
        assert!(!e.unsupported());
        e.buf[PROLOGUE_LEN..].to_vec()
    }

    #[test]
    fn prologue_bytes_are_pinned() {
        let e = FnEncoder::new();
        assert_eq!(
            e.buf,
            hex("4155 4156 4157 4989FF 4D8B7700 4D8B6F08"),
            "push r13/r14/r15; mov r15,rdi; mov r14,[r15]; mov r13,[r15+8]"
        );
    }

    #[test]
    fn golden_movi() {
        assert_eq!(
            enc1(&Instr::MovI { dst: 2, imm: 7 }),
            hex("48B8 0700000000000000 498986 10000000 41C685 02000000 00")
        );
    }

    #[test]
    fn golden_movf() {
        assert_eq!(
            enc1(&Instr::MovF { dst: 0, imm: 1.5 }),
            hex("48B8 000000000000F83F 498986 00000000 41C685 00000000 01")
        );
    }

    #[test]
    fn golden_mov_and_fmov_copy_bits_and_tag() {
        let want = hex("498B86 00000000 498986 08000000 418A8D 00000000 41888D 01000000");
        assert_eq!(enc1(&Instr::Mov { dst: 1, src: 0 }), want);
        assert_eq!(enc1(&Instr::FMov { dst: 1, src: 0 }), want);
    }

    #[test]
    fn golden_ialu_add_reg() {
        assert_eq!(
            enc1(&Instr::IAlu {
                op: IAluOp::Add,
                dst: 2,
                a: 0,
                b: Operand::Reg(1),
            }),
            hex("498B86 00000000 498B8E 08000000 4801C8 498986 10000000 41C685 02000000 00")
        );
    }

    #[test]
    fn golden_ialu_shifts_use_cl_masking() {
        assert_eq!(
            enc1(&Instr::IAlu {
                op: IAluOp::Shl,
                dst: 0,
                a: 0,
                b: Operand::Imm(3),
            }),
            hex("498B86 00000000 48B9 0300000000000000 48D3E0 498986 00000000 41C685 00000000 00")
        );
        // Shr is arithmetic (sar): i64 semantics.
        assert_eq!(
            enc1(&Instr::IAlu {
                op: IAluOp::Shr,
                dst: 0,
                a: 0,
                b: Operand::Reg(1),
            }),
            hex("498B86 00000000 498B8E 08000000 48D3F8 498986 00000000 41C685 00000000 00")
        );
    }

    #[test]
    fn golden_div_guards_zero_and_min_over_minus_one() {
        assert_eq!(
            enc1(&Instr::IAlu {
                op: IAluOp::Div,
                dst: 0,
                a: 1,
                b: Operand::Reg(2),
            }),
            hex("498B86 08000000 498B8E 10000000 \
                 4885C9 750C B8 01000000 415F415E415DC3 \
                 4883F9FF 7505 48F7D8 EB05 4899 48F7F9 \
                 498986 00000000 41C685 00000000 00")
        );
    }

    #[test]
    fn golden_rem_result_in_rdx() {
        assert_eq!(
            enc1(&Instr::IAlu {
                op: IAluOp::Rem,
                dst: 0,
                a: 1,
                b: Operand::Reg(2),
            }),
            hex("498B86 08000000 498B8E 10000000 \
                 4885C9 750C B8 01000000 415F415E415DC3 \
                 4883F9FF 7504 31D2 EB05 4899 48F7F9 4889D0 \
                 498986 00000000 41C685 00000000 00")
        );
    }

    #[test]
    fn golden_icmp_lt_imm_is_signed() {
        assert_eq!(
            enc1(&Instr::ICmp {
                cc: Cc::Lt,
                dst: 1,
                a: 0,
                b: Operand::Imm(5),
            }),
            hex(
                "498B86 00000000 48B9 0500000000000000 4839C8 0F9CC0 0FB6C0 \
                 498986 08000000 41C685 01000000 00"
            )
        );
    }

    #[test]
    fn golden_falu_mul() {
        assert_eq!(
            enc1(&Instr::FAlu {
                op: FAluOp::Mul,
                dst: 2,
                a: 0,
                b: 1,
            }),
            hex("F2410F10 86 00000000 F2410F10 8E 08000000 F20F59C1 \
                 F2410F11 86 10000000 41C685 02000000 01")
        );
    }

    #[test]
    fn golden_fcmp_eq_is_nan_aware() {
        assert_eq!(
            enc1(&Instr::FCmp {
                cc: Cc::Eq,
                dst: 0,
                a: 1,
                b: 2,
            }),
            hex("F2410F10 86 08000000 F2410F10 8E 10000000 \
                 660F2EC1 0F9BC1 0F94C0 20C8 0FB6C0 \
                 498986 00000000 41C685 00000000 00")
        );
    }

    #[test]
    fn golden_fcmp_lt_swaps_operands_for_seta() {
        assert_eq!(
            enc1(&Instr::FCmp {
                cc: Cc::Lt,
                dst: 0,
                a: 1,
                b: 2,
            }),
            hex("F2410F10 86 08000000 F2410F10 8E 10000000 \
                 660F2EC8 0F97C0 0FB6C0 \
                 498986 00000000 41C685 00000000 00")
        );
    }

    #[test]
    fn golden_unops() {
        assert_eq!(
            enc1(&Instr::Un {
                op: UnOp::NegI,
                dst: 0,
                src: 1,
            }),
            hex("498B86 08000000 48F7D8 498986 00000000 41C685 00000000 00")
        );
        assert_eq!(
            enc1(&Instr::Un {
                op: UnOp::NotI,
                dst: 0,
                src: 1,
            }),
            hex("498B86 08000000 48F7D0 498986 00000000 41C685 00000000 00")
        );
        assert_eq!(
            enc1(&Instr::Un {
                op: UnOp::NegF,
                dst: 0,
                src: 1,
            }),
            hex("498B86 08000000 48B9 0000000000000080 4831C8 498986 00000000 41C685 00000000 01")
        );
        assert_eq!(
            enc1(&Instr::Un {
                op: UnOp::IToF,
                dst: 1,
                src: 0,
            }),
            hex("498B86 00000000 F2480F2AC0 F2410F11 86 08000000 41C685 01000000 01")
        );
        assert_eq!(
            enc1(&Instr::Un {
                op: UnOp::FToI,
                dst: 0,
                src: 1,
            }),
            hex("F2410F10 86 08000000 41FF5748 498986 00000000 41C685 00000000 00")
        );
    }

    #[test]
    fn golden_load_bounds_checks_and_tags() {
        assert_eq!(
            enc1(&Instr::Load {
                ty: Ty::Int,
                dst: 2,
                base: 0,
                idx: Operand::Reg(1),
            }),
            hex("498B86 00000000 4903 86 08000000 \
                 498B4F10 493B4718 7210 49894738 B8 02000000 415F415E415DC3 \
                 488B04C1 498986 10000000 41C685 02000000 00")
        );
        // Float load differs only in the tag immediate.
        let f = enc1(&Instr::Load {
            ty: Ty::Float,
            dst: 2,
            base: 0,
            idx: Operand::Reg(1),
        });
        assert_eq!(f[f.len() - 1], 0x01);
    }

    #[test]
    fn golden_store_writes_raw_bits() {
        assert_eq!(
            enc1(&Instr::Store {
                ty: Ty::Int,
                base: 0,
                idx: Operand::Imm(3),
                src: 1,
            }),
            hex("498B86 00000000 48B9 0300000000000000 4801C8 \
                 498B4F10 493B4718 7210 49894738 B8 02000000 415F415E415DC3 \
                 498B96 08000000 488914C1")
        );
        // Store ignores the declared type entirely: same bytes.
        assert_eq!(
            enc1(&Instr::Store {
                ty: Ty::Float,
                base: 0,
                idx: Operand::Imm(3),
                src: 1,
            }),
            enc1(&Instr::Store {
                ty: Ty::Int,
                base: 0,
                idx: Operand::Imm(3),
                src: 1,
            })
        );
    }

    #[test]
    fn golden_ret_and_call_sequences() {
        assert_eq!(
            enc1(&Instr::Ret { src: Some(0) }),
            hex(
                "498B86 00000000 49894720 418A8D 00000000 41884F28 41C6473001 \
                 31C0 415F415E415DC3"
            )
        );
        assert_eq!(
            enc1(&Instr::Ret { src: None }),
            hex("41C6473000 31C0 415F415E415DC3")
        );
        assert_eq!(
            enc1(&Instr::CallHost {
                f: HostFn::Cos,
                dst: Some(0),
                args: vec![1],
            }),
            hex("4C89FF BE 00000000 41FF5740 85C0 7407 415F415E415DC3")
        );
    }

    #[test]
    fn branch_rel32_forward_and_backward() {
        // [0] Jmp → 1  (forward, rel = 0: lands right after the rel32)
        // [1] Jmp → 0  (backward)
        // [2] Ret
        let code = vec![
            Instr::Jmp { target: 1 },
            Instr::Jmp { target: 0 },
            Instr::Ret { src: None },
        ];
        let mut e = FnEncoder::new();
        for i in &code {
            e.emit(i);
        }
        let art = e.finish(&code).unwrap();
        let b = &art.bytes;
        let p = PROLOGUE_LEN;
        assert_eq!(b[p], 0xE9);
        let rel0 = i32::from_le_bytes(b[p + 1..p + 5].try_into().unwrap());
        assert_eq!(rel0, 0, "jump to the next instruction");
        assert_eq!(b[p + 5], 0xE9);
        let rel1 = i32::from_le_bytes(b[p + 6..p + 10].try_into().unwrap());
        assert_eq!(rel1, -10, "back over both 5-byte jumps");
    }

    #[test]
    fn branch_to_one_past_the_end_hits_the_fell_off_stub() {
        // Brz → 2 with only 2 instructions: falls into the stub, which
        // reports STATUS_FELL_OFF (the interpreter's PcOutOfRange).
        let code = vec![Instr::Brz { cond: 0, target: 2 }, Instr::Ret { src: None }];
        let mut e = FnEncoder::new();
        for i in &code {
            e.emit(i);
        }
        let art = e.finish(&code).unwrap();
        // The stub is the last 12 bytes: mov eax, 4; pop×3; ret.
        let n = art.bytes.len();
        assert_eq!(&art.bytes[n - 12..], &hex("B8 04000000 415F415E415DC3")[..]);
        // An out-of-range target (beyond end+1) refuses to lower.
        let bad = vec![Instr::Jmp { target: 9 }, Instr::Ret { src: None }];
        let mut e = FnEncoder::new();
        for i in &bad {
            e.emit(i);
        }
        assert!(e.finish(&bad).is_none());
    }

    #[test]
    fn halt_is_unsupported() {
        let mut e = FnEncoder::new();
        e.emit(&Instr::Halt);
        assert!(e.unsupported());
        assert!(e.finish(&[Instr::Halt]).is_none());
    }

    /// Every prelowerable shape: (canonical instance, different-field
    /// instance). The second must patch to exactly what a plain encode
    /// produces.
    fn shape_samples() -> Vec<(Instr, Instr)> {
        let mut v: Vec<(Instr, Instr)> = vec![
            (
                Instr::MovI { dst: 0, imm: 1 },
                Instr::MovI { dst: 5, imm: -77 },
            ),
            (
                Instr::MovF { dst: 0, imm: 1.0 },
                Instr::MovF { dst: 4, imm: -0.5 },
            ),
            (Instr::Mov { dst: 0, src: 1 }, Instr::Mov { dst: 7, src: 3 }),
            (
                Instr::FMov { dst: 0, src: 1 },
                Instr::FMov { dst: 2, src: 9 },
            ),
            (
                Instr::Un {
                    op: UnOp::FToI,
                    dst: 0,
                    src: 1,
                },
                Instr::Un {
                    op: UnOp::FToI,
                    dst: 3,
                    src: 8,
                },
            ),
        ];
        for op in [
            IAluOp::Add,
            IAluOp::Sub,
            IAluOp::Mul,
            IAluOp::Div,
            IAluOp::Rem,
            IAluOp::And,
            IAluOp::Or,
            IAluOp::Xor,
            IAluOp::Shl,
            IAluOp::Shr,
        ] {
            v.push((
                Instr::IAlu {
                    op,
                    dst: 0,
                    a: 1,
                    b: Operand::Reg(2),
                },
                Instr::IAlu {
                    op,
                    dst: 6,
                    a: 4,
                    b: Operand::Reg(9),
                },
            ));
            v.push((
                Instr::IAlu {
                    op,
                    dst: 0,
                    a: 1,
                    b: Operand::Imm(2),
                },
                Instr::IAlu {
                    op,
                    dst: 3,
                    a: 7,
                    b: Operand::Imm(-123456789),
                },
            ));
        }
        for op in [FAluOp::Add, FAluOp::Sub, FAluOp::Mul, FAluOp::Div] {
            v.push((
                Instr::FAlu {
                    op,
                    dst: 0,
                    a: 1,
                    b: 2,
                },
                Instr::FAlu {
                    op,
                    dst: 5,
                    a: 6,
                    b: 7,
                },
            ));
        }
        for cc in [Cc::Eq, Cc::Ne, Cc::Lt, Cc::Le, Cc::Gt, Cc::Ge] {
            v.push((
                Instr::ICmp {
                    cc,
                    dst: 0,
                    a: 1,
                    b: Operand::Reg(2),
                },
                Instr::ICmp {
                    cc,
                    dst: 8,
                    a: 2,
                    b: Operand::Reg(5),
                },
            ));
            v.push((
                Instr::ICmp {
                    cc,
                    dst: 0,
                    a: 1,
                    b: Operand::Imm(0),
                },
                Instr::ICmp {
                    cc,
                    dst: 1,
                    a: 9,
                    b: Operand::Imm(i64::MIN),
                },
            ));
            v.push((
                Instr::FCmp {
                    cc,
                    dst: 0,
                    a: 1,
                    b: 2,
                },
                Instr::FCmp {
                    cc,
                    dst: 4,
                    a: 8,
                    b: 3,
                },
            ));
        }
        for op in [UnOp::NegI, UnOp::NotI, UnOp::NegF, UnOp::IToF] {
            v.push((
                Instr::Un { op, dst: 0, src: 1 },
                Instr::Un { op, dst: 9, src: 2 },
            ));
        }
        for ty in [Ty::Int, Ty::Float] {
            v.push((
                Instr::Load {
                    ty,
                    dst: 0,
                    base: 1,
                    idx: Operand::Reg(2),
                },
                Instr::Load {
                    ty,
                    dst: 5,
                    base: 3,
                    idx: Operand::Reg(7),
                },
            ));
            v.push((
                Instr::Load {
                    ty,
                    dst: 0,
                    base: 1,
                    idx: Operand::Imm(0),
                },
                Instr::Load {
                    ty,
                    dst: 2,
                    base: 8,
                    idx: Operand::Imm(4096),
                },
            ));
            v.push((
                Instr::Store {
                    ty,
                    base: 0,
                    idx: Operand::Reg(1),
                    src: 2,
                },
                Instr::Store {
                    ty,
                    base: 4,
                    idx: Operand::Reg(6),
                    src: 9,
                },
            ));
            v.push((
                Instr::Store {
                    ty,
                    base: 0,
                    idx: Operand::Imm(1),
                    src: 2,
                },
                Instr::Store {
                    ty,
                    base: 3,
                    idx: Operand::Imm(-1),
                    src: 5,
                },
            ));
        }
        v
    }

    #[test]
    fn hole_patch_round_trips_every_shape() {
        for (a, b) in shape_samples() {
            let shape = instr_shape(&a);
            assert_ne!(shape, 0, "{a:?} should be prelowerable");
            assert_eq!(shape, instr_shape(&b), "samples must share a shape");
            let direct = enc1(&b);
            let mut e = FnEncoder::new();
            e.emit(&a); // miss: builds the prebuilt bytes
            let start = e.buf.len();
            e.emit(&b); // hit: memcpy + hole patch
            assert_eq!(e.prelowered_hits(), 1);
            assert_eq!(
                &e.buf[start..],
                &direct[..],
                "patched {b:?} must equal a plain encode"
            );
        }
    }

    #[test]
    fn shapes_are_distinct_across_samples() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for (a, _) in shape_samples() {
            assert!(
                seen.insert(instr_shape(&a)),
                "shape collision at {a:?} — two different encodings share a shape id"
            );
        }
    }

    #[test]
    fn lower_func_counts_registers() {
        let mut cf = CodeFunc::new("t", 1, 8);
        cf.push(Instr::MovI { dst: 6, imm: 3 });
        cf.push(Instr::Ret { src: Some(6) });
        let art = lower_func(&cf).unwrap();
        assert_eq!(art.n_regs, 7);
        assert!(art.calls.is_empty());
        assert!(art.bytes.len() > PROLOGUE_LEN);
    }
}
