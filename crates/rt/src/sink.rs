//! The `CodeSink` backend abstraction of the emit pipeline.
//!
//! The shared emitter (`crate::emitter`) is the single place both specialization
//! paths construct instructions, but *where those instructions land* is a
//! backend decision: the VM wants a plain `Vec<Instr>` it can install as a
//! [`dyc_vm::CodeFunc`], the cache-persistence layer wants a
//! self-contained [`crate::artifact::CodeArtifact`] carrying unit labels,
//! resolved fixups, and template-hole descriptors, and tests want a raw
//! operation log to assert that emission is sink-agnostic. This module
//! factors that decision behind the [`CodeSink`] trait: the emitter keeps
//! all value-dependent work (register allocation, renames, folds, the
//! dead-assignment sweep, cycle metering) and writes only *final* data —
//! sealed instructions and resolved branch targets — through the sink.
//!
//! Three implementations:
//!
//! * [`VmSink`] — today's behavior, byte-identical: an append-only
//!   `Vec<Instr>` with in-place branch patching.
//! * [`crate::artifact::ArtifactSink`] — additionally records unit
//!   boundaries, fixups, and per-instruction hole counts, producing a
//!   serializable artifact.
//! * [`RecordingSink`] — logs every sink call verbatim for tests.
//!
//! The module also hosts the FNV-1a constants and hasher: artifacts are
//! fingerprinted with [`fnv1a`], and the emitter's unit-key interner
//! folds its key words with the same constants (the function the
//! concurrent shard selector and `dyc-obs` key hashing use).

use dyc_vm::Instr;

/// Where the emitter's sealed instructions land.
///
/// The emitter resolves everything before calling in: `push` receives the
/// final instruction (holes already patched), and `patch_branch` receives
/// the final target offset. A sink therefore never needs to understand
/// labels, units, or fixup keys — `begin_unit` exists only so artifact
/// backends can record unit boundaries.
pub trait CodeSink {
    /// Number of instructions emitted so far (the next push's offset).
    fn emitted(&self) -> usize;

    /// A unit seal is starting: unit `id` begins at instruction offset
    /// `label`. Purely informational; `VmSink` ignores it.
    fn begin_unit(&mut self, id: u32, label: u32);

    /// Append one instruction. `templated` marks a copy-and-patch
    /// template copy and `patches` the number of holes patched into it —
    /// metadata the artifact backend records as hole descriptors.
    fn push(&mut self, ins: Instr, templated: bool, patches: u16);

    /// [`CodeSink::push`] plus the instruction's pre-computed
    /// [`dyc_vm::instr_shape`] (`0` when unknown). Sinks that lower to
    /// machine bytes use the shape to reuse prebuilt encodings; every
    /// other sink ignores it, so the default forwards to `push`.
    fn push_shaped(&mut self, ins: Instr, templated: bool, patches: u16, shape: u16) {
        let _ = shape;
        self.push(ins, templated, patches);
    }

    /// Resolve the branch at instruction offset `at` to `target`.
    fn patch_branch(&mut self, at: usize, target: u32);
}

/// The default sink: instructions land in a plain vector, branches are
/// patched in place. Byte-identical to the pre-`CodeSink` emitter.
#[derive(Debug, Default)]
pub struct VmSink {
    /// The emitted instructions, install-ready for a [`dyc_vm::CodeFunc`].
    pub code: Vec<Instr>,
}

impl CodeSink for VmSink {
    fn emitted(&self) -> usize {
        self.code.len()
    }

    fn begin_unit(&mut self, _id: u32, _label: u32) {}

    fn push(&mut self, ins: Instr, _templated: bool, _patches: u16) {
        self.code.push(ins);
    }

    fn patch_branch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Instr::Jmp { target: t }
            | Instr::Brz { target: t, .. }
            | Instr::Brnz { target: t, .. } => {
                *t = target;
            }
            other => unreachable!("fixup on non-branch {other:?}"),
        }
    }
}

/// A [`VmSink`] that *also* lowers every sealed instruction to x86-64
/// bytes as it lands, via the copy-and-patch
/// [`FnEncoder`](crate::native::FnEncoder). The instruction mirror
/// stays authoritative: branch patches touch only the mirror, and
/// [`NativeSink::finish`] resolves the machine-code rel32s from the
/// mirror's final targets. If the encoder hits an unsupported
/// construct the mirror is still complete, so the caller installs the
/// VM function and records a native fallback.
#[derive(Debug, Default)]
pub struct NativeSink {
    /// The emitted instructions (identical to what a [`VmSink`] would
    /// hold after the same calls).
    pub code: Vec<Instr>,
    enc: crate::native::FnEncoder,
}

impl NativeSink {
    /// Consume the sink: the install-ready instruction vector plus the
    /// lowered machine code (`None` if anything was unsupported).
    pub fn finish(self) -> (Vec<Instr>, Option<crate::native::NativeArtifact>) {
        let NativeSink { code, enc } = self;
        let art = enc.finish(&code);
        (code, art)
    }
}

impl CodeSink for NativeSink {
    fn emitted(&self) -> usize {
        self.code.len()
    }

    fn begin_unit(&mut self, _id: u32, _label: u32) {}

    fn push(&mut self, ins: Instr, templated: bool, patches: u16) {
        self.push_shaped(ins, templated, patches, 0);
    }

    fn push_shaped(&mut self, ins: Instr, _templated: bool, _patches: u16, shape: u16) {
        self.enc.emit(&ins, shape);
        self.code.push(ins);
    }

    fn patch_branch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Instr::Jmp { target: t }
            | Instr::Brz { target: t, .. }
            | Instr::Brnz { target: t, .. } => {
                *t = target;
            }
            other => unreachable!("fixup on non-branch {other:?}"),
        }
    }
}

/// The sink the specialization executors actually instantiate: a
/// [`VmSink`] by default, upgraded to a [`NativeSink`] when
/// `OptConfig::native` asks for machine code. An enum (rather than a
/// generic parameter on the executor) so the choice can be made per
/// dispatch at run time without monomorphizing the GE interpreter
/// twice.
#[derive(Debug)]
pub enum InstallSink {
    /// Plain VM emission.
    Vm(VmSink),
    /// VM emission plus native lowering.
    Native(NativeSink),
}

impl Default for InstallSink {
    fn default() -> Self {
        InstallSink::Vm(VmSink::default())
    }
}

impl InstallSink {
    /// Consume the sink: the instruction vector plus the native
    /// artifact (always `None` on the VM variant).
    pub fn take_install(self) -> (Vec<Instr>, Option<crate::native::NativeArtifact>) {
        match self {
            InstallSink::Vm(s) => (s.code, None),
            InstallSink::Native(s) => s.finish(),
        }
    }
}

impl CodeSink for InstallSink {
    fn emitted(&self) -> usize {
        match self {
            InstallSink::Vm(s) => s.emitted(),
            InstallSink::Native(s) => s.emitted(),
        }
    }

    fn begin_unit(&mut self, id: u32, label: u32) {
        match self {
            InstallSink::Vm(s) => s.begin_unit(id, label),
            InstallSink::Native(s) => s.begin_unit(id, label),
        }
    }

    fn push(&mut self, ins: Instr, templated: bool, patches: u16) {
        match self {
            InstallSink::Vm(s) => s.push(ins, templated, patches),
            InstallSink::Native(s) => s.push(ins, templated, patches),
        }
    }

    fn push_shaped(&mut self, ins: Instr, templated: bool, patches: u16, shape: u16) {
        match self {
            InstallSink::Vm(s) => s.push_shaped(ins, templated, patches, shape),
            InstallSink::Native(s) => s.push_shaped(ins, templated, patches, shape),
        }
    }

    fn patch_branch(&mut self, at: usize, target: u32) {
        match self {
            InstallSink::Vm(s) => s.patch_branch(at, target),
            InstallSink::Native(s) => s.patch_branch(at, target),
        }
    }
}

/// One recorded sink call (see [`RecordingSink`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SinkOp {
    /// `begin_unit(id, label)`.
    Begin(u32, u32),
    /// `push(ins, templated, patches)`.
    Push(Instr, bool, u16),
    /// `patch_branch(at, target)`.
    Patch(usize, u32),
}

/// A sink that logs every call verbatim — used by tests to assert the
/// emitter drives every backend identically (sink-agnostic emission).
#[derive(Debug, Default)]
pub struct RecordingSink {
    /// The call log, in order.
    pub ops: Vec<SinkOp>,
    emitted: usize,
}

impl RecordingSink {
    /// Replay the log into a fresh code vector, reproducing exactly what a
    /// [`VmSink`] would hold after the same calls.
    pub fn replay(&self) -> Vec<Instr> {
        let mut vm = VmSink::default();
        for op in &self.ops {
            match op {
                SinkOp::Begin(id, label) => vm.begin_unit(*id, *label),
                SinkOp::Push(ins, t, p) => vm.push(ins.clone(), *t, *p),
                SinkOp::Patch(at, target) => vm.patch_branch(*at, *target),
            }
        }
        vm.code
    }
}

impl CodeSink for RecordingSink {
    fn emitted(&self) -> usize {
        self.emitted
    }

    fn begin_unit(&mut self, id: u32, label: u32) {
        self.ops.push(SinkOp::Begin(id, label));
    }

    fn push(&mut self, ins: Instr, templated: bool, patches: u16) {
        self.ops.push(SinkOp::Push(ins, templated, patches));
        self.emitted += 1;
    }

    fn patch_branch(&mut self, at: usize, target: u32) {
        self.ops.push(SinkOp::Patch(at, target));
    }
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a over arbitrary bytes.
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
}

/// One-shot FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    use std::hash::Hasher as _;
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_sink_appends_and_patches_in_place() {
        let mut s = VmSink::default();
        s.push(Instr::MovI { dst: 0, imm: 7 }, false, 0);
        s.push(Instr::Jmp { target: u32::MAX }, true, 2);
        assert_eq!(s.emitted(), 2);
        s.patch_branch(1, 0);
        assert_eq!(s.code[1], Instr::Jmp { target: 0 });
    }

    #[test]
    #[should_panic(expected = "non-branch")]
    fn vm_sink_rejects_patching_non_branches() {
        let mut s = VmSink::default();
        s.push(Instr::Halt, false, 0);
        s.patch_branch(0, 3);
    }

    #[test]
    fn recording_sink_replays_to_vm_code() {
        let mut r = RecordingSink::default();
        r.begin_unit(0, 0);
        r.push(Instr::MovI { dst: 1, imm: 4 }, false, 0);
        r.push(
            Instr::Brnz {
                cond: 1,
                target: u32::MAX,
            },
            false,
            0,
        );
        r.patch_branch(1, 0);
        assert_eq!(r.emitted(), 2);
        assert_eq!(
            r.replay(),
            vec![
                Instr::MovI { dst: 1, imm: 4 },
                Instr::Brnz { cond: 1, target: 0 },
            ]
        );
    }

    #[test]
    fn native_sink_mirror_matches_vm_sink_and_lowers() {
        use dyc_vm::{instr_shape, IAluOp, Operand};
        let prog: Vec<Instr> = vec![
            Instr::MovI { dst: 1, imm: 4 },
            Instr::IAlu {
                op: IAluOp::Add,
                dst: 1,
                a: 1,
                b: Operand::Imm(1),
            },
            Instr::Brnz {
                cond: 1,
                target: u32::MAX,
            },
            Instr::Ret { src: Some(1) },
        ];
        let mut vm = VmSink::default();
        let mut native = NativeSink::default();
        for ins in &prog {
            let shape = instr_shape(ins);
            vm.push_shaped(ins.clone(), false, 0, shape);
            native.push_shaped(ins.clone(), false, 0, shape);
        }
        vm.patch_branch(2, 1);
        native.patch_branch(2, 1);
        let (code, art) = native.finish();
        assert_eq!(code, vm.code, "mirror must be byte-identical to VmSink");
        let art = art.expect("fully supported program must lower");
        assert!(art.calls.is_empty());
        assert_eq!(art.n_regs, 2);
        // InstallSink default is the plain VM path.
        let (code2, art2) = InstallSink::default().take_install();
        assert!(code2.is_empty() && art2.is_none());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Known FNV-1a test vectors.
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
