//! x86-64/Unix platform backend: executable-memory arena, call-helper
//! seam, and the native executor.
//!
//! # W^X discipline
//!
//! Code pages are mmap'd `PROT_READ|PROT_WRITE`, filled, then flipped
//! to `PROT_READ|PROT_EXEC` before publication. No page is ever
//! writable and executable at once: protection requests go through a
//! two-state machine ([`Prot`]) whose encoding simply has no W+X value,
//! and the `mprotect` wrapper asserts the invariant again at the call
//! site. Appending to a chunk that already holds published code flips
//! it RX→RW→RX; that is safe here because an engine (and so its arena)
//! is owned by one dispatch handler and never mid-execution while
//! installing — a nested install triggered from generated code happens
//! while control is in Rust, and the chunk is executable again before
//! control returns to guest code.
//!
//! Publication issues a sequentially-consistent fence after the RX
//! flip so the store of the entry pointer cannot be reordered before
//! the bytes and protections are visible; on x86-64 the instruction
//! cache is coherent after an mprotect round-trip (the kernel's TLB
//! shootdown serializes), so no explicit cache flush is required.
//!
//! # Executor
//!
//! [`exec_entry`] materializes the register file (`u64` bits + `u8`
//! tags) in pooled thread-local buffers, builds the [`NatCtx`] the
//! generated code addresses off `r15`, and maps the returned status
//! back onto VM semantics — including re-triggering the interpreter's
//! exact out-of-bounds panic and resuming panics that crossed the
//! native frame (unwinding through JIT frames would be undefined
//! behaviour, so helpers catch panics and the executor re-raises them).

use super::encode::{
    CallDesc, NativeArtifact, CTX_CALL, CTX_FAULT, CTX_FTOI, CTX_HAS_RET, CTX_MEM, CTX_MEM_LEN,
    CTX_REGS, CTX_RET_BITS, CTX_RET_TAG, CTX_TAGS, STATUS_DIV0, STATUS_FELL_OFF, STATUS_HELPER,
    STATUS_OK, STATUS_OOB,
};
use super::NativeDispatch;
use dyc_vm::{FuncId, Module, Reg, Value, Vm, VmError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ffi::c_void;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

// Minimal mmap surface, declared by hand: the workspace carries no
// external dependencies, and std already links libc.
extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const PROT_EXEC: i32 = 4;
const MAP_PRIVATE: i32 = 2;
#[cfg(target_os = "linux")]
const MAP_ANONYMOUS: i32 = 0x20;
#[cfg(not(target_os = "linux"))]
const MAP_ANONYMOUS: i32 = 0x1000; // BSD lineage (macOS et al.)

const PAGE: usize = 4096;
const MIN_CHUNK: usize = 64 * PAGE;

/// The only two protection states a code page can be in. There is no
/// W+X variant by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prot {
    /// Readable + writable (filling).
    Rw,
    /// Readable + executable (published).
    Rx,
}

impl Prot {
    fn flags(self) -> i32 {
        match self {
            Prot::Rw => PROT_READ | PROT_WRITE,
            Prot::Rx => PROT_READ | PROT_EXEC,
        }
    }
}

#[derive(Debug)]
struct Chunk {
    base: *mut u8,
    cap: usize,
    len: usize,
    state: Prot,
}

/// Growable executable-memory arena. Chunks never move once mapped, so
/// published entry pointers stay valid for the arena's lifetime.
#[derive(Debug, Default)]
struct Arena {
    chunks: Vec<Chunk>,
}

// The arena is raw memory owned exclusively by its engine; the engine
// lives inside a single dispatch handler, which the concurrent runtime
// moves across threads (ThreadRuntime is Send). Nothing aliases the
// mapping.
unsafe impl Send for Arena {}
// SAFETY: every mutation (install, protect, growth) requires `&mut
// Arena`; through `&Arena` the mapping is only read, and published
// chunks are immutable RX memory behind a release fence.
unsafe impl Sync for Arena {}

impl Arena {
    /// Flip a chunk's protection, enforcing the W^X state machine.
    fn protect(chunk: &mut Chunk, to: Prot) {
        if chunk.state == to {
            return;
        }
        let flags = to.flags();
        // The invariant, restated at the call site: never W and X.
        debug_assert!(
            !(flags & PROT_WRITE != 0 && flags & PROT_EXEC != 0),
            "W^X violation requested"
        );
        let rc = unsafe { mprotect(chunk.base as *mut c_void, chunk.cap, flags) };
        assert_eq!(rc, 0, "mprotect failed on native code arena");
        chunk.state = to;
    }

    /// Copy `bytes` into executable memory and publish them. Returns
    /// the (16-byte aligned) entry pointer, or `None` if the kernel
    /// refuses memory.
    fn install(&mut self, bytes: &[u8]) -> Option<*const u8> {
        let need = (bytes.len() + 15) & !15;
        let idx = match self.chunks.iter().position(|c| c.cap - c.len >= need) {
            Some(i) => i,
            None => {
                let cap = need.max(MIN_CHUNK).next_multiple_of(PAGE);
                let base = unsafe {
                    mmap(
                        std::ptr::null_mut(),
                        cap,
                        Prot::Rw.flags(),
                        MAP_PRIVATE | MAP_ANONYMOUS,
                        -1,
                        0,
                    )
                };
                if base as isize == -1 || base.is_null() {
                    return None;
                }
                self.chunks.push(Chunk {
                    base: base as *mut u8,
                    cap,
                    len: 0,
                    state: Prot::Rw,
                });
                self.chunks.len() - 1
            }
        };
        let chunk = &mut self.chunks[idx];
        Self::protect(chunk, Prot::Rw);
        let at = unsafe { chunk.base.add(chunk.len) };
        unsafe { std::ptr::copy_nonoverlapping(bytes.as_ptr(), at, bytes.len()) };
        chunk.len += need;
        Self::protect(chunk, Prot::Rx);
        // Publication barrier: the entry pointer must not become
        // visible before the code bytes and the RX protection.
        fence(Ordering::SeqCst);
        Some(at as *const u8)
    }

    /// True when every chunk is at rest in the executable state (and,
    /// by the state machine, was never W+X at any point).
    #[cfg(test)]
    fn all_published(&self) -> bool {
        self.chunks.iter().all(|c| c.state == Prot::Rx)
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        for c in &self.chunks {
            unsafe { munmap(c.base as *mut c_void, c.cap) };
        }
    }
}

/// The context struct generated code addresses off `r15`. Field order
/// is ABI: the encoder bakes these offsets in as disp8 (asserted
/// against `offset_of!` below).
#[repr(C)]
struct NatCtx {
    regs: *mut u64,
    tags: *mut u8,
    mem: *mut u64,
    mem_len: u64,
    ret_bits: u64,
    ret_tag: u64,
    has_ret: u64,
    fault_addr: u64,
    call_fn: unsafe extern "C" fn(*mut NatCtx, u32) -> i32,
    ftoi_fn: unsafe extern "C" fn(f64) -> i64,
    env: *mut c_void,
}

const _: () = {
    use std::mem::offset_of;
    assert!(offset_of!(NatCtx, regs) == CTX_REGS as usize);
    assert!(offset_of!(NatCtx, tags) == CTX_TAGS as usize);
    assert!(offset_of!(NatCtx, mem) == CTX_MEM as usize);
    assert!(offset_of!(NatCtx, mem_len) == CTX_MEM_LEN as usize);
    assert!(offset_of!(NatCtx, ret_bits) == CTX_RET_BITS as usize);
    assert!(offset_of!(NatCtx, ret_tag) == CTX_RET_TAG as usize);
    assert!(offset_of!(NatCtx, has_ret) == CTX_HAS_RET as usize);
    assert!(offset_of!(NatCtx, fault_addr) == CTX_FAULT as usize);
    assert!(offset_of!(NatCtx, call_fn) == CTX_CALL as usize);
    assert!(offset_of!(NatCtx, ftoi_fn) == CTX_FTOI as usize);
};

/// Rust-side state reachable from a running native frame (via the
/// type-erased `NatCtx::env` pointer).
struct Env<'a> {
    calls: &'a [CallDesc],
    host: &'a mut dyn NativeDispatch,
    module: &'a mut Module,
    vm: &'a mut Vm,
    /// The argument buffer of this level's calls (a call's arguments are
    /// read before it runs, and a nested entry has an `Env` of its own).
    args: Vec<Value>,
    err: Option<VmError>,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// `Value::F(x) as i64` — Rust cast semantics (saturating, NaN → 0),
/// which `cvttsd2si` does not provide. Cannot panic.
unsafe extern "C" fn helper_ftoi(x: f64) -> i64 {
    x as i64
}

/// Entry point for every `Call`/`CallHost`/`Dispatch` in generated
/// code. Returns a status; panics are caught (unwinding through a JIT
/// frame is UB) and stashed for [`exec_entry`] to resume.
unsafe extern "C" fn helper_call(ctx: *mut NatCtx, idx: u32) -> i32 {
    match catch_unwind(AssertUnwindSafe(|| helper_call_inner(ctx, idx))) {
        Ok(status) => status,
        Err(p) => {
            let env = &mut *((*ctx).env as *mut Env);
            env.panic = Some(p);
            STATUS_HELPER
        }
    }
}

unsafe fn helper_call_inner(ctx: *mut NatCtx, idx: u32) -> i32 {
    let c = &mut *ctx;
    let env = &mut *(c.env as *mut Env);
    let read = |r: Reg| {
        let bits = *c.regs.add(r as usize);
        if *c.tags.add(r as usize) == 0 {
            Value::int_from_bits(bits)
        } else {
            Value::float_from_bits(bits)
        }
    };
    let call = &env.calls[idx as usize];
    let (CallDesc::Host { dst, args, .. }
    | CallDesc::Static { dst, args, .. }
    | CallDesc::Dispatch { dst, args, .. }) = call;
    env.args.clear();
    env.args.extend(args.iter().map(|&r| read(r)));
    let vals = &env.args;
    let result = match call {
        CallDesc::Host { f, .. } => Ok(f.eval(vals, &mut env.vm.output)),
        CallDesc::Static { func, .. } => env.host.native_call(*func, vals, env.module, env.vm),
        CallDesc::Dispatch { point, .. } => {
            env.host.native_dispatch(*point, vals, env.module, env.vm)
        }
    };
    let dst = *dst;
    // Re-entry may have grown guest memory; refresh the pointer the
    // generated bounds checks read.
    c.mem = env.vm.mem.as_mut_ptr();
    c.mem_len = env.vm.mem.len() as u64;
    match result {
        Ok(val) => {
            if let (Some(d), Some(v)) = (dst, val) {
                *c.regs.add(d as usize) = v.to_bits();
                *c.tags.add(d as usize) = !v.is_int() as u8;
            }
            STATUS_OK
        }
        Err(e) => {
            env.err = Some(e);
            STATUS_HELPER
        }
    }
}

/// An installed, published native entry point: code pointer, frame
/// size, and the call table the code indexes. Cheap to clone; the
/// bytes live in the engine's arena for as long as the engine does.
#[derive(Debug, Clone)]
pub struct Entry {
    code: *const u8,
    n_regs: u32,
    calls: Arc<[CallDesc]>,
}

// The code pointer targets immutable (RX) arena memory that outlives
// every Entry clone within the owning runtime; entries travel with
// their (Send) dispatch handler.
unsafe impl Send for Entry {}
// SAFETY: an Entry is an immutable description of published RX memory;
// sharing references cannot race (execution takes `&Entry`).
unsafe impl Sync for Entry {}

/// Owner of the code arena and the `FuncId → Entry` table. One engine
/// per dispatch handler (`Runtime` / `ThreadRuntime`).
#[derive(Debug, Default)]
pub struct NativeEngine {
    arena: Arena,
    entries: HashMap<FuncId, Entry>,
}

impl NativeEngine {
    /// A new engine with no mapped memory (the first install maps it).
    pub fn new() -> NativeEngine {
        NativeEngine::default()
    }

    /// Install a lowered function. Returns the installed byte count,
    /// or `None` (a recorded fallback) when the artifact is absent —
    /// the encoder bailed — or the kernel refuses executable memory.
    pub fn install(&mut self, func: FuncId, art: Option<NativeArtifact>) -> Option<usize> {
        let art = art?;
        let code = self.arena.install(&art.bytes)?;
        let n = art.bytes.len();
        self.entries.insert(
            func,
            Entry {
                code,
                n_regs: art.n_regs,
                calls: art.calls.into(),
            },
        );
        Some(n)
    }

    /// The published entry for `func`, if one was installed. Returns an
    /// owned clone so the caller can execute it while re-borrowing the
    /// runtime mutably.
    pub fn entry(&self, func: FuncId) -> Option<Entry> {
        self.entries.get(&func).cloned()
    }

    /// Forget `func`'s entry: its id is about to be freed and may be
    /// reused by code whose lowering falls back. The machine code stays
    /// in the arena (whose bytes are never reused), so an entry already
    /// cloned by a running call stays valid.
    pub fn remove(&mut self, func: FuncId) {
        self.entries.remove(&func);
    }

    /// Number of installed functions.
    pub fn installed(&self) -> usize {
        self.entries.len()
    }

    /// W^X invariant probe for tests: every chunk at rest is RX.
    #[cfg(test)]
    fn wx_at_rest(&self) -> bool {
        self.arena.all_published()
    }
}

thread_local! {
    /// Register, tag and call-argument buffer pool. A pool (rather than
    /// one set) because native execution re-enters through calls and
    /// dispatches: a nested `exec_entry` pops its own set.
    static POOL: RefCell<Vec<Buffers>> = const { RefCell::new(Vec::new()) };
}

/// One nesting level's buffers: registers, their tags, and the
/// arguments of the calls its code makes.
type Buffers = (Vec<u64>, Vec<u8>, Vec<Value>);

/// Execute a published native entry with VM call semantics: arguments
/// into registers `0..n`, result from the context's return slot, VM
/// errors (and guest panics) reproduced exactly as the interpreter
/// would raise them.
pub fn exec_entry(
    entry: &Entry,
    args: &[Value],
    host: &mut dyn NativeDispatch,
    module: &mut Module,
    vm: &mut Vm,
) -> Result<Option<Value>, VmError> {
    let n = (entry.n_regs as usize).max(args.len()).max(1);
    let (mut regs, mut tags, args_buf) = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    regs.clear();
    regs.resize(n, 0);
    tags.clear();
    tags.resize(n, 0);
    for (i, a) in args.iter().enumerate() {
        regs[i] = a.to_bits();
        tags[i] = !a.is_int() as u8;
    }
    let mut env = Env {
        calls: &entry.calls,
        host,
        module,
        vm,
        args: args_buf,
        err: None,
        panic: None,
    };
    let mut ctx = NatCtx {
        regs: regs.as_mut_ptr(),
        tags: tags.as_mut_ptr(),
        mem: env.vm.mem.as_mut_ptr(),
        mem_len: env.vm.mem.len() as u64,
        ret_bits: 0,
        ret_tag: 0,
        has_ret: 0,
        fault_addr: 0,
        call_fn: helper_call,
        ftoi_fn: helper_ftoi,
        env: &mut env as *mut Env as *mut c_void,
    };
    // SAFETY: `entry.code` points at published (RX) bytes produced by
    // the encoder for exactly this calling convention; the context
    // outlives the call; helpers never unwind across the frame.
    let status = {
        let f: unsafe extern "C" fn(*mut NatCtx) -> i32 =
            unsafe { std::mem::transmute(entry.code) };
        unsafe { f(&mut ctx) }
    };
    let args_buf = std::mem::take(&mut env.args);
    POOL.with(|p| p.borrow_mut().push((regs, tags, args_buf)));
    match status {
        STATUS_OK => Ok(if ctx.has_ret != 0 {
            Some(if ctx.ret_tag == 0 {
                Value::int_from_bits(ctx.ret_bits)
            } else {
                Value::float_from_bits(ctx.ret_bits)
            })
        } else {
            None
        }),
        STATUS_DIV0 => Err(VmError::DivideByZero),
        STATUS_OOB => Err(VmError::OutOfBounds(ctx.fault_addr as i64)),
        STATUS_HELPER => {
            if let Some(p) = env.panic.take() {
                resume_unwind(p);
            }
            Err(env.err.take().expect("helper failure recorded no error"))
        }
        STATUS_FELL_OFF => Err(VmError::PcOutOfRange),
        s => unreachable!("native code returned unknown status {s}"),
    }
}

#[cfg(test)]
mod tests {
    use super::super::encode::lower_func;
    use super::*;
    use dyc_vm::{Cc, CodeFunc, CostModel, IAluOp, Instr, Operand, Ty, UnOp};

    /// A host that refuses all re-entry (for leaf functions).
    struct NoCalls;
    impl NativeDispatch for NoCalls {
        fn native_dispatch(
            &mut self,
            _point: u32,
            _args: &[Value],
            _module: &mut Module,
            _vm: &mut Vm,
        ) -> Result<Option<Value>, VmError> {
            Err(VmError::Dispatch("no re-entry in this test".into()))
        }
        fn native_call(
            &mut self,
            _func: FuncId,
            _args: &[Value],
            _module: &mut Module,
            _vm: &mut Vm,
        ) -> Result<Option<Value>, VmError> {
            Err(VmError::Dispatch("no re-entry in this test".into()))
        }
    }

    fn run(cf: CodeFunc, args: &[Value]) -> Result<Option<Value>, VmError> {
        let mut engine = NativeEngine::new();
        let mut module = Module::new();
        let art = lower_func(&cf);
        let fid = module.add_func(cf);
        engine.install(fid, art).expect("installable");
        assert!(engine.wx_at_rest(), "W^X: chunk left writable");
        let entry = engine.entry(fid).unwrap();
        let mut vm = Vm::new(CostModel::alpha21164());
        exec_entry(&entry, args, &mut NoCalls, &mut module, &mut vm)
    }

    #[test]
    fn executes_arithmetic_natively() {
        let mut cf = CodeFunc::new("add", 2, 4);
        cf.push(Instr::IAlu {
            op: IAluOp::Add,
            dst: 2,
            a: 0,
            b: Operand::Reg(1),
        });
        cf.push(Instr::IAlu {
            op: IAluOp::Mul,
            dst: 3,
            a: 2,
            b: Operand::Imm(3),
        });
        cf.push(Instr::Ret { src: Some(3) });
        assert_eq!(run(cf, &[Value::I(5), Value::I(9)]), Ok(Some(Value::I(42))));
    }

    #[test]
    fn float_compare_and_branch_match_vm_truthiness() {
        // r2 = (r0 < r1); if r2 { ret 1.0 } else { ret 0.0 }
        let mut cf = CodeFunc::new("fcmp", 2, 3);
        cf.push(Instr::FCmp {
            cc: Cc::Lt,
            dst: 2,
            a: 0,
            b: 1,
        });
        cf.push(Instr::Brz { cond: 2, target: 4 });
        cf.push(Instr::MovF { dst: 2, imm: 1.0 });
        cf.push(Instr::Ret { src: Some(2) });
        cf.push(Instr::MovF { dst: 2, imm: 0.0 });
        cf.push(Instr::Ret { src: Some(2) });
        let lt = |a: f64, b: f64| run(cf.clone(), &[Value::F(a), Value::F(b)]).unwrap();
        assert_eq!(lt(1.0, 2.0), Some(Value::F(1.0)));
        assert_eq!(lt(2.0, 1.0), Some(Value::F(0.0)));
        assert_eq!(lt(f64::NAN, 1.0), Some(Value::F(0.0)), "NaN is unordered");
    }

    #[test]
    fn division_by_zero_maps_to_vm_error() {
        let mut cf = CodeFunc::new("div", 2, 3);
        cf.push(Instr::IAlu {
            op: IAluOp::Div,
            dst: 2,
            a: 0,
            b: Operand::Reg(1),
        });
        cf.push(Instr::Ret { src: Some(2) });
        assert_eq!(
            run(cf.clone(), &[Value::I(7), Value::I(0)]),
            Err(VmError::DivideByZero)
        );
        // And the i64::MIN / -1 idiv trap is defused to wrapping.
        assert_eq!(
            run(cf, &[Value::I(i64::MIN), Value::I(-1)]),
            Ok(Some(Value::I(i64::MIN)))
        );
    }

    #[test]
    fn ftoi_saturates_like_rust() {
        let mut cf = CodeFunc::new("ftoi", 1, 2);
        cf.push(Instr::Un {
            op: UnOp::FToI,
            dst: 1,
            src: 0,
        });
        cf.push(Instr::Ret { src: Some(1) });
        assert_eq!(
            run(cf.clone(), &[Value::F(1e300)]),
            Ok(Some(Value::I(i64::MAX)))
        );
        assert_eq!(run(cf, &[Value::F(f64::NAN)]), Ok(Some(Value::I(0))));
    }

    #[test]
    fn out_of_bounds_load_is_an_error_like_the_interpreter() {
        let mut cf = CodeFunc::new("oob", 1, 2);
        cf.push(Instr::Load {
            ty: Ty::Int,
            dst: 1,
            base: 0,
            idx: Operand::Imm(0),
        });
        cf.push(Instr::Ret { src: Some(1) });
        // Empty guest memory: every address is out of bounds.
        for addr in [5, -1] {
            assert_eq!(
                run(cf.clone(), &[Value::I(addr)]),
                Err(VmError::OutOfBounds(addr))
            );
        }
    }

    #[test]
    fn memory_roundtrip_through_native_store_and_load() {
        let mut cf = CodeFunc::new("mem", 2, 4);
        cf.push(Instr::Store {
            ty: Ty::Int,
            base: 0,
            idx: Operand::Imm(1),
            src: 1,
        });
        cf.push(Instr::Load {
            ty: Ty::Int,
            dst: 2,
            base: 0,
            idx: Operand::Imm(1),
        });
        cf.push(Instr::Ret { src: Some(2) });
        let mut engine = NativeEngine::new();
        let mut module = Module::new();
        let art = lower_func(&cf);
        let fid = module.add_func(cf);
        engine.install(fid, art).unwrap();
        let entry = engine.entry(fid).unwrap();
        let mut vm = Vm::new(CostModel::alpha21164());
        let base = vm.mem.alloc(8);
        let out = exec_entry(
            &entry,
            &[Value::I(base), Value::I(777)],
            &mut NoCalls,
            &mut module,
            &mut vm,
        )
        .unwrap();
        assert_eq!(out, Some(Value::I(777)));
        assert_eq!(vm.mem.read_int(base + 1), 777);
    }

    #[test]
    fn arena_reuses_and_grows_without_wx_windows() {
        let mut engine = NativeEngine::new();
        let mut module = Module::new();
        let mut fids = Vec::new();
        for i in 0..40 {
            let mut cf = CodeFunc::new(format!("f{i}"), 1, 2);
            cf.push(Instr::IAlu {
                op: IAluOp::Add,
                dst: 1,
                a: 0,
                b: Operand::Imm(i),
            });
            cf.push(Instr::Ret { src: Some(1) });
            let art = lower_func(&cf);
            let fid = module.add_func(cf);
            assert!(engine.install(fid, art).is_some());
            assert!(engine.wx_at_rest(), "install {i} left a writable chunk");
            fids.push(fid);
        }
        assert_eq!(engine.installed(), 40);
        // Earlier entries still execute after later installs flipped
        // their chunk RX→RW→RX.
        let mut vm = Vm::new(CostModel::alpha21164());
        for (i, fid) in fids.iter().enumerate() {
            let entry = engine.entry(*fid).unwrap();
            let out = exec_entry(&entry, &[Value::I(100)], &mut NoCalls, &mut module, &mut vm);
            assert_eq!(out, Ok(Some(Value::I(100 + i as i64))));
        }
    }

    #[test]
    fn host_calls_reenter_rust() {
        use dyc_vm::HostFn;
        let mut cf = CodeFunc::new("sqrt", 1, 2);
        cf.push(Instr::CallHost {
            f: HostFn::Sqrt,
            dst: Some(1),
            args: vec![0],
        });
        cf.push(Instr::Ret { src: Some(1) });
        assert_eq!(run(cf, &[Value::F(9.0)]), Ok(Some(Value::F(3.0))));
    }
}
