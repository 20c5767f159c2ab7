//! The VM interpreter.
//!
//! Executes [`Module`] code under the cycle cost model, optionally
//! simulating the L1 I-cache. The [`DispatchHandler`] trait is the seam
//! between running code and the run-time system: a
//! [`Instr::Dispatch`](crate::isa::Instr) instruction hands
//! control to the handler, which looks up (or generates) specialized code
//! and names the function to invoke. The handler receives `&mut Vm` and
//! `&mut Module`, so a dynamic compiler can execute *static calls* by
//! re-entering [`Vm::call`] and can install freshly generated functions —
//! exactly the capabilities DyC's generating extensions have.

use crate::cost::CostModel;
#[cfg(test)]
use crate::host::HostFn;
use crate::icache::ICache;
use crate::isa::{Cc, FAluOp, IAluOp, Instr, Operand, Reg, UnOp};
use crate::mem::Mem;
use crate::module::{CodeFunc, FuncId, Module};
use crate::stats::ExecStats;
use crate::value::Value;
use std::error::Error;
use std::fmt;

/// Errors surfaced while executing guest code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// Integer division by zero in guest code.
    DivideByZero,
    /// The step budget was exhausted (runaway guest loop).
    StepLimit,
    /// A `Dispatch` instruction executed but no handler was supplied.
    NoDispatchHandler,
    /// The dispatch handler failed (message from the run-time system).
    Dispatch(String),
    /// `pc` ran off the end of a function (missing terminator).
    PcOutOfRange,
    /// A guest load or store addressed a word outside data memory.
    OutOfBounds(i64),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::DivideByZero => write!(f, "integer division by zero"),
            VmError::StepLimit => write!(f, "step limit exceeded"),
            VmError::NoDispatchHandler => {
                write!(f, "dispatch executed without a run-time system attached")
            }
            VmError::Dispatch(m) => write!(f, "dispatch failed: {m}"),
            VmError::PcOutOfRange => write!(f, "pc out of range (missing terminator)"),
            VmError::OutOfBounds(addr) => write!(f, "memory address {addr} out of bounds"),
        }
    }
}

impl Error for VmError {}

/// What the run-time system decided at a dispatch point.
#[derive(Debug, Clone, PartialEq)]
pub enum DispatchOutcome {
    /// Invoke this function with the arguments the handler wrote into
    /// `out_args`; its return value becomes the `Dispatch` instruction's
    /// result.
    Invoke { func: FuncId },
    /// The handler already executed the specialized code itself (the
    /// native backend does this) and `value` is what the call returned;
    /// the interpreter writes it to the `Dispatch` destination register
    /// and continues without pushing a frame.
    Completed { value: Option<Value> },
}

/// The run-time system's hook into the interpreter.
pub trait DispatchHandler {
    /// Handle the dispatch at `point` with the given live values.
    ///
    /// `out_args` arrives empty; the handler appends the arguments for
    /// the function it names in the outcome. The buffer is owned and
    /// reused by the interpreter's run loop, so a steady-state dispatch
    /// performs no heap allocation.
    ///
    /// The handler must charge its own cycles into `vm.stats`
    /// (`dispatch_cycles` for the lookup, `dyncomp_cycles` for any
    /// specialization work) and may install new functions into `module`.
    ///
    /// # Errors
    ///
    /// Returns an error if specialization fails; the VM aborts the run.
    fn dispatch(
        &mut self,
        point: u32,
        args: &[Value],
        out_args: &mut Vec<Value>,
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<DispatchOutcome, VmError>;
}

/// The virtual machine: data memory, cost accounting, I-cache model and
/// output buffer. Code lives in a [`Module`] passed to [`Vm::call`], so the
/// run-time system can grow the module while the VM runs.
#[derive(Debug)]
pub struct Vm {
    cost: CostModel,
    /// Data memory (word addressed).
    pub mem: Mem,
    /// I-cache model; `None` simulates a perfect cache.
    pub icache: Option<ICache>,
    /// Accumulated counters.
    pub stats: ExecStats,
    /// Values printed by the guest (the observable output).
    pub output: Vec<Value>,
    max_steps: u64,
    /// The run loop's stacks and argument buffers, persisted across runs
    /// so a steady-state call or dispatch never touches the heap.
    stacks: Stacks,
    /// Outermost runs started so far (see [`Vm::current_run`]).
    runs: u64,
    /// Runs in progress: 1 inside an outermost run, more while native
    /// code re-enters the interpreter.
    depth: u32,
}

/// One activation: a window `regs[base..]` on the register stack (the
/// active frame's window is always the top of the stack).
#[derive(Debug)]
struct Frame {
    func: FuncId,
    pc: u32,
    base: usize,
    /// Where the caller wants the return value.
    ret_dst: Option<Reg>,
}

/// What a run borrows from the VM for its duration and hands back: the
/// register stack shared by all frames, the frame stack, and the argument
/// buffers of `Call`/`CallHost`/`Dispatch` (`call`) and of the function a
/// dispatch names (`disp`).
#[derive(Debug, Default)]
struct Stacks {
    regs: Vec<Value>,
    frames: Vec<Frame>,
    call: Vec<Value>,
    disp: Vec<Value>,
}

/// Why the inner loop handed control back to the frame loop.
enum Exit {
    /// `Call`; the arguments are in the `call` buffer.
    Call {
        func: FuncId,
        dst: Option<Reg>,
    },
    /// `Dispatch`; the arguments are in the `call` buffer.
    Dispatch {
        point: u32,
        dst: Option<Reg>,
    },
    Ret(Option<Value>),
    Halt,
}

impl Vm {
    /// A VM with the given cost model and the 21164 I-cache.
    pub fn new(cost: CostModel) -> Vm {
        Vm {
            cost,
            mem: Mem::new(),
            icache: Some(ICache::alpha21164()),
            stats: ExecStats::new(),
            output: Vec::new(),
            max_steps: u64::MAX,
            stacks: Stacks::default(),
            runs: 0,
            depth: 0,
        }
    }

    /// A VM with a perfect I-cache (unit tests, semantics-only runs).
    pub fn without_icache(cost: CostModel) -> Vm {
        let mut vm = Vm::new(cost);
        vm.icache = None;
        vm
    }

    /// Limit the number of executed instructions (guards tests against
    /// runaway guest loops).
    pub fn set_step_limit(&mut self, steps: u64) {
        self.max_steps = steps;
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The number of the outermost run in progress (or of the last one):
    /// 1 for the first. A run nested in another — native code re-entering
    /// the interpreter through its dispatch handler — keeps the number of
    /// the run it is nested in.
    ///
    /// No frame survives from one outermost run into the next, and a run
    /// holds its handler mutably throughout, so a handler may free code it
    /// unbound during run *r* once it is dispatching in any other run.
    pub fn current_run(&self) -> u64 {
        self.runs
    }

    /// Invalidate the I-cache (called by the run-time system after
    /// installing code, modeling `imb` on the Alpha).
    pub fn flush_icache(&mut self) {
        if let Some(c) = &mut self.icache {
            c.flush();
        }
    }

    /// Run `func` with `args`; `Dispatch` instructions are errors.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised by guest code.
    pub fn call(
        &mut self,
        module: &mut Module,
        func: FuncId,
        args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        self.run(module, None, func, args)
    }

    /// Run `func` with `args` under a run-time system.
    ///
    /// # Errors
    ///
    /// Any [`VmError`] raised by guest code or the handler.
    pub fn call_with_handler(
        &mut self,
        module: &mut Module,
        handler: &mut dyn DispatchHandler,
        func: FuncId,
        args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        self.run(module, Some(handler), func, args)
    }

    fn run(
        &mut self,
        module: &mut Module,
        handler: Option<&mut dyn DispatchHandler>,
        func: FuncId,
        args: &[Value],
    ) -> Result<Option<Value>, VmError> {
        // Borrow the persistent stacks out of `self` for the duration of
        // the run (the handler needs `&mut Vm` alongside them), then hand
        // them back so their capacity carries over to the next run. A run
        // re-entered from a static call sees empty stacks and hands back
        // its own, which the outer run's then replace.
        if self.depth == 0 {
            self.runs += 1;
        }
        self.depth += 1;
        let mut st = std::mem::take(&mut self.stacks);
        st.regs.clear();
        st.frames.clear();
        let r = self.run_frames(module, handler, func, args, &mut st);
        self.stacks = st;
        self.depth -= 1;
        r
    }

    /// The frame loop: resolves each activation's function once and runs
    /// it in [`Vm::exec`] until a call, dispatch, return or halt.
    fn run_frames(
        &mut self,
        module: &mut Module,
        mut handler: Option<&mut dyn DispatchHandler>,
        func: FuncId,
        args: &[Value],
        st: &mut Stacks,
    ) -> Result<Option<Value>, VmError> {
        let Stacks {
            regs,
            frames,
            call,
            disp,
        } = st;
        push_frame(module, regs, frames, func, args, None);
        let mut steps = 0u64;
        loop {
            let top = frames.last_mut().expect("the frame loop runs a frame");
            let f = module.func(top.func);
            let base = top.base;
            match self.exec(f, &mut regs[base..], &mut top.pc, &mut steps, call)? {
                Exit::Call { func: callee, dst } => {
                    push_frame(module, regs, frames, callee, call, dst);
                }
                Exit::Dispatch { point, dst } => {
                    self.stats.dispatches += 1;
                    disp.clear();
                    let outcome = match handler.as_deref_mut() {
                        None => return Err(VmError::NoDispatchHandler),
                        Some(h) => h.dispatch(point, call, disp, module, self)?,
                    };
                    match outcome {
                        DispatchOutcome::Invoke { func: callee } => {
                            self.stats.exec_cycles += self.cost.call;
                            push_frame(module, regs, frames, callee, disp, dst);
                        }
                        DispatchOutcome::Completed { value } => {
                            if let (Some(d), Some(v)) = (dst, value) {
                                regs[base + d as usize] = v;
                            }
                        }
                    }
                }
                Exit::Ret(rv) => {
                    let done = frames.pop().expect("a returning frame");
                    regs.truncate(done.base);
                    match frames.last() {
                        None => return Ok(rv),
                        Some(caller) => {
                            if let (Some(d), Some(v)) = (done.ret_dst, rv) {
                                regs[caller.base + d as usize] = v;
                            }
                        }
                    }
                }
                Exit::Halt => return Ok(None),
            }
        }
    }

    /// The inner loop: executes `f` from `*pc` over the frame's register
    /// window until an instruction that needs the frame loop (or an
    /// error). The instruction count, execution cycles and I-cache misses
    /// are summed in locals and reach `self.stats` before it returns, so
    /// the dispatch handler, a re-entrant static call and the caller of
    /// a failed run all see exactly the per-instruction totals.
    fn exec(
        &mut self,
        f: &CodeFunc,
        regs: &mut [Value],
        pc_io: &mut u32,
        steps: &mut u64,
        call: &mut Vec<Value>,
    ) -> Result<Exit, VmError> {
        let Vm {
            cost,
            mem,
            icache,
            output,
            max_steps,
            ..
        } = self;
        let code = f.code.as_slice();
        let mut icache = icache.as_mut();
        // Instructions this run may still fetch before `StepLimit`.
        let budget = *max_steps - *steps;
        let mut pc = *pc_io as usize;
        let (mut n, mut cycles, mut misses) = (0u64, 0u64, 0u64);
        let exit = loop {
            let Some(instr) = code.get(pc) else {
                break Err(VmError::PcOutOfRange);
            };
            if n == budget {
                break Err(VmError::StepLimit);
            }
            n += 1;
            if let Some(ic) = icache.as_deref_mut() {
                if ic.access(f.addr_of(pc as u32)) {
                    misses += 1;
                }
            }
            // One match both charges the cost model (the same costs as
            // `CostModel::instr_cost`) and executes.
            match instr {
                Instr::MovI { dst, imm } => {
                    cycles += cost.mov_imm;
                    regs[*dst as usize] = Value::I(*imm);
                }
                Instr::MovF { dst, imm } => {
                    cycles += cost.mov_imm;
                    regs[*dst as usize] = Value::F(*imm);
                }
                Instr::Mov { dst, src } => {
                    cycles += cost.int_mov;
                    regs[*dst as usize] = regs[*src as usize];
                }
                Instr::FMov { dst, src } => {
                    cycles += cost.fp_alu;
                    regs[*dst as usize] = regs[*src as usize];
                }
                Instr::IAlu { op, dst, a, b } => {
                    cycles += cost.ialu(*op);
                    let a = regs[*a as usize].as_i();
                    let b = operand_i(regs, *b);
                    match ialu(*op, a, b) {
                        Ok(v) => regs[*dst as usize] = Value::I(v),
                        Err(e) => break Err(e),
                    }
                }
                Instr::FAlu { op, dst, a, b } => {
                    cycles += cost.falu(*op);
                    let a = regs[*a as usize].as_f();
                    let b = regs[*b as usize].as_f();
                    regs[*dst as usize] = Value::F(falu(*op, a, b));
                }
                Instr::ICmp { cc, dst, a, b } => {
                    cycles += cost.int_alu;
                    let a = regs[*a as usize].as_i();
                    let b = operand_i(regs, *b);
                    regs[*dst as usize] = Value::I(icmp(*cc, a, b) as i64);
                }
                Instr::FCmp { cc, dst, a, b } => {
                    cycles += cost.fp_alu;
                    let a = regs[*a as usize].as_f();
                    let b = regs[*b as usize].as_f();
                    regs[*dst as usize] = Value::I(fcmp(*cc, a, b) as i64);
                }
                Instr::Un { op, dst, src } => {
                    cycles += cost.unop(*op);
                    regs[*dst as usize] = unop(*op, regs[*src as usize]);
                }
                Instr::Load { ty, dst, base, idx } => {
                    cycles += cost.load;
                    let addr = regs[*base as usize]
                        .as_i()
                        .wrapping_add(operand_i(regs, *idx));
                    match mem.read(addr, *ty) {
                        Ok(v) => regs[*dst as usize] = v,
                        Err(e) => break Err(e),
                    }
                }
                Instr::Store { base, idx, src, .. } => {
                    cycles += cost.store;
                    let addr = regs[*base as usize]
                        .as_i()
                        .wrapping_add(operand_i(regs, *idx));
                    if let Err(e) = mem.write(addr, regs[*src as usize]) {
                        break Err(e);
                    }
                }
                Instr::Jmp { target } => {
                    cycles += cost.jmp;
                    pc = *target as usize;
                    continue;
                }
                Instr::Brz { cond, target } => {
                    cycles += cost.branch;
                    if !regs[*cond as usize].is_truthy() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Instr::Brnz { cond, target } => {
                    cycles += cost.branch;
                    if regs[*cond as usize].is_truthy() {
                        pc = *target as usize;
                        continue;
                    }
                }
                Instr::CallHost { f, dst, args } => {
                    cycles += cost.host_cost(*f);
                    call.clear();
                    call.extend(args.iter().map(|&r| regs[r as usize]));
                    let rv = f.eval(call, output);
                    if let (Some(d), Some(v)) = (dst, rv) {
                        regs[*d as usize] = v;
                    }
                }
                Instr::Call { func, dst, args } => {
                    cycles += cost.call;
                    call.clear();
                    call.extend(args.iter().map(|&r| regs[r as usize]));
                    pc += 1;
                    break Ok(Exit::Call {
                        func: *func,
                        dst: *dst,
                    });
                }
                Instr::Dispatch { point, dst, args } => {
                    // The handler charges the dispatch.
                    call.clear();
                    call.extend(args.iter().map(|&r| regs[r as usize]));
                    pc += 1;
                    break Ok(Exit::Dispatch {
                        point: *point,
                        dst: *dst,
                    });
                }
                Instr::Ret { src } => {
                    cycles += cost.call;
                    break Ok(Exit::Ret(src.map(|r| regs[r as usize])));
                }
                Instr::Halt => break Ok(Exit::Halt),
            }
            pc += 1;
        };
        *steps += n;
        *pc_io = pc as u32;
        self.stats.instrs_executed += n;
        self.stats.exec_cycles += cycles;
        self.stats.icache_miss_cycles += misses * self.cost.icache_miss;
        exit
    }
}

/// Push an activation of `func` with `args` in the first registers of a
/// fresh, zeroed window on top of the register stack.
fn push_frame(
    module: &Module,
    regs: &mut Vec<Value>,
    frames: &mut Vec<Frame>,
    func: FuncId,
    args: &[Value],
    ret_dst: Option<Reg>,
) {
    let f = module.func(func);
    debug_assert_eq!(args.len(), f.n_params, "arity mismatch calling {}", f.name);
    let base = regs.len();
    regs.resize(base + f.n_regs, Value::default());
    regs[base..base + args.len()].copy_from_slice(args);
    frames.push(Frame {
        func,
        pc: 0,
        base,
        ret_dst,
    });
}

#[inline]
fn operand_i(regs: &[Value], op: Operand) -> i64 {
    match op {
        Operand::Reg(r) => regs[r as usize].as_i(),
        Operand::Imm(v) => v,
    }
}

#[inline]
fn ialu(op: IAluOp, a: i64, b: i64) -> Result<i64, VmError> {
    Ok(match op {
        IAluOp::Add => a.wrapping_add(b),
        IAluOp::Sub => a.wrapping_sub(b),
        IAluOp::Mul => a.wrapping_mul(b),
        IAluOp::Div => {
            if b == 0 {
                return Err(VmError::DivideByZero);
            }
            a.wrapping_div(b)
        }
        IAluOp::Rem => {
            if b == 0 {
                return Err(VmError::DivideByZero);
            }
            a.wrapping_rem(b)
        }
        IAluOp::And => a & b,
        IAluOp::Or => a | b,
        IAluOp::Xor => a ^ b,
        IAluOp::Shl => a.wrapping_shl(b as u32 & 63),
        IAluOp::Shr => a.wrapping_shr(b as u32 & 63),
    })
}

#[inline]
fn falu(op: FAluOp, a: f64, b: f64) -> f64 {
    match op {
        FAluOp::Add => a + b,
        FAluOp::Sub => a - b,
        FAluOp::Mul => a * b,
        FAluOp::Div => a / b,
    }
}

#[inline]
fn icmp(cc: Cc, a: i64, b: i64) -> bool {
    match cc {
        Cc::Eq => a == b,
        Cc::Ne => a != b,
        Cc::Lt => a < b,
        Cc::Le => a <= b,
        Cc::Gt => a > b,
        Cc::Ge => a >= b,
    }
}

#[inline]
fn fcmp(cc: Cc, a: f64, b: f64) -> bool {
    match cc {
        Cc::Eq => a == b,
        Cc::Ne => a != b,
        Cc::Lt => a < b,
        Cc::Le => a <= b,
        Cc::Gt => a > b,
        Cc::Ge => a >= b,
    }
}

#[inline]
fn unop(op: UnOp, v: Value) -> Value {
    match op {
        UnOp::NegI => Value::I(v.as_i().wrapping_neg()),
        UnOp::NotI => Value::I(!v.as_i()),
        UnOp::NegF => Value::F(-v.as_f()),
        UnOp::IToF => Value::F(v.as_i() as f64),
        UnOp::FToI => Value::I(v.as_f() as i64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Ty;

    fn run_func(f: CodeFuncSpec) -> (Option<Value>, Vm) {
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", f.n_params, f.n_regs);
        for i in f.code {
            cf.push(i);
        }
        let id = m.add_func(cf);
        let mut vm = Vm::without_icache(CostModel::unit());
        vm.set_step_limit(100_000);
        let out = vm.call(&mut m, id, &f.args).unwrap();
        (out, vm)
    }

    struct CodeFuncSpec {
        n_params: usize,
        n_regs: usize,
        code: Vec<Instr>,
        args: Vec<Value>,
    }

    #[test]
    fn arithmetic_and_return() {
        let (out, _) = run_func(CodeFuncSpec {
            n_params: 2,
            n_regs: 3,
            code: vec![
                Instr::IAlu {
                    op: IAluOp::Mul,
                    dst: 2,
                    a: 0,
                    b: Operand::Reg(1),
                },
                Instr::IAlu {
                    op: IAluOp::Add,
                    dst: 2,
                    a: 2,
                    b: Operand::Imm(1),
                },
                Instr::Ret { src: Some(2) },
            ],
            args: vec![Value::I(6), Value::I(7)],
        });
        assert_eq!(out, Some(Value::I(43)));
    }

    #[test]
    fn float_ops() {
        let (out, _) = run_func(CodeFuncSpec {
            n_params: 2,
            n_regs: 3,
            code: vec![
                Instr::FAlu {
                    op: FAluOp::Div,
                    dst: 2,
                    a: 0,
                    b: 1,
                },
                Instr::Ret { src: Some(2) },
            ],
            args: vec![Value::F(1.0), Value::F(4.0)],
        });
        assert_eq!(out, Some(Value::F(0.25)));
    }

    #[test]
    fn branch_loop_counts() {
        // sum = 0; for (i = 0; i < n; i++) sum += i; return sum
        let (out, _) = run_func(CodeFuncSpec {
            n_params: 1,
            n_regs: 4,
            code: vec![
                Instr::MovI { dst: 1, imm: 0 }, // sum
                Instr::MovI { dst: 2, imm: 0 }, // i
                Instr::ICmp {
                    cc: Cc::Lt,
                    dst: 3,
                    a: 2,
                    b: Operand::Reg(0),
                }, // 2: i<n
                Instr::Brz { cond: 3, target: 7 },
                Instr::IAlu {
                    op: IAluOp::Add,
                    dst: 1,
                    a: 1,
                    b: Operand::Reg(2),
                },
                Instr::IAlu {
                    op: IAluOp::Add,
                    dst: 2,
                    a: 2,
                    b: Operand::Imm(1),
                },
                Instr::Jmp { target: 2 },
                Instr::Ret { src: Some(1) }, // 7
            ],
            args: vec![Value::I(10)],
        });
        assert_eq!(out, Some(Value::I(45)));
    }

    #[test]
    fn memory_round_trip() {
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", 1, 3);
        cf.push(Instr::MovI { dst: 1, imm: 99 });
        cf.push(Instr::Store {
            ty: Ty::Int,
            base: 0,
            idx: Operand::Imm(2),
            src: 1,
        });
        cf.push(Instr::Load {
            ty: Ty::Int,
            dst: 2,
            base: 0,
            idx: Operand::Imm(2),
        });
        cf.push(Instr::Ret { src: Some(2) });
        let id = m.add_func(cf);
        let mut vm = Vm::without_icache(CostModel::unit());
        let base = vm.mem.alloc(4);
        let out = vm.call(&mut m, id, &[Value::I(base)]).unwrap();
        assert_eq!(out, Some(Value::I(99)));
        assert_eq!(vm.mem.read_int(base + 2), 99);
    }

    #[test]
    fn nested_calls() {
        let mut m = Module::new();
        let mut inner = crate::module::CodeFunc::new("inner", 1, 2);
        inner.push(Instr::IAlu {
            op: IAluOp::Mul,
            dst: 1,
            a: 0,
            b: Operand::Imm(2),
        });
        inner.push(Instr::Ret { src: Some(1) });
        let inner_id = m.add_func(inner);
        let mut outer = crate::module::CodeFunc::new("outer", 1, 2);
        outer.push(Instr::Call {
            func: inner_id,
            dst: Some(1),
            args: vec![0],
        });
        outer.push(Instr::IAlu {
            op: IAluOp::Add,
            dst: 1,
            a: 1,
            b: Operand::Imm(1),
        });
        outer.push(Instr::Ret { src: Some(1) });
        let outer_id = m.add_func(outer);
        let mut vm = Vm::without_icache(CostModel::unit());
        assert_eq!(
            vm.call(&mut m, outer_id, &[Value::I(5)]).unwrap(),
            Some(Value::I(11))
        );
    }

    #[test]
    fn host_call_and_output() {
        let (out, vm) = run_func(CodeFuncSpec {
            n_params: 1,
            n_regs: 2,
            code: vec![
                Instr::CallHost {
                    f: HostFn::PrintI,
                    dst: None,
                    args: vec![0],
                },
                Instr::MovF { dst: 1, imm: 0.0 },
                Instr::CallHost {
                    f: HostFn::Cos,
                    dst: Some(1),
                    args: vec![1],
                },
                Instr::Ret { src: None },
            ],
            args: vec![Value::I(5)],
        });
        assert_eq!(out, None);
        assert_eq!(vm.output, vec![Value::I(5)]);
    }

    #[test]
    fn divide_by_zero_is_an_error() {
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", 2, 3);
        cf.push(Instr::IAlu {
            op: IAluOp::Div,
            dst: 2,
            a: 0,
            b: Operand::Reg(1),
        });
        cf.push(Instr::Ret { src: Some(2) });
        let id = m.add_func(cf);
        let mut vm = Vm::without_icache(CostModel::unit());
        let err = vm
            .call(&mut m, id, &[Value::I(1), Value::I(0)])
            .unwrap_err();
        assert_eq!(err, VmError::DivideByZero);
    }

    #[test]
    fn step_limit_catches_infinite_loop() {
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", 0, 1);
        cf.push(Instr::Jmp { target: 0 });
        let id = m.add_func(cf);
        let mut vm = Vm::without_icache(CostModel::unit());
        vm.set_step_limit(1000);
        assert_eq!(vm.call(&mut m, id, &[]).unwrap_err(), VmError::StepLimit);
    }

    #[test]
    fn dispatch_without_handler_errors() {
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", 0, 1);
        cf.push(Instr::Dispatch {
            point: 0,
            dst: None,
            args: vec![],
        });
        cf.push(Instr::Ret { src: None });
        let id = m.add_func(cf);
        let mut vm = Vm::without_icache(CostModel::unit());
        assert_eq!(
            vm.call(&mut m, id, &[]).unwrap_err(),
            VmError::NoDispatchHandler
        );
    }

    #[test]
    fn dispatch_invokes_handler_supplied_code() {
        struct H;
        impl DispatchHandler for H {
            fn dispatch(
                &mut self,
                point: u32,
                args: &[Value],
                out_args: &mut Vec<Value>,
                module: &mut Module,
                vm: &mut Vm,
            ) -> Result<DispatchOutcome, VmError> {
                assert_eq!(point, 7);
                vm.stats.dispatch_cycles += 10;
                // Generate code on the fly: returns args[0] + 100.
                let mut g = crate::module::CodeFunc::new("gen", 1, 2);
                g.push(Instr::IAlu {
                    op: IAluOp::Add,
                    dst: 1,
                    a: 0,
                    b: Operand::Imm(100),
                });
                g.push(Instr::Ret { src: Some(1) });
                let gid = module.add_func(g);
                out_args.extend_from_slice(args);
                Ok(DispatchOutcome::Invoke { func: gid })
            }
        }
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", 1, 2);
        cf.push(Instr::Dispatch {
            point: 7,
            dst: Some(1),
            args: vec![0],
        });
        cf.push(Instr::Ret { src: Some(1) });
        let id = m.add_func(cf);
        let mut vm = Vm::without_icache(CostModel::unit());
        let out = vm
            .call_with_handler(&mut m, &mut H, id, &[Value::I(1)])
            .unwrap();
        assert_eq!(out, Some(Value::I(101)));
        assert_eq!(vm.stats.dispatches, 1);
        assert_eq!(vm.stats.dispatch_cycles, 10);
    }

    #[test]
    fn handler_may_reenter_the_vm() {
        // The run-time system executes *static calls* by re-entering
        // Vm::call from inside a dispatch; the interpreter must support
        // that reentrancy.
        struct H;
        impl DispatchHandler for H {
            fn dispatch(
                &mut self,
                _point: u32,
                args: &[Value],
                _out_args: &mut Vec<Value>,
                module: &mut Module,
                vm: &mut Vm,
            ) -> Result<DispatchOutcome, VmError> {
                // Evaluate a helper function during "specialization".
                let helper = module.func_by_name("helper").unwrap();
                let v = vm.call(module, helper, &[args[0]])?.unwrap();
                // Generate code returning that precomputed value.
                let mut g = crate::module::CodeFunc::new("gen", 0, 1);
                g.push(Instr::MovI {
                    dst: 0,
                    imm: v.as_i(),
                });
                g.push(Instr::Ret { src: Some(0) });
                let gid = module.add_func(g);
                Ok(DispatchOutcome::Invoke { func: gid })
            }
        }
        let mut m = Module::new();
        let mut helper = crate::module::CodeFunc::new("helper", 1, 2);
        helper.push(Instr::IAlu {
            op: IAluOp::Mul,
            dst: 1,
            a: 0,
            b: Operand::Imm(7),
        });
        helper.push(Instr::Ret { src: Some(1) });
        m.add_func(helper);
        let mut region = crate::module::CodeFunc::new("region", 1, 2);
        region.push(Instr::Dispatch {
            point: 0,
            dst: Some(1),
            args: vec![0],
        });
        region.push(Instr::Ret { src: Some(1) });
        let rid = m.add_func(region);
        let mut vm = Vm::without_icache(CostModel::unit());
        let out = vm
            .call_with_handler(&mut m, &mut H, rid, &[Value::I(6)])
            .unwrap();
        assert_eq!(out, Some(Value::I(42)));
    }

    #[test]
    fn cycle_accounting_uses_cost_model() {
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", 0, 2);
        cf.push(Instr::MovF { dst: 0, imm: 2.0 });
        cf.push(Instr::FAlu {
            op: FAluOp::Mul,
            dst: 1,
            a: 0,
            b: 0,
        });
        cf.push(Instr::Ret { src: Some(1) });
        let id = m.add_func(cf);
        let mut vm = Vm::without_icache(CostModel::alpha21164());
        vm.call(&mut m, id, &[]).unwrap();
        let c = CostModel::alpha21164();
        assert_eq!(vm.stats.exec_cycles, c.mov_imm + c.fp_mul + c.call);
        assert_eq!(vm.stats.instrs_executed, 3);
    }

    #[test]
    fn every_instruction_is_charged_its_cost_model_price() {
        // Distinct powers of two, so charging one class's price for
        // another's changes the total.
        let cost = CostModel {
            int_alu: 1,
            int_mul: 2,
            int_div: 4,
            fp_alu: 8,
            fp_mul: 16,
            fp_div: 32,
            mov_imm: 64,
            int_mov: 128,
            load: 256,
            store: 512,
            jmp: 1024,
            branch: 2048,
            call: 4096,
            icache_miss: 0,
        };
        let mut m = Module::new();
        let mut callee = crate::module::CodeFunc::new("callee", 0, 1);
        callee.push(Instr::Ret { src: None });
        let callee = m.add_func(callee);
        // r0 = base address, r1 = 6 (int), r2 = 1.5 (float), r3 = scratch.
        let mut code = vec![
            Instr::MovI { dst: 1, imm: 6 },
            Instr::MovF { dst: 2, imm: 1.5 },
            Instr::Mov { dst: 3, src: 1 },
            Instr::FMov { dst: 3, src: 2 },
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
            code.push(Instr::IAlu {
                op,
                dst: 3,
                a: 1,
                b: Operand::Imm(2),
            });
        }
        for op in [FAluOp::Add, FAluOp::Sub, FAluOp::Mul, FAluOp::Div] {
            code.push(Instr::FAlu {
                op,
                dst: 3,
                a: 2,
                b: 2,
            });
        }
        code.push(Instr::ICmp {
            cc: Cc::Lt,
            dst: 3,
            a: 1,
            b: Operand::Reg(1),
        });
        code.push(Instr::FCmp {
            cc: Cc::Le,
            dst: 3,
            a: 2,
            b: 2,
        });
        for (op, src) in [
            (UnOp::NegI, 1),
            (UnOp::NotI, 1),
            (UnOp::NegF, 2),
            (UnOp::IToF, 1),
            (UnOp::FToI, 2),
        ] {
            code.push(Instr::Un { op, dst: 3, src });
        }
        code.push(Instr::Store {
            ty: Ty::Int,
            base: 0,
            idx: Operand::Imm(0),
            src: 1,
        });
        code.push(Instr::Load {
            ty: Ty::Int,
            dst: 3,
            base: 0,
            idx: Operand::Imm(0),
        });
        code.push(Instr::CallHost {
            f: HostFn::Sqrt,
            dst: Some(3),
            args: vec![2],
        });
        code.push(Instr::Call {
            func: callee,
            dst: None,
            args: vec![],
        });
        let n = code.len() as u32;
        code.push(Instr::Jmp { target: n + 1 });
        code.push(Instr::Brz {
            cond: 1,
            target: n + 2,
        });
        code.push(Instr::Brnz {
            cond: 1,
            target: n + 3,
        });
        code.push(Instr::Ret { src: None });
        let mut f = crate::module::CodeFunc::new("every", 1, 4);
        for i in &code {
            f.push(i.clone());
        }
        let id = m.add_func(f);
        let want: u64 = code.iter().map(|i| cost.instr_cost(i)).sum::<u64>() + cost.call;
        let mut vm = Vm::without_icache(cost);
        let base = vm.mem.alloc(1);
        vm.call(&mut m, id, &[Value::I(base)]).unwrap();
        assert_eq!(vm.stats.instrs_executed, code.len() as u64 + 1);
        assert_eq!(vm.stats.exec_cycles, want);
    }

    #[test]
    fn counters_are_exact_at_every_exit() {
        // Every error, and the dispatch handler, sees the counters of
        // exactly the instructions fetched so far, the faulting one
        // included (a step-limit fault fetches nothing).
        fn func(m: &mut Module, name: &str, code: Vec<Instr>) -> FuncId {
            let mut f = crate::module::CodeFunc::new(name, 0, 3);
            for i in code {
                f.push(i);
            }
            m.add_func(f)
        }
        fn stats(instrs: u64, exec: u64, misses: u64, dispatches: u64) -> ExecStats {
            ExecStats {
                exec_cycles: exec,
                icache_miss_cycles: misses * CostModel::alpha21164().icache_miss,
                instrs_executed: instrs,
                dispatches,
                ..ExecStats::new()
            }
        }
        let mov = Instr::MovI { dst: 0, imm: 0 };
        let dispatch = Instr::Dispatch {
            point: 0,
            dst: None,
            args: vec![0],
        };

        // Step limit inside a callee: 2 outer + 8 inner instructions,
        // one line of each function fetched.
        let mut m = Module::new();
        let spin = func(&mut m, "spin", vec![Instr::Jmp { target: 0 }]);
        let call = Instr::Call {
            func: spin,
            dst: None,
            args: vec![],
        };
        let outer = func(&mut m, "outer", vec![mov.clone(), call]);
        let mut vm = Vm::new(CostModel::alpha21164());
        vm.set_step_limit(10);
        assert_eq!(vm.call(&mut m, outer, &[]), Err(VmError::StepLimit));
        assert_eq!(vm.stats, stats(10, 1 + 6 + 8, 2, 0));

        let mut m = Module::new();
        let id = func(&mut m, "t", vec![mov.clone()]);
        let mut vm = Vm::new(CostModel::alpha21164());
        assert_eq!(vm.call(&mut m, id, &[]), Err(VmError::PcOutOfRange));
        assert_eq!(vm.stats, stats(1, 1, 1, 0));

        let div = Instr::IAlu {
            op: IAluOp::Div,
            dst: 1,
            a: 0,
            b: Operand::Reg(0),
        };
        let id = func(&mut m, "div", vec![mov.clone(), div]);
        let mut vm = Vm::new(CostModel::alpha21164());
        assert_eq!(vm.call(&mut m, id, &[]), Err(VmError::DivideByZero));
        assert_eq!(vm.stats, stats(2, 1 + 40, 1, 0));

        // Out-of-bounds load and store: memory is empty, and the store's
        // address wraps below zero.
        let cost = CostModel::alpha21164();
        let load = Instr::Load {
            ty: Ty::Int,
            dst: 1,
            base: 0,
            idx: Operand::Imm(3),
        };
        let store = Instr::Store {
            ty: Ty::Int,
            base: 0,
            idx: Operand::Imm(-1),
            src: 0,
        };
        for (ins, addr, c) in [(load, 3, cost.load), (store, -1, cost.store)] {
            let id = func(&mut m, "oob", vec![mov.clone(), ins]);
            let mut vm = Vm::new(CostModel::alpha21164());
            assert_eq!(vm.call(&mut m, id, &[]), Err(VmError::OutOfBounds(addr)));
            assert_eq!(vm.stats, stats(2, 1 + c, 1, 0));
        }

        let id = func(&mut m, "disp", vec![mov, dispatch, Instr::Halt]);
        let mut vm = Vm::new(CostModel::alpha21164());
        assert_eq!(vm.call(&mut m, id, &[]), Err(VmError::NoDispatchHandler));
        assert_eq!(vm.stats, stats(2, 1, 1, 1));

        struct Failing(Option<ExecStats>);
        impl DispatchHandler for Failing {
            fn dispatch(
                &mut self,
                _point: u32,
                _args: &[Value],
                _out_args: &mut Vec<Value>,
                _module: &mut Module,
                vm: &mut Vm,
            ) -> Result<DispatchOutcome, VmError> {
                self.0 = Some(vm.stats.clone());
                vm.stats.dispatch_cycles += 10;
                Err(VmError::Dispatch("no code".into()))
            }
        }
        let mut h = Failing(None);
        let mut vm = Vm::new(CostModel::alpha21164());
        assert_eq!(
            vm.call_with_handler(&mut m, &mut h, id, &[]),
            Err(VmError::Dispatch("no code".into()))
        );
        assert_eq!(h.0, Some(stats(2, 1, 1, 1)));
        let mut want = stats(2, 1, 1, 1);
        want.dispatch_cycles = 10;
        assert_eq!(vm.stats, want);
    }

    #[test]
    fn nested_runs_share_the_outermost_run_number() {
        // The handler re-enters the interpreter, as native code does
        // through `native_call`, and records the run number inside both.
        struct Nested {
            leaf: FuncId,
            seen: Vec<u64>,
        }
        impl DispatchHandler for Nested {
            fn dispatch(
                &mut self,
                _point: u32,
                args: &[Value],
                _out_args: &mut Vec<Value>,
                module: &mut Module,
                vm: &mut Vm,
            ) -> Result<DispatchOutcome, VmError> {
                self.seen.push(vm.current_run());
                let value = vm.call(module, self.leaf, args)?;
                self.seen.push(vm.current_run());
                Ok(DispatchOutcome::Completed { value })
            }
        }
        let mut m = Module::new();
        let mut leaf = crate::module::CodeFunc::new("leaf", 1, 1);
        leaf.push(Instr::Ret { src: Some(0) });
        let leaf = m.add_func(leaf);
        let mut cf = crate::module::CodeFunc::new("t", 1, 2);
        cf.push(Instr::Dispatch {
            point: 0,
            dst: Some(1),
            args: vec![0],
        });
        cf.push(Instr::Ret { src: Some(1) });
        let id = m.add_func(cf);
        let mut vm = Vm::without_icache(CostModel::unit());
        assert_eq!(vm.current_run(), 0);
        let mut h = Nested {
            leaf,
            seen: Vec::new(),
        };
        for _ in 0..2 {
            let out = vm.call_with_handler(&mut m, &mut h, id, &[Value::I(4)]);
            assert_eq!(out, Ok(Some(Value::I(4))));
        }
        assert_eq!(h.seen, [1, 1, 2, 2]);
        // A failed run ends like any other.
        assert_eq!(
            vm.call(&mut m, id, &[Value::I(4)]),
            Err(VmError::NoDispatchHandler)
        );
        assert_eq!(vm.current_run(), 3);
        vm.call(&mut m, leaf, &[Value::I(1)]).unwrap();
        assert_eq!(vm.current_run(), 4);
    }

    #[test]
    fn icache_charged_on_misses() {
        let mut m = Module::new();
        let mut cf = crate::module::CodeFunc::new("t", 0, 1);
        for _ in 0..15 {
            cf.push(Instr::MovI { dst: 0, imm: 1 });
        }
        cf.push(Instr::Ret { src: None });
        let id = m.add_func(cf);
        let mut vm = Vm::new(CostModel::alpha21164());
        vm.call(&mut m, id, &[]).unwrap();
        // 16 instructions = 64 bytes = 2 lines -> 2 misses.
        assert_eq!(vm.stats.icache_miss_cycles, 2 * vm.cost_model().icache_miss);
    }
}
