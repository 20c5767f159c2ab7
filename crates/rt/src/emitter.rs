//! The shared code emitter behind both specialization paths.
//!
//! The legacy online specializer and the staged generating-extension
//! executor must produce **byte-identical** code: staging moves the
//! analysis work to static compile time but may not change the emitted
//! instructions. The way this reproduction guarantees that is
//! structural — both paths drive this one emitter, generic over the unit
//! key type (`(program point, static store)` online, `(division, value
//! vector)` staged, a bijection). Everything value-dependent lives here:
//! register allocation, the rename table of dynamic zero/copy
//! propagation, strength reduction, per-unit constant materialization,
//! dead-assignment sweeps, label/fixup bookkeeping, and the execution of
//! static computations against live VM state.
//!
//! Cycle metering is split into [`Emitter::exec_cycles`] (generating-
//! extension work: static computations, checks, bookkeeping) and
//! [`Emitter::emit_cycles`] (instruction construction/emission and branch
//! patching) so Table 3 can attribute where staging saves time.

use crate::costs::DynCosts;
use crate::runtime::Store;
use crate::sink::{CodeSink, FnvBuild, VmSink};
use crate::stats::RtStats;
use dyc_bta::OptConfig;
use dyc_ir::inst::{Callee, Inst};
use dyc_ir::VReg;
use dyc_vm::{Cc, FAluOp, FuncId, IAluOp, Instr, Module, Operand, Reg, UnOp, Value, Vm, VmError};
use std::collections::HashMap;
use std::hash::Hash;

/// A dense bitset over machine registers — the unit-local live-register
/// set dead-assignment elimination sweeps against. Replaces the old
/// `HashSet<Reg>` so the per-instruction DAE bookkeeping is two shifts
/// and a mask instead of a hash.
#[derive(Debug, Default, Clone)]
pub(crate) struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    pub(crate) fn new() -> RegSet {
        RegSet::default()
    }

    pub(crate) fn insert(&mut self, r: Reg) {
        let (w, b) = (r as usize / 64, r as usize % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << b;
    }

    pub(crate) fn remove(&mut self, r: Reg) {
        let (w, b) = (r as usize / 64, r as usize % 64);
        if let Some(word) = self.words.get_mut(w) {
            *word &= !(1 << b);
        }
    }

    pub(crate) fn contains(&self, r: Reg) -> bool {
        let (w, b) = (r as usize / 64, r as usize % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }
}

/// A resolved operand at emit time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Opnd {
    /// A run-time register.
    R(Reg),
    /// A known integer value (a filled hole).
    KI(i64),
    /// A known float value (a filled hole).
    KF(f64),
}

/// One instruction in the per-unit emit buffer.
pub(crate) struct Emitted {
    pub(crate) ins: Instr,
    /// Candidate for dead-assignment elimination.
    pub(crate) deletable: bool,
    /// Branch fixup: patch the target to this unit id's label afterwards.
    pub(crate) fixup: Option<u32>,
    /// Emitted by the copy-and-patch template path (metered at template
    /// cost, not full construction cost).
    pub(crate) templated: bool,
    /// Holes patched into this instruction (template path only). Kept per
    /// instruction so the seal-time meter can charge patch work against
    /// the instructions that survive the dead-assignment sweep, matching
    /// the convention that `emit_instr` is only paid for survivors.
    pub(crate) patches: u16,
    /// The instruction's [`dyc_vm::instr_shape`], when the producer
    /// pre-computed it (the fused template path carries shapes from
    /// stage time); `0` otherwise. Forwarded to the sink so a native
    /// backend can reuse prebuilt byte encodings.
    pub(crate) shape: u16,
}

/// Sentinel for "no register assigned yet" in the dense vreg table.
const NO_REG: Reg = u32::MAX;

/// The shared emit-time machinery, generic over the unit key and the
/// [`CodeSink`] backend instructions land in.
///
/// Unit keys are *interned*: each distinct key hashes once (FNV-1a — the
/// same family as the shard selector and `dyc-obs`) and receives a dense
/// `u32` id; labels, fixups, and the executors' worklists and
/// instrumentation all run on ids, so the emit hot path does no further
/// hash-map traffic. The register map is likewise a dense vector indexed
/// by vreg number.
///
/// All label/fixup resolution stays here: the sink receives sealed
/// instructions and final branch targets only, so every backend observes
/// the identical instruction stream (see `crate::sink`).
pub(crate) struct Emitter<K, S: CodeSink = VmSink> {
    pub(crate) cfg: OptConfig,
    /// Per-vreg float flag (move/flush selection).
    float_vreg: Vec<bool>,
    /// The emission backend.
    pub(crate) sink: S,
    /// Unit-key interner: the only hash per unit reference.
    key_ids: HashMap<K, u32, FnvBuild>,
    /// Code offset per unit id; `u32::MAX` until the unit is sealed.
    labels: Vec<u32>,
    fixups: Vec<(usize, u32)>,
    /// Dense vreg → machine-register table (`NO_REG` = unassigned).
    reg_map: Vec<Reg>,
    pub(crate) next_reg: u32,
    /// Cycles spent executing the generating extension itself.
    pub(crate) exec_cycles: u64,
    /// Cycles spent constructing, emitting, and patching instructions.
    pub(crate) emit_cycles: u64,
}

impl<K: Clone + Eq + Hash> Emitter<K, VmSink> {
    /// Take the finished code out of the default VM backend (the install
    /// path of both specialization executors).
    pub(crate) fn take_code(&mut self) -> Vec<Instr> {
        std::mem::take(&mut self.sink.code)
    }

    /// The emitted code so far (VM backend only; tests and diagnostics).
    #[cfg(test)]
    pub(crate) fn code(&self) -> &[Instr] {
        &self.sink.code
    }
}

impl<K: Clone + Eq + Hash> Emitter<K, crate::sink::InstallSink> {
    /// Take the finished code — plus the native lowering, when the
    /// backend was upgraded to a [`crate::sink::NativeSink`] — out of
    /// the install backend.
    pub(crate) fn take_install(&mut self) -> (Vec<Instr>, Option<crate::native::NativeArtifact>) {
        std::mem::take(&mut self.sink).take_install()
    }
}

impl<K: Clone + Eq + Hash, S: CodeSink + Default> Emitter<K, S> {
    pub(crate) fn new(cfg: OptConfig, float_vreg: Vec<bool>) -> Emitter<K, S> {
        let reg_map = vec![NO_REG; float_vreg.len()];
        Emitter {
            cfg,
            float_vreg,
            sink: S::default(),
            key_ids: HashMap::default(),
            labels: Vec::new(),
            fixups: Vec::new(),
            reg_map,
            next_reg: 0,
            exec_cycles: 0,
            emit_cycles: 0,
        }
    }
}

impl<K: Clone + Eq + Hash, S: CodeSink> Emitter<K, S> {
    pub(crate) fn total_cycles(&self) -> u64 {
        self.exec_cycles + self.emit_cycles
    }

    /// Number of instructions written to the sink so far (budget checks
    /// and `instrs_generated` accounting).
    pub(crate) fn emitted(&self) -> usize {
        self.sink.emitted()
    }

    /// Intern a unit key, returning its dense id (allocating one, and
    /// keeping the key, only on first sight).
    pub(crate) fn intern(&mut self, key: K) -> u32 {
        if let Some(&id) = self.key_ids.get(&key) {
            return id;
        }
        let id = self.labels.len() as u32;
        self.key_ids.insert(key, id);
        self.labels.push(u32::MAX);
        id
    }

    /// Has this unit id been sealed (its code emitted and labeled)?
    pub(crate) fn sealed(&self, id: u32) -> bool {
        self.labels[id as usize] != u32::MAX
    }

    fn is_float(&self, v: VReg) -> bool {
        self.float_vreg.get(v.0 as usize).copied().unwrap_or(false)
    }

    /// Grow the dense vreg table so index `i` is addressable.
    fn ensure_vreg(&mut self, i: usize) {
        if i >= self.reg_map.len() {
            self.reg_map.resize(i + 1, NO_REG);
        }
    }

    /// Pre-assign a register (dynamic pass-through parameters).
    pub(crate) fn set_reg(&mut self, v: VReg, r: Reg) {
        let i = v.0 as usize;
        self.ensure_vreg(i);
        self.reg_map[i] = r;
    }

    pub(crate) fn reg_of(&mut self, v: VReg) -> Reg {
        let i = v.0 as usize;
        self.ensure_vreg(i);
        if self.reg_map[i] != NO_REG {
            return self.reg_map[i];
        }
        let r = self.next_reg;
        self.next_reg += 1;
        self.reg_map[i] = r;
        r
    }

    pub(crate) fn fresh_reg(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    pub(crate) fn resolve(&mut self, v: VReg, store: &Store, rename: &HashMap<VReg, Opnd>) -> Opnd {
        if let Some(val) = store.get(&v) {
            return match val {
                Value::I(i) => Opnd::KI(*i),
                Value::F(f) => Opnd::KF(*f),
            };
        }
        if let Some(a) = rename.get(&v) {
            return *a;
        }
        Opnd::R(self.reg_of(v))
    }

    /// Get a register holding a known value (materializing at most once
    /// per unit per value).
    fn reg_for_const(
        &mut self,
        val: Value,
        scratch: &mut HashMap<u64, Reg>,
        buf: &mut Vec<Emitted>,
    ) -> Reg {
        let key = val.key_bits();
        if let Some(r) = scratch.get(&key) {
            return *r;
        }
        let r = self.fresh_reg();
        buf.push(Emitted {
            ins: mov_const(r, val),
            deletable: true,
            fixup: None,
            templated: false,
            patches: 0,
            shape: 0,
        });
        scratch.insert(key, r);
        r
    }

    pub(crate) fn opnd_reg(
        &mut self,
        o: Opnd,
        scratch: &mut HashMap<u64, Reg>,
        buf: &mut Vec<Emitted>,
    ) -> Reg {
        match o {
            Opnd::R(r) => r,
            Opnd::KI(v) => self.reg_for_const(Value::I(v), scratch, buf),
            Opnd::KF(v) => self.reg_for_const(Value::F(v), scratch, buf),
        }
    }

    /// Record a value-dependent fold: with zero/copy propagation the
    /// destination is renamed (no code); otherwise the value is emitted as
    /// a constant move.
    fn fold_to(
        &mut self,
        dst: VReg,
        k: Opnd,
        rename: &mut HashMap<VReg, Opnd>,
        buf: &mut Vec<Emitted>,
        stats: &mut RtStats,
    ) {
        if self.cfg.zero_copy_propagation {
            stats.zero_copy_folds += 1;
            rename.insert(dst, k);
        } else {
            let r = self.reg_of(dst);
            buf.push(Emitted {
                ins: mov_const(r, opnd_value(k)),
                deletable: true,
                fixup: None,
                templated: false,
                patches: 0,
                shape: 0,
            });
        }
    }

    /// Flush the rename table: every renamed variable that `keep` marks as
    /// readable later gets its value moved into its own register.
    pub(crate) fn flush_renames(
        &mut self,
        rename: &mut HashMap<VReg, Opnd>,
        buf: &mut Vec<Emitted>,
        keep: impl Fn(VReg) -> bool,
        mut live_regs: Option<&mut RegSet>,
    ) {
        let mut entries: Vec<(VReg, Opnd)> = rename.drain().collect();
        entries.sort_by_key(|(v, _)| *v);
        for (v, alias) in entries {
            if !keep(v) {
                continue;
            }
            let r = self.reg_of(v);
            let ins = match alias {
                Opnd::R(src) => {
                    if src == r {
                        continue;
                    }
                    if self.is_float(v) {
                        Instr::FMov { dst: r, src }
                    } else {
                        Instr::Mov { dst: r, src }
                    }
                }
                Opnd::KI(v) => Instr::MovI { dst: r, imm: v },
                Opnd::KF(v) => Instr::MovF { dst: r, imm: v },
            };
            buf.push(Emitted {
                ins,
                deletable: true,
                fixup: None,
                templated: false,
                patches: 0,
                shape: 0,
            });
            if let Some(lr) = live_regs.as_deref_mut() {
                lr.insert(r);
            }
        }
    }

    /// Execute a static computation at specialization time.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn exec_static(
        &mut self,
        inst: &Inst,
        store: &mut Store,
        rename: &mut HashMap<VReg, Opnd>,
        costs: &DynCosts,
        stats: &mut RtStats,
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<(), VmError> {
        let val = |s: &Store, v: VReg| -> Value { s[&v] };
        let result: Value = match inst {
            Inst::ConstI { v, .. } => Value::I(*v),
            Inst::ConstF { v, .. } => Value::F(*v),
            Inst::Copy { src, .. } => val(store, *src),
            Inst::Un { op, src, .. } => eval_un(*op, val(store, *src)),
            Inst::IBin { op, a, b, .. } => Value::I(eval_ialu(
                *op,
                val(store, *a).as_i(),
                val(store, *b).as_i(),
            )?),
            Inst::FBin { op, a, b, .. } => {
                Value::F(eval_falu(*op, val(store, *a).as_f(), val(store, *b).as_f()))
            }
            Inst::ICmp { cc, a, b, .. } => {
                Value::I(eval_icmp(*cc, val(store, *a).as_i(), val(store, *b).as_i()) as i64)
            }
            Inst::FCmp { cc, a, b, .. } => {
                Value::I(eval_fcmp(*cc, val(store, *a).as_f(), val(store, *b).as_f()) as i64)
            }
            Inst::Load { ty, base, idx, .. } => {
                // A *static load* (§2.2.6): read live VM memory now.
                stats.static_loads += 1;
                self.exec_cycles += costs.static_load;
                let addr = val(store, *base).as_i() + val(store, *idx).as_i();
                vm.mem.read(addr, ty.vm_ty())
            }
            Inst::Call { callee, args, .. } => {
                // A *static call* (§2.2.6): run it now and memoize the
                // result into the emitted code.
                stats.static_calls += 1;
                let arg_vals: Vec<Value> = args.iter().map(|a| val(store, *a)).collect();
                match callee {
                    Callee::Host(h) => {
                        let mut sink = Vec::new();
                        self.exec_cycles += vm.cost_model().host_cost(*h);
                        h.eval(&arg_vals, &mut sink)
                            .expect("pure host functions return values")
                    }
                    Callee::Func { index, .. } => {
                        let before = vm.stats.clone();
                        let out = vm.call(module, FuncId(*index as u32), &arg_vals)?;
                        // Those cycles belong to dynamic compilation, not
                        // to the running program: reclassify.
                        let delta = vm.stats.delta_since(&before);
                        vm.stats.exec_cycles -= delta.exec_cycles;
                        vm.stats.icache_miss_cycles -= delta.icache_miss_cycles;
                        vm.stats.instrs_executed -= delta.instrs_executed;
                        self.exec_cycles += delta.exec_cycles + delta.icache_miss_cycles;
                        out.ok_or_else(|| VmError::Dispatch("static call to void function".into()))?
                    }
                }
            }
            _ => unreachable!("not a static computation: {inst:?}"),
        };
        stats.static_ops += 1;
        self.exec_cycles += costs.static_op;
        let dst = inst.def().expect("static computations define a value");
        rename.remove(&dst);
        store.insert(dst, result);
        Ok(())
    }

    /// Emit a dynamic computation, applying the value-dependent staged
    /// optimizations. Operands are resolved *before* the destination
    /// bookkeeping so value chains consumed by this very instruction do
    /// not get materialized. `read_later` answers "is this variable read
    /// at or after this program point" — a liveness lookup online, a
    /// precomputed table lookup in the staged path.
    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    pub(crate) fn emit_dynamic(
        &mut self,
        inst: &Inst,
        read_later: &dyn Fn(VReg) -> bool,
        store: &mut Store,
        rename: &mut HashMap<VReg, Opnd>,
        scratch: &mut HashMap<u64, Reg>,
        buf: &mut Vec<Emitted>,
        costs: &DynCosts,
        stats: &mut RtStats,
    ) {
        // Resolve every source operand first (pure lookups).
        let ops: Vec<Opnd> = inst
            .uses()
            .iter()
            .map(|u| self.resolve(*u, store, rename))
            .collect();

        let dst_vreg = inst.def();
        // Redefining a register invalidates rename entries that alias it;
        // materialize only aliases that are still read after this point.
        if let Some(d) = dst_vreg {
            let dr = self.reg_of(d);
            let mut stale: Vec<VReg> = rename
                .iter()
                .filter(|(v, a)| **a == Opnd::R(dr) && **v != d)
                .map(|(v, _)| *v)
                .collect();
            stale.sort();
            for v in stale {
                rename.remove(&v);
                if !read_later(v) {
                    continue;
                }
                let r = self.reg_of(v);
                let ins = if self.is_float(v) {
                    Instr::FMov { dst: r, src: dr }
                } else {
                    Instr::Mov { dst: r, src: dr }
                };
                buf.push(Emitted {
                    ins,
                    deletable: true,
                    fixup: None,
                    templated: false,
                    patches: 0,
                    shape: 0,
                });
            }
            rename.remove(&d);
            store.remove(&d);
        }

        match inst {
            Inst::ConstI { dst, v } => {
                // A constant assigned to a dynamic variable.
                if self.cfg.zero_copy_propagation {
                    rename.insert(*dst, Opnd::KI(*v));
                } else {
                    let r = self.reg_of(*dst);
                    buf.push(Emitted {
                        ins: Instr::MovI { dst: r, imm: *v },
                        deletable: true,
                        fixup: None,
                        templated: false,
                        patches: 0,
                        shape: 0,
                    });
                }
            }
            Inst::ConstF { dst, v } => {
                if self.cfg.zero_copy_propagation {
                    rename.insert(*dst, Opnd::KF(*v));
                } else {
                    let r = self.reg_of(*dst);
                    buf.push(Emitted {
                        ins: Instr::MovF { dst: r, imm: *v },
                        deletable: true,
                        fixup: None,
                        templated: false,
                        patches: 0,
                        shape: 0,
                    });
                }
            }
            Inst::Copy { dst, src: _ } => {
                match ops[0] {
                    Opnd::R(sr) => {
                        let r = self.reg_of(*dst);
                        if sr == r {
                            // Self-move after a fold collapsed the chain.
                        } else if self.cfg.zero_copy_propagation {
                            // Staged dynamic copy propagation (§2.2.7):
                            // downstream references read the source
                            // directly; the move only materializes if the
                            // variable is still live at the unit boundary.
                            stats.zero_copy_folds += 1;
                            rename.insert(*dst, Opnd::R(sr));
                        } else {
                            let ins = if self.is_float(*dst) {
                                Instr::FMov { dst: r, src: sr }
                            } else {
                                Instr::Mov { dst: r, src: sr }
                            };
                            buf.push(Emitted {
                                ins,
                                deletable: true,
                                fixup: None,
                                templated: false,
                                patches: 0,
                                shape: 0,
                            });
                        }
                    }
                    k => {
                        if self.cfg.zero_copy_propagation {
                            stats.zero_copy_folds += 1;
                            rename.insert(*dst, k);
                        } else {
                            let r = self.reg_of(*dst);
                            buf.push(Emitted {
                                ins: mov_const(r, opnd_value(k)),
                                deletable: true,
                                fixup: None,
                                templated: false,
                                patches: 0,
                                shape: 0,
                            });
                        }
                    }
                }
            }
            Inst::IBin { op, dst, .. } => {
                self.emit_ibin(
                    *op, *dst, ops[0], ops[1], rename, scratch, buf, costs, stats,
                );
            }
            Inst::FBin { op, dst, .. } => {
                self.emit_fbin(
                    *op, *dst, ops[0], ops[1], rename, scratch, buf, costs, stats,
                );
            }
            Inst::ICmp { cc, dst, .. } => match (ops[0], ops[1]) {
                (Opnd::KI(x), Opnd::KI(y)) => {
                    self.fold_to(
                        *dst,
                        Opnd::KI(eval_icmp(*cc, x, y) as i64),
                        rename,
                        buf,
                        stats,
                    );
                }
                (Opnd::R(x), Opnd::KI(y)) => {
                    let r = self.reg_of(*dst);
                    buf.push(Emitted {
                        ins: Instr::ICmp {
                            cc: *cc,
                            dst: r,
                            a: x,
                            b: Operand::Imm(y),
                        },
                        deletable: true,
                        fixup: None,
                        templated: false,
                        patches: 0,
                        shape: 0,
                    });
                }
                (Opnd::KI(x), Opnd::R(y)) => {
                    let r = self.reg_of(*dst);
                    buf.push(Emitted {
                        ins: Instr::ICmp {
                            cc: cc.swapped(),
                            dst: r,
                            a: y,
                            b: Operand::Imm(x),
                        },
                        deletable: true,
                        fixup: None,
                        templated: false,
                        patches: 0,
                        shape: 0,
                    });
                }
                (x, y) => {
                    let xr = self.opnd_reg(x, scratch, buf);
                    let yr = self.opnd_reg(y, scratch, buf);
                    let r = self.reg_of(*dst);
                    buf.push(Emitted {
                        ins: Instr::ICmp {
                            cc: *cc,
                            dst: r,
                            a: xr,
                            b: Operand::Reg(yr),
                        },
                        deletable: true,
                        fixup: None,
                        templated: false,
                        patches: 0,
                        shape: 0,
                    });
                }
            },
            Inst::FCmp { cc, dst, .. } => {
                let (ra, rb) = (ops[0], ops[1]);
                if let (Opnd::KF(x), Opnd::KF(y)) = (ra, rb) {
                    self.fold_to(
                        *dst,
                        Opnd::KI(eval_fcmp(*cc, x, y) as i64),
                        rename,
                        buf,
                        stats,
                    );
                } else {
                    let xr = self.opnd_reg(ra, scratch, buf);
                    let yr = self.opnd_reg(rb, scratch, buf);
                    let r = self.reg_of(*dst);
                    buf.push(Emitted {
                        ins: Instr::FCmp {
                            cc: *cc,
                            dst: r,
                            a: xr,
                            b: yr,
                        },
                        deletable: true,
                        fixup: None,
                        templated: false,
                        patches: 0,
                        shape: 0,
                    });
                }
            }
            Inst::Un { op, dst, src: _ } => match ops[0] {
                Opnd::R(sr) => {
                    let r = self.reg_of(*dst);
                    buf.push(Emitted {
                        ins: Instr::Un {
                            op: *op,
                            dst: r,
                            src: sr,
                        },
                        deletable: true,
                        fixup: None,
                        templated: false,
                        patches: 0,
                        shape: 0,
                    });
                }
                k => {
                    let folded = eval_un(*op, opnd_value(k));
                    self.fold_to(*dst, value_opnd(folded), rename, buf, stats);
                }
            },
            Inst::Load { ty, dst, .. } => {
                let (breg, iop) = match (ops[0], ops[1]) {
                    (Opnd::KI(bv), Opnd::KI(iv)) => {
                        // Address fully known but contents dynamic: fold
                        // the whole address into the offset of a load from
                        // a zero base materialized once per unit.
                        let z = self.reg_for_const(Value::I(0), scratch, buf);
                        (z, Operand::Imm(bv + iv))
                    }
                    (Opnd::KI(bv), other) => {
                        let ir = self.opnd_reg(other, scratch, buf);
                        (ir, Operand::Imm(bv))
                    }
                    (other, Opnd::KI(iv)) => {
                        let br = self.opnd_reg(other, scratch, buf);
                        (br, Operand::Imm(iv))
                    }
                    (ob, oi) => {
                        let br = self.opnd_reg(ob, scratch, buf);
                        let ir = self.opnd_reg(oi, scratch, buf);
                        (br, Operand::Reg(ir))
                    }
                };
                let r = self.reg_of(*dst);
                buf.push(Emitted {
                    ins: Instr::Load {
                        ty: ty.vm_ty(),
                        dst: r,
                        base: breg,
                        idx: iop,
                    },
                    deletable: true,
                    fixup: None,
                    templated: false,
                    patches: 0,
                    shape: 0,
                });
            }
            Inst::Store { ty, .. } => {
                let sr = self.opnd_reg(ops[2], scratch, buf);
                let (breg, iop) = match (ops[0], ops[1]) {
                    (Opnd::KI(bv), Opnd::KI(iv)) => {
                        let z = self.reg_for_const(Value::I(0), scratch, buf);
                        (z, Operand::Imm(bv + iv))
                    }
                    (Opnd::KI(bv), other) => (self.opnd_reg(other, scratch, buf), Operand::Imm(bv)),
                    (other, Opnd::KI(iv)) => (self.opnd_reg(other, scratch, buf), Operand::Imm(iv)),
                    (ob, oi) => {
                        let br = self.opnd_reg(ob, scratch, buf);
                        let ir = self.opnd_reg(oi, scratch, buf);
                        (br, Operand::Reg(ir))
                    }
                };
                buf.push(Emitted {
                    ins: Instr::Store {
                        ty: ty.vm_ty(),
                        base: breg,
                        idx: iop,
                        src: sr,
                    },
                    deletable: false,
                    fixup: None,
                    templated: false,
                    patches: 0,
                    shape: 0,
                });
            }
            Inst::Call { callee, dst, .. } => {
                let arg_regs: Vec<Reg> = ops
                    .iter()
                    .map(|o| self.opnd_reg(*o, scratch, buf))
                    .collect();
                let d = dst.map(|d| self.reg_of(d));
                let ins = match callee {
                    Callee::Func { index, .. } => Instr::Call {
                        func: FuncId(*index as u32),
                        dst: d,
                        args: arg_regs,
                    },
                    Callee::Host(h) => Instr::CallHost {
                        f: *h,
                        dst: d,
                        args: arg_regs,
                    },
                };
                buf.push(Emitted {
                    ins,
                    deletable: false,
                    fixup: None,
                    templated: false,
                    patches: 0,
                    shape: 0,
                });
            }
            _ => unreachable!("annotations handled by the caller"),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_ibin(
        &mut self,
        op: IAluOp,
        dst: VReg,
        ra: Opnd,
        rb: Opnd,
        rename: &mut HashMap<VReg, Opnd>,
        scratch: &mut HashMap<u64, Reg>,
        buf: &mut Vec<Emitted>,
        costs: &DynCosts,
        stats: &mut RtStats,
    ) {
        self.exec_cycles += costs.opt_check;
        // Both operands known (only possible through renames): fold.
        if let (Opnd::KI(x), Opnd::KI(y)) = (ra, rb) {
            if let Ok(v) = eval_ialu(op, x, y) {
                self.fold_to(dst, Opnd::KI(v), rename, buf, stats);
                return;
            }
        }
        // Normalize: put a known operand of a commutative op on the right.
        let (ra, rb) = match (op, ra, rb) {
            (
                IAluOp::Add | IAluOp::Mul | IAluOp::And | IAluOp::Or | IAluOp::Xor,
                Opnd::KI(_),
                _,
            ) => (rb, ra),
            _ => (ra, rb),
        };

        if let Opnd::KI(k) = rb {
            if self.cfg.zero_copy_propagation {
                let fold = match op {
                    IAluOp::Mul if k == 0 => Some(Opnd::KI(0)),
                    IAluOp::Mul | IAluOp::Div if k == 1 => Some(ra),
                    IAluOp::Add | IAluOp::Sub | IAluOp::Or | IAluOp::Xor if k == 0 => Some(ra),
                    IAluOp::And if k == 0 => Some(Opnd::KI(0)),
                    IAluOp::Rem if k == 1 => Some(Opnd::KI(0)),
                    IAluOp::Shl | IAluOp::Shr if k == 0 => Some(ra),
                    _ => None,
                };
                if let Some(f) = fold {
                    stats.zero_copy_folds += 1;
                    if self.cfg.zero_copy_propagation {
                        rename.insert(dst, f);
                    }
                    return;
                }
            } else if self.cfg.strength_reduction {
                // Strength reduction alone still replaces the operation
                // with a cheaper one, but must write the destination.
                let simple = match op {
                    IAluOp::Mul if k == 0 => Some(mov_const(self.reg_of(dst), Value::I(0))),
                    IAluOp::Mul | IAluOp::Div if k == 1 => {
                        let ar = self.opnd_reg(ra, scratch, buf);
                        Some(Instr::Mov {
                            dst: self.reg_of(dst),
                            src: ar,
                        })
                    }
                    _ => None,
                };
                if let Some(ins) = simple {
                    stats.strength_reductions += 1;
                    buf.push(Emitted {
                        ins,
                        deletable: true,
                        fixup: None,
                        templated: false,
                        patches: 0,
                        shape: 0,
                    });
                    return;
                }
            }
            if self.cfg.strength_reduction && k > 1 && (k as u64).is_power_of_two() {
                let n = k.trailing_zeros() as i64;
                match op {
                    IAluOp::Mul => {
                        stats.strength_reductions += 1;
                        let ar = self.opnd_reg(ra, scratch, buf);
                        let r = self.reg_of(dst);
                        buf.push(Emitted {
                            ins: Instr::IAlu {
                                op: IAluOp::Shl,
                                dst: r,
                                a: ar,
                                b: Operand::Imm(n),
                            },
                            deletable: true,
                            fixup: None,
                            templated: false,
                            patches: 0,
                            shape: 0,
                        });
                        return;
                    }
                    IAluOp::Div => {
                        stats.strength_reductions += 1;
                        let ar = self.opnd_reg(ra, scratch, buf);
                        let r = self.reg_of(dst);
                        self.emit_div_pow2(ar, k, n, r, buf);
                        return;
                    }
                    IAluOp::Rem => {
                        stats.strength_reductions += 1;
                        let ar = self.opnd_reg(ra, scratch, buf);
                        let q = self.fresh_reg();
                        self.emit_div_pow2(ar, k, n, q, buf);
                        let t = self.fresh_reg();
                        let r = self.reg_of(dst);
                        buf.push(Emitted {
                            ins: Instr::IAlu {
                                op: IAluOp::Shl,
                                dst: t,
                                a: q,
                                b: Operand::Imm(n),
                            },
                            deletable: true,
                            fixup: None,
                            templated: false,
                            patches: 0,
                            shape: 0,
                        });
                        buf.push(Emitted {
                            ins: Instr::IAlu {
                                op: IAluOp::Sub,
                                dst: r,
                                a: ar,
                                b: Operand::Reg(t),
                            },
                            deletable: true,
                            fixup: None,
                            templated: false,
                            patches: 0,
                            shape: 0,
                        });
                        return;
                    }
                    _ => {}
                }
            }
            // Hole fits the immediate field.
            let ar = self.opnd_reg(ra, scratch, buf);
            let r = self.reg_of(dst);
            buf.push(Emitted {
                ins: Instr::IAlu {
                    op,
                    dst: r,
                    a: ar,
                    b: Operand::Imm(k),
                },
                deletable: true,
                fixup: None,
                templated: false,
                patches: 0,
                shape: 0,
            });
            return;
        }
        // Known left operand of a non-commutative op, or both registers.
        let ar = self.opnd_reg(ra, scratch, buf);
        let br = match rb {
            Opnd::R(r) => Operand::Reg(r),
            k => Operand::Reg(self.opnd_reg(k, scratch, buf)),
        };
        let r = self.reg_of(dst);
        buf.push(Emitted {
            ins: Instr::IAlu {
                op,
                dst: r,
                a: ar,
                b: br,
            },
            deletable: true,
            fixup: None,
            templated: false,
            patches: 0,
            shape: 0,
        });
    }

    /// Truncating (C-semantics) signed division by a power of two:
    /// bias negative dividends before shifting.
    fn emit_div_pow2(&mut self, a: Reg, k: i64, n: i64, dst: Reg, buf: &mut Vec<Emitted>) {
        let sign = self.fresh_reg();
        let bias = self.fresh_reg();
        let sum = self.fresh_reg();
        buf.push(Emitted {
            ins: Instr::IAlu {
                op: IAluOp::Shr,
                dst: sign,
                a,
                b: Operand::Imm(63),
            },
            deletable: true,
            fixup: None,
            templated: false,
            patches: 0,
            shape: 0,
        });
        buf.push(Emitted {
            ins: Instr::IAlu {
                op: IAluOp::And,
                dst: bias,
                a: sign,
                b: Operand::Imm(k - 1),
            },
            deletable: true,
            fixup: None,
            templated: false,
            patches: 0,
            shape: 0,
        });
        buf.push(Emitted {
            ins: Instr::IAlu {
                op: IAluOp::Add,
                dst: sum,
                a,
                b: Operand::Reg(bias),
            },
            deletable: true,
            fixup: None,
            templated: false,
            patches: 0,
            shape: 0,
        });
        buf.push(Emitted {
            ins: Instr::IAlu {
                op: IAluOp::Shr,
                dst,
                a: sum,
                b: Operand::Imm(n),
            },
            deletable: true,
            fixup: None,
            templated: false,
            patches: 0,
            shape: 0,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_fbin(
        &mut self,
        op: FAluOp,
        dst: VReg,
        ra: Opnd,
        rb: Opnd,
        rename: &mut HashMap<VReg, Opnd>,
        scratch: &mut HashMap<u64, Reg>,
        buf: &mut Vec<Emitted>,
        costs: &DynCosts,
        stats: &mut RtStats,
    ) {
        self.exec_cycles += costs.opt_check;
        if let (Opnd::KF(x), Opnd::KF(y)) = (ra, rb) {
            self.fold_to(dst, Opnd::KF(eval_falu(op, x, y)), rename, buf, stats);
            return;
        }
        let (ra, rb) = match (op, ra, rb) {
            (FAluOp::Add | FAluOp::Mul, Opnd::KF(_), _) => (rb, ra),
            _ => (ra, rb),
        };
        if let Opnd::KF(k) = rb {
            if self.cfg.zero_copy_propagation {
                // Dynamic zero and copy propagation (§2.2.7). Folding
                // x*0.0 to 0.0 assumes x is finite, the same assumption
                // DyC makes.
                let fold = match op {
                    FAluOp::Mul if k == 0.0 => Some(Opnd::KF(0.0)),
                    FAluOp::Mul | FAluOp::Div if k == 1.0 => Some(ra),
                    FAluOp::Add | FAluOp::Sub if k == 0.0 => Some(ra),
                    _ => None,
                };
                if let Some(f) = fold {
                    stats.zero_copy_folds += 1;
                    rename.insert(dst, f);
                    return;
                }
            } else if self.cfg.strength_reduction {
                // Strength reduction without copy propagation: the
                // multiply becomes a move — which costs the same as the
                // multiply on the 21164 (§2.2.7), so no benefit accrues.
                let simple = match op {
                    FAluOp::Mul if k == 1.0 => {
                        let ar = self.opnd_reg(ra, scratch, buf);
                        Some(Instr::FMov {
                            dst: self.reg_of(dst),
                            src: ar,
                        })
                    }
                    FAluOp::Mul if k == 0.0 => Some(Instr::MovF {
                        dst: self.reg_of(dst),
                        imm: 0.0,
                    }),
                    FAluOp::Add | FAluOp::Sub if k == 0.0 => {
                        let ar = self.opnd_reg(ra, scratch, buf);
                        Some(Instr::FMov {
                            dst: self.reg_of(dst),
                            src: ar,
                        })
                    }
                    _ => None,
                };
                if let Some(ins) = simple {
                    stats.strength_reductions += 1;
                    buf.push(Emitted {
                        ins,
                        deletable: true,
                        fixup: None,
                        templated: false,
                        patches: 0,
                        shape: 0,
                    });
                    return;
                }
            }
        }
        let ar = self.opnd_reg(ra, scratch, buf);
        let br = self.opnd_reg(rb, scratch, buf);
        let r = self.reg_of(dst);
        buf.push(Emitted {
            ins: Instr::FAlu {
                op,
                dst: r,
                a: ar,
                b: br,
            },
            deletable: true,
            fixup: None,
            templated: false,
            patches: 0,
            shape: 0,
        });
    }

    fn dae_sweep(
        &mut self,
        buf: Vec<Emitted>,
        mut live: RegSet,
        stats: &mut RtStats,
    ) -> Vec<Emitted> {
        if !self.cfg.dead_assignment_elimination {
            return buf;
        }
        let mut keep_rev: Vec<Emitted> = Vec::with_capacity(buf.len());
        for e in buf.into_iter().rev() {
            if e.deletable {
                if let Some(d) = e.ins.def() {
                    if !live.contains(d) {
                        stats.dae_removed += 1;
                        continue;
                    }
                }
            }
            if let Some(d) = e.ins.def() {
                live.remove(d);
            }
            e.ins.each_use(|u| live.insert(u));
            keep_rev.push(e);
        }
        keep_rev.reverse();
        keep_rev
    }

    /// Finish a unit: run the dead-assignment sweep (§2.2.7), record the
    /// unit's label, and append the surviving instructions with their
    /// branch fixups. Emission work is metered here, against survivors
    /// only — the cost model treats instructions the sweep deletes as
    /// free (their removal is what `dae_check` pays for). Constructed
    /// instructions pay `emit_instr`; template-copied instructions pay
    /// `template_copy` plus `hole_patch` per patched hole, which is what
    /// makes copy-and-patch the cheaper path per generated instruction.
    ///
    /// Returns `(template_instrs, holes_patched)` for this unit — the
    /// post-sweep template contribution, which the tracing layer records
    /// so event sums reconcile exactly with the `RtStats` totals.
    pub(crate) fn seal_unit(
        &mut self,
        id: u32,
        buf: Vec<Emitted>,
        live_regs: RegSet,
        costs: &DynCosts,
        stats: &mut RtStats,
    ) -> (u64, u64) {
        self.exec_cycles += costs.dae_check * buf.len() as u64;
        let kept = self.dae_sweep(buf, live_regs, stats);
        let label = self.sink.emitted() as u32;
        self.labels[id as usize] = label;
        self.sink.begin_unit(id, label);
        let (mut tmpl, mut holes) = (0u64, 0u64);
        for e in kept {
            if let Some(fk) = e.fixup {
                self.fixups.push((self.sink.emitted(), fk));
            }
            self.sink
                .push_shaped(e.ins, e.templated, e.patches, e.shape);
            if e.templated {
                let patch = costs.hole_patch * u64::from(e.patches);
                self.emit_cycles += costs.template_copy + patch;
                stats.template_copy_cycles += costs.template_copy;
                stats.hole_patch_cycles += patch;
                stats.template_instrs += 1;
                stats.holes_patched += u64::from(e.patches);
                tmpl += 1;
                holes += u64::from(e.patches);
            } else {
                self.emit_cycles += costs.emit_instr;
            }
        }
        (tmpl, holes)
    }

    /// Patch every recorded branch target once all units are emitted. The
    /// fixup keys resolve to labels here; the sink receives only final
    /// offsets.
    pub(crate) fn patch_fixups(&mut self, costs: &DynCosts) {
        for (at, key) in std::mem::take(&mut self.fixups) {
            let dest = self.labels[key as usize];
            debug_assert!(dest != u32::MAX, "all units emitted before patching");
            self.sink.patch_branch(at, dest);
            self.emit_cycles += costs.branch_patch;
        }
    }
}

pub(crate) fn mov_const(dst: Reg, v: Value) -> Instr {
    match v {
        Value::I(i) => Instr::MovI { dst, imm: i },
        Value::F(f) => Instr::MovF { dst, imm: f },
    }
}

pub(crate) fn opnd_value(o: Opnd) -> Value {
    match o {
        Opnd::KI(v) => Value::I(v),
        Opnd::KF(v) => Value::F(v),
        Opnd::R(_) => unreachable!("not a constant operand"),
    }
}

pub(crate) fn value_opnd(v: Value) -> Opnd {
    match v {
        Value::I(i) => Opnd::KI(i),
        Value::F(f) => Opnd::KF(f),
    }
}

fn eval_un(op: UnOp, v: Value) -> Value {
    match op {
        UnOp::NegI => Value::I(v.as_i().wrapping_neg()),
        UnOp::NotI => Value::I(!v.as_i()),
        UnOp::NegF => Value::F(-v.as_f()),
        UnOp::IToF => Value::F(v.as_i() as f64),
        UnOp::FToI => Value::I(v.as_f() as i64),
    }
}

fn eval_ialu(op: IAluOp, a: i64, b: i64) -> Result<i64, VmError> {
    Ok(match op {
        IAluOp::Add => a.wrapping_add(b),
        IAluOp::Sub => a.wrapping_sub(b),
        IAluOp::Mul => a.wrapping_mul(b),
        IAluOp::Div => {
            if b == 0 {
                return Err(VmError::Dispatch(
                    "static division by zero during specialization".into(),
                ));
            }
            a.wrapping_div(b)
        }
        IAluOp::Rem => {
            if b == 0 {
                return Err(VmError::Dispatch(
                    "static remainder by zero during specialization".into(),
                ));
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

fn eval_falu(op: FAluOp, a: f64, b: f64) -> f64 {
    match op {
        FAluOp::Add => a + b,
        FAluOp::Sub => a - b,
        FAluOp::Mul => a * b,
        FAluOp::Div => a / b,
    }
}

fn eval_icmp(cc: Cc, a: i64, b: i64) -> bool {
    match cc {
        Cc::Eq => a == b,
        Cc::Ne => a != b,
        Cc::Lt => a < b,
        Cc::Le => a <= b,
        Cc::Gt => a > b,
        Cc::Ge => a >= b,
    }
}

fn eval_fcmp(cc: Cc, a: f64, b: f64) -> bool {
    match cc {
        Cc::Eq => a == b,
        Cc::Ne => a != b,
        Cc::Lt => a < b,
        Cc::Le => a <= b,
        Cc::Gt => a > b,
        Cc::Ge => a >= b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::DynCosts;
    use crate::stats::RtStats;

    fn emitter(cfg: OptConfig, float_vreg: Vec<bool>) -> Emitter<u32> {
        Emitter::new(cfg, float_vreg)
    }

    fn plain(ins: Instr) -> Emitted {
        Emitted {
            ins,
            deletable: true,
            fixup: None,
            templated: false,
            patches: 0,
            shape: 0,
        }
    }

    fn kept(ins: Instr) -> Emitted {
        Emitted {
            deletable: false,
            ..plain(ins)
        }
    }

    #[test]
    fn regset_spans_word_boundaries() {
        let mut s = RegSet::new();
        for r in [0u32, 63, 64, 127, 128, 200] {
            s.insert(r);
        }
        for r in [0u32, 63, 64, 127, 128, 200] {
            assert!(s.contains(r), "r{r} should be present");
        }
        for r in [1u32, 62, 65, 126, 129, 199, 201] {
            assert!(!s.contains(r), "r{r} should be absent");
        }
        // Removing a bit clears only that bit, even mid-word.
        s.remove(64);
        assert!(!s.contains(64));
        assert!(s.contains(63) && s.contains(127));
        // Removing past the last allocated word is a no-op, not a panic.
        s.remove(100_000);
        assert!(!s.contains(100_000));
    }

    #[test]
    fn interning_assigns_dense_ids_once() {
        let mut em = emitter(OptConfig::all(), vec![]);
        let a = em.intern(7);
        let b = em.intern(9);
        assert_eq!((a, b), (0, 1), "ids are dense in first-sight order");
        assert_eq!(em.intern(7), a, "re-interning hits the cache");
        assert!(!em.sealed(a) && !em.sealed(b));

        let costs = DynCosts::calibrated();
        let mut stats = RtStats::default();
        em.seal_unit(a, Vec::new(), RegSet::new(), &costs, &mut stats);
        assert!(em.sealed(a));
        assert!(!em.sealed(b), "sealing one unit does not label another");
        assert_eq!(
            em.intern(7),
            a,
            "interning after sealing still reuses the id"
        );
    }

    #[test]
    fn forward_and_backward_fixups_patch_all_branch_kinds() {
        let mut em = emitter(OptConfig::all(), vec![]);
        let costs = DynCosts::calibrated();
        let mut stats = RtStats::default();
        let a = em.intern(0);
        let b = em.intern(1);

        // Unit a branches forward to b (unsealed at fixup-record time)
        // with both an unconditional and a conditional branch.
        let buf_a = vec![
            kept(Instr::MovI { dst: 0, imm: 1 }),
            Emitted {
                fixup: Some(b),
                ..kept(Instr::Jmp { target: u32::MAX })
            },
            Emitted {
                fixup: Some(b),
                ..kept(Instr::Brnz {
                    cond: 0,
                    target: u32::MAX,
                })
            },
        ];
        em.seal_unit(a, buf_a, RegSet::new(), &costs, &mut stats);

        // Unit b branches backward to the already-sealed a.
        let buf_b = vec![Emitted {
            fixup: Some(a),
            ..kept(Instr::Brz {
                cond: 0,
                target: u32::MAX,
            })
        }];
        em.seal_unit(b, buf_b, RegSet::new(), &costs, &mut stats);

        let before = em.emit_cycles;
        em.patch_fixups(&costs);
        assert_eq!(
            em.emit_cycles - before,
            3 * costs.branch_patch,
            "each recorded fixup pays one branch patch"
        );
        // a's label is 0, b's label is 3 (a emitted three instructions).
        assert_eq!(em.code()[1], Instr::Jmp { target: 3 });
        assert_eq!(em.code()[2], Instr::Brnz { cond: 0, target: 3 });
        assert_eq!(em.code()[3], Instr::Brz { cond: 0, target: 0 });
        assert!(em.fixups.is_empty(), "patching drains the fixup table");
    }

    #[test]
    fn fixup_into_a_templated_instruction() {
        let mut em = emitter(OptConfig::all(), vec![]);
        let costs = DynCosts::calibrated();
        let mut stats = RtStats::default();
        let id = em.intern(0);

        // A template-copied branch: metered at copy+patch cost, and its
        // fixup must be recorded exactly like a constructed branch's.
        let buf = vec![Emitted {
            ins: Instr::Jmp { target: u32::MAX },
            deletable: false,
            fixup: Some(id),
            templated: true,
            patches: 2,
            shape: 0,
        }];
        em.seal_unit(id, buf, RegSet::new(), &costs, &mut stats);
        assert_eq!(stats.template_instrs, 1);
        assert_eq!(stats.holes_patched, 2);
        assert_eq!(
            em.emit_cycles,
            costs.template_copy + 2 * costs.hole_patch,
            "templated instructions pay copy + per-hole patch, not emit_instr"
        );

        em.patch_fixups(&costs);
        assert_eq!(
            em.code()[0],
            Instr::Jmp { target: 0 },
            "self-loop patched to own label"
        );
    }

    #[test]
    fn fixups_from_different_units_reuse_one_label() {
        let mut em = emitter(OptConfig::all(), vec![]);
        let costs = DynCosts::calibrated();
        let mut stats = RtStats::default();
        let target = em.intern(0);
        let u1 = em.intern(1);
        let u2 = em.intern(2);

        em.seal_unit(
            u1,
            vec![Emitted {
                fixup: Some(target),
                ..kept(Instr::Jmp { target: u32::MAX })
            }],
            RegSet::new(),
            &costs,
            &mut stats,
        );
        em.seal_unit(
            u2,
            vec![Emitted {
                fixup: Some(target),
                ..kept(Instr::Jmp { target: u32::MAX })
            }],
            RegSet::new(),
            &costs,
            &mut stats,
        );
        em.seal_unit(
            target,
            vec![kept(Instr::MovI { dst: 0, imm: 0 })],
            RegSet::new(),
            &costs,
            &mut stats,
        );
        em.patch_fixups(&costs);
        assert_eq!(em.code()[0], Instr::Jmp { target: 2 });
        assert_eq!(em.code()[1], Instr::Jmp { target: 2 });
    }

    #[test]
    fn flush_renames_selects_moves_by_float_flag() {
        // v0 int ← r5, v1 float ← r6, v2 int ← 9, v3 float ← 2.5.
        let mut em = emitter(OptConfig::all(), vec![false, true, false, true]);
        let mut rename: HashMap<VReg, Opnd> = HashMap::new();
        rename.insert(VReg(0), Opnd::R(5));
        rename.insert(VReg(1), Opnd::R(6));
        rename.insert(VReg(2), Opnd::KI(9));
        rename.insert(VReg(3), Opnd::KF(2.5));
        // Burn registers so the flushed homes don't collide with r5/r6.
        em.next_reg = 10;

        let mut buf = Vec::new();
        let mut live = RegSet::new();
        em.flush_renames(&mut rename, &mut buf, |_| true, Some(&mut live));
        assert!(rename.is_empty(), "flushing drains the rename table");

        let ins: Vec<Instr> = buf.iter().map(|e| e.ins.clone()).collect();
        assert_eq!(
            ins,
            vec![
                Instr::Mov { dst: 10, src: 5 },
                Instr::FMov { dst: 11, src: 6 },
                Instr::MovI { dst: 12, imm: 9 },
                Instr::MovF { dst: 13, imm: 2.5 },
            ],
            "deterministic vreg order; FMov only for float-flagged vregs"
        );
        for r in 10..14 {
            assert!(live.contains(r), "flushed homes are marked live");
        }
    }

    #[test]
    fn flush_renames_respects_keep_and_skips_self_moves() {
        let mut em = emitter(OptConfig::all(), vec![false, false]);
        // v0's home *is* r3: a rename back to it needs no move.
        em.set_reg(VReg(0), 3);
        let mut rename: HashMap<VReg, Opnd> = HashMap::new();
        rename.insert(VReg(0), Opnd::R(3));
        rename.insert(VReg(1), Opnd::KI(7));

        let mut buf = Vec::new();
        em.flush_renames(&mut rename, &mut buf, |v| v == VReg(0), None);
        assert!(
            buf.is_empty(),
            "v0 is a self-move and v1 is dropped by the keep filter"
        );
    }

    #[test]
    fn seal_unit_sweeps_dead_assignments_against_live_regs() {
        let costs = DynCosts::calibrated();

        // r0 is dead, r1 is live; the deletable write to r0 vanishes.
        let mut em = emitter(OptConfig::all(), vec![]);
        let mut stats = RtStats::default();
        let id = em.intern(0);
        let buf = vec![
            plain(Instr::MovI { dst: 0, imm: 1 }),
            plain(Instr::MovI { dst: 1, imm: 2 }),
        ];
        let exec_before = em.exec_cycles;
        let mut live = RegSet::new();
        live.insert(1);
        em.seal_unit(id, buf, live, &costs, &mut stats);
        assert_eq!(em.code(), vec![Instr::MovI { dst: 1, imm: 2 }]);
        assert_eq!(stats.dae_removed, 1);
        assert_eq!(
            em.exec_cycles - exec_before,
            2 * costs.dae_check,
            "the sweep is metered per buffered instruction, survivors or not"
        );
        assert_eq!(
            em.emit_cycles, costs.emit_instr,
            "only survivors pay emission"
        );

        // The sweep is a backward liveness pass: a def consumed by a kept
        // instruction survives even if not live at the unit boundary.
        let mut em = emitter(OptConfig::all(), vec![]);
        let mut stats = RtStats::default();
        let id = em.intern(0);
        let buf = vec![
            plain(Instr::MovI { dst: 0, imm: 1 }),
            plain(Instr::Mov { dst: 1, src: 0 }),
        ];
        let mut live = RegSet::new();
        live.insert(1);
        em.seal_unit(id, buf, live, &costs, &mut stats);
        assert_eq!(em.code().len(), 2);
        assert_eq!(stats.dae_removed, 0);

        // With the optimization off the dead write is kept.
        let cfg = OptConfig::all()
            .without("dead_assignment_elimination")
            .unwrap();
        let mut em = emitter(cfg, vec![]);
        let mut stats = RtStats::default();
        let id = em.intern(0);
        let buf = vec![plain(Instr::MovI { dst: 0, imm: 1 })];
        em.seal_unit(id, buf, RegSet::new(), &costs, &mut stats);
        assert_eq!(em.code().len(), 1);
        assert_eq!(stats.dae_removed, 0);
    }

    /// Drive an identical seal/patch sequence into any backend.
    fn drive<S: CodeSink>(em: &mut Emitter<u32, S>, stats: &mut RtStats, costs: &DynCosts) {
        let a = em.intern(0);
        let b = em.intern(1);
        let buf_a = vec![
            kept(Instr::MovI { dst: 0, imm: 1 }),
            Emitted {
                fixup: Some(b),
                ..kept(Instr::Jmp { target: u32::MAX })
            },
        ];
        em.seal_unit(a, buf_a, RegSet::new(), costs, stats);
        let buf_b = vec![Emitted {
            ins: Instr::Brz {
                cond: 0,
                target: u32::MAX,
            },
            deletable: false,
            fixup: Some(a),
            templated: true,
            patches: 1,
            shape: 0,
        }];
        em.seal_unit(b, buf_b, RegSet::new(), costs, stats);
        em.patch_fixups(costs);
    }

    #[test]
    fn emission_is_sink_agnostic() {
        use crate::sink::{RecordingSink, SinkOp};
        let costs = DynCosts::calibrated();
        let mut vm: Emitter<u32> = emitter(OptConfig::all(), vec![]);
        let mut stats = RtStats::default();
        drive(&mut vm, &mut stats, &costs);

        let mut rec: Emitter<u32, RecordingSink> = Emitter::new(OptConfig::all(), vec![]);
        let mut stats2 = RtStats::default();
        drive(&mut rec, &mut stats2, &costs);

        assert_eq!(
            rec.sink.replay(),
            vm.code(),
            "every backend observes the identical instruction stream"
        );
        assert_eq!(
            (vm.exec_cycles, vm.emit_cycles),
            (rec.exec_cycles, rec.emit_cycles),
            "cycle metering lives in the emitter, not the sink"
        );
        // The recording backend also sees the unit boundaries VmSink
        // ignores: unit b starts at offset 2.
        assert!(rec.sink.ops.contains(&SinkOp::Begin(1, 2)));
    }

    #[test]
    fn constants_materialize_at_most_once_per_unit() {
        let mut em = emitter(OptConfig::all(), vec![]);
        let mut scratch: HashMap<u64, Reg> = HashMap::new();
        let mut buf = Vec::new();
        let r1 = em.opnd_reg(Opnd::KI(42), &mut scratch, &mut buf);
        let r2 = em.opnd_reg(Opnd::KI(42), &mut scratch, &mut buf);
        let r3 = em.opnd_reg(Opnd::KI(43), &mut scratch, &mut buf);
        assert_eq!(r1, r2, "same value reuses the scratch register");
        assert_ne!(r1, r3);
        assert_eq!(buf.len(), 2, "one materializing move per distinct value");
        // An existing register passes through untouched.
        assert_eq!(em.opnd_reg(Opnd::R(99), &mut scratch, &mut buf), 99);
        assert_eq!(buf.len(), 2);
    }
}
