//! The staged generating-extension executor — the run-time half of true
//! staging.
//!
//! Where the online `Specializer` re-derives
//! binding times, liveness, and unroll legality on every specialization,
//! this executor just **interprets a precompiled GE program**
//! ([`dyc_stage::GeProgram`], built once at static compile time): a flat
//! list of ops per *division* (program point + static-variable set), with
//! all decisions that depend only on the set already taken. What remains
//! at run time is exactly the value-dependent work (§2.1's "the only
//! remaining work is to execute the static computations and copy the
//! pre-optimized templates"):
//!
//! * executing `Eval` ops against the static store and live VM state,
//! * copying fused `EmitTemplate` runs — `extend_from_slice` plus a hole-
//!   patch loop — after checking their value guards,
//! * filling holes while emitting unfused `EmitHole` templates (with
//!   dynamic zero/copy propagation and strength reduction on the actual
//!   values),
//! * folding `StaticBr`/`StaticSwitch` on store values — complete loop
//!   unrolling — and memoizing units by `(division, value vector)`,
//! * materializing demotions listed in the precomputed `EdgePlan`s.
//!
//! It performs **zero** run-time binding-time classifications or liveness
//! queries (`RtStats::runtime_bta_calls` stays untouched here) and emits
//! code byte-identical to the online path, because all value-dependent
//! machinery is the shared `Emitter`, driven in the same order. Units
//! are interned to dense ids on first sight, so the worklist, labels, and
//! edge instrumentation do no repeated key hashing.

use crate::costs::DynCosts;
use crate::emitter::{mov_const, opnd_value, Emitted, Emitter, Opnd, RegSet};
use crate::native::NativeArtifact;
use crate::runtime::{Site, Store};
use crate::sink::{InstallSink, NativeSink};
use crate::stats::{RtStats, Sinks};
use dyc_ir::{BlockId, VReg};
use dyc_obs::EventKind;
use dyc_stage::{
    ibin_special_case, AbsAlias, EdgePlan, GeFunc, GeOp, GeTerm, Guard, PatchOp, Slot,
    StagedProgram, Template,
};
use dyc_vm::{Cc, FuncId, Instr, Module, Operand, Reg, Value, Vm, VmError};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Specialization instruction budget: a specialization that emits more
/// instructions than this is aborted (guards non-terminating static
/// loops).
pub(crate) const SPEC_BUDGET: u64 = 4_000_000;

/// Where freshly created internal promotion sites are registered.
///
/// The generating extensions are host-agnostic: the single-threaded
/// [`crate::Runtime`]'s store appends to its private site vector, while
/// the concurrent runtime's ([`crate::concurrent`]) appends to an
/// `Arc`-shared site table under a write lock. Returns the new site's dispatch point
/// id — the id is embedded in the emitted `Dispatch` instruction, so
/// hosts must hand out ids from the same numbering the dispatch handler
/// resolves later.
pub(crate) trait SpecHost {
    /// Register `site`, returning its dispatch point id.
    fn add_site(&mut self, site: Site) -> u32;
}

/// The read/metering context a specialization runs against — the
/// staged program plus the dispatch handler's meter sinks — shared by
/// the GE executor and the online specializer, so neither borrows a
/// whole runtime.
pub(crate) struct SpecEnv<'a> {
    /// The staged program (GE programs, IR, config).
    pub staged: &'a StagedProgram,
    /// Cost constants.
    pub costs: DynCosts,
    /// Where the specialization's meters go (the handler's own stats
    /// and trace, plus a shared runtime's live and global sinks).
    pub sinks: Sinks<'a>,
    /// The dispatch point being specialized.
    pub point: u32,
    /// The dispatch key being specialized (its words, without the site).
    pub key: &'a [u64],
}

impl SpecEnv<'_> {
    pub(crate) fn charge(&mut self, vm: &mut Vm, cycles: u64) {
        self.sinks.stats.dyncomp_cycles += cycles;
        vm.stats.dyncomp_cycles += cycles;
    }

    /// Meter an event of this specialization, tagged with its point and
    /// key.
    pub(crate) fn note(&mut self, kind: EventKind, cycle: u64, a: u64) {
        self.sinks.note(kind, self.point, self.key, cycle, a, 0);
    }
}

/// Unit identity in the staged path: the division (which *is* the program
/// point plus static-variable set, interned at stage time) plus the
/// concrete values, in the division's sorted variable order. Bijective
/// with the online path's `(block, start, sorted store)` key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GeKey {
    division: u32,
    vals: Vec<u64>,
}

fn ge_key(division: u32, store: &Store) -> GeKey {
    GeKey {
        division,
        vals: store.values().map(|v| v.key_bits()).collect(),
    }
}

/// The flat GE-program executor. See the module docs for what it stages
/// away; it is driven by the dispatch handlers ([`crate::Runtime`] and
/// the concurrent runtime) on cache misses and is not invoked directly.
///
/// # Examples
///
/// The executor is exercised through the staged dynamic path; the
/// `runtime_bta_calls` counter proves no binding-time analysis ran at
/// dynamic-compile time:
///
/// ```
/// use dyc_bta::OptConfig;
/// use dyc_rt::Runtime;
/// use dyc_vm::{CostModel, Value, Vm};
///
/// let src = "int pow(int b, int e) { make_static(e);
///            int r = 1; while (e > 0) { r = r * b; e = e - 1; } return r; }";
/// let mut ir = dyc_ir::lower_program(&dyc_lang::parse_program(src).unwrap()).unwrap();
/// dyc_ir::opt::optimize_program(&mut ir);
/// let staged = dyc_stage::stage_program(ir, OptConfig::all());
/// let mut module = staged.build_module();
/// let mut rt = Runtime::new(staged);
/// let mut vm = Vm::new(CostModel::alpha21164());
/// let id = module.func_by_name("pow").unwrap();
/// let out = vm
///     .call_with_handler(&mut module, &mut rt, id, &[Value::I(3), Value::I(4)])
///     .unwrap();
/// assert_eq!(out, Some(Value::I(81)));
/// assert_eq!(rt.stats.specializations, 1);
/// assert_eq!(rt.stats.runtime_bta_calls, 0); // all BTA happened at stage time
/// ```
pub struct GeExecutor {
    gef: Arc<GeFunc>,
    fidx: usize,
    em: Emitter<GeKey, InstallSink>,
    worklist: Vec<(u32, Store)>,
    /// Division of each interned unit id (parallel to the emitter's
    /// label table).
    unit_division: Vec<u32>,
    // Instrumentation (mirrors the online specializer exactly).
    header_units: HashMap<BlockId, HashSet<u32>>,
    unit_edges: Vec<(u32, u32)>,
    cur_unit: Option<u32>,
    division_sets: HashMap<BlockId, HashSet<Vec<u32>>>,
}

impl GeExecutor {
    /// Specialize `site` for the given store by executing its function's
    /// GE program from `division`. New internal promotion sites are
    /// registered through `host`; everything read or metered comes from
    /// `env`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        env: &mut SpecEnv<'_>,
        host: &mut dyn SpecHost,
        site: &Site,
        store: Store,
        division: u32,
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<(FuncId, Option<NativeArtifact>), VmError> {
        let gef = env.staged.ge.funcs[site.func]
            .as_ref()
            .expect("site carries a division only for staged functions")
            .clone();
        let fname = env.staged.ir.funcs[site.func].name.clone();
        let mut ex = GeExecutor {
            fidx: site.func,
            em: Emitter::new(env.staged.cfg, gef.float_vreg.clone()),
            worklist: Vec::new(),
            unit_division: Vec::new(),
            header_units: HashMap::new(),
            unit_edges: Vec::new(),
            cur_unit: None,
            division_sets: HashMap::new(),
            gef,
        };
        if env.staged.cfg.native {
            // Upgrade the install backend: lower each sealed
            // instruction to x86-64 bytes as it lands. The VM mirror
            // stays authoritative and byte-identical either way.
            ex.em.sink = InstallSink::Native(NativeSink::default());
        }

        // Dynamic pass-through parameters, in arg order.
        let dyn_params: Vec<VReg> = site
            .arg_vars
            .iter()
            .filter(|v| !store.contains_key(v))
            .copied()
            .collect();
        for (i, v) in dyn_params.iter().enumerate() {
            ex.em.set_reg(*v, i as u32);
        }
        ex.em.next_reg = dyn_params.len() as u32;

        let entry = ex.unit_id(division, &store);
        ex.worklist.push((entry, store));
        while let Some((id, st)) = ex.worklist.pop() {
            if ex.em.sealed(id) {
                continue;
            }
            ex.emit_chain(id, st, env, host, module, vm)?;
        }

        ex.em.patch_fixups(&env.costs);

        for (h, units) in &ex.header_units {
            if units.len() < 2 {
                continue;
            }
            env.sinks.stats.loops_unrolled += 1;
            if ex.loop_is_multiway(*h, units) {
                env.sinks.stats.multi_way_unroll = true;
            }
        }

        env.sinks.stats.divisions_observed +=
            ex.division_sets.values().filter(|s| s.len() >= 2).count() as u64;
        env.sinks.stats.instrs_generated += ex.em.emitted() as u64;
        env.sinks.stats.ge_exec_cycles += ex.em.exec_cycles;
        env.sinks.stats.emit_cycles += ex.em.emit_cycles;
        let cycles = ex.em.total_cycles();
        env.charge(vm, cycles);

        let name = format!("{fname}$spec{}", module.len());
        let mut cf = dyc_vm::CodeFunc::new(name, dyn_params.len(), ex.em.next_reg.max(1) as usize);
        let (code, native) = ex.em.take_install();
        cf.code = code;
        Ok((module.add_func(cf), native))
    }

    /// Intern the unit `(division, store values)`, recording the id's
    /// division on first sight.
    fn unit_id(&mut self, division: u32, store: &Store) -> u32 {
        let id = self.em.intern(ge_key(division, store));
        if id as usize == self.unit_division.len() {
            self.unit_division.push(division);
        }
        id
    }

    fn division_of(&self, id: u32) -> u32 {
        self.unit_division[id as usize]
    }

    fn emit_chain(
        &mut self,
        id: u32,
        store: Store,
        env: &mut SpecEnv<'_>,
        host: &mut dyn SpecHost,
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<(), VmError> {
        let mut cur = Some((id, store));
        while let Some((id, store)) = cur.take() {
            if self.em.sealed(id) {
                break;
            }
            if self.em.emitted() as u64 > SPEC_BUDGET {
                return Err(VmError::Dispatch(
                    "specialization exceeded its instruction budget (non-terminating static control flow?)"
                        .into(),
                ));
            }
            let d = &self.gef.divisions[self.division_of(id) as usize];
            let block = d.block;
            if self.gef.loop_headers.contains(&block) && !d.vars.is_empty() {
                self.header_units.entry(block).or_default().insert(id);
            }
            let var_set: Vec<u32> = d.vars.iter().map(|v| v.0).collect();
            self.division_sets.entry(block).or_default().insert(var_set);
            cur = self.emit_unit(id, store, env, host, module, vm)?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines, clippy::too_many_arguments)]
    fn emit_unit(
        &mut self,
        id: u32,
        mut store: Store,
        env: &mut SpecEnv<'_>,
        host: &mut dyn SpecHost,
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<Option<(u32, Store)>, VmError> {
        // Borrow the division through a second handle on the program
        // rather than deep-copying it (its ops own template code) per unit.
        let gef = Arc::clone(&self.gef);
        let d = &gef.divisions[self.division_of(id) as usize];
        self.cur_unit = Some(id);
        let mut rename: HashMap<VReg, Opnd> = HashMap::new();
        let mut scratch: HashMap<u64, Reg> = HashMap::new();
        let mut buf: Vec<Emitted> = Vec::new();
        let costs = env.costs;
        self.em.exec_cycles += costs.per_unit;
        env.sinks.stats.units_emitted += 1;
        // Set to false by the first failed template guard: a value hit an
        // emit-time special case the templates preassumed away, so the
        // concrete rename state diverges from what later templates were
        // compiled against. The rest of the unit then re-emits every
        // template's `fallback` ops per-instruction (the pre-fusion path).
        let mut templates_ok = true;

        for op in &d.ops {
            // One table fetch + dispatch per precompiled GE op — the whole
            // per-instruction decision cost of the staged path.
            self.em.exec_cycles += costs.ge_op;
            match op {
                GeOp::Eval(inst) => {
                    self.em.exec_static(
                        inst,
                        &mut store,
                        &mut rename,
                        &costs,
                        env.sinks.stats,
                        module,
                        vm,
                    )?;
                }
                GeOp::EmitHole { inst, reads_after } => {
                    let rl = |v: VReg| reads_after.binary_search(&v).is_ok();
                    self.em.emit_dynamic(
                        inst,
                        &rl,
                        &mut store,
                        &mut rename,
                        &mut scratch,
                        &mut buf,
                        &costs,
                        env.sinks.stats,
                    );
                }
                GeOp::DemoteMaterialize { vars } => {
                    for v in vars {
                        let val = store
                            .remove(v)
                            .expect("demoted variables are static in their division");
                        let r = self.em.reg_of(*v);
                        buf.push(Emitted {
                            ins: mov_const(r, val),
                            deletable: true,
                            fixup: None,
                            templated: false,
                            patches: 0,
                            shape: 0,
                        });
                    }
                }
                GeOp::EmitTemplate(t) => self.exec_template(
                    t,
                    &mut templates_ok,
                    &mut store,
                    &mut rename,
                    &mut scratch,
                    &mut buf,
                    &costs,
                    env.sinks.stats,
                ),
            }
        }

        // Regs that must survive the unit (for dead-assignment elimination).
        let mut live_regs = RegSet::new();
        let mut chain: Option<(u32, Store)> = None;

        if let GeTerm::Promote(p) = &d.term {
            // Internal dynamic-to-static promotion, fully precomputed: the
            // unit ends with a dispatch resuming at `p.resume_division`.
            self.em.flush_renames(
                &mut rename,
                &mut buf,
                |v| p.live.binary_search(&v).is_ok(),
                None,
            );
            let base_store: Store = p.carried.iter().map(|v| (*v, store[v])).collect();
            let new_site = host.add_site(Site {
                func: self.fidx,
                block: d.block,
                inst_idx: p.at,
                base_store,
                key_vars: p.key_vars.clone(),
                arg_vars: p.args.clone(),
                policy: p.policy,
                division: Some(p.resume_division),
                key_pos: Vec::new(),
                dyn_pos: Vec::new(),
            });
            self.em.exec_cycles += costs.new_site;
            env.note(
                EventKind::Promotion,
                vm.stats.total_cycles(),
                u64::from(new_site),
            );
            let args: Vec<Reg> = p.args.iter().map(|v| self.em.reg_of(*v)).collect();
            for r in &args {
                live_regs.insert(*r);
            }
            let dst = self.gef.ret_has_value.then(|| self.em.fresh_reg());
            buf.push(Emitted {
                ins: Instr::Dispatch {
                    point: new_site,
                    dst,
                    args,
                },
                deletable: false,
                fixup: None,
                templated: false,
                patches: 0,
                shape: 0,
            });
            buf.push(Emitted {
                ins: Instr::Ret { src: dst },
                deletable: false,
                fixup: None,
                templated: false,
                patches: 0,
                shape: 0,
            });
        } else {
            // Terminator: precomputed flush/keep sets, then the edge plans.
            self.em.flush_renames(
                &mut rename,
                &mut buf,
                |v| d.flush_keep.binary_search(&v).is_ok(),
                Some(&mut live_regs),
            );
            for v in &d.live_out_dyn {
                let r = self.em.reg_of(*v);
                live_regs.insert(r);
            }
            match &d.term {
                GeTerm::Jmp(plan) => {
                    chain = self.take_edge(plan, &store, &mut buf, &mut live_regs);
                }
                GeTerm::StaticBr { cond, t, f } => {
                    env.sinks.stats.branches_folded += 1;
                    let taken = match store[cond] {
                        Value::I(v) => v != 0,
                        Value::F(v) => v != 0.0,
                    };
                    let plan = if taken { t } else { f };
                    chain = self.take_edge(plan, &store, &mut buf, &mut live_regs);
                }
                GeTerm::DynBr { cond, t, f } => {
                    match self.em.resolve(*cond, &store, &rename) {
                        // The rename table can still fold a "dynamic"
                        // branch when the condition renamed to a constant.
                        Opnd::KI(v) => {
                            env.sinks.stats.branches_folded += 1;
                            let plan = if v != 0 { t } else { f };
                            chain = self.take_edge(plan, &store, &mut buf, &mut live_regs);
                        }
                        Opnd::KF(v) => {
                            env.sinks.stats.branches_folded += 1;
                            let plan = if v != 0.0 { t } else { f };
                            chain = self.take_edge(plan, &store, &mut buf, &mut live_regs);
                        }
                        Opnd::R(r) => {
                            live_regs.insert(r);
                            let (id_t, store_t) =
                                self.apply_edge(t, &store, &mut buf, &mut live_regs);
                            let (id_f, store_f) =
                                self.apply_edge(f, &store, &mut buf, &mut live_regs);
                            buf.push(Emitted {
                                ins: Instr::Brnz { cond: r, target: 0 },
                                deletable: false,
                                fixup: Some(id_t),
                                templated: false,
                                patches: 0,
                                shape: 0,
                            });
                            if !self.em.sealed(id_t) {
                                self.worklist.push((id_t, store_t));
                            }
                            if self.em.sealed(id_f) {
                                buf.push(Emitted {
                                    ins: Instr::Jmp { target: 0 },
                                    deletable: false,
                                    fixup: Some(id_f),
                                    templated: false,
                                    patches: 0,
                                    shape: 0,
                                });
                            } else {
                                chain = Some((id_f, store_f));
                            }
                        }
                    }
                }
                GeTerm::StaticSwitch { on, cases, default } => {
                    env.sinks.stats.branches_folded += 1;
                    let v = store[on].as_i();
                    let plan = cases
                        .iter()
                        .find_map(|(k, p)| (*k == v).then_some(p))
                        .unwrap_or(default);
                    chain = self.take_edge(plan, &store, &mut buf, &mut live_regs);
                }
                GeTerm::DynSwitch { on, cases, default } => {
                    match self.em.resolve(*on, &store, &rename) {
                        Opnd::KI(v) => {
                            env.sinks.stats.branches_folded += 1;
                            let plan = cases
                                .iter()
                                .find_map(|(k, p)| (*k == v).then_some(p))
                                .unwrap_or(default);
                            chain = self.take_edge(plan, &store, &mut buf, &mut live_regs);
                        }
                        Opnd::KF(_) => unreachable!("switch scrutinee is int"),
                        Opnd::R(r) => {
                            live_regs.insert(r);
                            let tmp = self.em.fresh_reg();
                            for (k, plan) in cases {
                                let (cid, st) =
                                    self.apply_edge(plan, &store, &mut buf, &mut live_regs);
                                buf.push(Emitted {
                                    ins: Instr::ICmp {
                                        cc: Cc::Eq,
                                        dst: tmp,
                                        a: r,
                                        b: Operand::Imm(*k),
                                    },
                                    deletable: false,
                                    fixup: None,
                                    templated: false,
                                    patches: 0,
                                    shape: 0,
                                });
                                buf.push(Emitted {
                                    ins: Instr::Brnz {
                                        cond: tmp,
                                        target: 0,
                                    },
                                    deletable: false,
                                    fixup: Some(cid),
                                    templated: false,
                                    patches: 0,
                                    shape: 0,
                                });
                                if !self.em.sealed(cid) {
                                    self.worklist.push((cid, st));
                                }
                            }
                            let (id_d, store_d) =
                                self.apply_edge(default, &store, &mut buf, &mut live_regs);
                            if self.em.sealed(id_d) {
                                buf.push(Emitted {
                                    ins: Instr::Jmp { target: 0 },
                                    deletable: false,
                                    fixup: Some(id_d),
                                    templated: false,
                                    patches: 0,
                                    shape: 0,
                                });
                            } else {
                                chain = Some((id_d, store_d));
                            }
                        }
                    }
                }
                GeTerm::Ret(v) => {
                    let src = v.map(|v| match self.em.resolve(v, &store, &rename) {
                        Opnd::R(r) => r,
                        k => {
                            let r = self.em.fresh_reg();
                            buf.push(Emitted {
                                ins: mov_const(r, opnd_value(k)),
                                deletable: false,
                                fixup: None,
                                templated: false,
                                patches: 0,
                                shape: 0,
                            });
                            r
                        }
                    });
                    if let Some(r) = src {
                        live_regs.insert(r);
                    }
                    buf.push(Emitted {
                        ins: Instr::Ret { src },
                        deletable: false,
                        fixup: None,
                        templated: false,
                        patches: 0,
                        shape: 0,
                    });
                }
                GeTerm::Promote(_) => unreachable!("handled above"),
            }
        }

        let (tmpl, holes) = self
            .em
            .seal_unit(id, buf, live_regs, &costs, env.sinks.stats);
        if tmpl > 0 {
            let cyc = vm.stats.total_cycles();
            env.note(EventKind::TemplateCopy, cyc, tmpl);
            if holes > 0 {
                env.note(EventKind::HolePatch, cyc, holes);
            }
        }
        Ok(chain)
    }

    /// Execute one fused template: check its value guards, copy the
    /// prebuilt instruction block wholesale, replay the patch list, and
    /// apply the run's net rename/store effects. On a failed guard — or
    /// any earlier failure in this unit — re-emit the template's original
    /// ops per-instruction instead (the exact pre-fusion path).
    #[allow(clippy::too_many_arguments)]
    fn exec_template(
        &mut self,
        t: &Template,
        templates_ok: &mut bool,
        store: &mut Store,
        rename: &mut HashMap<VReg, Opnd>,
        scratch: &mut HashMap<u64, Reg>,
        buf: &mut Vec<Emitted>,
        costs: &DynCosts,
        stats: &mut RtStats,
    ) {
        if *templates_ok {
            for g in &t.guards {
                let Guard::IBinFoldFree { op, var } = g;
                let k = store[var].as_i();
                if ibin_special_case(
                    self.em.cfg.zero_copy_propagation,
                    self.em.cfg.strength_reduction,
                    *op,
                    k,
                ) {
                    stats.template_fallbacks += 1;
                    *templates_ok = false;
                    break;
                }
            }
            if *templates_ok {
                // The guard pass replaces the emitter's per-op special-case
                // checks, so it is charged at the same rate — but only on
                // success: when a guard fails, the fallback's `emit_dynamic`
                // redoes (and re-charges) the same classification, so the
                // failed attempt must not pay for it twice.
                self.em.exec_cycles += costs.opt_check * t.guards.len() as u64;
            }
        }
        if !*templates_ok {
            for (i, (inst, reads_after)) in t.fallback.iter().enumerate() {
                // Interpreting the constituent ops individually replaces
                // the template op's own `ge_op` charge (already paid by the
                // op loop), so the first one rides on that.
                if i > 0 {
                    self.em.exec_cycles += costs.ge_op;
                }
                let rl = |v: VReg| reads_after.binary_search(&v).is_ok();
                self.em
                    .emit_dynamic(inst, &rl, store, rename, scratch, buf, costs, stats);
            }
            return;
        }

        // Copy: one contiguous extend into the unit buffer. The copy and
        // patch work is metered at seal time against the instructions
        // that survive the dead-assignment sweep (see
        // `Emitter::seal_unit`), so here each instruction only records
        // how many holes were patched into it.
        let base = buf.len();
        buf.extend(t.instrs.iter().map(|ti| Emitted {
            ins: ti.ins.clone(),
            deletable: ti.deletable,
            fixup: None,
            templated: true,
            patches: 0,
            shape: ti.shape,
        }));

        // Patch: registers through the first-touch allocator (in the same
        // order the unfused path would touch them), immediates from the
        // static store.
        for p in &t.patches {
            match p {
                PatchOp::Touch { v } => {
                    self.em.reg_of(*v);
                }
                PatchOp::Reg { at, slot, v } => {
                    let r = self.em.reg_of(*v);
                    let e = &mut buf[base + *at as usize];
                    patch_reg(&mut e.ins, *slot, r);
                    e.patches += 1;
                }
                PatchOp::ImmI { at, slot, var } => {
                    let k = store[var].as_i();
                    let e = &mut buf[base + *at as usize];
                    patch_imm_i(&mut e.ins, *slot, k);
                    e.patches += 1;
                }
                PatchOp::ImmF { at, var } => {
                    let k = store[var].as_f();
                    let e = &mut buf[base + *at as usize];
                    patch_imm_f(&mut e.ins, k);
                    e.patches += 1;
                }
            }
        }

        // Net bookkeeping of the whole run: kills first, then inserts
        // (which may read the pre-kill store), then store removals.
        for v in &t.effects.rename_kill {
            rename.remove(v);
        }
        for (v, a) in &t.effects.rename_set {
            let o = match a {
                AbsAlias::Reg(w) => Opnd::R(self.em.reg_of(*w)),
                AbsAlias::LitI(k) => Opnd::KI(*k),
                AbsAlias::LitF(k) => Opnd::KF(*k),
                AbsAlias::FromStore(w) => match store[w] {
                    Value::I(i) => Opnd::KI(i),
                    Value::F(f) => Opnd::KF(f),
                },
            };
            rename.insert(*v, o);
        }
        for v in &t.effects.store_kill {
            store.remove(v);
        }
        stats.zero_copy_folds += t.zcp_folds;
    }

    /// Apply a precomputed edge plan: materialize the planned demotions
    /// (values cross into run time here), build the successor's store from
    /// the carry list, and form its unit id. The per-variable *decisions*
    /// were all taken at static compile time.
    fn apply_edge(
        &mut self,
        plan: &EdgePlan,
        store: &Store,
        buf: &mut Vec<Emitted>,
        live_regs: &mut RegSet,
    ) -> (u32, Store) {
        // carry and demote are each sorted by variable; the online path
        // interleaves them in one sorted walk of the store, and demotions
        // are the only ones that emit code — so emitting all demotions in
        // their sorted order reproduces the online instruction order.
        for v in &plan.demote {
            let val = store[v];
            let r = self.em.reg_of(*v);
            buf.push(Emitted {
                ins: mov_const(r, val),
                deletable: true,
                fixup: None,
                templated: false,
                patches: 0,
                shape: 0,
            });
            live_regs.insert(r);
        }
        // Inserted in order rather than collected: `collect` would sort
        // through a temporary buffer on every edge of every miss.
        let mut out = Store::new();
        for v in &plan.carry {
            out.insert(*v, store[v]);
        }
        let id = self.unit_id(plan.target, &out);
        if let Some(from) = self.cur_unit {
            self.unit_edges.push((from, id));
        }
        (id, out)
    }

    /// Take an unconditional edge: tail-continue if the target is fresh,
    /// emit a jump otherwise.
    fn take_edge(
        &mut self,
        plan: &EdgePlan,
        store: &Store,
        buf: &mut Vec<Emitted>,
        live_regs: &mut RegSet,
    ) -> Option<(u32, Store)> {
        let (id, st) = self.apply_edge(plan, store, buf, live_regs);
        if self.em.sealed(id) {
            buf.push(Emitted {
                ins: Instr::Jmp { target: 0 },
                deletable: false,
                fixup: Some(id),
                templated: false,
                patches: 0,
                shape: 0,
            });
            None
        } else {
            Some((id, st))
        }
    }

    /// Multi-way-unroll classification over the emitted unit graph —
    /// identical in structure to the online specializer's, with blocks
    /// read off the divisions.
    fn loop_is_multiway(&self, header: BlockId, units: &HashSet<u32>) -> bool {
        let Some(l) = self.gef.loops.iter().find(|l| l.header == header) else {
            return false;
        };
        let block_of = |id: u32| self.gef.divisions[self.division_of(id) as usize].block;
        let mut succs: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut in_deg: HashMap<u32, u32> = HashMap::new();
        for (from, to) in &self.unit_edges {
            if !l.body.contains(&block_of(*from)) {
                continue;
            }
            if units.contains(to) {
                *in_deg.entry(*to).or_insert(0) += 1;
            }
            succs.entry(*from).or_default().push(*to);
        }
        if in_deg.values().any(|d| *d >= 2) {
            return true;
        }
        for k in units {
            let mut reached: HashSet<u32> = HashSet::new();
            let mut seen: HashSet<u32> = HashSet::new();
            let mut stack: Vec<u32> = vec![*k];
            while let Some(u) = stack.pop() {
                for v in succs.get(&u).map(Vec::as_slice).unwrap_or(&[]) {
                    if !l.body.contains(&block_of(*v)) {
                        continue;
                    }
                    if units.contains(v) {
                        reached.insert(*v);
                        continue;
                    }
                    if seen.insert(*v) {
                        stack.push(*v);
                    }
                }
            }
            if reached.len() >= 2 {
                return true;
            }
        }
        false
    }
}

/// Write register `r` into `slot` of a template instruction.
fn patch_reg(ins: &mut Instr, slot: Slot, r: Reg) {
    match (&mut *ins, slot) {
        (
            Instr::Mov { dst, .. }
            | Instr::FMov { dst, .. }
            | Instr::MovI { dst, .. }
            | Instr::MovF { dst, .. }
            | Instr::IAlu { dst, .. }
            | Instr::FAlu { dst, .. }
            | Instr::ICmp { dst, .. }
            | Instr::FCmp { dst, .. }
            | Instr::Un { dst, .. }
            | Instr::Load { dst, .. },
            Slot::Dst,
        ) => *dst = r,
        (Instr::Call { dst, .. } | Instr::CallHost { dst, .. }, Slot::Dst) => *dst = Some(r),
        (
            Instr::Mov { src, .. }
            | Instr::FMov { src, .. }
            | Instr::Un { src, .. }
            | Instr::Store { src, .. },
            Slot::Src,
        ) => *src = r,
        (
            Instr::IAlu { a, .. }
            | Instr::ICmp { a, .. }
            | Instr::FAlu { a, .. }
            | Instr::FCmp { a, .. },
            Slot::A,
        ) => *a = r,
        (
            Instr::IAlu {
                b: Operand::Reg(b), ..
            }
            | Instr::ICmp {
                b: Operand::Reg(b), ..
            },
            Slot::B,
        ) => *b = r,
        (Instr::FAlu { b, .. } | Instr::FCmp { b, .. }, Slot::B) => *b = r,
        (Instr::Load { base, .. } | Instr::Store { base, .. }, Slot::Base) => *base = r,
        (
            Instr::Load {
                idx: Operand::Reg(x),
                ..
            }
            | Instr::Store {
                idx: Operand::Reg(x),
                ..
            },
            Slot::Idx,
        ) => *x = r,
        (Instr::Call { args, .. } | Instr::CallHost { args, .. }, Slot::Arg(i)) => {
            args[i as usize] = r;
        }
        (other, slot) => unreachable!("register hole {slot:?} does not exist on {other:?}"),
    }
}

/// Write integer immediate `k` into `slot` of a template instruction.
fn patch_imm_i(ins: &mut Instr, slot: Slot, k: i64) {
    match (&mut *ins, slot) {
        (Instr::MovI { imm, .. }, Slot::Imm) => *imm = k,
        (
            Instr::IAlu {
                b: Operand::Imm(b), ..
            }
            | Instr::ICmp {
                b: Operand::Imm(b), ..
            },
            Slot::B,
        ) => *b = k,
        (
            Instr::Load {
                idx: Operand::Imm(x),
                ..
            }
            | Instr::Store {
                idx: Operand::Imm(x),
                ..
            },
            Slot::Idx,
        ) => *x = k,
        (other, slot) => unreachable!("immediate hole {slot:?} does not exist on {other:?}"),
    }
}

/// Write float immediate `k` into a template `MovF`.
fn patch_imm_f(ins: &mut Instr, k: f64) {
    match ins {
        Instr::MovF { imm, .. } => *imm = k,
        other => unreachable!("float immediate hole on {other:?}"),
    }
}
