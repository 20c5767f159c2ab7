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
//! * executing `Eval` ops against the static frame and live VM state,
//! * copying fused `EmitTemplate` runs — `extend_from_slice` plus a hole-
//!   patch loop — after checking their value guards,
//! * filling holes while emitting unfused `EmitHole` templates (with
//!   dynamic zero/copy propagation and strength reduction on the actual
//!   values),
//! * folding `StaticBr`/`StaticSwitch` on frame values — complete loop
//!   unrolling — and memoizing units by `(division, value vector)`,
//! * materializing demotions listed in the precomputed `EdgePlan`s.
//!
//! It performs **zero** run-time binding-time classifications or liveness
//! queries (`RtStats::runtime_bta_calls` stays untouched here) and emits
//! code byte-identical to the online path, because all value-dependent
//! machinery is the shared `Emitter`, driven in the same order. Units
//! are interned to dense ids on first sight, so the worklist, labels, and
//! edge instrumentation do no repeated key hashing. A unit's key is its
//! static store: an edge interns `[division, carried values]` straight
//! from the emitter's frame, the worklist and tail chain carry unit ids
//! only, and each unit loads the frame back from its key when it starts.
//! Every table a specialization builds lives in the `SpecScratch` the
//! dispatch core lends it, so a miss allocates only what it publishes.

use crate::costs::DynCosts;
use crate::emitter::{mov_const, opnd_value, value_opnd, EmitScratch, Emitted, Emitter, Opnd};
use crate::runtime::Site;
use crate::stats::{RtStats, Sinks};
use dyc_ir::BlockId;
use dyc_obs::EventKind;
use dyc_stage::{
    ibin_special_case, AbsAlias, EdgePlan, GeFunc, GeOp, GeTerm, Guard, PatchOp, Slot,
    StagedProgram, Template,
};
use dyc_vm::{Cc, FuncId, Instr, Module, Operand, Reg, Value, Vm, VmError};

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
    /// and trace, plus a shared runtime thread's slot and live wiring).
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

/// The most heap a runtime's specialization scratch keeps between misses.
/// A `serve` miss needs under 6 KiB and the Table 1 regions under 41 KiB,
/// except pnmconvol's, whose thousands of units grow the tables past
/// 1 MiB. Such a miss costs far more than
/// the allocations it would save the next one, and keeping its tables
/// would pin that memory in every runtime that ever ran it.
pub(crate) const SCRATCH_KEEP_BYTES: usize = 64 * 1024;

/// Heap bytes a vector holds.
pub(crate) fn heap_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// The name of a specialization of `region` about to be installed in
/// `module`: `<region>$spec<n>`, `n` counting the functions the module has
/// ever installed, so a name is never reused even when a slot is. Written
/// into a string sized for it, so naming allocates exactly once.
pub(crate) fn spec_name(region: &str, module: &Module) -> String {
    use std::fmt::Write;
    let n = module.installed();
    let digits = n.checked_ilog10().map_or(1, |d| d as usize + 1);
    let mut name = String::with_capacity(region.len() + "$spec".len() + digits);
    name.push_str(region);
    name.push_str("$spec");
    let _ = write!(name, "{n}");
    name
}

/// Every table a specialization builds, owned by the dispatch core (one
/// per [`Runtime`](crate::Runtime) or [`ThreadRuntime`](crate::ThreadRuntime),
/// beside its key buffer) and lent to each miss's executor.
///
/// The executors clear what they use on entry — to the miss and to each
/// unit — and do not free it, so a miss reuses the capacity earlier misses
/// grew (up to [`SCRATCH_KEEP_BYTES`]), and a specialization aborted
/// part-way (a static division by zero, say) leaves nothing behind for
/// the next.
#[derive(Debug, Default)]
pub(crate) struct SpecScratch {
    /// The emitter's tables and code buffer.
    pub(crate) emit: EmitScratch,
    /// Units waiting to be emitted.
    worklist: Vec<u32>,
    /// Division of each interned unit id.
    unit_division: Vec<u32>,
    /// Every control edge between units, in emission order.
    unit_edges: Vec<(u32, u32)>,
    /// The unit-graph tally's tables.
    tally: TallyScratch,
}

impl SpecScratch {
    /// Heap bytes the tables hold.
    pub(crate) fn heap_bytes(&self) -> usize {
        let t = &self.tally;
        let u32s = [
            &self.unit_division,
            &t.divisions,
            &t.group,
            &t.in_deg,
            &t.first,
            &t.succ,
            &t.cursor,
            &t.seen,
            &t.reached,
            &t.stack,
        ];
        self.emit.heap_bytes()
            + heap_bytes(&self.worklist)
            + heap_bytes(&self.unit_edges)
            + u32s.iter().map(|v| heap_bytes(v)).sum::<usize>()
            + heap_bytes(&t.division_seen)
            + heap_bytes(&t.header_units)
            + heap_bytes(&t.in_body)
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
pub struct GeExecutor<'s> {
    gef: &'s GeFunc,
    fidx: usize,
    em: Emitter<'s>,
    worklist: &'s mut Vec<u32>,
    unit_division: &'s mut Vec<u32>,
    unit_edges: &'s mut Vec<(u32, u32)>,
    /// The unit being emitted (source of recorded edges).
    cur_unit: u32,
}

impl GeExecutor<'_> {
    /// Specialize `site` for the dispatch arguments `args` by executing
    /// its function's GE program from `division`, whose variables are the
    /// site's base store and key variables. New internal promotion sites
    /// are registered through `host`; everything read or metered comes
    /// from `env`, and every table built lives in `scratch`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        env: &mut SpecEnv<'_>,
        scratch: &mut SpecScratch,
        host: &mut dyn SpecHost,
        site: &Site,
        args: &[Value],
        division: u32,
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<FuncId, VmError> {
        let staged = env.staged;
        let gef = staged.ge.funcs[site.func]
            .as_deref()
            .expect("site carries a division only for staged functions");
        let SpecScratch {
            emit,
            worklist,
            unit_division,
            unit_edges,
            tally,
        } = scratch;
        worklist.clear();
        unit_division.clear();
        unit_edges.clear();
        let mut ex = GeExecutor {
            gef,
            fidx: site.func,
            em: Emitter::new(staged.cfg, &gef.float_vreg, emit),
            worklist: &mut *worklist,
            unit_division: &mut *unit_division,
            unit_edges: &mut *unit_edges,
            cur_unit: 0,
        };

        let n_dyn = ex.em.enter(site, args);
        let vars = &gef.divisions[division as usize].vars;
        debug_assert!(
            ex.em
                .frame()
                .iter()
                .map(|(v, _)| v)
                .eq(vars.iter().copied()),
            "the entry store is the division's variables"
        );
        let entry = ex.unit_id(division);
        ex.worklist.push(entry);
        while let Some(id) = ex.worklist.pop() {
            if ex.em.sealed(id) {
                continue;
            }
            ex.emit_chain(id, env, host, module, vm)?;
        }

        ex.em.patch_fixups(&env.costs);
        let stats = &mut *env.sinks.stats;
        stats.instrs_generated += ex.em.emitted() as u64;
        stats.ge_exec_cycles += ex.em.exec_cycles;
        stats.emit_cycles += ex.em.emit_cycles;
        let cycles = ex.em.total_cycles();
        let name = spec_name(&staged.ir.funcs[site.func].name, module);
        let cf = ex.em.take_func(name, n_dyn);

        let t = tally.tally(gef, unit_division, unit_edges);
        stats.loops_unrolled += t.loops_unrolled;
        stats.multi_way_unroll |= t.multi_way;
        stats.divisions_observed += t.divisions_observed;
        env.charge(vm, cycles);
        Ok(module.add_func(cf))
    }

    /// Intern the unit `(division, frame values of the division's
    /// variables)`, recording the id's division on first sight. The key is
    /// the division followed by the values in sorted variable order —
    /// bijective with the online path's `(block, start, sorted store)` key.
    fn unit_id(&mut self, division: u32) -> u32 {
        let vars = &self.gef.divisions[division as usize].vars;
        let id = self.em.intern_staged(division, vars);
        if id as usize == self.unit_division.len() {
            self.unit_division.push(division);
        }
        id
    }

    fn emit_chain(
        &mut self,
        id: u32,
        env: &mut SpecEnv<'_>,
        host: &mut dyn SpecHost,
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<(), VmError> {
        let mut cur = Some(id);
        while let Some(id) = cur.take() {
            if self.em.sealed(id) {
                break;
            }
            if self.em.emitted() as u64 > SPEC_BUDGET {
                return Err(VmError::Dispatch(
                    "specialization exceeded its instruction budget (non-terminating static control flow?)"
                        .into(),
                ));
            }
            cur = self.emit_unit(id, env, host, module, vm)?;
        }
        Ok(())
    }

    /// Emit unit `id`, returning the unit to tail-continue with.
    #[allow(clippy::too_many_lines)]
    fn emit_unit(
        &mut self,
        id: u32,
        env: &mut SpecEnv<'_>,
        host: &mut dyn SpecHost,
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<Option<u32>, VmError> {
        let gef = self.gef;
        let d = &gef.divisions[self.unit_division[id as usize] as usize];
        self.cur_unit = id;
        self.em.start_staged_unit(id, &d.vars);
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
                    self.em
                        .exec_static(inst, &costs, env.sinks.stats, module, vm)?;
                }
                GeOp::EmitHole { inst, reads_after } => {
                    let rl = |v| reads_after.binary_search(&v).is_ok();
                    self.em.emit_dynamic(inst, &rl, &costs, env.sinks.stats);
                }
                GeOp::DemoteMaterialize { vars } => {
                    for v in vars {
                        let val = self
                            .em
                            .take_static(*v)
                            .expect("demoted variables are static in their division");
                        let r = self.em.reg_of(*v);
                        self.em.push(mov_const(r, val), true);
                    }
                }
                GeOp::EmitTemplate(t) => {
                    self.exec_template(t, &mut templates_ok, &costs, env.sinks.stats)
                }
            }
        }

        let mut chain: Option<u32> = None;

        if let GeTerm::Promote(p) = &d.term {
            // Internal dynamic-to-static promotion, fully precomputed: the
            // unit ends with a dispatch resuming at `p.resume_division`.
            self.em
                .flush_renames(|v| p.live.binary_search(&v).is_ok(), false);
            let frame = self.em.frame();
            let base_store = p.carried.iter().map(|v| (*v, frame.value(*v))).collect();
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
                self.em.mark_live(*r);
            }
            let dst = gef.ret_has_value.then(|| self.em.fresh_reg());
            self.em.push(
                Instr::Dispatch {
                    point: new_site,
                    dst,
                    args,
                },
                false,
            );
            self.em.push(Instr::Ret { src: dst }, false);
        } else {
            // Terminator: precomputed flush/keep sets, then the edge plans.
            self.em
                .flush_renames(|v| d.flush_keep.binary_search(&v).is_ok(), true);
            for v in &d.live_out_dyn {
                let r = self.em.reg_of(*v);
                self.em.mark_live(r);
            }
            match &d.term {
                GeTerm::Jmp(plan) => {
                    chain = self.take_edge(plan);
                }
                GeTerm::StaticBr { cond, t, f } => {
                    env.sinks.stats.branches_folded += 1;
                    let taken = self.em.frame().value(*cond).is_truthy();
                    chain = self.take_edge(if taken { t } else { f });
                }
                GeTerm::DynBr { cond, t, f } => {
                    match self.em.resolve(*cond) {
                        // The rename table can still fold a "dynamic"
                        // branch when the condition renamed to a constant.
                        Opnd::KI(v) => {
                            env.sinks.stats.branches_folded += 1;
                            chain = self.take_edge(if v != 0 { t } else { f });
                        }
                        Opnd::KF(v) => {
                            env.sinks.stats.branches_folded += 1;
                            chain = self.take_edge(if v != 0.0 { t } else { f });
                        }
                        Opnd::R(r) => {
                            self.em.mark_live(r);
                            let id_t = self.apply_edge(t);
                            let id_f = self.apply_edge(f);
                            self.em
                                .push_branch(Instr::Brnz { cond: r, target: 0 }, id_t);
                            if !self.em.sealed(id_t) {
                                self.worklist.push(id_t);
                            }
                            if self.em.sealed(id_f) {
                                self.em.push_branch(Instr::Jmp { target: 0 }, id_f);
                            } else {
                                chain = Some(id_f);
                            }
                        }
                    }
                }
                GeTerm::StaticSwitch { on, cases, default } => {
                    env.sinks.stats.branches_folded += 1;
                    let v = self.em.frame().value(*on).as_i();
                    let plan = cases
                        .iter()
                        .find_map(|(k, p)| (*k == v).then_some(p))
                        .unwrap_or(default);
                    chain = self.take_edge(plan);
                }
                GeTerm::DynSwitch { on, cases, default } => match self.em.resolve(*on) {
                    Opnd::KI(v) => {
                        env.sinks.stats.branches_folded += 1;
                        let plan = cases
                            .iter()
                            .find_map(|(k, p)| (*k == v).then_some(p))
                            .unwrap_or(default);
                        chain = self.take_edge(plan);
                    }
                    Opnd::KF(_) => unreachable!("switch scrutinee is int"),
                    Opnd::R(r) => {
                        self.em.mark_live(r);
                        let tmp = self.em.fresh_reg();
                        for (k, plan) in cases {
                            let cid = self.apply_edge(plan);
                            self.em.push(
                                Instr::ICmp {
                                    cc: Cc::Eq,
                                    dst: tmp,
                                    a: r,
                                    b: Operand::Imm(*k),
                                },
                                false,
                            );
                            self.em.push_branch(
                                Instr::Brnz {
                                    cond: tmp,
                                    target: 0,
                                },
                                cid,
                            );
                            if !self.em.sealed(cid) {
                                self.worklist.push(cid);
                            }
                        }
                        let id_d = self.apply_edge(default);
                        if self.em.sealed(id_d) {
                            self.em.push_branch(Instr::Jmp { target: 0 }, id_d);
                        } else {
                            chain = Some(id_d);
                        }
                    }
                },
                GeTerm::Ret(v) => {
                    let src = v.map(|v| match self.em.resolve(v) {
                        Opnd::R(r) => r,
                        k => {
                            let r = self.em.fresh_reg();
                            self.em.push(mov_const(r, opnd_value(k)), false);
                            r
                        }
                    });
                    if let Some(r) = src {
                        self.em.mark_live(r);
                    }
                    self.em.push(Instr::Ret { src }, false);
                }
                GeTerm::Promote(_) => unreachable!("handled above"),
            }
        }

        let (tmpl, holes) = self.em.seal_unit(id, &costs, env.sinks.stats);
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
    fn exec_template(
        &mut self,
        t: &Template,
        templates_ok: &mut bool,
        costs: &DynCosts,
        stats: &mut RtStats,
    ) {
        if *templates_ok {
            for g in &t.guards {
                let Guard::IBinFoldFree { op, var } = g;
                let k = self.em.frame().value(*var).as_i();
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
                let rl = |v| reads_after.binary_search(&v).is_ok();
                self.em.emit_dynamic(inst, &rl, costs, stats);
            }
            return;
        }

        // Copy: one contiguous extend into the unit buffer. The copy and
        // patch work is metered at seal time against the instructions
        // that survive the dead-assignment sweep (see
        // `Emitter::seal_unit`), so here each instruction only records
        // how many holes were patched into it.
        let base = self.em.buf_mut().len();
        self.em.buf_mut().extend(t.instrs.iter().map(|ti| Emitted {
            ins: ti.ins.clone(),
            deletable: ti.deletable,
            fixup: None,
            templated: true,
            patches: 0,
        }));

        // Patch: registers through the first-touch allocator (in the same
        // order the unfused path would touch them), immediates from the
        // frame.
        for p in &t.patches {
            match p {
                PatchOp::Touch { v } => {
                    self.em.reg_of(*v);
                }
                PatchOp::Reg { at, slot, v } => {
                    let r = self.em.reg_of(*v);
                    let e = &mut self.em.buf_mut()[base + *at as usize];
                    patch_reg(&mut e.ins, *slot, r);
                    e.patches += 1;
                }
                PatchOp::ImmI { at, slot, var } => {
                    let k = self.em.frame().value(*var).as_i();
                    let e = &mut self.em.buf_mut()[base + *at as usize];
                    patch_imm_i(&mut e.ins, *slot, k);
                    e.patches += 1;
                }
                PatchOp::ImmF { at, var } => {
                    let k = self.em.frame().value(*var).as_f();
                    let e = &mut self.em.buf_mut()[base + *at as usize];
                    patch_imm_f(&mut e.ins, k);
                    e.patches += 1;
                }
            }
        }

        // Net bookkeeping of the whole run: kills first, then inserts
        // (which may read the pre-kill frame), then frame removals.
        for v in &t.effects.rename_kill {
            self.em.kill_alias(*v);
        }
        for (v, a) in &t.effects.rename_set {
            let o = match a {
                AbsAlias::Reg(w) => Opnd::R(self.em.reg_of(*w)),
                AbsAlias::LitI(k) => Opnd::KI(*k),
                AbsAlias::LitF(k) => Opnd::KF(*k),
                AbsAlias::FromStore(w) => value_opnd(self.em.frame().value(*w)),
            };
            self.em.set_alias(*v, o);
        }
        for v in &t.effects.store_kill {
            self.em.take_static(*v);
        }
        stats.zero_copy_folds += t.zcp_folds;
    }

    /// Apply a precomputed edge plan: materialize the planned demotions
    /// (values cross into run time here) and intern the successor unit
    /// from the carried frame values — the successor's key, which is all
    /// of its store. The per-variable *decisions* were all taken at static
    /// compile time.
    fn apply_edge(&mut self, plan: &EdgePlan) -> u32 {
        // carry and demote are each sorted by variable; the online path
        // interleaves them in one sorted walk of the store, and demotions
        // are the only ones that emit code — so emitting all demotions in
        // their sorted order reproduces the online instruction order.
        for v in &plan.demote {
            let val = self.em.frame().value(*v);
            let r = self.em.reg_of(*v);
            self.em.push(mov_const(r, val), true);
            self.em.mark_live(r);
        }
        let id = self.unit_id(plan.target);
        self.unit_edges.push((self.cur_unit, id));
        id
    }

    /// Take an unconditional edge: tail-continue if the target is fresh,
    /// emit a jump otherwise.
    fn take_edge(&mut self, plan: &EdgePlan) -> Option<u32> {
        let id = self.apply_edge(plan);
        if self.em.sealed(id) {
            self.em.push_branch(Instr::Jmp { target: 0 }, id);
            None
        } else {
            Some(id)
        }
    }
}

/// What a specialization's unit graph adds to the Table 2 meters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct UnitTally {
    /// Loops unrolled: headers reached by two or more units with statics.
    loops_unrolled: u64,
    /// Some unrolled loop unrolled multi-way (§2.2.4).
    multi_way: bool,
    /// Blocks specialized under two or more static-variable sets.
    divisions_observed: u64,
}

/// The unit-graph tally's tables, reused across misses. Everything is
/// indexed densely — by unit id, division id or block index — and marked
/// with stamps rather than cleared.
#[derive(Debug, Default)]
struct TallyScratch {
    /// Distinct divisions the units were emitted in.
    divisions: Vec<u32>,
    /// Per division: already in `divisions`?
    division_seen: Vec<bool>,
    /// `(header, unit)` for every unit with statics at a loop header.
    header_units: Vec<(BlockId, u32)>,
    /// Per unit: stamp of the header group it belongs to.
    group: Vec<u32>,
    /// Per unit: edges into it from the loop body (header units only).
    in_deg: Vec<u32>,
    /// Per block: inside the loop being classified?
    in_body: Vec<bool>,
    /// In-body edges by source unit (CSR): unit `u`'s successors are
    /// `succ[first[u]..first[u + 1]]`.
    first: Vec<u32>,
    succ: Vec<u32>,
    /// Per unit: fill cursor while building `succ`.
    cursor: Vec<u32>,
    /// Per unit: walk stamps.
    seen: Vec<u32>,
    reached: Vec<u32>,
    stack: Vec<u32>,
}

impl TallyScratch {
    /// Tally the unit graph of a finished specialization: unit `u` was
    /// emitted in division `unit_division[u]`, and `edges` are its
    /// control edges. Matches what the online specializer meters.
    fn tally(&mut self, gef: &GeFunc, unit_division: &[u32], edges: &[(u32, u32)]) -> UnitTally {
        let mut out = UnitTally::default();

        // Divisions: the distinct variable sets specialized at each block.
        self.division_seen.clear();
        self.division_seen.resize(gef.divisions.len(), false);
        self.divisions.clear();
        for &d in unit_division {
            if !std::mem::replace(&mut self.division_seen[d as usize], true) {
                self.divisions.push(d);
            }
        }
        let point = |d: u32| {
            let d = &gef.divisions[d as usize];
            (d.block, &d.vars)
        };
        self.divisions
            .sort_unstable_by(|a, b| point(*a).cmp(&point(*b)));
        for run in self.divisions.chunk_by(|a, b| point(*a).0 == point(*b).0) {
            let sets = 1 + run
                .windows(2)
                .filter(|w| point(w[0]) != point(w[1]))
                .count();
            if sets >= 2 {
                out.divisions_observed += 1;
            }
        }

        // Unrolled loops: the units with statics at each loop header.
        let block_of = |u: u32| gef.divisions[unit_division[u as usize] as usize].block;
        self.header_units.clear();
        for (u, &d) in unit_division.iter().enumerate() {
            let d = &gef.divisions[d as usize];
            if !d.vars.is_empty() && gef.loops.iter().any(|l| l.header == d.block) {
                self.header_units.push((d.block, u as u32));
            }
        }
        self.header_units.sort_unstable();
        let n = unit_division.len();
        for v in [&mut self.group, &mut self.seen, &mut self.reached] {
            v.clear();
            v.resize(n, 0);
        }
        let mut stamp = 0;
        let mut i = 0;
        while i < self.header_units.len() {
            let header = self.header_units[i].0;
            let j = i + self.header_units[i..]
                .iter()
                .take_while(|(h, _)| *h == header)
                .count();
            if j - i >= 2 {
                out.loops_unrolled += 1;
                if !out.multi_way {
                    out.multi_way = self.multi_way(gef, &block_of, edges, header, i..j, &mut stamp);
                }
            }
            i = j;
        }
        out
    }

    /// Is the loop at `header`, unrolled into the units
    /// `header_units[units]`, multi-way? It is when some header unit is
    /// entered twice from the loop body (a graph, like an interpreted
    /// guest loop), or when a walk of the body from one header unit,
    /// stopping at header units, reaches two of them (a tree, like
    /// binary search).
    fn multi_way(
        &mut self,
        gef: &GeFunc,
        block_of: &dyn Fn(u32) -> BlockId,
        edges: &[(u32, u32)],
        header: BlockId,
        units: std::ops::Range<usize>,
        stamp: &mut u32,
    ) -> bool {
        let Some(l) = gef.loops.iter().find(|l| l.header == header) else {
            return false;
        };
        let n = self.group.len();
        *stamp += 1;
        let group = *stamp;
        for &(_, u) in &self.header_units[units.clone()] {
            self.group[u as usize] = group;
        }
        self.in_body.clear();
        for b in &l.body {
            if b.index() >= self.in_body.len() {
                self.in_body.resize(b.index() + 1, false);
            }
            self.in_body[b.index()] = true;
        }
        let in_body = |s: &TallyScratch, u: u32| s.in_body.get(block_of(u).index()) == Some(&true);

        // In-degrees of the header units, and the body's out-degrees.
        self.in_deg.clear();
        self.in_deg.resize(n, 0);
        self.first.clear();
        self.first.resize(n + 1, 0);
        for &(from, to) in edges {
            if !in_body(self, from) {
                continue;
            }
            if self.group[to as usize] == group {
                self.in_deg[to as usize] += 1;
                if self.in_deg[to as usize] >= 2 {
                    return true;
                }
            }
            self.first[from as usize + 1] += 1;
        }
        for u in 0..n {
            self.first[u + 1] += self.first[u];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.first[..n]);
        self.succ.clear();
        self.succ.resize(self.first[n] as usize, 0);
        for &(from, to) in edges {
            if in_body(self, from) {
                let c = &mut self.cursor[from as usize];
                self.succ[*c as usize] = to;
                *c += 1;
            }
        }

        for k in units {
            let start = self.header_units[k].1;
            *stamp += 1;
            let walk = *stamp;
            let mut reached = 0;
            self.stack.clear();
            self.stack.push(start);
            while let Some(u) = self.stack.pop() {
                let (a, b) = (self.first[u as usize], self.first[u as usize + 1]);
                for e in a..b {
                    let v = self.succ[e as usize];
                    if !in_body(self, v) {
                        continue;
                    }
                    if self.group[v as usize] == group {
                        if self.reached[v as usize] != walk {
                            self.reached[v as usize] = walk;
                            reached += 1;
                            if reached >= 2 {
                                return true;
                            }
                        }
                        continue;
                    }
                    if self.seen[v as usize] != walk {
                        self.seen[v as usize] = walk;
                        self.stack.push(v);
                    }
                }
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

#[cfg(test)]
mod tests {
    use super::*;
    use dyc_vm::CodeFunc;

    #[test]
    fn spec_names_are_written_into_strings_sized_for_them() {
        let mut m = Module::new();
        for n in 0..=12 {
            let name = spec_name("region", &m);
            assert_eq!(name, format!("region$spec{n}"));
            assert_eq!(name.capacity(), name.len());
            m.add_func(CodeFunc::new(name, 0, 1));
        }
        // Removing a function does not reuse its ordinal.
        m.remove_func(FuncId(3));
        assert_eq!(spec_name("r", &m), "r$spec13");
    }
    use dyc_ir::analysis::NaturalLoop;
    use dyc_ir::VReg;
    use dyc_stage::GeDivision;
    use std::collections::{HashMap, HashSet};

    /// The hash-map tally the executor used before the dense one, kept
    /// as its reference: per-header unit sets, per-block sets of
    /// variable sets, and [`reference_loop_is_multiway`].
    fn reference_tally(gef: &GeFunc, unit_division: &[u32], edges: &[(u32, u32)]) -> UnitTally {
        let block_of = |id: u32| gef.divisions[unit_division[id as usize] as usize].block;
        let mut header_units: HashMap<BlockId, HashSet<u32>> = HashMap::new();
        let mut division_sets: HashMap<BlockId, HashSet<Vec<u32>>> = HashMap::new();
        for (id, &d) in unit_division.iter().enumerate() {
            let d = &gef.divisions[d as usize];
            if gef.loops.iter().any(|l| l.header == d.block) && !d.vars.is_empty() {
                header_units.entry(d.block).or_default().insert(id as u32);
            }
            let var_set: Vec<u32> = d.vars.iter().map(|v| v.0).collect();
            division_sets.entry(d.block).or_default().insert(var_set);
        }
        let mut out = UnitTally::default();
        for (h, units) in &header_units {
            if units.len() < 2 {
                continue;
            }
            out.loops_unrolled += 1;
            if reference_loop_is_multiway(gef, &block_of, edges, *h, units) {
                out.multi_way = true;
            }
        }
        out.divisions_observed = division_sets.values().filter(|s| s.len() >= 2).count() as u64;
        out
    }

    /// Multi-way-unroll classification over the emitted unit graph, as
    /// the executor computed it before the dense tally.
    fn reference_loop_is_multiway(
        gef: &GeFunc,
        block_of: &dyn Fn(u32) -> BlockId,
        unit_edges: &[(u32, u32)],
        header: BlockId,
        units: &HashSet<u32>,
    ) -> bool {
        let Some(l) = gef.loops.iter().find(|l| l.header == header) else {
            return false;
        };
        let mut succs: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut in_deg: HashMap<u32, u32> = HashMap::new();
        for (from, to) in unit_edges {
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

    /// SplitMix64: a seeded, std-only generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn division(block: u32, vars: &[u32]) -> GeDivision {
        GeDivision {
            block: BlockId(block),
            start: 0,
            vars: vars.iter().map(|v| VReg(*v)).collect(),
            ops: Vec::new(),
            term: GeTerm::Ret(None),
            flush_keep: Vec::new(),
            live_out_dyn: Vec::new(),
        }
    }

    /// A random unit graph: a few loops over a few blocks, divisions
    /// that repeat a variable set within a block (as promotion resume
    /// points do), units drawn from the divisions, and edges with
    /// duplicates.
    fn random_graph(rng: &mut Rng) -> (GeFunc, Vec<u32>, Vec<(u32, u32)>) {
        const VAR_SETS: [&[u32]; 4] = [&[], &[1], &[1, 2], &[3]];
        let n_blocks = 1 + rng.below(6) as u32;
        let mut loops = Vec::new();
        for h in 0..n_blocks {
            if rng.below(3) == 0 {
                let mut body: HashSet<BlockId> = (0..n_blocks)
                    .filter(|_| rng.below(2) == 0)
                    .map(BlockId)
                    .collect();
                // Natural loops contain their header, but the tally must
                // not depend on it.
                if rng.below(8) != 0 {
                    body.insert(BlockId(h));
                }
                loops.push(NaturalLoop {
                    header: BlockId(h),
                    body,
                });
            }
        }
        let divisions: Vec<GeDivision> = (0..1 + rng.below(10))
            .map(|_| {
                let set = VAR_SETS[rng.below(VAR_SETS.len() as u64) as usize];
                division(rng.below(u64::from(n_blocks)) as u32, set)
            })
            .collect();
        let n_units = 1 + rng.below(24);
        let unit_division: Vec<u32> = (0..n_units)
            .map(|_| rng.below(divisions.len() as u64) as u32)
            .collect();
        let mut edges = Vec::new();
        for _ in 0..rng.below(3 * n_units) {
            let e = (rng.below(n_units) as u32, rng.below(n_units) as u32);
            edges.push(e);
            if rng.below(6) == 0 {
                edges.push(e);
            }
        }
        let gef = GeFunc {
            divisions,
            float_vreg: Vec::new(),
            ret_has_value: false,
            loops,
        };
        (gef, unit_division, edges)
    }

    #[test]
    fn dense_tally_matches_the_reference_on_random_unit_graphs() {
        let mut rng = Rng(0x5eed_0015);
        // One scratch across every graph, as across misses.
        let mut scratch = TallyScratch::default();
        let (mut unrolled, mut multi_way, mut divisions) = (0, 0, 0);
        for i in 0..4000 {
            let (gef, unit_division, edges) = random_graph(&mut rng);
            let dense = scratch.tally(&gef, &unit_division, &edges);
            let reference = reference_tally(&gef, &unit_division, &edges);
            assert_eq!(
                dense, reference,
                "graph {i}: divisions {unit_division:?} edges {edges:?}"
            );
            unrolled += dense.loops_unrolled;
            multi_way += u64::from(dense.multi_way);
            divisions += dense.divisions_observed;
        }
        // The generator exercises every meter, both ways.
        assert!(
            unrolled > 1000 && divisions > 1000,
            "{unrolled} {divisions}"
        );
        assert!(multi_way > 500 && multi_way < 3500, "{multi_way}");
    }

    #[test]
    fn scratch_is_kept_between_misses_unless_it_outgrows_the_ceiling() {
        use crate::Runtime;
        use dyc_vm::{CostModel, Value, Vm};
        let src = "int f(int k, int x) { make_static(k);
            int acc = x; int i = k;
            while (i > 0) { acc = acc * 3 + i; i = i - 1; } return acc; }";
        let mut ir = dyc_ir::lower_program(&dyc_lang::parse_program(src).unwrap()).unwrap();
        dyc_ir::opt::optimize_program(&mut ir);
        let staged = dyc_stage::stage_program(ir, dyc_bta::OptConfig::all());
        let mut module = staged.build_module();
        let mut rt = Runtime::new(staged);
        let mut vm = Vm::new(CostModel::alpha21164());
        let id = module.func_by_name("f").unwrap();
        let mut miss = |rt: &mut Runtime, k: i64| {
            let out = vm.call_with_handler(&mut module, rt, id, &[Value::I(k), Value::I(1)]);
            let want = (1..=k)
                .rev()
                .fold(1i64, |acc, i| acc.wrapping_mul(3).wrapping_add(i));
            assert_eq!(out, Ok(Some(Value::I(want))), "f({k}, 1)");
            rt.spec_heap_bytes()
        };
        let small = miss(&mut rt, 5);
        assert!(small > 0 && small <= SCRATCH_KEEP_BYTES, "{small}");
        // Thousands of units outgrow the ceiling: freed after the miss.
        assert_eq!(miss(&mut rt, 3000), 0);
        let again = miss(&mut rt, 6);
        assert!(again > 0 && again <= SCRATCH_KEEP_BYTES, "{again}");
        assert_eq!(miss(&mut rt, 4), again, "a smaller miss reuses the tables");
    }

    #[test]
    fn single_way_chain_and_binary_tree_classify_like_the_reference() {
        // Block 0 is a loop header with body {0, 1}; units 0..3 are
        // header units (division 0), units 4..6 body units (division 1).
        let mut scratch = TallyScratch::default();
        let loops = vec![NaturalLoop {
            header: BlockId(0),
            body: [BlockId(0), BlockId(1)].into_iter().collect(),
        }];
        let gef = GeFunc {
            divisions: vec![division(0, &[1]), division(1, &[1])],
            float_vreg: Vec::new(),
            ret_has_value: false,
            loops,
        };
        let units = [0, 0, 0, 0, 1, 1, 1];
        // A chain: h0 → b4 → h1 → b5 → h2 → b6 → h3.
        let chain = [(0, 4), (4, 1), (1, 5), (5, 2), (2, 6), (6, 3)];
        let t = scratch.tally(&gef, &units, &chain);
        assert_eq!(t, reference_tally(&gef, &units, &chain));
        assert_eq!((t.loops_unrolled, t.multi_way), (1, false));
        // A tree: b4 branches to both h1 and h2.
        let tree = [(0, 4), (4, 1), (4, 2), (1, 5), (5, 3)];
        let t = scratch.tally(&gef, &units, &tree);
        assert_eq!(t, reference_tally(&gef, &units, &tree));
        assert_eq!((t.loops_unrolled, t.multi_way), (1, true));
        // A graph: h1 is entered from two body units.
        let graph = [(0, 4), (4, 1), (0, 5), (5, 1), (1, 6), (6, 2)];
        let t = scratch.tally(&gef, &units, &graph);
        assert_eq!(t, reference_tally(&gef, &units, &graph));
        assert!(t.multi_way);
    }
}
