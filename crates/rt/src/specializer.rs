//! The *online* specializer — the legacy, unstaged generating extension
//! (§2.1), kept as the reference implementation and escape hatch
//! (`OptConfig::staged_ge = false`).
//!
//! Given the concrete values of the promoted variables, this walks the
//! region's IR, **executes the static computations** (including static
//! loads and static calls) against the live VM state, and **emits code**
//! for the dynamic computations, with holes instantiated to immediates or
//! materialized constants. Specialization proceeds in *units* — one block
//! under one static store — memoized by `(program point, live static
//! store)`:
//!
//! * re-reaching a unit emits a jump to the existing code (reconstructing
//!   residual loops);
//! * reaching a loop header with changed static values creates a fresh
//!   unit — **complete loop unrolling**, single-way when the units chain,
//!   multi-way when they form a graph (§2.2.4);
//! * reaching any point with a different static-variable *set* creates a
//!   fresh unit too — **program-point-specific polyvariant division and
//!   specialization** (§2.2.1, §2.2.5).
//!
//! Being online, it re-derives at run time what the staged path
//! ([`crate::ge_exec`]) reads from precompiled GE programs: every
//! instruction's binding time (`inst_binding`), liveness at unit
//! boundaries and promotions, and loop/unroll legality. Those queries are
//! metered as [`crate::RtStats::runtime_bta_calls`] and charged
//! (`classify`, `edge_plan_per_var`) so Table 3 can show what true
//! staging saves. All value-dependent emit work is shared with the
//! staged path via `Emitter`, which is what keeps the
//! two paths' output byte-identical. So is the static store: the
//! emitter's dense frame, loaded from each unit's interned key when the
//! unit starts; the worklist and tail chain carry unit ids only.

use crate::emitter::{mov_const, opnd_value, EmitScratch, Emitter, Frame, Opnd};
use crate::ge_exec::{spec_name, SpecEnv, SpecHost, SPEC_BUDGET};
use crate::runtime::Site;
use crate::sink::VmSink;
use dyc_bta::{inst_binding, Binding, OptConfig};
use dyc_ir::analysis::{natural_loops, Liveness, NaturalLoop};
use dyc_ir::inst::{Inst, Term};
use dyc_ir::{BlockId, FuncIr, IrTy, VReg};
use dyc_lang::Policy;
use dyc_obs::EventKind;
use dyc_stage::live_at_point;
use dyc_vm::{Cc, FuncId, Instr, Module, Operand, Reg, Value, Vm, VmError};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The online generating-extension executor. See module docs.
pub(crate) struct Specializer<'s> {
    f: FuncIr,
    rules: EdgeRules,
    policies: HashMap<VReg, Policy>,
    loops: Vec<NaturalLoop>,
    loop_headers: HashSet<BlockId>,
    cfg: OptConfig,
    fidx: usize,

    em: Emitter<'s>,
    worklist: Vec<u32>,
    /// Program point `(block, start)` of each interned unit id.
    unit_point: Vec<(u32, u32)>,
    // Instrumentation.
    header_units: HashMap<BlockId, HashSet<u32>>,
    /// The emitted unit graph: every control edge between specialization
    /// units. Analyzed afterwards to classify unrolled loops as single-way
    /// (a chain of bodies) or multi-way (a tree or general graph, §2.2.4).
    unit_edges: Vec<(u32, u32)>,
    /// Unit currently being emitted (source of recorded edges).
    cur_unit: Option<u32>,
    /// Distinct static-variable *sets* (divisions) seen per block.
    division_sets: HashMap<BlockId, HashSet<Vec<u32>>>,
}

impl Specializer<'_> {
    /// Specialize `site` for the dispatch arguments `args` and install
    /// nothing — the caller installs the returned function. Same contract
    /// as [`crate::ge_exec::GeExecutor::run`]: new promotion sites go to
    /// `host`, everything read or metered comes from `env`, and the
    /// emitter's tables live in `scratch`.
    pub(crate) fn run(
        env: &mut SpecEnv<'_>,
        scratch: &mut EmitScratch,
        host: &mut dyn SpecHost,
        site: &Site,
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<FuncId, VmError> {
        let staged = env.staged;
        let f = staged.ir.funcs[site.func].clone();
        let sf = &staged.funcs[site.func];
        // An online loop analysis per specialization request: the first of
        // this run's run-time analysis costs.
        let loops = natural_loops(&f);
        env.sinks.stats.runtime_bta_calls += 1;
        let float_vreg: Vec<bool> = (0..f.n_vregs())
            .map(|i| f.ty(VReg(i as u32)) == IrTy::Float)
            .collect();
        let mut spec = Specializer {
            rules: EdgeRules {
                live: sf.live.clone(),
                static_in: sf.bta.static_in.clone(),
                loop_assigned: sf.bta.loop_assigned.clone(),
                unroll_exit_deps: sf.bta.unroll_exit_deps.clone(),
                unroll_keep: sf.bta.unroll_keep_opt.clone(),
                polyvariant_division: env.staged.cfg.polyvariant_division,
            },
            policies: sf.bta.policies.clone(),
            loop_headers: loops.iter().map(|l| l.header).collect(),
            loops,
            cfg: env.staged.cfg,
            fidx: site.func,
            em: Emitter::new(staged.cfg, &float_vreg, VmSink::default(), scratch),
            worklist: Vec::new(),
            unit_point: Vec::new(),
            header_units: HashMap::new(),
            unit_edges: Vec::new(),
            cur_unit: None,
            division_sets: HashMap::new(),
            f,
        };

        let n_dyn = spec.em.enter(site, args);
        let entry = spec
            .em
            .intern_online(site.block.0, site.inst_idx as u32, |_, _| true);
        spec.at_point(entry, site.block, site.inst_idx);
        spec.worklist.push(entry);
        while let Some(id) = spec.worklist.pop() {
            if spec.em.sealed(id) {
                continue;
            }
            spec.emit_chain(id, env, host, module, vm)?;
        }

        // Patch branch targets.
        spec.em.patch_fixups(&env.costs);

        // Loop-unrolling instrumentation: classify each unrolled loop from
        // the emitted unit graph.
        for (h, units) in &spec.header_units {
            if units.len() < 2 {
                continue;
            }
            env.sinks.stats.loops_unrolled += 1;
            if spec.loop_is_multiway(*h, units) {
                env.sinks.stats.multi_way_unroll = true;
            }
        }

        env.sinks.stats.divisions_observed +=
            spec.division_sets.values().filter(|s| s.len() >= 2).count() as u64;
        env.sinks.stats.instrs_generated += spec.em.emitted() as u64;
        env.sinks.stats.ge_exec_cycles += spec.em.exec_cycles;
        env.sinks.stats.emit_cycles += spec.em.emit_cycles;
        let cycles = spec.em.total_cycles();
        env.charge(vm, cycles);

        let name = spec_name(&spec.f.name, module);
        let mut cf = dyc_vm::CodeFunc::new(name, n_dyn as usize, spec.em.next_reg.max(1) as usize);
        cf.code = spec.em.take_code();
        Ok(module.add_func(cf))
    }

    /// Record the program point of unit `id`, just interned, on first
    /// sight.
    fn at_point(&mut self, id: u32, block: BlockId, start: usize) {
        if id as usize == self.unit_point.len() {
            self.unit_point.push((block.0, start as u32));
        }
    }

    fn block_of(&self, id: u32) -> BlockId {
        BlockId(self.unit_point[id as usize].0)
    }

    /// Emit a chain of units starting at `id`, tail-continuing through
    /// unconditional successors that are not yet emitted.
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
        let (block, start) = self.unit_point[id as usize];
        let (block, start) = (BlockId(block), start as usize);
        self.cur_unit = Some(id);
        self.em.start_online_unit(id);
        if self.loop_headers.contains(&block) && self.em.frame().len() > 0 {
            self.header_units.entry(block).or_default().insert(id);
        }
        // Polyvariant division: the same point analyzed/compiled under
        // different static-variable *sets* (§2.2.5).
        let var_set: Vec<u32> = self.em.frame().iter().map(|(v, _)| v.0).collect();
        self.division_sets.entry(block).or_default().insert(var_set);
        let costs = env.costs;
        self.em.exec_cycles += costs.per_unit;
        env.sinks.stats.units_emitted += 1;

        let n_insts = self.f.block(block).insts.len();
        let mut promotion: Option<(usize, Vec<VReg>)> = None;
        let mut i = start;
        while i < n_insts {
            let inst = self.f.block(block).insts[i].clone();
            if matches!(
                inst,
                Inst::MakeStatic { .. } | Inst::Promote { .. } | Inst::MakeDynamic { .. }
            ) {
                // The online walk inspects annotation directives at run
                // time (store-membership checks, demotions) — per-region
                // work the staged path precompiles into its op tables.
                self.em.exec_cycles += costs.classify;
            }
            match &inst {
                Inst::MakeStatic { vars } => {
                    let missing: Vec<VReg> = vars
                        .iter()
                        .map(|(v, _)| *v)
                        .filter(|v| !self.em.frame().contains(*v))
                        .collect();
                    if !missing.is_empty() && self.cfg.internal_promotions {
                        promotion = Some((i, missing));
                        break;
                    }
                    // Already static (or promotions disabled): no-op.
                }
                Inst::Promote { var } => {
                    if !self.em.frame().contains(*var) && self.cfg.internal_promotions {
                        promotion = Some((i, vec![*var]));
                        break;
                    }
                }
                Inst::MakeDynamic { vars } => {
                    for v in vars {
                        if let Some(val) = self.em.take_static(*v) {
                            // The value crosses into run time: materialize.
                            let r = self.em.reg_of(*v);
                            self.em.push(mov_const(r, val), true);
                        }
                    }
                }
                _ => {
                    // Online binding-time classification: the run-time
                    // analysis cost the staged path precompiles away.
                    env.sinks.stats.runtime_bta_calls += 1;
                    self.em.exec_cycles += costs.classify;
                    let frame = self.em.frame();
                    let is_static = |v: VReg| frame.contains(v);
                    match inst_binding(&inst, &is_static, &self.cfg) {
                        Binding::Static => {
                            self.em
                                .exec_static(&inst, &costs, env.sinks.stats, module, vm)?;
                        }
                        Binding::Dynamic => {
                            let (f, live) = (&self.f, &self.rules.live);
                            let rl = |v: VReg| read_later(f, live, block, i, v);
                            self.em.emit_dynamic(&inst, &rl, &costs, env.sinks.stats);
                        }
                        Binding::Annotation => unreachable!("annotations handled above"),
                    }
                }
            }
            i += 1;
        }

        let mut chain: Option<u32> = None;

        if let Some((idx, missing)) = promotion {
            // Internal dynamic-to-static promotion: end the unit with a
            // dispatch that resumes specialization once the values are
            // known (§2.2.2). Another run-time liveness query.
            env.sinks.stats.runtime_bta_calls += 1;
            let live_here = live_at_point(&self.f, &self.rules.live, block, idx);
            let live_set: BTreeSet<VReg> = live_here.iter().copied().collect();
            self.em.flush_renames(|v| live_set.contains(&v), false);
            let frame = self.em.frame();
            let base_store: Vec<(VReg, Value)> = frame
                .iter()
                .filter(|(v, _)| live_here.contains(v))
                .collect();
            let arg_vars: Vec<VReg> = live_here
                .iter()
                .filter(|v| !frame.contains(**v))
                .copied()
                .collect();
            let policy = dyc_stage::site_policy(
                &self.cfg,
                missing
                    .iter()
                    .map(|v| self.policies.get(v).copied().unwrap_or(Policy::CacheAll)),
                missing.len(),
            );
            let site_id = host.add_site(Site {
                func: self.fidx,
                block,
                inst_idx: idx,
                base_store,
                key_vars: missing,
                arg_vars: arg_vars.clone(),
                policy,
                division: None,
                key_pos: Vec::new(),
                dyn_pos: Vec::new(),
            });
            self.em.exec_cycles += costs.new_site;
            env.note(
                EventKind::Promotion,
                vm.stats.total_cycles(),
                u64::from(site_id),
            );
            let args: Vec<Reg> = arg_vars.iter().map(|v| self.em.reg_of(*v)).collect();
            for r in &args {
                self.em.mark_live(*r);
            }
            let dst = self.f.ret_ty.map(|_| self.em.fresh_reg());
            self.em.push(
                Instr::Dispatch {
                    point: site_id,
                    dst,
                    args,
                },
                false,
            );
            self.em.push(Instr::Ret { src: dst }, false);
        } else {
            // Terminator.
            let term = self.f.block(block).term.clone();
            let live_out = self.rules.live.live_out[block.index()].clone();
            let term_uses: BTreeSet<VReg> = term.uses().into_iter().collect();
            self.em
                .flush_renames(|v| live_out.contains(&v) || term_uses.contains(&v), true);
            // Every dynamic variable live out of the block must survive
            // the unit's dead-assignment sweep: later units read it.
            let mut live_out_sorted: Vec<VReg> = live_out.iter().copied().collect();
            live_out_sorted.sort();
            for v in live_out_sorted {
                if !self.em.frame().contains(v) {
                    let r = self.em.reg_of(v);
                    self.em.mark_live(r);
                }
            }
            match term {
                Term::Jmp(t) => {
                    chain = self.take_edge(t, env);
                }
                Term::Br { cond, t, f: fb } => {
                    match self.em.resolve(cond) {
                        Opnd::KI(v) => {
                            env.sinks.stats.branches_folded += 1;
                            let target = if v != 0 { t } else { fb };
                            chain = self.take_edge(target, env);
                        }
                        Opnd::KF(v) => {
                            env.sinks.stats.branches_folded += 1;
                            let target = if v != 0.0 { t } else { fb };
                            chain = self.take_edge(target, env);
                        }
                        Opnd::R(r) => {
                            self.em.mark_live(r);
                            // Demote for both successors before branching.
                            let id_t = self.edge_unit(t, env);
                            let id_f = self.edge_unit(fb, env);
                            // Branch to the true side; fall through to false.
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
                Term::Switch { on, cases, default } => match self.em.resolve(on) {
                    Opnd::KI(v) => {
                        env.sinks.stats.branches_folded += 1;
                        let target = cases
                            .iter()
                            .find_map(|(k, b)| (*k == v).then_some(*b))
                            .unwrap_or(default);
                        chain = self.take_edge(target, env);
                    }
                    Opnd::KF(_) => unreachable!("switch scrutinee is int"),
                    Opnd::R(r) => {
                        self.em.mark_live(r);
                        let tmp = self.em.fresh_reg();
                        for (k, target) in &cases {
                            let cid = self.edge_unit(*target, env);
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
                        let id_d = self.edge_unit(default, env);
                        if self.em.sealed(id_d) {
                            self.em.push_branch(Instr::Jmp { target: 0 }, id_d);
                        } else {
                            chain = Some(id_d);
                        }
                    }
                },
                Term::Ret(v) => {
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
            }
        }

        // Dynamic dead-assignment elimination + append (§2.2.7).
        self.em.seal_unit(id, &costs, env.sinks.stats);
        Ok(chain)
    }

    /// Compute the successor unit for `target`, materializing demoted
    /// statics into registers before the transfer, and intern it from
    /// the carried frame values. Every per-variable decision here is a
    /// run-time liveness/division/unroll query the staged path
    /// precompiles into an `EdgePlan`.
    fn edge_unit(&mut self, target: BlockId, env: &mut SpecEnv<'_>) -> u32 {
        let n = self.em.frame().len() as u64;
        env.sinks.stats.runtime_bta_calls += n;
        self.em.exec_cycles += env.costs.edge_plan_per_var * n;
        // Demotions emit code and carried variables form the key, each in
        // vreg order, so two passes over the frame keep both orders.
        for i in 0..self.f.n_vregs() {
            let v = VReg(i as u32);
            let frame = self.em.frame();
            let Some(val) = frame.get(v) else { continue };
            if self.rules.carries(frame, target, v) == Some(false) {
                // Demotion: the value crosses into run time here.
                let r = self.em.reg_of(v);
                self.em.push(mov_const(r, val), true);
                self.em.mark_live(r);
            }
        }
        let rules = &self.rules;
        let id = self.em.intern_online(target.0, 0, |frame, v| {
            rules.carries(frame, target, v) == Some(true)
        });
        self.at_point(id, target, 0);
        if let Some(from) = self.cur_unit {
            self.unit_edges.push((from, id));
        }
        id
    }

    /// Take an unconditional edge: tail-continue if the target is fresh,
    /// emit a jump otherwise.
    fn take_edge(&mut self, target: BlockId, env: &mut SpecEnv<'_>) -> Option<u32> {
        let id = self.edge_unit(target, env);
        if self.em.sealed(id) {
            self.em.push_branch(Instr::Jmp { target: 0 }, id);
            None
        } else {
            Some(id)
        }
    }

    /// Classify an unrolled loop as multi-way: some unit of the loop body
    /// can reach two or more distinct header units (a tree, like binary
    /// search), or a header unit is entered from two places (a graph,
    /// like an interpreted guest loop).
    fn loop_is_multiway(&self, header: BlockId, units: &HashSet<u32>) -> bool {
        let Some(l) = self.loops.iter().find(|l| l.header == header) else {
            return false;
        };
        // Adjacency restricted to units whose blocks are in the loop body.
        let mut succs: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut in_deg: HashMap<u32, u32> = HashMap::new();
        for (from, to) in &self.unit_edges {
            if !l.body.contains(&self.block_of(*from)) {
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
        // From each header unit, walk the body without passing through
        // other header units; reaching two of them means divergence.
        for k in units {
            let mut reached: HashSet<u32> = HashSet::new();
            let mut seen: HashSet<u32> = HashSet::new();
            let mut stack: Vec<u32> = vec![*k];
            while let Some(u) = stack.pop() {
                for v in succs.get(&u).map(Vec::as_slice).unwrap_or(&[]) {
                    if !l.body.contains(&self.block_of(*v)) {
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

/// The online edge decisions: the analyses an edge consults, per static
/// variable, for what the staged path reads from an `EdgePlan`.
struct EdgeRules {
    live: Liveness,
    static_in: Vec<BTreeSet<VReg>>,
    loop_assigned: HashMap<BlockId, BTreeSet<VReg>>,
    unroll_exit_deps: HashMap<BlockId, Vec<BTreeSet<VReg>>>,
    unroll_keep: HashMap<BlockId, BTreeSet<VReg>>,
    polyvariant_division: bool,
}

impl EdgeRules {
    /// What an edge into `target` under static store `frame` does with
    /// static `v`: `Some(true)` carries it, `Some(false)` demotes it,
    /// `None` drops it as dead.
    fn carries(&self, frame: &Frame, target: BlockId, v: VReg) -> Option<bool> {
        if !self.live.live_in[target.index()].contains(&v) {
            return None; // dead static: drop from the key (§4.4.3)
        }
        let mut keep = self.polyvariant_division || self.static_in[target.index()].contains(&v);
        // Demote loop-varying statics at loop headers unless they are
        // static induction variables of a loop that unrolls *in this
        // division*: unrolling must be driven by static control flow
        // or it never terminates (§2.1's "loops [that] have static
        // induction variables ... can therefore be completely
        // unrolled"). A loop unrolls in this division iff some exit
        // test's header-live dependencies are all in the current
        // static store — that is what makes conditional
        // specialization (§2.2.5) work: the guarded division unrolls,
        // the unguarded one keeps a residual loop.
        if let Some(assigned) = self.loop_assigned.get(&target) {
            if assigned.contains(&v) {
                let unrolls_here = self
                    .unroll_exit_deps
                    .get(&target)
                    .is_some_and(|deps| deps.iter().any(|d| d.iter().all(|x| frame.contains(*x))));
                let kept = unrolls_here
                    && self
                        .unroll_keep
                        .get(&target)
                        .is_some_and(|k| k.contains(&v));
                if !kept {
                    keep = false;
                }
            }
        }
        Some(keep)
    }
}

/// Is `v` read by any instruction after `(block, idx)`, by the block's
/// terminator, or live out of the block? (A run-time liveness query; the
/// staged path carries the answer in each `EmitHole`.)
fn read_later(f: &FuncIr, live: &Liveness, block: BlockId, idx: usize, v: VReg) -> bool {
    if live.live_out[block.index()].contains(&v) {
        return true;
    }
    let b = f.block(block);
    if b.term.uses().contains(&v) {
        return true;
    }
    b.insts[idx + 1..].iter().any(|ri| {
        if ri.uses().contains(&v) {
            return true;
        }
        match ri {
            Inst::MakeStatic { vars } => vars.iter().any(|(x, _)| *x == v),
            Inst::MakeDynamic { vars } => vars.contains(&v),
            Inst::Promote { var } => *var == v,
            _ => false,
        }
    })
}
