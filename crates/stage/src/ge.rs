//! Stage-time lowering of dynamic regions into **generating-extension
//! (GE) programs**.
//!
//! DyC's central claim is that run-time specialization stays cheap because
//! "the bulk of the work of the optimization [is done] at static compile
//! time" (§1): the static compiler emits, for each dynamic region, a
//! custom *generating extension* whose only run-time job is to execute
//! static computations and copy out pre-optimized code templates. The
//! legacy specializer in `dyc-rt` interpreted the region IR online —
//! re-classifying binding times, querying liveness, and re-deriving
//! unroll legality on every specialization. This module does all of that
//! **once**, here, consuming the offline [`dyc_bta::Bta`] and
//! [`dyc_ir::analysis::Liveness`] results:
//!
//! * Each dynamic region is enumerated into **divisions** — a program
//!   point paired with the *set* of live static variables
//!   ([`GeDivision`]). The key insight that makes this precomputable: the
//!   static store's key **set** (never its values) evolves
//!   deterministically along any path — a static instruction inserts its
//!   destination, a dynamic one removes it, `make_dynamic` removes its
//!   variables, a promotion adds the missing ones. Value-dependent
//!   behavior (constant folding through the rename table, unit
//!   memoization per value vector) remains in the thin run-time executor.
//! * Each division body is a flat program of [`GeOp`]s: `Eval` (execute a
//!   static computation against the static store), `EmitHole` (emit one
//!   template instruction, its holes filled from the store, with the
//!   precomputed "read later" set dynamic copy propagation needs), and
//!   `DemoteMaterialize` (a `make_dynamic` crossing point).
//! * Each division terminator is a [`GeTerm`]: statically-decided
//!   branches/switches (`StaticBr`/`StaticSwitch` — the unroll engine),
//!   dynamic ones carrying precomputed [`EdgePlan`]s (which variables to
//!   carry, demote, or drop at the unit boundary, §4.4.3's "only the
//!   live static variables"), returns, and internal dynamic-to-static
//!   promotions with their full dispatch-site layout precomputed
//!   ([`PromotePlan`]).
//!
//! The run-time executor in `dyc-rt` interprets these tables with **zero**
//! binding-time classifications, liveness queries, or loop analyses —
//! `RtStats::runtime_bta_calls` proves it — and emits code byte-identical
//! to the online path (the unit-key bijection: a division index encodes
//! exactly `(block, start, static-variable set)`).

use crate::plan::{live_at_point, site_policy, EntrySite, SitePolicy, StagedFunc};
use dyc_bta::{binding_with_set, Binding, OptConfig};
use dyc_ir::analysis::{natural_loops, NaturalLoop};
use dyc_ir::inst::{Inst, Term};
use dyc_ir::{BlockId, FuncIr, IrTy, ProgramIr, VReg};
use dyc_lang::Policy;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Per-function division cap: a region whose set-level division graph
/// exceeds this is not staged (the function falls back to the online
/// specializer). Set far above anything a real region produces — the
/// division space is bounded by distinct static-variable *sets* per
/// block, not by run-time values.
const MAX_DIVISIONS: usize = 4096;

/// One GE operation: the precompiled form of one region instruction.
#[derive(Debug, Clone)]
pub enum GeOp {
    /// Execute a static computation against the static store (its
    /// destination becomes static).
    Eval(Inst),
    /// Emit one dynamic instruction, holes filled from the store.
    EmitHole {
        /// The template instruction.
        inst: Inst,
        /// Variables read at or after this point in the block (sorted) —
        /// the stale-rename materialization test dynamic copy
        /// propagation performs, precomputed from liveness.
        reads_after: Vec<VReg>,
    },
    /// A `make_dynamic` whose variables are static here: their values
    /// cross into run time (materialized as constant moves) and leave
    /// the static store. Variables listed in annotation order.
    DemoteMaterialize {
        /// The variables demoted (all static in this division).
        vars: Vec<VReg>,
    },
    /// A fused run of consecutive emits: a prebuilt contiguous
    /// instruction block copied wholesale at run time, with a side table
    /// of holes to patch (§2.1's "copy the pre-optimized templates").
    /// Produced by [`crate::template::fuse_ge_func`] when
    /// `OptConfig::template_fusion` is on.
    EmitTemplate(Box<crate::template::Template>),
}

/// A unit-boundary transfer plan: what happens to each static variable
/// when control moves from one division to a successor block.
#[derive(Debug, Clone)]
pub struct EdgePlan {
    /// Target division (encodes the successor block and the resulting
    /// static-variable set: its `vars` are the variables carried into
    /// the successor's static store).
    pub target: u32,
    /// Variables demoted at this edge — materialized as constant moves
    /// before the transfer (sorted). Dead statics are simply dropped and
    /// appear in neither list.
    pub demote: Vec<VReg>,
}

/// A precomputed internal dynamic-to-static promotion site (§2.2.2).
#[derive(Debug, Clone)]
pub struct PromotePlan {
    /// Instruction index of the promoting annotation.
    pub at: usize,
    /// The promoted (previously dynamic) variables, in annotation order —
    /// their run-time values form the dispatch key.
    pub key_vars: Vec<VReg>,
    /// Static variables live across the promotion — the dispatch site's
    /// baked-in base store (sorted).
    pub carried: Vec<VReg>,
    /// Dynamic variables live across the promotion — the dispatch
    /// arguments (sorted).
    pub args: Vec<VReg>,
    /// All variables live at the point (sorted) — the rename-flush keep
    /// set.
    pub live: Vec<VReg>,
    /// Caching policy of the created site.
    pub policy: SitePolicy,
    /// Division specialization resumes in once the values are known:
    /// `(block, at, carried ∪ key_vars)`.
    pub resume_division: u32,
}

/// A division terminator: how a unit ends.
#[derive(Debug, Clone)]
pub enum GeTerm {
    /// Unconditional transfer.
    Jmp(EdgePlan),
    /// Branch whose condition is static in this division: the executor
    /// folds it on the run-time value and takes exactly one plan. This is
    /// the complete-loop-unrolling engine (§2.2.4).
    StaticBr {
        /// The (static) condition variable.
        cond: VReg,
        /// Plan when the condition is non-zero.
        t: EdgePlan,
        /// Plan when the condition is zero.
        f: EdgePlan,
    },
    /// Branch on a dynamic condition: both sides' demotions are emitted,
    /// then a conditional branch. (The rename table may still fold it at
    /// run time if the condition renames to a constant.)
    DynBr {
        /// The (dynamic) condition variable.
        cond: VReg,
        /// Plan for the true successor.
        t: EdgePlan,
        /// Plan for the false successor.
        f: EdgePlan,
    },
    /// Switch on a static scrutinee: folded at specialization time.
    StaticSwitch {
        /// The (static) scrutinee.
        on: VReg,
        /// Per-case plans.
        cases: Vec<(i64, EdgePlan)>,
        /// Default plan.
        default: EdgePlan,
    },
    /// Switch on a dynamic scrutinee: compiled to a compare/branch chain.
    DynSwitch {
        /// The (dynamic) scrutinee.
        on: VReg,
        /// Per-case plans.
        cases: Vec<(i64, EdgePlan)>,
        /// Default plan.
        default: EdgePlan,
    },
    /// Function return.
    Ret(Option<VReg>),
    /// Internal dynamic-to-static promotion: the unit ends with a
    /// dispatch that resumes specialization once the values are known.
    Promote(PromotePlan),
}

/// One division: a specialization-unit *shape* — program point plus live
/// static-variable set. At run time a unit is a division plus the values.
#[derive(Debug, Clone)]
pub struct GeDivision {
    /// Block this division specializes.
    pub block: BlockId,
    /// First instruction index (non-zero for promotion resume points).
    pub start: u32,
    /// The static-variable set at entry (sorted) — with the block and
    /// start, the division's identity.
    pub vars: Vec<VReg>,
    /// The flat GE program for the division body.
    pub ops: Vec<GeOp>,
    /// How the division ends.
    pub term: GeTerm,
    /// Rename-flush keep set at the terminator: variables live out of
    /// the block or used by the terminator (sorted). Empty for
    /// [`GeTerm::Promote`] (the plan carries its own keep set).
    pub flush_keep: Vec<VReg>,
    /// Live-out variables that are dynamic at the terminator (sorted) —
    /// their registers must survive the unit's dead-assignment sweep.
    pub live_out_dyn: Vec<VReg>,
}

/// The GE program of one function: every reachable division, plus the
/// per-function tables the executor needs (so it touches no analyses).
#[derive(Debug, Clone)]
pub struct GeFunc {
    /// All divisions; [`EdgePlan::target`] and
    /// [`PromotePlan::resume_division`] index this list.
    pub divisions: Vec<GeDivision>,
    /// Per-vreg float flag (precomputed `FuncIr::ty` — move selection).
    pub float_vreg: Vec<bool>,
    /// Whether the function returns a value (promotion dispatch layout).
    pub ret_has_value: bool,
    /// Natural loops (instrumentation: unroll detection and
    /// classification only).
    pub loops: Vec<NaturalLoop>,
}

/// GE programs for a whole staged program.
#[derive(Debug, Clone, Default)]
pub struct GeProgram {
    /// Per-function GE programs, parallel to `ProgramIr::funcs`. `None`
    /// when the function has no dynamic region, staging is disabled, or
    /// the division cap was exceeded (online fallback).
    pub funcs: Vec<Option<Arc<GeFunc>>>,
    /// Entry division per entry site, parallel to
    /// `StagedProgram::entry_sites`.
    pub entry_divisions: Vec<Option<u32>>,
}

/// Lower every annotated function of `ir` into GE programs. Returns an
/// empty (all-`None`) program when `cfg.staged_ge` is off.
pub fn lower_ge_program(
    ir: &ProgramIr,
    cfg: &OptConfig,
    funcs: &[StagedFunc],
    entry_sites: &[EntrySite],
) -> GeProgram {
    let mut ge = GeProgram {
        funcs: vec![None; ir.funcs.len()],
        entry_divisions: vec![None; entry_sites.len()],
    };
    if !cfg.staged_ge {
        return ge;
    }
    for (fi, f) in ir.funcs.iter().enumerate() {
        let sites: Vec<(usize, &EntrySite)> = entry_sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.func == fi)
            .collect();
        if sites.is_empty() {
            continue;
        }
        if let Some((gef, entries)) = lower_func(f, &funcs[fi], cfg, &sites) {
            for (site_idx, div) in entries {
                ge.entry_divisions[site_idx] = Some(div);
            }
            ge.funcs[fi] = Some(Arc::new(gef));
        }
    }
    ge
}

/// Lower one function. Returns `None` (online fallback) only if the
/// division cap is exceeded.
fn lower_func(
    f: &FuncIr,
    sf: &StagedFunc,
    cfg: &OptConfig,
    sites: &[(usize, &EntrySite)],
) -> Option<(GeFunc, Vec<(usize, u32)>)> {
    let mut lw = Lowerer {
        f,
        sf,
        cfg,
        divisions: Vec::new(),
        meta: Vec::new(),
        index: HashMap::new(),
        work: Vec::new(),
        read_later: HashMap::new(),
    };
    let mut entries = Vec::new();
    for (site_idx, s) in sites {
        let vars: BTreeSet<VReg> = s.key_vars.iter().map(|(v, _)| *v).collect();
        let d = lw.intern(s.block, s.inst_idx as u32, vars)?;
        entries.push((*site_idx, d));
    }
    while let Some(d) = lw.work.pop() {
        let (block, start, vars) = lw.meta[d as usize].clone();
        let div = lw.lower_division(block, start, &vars)?;
        lw.divisions[d as usize] = Some(div);
    }
    let loops = natural_loops(f);
    let float_vreg: Vec<bool> = (0..f.n_vregs())
        .map(|i| f.ty(VReg(i as u32)) == IrTy::Float)
        .collect();
    let mut gef = GeFunc {
        divisions: lw
            .divisions
            .into_iter()
            .map(|d| d.expect("division worklist drained"))
            .collect(),
        float_vreg,
        ret_has_value: f.ret_ty.is_some(),
        loops,
    };
    if cfg.template_fusion {
        crate::template::fuse_ge_func(&mut gef, cfg);
    }
    Some((gef, entries))
}

/// Worklist-driven division enumerator for one function.
struct Lowerer<'a> {
    f: &'a FuncIr,
    sf: &'a StagedFunc,
    cfg: &'a OptConfig,
    divisions: Vec<Option<GeDivision>>,
    meta: Vec<(BlockId, u32, BTreeSet<VReg>)>,
    index: HashMap<(BlockId, u32, Vec<VReg>), u32>,
    work: Vec<u32>,
    /// Per-block "read at or after instruction j" tables:
    /// `read_later[b][j]` = live-out ∪ terminator uses ∪ uses and
    /// annotation mentions of `insts[j..]`.
    read_later: HashMap<BlockId, Vec<BTreeSet<VReg>>>,
}

impl Lowerer<'_> {
    /// Intern a division identity, queueing it for lowering if new.
    /// `None` iff the cap is exceeded.
    fn intern(&mut self, block: BlockId, start: u32, vars: BTreeSet<VReg>) -> Option<u32> {
        let key = (block, start, vars.iter().copied().collect::<Vec<_>>());
        if let Some(i) = self.index.get(&key) {
            return Some(*i);
        }
        if self.divisions.len() >= MAX_DIVISIONS {
            return None;
        }
        let i = self.divisions.len() as u32;
        self.divisions.push(None);
        self.meta.push((block, start, vars));
        self.index.insert(key, i);
        self.work.push(i);
        Some(i)
    }

    fn lower_division(
        &mut self,
        block: BlockId,
        start: u32,
        entry_vars: &BTreeSet<VReg>,
    ) -> Option<GeDivision> {
        let mut s = entry_vars.clone();
        let mut ops = Vec::new();
        let n_insts = self.f.block(block).insts.len();
        let mut promotion: Option<(usize, Vec<VReg>)> = None;
        let mut i = start as usize;
        while i < n_insts {
            let inst = self.f.block(block).insts[i].clone();
            match &inst {
                Inst::MakeStatic { vars } => {
                    let missing: Vec<VReg> = vars
                        .iter()
                        .map(|(v, _)| *v)
                        .filter(|v| !s.contains(v))
                        .collect();
                    if !missing.is_empty() && self.cfg.internal_promotions {
                        promotion = Some((i, missing));
                        break;
                    }
                }
                Inst::Promote { var } => {
                    if !s.contains(var) && self.cfg.internal_promotions {
                        promotion = Some((i, vec![*var]));
                        break;
                    }
                }
                Inst::MakeDynamic { vars } => {
                    let present: Vec<VReg> =
                        vars.iter().filter(|v| s.contains(v)).copied().collect();
                    for v in &present {
                        s.remove(v);
                    }
                    if !present.is_empty() {
                        ops.push(GeOp::DemoteMaterialize { vars: present });
                    }
                }
                _ => match binding_with_set(&inst, &s, self.cfg) {
                    Binding::Static => {
                        let dst = inst.def().expect("static computations define a value");
                        ops.push(GeOp::Eval(inst));
                        s.insert(dst);
                    }
                    Binding::Dynamic => {
                        let reads_after = self.reads_after(block, i);
                        if let Some(d) = inst.def() {
                            s.remove(&d);
                        }
                        ops.push(GeOp::EmitHole { inst, reads_after });
                    }
                    Binding::Annotation => unreachable!("annotations handled above"),
                },
            }
            i += 1;
        }

        let (term, flush_keep, live_out_dyn) = if let Some((at, missing)) = promotion {
            let live = live_at_point(self.f, &self.sf.live, block, at);
            let carried: Vec<VReg> = live.iter().filter(|v| s.contains(v)).copied().collect();
            let args: Vec<VReg> = live.iter().filter(|v| !s.contains(v)).copied().collect();
            let policy = site_policy(
                self.cfg,
                missing.iter().map(|v| {
                    self.sf
                        .bta
                        .policies
                        .get(v)
                        .copied()
                        .unwrap_or(Policy::CacheAll)
                }),
                missing.len(),
            );
            let mut resume: BTreeSet<VReg> = carried.iter().copied().collect();
            resume.extend(missing.iter().copied());
            let resume_division = self.intern(block, at as u32, resume)?;
            let plan = PromotePlan {
                at,
                key_vars: missing,
                carried,
                args,
                live,
                policy,
                resume_division,
            };
            (GeTerm::Promote(plan), Vec::new(), Vec::new())
        } else {
            let mut keep: BTreeSet<VReg> = self.sf.live.live_out[block.index()]
                .iter()
                .copied()
                .collect();
            let live_out_dyn: Vec<VReg> = keep.iter().filter(|v| !s.contains(v)).copied().collect();
            keep.extend(self.f.block(block).term.uses());
            let flush_keep: Vec<VReg> = keep.into_iter().collect();
            let term = match self.f.block(block).term.clone() {
                Term::Jmp(t) => GeTerm::Jmp(self.edge_plan(t, &s)?),
                Term::Br { cond, t, f } => {
                    let tp = self.edge_plan(t, &s)?;
                    let fp = self.edge_plan(f, &s)?;
                    if s.contains(&cond) {
                        GeTerm::StaticBr { cond, t: tp, f: fp }
                    } else {
                        GeTerm::DynBr { cond, t: tp, f: fp }
                    }
                }
                Term::Switch { on, cases, default } => {
                    let mut plans = Vec::with_capacity(cases.len());
                    for (k, b) in &cases {
                        plans.push((*k, self.edge_plan(*b, &s)?));
                    }
                    let dp = self.edge_plan(default, &s)?;
                    if s.contains(&on) {
                        GeTerm::StaticSwitch {
                            on,
                            cases: plans,
                            default: dp,
                        }
                    } else {
                        GeTerm::DynSwitch {
                            on,
                            cases: plans,
                            default: dp,
                        }
                    }
                }
                Term::Ret(v) => GeTerm::Ret(v),
            };
            (term, flush_keep, live_out_dyn)
        };

        Some(GeDivision {
            block,
            start,
            vars: entry_vars.iter().copied().collect(),
            ops,
            term,
            flush_keep,
            live_out_dyn,
        })
    }

    /// Plan one unit-boundary edge under static set `s`: per variable, in
    /// sorted order — drop if dead in the target, demote if the division
    /// rules say it cannot stay static there, carry otherwise. Mirrors
    /// the legacy online `edge_unit` decision for byte-identical output.
    fn edge_plan(&mut self, target: BlockId, s: &BTreeSet<VReg>) -> Option<EdgePlan> {
        let bta = &self.sf.bta;
        let live_in = &self.sf.live.live_in[target.index()];
        let mut demote = Vec::new();
        let mut out = BTreeSet::new();
        for v in s {
            if !live_in.contains(v) {
                continue; // dead static: drop from the key (§4.4.3)
            }
            let mut keep = true;
            if !self.cfg.polyvariant_division && !bta.static_in[target.index()].contains(v) {
                keep = false;
            }
            // Loop-varying statics demote at the header unless the loop
            // unrolls *in this division* — decided purely by the set:
            // some exit test's dependencies all static here (§2.2.4/§2.2.5).
            if let Some(assigned) = bta.loop_assigned.get(&target) {
                if assigned.contains(v) {
                    let unrolls_here = bta
                        .unroll_exit_deps
                        .get(&target)
                        .is_some_and(|deps| deps.iter().any(|d| d.iter().all(|x| s.contains(x))));
                    let kept = unrolls_here
                        && bta
                            .unroll_keep_opt
                            .get(&target)
                            .is_some_and(|k| k.contains(v));
                    if !kept {
                        keep = false;
                    }
                }
            }
            if keep {
                out.insert(*v);
            } else {
                demote.push(*v);
            }
        }
        let target_div = self.intern(target, 0, out)?;
        Some(EdgePlan {
            target: target_div,
            demote,
        })
    }

    /// Variables read at or after instruction `idx + 1` of `block`
    /// (sorted): the precomputed form of the online specializer's
    /// per-query `read_later`.
    fn reads_after(&mut self, block: BlockId, idx: usize) -> Vec<VReg> {
        if !self.read_later.contains_key(&block) {
            let tbl = build_read_later(self.f, &self.sf.live, block);
            self.read_later.insert(block, tbl);
        }
        self.read_later[&block][idx + 1].iter().copied().collect()
    }
}

/// Suffix "read later" table for one block: `tbl[j]` holds every variable
/// used (or mentioned by an annotation) at instruction `j` or later, plus
/// the block's live-out set and terminator uses.
fn build_read_later(
    f: &FuncIr,
    live: &dyc_ir::analysis::Liveness,
    block: BlockId,
) -> Vec<BTreeSet<VReg>> {
    let b = f.block(block);
    let n = b.insts.len();
    let mut base: BTreeSet<VReg> = live.live_out[block.index()].iter().copied().collect();
    base.extend(b.term.uses());
    let mut tbl = vec![BTreeSet::new(); n + 1];
    tbl[n] = base;
    for j in (0..n).rev() {
        let mut s = tbl[j + 1].clone();
        let inst = &b.insts[j];
        s.extend(inst.uses());
        match inst {
            Inst::MakeStatic { vars } => s.extend(vars.iter().map(|(v, _)| *v)),
            Inst::MakeDynamic { vars } => s.extend(vars.iter().copied()),
            Inst::Promote { var } => {
                s.insert(*var);
            }
            _ => {}
        }
        tbl[j] = s;
    }
    tbl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::stage_program;
    use crate::StagedProgram;
    use dyc_ir::lower::lower_program;
    use dyc_lang::parse_program;

    fn staged(src: &str, cfg: OptConfig) -> StagedProgram {
        let mut ir = lower_program(&parse_program(src).unwrap()).unwrap();
        dyc_ir::opt::optimize_program(&mut ir);
        stage_program(ir, cfg)
    }

    const POWER: &str = r#"
        int power(int base, int exp) {
            make_static(exp);
            int r = 1;
            while (exp > 0) { r = r * base; exp = exp - 1; }
            return r;
        }
    "#;

    #[test]
    fn annotated_function_gets_a_ge_program() {
        let s = staged(POWER, OptConfig::all());
        let gef = s.ge.funcs[0].as_ref().expect("power is staged");
        assert_eq!(s.ge.entry_divisions.len(), 1);
        let entry = s.ge.entry_divisions[0].expect("entry division");
        let d = &gef.divisions[entry as usize];
        // Entry division: the make_static block, keyed on exactly the
        // promoted variable set.
        assert_eq!(d.block, s.entry_sites[0].block);
        assert_eq!(d.start as usize, s.entry_sites[0].inst_idx);
        assert_eq!(d.vars.len(), s.entry_sites[0].key_vars.len());
        // The loop's exit test is static: some division ends in a
        // StaticBr — the unroll engine.
        assert!(
            gef.divisions
                .iter()
                .any(|d| matches!(d.term, GeTerm::StaticBr { .. })),
            "expected a statically-decided branch among {} divisions",
            gef.divisions.len()
        );
    }

    #[test]
    fn divisions_are_finite_even_for_unrolled_loops() {
        // The loop unrolls into unboundedly many *units* at run time, but
        // the set-level division graph is a small cycle.
        let s = staged(POWER, OptConfig::all());
        let gef = s.ge.funcs[0].as_ref().unwrap();
        assert!(gef.divisions.len() < 32, "got {}", gef.divisions.len());
    }

    #[test]
    fn disabling_staged_ge_skips_lowering() {
        let cfg = OptConfig::all().without("staged_ge").unwrap();
        let s = staged(POWER, cfg);
        assert!(s.ge.funcs.iter().all(Option::is_none));
        assert!(s.ge.entry_divisions.iter().all(Option::is_none));
    }

    #[test]
    fn unannotated_functions_are_not_staged() {
        let s = staged("int f(int x) { return x + 1; }", OptConfig::all());
        assert!(s.ge.funcs[0].is_none());
    }

    #[test]
    fn promotion_gets_a_resume_division() {
        let src = r#"
            int f(int n, int d) {
                make_static(n);
                int acc = 0;
                int i = 0;
                while (i < n) {
                    int t = d + i;
                    promote(t);
                    acc = acc + t;
                    make_dynamic(t);
                    i = i + 1;
                }
                return acc;
            }
        "#;
        let s = staged(src, OptConfig::all());
        let gef = s.ge.funcs[0].as_ref().expect("staged");
        let promo = gef
            .divisions
            .iter()
            .find_map(|d| match &d.term {
                GeTerm::Promote(p) => Some((d, p)),
                _ => None,
            })
            .expect("a promotion division exists");
        let (d, p) = promo;
        // The resume division starts at the annotation with the carried
        // and promoted variables static.
        let r = &gef.divisions[p.resume_division as usize];
        assert_eq!(r.block, d.block);
        assert_eq!(r.start as usize, p.at);
        let resume_vars: BTreeSet<VReg> = r.vars.iter().copied().collect();
        for v in p.key_vars.iter().chain(&p.carried) {
            assert!(resume_vars.contains(v), "{v:?} missing from resume set");
        }
    }

    #[test]
    fn edge_plans_partition_the_static_set() {
        let s = staged(POWER, OptConfig::all());
        let gef = s.ge.funcs[0].as_ref().unwrap();
        for d in &gef.divisions {
            let vars: BTreeSet<VReg> = d.vars.iter().copied().collect();
            let check = |p: &EdgePlan| {
                // The carried variables (the target division's `vars`)
                // and the demoted ones were static in the division (the
                // body may have grown/shrunk the set, so only sortedness
                // and disjointness are asserted strictly).
                let target = &gef.divisions[p.target as usize];
                let mut sorted = target.vars.clone();
                sorted.sort();
                assert_eq!(sorted, target.vars);
                let mut sorted = p.demote.clone();
                sorted.sort();
                assert_eq!(sorted, p.demote);
                let tvars: BTreeSet<VReg> = target.vars.iter().copied().collect();
                for v in &p.demote {
                    assert!(!tvars.contains(v), "{v:?} both carried and demoted");
                }
                let _ = &vars;
            };
            match &d.term {
                GeTerm::Jmp(p) => check(p),
                GeTerm::StaticBr { t, f, .. } | GeTerm::DynBr { t, f, .. } => {
                    check(t);
                    check(f);
                }
                GeTerm::StaticSwitch { cases, default, .. }
                | GeTerm::DynSwitch { cases, default, .. } => {
                    for (_, p) in cases {
                        check(p);
                    }
                    check(default);
                }
                GeTerm::Ret(_) | GeTerm::Promote(_) => {}
            }
        }
    }
}
