//! The shared code emitter behind both specialization paths.
//!
//! The legacy online specializer and the staged generating-extension
//! executor must produce **byte-identical** code: staging moves the
//! analysis work to static compile time but may not change the emitted
//! instructions. The way this reproduction guarantees that is
//! structural — both paths drive this one emitter, keying units by a
//! word encoding of `(program point, static store)` online and
//! `(division, value vector)` staged (a bijection). Everything
//! value-dependent lives here: register allocation, the rename table of
//! dynamic zero/copy propagation, strength reduction, per-unit constant
//! materialization, dead-assignment sweeps, label/fixup bookkeeping, and
//! the execution of static computations against live VM state.
//!
//! Every table the emitter builds lives in an [`EmitScratch`] that the
//! dispatch core owns and lends to each specialization, so a miss reuses
//! the capacity earlier misses grew instead of allocating its own. That
//! includes the static store: one dense [`Frame`] per specialization,
//! loaded from each unit's interned key when the unit starts, so a unit's
//! key *is* its store and no executor builds or moves a store of its own.
//! It also includes the code itself: sealed units land in one instruction
//! buffer, their branches are patched there once every unit is sealed,
//! and the install copies the buffer out at its exact length.
//!
//! Cycle metering is split into [`Emitter::exec_cycles`] (generating-
//! extension work: static computations, checks, bookkeeping) and
//! [`Emitter::emit_cycles`] (instruction construction/emission and branch
//! patching) so Table 3 can attribute where staging saves time.

use crate::costs::DynCosts;
use crate::fnv::{FNV_OFFSET, FNV_PRIME};
use crate::ge_exec::heap_bytes;
use crate::runtime::Site;
use crate::stats::RtStats;
use dyc_bta::OptConfig;
use dyc_ir::inst::{Callee, Inst};
use dyc_ir::VReg;
use dyc_vm::{
    Cc, CodeFunc, FAluOp, FuncId, IAluOp, Instr, Module, Operand, Reg, UnOp, Value, Vm, VmError,
};
use std::collections::HashMap;

/// A dense bitset over machine registers — the unit-local live-register
/// set dead-assignment elimination sweeps against. Replaces the old
/// `HashSet<Reg>` so the per-instruction DAE bookkeeping is two shifts
/// and a mask instead of a hash.
#[derive(Debug, Default, Clone)]
pub(crate) struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
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

    /// Empty the set, keeping its words.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
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
#[derive(Debug)]
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
}

impl Emitted {
    /// A constructed instruction with no branch fixup.
    pub(crate) fn plain(ins: Instr, deletable: bool) -> Emitted {
        Emitted {
            ins,
            deletable,
            fixup: None,
            templated: false,
            patches: 0,
        }
    }
}

/// Sentinel for "no register assigned yet" in the dense vreg table.
const NO_REG: Reg = u32::MAX;

/// The unit-key interner: every key's words back to back in one arena,
/// indexed by an open-addressed table of dense unit ids. A lookup appends
/// the candidate key to the arena, hashes it once, and truncates it again
/// if the key was already there, so no lookup allocates once the arena
/// and the index have grown to a specialization's size.
#[derive(Debug, Default)]
struct UnitKeys {
    words: Vec<u64>,
    /// Per unit id: its key's `[start, end)` in `words`, and its slot.
    keys: Vec<(u32, u32, u32)>,
    /// Unit id + 1 per slot, `0` when empty; linear probing, a power of
    /// two long and at most half full.
    slots: Vec<u32>,
}

impl UnitKeys {
    /// Forget every key (touching only the slots they occupy).
    fn clear(&mut self) {
        for &(_, _, slot) in &self.keys {
            self.slots[slot as usize] = 0;
        }
        self.keys.clear();
        self.words.clear();
    }

    /// FNV-1a over the key words, finished with murmur3's `fmix64` so
    /// the low bits the slot mask keeps depend on every word.
    fn hash(key: &[u64]) -> usize {
        let mut h = FNV_OFFSET;
        for w in key {
            h = (h ^ w).wrapping_mul(FNV_PRIME);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        (h ^ (h >> 33)) as usize
    }

    /// The id of the key `push_key` appends to the arena, and whether it
    /// is new (ids are dense, in first-sight order).
    fn intern(&mut self, push_key: impl FnOnce(&mut Vec<u64>)) -> (u32, bool) {
        let start = self.words.len();
        push_key(&mut self.words);
        let end = self.words.len();
        if 2 * (self.keys.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::hash(&self.words[start..end]) & mask;
        loop {
            match self.slots[i] {
                0 => {
                    let id = self.keys.len() as u32;
                    self.keys.push((start as u32, end as u32, i as u32));
                    self.slots[i] = id + 1;
                    return (id, true);
                }
                s => {
                    let (a, b, _) = self.keys[s as usize - 1];
                    if self.words[a as usize..b as usize] == self.words[start..end] {
                        self.words.truncate(start);
                        return (s - 1, false);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the index (it never shrinks) and re-slot every key.
    fn grow(&mut self) {
        let UnitKeys { words, keys, slots } = self;
        let n = (slots.len() * 2).max(16);
        slots.clear();
        slots.resize(n, 0);
        for (id, key) in keys.iter_mut().enumerate() {
            let mut i = Self::hash(&words[key.0 as usize..key.1 as usize]) & (n - 1);
            while slots[i] != 0 {
                i = (i + 1) & (n - 1);
            }
            slots[i] = id as u32 + 1;
            key.2 = i as u32;
        }
    }

    /// The key words of unit `id`.
    fn key(&self, id: u32) -> &[u64] {
        let (a, b, _) = self.keys[id as usize];
        &self.words[a as usize..b as usize]
    }
}

/// The static store of the unit being emitted, dense by vreg of the
/// function being specialized: each static variable's value, `None` for
/// a dynamic one. A unit's static values are exactly its key's, so the
/// frame is loaded from the key when the unit starts, and an edge interns
/// its successor's key straight from the frame.
#[derive(Debug, Default)]
pub(crate) struct Frame(Vec<Option<Value>>);

impl Frame {
    /// Is `v` static?
    pub(crate) fn contains(&self, v: VReg) -> bool {
        self.get(v).is_some()
    }

    /// The value of `v`, when static.
    pub(crate) fn get(&self, v: VReg) -> Option<Value> {
        self.0.get(v.0 as usize).copied().flatten()
    }

    /// The value of `v`, which the caller knows to be static.
    pub(crate) fn value(&self, v: VReg) -> Value {
        self.get(v).expect("the variable is static here")
    }

    /// The static variables with their values, in vreg order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (VReg, Value)> + '_ {
        (self.0.iter().enumerate()).filter_map(|(i, val)| val.map(|val| (VReg(i as u32), val)))
    }

    /// Number of static variables.
    pub(crate) fn len(&self) -> usize {
        self.0.iter().filter(|val| val.is_some()).count()
    }

    /// Make `v` static with value `val`, whose variant must be the one
    /// `v`'s type gives it (the key decoding relies on that).
    fn set(&mut self, v: VReg, val: Value, is_float: bool) {
        debug_assert_eq!(val.is_int(), !is_float, "{v:?} = {val:?}: wrong variant");
        self.0[v.0 as usize] = Some(val);
    }
}

/// Every table the emitter builds while specializing: the unit interner,
/// labels, fixups, register map and sealed code of the whole
/// specialization, and the static frame, rename table, constant
/// registers, emit buffer, dead-assignment keep flags and live set of the
/// unit being emitted.
///
/// The dispatch core owns one (inside its `SpecScratch`) and lends it to
/// each miss. [`Emitter::new`] clears the specialization's tables and
/// [`Emitter::start_unit`] the unit's, on entry rather than on exit, so a
/// specialization aborted part-way (a static division by zero, say)
/// leaves nothing behind for the next one. The tables are kept between
/// misses, so after the first few they have the capacity later ones
/// need.
#[derive(Debug, Default)]
pub(crate) struct EmitScratch {
    units: UnitKeys,
    /// Code offset per unit id; `u32::MAX` until the unit is sealed.
    labels: Vec<u32>,
    /// `(code offset of a branch, unit id it targets)`, patched once
    /// every unit is sealed.
    fixups: Vec<(usize, u32)>,
    /// The sealed units' instructions, in seal order.
    code: Vec<Instr>,
    /// The unit's static store.
    frame: Frame,
    /// Dense vreg → machine-register table (`NO_REG` = unassigned).
    reg_map: Vec<Reg>,
    /// Dense vreg → alias of dynamic zero/copy propagation.
    rename: Vec<Option<Opnd>>,
    /// Vregs given an alias this unit (unsorted; may hold killed or
    /// repeated entries until [`Emitter::sort_renamed`] compacts it).
    renamed: Vec<VReg>,
    /// Constant value bits → the register materializing it this unit.
    /// Its keys come from the program's data, so it keeps the standard
    /// hasher.
    consts: HashMap<u64, Reg>,
    /// The unit's instructions, before the dead-assignment sweep.
    buf: Vec<Emitted>,
    /// Per `buf` entry: does it survive the sweep?
    keep: Vec<bool>,
    /// Registers live at the unit's end (the sweep's starting set).
    live: RegSet,
    /// A dynamic call's resolved arguments.
    call_args: Vec<Opnd>,
}

impl EmitScratch {
    /// Heap bytes the tables hold.
    pub(crate) fn heap_bytes(&self) -> usize {
        let consts = self.consts.capacity() * std::mem::size_of::<(u64, Reg)>();
        heap_bytes(&self.units.words)
            + heap_bytes(&self.units.keys)
            + heap_bytes(&self.units.slots)
            + heap_bytes(&self.labels)
            + heap_bytes(&self.fixups)
            + heap_bytes(&self.code)
            + heap_bytes(&self.frame.0)
            + heap_bytes(&self.reg_map)
            + heap_bytes(&self.rename)
            + heap_bytes(&self.renamed)
            + consts
            + heap_bytes(&self.buf)
            + heap_bytes(&self.keep)
            + heap_bytes(&self.live.words)
            + heap_bytes(&self.call_args)
    }
}

/// The shared emit-time machinery, over the [`EmitScratch`] it keeps its
/// tables and its code in.
///
/// Unit keys are *interned*: each reference to a unit writes its key's
/// words into the interner's arena and hashes them once, and the unit
/// receives a dense `u32` id. Labels, fixups, the executors' worklists
/// and instrumentation run on ids, and the register map and rename table
/// are dense vectors indexed by vreg number, so after interning the emit
/// hot path does no hash-map traffic except through the per-unit
/// constant-register table.
pub(crate) struct Emitter<'s> {
    pub(crate) cfg: OptConfig,
    /// Per-vreg float flag (move/flush selection).
    float_vreg: &'s [bool],
    t: &'s mut EmitScratch,
    pub(crate) next_reg: u32,
    /// Cycles spent executing the generating extension itself.
    pub(crate) exec_cycles: u64,
    /// Cycles spent constructing, emitting, and patching instructions.
    pub(crate) emit_cycles: u64,
}

impl<'s> Emitter<'s> {
    /// An emitter for one specialization of a function whose vregs have
    /// the float flags `float_vreg`, keeping its tables and code in `t`,
    /// which it clears first (the frame to one dynamic entry per vreg).
    pub(crate) fn new(
        cfg: OptConfig,
        float_vreg: &'s [bool],
        t: &'s mut EmitScratch,
    ) -> Emitter<'s> {
        t.units.clear();
        t.labels.clear();
        t.fixups.clear();
        t.code.clear();
        t.frame.0.clear();
        t.frame.0.resize(float_vreg.len(), None);
        t.reg_map.clear();
        t.reg_map.resize(float_vreg.len(), NO_REG);
        t.rename.clear();
        t.rename.resize(float_vreg.len(), None);
        t.renamed.clear();
        let mut em = Emitter {
            cfg,
            float_vreg,
            t,
            next_reg: 0,
            exec_cycles: 0,
            emit_cycles: 0,
        };
        em.start_unit();
        em
    }

    /// Begin a unit: empty the frame, the rename table, the constant
    /// registers, the emit buffer and the live set.
    pub(crate) fn start_unit(&mut self) {
        let t = &mut *self.t;
        t.frame.0.fill(None);
        for v in t.renamed.drain(..) {
            t.rename[v.0 as usize] = None;
        }
        t.consts.clear();
        t.buf.clear();
        t.live.clear();
    }

    /// Begin unit `id` of the staged executor, in a division over `vars`:
    /// its key is the division followed by the key bits of `vars`' values
    /// in order (see [`Self::intern_staged`]), from which the frame is
    /// loaded.
    pub(crate) fn start_staged_unit(&mut self, id: u32, vars: &[VReg]) {
        self.start_unit();
        let t = &mut *self.t;
        let key = &t.units.key(id)[1..];
        debug_assert_eq!(
            key.len(),
            vars.len(),
            "unit {id}: key and division disagree"
        );
        for (&v, &bits) in vars.iter().zip(key) {
            let is_float = self.float_vreg[v.0 as usize];
            t.frame
                .set(v, Value::from_key_bits(bits, is_float), is_float);
        }
    }

    /// Begin unit `id` of the online specializer: its key is `[block,
    /// start, (vreg, key bits)...]` (see [`Self::intern_online`]), from
    /// which the frame is loaded.
    pub(crate) fn start_online_unit(&mut self, id: u32) {
        self.start_unit();
        let t = &mut *self.t;
        for pair in t.units.key(id)[2..].chunks_exact(2) {
            let v = VReg(pair[0] as u32);
            let is_float = self.float_vreg[v.0 as usize];
            t.frame
                .set(v, Value::from_key_bits(pair[1], is_float), is_float);
        }
    }

    /// Enter `site` with the dispatch arguments `args`: load its base
    /// store and promoted arguments into the frame — the entry unit's
    /// store — and give the other arguments, which stay dynamic, the
    /// first registers in argument order. Returns how many those are.
    pub(crate) fn enter(&mut self, site: &Site, args: &[Value]) -> u32 {
        for &(v, val) in &site.base_store {
            self.set_static(v, val);
        }
        for (v, &p) in site.key_vars.iter().zip(&site.key_pos) {
            self.set_static(*v, args[p]);
        }
        let mut n_dyn = 0;
        for &v in &site.arg_vars {
            if !self.t.frame.contains(v) {
                self.set_reg(v, n_dyn);
                n_dyn += 1;
            }
        }
        self.next_reg = n_dyn;
        n_dyn
    }

    /// The unit's static store.
    pub(crate) fn frame(&self) -> &Frame {
        &self.t.frame
    }

    /// Make `v` static with value `val`.
    pub(crate) fn set_static(&mut self, v: VReg, val: Value) {
        self.t.frame.set(v, val, self.float_vreg[v.0 as usize]);
    }

    /// Make `v` dynamic, returning its static value if it had one.
    pub(crate) fn take_static(&mut self, v: VReg) -> Option<Value> {
        self.t.frame.0[v.0 as usize].take()
    }

    pub(crate) fn total_cycles(&self) -> u64 {
        self.exec_cycles + self.emit_cycles
    }

    /// Number of instructions sealed so far (budget checks and
    /// `instrs_generated` accounting).
    pub(crate) fn emitted(&self) -> usize {
        self.t.code.len()
    }

    /// The finished specialization, named `name`, taking its first
    /// `n_params` registers as parameters. The code is moved out at its
    /// exact length; the buffer keeps its capacity for the next
    /// specialization.
    pub(crate) fn take_func(&mut self, name: String, n_params: u32) -> CodeFunc {
        let n_regs = self.next_reg.max(1) as usize;
        let mut cf = CodeFunc::new(name, n_params as usize, n_regs);
        cf.code.reserve_exact(self.t.code.len());
        cf.code.append(&mut self.t.code);
        cf
    }

    /// The code sealed so far.
    #[cfg(test)]
    pub(crate) fn code(&self) -> &[Instr] {
        &self.t.code
    }

    /// Intern the unit whose key `push_key` appends as words, returning
    /// its dense id (allocating one, and keeping the key, only on first
    /// sight).
    pub(crate) fn intern_with(&mut self, push_key: impl FnOnce(&mut Vec<u64>, &Frame)) -> u32 {
        let t = &mut *self.t;
        let frame = &t.frame;
        let (id, new) = t.units.intern(|w| push_key(w, frame));
        if new {
            t.labels.push(u32::MAX);
        }
        id
    }

    /// Intern the staged executor's unit `(division, values)`: its key is
    /// the division followed by the key bits of the static values of
    /// `vars` (the division's variables, sorted), straight from the frame.
    pub(crate) fn intern_staged(&mut self, division: u32, vars: &[VReg]) -> u32 {
        self.intern_with(|w, frame| {
            w.push(u64::from(division));
            w.extend(vars.iter().map(|v| frame.value(*v).key_bits()));
        })
    }

    /// Intern the online specializer's unit `(block, start, store)`: its
    /// key is `[block, start]` followed by `(vreg, key bits)` for every
    /// static variable `keep(frame, v)` admits, in vreg order, straight
    /// from the frame.
    pub(crate) fn intern_online(
        &mut self,
        block: u32,
        start: u32,
        keep: impl Fn(&Frame, VReg) -> bool,
    ) -> u32 {
        self.intern_with(|w, frame| {
            w.push(u64::from(block));
            w.push(u64::from(start));
            for (v, val) in frame.iter().filter(|(v, _)| keep(frame, *v)) {
                w.push(u64::from(v.0));
                w.push(val.key_bits());
            }
        })
    }

    /// Has this unit id been sealed (its code emitted and labeled)?
    pub(crate) fn sealed(&self, id: u32) -> bool {
        self.t.labels[id as usize] != u32::MAX
    }

    fn is_float(&self, v: VReg) -> bool {
        self.float_vreg.get(v.0 as usize).copied().unwrap_or(false)
    }

    /// Grow the dense vreg tables so index `i` is addressable.
    fn ensure_vreg(&mut self, i: usize) {
        if i >= self.t.reg_map.len() {
            self.t.reg_map.resize(i + 1, NO_REG);
        }
    }

    /// Pre-assign a register (dynamic pass-through parameters).
    pub(crate) fn set_reg(&mut self, v: VReg, r: Reg) {
        let i = v.0 as usize;
        self.ensure_vreg(i);
        self.t.reg_map[i] = r;
    }

    pub(crate) fn reg_of(&mut self, v: VReg) -> Reg {
        let i = v.0 as usize;
        self.ensure_vreg(i);
        if self.t.reg_map[i] != NO_REG {
            return self.t.reg_map[i];
        }
        let r = self.next_reg;
        self.next_reg += 1;
        self.t.reg_map[i] = r;
        r
    }

    pub(crate) fn fresh_reg(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    /// Append an instruction without a branch fixup to the unit.
    pub(crate) fn push(&mut self, ins: Instr, deletable: bool) {
        self.t.buf.push(Emitted::plain(ins, deletable));
    }

    /// Append a branch to the unit whose target becomes unit `to`'s label.
    pub(crate) fn push_branch(&mut self, ins: Instr, to: u32) {
        self.t.buf.push(Emitted {
            fixup: Some(to),
            ..Emitted::plain(ins, false)
        });
    }

    /// The unit's emit buffer (the template path copies into it).
    pub(crate) fn buf_mut(&mut self) -> &mut Vec<Emitted> {
        &mut self.t.buf
    }

    /// Mark `r` live at the unit's end, so the sweep keeps its writes.
    pub(crate) fn mark_live(&mut self, r: Reg) {
        self.t.live.insert(r);
    }

    /// The alias dynamic zero/copy propagation recorded for `v`.
    fn alias(&self, v: VReg) -> Option<Opnd> {
        self.t.rename.get(v.0 as usize).copied().flatten()
    }

    /// Record that `v` currently reads as `o`.
    pub(crate) fn set_alias(&mut self, v: VReg, o: Opnd) {
        let i = v.0 as usize;
        if i >= self.t.rename.len() {
            self.t.rename.resize(i + 1, None);
        }
        if self.t.rename[i].is_none() {
            self.t.renamed.push(v);
        }
        self.t.rename[i] = Some(o);
    }

    /// Forget `v`'s alias, if it has one.
    pub(crate) fn kill_alias(&mut self, v: VReg) {
        if let Some(a) = self.t.rename.get_mut(v.0 as usize) {
            *a = None;
        }
    }

    /// Compact the renamed list to the aliased vregs, once each, in vreg
    /// order.
    fn sort_renamed(&mut self) {
        let t = &mut *self.t;
        let rename = &t.rename;
        t.renamed.retain(|v| rename[v.0 as usize].is_some());
        t.renamed.sort_unstable();
        t.renamed.dedup();
    }

    /// `v` as an operand: its static value, its alias, or its register.
    pub(crate) fn resolve(&mut self, v: VReg) -> Opnd {
        if let Some(val) = self.t.frame.get(v) {
            return value_opnd(val);
        }
        if let Some(a) = self.alias(v) {
            return a;
        }
        Opnd::R(self.reg_of(v))
    }

    /// Get a register holding a known value (materializing at most once
    /// per unit per value).
    fn reg_for_const(&mut self, val: Value) -> Reg {
        let key = val.key_bits();
        if let Some(r) = self.t.consts.get(&key) {
            return *r;
        }
        let r = self.fresh_reg();
        self.push(mov_const(r, val), true);
        self.t.consts.insert(key, r);
        r
    }

    pub(crate) fn opnd_reg(&mut self, o: Opnd) -> Reg {
        match o {
            Opnd::R(r) => r,
            Opnd::KI(v) => self.reg_for_const(Value::I(v)),
            Opnd::KF(v) => self.reg_for_const(Value::F(v)),
        }
    }

    /// Record a value-dependent fold: with zero/copy propagation the
    /// destination is renamed (no code); otherwise the value is emitted as
    /// a constant move.
    fn fold_to(&mut self, dst: VReg, k: Opnd, stats: &mut RtStats) {
        if self.cfg.zero_copy_propagation {
            stats.zero_copy_folds += 1;
            self.set_alias(dst, k);
        } else {
            let r = self.reg_of(dst);
            self.push(mov_const(r, opnd_value(k)), true);
        }
    }

    /// Flush the rename table in vreg order: every renamed variable that
    /// `keep` marks as readable later gets its value moved into its own
    /// register, which `mark_live` also marks live at the unit's end.
    pub(crate) fn flush_renames(&mut self, keep: impl Fn(VReg) -> bool, mark_live: bool) {
        self.sort_renamed();
        let mut renamed = std::mem::take(&mut self.t.renamed);
        for &v in &renamed {
            let alias = self.t.rename[v.0 as usize].take();
            let Some(alias) = alias.filter(|_| keep(v)) else {
                continue;
            };
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
            self.push(ins, true);
            if mark_live {
                self.mark_live(r);
            }
        }
        renamed.clear();
        self.t.renamed = renamed;
    }

    /// Execute a static computation at specialization time, against the
    /// frame.
    pub(crate) fn exec_static(
        &mut self,
        inst: &Inst,
        costs: &DynCosts,
        stats: &mut RtStats,
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<(), VmError> {
        let frame = &self.t.frame;
        let val = |v: VReg| frame.value(v);
        let result: Value = match inst {
            Inst::ConstI { v, .. } => Value::I(*v),
            Inst::ConstF { v, .. } => Value::F(*v),
            Inst::Copy { src, .. } => val(*src),
            Inst::Un { op, src, .. } => eval_un(*op, val(*src)),
            Inst::IBin { op, a, b, .. } => {
                Value::I(eval_ialu(*op, val(*a).as_i(), val(*b).as_i())?)
            }
            Inst::FBin { op, a, b, .. } => Value::F(eval_falu(*op, val(*a).as_f(), val(*b).as_f())),
            Inst::ICmp { cc, a, b, .. } => {
                Value::I(eval_icmp(*cc, val(*a).as_i(), val(*b).as_i()) as i64)
            }
            Inst::FCmp { cc, a, b, .. } => {
                Value::I(eval_fcmp(*cc, val(*a).as_f(), val(*b).as_f()) as i64)
            }
            Inst::Load { ty, base, idx, .. } => {
                // A *static load* (§2.2.6): read live VM memory now.
                stats.static_loads += 1;
                self.exec_cycles += costs.static_load;
                let addr = val(*base).as_i().wrapping_add(val(*idx).as_i());
                vm.mem.read(addr, ty.vm_ty())?
            }
            Inst::Call { callee, args, .. } => {
                // A *static call* (§2.2.6): run it now and memoize the
                // result into the emitted code.
                stats.static_calls += 1;
                let arg_vals: Vec<Value> = args.iter().map(|a| val(*a)).collect();
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
        self.kill_alias(dst);
        self.set_static(dst, result);
        Ok(())
    }

    /// Emit a dynamic computation, applying the value-dependent staged
    /// optimizations. Operands are resolved *before* the destination
    /// bookkeeping so value chains consumed by this very instruction do
    /// not get materialized. `read_later` answers "is this variable read
    /// at or after this program point" — a liveness lookup online, a
    /// precomputed table lookup in the staged path. The destination
    /// leaves the frame.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn emit_dynamic(
        &mut self,
        inst: &Inst,
        read_later: &dyn Fn(VReg) -> bool,
        costs: &DynCosts,
        stats: &mut RtStats,
    ) {
        // Resolve every source operand first (pure lookups): a call's
        // arguments into the scratch list, any other instruction's (at
        // most three) into a fixed array.
        let mut ops = [Opnd::KI(0); 3];
        let mut call_args = std::mem::take(&mut self.t.call_args);
        call_args.clear();
        if let Inst::Call { args, .. } = inst {
            for a in args {
                let o = self.resolve(*a);
                call_args.push(o);
            }
        } else {
            let mut n = 0;
            inst.each_use(|u| {
                ops[n] = self.resolve(u);
                n += 1;
            });
        }

        // Redefining a register invalidates rename entries that alias it;
        // materialize only aliases that are still read after this point,
        // in vreg order.
        if let Some(d) = inst.def() {
            let dr = self.reg_of(d);
            let stale = |e: &Emitter<'s>, v: VReg| v != d && e.alias(v) == Some(Opnd::R(dr));
            if self.t.renamed.iter().any(|&v| stale(self, v)) {
                self.sort_renamed();
                let renamed = std::mem::take(&mut self.t.renamed);
                for &v in &renamed {
                    if !stale(self, v) {
                        continue;
                    }
                    self.kill_alias(v);
                    if !read_later(v) {
                        continue;
                    }
                    let r = self.reg_of(v);
                    let ins = if self.is_float(v) {
                        Instr::FMov { dst: r, src: dr }
                    } else {
                        Instr::Mov { dst: r, src: dr }
                    };
                    self.push(ins, true);
                }
                self.t.renamed = renamed;
            }
            self.kill_alias(d);
            self.take_static(d);
        }

        match inst {
            Inst::ConstI { dst, v } => {
                // A constant assigned to a dynamic variable.
                if self.cfg.zero_copy_propagation {
                    self.set_alias(*dst, Opnd::KI(*v));
                } else {
                    let r = self.reg_of(*dst);
                    self.push(Instr::MovI { dst: r, imm: *v }, true);
                }
            }
            Inst::ConstF { dst, v } => {
                if self.cfg.zero_copy_propagation {
                    self.set_alias(*dst, Opnd::KF(*v));
                } else {
                    let r = self.reg_of(*dst);
                    self.push(Instr::MovF { dst: r, imm: *v }, true);
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
                            self.set_alias(*dst, Opnd::R(sr));
                        } else {
                            let ins = if self.is_float(*dst) {
                                Instr::FMov { dst: r, src: sr }
                            } else {
                                Instr::Mov { dst: r, src: sr }
                            };
                            self.push(ins, true);
                        }
                    }
                    k => {
                        if self.cfg.zero_copy_propagation {
                            stats.zero_copy_folds += 1;
                            self.set_alias(*dst, k);
                        } else {
                            let r = self.reg_of(*dst);
                            self.push(mov_const(r, opnd_value(k)), true);
                        }
                    }
                }
            }
            Inst::IBin { op, dst, .. } => {
                self.emit_ibin(*op, *dst, ops[0], ops[1], costs, stats);
            }
            Inst::FBin { op, dst, .. } => {
                self.emit_fbin(*op, *dst, ops[0], ops[1], costs, stats);
            }
            Inst::ICmp { cc, dst, .. } => match (ops[0], ops[1]) {
                (Opnd::KI(x), Opnd::KI(y)) => {
                    self.fold_to(*dst, Opnd::KI(eval_icmp(*cc, x, y) as i64), stats);
                }
                (Opnd::R(x), Opnd::KI(y)) => {
                    let r = self.reg_of(*dst);
                    self.push(
                        Instr::ICmp {
                            cc: *cc,
                            dst: r,
                            a: x,
                            b: Operand::Imm(y),
                        },
                        true,
                    );
                }
                (Opnd::KI(x), Opnd::R(y)) => {
                    let r = self.reg_of(*dst);
                    self.push(
                        Instr::ICmp {
                            cc: cc.swapped(),
                            dst: r,
                            a: y,
                            b: Operand::Imm(x),
                        },
                        true,
                    );
                }
                (x, y) => {
                    let xr = self.opnd_reg(x);
                    let yr = self.opnd_reg(y);
                    let r = self.reg_of(*dst);
                    self.push(
                        Instr::ICmp {
                            cc: *cc,
                            dst: r,
                            a: xr,
                            b: Operand::Reg(yr),
                        },
                        true,
                    );
                }
            },
            Inst::FCmp { cc, dst, .. } => {
                let (ra, rb) = (ops[0], ops[1]);
                if let (Opnd::KF(x), Opnd::KF(y)) = (ra, rb) {
                    self.fold_to(*dst, Opnd::KI(eval_fcmp(*cc, x, y) as i64), stats);
                } else {
                    let xr = self.opnd_reg(ra);
                    let yr = self.opnd_reg(rb);
                    let r = self.reg_of(*dst);
                    self.push(
                        Instr::FCmp {
                            cc: *cc,
                            dst: r,
                            a: xr,
                            b: yr,
                        },
                        true,
                    );
                }
            }
            Inst::Un { op, dst, src: _ } => match ops[0] {
                Opnd::R(sr) => {
                    let r = self.reg_of(*dst);
                    self.push(
                        Instr::Un {
                            op: *op,
                            dst: r,
                            src: sr,
                        },
                        true,
                    );
                }
                k => {
                    let folded = eval_un(*op, opnd_value(k));
                    self.fold_to(*dst, value_opnd(folded), stats);
                }
            },
            Inst::Load { ty, dst, .. } => {
                let (breg, iop) = match (ops[0], ops[1]) {
                    (Opnd::KI(bv), Opnd::KI(iv)) => {
                        // Address fully known but contents dynamic: fold
                        // the whole address into the offset of a load from
                        // a zero base materialized once per unit.
                        let z = self.reg_for_const(Value::I(0));
                        (z, Operand::Imm(bv.wrapping_add(iv)))
                    }
                    (Opnd::KI(bv), other) => {
                        let ir = self.opnd_reg(other);
                        (ir, Operand::Imm(bv))
                    }
                    (other, Opnd::KI(iv)) => {
                        let br = self.opnd_reg(other);
                        (br, Operand::Imm(iv))
                    }
                    (ob, oi) => {
                        let br = self.opnd_reg(ob);
                        let ir = self.opnd_reg(oi);
                        (br, Operand::Reg(ir))
                    }
                };
                let r = self.reg_of(*dst);
                self.push(
                    Instr::Load {
                        ty: ty.vm_ty(),
                        dst: r,
                        base: breg,
                        idx: iop,
                    },
                    true,
                );
            }
            Inst::Store { ty, .. } => {
                let sr = self.opnd_reg(ops[2]);
                let (breg, iop) = match (ops[0], ops[1]) {
                    (Opnd::KI(bv), Opnd::KI(iv)) => {
                        let z = self.reg_for_const(Value::I(0));
                        (z, Operand::Imm(bv.wrapping_add(iv)))
                    }
                    (Opnd::KI(bv), other) => (self.opnd_reg(other), Operand::Imm(bv)),
                    (other, Opnd::KI(iv)) => (self.opnd_reg(other), Operand::Imm(iv)),
                    (ob, oi) => {
                        let br = self.opnd_reg(ob);
                        let ir = self.opnd_reg(oi);
                        (br, Operand::Reg(ir))
                    }
                };
                self.push(
                    Instr::Store {
                        ty: ty.vm_ty(),
                        base: breg,
                        idx: iop,
                        src: sr,
                    },
                    false,
                );
            }
            Inst::Call { callee, dst, .. } => {
                let arg_regs: Vec<Reg> = call_args.iter().map(|o| self.opnd_reg(*o)).collect();
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
                self.push(ins, false);
            }
            _ => unreachable!("annotations handled by the caller"),
        }
        self.t.call_args = call_args;
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_ibin(
        &mut self,
        op: IAluOp,
        dst: VReg,
        ra: Opnd,
        rb: Opnd,
        costs: &DynCosts,
        stats: &mut RtStats,
    ) {
        self.exec_cycles += costs.opt_check;
        // Both operands known (only possible through renames): fold.
        if let (Opnd::KI(x), Opnd::KI(y)) = (ra, rb) {
            if let Ok(v) = eval_ialu(op, x, y) {
                self.fold_to(dst, Opnd::KI(v), stats);
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
                        self.set_alias(dst, f);
                    }
                    return;
                }
            } else if self.cfg.strength_reduction {
                // Strength reduction alone still replaces the operation
                // with a cheaper one, but must write the destination.
                let simple = match op {
                    IAluOp::Mul if k == 0 => Some(mov_const(self.reg_of(dst), Value::I(0))),
                    IAluOp::Mul | IAluOp::Div if k == 1 => {
                        let ar = self.opnd_reg(ra);
                        Some(Instr::Mov {
                            dst: self.reg_of(dst),
                            src: ar,
                        })
                    }
                    _ => None,
                };
                if let Some(ins) = simple {
                    stats.strength_reductions += 1;
                    self.push(ins, true);
                    return;
                }
            }
            if self.cfg.strength_reduction && k > 1 && (k as u64).is_power_of_two() {
                let n = k.trailing_zeros() as i64;
                match op {
                    IAluOp::Mul => {
                        stats.strength_reductions += 1;
                        let ar = self.opnd_reg(ra);
                        let r = self.reg_of(dst);
                        self.push(
                            Instr::IAlu {
                                op: IAluOp::Shl,
                                dst: r,
                                a: ar,
                                b: Operand::Imm(n),
                            },
                            true,
                        );
                        return;
                    }
                    IAluOp::Div => {
                        stats.strength_reductions += 1;
                        let ar = self.opnd_reg(ra);
                        let r = self.reg_of(dst);
                        self.emit_div_pow2(ar, k, n, r);
                        return;
                    }
                    IAluOp::Rem => {
                        stats.strength_reductions += 1;
                        let ar = self.opnd_reg(ra);
                        let q = self.fresh_reg();
                        self.emit_div_pow2(ar, k, n, q);
                        let t = self.fresh_reg();
                        let r = self.reg_of(dst);
                        self.push(
                            Instr::IAlu {
                                op: IAluOp::Shl,
                                dst: t,
                                a: q,
                                b: Operand::Imm(n),
                            },
                            true,
                        );
                        self.push(
                            Instr::IAlu {
                                op: IAluOp::Sub,
                                dst: r,
                                a: ar,
                                b: Operand::Reg(t),
                            },
                            true,
                        );
                        return;
                    }
                    _ => {}
                }
            }
            // Hole fits the immediate field.
            let ar = self.opnd_reg(ra);
            let r = self.reg_of(dst);
            self.push(
                Instr::IAlu {
                    op,
                    dst: r,
                    a: ar,
                    b: Operand::Imm(k),
                },
                true,
            );
            return;
        }
        // Known left operand of a non-commutative op, or both registers.
        let ar = self.opnd_reg(ra);
        let br = match rb {
            Opnd::R(r) => Operand::Reg(r),
            k => Operand::Reg(self.opnd_reg(k)),
        };
        let r = self.reg_of(dst);
        self.push(
            Instr::IAlu {
                op,
                dst: r,
                a: ar,
                b: br,
            },
            true,
        );
    }

    /// Truncating (C-semantics) signed division by a power of two:
    /// bias negative dividends before shifting.
    fn emit_div_pow2(&mut self, a: Reg, k: i64, n: i64, dst: Reg) {
        let sign = self.fresh_reg();
        let bias = self.fresh_reg();
        let sum = self.fresh_reg();
        self.push(
            Instr::IAlu {
                op: IAluOp::Shr,
                dst: sign,
                a,
                b: Operand::Imm(63),
            },
            true,
        );
        self.push(
            Instr::IAlu {
                op: IAluOp::And,
                dst: bias,
                a: sign,
                b: Operand::Imm(k - 1),
            },
            true,
        );
        self.push(
            Instr::IAlu {
                op: IAluOp::Add,
                dst: sum,
                a,
                b: Operand::Reg(bias),
            },
            true,
        );
        self.push(
            Instr::IAlu {
                op: IAluOp::Shr,
                dst,
                a: sum,
                b: Operand::Imm(n),
            },
            true,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn emit_fbin(
        &mut self,
        op: FAluOp,
        dst: VReg,
        ra: Opnd,
        rb: Opnd,
        costs: &DynCosts,
        stats: &mut RtStats,
    ) {
        self.exec_cycles += costs.opt_check;
        if let (Opnd::KF(x), Opnd::KF(y)) = (ra, rb) {
            self.fold_to(dst, Opnd::KF(eval_falu(op, x, y)), stats);
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
                    self.set_alias(dst, f);
                    return;
                }
            } else if self.cfg.strength_reduction {
                // Strength reduction without copy propagation: the
                // multiply becomes a move — which costs the same as the
                // multiply on the 21164 (§2.2.7), so no benefit accrues.
                let simple = match op {
                    FAluOp::Mul if k == 1.0 => {
                        let ar = self.opnd_reg(ra);
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
                        let ar = self.opnd_reg(ra);
                        Some(Instr::FMov {
                            dst: self.reg_of(dst),
                            src: ar,
                        })
                    }
                    _ => None,
                };
                if let Some(ins) = simple {
                    stats.strength_reductions += 1;
                    self.push(ins, true);
                    return;
                }
            }
        }
        let ar = self.opnd_reg(ra);
        let br = self.opnd_reg(rb);
        let r = self.reg_of(dst);
        self.push(
            Instr::FAlu {
                op,
                dst: r,
                a: ar,
                b: br,
            },
            true,
        );
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
    /// The sweep walks the unit's buffer backwards against the live set,
    /// marking survivors in place; the append then drains the buffer.
    ///
    /// Returns `(template_instrs, holes_patched)` for this unit — the
    /// post-sweep template contribution, which the tracing layer records
    /// so event sums reconcile exactly with the `RtStats` totals.
    pub(crate) fn seal_unit(
        &mut self,
        id: u32,
        costs: &DynCosts,
        stats: &mut RtStats,
    ) -> (u64, u64) {
        let t = &mut *self.t;
        self.exec_cycles += costs.dae_check * t.buf.len() as u64;
        t.keep.clear();
        t.keep.resize(t.buf.len(), true);
        if self.cfg.dead_assignment_elimination {
            for (e, keep) in t.buf.iter().zip(t.keep.iter_mut()).rev() {
                let def = e.ins.def();
                if let Some(d) = def {
                    if e.deletable && !t.live.contains(d) {
                        stats.dae_removed += 1;
                        *keep = false;
                        continue;
                    }
                    t.live.remove(d);
                }
                e.ins.each_use(|u| t.live.insert(u));
            }
        }
        t.labels[id as usize] = t.code.len() as u32;
        let (mut tmpl, mut holes) = (0u64, 0u64);
        for (e, _) in t.buf.drain(..).zip(&t.keep).filter(|(_, keep)| **keep) {
            if let Some(fk) = e.fixup {
                t.fixups.push((t.code.len(), fk));
            }
            t.code.push(e.ins);
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

    /// Patch every recorded branch target, in place, once all units are
    /// emitted: each fixup's unit id resolves to that unit's label.
    pub(crate) fn patch_fixups(&mut self, costs: &DynCosts) {
        let t = &mut *self.t;
        for &(at, unit) in &t.fixups {
            let dest = t.labels[unit as usize];
            debug_assert!(dest != u32::MAX, "all units emitted before patching");
            match &mut t.code[at] {
                Instr::Jmp { target } | Instr::Brz { target, .. } | Instr::Brnz { target, .. } => {
                    *target = dest;
                }
                other => unreachable!("fixup on non-branch {other:?}"),
            }
            self.emit_cycles += costs.branch_patch;
        }
        t.fixups.clear();
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

    fn emitter<'s>(cfg: OptConfig, float_vreg: &'s [bool], t: &'s mut EmitScratch) -> Emitter<'s> {
        Emitter::new(cfg, float_vreg, t)
    }

    /// Intern the one-word unit key `k`.
    fn unit(em: &mut Emitter<'_>, k: u64) -> u32 {
        em.intern_with(|w, _| w.push(k))
    }

    /// Emit unit `id` as `buf` with `live` live at its end, and seal it.
    fn seal(
        em: &mut Emitter<'_>,
        id: u32,
        buf: Vec<Emitted>,
        live: &[Reg],
        costs: &DynCosts,
        stats: &mut RtStats,
    ) {
        em.start_unit();
        em.buf_mut().extend(buf);
        for r in live {
            em.mark_live(*r);
        }
        em.seal_unit(id, costs, stats);
    }

    fn plain(ins: Instr) -> Emitted {
        Emitted::plain(ins, true)
    }

    fn kept(ins: Instr) -> Emitted {
        Emitted::plain(ins, false)
    }

    fn branch(ins: Instr, to: u32) -> Emitted {
        Emitted {
            fixup: Some(to),
            ..kept(ins)
        }
    }

    #[test]
    fn regset_spans_word_boundaries() {
        let mut s = RegSet::default();
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
        // Clearing empties every word.
        s.clear();
        assert!((0..256).all(|r| !s.contains(r)));
    }

    #[test]
    fn interning_assigns_dense_ids_once() {
        let mut t = EmitScratch::default();
        let mut em = emitter(OptConfig::all(), &[], &mut t);
        let a = unit(&mut em, 7);
        let b = unit(&mut em, 9);
        assert_eq!((a, b), (0, 1), "ids are dense in first-sight order");
        assert_eq!(unit(&mut em, 7), a, "re-interning hits the cache");
        assert!(!em.sealed(a) && !em.sealed(b));

        let costs = DynCosts::calibrated();
        let mut stats = RtStats::default();
        seal(&mut em, a, Vec::new(), &[], &costs, &mut stats);
        assert!(em.sealed(a));
        assert!(!em.sealed(b), "sealing one unit does not label another");
        assert_eq!(
            unit(&mut em, 7),
            a,
            "interning after sealing still reuses the id"
        );
    }

    #[test]
    fn interner_keeps_ids_across_growth_and_forgets_them_on_reuse() {
        // Keys of every length, including the empty key and keys that
        // are prefixes of one another: equal only when word-for-word
        // equal.
        let keys: Vec<Vec<u64>> = (0..200u64)
            .map(|i| (0..i % 5).map(|j| (i / 5) * 10 + j).collect())
            .collect();
        let mut t = EmitScratch::default();
        let mut em = emitter(OptConfig::all(), &[], &mut t);
        let ids: Vec<u32> = keys
            .iter()
            .map(|k| em.intern_with(|w, _| w.extend_from_slice(k)))
            .collect();
        let mut distinct = keys.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(
            *ids.iter().max().unwrap() as usize + 1,
            distinct.len(),
            "one id per distinct key"
        );
        for (k, id) in keys.iter().zip(&ids) {
            assert_eq!(em.intern_with(|w, _| w.extend_from_slice(k)), *id);
        }

        // A new specialization over the same scratch starts from id 0.
        let mut em = emitter(OptConfig::all(), &[], &mut t);
        assert_eq!(em.intern_with(|w, _| w.extend_from_slice(&keys[7])), 0);
        assert_eq!(em.intern_with(|w, _| w.extend_from_slice(&keys[3])), 1);
        assert!(!em.sealed(0) && !em.sealed(1));
    }

    #[test]
    fn a_new_emitter_sees_nothing_an_aborted_one_left() {
        let costs = DynCosts::calibrated();
        let mut stats = RtStats::default();
        let mut t = EmitScratch::default();
        let floats = [false; 4];
        {
            // Seal one unit, then abort mid-unit with every per-unit
            // table non-empty.
            let mut em = emitter(OptConfig::all(), &floats, &mut t);
            let sealed = unit(&mut em, 0);
            em.push(Instr::MovI { dst: 0, imm: 2 }, false);
            em.seal_unit(sealed, &costs, &mut stats);
            let u = unit(&mut em, 1);
            em.set_reg(VReg(0), 0);
            em.next_reg = 1;
            em.set_alias(VReg(1), Opnd::R(0));
            em.set_alias(VReg(2), Opnd::KI(5));
            em.set_static(VReg(1), Value::I(6));
            em.opnd_reg(Opnd::KI(9));
            em.mark_live(7);
            em.push_branch(Instr::Jmp { target: 0 }, u);
        }
        // The next function has fewer vregs than the aborted one aliased.
        let mut em = emitter(OptConfig::all(), &floats[..2], &mut t);
        assert_eq!(em.resolve(VReg(1)), Opnd::R(0), "no stale alias or static");
        assert_eq!(em.resolve(VReg(2)), Opnd::R(1));
        assert_eq!(em.resolve(VReg(0)), Opnd::R(2), "no stale register");
        assert_eq!(em.opnd_reg(Opnd::KI(9)), 3, "constants materialize again");
        let u = unit(&mut em, 1);
        assert_eq!(u, 0, "the interner starts over");
        em.push(Instr::MovI { dst: 7, imm: 1 }, true);
        em.mark_live(3);
        em.seal_unit(u, &costs, &mut stats);
        assert_eq!(
            em.code(),
            [Instr::MovI { dst: 3, imm: 9 }],
            "the sealed unit and the aborted unit's branch are gone, and r7 is no longer live"
        );
        assert_eq!(stats.dae_removed, 1);
        let before = em.emit_cycles;
        em.patch_fixups(&costs);
        assert_eq!(em.emit_cycles, before, "no fixup survives the abort");
    }

    #[test]
    fn units_load_their_frame_from_their_key() {
        let floats = [false, true, false];
        let mut t = EmitScratch::default();
        let mut em = emitter(OptConfig::all(), &floats, &mut t);
        em.set_static(VReg(0), Value::I(-3));
        em.set_static(VReg(1), Value::F(-0.0));
        em.set_static(VReg(2), Value::I(9));
        let vars = [VReg(0), VReg(1)];
        let staged = em.intern_staged(4, &vars);
        let online = em.intern_online(1, 2, |_, v| v != VReg(1));
        assert_eq!(em.intern_staged(4, &vars), staged);
        let bits = |em: &Emitter<'_>| -> Vec<(VReg, bool, u64)> {
            let frame = em.frame().iter();
            frame
                .map(|(v, val)| (v, val.is_int(), val.to_bits()))
                .collect()
        };
        em.start_staged_unit(staged, &vars);
        assert_eq!(
            bits(&em),
            [
                (VReg(0), true, (-3i64) as u64),
                (VReg(1), false, (-0.0f64).to_bits())
            ],
            "only the division's variables, in their variants"
        );
        em.start_online_unit(online);
        assert_eq!(
            bits(&em),
            [(VReg(0), true, (-3i64) as u64), (VReg(2), true, 9)]
        );
        assert_eq!(em.take_static(VReg(2)), Some(Value::I(9)));
        assert!(!em.frame().contains(VReg(2)) && em.frame().len() == 1);
        em.start_unit();
        assert_eq!(em.frame().len(), 0, "a new unit starts with no statics");
    }

    #[test]
    fn forward_and_backward_fixups_patch_all_branch_kinds() {
        let mut t = EmitScratch::default();
        let mut em = emitter(OptConfig::all(), &[], &mut t);
        let costs = DynCosts::calibrated();
        let mut stats = RtStats::default();
        let a = unit(&mut em, 0);
        let b = unit(&mut em, 1);

        // Unit a branches forward to b (unsealed at fixup-record time)
        // with both an unconditional and a conditional branch.
        let buf_a = vec![
            kept(Instr::MovI { dst: 0, imm: 1 }),
            branch(Instr::Jmp { target: u32::MAX }, b),
            branch(
                Instr::Brnz {
                    cond: 0,
                    target: u32::MAX,
                },
                b,
            ),
        ];
        seal(&mut em, a, buf_a, &[], &costs, &mut stats);

        // Unit b branches backward to the already-sealed a.
        let buf_b = vec![branch(
            Instr::Brz {
                cond: 0,
                target: u32::MAX,
            },
            a,
        )];
        seal(&mut em, b, buf_b, &[], &costs, &mut stats);

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
        assert!(em.t.fixups.is_empty(), "patching drains the fixup table");
    }

    #[test]
    fn fixup_into_a_templated_instruction() {
        let mut t = EmitScratch::default();
        let mut em = emitter(OptConfig::all(), &[], &mut t);
        let costs = DynCosts::calibrated();
        let mut stats = RtStats::default();
        let id = unit(&mut em, 0);

        // A template-copied branch: metered at copy+patch cost, and its
        // fixup must be recorded exactly like a constructed branch's.
        let buf = vec![Emitted {
            templated: true,
            patches: 2,
            ..branch(Instr::Jmp { target: u32::MAX }, id)
        }];
        seal(&mut em, id, buf, &[], &costs, &mut stats);
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
        let mut t = EmitScratch::default();
        let mut em = emitter(OptConfig::all(), &[], &mut t);
        let costs = DynCosts::calibrated();
        let mut stats = RtStats::default();
        let target = unit(&mut em, 0);
        let u1 = unit(&mut em, 1);
        let u2 = unit(&mut em, 2);

        let jmp = |to| vec![branch(Instr::Jmp { target: u32::MAX }, to)];
        seal(&mut em, u1, jmp(target), &[], &costs, &mut stats);
        seal(&mut em, u2, jmp(target), &[], &costs, &mut stats);
        seal(
            &mut em,
            target,
            vec![kept(Instr::MovI { dst: 0, imm: 0 })],
            &[],
            &costs,
            &mut stats,
        );
        em.patch_fixups(&costs);
        assert_eq!(em.code()[0], Instr::Jmp { target: 2 });
        assert_eq!(em.code()[1], Instr::Jmp { target: 2 });
    }

    #[test]
    fn flush_renames_selects_moves_by_float_flag() {
        // v0 int ← r5, v1 float ← r6, v2 int ← 9, v3 float ← 2.5,
        // aliased out of vreg order.
        let floats = [false, true, false, true];
        let mut t = EmitScratch::default();
        let mut em = emitter(OptConfig::all(), &floats, &mut t);
        em.set_alias(VReg(3), Opnd::KF(2.5));
        em.set_alias(VReg(1), Opnd::R(6));
        em.set_alias(VReg(2), Opnd::KI(9));
        em.set_alias(VReg(0), Opnd::R(5));
        // Burn registers so the flushed homes don't collide with r5/r6.
        em.next_reg = 10;

        em.flush_renames(|_| true, true);
        assert!(
            (0..4).all(|v| em.alias(VReg(v)).is_none()),
            "flushing drains the rename table"
        );

        let ins: Vec<Instr> = em.t.buf.iter().map(|e| e.ins.clone()).collect();
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
            assert!(em.t.live.contains(r), "flushed homes are marked live");
        }
    }

    #[test]
    fn flush_renames_respects_keep_and_skips_self_moves() {
        let floats = [false, false];
        let mut t = EmitScratch::default();
        let mut em = emitter(OptConfig::all(), &floats, &mut t);
        // v0's home *is* r3: a rename back to it needs no move.
        em.set_reg(VReg(0), 3);
        em.set_alias(VReg(0), Opnd::R(3));
        em.set_alias(VReg(1), Opnd::KI(7));

        em.flush_renames(|v| v == VReg(0), false);
        assert!(
            em.t.buf.is_empty(),
            "v0 is a self-move and v1 is dropped by the keep filter"
        );
        assert!(
            em.alias(VReg(1)).is_none(),
            "dropped entries are drained too"
        );
    }

    #[test]
    fn stale_aliases_materialize_in_vreg_order() {
        // v3 and v1 both alias v0's register; redefining v0 must move
        // its old value into v1, then v3, whatever order they were
        // aliased in.
        let floats = [false; 4];
        let mut t = EmitScratch::default();
        let mut em = emitter(OptConfig::all(), &floats, &mut t);
        let r0 = em.reg_of(VReg(0));
        em.set_alias(VReg(3), Opnd::R(r0));
        em.set_alias(VReg(2), Opnd::KI(4));
        em.set_alias(VReg(1), Opnd::R(r0));
        let costs = DynCosts::calibrated();
        let mut stats = RtStats::default();
        let redefine = Inst::ConstI { dst: VReg(0), v: 8 };
        em.emit_dynamic(&redefine, &|_| true, &costs, &mut stats);
        let ins: Vec<Instr> = em.t.buf.iter().map(|e| e.ins.clone()).collect();
        assert_eq!(
            ins,
            vec![Instr::Mov { dst: 1, src: 0 }, Instr::Mov { dst: 2, src: 0 }]
        );
        assert_eq!(em.alias(VReg(0)), Some(Opnd::KI(8)));
        assert_eq!(em.alias(VReg(2)), Some(Opnd::KI(4)), "other aliases stay");
        assert!(em.alias(VReg(1)).is_none() && em.alias(VReg(3)).is_none());
    }

    #[test]
    fn seal_unit_sweeps_dead_assignments_against_live_regs() {
        let costs = DynCosts::calibrated();
        let mut t = EmitScratch::default();

        // r0 is dead, r1 is live; the deletable write to r0 vanishes.
        let mut em = emitter(OptConfig::all(), &[], &mut t);
        let mut stats = RtStats::default();
        let id = unit(&mut em, 0);
        let buf = vec![
            plain(Instr::MovI { dst: 0, imm: 1 }),
            plain(Instr::MovI { dst: 1, imm: 2 }),
        ];
        let exec_before = em.exec_cycles;
        seal(&mut em, id, buf, &[1], &costs, &mut stats);
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
        let mut em = emitter(OptConfig::all(), &[], &mut t);
        let mut stats = RtStats::default();
        let id = unit(&mut em, 0);
        let buf = vec![
            plain(Instr::MovI { dst: 0, imm: 1 }),
            plain(Instr::Mov { dst: 1, src: 0 }),
        ];
        seal(&mut em, id, buf, &[1], &costs, &mut stats);
        assert_eq!(em.code().len(), 2);
        assert_eq!(stats.dae_removed, 0);

        // With the optimization off the dead write is kept.
        let cfg = OptConfig::all()
            .without("dead_assignment_elimination")
            .unwrap();
        let mut em = emitter(cfg, &[], &mut t);
        let mut stats = RtStats::default();
        let id = unit(&mut em, 0);
        let buf = vec![plain(Instr::MovI { dst: 0, imm: 1 })];
        seal(&mut em, id, buf, &[], &costs, &mut stats);
        assert_eq!(em.code().len(), 1);
        assert_eq!(stats.dae_removed, 0);
    }

    #[test]
    #[should_panic(expected = "fixup on non-branch")]
    fn a_fixup_on_a_non_branch_panics() {
        let mut t = EmitScratch::default();
        let mut em = emitter(OptConfig::all(), &[], &mut t);
        let costs = DynCosts::calibrated();
        let id = unit(&mut em, 0);
        let buf = vec![branch(Instr::Halt, id)];
        seal(&mut em, id, buf, &[], &costs, &mut RtStats::default());
        em.patch_fixups(&costs);
    }

    #[test]
    fn constants_materialize_at_most_once_per_unit() {
        let mut t = EmitScratch::default();
        let mut em = emitter(OptConfig::all(), &[], &mut t);
        let r1 = em.opnd_reg(Opnd::KI(42));
        let r2 = em.opnd_reg(Opnd::KI(42));
        let r3 = em.opnd_reg(Opnd::KI(43));
        assert_eq!(r1, r2, "same value reuses the scratch register");
        assert_ne!(r1, r3);
        assert_eq!(
            em.t.buf.len(),
            2,
            "one materializing move per distinct value"
        );
        // An existing register passes through untouched.
        assert_eq!(em.opnd_reg(Opnd::R(99)), 99);
        assert_eq!(em.t.buf.len(), 2);
        // A new unit materializes again.
        em.start_unit();
        assert_ne!(em.opnd_reg(Opnd::KI(42)), r1);
        assert_eq!(em.t.buf.len(), 1);
    }
}
