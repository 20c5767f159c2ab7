//! Code containers: functions and modules.
//!
//! A [`Module`] holds every function in a program — statically compiled code
//! plus any code the dynamic compiler installs at run time. Each function is
//! laid out at a distinct byte address so the I-cache model sees realistic
//! competition between code bodies. Code the run-time system evicts is
//! removed again ([`Module::remove_func`]): its slot is reused by a later
//! install, its addresses never are.

use crate::icache::INSTR_BYTES;
use crate::isa::Instr;

/// Index of a function within its [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl std::fmt::Display for FuncId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// A compiled function body.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeFunc {
    /// Human-readable name (for diagnostics and pretty printing).
    pub name: String,
    /// Number of parameters; arguments are copied into registers `0..n_params`.
    pub n_params: usize,
    /// Frame size in registers.
    pub n_regs: usize,
    /// The instructions. Control flow targets are indices into this vector.
    pub code: Vec<Instr>,
    /// Base byte address assigned by the module (for the I-cache model).
    pub base_addr: u64,
}

impl CodeFunc {
    /// A new, empty function.
    pub fn new(name: impl Into<String>, n_params: usize, n_regs: usize) -> CodeFunc {
        assert!(n_regs >= n_params, "frame must hold the parameters");
        CodeFunc {
            name: name.into(),
            n_params,
            n_regs,
            code: Vec::new(),
            base_addr: 0,
        }
    }

    /// Append an instruction; returns its index.
    pub fn push(&mut self, i: Instr) -> u32 {
        self.code.push(i);
        (self.code.len() - 1) as u32
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True if the body is empty.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Byte address of instruction `idx` (for the I-cache model).
    #[inline]
    pub fn addr_of(&self, idx: u32) -> u64 {
        self.base_addr + idx as u64 * INSTR_BYTES
    }
}

/// A program: a collection of functions sharing an address space.
///
/// Removing a function frees its slot, and the next install reuses it, so
/// a module that evicts as fast as it installs stays bounded. Addresses
/// only grow: a reused slot gets a fresh address range, so the I-cache
/// model sees the same addresses whether or not slots are reused.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Indexed by [`FuncId`]; `None` is a freed slot.
    funcs: Vec<Option<CodeFunc>>,
    /// Freed slots, reused last-freed first.
    free: Vec<u32>,
    next_addr: u64,
    /// Functions ever installed, removed ones included.
    installed: usize,
}

impl Module {
    /// An empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Install a function, assigning it a fresh address range (aligned to an
    /// I-cache line) and a freed slot when there is one. Dynamically
    /// generated code is installed through this same path at run time.
    pub fn add_func(&mut self, mut f: CodeFunc) -> FuncId {
        f.base_addr = self.next_addr;
        let bytes = (f.code.len() as u64).max(1) * INSTR_BYTES;
        // Round up to a 32-byte line so functions never share a line.
        self.next_addr += (bytes + 31) & !31;
        self.installed += 1;
        match self.free.pop() {
            Some(slot) => {
                self.funcs[slot as usize] = Some(f);
                FuncId(slot)
            }
            None => {
                self.funcs.push(Some(f));
                FuncId((self.funcs.len() - 1) as u32)
            }
        }
    }

    /// Remove a function, dropping its code and freeing its slot for the
    /// next [`Module::add_func`]. The caller guarantees nothing runs or
    /// calls it any more: no VM frame, no `Call` in live code.
    ///
    /// # Panics
    ///
    /// Panics if the function was already removed.
    pub fn remove_func(&mut self, id: FuncId) -> CodeFunc {
        let f = self.funcs[id.0 as usize]
            .take()
            .expect("function removed twice");
        self.free.push(id.0);
        f
    }

    /// Look up a function.
    ///
    /// # Panics
    ///
    /// Panics if the id is from another module or was removed.
    #[inline]
    pub fn func(&self, id: FuncId) -> &CodeFunc {
        self.funcs[id.0 as usize]
            .as_ref()
            .expect("function was removed")
    }

    /// Mutable lookup (used by the dynamic compiler for branch patching).
    pub fn func_mut(&mut self, id: FuncId) -> &mut CodeFunc {
        self.funcs[id.0 as usize]
            .as_mut()
            .expect("function was removed")
    }

    /// Find a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.iter().find(|(_, f)| f.name == name).map(|(id, _)| id)
    }

    /// Number of functions (removed ones excluded).
    pub fn len(&self) -> usize {
        self.funcs.len() - self.free.len()
    }

    /// True if the module has no functions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Functions ever installed, removed ones included — the ordinal
    /// the dynamic compiler names its next specialization by, so names
    /// never repeat within a module.
    pub fn installed(&self) -> usize {
        self.installed
    }

    /// Iterate over `(id, func)` pairs, skipping removed functions.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, &CodeFunc)> {
        self.funcs
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|f| (FuncId(i as u32), f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functions_get_disjoint_line_aligned_addresses() {
        let mut m = Module::new();
        let mut f1 = CodeFunc::new("a", 0, 1);
        for _ in 0..10 {
            f1.push(Instr::Halt);
        }
        let mut f2 = CodeFunc::new("b", 0, 1);
        f2.push(Instr::Halt);
        let id1 = m.add_func(f1);
        let id2 = m.add_func(f2);
        let (a, b) = (m.func(id1), m.func(id2));
        assert_eq!(a.base_addr % 32, 0);
        assert_eq!(b.base_addr % 32, 0);
        // 10 instructions = 40 bytes -> rounds to 64.
        assert_eq!(b.base_addr, 64);
        assert_eq!(a.addr_of(3), 12);
    }

    #[test]
    fn lookup_by_name() {
        let mut m = Module::new();
        let id = m.add_func(CodeFunc::new("main", 0, 1));
        assert_eq!(m.func_by_name("main"), Some(id));
        assert_eq!(m.func_by_name("nope"), None);
    }

    #[test]
    fn removed_slots_are_reused_at_fresh_addresses() {
        let mut m = Module::new();
        let a = m.add_func(CodeFunc::new("a", 0, 1));
        let b = m.add_func(CodeFunc::new("b", 0, 1));
        assert_eq!(m.remove_func(a).name, "a");
        assert_eq!((m.len(), m.installed()), (1, 2));
        assert_eq!(m.func_by_name("a"), None);
        assert_eq!(m.iter().map(|(id, _)| id).collect::<Vec<_>>(), [b]);
        // The freed slot is reused; the address range is new.
        let c = m.add_func(CodeFunc::new("c", 0, 1));
        assert_eq!(c, a);
        assert_eq!(m.func(c).base_addr, 64);
        assert_eq!((m.len(), m.installed()), (2, 3));
        assert_eq!(m.func_by_name("c"), Some(c));
    }

    #[test]
    #[should_panic(expected = "removed twice")]
    fn removing_twice_panics() {
        let mut m = Module::new();
        let a = m.add_func(CodeFunc::new("a", 0, 1));
        m.remove_func(a);
        m.remove_func(a);
    }

    #[test]
    #[should_panic(expected = "frame must hold")]
    fn frame_must_cover_params() {
        let _ = CodeFunc::new("bad", 3, 2);
    }
}
