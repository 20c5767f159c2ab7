//! Native x86-64 execution backend (copy-and-patch).
//!
//! Everything else in this crate measures dynamic compilation in
//! *modeled cycles*; this module is where the cycle-model speedups
//! become wall-clock speedups. Specialized functions are lowered from
//! VM instructions to real x86-64 machine code ([`encode`]), installed
//! into an mmap'd code arena under a strict W^X discipline (the
//! platform backend), and invoked directly from dispatch — with the VM
//! interpreter kept as both the semantic oracle (differential and fuzz
//! suites compare results, output, and memory word-for-word) and the
//! fallback for anything the encoder does not support.
//!
//! The module splits in two:
//!
//! * [`encode`] — pure byte generation, compiled and tested on every
//!   platform;
//! * a platform backend (x86-64 Unix only, and absent under
//!   `--cfg dyc_no_native`) that owns executable memory and actually
//!   calls the generated code. On other platforms a stub with the same
//!   surface is compiled instead: installs report "fallback" and
//!   dispatch never sees a native entry, so the runtime degrades to
//!   pure VM interpretation with no `cfg` in its own logic.
//!
//! Cycle accounting is deliberately untouched: a native call charges
//! nothing to the model (the paper's Table 3/5 numbers remain those of
//! the staged VM pipeline), and `OptConfig::native` is excluded from
//! artifact config hashes for the same reason. The new observability is
//! wall-clock: `native_installs`/`native_fallbacks` meters and the
//! `wall_clock` section of the benchmark report.

pub mod encode;

pub use encode::{lower_func, CallDesc, FnEncoder, NativeArtifact};

use dyc_vm::{FuncId, Module, Value, Vm, VmError};

/// Re-entry seam between generated native code and the run-time
/// system. The backend's call helper funnels every `Call`, `CallHost`,
/// and `Dispatch` instruction through this trait, so nested dispatches
/// hit the same code cache (and the same single-flight machinery) as
/// interpreted ones. Implemented by `Runtime` and `ThreadRuntime`.
pub trait NativeDispatch {
    /// Handle a `Dispatch` executed by native code: cache lookup,
    /// specialization on a miss, then run the specialized function
    /// (natively where possible) and return its result.
    fn native_dispatch(
        &mut self,
        point: u32,
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<Option<Value>, VmError>;

    /// Handle a static `Call` executed by native code.
    fn native_call(
        &mut self,
        func: FuncId,
        args: &[Value],
        module: &mut Module,
        vm: &mut Vm,
    ) -> Result<Option<Value>, VmError>;
}

/// The backend is compiled only where it can actually run; this
/// predicate is repeated verbatim on the `use` below and in the stub's
/// negation.
#[cfg(all(target_arch = "x86_64", unix, not(dyc_no_native)))]
mod backend;

#[cfg(all(target_arch = "x86_64", unix, not(dyc_no_native)))]
pub use backend::{exec_entry, Entry, NativeEngine};

#[cfg(not(all(target_arch = "x86_64", unix, not(dyc_no_native))))]
mod stub {
    //! Uninhabited stand-in for the platform backend: same surface,
    //! no executable memory. `install` always reports fallback and
    //! `entry` never yields, so `exec_entry` is statically unreachable
    //! (its [`Entry`] is an empty enum).

    use super::{NativeArtifact, NativeDispatch};
    use dyc_vm::{FuncId, Module, Value, Vm, VmError};

    /// An installed native entry point. Uninhabited on platforms
    /// without the backend — no value of this type can exist.
    #[derive(Debug, Clone)]
    pub enum Entry {}

    /// No-op engine for platforms without the native backend.
    #[derive(Debug, Default)]
    pub struct NativeEngine {}

    impl NativeEngine {
        /// A new (inert) engine.
        pub fn new() -> NativeEngine {
            NativeEngine {}
        }

        /// Always `None`: every install is a fallback here.
        pub fn install(&mut self, _func: FuncId, _art: Option<NativeArtifact>) -> Option<usize> {
            None
        }

        /// Always `None`: nothing is ever installed.
        pub fn entry(&self, _func: FuncId) -> Option<Entry> {
            None
        }

        /// Number of installed functions (always zero).
        pub fn installed(&self) -> usize {
            0
        }

        /// Nothing is installed, so nothing to forget.
        pub fn remove(&mut self, _func: FuncId) {}
    }

    /// Statically unreachable: no [`Entry`] value can exist.
    pub fn exec_entry(
        entry: &Entry,
        _args: &[Value],
        _host: &mut dyn NativeDispatch,
        _module: &mut Module,
        _vm: &mut Vm,
    ) -> Result<Option<Value>, VmError> {
        match *entry {}
    }
}

#[cfg(not(all(target_arch = "x86_64", unix, not(dyc_no_native))))]
pub use stub::{exec_entry, Entry, NativeEngine};
