//! The compiler facade and compiled programs.

use crate::error::CompileError;
use crate::session::Session;
use dyc_bta::OptConfig;
use dyc_ir::codegen::codegen_program;
use dyc_ir::{lower_program, ProgramIr};
use dyc_lang::parse_program;
use dyc_rt::{Runtime, SharedOptions, SharedRuntime};
use dyc_stage::{stage_program, StagedProgram};
use dyc_vm::{CostModel, Module, Vm};
use std::sync::Arc;

/// Compiles DyCL source into runnable [`Program`]s.
///
/// Holds the optimization configuration ([`OptConfig`]) and the machine
/// cost model. Both static and dynamic builds are produced (with identical
/// traditional optimizations, per §3.3 of the paper).
#[derive(Debug, Clone)]
pub struct Compiler {
    cfg: OptConfig,
    cost: CostModel,
}

impl Compiler {
    /// A compiler with every staged optimization enabled (the paper's
    /// "normal configuration") and the Alpha-21164 cost model.
    pub fn new() -> Compiler {
        Compiler {
            cfg: OptConfig::all(),
            cost: CostModel::alpha21164(),
        }
    }

    /// A compiler with a specific optimization configuration (used for the
    /// Table 5 ablations).
    pub fn with_config(cfg: OptConfig) -> Compiler {
        Compiler {
            cfg,
            cost: CostModel::alpha21164(),
        }
    }

    /// Override the machine cost model.
    pub fn cost_model(mut self, cost: CostModel) -> Compiler {
        self.cost = cost;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &OptConfig {
        &self.cfg
    }

    /// Compile DyCL source into a [`Program`].
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] for syntax, name or type errors.
    pub fn compile(&self, source: &str) -> Result<Program, CompileError> {
        let ast = parse_program(source)?;
        let mut ir = lower_program(&ast)?;
        dyc_ir::verify::verify_program(&ir)?;
        dyc_ir::opt::optimize_program(&mut ir);
        dyc_ir::verify::verify_program(&ir)?;
        let static_module = codegen_program(&ir);
        let staged = stage_program(ir.clone(), self.cfg);
        Ok(Program {
            ir,
            static_module,
            staged,
            cost: self.cost.clone(),
        })
    }
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new()
    }
}

/// A compiled program: the optimized IR, the statically compiled module,
/// and the staged dynamic build.
#[derive(Debug, Clone)]
pub struct Program {
    ir: ProgramIr,
    static_module: Module,
    staged: StagedProgram,
    cost: CostModel,
}

impl Program {
    /// The optimized IR (inspection/diagnostics).
    pub fn ir(&self) -> &ProgramIr {
        &self.ir
    }

    /// The staged dynamic build (inspection/diagnostics).
    pub fn staged(&self) -> &StagedProgram {
        &self.staged
    }

    /// True if the program contains at least one dynamic region.
    pub fn has_dynamic_regions(&self) -> bool {
        !self.staged.entry_sites.is_empty()
    }

    /// Total instruction count of the statically compiled module
    /// (Table 1's "Instructions" column analogue).
    pub fn static_instruction_count(&self) -> usize {
        self.static_module.iter().map(|(_, f)| f.len()).sum()
    }

    /// A fresh execution environment running the statically compiled
    /// build ("compiled by ignoring the annotations", §3.3).
    pub fn static_session(&self) -> Session {
        Session::new_static(self.static_module.clone(), Vm::new(self.cost.clone()))
    }

    /// A fresh execution environment running the dynamically compiled
    /// build: driver stubs plus the run-time specializer.
    pub fn dynamic_session(&self) -> Session {
        let module = self.staged.build_module();
        let runtime = Runtime::new(self.staged.clone());
        Session::new_dynamic(module, Vm::new(self.cost.clone()), runtime)
    }

    /// A thread-shared concurrent runtime for this program with default
    /// options (16 cache shards, blocking single-flight). Hand it to
    /// [`Program::threaded_session`] once per thread.
    pub fn shared_runtime(&self) -> Arc<SharedRuntime> {
        Arc::new(SharedRuntime::new(self.staged.clone()))
    }

    /// A thread-shared concurrent runtime with explicit [`SharedOptions`]
    /// (shard counts, miss policy, miss-latency histograms).
    pub fn shared_runtime_with(&self, opts: SharedOptions) -> Arc<SharedRuntime> {
        Arc::new(SharedRuntime::with_options(self.staged.clone(), opts))
    }

    /// One thread's execution environment over a shared concurrent
    /// runtime: a private module replica and VM, dispatching through the
    /// shared sharded code cache with single-flight specialization.
    pub fn threaded_session(&self, shared: &Arc<SharedRuntime>) -> Session {
        let module = shared.base_module();
        let runtime = SharedRuntime::thread(shared);
        Session::new_threaded(module, Vm::new(self.cost.clone()), runtime)
    }

    /// A fresh dynamic session *warm-started* from a snapshot bundle
    /// string (see [`Session::cache_bundle`]): every verifiable cached
    /// specialization is re-installed before the first dispatch, so
    /// restored keys hit the cache instead of re-specializing.
    ///
    /// # Errors
    ///
    /// Only malformed JSON / a structurally invalid bundle is an error.
    /// A parseable bundle with stale or corrupted fingerprints still
    /// yields a working session — the bad entries are rejected
    /// per-entry and metered in
    /// [`RtStats::cache_warm_rejects`](dyc_rt::RtStats), and their keys
    /// simply re-specialize on first use.
    pub fn warm_start_from_str(&self, bundle: &str) -> Result<Session, String> {
        let bundle = dyc_rt::CacheBundle::parse(bundle)?;
        let mut module = self.staged.build_module();
        let mut runtime = Runtime::new(self.staged.clone());
        runtime.restore_bundle(&bundle, &mut module);
        Ok(Session::new_dynamic(
            module,
            Vm::new(self.cost.clone()),
            runtime,
        ))
    }

    /// [`Program::warm_start_from_str`], reading the bundle from `path`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors and malformed bundles.
    pub fn warm_start(&self, path: impl AsRef<std::path::Path>) -> Result<Session, String> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| format!("reading {}: {e}", path.as_ref().display()))?;
        self.warm_start_from_str(&text)
    }

    /// A thread-shared concurrent runtime warm-started from a snapshot
    /// bundle string: the bundle's entries are published into the
    /// shared registry and cache before any thread dispatches.
    /// Verification and metering mirror
    /// [`Program::warm_start_from_str`], with the meters on
    /// [`SharedRuntime::stats`].
    ///
    /// # Errors
    ///
    /// Only malformed JSON / a structurally invalid bundle is an error.
    pub fn warm_shared_runtime(&self, bundle: &str) -> Result<Arc<SharedRuntime>, String> {
        let bundle = dyc_rt::CacheBundle::parse(bundle)?;
        let shared = Arc::new(SharedRuntime::new(self.staged.clone()));
        shared.restore_bundle(&bundle);
        Ok(shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_reports_parse_errors() {
        let err = Compiler::new().compile("int f( {").unwrap_err();
        assert!(matches!(err, CompileError::Parse(_)));
    }

    #[test]
    fn compile_reports_type_errors() {
        let err = Compiler::new()
            .compile("int f() { return nope; }")
            .unwrap_err();
        assert!(matches!(err, CompileError::Lower(_)));
    }

    #[test]
    fn annotated_programs_have_regions() {
        let p = Compiler::new()
            .compile("int f(int x) { make_static(x); return x + 1; }")
            .unwrap();
        assert!(p.has_dynamic_regions());
        let q = Compiler::new()
            .compile("int f(int x) { return x + 1; }")
            .unwrap();
        assert!(!q.has_dynamic_regions());
    }
}
