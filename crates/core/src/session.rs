//! Execution sessions: a VM instance plus (for dynamic builds) the
//! run-time system, with the measurement helpers the experiment harnesses
//! use.

use dyc_rt::{RtStats, Runtime, ThreadRuntime};
use dyc_vm::{ExecStats, Mem, Module, Value, Vm, VmError};

/// How a session executes dispatches.
#[derive(Debug)]
enum Exec {
    /// Statically compiled build: no dispatches exist.
    Static,
    /// Single-threaded dynamic build with its own [`Runtime`].
    ///
    /// Both runtime variants are boxed so dispatch-free static sessions
    /// don't pay for the (large) runtime state inline.
    Single(Box<Runtime>),
    /// One thread of a concurrent dynamic build: a [`ThreadRuntime`]
    /// over an `Arc`-shared [`dyc_rt::SharedRuntime`].
    Threaded(Box<ThreadRuntime>),
}

/// One execution environment for a compiled program.
///
/// Owns the VM (data memory, cycle counters, I-cache model), the code
/// module — which grows at run time in dynamic sessions — and, for dynamic
/// sessions, the run-time system (a whole [`Runtime`], or one thread's
/// [`ThreadRuntime`] handle onto a shared one).
#[derive(Debug)]
pub struct Session {
    vm: Vm,
    module: Module,
    exec: Exec,
}

impl Session {
    pub(crate) fn new_static(module: Module, vm: Vm) -> Session {
        Session {
            vm,
            module,
            exec: Exec::Static,
        }
    }

    pub(crate) fn new_dynamic(module: Module, vm: Vm, runtime: Runtime) -> Session {
        Session {
            vm,
            module,
            exec: Exec::Single(Box::new(runtime)),
        }
    }

    pub(crate) fn new_threaded(module: Module, vm: Vm, runtime: ThreadRuntime) -> Session {
        Session {
            vm,
            module,
            exec: Exec::Threaded(Box::new(runtime)),
        }
    }

    /// The VM's data memory (set up inputs, read back outputs).
    pub fn mem(&mut self) -> &mut Mem {
        &mut self.vm.mem
    }

    /// Allocate `n` zeroed words of data memory; returns the base address.
    pub fn alloc(&mut self, n: usize) -> i64 {
        self.vm.mem.alloc(n)
    }

    /// Guard against runaway guest loops (mainly for tests).
    pub fn set_step_limit(&mut self, steps: u64) {
        self.vm.set_step_limit(steps);
    }

    /// Run `func` with `args`.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] if the function is unknown, guest code
    /// faults, or specialization fails.
    pub fn run(&mut self, func: &str, args: &[Value]) -> Result<Option<Value>, VmError> {
        let id = self
            .module
            .func_by_name(func)
            .ok_or_else(|| VmError::Dispatch(format!("unknown function '{func}'")))?;
        match &mut self.exec {
            Exec::Static => self.vm.call(&mut self.module, id, args),
            Exec::Single(rt) => self
                .vm
                .call_with_handler(&mut self.module, rt.as_mut(), id, args),
            Exec::Threaded(rt) => {
                self.vm
                    .call_with_handler(&mut self.module, rt.as_mut(), id, args)
            }
        }
    }

    /// Run and return the execution-counter delta for just this call.
    ///
    /// # Errors
    ///
    /// As [`Session::run`].
    pub fn run_measured(
        &mut self,
        func: &str,
        args: &[Value],
    ) -> Result<(Option<Value>, ExecStats), VmError> {
        let before = self.vm.stats.clone();
        let out = self.run(func, args)?;
        let delta = self.vm.stats.delta_since(&before);
        Ok((out, delta))
    }

    /// Cumulative VM counters.
    pub fn stats(&self) -> &ExecStats {
        &self.vm.stats
    }

    /// Run-time-system counters (dynamic sessions only). For a threaded
    /// session these are *this thread's* meters; global meters live on
    /// the shared runtime ([`dyc_rt::SharedRuntime::stats`]).
    pub fn rt_stats(&self) -> Option<&RtStats> {
        match &self.exec {
            Exec::Static => None,
            Exec::Single(rt) => Some(&rt.stats),
            Exec::Threaded(rt) => Some(&rt.stats),
        }
    }

    /// The single-threaded runtime, for dynamic sessions (diagnostics,
    /// cache introspection, explicit invalidation).
    pub fn runtime(&mut self) -> Option<&mut Runtime> {
        match &mut self.exec {
            Exec::Single(rt) => Some(rt.as_mut()),
            _ => None,
        }
    }

    /// Trace events recorded so far (oldest first), when the session was
    /// built with [`OptConfig::trace`](dyc_bta::OptConfig). Empty when
    /// tracing is off or the session is static.
    pub fn trace_events(&self) -> Vec<dyc_obs::Event> {
        match &self.exec {
            Exec::Static => Vec::new(),
            Exec::Single(rt) => rt.trace.events(),
            Exec::Threaded(rt) => rt.trace.events(),
        }
    }

    /// Events dropped from this session's trace ring (oldest-first
    /// overwrite once the fixed ring fills). Zero when tracing is off.
    pub fn trace_dropped(&self) -> u64 {
        match &self.exec {
            Exec::Static => 0,
            Exec::Single(rt) => rt.trace.dropped(),
            Exec::Threaded(rt) => rt.trace.dropped(),
        }
    }

    /// Values printed by the guest so far.
    pub fn output(&self) -> &[Value] {
        &self.vm.output
    }

    /// Take and clear the guest output.
    pub fn take_output(&mut self) -> Vec<Value> {
        std::mem::take(&mut self.vm.output)
    }

    /// Number of functions currently in the module (grows as code is
    /// generated at run time).
    pub fn module_len(&self) -> usize {
        self.module.len()
    }

    /// Entry-site count of a dynamic session (0 for static sessions):
    /// site ids at or above this are internal promotion sites, whose
    /// numbering depends on the order specializations first created
    /// them.
    pub fn n_entry_sites(&self) -> usize {
        match &self.exec {
            Exec::Static => 0,
            Exec::Single(rt) => rt.n_entry_sites(),
            Exec::Threaded(rt) => rt.shared().n_entry_sites(),
        }
    }

    /// Disassemble a function by name (for the figures harness).
    pub fn disassemble(&self, func: &str) -> Option<String> {
        let id = self.module.func_by_name(func)?;
        Some(dyc_vm::pretty::func_to_string(self.module.func(id)))
    }

    /// Disassemble every function whose name starts with `prefix`
    /// (specialized versions are named `<region>$specN`).
    pub fn disassemble_matching(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (_, f) in self.module.iter() {
            if f.name.starts_with(prefix) {
                out.push_str(&dyc_vm::pretty::func_to_string(f));
                out.push('\n');
            }
        }
        out
    }

    /// Every `(site, key, code)` binding currently cached by a dynamic
    /// session's runtime, code included — the differential harnesses
    /// compare these across runtimes instruction for instruction. Empty
    /// for static sessions. For a threaded session the bindings come
    /// from the shared cache (they are the same for every thread).
    pub fn cached_code(&self) -> Vec<(u32, Vec<u64>, dyc_vm::CodeFunc)> {
        match &self.exec {
            Exec::Static => Vec::new(),
            Exec::Single(rt) => rt
                .cache_entries()
                .into_iter()
                .map(|(s, k, f)| (s, k, self.module.func(f).clone()))
                .collect(),
            Exec::Threaded(rt) => rt
                .shared()
                .cached_code()
                .into_iter()
                .map(|(s, k, f)| (s, k, f.as_ref().clone()))
                .collect(),
        }
    }

    /// Serialize this dynamic session's entire code cache — every
    /// cached specialization plus the internal promotion sites — as a
    /// versioned, fingerprinted JSON bundle a future process can
    /// [`crate::Program::warm_start`] from. `None` for static sessions
    /// (they have no dynamic-code cache). For a threaded session the
    /// bundle is the *shared* cache, identical from every thread.
    pub fn cache_bundle(&self) -> Option<String> {
        match &self.exec {
            Exec::Static => None,
            Exec::Single(rt) => Some(rt.snapshot_bundle(&self.module).to_json()),
            Exec::Threaded(rt) => Some(rt.shared().snapshot_bundle().to_json()),
        }
    }

    /// Write [`Session::cache_bundle`] to `path`.
    ///
    /// # Errors
    ///
    /// Fails for static sessions and on I/O errors.
    pub fn snapshot_cache(&self, path: impl AsRef<std::path::Path>) -> Result<(), String> {
        let bundle = self
            .cache_bundle()
            .ok_or("static sessions have no dynamic-code cache to snapshot")?;
        std::fs::write(path.as_ref(), bundle)
            .map_err(|e| format!("writing {}: {e}", path.as_ref().display()))
    }

    /// Names of dynamically generated functions.
    pub fn generated_functions(&self) -> Vec<String> {
        self.module
            .iter()
            .filter(|(_, f)| f.name.contains("$spec"))
            .map(|(_, f)| f.name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{Compiler, OptConfig, Value};

    const POWER: &str = r#"
        int power(int base, int exp) {
            make_static(exp);
            int r = 1;
            while (exp > 0) { r = r * base; exp = exp - 1; }
            return r;
        }
    "#;

    #[test]
    fn static_and_dynamic_agree_on_power() {
        let p = Compiler::new().compile(POWER).unwrap();
        let mut s = p.static_session();
        let mut d = p.dynamic_session();
        for (b, e) in [(2i64, 0i64), (2, 1), (3, 4), (5, 3), (-2, 5), (7, 2)] {
            let sv = s.run("power", &[Value::I(b), Value::I(e)]).unwrap();
            let dv = d.run("power", &[Value::I(b), Value::I(e)]).unwrap();
            assert_eq!(sv, dv, "power({b}, {e})");
        }
    }

    #[test]
    fn unrolled_power_has_no_branches() {
        let p = Compiler::new().compile(POWER).unwrap();
        let mut d = p.dynamic_session();
        d.run("power", &[Value::I(3), Value::I(4)]).unwrap();
        let gen = d.generated_functions();
        assert_eq!(gen.len(), 1);
        let code = d.disassemble(&gen[0]).unwrap();
        assert!(
            !code.contains("brz") && !code.contains("brnz") && !code.contains("jmp"),
            "fully unrolled code should be straight-line:\n{code}"
        );
        assert!(d.rt_stats().unwrap().loops_unrolled >= 1);
    }

    #[test]
    fn code_cache_reuses_specializations() {
        let p = Compiler::new().compile(POWER).unwrap();
        let mut d = p.dynamic_session();
        d.run("power", &[Value::I(3), Value::I(4)]).unwrap();
        d.run("power", &[Value::I(5), Value::I(4)]).unwrap(); // same exp: cache hit
        d.run("power", &[Value::I(5), Value::I(6)]).unwrap(); // new exp: miss
        let rt = d.rt_stats().unwrap();
        assert_eq!(rt.specializations, 2);
        assert_eq!(d.stats().dispatches, 3);
    }

    #[test]
    fn no_unrolling_emits_a_residual_loop() {
        let cfg = OptConfig::all().without("complete_loop_unrolling").unwrap();
        let p = Compiler::with_config(cfg).compile(POWER).unwrap();
        let mut d = p.dynamic_session();
        assert_eq!(
            d.run("power", &[Value::I(3), Value::I(4)]).unwrap(),
            Some(Value::I(81))
        );
        let gen = d.generated_functions();
        let code = d.disassemble(&gen[0]).unwrap();
        assert!(
            code.contains("jmp") || code.contains("brz") || code.contains("brnz"),
            "without unrolling a loop must remain:\n{code}"
        );
        assert_eq!(d.rt_stats().unwrap().loops_unrolled, 0);
    }

    #[test]
    fn dynamic_compilation_charges_overhead() {
        let p = Compiler::new().compile(POWER).unwrap();
        let mut d = p.dynamic_session();
        d.run("power", &[Value::I(3), Value::I(4)]).unwrap();
        assert!(d.stats().dyncomp_cycles > 0);
        assert!(d.stats().dispatch_cycles > 0);
        assert!(d.rt_stats().unwrap().instrs_generated > 0);
    }

    #[test]
    fn snapshot_then_warm_start_skips_respecialization() {
        let p = Compiler::new().compile(POWER).unwrap();
        let mut d = p.dynamic_session();
        let cases = [(3i64, 4i64), (2, 7), (5, 2)];
        let mut want = Vec::new();
        for (b, e) in cases {
            want.push(d.run("power", &[Value::I(b), Value::I(e)]).unwrap());
        }
        assert_eq!(d.rt_stats().unwrap().specializations, 3);
        let bundle = d.cache_bundle().unwrap();

        let mut w = p.warm_start_from_str(&bundle).unwrap();
        let rt = w.rt_stats().unwrap();
        assert_eq!(rt.cache_warm_loads, 3);
        assert_eq!(rt.cache_warm_rejects, 0);
        for ((b, e), want) in cases.iter().zip(&want) {
            let got = w.run("power", &[Value::I(*b), Value::I(*e)]).unwrap();
            assert_eq!(got, *want, "power({b}, {e}) after warm start");
        }
        // Every dispatch hit restored code; nothing re-specialized.
        assert_eq!(w.rt_stats().unwrap().specializations, 0);

        // The restored code is byte-identical to what the cold session
        // cached, binding for binding. (Base addresses are module-layout
        // artifacts, not code bytes — the two modules install in
        // different orders.)
        let norm = |mut v: Vec<(u32, Vec<u64>, crate::CodeFunc)>| {
            for (_, _, f) in &mut v {
                f.base_addr = 0;
            }
            v.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
            v
        };
        assert_eq!(norm(d.cached_code()), norm(w.cached_code()));
    }

    #[test]
    fn corrupted_fingerprint_is_rejected_per_entry_not_fatal() {
        let p = Compiler::new().compile(POWER).unwrap();
        let mut d = p.dynamic_session();
        for e in [4i64, 7, 2] {
            d.run("power", &[Value::I(3), Value::I(e)]).unwrap();
        }
        let mut bundle = crate::CacheBundle::parse(&d.cache_bundle().unwrap()).unwrap();
        bundle.entries[0].config_hash ^= 1;
        let corrupted_key = bundle.entries[0].key.clone();

        let mut w = p.warm_start_from_str(&bundle.to_json()).unwrap();
        let rt = w.rt_stats().unwrap();
        assert_eq!(rt.cache_warm_rejects, 1, "only the corrupted entry drops");
        assert_eq!(rt.cache_warm_loads, 2);
        // The rejected key still computes correctly — it just pays one
        // re-specialization.
        let e = corrupted_key[0] as i64;
        assert_eq!(
            w.run("power", &[Value::I(3), Value::I(e)]).unwrap(),
            Some(Value::I(3i64.pow(e as u32)))
        );
        assert_eq!(w.rt_stats().unwrap().specializations, 1);
    }

    #[test]
    fn warm_start_rejects_a_mismatched_program_wholesale() {
        let p = Compiler::new().compile(POWER).unwrap();
        let mut d = p.dynamic_session();
        d.run("power", &[Value::I(3), Value::I(4)]).unwrap();
        let bundle = d.cache_bundle().unwrap();
        // A different program parses the bundle fine but must reject
        // every entry at the fingerprint check.
        let q = Compiler::new()
            .compile("int twice(int x) { make_static(x); return x + x; }")
            .unwrap();
        let mut w = q.warm_start_from_str(&bundle).unwrap();
        let rt = w.rt_stats().unwrap();
        assert_eq!(rt.cache_warm_loads, 0);
        assert_eq!(rt.cache_warm_rejects, 1);
        assert_eq!(w.run("twice", &[Value::I(21)]).unwrap(), Some(Value::I(42)));
        // Unparseable input is the only hard error.
        assert!(q.warm_start_from_str("{not a bundle").is_err());
    }

    #[test]
    fn warm_shared_runtime_serves_restored_code_to_threads() {
        let p = Compiler::new().compile(POWER).unwrap();
        let shared = p.shared_runtime();
        let mut t = p.threaded_session(&shared);
        for e in [4i64, 7] {
            t.run("power", &[Value::I(3), Value::I(e)]).unwrap();
        }
        let bundle = t.cache_bundle().unwrap();

        let warm = p.warm_shared_runtime(&bundle).unwrap();
        let stats = warm.stats();
        assert_eq!(stats.cache_warm_loads, 2);
        assert_eq!(stats.cache_warm_rejects, 0);
        let mut wt = p.threaded_session(&warm);
        assert_eq!(
            wt.run("power", &[Value::I(3), Value::I(4)]).unwrap(),
            Some(Value::I(81))
        );
        assert_eq!(
            wt.run("power", &[Value::I(3), Value::I(7)]).unwrap(),
            Some(Value::I(2187))
        );
        // Both dispatches hit restored bindings: no specialization ran.
        assert_eq!(warm.stats().specializations, 0);
    }

    #[test]
    fn asymptotic_speedup_on_power() {
        // After the first (compiling) call, the specialized region must
        // beat the static build per invocation.
        let p = Compiler::new().compile(POWER).unwrap();
        let mut s = p.static_session();
        let mut d = p.dynamic_session();
        let args = [Value::I(3), Value::I(12)];
        d.run("power", &args).unwrap(); // compile
        let (_, ds) = d.run_measured("power", &args).unwrap();
        let (_, ss) = s.run_measured("power", &args).unwrap();
        assert!(
            ds.run_cycles() < ss.run_cycles(),
            "specialized {} vs static {} cycles",
            ds.run_cycles(),
            ss.run_cycles()
        );
    }
}
