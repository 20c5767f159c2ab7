//! Serializable specialized code: the versioned [`CodeArtifact`]
//! format, and the [`CacheBundle`] that persists a runtime's entire
//! dynamic-code cache across process restarts.
//!
//! DyC's payoff depends on amortizing specialization cost over reuse
//! (§4.2's break-even analysis) — yet a process restart re-pays full
//! first-dispatch specialization for every `(site, key)`. This module
//! closes that gap: [`crate::Runtime`] and
//! [`crate::concurrent::SharedRuntime`] can serialize every cached
//! specialization into a bundle, and a fresh runtime can *warm-start*
//! from it, re-installing each entry after verifying its
//! `(artifact-version, config-hash, program-hash)` fingerprint triple.
//! A stale or corrupted entry is rejected *per-entry* and metered
//! ([`crate::RtStats::cache_warm_rejects`]) — never a panic, never a
//! whole-bundle failure: the rejected key simply re-specializes on its
//! first dispatch.
//!
//! The wire format is JSON, written by hand and parsed with the
//! dependency-free [`dyc_obs::Json`] machinery (the workspace is
//! dependency-free by policy). Because that parser holds numbers as
//! `f64`, every 64-bit quantity is carried as a *string*: signed
//! immediates in decimal (`"-7"`), raw bit patterns (hashes, cache-key
//! words, float bits) in hex (`"0x0123..."`). Small indices (registers,
//! branch targets, vregs) ride as plain JSON numbers, which are exact
//! below 2^53.

use crate::fnv::fnv1a;
use crate::policy::PolicyEngine;
use crate::runtime::Site;
use crate::stats::Sinks;
use dyc_bta::OptConfig;
use dyc_ir::{BlockId, IrTy, VReg};
use dyc_obs::json::escape;
use dyc_obs::{EventKind, Json};
use dyc_stage::{live_at_point, SitePolicy, StagedProgram};
use dyc_vm::{Cc, CodeFunc, FAluOp, FuncId, HostFn, IAluOp, Instr, Operand, Reg, Ty, UnOp};
use std::fmt::Write as _;
use std::ops::Deref;

/// Version tag written into every artifact and bundle. Bump it whenever
/// the wire format or the meaning of any serialized field changes; a
/// version mismatch at warm-start rejects the entry (metered, not
/// fatal). Version 2 carries code only; version 1 also carried unit,
/// fixup and hole tables that no loader read.
pub const ARTIFACT_VERSION: u32 = 2;

// ---------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------

/// FNV-1a fingerprint of an [`OptConfig`] — every flag that can change
/// emitted code or caching behavior, by name, in declaration order. The
/// `trace` flag is deliberately excluded: it is purely observational
/// (recording events never changes results, code bytes, or caches), so
/// a bundle snapshotted with tracing on warm-starts a traced *or*
/// untraced runtime. The `native` flag is excluded for the same reason:
/// the VM code bytes in a bundle are backend-independent (native
/// lowering happens after restore, per run), so a bundle snapshotted
/// with either backend warm-starts the other. `policy` is excluded
/// too: the adaptive policy changes only *when* specializations
/// happen, never their bytes, so bundles are portable across
/// `always`/`adaptive` runs (an adaptive restore seeds the restored
/// keys as already promoted — see
/// [`PolicyEngine::seed_promoted`](crate::PolicyEngine::seed_promoted)).
pub fn config_hash(cfg: &OptConfig) -> u64 {
    let flags: [(&str, bool); 11] = [
        ("complete_loop_unrolling", cfg.complete_loop_unrolling),
        ("static_loads", cfg.static_loads),
        ("unchecked_dispatching", cfg.unchecked_dispatching),
        ("static_calls", cfg.static_calls),
        ("zero_copy_propagation", cfg.zero_copy_propagation),
        (
            "dead_assignment_elimination",
            cfg.dead_assignment_elimination,
        ),
        ("strength_reduction", cfg.strength_reduction),
        ("internal_promotions", cfg.internal_promotions),
        ("polyvariant_division", cfg.polyvariant_division),
        ("staged_ge", cfg.staged_ge),
        ("template_fusion", cfg.template_fusion),
    ];
    let mut bytes = Vec::new();
    for (name, on) in flags {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(if on { b'1' } else { b'0' });
        bytes.push(b';');
    }
    fnv1a(&bytes)
}

/// FNV-1a fingerprint of a staged program: the disassembly of its
/// deterministically built base module. Any change to the source
/// program, the static optimizer, codegen, or the dispatch-site splices
/// changes this listing, invalidating stale bundles; cosmetic changes to
/// the runtime do not.
pub fn program_hash(staged: &StagedProgram) -> u64 {
    let module = staged.build_module();
    fnv1a(dyc_vm::pretty::module_to_string(&module).as_bytes())
}

// ---------------------------------------------------------------------
// CodeArtifact
// ---------------------------------------------------------------------

/// One serialized specialization: a self-contained, versioned record of
/// the emitted code for one `(site, key)` cache binding, carrying
/// everything needed to re-install it in a fresh runtime — and the
/// fingerprints needed to refuse to.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeArtifact {
    /// Wire-format version ([`ARTIFACT_VERSION`] at write time).
    pub version: u32,
    /// [`config_hash`] of the producing configuration.
    pub config_hash: u64,
    /// [`program_hash`] of the producing staged program.
    pub program_hash: u64,
    /// Dispatch site id this binding belongs to.
    pub site: u32,
    /// The cache key (promoted values' [`dyc_vm::Value::key_bits`]).
    pub key: Vec<u64>,
    /// The site's promoted vregs in key order (the key's schema).
    pub key_schema: Vec<u32>,
    /// Installed function name (`<region>$specN`).
    pub name: String,
    /// Parameter count of the specialized function.
    pub n_params: usize,
    /// Frame size of the specialized function.
    pub n_regs: usize,
    /// The emitted instructions, branches resolved.
    pub code: Vec<Instr>,
}

impl CodeArtifact {
    /// Check this artifact's fingerprint triple against the loading
    /// runtime's expectations.
    ///
    /// # Errors
    ///
    /// Describes the first mismatching component.
    pub fn verify(&self, expect_config: u64, expect_program: u64) -> Result<(), String> {
        if self.version != ARTIFACT_VERSION {
            return Err(format!(
                "artifact version {} != supported {ARTIFACT_VERSION}",
                self.version
            ));
        }
        if self.config_hash != expect_config {
            return Err(format!(
                "config hash 0x{:016x} != expected 0x{expect_config:016x}",
                self.config_hash
            ));
        }
        if self.program_hash != expect_program {
            return Err(format!(
                "program hash 0x{:016x} != expected 0x{expect_program:016x}",
                self.program_hash
            ));
        }
        Ok(())
    }

    /// Rebuild the install-ready [`CodeFunc`] (the module assigns its
    /// address on installation).
    pub fn to_func(&self) -> CodeFunc {
        let mut f = CodeFunc::new(self.name.clone(), self.n_params, self.n_regs.max(1));
        f.code = self.code.clone();
        f
    }

    /// Serialize to a single JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push('{');
        let _ = write!(s, "\"version\":{}", self.version);
        let _ = write!(s, ",\"config\":{}", hex(self.config_hash));
        let _ = write!(s, ",\"program\":{}", hex(self.program_hash));
        let _ = write!(s, ",\"site\":{}", self.site);
        let _ = write!(s, ",\"key\":{}", hex_arr(&self.key));
        let _ = write!(s, ",\"key_schema\":{}", num_arr(&self.key_schema));
        let _ = write!(s, ",\"name\":{}", escape(&self.name));
        let _ = write!(s, ",\"n_params\":{}", self.n_params);
        let _ = write!(s, ",\"n_regs\":{}", self.n_regs);
        s.push_str(",\"code\":[");
        for (i, ins) in self.code.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&instr_to_json(ins));
        }
        s.push_str("]}");
        s
    }

    /// Parse back from the [`Json`] tree of [`CodeArtifact::to_json`].
    ///
    /// # Errors
    ///
    /// Describes the first malformed field.
    pub fn from_json(j: &Json) -> Result<CodeArtifact, String> {
        let code = j
            .get("code")
            .and_then(Json::arr)
            .ok_or("artifact missing code array")?
            .iter()
            .map(instr_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CodeArtifact {
            version: get_u32(j, "version")?,
            config_hash: get_u64(j, "config")?,
            program_hash: get_u64(j, "program")?,
            site: get_u32(j, "site")?,
            key: get_hex_arr(j, "key")?,
            key_schema: get_num_arr(j, "key_schema")?,
            name: j
                .get("name")
                .and_then(Json::str)
                .ok_or("artifact missing name")?
                .to_string(),
            n_params: get_u32(j, "n_params")? as usize,
            n_regs: get_u32(j, "n_regs")? as usize,
            code,
        })
    }
}

// ---------------------------------------------------------------------
// SiteSpec
// ---------------------------------------------------------------------

/// Serialized internal promotion [`Site`]. Emitted code bakes dispatch
/// point ids into `Dispatch` instructions, so warm-start must restore
/// internal sites *with the same ids, in the same order* before any
/// artifact referencing them is re-installed.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteSpec {
    /// Function index containing the site.
    pub func: usize,
    /// Resume block.
    pub block: u32,
    /// Resume instruction index.
    pub inst_idx: usize,
    /// Baked static context: `(vreg, is_float, value bits)` triples.
    pub base_store: Vec<(u32, bool, u64)>,
    /// Promoted vregs (the cache-key schema).
    pub key_vars: Vec<u32>,
    /// Dispatch argument layout.
    pub arg_vars: Vec<u32>,
    /// Cache policy name: `all`, `bounded`, `one`, or `indexed`.
    pub policy: String,
    /// Policy parameter (`bounded` capacity; 0 otherwise).
    pub policy_param: u32,
    /// Entry division in the precompiled GE program, when staged.
    pub division: Option<u32>,
}

impl SiteSpec {
    /// Capture a runtime [`Site`].
    pub fn from_site(site: &Site) -> SiteSpec {
        let (policy, policy_param) = match site.policy {
            SitePolicy::CacheAll => ("all", 0),
            SitePolicy::CacheAllBounded(k) => ("bounded", k),
            SitePolicy::CacheOneUnchecked => ("one", 0),
            SitePolicy::CacheIndexed => ("indexed", 0),
        };
        SiteSpec {
            func: site.func,
            block: site.block.0,
            inst_idx: site.inst_idx,
            base_store: site
                .base_store
                .iter()
                .map(|(v, val)| (v.0, matches!(val, dyc_vm::Value::F(_)), val.to_bits()))
                .collect(),
            key_vars: site.key_vars.iter().map(|v| v.0).collect(),
            arg_vars: site.arg_vars.iter().map(|v| v.0).collect(),
            policy: policy.to_string(),
            policy_param,
            division: site.division,
        }
    }

    /// Rebuild the runtime [`Site`] of `staged`, the program the bundle
    /// claims to come from (layout tables are recomputed at
    /// registration).
    ///
    /// # Errors
    ///
    /// Rejects an unknown policy name, and every field `staged` cannot
    /// have produced: a function, block or instruction index out of range;
    /// a base store not strictly increasing by vreg, holding a variable
    /// not live at the site, or whose float flag contradicts its vreg's
    /// type; dispatch arguments other than the live variables outside the
    /// base store, in vreg order; a key variable that is not a dispatch
    /// argument; a division that is not the function's GE program's
    /// division at this resume point over the base store and key
    /// variables.
    pub fn to_site(&self, staged: &StagedProgram) -> Result<Site, String> {
        let policy = match self.policy.as_str() {
            "all" => SitePolicy::CacheAll,
            "bounded" => SitePolicy::CacheAllBounded(self.policy_param),
            "one" => SitePolicy::CacheOneUnchecked,
            "indexed" => SitePolicy::CacheIndexed,
            other => return Err(format!("unknown site policy '{other}'")),
        };
        let f =
            (staged.ir.funcs.get(self.func)).ok_or_else(|| format!("no function {}", self.func))?;
        let block = (f.blocks.get(self.block as usize))
            .ok_or_else(|| format!("{}: no block {}", f.name, self.block))?;
        if self.inst_idx >= block.insts.len() {
            return Err(format!(
                "{}: block {} has no instruction {}",
                f.name, self.block, self.inst_idx
            ));
        }
        // Both executors bake the static variables live at the site and
        // pass the dynamic ones, in vreg order; the layout and a miss's
        // frame rely on it.
        let live = live_at_point(
            f,
            &staged.funcs[self.func].live,
            BlockId(self.block),
            self.inst_idx,
        );
        if self.base_store.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("base store not strictly increasing by vreg".into());
        }
        let is_live = |v: u32| live.binary_search(&VReg(v)).is_ok();
        if let Some(&(v, ..)) = self.base_store.iter().find(|e| !is_live(e.0)) {
            return Err(format!("{}: base store v{v} not live at the site", f.name));
        }
        let in_base = |v: &VReg| self.base_store.binary_search_by_key(&v.0, |e| e.0).is_ok();
        let args = live.iter().filter(|v| !in_base(v)).map(|v| v.0);
        if !args.eq(self.arg_vars.iter().copied()) {
            return Err(format!(
                "{}: dispatch arguments are not the dynamic variables live at the site",
                f.name
            ));
        }
        let mut base_store = Vec::with_capacity(self.base_store.len());
        for &(v, is_float, bits) in &self.base_store {
            if is_float != (f.ty(VReg(v)) == IrTy::Float) {
                return Err(format!("{}: base store v{v} has the wrong type", f.name));
            }
            let val = if is_float {
                dyc_vm::Value::float_from_bits(bits)
            } else {
                dyc_vm::Value::int_from_bits(bits)
            };
            base_store.push((VReg(v), val));
        }
        if let Some(v) = self.key_vars.iter().find(|v| !self.arg_vars.contains(v)) {
            return Err(format!("key var v{v} is not a dispatch argument"));
        }
        if let Some(d) = self.division {
            let gef = staged.ge.funcs[self.func].as_deref();
            let div = gef.and_then(|g| g.divisions.get(d as usize));
            let mut vars: Vec<u32> = self.base_store.iter().map(|e| e.0).collect();
            vars.extend(&self.key_vars);
            vars.sort_unstable();
            vars.dedup();
            let matches = div.is_some_and(|div| {
                (div.block.0, div.start as usize) == (self.block, self.inst_idx)
                    && div.vars.iter().map(|v| v.0).eq(vars.iter().copied())
            });
            if !matches {
                return Err(format!(
                    "{}: division {d} does not resume this site",
                    f.name
                ));
            }
        }
        Ok(Site {
            func: self.func,
            block: BlockId(self.block),
            inst_idx: self.inst_idx,
            base_store,
            key_vars: self.key_vars.iter().map(|&v| VReg(v)).collect(),
            arg_vars: self.arg_vars.iter().map(|&v| VReg(v)).collect(),
            policy,
            division: self.division,
            key_pos: Vec::new(),
            dyn_pos: Vec::new(),
        })
    }

    fn to_json(&self) -> String {
        let mut s = String::new();
        s.push('{');
        let _ = write!(
            s,
            "\"func\":{},\"block\":{},\"inst_idx\":{}",
            self.func, self.block, self.inst_idx
        );
        s.push_str(",\"base_store\":[");
        for (i, (v, f, bits)) in self.base_store.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "[{v},{},{}]",
                if *f { "true" } else { "false" },
                hex(*bits)
            );
        }
        s.push(']');
        let _ = write!(s, ",\"key_vars\":{}", num_arr(&self.key_vars));
        let _ = write!(s, ",\"arg_vars\":{}", num_arr(&self.arg_vars));
        let _ = write!(
            s,
            ",\"policy\":{},\"policy_param\":{}",
            escape(&self.policy),
            self.policy_param
        );
        match self.division {
            Some(d) => {
                let _ = write!(s, ",\"division\":{d}");
            }
            None => s.push_str(",\"division\":null"),
        }
        s.push('}');
        s
    }

    fn from_json(j: &Json) -> Result<SiteSpec, String> {
        let mut base_store = Vec::new();
        for e in j
            .get("base_store")
            .and_then(Json::arr)
            .ok_or("site missing base_store")?
        {
            let t = e.arr().ok_or("base_store entry not an array")?;
            if t.len() != 3 {
                return Err("base_store entry needs 3 elements".into());
            }
            let v = t[0].num().ok_or("bad base_store vreg")? as u32;
            let f = match t[1] {
                Json::Bool(b) => b,
                _ => return Err("bad base_store float flag".into()),
            };
            base_store.push((v, f, parse_hex(&t[2])?));
        }
        let division = match j.get("division") {
            Some(Json::Null) | None => None,
            Some(v) => Some(v.num().ok_or("bad division")? as u32),
        };
        Ok(SiteSpec {
            func: get_u32(j, "func")? as usize,
            block: get_u32(j, "block")?,
            inst_idx: get_u32(j, "inst_idx")? as usize,
            base_store,
            key_vars: get_num_arr(j, "key_vars")?,
            arg_vars: get_num_arr(j, "arg_vars")?,
            policy: j
                .get("policy")
                .and_then(Json::str)
                .ok_or("site missing policy")?
                .to_string(),
            policy_param: get_u32(j, "policy_param")?,
            division,
        })
    }
}

// ---------------------------------------------------------------------
// CacheBundle
// ---------------------------------------------------------------------

/// A runtime's entire dynamic-code cache, serialized: the internal
/// promotion sites created during specialization (in id order) plus one
/// [`CodeArtifact`] per cache binding. The bundle header repeats the
/// fingerprint triple so a loader can cheaply reject a wholesale-stale
/// bundle; each entry *also* carries the triple, so a corrupted entry is
/// rejected individually.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheBundle {
    /// Wire-format version.
    pub version: u32,
    /// [`config_hash`] at snapshot time.
    pub config_hash: u64,
    /// [`program_hash`] at snapshot time.
    pub program_hash: u64,
    /// Entry-site count at snapshot time (internal site ids start here).
    pub n_entry_sites: u32,
    /// Internal promotion sites, in site-id order.
    pub sites: Vec<SiteSpec>,
    /// One artifact per cache binding.
    pub entries: Vec<CodeArtifact>,
}

impl CacheBundle {
    /// Serialize the bundle to its JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push('{');
        let _ = write!(s, "\"version\":{}", self.version);
        let _ = write!(s, ",\"config\":{}", hex(self.config_hash));
        let _ = write!(s, ",\"program\":{}", hex(self.program_hash));
        let _ = write!(s, ",\"n_entry_sites\":{}", self.n_entry_sites);
        s.push_str(",\"sites\":[");
        for (i, site) in self.sites.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&site.to_json());
        }
        s.push_str("],\"entries\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&e.to_json());
        }
        s.push_str("]}");
        s
    }

    /// Parse a bundle document.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a structurally invalid bundle.
    /// (Fingerprint mismatches are *not* errors here — they are
    /// detected, per entry, at restore time.)
    pub fn parse(text: &str) -> Result<CacheBundle, String> {
        let j = Json::parse(text)?;
        let sites = j
            .get("sites")
            .and_then(Json::arr)
            .ok_or("bundle missing sites")?
            .iter()
            .map(SiteSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let entries = j
            .get("entries")
            .and_then(Json::arr)
            .ok_or("bundle missing entries")?
            .iter()
            .map(CodeArtifact::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CacheBundle {
            version: get_u32(&j, "version")?,
            config_hash: get_u64(&j, "config")?,
            program_hash: get_u64(&j, "program")?,
            n_entry_sites: get_u32(&j, "n_entry_sites")?,
            sites,
            entries,
        })
    }
}

// ---------------------------------------------------------------------
// JSON helpers (write side is hand-rolled; read side walks dyc_obs::Json)
// ---------------------------------------------------------------------

fn hex(v: u64) -> String {
    format!("\"0x{v:016x}\"")
}

fn hex_arr(vs: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&hex(*v));
    }
    s.push(']');
    s
}

fn num_arr(vs: &[u32]) -> String {
    let mut s = String::from("[");
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v}");
    }
    s.push(']');
    s
}

fn parse_hex(j: &Json) -> Result<u64, String> {
    let s = j.str().ok_or("expected hex string")?;
    let digits = s.strip_prefix("0x").ok_or("hex string missing 0x")?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("bad hex '{s}': {e}"))
}

fn parse_i64_str(j: &Json) -> Result<i64, String> {
    let s = j.str().ok_or("expected decimal string")?;
    s.parse::<i64>().map_err(|e| format!("bad i64 '{s}': {e}"))
}

fn get_u32(j: &Json, key: &str) -> Result<u32, String> {
    j.get(key)
        .and_then(Json::num)
        .map(|n| n as u32)
        .ok_or_else(|| format!("missing or non-numeric '{key}'"))
}

fn get_u64(j: &Json, key: &str) -> Result<u64, String> {
    parse_hex(j.get(key).ok_or_else(|| format!("missing '{key}'"))?)
}

fn get_num_arr(j: &Json, key: &str) -> Result<Vec<u32>, String> {
    j.get(key)
        .and_then(Json::arr)
        .ok_or_else(|| format!("missing array '{key}'"))?
        .iter()
        .map(|v| {
            v.num()
                .map(|n| n as u32)
                .ok_or_else(|| format!("bad number in '{key}'"))
        })
        .collect()
}

fn get_hex_arr(j: &Json, key: &str) -> Result<Vec<u64>, String> {
    j.get(key)
        .and_then(Json::arr)
        .ok_or_else(|| format!("missing array '{key}'"))?
        .iter()
        .map(parse_hex)
        .collect()
}

// ---------------------------------------------------------------------
// Instruction codec
// ---------------------------------------------------------------------

fn ialu_name(op: IAluOp) -> &'static str {
    match op {
        IAluOp::Add => "add",
        IAluOp::Sub => "sub",
        IAluOp::Mul => "mul",
        IAluOp::Div => "div",
        IAluOp::Rem => "rem",
        IAluOp::And => "and",
        IAluOp::Or => "or",
        IAluOp::Xor => "xor",
        IAluOp::Shl => "shl",
        IAluOp::Shr => "shr",
    }
}

fn ialu_by_name(s: &str) -> Result<IAluOp, String> {
    Ok(match s {
        "add" => IAluOp::Add,
        "sub" => IAluOp::Sub,
        "mul" => IAluOp::Mul,
        "div" => IAluOp::Div,
        "rem" => IAluOp::Rem,
        "and" => IAluOp::And,
        "or" => IAluOp::Or,
        "xor" => IAluOp::Xor,
        "shl" => IAluOp::Shl,
        "shr" => IAluOp::Shr,
        other => return Err(format!("unknown ialu op '{other}'")),
    })
}

fn falu_name(op: FAluOp) -> &'static str {
    match op {
        FAluOp::Add => "fadd",
        FAluOp::Sub => "fsub",
        FAluOp::Mul => "fmul",
        FAluOp::Div => "fdiv",
    }
}

fn falu_by_name(s: &str) -> Result<FAluOp, String> {
    Ok(match s {
        "fadd" => FAluOp::Add,
        "fsub" => FAluOp::Sub,
        "fmul" => FAluOp::Mul,
        "fdiv" => FAluOp::Div,
        other => return Err(format!("unknown falu op '{other}'")),
    })
}

fn cc_name(cc: Cc) -> &'static str {
    match cc {
        Cc::Eq => "eq",
        Cc::Ne => "ne",
        Cc::Lt => "lt",
        Cc::Le => "le",
        Cc::Gt => "gt",
        Cc::Ge => "ge",
    }
}

fn cc_by_name(s: &str) -> Result<Cc, String> {
    Ok(match s {
        "eq" => Cc::Eq,
        "ne" => Cc::Ne,
        "lt" => Cc::Lt,
        "le" => Cc::Le,
        "gt" => Cc::Gt,
        "ge" => Cc::Ge,
        other => return Err(format!("unknown condition '{other}'")),
    })
}

fn un_name(op: UnOp) -> &'static str {
    match op {
        UnOp::NegI => "negi",
        UnOp::NotI => "noti",
        UnOp::NegF => "negf",
        UnOp::IToF => "itof",
        UnOp::FToI => "ftoi",
    }
}

fn un_by_name(s: &str) -> Result<UnOp, String> {
    Ok(match s {
        "negi" => UnOp::NegI,
        "noti" => UnOp::NotI,
        "negf" => UnOp::NegF,
        "itof" => UnOp::IToF,
        "ftoi" => UnOp::FToI,
        other => return Err(format!("unknown unary op '{other}'")),
    })
}

fn ty_name(ty: Ty) -> &'static str {
    match ty {
        Ty::Int => "int",
        Ty::Float => "float",
    }
}

fn ty_by_name(s: &str) -> Result<Ty, String> {
    Ok(match s {
        "int" => Ty::Int,
        "float" => Ty::Float,
        other => return Err(format!("unknown type '{other}'")),
    })
}

/// Register/immediate operand: a register is a plain number, an
/// immediate a decimal string (exact for the full `i64` range).
fn operand_json(o: Operand) -> String {
    match o {
        Operand::Reg(r) => r.to_string(),
        Operand::Imm(v) => format!("\"{v}\""),
    }
}

fn operand_from(j: &Json) -> Result<Operand, String> {
    match j {
        Json::Num(n) => Ok(Operand::Reg(*n as Reg)),
        Json::Str(_) => Ok(Operand::Imm(parse_i64_str(j)?)),
        _ => Err("bad operand".into()),
    }
}

fn opt_reg_json(r: Option<Reg>) -> String {
    match r {
        Some(r) => r.to_string(),
        None => "null".to_string(),
    }
}

fn opt_reg_from(j: &Json) -> Result<Option<Reg>, String> {
    match j {
        Json::Null => Ok(None),
        Json::Num(n) => Ok(Some(*n as Reg)),
        _ => Err("bad optional register".into()),
    }
}

fn regs_json(rs: &[Reg]) -> String {
    num_arr(rs)
}

fn regs_from(j: &Json) -> Result<Vec<Reg>, String> {
    j.arr()
        .ok_or("bad register list")?
        .iter()
        .map(|v| {
            v.num()
                .map(|n| n as Reg)
                .ok_or_else(|| "bad register".to_string())
        })
        .collect()
}

/// Serialize one instruction as a tagged JSON array. Decimal strings
/// carry `i64` immediates; float immediates travel as their IEEE bit
/// pattern in hex (exact for every value, NaN and `-0.0` included).
pub fn instr_to_json(i: &Instr) -> String {
    match i {
        Instr::MovI { dst, imm } => format!("[\"movi\",{dst},\"{imm}\"]"),
        Instr::MovF { dst, imm } => format!("[\"movf\",{dst},{}]", hex(imm.to_bits())),
        Instr::Mov { dst, src } => format!("[\"mov\",{dst},{src}]"),
        Instr::FMov { dst, src } => format!("[\"fmov\",{dst},{src}]"),
        Instr::IAlu { op, dst, a, b } => {
            format!(
                "[\"ialu\",\"{}\",{dst},{a},{}]",
                ialu_name(*op),
                operand_json(*b)
            )
        }
        Instr::FAlu { op, dst, a, b } => {
            format!("[\"falu\",\"{}\",{dst},{a},{b}]", falu_name(*op))
        }
        Instr::ICmp { cc, dst, a, b } => {
            format!(
                "[\"icmp\",\"{}\",{dst},{a},{}]",
                cc_name(*cc),
                operand_json(*b)
            )
        }
        Instr::FCmp { cc, dst, a, b } => {
            format!("[\"fcmp\",\"{}\",{dst},{a},{b}]", cc_name(*cc))
        }
        Instr::Un { op, dst, src } => format!("[\"un\",\"{}\",{dst},{src}]", un_name(*op)),
        Instr::Load { ty, dst, base, idx } => {
            format!(
                "[\"load\",\"{}\",{dst},{base},{}]",
                ty_name(*ty),
                operand_json(*idx)
            )
        }
        Instr::Store { ty, base, idx, src } => {
            format!(
                "[\"store\",\"{}\",{base},{},{src}]",
                ty_name(*ty),
                operand_json(*idx)
            )
        }
        Instr::Jmp { target } => format!("[\"jmp\",{target}]"),
        Instr::Brz { cond, target } => format!("[\"brz\",{cond},{target}]"),
        Instr::Brnz { cond, target } => format!("[\"brnz\",{cond},{target}]"),
        Instr::CallHost { f, dst, args } => format!(
            "[\"hcall\",\"{}\",{},{}]",
            f.name(),
            opt_reg_json(*dst),
            regs_json(args)
        ),
        Instr::Call { func, dst, args } => format!(
            "[\"call\",{},{},{}]",
            func.0,
            opt_reg_json(*dst),
            regs_json(args)
        ),
        Instr::Ret { src } => format!("[\"ret\",{}]", opt_reg_json(*src)),
        Instr::Dispatch { point, dst, args } => format!(
            "[\"dysp\",{point},{},{}]",
            opt_reg_json(*dst),
            regs_json(args)
        ),
        Instr::Halt => "[\"halt\"]".to_string(),
    }
}

/// Decode one instruction from its tagged-array form.
///
/// # Errors
///
/// Describes the first malformed element.
pub fn instr_from_json(j: &Json) -> Result<Instr, String> {
    let a = j.arr().ok_or("instruction is not an array")?;
    let tag = a
        .first()
        .and_then(Json::str)
        .ok_or("instruction missing tag")?;
    let need = |n: usize| -> Result<(), String> {
        if a.len() != n {
            Err(format!("'{tag}' expects {n} elements, got {}", a.len()))
        } else {
            Ok(())
        }
    };
    let reg = |i: usize| -> Result<Reg, String> {
        a[i].num()
            .map(|n| n as Reg)
            .ok_or_else(|| format!("'{tag}': bad register at {i}"))
    };
    let name = |i: usize| -> Result<&str, String> {
        a[i].str()
            .ok_or_else(|| format!("'{tag}': bad name at {i}"))
    };
    Ok(match tag {
        "movi" => {
            need(3)?;
            Instr::MovI {
                dst: reg(1)?,
                imm: parse_i64_str(&a[2])?,
            }
        }
        "movf" => {
            need(3)?;
            Instr::MovF {
                dst: reg(1)?,
                imm: f64::from_bits(parse_hex(&a[2])?),
            }
        }
        "mov" => {
            need(3)?;
            Instr::Mov {
                dst: reg(1)?,
                src: reg(2)?,
            }
        }
        "fmov" => {
            need(3)?;
            Instr::FMov {
                dst: reg(1)?,
                src: reg(2)?,
            }
        }
        "ialu" => {
            need(5)?;
            Instr::IAlu {
                op: ialu_by_name(name(1)?)?,
                dst: reg(2)?,
                a: reg(3)?,
                b: operand_from(&a[4])?,
            }
        }
        "falu" => {
            need(5)?;
            Instr::FAlu {
                op: falu_by_name(name(1)?)?,
                dst: reg(2)?,
                a: reg(3)?,
                b: reg(4)?,
            }
        }
        "icmp" => {
            need(5)?;
            Instr::ICmp {
                cc: cc_by_name(name(1)?)?,
                dst: reg(2)?,
                a: reg(3)?,
                b: operand_from(&a[4])?,
            }
        }
        "fcmp" => {
            need(5)?;
            Instr::FCmp {
                cc: cc_by_name(name(1)?)?,
                dst: reg(2)?,
                a: reg(3)?,
                b: reg(4)?,
            }
        }
        "un" => {
            need(4)?;
            Instr::Un {
                op: un_by_name(name(1)?)?,
                dst: reg(2)?,
                src: reg(3)?,
            }
        }
        "load" => {
            need(5)?;
            Instr::Load {
                ty: ty_by_name(name(1)?)?,
                dst: reg(2)?,
                base: reg(3)?,
                idx: operand_from(&a[4])?,
            }
        }
        "store" => {
            need(5)?;
            Instr::Store {
                ty: ty_by_name(name(1)?)?,
                base: reg(2)?,
                idx: operand_from(&a[3])?,
                src: reg(4)?,
            }
        }
        "jmp" => {
            need(2)?;
            Instr::Jmp { target: reg(1)? }
        }
        "brz" => {
            need(3)?;
            Instr::Brz {
                cond: reg(1)?,
                target: reg(2)?,
            }
        }
        "brnz" => {
            need(3)?;
            Instr::Brnz {
                cond: reg(1)?,
                target: reg(2)?,
            }
        }
        "hcall" => {
            need(4)?;
            Instr::CallHost {
                f: HostFn::by_name(name(1)?)
                    .ok_or_else(|| format!("unknown host function '{}'", name(1).unwrap()))?,
                dst: opt_reg_from(&a[2])?,
                args: regs_from(&a[3])?,
            }
        }
        "call" => {
            need(4)?;
            Instr::Call {
                func: dyc_vm::FuncId(reg(1)?),
                dst: opt_reg_from(&a[2])?,
                args: regs_from(&a[3])?,
            }
        }
        "ret" => {
            need(2)?;
            Instr::Ret {
                src: opt_reg_from(&a[1])?,
            }
        }
        "dysp" => {
            need(4)?;
            Instr::Dispatch {
                point: reg(1)?,
                dst: opt_reg_from(&a[2])?,
                args: regs_from(&a[3])?,
            }
        }
        "halt" => {
            need(1)?;
            Instr::Halt
        }
        other => return Err(format!("unknown instruction tag '{other}'")),
    })
}

/// Serialize a runtime's dynamic-code cache: `sites` is its whole site
/// table (entry sites first), `entries` every cached `(site, key, code)`
/// binding. Shared by both runtimes' `snapshot_bundle`.
pub(crate) fn snapshot<F: Deref<Target = CodeFunc>>(
    staged: &StagedProgram,
    sites: &[&Site],
    entries: impl IntoIterator<Item = (u32, Vec<u64>, F)>,
) -> CacheBundle {
    let cfg = config_hash(&staged.cfg);
    let prog = program_hash(staged);
    let n_entry = staged.entry_sites.len();
    let entries = entries
        .into_iter()
        .map(|(site, key, f)| {
            let schema = sites[site as usize].key_vars.iter().map(|v| v.0).collect();
            artifact_for_func(cfg, prog, site, key, schema, &f)
        })
        .collect();
    CacheBundle {
        version: ARTIFACT_VERSION,
        config_hash: cfg,
        program_hash: prog,
        n_entry_sites: n_entry as u32,
        sites: sites[n_entry..]
            .iter()
            .map(|s| SiteSpec::from_site(s))
            .collect(),
        entries,
    }
}

/// The store-specific half of a warm start.
pub(crate) trait WarmHost {
    /// Register a restored internal promotion site. Restored sites are
    /// not *new* promotions and are not metered as such.
    fn add_site(&mut self, site: Site);
    /// Bind one verified entry; `None` refuses it (a bounded site already
    /// at capacity).
    fn install(&mut self, art: &CodeArtifact) -> Option<FuncId>;
}

/// Warm-start a runtime from `bundle` — the verification described on
/// [`Runtime::restore_bundle`](crate::Runtime::restore_bundle), shared by
/// both runtimes; only [`WarmHost`] is store-specific. Every load and
/// reject is noted; loaded keys are already proven, so the adaptive
/// policy is seeded with them (they never defer, and re-specialize at
/// once if ever evicted). Returns the `(site, function)` of every
/// installed entry.
pub(crate) fn restore(
    staged: &StagedProgram,
    bundle: &CacheBundle,
    fresh: bool,
    policy: Option<&PolicyEngine>,
    host: &mut dyn WarmHost,
    sinks: &mut Sinks<'_>,
) -> Vec<(u32, FuncId)> {
    let cfg = config_hash(&staged.cfg);
    let prog = program_hash(staged);
    let header_ok = bundle.version == ARTIFACT_VERSION
        && bundle.config_hash == cfg
        && bundle.program_hash == prog
        && bundle.n_entry_sites as usize == staged.entry_sites.len()
        && fresh;
    // Internal sites must all be reconstructible before any is
    // registered — a partial site table would shift every later id.
    let internal: Option<Vec<Site>> = if header_ok {
        bundle
            .sites
            .iter()
            .map(|s| s.to_site(staged).ok())
            .collect()
    } else {
        None
    };
    let Some(internal) = internal else {
        for art in &bundle.entries {
            sinks.note(EventKind::CacheWarmReject, art.site, &art.key, 0, 0, 0);
        }
        return Vec::new();
    };
    let schemas: Vec<Vec<u32>> = staged
        .entry_sites
        .iter()
        .map(|e| e.key_vars.iter().map(|(v, _)| v.0).collect())
        .chain(
            internal
                .iter()
                .map(|s| s.key_vars.iter().map(|v| v.0).collect()),
        )
        .collect();
    for site in internal {
        host.add_site(site);
    }
    let mut installed = Vec::new();
    for art in &bundle.entries {
        let ok = schemas.get(art.site as usize) == Some(&art.key_schema)
            && art.verify(cfg, prog).is_ok();
        match ok.then(|| host.install(art)).flatten() {
            Some(f) => {
                if let Some(eng) = policy {
                    let mut pkey = Vec::with_capacity(art.key.len() + 1);
                    pkey.push(u64::from(art.site));
                    pkey.extend_from_slice(&art.key);
                    eng.seed_promoted(pkey);
                }
                let len = art.code.len() as u64;
                sinks.note(EventKind::CacheWarmLoad, art.site, &art.key, 0, len, 0);
                installed.push((art.site, f));
            }
            None => sinks.note(EventKind::CacheWarmReject, art.site, &art.key, 0, 0, 0),
        }
    }
    installed
}

/// The artifact of an installed [`CodeFunc`] bound to `(site, key)`,
/// stamped with the current [`ARTIFACT_VERSION`] and the given
/// fingerprints — the snapshot path of both runtimes.
pub fn artifact_for_func(
    config_hash: u64,
    program_hash: u64,
    site: u32,
    key: Vec<u64>,
    key_schema: Vec<u32>,
    f: &CodeFunc,
) -> CodeArtifact {
    CodeArtifact {
        version: ARTIFACT_VERSION,
        config_hash,
        program_hash,
        site,
        key,
        key_schema,
        name: f.name.clone(),
        n_params: f.n_params,
        n_regs: f.n_regs,
        code: f.code.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyc_vm::{FuncId, Value};

    fn every_instr() -> Vec<Instr> {
        vec![
            Instr::MovI {
                dst: 0,
                imm: i64::MIN,
            },
            Instr::MovI {
                dst: 1,
                imm: i64::MAX,
            },
            Instr::MovF { dst: 2, imm: -0.0 },
            Instr::MovF {
                dst: 3,
                imm: f64::NAN,
            },
            Instr::MovF {
                dst: 4,
                imm: 2.5e300,
            },
            Instr::Mov { dst: 5, src: 6 },
            Instr::FMov { dst: 7, src: 8 },
            Instr::IAlu {
                op: IAluOp::Shr,
                dst: 9,
                a: 10,
                b: Operand::Imm(-63),
            },
            Instr::IAlu {
                op: IAluOp::Add,
                dst: 9,
                a: 10,
                b: Operand::Reg(11),
            },
            Instr::FAlu {
                op: FAluOp::Div,
                dst: 12,
                a: 13,
                b: 14,
            },
            Instr::ICmp {
                cc: Cc::Le,
                dst: 15,
                a: 16,
                b: Operand::Imm(7),
            },
            Instr::FCmp {
                cc: Cc::Ne,
                dst: 17,
                a: 18,
                b: 19,
            },
            Instr::Un {
                op: UnOp::FToI,
                dst: 20,
                src: 21,
            },
            Instr::Load {
                ty: Ty::Float,
                dst: 22,
                base: 23,
                idx: Operand::Imm(-4),
            },
            Instr::Store {
                ty: Ty::Int,
                base: 24,
                idx: Operand::Reg(25),
                src: 26,
            },
            Instr::Jmp { target: 3 },
            Instr::Brz {
                cond: 27,
                target: 0,
            },
            Instr::Brnz {
                cond: 28,
                target: 9,
            },
            Instr::CallHost {
                f: HostFn::Cos,
                dst: Some(29),
                args: vec![30],
            },
            Instr::CallHost {
                f: HostFn::PrintI,
                dst: None,
                args: vec![31, 32],
            },
            Instr::Call {
                func: FuncId(2),
                dst: None,
                args: vec![],
            },
            Instr::Ret { src: Some(33) },
            Instr::Ret { src: None },
            Instr::Dispatch {
                point: 4,
                dst: Some(34),
                args: vec![35, 36],
            },
            Instr::Halt,
        ]
    }

    #[test]
    fn instruction_codec_round_trips_every_variant() {
        for ins in every_instr() {
            let j = Json::parse(&instr_to_json(&ins)).expect("codec emits valid JSON");
            let back = instr_from_json(&j).expect("codec parses its own output");
            // NaN != NaN under PartialEq; compare bit patterns instead.
            match (&ins, &back) {
                (Instr::MovF { dst: d1, imm: i1 }, Instr::MovF { dst: d2, imm: i2 }) => {
                    assert_eq!(d1, d2);
                    assert_eq!(i1.to_bits(), i2.to_bits());
                }
                _ => assert_eq!(ins, back),
            }
        }
    }

    #[test]
    fn instr_codec_rejects_malformed_input() {
        for bad in [
            "[\"movi\",0]",             // arity
            "[\"warp\",1,2]",           // unknown tag
            "[\"ialu\",\"pow\",0,1,2]", // unknown op
            "[\"hcall\",\"nope\",null,[]]",
            "[\"movi\",0,\"abc\"]", // bad immediate
            "7",                    // not an array
            "[]",                   // no tag
        ] {
            let j = Json::parse(bad).unwrap();
            assert!(instr_from_json(&j).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn artifact_json_round_trips() {
        let art = CodeArtifact {
            version: ARTIFACT_VERSION,
            config_hash: 0xdead_beef_0000_0001,
            program_hash: 0x1234_5678_9abc_def0,
            site: 3,
            key: vec![Value::I(-2).key_bits(), Value::F(0.5).key_bits()],
            key_schema: vec![4, 9],
            name: "region$spec7".into(),
            n_params: 2,
            n_regs: 37,
            code: every_instr(),
        };
        let j = Json::parse(&art.to_json()).expect("valid JSON");
        let Json::Obj(fields) = &j else {
            panic!("an artifact is a JSON object")
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "version",
                "config",
                "program",
                "site",
                "key",
                "key_schema",
                "name",
                "n_params",
                "n_regs",
                "code"
            ],
            "version 2 carries code only"
        );
        let back = CodeArtifact::from_json(&j).expect("parses");
        // NaN in the code: compare via re-serialization.
        assert_eq!(back.to_json(), art.to_json());
        assert_eq!(back.key, art.key);
        assert_eq!(back.name, art.name);
        let f = back.to_func();
        assert_eq!(f.name, "region$spec7");
        assert_eq!(f.code.len(), art.code.len());
        assert_eq!((f.n_params, f.n_regs), (2, 37));
    }

    #[test]
    fn verify_rejects_each_fingerprint_component() {
        let mut art = artifact_for_func(1, 2, 0, vec![], vec![], &CodeFunc::new("f", 0, 1));
        assert!(art.verify(1, 2).is_ok());
        assert!(art.verify(9, 2).unwrap_err().contains("config"));
        assert!(art.verify(1, 9).unwrap_err().contains("program"));
        art.version += 1;
        assert!(art.verify(1, 2).unwrap_err().contains("version"));
    }

    /// A staged program whose `f` promotes `j` mid-region, carrying a
    /// static int and a static float across the promotion, and the
    /// internal site one call creates.
    fn promoted_site() -> (StagedProgram, Site) {
        use crate::Runtime;
        use dyc_vm::{CostModel, Value, Vm};
        let src = "int f(int k, int x) { make_static(k);
            float s = (float) k * 0.5; int j = x * 2 + k;
            make_static(j); return j * k + (int) s + x; }";
        let mut ir = dyc_ir::lower_program(&dyc_lang::parse_program(src).unwrap()).unwrap();
        dyc_ir::opt::optimize_program(&mut ir);
        let staged = dyc_stage::stage_program(ir, OptConfig::all());
        let mut module = staged.build_module();
        let mut rt = Runtime::new(staged.clone());
        let mut vm = Vm::new(CostModel::alpha21164());
        let id = module.func_by_name("f").unwrap();
        let out = vm.call_with_handler(&mut module, &mut rt, id, &[Value::I(3), Value::I(4)]);
        assert_eq!(out, Ok(Some(Value::I(11 * 3 + 1 + 4))));
        assert_eq!(rt.n_sites(), rt.n_entry_sites() + 1, "one internal site");
        let site = rt.site(rt.n_entry_sites() as u32).clone();
        (staged, site)
    }

    #[test]
    fn site_spec_round_trips_through_json() {
        let (staged, site) = promoted_site();
        assert!(site.division.is_some());
        let floats = site.base_store.iter().filter(|(_, v)| !v.is_int()).count();
        assert_eq!(
            (site.base_store.len(), floats),
            (2, 1),
            "{:?}",
            site.base_store
        );
        // The policy is not checked against the program: every one
        // round-trips, the bounded capacity included.
        let policies = [
            SitePolicy::CacheAll,
            SitePolicy::CacheAllBounded(6),
            SitePolicy::CacheOneUnchecked,
            SitePolicy::CacheIndexed,
        ];
        for policy in policies {
            let site = Site {
                policy,
                ..site.clone()
            };
            let spec = SiteSpec::from_site(&site);
            let j = Json::parse(&spec.to_json()).unwrap();
            let back = SiteSpec::from_json(&j).unwrap();
            assert_eq!(back, spec);
            let site2 = back.to_site(&staged).unwrap();
            assert_eq!(site2.policy, policy);
            assert_eq!(site2.base_store, site.base_store);
            assert_eq!(site2.key_vars, site.key_vars);
            assert_eq!(site2.arg_vars, site.arg_vars);
            assert_eq!(site2.division, site.division);
        }
        // Unknown policies are rejected, not panicked on.
        let mut bad = SiteSpec::from_site(&site);
        bad.policy = "lru".into();
        assert!(bad.to_site(&staged).is_err());
    }

    #[test]
    fn to_site_rejects_what_the_program_cannot_have_produced() {
        let (staged, site) = promoted_site();
        let spec = SiteSpec::from_site(&site);
        let n_vregs = staged.ir.funcs[site.func].n_vregs() as u32;
        let other_division = {
            let gef = staged.ge.funcs[site.func].as_deref().unwrap();
            (0..gef.divisions.len() as u32)
                .find(|d| Some(*d) != site.division)
                .unwrap()
        };
        type Corrupt = fn(&mut SiteSpec, u32, u32);
        let corruptions: [(&str, Corrupt); 15] = [
            ("func", |s, _, _| s.func = 77),
            ("block", |s, _, _| s.block = 9999),
            ("inst_idx", |s, _, _| s.inst_idx = 9999),
            ("division", |s, _, _| s.division = Some(9999)),
            ("another division", |s, _, d| s.division = Some(d)),
            ("key var not an argument", |s, n, _| s.key_vars.push(n - 1)),
            ("key var out of range", |s, n, _| {
                s.key_vars.push(n);
                s.arg_vars.push(n);
            }),
            ("argument out of range", |s, n, _| s.arg_vars.push(n + 5)),
            ("arguments permuted", |s, _, _| s.arg_vars.reverse()),
            ("static vreg in place of a dynamic argument", |s, _, _| {
                let (key, v) = (s.key_vars[0], s.base_store[0].0);
                *s.arg_vars.iter_mut().find(|a| **a != key).unwrap() = v;
            }),
            ("base store out of range", |s, n, _| {
                s.base_store.push((n, false, 0))
            }),
            ("base store duplicate", |s, _, _| {
                let e = s.base_store[0];
                s.base_store.insert(0, e);
            }),
            ("base store out of order", |s, _, _| s.base_store.reverse()),
            ("base store float flag", |s, _, _| {
                for e in &mut s.base_store {
                    e.1 = !e.1;
                }
            }),
            ("base store missing", |s, _, _| {
                s.base_store.pop();
            }),
        ];
        for (what, corrupt) in corruptions {
            let mut bad = spec.clone();
            corrupt(&mut bad, n_vregs, other_division);
            assert_ne!(bad, spec, "{what}: no corruption");
            assert!(bad.to_site(&staged).is_err(), "{what}: accepted");
        }
        // An online site (no division) only needs the fields in range.
        let online = SiteSpec {
            division: None,
            ..spec
        };
        assert!(online.to_site(&staged).is_ok());
    }

    #[test]
    fn bundle_round_trips_and_rejects_garbage() {
        let art = artifact_for_func(1, 2, 0, vec![5], vec![1], &CodeFunc::new("f$spec0", 1, 2));
        let bundle = CacheBundle {
            version: ARTIFACT_VERSION,
            config_hash: 1,
            program_hash: 2,
            n_entry_sites: 1,
            sites: Vec::new(),
            entries: vec![art],
        };
        let text = bundle.to_json();
        let back = CacheBundle::parse(&text).unwrap();
        assert_eq!(back, bundle);
        assert!(CacheBundle::parse("{not json").is_err());
        assert!(CacheBundle::parse("{}").is_err());
    }

    #[test]
    fn config_hash_excludes_trace_and_discriminates_flags() {
        let base = OptConfig::all();
        let mut traced = base;
        traced.trace = true;
        assert_eq!(
            config_hash(&base),
            config_hash(&traced),
            "trace is observational and must not invalidate bundles"
        );
        for name in OptConfig::feature_names() {
            let c = base.without(name).unwrap();
            assert_ne!(config_hash(&base), config_hash(&c), "{name} not hashed");
        }
        assert_ne!(
            config_hash(&base),
            config_hash(&base.without("staged_ge").unwrap())
        );
        assert_ne!(
            config_hash(&base),
            config_hash(&base.without("template_fusion").unwrap())
        );
    }
}
