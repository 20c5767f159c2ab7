//! # dyc-rt — the run-time half of DyC-RS
//!
//! The static compiler (`dyc-stage`) replaces every dynamic-region entry
//! with a dispatch into this crate and precompiles each region into a
//! generating-extension (GE) program. At run time:
//!
//! 1. The [`dispatch`] core, [`Dispatcher`] (a [`dyc_vm::DispatchHandler`]),
//!    receives the dispatch with the live values, extracts the promoted
//!    key, and consults the site's **dynamic-code cache** — the paper's
//!    double-hashing `cache-all` table or the single-slot
//!    `cache-one-unchecked` policy (§2.2.3).
//! 2. On a miss, the [`ge_exec`] executor interprets the region's flat GE
//!    program: it executes the precompiled static computations and emits
//!    specialized VM code — complete loop unrolling, static loads &
//!    calls, dynamic zero/copy propagation, dead-assignment elimination,
//!    strength reduction, and internal dynamic-to-static promotions —
//!    with **zero** run-time binding-time or liveness analysis (the
//!    [`RtStats::runtime_bta_calls`] counter proves it). The legacy
//!    online [`specializer`] is kept as the reference path
//!    (`OptConfig::staged_ge = false`); both drive the shared `emitter`
//!    and emit byte-identical code. Neither builds a static store: the
//!    emitter keeps one dense frame per specialization, loaded from each
//!    unit's interned key when the unit starts, and seals every unit into
//!    one reused instruction buffer, so a miss allocates only what it
//!    publishes.
//! 3. The new code is installed in the running [`dyc_vm::Module`], the
//!    I-cache is flushed, and every cycle of the work is charged to the
//!    dynamic-compilation counters that feed Table 3. With
//!    `OptConfig::native`, the installed function is lowered to x86-64
//!    by [`lower_func`], the one lowering path of every install.
//!
//! The core is written once, generic over a code store, and instantiated
//! twice. [`Runtime`] runs it over a [`LocalStore`]: one module and the
//! per-policy tables whose probe counts feed the cycle model.
//! [`ThreadRuntime`] runs it over a [`SharedStore`], one thread's view of
//! an `Arc`-shared [`concurrent::SharedRuntime`] (sharded code cache,
//! single-flight specialization, bounded eviction), so the same pipeline
//! is callable from many threads. Every meter point of both goes through
//! one call, whose table (in [`stats`]) decides what it counts and
//! records.

#![deny(missing_docs)]

pub mod artifact;
pub mod cache;
pub mod concurrent;
pub mod costs;
pub mod dispatch;
pub(crate) mod emitter;
pub(crate) mod fnv;
pub mod ge_exec;
pub mod native;
pub mod policy;
pub mod runtime;
pub mod specializer;
pub mod stats;

pub use artifact::{CacheBundle, CodeArtifact, ARTIFACT_VERSION};
pub use cache::{CacheEntry, DoubleHashCache, Probed};
pub use concurrent::{
    ConcSnapshot, MissPolicy, ShardMeter, SharedOptions, SharedRuntime, SharedStore, ThreadRuntime,
};
pub use costs::DynCosts;
pub use dispatch::Dispatcher;
pub use fnv::fnv1a;
pub use ge_exec::GeExecutor;
pub use native::{lower_func, NativeArtifact, NativeDispatch, NativeEngine};
pub use policy::{PolicyDecision, PolicyEngine, PolicyParams};
pub use runtime::{LocalStore, Runtime, Site};
pub use stats::RtStats;
