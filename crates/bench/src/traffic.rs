//! Traffic-scale serving: deterministic key streams and the replay
//! driver behind `dyc_serve`.
//!
//! The paper evaluates staged specialization on batch kernels; this
//! module evaluates it the way a server meets it — a sustained stream
//! of dispatch keys drawn from a skewed distribution, replayed against
//! one shared [`SharedRuntime`] from many threads. Four stream shapes
//! cover the serving failure modes the concurrent runtime must survive:
//!
//! * [`Pattern::Zipfian`] — steady-state skew: key ranks drawn from a
//!   zipf(s) distribution over a fixed keyspace. A few keys dominate;
//!   the cache should converge to ~100% hits and the hot shard carries
//!   the load.
//! * [`Pattern::Churn`] — rolling working set: a uniform window that
//!   slides one key every `churn_interval` dispatches, so old keys stop
//!   recurring and fresh keys keep arriving. Exercises bounded eviction
//!   (the clock must shed dead keys) and steady miss traffic.
//! * [`Pattern::FlashCrowd`] — a quiet uniform baseline interrupted by
//!   periodic bursts in which most traffic slams one *brand-new* hot
//!   key (a new item going viral). Exercises the cold-start spike on a
//!   single key while background traffic continues.
//! * [`Pattern::Stampede`] — the adversarial case: every thread walks
//!   the *same* fresh-key sequence in lockstep, each key dispatched
//!   `stampede_repeat` times per thread. Nearly every miss is a
//!   single-flight collision; throughput is governed by the flight
//!   protocol, not the cache.
//!
//! Streams are deterministic: `(StreamConfig, seed, thread)` fully
//! determines a thread's key sequence (SplitMix64 underneath), so every
//! run in EXPERIMENTS.md can be replayed bit-for-bit. The replayed
//! region itself is [`serve_source`] — a `make_static(key)` loop whose
//! trip count and constants depend on the key — and every dispatch
//! result is checked against the closed form [`expected`], so a replay
//! is also a 10⁶-dispatch correctness oracle.

use dyc::{Compiler, SharedOptions, Value};
use dyc_obs::{LatencyHistogram, LiveHandles};
use dyc_rt::{ConcSnapshot, SharedRuntime};
use dyc_vm::{CostModel, Vm};
use dyc_workloads::rng::SplitMix64;
use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// The four serving key-stream shapes. See the [module docs](self) for
/// what each one stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Steady-state skew: zipf(s)-ranked keys over a fixed keyspace.
    Zipfian,
    /// Rolling working set: a uniform window sliding one key every
    /// `churn_interval` dispatches.
    Churn,
    /// Uniform baseline with periodic single-key hot bursts.
    FlashCrowd,
    /// All threads dispatch the same fresh-key sequence in lockstep.
    Stampede,
}

/// All four patterns, in reporting order.
pub const ALL_PATTERNS: [Pattern; 4] = [
    Pattern::Zipfian,
    Pattern::Churn,
    Pattern::FlashCrowd,
    Pattern::Stampede,
];

impl Pattern {
    /// Stable lowercase name (CLI flag value and JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Pattern::Zipfian => "zipfian",
            Pattern::Churn => "churn",
            Pattern::FlashCrowd => "flash_crowd",
            Pattern::Stampede => "stampede",
        }
    }

    /// Parse a CLI name (`zipfian`/`zipf`, `churn`, `flash_crowd`/
    /// `flash`, `stampede`).
    pub fn parse(s: &str) -> Option<Pattern> {
        match s {
            "zipfian" | "zipf" => Some(Pattern::Zipfian),
            "churn" => Some(Pattern::Churn),
            "flash_crowd" | "flash" => Some(Pattern::FlashCrowd),
            "stampede" => Some(Pattern::Stampede),
            _ => None,
        }
    }
}

/// Distribution parameters for one key stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamConfig {
    /// Which shape to generate.
    pub pattern: Pattern,
    /// Keyspace size for [`Pattern::Zipfian`] ranks and the
    /// [`Pattern::FlashCrowd`] baseline.
    pub keys: u64,
    /// Zipf exponent `s`: rank `r` (1-based) has probability
    /// `r^-s / H(keys, s)`. The default 1.1 is the classic web-cache
    /// skew (hottest key ≈ 14% of traffic over 4096 keys).
    pub zipf_s: f64,
    /// [`Pattern::Churn`] window width (live keys at any moment).
    pub churn_window: u64,
    /// [`Pattern::Churn`]: the window slides one key every this many
    /// dispatches, so each thread retires one key and mints one fresh
    /// key per interval.
    pub churn_interval: u64,
    /// [`Pattern::FlashCrowd`] burst cycle length in dispatches.
    pub flash_period: u64,
    /// [`Pattern::FlashCrowd`]: the first `flash_burst` dispatches of
    /// each period are the burst.
    pub flash_burst: u64,
    /// [`Pattern::FlashCrowd`]: probability a burst dispatch hits the
    /// burst's (fresh) hot key instead of the baseline.
    pub flash_hot_share: f64,
    /// [`Pattern::Stampede`]: consecutive dispatches per key per thread
    /// before the whole fleet moves to the next fresh key.
    pub stampede_repeat: u64,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            pattern: Pattern::Zipfian,
            keys: 4096,
            zipf_s: 1.1,
            churn_window: 512,
            churn_interval: 64,
            flash_period: 8192,
            flash_burst: 2048,
            flash_hot_share: 0.9,
            stampede_repeat: 4,
        }
    }
}

impl StreamConfig {
    /// A default-parameter config for `pattern`.
    pub fn of(pattern: Pattern) -> StreamConfig {
        StreamConfig {
            pattern,
            ..StreamConfig::default()
        }
    }
}

/// A stream factory: owns the (shared, read-only) zipf CDF table so the
/// per-thread streams don't rebuild it.
#[derive(Debug, Clone)]
pub struct TrafficGen {
    cfg: StreamConfig,
    /// Cumulative zipf distribution over ranks `0..keys`, built once.
    cdf: Option<Arc<[f64]>>,
}

impl TrafficGen {
    /// Build the factory (computes the zipf CDF when the pattern needs
    /// it — O(keys), once).
    pub fn new(cfg: StreamConfig) -> TrafficGen {
        let cdf = (cfg.pattern == Pattern::Zipfian).then(|| {
            let n = cfg.keys.max(1) as usize;
            let mut acc = 0.0;
            let mut cdf = Vec::with_capacity(n);
            for r in 1..=n {
                acc += (r as f64).powf(-cfg.zipf_s);
                cdf.push(acc);
            }
            let total = acc;
            for c in &mut cdf {
                *c /= total;
            }
            Arc::from(cdf.into_boxed_slice())
        });
        TrafficGen { cfg, cdf }
    }

    /// The config this factory generates from.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// The deterministic key stream for one `(seed, thread)` pair.
    pub fn stream(&self, seed: u64, thread: u32) -> KeyStream {
        // Per-thread decorrelation: golden-ratio stride on the thread
        // index, xor'd into the seed. Position-driven patterns (churn
        // windows, stampede, flash bursts) stay in lockstep across
        // threads by construction; only the uniform draws differ.
        let tseed = seed ^ (u64::from(thread) + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        KeyStream {
            cfg: self.cfg,
            cdf: self.cdf.clone(),
            rng: SplitMix64::seed_from_u64(tseed),
            pos: 0,
        }
    }
}

/// One thread's infinite key sequence. [`KeyStream::next_key`] is the
/// whole API; the stream never ends.
#[derive(Debug, Clone)]
pub struct KeyStream {
    cfg: StreamConfig,
    cdf: Option<Arc<[f64]>>,
    rng: SplitMix64,
    pos: u64,
}

impl KeyStream {
    /// The next key. Keys are non-negative and small enough that
    /// [`expected`] never overflows (`< 2^40` for any realistic run).
    pub fn next_key(&mut self) -> u64 {
        let pos = self.pos;
        self.pos += 1;
        match self.cfg.pattern {
            Pattern::Zipfian => {
                let cdf = self.cdf.as_ref().expect("zipf stream has a CDF");
                let u = self.rng.gen_f64();
                // First rank whose cumulative mass covers u.
                cdf.partition_point(|&c| c < u) as u64
            }
            Pattern::Churn => {
                let base = pos / self.cfg.churn_interval.max(1);
                base + self.rng.next_u64() % self.cfg.churn_window.max(1)
            }
            Pattern::FlashCrowd => {
                let period = self.cfg.flash_period.max(1);
                let in_burst = pos % period < self.cfg.flash_burst;
                if in_burst && self.rng.gen_f64() < self.cfg.flash_hot_share {
                    // The burst's hot key: brand new each period, outside
                    // the baseline keyspace.
                    self.cfg.keys + pos / period
                } else {
                    self.rng.next_u64() % self.cfg.keys.max(1)
                }
            }
            Pattern::Stampede => pos / self.cfg.stampede_repeat.max(1),
        }
    }
}

/// DyCL source for the served region: a `make_static(key)`-specialized
/// loop whose trip count (`key % 8 + 1`) and constants are baked per
/// key, with one dynamic argument `x` flowing through. `bound`
/// generates `cache_all(k)` instead of the unbounded default, for the
/// eviction hit-rate curves.
pub fn serve_source(bound: Option<u32>) -> String {
    let policy = match bound {
        Some(k) => format!(": cache_all({k})"),
        None => String::new(),
    };
    format!(
        "int serve(int key, int x) {{ make_static(key{policy});
            int acc = x; int i = key % 8 + 1;
            while (i > 0) {{ acc = acc * 3 + key + i; i = i - 1; }}
            return acc; }}"
    )
}

/// Closed form of [`serve_source`]'s result — the per-dispatch oracle.
pub fn expected(key: i64, x: i64) -> i64 {
    let mut acc = x;
    let mut i = key % 8 + 1;
    while i > 0 {
        acc = acc * 3 + key + i;
        i -= 1;
    }
    acc
}

/// One replay run: a stream config, a scale, and the runtime options to
/// replay under.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The key-stream distribution.
    pub stream: StreamConfig,
    /// Total dispatches across all threads.
    pub dispatches: u64,
    /// Serving threads (each gets its own [`dyc_rt::ThreadRuntime`],
    /// module replica, and VM).
    pub threads: usize,
    /// Stream seed — same seed, same config → same per-thread key
    /// sequences, bit-for-bit.
    pub seed: u64,
    /// Runtime construction options. `latency` is forced on (the report
    /// needs the miss histogram).
    pub opts: SharedOptions,
    /// `cache_all(k)` bound compiled into the source (`None` =
    /// unbounded).
    pub bound: Option<u32>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            stream: StreamConfig::default(),
            dispatches: 1_000_000,
            threads: 16,
            seed: 42,
            opts: SharedOptions::default(),
            bound: None,
        }
    }
}

/// Everything one replay measured. All latency figures are wall
/// nanoseconds from the runtime's per-thread miss histograms (whole-run,
/// not a trailing event window).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Stream name ([`Pattern::name`]).
    pub pattern: &'static str,
    /// Dispatches actually replayed.
    pub dispatches: u64,
    /// Serving threads.
    pub threads: usize,
    /// Stream seed.
    pub seed: u64,
    /// Longest per-thread wall time (threads start together on a
    /// barrier, so this is the serving makespan).
    pub wall_ns: u64,
    /// Dispatches per second over `wall_ns`.
    pub throughput: f64,
    /// Cache-hit dispatches.
    pub hits: u64,
    /// Dispatch misses (specialize, wait, fallback, race, or policy
    /// deferral).
    pub misses: u64,
    /// `hits / dispatches`.
    pub hit_rate: f64,
    /// Merged miss-path latency histogram across threads.
    pub miss_hist: LatencyHistogram,
    /// Mean hash probes per cache lookup (shard meters).
    pub probes_per_lookup: f64,
    /// Hottest shard's share of lookups relative to a perfectly even
    /// spread (1.0 = balanced, N = everything on one of N shards).
    pub shard_imbalance: f64,
    /// Resolved code-cache shard count.
    pub cache_shards: usize,
    /// Resolved flight-map shard count.
    pub flight_shards: usize,
    /// The shared runtime's global meters at the end of the run.
    pub snapshot: ConcSnapshot,
    /// Order-independent digest of the final code cache: an FNV-1a hash
    /// per `(site, key, code)` binding — where `code` is the canonical
    /// instruction stream plus frame shape, not install addresses or
    /// generated names — combined with a commutative sum so publication
    /// order (and hence global-id assignment) doesn't matter. Two
    /// replays of the same config must agree — the serving suite's
    /// byte-identity check for sampled vs unsampled runs.
    pub code_digest: u64,
}

impl ServeReport {
    /// Check the meter-balance identities the runtime guarantees; the
    /// CI smoke job runs every replay through this.
    ///
    /// * every dispatch is a hit or a miss,
    /// * every miss is exactly one of: a won specialization, a
    ///   single-flight wait, a fallback, a lost publication race, or a
    ///   policy deferral/throttle,
    /// * every cache lookup is a dispatch, a winner's/racer's post-lock
    ///   re-probe, or the re-probe of a dispatch whose code another
    ///   thread evicted (and whose registry slot it freed) before this
    ///   thread could copy it. Such a dispatch still misses at most
    ///   once: if its re-probe misses after it already missed, it runs
    ///   the generic continuation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first identity that fails.
    pub fn balance_check(&self) -> Result<(), String> {
        let s = &self.snapshot;
        if self.hits + self.misses != self.dispatches {
            return Err(format!(
                "hits {} + misses {} != dispatches {}",
                self.hits, self.misses, self.dispatches
            ));
        }
        let accounted = s.specializations
            + s.single_flight_waits
            + s.single_flight_fallbacks
            + s.single_flight_races
            + s.policy_defers
            + s.policy_throttled;
        if self.misses != accounted {
            return Err(format!(
                "misses {} != spec {} + waits {} + fallbacks {} + races {} \
                 + defers {} + throttles {}",
                self.misses,
                s.specializations,
                s.single_flight_waits,
                s.single_flight_fallbacks,
                s.single_flight_races,
                s.policy_defers,
                s.policy_throttled
            ));
        }
        let lookups: u64 = s.shards.iter().map(|m| m.lookups).sum();
        let accounted =
            self.dispatches + s.specializations + s.single_flight_races + s.stale_reprobes;
        if lookups != accounted {
            return Err(format!(
                "shard lookups {} != dispatches {} + specializations {} + races {} \
                 + stale re-probes {}",
                lookups,
                self.dispatches,
                s.specializations,
                s.single_flight_races,
                s.stale_reprobes
            ));
        }
        if self.miss_hist.count() != self.misses {
            return Err(format!(
                "histogram count {} != misses {}",
                self.miss_hist.count(),
                self.misses
            ));
        }
        Ok(())
    }

    /// Render the report as a JSON object, indented by `indent` spaces
    /// (hand-rolled like the rest of BENCH_dyncompile.json — no serde).
    pub fn json(&self, indent: usize) -> String {
        let pad = " ".repeat(indent);
        let p = " ".repeat(indent + 2);
        let (p50, p95, p99, max) = self.miss_hist.quantiles();
        let s = &self.snapshot;
        let mut out = String::new();
        let _ = writeln!(out, "{pad}{{");
        let _ = writeln!(out, "{p}\"pattern\": \"{}\",", self.pattern);
        let _ = writeln!(out, "{p}\"dispatches\": {},", self.dispatches);
        let _ = writeln!(out, "{p}\"threads\": {},", self.threads);
        let _ = writeln!(out, "{p}\"seed\": {},", self.seed);
        let _ = writeln!(out, "{p}\"wall_ns\": {},", self.wall_ns);
        let _ = writeln!(out, "{p}\"throughput_per_s\": {:.1},", self.throughput);
        let _ = writeln!(out, "{p}\"hits\": {},", self.hits);
        let _ = writeln!(out, "{p}\"misses\": {},", self.misses);
        let _ = writeln!(out, "{p}\"hit_rate\": {:.6},", self.hit_rate);
        let _ = writeln!(out, "{p}\"p50_miss_ns\": {p50},");
        let _ = writeln!(out, "{p}\"p95_miss_ns\": {p95},");
        let _ = writeln!(out, "{p}\"p99_miss_ns\": {p99},");
        let _ = writeln!(out, "{p}\"max_miss_ns\": {max},");
        let _ = writeln!(out, "{p}\"mean_miss_ns\": {:.1},", self.miss_hist.mean());
        let _ = writeln!(out, "{p}\"specializations\": {},", s.specializations);
        let _ = writeln!(out, "{p}\"flight_waits\": {},", s.single_flight_waits);
        let _ = writeln!(
            out,
            "{p}\"flight_fallbacks\": {},",
            s.single_flight_fallbacks
        );
        let _ = writeln!(out, "{p}\"flight_races\": {},", s.single_flight_races);
        let _ = writeln!(out, "{p}\"evictions\": {},", s.cache_evictions);
        let _ = writeln!(out, "{p}\"stale_reprobes\": {},", s.stale_reprobes);
        let _ = writeln!(out, "{p}\"published\": {},", s.published);
        let _ = writeln!(out, "{p}\"registry_live\": {},", s.registry_live);
        let _ = writeln!(
            out,
            "{p}\"registry_high_water\": {},",
            s.registry_high_water
        );
        let _ = writeln!(out, "{p}\"policy_defers\": {},", s.policy_defers);
        let _ = writeln!(
            out,
            "{p}\"probes_per_lookup\": {:.4},",
            self.probes_per_lookup
        );
        let _ = writeln!(out, "{p}\"shard_imbalance\": {:.3},", self.shard_imbalance);
        let _ = writeln!(out, "{p}\"cache_shards\": {},", self.cache_shards);
        let _ = writeln!(out, "{p}\"flight_shards\": {},", self.flight_shards);
        let _ = writeln!(out, "{p}\"code_digest\": \"{:#018x}\",", self.code_digest);
        let lookups: Vec<String> = s
            .shards
            .iter()
            .map(|m| m.lookups.to_string())
            .collect::<Vec<_>>();
        let _ = writeln!(out, "{p}\"shard_lookups\": [{}]", lookups.join(", "));
        let _ = write!(out, "{pad}}}");
        out
    }
}

/// Replay `cfg.dispatches` keys against a fresh shared runtime from
/// `cfg.threads` threads, validating every result against [`expected`].
///
/// Threads line up on a barrier, then each replays its slice of the
/// dispatch budget from its own deterministic stream. The report merges
/// the per-thread miss histograms and the runtime's global meters.
///
/// # Errors
///
/// Returns an error if the serve program fails to compile, any dispatch
/// errors, or any result diverges from the closed-form oracle.
///
/// # Panics
///
/// Panics if a serving thread panics (the panic is propagated).
pub fn replay(cfg: &ServeConfig) -> Result<ServeReport, String> {
    replay_live(cfg, None)
}

/// FNV-1a over one cache binding: site, key words, then the code's
/// canonical debug rendering (instruction-exact, so any codegen
/// divergence changes the digest).
fn entry_digest(site: u32, key: &[u64], code: &str) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    h ^= u64::from(site);
    h = h.wrapping_mul(PRIME);
    for w in key {
        h ^= *w;
        h = h.wrapping_mul(PRIME);
    }
    for b in code.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// [`replay`] with live telemetry attached: the handles' registry (and
/// flight recorder, when present) are wired into the shared runtime
/// before any serving thread is created, so every thread registers a
/// live slot. Pass `None` for a plain replay — the two must produce
/// identical results, meters, and code (see
/// [`ServeReport::code_digest`]).
///
/// # Errors
///
/// Same failure modes as [`replay`].
///
/// # Panics
///
/// Panics if a serving thread panics (the panic is propagated).
pub fn replay_live(cfg: &ServeConfig, live: Option<&LiveHandles>) -> Result<ServeReport, String> {
    let program = Compiler::new()
        .compile(&serve_source(cfg.bound))
        .map_err(|e| format!("serve source: {e}"))?;
    let mut opts = cfg.opts;
    opts.latency = true;
    let shared = program.shared_runtime_with(opts);
    if let Some(h) = live {
        shared.attach_live(h.clone());
    }
    let gen = TrafficGen::new(cfg.stream);
    let threads = cfg.threads.max(1);
    let barrier = Barrier::new(threads);
    let per = cfg.dispatches / threads as u64;
    let extra = (cfg.dispatches % threads as u64) as usize;

    struct ThreadOut {
        wall_ns: u64,
        dispatches: u64,
        hist: LatencyHistogram,
    }

    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let shared = &shared;
                let gen = &gen;
                let barrier = &barrier;
                let n = per + u64::from(t < extra);
                s.spawn(move || -> Result<ThreadOut, String> {
                    let mut h = SharedRuntime::thread(shared);
                    let mut module = shared.base_module();
                    let mut vm = Vm::new(CostModel::alpha21164());
                    let id = module
                        .func_by_name("serve")
                        .ok_or("no serve function".to_string())?;
                    let mut stream = gen.stream(cfg.seed, t as u32);
                    barrier.wait();
                    let t0 = Instant::now();
                    for i in 0..n {
                        let key = stream.next_key() as i64;
                        let x = (i % 5) as i64;
                        let out = vm
                            .call_with_handler(
                                &mut module,
                                &mut h,
                                id,
                                &[Value::I(key), Value::I(x)],
                            )
                            .map_err(|e| format!("thread {t}, dispatch {i}: {e}"))?;
                        if out != Some(Value::I(expected(key, x))) {
                            return Err(format!(
                                "thread {t}: serve({key}, {x}) = {out:?}, expected {}",
                                expected(key, x)
                            ));
                        }
                    }
                    let wall_ns = t0.elapsed().as_nanos() as u64;
                    let hist = h
                        .miss_latency()
                        .cloned()
                        .ok_or("latency histogram missing".to_string())?;
                    Ok(ThreadOut {
                        wall_ns,
                        dispatches: n,
                        hist,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serving thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;

    let mut hist = LatencyHistogram::new();
    let mut wall_ns = 0;
    let mut dispatches = 0;
    for o in &outs {
        hist.merge(&o.hist);
        wall_ns = wall_ns.max(o.wall_ns);
        dispatches += o.dispatches;
    }
    let code_digest = shared
        .cache_snapshot()
        .into_iter()
        .map(|(site, key, gid)| {
            // Canonical rendering: the instruction stream plus frame
            // shape. `name` embeds the compiling thread's module length
            // and `base_addr` the install order — both vary with
            // scheduling even though the published code is semantically
            // identical, so they stay out of the digest.
            let f = shared.code(gid);
            let canon = format!("{}/{}:{:?}", f.n_params, f.n_regs, f.code);
            entry_digest(site, &key, &canon)
        })
        .fold(0u64, u64::wrapping_add);
    let snapshot = shared.stats();
    let misses = hist.count();
    let lookups: u64 = snapshot.shards.iter().map(|m| m.lookups).sum();
    let probes: u64 = snapshot.shards.iter().map(|m| m.probes).sum();
    let hottest = snapshot.shards.iter().map(|m| m.lookups).max().unwrap_or(0);
    let n_shards = snapshot.shards.len().max(1) as f64;
    let report = ServeReport {
        pattern: cfg.stream.pattern.name(),
        dispatches,
        threads,
        seed: cfg.seed,
        wall_ns,
        throughput: if wall_ns == 0 {
            0.0
        } else {
            dispatches as f64 / (wall_ns as f64 / 1e9)
        },
        hits: dispatches - misses,
        misses,
        hit_rate: if dispatches == 0 {
            0.0
        } else {
            (dispatches - misses) as f64 / dispatches as f64
        },
        miss_hist: hist,
        probes_per_lookup: if lookups == 0 {
            0.0
        } else {
            probes as f64 / lookups as f64
        },
        shard_imbalance: if lookups == 0 {
            1.0
        } else {
            hottest as f64 / (lookups as f64 / n_shards)
        },
        cache_shards: shared.n_cache_shards(),
        flight_shards: shared.n_flight_shards(),
        snapshot,
        code_digest,
    };
    Ok(report)
}

/// One point on an eviction hit-rate curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// The `cache_all(k)` bound (0 = unbounded).
    pub bound: u32,
    /// Whole-run hit rate at that bound.
    pub hit_rate: f64,
    /// Clock evictions performed.
    pub evictions: u64,
    /// Specializations performed (re-specialization of evicted keys
    /// shows up here).
    pub specializations: u64,
}

/// Replay the same stream at each `cache_all(k)` bound (plus unbounded
/// when `bounds` contains 0) and report the hit-rate curve — the
/// serving-side view of the paper's cache-policy tradeoff.
///
/// # Errors
///
/// Propagates the first failing [`replay`].
pub fn hit_rate_curve(cfg: &ServeConfig, bounds: &[u32]) -> Result<Vec<CurvePoint>, String> {
    let mut out = Vec::with_capacity(bounds.len());
    for &b in bounds {
        let mut c = cfg.clone();
        c.bound = (b > 0).then_some(b);
        let r = replay(&c)?;
        r.balance_check()?;
        out.push(CurvePoint {
            bound: b,
            hit_rate: r.hit_rate,
            evictions: r.snapshot.cache_evictions,
            specializations: r.snapshot.specializations,
        });
    }
    Ok(out)
}

/// Render a hit-rate curve as a JSON array, indented by `indent`.
pub fn curve_json(points: &[CurvePoint], indent: usize) -> String {
    let pad = " ".repeat(indent);
    let p = " ".repeat(indent + 2);
    let mut out = String::new();
    let _ = writeln!(out, "{pad}[");
    for (i, c) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "{p}{{\"bound\": {}, \"hit_rate\": {:.6}, \"evictions\": {}, \
             \"specializations\": {}}}{comma}",
            c.bound, c.hit_rate, c.evictions, c.specializations
        );
    }
    let _ = write!(out, "{pad}]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_seed_and_thread() {
        for pattern in ALL_PATTERNS {
            let gen = TrafficGen::new(StreamConfig::of(pattern));
            let a: Vec<u64> = {
                let mut s = gen.stream(7, 3);
                (0..1000).map(|_| s.next_key()).collect()
            };
            let b: Vec<u64> = {
                let mut s = gen.stream(7, 3);
                (0..1000).map(|_| s.next_key()).collect()
            };
            assert_eq!(a, b, "{pattern:?} must replay identically");
        }
    }

    #[test]
    fn zipfian_is_skewed_toward_low_ranks() {
        let gen = TrafficGen::new(StreamConfig::of(Pattern::Zipfian));
        let mut s = gen.stream(1, 0);
        let mut hot = 0u64;
        let n = 20_000;
        for _ in 0..n {
            let k = s.next_key();
            assert!(k < 4096);
            if k == 0 {
                hot += 1;
            }
        }
        // zipf(1.1) over 4096 keys gives rank 1 ≈ 13% of mass.
        let share = hot as f64 / n as f64;
        assert!(
            (0.08..0.20).contains(&share),
            "rank-0 share {share} out of zipf range"
        );
    }

    #[test]
    fn churn_window_slides_and_stampede_is_lockstep() {
        let gen = TrafficGen::new(StreamConfig::of(Pattern::Churn));
        let mut s = gen.stream(5, 0);
        let early = s.next_key();
        for _ in 0..100_000 {
            s.next_key();
        }
        let late = s.next_key();
        // After 10⁵ dispatches at interval 64 the window base moved
        // ~1500 keys; early keys can no longer appear.
        assert!(late > early, "window must slide forward");

        let gen = TrafficGen::new(StreamConfig::of(Pattern::Stampede));
        let mut a = gen.stream(5, 0);
        let mut b = gen.stream(5, 9);
        for _ in 0..100 {
            assert_eq!(a.next_key(), b.next_key(), "stampede threads in lockstep");
        }
    }

    #[test]
    fn flash_crowd_bursts_hit_a_fresh_hot_key() {
        let cfg = StreamConfig::of(Pattern::FlashCrowd);
        let gen = TrafficGen::new(cfg);
        let mut s = gen.stream(3, 0);
        let mut burst_hot = 0u64;
        for i in 0..cfg.flash_burst {
            let k = s.next_key();
            if k >= cfg.keys {
                assert_eq!(k, cfg.keys, "period 0's hot key is `keys + 0`");
                burst_hot += 1;
            }
            let _ = i;
        }
        let share = burst_hot as f64 / cfg.flash_burst as f64;
        assert!(
            (0.85..0.95).contains(&share),
            "burst hot share {share} should be ~0.9"
        );
    }

    #[test]
    fn expected_matches_a_hand_computation() {
        // key 2 → i runs 3,2,1: acc = ((x*3+5)*3+4)*3+3.
        let x = 7;
        assert_eq!(expected(2, x), ((x * 3 + 5) * 3 + 4) * 3 + 3);
        // key 0 → one iteration: acc = x*3 + key + 1.
        assert_eq!(expected(0, 1), 4);
    }

    #[test]
    fn small_replay_balances_and_validates() {
        let cfg = ServeConfig {
            stream: StreamConfig::of(Pattern::Zipfian),
            dispatches: 20_000,
            threads: 4,
            ..ServeConfig::default()
        };
        let r = replay(&cfg).unwrap();
        r.balance_check().unwrap();
        assert_eq!(r.dispatches, 20_000);
        assert!(r.hit_rate > 0.8, "zipfian converges hot: {}", r.hit_rate);
        assert!(r.miss_hist.count() > 0);
        let json = r.json(0);
        assert!(json.contains("\"pattern\": \"zipfian\""));
        assert!(json.contains("\"p99_miss_ns\""));
        assert!(json.contains("\"registry_high_water\""));
    }

    #[test]
    fn bounded_replay_evicts_under_churn() {
        let cfg = ServeConfig {
            stream: StreamConfig::of(Pattern::Churn),
            dispatches: 20_000,
            threads: 2,
            bound: Some(64),
            ..ServeConfig::default()
        };
        let r = replay(&cfg).unwrap();
        r.balance_check().unwrap();
        assert!(
            r.snapshot.cache_evictions > 0,
            "churn over a 64-bound site must evict"
        );
    }
}
