//! Announced reads: the shared code cache's shard lock, which holds all
//! of the concurrent runtime's `unsafe` code.
//!
//! A warm dispatch reads one shard of the shared cache. Under a
//! reader-writer lock every read writes the lock word, a cache line every
//! other reader of the shard writes too, so threads hitting one shard
//! pass that line between their cores on every dispatch. Here a reader
//! writes only its own *announcement word*, on a cache line no other
//! thread writes, and reads the shard's writer flag. A writer (an insert,
//! a removal or a purge; all rare next to hits) does the waiting:
//!
//! * **Reader.** R1: store `shard + 1` to its announcement (`SeqCst`).
//!   R2: load the shard's writer flag (`SeqCst`). If the flag is clear,
//!   read the table, then R3: store 0 (`Release`). If it is raised,
//!   store 0 (`Release`) and read under the shard mutex instead.
//! * **Writer.** Take the shard mutex. W1: raise the flag (`SeqCst`).
//!   W2: wait until no registered reader announces the shard (`SeqCst`
//!   loads; spin, then yield, since one core may run both threads).
//!   Modify the table, then W3: lower the flag (`Release`), and release
//!   the mutex.
//!
//! Why a fast read never overlaps a modification: R1, R2, W1 and W2 are
//! `SeqCst`, so they fall in one total order. If R2 comes before W1, then
//! R1 comes before W2, so W2 reads R1's announcement or a later store to
//! the word. While it reads R1's, the writer waits. Every later store is
//! R3 or follows R3 in the reader's program order, and is at least
//! `Release`, so reading it makes the reader's table read happen before
//! the writer's modification. If W1 comes before R2, then R2 reads the
//! raised flag (the reader takes the mutex) or a later W3, whose
//! `Release` makes that writer's modification happen before the read.
//! Mutex readers and writers are ordered by the mutex. Writers scan the
//! reader list under its read lock, so writers to different shards wait
//! out their readers side by side; a reader registers under the write
//! lock. One that registers while a writer scans does so after the
//! writer releases the list, so W1 happens before its R2.
//!
//! A reader holding an announcement never blocks: between R1 and R3 it
//! only probes a table. A writer whose modification panics leaves its
//! flag raised and the mutex poisoned, so later readers take the mutex
//! and see the poison, as they would a poisoned `RwLock`. Lock order:
//! shard mutex → reader list.
//!
//! Each reader also keeps its own lookup and probe count per shard, on
//! cache lines only it writes, so a hit's metering writes no shared line
//! either.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Times a writer spins on an announcement before it yields its slice.
const SPINS: u32 = 64;

/// Shard meters per cache line: a lookup and a probe count each.
const SHARDS_PER_LINE: usize = 4;

/// Why a shard mutex can be poisoned: its writer panicked mid-write, and
/// the table may be half modified.
const POISONED: &str = "a writer panicked while modifying this shard";

/// One shard: its table, the writer flag, and the mutex writers hold (and
/// readers that met a raised flag). Cache-line aligned, so no two shards
/// share a line.
#[repr(align(64))]
struct Shard<T> {
    writing: AtomicBool,
    mutex: Mutex<()>,
    table: UnsafeCell<T>,
}

/// A reader's announcement word, alone on its cache line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Announcement(AtomicUsize);

/// The lookup and probe counts of [`SHARDS_PER_LINE`] shards: one cache
/// line, written only by the reader that owns it.
#[repr(align(64))]
#[derive(Debug, Default)]
struct CountLine([AtomicU64; 2 * SHARDS_PER_LINE]);

/// What a reader shares with the writers and meter readers of its table.
#[derive(Debug)]
struct ReaderSlot {
    announce: Announcement,
    counts: Box<[CountLine]>,
}

impl ReaderSlot {
    /// The lookup and probe counters of shard `s`.
    fn counters(&self, s: usize) -> (&AtomicU64, &AtomicU64) {
        let line = &self.counts[s / SHARDS_PER_LINE].0;
        let i = 2 * (s % SHARDS_PER_LINE);
        (&line[i], &line[i + 1])
    }
}

/// The registered readers, whom writers wait out, and per shard the
/// lookups and probes of the readers dropped so far.
#[derive(Debug)]
struct Readers {
    live: Vec<Arc<ReaderSlot>>,
    dropped: Vec<(u64, u64)>,
}

/// Read the reader list. It is only ever modified by a push, a swap
/// removal and additions to the dropped counts, none of which can leave
/// it half done, so a poisoned list is still a consistent one.
fn scan(readers: &RwLock<Readers>) -> RwLockReadGuard<'_, Readers> {
    readers.read().unwrap_or_else(PoisonError::into_inner)
}

/// Modify the reader list (see [`scan`] on poisoning).
fn modify(readers: &RwLock<Readers>) -> RwLockWriteGuard<'_, Readers> {
    readers.write().unwrap_or_else(PoisonError::into_inner)
}

/// A registered reader of one
/// [`ShardedCache`](crate::concurrent::ShardedCache): its announcement
/// word and its own per-shard lookup and probe counts. Get one from
/// [`ShardedCache::reader`](crate::concurrent::ShardedCache::reader);
/// reads take it `&mut`, so one thread reads through it at a time.
/// Dropping it unregisters it, and its counts stay in the cache's meters.
#[derive(Debug)]
pub struct CacheReader {
    slot: Arc<ReaderSlot>,
    readers: Arc<RwLock<Readers>>,
}

impl CacheReader {
    /// Count one lookup of shard `s` that inspected `probes` slots. Only
    /// this reader writes its counts, so a relaxed load and store do.
    #[inline]
    pub(crate) fn count(&mut self, s: usize, probes: u32) {
        let (lookups, total) = self.slot.counters(s);
        lookups.store(lookups.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        total.store(
            total.load(Ordering::Relaxed) + u64::from(probes),
            Ordering::Relaxed,
        );
    }
}

impl Drop for CacheReader {
    fn drop(&mut self) {
        let mut readers = modify(&self.readers);
        if let Some(i) = (readers.live.iter()).position(|r| Arc::ptr_eq(r, &self.slot)) {
            readers.live.swap_remove(i);
        }
        for (s, (lookups, probes)) in readers.dropped.iter_mut().enumerate() {
            let (l, p) = self.slot.counters(s);
            *lookups += l.load(Ordering::Relaxed);
            *probes += p.load(Ordering::Relaxed);
        }
    }
}

/// Clears an announcement when a fast read ends, unwinding included: R3.
struct Announced<'a>(&'a AtomicUsize);

impl Drop for Announced<'_> {
    fn drop(&mut self) {
        self.0.store(0, Ordering::Release);
    }
}

/// N tables, each read by announcement and written under its shard's
/// mutex (see the [module docs](self)).
pub(crate) struct ShardLocks<T> {
    shards: Box<[Shard<T>]>,
    readers: Arc<RwLock<Readers>>,
}

// SAFETY: the tables are the only field that is not `Sync` on its own
// (the flags, mutexes and reader list are). Fast readers share `&T`
// across threads and one writer at a time takes `&mut T` (under the
// shard mutex, with no reader announced): the same access `RwLock<T>`
// grants, under the same bounds.
unsafe impl<T: Send + Sync> Sync for ShardLocks<T> {}

impl<T> ShardLocks<T> {
    /// `n` shards, each holding a table from `table`.
    pub(crate) fn new(n: usize, mut table: impl FnMut() -> T) -> ShardLocks<T> {
        ShardLocks {
            shards: (0..n)
                .map(|_| Shard {
                    writing: AtomicBool::new(false),
                    mutex: Mutex::new(()),
                    table: UnsafeCell::new(table()),
                })
                .collect(),
            readers: Arc::new(RwLock::new(Readers {
                live: Vec::new(),
                dropped: vec![(0, 0); n],
            })),
        }
    }

    /// Number of shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.len()
    }

    /// Register a reader, with zeroed counts.
    pub(crate) fn reader(&self) -> CacheReader {
        let slot = Arc::new(ReaderSlot {
            announce: Announcement::default(),
            counts: (0..self.shards.len().div_ceil(SHARDS_PER_LINE))
                .map(|_| CountLine::default())
                .collect(),
        });
        modify(&self.readers).live.push(Arc::clone(&slot));
        CacheReader {
            slot,
            readers: Arc::clone(&self.readers),
        }
    }

    /// Run `f` on shard `s`'s table as `reader`: announced, or under the
    /// shard mutex while a writer is at work.
    ///
    /// # Panics
    ///
    /// Panics if `reader` was registered with another table, or if a
    /// writer panicked while modifying this shard.
    #[inline]
    pub(crate) fn read<U>(&self, reader: &mut CacheReader, s: usize, f: impl FnOnce(&T) -> U) -> U {
        assert!(
            Arc::ptr_eq(&reader.readers, &self.readers),
            "reader registered with another table"
        );
        let shard = &self.shards[s];
        let word = &reader.slot.announce.0;
        word.store(s + 1, Ordering::SeqCst); // R1
        let announced = Announced(word);
        // R2.
        if !shard.writing.load(Ordering::SeqCst) {
            // SAFETY: R2 found the flag clear after R1, so every writer
            // of this shard either lowered its flag (W3) before R2 read
            // it, and its modification happens before this read, or waits
            // at W2 until `announced` drops (R3) after `f` returns. No one
            // writes the table meanwhile, and the reference dies with `f`.
            return f(unsafe { &*shard.table.get() });
        }
        // Clear the announcement before blocking: the writer waits for it.
        drop(announced);
        let _locked = shard.mutex.lock().expect(POISONED);
        // SAFETY: tables are modified only under their shard mutex (W1 to
        // W3 run while the writer holds it), and this thread holds it.
        f(unsafe { &*shard.table.get() })
    }

    /// Run `f` on shard `s`'s table under the shard mutex.
    pub(crate) fn read_locked<U>(&self, s: usize, f: impl FnOnce(&T) -> U) -> U {
        let shard = &self.shards[s];
        let _locked = shard.mutex.lock().expect(POISONED);
        // SAFETY: tables are modified only under their shard mutex (W1 to
        // W3 run while the writer holds it), and this thread holds it.
        f(unsafe { &*shard.table.get() })
    }

    /// Run `f` on shard `s`'s table with no reader in it.
    pub(crate) fn write<U>(&self, s: usize, f: impl FnOnce(&mut T) -> U) -> U {
        let shard = &self.shards[s];
        let _locked = shard.mutex.lock().expect(POISONED);
        // W1, then W2.
        shard.writing.store(true, Ordering::SeqCst);
        self.wait_out(s);
        // SAFETY: the mutex excludes other writers and mutex readers.
        // Every announced reader of this shard either finished (W2 read
        // its R3 or a later store, each at least `Release`) or loads the
        // flag after W1 and takes the mutex.
        let out = f(unsafe { &mut *shard.table.get() });
        // W3. If `f` panicked the flag stays raised: readers meet the
        // poisoned mutex rather than a half-modified table.
        shard.writing.store(false, Ordering::Release);
        out
    }

    /// W2: wait until no live reader announces shard `s`. Writers of
    /// other shards scan the list at the same time.
    fn wait_out(&self, s: usize) {
        let readers = scan(&self.readers);
        for r in &readers.live {
            let mut spins = 0;
            while r.announce.0.load(Ordering::SeqCst) == s + 1 {
                if spins < SPINS {
                    spins += 1;
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }

    /// Per shard, the lookups and probes counted by every reader ever
    /// registered.
    pub(crate) fn counts(&self) -> Vec<(u64, u64)> {
        let readers = scan(&self.readers);
        let mut out = readers.dropped.clone();
        for r in &readers.live {
            for (s, (lookups, probes)) in out.iter_mut().enumerate() {
                let (l, p) = r.counters(s);
                *lookups += l.load(Ordering::Relaxed);
                *probes += p.load(Ordering::Relaxed);
            }
        }
        out
    }
}
