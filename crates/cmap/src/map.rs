//! Sharded concurrent hash map with lock-free reads.
//!
//! Keys are `i64` task keys (the paper fixes `int64_t` keys); values are
//! word-sized `Copy` values ([`Word`]) — the scheduler stores `ArenaRef`
//! descriptor handles, the recovery table stores life numbers. Each shard
//! is an open hash table (linear probing, tombstone-less rebuild on growth)
//! with a **seqlock read path**: readers never take a lock. A shard
//! consists of
//!
//! * an atomically published pointer to the current probe table,
//! * a sequence counter (even = stable, odd = writer mutating), and
//! * a `Mutex` serializing writers,
//!
//! padded to its own cache lines so that two shards never share one.
//!
//! Every table slot stores its key, its value word and an occupied flag in
//! atomics, so a concurrent reader only ever performs atomic loads — there
//! is no torn data to observe and nothing to dereference. `get`/`contains`
//! probe optimistically, then validate that the sequence counter did not
//! move during the probe; on writer interference they retry, and after a
//! few failed attempts fall back to the writer lock (bounded, so readers
//! cannot livelock behind a write storm). A validated hit is the value
//! word itself: no allocation per insert, no clone through a pointer.
//!
//! **Memory reclamation** is deferred for probe tables only: a table
//! superseded by growth is *retired* to a per-shard list and freed when
//! the map is dropped, never while a reader could still hold the pointer.
//! That makes dereferencing the table pointer after sequence validation
//! sound without epochs or hazard pointers; retained garbage is O(log n)
//! tables per shard — see "Hot-path anatomy & lock-freedom" in
//! `docs/ALGORITHM.md`.
//!
//! The shard for a key is selected by a Fibonacci-hash of the key, which
//! also serves as the in-shard probe start; shard selection uses the high
//! bits and probing the low bits so the two are decorrelated.

use ft_sync::atomic::{fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU64, Ordering};
use ft_sync::Word;
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::OnceLock;

/// Multiplicative (Fibonacci) hash constant, 2^64 / φ.
const HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// Optimistic probe attempts before a reader falls back to the shard lock.
const OPTIMISTIC_TRIES: usize = 8;

#[inline]
fn hash_key(key: i64) -> u64 {
    (key as u64).wrapping_mul(HASH_K)
}

/// Default shard count of [`ShardedMap::new`] and
/// [`LockedMap::new`](crate::LockedMap::new): 4× the available cores,
/// rounded up to a power of two. The core count is read once per process —
/// `available_parallelism` reads cgroup files, which would otherwise cost
/// more than building a small map.
pub(crate) fn default_shards() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    let cores = *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(8)
    });
    (cores * 4).next_power_of_two()
}

/// One slot of a probe table. `full == false` means empty; once full the
/// key is immutable and the value word changes only under the shard's
/// write protocol (sequence bump around the store).
struct Slot {
    key: AtomicI64,
    val: AtomicU64,
    full: AtomicBool,
}

/// An immutable-capacity probe table. Replaced wholesale on growth; the
/// superseded table is retired, never freed mid-run, so a reader holding a
/// stale table pointer can still probe it safely (and will then fail
/// sequence validation).
struct Table {
    mask: usize,
    slots: Box<[Slot]>,
}

impl Table {
    fn new_boxed(cap: usize) -> Box<Self> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| Slot {
                key: AtomicI64::new(0),
                val: AtomicU64::new(0),
                full: AtomicBool::new(false),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Box::new(Table {
            mask: cap - 1,
            slots,
        })
    }
}

/// Writer-side shard state, serialized by the shard mutex.
struct WriterState {
    len: usize,
    /// Probe tables superseded by growth; freed on map drop (a reader may
    /// still be probing one).
    retired_tables: Vec<*mut Table>,
}

/// A single shard, aligned to 128 bytes (the alignment of
/// `ft_steal`'s `CachePadded`) so that the sequence counter and writer
/// lock of neighbouring shards never share a cache line or an adjacent-
/// line prefetch pair.
#[repr(align(128))]
struct Shard {
    /// Seqlock counter: even = stable, odd = a writer is mutating.
    seq: AtomicU64,
    /// Current probe table, swapped on growth.
    table: AtomicPtr<Table>,
    writer: Mutex<WriterState>,
}

// SAFETY: the raw table pointers in `WriterState`/`table` are owned by the
// shard and follow the retire-until-drop protocol documented above; tables
// hold only atomics, so moving the shard between threads transfers sole
// ownership of every allocation it frees.
unsafe impl Send for Shard {}
// SAFETY: all shared shard state is atomics or the writer mutex, and
// retired tables stay live until drop — so `&Shard` used from many threads
// never yields a dangling or aliased-mutable access.
unsafe impl Sync for Shard {}

/// Outcome of one optimistic probe attempt.
enum Probe {
    /// Validated: the key maps to this value word (or a miss).
    Valid(Option<u64>),
    /// A writer moved the sequence during the probe; retry.
    Interference,
}

impl Shard {
    fn new(cap: usize) -> Self {
        Shard {
            seq: AtomicU64::new(0),
            table: AtomicPtr::new(Box::into_raw(Table::new_boxed(cap))),
            writer: Mutex::new(WriterState {
                len: 0,
                retired_tables: Vec::new(),
            }),
        }
    }

    /// Begin a write window: readers that overlap it will fail validation.
    /// Caller must hold the writer lock.
    fn write_begin(&self) {
        // ord: Relaxed load/store — only writers mutate `seq` and the
        // caller holds the writer lock; ordering comes from the fence below.
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        // ord: Release fence — the odd sequence must be visible before any
        // mutation store; pairs with the readers' Acquire fence/loads in
        // `try_read`.
        // sc: seqlock/writer-begin
        fence(Ordering::Release);
    }

    /// End a write window. Caller must hold the writer lock.
    fn write_end(&self) {
        // ord: Relaxed — lock-serialized writer-only read; see write_begin.
        let s = self.seq.load(Ordering::Relaxed);
        // ord: Release — all mutation stores are visible before the even
        // sequence; pairs with the readers' s1 Acquire load in `try_read`.
        self.seq.store(s.wrapping_add(1), Ordering::Release);
    }

    // ft-lint: hot-path begin(map-read)

    /// One optimistic, lock-free probe: read the published table, probe,
    /// then validate that no writer interfered.
    fn try_read(&self, key: i64) -> Probe {
        // ord: Acquire — pairs with the Release in `write_end`: an even s1
        // guarantees the probe sees a table state no older than that write.
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 & 1 == 1 {
            return Probe::Interference;
        }
        // ord: Acquire — pairs with the Release table publication in
        // `grow_if_needed`, so the pointed-to table is fully initialized.
        let table = self.table.load(Ordering::Acquire);
        // SAFETY: published tables are retired on growth, never freed while
        // the map lives, so the pointer is always dereferenceable — a stale
        // table merely fails validation below.
        let t = unsafe { &*table };
        let mask = t.mask;
        let mut i = (hash_key(key) as usize) & mask;
        let mut found: Option<u64> = None;
        // Bounded probe: a consistent table has load factor < 0.7, so a
        // full sweep without an empty slot can only mean interference.
        for _ in 0..=mask {
            let slot = &t.slots[i];
            // ord: Acquire — pairs with the Release in `publish_insert`: a
            // full slot implies its key and first value are visible.
            if !slot.full.load(Ordering::Acquire) {
                break; // empty slot terminates the probe chain
            }
            // ord: Relaxed — the Acquire load of `full` above already
            // orders the key store (keys are written before the flag).
            if slot.key.load(Ordering::Relaxed) == key {
                // ord: Acquire — pairs with the Release value store in
                // `store_value`: whatever a replaced handle points to was
                // written before the handle, and is visible after it.
                found = Some(slot.val.load(Ordering::Acquire));
                break;
            }
            i = (i + 1) & mask;
        }
        // ord: Acquire fence + Relaxed load — the probe loads must complete
        // before the validating sequence load; the fence upgrades the
        // Relaxed load so it cannot be reordered before the probe.
        // sc: seqlock/reader-validate
        fence(Ordering::Acquire);
        let s2 = self.seq.load(Ordering::Relaxed);
        if s1 == s2 {
            Probe::Valid(found)
        } else {
            Probe::Interference
        }
    }

    /// Lock-free read of `key`'s value word; falls back to the writer lock
    /// after repeated interference so readers cannot starve behind a write
    /// storm.
    fn read(&self, key: i64) -> Option<u64> {
        for _ in 0..OPTIMISTIC_TRIES {
            match self.try_read(key) {
                Probe::Valid(found) => return found,
                Probe::Interference => std::hint::spin_loop(),
            }
        }
        // ft-lint: allow(L9) anti-starvation fallback: taken only after
        // OPTIMISTIC_TRIES failed validations under a write storm.
        let _guard = self.writer.lock();
        // SAFETY: the writer lock is held, so the table pointer is stable
        // and dereferenceable (tables are only swapped under this lock).
        // ord: Relaxed — the lock acquisition orders the table load against
        // the previous holder's swap.
        let t = unsafe { &*self.table.load(Ordering::Relaxed) };
        self.probe_locked(t, key)
            // ord: Relaxed — lock-serialized; see above.
            .map(|i| t.slots[i].val.load(Ordering::Relaxed))
    }

    // ft-lint: hot-path end(map-read)

    /// The current table. Caller must hold the writer lock (or `&mut`).
    fn locked_table(&self) -> &Table {
        // SAFETY: writer lock held — the table pointer is stable and live
        // (tables are only swapped, and retired ones freed, under it).
        // ord: Relaxed — the lock orders the load against the last swap.
        unsafe { &*self.table.load(Ordering::Relaxed) }
    }

    /// Probe under the writer lock. Returns the slot index of `key`.
    fn probe_locked(&self, t: &Table, key: i64) -> Option<usize> {
        let mut i = (hash_key(key) as usize) & t.mask;
        loop {
            let slot = &t.slots[i];
            // ord: Relaxed — caller holds the writer lock, which serializes
            // every mutation of the slots.
            if !slot.full.load(Ordering::Relaxed) {
                return None;
            }
            // ord: Relaxed — lock-serialized, as above.
            if slot.key.load(Ordering::Relaxed) == key {
                return Some(i);
            }
            i = (i + 1) & t.mask;
        }
    }

    /// Publish `(key, word)` into the first empty slot of `key`'s probe
    /// chain, growing the table first if needed. Caller must hold the lock
    /// and have verified the key is absent. No sequence bump needed:
    /// concurrent readers either see the empty flag (miss, linearized
    /// before) or the full slot (hit) — both are consistent states.
    fn publish_insert(&self, w: &mut WriterState, key: i64, word: u64) {
        // SAFETY: `grow_if_needed` returns the current table, live while
        // the lock is held.
        let t = unsafe { &*self.grow_if_needed(w) };
        let mut i = (hash_key(key) as usize) & t.mask;
        // ord: Relaxed — caller holds the writer lock; see `probe_locked`.
        while t.slots[i].full.load(Ordering::Relaxed) {
            i = (i + 1) & t.mask;
        }
        let slot = &t.slots[i];
        // ord: Relaxed — both ordered by the Release store of `full`.
        slot.key.store(key, Ordering::Relaxed);
        slot.val.store(word, Ordering::Relaxed);
        // ord: Release — the key and value stores above (and whatever a
        // handle value points to) are visible to any reader that
        // Acquire-loads this flag.
        slot.full.store(true, Ordering::Release);
        w.len += 1;
    }

    /// Overwrite the value word of an occupied slot under a write window,
    /// returning the displaced word. Caller must hold the lock.
    fn store_value(&self, t: &Table, i: usize, word: u64) -> u64 {
        self.write_begin();
        // ord: Release — whatever the new handle points to is visible to
        // any reader that Acquire-loads this word in `try_read`.
        let old = t.slots[i].val.swap(word, Ordering::Release);
        self.write_end();
        old
    }

    /// Grow (double) the table if the load factor reached 0.7, publishing
    /// the new table under a write window. Caller must hold the lock.
    ///
    /// Returns the current table.
    fn grow_if_needed(&self, w: &mut WriterState) -> *mut Table {
        // ord: Relaxed — caller holds the writer lock, which serializes
        // every table swap.
        let old_ptr = self.table.load(Ordering::Relaxed);
        // SAFETY: the current table is live until retired, and retiring
        // happens only below in this lock-serialized function.
        let old = unsafe { &*old_ptr };
        let cap = old.mask + 1;
        if w.len * 10 < cap * 7 {
            return old_ptr;
        }
        let new = Table::new_boxed(cap * 2);
        for slot in old.slots.iter() {
            // ord: Relaxed — old-table reads are lock-serialized and the
            // new table is private until published: no reader can see
            // these loads or the stores below out of order.
            if !slot.full.load(Ordering::Relaxed) {
                continue;
            }
            // ord: Relaxed — lock-serialized old-table read, as above.
            let k = slot.key.load(Ordering::Relaxed);
            let mut i = (hash_key(k) as usize) & new.mask;
            // ord: Relaxed — the new table is private until published.
            while new.slots[i].full.load(Ordering::Relaxed) {
                i = (i + 1) & new.mask;
            }
            let dst = &new.slots[i];
            // ord: Relaxed — private table; the Release publication of
            // `table` below makes these stores visible to readers.
            let v = slot.val.load(Ordering::Relaxed);
            dst.key.store(k, Ordering::Relaxed);
            dst.val.store(v, Ordering::Relaxed);
            dst.full.store(true, Ordering::Relaxed);
        }
        let new_ptr = Box::into_raw(new);
        self.write_begin();
        // ord: Release — publishes the fully populated table to readers'
        // Acquire load in `try_read`.
        self.table.store(new_ptr, Ordering::Release);
        self.write_end();
        w.retired_tables.push(old_ptr);
        new_ptr
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        let w = self.writer.get_mut();
        // ord: Relaxed — `&mut self` proves exclusivity; every reader and
        // writer synchronized-with this thread before the drop.
        let t = self.table.load(Ordering::Relaxed);
        // SAFETY: exclusive access (`&mut self`). The current table and
        // each retired table came from `Box::into_raw` and are owned only
        // here — every allocation is freed exactly once.
        unsafe {
            drop(Box::from_raw(t));
            for &tp in &w.retired_tables {
                drop(Box::from_raw(tp));
            }
        }
    }
}

/// A sharded concurrent hash map from `i64` task keys to word-sized
/// values, with lock-free (seqlock-validated) reads.
pub struct ShardedMap<V> {
    shards: Box<[Shard]>,
    shift: u32,
    /// Values move between threads by copy, so the map is `Send` and
    /// `Sync` exactly when `V: Send` — the auto traits of `Mutex<V>`.
    _values: PhantomData<std::sync::Mutex<V>>,
}

impl<V> std::fmt::Debug for ShardedMap<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMap")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// Occupancy statistics, for the shard-count ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapStats {
    /// Total entries across shards.
    pub len: usize,
    /// Number of shards.
    pub shards: usize,
    /// Maximum entries in any one shard (imbalance indicator).
    pub max_shard_len: usize,
}

impl<V: Word> Default for ShardedMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Word> ShardedMap<V> {
    /// Map with a default shard count (4× available cores, rounded up to a
    /// power of two) — enough striping that the scheduler's task map is not
    /// a bottleneck at full core count.
    pub fn new() -> Self {
        Self::with_shards(default_shards())
    }

    /// Map with an explicit shard count (rounded up to a power of two).
    pub fn with_shards(shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        ShardedMap {
            shards: (0..shards).map(|_| Shard::new(64)).collect(),
            shift: 64 - shards.trailing_zeros(),
            _values: PhantomData,
        }
    }

    #[inline]
    fn shard_for(&self, key: i64) -> &Shard {
        // High bits pick the shard; low bits drive in-shard probing.
        let idx = if self.shards.len() == 1 {
            0
        } else {
            (hash_key(key) >> self.shift) as usize
        };
        &self.shards[idx]
    }

    /// Decode a word this map stored.
    #[inline]
    fn decode(w: u64) -> V {
        // SAFETY: every word in a slot came from `V::to_word` of a value
        // handed to this map, so this rebuilds that same value.
        unsafe { V::from_word(w) }
    }

    /// `InsertTaskIfAbsent`: atomically insert `make()` under `key` if no
    /// entry exists. Returns `true` if this call inserted. A key already
    /// present is detected lock-free; `make` runs under the shard lock only
    /// when an insert actually happens.
    pub fn insert_if_absent(&self, key: i64, make: impl FnOnce() -> V) -> bool {
        let shard = self.shard_for(key);
        if let Probe::Valid(Some(_)) = shard.try_read(key) {
            return false; // keys are never removed mid-run
        }
        let mut w = shard.writer.lock();
        if shard.probe_locked(shard.locked_table(), key).is_some() {
            return false;
        }
        shard.publish_insert(&mut w, key, make().to_word());
        true
    }

    /// `GetTask`: the current value for `key`. Lock-free: probes the
    /// published table and validates the shard sequence; only falls back
    /// to the shard lock after repeated writer interference.
    pub fn get(&self, key: i64) -> Option<V> {
        self.shard_for(key).read(key).map(Self::decode)
    }

    /// True if the map has an entry for `key`. Same lock-free path as
    /// [`ShardedMap::get`].
    pub fn contains(&self, key: i64) -> bool {
        self.shard_for(key).read(key).is_some()
    }

    /// `ReplaceTask`: insert or overwrite the value under `key`, returning
    /// the previous value if any.
    pub fn replace(&self, key: i64, value: V) -> Option<V> {
        self.update_cas(key, |cur| (Some(value), cur.copied()))
    }

    /// Atomically read-modify-write the entry for `key`.
    ///
    /// `f` receives the current value (if any) and returns `Some(new)` to
    /// store or `None` to leave the entry untouched. Returns the value the
    /// closure decided on, i.e. `f`'s output. This is the primitive behind
    /// the recovery table's `AtomicCompAndSwap(stored, life-1, life)`.
    pub fn update_cas<R>(&self, key: i64, f: impl FnOnce(Option<&V>) -> (Option<V>, R)) -> R {
        let shard = self.shard_for(key);
        let mut w = shard.writer.lock();
        let t = shard.locked_table();
        let slot = shard.probe_locked(t, key);
        // ord: Relaxed — lock-serialized slot read.
        let cur = slot.map(|i| Self::decode(t.slots[i].val.load(Ordering::Relaxed)));
        let (new, ret) = f(cur.as_ref());
        if let Some(v) = new {
            match slot {
                Some(i) => {
                    shard.store_value(t, i, v.to_word());
                }
                None => shard.publish_insert(&mut w, key, v.to_word()),
            }
        }
        ret
    }

    /// Total number of entries (takes each shard writer lock once).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.writer.lock().len).sum()
    }

    /// True if no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupancy statistics for diagnostics/ablation.
    pub fn stats(&self) -> MapStats {
        let lens: Vec<usize> = self.shards.iter().map(|s| s.writer.lock().len).collect();
        MapStats {
            len: lens.iter().sum(),
            shards: self.shards.len(),
            max_shard_len: lens.into_iter().max().unwrap_or(0),
        }
    }

    /// Remove all entries, retaining shard capacity.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut w = shard.writer.lock();
            let t = shard.locked_table();
            shard.write_begin();
            for slot in t.slots.iter() {
                // ord: Relaxed — inside a write window: readers that
                // overlap these stores fail sequence validation, so only
                // the window's Release edges need ordering.
                slot.full.store(false, Ordering::Relaxed);
            }
            shard.write_end();
            w.len = 0;
        }
    }

    /// Call `f(key, value)` for every entry, one shard lock at a time. Not
    /// atomic across shards; used after quiescence (metrics, verification).
    pub fn for_each(&self, mut f: impl FnMut(i64, V)) {
        for shard in self.shards.iter() {
            let _guard = shard.writer.lock();
            for slot in shard.locked_table().slots.iter() {
                // ord: Relaxed — slot reads are lock-serialized here.
                if slot.full.load(Ordering::Relaxed) {
                    // ord: Relaxed — lock-serialized slot reads, as above.
                    let k = slot.key.load(Ordering::Relaxed);
                    let w = slot.val.load(Ordering::Relaxed);
                    f(k, Self::decode(w));
                }
            }
        }
    }

    /// Snapshot of all `(key, value)` pairs (see [`ShardedMap::for_each`]).
    pub fn entries(&self) -> Vec<(i64, V)> {
        let mut out = Vec::new();
        self.for_each(|k, v| out.push((k, v)));
        out
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use ft_sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn insert_get_replace() {
        let m: ShardedMap<u64> = ShardedMap::with_shards(4);
        assert!(m.insert_if_absent(1, || 10));
        assert!(!m.insert_if_absent(1, || 11));
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.replace(1, 12), Some(10));
        assert_eq!(m.get(1), Some(12));
        assert_eq!(m.replace(2, 13), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn get_missing_is_none() {
        let m: ShardedMap<u32> = ShardedMap::with_shards(2);
        assert_eq!(m.get(42), None);
        assert!(!m.contains(42));
        assert!(m.is_empty());
    }

    #[test]
    fn negative_and_extreme_keys() {
        let m = ShardedMap::with_shards(8);
        for k in [i64::MIN, -1, 0, 1, i64::MAX] {
            assert!(m.insert_if_absent(k, || k));
            assert_eq!(m.get(k), Some(k));
        }
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn growth_preserves_entries() {
        let m = ShardedMap::with_shards(1);
        for k in 0..10_000i64 {
            assert!(m.insert_if_absent(k, || k * 2));
        }
        for k in 0..10_000i64 {
            assert_eq!(m.get(k), Some(k * 2), "key {k}");
        }
        let stats = m.stats();
        assert_eq!(stats.len, 10_000);
        assert_eq!(stats.shards, 1);
    }

    #[test]
    fn make_not_called_when_present() {
        let m = ShardedMap::with_shards(2);
        let calls = AtomicUsize::new(0);
        m.insert_if_absent(5, || {
            calls.fetch_add(1, Ordering::Relaxed);
            1
        });
        m.insert_if_absent(5, || {
            calls.fetch_add(1, Ordering::Relaxed);
            2
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn update_cas_models_recovery_table() {
        // IsRecovering semantics: insert life if absent (first observer
        // recovers); else CAS stored == life-1 -> life.
        let m: ShardedMap<u64> = ShardedMap::with_shards(4);
        let key = 9;
        let is_recovering = |life: u64| -> bool {
            m.update_cas(key, |cur| match cur {
                None => (Some(life), false),
                Some(&stored) if stored == life - 1 => (Some(life), false),
                Some(_) => (None, true),
            })
        };
        assert!(!is_recovering(1), "first observer recovers life 1");
        assert!(is_recovering(1), "second observer of life 1 does not");
        assert!(!is_recovering(2), "first observer of life 2 recovers");
        assert!(is_recovering(2));
        assert!(is_recovering(2));
    }

    #[test]
    fn clear_empties_map() {
        let m = ShardedMap::with_shards(4);
        for k in 0..100 {
            m.insert_if_absent(k, || k);
        }
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(5), None);
        // Reusable after clear.
        assert!(m.insert_if_absent(5, || 50));
        assert_eq!(m.get(5), Some(50));
    }

    #[test]
    fn entries_snapshot() {
        let m = ShardedMap::with_shards(4);
        for k in 0..50 {
            m.insert_if_absent(k, || k * 3);
        }
        let mut entries = m.entries();
        entries.sort();
        assert_eq!(entries.len(), 50);
        for (i, (k, v)) in entries.iter().enumerate() {
            assert_eq!(*k, i as i64);
            assert_eq!(*v, *k * 3);
        }
    }

    #[test]
    fn concurrent_insert_if_absent_exactly_one_winner() {
        let m: Arc<ShardedMap<usize>> = Arc::new(ShardedMap::with_shards(16));
        let winners = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for tid in 0..8 {
                let m = Arc::clone(&m);
                let winners = Arc::clone(&winners);
                s.spawn(move || {
                    for k in 0..1000i64 {
                        if m.insert_if_absent(k, || tid) {
                            winners.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(winners.load(Ordering::Relaxed), 1000);
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn concurrent_mixed_workload() {
        let m: Arc<ShardedMap<i64>> = Arc::new(ShardedMap::with_shards(8));
        thread::scope(|s| {
            for t in 0..4 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for k in 0..5000i64 {
                        match (k + t) % 3 {
                            0 => {
                                m.insert_if_absent(k, || k);
                            }
                            1 => {
                                if let Some(v) = m.get(k) {
                                    assert!(v == k || v == -k);
                                }
                            }
                            _ => {
                                m.update_cas(k, |cur| match cur {
                                    Some(&v) => (Some(v), ()),
                                    None => (None, ()),
                                });
                            }
                        }
                    }
                });
            }
        });
        // All inserted values are self-consistent.
        for (k, v) in m.entries() {
            assert_eq!(k, v);
        }
    }

    #[test]
    fn readers_never_block_through_growth_churn() {
        // One shard so every write interferes with every read: growth and
        // replace storms must still leave readers returning consistent
        // values (the seqlock fallback path is exercised here too).
        let m: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::with_shards(1));
        m.insert_if_absent(-1, || 7);
        let stop = Arc::new(ft_sync::atomic::AtomicBool::new(false));
        thread::scope(|s| {
            for _ in 0..3 {
                let m = Arc::clone(&m);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        assert_eq!(m.get(-1), Some(7), "pinned key lost");
                        assert_eq!(m.get(i64::MIN), None, "phantom key appeared");
                        reads += 1;
                    }
                    assert!(reads > 0);
                });
            }
            let m2 = Arc::clone(&m);
            s.spawn(move || {
                for k in 0..20_000i64 {
                    m2.insert_if_absent(k, || k as u64);
                    if k % 64 == 0 {
                        m2.replace(k, k as u64);
                    }
                }
                stop.store(true, Ordering::Release);
            });
        });
        assert_eq!(m.len(), 20_001);
    }

    #[test]
    fn replace_churn_readers_see_monotonic_values() {
        // A writer bumps one key 0→N; readers must only ever observe values
        // that were actually stored, never a torn or reclaimed one.
        let m: Arc<ShardedMap<u64>> = Arc::new(ShardedMap::with_shards(1));
        m.insert_if_absent(0, || 0);
        const N: u64 = 30_000;
        thread::scope(|s| {
            for _ in 0..3 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let mut last = 0u64;
                    loop {
                        let v = m.get(0).expect("key 0 always present");
                        assert!(v >= last, "value went backwards: {last} -> {v}");
                        assert!(v <= N);
                        last = v;
                        if v == N {
                            break;
                        }
                    }
                });
            }
            let m2 = Arc::clone(&m);
            s.spawn(move || {
                for v in 1..=N {
                    m2.replace(0, v);
                }
            });
        });
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let m: ShardedMap<u8> = ShardedMap::with_shards(5);
        assert_eq!(m.stats().shards, 8);
        let m: ShardedMap<u8> = ShardedMap::with_shards(0);
        assert_eq!(m.stats().shards, 1);
    }

    #[test]
    fn drop_frees_retired_garbage_exactly_once() {
        // Values are inline words, so the only retired garbage is probe
        // tables: one per growth, each freed exactly once when the map
        // drops (Miri's leak and double-free checks cover the drop).
        let m: ShardedMap<u64> = ShardedMap::with_shards(1);
        let retired = |m: &ShardedMap<u64>| m.shards[0].writer.lock().retired_tables.len();
        for k in 0..1000 {
            m.insert_if_absent(k, || k as u64);
        }
        // 64 → 128 → 256 → 512 → 1024 → 2048 slots at load factor 0.7.
        assert_eq!(retired(&m), 5);
        for k in 0..1000 {
            assert_eq!(m.replace(k, k as u64 + 1), Some(k as u64));
        }
        m.clear();
        assert_eq!(retired(&m), 5, "replace and clear retire nothing");
        assert!(m.insert_if_absent(3, || 30));
        assert_eq!(m.get(3), Some(30));
        drop(m);
    }

    #[test]
    fn default_shard_count_is_four_per_core() {
        let cores = std::thread::available_parallelism().map_or(8, |n| n.get());
        let m: ShardedMap<u64> = ShardedMap::new();
        assert_eq!(m.stats().shards, (cores * 4).next_power_of_two());
        assert_eq!(std::mem::align_of::<Shard>(), 128);
    }
}
