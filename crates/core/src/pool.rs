//! The recycle pool: sharded storage, indexes and lineage bookkeeping.
//!
//! Since the sharding PR the pool is itself a concurrent structure: the
//! signature-keyed stores are split into N independent shards (N = the
//! next power of two ≥ 2× the core count) so that admissions from
//! different sessions touch disjoint locks and the exact-match hit path
//! never needs more than one shard **read** lock. See [`crate::shared`]
//! for the full locking model; this module holds the mechanics.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use rbat::hash::{FxHashMap, FxHashSet, FxHasher};
use rbat::BatId;
use rmal::Opcode;

use crate::entry::{EntryId, PoolEntry};
use crate::signature::{ArgSig, ArtifactKind, Sig};
use crate::tier::TierState;

/// Outcome of [`RecyclePool::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admitted {
    /// The entry was inserted under this id.
    Inserted(EntryId),
    /// An equivalent entry was already resident under this id; the
    /// candidate was dropped, the resident entry was pinned on behalf of
    /// the losing session, and the loser's result BAT was aliased onto the
    /// winner (all atomically under the shard lock).
    Duplicate(EntryId),
    /// A parent entry disappeared between resolution and insertion (an
    /// update invalidated it); the candidate was dropped — admitting it
    /// would leave a dangling lineage link.
    Orphaned,
    /// The target shard is quarantined after a poisoning panic (see
    /// [`RecyclePool::repair`]); the candidate was rejected without
    /// touching the shard. The caller refunds its admission charge —
    /// degraded mode costs a cache miss, never a wrong answer.
    Quarantined,
}

impl Admitted {
    /// The resident entry id, whoever admitted it.
    ///
    /// # Panics
    /// Panics on [`Admitted::Orphaned`] and [`Admitted::Quarantined`],
    /// which leave nothing resident.
    pub fn id(self) -> EntryId {
        match self {
            Admitted::Inserted(id) | Admitted::Duplicate(id) => id,
            Admitted::Orphaned => panic!("orphaned admission has no resident entry"),
            Admitted::Quarantined => panic!("quarantined admission has no resident entry"),
        }
    }

    /// Did this call insert the entry?
    pub fn inserted(self) -> bool {
        matches!(self, Admitted::Inserted(_))
    }
}

fn fx_hash<K: Hash>(k: &K) -> u64 {
    let mut h = FxHasher::default();
    k.hash(&mut h);
    h.finish()
}

/// A hash map split into power-of-two sub-maps, each behind its own
/// `RwLock` — the cross-shard lineage indexes (result ownership, child
/// edges, subset relation) live in these so concurrent admissions from
/// different sessions rarely contend.
///
/// Lock discipline: sub-map locks are **leaf locks** in the shard tier's
/// shadow — they may be taken while holding a shard lock (that is the
/// documented order), and a holder must never acquire a shard lock or a
/// second sub-map lock. One exception is carved out: the child-edge index
/// (`children`) may acquire an *evictable-leaf index* (`leaves`) sub-map
/// lock — and read the `owner` index — inside its critical section: the
/// 0↔1 child-count transition, the residency probe of the re-leafed
/// parent and the matching leaf-set update must be atomic, or racing
/// edge wirings and removals could leave the leaf index permanently
/// wrong. The order is fixed (`children` → `owner`/`leaves`, never the
/// reverse) and `owner`/`leaves` sub-map locks remain true leaves, so
/// the hierarchy stays acyclic.
pub(crate) struct ShardedIndex<K, V> {
    maps: Box<[RwLock<FxHashMap<K, V>>]>,
}

impl<K: Hash + Eq + Clone, V> ShardedIndex<K, V> {
    pub(crate) fn new(submaps: usize) -> ShardedIndex<K, V> {
        let n = submaps.next_power_of_two().max(2);
        ShardedIndex {
            maps: (0..n).map(|_| RwLock::new(FxHashMap::default())).collect(),
        }
    }

    fn map_for(&self, k: &K) -> &RwLock<FxHashMap<K, V>> {
        let i = (fx_hash(k) as usize) & (self.maps.len() - 1);
        &self.maps[i]
    }

    fn read_for(&self, k: &K) -> RwLockReadGuard<'_, FxHashMap<K, V>> {
        self.map_for(k)
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn write_for(&self, k: &K) -> RwLockWriteGuard<'_, FxHashMap<K, V>> {
        self.map_for(k)
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `f` over the value stored for `k` (or `None`).
    pub(crate) fn with<R>(&self, k: &K, f: impl FnOnce(Option<&V>) -> R) -> R {
        f(self.read_for(k).get(k))
    }

    pub(crate) fn get_clone(&self, k: &K) -> Option<V>
    where
        V: Clone,
    {
        self.read_for(k).get(k).cloned()
    }

    pub(crate) fn contains(&self, k: &K) -> bool {
        self.read_for(k).contains_key(k)
    }

    pub(crate) fn insert(&self, k: K, v: V) -> Option<V> {
        self.write_for(&k).insert(k, v)
    }

    pub(crate) fn remove(&self, k: &K) -> Option<V> {
        self.write_for(k).remove(k)
    }

    /// Mutate the sub-map holding `k` (entry-style updates).
    pub(crate) fn alter<R>(&self, k: &K, f: impl FnOnce(&mut FxHashMap<K, V>) -> R) -> R {
        f(&mut self.write_for(k))
    }

    pub(crate) fn retain(&self, mut f: impl FnMut(&K, &mut V) -> bool) {
        for m in self.maps.iter() {
            m.write()
                .unwrap_or_else(PoisonError::into_inner)
                .retain(|k, v| f(k, v));
        }
    }

    pub(crate) fn clear(&self) {
        for m in self.maps.iter() {
            m.write().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }

    pub(crate) fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for m in self.maps.iter() {
            for (k, v) in m.read().unwrap_or_else(PoisonError::into_inner).iter() {
                f(k, v);
            }
        }
    }

    /// A point-in-time copy of every row (one sub-map lock at a time).
    fn snapshot(&self) -> FxHashMap<K, V>
    where
        V: Clone,
    {
        let mut out = FxHashMap::default();
        self.for_each(|k, v| {
            out.insert(k.clone(), v.clone());
        });
        out
    }

    /// Replace every row with `rows`.
    fn store(&self, rows: FxHashMap<K, V>) {
        self.clear();
        for (k, v) in rows {
            self.insert(k, v);
        }
    }
}

/// One signature shard: the slab of entries whose signatures hash here
/// with the exact-match index over the same entries. Everything in a shard
/// is guarded by the shard's `RwLock`. (The subsumption candidate index
/// used to live here too; it moved into a sharded side-map so a miss-path
/// candidate probe costs one sub-map lock instead of N shard read locks.)
#[derive(Default)]
struct Shard {
    entries: FxHashMap<EntryId, PoolEntry>,
    by_sig: FxHashMap<Sig, EntryId>,
}

/// The default shard count: the next power of two at or above twice the
/// core count, floored at 8 so sharding stays observable on small hosts.
fn default_shard_count() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (2 * cores).next_power_of_two().max(8)
}

/// What one entry charges the pool's books. [`Charge::of`] is the only
/// rule mapping an entry's residency tier and payload to book amounts:
/// every site that changes an entry moves the books by `sub` of its
/// charge before and `add` of its charge after.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Charge {
    /// Bytes of raw entries.
    raw: usize,
    /// Bytes of in-memory compressed blobs.
    compressed: usize,
    /// Bytes of spilled records on disk — off-cap, they count against
    /// the spill budget instead.
    spilled: usize,
    /// Bytes of operator-state artifacts: a subset of `raw` (artifacts
    /// never demote).
    artifact: usize,
}

impl Charge {
    fn of(e: &PoolEntry) -> Charge {
        match &e.tier {
            TierState::Raw => Charge {
                raw: e.bytes,
                artifact: if e.artifact.is_some() { e.bytes } else { 0 },
                ..Charge::default()
            },
            TierState::Compressed(_) => Charge {
                compressed: e.bytes,
                ..Charge::default()
            },
            TierState::Spilled(t) => Charge {
                spilled: t.len as usize,
                ..Charge::default()
            },
        }
    }

    /// Bytes counted against the memory cap.
    fn resident(&self) -> usize {
        self.raw + self.compressed
    }

    /// The amounts in [`ShardBook`] cell order.
    fn amounts(&self) -> [usize; 4] {
        [self.raw, self.compressed, self.spilled, self.artifact]
    }
}

impl std::ops::AddAssign for Charge {
    fn add_assign(&mut self, o: Charge) {
        self.raw += o.raw;
        self.compressed += o.compressed;
        self.spilled += o.spilled;
        self.artifact += o.artifact;
    }
}

/// One shard's book: the [`Charge`] sum of its entries, in atomics so
/// readers take no lock. Cells follow [`Charge::amounts`] order.
#[derive(Default)]
struct ShardBook([AtomicUsize; 4]);

impl ShardBook {
    fn load(&self) -> Charge {
        let [raw, compressed, spilled, artifact] =
            self.0.each_ref().map(|a| a.load(Ordering::Relaxed));
        Charge {
            raw,
            compressed,
            spilled,
            artifact,
        }
    }
}

/// The pool's books: one [`ShardBook`] per shard plus the pool-wide
/// resident-byte and entry totals. `add`/`sub` (and `enter`/`leave`, which
/// also count the entry) are the only writers, always under the shard's
/// write lock, besides [`RecyclePool::store`] replacing them wholesale.
/// Zero amounts are skipped, so an insert or removal costs one atomic
/// read-modify-write per non-zero field.
struct Books {
    shards: Box<[ShardBook]>,
    bytes: AtomicUsize,
    entries: AtomicUsize,
}

impl Books {
    fn new(shards: usize) -> Books {
        Books {
            shards: (0..shards).map(|_| ShardBook::default()).collect(),
            bytes: AtomicUsize::new(0),
            entries: AtomicUsize::new(0),
        }
    }

    fn add(&self, si: usize, c: &Charge) {
        self.apply(si, c, AtomicUsize::fetch_add);
    }

    fn sub(&self, si: usize, c: &Charge) {
        self.apply(si, c, AtomicUsize::fetch_sub);
    }

    /// Move shard `si`'s cells and the pool's resident-byte total by the
    /// non-zero amounts of `c`.
    fn apply(&self, si: usize, c: &Charge, op: fn(&AtomicUsize, usize, Ordering) -> usize) {
        let cells = self.shards[si].0.iter().chain([&self.bytes]);
        for (cell, v) in cells.zip(c.amounts().into_iter().chain([c.resident()])) {
            if v != 0 {
                op(cell, v, Ordering::Relaxed);
            }
        }
    }

    /// An entry charging `c` became resident in shard `si`.
    fn enter(&self, si: usize, c: &Charge) {
        self.add(si, c);
        self.entries.fetch_add(1, Ordering::Relaxed);
    }

    /// An entry charging `c` left shard `si`.
    fn leave(&self, si: usize, c: &Charge) {
        self.sub(si, c);
        self.entries.fetch_sub(1, Ordering::Relaxed);
    }

    /// The pool-wide sum of the shard books.
    fn total(&self) -> Charge {
        let mut t = Charge::default();
        for b in self.shards.iter() {
            t += b.load();
        }
        t
    }

    /// Overwrite every book with the derivation `d`.
    fn store(&self, d: &Derived) {
        for (si, b) in self.shards.iter().enumerate() {
            let c = d.books.get(&si).copied().unwrap_or_default();
            for (cell, v) in b.0.iter().zip(c.amounts()) {
                cell.store(v, Ordering::Relaxed);
            }
        }
        self.bytes.store(d.bytes(), Ordering::Relaxed);
        self.entries.store(d.entries, Ordering::Relaxed);
    }
}

/// The subsumption-candidate key of a signature: `(opcode, first
/// argument)` for result entries. Operator-state artifacts are not tuple
/// supersets of anything, so they are never candidates.
fn candidate_key(sig: &Sig) -> Option<(Opcode, ArgSig)> {
    if sig.kind != ArtifactKind::Result {
        return None;
    }
    sig.first_arg().map(|a| (sig.op, a.clone()))
}

/// The pool state derived from a set of shard slabs by
/// [`RecyclePool::derive`]: what the books and side indexes must hold.
/// [`RecyclePool::check_invariants`] diffs the stored state against it,
/// [`RecyclePool::repair`] stores it, and [`RecyclePool::clear`] stores
/// the empty one. The evictable-leaf index is maintained incrementally
/// at the insert/remove funnels; only its check and rebuild live here.
#[derive(Default)]
struct Derived {
    /// Per-shard [`Charge`] sums, keyed by shard index.
    books: FxHashMap<usize, Charge>,
    /// Resident entries.
    entries: usize,
    /// Entry → shard.
    owner: FxHashMap<EntryId, usize>,
    /// Parent → dependents.
    children: FxHashMap<EntryId, FxHashSet<EntryId>>,
    /// The childless entries.
    leaves: FxHashMap<EntryId, ()>,
    /// Subsumption candidates per [`candidate_key`], ids ascending.
    by_op_arg0: FxHashMap<(Opcode, ArgSig), Vec<EntryId>>,
    /// Resident entries per admitting session.
    by_session: FxHashMap<u64, u64>,
    /// The live rows of the result-keyed maps: result and alias rows of
    /// resident entries, subset edges of result BATs still indexed.
    by_result: FxHashMap<BatId, EntryId>,
    result_aliases: FxHashMap<EntryId, Vec<BatId>>,
    supersets: FxHashMap<BatId, Vec<BatId>>,
}

impl Derived {
    fn bytes(&self) -> usize {
        self.books.values().map(Charge::resident).sum()
    }
}

/// Compare a stored fact with its derivation, naming the first key on
/// which they differ.
fn diff<K: Hash + Eq + std::fmt::Debug, V: PartialEq + std::fmt::Debug>(
    what: &str,
    stored: &FxHashMap<K, V>,
    derived: &FxHashMap<K, V>,
) -> Result<(), String> {
    match stored
        .keys()
        .chain(derived.keys())
        .find(|k| stored.get(k) != derived.get(k))
    {
        None => Ok(()),
        Some(k) => Err(format!(
            "{what} {k:?}: stored {:?} != derived {:?}",
            stored.get(k),
            derived.get(k)
        )),
    }
}

/// The recycler's resource pool of intermediates (paper §3.2), sharded by
/// signature hash. Besides the per-shard entry store and exact-match index
/// it maintains the cross-shard lineage indexes:
///
/// * `owner`: entry id → shard index (O(1) routing for id-based access),
/// * `by_result`: result `BatId` → entry (parent resolution, admission
///   coherence), plus per-entry duplicate-admission aliases,
/// * `children`: dependents per entry, so eviction restricts itself to
///   *leaf* instructions (paper §4.3),
/// * `leaves`: the **incremental evictable-leaf index** — the set of
///   childless entries, maintained at the insert/remove funnels so an
///   eviction round gathers its candidates in O(leaves) instead of
///   re-scanning the whole pool ([`Self::for_each_leaf_entry`]). Pin
///   state deliberately stays *out* of the index (pins flip on the
///   read-lock-only hit path); pinned leaves are listed and skipped at
///   gather, and revalidated again at removal,
/// * `supersets`: a subset relation over result BATs (`result ⊆ operand`)
///   supporting semijoin subsumption (§5.1).
///
/// # Concurrency
///
/// All methods take `&self`; locking is internal. Probes (`lookup`,
/// [`Self::probe`], [`Self::candidates`], [`Self::is_subset`]) take shard
/// **read** locks (or one sub-map lock) only; [`Self::insert`] and the
/// removal paths write-lock exactly one shard; updates/propagation
/// write-lock only the shards holding affected entries through
/// [`Self::scoped_view`] (the all-shard [`Self::write_view`] remains for
/// maintenance). Every stored result `Value` is `Arc`-shared — a result
/// cloned out of the pool stays valid after the entry is evicted or
/// invalidated. Lineage mutations always happen while holding at least one
/// shard lock, so a scoped view holding the write locks of every affected
/// shard observes fully wired, quiescent lineage for those entries.
pub struct RecyclePool {
    shards: Box<[RwLock<Shard>]>,
    /// Per-shard [`Charge`] sums by residency tier plus the pool's byte
    /// and entry totals. A shard's resident bytes are its `raw +
    /// compressed`; spilled bytes live off-cap. Moved by the insert/remove
    /// funnels, the tier transitions ([`Self::demote_compress`],
    /// [`Self::demote_spill`], [`Self::promote`]) and the scoped view's
    /// resize and rekey, always under the owning shard's write lock.
    books: Books,
    /// The spill block file backing [`TierState::Spilled`] entries, when
    /// the database opted in via `spill_dir`.
    spill: Option<Arc<crate::tier::SpillFile>>,
    owner: ShardedIndex<EntryId, usize>,
    by_result: ShardedIndex<BatId, EntryId>,
    result_aliases: ShardedIndex<EntryId, Vec<BatId>>,
    children: ShardedIndex<EntryId, FxHashSet<EntryId>>,
    /// Incremental evictable-leaf index: exactly the resident entries with
    /// no dependents. A new entry enters at [`Self::insert`] (it cannot
    /// have children yet); a parent leaves when its first child edge is
    /// wired and returns when `remove_locked` severs its last one — both
    /// transitions happen inside the `children` sub-map critical section
    /// (the one sanctioned `children` → `leaves` nesting), so the index
    /// can never drift from the child-edge index. Eviction gathers from
    /// here in O(leaves); [`Self::check_invariants`] verifies the index
    /// against the brute-force childless set.
    leaves: ShardedIndex<EntryId, ()>,
    /// Live size of `leaves`, bumped exactly where the index changes (the
    /// insert/remove return values gate the counter), so stats probes are
    /// O(1) instead of iterating every sub-map per wire Stats frame.
    leaf_count: AtomicUsize,
    supersets: ShardedIndex<BatId, Vec<BatId>>,
    /// Subsumption candidate index `(opcode, first-argument signature) →
    /// entries`, kept as a cross-shard side-map (entries with the same
    /// opcode+operand scatter over the signature shards): a miss-path
    /// candidate probe takes ONE sub-map read lock, not N shard locks.
    by_op_arg0: ShardedIndex<(Opcode, ArgSig), Vec<EntryId>>,
    /// Resident entries per admitting session — the book the per-session
    /// admission budget reads. Maintained at the single insert/remove
    /// funnels ([`Self::insert`] / `remove_locked`), so every removal path
    /// (eviction, invalidation, propagation rekey clashes, `clear`)
    /// releases the admitting session's budget automatically.
    by_session: ShardedIndex<u64, u64>,
    next_id: AtomicU64,
    /// Shard write-lock acquisitions since construction — the probe for
    /// the "exact-match hits take no write lock" invariant.
    write_acquisitions: AtomicU64,
    /// The same counter, per shard — the probe for the scoped-update
    /// invariant: a commit write-locks only the shards holding entries in
    /// its lineage closure.
    shard_write_acquisitions: Box<[AtomicU64]>,
    /// Entries visited by eviction gathers since construction — the probe
    /// for the "gather cost is O(leaves), independent of pool size"
    /// invariant the leaf index buys.
    gather_visited: AtomicU64,
    /// Eviction gather rounds since construction (the divisor for
    /// per-round gather cost).
    gather_rounds: AtomicU64,
    /// Serialises structural multi-shard writers (scoped views, the
    /// all-shard view, `clear`, `check_invariants`). With at most one such
    /// writer alive, a view may acquire an extra shard lock *out of
    /// ascending order* (rekey migration, racing child admissions) without
    /// deadlock: every other thread holds at most one shard lock at a time
    /// and never blocks on a second while holding it.
    update_lock: Mutex<()>,
    /// The background collector's nursery: a bounded ring of recently-
    /// leafed entry ids, fed at the leaf index's 0↔1 transition sites
    /// (fresh inserts and re-leafed parents) so minor collector rounds
    /// can sweep the youngest generation without touching the full leaf
    /// index. Its mutex is a true leaf lock — pushes happen after the
    /// `leaves` sub-map lock is released (possibly still inside a
    /// `children` critical section; order `children` → nursery, never the
    /// reverse), and nothing is acquired while holding it.
    nursery: crate::collector::Nursery,
    /// Per-shard quarantine bits — the degraded-mode source of truth. A
    /// bit is raised the first time a shard's `RwLock` is observed
    /// poisoned (a panic unwound through a writer holding it, so its
    /// slab/index wiring may be torn). While raised: probes against the
    /// shard degrade to misses, admissions targeting it come back as
    /// [`Admitted::Quarantined`], and eviction skips it — a miss is
    /// always correct, torn state is never served or extended. Only
    /// [`Self::repair`] (under the maintenance guard) or [`Self::clear`]
    /// lower a bit.
    quarantined: Box<[AtomicBool]>,
    /// Shards currently quarantined (O(1) `has_quarantined` probe on the
    /// commit path).
    quarantined_count: AtomicUsize,
    /// Cumulative shards ever quarantined (stats).
    quarantined_total: AtomicU64,
    /// Cumulative shards repaired and returned to service (stats).
    repaired_total: AtomicU64,
}

/// What [`RecyclePool::repair`] did — counts for the stats layer and
/// for byte-book assertions in tests.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// Shards that were quarantined and have been returned to service.
    pub shards_repaired: Vec<usize>,
    /// Entries dropped: torn (half-wired) residents of repaired shards
    /// plus any entry whose lineage chain died with them.
    pub entries_dropped: usize,
    /// Bytes of the dropped entries. The books are recomputed from the
    /// surviving slabs, which refunds them and heals any counter drift
    /// a mid-flight panic left.
    pub bytes_dropped: usize,
}

impl std::fmt::Debug for RecyclePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecyclePool")
            .field("shards", &self.shards.len())
            .field("entries", &self.len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

impl Default for RecyclePool {
    fn default() -> RecyclePool {
        RecyclePool::new()
    }
}

impl RecyclePool {
    /// Empty pool with the default shard count (next power of two ≥
    /// 2×cores, at least 8).
    pub fn new() -> RecyclePool {
        RecyclePool::with_shards(default_shard_count())
    }

    /// Empty pool with an explicit shard count (rounded up to a power of
    /// two, minimum 1). Benchmarks use 1 to reproduce the pre-shard
    /// single-lock behaviour.
    pub fn with_shards(n: usize) -> RecyclePool {
        let n = n.max(1).next_power_of_two();
        RecyclePool {
            shards: (0..n).map(|_| RwLock::new(Shard::default())).collect(),
            books: Books::new(n),
            spill: None,
            owner: ShardedIndex::new(n),
            by_result: ShardedIndex::new(n),
            result_aliases: ShardedIndex::new(n),
            children: ShardedIndex::new(n),
            leaves: ShardedIndex::new(n),
            leaf_count: AtomicUsize::new(0),
            supersets: ShardedIndex::new(n),
            by_op_arg0: ShardedIndex::new(n),
            by_session: ShardedIndex::new(n),
            next_id: AtomicU64::new(0),
            write_acquisitions: AtomicU64::new(0),
            shard_write_acquisitions: (0..n).map(|_| AtomicU64::new(0)).collect(),
            gather_visited: AtomicU64::new(0),
            gather_rounds: AtomicU64::new(0),
            update_lock: Mutex::new(()),
            nursery: crate::collector::Nursery::new(),
            quarantined: (0..n).map(|_| AtomicBool::new(false)).collect(),
            quarantined_count: AtomicUsize::new(0),
            quarantined_total: AtomicU64::new(0),
            repaired_total: AtomicU64::new(0),
        }
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a signature belongs to: its stable fingerprint masked by
    /// the shard count. Deterministic for the pool's lifetime.
    pub fn shard_of(&self, sig: &Sig) -> usize {
        (sig.fingerprint() as usize) & (self.shards.len() - 1)
    }

    /// Resident bytes of one shard.
    pub fn shard_bytes(&self, shard: usize) -> usize {
        self.books.shards[shard].load().resident()
    }

    /// Shard write-lock acquisitions since construction. The exact-match
    /// hit path must never advance this counter — tests pin that down.
    pub fn write_lock_acquisitions(&self) -> u64 {
        self.write_acquisitions.load(Ordering::Relaxed)
    }

    /// Per-shard write-lock acquisitions since construction, indexed by
    /// shard. The scoped-update invariant reads off this: a commit touching
    /// one table must advance only the counters of shards holding entries
    /// in its lineage closure — every other shard's counter stays put.
    pub fn write_lock_acquisitions_by_shard(&self) -> Vec<u64> {
        self.shard_write_acquisitions
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    fn read_shard(&self, i: usize) -> RwLockReadGuard<'_, Shard> {
        match self.shards[i].read() {
            Ok(g) => g,
            Err(poisoned) => {
                self.note_poison(i);
                poisoned.into_inner()
            }
        }
    }

    fn write_shard(&self, i: usize) -> RwLockWriteGuard<'_, Shard> {
        self.write_acquisitions.fetch_add(1, Ordering::Relaxed);
        self.shard_write_acquisitions[i].fetch_add(1, Ordering::Relaxed);
        match self.shards[i].write() {
            Ok(g) => g,
            Err(poisoned) => {
                self.note_poison(i);
                poisoned.into_inner()
            }
        }
    }

    /// Raise shard `i`'s quarantine bit (idempotent). Called the moment
    /// poison is observed — at a lock acquisition or a lock-free
    /// `is_poisoned` probe on the hit path.
    fn note_poison(&self, i: usize) {
        if !self.quarantined[i].swap(true, Ordering::AcqRel) {
            self.quarantined_count.fetch_add(1, Ordering::Relaxed);
            self.quarantined_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// May shard `i` serve probes and admissions? False once the shard
    /// is quarantined — including the very first probe after the
    /// poisoning panic, via the lock's own poison flag (two relaxed-ish
    /// atomic loads; the exact-match hit path pays exactly this).
    fn shard_serviceable(&self, i: usize) -> bool {
        if self.quarantined[i].load(Ordering::Acquire) {
            return false;
        }
        if self.shards[i].is_poisoned() {
            self.note_poison(i);
            return false;
        }
        true
    }

    /// Is shard `i` currently quarantined?
    pub fn is_quarantined(&self, i: usize) -> bool {
        !self.shard_serviceable(i)
    }

    /// Does any shard currently sit in quarantine? O(1); the commit path
    /// consults this to refuse updates through torn state.
    pub fn has_quarantined(&self) -> bool {
        if self.quarantined_count.load(Ordering::Acquire) > 0 {
            return true;
        }
        // A poisoned shard nobody has touched since the panic hasn't
        // raised its bit yet; sweep the cheap lock flags.
        (0..self.shards.len()).any(|i| !self.shard_serviceable(i))
    }

    /// Indexes of the shards currently quarantined.
    pub fn quarantined_shards(&self) -> Vec<usize> {
        (0..self.shards.len())
            .filter(|&i| !self.shard_serviceable(i))
            .collect()
    }

    /// Cumulative shards ever quarantined (monotone; stats).
    pub fn shards_quarantined_total(&self) -> u64 {
        self.quarantined_total.load(Ordering::Relaxed)
    }

    /// Cumulative shards repaired and returned to service (monotone;
    /// stats).
    pub fn shards_repaired_total(&self) -> u64 {
        self.repaired_total.load(Ordering::Relaxed)
    }

    fn lock_update(&self) -> MutexGuard<'_, ()> {
        self.update_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of entries ("cache lines").
    pub fn len(&self) -> usize {
        self.books.entries.load(Ordering::Relaxed)
    }

    /// Is the pool empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total resident bytes of stored intermediates.
    pub fn bytes(&self) -> usize {
        self.books.bytes.load(Ordering::Relaxed)
    }

    /// Allocate the next entry id (monotone, never reused — also across
    /// [`Self::clear`], so stale references can never alias a new entry).
    pub fn alloc_id(&self) -> EntryId {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Drop every entry and index while keeping the id counter monotone.
    ///
    /// Atomic with respect to concurrent sessions: every shard write lock
    /// is held at once (ascending order) while the slabs, the lineage
    /// indexes and the counters are wiped — a racing admission lands
    /// either entirely before the clear (and is wiped) or entirely after
    /// it (and stays fully wired). A shard-at-a-time clear would let an
    /// insert slip into an already-cleared shard and then lose its owner
    /// mapping, leaving an immortal, unreachable entry.
    pub fn clear(&self) {
        let _writer = self.lock_update();
        let mut guards: Vec<RwLockWriteGuard<'_, Shard>> = (0..self.shards.len())
            .map(|i| self.write_shard(i))
            .collect();
        for sh in guards.iter_mut() {
            sh.entries.clear();
            sh.by_sig.clear();
        }
        if let Some(spill) = &self.spill {
            spill.clear();
        }
        self.store(Derived::default());
        // A full wipe trivially restores every invariant: lift any
        // quarantine while the write guards are still held.
        for i in 0..self.shards.len() {
            self.lift_quarantine(i);
        }
        drop(guards);
    }

    /// Return shard `i` to service: clear its lock poison and lower its
    /// quarantine bit. The caller holds the shard's write lock, so no
    /// probe can observe a poisoned lock with its bit already lowered.
    fn lift_quarantine(&self, i: usize) {
        self.shards[i].clear_poison();
        if self.quarantined[i].swap(false, Ordering::AcqRel) {
            self.quarantined_count.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Derive the books and side indexes from `shards`' slabs (see
    /// [`Derived`]). The result-keyed maps are read from their stored
    /// rows, keeping those whose entry the slabs hold. The caller holds
    /// the shards' locks.
    fn derive<'s>(&self, shards: impl IntoIterator<Item = (usize, &'s Shard)>) -> Derived {
        let mut d = Derived::default();
        for (si, sh) in shards {
            let book = d.books.entry(si).or_default();
            for (id, e) in &sh.entries {
                *book += Charge::of(e);
                d.entries += 1;
                d.owner.insert(*id, si);
                for p in &e.parents {
                    d.children.entry(*p).or_default().insert(*id);
                }
                if let Some(key) = candidate_key(&e.sig) {
                    d.by_op_arg0.entry(key).or_default().push(*id);
                }
                *d.by_session.entry(e.admitted_session).or_insert(0) += 1;
            }
        }
        for ids in d.by_op_arg0.values_mut() {
            ids.sort_unstable();
        }
        d.leaves = d
            .owner
            .keys()
            .filter(|id| !d.children.contains_key(id))
            .map(|id| (*id, ()))
            .collect();
        d.by_result = self.by_result.snapshot();
        d.by_result.retain(|_, id| d.owner.contains_key(id));
        d.result_aliases = self.result_aliases.snapshot();
        d.result_aliases.retain(|id, _| d.owner.contains_key(id));
        d.supersets = self.supersets.snapshot();
        d.supersets.retain(|b, _| d.by_result.contains_key(b));
        d
    }

    /// Replace the books and every side index with `d`. The caller holds
    /// every shard write lock.
    fn store(&self, d: Derived) {
        self.books.store(&d);
        self.leaf_count.store(d.leaves.len(), Ordering::Relaxed);
        self.nursery.clear();
        self.owner.store(d.owner);
        self.children.store(d.children);
        self.leaves.store(d.leaves);
        self.by_op_arg0.store(d.by_op_arg0);
        self.by_session.store(d.by_session);
        self.by_result.store(d.by_result);
        self.result_aliases.store(d.result_aliases);
        self.supersets.store(d.supersets);
    }

    /// Repair every quarantined shard and return it to service.
    ///
    /// A panic that unwound through a shard write lock can leave *torn*
    /// state: an exact-match key without its slab entry, a leaf/owner
    /// listing for an id that never became resident, byte counters that
    /// drifted from the slab. Quarantine froze all of it (probes miss,
    /// admissions bounce, eviction skips); this pass — meant to run
    /// under the maintenance guard, see
    /// [`crate::shared::MaintenanceGuard::repair_quarantined`] — makes
    /// the frozen state consistent again:
    ///
    /// 1. every shard write lock is taken at once (ascending, under the
    ///    update mutex), so the pass owns all pool state;
    /// 2. quarantined slabs drop misfiled or duplicate-signature
    ///    residents and rebuild their exact-match index from the slab;
    /// 3. entries whose lineage chain died (a dropped ancestor anywhere)
    ///    are cascaded out — a child may never outlive its parents;
    /// 4. the books and side indexes are replaced by [`Self::derive`]
    ///    over the surviving slabs — the same derivation
    ///    [`Self::check_invariants`] compares against — healing drift in
    ///    either direction; lock poison is cleared and the quarantine
    ///    bits lowered while the write guards are still held.
    ///
    /// Afterwards [`Self::check_invariants`] holds again (tests assert
    /// it). Dropped entries cost misses, never wrong answers: their
    /// results were only reachable through indexes this pass prunes,
    /// and pins held on them by in-flight queries unpin as no-ops.
    pub fn repair(&self) -> RepairReport {
        let _writer = self.lock_update();
        let mut guards: Vec<RwLockWriteGuard<'_, Shard>> = (0..self.shards.len())
            .map(|i| self.write_shard(i))
            .collect();
        // With every lock held, each poisoned shard has been observed by
        // `write_shard` and carries its quarantine bit.
        let broken: Vec<usize> = (0..self.shards.len())
            .filter(|&i| self.quarantined[i].load(Ordering::Acquire))
            .collect();
        if broken.is_empty() {
            return RepairReport::default();
        }
        let mut dropped: Vec<PoolEntry> = Vec::new();
        // 2. Slab-local coherence for the broken shards.
        for &si in &broken {
            let sh = &mut *guards[si];
            let misfiled: Vec<EntryId> = sh
                .entries
                .iter()
                .filter(|(k, e)| **k != e.id || self.shard_of(&e.sig) != si)
                .map(|(k, _)| *k)
                .collect();
            for id in misfiled {
                if let Some(e) = sh.entries.remove(&id) {
                    dropped.push(e);
                }
            }
            sh.by_sig.clear();
            let mut losers: Vec<EntryId> = Vec::new();
            for (id, e) in sh.entries.iter() {
                match sh.by_sig.get(&e.sig) {
                    // Two residents with one signature cannot both stay;
                    // keep the older id (first-writer-wins, as insert
                    // would have resolved it).
                    Some(&prev) if prev <= *id => losers.push(*id),
                    Some(&prev) => {
                        losers.push(prev);
                        sh.by_sig.insert(e.sig.clone(), *id);
                    }
                    None => {
                        sh.by_sig.insert(e.sig.clone(), *id);
                    }
                }
            }
            for id in losers {
                if let Some(e) = sh.entries.remove(&id) {
                    dropped.push(e);
                }
            }
        }
        // 3. Cascade: no resident may reference a dead parent.
        let mut resident: FxHashSet<EntryId> = FxHashSet::default();
        for g in guards.iter() {
            resident.extend(g.entries.keys().copied());
        }
        loop {
            let mut doomed: Vec<(usize, EntryId)> = Vec::new();
            for (si, g) in guards.iter().enumerate() {
                for (id, e) in g.entries.iter() {
                    if e.parents.iter().any(|p| !resident.contains(p)) {
                        doomed.push((si, *id));
                    }
                }
            }
            if doomed.is_empty() {
                break;
            }
            for (si, id) in doomed {
                resident.remove(&id);
                if let Some(e) = guards[si].entries.remove(&id) {
                    guards[si].by_sig.remove(&e.sig);
                    dropped.push(e);
                }
            }
        }
        // 4. Books and side indexes from the survivors.
        self.store(self.derive(guards.iter().map(|g| &**g).enumerate()));
        // A torn demotion may have been dropped between appending the
        // spill record and wiring the ticket: retire every dropped
        // entry's ticket so the spill file's live-byte book matches the
        // surviving index.
        if let Some(spill) = &self.spill {
            for e in &dropped {
                if let TierState::Spilled(t) = &e.tier {
                    spill.mark_dead(*t);
                }
            }
        }
        for &si in &broken {
            self.lift_quarantine(si);
            self.repaired_total.fetch_add(1, Ordering::Relaxed);
        }
        drop(guards);
        RepairReport {
            shards_repaired: broken,
            entries_dropped: dropped.len(),
            bytes_dropped: dropped.iter().map(|e| e.bytes).sum(),
        }
    }

    /// Resident entries admitted by `session` (and not yet removed) — the
    /// per-session footprint the admission budget slices.
    pub fn resident_of_session(&self, session: u64) -> u64 {
        self.by_session.with(&session, |n| n.copied().unwrap_or(0))
    }

    /// Exact-match lookup (shard read lock only). A quarantined shard
    /// reports a miss — torn index state is never served.
    pub fn lookup(&self, sig: &Sig) -> Option<EntryId> {
        let si = self.shard_of(sig);
        if !self.shard_serviceable(si) {
            return None;
        }
        let sh = self.read_shard(si);
        sh.by_sig.get(sig).copied()
    }

    /// Run `f` over the entry matching `sig`, under the owning shard's
    /// *read* lock — the whole exact-match hit path (atomic counter
    /// updates, pinning, result cloning) happens inside `f` without ever
    /// taking a write lock. `f` must not call back into shard-locking
    /// pool methods.
    /// A quarantined shard reports a miss (degraded mode).
    pub fn probe<R>(&self, sig: &Sig, f: impl FnOnce(&PoolEntry) -> R) -> Option<R> {
        let si = self.shard_of(sig);
        if !self.shard_serviceable(si) {
            return None;
        }
        let sh = self.read_shard(si);
        let id = sh.by_sig.get(sig)?;
        sh.entries.get(id).map(f)
    }

    /// Run `f` over the entry `id`, under its shard's read lock. `f` must
    /// not call back into shard-locking pool methods.
    /// A quarantined shard reports `None` (degraded mode).
    pub fn entry<R>(&self, id: EntryId, f: impl FnOnce(&PoolEntry) -> R) -> Option<R> {
        let shard = self.owner.get_clone(&id)?;
        if !self.shard_serviceable(shard) {
            return None;
        }
        let sh = self.read_shard(shard);
        sh.entries.get(&id).map(f)
    }

    /// The entry owning (or aliased to) a result BAT, if any.
    pub fn entry_of_result(&self, bat: BatId) -> Option<EntryId> {
        self.by_result.get_clone(&bat)
    }

    /// Visit every entry, one shard read lock at a time. `f` may touch the
    /// lineage indexes ([`Self::has_children`], pin atomics) but must not
    /// call back into shard-locking pool methods.
    pub fn for_each_entry(&self, mut f: impl FnMut(&PoolEntry)) {
        for i in 0..self.shards.len() {
            let sh = self.read_shard(i);
            for e in sh.entries.values() {
                f(e);
            }
        }
    }

    /// Snapshot clones of every entry (diagnostics, tests, Table views).
    pub fn snapshot_entries(&self) -> Vec<PoolEntry> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each_entry(|e| out.push(e.clone()));
        out
    }

    /// Candidate entries with the given opcode and first-argument
    /// signature — the subsumption search space for "same column operand".
    /// One sub-map read lock: matching entries scatter over the signature
    /// shards (the shard is keyed by the *full* signature hash), so the
    /// index is a cross-shard side-map rather than per-shard state —
    /// a miss-path probe no longer pays N shard read locks. Returned ids
    /// are a snapshot; callers revalidate residency via [`Self::entry`].
    pub fn candidates(&self, op: Opcode, arg0: &ArgSig) -> Vec<EntryId> {
        let key = (op, arg0.clone());
        self.by_op_arg0
            .with(&key, |v| v.cloned().unwrap_or_default())
    }

    /// Record that `sub` is a subset (by tuple content) of `sup`.
    pub fn add_subset_edge(&self, sub: BatId, sup: BatId) {
        self.supersets.alter(&sub, |m| {
            m.entry(sub).or_default().push(sup);
        });
    }

    /// Is `sub ⊆ sup` derivable from the recorded subset edges
    /// (reflexive-transitive closure)?
    pub fn is_subset(&self, sub: BatId, sup: BatId) -> bool {
        if sub == sup {
            return true;
        }
        let mut visited: FxHashSet<BatId> = FxHashSet::default();
        let mut stack = vec![sub];
        while let Some(b) = stack.pop() {
            if b == sup {
                return true;
            }
            if !visited.insert(b) {
                continue;
            }
            self.supersets.with(&b, |sups| {
                if let Some(sups) = sups {
                    stack.extend(sups.iter().copied());
                }
            });
        }
        false
    }

    /// Insert a fully constructed entry, wiring all indexes, under the
    /// signature shard's write lock.
    ///
    /// Duplicate signatures are a *normal* concurrent outcome, not a
    /// "can't happen" path: two sessions can probe the same signature,
    /// both miss, both execute, and both admit. Resolution is
    /// first-writer-wins — the resident entry stays and is pinned once on
    /// the loser's behalf, the loser's result BAT is aliased onto it (so
    /// the losing query's downstream lineage stays admissible), and the
    /// candidate is dropped; all of it atomically under the shard lock,
    /// reported as [`Admitted::Duplicate`] so the caller can return the
    /// admission credit and reconcile its pin set.
    ///
    /// Parents are revalidated against the owner index inside the
    /// critical section: a concurrent update may have invalidated them
    /// since the caller resolved and pinned them, in which case the
    /// candidate is dropped as [`Admitted::Orphaned`] rather than wired
    /// with dangling lineage. `subset_of` optionally records
    /// `result ⊆ subset_of` for the subsumption machinery (§5.1).
    pub fn insert(&self, entry: PoolEntry, subset_of: Option<BatId>) -> Admitted {
        let si = self.shard_of(&entry.sig);
        if !self.shard_serviceable(si) {
            return Admitted::Quarantined;
        }
        let mut sh = self.write_shard(si);
        #[cfg(feature = "failpoints")]
        let _ = crate::fault::fire("pool.insert");
        if let Some(&existing) = sh.by_sig.get(&entry.sig) {
            if let Some(win) = sh.entries.get(&existing) {
                win.pins.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(rb) = entry.result_id {
                self.alias_locked(rb, existing);
            }
            return Admitted::Duplicate(existing);
        }
        for p in &entry.parents {
            if !self.owner.contains(p) {
                return Admitted::Orphaned;
            }
        }
        let id = entry.id;
        let charge = Charge::of(&entry);
        sh.by_sig.insert(entry.sig.clone(), id);
        self.wire_candidate(&entry.sig, id);
        // A fresh entry has no dependents: it enters the evictable-leaf
        // index. Published BEFORE the owner mapping — no other session can
        // wire a child edge onto this entry until its parents resolve via
        // `owner`, so the leaf bit is always in place first.
        self.leaf_insert(id);
        self.owner.insert(id, si);
        if let Some(rb) = entry.result_id {
            self.by_result.insert(rb, id);
            if let Some(sup) = subset_of {
                self.add_subset_edge(rb, sup);
            }
        }
        for p in &entry.parents {
            self.children.alter(p, |m| {
                let set = m.entry(*p).or_default();
                let was_leaf = set.is_empty();
                set.insert(id);
                if was_leaf {
                    // first child edge: the parent stops being a leaf —
                    // inside the `children` critical section (the
                    // sanctioned children → leaves nesting), so a racing
                    // removal of this edge observes a consistent pair
                    self.leaf_remove(p);
                }
            });
        }
        let session = entry.admitted_session;
        // Failpoint: every index above is wired but the slab entry is
        // not yet resident — the most torn state an unwind can leave.
        #[cfg(feature = "failpoints")]
        let _ = crate::fault::fire("pool.insert.wired");
        sh.entries.insert(id, entry);
        self.by_session.alter(&session, |m| {
            *m.entry(session).or_insert(0) += 1;
        });
        self.books.enter(si, &charge);
        Admitted::Inserted(id)
    }

    /// Wire `bat` as an alias of entry `id` in the result index. Caller
    /// holds `id`'s shard lock (any mode). No-op when `bat` already owned.
    fn alias_locked(&self, bat: BatId, id: EntryId) {
        let fresh = self.by_result.alter(&bat, |m| {
            if m.contains_key(&bat) {
                return false;
            }
            m.insert(bat, id);
            true
        });
        if fresh {
            self.result_aliases.alter(&id, |m| {
                m.entry(id).or_default().push(bat);
            });
        }
    }

    /// Alias `bat` to the resident entry `id` in the result index — the
    /// concurrent-admission loser's executed result is equivalent to the
    /// winner's (see [`Self::insert`], which performs this internally).
    /// No-op when `id` is not resident or `bat` already owned.
    pub fn alias_result(&self, bat: BatId, id: EntryId) {
        let Some(shard) = self.owner.get_clone(&id) else {
            return;
        };
        let sh = self.read_shard(shard);
        if sh.entries.contains_key(&id) {
            self.alias_locked(bat, id);
        }
    }

    /// Wire `id` into the candidate side-map under `sig`'s
    /// [`candidate_key`] (caller holds a shard lock).
    fn wire_candidate(&self, sig: &Sig, id: EntryId) {
        if let Some(key) = candidate_key(sig) {
            self.by_op_arg0.alter(&key, |m| {
                m.entry(key.clone()).or_default().push(id);
            });
        }
    }

    /// Unwire `id` from the candidate side-map (caller holds a shard lock).
    fn unwire_candidate(&self, sig: &Sig, id: EntryId) {
        if let Some(key) = candidate_key(sig) {
            self.by_op_arg0.alter(&key, |m| {
                if let Some(v) = m.get_mut(&key) {
                    v.retain(|e| *e != id);
                    if v.is_empty() {
                        m.remove(&key);
                    }
                }
            });
        }
    }

    /// Unwire and remove one entry while its shard lock is held.
    fn remove_locked(&self, sh: &mut Shard, si: usize, id: EntryId) -> Option<PoolEntry> {
        let entry = sh.entries.remove(&id)?;
        sh.by_sig.remove(&entry.sig);
        self.unwire_candidate(&entry.sig, id);
        self.owner.remove(&id);
        if let Some(rb) = entry.result_id {
            self.by_result.alter(&rb, |m| {
                if m.get(&rb).copied() == Some(id) {
                    m.remove(&rb);
                }
            });
            self.supersets.remove(&rb);
        }
        if let Some(aliases) = self.result_aliases.remove(&id) {
            for b in aliases {
                self.by_result.alter(&b, |m| {
                    if m.get(&b).copied() == Some(id) {
                        m.remove(&b);
                    }
                });
            }
        }
        for p in &entry.parents {
            self.children.alter(p, |m| {
                if let Some(c) = m.get_mut(p) {
                    c.remove(&id);
                    if c.is_empty() {
                        m.remove(p);
                        // Last child edge severed: the parent is a leaf
                        // again — but only if it is still resident. A
                        // parent invalidated while this child's admission
                        // was in flight can leave a resurrected child-edge
                        // key behind (the admission wires the edge after
                        // the parent's `remove_locked` cleared it); blindly
                        // re-leafing here would then list a dead id in the
                        // leaf index forever. The owner probe is ordered:
                        // a dying parent leaves `owner` before it clears
                        // its `children` key and `leaves` bit, and both of
                        // those serialise with this critical section, so
                        // a stale true here is always erased by the
                        // parent's own trailing `leaves.remove`.
                        if self.owner.contains(p) {
                            self.leaf_insert(*p);
                        }
                    }
                }
            });
        }
        self.children.remove(&id);
        // after the child-set removal: a concurrent child removal that
        // re-inserted this entry into the leaf index serialised on the
        // `children` sub-map above, so this erase always lands last
        self.leaf_remove(&id);
        let session = entry.admitted_session;
        self.by_session.alter(&session, |m| {
            if let Some(n) = m.get_mut(&session) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    m.remove(&session);
                }
            }
        });
        self.books.leave(si, &Charge::of(&entry));
        // retire the on-disk record: a dead ticket frees spill budget
        // immediately (and the block file truncates once no live records
        // remain)
        if let (TierState::Spilled(t), Some(spill)) = (&entry.tier, &self.spill) {
            spill.mark_dead(*t);
        }
        Some(entry)
    }

    /// Remove one entry, unwiring all indexes; returns it.
    pub fn remove(&self, id: EntryId) -> Option<PoolEntry> {
        let si = self.owner.get_clone(&id)?;
        let mut sh = self.write_shard(si);
        self.remove_locked(&mut sh, si, id)
    }

    /// Remove `id` only if it is still an unpinned leaf — the eviction
    /// removal step. The check and the removal are atomic under the
    /// shard's write lock: a hit pinning the entry runs under the same
    /// shard's read lock, so pin-vs-evict races cannot happen.
    pub fn remove_if_evictable(&self, id: EntryId) -> Option<PoolEntry> {
        self.remove_batch_if_evictable(std::slice::from_ref(&id))
            .pop()
    }

    /// Remove every victim in `ids` that is still an unpinned leaf — the
    /// batched eviction removal step. Victims are grouped by owning shard
    /// and each shard's write lock is taken **once** for its whole group
    /// (pinned by `write_lock_acquisitions_by_shard` in tests), instead of
    /// one acquisition per victim. Every victim is revalidated inside its
    /// shard's critical section exactly as [`Self::remove_if_evictable`]
    /// does — a concurrent hit (pin) or a freshly wired child edge always
    /// wins over the caller's stale snapshot; such victims are skipped.
    /// Returns the removed entries (any shard order).
    pub fn remove_batch_if_evictable(&self, ids: &[EntryId]) -> Vec<PoolEntry> {
        let mut by_shard: FxHashMap<usize, Vec<EntryId>> = FxHashMap::default();
        for &id in ids {
            if let Some(si) = self.owner.get_clone(&id) {
                by_shard.entry(si).or_default().push(id);
            }
        }
        let mut removed = Vec::new();
        for (si, group) in by_shard {
            // Quarantined shards sit out eviction: their books may be
            // torn, so removals there wait for `repair`.
            if !self.shard_serviceable(si) {
                continue;
            }
            let mut sh = self.write_shard(si);
            #[cfg(feature = "failpoints")]
            let _ = crate::fault::fire("evict.remove");
            for id in group {
                let evictable = sh
                    .entries
                    .get(&id)
                    .map(|e| e.pin_count() == 0 && !self.has_children(id))
                    .unwrap_or(false);
                if evictable {
                    if let Some(e) = self.remove_locked(&mut sh, si, id) {
                        removed.push(e);
                    }
                }
            }
        }
        removed
    }

    /// Add `id` to the evictable-leaf index, keeping the O(1) size
    /// counter exact: the bump happens inside the sub-map critical
    /// section, gated by the map's return value, so a racing
    /// insert/remove pair for one id always nets to zero and the counter
    /// can never dip below the true size (a bare post-lock decrement
    /// could wrap past zero when the remove's counter update outran the
    /// insert's).
    /// Every genuine 0↔1 transition additionally feeds the id into the
    /// collector's nursery ring (after the `leaves` sub-map lock is
    /// released) — minor collector rounds sweep exactly these
    /// recently-leafed entries.
    fn leaf_insert(&self, id: EntryId) {
        let fresh = self.leaves.alter(&id, |m| {
            if m.insert(id, ()).is_none() {
                self.leaf_count.fetch_add(1, Ordering::Relaxed);
                true
            } else {
                false
            }
        });
        if fresh {
            self.nursery.push(id);
        }
    }

    /// Drop `id` from the evictable-leaf index (see [`Self::leaf_insert`]).
    fn leaf_remove(&self, id: &EntryId) {
        self.leaves.alter(id, |m| {
            if m.remove(id).is_some() {
                self.leaf_count.fetch_sub(1, Ordering::Relaxed);
            }
        });
    }

    /// Take up to `max` of the oldest recently-leafed ids from the
    /// collector's nursery ring. Drained ids may be stale (evicted,
    /// re-parented or invalidated since they leafed) — consumers
    /// revalidate per id; eviction does so at removal.
    pub(crate) fn drain_nursery(&self, max: usize) -> Vec<EntryId> {
        self.nursery.drain(max)
    }

    /// Snapshot of the evictable-leaf index: the ids of every childless
    /// resident entry, in index order. A point-in-time copy — callers
    /// revalidate residency/pins per id, eviction does so at removal.
    pub fn leaf_ids(&self) -> Vec<EntryId> {
        let mut out = Vec::with_capacity(self.leaf_index_size());
        self.leaves.for_each(|id, _| out.push(*id));
        out
    }

    /// Number of entries currently in the evictable-leaf index — an O(1)
    /// counter maintained at the index mutation sites (stats probes and
    /// wire Stats frames read this on every call).
    pub fn leaf_index_size(&self) -> usize {
        self.leaf_count.load(Ordering::Relaxed)
    }

    /// Visit every entry in the evictable-leaf index — the eviction gather
    /// path. Cost is O(leaves), **independent of total pool size**: the
    /// leaf ids are snapshot from the index, grouped by owning shard, and
    /// each touched shard is read-locked once. Ids whose entry vanished
    /// since the snapshot are silently skipped (`f` sees residents only).
    /// Advances the gather-cost counters
    /// ([`Self::eviction_gather_visited`] by the snapshot size,
    /// [`Self::eviction_gather_rounds`] by one).
    pub fn for_each_leaf_entry(&self, mut f: impl FnMut(&PoolEntry)) {
        let ids = self.leaf_ids();
        self.gather_visited
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        self.gather_rounds.fetch_add(1, Ordering::Relaxed);
        let mut by_shard: FxHashMap<usize, Vec<EntryId>> = FxHashMap::default();
        for id in ids {
            if let Some(si) = self.owner.get_clone(&id) {
                by_shard.entry(si).or_default().push(id);
            }
        }
        for (si, group) in by_shard {
            // Gather skips quarantined shards — their residents are
            // frozen until `repair` returns them to service.
            if !self.shard_serviceable(si) {
                continue;
            }
            let sh = self.read_shard(si);
            for id in group {
                if let Some(e) = sh.entries.get(&id) {
                    f(e);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // residency tiers (demotion ladder: raw → compressed → spilled)
    // ------------------------------------------------------------------

    /// Attach the spill block file backing the coldest tier. Called once
    /// during construction (before the pool is shared); entries can only
    /// reach [`TierState::Spilled`] when a file is attached.
    pub fn set_spill(&mut self, spill: Option<Arc<crate::tier::SpillFile>>) {
        self.spill = spill;
    }

    /// The attached spill file, when the database opted into the disk
    /// tier.
    pub fn spill(&self) -> Option<&Arc<crate::tier::SpillFile>> {
        self.spill.as_ref()
    }

    /// Pool-wide per-tier byte totals `(raw, compressed, spilled)`.
    /// `raw + compressed == bytes()` at any quiescent instant; spilled
    /// bytes are off-cap (they count against the spill budget instead).
    pub fn tier_bytes(&self) -> (usize, usize, usize) {
        let t = self.books.total();
        (t.raw, t.compressed, t.spilled)
    }

    /// Bytes currently charged by operator-state artifact entries (summed
    /// across shards — a subset of the raw book; artifacts never demote).
    pub fn artifact_bytes(&self) -> usize {
        self.books.total().artifact
    }

    /// Demote a raw entry to the in-memory compressed tier, swapping its
    /// raw result for the pre-built blob *in place*. The caller (the
    /// collector) compresses **outside** any lock and revalidation
    /// happens here, inside the shard's write critical section: the
    /// entry must still be resident, raw and unpinned — any concurrent
    /// hit (pin) or removal since the candidate was gathered wins and the
    /// demotion is dropped. Also refuses when the blob would not actually
    /// shrink the charge. Entries with children are fair game: demotion
    /// (unlike eviction) keeps the entry, its `result_id` and every index
    /// alive, so descendants stay matchable and nothing is orphaned — in
    /// chain-shaped plans the big early intermediates are precisely the
    /// interior nodes. Returns the bytes freed (0 when skipped).
    pub fn demote_compress(&self, id: EntryId, blob: Arc<crate::tier::CompressedBat>) -> usize {
        let Some(si) = self.owner.get_clone(&id) else {
            return 0;
        };
        if !self.shard_serviceable(si) {
            return 0;
        }
        let new_bytes = blob.byte_size();
        let mut sh = self.write_shard(si);
        let Some(e) = sh.entries.get_mut(&id) else {
            return 0;
        };
        if !e.tier.is_raw() || e.pin_count() != 0 || new_bytes >= e.bytes {
            return 0;
        }
        // Operator-state artifacts are evict-only: the codecs target
        // columnar BATs and the build structure is not a `Value::Bat`, so
        // an artifact entry never leaves the raw rung.
        if e.artifact.is_some() {
            return 0;
        }
        let before = Charge::of(e);
        e.result = rbat::Value::Nil;
        e.tier = TierState::Compressed(blob);
        e.bytes = new_bytes;
        // Failpoint: the entry is re-tiered but no book has moved — the
        // most torn state a mid-demotion unwind can leave this shard in.
        #[cfg(feature = "failpoints")]
        let _ = crate::fault::fire("pool.demote.wired");
        self.books.sub(si, &before);
        self.books.add(si, &Charge::of(e));
        before.resident() - new_bytes
    }

    /// Demote a compressed entry to the spill tier: the caller already
    /// appended the blob to the spill file (outside any lock) and passes
    /// the claim ticket plus the blob it spilled. Revalidated under the
    /// shard write lock — the entry must still hold *that exact blob*
    /// (`Arc::ptr_eq`) and be unpinned; otherwise the ticket is
    /// immediately retired (the record is garbage) and 0 is returned.
    /// On success the entry stops charging resident bytes entirely.
    /// Returns the resident bytes freed.
    pub fn demote_spill(
        &self,
        id: EntryId,
        expected: &Arc<crate::tier::CompressedBat>,
        ticket: crate::tier::SpillTicket,
    ) -> usize {
        let retire = |t: crate::tier::SpillTicket| {
            if let Some(spill) = &self.spill {
                spill.mark_dead(t);
            }
        };
        let Some(si) = self.owner.get_clone(&id) else {
            retire(ticket);
            return 0;
        };
        if !self.shard_serviceable(si) {
            retire(ticket);
            return 0;
        }
        let mut sh = self.write_shard(si);
        let Some(e) = sh.entries.get_mut(&id) else {
            drop(sh);
            retire(ticket);
            return 0;
        };
        let holds_expected = matches!(&e.tier,
            TierState::Compressed(b) if Arc::ptr_eq(b, expected));
        if !holds_expected || e.pin_count() != 0 {
            drop(sh);
            retire(ticket);
            return 0;
        }
        let before = Charge::of(e);
        e.tier = TierState::Spilled(ticket);
        e.bytes = 0;
        self.books.sub(si, &before);
        self.books.add(si, &Charge::of(e));
        before.resident()
    }

    /// Promote a demoted entry back to raw after a hit decompressed or
    /// rehydrated its payload (outside any lock). The entry may be
    /// pinned — the hitting session pinned it at probe time, which is
    /// exactly what keeps eviction away while the payload is rebuilt.
    /// Fails (returns false) when the entry vanished (invalidation wins
    /// over retention) or was concurrently promoted by another session —
    /// the caller treats either as a miss or uses the resident raw
    /// result instead.
    pub fn promote(&self, id: EntryId, value: rbat::Value, raw_bytes: usize) -> bool {
        let Some(si) = self.owner.get_clone(&id) else {
            return false;
        };
        if !self.shard_serviceable(si) {
            return false;
        }
        let mut sh = self.write_shard(si);
        let Some(e) = sh.entries.get_mut(&id) else {
            return false;
        };
        if e.tier.is_raw() {
            return false;
        }
        if let (TierState::Spilled(t), Some(spill)) = (&e.tier, &self.spill) {
            spill.mark_dead(*t);
        }
        let before = Charge::of(e);
        e.result = value;
        e.tier = TierState::Raw;
        e.bytes = raw_bytes;
        self.books.sub(si, &before);
        self.books.add(si, &Charge::of(e));
        true
    }

    /// Entries visited by eviction gathers since construction. With the
    /// incremental leaf index this grows by O(leaves) per round — a test
    /// pins that it is independent of total pool size.
    pub fn eviction_gather_visited(&self) -> u64 {
        self.gather_visited.load(Ordering::Relaxed)
    }

    /// Eviction gather rounds since construction.
    pub fn eviction_gather_rounds(&self) -> u64 {
        self.gather_rounds.load(Ordering::Relaxed)
    }

    /// Does this entry have dependents in the pool?
    pub fn has_children(&self, id: EntryId) -> bool {
        self.children
            .with(&id, |c| c.is_some_and(|c| !c.is_empty()))
    }

    /// Dependents of an entry (direct children).
    pub fn children_of(&self, id: EntryId) -> Vec<EntryId> {
        self.children
            .with(&id, |c| c.map(|c| c.iter().copied().collect()))
            .unwrap_or_default()
    }

    /// Remove `root` and every transitive dependent (update invalidation,
    /// §6.4). Returns the removed entries. For the atomic variant used by
    /// update synchronisation see [`PoolScopedView::remove_subtree`].
    pub fn remove_subtree(&self, root: EntryId) -> Vec<PoolEntry> {
        let order = self.subtree_order(root);
        let mut removed = Vec::with_capacity(order.len());
        for id in order {
            if let Some(e) = self.remove(id) {
                removed.push(e);
            }
        }
        removed
    }

    fn subtree_order(&self, root: EntryId) -> Vec<EntryId> {
        let mut order: Vec<EntryId> = Vec::new();
        let mut stack = vec![root];
        let mut seen: FxHashSet<EntryId> = FxHashSet::default();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            order.push(id);
            stack.extend(self.children_of(id));
        }
        order
    }

    /// The shards holding `roots` and every transitive dependent — the
    /// write-lock scope of an update commit. Read-only (owner + children
    /// sub-maps); the scoped view revalidates and extends on demand, so a
    /// child admitted between this computation and the lock acquisition is
    /// still reached.
    pub fn closure_shards(&self, roots: &[EntryId]) -> Vec<usize> {
        let mut shards: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        let mut seen: FxHashSet<EntryId> = FxHashSet::default();
        let mut stack: Vec<EntryId> = roots.to_vec();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            if let Some(s) = self.owner.get_clone(&id) {
                shards.insert(s);
            }
            stack.extend(self.children_of(id));
        }
        shards.into_iter().collect()
    }

    /// Acquire write locks on `shards` only (ascending index) for an
    /// atomic multi-entry rewrite — update invalidation and delta
    /// propagation scoped to the affected lineage closure. Admissions,
    /// hits and eviction on every *other* shard keep running; structural
    /// writers serialise on the pool's update mutex (single writer, many
    /// readers). Out-of-range and duplicate indices are ignored.
    pub fn scoped_view(&self, shards: &[usize]) -> PoolScopedView<'_> {
        let writer = self.lock_update();
        let mut held = vec![false; self.shards.len()];
        for &s in shards {
            if s < held.len() {
                held[s] = true;
            }
        }
        let guards = held
            .iter()
            .enumerate()
            .map(|(i, take)| take.then(|| self.write_shard(i)))
            .collect();
        PoolScopedView {
            pool: self,
            _writer: writer,
            guards,
        }
    }

    /// Acquire every shard write lock — the stop-the-world maintenance
    /// view ([`Self::clear`]-grade operations, diagnostics, tests). While
    /// it is held no admission, hit bookkeeping or eviction can run
    /// anywhere in the pool. Update synchronisation no longer uses this:
    /// commits run under [`Self::scoped_view`] over the affected shards.
    pub fn write_view(&self) -> PoolScopedView<'_> {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        self.scoped_view(&all)
    }

    /// Render the pool as a MAL-like program block with its symbol table —
    /// the paper's Table I view (§3.2).
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut entries = self.snapshot_entries();
        entries.sort_unstable_by_key(|e| e.id);
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# recycle pool: {} entries, {} bytes, {} shards",
            entries.len(),
            entries.iter().map(|e| e.bytes).sum::<usize>(),
            self.shard_count(),
        );
        let _ = writeln!(
            s,
            "{:<6} {:<58} {:>8} {:>10} {:>7} {:>7}",
            "entry", "instruction", "tuples", "bytes", "local", "global"
        );
        for e in &entries {
            let args: Vec<String> = e
                .sig
                .args
                .iter()
                .map(|a| match a {
                    ArgSig::Scalar(v) => v.to_string(),
                    ArgSig::Bat(b) => format!("bat#{}", b.0),
                })
                .collect();
            let result = match &e.result {
                rbat::Value::Bat(b) => format!("bat#{}", b.id().0),
                v => v.to_string(),
            };
            let tuples = e
                .result
                .as_bat()
                .map(|b| b.len().to_string())
                .unwrap_or_else(|| "-".into());
            let instr = format!("{result} := {}({})", e.sig.op.name(), args.join(", "));
            let _ = writeln!(
                s,
                "{:<6} {:<58} {:>8} {:>10} {:>7} {:>7}",
                format!("E{}", e.id),
                instr,
                tuples,
                e.bytes,
                e.local_reuses(),
                e.global_reuses()
            );
        }
        s
    }

    /// Check the pool's invariants across all shards (acquired together,
    /// so the view is consistent). Per entry: stored under its own id in
    /// the shard its signature maps to, indexed by `by_sig` (a
    /// bijection), parents resident, artifact and tier rules kept, a
    /// compressed charge equal to its blob size, a spilled entry charging
    /// no resident bytes. Every book and side index must then equal
    /// [`Self::derive`] over the slabs — the derivation [`Self::repair`]
    /// stores. Test support — call on a quiescent pool. Takes the update
    /// mutex so the all-shard read acquisition cannot interleave with a
    /// scoped writer's out-of-order lock extension.
    pub fn check_invariants(&self) -> Result<(), String> {
        let _writer = self.lock_update();
        let guards: Vec<RwLockReadGuard<'_, Shard>> =
            (0..self.shards.len()).map(|i| self.read_shard(i)).collect();
        let d = self.derive(guards.iter().map(|g| &**g).enumerate());
        for (i, g) in guards.iter().enumerate() {
            for (id, e) in &g.entries {
                if e.id != *id {
                    return Err(format!("entry {id} stored under wrong key {}", e.id));
                }
                let want = self.shard_of(&e.sig);
                if want != i {
                    return Err(format!(
                        "entry {id} resident in shard {i}, sig maps to {want}"
                    ));
                }
                if g.by_sig.get(&e.sig).copied() != Some(*id) {
                    return Err(format!("entry {id} missing from its shard's sig index"));
                }
                if let Some(p) = e.parents.iter().find(|p| !d.owner.contains_key(p)) {
                    return Err(format!("entry {id} has dangling parent {p}"));
                }
                if let Some(a) = &e.artifact {
                    if !e.tier.is_raw() {
                        return Err(format!(
                            "artifact entry {id} left the raw tier ({})",
                            e.tier.label()
                        ));
                    }
                    if e.sig.kind != a.kind() {
                        return Err(format!(
                            "artifact entry {id} filed under sig kind {:?}, holds {:?}",
                            e.sig.kind,
                            a.kind()
                        ));
                    }
                } else if e.sig.kind != ArtifactKind::Result {
                    return Err(format!(
                        "entry {id} keyed as {:?} artifact but carries none",
                        e.sig.kind
                    ));
                }
                match &e.tier {
                    TierState::Compressed(b) if e.bytes != b.byte_size() => {
                        return Err(format!(
                            "compressed entry {id} charges {} bytes, blob is {}",
                            e.bytes,
                            b.byte_size()
                        ));
                    }
                    TierState::Spilled(_) if e.bytes != 0 => {
                        return Err(format!(
                            "spilled entry {id} still charges {} resident bytes",
                            e.bytes
                        ));
                    }
                    _ => {}
                }
            }
            if g.by_sig.len() != g.entries.len() {
                return Err(format!(
                    "shard {i} sig index size {} != entries {}",
                    g.by_sig.len(),
                    g.entries.len()
                ));
            }
        }
        let books = (0..self.shards.len())
            .map(|i| (i, self.books.shards[i].load()))
            .collect();
        diff("shard book", &books, &d.books)?;
        let totals = |bytes, entries, leaves| {
            FxHashMap::from_iter([("bytes", bytes), ("entries", entries), ("leaves", leaves)])
        };
        diff(
            "pool total",
            &totals(self.bytes(), self.len(), self.leaf_index_size()),
            &totals(d.bytes(), d.entries, d.leaves.len()),
        )?;
        diff("owner index", &self.owner.snapshot(), &d.owner)?;
        diff("child index", &self.children.snapshot(), &d.children)?;
        diff("leaf index", &self.leaves.snapshot(), &d.leaves)?;
        let mut candidates = self.by_op_arg0.snapshot();
        for ids in candidates.values_mut() {
            ids.sort_unstable();
        }
        diff("candidate index", &candidates, &d.by_op_arg0)?;
        diff("session book", &self.by_session.snapshot(), &d.by_session)?;
        diff("result index", &self.by_result.snapshot(), &d.by_result)?;
        diff(
            "alias index",
            &self.result_aliases.snapshot(),
            &d.result_aliases,
        )?;
        diff("subset index", &self.supersets.snapshot(), &d.supersets)
    }
}

/// Write access scoped to the shards of one commit's lineage closure:
/// only those shards' write locks are held (acquired in ascending index
/// order at construction), so sessions probing and admitting on every
/// other shard never block on the commit. Structural writers serialise on
/// the pool's update mutex — single writer, many readers — which is what
/// makes the on-demand, possibly out-of-order [`Self::ensure_shard`]
/// extension (rekey migration, children admitted after the closure was
/// computed) deadlock-free: no other thread ever blocks on a second shard
/// lock while holding one.
///
/// Concurrent queries observe the affected entries either entirely before
/// or entirely after the commit; unaffected shards are never perturbed.
pub struct PoolScopedView<'a> {
    pool: &'a RecyclePool,
    _writer: MutexGuard<'a, ()>,
    guards: Vec<Option<RwLockWriteGuard<'a, Shard>>>,
}

impl PoolScopedView<'_> {
    fn shard_idx(&self, id: EntryId) -> Option<usize> {
        self.pool.owner.get_clone(&id)
    }

    /// Shards whose write locks this view currently holds (ascending).
    pub fn held_shards(&self) -> Vec<usize> {
        self.guards
            .iter()
            .enumerate()
            .filter_map(|(i, g)| g.is_some().then_some(i))
            .collect()
    }

    /// Extend the view with shard `i`'s write lock if not yet held. Safe
    /// out of ascending order because scoped writers are serialised on the
    /// update mutex (see the type-level docs).
    fn ensure_shard(&mut self, i: usize) {
        if self.guards[i].is_none() {
            self.guards[i] = Some(self.pool.write_shard(i));
        }
    }

    /// Borrow an entry, extending the view to its shard if necessary.
    pub fn get(&mut self, id: EntryId) -> Option<&PoolEntry> {
        let i = self.shard_idx(id)?;
        self.ensure_shard(i);
        self.guards[i].as_ref().and_then(|g| g.entries.get(&id))
    }

    /// Borrow an entry mutably (delta propagation rewrites results and
    /// signatures in place; call [`Self::rekey`] afterwards, and account
    /// byte changes through [`Self::set_bytes`]).
    pub fn get_mut(&mut self, id: EntryId) -> Option<&mut PoolEntry> {
        let i = self.shard_idx(id)?;
        self.ensure_shard(i);
        self.guards[i].as_mut().and_then(|g| g.entries.get_mut(&id))
    }

    /// Iterate over the entries of every *held* shard.
    pub fn iter(&self) -> impl Iterator<Item = &PoolEntry> {
        self.guards
            .iter()
            .flatten()
            .flat_map(|g| g.entries.values())
    }

    /// Dependents of an entry (direct children).
    pub fn children_of(&self, id: EntryId) -> Vec<EntryId> {
        self.pool.children_of(id)
    }

    /// Record that `sub` is a subset of `sup`.
    pub fn add_subset_edge(&self, sub: BatId, sup: BatId) {
        self.pool.add_subset_edge(sub, sup);
    }

    /// Remove one entry, unwiring all indexes (the view extends to the
    /// entry's shard on demand).
    pub fn remove(&mut self, id: EntryId) -> Option<PoolEntry> {
        let i = self.shard_idx(id)?;
        self.ensure_shard(i);
        let pool = self.pool;
        let g = self.guards[i].as_mut()?;
        pool.remove_locked(g, i, id)
    }

    /// Remove `root` and every transitive dependent. The subtree is
    /// re-derived from the live child index, so dependents admitted after
    /// the caller computed its lock scope are still invalidated.
    pub fn remove_subtree(&mut self, root: EntryId) -> Vec<PoolEntry> {
        let order = self.pool.subtree_order(root);
        let mut removed = Vec::with_capacity(order.len());
        for id in order {
            if let Some(e) = self.remove(id) {
                removed.push(e);
            }
        }
        removed
    }

    /// Update an entry's charged bytes, moving its shard's book and the
    /// pool totals in the same step (no deferred recount).
    pub fn set_bytes(&mut self, id: EntryId, new_bytes: usize) {
        let Some(i) = self.shard_idx(id) else { return };
        self.ensure_shard(i);
        let pool = self.pool;
        let Some(e) = self.guards[i].as_mut().and_then(|g| g.entries.get_mut(&id)) else {
            return;
        };
        // spilled entries charge nothing resident (their book tracks the
        // on-disk record length), so a resize is meaningless for them —
        // propagation promotes or drops demoted entries before rewriting
        // results
        if e.tier.is_spilled() {
            debug_assert!(false, "set_bytes on a spilled entry");
            return;
        }
        let before = Charge::of(e);
        e.bytes = new_bytes;
        pool.books.sub(i, &before);
        pool.books.add(i, &Charge::of(e));
    }

    /// Re-key an entry's signature and result identity after delta
    /// propagation replaced its result BAT (§6.3). The caller updates the
    /// entry fields; this fixes the indexes — including migrating the
    /// entry to the shard its *new* signature hashes to (the view extends
    /// to that shard on demand, and the entry's bytes move with it).
    ///
    /// If another resident entry already owns the new signature — a
    /// session that re-pinned the post-commit epoch can probe, miss and
    /// admit the equivalent instruction while propagation is still
    /// in flight on other shards — that duplicate and its dependents are
    /// removed first: the re-keyed entry wins because the refreshed
    /// lineage chain hangs off it. A blind index insert would instead
    /// leave two entries under one signature and a later eviction of
    /// either would unmap the survivor.
    pub fn rekey(&mut self, id: EntryId, old_sig: &Sig, old_result: Option<BatId>) {
        let Some(old_idx) = self.shard_idx(id) else {
            return;
        };
        self.ensure_shard(old_idx);
        let Some((new_sig, new_result)) = self.guards[old_idx]
            .as_ref()
            .and_then(|g| g.entries.get(&id))
            .map(|e| (e.sig.clone(), e.result_id))
        else {
            return;
        };
        if *old_sig != new_sig {
            let pool = self.pool;
            if let Some(sh) = self.guards[old_idx].as_mut() {
                sh.by_sig.remove(old_sig);
            }
            pool.unwire_candidate(old_sig, id);
            let new_idx = pool.shard_of(&new_sig);
            self.ensure_shard(new_idx);
            let clash = self.guards[new_idx]
                .as_ref()
                .and_then(|g| g.by_sig.get(&new_sig).copied())
                .filter(|other| *other != id);
            if let Some(other) = clash {
                self.remove_subtree(other);
                if self.shard_idx(id).is_none() {
                    // the re-keyed entry was itself in the clash's subtree
                    return;
                }
            }
            if new_idx != old_idx {
                let moved = self.guards[old_idx]
                    .as_mut()
                    .and_then(|g| g.entries.remove(&id));
                if let Some(e) = moved {
                    // the entry's charge migrates with it
                    let charge = Charge::of(&e);
                    pool.books.sub(old_idx, &charge);
                    pool.books.add(new_idx, &charge);
                    if let Some(g) = self.guards[new_idx].as_mut() {
                        g.entries.insert(id, e);
                    }
                    pool.owner.insert(id, new_idx);
                }
            }
            pool.wire_candidate(&new_sig, id);
            if let Some(sh) = self.guards[new_idx].as_mut() {
                sh.by_sig.insert(new_sig, id);
            }
        }
        if old_result != new_result {
            if let Some(o) = old_result {
                self.pool.by_result.alter(&o, |m| {
                    if m.get(&o).copied() == Some(id) {
                        m.remove(&o);
                    }
                });
                self.pool.supersets.remove(&o);
            }
            if let Some(n) = new_result {
                self.pool.by_result.insert(n, id);
            }
        }
    }
}

impl Drop for PoolScopedView<'_> {
    /// Debug builds verify the books of every held shard on release: after
    /// any sequence of rekeys, removals and in-place rewrites they must
    /// equal [`RecyclePool::derive`] over the held slabs.
    fn drop(&mut self) {
        if cfg!(debug_assertions) && !std::thread::panicking() {
            let held = self
                .guards
                .iter()
                .enumerate()
                .filter_map(|(i, g)| Some((i, &**g.as_ref()?)));
            let d = self.pool.derive(held);
            let books = d
                .books
                .keys()
                .map(|&i| (i, self.pool.books.shards[i].load()))
                .collect();
            if let Err(e) = diff("shard book", &books, &d.books) {
                panic!("scoped view left drifted books: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbat::{Bat, Column, Value};
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicBool, AtomicU32};
    use std::sync::Arc;
    use std::time::Duration;

    fn mk_entry(pool: &RecyclePool, parents: Vec<EntryId>, tag: i64) -> PoolEntry {
        let bat = Arc::new(Bat::from_tail(Column::from_ints(vec![tag])));
        PoolEntry {
            id: pool.alloc_id(),
            sig: Sig::of(Opcode::Select, &[Value::Int(tag)]),
            args: vec![Value::Int(tag)],
            result: Value::Bat(Arc::clone(&bat)),
            result_id: Some(bat.id()),
            artifact: None,
            tier: crate::tier::TierState::Raw,
            bytes: 100,
            cpu: Duration::from_millis(1),
            family: "select",
            parents,
            base_columns: BTreeSet::new(),
            admitted_tick: 0,
            admitted_invocation: 0,
            admitted_session: 0,
            creator: (0, 0),
            last_used: AtomicU64::new(0),
            local_reuses: AtomicU64::new(0),
            global_reuses: AtomicU64::new(0),
            subsumption_uses: AtomicU64::new(0),
            time_saved_ns: AtomicU64::new(0),
            pins: AtomicU32::new(0),
            credit_returned: AtomicBool::new(false),
        }
    }

    #[test]
    fn insert_lookup_remove() {
        let pool = RecyclePool::new();
        let e = mk_entry(&pool, vec![], 1);
        let sig = e.sig.clone();
        let admitted = pool.insert(e, None);
        assert!(admitted.inserted());
        let id = admitted.id();
        assert_eq!(pool.lookup(&sig), Some(id));
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.bytes(), 100);
        pool.remove(id);
        assert_eq!(pool.lookup(&sig), None);
        assert_eq!(pool.bytes(), 0);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_sig_resolves_first_writer_wins() {
        let pool = RecyclePool::new();
        let a = mk_entry(&pool, vec![], 1);
        let id_a = pool.insert(a, None).id();
        let mut b = mk_entry(&pool, vec![], 2);
        b.sig = Sig::of(Opcode::Select, &[Value::Int(1)]); // same sig as a
        let outcome = pool.insert(b, None);
        assert_eq!(outcome, Admitted::Duplicate(id_a));
        assert_eq!(pool.len(), 1);
        // the loser's session took a pin on the winner, atomically
        assert_eq!(pool.entry(id_a, |e| e.pin_count()), Some(1));
        pool.check_invariants().unwrap();
    }

    #[test]
    fn orphaned_parent_rejects_insert() {
        let pool = RecyclePool::new();
        let a = mk_entry(&pool, vec![], 1);
        let id_a = pool.insert(a, None).id();
        pool.remove(id_a);
        let b = mk_entry(&pool, vec![id_a], 2);
        assert_eq!(pool.insert(b, None), Admitted::Orphaned);
        assert!(pool.is_empty());
        pool.check_invariants().unwrap();
    }

    #[test]
    fn result_alias_resolves_and_unwires_with_entry() {
        let pool = RecyclePool::new();
        let e = mk_entry(&pool, vec![], 1);
        let id = pool.insert(e, None).id();
        let loser_bat = BatId(4242);
        pool.alias_result(loser_bat, id);
        assert_eq!(pool.entry_of_result(loser_bat), Some(id));
        // aliasing an owned bat or a dead entry is a no-op
        pool.alias_result(loser_bat, 999);
        assert_eq!(pool.entry_of_result(loser_bat), Some(id));
        pool.check_invariants().unwrap();
        pool.remove(id);
        assert_eq!(pool.entry_of_result(loser_bat), None);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn clear_keeps_entry_ids_monotone() {
        let pool = RecyclePool::new();
        let e = mk_entry(&pool, vec![], 1);
        let id_before = pool.insert(e, None).id();
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.bytes(), 0);
        let e2 = mk_entry(&pool, vec![], 2);
        let id_after = pool.insert(e2, None).id();
        assert!(
            id_after > id_before,
            "ids must never be reused across a clear ({id_before} vs {id_after})"
        );
        pool.check_invariants().unwrap();
    }

    #[test]
    fn evictable_respects_children_and_pins() {
        let pool = RecyclePool::new();
        let a = mk_entry(&pool, vec![], 1);
        let a_id = pool.insert(a, None).id();
        let b = mk_entry(&pool, vec![a_id], 2);
        let b_id = pool.insert(b, None).id();
        // a has a child: not evictable
        assert!(pool.remove_if_evictable(a_id).is_none());
        // pinned leaves are not evictable either
        pool.entry(b_id, |e| e.pins.store(1, Ordering::Relaxed));
        assert!(pool.remove_if_evictable(b_id).is_none());
        pool.entry(b_id, |e| e.pins.store(0, Ordering::Relaxed));
        assert!(pool.remove_if_evictable(b_id).is_some());
        // with the child gone, a became a leaf
        assert!(pool.remove_if_evictable(a_id).is_some());
        pool.check_invariants().unwrap();
    }

    #[test]
    fn leaf_index_tracks_child_wiring() {
        let pool = RecyclePool::new();
        let a = pool.insert(mk_entry(&pool, vec![], 1), None).id();
        assert_eq!(pool.leaf_ids(), vec![a], "fresh entry starts as a leaf");
        let b = pool.insert(mk_entry(&pool, vec![a], 2), None).id();
        let mut leaves = pool.leaf_ids();
        leaves.sort_unstable();
        assert_eq!(leaves, vec![b], "first child edge unleafs the parent");
        pool.check_invariants().unwrap();
        // severing the last child edge returns the parent to the index
        pool.remove(b);
        assert_eq!(pool.leaf_ids(), vec![a]);
        pool.check_invariants().unwrap();
        pool.remove(a);
        assert!(pool.leaf_ids().is_empty());
        assert_eq!(pool.leaf_index_size(), 0);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn leaf_index_survives_clear_and_multi_parent() {
        let pool = RecyclePool::new();
        let a = pool.insert(mk_entry(&pool, vec![], 1), None).id();
        let b = pool.insert(mk_entry(&pool, vec![], 2), None).id();
        // one child hanging off both parents (and the same parent twice —
        // duplicate parent links must not corrupt the 0↔1 transitions)
        let c = pool.insert(mk_entry(&pool, vec![a, a, b], 3), None).id();
        let mut leaves = pool.leaf_ids();
        leaves.sort_unstable();
        assert_eq!(leaves, vec![c]);
        pool.check_invariants().unwrap();
        pool.remove(c);
        let mut leaves = pool.leaf_ids();
        leaves.sort_unstable();
        assert_eq!(leaves, vec![a, b], "both parents become leaves again");
        pool.check_invariants().unwrap();
        pool.clear();
        assert_eq!(pool.leaf_index_size(), 0, "clear wipes the leaf index");
        pool.check_invariants().unwrap();
    }

    #[test]
    fn remove_batch_takes_one_write_lock_per_shard() {
        let pool = RecyclePool::with_shards(8);
        let ids: Vec<EntryId> = (0..32)
            .map(|i| pool.insert(mk_entry(&pool, vec![], i), None).id())
            .collect();
        let before = pool.write_lock_acquisitions_by_shard();
        let removed = pool.remove_batch_if_evictable(&ids);
        let after = pool.write_lock_acquisitions_by_shard();
        assert_eq!(removed.len(), 32, "every unpinned leaf must go");
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            assert!(
                a - b <= 1,
                "shard {i} write-locked {} times for one batch",
                a - b
            );
        }
        assert!(pool.is_empty());
        pool.check_invariants().unwrap();
    }

    #[test]
    fn remove_batch_revalidates_pins_and_children() {
        let pool = RecyclePool::new();
        let parent = pool.insert(mk_entry(&pool, vec![], 1), None).id();
        let pinned = pool.insert(mk_entry(&pool, vec![], 2), None).id();
        let free = pool.insert(mk_entry(&pool, vec![parent], 3), None).id();
        pool.entry(pinned, |e| e.pins.store(1, Ordering::Relaxed));
        let removed = pool.remove_batch_if_evictable(&[parent, pinned, free, 999]);
        let ids: Vec<EntryId> = removed.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![free], "parented, pinned and dead ids skipped");
        assert_eq!(pool.len(), 2);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn leaf_gather_visits_leaves_only() {
        // 4 chains of depth 3: 12 entries, 4 leaves — one gather visits 4
        let pool = RecyclePool::new();
        let mut tag = 0i64;
        for _ in 0..4 {
            let mut parent = None;
            for _ in 0..3 {
                tag += 1;
                let parents = parent.map(|p| vec![p]).unwrap_or_default();
                parent = Some(pool.insert(mk_entry(&pool, parents, tag), None).id());
            }
        }
        let v0 = pool.eviction_gather_visited();
        let r0 = pool.eviction_gather_rounds();
        let mut seen = 0usize;
        pool.for_each_leaf_entry(|_| seen += 1);
        assert_eq!(seen, 4);
        assert_eq!(pool.eviction_gather_visited() - v0, 4);
        assert_eq!(pool.eviction_gather_rounds() - r0, 1);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn remove_subtree_cascades() {
        let pool = RecyclePool::new();
        let a = mk_entry(&pool, vec![], 1);
        let a_id = pool.insert(a, None).id();
        let b = mk_entry(&pool, vec![a_id], 2);
        let b_id = pool.insert(b, None).id();
        let c = mk_entry(&pool, vec![b_id], 3);
        pool.insert(c, None);
        let removed = pool.remove_subtree(a_id);
        assert_eq!(removed.len(), 3);
        assert!(pool.is_empty());
        pool.check_invariants().unwrap();
    }

    #[test]
    fn subset_closure() {
        let pool = RecyclePool::new();
        let (a, b, c) = (BatId(901), BatId(902), BatId(903));
        pool.add_subset_edge(c, b);
        pool.add_subset_edge(b, a);
        assert!(pool.is_subset(c, a));
        assert!(pool.is_subset(c, c));
        assert!(!pool.is_subset(a, c));
    }

    #[test]
    fn candidates_fan_out_across_shards() {
        let pool = RecyclePool::with_shards(8);
        // several entries share opcode+arg0 but differ in later args, so
        // their signatures scatter over the shards
        let bat = Arc::new(Bat::from_tail(Column::from_ints(vec![1, 2, 3])));
        let mut ids = Vec::new();
        for i in 0..16 {
            let args = vec![Value::Bat(Arc::clone(&bat)), Value::Int(i)];
            let mut e = mk_entry(&pool, vec![], 1000 + i);
            e.sig = Sig::of(Opcode::Select, &args);
            ids.push(pool.insert(e, None).id());
        }
        let arg0 = ArgSig::Bat(bat.id());
        let mut found = pool.candidates(Opcode::Select, &arg0);
        found.sort_unstable();
        ids.sort_unstable();
        assert_eq!(found, ids, "candidate search must see every shard");
        // entries really do land on more than one shard
        let shards: std::collections::HashSet<usize> = ids
            .iter()
            .map(|id| pool.entry(*id, |e| pool.shard_of(&e.sig)).unwrap())
            .collect();
        assert!(shards.len() > 1, "16 sigs over 8 shards must spread");
        pool.check_invariants().unwrap();
    }

    #[test]
    fn scoped_view_write_locks_only_requested_shards() {
        let pool = RecyclePool::with_shards(8);
        let mut ids = Vec::new();
        for i in 0..32 {
            ids.push(pool.insert(mk_entry(&pool, vec![], i), None).id());
        }
        let victim = ids[0];
        let vshard = pool
            .entry(victim, |e| pool.shard_of(&e.sig))
            .expect("resident");
        let before = pool.write_lock_acquisitions_by_shard();
        {
            let mut view = pool.scoped_view(&[vshard]);
            assert_eq!(view.held_shards(), vec![vshard]);
            assert!(view.remove(victim).is_some());
        }
        let after = pool.write_lock_acquisitions_by_shard();
        for (i, (b, a)) in before.iter().zip(&after).enumerate() {
            if i == vshard {
                assert_eq!(*a, b + 1, "victim shard write-locked once");
            } else {
                assert_eq!(a, b, "shard {i} must not be write-locked");
            }
        }
        pool.check_invariants().unwrap();
    }

    #[test]
    fn scoped_view_extends_on_demand_for_rekey_migration() {
        let pool = RecyclePool::with_shards(8);
        // find two tags whose signatures land on different shards
        let (tag_a, tag_b) = {
            let mut found = None;
            'outer: for a in 0..64i64 {
                for b in 0..64i64 {
                    let sa = Sig::of(Opcode::Select, &[Value::Int(a)]);
                    let sb = Sig::of(Opcode::Select, &[Value::Int(b)]);
                    if pool.shard_of(&sa) != pool.shard_of(&sb) {
                        found = Some((a, b));
                        break 'outer;
                    }
                }
            }
            found.expect("two shards must differ over 64 tags")
        };
        let id = pool.insert(mk_entry(&pool, vec![], tag_a), None).id();
        let old_sig = Sig::of(Opcode::Select, &[Value::Int(tag_a)]);
        let new_sig = Sig::of(Opcode::Select, &[Value::Int(tag_b)]);
        let (old_shard, new_shard) = (pool.shard_of(&old_sig), pool.shard_of(&new_sig));
        {
            // lock only the entry's current shard; the rekey must extend
            // the view with the migration target on demand
            let mut view = pool.scoped_view(&[old_shard]);
            view.get_mut(id).unwrap().sig = new_sig.clone();
            view.rekey(id, &old_sig, None);
            assert!(view.held_shards().contains(&new_shard));
        }
        assert_eq!(pool.lookup(&new_sig), Some(id));
        assert_eq!(pool.lookup(&old_sig), None);
        assert_eq!(pool.shard_bytes(old_shard), 0);
        assert_eq!(pool.shard_bytes(new_shard), 100);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn rekey_onto_occupied_signature_removes_the_duplicate() {
        // A session on the post-commit epoch can admit the equivalent
        // instruction while propagation is still re-keying the old entry
        // to the same (versioned) signature. The re-keyed entry must win
        // and the racing duplicate must be removed — never two residents
        // under one signature, never an unmapped survivor.
        let pool = RecyclePool::with_shards(8);
        let a = mk_entry(&pool, vec![], 1);
        let a_sig = a.sig.clone();
        let a_id = pool.insert(a, None).id();
        // the racing admission already owns the target signature
        let fresh = mk_entry(&pool, vec![], 2);
        let fresh_sig = fresh.sig.clone();
        let fresh_id = pool.insert(fresh, None).id();
        {
            let mut view = pool.scoped_view(&[pool.shard_of(&a_sig)]);
            view.get_mut(a_id).unwrap().sig = fresh_sig.clone();
            view.rekey(a_id, &a_sig, None);
        }
        assert_eq!(pool.lookup(&fresh_sig), Some(a_id), "re-keyed entry wins");
        assert!(pool.entry(fresh_id, |_| ()).is_none(), "duplicate removed");
        assert_eq!(pool.len(), 1);
        pool.check_invariants().unwrap();
        // and evicting the winner leaves a clean, empty index
        pool.remove(a_id);
        assert_eq!(pool.lookup(&fresh_sig), None);
        pool.check_invariants().unwrap();
    }

    #[test]
    fn set_bytes_keeps_shard_books_exact_through_migration() {
        let pool = RecyclePool::with_shards(8);
        let e = mk_entry(&pool, vec![], 3);
        let old_sig = e.sig.clone();
        let id = pool.insert(e, None).id();
        let new_sig = Sig::of(Opcode::Select, &[Value::Int(1000)]);
        {
            let mut view = pool.write_view();
            view.get_mut(id).unwrap().sig = new_sig.clone();
            view.set_bytes(id, 12_345);
            view.rekey(id, &old_sig, None);
        } // the view's Drop verifies per-shard books in debug builds
        assert_eq!(pool.bytes(), 12_345);
        let total: usize = (0..pool.shard_count()).map(|i| pool.shard_bytes(i)).sum();
        assert_eq!(total, pool.bytes(), "sum(shard_bytes) == total_bytes");
        pool.check_invariants().unwrap();
    }

    #[test]
    fn check_detects_and_repair_heals_every_derived_fact() {
        // Each tamper drifts one stored fact away from the slabs. The
        // check must see it, and repair must store the derivation back.
        type Tamper = fn(&RecyclePool, EntryId, EntryId);
        let tampers: [(&str, Tamper); 10] = [
            ("shard book", |p, _, _| {
                p.books.add(
                    0,
                    &Charge {
                        spilled: 1,
                        ..Charge::default()
                    },
                )
            }),
            ("entry total", |p, _, _| {
                p.books.entries.fetch_add(1, Ordering::Relaxed);
            }),
            ("owner", |p, _, _| {
                p.owner.insert(1 << 40, 0);
            }),
            ("children", |p, _, leaf| {
                p.children.insert(leaf, FxHashSet::from_iter([1 << 40]));
            }),
            ("leaves", |p, _, leaf| p.leaf_remove(&leaf)),
            ("candidates", |p, parent, _| {
                p.wire_candidate(&Sig::of(Opcode::Select, &[Value::Int(-1)]), parent)
            }),
            ("sessions", |p, _, _| {
                p.by_session.insert(77, 1);
            }),
            ("results", |p, _, _| {
                p.by_result.insert(BatId(4242), 1 << 40);
            }),
            ("aliases", |p, _, _| {
                p.result_aliases.insert(1 << 40, vec![BatId(4243)]);
            }),
            ("subsets", |p, _, _| {
                p.add_subset_edge(BatId(4244), BatId(4245))
            }),
        ];
        for (what, tamper) in tampers {
            let pool = RecyclePool::with_shards(4);
            let parent = pool.insert(mk_entry(&pool, vec![], 1), None).id();
            let leaf = pool.insert(mk_entry(&pool, vec![parent], 2), None).id();
            pool.check_invariants().unwrap();
            tamper(&pool, parent, leaf);
            assert!(
                pool.check_invariants().is_err(),
                "{what} drift must be detected"
            );
            // quarantine a shard so repair runs, as after a torn writer
            pool.note_poison(0);
            assert_eq!(pool.repair().entries_dropped, 0, "{what}");
            pool.check_invariants()
                .unwrap_or_else(|e| panic!("{what} not healed by repair: {e}"));
            assert_eq!(pool.len(), 2);
            assert_eq!(pool.resident_of_session(77), 0, "{what}");
        }
    }

    #[test]
    fn candidates_probe_takes_no_shard_lock() {
        // the candidate index is a side-map: a miss-path subsumption probe
        // must not touch any shard lock at all — pin it via a write view
        // over every shard held concurrently with the probe
        let pool = RecyclePool::with_shards(8);
        let e = mk_entry(&pool, vec![], 1);
        let op = e.sig.op;
        let arg0 = e.sig.first_arg().unwrap().clone();
        let id = pool.insert(e, None).id();
        let _view = pool.write_view(); // all shard write locks held
        assert_eq!(pool.candidates(op, &arg0), vec![id]);
    }

    #[test]
    fn probe_takes_no_write_lock() {
        let pool = RecyclePool::new();
        let e = mk_entry(&pool, vec![], 7);
        let sig = e.sig.clone();
        pool.insert(e, None);
        let w0 = pool.write_lock_acquisitions();
        for _ in 0..100 {
            assert!(pool.probe(&sig, |e| e.id).is_some());
            assert!(pool.lookup(&sig).is_some());
        }
        assert_eq!(
            pool.write_lock_acquisitions(),
            w0,
            "probes must be read-lock-only"
        );
    }
}
