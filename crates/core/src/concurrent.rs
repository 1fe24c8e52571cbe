//! `ConcurrentVcf` — a lock-free(-reader) concurrent Vertical Cuckoo
//! Filter on atomic bucket words.
//!
//! The sequential [`VerticalCuckooFilter`](crate::VerticalCuckooFilter)
//! owns its table through `&mut self`; the only way to share it was a
//! coarse lock per shard. This module shares one table between threads:
//!
//! * **Insert (fast path)** is lock-free: an empty lane is claimed with a
//!   single-word CAS ([`AtomicFingerprintTable::try_claim`]). Threads
//!   claiming different lanes of the same word retry each other's CAS but
//!   never block.
//! * **Relocation** (the kick walk) is the only part that locks, and it
//!   locks exactly two buckets at a time, in ascending index order, for
//!   one copy-then-clear move. The item being moved is visible in the
//!   source or destination bucket at every instant — relocation *never*
//!   makes an item homeless, so a failed walk needs no undo log.
//! * **Lookup** is wait-free in the common case: probe the four candidate
//!   buckets with the SWAR kernels on `Relaxed`-loaded words, and only on
//!   a *miss* validate per-bucket seqlock versions to rule out the
//!   classic "moved behind the probe" false negative. A bounded number of
//!   optimistic retries falls back to briefly locking the candidates.
//! * **Delete** locks the candidate buckets (ascending order) so it can
//!   never race a relocation of the same fingerprint into removing two
//!   copies (or zero).
//! * **Batches** of any of the three ops run one staged pipeline
//!   ([`ConcurrentVcf::run_batch`]): hash a window of 16 keys on the
//!   stack, prefetch every candidate bucket's table words and seqlock
//!   word, then run each key's op on its derived `(fingerprint,
//!   candidates)`, so the up-to-eight misses of one key overlap those of
//!   the rest of the window. Counters are tallied on the stack and
//!   flushed once per call. `insert` / `contains` / `delete` run the
//!   same per-key cores.
//!
//! Theorem 1's closure is what makes the two-bucket lock sufficient: the
//! four candidate buckets of a fingerprint form the XOR coset
//! `B1 ⊕ {0, o1, o2, o1⊕o2}`, so any relocation of a fingerprint a
//! deleter might alias moves it *within the deleter's own candidate set*,
//! and holding all four candidate locks excludes every such move.
//!
//! See `DESIGN.md` §7 for the full memory-ordering argument.

use crate::bitmask::MaskPair;
use crate::config::CuckooConfig;
use crate::key;
use crate::vertical::{Candidates, VerticalParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
use vcf_hash::{mix64, HashKind};
use vcf_table::{prefetch_read, AtomicFingerprintTable};
use vcf_traits::{
    BatchOpKind, BuildError, ConcurrentFilter, Counters, Filter, InsertError, OpCounters, Stats,
};

/// Maximum length of one unlocked relocation path. Longer cascades are
/// split across retries of the outer kick loop, so this bounds how much
/// speculative (unlocked) scanning a single attempt performs, not how far
/// an insert can relocate in total.
const MAX_PATH: usize = 5;

/// Optimistic lookup retries before falling back to locking the
/// candidate buckets.
const CONTAINS_RETRIES: usize = 8;

/// Keys a batch hashes, and whose candidate buckets and seqlock words it
/// prefetches, ahead of running them (a stack window, as in the
/// sequential VCF's batch insert).
const WINDOW: usize = 16;

/// The counter tally of one call of one op.
fn one_call(slot_probes: u64, bucket_accesses: u64) -> OpCounters {
    OpCounters {
        calls: 1,
        slot_probes,
        bucket_accesses,
    }
}

/// One hop of a relocation chain: `(bucket, slot, fingerprint)` — the
/// fingerprint observed in that slot at scan time.
type PathStep = (usize, usize, u32);

/// A relocation chain of at most [`MAX_PATH`] hops, held on the stack.
struct Path {
    steps: [PathStep; MAX_PATH],
    len: usize,
}

impl Path {
    fn steps(&self) -> &[PathStep] {
        &self.steps[..self.len]
    }
}

/// A thread-safe Vertical Cuckoo Filter: every operation takes `&self`,
/// so the filter can sit in an `Arc` and be hammered from many threads.
///
/// Functionally it matches [`VerticalCuckooFilter`]: the same vertical
/// candidate derivation (`B1`, `B1⊕o1`, `B1⊕o2`, `B1⊕o1⊕o2`), the same
/// no-false-negative and multiset-deletion guarantees, and the same FPR
/// model. The differences are operational:
///
/// * `insert`/`delete`/`contains` take `&self` ([`ConcurrentFilter`]).
/// * The relocation walk is path-based (libcuckoo-style): it first finds
///   a chain of moves ending in an empty slot *without* locking, then
///   executes the chain in reverse so each move copies into an
///   already-empty slot. A concurrent mutation invalidates the chain and
///   the walk retries; the table is consistent at every step.
/// * Occupancy accounting is exact: `len()` equals successful inserts
///   minus successful deletes (relocation is occupancy-neutral).
/// * The geometry must word-align: every lane has to fit inside one
///   `u64` word so it can be CASed (e.g. 4 slots × 14 bits works; 8
///   slots × 12 bits straddles and is rejected at construction).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use vcf_core::{ConcurrentVcf, CuckooConfig};
///
/// let filter = Arc::new(ConcurrentVcf::new(CuckooConfig::new(1 << 8))?);
/// let handles: Vec<_> = (0..4u32)
///     .map(|t| {
///         let filter = Arc::clone(&filter);
///         std::thread::spawn(move || {
///             for i in 0..100u32 {
///                 filter.insert(&(t * 1000 + i).to_le_bytes()).unwrap();
///             }
///         })
///     })
///     .collect();
/// for h in handles {
///     h.join().unwrap();
/// }
/// assert_eq!(filter.len(), 400);
/// assert!(filter.contains(&1042u32.to_le_bytes()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ConcurrentVcf {
    table: AtomicFingerprintTable,
    /// Per-bucket seqlock word: even = unlocked, odd = locked. Bumped
    /// twice per critical section, so an unchanged even value brackets a
    /// quiescent window.
    versions: Vec<AtomicU32>,
    params: VerticalParams,
    masks: MaskPair,
    hash: HashKind,
    max_kicks: u32,
    seed: u64,
    /// Per-walk PRNG derivation counter; `fetch_add` gives each
    /// relocation attempt a distinct deterministic stream.
    rng_salt: AtomicU64,
    counters: Counters,
    label: String,
}

impl ConcurrentVcf {
    /// Builds a standard concurrent VCF (balanced bitmasks) from `config`.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry, including lane
    /// layouts that straddle a 64-bit word boundary (those cannot be
    /// updated with a single CAS).
    pub fn new(config: CuckooConfig) -> Result<Self, BuildError> {
        let masks = MaskPair::balanced(config.fingerprint_bits)?;
        Self::with_masks(config, masks, "ConcurrentVCF".to_owned())
    }

    /// Builds the concurrent analogue of `IVCF_i`: `ones` one-bits in the
    /// first bitmask.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry or a degenerate mask.
    pub fn with_mask_ones(config: CuckooConfig, ones: u32) -> Result<Self, BuildError> {
        let masks = MaskPair::with_ones(ones, config.fingerprint_bits)?;
        Self::with_masks(config, masks, format!("ConcurrentIVCF{ones}"))
    }

    /// Builds a concurrent VCF with an explicit mask pair.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] for invalid geometry.
    pub fn with_masks(
        config: CuckooConfig,
        masks: MaskPair,
        label: String,
    ) -> Result<Self, BuildError> {
        config.validate()?;
        let table = AtomicFingerprintTable::new(
            config.buckets,
            config.slots_per_bucket,
            config.fingerprint_bits,
        )?;
        let params = VerticalParams::new(masks, config.buckets);
        let versions = (0..config.buckets).map(|_| AtomicU32::new(0)).collect();
        Ok(Self {
            table,
            versions,
            params,
            masks,
            hash: config.hash,
            max_kicks: config.max_kicks,
            seed: config.seed,
            rng_salt: AtomicU64::new(config.seed),
            counters: Counters::new(),
            label,
        })
    }

    /// The bitmask pair in use.
    pub fn masks(&self) -> MaskPair {
        self.masks
    }

    /// The effective vertical-hashing parameters.
    pub fn params(&self) -> VerticalParams {
        self.params
    }

    /// Expected probability `r` of four distinct candidate buckets
    /// (Equ. 8) for this filter's effective mask geometry.
    pub fn expected_r(&self) -> f64 {
        let index_bits = (self.table.buckets().trailing_zeros()).max(2);
        match self.masks.restricted_to(index_bits) {
            Some(m) => m.expected_r(),
            None => 0.0,
        }
    }

    /// Number of buckets `m`.
    pub fn buckets(&self) -> usize {
        self.table.buckets()
    }

    /// Slots per bucket `b`.
    pub fn slots_per_bucket(&self) -> usize {
        self.table.slots_per_bucket()
    }

    /// Fingerprint width `f` in bits.
    pub fn fingerprint_bits(&self) -> u32 {
        self.table.fingerprint_bits()
    }

    /// Heap bytes used by the fingerprint words plus the seqlock array.
    pub fn storage_bytes(&self) -> usize {
        self.table.storage_bytes() + self.versions.len() * std::mem::size_of::<AtomicU32>()
    }

    /// The hash function in use.
    pub fn hash_kind(&self) -> HashKind {
        self.hash
    }

    /// The relocation threshold `MAX`.
    pub fn max_kicks(&self) -> u32 {
        self.max_kicks
    }

    /// The PRNG seed the filter was configured with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Occupancy of the slot table — `α` as the paper measures it.
    pub fn table_load_factor(&self) -> f64 {
        self.table.load_factor()
    }

    /// Derives `item`'s fingerprint and its four candidate buckets: the
    /// paper's `hash(x)` and `hash(η)`.
    #[inline]
    fn derive(&self, item: &[u8]) -> (u32, Candidates) {
        let (fingerprint, b1) = key::hash_item(
            self.hash,
            item,
            self.fingerprint_bits(),
            self.params.index_mask(),
        );
        let hfp = self.hash.hash_fingerprint(fingerprint);
        (fingerprint, self.params.candidates(b1, hfp))
    }

    /// Prefetches the table words and the seqlock word of every candidate
    /// bucket. Pure hints: nothing is loaded, and nothing can panic.
    #[inline]
    fn prefetch_candidates(&self, cands: &Candidates) {
        for bucket in cands.iter() {
            self.table.prefetch_bucket(bucket);
            if let Some(version) = self.versions.get(bucket) {
                prefetch_read(version);
            }
        }
    }

    /// Runs one key's op through `run` on its derived key, flushing the
    /// call's counter tally — the single-key form of [`Self::pipeline`].
    #[inline]
    fn run_one<T>(
        &self,
        item: &[u8],
        run: impl FnOnce(&Self, u32, &Candidates, &mut Stats) -> T,
    ) -> T {
        let (fingerprint, cands) = self.derive(item);
        let mut tally = Stats::new();
        let out = run(self, fingerprint, &cands, &mut tally);
        self.counters.add_stats(&tally);
        out
    }

    /// The staged batch pipeline behind every batch call. For each
    /// [`WINDOW`] of `items`: derive every key and prefetch its
    /// candidates' table and seqlock words (stage), then run `run` on each
    /// staged key in input order, writing its result into `out` (run).
    /// The window and the counter tally live on the stack; the tally is
    /// flushed into [`Counters`] once, when the call returns.
    ///
    /// Keys run in input order through the same per-key cores as the
    /// single-key calls, so the eviction PRNG streams are drawn in the
    /// same order: a batch leaves the same table, outcomes and `Stats` as
    /// the serial loop over it.
    #[inline]
    fn pipeline<T>(
        &self,
        items: &[&[u8]],
        out: &mut [T],
        run: impl Fn(&Self, u32, &Candidates, &mut Stats) -> T,
    ) {
        let empty = Candidates { buckets: [0; 4] };
        let mut window = [(0u32, empty); WINDOW];
        let mut tally = Stats::new();
        for (chunk, out) in items.chunks(WINDOW).zip(out.chunks_mut(WINDOW)) {
            for (staged, item) in window.iter_mut().zip(chunk) {
                *staged = self.derive(item);
                self.prefetch_candidates(&staged.1);
            }
            for (slot, (fingerprint, cands)) in out.iter_mut().zip(&window[..chunk.len()]) {
                *slot = run(self, *fingerprint, cands, &mut tally);
            }
        }
        self.counters.add_stats(&tally);
    }

    /// Distinct candidate buckets in ascending order — the canonical lock
    /// acquisition order for multi-bucket critical sections.
    fn distinct_sorted(cands: &Candidates) -> ([usize; 4], usize) {
        let mut sorted = cands.buckets;
        sorted.sort_unstable();
        let mut out = [usize::MAX; 4];
        debug_assert!(sorted.len() <= out.len(), "at most 4 candidate buckets");
        let mut len = 0;
        for &b in &sorted {
            if len == 0 || out[len - 1] != b {
                out[len] = b;
                len += 1;
            }
        }
        (out, len)
    }

    // ---- per-bucket seqlock -------------------------------------------

    /// Acquires `bucket`'s lock by CASing its version from even to odd.
    ///
    /// The success ordering is `Acquire`, which keeps the critical
    /// section's accesses from floating above the version bump; paired
    /// with the `Release` in [`Self::unlock`], the version word brackets
    /// the section for optimistic readers.
    fn lock(&self, bucket: usize) {
        debug_assert!(bucket < self.versions.len());
        let v = &self.versions[bucket];
        loop {
            // CAS pre-read (checked structurally by seqlock-protocol):
            // the compare_exchange's Acquire success ordering is what
            // synchronizes, this load only picks the expected value.
            let cur = v.load(Ordering::Relaxed);
            if cur & 1 == 0
                && v.compare_exchange_weak(
                    cur,
                    cur.wrapping_add(1),
                    Ordering::Acquire,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                return;
            }
            std::hint::spin_loop();
        }
    }

    /// Releases `bucket`'s lock, returning the version to even.
    fn unlock(&self, bucket: usize) {
        debug_assert!(bucket < self.versions.len());
        self.versions[bucket].fetch_add(1, Ordering::Release);
    }

    /// Locks two buckets in ascending index order (one CAS if equal).
    /// Every multi-bucket section in this module uses the same global
    /// ascending order, so lock acquisition cannot deadlock.
    fn lock_pair(&self, a: usize, b: usize) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        self.lock(lo);
        if hi != lo {
            self.lock(hi);
        }
    }

    fn unlock_pair(&self, a: usize, b: usize) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        if hi != lo {
            self.unlock(hi);
        }
        self.unlock(lo);
    }

    // ---- insert -------------------------------------------------------

    /// Inserts `item`; lock-free when any candidate bucket has room.
    ///
    /// # Errors
    ///
    /// Returns [`InsertError::Full`] when `max_kicks` relocation attempts
    /// cannot free a candidate slot.
    pub fn insert(&self, item: &[u8]) -> Result<(), InsertError> {
        self.run_one(item, Self::insert_key)
    }

    /// Inserts every item through the batch pipeline, returning one
    /// result per item in order; a full filter does not stop the batch.
    /// Same outcomes, table and `Stats` as calling [`Self::insert`] on
    /// each item in turn.
    pub fn insert_batch(&self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        let mut out = vec![Ok(()); items.len()];
        self.pipeline(items, &mut out, Self::insert_key);
        out
    }

    /// Insert core for an already-derived key, tallying into `tally`.
    fn insert_key(
        &self,
        fingerprint: u32,
        cands: &Candidates,
        tally: &mut Stats,
    ) -> Result<(), InsertError> {
        tally.hash_computations += 2; // hash(x) + hash(η)
        let (distinct, distinct_len) = Self::distinct_sorted(cands);
        let slots = self.table.slots_per_bucket() as u64;

        let mut probes = 0u64;
        let mut kicks = 0u64;
        let mut rng: Option<SmallRng> = None;
        let result = 'walk: loop {
            // Fast path: CAS-claim an empty lane in any candidate bucket.
            // Re-run each round — concurrent deletes may free slots while
            // we are path-hunting.
            for &bucket in &distinct[..distinct_len] {
                probes += slots;
                if self.table.try_claim(bucket, fingerprint).is_some() {
                    break 'walk Ok(());
                }
            }
            if kicks >= u64::from(self.max_kicks) {
                tally.failed_inserts += 1;
                break Err(InsertError::Full { kicks });
            }

            let rng = rng.get_or_insert_with(|| {
                let salt = self.rng_salt.fetch_add(1, Ordering::Relaxed);
                SmallRng::seed_from_u64(mix64(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            });
            match self.find_path(cands, rng, &mut probes) {
                Some((path, final_dst)) => {
                    let path = path.steps();
                    kicks += path.len() as u64;
                    tally.hash_computations += path.len() as u64;
                    if self.execute_path(path, final_dst, fingerprint) {
                        break Ok(());
                    }
                    // A concurrent mutation invalidated the chain; the
                    // executed prefix (if any) already re-homed its
                    // fingerprints consistently. Retry from scratch.
                }
                None => kicks += 1,
            }
        };
        tally.kicks += kicks;
        tally.inserts += one_call(probes, 4 + 3 * kicks);
        result
    }

    /// Speculatively (without locks) finds a relocation chain: a sequence
    /// of `(bucket, slot, fingerprint)` moves where each fingerprint can
    /// hop to the *next* entry's bucket, ending in `final_dst` which had
    /// an empty slot at scan time. Returns `None` if no chain of length
    /// ≤ [`MAX_PATH`] was found on this walk. Allocation-free: the chain
    /// and the onward choices live in fixed arrays.
    fn find_path(
        &self,
        cands: &Candidates,
        rng: &mut SmallRng,
        probes: &mut u64,
    ) -> Option<(Path, usize)> {
        let slots = self.table.slots_per_bucket();
        let mut cur = cands.buckets[rng.gen_range(0..4)];
        let mut path = Path {
            steps: [(0, 0, 0); MAX_PATH],
            len: 0,
        };
        for step in &mut path.steps {
            let slot = rng.gen_range(0..slots);
            let victim = self.table.get(cur, slot);
            if victim == 0 {
                // `cur` has room after all (someone deleted): end the
                // chain here; the previous hop claims into `cur`.
                return Some((path, cur));
            }
            *step = (cur, slot, victim);
            path.len += 1;
            let alts = self
                .params
                .alternates(cur, self.hash.hash_fingerprint(victim));
            *probes += 3 * slots as u64;
            if let Some(&alt) = alts
                .iter()
                .find(|&&a| a != cur && !self.table.bucket_is_full(a))
            {
                return Some((path, alt));
            }
            // All of the victim's alternates are full too: walk onward
            // through a random one and kick deeper.
            let mut choices = [0usize; 3];
            let mut len = 0;
            for &alt in alts.iter().filter(|&&a| a != cur) {
                if let Some(choice) = choices.get_mut(len) {
                    *choice = alt;
                    len += 1;
                }
            }
            if len == 0 {
                // Degenerate masks (offsets all zero): nowhere to go.
                return None;
            }
            cur = choices[rng.gen_range(0..len)];
        }
        None
    }

    /// Executes a relocation chain in reverse: the last fingerprint moves
    /// into the empty slot first, freeing its own slot for its
    /// predecessor, and so on; the head move installs `new_fp` into the
    /// vacated slot in the same CAS that evicts the head victim. Every
    /// move holds the two bucket locks involved, so each fingerprint is
    /// continuously visible in source or destination. Returns `false`
    /// (leaving a consistent table) if any move's precondition was
    /// invalidated by a concurrent mutation.
    fn execute_path(&self, path: &[PathStep], final_dst: usize, new_fp: u32) -> bool {
        debug_assert!(path.iter().all(|step| step.0 < self.versions.len()));
        for i in (0..path.len()).rev() {
            let (src_bucket, src_slot, fp) = path[i];
            let dst_bucket = if i + 1 < path.len() {
                path[i + 1].0
            } else {
                final_dst
            };
            let replacement = if i == 0 { new_fp } else { 0 };
            if !self.move_one(src_bucket, src_slot, fp, dst_bucket, replacement) {
                return false;
            }
        }
        // An empty chain means `find_path` saw an empty slot in a
        // candidate bucket; let the caller's fast path re-claim it.
        !path.is_empty()
    }

    /// One locked relocation hop: copy `fp` from `(src_bucket, src_slot)`
    /// into an empty slot of `dst_bucket`, then overwrite the source lane
    /// with `replacement` (`0` for intermediate hops, the inserted
    /// fingerprint for the head hop). Fails without side effects when the
    /// source lane changed or `dst_bucket` filled up since path
    /// discovery.
    fn move_one(
        &self,
        src_bucket: usize,
        src_slot: usize,
        fp: u32,
        dst_bucket: usize,
        replacement: u32,
    ) -> bool {
        self.lock_pair(src_bucket, dst_bucket);
        let ok = 'section: {
            if self.table.get(src_bucket, src_slot) != fp {
                break 'section false;
            }
            let Some(claimed) = self.table.try_claim(dst_bucket, fp) else {
                break 'section false;
            };
            // Both bucket locks are held and the source lane re-validated
            // above; lock-free claims only write empty lanes, so the
            // source lane (non-zero) cannot change and the replace must
            // succeed. Undo the claim defensively if it somehow fails.
            if self
                .table
                .replace_expect(src_bucket, src_slot, fp, replacement)
            {
                break 'section true;
            }
            debug_assert!(false, "source lane changed under two-bucket lock");
            let undone = self.table.replace_expect(dst_bucket, claimed, fp, 0);
            debug_assert!(undone, "claimed lane changed under bucket lock");
            false
        };
        self.unlock_pair(src_bucket, dst_bucket);
        ok
    }

    // ---- lookup -------------------------------------------------------

    /// Lookup core for an already-derived key, tallying into `tally`.
    fn contains_key(&self, fingerprint: u32, cands: &Candidates, tally: &mut Stats) -> bool {
        let (distinct, distinct_len) = Self::distinct_sorted(cands);
        let (found, probes) = self.probe_validated(fingerprint, &distinct[..distinct_len]);
        tally.lookups += one_call(probes, distinct_len as u64);
        found
    }

    /// Membership probe of the `distinct` candidate buckets, returning the
    /// answer and the slots probed. Wait-free on hits; misses validate
    /// the buckets' seqlock versions so a relocation hopping the
    /// fingerprint "behind" the probe order cannot manufacture a false
    /// negative.
    fn probe_validated(&self, fingerprint: u32, distinct: &[usize]) -> (bool, u64) {
        debug_assert!(distinct.iter().all(|&b| b < self.versions.len()));
        let slots = self.table.slots_per_bucket() as u64;

        let mut before = [0u32; 4];
        for _attempt in 0..CONTAINS_RETRIES {
            let mut stable = true;
            for (i, &bucket) in distinct.iter().enumerate() {
                let v = self.versions[bucket].load(Ordering::Acquire);
                before[i] = v;
                stable &= v & 1 == 0;
            }
            let mut probes = 0u64;
            for &bucket in distinct {
                probes += slots;
                if self.table.contains(bucket, fingerprint) {
                    return (true, probes);
                }
            }
            // Miss: only definitive if no candidate bucket was locked or
            // relocated while we probed. The fence orders the probe loads
            // before the version re-reads.
            fence(Ordering::Acquire);
            if stable
                && distinct
                    .iter()
                    .enumerate()
                    // Validation re-read paired with the fence(Acquire)
                    // above (Boehm's seqlock pattern, checked structurally
                    // by the seqlock-protocol rule).
                    .all(|(i, &bucket)| self.versions[bucket].load(Ordering::Relaxed) == before[i])
            {
                return (false, probes);
            }
            std::hint::spin_loop();
        }

        // Heavy contention on these buckets: take the locks (ascending
        // order — same global order as relocation and delete) and decide.
        for &bucket in distinct {
            self.lock(bucket);
        }
        let mut probes = 0u64;
        let mut found = false;
        for &bucket in distinct {
            probes += slots;
            if self.table.contains(bucket, fingerprint) {
                found = true;
                break;
            }
        }
        for &bucket in distinct.iter().rev() {
            self.unlock(bucket);
        }
        (found, probes)
    }

    /// Tests membership of `item`. No false negatives for items whose
    /// insertion happened-before this call.
    pub fn contains(&self, item: &[u8]) -> bool {
        self.run_one(item, Self::contains_key)
    }

    /// Batched lookup: a thin adapter over [`Self::run_batch`].
    pub fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        let mut out = vec![false; items.len()];
        self.run_batch(BatchOpKind::Lookup, items, &mut out);
        out
    }

    /// Executes one single-kind batch, writing one outcome bit per item
    /// into `out` without heap allocation (insert: stored? lookup:
    /// present? delete: removed?).
    ///
    /// All three ops run the staged pipeline: a window of 16 keys is
    /// hashed on the stack and every candidate bucket's table words and
    /// seqlock word are prefetched, then each key runs the same insert,
    /// lookup or delete core as the single-key calls, in input order.
    /// Bits, table and `Stats` match the serial loop over `items`. The
    /// counters are tallied on the stack and flushed once, when the call
    /// returns, so a `stats()` snapshot taken during the call lags by at
    /// most this batch.
    pub fn run_batch(&self, op: BatchOpKind, items: &[&[u8]], out: &mut [bool]) {
        match op {
            BatchOpKind::Insert => self.pipeline(items, out, |f, fingerprint, cands, tally| {
                f.insert_key(fingerprint, cands, tally).is_ok()
            }),
            BatchOpKind::Lookup => self.pipeline(items, out, Self::contains_key),
            BatchOpKind::Delete => self.pipeline(items, out, Self::delete_key),
        }
    }

    // ---- delete -------------------------------------------------------

    /// Removes one copy of `item`; returns `true` if a copy was removed.
    ///
    /// Takes all (≤ 4) distinct candidate locks in ascending order. By
    /// Theorem 1 closure any concurrent relocation of this fingerprint
    /// moves it between two of *these* buckets, so holding all of them
    /// gives an exact answer: exactly one copy removed if any exists.
    pub fn delete(&self, item: &[u8]) -> bool {
        self.run_one(item, Self::delete_key)
    }

    /// Delete core for an already-derived key, tallying into `tally`.
    fn delete_key(&self, fingerprint: u32, cands: &Candidates, tally: &mut Stats) -> bool {
        tally.hash_computations += 2; // hash(x) + hash(η)
        let (distinct, distinct_len) = Self::distinct_sorted(cands);
        let distinct = &distinct[..distinct_len];

        for &bucket in distinct {
            self.lock(bucket);
        }
        let mut probes = 0u64;
        let mut removed = false;
        for &bucket in distinct {
            probes += self.table.slots_per_bucket() as u64;
            if let Some(slot) = self.table.find(bucket, fingerprint) {
                removed = self.table.replace_expect(bucket, slot, fingerprint, 0);
                debug_assert!(removed, "found lane changed under candidate locks");
                break;
            }
        }
        for &bucket in distinct.iter().rev() {
            self.unlock(bucket);
        }
        tally.deletes += one_call(probes, distinct_len as u64);
        removed
    }

    /// Number of stored entries — exact: successful inserts minus
    /// successful deletes (relocation is occupancy-neutral; a transient
    /// over-count of one per in-flight move is possible mid-operation).
    pub fn len(&self) -> usize {
        self.table.occupied()
    }

    /// Returns `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot capacity `m · b`.
    pub fn capacity(&self) -> usize {
        self.table.capacity()
    }

    /// Current load factor.
    pub fn load_factor(&self) -> f64 {
        self.table.load_factor()
    }

    /// Snapshot of the operation counters.
    pub fn stats(&self) -> Stats {
        self.counters.snapshot()
    }

    /// Resets the operation counters.
    pub fn reset_stats(&self) {
        self.counters.reset();
    }

    /// Short human-readable name.
    pub fn name(&self) -> String {
        self.label.clone()
    }
}

impl ConcurrentFilter for ConcurrentVcf {
    fn insert(&self, item: &[u8]) -> Result<(), InsertError> {
        ConcurrentVcf::insert(self, item)
    }

    fn insert_batch(&self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        ConcurrentVcf::insert_batch(self, items)
    }

    fn contains(&self, item: &[u8]) -> bool {
        ConcurrentVcf::contains(self, item)
    }

    fn delete(&self, item: &[u8]) -> bool {
        ConcurrentVcf::delete(self, item)
    }

    fn run_batch(&self, op: BatchOpKind, items: &[&[u8]], out: &mut [bool]) {
        ConcurrentVcf::run_batch(self, op, items, out);
    }

    fn len(&self) -> usize {
        ConcurrentVcf::len(self)
    }

    fn capacity(&self) -> usize {
        ConcurrentVcf::capacity(self)
    }

    fn stats(&self) -> Stats {
        ConcurrentVcf::stats(self)
    }

    fn reset_stats(&self) {
        ConcurrentVcf::reset_stats(self);
    }

    fn name(&self) -> String {
        ConcurrentVcf::name(self)
    }
}

/// The sequential [`Filter`] contract, for drop-in use anywhere a
/// `&mut`-style filter is expected (benches, the filter contract suite).
/// Methods simply delegate to the `&self` implementations.
impl Filter for ConcurrentVcf {
    fn insert(&mut self, item: &[u8]) -> Result<(), InsertError> {
        ConcurrentVcf::insert(self, item)
    }

    fn insert_batch(&mut self, items: &[&[u8]]) -> Vec<Result<(), InsertError>> {
        ConcurrentVcf::insert_batch(self, items)
    }

    fn contains(&self, item: &[u8]) -> bool {
        ConcurrentVcf::contains(self, item)
    }

    fn contains_batch(&self, items: &[&[u8]]) -> Vec<bool> {
        ConcurrentVcf::contains_batch(self, items)
    }

    fn delete(&mut self, item: &[u8]) -> bool {
        ConcurrentVcf::delete(self, item)
    }

    fn len(&self) -> usize {
        ConcurrentVcf::len(self)
    }

    fn capacity(&self) -> usize {
        ConcurrentVcf::capacity(self)
    }

    fn stats(&self) -> Stats {
        ConcurrentVcf::stats(self)
    }

    fn reset_stats(&mut self) {
        ConcurrentVcf::reset_stats(self);
    }

    fn name(&self) -> String {
        ConcurrentVcf::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn small() -> ConcurrentVcf {
        ConcurrentVcf::new(CuckooConfig::new(1 << 8).with_seed(1)).unwrap()
    }

    fn key(i: u64) -> Vec<u8> {
        format!("item-{i}").into_bytes()
    }

    #[test]
    fn insert_lookup_delete_roundtrip() {
        let f = small();
        f.insert(b"x").unwrap();
        assert!(f.contains(b"x"));
        assert_eq!(f.len(), 1);
        assert!(f.delete(b"x"));
        assert!(!f.contains(b"x"));
        assert_eq!(f.len(), 0);
        assert!(!f.delete(b"x"));
    }

    #[test]
    fn straddling_geometry_is_rejected() {
        // 8 slots × 12 bits: lanes cross the 64-bit word boundary, so the
        // atomic engine cannot CAS a single lane.
        let config = CuckooConfig::new(1 << 8)
            .with_slots_per_bucket(8)
            .with_fingerprint_bits(12);
        assert!(matches!(
            ConcurrentVcf::new(config),
            Err(BuildError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn fills_past_95_percent() {
        let f = ConcurrentVcf::new(CuckooConfig::new(1 << 10).with_seed(3)).unwrap();
        let capacity = f.capacity();
        let mut stored = 0;
        for i in 0..capacity as u64 {
            if f.insert(&key(i)).is_ok() {
                stored += 1;
            }
        }
        let alpha = stored as f64 / capacity as f64;
        assert!(alpha > 0.95, "ConcurrentVcf load factor only {alpha}");
        assert_eq!(f.len(), stored, "occupancy must equal successful inserts");
    }

    #[test]
    fn no_false_negatives_when_nearly_full() {
        let f = ConcurrentVcf::new(CuckooConfig::new(1 << 10).with_seed(5)).unwrap();
        let mut stored = Vec::new();
        for i in 0..f.capacity() as u64 {
            if f.insert(&key(i)).is_ok() {
                stored.push(i);
            }
        }
        for i in stored {
            assert!(f.contains(&key(i)), "item {i} lost");
        }
    }

    #[test]
    fn failed_insert_leaves_consistent_table() {
        let f = ConcurrentVcf::new(CuckooConfig::new(1 << 5).with_seed(7)).unwrap();
        let mut stored = Vec::new();
        for i in 0..(f.capacity() as u64 + 64) {
            if f.insert(&key(i)).is_ok() {
                stored.push(i);
            }
        }
        assert_eq!(f.len(), stored.len(), "occupancy drifted across failures");
        for i in stored {
            assert!(f.contains(&key(i)), "acknowledged item {i} lost");
        }
    }

    #[test]
    fn duplicate_inserts_are_independent_copies() {
        let f = small();
        f.insert(b"dup").unwrap();
        f.insert(b"dup").unwrap();
        assert_eq!(f.len(), 2);
        assert!(f.delete(b"dup"));
        assert!(f.contains(b"dup"), "second copy must survive one delete");
        assert!(f.delete(b"dup"));
        assert!(!f.contains(b"dup"));
    }

    #[test]
    fn concurrent_inserts_from_many_threads_are_all_found() {
        let f = Arc::new(ConcurrentVcf::new(CuckooConfig::new(1 << 10).with_seed(11)).unwrap());
        let threads = 8u64;
        let per_thread = 256u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        f.insert(&key(t * 1_000_000 + i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(f.len(), (threads * per_thread) as usize);
        for t in 0..threads {
            for i in 0..per_thread {
                assert!(f.contains(&key(t * 1_000_000 + i)), "thread {t} item {i}");
            }
        }
    }

    #[test]
    fn concurrent_mixed_churn_keeps_occupancy_exact() {
        let f = Arc::new(ConcurrentVcf::new(CuckooConfig::new(1 << 9).with_seed(13)).unwrap());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    let mut net = 0i64;
                    for i in 0..400u64 {
                        let k = key(t * 1_000_000 + i);
                        if f.insert(&k).is_ok() {
                            net += 1;
                        }
                        if i % 3 == 0 && f.delete(&k) {
                            net -= 1;
                        }
                    }
                    net
                })
            })
            .collect();
        let net: i64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(f.len() as i64, net, "len must track inserts - deletes");
    }

    #[test]
    fn contains_batch_matches_scalar() {
        let f = small();
        for i in 0..300 {
            f.insert(&key(i)).unwrap();
        }
        let keys: Vec<Vec<u8>> = (0..600).map(key).collect();
        let refs: Vec<&[u8]> = keys.iter().map(std::vec::Vec::as_slice).collect();
        let batch = f.contains_batch(&refs);
        for (i, k) in refs.iter().enumerate() {
            assert_eq!(batch[i], f.contains(k), "batch diverged at {i}");
        }
    }

    /// Drives a random insert/lookup/delete script through the batch
    /// calls (`run_batch`, and `insert_batch` for every other insert
    /// batch) on one filter and through the single-key calls on an
    /// identically seeded twin, asserting identical outcomes, `len()` and
    /// `Stats` after every batch. Batches hold 1, `WINDOW - 1`, `WINDOW`,
    /// `WINDOW + 1` and 1024 keys. Below `target` load the script
    /// inserts; at or above it, it looks up or deletes, so the load
    /// churns around `target`. Returns the peak load and the final
    /// `Stats`.
    fn assert_batch_matches_serial(buckets: usize, target: f64, steps: usize) -> (f64, Stats) {
        use rand::{Rng, SeedableRng};
        // A short kick limit keeps the failing inserts of an overfull
        // 1024-key batch cheap in debug builds.
        let config = CuckooConfig::new(buckets)
            .with_seed(0xBA7C4)
            .with_max_kicks(64);
        let batched = ConcurrentVcf::new(config).unwrap();
        let serial = ConcurrentVcf::new(config).unwrap();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(buckets as u64);
        let lens = [1, WINDOW - 1, WINDOW, WINDOW + 1, 1024];
        let mut live: Vec<u64> = Vec::new();
        let mut next_key = 0u64;
        let mut peak_load = 0f64;
        for step in 0..steps {
            let len = lens[step % lens.len()];
            let op = if serial.load_factor() < target {
                BatchOpKind::Insert
            } else if rng.gen_bool(0.5) {
                BatchOpKind::Lookup
            } else {
                BatchOpKind::Delete
            };
            let ids: Vec<u64> = if op == BatchOpKind::Insert {
                next_key += len as u64;
                (next_key - len as u64..next_key).collect()
            } else {
                // Half live keys, half keys never inserted.
                (0..len)
                    .map(|_| match live.len() {
                        n if n > 0 && rng.gen_bool(0.5) => live[rng.gen_range(0..n)],
                        _ => u64::MAX - rng.gen_range(0..1u64 << 32),
                    })
                    .collect()
            };
            let keys: Vec<Vec<u8>> = ids.iter().map(|&i| key(i)).collect();
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();

            let mut bits = vec![false; len];
            let expected: Vec<bool> = match op {
                BatchOpKind::Insert if step % 2 == 0 => {
                    let serial_results: Vec<_> = refs.iter().map(|k| serial.insert(k)).collect();
                    let batch_results = batched.insert_batch(&refs);
                    assert_eq!(batch_results, serial_results, "step {step}: insert_batch");
                    for (bit, result) in bits.iter_mut().zip(&batch_results) {
                        *bit = result.is_ok();
                    }
                    serial_results.iter().map(Result::is_ok).collect()
                }
                _ => {
                    batched.run_batch(op, &refs, &mut bits);
                    refs.iter()
                        .map(|k| match op {
                            BatchOpKind::Insert => serial.insert(k).is_ok(),
                            BatchOpKind::Lookup => serial.contains(k),
                            BatchOpKind::Delete => serial.delete(k),
                        })
                        .collect()
                }
            };
            assert_eq!(bits, expected, "step {step}: {} bits", op.label());
            assert_eq!(batched.len(), serial.len(), "step {step}: len");
            assert_eq!(batched.stats(), serial.stats(), "step {step}: stats");

            for (&id, &bit) in ids.iter().zip(&expected) {
                match op {
                    BatchOpKind::Insert if bit => live.push(id),
                    BatchOpKind::Delete if bit => {
                        if let Some(pos) = live.iter().position(|&l| l == id) {
                            live.swap_remove(pos);
                        }
                    }
                    _ => {}
                }
            }
            peak_load = peak_load.max(serial.load_factor());
        }
        let stats = serial.stats();
        assert!(
            stats.lookups.calls > 0 && stats.deletes.calls > 0,
            "script ran every op"
        );
        (peak_load, stats)
    }

    #[test]
    fn batch_matches_serial_at_low_load() {
        let (peak, stats) = assert_batch_matches_serial(1 << 12, 0.25, 60);
        assert!(peak < 0.5, "low-load script peaked at {peak}");
        // Every insert and delete hashes the key and its fingerprint once,
        // and every relocation rehashes one fingerprint. A walk that finds
        // no path also counts a kick, so this holds only while every walk
        // succeeds, as it does at low load.
        assert_eq!(
            stats.hash_computations,
            2 * (stats.inserts.calls + stats.deletes.calls) + stats.kicks,
            "hashes = 2·(inserts + deletes) + kicks"
        );
    }

    #[test]
    fn batch_matches_serial_at_95_percent_load_with_kicks() {
        let (peak, stats) = assert_batch_matches_serial(1 << 10, 0.95, 120);
        assert!(peak >= 0.95, "high-load script only reached {peak}");
        assert!(stats.kicks > 0, "no relocation ran");
        assert!(stats.failed_inserts > 0, "no insert hit the kick limit");
    }

    #[test]
    fn pipeline_ignores_surplus_output_slots() {
        // `out` longer than `items`: the slots past the last key keep
        // their value instead of reusing a stale staged key.
        let f = small();
        let keys: Vec<Vec<u8>> = (0..WINDOW as u64 + 3).map(key).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        let mut out = vec![false; 2 * WINDOW + 8];
        f.run_batch(BatchOpKind::Insert, &refs, &mut out);
        assert!(out[..refs.len()].iter().all(|&b| b));
        assert!(out[refs.len()..].iter().all(|&b| !b));
        assert_eq!(f.len(), refs.len());
        assert_eq!(f.stats().inserts.calls, refs.len() as u64);
    }

    #[test]
    fn stats_and_name() {
        let f = small();
        f.insert(b"a").unwrap();
        assert!(f.contains(b"a"));
        let s = f.stats();
        assert_eq!(s.inserts.calls, 1);
        assert_eq!(s.lookups.calls, 1);
        assert_eq!(f.name(), "ConcurrentVCF");
        f.reset_stats();
        assert_eq!(f.stats(), Stats::default());
    }

    #[test]
    fn filter_trait_delegation_works() {
        let mut f = small();
        Filter::insert(&mut f, b"via-filter").unwrap();
        assert!(Filter::contains(&f, b"via-filter"));
        assert!(Filter::delete(&mut f, b"via-filter"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ConcurrentVcf>();
    }
}
