//! Shard-affinity executor with an inline fast path.
//!
//! The server owns one [`ShardExecutor`] shared by every connection.
//! Worker thread `w` owns the shard group `{s : s % workers == w}`. A
//! connection thread routes each frame's keys by
//! [`ShardEngine::shard_of`] into one group per worker:
//!
//! * When exactly one group is non-empty — every frame with one worker,
//!   and small frames with more — the connection thread runs that group
//!   itself, through the same [`run_items`] the workers call, and skips
//!   the channel hop.
//! * Otherwise it dispatches one [`Job`] per involved worker, blocks for
//!   the replies, and scatters the per-key outcome bits into the
//!   response bitmap.
//!
//! So a shard is not touched by exactly one thread: an inline frame runs
//! on its connection thread while a worker may run another frame on the
//! same shard. That is safe because every shard call goes through the
//! engine's `&self` batch call — lock-free seqlock `ConcurrentVcf`
//! shards, or `RwLock`-guarded elastic shards. Per-key order still holds
//! end to end: a key always maps to one shard, a frame's keys run in
//! input order within each shard (routing is a stable counting sort by
//! shard), and a connection has at most one frame in flight.
//!
//! Steady-state frames allocate nothing on the default
//! `ShardedConcurrentVcf` engine: routing, item and result buffers are
//! per-connection scratch handed to workers and back, a worker passes
//! keys to the shard through a fixed stack chunk, and the shard writes
//! its outcome bits into a slice the caller owns
//! ([`ShardEngine::shard_run`]).
//!
//! This module is on the server hot path and is written panic-free
//! (checked by `vcf-xtask lint`'s no-panic rule).

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use vcf_core::ShardRouter;
use vcf_traits::{BatchOpKind, ConcurrentFilter};

use crate::protocol::{bitmap_set, KEY_LEN};

/// Keys handed to one shard call. Longer per-shard runs are split into
/// chunks of this size; the outcome bits do not change, because every
/// engine's batch call answers like its serial loop.
const RUN_CHUNK: usize = 128;

/// A sharded batched-op engine the executor can route over: shard
/// resolution plus per-shard batch execution, object-safe so the server
/// can hold `Arc<dyn ShardEngine>` regardless of the concrete filter.
pub trait ShardEngine: Send + Sync {
    /// Number of shards (a power of two).
    fn shard_count(&self) -> usize;

    /// Shard owning `key` — the same routing the filter itself uses.
    fn shard_of(&self, key: &[u8]) -> usize;

    /// Executes one single-kind batch entirely within `shard`, writing
    /// one outcome bit per key, in input order, into `out` (sized
    /// `keys.len()` by the caller). Out-of-range shards (impossible via
    /// [`Self::shard_of`]) yield all-false.
    fn shard_run(&self, shard: usize, op: BatchOpKind, keys: &[&[u8]], out: &mut [bool]);

    /// [`Self::shard_run`] returning a fresh `Vec` of outcome bits.
    fn shard_execute(&self, shard: usize, op: BatchOpKind, keys: &[&[u8]]) -> Vec<bool> {
        let mut out = vec![false; keys.len()];
        self.shard_run(shard, op, keys, &mut out);
        out
    }

    /// Entries stored across all shards.
    fn total_len(&self) -> usize;

    /// Entry capacity across all shards.
    fn total_capacity(&self) -> usize;

    /// Display name for logs and stats replies.
    fn engine_name(&self) -> String;
}

/// Every router is an engine. Shard calls allocate nothing on
/// `ConcurrentVcf` shards; `RwLock`-wrapped shards (the elastic
/// `ShardedScalableVcf`) keep the allocations of their sequential
/// filter's batch calls.
impl<F: ConcurrentFilter> ShardEngine for ShardRouter<F> {
    fn shard_count(&self) -> usize {
        ShardRouter::shard_count(self)
    }

    fn shard_of(&self, key: &[u8]) -> usize {
        ShardRouter::shard_of(self, key)
    }

    fn shard_run(&self, shard: usize, op: BatchOpKind, keys: &[&[u8]], out: &mut [bool]) {
        match self.shards().get(shard) {
            Some(filter) => filter.run_batch(op, keys, out),
            None => out.fill(false),
        }
    }

    fn total_len(&self) -> usize {
        self.len()
    }

    fn total_capacity(&self) -> usize {
        self.capacity()
    }

    fn engine_name(&self) -> String {
        self.name()
    }
}

/// One routed key: its frame position, owning shard, and the 8 wire
/// bytes (kept by value so jobs borrow nothing from the frame buffer).
#[derive(Debug, Clone, Copy, Default)]
struct Item {
    pos: u32,
    shard: u16,
    key: [u8; KEY_LEN],
}

/// One worker's reusable buffers: its routed items, and the outcome bit
/// of each item's frame position. They travel to the worker inside a
/// [`Job`] and come back inside its [`WorkerReply`].
#[derive(Default)]
struct WorkerBufs {
    items: Vec<Item>,
    results: Vec<(u32, bool)>,
}

/// One worker's slice of a frame.
struct Job {
    op: BatchOpKind,
    bufs: WorkerBufs,
    reply: mpsc::Sender<WorkerReply>,
}

/// A worker's answer: the buffers it was sent, with `results` filled.
struct WorkerReply {
    worker: u32,
    bufs: WorkerBufs,
}

/// The executor went away (worker threads stopped); the server reports
/// an internal error and closes the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorDown;

/// Per-connection routing scratch: a private reply channel, one set of
/// reusable buffers per worker, and the routing sort's buffers, so
/// steady-state frames allocate nothing on the routing side.
pub struct ExecScratch {
    reply_tx: mpsc::Sender<WorkerReply>,
    reply_rx: mpsc::Receiver<WorkerReply>,
    per_worker: Vec<WorkerBufs>,
    /// The shard of each key of the frame being routed.
    shards: Vec<u16>,
    /// Per shard: its key count, then the next free slot in its
    /// worker's item buffer.
    next_slot: Vec<u32>,
}

impl ExecScratch {
    /// Routes `payload`'s keys into the per-worker item buffers with a
    /// counting sort: each buffer holds its worker's keys grouped by
    /// shard, in input order within a shard.
    fn route(&mut self, engine: &dyn ShardEngine, workers: usize, payload: &[u8]) {
        self.shards.clear();
        self.next_slot.fill(0);
        for key in payload.chunks_exact(KEY_LEN) {
            let shard = engine.shard_of(key);
            self.shards.push(shard as u16);
            if let Some(count) = self.next_slot.get_mut(shard) {
                *count += 1;
            }
        }
        // Counts become each shard's first slot in its worker's buffer.
        for (worker, bufs) in self.per_worker.iter_mut().enumerate() {
            let mut len = 0;
            for slot in self.next_slot.iter_mut().skip(worker).step_by(workers) {
                let count = *slot;
                *slot = len;
                len += count;
            }
            bufs.items.clear();
            bufs.items.resize(len as usize, Item::default());
        }
        let keys = payload.chunks_exact(KEY_LEN).zip(&self.shards);
        for (pos, (key, &shard)) in keys.enumerate() {
            let (Some(slot), Some(bufs)) = (
                self.next_slot.get_mut(usize::from(shard)),
                self.per_worker.get_mut(usize::from(shard) % workers),
            ) else {
                continue;
            };
            if let Some(item) = bufs.items.get_mut(*slot as usize) {
                item.pos = pos as u32;
                item.shard = shard;
                item.key.copy_from_slice(key);
            }
            *slot += 1;
        }
    }
}

/// Shard-affinity batch executor over an [`ShardEngine`].
pub struct ShardExecutor {
    engine: Arc<dyn ShardEngine>,
    senders: Vec<mpsc::Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardExecutor {
    /// Spawns `workers` worker threads over `engine`, clamped to
    /// `1..=shard_count` so every worker owns at least one shard.
    #[must_use]
    pub fn new(engine: Arc<dyn ShardEngine>, workers: usize) -> Self {
        let workers = workers.clamp(1, engine.shard_count().max(1));
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for worker in 0..workers {
            let (tx, rx) = mpsc::channel::<Job>();
            senders.push(tx);
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                worker_loop(engine.as_ref(), worker as u32, &rx);
            }));
        }
        Self {
            engine,
            senders,
            handles,
        }
    }

    /// The engine the workers execute against.
    #[must_use]
    pub fn engine(&self) -> &Arc<dyn ShardEngine> {
        &self.engine
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.senders.len()
    }

    /// Fresh per-connection scratch sized for this executor.
    #[must_use]
    pub fn scratch(&self) -> ExecScratch {
        let (reply_tx, reply_rx) = mpsc::channel();
        ExecScratch {
            reply_tx,
            reply_rx,
            per_worker: (0..self.workers()).map(|_| WorkerBufs::default()).collect(),
            shards: Vec::new(),
            next_slot: vec![0; self.engine.shard_count()],
        }
    }

    // lint: hot-path
    /// Executes one data frame: routes `payload` (concatenated 8-byte
    /// keys) per worker, runs a frame that touches one worker on the
    /// calling thread and dispatches any other frame to the owning
    /// workers, and sets the per-key outcome bits in `bitmap` (which the
    /// caller supplies zeroed, sized `bitmap_len(count)`).
    ///
    /// # Errors
    ///
    /// [`ExecutorDown`] if the worker threads have stopped.
    pub fn execute(
        &self,
        op: BatchOpKind,
        payload: &[u8],
        scratch: &mut ExecScratch,
        bitmap: &mut [u8],
    ) -> Result<(), ExecutorDown> {
        let workers = self.workers();
        if workers == 0 {
            return Err(ExecutorDown);
        }
        scratch.route(self.engine.as_ref(), workers, payload);

        let mut busy = scratch
            .per_worker
            .iter_mut()
            .filter(|bufs| !bufs.items.is_empty());
        if let (Some(only), None) = (busy.next(), busy.next()) {
            run_items(self.engine.as_ref(), op, &only.items, |pos, bit| {
                if bit {
                    bitmap_set(bitmap, pos as usize);
                }
            });
            only.items.clear();
            return Ok(());
        }

        let mut dispatched = 0usize;
        for (worker, bufs) in scratch.per_worker.iter_mut().enumerate() {
            if bufs.items.is_empty() {
                continue;
            }
            let job = Job {
                op,
                bufs: std::mem::take(bufs),
                reply: scratch.reply_tx.clone(),
            };
            match self.senders.get(worker) {
                Some(tx) if tx.send(job).is_ok() => dispatched += 1,
                _ => return Err(ExecutorDown),
            }
        }

        for _ in 0..dispatched {
            let Ok(mut reply) = scratch.reply_rx.recv() else {
                return Err(ExecutorDown);
            };
            for &(pos, bit) in &reply.bufs.results {
                if bit {
                    bitmap_set(bitmap, pos as usize);
                }
            }
            reply.bufs.items.clear();
            reply.bufs.results.clear();
            if let Some(bufs) = scratch.per_worker.get_mut(reply.worker as usize) {
                *bufs = reply.bufs;
            }
        }
        Ok(())
    }

    /// Stops the workers and joins them. Idempotent; also run by drop.
    /// Later frames, inline ones included, report [`ExecutorDown`].
    pub fn shutdown(&mut self) {
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ShardExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Worker body: drain jobs until every sender is gone, running each
/// through [`run_items`] into the job's own `results` buffer.
fn worker_loop(engine: &dyn ShardEngine, worker: u32, rx: &mpsc::Receiver<Job>) {
    while let Ok(mut job) = rx.recv() {
        let WorkerBufs { items, results } = &mut job.bufs;
        run_items(engine, job.op, items, |pos, bit| results.push((pos, bit)));
        let reply = WorkerReply {
            worker,
            bufs: job.bufs,
        };
        let _ = job.reply.send(reply);
    }
}

// lint: hot-path
/// Runs one worker's share of a frame, on a worker thread or inline on
/// the connection thread. `items` come grouped by shard, in input order
/// within a shard ([`ExecScratch::route`]). Each shard's run executes as
/// batches of at most [`RUN_CHUNK`] keys on the shard's prefetch
/// pipeline, and every item's outcome goes to `emit(pos, bit)`.
fn run_items(
    engine: &dyn ShardEngine,
    op: BatchOpKind,
    items: &[Item],
    mut emit: impl FnMut(u32, bool),
) {
    let mut keys: [&[u8]; RUN_CHUNK] = [&[]; RUN_CHUNK];
    let mut bits = [false; RUN_CHUNK];
    let mut rest = items;
    while let Some(first) = rest.first() {
        let shard = first.shard;
        let run_len = rest
            .iter()
            .take(RUN_CHUNK)
            .take_while(|item| item.shard == shard)
            .count();
        let (run, tail) = rest.split_at(run_len);
        rest = tail;
        for (key, item) in keys.iter_mut().zip(run) {
            *key = &item.key;
        }
        let bits = &mut bits[..run_len];
        engine.shard_run(usize::from(shard), op, &keys[..run_len], bits);
        for (item, &bit) in run.iter().zip(bits.iter()) {
            emit(item.pos, bit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::bitmap_get;
    use vcf_core::{CuckooConfig, ShardedConcurrentVcf};

    fn test_engine() -> Arc<dyn ShardEngine> {
        let config = CuckooConfig::new(1 << 10).with_seed(7);
        Arc::new(ShardedConcurrentVcf::new(config, 3).expect("config is valid"))
    }

    fn keys_payload(keys: &[u64]) -> Vec<u8> {
        keys.iter().flat_map(|k| k.to_le_bytes()).collect()
    }

    fn run_bitmap(
        exec: &ShardExecutor,
        scratch: &mut ExecScratch,
        op: BatchOpKind,
        keys: &[u64],
    ) -> Vec<u8> {
        let payload = keys_payload(keys);
        let mut bitmap = vec![0u8; keys.len().div_ceil(8)];
        exec.execute(op, &payload, scratch, &mut bitmap)
            .expect("workers alive");
        bitmap
    }

    /// Keys from a fixed stream whose shards all belong to `worker` of
    /// `workers`, so a frame of them runs inline.
    fn keys_of_worker(worker: usize, workers: usize, count: usize, salt: u64) -> Vec<u64> {
        let engine = test_engine();
        (0u64..)
            .map(|i| (i ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .filter(|k| engine.shard_of(&k.to_le_bytes()) % workers == worker)
            .take(count)
            .collect()
    }

    /// True while no frame has gone to a worker: a worker fills the
    /// `results` buffer it is sent, and that buffer comes back with
    /// capacity, while the inline path never touches it.
    fn stayed_inline(scratch: &ExecScratch) -> bool {
        scratch
            .per_worker
            .iter()
            .all(|bufs| bufs.results.capacity() == 0)
    }

    /// Runs every frame as an insert, then a lookup, then a delete
    /// through an executor with `workers` workers, and checks each bit
    /// against direct batch calls on an identically-built router.
    fn assert_matches_router(workers: usize, frames: &[Vec<u64>]) {
        let config = CuckooConfig::new(1 << 10).with_seed(7);
        let oracle = ShardedConcurrentVcf::new(config, 3).expect("config is valid");
        let exec = ShardExecutor::new(test_engine(), workers);
        let mut scratch = exec.scratch();
        for op in [
            BatchOpKind::Insert,
            BatchOpKind::Lookup,
            BatchOpKind::Delete,
        ] {
            for (frame, keys) in frames.iter().enumerate() {
                let got = run_bitmap(&exec, &mut scratch, op, keys);
                let key_bytes: Vec<[u8; 8]> = keys.iter().map(|k| k.to_le_bytes()).collect();
                let key_refs: Vec<&[u8]> = key_bytes.iter().map(|k| &k[..]).collect();
                let expected: Vec<bool> = match op {
                    BatchOpKind::Insert => oracle
                        .insert_batch(&key_refs)
                        .iter()
                        .map(Result::is_ok)
                        .collect(),
                    BatchOpKind::Lookup => oracle.contains_batch(&key_refs),
                    BatchOpKind::Delete => oracle.delete_batch(&key_refs),
                };
                for (i, want) in expected.iter().enumerate() {
                    assert_eq!(
                        bitmap_get(&got, i),
                        *want,
                        "{workers} workers, frame {frame}, {} bit {i}",
                        op.label()
                    );
                }
            }
            assert_eq!(exec.engine().total_len(), oracle.len());
        }
    }

    #[test]
    fn executed_batches_match_direct_router_calls() {
        let mixed: Vec<u64> = (0..500u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        // Three workers: the mixed frame is dispatched, each
        // single-worker frame runs inline.
        let mut frames = vec![mixed];
        frames.extend((0..3).map(|w| keys_of_worker(w, 3, 60, 1)));
        assert_matches_router(3, &frames);
        // One worker: every frame runs inline.
        frames.push((0..7u64).collect());
        assert_matches_router(1, &frames);
    }

    #[test]
    fn frames_touching_one_worker_run_inline() {
        let exec = ShardExecutor::new(test_engine(), 3);
        let mut scratch = exec.scratch();
        for worker in 0..3 {
            let keys = keys_of_worker(worker, 3, 40, 2);
            run_bitmap(&exec, &mut scratch, BatchOpKind::Insert, &keys);
            let found = run_bitmap(&exec, &mut scratch, BatchOpKind::Lookup, &keys);
            assert!((0..keys.len()).all(|i| bitmap_get(&found, i)));
        }
        assert!(stayed_inline(&scratch));
        let mixed: Vec<u64> = (0..64u64).collect();
        run_bitmap(&exec, &mut scratch, BatchOpKind::Lookup, &mixed);
        assert!(
            !stayed_inline(&scratch),
            "a frame touching 3 workers is dispatched"
        );

        let exec = ShardExecutor::new(test_engine(), 1);
        let mut scratch = exec.scratch();
        run_bitmap(&exec, &mut scratch, BatchOpKind::Insert, &mixed);
        assert!(stayed_inline(&scratch));
    }

    #[test]
    fn duplicate_keys_keep_input_order_on_the_inline_path() {
        for workers in [1, 3] {
            let exec = ShardExecutor::new(test_engine(), workers);
            let mut scratch = exec.scratch();
            // One key routes to one worker: both frames run inline.
            let inserted = run_bitmap(&exec, &mut scratch, BatchOpKind::Insert, &[42, 42]);
            assert!(bitmap_get(&inserted, 0));
            assert!(bitmap_get(&inserted, 1));
            let removed = run_bitmap(&exec, &mut scratch, BatchOpKind::Delete, &[42, 42, 42]);
            assert!(bitmap_get(&removed, 0));
            assert!(bitmap_get(&removed, 1));
            assert!(!bitmap_get(&removed, 2), "{workers} workers");
            assert!(stayed_inline(&scratch));
        }
    }

    #[test]
    fn worker_count_is_clamped_to_shard_count() {
        let exec = ShardExecutor::new(test_engine(), 64);
        assert_eq!(exec.workers(), 8); // 3 shard bits
        let exec = ShardExecutor::new(test_engine(), 0);
        assert_eq!(exec.workers(), 1);
    }

    #[test]
    fn shutdown_then_execute_reports_down() {
        let mut exec = ShardExecutor::new(test_engine(), 2);
        let mut scratch = exec.scratch();
        exec.shutdown();
        let payload = keys_payload(&[1, 2, 3]);
        let mut bitmap = vec![0u8; 1];
        assert_eq!(
            exec.execute(BatchOpKind::Insert, &payload, &mut scratch, &mut bitmap),
            Err(ExecutorDown)
        );
    }

    #[test]
    fn shutdown_then_inline_frame_reports_down() {
        for workers in [1, 3] {
            let mut exec = ShardExecutor::new(test_engine(), workers);
            let mut scratch = exec.scratch();
            exec.shutdown();
            let payload = keys_payload(&keys_of_worker(0, workers, 3, 3));
            let mut bitmap = vec![0u8; 1];
            assert_eq!(
                exec.execute(BatchOpKind::Insert, &payload, &mut scratch, &mut bitmap),
                Err(ExecutorDown)
            );
            assert_eq!(exec.engine().total_len(), 0);
        }
    }

    #[test]
    fn empty_payload_is_a_no_op() {
        let exec = ShardExecutor::new(test_engine(), 2);
        let mut scratch = exec.scratch();
        let mut bitmap = [0u8; 0];
        assert_eq!(
            exec.execute(BatchOpKind::Lookup, &[], &mut scratch, &mut bitmap),
            Ok(())
        );
    }
}
