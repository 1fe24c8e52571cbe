//! Steady-state data frames allocate nothing on the default engine.
//!
//! A counting global allocator wraps the system one. After a warm-up
//! that sizes the per-connection scratch, every insert, lookup and
//! delete frame that runs inline on the calling thread — each frame
//! with one worker, and a frame whose keys route to one worker with
//! more — must make zero heap allocations on a `ShardedConcurrentVcf`.
//! That includes inserts at 95% load and above, where the eviction walk
//! runs. The count covers the calling thread only, where inline frames
//! run; the idle worker threads' own start-up allocations are not
//! frame work. This file is its own test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use vcf_core::{CuckooConfig, ShardedConcurrentVcf};
use vcf_server::{ShardEngine, ShardExecutor};
use vcf_traits::BatchOpKind;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread while counting, or `None` when
    /// not counting. Const-initialised, so reading it never allocates.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

impl CountingAlloc {
    fn record() {
        ALLOCS.with(|count| count.set(count.get().map(|n| n + 1)));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Keys per frame, as in the small-frame wire workload.
const FRAME: usize = 16;

/// Heap allocations this thread makes while `run` executes.
fn allocations_during(run: impl FnOnce()) -> u64 {
    ALLOCS.with(|count| count.set(Some(0)));
    run();
    ALLOCS.with(|count| count.replace(None)).unwrap_or(0)
}

/// An executor over a fresh engine, and a deterministic key stream
/// restricted to the shards of worker 0.
struct Rig {
    filter: Arc<ShardedConcurrentVcf>,
    exec: ShardExecutor,
    scratch: vcf_server::ExecScratch,
    workers: usize,
    next_key: u64,
}

impl Rig {
    fn new(workers: usize) -> Self {
        let config = CuckooConfig::with_total_slots(1 << 14).with_seed(31);
        let filter = Arc::new(ShardedConcurrentVcf::new(config, 2).expect("valid geometry"));
        let exec = ShardExecutor::new(Arc::clone(&filter) as Arc<dyn ShardEngine>, workers);
        let scratch = exec.scratch();
        Self {
            filter,
            exec,
            scratch,
            workers,
            next_key: 0,
        }
    }

    /// The payload of one frame of fresh keys that all route to worker 0.
    fn fresh_frame(&mut self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(FRAME * 8);
        while payload.len() < FRAME * 8 {
            self.next_key += 1;
            let key = self
                .next_key
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .to_le_bytes();
            if self.filter.shard_of(&key).is_multiple_of(self.workers) {
                payload.extend_from_slice(&key);
            }
        }
        payload
    }

    /// Runs one frame and returns how many keys answered 1.
    fn run(&mut self, op: BatchOpKind, payload: &[u8]) -> u32 {
        let mut bitmap = [0u8; FRAME / 8];
        self.exec
            .execute(op, payload, &mut self.scratch, &mut bitmap)
            .expect("executor is running");
        bitmap.iter().map(|byte| byte.count_ones()).sum()
    }

    fn load(&self) -> f64 {
        self.filter.len() as f64 / self.filter.capacity() as f64
    }
}

/// Churn rounds at the rig's current load: each round inserts a fresh
/// frame, looks it up, and deletes the oldest live frame. Returns the
/// allocations made by the measured frames.
fn churn(rig: &mut Rig, live: &mut Vec<Vec<u8>>, rounds: usize) -> u64 {
    let mut allocations = 0;
    for _ in 0..rounds {
        let frame = rig.fresh_frame();
        let oldest = live.remove(0);
        allocations += allocations_during(|| {
            rig.run(BatchOpKind::Insert, &frame);
            rig.run(BatchOpKind::Lookup, &frame);
            rig.run(BatchOpKind::Delete, &oldest);
        });
        live.push(frame);
    }
    allocations
}

#[test]
fn steady_state_inline_frames_allocate_nothing() {
    for workers in [1, 2] {
        let mut rig = Rig::new(workers);
        let mut live: Vec<Vec<u8>> = Vec::new();

        // Warm-up: size the scratch buffers, then churn at low load.
        for _ in 0..8 {
            let frame = rig.fresh_frame();
            assert_eq!(rig.run(BatchOpKind::Insert, &frame), FRAME as u32);
            live.push(frame);
        }
        churn(&mut rig, &mut live, 4);
        assert_eq!(
            churn(&mut rig, &mut live, 200),
            0,
            "{workers} workers: inline frames at low load allocated"
        );

        // Fill worker 0's shards to 95% load, then churn there: inserts
        // now relocate fingerprints.
        let capacity = rig.filter.capacity() / workers;
        while (rig.filter.len() as f64) < 0.95 * capacity as f64 {
            let frame = rig.fresh_frame();
            rig.run(BatchOpKind::Insert, &frame);
            live.push(frame);
        }
        let kicks_before = rig.filter.stats().kicks;
        assert_eq!(
            churn(&mut rig, &mut live, 200),
            0,
            "{workers} workers: inline frames at 95% load allocated"
        );
        assert!(
            rig.filter.stats().kicks > kicks_before,
            "{workers} workers: the high-load phase must relocate fingerprints"
        );
        assert!(rig.load() * workers as f64 >= 0.94, "load stayed high");
    }
}
