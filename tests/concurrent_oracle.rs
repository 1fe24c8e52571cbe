//! Differential oracle harness for `ConcurrentVcf`.
//!
//! N writer threads each apply a *deterministic* op log (seeded inserts,
//! deletes and own-key lookups over disjoint key prefixes) against one
//! shared filter. Each thread records exactly which of its operations
//! succeeded, so after the join we can reconstruct the ground truth as
//! the union of per-thread `HashSet` oracles and check:
//!
//! * **zero false negatives** — every key the oracle says is live must
//!   be reported present,
//! * **exact occupancy** — `len()` equals total successful inserts minus
//!   total successful deletes (relocation is occupancy-neutral),
//! * **no false deletes** — a thread deleting its *own* previously
//!   inserted key must succeed (keyspaces are disjoint, so nobody else
//!   can have removed it; fingerprint aliasing within a thread's own
//!   keyspace cannot cause a miss, only a interchangeable-copy removal).
//!
//! The op mix drives the table to ~95% load so the relocation path (the
//! only locked section) runs constantly, not just the CAS fast path.
//! The batch leg runs the same checks with every op issued through
//! `run_batch` windows instead of single-key calls.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use vertical_cuckoo_filters::traits::BatchOpKind;
use vertical_cuckoo_filters::vcf::{ConcurrentVcf, CuckooConfig};

const WRITERS: u64 = 8;

fn key(thread: u64, i: u64) -> Vec<u8> {
    format!("t{thread}-key-{i}").into_bytes()
}

/// Outcome of one thread's log: its live-key oracle and its net count.
struct ThreadOutcome {
    live: HashSet<u64>,
    successful_inserts: u64,
    successful_deletes: u64,
}

/// Runs one writer's deterministic op log. ~1/5 of successfully inserted
/// keys are deleted again; every mutation's success is recorded so the
/// oracle is exact even when the filter rejects inserts near capacity.
fn run_writer(filter: &ConcurrentVcf, thread: u64, ops: u64) -> ThreadOutcome {
    let mut rng = SmallRng::seed_from_u64(0xD1FF * 31 + thread);
    let mut live: HashSet<u64> = HashSet::new();
    let mut inserted: Vec<u64> = Vec::new();
    let mut successful_inserts = 0u64;
    let mut successful_deletes = 0u64;
    for i in 0..ops {
        if filter.insert(&key(thread, i)).is_ok() {
            live.insert(i);
            inserted.push(i);
            successful_inserts += 1;
            // Own-key read-back: an acknowledged insert must be visible
            // to the inserting thread immediately, even mid-churn.
            assert!(
                filter.contains(&key(thread, i)),
                "thread {thread}: own key {i} invisible right after insert"
            );
        }
        if rng.gen_range(0..5) == 0 {
            if let Some(&victim) = inserted.get(rng.gen_range(0..inserted.len().max(1))) {
                if live.contains(&victim) {
                    assert!(
                        filter.delete(&key(thread, victim)),
                        "thread {thread}: failed to delete own live key {victim}"
                    );
                    live.remove(&victim);
                    successful_deletes += 1;
                }
            }
        }
    }
    ThreadOutcome {
        live,
        successful_inserts,
        successful_deletes,
    }
}

fn run_oracle(buckets: usize, ops_per_thread: u64, seed: u64) {
    let filter = Arc::new(ConcurrentVcf::new(CuckooConfig::new(buckets).with_seed(seed)).unwrap());
    let handles: Vec<_> = (0..WRITERS)
        .map(|t| {
            let filter = Arc::clone(&filter);
            std::thread::spawn(move || run_writer(&filter, t, ops_per_thread))
        })
        .collect();
    let outcomes: Vec<(u64, ThreadOutcome)> = handles
        .into_iter()
        .enumerate()
        .map(|(t, h)| (t as u64, h.join().expect("writer thread panicked")))
        .collect();

    // Zero false negatives against the union oracle.
    for (t, outcome) in &outcomes {
        for &i in &outcome.live {
            assert!(
                filter.contains(&key(*t, i)),
                "false negative: thread {t} key {i} is live in the oracle"
            );
        }
    }

    // Exact occupancy: len == Σ successful inserts − Σ successful deletes.
    let net: u64 = outcomes
        .iter()
        .map(|(_, o)| o.successful_inserts - o.successful_deletes)
        .sum();
    assert_eq!(
        filter.len() as u64,
        net,
        "occupancy drifted from the per-thread success counts"
    );
    let live_total: usize = outcomes.iter().map(|(_, o)| o.live.len()).sum();
    assert_eq!(live_total as u64, net, "oracle bookkeeping is inconsistent");
}

/// The headline run: 8 writers drive the filter to ~95% load.
#[test]
fn eight_writers_at_95_percent_load() {
    // capacity = 512 * 4 = 2048; 8 threads * 305 inserts with ~1/5
    // deleted lands the steady state just around 95%.
    let buckets = 1 << 9;
    let ops = 305;
    run_oracle(buckets, ops, 0xA11CE);
    // Different interleavings each round: re-run with fresh seeds.
    run_oracle(buckets, ops, 0xB0B);
    run_oracle(buckets, ops, 0xCAFE);
}

/// Smaller table, proportionally more churn: relocation paths collide
/// far more often per bucket.
#[test]
fn eight_writers_on_a_small_hot_table() {
    run_oracle(1 << 6, 36, 0x5EED);
    run_oracle(1 << 6, 36, 0x5EED + 1);
}

/// Concurrent readers must never miss keys that were inserted before the
/// readers started and are never deleted — even while writers churn the
/// rest of the table and relocations hop fingerprints between the
/// readers' candidate buckets mid-probe.
#[test]
fn stable_keys_stay_visible_under_writer_churn() {
    let filter = Arc::new(ConcurrentVcf::new(CuckooConfig::new(1 << 9).with_seed(0xFEED)).unwrap());
    let stable: Vec<Vec<u8>> = (0..400).map(|i| key(99, i)).collect();
    for k in &stable {
        filter.insert(k).unwrap();
    }

    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let filter = Arc::clone(&filter);
            std::thread::spawn(move || {
                let mut rng = SmallRng::seed_from_u64(t);
                for round in 0..200u64 {
                    for i in 0..8u64 {
                        let k = key(t, round * 8 + i);
                        let _ = filter.insert(&k);
                        if rng.gen_range(0..2) == 0 {
                            filter.delete(&k);
                        }
                    }
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let filter = Arc::clone(&filter);
            let stable = stable.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    for k in &stable {
                        assert!(filter.contains(k), "stable key vanished mid-churn");
                    }
                    let refs: Vec<&[u8]> = stable.iter().map(std::vec::Vec::as_slice).collect();
                    assert!(
                        filter.contains_batch(&refs).into_iter().all(|b| b),
                        "batched probe missed a stable key"
                    );
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    for r in readers {
        r.join().unwrap();
    }
    for k in &stable {
        assert!(filter.contains(k), "stable key lost after churn drained");
    }
}

/// Batch sizes for the batch leg: one key, one under, at and over the
/// 16-key prefetch window, and several windows with a partial tail.
const BATCH_LENS: [usize; 5] = [1, 15, 16, 17, 40];

/// One writer of the batch leg. Each round it inserts a batch of fresh
/// own keys, looks up a batch of stable keys plus its own live keys
/// (every bit must be set), and, once it holds more than `share` live
/// keys, deletes a batch of its oldest live keys (every bit must be set:
/// nobody else deletes them). Returns its successful inserts and deletes
/// and its live keys.
fn run_batch_writer(
    filter: &ConcurrentVcf,
    stable: &[Vec<u8>],
    thread: u64,
    rounds: usize,
    share: usize,
) -> (u64, u64, Vec<u64>) {
    let mut live: VecDeque<u64> = VecDeque::new();
    let mut next = 0u64;
    let (mut inserted, mut deleted) = (0u64, 0u64);
    let mut bits = Vec::new();
    for round in 0..rounds {
        let len = BATCH_LENS[round % BATCH_LENS.len()];

        let fresh: Vec<u64> = (next..next + len as u64).collect();
        next += len as u64;
        let keys: Vec<Vec<u8>> = fresh.iter().map(|&i| key(thread, i)).collect();
        let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
        bits.clear();
        bits.resize(refs.len(), false);
        filter.run_batch(BatchOpKind::Insert, &refs, &mut bits);
        for (&i, &stored) in fresh.iter().zip(&bits) {
            if stored {
                live.push_back(i);
                inserted += 1;
            }
        }

        let own: Vec<Vec<u8>> = live
            .iter()
            .rev()
            .take(len)
            .map(|&i| key(thread, i))
            .collect();
        let mut refs: Vec<&[u8]> = own.iter().map(Vec::as_slice).collect();
        let offset = round * len % stable.len();
        refs.extend(
            stable
                .iter()
                .cycle()
                .skip(offset)
                .take(len)
                .map(Vec::as_slice),
        );
        bits.clear();
        bits.resize(refs.len(), false);
        filter.run_batch(BatchOpKind::Lookup, &refs, &mut bits);
        assert!(
            bits.iter().all(|&b| b),
            "thread {thread} round {round}: batched lookup missed a live or stable key"
        );

        if live.len() > share {
            let victims: Vec<u64> = live.drain(..live.len() - share).collect();
            let keys: Vec<Vec<u8>> = victims.iter().map(|&i| key(thread, i)).collect();
            let refs: Vec<&[u8]> = keys.iter().map(Vec::as_slice).collect();
            bits.clear();
            bits.resize(refs.len(), false);
            filter.run_batch(BatchOpKind::Delete, &refs, &mut bits);
            assert!(
                bits.iter().all(|&b| b),
                "thread {thread} round {round}: batched delete missed an own live key"
            );
            deleted += victims.len() as u64;
        }
    }
    (inserted, deleted, live.into())
}

/// The batch leg: 8 writers drive `run_batch` windows against one filter
/// at ~95% load, with stable keys that are never deleted.
#[test]
fn eight_batch_writers_at_95_percent_load() {
    // capacity = 512 * 4 = 2048: 200 stable keys plus 8 shares of 215
    // live keys is 94% between rounds; each round's insert batch pushes
    // past it, so inserts fail and relocations run throughout.
    let filter =
        Arc::new(ConcurrentVcf::new(CuckooConfig::new(1 << 9).with_seed(0xBA7C4)).unwrap());
    let stable: Arc<Vec<Vec<u8>>> = Arc::new((0..200).map(|i| key(99, i)).collect());
    for k in stable.iter() {
        filter.insert(k).unwrap();
    }
    let handles: Vec<_> = (0..WRITERS)
        .map(|t| {
            let filter = Arc::clone(&filter);
            let stable = Arc::clone(&stable);
            std::thread::spawn(move || run_batch_writer(&filter, &stable, t, 400, 215))
        })
        .collect();
    let outcomes: Vec<(u64, u64, Vec<u64>)> = handles
        .into_iter()
        .map(|h| h.join().expect("batch writer panicked"))
        .collect();

    // Zero false negatives, through the single-key and the batch path.
    let mut survivors: Vec<Vec<u8>> = stable.to_vec();
    for (t, (_, _, live)) in outcomes.iter().enumerate() {
        survivors.extend(live.iter().map(|&i| key(t as u64, i)));
    }
    let refs: Vec<&[u8]> = survivors.iter().map(Vec::as_slice).collect();
    let mut bits = vec![false; refs.len()];
    filter.run_batch(BatchOpKind::Lookup, &refs, &mut bits);
    for (k, bit) in refs.iter().zip(&bits) {
        assert!(
            *bit && filter.contains(k),
            "false negative after the batch leg"
        );
    }

    // Exact occupancy, and the filter really ran near full.
    let net: u64 = outcomes.iter().map(|(ins, del, _)| ins - del).sum();
    assert_eq!(
        filter.len() as u64,
        stable.len() as u64 + net,
        "occupancy drifted"
    );
    assert_eq!(
        filter.len(),
        survivors.len(),
        "oracle bookkeeping is inconsistent"
    );
    assert!(
        filter.load_factor() > 0.9,
        "load only {}",
        filter.load_factor()
    );
    let stats = filter.stats();
    assert!(stats.kicks > 0, "no relocation ran");
}
