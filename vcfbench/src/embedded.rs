//! The embedded workload: one thread drives a sequential
//! `VerticalCuckooFilter` with the paper's defaults through its batch
//! calls, round after round, each round on a fresh filter.

use std::time::Instant;

use vcf_core::{CuckooConfig, VerticalCuckooFilter};
use vcf_traits::{BuildError, Filter};

use crate::util::{self, splitmix, Report, Window};
use crate::wire::Span;

/// Total slots (about 7.3 MB of 14-bit fingerprints).
const SLOTS: usize = 1 << 22;
/// Keys per batch call.
const BATCH: usize = 1024;
/// Fill target.
const LOAD: f64 = 0.95;
/// Constructions timed before the first round; `setup_s` is the median
/// over these and every round's own construction.
const SETUP_REPS: usize = 7;
/// Batch spans written out per traced round.
const SPAN_LIMIT: u64 = 4096;

/// Which batch call a sample came from.
const INSERT: usize = 0;
const LOOKUP: usize = 1;
const DELETE: usize = 2;

fn config() -> CuckooConfig {
    CuckooConfig::with_total_slots(SLOTS)
}

/// Sums over one or more rounds.
#[derive(Default)]
struct Tally {
    rounds: u64,
    wall_ns: u64,
    aliens: u64,
    false_positives: u64,
    failed: u64,
    batches: u64,
    allocs: u64,
    kicks: u64,
    hashes: u64,
    inserts: u64,
    lookups: u64,
    lookup_buckets: u64,
    bits_per_key: f64,
    /// One window per finished round, and the round in progress.
    windows: Vec<Window>,
    current: Window,
}

impl Tally {
    fn kind_sum(&self, k: usize) -> (u64, u64) {
        self.windows.iter().fold((0, 0), |(keys, ns), w| {
            (keys + w.kind_keys[k], ns + w.kind_ns[k])
        })
    }

    fn keys(&self) -> u64 {
        (0..3).map(|k| self.kind_sum(k).0).sum()
    }
}

/// Key `i` of stream `tag`, as the 8 bytes the filter hashes.
fn key(tag: u64, i: u64) -> [u8; 8] {
    splitmix(tag ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_le_bytes()
}

/// Times one batch call, counting its allocations when `traced`.
fn timed<T>(
    traced: bool,
    tally: &mut Tally,
    kind: usize,
    keys: usize,
    call: impl FnOnce() -> T,
) -> (T, u64) {
    let before = util::allocs();
    util::count_allocs(traced);
    let start = Instant::now();
    let out = call();
    let ns = start.elapsed().as_nanos() as u64;
    util::count_allocs(false);
    tally.allocs += util::allocs() - before;
    tally.batches += 1;
    tally.current.record(kind, keys as u64, ns);
    (out, ns)
}

/// One round: construct, fill to 95% in batches, look up every stored
/// key and as many alien keys, delete half the stored keys.
#[allow(clippy::too_many_lines)]
fn round(
    seed: u64,
    index: u64,
    traced: bool,
    tally: &mut Tally,
    setup_s: &mut Vec<f64>,
    spans: &mut Vec<Span>,
    report: &mut Report,
) -> Result<(), BuildError> {
    let round_start = Instant::now();
    let tag = splitmix(seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F));
    let alien_tag = splitmix(tag ^ 0xA11E);
    let start = Instant::now();
    let mut filter = VerticalCuckooFilter::new(config())?;
    setup_s.push(start.elapsed().as_secs_f64());
    let n = (filter.capacity() as f64 * LOAD) as u64;

    let mut bytes: Vec<[u8; 8]> = Vec::with_capacity(BATCH);
    // Spans name the round in their `conn` column.
    let record = |spans: &mut Vec<Span>, layer, frame: u64, dur_ns| {
        if traced && frame < SPAN_LIMIT {
            spans.push(Span {
                conn: index as usize,
                frame,
                layer,
                start_ns: 0,
                dur_ns,
            });
        }
    };
    let mut frame = 0u64;

    for lo in (0..n).step_by(BATCH) {
        let hi = (lo + BATCH as u64).min(n);
        bytes.clear();
        bytes.extend((lo..hi).map(|i| key(tag, i)));
        let refs: Vec<&[u8]> = bytes.iter().map(|b| &b[..]).collect();
        let (results, ns) = timed(traced, tally, INSERT, refs.len(), || {
            filter.insert_batch(&refs)
        });
        let failed = results.iter().filter(|r| r.is_err()).count();
        if failed > 0 {
            tally.failed += failed as u64;
            report.violation(format!("{failed} inserts failed below {LOAD} load"));
        }
        record(spans, "vcf.insert_batch", frame, ns);
        frame += 1;
    }

    for lo in (0..n).step_by(BATCH) {
        let hi = (lo + BATCH as u64).min(n);
        for (alien, stream) in [(false, tag), (true, alien_tag)] {
            bytes.clear();
            bytes.extend((lo..hi).map(|i| key(stream, i)));
            let refs: Vec<&[u8]> = bytes.iter().map(|b| &b[..]).collect();
            let (found, ns) = timed(traced, tally, LOOKUP, refs.len(), || {
                filter.contains_batch(&refs)
            });
            let positives = found.iter().filter(|&&f| f).count() as u64;
            if alien {
                tally.aliens += refs.len() as u64;
                tally.false_positives += positives;
            } else if positives != refs.len() as u64 {
                let missing = refs.len() as u64 - positives;
                tally.failed += missing;
                report.violation(format!("{missing} false negatives on stored keys"));
            }
            record(spans, "vcf.contains_batch", frame, ns);
            frame += 1;
        }
    }

    // The sequential filter has no batch delete; a batch is a loop of
    // `Filter::delete` calls.
    for lo in (0..n / 2).step_by(BATCH) {
        let hi = (lo + BATCH as u64).min(n / 2);
        bytes.clear();
        bytes.extend((lo..hi).map(|i| key(tag, i)));
        let (removed, ns) = timed(traced, tally, DELETE, bytes.len(), || {
            bytes.iter().filter(|b| filter.delete(&b[..])).count()
        });
        if removed != bytes.len() {
            let missing = (bytes.len() - removed) as u64;
            tally.failed += missing;
            report.violation(format!("{missing} deletes of stored keys failed"));
        }
        record(spans, "vcf.delete", frame, ns);
        frame += 1;
    }

    let stats = filter.stats();
    if stats.hash_computations != 2 * stats.inserts.calls + stats.kicks {
        report.violation(format!(
            "hashes {} != 2 x inserts {} + kicks {}",
            stats.hash_computations, stats.inserts.calls, stats.kicks
        ));
    }
    tally.kicks += stats.kicks;
    tally.hashes += stats.hash_computations;
    tally.inserts += stats.inserts.calls;
    tally.lookups += stats.lookups.calls;
    tally.lookup_buckets += stats.lookups.bucket_accesses;
    tally.bits_per_key = filter.capacity() as f64 * f64::from(filter.fingerprint_bits())
        / filter.len().max(1) as f64;
    tally.rounds += 1;
    let wall_ns = round_start.elapsed().as_nanos() as u64;
    tally.wall_ns += wall_ns;
    let mut window = std::mem::take(&mut tally.current);
    window.wall_ns = wall_ns;
    tally.windows.push(window);
    Ok(())
}

/// Runs the embedded workload and fills `report`; a traced run also
/// returns its batch spans.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<Vec<Span>, BuildError> {
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let filter = VerticalCuckooFilter::new(config())?;
        setup_s.push(start.elapsed().as_secs_f64());
        drop(filter);
    }
    let mut spans = Vec::new();
    // Untimed warm-up round on its own keys.
    round(
        seed,
        u64::MAX,
        false,
        &mut Tally::default(),
        &mut setup_s,
        &mut Vec::new(),
        report,
    )?;

    // Traced runs alternate untraced and traced rounds; the tallies are
    // kept apart so the traced rounds' overhead shows.
    let mut tallies = [Tally::default(), Tally::default()];
    let t0 = Instant::now();
    let mut index = 0u64;
    while t0.elapsed().as_secs_f64() < seconds || (traced && index < 2) {
        let traced_round = traced && index % 2 == 1;
        round(
            seed,
            index,
            traced_round,
            &mut tallies[usize::from(traced_round)],
            &mut setup_s,
            &mut spans,
            report,
        )?;
        index += 1;
    }

    let [plain, traced_tally] = &tallies;
    let keys = plain.keys() + traced_tally.keys();
    report.attempted = keys;
    report.failed = plain.failed + traced_tally.failed;
    let aliens = plain.aliens + traced_tally.aliens;
    let fps = plain.false_positives + traced_tally.false_positives;
    let windows: Vec<&Window> = plain.windows.iter().chain(&traced_tally.windows).collect();

    report.metric(
        "setup_s",
        util::median(&setup_s),
        "s",
        format!("median of {} filter constructions", setup_s.len()),
    );
    util::report_windowed(report, &util::windowed(&windows), "rounds");
    report.metric(
        "false_positive_rate",
        fps as f64 / aliens.max(1) as f64,
        "ratio",
        format!("{fps} of {aliens} alien lookups"),
    );
    report.metric(
        "bits_per_key",
        plain.bits_per_key.max(traced_tally.bits_per_key),
        "bits",
        "after deleting half the stored keys".to_owned(),
    );
    report.metric(
        "peak_rss_mib",
        util::peak_rss_mib(),
        "MiB",
        "VmHWM of the run".to_owned(),
    );

    if traced {
        layer_metrics(plain, traced_tally, report);
    }
    Ok(spans)
}

fn layer_metrics(plain: &Tally, t: &Tally, report: &mut Report) {
    let note = format!("{} traced rounds", t.rounds);
    for (k, name) in [
        "vcf.insert_ns_per_key",
        "vcf.lookup_ns_per_key",
        "vcf.delete_ns_per_key",
    ]
    .into_iter()
    .enumerate()
    {
        let (keys, ns) = t.kind_sum(k);
        report.metric(name, ns as f64 / keys.max(1) as f64, "ns", note.clone());
    }
    let inserts = t.inserts.max(1) as f64;
    report.metric(
        "vcf.kicks_per_insert",
        t.kicks as f64 / inserts,
        "count",
        format!("{} inserts", t.inserts),
    );
    report.metric(
        "vcf.hashes_per_insert",
        t.hashes as f64 / inserts,
        "count",
        format!("{} inserts", t.inserts),
    );
    report.metric(
        "vcf.bucket_accesses_per_lookup",
        t.lookup_buckets as f64 / t.lookups.max(1) as f64,
        "count",
        format!("{} lookups", t.lookups),
    );
    report.metric(
        "vcf.allocs_per_batch",
        t.allocs as f64 / t.batches.max(1) as f64,
        "count",
        format!("{} batch calls", t.batches),
    );
    let calls: u64 = (0..3).map(|k| t.kind_sum(k).1).sum();
    report.metric(
        "trace.unaccounted_share",
        (t.wall_ns as f64 - calls as f64) / t.wall_ns.max(1) as f64,
        "ratio",
        "round wall time outside the filter's batch calls".to_owned(),
    );
    let rate = |x: &Tally| x.keys() as f64 / x.wall_ns.max(1) as f64;
    report.metric(
        "trace.overhead_share",
        1.0 - rate(t) / rate(plain),
        "ratio",
        format!("{} traced vs {} untraced rounds", t.rounds, plain.rounds),
    );
}
