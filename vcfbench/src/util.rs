//! Shared pieces: the deterministic input generator, timing statistics,
//! the allocation counter, memory and host provenance, and the report
//! the binary prints.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// SplitMix64 finaliser. The benchmark derives every input from it, so
/// inputs depend on `--seed` alone and never on the program's own hash
/// functions.
#[must_use]
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny sequential PRNG for op choice and live-key sampling.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        splitmix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Percentile of an unsorted sample set (nearest rank), sorting in place.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of `f64` samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency histogram with 0.1% wide log buckets from 100 ns to 10 s,
/// so the benchmark's own memory does not grow with throughput.
#[derive(Default)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

impl Hist {
    const MIN_NS: f64 = 100.0;
    const GROWTH: f64 = 1.001;
    const BUCKETS: usize = 18_500;

    pub fn record(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; Self::BUCKETS];
        }
        let i = ((ns.max(1) as f64 / Self::MIN_NS).ln() / Self::GROWTH.ln()).max(0.0) as usize;
        self.counts[i.min(Self::BUCKETS - 1)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        if self.counts.is_empty() {
            self.counts = vec![0; Self::BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q` quantile (nearest rank) as the geometric midpoint of its
    /// bucket, in ns.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total.max(1));
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Self::MIN_NS * Self::GROWTH.powf(i as f64 + 0.5);
            }
        }
        0.0
    }
}

/// Samples of one measurement window: two seconds of a wire run, or one
/// round of the embedded run.
#[derive(Default)]
pub struct Window {
    pub wall_ns: u64,
    /// Keys and summed call time per kind (insert, lookup, delete).
    pub kind_keys: [u64; 3],
    pub kind_ns: [u64; 3],
    /// Duration of every frame or batch call.
    pub calls: Hist,
}

impl Window {
    pub fn record(&mut self, kind: usize, keys: u64, ns: u64) {
        self.kind_keys[kind] += keys;
        self.kind_ns[kind] += ns;
        self.calls.record(ns);
    }

    pub fn merge(&mut self, other: &Window) {
        for k in 0..3 {
            self.kind_keys[k] += other.kind_keys[k];
            self.kind_ns[k] += other.kind_ns[k];
        }
        self.calls.merge(&other.calls);
    }
}

/// Medians over windows of each window's rates and latency percentiles,
/// so a burst of host noise in one window moves no reported figure.
pub struct Windowed {
    pub windows: usize,
    pub calls: u64,
    pub keys_per_s: f64,
    pub kind_keys_per_s: [f64; 3],
    pub p50_us: f64,
    pub p99_us: f64,
}

pub fn windowed(windows: &[&Window]) -> Windowed {
    let rows: Vec<String> = windows
        .iter()
        .map(|w| {
            let rate = |k: usize| w.kind_keys[k] as f64 / (w.kind_ns[k].max(1) as f64 / 1e9);
            format!(
                "[{:.0}, {:.0}, {:.0}, {:.0}, {:.3}, {:.3}]",
                w.kind_keys.iter().sum::<u64>() as f64 / (w.wall_ns.max(1) as f64 / 1e9),
                rate(0),
                rate(1),
                rate(2),
                w.calls.quantile(0.5) / 1e3,
                w.calls.quantile(0.99) / 1e3
            )
        })
        .collect();
    println!(
        "windows [keys/s, insert/s, lookup/s, delete/s, p50 us, p99 us]: [{}]",
        rows.join(", ")
    );
    let per =
        |f: &dyn Fn(&Window) -> f64| median(&windows.iter().map(|w| f(w)).collect::<Vec<f64>>());
    let rate =
        |k: usize| move |w: &Window| w.kind_keys[k] as f64 / (w.kind_ns[k].max(1) as f64 / 1e9);
    Windowed {
        windows: windows.len(),
        calls: windows.iter().map(|w| w.calls.len()).sum(),
        keys_per_s: per(&|w| {
            w.kind_keys.iter().sum::<u64>() as f64 / (w.wall_ns.max(1) as f64 / 1e9)
        }),
        kind_keys_per_s: [per(&rate(0)), per(&rate(1)), per(&rate(2))],
        p50_us: per(&|w| w.calls.quantile(0.5) / 1e3),
        p99_us: per(&|w| w.calls.quantile(0.99) / 1e3),
    }
}

/// Reports the windowed end-to-end timings.
pub fn report_windowed(report: &mut Report, w: &Windowed, what: &str) {
    let n = w.windows;
    report.metric(
        "keys_per_s",
        w.keys_per_s,
        "1/s",
        format!("median of {n} {what}"),
    );
    for (k, name) in [
        "insert_keys_per_s",
        "lookup_keys_per_s",
        "delete_keys_per_s",
    ]
    .into_iter()
    .enumerate()
    {
        report.metric(
            name,
            w.kind_keys_per_s[k],
            "1/s",
            format!("median of {n} {what}, keys / summed call time"),
        );
    }
    let per = w.calls / n.max(1) as u64;
    report.metric(
        "frame_rtt_p50_us",
        w.p50_us,
        "us",
        format!("median of {n} {what}, ~{per} calls each"),
    );
    report.metric(
        "frame_rtt_p99_us",
        w.p99_us,
        "us",
        format!("median of {n} {what}, ~{} calls beyond p99 each", per / 100),
    );
}

/// Counts heap allocations while [`count_allocs`] is switched on. Off, it
/// costs one uncontended relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host and build facts printed with every result.
pub fn provenance(seed: u64, kernel: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .map_or("unknown", |rest| {
            rest.trim_start_matches([' ', '\t', ':']).trim()
        });
    let cache = |index: u32| {
        std::fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
        ))
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned())
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"l2\": {}, \"l3\": {}, \"kernel\": {}, \"commit\": {}, \"seed\": {seed}}}",
        json_str(cpu),
        json_str(&cache(2)),
        json_str(&cache(3)),
        json_str(kernel),
        json_str(&commit()),
    )
}

/// The checked-out commit, read from `.git` without running git; a
/// source tree that is not a git checkout reports `unknown`.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|hash| hash.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Every per-layer metric with its unit, in report order.
pub const LAYER_METRICS: [(&str, &str); 25] = [
    ("codec.encode_request_ns_per_frame", "ns"),
    ("codec.read_frame_ns_per_frame", "ns"),
    ("codec.encode_response_ns_per_frame", "ns"),
    ("server.transport_us_per_frame", "us"),
    ("server.ping_rtt_us_p50", "us"),
    ("executor.execute_us_per_frame_p50", "us"),
    ("executor.execute_us_per_frame_p99", "us"),
    ("executor.hop_self_us_per_frame", "us"),
    ("executor.allocs_per_frame", "count"),
    ("sharded.shard_of_ns_per_key", "ns"),
    ("concurrent.insert_ns_per_key", "ns"),
    ("concurrent.lookup_ns_per_key", "ns"),
    ("concurrent.delete_ns_per_key", "ns"),
    ("concurrent.kicks_per_insert", "count"),
    ("concurrent.bucket_accesses_per_lookup", "count"),
    ("concurrent.failed_inserts", "count"),
    ("vcf.insert_ns_per_key", "ns"),
    ("vcf.lookup_ns_per_key", "ns"),
    ("vcf.delete_ns_per_key", "ns"),
    ("vcf.kicks_per_insert", "count"),
    ("vcf.hashes_per_insert", "count"),
    ("vcf.bucket_accesses_per_lookup", "count"),
    ("vcf.allocs_per_batch", "count"),
    ("trace.unaccounted_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Where the number comes from: sample count, or why a layer reads 0.
    pub note: String,
}

/// What one run prints.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations; any one fails the run.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Records a gate violation (the first few are kept verbatim).
    pub fn violation(&mut self, what: String) {
        if self.violations.len() < 8 {
            self.violations.push(what);
        } else if self.violations.len() == 8 {
            self.violations.push("further violations elided".to_owned());
        }
    }

    /// Reports every per-layer metric this workload's path does not
    /// reach as 0, so each traced run names the full set.
    pub fn absent_layers(&mut self) {
        for (name, unit) in LAYER_METRICS {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.metric(
                    name,
                    0.0,
                    unit,
                    "layer not on this workload's path".to_owned(),
                );
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The human-readable lines and the final JSON line, whose metrics
    /// are the per-layer set in a traced run and the end-to-end set
    /// otherwise.
    pub fn print(&self, traced: bool) {
        for m in &self.metrics {
            println!(
                "metric {:<44} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        // fail_ratio is no metric: every failed key is also a gate
        // violation, so a run that prints metrics has it at 0.
        println!(
            "keys attempted {} failed {} fail_ratio {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for v in &self.violations {
            println!("violation {v}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        if self.correct() {
            let layer = |m: &&Metric| LAYER_METRICS.iter().any(|(name, _)| *name == m.name);
            let listed = self.metrics.iter().filter(|m| layer(m) == traced);
            for (i, m) in listed.enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(
                    json,
                    "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    finite(m.value),
                    json_str(m.unit)
                );
            }
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// JSON has no NaN or infinity; report those as 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Restricts the calling thread (and every thread it spawns later) to
/// the given CPUs. Returns `false` where the host refuses or the
/// platform has no such call; the run then proceeds unpinned.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    const SYS_SCHED_SETAFFINITY: usize = 203;
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        if cpu >= 64 * mask.len() {
            return false;
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    let ret: isize;
    // SAFETY: sched_setaffinity(0, len, mask) reads `len` bytes from
    // `mask`, which is a live local array of exactly that size; pid 0
    // names the calling thread, and the call writes no user memory.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY as isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_current_thread(_cpus: &[usize]) -> bool {
    false
}
