//! The two wire workloads: a closed-loop client pool against an
//! in-process UDS `vcf-server`, and (traced run) an in-process replay of
//! the same frames through each layer's public functions.
//!
//! Key streams are derived from `--seed` by index, so the replay
//! regenerates every frame instead of keeping them. With more than one
//! connection, each connection's keys live on a disjoint set of shards
//! (every set spans every worker), so each shard sees one connection's
//! frames in one order and the replay reproduces the server's state
//! bit for bit whatever the interleaving.

use std::hint::black_box;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use vcf_core::{CuckooConfig, ShardedConcurrentVcf};
use vcf_server::codec::{encode_request, encode_response};
use vcf_server::protocol::{bitmap_len, bitmap_set, status, HEADER_LEN, KEY_LEN};
use vcf_server::{
    Client, Endpoint, ExecScratch, Frame, FrameReader, OpCode, ServerConfig, ServerHandle,
    ShardEngine, ShardExecutor,
};
use vcf_traits::{BatchOpKind, Stats};

use crate::util::{self, percentile, splitmix, Report, Rng};

/// How a connection mixes its traffic frames.
#[derive(Clone, Copy)]
pub enum Mix {
    /// Half lookups; the other half alternates insert and delete.
    HalfLookups,
    /// Repeating insert, lookup, delete.
    Rounds,
}

/// One wire workload's shape.
pub struct Spec {
    pub slots: usize,
    pub shard_bits: u32,
    pub workers: usize,
    pub conns: usize,
    pub batch: usize,
    pub load: f64,
    pub mix: Mix,
}

/// Many tiny frames: per-frame costs dominate.
pub const SMALL_FRAMES: Spec = Spec {
    slots: 1 << 20,
    shard_bits: 4,
    workers: 1,
    conns: 1,
    batch: 16,
    load: 0.25,
    mix: Mix::HalfLookups,
};

/// Large frames at 95% load: per-key filter work dominates.
pub const CHURN95: Spec = Spec {
    slots: 1 << 22,
    shard_bits: 4,
    workers: 2,
    conns: 2,
    batch: 1024,
    load: 0.95,
    mix: Mix::Rounds,
};

/// Keys per frame while filling to the target load (untimed).
const FILL_BATCH: usize = 1024;
/// Measurement window; timings are medians over windows.
const WINDOW: Duration = Duration::from_secs(2);
/// Longest wire phase of a traced run, pauses for the replay excluded.
const TRACED_SECONDS: f64 = 10.0;
/// Untimed traffic between the fill and the clock start.
const WARMUP: Duration = Duration::from_millis(1500);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Timed frames per trace window; odd windows record spans.
const TRACE_WINDOW: u64 = 256;
/// Ping round trips timed in the traced run.
const PINGS: usize = 4000;
/// Frames per codec timing chunk in the replay.
const CHUNK: usize = 256;

const KINDS: [BatchOpKind; 3] = [
    BatchOpKind::Insert,
    BatchOpKind::Lookup,
    BatchOpKind::Delete,
];

fn kind_index(op: OpCode) -> usize {
    match op {
        OpCode::Insert => 0,
        OpCode::Lookup => 1,
        _ => 2,
    }
}

fn batch_kind(op: OpCode) -> BatchOpKind {
    KINDS[kind_index(op)]
}

/// A connection's deterministic frame sequence: fill frames up to the
/// target live count, then traffic frames forever.
struct Gen {
    live_tag: u64,
    alien_tag: u64,
    router: Arc<ShardedConcurrentVcf>,
    workers: usize,
    conns: usize,
    conn: usize,
    /// Live keys are stream indices `head..tail` (oldest first).
    head: u64,
    tail: u64,
    alien: u64,
    fill_to: u64,
    rng: Rng,
    toggle: bool,
    step: u64,
    batch: usize,
    mix: Mix,
}

impl Gen {
    fn new(spec: &Spec, seed: u64, conn: usize, router: &Arc<ShardedConcurrentVcf>) -> Self {
        let base = splitmix(seed ^ (conn as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        Self {
            live_tag: splitmix(base ^ 1),
            alien_tag: splitmix(base ^ 2),
            router: Arc::clone(router),
            workers: spec.workers,
            conns: spec.conns,
            conn,
            head: 0,
            tail: 0,
            alien: 0,
            fill_to: (spec.slots as f64 * spec.load / spec.conns as f64) as u64,
            rng: Rng::new(splitmix(base ^ 3)),
            toggle: false,
            step: 0,
            batch: spec.batch,
            mix: spec.mix,
        }
    }

    fn filling(&self) -> bool {
        self.tail < self.fill_to
    }

    /// Key `c` of stream `tag`, redrawn until it lands on this
    /// connection's shards.
    fn key(&self, tag: u64, c: u64) -> u64 {
        let mut k = splitmix(tag ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        while self.conns > 1
            && (self.router.shard_of(&k.to_le_bytes()) / self.workers) % self.conns != self.conn
        {
            k = splitmix(k);
        }
        k
    }

    /// Writes the next frame's keys; lookup frames put live keys at even
    /// positions and alien keys at odd ones.
    fn next(&mut self, keys: &mut Vec<u64>) -> OpCode {
        keys.clear();
        if self.filling() {
            let n = (self.fill_to - self.tail).min(FILL_BATCH as u64);
            keys.extend((self.tail..self.tail + n).map(|c| self.key(self.live_tag, c)));
            self.tail += n;
            return OpCode::Insert;
        }
        let op = match self.mix {
            Mix::HalfLookups if self.rng.next_u64() & 1 == 0 => OpCode::Lookup,
            Mix::HalfLookups => {
                self.toggle = !self.toggle;
                if self.toggle {
                    OpCode::Insert
                } else {
                    OpCode::Delete
                }
            }
            Mix::Rounds => {
                [OpCode::Insert, OpCode::Lookup, OpCode::Delete][(self.step % 3) as usize]
            }
        };
        self.step += 1;
        let n = self.batch as u64;
        match op {
            OpCode::Insert => {
                keys.extend((self.tail..self.tail + n).map(|c| self.key(self.live_tag, c)));
                self.tail += n;
            }
            OpCode::Delete => {
                keys.extend((self.head..self.head + n).map(|c| self.key(self.live_tag, c)));
                self.head += n;
            }
            _ => {
                for i in 0..n {
                    if i % 2 == 0 {
                        let c = self.head + self.rng.below(self.tail - self.head);
                        keys.push(self.key(self.live_tag, c));
                    } else {
                        keys.push(self.key(self.alien_tag, self.alien));
                        self.alien += 1;
                    }
                }
            }
        }
        op
    }
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    /// Frames sent in all phases (the replay regenerates this many).
    frames: u64,
    /// Timed frames by the window they completed in.
    windows: Vec<util::Window>,
    attempted: u64,
    failed: u64,
    /// Alien lookups and their positives, over warm-up and timed traffic.
    aliens: u64,
    false_positives: u64,
    violations: Vec<String>,
    /// Traced run: every reply bitmap, concatenated in frame order.
    bitmaps: Vec<u8>,
    /// Traced run: (keys, ns) in untraced and traced windows.
    trace_windows: [(u64, u64); 2],
    /// Index of the first timed frame.
    first_timed: u64,
    /// Traced run: wire spans of the traced windows.
    spans: Vec<Span>,
}

/// One timed call: which frame of which connection, the layer, its
/// start relative to the run's common epoch (0 for replayed calls), and its
/// duration.
#[derive(Clone, Copy)]
pub struct Span {
    pub conn: usize,
    pub frame: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Sends one frame and checks its reply. Returns the op and round-trip
/// time, or `None` once the connection is unusable.
fn send_frame(
    client: &mut Client,
    gen: &mut Gen,
    keys: &mut Vec<u64>,
    log: &mut ConnLog,
    timed: bool,
    traced: bool,
) -> Option<(OpCode, u64)> {
    let op = gen.next(keys);
    log.frames += 1;
    let start = Instant::now();
    let result = client.data_op(op, keys);
    let rtt = start.elapsed().as_nanos() as u64;
    let n = keys.len() as u64;
    if timed {
        log.attempted += n;
    }
    let reply = match result {
        Ok(reply) => reply,
        Err(err) => {
            if timed {
                log.failed += n;
            }
            log.violations.push(format!("{op:?} frame failed: {err}"));
            return None;
        }
    };
    if traced {
        log.bitmaps.extend_from_slice(&reply.payload);
    }
    let mut bad = 0u64;
    for i in 0..keys.len() {
        let bit = reply.bit(i);
        match op {
            OpCode::Lookup if i % 2 == 1 => {
                log.aliens += 1;
                log.false_positives += u64::from(bit);
            }
            _ if !bit => bad += 1,
            _ => {}
        }
    }
    if bad > 0 {
        if timed {
            log.failed += bad;
        }
        let what = match op {
            OpCode::Insert => "inserts not acknowledged",
            OpCode::Lookup => "false negatives on live keys",
            _ => "deletes of live keys not acknowledged",
        };
        log.violations.push(format!("{bad} {what} in one frame"));
    }
    Some((op, rtt))
}

/// Whether timed frame `frame` falls in a traced window.
fn in_traced_window(first_timed: u64, frame: u64) -> bool {
    frame >= first_timed && ((frame - first_timed) / TRACE_WINDOW) % 2 == 1
}

/// Lock-step between the connections and the replay of a traced run:
/// after every `TRACE_WINDOW` timed frames the connections stop while the
/// main thread replays what they sent. The host's speed drifts by tens of
/// percent over seconds, so the wire and the replay are timed moments
/// apart rather than a whole phase apart.
struct Lockstep {
    /// Common origin of every connection's span start times.
    epoch: Instant,
    /// Frames each connection has sent.
    sent: Vec<AtomicU64>,
    /// Set by the main thread once the wire phase has run long enough.
    stop: AtomicBool,
}

/// Sends one timed frame and records it: in a measurement window by the
/// connection's wire clock `clock`, which excludes the pauses of a traced
/// run, and as a span starting at its offset from `epoch`, which all
/// connections share. `false` once the connection is unusable.
fn timed_frame(
    client: &mut Client,
    gen: &mut Gen,
    keys: &mut Vec<u64>,
    log: &mut ConnLog,
    clock: Instant,
    epoch: Instant,
    traced: bool,
) -> bool {
    let frame = log.frames;
    let traced_window = traced && in_traced_window(log.first_timed, frame);
    let start = Instant::now();
    let sent = send_frame(client, gen, keys, log, true, traced);
    let done = Instant::now();
    let ns = (done - start).as_nanos() as u64;
    let Some((op, rtt)) = sent else { return false };
    let window = (done.saturating_duration_since(clock).as_nanos() / WINDOW.as_nanos()) as usize;
    if let Some(w) = log.windows.get_mut(window) {
        w.record(kind_index(op), keys.len() as u64, rtt);
    }
    if traced_window {
        log.spans.push(Span {
            conn: gen.conn,
            frame,
            layer: op_layer(op),
            start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
            dur_ns: rtt,
        });
    }
    let w = &mut log.trace_windows[usize::from(traced_window)];
    w.0 += keys.len() as u64;
    w.1 += ns;
    true
}

/// One connection thread: fill, warm up, then the timed phase.
fn drive(
    conn: usize,
    mut client: Client,
    mut gen: Gen,
    barrier: &Barrier,
    lockstep: &Lockstep,
    seconds: f64,
    traced: bool,
) -> (Client, ConnLog) {
    let mut log = ConnLog::default();
    let mut keys = Vec::new();
    let mut alive = true;
    while alive && gen.filling() {
        alive = send_frame(&mut client, &mut gen, &mut keys, &mut log, false, traced).is_some();
    }
    barrier.wait();
    let warm_end = Instant::now() + WARMUP;
    while alive && Instant::now() < warm_end {
        alive = send_frame(&mut client, &mut gen, &mut keys, &mut log, false, traced).is_some();
    }
    log.first_timed = log.frames;
    lockstep.sent[conn].store(log.frames, Ordering::Release);
    barrier.wait(); // warm-up replay, stats snapshot
    barrier.wait(); // go
    log.windows = (0..((seconds / WINDOW.as_secs_f64()) as usize).max(1))
        .map(|_| util::Window {
            wall_ns: WINDOW.as_nanos() as u64,
            ..util::Window::default()
        })
        .collect();
    let t0 = Instant::now();
    if traced {
        let mut paused = Duration::ZERO;
        loop {
            for _ in 0..TRACE_WINDOW {
                if !alive {
                    break;
                }
                alive = timed_frame(
                    &mut client,
                    &mut gen,
                    &mut keys,
                    &mut log,
                    t0 + paused,
                    lockstep.epoch,
                    traced,
                );
            }
            lockstep.sent[conn].store(log.frames, Ordering::Release);
            let stopped = Instant::now();
            barrier.wait(); // window sent
            barrier.wait(); // window replayed
            paused += stopped.elapsed();
            if lockstep.stop.load(Ordering::Acquire) {
                break;
            }
        }
    } else {
        let end = t0 + Duration::from_secs_f64(seconds);
        while alive && Instant::now() < end {
            alive = timed_frame(
                &mut client,
                &mut gen,
                &mut keys,
                &mut log,
                t0,
                lockstep.epoch,
                traced,
            );
        }
    }
    (client, log)
}

fn op_layer(op: OpCode) -> &'static str {
    match op {
        OpCode::Insert => "wire.insert",
        OpCode::Lookup => "wire.lookup",
        _ => "wire.delete",
    }
}

/// A running server with its engine and connected clients.
struct Setup {
    engine: Arc<ShardedConcurrentVcf>,
    server: ServerHandle,
    clients: Vec<Client>,
}

fn server_config(spec: &Spec) -> ServerConfig {
    let path = format!("vcfbench-{}.sock", std::process::id());
    let mut config = ServerConfig::new(Endpoint::Uds(path.into()));
    config.slots = spec.slots;
    config.shard_bits = spec.shard_bits;
    config.workers = spec.workers;
    config
}

fn build_engine(config: &ServerConfig) -> io::Result<Arc<ShardedConcurrentVcf>> {
    ShardedConcurrentVcf::new(config.cuckoo_config(), config.shard_bits)
        .map(Arc::new)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))
}

fn set_up(spec: &Spec, config: &ServerConfig) -> io::Result<Setup> {
    let engine = build_engine(config)?;
    let server =
        ServerHandle::spawn_with_engine(config, Arc::clone(&engine) as Arc<dyn ShardEngine>)?;
    let clients = (0..spec.conns)
        .map(|_| Client::connect(server.endpoint()))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(Setup {
        engine,
        server,
        clients,
    })
}

fn tear_down(setup: Setup) {
    let Setup {
        engine,
        mut server,
        clients,
    } = setup;
    drop(clients);
    server.shutdown();
    drop(server);
    drop(engine);
}

/// Counter deltas between two engine snapshots.
fn stats_delta(after: &Stats, before: &Stats) -> Stats {
    let mut d = *after;
    d.inserts.calls -= before.inserts.calls;
    d.lookups.calls -= before.lookups.calls;
    d.lookups.bucket_accesses -= before.lookups.bucket_accesses;
    d.deletes.calls -= before.deletes.calls;
    d.kicks -= before.kicks;
    d.failed_inserts -= before.failed_inserts;
    d.hash_computations -= before.hash_computations;
    d
}

/// Runs one wire workload and fills `report`; a traced run also returns
/// its spans.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> io::Result<Vec<Span>> {
    let config = server_config(spec);
    let seconds = if traced {
        seconds.min(TRACED_SECONDS)
    } else {
        seconds
    };
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            tear_down(previous);
            // Let the torn-down server's threads finish before timing
            // the next set-up.
            std::thread::sleep(Duration::from_millis(30));
        }
        let start = Instant::now();
        let setup = set_up(spec, &config)?;
        setup_s.push(start.elapsed().as_secs_f64());
        kept = Some(setup);
    }
    let Some(Setup {
        engine,
        mut server,
        clients,
    }) = kept
    else {
        return Err(io::Error::other("no set-up ran"));
    };

    let router = Arc::new(
        ShardedConcurrentVcf::new(CuckooConfig::new(4 << spec.shard_bits), spec.shard_bits)
            .map_err(|e| io::Error::other(e.to_string()))?,
    );
    let barrier = Arc::new(Barrier::new(spec.conns + 1));
    let lockstep = Arc::new(Lockstep {
        epoch: Instant::now(),
        sent: (0..spec.conns).map(|_| AtomicU64::new(0)).collect(),
        stop: AtomicBool::new(false),
    });
    let mut replay = if traced {
        Some(Replay::new(spec, &config, seed, &router)?)
    } else {
        None
    };
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(conn, client)| {
            let gen = Gen::new(spec, seed, conn, &router);
            let barrier = Arc::clone(&barrier);
            let lockstep = Arc::clone(&lockstep);
            std::thread::spawn(move || {
                drive(conn, client, gen, &barrier, &lockstep, seconds, traced)
            })
        })
        .collect();
    barrier.wait(); // filled
    barrier.wait(); // warmed up

    // A replay error must not leave the connections waiting at the
    // barrier: it stops the phase and is returned once they have ended.
    let mut replayed = Ok(());
    if let Some(replay) = &mut replay {
        for conn in 0..spec.conns {
            let first_timed = lockstep.sent[conn].load(Ordering::Acquire);
            replay.first_timed[conn] = first_timed;
            if replayed.is_ok() {
                replayed = replay.advance(conn, first_timed);
            }
        }
    }
    let before = engine.stats();
    barrier.wait(); // go
    if let Some(replay) = &mut replay {
        let mut wire = Duration::ZERO;
        let mut resumed = Instant::now();
        loop {
            barrier.wait(); // window sent
            wire += resumed.elapsed();
            for conn in 0..spec.conns {
                if replayed.is_ok() {
                    replayed = replay.advance(conn, lockstep.sent[conn].load(Ordering::Acquire));
                }
            }
            let stop = replayed.is_err() || wire.as_secs_f64() >= seconds;
            lockstep.stop.store(stop, Ordering::Release);
            resumed = Instant::now();
            barrier.wait(); // window replayed
            if stop {
                break;
            }
        }
    }
    let mut results = Vec::with_capacity(handles.len());
    for handle in handles {
        results.push(
            handle
                .join()
                .map_err(|_| io::Error::other("client thread panicked"))?,
        );
    }
    let after = engine.stats();
    let live = engine.len();
    let ping_us = if traced {
        let (client, _) = &mut results[0];
        let mut samples = Vec::with_capacity(PINGS);
        for _ in 0..PINGS {
            let start = Instant::now();
            if !client.ping()? {
                report.violation("ping not answered OK".to_owned());
            }
            samples.push(start.elapsed().as_nanos() as u64);
        }
        percentile(&mut samples, 0.5) as f64 / 1e3
    } else {
        0.0
    };
    let (clients, logs): (Vec<Client>, Vec<ConnLog>) = results.into_iter().unzip();
    drop(clients);
    server.shutdown();
    drop(server);
    replayed?;

    // End-to-end metrics, timings as medians over windows.
    let mut logs = logs;
    let mut windows = std::mem::take(&mut logs[0].windows);
    for log in &logs[1..] {
        for (w, other) in windows.iter_mut().zip(&log.windows) {
            w.merge(other);
        }
    }
    let timings = util::windowed(&windows.iter().collect::<Vec<_>>());
    let sum = |f: fn(&ConnLog) -> u64| logs.iter().map(f).sum::<u64>();
    report.attempted = sum(|l| l.attempted);
    report.failed = sum(|l| l.failed);
    for log in &logs {
        for v in &log.violations {
            report.violation(v.clone());
        }
    }
    let aliens = sum(|l| l.aliens);
    let fps = sum(|l| l.false_positives);
    let fp_bits = config.cuckoo_config().fingerprint_bits;

    report.metric(
        "setup_s",
        util::median(&setup_s),
        "s",
        format!("median of {SETUP_REPS} set-ups (engine, server spawn, connect)"),
    );
    util::report_windowed(report, &timings, "2 s windows");
    report.metric(
        "false_positive_rate",
        fps as f64 / aliens.max(1) as f64,
        "ratio",
        format!("{fps} of {aliens} alien lookups"),
    );
    report.metric(
        "bits_per_key",
        (engine.capacity() as f64 * f64::from(fp_bits)) / live.max(1) as f64,
        "bits",
        format!(
            "{} slots x {fp_bits} bits / {live} live keys",
            engine.capacity()
        ),
    );
    report.metric(
        "peak_rss_mib",
        util::peak_rss_mib(),
        "MiB",
        "VmHWM of the run".to_owned(),
    );

    let Some(replay) = replay else {
        return Ok(Vec::new());
    };
    let stats = stats_delta(&after, &before);
    Ok(replay.finish(&engine, &logs, &stats, timings.p50_us, ping_us, report))
}

/// Per-layer sums from the in-process replay.
#[derive(Default)]
struct Layers {
    frames: u64,
    encode_request_ns: u64,
    read_frame_ns: u64,
    encode_response_ns: u64,
    /// `execute` time of every timed frame, per connection, in frame order.
    execute_ns: Vec<Vec<u64>>,
    execute_allocs: u64,
    route_ns: u64,
    route_keys: u64,
    shard_ns: [u64; 3],
    shard_keys: [u64; 3],
}

/// Reused buffers of the replay.
#[derive(Default)]
struct Buffers {
    wire: Vec<u8>,
    resp: Vec<u8>,
    ops: Vec<OpCode>,
    keys: Vec<u64>,
    lens: Vec<usize>,
    shard_ids: Vec<usize>,
    bitmaps: Vec<Vec<u8>>,
    frame: Vec<u64>,
}

/// The traced run's in-process replay: every connection's frames, in
/// order, through the codec, a second executor on engine A, and direct
/// router and shard calls on engine B, both engines built like the
/// served one. Layer timings cover the timed frames.
struct Replay {
    gens: Vec<Gen>,
    /// Frames replayed so far, per connection.
    done: Vec<u64>,
    /// Index of each connection's first timed frame.
    first_timed: Vec<u64>,
    engine_a: Arc<ShardedConcurrentVcf>,
    engine_b: Arc<ShardedConcurrentVcf>,
    executor: ShardExecutor,
    scratch: ExecScratch,
    layers: Layers,
    /// Executor reply bitmaps per connection, concatenated in frame order.
    bitmaps: Vec<Vec<u8>>,
    /// Frames whose executor and direct replies differ, or that did not
    /// decode.
    mismatches: u64,
    spans: Vec<Span>,
    buf: Buffers,
}

impl Replay {
    fn new(
        spec: &Spec,
        config: &ServerConfig,
        seed: u64,
        router: &Arc<ShardedConcurrentVcf>,
    ) -> io::Result<Self> {
        let engine_a = build_engine(config)?;
        let engine_b = build_engine(config)?;
        let executor =
            ShardExecutor::new(Arc::clone(&engine_a) as Arc<dyn ShardEngine>, spec.workers);
        let scratch = executor.scratch();
        Ok(Self {
            gens: (0..spec.conns)
                .map(|conn| Gen::new(spec, seed, conn, router))
                .collect(),
            done: vec![0; spec.conns],
            first_timed: vec![0; spec.conns],
            engine_a,
            engine_b,
            executor,
            scratch,
            layers: Layers {
                execute_ns: vec![Vec::new(); spec.conns],
                ..Layers::default()
            },
            bitmaps: vec![Vec::new(); spec.conns],
            mismatches: 0,
            spans: Vec::new(),
            buf: Buffers::default(),
        })
    }

    /// Replays connection `conn`'s frames up to frame `upto`.
    fn advance(&mut self, conn: usize, upto: u64) -> io::Result<()> {
        while self.done[conn] < upto {
            self.chunk(conn, upto)?;
        }
        Ok(())
    }

    /// Replays the next chunk of at most `CHUNK` frames, all untimed or
    /// all timed.
    fn chunk(&mut self, conn: usize, upto: u64) -> io::Result<()> {
        let first = self.done[conn];
        let first_timed = self.first_timed[conn];
        let timed = first >= first_timed;
        let stop = if timed { upto } else { upto.min(first_timed) };
        let buf = &mut self.buf;
        buf.ops.clear();
        buf.keys.clear();
        buf.lens.clear();
        while first + (buf.ops.len() as u64) < stop && buf.ops.len() < CHUNK {
            let op = self.gens[conn].next(&mut buf.frame);
            buf.ops.push(op);
            buf.lens.push(buf.frame.len());
            buf.keys.extend_from_slice(&buf.frame);
        }
        self.done[conn] += buf.ops.len() as u64;

        // Codec: encode every request, then read them back.
        buf.wire.clear();
        let start = Instant::now();
        let mut off = 0;
        for (&op, &n) in buf.ops.iter().zip(&buf.lens) {
            encode_request(&mut buf.wire, op, &buf.keys[off..off + n]);
            off += n;
        }
        let encode_ns = start.elapsed().as_nanos() as u64;
        let mut reader = FrameReader::new(&buf.wire[..]);
        let start = Instant::now();
        for _ in 0..buf.ops.len() {
            match reader.read_frame() {
                Ok(Frame::Request { payload, .. }) => {
                    black_box(payload.len());
                }
                _ => self.mismatches += 1,
            }
        }
        let read_ns = start.elapsed().as_nanos() as u64;

        // Router: shard of every key in the chunk.
        buf.shard_ids.clear();
        let start = Instant::now();
        for &k in &buf.keys {
            buf.shard_ids.push(self.engine_b.shard_of(&k.to_le_bytes()));
        }
        let route_ns = start.elapsed().as_nanos() as u64;

        // Executor and direct shard calls, frame by frame.
        buf.bitmaps.clear();
        let mut off = 0;
        let mut wire_pos = 0;
        for (j, (&op, &n)) in buf.ops.iter().zip(&buf.lens).enumerate() {
            let kind = batch_kind(op);
            let payload = &buf.wire[wire_pos + HEADER_LEN..wire_pos + HEADER_LEN + n * KEY_LEN];
            wire_pos += HEADER_LEN + n * KEY_LEN;
            let mut bitmap_a = vec![0u8; bitmap_len(n)];
            let allocs_before = util::allocs();
            util::count_allocs(timed);
            let start = Instant::now();
            let ok = self
                .executor
                .execute(kind, payload, &mut self.scratch, &mut bitmap_a)
                .is_ok();
            let exec_ns = start.elapsed().as_nanos() as u64;
            util::count_allocs(false);
            if !ok {
                return Err(io::Error::other("replay executor stopped"));
            }

            let key_bytes: Vec<[u8; KEY_LEN]> = buf.keys[off..off + n]
                .iter()
                .map(|k| k.to_le_bytes())
                .collect();
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.engine_b.shard_count()];
            for (i, &shard) in buf.shard_ids[off..off + n].iter().enumerate() {
                groups[shard].push(i);
            }
            let refs: Vec<(usize, Vec<&[u8]>)> = groups
                .iter()
                .enumerate()
                .filter(|(_, g)| !g.is_empty())
                .map(|(s, g)| (s, g.iter().map(|&i| &key_bytes[i][..]).collect()))
                .collect();
            let start = Instant::now();
            let outs: Vec<Vec<bool>> = refs
                .iter()
                .map(|(s, r)| self.engine_b.shard_execute(*s, kind, r))
                .collect();
            let shard_ns = start.elapsed().as_nanos() as u64;
            let mut bitmap_b = vec![0u8; bitmap_len(n)];
            for ((s, _), out) in refs.iter().zip(&outs) {
                for (&i, &bit) in groups[*s].iter().zip(out) {
                    if bit {
                        bitmap_set(&mut bitmap_b, i);
                    }
                }
            }
            if bitmap_a != bitmap_b {
                self.mismatches += 1;
            }
            let id = first + j as u64;
            if in_traced_window(first_timed, id) {
                for (layer, dur_ns) in [
                    ("executor.execute", exec_ns),
                    ("concurrent.shard_execute", shard_ns),
                ] {
                    self.spans.push(Span {
                        conn,
                        frame: id,
                        layer,
                        start_ns: 0,
                        dur_ns,
                    });
                }
            }
            if timed {
                self.layers.execute_ns[conn].push(exec_ns);
                self.layers.execute_allocs += util::allocs() - allocs_before;
                let k = kind_index(op);
                self.layers.shard_ns[k] += shard_ns;
                self.layers.shard_keys[k] += n as u64;
            }
            self.bitmaps[conn].extend_from_slice(&bitmap_a);
            buf.bitmaps.push(bitmap_a);
            off += n;
        }

        // Codec: encode every response.
        buf.resp.clear();
        let start = Instant::now();
        for (bitmap, &n) in buf.bitmaps.iter().zip(&buf.lens) {
            encode_response(&mut buf.resp, status::OK, n as u32, bitmap);
        }
        let encode_resp_ns = start.elapsed().as_nanos() as u64;
        if timed {
            self.layers.frames += buf.ops.len() as u64;
            self.layers.encode_request_ns += encode_ns;
            self.layers.read_frame_ns += read_ns;
            self.layers.encode_response_ns += encode_resp_ns;
            self.layers.route_ns += route_ns;
            self.layers.route_keys += buf.keys.len() as u64;
        }
        Ok(())
    }

    /// Checks the replay against the wire replies and the served
    /// engine, reports the per-layer metrics and returns every span.
    fn finish(
        self,
        served: &ShardedConcurrentVcf,
        logs: &[ConnLog],
        stats: &Stats,
        wire_p50_us: f64,
        ping_us: f64,
        report: &mut Report,
    ) -> Vec<Span> {
        if self.mismatches > 0 {
            report.violation(format!(
                "{} replayed frames differ between the executor and direct shard calls",
                self.mismatches
            ));
        }
        let differing: usize = self
            .bitmaps
            .iter()
            .zip(logs)
            .map(|(replayed, log)| {
                let differ = replayed.iter().zip(&log.bitmaps).filter(|(a, b)| a != b);
                differ.count() + replayed.len().abs_diff(log.bitmaps.len())
            })
            .sum();
        if differing > 0 {
            report.violation(format!(
                "{differing} bytes of replayed replies differ from the wire replies"
            ));
        }
        let lens = [served.len(), self.engine_a.len(), self.engine_b.len()];
        if lens[0] != lens[1] || lens[0] != lens[2] {
            report.violation(format!(
                "live counts differ: wire {} replay {} direct {}",
                lens[0], lens[1], lens[2]
            ));
        }
        layer_metrics(&self.layers, stats, logs, wire_p50_us, ping_us, report);
        let mut spans = self.spans;
        spans.extend(logs.iter().flat_map(|l| l.spans.iter().copied()));
        spans
    }
}

/// The in-process time inside each traced round trip, in ns: codec and
/// replayed `execute` time of every frame, of any connection, that
/// completed within it, its own included. All threads share one core, so
/// a round trip also waits for the other connections' frames the core
/// serves meanwhile (usually one frame each). Round trips during which
/// another connection's frames were not all traced are skipped.
fn in_process_per_rtt(logs: &[ConnLog], execute_ns: &[Vec<u64>], codec_ns: f64) -> Vec<u64> {
    let end = |s: &Span| s.start_ns + s.dur_ns;
    let mut out = Vec::new();
    for rtt in logs.iter().flat_map(|l| &l.spans) {
        let mut ns = 0.0;
        let mut covered = true;
        for (log, exec) in logs.iter().zip(execute_ns) {
            let spans = &log.spans;
            let lo = spans.partition_point(|s| end(s) <= rtt.start_ns);
            let hi = spans.partition_point(|s| end(s) <= end(rtt));
            // The frames before and after the ones inside must be traced
            // neighbours, or some frame in between went unrecorded.
            if lo == 0
                || hi == spans.len()
                || spans[hi].frame - spans[lo - 1].frame != (hi - lo + 1) as u64
            {
                covered = false;
                break;
            }
            for s in &spans[lo..hi] {
                let i = (s.frame - log.first_timed) as usize;
                ns += codec_ns + exec.get(i).copied().unwrap_or(0) as f64;
            }
        }
        if covered {
            out.push(ns as u64);
        }
    }
    out
}

fn layer_metrics(
    layers: &Layers,
    stats: &Stats,
    logs: &[ConnLog],
    wire_p50_us: f64,
    ping_us: f64,
    report: &mut Report,
) {
    let frames = layers.frames.max(1) as f64;
    let per_frame = |ns: u64| ns as f64 / frames;
    let enc = per_frame(layers.encode_request_ns);
    let read = per_frame(layers.read_frame_ns);
    let enc_resp = per_frame(layers.encode_response_ns);
    let mut exec = layers.execute_ns.concat();
    let n_exec = exec.len();
    let exec_p50 = percentile(&mut exec, 0.5) as f64 / 1e3;
    let exec_p99 = percentile(&mut exec, 0.99) as f64 / 1e3;
    let exec_sum: u64 = exec.iter().sum();
    let shard_sum: u64 = layers.shard_ns.iter().sum();
    let mut in_process = in_process_per_rtt(logs, &layers.execute_ns, enc + read + enc_resp);
    let n_rtts = in_process.len();
    let in_process_us = percentile(&mut in_process, 0.5) as f64 / 1e3;
    let note = format!("{} replayed frames", layers.frames);

    report.metric("codec.encode_request_ns_per_frame", enc, "ns", note.clone());
    report.metric("codec.read_frame_ns_per_frame", read, "ns", note.clone());
    report.metric(
        "codec.encode_response_ns_per_frame",
        enc_resp,
        "ns",
        note.clone(),
    );
    report.metric(
        "server.transport_us_per_frame",
        wire_p50_us - in_process_us,
        "us",
        format!("wire frame_rtt_p50 minus p50 of codec + execute per round trip ({n_rtts} traced)"),
    );
    report.metric(
        "server.ping_rtt_us_p50",
        ping_us,
        "us",
        format!("{PINGS} pings"),
    );
    report.metric(
        "executor.execute_us_per_frame_p50",
        exec_p50,
        "us",
        format!("{n_exec} frames"),
    );
    report.metric(
        "executor.execute_us_per_frame_p99",
        exec_p99,
        "us",
        format!("{n_exec} frames"),
    );
    report.metric(
        "executor.hop_self_us_per_frame",
        (exec_sum as f64 - layers.route_ns as f64 - shard_sum as f64) / frames / 1e3,
        "us",
        "mean execute minus routing and shard work".to_owned(),
    );
    report.metric(
        "executor.allocs_per_frame",
        layers.execute_allocs as f64 / frames,
        "count",
        note,
    );
    report.metric(
        "sharded.shard_of_ns_per_key",
        layers.route_ns as f64 / layers.route_keys.max(1) as f64,
        "ns",
        format!("{} keys", layers.route_keys),
    );
    for (k, name) in [
        "concurrent.insert_ns_per_key",
        "concurrent.lookup_ns_per_key",
        "concurrent.delete_ns_per_key",
    ]
    .into_iter()
    .enumerate()
    {
        let keys = layers.shard_keys[k];
        report.metric(
            name,
            layers.shard_ns[k] as f64 / keys.max(1) as f64,
            "ns",
            format!("{keys} keys, shard_execute"),
        );
    }
    report.metric(
        "concurrent.kicks_per_insert",
        stats.kicks_per_insert(),
        "count",
        format!("{} timed inserts", stats.inserts.calls),
    );
    report.metric(
        "concurrent.bucket_accesses_per_lookup",
        stats.lookups.bucket_accesses as f64 / stats.lookups.calls.max(1) as f64,
        "count",
        format!("{} timed lookups", stats.lookups.calls),
    );
    report.metric(
        "concurrent.failed_inserts",
        stats.failed_inserts as f64,
        "count",
        "timed phase".to_owned(),
    );
    let accounted = in_process_us + ping_us;
    report.metric(
        "trace.unaccounted_share",
        (wire_p50_us - accounted) / wire_p50_us,
        "ratio",
        format!(
            "wire p50 {wire_p50_us:.3} us vs codec + execute per round trip p50 + ping p50 = {accounted:.3} us"
        ),
    );
    let rate = |w: usize| {
        let (k, ns) = logs.iter().fold((0u64, 0u64), |(k, ns), l| {
            (k + l.trace_windows[w].0, ns + l.trace_windows[w].1)
        });
        k as f64 / ns.max(1) as f64
    };
    report.metric(
        "trace.overhead_share",
        1.0 - rate(1) / rate(0),
        "ratio",
        "traced vs untraced windows of the wire phase".to_owned(),
    );
}
