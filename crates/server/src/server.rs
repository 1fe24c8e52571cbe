//! The filter server: accept loop, per-connection frame loop, and
//! engine construction.
//!
//! Threading model: one acceptor thread, one frame-loop thread per
//! connection, and the [`ShardExecutor`]'s worker threads. Connection
//! threads do socket I/O and wire routing. A frame whose keys all route
//! to one worker's shards runs on its connection thread; any other
//! frame is split across the owning workers. So a shard can be touched
//! by several threads at once, which is safe because shards are
//! lock-free seqlock `ConcurrentVcf`s or `RwLock`-guarded elastic
//! filters; per-key order holds because a connection has one frame in
//! flight.
//!
//! Backpressure is structural: the protocol is strictly one request in
//! flight per connection (a client must read the response before the
//! next frame), so a server never buffers more than one frame per
//! connection and slow clients are throttled by their own socket.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use vcf_core::{CuckooConfig, ShardedConcurrentVcf, ShardedScalableVcf};

use crate::codec::{encode_response, Endpoint, Frame, FrameReader, WireStream};
use crate::executor::{ShardEngine, ShardExecutor};
use crate::metrics::{MetricsSnapshot, ServerMetrics, StopFlag};
use crate::protocol::{bitmap_len, status, OpCode, HEADER_LEN, STATS_WORDS};

/// Everything needed to build and serve an engine.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen (`tcp:…` or `uds:…`).
    pub endpoint: Endpoint,
    /// Total slot budget across all shards.
    pub slots: usize,
    /// log2 of the shard count.
    pub shard_bits: u32,
    /// Worker threads; `0` means one per available core (clamped to the
    /// shard count either way).
    pub workers: usize,
    /// Serve a [`ShardedScalableVcf`] (elastic, segment-growing) shard
    /// set instead of the fixed-capacity lock-free one.
    pub elastic: bool,
    /// Hash seed, so a differential oracle can be built identically.
    pub seed: u64,
}

impl ServerConfig {
    /// Defaults tuned for the smoke tests: 2^20 slots, 16 shards,
    /// auto workers, fixed-capacity engine.
    #[must_use]
    pub fn new(endpoint: Endpoint) -> Self {
        Self {
            endpoint,
            slots: 1 << 20,
            shard_bits: 4,
            workers: 0,
            elastic: false,
            seed: 0x5643_4653_4552_5645, // "VCFSERVE"
        }
    }

    /// The filter config every shard set is built from.
    #[must_use]
    pub fn cuckoo_config(&self) -> CuckooConfig {
        CuckooConfig::with_total_slots(self.slots).with_seed(self.seed)
    }

    /// Resolved worker count: explicit, or one per available core.
    #[must_use]
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// Builds the shard engine a config describes.
///
/// # Errors
///
/// [`io::Error`] (invalid-input kind) when the slot/shard geometry is
/// rejected by the filter's own validation.
pub fn build_engine(config: &ServerConfig) -> io::Result<Arc<dyn ShardEngine>> {
    let cuckoo = config.cuckoo_config();
    let invalid = |e| io::Error::new(io::ErrorKind::InvalidInput, format!("bad geometry: {e}"));
    if config.elastic {
        let engine = ShardedScalableVcf::new(cuckoo, config.shard_bits).map_err(invalid)?;
        Ok(Arc::new(engine))
    } else {
        let engine = ShardedConcurrentVcf::new(cuckoo, config.shard_bits).map_err(invalid)?;
        Ok(Arc::new(engine))
    }
}

/// The two listener flavours behind one accept interface.
enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> io::Result<(Self, Endpoint)> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let resolved = Endpoint::Tcp(listener.local_addr()?.to_string());
                Ok((Self::Tcp(listener), resolved))
            }
            Endpoint::Uds(path) => {
                // A stale socket file from a previous run would make
                // bind fail with AddrInUse; remove it first.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                Ok((Self::Uds(listener), Endpoint::Uds(path.clone())))
            }
        }
    }

    fn accept(&self) -> io::Result<WireStream> {
        match self {
            Self::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                stream.set_nodelay(true)?;
                Ok(WireStream::Tcp(stream))
            }
            Self::Uds(listener) => {
                let (stream, _) = listener.accept()?;
                Ok(WireStream::Uds(stream))
            }
        }
    }
}

/// A running server: join/shutdown handle plus the shared state the
/// tests and binaries want to observe.
pub struct ServerHandle {
    endpoint: Endpoint,
    executor: Arc<ShardExecutor>,
    metrics: Arc<ServerMetrics>,
    stop: Arc<StopFlag>,
    acceptor: Option<JoinHandle<()>>,
    uds_path: Option<PathBuf>,
}

impl ServerHandle {
    /// Binds `config.endpoint`, builds the engine and executor, and
    /// starts the accept loop. Returns once the socket is listening;
    /// `endpoint()` reports the resolved address (useful with
    /// `tcp:127.0.0.1:0`).
    ///
    /// # Errors
    ///
    /// Propagates bind/engine-construction failures.
    pub fn spawn(config: &ServerConfig) -> io::Result<Self> {
        let engine = build_engine(config)?;
        Self::spawn_with_engine(config, engine)
    }

    /// [`Self::spawn`] with a caller-built engine (lets tests share the
    /// exact engine instance between server and oracle checks).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn_with_engine(
        config: &ServerConfig,
        engine: Arc<dyn ShardEngine>,
    ) -> io::Result<Self> {
        let (listener, endpoint) = Listener::bind(&config.endpoint)?;
        let executor = Arc::new(ShardExecutor::new(engine, config.resolved_workers()));
        let metrics = Arc::new(ServerMetrics::new());
        let stop = Arc::new(StopFlag::new());
        let uds_path = match &endpoint {
            Endpoint::Uds(path) => Some(path.clone()),
            Endpoint::Tcp(_) => None,
        };

        let acceptor = {
            let executor = Arc::clone(&executor);
            let metrics = Arc::clone(&metrics);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                accept_loop(&listener, &executor, &metrics, &stop);
            })
        };

        Ok(Self {
            endpoint,
            executor,
            metrics,
            stop,
            acceptor: Some(acceptor),
            uds_path,
        })
    }

    /// The resolved listening endpoint.
    #[must_use]
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The engine being served.
    #[must_use]
    pub fn engine(&self) -> &Arc<dyn ShardEngine> {
        self.executor.engine()
    }

    /// Worker threads serving filter ops.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.executor.workers()
    }

    /// Current counters.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Stops accepting, unblocks the acceptor, and joins it. Existing
    /// connections finish their current frame and close on next read.
    pub fn shutdown(&mut self) {
        self.stop.set();
        // accept() has no timeout; a throwaway connection unblocks it.
        match &self.endpoint {
            Endpoint::Tcp(addr) => {
                let _ = TcpStream::connect(addr.as_str());
            }
            Endpoint::Uds(path) => {
                let _ = UnixStream::connect(path);
            }
        }
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        if let Some(path) = self.uds_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Accepts until the stop flag latches; each connection gets its own
/// frame-loop thread. Connection threads are detached — they exit on
/// client EOF or protocol close, and the executor they reference stays
/// alive through the shared `Arc`.
fn accept_loop(
    listener: &Listener,
    executor: &Arc<ShardExecutor>,
    metrics: &Arc<ServerMetrics>,
    stop: &Arc<StopFlag>,
) {
    loop {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(_) if stop.is_set() => return,
            Err(_) => continue,
        };
        if stop.is_set() {
            return;
        }
        metrics.record_connection();
        let executor = Arc::clone(executor);
        let metrics = Arc::clone(metrics);
        std::thread::spawn(move || {
            let _ = serve_conn(stream, &executor, &metrics);
        });
    }
}

/// One connection's request/response loop. Returns on clean EOF, I/O
/// error, or an unrecoverable protocol error.
fn serve_conn(
    stream: WireStream,
    executor: &ShardExecutor,
    metrics: &ServerMetrics,
) -> io::Result<()> {
    let writer = stream.try_clone()?;
    serve_frames(FrameReader::new(stream), writer, executor, metrics)
}

/// The frame loop proper, generic over the transport so the unit tests
/// can drive it with in-memory buffers.
fn serve_frames<R: Read, W: Write>(
    mut reader: FrameReader<R>,
    mut writer: W,
    executor: &ShardExecutor,
    metrics: &ServerMetrics,
) -> io::Result<()> {
    let mut scratch = executor.scratch();
    let mut resp = Vec::new();
    let mut bitmap = Vec::new();
    loop {
        match reader.read_frame()? {
            Frame::Closed => return Ok(()),
            Frame::Malformed(err) => {
                metrics.record_proto_error();
                resp.clear();
                encode_response(&mut resp, err.status(), 0, &[]);
                writer.write_all(&resp)?;
                writer.flush()?;
                metrics.add_bytes_out(resp.len() as u64);
                if err.drainable_payload().is_none() {
                    // Framing is lost (bad magic/version) or the frame
                    // is abusive (oversized): close rather than guess.
                    return Ok(());
                }
            }
            Frame::Request { opcode, payload } => {
                let count = (payload.len() / crate::protocol::KEY_LEN) as u32;
                metrics.add_bytes_in((HEADER_LEN + payload.len()) as u64);
                resp.clear();
                match opcode.batch_kind() {
                    Some(op) => {
                        metrics.record_data_frame(op, u64::from(count));
                        bitmap.clear();
                        bitmap.resize(bitmap_len(count as usize), 0);
                        match executor.execute(op, payload, &mut scratch, &mut bitmap) {
                            Ok(()) => encode_response(&mut resp, status::OK, count, &bitmap),
                            Err(_) => {
                                encode_response(&mut resp, status::INTERNAL, 0, &[]);
                                writer.write_all(&resp)?;
                                writer.flush()?;
                                return Ok(());
                            }
                        }
                    }
                    None => {
                        metrics.record_control_frame();
                        match opcode {
                            OpCode::Ping => encode_response(&mut resp, status::OK, 0, &[]),
                            OpCode::Stats => {
                                let stats = stats_payload(executor, metrics);
                                encode_response(&mut resp, status::OK, STATS_WORDS as u32, &stats);
                            }
                            // Data opcodes were dispatched via
                            // `batch_kind()` above; reaching one here is
                            // a dispatch bug, answered as internal.
                            OpCode::Insert | OpCode::Lookup | OpCode::Delete => {
                                encode_response(&mut resp, status::INTERNAL, 0, &[]);
                            }
                        }
                    }
                }
                writer.write_all(&resp)?;
                writer.flush()?;
                metrics.add_bytes_out(resp.len() as u64);
            }
        }
    }
}

/// The 8 little-endian `u64` words of a stats reply, in wire order:
/// `len`, `capacity`, `shards`, `workers`, `frames`, `data_keys`,
/// `proto_errors`, `connections`.
fn stats_payload(executor: &ShardExecutor, metrics: &ServerMetrics) -> [u8; STATS_WORDS * 8] {
    let engine = executor.engine();
    let snap = metrics.snapshot();
    let words: [u64; STATS_WORDS] = [
        engine.total_len() as u64,
        engine.total_capacity() as u64,
        engine.shard_count() as u64,
        executor.workers() as u64,
        snap.frames,
        snap.data_keys(),
        snap.proto_errors,
        snap.connections,
    ];
    let mut out = [0u8; STATS_WORDS * 8];
    for (chunk, word) in out.chunks_exact_mut(8).zip(words) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// What [`serve_bytes_for_test`] observed.
#[doc(hidden)]
#[derive(Debug)]
pub struct BytesServed {
    /// Concatenated response frames the server wrote.
    pub output: Vec<u8>,
    /// Counters after the stream ended.
    pub metrics: MetricsSnapshot,
    /// The frame loop's transport error, if any (e.g. a stream that
    /// ends mid-frame surfaces as `UnexpectedEof`).
    pub error: Option<io::ErrorKind>,
}

/// Drives one in-memory request byte stream through the frame loop and
/// returns the responses, counters and terminal error. Test-only
/// harness shared with the wire-robustness integration tests.
#[doc(hidden)]
pub fn serve_bytes_for_test(executor: &ShardExecutor, input: &[u8]) -> BytesServed {
    let metrics = ServerMetrics::new();
    let mut out = Vec::new();
    let reader = FrameReader::new(input);
    let result = serve_frames(reader, &mut out, executor, &metrics);
    BytesServed {
        output: out,
        metrics: metrics.snapshot(),
        error: result.err().map(|e| e.kind()),
    }
}

/// `mpsc`-based readiness helper used by binaries: spawns the server,
/// sends the resolved endpoint through the channel, and blocks the
/// calling thread until the handle is dropped elsewhere — not used by
/// the library path, only by `vcf-server`'s foreground mode.
pub fn spawn_and_report(
    config: &ServerConfig,
    ready: &mpsc::Sender<Endpoint>,
) -> io::Result<ServerHandle> {
    let handle = ServerHandle::spawn(config)?;
    let _ = ready.send(handle.endpoint().clone());
    Ok(handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Client;
    use crate::protocol::{RequestHeader, RESP_MAGIC, WIRE_VERSION};

    fn test_config(endpoint: Endpoint) -> ServerConfig {
        let mut config = ServerConfig::new(endpoint);
        config.slots = 1 << 12;
        config.shard_bits = 2;
        config.workers = 2;
        config
    }

    #[test]
    fn tcp_roundtrip_insert_lookup_delete() {
        let config = test_config(Endpoint::Tcp("127.0.0.1:0".to_owned()));
        let mut server = ServerHandle::spawn(&config).expect("bind");
        let mut client = Client::connect(server.endpoint()).expect("connect");

        let keys: Vec<u64> = (0..100).collect();
        let stored = client.data_op(OpCode::Insert, &keys).expect("insert");
        assert!((0..100).all(|i| stored.bit(i)));
        let present = client.data_op(OpCode::Lookup, &keys).expect("lookup");
        assert!((0..100).all(|i| present.bit(i)));
        let removed = client.data_op(OpCode::Delete, &keys).expect("delete");
        assert!((0..100).all(|i| removed.bit(i)));
        let gone = client.data_op(OpCode::Lookup, &keys).expect("lookup2");
        assert!((0..100).all(|i| !gone.bit(i)));

        client.ping().expect("ping");
        let stats = client.stats().expect("stats");
        assert_eq!(stats[0], 0, "len after deletes");
        assert_eq!(stats[2], 4, "shards");
        assert_eq!(stats[3], 2, "workers");

        server.shutdown();
        let snap = server.metrics();
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.proto_errors, 0);
        assert_eq!(snap.insert_keys, 100);
    }

    #[test]
    fn uds_roundtrip_and_stale_socket_cleanup() {
        let path =
            std::env::temp_dir().join(format!("vcf-server-test-{}.sock", std::process::id()));
        // Pre-create a stale file: bind must clean it up.
        std::fs::write(&path, b"stale").expect("write stale");
        let config = test_config(Endpoint::Uds(path.clone()));
        let mut server = ServerHandle::spawn(&config).expect("bind over stale file");
        let mut client = Client::connect(server.endpoint()).expect("connect");
        let keys = [7u64, 8, 9];
        let stored = client.data_op(OpCode::Insert, &keys).expect("insert");
        assert!(stored.bit(0) && stored.bit(1) && stored.bit(2));
        server.shutdown();
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn elastic_engine_serves_the_same_protocol() {
        let mut config = test_config(Endpoint::Tcp("127.0.0.1:0".to_owned()));
        config.elastic = true;
        let mut server = ServerHandle::spawn(&config).expect("bind");
        let mut client = Client::connect(server.endpoint()).expect("connect");
        let keys: Vec<u64> = (0..64).collect();
        let stored = client.data_op(OpCode::Insert, &keys).expect("insert");
        assert!((0..64).all(|i| stored.bit(i)));
        let present = client.data_op(OpCode::Lookup, &keys).expect("lookup");
        assert!((0..64).all(|i| present.bit(i)));
        server.shutdown();
    }

    #[test]
    fn malformed_bad_opcode_recovers_bad_magic_closes() {
        let config = test_config(Endpoint::Tcp("127.0.0.1:0".to_owned()));
        let engine = build_engine(&config).expect("engine");
        let executor = ShardExecutor::new(engine, 2);

        // Bad opcode with a drainable 1-key payload, then a valid ping:
        // server answers BAD_OPCODE then OK.
        let mut input = Vec::new();
        let mut bad = RequestHeader {
            opcode: OpCode::Ping,
            count: 0,
        }
        .encode()
        .to_vec();
        bad[3] = 99; // opcode byte
        bad[4..8].copy_from_slice(&1u32.to_le_bytes());
        input.extend_from_slice(&bad);
        input.extend_from_slice(&42u64.to_le_bytes());
        input.extend_from_slice(
            &RequestHeader {
                opcode: OpCode::Ping,
                count: 0,
            }
            .encode(),
        );
        let served = serve_bytes_for_test(&executor, &input);
        let (out, snap) = (served.output, served.metrics);
        assert_eq!(served.error, None);
        assert_eq!(snap.proto_errors, 1);
        assert_eq!(snap.frames, 1, "ping still processed after recovery");
        // Two responses: error then OK.
        assert_eq!(out.len(), 2 * HEADER_LEN);
        assert_eq!(u16::from_le_bytes([out[0], out[1]]), RESP_MAGIC);
        assert_eq!(out[2], WIRE_VERSION);
        assert_eq!(out[3], status::BAD_OPCODE);
        assert_eq!(out[HEADER_LEN + 3], status::OK);

        // Bad magic: one error response, connection closed, the valid
        // ping behind it never answered.
        let mut input = vec![0xFF, 0xFF, WIRE_VERSION, OpCode::Ping as u8, 0, 0, 0, 0];
        input.extend_from_slice(
            &RequestHeader {
                opcode: OpCode::Ping,
                count: 0,
            }
            .encode(),
        );
        let served = serve_bytes_for_test(&executor, &input);
        let (out, snap) = (served.output, served.metrics);
        assert_eq!(served.error, None);
        assert_eq!(snap.proto_errors, 1);
        assert_eq!(snap.frames, 0);
        assert_eq!(out.len(), HEADER_LEN, "single error response then close");
        assert_eq!(out[3], status::BAD_MAGIC);
    }

    #[test]
    fn stats_words_have_documented_order() {
        let config = test_config(Endpoint::Tcp("127.0.0.1:0".to_owned()));
        let engine = build_engine(&config).expect("engine");
        let capacity = engine.total_capacity() as u64;
        let executor = ShardExecutor::new(engine, 2);
        let metrics = ServerMetrics::new();
        let payload = stats_payload(&executor, &metrics);
        let word = |i: usize| {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&payload[i * 8..i * 8 + 8]);
            u64::from_le_bytes(bytes)
        };
        assert_eq!(word(0), 0, "len");
        assert_eq!(word(1), capacity);
        assert_eq!(word(2), 4, "shards");
        assert_eq!(word(3), 2, "workers");
    }
}
