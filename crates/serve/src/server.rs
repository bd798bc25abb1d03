//! The serving process: TCP accept loop, per-connection handlers, the
//! single ingest (writer) thread and the single panel-solver thread.
//!
//! ## Thread topology
//!
//! ```text
//!            accept loop ──▶ handler thread per connection (readers)
//!                               │        │
//!   queries read ring.load() ◀──┘        └──▶ exact PPR → PanelQueue
//!                                                           │
//!   ingest gate ──▶ writer thread: EpochEngine.step ──▶ ring.publish
//!                                                           ▲
//!                                   solver thread: serve_window (reads ring)
//! ```
//!
//! Readers never block on the writer: every query answers from the
//! [`SnapshotRing`]'s wait-free `load`. The writer owns the
//! [`EpochEngine`]; deltas are sequenced under the ingest gate's lock so
//! the channel order *is* the sequence order, and the parity suite can
//! replay the identical stream offline.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use sr_core::convergence::ConvergenceCriteria;
use sr_core::{PageRank, QueryConfig, RankSnapshot, RankVector, SnapshotRing, Teleport};
use sr_graph::{CrawlDelta, CsrGraph, NodeId, SourceAssignment};
use sr_obs::{LatencyRecorder, QueryClass, Stopwatch};

use crate::batch::PanelQueue;
use crate::engine::{EngineConfig, EngineError, EpochEngine};
use crate::wire::{
    decode_request, encode_response, read_frame, write_frame, PprMode, RankDomain, Request,
    Response, StatsReply,
};

/// Server-wide configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Solve parameters of the epoch engine.
    pub engine: EngineConfig,
    /// Exact-PPR coalescing width (columns per SpMM panel).
    pub panel_k: usize,
    /// Batching window deadline in microseconds.
    pub window_us: u64,
    /// Snapshot ring slots (min 2).
    pub snapshot_slots: usize,
    /// Directory for the startup walk-cache file (temp dir when `None`).
    pub cache_dir: Option<PathBuf>,
    /// Residual-push target of the approx-PPR fast path. The offline
    /// default (`1e-3`) pushes until the walk cache has almost nothing to
    /// close — as much edge work as an exact solve. Serving wants the
    /// opposite split: a handful of push rounds and the cached walks
    /// closing the bulk of the residual, so the default here is `0.25`.
    pub approx_epsilon: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            engine: EngineConfig::default(),
            panel_k: 8,
            window_us: 500,
            snapshot_slots: 4,
            cache_dir: None,
            approx_epsilon: 0.25,
        }
    }
}

struct IngestGate {
    sender: Option<Sender<(u64, CrawlDelta)>>,
    next_seq: u64,
}

struct Shared {
    ring: SnapshotRing,
    queue: PanelQueue,
    gate: Mutex<IngestGate>,
    enqueued_seq: AtomicU64,
    panels_solved: AtomicU64,
    queries: AtomicU64,
    shutdown: AtomicBool,
    recorder: LatencyRecorder,
    alpha: f64,
    criteria: ConvergenceCriteria,
    approx_query: QueryConfig,
}

/// A running server: its bound address plus the thread handles needed to
/// stop it cleanly.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
    solver: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The loopback address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Reader-stall count of the snapshot ring (acceptance gate: zero).
    pub fn reader_stalls(&self) -> u64 {
        self.shared.ring.reader_stalls()
    }

    /// Snapshots published since startup.
    pub fn published(&self) -> u64 {
        self.shared.ring.published()
    }

    /// Stops accepting, drains the ingest stream and the panel queue, and
    /// joins every service thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Closing the gate drops the only persistent Sender; the writer
        // thread exits once in-flight deltas are folded.
        {
            let mut gate = self.shared.gate.lock().unwrap_or_else(|p| p.into_inner());
            gate.sender = None;
        }
        self.shared.queue.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for h in [self.accept.take(), self.writer.take(), self.solver.take()]
            .into_iter()
            .flatten()
        {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Builds the seed epoch and starts the server on an ephemeral loopback
/// port. `spam_seeds` drives proximity/throttling (non-empty,
/// duplicate-free, in range).
///
/// # Errors
/// [`ServeError::Engine`] when the seed solve or walk-cache build fails,
/// [`ServeError::Io`] when binding the listener fails.
pub fn serve(
    pages: CsrGraph,
    assignment: &SourceAssignment,
    spam_seeds: Vec<u32>,
    config: &ServeConfig,
) -> Result<ServerHandle, ServeError> {
    // One cache file per server: two servers of one process (the test
    // harness runs them in parallel) must not rewrite each other's file.
    static STARTED: AtomicU64 = AtomicU64::new(0);
    let server_no = STARTED.fetch_add(1, Ordering::SeqCst);
    let cache_dir = config.cache_dir.clone().unwrap_or_else(std::env::temp_dir);
    let cache_path = cache_dir.join(format!(
        "sr_serve_cache_{}_{server_no}.walks",
        std::process::id()
    ));
    let (engine, seed_snapshot) =
        EpochEngine::seed(pages, assignment, spam_seeds, &config.engine, &cache_path)?;

    let shared = Arc::new(Shared {
        ring: SnapshotRing::new(seed_snapshot, config.snapshot_slots),
        queue: PanelQueue::new(
            config.panel_k,
            config.window_us,
            config.engine.alpha,
            config.engine.criteria,
        ),
        gate: Mutex::new(IngestGate {
            sender: None,
            next_seq: 0,
        }),
        enqueued_seq: AtomicU64::new(0),
        panels_solved: AtomicU64::new(0),
        queries: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        recorder: LatencyRecorder::new(),
        alpha: config.engine.alpha,
        criteria: config.engine.criteria,
        approx_query: QueryConfig {
            epsilon: config.approx_epsilon,
            ..QueryConfig::default()
        },
    });

    let (tx, rx) = channel::<(u64, CrawlDelta)>();
    shared.gate.lock().unwrap_or_else(|p| p.into_inner()).sender = Some(tx);

    // Writer thread: the only owner of the epoch engine.
    let writer_shared = Arc::clone(&shared);
    let writer = std::thread::spawn(move || {
        let mut engine = engine;
        while let Ok((seq, delta)) = rx.recv() {
            match engine.step(seq, &delta) {
                Ok(snapshot) => writer_shared.ring.publish(snapshot),
                Err(_) => {
                    // A malformed delta is skipped: the engine validates
                    // before mutating, so the stream stays consistent and
                    // `applied_seq` simply never reaches this seq.
                }
            }
        }
    });

    // Solver thread: drains the exact-PPR batching queue against the
    // current snapshot's graph.
    let solver_shared = Arc::clone(&shared);
    let solver = std::thread::spawn(move || loop {
        let graph_shared = Arc::clone(&solver_shared);
        match solver_shared
            .queue
            .serve_window(move || Arc::clone(&graph_shared.ring.load().pages))
        {
            Some(panels) => {
                solver_shared.panels_solved.fetch_add(
                    u64::try_from(panels).unwrap_or(u64::MAX),
                    // lint-ok(atomic-ordering): solve counter is telemetry only
                    Ordering::Relaxed,
                );
            }
            None => break,
        }
    });

    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let conn_shared = Arc::clone(&accept_shared);
            std::thread::spawn(move || handle_connection(stream, &conn_shared));
        }
    });

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        writer: Some(writer),
        solver: Some(solver),
    })
}

/// Startup failures of [`serve`].
#[derive(Debug)]
pub enum ServeError {
    /// The seed solve or walk-cache build failed.
    Engine(EngineError),
    /// Binding the listener failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Engine(e) => write!(f, "engine: {e}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let Ok(peer_read) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(peer_read);
    let mut writer = BufWriter::new(stream);
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let (response, wants_shutdown) = match decode_request(&payload) {
            Ok(request) => {
                let wants_shutdown = request == Request::Shutdown;
                (answer(&request, shared), wants_shutdown)
            }
            Err(e) => (
                Response::BadRequest(format!("malformed request: {e}")),
                false,
            ),
        };
        let mut out = Vec::new();
        encode_response(&response, &mut out);
        if write_frame(&mut writer, &out).is_err() {
            return;
        }
        if wants_shutdown {
            initiate_shutdown(shared);
            return;
        }
    }
}

/// Flips the shutdown flag and releases the writer + solver threads. The
/// accept loop unblocks on the handle's own throwaway connection (or the
/// next real one) and the handle's `join` completes.
fn initiate_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    let mut gate = shared.gate.lock().unwrap_or_else(|p| p.into_inner());
    gate.sender = None;
    drop(gate);
    shared.queue.close();
}

fn class_of(request: &Request) -> QueryClass {
    match request {
        Request::Rank { .. } => QueryClass::Rank,
        Request::TopK { .. } => QueryClass::TopK,
        Request::SourceScore { .. } => QueryClass::SourceScore,
        Request::Ppr {
            mode: PprMode::Approx,
            ..
        } => QueryClass::ApproxPpr,
        Request::Ppr {
            mode: PprMode::Exact,
            ..
        } => QueryClass::ExactPpr,
        Request::IngestDelta(_) => QueryClass::IngestDelta,
        Request::Stats | Request::DumpRanks { .. } | Request::Shutdown => QueryClass::Stats,
    }
}

fn domain_vector(snapshot: &RankSnapshot, domain: RankDomain) -> &RankVector {
    match domain {
        RankDomain::PageRank => &snapshot.pagerank,
        RankDomain::Resilient => &snapshot.resilient,
        RankDomain::SourceRank => &snapshot.sourcerank,
        RankDomain::Proximity => &snapshot.proximity,
    }
}

/// A `Ranked` reply: the `k` top-scored `(id, score)` pairs of `vector`,
/// best first.
fn top_pairs(vector: &RankVector, k: u32) -> Response {
    let ids = vector.top_k(k as usize);
    Response::Ranked(ids.iter().map(|&i| (i, vector.score(i))).collect())
}

fn answer(request: &Request, shared: &Shared) -> Response {
    let watch = Stopwatch::start();
    let class = class_of(request);
    let response = answer_inner(request, shared);
    shared.recorder.record_stopwatch(class, &watch);
    shared.queries.fetch_add(1, Ordering::Relaxed); // lint-ok(atomic-ordering): query counter is telemetry only
    response
}

fn answer_inner(request: &Request, shared: &Shared) -> Response {
    let snapshot = shared.ring.load();
    match request {
        Request::Rank { page } => {
            let scores = snapshot.pagerank.scores();
            match scores.get(*page as usize) {
                Some(&v) => Response::Score(v),
                None => Response::BadRequest(format!(
                    "page {page} out of range (snapshot has {} pages)",
                    scores.len()
                )),
            }
        }
        Request::TopK { domain, k } => top_pairs(domain_vector(&snapshot, *domain), *k),
        Request::SourceScore { source } => {
            let n = snapshot.num_sources();
            if (*source as usize) < n {
                Response::SourceScores {
                    resilient: snapshot.resilient.scores()[*source as usize],
                    sourcerank: snapshot.sourcerank.scores()[*source as usize],
                    proximity: snapshot.proximity.scores()[*source as usize],
                }
            } else {
                Response::BadRequest(format!(
                    "source {source} out of range (snapshot has {n} sources)"
                ))
            }
        }
        Request::Ppr { mode, top_m, seeds } => answer_ppr(shared, &snapshot, *mode, *top_m, seeds),
        Request::IngestDelta(delta) => {
            let gate = shared.gate.lock().unwrap_or_else(|p| p.into_inner());
            ingest(gate, shared, delta)
        }
        Request::Stats => Response::Stats(StatsReply {
            epoch: snapshot.epoch,
            applied_seq: snapshot.applied_seq,
            // lint-ok(atomic-ordering): stats are an advisory snapshot; the
            // ingest gate mutex is what orders seq against the stream
            enqueued_seq: shared.enqueued_seq.load(Ordering::Relaxed),
            published: shared.ring.published(),
            reader_stalls: shared.ring.reader_stalls(),
            compactions: snapshot.compactions,
            num_pages: u64::try_from(snapshot.num_pages()).unwrap_or(u64::MAX),
            num_sources: u64::try_from(snapshot.num_sources()).unwrap_or(u64::MAX),
            panels_solved: shared.panels_solved.load(Ordering::Relaxed), // lint-ok(atomic-ordering): telemetry read
            queries: shared.queries.load(Ordering::Relaxed), // lint-ok(atomic-ordering): telemetry read
        }),
        Request::DumpRanks { domain } => {
            Response::Ranks(domain_vector(&snapshot, *domain).scores().to_vec())
        }
        Request::Shutdown => Response::Ok,
    }
}

fn ingest(
    mut gate: std::sync::MutexGuard<'_, IngestGate>,
    shared: &Shared,
    delta: &CrawlDelta,
) -> Response {
    let Some(sender) = gate.sender.as_ref() else {
        return Response::ServerError("ingest stream is closed".into());
    };
    let seq = gate.next_seq + 1;
    if sender.send((seq, delta.clone())).is_err() {
        return Response::ServerError("ingest thread has exited".into());
    }
    gate.next_seq = seq;
    // lint-ok(atomic-ordering): advisory stats value; the gate mutex already
    // serializes ingest, nothing reads this to gate data
    shared.enqueued_seq.store(seq, Ordering::Relaxed);
    Response::Ingested { seq }
}

fn answer_ppr(
    shared: &Shared,
    snapshot: &RankSnapshot,
    mode: PprMode,
    top_m: u32,
    seeds: &[NodeId],
) -> Response {
    match mode {
        PprMode::Approx => {
            // The fast path answers on the walk cache's build graph — the
            // documented staleness trade of Monte-Carlo serving.
            let solver = PageRank::builder()
                .alpha(shared.alpha)
                .criteria(shared.criteria)
                .finish();
            let engine = match solver.approx(&snapshot.cache_pages, &snapshot.walks) {
                Ok(e) => e,
                Err(e) => return Response::ServerError(format!("approx engine: {e}")),
            };
            match engine.query(seeds, &shared.approx_query) {
                Ok(vector) => top_pairs(&vector, top_m),
                Err(e) => Response::BadRequest(format!("approx query: {e}")),
            }
        }
        PprMode::Exact => {
            // Validate seeds against the *current* graph before admission
            // so the panel solve can only fail if the graph shrinks
            // (which serving never does — pages are append-only).
            if let Err(e) = Teleport::try_over_seeds(snapshot.pages.num_nodes(), seeds) {
                return Response::BadRequest(format!("exact query: {e}"));
            }
            let Some(slot) = shared.queue.submit(seeds.to_vec()) else {
                return Response::ServerError("panel queue is closed".into());
            };
            match slot.wait() {
                Ok(vector) => top_pairs(&vector, top_m),
                Err(e) => Response::ServerError(e),
            }
        }
    }
}

impl Shared {
    /// Latency snapshot of one query class (used by the load generator via
    /// `ServerHandle`).
    fn latency(&self, class: QueryClass) -> sr_obs::LatencySamples {
        self.recorder.snapshot(class)
    }
}

impl ServerHandle {
    /// Server-side latency samples of `class`.
    pub fn latency(&self, class: QueryClass) -> sr_obs::LatencySamples {
        self.shared.latency(class)
    }
}
