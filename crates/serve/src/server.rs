//! The daemon: an owned-state actor worker pool behind mpsc handles, fed
//! by a dispatcher that hands each request to the next idle worker.
//!
//! Thread topology (all `std` primitives — no async runtime):
//!
//! ```text
//! accept loop ──► per-connection reader ──► dispatcher queue (mpsc)
//!                     │                          │  claim an idle worker,
//!                     ▼                          ▼  send it one request
//!              per-connection writer ◄── worker 0..N (owned replica +
//!                                         deterministic RNG streams)
//! ```
//!
//! Workers own their model replica (frozen weights `Arc`-shared via
//! [`LoadedScenario::build_replica`]) and signal readiness on an idle
//! channel; the dispatcher hands each request to the next idle worker, so
//! requests never queue behind a busy replica while another sits idle.
//! Each request is one batch-1 forward under its own noise seed, made
//! with the offline reference's own calls, so replies are bit-identical
//! to offline `reseed_noise(seed)` + batch-1 evaluation.

use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ams_nn::Mode;
use ams_obs::{MetricsReport, MetricsSink, Registry};
use ams_tensor::{ExecCtx, Tensor};

use crate::protocol::{
    decode_request, encode_response, encode_shutdown, read_frame, write_frame, ClassifyResponse,
    Request,
};
use crate::scenario::LoadedScenario;

/// Forward-batch-size histogram bounds (`serve.batch.size`). Every
/// forward serves one request, so it observes 1 per forward.
pub const BATCH_SIZE_BOUNDS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Request-latency histogram bounds in milliseconds
/// (`serve.request.latency_ms`).
pub const LATENCY_MS_BOUNDS: [f64; 13] = [
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
];

/// Pool knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker replicas (each owns a model + workspace + RNG streams).
    pub workers: usize,
    /// Threads per worker `ExecCtx`; 0 derives `cores / workers` (min 1).
    pub threads_per_worker: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            threads_per_worker: 0,
        }
    }
}

impl ServeConfig {
    fn resolved_threads(&self) -> usize {
        if self.threads_per_worker > 0 {
            return self.threads_per_worker;
        }
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        (cores / self.workers.max(1)).max(1)
    }
}

/// One queued classify request inside the daemon.
struct Job {
    seq: u64,
    seed: u64,
    /// Pinned simulated inference time (`classify-at`); `None` runs at
    /// the scenario's configured time and replies on the 0x01 layout.
    t_infer: Option<f64>,
    pixels: Vec<f32>,
    /// Encoded response payloads travel back to the connection's writer.
    reply: Sender<Vec<u8>>,
    enqueued: Instant,
}

enum DispatchMsg {
    Job(Job),
    /// Drain everything already queued, stop the workers, then ack.
    Drain(Sender<()>),
}

enum WorkerMsg {
    Job(Job),
    Stop,
}

/// A running daemon: its bound addresses, metrics registry, and threads.
#[derive(Debug)]
pub struct ServerHandle {
    /// Bound request-protocol address.
    pub addr: SocketAddr,
    /// Bound `/metrics` + `/healthz` HTTP address.
    pub metrics_addr: SocketAddr,
    registry: Arc<Registry>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The serve metrics registry (shared with every daemon thread).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Snapshots the serve metrics.
    pub fn report(&self) -> MetricsReport {
        self.registry.report()
    }

    /// Blocks until the daemon has fully stopped (a client sent the
    /// shutdown request and the queue drained).
    pub fn wait(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Starts the daemon: binds both listeners, spawns the worker pool, the
/// dispatcher and the accept loops, and returns immediately.
///
/// Bind to port 0 to let the OS pick (the handle reports the real
/// addresses). The daemon stops when a client sends the shutdown frame.
///
/// # Errors
///
/// Returns bind errors.
pub fn start(
    scenario: LoadedScenario,
    cfg: ServeConfig,
    addr: &str,
    metrics_addr: &str,
) -> io::Result<ServerHandle> {
    assert!(cfg.workers >= 1, "ServeConfig: zero workers");
    let listener = TcpListener::bind(addr)?;
    let metrics_listener = TcpListener::bind(metrics_addr)?;
    let bound = listener.local_addr()?;
    let metrics_bound = metrics_listener.local_addr()?;

    let registry = Arc::new(Registry::new());
    let sink = MetricsSink::from(Arc::clone(&registry));
    let shutdown = Arc::new(AtomicBool::new(false));
    let depth = Arc::new(AtomicI64::new(0));
    let scenario = Arc::new(scenario);

    // Pre-register the serve metrics so /metrics is fully shaped (and the
    // e2e consistency check well-defined) before the first request.
    sink.add("serve.requests", 0);
    sink.add("serve.responses", 0);
    registry.histogram("serve.batch.size", &BATCH_SIZE_BOUNDS);
    registry.histogram("serve.request.latency_ms", &LATENCY_MS_BOUNDS);
    registry.histogram("serve.request.queue_wait_ms", &LATENCY_MS_BOUNDS);
    // Drift-time gauge: the simulated inference time of the most recent
    // forward. Starts at the scenario's configured time so /metrics is
    // fully shaped before the first request.
    sink.observe("serve.drift.t_infer", scenario.at_time);
    sink.set_gauge("serve.connections.open", 0.0);

    let mut threads = Vec::new();
    let (queue_tx, queue_rx) = mpsc::channel::<DispatchMsg>();
    let (idle_tx, idle_rx) = mpsc::channel::<usize>();

    // Worker pool: each worker owns a replica, a context, and its inbox.
    let worker_threads = cfg.resolved_threads();
    let mut worker_txs = Vec::with_capacity(cfg.workers);
    for w in 0..cfg.workers {
        let (tx, rx) = mpsc::channel::<WorkerMsg>();
        worker_txs.push(tx);
        let scenario = Arc::clone(&scenario);
        let sink = sink.clone();
        let idle_tx = idle_tx.clone();
        threads.push(
            thread::Builder::new()
                .name(format!("ams-serve-worker-{w}"))
                .spawn(move || worker_loop(w, &scenario, worker_threads, &sink, &idle_tx, &rx))
                .expect("spawn worker"),
        );
    }
    drop(idle_tx);

    {
        let sink = sink.clone();
        let depth = Arc::clone(&depth);
        threads.push(
            thread::Builder::new()
                .name("ams-serve-dispatch".into())
                .spawn(move || dispatcher_loop(&queue_rx, &idle_rx, &worker_txs, &sink, &depth))
                .expect("spawn dispatcher"),
        );
    }

    {
        let shutdown = Arc::clone(&shutdown);
        let scenario = Arc::clone(&scenario);
        threads.push(
            thread::Builder::new()
                .name("ams-serve-accept".into())
                .spawn(move || {
                    accept_loop(&listener, &queue_tx, &scenario, &sink, &depth, &shutdown)
                })
                .expect("spawn accept loop"),
        );
    }

    {
        let shutdown = Arc::clone(&shutdown);
        let registry = Arc::clone(&registry);
        threads.push(
            thread::Builder::new()
                .name("ams-serve-metrics".into())
                .spawn(move || metrics_loop(&metrics_listener, &registry, &shutdown))
                .expect("spawn metrics loop"),
        );
    }

    Ok(ServerHandle {
        addr: bound,
        metrics_addr: metrics_bound,
        registry,
        threads,
    })
}

fn worker_loop(
    index: usize,
    scenario: &LoadedScenario,
    threads: usize,
    sink: &MetricsSink,
    idle_tx: &Sender<usize>,
    rx: &Receiver<WorkerMsg>,
) {
    let mut net = scenario.build_replica();
    // Layer-level metric recording stays off the hot path; serve-level
    // metrics go through `sink`.
    let ctx = ExecCtx::with_threads(threads).with_kernel(scenario.kernel);
    let [c, h, w] = scenario.input_dims;
    if idle_tx.send(index).is_err() {
        return;
    }
    while let Ok(WorkerMsg::Job(job)) = rx.recv() {
        sink.observe_histogram("serve.batch.size", &BATCH_SIZE_BOUNDS, 1.0);
        // The offline reference's own calls: a pinned `classify-at` time
        // or the scenario's configured one, the request's noise seed,
        // then one batch-1 forward.
        let t = job.t_infer.unwrap_or(scenario.at_time);
        let image = Tensor::from_vec(&[1, c, h, w], job.pixels).expect("request length checked");
        net.set_inference_time(t);
        net.reseed_noise(job.seed);
        sink.observe("serve.drift.t_infer", t);
        let t0 = Instant::now();
        let logits = net.forward(&ctx, &image, Mode::Eval);
        sink.record_duration("serve.batch.forward", t0.elapsed());
        let payload = encode_response(&ClassifyResponse {
            seq: job.seq,
            t_infer: job.t_infer,
            hardware: scenario.hardware_info.clone(),
            logits: logits.data().to_vec(),
        });
        // A send error means the connection hung up; its loss.
        let _ = job.reply.send(payload);
        sink.observe_histogram(
            "serve.request.latency_ms",
            &LATENCY_MS_BOUNDS,
            job.enqueued.elapsed().as_secs_f64() * 1e3,
        );
        sink.observe_histogram(
            "serve.request.queue_wait_ms",
            &LATENCY_MS_BOUNDS,
            t0.saturating_duration_since(job.enqueued).as_secs_f64() * 1e3,
        );
        sink.inc("serve.responses");
        if idle_tx.send(index).is_err() {
            break;
        }
    }
}

fn dispatcher_loop(
    queue_rx: &Receiver<DispatchMsg>,
    idle_rx: &Receiver<usize>,
    worker_txs: &[Sender<WorkerMsg>],
    sink: &MetricsSink,
    depth: &AtomicI64,
) {
    let mut idle: VecDeque<usize> = VecDeque::new();
    let mut acks: Vec<Sender<()>> = Vec::new();
    loop {
        // Block on the queue until the first shutdown frame; after it,
        // drain without blocking: everything enqueued before it (mpsc is
        // FIFO) still gets dispatched and answered before the ack goes out.
        let msg = if acks.is_empty() {
            queue_rx.recv().ok()
        } else {
            queue_rx.try_recv().ok()
        };
        match msg {
            Some(DispatchMsg::Job(job)) => {
                // Claim an idle worker, then send it the request: while
                // every replica is busy, arrivals wait in the queue rather
                // than behind one replica while another sits idle.
                let w = idle
                    .pop_front()
                    .unwrap_or_else(|| idle_rx.recv().expect("a worker outlives the dispatcher"));
                let remaining = depth.fetch_sub(1, Ordering::Relaxed) - 1;
                sink.observe("serve.queue.depth", remaining.max(0) as f64);
                let _ = worker_txs[w].send(WorkerMsg::Job(job));
            }
            Some(DispatchMsg::Drain(a)) => acks.push(a),
            // Drained, or every connection and the acceptor gone.
            None => break,
        }
    }
    // Wait for every worker to finish its final request, then stop them.
    while idle.len() < worker_txs.len() {
        match idle_rx.recv() {
            Ok(w) => idle.push_back(w),
            Err(_) => break,
        }
    }
    for tx in worker_txs {
        let _ = tx.send(WorkerMsg::Stop);
    }
    for ack in acks {
        let _ = ack.send(());
    }
}

fn accept_loop(
    listener: &TcpListener,
    queue_tx: &Sender<DispatchMsg>,
    scenario: &Arc<LoadedScenario>,
    sink: &MetricsSink,
    depth: &Arc<AtomicI64>,
    shutdown: &Arc<AtomicBool>,
) {
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking");
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::Relaxed) {
        // Reap the connections that have ended: a kept handle holds its
        // exited thread's stack until it is joined.
        let open = conns.len();
        for c in std::mem::take(&mut conns) {
            if c.is_finished() {
                let _ = c.join();
            } else {
                conns.push(c);
            }
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let queue_tx = queue_tx.clone();
                let input_len = scenario.input_len();
                let conn_sink = sink.clone();
                let depth = Arc::clone(depth);
                let shutdown = Arc::clone(shutdown);
                conns.push(
                    thread::Builder::new()
                        .name("ams-serve-conn".into())
                        .spawn(move || {
                            connection_loop(
                                stream, &queue_tx, input_len, &conn_sink, &depth, &shutdown,
                            )
                        })
                        .expect("spawn connection"),
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
        if conns.len() != open {
            sink.set_gauge("serve.connections.open", conns.len() as f64);
        }
    }
    for c in conns {
        let _ = c.join();
    }
}

fn connection_loop(
    stream: TcpStream,
    queue_tx: &Sender<DispatchMsg>,
    input_len: usize,
    sink: &MetricsSink,
    depth: &AtomicI64,
    shutdown: &AtomicBool,
) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (resp_tx, resp_rx) = mpsc::channel::<Vec<u8>>();
    // The writer owns the write half; it exits when every sender (this
    // reader plus any in-flight jobs) has dropped.
    let writer = thread::Builder::new()
        .name("ams-serve-write".into())
        .spawn(move || {
            let mut w = BufWriter::new(write_half);
            while let Ok(payload) = resp_rx.recv() {
                if write_frame(&mut w, &payload).is_err() {
                    break;
                }
            }
        })
        .expect("spawn writer");
    let mut reader = BufReader::new(stream);
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        match decode_request(&payload) {
            Ok(Request::Classify(req)) => {
                if req.pixels.len() != input_len {
                    // Protocol violation: drop the connection rather than
                    // feed a mis-shaped image to a worker.
                    break;
                }
                sink.inc("serve.requests");
                depth.fetch_add(1, Ordering::Relaxed);
                let job = Job {
                    seq: req.seq,
                    seed: req.seed,
                    t_infer: req.t_infer,
                    pixels: req.pixels,
                    reply: resp_tx.clone(),
                    enqueued: Instant::now(),
                };
                if queue_tx.send(DispatchMsg::Job(job)).is_err() {
                    break; // dispatcher already stopped
                }
            }
            Ok(Request::Shutdown) => {
                let (ack_tx, ack_rx) = mpsc::channel();
                if queue_tx.send(DispatchMsg::Drain(ack_tx)).is_ok() {
                    let _ = ack_rx.recv();
                }
                let _ = resp_tx.send(encode_shutdown());
                shutdown.store(true, Ordering::Relaxed);
                break;
            }
            Err(_) => break,
        }
    }
    drop(resp_tx);
    let _ = writer.join();
}

fn metrics_loop(listener: &TcpListener, registry: &Arc<Registry>, shutdown: &Arc<AtomicBool>) {
    listener
        .set_nonblocking(true)
        .expect("metrics listener nonblocking");
    while !shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = serve_http(stream, registry);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Answers one HTTP/1.x request: `/metrics` (Prometheus text) or
/// `/healthz` (`ok`). Connection: close.
fn serve_http(mut stream: TcpStream, registry: &Arc<Registry>) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 4096];
    let mut len = 0;
    // Read until the header terminator (we ignore everything after the
    // request line anyway).
    while len < buf.len() {
        let n = stream.read(&mut buf[len..])?;
        if n == 0 {
            break;
        }
        len += n;
        if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let request = String::from_utf8_lossy(&buf[..len]);
    let path = request.split_whitespace().nth(1).unwrap_or("");
    let (status, body) = match path {
        "/metrics" => ("200 OK", registry.report().prometheus_text()),
        "/healthz" => ("200 OK", "ok\n".to_string()),
        _ => ("404 Not Found", "not found\n".to_string()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}
