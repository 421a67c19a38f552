//! Load generator for `ams-serve`: measures req/s and latency percentiles
//! with coalescing forced off (`max_batch = 1`) vs adaptive batching, and
//! writes `BENCH_serve.json` (see EXPERIMENTS.md, "Serving").
//!
//! Both daemons run in-process (fresh listener on an ephemeral port per
//! mode), so one invocation produces a self-contained A/B comparison.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use ams_exp::usage_exit;
use ams_serve::protocol::ServeClient;
use ams_serve::{LoadedScenario, ScenarioConfig, ServeArgs, ServeConfig};
use serde::Serialize;

const USAGE: &str = "[--scale quick|full|test] [--results DIR] [--enob E] [--concurrency N] [--requests N] [--warmup N] [--workers N] [--worker-threads N] [--max-batch N] [--out PATH]";

struct Args {
    scenario: ScenarioConfig,
    concurrency: usize,
    /// Timed requests per client.
    requests: usize,
    /// Untimed warmup requests per client.
    warmup: usize,
    serve: ServeConfig,
    out: String,
}

fn parse(args: Vec<String>) -> Result<Args, String> {
    let (mut concurrency, mut requests, mut warmup) = (32, 24, 4);
    let mut out = "BENCH_serve.json".to_string();
    let ServeArgs { scenario, serve } = ServeArgs::parse(&args, |_, flag| {
        match flag.name {
            "--concurrency" => concurrency = flag.positive_integer()?,
            "--requests" => requests = flag.positive_integer()?,
            "--warmup" => {
                warmup = flag
                    .value()?
                    .parse()
                    .map_err(|e| format!("--warmup needs an integer: {e}"))?;
            }
            "--out" => out = flag.value()?.to_string(),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Args {
        scenario,
        concurrency,
        requests,
        warmup,
        serve,
        out,
    })
}

/// Latency summary over one timed mode.
#[derive(Debug, Serialize)]
struct LatencyMs {
    mean: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    max: f64,
}

#[derive(Debug, Serialize)]
struct ModeResult {
    mode: String,
    /// What this mode measures, in words.
    note: String,
    max_batch: usize,
    workers: usize,
    total_requests: usize,
    wall_s: f64,
    req_per_s: f64,
    latency_ms: LatencyMs,
    /// Batched forwards the daemon ran.
    batches: u64,
    /// Mean coalesced batch size (`total_requests / batches`).
    mean_batch: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    schema: String,
    scale: String,
    model: String,
    quant: String,
    error_model: String,
    kernel: String,
    enob: f64,
    concurrency: usize,
    requests_per_client: usize,
    warmup_per_client: usize,
    workers: usize,
    worker_threads: usize,
    modes: Vec<ModeResult>,
    /// Adaptive req/s over batch-1-forced req/s.
    speedup: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one mode: starts a fresh in-process daemon, drives it with
/// `concurrency` closed-loop clients, shuts it down, returns the numbers.
fn run_mode(
    name: &str,
    note: &str,
    scenario: &LoadedScenario,
    serve: ServeConfig,
    images: &[Vec<f32>],
    load: &Args,
) -> ModeResult {
    let (concurrency, requests, warmup) = (load.concurrency, load.requests, load.warmup);
    let handle = ams_serve::start(
        scenario.clone(),
        serve.clone(),
        "127.0.0.1:0",
        "127.0.0.1:0",
    )
    .expect("bind ephemeral ports");
    let addr = handle.addr;
    // Everyone (clients + the timing thread) leaves warmup together.
    let barrier = Arc::new(Barrier::new(concurrency + 1));
    let mut clients = Vec::new();
    for c in 0..concurrency {
        let barrier = Arc::clone(&barrier);
        let images: Vec<Vec<f32>> = images.to_vec();
        clients.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr).expect("connect");
            for r in 0..warmup {
                let img = &images[(c * warmup + r) % images.len()];
                client
                    .classify(r as u64, (c * 1000 + r) as u64, img)
                    .expect("warmup classify");
            }
            barrier.wait();
            let mut latencies = Vec::with_capacity(requests);
            for r in 0..requests {
                let img = &images[(c * requests + r) % images.len()];
                let t0 = Instant::now();
                client
                    .classify(r as u64, (c * 1_000_000 + r) as u64, img)
                    .expect("classify");
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            latencies
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    let mut latencies: Vec<f64> = Vec::new();
    for c in clients {
        latencies.extend(c.join().expect("client thread"));
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let report = handle.report();
    let batch_hist = report
        .histogram("serve.batch.size")
        .expect("serve.batch.size recorded");
    let batches: u64 = batch_hist.counts.iter().sum();
    let dispatched = batch_hist.sum;

    ServeClient::connect(addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("graceful shutdown");
    handle.wait();

    latencies.sort_by(|a, b| a.total_cmp(b));
    let total = concurrency * requests;
    ModeResult {
        mode: name.to_string(),
        note: note.to_string(),
        max_batch: serve.max_batch,
        workers: serve.workers,
        total_requests: total,
        wall_s,
        req_per_s: total as f64 / wall_s,
        latency_ms: LatencyMs {
            mean: latencies.iter().sum::<f64>() / latencies.len().max(1) as f64,
            p50: percentile(&latencies, 0.50),
            p90: percentile(&latencies, 0.90),
            p99: percentile(&latencies, 0.99),
            max: latencies.last().copied().unwrap_or(0.0),
        },
        batches,
        // `dispatched` counts warmup + timed + the shutdown drain, so it
        // is the honest denominator for the mean coalesced size.
        mean_batch: if batches == 0 {
            0.0
        } else {
            dispatched / batches as f64
        },
    }
}

fn main() {
    let args = parse(std::env::args().skip(1).collect())
        .unwrap_or_else(|message| usage_exit(&message, USAGE));
    eprintln!(
        "[bench_serve] loading scenario (scale {}) ...",
        args.scenario.scale.name
    );
    let scenario = args.scenario.load();

    // Request images come from the scale's validation split.
    let data = args.scenario.scale.synth.generate();
    let per_image = scenario.input_len();
    let val = data.val.images().data();
    let images: Vec<Vec<f32>> = (0..data.val.len())
        .map(|i| val[i * per_image..(i + 1) * per_image].to_vec())
        .collect();

    // Baseline: the same pool with coalescing off, so the speedup is
    // what adaptive batching alone buys.
    let batch1 = ServeConfig {
        max_batch: 1,
        ..args.serve.clone()
    };
    eprintln!(
        "[bench_serve] mode batch1-forced: {} clients x {} requests ...",
        args.concurrency, args.requests
    );
    let r1 = run_mode(
        "batch1_forced",
        "coalescing off on the same pool: every request is its own forward",
        &scenario,
        batch1,
        &images,
        &args,
    );
    eprintln!(
        "[bench_serve]   {:.1} req/s, p50 {:.2} ms, mean batch {:.2}",
        r1.req_per_s, r1.latency_ms.p50, r1.mean_batch
    );
    eprintln!(
        "[bench_serve] mode adaptive (max_batch {}) ...",
        args.serve.max_batch
    );
    let r2 = run_mode(
        "adaptive",
        "the daemon as shipped: adaptive coalescing",
        &scenario,
        args.serve.clone(),
        &images,
        &args,
    );
    eprintln!(
        "[bench_serve]   {:.1} req/s, p50 {:.2} ms, mean batch {:.2}",
        r2.req_per_s, r2.latency_ms.p50, r2.mean_batch
    );

    let speedup = r2.req_per_s / r1.req_per_s;
    eprintln!("[bench_serve] adaptive speedup: {speedup:.2}x");
    let report = BenchReport {
        schema: "ams-bench/serve/v3".to_string(),
        scale: args.scenario.scale.name.clone(),
        model: args.scenario.model.key().to_string(),
        quant: args.scenario.quant.key().to_string(),
        error_model: scenario.hardware_info.error_model.clone(),
        kernel: match scenario.kernel {
            ams_tensor::KernelDispatch::F32 => "f32".to_string(),
            ams_tensor::KernelDispatch::I8 => "i8".to_string(),
        },
        enob: scenario.hardware_info.enob,
        concurrency: args.concurrency,
        requests_per_client: args.requests,
        warmup_per_client: args.warmup,
        workers: args.serve.workers,
        worker_threads: args.serve.threads_per_worker,
        modes: vec![r1, r2],
        speedup,
    };
    let text = serde_json::to_string(&report).expect("serialize report");
    std::fs::write(&args.out, text.as_bytes()).expect("write report");
    eprintln!("[bench_serve] wrote {}", args.out);
}
