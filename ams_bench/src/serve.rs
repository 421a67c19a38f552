//! `serve_open`: the `ams-serve` daemon as shipped, driven in-process over
//! localhost by an open loop.
//!
//! Requests arrive as a Poisson process at [`RATE`] req/s drawn from the
//! seed, on one pipelined connection with a sender and a receiver thread.
//! Latency is timed from each request's scheduled send time, so a stall
//! also counts against the requests queued behind it. Goodput counts the
//! replies within [`LATENCY_LIMIT_MS`]; a late or missing reply misses.
//!
//! Every request carries its own noise seed, and one reply in
//! [`CHECK_EVERY`] is compared bit for bit with an offline
//! `reseed_noise(seed)` + batch-1 evaluation of the same image.

use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ams_core::error_model::DRIFT_T0;
use ams_models::AmsModel;
use ams_nn::Mode;
use ams_serve::protocol::{
    decode_response, encode_classify, read_frame, write_frame, ClassifyRequest, HardwareInfo,
    ServeClient,
};
use ams_serve::{LoadedScenario, ServeConfig, ServerHandle};
use ams_tensor::obs::MetricsReport;
use ams_tensor::{noise_stream_seed, rng, ExecCtx, KernelDispatch, Tensor};
use rand::Rng;

use crate::fixture::{Fixture, AMS_ENOB, N_MULT};
use crate::{Checks, Outcome, Phase};

/// Offered rate in requests per second: about a sixth of the daemon's
/// saturated throughput at quick scale on the reference machine, so
/// coalescing still happens but the queue stays short. At 1200 req/s the
/// run-to-run spread of p90 latency there was 21 % of its median, at
/// 600 req/s 9 % (8 runs each, interleaved).
pub const RATE: f64 = 600.0;

/// A reply later than this after its scheduled send misses the goodput.
pub const LATENCY_LIMIT_MS: f64 = 25.0;

/// One reply in this many is checked against offline evaluation.
pub const CHECK_EVERY: usize = 64;

/// How long the connection may go without a reply before the run fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// How long shutdown may take before it counts as a failure.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(10);

/// What one open-loop connection saw.
struct Load {
    /// Scheduled send offsets, seconds since the start.
    due: Vec<f64>,
    /// Reply time (seconds since the start) per request; `None` if missing.
    replied: Vec<Option<f64>>,
    /// Replies with an unknown or repeated `seq`.
    unexpected: usize,
    /// Logits of the checked requests, by request index.
    checked: Vec<(usize, Vec<f32>)>,
    /// Largest lag of the sender behind its schedule, ms.
    late_ms_max: f64,
    /// Whether either thread hit an I/O or protocol error.
    io_error: bool,
}

impl Load {
    /// Latency in ms of every answered request, in request order.
    fn latencies_ms(&self) -> Vec<f64> {
        self.replied
            .iter()
            .zip(&self.due)
            .filter_map(|(r, due)| r.map(|t| (t - due) * 1e3))
            .collect()
    }

    fn missing(&self) -> usize {
        self.replied.iter().filter(|r| r.is_none()).count()
    }
}

/// The seeded request stream: request `i`'s image and noise seed.
struct Requests<'a> {
    fx: &'a Fixture,
    seed: u64,
}

impl Requests<'_> {
    fn noise_seed(&self, i: usize) -> u64 {
        noise_stream_seed(self.seed, i as u64)
    }

    fn pixels(&self, i: usize) -> &[f32] {
        let val = &self.fx.data.val;
        let per = val.images().len() / val.len();
        let k = noise_stream_seed(self.seed ^ 0x1A6E, i as u64) as usize % val.len();
        &val.images().data()[k * per..(k + 1) * per]
    }

    fn payload(&self, i: usize) -> Vec<u8> {
        encode_classify(&ClassifyRequest {
            seq: i as u64,
            seed: self.noise_seed(i),
            t_infer: None,
            pixels: self.pixels(i).to_vec(),
        })
    }
}

/// Poisson arrival offsets (seconds) at `rate` over `span`.
fn poisson_schedule(seed: u64, rate: f64, span: f64) -> Vec<f64> {
    let mut r = rng::seeded(seed);
    let mut t = 0.0;
    let mut times = Vec::new();
    loop {
        t += -(1.0 - r.gen::<f64>()).ln() / rate;
        if t >= span {
            return times;
        }
        times.push(t);
    }
}

/// Drives one pipelined connection on `due`: a sender thread writes
/// request `i` at `due[i]`, then closes its half; a receiver thread reads
/// until the daemon closes the connection, which it does once every
/// reply is written.
fn drive(addr: SocketAddr, reqs: &Requests<'_>, due: Vec<f64>) -> io::Result<Load> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    let read_half = stream.try_clone()?;
    let start = Instant::now();
    let (late_ms_max, send_ok, replies, checked, recv_ok) = thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut late_ms_max = 0.0f64;
            let mut w = BufWriter::new(&stream);
            let mut ok = true;
            for (i, &t) in due.iter().enumerate() {
                let at = start + Duration::from_secs_f64(t);
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                late_ms_max = late_ms_max.max(at.elapsed().as_secs_f64() * 1e3);
                if write_frame(&mut w, &reqs.payload(i)).is_err() {
                    ok = false;
                    break;
                }
            }
            drop(w);
            ok &= stream.shutdown(Shutdown::Write).is_ok();
            (late_ms_max, ok)
        });
        let receiver = s.spawn(move || {
            let mut replies: Vec<(usize, f64)> = Vec::new();
            let mut checked = Vec::new();
            let mut reader = BufReader::new(read_half);
            let ok = loop {
                match read_frame(&mut reader) {
                    Ok(Some(payload)) => {
                        let t = start.elapsed().as_secs_f64();
                        let Ok(Some(reply)) = decode_response(&payload) else {
                            break false;
                        };
                        let i = reply.seq as usize;
                        if i.is_multiple_of(CHECK_EVERY) {
                            checked.push((i, reply.logits));
                        }
                        replies.push((i, t));
                    }
                    Ok(None) => break true,
                    Err(_) => break false,
                }
            };
            (replies, checked, ok)
        });
        let (late_ms_max, send_ok) = sender.join().expect("sender thread panicked");
        let (replies, checked, recv_ok) = receiver.join().expect("receiver thread panicked");
        (late_ms_max, send_ok, replies, checked, recv_ok)
    });
    let mut replied = vec![None; due.len()];
    let mut unexpected = 0;
    for (i, t) in replies {
        match replied.get_mut(i) {
            Some(slot @ None) => *slot = Some(t),
            _ => unexpected += 1,
        }
    }
    Ok(Load {
        due,
        replied,
        unexpected,
        checked,
        late_ms_max,
        io_error: !(send_ok && recv_ok),
    })
}

/// The fixture as a serving scenario: the w8a8 checkpoint under AMS
/// hardware with its frozen weights, f32 kernels.
fn scenario(fx: &Fixture) -> LoadedScenario {
    let synth = &fx.scale.synth;
    LoadedScenario {
        spec: fx.spec.clone(),
        hw: fx.ams_hw,
        checkpoint: fx.quant.clone(),
        shared: Arc::clone(&fx.frozen),
        kernel: KernelDispatch::F32,
        at_time: DRIFT_T0,
        input_dims: [synth.channels, synth.image_size, synth.image_size],
        classes: synth.classes,
        hardware_info: HardwareInfo {
            error_model: fx.ams_hw.error_model.kind().to_string(),
            enob: AMS_ENOB,
            n_mult: N_MULT as u64,
        },
    }
}

fn start(fx: &Fixture) -> io::Result<ServerHandle> {
    ams_serve::start(
        scenario(fx),
        ServeConfig::default(),
        "127.0.0.1:0",
        "127.0.0.1:0",
    )
}

/// Sends the shutdown frame and waits for the daemon to stop, for at
/// most [`SHUTDOWN_TIMEOUT`]. Returns whether it stopped cleanly.
fn stop(handle: ServerHandle) -> bool {
    let addr = handle.addr;
    let (done_tx, done_rx) = mpsc::channel();
    let waiter = thread::spawn(move || {
        let acked = ServeClient::connect(addr)
            .and_then(|c| c.shutdown())
            .is_ok();
        handle.wait();
        let _ = done_tx.send(acked);
    });
    match done_rx.recv_timeout(SHUTDOWN_TIMEOUT) {
        Ok(acked) => waiter.join().is_ok() && acked,
        // The waiter is blocked inside the daemon; it is left detached and
        // ends with the process.
        Err(_) => false,
    }
}

/// Checks a run's replies: each request answered exactly once, and every
/// checked reply bit-identical to offline batch-1 evaluation.
fn check_load(fx: &Fixture, reqs: &Requests<'_>, load: &Load, checks: &mut Checks) {
    checks.check("connection ran without I/O errors", !load.io_error);
    let missing = load.missing();
    checks.check(
        &format!(
            "every request answered exactly once ({missing} missing, {} unexpected)",
            load.unexpected
        ),
        missing == 0 && load.unexpected == 0,
    );
    let scenario = scenario(fx);
    let ctx = ExecCtx::serial();
    let mut net: Box<dyn AmsModel> = scenario.build_unfrozen_replica();
    let [c, h, w] = scenario.input_dims;
    let mut mismatched = 0;
    for (i, logits) in &load.checked {
        net.reseed_noise(reqs.noise_seed(*i));
        let x = Tensor::from_vec(&[1, c, h, w], reqs.pixels(*i).to_vec())
            .expect("a validation image has the scenario's input dims");
        let y = net.forward(&ctx, &x, Mode::Eval);
        let same = y.data().len() == logits.len()
            && y.data()
                .iter()
                .zip(logits)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        mismatched += usize::from(!same);
    }
    checks.check(
        &format!(
            "{mismatched} of {} checked replies differ from offline batch-1 eval",
            load.checked.len()
        ),
        mismatched == 0 && !load.checked.is_empty(),
    );
}

/// Serves the open loop for `seconds`.
pub fn run(fx: &Fixture, seconds: f64, seed: u64, checks: &mut Checks) -> io::Result<Outcome> {
    let handle = start(fx)?;
    let reqs = Requests { fx, seed };
    let due = poisson_schedule(seed ^ 0x0A11, RATE, seconds);
    let phase = Phase::start();
    let load = drive(handle.addr, &reqs, due)?;
    let mut progress: Vec<(f64, usize)> = load
        .replied
        .iter()
        .zip(&load.due)
        .filter_map(|(r, due)| {
            r.filter(|t| (t - due) * 1e3 <= LATENCY_LIMIT_MS)
                .map(|t| (t, 1))
        })
        .collect();
    progress.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out = Outcome {
        op_ms: load.latencies_ms(),
        progress,
        ops_attempted: load.due.len(),
        ops_failed: load.missing(),
        ..Outcome::default()
    };
    phase.finish(&mut out, load.due.len());
    check_load(fx, &reqs, &load, checks);
    checks.check("daemon shut down within the time limit", stop(handle));
    Ok(out)
}

/// Where an open-loop burst's time went, from the daemon's report and the
/// client's timestamps.
#[derive(Debug, Clone, Copy)]
pub struct Breakdown {
    /// Mean coalesced batch size.
    pub batch_size_mean: f64,
    /// Batched forwards per second.
    pub batches_per_s: f64,
    /// Mean batched forward, ms.
    pub batch_fwd_ms_mean: f64,
    /// Mean daemon latency minus mean batch forward, ms.
    pub queue_ms_mean: f64,
    /// Mean client latency minus mean daemon latency, ms.
    pub wire_ms_mean: f64,
    /// Largest lag of the sender behind its schedule, ms.
    pub gen_late_ms_max: f64,
}

fn histogram_totals(r: &MetricsReport, name: &str) -> (f64, f64) {
    r.histogram(name)
        .map_or((0.0, 0.0), |h| (h.counts.iter().sum::<u64>() as f64, h.sum))
}

/// A `span`-second open-loop burst on a fresh daemon, for the traced
/// run's per-layer serve breakdown.
pub fn breakdown(fx: &Fixture, seed: u64, span: f64, checks: &mut Checks) -> io::Result<Breakdown> {
    let handle = start(fx)?;
    let reqs = Requests { fx, seed };
    let load = drive(
        handle.addr,
        &reqs,
        poisson_schedule(seed ^ 0x0A11, RATE, span),
    )?;
    let report = handle.report();
    check_load(fx, &reqs, &load, checks);
    checks.check("daemon shut down within the time limit", stop(handle));

    let (batches, batched) = histogram_totals(&report, "serve.batch.size");
    let (replies, latency_ms) = histogram_totals(&report, "serve.request.latency_ms");
    let forward_ms = report
        .timer("serve.batch.forward")
        .map_or(0.0, |t| t.total_nanos as f64 / 1e6);
    let client = load.latencies_ms();
    let client_mean = client.iter().sum::<f64>() / client.len().max(1) as f64;
    let daemon_mean = latency_ms / replies.max(1.0);
    let fwd_mean = forward_ms / batches.max(1.0);
    Ok(Breakdown {
        batch_size_mean: batched / batches.max(1.0),
        batches_per_s: batches / span,
        batch_fwd_ms_mean: fwd_mean,
        queue_ms_mean: daemon_mean - fwd_mean,
        wire_ms_mean: client_mean - daemon_mean,
        gen_late_ms_max: load.late_ms_max,
    })
}
