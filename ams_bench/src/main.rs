//! `ams_bench`: the repository's benchmark of record (see `README.md`).
//!
//! ```text
//! ams_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--out FILE] [--trace-out FILE]
//! ams_bench --compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! A run sets up (trains) from scratch, measures one workload for the
//! time budget, checks its outputs, prints every metric as
//! `name workload value unit` and, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Without `--trace 1`
//! the metrics are the end-to-end ones; with it, the per-layer ones from
//! the traced run and its layer replay.

#![deny(unsafe_code)]

#[allow(unsafe_code)]
mod alloc;
mod compare;
mod fixture;
mod replay;
mod serve;
mod stats;
mod sweep;
mod trace;
mod train;

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use ams_tensor::KernelDispatch;
use serde::Value;

use crate::fixture::{Fixture, TempDir};
use crate::stats::{best_window_percentile, best_window_throughput, median};
use crate::trace::Tracer;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "[--workload sweep_f32|sweep_i8|train_ams|serve_open] [--seed N] \
[--seconds S] [--trace 0|1] [--smoke] [--out FILE] [--trace-out FILE] | --compare PARENT CHANGE";

/// The seed at which outputs are also compared with pinned values.
pub const DEFAULT_SEED: u64 = 1;

/// Where set-up writes its per-run results directories, relative to the
/// working directory.
const TMP_DIR: &str = ".ams_bench_tmp";

/// The traced run's open-loop serve burst, in seconds.
const BURST_S: f64 = 1.0;

/// Equal-count windows a run's operations are split into; timing metrics
/// come from the least-disturbed window (see
/// [`stats::best_window_percentile`]).
const WINDOWS: usize = 20;

/// The benchmark's workloads (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SweepF32,
    SweepI8,
    TrainAms,
    ServeOpen,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SweepF32,
        Workload::SweepI8,
        Workload::TrainAms,
        Workload::ServeOpen,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SweepF32 => "sweep_f32",
            Workload::SweepI8 => "sweep_i8",
            Workload::TrainAms => "train_ams",
            Workload::ServeOpen => "serve_open",
        }
    }

    fn kernel(self) -> KernelDispatch {
        match self {
            Workload::SweepI8 => KernelDispatch::I8,
            _ => KernelDispatch::F32,
        }
    }
}

/// What a workload's measured phase did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Per-operation latencies in milliseconds, in completion order.
    pub op_ms: Vec<f64>,
    /// When each unit of work completed (seconds since the phase start)
    /// and the items (images or requests) it completed, in order.
    pub progress: Vec<(f64, usize)>,
    /// Operations attempted.
    pub ops_attempted: usize,
    /// Operations that failed.
    pub ops_failed: usize,
    /// Heap allocations during the measured phase.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
    /// Items the allocation counts are divided by.
    pub alloc_items: usize,
    /// Peak live heap during the measured phase, bytes.
    pub peak_heap_bytes: usize,
}

/// Marks a measured phase: its wall time, allocations and peak heap.
pub struct Phase {
    start: Instant,
    allocs: alloc::Totals,
}

impl Phase {
    /// Starts the phase (and restarts peak-heap tracking).
    pub fn start() -> Self {
        alloc::reset_peak();
        Phase {
            start: Instant::now(),
            allocs: alloc::totals(),
        }
    }

    /// Seconds since the phase started.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Records the phase into `out`, with allocations per `items`.
    pub fn finish(self, out: &mut Outcome, items: usize) {
        let now = alloc::totals();
        out.allocs = now.count - self.allocs.count;
        out.alloc_bytes = now.bytes - self.allocs.bytes;
        out.alloc_items = items;
        out.peak_heap_bytes = alloc::peak_bytes();
    }
}

/// Output checks: each counts as one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: usize,
    failed: usize,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[ams_bench] check failed: {what}");
        }
    }

    /// Records an equality check, naming both sides if it fails.
    pub fn check_eq(&mut self, what: &str, got: &str, want: &str) {
        self.check(&format!("{what}: got {got}, want {want}"), got == want);
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

enum Command {
    Run(Args),
    Compare(String, String),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut run = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |k: usize| {
            args.get(i + k)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--compare" => return Ok(Command::Compare(value(1)?, value(2)?)),
            "--smoke" => {
                run.smoke = true;
                i += 1;
                continue;
            }
            "--workload" => {
                let name = value(1)?;
                let w = Workload::ALL
                    .into_iter()
                    .find(|w| w.name() == name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                run.workloads = vec![w];
            }
            "--seed" => {
                run.seed = value(1)?
                    .parse()
                    .map_err(|e| format!("--seed needs an integer: {e}"))?;
            }
            "--seconds" => {
                run.seconds = value(1)?
                    .parse()
                    .map_err(|e| format!("--seconds needs a number: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                run.trace = match value(1)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--out" => run.out = Some(value(1)?),
            "--trace-out" => run.trace_out = Some(value(1)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok(Command::Run(run))
}

/// One named measurement.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn best_window(op_ms: &[f64], p: f64) -> f64 {
    best_window_percentile(op_ms, p, WINDOWS).unwrap_or(f64::NAN)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(fx: &Fixture, out: &Outcome) -> Vec<Metric> {
    vec![
        metric("setup_s", fx.setup_s, "s"),
        metric(
            "items_per_s",
            best_window_throughput(&out.progress, WINDOWS).unwrap_or(f64::NAN),
            "items/s",
        ),
        metric("op_ms_p50", best_window(&out.op_ms, 0.5), "ms"),
        metric("op_ms_p90", best_window(&out.op_ms, 0.9), "ms"),
        metric(
            "peak_heap_mib",
            out.peak_heap_bytes as f64 / (1u64 << 20) as f64,
            "MiB",
        ),
    ]
}

/// The per-layer metrics of a traced run: aggregates over its spans, the
/// replay's counts, and the serve burst's breakdown.
fn per_layer(
    tr: &Tracer,
    layers: &[String],
    ws_fresh: f64,
    burst: &serve::Breakdown,
    out: &Outcome,
) -> Vec<Metric> {
    let med = |v: Vec<f64>| median(&v).unwrap_or(f64::NAN);
    let iter = |child: &str| tr.child_sums_ms("replay.iter", child);
    let mut m = vec![
        metric(
            "exp.setup.synth_s",
            med(tr.durations_ms("exp.setup.synth")) / 1e3,
            "s",
        ),
        metric(
            "exp.setup.fp32_train_s",
            med(tr.durations_ms("exp.setup.fp32_train")) / 1e3,
            "s",
        ),
        metric(
            "exp.setup.quant_train_s",
            med(tr.durations_ms("exp.setup.quant_train")) / 1e3,
            "s",
        ),
        metric(
            "models.freeze_ms",
            med(tr.durations_ms("models.freeze")),
            "ms",
        ),
    ];
    let mut digital = iter("models.model_fwd");
    for l in layers {
        let fwd = iter(&format!("models.{l}.fwd"));
        for (d, f) in digital.iter_mut().zip(&fwd) {
            *d -= f;
        }
        m.push(metric(format!("models.{l}.fwd_ms"), med(fwd), "ms"));
        m.push(metric(
            format!("models.{l}.bwd_ms"),
            med(iter(&format!("models.{l}.bwd"))),
            "ms",
        ));
    }
    m.push(metric(
        "models.model_fwd_ms",
        med(iter("models.model_fwd")),
        "ms",
    ));
    m.push(metric("models.digital_ms", med(digital), "ms"));
    for (name, span) in [
        ("quant.act_ms", "quant.act"),
        ("quant.weight_ms", "quant.weight"),
        ("quant.weight_i8_ms", "quant.weight_i8"),
        ("tensor.im2col_ms", "tensor.im2col"),
        ("tensor.gemm_f32_ms", "tensor.gemm_f32"),
        ("tensor.i8_code_ms", "tensor.i8_code"),
        ("tensor.i8_pack_ms", "tensor.i8_pack"),
        ("tensor.gemm_i8_ms", "tensor.gemm_i8"),
        ("core.inject_ms", "core.inject"),
        ("core.inject_slice_ms", "core.inject_slice"),
        ("nn.loss_ms", "nn.loss"),
        ("nn.sgd_step_ms", "nn.sgd_step"),
        ("serve.forward_b1_ms", "serve.forward_b1"),
        ("serve.forward_b8_ms", "serve.forward_b8"),
    ] {
        m.push(metric(name, med(iter(span)), "ms"));
    }
    let per_item = out.alloc_items.max(1) as f64;
    m.extend([
        metric("tensor.ws_fresh_per_fwd", ws_fresh, "count"),
        metric("serve.batch_size_mean", burst.batch_size_mean, "count"),
        metric("serve.batches_per_s", burst.batches_per_s, "1/s"),
        metric("serve.batch_fwd_ms_mean", burst.batch_fwd_ms_mean, "ms"),
        metric("serve.queue_ms_mean", burst.queue_ms_mean, "ms"),
        metric("serve.wire_ms_mean", burst.wire_ms_mean, "ms"),
        metric("serve.gen_late_ms_max", burst.gen_late_ms_max, "ms"),
        metric(
            "alloc.count_per_item",
            out.allocs as f64 / per_item,
            "count",
        ),
        metric(
            "alloc.bytes_per_item",
            out.alloc_bytes as f64 / per_item,
            "B",
        ),
        metric("trace.op_ms_p50", best_window(&out.op_ms, 0.5), "ms"),
    ]);
    m
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
fn result_value(attempted: usize, failed: usize, metrics: &[Metric]) -> Vec<(&'static str, Value)> {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                obj(vec![
                    ("value", Value::F64(m.value)),
                    ("unit", Value::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    vec![
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::U64(attempted as u64)),
        ("failed", Value::U64(failed as u64)),
        ("metrics", Value::Map(metrics)),
    ]
}

fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.sync_all()
}

/// Sets up, measures and checks one workload; prints its metrics and
/// result line. Returns whether every operation and check passed.
fn run_workload(w: Workload, args: &Args) -> Result<bool, String> {
    let tmp_root = std::env::current_dir()
        .map_err(|e| format!("current directory: {e}"))?
        .join(TMP_DIR);
    let tmp = TempDir::new(tmp_root.join(format!("{}-{}", std::process::id(), w.name())))
        .map_err(|e| format!("creating the set-up directory: {e}"))?;
    let mut tr = Tracer::new(args.trace);
    let mut checks = Checks::default();
    eprintln!("[ams_bench] {}: setting up", w.name());
    let fx = Fixture::build(
        fixture::bench_scale(args.smoke, args.seed),
        tmp.path(),
        &mut tr,
    )
    .map_err(|e| format!("set-up: {e}"))?;
    checks.check(
        "set-up repetitions produce bit-identical checkpoints",
        fx.deterministic,
    );
    eprintln!("[ams_bench] {}: measuring for {} s", w.name(), args.seconds);
    let (seconds, seed, smoke) = (args.seconds, args.seed, args.smoke);
    let out = match w {
        Workload::SweepF32 | Workload::SweepI8 => {
            sweep::run(&fx, w.kernel(), seconds, seed, smoke, &mut tr, &mut checks)
        }
        Workload::TrainAms => train::run(&fx, seconds, seed, smoke, &mut tr, &mut checks),
        Workload::ServeOpen => {
            serve::run(&fx, seconds, seed, &mut checks).map_err(|e| format!("serve_open: {e}"))?
        }
    };
    let metrics = if args.trace {
        eprintln!("[ams_bench] {}: replaying layers", w.name());
        let (layers, ws_fresh) = replay::run(&fx, w.kernel(), seed, &mut tr);
        let burst = serve::breakdown(&fx, seed, BURST_S, &mut checks)
            .map_err(|e| format!("serve burst: {e}"))?;
        per_layer(&tr, &layers, ws_fresh, &burst, &out)
    } else {
        end_to_end(&fx, &out)
    };
    for m in &metrics {
        checks.check(&format!("{} is finite", m.name), m.value.is_finite());
    }
    drop(tmp);
    let _ = std::fs::remove_dir(&tmp_root);

    let attempted = out.ops_attempted + checks.attempted;
    let failed = out.ops_failed + checks.failed;
    for m in &metrics {
        println!("{} {} {} {}", m.name, w.name(), m.value, m.unit);
    }
    let result = result_value(attempted, failed, &metrics);
    if let Some(path) = &args.out {
        let mut record = vec![
            ("workload", Value::Str(w.name().to_string())),
            ("seed", Value::U64(args.seed)),
            ("trace", Value::Bool(args.trace)),
        ];
        record.extend(result.clone());
        let line = serde_json::to_string(&obj(record)).map_err(|e| e.to_string())?;
        append_line(path, &line).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = &args.trace_out {
        let record = obj(vec![
            ("workload", Value::Str(w.name().to_string())),
            ("spans", tr.to_value()),
        ]);
        let line = serde_json::to_string(&record).map_err(|e| e.to_string())?;
        append_line(path, &line).map_err(|e| format!("writing {path}: {e}"))?;
    }
    let line = serde_json::to_string(&obj(result)).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&argv) {
        Ok(c) => c,
        Err(message) => {
            eprintln!("error: {message}\nusage: ams_bench {USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        Command::Compare(parent, change) => compare::run(&parent, &change, "BENCHMARK.json"),
        Command::Run(args) => args
            .workloads
            .iter()
            .try_fold(true, |ok, &w| Ok(run_workload(w, &args)? && ok)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
