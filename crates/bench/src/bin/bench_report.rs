//! Wall-clock kernel report: times the hot kernels at three conv-shaped
//! sizes and writes `BENCH_kernels.json` (schema documented in
//! EXPERIMENTS.md).
//!
//! This is the kernel level of the repository's measurements; end-to-end
//! and per-layer timings come from the `ams_bench` benchmark. Each kernel
//! runs a handful of repeats and reports its median with the p10/p90
//! spread, suitable for CI artifacts and quick before/after
//! comparisons. The headline entry pits the tiled matmul against the
//! retained naive reference kernel on the conv-shaped
//! `256 × 1152 × 3136` product so speedups are tracked release to
//! release.
//!
//! Usage: `bench_report [--quick] [--out PATH] [--threads N]`

use std::time::Instant;

use ams_core::inject::GaussianInjector;
use ams_exp::usage_exit;
use ams_models::{HardwareConfig, InputKind, QConv2d, QLinear};
use ams_nn::functional::{conv2d_backward, conv2d_forward, ConvCache};
use ams_nn::{Layer, Mode};
use ams_quant::QuantConfig;
use ams_tensor::{
    im2col_in, matmul_i8_in, matmul_in, matmul_reference, quantize_symmetric_i8, rng, ConvGeom,
    Density, ExecCtx, KernelDispatch, Tensor,
};
use serde::Value;

const USAGE: &str = "[--quick] [--out PATH] [--threads N]";

/// Untimed iterations before each kernel's timed repeats (populates the
/// workspace pool, faults in pages). Recorded in the report so runs are
/// comparable: a changed warmup discipline shifts medians on its own.
const WARMUP_ITERATIONS: usize = 1;

/// First `model name` line of `/proc/cpuinfo`, so the report identifies
/// the machine it ran on (headline speedups drift across CPU models).
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Builds a JSON object from string keys (vendored `serde` value tree —
/// no `json!` macro in the facade).
fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn dims_value(dims: &[usize]) -> Value {
    Value::Seq(dims.iter().map(|&d| Value::U64(d as u64)).collect())
}

/// Newtype so a hand-built [`Value`] tree can go through
/// [`serde_json::to_string`] (the facade serializes `impl Serialize`,
/// and `Value` itself doesn't implement it).
struct Report(Value);

impl serde::Serialize for Report {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// One conv-shaped workload; the matmul shape is the lowered form
/// `(c_out) × (c_in·k²) × (n·oh·ow)`.
struct ConvShape {
    name: &'static str,
    n: usize,
    c_in: usize,
    c_out: usize,
    hw: usize,
    k: usize,
}

impl ConvShape {
    fn geom(&self) -> ConvGeom {
        ConvGeom::new(
            self.n,
            self.c_in,
            self.hw,
            self.hw,
            self.k,
            self.k,
            1,
            self.k / 2,
        )
    }

    fn matmul_dims(&self) -> (usize, usize, usize) {
        let g = self.geom();
        (self.c_out, g.rows(), g.cols())
    }
}

const SHAPES: [ConvShape; 3] = [
    ConvShape {
        name: "small",
        n: 1,
        c_in: 16,
        c_out: 32,
        hw: 16,
        k: 3,
    },
    ConvShape {
        name: "medium",
        n: 2,
        c_in: 64,
        c_out: 64,
        hw: 28,
        k: 3,
    },
    // Headline: 256 × 1152 × 3136 once lowered.
    ConvShape {
        name: "large",
        n: 4,
        c_in: 128,
        c_out: 256,
        hw: 28,
        k: 3,
    },
];

fn random(dims: &[usize], seed: u64) -> Tensor {
    let mut t = Tensor::zeros(dims);
    let mut r = rng::seeded(seed);
    rng::fill_uniform(&mut t, -1.0, 1.0, &mut r);
    t
}

/// Times `f` (which must leave the workspace in steady state) `reps`
/// times after [`WARMUP_ITERATIONS`] untimed warm-ups, returning
/// millisecond samples.
fn time_reps(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..WARMUP_ITERATIONS {
        f();
    }
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Linear-interpolated percentile of an unsorted sample set.
fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = p * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - pos.floor())
}

fn summary(kernel: &str, shape: &ConvShape, dims: &[usize], samples: &[f64]) -> Value {
    obj(vec![
        ("kernel", Value::Str(kernel.to_string())),
        ("shape", Value::Str(shape.name.to_string())),
        ("dims", dims_value(dims)),
        ("median_ms", Value::F64(percentile(samples, 0.5))),
        ("p10_ms", Value::F64(percentile(samples, 0.1))),
        ("p90_ms", Value::F64(percentile(samples, 0.9))),
    ])
}

fn parse(args: Vec<String>) -> Result<(bool, String, usize), String> {
    let mut quick = false;
    let mut out = String::from("BENCH_kernels.json");
    let mut threads = 0usize; // 0 = auto
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                quick = true;
                i += 1;
            }
            "--out" => {
                out = args.get(i + 1).ok_or("--out needs a value")?.clone();
                i += 2;
            }
            "--threads" => {
                threads = args
                    .get(i + 1)
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("--threads needs an integer: {e}"))?;
                i += 2;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((quick, out, threads))
}

fn main() {
    let (quick, out, threads) = parse(std::env::args().skip(1).collect())
        .unwrap_or_else(|message| usage_exit(&message, USAGE));
    let reps = if quick { 3 } else { 9 };
    let ctx = if threads == 0 {
        ExecCtx::auto()
    } else {
        ExecCtx::with_threads(threads)
    };
    let ws = ctx.workspace();
    let mut results: Vec<Value> = Vec::new();

    for shape in &SHAPES {
        let (m, kdim, ncols) = shape.matmul_dims();
        eprintln!(
            "[{}] matmul {m}x{kdim}x{ncols}, conv n={} c_in={} c_out={} {}x{} k={}",
            shape.name, shape.n, shape.c_in, shape.c_out, shape.hw, shape.hw, shape.k
        );

        // -- matmul: tiled (current) and naive reference (pre-PR kernel).
        let a = random(&[m, kdim], 1);
        let b = random(&[kdim, ncols], 2);
        let tiled = time_reps(reps, || {
            let y = matmul_in(&ctx, &a, &b);
            ws.recycle(y);
        });
        results.push(summary("matmul_tiled", shape, &[m, kdim, ncols], &tiled));
        let naive = time_reps(reps, || {
            let y = matmul_reference(&a, &b);
            drop(y);
        });
        results.push(summary("matmul_naive", shape, &[m, kdim, ncols], &naive));

        // -- integer fast path on the same operands, quantized once
        // outside the timed region (the layers quantize per forward, but
        // weight codes are cached there; this isolates the GEMM itself).
        let (acodes, ascale) = quantize_symmetric_i8(a.data());
        let (bcodes, bscale) = quantize_symmetric_i8(b.data());
        let i8s = time_reps(reps, || {
            let y = matmul_i8_in(
                &ctx,
                m,
                kdim,
                ncols,
                &acodes,
                &bcodes,
                ascale * bscale,
                false,
            );
            ws.recycle(y);
        });
        results.push(summary("matmul_i8", shape, &[m, kdim, ncols], &i8s));

        if shape.name == "large" {
            let (tm, nm) = (percentile(&tiled, 0.5), percentile(&naive, 0.5));
            results.push(obj(vec![
                ("kernel", Value::Str("headline_speedup".to_string())),
                ("shape", Value::Str(shape.name.to_string())),
                ("dims", dims_value(&[m, kdim, ncols])),
                ("naive_median_ms", Value::F64(nm)),
                ("tiled_median_ms", Value::F64(tm)),
                ("speedup", Value::F64(nm / tm)),
            ]));
            eprintln!(
                "  headline: naive {nm:.2} ms, tiled {tm:.2} ms, speedup {:.2}x",
                nm / tm
            );
            let im = percentile(&i8s, 0.5);
            results.push(obj(vec![
                ("kernel", Value::Str("i8_vs_tiled_speedup".to_string())),
                ("shape", Value::Str(shape.name.to_string())),
                ("dims", dims_value(&[m, kdim, ncols])),
                ("tiled_median_ms", Value::F64(tm)),
                ("i8_median_ms", Value::F64(im)),
                ("speedup", Value::F64(tm / im)),
            ]));
            eprintln!(
                "  headline: tiled {tm:.2} ms, i8 {im:.2} ms, speedup {:.2}x",
                tm / im
            );
        }

        // -- im2col lowering.
        let x = random(&[shape.n, shape.c_in, shape.hw, shape.hw], 3);
        let geom = shape.geom();
        let lower = time_reps(reps, || {
            let cols = im2col_in(&ctx, &x, &geom);
            ws.recycle(cols);
        });
        results.push(summary(
            "im2col",
            shape,
            &[shape.n, shape.c_in, shape.hw, shape.hw],
            &lower,
        ));

        // -- full eval conv forward (weights packed once, each image
        // lowered straight into the GEMM panel and its NCHW output).
        let wmat = random(&[shape.c_out, geom.rows()], 4);
        let fwd = time_reps(reps, || {
            let y = conv2d_forward(&ctx, &x, &wmat, Density::Sample, &geom);
            ws.recycle(y);
        });
        results.push(summary(
            "conv2d_forward",
            shape,
            &[
                shape.n,
                shape.c_in,
                shape.c_out,
                shape.hw,
                shape.hw,
                shape.k,
            ],
            &fwd,
        ));

        // -- training conv: the forward, its backward cache (pooled copies
        // of the input and weights), then the backward (input and weight
        // gradients).
        let dy = random(&[shape.n, shape.c_out, geom.oh, geom.ow], 8);
        let train = time_reps(reps, || {
            let y = conv2d_forward(&ctx, &x, &wmat, Density::Sample, &geom);
            let cache = ConvCache {
                input: ws.clone_tensor(&x),
                geom,
                weight_mat: ws.clone_tensor(&wmat),
            };
            let (dx, dw) = conv2d_backward(&ctx, &cache, &dy);
            for t in [y, dx, dw, cache.input, cache.weight_mat] {
                ws.recycle(t);
            }
        });
        results.push(summary(
            "conv2d_train",
            shape,
            &[
                shape.n,
                shape.c_in,
                shape.c_out,
                shape.hw,
                shape.hw,
                shape.k,
            ],
            &train,
        ));

        // -- lumped Gaussian injection (paper Eq. 2) over the conv output,
        // the per-layer noise every analog forward adds; the row also
        // reports the cost per injected sample.
        let out_dims = [shape.n, shape.c_out, geom.oh, geom.ow];
        let mut acts = Tensor::zeros(&out_dims);
        let samples = acts.len() as f64;
        let mut injector = GaussianInjector::new(9);
        let inject = time_reps(reps, || injector.inject_sigma(&mut acts, 0.05));
        let ns: Vec<f64> = inject.iter().map(|ms| ms * 1e6 / samples).collect();
        let mut row = summary("gaussian_inject", shape, &out_dims, &inject);
        if let Value::Map(fields) = &mut row {
            for (key, p) in [
                ("ns_per_sample_p10", 0.1),
                ("ns_per_sample_p50", 0.5),
                ("ns_per_sample_p90", 0.9),
            ] {
                fields.push((key.to_string(), Value::F64(percentile(&ns, p))));
            }
        }
        results.push(row);

        // -- quantized conv eval forward (quantize + conv, steady state).
        let mut r = rng::seeded(5);
        let hw_cfg = HardwareConfig::quantized(QuantConfig::w8a8());
        let mut qc = QConv2d::new(
            "bench",
            shape.c_in,
            shape.c_out,
            shape.k,
            1,
            shape.k / 2,
            &hw_cfg,
            InputKind::Unit,
            0,
            &mut r,
        );
        let x01 = random(&[shape.n, shape.c_in, shape.hw, shape.hw], 6).map(|v| v.abs());
        let qfwd = time_reps(reps, || {
            let y = qc.forward(&ctx, &x01, Mode::Eval);
            ws.recycle(y);
        });
        let conv_dims = [
            shape.n,
            shape.c_in,
            shape.c_out,
            shape.hw,
            shape.hw,
            shape.k,
        ];
        results.push(summary("qconv_eval", shape, &conv_dims, &qfwd));

        // -- the same eval forward through the i8 dispatch, so the
        // kernel-switch win is tracked on the layer path end-to-end, not
        // just on the raw GEMM above.
        let ctx_i8 = ctx.clone().with_kernel(KernelDispatch::I8);
        let qfwd_i8 = time_reps(reps, || {
            let y = qc.forward(&ctx_i8, &x01, Mode::Eval);
            ws.recycle(y);
        });
        results.push(summary("qconv_eval_i8", shape, &conv_dims, &qfwd_i8));

        // -- quantized linear eval at a serving-shaped workload: a
        // coalesced batch of 64 rows against a classifier whose input
        // width matches the lowered conv's K dimension.
        let lin_rows = 64;
        let lin_in = shape.c_in * shape.k * shape.k;
        let mut ql = QLinear::new("bench_fc", lin_in, shape.c_out, &hw_cfg, false, 1, &mut r);
        let lx = random(&[lin_rows, lin_in], 7).map(|v| v.abs());
        let lin_dims = [lin_rows, lin_in, shape.c_out];
        let lfwd = time_reps(reps, || {
            let y = ql.forward(&ctx, &lx, Mode::Eval);
            ws.recycle(y);
        });
        results.push(summary("qlinear_eval", shape, &lin_dims, &lfwd));
        let lfwd_i8 = time_reps(reps, || {
            let y = ql.forward(&ctx_i8, &lx, Mode::Eval);
            ws.recycle(y);
        });
        results.push(summary("qlinear_eval_i8", shape, &lin_dims, &lfwd_i8));
    }

    let report = obj(vec![
        ("schema", Value::Str("ams-bench/kernels/v2".to_string())),
        ("quick", Value::Bool(quick)),
        ("repeats", Value::U64(reps as u64)),
        ("warmup_iterations", Value::U64(WARMUP_ITERATIONS as u64)),
        ("threads", Value::U64(ctx.threads() as u64)),
        ("cpu_model", Value::Str(cpu_model())),
        ("results", Value::Seq(results)),
    ]);
    std::fs::write(
        &out,
        serde_json::to_string(&Report(report)).expect("serialize"),
    )
    .unwrap_or_else(|e| panic!("writing {out}: {e}"));
    eprintln!("wrote {out}");
}
