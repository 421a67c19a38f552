//! Shared CLI parsing for the experiment binaries, including the
//! `--metrics <path>` observability flag.

use std::path::{Path, PathBuf};

use ams_core::error_model::{ErrorModelConfig, ErrorModelKind, PartitionSpec, DRIFT_NU_DEFAULT};
use ams_core::vmac_sim::AdcBehavior;
use ams_models::ModelKind;
use ams_quant::QuantScheme;
use ams_tensor::obs::{MetricsReport, CSV_HEADERS};
use ams_tensor::{ExecCtx, KernelDispatch, MetricsSink};

use crate::report::{write_csv, Report};
use crate::runner::Experiments;
use crate::scale::Scale;

/// Parsed command-line options common to every experiment binary:
///
/// ```text
/// [--scale quick|full|test] [--results DIR] [--threads N] [--metrics PATH] [--resume]
/// [--model resnet-mini|lenet5] [--quant dorefa|bfp] [--bfp-block N] [--kernel f32|i8]
/// [--error-model lumped|composite|per-vmac|drifting-pcm|ideal] [--multiplier-sigma S]
/// [--adc ideal|quantizing|delta-sigma[:BITS]|ref-scaled:ALPHA] [--partition NW,NX,ENOB]
/// [--drift-nu NU] [--at-times T1,T2,...] [--compensate]
/// ```
///
/// `--model` picks the zoo member the suite builds (see DESIGN.md §12):
/// the default `resnet-mini` or the LeNet-style `lenet5`, both sized for
/// the active `--scale`'s dataset. `--quant` picks the weight/activation
/// quantizer: the default `dorefa` or the adaptive block-floating-point
/// `bfp` (`--bfp-block N` sets its block size, default 16, and is only
/// valid together with `--quant bfp`).
///
/// `--kernel` selects the eval-time matmul dispatch: the default `f32`
/// runs the tiled f32 kernels (bit-identical to every committed golden);
/// `i8` routes ≤8-bit eval layers through the packed integer GEMM (see
/// DESIGN.md §13). The integer path is statistically — not bitwise —
/// equivalent to f32, so `--kernel i8` runs write their artifacts under
/// `-i8`-suffixed scenario names and never overwrite f32 outputs.
///
/// `--error-model` selects how the VMAC error budget is realized (see
/// DESIGN.md §10): the default `lumped` Gaussian reproduces the paper's
/// Eq. 1/2 pipeline bit-for-bit; `composite` splits the budget into a
/// multiplier term (`--multiplier-sigma`, RMS per D-to-A multiplier,
/// default 0.01) plus the ADC; `per-vmac` simulates every chunked
/// conversion at evaluation (`--adc` picks the converter behavior,
/// `--partition NW,NX,ENOB` folds a §4 multiplication partition in);
/// `ideal` injects nothing. Every non-default `{model}-{quant}-{error}`
/// scenario writes its artifacts under scenario-suffixed names, so it
/// never overwrites the default pipeline's outputs.
///
/// `--resume` makes the run honor any sweep journal and train-state files
/// a previous (killed) run left in the results directory: completed sweep
/// points are replayed from the journal, a mid-training kill continues
/// bit-identically from its last epoch checkpoint, and quarantined points
/// stay skipped (see EXPERIMENTS.md, "Checkpointing & resume"). Without
/// the flag every sweep starts from a clean journal (trained-checkpoint
/// caching still applies).
///
/// Thread-count resolution: `--threads N` wins; otherwise the
/// `AMS_THREADS` environment variable; otherwise all available cores.
///
/// `--metrics PATH` attaches a recording [`MetricsSink`] to the execution
/// context, so the whole stack (kernel dispatches, layer timings, injected
/// noise statistics, sweep rollups) records into one registry; at the end
/// of `main` the binary calls [`Cli::write_metrics`] to snapshot it to
/// `PATH` — JSON by default, CSV when the path ends in `.csv`. Without the
/// flag the sink is disabled and recording costs nothing.
///
/// # Example
///
/// ```no_run
/// use ams_exp::{Cli, Experiments, Report};
///
/// let cli = Cli::from_args();
/// let exp = Experiments::new(cli.scale.clone(), &cli.results).with_ctx(cli.ctx());
/// let t1 = exp.table1();
/// t1.report(exp.results_dir(), &exp.scale().name);
/// cli.write_metrics();
/// ```
#[derive(Debug)]
pub struct Cli {
    /// The resolved scale preset.
    pub scale: Scale,
    /// The results directory (cache + CSV output).
    pub results: String,
    /// Where to write the metrics report, if `--metrics` was given.
    pub metrics_path: Option<PathBuf>,
    /// Whether `--resume` was given (honor sweep journals + train state).
    pub resume: bool,
    /// The error model selected by `--error-model` and its parameter
    /// flags (default: the lumped Gaussian).
    pub error_model: ErrorModelConfig,
    /// The model topology selected by `--model` (default: ResNet-mini).
    pub model: ModelKind,
    /// The quantizer scheme selected by `--quant` / `--bfp-block`
    /// (default: DoReFa).
    pub quant: QuantScheme,
    /// The matmul dispatch selected by `--kernel` (default: f32).
    pub kernel: KernelDispatch,
    /// `--at-times T1,T2,...`: the simulated inference times (seconds
    /// after programming) figD evaluates at, overriding the scale
    /// preset's drift grid. Each must be positive and finite. `None`
    /// keeps the preset grid (see DESIGN.md §15).
    pub at_times: Option<Vec<f64>>,
    /// `--compensate`: fit CorrectNet-style per-layer affine
    /// compensation post-quantization and apply it at evaluation (see
    /// DESIGN.md §15). Non-default scenario: artifacts gain a `-comp`
    /// suffix.
    pub compensate: bool,
    ctx: ExecCtx,
}

/// The one-line flag synopsis shared by every experiment binary's usage
/// error (see [`usage_exit`]).
pub const USAGE: &str = "[--scale quick|full|test] [--results DIR] [--threads N] [--metrics PATH] [--resume] [--model resnet-mini|lenet5] [--quant dorefa|bfp] [--bfp-block N] [--kernel f32|i8] [--error-model lumped|composite|per-vmac|drifting-pcm|ideal] [--multiplier-sigma S] [--adc ideal|quantizing|delta-sigma[:BITS]|ref-scaled:ALPHA] [--partition NW,NX,ENOB] [--drift-nu NU] [--at-times T1,T2,...] [--compensate]";

/// The process exit code for command-line usage errors (unknown flag,
/// missing value, unparsable value). Distinct from the generic panic
/// code 101, so scripts can tell "you invoked it wrong" from "it broke".
pub const USAGE_EXIT_CODE: i32 = 2;

/// Prints a usage error to stderr and exits with [`USAGE_EXIT_CODE`].
///
/// Shared by the nine experiment binaries (via [`Cli::from_args`]) and
/// `ams-serve`, which passes its own `usage` synopsis.
pub fn usage_exit(message: &str, usage: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: {usage}");
    std::process::exit(USAGE_EXIT_CODE)
}

impl Cli {
    /// Parses process arguments, defaulting to the `quick` scale, the
    /// `results` directory, all available cores, and no metrics.
    ///
    /// On an unknown flag, a flag missing its value, or an unparsable
    /// value, prints the error plus the flag synopsis to stderr and exits
    /// with code [`USAGE_EXIT_CODE`] (2).
    pub fn from_args() -> Self {
        Self::try_parse(std::env::args().skip(1).collect())
            .unwrap_or_else(|message| usage_exit(&message, USAGE))
    }

    /// Parses an argument vector (without the program name), returning a
    /// usage-error message instead of exiting.
    ///
    /// # Errors
    ///
    /// Returns the human-readable message [`Cli::from_args`] would print
    /// before exiting with code 2.
    pub fn try_parse(args: Vec<String>) -> Result<Self, String> {
        let mut scale = Scale::quick();
        let mut results = "results".to_string();
        let mut ctx = ExecCtx::from_env();
        let mut metrics_path: Option<PathBuf> = None;
        let mut resume = false;
        let mut kind = ErrorModelKind::Lumped;
        let mut multiplier_sigma: Option<f64> = None;
        let mut adc: Option<AdcBehavior> = None;
        let mut partition: Option<PartitionSpec> = None;
        let mut model = ModelKind::ResNetMini;
        let mut quant_name = "dorefa".to_string();
        let mut bfp_block: Option<usize> = None;
        let mut kernel = KernelDispatch::F32;
        let mut drift_nu: Option<f64> = None;
        let mut at_times: Option<Vec<f64>> = None;
        let mut compensate = false;
        // Returns `--flag`'s value argument, or the usage error for a
        // flag that ends the argument list.
        let value = |i: usize, flag: &str| -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    scale = Scale::by_name(value(i, "--scale")?)
                        .map_err(|n| format!("unknown scale {n:?}; use quick|full|test"))?;
                    i += 2;
                }
                "--results" => {
                    results = value(i, "--results")?.clone();
                    i += 2;
                }
                "--threads" => {
                    let n: usize = value(i, "--threads")?
                        .parse()
                        .map_err(|e| format!("--threads needs a positive integer: {e}"))?;
                    ctx = ExecCtx::with_threads(n);
                    i += 2;
                }
                "--metrics" => {
                    metrics_path = Some(PathBuf::from(value(i, "--metrics")?));
                    i += 2;
                }
                "--resume" => {
                    resume = true;
                    i += 1;
                }
                "--model" => {
                    model = value(i, "--model")?.parse()?;
                    i += 2;
                }
                "--quant" => {
                    quant_name = value(i, "--quant")?.clone();
                    i += 2;
                }
                "--bfp-block" => {
                    bfp_block = Some(
                        value(i, "--bfp-block")?
                            .parse()
                            .map_err(|e| format!("--bfp-block needs a positive integer: {e}"))?,
                    );
                    i += 2;
                }
                "--error-model" => {
                    kind = value(i, "--error-model")?.parse()?;
                    i += 2;
                }
                "--multiplier-sigma" => {
                    multiplier_sigma = Some(
                        value(i, "--multiplier-sigma")?
                            .parse()
                            .map_err(|e| format!("--multiplier-sigma needs a number: {e}"))?,
                    );
                    i += 2;
                }
                "--adc" => {
                    adc = Some(parse_adc(value(i, "--adc")?)?);
                    i += 2;
                }
                "--partition" => {
                    partition = Some(parse_partition(value(i, "--partition")?)?);
                    i += 2;
                }
                "--kernel" => {
                    kernel = KernelDispatch::by_name(value(i, "--kernel")?)?;
                    i += 2;
                }
                "--drift-nu" => {
                    let nu: f64 = value(i, "--drift-nu")?
                        .parse()
                        .map_err(|e| format!("--drift-nu needs a number: {e}"))?;
                    if !nu.is_finite() || nu < 0.0 {
                        return Err(format!(
                            "--drift-nu needs a non-negative finite number, got {nu}"
                        ));
                    }
                    drift_nu = Some(nu);
                    i += 2;
                }
                "--at-times" => {
                    at_times = Some(parse_at_times(value(i, "--at-times")?)?);
                    i += 2;
                }
                "--compensate" => {
                    compensate = true;
                    i += 1;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        // Applied after the loop: `--threads` rebuilds the context, so the
        // kernel selection must not depend on flag order.
        ctx = ctx.with_kernel(kernel);
        if metrics_path.is_some() {
            ctx = ctx.with_metrics(MetricsSink::recording());
        }
        Ok(Cli {
            scale,
            results,
            metrics_path,
            resume,
            error_model: assemble_error_model(kind, multiplier_sigma, adc, partition, drift_nu)?,
            model,
            quant: assemble_quant_scheme(&quant_name, bfp_block)?,
            kernel,
            at_times,
            compensate,
            ctx,
        })
    }

    /// A clone of the execution context. Clones share the metrics sink,
    /// so the context handed to [`crate::Experiments::with_ctx`] records
    /// into the same registry [`Cli::write_metrics`] later snapshots.
    pub fn ctx(&self) -> ExecCtx {
        self.ctx.clone()
    }

    /// The metrics sink (disabled unless `--metrics` was given).
    pub fn metrics(&self) -> &MetricsSink {
        self.ctx.metrics()
    }

    /// Snapshots the metrics registry to [`Cli::metrics_path`]. A no-op
    /// without `--metrics`. Failures are reported on stderr, not fatal —
    /// observability must never sink a finished experiment.
    pub fn write_metrics(&self) {
        let Some(path) = &self.metrics_path else {
            return;
        };
        let Some(registry) = self.ctx.metrics().registry() else {
            return;
        };
        let report = registry.report();
        match write_metrics_report(path, &report) {
            Ok(()) => println!("wrote metrics report to {}", path.display()),
            Err(e) => eprintln!("failed to write metrics to {}: {e}", path.display()),
        }
    }
}

/// Assembles the [`ErrorModelConfig`] from the parsed flags, rejecting
/// parameter flags that do not apply to the selected model.
fn assemble_error_model(
    kind: ErrorModelKind,
    multiplier_sigma: Option<f64>,
    adc: Option<AdcBehavior>,
    partition: Option<PartitionSpec>,
    drift_nu: Option<f64>,
) -> Result<ErrorModelConfig, String> {
    if drift_nu.is_some() && kind != ErrorModelKind::DriftingPcm {
        return Err("--drift-nu applies to --error-model drifting-pcm only".into());
    }
    match kind {
        ErrorModelKind::Composite => {
            if adc.is_some() || partition.is_some() {
                return Err("--adc/--partition apply to --error-model per-vmac only".into());
            }
            Ok(ErrorModelConfig::Composite {
                multiplier_sigma: multiplier_sigma.unwrap_or(0.01),
            })
        }
        ErrorModelKind::PerVmac => {
            if multiplier_sigma.is_some() {
                return Err("--multiplier-sigma applies to --error-model composite only".into());
            }
            Ok(ErrorModelConfig::PerVmac {
                behavior: adc.unwrap_or(AdcBehavior::Quantizing),
                partition,
            })
        }
        ErrorModelKind::DriftingPcm => {
            if multiplier_sigma.is_some() || adc.is_some() || partition.is_some() {
                return Err(
                    "--multiplier-sigma/--adc/--partition do not apply to --error-model drifting-pcm"
                        .into(),
                );
            }
            Ok(ErrorModelConfig::drifting_pcm(
                drift_nu.unwrap_or(DRIFT_NU_DEFAULT),
            ))
        }
        ErrorModelKind::Lumped | ErrorModelKind::Ideal => {
            if multiplier_sigma.is_some() || adc.is_some() || partition.is_some() {
                return Err(
                    "--multiplier-sigma/--adc/--partition require --error-model composite or per-vmac"
                        .into(),
                );
            }
            Ok(if kind == ErrorModelKind::Ideal {
                ErrorModelConfig::Ideal
            } else {
                ErrorModelConfig::Lumped
            })
        }
    }
}

/// Parses an `--at-times` value: a comma-separated list of positive,
/// finite inference times in seconds (e.g. `1,3600,86400`).
fn parse_at_times(value: &str) -> Result<Vec<f64>, String> {
    let times: Vec<f64> = value
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<f64>()
                .map_err(|e| format!("--at-times needs comma-separated numbers: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if times.is_empty() {
        return Err("--at-times needs at least one time".into());
    }
    for &t in &times {
        if !t.is_finite() || t <= 0.0 {
            return Err(format!(
                "--at-times needs positive finite times (seconds), got {t}"
            ));
        }
    }
    Ok(times)
}

/// Assembles the [`QuantScheme`] from `--quant` / `--bfp-block`,
/// rejecting `--bfp-block` when the DoReFa quantizer is selected.
fn assemble_quant_scheme(name: &str, bfp_block: Option<usize>) -> Result<QuantScheme, String> {
    match name {
        "dorefa" => {
            if bfp_block.is_some() {
                return Err("--bfp-block applies to --quant bfp only".into());
            }
            Ok(QuantScheme::Dorefa)
        }
        "bfp" => {
            let block = bfp_block.unwrap_or(16);
            if block < 1 {
                return Err("--bfp-block needs a positive block size".into());
            }
            Ok(QuantScheme::Bfp { block })
        }
        other => Err(format!("unknown quantizer {other:?}; use dorefa|bfp")),
    }
}

/// Parses an `--adc` value: `ideal`, `quantizing`, `delta-sigma[:BITS]`
/// (extra final-conversion bits, finite and ≥ 0, default 2), or
/// `ref-scaled:ALPHA` (ALPHA in (0, 1]) — the ranges the VMAC simulator
/// accepts, checked here so a bad value is a usage error before any
/// training.
fn parse_adc(value: &str) -> Result<AdcBehavior, String> {
    let (name, arg) = match value.split_once(':') {
        Some((n, a)) => (n, Some(a)),
        None => (value, None),
    };
    let number = |a: &str, what: &str, ok: fn(f64) -> bool| match a.parse::<f64>() {
        Ok(v) if ok(v) => Ok(v),
        Ok(v) => Err(format!("--adc {what} is out of range, got {v}")),
        Err(e) => Err(format!("--adc {what} needs a number: {e}")),
    };
    match (name, arg) {
        ("ideal", None) => Ok(AdcBehavior::Ideal),
        ("quantizing", None) => Ok(AdcBehavior::Quantizing),
        ("delta-sigma", arg) => Ok(AdcBehavior::DeltaSigma {
            final_extra_bits: match arg {
                Some(a) => number(a, "delta-sigma:BITS (finite, ≥ 0)", |v| {
                    v.is_finite() && v >= 0.0
                })?,
                None => 2.0,
            },
        }),
        ("ref-scaled", Some(a)) => Ok(AdcBehavior::RefScaled {
            alpha: number(a, "ref-scaled:ALPHA (in (0, 1])", |v| v > 0.0 && v <= 1.0)?,
        }),
        _ => Err(format!(
            "unknown --adc value {value:?}; expected ideal|quantizing|delta-sigma[:BITS]|ref-scaled:ALPHA"
        )),
    }
}

/// Parses a `--partition` value `NW,NX,SLICE_ENOB` into a [`PartitionSpec`].
fn parse_partition(value: &str) -> Result<PartitionSpec, String> {
    let parts: Vec<&str> = value.split(',').collect();
    let [nw, nx, slice_enob] = parts.as_slice() else {
        return Err(format!(
            "--partition needs NW,NX,SLICE_ENOB (e.g. 2,2,12.0), got {value:?}"
        ));
    };
    Ok(PartitionSpec {
        n_w: nw
            .parse()
            .map_err(|e| format!("--partition NW needs an integer: {e}"))?,
        n_x: nx
            .parse()
            .map_err(|e| format!("--partition NX needs an integer: {e}"))?,
        slice_enob: slice_enob
            .parse()
            .map_err(|e| format!("--partition SLICE_ENOB needs a number: {e}"))?,
    })
}

/// The shared scaffolding of every experiment binary: parse the CLI,
/// assemble the [`Experiments`] suite from it, run `build`, print/write
/// the result's report (under the model-suffixed scale name), print the
/// `epilogue` lines, and snapshot metrics.
///
/// ```no_run
/// use ams_exp::{run_bin, Experiments};
///
/// fn main() {
///     run_bin(Experiments::table1, &["Expected shape: 8b ~= FP32."]);
/// }
/// ```
pub fn run_bin<R: Report>(build: impl FnOnce(&Experiments) -> R, epilogue: &[&str]) {
    run_bin_custom(|exp, _cli| {
        let result = build(exp);
        result.report(exp.results_dir(), &exp.report_scale_name());
        if !epilogue.is_empty() {
            println!();
        }
        for line in epilogue {
            println!("{line}");
        }
    });
}

/// [`run_bin`] for binaries with bespoke output (e.g. the combined
/// `report` binary): handles CLI parsing, suite assembly and the final
/// metrics snapshot, leaving the body to `run`.
pub fn run_bin_custom(run: impl FnOnce(&Experiments, &Cli)) {
    let cli = Cli::from_args();
    let exp = Experiments::new(cli.scale.clone(), &cli.results)
        .with_ctx(cli.ctx())
        .with_resume(cli.resume)
        .with_error_model(cli.error_model)
        .with_model(cli.model)
        .with_quant(cli.quant)
        .with_at_times(cli.at_times.clone())
        .with_compensate(cli.compensate);
    run(&exp, &cli);
    cli.write_metrics();
}

/// Writes a metrics report to `path` — CSV (flat kind/name table) when the
/// extension is `.csv`, JSON otherwise. Parent directories are created.
///
/// # Errors
///
/// Returns any underlying serialization or I/O error.
pub fn write_metrics_report(path: &Path, report: &MetricsReport) -> std::io::Result<()> {
    if path.extension().is_some_and(|e| e == "csv") {
        return write_csv(path, &CSV_HEADERS, &report.csv_rows());
    }
    let text = serde_json::to_string(report)
        .map_err(|e| std::io::Error::other(format!("metrics serialization failed: {e:?}")))?;
    ams_obs::fsio::atomic_write(path, text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Parses or panics — the happy-path helper for tests that only care
    /// about the parsed configuration.
    fn parse(args: Vec<String>) -> Cli {
        Cli::try_parse(args).expect("arguments should parse")
    }

    #[test]
    fn defaults_without_flags() {
        let cli = parse(args(&[]));
        assert_eq!(cli.scale.name, "quick");
        assert_eq!(cli.results, "results");
        assert!(cli.metrics_path.is_none());
        assert!(!cli.metrics().enabled());
    }

    #[test]
    fn metrics_flag_attaches_recording_sink() {
        let cli = parse(args(&["--scale", "test", "--metrics", "/tmp/m.json"]));
        assert_eq!(cli.scale.name, "test");
        assert!(cli.metrics().enabled());
        // The handed-out context shares the registry.
        let ctx = cli.ctx();
        ctx.metrics().inc("probe");
        let report = cli.metrics().registry().unwrap().report();
        assert_eq!(report.counter("probe").unwrap().value, 1);
    }

    #[test]
    fn json_and_csv_reports_round_trip() {
        let sink = MetricsSink::recording();
        sink.inc("c");
        sink.observe("g", 1.5);
        sink.observe("g", 2.5);
        let report = sink.registry().unwrap().report();
        let dir = std::env::temp_dir().join("ams_exp_metrics_io_test");
        let _ = std::fs::remove_dir_all(&dir);

        let json_path = dir.join("m.json");
        write_metrics_report(&json_path, &report).unwrap();
        let text = std::fs::read_to_string(&json_path).unwrap();
        let parsed: MetricsReport = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed, report);

        let csv_path = dir.join("m.csv");
        write_metrics_report(&csv_path, &report).unwrap();
        let csv = std::fs::read_to_string(&csv_path).unwrap();
        assert!(csv.starts_with("kind,name,"));
        assert!(csv.lines().count() >= 3);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn resume_flag_parses() {
        assert!(parse(args(&["--resume"])).resume);
        assert!(!parse(args(&[])).resume);
    }

    #[test]
    fn error_model_flags_parse() {
        assert_eq!(parse(args(&[])).error_model, ErrorModelConfig::Lumped);
        assert_eq!(
            parse(args(&["--error-model", "ideal"])).error_model,
            ErrorModelConfig::Ideal
        );
        assert_eq!(
            parse(args(&[
                "--error-model",
                "composite",
                "--multiplier-sigma",
                "0.03"
            ]))
            .error_model,
            ErrorModelConfig::Composite {
                multiplier_sigma: 0.03
            }
        );
        assert_eq!(
            parse(args(&["--error-model", "per-vmac"])).error_model,
            ErrorModelConfig::per_vmac()
        );
        assert_eq!(
            parse(args(&[
                "--error-model",
                "per-vmac",
                "--adc",
                "delta-sigma:3",
                "--partition",
                "2,2,12.0",
            ]))
            .error_model,
            ErrorModelConfig::PerVmac {
                behavior: AdcBehavior::DeltaSigma {
                    final_extra_bits: 3.0
                },
                partition: Some(PartitionSpec {
                    n_w: 2,
                    n_x: 2,
                    slice_enob: 12.0
                }),
            }
        );
        assert_eq!(
            parse(args(&[
                "--error-model",
                "per-vmac",
                "--adc",
                "ref-scaled:0.5"
            ]))
            .error_model,
            ErrorModelConfig::PerVmac {
                behavior: AdcBehavior::RefScaled { alpha: 0.5 },
                partition: None,
            }
        );
    }

    #[test]
    fn drifting_pcm_flags_parse() {
        assert_eq!(
            parse(args(&["--error-model", "drifting-pcm"])).error_model,
            ErrorModelConfig::drifting_pcm(DRIFT_NU_DEFAULT)
        );
        assert_eq!(
            parse(args(&[
                "--error-model",
                "drifting-pcm",
                "--drift-nu",
                "0.1"
            ]))
            .error_model,
            ErrorModelConfig::drifting_pcm(0.1)
        );
        parse_err(
            &["--drift-nu", "0.1"],
            "--drift-nu applies to --error-model drifting-pcm only",
        );
        parse_err(
            &["--error-model", "lumped", "--drift-nu", "0.1"],
            "--drift-nu applies to --error-model drifting-pcm only",
        );
        parse_err(
            &["--error-model", "drifting-pcm", "--multiplier-sigma", "0.1"],
            "do not apply to --error-model drifting-pcm",
        );
        parse_err(
            &["--error-model", "drifting-pcm", "--adc", "ideal"],
            "do not apply to --error-model drifting-pcm",
        );
        parse_err(&["--drift-nu", "nope"], "--drift-nu needs a number");
        parse_err(
            &["--error-model", "drifting-pcm", "--drift-nu", "-0.1"],
            "--drift-nu needs a non-negative finite number",
        );
    }

    #[test]
    fn at_times_and_compensate_flags_parse() {
        let cli = parse(args(&[]));
        assert_eq!(cli.at_times, None);
        assert!(!cli.compensate);

        let cli = parse(args(&["--at-times", "1,3600,86400", "--compensate"]));
        assert_eq!(cli.at_times, Some(vec![1.0, 3600.0, 86400.0]));
        assert!(cli.compensate);

        parse_err(
            &["--at-times", "1,abc"],
            "--at-times needs comma-separated numbers",
        );
        parse_err(&["--at-times", "0"], "needs positive finite times");
        parse_err(&["--at-times", "1,-5"], "needs positive finite times");
        parse_err(&["--at-times", "inf"], "needs positive finite times");
    }

    #[test]
    fn model_and_quant_flags_parse() {
        let cli = parse(args(&[]));
        assert_eq!(cli.model, ModelKind::ResNetMini);
        assert_eq!(cli.quant, QuantScheme::Dorefa);

        let cli = parse(args(&["--model", "lenet5", "--quant", "bfp"]));
        assert_eq!(cli.model, ModelKind::LeNet5);
        assert_eq!(cli.quant, QuantScheme::Bfp { block: 16 });

        let cli = parse(args(&["--quant", "bfp", "--bfp-block", "8"]));
        assert_eq!(cli.quant, QuantScheme::Bfp { block: 8 });
        // Flag order must not matter.
        let cli = parse(args(&["--bfp-block", "8", "--quant", "bfp"]));
        assert_eq!(cli.quant, QuantScheme::Bfp { block: 8 });
    }

    #[test]
    fn kernel_flag_parses_and_reaches_the_context() {
        let cli = parse(args(&[]));
        assert_eq!(cli.kernel, KernelDispatch::F32);
        assert_eq!(cli.ctx().kernel(), KernelDispatch::F32);

        let cli = parse(args(&["--kernel", "i8"]));
        assert_eq!(cli.kernel, KernelDispatch::I8);
        assert_eq!(cli.ctx().kernel(), KernelDispatch::I8);

        // `--threads` rebuilds the context; the kernel must survive in
        // either flag order.
        let cli = parse(args(&["--kernel", "i8", "--threads", "2"]));
        assert_eq!(cli.ctx().kernel(), KernelDispatch::I8);
        let cli = parse(args(&["--threads", "2", "--kernel", "i8"]));
        assert_eq!(cli.ctx().kernel(), KernelDispatch::I8);
    }

    /// Asserts that parsing fails and the message contains `expect`.
    fn parse_err(list: &[&str], expect: &str) {
        let err = Cli::try_parse(args(list)).expect_err("arguments should be rejected");
        assert!(
            err.contains(expect),
            "error {err:?} should contain {expect:?}"
        );
    }

    #[test]
    fn rejects_unknown_kernel() {
        parse_err(&["--kernel", "f16"], "unknown kernel");
    }

    #[test]
    fn rejects_bfp_block_without_bfp() {
        parse_err(
            &["--bfp-block", "8"],
            "--bfp-block applies to --quant bfp only",
        );
    }

    #[test]
    fn rejects_unknown_quantizer() {
        parse_err(&["--quant", "int4"], "unknown quantizer");
    }

    #[test]
    fn rejects_unknown_model() {
        parse_err(&["--model", "vgg"], "unknown model");
    }

    #[test]
    fn rejects_unknown_error_model() {
        parse_err(&["--error-model", "bogus"], "unknown error model");
    }

    #[test]
    fn rejects_mismatched_model_params() {
        parse_err(
            &["--error-model", "per-vmac", "--multiplier-sigma", "0.1"],
            "--multiplier-sigma applies to --error-model composite only",
        );
    }

    #[test]
    fn rejects_unknown_flags() {
        parse_err(&["--bogus"], "unknown argument \"--bogus\"");
    }

    #[test]
    fn rejects_flags_missing_their_value() {
        // Every value-taking flag, dangling at the end of the arg list.
        for flag in [
            "--scale",
            "--results",
            "--threads",
            "--metrics",
            "--model",
            "--quant",
            "--bfp-block",
            "--error-model",
            "--multiplier-sigma",
            "--adc",
            "--partition",
            "--kernel",
            "--drift-nu",
            "--at-times",
        ] {
            parse_err(&[flag], &format!("{flag} needs a value"));
        }
    }

    #[test]
    fn rejects_unparsable_values() {
        parse_err(&["--threads", "many"], "--threads needs a positive integer");
        parse_err(&["--scale", "huge"], "unknown scale");
        parse_err(
            &["--partition", "2,2"],
            "--partition needs NW,NX,SLICE_ENOB",
        );
        parse_err(&["--adc", "sar"], "unknown --adc value");
    }

    #[test]
    fn rejects_out_of_range_adc_values() {
        for bad in [
            "ref-scaled:2",
            "ref-scaled:0",
            "ref-scaled:nan",
            "ref-scaled:inf",
        ] {
            parse_err(
                &["--error-model", "per-vmac", "--adc", bad],
                "--adc ref-scaled:ALPHA (in (0, 1]) is out of range",
            );
        }
        for bad in ["delta-sigma:-1", "delta-sigma:nan", "delta-sigma:inf"] {
            parse_err(
                &["--error-model", "per-vmac", "--adc", bad],
                "--adc delta-sigma:BITS (finite, ≥ 0) is out of range",
            );
        }
        // The range ends themselves are accepted.
        for good in ["ref-scaled:1", "delta-sigma:0"] {
            parse(args(&["--error-model", "per-vmac", "--adc", good]));
        }
    }
}
