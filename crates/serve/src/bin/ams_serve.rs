//! The `ams-serve` daemon binary: load one scenario, serve until a client
//! sends the shutdown frame.

use ams_core::error_model::{ErrorModelConfig, ErrorModelKind, DRIFT_NU_DEFAULT};
use ams_exp::{usage_exit, Scale};
use ams_quant::QuantScheme;
use ams_serve::{ScenarioConfig, ServeConfig};
use ams_tensor::KernelDispatch;

const USAGE: &str = "[--addr HOST:PORT] [--metrics-addr HOST:PORT] [--workers N] [--worker-threads N] [--enob E] [--scale quick|full|test] [--results DIR] [--model resnet-mini|lenet5] [--quant dorefa|bfp] [--error-model lumped|composite|per-vmac|drifting-pcm|ideal] [--kernel f32|i8] [--at-time T]";

struct Args {
    addr: String,
    metrics_addr: String,
    scenario: ScenarioConfig,
    serve: ServeConfig,
}

/// Parses `--flag value` pairs on top of the quick-scale default scenario
/// and [`ServeConfig::default`]. Every bad value is a usage error caught
/// here, before the scenario trains.
fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        addr: "127.0.0.1:7878".to_string(),
        metrics_addr: "127.0.0.1:7879".to_string(),
        scenario: ScenarioConfig::default_at(Scale::quick()),
        serve: ServeConfig::default(),
    };
    for pair in args.chunks(2) {
        let flag = pair[0].as_str();
        let value = || {
            pair.get(1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let scenario = &mut out.scenario;
        match flag {
            "--addr" => out.addr = value()?.to_string(),
            "--metrics-addr" => out.metrics_addr = value()?.to_string(),
            "--workers" => {
                out.serve.workers = match value()?.parse() {
                    Ok(0) => return Err("--workers needs a positive integer: got 0".into()),
                    Ok(n) => n,
                    Err(e) => return Err(format!("--workers needs a positive integer: {e}")),
                };
            }
            "--worker-threads" => {
                out.serve.threads_per_worker = value()?
                    .parse()
                    .map_err(|e| format!("--worker-threads needs an integer: {e}"))?;
            }
            "--enob" => {
                let enob: f64 = value()?
                    .parse()
                    .map_err(|e| format!("--enob needs a number: {e}"))?;
                if !enob.is_finite() || enob <= 0.0 {
                    return Err(format!("--enob needs a positive finite number, got {enob}"));
                }
                scenario.enob = Some(enob);
            }
            "--scale" => {
                scenario.scale = Scale::by_name(value()?)
                    .map_err(|n| format!("unknown scale {n:?}; use quick|full|test"))?;
            }
            "--results" => scenario.results = value()?.to_string(),
            "--model" => scenario.model = value()?.parse()?,
            "--quant" => {
                scenario.quant = match value()? {
                    "dorefa" => QuantScheme::Dorefa,
                    "bfp" => QuantScheme::Bfp { block: 16 },
                    other => return Err(format!("unknown quantizer {other:?}; use dorefa|bfp")),
                };
            }
            "--error-model" => {
                scenario.error_model = match value()?.parse::<ErrorModelKind>()? {
                    ErrorModelKind::Ideal => ErrorModelConfig::Ideal,
                    ErrorModelKind::Lumped => ErrorModelConfig::Lumped,
                    ErrorModelKind::Composite => ErrorModelConfig::Composite {
                        multiplier_sigma: 0.01,
                    },
                    ErrorModelKind::PerVmac => ErrorModelConfig::per_vmac(),
                    ErrorModelKind::DriftingPcm => ErrorModelConfig::drifting_pcm(DRIFT_NU_DEFAULT),
                };
            }
            "--at-time" => {
                let t: f64 = value()?
                    .parse()
                    .map_err(|e| format!("--at-time needs a number (seconds): {e}"))?;
                if !t.is_finite() || t <= 0.0 {
                    return Err(format!(
                        "--at-time needs a positive finite time (seconds), got {t}"
                    ));
                }
                scenario.at_time = t;
            }
            "--kernel" => scenario.kernel = KernelDispatch::by_name(value()?)?,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(out)
}

fn main() {
    let args = parse(&std::env::args().skip(1).collect::<Vec<_>>())
        .unwrap_or_else(|message| usage_exit(&message, USAGE));
    eprintln!(
        "[ams-serve] loading scenario (scale {}, model {}, enob {:?}) ...",
        args.scenario.scale.name,
        args.scenario.model.key(),
        args.scenario.enob
    );
    let loaded = args.scenario.load();
    let handle = ams_serve::start(loaded, args.serve, &args.addr, &args.metrics_addr)
        .unwrap_or_else(|e| {
            eprintln!("error: failed to bind: {e}");
            std::process::exit(1);
        });
    eprintln!(
        "[ams-serve] serving on {} (metrics on http://{}/metrics)",
        handle.addr, handle.metrics_addr
    );
    handle.wait();
    eprintln!("[ams-serve] drained and stopped");
}
