//! The `ams-serve` daemon binary: load one scenario, serve until a client
//! sends the shutdown frame.

use ams_core::error_model::{ErrorModelConfig, ErrorModelKind, DRIFT_NU_DEFAULT};
use ams_exp::usage_exit;
use ams_quant::QuantScheme;
use ams_serve::{ScenarioConfig, ServeArgs, ServeConfig};
use ams_tensor::KernelDispatch;

const USAGE: &str = "[--addr HOST:PORT] [--metrics-addr HOST:PORT] [--workers N] [--worker-threads N] [--max-batch N] [--enob E] [--scale quick|full|test] [--results DIR] [--model resnet-mini|lenet5] [--quant dorefa|bfp] [--error-model lumped|composite|per-vmac|drifting-pcm|ideal] [--kernel f32|i8] [--at-time T]";

struct Args {
    addr: String,
    metrics_addr: String,
    scenario: ScenarioConfig,
    serve: ServeConfig,
}

fn parse(args: Vec<String>) -> Result<Args, String> {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut metrics_addr = "127.0.0.1:7879".to_string();
    let ServeArgs { scenario, serve } = ServeArgs::parse(&args, |shared, flag| {
        let scenario = &mut shared.scenario;
        match flag.name {
            "--addr" => addr = flag.value()?.to_string(),
            "--metrics-addr" => metrics_addr = flag.value()?.to_string(),
            "--model" => scenario.model = flag.value()?.parse()?,
            "--quant" => {
                scenario.quant = match flag.value()? {
                    "dorefa" => QuantScheme::Dorefa,
                    "bfp" => QuantScheme::Bfp { block: 16 },
                    other => return Err(format!("unknown quantizer {other:?}; use dorefa|bfp")),
                };
            }
            "--error-model" => {
                scenario.error_model = match flag.value()?.parse::<ErrorModelKind>()? {
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
                let t: f64 = flag
                    .value()?
                    .parse()
                    .map_err(|e| format!("--at-time needs a number (seconds): {e}"))?;
                if !t.is_finite() || t <= 0.0 {
                    return Err(format!(
                        "--at-time needs a positive finite time (seconds), got {t}"
                    ));
                }
                scenario.at_time = t;
            }
            "--kernel" => scenario.kernel = KernelDispatch::by_name(flag.value()?)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Args {
        addr,
        metrics_addr,
        scenario,
        serve,
    })
}

fn main() {
    let args = parse(std::env::args().skip(1).collect())
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
