//! End-to-end smoke of the serving daemon at the `test` scale: concurrent
//! clients, bitwise identity against offline evaluation, `/metrics`
//! consistency, reaping of ended connections, and graceful
//! queue-draining shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ams_exp::Scale;
use ams_nn::Mode;
use ams_serve::protocol::{
    decode_response, encode_classify, encode_shutdown, read_frame, write_frame, ClassifyRequest,
    ServeClient,
};
use ams_serve::{ScenarioConfig, ServeConfig};
use ams_tensor::{ExecCtx, Tensor};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 5;

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read http");
    let (_, body) = text
        .split_once("\r\n\r\n")
        .expect("http response has a header/body split");
    body.to_string()
}

fn prom_value(text: &str, metric: &str) -> f64 {
    let line = text
        .lines()
        .find(|l| l.starts_with(metric) && l.as_bytes().get(metric.len()) == Some(&b' '))
        .unwrap_or_else(|| panic!("metric {metric} not exported:\n{text}"));
    line[metric.len() + 1..]
        .trim()
        .parse()
        .expect("numeric value")
}

#[test]
fn daemon_matches_offline_eval_and_drains_on_shutdown() {
    let results = std::env::temp_dir().join("ams_serve_e2e_results");
    let config = ScenarioConfig {
        results: results.to_string_lossy().into_owned(),
        ..ScenarioConfig::default_at(Scale::test())
    };
    let scenario = config.load();
    let [c, h, w] = scenario.input_dims;
    let per_image = scenario.input_len();

    // Request images: the test scale's validation split.
    let data = config.scale.synth.generate();
    let val = data.val.images().data().to_vec();
    let n_val = data.val.len();

    let serve = ServeConfig {
        workers: 2,
        threads_per_worker: 1,
        ..ServeConfig::default()
    };
    let handle = ams_serve::start(scenario.clone(), serve, "127.0.0.1:0", "127.0.0.1:0")
        .expect("bind ephemeral ports");
    let addr = handle.addr;
    let metrics_addr = handle.metrics_addr;

    assert_eq!(http_get(metrics_addr, "/healthz"), "ok\n");

    // Concurrent closed-loop clients; every reply is recorded with the
    // request that produced it.
    let mut clients = Vec::new();
    for cl in 0..CLIENTS {
        let val = val.clone();
        clients.push(std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr).expect("connect");
            let mut got = Vec::new();
            for r in 0..REQUESTS_PER_CLIENT {
                let idx = (cl * REQUESTS_PER_CLIENT + r) % n_val;
                let seed = 0xE2E0 + (cl * 100 + r) as u64;
                let pixels = &val[idx * per_image..(idx + 1) * per_image];
                let resp = client
                    .classify((cl * 1000 + r) as u64, seed, pixels)
                    .expect("classify");
                assert_eq!(resp.seq, (cl * 1000 + r) as u64);
                assert_eq!(resp.logits.len(), scenario.classes);
                assert_eq!(resp.hardware.error_model, "lumped");
                assert!(resp.hardware.enob > 0.0);
                assert_eq!(resp.hardware.n_mult, 8);
                got.push((idx, seed, resp.logits));
            }
            got
        }));
    }
    let mut answers = Vec::new();
    for cl in clients {
        answers.extend(cl.join().expect("client thread"));
    }
    assert_eq!(answers.len(), CLIENTS * REQUESTS_PER_CLIENT);

    // Bitwise identity: an offline twin (same checkpoint, unfrozen path)
    // evaluating batch-1 under reseed_noise(seed) must reproduce every
    // served reply exactly, whichever worker answered it.
    let ctx = ExecCtx::serial().with_kernel(scenario.kernel);
    let mut offline = scenario.spec.build(&scenario.hw);
    scenario
        .checkpoint
        .load_into(&mut *offline)
        .expect("checkpoint matches architecture");
    for (idx, seed, served) in &answers {
        let image = Tensor::from_vec(
            &[1, c, h, w],
            val[idx * per_image..(idx + 1) * per_image].to_vec(),
        )
        .unwrap();
        offline.reseed_noise(*seed);
        let logits = offline.forward(&ctx, &image, Mode::Eval);
        assert_eq!(
            logits.data(),
            &served[..],
            "served logits diverge from offline eval (image {idx}, seed {seed})"
        );
    }

    // /metrics consistency: every request answered, and the batch-size
    // histogram accounts for each exactly once, one forward per request.
    let metrics = http_get(metrics_addr, "/metrics");
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as f64;
    assert_eq!(prom_value(&metrics, "serve_requests"), total);
    assert_eq!(prom_value(&metrics, "serve_responses"), total);
    assert_eq!(prom_value(&metrics, "serve_batch_size_sum"), total);
    assert_eq!(
        prom_value(&metrics, "serve_request_latency_ms_count"),
        total
    );
    assert_eq!(
        prom_value(&metrics, "serve_request_queue_wait_ms_count"),
        total
    );
    assert_eq!(prom_value(&metrics, "serve_batch_size_count"), total);
    assert!(http_get(metrics_addr, "/nope").contains("not found"));

    // Time-pinned classify: the reply echoes the pinned time, and under
    // the scenario's time-invariant (lumped) error model the logits match
    // a plain classify with the same seed bit for bit. The drift-time
    // gauge tracks the most recent forward's simulated time.
    let mut timed = ServeClient::connect(addr).expect("connect timed");
    let pixels = &val[..per_image];
    let plain = timed.classify(500, 0xAB, pixels).expect("plain classify");
    assert_eq!(plain.t_infer, None);
    let at = timed
        .classify_at(501, 0xAB, 86_400.0, pixels)
        .expect("classify-at");
    assert_eq!(at.seq, 501);
    assert_eq!(at.t_infer, Some(86_400.0));
    assert_eq!(
        at.logits, plain.logits,
        "lumped noise is time-invariant, so pinning a time must not change logits"
    );
    let metrics = http_get(metrics_addr, "/metrics");
    assert!(
        prom_value(&metrics, "serve_connections_open_mean") >= 1.0,
        "the timed client's connection is open"
    );
    drop(timed);
    let metrics = http_get(metrics_addr, "/metrics");
    assert_eq!(prom_value(&metrics, "serve_drift_t_infer_max"), 86_400.0);
    assert_eq!(prom_value(&metrics, "serve_drift_t_infer_min"), 1.0);

    // Every client has hung up: the accept loop reaps each ended
    // connection's thread, and the open-connection gauge returns to 0.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = prom_value(
            &http_get(metrics_addr, "/metrics"),
            "serve_connections_open_mean",
        );
        if open == 0.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{open} connections still open after every client disconnected"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Graceful shutdown drains the queue: pipeline a burst of classify
    // frames immediately followed by the shutdown frame, without reading
    // anything. Every burst request must still be answered, and the ack
    // must arrive only after all of them.
    let burst = 7;
    let mut stream = TcpStream::connect(addr).expect("connect burst");
    for r in 0..burst {
        let pixels = val[(r % n_val) * per_image..(r % n_val + 1) * per_image].to_vec();
        write_frame(
            &mut stream,
            &encode_classify(&ClassifyRequest {
                seq: 9000 + r as u64,
                seed: 7,
                t_infer: None,
                pixels,
            }),
        )
        .unwrap();
    }
    write_frame(&mut stream, &encode_shutdown()).unwrap();
    let mut seen = Vec::new();
    loop {
        let payload = read_frame(&mut stream).unwrap().expect("reply before EOF");
        match decode_response(&payload).unwrap() {
            Some(resp) => seen.push(resp.seq),
            None => break, // the ack — must come after every reply
        }
    }
    seen.sort_unstable();
    assert_eq!(
        seen,
        (0..burst).map(|r| 9000 + r as u64).collect::<Vec<_>>(),
        "shutdown must drain every queued request before acking"
    );
    handle.wait();
}
