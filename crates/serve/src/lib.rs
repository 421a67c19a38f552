//! `ams-serve`: a noisy-inference daemon for the AMS error-model stack
//! (DESIGN.md §14).
//!
//! The daemon loads one trained + quantized checkpoint for a
//! `{model, quant, error-model, kernel}` scenario, freezes the quantized
//! weights once ([`ScenarioConfig::load`]), and serves classification
//! requests over a length-prefixed TCP protocol ([`protocol`]). An
//! owned-state actor pool of worker replicas shares the frozen weights by
//! `Arc`; a dispatcher hands each request to the next idle worker, which
//! runs it as one batch-1 forward under the request's noise seed. Every
//! reply is bit-identical to an offline `reseed_noise(seed)` + batch-1
//! evaluation.
//!
//! # Example (in-process, as the e2e test drives it)
//!
//! ```no_run
//! use ams_serve::{protocol::ServeClient, ScenarioConfig, ServeConfig};
//!
//! let scenario = ScenarioConfig::default_at(ams_exp::Scale::test()).load();
//! let handle = ams_serve::start(scenario, ServeConfig::default(),
//!                               "127.0.0.1:0", "127.0.0.1:0").unwrap();
//! let mut client = ServeClient::connect(handle.addr).unwrap();
//! let reply = client.classify(0, 42, &vec![0.5; 3 * 8 * 8]).unwrap();
//! println!("logits: {:?} under {:?}", reply.logits, reply.hardware);
//! ```

#![warn(missing_docs)]

pub mod protocol;
pub mod scenario;
pub mod server;

pub use scenario::{LoadedScenario, ScenarioConfig};
pub use server::{start, ServeConfig, ServerHandle, BATCH_SIZE_BOUNDS, LATENCY_MS_BOUNDS};
