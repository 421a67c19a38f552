//! Metrics/observability layer for the `ams-dnn` workspace.
//!
//! The paper's headline analyses are all *measurements of an instrumented
//! network* — injected-error variance per layer (Eq. 1–2), activation-mean
//! drift at conv outputs (Fig. 6), per-sweep accuracy rollups (Fig. 4–5).
//! This crate provides the registry those measurements are recorded into:
//!
//! * [`Counter`] — atomic event counts (serial/parallel dispatch decisions),
//! * [`Timer`] — accumulated wall time (per-layer forward/backward),
//! * [`Gauge`] — streaming mean/variance via [`WelfordState`] (injected
//!   noise per layer, activation means),
//! * [`Histogram`] — fixed-bucket distributions,
//!
//! all reached through a [`MetricsSink`] handle that is threaded through
//! the stack embedded in `ams_tensor::ExecCtx`. A disabled sink
//! ([`MetricsSink::disabled`], the default) reduces every recording call
//! to a branch on a `None`, so uninstrumented hot paths pay essentially
//! nothing; [`MetricsSink::recording`] attaches a shared [`Registry`]
//! whose [`Registry::report`] snapshot serializes to JSON/CSV behind the
//! experiment binaries' `--metrics <path>` flag.
//!
//! # Example
//!
//! ```
//! use ams_obs::MetricsSink;
//! use std::time::Duration;
//!
//! let sink = MetricsSink::recording();
//! sink.inc("exec.dispatch.serial");
//! sink.observe("noise.stem", 0.02);
//! sink.record_duration("layer.stem.forward", Duration::from_micros(120));
//! let report = sink.registry().unwrap().report();
//! assert_eq!(report.counters[0].value, 1);
//! assert_eq!(report.gauges[0].count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fsio;
mod metric;
mod registry;
mod report;
mod welford;

pub use metric::{Counter, Gauge, Histogram, Timer};
pub use registry::{MetricsSink, Registry, ScopedTimer};
pub use report::{
    CounterEntry, GaugeEntry, HistogramEntry, MetricsReport, TimerEntry, CSV_HEADERS,
};
pub use welford::WelfordState;
