//! Experiment harness reproducing every table and figure of
//! *"Analog/Mixed-Signal Hardware Error Modeling for Deep Learning
//! Inference"* (Rekhi et al., DAC 2019).
//!
//! Each paper artifact has a binary that regenerates it on the SynthImageNet
//! + ResNet-mini substrate (see DESIGN.md for the substitution table):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — quantization baselines (FP32 / 8b / 6b6b / 6b4b) |
//! | `fig4` | Fig. 4 — loss vs ENOB re: 8b net, eval-only vs retrained |
//! | `fig5` | Fig. 5 — loss vs ENOB re: 6b net, eval-only |
//! | `table2` | Table 2 — selective freezing during AMS retraining |
//! | `fig6` | Fig. 6 — activation means pushed away from zero |
//! | `fig7` | Fig. 7 — ADC survey with Schreier-FOM hull |
//! | `fig8` | Fig. 8 — (ENOB, N_mult) grid with energy level curves |
//! | `figd` | Fig. D — accuracy vs inference time under drift, ± compensation |
//! | `ablations` | §4 — per-VMAC sim, ΔΣ recycling, partitioning, … |
//!
//! All binaries accept `--scale quick|full|test` (default `quick`),
//! `--results <dir>` (default `results/`), `--threads <n>` (sweeps run
//! their points concurrently on that many threads; see EXPERIMENTS.md
//! "Parallel sweeps"), `--resume` (replay a killed run's sweep journal)
//! and `--metrics <path>` (write a metrics report — layer timings,
//! injected noise statistics, sweep rollups — as JSON, or CSV for a
//! `.csv` path; see EXPERIMENTS.md). Expensive artifacts (trained
//! checkpoints) are cached in the results directory, so binaries can run
//! in any order and share work.
//!
//! # Example
//!
//! ```no_run
//! use ams_exp::{Experiments, Scale};
//!
//! let exp = Experiments::new(Scale::test(), "results-test");
//! let t1 = exp.table1();
//! for row in &t1.rows {
//!     println!("{} {:.3} ± {:.1e}", row.label, row.accuracy.mean, row.accuracy.std);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cli;
mod compensate;
mod report;
mod runner;
mod scale;
pub mod sweep;
mod train;

pub use cli::{
    run_bin, run_bin_custom, usage_exit, write_metrics_report, Cli, USAGE, USAGE_EXIT_CODE,
};
pub use compensate::CompensationState;
pub use report::{print_table, write_csv, Report, Stat};
pub use runner::{
    AblationReport, Experiments, Fig4Result, Fig4Row, Fig5Result, Fig6Result, Fig6Row, Fig7Result,
    Fig8Result, FigDResult, FigDRow, Table1Result, Table1Row, Table2Result, Table2Row,
};
pub use scale::Scale;
pub use train::{eval_accuracy, eval_passes, train, TrainOutcome, TrainState};
