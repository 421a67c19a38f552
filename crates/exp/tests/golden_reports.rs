//! Golden-file regression tests for the [`Report`] CSV output.
//!
//! The table1, fig4 and figd pipelines are run at the `test` scale on a serial
//! context (fixed seeds, one deterministic reduction order) and their
//! main CSVs are compared byte-for-byte against committed goldens in
//! `tests/golden/`. fig4 also runs under the i8 kernel: the integer path
//! is exact in its arithmetic, so its CSV is pinned too. The remaining
//! scenario paths are pinned the same way: fig4 under the per-VMAC and
//! composite error models and on LeNet-5 with block floating point,
//! Table 2's freeze policies (train, eval, step, eval), Fig. 5's 6-bit
//! grid and Fig. 6's probes. Any change to training, evaluation, the
//! error model, the i8 kernel or the CSV formatting shows up here as a
//! diff.
//!
//! Each test also pins the sorted names of every file its run leaves in
//! its results directory (`tests/golden/artifact_names_*.txt`): the CSV
//! goldens cannot see a renamed cache key or journal, and a renamed key
//! silently orphans every checkpoint cached under the old name.
//!
//! To regenerate after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ams-exp --test golden_reports
//! ```

use std::path::{Path, PathBuf};

use ams_exp::{Experiments, Report, Scale};
use ams_models::{ErrorModelConfig, ModelKind};
use ams_quant::QuantScheme;
use ams_tensor::{ExecCtx, KernelDispatch};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares (or, under `UPDATE_GOLDEN`, rewrites) each named CSV in
/// `work` against its committed golden.
fn check_goldens(work: &Path, names: &[String]) {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for name in names {
        let produced = std::fs::read_to_string(work.join(name))
            .unwrap_or_else(|e| panic!("the run did not write {name}: {e}"));
        let golden_path = golden_dir().join(name);
        if update {
            std::fs::create_dir_all(golden_dir()).unwrap();
            std::fs::write(&golden_path, &produced).unwrap();
            eprintln!("updated golden {}", golden_path.display());
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "missing golden {}: {e}; generate it with UPDATE_GOLDEN=1",
                golden_path.display()
            )
        });
        assert_eq!(
            produced, golden,
            "{name} drifted from the committed golden; if the change is \
             intentional, regenerate with UPDATE_GOLDEN=1 and commit the diff"
        );
    }
}

/// Compares (or, under `UPDATE_GOLDEN`, rewrites) the sorted names of
/// the files in `work` against `tests/golden/artifact_names_{tag}.txt`.
fn check_artifact_names(work: &Path, tag: &str) {
    let mut names: Vec<String> = std::fs::read_dir(work)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", work.display()))
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    let produced: String = names.iter().map(|n| format!("{n}\n")).collect();
    let golden_path = golden_dir().join(format!("artifact_names_{tag}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &produced).unwrap();
        eprintln!("updated golden {}", golden_path.display());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; generate it with UPDATE_GOLDEN=1",
            golden_path.display()
        )
    });
    assert_eq!(
        produced,
        golden,
        "the artifact names in {} drifted from the committed list; a renamed \
         cache key orphans every checkpoint cached under the old name",
        work.display()
    );
}

#[test]
fn table1_and_fig4_csvs_match_goldens() {
    let work = std::env::temp_dir().join("ams_exp_golden_reports_test");
    let _ = std::fs::remove_dir_all(&work);
    let exp = Experiments::new(Scale::test(), work.to_str().unwrap()).with_ctx(ExecCtx::serial());

    // table1 first: it warms the checkpoint cache fig4 and figd reuse.
    let t1 = exp.table1();
    let f4 = exp.fig4();
    let fd = exp.figd();
    t1.report(exp.results_dir(), "test");
    f4.report(exp.results_dir(), "test");
    fd.report(exp.results_dir(), "test");
    let names: Vec<String> = ["table1", "fig4", "figd"]
        .iter()
        .map(|stem| format!("{stem}_test.csv"))
        .collect();
    check_goldens(&work, &names);
    check_artifact_names(&work, "table1_fig4_figd");
    let _ = std::fs::remove_dir_all(work);
}

/// The i8 kernel's fig4 (the CI `i8-kernel-e2e` scenario, on one
/// thread): every i8 layer output feeds this CSV, so a kernel change
/// that moves any code, scale or integer sum shows up here.
#[test]
fn fig4_i8_csv_matches_golden() {
    let work = std::env::temp_dir().join("ams_exp_golden_reports_i8_test");
    let _ = std::fs::remove_dir_all(&work);
    let exp = Experiments::new(Scale::test(), work.to_str().unwrap())
        .with_ctx(ExecCtx::serial().with_kernel(KernelDispatch::I8));
    exp.fig4()
        .report(exp.results_dir(), &exp.report_scale_name());
    check_goldens(
        &work,
        &["fig4_test_resnet-mini-dorefa-lumped-i8.csv".to_string()],
    );
    check_artifact_names(&work, "fig4_i8");
    let _ = std::fs::remove_dir_all(work);
}

/// Every scenario path the table1/fig4/figd goldens leave unpinned: the
/// per-VMAC forward and the composite model (fig4), BFP on LeNet-5
/// (fig4), Table 2's freeze policies, Fig. 5's 6-bit grid and Fig. 6's
/// probes. They share one results directory, so checkpoints train once.
#[test]
fn scenario_path_csvs_match_goldens() {
    let work = std::env::temp_dir().join("ams_exp_golden_reports_scenarios_test");
    let _ = std::fs::remove_dir_all(&work);
    let suite =
        || Experiments::new(Scale::test(), work.to_str().unwrap()).with_ctx(ExecCtx::serial());
    let mut names = Vec::new();

    let exp = suite();
    exp.table2().report(exp.results_dir(), "test");
    exp.fig5().report(exp.results_dir(), "test");
    exp.fig6().report(exp.results_dir(), "test");
    names.extend(["table2", "fig5", "fig6"].map(|stem| format!("{stem}_test.csv")));

    for exp in [
        suite().with_error_model(ErrorModelConfig::per_vmac()),
        suite().with_error_model(ErrorModelConfig::Composite {
            multiplier_sigma: 0.01,
        }),
        suite()
            .with_model(ModelKind::LeNet5)
            .with_quant(QuantScheme::Bfp { block: 16 }),
    ] {
        let scale_name = exp.report_scale_name();
        exp.fig4().report(exp.results_dir(), &scale_name);
        names.push(format!("fig4_{scale_name}.csv"));
    }
    check_goldens(&work, &names);
    check_artifact_names(&work, "scenarios");
    let _ = std::fs::remove_dir_all(work);
}
