//! Runs every experiment (sharing the checkpoint cache) and writes a
//! combined markdown summary to `<results>/report_<scale>.md`, alongside
//! the per-artifact CSVs.
//!
//! ```text
//! cargo run --release -p ams-exp --bin report -- --scale quick
//! ```

use std::fmt::Write as _;

use ams_exp::{run_bin_custom, Report};

fn main() {
    run_bin_custom(|exp, _cli| {
        let dir = exp.results_dir().to_path_buf();
        let scale_name = exp.report_scale_name();

        let mut md = String::new();
        let _ = writeln!(md, "# ams-dnn experiment report (scale: {scale_name})\n");
        let _ = writeln!(
        md,
        "Substrate: ResNet-mini on SynthImageNet (see DESIGN.md). Paper: Rekhi et al., DAC 2019.\n"
    );

        // Table 1.
        let t1 = exp.table1();
        t1.report(&dir, &scale_name);
        let _ = writeln!(md, "## Table 1 — quantization baselines\n");
        let _ = writeln!(md, "| Quantization | Top-1 | ± |");
        let _ = writeln!(md, "|---|---|---|");
        for row in &t1.rows {
            let _ = writeln!(
                md,
                "| {} | {:.4} | {:.1e} |",
                row.label, row.accuracy.mean, row.accuracy.std
            );
        }

        // Figures 4 & 5.
        let f4 = exp.fig4();
        f4.report(&dir, &scale_name);
        let _ = writeln!(
            md,
            "\n## Figure 4 — loss vs ENOB (re: 8b, baseline {:.4})\n",
            f4.baseline.mean
        );
        let _ = writeln!(md, "| ENOB | eval-only | retrained |");
        let _ = writeln!(md, "|---|---|---|");
        for row in &f4.rows {
            let _ = writeln!(
                md,
                "| {:.1} | {:+.4} | {:+.4} |",
                row.enob, row.eval_only.mean, row.retrained.mean
            );
        }
        let f5 = exp.fig5();
        f5.report(&dir, &scale_name);
        let _ = writeln!(
            md,
            "\n## Figure 5 — loss vs ENOB (re: 6b, baseline {:.4})\n",
            f5.baseline.mean
        );
        let _ = writeln!(md, "| ENOB | eval-only |");
        let _ = writeln!(md, "|---|---|");
        for (enob, loss) in &f5.rows {
            let _ = writeln!(md, "| {enob:.1} | {:+.4} |", loss.mean);
        }

        // Table 2.
        let t2 = exp.table2();
        t2.report(&dir, &scale_name);
        let _ = writeln!(
            md,
            "\n## Table 2 — selective freezing (ENOB {:.1})\n",
            t2.enob
        );
        let _ = writeln!(md, "| Frozen | Loss re: 8b | ± |");
        let _ = writeln!(md, "|---|---|---|");
        for row in &t2.rows {
            let _ = writeln!(
                md,
                "| {} | {:+.4} | {:.1e} |",
                row.policy, row.loss.mean, row.loss.std
            );
        }
        let _ = writeln!(
            md,
            "| *(no retraining)* | {:+.4} | {:.1e} |",
            t2.eval_only_loss.mean, t2.eval_only_loss.std
        );

        // Figure 6.
        let f6 = exp.fig6();
        f6.report(&dir, &scale_name);
        let _ = writeln!(md, "\n## Figure 6 — activation means\n");
        if let Some(layer) = &f6.representative_layer {
            let idx = f6
                .layer_names
                .iter()
                .position(|n| n == layer)
                .expect("layer listed");
            let _ = writeln!(md, "Representative layer `{layer}`:\n");
            let _ = writeln!(md, "| variant | mean |");
            let _ = writeln!(md, "|---|---|");
            for row in &f6.rows {
                let _ = writeln!(md, "| {} | {:+.4} |", row.label, row.means[idx]);
            }
        }

        // Figure 7.
        let f7 = exp.fig7();
        f7.report(&dir, &scale_name);
        let _ = writeln!(
        md,
        "\n## Figure 7 — ADC survey\n\n{} synthetic points, {} below the Eq. 3 bound (must be 0).",
        f7.points.len(),
        f7.violations
    );

        // Figure 8.
        let f8 = exp.fig8();
        f8.report(&dir, &scale_name);
        let _ = writeln!(md, "\n## Figure 8 — energy-accuracy design space\n");
        for (target, energy) in &f8.min_energy {
            let _ = writeln!(
                md,
                "* measured grid: < {:.1}% loss ⇒ {}",
                target * 100.0,
                energy.map_or("no design qualifies".to_string(), |fj| format!(
                    "≥ ~{fj:.0} fJ/MAC"
                ))
            );
        }
        for (target, energy) in &f8.paper_min_energy {
            let _ = writeln!(
                md,
                "* paper-curve validation: < {:.1}% loss ⇒ {}",
                target * 100.0,
                energy.map_or("no design qualifies".to_string(), |fj| format!(
                    "≥ ~{fj:.0} fJ/MAC"
                ))
            );
        }

        // Ablations.
        let ab = exp.ablations();
        ab.report(&dir, &scale_name);
        let _ = writeln!(md, "\n## §4 ablations\n");
        let _ = writeln!(
            md,
            "* lumped vs per-VMAC RMS ratios: {}",
            ab.lumped_vs_sim
                .iter()
                .map(|(e, n, m, s)| format!("({e}b, N_tot {n}): {:.3}", s / m))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            md,
            "* ΔΣ recycling: {:.5} → {:.5} RMS ({:.0}×)",
            ab.delta_sigma.0,
            ab.delta_sigma.1,
            ab.delta_sigma.0 / ab.delta_sigma.1
        );
        for (level, lumped, pv) in &ab.per_vmac_network {
            let _ = writeln!(
            md,
            "* network-level error realization at ENOB {level:.1}: lumped {:.4} vs per-VMAC {pv:.4}",
            lumped.mean
        );
        }
        let _ = writeln!(
            md,
            "* mismatch sweep: {}",
            ab.mismatch
                .iter()
                .map(|(s, a)| format!("{:.0}% → {a:.4}", s * 100.0))
                .collect::<Vec<_>>()
                .join(", ")
        );

        let path = dir.join(format!("report_{scale_name}.md"));
        if let Err(e) = std::fs::write(&path, md) {
            eprintln!("failed to write {}: {e}", path.display());
        } else {
            println!("\nwrote {}", path.display());
        }
    });
}
