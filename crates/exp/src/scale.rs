//! Experiment scale presets and CLI parsing.

use ams_data::SynthConfig;
use ams_models::{LeNet5Config, ModelKind, ModelSpec, ResNetMiniConfig};
use serde::{Deserialize, Serialize};

/// Everything that sizes an experiment run: dataset, architecture,
/// training schedule and the ENOB sweep grids.
///
/// The paper runs ResNet-50 on ImageNet across 7 V100s; this harness runs
/// ResNet-mini on SynthImageNet on one CPU core, so the ENOB grids sit
/// lower (the error σ scales with `√N_tot`, and our layers have far
/// smaller `N_tot` than ResNet-50's — see DESIGN.md §5). The *shape* of
/// every result is what transfers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Preset name (`quick`, `full`, `test`).
    pub name: String,
    /// Dataset configuration.
    pub synth: SynthConfig,
    /// ResNet-mini architecture (the default `--model resnet-mini`).
    pub arch: ResNetMiniConfig,
    /// LeNet-5 architecture sized for the same dataset (`--model lenet5`).
    pub lenet: LeNet5Config,
    /// Minibatch size.
    pub batch: usize,
    /// Epochs of FP32 pretraining.
    pub fp32_epochs: usize,
    /// Epochs of quantized / AMS retraining.
    pub retrain_epochs: usize,
    /// FP32 pretraining learning rate.
    pub fp32_lr: f32,
    /// Retraining learning rate (the paper uses 0.004 at batch 1024).
    pub retrain_lr: f32,
    /// Validation passes per reported accuracy (paper: 5).
    pub eval_passes: usize,
    /// ENOB sweep for Fig. 4 (8-bit quantization).
    pub enob_grid: Vec<f64>,
    /// ENOB sweep for Fig. 5 (6-bit quantization).
    pub enob_grid_6b: Vec<f64>,
    /// The fixed ENOB of the Table 2 freezing study (a point where
    /// retraining recovers accuracy; the paper uses 10 for ResNet-50).
    pub table2_enob: f64,
    /// ENOB levels probed in Fig. 6 (the paper shows 9–12 b).
    pub fig6_enobs: Vec<f64>,
    /// Number of synthetic survey points for Fig. 7.
    pub survey_points: usize,
    /// `N_mult` axis of the Fig. 8 grid.
    pub fig8_n_mults: Vec<usize>,
    /// Inference times (seconds after programming) of the figD drift
    /// sweep, overridable per run with `--at-times` (see DESIGN.md §15).
    pub drift_times: Vec<f64>,
    /// Master seed for training shuffles and evaluation subsampling.
    pub seed: u64,
}

impl Scale {
    /// The default preset: minutes-scale on one CPU core.
    pub fn quick() -> Self {
        Scale {
            name: "quick".to_string(),
            synth: SynthConfig::quick(),
            arch: ResNetMiniConfig::quick(),
            lenet: LeNet5Config::quick(),
            batch: 64,
            fp32_epochs: 36,
            retrain_epochs: 7,
            fp32_lr: 0.05,
            retrain_lr: 0.004,
            eval_passes: 5,
            enob_grid: vec![3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 7.0, 8.0],
            enob_grid_6b: vec![4.0, 4.5, 5.0, 5.5, 6.0, 7.0],
            table2_enob: 4.5,
            fig6_enobs: vec![3.5, 4.0, 4.5, 5.0],
            survey_points: 300,
            fig8_n_mults: vec![2, 4, 8, 16, 32, 64, 128, 256],
            drift_times: vec![1.0, 3600.0, 86_400.0, 2_592_000.0, 31_536_000.0],
            seed: 1234,
        }
    }

    /// A larger preset (tens of minutes to hours).
    pub fn full() -> Self {
        Scale {
            name: "full".to_string(),
            synth: SynthConfig::full(),
            arch: ResNetMiniConfig::full(),
            lenet: LeNet5Config::full(),
            batch: 64,
            fp32_epochs: 50,
            retrain_epochs: 10,
            fp32_lr: 0.05,
            retrain_lr: 0.004,
            eval_passes: 5,
            enob_grid: vec![3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 7.0, 8.0, 9.0],
            enob_grid_6b: vec![4.0, 4.5, 5.0, 5.5, 6.0, 7.0, 8.0],
            table2_enob: 5.0,
            fig6_enobs: vec![4.0, 4.5, 5.0, 5.5],
            survey_points: 600,
            fig8_n_mults: vec![2, 4, 8, 16, 32, 64, 128, 256, 512],
            drift_times: vec![1.0, 3600.0, 86_400.0, 2_592_000.0, 31_536_000.0],
            seed: 1234,
        }
    }

    /// A seconds-scale preset for integration tests and doc examples.
    pub fn test() -> Self {
        Scale {
            name: "test".to_string(),
            synth: SynthConfig::tiny(),
            arch: ResNetMiniConfig::tiny(),
            lenet: LeNet5Config::tiny(),
            batch: 16,
            fp32_epochs: 3,
            retrain_epochs: 1,
            fp32_lr: 0.05,
            retrain_lr: 0.01,
            eval_passes: 2,
            enob_grid: vec![4.0, 6.0],
            enob_grid_6b: vec![4.0, 6.0],
            table2_enob: 4.0,
            fig6_enobs: vec![4.0, 6.0],
            survey_points: 60,
            fig8_n_mults: vec![4, 8, 16],
            drift_times: vec![1.0, 3600.0],
            seed: 1234,
        }
    }

    /// The [`ModelSpec`] this scale builds for the requested topology —
    /// both zoo members are sized for the same synthetic dataset, so
    /// `--model` swaps the network without touching anything else.
    pub fn model_spec(&self, kind: ModelKind) -> ModelSpec {
        match kind {
            ModelKind::ResNetMini => ModelSpec::ResNetMini(self.arch),
            ModelKind::LeNet5 => ModelSpec::LeNet5(self.lenet),
        }
    }

    /// Resolves a preset by name.
    ///
    /// # Errors
    ///
    /// Returns the unknown name so callers can report it.
    pub fn by_name(name: &str) -> Result<Self, String> {
        match name {
            "quick" => Ok(Self::quick()),
            "full" => Ok(Self::full()),
            "test" => Ok(Self::test()),
            other => Err(other.to_string()),
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Self::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_by_name() {
        assert_eq!(Scale::by_name("quick").unwrap().name, "quick");
        assert_eq!(Scale::by_name("full").unwrap().name, "full");
        assert_eq!(Scale::by_name("test").unwrap().name, "test");
        assert!(Scale::by_name("huge").is_err());
    }

    #[test]
    fn lenet_presets_match_their_datasets() {
        for s in [Scale::quick(), Scale::full(), Scale::test()] {
            assert_eq!(s.lenet.image_size, s.synth.image_size, "{}", s.name);
            assert_eq!(s.lenet.classes, s.synth.classes, "{}", s.name);
            assert_eq!(s.lenet.in_channels, s.synth.channels, "{}", s.name);
            assert_eq!(s.model_spec(ModelKind::LeNet5).kind(), ModelKind::LeNet5);
            assert_eq!(
                s.model_spec(ModelKind::ResNetMini).kind(),
                ModelKind::ResNetMini
            );
        }
    }

    #[test]
    fn grids_are_sorted_and_nonempty() {
        for s in [Scale::quick(), Scale::full(), Scale::test()] {
            assert!(!s.enob_grid.is_empty());
            assert!(s.enob_grid.windows(2).all(|w| w[0] < w[1]), "{}", s.name);
            assert!(s.enob_grid_6b.windows(2).all(|w| w[0] < w[1]));
            assert!(
                s.fig8_n_mults.contains(&8),
                "grid must include the reference N_mult"
            );
            assert!(!s.drift_times.is_empty(), "{}", s.name);
            assert!(
                s.drift_times.iter().all(|t| t.is_finite() && *t > 0.0),
                "{}: drift times must be positive finite seconds",
                s.name
            );
            assert!(s.drift_times.windows(2).all(|w| w[0] < w[1]), "{}", s.name);
        }
    }
}
