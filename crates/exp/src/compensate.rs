//! CorrectNet-style per-layer affine compensation state (DESIGN.md §15).
//!
//! Drift (and any other weight-domain error) shifts and scales every
//! layer's output statistics. CorrectNet (arXiv 2211.14917) shows that a
//! cheap per-layer affine correction `y ← a·y + b`, fitted once
//! post-quantization against a clean twin of the network, claws back
//! most of the induced accuracy loss. The fit itself lives in
//! [`crate::Experiments`]; this module holds the persisted state — the
//! fitted `(a, b)` pairs plus the configuration they were fitted for —
//! with the same refuse-on-mismatch resume contract as
//! [`crate::TrainState`].

use std::path::Path;

use ams_models::{ErrorModelConfig, ModelKind};
use ams_quant::QuantScheme;
use serde::{Deserialize, Serialize};

/// A fitted per-layer affine compensation, tagged with the configuration
/// it was fitted for so a resumed run can refuse a stale fit.
///
/// Layer order is the model's injection order: convolutions in forward
/// order, then the classifier head — the same order
/// `AmsModel::set_compensation` expects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompensationState {
    /// The topology the fit probed.
    pub model_kind: ModelKind,
    /// The quantizer scheme active during the fit.
    pub quant: QuantScheme,
    /// The error model the noisy twin realized.
    pub error_model: ErrorModelConfig,
    /// The simulated inference time the noisy twin evaluated at.
    pub t_infer: f64,
    /// The fitted `(a, b)` pair per compensated layer.
    pub layers: Vec<(f32, f32)>,
}

impl CompensationState {
    /// Persists the state as JSON (atomically — a kill mid-write leaves
    /// either the old file or the new, never a torn one). Failures are
    /// reported on stderr, not fatal: a lost fit only costs a refit.
    pub fn save(&self, path: &Path) {
        let text = match serde_json::to_string(self) {
            Ok(text) => text,
            Err(e) => {
                eprintln!(
                    "failed to serialize compensation state for {}: {e}",
                    path.display()
                );
                return;
            }
        };
        if let Err(e) = ams_obs::fsio::atomic_write(path, text.as_bytes()) {
            eprintln!(
                "failed to write compensation state to {}: {e}",
                path.display()
            );
        }
    }

    /// Loads a previously saved state, returning its fitted layers —
    /// `None` when no file exists or it does not parse (a torn pre-atomic
    /// artifact; the caller refits).
    ///
    /// # Panics
    ///
    /// Panics when the file parses but was fitted for a different
    /// configuration — silently applying a stale fit would corrupt the
    /// resumed run's results, the same hazard [`crate::TrainState`]
    /// guards against.
    pub fn load_matching(
        path: &Path,
        model_kind: ModelKind,
        quant: QuantScheme,
        error_model: ErrorModelConfig,
        t_infer: f64,
    ) -> Option<Vec<(f32, f32)>> {
        let text = std::fs::read_to_string(path).ok()?;
        let state: CompensationState = serde_json::from_str(&text).ok()?;
        assert!(
            state.model_kind == model_kind
                && state.quant == quant
                && state.error_model == error_model
                && state.t_infer == t_infer,
            "refusing to resume from {}: compensation was fitted for {}/{}/{:?} at t = {}, \
             this run needs {}/{}/{:?} at t = {} — delete the state file to restart from scratch",
            path.display(),
            state.model_kind,
            state.quant,
            state.error_model,
            state.t_infer,
            model_kind,
            quant,
            error_model,
            t_infer,
        );
        Some(state.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> CompensationState {
        CompensationState {
            model_kind: ModelKind::ResNetMini,
            quant: QuantScheme::Dorefa,
            error_model: ErrorModelConfig::drifting_pcm(0.06),
            t_infer: 3600.0,
            layers: vec![(1.25, -0.5), (0.9, 0.125), (1.0, 0.0)],
        }
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = std::env::temp_dir().join("ams_exp_compstate_roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("fit.compstate.json");
        let s = state();
        s.save(&path);
        let layers = CompensationState::load_matching(
            &path,
            s.model_kind,
            s.quant,
            s.error_model,
            s.t_infer,
        )
        .expect("state should load");
        assert_eq!(layers, s.layers);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_file_loads_none() {
        let path = std::env::temp_dir().join("ams_exp_compstate_missing.json");
        let _ = std::fs::remove_file(&path);
        assert!(CompensationState::load_matching(
            &path,
            ModelKind::ResNetMini,
            QuantScheme::Dorefa,
            ErrorModelConfig::Lumped,
            1.0,
        )
        .is_none());
    }

    #[test]
    #[should_panic(expected = "refusing to resume")]
    fn mismatched_fit_refuses_to_resume() {
        let dir = std::env::temp_dir().join("ams_exp_compstate_mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("fit.compstate.json");
        let s = state();
        s.save(&path);
        // Same everything but a different inference time: stale fit.
        let _ =
            CompensationState::load_matching(&path, s.model_kind, s.quant, s.error_model, 86_400.0);
    }
}
