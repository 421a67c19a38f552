//! Static device-mismatch error (paper §4: "Including non-additive and
//! data-dependent errors (due to, for example, capacitor or resistor
//! mismatch) would also be valuable").
//!
//! Unlike the additive, data-independent noise of the main model,
//! mismatch is a **fixed, per-device multiplicative** perturbation: every
//! stored weight (conductance / capacitor ratio) is realized as
//! `w·(1 + δ)` with `δ ~ N(0, σ_mm²)` drawn once per chip. The error it
//! induces is fully data-dependent (it scales with the signal), cannot be
//! averaged away over time, and — crucially — is *visible to retraining*
//! only if the training hardware is the same chip.

use ams_tensor::{rng, Tensor};
use serde::{Deserialize, Serialize};

/// A static multiplicative mismatch model: relative device error with the
/// given sigma, drawn deterministically from a chip seed.
///
/// # Example
///
/// ```
/// use ams_core::mismatch::MismatchModel;
/// use ams_tensor::Tensor;
///
/// let model = MismatchModel::new(0.02, 7); // 2% devices, chip #7
/// let w = Tensor::ones(&[4]);
/// let realized = model.apply(&w, 0);
/// // Same chip, same layer: the draw is reproducible.
/// assert_eq!(realized, model.apply(&w, 0));
/// // A different chip realizes different devices.
/// assert_ne!(realized, MismatchModel::new(0.02, 8).apply(&w, 0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MismatchModel {
    sigma: f64,
    chip_seed: u64,
}

impl MismatchModel {
    /// Creates a mismatch model with relative device sigma `sigma`
    /// (e.g. 0.01 = 1 % devices) for the chip identified by `chip_seed`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite.
    pub fn new(sigma: f64, chip_seed: u64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "MismatchModel: sigma must be non-negative"
        );
        MismatchModel { sigma, chip_seed }
    }

    /// Relative device sigma.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Realizes a weight tensor on this chip: `w_i · (1 + δ_i)` with a
    /// per-layer deterministic draw (the same layer on the same chip
    /// always realizes the same devices).
    pub fn apply(&self, weights: &Tensor, layer_index: u64) -> Tensor {
        if self.sigma == 0.0 {
            return weights.clone();
        }
        let sigma = self.sigma as f32;
        let mut realized = weights.zeros_like();
        let mut r = rng::seeded(self.layer_seed(layer_index));
        rng::fill_standard_normal(&mut r, realized.data_mut());
        for (v, &w) in realized.data_mut().iter_mut().zip(weights.data()) {
            *v = w * (1.0 + sigma * *v);
        }
        realized
    }

    /// The per-output-activation error variance mismatch induces on a dot
    /// product of `n_tot` quantized products, assuming products with RMS
    /// `product_rms` (≤ 1 in DoReFa units): each term contributes
    /// `(δ_i·w_i·x_i)²`, so `Var ≈ n_tot · σ_mm² · product_rms²`.
    ///
    /// This is the bridge to the paper's framework: an *equivalent* ENOB
    /// can be assigned to a mismatch level via
    /// [`crate::composite::CompositeError`]-style inversion.
    ///
    /// # Panics
    ///
    /// Panics if `n_tot == 0` or `product_rms` is negative.
    pub fn dot_error_variance(&self, n_tot: usize, product_rms: f64) -> f64 {
        assert!(n_tot > 0, "dot_error_variance: n_tot must be positive");
        assert!(
            product_rms >= 0.0,
            "dot_error_variance: negative product rms"
        );
        n_tot as f64 * self.sigma * self.sigma * product_rms * product_rms
    }

    fn layer_seed(&self, layer_index: u64) -> u64 {
        // SplitMix-style mix of chip seed and layer index.
        let mut z = self.chip_seed ^ layer_index.wrapping_mul(0xD134_2543_DE82_EF95);
        z = (z ^ (z >> 31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^ (z >> 29)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sigma_is_identity() {
        let w = Tensor::from_vec(&[3], vec![0.5, -0.25, 1.0]).unwrap();
        assert_eq!(MismatchModel::new(0.0, 1).apply(&w, 0), w);
    }

    #[test]
    fn realized_spread_matches_sigma() {
        let model = MismatchModel::new(0.05, 3);
        let w = Tensor::ones(&[20_000]);
        let realized = model.apply(&w, 0);
        let mean = realized.mean();
        let var = realized
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / realized.len() as f32;
        assert!((mean - 1.0).abs() < 2e-3, "mean {mean}");
        assert!((var.sqrt() - 0.05).abs() < 2e-3, "std {}", var.sqrt());
    }

    #[test]
    fn different_layers_realize_different_devices() {
        let model = MismatchModel::new(0.05, 3);
        let w = Tensor::ones(&[16]);
        assert_ne!(model.apply(&w, 0), model.apply(&w, 1));
    }

    #[test]
    fn error_variance_scales_linearly_in_ntot() {
        let model = MismatchModel::new(0.01, 0);
        let a = model.dot_error_variance(100, 0.3);
        let b = model.dot_error_variance(200, 0.3);
        assert!((b / a - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mismatch_error_is_data_dependent() {
        // Same devices, different data ⇒ different error; zero data ⇒
        // zero error (contrast with the additive Gaussian model).
        let model = MismatchModel::new(0.05, 9);
        let w = Tensor::from_vec(&[4], vec![0.5, -0.5, 0.25, 1.0]).unwrap();
        let realized = model.apply(&w, 0);
        let err = realized.sub(&w);
        let dot_err = |x: &[f32]| -> f32 { err.data().iter().zip(x).map(|(e, xi)| e * xi).sum() };
        assert_eq!(dot_err(&[0.0; 4]), 0.0);
        assert_ne!(
            dot_err(&[1.0, 0.0, 0.0, 0.0]),
            dot_err(&[0.0, 1.0, 0.0, 0.0])
        );
    }
}
