//! Forward-pass Gaussian error injection (paper Fig. 3).
//!
//! The paper lumps the errors of all the VMACs contributing to one output
//! activation into a single additive, approximately Gaussian error injected
//! at the output of the digital summation — i.e. at the convolution output,
//! before batch normalization. Injection happens in the **forward pass
//! only**; the backward pass is untouched (the injector is not a layer and
//! has no gradient).

use ams_tensor::obs::WelfordState;
use ams_tensor::{rng, Tensor};
use rand::rngs::StdRng;

use crate::vmac::Vmac;

/// A positive f64 model σ that flushed to zero or subnormal when narrowed
/// to `f32` — injecting it would add silently-zero (or denormal) noise and
/// invalidate the experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigmaUnderflow {
    /// The exact model σ before narrowing.
    pub sigma: f64,
    /// What the σ narrowed to (zero or subnormal).
    pub narrowed: f32,
}

impl std::fmt::Display for SigmaUnderflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "error σ = {:.3e} underflows f32 (narrows to {:e}); injected noise \
             would be zero or denormal — the ENOB is too high for this n_tot",
            self.sigma, self.narrowed
        )
    }
}

impl std::error::Error for SigmaUnderflow {}

/// Narrows a model σ to `f32`, refusing one that underflows (very high
/// ENOB × small `n_tot`): zero noise would fake a perfect accelerator.
fn narrow_sigma(sigma: f64) -> Result<f32, SigmaUnderflow> {
    let narrowed = sigma as f32;
    if sigma > 0.0 && (narrowed == 0.0 || narrowed.is_subnormal()) {
        return Err(SigmaUnderflow { sigma, narrowed });
    }
    Ok(narrowed)
}

/// [`narrow_sigma`] that warns **loudly** on stderr instead of refusing.
pub(crate) fn checked_sigma_f32(sigma: f64, what: &str) -> f32 {
    narrow_sigma(sigma).unwrap_or_else(|e| {
        eprintln!("warning: {what}: {e}");
        e.narrowed
    })
}

/// Standard deviation of the lumped error for a layer needing `n_tot`
/// multiplies per output activation (paper Eq. 2, as a σ).
///
/// Convenience free function mirroring [`Vmac::total_error_sigma`] but
/// returning `f32` for direct use on activation tensors. If the f64 σ is
/// positive but flushes to zero/subnormal in f32, a loud warning is
/// printed to stderr (use [`layer_error_sigma_checked`] to handle that
/// case programmatically).
///
/// # Panics
///
/// Panics if `n_tot == 0`.
pub fn layer_error_sigma(vmac: &Vmac, n_tot: usize) -> f32 {
    checked_sigma_f32(vmac.total_error_sigma(n_tot), "layer_error_sigma")
}

/// Like [`layer_error_sigma`], but returns an error instead of warning
/// when the σ underflows f32.
///
/// # Errors
///
/// Returns [`SigmaUnderflow`] when the positive f64 σ narrows to zero or
/// a subnormal f32.
///
/// # Panics
///
/// Panics if `n_tot == 0`.
pub fn layer_error_sigma_checked(vmac: &Vmac, n_tot: usize) -> Result<f32, SigmaUnderflow> {
    narrow_sigma(vmac.total_error_sigma(n_tot))
}

/// A seeded source of additive Gaussian error: one per analog layer, so
/// one seed per layer reproduces its noise.
///
/// # Example
///
/// ```
/// use ams_core::inject::GaussianInjector;
/// use ams_core::vmac::Vmac;
/// use ams_tensor::Tensor;
///
/// let mut inj = GaussianInjector::new(7);
/// let vmac = Vmac::new(8, 8, 8, 10.0);
/// let mut acts = Tensor::zeros(&[1, 4, 8, 8]);
/// inj.inject(&mut acts, &vmac, 576);
/// assert!(acts.max_abs() > 0.0); // noise landed
/// ```
#[derive(Debug)]
pub struct GaussianInjector {
    rng: StdRng,
}

impl GaussianInjector {
    /// Creates an injector from a seed.
    pub fn new(seed: u64) -> Self {
        GaussianInjector {
            rng: rng::seeded(seed),
        }
    }

    /// Adds `N(0, σ²)` error to every element, with σ from the VMAC error
    /// model for a layer with `n_tot` multiplies per output activation.
    ///
    /// # Panics
    ///
    /// Panics if `n_tot == 0`.
    pub fn inject(&mut self, activations: &mut Tensor, vmac: &Vmac, n_tot: usize) {
        self.inject_sigma(activations, layer_error_sigma(vmac, n_tot));
    }

    /// Adds `N(0, σ²)` error with an explicit σ (used by tests and by
    /// callers that precompute per-layer σ once).
    ///
    /// A non-positive σ is a no-op, so callers can disable injection by
    /// zeroing the σ rather than branching.
    pub fn inject_sigma(&mut self, activations: &mut Tensor, sigma: f32) {
        self.inject_sigma_slice(activations.data_mut(), sigma, false);
    }

    /// [`GaussianInjector::inject_sigma`] over a raw slice — the same
    /// draws in the same order, so per-image slices injected one at a
    /// time (reseeding in between) reproduce batch-1 `inject_sigma` calls.
    ///
    /// With `trace` set, the injected samples are also summarized into
    /// the returned [`WelfordState`], drawing the **identical RNG
    /// stream**; a non-positive σ, or `trace` unset, returns an empty
    /// state.
    pub fn inject_sigma_slice(
        &mut self,
        activations: &mut [f32],
        sigma: f32,
        trace: bool,
    ) -> WelfordState {
        let mut stats = WelfordState::new();
        if sigma <= 0.0 {
            return stats;
        }
        let mut noise = [0.0f32; rng::NORMAL_BLOCK];
        for block in activations.chunks_mut(noise.len()) {
            let noise = &mut noise[..block.len()];
            rng::fill_standard_normal(&mut self.rng, noise);
            for (v, z) in block.iter_mut().zip(noise.iter_mut()) {
                *z *= sigma;
                *v += *z;
            }
            if trace {
                for &z in noise.iter() {
                    stats.push(f64::from(z));
                }
            }
        }
        stats
    }

    /// Reseeds the injector (each of the paper's five validation passes
    /// uses fresh noise; reseeding makes each pass independently
    /// reproducible).
    pub fn reseed(&mut self, seed: u64) {
        self.rng = rng::seeded(seed);
    }

    /// Snapshots the injector's stream cursor for a training checkpoint:
    /// restoring it resumes the noise stream bit-exactly where it left
    /// off (DESIGN.md §9).
    pub fn rng_state(&self) -> rng::RngState {
        rng::RngState::capture(&self.rng)
    }

    /// Repositions the injector at a previously captured stream cursor.
    pub fn restore_rng_state(&mut self, state: &rng::RngState) {
        self.rng = state.restore();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_noise_has_requested_sigma() {
        let mut inj = GaussianInjector::new(1);
        let vmac = Vmac::new(8, 8, 8, 9.0);
        let n_tot = 576;
        let sigma = layer_error_sigma(&vmac, n_tot);
        let mut t = Tensor::zeros(&[64, 16, 8, 8]);
        inj.inject(&mut t, &vmac, n_tot);
        let mean = t.mean();
        let var = t
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / t.len() as f32;
        assert!(mean.abs() < 0.02 * sigma.max(1.0), "mean {mean}");
        assert!(
            (var.sqrt() - sigma).abs() < 0.02 * sigma,
            "sigma {} vs expected {sigma}",
            var.sqrt()
        );
    }

    #[test]
    fn zero_sigma_is_noop() {
        let mut inj = GaussianInjector::new(2);
        let mut t = Tensor::ones(&[4, 4]);
        inj.inject_sigma(&mut t, 0.0);
        assert_eq!(t, Tensor::ones(&[4, 4]));
    }

    #[test]
    fn traced_injection_matches_untraced_stream() {
        let mut plain = GaussianInjector::new(11);
        let mut traced = GaussianInjector::new(11);
        let mut a = Tensor::zeros(&[4, 8, 8]);
        let mut b = Tensor::zeros(&[4, 8, 8]);
        let untraced = plain.inject_sigma_slice(a.data_mut(), 0.5, false);
        assert!(untraced.is_empty());
        let stats = traced.inject_sigma_slice(b.data_mut(), 0.5, true);
        assert_eq!(a, b, "tracing must not perturb the noise stream");
        assert_eq!(stats.count, a.len() as u64);
        assert!(stats.mean.abs() < 0.1);
        assert!((stats.sample_std() - 0.5).abs() < 0.05);
        // Zero sigma: no-op, empty summary.
        let empty = traced.inject_sigma_slice(b.data_mut(), 0.0, true);
        assert!(empty.is_empty());
    }

    #[test]
    fn injection_adds_scaled_scalar_draws_in_stream_order() {
        // The block loop draws exactly what one `standard_normal` per
        // element would, across partial blocks and calls.
        let sigma = 0.25;
        let mut inj = GaussianInjector::new(17);
        let mut expected = rng::seeded(17);
        for len in [1, 63, 64, 65, 200] {
            let mut acts = vec![1.0f32; len];
            inj.inject_sigma_slice(&mut acts, sigma, false);
            for &v in &acts {
                let want = 1.0 + sigma * rng::standard_normal(&mut expected);
                assert_eq!(v.to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn same_seed_same_noise() {
        let vmac = Vmac::new(8, 8, 8, 10.0);
        let mut a = Tensor::zeros(&[2, 2, 2, 2]);
        let mut b = Tensor::zeros(&[2, 2, 2, 2]);
        GaussianInjector::new(42).inject(&mut a, &vmac, 64);
        GaussianInjector::new(42).inject(&mut b, &vmac, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn reseed_restores_stream() {
        let mut inj = GaussianInjector::new(3);
        let mut first = Tensor::zeros(&[5]);
        inj.inject_sigma(&mut first, 1.0);
        inj.inject_sigma(&mut Tensor::zeros(&[5]), 1.0);
        inj.reseed(3);
        let mut again = Tensor::zeros(&[5]);
        inj.inject_sigma(&mut again, 1.0);
        assert_eq!(again, first);
    }

    #[test]
    fn sigma_underflow_is_an_error_not_silence() {
        // At extreme ENOB × tiny n_tot the f64 σ is positive but below
        // f32's smallest normal — the checked variant must refuse rather
        // than hand back a silently-useless σ.
        let vmac = Vmac::new(8, 8, 8, 140.0);
        let err = layer_error_sigma_checked(&vmac, 8).unwrap_err();
        assert!(err.sigma > 0.0);
        assert!(err.narrowed == 0.0 || err.narrowed.is_subnormal());
        assert!(err.to_string().contains("underflows f32"), "{err}");
        // The unchecked path narrows identically (plus a stderr warning),
        // so existing callers see unchanged values.
        assert_eq!(layer_error_sigma(&vmac, 8), err.narrowed);
    }

    #[test]
    fn normal_sigma_passes_checked_path() {
        let vmac = Vmac::new(8, 8, 8, 9.0);
        let sigma = layer_error_sigma_checked(&vmac, 576).unwrap();
        assert_eq!(sigma, layer_error_sigma(&vmac, 576));
        assert!(sigma > 0.0);
    }

    #[test]
    fn averaging_equivalence() {
        // Paper §2: averaging-based hardware divides the analog sum by
        // N_mult and rescales digitally; signal and noise scale equally,
        // so the *relative* injected error is identical. Model check:
        // σ(averaged then rescaled) == σ(addition-based).
        let vmac = Vmac::new(8, 8, 16, 10.0);
        let sigma_add = vmac.total_error_sigma(1024);
        // Averaging: full-scale shrinks by N_mult ⇒ LSB and σ shrink by
        // N_mult; digital rescale multiplies back by N_mult.
        let sigma_avg_rescaled =
            (vmac.total_error_sigma(1024) / vmac.n_mult as f64) * vmac.n_mult as f64;
        assert!((sigma_add - sigma_avg_rescaled).abs() < 1e-15);
    }
}
