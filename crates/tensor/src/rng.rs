//! Seeded random sources and weight initializers.
//!
//! Everything in the workspace that is stochastic — dataset generation,
//! weight initialization, AMS error injection — draws from an explicitly
//! seeded [`rand::rngs::StdRng`], so every experiment is reproducible from a
//! single `u64` seed.

use std::f32::consts::TAU;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::tensor::Tensor;

/// Creates a deterministic random generator from a `u64` seed.
///
/// # Example
///
/// ```
/// use rand::Rng;
/// let mut a = ams_tensor::rng::seeded(7);
/// let mut b = ams_tensor::rng::seeded(7);
/// assert_eq!(a.gen::<u32>(), b.gen::<u32>());
/// ```
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A serializable snapshot of a [`StdRng`]'s exact position in its
/// stream — the "RNG stream cursor" of the crash-safe resume protocol
/// (DESIGN.md §9).
///
/// Capturing the state and later restoring it yields a generator whose
/// next draw continues the original stream bit-exactly, so a training run
/// checkpointed at an epoch boundary and resumed in a fresh process
/// replays the identical shuffles, augmentations and injected noise it
/// would have produced uninterrupted.
///
/// # Example
///
/// ```
/// use rand::Rng;
/// use ams_tensor::rng::{seeded, RngState};
///
/// let mut a = seeded(7);
/// a.gen::<u64>(); // advance the stream
/// let cursor = RngState::capture(&a);
/// let mut b = cursor.restore();
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RngState {
    /// Raw xoshiro256++ state words.
    words: [u64; 4],
}

impl RngState {
    /// Snapshots the generator's current stream position.
    pub fn capture(rng: &StdRng) -> Self {
        RngState { words: rng.state() }
    }

    /// Rebuilds a generator positioned exactly at the captured cursor.
    pub fn restore(&self) -> StdRng {
        StdRng::from_state(self.words)
    }
}

/// Draws one standard-normal sample using the Box–Muller transform.
///
/// `rand` alone provides only uniform sources; the Gaussian needed by the
/// AMS error injector (paper Eq. 2 treats the total error as approximately
/// normal) is synthesized here rather than adding a distribution crate.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Avoid ln(0) by sampling u1 from the open interval (0, 1].
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let angle = TAU * rng.gen::<f32>();
    (-2.0 * u1.ln()).sqrt() * cos_tau(angle)
}

/// Samples per block of [`fill_standard_normal`]: its angle buffer lives
/// on the stack, and callers that block their own loops use the same
/// size.
pub const NORMAL_BLOCK: usize = 64;

/// Fills `out` with standard-normal samples, bit-identical to
/// `out.len()` successive [`standard_normal`] calls and leaving `rng` at
/// the same stream position.
///
/// The samples are drawn in blocks of [`NORMAL_BLOCK`], in passes: first the uniforms
/// in the same order as [`standard_normal`] (the only serial part), then
/// the radii `√(−2 ln u₁)`, then the cosines and the products. The passes
/// after the first carry no dependency from one sample to the next.
pub fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32]) {
    let mut angles = [0.0f32; NORMAL_BLOCK];
    for block in out.chunks_mut(NORMAL_BLOCK) {
        let angles = &mut angles[..block.len()];
        for (u1, angle) in block.iter_mut().zip(angles.iter_mut()) {
            *u1 = 1.0 - rng.gen::<f32>();
            *angle = TAU * rng.gen::<f32>();
        }
        for v in block.iter_mut() {
            *v = (-2.0 * v.ln()).sqrt();
        }
        for (v, &angle) in block.iter_mut().zip(angles.iter()) {
            *v *= cos_tau(angle);
        }
    }
}

/// `f64::from_bits` of glibc's `__sincosf_table[0]` entries
/// (`sysdeps/ieee754/flt-32/sincosf_data.c`): π/2, the cosine polynomial
/// `C0..C4` and the sine polynomial `S1..S3`. Table 1 is table 0 with the
/// cosine polynomial negated, which [`cos_tau`] applies as a sign flip.
const HALF_PI: f64 = f64::from_bits(0x3ff9_21fb_5444_2d18);
const COS_C: [f64; 5] = [
    1.0,
    f64::from_bits(0xbfdf_ffff_fd0c_621c),
    f64::from_bits(0x3fa5_5553_e106_8f19),
    f64::from_bits(0xbf56_c087_e89a_359d),
    f64::from_bits(0x3ef9_9343_027b_f8c3),
];
const SIN_S: [f64; 3] = [
    f64::from_bits(0xbfc5_5554_5995_a603),
    f64::from_bits(0x3f81_1076_0523_0bc4),
    f64::from_bits(0xbf29_94eb_3774_cf24),
];

/// The smallest `f32` arguments at which glibc's quadrant
/// `((int)(x · 2²⁴ · 2/π) + 2²³) >> 24` reaches 1, 2, 3 and 4.
const QUADRANT_STEPS: [u32; 4] = [0x3f49_0fdb, 0x4016_cbe4, 0x407b_53d2, 0x40af_ede0];

/// Below this argument glibc's `cosf` returns exactly 1 (2⁻¹²).
const COS_TINY: u32 = 0x3980_0000;

/// `cos(angle)` for `angle` in `[0, 2π)`, bit-identical to glibc 2.36's
/// `cosf` (`sysdeps/ieee754/flt-32/s_cosf.c` with `sincosf.h`) on that
/// range, without its branches.
///
/// glibc reduces the argument by the nearest multiple `n` of π/2 in f64,
/// then evaluates the sine or the cosine polynomial by `n`'s parity and
/// negates by `n`'s second bit. Here the quadrant comes from four
/// comparisons, both polynomials are evaluated in glibc's operation
/// order, and the result is selected and signed with bit masks, so a
/// uniformly random angle costs no mispredicted branch. Outside
/// `[0, 2π)` the result is not glibc's.
pub fn cos_tau(angle: f32) -> f32 {
    let n = QUADRANT_STEPS
        .iter()
        .map(|&step| u32::from(angle >= f32::from_bits(step)))
        .sum::<u32>();
    let x = f64::from(angle) - f64::from(n) * HALF_PI;
    let x2 = x * x;
    let x3 = x * x2;
    let x4 = x2 * x2;
    let sin = (x + x3 * SIN_S[0]) + x3 * x2 * (SIN_S[1] + x2 * SIN_S[2]);
    let cos = (COS_C[0] + x2 * COS_C[1]) + x4 * COS_C[2] + x4 * x2 * (COS_C[3] + x2 * COS_C[4]);
    // Odd quadrants take the sine; quadrants 1 and 2 are negative.
    let odd = u64::from(n & 1).wrapping_neg();
    let negate = u64::from(((n + 1) >> 1) & 1) << 63;
    let picked = (sin.to_bits() & odd) | (cos.to_bits() & !odd);
    let value = f64::from_bits(picked ^ negate) as f32;
    if angle < f32::from_bits(COS_TINY) {
        1.0
    } else {
        value
    }
}

/// Fills a tensor with independent `U(lo, hi)` samples.
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn fill_uniform<R: Rng + ?Sized>(t: &mut Tensor, lo: f32, hi: f32, rng: &mut R) {
    assert!(lo <= hi, "fill_uniform: lo {lo} > hi {hi}");
    for v in t.data_mut() {
        *v = lo + (hi - lo) * rng.gen::<f32>();
    }
}

/// Fills a tensor with independent `N(mean, std²)` samples.
///
/// # Panics
///
/// Panics if `std` is negative.
pub fn fill_normal<R: Rng + ?Sized>(t: &mut Tensor, mean: f32, std: f32, rng: &mut R) {
    assert!(std >= 0.0, "fill_normal: negative std {std}");
    let data = t.data_mut();
    fill_standard_normal(rng, data);
    for v in data {
        *v = mean + std * *v;
    }
}

/// Kaiming/He normal initialization for layers followed by a ReLU:
/// `N(0, 2 / fan_in)`.
///
/// # Panics
///
/// Panics if `fan_in == 0`.
pub fn fill_kaiming<R: Rng + ?Sized>(t: &mut Tensor, fan_in: usize, rng: &mut R) {
    assert!(fan_in > 0, "fill_kaiming: fan_in must be positive");
    let std = (2.0 / fan_in as f32).sqrt();
    fill_normal(t, 0.0, std, rng);
}

/// Xavier/Glorot uniform initialization: `U(±√(6 / (fan_in + fan_out)))`.
///
/// # Panics
///
/// Panics if `fan_in + fan_out == 0`.
pub fn fill_xavier<R: Rng + ?Sized>(t: &mut Tensor, fan_in: usize, fan_out: usize, rng: &mut R) {
    assert!(fan_in + fan_out > 0, "fill_xavier: zero fan");
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    fill_uniform(t, -bound, bound, rng);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(123);
        let mut b = seeded(123);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn rng_state_round_trips_through_serde_mid_stream() {
        let mut rng = seeded(42);
        // Advance through a mixed draw pattern like training does.
        for _ in 0..100 {
            standard_normal(&mut rng);
        }
        rng.gen_range(0..17);
        let state = RngState::capture(&rng);
        let json = serde_json::to_string(&state).unwrap();
        let restored: RngState = serde_json::from_str(&json).unwrap();
        let mut replay = restored.restore();
        for _ in 0..64 {
            assert_eq!(rng.gen::<u64>(), replay.gen::<u64>());
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = seeded(5);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = seeded(9);
        let mut t = Tensor::zeros(&[1000]);
        fill_uniform(&mut t, -0.25, 0.75, &mut rng);
        assert!(t.min() >= -0.25 && t.max() <= 0.75);
    }

    #[test]
    fn kaiming_std_scales_with_fan_in() {
        let mut rng = seeded(11);
        let mut t = Tensor::zeros(&[4096]);
        fill_kaiming(&mut t, 128, &mut rng);
        let var = t.data().iter().map(|x| x * x).sum::<f32>() / t.len() as f32;
        let expected = 2.0 / 128.0;
        assert!(
            (var - expected).abs() < expected * 0.2,
            "var {var} vs {expected}"
        );
    }
}
