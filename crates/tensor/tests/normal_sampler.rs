//! The block Gaussian sampler against the scalar one, and its cosine
//! against the host libm.

use std::f32::consts::TAU;

use ams_tensor::rng::{cos_tau, fill_standard_normal, seeded, standard_normal, RngState};
use proptest::prelude::*;

/// Every angle Box–Muller can reach: `TAU * u` for each of the 2²⁴
/// uniforms `u = j · 2⁻²⁴` that `gen::<f32>()` produces. `cos_tau` ports
/// glibc's `cosf`, so on a glibc host it must agree bit for bit.
#[test]
fn cos_tau_matches_libm_on_every_reachable_angle() {
    let mut mismatches = Vec::new();
    for j in 0..1u32 << 24 {
        let angle = TAU * (j as f32 * (1.0 / (1u32 << 24) as f32));
        let (got, want) = (cos_tau(angle), angle.cos());
        if got.to_bits() != want.to_bits() {
            mismatches.push((j, angle, got, want));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} mismatches, first: {:?}",
        mismatches.len(),
        &mismatches[..mismatches.len().min(5)]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `fill_standard_normal` is `out.len()` scalar draws, bit for bit,
    /// and leaves the stream where they would.
    #[test]
    fn block_sampler_matches_scalar_draws(seed in 0u64..u64::MAX, len in 0usize..=1000) {
        for n in [0, 1, 63, 64, 65, len] {
            let mut block_rng = seeded(seed);
            let mut block = vec![0.0f32; n];
            fill_standard_normal(&mut block_rng, &mut block);
            let mut scalar_rng = seeded(seed);
            for (i, &b) in block.iter().enumerate() {
                let s = standard_normal(&mut scalar_rng);
                prop_assert_eq!(b.to_bits(), s.to_bits(), "n {} sample {}", n, i);
            }
            prop_assert_eq!(RngState::capture(&block_rng), RngState::capture(&scalar_rng));
        }
    }
}
