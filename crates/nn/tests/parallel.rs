//! Parallel ≡ serial determinism of the layer cores: the [`ExecCtx`]
//! contract promises bit-identical outputs for any thread count, so these
//! tests compare with `assert_eq!` — no tolerances.

use ams_nn::functional::{
    conv2d_backward, conv2d_forward, linear_backward, linear_forward, ConvCache, LinearCache,
};
use ams_tensor::{rng, ConvGeom, Density, ExecCtx, Parallelism, Tensor};
use proptest::prelude::*;

fn random(dims: &[usize], seed: u64) -> Tensor {
    let mut t = Tensor::zeros(dims);
    let mut r = rng::seeded(seed);
    rng::fill_uniform(&mut t, -1.0, 1.0, &mut r);
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Forward and backward convolution are bit-identical across thread
    /// counts for arbitrary geometries.
    #[test]
    fn conv_cores_bit_identical(
        n in 1usize..3,
        c_in in 1usize..4,
        c_out in 1usize..5,
        hw in 4usize..8,
        k in 1usize..4,
        threads in 2usize..9,
        seed in 0u64..500,
    ) {
        prop_assume!(hw >= k);
        let x = random(&[n, c_in, hw, hw], seed);
        let wmat = random(&[c_out, c_in * k * k], seed + 1);
        let geom = ConvGeom::new(n, c_in, hw, hw, k, k, 1, k / 2);
        let serial = ExecCtx::serial();
        let par = ExecCtx::new(Parallelism { threads, min_work: 0 });

        let y_s = conv2d_forward(&serial, &x, &wmat, Density::Sample, &geom);
        let y_p = conv2d_forward(&par, &x, &wmat, Density::Sample, &geom);
        prop_assert_eq!(&y_s, &y_p);

        let grad = random(y_s.dims(), seed + 3);
        let cache = ConvCache { input: x, geom, weight_mat: wmat };
        let (dx_s, dw_s) = conv2d_backward(&serial, &cache, &grad);
        let (dx_p, dw_p) = conv2d_backward(&par, &cache, &grad);
        prop_assert_eq!(dx_s, dx_p);
        prop_assert_eq!(dw_s, dw_p);
    }

    /// Forward and backward linear are bit-identical across thread counts.
    #[test]
    fn linear_cores_bit_identical(
        batch in 1usize..9,
        d_in in 1usize..12,
        d_out in 1usize..12,
        threads in 2usize..9,
        seed in 0u64..500,
    ) {
        let x = random(&[batch, d_in], seed);
        let w = random(&[d_out, d_in], seed + 1);
        let bias = random(&[d_out], seed + 2);
        let serial = ExecCtx::serial();
        let par = ExecCtx::new(Parallelism { threads, min_work: 0 });

        let y_s = linear_forward(&serial, &x, &w, bias.data());
        let y_p = linear_forward(&par, &x, &w, bias.data());
        prop_assert_eq!(&y_s, &y_p);

        let grad = random(y_s.dims(), seed + 3);
        let cache = LinearCache { input: x, weight: w };
        let (dx_s, dw_s, db_s) = linear_backward(&serial, &cache, &grad);
        let (dx_p, dw_p, db_p) = linear_backward(&par, &cache, &grad);
        prop_assert_eq!(dx_s, dx_p);
        prop_assert_eq!(dw_s, dw_p);
        prop_assert_eq!(db_s, db_p);
    }
}
