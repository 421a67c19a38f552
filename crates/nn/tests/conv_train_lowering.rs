//! The training convolution runs on the per-image lowering: its forward is
//! the eval forward, its cache keeps the input instead of the batch's
//! column matrix, and its backward works one image at a time. Forward
//! and all three gradients must equal the batch im2col path bit for bit,
//! at any thread count. The oracle here is that batch path, written out
//! with the public kernels: `im2col` → `matmul_hinted_in` → NCHW for the
//! forward, and for the backward an NCHW → `(C_out, N·OH·OW)` transpose,
//! `matmul_a_bt` against the columns (dW), `matmul_at_b` by the weights
//! then `col2im` (dX), and a per-channel `Iterator::sum` (dbias).
//! Comparisons go through `f32::to_bits`, so a `-0.0` that turns into
//! `0.0` fails.

use ams_nn::functional::{conv2d_backward, conv2d_forward};
use ams_tensor::{
    col2im, im2col, mat_to_nchw, matmul_a_bt, matmul_at_b, matmul_hinted_in, rng, ConvGeom,
    Density, ExecCtx, Parallelism, Tensor,
};
use proptest::prelude::*;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn eager(threads: usize) -> ExecCtx {
    ExecCtx::new(Parallelism {
        threads,
        min_work: 0,
    })
}

/// Uniform values in `[-1, 1)`, with a `-0.0` and a `0.0` sprinkled in.
fn random(dims: &[usize], seed: u64) -> Tensor {
    let mut t = Tensor::zeros(dims);
    rng::fill_uniform(&mut t, -1.0, 1.0, &mut rng::seeded(seed));
    for (i, v) in t.data_mut().iter_mut().enumerate() {
        match i % 11 {
            3 => *v = -0.0,
            7 => *v = 0.0,
            _ => {}
        }
    }
    t
}

/// Weights with two thirds zeros, a third of those `-0.0`, when `sparse`.
fn weights(sparse: bool, c_out: usize, kdim: usize, seed: u64) -> Tensor {
    let mut w = random(&[c_out, kdim], seed);
    if sparse {
        for (i, v) in w.data_mut().iter_mut().enumerate() {
            match i % 3 {
                0 => *v = 0.0,
                1 if i % 2 == 0 => *v = -0.0,
                1 => *v = 0.0,
                _ => {}
            }
        }
    }
    w
}

/// `dy` with one `+∞` gradient. `0·∞` is NaN, so the input gradient must
/// skip zero weights exactly where `matmul_at_b` skips them.
fn with_inf(mut dy: Tensor, seed: u64) -> Tensor {
    if !dy.is_empty() {
        let at = seed as usize % dy.len();
        dy.data_mut()[at] = f32::INFINITY;
    }
    dy
}

/// The batch im2col forward and backward, serially: `(y, dx, dw, db)`.
#[allow(clippy::too_many_arguments)]
fn batch_path(
    x: &Tensor,
    w: &Tensor,
    density: Density,
    bias: Option<&[f32]>,
    geom: &ConvGeom,
    dy: &Tensor,
) -> (Tensor, Tensor, Tensor, Vec<f32>) {
    let c_out = w.dims()[0];
    let cols = im2col(x, geom);
    let mut ymat = matmul_hinted_in(&ExecCtx::serial(), w, &cols, density);
    if let Some(b) = bias {
        let len = geom.cols();
        for (co, &bv) in b.iter().enumerate() {
            for v in &mut ymat.data_mut()[co * len..(co + 1) * len] {
                *v += bv;
            }
        }
    }
    let y = mat_to_nchw(&ymat, geom, c_out);

    let plane = geom.oh * geom.ow;
    let mut dymat = Tensor::zeros(&[c_out, geom.cols()]);
    for co in 0..c_out {
        for ni in 0..geom.n {
            let src = &dy.data()[(ni * c_out + co) * plane..(ni * c_out + co + 1) * plane];
            let at = co * geom.cols() + ni * plane;
            dymat.data_mut()[at..at + plane].copy_from_slice(src);
        }
    }
    let dw = matmul_a_bt(&dymat, &cols);
    let dx = col2im(&matmul_at_b(w, &dymat), geom);
    let ncols = geom.cols();
    let db = (0..c_out)
        .map(|co| dymat.data()[co * ncols..(co + 1) * ncols].iter().sum())
        .collect();
    (y, dx, dw, db)
}

/// Runs the training conv at `threads` and checks forward and backward
/// against the serial batch path.
#[allow(clippy::too_many_arguments)]
fn check(
    x: &Tensor,
    w: &Tensor,
    density: Density,
    bias: Option<&[f32]>,
    k: usize,
    stride: usize,
    pad: usize,
    dy_inf: bool,
    threads: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let (n, c, h, wd) = x.dims4();
    let geom = ConvGeom::new(n, c, h, wd, k, k, stride, pad);
    let c_out = w.dims()[0];
    let mut dy = random(&[n, c_out, geom.oh, geom.ow], seed + 7);
    if dy_inf {
        dy = with_inf(dy, seed);
    }
    let (want_y, want_dx, want_dw, want_db) = batch_path(x, w, density, bias, &geom, &dy);

    let ctx = eager(threads);
    let (y, cache) = conv2d_forward(&ctx, x, w, density, bias, k, k, stride, pad, true);
    let cache = cache.expect("a train forward returns its cache");
    prop_assert_eq!(cache.input.dims(), x.dims());
    prop_assert_eq!(y.dims(), want_y.dims());
    prop_assert_eq!(bits(y.data()), bits(want_y.data()), "forward");
    let (dx, dw, db) = conv2d_backward(&ctx, &cache, &dy);
    prop_assert_eq!(dx.dims(), x.dims());
    prop_assert_eq!(bits(dx.data()), bits(want_dx.data()), "d_input");
    prop_assert_eq!(dw.dims(), want_dw.dims());
    prop_assert_eq!(bits(dw.data()), bits(want_dw.data()), "d_weight");
    prop_assert_eq!(bits(&db), bits(&want_db), "d_bias");
    if threads > 1 && n > 1 {
        prop_assert!(ctx.parallel_dispatch_count() > 0, "work was not split");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Kernels 1/3/5, padding 0–2, strides 1–2, batches of 0, 1 and 7,
    /// ragged `C_out` and pixel counts, dense and sparse weights (both
    /// density hints), bias on and off, an infinite output gradient in a
    /// quarter of the cases, at 1, 2 and 8 threads.
    #[test]
    fn train_conv_equals_the_batch_path_bit_for_bit(
        batch in 0usize..3,
        c_in in 1usize..5,
        c_out in 1usize..10,
        h in 1usize..11,
        w in 1usize..11,
        kernel in 0usize..3,
        pad in 0usize..3,
        stride in 1usize..3,
        sparse in 0u8..2,
        measured in 0u8..2,
        with_bias in 0u8..2,
        inf in 0u8..4,
        threads in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let (n, k, threads) = ([0, 1, 7][batch], [1, 3, 5][kernel], [1, 2, 8][threads]);
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let x = random(&[n, c_in, h, w], seed);
        let wm = weights(sparse == 1, c_out, c_in * k * k, seed + 1);
        let density = if measured == 1 { Density::measure(wm.data()) } else { Density::Sample };
        let bias = random(&[c_out], seed + 2);
        let bias = (with_bias == 1).then_some(bias.data());
        check(&x, &wm, density, bias, k, stride, pad, inf == 0, threads, seed)?;
    }
}

/// Fixed shapes that pin what the generator only samples: more taps than
/// one sliver with a ragged last one (`C·K² = 27`, `75`), an `OH·OW` that
/// is a multiple of the sliver width and one that is not, `C_out` off the
/// band height, a 1×1 stride-2 projection, products below the tiled
/// kernel's size gate, and an empty batch; each with sparse and dense
/// weights, finite and infinite gradients, at 1, 2 and 8 threads.
#[test]
fn train_conv_edges_equal_the_batch_path() {
    // (n, c_in, c_out, h, w, k, stride, pad)
    let cases = [
        (7, 3, 5, 8, 8, 3, 1, 1),  // 27 taps, 64 pixels
        (2, 4, 7, 5, 7, 3, 1, 1),  // 36 taps, 35 pixels
        (3, 3, 6, 9, 13, 3, 2, 1), // stride 2, 5×7 output
        (2, 3, 9, 5, 5, 5, 1, 2),  // 75 taps, 5×5 kernel, pad 2
        (7, 2, 3, 4, 4, 1, 2, 0),  // 1×1 stride-2 projection
        (1, 1, 2, 3, 3, 3, 1, 1),  // 9 taps, below the tile gate
        (0, 3, 4, 6, 6, 3, 1, 1),  // empty batch
    ];
    for (i, &(n, c_in, c_out, h, w, k, stride, pad)) in cases.iter().enumerate() {
        let seed = i as u64;
        let x = random(&[n, c_in, h, w], seed);
        let bias = random(&[c_out], 200 + seed);
        for sparse in [false, true] {
            let wm = weights(sparse, c_out, c_in * k * k, 100 + seed);
            for dy_inf in [false, true] {
                for threads in [1, 2, 8] {
                    for b in [None, Some(bias.data())] {
                        let density = Density::measure(wm.data());
                        check(&x, &wm, density, b, k, stride, pad, dy_inf, threads, seed)
                            .unwrap_or_else(|e| {
                                panic!("case {i} sparse={sparse} inf={dy_inf} t={threads}: {e:?}")
                            });
                    }
                }
            }
        }
    }
}
