//! The convolution forward lowers one image at a time straight into the
//! f32 GEMM's rhs panel and multiplies into the NCHW output, with and
//! without a training cache. Both must equal the batch im2col path
//! (`im2col`, `matmul_hinted_in`, bias, NCHW transpose — written out here
//! as the oracle) bit for bit, at any thread count, on every kernel the
//! weight density picks; and the lowering must equal
//! `pack_rhs_in(im2col(image))` bit for bit. Comparisons go through
//! `f32::to_bits`, so a `-0.0` that turns into `0.0` fails.

use ams_nn::functional::conv2d_forward;
use ams_tensor::{
    im2col, mat_to_nchw, matmul_hinted_in, pack_rhs_in, rng, ConvGeom, Density, ExecCtx,
    Im2colPanel, Parallelism, Tensor,
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

/// How the weight matrix is built.
#[derive(Debug, Clone, Copy)]
enum Weights {
    /// Mostly nonzero: the dense microkernel.
    Dense,
    /// Two thirds zeros, a third of those `-0.0`: the zero-skipping one.
    Sparse,
}

fn weights(kind: Weights, c_out: usize, kdim: usize, seed: u64) -> Tensor {
    let mut w = random(&[c_out, kdim], seed);
    if let Weights::Sparse = kind {
        for (i, v) in w.data_mut().iter_mut().enumerate() {
            match i % 3 {
                0 => *v = 0.0,
                1 if i % 2 == 0 => *v = -0.0,
                1 => *v = 0.0,
                _ => {}
            }
        }
        assert!(Density::measure(w.data()) == Density::Sparse);
    }
    w
}

/// `x` with one `+∞` activation. `0·∞` is NaN, so the zero-skipping and
/// the dense microkernel then disagree bitwise wherever a zero weight
/// meets it: the per-image path must pick the kernel the batch path picks.
fn with_inf(mut x: Tensor, seed: u64) -> Tensor {
    let at = seed as usize % x.len();
    x.data_mut()[at] = f32::INFINITY;
    x
}

/// The batch im2col forward, serially: `W · im2col(x)` plus bias, as NCHW.
fn batch_forward(
    x: &Tensor,
    w: &Tensor,
    density: Density,
    bias: Option<&[f32]>,
    geom: &ConvGeom,
) -> Tensor {
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
    mat_to_nchw(&ymat, geom, w.dims()[0])
}

/// Runs the eval conv at `threads` and the train conv serially, checks
/// both against the batch forward, and the lowering against
/// `pack_rhs_in(im2col)`.
#[allow(clippy::too_many_arguments)]
fn check(
    x: &Tensor,
    w: &Tensor,
    density: Density,
    bias: Option<&[f32]>,
    k: usize,
    stride: usize,
    pad: usize,
    threads: usize,
) -> Result<(), TestCaseError> {
    let serial = ExecCtx::serial();
    let (n, c, h, wd) = x.dims4();
    let geom = ConvGeom::new(n, c, h, wd, k, k, stride, pad);
    let want = batch_forward(x, w, density, bias, &geom);
    let (train, cache) = conv2d_forward(&serial, x, w, density, bias, k, k, stride, pad, true);
    prop_assert!(cache.is_some());
    prop_assert_eq!(bits(train.data()), bits(want.data()));
    let ctx = eager(threads);
    let (got, none) = conv2d_forward(&ctx, x, w, density, bias, k, k, stride, pad, false);
    prop_assert!(none.is_none());
    prop_assert_eq!(got.dims(), want.dims());
    prop_assert_eq!(bits(got.data()), bits(want.data()));
    if threads > 1 && n > 1 {
        prop_assert!(ctx.parallel_dispatch_count() > 0, "images were not split");
    }

    // One scratch reused across the batch, as a worker reuses it.
    let one = ConvGeom::new(1, c, h, wd, k, k, stride, pad);
    let ws = serial.workspace();
    let mut lowering = Im2colPanel::take(ws, &geom);
    let len = c * h * wd;
    for i in 0..n {
        let image = &x.data()[i * len..(i + 1) * len];
        let xi = Tensor::from_vec(&[1, c, h, wd], image.to_vec()).unwrap();
        let want = pack_rhs_in(ws, &im2col(&xi, &one));
        prop_assert_eq!(bits(lowering.lower(image)), bits(&want), "image {}", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Kernels 1/3/5, padding 0–2, strides 1–2, batches 1–3, ragged
    /// `C_out` and pixel counts, dense and sparse weights (both density
    /// hints), bias on and off, an infinite activation in a quarter of
    /// the cases, at 1, 2 and 8 threads.
    #[test]
    fn eval_conv_equals_train_conv_bit_for_bit(
        n in 1usize..4,
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
        let (k, threads) = ([1, 3, 5][kernel], [1, 2, 8][threads]);
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let kind = if sparse == 1 { Weights::Sparse } else { Weights::Dense };
        let mut x = random(&[n, c_in, h, w], seed);
        if inf == 0 {
            x = with_inf(x, seed);
        }
        let wm = weights(kind, c_out, c_in * k * k, seed + 1);
        let density = if measured == 1 { Density::measure(wm.data()) } else { Density::Sample };
        let bias = random(&[c_out], seed + 2);
        let bias = (with_bias == 1).then_some(bias.data());
        check(&x, &wm, density, bias, k, stride, pad, threads)?;
    }
}

/// Fixed shapes that pin the edges the generator only samples: an
/// `OH·OW` that is a multiple of the sliver width and one that is not
/// (5×7), `C_out` off the band height, and products below the tiled
/// kernel's size gate (where the batch path takes the naive loop),
/// each with finite inputs and with an infinite activation.
#[test]
fn eval_conv_edges_equal_train_conv() {
    // (n, c_in, c_out, h, w, k, stride, pad)
    let cases = [
        (3, 3, 5, 8, 8, 3, 1, 1),  // 64 pixels: whole slivers
        (2, 4, 7, 5, 7, 3, 1, 1),  // 35 pixels: ragged last sliver
        (2, 2, 3, 5, 7, 1, 1, 0),  // 1×1 kernel, slivers wrap rows
        (3, 3, 6, 9, 13, 3, 2, 1), // stride 2, 5×7 output
        (1, 2, 9, 5, 5, 5, 1, 2),  // 5×5 kernel, pad 2
        (1, 1, 2, 3, 3, 3, 1, 1),  // 2·9·9 = 162 < TILE_GATE
        (2, 1, 1, 4, 4, 1, 2, 0),  // 1×1 stride-2 projection, 4 pixels
    ];
    for (i, &(n, c_in, c_out, h, w, k, stride, pad)) in cases.iter().enumerate() {
        let finite = random(&[n, c_in, h, w], i as u64);
        for x in [finite.clone(), with_inf(finite, i as u64)] {
            for kind in [Weights::Dense, Weights::Sparse] {
                let wm = weights(kind, c_out, c_in * k * k, 100 + i as u64);
                let bias = random(&[c_out], 200 + i as u64);
                for threads in [1, 2, 8] {
                    for b in [None, Some(bias.data())] {
                        for density in [Density::Sample, Density::measure(wm.data())] {
                            check(&x, &wm, density, b, k, stride, pad, threads)
                                .unwrap_or_else(|e| panic!("case {i} {kind:?} t={threads}: {e:?}"));
                        }
                    }
                }
            }
        }
    }
}

/// An image with no pixels and a padded kernel reads only padding: the
/// per-image path returns the bias, like the batch path.
#[test]
fn empty_image_reads_only_padding() {
    let x = Tensor::zeros(&[2, 3, 0, 0]);
    let wm = random(&[4, 3], 1);
    let bias = random(&[4], 2);
    let b = Some(bias.data());
    for threads in [1, 2] {
        check(&x, &wm, Density::Sample, b, 1, 1, 1, threads).expect("empty image");
    }
}
