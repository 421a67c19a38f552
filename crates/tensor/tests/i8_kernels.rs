//! Round-trip and overflow properties of the i8 GEMM panel layout.
//!
//! The integer kernel packs its lhs row-major and its rhs
//! transpose-widened into k-contiguous i16 columns; these tests pin the
//! layout with the public `pack_*`/`unpack_*` pairs (inverse on every
//! shape, including remainder tiles around the packing block size), pin
//! the fused code-and-lower panel of the i8 convolution to the
//! im2col → quantize → pack composition it replaces, check the
//! panel-taking GEMM against the serial oracle, and pin the split-K
//! accumulator widening at reductions long enough that a plain i32
//! accumulator would wrap.

use ams_tensor::rng;
use ams_tensor::{
    code_im2row_i16_in, im2col_in, matmul_i8_in, matmul_i8_panels_in, matmul_i8_reference,
    pack_cols_i16, pack_rows_i16, quantize_symmetric_i8, unpack_cols_i16, unpack_rows_i16,
    ConvGeom, ExecCtx, Parallelism, Tensor,
};
use proptest::prelude::*;
use rand::Rng;

const THREADS: [usize; 4] = [1, 2, 3, 8];

/// Seeded codes over the full i8 range, rails included.
fn codes(len: usize, seed: u64) -> Vec<i8> {
    let mut r = rng::seeded(seed);
    (0..len)
        .map(|_| (r.gen_range(0..256) as i32 - 128) as i8)
        .collect()
}

/// A context that splits every op across `threads` workers.
fn eager(threads: usize) -> ExecCtx {
    ExecCtx::new(Parallelism {
        threads,
        min_work: 0,
    })
}

/// The composition the fused lowering replaces: the f32 column matrix,
/// coded onto the i8 grid, transpose-widened into k-contiguous columns.
fn lowered_the_old_way(x: &Tensor, geom: &ConvGeom) -> (Vec<i16>, f32) {
    let cols = im2col_in(&ExecCtx::serial(), x, geom);
    let (codes, scale) = quantize_symmetric_i8(cols.data());
    let mut panel = vec![0i16; codes.len()];
    pack_cols_i16(&codes, geom.rows(), geom.cols(), &mut panel);
    (panel, scale)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Row panels: pack then unpack is the identity, and packing is a
    /// pure widening (the panel holds exactly the codes, order intact).
    #[test]
    fn row_panel_round_trips(
        m in 1usize..40,
        k in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let src = codes(m * k, seed);
        let mut panel = vec![0i16; m * k];
        pack_rows_i16(&src, &mut panel);
        for (p, &c) in panel.iter().zip(&src) {
            prop_assert_eq!(*p, i16::from(c));
        }
        let mut back = vec![0i8; m * k];
        unpack_rows_i16(&panel, &mut back);
        prop_assert_eq!(back, src);
    }

    /// Column panels: the transpose-widen and its inverse round-trip on
    /// every shape, including `kdim` straddling the internal packing
    /// block, and the panel layout is exactly
    /// `panel[j·kdim + kk] = src[kk·n + j]`.
    #[test]
    fn col_panel_round_trips(
        kdim in 1usize..100,
        n in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let src = codes(kdim * n, seed);
        let mut panel = vec![0i16; kdim * n];
        pack_cols_i16(&src, kdim, n, &mut panel);
        for j in 0..n {
            for kk in 0..kdim {
                prop_assert_eq!(panel[j * kdim + kk], i16::from(src[kk * n + j]));
            }
        }
        let mut back = vec![0i8; kdim * n];
        unpack_cols_i16(&panel, kdim, n, &mut back);
        prop_assert_eq!(back, src);
    }

    /// Code-once-and-lower equals im2col → `quantize_symmetric_i8` →
    /// `pack_cols_i16` bit for bit, panel and scale, over odd sizes, the
    /// kernels of both zoo members (1, 3, 5), padding 0–2 and strides 1–2
    /// (a 1×1 stride-2 tap grid skips input positions, which must not
    /// count toward the scale), unit or signed inputs, at any thread
    /// count.
    #[test]
    fn code_im2row_equals_im2col_quantize_pack(
        n in 1usize..4,
        c in 1usize..6,
        h in 1usize..12,
        w in 1usize..12,
        kernel in 0usize..3,
        pad in 0usize..3,
        stride in 1usize..3,
        signed in 0u8..2,
        threads in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let (k, threads, signed) = ([1, 3, 5][kernel], [1, 2, 8][threads], signed == 1);
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let geom = ConvGeom::new(n, c, h, w, k, k, stride, pad);
        let mut x = Tensor::zeros(&[n, c, h, w]);
        let lo = if signed { -1.0 } else { 0.0 };
        rng::fill_uniform(&mut x, lo, 1.0, &mut rng::seeded(seed));
        // A large value off the tap grid must not move the scale.
        if stride == 2 && pad == 0 && w > 1 {
            x.data_mut()[1] = 40.0;
        }
        let (want, want_scale) = lowered_the_old_way(&x, &geom);
        let (panel, scale) = code_im2row_i16_in(&eager(threads), &x, &geom);
        prop_assert_eq!(scale.to_bits(), want_scale.to_bits());
        prop_assert_eq!(&panel[..], &want[..]);
    }

    /// The panel-taking GEMM on panels packed from random codes equals
    /// the serial i64 oracle, at any thread count, on both dot branches.
    #[test]
    fn panel_gemm_matches_reference(
        m in 1usize..20,
        k in 1usize..80,
        n in 1usize..130,
        sparse in 0u8..2,
        threads in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let (sparse, threads) = (sparse == 1, [1, 2, 8][threads]);
        let a = codes(m * k, seed);
        let b = codes(k * n, seed + 1);
        let mut ap = vec![0i16; m * k];
        pack_rows_i16(&a, &mut ap);
        let mut bp = vec![0i16; k * n];
        pack_cols_i16(&b, k, n, &mut bp);
        let want = matmul_i8_reference(m, k, n, &a, &b, 0.25);
        let got = matmul_i8_panels_in(&eager(threads), m, k, n, &ap, &bp, 0.25, None, sparse);
        prop_assert_eq!(got, want);
    }
}

/// An all-zero input codes to an all-zero panel with scale 0, exactly as
/// the old composition did.
#[test]
fn all_zero_input_lowers_to_zero_codes_and_scale() {
    let geom = ConvGeom::new(2, 3, 5, 7, 3, 3, 1, 1);
    let x = Tensor::zeros(&[2, 3, 5, 7]);
    let (want, want_scale) = lowered_the_old_way(&x, &geom);
    for threads in [1, 2, 8] {
        let (panel, scale) = code_im2row_i16_in(&eager(threads), &x, &geom);
        assert_eq!(scale.to_bits(), want_scale.to_bits());
        assert_eq!(scale, 0.0);
        assert_eq!(&panel[..], &want[..]);
    }
}

/// At `K = 140_000` with every code at the ±127 rail, the reduction
/// reaches `140_000 · 127² ≈ 2.26e9 > i32::MAX`: a non-widening i32
/// accumulator would wrap to a negative value. The split-K path must
/// return the exact count, at every thread count and on both sparsity
/// branches.
#[test]
fn long_k_rails_do_not_wrap() {
    let k = 140_000usize;
    let expect = (k as i64) * 127 * 127;
    assert!(expect > i64::from(i32::MAX), "test must exceed i32 range");
    let a = vec![127i8; k];
    let b: Vec<i8> = (0..k)
        .map(|i| if i % 2 == 0 { 127 } else { -127 })
        .collect();
    // Column of all +127 (aligned signs) and a ±alternating column.
    let rhs: Vec<i8> = (0..k).flat_map(|i| [127i8, b[i]]).collect();
    let alt: i64 = b.iter().map(|&v| 127 * i64::from(v)).sum();
    for threads in THREADS {
        let ctx = ExecCtx::with_threads(threads);
        for sparse in [false, true] {
            let y = matmul_i8_in(&ctx, 1, k, 2, &a, &rhs, 1.0, sparse);
            assert_eq!(
                y.data(),
                &[expect as f32, alt as f32],
                "threads {threads} sparse {sparse}"
            );
        }
    }
}

/// Mixed-sign codes at a reduction just past the split-K chunk size:
/// the chunk seam is invisible — the kernel still matches the serial
/// i64 oracle exactly.
#[test]
fn split_k_seam_matches_oracle() {
    let k = (1usize << 16) + 37; // one full chunk plus a remainder
    let a = codes(2 * k, 7);
    let b = codes(3 * k, 11);
    let want = matmul_i8_reference(2, k, 3, &a, &b, 0.5);
    for threads in THREADS {
        let got = matmul_i8_in(&ExecCtx::with_threads(threads), 2, k, 3, &a, &b, 0.5, false);
        assert_eq!(got, want, "threads {threads}");
    }
}
