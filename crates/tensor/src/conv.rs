//! im2col / col2im lowering for NCHW convolutions.
//!
//! A convolution of an `(N, C_in, H, W)` input with `(C_out, C_in, K_h, K_w)`
//! weights lowers to the matrix product `W_mat · cols` where
//! `W_mat: (C_out, C_in·K_h·K_w)` and `cols: (C_in·K_h·K_w, N·OH·OW)`.
//! [`col2im`] is the exact adjoint of [`im2col`] (a scatter-add) — a
//! property checked by a dedicated adjointness test. No f32 convolution
//! builds the batch's column matrix any more: the forward (train and eval
//! alike) lowers one image at a time straight into the f32 GEMM's rhs
//! panel ([`Im2colPanel`]), and the backward works one image at a time
//! too: [`conv_input_grad_in`] scatters each image's `Wᵀ·dY` block with
//! the per-plane col2im, and [`conv_weight_grad_in`] lowers each image
//! into the weight-gradient GEMM's transposed panel ([`Im2colTPanel`]).
//! The i8 path lowers *codes*: [`code_im2row_i16_in`] codes the input once
//! and gathers the codes straight into the integer GEMM's k-contiguous
//! rhs panel. Every lowering gathers from a zero-bordered copy of the
//! input, so padding taps need no bounds checks. [`im2col`] itself is
//! left to the per-VMAC simulation and to test oracles.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::exec::ExecCtx;
use crate::matmul::{pack_rhs, rhs_panel_len, PackedLhs, NR};
use crate::matmul_i8::{code, max_abs, symmetric_scale};
use crate::tensor::Tensor;
use crate::workspace::{I16Panel, Workspace};

/// Geometry of a 2-D convolution: input size, kernel, stride and padding.
///
/// Constructed once per layer; provides the derived output size and the
/// `N_tot` count (multiplies per output activation) the AMS error model
/// needs.
///
/// # Example
///
/// ```
/// use ams_tensor::ConvGeom;
/// let g = ConvGeom::new(4, 3, 16, 16, 3, 3, 1, 1);
/// assert_eq!((g.oh, g.ow), (16, 16));
/// assert_eq!(g.n_tot(), 3 * 3 * 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvGeom {
    /// Batch size.
    pub n: usize,
    /// Input channels.
    pub c_in: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both spatial dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
    /// Output height, derived.
    pub oh: usize,
    /// Output width, derived.
    pub ow: usize,
}

impl ConvGeom {
    /// Computes the full geometry from the basic parameters.
    ///
    /// # Panics
    ///
    /// Panics if the kernel (minus padding) does not fit in the input,
    /// `stride == 0`, or the padded extent `h + 2·pad` / `w + 2·pad`
    /// overflows `usize` (adversarial inputs must fail loudly, not wrap
    /// into a bogus geometry).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n: usize,
        c_in: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        let padded = |extent: usize, axis: &str| {
            pad.checked_mul(2)
                .and_then(|p2| extent.checked_add(p2))
                .unwrap_or_else(|| {
                    panic!(
                        "ConvGeom: padded {axis} extent overflows usize \
                         ({axis}={extent}, pad={pad})"
                    )
                })
        };
        let (ph, pw) = (padded(h, "h"), padded(w, "w"));
        assert!(
            ph >= kh && pw >= kw,
            "kernel {kh}x{kw} does not fit input {h}x{w} with padding {pad}"
        );
        let oh = (ph - kh) / stride + 1;
        let ow = (pw - kw) / stride + 1;
        ConvGeom {
            n,
            c_in,
            h,
            w,
            kh,
            kw,
            stride,
            pad,
            oh,
            ow,
        }
    }

    /// Number of multiplications needed per output activation
    /// (`N_tot = C_in · K_h · K_w` in the paper's notation).
    pub fn n_tot(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    /// Number of columns in the lowered matrix (`N · OH · OW`).
    pub fn cols(&self) -> usize {
        self.n * self.oh * self.ow
    }

    /// Number of rows in the lowered matrix (`C_in · K_h · K_w`).
    pub fn rows(&self) -> usize {
        self.n_tot()
    }

    /// Elements in one image's zero-bordered copy:
    /// `C_in · (H + 2·pad) · (W + 2·pad)`.
    fn bordered_len(&self) -> usize {
        self.c_in * (self.h + 2 * self.pad) * (self.w + 2 * self.pad)
    }
}

/// Lowers an `(N, C, H, W)` input to the `(C·K_h·K_w, N·OH·OW)` column
/// matrix of a convolution with the given geometry.
///
/// Serial wrapper over [`im2col_in`]. Out-of-bounds taps (padding)
/// contribute zeros.
///
/// # Panics
///
/// Panics if `input` is not 4-D or disagrees with `geom`.
pub fn im2col(input: &Tensor, geom: &ConvGeom) -> Tensor {
    im2col_in(&ExecCtx::serial(), input, geom)
}

/// [`im2col`] splitting the `(ci, ki, kj)` tap rows of the column matrix
/// across the context's workers.
///
/// Each row of the output is written by exactly one worker running the
/// same gather loop as the serial version, so results are bit-identical
/// for any thread count.
///
/// # Panics
///
/// Panics if `input` is not 4-D or disagrees with `geom`.
pub fn im2col_in(ctx: &ExecCtx, input: &Tensor, geom: &ConvGeom) -> Tensor {
    let (n, c, h, w) = input.dims4();
    assert_eq!(
        (n, c, h, w),
        (geom.n, geom.c_in, geom.h, geom.w),
        "im2col: input dims disagree with geometry"
    );
    let cols_n = geom.cols();
    let rows_n = geom.rows();
    // Pooled and zero-filled: padding taps rely on the zeros.
    let mut cols = ctx.workspace().take_tensor(&[rows_n, cols_n]);
    if rows_n == 0 || cols_n == 0 {
        return cols;
    }
    let src = input.data();
    let (kh, kw, stride, pad, oh, ow) = (geom.kh, geom.kw, geom.stride, geom.pad, geom.oh, geom.ow);
    ctx.for_each_chunk(cols.data_mut(), cols_n, cols_n, |row, drow| {
        let ci = row / (kh * kw);
        let ki = row / kw % kh;
        let kj = row % kw;
        for ni in 0..n {
            let src_plane = &src[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
            for ohi in 0..oh {
                let ih = (ohi * stride + ki) as isize - pad as isize;
                let dbase = (ni * oh + ohi) * ow;
                if ih < 0 || ih >= h as isize {
                    continue; // whole output row reads padding for this tap
                }
                let ih = ih as usize;
                for owi in 0..ow {
                    let iw = (owi * stride + kj) as isize - pad as isize;
                    if iw < 0 || iw >= w as isize {
                        continue;
                    }
                    drow[dbase + owi] = src_plane[ih * w + iw as usize];
                }
            }
        }
    });
    cols
}

/// Copies the `(H, W)` planes of `src` (one or more images of `geom`'s
/// input) into `dst` with a zero border of width `pad` on every side,
/// mapping each element through `map`. The shared first step of both
/// lowerings: with the border in place their gathers read padding taps
/// as zeros without bounds checks. The f32 lowering maps by identity,
/// the i8 one by its coder. Every element of `dst` is written, so a
/// stale pooled buffer is fine.
fn zero_border<T: Copy + Default>(
    src: &[f32],
    geom: &ConvGeom,
    dst: &mut [T],
    map: impl Fn(f32) -> T,
) {
    let (h, w, pad) = (geom.h, geom.w, geom.pad);
    if h * w == 0 {
        dst.fill(T::default()); // every tap is padding
        return;
    }
    let (ph, pw) = (h + 2 * pad, w + 2 * pad);
    for (dplane, splane) in dst.chunks_mut(ph * pw).zip(src.chunks(h * w)) {
        let (top, rest) = dplane.split_at_mut(pad * pw);
        let (body, bottom) = rest.split_at_mut(h * pw);
        top.fill(T::default());
        bottom.fill(T::default());
        for (drow, srow) in body.chunks_mut(pw).zip(splane.chunks(w)) {
            drow[..pad].fill(T::default());
            drow[pad + w..].fill(T::default());
            for (d, &v) in drow[pad..pad + w].iter_mut().zip(srow) {
                *d = map(v);
            }
        }
    }
}

/// Per-worker scratch of the f32 eval convolution, which lowers one image
/// at a time straight into the f32 GEMM's rhs panel instead of building
/// the batch's column matrix.
///
/// [`Im2colPanel::lower`] writes, bit for bit, `pack_rhs_in(im2col(image))`:
/// `NR`-pixel slivers, k-major, with padding taps zero. It copies the
/// image into a zero-bordered scratch first (the border helper the i8
/// lowering codes through), then gathers each sliver's taps from it. The
/// ragged last sliver's pad lanes are never written, so they keep the
/// zeros of the workspace take (the GEMM discards their products
/// anyway). Both buffers come from the workspace; a worker takes one
/// `Im2colPanel` and reuses it for every image it owns.
#[derive(Debug)]
pub struct Im2colPanel {
    geom: ConvGeom,
    bordered: Vec<f32>,
    panel: Vec<f32>,
}

impl Im2colPanel {
    /// Takes the scratch for one image of `geom`'s input (`geom.n` is
    /// not used) from `ws`.
    pub fn take(ws: &Workspace, geom: &ConvGeom) -> Self {
        Im2colPanel {
            geom: *geom,
            bordered: ws.take(geom.bordered_len()),
            panel: ws.take(rhs_panel_len(geom.rows(), geom.oh * geom.ow)),
        }
    }

    /// Lowers one `(C, H, W)` image and returns its rhs panel, an
    /// `(C·K_h·K_w, OH·OW)` operand for [`crate::PackedLhs::gemm_into`].
    ///
    /// # Panics
    ///
    /// Panics if `image` is not `C·H·W` long.
    pub fn lower(&mut self, image: &[f32]) -> &[f32] {
        let g = &self.geom;
        assert_eq!(
            image.len(),
            g.c_in * g.h * g.w,
            "Im2colPanel::lower: image length disagrees with geometry"
        );
        if self.panel.is_empty() {
            return &self.panel;
        }
        zero_border(image, g, &mut self.bordered, |v| v);
        let gather = match g.kw {
            1 => im2col_slivers::<1>,
            3 => im2col_slivers::<3>,
            5 => im2col_slivers::<5>,
            _ => im2col_slivers::<0>,
        };
        gather(&self.bordered, g, &mut self.panel);
        &self.panel
    }

    /// Returns both buffers to the workspace.
    pub fn recycle(self, ws: &Workspace) {
        ws.recycle_vec(self.bordered);
        ws.recycle_vec(self.panel);
    }
}

/// Gathers every `NR`-pixel sliver of one image's rhs panel from its
/// zero-bordered copy: tap `(c, ki, kj)` of output pixel `(oh, ow)` reads
/// `bordered[c·plane + (oh·s + ki)·pw + ow·s + kj]`. A sliver whose
/// pixels are consecutive in `bordered` (stride 1 within one output row,
/// or a 1×1 kernel's wrap) copies each tap row whole; any other sliver
/// gathers lane by lane. `KW` is the kernel width when known at compile
/// time, `0` for "read `geom.kw`".
fn im2col_slivers<const KW: usize>(bordered: &[f32], geom: &ConvGeom, panel: &mut [f32]) {
    let kw = if KW > 0 { KW } else { geom.kw };
    let (c, kh, stride) = (geom.c_in, geom.kh, geom.stride);
    let pw = geom.w + 2 * geom.pad;
    let plane = (geom.h + 2 * geom.pad) * pw;
    let (ow, pixels) = (geom.ow, geom.oh * geom.ow);
    let kdim = c * kh * kw;
    for (p, sliver) in panel.chunks_exact_mut(NR * kdim).enumerate() {
        let j0 = p * NR;
        let width = NR.min(pixels - j0);
        // Offset of each lane's top-left tap, strictly increasing.
        let mut at = [0usize; NR];
        let (mut ohi, mut owi) = (j0 / ow, j0 % ow);
        for a in at.iter_mut().take(width) {
            *a = ohi * stride * pw + owi * stride;
            owi += 1;
            if owi == ow {
                (ohi, owi) = (ohi + 1, 0);
            }
        }
        let mut taps = sliver.chunks_exact_mut(NR);
        if width == NR && at[NR - 1] - at[0] == NR - 1 {
            for ci in 0..c {
                for ki in 0..kh {
                    let row = ci * plane + ki * pw + at[0];
                    for kj in 0..kw {
                        let dst = taps.next().expect("one sliver row per tap");
                        dst.copy_from_slice(&bordered[row + kj..row + kj + NR]);
                    }
                }
            }
        } else {
            for ci in 0..c {
                for ki in 0..kh {
                    let row = ci * plane + ki * pw;
                    for kj in 0..kw {
                        let dst = taps.next().expect("one sliver row per tap");
                        for (d, &a) in dst.iter_mut().zip(&at[..width]) {
                            *d = bordered[row + kj + a];
                        }
                    }
                }
            }
        }
    }
}

/// Per-worker scratch of the weight-gradient GEMM `dY_img · cols_imgᵀ`,
/// whose rhs is one image's column matrix *transposed*: the transposed
/// counterpart of [`Im2colPanel`].
///
/// [`Im2colTPanel::lower`] writes, bit for bit, the rhs panel of
/// `cols_imgᵀ` (the `(OH·OW, C·K_h·K_w)` matrix) restricted to a range of
/// `NR`-tap slivers: sliver `s` holds, pixel-major, the `NR` taps
/// `s·NR..` of every output pixel. Like [`Im2colPanel`] it copies the image
/// into a zero-bordered scratch, then gathers every tap of a sliver from
/// it, and never writes the ragged last sliver's pad lanes (they keep the
/// zeros of the workspace take). A worker owning a range of tap slivers
/// (columns of the weight gradient) takes one and reuses it for every
/// image.
#[derive(Debug)]
pub(crate) struct Im2colTPanel {
    geom: ConvGeom,
    slivers: Range<usize>,
    bordered: Vec<f32>,
    panel: Vec<f32>,
}

impl Im2colTPanel {
    /// Takes the scratch for tap slivers `slivers` of one image of
    /// `geom`'s input (`geom.n` is not used) from `ws`.
    ///
    /// # Panics
    ///
    /// Panics if a sliver lies past the last tap.
    pub(crate) fn take(ws: &Workspace, geom: &ConvGeom, slivers: Range<usize>) -> Self {
        assert!(
            slivers.end <= geom.rows().div_ceil(NR),
            "Im2colTPanel: slivers {slivers:?} past the last tap"
        );
        Im2colTPanel {
            geom: *geom,
            bordered: ws.take(geom.bordered_len()),
            panel: ws.take(slivers.len() * NR * geom.oh * geom.ow),
            slivers,
        }
    }

    /// Lowers one `(C, H, W)` image and returns its slivers, each an
    /// `(OH·OW, NR)` rhs operand (k = pixels) of one `NR`-column block of
    /// the weight gradient.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not `C·H·W` long.
    pub(crate) fn lower(&mut self, image: &[f32]) -> &[f32] {
        let g = &self.geom;
        assert_eq!(
            image.len(),
            g.c_in * g.h * g.w,
            "Im2colTPanel::lower: image length disagrees with geometry"
        );
        if self.panel.is_empty() {
            return &self.panel;
        }
        zero_border(image, g, &mut self.bordered, |v| v);
        let (kh, kw, stride) = (g.kh, g.kw, g.stride);
        let pw = g.w + 2 * g.pad;
        let plane = (g.h + 2 * g.pad) * pw;
        let pixels = g.oh * g.ow;
        let slivers = self.slivers.clone();
        for (s, sliver) in slivers.zip(self.panel.chunks_exact_mut(NR * pixels)) {
            let t0 = s * NR;
            let width = NR.min(g.rows() - t0);
            // Offset of each lane's tap from its pixel's top-left corner.
            let mut at = [0usize; NR];
            for (jr, a) in at.iter_mut().enumerate().take(width) {
                let t = t0 + jr;
                *a = t / (kh * kw) * plane + t / kw % kh * pw + t % kw;
            }
            let mut lanes = sliver.chunks_exact_mut(NR);
            for ohi in 0..g.oh {
                for owi in 0..g.ow {
                    let corner = &self.bordered[ohi * stride * pw + owi * stride..];
                    let dst = lanes.next().expect("one sliver row per pixel");
                    for (d, &a) in dst.iter_mut().zip(&at[..width]) {
                        *d = corner[a];
                    }
                }
            }
        }
        &self.panel
    }

    /// Returns both buffers to the workspace.
    pub(crate) fn recycle(self, ws: &Workspace) {
        ws.recycle_vec(self.bordered);
        ws.recycle_vec(self.panel);
    }
}

/// Whether some output position's taps read input position `i` along one
/// axis (`k` taps, `out` output positions).
fn tap_reads(i: usize, k: usize, stride: usize, pad: usize, out: usize) -> bool {
    (0..k).any(|ki| {
        (i + pad)
            .checked_sub(ki)
            .is_some_and(|o| o % stride == 0 && o / stride < out)
    })
}

/// The i8 convolution's activation operand, coded once and lowered as
/// codes: codes an `(N, C, H, W)` input onto the symmetric i8 grid and
/// gathers the codes into the integer GEMM's k-contiguous rhs panel, one
/// `C·K_h·K_w` run per output pixel (im2row):
/// `panel[j·K + (c·K_h + ki)·K_w + kj]` for output pixel `j`.
///
/// Panel and scale equal, bit for bit, `pack_cols_i16` of
/// `quantize_symmetric_i8(im2col(input))`: the scale is `max|x|/127` over
/// the input positions some tap reads (the column matrix holds exactly
/// those plus padding zeros, and max is order-free), codes go through the
/// same coder, and padding taps read code 0. It codes `N·C·H·W` elements
/// instead of the column matrix's `K_h·K_w`-fold copy, and writes no f32
/// column matrix, no `Vec<i8>` and no strided transpose. The panel and
/// the zero-bordered code scratch come from the workspace's i16 pool;
/// output pixel rows are split across the context's workers, each written
/// by exactly one of them, so any thread count gives the same panel.
///
/// # Panics
///
/// Panics if `input` is not 4-D or disagrees with `geom`.
pub fn code_im2row_i16_in(ctx: &ExecCtx, input: &Tensor, geom: &ConvGeom) -> (I16Panel, f32) {
    let (n, c, h, w) = input.dims4();
    assert_eq!(
        (n, c, h, w),
        (geom.n, geom.c_in, geom.h, geom.w),
        "code_im2row: input dims disagree with geometry"
    );
    let ws = ctx.workspace();
    let (kh, kw, stride, pad, oh, ow) = (geom.kh, geom.kw, geom.stride, geom.pad, geom.oh, geom.ow);
    let kdim = geom.rows();
    let mut panel = ws.take_panel_i16(kdim * geom.cols());
    let src = input.data();
    if panel.is_empty() || src.is_empty() {
        panel.fill(0); // every tap is padding
        return (panel, 0.0);
    }

    let row_read = |ih: usize| tap_reads(ih, kh, stride, pad, oh);
    let col_read = |iw: usize| tap_reads(iw, kw, stride, pad, ow);
    let max = if (0..h).all(row_read) && (0..w).all(col_read) {
        max_abs(src)
    } else {
        // e.g. a 1×1 stride-2 projection reads every other row and column.
        src.chunks(w)
            .enumerate()
            .filter(|(r, _)| row_read(r % h))
            .flat_map(|(_, row)| row.iter().enumerate().filter(|&(iw, _)| col_read(iw)))
            .fold(0.0f32, |m, (_, v)| m.max(v.abs()))
    };
    let (scale, inv) = symmetric_scale(max);

    // Code once, into a copy of the input with a zero border of width
    // `pad`, so the gather below reads padding taps as code 0 without
    // bounds checks.
    let mut padded = ws.take_panel_i16(n * geom.bordered_len());
    zero_border(src, geom, &mut padded, |v| code(v, inv));

    // Lower: every output pixel's run reads `K_w` consecutive codes from
    // each of its `C·K_h` padded rows. A compile-time `K_w` for the
    // common kernels turns those reads into fixed-size copies.
    let lower = match kw {
        1 => im2row_rows::<1>,
        3 => im2row_rows::<3>,
        5 => im2row_rows::<5>,
        _ => im2row_rows::<0>,
    };
    let cc = &padded[..];
    ctx.for_each_chunk(&mut panel[..], ow * kdim, ow * kdim, |row, dst| {
        lower(cc, geom, row, dst)
    });
    ws.recycle_panel_i16(padded);
    (panel, scale)
}

/// Writes the K-runs of output row `row` (`= image · OH + oh`) into `dst`,
/// one run of `C·K_h·K_w` codes per output pixel, reading the
/// zero-bordered codes `padded`. `KW` is the kernel width when known at
/// compile time, `0` for "read `geom.kw`".
fn im2row_rows<const KW: usize>(padded: &[i16], geom: &ConvGeom, row: usize, dst: &mut [i16]) {
    let kw = if KW > 0 { KW } else { geom.kw };
    let (c, kh, stride) = (geom.c_in, geom.kh, geom.stride);
    let pw = geom.w + 2 * geom.pad;
    let plane = (geom.h + 2 * geom.pad) * pw;
    let (ni, ohi) = (row / geom.oh, row % geom.oh);
    let kdim = c * kh * kw;
    let image = ni * c * plane + ohi * stride * pw;
    for (owi, run) in dst.chunks_exact_mut(kdim).enumerate() {
        let mut k = 0;
        for ci in 0..c {
            let channel = image + owi * stride + ci * plane;
            for ki in 0..kh {
                let at = channel + ki * pw;
                run[k..k + kw].copy_from_slice(&padded[at..at + kw]);
                k += kw;
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatter-adds a `(C·K_h·K_w, N·OH·OW)` column
/// matrix back into an `(N, C, H, W)` tensor, one `(n, c)` plane at a
/// time. The oracle for the per-image input gradient
/// [`conv_input_grad_in`], which scatters through the same per-plane body.
///
/// # Panics
///
/// Panics if `cols` is not 2-D or disagrees with `geom`.
pub fn col2im(cols: &Tensor, geom: &ConvGeom) -> Tensor {
    assert_eq!(cols.rank(), 2, "col2im: expected a 2-D column matrix");
    assert_eq!(
        cols.dims(),
        &[geom.rows(), geom.cols()],
        "col2im: column matrix dims disagree with geometry"
    );
    let (n, c, h, w) = (geom.n, geom.c_in, geom.h, geom.w);
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let plane = h * w;
    if n * c == 0 || plane == 0 {
        return out;
    }
    let src = cols.data();
    let (cols_n, pixels) = (geom.cols(), geom.oh * geom.ow);
    for (pi, dplane) in out.data_mut().chunks_mut(plane).enumerate() {
        let (ni, ci) = (pi / c, pi % c);
        col2im_plane(src, cols_n, ni * pixels, geom, ci, dplane);
    }
    out
}

/// Scatter-adds channel `ci`'s tap rows of a column matrix (rows `row_len`
/// long, this image's pixels starting at column `col0`) into that
/// channel's `(H, W)` plane `dplane`, in the order `ki`, `kj`, `ohi`, `owi`
/// ascending: the per-plane body of [`col2im`], and the scatter of
/// [`conv_input_grad_in`] on one image's `(C·K_h·K_w, OH·OW)` block.
fn col2im_plane(
    src: &[f32],
    row_len: usize,
    col0: usize,
    geom: &ConvGeom,
    ci: usize,
    dplane: &mut [f32],
) {
    let (h, w) = (geom.h, geom.w);
    let (kh, kw, stride, pad, oh, ow) = (geom.kh, geom.kw, geom.stride, geom.pad, geom.oh, geom.ow);
    for ki in 0..kh {
        for kj in 0..kw {
            let row = (ci * kh + ki) * kw + kj;
            let srow = &src[row * row_len + col0..row * row_len + col0 + oh * ow];
            for ohi in 0..oh {
                let ih = (ohi * stride + ki) as isize - pad as isize;
                if ih < 0 || ih >= h as isize {
                    continue;
                }
                let ih = ih as usize;
                for owi in 0..ow {
                    let iw = (owi * stride + kj) as isize - pad as isize;
                    if iw < 0 || iw >= w as isize {
                        continue;
                    }
                    dplane[ih * w + iw as usize] += srow[ohi * ow + owi];
                }
            }
        }
    }
}

/// Checks an `(N, C_out, OH, OW)` output gradient against `geom` and
/// returns `C_out`.
fn grad_channels(dy: &Tensor, geom: &ConvGeom) -> usize {
    let (n, c_out, oh, ow) = dy.dims4();
    assert_eq!(
        (n, oh, ow),
        (geom.n, geom.oh, geom.ow),
        "conv backward: output gradient dims disagree with geometry"
    );
    c_out
}

/// Input gradient of a convolution, `col2im(Wᵀ · dY)`, one image at a
/// time: `Wᵀ` is packed once (with [`crate::matmul_at_b_in`]'s zero-skip),
/// then each image's `(C_out, OH·OW)` block of `dy` — already contiguous in
/// NCHW — is multiplied into a pooled `(C·K_h·K_w, OH·OW)` scratch and
/// scattered straight into that image's block of the result.
///
/// Each scratch column reduces over `C_out` only, and col2im works per
/// `(image, channel)` plane in the same order, so the result equals
/// `col2im(matmul_at_b_in(weight_mat, dY as a (C_out, N·OH·OW) matrix))`
/// bit for bit, at any thread count (images are split across workers).
///
/// # Panics
///
/// Panics if `weight_mat` is not `(C_out, C·K_h·K_w)` or `dy` not
/// `(N, C_out, OH, OW)` for `geom`.
pub fn conv_input_grad_in(
    ctx: &ExecCtx,
    weight_mat: &Tensor,
    dy: &Tensor,
    geom: &ConvGeom,
) -> Tensor {
    let c_out = grad_channels(dy, geom);
    assert_eq!(
        weight_mat.dims(),
        &[c_out, geom.rows()],
        "conv_input_grad: weight matrix dims disagree with geometry"
    );
    let ws = ctx.workspace();
    let mut dx = ws.take_tensor(&[geom.n, geom.c_in, geom.h, geom.w]);
    if dx.is_empty() {
        return dx;
    }
    let lhs = PackedLhs::pack_transposed_in(ws, weight_mat);
    let image_len = geom.c_in * geom.h * geom.w;
    let work = geom.rows() * c_out * geom.oh * geom.ow;
    let src = dy.data();
    ctx.for_each_span(dx.data_mut(), image_len, work, |first, span| {
        input_grad_images(ws, &lhs, geom, c_out, src, first, span)
    });
    lhs.recycle(ws);
    dx
}

/// One worker's images of [`conv_input_grad_in`]: `dx` holds the input
/// gradients of images `first..`.
fn input_grad_images(
    ws: &Workspace,
    lhs: &PackedLhs,
    geom: &ConvGeom,
    c_out: usize,
    dy: &[f32],
    first: usize,
    dx: &mut [f32],
) {
    let (rows, pixels, plane) = (geom.rows(), geom.oh * geom.ow, geom.h * geom.w);
    let dy_len = c_out * pixels;
    let mut rhs = ws.take(rhs_panel_len(c_out, pixels));
    let mut dcols = ws.take(rows * pixels);
    for (i, dxi) in dx.chunks_exact_mut(geom.c_in * plane).enumerate() {
        let dyi = &dy[(first + i) * dy_len..(first + i + 1) * dy_len];
        pack_rhs(dyi, c_out, pixels, &mut rhs);
        lhs.gemm_into(&rhs, pixels, &mut dcols);
        for (ci, dplane) in dxi.chunks_exact_mut(plane).enumerate() {
            col2im_plane(&dcols, pixels, 0, geom, ci, dplane);
        }
    }
    ws.recycle_vec(rhs);
    ws.recycle_vec(dcols);
}

/// Weight gradient of a convolution, `dY · colsᵀ` as a `(C_out, C·K_h·K_w)`
/// matrix, without the batch's column matrix: each image is lowered once
/// into the GEMM's transposed rhs panel (`Im2colTPanel`) and its
/// `dY_img · cols_imgᵀ` is multiplied *into* the running gradient, images
/// in ascending order. Every element is then one ascending chain over the
/// batch's pixels, continued from image to image, so the result equals
/// `matmul_a_bt_in(dY as a (C_out, N·OH·OW) matrix, im2col_in(input))`
/// bit for bit.
///
/// Workers split the `NR`-tap slivers (columns of the gradient); each walks
/// every image in order over its own slivers, which it accumulates in a
/// sliver-blocked buffer unpacked at the end. Each element is written by
/// one worker in one order, so any thread count gives the same result.
///
/// # Panics
///
/// Panics if `input` is not `(N, C, H, W)` or `dy` not
/// `(N, C_out, OH, OW)` for `geom`.
pub fn conv_weight_grad_in(ctx: &ExecCtx, input: &Tensor, dy: &Tensor, geom: &ConvGeom) -> Tensor {
    assert_eq!(
        input.dims4(),
        (geom.n, geom.c_in, geom.h, geom.w),
        "conv_weight_grad: input dims disagree with geometry"
    );
    let c_out = grad_channels(dy, geom);
    let ws = ctx.workspace();
    let rows = geom.rows();
    let mut dw = ws.take_tensor(&[c_out, rows]);
    if dw.is_empty() {
        return dw;
    }
    // Sliver s's (C_out, width) block of the gradient starts at s·C_out·NR.
    let block = c_out * NR;
    let mut blocks = ws.take(c_out * rows);
    let work = geom.cols() * block;
    let (x, dyd) = (input.data(), dy.data());
    ctx.for_each_span(&mut blocks, block, work, |first, span| {
        weight_grad_slivers(ws, geom, c_out, x, dyd, first, span)
    });
    for (s, sliver) in blocks.chunks(block).enumerate() {
        let width = sliver.len() / c_out;
        for (drow, srow) in dw
            .data_mut()
            .chunks_exact_mut(rows)
            .zip(sliver.chunks_exact(width))
        {
            drow[s * NR..s * NR + width].copy_from_slice(srow);
        }
    }
    ws.recycle_vec(blocks);
    dw
}

/// One worker's tap slivers of [`conv_weight_grad_in`]: `span` holds the
/// sliver blocks `first..`, accumulated over every image in turn.
fn weight_grad_slivers(
    ws: &Workspace,
    geom: &ConvGeom,
    c_out: usize,
    x: &[f32],
    dy: &[f32],
    first: usize,
    span: &mut [f32],
) {
    let pixels = geom.oh * geom.ow;
    let (image_len, dy_len) = (geom.c_in * geom.h * geom.w, c_out * pixels);
    let block = c_out * NR;
    let mut lowering = Im2colTPanel::take(ws, geom, first..first + span.len().div_ceil(block));
    let mut lhs = PackedLhs::take(ws, c_out, pixels, false);
    for i in 0..geom.n {
        lhs.repack(&dy[i * dy_len..(i + 1) * dy_len]);
        let panel = lowering.lower(&x[i * image_len..(i + 1) * image_len]);
        for (out, rhs) in span.chunks_mut(block).zip(panel.chunks_exact(NR * pixels)) {
            lhs.gemm_acc(rhs, out.len() / c_out, out);
        }
    }
    lowering.recycle(ws);
    lhs.recycle(ws);
}

/// Reinterprets a `(C_out, N·OH·OW)` product matrix as an `(N, C_out, OH, OW)`
/// activation tensor.
///
/// # Panics
///
/// Panics if the matrix dims disagree with the geometry / `c_out`.
pub fn mat_to_nchw(mat: &Tensor, geom: &ConvGeom, c_out: usize) -> Tensor {
    mat_to_nchw_in(&ExecCtx::serial(), mat, geom, c_out)
}

/// [`mat_to_nchw`] drawing the output buffer from the context's
/// workspace (the copy itself is memory-bound and stays serial).
///
/// # Panics
///
/// Panics if the matrix dims disagree with the geometry / `c_out`.
pub fn mat_to_nchw_in(ctx: &ExecCtx, mat: &Tensor, geom: &ConvGeom, c_out: usize) -> Tensor {
    assert_eq!(
        mat.dims(),
        &[c_out, geom.cols()],
        "mat_to_nchw: matrix dims disagree with geometry"
    );
    let (n, oh, ow) = (geom.n, geom.oh, geom.ow);
    let plane = oh * ow;
    let mut out = ctx.workspace().take_tensor(&[n, c_out, oh, ow]);
    let src = mat.data();
    let dst = out.data_mut();
    for co in 0..c_out {
        let srow = &src[co * n * plane..(co + 1) * n * plane];
        for ni in 0..n {
            let dbase = (ni * c_out + co) * plane;
            dst[dbase..dbase + plane].copy_from_slice(&srow[ni * plane..(ni + 1) * plane]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_basic() {
        let g = ConvGeom::new(1, 1, 5, 5, 3, 3, 2, 1);
        assert_eq!((g.oh, g.ow), (3, 3));
        assert_eq!(g.n_tot(), 9);
        assert_eq!(g.cols(), 9);
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no padding: cols should equal the input
        // flattened per channel.
        let g = ConvGeom::new(2, 3, 4, 4, 1, 1, 1, 0);
        let input = Tensor::from_vec(&[2, 3, 4, 4], (0..96).map(|i| i as f32).collect()).unwrap();
        let cols = im2col(&input, &g);
        assert_eq!(cols.dims(), &[3, 32]);
        // Row ci, column (n, oh, ow) = input[n, ci, oh, ow].
        assert_eq!(cols.at(&[1, 0]), input.at(&[0, 1, 0, 0]));
        assert_eq!(cols.at(&[2, 31]), input.at(&[1, 2, 3, 3]));
    }

    #[test]
    fn im2col_padding_zeros() {
        let g = ConvGeom::new(1, 1, 2, 2, 3, 3, 1, 1);
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let cols = im2col(&input, &g);
        assert_eq!(cols.dims(), &[9, 4]);
        // Center tap (ki=1,kj=1) always lands inside: all ones.
        for j in 0..4 {
            assert_eq!(cols.at(&[4, j]), 1.0);
        }
        // Top-left tap (ki=0,kj=0) is in-bounds only for output (1,1).
        assert_eq!(cols.at(&[0, 0]), 0.0);
        assert_eq!(cols.at(&[0, 3]), 1.0);
    }

    #[test]
    fn conv_via_im2col_matches_direct() {
        use crate::matmul::matmul;
        let g = ConvGeom::new(1, 2, 4, 4, 3, 3, 1, 1);
        let input = Tensor::from_vec(
            &[1, 2, 4, 4],
            (0..32).map(|i| (i as f32 * 0.37).sin()).collect(),
        )
        .unwrap();
        let weight = Tensor::from_vec(
            &[3, 2, 3, 3],
            (0..54).map(|i| (i as f32 * 0.11).cos()).collect(),
        )
        .unwrap();
        let cols = im2col(&input, &g);
        let wmat = weight.reshaped(&[3, 18]);
        let ymat = matmul(&wmat, &cols);
        let y = mat_to_nchw(&ymat, &g, 3);

        // Direct convolution.
        for co in 0..3 {
            for ohi in 0..4usize {
                for owi in 0..4usize {
                    let mut acc = 0.0f32;
                    for ci in 0..2 {
                        for ki in 0..3usize {
                            for kj in 0..3usize {
                                let ih = ohi as isize + ki as isize - 1;
                                let iw = owi as isize + kj as isize - 1;
                                if !(0..4).contains(&ih) || !(0..4).contains(&iw) {
                                    continue;
                                }
                                acc += weight.at(&[co, ci, ki, kj])
                                    * input.at(&[0, ci, ih as usize, iw as usize]);
                            }
                        }
                    }
                    let got = y.at(&[0, co, ohi, owi]);
                    assert!(
                        (got - acc).abs() < 1e-4,
                        "mismatch at {co},{ohi},{owi}: {got} vs {acc}"
                    );
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y.
        use crate::rng;
        use rand::Rng;
        let mut r = rng::seeded(42);
        let g = ConvGeom::new(2, 3, 5, 5, 3, 3, 2, 1);
        let mut x = Tensor::zeros(&[2, 3, 5, 5]);
        for v in x.data_mut() {
            *v = r.gen::<f32>() - 0.5;
        }
        let mut y = Tensor::zeros(&[g.rows(), g.cols()]);
        for v in y.data_mut() {
            *v = r.gen::<f32>() - 0.5;
        }
        let lhs: f32 = im2col(&x, &g)
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(col2im(&y, &g).data())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-3,
            "adjointness violated: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn parallel_im2col_bit_identical_to_serial() {
        use crate::exec::Parallelism;
        use crate::rng;
        let g = ConvGeom::new(3, 4, 9, 7, 3, 2, 2, 1);
        let mut x = Tensor::zeros(&[3, 4, 9, 7]);
        let mut r = rng::seeded(9);
        rng::fill_uniform(&mut x, -1.0, 1.0, &mut r);
        let want = im2col_in(&ExecCtx::serial(), &x, &g);
        for threads in [2, 5, 8] {
            let ctx = ExecCtx::new(Parallelism {
                threads,
                min_work: 0,
            });
            assert_eq!(im2col_in(&ctx, &x, &g), want, "threads = {threads}");
            assert!(ctx.parallel_dispatch_count() > 0);
        }
    }

    /// The weight-gradient lowering of every sliver range equals, bit for
    /// bit, the rhs panel the tiled `matmul_a_bt` packs from the image's
    /// column matrix: `pack_panels_t(im2col(image))`, restricted to the
    /// range. One scratch is reused across the batch, as a worker reuses
    /// it, so stale contents would show.
    #[test]
    fn transposed_lowering_equals_packed_im2col() {
        use crate::matmul::pack_panels_t;
        use crate::rng;
        // (n, c, h, w, k, stride, pad): ragged and whole last slivers,
        // strides 1 and 2, 1×1 to 5×5 kernels, an image of no pixels.
        let cases = [
            (2, 3, 8, 8, 3, 1, 1),
            (3, 4, 5, 7, 3, 2, 1),
            (2, 3, 6, 5, 5, 1, 2),
            (2, 8, 4, 4, 1, 2, 0),
            (2, 2, 0, 0, 1, 1, 1),
        ];
        for (i, &(n, c, h, w, k, stride, pad)) in cases.iter().enumerate() {
            let g = ConvGeom::new(n, c, h, w, k, k, stride, pad);
            let one = ConvGeom { n: 1, ..g };
            let mut x = Tensor::zeros(&[n, c, h, w]);
            rng::fill_uniform(&mut x, -1.0, 1.0, &mut rng::seeded(i as u64));
            let (rows, pixels) = (g.rows(), g.oh * g.ow);
            let slivers = rows.div_ceil(NR);
            let ws = Workspace::new();
            for range in [0..slivers, 0..1, slivers - 1..slivers] {
                let mut lowering = Im2colTPanel::take(&ws, &g, range.clone());
                let len = c * h * w;
                for image in (0..n).map(|j| &x.data()[j * len..(j + 1) * len]) {
                    let xi = Tensor::from_vec(&[1, c, h, w], image.to_vec()).unwrap();
                    let cols = im2col(&xi, &one);
                    let mut want = vec![0.0f32; slivers * NR * pixels];
                    pack_panels_t(cols.data(), pixels, pixels, rows, NR, &mut want);
                    let want = &want[range.start * NR * pixels..range.end * NR * pixels];
                    let got: Vec<u32> = lowering.lower(image).iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "case {i}, slivers {range:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn geometry_rejects_pad_overflow() {
        // h + 2*pad wraps: must panic with a clear message, not compute a
        // garbage output size.
        let _ = ConvGeom::new(1, 1, 8, 8, 3, 3, 1, usize::MAX / 2 + 1);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn geometry_rejects_extent_overflow() {
        let _ = ConvGeom::new(1, 1, usize::MAX - 1, 8, 3, 3, 1, 1);
    }
}
