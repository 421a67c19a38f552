//! Cache-blocked, register-tiled matrix products.
//!
//! These three kernels are the computational backbone of the workspace:
//! im2col convolution is `W · cols`, its weight gradient is `dY · colsᵀ`
//! ([`matmul_a_bt`]) and its input gradient is `Wᵀ · dY` ([`matmul_at_b`]).
//!
//! # Kernel architecture
//!
//! Large products run a GotoBLAS-style tiled kernel: both operands are
//! first *packed* into contiguous panel buffers (lhs in `MR`-row bands,
//! rhs in `NR`-column slivers, both laid out k-major), and an `MR×NR`
//! register microkernel then accumulates each output tile over the full
//! reduction dimension. The packed layout makes every microkernel load
//! sequential, and a worker keeps one rhs panel hot in cache across all
//! of its row bands. The microkernel is plain indexed Rust over
//! `chunks_exact` slices — no intrinsics, no `unsafe` — which LLVM
//! auto-vectorizes. Products too small to amortize packing
//! (`m·n·k <` [`TILE_GATE`]) fall back to a naive i-k-j loop that computes
//! the identical per-element operation chain.
//!
//! # Bit-identity
//!
//! Every output element is a single accumulation chain over `k` in
//! ascending order, started from `0.0`, exactly as in the naive loops the
//! [`matmul_reference`] kernels retain — tiling changes *where* operands
//! are read from, never the order they are combined in. Work is split by
//! output rows and each element is written by exactly one worker, so
//! results are bit-identical for any thread count *and* to the reference
//! kernels (a property the proptest suite asserts via `f32::to_bits`).
//!
//! Each kernel has two forms: the `*_in` form takes an [`ExecCtx`] and
//! splits output row bands across its workers (drawing pack buffers from
//! the context's [`crate::Workspace`]), and the plain form is a serial
//! wrapper (`matmul(a, b)` ≡ `matmul_in(&ExecCtx::serial(), a, b)`).
//!
//! # Pre-packed operands
//!
//! [`PackedLhs`] and [`pack_rhs_in`] expose the two panel layouts for
//! callers that pack an operand once and multiply it many times. The eval
//! convolution packs its weights into a [`PackedLhs`] once per call,
//! lowers each image straight into rhs panel layout
//! ([`crate::Im2colPanel`]) and runs [`PackedLhs::gemm_into`] into that
//! image's slice of the output, on its own workers.
//!
//! # Sparse lhs gate
//!
//! The dense microkernel carries no per-element zero test — a branch
//! there defeats auto-vectorization. Instead [`matmul_in`] checks the lhs
//! density once per call and switches to a row-skipping kernel when the
//! lhs is mostly zeros (e.g. aggressively quantized weights). Callers
//! that know their operand's density ahead of time (weights are measured
//! once at quantize time) pass a [`Density`] hint to
//! [`matmul_hinted_in`]; ad-hoc callers get a sampled scan of the first
//! [`DENSITY_SAMPLE`] elements. The gate depends only on the data, never
//! on the thread count.

use crate::exec::ExecCtx;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// Zero fraction of the lhs above which [`matmul_in`] uses the
/// zero-skipping kernel instead of the dense vectorizable one.
const SPARSE_GATE: f32 = 0.5;

/// How many leading elements a [`Density::Sample`] scan inspects.
pub const DENSITY_SAMPLE: usize = 4096;

/// Rows per lhs panel band (microkernel height). With `NR = 8` the
/// accumulator tile is 8 SSE registers — within the baseline x86-64
/// budget, so LLVM keeps the whole tile in registers.
const MR: usize = 4;

/// Columns per rhs panel sliver (microkernel width).
pub(crate) const NR: usize = 8;

/// Products below this many scalar multiply-adds skip packing and run the
/// naive loop (which computes the identical operation chain).
const TILE_GATE: usize = 4096;

/// Caller-supplied knowledge about the zero fraction of a matmul lhs,
/// deciding the dense-vs-skipping kernel without rescanning the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Density {
    /// Unknown: sample the first [`DENSITY_SAMPLE`] elements.
    #[default]
    Sample,
    /// Known mostly nonzero; always use the dense kernel.
    Dense,
    /// Known mostly zero; always use the row-skipping kernel.
    Sparse,
}

impl Density {
    /// Resolves the hint against the data (only [`Density::Sample`]
    /// actually reads it).
    fn is_sparse(self, data: &[f32]) -> bool {
        match self {
            Density::Dense => false,
            Density::Sparse => true,
            Density::Sample => {
                let sample = &data[..data.len().min(DENSITY_SAMPLE)];
                mostly_zero(sample)
            }
        }
    }

    /// Measures a full slice: the hint quantized-weight producers cache.
    pub fn measure(data: &[f32]) -> Density {
        if mostly_zero(data) {
            Density::Sparse
        } else {
            Density::Dense
        }
    }
}

/// Whether at least [`SPARSE_GATE`] of `data` is exactly zero.
fn mostly_zero(data: &[f32]) -> bool {
    if data.is_empty() {
        return false;
    }
    let zeros = data.iter().filter(|v| **v == 0.0).count();
    (zeros as f32) >= SPARSE_GATE * data.len() as f32
}

fn dims2(name: &str, t: &Tensor) -> (usize, usize) {
    assert_eq!(
        t.rank(),
        2,
        "{name}: expected a 2-D tensor, got rank {}",
        t.rank()
    );
    (t.dims()[0], t.dims()[1])
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Packs `width`-wide column slivers of a row-major `src` (row stride
/// `row_len`, `kdim` rows) into k-major panels of width `panel_w`:
/// `out[p][kk*panel_w + jr] = src[kk*row_len + p*panel_w + jr]`.
/// Pad lanes (`jr >= width` in the last panel) are left untouched — the
/// caller provides a zeroed buffer.
fn pack_panels(
    src: &[f32],
    row_len: usize,
    kdim: usize,
    total: usize,
    panel_w: usize,
    out: &mut [f32],
) {
    let mut j0 = 0;
    let mut panel = 0;
    while j0 < total {
        let width = panel_w.min(total - j0);
        let dst = &mut out[panel * panel_w * kdim..(panel + 1) * panel_w * kdim];
        for kk in 0..kdim {
            let s = &src[kk * row_len + j0..kk * row_len + j0 + width];
            dst[kk * panel_w..kk * panel_w + width].copy_from_slice(s);
        }
        j0 += panel_w;
        panel += 1;
    }
}

/// Transposed variant of [`pack_panels`]: slivers are taken along the
/// *rows* of `src` (length-`kdim` each, row stride `row_len`):
/// `out[p][kk*panel_w + jr] = src[(p*panel_w + jr)*row_len + kk]`.
pub(crate) fn pack_panels_t(
    src: &[f32],
    row_len: usize,
    kdim: usize,
    total: usize,
    panel_w: usize,
    out: &mut [f32],
) {
    let mut j0 = 0;
    let mut panel = 0;
    while j0 < total {
        let width = panel_w.min(total - j0);
        let dst = &mut out[panel * panel_w * kdim..(panel + 1) * panel_w * kdim];
        for jr in 0..width {
            let srow = &src[(j0 + jr) * row_len..(j0 + jr) * row_len + kdim];
            for (kk, &v) in srow.iter().enumerate() {
                dst[kk * panel_w + jr] = v;
            }
        }
        j0 += panel_w;
        panel += 1;
    }
}

// ---------------------------------------------------------------------------
// Microkernels
// ---------------------------------------------------------------------------

/// The `MR×NR` register tile: accumulates `ap · bp` over the full
/// reduction dimension, `k` ascending, one chain per tile element.
#[inline]
fn microkernel(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (ak, bk) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for (accr, &a) in acc.iter_mut().zip(ak) {
            for (cv, &b) in accr.iter_mut().zip(bk) {
                *cv += a * b;
            }
        }
    }
}

/// [`microkernel`] with the lhs zero-skip the naive `matmul_at_b` kernel
/// always had: `x + 0.0·b` is not a bitwise no-op for `-0.0`/`NaN`/`Inf`
/// operands, so skipping must happen in the tiled kernel too to stay
/// bit-identical to the reference.
#[inline]
fn microkernel_skip_zero(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (ak, bk) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for (accr, &a) in acc.iter_mut().zip(ak) {
            if a == 0.0 {
                continue;
            }
            for (cv, &b) in accr.iter_mut().zip(bk) {
                *cv += a * b;
            }
        }
    }
}

/// One worker's share of the tiled product: all `MR`-row bands of `span`
/// (the bands starting at global band index `band0`) against every rhs
/// panel. The rhs panel loop is outermost so each `NR·k` panel stays
/// cache-hot across all of the span's bands. With `load_c` each
/// accumulator tile starts from the values already in `span` instead of
/// from zero, which continues every element's ascending-k chain: a
/// product whose reduction is split into consecutive k blocks, each
/// multiplied in turn into the same `span`, equals the one-call product
/// bit for bit.
///
/// A free function, not a closure body, on purpose: when this code lives
/// inside the `for_each_span` closure, the optimizer keeps the capture
/// environment in memory (the closure is also reachable from the spawn
/// path) and re-loads the pack pointers inside the microkernel loop,
/// spilling the accumulator tile — a ~6× slowdown. With plain slice
/// parameters the microkernel keeps its `MR×NR` accumulators in
/// registers.
#[allow(clippy::too_many_arguments)]
fn gemm_span(
    band0: usize,
    span: &mut [f32],
    n: usize,
    kdim: usize,
    apack: &[f32],
    bpack: &[f32],
    skip_zero_lhs: bool,
    load_c: bool,
) {
    let n_blocks = n.div_ceil(NR);
    let rows_here = span.len() / n;
    for jb in 0..n_blocks {
        let j0 = jb * NR;
        let cols = NR.min(n - j0);
        let bp = &bpack[jb * NR * kdim..(jb + 1) * NR * kdim];
        let mut bi = 0;
        while bi * MR < rows_here {
            let rows = MR.min(rows_here - bi * MR);
            let ap = &apack[(band0 + bi) * MR * kdim..(band0 + bi + 1) * MR * kdim];
            let mut acc = [[0.0f32; NR]; MR];
            if load_c {
                for (ir, accr) in acc.iter_mut().enumerate().take(rows) {
                    let base = (bi * MR + ir) * n + j0;
                    accr[..cols].copy_from_slice(&span[base..base + cols]);
                }
            }
            if skip_zero_lhs {
                microkernel_skip_zero(ap, bp, &mut acc);
            } else {
                microkernel(ap, bp, &mut acc);
            }
            for (ir, accr) in acc.iter().enumerate().take(rows) {
                let base = (bi * MR + ir) * n + j0;
                span[base..base + cols].copy_from_slice(&accr[..cols]);
            }
            bi += 1;
        }
    }
}

/// Shared tiled driver: `out` is the `(m, n)` output, `apack`/`bpack` the
/// fully packed operands. Work splits by `MR`-row bands across workers;
/// each worker's contiguous span is handed to [`gemm_span`].
fn tiled_gemm(
    ctx: &ExecCtx,
    n: usize,
    kdim: usize,
    apack: &[f32],
    bpack: &[f32],
    skip_zero_lhs: bool,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len() % n.max(1), 0);
    ctx.for_each_span(out, MR * n, MR * n * kdim, |band0, span| {
        gemm_span(band0, span, n, kdim, apack, bpack, skip_zero_lhs, false);
    });
}

/// Length of the f32 GEMM's packed rhs panel for a `(kdim, n)` operand:
/// `n` rounded up to whole `NR`-column slivers of `kdim` rows each.
pub(crate) fn rhs_panel_len(kdim: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * kdim
}

/// Packs a `(k, n)` rhs into the tiled f32 GEMM's panel layout, in a
/// buffer drawn from `ws`: `NR`-column slivers, k-major,
/// `panel[p·NR·k + kk·NR + jr] = b[kk][p·NR + jr]`, with the ragged last
/// sliver's pad lanes zero.
///
/// # Panics
///
/// Panics if `b` is not 2-D.
pub fn pack_rhs_in(ws: &Workspace, b: &Tensor) -> Vec<f32> {
    let (kdim, n) = dims2("pack_rhs rhs", b);
    let mut panel = ws.take(rhs_panel_len(kdim, n));
    pack_rhs(b.data(), kdim, n, &mut panel);
    panel
}

/// [`pack_rhs_in`] of a row-major `(kdim, n)` slice into a caller-owned
/// panel of [`rhs_panel_len`]`(kdim, n)` (pad lanes left as they are).
pub(crate) fn pack_rhs(src: &[f32], kdim: usize, n: usize, panel: &mut [f32]) {
    pack_panels(src, n, kdim, n, NR, panel);
}

/// A GEMM lhs `(m, k)` packed once into the tiled kernel's `MR`-row
/// bands, together with the microkernel its [`Density`] selects, so a
/// caller multiplying one weight matrix by many rhs panels (the eval
/// convolution: one panel per image) packs and classifies it once.
#[derive(Debug)]
pub struct PackedLhs {
    panel: Vec<f32>,
    rows: usize,
    kdim: usize,
    skip_zero: bool,
}

impl PackedLhs {
    /// Packs `a` (row-major, so each band packs transposed rows) into
    /// bands drawn from `ws`. `density` picks the dense or
    /// the zero-skipping microkernel by the same test [`matmul_hinted_in`]
    /// uses to pick its dense or row-skipping kernel; each pair computes
    /// the same per-element chains, so [`PackedLhs::gemm_into`] equals
    /// `matmul_hinted_in(a, b, density)` bit for bit at every size.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not 2-D.
    pub fn pack_in(ws: &Workspace, a: &Tensor, density: Density) -> Self {
        let (m, kdim) = dims2("PackedLhs lhs", a);
        let mut lhs = PackedLhs::take(ws, m, kdim, density.is_sparse(a.data()));
        lhs.repack(a.data());
        lhs
    }

    /// Packs `Aᵀ` for a `(k, m)` matrix `a` (`Aᵀ`'s rows are `a`'s
    /// columns, so the bands pack straight from `a`'s layout), with the
    /// zero-skipping microkernel [`matmul_at_b_in`] always uses: `gemm_into`
    /// then equals `matmul_at_b_in(a, b)` bit for bit.
    pub(crate) fn pack_transposed_in(ws: &Workspace, a: &Tensor) -> Self {
        let (kdim, m) = dims2("PackedLhs transposed lhs", a);
        let mut lhs = PackedLhs::take(ws, m, kdim, true);
        pack_panels(a.data(), m, kdim, m, MR, &mut lhs.panel);
        lhs
    }

    /// Takes the zeroed bands of an `(m, kdim)` lhs from `ws`, to be filled
    /// by [`PackedLhs::repack`].
    pub(crate) fn take(ws: &Workspace, m: usize, kdim: usize, skip_zero: bool) -> Self {
        PackedLhs {
            panel: ws.take(m.div_ceil(MR) * MR * kdim),
            rows: m,
            kdim,
            skip_zero,
        }
    }

    /// Re-packs the bands from a row-major `(m, kdim)` slice, as
    /// [`PackedLhs::pack_in`] packs a tensor.
    pub(crate) fn repack(&mut self, a: &[f32]) {
        assert_eq!(
            a.len(),
            self.rows * self.kdim,
            "PackedLhs::repack: lhs length disagrees with m = {} and k = {}",
            self.rows,
            self.kdim
        );
        pack_panels_t(a, self.kdim, self.kdim, self.rows, MR, &mut self.panel);
    }

    /// Rows `m` of the packed lhs.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Writes `out = lhs · rhs`, row-major `(m, n)`, for an rhs of `n`
    /// columns already in [`pack_rhs_in`]'s panel layout. Runs serially on
    /// the calling thread: the caller owns the parallel split.
    ///
    /// # Panics
    ///
    /// Panics if `rhs_panel` or `out` is not sized for `n` columns.
    pub fn gemm_into(&self, rhs_panel: &[f32], n: usize, out: &mut [f32]) {
        self.gemm(rhs_panel, n, out, false);
    }

    /// [`PackedLhs::gemm_into`] that adds to `out` instead of overwriting
    /// it, by continuing each element's chain from its value in `out`.
    pub(crate) fn gemm_acc(&self, rhs_panel: &[f32], n: usize, out: &mut [f32]) {
        self.gemm(rhs_panel, n, out, true);
    }

    fn gemm(&self, rhs_panel: &[f32], n: usize, out: &mut [f32], load_c: bool) {
        assert_eq!(
            rhs_panel.len(),
            rhs_panel_len(self.kdim, n),
            "gemm_into: rhs panel length disagrees with k = {} and n = {n}",
            self.kdim
        );
        assert_eq!(
            out.len(),
            self.rows * n,
            "gemm_into: output length disagrees with m = {} and n = {n}",
            self.rows
        );
        if out.is_empty() {
            return;
        }
        gemm_span(
            0,
            out,
            n,
            self.kdim,
            &self.panel,
            rhs_panel,
            self.skip_zero,
            load_c,
        );
    }

    /// Returns the band buffer to the workspace.
    pub fn recycle(self, ws: &Workspace) {
        ws.recycle_vec(self.panel);
    }
}

// ---------------------------------------------------------------------------
// matmul: C = A · B
// ---------------------------------------------------------------------------

/// `C = A · B` for 2-D tensors `A: (m, k)` and `B: (k, n)`.
///
/// Serial wrapper over [`matmul_in`]; pass an [`ExecCtx`] to the `_in`
/// variant to split the work across worker threads (results are
/// bit-identical either way).
///
/// # Panics
///
/// Panics if either input is not 2-D or the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use ams_tensor::{matmul, matmul_in, ExecCtx, Tensor};
/// # fn main() -> Result<(), ams_tensor::TensorError> {
/// let a = Tensor::from_vec(&[1, 2], vec![3.0, 4.0])?;
/// let b = Tensor::from_vec(&[2, 1], vec![10.0, 100.0])?;
/// assert_eq!(matmul(&a, &b).data(), &[430.0]);
/// // The parallel form gives bit-identical results for any thread count:
/// let ctx = ExecCtx::with_threads(4);
/// assert_eq!(matmul_in(&ctx, &a, &b), matmul(&a, &b));
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_in(&ExecCtx::serial(), a, b)
}

/// `C = A · B`, splitting row bands of `C` across the context's workers.
///
/// The lhs density is sampled per call; callers that already know it
/// should use [`matmul_hinted_in`].
///
/// # Panics
///
/// Panics if either input is not 2-D or the inner dimensions disagree.
pub fn matmul_in(ctx: &ExecCtx, a: &Tensor, b: &Tensor) -> Tensor {
    matmul_hinted_in(ctx, a, b, Density::Sample)
}

/// [`matmul_in`] with a caller-supplied lhs [`Density`] hint, so hot
/// paths that quantize their weights once per forward do not rescan them
/// here.
///
/// # Panics
///
/// Panics if either input is not 2-D or the inner dimensions disagree.
pub fn matmul_hinted_in(ctx: &ExecCtx, a: &Tensor, b: &Tensor, lhs_density: Density) -> Tensor {
    let (m, ka) = dims2("matmul lhs", a);
    let (kb, n) = dims2("matmul rhs", b);
    assert_eq!(ka, kb, "matmul: inner dimensions disagree ({ka} vs {kb})");
    let ws = ctx.workspace();
    let mut c = ws.take_tensor(&[m, n]);
    if m == 0 || n == 0 || ka == 0 {
        return c;
    }
    let (ad, bd) = (a.data(), b.data());
    if lhs_density.is_sparse(ad) {
        // Row-skipping kernel for mostly-zero lhs.
        ctx.for_each_chunk(c.data_mut(), n, ka * n, |i, crow| {
            let arow = &ad[i * ka..(i + 1) * ka];
            for (k, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = &bd[k * n..(k + 1) * n];
                for (cj, &bj) in crow.iter_mut().zip(brow) {
                    *cj += aik * bj;
                }
            }
        });
        return c;
    }
    if m * n * ka < TILE_GATE {
        ctx.for_each_chunk(c.data_mut(), n, ka * n, |i, crow| {
            let arow = &ad[i * ka..(i + 1) * ka];
            for (k, &aik) in arow.iter().enumerate() {
                let brow = &bd[k * n..(k + 1) * n];
                for (cj, &bj) in crow.iter_mut().zip(brow) {
                    *cj += aik * bj;
                }
            }
        });
        return c;
    }
    let lhs = PackedLhs::pack_in(ws, a, Density::Dense);
    let bpack = pack_rhs_in(ws, b);
    tiled_gemm(ctx, n, ka, &lhs.panel, &bpack, false, c.data_mut());
    lhs.recycle(ws);
    ws.recycle_vec(bpack);
    c
}

// ---------------------------------------------------------------------------
// matmul_at_b: C = Aᵀ · B
// ---------------------------------------------------------------------------

/// `C = Aᵀ · B` for `A: (k, m)` and `B: (k, n)`, without materializing `Aᵀ`.
///
/// Serial wrapper over [`matmul_at_b_in`] (the parallel variant).
///
/// # Panics
///
/// Panics if either input is not 2-D or the leading dimensions disagree.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_at_b_in(&ExecCtx::serial(), a, b)
}

/// `C = Aᵀ · B`, splitting row bands of `C` (columns of `A`) across the
/// context's workers.
///
/// Keeps the per-`k` lhs zero skip of the original kernel (the lhs here
/// is typically a quantized weight matrix), in the tiled and the naive
/// path alike.
///
/// # Panics
///
/// Panics if either input is not 2-D or the leading dimensions disagree.
pub fn matmul_at_b_in(ctx: &ExecCtx, a: &Tensor, b: &Tensor) -> Tensor {
    let (ka, m) = dims2("matmul_at_b lhs", a);
    let (kb, n) = dims2("matmul_at_b rhs", b);
    assert_eq!(
        ka, kb,
        "matmul_at_b: leading dimensions disagree ({ka} vs {kb})"
    );
    let ws = ctx.workspace();
    let mut c = ws.take_tensor(&[m, n]);
    if m == 0 || n == 0 || ka == 0 {
        return c;
    }
    let (ad, bd) = (a.data(), b.data());
    if m * n * ka < TILE_GATE {
        ctx.for_each_chunk(c.data_mut(), n, ka * n, |i, crow| {
            // Column i of A is strided, but the j loop streams contiguously
            // over rows of B and C, which is what vectorizes.
            for k in 0..ka {
                let aki = ad[k * m + i];
                if aki == 0.0 {
                    continue;
                }
                let brow = &bd[k * n..(k + 1) * n];
                for (cj, &bj) in crow.iter_mut().zip(brow) {
                    *cj += aki * bj;
                }
            }
        });
        return c;
    }
    let lhs = PackedLhs::pack_transposed_in(ws, a);
    let bpack = pack_rhs_in(ws, b);
    tiled_gemm(ctx, n, ka, &lhs.panel, &bpack, true, c.data_mut());
    lhs.recycle(ws);
    ws.recycle_vec(bpack);
    c
}

// ---------------------------------------------------------------------------
// matmul_a_bt: C = A · Bᵀ
// ---------------------------------------------------------------------------

/// `C = A · Bᵀ` for `A: (m, k)` and `B: (n, k)`, without materializing `Bᵀ`.
///
/// Serial wrapper over [`matmul_a_bt_in`] (the parallel variant).
///
/// # Panics
///
/// Panics if either input is not 2-D or the trailing dimensions disagree.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_a_bt_in(&ExecCtx::serial(), a, b)
}

/// `C = A · Bᵀ`, splitting row bands of `C` across the context's workers.
///
/// # Panics
///
/// Panics if either input is not 2-D or the trailing dimensions disagree.
pub fn matmul_a_bt_in(ctx: &ExecCtx, a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = dims2("matmul_a_bt lhs", a);
    let (n, kb) = dims2("matmul_a_bt rhs", b);
    assert_eq!(
        ka, kb,
        "matmul_a_bt: trailing dimensions disagree ({ka} vs {kb})"
    );
    let ws = ctx.workspace();
    let mut c = ws.take_tensor(&[m, n]);
    if m == 0 || n == 0 || ka == 0 {
        return c;
    }
    let (ad, bd) = (a.data(), b.data());
    if m * n * ka < TILE_GATE {
        ctx.for_each_chunk(c.data_mut(), n, ka * n, |i, crow| {
            let arow = &ad[i * ka..(i + 1) * ka];
            for (j, cj) in crow.iter_mut().enumerate() {
                let brow = &bd[j * kb..(j + 1) * kb];
                let mut acc = 0.0f32;
                for (&x, &y) in arow.iter().zip(brow) {
                    acc += x * y;
                }
                *cj = acc;
            }
        });
        return c;
    }
    // Both operands are k-minor: both pack transposed.
    let lhs = PackedLhs::pack_in(ws, a, Density::Dense);
    let mut bpack = ws.take(rhs_panel_len(ka, n));
    pack_panels_t(bd, ka, ka, n, NR, &mut bpack);
    tiled_gemm(ctx, n, ka, &lhs.panel, &bpack, false, c.data_mut());
    lhs.recycle(ws);
    ws.recycle_vec(bpack);
    c
}

// ---------------------------------------------------------------------------
// Reference kernels
// ---------------------------------------------------------------------------

/// The naive serial `C = A · B` the tiled [`matmul`] must match
/// bit-for-bit: i-k-j loops, `k` ascending, with the same full-scan
/// sparse-lhs gate the pre-tiling kernel had. Retained as the oracle for
/// the bit-identity proptests and the `bench_report` baseline.
///
/// # Panics
///
/// Panics if either input is not 2-D or the inner dimensions disagree.
pub fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = dims2("matmul lhs", a);
    let (kb, n) = dims2("matmul rhs", b);
    assert_eq!(ka, kb, "matmul: inner dimensions disagree ({ka} vs {kb})");
    let mut c = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    let sparse_lhs = mostly_zero(ad);
    for (i, crow) in c.data_mut().chunks_mut(n.max(1)).enumerate().take(m) {
        let arow = &ad[i * ka..(i + 1) * ka];
        for (k, &aik) in arow.iter().enumerate() {
            if sparse_lhs && aik == 0.0 {
                continue;
            }
            let brow = &bd[k * n..(k + 1) * n];
            for (cj, &bj) in crow.iter_mut().zip(brow) {
                *cj += aik * bj;
            }
        }
    }
    c
}

/// The naive serial `C = Aᵀ · B` (with the per-`k` lhs zero skip) the
/// tiled [`matmul_at_b`] must match bit-for-bit.
///
/// # Panics
///
/// Panics if either input is not 2-D or the leading dimensions disagree.
pub fn matmul_at_b_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (ka, m) = dims2("matmul_at_b lhs", a);
    let (kb, n) = dims2("matmul_at_b rhs", b);
    assert_eq!(
        ka, kb,
        "matmul_at_b: leading dimensions disagree ({ka} vs {kb})"
    );
    let mut c = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    for (i, crow) in c.data_mut().chunks_mut(n.max(1)).enumerate().take(m) {
        for k in 0..ka {
            let aki = ad[k * m + i];
            if aki == 0.0 {
                continue;
            }
            let brow = &bd[k * n..(k + 1) * n];
            for (cj, &bj) in crow.iter_mut().zip(brow) {
                *cj += aki * bj;
            }
        }
    }
    c
}

/// The naive serial `C = A · Bᵀ` (per-element dot products, `k`
/// ascending) the tiled [`matmul_a_bt`] must match bit-for-bit.
///
/// # Panics
///
/// Panics if either input is not 2-D or the trailing dimensions disagree.
pub fn matmul_a_bt_reference(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, ka) = dims2("matmul_a_bt lhs", a);
    let (n, kb) = dims2("matmul_a_bt rhs", b);
    assert_eq!(
        ka, kb,
        "matmul_a_bt: trailing dimensions disagree ({ka} vs {kb})"
    );
    let mut c = Tensor::zeros(&[m, n]);
    let (ad, bd) = (a.data(), b.data());
    for (i, crow) in c.data_mut().chunks_mut(n.max(1)).enumerate().take(m) {
        let arow = &ad[i * ka..(i + 1) * ka];
        for (j, cj) in crow.iter_mut().enumerate() {
            let brow = &bd[j * kb..(j + 1) * kb];
            let mut acc = 0.0f32;
            for (&x, &y) in arow.iter().zip(brow) {
                acc += x * y;
            }
            *cj = acc;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Parallelism;

    fn t(dims: &[usize], v: Vec<f32>) -> Tensor {
        Tensor::from_vec(dims, v).unwrap()
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let i = t(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &i), a);
        assert_eq!(matmul(&i, &a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = t(&[2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(&[3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_variants_agree_with_plain_matmul() {
        let a = t(&[3, 2], vec![1.0, -1.0, 2.0, 0.5, -3.0, 4.0]);
        let b = t(&[3, 4], (0..12).map(|i| i as f32 * 0.25 - 1.0).collect());
        // Aᵀ·B via explicit transpose.
        let mut at = Tensor::zeros(&[2, 3]);
        for i in 0..3 {
            for j in 0..2 {
                at.set(&[j, i], a.at(&[i, j]));
            }
        }
        assert_eq!(matmul_at_b(&a, &b), matmul(&at, &b));

        let c = t(&[4, 2], (0..8).map(|i| (i as f32).sin()).collect());
        let mut ct = Tensor::zeros(&[2, 4]);
        for i in 0..4 {
            for j in 0..2 {
                ct.set(&[j, i], c.at(&[i, j]));
            }
        }
        let lhs = t(&[3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let got = matmul_a_bt(&lhs, &c);
        let want = matmul(&lhs, &ct);
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() < 1e-5, "{g} vs {w}");
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn matmul_rejects_bad_inner_dim() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn matmul_with_zero_rows() {
        let a = Tensor::zeros(&[0, 3]);
        let b = Tensor::zeros(&[3, 2]);
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[0, 2]);
    }

    fn random(dims: &[usize], seed: u64) -> Tensor {
        use crate::rng;
        let mut t = Tensor::zeros(dims);
        let mut r = rng::seeded(seed);
        rng::fill_uniform(&mut t, -1.0, 1.0, &mut r);
        t
    }

    #[test]
    fn parallel_kernels_bit_identical_to_serial() {
        let a = random(&[33, 17], 1);
        let b = random(&[17, 29], 2);
        let at = random(&[17, 33], 3);
        let bt = random(&[29, 17], 4);
        let serial = ExecCtx::serial();
        for threads in [2, 3, 8] {
            let ctx = ExecCtx::new(Parallelism {
                threads,
                min_work: 0,
            });
            assert_eq!(matmul_in(&serial, &a, &b), matmul_in(&ctx, &a, &b));
            assert_eq!(
                matmul_at_b_in(&serial, &at, &b),
                matmul_at_b_in(&ctx, &at, &b)
            );
            assert_eq!(
                matmul_a_bt_in(&serial, &a, &bt),
                matmul_a_bt_in(&ctx, &a, &bt)
            );
            assert!(ctx.parallel_dispatch_count() >= 3, "threads = {threads}");
        }
    }

    #[test]
    fn tiled_kernels_bit_identical_to_reference() {
        // Shapes straddle the tile gate and have ragged m/n/k tails.
        for (m, k, n, seed) in [
            (33, 17, 29, 1),
            (4, 8, 8, 9),
            (65, 40, 67, 2),
            (7, 128, 31, 3),
        ] {
            let a = random(&[m, k], seed);
            let b = random(&[k, n], seed + 100);
            let at = random(&[k, m], seed + 200);
            let bt = random(&[n, k], seed + 300);
            let ctx = ExecCtx::serial();
            assert_eq!(matmul_in(&ctx, &a, &b), matmul_reference(&a, &b));
            assert_eq!(
                matmul_at_b_in(&ctx, &at, &b),
                matmul_at_b_reference(&at, &b)
            );
            assert_eq!(
                matmul_a_bt_in(&ctx, &a, &bt),
                matmul_a_bt_reference(&a, &bt)
            );
        }
    }

    #[test]
    fn sparse_gate_matches_reference_result() {
        // A mostly-zero lhs takes the skipping kernel; it must agree with
        // a naive reference product (and a dense lhs must too).
        for sparse in [true, false] {
            let mut a = random(&[12, 24], 5);
            if sparse {
                for (i, v) in a.data_mut().iter_mut().enumerate() {
                    if i % 4 != 0 {
                        *v = 0.0;
                    }
                }
            }
            assert_eq!(mostly_zero(a.data()), sparse);
            assert_eq!(
                Density::measure(a.data()),
                if sparse {
                    Density::Sparse
                } else {
                    Density::Dense
                }
            );
            let b = random(&[24, 9], 6);
            let got = matmul(&a, &b);
            for i in 0..12 {
                for j in 0..9 {
                    let mut want = 0.0f32;
                    for k in 0..24 {
                        want += a.at(&[i, k]) * b.at(&[k, j]);
                    }
                    assert!((got.at(&[i, j]) - want).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn density_hint_overrides_the_scan() {
        // A dense matrix forced down the Sparse branch must still be
        // numerically correct (the skip kernel is exact on nonzeros).
        let a = random(&[20, 30], 7);
        let b = random(&[30, 10], 8);
        let ctx = ExecCtx::serial();
        let dense = matmul_hinted_in(&ctx, &a, &b, Density::Dense);
        let forced = matmul_hinted_in(&ctx, &a, &b, Density::Sparse);
        for (x, y) in dense.data().iter().zip(forced.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn pack_buffers_are_recycled() {
        let ctx = ExecCtx::serial();
        let a = random(&[32, 32], 10);
        let b = random(&[32, 32], 11);
        let c1 = matmul_in(&ctx, &a, &b);
        ctx.workspace().recycle(c1);
        let fresh = ctx.workspace().fresh_allocs();
        let c2 = matmul_in(&ctx, &a, &b);
        assert_eq!(
            ctx.workspace().fresh_allocs(),
            fresh,
            "second product must run allocation-free"
        );
        drop(c2);
    }
}
