//! Packed i8×i8→i32 GEMM fast path with a fused dequantize epilogue.
//!
//! The paper's DoReFa-quantized layers carry ≤8-bit operands, so at eval
//! time the matmul inner loop can run on `i8` codes instead of f32 — the
//! arithmetic AMS hardware actually performs. The integer kernel mirrors
//! the tiled f32 kernels in [`crate::matmul`] in spirit (pack once, then
//! stream cache-resident panels) but uses a layout tuned for what LLVM
//! can actually vectorize into packed multiply-accumulate instructions:
//!
//! * both operands are packed **k-contiguous** and pre-widened to `i16`
//!   ([`pack_rows_i16`] / [`pack_cols_i16`], or coded straight into that
//!   layout by [`code_rows_i16_in`] and [`crate::code_im2row_i16_in`])
//!   into workspace [`I16Panel`]s sliced to a 64-byte-aligned start, so
//!   every vector load stays within one cache line and warm forwards
//!   allocate no panel;
//! * the dense microkernel runs a whole [`BAND_I8`]-row band against one
//!   L1-resident rhs column in a single pass over K: each rhs element is
//!   loaded once and feeds four independent `i16·i16→i32` accumulators,
//!   which LLVM vectorizes into `pmaddwd` (8 multiply-adds per
//!   instruction — 4 i8 lanes per f32 lane, the whole point of the
//!   integer path) with no scalar tail loop for short K. The zero-skipping
//!   kernel and partial bands use a single-accumulator dot. The loop nest
//!   is blocked for cache ([`JB_I8`]-column rhs blocks against
//!   [`BAND_I8`]-row lhs bands);
//! * dequantization (and an optional bias) is fused into the epilogue:
//!   the integer accumulator is scaled straight into the f32 output, so
//!   callers never materialize an f32 copy of the quantized operand.
//!
//! The workspace `.cargo/config.toml` passes
//! `-C llvm-args=-vectorizer-maximize-bandwidth` so the vectorizer picks
//! the 16-lane i16 factor instead of sizing by the i32 accumulator; the
//! flag changes no instruction-set requirements and no f32 semantics
//! (Rust never licenses reassociation or FMA contraction), it only
//! unlocks the `pmaddwd` form of this loop.
//!
//! # Overflow safety (split-K)
//!
//! An i8·i8 product fits in an i16 (|p| ≤ 127² = 16129) and an i32 chain
//! of them is safe for up to `i32::MAX / 16129 ≈ 133 000` terms. Long
//! reductions therefore run **split-K**: i32 partial dots over
//! [`K_CHUNK`]-term chunks (`K_CHUNK · 16129 < i32::MAX`, so no i32
//! intermediate — including `pmaddwd`'s pairwise sums — can wrap), each
//! chunk widened into an i64 total. Integer accumulation is exact and
//! associative, so — unlike the f32 kernels, whose bit-identity contract
//! forbids k-blocking — splitting the reduction changes nothing, and
//! results are bit-identical for any thread count *and* any K.
//!
//! # Statistical, not bitwise, gating
//!
//! The integer path cannot be bitwise-equal to the f32 kernels: operands
//! are re-quantized onto a symmetric 127-level grid and the accumulation
//! order differs. Following arXiv 2109.01262, it is validated
//! *statistically*: the integer part is exact, so the end-to-end error is
//! bounded by the quantization step sizes alone —
//! `|Σ a·w − s_a·s_w·Σ â·ŵ| ≤ K · (max|a|·s_w/2 + max|w|·s_a/2 + s_a·s_w/4)`
//! with `s = max|·|/127` — plus the f32 reference's own rounding. The
//! repo-root `tests/i8_gemm.rs` harness asserts this bound (and ULP /
//! relative-error distributions) over odd shapes, thread counts,
//! saturation edges and the sparse/dense branches.

use crate::exec::ExecCtx;
use crate::tensor::Tensor;
use crate::workspace::{I16Panel, Workspace};

/// Rows per lhs band: how many output rows share one L1-resident rhs
/// column before the kernel moves on (the i32 accumulator for a band is
/// just `BAND_I8` scalars, so nothing ever spills).
pub const BAND_I8: usize = 4;

/// Columns per rhs block: one block of k-major columns
/// (`JB_I8 · kdim · 2` bytes for typical layer K) stays L2-resident while
/// every lhs band streams over it.
pub const JB_I8: usize = 112;

/// Maximum reduction terms accumulated in i32 before widening to i64:
/// `K_CHUNK · 127² = 65 536 · 16 129 ≈ 1.06e9 < i32::MAX`.
pub const K_CHUNK: usize = 1 << 16;

/// The symmetric i8 code clamp: codes span `[-127, 127]` (−128 is never
/// produced, keeping the grid symmetric around zero).
pub const I8_QMAX: f32 = 127.0;

// ---------------------------------------------------------------------------
// Symmetric quantization: the one coder
// ---------------------------------------------------------------------------

/// `max|v|` over `src`, folded in independent lanes so it vectorizes.
/// `f32::max` is exact, commutative and associative over non-NaN values
/// and skips NaN in every lane, so the result equals the serial fold's bit
/// for bit whatever the grouping.
pub(crate) fn max_abs(src: &[f32]) -> f32 {
    const LANES: usize = 16;
    let mut lanes = [0.0f32; LANES];
    let chunks = src.chunks_exact(LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            *m = m.max(v.abs());
        }
    }
    let head = lanes.iter().fold(0.0f32, |m, &v| m.max(v));
    tail.iter().fold(head, |m, &v| m.max(v.abs()))
}

/// The dequantization scale and the coding multiplier for a slice whose
/// largest magnitude is `max_abs`: `(max/127, 127/max)`, or `(0, 0)` for
/// an all-zero slice, whose codes are then all 0.
pub(crate) fn symmetric_scale(max_abs: f32) -> (f32, f32) {
    if max_abs == 0.0 {
        (0.0, 0.0)
    } else {
        (max_abs / I8_QMAX, I8_QMAX / max_abs)
    }
}

/// The symmetric i8 code of `v` under the multiplier `inv`: the only
/// rounding implementation of the integer path.
///
/// Exactly `(v * inv).round().clamp(-127, 127)` (round half away from
/// zero; NaN codes 0) for every f32, in a form that vectorizes where
/// `f32::round` is a libm call: clamp first (rounding commutes with a
/// clamp to integer bounds), truncate through `i32`, then step one away
/// from zero when the dropped fraction is at least one half. The fraction
/// `y − trunc(y)` is exact because `|y| ≤ 127`.
#[inline(always)]
pub(crate) fn code(v: f32, inv: f32) -> i16 {
    let y = (v * inv).clamp(-I8_QMAX, I8_QMAX);
    let t = y as i32;
    let frac = y - t as f32;
    (t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)) as i16
}

/// Quantizes an f32 slice onto the symmetric i8 grid, returning the codes
/// and the dequantization scale (`v ≈ scale · code`).
///
/// `scale = max|v| / 127`, `code = round(v / scale)` clamped to ±127, so
/// the largest-magnitude element always maps exactly onto ±127 and no
/// in-range value ever saturates. An all-zero (or empty) slice returns
/// zero codes with `scale = 0.0` — the dequantized product is then exactly
/// zero, which is correct.
pub fn quantize_symmetric_i8(src: &[f32]) -> (Vec<i8>, f32) {
    let (scale, inv) = symmetric_scale(max_abs(src));
    (src.iter().map(|&v| code(v, inv) as i8).collect(), scale)
}

/// [`quantize_symmetric_i8`] straight into a workspace i16 panel of the
/// same layout: the code-and-pack step for an operand whose reduction axis
/// is already contiguous (the linear layer's input rows). Equal, bit for
/// bit, to `quantize_symmetric_i8` then [`pack_rows_i16`], without the
/// intermediate `Vec<i8>`.
pub fn code_rows_i16_in(ws: &Workspace, src: &[f32]) -> (I16Panel, f32) {
    let (scale, inv) = symmetric_scale(max_abs(src));
    let mut panel = ws.take_panel_i16(src.len());
    for (d, &v) in panel.iter_mut().zip(src) {
        *d = code(v, inv);
    }
    (panel, scale)
}

// ---------------------------------------------------------------------------
// Packing
// ---------------------------------------------------------------------------

/// Widens i8 codes into an i16 panel, preserving layout: the pack step
/// for an operand whose reduction axis is already contiguous (lhs rows,
/// or the rhs of an `A·Bᵀ` product). `out.len()` must equal `src.len()`.
pub fn pack_rows_i16(src: &[i8], out: &mut [i16]) {
    for (dst, &v) in out.iter_mut().zip(src.iter()) {
        *dst = v as i16;
    }
}

/// Transpose-widens a row-major `(kdim, n)` i8 matrix into an i16 panel
/// of `n` k-contiguous columns: `out[j·kdim + kk] = src[kk·n + j]`.
/// Blocked over `kk` so the strided reads stay cache-resident.
pub fn pack_cols_i16(src: &[i8], kdim: usize, n: usize, out: &mut [i16]) {
    const KB: usize = 64;
    let mut k0 = 0;
    while k0 < kdim {
        let k1 = (k0 + KB).min(kdim);
        for j in 0..n {
            let col = &mut out[j * kdim + k0..j * kdim + k1];
            for (kk, dst) in col.iter_mut().enumerate() {
                *dst = src[(k0 + kk) * n + j] as i16;
            }
        }
        k0 = k1;
    }
}

/// Inverse of [`pack_rows_i16`]: narrows an i16 panel back to i8 codes
/// (lossless for panels produced by packing). The proptest oracle for the
/// row-panel layout.
pub fn unpack_rows_i16(panel: &[i16], dst: &mut [i8]) {
    for (d, &v) in dst.iter_mut().zip(panel.iter()) {
        *d = v as i8;
    }
}

/// Inverse of [`pack_cols_i16`]: scatters the k-contiguous columns back
/// into a row-major `(kdim, n)` i8 matrix.
pub fn unpack_cols_i16(panel: &[i16], kdim: usize, n: usize, dst: &mut [i8]) {
    for j in 0..n {
        for kk in 0..kdim {
            dst[kk * n + j] = panel[j * kdim + kk] as i8;
        }
    }
}

// ---------------------------------------------------------------------------
// Microkernels
// ---------------------------------------------------------------------------

/// One ≤[`K_CHUNK`] slice of the reduction: a single-accumulator
/// `i16·i16→i32` dot product, unrolled in 32-element chunks. The chunk
/// bound guarantees no i32 intermediate can wrap (`wrapping_add` makes
/// that independent of debug overflow checks), so the result is exact.
#[inline]
fn dot_i16(a: &[i16], b: &[i16]) -> i32 {
    let mut acc = 0i32;
    let ac = a.chunks_exact(32);
    let bc = b.chunks_exact(32);
    let (ar, br) = (ac.remainder(), bc.remainder());
    for (ca, cb) in ac.zip(bc) {
        let mut s = 0i32;
        for (&x, &y) in ca.iter().zip(cb.iter()) {
            s = s.wrapping_add(x as i32 * y as i32);
        }
        acc = acc.wrapping_add(s);
    }
    for (&x, &y) in ar.iter().zip(br.iter()) {
        acc = acc.wrapping_add(x as i32 * y as i32);
    }
    acc
}

/// [`dot_i16`] with a lhs zero skip for mostly-zero operands (ReLU'd
/// activations, aggressively quantized weights). Integer accumulation is
/// exact, so this returns bit-identical results to the dense dot — the
/// branch is purely a throughput trade.
#[inline]
fn dot_i16_skip_zero(a: &[i16], b: &[i16]) -> i32 {
    let mut acc = 0i32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        if x != 0 {
            acc = acc.wrapping_add(x as i32 * y as i32);
        }
    }
    acc
}

/// One band's dense dots against one rhs column in a single pass over a
/// ≤[`K_CHUNK`] reduction: each `b` element is loaded once and feeds
/// [`BAND_I8`] independent i32 accumulators. The chunk bound keeps every
/// sum exact, so each lane equals [`dot_i16`] of its row bit for bit; the
/// gain is short K (the 3×3 stem's 27, 1×1 projections' C_in) and every
/// `K % 32` tail, which [`dot_i16`] runs as a scalar loop.
#[inline]
fn dot_band_i16(rows: [&[i16]; BAND_I8], b: &[i16]) -> [i32; BAND_I8] {
    let k = b.len();
    let [a0, a1, a2, a3] = rows.map(|r| &r[..k]);
    let (mut s0, mut s1, mut s2, mut s3) = (0i32, 0i32, 0i32, 0i32);
    for i in 0..k {
        let y = b[i] as i32;
        s0 = s0.wrapping_add(a0[i] as i32 * y);
        s1 = s1.wrapping_add(a1[i] as i32 * y);
        s2 = s2.wrapping_add(a2[i] as i32 * y);
        s3 = s3.wrapping_add(a3[i] as i32 * y);
    }
    [s0, s1, s2, s3]
}

/// Full-K exact dot: split-K i32 partial dots widened into an i64 total.
#[inline]
fn dot_full(a: &[i16], b: &[i16], skip_zero_lhs: bool) -> i64 {
    if a.len() <= K_CHUNK {
        // Typical layer K: single chunk, no widening loop.
        let d = if skip_zero_lhs {
            dot_i16_skip_zero(a, b)
        } else {
            dot_i16(a, b)
        };
        return d as i64;
    }
    let mut total = 0i64;
    for (ca, cb) in a.chunks(K_CHUNK).zip(b.chunks(K_CHUNK)) {
        let d = if skip_zero_lhs {
            dot_i16_skip_zero(ca, cb)
        } else {
            dot_i16(ca, cb)
        };
        total += d as i64;
    }
    total
}

/// One worker's share of the blocked integer product: every
/// [`BAND_I8`]-row band of `span` against [`JB_I8`]-column rhs blocks,
/// with the fused dequantize(+bias) epilogue writing f32.
///
/// A free function, not a closure body, for the same reason as the f32
/// `gemm_span`: a closure shared with the spawn path keeps its capture
/// environment in memory and costs measurable throughput in the hot loop.
#[allow(clippy::too_many_arguments)]
fn gemm_span_i8(
    band0: usize,
    span: &mut [f32],
    n: usize,
    kdim: usize,
    apanel: &[i16],
    bpanel: &[i16],
    scale: f32,
    col_bias: Option<&[f32]>,
    skip_zero_lhs: bool,
) {
    let rows_here = span.len() / n;
    let row0 = band0 * BAND_I8;
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + JB_I8).min(n);
        let mut r0 = 0;
        while r0 < rows_here {
            let r1 = (r0 + BAND_I8).min(rows_here);
            let whole_band = !skip_zero_lhs && kdim <= K_CHUNK && r1 - r0 == BAND_I8;
            for j in j0..j1 {
                let bc = &bpanel[j * kdim..(j + 1) * kdim];
                let bias = col_bias.map_or(0.0, |b| b[j]);
                if whole_band {
                    let rows = std::array::from_fn(|r| {
                        &apanel[(row0 + r0 + r) * kdim..(row0 + r0 + r + 1) * kdim]
                    });
                    for (r, d) in (r0..r1).zip(dot_band_i16(rows, bc)) {
                        span[r * n + j] = d as f32 * scale + bias;
                    }
                    continue;
                }
                for r in r0..r1 {
                    let ar = &apanel[(row0 + r) * kdim..(row0 + r + 1) * kdim];
                    let wide = dot_full(ar, bc, skip_zero_lhs);
                    span[r * n + j] = wide as f32 * scale + bias;
                }
            }
            r0 = r1;
        }
        j0 = j1;
    }
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// `C = (s · A·Bᵀ) + bias` over packed i16 panels: `apanel` holds the `m`
/// lhs rows and `bpanel` the `n` rhs columns, each a k-contiguous run of
/// `kdim` codes (the layouts [`pack_rows_i16`] and [`pack_cols_i16`]
/// produce). The one integer GEMM body: [`matmul_i8_in`] and
/// [`matmul_i8_a_bt_in`] pack and call it, and the layer forwards hand it
/// panels they code their activations straight into.
///
/// The dequantization scale `s` (typically `s_a · s_w`) and the optional
/// per-column `bias` (length `n`) are fused into the epilogue. The integer
/// part is exact for any K (split-K i64 accumulation), so results are
/// bit-identical for any thread count. `sparse_lhs` selects the
/// zero-skipping dot — callers that measured their operand density at
/// quantize time pass it down, mirroring the f32 kernels'
/// [`crate::Density`] gate; it never changes results.
///
/// The output tensor is drawn from the context's workspace arena; recycle
/// it like any kernel output.
#[allow(clippy::too_many_arguments)]
pub fn matmul_i8_panels_in(
    ctx: &ExecCtx,
    m: usize,
    kdim: usize,
    n: usize,
    apanel: &[i16],
    bpanel: &[i16],
    scale: f32,
    bias: Option<&[f32]>,
    sparse_lhs: bool,
) -> Tensor {
    assert_eq!(
        apanel.len(),
        m * kdim,
        "matmul_i8: lhs panel length mismatch"
    );
    assert_eq!(
        bpanel.len(),
        n * kdim,
        "matmul_i8: rhs panel length mismatch"
    );
    if let Some(bv) = bias {
        assert_eq!(bv.len(), n, "matmul_i8: bias length mismatch");
    }
    let mut c = ctx.workspace().take_tensor(&[m, n]);
    if m == 0 || n == 0 {
        return c;
    }
    if kdim == 0 {
        if let Some(bv) = bias {
            for crow in c.data_mut().chunks_mut(n) {
                crow.copy_from_slice(bv);
            }
        }
        return c;
    }
    ctx.for_each_span(
        c.data_mut(),
        BAND_I8 * n,
        BAND_I8 * n * kdim,
        |band0, span| {
            gemm_span_i8(
                band0, span, n, kdim, apanel, bpanel, scale, bias, sparse_lhs,
            );
        },
    );
    c
}

/// `C = (s · A·B)` for i8 code matrices `A: (m, k)` row-major and
/// `B: (k, n)` row-major, with the dequantization scale `s` (typically
/// `s_a · s_w` from [`quantize_symmetric_i8`] of each operand) fused into
/// the epilogue: packs both operands into workspace panels and runs
/// [`matmul_i8_panels_in`].
#[allow(clippy::too_many_arguments)]
pub fn matmul_i8_in(
    ctx: &ExecCtx,
    m: usize,
    kdim: usize,
    n: usize,
    a: &[i8],
    b: &[i8],
    scale: f32,
    sparse_lhs: bool,
) -> Tensor {
    assert_eq!(a.len(), m * kdim, "matmul_i8: lhs length mismatch");
    assert_eq!(b.len(), kdim * n, "matmul_i8: rhs length mismatch");
    let ws = ctx.workspace();
    let mut apanel = ws.take_panel_i16(m * kdim);
    pack_rows_i16(a, &mut apanel);
    // B is (k, n) row-major: transpose-widen into k-contiguous columns.
    let mut bpanel = ws.take_panel_i16(kdim * n);
    pack_cols_i16(b, kdim, n, &mut bpanel);
    let c = matmul_i8_panels_in(ctx, m, kdim, n, &apanel, &bpanel, scale, None, sparse_lhs);
    ws.recycle_panel_i16(apanel);
    ws.recycle_panel_i16(bpanel);
    c
}

/// `C = (s · A·Bᵀ) + bias` for i8 codes `A: (m, k)` and `B: (n, k)`, both
/// row-major, without materializing `Bᵀ` — the integer twin of
/// [`crate::matmul_a_bt_in`] (the linear-layer shape, `x · Wᵀ`). `bias`,
/// when given, is added per output column in the fused epilogue and must
/// have length `n`. Both operands are k-contiguous already, so packing is
/// a pure widen.
#[allow(clippy::too_many_arguments)]
pub fn matmul_i8_a_bt_in(
    ctx: &ExecCtx,
    m: usize,
    kdim: usize,
    n: usize,
    a: &[i8],
    b: &[i8],
    scale: f32,
    bias: Option<&[f32]>,
    sparse_lhs: bool,
) -> Tensor {
    assert_eq!(a.len(), m * kdim, "matmul_i8_a_bt: lhs length mismatch");
    assert_eq!(b.len(), n * kdim, "matmul_i8_a_bt: rhs length mismatch");
    let ws = ctx.workspace();
    let mut apanel = ws.take_panel_i16(m * kdim);
    pack_rows_i16(a, &mut apanel);
    let mut bpanel = ws.take_panel_i16(n * kdim);
    pack_rows_i16(b, &mut bpanel);
    let c = matmul_i8_panels_in(ctx, m, kdim, n, &apanel, &bpanel, scale, bias, sparse_lhs);
    ws.recycle_panel_i16(apanel);
    ws.recycle_panel_i16(bpanel);
    c
}

/// The naive serial i8 reference: exact i64 accumulation per element
/// (i-j-k, no chunking — i64 never wraps for any realistic K), then the
/// same dequantize(+bias) epilogue. The oracle the blocked integer kernels
/// must match **bit-for-bit** — integer arithmetic is exact, so unlike
/// the f32 pair this equality is order-independent.
pub fn matmul_i8_reference(
    m: usize,
    kdim: usize,
    n: usize,
    a: &[i8],
    b: &[i8],
    scale: f32,
) -> Tensor {
    let mut c = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i64;
            for k in 0..kdim {
                acc += a[i * kdim + k] as i64 * b[k * n + j] as i64;
            }
            c.data_mut()[i * n + j] = acc as f32 * scale;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Parallelism;
    use crate::rng;

    fn random_codes(len: usize, seed: u64) -> Vec<i8> {
        let mut t = Tensor::zeros(&[len.max(1)]);
        let mut r = rng::seeded(seed);
        rng::fill_uniform(&mut t, -127.0, 127.0, &mut r);
        t.data().iter().take(len).map(|&v| v as i8).collect()
    }

    #[test]
    fn matches_reference_across_shapes_and_branches() {
        for (m, k, n, seed) in [
            (1, 1, 1, 1),
            (4, 8, 8, 2),
            (33, 17, 29, 3),
            (7, 128, 31, 4),
            (65, 40, 67, 5),
            (9, 300, 130, 6), // crosses both JB_I8 and a band remainder
        ] {
            let a = random_codes(m * k, seed);
            let b = random_codes(k * n, seed + 50);
            let scale = 0.01f32;
            let want = matmul_i8_reference(m, k, n, &a, &b, scale);
            for sparse in [false, true] {
                let got = matmul_i8_in(&ExecCtx::serial(), m, k, n, &a, &b, scale, sparse);
                assert_eq!(got.data(), want.data(), "m={m} k={k} n={n} sparse={sparse}");
            }
        }
    }

    #[test]
    fn thread_count_is_invisible() {
        let (m, k, n) = (37, 53, 41);
        let a = random_codes(m * k, 7);
        let b = random_codes(k * n, 8);
        let want = matmul_i8_in(&ExecCtx::serial(), m, k, n, &a, &b, 0.5, false);
        for threads in [2, 3, 8] {
            let ctx = ExecCtx::new(Parallelism {
                threads,
                min_work: 0,
            });
            let got = matmul_i8_in(&ctx, m, k, n, &a, &b, 0.5, false);
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn a_bt_matches_explicit_transpose_with_bias() {
        let (m, k, n) = (19, 23, 13);
        let a = random_codes(m * k, 11);
        let b = random_codes(n * k, 12); // (n, k) row-major
        let mut bt = vec![0i8; k * n];
        for j in 0..n {
            for kk in 0..k {
                bt[kk * n + j] = b[j * k + kk];
            }
        }
        let bias: Vec<f32> = (0..n).map(|j| j as f32 * 0.1 - 0.5).collect();
        let scale = 0.002f32;
        let plain = matmul_i8_reference(m, k, n, &a, &bt, scale);
        let got = matmul_i8_a_bt_in(
            &ExecCtx::serial(),
            m,
            k,
            n,
            &a,
            &b,
            scale,
            Some(&bias),
            false,
        );
        for i in 0..m {
            for (j, &bj) in bias.iter().enumerate() {
                let want = plain.data()[i * n + j] + bj;
                assert_eq!(got.data()[i * n + j], want, "({i}, {j})");
            }
        }
    }

    #[test]
    fn symmetric_quantization_hits_the_endpoints() {
        let (codes, scale) = quantize_symmetric_i8(&[-2.0, 0.5, 2.0, 0.0]);
        assert_eq!(codes, vec![-127, 32, 127, 0]);
        assert!((scale - 2.0 / 127.0).abs() < 1e-9);
        let (zc, zs) = quantize_symmetric_i8(&[0.0, 0.0]);
        assert_eq!(zc, vec![0, 0]);
        assert_eq!(zs, 0.0);
    }

    /// The vectorizable coder equals `round().clamp()` on every f32 of
    /// magnitude up to 130 at a prime bit stride, on every half-integer
    /// and its neighbours, and on the non-finite values.
    #[test]
    fn code_matches_round_then_clamp() {
        let old = |y: f32| y.round().clamp(-I8_QMAX, I8_QMAX) as i16;
        let limit = 130.0f32.to_bits();
        let strided = (0..limit).step_by(997).map(f32::from_bits);
        let halves = (-262..=262).flat_map(|h| {
            let x = h as f32 * 0.5;
            let bits = x.to_bits();
            [
                f32::from_bits(bits.wrapping_sub(1)),
                x,
                f32::from_bits(bits.wrapping_add(1)),
            ]
        });
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-45];
        for y in strided.chain(halves).chain(special) {
            for v in [y, -y] {
                assert_eq!(code(v, 1.0), old(v), "y = {v:e}");
            }
        }
    }

    #[test]
    fn lane_max_equals_serial_max() {
        let mut src: Vec<f32> = random_codes(1000, 3)
            .iter()
            .map(|&c| f32::from(c) * 0.37)
            .collect();
        src[517] = f32::NAN;
        src[998] = -300.0;
        for len in [0, 1, 15, 16, 17, 999, 1000] {
            let serial = src[..len].iter().fold(0.0f32, |m, v| m.max(v.abs()));
            assert_eq!(
                max_abs(&src[..len]).to_bits(),
                serial.to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn coded_rows_equal_quantize_then_pack() {
        let src: Vec<f32> = random_codes(300, 4)
            .iter()
            .map(|&c| f32::from(c) * -0.013)
            .collect();
        let ws = Workspace::new();
        let (codes, scale) = quantize_symmetric_i8(&src);
        let mut want = vec![0i16; src.len()];
        pack_rows_i16(&codes, &mut want);
        let (panel, got) = code_rows_i16_in(&ws, &src);
        assert_eq!(got.to_bits(), scale.to_bits());
        assert_eq!(&panel[..], &want[..]);
    }

    #[test]
    fn zero_k_a_bt_is_pure_bias() {
        let bias = [1.0f32, -2.0];
        let got = matmul_i8_a_bt_in(
            &ExecCtx::serial(),
            3,
            0,
            2,
            &[],
            &[],
            1.0,
            Some(&bias),
            false,
        );
        assert_eq!(got.dims(), &[3, 2]);
        assert_eq!(got.data(), &[1.0, -2.0, 1.0, -2.0, 1.0, -2.0]);
    }
}
