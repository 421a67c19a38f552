//! Heap traffic of a warm i8 convolution forward, measured by a counting
//! global allocator (this binary holds one test, so nothing else runs
//! while it measures).
//!
//! Eval forwards read the frozen eval weights, coded to i8 once on first
//! use, so once the workspace is warm no per-forward heap allocation
//! scales with the layer: the coded input, its lowered rhs panel, the
//! weight panel and every f32 tensor cycle through the pool, and the
//! weight codes are never re-coded. Nothing scales with the weights or
//! the activations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ams_models::{HardwareConfig, InputKind, QConv2d};
use ams_nn::{Layer, Mode};
use ams_quant::QuantConfig;
use ams_tensor::{rng, ExecCtx, KernelDispatch, Tensor};

/// Forwards every request to [`System`] and sums the bytes requested.
struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: each method passes the caller's pointer and layout to `System`
// unchanged and returns its result unchanged; the bookkeeping touches one
// static atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller guarantees `layout` has a non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Relaxed);
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block from this allocator and `new_size` is valid for `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Shape bookkeeping (tensor dims vectors) and similar fixed-size
/// allocations a forward may make, independent of the layer's size.
const SMALL_CONSTANT: u64 = 4096;

#[test]
fn warm_i8_conv_forward_allocates_nothing_that_scales() {
    // Wide enough that the weight codes (32·32·9 = 9216 B) exceed the
    // bound on their own.
    let (c_in, c_out, k) = (32, 32, 3);
    let ctx = ExecCtx::serial().with_kernel(KernelDispatch::I8);
    let ws = ctx.workspace();
    let mut r = rng::seeded(0);
    let hw = HardwareConfig::quantized(QuantConfig::w8a8());
    let mut qc = QConv2d::new("c", c_in, c_out, k, 1, 1, &hw, InputKind::Unit, 0, &mut r);
    let mut x = Tensor::zeros(&[8, c_in, 16, 16]);
    rng::fill_uniform(&mut x, 0.0, 1.0, &mut rng::seeded(1));

    for _ in 0..2 {
        let y = qc.forward(&ctx, &x, Mode::Eval);
        ws.recycle(y);
    }
    let weight_codes = (c_out * c_in * k * k) as u64;
    for i in 0..4 {
        let before = BYTES.load(Relaxed);
        let y = qc.forward(&ctx, &x, Mode::Eval);
        let bytes = BYTES.load(Relaxed) - before;
        ws.recycle(y);
        // The lowered panel alone is 8·16·16 pixels × 288 taps × 2 bytes
        // ≈ 1.2 MB; the bound leaves room for neither it nor re-coded
        // weights.
        assert!(
            bytes < SMALL_CONSTANT,
            "warm forward {i} allocated {bytes} B (weight codes are {weight_codes} B)"
        );
    }
}
