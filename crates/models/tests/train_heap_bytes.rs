//! Heap traffic of a training step through an f32 convolution, measured
//! by a counting global allocator (this binary holds one test, so nothing
//! else runs while it measures).
//!
//! The training conv runs on the per-image lowering: its forward is the
//! eval forward, its backward cache keeps the quantized input rather than
//! the batch's column matrix (`C_in·K²·N·OH·OW` floats), and its backward
//! lowers one image at a time. So even a cold train forward plus backward
//! — every activation, gradient, panel and scratch freshly allocated —
//! stays below the size of that one column matrix.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ams_models::{HardwareConfig, InputKind, QConv2d};
use ams_nn::{Layer, Mode};
use ams_quant::QuantConfig;
use ams_tensor::{rng, ExecCtx, Tensor};

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

#[test]
fn cold_train_step_allocates_less_than_the_batch_column_matrix() {
    let (n, c_in, c_out, k, side) = (16, 16, 16, 3, 16);
    let ctx = ExecCtx::serial();
    let mut r = rng::seeded(0);
    let hw = HardwareConfig::quantized(QuantConfig::w8a8());
    let mut qc = QConv2d::new("c", c_in, c_out, k, 1, 1, &hw, InputKind::Unit, 0, &mut r);
    let mut x = Tensor::zeros(&[n, c_in, side, side]);
    rng::fill_uniform(&mut x, 0.0, 1.0, &mut rng::seeded(1));
    let mut dy = Tensor::zeros(&[n, c_out, side, side]);
    rng::fill_uniform(&mut dy, -1.0, 1.0, &mut rng::seeded(2));

    // The batch's column matrix: 144 taps × 4096 pixels × 4 bytes.
    let columns = (c_in * k * k * n * side * side * 4) as u64;
    let before = BYTES.load(Relaxed);
    let y = qc.forward(&ctx, &x, Mode::Train);
    let dx = qc.backward(&ctx, &dy);
    let bytes = BYTES.load(Relaxed) - before;
    assert_eq!(y.dims(), dy.dims());
    assert_eq!(dx.dims(), x.dims());
    assert!(
        bytes < columns,
        "cold train forward + backward allocated {bytes} B, \
         the column matrix alone is {columns} B"
    );
}
