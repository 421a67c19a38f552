//! A reusable-buffer arena so steady-state forward/backward passes make
//! zero heap allocations in the hot path.
//!
//! Every kernel that needs scratch or output storage takes a buffer from
//! the [`Workspace`] carried on [`crate::ExecCtx`] instead of calling the
//! global allocator. Callers return buffers with [`Workspace::recycle`] /
//! [`Workspace::recycle_vec`] when a tensor's lifetime ends (e.g. the
//! previous iteration's activations), and the next `take` of a similar
//! size reuses the allocation.
//!
//! # Capacity classes
//!
//! Buffers are pooled by *capacity class*: the next power of two at or
//! above the requested length (minimum 64). A `take(1000)` therefore
//! returns a buffer with capacity 1024, and recycling it files it back
//! under class 1024, so repeated passes with identical shapes always hit
//! the pool. Taken buffers are zero-filled — kernels that rely on
//! zero-initialized output (im2col padding, col2im scatter-add) stay
//! correct.
//!
//! # Lifetime rules
//!
//! * The workspace is `const`-constructible, so `ExecCtx::serial()` (and
//!   statics holding it) keep working.
//! * Recycling is always optional: a tensor whose buffer came from the
//!   workspace can simply be dropped; the allocation is then returned to
//!   the global allocator rather than the pool. Nothing dangles.
//! * Cloned `ExecCtx`s start with a *fresh, empty* workspace — pooled
//!   buffers never travel between contexts, so sweep arms running on
//!   separate cloned contexts never contend on a pool lock.
//! * Pools are bounded ([`MAX_POOLED_PER_CLASS`] buffers per class), so a
//!   one-off giant temporary cannot pin unbounded memory.
//!
//! # Integer panels
//!
//! The i8 GEMM's k-contiguous i16 operand panels come from a second free
//! list beside the f32 one, with the same capacity classes, bounds and
//! counters: [`Workspace::take_panel_i16`] returns an [`I16Panel`] sliced
//! at its first 64-byte-aligned element, [`Workspace::recycle_panel_i16`]
//! files it back. Panels are *not* zero-filled — every producer (the
//! `pack_*` functions and the fused activation lowering) writes each
//! element — so a warm panel costs no memset.

use crate::shape::ShapeExt;
use crate::tensor::Tensor;
use parking_lot::Mutex;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Smallest capacity class; requests below this still get a 64-element
/// buffer so tiny tensors round-trip through the pool too.
const MIN_CLASS: usize = 64;

/// Upper bound on pooled buffers per capacity class. Steady-state
/// forward/backward passes keep well under this; the cap only guards
/// against unbounded growth from pathological recycle patterns.
const MAX_POOLED_PER_CLASS: usize = 32;

/// Slack, in i16 elements, that lets an [`I16Panel`] start on a 64-byte
/// boundary: `Vec` only guarantees element alignment.
const PANEL_ALIGN_PAD: usize = 32;

/// One free-list of same-class buffers.
#[derive(Debug)]
struct Pool<T> {
    class: usize,
    buffers: Vec<Vec<T>>,
}

/// Free lists of one element type, one per capacity class.
#[derive(Debug)]
struct FreeLists<T>(Mutex<Vec<Pool<T>>>);

impl<T> FreeLists<T> {
    const fn new() -> Self {
        FreeLists(Mutex::new(Vec::new()))
    }

    fn pop(&self, class: usize) -> Option<Vec<T>> {
        self.0
            .lock()
            .iter_mut()
            .find(|p| p.class == class)
            .and_then(|p| p.buffers.pop())
    }

    /// Files `buf` under the largest class its capacity fully covers, so
    /// a later take of that class never needs to grow it (workspace
    /// buffers have power-of-two capacity and round-trip under their
    /// original class). Buffers below the minimum class, or over a full
    /// class, are dropped instead — recycling is a hint, never an
    /// obligation.
    fn push(&self, buf: Vec<T>) {
        let cap = buf.capacity();
        if cap < MIN_CLASS {
            return;
        }
        let class = 1usize << (usize::BITS - 1 - cap.leading_zeros());
        let mut pools = self.0.lock();
        match pools.iter_mut().find(|p| p.class == class) {
            Some(p) => {
                if p.buffers.len() < MAX_POOLED_PER_CLASS {
                    p.buffers.push(buf);
                }
            }
            None => pools.push(Pool {
                class,
                buffers: vec![buf],
            }),
        }
    }
}

/// A k-contiguous i16 GEMM operand panel drawn from a [`Workspace`]: a
/// pooled buffer viewed from its first 64-byte-aligned element, so the
/// integer kernel's vector loads stay within one cache line.
///
/// Derefs to exactly the requested number of elements. The contents of a
/// fresh take are unspecified (stale codes of an earlier use): the
/// producer must write every element.
#[derive(Debug)]
pub struct I16Panel {
    buf: Vec<i16>,
    off: usize,
}

impl Deref for I16Panel {
    type Target = [i16];

    fn deref(&self) -> &[i16] {
        &self.buf[self.off..]
    }
}

impl DerefMut for I16Panel {
    fn deref_mut(&mut self) -> &mut [i16] {
        &mut self.buf[self.off..]
    }
}

/// A bump-style pool of reusable `Vec<f32>` buffers (and [`I16Panel`]s)
/// keyed by capacity class, carried on [`crate::ExecCtx`].
///
/// # Example
///
/// ```
/// use ams_tensor::ExecCtx;
///
/// let ctx = ExecCtx::serial();
/// let ws = ctx.workspace();
/// let t = ws.take_tensor(&[4, 8]);      // fresh allocation
/// ws.recycle(t);
/// let _t2 = ws.take_tensor(&[4, 8]);    // reuses the same buffer
/// assert_eq!(ws.fresh_allocs(), 1);
/// assert_eq!(ws.pool_hits(), 1);
/// ```
#[derive(Debug)]
pub struct Workspace {
    f32s: FreeLists<f32>,
    i16s: FreeLists<i16>,
    fresh: AtomicUsize,
    hits: AtomicUsize,
}

impl Workspace {
    /// An empty workspace (`const`, so it can live inside
    /// `ExecCtx::serial()` statics).
    pub const fn new() -> Self {
        Workspace {
            f32s: FreeLists::new(),
            i16s: FreeLists::new(),
            fresh: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
        }
    }

    /// The capacity class a request of `len` elements is served from.
    fn class_of(len: usize) -> usize {
        len.max(MIN_CLASS).next_power_of_two()
    }

    /// A buffer of the class serving `len` elements: pooled when one
    /// exists (capacity at least the class by the recycle invariant, so
    /// resizing it to `len` never reallocates), else freshly allocated.
    fn pop_or_alloc<T>(&self, lists: &FreeLists<T>, len: usize) -> Vec<T> {
        let class = Self::class_of(len);
        match lists.pop(class) {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.fresh.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(class)
            }
        }
    }

    /// Takes a zero-filled buffer of exactly `len` elements, reusing a
    /// pooled allocation of the matching capacity class when one exists.
    pub fn take(&self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        let mut buf = self.pop_or_alloc(&self.f32s, len);
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Takes an i16 panel of exactly `len` elements starting on a 64-byte
    /// boundary, from the i16 free list. Not zero-filled: see
    /// [`I16Panel`].
    pub fn take_panel_i16(&self, len: usize) -> I16Panel {
        let mut buf = self.pop_or_alloc(&self.i16s, len + PANEL_ALIGN_PAD);
        let off = buf.as_ptr().align_offset(64).min(PANEL_ALIGN_PAD);
        // A warm buffer keeps its stale contents; only a grown tail is
        // written (with zeros).
        buf.resize(off + len, 0);
        I16Panel { buf, off }
    }

    /// Returns a panel's buffer to the i16 free list for reuse.
    pub fn recycle_panel_i16(&self, panel: I16Panel) {
        self.i16s.push(panel.buf);
    }

    /// Takes a zero-filled tensor of the given shape from the pool.
    pub fn take_tensor(&self, dims: &[usize]) -> Tensor {
        Tensor::from_vec(dims, self.take(dims.numel()))
            .expect("workspace buffer length matches the requested shape")
    }

    /// Returns a buffer to the pool for reuse.
    ///
    /// Buffers whose capacity is below the minimum class, or whose class
    /// pool is full, are dropped (freed) instead — recycling is a hint,
    /// never an obligation.
    pub fn recycle_vec(&self, buf: Vec<f32>) {
        self.f32s.push(buf);
    }

    /// Returns a tensor's backing buffer to the pool for reuse.
    pub fn recycle(&self, t: Tensor) {
        let (_, data) = t.into_parts();
        self.recycle_vec(data);
    }

    /// Copies `src` into a pooled buffer (a `clone` that avoids the
    /// allocator in steady state).
    pub fn clone_tensor(&self, src: &Tensor) -> Tensor {
        let mut buf = self.take(src.len());
        buf.copy_from_slice(src.data());
        Tensor::from_vec(src.dims(), buf).expect("buffer length matches source")
    }

    /// Maps `f` elementwise over `src` into a pooled buffer (the
    /// allocation-free counterpart of `Tensor::map`).
    pub fn map_tensor(&self, src: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
        let mut buf = self.take(src.len());
        for (o, &x) in buf.iter_mut().zip(src.data()) {
            *o = f(x);
        }
        Tensor::from_vec(src.dims(), buf).expect("buffer length matches source")
    }

    /// How many `take` requests were served by a fresh heap allocation.
    ///
    /// In a steady-state loop this counter must stay flat — that is the
    /// zero-allocation property the workspace exists for, and what the
    /// workspace-reuse tests assert.
    pub fn fresh_allocs(&self) -> usize {
        self.fresh.load(Ordering::Relaxed)
    }

    /// How many `take` requests were served from the pool.
    pub fn pool_hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_take_reuses_the_allocation() {
        let ws = Workspace::new();
        let a = ws.take(1000);
        let ptr = a.as_ptr() as usize;
        assert!(a.capacity() >= 1024, "rounded up to the capacity class");
        assert!(a.iter().all(|&v| v == 0.0));
        ws.recycle_vec(a);
        let b = ws.take(1010); // same class (1024)
        assert_eq!(b.as_ptr() as usize, ptr, "same-class take reuses buffer");
        assert_eq!(b.len(), 1010);
        assert_eq!(ws.fresh_allocs(), 1);
        assert_eq!(ws.pool_hits(), 1);
    }

    #[test]
    fn recycled_buffers_come_back_zeroed() {
        let ws = Workspace::new();
        let mut a = ws.take(128);
        a.iter_mut().for_each(|v| *v = 7.0);
        ws.recycle_vec(a);
        let b = ws.take(128);
        assert!(b.iter().all(|&v| v == 0.0), "takes must be zero-filled");
    }

    #[test]
    fn distinct_classes_do_not_share_buffers() {
        let ws = Workspace::new();
        let a = ws.take(64);
        let ptr = a.as_ptr() as usize;
        ws.recycle_vec(a);
        let b = ws.take(4096);
        assert_ne!(b.as_ptr() as usize, ptr);
        assert_eq!(ws.fresh_allocs(), 2);
    }

    #[test]
    fn take_tensor_round_trip() {
        let ws = Workspace::new();
        let t = ws.take_tensor(&[3, 5]);
        assert_eq!(t.dims(), &[3, 5]);
        ws.recycle(t);
        let t2 = ws.take_tensor(&[5, 3]);
        assert_eq!(ws.pool_hits(), 1, "same class despite different dims");
        assert_eq!(t2.dims(), &[5, 3]);
    }

    #[test]
    fn clone_and_map_use_the_pool() {
        let ws = Workspace::new();
        let src = Tensor::from_vec(&[2, 3], vec![1.0, -2.0, 3.0, -4.0, 5.0, -6.0]).unwrap();
        let c = ws.clone_tensor(&src);
        assert_eq!(c, src);
        ws.recycle(c);
        let m = ws.map_tensor(&src, f32::abs);
        assert_eq!(ws.pool_hits(), 1);
        assert_eq!(m.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn zero_len_take_is_a_noop() {
        let ws = Workspace::new();
        let v = ws.take(0);
        assert!(v.is_empty());
        assert_eq!(ws.fresh_allocs(), 0);
    }

    #[test]
    fn pool_depth_is_bounded() {
        let ws = Workspace::new();
        for _ in 0..(MAX_POOLED_PER_CLASS + 8) {
            ws.recycle_vec(vec![0.0; 64]);
        }
        let pools = ws.f32s.0.lock();
        assert_eq!(pools.len(), 1);
        assert!(pools[0].buffers.len() <= MAX_POOLED_PER_CLASS);
    }

    #[test]
    fn panels_are_aligned_and_pooled_beside_f32() {
        let ws = Workspace::new();
        let mut p = ws.take_panel_i16(1000);
        assert_eq!(p.len(), 1000);
        assert_eq!(p.as_ptr() as usize % 64, 0, "panel starts 64-byte-aligned");
        p.fill(7);
        let ptr = p.as_ptr() as usize;
        ws.recycle_panel_i16(p);
        // An f32 take of the same class never receives the i16 buffer.
        let f = ws.take(1000);
        assert_eq!(ws.pool_hits(), 0);
        ws.recycle_vec(f);
        let q = ws.take_panel_i16(1010);
        assert_eq!(q.as_ptr() as usize, ptr, "same-class panel take reuses it");
        assert_eq!(q.len(), 1010);
        assert_eq!(ws.fresh_allocs(), 2);
        assert_eq!(ws.pool_hits(), 1);
    }

    #[test]
    fn const_constructible() {
        static WS: Workspace = Workspace::new();
        let v = WS.take(100);
        assert_eq!(v.len(), 100);
    }
}
