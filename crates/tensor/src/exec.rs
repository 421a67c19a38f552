//! Execution context: worker threads, parallel dispatch, and RNG-stream
//! allocation.
//!
//! [`ExecCtx`] is threaded through every compute layer of the workspace —
//! kernels ([`crate::matmul_in`], [`crate::im2col_in`]), network layers
//! (`ams-nn`), models (`ams-models`) and the experiment runner
//! (`ams-exp`) — so that one value decides, in one place, how much
//! parallelism the whole stack uses.
//!
//! # Determinism guarantee
//!
//! Every parallel primitive here partitions work so that each output
//! element is computed by **exactly one** closure invocation running the
//! identical sequential code, and results are placed by index. No
//! floating-point reduction ever crosses a partition boundary, so results
//! are bit-identical for any thread count (1, 2, 8, ...). Randomness
//! never flows through the pool either: noise streams are allocated by
//! [`noise_stream_seed`] from `(seed, layer_index)` counters, not from
//! whichever thread happens to run a task.
//!
//! # Scheduling model
//!
//! Worker threads are scoped (`std::thread::scope`) per dispatch: there
//! is no long-lived pool, no `unsafe`, and nothing to shut down. An op
//! runs serially unless its estimated scalar work exceeds
//! [`Parallelism::min_work`] — small tensors are cheaper to compute than
//! to hand to threads.
//!
//! Fan-out does not nest past the configured width: each
//! [`ExecCtx::parallel_map`] worker gets a share of `threads / workers`
//! threads (at least one) for the dispatches it makes itself. A sweep
//! running 2 points at once on `--threads 2` therefore computes each
//! point's kernels serially instead of putting 4 busy threads on 2 cores.

use crate::workspace::Workspace;
use ams_obs::MetricsSink;
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// The most threads a dispatch made on this thread may use; lowered on
    /// each [`ExecCtx::parallel_map`] worker to its share of the map's
    /// threads. Unlimited on every other thread.
    static THREAD_BUDGET: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// How much parallelism the stack may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Maximum worker threads per dispatch; `1` means fully serial.
    pub threads: usize,
    /// Minimum estimated scalar operations before an op goes parallel;
    /// below this, dispatch overhead exceeds the win.
    pub min_work: usize,
}

/// Default parallelism threshold: roughly the work of a 64×64×16 matmul.
pub const DEFAULT_MIN_WORK: usize = 1 << 16;

impl Parallelism {
    /// Fully serial execution (also what [`ExecCtx::serial`] uses).
    pub const fn serial() -> Self {
        Parallelism {
            threads: 1,
            min_work: usize::MAX,
        }
    }

    /// `threads` workers with the default work threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "Parallelism: thread count must be at least 1");
        Parallelism {
            threads,
            min_work: DEFAULT_MIN_WORK,
        }
    }

    /// One worker per available hardware thread.
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Parallelism::with_threads(threads)
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

/// Which GEMM implementation eval-time layers dispatch to.
///
/// Carried by [`ExecCtx`] so one flag near `main` (`--kernel f32|i8` on
/// the experiment binaries) decides the arithmetic for the whole stack.
/// The default [`KernelDispatch::F32`] keeps every committed golden
/// byte-identical; [`KernelDispatch::I8`] routes quantized layer
/// evaluation through the packed i8×i8→i32 fast path, which is validated
/// *statistically* against the f32 kernels (see `crates/tensor`'s
/// `matmul_i8` module) rather than bit-for-bit. Training always runs the
/// f32 kernels regardless of the dispatch, so checkpoints are shared
/// between the two paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelDispatch {
    /// The tiled f32 kernels — bit-identical to the reference kernels and
    /// to every committed golden. The default.
    #[default]
    F32,
    /// The packed i8×i8→i32 integer fast path with a fused dequantize
    /// epilogue; exact in integer arithmetic, statistically bounded
    /// against f32.
    I8,
}

impl KernelDispatch {
    /// Short identifier used in CLI flags and artifact names.
    pub fn key(&self) -> &'static str {
        match self {
            KernelDispatch::F32 => "f32",
            KernelDispatch::I8 => "i8",
        }
    }

    /// Parses the CLI spelling (`"f32"` or `"i8"`).
    ///
    /// # Errors
    ///
    /// Returns the unknown name so callers can report it.
    pub fn by_name(name: &str) -> Result<Self, String> {
        match name {
            "f32" => Ok(KernelDispatch::F32),
            "i8" => Ok(KernelDispatch::I8),
            other => Err(format!("unknown kernel {other:?}; expected f32|i8")),
        }
    }
}

impl std::fmt::Display for KernelDispatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.key())
    }
}

/// The execution context threaded through kernels, layers, models and
/// experiments.
///
/// Cheap to borrow everywhere (`&ExecCtx`); create once near `main` and
/// pass down. [`ExecCtx::serial`] is a `const fn`, so tests and examples
/// can use `&ExecCtx::serial()` inline.
#[derive(Debug)]
pub struct ExecCtx {
    par: Parallelism,
    /// Dispatches that actually ran on the pool (observability/tests).
    parallel_dispatches: AtomicUsize,
    /// Metrics sink; disabled (free) unless attached via [`ExecCtx::with_metrics`].
    metrics: MetricsSink,
    /// Reusable-buffer arena so steady-state passes allocate nothing.
    workspace: Workspace,
    /// Which GEMM family quantized eval forwards dispatch to.
    kernel: KernelDispatch,
}

impl Clone for ExecCtx {
    fn clone(&self) -> Self {
        // Dispatch statistics and the buffer workspace are per-instance
        // (a clone starts with a fresh, empty arena so contexts never
        // contend on a pool lock), but the metrics sink and kernel
        // dispatch travel with the context so clones record into the same
        // registry and compute on the same arithmetic path.
        ExecCtx::new(self.par)
            .with_metrics(self.metrics.clone())
            .with_kernel(self.kernel)
    }
}

impl Default for ExecCtx {
    fn default() -> Self {
        ExecCtx::auto()
    }
}

impl ExecCtx {
    /// A context with explicit parallelism settings.
    pub const fn new(par: Parallelism) -> Self {
        ExecCtx {
            par,
            parallel_dispatches: AtomicUsize::new(0),
            metrics: MetricsSink::disabled(),
            workspace: Workspace::new(),
            kernel: KernelDispatch::F32,
        }
    }

    /// Selects the GEMM dispatch quantized eval forwards use. The default
    /// [`KernelDispatch::F32`] reproduces every committed golden
    /// byte-identically; [`KernelDispatch::I8`] enables the integer fast
    /// path (statistically gated — see the `matmul_i8` module docs).
    pub fn with_kernel(mut self, kernel: KernelDispatch) -> Self {
        self.kernel = kernel;
        self
    }

    /// The GEMM dispatch quantized eval forwards use.
    pub fn kernel(&self) -> KernelDispatch {
        self.kernel
    }

    /// Attaches a metrics sink; every layer holding this context (or a
    /// clone of it) records into the sink's registry. The default sink is
    /// [`MetricsSink::disabled`], which reduces every recording call to a
    /// branch on a `None`.
    pub fn with_metrics(mut self, sink: MetricsSink) -> Self {
        self.metrics = sink;
        self
    }

    /// Replaces the metrics sink in place, keeping the context's
    /// workspace (and its warmed buffer pool) intact — unlike
    /// rebuilding the context via `clone().with_metrics(..)`.
    pub fn set_metrics(&mut self, sink: MetricsSink) {
        self.metrics = sink;
    }

    /// The attached metrics sink (disabled by default).
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// The reusable-buffer arena kernels and layers draw scratch and
    /// output storage from. See [`Workspace`] for the lifetime rules.
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// The always-serial context: every op runs inline on the caller's
    /// thread. Bit-identical to any parallel context by construction.
    pub const fn serial() -> Self {
        ExecCtx::new(Parallelism::serial())
    }

    /// A context using every available hardware thread.
    pub fn auto() -> Self {
        ExecCtx::new(Parallelism::auto())
    }

    /// A context sized from the `AMS_THREADS` environment variable (a
    /// positive integer), falling back to [`ExecCtx::auto`] when unset or
    /// unparseable. This is how CI's thread matrix pins the pool width
    /// without threading a flag through every binary — results are
    /// bit-identical for any value, so only wall-clock changes.
    pub fn from_env() -> Self {
        match std::env::var("AMS_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            Some(n) => ExecCtx::with_threads(n),
            None => ExecCtx::auto(),
        }
    }

    /// A context with exactly `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        ExecCtx::new(Parallelism::with_threads(threads))
    }

    /// The configured parallelism.
    pub fn parallelism(&self) -> Parallelism {
        self.par
    }

    /// Maximum worker threads per dispatch.
    pub fn threads(&self) -> usize {
        self.par.threads
    }

    /// Whether an op with `work` estimated scalar operations should be
    /// dispatched to the pool.
    pub fn should_parallelize(&self, work: usize) -> bool {
        self.par.threads > 1 && work >= self.par.min_work
    }

    /// Threads a dispatch made on the calling thread may use: the
    /// configured width, capped inside a [`ExecCtx::parallel_map`] worker
    /// by its share of the map's threads.
    fn dispatch_threads(&self) -> usize {
        self.par.threads.min(THREAD_BUDGET.with(Cell::get))
    }

    /// How many dispatches actually ran multi-threaded so far.
    pub fn parallel_dispatch_count(&self) -> usize {
        self.parallel_dispatches.load(Ordering::Relaxed)
    }

    /// Runs `f(chunk_index, chunk)` over `out` split into consecutive
    /// `chunk_len` pieces, in parallel when worthwhile.
    ///
    /// Each chunk is processed by exactly one invocation, so as long as
    /// `f` is deterministic per chunk (it must not mutate shared state),
    /// the result is bit-identical to the serial loop for any thread
    /// count. `work_per_chunk` is the estimated scalar operations per
    /// chunk, used for the serial/parallel decision.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not a multiple of `chunk_len` (for
    /// non-empty `out`).
    pub fn for_each_chunk<T, F>(&self, out: &mut [T], chunk_len: usize, work_per_chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if out.is_empty() {
            return;
        }
        assert_eq!(
            out.len() % chunk_len,
            0,
            "for_each_chunk: output length {} is not a multiple of chunk length {chunk_len}",
            out.len()
        );
        let n_chunks = out.len() / chunk_len;
        let workers = self.dispatch_threads().min(n_chunks);
        if workers <= 1 || !self.should_parallelize(n_chunks.saturating_mul(work_per_chunk)) {
            self.metrics.inc("exec.for_each_chunk.serial");
            let _t = self.metrics.scope(|| "exec.for_each_chunk".to_string());
            for (idx, chunk) in out.chunks_mut(chunk_len).enumerate() {
                f(idx, chunk);
            }
            return;
        }
        self.parallel_dispatches.fetch_add(1, Ordering::Relaxed);
        self.metrics.inc("exec.for_each_chunk.parallel");
        let _t = self.metrics.scope(|| "exec.for_each_chunk".to_string());
        // Contiguous near-equal partition: worker t takes chunk range
        // [t*q + min(t, r), ...) where q = n/workers, r = n % workers.
        let q = n_chunks / workers;
        let r = n_chunks % workers;
        std::thread::scope(|scope| {
            let mut rest = out;
            let mut start = 0usize;
            for t in 0..workers {
                let count = q + usize::from(t < r);
                let (mine, tail) = rest.split_at_mut(count * chunk_len);
                rest = tail;
                let fr = &f;
                scope.spawn(move || {
                    for (off, chunk) in mine.chunks_mut(chunk_len).enumerate() {
                        fr(start + off, chunk);
                    }
                });
                start += count;
            }
        });
    }

    /// Runs `f(first_chunk_index, span)` over `out` split into consecutive
    /// `chunk_len` pieces, handing each worker its whole contiguous run of
    /// chunks in **one** invocation (the last chunk may be ragged when
    /// `out.len()` is not a multiple of `chunk_len`).
    ///
    /// This is the primitive for kernels that want to reorder loops
    /// *across* the chunks they own — e.g. the tiled matmul keeps one
    /// packed rhs panel hot across all of a worker's row bands. The
    /// determinism contract is therefore stronger than
    /// [`ExecCtx::for_each_chunk`]'s: `f` must compute each output element
    /// identically regardless of how chunks are grouped into spans (no
    /// accumulator may be carried from one chunk to another), so results
    /// stay bit-identical for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn for_each_span<F>(&self, out: &mut [f32], chunk_len: usize, work_per_chunk: usize, f: F)
    where
        F: Fn(usize, &mut [f32]) + Sync,
    {
        if out.is_empty() {
            return;
        }
        assert!(
            chunk_len > 0,
            "for_each_span: chunk length must be positive"
        );
        let n_chunks = out.len().div_ceil(chunk_len);
        let workers = self.dispatch_threads().min(n_chunks);
        if workers <= 1 || !self.should_parallelize(n_chunks.saturating_mul(work_per_chunk)) {
            self.metrics.inc("exec.for_each_span.serial");
            let _t = self.metrics.scope(|| "exec.for_each_span".to_string());
            f(0, out);
            return;
        }
        self.parallel_dispatches.fetch_add(1, Ordering::Relaxed);
        self.metrics.inc("exec.for_each_span.parallel");
        let _t = self.metrics.scope(|| "exec.for_each_span".to_string());
        // Same contiguous near-equal partition as `for_each_chunk`.
        let q = n_chunks / workers;
        let r = n_chunks % workers;
        std::thread::scope(|scope| {
            let mut rest = out;
            let mut start = 0usize;
            for t in 0..workers {
                let count = q + usize::from(t < r);
                let take = (count * chunk_len).min(rest.len());
                let (mine, tail) = rest.split_at_mut(take);
                rest = tail;
                let fr = &f;
                let first = start;
                scope.spawn(move || fr(first, mine));
                start += count;
            }
        });
    }

    /// Maps `f` over `items` on the pool, returning results in input
    /// order.
    ///
    /// Items are claimed from an atomic queue (good load balance for
    /// uneven work like experiment sweep arms) but each result is placed
    /// at its item's index, so output order — and, provided `f` is
    /// deterministic per item, output *content* — is independent of
    /// thread count and scheduling.
    ///
    /// Dispatches `f` makes on a worker thread may use `threads / workers`
    /// threads (at least one), so nested fan-out never exceeds the
    /// configured width.
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let threads = self.dispatch_threads();
        let workers = threads.min(items.len());
        if workers <= 1 {
            self.metrics.inc("exec.parallel_map.serial");
            let _t = self.metrics.scope(|| "exec.parallel_map".to_string());
            return items.iter().map(f).collect();
        }
        self.parallel_dispatches.fetch_add(1, Ordering::Relaxed);
        self.metrics.inc("exec.parallel_map.parallel");
        let _t = self.metrics.scope(|| "exec.parallel_map".to_string());
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        // `workers <= threads`, so every worker keeps at least one thread.
        let budget = threads / workers;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    THREAD_BUDGET.with(|b| b.set(budget));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        *slots[i].lock() = Some(f(item));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("every slot filled by exactly one worker")
            })
            .collect()
    }
}

/// Derives a decorrelated per-layer RNG stream seed from a network-level
/// seed and a layer counter (SplitMix64-style finalizer).
///
/// This is the workspace's single RNG-stream allocation point: layers
/// never invent their own mixing, so streams stay decorrelated across
/// layers and reproducible across runs and thread counts. Moved here from
/// `ams-models` so kernels, layers and experiments share one scheme.
pub fn noise_stream_seed(network_seed: u64, layer_index: u64) -> u64 {
    let mut z = network_seed ^ layer_index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_ctx_is_const_and_inline() {
        // `serial` is a const fn, so a context can live in a static.
        static CTX: ExecCtx = ExecCtx::serial();
        assert_eq!(CTX.threads(), 1);
        assert!(!CTX.should_parallelize(usize::MAX));
    }

    #[test]
    fn for_each_chunk_matches_serial_for_any_thread_count() {
        let chunk = 16usize;
        let n = 64usize;
        let kernel = |idx: usize, out: &mut [f32]| {
            for (j, v) in out.iter_mut().enumerate() {
                *v = ((idx * 31 + j) as f32).sin();
            }
        };
        let mut want = vec![0.0f32; n * chunk];
        ExecCtx::serial().for_each_chunk(&mut want, chunk, usize::MAX, kernel);
        for threads in [2, 3, 8, 64, 77] {
            let ctx = ExecCtx::new(Parallelism {
                threads,
                min_work: 0,
            });
            let mut got = vec![0.0f32; n * chunk];
            ctx.for_each_chunk(&mut got, chunk, usize::MAX, kernel);
            assert_eq!(got, want, "threads = {threads}");
            assert_eq!(ctx.parallel_dispatch_count(), 1);
        }
    }

    #[test]
    fn small_work_stays_serial() {
        let ctx = ExecCtx::with_threads(8);
        let mut out = vec![0.0f32; 8];
        ctx.for_each_chunk(&mut out, 1, 1, |i, c| c[0] = i as f32);
        assert_eq!(ctx.parallel_dispatch_count(), 0);
        assert_eq!(out, (0..8).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..40).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 7, 40] {
            let ctx = ExecCtx::new(Parallelism {
                threads,
                min_work: 0,
            });
            let got = ctx.parallel_map(&items, |x| x * x);
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_map_workers_share_the_thread_budget() {
        let nested = |threads: usize| {
            let ctx = ExecCtx::new(Parallelism {
                threads,
                min_work: 0,
            });
            let sums = ctx.parallel_map(&[1usize, 2], |&k| {
                let mut out = vec![0usize; 64];
                ctx.for_each_chunk(&mut out, 16, usize::MAX, |i, c| c.fill(i * k));
                out.iter().sum::<usize>()
            });
            assert_eq!(sums, vec![96, 192], "threads = {threads}");
            ctx.parallel_dispatch_count()
        };
        // 2 threads over 2 items: each worker's budget is 1, so only the
        // map itself fans out.
        assert_eq!(nested(2), 1);
        // 8 threads over 2 items: each worker may still use 4 threads.
        assert_eq!(nested(8), 3);
        // Outside any map the full width is available again.
        let ctx = ExecCtx::new(Parallelism {
            threads: 2,
            min_work: 0,
        });
        let mut out = vec![0.0f32; 64];
        ctx.for_each_chunk(&mut out, 16, usize::MAX, |i, c| c.fill(i as f32));
        assert_eq!(ctx.parallel_dispatch_count(), 1);
    }

    #[test]
    fn metrics_sink_travels_with_clones_and_counts_dispatches() {
        let sink = MetricsSink::recording();
        let ctx = ExecCtx::new(Parallelism {
            threads: 4,
            min_work: 0,
        })
        .with_metrics(sink.clone());
        let cloned = ctx.clone();
        let mut out = vec![0.0f32; 64];
        cloned.for_each_chunk(&mut out, 16, usize::MAX, |i, c| c.fill(i as f32));
        let report = sink.registry().unwrap().report();
        assert_eq!(
            report
                .counter("exec.for_each_chunk.parallel")
                .unwrap()
                .value,
            1
        );
        assert_eq!(report.timer("exec.for_each_chunk").unwrap().count, 1);
    }

    #[test]
    fn disabled_metrics_by_default() {
        assert!(!ExecCtx::serial().metrics().enabled());
    }

    #[test]
    fn stream_seeds_decorrelate() {
        assert_ne!(noise_stream_seed(1, 0), noise_stream_seed(1, 1));
        assert_ne!(noise_stream_seed(1, 0), noise_stream_seed(2, 0));
        assert_eq!(noise_stream_seed(7, 3), noise_stream_seed(7, 3));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn rejects_ragged_chunks() {
        ExecCtx::serial().for_each_chunk(&mut [0.0; 5], 2, 1, |_, _| {});
    }

    #[test]
    fn for_each_span_matches_serial_with_ragged_tail() {
        // 7 chunks of 16 plus a ragged chunk of 5.
        let total = 7 * 16 + 5;
        let kernel = |first: usize, span: &mut [f32]| {
            for (off, chunk) in span.chunks_mut(16).enumerate() {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = (((first + off) * 131 + j) as f32).cos();
                }
            }
        };
        let mut want = vec![0.0f32; total];
        ExecCtx::serial().for_each_span(&mut want, 16, usize::MAX, kernel);
        for threads in [2, 3, 5, 8, 64] {
            let ctx = ExecCtx::new(Parallelism {
                threads,
                min_work: 0,
            });
            let mut got = vec![0.0f32; total];
            ctx.for_each_span(&mut got, 16, usize::MAX, kernel);
            assert_eq!(got, want, "threads = {threads}");
            assert_eq!(ctx.parallel_dispatch_count(), 1);
        }
    }

    #[test]
    fn kernel_dispatch_defaults_to_f32_and_travels_with_clones() {
        let ctx = ExecCtx::serial();
        assert_eq!(ctx.kernel(), KernelDispatch::F32);
        let i8ctx = ExecCtx::with_threads(2).with_kernel(KernelDispatch::I8);
        assert_eq!(i8ctx.kernel(), KernelDispatch::I8);
        assert_eq!(i8ctx.clone().kernel(), KernelDispatch::I8);
        assert_eq!(KernelDispatch::by_name("i8"), Ok(KernelDispatch::I8));
        assert_eq!(KernelDispatch::by_name("f32"), Ok(KernelDispatch::F32));
        assert!(KernelDispatch::by_name("f16").is_err());
        assert_eq!(KernelDispatch::I8.to_string(), "i8");
    }

    #[test]
    fn workspace_is_per_context() {
        let ctx = ExecCtx::serial();
        let t = ctx.workspace().take_tensor(&[8, 8]);
        ctx.workspace().recycle(t);
        assert_eq!(ctx.workspace().fresh_allocs(), 1);
        let cloned = ctx.clone();
        assert_eq!(
            cloned.workspace().fresh_allocs(),
            0,
            "clones start with an empty workspace"
        );
    }

    #[test]
    fn set_metrics_keeps_the_workspace() {
        let mut ctx = ExecCtx::serial();
        let t = ctx.workspace().take_tensor(&[64]);
        ctx.workspace().recycle(t);
        ctx.set_metrics(MetricsSink::recording());
        assert!(ctx.metrics().enabled());
        let _t = ctx.workspace().take_tensor(&[64]);
        assert_eq!(ctx.workspace().pool_hits(), 1, "pool survived set_metrics");
    }
}
