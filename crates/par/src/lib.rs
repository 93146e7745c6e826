//! # dfm-par — deterministic parallel execution substrate
//!
//! Every engine in this workspace (litho convolution, DRC sweeps,
//! Monte-Carlo critical area, pattern scanning, timing extraction) is
//! required to produce **bit-identical output at any thread count** —
//! the determinism contract in `DESIGN.md`. This crate is the only
//! place threads are created: a std-only scoped fork-join layer whose
//! primitives guarantee *deterministic ordered reduction*: results are
//! combined in input order regardless of completion order.
//!
//! The contract has two halves, one provided here and one owed by the
//! caller:
//!
//! * **this crate** always delivers per-item / per-chunk results in
//!   input order, and partitions work purely by index (never by timing,
//!   never by which worker got there first);
//! * **the caller** must make each item/chunk computation a pure
//!   function of its index and inputs. RNG-consuming tasks take
//!   per-chunk seeds (`dfm_rand::Seed::derive(chunk_index)` or
//!   sequentially pre-forked generators), never a stream shared across
//!   chunks.
//!
//! Under those rules `DFM_THREADS=1` and `DFM_THREADS=64` produce the
//! same bits, which is what the cross-thread determinism suite at the
//! workspace root asserts end to end.
//!
//! ## Thread count
//!
//! [`thread_count`] resolves, in order: a scoped [`with_threads`]
//! override (propagated into worker threads so nested parallel regions
//! follow the same setting), the `DFM_THREADS` environment variable,
//! then [`std::thread::available_parallelism`]. A resolved count of 1
//! takes a zero-overhead sequential path — no threads are spawned and
//! no result buffers are reordered.
//!
//! ```
//! let doubled = dfm_par::par_map(&[1, 2, 3, 4], |_, &x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6, 8]);
//!
//! // Identical output at any thread count, by construction:
//! let at_one = dfm_par::with_threads(1, || dfm_par::par_map_range(10, |i| i * i));
//! let at_eight = dfm_par::with_threads(8, || dfm_par::par_map_range(10, |i| i * i));
//! assert_eq!(at_one, at_eight);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

thread_local! {
    /// Scoped thread-count override; 0 means "no override".
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// `DFM_THREADS` parsed once per process (0 / unset / garbage → none).
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("DFM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// The number of worker threads parallel primitives will use right now:
/// a [`with_threads`] override if one is active on this thread, else
/// `DFM_THREADS`, else the machine's available parallelism.
pub fn thread_count() -> usize {
    let o = OVERRIDE.with(|c| c.get());
    if o > 0 {
        return o;
    }
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` with the thread count pinned to `n` (for tests, benches and
/// the determinism suite). The override is scoped to this call and is
/// inherited by worker threads spawned inside it, so nested parallel
/// regions follow the same setting.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "thread count must be at least 1");
    OVERRIDE.with(|c| {
        let prev = c.replace(n);
        let guard = RestoreOverride { prev };
        let out = f();
        drop(guard);
        out
    })
}

/// Restores the thread-local override even if the closure panics.
struct RestoreOverride {
    prev: usize,
}

impl Drop for RestoreOverride {
    fn drop(&mut self) {
        OVERRIDE.with(|c| c.set(self.prev));
    }
}

/// Fork-join over chunk indices `0..n_chunks`: `work(chunk)` runs on
/// some worker, results come back ordered by chunk index. The shared
/// cursor hands out chunks dynamically (load balance) but the output
/// position of each result is its index, so completion order is
/// invisible to the caller.
fn fork_join_indexed<R: Send>(
    n_chunks: usize,
    threads: usize,
    work: &(impl Fn(usize) -> R + Sync),
) -> Vec<R> {
    debug_assert!(threads > 1 && n_chunks > 1);
    let workers = threads.min(n_chunks);
    let cursor = AtomicUsize::new(0);
    let mut collected: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    // Workers inherit the effective count so nested
                    // parallel regions follow the caller's setting.
                    with_threads(threads, || {
                        let mut mine = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n_chunks {
                                return mine;
                            }
                            mine.push((i, work(i)));
                        }
                    })
                })
            })
            .collect();
        // Join every worker before reacting to any panic, then rethrow
        // the first worker's payload on the calling thread — a single
        // clean unwind instead of a panic-while-panicking teardown.
        let mut results = Vec::with_capacity(workers);
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(r) => results.push(r),
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        results
    });
    // Ordered reduction: place every result at its input index.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n_chunks);
    slots.resize_with(n_chunks, || None);
    for (i, r) in collected.drain(..).flatten() {
        debug_assert!(slots[i].is_none());
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every chunk produced a result"))
        .collect()
}

/// Maps `f(index, &item)` over `items`, returning results in input
/// order. Sequential when the effective thread count is 1.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let threads = thread_count();
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    fork_join_indexed(items.len(), threads, &|i| f(i, &items[i]))
}

/// Maps `f(i)` over `0..n`, returning results in index order.
pub fn par_map_range<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = thread_count();
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    fork_join_indexed(n, threads, &f)
}

/// Splits `items` into contiguous chunks of `chunk_len` and maps
/// `f(chunk_index, chunk)` over them, returning per-chunk results in
/// chunk order. Chunk boundaries depend only on `chunk_len`, never on
/// the thread count — the partition a caller derives per-chunk seeds
/// from is therefore stable.
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
pub fn par_chunks<T: Sync, R: Send>(
    items: &[T],
    chunk_len: usize,
    f: impl Fn(usize, &[T]) -> R + Sync,
) -> Vec<R> {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let threads = thread_count();
    if threads <= 1 || items.len() <= chunk_len {
        return items.chunks(chunk_len).enumerate().map(|(i, c)| f(i, c)).collect();
    }
    let n_chunks = items.len().div_ceil(chunk_len);
    fork_join_indexed(n_chunks, threads, &|i| {
        let start = i * chunk_len;
        let end = (start + chunk_len).min(items.len());
        f(i, &items[start..end])
    })
}

/// Runs `f(chunk_index, element_offset, chunk)` over disjoint mutable
/// chunks of `data`, `chunk_len` elements each (the last chunk may be
/// short). `element_offset` is the index of the chunk's first element
/// in `data`. Used for row-band raster passes where each band owns a
/// contiguous span of pixels.
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let threads = thread_count();
    if threads <= 1 || data.len() <= chunk_len {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, i * chunk_len, chunk);
        }
        return;
    }
    let chunks: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_len).enumerate().collect();
    let n_chunks = chunks.len();
    let workers = threads.min(n_chunks);
    // Static contiguous partition of the chunk list per worker; each
    // chunk is still tagged with its global index for the callback.
    let per_worker = n_chunks.div_ceil(workers);
    std::thread::scope(|scope| {
        let f = &f;
        let mut rest = chunks;
        while !rest.is_empty() {
            let take = per_worker.min(rest.len());
            let tail = rest.split_off(take);
            let mine = std::mem::replace(&mut rest, tail);
            scope.spawn(move || {
                with_threads(threads, || {
                    for (i, chunk) in mine {
                        f(i, i * chunk_len, chunk);
                    }
                });
            });
        }
    });
}

/// Streaming ordered reduction over a lazily produced sequence.
///
/// `produce(i)` builds item `i` (for `i` in `0..n`) on some worker;
/// `fold` consumes the items **strictly in index order** on the calling
/// thread. At most `window` produced-but-unconsumed items exist at any
/// moment, so a pipeline over `n` expensive items (layout tiles, raster
/// bands) holds O(`window`) of them in memory instead of O(`n`) — this
/// is the primitive the tiled engines stream tiles through.
///
/// Determinism: the fold order is the index order regardless of worker
/// completion order, so the result is bit-identical at any thread
/// count; `produce` must be a pure function of its index.
///
/// # Panics
///
/// Panics if `window == 0` or a worker panics.
pub fn par_reduce_streaming<T: Send, A>(
    n: usize,
    window: usize,
    produce: impl Fn(usize) -> T + Sync,
    init: A,
    mut fold: impl FnMut(A, T) -> A,
) -> A {
    assert!(window > 0, "window must be positive");
    let threads = thread_count();
    if threads <= 1 || n <= 1 {
        let mut acc = init;
        for i in 0..n {
            acc = fold(acc, produce(i));
        }
        return acc;
    }

    use std::collections::BTreeMap;
    use std::sync::{Condvar, Mutex};

    /// Shared pipeline state: the next index to claim, the next index
    /// the consumer will fold, the finished-but-unfolded items, and the
    /// poison latch a panicking producer leaves behind (so the consumer
    /// rethrows instead of waiting forever for an item that will never
    /// arrive).
    struct State<T> {
        next_claim: usize,
        base: usize,
        done: BTreeMap<usize, T>,
        poisoned: bool,
        poison: Option<Box<dyn std::any::Any + Send>>,
    }

    let state = Mutex::new(State {
        next_claim: 0,
        base: 0,
        done: BTreeMap::new(),
        poisoned: false,
        poison: None,
    });
    // `item`: signalled when the item the consumer waits for arrives.
    // `space`: signalled when `base` advances and claims may resume.
    let item = Condvar::new();
    let space = Condvar::new();

    std::thread::scope(|scope| {
        let workers = threads.min(n);
        for _ in 0..workers {
            let (state, item, space) = (&state, &item, &space);
            let produce = &produce;
            scope.spawn(move || {
                with_threads(threads, || loop {
                    let i = {
                        let mut s = state.lock().expect("dfm-par streaming lock");
                        while !s.poisoned && s.next_claim < n && s.next_claim - s.base >= window {
                            s = space.wait(s).expect("dfm-par streaming wait");
                        }
                        if s.poisoned || s.next_claim >= n {
                            return;
                        }
                        s.next_claim += 1;
                        s.next_claim - 1
                    };
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| produce(i))) {
                        Ok(t) => {
                            let mut s = state.lock().expect("dfm-par streaming lock");
                            s.done.insert(i, t);
                            if i == s.base {
                                item.notify_all();
                            }
                        }
                        Err(payload) => {
                            let mut s = state.lock().expect("dfm-par streaming lock");
                            if !s.poisoned {
                                s.poisoned = true;
                                s.poison = Some(payload);
                            }
                            item.notify_all();
                            space.notify_all();
                            return;
                        }
                    }
                })
            });
        }

        let mut acc = init;
        for i in 0..n {
            let t = {
                let mut s = state.lock().expect("dfm-par streaming lock");
                loop {
                    if s.poisoned {
                        // `poisoned` stays latched so remaining workers
                        // drain; rethrow the producer's panic here.
                        let payload = s.poison.take();
                        space.notify_all();
                        drop(s);
                        match payload {
                            Some(p) => std::panic::resume_unwind(p),
                            None => panic!("dfm-par streaming producer panicked"),
                        }
                    }
                    if let Some(t) = s.done.remove(&i) {
                        s.base = i + 1;
                        space.notify_all();
                        break t;
                    }
                    s = item.wait(s).expect("dfm-par streaming wait");
                }
            };
            acc = fold(acc, t);
        }
        acc
    })
}

/// Maps `map(chunk_index, chunk)` over `chunk_len`-sized chunks of
/// `items`, then folds the per-chunk accumulators **in chunk order**
/// with `fold`. Returns `None` for empty input. Because the fold order
/// is the input order, non-associative-in-practice reductions (f64
/// sums) are bit-identical at every thread count.
///
/// # Panics
///
/// Panics if `chunk_len == 0`.
pub fn par_reduce_ordered<T: Sync, A: Send>(
    items: &[T],
    chunk_len: usize,
    map: impl Fn(usize, &[T]) -> A + Sync,
    mut fold: impl FnMut(A, A) -> A,
) -> Option<A> {
    let mut acc: Option<A> = None;
    for a in par_chunks(items, chunk_len, map) {
        acc = Some(match acc {
            None => a,
            Some(prev) => fold(prev, a),
        });
    }
    acc
}

// ---------------------------------------------------------------------------
// Persistent worker pool + cooperative cancellation
// ---------------------------------------------------------------------------

use dfm_fault::FaultPlane;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Condvar, Mutex};

/// Fault-injection site: panic inside a pool task, keyed by submission
/// index (see [`WorkerPool::with_fault_plane`]).
pub const SITE_TASK_PANIC: &str = "par.task.panic";

/// Fault-injection site: delay before a pool task runs, keyed by
/// submission index. The injected virtual milliseconds are slept as
/// real milliseconds, capped at one second.
pub const SITE_TASK_DELAY: &str = "par.task.delay";

/// A cooperative cancellation flag shared between a task's submitter and
/// its executors. Cloning shares the flag. Cancellation is a latch: once
/// set it never resets — resumable computations mint a fresh token per
/// attempt instead of reusing a cancelled one.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Latches the token cancelled.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// True once [`cancel`](CancelToken::cancel) has been called on any
    /// clone of this token.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Counters a [`WorkerPool`] maintains about its queue — the "queue
/// depth hooks" long-running services publish as load gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks submitted but not yet started.
    pub queue_depth: usize,
    /// Tasks currently executing on a worker.
    pub in_flight: usize,
    /// Largest queue depth ever observed.
    pub queue_depth_peak: usize,
    /// Largest concurrent in-flight count ever observed.
    pub in_flight_peak: usize,
    /// Tasks that ran to completion (including ones that panicked).
    pub completed: u64,
    /// Tasks skipped because their [`CancelToken`] was already
    /// cancelled when a worker picked them up.
    pub skipped: u64,
    /// Tasks whose closure panicked (the panic is contained; the worker
    /// survives).
    pub panicked: u64,
}

/// How a task submitted with [`WorkerPool::submit_supervised`] ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskOutcome {
    /// The closure ran to completion.
    Completed,
    /// The closure panicked; the payload is rendered to a message. The
    /// panic was contained and the worker survives.
    Panicked(String),
    /// The task never ran: its [`CancelToken`] was already cancelled
    /// when a worker dequeued it.
    Skipped,
}

type PoolTask = Box<dyn FnOnce() + Send + 'static>;
type ExitHook = Box<dyn FnOnce(TaskOutcome) + Send + 'static>;

struct QueuedTask {
    token: Option<CancelToken>,
    task: PoolTask,
    on_exit: Option<ExitHook>,
    /// Monotonic submission index — the fault-plane key for the
    /// pool-level injection sites.
    submit_idx: u64,
}

struct PoolQueue {
    tasks: VecDeque<QueuedTask>,
    in_flight: usize,
    shutdown: bool,
}

/// Reorder buffer for [`WorkerPool::submit_sequenced`]: tasks carry a
/// dense sequence number and enter the FIFO strictly in sequence
/// order, whatever thread hands them over.
struct SequencedIntake {
    next_seq: u64,
    held: std::collections::BTreeMap<u64, (Option<CancelToken>, PoolTask, Option<ExitHook>)>,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Signalled when a task is pushed or shutdown begins.
    available: Condvar,
    /// Reorder buffer for sequence-numbered intake.
    intake: Mutex<SequencedIntake>,
    /// Signalled when the pool drains to idle.
    idle: Condvar,
    /// Fault-injection plane; `None` (the default) costs nothing.
    plane: Option<Arc<FaultPlane>>,
    submitted: AtomicU64,
    queue_depth_peak: AtomicUsize,
    in_flight_peak: AtomicUsize,
    completed: AtomicU64,
    skipped: AtomicU64,
    panicked: AtomicU64,
}

/// A persistent fork-free worker pool for long-running services.
///
/// Unlike the scoped fork-join primitives above, a `WorkerPool` owns its
/// threads for its whole lifetime and accepts `'static` boxed tasks —
/// the execution substrate for job services that schedule many
/// independent work units (layout tiles) and merge results *by index*
/// on the consumer side. The pool itself makes no ordering promise
/// beyond FIFO dispatch; determinism is the caller's ordered merge.
/// Tasks run with [`thread_count`] pinned to 1, so the parallel
/// primitives inside a task stay on its worker thread.
///
/// Tasks submitted with [`submit_cancellable`](WorkerPool::submit_cancellable)
/// are skipped (never run) if their [`CancelToken`] is already
/// cancelled when a worker dequeues them — the pool-level half of
/// cancelling at a work-unit boundary. A task that panics is contained
/// ([`std::panic::catch_unwind`]); the worker thread survives and the
/// panic is counted in [`PoolStats::panicked`].
///
/// Dropping the pool shuts it down: queued tasks still drain, then the
/// workers exit and are joined.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool::with_fault_plane(threads, None)
    }

    /// Spawns a pool whose workers consult a fault-injection plane:
    /// [`SITE_TASK_DELAY`] before a task runs (slept as real
    /// milliseconds, capped at 1 s) and [`SITE_TASK_PANIC`] inside the
    /// task's containment boundary, both keyed by the task's submission
    /// index. `None` is exactly [`WorkerPool::new`].
    pub fn with_fault_plane(threads: usize, plane: Option<Arc<FaultPlane>>) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                tasks: VecDeque::new(),
                in_flight: 0,
                shutdown: false,
            }),
            available: Condvar::new(),
            idle: Condvar::new(),
            intake: Mutex::new(SequencedIntake {
                next_seq: 0,
                held: std::collections::BTreeMap::new(),
            }),
            plane,
            submitted: AtomicU64::new(0),
            queue_depth_peak: AtomicUsize::new(0),
            in_flight_peak: AtomicUsize::new(0),
            completed: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                // The pool is the parallelism: a task's own parallel
                // regions run on its worker alone, so `threads` tasks
                // never fan out into `threads × thread_count()` threads.
                std::thread::spawn(move || with_threads(1, || worker_loop(&shared)))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The fault plane this pool consults, if any.
    pub fn fault_plane(&self) -> Option<&Arc<FaultPlane>> {
        self.shared.plane.as_ref()
    }

    /// Enqueues a task.
    pub fn submit(&self, task: impl FnOnce() + Send + 'static) {
        self.push(None, Box::new(task), None);
    }

    /// Enqueues a task that is silently skipped if `token` is already
    /// cancelled when a worker dequeues it.
    pub fn submit_cancellable(&self, token: &CancelToken, task: impl FnOnce() + Send + 'static) {
        self.push(Some(token.clone()), Box::new(task), None);
    }

    /// Enqueues a task under supervision: `on_exit` is called exactly
    /// once with how the task ended — [`TaskOutcome::Completed`],
    /// [`TaskOutcome::Panicked`] (with the rendered payload), or
    /// [`TaskOutcome::Skipped`] if `token` was already cancelled at
    /// dequeue. This is the pool-level half of a retry/quarantine
    /// supervisor: even a panic the task's own bookkeeping missed still
    /// reaches the supervisor.
    pub fn submit_supervised(
        &self,
        token: &CancelToken,
        task: impl FnOnce() + Send + 'static,
        on_exit: impl FnOnce(TaskOutcome) + Send + 'static,
    ) {
        self.push(Some(token.clone()), Box::new(task), Some(Box::new(on_exit)));
    }

    /// Enqueues a supervised task under **grant-ordered intake**: the
    /// task carries a dense sequence number (`0, 1, 2, ...`) and joins
    /// the run queue strictly in sequence order, no matter which thread
    /// hands it over or in what order the handovers race. A task whose
    /// predecessors have not arrived yet is held in a reorder buffer
    /// and released the moment the gap fills.
    ///
    /// This is the pool-side half of a fair-share scheduler: the
    /// scheduler assigns sequence numbers under its own lock (so the
    /// grant *log* is deterministic), and sequenced intake guarantees
    /// workers also *start* tasks in that exact order, even when
    /// concurrent completions pump new grants from different threads.
    ///
    /// Sequence numbers must be dense per pool; a permanently missing
    /// number would hold all later tasks forever. Tasks still held at
    /// pool drop are discarded without running their exit hooks.
    pub fn submit_sequenced(
        &self,
        seq: u64,
        token: &CancelToken,
        task: impl FnOnce() + Send + 'static,
        on_exit: impl FnOnce(TaskOutcome) + Send + 'static,
    ) {
        let mut intake = self.shared.intake.lock().expect("dfm-par intake lock");
        if seq != intake.next_seq {
            assert!(
                seq > intake.next_seq,
                "sequenced submit {seq} replays an already-admitted sequence number"
            );
            intake
                .held
                .insert(seq, (Some(token.clone()), Box::new(task), Some(Box::new(on_exit))));
            return;
        }
        self.push(Some(token.clone()), Box::new(task), Some(Box::new(on_exit)));
        intake.next_seq += 1;
        loop {
            let next = intake.next_seq;
            let Some((token, task, on_exit)) = intake.held.remove(&next) else {
                break;
            };
            self.push(token, task, on_exit);
            intake.next_seq += 1;
        }
    }

    /// Tasks parked in the sequenced-intake reorder buffer, waiting for
    /// a predecessor sequence number to arrive.
    pub fn sequenced_held(&self) -> usize {
        self.shared.intake.lock().expect("dfm-par intake lock").held.len()
    }

    fn push(&self, token: Option<CancelToken>, task: PoolTask, on_exit: Option<ExitHook>) {
        let submit_idx = self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        let depth = {
            let mut q = self.shared.queue.lock().expect("dfm-par pool lock");
            assert!(!q.shutdown, "submit on a shut-down WorkerPool");
            q.tasks.push_back(QueuedTask { token, task, on_exit, submit_idx });
            q.tasks.len()
        };
        self.shared.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
        self.shared.available.notify_one();
    }

    /// A snapshot of the pool's load counters.
    pub fn stats(&self) -> PoolStats {
        let (queue_depth, in_flight) = {
            let q = self.shared.queue.lock().expect("dfm-par pool lock");
            (q.tasks.len(), q.in_flight)
        };
        PoolStats {
            queue_depth,
            in_flight,
            queue_depth_peak: self.shared.queue_depth_peak.load(Ordering::Relaxed),
            in_flight_peak: self.shared.in_flight_peak.load(Ordering::Relaxed),
            completed: self.shared.completed.load(Ordering::Relaxed),
            skipped: self.shared.skipped.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
        }
    }

    /// Blocks until the queue is empty and no task is executing.
    pub fn wait_idle(&self) {
        let mut q = self.shared.queue.lock().expect("dfm-par pool lock");
        while !q.tasks.is_empty() || q.in_flight > 0 {
            q = self.shared.idle.wait(q).expect("dfm-par pool wait");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("dfm-par pool lock");
            q.shutdown = true;
        }
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let item = {
            let mut q = shared.queue.lock().expect("dfm-par pool lock");
            loop {
                if let Some(item) = q.tasks.pop_front() {
                    q.in_flight += 1;
                    let now = q.in_flight;
                    shared.in_flight_peak.fetch_max(now, Ordering::Relaxed);
                    break item;
                }
                if q.shutdown {
                    return;
                }
                q = shared.available.wait(q).expect("dfm-par pool wait");
            }
        };
        let QueuedTask { token, task, on_exit, submit_idx } = item;
        let outcome = if token.is_some_and(|t| t.is_cancelled()) {
            shared.skipped.fetch_add(1, Ordering::Relaxed);
            TaskOutcome::Skipped
        } else {
            if let Some(plane) = &shared.plane {
                if let Some(vms) = plane.delay_vms(SITE_TASK_DELAY, submit_idx, 0) {
                    std::thread::sleep(std::time::Duration::from_millis(vms.min(1000)));
                }
            }
            let plane = shared.plane.as_deref();
            let run = move || {
                if let Some(plane) = plane {
                    plane.maybe_panic(SITE_TASK_PANIC, submit_idx, 0);
                }
                task();
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            shared.completed.fetch_add(1, Ordering::Relaxed);
            match result {
                Ok(()) => TaskOutcome::Completed,
                Err(payload) => {
                    shared.panicked.fetch_add(1, Ordering::Relaxed);
                    TaskOutcome::Panicked(panic_payload_message(payload.as_ref()))
                }
            }
        };
        if let Some(hook) = on_exit {
            // The hook runs outside the task's containment: a panicking
            // supervisor is a bug we want loud, not a task failure.
            hook(outcome);
        }
        let mut q = shared.queue.lock().expect("dfm-par pool lock");
        q.in_flight -= 1;
        if q.tasks.is_empty() && q.in_flight == 0 {
            shared.idle.notify_all();
        }
    }
}

/// Renders a caught panic payload to a stable message (`&str` and
/// `String` payloads verbatim, anything else a fixed fallback).
pub fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfm_rand::{Rng, Seed};

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = with_threads(7, || par_map(&items, |i, &x| i * 1000 + x));
        assert_eq!(out.len(), 1000);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * 1000 + i);
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let items: Vec<i64> = (0..500).collect();
        let run = |t: usize| {
            with_threads(t, || {
                par_chunks(&items, 16, |ci, chunk| {
                    // Chunk-seeded RNG: the caller half of the contract.
                    let mut rng = Rng::from_seed(Seed(99).derive(ci as u64));
                    chunk.iter().map(|&x| x + rng.range(0i64..10)).sum::<i64>()
                })
            })
        };
        let a = run(1);
        let b = run(2);
        let c = run(8);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn par_chunks_mut_covers_disjointly() {
        let mut data = vec![0u64; 997];
        with_threads(5, || {
            par_chunks_mut(&mut data, 100, |ci, off, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v += (ci as u64) << 32 | (off + k) as u64;
                }
            });
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v & 0xffff_ffff, i as u64, "element offset wrong at {i}");
            assert_eq!(v >> 32, (i / 100) as u64, "chunk index wrong at {i}");
        }
    }

    #[test]
    fn par_reduce_ordered_is_input_order() {
        // Float folding order matters; assert it is the chunk order by
        // using a non-commutative fold.
        let items: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        let seq = items
            .chunks(7)
            .map(|c| c.iter().sum::<f64>())
            .fold(None::<f64>, |acc, a| Some(acc.map_or(a, |p| p / 2.0 + a)))
            .unwrap();
        let par = with_threads(6, || {
            par_reduce_ordered(&items, 7, |_, c| c.iter().sum::<f64>(), |p, a| p / 2.0 + a)
        })
        .unwrap();
        assert_eq!(seq.to_bits(), par.to_bits());
    }

    #[test]
    fn empty_inputs() {
        let none: Vec<u8> = Vec::new();
        assert!(par_map(&none, |_, &x| x).is_empty());
        assert!(par_map_range(0, |i| i).is_empty());
        assert!(par_chunks(&none, 4, |_, c| c.len()).is_empty());
        assert_eq!(par_reduce_ordered(&none, 4, |_, c| c.len(), |a, b| a + b), None);
        let mut empty: Vec<u8> = Vec::new();
        par_chunks_mut(&mut empty, 4, |_, _, _| panic!("no chunks expected"));
    }

    #[test]
    fn streaming_folds_in_index_order() {
        // Non-commutative fold pins the order; identical across thread
        // counts and window sizes.
        let run = |t: usize, w: usize| {
            with_threads(t, || {
                par_reduce_streaming(37, w, |i| (i as f64) + 1.0, 0.0f64, |a, x| a / 2.0 + x)
            })
        };
        let seq = run(1, 1);
        for (t, w) in [(2, 1), (4, 3), (8, 16), (3, 64)] {
            assert_eq!(seq.to_bits(), run(t, w).to_bits(), "t={t} w={w}");
        }
    }

    #[test]
    fn streaming_bounds_outstanding_items() {
        use std::sync::atomic::{AtomicIsize, Ordering};
        let live = AtomicIsize::new(0);
        let peak = AtomicIsize::new(0);
        let window = 3;
        let total: usize = with_threads(6, || {
            par_reduce_streaming(
                200,
                window,
                |i| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    i
                },
                0usize,
                |a, x| {
                    live.fetch_sub(1, Ordering::SeqCst);
                    a + x
                },
            )
        });
        assert_eq!(total, 199 * 200 / 2);
        // In-flight items are bounded by the window plus one per worker
        // that has claimed-but-not-yet-queued an item.
        assert!(
            peak.load(Ordering::SeqCst) <= (window + 6) as isize,
            "peak {} exceeds window bound",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn streaming_empty_and_sequential() {
        assert_eq!(par_reduce_streaming(0, 4, |i| i, 7usize, |a, x| a + x), 7);
        let s = with_threads(1, || par_reduce_streaming(5, 2, |i| i, 0usize, |a, x| a * 10 + x));
        assert_eq!(s, 1234); // 0,1,2,3,4 folded in order
    }

    #[test]
    fn with_threads_scopes_and_restores() {
        let before = thread_count();
        let inside = with_threads(3, thread_count);
        assert_eq!(inside, 3);
        assert_eq!(thread_count(), before);
        // Nested overrides stack.
        let nested = with_threads(4, || with_threads(2, thread_count));
        assert_eq!(nested, 2);
    }

    #[test]
    fn workers_inherit_override() {
        let counts = with_threads(4, || par_map_range(8, |_| thread_count()));
        assert!(counts.iter().all(|&c| c == 4), "{counts:?}");
    }

    #[test]
    fn pool_tasks_run_single_threaded_under_any_override() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        with_threads(8, || {
            let pool = WorkerPool::new(2);
            for _ in 0..4 {
                let seen = Arc::clone(&seen);
                pool.submit(move || seen.lock().expect("lock").push(thread_count()));
            }
            pool.wait_idle();
        });
        assert_eq!(*seen.lock().expect("lock"), vec![1; 4]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_threads_panics() {
        with_threads(0, || ());
    }

    #[test]
    fn pool_runs_all_tasks() {
        let pool = WorkerPool::new(3);
        let sum = Arc::new(AtomicUsize::new(0));
        for i in 0..100 {
            let sum = Arc::clone(&sum);
            pool.submit(move || {
                sum.fetch_add(i, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(sum.load(Ordering::SeqCst), 99 * 100 / 2);
        let stats = pool.stats();
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.in_flight, 0);
        assert!(stats.queue_depth_peak >= 1);
        assert!(stats.in_flight_peak >= 1);
    }

    #[test]
    fn pool_skips_cancelled_tasks() {
        // One worker, first task blocks until we cancel the token the
        // queued tasks carry — those must be skipped, never run.
        let pool = WorkerPool::new(1);
        let token = CancelToken::new();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let ran = Arc::new(AtomicUsize::new(0));
        {
            let gate = Arc::clone(&gate);
            pool.submit(move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock().unwrap();
                while !*open {
                    open = cv.wait(open).unwrap();
                }
            });
        }
        for _ in 0..5 {
            let ran = Arc::clone(&ran);
            pool.submit_cancellable(&token, move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        token.cancel();
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        pool.wait_idle();
        assert_eq!(ran.load(Ordering::SeqCst), 0);
        let stats = pool.stats();
        assert_eq!(stats.skipped, 5);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn pool_survives_panicking_task() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("task boom"));
        let ok = Arc::new(AtomicUsize::new(0));
        {
            let ok = Arc::clone(&ok);
            pool.submit(move || {
                ok.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(ok.load(Ordering::SeqCst), 1);
        let stats = pool.stats();
        assert_eq!(stats.panicked, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn pool_drop_drains_queue() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..20 {
                let done = Arc::clone(&done);
                pool.submit(move || {
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(done.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn cancel_token_latches_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn fork_join_propagates_worker_panic_cleanly() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_map_range(64, |i| {
                    if i == 17 {
                        panic!("chunk 17 exploded");
                    }
                    i
                })
            })
        });
        let payload = caught.expect_err("must propagate the worker panic");
        assert_eq!(panic_payload_message(payload.as_ref()), "chunk 17 exploded");
    }

    #[test]
    fn streaming_producer_panic_does_not_deadlock() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_reduce_streaming(
                    100,
                    3,
                    |i| {
                        if i == 5 {
                            panic!("producer 5 exploded");
                        }
                        i
                    },
                    0usize,
                    |a, x| a + x,
                )
            })
        });
        let payload = caught.expect_err("must propagate the producer panic");
        assert_eq!(panic_payload_message(payload.as_ref()), "producer 5 exploded");
    }

    #[test]
    fn fork_join_propagates_panic_in_the_last_chunk() {
        // The final chunk is the regression-prone case: when it
        // panics, every other worker has already drained the cursor
        // and exited cleanly, so the join loop sees exactly one Err —
        // which must still unwind with the original payload instead of
        // being lost among the drained results. Includes n == threads
        // (one chunk per worker) and n < threads (idle workers).
        for (n, t) in [(64usize, 4usize), (4, 4), (2, 8)] {
            let caught = std::panic::catch_unwind(|| {
                with_threads(t, || {
                    par_map_range(n, |i| {
                        if i == n - 1 {
                            panic!("last chunk exploded");
                        }
                        i
                    })
                })
            });
            let payload = caught.expect_err("must propagate the last chunk's panic");
            assert_eq!(
                panic_payload_message(payload.as_ref()),
                "last chunk exploded",
                "n={n} t={t}"
            );
        }
    }

    #[test]
    fn streaming_panic_in_the_last_item_does_not_deadlock() {
        // When index n-1 panics, every earlier item has been produced
        // and may already be folded, so no further `done` insert will
        // ever signal `item`: the poison latch alone must wake the
        // consumer blocked on the last item AND any worker parked on
        // the window, or the scope join hangs forever. Window 1 is the
        // tightest case (the panicking claim waits for the fold of
        // n-2); a window past n means no worker ever parks.
        for (t, w) in [(2usize, 1usize), (4, 3), (4, 64), (8, 2)] {
            let n = 37;
            let caught = std::panic::catch_unwind(|| {
                with_threads(t, || {
                    par_reduce_streaming(
                        n,
                        w,
                        |i| {
                            if i == n - 1 {
                                panic!("last producer exploded");
                            }
                            i
                        },
                        0usize,
                        |a, x| a + x,
                    )
                })
            });
            let payload = caught.expect_err("must propagate the last producer's panic");
            assert_eq!(
                panic_payload_message(payload.as_ref()),
                "last producer exploded",
                "t={t} w={w}"
            );
        }
    }

    #[test]
    fn streaming_panic_with_more_workers_than_items() {
        // n=2 with a 4-thread pool spawns min(4, 2) workers; index 1 —
        // the last item — panics after index 0 was folded (window 1
        // forces that ordering). The consumer is already waiting on
        // item 1 when the poison lands.
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_reduce_streaming(
                    2,
                    1,
                    |i| {
                        if i == 1 {
                            panic!("tail boom");
                        }
                        i
                    },
                    0usize,
                    |a, x| a + x,
                )
            })
        });
        let payload = caught.expect_err("must propagate the tail panic");
        assert_eq!(panic_payload_message(payload.as_ref()), "tail boom");
    }

    #[test]
    fn supervised_tasks_report_outcomes() {
        let pool = WorkerPool::new(2);
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let record = |outcomes: &Arc<Mutex<Vec<(u8, TaskOutcome)>>>, tag: u8| {
            let outcomes = Arc::clone(outcomes);
            move |o: TaskOutcome| outcomes.lock().unwrap().push((tag, o))
        };
        let live = CancelToken::new();
        let dead = CancelToken::new();
        dead.cancel();
        pool.submit_supervised(&live, || (), record(&outcomes, 0));
        pool.submit_supervised(&live, || panic!("supervised boom"), record(&outcomes, 1));
        pool.submit_supervised(&dead, || unreachable!("cancelled"), record(&outcomes, 2));
        pool.wait_idle();
        let mut got = outcomes.lock().unwrap().clone();
        got.sort_by_key(|(tag, _)| *tag);
        assert_eq!(
            got,
            vec![
                (0, TaskOutcome::Completed),
                (1, TaskOutcome::Panicked("supervised boom".to_string())),
                (2, TaskOutcome::Skipped),
            ]
        );
    }

    #[test]
    fn pool_fault_plane_injects_deterministic_panics() {
        use dfm_fault::{FaultAction, FaultPlan, FaultPlane, FaultRule};
        // Submission index 2 panics; everything else completes.
        let plan = FaultPlan::seeded(11)
            .with_rule(FaultRule::new(SITE_TASK_PANIC, FaultAction::Panic).key(2));
        let pool = WorkerPool::with_fault_plane(1, Some(Arc::new(FaultPlane::new(plan))));
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let token = CancelToken::new();
        for i in 0..4u64 {
            let outcomes = Arc::clone(&outcomes);
            pool.submit_supervised(&token, || (), move |o| {
                outcomes.lock().unwrap().push((i, o));
            });
        }
        pool.wait_idle();
        let got = outcomes.lock().unwrap().clone();
        for (i, o) in &got {
            if *i == 2 {
                assert_eq!(
                    *o,
                    TaskOutcome::Panicked("injected panic at par.task.panic (key 2, attempt 0)".to_string())
                );
            } else {
                assert_eq!(*o, TaskOutcome::Completed, "task {i}");
            }
        }
        assert_eq!(pool.stats().panicked, 1);
        let injected = pool.fault_plane().expect("plane").injected();
        assert_eq!(injected.len(), 1);
        assert_eq!(injected[0].key, 2);
    }

    #[test]
    fn sequenced_intake_reorders_racing_submissions() {
        // Hand tasks over in scrambled order; a single worker must
        // still run them in sequence-number order.
        let pool = WorkerPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let token = CancelToken::new();
        for seq in [3u64, 1, 4, 0, 2, 5] {
            let order = Arc::clone(&order);
            pool.submit_sequenced(seq, &token, move || order.lock().unwrap().push(seq), |_| ());
        }
        pool.wait_idle();
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3, 4, 5]);
        assert_eq!(pool.sequenced_held(), 0);
    }

    #[test]
    fn sequenced_intake_holds_gaps_and_runs_hooks() {
        let pool = WorkerPool::new(2);
        let token = CancelToken::new();
        let hooks = Arc::new(Mutex::new(0u32));
        // seq 1 and 2 arrive first: both parked behind the missing 0.
        for seq in [1u64, 2] {
            let hooks = Arc::clone(&hooks);
            pool.submit_sequenced(seq, &token, || (), move |o| {
                assert_eq!(o, TaskOutcome::Completed);
                *hooks.lock().unwrap() += 1;
            });
        }
        assert_eq!(pool.sequenced_held(), 2);
        pool.wait_idle(); // nothing runnable yet
        assert_eq!(*hooks.lock().unwrap(), 0);
        let hooks_0 = Arc::clone(&hooks);
        pool.submit_sequenced(0, &token, || (), move |o| {
            assert_eq!(o, TaskOutcome::Completed);
            *hooks_0.lock().unwrap() += 1;
        });
        pool.wait_idle();
        assert_eq!(*hooks.lock().unwrap(), 3);
        assert_eq!(pool.sequenced_held(), 0);
        // Plain submissions bypass the reorder buffer entirely (the
        // path retries take: they must not wait behind future grants).
        let ran = Arc::new(Mutex::new(false));
        let ran2 = Arc::clone(&ran);
        pool.submit(move || *ran2.lock().unwrap() = true);
        pool.wait_idle();
        assert!(*ran.lock().unwrap());
    }
}
