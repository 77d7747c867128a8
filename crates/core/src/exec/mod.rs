//! The execution engine: thread-pooled MIMD × SIMD reduction.
//!
//! The paper evaluates single-core SIMD only ("MIMD parallelization is a
//! tangential issue"). This module is the composition layer the kernels run
//! on: a stream of `(index, value)` reduction items is partitioned across a
//! persistent [thread pool](pool), each worker runs one of the paper's SIMD
//! reduction variants on its share, and per-worker results are folded into
//! the target. Two partitioning strategies are offered, selected by
//! [`ExecPolicy::partition`]:
//!
//! - **[`Partition::OwnerComputes`]** — the target is cut into contiguous
//!   ranges balanced by item count (split points by selection over the
//!   keys when they are sparse in the target, else by a histogram), and
//!   every stream item is routed to the worker that *owns* its target index.
//!   Workers write disjoint `target` slices directly: no privatization, no
//!   merge phase, and per-target-index update order is preserved, so results
//!   agree with the serial variants *exactly* — for min/max and even for
//!   float sums (under the `Serial` in-worker variant). The cost is a
//!   bucketing pass over the stream.
//! - **[`Partition::Privatized`]** — the stream is cut into contiguous
//!   chunks; each worker reduces into a private array bounded to its
//!   *touched* index range (`min..=max` of the keys it sees — not
//!   `target.len()`, fixing the seed's `O(threads × |target|)` blow-up) and
//!   private arrays are folded into the target afterwards. No bucketing
//!   pass, but the fold reassociates float sums across workers.
//!
//! With [`ExecPolicy::deterministic`] set, the privatized fold runs in task
//! order on the calling thread, so float results are bit-identical across
//! runs at a fixed thread count. Owner-computes is deterministic by
//! construction.
//!
//! The entry points, from most to least packaged:
//!
//! - [`execute`] — whole-stream accumulate (the parallel form of
//!   [`invec_accumulate`](crate::accumulate::invec_accumulate)), returning
//!   an [`ExecReport`].
//! - [`run_plan`] — run an arbitrary per-task body against partitioned
//!   views of a target array; kernels with custom edge phases (PageRank,
//!   the relax family) build an [`ExecPlan`] once per index set and reuse
//!   it across iterations.
//! - [`parallel_chunks`] — plain indexed fan-out over the pool for kernels
//!   whose updates touch two target ranges per item (moldyn forces, Euler
//!   fluxes) or need no target at all (agg's per-worker hash tables).
//!
//! SIMD instruction counts recorded by workers (thread-local in
//! `invector_simd::count`) are summed and re-charged to the calling thread
//! via [`count::bump_recharged`](invector_simd::count::bump_recharged), so
//! per-caller accounting keeps working unchanged while the process-wide
//! total (`count::global_total`, exported to the metric registry) counts
//! each instruction once. Batches and worker tasks also publish counters
//! and spans to [`invector_obs`]; with the `obs` feature disabled those
//! calls compile to no-ops.

pub mod pool;

pub use pool::{pool_initializations, ThreadPool};

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use invector_simd::{count, SimdElement};

use crate::accumulate::{
    adaptive_accumulate_with, invec_accumulate_with, serial_accumulate, InvecStats,
};
use crate::ops::ReduceOp;

pub use crate::backend::{Backend, BackendChoice};

/// Engine counters on the global metric registry, registered on first use.
///
/// Handles are cached in a `OnceLock` so the steady state is one load plus
/// a relaxed shard add per event; with the `obs` feature disabled every
/// `add` compiles to a no-op.
struct ExecMetrics {
    plans: invector_obs::Counter,
    chunk_runs: invector_obs::Counter,
    tasks: invector_obs::Counter,
    inline_runs: invector_obs::Counter,
}

fn exec_metrics() -> &'static ExecMetrics {
    static METRICS: std::sync::OnceLock<ExecMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = invector_obs::Registry::global();
        ExecMetrics {
            plans: registry.counter(
                "invector_exec_plans_total",
                "run_plan batches dispatched to the worker pool",
            ),
            chunk_runs: registry.counter(
                "invector_exec_chunk_runs_total",
                "parallel_chunks batches dispatched to the worker pool",
            ),
            tasks: registry.counter(
                "invector_exec_tasks_total",
                "worker tasks executed across all engine batches",
            ),
            inline_runs: registry.counter(
                "invector_exec_inline_runs_total",
                "engine calls that ran inline on the caller (single task)",
            ),
        }
    })
}

/// Which of the paper's reduction strategies each worker runs on its share
/// of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecVariant {
    /// Scalar read-modify-write (the reference loop).
    Serial,
    /// In-vector reduction, Algorithm 1 (§3.3).
    #[default]
    Invec,
    /// Adaptive Algorithm 1 / Algorithm 2 selection (§3.4).
    Adaptive,
}

/// How the reduction is split across workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Partition {
    /// Bucket stream items by target range; each worker owns a disjoint
    /// slice of the target and writes it directly. Exact (order-preserving
    /// per target index), at the price of a bucketing pass. Best when the
    /// key distribution is roughly balanced.
    #[default]
    OwnerComputes,
    /// Chunk the stream; each worker reduces into a private array bounded
    /// to its touched index range, folded into the target afterwards. No
    /// bucketing pass and immune to key skew (a single hot key cannot
    /// starve workers), but float sums reassociate across workers.
    Privatized,
}

/// A complete description of how the engine should run a reduction.
///
/// # Example
///
/// ```
/// use invector_core::exec::{BackendChoice, ExecPolicy, Partition};
///
/// let policy = ExecPolicy::with_threads(8)
///     .partition(Partition::Privatized)
///     .deterministic(true)
///     .backend(BackendChoice::Auto);
/// assert_eq!(policy.threads, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecPolicy {
    /// Per-worker SIMD strategy.
    pub variant: ExecVariant,
    /// Worker count ceiling (the engine may use fewer for tiny streams;
    /// `1` means run inline on the calling thread). Must be non-zero.
    pub threads: usize,
    /// Partitioning strategy; irrelevant when one worker runs.
    pub partition: Partition,
    /// Fold privatized results in task order so float outputs are
    /// bit-identical across runs at a fixed thread count.
    pub deterministic: bool,
    /// Which reduction backend the workers run (portable software model vs
    /// native AVX-512). Resolved once per [`execute`] call, composing with
    /// every variant/partition: `Auto` (the default) uses native when the
    /// CPU supports it.
    pub backend: BackendChoice,
}

impl Default for ExecPolicy {
    /// Single-threaded in-vector reduction — the paper's configuration —
    /// on the best backend the CPU offers.
    fn default() -> Self {
        ExecPolicy {
            variant: ExecVariant::Invec,
            threads: 1,
            partition: Partition::OwnerComputes,
            deterministic: false,
            backend: BackendChoice::Auto,
        }
    }
}

impl ExecPolicy {
    /// The default policy widened to `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        ExecPolicy { threads, ..ExecPolicy::default() }
    }

    /// Returns `self` with the per-worker variant replaced.
    pub fn variant(mut self, variant: ExecVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Returns `self` with the partition strategy replaced.
    pub fn partition(mut self, partition: Partition) -> Self {
        self.partition = partition;
        self
    }

    /// Returns `self` with the deterministic flag replaced.
    pub fn deterministic(mut self, deterministic: bool) -> Self {
        self.deterministic = deterministic;
        self
    }

    /// Returns `self` with the backend request replaced.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }
}

/// Worker count actually used: tiny streams are not worth parallelising
/// (each worker should see at least two items), matching the seed's rule.
fn effective_tasks(threads: usize, items: usize) -> usize {
    assert!(threads > 0, "need at least one thread");
    if threads == 1 || items < 2 * threads {
        1
    } else {
        threads
    }
}

/// One task of an [`ExecPlan`].
#[derive(Debug, Clone)]
struct PlanTask {
    /// Inclusive lower bound of the target range this task may write.
    lo: usize,
    /// Exclusive upper bound of the target range this task may write.
    hi: usize,
    /// Owner-computes: range into [`ExecPlan::picked`]. Privatized (and
    /// single-task): range into the stream itself.
    span: Range<usize>,
}

/// A reusable partition of one index stream over one target length.
///
/// Building a plan costs a pass over the keys (two for owner-computes);
/// kernels whose index set is fixed across iterations (PageRank's edge
/// list) build the plan once and [`run_plan`] it every iteration.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    partition: Partition,
    target_len: usize,
    stream_len: usize,
    tasks: Vec<PlanTask>,
    /// Stream positions grouped by owning task (owner-computes only),
    /// stream-ordered within each task.
    picked: Vec<u32>,
}

/// The items one task processes: a contiguous stream span (privatized /
/// single task) or an explicit position list (owner-computes).
#[derive(Debug, Clone)]
pub enum TaskItems<'plan> {
    /// Process stream positions `range.start..range.end` in order.
    Span(Range<usize>),
    /// Process exactly these stream positions, in order.
    Picked(&'plan [u32]),
}

impl TaskItems<'_> {
    /// Number of stream items assigned to the task.
    pub fn len(&self) -> usize {
        match self {
            TaskItems::Span(r) => r.len(),
            TaskItems::Picked(p) => p.len(),
        }
    }

    /// `true` when the task has no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Everything a [`run_plan`] body learns about its task.
#[derive(Debug)]
pub struct TaskCtx<'plan> {
    /// Task index, `0..plan.num_tasks()`.
    pub task: usize,
    /// The stream items this task processes.
    pub items: TaskItems<'plan>,
    /// Inclusive lower bound of the target range behind the view; subtract
    /// this from a key to index the view.
    pub lo: usize,
    /// Exclusive upper bound of the target range behind the view.
    pub hi: usize,
    /// `true` when the view is a privatized identity-initialized scratch
    /// array (merged into the target afterwards) rather than the target
    /// itself.
    pub private: bool,
}

impl ExecPlan {
    /// Partitions a stream keyed by `keys` (reduction indices into a target
    /// of length `target_len`) according to `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `policy.threads == 0`, if a key is negative or out of
    /// bounds for `target_len` (owner-computes eagerly; privatized upon
    /// execution), or if the stream exceeds `u32::MAX` items.
    pub fn new(keys: &[i32], target_len: usize, policy: &ExecPolicy) -> ExecPlan {
        assert!(keys.len() <= u32::MAX as usize, "stream too long for plan positions");
        let n_tasks = effective_tasks(policy.threads, keys.len());
        if n_tasks == 1 {
            return ExecPlan {
                partition: policy.partition,
                target_len,
                stream_len: keys.len(),
                tasks: vec![PlanTask { lo: 0, hi: target_len, span: 0..keys.len() }],
                picked: Vec::new(),
            };
        }
        match policy.partition {
            Partition::OwnerComputes => Self::plan_owner_computes(keys, target_len, n_tasks),
            Partition::Privatized => Self::plan_privatized(keys, target_len, n_tasks),
        }
    }

    fn plan_owner_computes(keys: &[i32], target_len: usize, n_tasks: usize) -> ExecPlan {
        // Contiguous target ranges balanced by item count, with the same
        // bounds either way. Selection costs O(keys · tasks) and never
        // touches the target, the histogram O(target + keys); selection
        // wins while the stream is sparse in the target (a served slice
        // into a large table), and loses on cache-resident targets once
        // keys · tasks nears half the target (dense wavefront rounds,
        // PageRank's edge list).
        let bounds = if 2 * keys.len() * n_tasks < target_len {
            owner_bounds_by_selection(keys, target_len, n_tasks)
        } else {
            owner_bounds_by_histogram(keys, target_len, n_tasks)
        };

        // Route each stream position to its owning task, stream-ordered
        // within a task (counting sort by task).
        let task_of = |k: i32| bounds.partition_point(|&b| b <= k as usize) - 1;
        let mut task_counts = vec![0u32; n_tasks];
        let mut owner = Vec::with_capacity(keys.len());
        for &k in keys {
            let t = task_of(k);
            owner.push(t as u32);
            task_counts[t] += 1;
        }
        let mut starts = Vec::with_capacity(n_tasks + 1);
        let mut acc = 0u32;
        for &c in &task_counts {
            starts.push(acc);
            acc += c;
        }
        starts.push(acc);
        let mut cursor: Vec<u32> = starts[..n_tasks].to_vec();
        let mut picked = vec![0u32; keys.len()];
        for (pos, &t) in owner.iter().enumerate() {
            picked[cursor[t as usize] as usize] = pos as u32;
            cursor[t as usize] += 1;
        }

        let tasks = (0..n_tasks)
            .map(|t| PlanTask {
                lo: bounds[t],
                hi: bounds[t + 1],
                span: starts[t] as usize..starts[t + 1] as usize,
            })
            .collect();
        ExecPlan {
            partition: Partition::OwnerComputes,
            target_len,
            stream_len: keys.len(),
            tasks,
            picked,
        }
    }

    fn plan_privatized(keys: &[i32], target_len: usize, n_tasks: usize) -> ExecPlan {
        let chunk = keys.len().div_ceil(n_tasks);
        let tasks = (0..n_tasks)
            .map(|t| {
                let start = (t * chunk).min(keys.len());
                let end = ((t + 1) * chunk).min(keys.len());
                // Bound the private array to the touched index range — the
                // fix for the seed's O(threads × |target|) memory blow-up.
                let (mut lo, mut hi) = (0usize, 0usize);
                if start < end {
                    let (mut min_k, mut max_k) = (i32::MAX, i32::MIN);
                    for &k in &keys[start..end] {
                        min_k = min_k.min(k);
                        max_k = max_k.max(k);
                    }
                    assert!(
                        min_k >= 0 && (max_k as usize) < target_len,
                        "key out of bounds for target of length {target_len}"
                    );
                    lo = min_k as usize;
                    hi = max_k as usize + 1;
                }
                PlanTask { lo, hi, span: start..end }
            })
            .collect();
        ExecPlan {
            partition: Partition::Privatized,
            target_len,
            stream_len: keys.len(),
            tasks,
            picked: Vec::new(),
        }
    }

    /// Number of tasks (= workers used when run).
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The partition strategy the plan was built with.
    pub fn partition(&self) -> Partition {
        self.partition
    }

    /// Stream length the plan was built for.
    pub fn stream_len(&self) -> usize {
        self.stream_len
    }

    fn items(&self, t: usize) -> TaskItems<'_> {
        let task = &self.tasks[t];
        if self.tasks.len() == 1 || self.partition == Partition::Privatized {
            TaskItems::Span(task.span.clone())
        } else {
            TaskItems::Picked(&self.picked[task.span.clone()])
        }
    }

    fn ctx(&self, t: usize, private: bool) -> TaskCtx<'_> {
        let task = &self.tasks[t];
        TaskCtx { task: t, items: self.items(t), lo: task.lo, hi: task.hi, private }
    }
}

/// The slot `k` names in a target of `target_len` slots.
///
/// # Panics
///
/// Panics if `k` is negative or out of bounds.
#[inline]
fn check_key(k: i32, target_len: usize) -> usize {
    assert!(
        k >= 0 && (k as usize) < target_len,
        "key {k} out of bounds for target of length {target_len}"
    );
    k as usize
}

/// Owner-computes task bounds (`n_tasks + 1` entries, `0` first and
/// `target_len` last) from a histogram of `keys`: bound `j` is one past the
/// first index at which the running item count reaches `ceil(n·j/n_tasks)`.
/// A pathologically hot index can meet several quotas at once, leaving
/// later tasks empty — correct, if unbalanced (use Privatized there).
/// Costs O(target_len + keys); panics on an out-of-bounds key.
fn owner_bounds_by_histogram(keys: &[i32], target_len: usize, n_tasks: usize) -> Vec<usize> {
    let mut counts = vec![0u32; target_len];
    for &k in keys {
        counts[check_key(k, target_len)] += 1;
    }
    let mut bounds = Vec::with_capacity(n_tasks + 1);
    bounds.push(0usize);
    let mut cum = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cum += u64::from(c);
        while bounds.len() < n_tasks
            && cum * n_tasks as u64 >= keys.len() as u64 * bounds.len() as u64
        {
            bounds.push(i + 1);
        }
    }
    while bounds.len() < n_tasks {
        bounds.push(target_len);
    }
    bounds.push(target_len);
    bounds
}

/// The histogram rule's bounds by selection, in O(keys · n_tasks) on a
/// copy of the keys: the running count first reaches `m = ceil(n·j/n_tasks)`
/// at the `m`-th smallest key, so bound `j` is that key plus one. Needs
/// `keys.len() >= n_tasks` (so every `m >= 1`), which planning guarantees;
/// panics on an out-of-bounds key.
fn owner_bounds_by_selection(keys: &[i32], target_len: usize, n_tasks: usize) -> Vec<usize> {
    let n = keys.len() as u64;
    let mut sorted: Vec<i32> = keys.iter().map(|&k| check_key(k, target_len) as i32).collect();
    let mut bounds = Vec::with_capacity(n_tasks + 1);
    bounds.push(0usize);
    // Ranks rise with `j`, and after a selection everything from its rank
    // on is ≥ the selected key, so each selection searches only that
    // suffix.
    let mut from = 0usize;
    for j in 1..n_tasks as u64 {
        let rank = (n * j).div_ceil(n_tasks as u64) as usize - 1;
        let (_, kth, _) = sorted[from..].select_nth_unstable(rank - from);
        bounds.push(*kth as usize + 1);
        from = rank;
    }
    bounds.push(target_len);
    bounds
}

/// Runs `body` once per plan task against a mutable view of `target`.
///
/// Owner-computes tasks receive their owned disjoint sub-slice of `target`
/// (`view[k - ctx.lo]` is `target[k]`). Privatized tasks receive a fresh
/// `Op::identity()`-filled scratch array covering their touched range,
/// which the engine folds into `target` with `Op` afterwards — in task
/// order when `deterministic`, in completion order (under a mutex)
/// otherwise. Single-task plans run inline on the calling thread against
/// the whole target.
///
/// Returns the body results in task order. SIMD instructions recorded by
/// workers are re-charged to the calling thread.
///
/// # Panics
///
/// Panics if the plan was built for a different target length, or
/// propagates the first panic raised by a body.
pub fn run_plan<T, Op, R, F>(
    plan: &ExecPlan,
    target: &mut [T],
    deterministic: bool,
    body: F,
) -> Vec<R>
where
    T: SimdElement,
    Op: ReduceOp<T>,
    R: Send,
    F: Fn(TaskCtx<'_>, &mut [T]) -> R + Sync,
{
    assert_eq!(plan.target_len, target.len(), "plan built for a different target length");
    let n_tasks = plan.tasks.len();
    if n_tasks == 1 {
        exec_metrics().inline_runs.inc();
        return vec![body(plan.ctx(0, false), target)];
    }
    let _plan_span = invector_obs::span!("exec.run_plan");
    exec_metrics().plans.inc();
    exec_metrics().tasks.add(n_tasks as u64);
    let results: Vec<Mutex<Option<R>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    let instructions: Vec<AtomicU64> = (0..n_tasks).map(|_| AtomicU64::new(0)).collect();

    match plan.partition {
        Partition::OwnerComputes => {
            // Hand each task exclusive ownership of its target slice.
            let mut slices: Vec<Mutex<Option<&mut [T]>>> = Vec::with_capacity(n_tasks);
            let mut rest = target;
            let mut offset = 0;
            for task in &plan.tasks {
                let (head, tail) = rest.split_at_mut(task.hi - offset);
                offset = task.hi;
                rest = tail;
                slices.push(Mutex::new(Some(head)));
            }
            pool::global().run(n_tasks, &|t| {
                let _span = invector_obs::span!("exec.task.owner");
                let view = slices[t]
                    .lock()
                    .expect("slice cell poisoned")
                    .take()
                    .expect("task slice claimed twice");
                let (r, n) = count::with(|| body(plan.ctx(t, false), view));
                instructions[t].store(n, Ordering::Relaxed);
                *results[t].lock().expect("result cell poisoned") = Some(r);
            });
        }
        Partition::Privatized if deterministic => {
            let privates: Vec<Mutex<Option<Vec<T>>>> =
                (0..n_tasks).map(|_| Mutex::new(None)).collect();
            pool::global().run(n_tasks, &|t| {
                let _span = invector_obs::span!("exec.task.privatized");
                let task = &plan.tasks[t];
                let mut scratch = vec![Op::identity(); task.hi - task.lo];
                let (r, n) = count::with(|| body(plan.ctx(t, true), &mut scratch));
                instructions[t].store(n, Ordering::Relaxed);
                *privates[t].lock().expect("scratch cell poisoned") = Some(scratch);
                *results[t].lock().expect("result cell poisoned") = Some(r);
            });
            // Ordered fold: bit-identical across runs at fixed task count.
            for (t, task) in plan.tasks.iter().enumerate() {
                let scratch = privates[t]
                    .lock()
                    .expect("scratch cell poisoned")
                    .take()
                    .expect("missing task scratch");
                for (slot, &p) in target[task.lo..task.hi].iter_mut().zip(&scratch) {
                    *slot = Op::combine(*slot, p);
                }
            }
        }
        Partition::Privatized => {
            let shared = Mutex::new(&mut *target);
            pool::global().run(n_tasks, &|t| {
                let _span = invector_obs::span!("exec.task.privatized");
                let task = &plan.tasks[t];
                let mut scratch = vec![Op::identity(); task.hi - task.lo];
                let (r, n) = count::with(|| body(plan.ctx(t, true), &mut scratch));
                instructions[t].store(n, Ordering::Relaxed);
                let mut guard = shared.lock().expect("target mutex poisoned");
                for (slot, &p) in guard[task.lo..task.hi].iter_mut().zip(&scratch) {
                    *slot = Op::combine(*slot, p);
                }
                *results[t].lock().expect("result cell poisoned") = Some(r);
            });
        }
    }

    count::bump_recharged(instructions.iter().map(|a| a.load(Ordering::Relaxed)).sum());
    results
        .into_iter()
        .map(|m| m.into_inner().expect("result cell poisoned").expect("missing task result"))
        .collect()
}

/// Indexed fan-out over the pool: runs `f(task, item_range)` for evenly cut
/// chunks of `0..items`, returning results in task order.
///
/// This is the raw primitive for kernels whose per-item updates touch more
/// than one target range (moldyn's pair forces, Euler's edge fluxes) or no
/// shared target at all (agg's per-worker tables). The same tiny-stream
/// fallback as [`execute`] applies: small `items` run as one inline task.
/// Worker SIMD instruction counts are re-charged to the calling thread.
pub fn parallel_chunks<R, F>(items: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    let n_tasks = effective_tasks(threads, items);
    if n_tasks == 1 {
        exec_metrics().inline_runs.inc();
        return vec![f(0, 0..items)];
    }
    let _chunks_span = invector_obs::span!("exec.parallel_chunks");
    exec_metrics().chunk_runs.inc();
    exec_metrics().tasks.add(n_tasks as u64);
    let chunk = items.div_ceil(n_tasks);
    let results: Vec<Mutex<Option<R>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    let instructions: Vec<AtomicU64> = (0..n_tasks).map(|_| AtomicU64::new(0)).collect();
    pool::global().run(n_tasks, &|t| {
        let _span = invector_obs::span!("exec.task.chunk");
        let start = (t * chunk).min(items);
        let end = ((t + 1) * chunk).min(items);
        let (r, n) = count::with(|| f(t, start..end));
        instructions[t].store(n, Ordering::Relaxed);
        *results[t].lock().expect("result cell poisoned") = Some(r);
    });
    count::bump_recharged(instructions.iter().map(|a| a.load(Ordering::Relaxed)).sum());
    results
        .into_iter()
        .map(|m| m.into_inner().expect("result cell poisoned").expect("missing task result"))
        .collect()
}

/// What one engine worker did, with the touched-range metadata the
/// allocation-proportionality tests assert on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// SIMD statistics of the worker's reduction.
    pub stats: InvecStats,
    /// Stream items the worker processed.
    pub items: usize,
    /// Inclusive lower bound of the target range the worker could write.
    pub touched_lo: usize,
    /// Exclusive upper bound of the target range the worker could write.
    pub touched_hi: usize,
    /// Elements of privatized scratch allocated (0 when the worker wrote
    /// the target directly: owner-computes and single-task runs).
    pub private_len: usize,
}

/// Merged result of one [`execute`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// All workers' statistics merged.
    pub stats: InvecStats,
    /// Per-worker reports, in task order.
    pub workers: Vec<WorkerReport>,
}

impl ExecReport {
    /// Number of workers the engine actually used.
    pub fn threads_used(&self) -> usize {
        self.workers.len()
    }
}

/// Accumulates `vals[j]` into `target[idx[j]]` under `policy` — the
/// parallel, policy-driven form of
/// [`invec_accumulate`](crate::accumulate::invec_accumulate).
///
/// Agreement with [`serial_accumulate`](crate::accumulate::serial_accumulate)
/// is exact for integer operators and float min/max under either partition;
/// float sums reassociate (identically so across runs when
/// `policy.deterministic` is set, or under owner-computes with the `Serial`
/// variant, which is bitwise-equal to the scalar loop).
///
/// # Panics
///
/// Panics if `policy.threads == 0`, on index/value length mismatch, or if
/// an index is out of bounds for `target`.
///
/// # Example
///
/// ```
/// use invector_core::exec::{execute, ExecPolicy};
/// use invector_core::ops::Sum;
///
/// let idx: Vec<i32> = (0..1000).map(|i| i % 10).collect();
/// let vals = vec![1i32; 1000];
/// let mut hist = vec![0i32; 10];
/// let report = execute::<i32, Sum>(&mut hist, &idx, &vals, &ExecPolicy::with_threads(4));
/// assert!(hist.iter().all(|&c| c == 100));
/// assert_eq!(report.threads_used(), 4);
/// ```
pub fn execute<T, Op>(target: &mut [T], idx: &[i32], vals: &[T], policy: &ExecPolicy) -> ExecReport
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    assert_eq!(idx.len(), vals.len(), "index/value length mismatch");
    let plan = ExecPlan::new(idx, target.len(), policy);
    let variant = policy.variant;
    // Resolve the backend once; every worker closure captures the resolved
    // value instead of re-probing CPU features per task.
    let backend = policy.backend.resolve();
    let workers =
        run_plan::<T, Op, WorkerReport, _>(&plan, target, policy.deterministic, |ctx, view| {
            let lo = ctx.lo as i32;
            let private_len = if ctx.private { view.len() } else { 0 };
            let (stats, items) = match &ctx.items {
                TaskItems::Span(range) => {
                    let vals_part = &vals[range.clone()];
                    let stats = if lo == 0 {
                        run_variant::<T, Op>(variant, backend, view, &idx[range.clone()], vals_part)
                    } else {
                        let rebased: Vec<i32> =
                            idx[range.clone()].iter().map(|&k| k - lo).collect();
                        run_variant::<T, Op>(variant, backend, view, &rebased, vals_part)
                    };
                    (stats, range.len())
                }
                TaskItems::Picked(positions) => {
                    // Bucketing gather: route the owned items (and rebase
                    // their keys) into contiguous scratch for the SIMD loop.
                    let rebased: Vec<i32> =
                        positions.iter().map(|&p| idx[p as usize] - lo).collect();
                    let gathered: Vec<T> = positions.iter().map(|&p| vals[p as usize]).collect();
                    (
                        run_variant::<T, Op>(variant, backend, view, &rebased, &gathered),
                        positions.len(),
                    )
                }
            };
            WorkerReport { stats, items, touched_lo: ctx.lo, touched_hi: ctx.hi, private_len }
        });
    let mut stats = InvecStats::default();
    for w in &workers {
        stats.merge(&w.stats);
    }
    ExecReport { stats, workers }
}

/// Reusable split buffers for epoch-batched accumulation.
///
/// A serving layer that drains micro-batches through the engine submits one
/// stream of `(index, value)` pairs per epoch. [`execute`] wants parallel
/// slices; rebuilding them from scratch costs two allocations per epoch at
/// a high epoch rate. An `EpochScratch` keeps the split buffers alive
/// across epochs — capacity grows to the largest batch seen and stays
/// there.
#[derive(Debug, Clone, Default)]
pub struct EpochScratch<T> {
    idx: Vec<i32>,
    vals: Vec<T>,
}

impl<T> EpochScratch<T> {
    /// An empty scratch; buffers are grown by the first epoch.
    pub fn new() -> Self {
        EpochScratch { idx: Vec::new(), vals: Vec::new() }
    }

    /// A scratch pre-sized for `capacity`-item epochs.
    pub fn with_capacity(capacity: usize) -> Self {
        EpochScratch { idx: Vec::with_capacity(capacity), vals: Vec::with_capacity(capacity) }
    }

    /// Current buffer capacity (high-water mark of past epoch sizes).
    pub fn capacity(&self) -> usize {
        self.idx.capacity().min(self.vals.capacity())
    }
}

/// Accumulates one epoch's update stream into `target` under `policy` —
/// the epoch-submission form of [`execute`].
///
/// `updates` yields `(index, value)` pairs in stream order; they are split
/// into `scratch`'s reusable index/value buffers and executed in one
/// engine call, so a long-running service pays no per-epoch allocation
/// once the scratch has warmed up. Results are identical to calling
/// [`execute`] on pre-split slices: for a fixed policy and epoch content
/// the fold order is deterministic, which is what lets a serving layer
/// offer bitwise-reproducible snapshots.
///
/// # Panics
///
/// Panics if `policy.threads == 0` or an index is out of bounds for
/// `target`.
///
/// # Example
///
/// ```
/// use invector_core::exec::{execute_epoch, EpochScratch, ExecPolicy};
/// use invector_core::ops::Sum;
///
/// let mut hist = vec![0i32; 8];
/// let mut scratch = EpochScratch::new();
/// let epoch = [(3, 5i32), (3, 2), (7, 1)];
/// execute_epoch::<i32, Sum>(&mut hist, epoch, &mut scratch, &ExecPolicy::default());
/// assert_eq!(hist[3], 7);
/// assert_eq!(hist[7], 1);
/// ```
pub fn execute_epoch<T, Op>(
    target: &mut [T],
    updates: impl IntoIterator<Item = (i32, T)>,
    scratch: &mut EpochScratch<T>,
    policy: &ExecPolicy,
) -> ExecReport
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    scratch.idx.clear();
    scratch.vals.clear();
    for (i, v) in updates {
        scratch.idx.push(i);
        scratch.vals.push(v);
    }
    execute::<T, Op>(target, &scratch.idx, &scratch.vals, policy)
}

/// Runs one in-worker reduction variant on a (possibly rebased) view.
fn run_variant<T, Op>(
    variant: ExecVariant,
    backend: Backend,
    view: &mut [T],
    idx: &[i32],
    vals: &[T],
) -> InvecStats
where
    T: SimdElement,
    Op: ReduceOp<T>,
{
    match variant {
        ExecVariant::Serial => {
            serial_accumulate::<T, Op>(view, idx, vals);
            InvecStats::default()
        }
        ExecVariant::Invec => invec_accumulate_with::<T, Op>(backend, view, idx, vals),
        ExecVariant::Adaptive => adaptive_accumulate_with::<T, Op>(backend, view, idx, vals),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulate::serial_accumulate;
    use crate::ops::{Max, Min, Sum};
    use rand::{Rng, SeedableRng};

    fn policies() -> Vec<ExecPolicy> {
        let mut out = Vec::new();
        for threads in [1usize, 2, 3, 7, 16] {
            for partition in [Partition::OwnerComputes, Partition::Privatized] {
                for variant in [ExecVariant::Serial, ExecVariant::Invec, ExecVariant::Adaptive] {
                    out.push(
                        ExecPolicy::with_threads(threads).partition(partition).variant(variant),
                    );
                }
            }
        }
        out
    }

    #[test]
    fn every_policy_matches_serial_for_integers() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(101);
        let n = 3000;
        let idx: Vec<i32> = (0..n).map(|_| rng.gen_range(0..97)).collect();
        let vals: Vec<i32> = (0..n).map(|_| rng.gen_range(-20..20)).collect();
        let mut expect = vec![0i32; 97];
        serial_accumulate::<i32, Sum>(&mut expect, &idx, &vals);
        for policy in policies() {
            let mut got = vec![0i32; 97];
            let report = execute::<i32, Sum>(&mut got, &idx, &vals, &policy);
            assert_eq!(got, expect, "{policy:?}");
            assert!(report.threads_used() >= 1 && report.threads_used() <= policy.threads);
            assert_eq!(report.workers.iter().map(|w| w.items).sum::<usize>(), n);
        }
    }

    #[test]
    fn min_and_max_are_exact_for_floats_under_both_partitions() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(102);
        let idx: Vec<i32> = (0..2500).map(|_| rng.gen_range(0..40)).collect();
        let vals: Vec<f32> = (0..2500).map(|_| rng.gen_range(-1e3..1e3)).collect();
        for partition in [Partition::OwnerComputes, Partition::Privatized] {
            let mut expect = vec![f32::INFINITY; 40];
            serial_accumulate::<f32, Min>(&mut expect, &idx, &vals);
            let mut got = vec![f32::INFINITY; 40];
            execute::<f32, Min>(
                &mut got,
                &idx,
                &vals,
                &ExecPolicy::with_threads(5).partition(partition),
            );
            assert_eq!(got, expect, "min {partition:?}");

            let mut expect = vec![f32::NEG_INFINITY; 40];
            serial_accumulate::<f32, Max>(&mut expect, &idx, &vals);
            let mut got = vec![f32::NEG_INFINITY; 40];
            execute::<f32, Max>(
                &mut got,
                &idx,
                &vals,
                &ExecPolicy::with_threads(5).partition(partition),
            );
            assert_eq!(got, expect, "max {partition:?}");
        }
    }

    #[test]
    fn owner_computes_serial_variant_is_bitwise_serial_for_float_sums() {
        // Owner-computes preserves per-target-index update order, so with a
        // scalar in-worker loop parallel float sums equal the serial loop
        // bit for bit — at any thread count.
        let mut rng = rand::rngs::SmallRng::seed_from_u64(103);
        let idx: Vec<i32> = (0..4000).map(|_| rng.gen_range(0..64)).collect();
        let vals: Vec<f32> = (0..4000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut expect = vec![0.0f32; 64];
        serial_accumulate::<f32, Sum>(&mut expect, &idx, &vals);
        for threads in [2, 3, 8] {
            let mut got = vec![0.0f32; 64];
            execute::<f32, Sum>(
                &mut got,
                &idx,
                &vals,
                &ExecPolicy::with_threads(threads).variant(ExecVariant::Serial),
            );
            assert_eq!(got, expect, "{threads} threads");
        }
    }

    #[test]
    fn deterministic_privatized_float_sums_are_bit_identical_across_runs() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(104);
        let idx: Vec<i32> = (0..5000).map(|_| rng.gen_range(0..32)).collect();
        let vals: Vec<f32> = (0..5000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let policy =
            ExecPolicy::with_threads(6).partition(Partition::Privatized).deterministic(true);
        let mut first = vec![0.0f32; 32];
        execute::<f32, Sum>(&mut first, &idx, &vals, &policy);
        // Reassociation across 6 chunks stays far inside 1e-3 of the scalar
        // loop.
        let mut expect = vec![0.0f32; 32];
        serial_accumulate::<f32, Sum>(&mut expect, &idx, &vals);
        for (a, b) in first.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        for _ in 0..10 {
            let mut again = vec![0.0f32; 32];
            execute::<f32, Sum>(&mut again, &idx, &vals, &policy);
            assert!(
                first.iter().zip(&again).all(|(a, b)| a.to_bits() == b.to_bits()),
                "deterministic mode must be bit-identical across runs"
            );
        }
    }

    #[test]
    fn privatized_scratch_is_bounded_by_touched_range_not_target_len() {
        // Regression for the seed's O(threads × |target|) blow-up: indices
        // confined to a narrow band must yield narrow private arrays.
        let target_len = 100_000;
        let idx: Vec<i32> = (0..4096).map(|i| 5_000 + (i % 10)).collect();
        let vals = vec![1i32; idx.len()];
        let mut target = vec![0i32; target_len];
        let policy = ExecPolicy::with_threads(4).partition(Partition::Privatized);
        let report = execute::<i32, Sum>(&mut target, &idx, &vals, &policy);
        assert_eq!(report.threads_used(), 4);
        for w in &report.workers {
            assert_eq!(w.private_len, w.touched_hi - w.touched_lo);
            assert!(
                w.private_len <= 10,
                "private array of {} elements for a 10-wide touched range",
                w.private_len
            );
        }
        assert_eq!(target[5_000..5_010].iter().sum::<i32>(), 4096);
        assert_eq!(target.iter().sum::<i32>(), 4096);
    }

    #[test]
    fn owner_computes_allocates_no_private_arrays() {
        let idx: Vec<i32> = (0..4096).map(|i| i % 1000).collect();
        let vals = vec![1i32; idx.len()];
        let mut target = vec![0i32; 1000];
        let report = execute::<i32, Sum>(&mut target, &idx, &vals, &ExecPolicy::with_threads(8));
        assert_eq!(report.threads_used(), 8);
        for w in &report.workers {
            assert_eq!(w.private_len, 0);
        }
        // Owned ranges tile the target exactly.
        assert_eq!(report.workers[0].touched_lo, 0);
        assert_eq!(report.workers.last().unwrap().touched_hi, 1000);
        for pair in report.workers.windows(2) {
            assert_eq!(pair[0].touched_hi, pair[1].touched_lo);
        }
        assert!(target.iter().all(|&c| c > 0));
    }

    #[test]
    fn thread_pool_is_initialized_once_across_engine_calls() {
        let idx: Vec<i32> = (0..2048).map(|i| i % 50).collect();
        let vals = vec![1i32; idx.len()];
        for _ in 0..8 {
            let mut target = vec![0i32; 50];
            execute::<i32, Sum>(&mut target, &idx, &vals, &ExecPolicy::with_threads(4));
            let mut target = vec![0i32; 50];
            execute::<i32, Sum>(
                &mut target,
                &idx,
                &vals,
                &ExecPolicy::with_threads(4).partition(Partition::Privatized),
            );
            parallel_chunks(2048, 4, |_, r| r.len());
        }
        assert_eq!(
            pool_initializations(),
            1,
            "engine calls must reuse one persistent pool, not spawn threads per call"
        );
    }

    #[test]
    fn all_conflict_single_hot_index_is_correct_under_both_partitions() {
        let idx = vec![7i32; 3000];
        let vals = vec![1i32; 3000];
        for partition in [Partition::OwnerComputes, Partition::Privatized] {
            let mut target = vec![0i32; 16];
            let report = execute::<i32, Sum>(
                &mut target,
                &idx,
                &vals,
                &ExecPolicy::with_threads(8).partition(partition),
            );
            assert_eq!(target[7], 3000, "{partition:?}");
            assert_eq!(target.iter().sum::<i32>(), 3000);
            assert_eq!(report.workers.iter().map(|w| w.items).sum::<usize>(), 3000);
        }
    }

    #[test]
    fn empty_and_tiny_streams_fall_back_to_one_inline_task() {
        let mut target = vec![9i32; 4];
        let report = execute::<i32, Sum>(&mut target, &[], &[], &ExecPolicy::with_threads(8));
        assert_eq!(report.threads_used(), 1);
        assert_eq!(target, vec![9; 4]);

        let report =
            execute::<i32, Sum>(&mut target, &[1, 1], &[5, 7], &ExecPolicy::with_threads(8));
        assert_eq!(report.threads_used(), 1);
        assert_eq!(target[1], 21);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let mut target = vec![0i32; 2];
        let policy = ExecPolicy { threads: 0, ..ExecPolicy::default() };
        execute::<i32, Sum>(&mut target, &[0], &[1], &policy);
    }

    #[cfg(feature = "count")]
    #[test]
    fn worker_instruction_counts_are_charged_to_the_caller() {
        let idx: Vec<i32> = (0..4096).map(|i| i % 64).collect();
        let vals = vec![1i32; idx.len()];
        let mut target = vec![0i32; 64];
        // Pin the portable backend: the native path does not run the
        // emulated instruction stream at all.
        let policy = ExecPolicy::with_threads(4).backend(BackendChoice::Portable);
        let ((), counted) = invector_simd::count::with(|| {
            execute::<i32, Sum>(&mut target, &idx, &vals, &policy);
        });
        assert!(counted > 0, "parallel SIMD work must surface in the caller's counter");
    }

    #[test]
    fn execute_epoch_matches_execute_and_reuses_scratch() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(105);
        let idx: Vec<i32> = (0..3000).map(|_| rng.gen_range(0..64)).collect();
        let vals: Vec<f32> = (0..3000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let policy = ExecPolicy::with_threads(3);
        let mut expect = vec![0.0f32; 64];
        execute::<f32, Sum>(&mut expect, &idx, &vals, &policy);

        let mut scratch = EpochScratch::new();
        let mut got = vec![0.0f32; 64];
        execute_epoch::<f32, Sum>(
            &mut got,
            idx.iter().copied().zip(vals.iter().copied()),
            &mut scratch,
            &policy,
        );
        assert!(got.iter().zip(&expect).all(|(a, b)| a.to_bits() == b.to_bits()));

        // A second, smaller epoch reuses the warmed buffers.
        let cap = scratch.capacity();
        assert!(cap >= 3000);
        execute_epoch::<f32, Sum>(&mut got, [(0, 1.0f32), (1, 2.0)], &mut scratch, &policy);
        assert_eq!(scratch.capacity(), cap);
    }

    #[test]
    fn parallel_chunks_covers_the_range_in_task_order() {
        let ranges = parallel_chunks(1000, 4, |task, range| (task, range));
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0].1.start, 0);
        assert_eq!(ranges.last().unwrap().1.end, 1000);
        for (i, (task, _)) in ranges.iter().enumerate() {
            assert_eq!(*task, i);
        }
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].1.end, pair[1].1.start);
        }
    }

    #[test]
    fn plan_reuse_across_streams_with_same_keys() {
        // Kernels build one plan per index set and run it many times.
        let keys: Vec<i32> = (0..2048).map(|i| (i * 31) % 128).collect();
        let policy = ExecPolicy::with_threads(4);
        let plan = ExecPlan::new(&keys, 128, &policy);
        let mut total = vec![0i64; 128];
        for round in 1..=3i64 {
            let vals: Vec<i64> = keys.iter().map(|_| round).collect();
            let mut target = vec![0i64; 128];
            run_plan::<i64, Sum, (), _>(&plan, &mut target, false, |ctx, view| {
                let lo = ctx.lo as i32;
                if let TaskItems::Picked(positions) = &ctx.items {
                    let rebased: Vec<i32> =
                        positions.iter().map(|&p| keys[p as usize] - lo).collect();
                    let gathered: Vec<i64> = positions.iter().map(|&p| vals[p as usize]).collect();
                    serial_accumulate::<i64, Sum>(view, &rebased, &gathered);
                }
            });
            for (t, v) in total.iter_mut().zip(&target) {
                *t += v;
            }
        }
        assert_eq!(total.iter().sum::<i64>(), 2048 * 6);
    }

    #[test]
    fn selection_bounds_equal_the_histogram_rule() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5e1ec7);
        let target_len = 1 << 12;
        for n_tasks in 2..=6usize {
            for n in [2 * n_tasks, 2 * n_tasks + 1, 97, 1000, target_len - 1] {
                let uniform: Vec<i32> =
                    (0..n).map(|_| rng.gen_range(0..target_len as i32)).collect();
                // Skewed: squaring a uniform draw piles keys near zero.
                let skewed: Vec<i32> = (0..n)
                    .map(|_| {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        (u * u * target_len as f64) as i32
                    })
                    .collect();
                let hot = rng.gen_range(0..target_len as i32);
                // One hot key (anywhere, first slot, last slot) meets every
                // quota at once and leaves every later task empty.
                let key_sets =
                    [uniform, skewed, vec![hot; n], vec![0; n], vec![target_len as i32 - 1; n]];
                for keys in &key_sets {
                    let oracle = owner_bounds_by_histogram(keys, target_len, n_tasks);
                    assert_eq!(
                        owner_bounds_by_selection(keys, target_len, n_tasks),
                        oracle,
                        "n_tasks {n_tasks}, {n} keys"
                    );
                    assert_eq!(oracle.len(), n_tasks + 1);
                }
            }
        }
        // The empty trailing tasks survive planning and execution.
        let keys = vec![(target_len - 1) as i32; 64];
        let plan = ExecPlan::new(&keys, target_len, &ExecPolicy::with_threads(4));
        assert_eq!(plan.num_tasks(), 4);
        assert!((1..4).all(|t| plan.items(t).is_empty()), "every item lands in task 0");
        let mut target = vec![0i32; target_len];
        execute::<i32, Sum>(&mut target, &keys, &vec![1; 64], &ExecPolicy::with_threads(4));
        assert_eq!(target[target_len - 1], 64);
    }
}
