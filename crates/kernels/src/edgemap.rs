//! The edge-map operator: every reduction strategy of the scatter-add
//! kernels (PageRank's edge phase, SpMV, Euler's flux sweep, Moldyn's force
//! phase), written once.
//!
//! A kernel describes one item — an edge or interaction pair with endpoints
//! `a` and `b` — through [`EdgeLane`]: its scalar contribution, and the
//! 16-lane vector contribution plus write mask, over `K` `f32` components.
//! [`EdgeMap`] owns the rest: the inspector (tiling, conflict-free grouping,
//! the engine plan), the variant → strategy dispatch, and the strategies,
//! each keeping the paper's op sequence.
//!
//! Grouping and in-vector reduction treat both targets alike: grouped
//! windows keep every written slot distinct, and in-vector reduction folds
//! each written endpoint's conflicting lanes (one `reduce_alg1` per
//! endpoint). Masking and parallelism split on [`Target`]. A
//! one-destination lane masks with Figure 3's position refill and
//! `vpconflictd` subset, and runs on the engine over an owner-computes or
//! privatized [`ExecPlan`] of its destinations. A two-endpoint lane writes
//! two slots, so it masks by gather-after-scatter over both endpoints and
//! runs on the engine as stream chunks reduced into private windows,
//! folded in task order.

use std::borrow::Cow;
use std::ops::Range;
use std::time::Instant;

use invector_core::accumulate::invec_accumulate_with;
use invector_core::backend::Backend;
use invector_core::exec::{parallel_chunks, run_plan, ExecPlan, TaskItems};
use invector_core::invec::{reduce_alg1_arr_with, reduce_alg1_with};
use invector_core::masking::PositionFeeder;
use invector_core::ops::Sum;
use invector_core::serial_accumulate;
use invector_core::stats::{DepthHistogram, Utilization};
use invector_graph::group::{group_by_key, group_by_two_keys, Grouping};
use invector_graph::tile::tile_edges;
use invector_graph::EdgeList;
use invector_simd::{conflict_free_subset, count, F32x16, I32x16, Mask16};

use crate::common::{ExecPolicy, ExecVariant, Timings, Variant};

/// Where an item's contribution `c` lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `target[b] += c`; `a` only indexes source data (PageRank, SpMV).
    /// Needs `K == 1`, and every item contributes.
    One,
    /// `target[a] += c` and `target[b] -= c` (Euler, Moldyn), masked with
    /// the given starvation guard.
    Two(StarvationGuard),
}

/// When two-endpoint masking gives up on a vector whose lanes keep evicting
/// each other and commits its lowest active lane scalar-style. An empty
/// round commits nothing, so both rules commit the same lanes in the same
/// order; they differ in the rounds (instructions, lane slots) they waste.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StarvationGuard {
    /// After the second consecutive round without a safe lane (Euler).
    SecondEmptyRound,
    /// On any round without a safe lane but the vector's first (Moldyn).
    EmptyAfterFirstRound,
}

/// How one vector's items are addressed, for lanes that load per-item data
/// besides the endpoints (SpMV's weights).
#[derive(Debug, Clone, Copy)]
pub enum Lanes {
    /// Items `start..end` of the swept range `(start, end)`, one per lane.
    Block(usize, usize),
    /// The items at these stream positions (masked and grouped strategies).
    Picked(I32x16),
}

impl Lanes {
    /// Loads `data[item]` into each active lane.
    #[inline]
    pub fn load(self, active: Mask16, data: &[f32]) -> F32x16 {
        match self {
            Lanes::Block(start, end) => F32x16::load_partial(&data[start..end], 0.0).0,
            Lanes::Picked(vpos) => F32x16::zero().mask_gather(active, data, vpos),
        }
    }
}

/// One kernel's per-item work over `K` `f32` components.
pub trait EdgeLane<const K: usize>: Sync {
    /// Where the contribution lands.
    const TARGET: Target;
    /// Modeled scalar cost of one item in the serial baselines.
    const SERIAL_ITEM_COST: u64;
    /// Extra modeled scalar cost of an item that contributes.
    const SERIAL_WRITE_COST: u64 = 0;
    /// `true` when [`vector`](Self::vector) may leave active lanes out of
    /// its write mask (Moldyn's cutoff); masking then retires them with one
    /// mask-or per round.
    const MAY_SKIP: bool = false;

    /// The endpoint index streams `(a, b)`, one entry per item.
    fn endpoints(&self) -> (&[i32], &[i32]);

    /// The contribution of item `item` with endpoints `a`, `b`, or `None`
    /// when it contributes nothing.
    fn scalar(&self, item: usize, a: usize, b: usize) -> Option<[f32; K]>;

    /// The contributions of the `active` lanes with endpoint vectors `va`,
    /// `vb`, and the mask of lanes that write.
    fn vector(&self, active: Mask16, lanes: Lanes, va: I32x16, vb: I32x16)
        -> (Mask16, [F32x16; K]);
}

/// One kernel run's strategy, inspector state and statistics.
#[derive(Debug)]
pub struct EdgeMap {
    variant: Variant,
    backend: Backend,
    engine: Option<ExecPolicy>,
    grouping: Option<Grouping>,
    plan: Option<ExecPlan>,
    utilization: Utilization,
    depth: DepthHistogram,
    threads: usize,
    timings: Timings,
}

impl EdgeMap {
    /// Runs `variant`'s strategy on `backend`. `engine` is the policy when
    /// the kernel runs this variant on the execution engine; its workers
    /// then run [`Variant::exec_variant`].
    pub fn new(variant: Variant, backend: Backend, engine: Option<&ExecPolicy>) -> EdgeMap {
        EdgeMap {
            variant,
            backend,
            engine: engine.copied(),
            grouping: None,
            plan: None,
            utilization: Utilization::default(),
            depth: DepthHistogram::new(),
            threads: 1,
            timings: Timings::default(),
        }
    }

    /// Inspector, tiling half: `graph` cache-tiled with `block`-vertex
    /// blocks, except for the untiled serial baseline.
    pub fn tile<'g>(&mut self, graph: &'g EdgeList, block: usize) -> Cow<'g, EdgeList> {
        if self.variant == Variant::Serial {
            return Cow::Borrowed(graph);
        }
        let t0 = Instant::now();
        let tiled = graph.permuted(&tile_edges(graph, block).perm);
        self.timings.tiling += t0.elapsed();
        Cow::Owned(tiled)
    }

    /// Inspector, executor half: the conflict-free grouping or the engine
    /// plan of `lane`'s items over a `target_len`-slot target. Call again
    /// when the item set changes.
    pub fn inspect<L: EdgeLane<K>, const K: usize>(&mut self, lane: &L, target_len: usize) {
        assert!(K == 1 || L::TARGET != Target::One, "one-destination lanes have one component");
        let (a, b) = lane.endpoints();
        match (&self.engine, self.variant, L::TARGET) {
            (None, Variant::Grouped, target) => {
                let t0 = Instant::now();
                let positions: Vec<u32> = (0..a.len() as u32).collect();
                self.grouping = Some(match target {
                    Target::One => group_by_key(&positions, b),
                    Target::Two(_) => group_by_two_keys(&positions, a, b),
                });
                self.timings.grouping += t0.elapsed();
            }
            (Some(policy), _, Target::One) => {
                let t0 = Instant::now();
                let plan = ExecPlan::new(b, target_len, policy);
                self.threads = plan.num_tasks();
                self.plan = Some(plan);
                self.timings.partition += t0.elapsed();
            }
            _ => {}
        }
    }

    /// Accumulates every item of `lane` into `target` (one slice per
    /// component) with the run's strategy.
    pub fn run<L: EdgeLane<K>, const K: usize>(&mut self, lane: &L, mut target: [&mut [f32]; K]) {
        let items = 0..lane.endpoints().0.len();
        let (target, backend) = (&mut target, self.backend);
        match (&self.engine, self.variant, L::TARGET) {
            (Some(policy), variant, shape) => {
                let worker = variant.exec_variant();
                let depths = match shape {
                    Target::One => {
                        let plan = self.plan.as_ref().expect("inspected");
                        engine_one(lane, worker, backend, plan, policy, target)
                    }
                    Target::Two(_) => engine_two(lane, worker, backend, policy, target),
                };
                for d in &depths {
                    self.depth.merge(d);
                }
                self.threads = self.threads.max(depths.len());
            }
            (None, Variant::Serial | Variant::SerialTiled, _) => serial(lane, items, 0, target),
            (None, Variant::Invec, _) => invec(lane, backend, items, None, target, &mut self.depth),
            (None, Variant::Masked, Target::One) => masked_one(lane, target, &mut self.utilization),
            (None, Variant::Masked, Target::Two(g)) => {
                masked_two(lane, g, target, &mut self.utilization)
            }
            (None, Variant::Grouped, _) => {
                grouped(lane, self.grouping.as_ref().expect("inspected"), target)
            }
        }
    }

    /// Lane utilization, recorded by the masked strategy.
    pub fn utilization(&self) -> Option<Utilization> {
        (self.engine.is_none() && self.variant.records_utilization()).then_some(self.utilization)
    }

    /// Conflict-depth histogram, recorded by in-vector reduction (on one
    /// thread or in engine workers).
    pub fn depth(&self) -> Option<DepthHistogram> {
        let invec = match self.engine {
            Some(_) => self.variant.exec_variant() == ExecVariant::Invec,
            None => self.variant.records_depth(),
        };
        invec.then(|| self.depth.clone())
    }

    /// Most engine workers any run used (1 off the engine).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Inspector time: tiling, grouping and engine partitioning.
    pub fn timings(&self) -> Timings {
        self.timings
    }
}

/// `target[k][idx] ±= c[k]` on the `safe` lanes: gather, add or subtract,
/// scatter, per component.
#[inline]
fn scatter_add<const K: usize>(
    target: &mut [&mut [f32]; K],
    safe: Mask16,
    idx: I32x16,
    comps: &[F32x16; K],
    negate: bool,
) {
    for (t, &c) in target.iter_mut().zip(comps) {
        let old = F32x16::zero().mask_gather(safe, t, idx);
        let new = if negate { old - c } else { old + c };
        new.mask_scatter(safe, t, idx);
    }
}

/// Commits one vector's contributions on the `safe` lanes.
#[inline]
fn commit<L: EdgeLane<K>, const K: usize>(
    target: &mut [&mut [f32]; K],
    safe: Mask16,
    (va, vb): (I32x16, I32x16),
    comps: &[F32x16; K],
) {
    if L::TARGET != Target::One {
        scatter_add(target, safe, va, comps, false);
    }
    scatter_add(target, safe, vb, comps, L::TARGET != Target::One);
}

/// Commits one item's contribution `c` into slots rebased by `base`.
/// Always inlined: called out of line, the serial loops ran ~1.3× slower
/// than the hand-written per-kernel loops they replace.
#[inline(always)]
fn commit_scalar<L: EdgeLane<K>, const K: usize>(
    target: &mut [&mut [f32]; K],
    (a, b): (usize, usize),
    base: usize,
    c: [f32; K],
) {
    for (t, c) in target.iter_mut().zip(c) {
        if L::TARGET == Target::One {
            t[b - base] += c;
        } else {
            t[a - base] += c;
            t[b - base] -= c;
        }
    }
}

/// Lanes a masked round finishes: the committed ones, plus the active lanes
/// outside the write mask when the lane may skip.
#[inline]
fn retired<L: EdgeLane<K>, const K: usize>(active: Mask16, write: Mask16, safe: Mask16) -> Mask16 {
    if L::MAY_SKIP {
        safe | active.and_not(write)
    } else {
        safe
    }
}

/// The scalar baselines over `items`, writing slots rebased by `base`.
fn serial<L: EdgeLane<K>, const K: usize>(
    lane: &L,
    items: Range<usize>,
    base: usize,
    target: &mut [&mut [f32]; K],
) {
    let (a, b) = lane.endpoints();
    let n = items.len() as u64;
    let mut written = 0u64;
    for p in items {
        let ends = (a[p] as usize, b[p] as usize);
        if let Some(c) = lane.scalar(p, ends.0, ends.1) {
            commit_scalar::<L, K>(target, ends, base, c);
            written += 1;
        }
    }
    count::bump(L::SERIAL_ITEM_COST * n + L::SERIAL_WRITE_COST * written);
}

/// In-vector reduction over `items` (Figure 7): each endpoint's conflicting
/// lanes fold in-vector, then commit with one conflict-free
/// gather-add-scatter. With a `base`, endpoints scatter rebased into a
/// private window (contributions still gather with the global ids).
fn invec<L: EdgeLane<K>, const K: usize>(
    lane: &L,
    backend: Backend,
    items: Range<usize>,
    base: Option<usize>,
    target: &mut [&mut [f32]; K],
    depth: &mut DepthHistogram,
) {
    let (a, b) = lane.endpoints();
    let vbase = base.map(|base| I32x16::splat(base as i32));
    let rebase = |v: I32x16| vbase.map_or(v, |base| v - base);
    let end = items.end;
    for j in items.step_by(16) {
        let (va, active) = I32x16::load_partial(&a[j..end], 0);
        let (vb, _) = I32x16::load_partial(&b[j..end], 0);
        let (write, comps) = lane.vector(active, Lanes::Block(j, end), va, vb);
        if L::TARGET == Target::One {
            let ib = rebase(vb);
            let mut c = comps;
            let (safe, d) = reduce_alg1_with::<f32, Sum, 16>(backend, write, ib, &mut c[0]);
            depth.record(d);
            scatter_add(target, safe, ib, &c, false);
        } else {
            let (ia, ib) = (rebase(va), rebase(vb));
            let mut c = comps;
            let (safe, d) = reduce_alg1_arr_with::<f32, Sum, K, 16>(backend, write, ia, &mut c);
            depth.record(d);
            scatter_add(target, safe, ia, &c, false);
            let mut c = comps;
            let (safe, d) = reduce_alg1_arr_with::<f32, Sum, K, 16>(backend, write, ib, &mut c);
            depth.record(d);
            scatter_add(target, safe, ib, &c, true);
        }
    }
}

/// One-destination conflict masking (Figure 3): free lanes refill from the
/// stream, and each round commits the `vpconflictd` conflict-free subset.
fn masked_one<L: EdgeLane<K>, const K: usize>(
    lane: &L,
    target: &mut [&mut [f32]; K],
    util: &mut Utilization,
) {
    let (a, b) = lane.endpoints();
    let mut feeder = PositionFeeder::new(0, a.len());
    let mut vpos = I32x16::zero();
    let mut active = Mask16::none();
    loop {
        active |= feeder.refill(!active, &mut vpos);
        if active.is_empty() {
            break;
        }
        let va = I32x16::zero().mask_gather(active, a, vpos);
        let vb = I32x16::zero().mask_gather(active, b, vpos);
        let (write, comps) = lane.vector(active, Lanes::Picked(vpos), va, vb);
        let safe = conflict_free_subset(write, vb);
        commit::<L, K>(target, safe, (va, vb), &comps);
        util.record(u64::from(safe.count_ones()), 16);
        active = active.and_not(retired::<L, K>(active, write, safe));
    }
}

/// Two-endpoint conflict masking by gather-after-scatter (Polychroniou et
/// al.): each writing lane scatters its id through both endpoints into a
/// scratch array and commits only if it reads its own id back through both.
/// A vector stays until all its lanes commit; `guard` bounds starvation.
fn masked_two<L: EdgeLane<K>, const K: usize>(
    lane: &L,
    guard: StarvationGuard,
    target: &mut [&mut [f32]; K],
    util: &mut Utilization,
) {
    let (a, b) = lane.endpoints();
    let mut scratch = vec![0i32; target[0].len()];
    let lane_ids = I32x16::iota();
    for j in (0..a.len()).step_by(16) {
        let (va, mut active) = I32x16::load_partial(&a[j..], 0);
        let (vb, _) = I32x16::load_partial(&b[j..], 0);
        let mut empty_rounds = 0u32;
        let mut first_round = true;
        while !active.is_empty() {
            let (write, comps) = lane.vector(active, Lanes::Block(j, a.len()), va, vb);
            lane_ids.mask_scatter(write, &mut scratch, va);
            lane_ids.mask_scatter(write, &mut scratch, vb);
            let got_a = I32x16::zero().mask_gather(write, &scratch, va);
            let got_b = I32x16::zero().mask_gather(write, &scratch, vb);
            let safe = got_a.simd_eq(lane_ids) & got_b.simd_eq(lane_ids) & write;
            commit::<L, K>(target, safe, (va, vb), &comps);
            util.record(u64::from(safe.count_ones()), 16);
            active = active.and_not(retired::<L, K>(active, write, safe));
            empty_rounds = if safe.is_empty() { empty_rounds + 1 } else { 0 };
            let starved = match guard {
                StarvationGuard::SecondEmptyRound => empty_rounds > 1,
                StarvationGuard::EmptyAfterFirstRound => empty_rounds > 0 && !first_round,
            };
            if starved && !active.is_empty() {
                let stuck = active.first_set().expect("nonempty");
                let p = j + stuck;
                let ends = (a[p] as usize, b[p] as usize);
                if let Some(c) = lane.scalar(p, ends.0, ends.1) {
                    commit_scalar::<L, K>(target, ends, 0, c);
                }
                util.record(1, 16);
                active = active.with(stuck, false);
            }
            first_round = false;
        }
    }
}

/// Inspector/executor: unmasked SIMD over the conflict-free windows.
fn grouped<L: EdgeLane<K>, const K: usize>(
    lane: &L,
    grouping: &Grouping,
    target: &mut [&mut [f32]; K],
) {
    let (a, b) = lane.endpoints();
    for w in 0..grouping.num_windows() {
        let (slots, maskbits) = grouping.window(w);
        let active = Mask16::from_bits(u32::from(maskbits));
        let vpos = I32x16::from_array(std::array::from_fn(|i| slots[i] as i32));
        let va = I32x16::zero().mask_gather(active, a, vpos);
        let vb = I32x16::zero().mask_gather(active, b, vpos);
        let (write, comps) = lane.vector(active, Lanes::Picked(vpos), va, vb);
        commit::<L, K>(target, write, (va, vb), &comps);
    }
}

/// One-destination engine run: each task reduces the contributions of its
/// share of the stream into its partition of the target (owner-computes: a
/// disjoint slice; privatized: a touched-range scratch array). Returns each
/// task's depth histogram.
fn engine_one<L: EdgeLane<K>, const K: usize>(
    lane: &L,
    worker: ExecVariant,
    backend: Backend,
    plan: &ExecPlan,
    policy: &ExecPolicy,
    target: &mut [&mut [f32]; K],
) -> Vec<DepthHistogram> {
    let (a, b) = lane.endpoints();
    run_plan::<_, Sum, _, _>(plan, target[0], policy.deterministic, |ctx, view| {
        let lo = ctx.lo as i32;
        let contribution = |p: usize| {
            let c = lane.scalar(p, a[p] as usize, b[p] as usize).expect("Target::One item");
            (b[p] - lo, c[0])
        };
        let (keys, vals): (Vec<i32>, Vec<f32>) = match &ctx.items {
            TaskItems::Span(range) => range.clone().map(contribution).unzip(),
            TaskItems::Picked(picked) => picked.iter().map(|&p| contribution(p as usize)).unzip(),
        };
        if worker == ExecVariant::Serial {
            serial_accumulate::<f32, Sum>(view, &keys, &vals);
            count::bump((L::SERIAL_ITEM_COST + L::SERIAL_WRITE_COST) * keys.len() as u64);
            DepthHistogram::new()
        } else {
            invec_accumulate_with::<f32, Sum>(backend, view, &keys, &vals).depth
        }
    })
}

/// Two-endpoint engine run: the stream is cut into chunks, each reduced
/// into a private window bounded to the slots its chunk touches, and the
/// windows fold into `target` in task order (deterministic at a fixed
/// thread count). Returns each task's depth histogram.
fn engine_two<L: EdgeLane<K>, const K: usize>(
    lane: &L,
    worker: ExecVariant,
    backend: Backend,
    policy: &ExecPolicy,
    target: &mut [&mut [f32]; K],
) -> Vec<DepthHistogram> {
    let (a, b) = lane.endpoints();
    let results = parallel_chunks(a.len(), policy.threads, |_, range| {
        let (mut lo, mut hi) = (i32::MAX, -1);
        for p in range.clone() {
            lo = lo.min(a[p]).min(b[p]);
            hi = hi.max(a[p]).max(b[p]);
        }
        let (lo, hi) = if range.is_empty() { (0, 0) } else { (lo as usize, hi as usize + 1) };
        let mut private: [Vec<f32>; K] = std::array::from_fn(|_| vec![0.0; hi - lo]);
        let mut depth = DepthHistogram::new();
        let mut view = private.each_mut().map(Vec::as_mut_slice);
        match worker {
            ExecVariant::Serial => serial(lane, range, lo, &mut view),
            _ => invec(lane, backend, range, Some(lo), &mut view, &mut depth),
        }
        (lo, private, depth)
    });
    results
        .into_iter()
        .map(|(lo, private, depth)| {
            for (t, p) in target.iter_mut().zip(&private) {
                for (slot, v) in t[lo..lo + p.len()].iter_mut().zip(p) {
                    *slot += v;
                }
            }
            depth
        })
        .collect()
}
