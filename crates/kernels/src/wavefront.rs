//! The wave-frontier driver: iterates a [`RelaxRule`] to convergence.
//!
//! Matches the paper's §4.2 experimental setup: the frontier algorithms run
//! on the original (untiled) edge order because the active edge set changes
//! every iteration; the grouped variant re-groups the active edges each
//! iteration (the data-reorganization overhead Figure 9–11 make visible).
//!
//! [`run`], [`run_with_policy`] and [`run_reuse`] share one wave loop
//! (expand the frontier, relax the active edges, copy, swap) and differ only
//! in how a wave's active edges are relaxed.

use std::time::{Duration, Instant};

use invector_core::backend::Backend;
use invector_core::exec::parallel_chunks;
use invector_core::stats::{DepthHistogram, Utilization};
use invector_graph::group::{group_by_key, Grouping};
use invector_graph::{active_edge_positions, Csr, EdgeList, Frontier};
use invector_simd::Mask16;

use crate::common::{ExecPolicy, ExecVariant, RunResult, Timings, Variant};
use crate::relax::{
    relax_grouped, relax_invec, relax_masked, relax_serial, relax_window, RelaxRule,
};

/// Iteration cap guarding against non-terminating configurations.
pub const DEFAULT_MAX_ITERS: u32 = 10_000;

/// Runs rule `R` on `graph` until the frontier empties (or `max_iters`).
///
/// `init` receives the value array (pre-filled with `R::unreached()`) and
/// the initial frontier; it seeds sources. All variants produce bit-identical
/// value arrays because min/max relaxations are exact in floating point.
///
/// # Panics
///
/// Panics if `init` inserts an out-of-range vertex.
pub fn run<R: RelaxRule>(
    graph: &EdgeList,
    variant: Variant,
    max_iters: u32,
    init: impl FnOnce(&mut [R::Value], &mut Frontier),
) -> RunResult<R::Value> {
    // Resolved once per run: native AVX-512 when available, else portable.
    let backend = invector_core::backend::current();
    drive::<R>(graph, max_iters, Step::Whole(variant, backend), init).0
}

/// Runs rule `R` with the edge relaxations of every wave distributed over
/// the execution engine's thread pool.
///
/// Each wave's active-edge stream is cut into chunks. A task relaxes its
/// chunk into a private window over the destinations the chunk touches,
/// seeded from the live values, so every relaxation still compares against
/// its target's current value; the windows then fold into the live values
/// in task order, and each improvement joins the next frontier. Min/max are
/// exact in floating point, so values and iteration counts equal [`run`]'s
/// at any thread count, and the frontier order is deterministic at a fixed
/// one. `policy.partition` and `policy.deterministic` do not apply.
///
/// The per-task strategy follows [`Variant::exec_variant`];
/// `policy.threads == 1` runs each variant's own strategy, as [`run`] does.
pub fn run_with_policy<R: RelaxRule>(
    graph: &EdgeList,
    variant: Variant,
    max_iters: u32,
    policy: &ExecPolicy,
    init: impl FnOnce(&mut [R::Value], &mut Frontier),
) -> RunResult<R::Value> {
    let backend = policy.backend.resolve();
    let step = if policy.threads > 1 {
        Step::Chunked(variant.exec_variant(), backend, policy.threads)
    } else {
        Step::Whole(variant, backend)
    };
    drive::<R>(graph, max_iters, step, init).0
}

/// Runs rule `R` with the **grouping-reuse** technique of Jiang et al.
/// (ICS'16, the paper's reference \[11\]) — the realization the paper's
/// `nontiling_and_grouping` bars actually measure:
///
/// * the **whole** edge list is grouped once up front, together with an
///   edge→(window, lane) index (this one-time inspector cost is charged to
///   `timings.grouping`);
/// * each iteration activates the window lanes of the active edges through
///   the index and processes only the touched windows — conflict-free by
///   construction, no per-iteration regrouping.
///
/// Produces bit-identical results to [`run`].
pub fn run_reuse<R: RelaxRule>(
    graph: &EdgeList,
    max_iters: u32,
    init: impl FnOnce(&mut [R::Value], &mut Frontier),
) -> RunResult<R::Value> {
    drive::<R>(graph, max_iters, Step::Reuse(Reuse::new(graph)), init).0
}

/// How one wave's active edges are relaxed.
enum Step {
    /// One thread: the variant's own strategy on the whole value array.
    Whole(Variant, Backend),
    /// Stream chunks into private windows on the engine, with this per-task
    /// strategy and thread count.
    Chunked(ExecVariant, Backend, usize),
    /// The touched windows of a one-time grouping.
    Reuse(Reuse),
}

impl Step {
    /// The optional statistics a run owns: `(utilization, depth)`.
    fn records(&self) -> (bool, bool) {
        match self {
            Step::Whole(variant, _) => (variant.records_utilization(), variant.records_depth()),
            Step::Chunked(worker, ..) => (false, *worker == ExecVariant::Invec),
            Step::Reuse(_) => (false, false),
        }
    }
}

/// The wave loop every entry point shares. Also returns the final frontier:
/// the next wave's active set, non-empty only when `max_iters` cut the run.
fn drive<R: RelaxRule>(
    graph: &EdgeList,
    max_iters: u32,
    mut step: Step,
    init: impl FnOnce(&mut [R::Value], &mut Frontier),
) -> (RunResult<R::Value>, Frontier) {
    let nv = graph.num_vertices();
    // CSR construction is input loading, shared by every variant; it is not
    // part of any phase the paper charges to an approach.
    let csr = Csr::from_edge_list(graph);
    let (src, dst, weight) = (graph.src(), graph.dst(), graph.weight());

    let mut vals = vec![R::unreached(); nv];
    let mut frontier = Frontier::new(nv);
    init(&mut vals, &mut frontier);
    let mut new_vals = vals.clone();
    let mut next = Frontier::new(nv);
    let mut positions: Vec<u32> = Vec::new();

    let mut timings = Timings::default();
    if let Step::Reuse(reuse) = &step {
        timings.grouping = reuse.inspector;
    }
    let mut utilization = Utilization::default();
    let mut depth = DepthHistogram::new();
    let mut threads = 1;
    let mut iterations = 0;
    let instr_before = invector_simd::count::read();

    while !frontier.is_empty() && iterations < max_iters {
        iterations += 1;
        let t = Instant::now();
        active_edge_positions(&csr, &frontier, &mut positions);
        // In-wave data reorganization, charged to `grouping`, not `compute`.
        let mut regroup = Duration::ZERO;
        match &mut step {
            Step::Whole(Variant::Serial | Variant::SerialTiled, _) => {
                relax_serial::<R>(&positions, src, dst, weight, 0, &vals, &mut new_vals, &mut next);
            }
            Step::Whole(Variant::Invec, backend) => relax_invec::<R>(
                *backend,
                &positions,
                src,
                dst,
                weight,
                0,
                &vals,
                &mut new_vals,
                &mut next,
                &mut depth,
            ),
            Step::Whole(Variant::Masked, _) => relax_masked::<R>(
                &positions,
                src,
                dst,
                weight,
                &vals,
                &mut new_vals,
                &mut next,
                &mut utilization,
            ),
            Step::Whole(Variant::Grouped, _) => {
                // Re-grouping the changing active set every iteration is the
                // cost of reusing inspector/executor here (§4.2).
                let tg = Instant::now();
                let grouping = group_by_key(&positions, dst);
                regroup = tg.elapsed();
                relax_grouped::<R>(&grouping, src, dst, weight, &vals, &mut new_vals, &mut next);
            }
            Step::Chunked(worker, backend, n) => {
                threads = threads.max(relax_chunked::<R>(
                    *worker,
                    *backend,
                    *n,
                    &positions,
                    graph,
                    &vals,
                    &mut new_vals,
                    &mut next,
                    &mut depth,
                ))
            }
            Step::Reuse(reuse) => {
                reuse.relax::<R>(&positions, graph, &vals, &mut new_vals, &mut next)
            }
        }
        timings.grouping += regroup;
        timings.compute += t.elapsed() - regroup;

        vals.copy_from_slice(&new_vals);
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }

    let (owns_utilization, owns_depth) = step.records();
    let result = RunResult {
        values: vals,
        iterations,
        timings,
        instructions: invector_simd::count::read().wrapping_sub(instr_before),
        utilization: owns_utilization.then_some(utilization),
        depth: owns_depth.then_some(depth),
        threads,
    };
    (result, frontier)
}

/// Engine waves are cut into up to this many chunks per thread, of at least
/// [`MIN_CHUNK_EDGES`] edges: a stalled worker holds up one, not half a wave.
const CHUNKS_PER_THREAD: usize = 8;
const MIN_CHUNK_EDGES: usize = 2048;

/// Relaxes one wave on the engine and returns the number of workers used.
///
/// Each task takes a chunk of `positions`, seeds a private window from the
/// live `new_vals` over the destinations `[lo, hi)` the chunk touches, and
/// relaxes the chunk into it with destinations rebased by `lo`. The windows
/// fold into `new_vals` in task order: a window slot the task improved is
/// written back, and enters `next`, if it still improves the live value.
/// The chunk count, hence the frontier order, depends only on the wave size and `threads`.
#[allow(clippy::too_many_arguments)]
fn relax_chunked<R: RelaxRule>(
    worker: ExecVariant,
    backend: Backend,
    threads: usize,
    positions: &[u32],
    graph: &EdgeList,
    vals: &[R::Value],
    new_vals: &mut [R::Value],
    next: &mut Frontier,
    depth: &mut DepthHistogram,
) -> usize {
    let (src, dst, weight) = (graph.src(), graph.dst(), graph.weight());
    let live = &*new_vals;
    let chunks = (positions.len() / MIN_CHUNK_EDGES).clamp(threads, threads * CHUNKS_PER_THREAD);
    let windows = parallel_chunks(positions.len(), chunks, |_, range| {
        let chunk = &positions[range];
        let (lo, hi) = chunk.iter().fold((i32::MAX, -1), |(lo, hi), &p| {
            let d = dst[p as usize];
            (lo.min(d), hi.max(d))
        });
        let lo = if chunk.is_empty() { 0 } else { lo };
        let mut window = live[lo as usize..(hi + 1) as usize].to_vec();
        let mut improved = Frontier::new(window.len());
        let mut task_depth = DepthHistogram::new();
        if worker == ExecVariant::Serial {
            relax_serial::<R>(chunk, src, dst, weight, lo, vals, &mut window, &mut improved);
        } else {
            relax_invec::<R>(
                backend,
                chunk,
                src,
                dst,
                weight,
                lo,
                vals,
                &mut window,
                &mut improved,
                &mut task_depth,
            );
        }
        (lo as usize, window, improved, task_depth)
    });
    for (lo, window, improved, task_depth) in &windows {
        for &i in improved.vertices() {
            let (cand, v) = (window[i as usize], lo + i as usize);
            if R::improves(cand, new_vals[v]) {
                new_vals[v] = cand;
                next.insert(v as i32);
            }
        }
        depth.merge(task_depth);
    }
    windows.len().min(threads)
}

/// The grouping-reuse inspector (ICS'16): the whole edge list grouped by
/// destination once, each edge's (window, lane) in that grouping, and the
/// per-wave window-activation scratch.
struct Reuse {
    grouping: Grouping,
    slot_of_edge: Vec<(u32, u8)>,
    window_bits: Vec<u16>,
    touched: Vec<u32>,
    /// Time the one-time inspector took.
    inspector: Duration,
}

impl Reuse {
    fn new(graph: &EdgeList) -> Reuse {
        let t0 = Instant::now();
        let all_positions: Vec<u32> = (0..graph.num_edges() as u32).collect();
        let grouping = group_by_key(&all_positions, graph.dst());
        let mut slot_of_edge = vec![(0u32, 0u8); graph.num_edges()];
        for (slot_idx, &p) in grouping.slots.iter().enumerate() {
            if p != u32::MAX {
                slot_of_edge[p as usize] = ((slot_idx / 16) as u32, (slot_idx % 16) as u8);
            }
        }
        let window_bits = vec![0u16; grouping.num_windows()];
        Reuse { grouping, slot_of_edge, window_bits, touched: Vec::new(), inspector: t0.elapsed() }
    }

    /// Activates the window lanes of the active edges, then relaxes only the
    /// touched windows.
    fn relax<R: RelaxRule>(
        &mut self,
        positions: &[u32],
        graph: &EdgeList,
        vals: &[R::Value],
        new_vals: &mut [R::Value],
        next: &mut Frontier,
    ) {
        for &p in positions {
            let (w, lane) = self.slot_of_edge[p as usize];
            if self.window_bits[w as usize] == 0 {
                self.touched.push(w);
            }
            self.window_bits[w as usize] |= 1 << lane;
        }
        let (src, dst, weight) = (graph.src(), graph.dst(), graph.weight());
        for &w in &self.touched {
            let (slots, _) = self.grouping.window(w as usize);
            let active = Mask16::from_bits(u32::from(self.window_bits[w as usize]));
            relax_window::<R>(slots, active, src, dst, weight, vals, new_vals, next);
            self.window_bits[w as usize] = 0;
        }
        self.touched.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relax::{BfsRule, SsspRule, SswpRule, WccRule};
    use invector_graph::gen;

    // Cross-variant / cross-backend / parallel agreement on realistic graphs
    // is covered centrally by `tests/registry_golden.rs`; these tests pin the
    // driver's behaviour against hand-computed values and check the
    // per-variant bookkeeping the golden suite does not inspect.

    fn line_graph() -> EdgeList {
        // 0 -1.0-> 1 -2.0-> 2 -3.0-> 3, plus shortcut 0 -10.0-> 3.
        EdgeList::from_weighted_edges(4, &[(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 10.0)])
    }

    #[test]
    fn line_graph_known_values_for_every_variant() {
        for variant in Variant::ALL {
            let sssp = run::<SsspRule>(&line_graph(), variant, DEFAULT_MAX_ITERS, |vals, f| {
                vals[0] = 0.0;
                f.insert(0);
            });
            assert_eq!(sssp.values, vec![0.0, 1.0, 3.0, 6.0], "{variant}");
            assert!(sssp.iterations >= 3, "{variant}");

            let sswp = run::<SswpRule>(&line_graph(), variant, DEFAULT_MAX_ITERS, |vals, f| {
                vals[0] = f32::INFINITY;
                f.insert(0);
            });
            // Widest path 0->3: direct edge width 10 beats 1-2-3 (width 1).
            assert_eq!(sswp.values, vec![f32::INFINITY, 1.0, 1.0, 10.0], "{variant}");

            // Two components: {0,1,2} and {3,4}.
            let g = EdgeList::from_edges(5, &[(1, 0), (1, 2), (4, 3)]).symmetrized();
            let wcc = run::<WccRule>(&g, variant, DEFAULT_MAX_ITERS, |vals, f| {
                for (v, val) in vals.iter_mut().enumerate() {
                    *val = v as i32;
                    f.insert(v as i32);
                }
            });
            assert_eq!(wcc.values, vec![0, 0, 0, 3, 3], "{variant}");

            // Vertex 2 has no in-path from the source: stays unreached.
            let g = EdgeList::from_weighted_edges(3, &[(0, 1, 1.0)]);
            let r = run::<SsspRule>(&g, variant, DEFAULT_MAX_ITERS, |vals, f| {
                vals[0] = 0.0;
                f.insert(0);
            });
            assert_eq!(r.values[2], f32::INFINITY, "{variant}");

            // The iteration cap cuts convergence short.
            let capped = run::<SsspRule>(&line_graph(), variant, 1, |vals, f| {
                vals[0] = 0.0;
                f.insert(0);
            });
            assert_eq!(capped.iterations, 1, "{variant}");
        }
    }

    #[test]
    fn stat_ownership_follows_variant_predicates() {
        let g = gen::rmat(256, 2000, gen::RmatParams::SOCIAL, 3);
        for variant in Variant::ALL {
            let r = run::<SsspRule>(&g, variant, DEFAULT_MAX_ITERS, |vals, f| {
                vals[0] = 0.0;
                f.insert(0);
            });
            assert_eq!(r.utilization.is_some(), variant.records_utilization(), "{variant}");
            assert_eq!(r.depth.is_some(), variant.records_depth(), "{variant}");
            assert_eq!(
                r.timings.grouping > std::time::Duration::ZERO,
                variant.needs_grouping(),
                "{variant}"
            );
        }
    }

    #[test]
    fn reuse_variant_matches_run_exactly() {
        for seed in 0..5 {
            let g = gen::rmat(200, 1500, gen::RmatParams::SOCIAL, seed + 40);
            let reference = run::<SsspRule>(&g, Variant::Serial, DEFAULT_MAX_ITERS, |vals, f| {
                vals[0] = 0.0;
                f.insert(0);
            });
            let reuse = run_reuse::<SsspRule>(&g, DEFAULT_MAX_ITERS, |vals, f| {
                vals[0] = 0.0;
                f.insert(0);
            });
            assert_eq!(reuse.values, reference.values, "seed {seed}");
            assert_eq!(reuse.iterations, reference.iterations, "seed {seed}");
            assert!(reuse.timings.grouping > std::time::Duration::ZERO);
        }
    }

    #[test]
    fn reuse_variant_groups_once_not_per_iteration() {
        // WCC with every vertex active stresses the dense-frontier path of
        // the reuse index while comparing against per-iteration regrouping.
        let g = gen::uniform(400, 4000, 50).symmetrized();
        let init = |vals: &mut [i32], f: &mut Frontier| {
            for (v, val) in vals.iter_mut().enumerate() {
                *val = v as i32;
                f.insert(v as i32);
            }
        };
        let per_iter = run::<WccRule>(&g, Variant::Grouped, DEFAULT_MAX_ITERS, init);
        let reuse = run_reuse::<WccRule>(&g, DEFAULT_MAX_ITERS, init);
        assert_eq!(reuse.values, per_iter.values);
        // Reuse pays grouping once; the per-iteration variant pays it every
        // round (typically several times more).
        assert!(
            reuse.timings.grouping < per_iter.timings.grouping,
            "reuse {:?} !< per-iter {:?}",
            reuse.timings.grouping,
            per_iter.timings.grouping
        );
    }

    #[test]
    fn parallel_wcc_with_dense_frontier_uses_multiple_workers() {
        let g = gen::uniform(400, 3000, 61).symmetrized();
        let init = |vals: &mut [i32], f: &mut Frontier| {
            for (v, val) in vals.iter_mut().enumerate() {
                *val = v as i32;
                f.insert(v as i32);
            }
        };
        let reference = run::<WccRule>(&g, Variant::Serial, DEFAULT_MAX_ITERS, init);
        let policy = ExecPolicy::with_threads(4);
        let r = run_with_policy::<WccRule>(&g, Variant::Invec, DEFAULT_MAX_ITERS, &policy, init);
        assert_eq!(r.values, reference.values);
        assert_eq!(r.iterations, reference.iterations);
        assert!(r.threads > 1, "dense frontier should fan out, used {}", r.threads);
        assert!(r.depth.is_some());
    }

    fn sorted(f: &Frontier) -> Vec<i32> {
        let mut v = f.vertices().to_vec();
        v.sort_unstable();
        v
    }

    /// Runs `R` chunked at 2, 3 and 4 threads with both per-task strategies
    /// and checks values, iterations and (for a run capped before
    /// convergence) the sorted next frontier against the serial run.
    fn assert_chunked_agrees<R: RelaxRule>(
        g: &EdgeList,
        init: impl Fn(&mut [R::Value], &mut Frontier) + Copy,
    ) where
        R::Value: PartialEq + std::fmt::Debug,
    {
        for cap in [2, DEFAULT_MAX_ITERS] {
            let serial = Step::Whole(Variant::Serial, Backend::Portable);
            let (reference, ref_frontier) = drive::<R>(g, cap, serial, init);
            assert_eq!(ref_frontier.is_empty(), cap == DEFAULT_MAX_ITERS, "{}", R::NAME);
            for threads in 2..=4 {
                for worker in [ExecVariant::Serial, ExecVariant::Invec] {
                    let step = Step::Chunked(worker, Backend::Portable, threads);
                    let (r, frontier) = drive::<R>(g, cap, step, init);
                    let at = format!("{} {worker:?} t={threads} cap={cap}", R::NAME);
                    assert_eq!(r.values, reference.values, "{at}");
                    assert_eq!(r.iterations, reference.iterations, "{at}");
                    assert_eq!(sorted(&frontier), sorted(&ref_frontier), "{at}");
                    assert!(r.threads > 1, "{at}: no wave fanned out");
                    assert_eq!(r.depth.is_some(), worker == ExecVariant::Invec, "{at}");
                    assert!(r.utilization.is_none(), "{at}");
                }
            }
        }
    }

    #[test]
    fn chunked_waves_agree_with_serial_at_every_thread_count() {
        let g = gen::rmat(300, 3000, gen::RmatParams::SOCIAL, 9);
        let source = |vals: &mut [f32], f: &mut Frontier| {
            vals[0] = 0.0;
            f.insert(0);
        };
        assert_chunked_agrees::<SsspRule>(&g, source);
        assert_chunked_agrees::<SswpRule>(&g, |vals, f| {
            vals[0] = f32::INFINITY;
            f.insert(0);
        });
        assert_chunked_agrees::<BfsRule>(&g, |vals, f| {
            vals[0] = 0;
            f.insert(0);
        });
        let sym = gen::uniform(300, 600, 9).symmetrized();
        assert_chunked_agrees::<WccRule>(&sym, |vals, f| {
            for (v, val) in vals.iter_mut().enumerate() {
                *val = v as i32;
                f.insert(v as i32);
            }
        });
    }

    #[test]
    fn large_waves_cut_into_more_chunks_than_threads_stay_exact_and_ordered() {
        // The first wave holds all 40,000 symmetrized edges: at two threads
        // it is cut into 2 x CHUNKS_PER_THREAD chunks, one window each.
        let g = gen::uniform(2000, 20_000, 17).symmetrized();
        assert!(g.num_edges() >= 2 * CHUNKS_PER_THREAD * MIN_CHUNK_EDGES);
        let init = |vals: &mut [i32], f: &mut Frontier| {
            for (v, val) in vals.iter_mut().enumerate() {
                *val = v as i32;
                f.insert(v as i32);
            }
        };
        let serial = Step::Whole(Variant::Serial, Backend::Portable);
        let (reference, ref_frontier) = drive::<WccRule>(&g, 1, serial, init);
        for worker in [ExecVariant::Serial, ExecVariant::Invec] {
            let chunked = || Step::Chunked(worker, Backend::Portable, 2);
            let (r, frontier) = drive::<WccRule>(&g, 1, chunked(), init);
            assert_eq!(r.values, reference.values, "{worker:?}");
            assert_eq!(sorted(&frontier), sorted(&ref_frontier), "{worker:?}");
            // Workers, not chunks, are reported.
            assert_eq!(r.threads, 2, "{worker:?}");
            // The fold order, hence the frontier order, repeats exactly.
            let (_, again) = drive::<WccRule>(&g, 1, chunked(), init);
            assert_eq!(again.vertices(), frontier.vertices(), "{worker:?}");
        }
    }

    #[test]
    fn waves_below_two_edges_per_thread_run_as_one_inline_chunk() {
        // Every wave of the line graph has at most two active edges, fewer
        // than 2 x 4 threads: each runs as a single inline chunk.
        let seed = |vals: &mut [f32], f: &mut Frontier| {
            vals[0] = 0.0;
            f.insert(0);
        };
        let reference = run::<SsspRule>(&line_graph(), Variant::Serial, DEFAULT_MAX_ITERS, seed);
        for variant in [Variant::Serial, Variant::Invec] {
            let policy = ExecPolicy::with_threads(4);
            let r = run_with_policy::<SsspRule>(
                &line_graph(),
                variant,
                DEFAULT_MAX_ITERS,
                &policy,
                seed,
            );
            assert_eq!(r.values, vec![0.0, 1.0, 3.0, 6.0], "{variant}");
            assert_eq!(r.iterations, reference.iterations, "{variant}");
            assert_eq!(r.threads, 1, "{variant}");
        }
    }

    #[test]
    fn chunk_windows_rebase_high_destination_ids() {
        // 40 edges from 0 into 900..920, each destination twice; then
        // 919 -> 990. At two threads each 20-edge chunk touches [900, 920):
        // both windows start at a high id, and the fold must keep the first
        // task's value on odd destinations and the second's on even ones.
        let weight = |k: i32| if k % 2 == 0 { 100.0 - k as f32 } else { 50.0 + k as f32 };
        let mut edges: Vec<(i32, i32, f32)> =
            (0..40).map(|k| (0, 900 + k % 20, weight(k))).collect();
        edges.push((919, 990, 1.0));
        let g = EdgeList::from_weighted_edges(1000, &edges);
        let seed = |vals: &mut [f32], f: &mut Frontier| {
            vals[0] = 0.0;
            f.insert(0);
        };
        let reference = run::<SsspRule>(&g, Variant::Serial, DEFAULT_MAX_ITERS, seed);
        for j in 0..20 {
            let best = if j % 2 == 0 { 80.0 - j as f32 } else { 50.0 + j as f32 };
            assert_eq!(reference.values[900 + j], best);
        }
        assert_eq!(reference.values[990], 70.0);
        for worker in [ExecVariant::Serial, ExecVariant::Invec] {
            let step = Step::Chunked(worker, Backend::Portable, 2);
            let (r, _) = drive::<SsspRule>(&g, DEFAULT_MAX_ITERS, step, seed);
            assert_eq!(r.values, reference.values, "{worker:?}");
            assert_eq!(r.iterations, reference.iterations, "{worker:?}");
            assert_eq!(r.threads, 2, "{worker:?}");
        }
    }
}
