//! PageRank — the paper's motivating application (Figure 1, Figure 8).
//!
//! The inner loop is an associative irregular reduction: for every edge,
//! `sum[ny] += rank[nx] / nneighbor[nx]`. Because the edge set is static,
//! the inspector phases run once: tiling for all vectorized variants, plus
//! conflict-free grouping for the `tiling_and_grouping` variant.

use std::time::Instant;

use invector_graph::tile::DEFAULT_BLOCK_VERTICES;
use invector_graph::EdgeList;
use invector_simd::{F32x16, I32x16, Mask16};

use crate::common::{ExecPolicy, RunResult, Timings, Variant};
use crate::edgemap::{EdgeLane, EdgeMap, Lanes, Target};

/// PageRank parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor (0.85 in the classic formulation).
    pub damping: f32,
    /// Convergence threshold on the relative total rank change — the paper
    /// terminates when the change drops below 0.1% (`1e-3`).
    pub tolerance: f32,
    /// Iteration cap.
    pub max_iters: u32,
    /// Cache-tile block side for the tiled variants.
    pub block_vertices: usize,
    /// Execution-engine policy. `threads == 1` (the default) reproduces the
    /// paper's single-core runs; `threads > 1` partitions the edge phase
    /// across the persistent pool (the plan is built once, the edge set
    /// being static). In parallel runs the per-worker strategy follows
    /// [`Variant::exec_variant`]; `policy.variant` is overridden.
    pub exec: ExecPolicy,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            tolerance: 1e-3,
            max_iters: 500,
            block_vertices: DEFAULT_BLOCK_VERTICES,
            exec: ExecPolicy::default(),
        }
    }
}

/// Runs PageRank with the chosen implementation strategy.
///
/// Returns per-vertex ranks plus the phase timing breakdown of Figure 8
/// (`tiling` / `grouping` / `computing`). The masked variant reports SIMD
/// utilization; the in-vector variant reports the conflict-depth histogram.
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn pagerank(graph: &EdgeList, variant: Variant, config: &PageRankConfig) -> RunResult<f32> {
    let nv = graph.num_vertices();
    assert!(nv > 0, "PageRank needs at least one vertex");
    // Resolve the reduction backend once per run (Auto → native when the
    // CPU supports AVX-512); the hot loops never re-probe. The edge set is
    // static, so the inspector (tiling, grouping, engine plan) runs once.
    let engine = (config.exec.threads > 1).then_some(&config.exec);
    let mut map = EdgeMap::new(variant, config.exec.backend.resolve(), engine);
    let working = map.tile(graph, config.block_vertices);
    let deg: Vec<f32> = graph.out_degrees().iter().map(|&d| d as f32).collect();
    let mut rank = vec![1.0 / nv as f32; nv];
    let mut sum = vec![0.0f32; nv];
    map.inspect(&EdgeRank { g: &working, rank: &rank, deg: &deg }, nv);
    let mut iterations = 0;

    let instr_before = invector_simd::count::read();
    let t_compute = Instant::now();
    while iterations < config.max_iters {
        iterations += 1;
        sum.fill(0.0);
        map.run(&EdgeRank { g: &working, rank: &rank, deg: &deg }, [&mut sum]);
        // Vertex phase + convergence test (identical across variants).
        let base = (1.0 - config.damping) / nv as f32;
        let mut delta = 0.0f64;
        let mut mass = 0.0f64;
        for v in 0..nv {
            let new = base + config.damping * sum[v];
            delta += f64::from((new - rank[v]).abs());
            mass += f64::from(rank[v]);
            rank[v] = new;
        }
        if delta < f64::from(config.tolerance) * mass {
            break;
        }
    }
    let timings = Timings { compute: t_compute.elapsed(), ..map.timings() };

    RunResult {
        values: rank,
        iterations,
        timings,
        instructions: invector_simd::count::read().wrapping_sub(instr_before),
        utilization: map.utilization(),
        depth: map.depth(),
        threads: map.threads(),
    }
}

/// Figure 1's loop body: `sum[ny] += rank[nx] / nneighbor[nx]` per edge.
struct EdgeRank<'a> {
    g: &'a EdgeList,
    rank: &'a [f32],
    deg: &'a [f32],
}

impl EdgeLane<1> for EdgeRank<'_> {
    const TARGET: Target = Target::One;
    /// Two index loads, rank and degree loads, a divide, and the
    /// load-add-store on `sum`.
    const SERIAL_ITEM_COST: u64 = 8;

    fn endpoints(&self) -> (&[i32], &[i32]) {
        (self.g.src(), self.g.dst())
    }

    #[inline]
    fn scalar(&self, _: usize, nx: usize, _: usize) -> Option<[f32; 1]> {
        Some([self.rank[nx] / self.deg[nx]])
    }

    #[inline]
    fn vector(&self, active: Mask16, _: Lanes, vnx: I32x16, _: I32x16) -> (Mask16, [F32x16; 1]) {
        let vrank = F32x16::zero().mask_gather(active, self.rank, vnx);
        let vdeg = F32x16::splat(1.0).mask_gather(active, self.deg, vnx);
        (active, [vrank / vdeg])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ExecVariant;
    use invector_graph::gen;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol * (x.abs() + y.abs() + 1e-6), "vertex {i}: {x} vs {y}");
        }
    }

    // Cross-variant / cross-backend agreement on realistic power-law graphs
    // is covered centrally by `tests/registry_golden.rs`; these tests pin
    // hand-checkable graphs and the per-variant bookkeeping.

    #[test]
    fn small_known_graphs_for_every_variant() {
        // Cycle: uniform rank. Star: 8 leaves pointing at vertex 0. Oddball:
        // self-loop plus duplicate edges. The latter two compare against the
        // serial baseline on the same graph.
        let cycle = EdgeList::from_edges(2, &[(0, 1), (1, 0)]);
        let star_edges: Vec<(i32, i32)> = (1..9).map(|v| (v, 0)).collect();
        let star = EdgeList::from_edges(9, &star_edges);
        let oddball = EdgeList::from_edges(3, &[(0, 0), (1, 2), (1, 2), (2, 1)]);
        let serial = |g: &EdgeList| pagerank(g, Variant::Serial, &PageRankConfig::default());
        let star_serial = serial(&star);
        assert!(star_serial.values[0] > 5.0 * star_serial.values[1]);
        let oddball_serial = serial(&oddball);
        let cap2 = PageRankConfig { max_iters: 2, ..PageRankConfig::default() };
        for variant in Variant::ALL {
            let r = pagerank(&cycle, variant, &PageRankConfig::default());
            assert_close(&r.values, &[0.5, 0.5], 1e-3);
            let r = pagerank(&star, variant, &PageRankConfig::default());
            assert_close(&r.values, &star_serial.values, 1e-3);
            let r = pagerank(&oddball, variant, &PageRankConfig::default());
            assert_close(&r.values, &oddball_serial.values, 1e-3);
            // The iteration cap is honored on every path.
            assert_eq!(pagerank(&star, variant, &cap2).iterations, 2, "{variant}");
        }
    }

    #[test]
    fn ranks_are_positive_and_bounded() {
        let g = gen::uniform(256, 2000, 5);
        let r = pagerank(&g, Variant::Invec, &PageRankConfig::default());
        let total: f32 = r.values.iter().sum();
        assert!(r.values.iter().all(|&x| x > 0.0));
        assert!(total <= 1.0 + 1e-3, "rank mass {total}");
    }

    #[test]
    fn phase_and_stat_ownership_follow_variant_predicates() {
        let g = gen::rmat(256, 2000, gen::RmatParams::SOCIAL, 8);
        let config = PageRankConfig { block_vertices: 64, ..PageRankConfig::default() };
        for variant in Variant::ALL {
            let r = pagerank(&g, variant, &config);
            assert_eq!(r.utilization.is_some(), variant.records_utilization(), "{variant}");
            assert_eq!(r.depth.is_some(), variant.records_depth(), "{variant}");
            assert_eq!(
                r.timings.grouping > std::time::Duration::ZERO,
                variant.needs_grouping(),
                "{variant}"
            );
            // Only the untiled serial baseline skips the tiling inspector.
            assert_eq!(
                r.timings.tiling == std::time::Duration::ZERO,
                variant == Variant::ALL[0],
                "{variant}"
            );
            if let Some(util) = r.utilization {
                assert!(util.ratio() > 0.0 && util.ratio() <= 1.0);
            }
        }
    }

    #[test]
    fn parallel_runs_agree_with_serial_under_both_partitions() {
        use crate::common::Partition;
        let g = gen::rmat(512, 4000, gen::RmatParams::SOCIAL, 23);
        let serial = pagerank(&g, Variant::Serial, &PageRankConfig::default());
        for threads in [2, 4] {
            for partition in [Partition::OwnerComputes, Partition::Privatized] {
                let config = PageRankConfig {
                    exec: ExecPolicy::with_threads(threads)
                        .partition(partition)
                        .deterministic(true),
                    ..PageRankConfig::default()
                };
                for variant in [Variant::Serial, Variant::Invec] {
                    let r = pagerank(&g, variant, &config);
                    assert_close(&r.values, &serial.values, 5e-3);
                    assert_eq!(r.threads, threads, "{variant} {partition:?}");
                    assert!(r.timings.partition > std::time::Duration::ZERO);
                    // Parallel vectorized workers report conflict depth.
                    assert_eq!(r.depth.is_some(), variant.exec_variant() != ExecVariant::Serial);
                    // Owner-computes preserves per-vertex update order, so
                    // scalar workers reproduce the serial ranks bit for bit.
                    if partition == Partition::OwnerComputes && r.depth.is_none() {
                        assert_eq!(r.iterations, serial.iterations);
                        assert!(r
                            .values
                            .iter()
                            .zip(&serial.values)
                            .all(|(a, b)| a.to_bits() == b.to_bits()));
                    }
                }
            }
        }
    }
}
