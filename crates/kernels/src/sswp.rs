//! Wave-frontier Single-Source Widest Path (Figure 10).
//!
//! SSWP maximizes, over all paths from the source, the weight of the
//! path's minimum-weight edge: `width[ny] = max(width[ny],
//! min(width[nx], w))`. The reduction operator is `max` — `invec_max` in
//! the paper's API.

use invector_graph::{EdgeList, Frontier};

use crate::common::{RunResult, Variant};
use crate::relax::SswpRule;
use crate::wavefront;

/// Runs wave-frontier SSWP from `source`. The source has infinite width;
/// unreachable vertices end at `0.0`.
///
/// # Panics
///
/// Panics if `source` is out of range.
///
/// # Example
///
/// ```
/// use invector_kernels::{sswp, Variant};
/// use invector_graph::EdgeList;
///
/// // Two routes 0->2: direct (width 1) and via 1 (width min(5, 3) = 3).
/// let g = EdgeList::from_weighted_edges(3, &[(0, 2, 1.0), (0, 1, 5.0), (1, 2, 3.0)]);
/// let r = sswp(&g, 0, Variant::Invec, 100);
/// assert_eq!(r.values[2], 3.0);
/// ```
pub fn sswp(graph: &EdgeList, source: i32, variant: Variant, max_iters: u32) -> RunResult<f32> {
    wavefront::run::<SswpRule>(graph, variant, max_iters, seed(source))
}

/// Runs SSWP with the grouping-**reuse** technique (see
/// [`wavefront::run_reuse`](crate::wavefront::run_reuse)).
pub fn sswp_reuse(graph: &EdgeList, source: i32, max_iters: u32) -> RunResult<f32> {
    wavefront::run_reuse::<SswpRule>(graph, max_iters, seed(source))
}

/// Runs SSWP with each wave's relaxations distributed over the execution
/// engine (see [`wavefront::run_with_policy`]); widths are identical to
/// [`sswp`] at any thread count.
pub fn sswp_with_policy(
    graph: &EdgeList,
    source: i32,
    variant: Variant,
    max_iters: u32,
    policy: &crate::common::ExecPolicy,
) -> RunResult<f32> {
    wavefront::run_with_policy::<SswpRule>(graph, variant, max_iters, policy, seed(source))
}

/// Seeds `source` at infinite width, the only active vertex.
fn seed(source: i32) -> impl FnOnce(&mut [f32], &mut Frontier) {
    move |vals, frontier| {
        vals[source as usize] = f32::INFINITY;
        frontier.insert(source);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invector_graph::gen;

    /// Widest-path reference via iterated Bellman-Ford relaxation.
    fn reference(graph: &EdgeList, source: i32) -> Vec<f32> {
        let nv = graph.num_vertices();
        let mut width = vec![0.0f32; nv];
        width[source as usize] = f32::INFINITY;
        loop {
            let mut changed = false;
            for j in 0..graph.num_edges() {
                let nx = graph.src()[j] as usize;
                let ny = graph.dst()[j] as usize;
                let cand = width[nx].min(graph.weight()[j]);
                if cand > width[ny] {
                    width[ny] = cand;
                    changed = true;
                }
            }
            if !changed {
                return width;
            }
        }
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::rmat(150, 900, gen::RmatParams::SOCIAL, seed + 10);
            let expect = reference(&g, 0);
            for variant in Variant::ALL {
                let r = sswp(&g, 0, variant, 10_000);
                assert_eq!(r.values, expect, "{variant} seed {seed}");
            }
        }
    }

    #[test]
    fn bottleneck_edge_limits_width() {
        // 0 -9-> 1 -0.5-> 2: widest path to 2 is bottlenecked at 0.5.
        let g = EdgeList::from_weighted_edges(3, &[(0, 1, 9.0), (1, 2, 0.5)]);
        let r = sswp(&g, 0, Variant::Masked, 100);
        assert_eq!(r.values, vec![f32::INFINITY, 9.0, 0.5]);
    }
}
