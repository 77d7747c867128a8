//! Wave-frontier Single-Source Shortest Path (Figure 2, Figure 9).

use invector_graph::{EdgeList, Frontier};

use crate::common::{RunResult, Variant};
use crate::relax::SsspRule;
use crate::wavefront;

/// Runs wave-frontier SSSP from `source`, relaxing with `invec_min` for the
/// in-vector variant. Unreached vertices end at `f32::INFINITY`.
///
/// All variants return bit-identical distances (min is exact in `f32`).
///
/// # Panics
///
/// Panics if `source` is out of range.
///
/// # Example
///
/// ```
/// use invector_kernels::{sssp, Variant};
/// use invector_graph::EdgeList;
///
/// let g = EdgeList::from_weighted_edges(3, &[(0, 1, 2.0), (1, 2, 2.5)]);
/// let r = sssp(&g, 0, Variant::Invec, 100);
/// assert_eq!(r.values, vec![0.0, 2.0, 4.5]);
/// ```
pub fn sssp(graph: &EdgeList, source: i32, variant: Variant, max_iters: u32) -> RunResult<f32> {
    wavefront::run::<SsspRule>(graph, variant, max_iters, seed(source))
}

/// Runs SSSP with the grouping-**reuse** technique (one-time grouping +
/// per-iteration window activation; see
/// [`wavefront::run_reuse`](crate::wavefront::run_reuse)).
pub fn sssp_reuse(graph: &EdgeList, source: i32, max_iters: u32) -> RunResult<f32> {
    wavefront::run_reuse::<SsspRule>(graph, max_iters, seed(source))
}

/// Runs SSSP with each wave's relaxations distributed over the execution
/// engine (see [`wavefront::run_with_policy`]); distances are identical to
/// [`sssp`] at any thread count.
pub fn sssp_with_policy(
    graph: &EdgeList,
    source: i32,
    variant: Variant,
    max_iters: u32,
    policy: &crate::common::ExecPolicy,
) -> RunResult<f32> {
    wavefront::run_with_policy::<SsspRule>(graph, variant, max_iters, policy, seed(source))
}

/// Seeds `source` at distance 0, the only active vertex.
fn seed(source: i32) -> impl FnOnce(&mut [f32], &mut Frontier) {
    move |vals, frontier| {
        vals[source as usize] = 0.0;
        frontier.insert(source);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invector_graph::gen;

    /// Dijkstra reference for verification.
    fn dijkstra(graph: &EdgeList, source: i32) -> Vec<f32> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let nv = graph.num_vertices();
        let csr = invector_graph::Csr::from_edge_list(graph);
        let mut dist = vec![f32::INFINITY; nv];
        dist[source as usize] = 0.0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((ordered_float(0.0), source)));
        while let Some(Reverse((d, v))) = heap.pop() {
            let d = f32::from_bits(d);
            if d > dist[v as usize] {
                continue;
            }
            for &e in csr.out_edges(v as usize) {
                let u = graph.dst()[e as usize];
                let nd = d + graph.weight()[e as usize];
                if nd < dist[u as usize] {
                    dist[u as usize] = nd;
                    heap.push(Reverse((ordered_float(nd), u)));
                }
            }
        }
        dist
    }

    /// Monotone f32 -> u32 mapping for non-negative floats.
    fn ordered_float(x: f32) -> u32 {
        x.to_bits()
    }

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::rmat(200, 1200, gen::RmatParams::MILD, seed);
            let expect = dijkstra(&g, 0);
            for variant in Variant::ALL {
                let r = sssp(&g, 0, variant, 10_000);
                assert_eq!(r.values, expect, "{variant} seed {seed}");
            }
        }
    }

    #[test]
    fn disconnected_source_terminates_immediately() {
        let g = EdgeList::from_weighted_edges(3, &[(1, 2, 1.0)]);
        let r = sssp(&g, 0, Variant::Invec, 100);
        assert_eq!(r.values, vec![0.0, f32::INFINITY, f32::INFINITY]);
        assert!(r.iterations <= 1);
    }
}
