//! Sparse matrix–vector multiplication (SpMV) over the edge-list sparse
//! matrix view: `y[dst] += weight · x[src]` for every non-zero.
//!
//! SpMV is the canonical irregular reduction the paper's related work
//! optimizes (Liu et al., Tang et al.); it is PageRank's edge phase with a
//! per-edge coefficient, and exercises the same five implementation
//! strategies. Provided as a library feature beyond the paper's evaluated
//! applications.

use std::time::Instant;

use invector_core::backend::Backend;
use invector_graph::tile::DEFAULT_BLOCK_VERTICES;
use invector_graph::EdgeList;
use invector_simd::{F32x16, I32x16, Mask16};

use crate::common::{RunResult, Timings, Variant};
use crate::edgemap::{EdgeLane, EdgeMap, Lanes, Target};

/// Computes `y = A·x` where `A` is the weighted adjacency matrix of
/// `graph` (entry `A[dst][src] = weight`), using the chosen strategy.
///
/// Duplicate edges accumulate, matching the COO semantics of the paper's
/// Sparse Matrix View.
///
/// # Panics
///
/// Panics if `x.len() != graph.num_vertices()`.
pub fn spmv(graph: &EdgeList, x: &[f32], variant: Variant) -> RunResult<f32> {
    spmv_single(graph, x, variant, invector_core::backend::current())
}

/// [`spmv`] under an explicit [`ExecPolicy`](crate::common::ExecPolicy):
/// resolves `policy.backend` for the in-vector sweep. SpMV is a single
/// edge sweep, so `policy.threads` does not apply (the result records
/// `threads: 1`).
///
/// # Panics
///
/// Panics if `x.len() != graph.num_vertices()`.
pub fn spmv_with_policy(
    graph: &EdgeList,
    x: &[f32],
    variant: Variant,
    policy: &crate::common::ExecPolicy,
) -> RunResult<f32> {
    spmv_single(graph, x, variant, policy.backend.resolve())
}

fn spmv_single(graph: &EdgeList, x: &[f32], variant: Variant, backend: Backend) -> RunResult<f32> {
    assert_eq!(x.len(), graph.num_vertices(), "input vector length mismatch");
    let mut map = EdgeMap::new(variant, backend, None);
    let working = map.tile(graph, DEFAULT_BLOCK_VERTICES);
    let lane = NonZero { g: &working, x };
    map.inspect(&lane, graph.num_vertices());

    let mut y = vec![0.0f32; graph.num_vertices()];
    let instr_before = invector_simd::count::read();
    let t = Instant::now();
    map.run(&lane, [&mut y]);
    let timings = Timings { compute: t.elapsed(), ..map.timings() };

    RunResult {
        values: y,
        iterations: 1,
        timings,
        instructions: invector_simd::count::read().wrapping_sub(instr_before),
        utilization: map.utilization(),
        depth: map.depth(),
        threads: 1,
    }
}

/// One non-zero: `y[dst] += weight · x[src]`.
struct NonZero<'a> {
    g: &'a EdgeList,
    x: &'a [f32],
}

impl EdgeLane<1> for NonZero<'_> {
    const TARGET: Target = Target::One;
    /// Index loads, `x` load, weight load, multiply, and the load-add-store
    /// on `y`.
    const SERIAL_ITEM_COST: u64 = 8;

    fn endpoints(&self) -> (&[i32], &[i32]) {
        (self.g.src(), self.g.dst())
    }

    #[inline]
    fn scalar(&self, j: usize, src: usize, _: usize) -> Option<[f32; 1]> {
        Some([self.g.weight()[j] * self.x[src]])
    }

    #[inline]
    fn vector(
        &self,
        active: Mask16,
        lanes: Lanes,
        vsrc: I32x16,
        _: I32x16,
    ) -> (Mask16, [F32x16; 1]) {
        let vw = lanes.load(active, self.g.weight());
        let vx = F32x16::zero().mask_gather(active, self.x, vsrc);
        (active, [vw * vx])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invector_graph::gen;

    fn dense_reference(g: &EdgeList, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f64; g.num_vertices()];
        for j in 0..g.num_edges() {
            y[g.dst()[j] as usize] += f64::from(g.weight()[j]) * f64::from(x[g.src()[j] as usize]);
        }
        y.into_iter().map(|v| v as f32).collect()
    }

    #[test]
    fn identity_like_matrix() {
        // Each vertex forwards its own value: y = x (weights 1, self loops).
        let edges: Vec<(i32, i32, f32)> = (0..8).map(|v| (v, v, 1.0)).collect();
        let g = EdgeList::from_weighted_edges(8, &edges);
        let x: Vec<f32> = (0..8).map(|i| i as f32).collect();
        for variant in Variant::ALL {
            let r = spmv(&g, &x, variant);
            assert_eq!(r.values, x, "{variant}");
        }
    }

    #[test]
    fn all_variants_match_dense_reference() {
        let g = gen::rmat(256, 3000, gen::RmatParams::SOCIAL, 61);
        let x: Vec<f32> = (0..256).map(|i| (i as f32 * 0.37).sin()).collect();
        let expect = dense_reference(&g, &x);
        for variant in Variant::ALL {
            let r = spmv(&g, &x, variant);
            for (v, (a, b)) in r.values.iter().zip(&expect).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-3 * (a.abs() + b.abs() + 1e-3),
                    "{variant} row {v}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn duplicate_nonzeros_accumulate() {
        let g = EdgeList::from_weighted_edges(2, &[(0, 1, 2.0), (0, 1, 3.0)]);
        let r = spmv(&g, &[10.0, 0.0], Variant::Invec);
        assert_eq!(r.values, vec![0.0, 50.0]);
    }

    #[test]
    fn empty_matrix_gives_zero_vector() {
        let g = EdgeList::from_weighted_edges(3, &[]);
        let r = spmv(&g, &[1.0, 2.0, 3.0], Variant::Masked);
        assert_eq!(r.values, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_input_length_rejected() {
        let g = EdgeList::from_weighted_edges(2, &[(0, 1, 1.0)]);
        let _ = spmv(&g, &[1.0], Variant::Serial);
    }

    #[cfg(feature = "count")]
    #[test]
    fn invec_cheaper_than_masked_in_model() {
        let g = gen::rmat(512, 8000, gen::RmatParams::SOCIAL, 62);
        let x = vec![1.0f32; 512];
        let m = spmv(&g, &x, Variant::Masked);
        let i = spmv(&g, &x, Variant::Invec);
        assert!(i.instructions < m.instructions, "{} !< {}", i.instructions, m.instructions);
    }
}
