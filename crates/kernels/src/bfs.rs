//! Wave-frontier Breadth-First Search: hop counts from a source vertex.
//!
//! BFS is the wave-frontier pattern stripped to its core — the candidate is
//! `depth + 1` and the reduction is integer `min`, so every implementation
//! strategy agrees exactly (no float reassociation to tolerate). Provided
//! as a library application beyond the paper's evaluated set; the registry
//! lists it alongside SSSP/SSWP/WCC.

use invector_graph::{EdgeList, Frontier};

use crate::common::{RunResult, Variant};
use crate::relax::BfsRule;
use crate::wavefront;

/// Runs wave-frontier BFS from `source`. Unreached vertices end at
/// `i32::MAX`.
///
/// # Panics
///
/// Panics if `source` is out of range.
///
/// # Example
///
/// ```
/// use invector_kernels::{bfs, Variant};
/// use invector_graph::EdgeList;
///
/// let g = EdgeList::from_edges(4, &[(0, 1), (1, 2), (0, 2)]);
/// let r = bfs(&g, 0, Variant::Invec, 100);
/// assert_eq!(r.values, vec![0, 1, 1, i32::MAX]);
/// ```
pub fn bfs(graph: &EdgeList, source: i32, variant: Variant, max_iters: u32) -> RunResult<i32> {
    wavefront::run::<BfsRule>(graph, variant, max_iters, seed(source))
}

/// Runs BFS with each wave's relaxations distributed over the execution
/// engine (see [`wavefront::run_with_policy`]); hop counts are identical to
/// [`bfs`] at any thread count.
pub fn bfs_with_policy(
    graph: &EdgeList,
    source: i32,
    variant: Variant,
    max_iters: u32,
    policy: &crate::common::ExecPolicy,
) -> RunResult<i32> {
    wavefront::run_with_policy::<BfsRule>(graph, variant, max_iters, policy, seed(source))
}

/// Seeds `source` at hop 0, the only active vertex.
fn seed(source: i32) -> impl FnOnce(&mut [i32], &mut Frontier) {
    move |vals, frontier| {
        vals[source as usize] = 0;
        frontier.insert(source);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invector_graph::gen;

    /// Queue-based reference BFS.
    fn reference(graph: &EdgeList, source: i32) -> Vec<i32> {
        let csr = invector_graph::Csr::from_edge_list(graph);
        let mut depth = vec![i32::MAX; graph.num_vertices()];
        depth[source as usize] = 0;
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(v) = queue.pop_front() {
            for &e in csr.out_edges(v as usize) {
                let u = graph.dst()[e as usize];
                if depth[u as usize] == i32::MAX {
                    depth[u as usize] = depth[v as usize] + 1;
                    queue.push_back(u);
                }
            }
        }
        depth
    }

    #[test]
    fn matches_queue_bfs_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::rmat(200, 1200, gen::RmatParams::SOCIAL, seed + 70);
            let expect = reference(&g, 0);
            for variant in Variant::ALL {
                let r = bfs(&g, 0, variant, 10_000);
                assert_eq!(r.values, expect, "{variant} seed {seed}");
            }
        }
    }

    #[test]
    fn hop_count_beats_edge_count() {
        // 0 -> 1 -> 2 plus shortcut 0 -> 2: depth of 2 is 1, not 2.
        let g = EdgeList::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let r = bfs(&g, 0, Variant::Masked, 100);
        assert_eq!(r.values, vec![0, 1, 1]);
    }

    #[test]
    fn parallel_bfs_is_exact() {
        let g = gen::rmat(256, 2000, gen::RmatParams::SOCIAL, 71);
        let expect = reference(&g, 0);
        let policy = crate::common::ExecPolicy::with_threads(4);
        let r = bfs_with_policy(&g, 0, Variant::Invec, 10_000, &policy);
        assert_eq!(r.values, expect);
    }
}
