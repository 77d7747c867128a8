//! Weakly Connected Components by label propagation (Figure 11).
//!
//! Every vertex starts with its own id as label; active edges send the
//! source label to the destination, which keeps the minimum (§2.2: "sends
//! the index of the incoming vertex to the outgoing vertex ... if the
//! incoming index is smaller"). Weak connectivity ignores direction, so the
//! graph is symmetrized once up front (shared input preparation, not charged
//! to any variant).

use invector_graph::{EdgeList, Frontier};

use crate::common::{RunResult, Variant};
use crate::relax::WccRule;
use crate::wavefront;

/// Runs WCC: the result labels each vertex with the smallest vertex id in
/// its weakly-connected component.
///
/// # Example
///
/// ```
/// use invector_kernels::{wcc, Variant};
/// use invector_graph::EdgeList;
///
/// let g = EdgeList::from_edges(4, &[(1, 0), (2, 3)]);
/// let r = wcc(&g, Variant::Invec, 100);
/// assert_eq!(r.values, vec![0, 0, 2, 2]);
/// ```
pub fn wcc(graph: &EdgeList, variant: Variant, max_iters: u32) -> RunResult<i32> {
    on_symmetrized(graph, |sym| wavefront::run::<WccRule>(sym, variant, max_iters, seed))
}

/// Runs WCC with the grouping-**reuse** technique (see
/// [`wavefront::run_reuse`](crate::wavefront::run_reuse)).
pub fn wcc_reuse(graph: &EdgeList, max_iters: u32) -> RunResult<i32> {
    on_symmetrized(graph, |sym| wavefront::run_reuse::<WccRule>(sym, max_iters, seed))
}

/// Runs WCC with each wave's label propagations distributed over the
/// execution engine (see [`wavefront::run_with_policy`]); labels are
/// identical to [`wcc`] at any thread count.
pub fn wcc_with_policy(
    graph: &EdgeList,
    variant: Variant,
    max_iters: u32,
    policy: &crate::common::ExecPolicy,
) -> RunResult<i32> {
    on_symmetrized(graph, |sym| {
        wavefront::run_with_policy::<WccRule>(sym, variant, max_iters, policy, seed)
    })
}

/// Hands `run` the symmetrized graph: weak connectivity ignores direction.
fn on_symmetrized<T>(graph: &EdgeList, run: impl FnOnce(&EdgeList) -> T) -> T {
    run(&graph.symmetrized())
}

/// Labels every vertex with its own id, all of them active.
fn seed(labels: &mut [i32], frontier: &mut Frontier) {
    for (v, label) in labels.iter_mut().enumerate() {
        *label = v as i32;
        frontier.insert(v as i32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invector_graph::gen;

    /// Union-find reference.
    fn reference(graph: &EdgeList) -> Vec<i32> {
        let nv = graph.num_vertices();
        let mut parent: Vec<usize> = (0..nv).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for j in 0..graph.num_edges() {
            let a = find(&mut parent, graph.src()[j] as usize);
            let b = find(&mut parent, graph.dst()[j] as usize);
            if a != b {
                parent[a.max(b)] = a.min(b);
            }
        }
        // Label = minimum vertex id in the component.
        let mut min_label = vec![i32::MAX; nv];
        for v in 0..nv {
            let root = find(&mut parent, v);
            min_label[root] = min_label[root].min(v as i32);
        }
        (0..nv).map(|v| min_label[find(&mut parent, v)]).collect()
    }

    #[test]
    fn matches_union_find_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::uniform(120, 150, seed + 30); // sparse -> many components
            let expect = reference(&g);
            for variant in Variant::ALL {
                let r = wcc(&g, variant, 10_000);
                assert_eq!(r.values, expect, "{variant} seed {seed}");
            }
        }
    }

    #[test]
    fn isolated_vertices_keep_their_own_label() {
        let g = EdgeList::from_edges(3, &[]);
        let r = wcc(&g, Variant::Serial, 10);
        assert_eq!(r.values, vec![0, 1, 2]);
    }

    #[test]
    fn direction_is_ignored() {
        // 2 -> 0 only: weak connectivity still merges {0, 2}.
        let g = EdgeList::from_edges(3, &[(2, 0)]);
        let r = wcc(&g, Variant::Invec, 10);
        assert_eq!(r.values, vec![0, 1, 0]);
    }

    #[test]
    fn long_chain_converges() {
        let edges: Vec<(i32, i32)> = (0..63).map(|v| (v + 1, v)).collect();
        let g = EdgeList::from_edges(64, &edges);
        for variant in [Variant::Serial, Variant::Invec, Variant::Masked] {
            let r = wcc(&g, variant, 10_000);
            assert!(r.values.iter().all(|&l| l == 0), "{variant}");
        }
    }
}
