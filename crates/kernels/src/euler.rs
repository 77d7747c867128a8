//! Edge-based unstructured-grid solver ("Euler", §2.2).
//!
//! The paper lists unstructured-grid solvers like Euler (Huo et al.) among
//! the associative irregular applications: the solver sweeps over mesh
//! *edges*, computes a flux from the two endpoint states, and accumulates
//! it into **both** endpoints with opposite signs — the same two-target
//! reduction pattern as Moldyn, but with a 4-component state vector
//! (density, x/y momentum, energy).
//!
//! The flux function here is a Rusanov-style diffusive exchange rather than
//! a full compressible-flow flux — the published performance question is
//! about the reduction/memory pattern, which is preserved exactly.

use invector_core::backend;
use invector_graph::EdgeList;
use invector_simd::{F32x16, I32x16, Mask16};

use crate::common::{ExecPolicy, Variant};
use crate::edgemap::{EdgeLane, EdgeMap, Lanes, StarvationGuard, Target};

/// Number of conserved components per mesh node.
pub const COMPONENTS: usize = 4;

/// Per-node state: `COMPONENTS` structure-of-arrays fields.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeState {
    /// One array per conserved component.
    pub fields: [Vec<f32>; COMPONENTS],
}

impl NodeState {
    /// A zeroed state over `n` nodes.
    pub fn zeroed(n: usize) -> Self {
        NodeState { fields: std::array::from_fn(|_| vec![0.0; n]) }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.fields[0].len()
    }

    /// `true` when the mesh has no nodes.
    pub fn is_empty(&self) -> bool {
        self.fields[0].is_empty()
    }
}

/// Generates a structured-triangulated `n × n` mesh: nodes on a grid,
/// edges to the right / below / diagonal neighbors (the classic way to get
/// an *unstructured-looking* edge list with irregular reuse).
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn triangle_mesh(n: usize) -> EdgeList {
    assert!(n >= 2, "mesh needs at least 2x2 nodes");
    let id = |r: usize, c: usize| (r * n + c) as i32;
    let mut edges = Vec::new();
    for r in 0..n {
        for c in 0..n {
            if c + 1 < n {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < n {
                edges.push((id(r, c), id(r + 1, c)));
            }
            if r + 1 < n && c + 1 < n {
                edges.push((id(r, c), id(r + 1, c + 1)));
            }
        }
    }
    EdgeList::from_edges(n * n, &edges)
}

/// A smooth initial field: component `c` of node `v` is
/// `sin(v · (c+1) / 7)` — deterministic and non-trivial.
pub fn initial_state(num_nodes: usize) -> NodeState {
    NodeState {
        fields: std::array::from_fn(|c| {
            (0..num_nodes).map(|v| ((v * (c + 1)) as f32 / 7.0).sin()).collect()
        }),
    }
}

/// Diffusive exchange coefficient.
const KAPPA: f32 = 0.25;

/// One edge's flux into `a`, `KAPPA · (state[b] - state[a])`, which `b`
/// loses.
struct Flux<'a> {
    mesh: &'a EdgeList,
    state: &'a NodeState,
}

impl EdgeLane<COMPONENTS> for Flux<'_> {
    const TARGET: Target = Target::Two(StarvationGuard::SecondEmptyRound);
    /// Endpoint loads, 4 state loads per side, 4 flux ops, 8 update
    /// load-add-stores.
    const SERIAL_ITEM_COST: u64 = 26;

    fn endpoints(&self) -> (&[i32], &[i32]) {
        (self.mesh.src(), self.mesh.dst())
    }

    #[inline]
    fn scalar(&self, _: usize, a: usize, b: usize) -> Option<[f32; COMPONENTS]> {
        let f = &self.state.fields;
        Some(std::array::from_fn(|c| KAPPA * (f[c][b] - f[c][a])))
    }

    #[inline]
    fn vector(
        &self,
        active: Mask16,
        _: Lanes,
        va: I32x16,
        vb: I32x16,
    ) -> (Mask16, [F32x16; COMPONENTS]) {
        let kappa = F32x16::splat(KAPPA);
        let flux = std::array::from_fn(|c| {
            let ua = F32x16::zero().mask_gather(active, &self.state.fields[c], va);
            let ub = F32x16::zero().mask_gather(active, &self.state.fields[c], vb);
            kappa * (ub - ua)
        });
        (active, flux)
    }
}

/// Runs `iterations` explicit edge-sweep steps (`state += dt · update`)
/// and returns the final state.
///
/// # Panics
///
/// Panics if `state.len() != mesh.num_vertices()`.
pub fn euler_run(
    mesh: &EdgeList,
    state: &NodeState,
    variant: Variant,
    iterations: u32,
    dt: f32,
) -> NodeState {
    let map = EdgeMap::new(variant, backend::current(), None);
    run(mesh, state, map, iterations, dt).0
}

/// Runs `iterations` explicit edge-sweep steps with every sweep distributed
/// over the execution engine when `policy.threads > 1`: edges are chunked
/// in stream order and each worker accumulates into a private window
/// bounded to the node range its chunk touches, folded in task order. The
/// per-worker strategy follows [`Variant::exec_variant`]. Returns the final
/// state and the number of workers used.
///
/// # Panics
///
/// Panics if `state.len() != mesh.num_vertices()`.
pub fn euler_run_with_policy(
    mesh: &EdgeList,
    state: &NodeState,
    variant: Variant,
    iterations: u32,
    dt: f32,
    policy: &ExecPolicy,
) -> (NodeState, usize) {
    let map =
        EdgeMap::new(variant, policy.backend.resolve(), (policy.threads > 1).then_some(policy));
    run(mesh, state, map, iterations, dt)
}

fn run(
    mesh: &EdgeList,
    state: &NodeState,
    mut map: EdgeMap,
    iterations: u32,
    dt: f32,
) -> (NodeState, usize) {
    assert_eq!(state.len(), mesh.num_vertices(), "state size mismatch");
    let mut state = state.clone();
    let mut update = NodeState::zeroed(state.len());
    map.inspect(&Flux { mesh, state: &state }, state.len());
    for _ in 0..iterations {
        for field in &mut update.fields {
            field.fill(0.0);
        }
        map.run(&Flux { mesh, state: &state }, update.fields.each_mut().map(Vec::as_mut_slice));
        for c in 0..COMPONENTS {
            for (s, u) in state.fields[c].iter_mut().zip(&update.fields[c]) {
                *s += dt * u;
            }
        }
    }
    (state, map.threads())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sweep of `variant` from a zeroed update, returning the update
    /// and the operator's statistics.
    fn sweep(
        mesh: &EdgeList,
        state: &NodeState,
        variant: Variant,
        engine: Option<&ExecPolicy>,
    ) -> (NodeState, EdgeMap) {
        let mut update = NodeState::zeroed(state.len());
        let lane = Flux { mesh, state };
        let mut map = EdgeMap::new(variant, backend::current(), engine);
        map.inspect(&lane, state.len());
        map.run(&lane, update.fields.each_mut().map(Vec::as_mut_slice));
        (update, map)
    }

    fn assert_state_close(a: &NodeState, b: &NodeState, tol: f32) {
        for c in 0..COMPONENTS {
            for (v, (x, y)) in a.fields[c].iter().zip(&b.fields[c]).enumerate() {
                assert!(
                    (x - y).abs() <= tol * (x.abs() + y.abs() + 1e-3),
                    "component {c} node {v}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn mesh_has_expected_shape() {
        let mesh = triangle_mesh(4);
        assert_eq!(mesh.num_vertices(), 16);
        // 12 horizontal + 12 vertical + 9 diagonal edges.
        assert_eq!(mesh.num_edges(), 33);
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn degenerate_mesh_rejected() {
        let _ = triangle_mesh(1);
    }

    #[test]
    fn flux_conserves_every_component() {
        // Diffusive exchange moves mass between nodes, never creates it.
        let mesh = triangle_mesh(6);
        let state = initial_state(36);
        let (update, _) = sweep(&mesh, &state, Variant::Serial, None);
        for c in 0..COMPONENTS {
            let net: f32 = update.fields[c].iter().sum();
            assert!(net.abs() < 1e-4, "component {c} net {net}");
        }
    }

    #[test]
    fn all_variants_agree_on_one_sweep() {
        let mesh = triangle_mesh(8);
        let state = initial_state(64);
        let (reference, _) = sweep(&mesh, &state, Variant::Serial, None);
        for variant in Variant::ALL {
            let (update, map) = sweep(&mesh, &state, variant, None);
            assert_state_close(&update, &reference, 1e-3);
            match variant {
                Variant::Masked => assert!(map.utilization().expect("util").slots > 0),
                Variant::Invec => assert!(map.depth().expect("depth").invocations() > 0),
                _ => {}
            }
        }
    }

    #[test]
    fn multi_step_runs_agree_and_diffuse() {
        let mesh = triangle_mesh(6);
        let state = initial_state(36);
        let serial = euler_run(&mesh, &state, Variant::Serial, 10, 0.05);
        for variant in [Variant::Invec, Variant::Masked, Variant::Grouped] {
            let got = euler_run(&mesh, &state, variant, 10, 0.05);
            assert_state_close(&got, &serial, 2e-3);
        }
        // Diffusion shrinks the field's variance.
        let var = |f: &[f32]| {
            let mean: f32 = f.iter().sum::<f32>() / f.len() as f32;
            f.iter().map(|x| (x - mean).powi(2)).sum::<f32>()
        };
        assert!(var(&serial.fields[0]) < var(&state.fields[0]));
    }

    #[cfg(feature = "count")]
    #[test]
    fn invec_cheaper_than_masked_in_model() {
        let mesh = triangle_mesh(24);
        let state = initial_state(mesh.num_vertices());
        invector_simd::count::reset();
        sweep(&mesh, &state, Variant::Invec, None);
        let invec_cost = invector_simd::count::take();
        sweep(&mesh, &state, Variant::Masked, None);
        let masked_cost = invector_simd::count::take();
        assert!(invec_cost < masked_cost, "{invec_cost} !< {masked_cost}");
    }

    #[test]
    fn parallel_sweeps_agree_with_serial_across_thread_counts() {
        let mesh = triangle_mesh(10);
        let state = initial_state(100);
        let (reference, _) = sweep(&mesh, &state, Variant::Serial, None);
        for threads in [2, 3, 8] {
            for variant in [Variant::Serial, Variant::Invec] {
                let policy = ExecPolicy::with_threads(threads);
                let (update, map) = sweep(&mesh, &state, variant, Some(&policy));
                assert_state_close(&update, &reference, 1e-3);
                assert!(map.threads() > 1, "{variant} {threads} threads");
                assert_eq!(map.depth().is_some(), variant == Variant::Invec);
            }
        }
    }

    #[test]
    fn parallel_multi_step_run_is_deterministic_and_tracks_serial() {
        let mesh = triangle_mesh(8);
        let state = initial_state(64);
        let serial = euler_run(&mesh, &state, Variant::Serial, 10, 0.05);
        let policy = ExecPolicy::with_threads(4);
        let (par, threads) =
            euler_run_with_policy(&mesh, &state, Variant::Invec, 10, 0.05, &policy);
        assert!(threads > 1);
        assert_state_close(&par, &serial, 2e-3);
        // Fixed thread count, fold in task order: reruns are bit-identical.
        let (again, _) = euler_run_with_policy(&mesh, &state, Variant::Invec, 10, 0.05, &policy);
        assert_eq!(par, again);
    }

    #[test]
    fn grid_edges_conflict_heavily_in_vectors() {
        // Consecutive mesh edges share endpoints: the invec depth must be
        // substantial (this is why the app class needs conflict handling).
        let mesh = triangle_mesh(16);
        let state = initial_state(mesh.num_vertices());
        let (_, map) = sweep(&mesh, &state, Variant::Invec, None);
        assert!(map.depth().expect("depth").mean() > 1.0);
    }
}
