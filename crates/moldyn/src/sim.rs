//! The Moldyn simulation driver (Figure 12's experimental setup).
//!
//! Each iteration updates coordinates, evaluates pair forces, and updates
//! velocities. The neighbor list is rebuilt every
//! [`REBUILD_INTERVAL`] iterations; the paper charges that rebuild
//! (plus tiling, which our cell-list construction already performs by
//! emitting pairs in cell order) to all variants, and the grouped variant
//! additionally re-groups after every rebuild.

use std::time::{Duration, Instant};

use invector_core::stats::{DepthHistogram, Utilization};
use invector_kernels::edgemap::EdgeMap;
use invector_kernels::{ExecPolicy, Timings, Variant};

use crate::force::{Forces, PairForces};
use crate::input::{Molecules, CUTOFF};
use crate::neighbor::{build_pairs, PairList};

/// Iterations between neighbor-list rebuilds (the paper's setting).
pub const REBUILD_INTERVAL: u32 = 20;

/// Integration time step (reduced units).
pub const DT: f32 = 0.001;

/// Simulation outcome: final state plus the Figure 12 timing breakdown.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Final molecule state.
    pub molecules: Molecules,
    /// Iterations executed.
    pub iterations: u32,
    /// Phase breakdown (`tiling` = neighbor-list rebuilds, `grouping` =
    /// conflict-free grouping, `compute` = forces + integration).
    pub timings: Timings,
    /// Interaction pairs in the final neighbor list.
    pub num_pairs: usize,
    /// Modeled instruction count of the force evaluations (SIMD
    /// instructions for vectorized variants, the scalar cost model for the
    /// serial baselines).
    pub instructions: u64,
    /// Masked-variant SIMD utilization.
    pub utilization: Option<Utilization>,
    /// In-vector conflict-depth histogram.
    pub depth: Option<DepthHistogram>,
    /// Worker threads used by the force phase (1 = serial driver).
    pub threads: usize,
}

/// Runs `iterations` Moldyn steps with the chosen strategy, starting from
/// `initial`.
///
/// # Panics
///
/// Panics if `initial` is empty.
pub fn simulate(initial: &Molecules, variant: Variant, iterations: u32) -> SimResult {
    simulate_with_policy(initial, variant, iterations, &ExecPolicy::default())
}

/// [`simulate`] with an explicit [`ExecPolicy`]: when `policy.threads > 1`
/// the force phase fans out over the persistent thread pool, with the
/// per-worker strategy chosen by [`Variant::exec_variant`]: the scalar
/// baselines stay scalar, and the vectorized variants (grouped and masked
/// included) run in-vector workers, as every other kernel's engine does.
///
/// # Panics
///
/// Panics if `initial` is empty.
pub fn simulate_with_policy(
    initial: &Molecules,
    variant: Variant,
    iterations: u32,
    policy: &ExecPolicy,
) -> SimResult {
    assert!(!initial.is_empty(), "simulation needs molecules");
    let mut m = initial.clone();
    let n = m.len();
    let mut forces = Forces::zeroed(n);
    let mut rebuild_time = Duration::ZERO;
    let mut compute_time = Duration::ZERO;
    let mut pairs = PairList::default();
    // Strategy and backend resolved once per run.
    let engine = (policy.threads > 1).then_some(policy);
    let mut map = EdgeMap::new(variant, policy.backend.resolve(), engine);
    let instr_before = invector_simd::count::read();

    for iter in 0..iterations {
        // Neighbor list rebuild (the "tiling" bar of Figure 12): cell-list
        // construction already emits pairs in cache-friendly cell order.
        // The grouped variant re-groups the new pair list.
        if iter % REBUILD_INTERVAL == 0 {
            let t = Instant::now();
            pairs = build_pairs(&m, CUTOFF);
            rebuild_time += t.elapsed();
            map.inspect(&PairForces::new(&m, &pairs, CUTOFF), n);
        }

        let t = Instant::now();
        // Coordinate update (regular SIMD: aligned loads/stores, no
        // conflicts — the easy part of the simulation).
        axpy(&mut m.px, &m.vx, DT);
        axpy(&mut m.py, &m.vy, DT);
        axpy(&mut m.pz, &m.vz, DT);
        // Force evaluation.
        forces.clear();
        map.run(&PairForces::new(&m, &pairs, CUTOFF), forces.components_mut());
        // Velocity update (regular SIMD).
        axpy(&mut m.vx, &forces.fx, DT);
        axpy(&mut m.vy, &forces.fy, DT);
        axpy(&mut m.vz, &forces.fz, DT);
        compute_time += t.elapsed();
    }

    let inspector = map.timings();
    SimResult {
        molecules: m,
        iterations,
        timings: Timings { tiling: rebuild_time, compute: compute_time, ..inspector },
        num_pairs: pairs.len(),
        instructions: invector_simd::count::read().wrapping_sub(instr_before),
        utilization: map.utilization(),
        depth: map.depth(),
        threads: map.threads(),
    }
}

/// Vectorized `out[k] += scale * addend[k]` with a scalar tail — the
/// regular (conflict-free) SIMD pattern of the integration phases.
fn axpy(out: &mut [f32], addend: &[f32], scale: f32) {
    use invector_simd::F32x16;
    debug_assert_eq!(out.len(), addend.len());
    let vscale = F32x16::splat(scale);
    let mut k = 0;
    while k + 16 <= out.len() {
        let a = F32x16::load(&out[k..]);
        let b = F32x16::load(&addend[k..]);
        (a + b * vscale).store(&mut out[k..]);
        k += 16;
    }
    for k in k..out.len() {
        out[k] += addend[k] * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::fcc_lattice;

    #[test]
    fn axpy_matches_scalar_including_tail() {
        let mut a: Vec<f32> = (0..37).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..37).map(|i| (i * 2) as f32).collect();
        let mut expect = a.clone();
        for (x, y) in expect.iter_mut().zip(&b) {
            *x += y * 0.5;
        }
        axpy(&mut a, &b, 0.5);
        assert_eq!(a, expect);
    }

    // Cross-variant / parallel trajectory agreement against the serial
    // reference is covered centrally by `tests/registry_golden.rs`; these
    // tests pin determinism and the per-variant phase/stat bookkeeping.

    #[test]
    fn simulation_is_deterministic_serial_and_parallel() {
        let initial = fcc_lattice(3, 14);
        for threads in [1, 4] {
            let policy = ExecPolicy::with_threads(threads);
            let run = || simulate_with_policy(&initial, Variant::Invec, 10, &policy);
            let (a, b) = (run(), run());
            assert_eq!(a.molecules, b.molecules, "threads {threads}: fold must be deterministic");
            assert!(a.depth.expect("depth").invocations() > 0, "threads {threads}");
            if threads > 1 {
                assert!(a.threads > 1, "pool unused");
            }
        }
    }

    #[test]
    fn phase_and_stat_ownership_follow_variant_predicates() {
        let initial = fcc_lattice(2, 17);
        for variant in Variant::ALL {
            let r = simulate(&initial, variant, 5);
            assert!(r.timings.tiling > Duration::ZERO, "{variant}");
            assert_eq!(r.timings.grouping > Duration::ZERO, variant.needs_grouping(), "{variant}");
            assert_eq!(r.utilization.is_some(), variant.records_utilization(), "{variant}");
            assert_eq!(r.depth.is_some(), variant.records_depth(), "{variant}");
        }
    }

    #[test]
    fn lattice_stays_bound_over_short_run() {
        // The FCC lattice is near equilibrium: 20 small-dt steps should not
        // blow molecules far out of the box.
        let initial = fcc_lattice(3, 16);
        let r = simulate(&initial, Variant::Invec, 20);
        let bound = initial.box_size * 1.5;
        assert!(r.molecules.px.iter().all(|&x| (-bound..2.0 * bound).contains(&x)));
    }
}
