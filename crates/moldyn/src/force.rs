//! The Lennard-Jones force kernel as an edge-map lane.
//!
//! The force loop is a *two-target* associative irregular reduction: each
//! interaction pair `(i, j)` adds a 3-D force to molecule `i` and subtracts
//! it from molecule `j`, so conflicts arise within the `i` vector, within
//! the `j` vector, and across them. [`PairForces`] describes one pair; the
//! strategies that resolve the conflicts live in
//! [`invector_kernels::edgemap`].

use invector_kernels::edgemap::{EdgeLane, Lanes, StarvationGuard, Target};
use invector_simd::{F32x16, I32x16, Mask16};

use crate::input::Molecules;
use crate::neighbor::PairList;

/// Per-molecule force accumulators (structure of arrays).
#[derive(Debug, Clone, PartialEq)]
pub struct Forces {
    /// X components.
    pub fx: Vec<f32>,
    /// Y components.
    pub fy: Vec<f32>,
    /// Z components.
    pub fz: Vec<f32>,
}

impl Forces {
    /// Zeroed force arrays for `n` molecules.
    pub fn zeroed(n: usize) -> Self {
        Forces { fx: vec![0.0; n], fy: vec![0.0; n], fz: vec![0.0; n] }
    }

    /// Resets all components to zero (start of a force evaluation).
    pub fn clear(&mut self) {
        self.fx.fill(0.0);
        self.fy.fill(0.0);
        self.fz.fill(0.0);
    }

    /// The three components as the edge-map's target slices.
    pub fn components_mut(&mut self) -> [&mut [f32]; 3] {
        [&mut self.fx, &mut self.fy, &mut self.fz]
    }
}

/// Lennard-Jones force magnitude factor: given `r²`, returns `s` such that
/// the force on `i` is `s · (pos_i - pos_j)` (ε = σ = 1).
#[inline(always)]
fn lj_scalar(r2: f32) -> f32 {
    let sr2 = 1.0 / r2;
    let sr6 = sr2 * sr2 * sr2;
    24.0 * sr6 * (2.0 * sr6 - 1.0) * sr2
}

/// The pair-force lane: the force on `i` from `j`, added to `i` and
/// subtracted from `j`. Pairs farther apart than the cutoff contribute
/// nothing (molecules drift between neighbor-list rebuilds).
#[derive(Debug, Clone, Copy)]
pub struct PairForces<'a> {
    m: &'a Molecules,
    pairs: &'a PairList,
    cutoff2: f32,
}

impl<'a> PairForces<'a> {
    /// The lane over `pairs` of `m` with force cutoff `cutoff`.
    pub fn new(m: &'a Molecules, pairs: &'a PairList, cutoff: f32) -> Self {
        PairForces { m, pairs, cutoff2: cutoff * cutoff }
    }
}

impl EdgeLane<3> for PairForces<'_> {
    const TARGET: Target = Target::Two(StarvationGuard::EmptyAfterFirstRound);
    /// The distance test of one pair: index loads, six coordinate loads,
    /// the r² arithmetic, and the compare.
    const SERIAL_ITEM_COST: u64 = 14;
    /// An in-cutoff pair adds the LJ arithmetic plus twelve force
    /// loads/stores.
    const SERIAL_WRITE_COST: u64 = 22;
    const MAY_SKIP: bool = true;

    fn endpoints(&self) -> (&[i32], &[i32]) {
        (&self.pairs.i, &self.pairs.j)
    }

    #[inline]
    fn scalar(&self, _: usize, a: usize, b: usize) -> Option<[f32; 3]> {
        let m = self.m;
        let dx = m.px[a] - m.px[b];
        let dy = m.py[a] - m.py[b];
        let dz = m.pz[a] - m.pz[b];
        let r2 = dx * dx + dy * dy + dz * dz;
        (r2 <= self.cutoff2 && r2 > 0.0).then(|| {
            let s = lj_scalar(r2);
            [s * dx, s * dy, s * dz]
        })
    }

    #[inline]
    fn vector(&self, active: Mask16, _: Lanes, vi: I32x16, vj: I32x16) -> (Mask16, [F32x16; 3]) {
        let m = self.m;
        let pix = F32x16::zero().mask_gather(active, &m.px, vi);
        let piy = F32x16::zero().mask_gather(active, &m.py, vi);
        let piz = F32x16::zero().mask_gather(active, &m.pz, vi);
        let pjx = F32x16::zero().mask_gather(active, &m.px, vj);
        let pjy = F32x16::zero().mask_gather(active, &m.py, vj);
        let pjz = F32x16::zero().mask_gather(active, &m.pz, vj);
        let dx = pix - pjx;
        let dy = piy - pjy;
        let dz = piz - pjz;
        let r2 = dx * dx + dy * dy + dz * dz;
        let near = r2.simd_le(F32x16::splat(self.cutoff2)) & r2.simd_gt(F32x16::zero()) & active;
        // 1/r2 on near lanes; inactive lanes divide by 1 to stay finite.
        let safe_r2 = r2.blend(near, F32x16::splat(1.0));
        let sr2 = F32x16::splat(1.0) / safe_r2;
        let sr6 = sr2 * sr2 * sr2;
        let s = F32x16::splat(24.0) * sr6 * (sr6 + sr6 - F32x16::splat(1.0)) * sr2;
        (near, [s * dx, s * dy, s * dz])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{fcc_lattice, Molecules, CUTOFF};
    use crate::neighbor::build_pairs;
    use invector_core::backend::Backend;
    use invector_kernels::edgemap::EdgeMap;
    use invector_kernels::Variant;

    /// One single-threaded force evaluation of `variant` on the portable
    /// backend, returning the forces and the operator's statistics.
    fn forces(m: &Molecules, pairs: &PairList, variant: Variant) -> (Forces, EdgeMap) {
        let lane = PairForces::new(m, pairs, CUTOFF);
        let mut map = EdgeMap::new(variant, Backend::Portable, None);
        map.inspect(&lane, m.len());
        let mut f = Forces::zeroed(m.len());
        map.run(&lane, f.components_mut());
        (f, map)
    }

    fn assert_forces_close(a: &Forces, b: &Forces, tol: f32) {
        for (x, y) in
            a.fx.iter().zip(&b.fx).chain(a.fy.iter().zip(&b.fy)).chain(a.fz.iter().zip(&b.fz))
        {
            assert!((x - y).abs() <= tol * (x.abs() + y.abs() + 1.0), "{x} vs {y}");
        }
    }

    fn two_molecules(r: f32) -> (Molecules, PairList) {
        let m = Molecules {
            px: vec![0.0, r],
            py: vec![0.0, 0.0],
            pz: vec![0.0, 0.0],
            vx: vec![0.0; 2],
            vy: vec![0.0; 2],
            vz: vec![0.0; 2],
            box_size: 10.0,
        };
        (m, PairList { i: vec![0], j: vec![1] })
    }

    #[test]
    fn lj_force_is_zero_at_potential_minimum() {
        // Minimum of LJ at r = 2^(1/6).
        let r = 2.0f32.powf(1.0 / 6.0);
        let (m, pairs) = two_molecules(r);
        let (f, _) = forces(&m, &pairs, Variant::Serial);
        assert!(f.fx[0].abs() < 1e-4, "force at minimum: {}", f.fx[0]);
    }

    #[test]
    fn lj_force_is_repulsive_close_and_attractive_far() {
        let (m, pairs) = two_molecules(0.9);
        let (f, _) = forces(&m, &pairs, Variant::Serial);
        assert!(f.fx[0] < 0.0, "molecule 0 pushed away (negative x)");
        assert_eq!(f.fx[0], -f.fx[1], "Newton's third law");

        let (m, pairs) = two_molecules(1.5);
        let (f, _) = forces(&m, &pairs, Variant::Serial);
        assert!(f.fx[0] > 0.0, "molecule 0 pulled toward 1");
    }

    #[test]
    fn pairs_beyond_cutoff_contribute_nothing() {
        let (m, pairs) = two_molecules(CUTOFF + 0.1);
        let (f, _) = forces(&m, &pairs, Variant::Serial);
        assert_eq!(f.fx, vec![0.0, 0.0]);
    }

    #[test]
    fn total_force_is_conserved() {
        let m = fcc_lattice(3, 9);
        let pairs = build_pairs(&m, CUTOFF);
        let (f, _) = forces(&m, &pairs, Variant::Serial);
        let sum_x: f32 = f.fx.iter().sum();
        assert!(sum_x.abs() < 0.5, "net force should vanish, got {sum_x}");
    }

    #[test]
    fn all_variants_match_serial_on_a_lattice() {
        let m = fcc_lattice(3, 11);
        let pairs = build_pairs(&m, CUTOFF);

        let (reference, _) = forces(&m, &pairs, Variant::Serial);

        let (f_invec, map) = forces(&m, &pairs, Variant::Invec);
        assert_forces_close(&f_invec, &reference, 1e-3);
        assert!(map.depth().expect("depth").invocations() > 0);

        let (f_masked, map) = forces(&m, &pairs, Variant::Masked);
        assert_forces_close(&f_masked, &reference, 1e-3);
        let util = map.utilization().expect("utilization");
        assert!(util.ratio() > 0.0 && util.ratio() <= 1.0);

        let (f_grouped, _) = forces(&m, &pairs, Variant::Grouped);
        assert_forces_close(&f_grouped, &reference, 1e-3);
    }

    #[test]
    fn heavy_conflicts_still_correct() {
        // Star topology: molecule 0 interacts with 40 others -> every vector
        // is fully conflicted on the i axis.
        let n = 41;
        let mut m = Molecules {
            px: vec![0.0; n],
            py: vec![0.0; n],
            pz: vec![0.0; n],
            vx: vec![0.0; n],
            vy: vec![0.0; n],
            vz: vec![0.0; n],
            box_size: 100.0,
        };
        for k in 1..n {
            let angle = k as f32;
            m.px[k] = 1.1 * angle.cos();
            m.py[k] = 1.1 * angle.sin();
            m.pz[k] = 0.01 * k as f32;
        }
        let pairs = PairList { i: vec![0; n - 1], j: (1..n as i32).collect() };

        let (reference, _) = forces(&m, &pairs, Variant::Serial);

        let (f_invec, map) = forces(&m, &pairs, Variant::Invec);
        assert_forces_close(&f_invec, &reference, 1e-3);
        let depth = map.depth().expect("depth");
        assert!(depth.mean() > 0.4, "i-axis fully conflicted, mean {}", depth.mean());

        let (f_masked, map) = forces(&m, &pairs, Variant::Masked);
        assert_forces_close(&f_masked, &reference, 1e-3);
        let util = map.utilization().expect("utilization");
        assert!(util.ratio() < 0.5, "conflicted masking utilization {}", util.ratio());
    }

    #[test]
    fn empty_pair_list_is_noop() {
        let m = fcc_lattice(2, 1);
        let (f, _) = forces(&m, &PairList::default(), Variant::Invec);
        assert!(f.fx.iter().all(|&x| x == 0.0));
    }
}
