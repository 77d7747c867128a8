//! Generic edge-relaxation kernels for wave-frontier algorithms.
//!
//! SSSP, SSWP and WCC share one shape (§2.3): for each active edge
//! `(nx, ny, w)`, compute a candidate from the source value and relax the
//! destination with an associative min/max. This module factors that shape
//! into a [`RelaxRule`] and provides one relaxation kernel per
//! implementation strategy; the drivers in [`crate::wavefront`] iterate them
//! to convergence.

use invector_core::backend::Backend;
use invector_core::masking::PositionFeeder;
use invector_core::ops::ReduceOp;
use invector_core::reduce_alg1_with;
use invector_core::stats::{DepthHistogram, Utilization};
use invector_graph::group::Grouping;
use invector_graph::Frontier;
use invector_simd::{conflict_free_subset, count, F32x16, I32x16, Mask16, SimdElement, SimdVec};

/// One wave-frontier relaxation rule (the per-application plug-in).
pub trait RelaxRule: Copy + Send + Sync + 'static {
    /// Per-vertex value type (distances, widths, labels).
    type Value: SimdElement;
    /// The associative operator that makes in-vector reduction legal.
    type Op: ReduceOp<Self::Value>;

    /// Rule name for harness output.
    const NAME: &'static str;
    /// Whether the rule reads edge weights (WCC does not).
    const USES_WEIGHT: bool;

    /// The value of a vertex no wave has reached yet.
    fn unreached() -> Self::Value;

    /// Candidate value propagated along an edge.
    fn candidate(src_val: Self::Value, weight: f32) -> Self::Value;

    /// `true` if `cand` is strictly better than `current`.
    fn improves(cand: Self::Value, current: Self::Value) -> bool;

    /// Vector candidate computation (one SIMD instruction by default).
    #[inline]
    fn candidate_vec(src: SimdVec<Self::Value, 16>, weight: F32x16) -> SimdVec<Self::Value, 16> {
        count::bump(1);
        let (s, w) = (src.as_array(), weight.as_array());
        SimdVec::from_array(std::array::from_fn(|i| Self::candidate(s[i], w[i])))
    }

    /// Vector improvement test (one SIMD compare by default).
    #[inline]
    fn improves_vec(cand: SimdVec<Self::Value, 16>, current: SimdVec<Self::Value, 16>) -> Mask16 {
        count::bump(1);
        let (c, u) = (cand.as_array(), current.as_array());
        Mask16::from_array(std::array::from_fn(|i| Self::improves(c[i], u[i])))
    }
}

/// Views a `u32` position list as `i32` for SIMD index vectors.
///
/// Edge positions are bounded by the edge count, far below `i32::MAX`.
#[inline]
pub(crate) fn positions_as_i32(positions: &[u32]) -> &[i32] {
    debug_assert!(positions.iter().all(|&p| p <= i32::MAX as u32));
    // SAFETY: u32 and i32 have identical layout; values checked above.
    unsafe { std::slice::from_raw_parts(positions.as_ptr().cast::<i32>(), positions.len()) }
}

/// Modeled scalar cost per relaxed edge (Figure 2's loop body): position
/// and endpoint loads, source value and weight loads, the candidate
/// arithmetic, the compare against the current value.
pub const SERIAL_EDGE_COST: u64 = 8;

/// Extra modeled cost when the relaxation improves: the store plus the
/// frontier insertion.
pub const SERIAL_IMPROVE_COST: u64 = 3;

/// Scalar relaxation over `positions` (the serial baseline).
///
/// `new_vals` and `next` are indexed by destination minus `base`, so a
/// private window over destinations `base..` takes the relaxations of a
/// slice of the stream; `vals` is indexed by the global source id.
#[allow(clippy::too_many_arguments)]
pub fn relax_serial<R: RelaxRule>(
    positions: &[u32],
    src: &[i32],
    dst: &[i32],
    weight: &[f32],
    base: i32,
    vals: &[R::Value],
    new_vals: &mut [R::Value],
    next: &mut Frontier,
) {
    let mut improved = 0u64;
    for &p in positions {
        let p = p as usize;
        let nx = src[p] as usize;
        let ny = dst[p] - base;
        let cand = R::candidate(vals[nx], weight[p]);
        if R::improves(cand, new_vals[ny as usize]) {
            new_vals[ny as usize] = cand;
            next.insert(ny);
            improved += 1;
        }
    }
    count::bump(SERIAL_EDGE_COST * positions.len() as u64 + SERIAL_IMPROVE_COST * improved);
}

/// Gathers the per-edge operands for the active lanes of a position vector.
#[inline]
fn gather_edge<R: RelaxRule>(
    active: Mask16,
    vpos: I32x16,
    src: &[i32],
    dst: &[i32],
    weight: &[f32],
    vals: &[R::Value],
) -> (I32x16, SimdVec<R::Value, 16>, F32x16) {
    let vnx = I32x16::zero().mask_gather(active, src, vpos);
    let vny = I32x16::zero().mask_gather(active, dst, vpos);
    let vw = if R::USES_WEIGHT {
        F32x16::zero().mask_gather(active, weight, vpos)
    } else {
        F32x16::zero()
    };
    let vsrc = SimdVec::<R::Value, 16>::zero().mask_gather(active, vals, vnx);
    (vny, vsrc, vw)
}

/// In-vector-reduction relaxation: 16 edges per vector, conflicts folded
/// with `invec_min`/`invec_max` before one conflict-free masked scatter.
///
/// Destinations are rebased by `base` in-register, as in [`relax_serial`];
/// a zero base emits no rebase.
#[allow(clippy::too_many_arguments)]
pub fn relax_invec<R: RelaxRule>(
    backend: Backend,
    positions: &[u32],
    src: &[i32],
    dst: &[i32],
    weight: &[f32],
    base: i32,
    vals: &[R::Value],
    new_vals: &mut [R::Value],
    next: &mut Frontier,
    depth: &mut DepthHistogram,
) {
    let pos = positions_as_i32(positions);
    let vbase = (base != 0).then(|| I32x16::splat(base));
    let mut j = 0;
    while j < pos.len() {
        let (vpos, active) = I32x16::load_partial(&pos[j..], 0);
        let (vny, vsrc, vw) = gather_edge::<R>(active, vpos, src, dst, weight, vals);
        let vny = vbase.map_or(vny, |vbase| vny - vbase);
        let mut cand = R::candidate_vec(vsrc, vw);
        let (safe, d) = reduce_alg1_with::<R::Value, R::Op, 16>(backend, active, vny, &mut cand);
        depth.record(d);
        let cur = SimdVec::<R::Value, 16>::zero().mask_gather(safe, new_vals, vny);
        let improved = R::improves_vec(cand, cur) & safe;
        cand.mask_scatter(improved, new_vals, vny);
        for lane in improved.iter_set() {
            next.insert(vny.extract(lane));
        }
        j += 16;
    }
}

/// Conflict-masking relaxation (Figure 3): only the conflict-free subset of
/// lanes that need an update commits each round; the rest retry.
#[allow(clippy::too_many_arguments)]
pub fn relax_masked<R: RelaxRule>(
    positions: &[u32],
    src: &[i32],
    dst: &[i32],
    weight: &[f32],
    vals: &[R::Value],
    new_vals: &mut [R::Value],
    next: &mut Frontier,
    util: &mut Utilization,
) {
    let pos = positions_as_i32(positions);
    let mut feeder = PositionFeeder::new(0, pos.len());
    let mut vpos = I32x16::zero();
    let mut active = Mask16::none();
    loop {
        active |= feeder.refill(!active, &mut vpos);
        if active.is_empty() {
            break;
        }
        // vpos indexes the active-position list; dereference to edge ids.
        let vedge = I32x16::zero().mask_gather(active, pos, vpos);
        let (vny, vsrc, vw) = gather_edge::<R>(active, vedge, src, dst, weight, vals);
        let cand = R::candidate_vec(vsrc, vw);
        let cur = SimdVec::<R::Value, 16>::zero().mask_gather(active, new_vals, vny);
        let mtodo = R::improves_vec(cand, cur) & active;
        // Lanes with nothing to write complete immediately.
        let done_quietly = active.and_not(mtodo);
        let safe = conflict_free_subset(mtodo, vny);
        cand.mask_scatter(safe, new_vals, vny);
        for lane in safe.iter_set() {
            next.insert(vny.extract(lane));
        }
        // Utilization counts committing writers only (the paper's measure):
        // lanes whose relaxation was superseded did not do useful work.
        util.record(u64::from(safe.count_ones()), 16);
        active = active.and_not(safe).and_not(done_quietly);
    }
}

/// Relaxes one conflict-free window: `slots` are edge positions (padding
/// slots are masked out of `active`), and within the window all
/// destinations are distinct, so improved lanes scatter unchecked.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn relax_window<R: RelaxRule>(
    slots: &[u32],
    active: Mask16,
    src: &[i32],
    dst: &[i32],
    weight: &[f32],
    vals: &[R::Value],
    new_vals: &mut [R::Value],
    next: &mut Frontier,
) {
    let vpos = I32x16::from_array(std::array::from_fn(|i| slots[i] as i32));
    let (vny, vsrc, vw) = gather_edge::<R>(active, vpos, src, dst, weight, vals);
    let cand = R::candidate_vec(vsrc, vw);
    let cur = SimdVec::<R::Value, 16>::zero().mask_gather(active, new_vals, vny);
    let improved = R::improves_vec(cand, cur) & active;
    cand.mask_scatter(improved, new_vals, vny);
    for lane in improved.iter_set() {
        next.insert(vny.extract(lane));
    }
}

/// Grouped (inspector/executor) relaxation: windows are conflict-free by
/// construction, so improved lanes scatter without any runtime checking.
pub fn relax_grouped<R: RelaxRule>(
    grouping: &Grouping,
    src: &[i32],
    dst: &[i32],
    weight: &[f32],
    vals: &[R::Value],
    new_vals: &mut [R::Value],
    next: &mut Frontier,
) {
    for w in 0..grouping.num_windows() {
        let (slots, maskbits) = grouping.window(w);
        let active = Mask16::from_bits(u32::from(maskbits));
        relax_window::<R>(slots, active, src, dst, weight, vals, new_vals, next);
    }
}

/// SSSP rule: `dis_new[ny] = min(dis_new[ny], dis[nx] + w)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SsspRule;

impl RelaxRule for SsspRule {
    type Value = f32;
    type Op = invector_core::ops::Min;
    const NAME: &'static str = "sssp";
    const USES_WEIGHT: bool = true;

    fn unreached() -> f32 {
        f32::INFINITY
    }
    #[inline]
    fn candidate(src_val: f32, weight: f32) -> f32 {
        src_val + weight
    }
    #[inline]
    fn improves(cand: f32, current: f32) -> bool {
        cand < current
    }
}

/// SSWP rule: `width[ny] = max(width[ny], min(width[nx], w))`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SswpRule;

impl RelaxRule for SswpRule {
    type Value = f32;
    type Op = invector_core::ops::Max;
    const NAME: &'static str = "sswp";
    const USES_WEIGHT: bool = true;

    fn unreached() -> f32 {
        0.0
    }
    #[inline]
    fn candidate(src_val: f32, weight: f32) -> f32 {
        src_val.min(weight)
    }
    #[inline]
    fn improves(cand: f32, current: f32) -> bool {
        cand > current
    }
}

/// BFS rule: hop counts, `depth[ny] = min(depth[ny], depth[nx] + 1)` —
/// the wave-frontier traversal itself, i.e. SSSP on unit weights carried in
/// integer arithmetic (so agreement across variants is exact by
/// construction, not by float luck).
#[derive(Debug, Clone, Copy, Default)]
pub struct BfsRule;

impl RelaxRule for BfsRule {
    type Value = i32;
    type Op = invector_core::ops::Min;
    const NAME: &'static str = "bfs";
    const USES_WEIGHT: bool = false;

    fn unreached() -> i32 {
        i32::MAX
    }
    #[inline]
    fn candidate(src_val: i32, _weight: f32) -> i32 {
        src_val.saturating_add(1)
    }
    #[inline]
    fn improves(cand: i32, current: i32) -> bool {
        cand < current
    }
}

/// WCC rule: propagate the minimum component label along (symmetrized)
/// edges: `label[ny] = min(label[ny], label[nx])`.
#[derive(Debug, Clone, Copy, Default)]
pub struct WccRule;

impl RelaxRule for WccRule {
    type Value = i32;
    type Op = invector_core::ops::Min;
    const NAME: &'static str = "wcc";
    const USES_WEIGHT: bool = false;

    fn unreached() -> i32 {
        i32::MAX
    }
    #[inline]
    fn candidate(src_val: i32, _weight: f32) -> i32 {
        src_val
    }
    #[inline]
    fn improves(cand: i32, current: i32) -> bool {
        cand < current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use invector_graph::group::group_by_key;

    /// Tiny weighted graph: 0 -> 1 (1.0), 0 -> 2 (4.0), 1 -> 2 (1.5), with a
    /// duplicate edge 0 -> 2 (3.0) to force a lane conflict when vectorized.
    fn edges() -> (Vec<i32>, Vec<i32>, Vec<f32>) {
        (vec![0, 0, 1, 0], vec![1, 2, 2, 2], vec![1.0, 4.0, 1.5, 3.0])
    }

    fn run_all_kernels<R: RelaxRule>(
        src: &[i32],
        dst: &[i32],
        weight: &[f32],
        vals: &[R::Value],
        init_new: &[R::Value],
    ) -> Vec<(Vec<R::Value>, Vec<i32>)> {
        let positions: Vec<u32> = (0..src.len() as u32).collect();
        let nv = vals.len();
        let mut outs = Vec::new();

        let mut nv1 = init_new.to_vec();
        let mut f1 = Frontier::new(nv);
        relax_serial::<R>(&positions, src, dst, weight, 0, vals, &mut nv1, &mut f1);
        outs.push((nv1, sorted(f1)));

        let mut nv2 = init_new.to_vec();
        let mut f2 = Frontier::new(nv);
        let mut depth = DepthHistogram::new();
        relax_invec::<R>(
            Backend::Portable,
            &positions,
            src,
            dst,
            weight,
            0,
            vals,
            &mut nv2,
            &mut f2,
            &mut depth,
        );
        outs.push((nv2, sorted(f2)));

        let mut nv3 = init_new.to_vec();
        let mut f3 = Frontier::new(nv);
        let mut util = Utilization::default();
        relax_masked::<R>(&positions, src, dst, weight, vals, &mut nv3, &mut f3, &mut util);
        outs.push((nv3, sorted(f3)));

        let mut nv4 = init_new.to_vec();
        let mut f4 = Frontier::new(nv);
        let grouping = group_by_key(&positions, dst);
        relax_grouped::<R>(&grouping, src, dst, weight, vals, &mut nv4, &mut f4);
        outs.push((nv4, sorted(f4)));

        outs
    }

    fn sorted(f: Frontier) -> Vec<i32> {
        let mut v = f.vertices().to_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn sssp_kernels_agree_on_conflicting_edges() {
        let (src, dst, w) = edges();
        let vals = vec![0.0f32, 1.0, f32::INFINITY];
        let init = vals.clone();
        let outs = run_all_kernels::<SsspRule>(&src, &dst, &w, &vals, &init);
        for (new_vals, frontier) in &outs {
            assert_eq!(new_vals[1], 1.0); // 0+1.0 does not improve existing 1.0? (equal, not strict)
            assert_eq!(new_vals[2], 2.5); // min(4.0, 1.0+1.5, 3.0)
            assert_eq!(frontier, &vec![2]);
        }
    }

    #[test]
    fn sswp_kernels_agree() {
        let (src, dst, w) = edges();
        let vals = vec![f32::INFINITY, 1.0, 0.0];
        let init = vals.clone();
        let outs = run_all_kernels::<SswpRule>(&src, &dst, &w, &vals, &init);
        for (new_vals, frontier) in &outs {
            // Widths into 2: min(inf,4)=4, min(1,1.5)=1, min(inf,3)=3 -> max 4.
            assert_eq!(new_vals[2], 4.0);
            assert_eq!(frontier, &vec![2]);
        }
    }

    #[test]
    fn wcc_kernels_agree() {
        let (src, dst, _w) = edges();
        let w = vec![0.0; 4];
        let vals = vec![0, 1, 2];
        let init = vals.clone();
        let outs = run_all_kernels::<WccRule>(&src, &dst, &w, &vals, &init);
        for (new_vals, frontier) in &outs {
            assert_eq!(new_vals, &vec![0, 0, 0]);
            let mut f = frontier.clone();
            f.dedup();
            assert_eq!(f, vec![1, 2]);
        }
    }

    #[test]
    fn all_kernels_agree_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(77);
        for _ in 0..30 {
            let nv = rng.gen_range(2..40);
            let ne = rng.gen_range(0..200);
            let src: Vec<i32> = (0..ne).map(|_| rng.gen_range(0..nv)).collect();
            let dst: Vec<i32> = (0..ne).map(|_| rng.gen_range(0..nv)).collect();
            let w: Vec<f32> = (0..ne).map(|_| rng.gen_range(0.5..5.0)).collect();
            let vals: Vec<f32> = (0..nv)
                .map(|_| if rng.gen_bool(0.3) { f32::INFINITY } else { rng.gen_range(0.0..10.0) })
                .collect();
            let outs = run_all_kernels::<SsspRule>(&src, &dst, &w, &vals, &vals.clone());
            let (reference, ref_frontier) = &outs[0];
            for (i, (out, frontier)) in outs.iter().enumerate().skip(1) {
                assert_eq!(out, reference, "kernel {i} values diverged");
                assert_eq!(frontier, ref_frontier, "kernel {i} frontier diverged");
            }
        }
    }

    #[test]
    fn masked_utilization_degrades_with_conflicts() {
        let n = 256;
        let src: Vec<i32> = vec![0; n];
        let dst_conflict: Vec<i32> = vec![1; n];
        let dst_spread: Vec<i32> = (0..n as i32).map(|i| 1 + (i % 255)).collect();
        let w: Vec<f32> = (0..n).map(|i| 1.0 + i as f32).collect();
        let vals = vec![0.0f32; 256];
        let positions: Vec<u32> = (0..n as u32).collect();

        let mut util_c = Utilization::default();
        let mut nv = vec![f32::INFINITY; 256];
        let mut f = Frontier::new(256);
        relax_masked::<SsspRule>(
            &positions,
            &src,
            &dst_conflict,
            &w,
            &vals,
            &mut nv,
            &mut f,
            &mut util_c,
        );

        let mut util_s = Utilization::default();
        let mut nv = vec![f32::INFINITY; 256];
        let mut f = Frontier::new(256);
        relax_masked::<SsspRule>(
            &positions,
            &src,
            &dst_spread,
            &w,
            &vals,
            &mut nv,
            &mut f,
            &mut util_s,
        );

        assert!(util_c.ratio() < util_s.ratio(), "{} !< {}", util_c.ratio(), util_s.ratio());
    }

    #[test]
    fn invec_depth_histogram_reflects_conflicts() {
        let src = vec![0i32; 16];
        let dst = vec![3i32; 16];
        let w = vec![1.0f32; 16];
        let vals = vec![0.0f32; 4];
        let mut nv = vec![f32::INFINITY; 4];
        let mut f = Frontier::new(4);
        let mut depth = DepthHistogram::new();
        let positions: Vec<u32> = (0..16).collect();
        relax_invec::<SsspRule>(
            Backend::Portable,
            &positions,
            &src,
            &dst,
            &w,
            0,
            &vals,
            &mut nv,
            &mut f,
            &mut depth,
        );
        assert_eq!(depth.invocations(), 1);
        assert_eq!(depth.mean(), 1.0);
        assert_eq!(nv[3], 1.0);
    }

    #[test]
    fn kernels_honor_non_identity_position_lists() {
        // Regression test: positions select a strict, reordered subset of
        // edges; the masked kernel must dereference positions before
        // gathering edge operands.
        let src = vec![0, 0, 0, 0];
        let dst = vec![1, 2, 3, 1];
        let w = vec![1.0f32, 2.0, 3.0, 4.0];
        let vals = vec![0.0f32, 9.0, 9.0, 9.0];
        let positions = vec![3u32, 2]; // only edges 3 and 2, reversed
        let expect = {
            let mut nv = vals.clone();
            let mut f = Frontier::new(4);
            relax_serial::<SsspRule>(&positions, &src, &dst, &w, 0, &vals, &mut nv, &mut f);
            nv
        };
        assert_eq!(expect, vec![0.0, 4.0, 9.0, 3.0]);

        let mut nv = vals.clone();
        let mut f = Frontier::new(4);
        let mut util = Utilization::default();
        relax_masked::<SsspRule>(&positions, &src, &dst, &w, &vals, &mut nv, &mut f, &mut util);
        assert_eq!(nv, expect);

        let mut nv = vals.clone();
        let mut f = Frontier::new(4);
        let mut depth = DepthHistogram::new();
        relax_invec::<SsspRule>(
            Backend::Portable,
            &positions,
            &src,
            &dst,
            &w,
            0,
            &vals,
            &mut nv,
            &mut f,
            &mut depth,
        );
        assert_eq!(nv, expect);

        let mut nv = vals.clone();
        let mut f = Frontier::new(4);
        let grouping = group_by_key(&positions, &dst);
        relax_grouped::<SsspRule>(&grouping, &src, &dst, &w, &vals, &mut nv, &mut f);
        assert_eq!(nv, expect);
    }

    #[test]
    fn empty_position_list_is_noop() {
        let mut nv = vec![f32::INFINITY; 2];
        let mut f = Frontier::new(2);
        let mut util = Utilization::default();
        relax_masked::<SsspRule>(&[], &[], &[], &[], &[0.0, 0.0], &mut nv, &mut f, &mut util);
        assert!(f.is_empty());
        assert_eq!(util.slots, 0);
    }
}
