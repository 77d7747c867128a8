//! Differential tests: every native backend against the portable software
//! model.
//!
//! Two layers are exercised:
//!
//! 1. **Dispatch layer** (always compiled, every host): the `_with`
//!    entry points called with an explicit native [`Backend`] must produce
//!    results *bitwise identical* to the portable model **at the backend's
//!    lane width** — masks, conflict depths, lane contents, accumulation
//!    targets, adaptive decisions, and every reported statistic. AVX-512 is
//!    compared against the 16-lane portable model, AVX2 against 8 lanes,
//!    NEON against 4. Backends the host lacks are skipped (the dispatch
//!    comparison then holds trivially for the per-vector APIs, which fall
//!    back to portable), so the suite passes everywhere with zero failures;
//!    `available_backends_are_reported` logs what actually ran.
//! 2. **Raw primitives** (`x86_64` only, skipped at runtime when the CPU
//!    lacks AVX-512): every `unsafe` entry point of
//!    `invector_simd::arch::avx512` compared against its portable counterpart
//!    across random index distributions, conflict densities, and masks.

use proptest::prelude::*;

use invector::core::backend::Backend;
use invector::core::invec::{
    reduce_alg1, reduce_alg1_arr, reduce_alg1_arr_with, reduce_alg1_with, reduce_alg2,
    reduce_alg2_with, AuxArray,
};
use invector::core::ops::{Max, Min, Sum};
use invector::core::{
    adaptive_accumulate_n, adaptive_accumulate_with, invec_accumulate, invec_accumulate_n,
    invec_accumulate_with, AdaptiveReducer, ReduceOp,
};
use invector::simd::arch::avx512;
use invector::simd::{I32x16, Mask16, SimdVec};

/// The native backends this host can actually execute; unavailable ones are
/// skipped (and logged by `available_backends_are_reported`).
fn native_backends() -> Vec<Backend> {
    [Backend::Avx512, Backend::Avx2, Backend::Neon].into_iter().filter(|b| b.available()).collect()
}

/// Not an assertion — a log line so CI output records which backends the
/// differential suite exercised and which it skipped on this host.
#[test]
fn available_backends_are_reported() {
    for b in [Backend::Avx512, Backend::Avx2, Backend::Neon] {
        if b.available() {
            eprintln!("differential suite: backend {} available, testing", b.name());
        } else {
            eprintln!(
                "differential suite: backend {} unavailable on this host, skipping",
                b.name()
            );
        }
    }
}

/// A 16-lane index vector over a small domain (dense conflicts) plus an
/// arbitrary active mask.
fn dense_case() -> impl Strategy<Value = ([i32; 16], u32)> {
    (prop::array::uniform16(0..6i32), 0u32..=0xFFFF)
}

/// A mostly conflict-free index vector (the graph-workload regime, D1 ≈ 0).
fn sparse_case() -> impl Strategy<Value = ([i32; 16], u32)> {
    (prop::array::uniform16(0..500i32), 0u32..=0xFFFF)
}

/// A whole accumulation stream: (index, value) pairs over a 24-slot target.
fn stream() -> impl Strategy<Value = Vec<(i32, i32)>> {
    prop::collection::vec((0..24i32, -100..100i32), 0..97)
}

/// Non-trivial initial target contents: regression guard for merge folds
/// seeded with the load-fill value instead of the operator identity (which
/// zeros would mask).
fn init_i32(len: usize) -> Vec<i32> {
    (0..len).map(|k| (k as i32 % 7) - 3).collect()
}

fn init_f32(len: usize) -> Vec<f32> {
    init_i32(len).into_iter().map(|v| v as f32 * 0.25).collect()
}

/// Bit-pattern of one lane, so the type-generic comparisons below are
/// exact for floats (`-0.0` ≠ `0.0`, NaN payloads compared) and integers.
trait LaneBits: Copy {
    fn lane_bits(self) -> u64;
}

impl LaneBits for f32 {
    fn lane_bits(self) -> u64 {
        self.to_bits() as u64
    }
}

impl LaneBits for i32 {
    fn lane_bits(self) -> u64 {
        self as u32 as u64
    }
}

fn assert_f32_lanes_eq(a: &SimdVec<f32, 16>, b: &SimdVec<f32, 16>) {
    for l in 0..16 {
        assert_eq!(a.extract(l).to_bits(), b.extract(l).to_bits(), "lane {l}");
    }
}

/// Portable vs explicit-AVX-512 `reduce_alg1_with` on identical inputs
/// (the per-vector 16-lane API only accelerates under AVX-512).
fn check_alg1_f32<Op: ReduceOp<f32>>(idx: [i32; 16], mask: u32, data: [f32; 16]) {
    let active = Mask16::from_bits(mask);
    let vidx = I32x16::from_array(idx);
    let mut portable = SimdVec::from_array(data);
    let mut nat = SimdVec::from_array(data);
    let (mp, dp) = reduce_alg1::<f32, Op, 16>(active, vidx, &mut portable);
    let (mn, dn) = reduce_alg1_with::<f32, Op, 16>(Backend::Avx512, active, vidx, &mut nat);
    assert_eq!(mp.bits(), mn.bits(), "safe mask");
    assert_eq!(dp, dn, "conflict depth D1");
    assert_f32_lanes_eq(&portable, &nat);
}

fn check_alg1_i32<Op: ReduceOp<i32>>(idx: [i32; 16], mask: u32, data: [i32; 16]) {
    let active = Mask16::from_bits(mask);
    let vidx = I32x16::from_array(idx);
    let mut portable = SimdVec::from_array(data);
    let mut nat = SimdVec::from_array(data);
    let (mp, dp) = reduce_alg1::<i32, Op, 16>(active, vidx, &mut portable);
    let (mn, dn) = reduce_alg1_with::<i32, Op, 16>(Backend::Avx512, active, vidx, &mut nat);
    assert_eq!(mp.bits(), mn.bits(), "safe mask");
    assert_eq!(dp, dn, "conflict depth D1");
    for l in 0..16 {
        assert_eq!(portable.extract(l), nat.extract(l), "lane {l}");
    }
}

/// Portable-at-matching-width vs native whole-stream accumulation (fused
/// drivers): results *and statistics* are width-relative, so each backend
/// compares against `invec_accumulate_n` at its own lane count.
fn portable_reference_f32<Op: ReduceOp<f32>>(
    lanes: usize,
    target: &mut [f32],
    idx: &[i32],
    vals: &[f32],
) -> invector::core::InvecStats {
    match lanes {
        4 => invec_accumulate_n::<f32, Op, 4>(target, idx, vals),
        8 => invec_accumulate_n::<f32, Op, 8>(target, idx, vals),
        _ => invec_accumulate_n::<f32, Op, 16>(target, idx, vals),
    }
}

fn portable_reference_i32<Op: ReduceOp<i32>>(
    lanes: usize,
    target: &mut [i32],
    idx: &[i32],
    vals: &[i32],
) -> invector::core::InvecStats {
    match lanes {
        4 => invec_accumulate_n::<i32, Op, 4>(target, idx, vals),
        8 => invec_accumulate_n::<i32, Op, 8>(target, idx, vals),
        _ => invec_accumulate_n::<i32, Op, 16>(target, idx, vals),
    }
}

fn check_accumulate_f32<Op: ReduceOp<f32>>(backend: Backend, items: &[(i32, i32)]) {
    let idx: Vec<i32> = items.iter().map(|&(i, _)| i).collect();
    let vals: Vec<f32> = items.iter().map(|&(_, v)| v as f32 * 0.5).collect();
    let mut portable = init_f32(24);
    let mut nat = portable.clone();
    let sp = portable_reference_f32::<Op>(backend.lanes(), &mut portable, &idx, &vals);
    let sn = invec_accumulate_with::<f32, Op>(backend, &mut nat, &idx, &vals);
    assert_eq!(sp, sn, "{}: vector count / depth histogram", backend.name());
    for (k, (a, b)) in portable.iter().zip(&nat).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{}: slot {k}", backend.name());
    }
}

fn check_accumulate_i32<Op: ReduceOp<i32>>(backend: Backend, items: &[(i32, i32)]) {
    let idx: Vec<i32> = items.iter().map(|&(i, _)| i).collect();
    let vals: Vec<i32> = items.iter().map(|&(_, v)| v).collect();
    let mut portable = init_i32(24);
    let mut nat = portable.clone();
    let sp = portable_reference_i32::<Op>(backend.lanes(), &mut portable, &idx, &vals);
    let sn = invec_accumulate_with::<i32, Op>(backend, &mut nat, &idx, &vals);
    assert_eq!(sp, sn, "{}: vector count / depth histogram", backend.name());
    assert_eq!(portable, nat, "{}: target contents", backend.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn alg1_dispatch_is_bitwise_identical_across_backends(
        (idx, mask) in dense_case(),
        raw in prop::array::uniform16(-100..100i32),
    ) {
        let fdata: [f32; 16] = raw.map(|v| v as f32 * 0.25);
        check_alg1_f32::<Sum>(idx, mask, fdata);
        check_alg1_f32::<Min>(idx, mask, fdata);
        check_alg1_f32::<Max>(idx, mask, fdata);
        check_alg1_i32::<Sum>(idx, mask, raw);
        check_alg1_i32::<Min>(idx, mask, raw);
        check_alg1_i32::<Max>(idx, mask, raw);
    }

    #[test]
    fn alg1_dispatch_agrees_on_sparse_indices(
        (idx, mask) in sparse_case(),
        raw in prop::array::uniform16(-100..100i32),
    ) {
        check_alg1_f32::<Sum>(idx, mask, raw.map(|v| v as f32 * 0.25));
        check_alg1_i32::<Min>(idx, mask, raw);
    }

    #[test]
    fn alg1_arr_dispatch_is_bitwise_identical_across_backends(
        (idx, mask) in dense_case(),
        raw in prop::array::uniform16(-100..100i32),
    ) {
        let active = Mask16::from_bits(mask);
        let vidx = I32x16::from_array(idx);
        let comps: [SimdVec<f32, 16>; 3] = std::array::from_fn(|c| {
            SimdVec::from_array(raw.map(|v| (v + c as i32) as f32 * 0.25))
        });
        let mut portable = comps;
        let mut nat = comps;
        let (mp, dp) = reduce_alg1_arr::<f32, Sum, 3, 16>(active, vidx, &mut portable);
        let (mn, dn) =
            reduce_alg1_arr_with::<f32, Sum, 3, 16>(Backend::Avx512, active, vidx, &mut nat);
        prop_assert_eq!(mp.bits(), mn.bits());
        prop_assert_eq!(dp, dn);
        for c in 0..3 {
            assert_f32_lanes_eq(&portable[c], &nat[c]);
        }
    }

    #[test]
    fn alg2_dispatch_is_bitwise_identical_across_backends(
        (idx, mask) in dense_case(),
        raw in prop::array::uniform16(-100..100i32),
    ) {
        let active = Mask16::from_bits(mask);
        let vidx = I32x16::from_array(idx);
        let data: [f32; 16] = raw.map(|v| v as f32 * 0.25);
        let mut portable = SimdVec::from_array(data);
        let mut nat = SimdVec::from_array(data);
        let mut aux_p = AuxArray::<f32, Sum>::new(8);
        let mut aux_n = AuxArray::<f32, Sum>::new(8);
        let (mp, dp) = reduce_alg2::<f32, Sum, 16>(active, vidx, &mut portable, &mut aux_p);
        let (mn, dn) =
            reduce_alg2_with::<f32, Sum, 16>(Backend::Avx512, active, vidx, &mut nat, &mut aux_n);
        prop_assert_eq!(mp.bits(), mn.bits(), "main-target mask");
        prop_assert_eq!(dp, dn, "conflict depth D2");
        assert_f32_lanes_eq(&portable, &nat);
        prop_assert_eq!(aux_p.touched(), aux_n.touched(), "shadow slots touched");
        let mut tp = init_f32(8);
        let mut tn = tp.clone();
        aux_p.merge_into(&mut tp);
        aux_n.merge_into(&mut tn);
        for (k, (a, b)) in tp.iter().zip(&tn).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "merged slot {}", k);
        }
    }

    #[test]
    fn fused_accumulate_dispatch_matches_portable_driver(items in stream()) {
        for backend in native_backends() {
            check_accumulate_f32::<Sum>(backend, &items);
            check_accumulate_f32::<Min>(backend, &items);
            check_accumulate_f32::<Max>(backend, &items);
            check_accumulate_i32::<Sum>(backend, &items);
            check_accumulate_i32::<Min>(backend, &items);
            check_accumulate_i32::<Max>(backend, &items);
        }
    }

    // Satellite: AVX2's *emulated* conflict detection (broadcast/compare
    // sweep, no `vpconflictd`) must agree with the portable conflict model
    // on adversarial duplicate-index streams — dense duplicates, negative
    // indices, extreme values, any active mask.
    #[test]
    fn avx2_emulated_conflict_detection_matches_portable_model(
        dense in prop::array::uniform16(-3..5i32),
        extremes in 0u32..=0xFF,
        mask in 0u32..=0xFF,
    ) {
        use invector::simd::{conflict_free_subset, Avx2, Isa, Mask};
        if !Backend::Avx2.available() {
            return Ok(()); // logged by available_backends_are_reported
        }
        // 8 lanes of dense duplicates and negatives, with extreme values
        // (i32::MIN / i32::MAX — poison for sentinel-based emulations)
        // injected per the `extremes` bitmask.
        let idx: [i32; 8] = std::array::from_fn(|l| {
            if extremes & (1 << l) != 0 {
                if l % 2 == 0 { i32::MIN } else { i32::MAX }
            } else {
                dense[l]
            }
        });
        // SAFETY: availability checked above; idx has exactly 8 lanes and
        // the primitive touches no memory.
        let got = unsafe { Avx2::conflict_free_subset(mask, &idx) };
        let expect =
            conflict_free_subset(Mask::<8>::from_bits(mask), SimdVec::<i32, 8>::from_array(idx));
        prop_assert_eq!(got, expect.bits(), "idx {:?} mask {:#x}", idx, mask);
    }

    // Satellite: adaptive algorithm selection and its statistics are
    // backend-invariant at matching lane width — each backend's adaptive
    // loop reports the same per-vector depths as the portable model at
    // that width, so warm-up, the Alg1/Alg2 decision, and every histogram
    // bucket must agree.
    #[test]
    fn adaptive_selection_and_stats_are_backend_invariant(
        items in stream(),
        dense in any::<bool>(),
    ) {
        let idx: Vec<i32> = items
            .iter()
            .map(|&(i, _)| if dense { i % 3 } else { i })
            .collect();
        let vals: Vec<f32> = items.iter().map(|&(_, v)| v as f32 * 0.5).collect();
        for backend in native_backends() {
            let mut tp = init_f32(24);
            let mut tn = tp.clone();
            let sp = match backend.lanes() {
                4 => adaptive_accumulate_n::<f32, Sum, 4>(&mut tp, &idx, &vals),
                8 => adaptive_accumulate_n::<f32, Sum, 8>(&mut tp, &idx, &vals),
                _ => adaptive_accumulate_n::<f32, Sum, 16>(&mut tp, &idx, &vals),
            };
            let sn = adaptive_accumulate_with::<f32, Sum>(backend, &mut tn, &idx, &vals);
            prop_assert_eq!(sp, sn, "{}: vectors + depth histogram", backend.name());
            for (k, (a, b)) in tp.iter().zip(&tn).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{}: slot {}", backend.name(), k);
            }
        }
    }

    #[test]
    fn adaptive_reducer_decides_identically_in_lockstep(
        items in stream(),
        dense in any::<bool>(),
    ) {
        let mut rp = AdaptiveReducer::<f32, Sum>::with_warmup(24, 2);
        let mut rn = AdaptiveReducer::<f32, Sum>::with_warmup(24, 2);
        let mut tp = init_f32(24);
        let mut tn = tp.clone();
        let mut j = 0;
        while j < items.len() {
            let chunk = &items[j..items.len().min(j + 16)];
            let idx: Vec<i32> = chunk
                .iter()
                .map(|&(i, _)| if dense { i % 3 } else { i })
                .collect();
            let vals: Vec<f32> = chunk.iter().map(|&(_, v)| v as f32 * 0.5).collect();
            let (vidx, active) = I32x16::load_partial(&idx, 0);
            let (vp0, _) = SimdVec::<f32, 16>::load_partial(&vals, 0.0);
            let mut vp = vp0;
            let mut vn = vp0;
            let sp = rp.reduce_with(Backend::Portable, active, vidx, &mut vp);
            let sn = rn.reduce_with(Backend::Avx512, active, vidx, &mut vn);
            prop_assert_eq!(sp.bits(), sn.bits(), "safe mask");
            assert_f32_lanes_eq(&vp, &vn);
            prop_assert_eq!(rp.algorithm(), rn.algorithm(), "algorithm decision");
            let old_p = SimdVec::<f32, 16>::zero().mask_gather(sp, &tp, vidx);
            Sum::combine_vec(old_p, vp).mask_scatter(sp, &mut tp, vidx);
            let old_n = SimdVec::<f32, 16>::zero().mask_gather(sn, &tn, vidx);
            Sum::combine_vec(old_n, vn).mask_scatter(sn, &mut tn, vidx);
            j += 16;
        }
        prop_assert_eq!(rp.depth_stats(), rn.depth_stats(), "depth histograms");
        rp.finish(&mut tp);
        rn.finish(&mut tn);
        for (k, (a, b)) in tp.iter().zip(&tn).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "slot {}", k);
        }
    }
}

/// Kernel-level backend parity: the Moldyn force kernel (multi-component
/// Algorithm 1) produces bitwise-identical forces and identical depth
/// histograms whichever backend executes the reduction.
#[test]
fn moldyn_forces_are_bitwise_identical_across_backends() {
    use invector::kernels::edgemap::EdgeMap;
    use invector::kernels::Variant;
    use invector::moldyn::force::{Forces, PairForces};
    use invector::moldyn::input::fcc_lattice;
    use invector::moldyn::neighbor::build_pairs;

    let m = fcc_lattice(3, 7);
    let pairs = build_pairs(&m, 3.0);
    let lane = PairForces::new(&m, &pairs, 3.0);
    let invec_forces = |backend: Backend| {
        let mut map = EdgeMap::new(Variant::Invec, backend, None);
        map.inspect(&lane, m.len());
        let mut f = Forces::zeroed(m.len());
        map.run(&lane, f.components_mut());
        (f, map.depth().expect("in-vector depth"))
    };
    let (fp, dp) = invec_forces(Backend::Portable);
    // The Moldyn kernel runs the per-vector 16-lane API, which accelerates
    // under AVX-512 and runs portable under the narrower ISAs — bitwise
    // parity must hold for every backend either way.
    for backend in native_backends() {
        let (fn_, dn) = invec_forces(backend);
        assert_eq!(dp, dn, "{}: depth histograms", backend.name());
        for (axis, (a, b)) in
            [(&fp.fx, &fn_.fx), (&fp.fy, &fn_.fy), (&fp.fz, &fn_.fz)].into_iter().enumerate()
        {
            for (k, (x, y)) in a.iter().zip(b).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{}: axis {axis} molecule {k}",
                    backend.name()
                );
            }
        }
    }
}

/// Whole-simulation backend parity through the `ExecPolicy` plumbing: same
/// trajectory bitwise, same depth statistics, same utilization numbers.
#[test]
fn simulation_policy_backends_agree_on_trajectory_and_stats() {
    use invector::core::BackendChoice;
    use invector::kernels::{ExecPolicy, Variant};
    use invector::moldyn::input::fcc_lattice;
    use invector::moldyn::sim::simulate_with_policy;

    let initial = fcc_lattice(2, 19);
    let portable = ExecPolicy { backend: BackendChoice::Portable, ..ExecPolicy::default() };
    let nat = ExecPolicy { backend: BackendChoice::Auto, ..ExecPolicy::default() };
    let rp = simulate_with_policy(&initial, Variant::Invec, 8, &portable);
    let rn = simulate_with_policy(&initial, Variant::Invec, 8, &nat);
    assert_eq!(rp.molecules, rn.molecules, "trajectories must match bitwise");
    assert_eq!(rp.depth, rn.depth, "depth histograms");
    let mp = simulate_with_policy(&initial, Variant::Masked, 8, &portable);
    let mn = simulate_with_policy(&initial, Variant::Masked, 8, &nat);
    assert_eq!(mp.utilization, mn.utilization, "utilization numbers");
}

/// Raw-primitive differentials: only meaningful (and only compiled) on
/// `x86_64`; each test skips with a notice when the CPU lacks AVX-512F/CD.
#[cfg(target_arch = "x86_64")]
mod raw {
    use super::*;
    use invector::simd::{conflict_detect, conflict_free_subset};

    macro_rules! skip_without_avx512 {
        () => {
            if !avx512::available() {
                eprintln!("skipping raw native differential: AVX-512F/CD not available");
                return Ok(());
            }
        };
    }

    /// Runs one raw invec primitive and compares it against the portable
    /// `reduce_alg1` for the same `(T, Op)`.
    macro_rules! check_raw_invec {
        ($native:path, $t:ty, $op:ty, $conv:expr, $idx:expr, $mask:expr, $raw:expr) => {{
            let data: [$t; 16] = $raw.map($conv);
            let active = Mask16::from_bits($mask);
            let mut portable = SimdVec::from_array(data);
            let (mp, dp) =
                reduce_alg1::<$t, $op, 16>(active, I32x16::from_array($idx), &mut portable);
            let mut nat = data;
            // SAFETY: availability checked by the caller; the primitive
            // touches no memory beyond `nat`.
            let (mn, dn) = unsafe { $native($mask as u16, $idx, &mut nat) };
            prop_assert_eq!(mp.bits() as u16, mn, "safe mask");
            prop_assert_eq!(dp, dn, "conflict depth");
            for l in 0..16 {
                prop_assert_eq!(portable.extract(l).lane_bits(), nat[l].lane_bits(), "lane {}", l);
            }
        }};
    }

    /// Runs one raw fused whole-stream driver and compares target, vector
    /// count, and depth buckets against the portable `invec_accumulate`.
    macro_rules! check_raw_driver {
        ($native:path, $t:ty, $op:ty, $conv:expr, $items:expr, $init:path) => {{
            let idx: Vec<i32> = $items.iter().map(|&(i, _)| i).collect();
            let vals: Vec<$t> = $items.iter().map(|&(_, v)| ($conv)(v)).collect();
            let mut portable = $init(24);
            let mut nat = portable.clone();
            let stats = invec_accumulate::<$t, $op>(&mut portable, &idx, &vals);
            let mut buckets = [0u64; 17];
            // SAFETY: availability checked by the caller; indices are in
            // `0..24` by construction and lengths match.
            let vectors = unsafe { $native(&mut nat, &idx, &vals, &mut buckets) };
            prop_assert_eq!(stats.vectors, vectors, "vector iterations");
            for d in 0..17 {
                prop_assert_eq!(stats.depth.bucket(d), buckets[d as usize], "depth {}", d);
            }
            for (k, (a, b)) in portable.iter().zip(&nat).enumerate() {
                prop_assert_eq!(a.lane_bits(), b.lane_bits(), "slot {}", k);
            }
        }};
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn raw_conflict_and_subset_match_portable((idx, mask) in dense_case()) {
            skip_without_avx512!();
            // SAFETY: availability checked above; register-only.
            let c = unsafe { avx512::conflict_i32(idx) };
            let model = conflict_detect(I32x16::from_array(idx));
            for (i, row) in c.iter().enumerate() {
                prop_assert_eq!(*row, model.extract(i), "conflict row {}", i);
            }
            // SAFETY: as above.
            let subset = unsafe { avx512::conflict_free_subset_u16(mask as u16, idx) };
            let expect = conflict_free_subset(Mask16::from_bits(mask), I32x16::from_array(idx));
            prop_assert_eq!(subset, expect.bits() as u16);
        }

        #[test]
        fn raw_invec_primitives_match_portable_model(
            (idx, mask) in dense_case(),
            raw in prop::array::uniform16(-100..100i32),
        ) {
            skip_without_avx512!();
            check_raw_invec!(avx512::invec_add_f32, f32, Sum, |v| v as f32 * 0.25, idx, mask, raw);
            check_raw_invec!(avx512::invec_min_f32, f32, Min, |v| v as f32 * 0.25, idx, mask, raw);
            check_raw_invec!(avx512::invec_max_f32, f32, Max, |v| v as f32 * 0.25, idx, mask, raw);
            check_raw_invec!(avx512::invec_add_i32, i32, Sum, |v| v, idx, mask, raw);
            check_raw_invec!(avx512::invec_min_i32, i32, Min, |v| v, idx, mask, raw);
            check_raw_invec!(avx512::invec_max_i32, i32, Max, |v| v, idx, mask, raw);
        }

        #[test]
        fn raw_invec_arr_matches_portable_model(
            (idx, mask) in dense_case(),
            raw in prop::array::uniform16(-100..100i32),
        ) {
            skip_without_avx512!();
            let active = Mask16::from_bits(mask);
            let comps: [[f32; 16]; 3] =
                std::array::from_fn(|c| raw.map(|v| (v + c as i32) as f32 * 0.25));
            let mut portable: [SimdVec<f32, 16>; 3] = comps.map(SimdVec::from_array);
            let (mp, dp) =
                reduce_alg1_arr::<f32, Sum, 3, 16>(active, I32x16::from_array(idx), &mut portable);
            let mut nat = comps;
            // SAFETY: availability checked above; no memory beyond `nat`.
            let (mn, dn) = unsafe { avx512::invec_add_arr_f32(mask as u16, idx, &mut nat) };
            prop_assert_eq!(mp.bits() as u16, mn);
            prop_assert_eq!(dp, dn);
            for (c, (p, n)) in portable.iter().zip(&nat).enumerate() {
                for (l, lane) in n.iter().enumerate() {
                    prop_assert_eq!(
                        p.extract(l).to_bits(),
                        lane.to_bits(),
                        "component {} lane {}",
                        c,
                        l
                    );
                }
            }
        }

        #[test]
        fn raw_gather_scatter_match_scalar_reference(
            idx in prop::array::uniform16(0..32i32),
            raw in prop::array::uniform16(-100..100i32),
            mask in 0u32..=0xFFFF,
        ) {
            skip_without_avx512!();
            let basef: Vec<f32> = (0..32).map(|k| k as f32 * 1.5 - 7.0).collect();
            let basei: Vec<i32> = (0..32).map(|k| k * 3 - 11).collect();
            // SAFETY: availability checked above; every index is in 0..32.
            let gf = unsafe { avx512::gather_f32(&basef, idx) };
            let gi = unsafe { avx512::gather_i32(&basei, idx) };
            for l in 0..16 {
                prop_assert_eq!(gf[l].to_bits(), basef[idx[l] as usize].to_bits());
                prop_assert_eq!(gi[l], basei[idx[l] as usize]);
            }
            // Scatter through a conflict-free (distinct-index) lane subset.
            // SAFETY: as above.
            let safe = unsafe { avx512::conflict_free_subset_u16(mask as u16, idx) };
            let dataf: [f32; 16] = raw.map(|v| v as f32 * 0.5);
            let mut outf = basef.clone();
            let mut outi = basei.clone();
            // SAFETY: distinct in-bounds indices under `safe`.
            unsafe { avx512::scatter_f32(safe, &mut outf, idx, dataf) };
            unsafe { avx512::scatter_i32(safe, &mut outi, idx, raw) };
            let mut expectf = basef.clone();
            let mut expecti = basei.clone();
            for l in 0..16 {
                if safe & (1 << l) != 0 {
                    expectf[idx[l] as usize] = dataf[l];
                    expecti[idx[l] as usize] = raw[l];
                }
            }
            for k in 0..32 {
                prop_assert_eq!(outf[k].to_bits(), expectf[k].to_bits(), "f32 slot {}", k);
                prop_assert_eq!(outi[k], expecti[k], "i32 slot {}", k);
            }
        }

        #[test]
        fn raw_fused_drivers_match_portable_invec_model(items in stream()) {
            skip_without_avx512!();
            check_raw_driver!(avx512::accumulate_add_f32, f32, Sum, |v: i32| v as f32 * 0.5, items, init_f32);
            check_raw_driver!(avx512::accumulate_min_f32, f32, Min, |v: i32| v as f32 * 0.5, items, init_f32);
            check_raw_driver!(avx512::accumulate_max_f32, f32, Max, |v: i32| v as f32 * 0.5, items, init_f32);
            check_raw_driver!(avx512::accumulate_add_i32, i32, Sum, |v: i32| v, items, init_i32);
            check_raw_driver!(avx512::accumulate_min_i32, i32, Min, |v: i32| v, items, init_i32);
            check_raw_driver!(avx512::accumulate_max_i32, i32, Max, |v: i32| v, items, init_i32);
        }

        #[test]
        fn raw_fused_alg2_driver_matches_portable_alg2_stream(items in stream()) {
            skip_without_avx512!();
            let idx: Vec<i32> = items.iter().map(|&(i, _)| i).collect();
            let vals: Vec<f32> = items.iter().map(|&(_, v)| v as f32 * 0.5).collect();

            // Portable counterpart of the fused Algorithm 2 driver: per-16
            // reduce_alg2 + conflict-free commit, final shadow merge.
            let mut portable = init_f32(24);
            let mut aux = AuxArray::<f32, Sum>::new(24);
            let mut pdepth = [0u64; 17];
            let mut pvectors = 0u64;
            let mut j = 0;
            while j < idx.len() {
                let (vidx, active) = I32x16::load_partial(&idx[j..], 0);
                let (mut vval, _) = SimdVec::<f32, 16>::load_partial(&vals[j..], 0.0);
                let (safe, d2) = reduce_alg2::<f32, Sum, 16>(active, vidx, &mut vval, &mut aux);
                pdepth[d2 as usize] += 1;
                let old = SimdVec::<f32, 16>::zero().mask_gather(safe, &portable, vidx);
                Sum::combine_vec(old, vval).mask_scatter(safe, &mut portable, vidx);
                pvectors += 1;
                j += 16;
            }
            aux.merge_into(&mut portable);

            let mut nat = init_f32(24);
            let mut shadow = vec![0.0f32; 24];
            let mut touched = Vec::new();
            let mut ndepth = [0u64; 17];
            // SAFETY: availability checked above; indices in 0..24, lengths
            // match, shadow has the target's length.
            let nvectors = unsafe {
                avx512::accumulate_add_f32_alg2(
                    &mut nat, &mut shadow, &mut touched, &idx, &vals, &mut ndepth,
                )
            };
            // Mirror `AuxArray::merge_into`: reset each slot after folding
            // so duplicate `touched` entries (a zero-valued first write)
            // stay idempotent.
            for &t in &touched {
                nat[t as usize] += shadow[t as usize];
                shadow[t as usize] = 0.0;
            }
            prop_assert_eq!(pvectors, nvectors, "vector iterations");
            prop_assert_eq!(pdepth, ndepth, "depth buckets");
            for (k, (a, b)) in portable.iter().zip(&nat).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "slot {}", k);
            }
        }
    }
}
