//! Property tests for the molecular-dynamics substrate.

use proptest::prelude::*;

use invector_core::backend::Backend;
use invector_kernels::edgemap::EdgeMap;
use invector_kernels::Variant;
use invector_moldyn::force::{Forces, PairForces};
use invector_moldyn::neighbor::{build_pairs, PairList};
use invector_moldyn::Molecules;

/// One single-threaded force evaluation of `variant` on `backend`.
fn forces(
    m: &Molecules,
    pairs: &PairList,
    cutoff: f32,
    variant: Variant,
    backend: Backend,
) -> Forces {
    let lane = PairForces::new(m, pairs, cutoff);
    let mut map = EdgeMap::new(variant, backend, None);
    map.inspect(&lane, m.len());
    let mut f = Forces::zeroed(m.len());
    map.run(&lane, f.components_mut());
    f
}

/// Random molecule clouds in a box, min-separated by construction rejection.
fn molecules_strategy() -> impl Strategy<Value = Molecules> {
    prop::collection::vec((0u32..100, 0u32..100, 0u32..100), 2..60).prop_map(|cells| {
        // Snap to a grid with jitter so molecules never coincide exactly.
        let n = cells.len();
        let mut m = Molecules {
            px: Vec::with_capacity(n),
            py: Vec::with_capacity(n),
            pz: Vec::with_capacity(n),
            vx: vec![0.0; n],
            vy: vec![0.0; n],
            vz: vec![0.0; n],
            box_size: 20.0,
        };
        let mut seen = std::collections::HashSet::new();
        for (x, y, z) in cells {
            if seen.insert((x % 20, y % 20, z % 20)) {
                m.px.push((x % 20) as f32 + 0.3);
                m.py.push((y % 20) as f32 + 0.3);
                m.pz.push((z % 20) as f32 + 0.3);
            }
        }
        let n = m.px.len();
        m.vx.truncate(n);
        m.vy.truncate(n);
        m.vz.truncate(n);
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn neighbor_list_matches_brute_force(m in molecules_strategy(), cutoff_x10 in 5u32..40) {
        let cutoff = cutoff_x10 as f32 / 10.0;
        let pairs = build_pairs(&m, cutoff);
        let got: std::collections::BTreeSet<(i32, i32)> =
            pairs.i.iter().zip(&pairs.j).map(|(&a, &b)| (a, b)).collect();
        prop_assert_eq!(got.len(), pairs.len(), "duplicates emitted");
        let mut expect = std::collections::BTreeSet::new();
        for a in 0..m.len() {
            for b in a + 1..m.len() {
                let d2 = (m.px[a] - m.px[b]).powi(2)
                    + (m.py[a] - m.py[b]).powi(2)
                    + (m.pz[a] - m.pz[b]).powi(2);
                if d2 <= cutoff * cutoff {
                    expect.insert((a as i32, b as i32));
                }
            }
        }
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn newtons_third_law_holds_for_all_kernels(m in molecules_strategy()) {
        if m.len() < 2 {
            return Ok(());
        }
        let cutoff = 3.0;
        let pairs = build_pairs(&m, cutoff);
        let n = m.len();

        let serial = forces(&m, &pairs, cutoff, Variant::Serial, Backend::Portable);
        let net: f32 = serial.fx.iter().sum();
        // Forces come in equal-and-opposite pairs: the net must be tiny
        // relative to the largest component.
        let max = serial.fx.iter().fold(0.0f32, |a, &b| a.max(b.abs())).max(1.0);
        prop_assert!(net.abs() <= 1e-2 * max * n as f32, "net {net} max {max}");

        // All kernels agree with the serial forces.
        let close = |a: &Forces, b: &Forces| -> bool {
            a.fx.iter().zip(&b.fx).chain(a.fy.iter().zip(&b.fy)).chain(a.fz.iter().zip(&b.fz))
                .all(|(x, y)| (x - y).abs() <= 1e-2 * (x.abs() + y.abs() + 1.0))
        };
        let invec =
            forces(&m, &pairs, cutoff, Variant::Invec, invector_core::backend::current());
        prop_assert!(close(&invec, &serial), "invec diverged");

        let masked = forces(&m, &pairs, cutoff, Variant::Masked, Backend::Portable);
        prop_assert!(close(&masked, &serial), "masked diverged");

        let grouped = forces(&m, &pairs, cutoff, Variant::Grouped, Backend::Portable);
        prop_assert!(close(&grouped, &serial), "grouped diverged");
    }

    #[test]
    fn force_kernels_tolerate_stale_pairs(m in molecules_strategy()) {
        // Pairs built with a larger cutoff than the force cutoff: out-of-
        // range pairs (as after drift between rebuilds) contribute nothing.
        if m.len() < 2 {
            return Ok(());
        }
        let pairs = build_pairs(&m, 5.0);
        let wide = forces(&m, &pairs, 3.0, Variant::Serial, Backend::Portable);
        let tight_pairs = build_pairs(&m, 3.0);
        let tight = forces(&m, &tight_pairs, 3.0, Variant::Serial, Backend::Portable);
        for (a, b) in wide.fx.iter().zip(&tight.fx) {
            prop_assert!((a - b).abs() <= 1e-3 * (a.abs() + b.abs() + 1.0));
        }
    }

    #[test]
    fn empty_and_singleton_systems_are_stable(k in 0usize..2) {
        let m = Molecules {
            px: vec![1.0; k],
            py: vec![1.0; k],
            pz: vec![1.0; k],
            vx: vec![0.0; k],
            vy: vec![0.0; k],
            vz: vec![0.0; k],
            box_size: 5.0,
        };
        let pairs = build_pairs(&m, 3.0);
        prop_assert_eq!(pairs.len(), 0);
        let f = forces(&m, &PairList::default(), 3.0, Variant::Serial, Backend::Portable);
        prop_assert!(f.fx.iter().all(|&x| x == 0.0));
    }
}
