//! Bit-level fingerprints of the scatter-add kernels (pagerank, spmv, euler,
//! moldyn) and the wave-frontier kernels (sssp, sswp, bfs, wcc). Every
//! variant runs from the registry on the portable backend at one thread,
//! plus the scalar and in-vector engine rows at two threads that `run-all`
//! runs. Each cell pins an FNV-1a hash of its result bits; the
//! single-thread cells also pin the modeled instruction count, the masked
//! utilization numerator/denominator and the conflict-depth buckets. Wave
//! cells also pin the iteration count, and each wave app adds one row for
//! its grouping-reuse realization.
//!
//! Any refactor of the kernel loops must leave every row unchanged: the
//! pinned numbers are the paper's op sequences, not tolerances. At this
//! size the masked euler and moldyn sweeps hit their gather-after-scatter
//! starvation guards; the two guard rules waste a different number of
//! rounds, which shows in the instruction counts and moldyn's utilization.
//! On the wave engine rows only values and iterations are pinned: how a
//! wave's relaxations are cut into tasks may change instructions and the
//! frontier order, never the fixed point or the number of waves.

use invector::core::BackendChoice;
use invector::graph::datasets::{self, TEST_SCALE};
use invector::graph::Frontier;
use invector::harness::{registry, RunRecord, RunSpec};
use invector::kernels::relax::BfsRule;
use invector::kernels::{sssp_reuse, sswp_reuse, wavefront, wcc_reuse, ExecPolicy, Variant};

const APPS: [&str; 4] = ["pagerank", "spmv", "euler", "moldyn"];
const WAVE_APPS: [&str; 4] = ["sssp", "sswp", "bfs", "wcc"];

/// FNV-1a over the little-endian bytes of every value's bit pattern.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One cell: `(row label, value hash, instructions, stats)`.
type Row = (String, u64, u64, String);

/// Utilization and non-empty depth buckets, e.g. `util=90/128 depth=0:7,1:2`.
fn stats(r: &RunRecord) -> String {
    let mut s = String::new();
    if let Some(u) = r.utilization {
        s += &format!("util={}/{}", u.useful, u.slots);
    }
    if let Some(d) = &r.depth {
        let buckets: Vec<String> =
            (0..=16).filter(|&k| d.bucket(k) > 0).map(|k| format!("{k}:{}", d.bucket(k))).collect();
        s += &format!("depth={}", buckets.join(","));
    }
    s
}

/// The cells of `apps`; wave cells prefix their stats with `iters=N`.
fn rows(apps: &[&str]) -> Vec<Row> {
    let mut out = Vec::new();
    for &app in apps {
        let kernel = registry::find(app).expect("registered");
        let workload = kernel.prepare(&RunSpec::tiny()).expect("prepare");
        let mut policies: Vec<(Variant, ExecPolicy)> = Variant::ALL
            .into_iter()
            .map(|v| (v, ExecPolicy::default().backend(BackendChoice::Portable)))
            .collect();
        if kernel.supports_threads() {
            for v in [Variant::Serial, Variant::Invec] {
                policies.push((v, ExecPolicy::with_threads(2).backend(BackendChoice::Portable)));
            }
        }
        for (variant, policy) in policies {
            let r = workload.run(variant, &policy);
            let label = format!("{app} {} t={}", variant.short_name(), policy.threads);
            let iters = if WAVE_APPS.contains(&app) { iters(r.iterations) } else { String::new() };
            if policy.threads == 1 {
                let st = format!("{iters} {}", stats(&r)).trim().to_string();
                out.push((label, fnv1a(&r.values), r.instructions, st));
            } else {
                // The instruction counter is per thread: only values (and
                // wave counts) are pinned on engine rows.
                out.push((label, fnv1a(&r.values), 0, iters));
            }
        }
    }
    out
}

fn iters(n: u32) -> String {
    format!("iters={n}")
}

/// One grouping-reuse row per wave app, on the graph and source the
/// registry's tiny spec resolves to.
fn reuse_rows() -> Vec<Row> {
    let spec = RunSpec::tiny();
    let graph = datasets::by_name(datasets::NAMES[0], TEST_SCALE).expect("dataset").graph;
    let (source, max_iters) = (spec.source, spec.iters);
    let row = |app: &str, values: Vec<f64>, iterations: u32, instructions: u64| {
        (format!("{app} reuse t=1"), fnv1a(&values), instructions, iters(iterations))
    };
    let sssp = sssp_reuse(&graph, source, max_iters);
    let sswp = sswp_reuse(&graph, source, max_iters);
    let bfs = wavefront::run_reuse::<BfsRule>(&graph, max_iters, |vals, f: &mut Frontier| {
        vals[source as usize] = 0;
        f.insert(source);
    });
    let wcc = wcc_reuse(&graph, max_iters);
    vec![
        row("sssp", widen(&sssp.values), sssp.iterations, sssp.instructions),
        row("sswp", widen(&sswp.values), sswp.iterations, sswp.instructions),
        row("bfs", widen(&bfs.values), bfs.iterations, bfs.instructions),
        row("wcc", widen(&wcc.values), wcc.iterations, wcc.instructions),
    ]
}

/// Widens kernel values the way the harness records them (exactly).
fn widen<T: Copy + Into<f64>>(values: &[T]) -> Vec<f64> {
    values.iter().map(|&v| v.into()).collect()
}

#[rustfmt::skip]
const EXPECTED: &[(&str, u64, u64, &str)] = &[
    ("pagerank serial t=1", 0xd21cb86b0af529d8, 1440000, ""),
    ("pagerank tiled t=1", 0xd21cb86b0af529d8, 1440000, ""),
    ("pagerank grouped t=1", 0xd21cb86b0af529d8, 1029078, ""),
    ("pagerank masked t=1", 0xa45565fafd54f89c, 754452, "util=180000/211776"),
    ("pagerank invec t=1", 0x89a43a155738abd8, 504054, "depth=0:3642,1:4860,2:2280,3:408,4:60"),
    ("pagerank serial t=2", 0xd21cb86b0af529d8, 0, ""),
    ("pagerank invec t=2", 0x9aadf6a6140a00ae, 0, ""),
    ("spmv serial t=1", 0xd1285fca679583a2, 240000, ""),
    ("spmv tiled t=1", 0xd1285fca679583a2, 240000, ""),
    ("spmv grouped t=1", 0xd1285fca679583a2, 168150, ""),
    ("spmv masked t=1", 0x36b81f0c39b757e2, 123536, "util=30000/35296"),
    ("spmv invec t=1", 0xaf322f80e72de767, 69009, "depth=0:607,1:810,2:380,3:68,4:10"),
    ("euler serial t=1", 0x96fd777585111ad4, 167440, ""),
    ("euler tiled t=1", 0x96fd777585111ad4, 167440, ""),
    ("euler grouped t=1", 0x974cc1288cc4dd02, 108000, ""),
    ("euler masked t=1", 0x96fd777585111ad4, 1637480, ""),
    ("euler invec t=1", 0x204ff18b04f54234, 139720, ""),
    ("euler serial t=2", 0x948a4d4b7947e6e5, 0, ""),
    ("euler invec t=2", 0x68ccab1b536a4df4, 0, ""),
    ("moldyn serial t=1", 0x5713667d07b9b5be, 682320, ""),
    ("moldyn tiled t=1", 0x5713667d07b9b5be, 682320, ""),
    ("moldyn grouped t=1", 0x2dcef3831dd5fe47, 291240, ""),
    ("moldyn masked t=1", 0xf3c186d4e7276ca2, 3314160, "util=18880/256640"),
    ("moldyn invec t=1", 0x3e185d5d89a2ee20, 260640, "depth=0:840,1:480,2:680,3:120,4:120,5:80,6:40,7:40"),
    ("moldyn serial t=2", 0x64421ba9a5132306, 0, ""),
    ("moldyn invec t=2", 0xb90eafd0c1ce5eb2, 0, ""),
];

#[rustfmt::skip]
const WAVE_EXPECTED: &[(&str, u64, u64, &str)] = &[
    ("sssp serial t=1", 0xaff5a1b820335a99, 319510, "iters=5"),
    ("sssp tiled t=1", 0xaff5a1b820335a99, 319510, "iters=5"),
    ("sssp grouped t=1", 0xaff5a1b820335a99, 226145, "iters=5"),
    ("sssp masked t=1", 0xaff5a1b820335a99, 161416, "iters=5 util=2026/39232"),
    ("sssp invec t=1", 0xaff5a1b820335a99, 149031, "iters=5 depth=0:752,1:1080,2:507,3:99,4:13"),
    ("sssp serial t=2", 0xaff5a1b820335a99, 0, "iters=5"),
    ("sssp invec t=2", 0xaff5a1b820335a99, 0, "iters=5"),
    ("sswp serial t=1", 0xdbf898334a88e723, 610325, "iters=10"),
    ("sswp tiled t=1", 0xdbf898334a88e723, 610325, "iters=10"),
    ("sswp grouped t=1", 0xdbf898334a88e723, 430649, "iters=10"),
    ("sswp masked t=1", 0xdbf898334a88e723, 308929, "iters=10 util=2824/75344"),
    ("sswp invec t=1", 0xdbf898334a88e723, 284729, "iters=10 depth=0:1483,1:2052,2:969,3:179,4:24"),
    ("sswp serial t=2", 0xdbf898334a88e723, 0, "iters=10"),
    ("sswp invec t=2", 0xdbf898334a88e723, 0, "iters=10"),
    ("bfs serial t=1", 0x44f50d736eb472e8, 241823, "iters=4"),
    ("bfs tiled t=1", 0x44f50d736eb472e8, 241823, "iters=4"),
    ("bfs grouped t=1", 0x44f50d736eb472e8, 145250, "iters=4"),
    ("bfs masked t=1", 0x44f50d736eb472e8, 107582, "iters=4 util=813/29968"),
    ("bfs invec t=1", 0x44f50d736eb472e8, 97713, "iters=4 depth=0:590,1:843,2:370,3:61,4:8"),
    ("bfs serial t=2", 0x44f50d736eb472e8, 0, "iters=4"),
    ("bfs invec t=2", 0x44f50d736eb472e8, 0, "iters=4"),
    ("wcc serial t=1", 0x95bf3bfffdc63b35, 950119, "iters=3"),
    ("wcc tiled t=1", 0x95bf3bfffdc63b35, 950119, "iters=3"),
    ("wcc grouped t=1", 0x95bf3bfffdc63b35, 561038, "iters=3"),
    ("wcc masked t=1", 0x95bf3bfffdc63b35, 422825, "iters=3 util=1133/118368"),
    ("wcc invec t=1", 0x95bf3bfffdc63b35, 385513, "iters=3 depth=0:2295,1:3230,2:1529,3:307,4:36"),
    ("wcc serial t=2", 0x95bf3bfffdc63b35, 0, "iters=3"),
    ("wcc invec t=2", 0x95bf3bfffdc63b35, 0, "iters=3"),
    ("sssp reuse t=1", 0xaff5a1b820335a99, 393758, "iters=5"),
    ("sswp reuse t=1", 0xdbf898334a88e723, 829602, "iters=10"),
    ("bfs reuse t=1", 0x44f50d736eb472e8, 261393, "iters=4"),
    ("wcc reuse t=1", 0x95bf3bfffdc63b35, 638971, "iters=3"),
];

#[test]
fn scatter_add_kernels_are_bit_identical() {
    check(&rows(&APPS), EXPECTED);
}

#[test]
fn wave_frontier_kernels_are_bit_identical() {
    let mut got = rows(&WAVE_APPS);
    got.extend(reuse_rows());
    check(&got, WAVE_EXPECTED);
}

fn check(got: &[Row], expected: &[(&str, u64, u64, &str)]) {
    let table: String = got
        .iter()
        .map(|(l, h, i, s)| format!("    (\"{l}\", 0x{h:016x}, {i}, \"{s}\"),\n"))
        .collect();
    assert_eq!(got.len(), expected.len(), "cell count; actual table:\n{table}");
    for ((label, hash, instr, st), &(el, eh, ei, es)) in got.iter().zip(expected) {
        assert_eq!(label, el, "actual table:\n{table}");
        assert_eq!(*hash, eh, "{label}: value bits; actual table:\n{table}");
        assert_eq!(st, es, "{label}: utilization/depth; actual table:\n{table}");
        if cfg!(feature = "count") {
            assert_eq!(*instr, ei, "{label}: instructions; actual table:\n{table}");
        }
    }
}
