//! Bit-level fingerprints of the scatter-add kernels (pagerank, spmv, euler,
//! moldyn). Every variant runs from the registry on the portable backend at
//! one thread, plus the scalar and in-vector engine rows at two threads that
//! `run-all` runs. Each cell pins an FNV-1a hash of its result bits; the
//! single-thread cells also pin the modeled instruction count, the masked
//! utilization numerator/denominator and the conflict-depth buckets.
//!
//! Any refactor of the kernel loops must leave every row unchanged: the
//! pinned numbers are the paper's op sequences, not tolerances. At this
//! size the masked euler and moldyn sweeps hit their gather-after-scatter
//! starvation guards; the two guard rules waste a different number of
//! rounds, which shows in the instruction counts and moldyn's utilization.

use invector::core::BackendChoice;
use invector::harness::{registry, RunRecord, RunSpec};
use invector::kernels::{ExecPolicy, Variant};

const APPS: [&str; 4] = ["pagerank", "spmv", "euler", "moldyn"];

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

fn rows() -> Vec<Row> {
    let mut out = Vec::new();
    for app in APPS {
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
            if policy.threads == 1 {
                out.push((label, fnv1a(&r.values), r.instructions, stats(&r)));
            } else {
                // The instruction counter is per thread: only values are
                // pinned on engine rows.
                out.push((label, fnv1a(&r.values), 0, String::new()));
            }
        }
    }
    out
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

#[test]
fn scatter_add_kernels_are_bit_identical() {
    let got = rows();
    let table: String = got
        .iter()
        .map(|(l, h, i, s)| format!("    (\"{l}\", 0x{h:016x}, {i}, \"{s}\"),\n"))
        .collect();
    assert_eq!(got.len(), EXPECTED.len(), "cell count; actual table:\n{table}");
    for ((label, hash, instr, st), &(el, eh, ei, es)) in got.iter().zip(EXPECTED) {
        assert_eq!(label, el, "actual table:\n{table}");
        assert_eq!(*hash, eh, "{label}: value bits; actual table:\n{table}");
        assert_eq!(st, es, "{label}: utilization/depth; actual table:\n{table}");
        if cfg!(feature = "count") {
            assert_eq!(*instr, ei, "{label}: instructions; actual table:\n{table}");
        }
    }
}
