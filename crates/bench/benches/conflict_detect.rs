//! Substrate micro-benchmark: `vpconflictd` emulation versus the real
//! AVX-512 instruction (when the host supports it).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use invector_simd::arch::avx512;
use invector_simd::{conflict_detect, conflict_free_subset, I32x16, Mask16};

fn portable_reference(idx: [i32; 16]) -> [i32; 16] {
    std::array::from_fn(|i| {
        let mut bits = 0i32;
        for j in 0..i {
            if idx[j] == idx[i] {
                bits |= 1 << j;
            }
        }
        bits
    })
}

fn bench_conflict(c: &mut Criterion) {
    let mut group = c.benchmark_group("conflict_detect");
    let inputs: [(&str, [i32; 16]); 3] = [
        ("distinct", std::array::from_fn(|i| i as i32)),
        ("half-conflicted", std::array::from_fn(|i| (i % 8) as i32)),
        ("all-equal", [7; 16]),
    ];
    for (name, idx) in inputs {
        group.bench_with_input(BenchmarkId::new("portable_reference", name), &idx, |b, &idx| {
            b.iter(|| black_box(portable_reference(black_box(idx))))
        });
        group.bench_with_input(BenchmarkId::new("dispatched", name), &idx, |b, &idx| {
            let v = I32x16::from_array(idx);
            b.iter(|| black_box(conflict_detect(black_box(v))))
        });
        if avx512::available() {
            group.bench_with_input(BenchmarkId::new("native_avx512", name), &idx, |b, &idx| {
                // SAFETY: guarded by `avx512::available()`.
                b.iter(|| black_box(unsafe { avx512::conflict_i32(black_box(idx)) }))
            });
        }
        group.bench_with_input(BenchmarkId::new("conflict_free_subset", name), &idx, |b, &idx| {
            let v = I32x16::from_array(idx);
            b.iter(|| black_box(conflict_free_subset(Mask16::all(), black_box(v))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conflict);
criterion_main!(benches);
