//! MIMD × SIMD: the extension the paper scopes out ("MIMD parallelization
//! is a tangential issue") — in-vector reduction inside each thread,
//! privatized reduction arrays across threads.
//!
//! Run with: `cargo run --release --example parallel_histogram [rows]`

use std::time::Instant;

use invector::core::exec::{execute, ExecPolicy, Partition};
use invector::core::ops::Sum;
use invector::core::serial_accumulate;

fn main() {
    let rows: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(4_000_000);
    let bins = 1 << 12;
    // A skewed bin stream: Zipf-flavoured via squaring.
    let idx: Vec<i32> = (0..rows)
        .map(|i| {
            let r = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40;
            (((r * r) >> 13) % bins as u64) as i32
        })
        .collect();
    let weights = vec![1.0f32; rows];

    let t = Instant::now();
    let mut serial = vec![0.0f32; bins as usize];
    serial_accumulate::<f32, Sum>(&mut serial, &idx, &weights);
    println!("serial:            {:>8.1} ms", t.elapsed().as_secs_f64() * 1e3);

    for threads in [1, 2, 4, 8] {
        let t = Instant::now();
        let mut hist = vec![0.0f32; bins as usize];
        let policy =
            ExecPolicy::with_threads(threads).partition(Partition::Privatized).deterministic(true);
        let report = execute::<f32, Sum>(&mut hist, &idx, &weights, &policy);
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        let workers = &report.workers;
        let d1 = workers.iter().map(|w| w.stats.depth.mean()).sum::<f64>() / workers.len() as f64;
        println!("invec x{threads:<2} threads: {elapsed:>8.1} ms   (mean D1 {d1:.3})");
        for (a, b) in hist.iter().zip(&serial) {
            assert!((a - b).abs() <= 1e-2 * (a + b + 1.0), "{a} vs {b}");
        }
    }
    println!("\nall parallel runs match the serial histogram");
}
