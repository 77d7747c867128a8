//! Layer-ladder benchmark for invector.
//!
//! ```text
//! perfbench --workload <apps-batch|serve-ingest|serve-durable> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every measured metric as `metric <name> <value> <unit>`, notes on
//! what was measured, and, last, one JSON result line with the operation
//! counts and the metrics `BENCHMARK.json` declares: the end-to-end set
//! untraced, the per-layer set traced. A traced run also writes its spans
//! and every metric to `.bench_out/trace-<workload>-<seed>.json`. See
//! `README.md` next to this file.

mod apps;
mod gen;
mod ladder;
mod metrics;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use metrics::Metrics;
use stats::median;
use trace::Tracer;

/// The end-to-end metrics of the result line, measured on every workload.
/// `throughput_mups` and `latency_ms_*` alias one workload-specific metric
/// each (see [`Metrics::alias`]).
const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "throughput_mups", "latency_ms_p50"];

/// The per-layer metrics of the traced result line: the ladder rungs,
/// which run on every workload's own stream, the trace overhead, and the
/// latency tail, which does not repeat within a bound from run to run on
/// the serve workloads and so is reported here, from the traced run.
const PER_LAYER: [&str; 17] = [
    "trace.overhead",
    "latency_ms_tail",
    "ladder.bandwidth_gbps",
    "ladder.roofline_mups",
    "ladder.serial_mups",
    "ladder.driver_mups.portable",
    "ladder.driver_mups.auto",
    "ladder.exec_mups",
    "serve.inproc_mups",
    "serve.submit_ns_per_update",
    "serve.tick_ns_per_update",
    "serve.tick_ns_per_update.wal",
    "serve.seal_crc_us",
    "replog.append_us",
    "replog.sync_us",
    "replog.checkpoint_ms",
    "replog.bytes_per_update",
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Repetitions of each ladder rung (the rung reports the median).
const LADDER_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Aggregate CPU jiffies `(steal, total)` from `/proc/stat`, or `None`
/// where the OS does not report them.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Size of the last-level cache as the OS reports it (bytes), or 32 MiB
/// when it reports none.
fn llc_bytes() -> u64 {
    let mut best = (0u32, 32u64 << 20);
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let Ok(level) = level.trim().parse::<u32>() else { continue };
        let size = size.trim();
        let (num, mul) = match size.chars().last() {
            Some('K') => (&size[..size.len() - 1], 1u64 << 10),
            Some('M') => (&size[..size.len() - 1], 1 << 20),
            Some('G') => (&size[..size.len() - 1], 1 << 30),
            _ => (size, 1),
        };
        if let Ok(n) = num.parse::<u64>() {
            if level >= best.0 {
                best = (level, n * mul);
            }
        }
    }
    best.1
}

/// Times `reps` set-ups, keeping the last; records their median as
/// `setup_s`.
fn timed_setups<T>(
    reps: usize,
    m: &mut Metrics,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<T, String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t = Instant::now();
        kept = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    m.put("setup_s", median(&times), "s");
    kept.ok_or_else(|| "no set-up ran".into())
}

/// Operation counts of a run.
struct Outcome {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

fn apps_batch(
    args: &Args,
    threads: usize,
    scratch: &Path,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<Outcome, String> {
    let secs = |f: f64| Duration::from_secs_f64(args.seconds * f);
    let mut setup_tr = tr.fork();
    let setup = || {
        let batch = apps::setup(args.seed, threads, &mut setup_tr)?;
        // Warm-up pass: lazy pools and first-touch pages belong to set-up.
        let warm =
            apps::run_passes(&batch, Instant::now(), 1, &mut Tracer::new(false, 0, Instant::now()));
        Ok((batch, warm))
    };
    let reps = if args.trace { 1 } else { SETUPS };
    let (batch, warm) = timed_setups(reps, m, setup, drop)?;
    tr.spans.append(&mut setup_tr.spans);
    m.notes.extend(batch.inputs.iter().cloned());
    m.notes.push(format!("apps-batch: variant invec, backend auto, threads {threads}"));
    let mut out =
        Outcome { attempted: warm.attempted, failed: warm.failed, first_error: warm.first_error };
    let tally = |p: &apps::Passes, out: &mut Outcome| {
        out.attempted += p.attempted;
        out.failed += p.failed;
        if out.first_error.is_none() {
            out.first_error = p.first_error.clone();
        }
    };
    if args.trace {
        let plain = apps::run_passes(
            &batch,
            Instant::now() + secs(0.3),
            5,
            &mut Tracer::new(false, 0, Instant::now()),
        );
        let traced = apps::run_passes(&batch, Instant::now() + secs(0.3), stats::MIN_SAMPLES, tr);
        tally(&plain, &mut out);
        tally(&traced, &mut out);
        m.put("trace.overhead", median(&traced.pass_ms) / median(&plain.pass_ms), "ratio");
        apps::end_to_end(&traced, m);
        apps::per_layer(&batch, &traced, tr, m);
        let stream = apps::ladder_stream(args.seed)?;
        let ok = ladder::run(&stream, threads, LADDER_REPS, scratch, tr, m)?;
        out.attempted += 1;
        if !ok {
            out.failed += 1;
            out.first_error.get_or_insert("a ladder rung disagreed with the serial fold".into());
        }
    } else {
        let passes = apps::run_passes(&batch, Instant::now() + secs(1.0), stats::MIN_SAMPLES, tr);
        tally(&passes, &mut out);
        apps::end_to_end(&passes, m);
    }
    m.alias("throughput_mups", "batch_mups");
    m.alias("latency_ms_p50", "pass_ms_p50");
    m.alias("latency_ms_tail", "pass_ms_tail");
    Ok(out)
}

fn serve_workload(
    mode: serve::Mode,
    args: &Args,
    threads: usize,
    scratch: &Path,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<Outcome, String> {
    let plan = serve::Plan::new(mode, args.seed);
    let wal = scratch.join("wal");
    let reps = if args.trace { 1 } else { SETUPS };
    let mut setup_tr = tr.fork();
    let mut rig = timed_setups(
        reps,
        m,
        || serve::setup(&plan, threads, &wal, &mut setup_tr),
        serve::Rig::teardown,
    )?;
    tr.spans.append(&mut setup_tr.spans);
    m.notes.push(format!("config: {}", rig.config));
    let mut tally = serve::Tally::default();
    let result = serve::run(&plan, &mut rig, args.seconds, tr, m, &mut tally);
    rig.teardown();
    result?;
    if args.trace {
        let stream = plan.ladder_stream();
        let ok = ladder::run(&stream, threads, LADDER_REPS, scratch, tr, m)?;
        tally.attempted += 1;
        tally.failed += u64::from(!ok);
        if mode == serve::Mode::Durable {
            let ok = serve::stream_probe(&plan, threads, tr, m)?;
            tally.attempted += 1;
            tally.failed += u64::from(!ok);
        }
    } else {
        m.alias("throughput_mups", "ingest_mups");
    }
    m.alias("latency_ms_p50", "visible_ms_p50");
    m.alias("latency_ms_tail", "visible_ms_tail");
    Ok(Outcome { attempted: tally.attempted, failed: tally.failed, first_error: tally.first_error })
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out_dir = PathBuf::from(".bench_out");
    let scratch = out_dir.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let steal_before = cpu_steal();
    let epoch = Instant::now();
    let mut tr = Tracer::new(args.trace, 0, epoch);
    let mut m = Metrics::default();
    m.notes.push(format!(
        "workload {} seed {} seconds {} trace {} nproc {threads} backend {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        invector_core::BackendChoice::Auto.resolve().name()
    ));
    let outcome = match args.workload.as_str() {
        "apps-batch" => apps_batch(&args, threads, &scratch, &mut tr, &mut m),
        "serve-ingest" => {
            serve_workload(serve::Mode::Ingest, &args, threads, &scratch, &mut tr, &mut m)
        }
        "serve-durable" => {
            serve_workload(serve::Mode::Durable, &args, threads, &scratch, &mut tr, &mut m)
        }
        other => {
            Err(format!("unknown workload {other} (apps-batch | serve-ingest | serve-durable)"))
        }
    };
    let outcome = outcome.inspect_err(|_| {
        let _ = std::fs::remove_dir_all(&scratch);
    })?;
    if args.trace {
        let llc = llc_bytes();
        let (gbps, note) = ladder::bandwidth(llc, &mut tr);
        m.put("ladder.bandwidth_gbps", gbps, "GB/s");
        m.notes.push(note);
    }
    m.put("peak_rss_mb", peak_rss_mb()?, "MiB");
    // Time the hypervisor ran other guests on this machine's CPUs: a run
    // with high steal measured a contended host, not the program.
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, cpu_steal()) {
        m.put("host.steal_pct", 100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64, "%");
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(e) = &outcome.first_error {
        m.notes.push(format!("first failure: {e}"));
    }
    m.put("error_rate", outcome.failed as f64 / outcome.attempted.max(1) as f64, "ratio");
    for note in &m.notes {
        println!("note {note}");
    }
    print!("{}", m.lines());
    if args.trace {
        let layers = trace::layer_times(&tr.spans);
        for ((name, tag), t) in &layers {
            println!(
                "layer {name}[{tag}] calls {} total_ms {:.3} self_ms {:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let path = out_dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        let body =
            format!("{{\"run\": {},\n\"spans\": {}}}\n", m.dump_json(), trace::to_json(&tr.spans));
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("note spans and metrics written to {}", path.display());
    }
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    m.result_json(names, outcome.failed == 0, outcome.attempted.max(1), outcome.failed)
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
