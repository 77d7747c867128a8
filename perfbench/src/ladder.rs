//! The layer ladder on one workload's own update stream: each rung runs
//! the same `(idx, vals)` stream one layer further up the stack, so the
//! loss between adjacent rungs is a measured number.
//!
//! roofline (stream read) → serial fold → fused driver per ISA → exec
//! engine → in-process serving core → in-process core with a WAL, plus the
//! WAL calls on their own. Bytes moved are computed from the stream and
//! table sizes, not measured with hardware counters.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use invector_core::exec::{execute, ExecPolicy, ExecVariant, Partition};
use invector_core::ops::{ReduceOp, Sum};
use invector_core::tune::EpochPolicy;
use invector_core::{invec_accumulate_with, serial_accumulate, Backend};
use invector_serve::table::TableState;
use invector_serve::wal::encode_checkpoint_table;
use invector_serve::{
    ManifestEntry, OpKind, ServeConfig, ServerCore, SubmitOutcome, SyncPolicy, TableSpec, Update,
    WalOptions, WalRecord, WalState,
};
use invector_simd::SimdElement;

use crate::metrics::Metrics;
use crate::stats::median;
use crate::trace::Tracer;

/// Updates per in-process submit call (the serve workloads' batch size).
pub const BATCH: usize = 512;

/// The serving layer's default epoch quantum.
pub const QUANTUM: usize = 4096;

/// A table element the ladder can run: the flat `Add` table type.
pub trait Elem: SimdElement {
    /// The flat `Add` table of `len` slots holding this type.
    fn spec(name: &str, len: usize) -> TableSpec;
    /// The update carrying `v`.
    fn update(seq: u64, idx: u32, v: Self) -> Update;
    /// Raw bits (the wire and snapshot encoding).
    fn bits(self) -> u32;
    /// The value of raw `bits`.
    fn from_bits(bits: u32) -> Self;
    /// Whether `got` agrees with the serial fold `want` (bitwise for
    /// integers; float sums may reassociate).
    fn agrees(got: &[Self], want: &[Self]) -> bool;
}

impl Elem for i32 {
    fn spec(name: &str, len: usize) -> TableSpec {
        TableSpec::i32(name, OpKind::Add, len)
    }
    fn update(seq: u64, idx: u32, v: i32) -> Update {
        Update::i32(seq, idx, v)
    }
    fn bits(self) -> u32 {
        self as u32
    }
    fn from_bits(bits: u32) -> i32 {
        bits as i32
    }
    fn agrees(got: &[i32], want: &[i32]) -> bool {
        got == want
    }
}

impl Elem for f32 {
    fn spec(name: &str, len: usize) -> TableSpec {
        TableSpec::f32(name, OpKind::Add, len)
    }
    fn update(seq: u64, idx: u32, v: f32) -> Update {
        Update::f32(seq, idx, v)
    }
    fn bits(self) -> u32 {
        self.to_bits()
    }
    fn from_bits(bits: u32) -> f32 {
        f32::from_bits(bits)
    }
    fn agrees(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(&a, &b)| (a - b).abs() <= 1e-3 * (a.abs() + b.abs() + 1.0))
    }
}

/// One workload's update stream.
#[derive(Debug)]
pub struct Stream<T> {
    /// Target table size.
    pub slots: usize,
    /// Target slot per update.
    pub idx: Vec<i32>,
    /// Value per update.
    pub vals: Vec<T>,
}

/// Median Mup/s of runs of `f` over `n` updates; `f` returns the time of
/// its measured part. Repeats at least `reps` times and until about
/// [`FAST_RUNG_UPDATES`] updates have run, so sub-millisecond rungs still
/// report a steady median.
fn rate(reps: usize, n: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let reps = reps.max(FAST_RUNG_UPDATES / n.max(1)).min(200);
    let mups: Vec<f64> = (0..reps).map(|_| n as f64 / f().as_secs_f64().max(1e-9) / 1e6).collect();
    median(&mups)
}

/// Updates each memory/core/driver/exec rung processes in total.
const FAST_RUNG_UPDATES: usize = 16 << 20;

fn timed(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// A pure streaming pass over `idx` and `vals`: the bandwidth floor.
fn stream_pass<T: Elem>(idx: &[i32], vals: &[T]) -> u64 {
    idx.iter()
        .zip(vals)
        .fold(0u64, |acc, (&i, &v)| acc.wrapping_add(i as u64 ^ u64::from(v.bits())))
}

/// Sustained read bandwidth over an `idx` + `vals` pair whose combined
/// size is four times the last-level cache (capped at 2 GiB), so neither
/// array can stay cache-resident. Returns GB/s (median of three passes)
/// and a note stating both array sizes.
pub fn bandwidth(llc: u64, tr: &mut Tracer) -> (f64, String) {
    let total = (4 * llc).min(2 << 30);
    let len = (total / 8) as usize;
    let idx: Vec<i32> = (0..len as i32).collect();
    let vals: Vec<f32> = idx.iter().map(|&i| i as f32).collect();
    let gbps: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(tr.time("ladder.bandwidth_pass", "", 0, || {
                stream_pass(black_box(&idx), black_box(&vals))
            }));
            (len * 8) as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    let note = format!(
        "ladder.bandwidth_gbps: reported LLC {} MiB; idx array {} MiB + vals array {} MiB read once per pass \
         (bytes computed from array sizes)",
        llc >> 20,
        (len * 4) >> 20,
        (len * 4) >> 20
    );
    (median(&gbps), note)
}

/// Runs every rung on `stream`, recording `ladder.*`, `serve.*` and
/// `replog.*` metrics. Returns `false` when a rung's result disagrees with
/// the serial fold.
pub fn run<T: Elem>(
    stream: &Stream<T>,
    threads: usize,
    reps: usize,
    scratch: &Path,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<bool, String>
where
    Sum: ReduceOp<T>,
{
    let n = stream.idx.len();
    let (idx, vals) = (&stream.idx[..], &stream.vals[..]);
    let mut ok = true;
    let stream_bytes = (n * 8) as f64;
    let table_bytes = (stream.slots * 4) as f64;

    let roof = rate(reps, n, || {
        timed(|| {
            black_box(tr.time("ladder.stream_pass", "", 0, || {
                stream_pass(black_box(idx), black_box(vals))
            }));
        })
    });
    m.put("ladder.roofline_mups", roof, "Mup/s");
    m.put("ladder.roofline_gbps", roof * 8.0 / 1e3, "GB/s");

    let mut want = vec![T::default(); stream.slots];
    serial_accumulate::<T, Sum>(&mut want, idx, vals);
    let mut target = vec![T::default(); stream.slots];
    let serial = rate(reps, n, || {
        target.fill(T::default());
        timed(|| {
            tr.time("core.serial_accumulate", "", 0, || {
                serial_accumulate::<T, Sum>(&mut target, idx, vals)
            })
        })
    });
    ok &= T::agrees(&target, &want);
    m.put("ladder.serial_mups", serial, "Mup/s");

    for backend in Backend::ALL.into_iter().filter(|b| b.available()) {
        let mups = rate(reps, n, || {
            target.fill(T::default());
            timed(|| {
                tr.time("core.invec_accumulate_with", backend.name(), 0, || {
                    invec_accumulate_with::<T, Sum>(backend, &mut target, idx, vals)
                });
            })
        });
        ok &= T::agrees(&target, &want);
        m.put(format!("ladder.driver_mups.{}", backend.name()), mups, "Mup/s");
    }
    let resolved = invector_core::BackendChoice::Auto.resolve();
    let auto = m.get(&format!("ladder.driver_mups.{}", resolved.name())).unwrap_or(0.0);
    m.put("ladder.driver_mups.auto", auto, "Mup/s");

    let policy = ExecPolicy::with_threads(threads)
        .variant(ExecVariant::Invec)
        .partition(Partition::OwnerComputes)
        .deterministic(true);
    let exec = rate(reps, n, || {
        target.fill(T::default());
        timed(|| {
            tr.time("core.exec::execute", "", 0, || {
                execute::<T, Sum>(&mut target, idx, vals, &policy)
            });
        })
    });
    ok &= T::agrees(&target, &want);
    m.put("ladder.exec_mups", exec, "Mup/s");

    let updates: Vec<Update> = idx
        .iter()
        .zip(vals)
        .enumerate()
        .map(|(seq, (&i, &v))| T::update(seq as u64, i as u32, v))
        .collect();
    let spec = T::spec("ladder", stream.slots);
    let mut inproc = Vec::new();
    for _ in 0..reps {
        let r = serve_inproc(&spec, &updates, threads, None, tr)?;
        ok &= T::agrees(&r.table, &want);
        inproc.push(r);
    }
    let pick = |f: fn(&Inproc<T>) -> f64| median(&inproc.iter().map(f).collect::<Vec<_>>());
    let nf = n as f64;
    m.put("serve.inproc_mups", nf / pick(|r| (r.submit + r.tick).as_secs_f64()) / 1e6, "Mup/s");
    m.put("serve.submit_ns_per_update", pick(|r| r.submit.as_nanos() as f64) / nf, "ns");
    m.put("serve.tick_ns_per_update", pick(|r| r.tick.as_nanos() as f64) / nf, "ns");

    // The WAL rungs sync to disk once per epoch: run them on a prefix of
    // 128 quanta so they stay short on slow disks.
    let wal_n = n.min(QUANTUM * 128);
    let wal_updates = &updates[..wal_n];
    let mut wal_want = vec![T::default(); stream.slots];
    serial_accumulate::<T, Sum>(&mut wal_want, &idx[..wal_n], &vals[..wal_n]);
    let mut wal_ticks = Vec::new();
    for rep in 0..reps.min(3) {
        let dir = scratch.join(format!("ladder-wal-{rep}"));
        let r = serve_inproc(&spec, wal_updates, threads, Some(&dir), tr)?;
        let _ = std::fs::remove_dir_all(&dir);
        ok &= T::agrees(&r.table, &wal_want);
        wal_ticks.push(r.tick.as_nanos() as f64 / wal_n as f64);
    }
    m.put("serve.tick_ns_per_update.wal", median(&wal_ticks), "ns");

    let dir = scratch.join("ladder-replog");
    ok &= replog_probe::<T>(&spec, wal_updates, &dir, tr, m)?;
    let _ = std::fs::remove_dir_all(&dir);

    m.notes.push(format!(
        "ladder: {n} updates over {} slots ({} KiB table); streaming pass moves {:.1} MiB \
         (idx+vals, computed); folds add a read and a write of one 4-byte slot per update; \
         auto resolves to {}",
        stream.slots,
        table_bytes / 1024.0,
        stream_bytes / (1 << 20) as f64,
        resolved.name()
    ));
    Ok(ok)
}

/// One in-process serving run: time spent in submit and in tick, and the
/// final table.
struct Inproc<T> {
    submit: Duration,
    tick: Duration,
    table: Vec<T>,
}

fn tick<T>(core: &ServerCore, drain: bool, r: &mut Inproc<T>, tr: &mut Tracer) {
    let t = Instant::now();
    tr.time("serve.ServerCore::tick", "", 0, || core.tick(drain));
    r.tick += t.elapsed();
}

/// Feeds `updates` to a bare core in `BATCH`-sized submits, ticking after
/// every quantum, then flushes; times submit and tick separately.
fn serve_inproc<T: Elem>(
    spec: &TableSpec,
    updates: &[Update],
    threads: usize,
    wal: Option<&Path>,
    tr: &mut Tracer,
) -> Result<Inproc<T>, String> {
    let mut config = ServeConfig::new(vec![spec.clone()]);
    config.threads = threads;
    config.wal = wal.map(|dir| WalOptions { sync: SyncPolicy::Epoch, ..WalOptions::new(dir) });
    let core = ServerCore::new(config)?;
    let mut r = Inproc { submit: Duration::ZERO, tick: Duration::ZERO, table: Vec::new() };
    let mut since_tick = 0;
    for (b, chunk) in updates.chunks(BATCH).enumerate() {
        let mut rest = chunk;
        while !rest.is_empty() {
            let t = Instant::now();
            let outcome =
                tr.time("serve.ServerCore::submit", "", b as u64, || core.submit(0, rest));
            r.submit += t.elapsed();
            match outcome {
                SubmitOutcome::Accepted { .. } => break,
                SubmitOutcome::Rejected { accepted, .. } => {
                    rest = &rest[accepted as usize..];
                    tick(&core, false, &mut r, tr);
                }
                SubmitOutcome::Failed(e) => return Err(e),
            }
        }
        since_tick += chunk.len();
        if since_tick >= QUANTUM {
            since_tick = 0;
            tick(&core, false, &mut r, tr);
        }
    }
    tick(&core, true, &mut r, tr);
    let snap = tr.time("serve.ServerCore::snapshot", "", 0, || core.snapshot(0))?;
    r.table = snap.bits().into_iter().map(T::from_bits).collect();
    Ok(r)
}

/// The WAL calls on their own: per quantum, append the batch record,
/// apply it to a table, CRC the table for the seal, append the seal and
/// sync; then publish one checkpoint of the final state.
fn replog_probe<T: Elem>(
    spec: &TableSpec,
    updates: &[Update],
    dir: &Path,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<bool, String> {
    let (mut wal, _) = WalState::open(
        WalOptions { sync: SyncPolicy::Epoch, ..WalOptions::new(dir) },
        std::slice::from_ref(spec),
    )?;
    let mut table = TableState::new(spec.clone(), EpochPolicy::new(ExecPolicy::default(), QUANTUM));
    let (mut append, mut sync, mut crc) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0u64;
    for (e, chunk) in updates.chunks(QUANTUM).enumerate() {
        let record = WalRecord::Batch { table: 0, updates: chunk.to_vec() };
        let t = Instant::now();
        bytes += tr
            .time("replog.WalState::append", "batch", e as u64, || wal.append(&record))
            .map_err(|err| format!("WAL append: {err}"))?;
        append.push(t.elapsed().as_secs_f64() * 1e6);
        table.apply_logged(chunk)?;
        let t = Instant::now();
        let sum = tr.time("serve.TableState::checksum", "", e as u64, || table.checksum());
        crc.push(t.elapsed().as_secs_f64() * 1e6);
        let seal = WalRecord::Seal { table: 0, watermark: table.watermark(), crc: sum };
        bytes += tr
            .time("replog.WalState::append", "seal", e as u64, || wal.append(&seal))
            .map_err(|err| format!("WAL append: {err}"))?;
        let t = Instant::now();
        tr.time("replog.WalState::sync_epoch", "", e as u64, || wal.sync_epoch())
            .map_err(|err| format!("WAL sync: {err}"))?;
        sync.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let entry = ManifestEntry {
        table: 0,
        kind: spec.kind,
        op: spec.op,
        len: spec.len as u64,
        watermark: table.watermark(),
        checksum: table.checksum(),
    };
    let record = encode_checkpoint_table(0, table.watermark(), table.data());
    let t = Instant::now();
    tr.time("replog.WalState::publish_checkpoint", "", 0, || {
        wal.publish_checkpoint(&[entry], &[record])
    })
    .map_err(|err| format!("WAL checkpoint: {err}"))?;
    m.put("replog.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    m.put("replog.append_us", median(&append), "us");
    m.put("replog.sync_us", median(&sync), "us");
    m.put("serve.seal_crc_us", median(&crc), "us");
    m.put("replog.bytes_per_update", bytes as f64 / updates.len() as f64, "B");
    Ok(table.watermark() == updates.len() as u64)
}
