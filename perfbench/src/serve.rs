//! `serve-ingest` and `serve-durable`: writers over loopback TCP into a
//! live server, a closed-loop saturation phase then an open-loop phase at
//! a fixed rate; `serve-durable` adds a WAL, an in-process follower and a
//! reader connection issuing queries beside the writes.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use invector_serve::{
    EdgeOp, FollowStatus, Follower, OpKind, ServeClient, ServeConfig, Server, SubmitOutcome,
    SyncPolicy, TableSpec, TcpClient, Update, WalOptions,
};
use invector_streamkit::reference::{pagerank_layers, WindowSim};
use invector_streamkit::{window_data, AggOp, DELETE_BIT};

use crate::gen::{zipf_keys, OpenLoop, Rng, Sent, Wall};
use crate::ladder::Stream;
use crate::metrics::Metrics;
use crate::stats::{median, summarize};
use crate::trace::Tracer;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Two small L1-resident tables, no WAL.
    Ingest,
    /// Adds a 2^20-slot table, a window table and a PageRank edge table,
    /// a WAL, a follower and a reader.
    Durable,
}

/// Slots of the small count and min tables (16 KiB each: L1-resident).
const SMALL_SLOTS: usize = 4096;
/// Slots of the large flat table (4 MiB: several times L2).
const BIG_SLOTS: usize = 1 << 20;
/// Window table geometry: keys, ring buckets, events per bucket.
const WINDOW_TABLE: (u32, u32, u32) = (1024, 8, 8192);
/// PageRank edge table: vertices and iterations.
const RANKS: (u32, u32) = (2048, 8);
/// Updates per flat/window request.
const BATCH: usize = 512;
/// Edge ops per PageRank-table request: the engine's per-slice cost is
/// far higher than a flat fold's, so it gets a thin share of the stream.
const EDGE_BATCH: usize = 64;
/// Stream positions before a table's pool of generated updates repeats.
const POOL: usize = 1 << 18;
/// Open-loop update rate across all tables, per second: below the
/// saturation rate of both workloads on a 2-core host, fixed so every
/// run offers the same load.
const OPEN_RATE: [f64; 2] = [1.0e6, 0.6e6];
/// Reader queries per second (`serve-durable`).
const QUERY_RATE: f64 = 300.0;
/// Entries per top-k query.
const TOP_K: u32 = 16;
/// How long the open-loop writers keep going after the measured window,
/// so every measured update becomes visible without a flush and a later
/// reply reports it: longer than the slowest table (`ranks`, one 64-op
/// batch per round) takes to fill a quantum, with room for slow epochs.
const DRAIN: Duration = Duration::from_secs(1);
/// Closed-loop flow control: a writer sends an update only while it is
/// at most this many stream positions ahead of the table's applied
/// watermark (sixteen epoch quanta), polling with empty submits otherwise.
/// Outstanding work stays bounded, so saturation shows as waiting, not
/// as queue growth and refusals.
const WINDOW: u64 = 16 * crate::ladder::QUANTUM as u64;
/// Share of an untraced run spent in the closed loop (the rest is the
/// open loop, whose latencies repeat more tightly run to run).
const CLOSED_SHARE: f64 = 0.6;
/// Closed-loop segments per untraced run; `ingest_mups` is their median.
const CLOSED_SEGMENTS: usize = 24;
/// Follower watermark sampling interval.
const POLL: Duration = Duration::from_micros(500);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counts,
    Mins,
    Big,
    Window,
    Ranks,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counts => "counts",
            Kind::Mins => "mins",
            Kind::Big => "big",
            Kind::Window => "window",
            Kind::Ranks => "ranks",
        }
    }
}

/// One table and its generated stream: update `seq` is `pool[seq % len]`.
struct TableDef {
    kind: Kind,
    spec: TableSpec,
    batch: usize,
    pool: Vec<(u32, u32)>,
}

impl TableDef {
    /// `(index, payload)` of stream position `seq`.
    fn event(&self, seq: u64) -> (u32, u32) {
        self.pool[(seq % self.pool.len() as u64) as usize]
    }
}

/// Every table of a workload and its stream.
pub struct Plan {
    mode: Mode,
    tables: Vec<TableDef>,
}

impl Plan {
    /// The workload's tables and streams for `seed`.
    pub fn new(mode: Mode, seed: u64) -> Plan {
        let flat = |stream: u64, slots: usize, s: f64, val: fn(&mut Rng) -> u32| {
            let mut rng = Rng::new(seed, stream);
            let keys = zipf_keys(&mut rng, slots, s, POOL);
            keys.into_iter().map(|k| (k, val(&mut rng))).collect::<Vec<_>>()
        };
        let count = |r: &mut Rng| 1 + r.below(100) as u32;
        let mut tables = vec![
            TableDef {
                kind: Kind::Counts,
                spec: TableSpec::i32("counts", OpKind::Add, SMALL_SLOTS),
                batch: BATCH,
                pool: flat(1, SMALL_SLOTS, 1.0, count),
            },
            TableDef {
                kind: Kind::Mins,
                spec: TableSpec::f32("mins", OpKind::Min, SMALL_SLOTS),
                batch: BATCH,
                pool: flat(2, SMALL_SLOTS, 1.0, |r| (r.unit() as f32 * 1000.0).to_bits()),
            },
        ];
        if mode == Mode::Durable {
            let (keys, buckets, width) = WINDOW_TABLE;
            tables.push(TableDef {
                kind: Kind::Big,
                spec: TableSpec::i32("big", OpKind::Add, BIG_SLOTS),
                batch: BATCH,
                pool: flat(3, BIG_SLOTS, 1.0, count),
            });
            tables.push(TableDef {
                kind: Kind::Window,
                spec: TableSpec::window("window", OpKind::Add, keys, buckets, width, false),
                batch: BATCH,
                pool: flat(4, keys as usize, 0.8, count)
                    .into_iter()
                    .map(|(k, v)| window_data(k, v as i32))
                    .collect(),
            });
            tables.push(TableDef {
                kind: Kind::Ranks,
                spec: TableSpec::pagerank("ranks", RANKS.0, RANKS.1),
                batch: EDGE_BATCH,
                pool: edge_pool(seed, RANKS.0, POOL / 4),
            });
        }
        Plan { mode, tables }
    }

    fn table(&self, kind: Kind) -> usize {
        self.tables.iter().position(|t| t.kind == kind).expect("table in plan")
    }

    /// Requests per round: every table gets one batch per round.
    fn cycle(&self) -> u64 {
        self.tables.len() as u64
    }

    fn updates_per_round(&self) -> u64 {
        self.tables.iter().map(|t| t.batch as u64).sum()
    }

    /// First seq and events of batch `round` of table `t`.
    fn batch(&self, t: usize, round: u64) -> (u64, Vec<(u32, u32)>) {
        let def = &self.tables[t];
        let first = round * def.batch as u64;
        (first, (first..first + def.batch as u64).map(|s| def.event(s)).collect())
    }

    /// The flat stream the ladder runs on: the count table's for
    /// `serve-ingest`, the large table's for `serve-durable`.
    pub fn ladder_stream(&self) -> Stream<i32> {
        let def = &self.tables
            [self.table(if self.mode == Mode::Ingest { Kind::Counts } else { Kind::Big })];
        Stream {
            slots: def.spec.len,
            idx: def.pool.iter().map(|&(k, _)| k as i32).collect(),
            vals: def.pool.iter().map(|&(_, v)| v as i32).collect(),
        }
    }
}

/// An edge stream with churn: three in four events insert a random edge
/// (sources Zipf-skewed), the rest delete one of the last 64 inserts.
fn edge_pool(seed: u64, vertices: u32, len: usize) -> Vec<(u32, u32)> {
    let mut rng = Rng::new(seed, 5);
    let srcs = zipf_keys(&mut rng, vertices as usize, 0.8, len);
    let mut out: Vec<(u32, u32)> = Vec::with_capacity(len);
    let mut inserts: Vec<(u32, u32)> = Vec::new();
    for src in srcs {
        if inserts.is_empty() || rng.below(4) != 0 {
            let e = (src, rng.below(u64::from(vertices)) as u32);
            inserts.push(e);
            out.push(e);
        } else {
            let back = rng.below(inserts.len().min(64) as u64) as usize;
            let (s, d) = inserts[inserts.len() - 1 - back];
            out.push((s, d | DELETE_BIT));
        }
    }
    out
}

/// FNV-1a over slot bit patterns.
pub fn fnv(bits: &[u32]) -> u64 {
    bits.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        b.to_le_bytes().iter().fold(h, |h, &x| (h ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Serial reference fold of a table's first `len` stream positions, as
/// slot bits.
fn reference(def: &TableDef, len: u64) -> Vec<u32> {
    let events = (0..len).map(|s| def.event(s));
    match def.kind {
        Kind::Counts | Kind::Big => {
            let mut t = vec![0i32; def.spec.len];
            for (k, v) in events {
                t[k as usize] = t[k as usize].wrapping_add(v as i32);
            }
            t.into_iter().map(|v| v as u32).collect()
        }
        Kind::Mins => {
            let mut t = vec![f32::INFINITY; def.spec.len];
            for (k, v) in events {
                t[k as usize] = t[k as usize].min(f32::from_bits(v));
            }
            t.into_iter().map(f32::to_bits).collect()
        }
        Kind::Window => {
            let (keys, buckets, width) = WINDOW_TABLE;
            let mut sim = WindowSim::new(
                keys as usize,
                buckets as usize,
                u64::from(width),
                false,
                AggOp::Add,
            );
            sim.apply(&events.collect::<Vec<_>>());
            sim.slots.into_iter().map(|v| v as u32).collect()
        }
        Kind::Ranks => {
            let (n, iters) = (RANKS.0 as usize, RANKS.1 as usize);
            let mut edges = std::collections::BTreeSet::new();
            for (src, bits) in events {
                let dst = bits & !DELETE_BIT;
                if bits & DELETE_BIT != 0 {
                    edges.remove(&(src, dst));
                } else {
                    edges.insert((src, dst));
                }
            }
            let mut inn = vec![Vec::new(); n];
            let mut outdeg = vec![0u32; n];
            for &(u, v) in &edges {
                inn[v as usize].push(u);
                outdeg[u as usize] += 1;
            }
            pagerank_layers(n, iters, &inn, &outdeg)[iters].iter().map(|r| r.to_bits()).collect()
        }
    }
}

/// How long a write may take, refusals and backoffs included, before it
/// counts as failed: the benchmark's client retry budget.
const RETRY_BUDGET: Duration = Duration::from_secs(2);

/// One admitted write.
struct Admitted {
    /// Admitted within [`RETRY_BUDGET`].
    in_budget: bool,
    /// The table's applied watermark when the last part was admitted.
    watermark: u64,
}

/// Sends batch `round` of table `t`, resubmitting refused suffixes after
/// the server's backoff until all of it is admitted, so the stream stays
/// whole even past the retry budget.
fn send(client: &mut TcpClient, plan: &Plan, t: usize, round: u64) -> Result<Admitted, String> {
    let (first, events) = plan.batch(t, round);
    let table = t as u16;
    let updates: Vec<Update> = events
        .iter()
        .enumerate()
        .map(|(j, &(idx, bits))| Update { seq: first + j as u64, idx, bits })
        .collect();
    let edges = plan.tables[t].kind == Kind::Ranks;
    let start = Instant::now();
    let mut rest = &updates[..];
    loop {
        let outcome = if edges {
            let ops: Vec<EdgeOp> = rest.iter().map(|&u| EdgeOp::from_update(u)).collect();
            client.edge_ops(table, &ops)?
        } else {
            client.submit(table, rest)?
        };
        match outcome {
            SubmitOutcome::Accepted { watermark, .. } => {
                return Ok(Admitted { in_budget: start.elapsed() <= RETRY_BUDGET, watermark })
            }
            SubmitOutcome::Rejected { accepted, retry_after_ms, reason } => {
                if reason == invector_serve::RejectReason::Draining {
                    return Err("server is draining".into());
                }
                rest = &rest[accepted as usize..];
                client.backoff(retry_after_ms);
            }
            SubmitOutcome::Failed(m) => return Err(m),
        }
    }
}

/// A live server with its connections.
pub struct Rig {
    server: Server,
    writers: Vec<TcpClient>,
    control: TcpClient,
    reader: Option<TcpClient>,
    follower: Option<Follower>,
    wal_dir: Option<PathBuf>,
    /// Server configuration summary, for the run's notes.
    pub config: String,
}

/// Binds the server, connects every client and bootstraps the follower.
///
/// # Errors
///
/// Fails on bind, connect or bootstrap errors.
pub fn setup(plan: &Plan, threads: usize, wal_dir: &Path, tr: &mut Tracer) -> Result<Rig, String> {
    let mut config = ServeConfig::new(plan.tables.iter().map(|t| t.spec.clone()).collect());
    config.threads = threads;
    config.io_threads = threads;
    let durable = plan.mode == Mode::Durable;
    if durable {
        let _ = std::fs::remove_dir_all(wal_dir);
        config.wal = Some(WalOptions { sync: SyncPolicy::Epoch, ..WalOptions::new(wal_dir) });
    }
    let summary = format!(
        "threads={threads} io_threads={threads} shards={} quantum={} epoch_interval={:?} \
         writers={threads} batch={BATCH} tables={} wal={}",
        config.shards,
        config.quantum,
        config.epoch_interval,
        plan.tables
            .iter()
            .map(|t| format!("{}:{}", t.spec.name, t.spec.len))
            .collect::<Vec<_>>()
            .join(","),
        if durable { "epoch-sync" } else { "off" },
    );
    let server = tr
        .time("serve.Server::bind", "", 0, || Server::bind(config, "127.0.0.1:0"))
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let mut connect = || tr.time("serve.TcpClient::connect", "", 0, || TcpClient::connect(addr));
    let writers = (0..threads).map(|_| connect()).collect::<Result<Vec<_>, _>>()?;
    let control = connect()?;
    let reader = if durable { Some(connect()?) } else { None };
    let follower = if durable {
        let mut fc = ServeConfig::new(Vec::new());
        fc.threads = threads;
        Some(tr.time("serve.Follower::start", "", 0, || Follower::start(&addr.to_string(), fc))?)
    } else {
        None
    };
    Ok(Rig {
        server,
        writers,
        control,
        reader,
        follower,
        wal_dir: durable.then(|| wal_dir.to_path_buf()),
        config: summary,
    })
}

impl Rig {
    /// Stops the follower and the server and removes the WAL directory.
    pub fn teardown(self) {
        if let Some(f) = self.follower {
            f.stop();
        }
        drop(self.writers);
        drop(self.control);
        drop(self.reader);
        self.server.shutdown();
        self.server.join();
        if let Some(dir) = self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// One open-loop write.
#[derive(Debug, Clone)]
struct Write {
    table: usize,
    seq_end: u64,
    due: Instant,
    late: Duration,
    ack: Duration,
    reply_at: Instant,
    watermark: u64,
    in_budget: bool,
    measured: bool,
}

/// One reader answer.
#[derive(Debug, Clone)]
enum Answer {
    Snapshot { watermark: u64, fnv: u64 },
    Window { watermark: u64, values: Vec<u32> },
    TopK { watermark: u64, entries: Vec<(u32, u32)> },
}

/// Operation tallies and the first failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// First failure message.
    pub first_error: Option<String>,
    /// TCP requests sent by the benchmark's clients.
    pub requests: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_error.is_none() {
                self.first_error = Some(what());
            }
        }
    }
}

/// Runs the closed-loop phase for `len`: writers claim whole rounds from
/// a shared counter until the deadline (so the rounds sent are always a
/// contiguous prefix), then a flush makes everything visible. Returns
/// updates applied per second up to the flush reply, in Mup/s.
fn closed_phase(
    plan: &Plan,
    rig: &mut Rig,
    len: Duration,
    round: &mut u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<f64, String> {
    let first = *round;
    let next = AtomicU64::new(first);
    let start = Instant::now();
    let end = start + len;
    let results: Vec<Result<(Tracer, u64, u64, u64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .writers
            .iter_mut()
            .map(|client| {
                let mut wt = tr.fork();
                let next = &next;
                s.spawn(move || {
                    let (mut sent, mut refused, mut polls) = (0u64, 0u64, 0u64);
                    // Highest applied watermark seen per table.
                    let mut seen = vec![0u64; plan.tables.len()];
                    while Instant::now() < end {
                        let r = next.fetch_add(1, Ordering::Relaxed);
                        for (t, def) in plan.tables.iter().enumerate() {
                            let need = (r + 1) * def.batch as u64;
                            while need > seen[t] + WINDOW {
                                let wm = wt.time("serve.TcpClient::submit", "poll", r, || {
                                    client.submit(t as u16, &[])
                                })?;
                                polls += 1;
                                if let SubmitOutcome::Accepted { watermark, .. } = wm {
                                    seen[t] = seen[t].max(watermark);
                                }
                                if need > seen[t] + WINDOW {
                                    std::thread::sleep(POLL / 5);
                                }
                            }
                            let out =
                                wt.time("serve.TcpClient::submit", def.kind.name(), r, || {
                                    send(client, plan, t, r)
                                })?;
                            seen[t] = seen[t].max(out.watermark);
                            sent += 1;
                            refused += u64::from(!out.in_budget);
                        }
                    }
                    Ok((wt, sent, refused, polls))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("writer thread panicked")).collect()
    });
    for r in results {
        let (wt, sent, refused, polls) = r?;
        tr.spans.extend(wt.spans);
        tally.requests += sent + polls;
        tally.attempted += sent;
        tally.failed += refused;
        if refused > 0 && tally.first_error.is_none() {
            tally.first_error =
                Some(format!("{refused} writes not admitted within {RETRY_BUDGET:?}"));
        }
    }
    *round = next.load(Ordering::Relaxed);
    tr.time("serve.TcpClient::flush", "", 0, || rig.control.flush())?;
    tally.requests += 1;
    let elapsed = start.elapsed().as_secs_f64();
    Ok((*round - first) as f64 * plan.updates_per_round() as f64 / elapsed / 1e6)
}

/// What the open-loop phase observed.
struct Open {
    writes: Vec<Write>,
    queries: Vec<(Sent, Answer)>,
    /// Follower watermarks sampled over the phase.
    samples: Vec<(Instant, Vec<u64>)>,
    lag_records_max: f64,
    /// Per table: stream positions sent.
    lens: Vec<u64>,
}

/// Runs the open-loop phase: batch `g` (round `g / tables`, table
/// `g % tables`) is due at `start + g·period`; writer `w` sends the rounds
/// with `round % writers == w`. Writers continue for [`DRAIN`] past the
/// measured window so every measured update becomes visible unforced.
fn open_phase(
    plan: &Plan,
    rig: &mut Rig,
    len: Duration,
    round0: u64,
    tr: &mut Tracer,
) -> Result<Open, String> {
    let cycle = plan.cycle();
    let writers = rig.writers.len() as u64;
    let rate = OPEN_RATE[usize::from(plan.mode == Mode::Durable)];
    let period = Duration::from_secs_f64(plan.updates_per_round() as f64 / rate / cycle as f64);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + len;
    let schedule = OpenLoop { start, period };
    let stop = AtomicBool::new(false);
    let follower = rig.follower.as_ref().map(Follower::core);
    let reader = rig.reader.as_mut();

    type WriterOut = Result<(Tracer, Vec<Write>), String>;
    let (writer_out, queries, samples, lag_max) = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .writers
            .iter_mut()
            .enumerate()
            .map(|(w, client)| {
                let mut wt = tr.fork();
                s.spawn(move || -> WriterOut {
                    let mine = (0u64..).filter(|g| (g / cycle) % writers == w as u64);
                    let mut replies = Vec::new();
                    let mut error = None;
                    let sent = schedule.run(&mut Wall, mine, end + DRAIN, |g, _| {
                        if error.is_some() {
                            return;
                        }
                        let (round, t) = (round0 + g / cycle, (g % cycle) as usize);
                        let kind = plan.tables[t].kind.name();
                        match wt.time("serve.TcpClient::submit", kind, g, || {
                            send(client, plan, t, round)
                        }) {
                            Ok(out) => replies.push((t, round, Instant::now(), out)),
                            Err(e) => error = Some(e),
                        }
                    });
                    if let Some(e) = error {
                        return Err(e);
                    }
                    let writes = sent
                        .into_iter()
                        .zip(replies)
                        .map(|(s, (table, round, reply_at, out))| Write {
                            table,
                            seq_end: (round + 1) * plan.tables[table].batch as u64,
                            due: s.due,
                            late: s.late,
                            ack: s.latency,
                            reply_at,
                            watermark: out.watermark,
                            in_budget: out.in_budget,
                            measured: s.due < end,
                        })
                        .collect();
                    Ok((wt, writes))
                })
            })
            .collect();
        let reader = reader.map(|client| {
            let mut rt = tr.fork();
            s.spawn(move || -> Result<(Tracer, Vec<(Sent, Answer)>), String> {
                let q = OpenLoop { start, period: Duration::from_secs_f64(1.0 / QUERY_RATE) };
                let (counts, window) =
                    (plan.table(Kind::Counts) as u16, plan.table(Kind::Window) as u16);
                let mut answers = Vec::new();
                let mut error = None;
                let sent = q.run(&mut Wall, 0.., end, |i, _| {
                    if error.is_some() {
                        return;
                    }
                    let answer = match i % 3 {
                        0 => rt
                            .time("serve.TcpClient::snapshot", "counts", i, || {
                                client.snapshot(counts)
                            })
                            .map(|s| Answer::Snapshot {
                                watermark: s.watermark,
                                fnv: fnv(&s.bits()),
                            }),
                        1 => rt
                            .time("serve.TcpClient::window_query", "window", i, || {
                                client.window_query(window, u64::MAX)
                            })
                            .map(|w| Answer::Window { watermark: w.watermark, values: w.values }),
                        _ => rt
                            .time("serve.TcpClient::top_k", "window", i, || {
                                client.top_k(window, TOP_K)
                            })
                            .map(|p| Answer::TopK { watermark: p.watermark, entries: p.entries }),
                    };
                    match answer {
                        Ok(a) => answers.push(a),
                        Err(e) => error = Some(e),
                    }
                });
                match error {
                    Some(e) => Err(e),
                    None => Ok((rt, sent.into_iter().zip(answers).collect())),
                }
            })
        });
        let poller = follower.as_ref().map(|core| {
            let stop = &stop;
            s.spawn(move || {
                let lag = core.registry().gauge("invector_serve_follower_lag_records", "");
                let mut samples = Vec::new();
                let mut lag_max = 0.0f64;
                while !stop.load(Ordering::Relaxed) {
                    samples.push((Instant::now(), core.watermarks()));
                    lag_max = lag_max.max(lag.value());
                    std::thread::sleep(POLL);
                }
                (samples, lag_max)
            })
        });
        let writer_out: Vec<WriterOut> =
            handles.into_iter().map(|h| h.join().expect("writer thread panicked")).collect();
        let queries = reader.map(|h| h.join().expect("reader thread panicked"));
        // Let the follower catch up with everything sent before sampling
        // stops, so every write gets a replica-lag sample.
        if let Some(core) = &follower {
            let target: Vec<u64> = plan
                .tables
                .iter()
                .enumerate()
                .map(|(t, def)| {
                    writer_out
                        .iter()
                        .filter_map(|o| o.as_ref().ok())
                        .flat_map(|(_, w)| w.iter())
                        .filter(|w| w.table == t && w.measured)
                        .map(|w| w.seq_end)
                        .max()
                        .unwrap_or(0)
                        .max(round0 * def.batch as u64)
                })
                .collect();
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline
                && core.watermarks().iter().zip(&target).any(|(have, want)| have < want)
            {
                std::thread::sleep(POLL);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let polled = poller.map(|h| h.join().expect("poller thread panicked"));
        let (samples, lag_max) = polled.unwrap_or_default();
        (writer_out, queries, samples, lag_max)
    });
    let mut writes = Vec::new();
    for out in writer_out {
        let (wt, w) = out?;
        tr.spans.extend(wt.spans);
        writes.extend(w);
    }
    let queries = match queries {
        Some(q) => {
            let (rt, q) = q?;
            tr.spans.extend(rt.spans);
            q
        }
        None => Vec::new(),
    };
    let lens = plan
        .tables
        .iter()
        .enumerate()
        .map(|(t, def)| {
            writes
                .iter()
                .filter(|w| w.table == t)
                .map(|w| w.seq_end)
                .max()
                .unwrap_or(0)
                .max(round0 * def.batch as u64)
        })
        .collect();
    Ok(Open { writes, queries, samples, lag_records_max: lag_max, lens })
}

/// For each measured write, when its update became visible: the first
/// reply (any writer) whose watermark for the table covers the write's
/// last seq.
fn visible_ms(writes: &[Write], tables: usize) -> (Vec<f64>, usize) {
    let mut out = Vec::new();
    let mut unseen = 0;
    for t in 0..tables {
        let mut events: Vec<(Instant, u64)> =
            writes.iter().filter(|w| w.table == t).map(|w| (w.reply_at, w.watermark)).collect();
        events.sort_by_key(|e| e.0);
        let mut high = 0;
        for e in &mut events {
            high = high.max(e.1);
            e.1 = high;
        }
        for w in writes.iter().filter(|w| w.table == t && w.measured) {
            let i = events.partition_point(|e| e.1 < w.seq_end);
            match events.get(i) {
                Some(&(at, _)) => out.push(at.saturating_duration_since(w.due).as_secs_f64() * 1e3),
                None => unseen += 1,
            }
        }
    }
    (out, unseen)
}

/// For each measured write, when the follower's watermark covered it.
fn replica_lag_ms(writes: &[Write], samples: &[(Instant, Vec<u64>)]) -> (Vec<f64>, usize) {
    let mut out = Vec::new();
    let mut unseen = 0;
    for w in writes.iter().filter(|w| w.measured) {
        let i = samples.partition_point(|s| s.1[w.table] < w.seq_end);
        match samples.get(i) {
            Some(&(at, _)) => out.push(at.saturating_duration_since(w.due).as_secs_f64() * 1e3),
            None => unseen += 1,
        }
    }
    (out, unseen)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Checks every reader answer against the reference state at the
/// answer's watermark, replaying the streams forward in watermark order.
fn check_answers(plan: &Plan, queries: &[(Sent, Answer)], tally: &mut Tally) {
    let counts = &plan.tables[plan.table(Kind::Counts)];
    let window = &plan.tables[plan.table(Kind::Window)];
    let watermark = |a: &Answer| match a {
        Answer::Snapshot { watermark, .. }
        | Answer::Window { watermark, .. }
        | Answer::TopK { watermark, .. } => *watermark,
    };
    let mut answers: Vec<&Answer> = queries.iter().map(|(_, a)| a).collect();
    answers.sort_by_key(|a| (matches!(a, Answer::Snapshot { .. }), watermark(a)));
    let mut table = vec![0i32; counts.spec.len];
    let mut table_at = 0u64;
    let (keys, buckets, width) = WINDOW_TABLE;
    let mut sim =
        WindowSim::new(keys as usize, buckets as usize, u64::from(width), false, AggOp::Add);
    let mut sim_at = 0u64;
    for a in answers {
        match a {
            Answer::Snapshot { watermark, fnv: got } => {
                for s in table_at..*watermark {
                    let (k, v) = counts.event(s);
                    table[k as usize] = table[k as usize].wrapping_add(v as i32);
                }
                table_at = table_at.max(*watermark);
                let want = fnv(&table.iter().map(|&v| v as u32).collect::<Vec<_>>());
                tally.check(*got == want, || {
                    format!("snapshot of counts at {watermark}: fnv {got:#x} != {want:#x}")
                });
            }
            Answer::Window { watermark, values } => {
                let events: Vec<(u32, u32)> =
                    (sim_at..*watermark).map(|s| window.event(s)).collect();
                sim.apply(&events);
                sim_at = sim_at.max(*watermark);
                let want: Vec<u32> = sim.slots[..keys as usize].iter().map(|&v| v as u32).collect();
                tally.check(*values == want, || {
                    format!("window query at {watermark} disagrees with the simulator")
                });
            }
            Answer::TopK { watermark, entries } => {
                let events: Vec<(u32, u32)> =
                    (sim_at..*watermark).map(|s| window.event(s)).collect();
                sim.apply(&events);
                sim_at = sim_at.max(*watermark);
                let mut want: Vec<(u32, u32)> = sim.slots[..keys as usize]
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (i as u32, v as u32))
                    .collect();
                want.sort_by(|a, b| (b.1 as i32).cmp(&(a.1 as i32)).then(a.0.cmp(&b.0)));
                want.truncate(TOP_K as usize);
                tally.check(*entries == want, || {
                    format!("top-{TOP_K} at {watermark} disagrees with the simulator")
                });
            }
        }
    }
}

/// Flushes, then checks every table against the serial fold of its
/// stream and the follower's tables against the leader's, bitwise.
fn verify(
    plan: &Plan,
    rig: &mut Rig,
    lens: &[u64],
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    tr.time("serve.TcpClient::flush", "", 0, || rig.control.flush())?;
    let mut leader = Vec::new();
    for (t, def) in plan.tables.iter().enumerate() {
        let snap = tr.time("serve.TcpClient::snapshot", def.kind.name(), 0, || {
            rig.control.snapshot(t as u16)
        })?;
        let bits = snap.bits();
        // The PageRank reference covers the rank region (the first
        // `vertices` slots); the slots after it are engine bookkeeping.
        let want = reference(def, lens[t]);
        let region = &bits[..want.len().min(bits.len())];
        tally.check(snap.watermark == lens[t] && fnv(region) == fnv(&want), || {
            format!(
                "table {}: watermark {} (sent {}), fnv {:#x} vs serial fold {:#x}",
                def.spec.name,
                snap.watermark,
                lens[t],
                fnv(region),
                fnv(&want)
            )
        });
        leader.push(bits);
    }
    if let Some(f) = &rig.follower {
        let core = f.core();
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline && core.watermarks().as_slice() != lens {
            std::thread::sleep(POLL);
        }
        for (t, def) in plan.tables.iter().enumerate() {
            let ok = match core.snapshot(t as u16) {
                Ok(s) => s.watermark == lens[t] && s.bits() == leader[t],
                Err(_) => false,
            };
            tally.check(ok, || format!("follower table {} differs from the leader", def.spec.name));
        }
        let status = f.status();
        tally.check(!matches!(status, FollowStatus::Diverged(_)), || {
            format!("follower: {status:?}")
        });
    }
    Ok(())
}

/// Runs the workload on a set-up rig and records its metrics.
///
/// Untraced: a closed-loop phase for 40% of `seconds`, then the open-loop
/// phase. Traced: the closed loop runs once without and once with spans
/// (the ratio is `trace.overhead`), then the open loop with spans.
///
/// # Errors
///
/// Fails on transport errors.
pub fn run(
    plan: &Plan,
    rig: &mut Rig,
    seconds: f64,
    tr: &mut Tracer,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let traced = tr.enabled();
    let mut round = 0u64;
    let secs = |f: f64| Duration::from_secs_f64(seconds * f);
    let follower = rig.follower.as_ref().map(Follower::core);
    let replayed = |c: &std::sync::Arc<invector_serve::ServerCore>| {
        c.registry().counter("invector_serve_wal_replayed_total", "").value()
    };
    let open_len = if traced {
        let mut off = Tracer::new(false, 0, Instant::now());
        let plain = closed_phase(plan, rig, secs(0.25), &mut round, &mut off, tally)?;
        let before = follower.as_ref().map(replayed);
        let t = Instant::now();
        let with_spans = closed_phase(plan, rig, secs(0.25), &mut round, tr, tally)?;
        if let (Some(core), Some(before)) = (&follower, before) {
            let applied = replayed(core) - before;
            m.put(
                "serve.follower.apply_mups",
                applied as f64 / t.elapsed().as_secs_f64() / 1e6,
                "Mup/s",
            );
        }
        m.put("trace.overhead", plain / with_spans, "ratio");
        m.notes.push(format!("trace.overhead: closed-loop Mup/s without spans {plain:.3} / with spans {with_spans:.3}"));
        secs(0.5)
    } else {
        // A short uncounted segment first warms connections, queues and
        // engine pools.
        closed_phase(plan, rig, secs(0.05), &mut round, tr, tally)?;
        let segments = (0..CLOSED_SEGMENTS)
            .map(|_| {
                closed_phase(
                    plan,
                    rig,
                    secs(CLOSED_SHARE / CLOSED_SEGMENTS as f64),
                    &mut round,
                    tr,
                    tally,
                )
            })
            .collect::<Result<Vec<f64>, String>>()?;
        m.put("ingest_mups", median(&segments), "Mup/s");
        m.notes.push(format!("ingest_mups: median of {CLOSED_SEGMENTS} closed-loop segments, each ended by a flush: {segments:.2?}"));
        secs(1.0 - CLOSED_SHARE)
    };
    let open = open_phase(plan, rig, open_len, round, tr)?;
    tally.attempted += open.queries.len() as u64;
    tally.requests += (open.writes.len() + open.queries.len()) as u64;
    for w in &open.writes {
        tally.check(w.in_budget, || {
            format!("a write to table {} was not admitted within {RETRY_BUDGET:?}", w.table)
        });
    }

    let measured: Vec<&Write> = open.writes.iter().filter(|w| w.measured).collect();
    let mut ack: Vec<f64> = measured.iter().map(|w| ms(w.ack)).collect();
    let late: Vec<f64> = measured.iter().map(|w| ms(w.late)).collect();
    let rtt: Vec<f64> = measured.iter().map(|w| ms(w.ack - w.late) * 1e3).collect();
    let (mut visible, unseen) = visible_ms(&open.writes, plan.tables.len());
    tally.check(unseen == 0, || {
        format!("{unseen} measured writes never became visible before the drain ended")
    });
    for (stem, samples) in [("ack_ms", &mut ack), ("visible_ms", &mut visible)] {
        if let Some(d) = summarize(samples) {
            m.put_dist_ms(stem, &d);
        }
    }
    m.put("serve.tcp_rtt_us_p50", median(&rtt), "us");
    m.put("gen.late_ms_p50", median(&late), "ms");
    m.put("gen.late_ms_max", late.iter().copied().fold(0.0, f64::max), "ms");
    if plan.mode == Mode::Durable {
        let (mut lag, unseen) = replica_lag_ms(&open.writes, &open.samples);
        tally.check(unseen == 0, || format!("{unseen} measured writes never reached the follower"));
        let mut query: Vec<f64> = open.queries.iter().map(|(s, _)| ms(s.latency)).collect();
        for (stem, samples) in [("replica_lag_ms", &mut lag), ("query_ms", &mut query)] {
            if let Some(d) = summarize(samples) {
                m.put_dist_ms(stem, &d);
            }
        }
        m.put("serve.follower.lag_records_max", open.lag_records_max, "records");
        check_answers(plan, &open.queries, tally);
    }
    let stats = tr.time("serve.TcpClient::stats", "", 0, || rig.control.stats())?;
    m.put("serve.occupancy", stats.occupancy, "ratio");
    m.put(
        "serve.reject_ratio",
        stats.rejected as f64 / (stats.applied + stats.rejected).max(1) as f64,
        "ratio",
    );
    m.put("serve.epoch_us_p50", stats.p50_epoch_us, "us");
    m.put("serve.epoch_us_p99", stats.p99_epoch_us, "us");
    let text = tr.time("serve.TcpClient::metrics", "", 0, || rig.control.metrics())?;
    let wakeups = text
        .lines()
        .find_map(|l| l.strip_prefix("invector_serve_wakeups_total "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("no invector_serve_wakeups_total in the metrics scrape")?;
    tally.requests += 2;
    m.put("serve.reactor_wakeups_per_request", wakeups / tally.requests as f64, "ratio");
    verify(plan, rig, &open.lens, tr, tally)
}

/// In-process probe of the stream tables and reads (`serve-durable`
/// traced runs): tick cost per update of the window and PageRank tables,
/// and the latency of `window_query`, `top_k` and `snapshot` called on the
/// core directly.
pub fn stream_probe(
    plan: &Plan,
    threads: usize,
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<bool, String> {
    use invector_serve::ServerCore;
    let probe: Vec<&TableDef> = [Kind::Big, Kind::Window, Kind::Ranks]
        .iter()
        .map(|&k| &plan.tables[plan.table(k)])
        .collect();
    let mut config = ServeConfig::new(probe.iter().map(|d| d.spec.clone()).collect());
    config.threads = threads;
    let core = ServerCore::new(config)?;
    let mut ok = true;
    for (t, def) in probe.iter().enumerate() {
        let n = if def.kind == Kind::Ranks { 1 << 14 } else { 1 << 18 };
        let mut tick = Duration::ZERO;
        for (b, chunk) in (0..n as u64).collect::<Vec<_>>().chunks(def.batch).enumerate() {
            let updates: Vec<Update> = chunk
                .iter()
                .map(|&seq| {
                    let (idx, bits) = def.event(seq);
                    Update { seq, idx, bits }
                })
                .collect();
            let outcome = tr.time("serve.ServerCore::submit", def.kind.name(), b as u64, || {
                if def.kind == Kind::Ranks {
                    let ops: Vec<EdgeOp> =
                        updates.iter().map(|&u| EdgeOp::from_update(u)).collect();
                    core.submit_edge_ops(t as u16, &ops)
                } else {
                    core.submit(t as u16, &updates)
                }
            });
            ok &= matches!(outcome, SubmitOutcome::Accepted { .. });
            if (b + 1) * def.batch % crate::ladder::QUANTUM == 0 {
                let s = Instant::now();
                tr.time("serve.ServerCore::tick", def.kind.name(), b as u64, || core.tick(false));
                tick += s.elapsed();
            }
        }
        let s = Instant::now();
        tr.time("serve.ServerCore::tick", def.kind.name(), 0, || core.tick(true));
        tick += s.elapsed();
        let per = tick.as_nanos() as f64 / n as f64;
        match def.kind {
            Kind::Window => m.put("streamkit.tick_ns_per_update", per, "ns"),
            Kind::Ranks => m.put("streamkit.tick_ns_per_update.pagerank", per, "ns"),
            _ => m.put("serve.tick_ns_per_update.big", per, "ns"),
        }
    }
    let time_us = |f: &mut dyn FnMut() -> bool, reps: usize| -> (f64, bool) {
        let mut ok = true;
        let v: Vec<f64> = (0..reps)
            .map(|_| {
                let s = Instant::now();
                ok &= f();
                s.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        (median(&v), ok)
    };
    let (wq, ok1) = time_us(
        &mut || {
            tr.time("serve.ServerCore::window_query", "window", 0, || {
                core.window_query(1, u64::MAX)
            })
            .is_ok()
        },
        50,
    );
    let (tk, ok2) = time_us(
        &mut || tr.time("serve.ServerCore::top_k", "window", 0, || core.top_k(1, TOP_K)).is_ok(),
        50,
    );
    let (sn, ok3) = time_us(
        &mut || tr.time("serve.ServerCore::snapshot", "big", 0, || core.snapshot(0)).is_ok(),
        20,
    );
    m.put("streamkit.window_query_us", wq, "us");
    m.put("streamkit.top_k_us", tk, "us");
    m.put("serve.snapshot_us", sn, "us");
    Ok(ok && ok1 && ok2 && ok3)
}
