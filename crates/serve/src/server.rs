//! The service core and its TCP front end.
//!
//! [`ServerCore`] is the transport-independent heart: sharded bounded
//! ingest queues, per-table reorder buffers, and the epoch executor that
//! drains micro-batches through the reduction engine. The in-process
//! client and the TCP connection handlers call the same core entry points
//! ([`submit`](ServerCore::submit), [`tick`](ServerCore::tick),
//! [`snapshot`](ServerCore::snapshot)), so behavior over the wire and in
//! process is identical by construction.
//!
//! [`Server`] wraps a core with the readiness-based reactor front end
//! ([`crate::reactor`]: nonblocking listener, a small fixed set of I/O
//! threads, zero-copy frame decode) and a background epoch thread cutting
//! batches on a timer (or as soon as a full quantum is queued).

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use invector_core::exec::{ExecPolicy, ExecVariant, Partition};
use invector_core::stats::DepthHistogram;
use invector_core::tune::{Controller, EpochPolicy, PolicyHandle, PolicyTrace, TraceEntry};
use invector_core::{BackendChoice, TuneConfig};
use invector_obs::Registry;

use invector_streamkit::{StreamKind, ValueRepr};

use crate::epoch::{EpochReport, ServeStats};
use crate::protocol::{EdgeOp, RejectReason, StatsSummary, Update, UpdatesView};
use crate::reactor::{self, ReactorKind};
use crate::table::{TableData, TableSpec, TableState, ValueKind};
use crate::wal::{ManifestEntry, WalOptions, WalRecord, WalState};

/// Server configuration: the resident tables plus sizing/batching knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The resident tables, addressed by position.
    pub tables: Vec<TableSpec>,
    /// Ingest shard count (per-partition queues; admission locks only the
    /// shard an update routes to).
    pub shards: usize,
    /// Epoch batch quantum: micro-batches are exactly this many updates.
    /// A smaller final batch runs only on an explicit flush or the
    /// shutdown drain, which keeps batch cut positions — and therefore
    /// snapshots — independent of arrival timing.
    pub quantum: usize,
    /// Per-shard ingest queue capacity; a full queue rejects with
    /// retry-after instead of blocking or dropping.
    pub queue_capacity: usize,
    /// Reorder window: an update whose `seq` is this far beyond the
    /// table's watermark is rejected (bounds the reorder buffer).
    pub window: u64,
    /// Worker threads for the reduction engine.
    pub threads: usize,
    /// Reduction backend request.
    pub backend: BackendChoice,
    /// Epoch timer period for the background executor thread.
    pub epoch_interval: Duration,
    /// Backoff suggested to rejected clients.
    pub retry_after_ms: u32,
    /// Reactor I/O threads multiplexing every TCP connection.
    pub io_threads: usize,
    /// Open-connection ceiling; accepts beyond it are refused (and
    /// counted) rather than queued.
    pub max_connections: usize,
    /// Per-readiness-event socket read budget per connection (bytes); also
    /// sizes read-ring growth. Bounds how long one chatty connection can
    /// monopolize an I/O thread.
    pub read_buffer_cap: usize,
    /// Write-ring backpressure cap (bytes): past this, the reactor stops
    /// reading from the connection until its replies drain — a slow reader
    /// cannot balloon server memory.
    pub write_buffer_cap: usize,
    /// Readiness backend (`auto` picks epoll on Linux).
    pub reactor: ReactorKind,
    /// Epoch-level self-tuning mode (off, online controller, or trace
    /// replay).
    pub tune: TuneMode,
    /// Durability: log admitted slices to a write-ahead log and publish
    /// periodic snapshot checkpoints (`--wal-dir`). `None` keeps the
    /// server purely in-memory.
    pub wal: Option<WalOptions>,
}

/// How the core manages its execution policy across epochs.
#[derive(Debug, Clone, Default)]
pub enum TuneMode {
    /// The startup policy and quantum stay fixed for the server's life.
    #[default]
    Off,
    /// An online [`Controller`] adapts the policy and quantum between
    /// epochs from completed-epoch metrics; its decisions are recorded as
    /// a [`PolicyTrace`] ([`ServerCore::policy_trace`]).
    Auto(TuneConfig),
    /// Replays a recorded trace: each entry's policy takes effect at the
    /// recorded per-table watermarks, reproducing the tuned run's slice
    /// boundaries — and snapshots — bitwise, without a controller.
    Replay(PolicyTrace),
}

impl ServeConfig {
    /// A configuration with serving defaults for the given tables.
    pub fn new(tables: Vec<TableSpec>) -> ServeConfig {
        ServeConfig {
            tables,
            shards: 4,
            quantum: 4096,
            queue_capacity: 1 << 16,
            window: 1 << 20,
            threads: 1,
            backend: BackendChoice::Auto,
            epoch_interval: Duration::from_millis(1),
            retry_after_ms: 2,
            io_threads: 2,
            max_connections: 4096,
            read_buffer_cap: 64 << 10,
            write_buffer_cap: 256 << 10,
            reactor: ReactorKind::Auto,
            tune: TuneMode::Off,
            wal: None,
        }
    }

    /// The engine policy epochs start under: in-vector reduction,
    /// owner-computes partitioning, deterministic fold — the combination
    /// whose results are a pure function of (batch content, thread count,
    /// quantum), which is what the snapshot contract leans on. Under
    /// tuning this is the controller's starting cell; the variant and
    /// thread count may change between epochs, but partitioning,
    /// determinism, and the backend request are held fixed.
    pub fn policy(&self) -> ExecPolicy {
        ExecPolicy::with_threads(self.threads)
            .variant(ExecVariant::Invec)
            .partition(Partition::OwnerComputes)
            .deterministic(true)
            .backend(self.backend)
    }

    /// The initial epoch policy pair ([`policy`](Self::policy) at the
    /// configured quantum) — what the core's [`PolicyHandle`] starts at.
    pub fn initial_policy(&self) -> EpochPolicy {
        EpochPolicy::new(self.policy(), self.quantum)
    }

    fn validate(&self) -> Result<(), String> {
        if self.tables.is_empty() {
            return Err("at least one table is required".into());
        }
        if self.tables.len() > u16::MAX as usize {
            return Err("table ids are u16".into());
        }
        if let Some(t) = self.tables.iter().find(|t| t.len == 0) {
            return Err(format!("table '{}' has zero slots", t.name));
        }
        for t in &self.tables {
            t.validate_stream().map_err(|e| format!("table '{}': {e}", t.name))?;
        }
        if self.shards == 0 || self.quantum == 0 || self.queue_capacity == 0 || self.threads == 0 {
            return Err("shards, quantum, queue_capacity, and threads must be >= 1".into());
        }
        if self.window == 0 {
            return Err("reorder window must be >= 1".into());
        }
        if self.io_threads == 0 || self.max_connections == 0 {
            return Err("io_threads and max_connections must be >= 1".into());
        }
        if self.read_buffer_cap < 1024 || self.write_buffer_cap < 1024 {
            return Err("read/write buffer caps must be >= 1 KiB".into());
        }
        if self.wal.is_some() && matches!(self.tune, TuneMode::Auto(_)) {
            // Online tuning decisions are not captured in batch records, so
            // replaying the log could cut different slice boundaries and
            // recover different bits. Record a trace and use Replay.
            return Err("a WAL cannot be combined with online tuning (TuneMode::Auto); \
                        record a policy trace and use TuneMode::Replay"
                .into());
        }
        Ok(())
    }
}

/// Outcome of one [`ServerCore::submit`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Every update was admitted.
    Accepted {
        /// Updates admitted (the whole batch).
        accepted: u32,
        /// The table's applied watermark when the batch was admitted.
        watermark: u64,
    },
    /// Admission stopped early; retry the remainder after the backoff.
    Rejected {
        /// Updates admitted before the refusal point (a prefix of the
        /// batch — nothing after it was admitted, preserving per-client
        /// submission order).
        accepted: u32,
        /// Suggested backoff.
        retry_after_ms: u32,
        /// Why admission stopped.
        reason: RejectReason,
    },
    /// Client error (unknown table, index out of range); nothing admitted
    /// beyond `accepted` and the batch must not be retried as-is.
    Failed(String),
}

/// One table snapshot: applied watermark plus the slot bit patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Table id.
    pub table: u16,
    /// Stream positions folded in (`seq < watermark`).
    pub watermark: u64,
    /// CRC-32 over the slot bit patterns ([`snapshot_checksum`]), computed
    /// under the table lock so it always matches `data`.
    pub checksum: u32,
    /// Typed table contents.
    pub data: TableData,
}

impl Snapshot {
    /// Raw slot bit patterns — the unit of bitwise comparison.
    pub fn bits(&self) -> Vec<u32> {
        self.data.to_bits()
    }
}

/// One window-bucket read ([`ServerCore::window_query`]): the bucket's
/// per-key aggregate values, tagged with the table watermark they were
/// consistent at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSnapshot {
    /// Table id.
    pub table: u16,
    /// Stream positions folded in when the bucket was read.
    pub watermark: u64,
    /// Bucket id the values belong to.
    pub bucket: u64,
    /// Buckets retracted so far.
    pub expired: u64,
    /// Per-key aggregate bit patterns.
    pub values: Vec<u32>,
}

/// One top-k read ([`ServerCore::top_k`]): the k largest slots of the
/// table's query region, value-descending with index-ascending ties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKPage {
    /// Table id.
    pub table: u16,
    /// Stream positions folded in when the page was read.
    pub watermark: u64,
    /// `(slot index, value bit pattern)` pairs, largest value first.
    pub entries: Vec<(u32, u32)>,
}

/// A consistent all-table state pinned for chunked transfer
/// ([`ServerCore::pin_state`]): every table at the same epoch boundary,
/// plus the log position the tables correspond to — the follower
/// bootstrap point.
#[derive(Debug)]
pub struct PinnedState {
    /// Checkpoint generation of the pinned log position.
    pub checkpoint: u64,
    /// Log index within the generation (records before it are already
    /// folded into the pinned tables).
    pub index: u64,
    /// Per-table pinned contents, in id order.
    pub tables: Vec<PinnedTable>,
}

/// One table inside a [`PinnedState`].
#[derive(Debug)]
pub struct PinnedTable {
    /// Applied watermark at the pin point.
    pub watermark: u64,
    /// CRC-32 over `bits` ([`crate::protocol::snapshot_checksum`]).
    pub checksum: u32,
    /// Slot bit patterns at the pin point.
    pub bits: Vec<u32>,
}

/// A follower's log-tail fetch result ([`ServerCore::log_tail`]).
#[derive(Debug)]
pub struct LogTailPage {
    /// The server's current checkpoint generation.
    pub checkpoint: u64,
    /// Index to request next.
    pub next_index: u64,
    /// Records currently in the generation (fetch lag = `head - next`).
    pub head: u64,
    /// True when the requested generation is gone (a checkpoint
    /// truncated it) — the follower must re-bootstrap.
    pub reset: bool,
    /// Framed record payloads `[index, next_index)`.
    pub records: Vec<Vec<u8>>,
}

/// An update staged in a shard queue (table id + update).
#[derive(Debug, Clone, Copy)]
struct Staged {
    table: u16,
    update: Update,
}

/// The transport-independent service: ingest, epoch execution, snapshots.
#[derive(Debug)]
pub struct ServerCore {
    config: ServeConfig,
    /// The one swappable route to the active policy/quantum pair: the
    /// admission threshold reads it per batch, the tuning hook installs
    /// into it between epochs.
    policy: PolicyHandle,
    /// Per-shard bounded ingest queues.
    shards: Vec<Mutex<VecDeque<Staged>>>,
    /// Per-table state (values + reorder buffer), locked independently.
    tables: Vec<Mutex<TableState>>,
    /// Published per-table watermarks (read by admission without taking
    /// table locks).
    watermarks: Vec<AtomicU64>,
    /// Updates sitting in shard queues (not yet stolen by an epoch).
    queued: AtomicUsize,
    /// Serializes epoch execution.
    tick_lock: Mutex<()>,
    /// Per-core metric registry the stats handles point into (also the
    /// scrape source for the `Metrics` verb).
    registry: Registry,
    /// Registry-backed service statistics. Record-side calls are
    /// lock-free, so admission and the epoch executor never serialize on
    /// a stats mutex.
    stats: ServeStats,
    /// Durability state, present when the config names a WAL directory.
    /// Lock order: tick lock → WAL → table locks.
    wal: Option<Mutex<WalState>>,
    /// A read-only core (follower mode) fails every submit; epochs are
    /// driven by replica application instead of the ingest path.
    read_only: AtomicBool,
    draining: AtomicBool,
    /// Signals the background epoch thread that a full quantum is queued.
    wake: Condvar,
    wake_lock: Mutex<bool>,
    /// Tuning state: the optional controller, the recorded decision
    /// trace, and the completed-non-empty-epoch count. Touched only under
    /// the tick lock (plus trace reads), so the admission path never sees
    /// it.
    tuning: Mutex<TuneState>,
}

/// The core's tuning state, behind one mutex.
#[derive(Debug, Default)]
struct TuneState {
    /// The online controller (`TuneMode::Auto` only).
    controller: Option<Controller>,
    /// Every policy install, keyed by per-table watermarks.
    trace: Vec<TraceEntry>,
    /// Completed epochs that applied at least one slice.
    epochs: u64,
    /// When the previous non-empty epoch completed, for end-to-end frame
    /// cost attribution (see [`ServerCore::tune_observe`]).
    last_epoch: Option<Instant>,
}

/// Cap on how much inter-epoch wall time an epoch frame may report,
/// as a multiple of its in-epoch execution time. Under saturating load
/// the admission path costs a small multiple of execution; anything far
/// beyond that is client idle time, which would otherwise be billed to
/// whatever policy happens to be active.
const TUNE_IDLE_CLAMP: u64 = 64;

impl ServerCore {
    /// Builds a core from `config`.
    ///
    /// # Errors
    ///
    /// Returns a message for structurally invalid configurations (no
    /// tables, zero-sized knobs).
    pub fn new(config: ServeConfig) -> Result<Arc<ServerCore>, String> {
        config.validate()?;
        let initial = config.initial_policy();
        let policy = PolicyHandle::new(initial);
        let shards = (0..config.shards)
            .map(|_| Mutex::new(VecDeque::with_capacity(config.queue_capacity.min(1024))))
            .collect();
        let mut tables: Vec<Mutex<TableState>> = config
            .tables
            .iter()
            .map(|spec| Mutex::new(TableState::new(spec.clone(), initial)))
            .collect();
        let controller = match &config.tune {
            TuneMode::Off => None,
            TuneMode::Auto(tc) => Some(Controller::new(tc.clone(), initial)?),
            TuneMode::Replay(trace) => {
                // Preload every table's schedule up front: replay needs no
                // per-epoch decisions, only the recorded cut boundaries.
                for (i, entry) in trace.iter().enumerate() {
                    if entry.at.len() != tables.len() {
                        return Err(format!(
                            "trace entry {i} records {} table watermarks, server has {}",
                            entry.at.len(),
                            tables.len()
                        ));
                    }
                }
                for (t, table) in tables.iter_mut().enumerate() {
                    let state = table.get_mut().expect("table lock");
                    for entry in trace {
                        state.push_policy(entry.at[t], entry.policy);
                    }
                }
                None
            }
        };
        // Durable mode: load the latest checkpoint and replay the log tail
        // through the normal slice path before serving a single request.
        // Any integrity failure is a refusal to serve, never a silent
        // fresh start over data that existed.
        let mut replayed_updates = 0u64;
        let wal = match config.wal.clone() {
            None => None,
            Some(options) => {
                let (state, recovery) = WalState::open(options, &config.tables)?;
                for (t, (data, watermark)) in recovery.installed.into_iter().enumerate() {
                    tables[t].get_mut().expect("table lock").install(data, watermark)?;
                }
                for (i, record) in recovery.replay.iter().enumerate() {
                    match record {
                        WalRecord::Batch { table, updates } => {
                            let state = tables
                                .get_mut(*table as usize)
                                .ok_or_else(|| {
                                    format!("WAL record {i} names unknown table {table}")
                                })?
                                .get_mut()
                                .expect("table lock");
                            state
                                .apply_logged(updates)
                                .map_err(|e| format!("WAL record {i}: {e}"))?;
                            replayed_updates += updates.len() as u64;
                        }
                        WalRecord::Seal { table, watermark, crc } => {
                            let state = tables
                                .get_mut(*table as usize)
                                .ok_or_else(|| {
                                    format!("WAL record {i} names unknown table {table}")
                                })?
                                .get_mut()
                                .expect("table lock");
                            if state.watermark() != *watermark {
                                return Err(format!(
                                    "WAL seal {i}: table {table} replayed to watermark {}, \
                                     seal says {watermark}",
                                    state.watermark()
                                ));
                            }
                            let got = state.checksum();
                            if got != *crc {
                                return Err(format!(
                                    "WAL seal {i}: table {table} state checksum {got:#010x} \
                                     != sealed {crc:#010x} — refusing to serve diverged state",
                                ));
                            }
                        }
                    }
                }
                Some(Mutex::new(state))
            }
        };
        let watermarks = tables
            .iter_mut()
            .map(|t| AtomicU64::new(t.get_mut().expect("table lock").watermark()))
            .collect();
        let registry = Registry::new();
        let stats = ServeStats::new(&registry);
        stats.record_wal_replayed(replayed_updates);
        let core = Arc::new(ServerCore {
            config,
            policy,
            shards,
            tables,
            watermarks,
            queued: AtomicUsize::new(0),
            tick_lock: Mutex::new(()),
            registry,
            stats,
            wal,
            read_only: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            wake: Condvar::new(),
            wake_lock: Mutex::new(false),
            tuning: Mutex::new(TuneState { controller, ..TuneState::default() }),
        });
        // Duplicates live in the tables' reorder buffers; bridge them into
        // the scrape as a pull collector (table locks are only taken at
        // scrape/summary time, never on the hot path).
        let weak = Arc::downgrade(&core);
        core.registry.register_collector(
            "invector_serve_duplicates_total",
            "duplicate sequence numbers dropped by the reorder buffers",
            move || {
                weak.upgrade().map_or(0, |core| {
                    core.tables.iter().map(|t| t.lock().expect("table lock").duplicates()).sum()
                })
            },
        );
        Ok(core)
    }

    /// The configuration the core was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Which ingest shard an update for `table` routes to: contiguous
    /// index ranges, so a shard is a partition of the key space.
    fn shard_of(&self, table: u16, idx: u32) -> usize {
        let len = self.config.tables[table as usize].len as u64;
        ((u64::from(idx) * self.config.shards as u64) / len) as usize
    }

    /// Admits a batch of updates for `table` into the ingest queues.
    ///
    /// Admission is all-or-prefix: updates are considered in order and the
    /// first refusal (full shard queue, reorder window, drain mode) stops
    /// the batch, returning how many were admitted. Nothing is ever
    /// silently dropped — a refused update is the client's to retry.
    pub fn submit(&self, table: u16, updates: &[Update]) -> SubmitOutcome {
        self.submit_stream(table, updates.len(), updates.iter().copied())
    }

    /// Admits a borrowed wire-format batch — the reactor's zero-copy path.
    ///
    /// Each update is materialized from the frame bytes one record at a
    /// time as the admission loop reaches it; the batch never exists as an
    /// intermediate `Vec<Update>`. Semantics are identical to
    /// [`submit`](ServerCore::submit) by construction (both are the same
    /// streaming loop).
    pub fn submit_view(&self, table: u16, updates: &UpdatesView<'_>) -> SubmitOutcome {
        self.submit_stream(table, updates.len(), updates.iter())
    }

    /// The shared all-or-prefix admission loop over any update stream.
    fn submit_stream(
        &self,
        table: u16,
        total: usize,
        updates: impl Iterator<Item = Update>,
    ) -> SubmitOutcome {
        if table as usize >= self.tables.len() {
            return SubmitOutcome::Failed(format!(
                "unknown table {table} ({} registered)",
                self.tables.len()
            ));
        }
        if self.read_only.load(Ordering::Acquire) {
            return SubmitOutcome::Failed("read-only follower: submit to the leader".into());
        }
        let spec = &self.config.tables[table as usize];
        let mut accepted = 0u32;
        for u in updates {
            if self.draining.load(Ordering::Acquire) {
                return self.reject(table, accepted, total, RejectReason::Draining);
            }
            if (u.idx as usize) >= spec.len {
                self.stats.record_rejects((total - accepted as usize) as u64);
                return SubmitOutcome::Failed(format!(
                    "index {} out of range for table '{}' ({} slots); {} admitted",
                    u.idx, spec.name, spec.len, accepted
                ));
            }
            let watermark = self.watermarks[table as usize].load(Ordering::Acquire);
            if u.seq >= watermark.saturating_add(self.config.window) {
                return self.reject(table, accepted, total, RejectReason::WindowExceeded);
            }
            let shard = self.shard_of(table, u.idx);
            {
                let mut q = self.shards[shard].lock().expect("shard lock");
                if q.len() >= self.config.queue_capacity {
                    drop(q);
                    return self.reject(table, accepted, total, RejectReason::QueueFull);
                }
                q.push_back(Staged { table, update: u });
            }
            accepted += 1;
            self.queued.fetch_add(1, Ordering::AcqRel);
        }
        if self.queued.load(Ordering::Acquire) >= self.policy.quantum() {
            self.notify_epoch_thread();
        }
        SubmitOutcome::Accepted {
            accepted,
            watermark: self.watermarks[table as usize].load(Ordering::Acquire),
        }
    }

    fn reject(
        &self,
        _table: u16,
        accepted: u32,
        batch: usize,
        reason: RejectReason,
    ) -> SubmitOutcome {
        self.stats.record_rejects((batch - accepted as usize) as u64);
        // Any queued full quantum should get cut promptly so the retry
        // succeeds.
        self.notify_epoch_thread();
        SubmitOutcome::Rejected {
            accepted,
            retry_after_ms: self.config.retry_after_ms.max(1),
            reason,
        }
    }

    /// Runs one epoch: steals every shard queue, buffers the stolen
    /// updates in their tables' reorder buffers, and applies full-quantum
    /// batch slices (plus, with `drain`, each table's final partial
    /// slice) through the reduction engine.
    ///
    /// Ticks are serialized; concurrent callers line up. Safe to call from
    /// any thread — tests and the in-process client drive it directly,
    /// the background epoch thread drives it in a live server.
    pub fn tick(&self, drain: bool) -> EpochReport {
        let _epoch = self.tick_lock.lock().expect("tick lock");
        let start = Instant::now();

        // Steal arrivals shard by shard, bucketed by table in one pass;
        // admission only ever appends, so holding each lock briefly is
        // enough.
        let mut stolen: Vec<Vec<Update>> = vec![Vec::new(); self.tables.len()];
        let mut n_stolen = 0;
        for shard in &self.shards {
            let mut q = shard.lock().expect("shard lock");
            n_stolen += q.len();
            for s in q.drain(..) {
                stolen[s.table as usize].push(s.update);
            }
        }
        self.queued.fetch_sub(n_stolen, Ordering::AcqRel);

        // Route to reorder buffers and cut batches, one table at a time.
        // Each table cuts under its own watermark-keyed policy schedule.
        // With a WAL, the log is held across the whole cut (lock order:
        // tick → WAL → table) and every slice is appended *before* it is
        // applied — the write-ahead point. A WAL I/O failure is a
        // deliberate panic: continuing would apply unlogged slices, and a
        // crash here is exactly what recovery is built for.
        let mut wal = self.wal.as_ref().map(|w| w.lock().expect("wal lock"));
        let mut report = EpochReport::default();
        let mut depth = DepthHistogram::new();
        for (t, (table, arrivals)) in self.tables.iter().zip(stolen).enumerate() {
            let mut state = table.lock().expect("table lock");
            for update in arrivals {
                state.absorb(update);
            }
            let before = state.watermark();
            let slices = match wal.as_deref_mut() {
                None => state.cut_scheduled(drain),
                Some(wal) => state.cut_scheduled_logged(drain, &mut |chunk| {
                    let record = WalRecord::Batch { table: t as u16, updates: chunk.to_vec() };
                    let bytes = wal.append(&record).expect("WAL append failed");
                    self.stats.record_wal_append(bytes);
                }),
            };
            for slice in &slices {
                report.applied += slice.applied;
                report.slices += 1;
                report.offered += slice.offered;
                report.vectors += slice.vectors;
                depth.merge(&slice.depth);
            }
            if let Some(wal) = wal.as_deref_mut() {
                if state.watermark() != before {
                    // Seal the table's epoch: watermark + post-apply state
                    // CRC, the per-epoch checksum recovery verifies and
                    // followers compare.
                    let record = WalRecord::Seal {
                        table: t as u16,
                        watermark: state.watermark(),
                        crc: state.checksum(),
                    };
                    let bytes = wal.append(&record).expect("WAL append failed");
                    self.stats.record_wal_append(bytes);
                }
            }
            self.watermarks[t].store(state.watermark(), Ordering::Release);
        }
        if let Some(wal) = wal.as_deref_mut() {
            if report.slices > 0 {
                if wal.sync_epoch().expect("WAL sync failed") {
                    self.stats.record_wal_fsync();
                }
                if wal.note_epoch() {
                    self.checkpoint_locked(wal);
                }
            }
        }
        drop(wal);
        report.elapsed = start.elapsed();
        self.stats.record_epoch(&report, &depth);
        self.tune_observe(&report, &depth);
        report
    }

    /// Publishes a snapshot checkpoint (caller holds the tick lock and the
    /// WAL lock): every table's state goes to the snapshot store under a
    /// manifest of per-table checksums, then the log truncates.
    fn checkpoint_locked(&self, wal: &mut WalState) {
        let mut entries = Vec::with_capacity(self.tables.len());
        let mut records = Vec::with_capacity(self.tables.len());
        for (t, (table, spec)) in self.tables.iter().zip(&self.config.tables).enumerate() {
            let state = table.lock().expect("table lock");
            entries.push(ManifestEntry {
                table: t as u16,
                kind: spec.kind,
                op: spec.op,
                len: spec.len as u64,
                watermark: state.watermark(),
                checksum: state.checksum(),
            });
            records.push(crate::wal::encode_checkpoint_table(
                t as u16,
                state.watermark(),
                state.data(),
            ));
        }
        wal.publish_checkpoint(&entries, &records).expect("WAL checkpoint publish failed");
        self.stats.record_wal_checkpoint();
    }

    /// The epoch-boundary tuning hook, still under the tick lock.
    ///
    /// Feeds the completed epoch's metric frame to the controller; an
    /// accepted decision is scheduled on every table at its **current
    /// watermark** — an exact slice boundary, since all cutting for this
    /// epoch is done and admission never advances watermarks. Decisions
    /// therefore depend only on completed-epoch metrics and take effect
    /// only at recorded boundaries, which is what keeps tuned snapshots
    /// replayable bitwise from the trace.
    fn tune_observe(&self, report: &EpochReport, depth: &DepthHistogram) {
        if report.slices == 0 {
            return;
        }
        let mut tuning = self.tuning.lock().expect("tune lock");
        tuning.epochs += 1;
        let epoch = tuning.epochs;
        if tuning.controller.is_none() {
            return;
        }
        let mut frame = self.stats.frame(
            epoch,
            report,
            depth,
            self.queued.load(Ordering::Acquire) as u64,
            self.policy.current(),
        );
        // Score end-to-end, not just in-epoch: the updates applied this
        // epoch cost everything since the last non-empty epoch — admission,
        // reorder-buffer residency, and execution. In-epoch time alone
        // would reward huge quanta whose cost hides on the submit path.
        // Clamped so client idle time is not billed to the active policy.
        let now = Instant::now();
        if let Some(prev) = tuning.last_epoch {
            let delta = now.duration_since(prev).as_nanos() as u64;
            let floor = frame.busy_ns.max(1);
            frame.busy_ns = delta.clamp(floor, floor.saturating_mul(TUNE_IDLE_CLAMP));
        }
        tuning.last_epoch = Some(now);
        let controller = tuning.controller.as_mut().expect("checked above");
        if let Some(next) = controller.observe(&frame) {
            let mut at = Vec::with_capacity(self.tables.len());
            for table in &self.tables {
                let mut state = table.lock().expect("table lock");
                let wm = state.watermark();
                state.push_policy(wm, next);
                at.push(wm);
            }
            self.policy.install(next);
            tuning.trace.push(TraceEntry { epoch, policy: next, at });
        }
    }

    /// Forces a full drain of every contiguous pending update (including
    /// partial batches) — the `Flush` request. Returns the epoch report.
    pub fn flush(&self) -> EpochReport {
        self.tick(true)
    }

    /// Snapshots one table: watermark plus a copy of the slot values.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown table ids.
    pub fn snapshot(&self, table: u16) -> Result<Snapshot, String> {
        let state = self
            .tables
            .get(table as usize)
            .ok_or_else(|| format!("unknown table {table}"))?
            .lock()
            .expect("table lock");
        let data = state.data().clone();
        let checksum = state.checksum();
        Ok(Snapshot { table, watermark: state.watermark(), checksum, data })
    }

    /// Admits a batch of edge ops for a graph stream table (the `EdgeOps`
    /// verb). Endpoints are validated against the table's vertex range up
    /// front, then the batch goes through the ordinary all-or-prefix
    /// admission loop — on the wire, in the WAL and in replication an edge
    /// op *is* an update record.
    pub fn submit_edge_ops(&self, table: u16, ops: &[EdgeOp]) -> SubmitOutcome {
        self.submit_edge_stream(table, ops.len(), ops.iter().copied())
    }

    /// Admits a borrowed wire-format edge-op batch — the reactor's
    /// zero-copy path for the `EdgeOps` verb.
    pub fn submit_edge_ops_view(&self, table: u16, ops: &UpdatesView<'_>) -> SubmitOutcome {
        self.submit_edge_stream(table, ops.len(), ops.iter().map(EdgeOp::from_update))
    }

    fn submit_edge_stream(
        &self,
        table: u16,
        total: usize,
        ops: impl Iterator<Item = EdgeOp> + Clone,
    ) -> SubmitOutcome {
        let Some(spec) = self.config.tables.get(table as usize) else {
            return SubmitOutcome::Failed(format!(
                "unknown table {table} ({} registered)",
                self.tables.len()
            ));
        };
        let vertices = match spec.stream {
            StreamKind::GraphPageRank { vertices, .. } | StreamKind::GraphWcc { vertices } => {
                vertices
            }
            _ => {
                return SubmitOutcome::Failed(format!(
                    "table '{}' is not a graph stream table",
                    spec.name
                ))
            }
        };
        for op in ops.clone() {
            if op.src >= vertices || op.dst >= vertices {
                self.stats.record_rejects(total as u64);
                return SubmitOutcome::Failed(format!(
                    "edge ({}, {}) out of range for table '{}' of {vertices} vertices",
                    op.src, op.dst, spec.name
                ));
            }
        }
        self.submit_stream(table, total, ops.map(EdgeOp::to_update))
    }

    /// Reads one bucket of a window stream table (the `WindowQuery` verb):
    /// a live bucket id, the most recently retracted bucket, or `u64::MAX`
    /// for the current window aggregate.
    ///
    /// # Errors
    ///
    /// Fails on unknown tables, non-window tables, and bucket ids that are
    /// neither live nor the last retracted.
    pub fn window_query(&self, table: u16, bucket: u64) -> Result<WindowSnapshot, String> {
        let state = self
            .tables
            .get(table as usize)
            .ok_or_else(|| format!("unknown table {table}"))?
            .lock()
            .expect("table lock");
        let engine = state
            .engine()
            .ok_or_else(|| format!("table '{}' is not a stream table", state.spec().name))?;
        let TableData::I32(slots) = state.data() else {
            return Err(format!("table '{}' is not a stream table", state.spec().name));
        };
        let read = engine
            .window_query(slots, bucket)
            .map_err(|e| format!("table '{}': {e}", state.spec().name))?;
        Ok(WindowSnapshot {
            table,
            watermark: state.watermark(),
            bucket: read.bucket,
            expired: read.expired,
            values: read.values,
        })
    }

    /// Reads the `k` largest slots of a table's query region (the `TopK`
    /// verb): graph per-vertex values, window per-key aggregates, or the
    /// whole table when flat. Entries come back value-descending with ties
    /// broken by ascending slot index.
    ///
    /// # Errors
    ///
    /// Fails on unknown tables and `k` outside `[1, region]`.
    pub fn top_k(&self, table: u16, k: u32) -> Result<TopKPage, String> {
        let state = self
            .tables
            .get(table as usize)
            .ok_or_else(|| format!("unknown table {table}"))?
            .lock()
            .expect("table lock");
        let bits = state.data().to_bits();
        let (region, repr) = match state.engine() {
            Some(engine) => engine.value_region(),
            None => (
                bits.len(),
                match state.spec().kind {
                    ValueKind::F32 => ValueRepr::F32Bits,
                    ValueKind::I32 => ValueRepr::I32,
                },
            ),
        };
        if k == 0 || k as usize > region {
            return Err(format!(
                "top-k of {k} out of range for table '{}' with a query region of {region} slots",
                state.spec().name
            ));
        }
        let mut entries: Vec<(u32, u32)> =
            bits[..region].iter().enumerate().map(|(i, &b)| (i as u32, b)).collect();
        entries.sort_by(|a, b| {
            let ord = match repr {
                ValueRepr::F32Bits => f32::from_bits(b.1).total_cmp(&f32::from_bits(a.1)),
                ValueRepr::I32 => (b.1 as i32).cmp(&(a.1 as i32)),
            };
            ord.then(a.0.cmp(&b.0))
        });
        entries.truncate(k as usize);
        Ok(TopKPage { table, watermark: state.watermark(), entries })
    }

    /// Pins a consistent all-table state for chunked transfer: every
    /// table's bits at one epoch boundary, plus the log position they
    /// correspond to (generation 0, index 0 without a WAL). Runs under
    /// the tick lock so no epoch can interleave between tables.
    pub fn pin_state(&self) -> Arc<PinnedState> {
        let _epoch = self.tick_lock.lock().expect("tick lock");
        let wal = self.wal.as_ref().map(|w| w.lock().expect("wal lock"));
        let (checkpoint, index) = wal.as_ref().map_or((0, 0), |w| (w.checkpoint(), w.head()));
        let tables = self
            .tables
            .iter()
            .map(|table| {
                let state = table.lock().expect("table lock");
                PinnedTable {
                    watermark: state.watermark(),
                    checksum: state.checksum(),
                    bits: state.data().to_bits(),
                }
            })
            .collect();
        Arc::new(PinnedState { checkpoint, index, tables })
    }

    /// Serves a follower's log fetch from `index` within `checkpoint`.
    ///
    /// # Errors
    ///
    /// Fails when the server has no WAL, or `index` is beyond the head.
    pub fn log_tail(
        &self,
        checkpoint: u64,
        index: u64,
        max_bytes: u32,
    ) -> Result<LogTailPage, String> {
        let wal = self
            .wal
            .as_ref()
            .ok_or("server has no WAL; start the leader with --wal-dir to replicate")?
            .lock()
            .expect("wal lock");
        if checkpoint != wal.checkpoint() {
            // The requested generation was truncated by a checkpoint (or
            // never existed): the follower must re-bootstrap.
            return Ok(LogTailPage {
                checkpoint: wal.checkpoint(),
                next_index: 0,
                head: wal.head(),
                reset: true,
                records: Vec::new(),
            });
        }
        if index > wal.head() {
            return Err(format!("log index {index} beyond head {}", wal.head()));
        }
        let records = wal.records_from(index, max_bytes);
        Ok(LogTailPage {
            checkpoint: wal.checkpoint(),
            next_index: index + records.len() as u64,
            head: wal.head(),
            reset: false,
            records,
        })
    }

    /// Marks the core read-only (follower mode): every submit fails and
    /// state advances only through [`apply_replica`](Self::apply_replica).
    pub fn set_read_only(&self, read_only: bool) {
        self.read_only.store(read_only, Ordering::Release);
    }

    /// `true` for a follower core.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(Ordering::Acquire)
    }

    /// Installs bootstrap state on a fresh follower core: every table's
    /// bits and watermark from an assembled snapshot transfer.
    ///
    /// # Errors
    ///
    /// Fails if the table count mismatches or any table is not fresh.
    pub fn install_snapshot(&self, installs: Vec<(TableData, u64)>) -> Result<(), String> {
        let _epoch = self.tick_lock.lock().expect("tick lock");
        if installs.len() != self.tables.len() {
            return Err(format!(
                "snapshot has {} tables, core has {}",
                installs.len(),
                self.tables.len()
            ));
        }
        for (t, (data, watermark)) in installs.into_iter().enumerate() {
            let mut state = self.tables[t].lock().expect("table lock");
            state.install(data, watermark)?;
            self.watermarks[t].store(watermark, Ordering::Release);
        }
        Ok(())
    }

    /// Applies one replicated log record — the follower's epoch path.
    /// `Batch` records replay a logged slice; `Seal` records verify the
    /// table's watermark and state checksum against the leader's, so any
    /// divergence surfaces exactly at the epoch that introduced it.
    ///
    /// # Errors
    ///
    /// Fails on a malformed record, a non-contiguous slice, or a seal
    /// mismatch (divergence).
    pub fn apply_replica(&self, record: &WalRecord) -> Result<(), String> {
        let _epoch = self.tick_lock.lock().expect("tick lock");
        match record {
            WalRecord::Batch { table, updates } => {
                let mut state = self
                    .tables
                    .get(*table as usize)
                    .ok_or_else(|| format!("replica batch for unknown table {table}"))?
                    .lock()
                    .expect("table lock");
                state.apply_logged(updates)?;
                self.watermarks[*table as usize].store(state.watermark(), Ordering::Release);
                self.stats.record_wal_replayed(updates.len() as u64);
                Ok(())
            }
            WalRecord::Seal { table, watermark, crc } => {
                let state = self
                    .tables
                    .get(*table as usize)
                    .ok_or_else(|| format!("replica seal for unknown table {table}"))?
                    .lock()
                    .expect("table lock");
                if state.watermark() != *watermark {
                    return Err(format!(
                        "divergence: table {table} at watermark {}, leader sealed {watermark}",
                        state.watermark()
                    ));
                }
                let got = state.checksum();
                if got != *crc {
                    return Err(format!(
                        "divergence: table {table} state checksum {got:#010x} != leader's \
                         {crc:#010x} at watermark {watermark}",
                    ));
                }
                self.stats.record_follower_verified();
                Ok(())
            }
        }
    }

    /// The follower-lag gauge hook (records still to fetch).
    pub fn note_follower_lag(&self, records: u64) {
        self.stats.set_follower_lag(records);
    }

    /// Current aggregate statistics.
    pub fn stats_summary(&self) -> StatsSummary {
        let duplicates =
            self.tables.iter().map(|t| t.lock().expect("table lock").duplicates()).sum();
        self.stats.summarize(duplicates)
    }

    /// The per-core metric registry (service counters, histograms, and
    /// the duplicates collector).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Prometheus text exposition: this core's service metrics followed by
    /// the process-wide registry (SIMD instruction accounting, engine and
    /// pool counters). The two registries use disjoint name prefixes
    /// (`invector_serve_` vs `invector_simd_` / `invector_exec_`), so the
    /// concatenation is a valid single exposition.
    pub fn metrics_text(&self) -> String {
        let mut text = invector_obs::prometheus(&self.registry);
        text.push_str(&invector_obs::prometheus(Registry::global()));
        text
    }

    /// The active epoch policy (the tuned values under `TuneMode::Auto`).
    pub fn current_policy(&self) -> EpochPolicy {
        self.policy.current()
    }

    /// The core's policy handle (shared; installs take effect from the
    /// next epoch — prefer `TuneMode` over manual installs in servers,
    /// which records the trace for replay).
    pub fn policy_handle(&self) -> &PolicyHandle {
        &self.policy
    }

    /// Every policy install so far, keyed by per-table watermarks —
    /// feed it to `TuneMode::Replay` to reproduce this run's snapshots
    /// bitwise without a controller.
    pub fn policy_trace(&self) -> PolicyTrace {
        self.tuning.lock().expect("tune lock").trace.clone()
    }

    /// Completed epochs that applied at least one slice.
    pub fn epochs_completed(&self) -> u64 {
        self.tuning.lock().expect("tune lock").epochs
    }

    /// Applied watermark per table, in id order.
    pub fn watermarks(&self) -> Vec<u64> {
        self.watermarks.iter().map(|w| w.load(Ordering::Acquire)).collect()
    }

    /// `true` once shutdown has begun (admission refuses new updates).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Begins shutdown: admission switches to reject-with-`Draining`, then
    /// every contiguous pending update is applied. Returns the final
    /// per-table watermarks.
    pub fn begin_shutdown(&self) -> Vec<u64> {
        self.draining.store(true, Ordering::Release);
        self.flush();
        self.notify_epoch_thread();
        self.watermarks()
    }

    fn notify_epoch_thread(&self) {
        let mut pending = self.wake_lock.lock().expect("wake lock");
        *pending = true;
        self.wake.notify_all();
    }

    /// The background epoch loop: cut batches when a quantum is ready or
    /// the interval elapses, until shutdown.
    fn epoch_loop(&self) {
        let mut guard = self.wake_lock.lock().expect("wake lock");
        loop {
            let (g, _timeout) = self
                .wake
                .wait_timeout(guard, self.config.epoch_interval)
                .expect("wake lock poisoned");
            guard = g;
            *guard = false;
            if self.draining.load(Ordering::Acquire) {
                return;
            }
            drop(guard);
            self.tick(false);
            guard = self.wake_lock.lock().expect("wake lock");
        }
    }
}

/// A live TCP server: a [`ServerCore`] plus the readiness-based reactor
/// ([`crate::reactor`]) and a background epoch thread.
#[derive(Debug)]
pub struct Server {
    core: Arc<ServerCore>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the reactor I/O threads and the epoch thread.
    ///
    /// # Errors
    ///
    /// Returns bind failures and invalid configurations.
    pub fn bind(config: ServeConfig, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        let core = ServerCore::new(config).map_err(std::io::Error::other)?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));

        let mut threads = reactor::spawn(Arc::clone(&core), listener, Arc::clone(&stop))?;

        let epoch_core = Arc::clone(&core);
        let epoch = std::thread::Builder::new()
            .name("invector-serve-epoch".into())
            .spawn(move || epoch_core.epoch_loop())
            .expect("spawn epoch thread");
        threads.push(epoch);

        Ok(Server { core, addr, stop, threads })
    }

    /// Binds `addr` over an existing core without starting an epoch
    /// thread — the front end for a follower, whose core is advanced by
    /// log replay rather than by local ticks.
    ///
    /// # Errors
    ///
    /// Returns bind failures.
    pub fn serve_core(core: Arc<ServerCore>, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let threads = reactor::spawn(Arc::clone(&core), listener, Arc::clone(&stop))?;
        Ok(Server { core, addr, stop, threads })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared core, for in-process clients.
    pub fn core(&self) -> Arc<ServerCore> {
        Arc::clone(&self.core)
    }

    /// Programmatic shutdown: drains and stops the worker threads (the
    /// same path a `Shutdown` frame takes).
    pub fn shutdown(&self) -> Vec<u64> {
        let watermarks = self.core.begin_shutdown();
        self.stop.store(true, Ordering::Release);
        watermarks
    }

    /// Waits for the accept and epoch threads to finish (after a
    /// `Shutdown` frame or [`shutdown`](Server::shutdown)).
    pub fn join(mut self) {
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::OpKind;

    fn config() -> ServeConfig {
        ServeConfig {
            quantum: 8,
            shards: 2,
            queue_capacity: 64,
            ..ServeConfig::new(vec![
                TableSpec::i32("counts", OpKind::Add, 32),
                TableSpec::f32("mins", OpKind::Min, 16),
            ])
        }
    }

    #[test]
    fn invalid_configs_are_refused() {
        assert!(ServerCore::new(ServeConfig::new(vec![])).is_err());
        let mut c = config();
        c.quantum = 0;
        assert!(ServerCore::new(c).is_err());
        let mut c = config();
        c.tables[0].len = 0;
        assert!(ServerCore::new(c).is_err());
    }

    #[test]
    fn submit_tick_snapshot_round_trip() {
        let core = ServerCore::new(config()).unwrap();
        let updates: Vec<Update> = (0..20).map(|i| Update::i32(i, (i % 32) as u32, 2)).collect();
        match core.submit(0, &updates) {
            SubmitOutcome::Accepted { accepted, watermark } => {
                assert_eq!(accepted, 20);
                assert_eq!(watermark, 0, "nothing applied before a tick");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Quantum 8: a plain tick applies 16 of 20.
        let report = core.tick(false);
        assert_eq!(report.applied, 16);
        assert_eq!(report.slices, 2);
        assert_eq!(core.snapshot(0).unwrap().watermark, 16);
        // Flush drains the partial tail.
        let report = core.flush();
        assert_eq!(report.applied, 4);
        let snap = core.snapshot(0).unwrap();
        assert_eq!(snap.watermark, 20);
        let TableData::I32(v) = &snap.data else { panic!("i32 table") };
        assert_eq!(v.iter().sum::<i32>(), 40);
        assert!(core.snapshot(7).is_err());
    }

    #[test]
    fn unknown_table_and_bad_index_fail_without_retry() {
        let core = ServerCore::new(config()).unwrap();
        assert!(matches!(core.submit(9, &[Update::i32(0, 0, 1)]), SubmitOutcome::Failed(_)));
        match core.submit(1, &[Update::f32(0, 0, 1.0), Update::f32(1, 99, 1.0)]) {
            SubmitOutcome::Failed(m) => assert!(m.contains("1 admitted"), "{m}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_shard_queue_rejects_the_suffix_with_retry_after() {
        let mut c = config();
        c.queue_capacity = 4;
        c.shards = 1;
        let core = ServerCore::new(c).unwrap();
        let updates: Vec<Update> = (0..10).map(|i| Update::i32(i, 0, 1)).collect();
        match core.submit(0, &updates) {
            SubmitOutcome::Rejected { accepted, retry_after_ms, reason } => {
                assert_eq!(accepted, 4);
                assert!(retry_after_ms >= 1);
                assert_eq!(reason, RejectReason::QueueFull);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Ticks free the queue; retrying the refused suffix admits it all.
        let mut rest = &updates[4..];
        while !rest.is_empty() {
            core.tick(true);
            match core.submit(0, rest) {
                SubmitOutcome::Accepted { .. } => break,
                SubmitOutcome::Rejected { accepted, .. } => rest = &rest[accepted as usize..],
                other => panic!("unexpected {other:?}"),
            }
        }
        core.flush();
        #[cfg(feature = "obs")]
        assert!(core.stats_summary().rejected >= 6);
        assert_eq!(
            core.snapshot(0).unwrap().watermark,
            10,
            "rejected updates were retried, not lost"
        );
    }

    #[test]
    fn reorder_window_bounds_how_far_ahead_clients_may_run() {
        let mut c = config();
        c.window = 16;
        let core = ServerCore::new(c).unwrap();
        match core.submit(0, &[Update::i32(99, 0, 1)]) {
            SubmitOutcome::Rejected { reason, .. } => {
                assert_eq!(reason, RejectReason::WindowExceeded);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn draining_server_rejects_new_updates_but_serves_snapshots() {
        let core = ServerCore::new(config()).unwrap();
        core.submit(0, &[Update::i32(0, 5, 7)]);
        let watermarks = core.begin_shutdown();
        assert_eq!(watermarks, vec![1, 0]);
        match core.submit(0, &[Update::i32(1, 5, 7)]) {
            SubmitOutcome::Rejected { reason, .. } => assert_eq!(reason, RejectReason::Draining),
            other => panic!("unexpected {other:?}"),
        }
        let TableData::I32(v) = &core.snapshot(0).unwrap().data else { panic!("i32") };
        assert_eq!(v[5], 7);
    }

    #[test]
    #[cfg(feature = "obs")]
    fn stats_track_applied_occupancy_and_conflict_depth() {
        let core = ServerCore::new(config()).unwrap();
        // All-conflict stream: every update hits slot 0.
        let updates: Vec<Update> = (0..16).map(|i| Update::i32(i, 0, 1)).collect();
        core.submit(0, &updates);
        core.tick(false);
        let s = core.stats_summary();
        assert_eq!(s.applied, 16);
        assert_eq!(s.slices, 2);
        assert!((s.occupancy - 1.0).abs() < 1e-9);
        assert!(s.conflict_depth > 0.0, "all-conflict batches must show depth");
        assert!(s.updates_per_sec > 0.0);
    }

    #[test]
    #[cfg(feature = "obs")]
    fn metrics_text_exposes_service_series() {
        let core = ServerCore::new(config()).unwrap();
        let updates: Vec<Update> = (0..16).map(|i| Update::i32(i, 0, 1)).collect();
        core.submit(0, &updates);
        core.tick(false);
        let text = core.metrics_text();
        for series in [
            "invector_serve_epochs_total",
            "invector_serve_applied_total",
            "invector_serve_conflict_depth",
            "invector_serve_epoch_latency_us",
            "invector_serve_utilization_ratio",
            "invector_serve_duplicates_total",
        ] {
            assert!(text.contains(series), "exposition missing {series}:\n{text}");
        }
        assert!(text.contains("invector_serve_epochs_total 1"), "{text}");
        assert!(text.contains("invector_serve_applied_total 16"), "{text}");
    }

    #[test]
    fn metrics_text_is_never_poisoned_by_a_dropped_core() {
        // The duplicates collector holds a Weak to the core; after the core
        // drops, a scrape of the global registry must not panic.
        let core = ServerCore::new(config()).unwrap();
        let registry = core.registry().clone();
        drop(core);
        let _ = invector_obs::prometheus(&registry);
    }
}
