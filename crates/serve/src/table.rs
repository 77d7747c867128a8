//! Resident tables: the datasets the service folds update streams into.
//!
//! A table is a dense array of `f32` or `i32` slots under one associative
//! operator. Every supported `(type, operator)` pair maps onto an engine
//! driver that the native AVX-512 backend fuses (`accumulate_{add,min,max}`
//! over `f32`/`i32`), so the serving hot path is exactly the paper's
//! in-vector reduction.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::OnceLock;

use invector_core::exec::{execute_epoch, EpochScratch, ExecPolicy, ExecReport};
use invector_core::ops::{Max, Min, ReduceOp, Sum};
use invector_core::stats::DepthHistogram;
use invector_core::tune::{EpochPolicy, PolicySchedule};
use invector_replog::{crc32, Crc32Combine};
use invector_streamkit::{AggOp, Engine, StreamKind};

use crate::epoch::ReorderBuffer;
use crate::protocol::Update;

/// Element type of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ValueKind {
    /// IEEE-754 single-precision slots.
    F32 = 0,
    /// 32-bit signed integer slots.
    I32 = 1,
}

/// Associative operator of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    /// Accumulation (`invec_add`); slots start at 0.
    Add = 0,
    /// Relaxation toward the minimum (`invec_min`); slots start at the
    /// type's maximum (`+∞` / `i32::MAX`).
    Min = 1,
    /// Relaxation toward the maximum (`invec_max`); slots start at the
    /// type's minimum (`-∞` / `i32::MIN`).
    Max = 2,
}

impl OpKind {
    /// Short operator name, matching the paper's `invec_*` interface.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Add => "add",
            OpKind::Min => "min",
            OpKind::Max => "max",
        }
    }
}

impl ValueKind {
    /// Short type name.
    pub fn name(self) -> &'static str {
        match self {
            ValueKind::F32 => "f32",
            ValueKind::I32 => "i32",
        }
    }
}

/// Static description of one table, fixed at server construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSpec {
    /// Table name (diagnostics only; requests address tables by id).
    pub name: String,
    /// Element type.
    pub kind: ValueKind,
    /// Associative operator.
    pub op: OpKind,
    /// Number of slots.
    pub len: usize,
    /// What the table computes over its stream: a flat associative fold
    /// (the default), or one of the stateful streamkit engines. Stream
    /// tables are always `i32` (graph ranks ride as f32 bit patterns) and
    /// their length is fixed by the kind's geometry.
    pub stream: StreamKind,
}

impl TableSpec {
    /// An `f32` table under `op`.
    pub fn f32(name: &str, op: OpKind, len: usize) -> TableSpec {
        TableSpec {
            name: name.to_string(),
            kind: ValueKind::F32,
            op,
            len,
            stream: StreamKind::Flat,
        }
    }

    /// An `i32` table under `op`.
    pub fn i32(name: &str, op: OpKind, len: usize) -> TableSpec {
        TableSpec {
            name: name.to_string(),
            kind: ValueKind::I32,
            op,
            len,
            stream: StreamKind::Flat,
        }
    }

    /// An incremental-PageRank graph table over an evolving edge stream.
    pub fn pagerank(name: &str, vertices: u32, iters: u32) -> TableSpec {
        Self::stream_table(name, OpKind::Add, StreamKind::GraphPageRank { vertices, iters })
    }

    /// An incremental weakly-connected-components graph table.
    pub fn wcc(name: &str, vertices: u32) -> TableSpec {
        Self::stream_table(name, OpKind::Min, StreamKind::GraphWcc { vertices })
    }

    /// A window-bucketed aggregation table under `op`.
    pub fn window(
        name: &str,
        op: OpKind,
        keys: u32,
        buckets: u32,
        width: u32,
        timed: bool,
    ) -> TableSpec {
        Self::stream_table(name, op, StreamKind::Window { keys, buckets, width, timed })
    }

    fn stream_table(name: &str, op: OpKind, stream: StreamKind) -> TableSpec {
        TableSpec {
            name: name.to_string(),
            kind: ValueKind::I32,
            op,
            len: stream.required_len().unwrap_or(0),
            stream,
        }
    }

    /// Validates the spec's stream geometry (parameter ranges, value kind,
    /// slot count). Flat tables always pass.
    pub fn validate_stream(&self) -> Result<(), String> {
        self.stream.validate().map_err(|e| format!("table '{}': {e}", self.name))?;
        if let Some(required) = self.stream.required_len() {
            if self.kind != ValueKind::I32 {
                return Err(format!("table '{}': stream tables must be i32", self.name));
            }
            if self.len != required {
                return Err(format!(
                    "table '{}': stream geometry requires {required} slots, spec has {}",
                    self.name, self.len
                ));
            }
        }
        Ok(())
    }

    /// The streamkit operator equivalent of the table's [`OpKind`].
    pub(crate) fn agg_op(&self) -> AggOp {
        match self.op {
            OpKind::Add => AggOp::Add,
            OpKind::Min => AggOp::Min,
            OpKind::Max => AggOp::Max,
        }
    }
}

/// Typed table contents.
#[derive(Debug, Clone, PartialEq)]
pub enum TableData {
    /// `f32` slots.
    F32(Vec<f32>),
    /// `i32` slots.
    I32(Vec<i32>),
}

impl TableData {
    fn identity(spec: &TableSpec) -> TableData {
        match spec.kind {
            ValueKind::F32 => {
                let id = match spec.op {
                    OpKind::Add => 0.0f32,
                    OpKind::Min => f32::INFINITY,
                    OpKind::Max => f32::NEG_INFINITY,
                };
                TableData::F32(vec![id; spec.len])
            }
            ValueKind::I32 => {
                let id = match spec.op {
                    OpKind::Add => 0i32,
                    OpKind::Min => i32::MAX,
                    OpKind::Max => i32::MIN,
                };
                TableData::I32(vec![id; spec.len])
            }
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            TableData::F32(v) => v.len(),
            TableData::I32(v) => v.len(),
        }
    }

    /// `true` for a zero-slot table.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw bit patterns of every slot, in order — the wire representation,
    /// and the unit of the bitwise determinism contract.
    pub fn to_bits(&self) -> Vec<u32> {
        match self {
            TableData::F32(v) => v.iter().map(|x| x.to_bits()).collect(),
            TableData::I32(v) => v.iter().map(|&x| x as u32).collect(),
        }
    }

    /// Little-endian bit patterns of `slots`, staged in `buf` (which must
    /// hold four bytes per slot) — the checksummed byte form.
    fn le_bytes<'b>(&self, slots: Range<usize>, buf: &'b mut [u8]) -> &'b [u8] {
        let out = &mut buf[..4 * slots.len()];
        match self {
            TableData::F32(v) => {
                for (bytes, x) in out.chunks_exact_mut(4).zip(&v[slots]) {
                    bytes.copy_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            TableData::I32(v) => {
                for (bytes, x) in out.chunks_exact_mut(4).zip(&v[slots]) {
                    bytes.copy_from_slice(&x.to_le_bytes());
                }
            }
        }
        out
    }

    /// Slots widened to `f64` (exact for both kinds), for harness records.
    pub fn to_f64(&self) -> Vec<f64> {
        match self {
            TableData::F32(v) => v.iter().map(|&x| f64::from(x)).collect(),
            TableData::I32(v) => v.iter().map(|&x| f64::from(x)).collect(),
        }
    }
}

/// Outcome of applying one batch slice.
#[derive(Debug, Clone, Default)]
pub struct SliceReport {
    /// Updates in the slice.
    pub applied: usize,
    /// Slice capacity under the quantum the slice was cut at (the
    /// occupancy denominator; `applied < offered` only for drain tails
    /// and scheduled-boundary cuts).
    pub offered: usize,
    /// SIMD vector iterations the slice ran (16 lane slots each).
    pub vectors: u64,
    /// Conflict-depth histogram of the slice's in-vector reduction.
    pub depth: DepthHistogram,
}

/// One resident table plus its ingest bookkeeping: the seq-ordered reorder
/// buffer and the reusable engine scratch.
#[derive(Debug)]
pub struct TableState {
    spec: TableSpec,
    data: TableData,
    pending: ReorderBuffer,
    /// Watermark-keyed policy schedule the scheduled cut path follows —
    /// the per-table half of the tuning determinism contract.
    schedule: PolicySchedule,
    chunk: Vec<Update>,
    scratch_f32: EpochScratch<f32>,
    scratch_i32: EpochScratch<i32>,
    /// The streamkit engine for stream tables (`None` for flat folds). Its
    /// caches are a pure function of the slot array, rebuilt on install.
    engine: Option<Engine>,
    /// Per-block CRCs of the slot array, re-CRCed only where an apply
    /// wrote, so a seal costs O(slice) rather than O(table).
    blocks: RefCell<BlockCrcs>,
    /// Memoized `(watermark, crc)` of the current state: snapshots and WAL
    /// seals both checksum the full table, and between applies the answer
    /// cannot change, so repeated reads cost one cache probe instead of a
    /// combine over every block.
    checksum_cache: Cell<Option<(u64, u32)>>,
}

/// Slots per checksum block: 256 bytes of slot bits.
const BLOCK_SLOTS: usize = 64;

/// The table checksum kept as one CRC-32 per [`BLOCK_SLOTS`]-slot block plus
/// a dirty bit per block. The full checksum is the blocks' CRCs folded with
/// [`Crc32Combine`] — bit-identical to one CRC pass over the whole table.
#[derive(Debug)]
struct BlockCrcs {
    crcs: Vec<u32>,
    /// One bit per block; set when the block's slots may have changed
    /// since its CRC was taken.
    dirty: Vec<u64>,
    /// Combiner for the final block when the table length is not a whole
    /// number of blocks.
    tail: Option<Crc32Combine>,
}

/// The combiner for one full block, shared by every table.
fn block_combine() -> &'static Crc32Combine {
    static COMBINE: OnceLock<Crc32Combine> = OnceLock::new();
    COMBINE.get_or_init(|| Crc32Combine::new(4 * BLOCK_SLOTS))
}

impl BlockCrcs {
    /// Block state for `len` slots, every block dirty.
    fn new(len: usize) -> BlockCrcs {
        let blocks = len.div_ceil(BLOCK_SLOTS);
        let tail = len % BLOCK_SLOTS;
        let mut state = BlockCrcs {
            crcs: vec![0; blocks],
            dirty: vec![0; blocks.div_ceil(64)],
            tail: (tail != 0).then(|| Crc32Combine::new(4 * tail)),
        };
        state.mark_all();
        state
    }

    fn mark_slot(&mut self, slot: usize) {
        let block = slot / BLOCK_SLOTS;
        self.dirty[block / 64] |= 1 << (block % 64);
    }

    /// Marks every block overlapping slots `lo..hi`.
    fn mark_range(&mut self, lo: usize, hi: usize) {
        if lo < hi {
            for block in lo / BLOCK_SLOTS..=(hi - 1) / BLOCK_SLOTS {
                self.dirty[block / 64] |= 1 << (block % 64);
            }
        }
    }

    fn mark_all(&mut self) {
        self.mark_range(0, self.crcs.len() * BLOCK_SLOTS);
    }

    /// Re-CRCs the dirty blocks of `data`, then folds every block CRC into
    /// the checksum of the whole table.
    fn checksum(&mut self, data: &TableData) -> u32 {
        let len = data.len();
        let mut buf = [0u8; 4 * BLOCK_SLOTS];
        for (w, word) in self.dirty.iter_mut().enumerate() {
            while *word != 0 {
                let block = w * 64 + word.trailing_zeros() as usize;
                *word &= *word - 1;
                let slots = block * BLOCK_SLOTS..((block + 1) * BLOCK_SLOTS).min(len);
                self.crcs[block] = crc32(data.le_bytes(slots, &mut buf));
            }
        }
        let full = len / BLOCK_SLOTS;
        let block = block_combine();
        let crc = self.crcs[..full].iter().fold(0, |crc, &b| block.combine(crc, b));
        match &self.tail {
            Some(tail) => tail.combine(crc, self.crcs[full]),
            None => crc,
        }
    }
}

impl TableState {
    /// A fresh table with every slot at the operator's identity, cutting
    /// under `initial` until a policy change is scheduled.
    pub fn new(spec: TableSpec, initial: EpochPolicy) -> TableState {
        let mut data = TableData::identity(&spec);
        let blocks = RefCell::new(BlockCrcs::new(spec.len));
        let mut engine = Engine::for_kind(&spec.stream, spec.agg_op());
        if let (Some(engine), TableData::I32(slots)) = (engine.as_mut(), &mut data) {
            engine.init(slots);
        }
        let state = TableState {
            spec,
            data,
            pending: ReorderBuffer::new(),
            schedule: PolicySchedule::fixed(initial),
            chunk: Vec::new(),
            scratch_f32: EpochScratch::new(),
            scratch_i32: EpochScratch::new(),
            engine,
            blocks,
            checksum_cache: Cell::new(None),
        };
        // Warm the memo at construction: the first snapshot/seal of a large
        // table should not pay a full-table CRC on the serving path.
        state.checksum();
        state
    }

    /// The table's static description.
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// The applied watermark: updates with `seq < watermark` are folded in.
    pub fn watermark(&self) -> u64 {
        self.pending.watermark()
    }

    /// Buffered updates not yet applied (contiguous or not).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Duplicate sequence numbers dropped so far.
    pub fn duplicates(&self) -> u64 {
        self.pending.duplicates()
    }

    /// Current table contents.
    pub fn data(&self) -> &TableData {
        &self.data
    }

    /// Buffers one update for ordered application. Returns `false` when the
    /// sequence number was already seen (dropped as a duplicate).
    pub fn absorb(&mut self, update: Update) -> bool {
        debug_assert!(
            (update.idx as usize) < self.spec.len,
            "index {} out of bounds for table '{}' of {} slots",
            update.idx,
            self.spec.name,
            self.spec.len
        );
        self.pending.insert(update)
    }

    /// Schedules `policy` for every slice starting at watermark `from` or
    /// beyond — the tuning install point (and the trace replay loader).
    ///
    /// # Panics
    ///
    /// Panics if `from` precedes an already-scheduled change; installs
    /// happen in watermark order by construction.
    pub fn push_policy(&mut self, from: u64, policy: EpochPolicy) {
        self.schedule.push(from, policy);
    }

    /// The table's watermark-keyed policy schedule.
    pub fn schedule(&self) -> &PolicySchedule {
        &self.schedule
    }

    /// Applies pending updates under the table's own policy schedule —
    /// the serving epoch path. See [`cut_with`](Self::cut_with) for the
    /// cut rules.
    pub fn cut_scheduled(&mut self, drain: bool) -> Vec<SliceReport> {
        self.cut_scheduled_logged(drain, &mut |_| {})
    }

    /// [`cut_scheduled`](Self::cut_scheduled) with a write-ahead hook:
    /// `log` sees every slice exactly as cut, after it is removed from the
    /// reorder buffer and before it is applied — the durability point. A
    /// slice that reaches `log` is already admitted, so replaying logged
    /// slices in order through [`apply_logged`](Self::apply_logged)
    /// reproduces the same cuts, and therefore the same bits.
    pub fn cut_scheduled_logged(
        &mut self,
        drain: bool,
        log: &mut dyn FnMut(&[Update]),
    ) -> Vec<SliceReport> {
        let schedule = std::mem::take(&mut self.schedule);
        let slices = self.cut_with(&schedule, drain, log);
        self.schedule = schedule;
        slices
    }

    /// Applies pending updates in contiguous `seq` order as fixed-size
    /// batch slices of exactly `quantum` updates; with `drain`, a final
    /// partial slice empties the contiguous run. The static-policy
    /// convenience over [`cut_with`](Self::cut_with) (the table's own
    /// schedule is untouched).
    pub fn cut_and_apply(
        &mut self,
        quantum: usize,
        drain: bool,
        policy: &ExecPolicy,
    ) -> Vec<SliceReport> {
        self.cut_with(
            &PolicySchedule::fixed(EpochPolicy::new(*policy, quantum)),
            drain,
            &mut |_| {},
        )
    }

    /// The cut loop: each slice starts at the current watermark `wm` and
    /// runs under `schedule.at(wm)` — exactly `quantum` updates, or the
    /// contiguous remainder when `drain`ing.
    ///
    /// Cut positions are what make snapshots reproducible: under a fixed
    /// schedule they depend only on the stream itself (and on explicitly
    /// client-requested drains), never on arrival timing. A scheduled
    /// policy change is a hard cut point — a slice never spans one — so a
    /// changing quantum keeps the same property: boundaries are a pure
    /// function of (stream content, schedule), and replaying a recorded
    /// schedule reproduces every slice (and every table bit) of the
    /// original run.
    fn cut_with(
        &mut self,
        schedule: &PolicySchedule,
        drain: bool,
        log: &mut dyn FnMut(&[Update]),
    ) -> Vec<SliceReport> {
        let mut slices = Vec::new();
        loop {
            let wm = self.pending.watermark();
            let policy = schedule.at(wm);
            let quantum = policy.quantum;
            let run = self.pending.contiguous_len();
            let mut take = if run >= quantum {
                quantum
            } else if drain && run > 0 {
                run
            } else {
                break;
            };
            if let Some(next) = schedule.next_change_after(wm) {
                take = take.min((next - wm) as usize);
            }
            self.pending.pop_run(take, &mut self.chunk);
            log(&self.chunk);
            let report = self.apply_chunk(&policy.exec);
            slices.push(SliceReport {
                applied: take,
                offered: quantum,
                vectors: report.stats.vectors,
                depth: report.stats.depth,
            });
        }
        slices
    }

    /// Replays one logged slice: the updates must start exactly at the
    /// current watermark and be `seq`-contiguous (they were cut that way).
    /// The slice bypasses the reorder buffer and is applied as a single
    /// chunk under the schedule's policy at its watermark — the same
    /// execution the original cut ran, so the result is bitwise identical.
    ///
    /// # Errors
    ///
    /// Rejects a slice that is empty, does not start at the watermark, is
    /// not contiguous, or indexes out of the table's bounds.
    pub fn apply_logged(&mut self, updates: &[Update]) -> Result<SliceReport, String> {
        let wm = self.pending.watermark();
        let first = updates.first().ok_or("empty logged slice")?;
        if first.seq != wm {
            return Err(format!(
                "logged slice for table '{}' starts at seq {}, watermark is {wm}",
                self.spec.name, first.seq
            ));
        }
        for (i, u) in updates.iter().enumerate() {
            if u.seq != wm + i as u64 {
                return Err(format!(
                    "logged slice for table '{}' is not seq-contiguous at offset {i}",
                    self.spec.name
                ));
            }
            if (u.idx as usize) >= self.spec.len {
                return Err(format!(
                    "logged update indexes slot {} beyond table '{}' of {} slots",
                    u.idx, self.spec.name, self.spec.len
                ));
            }
        }
        let policy = self.schedule.at(wm);
        self.chunk.clear();
        self.chunk.extend_from_slice(updates);
        self.pending.advance_to(wm + updates.len() as u64);
        let report = self.apply_chunk(&policy.exec);
        Ok(SliceReport {
            applied: updates.len(),
            offered: policy.quantum,
            vectors: report.stats.vectors,
            depth: report.stats.depth,
        })
    }

    /// Installs externally recovered contents (checkpoint load, follower
    /// bootstrap or re-bootstrap): replaces the slot values and
    /// fast-forwards the watermark. The watermark may only advance, and
    /// nothing may be buffered — installs happen on fresh cores and on
    /// caught-up read-only followers, never mid-ingest.
    ///
    /// # Errors
    ///
    /// Rejects data of the wrong kind or length, buffered updates, or a
    /// watermark regression.
    pub fn install(&mut self, data: TableData, watermark: u64) -> Result<(), String> {
        if self.pending_len() != 0 {
            return Err(format!(
                "table '{}' has buffered updates; cannot install a snapshot",
                self.spec.name
            ));
        }
        if watermark < self.watermark() {
            return Err(format!(
                "snapshot watermark {watermark} regresses table '{}' at {}",
                self.spec.name,
                self.watermark()
            ));
        }
        let kind_ok = matches!(
            (&data, self.spec.kind),
            (TableData::F32(_), ValueKind::F32) | (TableData::I32(_), ValueKind::I32)
        );
        if !kind_ok {
            return Err(format!("snapshot kind mismatch for table '{}'", self.spec.name));
        }
        if data.len() != self.spec.len {
            return Err(format!(
                "snapshot of {} slots for table '{}' of {} slots",
                data.len(),
                self.spec.name,
                self.spec.len
            ));
        }
        self.data = data;
        if let (Some(engine), TableData::I32(slots)) = (self.engine.as_mut(), &self.data) {
            engine.rebuild(slots);
        }
        self.pending.advance_to(watermark);
        self.blocks.get_mut().mark_all();
        self.checksum_cache.set(None);
        Ok(())
    }

    /// The table's streamkit engine, for stream-table queries.
    pub fn engine(&self) -> Option<&Engine> {
        self.engine.as_ref()
    }

    /// CRC-32 over the current slot bit patterns, little-endian — the
    /// per-epoch state checksum sealed into the WAL and compared across
    /// leader/follower. Matches [`crate::protocol::snapshot_checksum`]
    /// without materializing the bit vector.
    ///
    /// Memoized per watermark: state only changes when updates apply, and
    /// every apply advances the watermark, so a hit is always exact. A miss
    /// re-CRCs only the 64-slot blocks written since the last checksum
    /// (flat slices mark the blocks of their keys; stream-engine applies
    /// and installs mark every block) and combines the per-block CRCs.
    pub fn checksum(&self) -> u32 {
        let wm = self.watermark();
        if let Some((at, crc)) = self.checksum_cache.get() {
            if at == wm {
                return crc;
            }
        }
        let out = self.blocks.borrow_mut().checksum(&self.data);
        self.checksum_cache.set(Some((wm, out)));
        out
    }

    /// Runs the engine on the updates currently staged in `self.chunk`.
    fn apply_chunk(&mut self, policy: &ExecPolicy) -> ExecReport {
        fn run<T, Op>(
            target: &mut [T],
            chunk: &[Update],
            scratch: &mut EpochScratch<T>,
            policy: &ExecPolicy,
            from_bits: impl Fn(u32) -> T,
        ) -> ExecReport
        where
            T: invector_simd::SimdElement,
            Op: ReduceOp<T>,
        {
            execute_epoch::<T, Op>(
                target,
                chunk.iter().map(|u| (u.idx as i32, from_bits(u.bits))),
                scratch,
                policy,
            )
        }

        let blocks = self.blocks.get_mut();
        // Stream tables route the slice through their engine: the events
        // are the same logged updates, so WAL replay and replication take
        // this exact path too. An engine may write any slot (rank layers,
        // ring buckets), so every block is re-checksummed.
        if let Some(engine) = self.engine.as_mut() {
            let TableData::I32(slots) = &mut self.data else {
                unreachable!("stream tables are validated to be i32")
            };
            let events: Vec<(u32, u32)> = self.chunk.iter().map(|u| (u.idx, u.bits)).collect();
            let stats = engine.apply(slots, &events, policy);
            blocks.mark_all();
            return ExecReport { stats, workers: Vec::new() };
        }

        let chunk = &self.chunk;
        let report = match (&mut self.data, self.spec.op) {
            (TableData::F32(v), OpKind::Add) => {
                run::<f32, Sum>(v, chunk, &mut self.scratch_f32, policy, f32::from_bits)
            }
            (TableData::F32(v), OpKind::Min) => {
                run::<f32, Min>(v, chunk, &mut self.scratch_f32, policy, f32::from_bits)
            }
            (TableData::F32(v), OpKind::Max) => {
                run::<f32, Max>(v, chunk, &mut self.scratch_f32, policy, f32::from_bits)
            }
            (TableData::I32(v), OpKind::Add) => {
                run::<i32, Sum>(v, chunk, &mut self.scratch_i32, policy, |b| b as i32)
            }
            (TableData::I32(v), OpKind::Min) => {
                run::<i32, Min>(v, chunk, &mut self.scratch_i32, policy, |b| b as i32)
            }
            (TableData::I32(v), OpKind::Max) => {
                run::<i32, Max>(v, chunk, &mut self.scratch_i32, policy, |b| b as i32)
            }
        };
        for u in chunk {
            blocks.mark_slot(u.idx as usize);
        }
        // A privatized task folds its identity-filled scratch over its whole
        // touched range, which can rewrite slots no key names (an f32 sum
        // turns a `-0.0` slot into `+0.0`).
        for w in report.workers.iter().filter(|w| w.private_len > 0) {
            blocks.mark_range(w.touched_lo, w.touched_hi);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ExecPolicy {
        ExecPolicy::default().deterministic(true)
    }

    fn state(spec: TableSpec) -> TableState {
        TableState::new(spec, EpochPolicy::new(policy(), 4096))
    }

    #[test]
    fn identity_initialization_per_op() {
        let t = state(TableSpec::f32("m", OpKind::Min, 3));
        assert_eq!(t.data(), &TableData::F32(vec![f32::INFINITY; 3]));
        let t = state(TableSpec::i32("c", OpKind::Add, 2));
        assert_eq!(t.data(), &TableData::I32(vec![0; 2]));
        let t = state(TableSpec::i32("x", OpKind::Max, 1));
        assert_eq!(t.data(), &TableData::I32(vec![i32::MIN]));
    }

    #[test]
    fn quantum_slices_apply_only_full_batches_until_drained() {
        let mut t = state(TableSpec::i32("c", OpKind::Add, 8));
        for seq in 0..10u64 {
            assert!(t.absorb(Update::i32(seq, (seq % 8) as u32, 1)));
        }
        // Quantum 4: two full slices apply, two updates stay pending.
        let slices = t.cut_and_apply(4, false, &policy());
        assert_eq!(slices.len(), 2);
        assert_eq!(t.watermark(), 8);
        assert_eq!(t.pending_len(), 2);
        // Drain cuts the partial tail.
        let slices = t.cut_and_apply(4, true, &policy());
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].applied, 2);
        assert_eq!(t.watermark(), 10);
        let TableData::I32(v) = t.data() else { panic!("i32 table") };
        assert_eq!(v.iter().sum::<i32>(), 10);
    }

    #[test]
    fn scheduled_policy_changes_cut_on_their_watermark() {
        let mut t =
            TableState::new(TableSpec::i32("c", OpKind::Add, 8), EpochPolicy::new(policy(), 4));
        for seq in 0..20u64 {
            t.absorb(Update::i32(seq, (seq % 8) as u32, 1));
        }
        // Quantum 4 until watermark 8, then quantum 8.
        t.push_policy(8, EpochPolicy::new(policy(), 8));
        let slices = t.cut_scheduled(false);
        let sizes: Vec<(usize, usize)> = slices.iter().map(|s| (s.applied, s.offered)).collect();
        assert_eq!(sizes, vec![(4, 4), (4, 4), (8, 8)], "4+4 under q=4, then one q=8 slice");
        assert_eq!(t.watermark(), 16);
        assert_eq!(t.pending_len(), 4, "partial q=8 tail waits for a drain");
        // A change scheduled mid-run acts as a hard cut point.
        t.push_policy(18, EpochPolicy::new(policy(), 2));
        let slices = t.cut_scheduled(true);
        let sizes: Vec<usize> = slices.iter().map(|s| s.applied).collect();
        assert_eq!(sizes, vec![2, 2], "drain stops at the boundary, then cuts under q=2");
        assert_eq!(t.watermark(), 20);
        assert_eq!(t.schedule().len(), 3);
    }

    #[test]
    fn out_of_order_arrival_is_held_back_until_contiguous() {
        let mut t = state(TableSpec::i32("c", OpKind::Add, 4));
        t.absorb(Update::i32(2, 0, 1));
        t.absorb(Update::i32(1, 0, 1));
        assert!(t.cut_and_apply(1, true, &policy()).is_empty(), "gap at seq 0 blocks");
        t.absorb(Update::i32(0, 0, 1));
        let slices = t.cut_and_apply(1, true, &policy());
        assert_eq!(slices.len(), 3);
        assert_eq!(t.watermark(), 3);
    }

    #[test]
    fn duplicates_are_dropped_and_counted() {
        let mut t = state(TableSpec::f32("m", OpKind::Min, 4));
        assert!(t.absorb(Update::f32(0, 1, 5.0)));
        assert!(!t.absorb(Update::f32(0, 1, 9.0)), "same seq again");
        t.cut_and_apply(1, true, &policy());
        assert!(!t.absorb(Update::f32(0, 2, 1.0)), "seq below watermark");
        assert_eq!(t.duplicates(), 2);
        let TableData::F32(v) = t.data() else { panic!("f32 table") };
        assert_eq!(v[1], 5.0, "first arrival wins");
    }

    #[test]
    fn every_op_kind_folds_through_the_engine() {
        let cases = [
            (TableSpec::f32("a", OpKind::Add, 4), [2.0f32, 3.0], 5.0f32),
            (TableSpec::f32("b", OpKind::Min, 4), [2.0, 3.0], 2.0),
            (TableSpec::f32("c", OpKind::Max, 4), [2.0, 3.0], 3.0),
        ];
        for (spec, vals, expect) in cases {
            let mut t = state(spec);
            t.absorb(Update::f32(0, 1, vals[0]));
            t.absorb(Update::f32(1, 1, vals[1]));
            t.cut_and_apply(16, true, &policy());
            let TableData::F32(v) = t.data() else { panic!("f32 table") };
            assert_eq!(v[1], expect);
        }
        for (op, vals, expect) in
            [(OpKind::Add, [2, 3], 5i32), (OpKind::Min, [2, 3], 2), (OpKind::Max, [2, 3], 3)]
        {
            let mut t = state(TableSpec::i32("t", op, 4));
            t.absorb(Update::i32(0, 1, vals[0]));
            t.absorb(Update::i32(1, 1, vals[1]));
            t.cut_and_apply(16, true, &policy());
            let TableData::I32(v) = t.data() else { panic!("i32 table") };
            assert_eq!(v[1], expect);
        }
    }
}
