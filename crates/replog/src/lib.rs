//! `invector-replog`: an append-only, checksummed record log plus a
//! snapshot store — the durability substrate of the serving layer.
//!
//! The crate is deliberately transport- and schema-agnostic: records are
//! opaque byte payloads. `invector-serve` owns the payload encodings (it
//! reuses its wire-protocol codecs), this crate owns the on-disk framing,
//! corruption detection, torn-tail repair, and checkpoint atomicity.
//!
//! # On-disk formats
//!
//! Both the log and every checkpoint file are sequences of CRC-framed
//! records (all integers little-endian):
//!
//! ```text
//! record := len:u32 crc:u32 payload        crc = crc32(payload)
//! ```
//!
//! The log (`wal.log`) is append-only; a crash can leave a torn final
//! record, so [`recover`] accepts the longest valid prefix and truncates
//! the file at the first bad length or CRC. Checkpoint files
//! (`checkpoint-<id>.snap`) and the manifest (`MANIFEST`) are written to a
//! temporary name, fsynced, then renamed, so they are either absent or
//! complete — any framing error inside them is a hard error, never a
//! silent truncation.

#![warn(missing_docs)]

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Framing overhead per record (`len:u32 crc:u32`).
pub const RECORD_HEADER_LEN: usize = 8;

/// Upper bound on one record payload. Protects [`recover`] from a corrupt
/// length prefix asking for a multi-gigabyte allocation; a length beyond
/// this is treated as a torn tail, exactly like a bad CRC.
pub const MAX_RECORD_LEN: usize = 256 << 20;

// --- CRC-32 (IEEE 802.3, reflected) ----------------------------------------

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // Slicing tables: tables[n][b] is the CRC contribution of byte `b`
    // positioned n bytes deeper in the stream, letting `update` fold eight
    // input bytes per iteration instead of one.
    let mut n = 1;
    while n < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[n - 1][i];
            tables[n][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        n += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Streaming CRC-32 (IEEE polynomial, the zlib/`cksum -o 3` variant) —
/// table-driven and dependency-free. Used both for record framing and by
/// the serve layer for table/snapshot checksums, so one implementation
/// defines "checksum" across the durability subsystem.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh accumulator.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Folds `bytes` into the running checksum.
    ///
    /// Uses slicing-by-8: each iteration folds eight bytes through eight
    /// precomputed tables, which matters because the serve layer checksums
    /// every logged batch and every dirty table block on the epoch tick
    /// path.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.state;
        let mut chunks = bytes.chunks_exact(8);
        for w in &mut chunks {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = CRC32_TABLES[7][(lo & 0xFF) as usize]
                ^ CRC32_TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ CRC32_TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ CRC32_TABLES[4][(lo >> 24) as usize]
                ^ CRC32_TABLES[3][(hi & 0xFF) as usize]
                ^ CRC32_TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ CRC32_TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ CRC32_TABLES[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            c = CRC32_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// The checksum of everything folded in so far.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// CRC-32 of one contiguous buffer.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// zlib's `crc32_combine` for one fixed second-part length: given
/// `crc32(a)` and `crc32(b)` with `b.len() == len`, yields `crc32(a ++ b)`
/// without touching the bytes.
///
/// `crc32(a ++ b) = Z(crc32(a)) ^ crc32(b)`, where `Z` feeds `len` zero
/// bytes through the raw (unconditioned) CRC register. `Z` is linear over
/// GF(2), so it is tabulated once per byte lane of its 32-bit input and a
/// combine costs four lookups, whatever `len` is — which is what lets the
/// serve layer keep a table checksum as per-block CRCs and re-CRC only
/// the blocks an epoch wrote.
#[derive(Debug, Clone)]
pub struct Crc32Combine {
    lanes: Box<[[u32; 256]; 4]>,
}

impl Crc32Combine {
    /// The combiner for second parts of exactly `len` bytes.
    pub fn new(len: usize) -> Crc32Combine {
        // Images of the 32 basis vectors under Z, then each lane table by
        // linearity: lanes[p][v] = XOR of the images of v's set bits.
        let basis: Vec<u32> = (0..32)
            .map(|bit| {
                let mut c = 1u32 << bit;
                for _ in 0..len {
                    c = CRC32_TABLES[0][(c & 0xFF) as usize] ^ (c >> 8);
                }
                c
            })
            .collect();
        let mut lanes = Box::new([[0u32; 256]; 4]);
        for (p, lane) in lanes.iter_mut().enumerate() {
            for v in 1..256usize {
                let low = v & v.wrapping_neg();
                lane[v] = lane[v ^ low] ^ basis[8 * p + low.trailing_zeros() as usize];
            }
        }
        Crc32Combine { lanes }
    }

    /// `crc32(a ++ b)` from `crc_a = crc32(a)` and `crc_b = crc32(b)`.
    #[inline]
    pub fn combine(&self, crc_a: u32, crc_b: u32) -> u32 {
        let [b0, b1, b2, b3] = crc_a.to_le_bytes();
        self.lanes[0][b0 as usize]
            ^ self.lanes[1][b1 as usize]
            ^ self.lanes[2][b2 as usize]
            ^ self.lanes[3][b3 as usize]
            ^ crc_b
    }
}

// --- fsync policy -----------------------------------------------------------

/// When the log writer forces appended records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `fsync` after every appended record: an admitted batch survives any
    /// crash, at per-record syscall cost.
    Always,
    /// `fsync` once per epoch (the serve layer calls [`Wal::sync`] at the
    /// end of each tick that appended): a crash can lose at most the
    /// in-flight epoch, which recovery treats as a torn tail.
    #[default]
    Epoch,
    /// Never `fsync`; leave flushing to the OS page cache. Fastest, and
    /// still crash-consistent (the CRC framing truncates whatever the OS
    /// had not written), but the durable prefix lags arbitrarily.
    Os,
}

impl SyncPolicy {
    /// The policy's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            SyncPolicy::Always => "always",
            SyncPolicy::Epoch => "epoch",
            SyncPolicy::Os => "os",
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "always" => Ok(SyncPolicy::Always),
            "epoch" => Ok(SyncPolicy::Epoch),
            "os" => Ok(SyncPolicy::Os),
            other => Err(format!("unknown sync policy '{other}' (always | epoch | os)")),
        }
    }
}

// --- record framing ---------------------------------------------------------

/// Appends one framed record to `out`.
fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Walks framed records in `bytes`, pushing each valid payload. Returns
/// the byte offset of the first invalid record (== `bytes.len()` when the
/// whole buffer parsed) plus the reason parsing stopped early.
fn walk_records(bytes: &[u8], records: &mut Vec<Vec<u8>>) -> (usize, Option<String>) {
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + RECORD_HEADER_LEN) else {
            return (pos, Some(format!("partial {}-byte header", bytes.len() - pos)));
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN {
            return (pos, Some(format!("record length {len} exceeds {MAX_RECORD_LEN}")));
        }
        let start = pos + RECORD_HEADER_LEN;
        let Some(payload) = bytes.get(start..start + len) else {
            return (pos, Some(format!("partial record: wanted {len} payload bytes")));
        };
        if crc32(payload) != crc {
            return (pos, Some("crc mismatch".into()));
        }
        records.push(payload.to_vec());
        pos = start + len;
    }
    (pos, None)
}

// --- the log ----------------------------------------------------------------

/// Outcome of [`recover`]: the valid record prefix of a log file.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Every intact record payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (what the file was truncated to
    /// when a torn tail was found).
    pub valid_bytes: u64,
    /// Why parsing stopped before end-of-file, if it did. A torn tail is
    /// expected after a crash (an append raced the kill) and is repaired,
    /// not fatal.
    pub torn: Option<String>,
}

/// Reads a log file, accepting the longest valid record prefix.
///
/// A missing file recovers as empty. On a torn or corrupt tail (partial
/// header, oversized length, short payload, CRC mismatch) the file is
/// truncated to the valid prefix so a subsequent [`Wal::open`] appends
/// from a clean boundary.
///
/// # Errors
///
/// Propagates I/O failures (not corruption — corruption truncates).
pub fn recover(path: &Path) -> std::io::Result<Recovered> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Recovered::default()),
        Err(e) => return Err(e),
    }
    let mut records = Vec::new();
    let (valid, torn) = walk_records(&bytes, &mut records);
    if torn.is_some() {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(valid as u64)?;
        f.sync_all()?;
    }
    Ok(Recovered { records, valid_bytes: valid as u64, torn })
}

/// The append-only log writer.
///
/// One record per [`append`](Wal::append); durability timing is the
/// caller's via [`sync`](Wal::sync) (see [`SyncPolicy`]). The writer
/// assumes the file ends at a record boundary — run [`recover`] first
/// after a crash.
#[derive(Debug)]
pub struct Wal {
    file: File,
    buf: Vec<u8>,
    bytes: u64,
    records: u64,
}

impl Wal {
    /// Opens (creating if absent) the log at `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates open/seek failures.
    pub fn open(path: &Path) -> std::io::Result<Wal> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = file.seek(SeekFrom::End(0))?;
        Ok(Wal { file, buf: Vec::new(), bytes, records: 0 })
    }

    /// Appends one framed record and writes it through to the OS.
    ///
    /// # Errors
    ///
    /// Propagates write failures; on error the on-disk tail may be torn,
    /// which a later [`recover`] repairs.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<()> {
        self.buf.clear();
        frame_into(&mut self.buf, payload);
        self.file.write_all(&self.buf)?;
        self.bytes += self.buf.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates `fsync` failures.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    /// Truncates the log to empty (the checkpoint path: the snapshot now
    /// covers every logged record) and syncs the truncation.
    ///
    /// # Errors
    ///
    /// Propagates truncate/`fsync` failures.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_all()?;
        self.bytes = 0;
        Ok(())
    }

    /// Current log size in bytes (framing included).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended through this writer (not counting pre-existing
    /// records recovered from disk).
    pub fn records_appended(&self) -> u64 {
        self.records
    }
}

// --- the snapshot store -----------------------------------------------------

/// Checkpoint files plus the manifest, under one directory.
///
/// The store holds at most one *current* checkpoint: `write_checkpoint`
/// publishes atomically (temp + fsync + rename, manifest last), then
/// best-effort deletes older checkpoint files. The manifest payload is
/// caller-defined; by convention it names the checkpoint id and the
/// per-table checksums recovery verifies against.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (creating if absent) the store directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<SnapshotStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SnapshotStore { dir })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The conventional log path next to the checkpoints.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("wal.log")
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("MANIFEST")
    }

    fn checkpoint_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("checkpoint-{id}.snap"))
    }

    /// Reads the manifest payload, or `None` when no checkpoint has ever
    /// been published.
    ///
    /// # Errors
    ///
    /// A present-but-corrupt manifest is an error (`InvalidData`), never a
    /// silent "no checkpoint": the manifest is written atomically, so
    /// corruption means the store cannot be trusted.
    pub fn manifest(&self) -> std::io::Result<Option<Vec<u8>>> {
        match self.read_strict(&self.manifest_path()) {
            Ok(mut records) if records.len() == 1 => Ok(Some(records.pop().expect("one record"))),
            Ok(records) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("manifest holds {} records, expected exactly 1", records.len()),
            )),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Reads every record of checkpoint `id`.
    ///
    /// # Errors
    ///
    /// `NotFound` for an unpublished id; `InvalidData` for framing or CRC
    /// damage (checkpoints are atomic — damage is fatal, not truncatable).
    pub fn read_checkpoint(&self, id: u64) -> std::io::Result<Vec<Vec<u8>>> {
        self.read_strict(&self.checkpoint_path(id))
    }

    fn read_strict(&self, path: &Path) -> std::io::Result<Vec<Vec<u8>>> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        let mut records = Vec::new();
        let (_, torn) = walk_records(&bytes, &mut records);
        if let Some(reason) = torn {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {reason}", path.display()),
            ));
        }
        Ok(records)
    }

    /// Publishes checkpoint `id` atomically: the checkpoint file first
    /// (temp + fsync + rename), then the manifest the same way, then a
    /// best-effort sweep of older checkpoint files. A crash between the
    /// two renames leaves the previous manifest pointing at the previous
    /// (still present) checkpoint — never a manifest naming a missing or
    /// partial file.
    ///
    /// # Errors
    ///
    /// Propagates write/rename/`fsync` failures.
    pub fn write_checkpoint<'a>(
        &self,
        id: u64,
        records: impl IntoIterator<Item = &'a [u8]>,
        manifest: &[u8],
    ) -> std::io::Result<()> {
        let mut body = Vec::new();
        for r in records {
            frame_into(&mut body, r);
        }
        self.publish(&self.checkpoint_path(id), &body)?;
        let mut framed = Vec::with_capacity(manifest.len() + RECORD_HEADER_LEN);
        frame_into(&mut framed, manifest);
        self.publish(&self.manifest_path(), &framed)?;
        // Older checkpoints are garbage now; failure to unlink only wastes
        // disk, so ignore errors.
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if let Some(stale) = name
                    .strip_prefix("checkpoint-")
                    .and_then(|s| s.strip_suffix(".snap").and_then(|s| s.parse::<u64>().ok()))
                {
                    if stale != id {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
        }
        Ok(())
    }

    /// Temp-write, fsync, rename — the all-or-nothing publish step.
    fn publish(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // Persist the rename itself where the platform allows directory
        // fsync; not supported everywhere, so best effort.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("invector-replog-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        let mut streaming = Crc32::new();
        streaming.update(b"1234");
        streaming.update(b"56789");
        assert_eq!(streaming.finish(), 0xCBF4_3926);
    }

    #[test]
    fn crc32_combine_matches_concatenation_at_every_split_kind() {
        let bytes: Vec<u8> =
            (0..1000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        // Split at 0 (empty first part), 1, one 256-byte block, and the
        // full length (empty second part).
        for split in [0, 1, 256, bytes.len()] {
            let (a, b) = bytes.split_at(split);
            let combiner = Crc32Combine::new(b.len());
            assert_eq!(combiner.combine(crc32(a), crc32(b)), crc32(&bytes), "split at {split}");
        }
        // One combiner folds a run of equal-length blocks.
        let block = Crc32Combine::new(256);
        let folded = bytes[..768].chunks(256).fold(0, |crc, c| block.combine(crc, crc32(c)));
        assert_eq!(folded, crc32(&bytes[..768]));
    }

    #[test]
    fn sync_policy_parses_and_displays() {
        assert_eq!("always".parse::<SyncPolicy>().unwrap(), SyncPolicy::Always);
        assert_eq!("epoch".parse::<SyncPolicy>().unwrap(), SyncPolicy::Epoch);
        assert_eq!("os".parse::<SyncPolicy>().unwrap(), SyncPolicy::Os);
        assert!("everysooften".parse::<SyncPolicy>().is_err());
        assert_eq!(SyncPolicy::Epoch.to_string(), "epoch");
    }

    #[test]
    fn log_round_trips_records_in_order() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("wal.log");
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![1, 2, 3], vec![0xFF; 100]];
        {
            let mut wal = Wal::open(&path).unwrap();
            for p in &payloads {
                wal.append(p).unwrap();
            }
            wal.sync().unwrap();
            assert_eq!(wal.records_appended(), 3);
        }
        let rec = recover(&path).unwrap();
        assert_eq!(rec.records, payloads);
        assert!(rec.torn.is_none());
        // Reopening appends after the existing records.
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"tail").unwrap();
        drop(wal);
        let rec = recover(&path).unwrap();
        assert_eq!(rec.records.len(), 4);
        assert_eq!(rec.records[3], b"tail");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_log_recovers_empty() {
        let dir = temp_dir("missing");
        let rec = recover(&dir.join("nope.log")).unwrap();
        assert!(rec.records.is_empty());
        assert!(rec.torn.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_truncates_for_the_next_checkpoint_interval() {
        let dir = temp_dir("reset");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(b"before").unwrap();
        wal.reset().unwrap();
        wal.append(b"after").unwrap();
        drop(wal);
        let rec = recover(&path).unwrap();
        assert_eq!(rec.records, vec![b"after".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_length_prefix_is_a_torn_tail_not_an_allocation() {
        let dir = temp_dir("oversize");
        let path = dir.join("wal.log");
        let mut bytes = Vec::new();
        frame_into(&mut bytes, b"good");
        let valid = bytes.len();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let rec = recover(&path).unwrap();
        assert_eq!(rec.records, vec![b"good".to_vec()]);
        assert_eq!(rec.valid_bytes, valid as u64);
        assert!(rec.torn.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_store_publishes_and_reads_back() {
        let dir = temp_dir("store");
        let store = SnapshotStore::open(&dir).unwrap();
        assert!(store.manifest().unwrap().is_none(), "fresh store has no manifest");
        store
            .write_checkpoint(1, [b"table0".as_slice(), b"table1".as_slice()], b"manifest-1")
            .unwrap();
        assert_eq!(store.manifest().unwrap().unwrap(), b"manifest-1");
        assert_eq!(store.read_checkpoint(1).unwrap(), vec![b"table0".to_vec(), b"table1".to_vec()]);
        // Publishing checkpoint 2 supersedes and sweeps checkpoint 1.
        store.write_checkpoint(2, [b"t0v2".as_slice()], b"manifest-2").unwrap();
        assert_eq!(store.manifest().unwrap().unwrap(), b"manifest-2");
        assert!(store.read_checkpoint(1).is_err(), "old checkpoint swept");
        assert_eq!(store.read_checkpoint(2).unwrap(), vec![b"t0v2".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_is_an_error_not_a_fresh_start() {
        let dir = temp_dir("badmanifest");
        let store = SnapshotStore::open(&dir).unwrap();
        store.write_checkpoint(1, [b"x".as_slice()], b"m").unwrap();
        // Flip one byte of the manifest payload on disk.
        let path = dir.join("MANIFEST");
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.manifest().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn any_tail_damage_truncates_to_the_longest_valid_prefix(
            payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..12),
            cut_frac in 0.0f64..1.0,
            flip in any::<bool>(),
        ) {
            let dir = temp_dir("torn");
            let path = dir.join("wal.log");
            let mut bytes = Vec::new();
            let mut boundaries = vec![0usize];
            for p in &payloads {
                frame_into(&mut bytes, p);
                boundaries.push(bytes.len());
            }
            // Damage point anywhere in the file (cut or bit-flip past it).
            let at = ((bytes.len() as f64) * cut_frac) as usize;
            if flip && at < bytes.len() {
                bytes[at] ^= 0x40;
            } else {
                bytes.truncate(at);
            }
            std::fs::write(&path, &bytes).unwrap();

            let rec = recover(&path).unwrap();
            // The recovered prefix is exactly the records wholly before the
            // damage point.
            let intact = boundaries.iter().filter(|&&b| b <= at).count() - 1;
            prop_assert!(rec.records.len() >= intact.min(payloads.len()));
            for (got, want) in rec.records.iter().zip(payloads.iter()) {
                prop_assert_eq!(got, want);
            }
            prop_assert_eq!(rec.valid_bytes as usize, boundaries[rec.records.len()]);
            // Idempotent: recovering the repaired file finds no damage and
            // the same records.
            let again = recover(&path).unwrap();
            prop_assert!(again.torn.is_none());
            prop_assert_eq!(again.records.len(), rec.records.len());
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
