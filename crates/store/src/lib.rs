//! Durable best-mapping store: the storage layer of the mapper service.
//!
//! A [`MappingStore`] remembers the best mapping found for every config
//! it has ever been asked about, keyed by the canonical semantic
//! fingerprint of the config ([`store_key`]). A repeat query for the
//! same (architecture, workload, mapspace, objective) — however it is
//! spelled — becomes an index lookup instead of a fresh search.
//!
//! Durability model:
//!
//! - **Append-only log.** Every accepted [`StoreRecord`] is appended as
//!   a CRC-framed pair of lines (see `log`), then fsynced. Appends
//!   never rewrite earlier bytes, so a crash can only damage the tail.
//! - **In-memory index.** [`MappingStore::open`] replays the log,
//!   keeping the cheapest record per key; a torn tail (interrupted
//!   append) is detected by its CRC frame and truncated away.
//! - **Compaction.** Superseded records accumulate in the log;
//!   [`MappingStore::compact`] rewrites it to one record per key via
//!   [`ruby_telemetry::write_atomic`] (tmp + fsync + rename), so a
//!   crash mid-compaction leaves the previous log intact. `open`
//!   removes any `.tmp` such a crash left behind.
//! - **Versioned schema.** Both the frame headers and the records carry
//!   `"schema":` [`STORE_SCHEMA`]; a log written by a different format
//!   generation is refused, not misread.

mod fingerprint;
mod log;

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};

use ruby_mapping::Mapping;
use ruby_model::CostReport;

pub use fingerprint::{config_key, store_key};

/// On-disk schema version: frame headers and record payloads.
pub const STORE_SCHEMA: u64 = 1;

/// Superseded records tolerated in the log before [`MappingStore::put`]
/// compacts it in passing.
const COMPACT_SLACK: usize = 64;

/// One stored best-mapping: the search result for one store key.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreRecord {
    /// The canonical config fingerprint ([`store_key`]).
    pub key: u64,
    /// The objective the cost was scored under.
    pub objective: String,
    /// Scalar cost of `mapping` under `objective`.
    pub cost: f64,
    /// Evaluations the producing search spent (provenance, not
    /// identity: a deeper search may later replace this record).
    pub evaluations: u64,
    /// The winning mapping.
    pub mapping: Mapping,
    /// Its full cost report.
    pub report: CostReport,
}

impl serde::Serialize for StoreRecord {
    fn to_value(&self) -> serde::Value {
        serde::Value::Obj(vec![
            ("schema".to_owned(), serde::Value::U64(STORE_SCHEMA)),
            ("key".to_owned(), serde::Value::U64(self.key)),
            (
                "objective".to_owned(),
                serde::Value::Str(self.objective.clone()),
            ),
            ("cost".to_owned(), serde::Value::F64(self.cost)),
            (
                "evaluations".to_owned(),
                serde::Value::U64(self.evaluations),
            ),
            ("mapping".to_owned(), self.mapping.to_value()),
            ("report".to_owned(), self.report.to_value()),
        ])
    }
}

impl serde::Deserialize for StoreRecord {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let schema = value.field("schema")?.as_u64()?;
        if schema != STORE_SCHEMA {
            return Err(serde::Error::custom(format!(
                "store record schema {schema} (this build reads {STORE_SCHEMA})"
            )));
        }
        Ok(StoreRecord {
            key: value.field("key")?.as_u64()?,
            objective: value.field("objective")?.as_str()?.to_owned(),
            cost: value.field("cost")?.as_f64()?,
            evaluations: value.field("evaluations")?.as_u64()?,
            mapping: serde::Deserialize::from_value(value.field("mapping")?)?,
            report: serde::Deserialize::from_value(value.field("report")?)?,
        })
    }
}

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure (open/append/fsync/rename).
    Io(std::io::Error),
    /// A record refused to encode or decode.
    Corrupt(String),
    /// The log was written by a different on-disk schema generation.
    Schema {
        /// The version the log announced.
        found: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(err) => write!(f, "store I/O: {err}"),
            StoreError::Corrupt(what) => write!(f, "store corruption: {what}"),
            StoreError::Schema { found } => write!(
                f,
                "store log has on-disk schema {found}; this build reads {STORE_SCHEMA}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        StoreError::Io(err)
    }
}

/// What a scrubbing open ([`MappingStore::open_scrubbed`]) found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Frames that CRC-verified and decoded.
    pub frames_ok: u64,
    /// Damaged stretches moved to the quarantine sidecar (each is one
    /// resync event: a bad frame, a run of unframed garbage lines, or a
    /// torn tail).
    pub frames_quarantined: u64,
    /// Bytes moved to the quarantine sidecar.
    pub bytes_quarantined: u64,
}

/// The quarantine sidecar next to a store log: damaged byte ranges the
/// scrub carved out, preserved for post-mortem instead of deleted.
pub fn quarantine_path(log_path: &Path) -> PathBuf {
    let mut name = log_path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".quarantine");
    log_path.with_file_name(name)
}

/// The durable best-mapping store: append-only log + in-memory index.
#[derive(Debug)]
pub struct MappingStore {
    path: PathBuf,
    /// Best record per key (ties keep the incumbent).
    index: HashMap<u64, StoreRecord>,
    /// Physical records in the log, including superseded ones.
    log_records: usize,
    /// Torn-tail bytes discarded by the last [`MappingStore::open`].
    recovered_bytes: usize,
    /// Bytes of intact log on disk; everything past it is a torn tail
    /// from a failed append.
    valid_len: u64,
    /// Whether a failed append left a torn tail that the next append
    /// must truncate away first (lazy self-heal: a process that dies
    /// instead leaves the tail for `open` to recover).
    dirty_tail: bool,
}

impl MappingStore {
    /// Opens (or creates) the store at `path`, replaying the log into
    /// the index.
    ///
    /// Recovery happens here: a stale `<path>.tmp` from a crashed
    /// compaction is deleted (the rename never happened, so the log
    /// itself is the previous, intact generation), and a torn tail from
    /// a crashed append is truncated away.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failures and
    /// [`StoreError::Schema`] when the log belongs to a different
    /// format generation.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref().to_path_buf();
        let tmp = ruby_telemetry::tmp_path(&path);
        if tmp.exists() {
            std::fs::remove_file(&tmp)?;
        }
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(err) => return Err(err.into()),
        };
        let scan = log::scan(&bytes)?;
        let recovered_bytes = bytes.len() - scan.valid_len;
        if recovered_bytes > 0 {
            let file = std::fs::OpenOptions::new().write(true).open(&path)?;
            file.set_len(scan.valid_len as u64)?;
            file.sync_all()?;
        }
        let log_records = scan.records.len();
        let mut index = HashMap::new();
        for record in scan.records {
            insert_if_better(&mut index, record);
        }
        Ok(MappingStore {
            path,
            index,
            log_records,
            recovered_bytes,
            valid_len: scan.valid_len as u64,
            dirty_tail: false,
        })
    }

    /// Opens the store at `path` with a full-log scrub: every frame is
    /// CRC-verified, damaged stretches are *quarantined* — appended to
    /// the `.quarantine` sidecar ([`quarantine_path`]) for post-mortem
    /// rather than silently discarded — and intact records *past* the
    /// damage are recovered (a plain [`MappingStore::open`] truncates at
    /// the first damaged frame instead). When anything was quarantined
    /// the log is atomically rewritten to just the intact frames.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failures and
    /// [`StoreError::Schema`] when the log's *first* frame belongs to a
    /// different format generation (foreign-schema frames later in the
    /// log are quarantined, not fatal).
    pub fn open_scrubbed(path: impl AsRef<Path>) -> Result<(Self, ScrubReport), StoreError> {
        let path = path.as_ref().to_path_buf();
        let tmp = ruby_telemetry::tmp_path(&path);
        if tmp.exists() {
            std::fs::remove_file(&tmp)?;
        }
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(err) => return Err(err.into()),
        };
        let scrub = log::scrub_scan(&bytes)?;
        let report = ScrubReport {
            frames_ok: scrub.records.len() as u64,
            frames_quarantined: scrub.quarantined.len() as u64,
            bytes_quarantined: scrub
                .quarantined
                .iter()
                .map(|&(start, end)| (end - start) as u64)
                .sum(),
        };
        let mut valid_len = bytes.len() as u64;
        if !scrub.quarantined.is_empty() {
            let mut sidecar = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(quarantine_path(&path))?;
            for &(start, end) in &scrub.quarantined {
                sidecar.write_all(&bytes[start..end])?;
                if !bytes[start..end].ends_with(b"\n") {
                    sidecar.write_all(b"\n")?;
                }
            }
            sidecar.sync_all()?;
            // Splice the damage out of the image verbatim (intact
            // frames keep their exact bytes) and swap it in atomically.
            let mut image = Vec::with_capacity(bytes.len() - report.bytes_quarantined as usize);
            let mut cursor = 0usize;
            for &(start, end) in &scrub.quarantined {
                image.extend_from_slice(&bytes[cursor..start]);
                cursor = end;
            }
            image.extend_from_slice(&bytes[cursor..]);
            ruby_telemetry::write_atomic(&path, &image)?;
            valid_len = image.len() as u64;
        }
        let log_records = scrub.records.len();
        let mut index = HashMap::new();
        for record in scrub.records {
            insert_if_better(&mut index, record);
        }
        Ok((
            MappingStore {
                path,
                index,
                log_records,
                recovered_bytes: report.bytes_quarantined as usize,
                valid_len,
                dirty_tail: false,
            },
            report,
        ))
    }

    /// The best known record for `key`.
    pub fn get(&self, key: u64) -> Option<&StoreRecord> {
        self.index.get(&key)
    }

    /// Offers a record. It is kept — appended to the log and indexed —
    /// only when its key is new or its cost strictly beats the
    /// incumbent; returns whether it was kept.
    ///
    /// A kept record is durable when this returns: the append is
    /// fsynced before the index is updated, so the in-memory view never
    /// claims more than the disk holds.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the append fails; the index is
    /// left unchanged (the log may carry a torn tail for the next
    /// `open` to truncate).
    pub fn put(&mut self, record: StoreRecord) -> Result<bool, StoreError> {
        if let Some(best) = self.index.get(&record.key) {
            if best.cost <= record.cost {
                return Ok(false);
            }
        }
        self.append(&record)?;
        self.log_records += 1;
        insert_if_better(&mut self.index, record);
        if self.log_records > self.index.len() + COMPACT_SLACK {
            self.compact()?;
        }
        Ok(true)
    }

    /// Live entries (distinct keys) in the index.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no mappings.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Physical records in the log, superseded ones included; exceeds
    /// [`MappingStore::len`] until the next compaction.
    pub fn log_records(&self) -> usize {
        self.log_records
    }

    /// Torn-tail bytes the last [`MappingStore::open`] truncated away.
    pub fn recovered_bytes(&self) -> usize {
        self.recovered_bytes
    }

    /// The log path this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rewrites the log to one record per key (atomically: the previous
    /// log survives a crash mid-rewrite).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the rewrite fails; the previous
    /// log generation is still on disk and the index still matches it.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let mut keys: Vec<u64> = self.index.keys().copied().collect();
        keys.sort_unstable();
        let mut image = String::new();
        for key in keys {
            // justified: every key in `keys` was just copied out of the index
            let record = self.index.get(&key).expect("index key vanished");
            image.push_str(&log::encode(record)?);
        }
        ruby_telemetry::write_atomic(&self.path, image.as_bytes())?;
        self.log_records = self.index.len();
        self.valid_len = image.len() as u64;
        self.dirty_tail = false;
        Ok(())
    }

    /// Appends one framed record and fsyncs it. The `store.append`
    /// failpoint (feature `failpoints`) simulates a crash mid-append:
    /// `torn:N` writes only the first `N` bytes of the frame and fails,
    /// leaving exactly the torn tail a power loss would.
    fn append(&mut self, record: &StoreRecord) -> Result<(), StoreError> {
        let frame = log::encode(record)?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        if self.dirty_tail {
            // Lazy self-heal: a previous failed append left a torn tail
            // (this process survived what would have been a crash);
            // truncate it before writing anything after it, or the next
            // frame's header would merge into the garbage.
            file.set_len(self.valid_len)?;
            file.sync_all()?;
            self.dirty_tail = false;
        }
        match ruby_failpoints::hit("store.append") {
            ruby_failpoints::Action::Torn(n) => {
                file.write_all(&frame.as_bytes()[..n.min(frame.len())])?;
                file.sync_all()?;
                // The simulated kill leaves the torn tail on disk for
                // `open` to recover; if this process lives on, the next
                // append repairs it first.
                self.dirty_tail = true;
                return Err(StoreError::Io(std::io::Error::other(
                    "failpoint store.append: torn write",
                )));
            }
            ruby_failpoints::Action::Err => {
                return Err(StoreError::Io(std::io::Error::other(
                    "failpoint store.append: injected error",
                )));
            }
            _ => {}
        }
        if let Err(err) = file
            .write_all(frame.as_bytes())
            .and_then(|()| file.sync_all())
        {
            // Best-effort self-heal: roll the half-written frame back so
            // the live file stays clean without waiting for the next
            // open's recovery pass; if even the rollback fails, the next
            // append retries it.
            if file
                .set_len(self.valid_len)
                .and_then(|()| file.sync_all())
                .is_err()
            {
                self.dirty_tail = true;
            }
            return Err(err.into());
        }
        self.valid_len += frame.len() as u64;
        Ok(())
    }
}

fn insert_if_better(index: &mut HashMap<u64, StoreRecord>, record: StoreRecord) {
    match index.entry(record.key) {
        std::collections::hash_map::Entry::Vacant(slot) => {
            slot.insert(record);
        }
        std::collections::hash_map::Entry::Occupied(mut slot) => {
            if record.cost < slot.get().cost {
                slot.insert(record);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruby_arch::presets;
    use ruby_workload::{Dim, ProblemShape};
    use serde::Serialize;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ruby-store-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_record(key: u64, cost: f64) -> StoreRecord {
        let arch = presets::toy_linear(4, 4096);
        let shape = ProblemShape::rank1("d", 100);
        let mut b = ruby_mapping::Mapping::builder(arch.num_levels());
        b.set_tile(Dim::M, 0, ruby_mapping::SlotKind::SpatialX, 4);
        let mapping = b.build_for_bounds(shape.bounds()).unwrap();
        let report = ruby_model::evaluate(
            &arch,
            &shape,
            &mapping,
            &ruby_model::ModelOptions::default(),
        )
        .unwrap();
        StoreRecord {
            key,
            objective: "edp".to_owned(),
            cost,
            evaluations: 17,
            mapping,
            report,
        }
    }

    #[test]
    fn record_serde_round_trips() {
        let record = sample_record(42, 1.5);
        let json = serde_json::to_string(&record.to_value()).unwrap();
        let back: StoreRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn record_serde_rejects_other_schemas() {
        let mut value = serde::Serialize::to_value(&sample_record(1, 1.0));
        let serde::Value::Obj(ref mut fields) = value else {
            panic!("record must serialize as an object");
        };
        fields[0].1 = serde::Value::U64(STORE_SCHEMA + 1);
        let json = serde_json::to_string(&value).unwrap();
        assert!(serde_json::from_str::<StoreRecord>(&json).is_err());
    }

    #[test]
    fn put_get_and_reopen_round_trip() {
        let path = test_dir("roundtrip").join("store.log");
        let mut store = MappingStore::open(&path).unwrap();
        assert!(store.is_empty());
        assert!(store.put(sample_record(1, 10.0)).unwrap());
        assert!(store.put(sample_record(2, 20.0)).unwrap());
        assert_eq!(store.len(), 2);

        let reopened = MappingStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.recovered_bytes(), 0);
        assert_eq!(reopened.get(1), store.get(1));
        assert_eq!(reopened.get(2), store.get(2));
        assert_eq!(reopened.get(3), None);
    }

    #[test]
    fn put_keeps_only_strict_improvements() {
        let path = test_dir("improve").join("store.log");
        let mut store = MappingStore::open(&path).unwrap();
        assert!(store.put(sample_record(1, 10.0)).unwrap());
        assert!(!store.put(sample_record(1, 10.0)).unwrap());
        assert!(!store.put(sample_record(1, 11.0)).unwrap());
        assert!(store.put(sample_record(1, 9.0)).unwrap());
        assert_eq!(store.get(1).unwrap().cost, 9.0);
        assert_eq!(store.log_records(), 2);
        assert_eq!(MappingStore::open(&path).unwrap().get(1).unwrap().cost, 9.0);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = test_dir("torn").join("store.log");
        let mut store = MappingStore::open(&path).unwrap();
        store.put(sample_record(1, 10.0)).unwrap();
        let intact = std::fs::metadata(&path).unwrap().len();
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(b"{\"schema\":1,\"crc\":7,\"bytes\":999}\n{\"key\"")
            .unwrap();
        drop(file);

        let recovered = MappingStore::open(&path).unwrap();
        assert_eq!(recovered.len(), 1);
        assert!(recovered.recovered_bytes() > 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact);
        assert_eq!(MappingStore::open(&path).unwrap().recovered_bytes(), 0);
    }

    #[test]
    fn compaction_drops_superseded_records() {
        let path = test_dir("compact").join("store.log");
        let mut store = MappingStore::open(&path).unwrap();
        for i in 0..5 {
            store.put(sample_record(1, 10.0 - f64::from(i))).unwrap();
        }
        assert_eq!(store.log_records(), 5);
        store.compact().unwrap();
        assert_eq!(store.log_records(), 1);
        let reopened = MappingStore::open(&path).unwrap();
        assert_eq!(reopened.log_records(), 1);
        assert_eq!(reopened.get(1).unwrap().cost, 6.0);
    }

    #[test]
    fn other_schema_generations_are_refused() {
        let path = test_dir("schema").join("store.log");
        std::fs::write(&path, "{\"schema\":999,\"crc\":0,\"bytes\":2}\n{}\n").unwrap();
        match MappingStore::open(&path) {
            Err(StoreError::Schema { found: 999 }) => {}
            other => panic!("expected a schema refusal, got {other:?}"),
        }
    }

    #[test]
    fn scrub_of_a_clean_log_reports_zeros() {
        let path = test_dir("scrubclean").join("store.log");
        let mut store = MappingStore::open(&path).unwrap();
        store.put(sample_record(1, 10.0)).unwrap();
        store.put(sample_record(2, 20.0)).unwrap();
        drop(store);

        let (scrubbed, report) = MappingStore::open_scrubbed(&path).unwrap();
        assert_eq!(scrubbed.len(), 2);
        assert_eq!(report.frames_ok, 2);
        assert_eq!(report.frames_quarantined, 0);
        assert_eq!(report.bytes_quarantined, 0);
        assert!(!quarantine_path(&path).exists());
    }

    #[test]
    fn scrub_quarantines_mid_log_damage_and_recovers_records_past_it() {
        let path = test_dir("scrubmid").join("store.log");
        let mut store = MappingStore::open(&path).unwrap();
        store.put(sample_record(1, 10.0)).unwrap();
        store.put(sample_record(2, 20.0)).unwrap();
        store.put(sample_record(3, 30.0)).unwrap();
        drop(store);

        // Flip a payload byte inside the *middle* frame: its CRC fails
        // while the frames before and after stay intact.
        let mut bytes = std::fs::read(&path).unwrap();
        let lines: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == b'\n').then_some(i))
            .collect();
        let middle_payload = lines[2] + 2;
        bytes[middle_payload] ^= 0x5A;
        std::fs::write(&path, &bytes).unwrap();

        // A plain open truncates at the damage and loses record 3…
        let truncated = MappingStore::open(&path).unwrap();
        assert_eq!(truncated.len(), 1);
        std::fs::write(&path, &bytes).unwrap();

        // …a scrub quarantines only the damaged frame.
        let (scrubbed, report) = MappingStore::open_scrubbed(&path).unwrap();
        assert_eq!(scrubbed.len(), 2);
        assert!(scrubbed.get(1).is_some());
        assert!(scrubbed.get(2).is_none());
        assert!(scrubbed.get(3).is_some());
        assert_eq!(report.frames_ok, 2);
        assert_eq!(report.frames_quarantined, 1);
        assert!(report.bytes_quarantined > 0);
        let sidecar = std::fs::read(quarantine_path(&path)).unwrap();
        assert_eq!(sidecar.len() as u64, report.bytes_quarantined);

        // The rewritten log is clean: reopening finds nothing to fix.
        let (reopened, clean) = MappingStore::open_scrubbed(&path).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(clean.frames_quarantined, 0);
    }

    #[test]
    fn scrub_quarantines_spliced_garbage_and_torn_tails() {
        let path = test_dir("scrubgarbage").join("store.log");
        let mut store = MappingStore::open(&path).unwrap();
        store.put(sample_record(1, 10.0)).unwrap();
        let frame_len = std::fs::metadata(&path).unwrap().len();
        drop(store);

        let mut bytes = std::fs::read(&path).unwrap();
        let intact = bytes.clone();
        bytes.extend_from_slice(b"not a frame header at all\n");
        bytes.extend_from_slice(&intact);
        bytes.extend_from_slice(b"{\"schema\":1,\"crc\":7,\"bytes\":999}\n{\"torn");
        std::fs::write(&path, &bytes).unwrap();

        let (scrubbed, report) = MappingStore::open_scrubbed(&path).unwrap();
        assert_eq!(scrubbed.len(), 1);
        assert_eq!(report.frames_ok, 2);
        assert_eq!(report.frames_quarantined, 2);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            frame_len * 2,
            "the rewritten log holds exactly the two intact frames"
        );
    }

    #[test]
    fn scrub_still_refuses_foreign_schema_generations() {
        let path = test_dir("scrubschema").join("store.log");
        std::fs::write(&path, "{\"schema\":999,\"crc\":0,\"bytes\":2}\n{}\n").unwrap();
        match MappingStore::open_scrubbed(&path) {
            Err(StoreError::Schema { found: 999 }) => {}
            other => panic!("expected a schema refusal, got {other:?}"),
        }
    }

    #[test]
    fn stale_compaction_tmp_is_removed_on_open() {
        let path = test_dir("staletmp").join("store.log");
        let mut store = MappingStore::open(&path).unwrap();
        store.put(sample_record(1, 10.0)).unwrap();
        let tmp = ruby_telemetry::tmp_path(&path);
        std::fs::write(&tmp, b"half-written compaction image").unwrap();

        let reopened = MappingStore::open(&path).unwrap();
        assert!(!tmp.exists());
        assert_eq!(reopened.len(), 1);
    }
}
