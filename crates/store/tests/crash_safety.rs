//! Crash safety under injected failures (`--features failpoints`).
//!
//! A kill mid-append must lose at most the record being appended: the
//! next `open` truncates the torn tail, rebuilds the index from the
//! intact prefix, and leaves no `.tmp` litter behind. A kill
//! mid-compaction must lose nothing: the rename never happened, so the
//! previous log generation is still the store.

#![cfg(feature = "failpoints")]

use std::path::PathBuf;
use std::sync::Mutex;

use ruby_arch::presets;
use ruby_store::{store_key, MappingStore, StoreRecord};
use ruby_workload::{Dim, ProblemShape};

/// Failpoints are process-global: these tests take turns.
static FAILPOINTS: Mutex<()> = Mutex::new(());

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ruby-store-crash-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn record(key: u64, cost: f64) -> StoreRecord {
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

/// No stray `.tmp` files anywhere in the store's directory.
fn assert_no_tmp_litter(dir: &std::path::Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        assert!(
            path.extension().map(|e| e != "tmp").unwrap_or(true),
            "stale tmp file leaked: {}",
            path.display()
        );
    }
}

#[test]
fn torn_append_loses_only_the_record_in_flight() {
    let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = test_dir("append");
    let path = dir.join("store.log");
    let mut store = MappingStore::open(&path).unwrap();
    store.put(record(1, 10.0)).unwrap();
    let intact_len = std::fs::metadata(&path).unwrap().len();

    ruby_failpoints::reset();
    assert!(ruby_failpoints::arm("store.append", "torn:25"));
    assert!(store.put(record(2, 20.0)).is_err());
    ruby_failpoints::disarm("store.append");

    // The simulated kill left a 25-byte torn frame on disk.
    assert!(std::fs::metadata(&path).unwrap().len() > intact_len);

    // Reopen: the index rebuilds from the intact prefix, the tail is
    // truncated away, and no `.tmp` files leak.
    let mut recovered = MappingStore::open(&path).unwrap();
    assert_eq!(recovered.len(), 1);
    assert!(recovered.get(1).is_some());
    assert!(recovered.get(2).is_none());
    assert!(recovered.recovered_bytes() > 0);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_len);
    assert_no_tmp_litter(&dir);

    // The store is fully usable again: the lost record can be re-put.
    assert!(recovered.put(record(2, 20.0)).unwrap());
    let reopened = MappingStore::open(&path).unwrap();
    assert_eq!(reopened.len(), 2);
    assert_eq!(reopened.recovered_bytes(), 0);
}

#[test]
fn a_surviving_store_self_heals_the_torn_tail_before_its_next_append() {
    let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = test_dir("selfheal");
    let path = dir.join("store.log");
    let mut store = MappingStore::open(&path).unwrap();
    store.put(record(1, 10.0)).unwrap();

    ruby_failpoints::reset();
    assert!(ruby_failpoints::arm("store.append", "torn:25"));
    assert!(store.put(record(2, 20.0)).is_err());
    ruby_failpoints::disarm("store.append");

    // The process did NOT crash: the same store keeps accepting puts,
    // truncating the torn tail before the next frame lands so later
    // acknowledged records are never corrupted by the garbage.
    assert!(store.put(record(3, 30.0)).unwrap());
    assert!(store.put(record(2, 20.0)).unwrap());

    let reopened = MappingStore::open(&path).unwrap();
    assert_eq!(reopened.len(), 3);
    assert_eq!(reopened.recovered_bytes(), 0, "no torn tail survived");
}

#[test]
fn torn_compaction_loses_nothing() {
    let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = test_dir("compact");
    let path = dir.join("store.log");
    let mut store = MappingStore::open(&path).unwrap();
    for i in 0..3 {
        store.put(record(1, 10.0 - f64::from(i))).unwrap();
    }

    ruby_failpoints::reset();
    assert!(ruby_failpoints::arm("artifact.write", "torn:10"));
    assert!(store.compact().is_err());
    ruby_failpoints::disarm("artifact.write");

    // The rename never happened: the previous log generation survives
    // in full, and the next open clears the torn `.tmp`.
    let recovered = MappingStore::open(&path).unwrap();
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered.get(1).unwrap().cost, 8.0);
    assert_eq!(recovered.log_records(), 3);
    assert_no_tmp_litter(&dir);
}

/// The sanity check behind the recovery story: the fingerprint of a
/// freshly parsed config finds records written under the same config
/// before the crash.
#[test]
fn keys_survive_a_crash_round_trip() {
    let _serial = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = test_dir("keys");
    let path = dir.join("store.log");
    let arch = presets::toy_linear(4, 4096);
    let shape = ProblemShape::rank1("d", 100);
    let space = ruby_mapspace::Mapspace::new(arch, shape, ruby_mapspace::MapspaceKind::RubyS);
    let key = store_key(&space, "edp");

    let mut store = MappingStore::open(&path).unwrap();
    store.put(record(key, 3.5)).unwrap();
    ruby_failpoints::reset();
    assert!(ruby_failpoints::arm("store.append", "torn:5"));
    assert!(store.put(record(key ^ 1, 1.0)).is_err());
    ruby_failpoints::disarm("store.append");

    let recovered = MappingStore::open(&path).unwrap();
    assert_eq!(recovered.get(store_key(&space, "edp")).unwrap().cost, 3.5);
}
