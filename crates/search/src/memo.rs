//! Fixed-size lock-free memo cache for evaluated mappings.
//!
//! Keys are [`ruby_mapping::Mapping::canonical_key`] hashes; values are
//! the scalar objective cost (`f64` bits), with `+inf` standing for
//! "evaluated and invalid". The table is open-addressed with a short
//! linear probe window and **no eviction**: when a window fills, later
//! keys are simply not cached (a lossy cache is still a correct cache,
//! and never serving a torn or stale entry matters more than hit rate).
//!
//! Concurrency protocol: a writer claims a slot by CASing the key from
//! `EMPTY`, then publishes the cost. Costs start at a `NOT_READY`
//! sentinel (a NaN bit pattern no real cost produces), so a reader that
//! races the publication sees "pending" and treats it as a miss. Each
//! slot's cost is written exactly once, by the thread that won the key
//! CAS, so readers can never observe a torn (key, cost) pair.

use crate::sync::{AtomicU64, Ordering};

use ruby_telemetry::LazyCounter;

/// Entries lost to a full probe window. Hits need no counter: each one
/// is a [`SearchOutcome::duplicates`](crate::SearchOutcome) increment.
static MEMO_DROP: LazyCounter = LazyCounter::new("search.memo.drop");

const PROBE_WINDOW: usize = 8;
const EMPTY: u64 = 0;
/// NaN bit pattern never produced by `f64::to_bits` of a finite cost or
/// `+inf`; marks a claimed slot whose cost is not yet published.
const NOT_READY: u64 = u64::MAX;

struct Slot {
    key: AtomicU64,
    cost: AtomicU64,
}

/// A fixed-size, lock-free, lossy map from canonical mapping keys to
/// objective costs. See the module docs for the protocol.
pub struct MemoCache {
    slots: Vec<Slot>,
    mask: u64,
}

impl MemoCache {
    /// A cache with `2^bits` slots (`bits` clamped to `[4, 28]`).
    pub fn new(bits: u32) -> Self {
        let n = 1usize << bits.clamp(4, 28);
        let slots = (0..n)
            .map(|_| Slot {
                key: AtomicU64::new(EMPTY),
                cost: AtomicU64::new(NOT_READY),
            })
            .collect();
        MemoCache {
            slots,
            mask: n as u64 - 1,
        }
    }

    /// A cache like [`new`](Self::new), unless the `search.memo.alloc`
    /// failpoint simulates an allocation failure — then `None`, and
    /// callers degrade to searching without deduplication.
    pub fn try_new(bits: u32) -> Option<Self> {
        if matches!(
            ruby_failpoints::hit("search.memo.alloc"),
            ruby_failpoints::Action::Err
        ) {
            return None;
        }
        Some(Self::new(bits))
    }

    /// Every published entry as `(slot, key, cost bits)`, in slot order.
    /// Slot-exact so [`restore`](Self::restore) reproduces the table
    /// bit-for-bit and a resumed run replays identical probe/insert
    /// outcomes (including window-full drops).
    pub fn dump(&self) -> Vec<(u64, u64, u64)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                // ordering: Acquire — pairs with insert's publication;
                // callers dump at barriers, after workers joined.
                let key = slot.key.load(Ordering::Acquire);
                if key == EMPTY {
                    return None;
                }
                let cost = slot.cost.load(Ordering::Acquire);
                if cost == NOT_READY {
                    // Claimed but unpublished (a worker died mid-insert):
                    // not part of the deterministic state, skip it.
                    return None;
                }
                Some((i as u64, key, cost))
            })
            .collect()
    }

    /// Places dumped entries back at their exact slots. Out-of-range
    /// slots are skipped; only meaningful on a fresh cache of the same
    /// size the dump was taken from, before any worker starts.
    pub fn restore(&self, entries: &[(u64, u64, u64)]) {
        for &(i, key, cost) in entries {
            let Some(slot) = self.slots.get(i as usize) else {
                continue;
            };
            // ordering: Release — cost before key, matching the insert
            // protocol (restore runs single-threaded anyway).
            slot.cost.store(cost, Ordering::Release);
            slot.key.store(key, Ordering::Release);
        }
    }

    /// `EMPTY` doubles as the vacancy marker, so a genuine zero key is
    /// remapped onto a fixed non-zero value.
    fn normalize(key: u64) -> u64 {
        if key == EMPTY {
            1
        } else {
            key
        }
    }

    /// The recorded cost of `key` (`+inf` = known invalid), or `None`
    /// when the key is absent or its cost is still being published.
    pub fn probe(&self, key: u64) -> Option<f64> {
        let key = Self::normalize(key);
        let base = key & self.mask;
        for i in 0..PROBE_WINDOW as u64 {
            let slot = &self.slots[((base + i) & self.mask) as usize];
            // ordering: Acquire — pairs with the AcqRel key CAS in
            // `insert` so a key match happens-after the claim.
            let k = slot.key.load(Ordering::Acquire);
            if k == EMPTY {
                return None;
            }
            if k == key {
                // ordering: Acquire — pairs with the Release cost store
                // in `insert`; anything other than NOT_READY is the
                // fully published cost, never a torn intermediate.
                let c = slot.cost.load(Ordering::Acquire);
                if c == NOT_READY {
                    return None;
                }
                return Some(f64::from_bits(c));
            }
        }
        None
    }

    /// Records `cost` for `key`. Silently drops the entry when the probe
    /// window is full; never overwrites an existing key's cost.
    pub fn insert(&self, key: u64, cost: f64) {
        let key = Self::normalize(key);
        let base = key & self.mask;
        for i in 0..PROBE_WINDOW as u64 {
            let slot = &self.slots[((base + i) & self.mask) as usize];
            // ordering: Acquire — see `probe`: a key hit means the slot
            // is claimed (its owner will publish the cost), so we bail.
            let k = slot.key.load(Ordering::Acquire);
            if k == key {
                return;
            }
            if k == EMPTY {
                // ordering: AcqRel / Acquire — success releases the
                // claim to racing probes and acquires the slot; failure
                // acquires the racing claimant's key for the == check.
                match slot
                    .key
                    .compare_exchange(EMPTY, key, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => {
                        // ordering: Release — publishes the cost; pairs
                        // with the Acquire cost load in `probe`. Written
                        // exactly once, by the CAS winner.
                        slot.cost.store(cost.to_bits(), Ordering::Release);
                        return;
                    }
                    Err(found) if found == key => return,
                    Err(_) => continue,
                }
            }
        }
        // Window full of other keys: the entry is dropped (see the
        // module docs — lossy, never wrong).
        MEMO_DROP.inc();
    }
}

impl std::fmt::Debug for MemoCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoCache")
            .field("slots", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_costs_and_infinity() {
        let memo = MemoCache::new(8);
        assert_eq!(memo.probe(42), None);
        memo.insert(42, 1.5);
        assert_eq!(memo.probe(42), Some(1.5));
        memo.insert(43, f64::INFINITY);
        assert_eq!(memo.probe(43), Some(f64::INFINITY));
    }

    #[test]
    fn zero_key_is_usable() {
        let memo = MemoCache::new(8);
        memo.insert(0, 2.0);
        assert_eq!(memo.probe(0), Some(2.0));
    }

    #[test]
    fn first_insert_wins() {
        let memo = MemoCache::new(8);
        memo.insert(7, 1.0);
        memo.insert(7, 9.0);
        assert_eq!(memo.probe(7), Some(1.0));
    }

    #[test]
    fn full_probe_window_is_lossy_not_wrong() {
        // 16 slots. Saturate every one; later inserts are dropped,
        // probes stay consistent with whatever was stored.
        let memo = MemoCache::new(4);
        for k in 1..100u64 {
            memo.insert(k, k as f64);
        }
        for k in 1..100u64 {
            if let Some(c) = memo.probe(k) {
                assert_eq!(c, k as f64);
            }
        }
    }

    #[test]
    fn dump_restore_reproduces_the_table_slot_exactly() {
        let memo = MemoCache::new(6);
        for k in 1..40u64 {
            memo.insert(k * 17, (k as f64) / 3.0);
        }
        memo.insert(999, f64::INFINITY);
        let dump = memo.dump();
        assert!(!dump.is_empty());
        let fresh = MemoCache::new(6);
        fresh.restore(&dump);
        assert_eq!(fresh.dump(), dump);
        for k in 1..40u64 {
            assert_eq!(fresh.probe(k * 17), memo.probe(k * 17));
        }
        assert_eq!(fresh.probe(999), Some(f64::INFINITY));
    }

    #[test]
    fn concurrent_inserts_never_tear() {
        let memo = MemoCache::new(10);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let memo = &memo;
                scope.spawn(move || {
                    for k in 1..2_000u64 {
                        memo.insert(k, k as f64);
                        if let Some(c) = memo.probe(k) {
                            assert_eq!(c, k as f64, "torn entry for {k} (thread {t})");
                        }
                    }
                });
            }
        });
    }
}
