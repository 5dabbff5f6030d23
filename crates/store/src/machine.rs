//! A single simulated storage machine: an ordered key space plus
//! access accounting.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bytes::Bytes;
use parking_lot::RwLock;

/// Monotonic access counters for one machine. All counters are
/// process-lifetime totals; [`MachineStats::snapshot`] and subtraction
/// of snapshots give per-experiment figures.
#[derive(Debug, Default)]
pub(crate) struct MachineStats {
    /// Point lookups served.
    pub(crate) gets: AtomicU64,
    /// Range scans served.
    pub(crate) scans: AtomicU64,
    /// Batched requests served (one batch = one client round-trip
    /// regardless of how many keys/prefixes it groups).
    pub(crate) batches: AtomicU64,
    /// Individual lookups/scans that arrived inside a batch (also
    /// counted in `gets`/`scans`, preserving `∑∆ 1` semantics; the
    /// cost model subtracts these and charges the batch one
    /// round-trip instead).
    pub(crate) batched_subrequests: AtomicU64,
    /// Values returned (scan rows + successful gets).
    pub(crate) rows_read: AtomicU64,
    /// Bytes of value data returned (stored, i.e. possibly compressed,
    /// size — what would travel over the wire).
    pub(crate) bytes_read: AtomicU64,
    /// Writes applied.
    pub(crate) puts: AtomicU64,
    /// Batched write requests served (one write batch = one client
    /// round-trip regardless of how many rows it carries — the
    /// write-side mirror of `batches`). Rows arriving inside a batch
    /// are still counted in `puts`, preserving `∑∆ 1` semantics.
    pub(crate) put_batches: AtomicU64,
    /// Bytes of value data written.
    pub(crate) bytes_written: AtomicU64,
}

/// A plain-old-data copy of one machine's access counters, plus the store-level
/// retry/breaker counters (`retries`, `breaker_opens`): those live in
/// the `SimStore`'s per-machine circuit breakers, not on the machine
/// itself, and are folded in by `SimStore::stats_snapshot` — a
/// machine-level snapshot reports them as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineStatsSnapshot {
    pub gets: u64,
    pub scans: u64,
    pub batches: u64,
    pub batched_subrequests: u64,
    pub rows_read: u64,
    pub bytes_read: u64,
    pub puts: u64,
    pub put_batches: u64,
    pub bytes_written: u64,
    /// Requests re-issued to this machine by the retry layer (attempts
    /// beyond the first of a logical operation).
    pub retries: u64,
    /// Times this machine's circuit breaker transitioned open.
    pub breaker_opens: u64,
}

impl MachineStatsSnapshot {
    /// Counter-wise difference (`self - earlier`), for bracketing an
    /// experiment.
    pub fn since(&self, earlier: &MachineStatsSnapshot) -> MachineStatsSnapshot {
        MachineStatsSnapshot {
            gets: self.gets - earlier.gets,
            scans: self.scans - earlier.scans,
            batches: self.batches - earlier.batches,
            batched_subrequests: self.batched_subrequests - earlier.batched_subrequests,
            rows_read: self.rows_read - earlier.rows_read,
            bytes_read: self.bytes_read - earlier.bytes_read,
            puts: self.puts - earlier.puts,
            put_batches: self.put_batches - earlier.put_batches,
            bytes_written: self.bytes_written - earlier.bytes_written,
            retries: self.retries - earlier.retries,
            breaker_opens: self.breaker_opens - earlier.breaker_opens,
        }
    }

    /// Sum with another snapshot.
    pub fn merge(&self, other: &MachineStatsSnapshot) -> MachineStatsSnapshot {
        MachineStatsSnapshot {
            gets: self.gets + other.gets,
            scans: self.scans + other.scans,
            batches: self.batches + other.batches,
            batched_subrequests: self.batched_subrequests + other.batched_subrequests,
            rows_read: self.rows_read + other.rows_read,
            bytes_read: self.bytes_read + other.bytes_read,
            puts: self.puts + other.puts,
            put_batches: self.put_batches + other.put_batches,
            bytes_written: self.bytes_written + other.bytes_written,
            retries: self.retries + other.retries,
            breaker_opens: self.breaker_opens + other.breaker_opens,
        }
    }
}

impl MachineStats {
    pub(crate) fn snapshot(&self) -> MachineStatsSnapshot {
        MachineStatsSnapshot {
            gets: self.gets.load(Ordering::Relaxed),
            scans: self.scans.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_subrequests: self.batched_subrequests.load(Ordering::Relaxed),
            rows_read: self.rows_read.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            put_batches: self.put_batches.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            // Folded in at the store layer; see the snapshot struct's
            // doc comment.
            retries: 0,
            breaker_opens: 0,
        }
    }
}

/// Error returned by reads against a machine that is currently failed
/// (see [`Machine::set_down`]); the store retries the next replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MachineDown;

/// Rows returned by a prefix scan: `(namespaced key, value)` pairs.
pub(crate) type ScanRows = Vec<(Vec<u8>, Bytes)>;

/// One storage machine: an ordered map from namespaced keys to values.
///
/// Keys are `[table_tag] ++ key_bytes`; because the map is ordered,
/// rows sharing a key prefix are contiguous, reproducing Cassandra's
/// clustering behaviour that TGI's layout exploits.
pub(crate) struct Machine {
    data: RwLock<BTreeMap<Vec<u8>, Bytes>>,
    stats: MachineStats,
    down: AtomicBool,
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Machine {
    pub(crate) fn new() -> Machine {
        Machine {
            data: RwLock::new(BTreeMap::new()),
            stats: MachineStats::default(),
            down: AtomicBool::new(false),
        }
    }

    /// Access counters.
    pub(crate) fn stats(&self) -> &MachineStats {
        &self.stats
    }

    /// Failure injection: a down machine refuses reads and writes.
    pub(crate) fn set_down(&self, down: bool) {
        self.down.store(down, Ordering::SeqCst);
    }

    /// Whether the machine is marked failed.
    pub(crate) fn is_down(&self) -> bool {
        self.down.load(Ordering::SeqCst)
    }

    /// Number of rows stored.
    pub(crate) fn row_count(&self) -> usize {
        self.data.read().len()
    }

    /// Total stored value bytes.
    pub(crate) fn stored_bytes(&self) -> usize {
        self.data.read().values().map(|v| v.len()).sum()
    }

    /// Insert a batch of rows under one lock acquisition, accounted as
    /// a single write round-trip (`put_batches += 1`) plus one logical
    /// put per row, mirroring [`Machine::multi_get`]'s read-side
    /// semantics. A down machine refuses the whole batch atomically —
    /// either every row lands or none does.
    pub(crate) fn put_batch(&self, rows: Vec<(Vec<u8>, Bytes)>) -> Result<(), MachineDown> {
        if self.is_down() {
            return Err(MachineDown);
        }
        self.stats.put_batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .puts
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        self.stats.bytes_written.fetch_add(
            rows.iter().map(|(_, v)| v.len() as u64).sum::<u64>(),
            Ordering::Relaxed,
        );
        let mut guard = self.data.write();
        for (k, v) in rows {
            guard.insert(k, v);
        }
        Ok(())
    }

    /// Full ordered content dump (namespaced keys, stored values) —
    /// an out-of-band inspection for equality tests, served even when
    /// the machine is marked down and not counted in the stats.
    pub(crate) fn dump_rows(&self) -> ScanRows {
        self.data
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Batched point lookups: all keys answered under one lock
    /// acquisition, accounted as a single batch round-trip (plus one
    /// logical get per key, preserving `∑∆ 1` semantics). `Ok(None)`
    /// marks an absent key; `Err(MachineDown)` a down machine.
    pub(crate) fn multi_get(&self, keys: &[Vec<u8>]) -> Result<Vec<Option<Bytes>>, MachineDown> {
        if self.is_down() {
            return Err(MachineDown);
        }
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .gets
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        self.stats
            .batched_subrequests
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        let guard = self.data.read();
        let mut out = Vec::with_capacity(keys.len());
        for k in keys {
            let v = guard.get(k).cloned();
            if let Some(v) = &v {
                self.stats.rows_read.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .bytes_read
                    .fetch_add(v.len() as u64, Ordering::Relaxed);
            }
            out.push(v);
        }
        Ok(out)
    }

    /// Batched prefix scans: one result group per prefix, each ordered
    /// by key, all served under one lock acquisition and accounted as
    /// one batch round-trip (plus one logical scan per prefix).
    pub(crate) fn scan_prefixes(&self, prefixes: &[Vec<u8>]) -> Result<Vec<ScanRows>, MachineDown> {
        if self.is_down() {
            return Err(MachineDown);
        }
        self.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.stats
            .scans
            .fetch_add(prefixes.len() as u64, Ordering::Relaxed);
        self.stats
            .batched_subrequests
            .fetch_add(prefixes.len() as u64, Ordering::Relaxed);
        let guard = self.data.read();
        Ok(prefixes
            .iter()
            .map(|p| self.scan_locked(&guard, p))
            .collect())
    }

    fn scan_locked(
        &self,
        guard: &BTreeMap<Vec<u8>, Bytes>,
        prefix: &[u8],
    ) -> Vec<(Vec<u8>, Bytes)> {
        let mut out = Vec::new();
        let range =
            guard.range::<Vec<u8>, _>((Bound::Included(&prefix.to_vec()), Bound::Unbounded));
        for (k, v) in range {
            if !k.starts_with(prefix) {
                break;
            }
            self.stats.rows_read.fetch_add(1, Ordering::Relaxed);
            self.stats
                .bytes_read
                .fetch_add(v.len() as u64, Ordering::Relaxed);
            out.push((k.clone(), v.clone()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(table: u8, rest: &[u8]) -> Vec<u8> {
        let mut k = vec![table];
        k.extend_from_slice(rest);
        k
    }

    /// Read one row as a one-key batch.
    fn get(m: &Machine, key: Vec<u8>) -> Result<Option<Bytes>, MachineDown> {
        Ok(m.multi_get(&[key])?.pop().flatten())
    }

    /// Write one row as a one-row batch.
    fn put(m: &Machine, key: Vec<u8>, value: &'static [u8]) -> Result<(), MachineDown> {
        m.put_batch(vec![(key, Bytes::from_static(value))])
    }

    #[test]
    fn put_then_get() {
        let m = Machine::new();
        put(&m, key(0, b"a"), b"v1").unwrap();
        assert_eq!(get(&m, key(0, b"a")).unwrap().as_deref(), Some(&b"v1"[..]));
        assert_eq!(get(&m, key(0, b"b")).unwrap(), None);
    }

    #[test]
    fn prefix_scan_is_ordered_and_bounded() {
        let m = Machine::new();
        put(&m, key(0, b"ab1"), b"1").unwrap();
        put(&m, key(0, b"ab2"), b"2").unwrap();
        put(&m, key(0, b"ac3"), b"3").unwrap();
        put(&m, key(1, b"ab9"), b"9").unwrap();
        let rows = &m.scan_prefixes(&[key(0, b"ab")]).unwrap()[0];
        assert_eq!(rows.len(), 2);
        assert!(rows[0].0 < rows[1].0);
    }

    #[test]
    fn down_machine_refuses() {
        let m = Machine::new();
        put(&m, key(0, b"a"), b"v").unwrap();
        m.set_down(true);
        assert!(get(&m, key(0, b"a")).is_err());
        assert!(put(&m, key(0, b"b"), b"v").is_err());
        m.set_down(false);
        assert!(get(&m, key(0, b"a")).is_ok());
    }

    #[test]
    fn multi_get_counts_one_batch() {
        let m = Machine::new();
        put(&m, key(0, b"a"), b"1").unwrap();
        put(&m, key(0, b"b"), b"22").unwrap();
        let before = m.stats().snapshot();
        let got = m
            .multi_get(&[key(0, b"a"), key(0, b"missing"), key(0, b"b")])
            .unwrap();
        assert_eq!(
            got.iter().map(|v| v.is_some()).collect::<Vec<_>>(),
            vec![true, false, true]
        );
        let diff = m.stats().snapshot().since(&before);
        assert_eq!(diff.batches, 1);
        assert_eq!(diff.gets, 3);
        assert_eq!(diff.rows_read, 2);
        assert_eq!(diff.bytes_read, 3);
    }

    #[test]
    fn scan_prefixes_groups_per_prefix() {
        let m = Machine::new();
        put(&m, key(0, b"aa1"), b"1").unwrap();
        put(&m, key(0, b"aa2"), b"2").unwrap();
        put(&m, key(0, b"bb1"), b"3").unwrap();
        let before = m.stats().snapshot();
        let groups = m
            .scan_prefixes(&[key(0, b"aa"), key(0, b"zz"), key(0, b"bb")])
            .unwrap();
        assert_eq!(
            groups.iter().map(|g| g.len()).collect::<Vec<_>>(),
            vec![2, 0, 1]
        );
        let diff = m.stats().snapshot().since(&before);
        assert_eq!(diff.batches, 1);
        assert_eq!(diff.scans, 3);
        assert_eq!(diff.rows_read, 3);
        m.set_down(true);
        assert!(m.scan_prefixes(&[key(0, b"aa")]).is_err());
        assert!(m.multi_get(&[key(0, b"aa1")]).is_err());
    }

    #[test]
    fn put_batch_counts_one_round_trip_and_refuses_when_down() {
        let m = Machine::new();
        let before = m.stats().snapshot();
        m.put_batch(vec![
            (key(0, b"a"), Bytes::from_static(b"1")),
            (key(0, b"b"), Bytes::from_static(b"22")),
            (key(1, b"c"), Bytes::from_static(b"333")),
        ])
        .unwrap();
        let diff = m.stats().snapshot().since(&before);
        assert_eq!(diff.put_batches, 1);
        assert_eq!(diff.puts, 3);
        assert_eq!(diff.bytes_written, 6);
        assert_eq!(get(&m, key(0, b"b")).unwrap().as_deref(), Some(&b"22"[..]));
        m.set_down(true);
        assert!(m
            .put_batch(vec![(key(0, b"z"), Bytes::from_static(b"v"))])
            .is_err());
        assert_eq!(m.dump_rows().len(), 3, "down batch must not land rows");
    }

    #[test]
    fn dump_rows_returns_ordered_content() {
        let m = Machine::new();
        put(&m, key(0, b"b"), b"2").unwrap();
        put(&m, key(0, b"a"), b"1").unwrap();
        let rows = m.dump_rows();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].0 < rows[1].0);
        m.set_down(true);
        assert_eq!(m.dump_rows().len(), 2, "dump is out-of-band");
    }

    #[test]
    fn stats_track_reads() {
        let m = Machine::new();
        put(&m, key(0, b"a"), b"hello").unwrap();
        let before = m.stats().snapshot();
        get(&m, key(0, b"a")).unwrap();
        get(&m, key(0, b"zzz")).unwrap();
        let after = m.stats().snapshot().since(&before);
        assert_eq!(after.gets, 2);
        assert_eq!(after.rows_read, 1);
        assert_eq!(after.bytes_read, 5);
    }
}
