//! Buffered, batched writes.
//!
//! The Index Manager's construction path (paper §4.4) emits thousands
//! of encoded rows per timespan; shipping each on its own pays one
//! round trip per row. [`WriteBuffer`] accumulates rows and flushes
//! them through [`SimStore::try_put_batch`] — the store's one write
//! operation — which groups the flush into **one round trip per
//! machine**: the write-side mirror of the read planner's
//! `multi_get`/`scan_prefix_batch` batching.

use bytes::Bytes;

use crate::key::Table;
use crate::store::{PutRow, SimStore, StoreError};

/// A write buffer over a [`SimStore`]: rows pushed into it are
/// batched until `max_rows` accumulate (or [`WriteBuffer::flush`] is
/// called), then shipped per machine in single round trips.
///
/// Failure semantics: inside [`SimStore::try_put_batch`] each
/// machine's share of the flush is retried through the store's
/// [`RetryPolicy`](crate::RetryPolicy) — capped backoff in simulated
/// time — before any row is declared failed, so a transient fault
/// window usually costs latency, not data. A row that still reaches
/// zero replicas surfaces from the flush (or the push that triggered
/// it) as [`StoreError::Transient`] when the retry budget was
/// exhausted or [`StoreError::Unavailable`] when its replica set is
/// permanently dead — only after the *whole* flushed batch has been
/// processed: rows placed on healthy machines land, partially
/// replicated rows are recorded for
/// [`SimStore::try_repair`](crate::SimStore::try_repair), and the
/// store's partial/failed put counters account for every row. Callers
/// must `flush()` before dropping the buffer; a dropped buffer with
/// pending rows debug-panics rather than silently losing writes.
pub struct WriteBuffer<'a> {
    store: &'a SimStore,
    rows: Vec<PutRow>,
    max_rows: usize,
}

impl<'a> WriteBuffer<'a> {
    /// A buffer flushing once `max_rows` rows are pending.
    pub fn new(store: &'a SimStore, max_rows: usize) -> WriteBuffer<'a> {
        WriteBuffer {
            store,
            rows: Vec::with_capacity(max_rows.min(1 << 14)),
            max_rows,
        }
    }

    /// Queue one row, flushing if the buffer is full.
    pub fn push(
        &mut self,
        table: Table,
        key: Vec<u8>,
        token: u64,
        value: Bytes,
    ) -> Result<(), StoreError> {
        self.rows.push(PutRow::new(table, key, token, value));
        if self.rows.len() >= self.max_rows {
            self.flush()?;
        }
        Ok(())
    }

    /// Queue a pre-built row (same semantics as [`WriteBuffer::push`]).
    pub fn push_row(&mut self, row: PutRow) -> Result<(), StoreError> {
        self.push(row.table, row.key, row.token, row.value)
    }

    /// Ship every pending row via [`SimStore::try_put_batch`]. A no-op
    /// on an empty buffer.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if self.rows.is_empty() {
            return Ok(());
        }
        let rows = std::mem::take(&mut self.rows);
        self.store.try_put_batch(rows).map(drop)
    }

    /// Drop any pending rows without writing them (error-path cleanup
    /// so the drop guard stays quiet once the build has already
    /// failed).
    pub fn abandon(&mut self) {
        self.rows.clear();
    }
}

impl Drop for WriteBuffer<'_> {
    fn drop(&mut self) {
        // Skipped during unwind: a double panic would abort the
        // process and mask the original failure.
        debug_assert!(
            std::thread::panicking() || self.rows.is_empty(),
            "WriteBuffer dropped with {} unflushed rows — call flush() (or abandon() on an \
             error path)",
            self.rows.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;

    #[test]
    fn buffered_pushes_flush_at_capacity_and_on_demand() {
        let s = SimStore::new(StoreConfig::new(2, 1));
        let mut buf = WriteBuffer::new(&s, 3);
        for i in 0..7u64 {
            buf.push(
                Table::Deltas,
                i.to_be_bytes().to_vec(),
                i,
                Bytes::from_static(b"v"),
            )
            .unwrap();
        }
        assert_eq!(buf.rows.len(), 1, "two full batches of 3 auto-flushed");
        buf.flush().unwrap();
        assert!(buf.rows.is_empty());
        assert_eq!(s.row_count(), 7);
        let batches: u64 = s.stats_snapshot().iter().map(|m| m.put_batches).sum();
        let puts: u64 = s.stats_snapshot().iter().map(|m| m.puts).sum();
        assert_eq!(puts, 7);
        assert!(batches < puts, "batched round trips stay under row count");
    }

    #[test]
    fn flush_against_dead_machine_surfaces_unavailable_but_accounts_rows() {
        let s = SimStore::new(StoreConfig::new(2, 1));
        let dead_token = 0u64;
        let live_token = 1u64;
        s.fail_machine(s.machine_for(dead_token, 0));
        let mut buf = WriteBuffer::new(&s, 16);
        buf.push(
            Table::Deltas,
            b"dead".to_vec(),
            dead_token,
            Bytes::from_static(b"v"),
        )
        .unwrap();
        buf.push(
            Table::Versions,
            b"live".to_vec(),
            live_token,
            Bytes::from_static(b"v"),
        )
        .unwrap();
        assert!(matches!(
            buf.flush(),
            Err(StoreError::Unavailable {
                table: Table::Deltas
            })
        ));
        assert_eq!(s.failed_put_count(), 1, "the dead row is accounted");
        assert_eq!(s.row_count(), 1, "the healthy row still landed");
    }
}
