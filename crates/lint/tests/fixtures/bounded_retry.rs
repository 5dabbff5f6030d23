// Fixture for the `bounded-retry` rule: a `loop`/`while` in library
// code that re-issues a store round trip is a hand-rolled retry/poll
// loop — without the store's RetryPolicy (attempt budget, capped
// backoff, breaker) it spins forever on a persistent fault.

pub fn poll_until_present(store: &Store, keys: &[Key]) -> Vec<Row> {
    loop {
        let rows = store.multi_get(Table::Deltas, keys); // FIRES:bounded-retry
        if !rows.is_empty() {
            return rows;
        }
    }
}

pub fn retry_flush_until_ok(store: &Store, rows: Vec<Row>) {
    while !shutting_down() {
        let out = store.try_put_batch(rows.clone()); // FIRES:bounded-retry
        if out.is_ok() {
            break;
        }
    }
}

pub fn get_is_no_store_read(store: &Map, key: &Key) -> Option<Row> {
    loop {
        // clean: every store read is a batch (`multi_get` /
        // `scan_prefix_batch`), so `get` names none.
        let row = store.get(key);
        if row.is_some() {
            return row;
        }
    }
}

pub fn single_issue_is_clean(store: &Store, keys: &[Key]) -> Vec<Row> {
    store.multi_get(Table::Deltas, keys) // clean: nothing re-issues it
}

pub fn finite_iteration_is_clean(store: &Store, batches: &[Vec<Key>]) -> Vec<Row> {
    let mut out = Vec::new();
    for b in batches {
        // clean: a `for` loop iterates a finite collection, it does
        // not re-issue the same operation on failure.
        out.extend(store.multi_get(Table::Deltas, b));
    }
    out
}

pub fn loop_without_store_traffic_is_clean(counter: &AtomicU64) {
    loop {
        if counter.fetch_add(1, Ordering::Relaxed) > 10 {
            break;
        }
    }
}

pub fn allowed_bounded_probe(store: &Store, keys: &[Key], budget: u32) -> Vec<Row> {
    let mut attempts = 0;
    loop {
        // hgs-lint: allow(bounded-retry, "bounded by the explicit attempts budget checked below")
        let rows = store.scan_prefix_batch(Table::Deltas, keys);
        if !rows.is_empty() || attempts >= budget {
            return rows;
        }
        attempts += 1;
    }
}
