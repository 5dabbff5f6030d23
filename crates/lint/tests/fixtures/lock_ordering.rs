// Fixture for the `lock-ordering` rule: a cache-stripe lock guard
// must never be held across a store fetch — the round trip would
// serialize every reader hashing to that stripe.

pub fn fetch_under_guard(shards: &[Mutex<Inner>], store: &Store) -> Vec<Option<Bytes>> {
    let mut inner = shards[0].lock();
    let rows = store.multi_get(Table::Deltas, KEYS, 0); // FIRES:lock-ordering
    inner.note(rows.len());
    rows
}

pub fn write_under_guard(shards: &[Mutex<Inner>], store: &Store, rows: Vec<PutRow>) {
    let inner = shards[0].lock();
    let outcome = store.put_batch(rows); // FIRES:lock-ordering
    inner.observe(outcome);
}

pub fn scan_under_read_guard(state: &RwLock<State>, store: &Store) -> Vec<Row> {
    let snapshot = state.read();
    let rows = store.scan_prefix_batch(Table::Deltas, snapshot.prefixes(), 0); // FIRES:lock-ordering
    rows
}

pub fn fetch_after_release(shards: &[Mutex<Inner>], store: &Store) -> Vec<Option<Bytes>> {
    let hit = {
        let inner = shards[0].lock();
        inner.probe()
    };
    if hit.is_none() {
        return store.multi_get(Table::Deltas, KEYS, 0); // clean: the guard's block closed
    }
    Vec::new()
}

pub fn fetch_after_drop(shards: &[Mutex<Inner>], store: &Store) -> Vec<Option<Bytes>> {
    let inner = shards[0].lock();
    drop(inner);
    store.multi_get(Table::Deltas, KEYS, 0) // clean: the guard was dropped first
}

pub fn temporary_guard_then_fetch(counter: &Mutex<u64>, store: &Store) -> Vec<Option<Bytes>> {
    let count = counter.lock().wrapping_add(1);
    store.multi_get(Table::Deltas, &keys_for(count), 0) // clean: the temporary guard died at the `;`
}

pub fn allowed_startup_fetch(shards: &[Mutex<Inner>], store: &Store) {
    let inner = shards[0].lock();
    // hgs-lint: allow(lock-ordering, "single-threaded bootstrap; no reader can contend for this stripe yet")
    let rows = store.multi_get(Table::Deltas, KEYS, 0);
    inner.observe(rows);
}
