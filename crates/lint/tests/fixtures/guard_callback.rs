// Fixture for the `no-guard-across-callback` rule: a parking_lot
// guard must never cross a worker-pool closure boundary — the moment
// a worker touches the same lock, the fan-out deadlocks.

pub fn steal_under_guard(stats: &Mutex<Stats>, items: Vec<Item>) -> Vec<Out> {
    let mut s = stats.lock();
    let out = parallel_steal(items, 4, process_one); // FIRES:no-guard-across-callback
    s.record(out.len());
    out
}

pub fn steal_under_read_guard(state: &RwLock<State>, ids: Vec<Id>) -> Vec<Row> {
    let snapshot = state.read();
    let rows = parallel_steal(ids, 2, fetch_one); // FIRES:no-guard-across-callback
    snapshot.check(&rows);
    rows
}

pub fn guard_released_before_fanout(stats: &Mutex<Stats>, items: Vec<Item>) -> Vec<Out> {
    {
        let mut s = stats.lock();
        s.mark_start();
    }
    parallel_steal(items, 4, process_one) // clean: no guard is live here
}

pub fn guard_dropped_before_fanout(stats: &Mutex<Stats>, items: Vec<Item>) -> Vec<Out> {
    let s = stats.lock();
    let width = s.width();
    drop(s);
    parallel_steal(items, width, process_one) // clean: the guard was dropped first
}

pub fn allowed_fanout_under_guard(stats: &Mutex<Stats>, items: Vec<Item>) -> Vec<Out> {
    let s = stats.lock();
    // hgs-lint: allow(no-guard-across-callback, "closures only read their own item; audited not to touch `stats`")
    let out = parallel_steal(items, 4, process_one);
    s.record(out.len());
    out
}
