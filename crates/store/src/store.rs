//! The simulated distributed store: placement, replication,
//! compression, chaos fault injection, bounded retry and accounting
//! over a set of [`Machine`]s.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use hgs_delta::compress::{compress, decompress};
use hgs_delta::{CodecError, FxHashSet};
use parking_lot::{Mutex, RwLock};

use crate::faults::{FaultPlan, FaultVerdict, CORRUPT_ON_READ_MARKER};
use crate::key::Table;
use crate::machine::{Machine, MachineDown, MachineStatsSnapshot};
use crate::retry::{Breaker, RetryPolicy};

/// Cluster configuration.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Number of storage machines (`m` in the paper).
    pub machines: usize,
    /// Replication factor (`r`): each chunk is written to `r`
    /// consecutive machines of the ring.
    pub replication: usize,
    /// Compress values with LZSS before storing (Fig. 13a); a value
    /// LZSS does not shrink is stored as written.
    pub compress: bool,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            machines: 4,
            replication: 1,
            compress: false,
        }
    }
}

impl StoreConfig {
    pub fn new(machines: usize, replication: usize) -> StoreConfig {
        StoreConfig {
            machines,
            replication,
            compress: false,
        }
    }

    pub fn with_compression(mut self, on: bool) -> StoreConfig {
        self.compress = on;
        self
    }
}

/// Errors surfaced by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Every replica holding the requested chunk is **permanently**
    /// down ([`SimStore::fail_machine`]), or missed a write of it that
    /// only dead replicas took. Retrying cannot help until a machine
    /// heals (and, for a missed write, [`SimStore::try_repair`] runs),
    /// so the error surfaces without burning the retry budget.
    Unavailable { table: Table },
    /// Transient faults (outage windows, flakes — see
    /// [`FaultPlan`]) survived every retry attempt on every
    /// replica. Distinct from [`StoreError::Unavailable`]: the replica
    /// set is alive, the operation may well succeed if re-issued
    /// later.
    Transient { attempts: u32, table: Table },
    /// Stored bytes failed to decompress.
    Corrupt(CodecError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Unavailable { table } => {
                write!(f, "all replicas down for a chunk of table {table}")
            }
            StoreError::Transient { attempts, table } => {
                write!(
                    f,
                    "transient faults exhausted {attempts} attempts for a chunk of table {table}"
                )
            }
            StoreError::Corrupt(e) => write!(f, "corrupt stored value: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Cluster-wide stats snapshot: one entry per machine.
pub type StoreStatsSnapshot = Vec<MachineStatsSnapshot>;

/// One row of a write batch — `(table, key, placement token, value)`
/// — as a value, so whole batches can be built up and shipped in
/// per-machine round trips.
#[derive(Debug, Clone)]
pub struct PutRow {
    pub table: Table,
    pub key: Vec<u8>,
    pub token: u64,
    pub value: Bytes,
}

impl PutRow {
    pub fn new(table: Table, key: Vec<u8>, token: u64, value: Bytes) -> PutRow {
        PutRow {
            table,
            key,
            token,
            value,
        }
    }
}

/// Per-row accounting of one [`SimStore::put_batch`]: every row of the
/// batch lands in exactly one bucket, so
/// `replicated + partial + failed == rows.len()` always holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchPutOutcome {
    /// Rows accepted by all `r` replicas.
    pub replicated: usize,
    /// Rows accepted by some but not all replicas (degraded
    /// durability; counted in [`SimStore::partial_put_count`]).
    pub partial: usize,
    /// Rows accepted by no replica even after the per-machine retry
    /// budget (counted in [`SimStore::failed_put_count`]). The rows
    /// did not land anywhere: [`SimStore::try_put_batch`] surfaces
    /// them as an error so the caller can re-issue the batch — the
    /// write buffer does exactly that before giving up (see
    /// [`WriteBuffer`](crate::WriteBuffer)).
    pub failed: usize,
    /// Table of the first fully-failed row, used by
    /// [`SimStore::try_put_batch`] to surface the error.
    pub first_failed_table: Option<Table>,
    /// When the first fully-failed row failed by *retry exhaustion*
    /// (transient faults survived the attempt budget on some replica),
    /// the attempts spent; `None` when its replica set was permanently
    /// dead. Decides [`StoreError::Transient`] vs
    /// [`StoreError::Unavailable`] in [`SimStore::try_put_batch`].
    pub transient_attempts: Option<u32>,
}

impl BatchPutOutcome {
    /// Total rows accounted for by this outcome.
    pub fn rows(&self) -> usize {
        self.replicated + self.partial + self.failed
    }
}

/// Report of one [`SimStore::try_repair`] anti-entropy pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Under-replicated rows the pass looked at.
    pub scanned: usize,
    /// Rows restored to full replication.
    pub repaired: usize,
    /// Rows still under-replicated afterwards (no reachable surviving
    /// copy, or a replica refused the re-write); they stay in the
    /// ledger for the next pass.
    pub still_degraded: usize,
}

/// Outcome of writing one machine's share of a batch, after the retry
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MachineWriteOutcome {
    /// The machine accepted the sub-batch.
    Accepted,
    /// Permanent machine death: retrying is hopeless.
    Dead,
    /// Transient faults survived every attempt (the budget spent).
    Exhausted(u32),
}

/// An under-replicated row's placement token, and the machines that
/// took its latest write.
type Degraded = (u64, Vec<usize>);

/// The simulated cluster. Cheap to share behind an `Arc`; all methods
/// take `&self`.
pub struct SimStore {
    cfg: StoreConfig,
    machines: Vec<Machine>,
    /// Writes that reached some but not all replicas (degraded
    /// durability — the data survives only while the accepting
    /// replicas stay up). [`SimStore::try_repair`] re-replicates them
    /// from the `under_replicated` ledger.
    partial_puts: AtomicU64,
    /// Writes that reached no replica at all (data loss unless the
    /// caller heeds [`SimStore::try_put_batch`]'s error).
    failed_puts: AtomicU64,
    /// The attached chaos schedule, if any (see [`crate::faults`]).
    faults: RwLock<Option<FaultPlan>>,
    /// Simulated time: one tick per machine-level request, plus the
    /// ticks retry backoff burns. Fault-plan outage windows and
    /// breaker cooldowns are expressed in these ticks; no wall clock
    /// is consulted anywhere.
    clock: AtomicU64,
    /// The retry/backoff/breaker policy every operation routes
    /// through.
    retry: RwLock<RetryPolicy>,
    /// Per-machine circuit breakers and retry counters.
    breakers: Vec<Breaker>,
    /// Rows that reached only a strict subset of their replicas:
    /// namespaced key → placement token and the machines that took
    /// the key's latest partial write, deduplicated. Drained by
    /// [`SimStore::try_repair`], and of a key by a write that reaches
    /// every replica.
    under_replicated: Mutex<BTreeMap<Vec<u8>, Degraded>>,
    /// Namespaced keys of the rows a compressing store holds as
    /// written, because LZSS would not have shrunk them. The choice is
    /// store metadata — as a block store keeps a chunk's compression
    /// type beside the chunk — never bytes of the row.
    stored_raw: RwLock<FxHashSet<Vec<u8>>>,
}

impl SimStore {
    /// Build a cluster of `cfg.machines` empty machines.
    pub fn new(cfg: StoreConfig) -> SimStore {
        assert!(cfg.machines >= 1, "need at least one machine");
        assert!(
            (1..=cfg.machines).contains(&cfg.replication),
            "replication must be in 1..=machines"
        );
        SimStore {
            cfg,
            machines: (0..cfg.machines).map(|_| Machine::new()).collect(),
            partial_puts: AtomicU64::new(0),
            failed_puts: AtomicU64::new(0),
            faults: RwLock::new(None),
            clock: AtomicU64::new(0),
            retry: RwLock::new(RetryPolicy::default()),
            breakers: (0..cfg.machines).map(|_| Breaker::new()).collect(),
            under_replicated: Mutex::new(BTreeMap::new()),
            stored_raw: RwLock::new(FxHashSet::default()),
        }
    }

    /// Attach a chaos fault plan (or detach with `None`). Installing a
    /// plan resets every circuit breaker: a new schedule is a new
    /// experiment, and stale breaker state must not bleed into it.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.faults.write() = plan;
        for b in &self.breakers {
            b.reset();
        }
    }

    /// The currently attached fault plan, if any.
    fn fault_plan(&self) -> Option<FaultPlan> {
        self.faults.read().clone()
    }

    /// Install the retry/backoff/breaker policy (validated; panics on
    /// nonsense like a zero attempt budget).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        policy.validate();
        *self.retry.write() = policy;
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        *self.retry.read()
    }

    /// Advance simulated time without issuing requests — how tests and
    /// benches step past a scheduled outage window or a breaker
    /// cooldown.
    pub fn advance_clock(&self, ticks: u64) {
        self.clock.fetch_add(ticks, Ordering::Relaxed);
    }

    /// Simulated time now: how a simulator places an outage window at
    /// a request it has counted ticks to.
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Per-machine modelled latency multipliers from the attached
    /// fault plan (all `1.0` without one). Feed to
    /// [`CostModel::estimate_seconds_with_latency`](crate::CostModel::estimate_seconds_with_latency)
    /// so a degraded machine slows the modelled makespan down.
    pub fn latency_multipliers(&self) -> Vec<f64> {
        let plan = self.faults.read();
        (0..self.machines.len())
            .map(|m| plan.as_ref().map_or(1.0, |p| p.latency_multiplier(m)))
            .collect()
    }

    /// Cluster configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Number of machines.
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// The machine index holding replica `replica` of a chunk with the
    /// given placement token.
    #[inline]
    pub fn machine_for(&self, token: u64, replica: usize) -> usize {
        ((token as usize) + replica) % self.machines.len()
    }

    fn namespaced(table: Table, key: &[u8]) -> Vec<u8> {
        let mut k = Vec::with_capacity(key.len() + 1);
        k.push(table.tag());
        k.extend_from_slice(key);
        k
    }

    /// Write one machine's share of a batch through the retry policy:
    /// transient faults are retried with capped exponential backoff in
    /// simulated time, permanent death fails fast, and an open circuit
    /// breaker skips the request (classified by whether the machine is
    /// actually dead behind it).
    fn put_machine_batch_with_retry(
        &self,
        m: usize,
        batch: Vec<(Vec<u8>, Bytes)>,
    ) -> MachineWriteOutcome {
        let policy = *self.retry.read();
        let plan = self.faults.read();
        let can_fault = plan.as_ref().is_some_and(|p| p.can_fault());
        if !can_fault {
            // Fast path: without transient faults every failure is
            // permanent death — single shot, no batch clone, no
            // backoff. The chaos layer costs the healthy ingest path
            // one clock tick.
            self.clock.fetch_add(1, Ordering::Relaxed);
            return match self.machines[m].put_batch(batch) {
                Ok(()) => MachineWriteOutcome::Accepted,
                Err(MachineDown) => MachineWriteOutcome::Dead,
            };
        }
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if attempt > 1 {
                self.breakers[m].note_retry();
            }
            let now = self.clock.fetch_add(1, Ordering::Relaxed);
            let transient = if !self.breakers[m].allows(now, &policy) {
                // Skipped by an open breaker: permanent if the machine
                // really is dead behind it, transient otherwise.
                !self.machines[m].is_down()
            } else {
                match plan
                    .as_ref()
                    .map_or(FaultVerdict::Healthy, |p| p.verdict(m, now))
                {
                    FaultVerdict::Outage | FaultVerdict::Flake => {
                        self.breakers[m].record_failure(now, &policy);
                        true
                    }
                    // Corrupt-on-read does not apply to writes.
                    FaultVerdict::Healthy | FaultVerdict::CorruptRead => {
                        match self.machines[m].put_batch(batch.clone()) {
                            Ok(()) => {
                                self.breakers[m].record_success();
                                return MachineWriteOutcome::Accepted;
                            }
                            Err(MachineDown) => return MachineWriteOutcome::Dead,
                        }
                    }
                }
            };
            if !transient {
                return MachineWriteOutcome::Dead;
            }
            if attempt >= policy.max_attempts {
                return MachineWriteOutcome::Exhausted(attempt);
            }
            self.clock
                .fetch_add(policy.backoff_ticks(attempt), Ordering::Relaxed);
        }
    }

    /// Write a batch of rows, grouped into **one round trip per
    /// machine**: every row is routed to all `r` replica machines of
    /// its placement token, the rows destined to one machine travel
    /// together as a single machine write, and per-row
    /// replica outcomes are re-assembled afterwards. The whole batch
    /// is always processed — a dead machine fails only the rows
    /// placed on it — so the partial/failed put counters account for
    /// every row. Each machine's sub-batch routes through the
    /// [`RetryPolicy`]: transiently refused round trips are re-issued
    /// with backoff in simulated time before any row is declared
    /// failed, and rows that reach only a subset of their replicas are
    /// recorded for [`SimStore::try_repair`].
    pub fn put_batch(&self, rows: Vec<PutRow>) -> BatchPutOutcome {
        let mut outcome = BatchPutOutcome::default();
        if rows.is_empty() {
            return outcome;
        }
        // Namespace + compress each row once, up front.
        let prepared: Vec<(Table, Vec<u8>, u64, Bytes)> = rows
            .into_iter()
            .map(|row| {
                let nk = Self::namespaced(row.table, &row.key);
                let stored = if self.cfg.compress {
                    self.stored_form(&nk, row.value)
                } else {
                    row.value
                };
                (row.table, nk, row.token, stored)
            })
            .collect();
        // Group row indices per destination machine (all replicas of a
        // row, merged with every other row landing on that machine).
        let mut per_machine: Vec<Vec<usize>> = vec![Vec::new(); self.machines.len()];
        for (i, &(_, _, token, _)) in prepared.iter().enumerate() {
            for r in 0..self.cfg.replication {
                per_machine[self.machine_for(token, r)].push(i);
            }
        }
        let mut ok = vec![0usize; prepared.len()];
        let mut machine_result: Vec<Option<MachineWriteOutcome>> = vec![None; self.machines.len()];
        for (m, idxs) in per_machine.into_iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let batch: Vec<(Vec<u8>, Bytes)> = idxs
                .iter()
                .map(|&i| (prepared[i].1.clone(), prepared[i].3.clone()))
                .collect();
            let res = self.put_machine_batch_with_retry(m, batch);
            if res == MachineWriteOutcome::Accepted {
                for &i in &idxs {
                    ok[i] += 1;
                }
            }
            machine_result[m] = Some(res);
        }
        let mut ledger = self.under_replicated.lock();
        for (i, &(table, ref nk, token, _)) in prepared.iter().enumerate() {
            if ok[i] == 0 {
                self.failed_puts.fetch_add(1, Ordering::Relaxed);
                if outcome.first_failed_table.is_none() {
                    outcome.first_failed_table = Some(table);
                    // Classify the first failed row: transient if any
                    // of its replicas exhausted the retry budget,
                    // permanent if they were all dead.
                    outcome.transient_attempts = (0..self.cfg.replication).find_map(|r| {
                        match machine_result[self.machine_for(token, r)] {
                            Some(MachineWriteOutcome::Exhausted(a)) => Some(a),
                            _ => None,
                        }
                    });
                }
                outcome.failed += 1;
            } else if ok[i] < self.cfg.replication {
                self.partial_puts.fetch_add(1, Ordering::Relaxed);
                outcome.partial += 1;
                // Only these machines hold this write: a replica that
                // missed it may hold an older value of the same key.
                let took = (0..self.cfg.replication)
                    .map(|r| self.machine_for(token, r))
                    .filter(|&m| machine_result[m] == Some(MachineWriteOutcome::Accepted))
                    .collect();
                ledger.insert(nk.clone(), (token, took));
            } else {
                outcome.replicated += 1;
                // Every replica holds this write now, whatever an older
                // partial one of the same key missed.
                ledger.remove(nk);
            }
        }
        outcome
    }

    /// Fallible [`SimStore::put_batch`]: the whole batch is still
    /// processed (rows on healthy machines land, counters account for
    /// every row, transiently-refused sub-batches are retried per the
    /// [`RetryPolicy`]), then any row that reached **zero** replicas
    /// surfaces as an error — a batched write the cluster did not
    /// accept anywhere must fail the caller, not silently shrink the
    /// index. The error distinguishes retry exhaustion
    /// ([`StoreError::Transient`], worth re-issuing later) from a
    /// permanently dead replica set ([`StoreError::Unavailable`]).
    pub fn try_put_batch(&self, rows: Vec<PutRow>) -> Result<BatchPutOutcome, StoreError> {
        let outcome = self.put_batch(rows);
        match (outcome.first_failed_table, outcome.transient_attempts) {
            (Some(table), Some(attempts)) => Err(StoreError::Transient { attempts, table }),
            (Some(table), None) => Err(StoreError::Unavailable { table }),
            (None, _) => Ok(outcome),
        }
    }

    /// Writes that reached only a strict subset of their replicas so
    /// far (degraded-durability writes).
    pub fn partial_put_count(&self) -> u64 {
        self.partial_puts.load(Ordering::Relaxed)
    }

    /// Writes that reached no replica so far (lost unless retried).
    pub fn failed_put_count(&self) -> u64 {
        self.failed_puts.load(Ordering::Relaxed)
    }

    /// One fault-aware, breaker-gated, retrying read: sweep the
    /// replicas in ring order once per attempt, backing off in
    /// simulated time between attempts. Returns the served value plus
    /// whether the fault plan corrupted this read on the wire.
    ///
    /// Error classification: a sweep that saw only *permanent* death
    /// (every replica [`Machine::is_down`]) surfaces
    /// [`StoreError::Unavailable`] immediately — retrying a dead
    /// replica set is hopeless. A sweep that saw any *transient*
    /// refusal keeps retrying until the attempt budget is spent, then
    /// surfaces [`StoreError::Transient`].
    fn read_with_retry<T>(
        &self,
        table: Table,
        token: u64,
        missed: impl Fn(usize) -> bool,
        op: impl Fn(&Machine) -> Result<T, MachineDown>,
    ) -> Result<(T, bool), StoreError> {
        let policy = *self.retry.read();
        let plan = self.faults.read();
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let mut saw_transient = false;
            for r in 0..self.cfg.replication {
                let m = self.machine_for(token, r);
                if attempt > 1 {
                    self.breakers[m].note_retry();
                }
                let now = self.clock.fetch_add(1, Ordering::Relaxed);
                if missed(m) {
                    // A replica that missed a write this read may
                    // return would answer it absent or old: like a dead
                    // one, it cannot serve until repaired.
                    continue;
                }
                if !self.breakers[m].allows(now, &policy) {
                    // Skipped by an open breaker: permanent if the
                    // machine really is dead behind it, transient
                    // otherwise (half-open probing will re-test it).
                    saw_transient |= !self.machines[m].is_down();
                    continue;
                }
                let verdict = plan
                    .as_ref()
                    .map_or(FaultVerdict::Healthy, |p| p.verdict(m, now));
                match verdict {
                    FaultVerdict::Outage | FaultVerdict::Flake => {
                        self.breakers[m].record_failure(now, &policy);
                        saw_transient = true;
                        continue;
                    }
                    FaultVerdict::Healthy | FaultVerdict::CorruptRead => {}
                }
                match op(&self.machines[m]) {
                    Ok(v) => {
                        self.breakers[m].record_success();
                        return Ok((v, verdict == FaultVerdict::CorruptRead));
                    }
                    // Permanent death: fail over to the next replica;
                    // not the breaker's business (it guards transient
                    // faults) and never retried.
                    Err(MachineDown) => continue,
                }
            }
            if !saw_transient {
                return Err(StoreError::Unavailable { table });
            }
            if attempt >= policy.max_attempts {
                return Err(StoreError::Transient {
                    attempts: attempt,
                    table,
                });
            }
            self.clock
                .fetch_add(policy.backoff_ticks(attempt), Ordering::Relaxed);
        }
    }

    /// Whether machine `m` missed the latest write of a row a read may
    /// return: one of `nks`, or with `prefixes` a row under one of
    /// them. A replica that was down or refusing when a write reached
    /// only its peers holds the row absent, or old, until
    /// [`SimStore::try_repair`] copies it over.
    fn missed(&self, m: usize, nks: &[Vec<u8>], prefixes: bool) -> bool {
        let ledger = self.under_replicated.lock();
        let stale = |(_, (_, took)): (&Vec<u8>, &Degraded)| !took.contains(&m);
        nks.iter().any(|nk| match prefixes {
            true => (ledger.range::<Vec<u8>, _>(nk..))
                .take_while(|(k, _)| k.starts_with(nk))
                .any(stale),
            false => ledger.get_key_value(nk).is_some_and(stale),
        })
    }

    /// Replace a read's bytes with garbage when the fault plan
    /// corrupted it on the wire (the stored row is untouched).
    fn maybe_corrupted(bytes: Bytes, corrupt: bool) -> Bytes {
        if corrupt {
            Bytes::from_static(CORRUPT_ON_READ_MARKER)
        } else {
            bytes
        }
    }

    /// Batched point lookups with retry and replica failover: all keys
    /// share one placement token (one chunk), so a single machine
    /// answers the whole batch in one round-trip. One of the store's
    /// two reads (with [`SimStore::scan_prefix_batch`]): a single-row
    /// read is a batch of one, and costs what a batch costs.
    pub fn multi_get(
        &self,
        table: Table,
        keys: &[&[u8]],
        token: u64,
    ) -> Result<Vec<Option<Bytes>>, StoreError> {
        let nks: Vec<Vec<u8>> = keys.iter().map(|k| Self::namespaced(table, k)).collect();
        let missed = |m| self.missed(m, &nks, false);
        let (values, corrupt) =
            self.read_with_retry(table, token, missed, |m| m.multi_get(&nks))?;
        let mut out = Vec::with_capacity(values.len());
        for (nk, v) in nks.iter().zip(values) {
            out.push(match v {
                Some(bytes) => {
                    Some(self.maybe_decompress(nk, Self::maybe_corrupted(bytes, corrupt))?)
                }
                None => None,
            });
        }
        Ok(out)
    }

    /// Grouped prefix scan with retry and replica failover: one result
    /// group per prefix, in input order, served by a single machine
    /// round-trip (all prefixes share one placement token). Keys are
    /// returned without the table namespace byte. This is the fetch
    /// unit of the multipoint snapshot planner: the union of a query
    /// batch's tree-path deltas for one `(tsid, sid)` chunk travels as
    /// one request.
    pub fn scan_prefix_batch(
        &self,
        table: Table,
        prefixes: &[&[u8]],
        token: u64,
    ) -> Result<Vec<crate::machine::ScanRows>, StoreError> {
        let nps: Vec<Vec<u8>> = prefixes
            .iter()
            .map(|p| Self::namespaced(table, p))
            .collect();
        let missed = |m| self.missed(m, &nps, true);
        let (groups, corrupt) =
            self.read_with_retry(table, token, missed, |m| m.scan_prefixes(&nps))?;
        let mut out = Vec::with_capacity(groups.len());
        for rows in groups {
            let mut group = Vec::with_capacity(rows.len());
            for (k, v) in rows {
                let v = self.maybe_decompress(&k, Self::maybe_corrupted(v, corrupt))?;
                group.push((k[1..].to_vec(), v));
            }
            out.push(group);
        }
        Ok(out)
    }

    /// What a compressing store writes for `value` under `nk`: its
    /// LZSS stream when that is shorter, else the value as it came
    /// (noted in `stored_raw`).
    fn stored_form(&self, nk: &[u8], value: Bytes) -> Bytes {
        let lz = compress(&value);
        let mut raw = self.stored_raw.write();
        if lz.len() < value.len() {
            raw.remove(nk);
            lz
        } else {
            raw.insert(nk.to_vec());
            value
        }
    }

    fn maybe_decompress(&self, nk: &[u8], bytes: Bytes) -> Result<Bytes, StoreError> {
        if self.cfg.compress && !self.stored_raw.read().contains(nk) {
            decompress(&bytes).map_err(StoreError::Corrupt)
        } else {
            Ok(bytes)
        }
    }

    /// Mark a machine failed (**permanent** death until healed —
    /// transient faults are the fault plan's job, see
    /// [`FaultPlan`]).
    pub fn fail_machine(&self, idx: usize) {
        self.machines[idx].set_down(true);
    }

    /// Bring a failed machine back (its data is intact). Also resets
    /// the machine's circuit breaker: a freshly recovered replica
    /// starts with a clean slate.
    pub fn heal_machine(&self, idx: usize) {
        self.machines[idx].set_down(false);
        self.breakers[idx].reset();
    }

    /// Heal every machine (recovery-test and bench convenience).
    pub fn heal_all(&self) {
        for m in 0..self.machines.len() {
            self.heal_machine(m);
        }
    }

    /// Rows currently known to be under-replicated (the repair
    /// ledger's size).
    pub fn under_replicated_count(&self) -> usize {
        self.under_replicated.lock().len()
    }

    /// One anti-entropy pass over the under-replication ledger: for
    /// every recorded row, read the stored bytes back from a replica
    /// that took the row's latest write — never from one that missed
    /// it, which may hold an older value of a rewritten key such as
    /// `Graph/meta` — and re-write them — verbatim, already compressed — to
    /// every replica of the row's chunk (idempotent for the ones that
    /// already hold it). Rows whose surviving copies are unreachable,
    /// or whose re-writes are refused, stay in the ledger for the next
    /// pass; a corrupt-on-read verdict disqualifies a replica as the
    /// repair source (garbage must never be propagated into stored
    /// state). After a pass that repairs everything, the store's
    /// content is byte-identical to a never-degraded build.
    pub fn try_repair(&self) -> Result<RepairReport, StoreError> {
        // A copy: rows stay in the ledger — and off the replicas that
        // missed them — until their re-writes land.
        let pending: Vec<(Vec<u8>, Degraded)> = (self.under_replicated.lock())
            .iter()
            .map(|(nk, entry)| (nk.clone(), entry.clone()))
            .collect();
        let mut report = RepairReport {
            scanned: pending.len(),
            ..RepairReport::default()
        };
        // Copies, not guards: no lock is held across the pass's reads.
        let (policy, plan) = (self.retry_policy(), self.fault_plan());
        for (nk, (token, took)) in pending {
            let mut copy: Option<Bytes> = None;
            for &m in &took {
                let now = self.clock.fetch_add(1, Ordering::Relaxed);
                // A replica past the cluster cannot serve: skip it.
                let (Some(breaker), Some(machine)) = (self.breakers.get(m), self.machines.get(m))
                else {
                    continue;
                };
                if !breaker.allows(now, &policy) {
                    continue;
                }
                match plan
                    .as_ref()
                    .map_or(FaultVerdict::Healthy, |p| p.verdict(m, now))
                {
                    FaultVerdict::Outage | FaultVerdict::Flake | FaultVerdict::CorruptRead => {
                        continue;
                    }
                    FaultVerdict::Healthy => {}
                }
                let got = machine.multi_get(std::slice::from_ref(&nk));
                if let Some(v) = got.ok().and_then(|mut rows| rows.pop()).flatten() {
                    copy = Some(v);
                    break;
                }
            }
            let Some(v) = copy else {
                report.still_degraded += 1;
                continue;
            };
            let mut complete = true;
            for r in 0..self.cfg.replication {
                let m = self.machine_for(token, r);
                let now = self.clock.fetch_add(1, Ordering::Relaxed);
                let refused = matches!(
                    plan.as_ref()
                        .map_or(FaultVerdict::Healthy, |p| p.verdict(m, now)),
                    FaultVerdict::Outage | FaultVerdict::Flake
                );
                // A re-write is a batch of one, like a point read; a
                // replica past the cluster cannot take it.
                let written =
                    |machine: &Machine| machine.put_batch(vec![(nk.clone(), v.clone())]).is_ok();
                if refused || !self.machines.get(m).is_some_and(written) {
                    complete = false;
                }
            }
            if complete {
                report.repaired += 1;
                let mut ledger = self.under_replicated.lock();
                // Unless a newer partial write replaced the entry.
                if ledger.get(&nk).is_some_and(|(_, now)| *now == took) {
                    ledger.remove(&nk);
                }
            } else {
                report.still_degraded += 1;
            }
        }
        Ok(report)
    }

    /// Per-machine access-counter snapshot, with the store-level
    /// retry/breaker counters folded in.
    pub fn stats_snapshot(&self) -> StoreStatsSnapshot {
        self.machines
            .iter()
            .zip(&self.breakers)
            .map(|(m, b)| {
                let mut s = m.stats().snapshot();
                s.retries = b.retries();
                s.breaker_opens = b.opens();
                s
            })
            .collect()
    }

    /// Difference of two snapshots (per machine).
    pub fn stats_since(now: &StoreStatsSnapshot, then: &StoreStatsSnapshot) -> StoreStatsSnapshot {
        now.iter()
            .zip(then.iter())
            .map(|(a, b)| a.since(b))
            .collect()
    }

    /// Total stored bytes across machines — the index *size* measure of
    /// Table 1 (counts each replica once; divide by `r` for logical
    /// size).
    pub fn stored_bytes(&self) -> usize {
        self.machines.iter().map(|m| m.stored_bytes()).sum()
    }

    /// Total row count across machines (replicas included).
    pub fn row_count(&self) -> usize {
        self.machines.iter().map(|m| m.row_count()).sum()
    }

    /// Full per-machine content dump (namespaced keys, stored values),
    /// out-of-band: served even from down machines and not counted in
    /// the stats. This is the oracle of the build-equivalence property
    /// tests — two stores are interchangeable iff their dumps are
    /// row-for-row identical.
    pub fn content_rows(&self) -> Vec<crate::machine::ScanRows> {
        self.machines.iter().map(|m| m.dump_rows()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{DeltaKey, PlacementKey};

    fn store(m: usize, r: usize) -> SimStore {
        SimStore::new(StoreConfig::new(m, r))
    }

    /// Write one row as a one-row batch.
    fn put(s: &SimStore, table: Table, key: &[u8], token: u64, value: Bytes) -> BatchPutOutcome {
        s.put_batch(vec![PutRow::new(table, key.to_vec(), token, value)])
    }

    /// Read one row as a one-key batch.
    fn get(
        s: &SimStore,
        table: Table,
        key: &[u8],
        token: u64,
    ) -> Result<Option<Bytes>, StoreError> {
        Ok(s.multi_get(table, &[key], token)?.pop().flatten())
    }

    #[test]
    fn put_get_roundtrip() {
        let s = store(3, 1);
        let k = DeltaKey::new(0, 1, 2, 3);
        put(
            &s,
            Table::Deltas,
            &k.encode(),
            k.placement().token(),
            Bytes::from_static(b"v"),
        );
        let got = get(&s, Table::Deltas, &k.encode(), k.placement().token()).unwrap();
        assert_eq!(got.as_deref(), Some(&b"v"[..]));
    }

    #[test]
    fn tables_are_isolated() {
        let s = store(1, 1);
        put(&s, Table::Deltas, b"k", 0, Bytes::from_static(b"a"));
        put(&s, Table::Versions, b"k", 0, Bytes::from_static(b"b"));
        assert_eq!(
            get(&s, Table::Deltas, b"k", 0).unwrap().as_deref(),
            Some(&b"a"[..])
        );
        assert_eq!(
            get(&s, Table::Versions, b"k", 0).unwrap().as_deref(),
            Some(&b"b"[..])
        );
    }

    #[test]
    fn scan_returns_clustered_rows_in_order() {
        let s = store(2, 1);
        let pk = PlacementKey::new(5, 0);
        for pid in [3u32, 1, 2, 0] {
            let k = DeltaKey::new(5, 0, 9, pid);
            put(
                &s,
                Table::Deltas,
                &k.encode(),
                pk.token(),
                Bytes::from(vec![pid as u8]),
            );
        }
        // A row of another delta on the same placement must not appear.
        let other = DeltaKey::new(5, 0, 10, 0);
        put(
            &s,
            Table::Deltas,
            &other.encode(),
            pk.token(),
            Bytes::from_static(b"x"),
        );
        let prefix = DeltaKey::delta_prefix(5, 0, 9);
        let groups = s
            .scan_prefix_batch(Table::Deltas, &[&prefix], pk.token())
            .unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 4);
        let pids: Vec<u32> = groups[0]
            .iter()
            .map(|(k, _)| DeltaKey::decode(k).unwrap().pid)
            .collect();
        assert_eq!(pids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn replication_survives_failure() {
        let s = store(3, 2);
        let token = 0u64;
        put(&s, Table::Deltas, b"k", token, Bytes::from_static(b"v"));
        let primary = s.machine_for(token, 0);
        s.fail_machine(primary);
        assert_eq!(
            get(&s, Table::Deltas, b"k", token).unwrap().as_deref(),
            Some(&b"v"[..])
        );
        // Failing the replica too makes the chunk unavailable.
        s.fail_machine(s.machine_for(token, 1));
        assert!(matches!(
            get(&s, Table::Deltas, b"k", token),
            Err(StoreError::Unavailable { .. })
        ));
        s.heal_machine(primary);
        assert!(get(&s, Table::Deltas, b"k", token).is_ok());
    }

    #[test]
    fn no_replication_no_failover() {
        let s = store(2, 1);
        put(&s, Table::Deltas, b"k", 0, Bytes::from_static(b"v"));
        s.fail_machine(s.machine_for(0, 0));
        assert!(get(&s, Table::Deltas, b"k", 0).is_err());
    }

    #[test]
    fn compression_is_transparent() {
        let s = SimStore::new(StoreConfig::new(1, 1).with_compression(true));
        let value = Bytes::from(b"abcabcabcabcabcabcabcabcabc".repeat(100));
        put(&s, Table::Deltas, b"k", 0, value.clone());
        assert!(
            s.stored_bytes() < value.len(),
            "stored form should be smaller"
        );
        assert_eq!(
            get(&s, Table::Deltas, b"k", 0).unwrap().as_deref(),
            Some(&value[..])
        );
    }

    #[test]
    fn replicas_double_stored_bytes() {
        let s1 = store(4, 1);
        let s2 = store(4, 2);
        for s in [&s1, &s2] {
            for i in 0..32u64 {
                put(
                    s,
                    Table::Deltas,
                    &i.to_be_bytes(),
                    i * 7919,
                    Bytes::from(vec![0u8; 100]),
                );
            }
        }
        assert_eq!(s2.stored_bytes(), 2 * s1.stored_bytes());
    }

    #[test]
    fn placement_is_reasonably_balanced() {
        let s = store(4, 1);
        for i in 0..4000u64 {
            let pk = PlacementKey::new((i / 64) as u32, (i % 64) as u32);
            put(
                &s,
                Table::Deltas,
                &i.to_be_bytes(),
                pk.token(),
                Bytes::from_static(b"v"),
            );
        }
        let rows: Vec<usize> = s.content_rows().iter().map(Vec::len).collect();
        let min = *rows.iter().min().unwrap();
        let max = *rows.iter().max().unwrap();
        assert!(max < 2 * min, "placement imbalance: {rows:?}");
    }

    #[test]
    fn stats_bracketing() {
        let s = store(2, 1);
        put(&s, Table::Deltas, b"k", 0, Bytes::from_static(b"hello"));
        let t0 = s.stats_snapshot();
        get(&s, Table::Deltas, b"k", 0).unwrap();
        let diff = SimStore::stats_since(&s.stats_snapshot(), &t0);
        let total_gets: u64 = diff.iter().map(|m| m.gets).sum();
        assert_eq!(total_gets, 1);
    }

    #[test]
    #[should_panic]
    fn invalid_replication_rejected() {
        let _ = SimStore::new(StoreConfig::new(2, 3));
    }

    /// A single-row read is a batch of one, and costs what the deleted
    /// `get` / `scan_prefix` cost: one client round trip (`batches +
    /// gets + scans − batched_subrequests`), one seek (`gets + scans`)
    /// and its row's bytes — so no counter derived from the store's
    /// stats moved when they went.
    #[test]
    fn a_batch_of_one_costs_one_round_trip_one_seek_and_its_row() {
        let s = store(2, 1);
        let value = Bytes::from_static(b"twelve bytes");
        put(&s, Table::Deltas, b"k", 0, value.clone());
        let model = crate::CostModel::default();
        let bytes = value.len() as f64;
        let want_secs =
            (model.rtt_us + model.seek_us + bytes * (model.server_byte_us + model.client_byte_us))
                / 1e6;
        let one_key = || drop(s.multi_get(Table::Deltas, &[b"k"], 0).unwrap());
        let one_prefix = || drop(s.scan_prefix_batch(Table::Deltas, &[b"k"], 0).unwrap());
        for read in [&one_key as &dyn Fn(), &one_prefix] {
            let before = s.stats_snapshot();
            read();
            let diff = SimStore::stats_since(&s.stats_snapshot(), &before);
            let m = diff
                .iter()
                .fold(MachineStatsSnapshot::default(), |a, b| a.merge(b));
            assert_eq!(m.batches + m.gets + m.scans - m.batched_subrequests, 1);
            assert_eq!(m.gets + m.scans, 1);
            assert_eq!((m.rows_read, m.bytes_read), (1, value.len() as u64));
            assert!((model.estimate_seconds(&diff, 1) - want_secs).abs() < 1e-12);
        }
    }

    #[test]
    fn batched_reads_fail_over_and_surface_unavailability() {
        let s = store(3, 2);
        let token = 0u64;
        put(&s, Table::Deltas, b"k1", token, Bytes::from_static(b"a"));
        put(&s, Table::Deltas, b"k2", token, Bytes::from_static(b"b"));
        s.fail_machine(s.machine_for(token, 0));
        let got = s
            .multi_get(Table::Deltas, &[b"k1", b"k2", b"nope"], token)
            .unwrap();
        assert_eq!(got[0].as_deref(), Some(&b"a"[..]));
        assert_eq!(got[1].as_deref(), Some(&b"b"[..]));
        assert_eq!(got[2], None);
        s.fail_machine(s.machine_for(token, 1));
        assert!(matches!(
            s.multi_get(Table::Deltas, &[b"k1"], token),
            Err(StoreError::Unavailable { .. })
        ));
        assert!(matches!(
            s.scan_prefix_batch(Table::Deltas, &[b"k"], token),
            Err(StoreError::Unavailable { .. })
        ));
    }

    #[test]
    fn put_batch_matches_one_row_batches_and_counts_machine_round_trips() {
        let individual = store(3, 1);
        let batched = store(3, 1);
        let rows: Vec<PutRow> = (0..24u64)
            .map(|i| {
                PutRow::new(
                    Table::Deltas,
                    i.to_be_bytes().to_vec(),
                    i * 7919,
                    Bytes::from(vec![i as u8; 8]),
                )
            })
            .collect();
        for r in &rows {
            put(&individual, r.table, &r.key, r.token, r.value.clone());
        }
        let before = batched.stats_snapshot();
        let outcome = batched.try_put_batch(rows.clone()).unwrap();
        assert_eq!(outcome.replicated, rows.len());
        assert_eq!(outcome.rows(), rows.len());
        let diff = SimStore::stats_since(&batched.stats_snapshot(), &before);
        let put_batches: u64 = diff.iter().map(|m| m.put_batches).sum();
        let puts: u64 = diff.iter().map(|m| m.puts).sum();
        assert_eq!(puts, rows.len() as u64, "one logical put per row");
        assert!(
            put_batches <= batched.machine_count() as u64,
            "at most one round trip per machine, got {put_batches}"
        );
        assert_eq!(
            individual.content_rows(),
            batched.content_rows(),
            "batched writes must place identical content"
        );
    }

    #[test]
    fn put_batch_reaches_every_replica() {
        let s = store(4, 2);
        s.try_put_batch(vec![PutRow::new(
            Table::Deltas,
            b"k".to_vec(),
            3,
            Bytes::from_static(b"v"),
        )])
        .unwrap();
        s.fail_machine(s.machine_for(3, 0));
        assert_eq!(
            get(&s, Table::Deltas, b"k", 3).unwrap().as_deref(),
            Some(&b"v"[..]),
            "batched write must reach every replica"
        );
    }

    #[test]
    fn put_batch_processes_whole_batch_and_accounts_every_row() {
        let s = store(3, 1);
        // Tokens 0, 1, 2 land on distinct machines; kill machine of
        // token 1.
        let dead = s.machine_for(1, 0);
        s.fail_machine(dead);
        let rows: Vec<PutRow> = (0..9u64)
            .map(|i| {
                PutRow::new(
                    Table::Deltas,
                    i.to_be_bytes().to_vec(),
                    i % 3,
                    Bytes::from_static(b"v"),
                )
            })
            .collect();
        let outcome = s.put_batch(rows);
        assert_eq!(outcome.failed, 3, "every row of the dead machine fails");
        assert_eq!(outcome.replicated, 6, "healthy machines' rows all land");
        assert_eq!(outcome.partial, 0);
        assert_eq!(outcome.rows(), 9, "every row is accounted exactly once");
        assert_eq!(s.failed_put_count(), 3);
        assert_eq!(s.row_count(), 6);
        assert!(matches!(
            s.try_put_batch(vec![PutRow::new(
                Table::Versions,
                b"x".to_vec(),
                1,
                Bytes::from_static(b"v")
            )]),
            Err(StoreError::Unavailable {
                table: Table::Versions
            })
        ));
    }

    #[test]
    fn put_batch_counts_partial_replication() {
        let s = store(3, 2);
        s.fail_machine(s.machine_for(0, 1));
        let outcome = s.put_batch(vec![PutRow::new(
            Table::Deltas,
            b"k".to_vec(),
            0,
            Bytes::from_static(b"v"),
        )]);
        assert_eq!(outcome.partial, 1);
        assert_eq!(outcome.failed, 0);
        assert_eq!(s.partial_put_count(), 1);
    }

    #[test]
    fn flakes_are_retried_to_success_and_counted() {
        // One machine, r = 1: no failover masks the flakes, so every
        // success after a flaky verdict is the retry layer's doing.
        let s = store(1, 1);
        s.set_fault_plan(Some(
            FaultPlan::new(0xDECAF)
                .with_flake_per_mille(300)
                .with_corrupt_per_mille(0),
        ));
        s.set_retry_policy(RetryPolicy {
            max_attempts: 8,
            breaker_threshold: 0,
            ..RetryPolicy::default()
        });
        let mut wrote = 0usize;
        for i in 0..50u64 {
            let key = i.to_be_bytes();
            wrote += put(&s, Table::Deltas, &key, i, Bytes::from_static(b"v")).replicated;
        }
        assert!(
            wrote > 40,
            "one-row batches are retried like any other: {wrote}"
        );
        let mut ok = 0usize;
        for i in 0..50u64 {
            match get(&s, Table::Deltas, &i.to_be_bytes(), i) {
                Ok(_) => ok += 1,
                Err(StoreError::Transient { attempts, .. }) => {
                    assert_eq!(attempts, 8, "exhaustion reports the budget")
                }
                Err(other) => panic!("unexpected error kind: {other}"),
            }
        }
        assert!(ok > 40, "a 0.3 flake rate rarely survives 8 attempts: {ok}");
        let retries: u64 = s.stats_snapshot().iter().map(|m| m.retries).sum();
        assert!(retries > 0, "flaky reads must have been re-issued");
    }

    #[test]
    fn outage_window_surfaces_transient_then_heals_with_time() {
        let s = store(1, 1);
        put(&s, Table::Deltas, b"k", 0, Bytes::from_static(b"v"));
        s.set_fault_plan(Some(FaultPlan::new(1).with_outage(0, 0, 10_000)));
        match get(&s, Table::Deltas, b"k", 0) {
            Err(StoreError::Transient { attempts, .. }) => {
                assert_eq!(attempts, s.retry_policy().max_attempts);
            }
            other => panic!("expected Transient during the outage, got {other:?}"),
        }
        // Simulated time passes the window (plus any breaker cooldown):
        // the same read answers again, no healing call required.
        s.advance_clock(20_000);
        assert_eq!(
            get(&s, Table::Deltas, b"k", 0).unwrap().as_deref(),
            Some(&b"v"[..]),
            "an elapsed outage window heals on its own"
        );
    }

    #[test]
    fn permanent_death_stays_unavailable_not_transient() {
        let s = store(2, 1);
        put(&s, Table::Deltas, b"k", 0, Bytes::from_static(b"v"));
        s.fail_machine(s.machine_for(0, 0));
        // Even with a fault plan attached, a dead replica set is
        // permanent: no retry budget is burned, the error says so.
        s.set_fault_plan(Some(FaultPlan::new(2)));
        let before: u64 = s.stats_snapshot().iter().map(|m| m.retries).sum();
        assert!(matches!(
            get(&s, Table::Deltas, b"k", 0),
            Err(StoreError::Unavailable { .. })
        ));
        let after: u64 = s.stats_snapshot().iter().map(|m| m.retries).sum();
        assert_eq!(after, before, "dead machines are not retried");
    }

    #[test]
    fn failover_masks_an_outage_on_one_replica() {
        let s = store(3, 2);
        let token = 0u64;
        put(&s, Table::Deltas, b"k", token, Bytes::from_static(b"v"));
        let primary = s.machine_for(token, 0);
        s.set_fault_plan(Some(FaultPlan::new(3).with_outage(primary, 0, 1_000_000)));
        for _ in 0..20 {
            assert_eq!(
                get(&s, Table::Deltas, b"k", token).unwrap().as_deref(),
                Some(&b"v"[..]),
                "the healthy replica serves through the outage"
            );
        }
    }

    #[test]
    fn breaker_opens_under_sustained_outage_and_probes_shut() {
        let s = store(1, 1);
        put(&s, Table::Deltas, b"k", 0, Bytes::from_static(b"v"));
        s.set_retry_policy(RetryPolicy {
            breaker_threshold: 4,
            breaker_cooldown_ticks: 50,
            ..RetryPolicy::default()
        });
        s.set_fault_plan(Some(FaultPlan::new(4).with_outage(0, 0, 500)));
        for _ in 0..10 {
            let _ = get(&s, Table::Deltas, b"k", 0);
        }
        let opens: u64 = s.stats_snapshot().iter().map(|m| m.breaker_opens).sum();
        assert!(opens >= 1, "sustained faults must open the breaker");
        // Past the window and cooldown, a half-open probe succeeds and
        // closes the breaker; reads answer again.
        s.advance_clock(1_000);
        assert_eq!(
            get(&s, Table::Deltas, b"k", 0).unwrap().as_deref(),
            Some(&b"v"[..])
        );
    }

    #[test]
    fn compression_keeps_a_row_it_cannot_shrink_as_written() {
        let s = SimStore::new(StoreConfig::new(1, 1).with_compression(true));
        let dense = Bytes::from((0..=255u8).collect::<Vec<u8>>());
        let repetitive = Bytes::from(b"abcabcabc".repeat(50));
        put(&s, Table::Deltas, b"dense", 0, dense.clone());
        assert_eq!(s.stored_bytes(), dense.len(), "no framing on a kept row");
        put(&s, Table::Deltas, b"rep", 0, repetitive.clone());
        assert!(s.stored_bytes() < dense.len() + repetitive.len());
        // Overwrites switch the stored form both ways.
        put(&s, Table::Deltas, b"dense", 0, repetitive.clone());
        put(&s, Table::Deltas, b"rep", 0, dense.clone());
        for (key, want) in [(&b"dense"[..], &repetitive), (b"rep", &dense)] {
            assert_eq!(get(&s, Table::Deltas, key, 0).unwrap().as_ref(), Some(want));
        }
        let scanned = s
            .scan_prefix_batch(Table::Deltas, &[b"re"], 0)
            .unwrap()
            .remove(0);
        assert_eq!(scanned, vec![(b"rep".to_vec(), dense)]);
    }

    #[test]
    fn corrupt_on_read_surfaces_corrupt_under_compression() {
        let s = SimStore::new(StoreConfig::new(1, 1).with_compression(true));
        let value = Bytes::from(b"abcabcabc".repeat(50));
        put(&s, Table::Deltas, b"k", 0, value.clone());
        s.set_fault_plan(Some(FaultPlan::new(5).with_corrupt_per_mille(1000)));
        assert!(matches!(
            get(&s, Table::Deltas, b"k", 0),
            Err(StoreError::Corrupt(_))
        ));
        // The stored bytes are untouched: detach the plan and the real
        // value comes back.
        s.set_fault_plan(None);
        assert_eq!(
            get(&s, Table::Deltas, b"k", 0).unwrap().as_deref(),
            Some(&value[..])
        );
    }

    #[test]
    fn corrupt_on_read_replaces_bytes_without_touching_storage() {
        let s = store(1, 1);
        put(&s, Table::Deltas, b"k", 0, Bytes::from_static(b"real"));
        let before = s.content_rows();
        s.set_fault_plan(Some(FaultPlan::new(6).with_corrupt_per_mille(1000)));
        let got = get(&s, Table::Deltas, b"k", 0).unwrap();
        assert_eq!(
            got.as_deref(),
            Some(crate::faults::CORRUPT_ON_READ_MARKER),
            "uncompressed corrupt reads hand back the marker for the decoder to reject"
        );
        assert_eq!(s.content_rows(), before, "corruption is wire-only");
    }

    #[test]
    fn transient_batch_exhaustion_surfaces_transient_error() {
        let s = store(1, 1);
        s.set_fault_plan(Some(FaultPlan::new(7).with_outage(0, 0, 1_000_000)));
        let err = s
            .try_put_batch(vec![PutRow::new(
                Table::Versions,
                b"k".to_vec(),
                0,
                Bytes::from_static(b"v"),
            )])
            .unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Transient {
                    table: Table::Versions,
                    ..
                }
            ),
            "retry exhaustion must not masquerade as permanent death: {err}"
        );
        assert_eq!(s.failed_put_count(), 1);
    }

    #[test]
    fn partial_writes_are_recorded_and_repaired() {
        let s = store(3, 2);
        let token = 0u64;
        s.fail_machine(s.machine_for(token, 1));
        put(&s, Table::Deltas, b"k", token, Bytes::from_static(b"v"));
        assert_eq!(s.under_replicated_count(), 1);
        // While the replica is still dead, repair makes no progress
        // but loses nothing.
        let stuck = s.try_repair().unwrap();
        assert_eq!(stuck.scanned, 1);
        assert_eq!(stuck.still_degraded, 1);
        assert_eq!(s.under_replicated_count(), 1);
        // Healed, the pass restores full replication.
        s.heal_all();
        let report = s.try_repair().unwrap();
        assert_eq!(report.repaired, 1);
        assert_eq!(s.under_replicated_count(), 0);
        // Byte-identical to a never-degraded build.
        let oracle = store(3, 2);
        put(
            &oracle,
            Table::Deltas,
            b"k",
            token,
            Bytes::from_static(b"v"),
        );
        assert_eq!(s.content_rows(), oracle.content_rows());
        // And the row now survives the primary's death.
        s.fail_machine(s.machine_for(token, 0));
        assert_eq!(
            get(&s, Table::Deltas, b"k", token).unwrap().as_deref(),
            Some(&b"v"[..])
        );
    }

    /// A rewritten key whose newest write missed the first replica:
    /// that replica still holds the old value, and repair must copy
    /// the new one over it, not the old one over the new.
    #[test]
    fn repair_copies_the_latest_write_over_a_stale_replica() {
        let s = store(3, 2);
        let token = 0u64;
        put(&s, Table::Graph, b"meta", token, Bytes::from_static(b"old"));
        s.fail_machine(s.machine_for(token, 0));
        put(&s, Table::Graph, b"meta", token, Bytes::from_static(b"new"));
        s.heal_all();
        assert_eq!(s.try_repair().unwrap().repaired, 1);
        let oracle = store(3, 2);
        put(
            &oracle,
            Table::Graph,
            b"meta",
            token,
            Bytes::from_static(b"new"),
        );
        assert_eq!(s.content_rows(), oracle.content_rows());
    }

    /// A healed replica that missed a write does not serve the row —
    /// to a point read or to a scan — until repair copies it over: the
    /// read goes to the replica that took the write, or fails.
    #[test]
    fn a_replica_that_missed_a_write_does_not_serve_it() {
        let s = store(3, 2);
        let token = 0u64;
        let (first, second) = (s.machine_for(token, 0), s.machine_for(token, 1));
        s.fail_machine(first);
        put(&s, Table::Deltas, b"k", token, Bytes::from_static(b"v"));
        s.heal_all();
        let read = |s: &SimStore| get(s, Table::Deltas, b"k", token);
        assert_eq!(read(&s).unwrap().as_deref(), Some(&b"v"[..]));
        let scanned = s.scan_prefix_batch(Table::Deltas, &[b"k"], token).unwrap();
        assert_eq!(scanned[0].len(), 1, "a scan does not miss the row either");
        s.fail_machine(second);
        assert!(matches!(read(&s), Err(StoreError::Unavailable { .. })));
        s.heal_all();
        assert_eq!(s.try_repair().unwrap().repaired, 1);
        s.fail_machine(second);
        assert_eq!(read(&s).unwrap().as_deref(), Some(&b"v"[..]));
    }

    /// A write that reaches every replica clears its key's ledger
    /// entry: the replica that missed the older partial write serves
    /// the key again, and no repair is owed.
    #[test]
    fn a_fully_replicated_rewrite_clears_the_ledger_entry() {
        let s = store(3, 2);
        let token = 0u64;
        let (first, second) = (s.machine_for(token, 0), s.machine_for(token, 1));
        s.fail_machine(first);
        put(&s, Table::Graph, b"meta", token, Bytes::from_static(b"old"));
        s.heal_all();
        put(&s, Table::Graph, b"meta", token, Bytes::from_static(b"new"));
        assert_eq!(s.under_replicated_count(), 0);
        s.fail_machine(second);
        let read = get(&s, Table::Graph, b"meta", token).unwrap();
        assert_eq!(read.as_deref(), Some(&b"new"[..]));
        assert_eq!(s.try_repair().unwrap(), RepairReport::default());
    }

    #[test]
    fn batched_partial_writes_feed_the_repair_ledger() {
        let s = store(3, 2);
        let dead = s.machine_for(0, 1);
        s.fail_machine(dead);
        let rows: Vec<PutRow> = (0..6u64)
            .map(|i| {
                PutRow::new(
                    Table::Deltas,
                    i.to_be_bytes().to_vec(),
                    0,
                    Bytes::from_static(b"v"),
                )
            })
            .collect();
        let outcome = s.try_put_batch(rows).unwrap();
        assert_eq!(outcome.partial, 6);
        assert_eq!(s.under_replicated_count(), 6);
        s.heal_all();
        let report = s.try_repair().unwrap();
        assert_eq!(report.repaired, 6);
        assert_eq!(s.under_replicated_count(), 0);
    }

    #[test]
    fn repair_refuses_a_corrupt_read_as_its_source() {
        let s = store(3, 2);
        let token = 0u64;
        s.fail_machine(s.machine_for(token, 1));
        put(&s, Table::Deltas, b"k", token, Bytes::from_static(b"v"));
        s.heal_all();
        // Every repair-source read draws a corrupt verdict: the pass
        // must refuse to propagate garbage and leave the row recorded.
        s.set_fault_plan(Some(FaultPlan::new(8).with_corrupt_per_mille(1000)));
        let report = s.try_repair().unwrap();
        assert_eq!(report.still_degraded, 1);
        assert_eq!(s.under_replicated_count(), 1);
        s.set_fault_plan(None);
        assert_eq!(s.try_repair().unwrap().repaired, 1);
        let oracle = store(3, 2);
        put(
            &oracle,
            Table::Deltas,
            b"k",
            token,
            Bytes::from_static(b"v"),
        );
        assert_eq!(s.content_rows(), oracle.content_rows());
    }

    #[test]
    fn put_failure_counters_track_degraded_writes() {
        let s = store(3, 2);
        let token = 0u64;
        let full = put(&s, Table::Deltas, b"a", token, Bytes::from_static(b"v"));
        assert_eq!((full.replicated, full.partial, full.failed), (1, 0, 0));
        assert_eq!(s.partial_put_count(), 0);
        assert_eq!(s.failed_put_count(), 0);
        s.fail_machine(s.machine_for(token, 1));
        let degraded = put(&s, Table::Deltas, b"b", token, Bytes::from_static(b"v"));
        assert_eq!((degraded.partial, degraded.failed), (1, 0));
        assert_eq!(s.partial_put_count(), 1);
        s.fail_machine(s.machine_for(token, 0));
        let lost = put(&s, Table::Deltas, b"c", token, Bytes::from_static(b"v"));
        assert_eq!((lost.partial, lost.failed), (0, 1));
        assert_eq!(s.failed_put_count(), 1);
        assert_eq!(s.partial_put_count(), 1);
    }
}
