//! Deterministic chaos fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] is a *seeded schedule* of transient misbehaviour
//! attachable to a [`SimStore`](crate::SimStore) via
//! [`SimStore::set_fault_plan`](crate::SimStore::set_fault_plan):
//!
//! * **outage windows** — per-machine intervals of simulated time in
//!   which every request to that machine is refused (a reboot, a GC
//!   pause, a network partition that heals on its own);
//! * **flake probability** — an independent per-request chance that a
//!   single request fails even on a healthy machine (dropped packet,
//!   overloaded connection pool);
//! * **latency multipliers** — per-machine slowdown factors fed into
//!   the [`CostModel`](crate::CostModel)'s server-side term via
//!   [`SimStore::latency_multipliers`](crate::SimStore::latency_multipliers)
//!   (a degraded disk, a noisy neighbour);
//! * **corrupt-on-read** — an independent per-request chance that a
//!   read returns [`CORRUPT_ON_READ_MARKER`] instead of the stored
//!   value: a corruption that every decoder refuses. The store keeps
//!   no checksum, so a flipped bit inside a real row — which a decoder
//!   may accept as another plausible row — is not modelled yet. The
//!   *stored* bytes are untouched — corruption happens on the wire, so
//!   a retry or another replica still sees the real row.
//!
//! Everything is a pure function of `(seed, machine, tick)`, where the
//! tick is the store's simulated clock (one tick per machine-level
//! request, plus the ticks retry backoff burns). Two runs with the
//! same plan, the same workload and the same thread interleaving make
//! identical fault decisions; no wall clock is consulted anywhere.
//!
//! Permanent machine death stays a separate mechanism
//! ([`SimStore::fail_machine`](crate::SimStore::fail_machine)): a plan
//! describes faults that *heal*, and the retry layer treats the two
//! differently — transient faults are retried and surface as
//! [`StoreError::Transient`](crate::StoreError::Transient) when the
//! attempt budget runs out, while a permanently dead replica set
//! surfaces [`StoreError::Unavailable`](crate::StoreError::Unavailable)
//! immediately.

/// Garbage injected by corrupt-on-read in place of the stored value.
/// Chosen to fail *every* decode path loudly: the LZSS container
/// rejects it as a bad opcode and the row codecs reject it as a bad
/// header — a corrupt read must surface as
/// [`StoreError::Corrupt`](crate::StoreError::Corrupt), never decode
/// by luck into a plausible answer.
pub(crate) const CORRUPT_ON_READ_MARKER: &[u8] = b"\xff\xfenot a decodable row";

/// One transient outage: `machine` refuses every request whose tick
/// falls in `[from_tick, until_tick)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    pub machine: usize,
    pub from_tick: u64,
    pub until_tick: u64,
}

/// Per-request fault decision for one `(machine, tick)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultVerdict {
    /// The request proceeds normally.
    Healthy,
    /// The machine is inside a scheduled outage window; the request is
    /// refused (transient — the window ends).
    Outage,
    /// This individual request flakes; the same request a tick later
    /// may well succeed (transient).
    Flake,
    /// The request succeeds but a *read*'s returned bytes are replaced
    /// with [`CORRUPT_ON_READ_MARKER`]. Writes ignore this verdict.
    CorruptRead,
}

/// A seeded, deterministic schedule of transient faults. Build one
/// with the `with_*` methods and attach it via
/// [`SimStore::set_fault_plan`](crate::SimStore::set_fault_plan).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Per-request flake probability in 1/1000 units (0..=1000).
    flake_per_mille: u16,
    /// Per-read corrupt probability in 1/1000 units (0..=1000).
    corrupt_per_mille: u16,
    outages: Vec<Outage>,
    /// Per-machine modelled latency multipliers (machine, factor).
    latency: Vec<(usize, f64)>,
}

impl FaultPlan {
    /// An empty plan: no faults at all. Useful as the zero-overhead
    /// baseline when measuring the chaos machinery itself.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            flake_per_mille: 0,
            corrupt_per_mille: 0,
            outages: Vec::new(),
            latency: Vec::new(),
        }
    }

    /// Set the per-request flake probability, in 1/1000 units
    /// (clamped to 1000).
    pub fn with_flake_per_mille(mut self, per_mille: u16) -> FaultPlan {
        self.flake_per_mille = per_mille.min(1000);
        self
    }

    /// Set the per-read corrupt-on-read probability, in 1/1000 units
    /// (clamped to 1000).
    pub fn with_corrupt_per_mille(mut self, per_mille: u16) -> FaultPlan {
        self.corrupt_per_mille = per_mille.min(1000);
        self
    }

    /// Schedule a transient outage of `machine` over the simulated-time
    /// window `[from_tick, until_tick)`.
    pub fn with_outage(mut self, machine: usize, from_tick: u64, until_tick: u64) -> FaultPlan {
        self.outages.push(Outage {
            machine,
            from_tick,
            until_tick,
        });
        self
    }

    /// Set a machine's modelled latency multiplier (`>= 1.0` slows it
    /// down in the cost model; values below 1 are clamped up).
    pub fn with_latency_multiplier(mut self, machine: usize, factor: f64) -> FaultPlan {
        self.latency.push((machine, factor.max(1.0)));
        self
    }

    /// The plan's seed (decision source for flake/corrupt draws).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Scheduled outage windows.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// The modelled latency multiplier of `machine` (1.0 when
    /// unspecified; repeated entries multiply).
    pub fn latency_multiplier(&self, machine: usize) -> f64 {
        self.latency
            .iter()
            .filter(|&&(m, _)| m == machine)
            .map(|&(_, f)| f)
            .product::<f64>()
            .max(1.0)
    }

    /// Whether any fault kind can ever fire (false for a zero-rate,
    /// no-outage plan — latency multipliers never fail requests).
    pub(crate) fn can_fault(&self) -> bool {
        self.flake_per_mille > 0 || self.corrupt_per_mille > 0 || !self.outages.is_empty()
    }

    /// The fault decision for one request against `machine` at
    /// simulated time `tick`. Pure: the same inputs always yield the
    /// same verdict.
    pub(crate) fn verdict(&self, machine: usize, tick: u64) -> FaultVerdict {
        if self
            .outages
            .iter()
            .any(|o| o.machine == machine && o.from_tick <= tick && tick < o.until_tick)
        {
            return FaultVerdict::Outage;
        }
        if self.flake_per_mille > 0 {
            let draw = mix(self.seed ^ 0x9e37_79b9_7f4a_7c15, machine as u64, tick) % 1000;
            if draw < u64::from(self.flake_per_mille) {
                return FaultVerdict::Flake;
            }
        }
        if self.corrupt_per_mille > 0 {
            let draw = mix(self.seed ^ 0xc2b2_ae3d_27d4_eb4f, machine as u64, tick) % 1000;
            if draw < u64::from(self.corrupt_per_mille) {
                return FaultVerdict::CorruptRead;
            }
        }
        FaultVerdict::Healthy
    }
}

/// SplitMix64-style mixer over `(stream, machine, tick)` — cheap,
/// stateless, and well-distributed enough for per-mille draws.
fn mix(stream: u64, machine: u64, tick: u64) -> u64 {
    let mut z = stream
        .wrapping_add(machine.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(tick.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_is_always_healthy() {
        let p = FaultPlan::new(42);
        assert!(!p.can_fault());
        for m in 0..4 {
            for t in 0..1000 {
                assert_eq!(p.verdict(m, t), FaultVerdict::Healthy);
            }
        }
    }

    #[test]
    fn outage_window_is_half_open_and_per_machine() {
        let p = FaultPlan::new(1).with_outage(2, 10, 20);
        assert_eq!(p.verdict(2, 9), FaultVerdict::Healthy);
        assert_eq!(p.verdict(2, 10), FaultVerdict::Outage);
        assert_eq!(p.verdict(2, 19), FaultVerdict::Outage);
        assert_eq!(p.verdict(2, 20), FaultVerdict::Healthy);
        assert_eq!(p.verdict(1, 15), FaultVerdict::Healthy);
    }

    #[test]
    fn verdicts_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::new(7).with_flake_per_mille(300);
        let b = FaultPlan::new(7).with_flake_per_mille(300);
        let c = FaultPlan::new(8).with_flake_per_mille(300);
        let va: Vec<_> = (0..500).map(|t| a.verdict(0, t)).collect();
        let vb: Vec<_> = (0..500).map(|t| b.verdict(0, t)).collect();
        let vc: Vec<_> = (0..500).map(|t| c.verdict(0, t)).collect();
        assert_eq!(va, vb, "same seed, same schedule");
        assert_ne!(va, vc, "different seed, different schedule");
    }

    #[test]
    fn flake_rate_is_roughly_honoured() {
        let p = FaultPlan::new(99).with_flake_per_mille(250);
        let flakes = (0..10_000)
            .filter(|&t| p.verdict(1, t) == FaultVerdict::Flake)
            .count();
        assert!(
            (1_800..3_200).contains(&flakes),
            "expected ~2500 flakes in 10k draws, got {flakes}"
        );
    }

    #[test]
    fn full_corrupt_rate_corrupts_every_read() {
        let p = FaultPlan::new(3).with_corrupt_per_mille(1000);
        for t in 0..100 {
            assert_eq!(p.verdict(0, t), FaultVerdict::CorruptRead);
        }
    }

    #[test]
    fn latency_multipliers_default_and_clamp() {
        let p = FaultPlan::new(0)
            .with_latency_multiplier(1, 3.0)
            .with_latency_multiplier(2, 0.1);
        assert_eq!(p.latency_multiplier(0), 1.0);
        assert_eq!(p.latency_multiplier(1), 3.0);
        assert_eq!(p.latency_multiplier(2), 1.0, "sub-1 factors clamp up");
    }
}
