//! Bounded retry with backoff and per-machine circuit breaking.
//!
//! Transient faults (see [`crate::faults`]) are survivable exactly
//! because the store *re-issues* failed requests — but unbounded
//! hand-rolled retry loops hide outages and melt flaky clusters. This
//! module centralizes the discipline:
//!
//! * a [`RetryPolicy`]: a per-operation attempt budget with capped
//!   exponential backoff measured in *simulated ticks* (the store's
//!   logical clock — no wall-clock sleeping anywhere);
//! * a per-machine circuit `Breaker`: after `breaker_threshold`
//!   consecutive transient failures the machine is skipped outright
//!   for `breaker_cooldown_ticks`, then *half-open* probes let real
//!   traffic test it again — one success closes the breaker, another
//!   failure re-opens it.
//!
//! Every `SimStore` read/write routes through this policy (the
//! `bounded-retry` lint rule keeps hand-rolled loops out of the rest
//! of the workspace). The breaker reacts only to *transient* faults:
//! permanent machine death
//! ([`SimStore::fail_machine`](crate::SimStore::fail_machine)) is
//! detected per request and surfaces
//! [`StoreError::Unavailable`](crate::StoreError::Unavailable) without
//! burning the retry budget.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Retry/backoff/breaker knobs, in simulated ticks. Runtime-tunable
/// via [`SimStore::set_retry_policy`](crate::SimStore::set_retry_policy):
/// the store owns its policy, every index on it reads through it, and
/// no index persists it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per logical operation, including the first
    /// (`>= 1`; `1` disables retry entirely).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt, doubling per further
    /// attempt (capped by `max_backoff_ticks`).
    pub base_backoff_ticks: u64,
    /// Upper bound on a single backoff.
    pub max_backoff_ticks: u64,
    /// Consecutive transient failures that open a machine's circuit
    /// breaker (`0` disables the breaker).
    pub breaker_threshold: u32,
    /// Ticks an open breaker blocks a machine before half-open
    /// probing resumes.
    pub breaker_cooldown_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ticks: 4,
            max_backoff_ticks: 64,
            breaker_threshold: 8,
            breaker_cooldown_ticks: 96,
        }
    }
}

impl RetryPolicy {
    /// Panic on nonsensical knobs (called when the policy is
    /// installed, so a bad config fails loudly at setup).
    pub fn validate(&self) {
        assert!(self.max_attempts >= 1, "need at least one attempt");
        assert!(
            self.max_backoff_ticks >= self.base_backoff_ticks,
            "max backoff must not undercut the base backoff"
        );
    }

    /// The backoff to wait after `failed_attempts` attempts have
    /// failed: `base · 2^(failed_attempts-1)`, capped.
    pub(crate) fn backoff_ticks(&self, failed_attempts: u32) -> u64 {
        if failed_attempts == 0 || self.base_backoff_ticks == 0 {
            return 0;
        }
        let shift = (failed_attempts - 1).min(32);
        self.base_backoff_ticks
            .saturating_mul(1u64 << shift)
            .min(self.max_backoff_ticks)
    }
}

/// Sentinel for a closed breaker in [`Breaker::opened_at`].
const CLOSED: u64 = u64::MAX;

/// Per-machine circuit-breaker state plus retry accounting. Lives in
/// the [`SimStore`](crate::SimStore), one per machine.
#[derive(Debug)]
pub(crate) struct Breaker {
    /// Consecutive transient failures since the last success.
    consecutive: AtomicU32,
    /// Tick the breaker last opened at; [`CLOSED`] when closed.
    opened_at: AtomicU64,
    /// Lifetime count of open transitions (stats).
    opens: AtomicU64,
    /// Lifetime count of re-issued requests to this machine (stats).
    retries: AtomicU64,
}

impl Breaker {
    pub(crate) fn new() -> Breaker {
        Breaker {
            consecutive: AtomicU32::new(0),
            opened_at: AtomicU64::new(CLOSED),
            opens: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// Whether a request may be issued at `now`: always when closed,
    /// and as a half-open probe once the cooldown has elapsed.
    pub(crate) fn allows(&self, now: u64, policy: &RetryPolicy) -> bool {
        let at = self.opened_at.load(Ordering::Relaxed);
        at == CLOSED || now >= at.saturating_add(policy.breaker_cooldown_ticks)
    }

    /// Record a transient failure at `now`; opens (or re-opens after a
    /// failed half-open probe) once the threshold is crossed.
    pub(crate) fn record_failure(&self, now: u64, policy: &RetryPolicy) {
        let streak = self.consecutive.fetch_add(1, Ordering::Relaxed) + 1;
        if policy.breaker_threshold > 0 && streak >= policy.breaker_threshold {
            let was = self.opened_at.swap(now, Ordering::Relaxed);
            if was == CLOSED {
                self.opens.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Record a served request: resets the failure streak and closes
    /// the breaker (a successful half-open probe ends the cooldown).
    pub(crate) fn record_success(&self) {
        self.consecutive.store(0, Ordering::Relaxed);
        self.opened_at.store(CLOSED, Ordering::Relaxed);
    }

    /// Count one re-issued request (an attempt beyond the first).
    pub(crate) fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Reset all breaker state (used when a machine heals or a new
    /// fault plan is installed — a new experiment starts clean).
    pub(crate) fn reset(&self) {
        self.consecutive.store(0, Ordering::Relaxed);
        self.opened_at.store(CLOSED, Ordering::Relaxed);
    }

    pub(crate) fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    pub(crate) fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            base_backoff_ticks: 4,
            max_backoff_ticks: 20,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_ticks(0), 0);
        assert_eq!(p.backoff_ticks(1), 4);
        assert_eq!(p.backoff_ticks(2), 8);
        assert_eq!(p.backoff_ticks(3), 16);
        assert_eq!(p.backoff_ticks(4), 20, "capped");
        assert_eq!(p.backoff_ticks(60), 20, "shift is clamped, no overflow");
    }

    #[test]
    fn zero_base_means_no_backoff() {
        let p = RetryPolicy {
            base_backoff_ticks: 0,
            max_backoff_ticks: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_ticks(3), 0);
    }

    #[test]
    #[should_panic]
    fn zero_attempts_rejected() {
        RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        }
        .validate();
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_open_probes() {
        let p = RetryPolicy {
            breaker_threshold: 3,
            breaker_cooldown_ticks: 10,
            ..RetryPolicy::default()
        };
        let b = Breaker::new();
        assert!(b.allows(0, &p));
        b.record_failure(0, &p);
        b.record_failure(1, &p);
        assert!(b.allows(2, &p), "under threshold stays closed");
        b.record_failure(2, &p);
        assert_eq!(b.opens(), 1);
        assert!(!b.allows(5, &p), "open during cooldown");
        assert!(b.allows(12, &p), "half-open probe after cooldown");
        // A failed probe re-opens without counting a second open.
        b.record_failure(12, &p);
        assert_eq!(b.opens(), 1);
        assert!(!b.allows(13, &p));
        // A successful probe closes it for good.
        b.record_success();
        assert!(b.allows(14, &p));
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn success_resets_the_streak() {
        let p = RetryPolicy {
            breaker_threshold: 2,
            ..RetryPolicy::default()
        };
        let b = Breaker::new();
        b.record_failure(0, &p);
        b.record_success();
        b.record_failure(1, &p);
        assert!(b.allows(2, &p), "streak broken by the success");
        assert_eq!(b.opens(), 0);
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let p = RetryPolicy {
            breaker_threshold: 0,
            ..RetryPolicy::default()
        };
        let b = Breaker::new();
        for t in 0..100 {
            b.record_failure(t, &p);
        }
        assert!(b.allows(100, &p));
        assert_eq!(b.opens(), 0);
    }
}
