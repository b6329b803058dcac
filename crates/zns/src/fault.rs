//! Deterministic fault injection for [`crate::ZnsDevice`].
//!
//! Real ZNS devices surface more failure shapes than whole-device
//! fail-stop and power loss: individual commands fail transiently
//! (controller timeouts, aborted commands) and media develops *latent
//! sector errors* that only show up when the sector is next read. A
//! [`FaultPlan`] models both, deterministically: transient errors are
//! drawn from a seeded [`SimRng`] (or triggered on the nth operation of a
//! kind), and latent errors are an explicit set of poisoned LBAs. Two
//! runs with the same plan and the same operation sequence fail at
//! exactly the same points, so every fault scenario is replayable.

use crate::geometry::Lba;
use sim::SimRng;
use std::collections::BTreeSet;
use std::fmt;

/// The operation class a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultOp {
    /// Host read commands.
    Read,
    /// Host write commands.
    Write,
    /// Zone append commands.
    Append,
    /// Zone reset commands.
    Reset,
}

impl FaultOp {
    pub(crate) fn index(self) -> usize {
        match self {
            FaultOp::Read => 0,
            FaultOp::Write => 1,
            FaultOp::Append => 2,
            FaultOp::Reset => 3,
        }
    }

    /// Short lowercase name for messages.
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::Read => "read",
            FaultOp::Write => "write",
            FaultOp::Append => "append",
            FaultOp::Reset => "reset",
        }
    }
}

impl fmt::Display for FaultOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic, seedable fault-injection plan for one device.
///
/// Three fault shapes compose freely:
///
/// - **transient rates**: each operation of a class fails with a fixed
///   probability drawn from the plan's seeded RNG ([`transient_rate`]);
/// - **nth-operation triggers**: the nth operation of a class fails,
///   once ([`fail_nth`]);
/// - **latent sector errors**: reads touching a poisoned LBA fail with
///   [`crate::ZnsError::MediaError`] until the zone is reset, which
///   remaps the sectors ([`latent_error`], [`latent_range`]).
///
/// Transient errors are reported *before* any device state changes, so a
/// retry of the same command can succeed. Flushes are never faulted (a
/// lost flush is indistinguishable from a crash, which
/// [`crate::ZnsDevice::crash`] already models).
///
/// [`transient_rate`]: FaultPlan::transient_rate
/// [`fail_nth`]: FaultPlan::fail_nth
/// [`latent_error`]: FaultPlan::latent_error
/// [`latent_range`]: FaultPlan::latent_range
///
/// # Examples
///
/// ```
/// use zns::{FaultOp, FaultPlan};
/// let mut plan = FaultPlan::new(42)
///     .transient_rate(FaultOp::Read, 0.1)
///     .fail_nth(FaultOp::Write, 3)
///     .latent_range(64, 4);
/// assert_eq!(plan.latent_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: SimRng,
    rates: [f64; 4],
    nth: Vec<(FaultOp, u64)>,
    counts: [u64; 4],
    latent: BTreeSet<Lba>,
}

impl FaultPlan {
    /// Creates an inert plan (no faults) with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: SimRng::new(seed),
            rates: [0.0; 4],
            nth: Vec::new(),
            counts: [0; 4],
            latent: BTreeSet::new(),
        }
    }

    /// Sets the transient failure probability for operations of class
    /// `op`.
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is in `[0, 1]`.
    pub fn transient_rate(mut self, op: FaultOp, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "transient rate {rate} outside [0, 1]"
        );
        self.rates[op.index()] = rate;
        self
    }

    /// Makes the `n`th operation (1-based) of class `op` fail
    /// transiently, once.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn fail_nth(mut self, op: FaultOp, n: u64) -> Self {
        assert!(n > 0, "nth-operation triggers are 1-based");
        self.nth.push((op, n));
        self
    }

    /// Poisons `lba` with a persistent latent read error.
    pub fn latent_error(mut self, lba: Lba) -> Self {
        self.latent.insert(lba);
        self
    }

    /// Poisons `sectors` consecutive LBAs starting at `lba`.
    pub fn latent_range(mut self, lba: Lba, sectors: u64) -> Self {
        self.add_latent_range(lba, sectors);
        self
    }

    /// Adds latent errors to an existing plan in place (the `&mut`
    /// counterpart of [`latent_range`](Self::latent_range)).
    pub fn add_latent_range(&mut self, lba: Lba, sectors: u64) {
        for s in 0..sectors {
            self.latent.insert(lba + s);
        }
    }

    /// Number of currently poisoned LBAs.
    pub fn latent_count(&self) -> usize {
        self.latent.len()
    }

    /// Counts one operation of class `op` and decides whether it fails
    /// transiently. The RNG is only consumed when a nonzero rate is set
    /// for the class, so latent-only plans stay byte-for-byte replayable
    /// regardless of operation mix.
    pub(crate) fn fire_transient(&mut self, op: FaultOp) -> bool {
        let i = op.index();
        self.counts[i] += 1;
        let count = self.counts[i];
        if let Some(pos) = self.nth.iter().position(|(o, n)| *o == op && *n == count) {
            self.nth.swap_remove(pos);
            return true;
        }
        let rate = self.rates[i];
        rate > 0.0 && self.rng.gen_bool(rate)
    }

    /// First poisoned LBA within `[lba, lba + sectors)`, if any.
    pub(crate) fn first_latent_in(&self, lba: Lba, sectors: u64) -> Option<Lba> {
        self.latent.range(lba..lba + sectors).next().copied()
    }

    /// Clears latent errors in `[lba, lba + sectors)` — a zone reset
    /// remaps the backing media, curing its latent sectors.
    pub(crate) fn clear_latent_range(&mut self, lba: Lba, sectors: u64) {
        let cured: Vec<Lba> = self.latent.range(lba..lba + sectors).copied().collect();
        for l in cured {
            self.latent.remove(&l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let mut p = FaultPlan::new(1);
        for _ in 0..1000 {
            assert!(!p.fire_transient(FaultOp::Read));
            assert!(!p.fire_transient(FaultOp::Write));
        }
        assert_eq!(p.first_latent_in(0, u64::MAX), None);
    }

    #[test]
    fn rates_replay_exactly() {
        let mk = || FaultPlan::new(77).transient_rate(FaultOp::Read, 0.3);
        let (mut a, mut b) = (mk(), mk());
        let fired_a: Vec<bool> = (0..500).map(|_| a.fire_transient(FaultOp::Read)).collect();
        let fired_b: Vec<bool> = (0..500).map(|_| b.fire_transient(FaultOp::Read)).collect();
        assert_eq!(fired_a, fired_b);
        let hits = fired_a.iter().filter(|f| **f).count();
        assert!((50..250).contains(&hits), "rate 0.3 fired {hits}/500");
    }

    #[test]
    fn nth_trigger_fires_once_at_n() {
        let mut p = FaultPlan::new(0).fail_nth(FaultOp::Reset, 3);
        assert!(!p.fire_transient(FaultOp::Reset));
        assert!(!p.fire_transient(FaultOp::Reset));
        assert!(p.fire_transient(FaultOp::Reset));
        for _ in 0..20 {
            assert!(!p.fire_transient(FaultOp::Reset));
        }
    }

    #[test]
    fn nth_trigger_counts_per_class() {
        let mut p = FaultPlan::new(0).fail_nth(FaultOp::Write, 2);
        assert!(!p.fire_transient(FaultOp::Write));
        // Reads do not advance the write counter.
        assert!(!p.fire_transient(FaultOp::Read));
        assert!(p.fire_transient(FaultOp::Write));
    }

    #[test]
    fn latent_lookup_and_clear() {
        let mut p = FaultPlan::new(0).latent_range(100, 4).latent_error(200);
        assert_eq!(p.latent_count(), 5);
        assert_eq!(p.first_latent_in(0, 100), None);
        assert_eq!(p.first_latent_in(98, 4), Some(100));
        assert_eq!(p.first_latent_in(103, 10), Some(103));
        p.clear_latent_range(100, 4);
        assert_eq!(p.first_latent_in(0, 199), None);
        assert_eq!(p.first_latent_in(0, 201), Some(200));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn bad_rate_rejected() {
        let _ = FaultPlan::new(0).transient_rate(FaultOp::Read, 1.5);
    }
}
