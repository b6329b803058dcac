//! Volume-level statistics.

/// Cumulative counters of a [`crate::RaiznVolume`], used by tests and by
/// the benchmark harness (e.g. to report partial-parity write
/// amplification and Table 1 footprints).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RaiznStats {
    /// Partial-parity log entries appended.
    pub pp_log_entries: u64,
    /// Bytes of partial-parity payload logged (headers excluded).
    pub pp_log_bytes: u64,
    /// Full parity stripe units written to data zones.
    pub full_parity_writes: u64,
    /// Q (Reed–Solomon) parity stripe units written to data zones
    /// (RAIZN-2 dual-parity mode).
    pub q_parity_writes: u64,
    /// Metadata records appended (all types).
    pub md_appends: u64,
    /// Metadata zone garbage collections performed.
    pub md_gc_runs: u64,
    /// Stripe units relocated to metadata zones.
    pub relocated_units: u64,
    /// Logical zone resets completed.
    pub zone_resets: u64,
    /// Reads served in degraded mode (reconstruction).
    pub degraded_reads: u64,
    /// Degraded reads that reconstructed around two missing devices
    /// (two-erasure Reed–Solomon decode, RAIZN-2).
    pub double_degraded_reads: u64,
    /// Stripe units repaired from parity during recovery.
    pub recovered_units: u64,
    /// Device rebuilds completed (one per replaced device).
    pub rebuilds_completed: u64,
    /// Flush sub-IOs issued for FUA/persistence handling.
    pub persistence_flushes: u64,
    /// Physical zones rewritten to heal excess relocations (§5.2).
    pub zone_rewrites: u64,
    /// Stripe buffers served from the recycle pool instead of allocating.
    pub stripe_buffers_reused: u64,
    /// Stripe units healed in place after a latent media read error
    /// (reconstructed from surviving devices and relocated).
    pub read_repairs: u64,
    /// Transient device errors absorbed by the bounded retry policy.
    pub transient_retries: u64,
    /// Scrub passes completed.
    pub scrub_runs: u64,
    /// Stripe units (data or parity) repaired by scrub passes.
    pub scrub_repairs: u64,
    /// Devices auto-degraded after exceeding their error budget.
    pub auto_degrades: u64,
    /// Logical zone finishes completed (explicit, background, or
    /// foreground-reclaim).
    pub zone_finishes: u64,
    /// Inline zone finishes forced on the write path by active-budget
    /// exhaustion (`reclaim_on_exhaustion`) — each one is a write stall.
    pub foreground_reclaims: u64,
    /// Interrupted zone finishes completed at mount: a crash caught a
    /// finish partway across the array (some physical zones sealed, some
    /// not) and recovery sealed the stragglers.
    pub finish_rollforwards: u64,
    /// Gather writes staged through [`write_vectored`]
    /// (multi-segment batches submitted as one extent).
    ///
    /// [`write_vectored`]: zns::ZonedVolume::write_vectored
    pub gather_writes: u64,
}

/// Lock-free mirror of [`RaiznStats`] used inside the sharded volume: hot
/// paths bump counters with relaxed atomics instead of taking a lock, and
/// [`snapshot`](AtomicRaiznStats::snapshot) materializes the public view —
/// all but the member layer's counters (retries, auto-degrades, degraded
/// reads, two-erasure decodes, read repairs), which the volume reads from
/// `zns::array::Members`.
#[derive(Debug, Default)]
pub(crate) struct AtomicRaiznStats {
    pub pp_log_entries: AtomicU64,
    pub pp_log_bytes: AtomicU64,
    pub full_parity_writes: AtomicU64,
    pub q_parity_writes: AtomicU64,
    pub md_appends: AtomicU64,
    pub md_gc_runs: AtomicU64,
    pub relocated_units: AtomicU64,
    pub zone_resets: AtomicU64,
    pub recovered_units: AtomicU64,
    pub rebuilds_completed: AtomicU64,
    pub persistence_flushes: AtomicU64,
    pub zone_rewrites: AtomicU64,
    pub stripe_buffers_reused: AtomicU64,
    pub scrub_runs: AtomicU64,
    pub scrub_repairs: AtomicU64,
    pub zone_finishes: AtomicU64,
    pub foreground_reclaims: AtomicU64,
    pub finish_rollforwards: AtomicU64,
    pub gather_writes: AtomicU64,
}

use std::sync::atomic::{AtomicU64, Ordering};

impl AtomicRaiznStats {
    /// Bumps a counter by `n` (relaxed: counters impose no ordering).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// A consistent-enough copy of all counters (each read individually;
    /// cross-counter skew is possible under concurrent updates).
    pub fn snapshot(&self) -> RaiznStats {
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        RaiznStats {
            pp_log_entries: ld(&self.pp_log_entries),
            pp_log_bytes: ld(&self.pp_log_bytes),
            full_parity_writes: ld(&self.full_parity_writes),
            q_parity_writes: ld(&self.q_parity_writes),
            md_appends: ld(&self.md_appends),
            md_gc_runs: ld(&self.md_gc_runs),
            relocated_units: ld(&self.relocated_units),
            zone_resets: ld(&self.zone_resets),
            recovered_units: ld(&self.recovered_units),
            rebuilds_completed: ld(&self.rebuilds_completed),
            persistence_flushes: ld(&self.persistence_flushes),
            zone_rewrites: ld(&self.zone_rewrites),
            stripe_buffers_reused: ld(&self.stripe_buffers_reused),
            scrub_runs: ld(&self.scrub_runs),
            scrub_repairs: ld(&self.scrub_repairs),
            zone_finishes: ld(&self.zone_finishes),
            foreground_reclaims: ld(&self.foreground_reclaims),
            finish_rollforwards: ld(&self.finish_rollforwards),
            gather_writes: ld(&self.gather_writes),
            ..RaiznStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = RaiznStats::default();
        assert_eq!(s.pp_log_entries, 0);
        assert_eq!(s.gather_writes, 0);
    }

    #[test]
    fn atomic_snapshot_round_trips() {
        let a = AtomicRaiznStats::default();
        AtomicRaiznStats::add(&a.md_appends, 3);
        AtomicRaiznStats::add(&a.pp_log_bytes, 4096);
        let s = a.snapshot();
        assert_eq!(s.md_appends, 3);
        assert_eq!(s.pp_log_bytes, 4096);
        assert_eq!(s.full_parity_writes, 0);
    }
}
