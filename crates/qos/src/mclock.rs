//! mClock tag state.

use crate::config::TenantSpec;

/// Nanoseconds per second.
const NS_PER_SEC: u64 = 1_000_000_000;

/// Fixed-point scale for proportional tags (cost units per sector at
/// weight 1).
pub(crate) const P_SCALE: u64 = 4096;

/// Sentinel reservation tag for tenants without a reservation.
pub(crate) const NO_RESERVATION: u64 = u64::MAX;

/// Per-tenant mClock tag generators. Tags are assigned at enqueue:
/// reservation tags advance on the real-time axis spaced `1/r` apart,
/// proportional tags advance on a shared virtual axis by `cost/weight`.
#[derive(Debug)]
pub(crate) struct TagState {
    reservation_period_ns: u64,
    weight: u64,
    last_r_ns: u64,
    last_p: u64,
}

impl TagState {
    pub(crate) fn new(spec: &TenantSpec) -> Self {
        TagState {
            reservation_period_ns: NS_PER_SEC
                .checked_div(spec.reservation_iops)
                .map_or(0, |p| p.max(1)),
            weight: spec.weight,
            last_r_ns: 0,
            last_p: 0,
        }
    }

    /// Assigns the reservation tag for an op arriving at `arrival_ns`:
    /// `max(prev + 1/r, arrival)`, so an idle tenant restarts at its
    /// arrival instead of accumulating unbounded credit.
    pub(crate) fn next_r_tag(&mut self, arrival_ns: u64) -> u64 {
        if self.reservation_period_ns == 0 {
            return NO_RESERVATION;
        }
        let tag = arrival_ns.max(self.last_r_ns.saturating_add(self.reservation_period_ns));
        self.last_r_ns = tag;
        tag
    }

    /// Assigns the proportional tag for an op of `cost_sectors`, syncing
    /// an idle tenant forward to the global virtual time `vtime` so it
    /// competes from "now" rather than claiming its idle past.
    pub(crate) fn next_p_tag(&mut self, vtime: u64, cost_sectors: u64) -> u64 {
        let start = self.last_p.max(vtime);
        let inc = (cost_sectors.saturating_mul(P_SCALE) / self.weight).max(1);
        let tag = start.saturating_add(inc);
        self.last_p = tag;
        tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(reservation: u64, weight: u64) -> TenantSpec {
        TenantSpec::new("t").weight(weight).reservation(reservation)
    }

    #[test]
    fn reservation_tags_spaced_by_period() {
        let mut t = TagState::new(&spec(1000, 1));
        assert_eq!(t.next_r_tag(0), 1_000_000);
        assert_eq!(t.next_r_tag(0), 2_000_000);
        // Idle gap: tag restarts at arrival.
        assert_eq!(t.next_r_tag(10_000_000), 10_000_000);
    }

    #[test]
    fn no_reservation_is_sentinel() {
        let mut t = TagState::new(&spec(0, 1));
        assert_eq!(t.next_r_tag(5), NO_RESERVATION);
    }

    #[test]
    fn proportional_tags_scale_inverse_weight() {
        let mut w1 = TagState::new(&spec(0, 1));
        let mut w4 = TagState::new(&spec(0, 4));
        let a = w1.next_p_tag(0, 8);
        let b = w4.next_p_tag(0, 8);
        assert_eq!(a, 4 * b, "weight-4 tenant advances 4x slower");
    }

    #[test]
    fn idle_tenant_syncs_to_vtime() {
        let mut t = TagState::new(&spec(0, 1));
        let first = t.next_p_tag(0, 1);
        let resumed = t.next_p_tag(1_000_000, 1);
        assert!(resumed > 1_000_000);
        assert!(resumed > first);
    }
}
