//! Lock-free discrete-event occupancy model (ConfZNS++-style).
//!
//! [`OccupancyModel`] turns per-command busy times into completion
//! instants:
//!
//! - **Parallel units**: the device's internal parallelism is
//!   `channels × ways × planes` independent service units, each with its
//!   own `next_avail_time`. Requests occupy the earliest-free unit, so
//!   throughput scales with the full unit count up to saturation.
//! - **Lock freedom**: every unit is an `AtomicU64` of nanoseconds, and
//!   [`occupy`](OccupancyModel::occupy) claims a unit with a CAS loop. The
//!   model can therefore live *outside* a device's state mutex and be
//!   driven from many worker threads concurrently.
//!
//! With `ways = planes = 1` the model is a plain channel-parallel device
//! (the conventional-SSD FTL uses it that way): the earliest-free unit
//! wins with the lowest index breaking ties, `start = max(next_avail,
//! issue)`, `done = start + dur`.
//!
//! For multi-queue configurations, [`occupy_affine`](OccupancyModel::occupy_affine)
//! scopes the scan to one die group chosen by an affinity key (typically the
//! zone index), modelling the zone-to-die mapping of real ZNS firmware.

use crate::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// A discrete-event device-parallelism model with per-unit
/// `next_avail_time`, safe to share across threads without a lock.
///
/// # Examples
///
/// ```
/// use sim::{OccupancyModel, SimDuration, SimTime};
/// let m = OccupancyModel::new(2, 1, 1);
/// let a = m.occupy(SimTime::ZERO, SimDuration::from_micros(10));
/// let b = m.occupy(SimTime::ZERO, SimDuration::from_micros(10));
/// assert_eq!(a, b); // two channels run in parallel
/// let c = m.occupy(SimTime::ZERO, SimDuration::from_micros(10));
/// assert!(c > a); // third request queues
/// ```
#[derive(Debug)]
pub struct OccupancyModel {
    /// `next_avail_time` in nanoseconds, one per service unit, laid out
    /// die-major: unit `d * channels + c` is channel `c` of die `d`.
    units: Vec<AtomicU64>,
    /// Opaque tag of each unit's last occupant (an actor id supplied by
    /// the caller; the model never interprets it). Best-effort: updated
    /// after the claim CAS, so a racing reader may see the previous
    /// occupant — acceptable for blame attribution, never for timing.
    tags: Vec<AtomicU8>,
    channels: usize,
    dies: usize,
}

/// Result of a tagged occupancy claim (see
/// [`OccupancyModel::occupy_tagged`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupied {
    /// Completion time (identical to what the untagged call returns).
    pub done: SimTime,
    /// Nanoseconds the request stalled behind the unit's prior work
    /// (`start - issue`); 0 when the unit was free at issue time.
    pub wait_ns: u64,
    /// Tag of the unit's previous occupant (0 = never occupied / idle
    /// default).
    pub prev_tag: u8,
}

impl OccupancyModel {
    /// Creates a model with `channels × ways × planes` service units, all
    /// idle at t=0.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(channels: usize, ways: usize, planes: usize) -> Self {
        assert!(channels > 0, "OccupancyModel requires at least one channel");
        assert!(ways > 0, "OccupancyModel requires at least one way");
        assert!(planes > 0, "OccupancyModel requires at least one plane");
        let dies = ways * planes;
        OccupancyModel {
            units: (0..channels * dies).map(|_| AtomicU64::new(0)).collect(),
            tags: (0..channels * dies).map(|_| AtomicU8::new(0)).collect(),
            channels,
            dies,
        }
    }

    /// Total number of parallel service units.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// Occupies the earliest-free unit for exactly `dur`, starting no
    /// earlier than `issue`, and returns the completion time.
    ///
    /// Uncontended, the earliest-free unit wins with the lowest index
    /// breaking ties. Under contention the CAS loop retries until a claim
    /// succeeds, so every concurrent caller observes a consistent,
    /// linearizable schedule.
    pub fn occupy(&self, issue: SimTime, dur: SimDuration) -> SimTime {
        self.occupy_range(0, self.units.len(), issue, dur, 0).done
    }

    /// Occupies the earliest-free unit of one die group, chosen by an
    /// affinity key (typically the zone index), modelling zone-to-die
    /// mappings. With a single die this is identical to
    /// [`occupy`](Self::occupy).
    pub fn occupy_affine(&self, affinity: u64, issue: SimTime, dur: SimDuration) -> SimTime {
        self.occupy_affine_tagged(affinity, issue, dur, 0).done
    }

    /// [`occupy`](Self::occupy) with occupant tagging: returns the same
    /// completion time plus how long the request stalled behind the
    /// unit's prior work and whose tag that prior work carried. The
    /// claimed unit's tag is set to `tag`.
    pub fn occupy_tagged(&self, issue: SimTime, dur: SimDuration, tag: u8) -> Occupied {
        self.occupy_range(0, self.units.len(), issue, dur, tag)
    }

    /// [`occupy_affine`](Self::occupy_affine) with occupant tagging (see
    /// [`occupy_tagged`](Self::occupy_tagged)).
    pub fn occupy_affine_tagged(
        &self,
        affinity: u64,
        issue: SimTime,
        dur: SimDuration,
        tag: u8,
    ) -> Occupied {
        if self.dies == 1 {
            return self.occupy_range(0, self.units.len(), issue, dur, tag);
        }
        let die = (affinity % self.dies as u64) as usize;
        self.occupy_range(die * self.channels, self.channels, issue, dur, tag)
    }

    fn occupy_range(
        &self,
        first: usize,
        len: usize,
        issue: SimTime,
        dur: SimDuration,
        tag: u8,
    ) -> Occupied {
        let units = &self.units[first..first + len];
        let tags = &self.tags[first..first + len];
        loop {
            let mut slot = 0usize;
            let mut next = u64::MAX;
            for (i, u) in units.iter().enumerate() {
                let t = u.load(Ordering::Acquire);
                if t < next {
                    next = t;
                    slot = i;
                }
            }
            let start = next.max(issue.as_nanos());
            let done = start + dur.as_nanos();
            if units[slot]
                .compare_exchange(next, done, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                let prev_tag = tags[slot].swap(tag, Ordering::AcqRel);
                return Occupied {
                    done: SimTime::from_nanos(done),
                    wait_ns: start - issue.as_nanos(),
                    prev_tag,
                };
            }
        }
    }

    /// The earliest instant at which every unit is idle — i.e. when all
    /// previously submitted work has drained.
    pub fn drained_at(&self) -> SimTime {
        SimTime::from_nanos(
            self.units
                .iter()
                .map(|u| u.load(Ordering::Acquire))
                .max()
                .expect("OccupancyModel has at least one unit"),
        )
    }

    /// Resets all units to idle-at-zero (used when reformatting a device).
    pub fn reset(&self) {
        for u in &self.units {
            u.store(0, Ordering::Release);
        }
        for t in &self.tags {
            t.store(0, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dur(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn parallel_units_overlap() {
        let m = OccupancyModel::new(4, 1, 1);
        let times: Vec<_> = (0..4).map(|_| m.occupy(SimTime::ZERO, dur(15))).collect();
        assert!(times.iter().all(|t| *t == times[0]));
        let fifth = m.occupy(SimTime::ZERO, dur(15));
        assert_eq!(fifth, times[0] + dur(15));
    }

    #[test]
    fn later_issue_does_not_start_early() {
        let m = OccupancyModel::new(1, 1, 1);
        let issue = SimTime::from_millis(1);
        assert_eq!(m.occupy(issue, dur(15)), issue + dur(15));
    }

    #[test]
    fn drained_at_tracks_max_and_reset_clears() {
        let m = OccupancyModel::new(2, 1, 1);
        m.occupy(SimTime::ZERO, dur(15));
        let t = m.occupy(SimTime::ZERO, dur(150));
        assert_eq!(m.drained_at(), t);
        m.reset();
        assert_eq!(m.drained_at(), SimTime::ZERO);
    }

    #[test]
    fn ways_and_planes_multiply_parallelism() {
        // 1000 equal requests on 8 units vs 32 units.
        let narrow = OccupancyModel::new(8, 1, 1);
        let wide = OccupancyModel::new(8, 2, 2);
        let mut dn = SimTime::ZERO;
        let mut dw = SimTime::ZERO;
        for _ in 0..1000 {
            dn = narrow.occupy(SimTime::ZERO, dur(10));
            dw = wide.occupy(SimTime::ZERO, dur(10));
        }
        assert!(dn.as_nanos() > 3 * dw.as_nanos());
    }

    #[test]
    fn affine_occupy_scopes_to_one_die() {
        let m = OccupancyModel::new(2, 2, 1);
        // Two requests on die 0 queue behind each other; die 1 stays idle.
        let a = m.occupy_affine(0, SimTime::ZERO, dur(10));
        let b = m.occupy_affine(0, SimTime::ZERO, dur(10));
        let c = m.occupy_affine(0, SimTime::ZERO, dur(10));
        assert_eq!(a, b);
        assert_eq!(c, a + dur(10));
        // Die 1 is unaffected.
        let d = m.occupy_affine(1, SimTime::ZERO, dur(10));
        assert_eq!(d, SimTime::ZERO + dur(10));
    }

    #[test]
    fn tagged_occupy_reports_wait_and_prev_occupant() {
        let m = OccupancyModel::new(1, 1, 1);
        // First claim: idle unit, no wait, default prev tag.
        let a = m.occupy_tagged(SimTime::ZERO, dur(10), 2);
        assert_eq!(a.done, SimTime::ZERO + dur(10));
        assert_eq!(a.wait_ns, 0);
        assert_eq!(a.prev_tag, 0);
        // Second claim queues behind the first and sees its tag.
        let b = m.occupy_tagged(SimTime::ZERO, dur(5), 1);
        assert_eq!(b.done, a.done + dur(5));
        assert_eq!(b.wait_ns, dur(10).as_nanos());
        assert_eq!(b.prev_tag, 2);
        // A late issue after drain waits for nothing.
        let c = m.occupy_tagged(b.done + dur(1), dur(5), 1);
        assert_eq!(c.wait_ns, 0);
        assert_eq!(c.prev_tag, 1);
    }

    #[test]
    fn tagged_occupy_matches_untagged_timing_exactly() {
        // The tagged variant must be a pure superset: identical
        // completion schedule, bit for bit.
        let a = OccupancyModel::new(8, 2, 1);
        let b = OccupancyModel::new(8, 2, 1);
        let mut issue = SimTime::ZERO;
        for i in 0..1000u64 {
            let d = SimDuration::from_nanos((i * 41) % 4000);
            let x = a.occupy_affine(i % 5, issue, d);
            let y = b.occupy_affine_tagged(i % 5, issue, d, (i % 3) as u8);
            assert_eq!(x, y.done, "request {i} diverged");
            if i % 9 == 0 {
                issue = x;
            }
        }
        assert_eq!(a.drained_at(), b.drained_at());
    }

    #[test]
    fn reset_clears_tags() {
        let m = OccupancyModel::new(1, 1, 1);
        m.occupy_tagged(SimTime::ZERO, dur(1), 3);
        m.reset();
        let a = m.occupy_tagged(SimTime::ZERO, dur(1), 1);
        assert_eq!(a.prev_tag, 0);
    }

    #[test]
    fn concurrent_occupancy_conserves_busy_time() {
        // N threads each occupy the model for a fixed slice; total busy
        // time must be conserved: drained_at == total_work / units when
        // work is a multiple of the unit count.
        let m = std::sync::Arc::new(OccupancyModel::new(4, 1, 1));
        let per_thread = 200u64;
        let threads = 4usize;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let m = std::sync::Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..per_thread {
                        m.occupy(SimTime::ZERO, dur(10));
                    }
                });
            }
        });
        let total = per_thread * threads as u64; // 800 slices of 10us on 4 units
        assert_eq!(m.drained_at(), SimTime::ZERO + dur(10) * (total / 4));
    }
}
