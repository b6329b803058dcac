//! The correctness gate: a pattern-checking target for the verify pass.
//!
//! The engine writes zero buffers, so this wrapper substitutes a pattern
//! derived from the seed and the sector offset, and compares every read
//! against it. It also keeps the set of sectors acknowledged before the
//! last flush, which must read back after a power loss.

use sim::SimTime;
use std::sync::{Arc, Mutex, MutexGuard};
use workloads::IoTarget;
use zns::{Result, SECTOR_SIZE};

const SECTOR: usize = SECTOR_SIZE as usize;

/// The 8-byte word every sector at dense offset `sector` is filled with
/// (splitmix64 finaliser: neighbouring sectors and seeds share no bits).
fn sector_word(seed: u64, sector: u64) -> [u8; 8] {
    let mut z = seed ^ sector.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)).to_le_bytes()
}

fn fill_pattern(seed: u64, off: u64, buf: &mut [u8]) {
    for (i, sector) in buf.chunks_exact_mut(SECTOR).enumerate() {
        let word = sector_word(seed, off + i as u64);
        for w in sector.chunks_exact_mut(8) {
            w.copy_from_slice(&word);
        }
    }
}

fn matches_pattern(seed: u64, off: u64, buf: &[u8]) -> bool {
    buf.chunks_exact(SECTOR).enumerate().all(|(i, sector)| {
        let word = sector_word(seed, off + i as u64);
        sector.chunks_exact(8).all(|w| w == word)
    })
}

#[derive(Default)]
struct State {
    /// Per dense sector: a write of it has been acknowledged.
    acked: Vec<bool>,
    /// Snapshot of `acked` at the last flush.
    durable: Vec<bool>,
    scratch: Vec<u8>,
    counts: Counts,
    /// Flush before the op with this number (see [`PatternTarget::arm_flush`]).
    flush_at: Option<u64>,
}

/// What the wrapper has seen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Reads, writes and flushes passed down.
    pub ops: u64,
    /// Ops the target answered with `Err`.
    pub errors: u64,
    /// Reads whose bytes differed from the pattern.
    pub mismatches: u64,
}

/// Wraps any [`IoTarget`]; see the module docs.
pub struct PatternTarget {
    inner: Arc<dyn IoTarget>,
    seed: u64,
    /// Zone capacity of a target that resets a zone when a write re-enters
    /// it at offset 0 (the zone's earlier contents are then gone on
    /// purpose); `None` for a target that remaps overwrites.
    reset_zone_cap: Option<u64>,
    state: Mutex<State>,
}

impl PatternTarget {
    pub fn new(inner: Arc<dyn IoTarget>, seed: u64, reset_zone_cap: Option<u64>) -> Self {
        let sectors = inner.capacity_sectors() as usize;
        PatternTarget {
            inner,
            seed,
            reset_zone_cap,
            state: Mutex::new(State {
                acked: vec![false; sectors],
                durable: vec![false; sectors],
                ..State::default()
            }),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("pattern state poisoned")
    }

    pub fn counts(&self) -> Counts {
        self.state().counts
    }

    /// Arranges one flush `after_ops` ops from now, in the middle of
    /// whatever the engine is doing then, so that the ops behind it form an
    /// unflushed tail in the same zones.
    pub fn arm_flush(&self, after_ops: u64) {
        let mut st = self.state();
        st.flush_at = Some(st.counts.ops + after_ops);
    }

    fn flush_locked(&self, st: &mut State, at: SimTime) -> Result<SimTime> {
        st.counts.ops += 1;
        let done = self.inner.flush(at);
        match done {
            Ok(_) => st.durable = st.acked.clone(),
            Err(_) => st.counts.errors += 1,
        }
        done
    }

    /// One write of `len` pattern bytes at `off`, issued through `issue`
    /// (plain or gather).
    fn write_with(
        &self,
        at: SimTime,
        off: u64,
        len: usize,
        issue: impl FnOnce(&[u8]) -> Result<SimTime>,
    ) -> Result<SimTime> {
        let mut st = self.state();
        if st.flush_at.is_some_and(|n| st.counts.ops >= n) {
            st.flush_at = None;
            self.flush_locked(&mut st, at)?;
        }
        let mut scratch = std::mem::take(&mut st.scratch);
        scratch.resize(len, 0);
        fill_pattern(self.seed, off, &mut scratch);
        if let Some(cap) = self.reset_zone_cap {
            if off.is_multiple_of(cap) {
                let zone = off as usize..(off + cap) as usize;
                st.acked[zone.clone()].fill(false);
                st.durable[zone].fill(false);
            }
        }
        st.counts.ops += 1;
        let done = issue(&scratch);
        match done {
            Ok(_) => st.acked[off as usize..off as usize + len / SECTOR].fill(true),
            Err(_) => st.counts.errors += 1,
        }
        st.scratch = scratch;
        done
    }

    /// After a crash and re-mount: reads every sector acknowledged before
    /// the last flush back through `target` and compares it. Returns
    /// (reads attempted, reads that failed or differed).
    pub fn check_durable(&self, target: &dyn IoTarget, at: SimTime) -> (u64, u64) {
        let durable = self.state().durable.clone();
        let (mut reads, mut misses) = (0u64, 0u64);
        let mut buf = Vec::new();
        let mut off = 0usize;
        while off < durable.len() {
            if !durable[off] {
                off += 1;
                continue;
            }
            let limit = (target.max_io_at(off as u64) as usize).min(64);
            let run = durable[off..]
                .iter()
                .take(limit)
                .take_while(|d| **d)
                .count();
            buf.resize(run * SECTOR, 0);
            reads += 1;
            let ok = target.read(at, off as u64, &mut buf).is_ok()
                && matches_pattern(self.seed, off as u64, &buf);
            misses += u64::from(!ok);
            off += run;
        }
        (reads, misses)
    }
}

impl IoTarget for PatternTarget {
    fn capacity_sectors(&self) -> u64 {
        self.inner.capacity_sectors()
    }

    fn read(&self, at: SimTime, off: u64, buf: &mut [u8]) -> Result<SimTime> {
        let done = self.inner.read(at, off, buf);
        let mut st = self.state();
        st.counts.ops += 1;
        match done {
            Ok(_) if !matches_pattern(self.seed, off, buf) => st.counts.mismatches += 1,
            Ok(_) => {}
            Err(_) => st.counts.errors += 1,
        }
        done
    }

    fn write(&self, at: SimTime, off: u64, data: &[u8]) -> Result<SimTime> {
        self.write_with(at, off, data.len(), |pattern| {
            self.inner.write(at, off, pattern)
        })
    }

    fn write_vectored(&self, at: SimTime, off: u64, segments: &[&[u8]]) -> Result<SimTime> {
        let len = segments.iter().map(|s| s.len()).sum();
        self.write_with(at, off, len, |pattern| {
            let mut rest = pattern;
            let parts: Vec<&[u8]> = segments
                .iter()
                .map(|s| {
                    let (head, tail) = rest.split_at(s.len());
                    rest = tail;
                    head
                })
                .collect();
            self.inner.write_vectored(at, off, &parts)
        })
    }

    fn flush(&self, at: SimTime) -> Result<SimTime> {
        self.flush_locked(&mut self.state(), at)
    }

    fn manage_zone(&self, at: SimTime, zone: u32, op: zns::ZoneMgmtOp) -> Result<SimTime> {
        self.inner.manage_zone(at, zone, op)
    }

    fn max_io_at(&self, off: u64) -> u64 {
        self.inner.max_io_at(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::ZonedTarget;
    use zns::{CrashPolicy, ZnsConfig, ZnsDevice};

    fn device() -> Arc<ZnsDevice> {
        Arc::new(ZnsDevice::new(ZnsConfig::small_test()))
    }

    #[test]
    fn pattern_differs_by_seed_and_sector() {
        let mut a = vec![0u8; 2 * SECTOR];
        fill_pattern(1, 10, &mut a);
        assert!(matches_pattern(1, 10, &a));
        assert!(!matches_pattern(2, 10, &a));
        assert!(!matches_pattern(1, 11, &a));
        assert_ne!(a[..SECTOR], a[SECTOR..]);
        a[SECTOR + 5] ^= 1;
        assert!(!matches_pattern(1, 10, &a));
    }

    #[test]
    fn reads_are_checked_and_gather_writes_carry_the_pattern() {
        let dev = device();
        let t = PatternTarget::new(Arc::new(ZonedTarget::new(dev.clone())), 7, Some(64));
        let zeros = vec![0u8; 4 * SECTOR];
        t.write(SimTime::ZERO, 0, &zeros).unwrap();
        t.write_vectored(SimTime::ZERO, 4, &[&zeros[..SECTOR], &zeros[..2 * SECTOR]])
            .unwrap();
        let mut buf = vec![0u8; 7 * SECTOR];
        t.read(SimTime::ZERO, 0, &mut buf).unwrap();
        assert_eq!(t.counts().mismatches, 0);
        // A sector corrupted underneath is caught.
        dev.corrupt_sector_for_test(5, 0xFF);
        t.read(SimTime::ZERO, 0, &mut buf).unwrap();
        assert_eq!(
            t.counts(),
            Counts {
                ops: 4,
                errors: 0,
                mismatches: 1
            }
        );
    }

    #[test]
    fn durable_set_is_what_preceded_the_last_flush() {
        let dev = device();
        let t = PatternTarget::new(Arc::new(ZonedTarget::new(dev.clone())), 3, Some(64));
        let zeros = vec![0u8; 8 * SECTOR];
        t.arm_flush(2);
        t.write(SimTime::ZERO, 0, &zeros).unwrap();
        t.write(SimTime::ZERO, 64, &zeros).unwrap();
        t.write(SimTime::ZERO, 8, &zeros).unwrap(); // flush fires first: unflushed tail
        assert_eq!(t.counts().ops, 4, "three writes and the armed flush");
        t.write(SimTime::ZERO, 64, &zeros).unwrap(); // re-entry resets zone 1
        dev.crash(&mut CrashPolicy::LoseCache);
        let after = ZonedTarget::new(dev.clone());
        // Zone 0's flushed 8 sectors must survive; zone 1 was reset after
        // the flush, so nothing of it is claimed.
        assert_eq!(t.check_durable(&after, SimTime::ZERO), (1, 0));
        // Losing flushed data is a miss.
        ZonedTarget::new(dev)
            .manage_zone(SimTime::ZERO, 0, zns::ZoneMgmtOp::Reset)
            .unwrap();
        assert_eq!(t.check_durable(&after, SimTime::ZERO), (1, 1));
    }
}
