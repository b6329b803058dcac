//! A stripe group's reverse map: which logical sector each data slot
//! holds, for the seal summary and the collector's walk.
//!
//! A group's slots are written once, in slot order (every write, GC move
//! and pad appends), so consecutive slots mostly carry consecutive
//! logical sectors. The map keeps one live bit per slot and the logical
//! sectors as write-once runs appended in slot order — not a word per
//! slot. A dead slot's run entry means nothing.

use std::ops::Range;

/// Reverse map of one stripe group.
#[derive(Debug)]
pub(crate) struct RevMap {
    /// One bit per data slot, set while the forward map points at it.
    live: Vec<u64>,
    /// `(slot, lba)`: slot `slot + i` was written with `lba + i`, up to
    /// the next run's slot. Sorted by slot. A reclaimed group hands the
    /// vector back ([`RevMap::release`]) and the next group opened takes
    /// the longest one kept ([`RevMap::reuse`]), so runs allocate only
    /// past the most any group has held.
    runs: Vec<(u32, u32)>,
}

impl RevMap {
    /// An empty map of `slots` data slots.
    pub fn new(slots: u64) -> RevMap {
        RevMap {
            live: vec![0; slots.div_ceil(64) as usize],
            runs: Vec::new(),
        }
    }

    /// Whether the forward map points at `slot`.
    pub fn is_live(&self, slot: u64) -> bool {
        self.live[(slot / 64) as usize] & (1 << (slot % 64)) != 0
    }

    /// Records `slot` — past every slot recorded before — as written
    /// with `lba` and live: extends the last run when it continues it,
    /// else pushes a new one.
    pub fn push(&mut self, slot: u64, lba: u64) {
        self.live[(slot / 64) as usize] |= 1 << (slot % 64);
        if let Some(&(s, l)) = self.runs.last() {
            debug_assert!(u64::from(s) <= slot, "slots are recorded in order");
            if u64::from(l) + (slot - u64::from(s)) == lba {
                return;
            }
        }
        self.runs.push((slot as u32, lba as u32));
    }

    /// Marks `slot` dead (its sector was overwritten, reset or moved).
    pub fn kill(&mut self, slot: u64) {
        self.live[(slot / 64) as usize] &= !(1 << (slot % 64));
    }

    /// Forgets every slot, keeping the runs' capacity.
    pub fn clear(&mut self) {
        self.live.fill(0);
        self.runs.clear();
    }

    /// Forgets every slot and hands back the runs' vector, emptied, for
    /// another group to record into: the map keeps no capacity.
    pub fn release(&mut self) -> Vec<(u32, u32)> {
        self.clear();
        std::mem::take(&mut self.runs)
    }

    /// Records into `runs` — empty, from [`RevMap::release`] — from now
    /// on. The map must be empty.
    pub fn reuse(&mut self, runs: Vec<(u32, u32)>) {
        debug_assert!(self.runs.is_empty() && runs.is_empty());
        self.runs = runs;
    }

    /// Capacity of the runs' vector, in runs (memory shape).
    #[cfg(test)]
    pub fn runs_capacity(&self) -> usize {
        self.runs.capacity()
    }

    /// The first live slot at or after `from`.
    pub fn next_live(&self, from: u64) -> Option<u64> {
        let mut w = (from / 64) as usize;
        let mut bits = self.live.get(w)? & (!0 << (from % 64));
        while bits == 0 {
            w += 1;
            bits = *self.live.get(w)?;
        }
        Some(w as u64 * 64 + u64::from(bits.trailing_zeros()))
    }

    /// The logical sector of each slot in `slots`, in order: `None` where
    /// the slot is dead. One binary search places the cursor; it then
    /// only moves forward.
    pub fn lbas(&self, slots: Range<u64>) -> impl Iterator<Item = Option<u32>> + '_ {
        let mut run = self
            .runs
            .partition_point(|&(s, _)| u64::from(s) <= slots.start)
            .saturating_sub(1);
        slots.map(move |slot| {
            if !self.is_live(slot) {
                return None;
            }
            while self
                .runs
                .get(run + 1)
                .is_some_and(|&(s, _)| u64::from(s) <= slot)
            {
                run += 1;
            }
            let (s, l) = self.runs[run];
            Some(l + (slot - u64::from(s)) as u32)
        })
    }

    /// Runs held (memory shape).
    #[cfg(test)]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Live slots (memory shape).
    #[cfg(test)]
    pub fn live_count(&self) -> u64 {
        self.live.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}
