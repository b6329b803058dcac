//! The conventional SSD device model.

use crate::block::BlockDevice;
use crate::config::FtlConfig;
use crate::stats::FtlStats;
use parking_lot::Mutex;
use sim::{OccupancyModel, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use zns::{IoCompletion, Lba, Result, WriteFlags, ZnsError, SECTOR_SIZE};

/// Sentinel for "unmapped" L2P entries and "stale" flash page slots.
const NONE32: u32 = u32::MAX;

/// A simulated conventional SSD with a page-mapped FTL and greedy
/// foreground garbage collection.
///
/// See the crate docs for the model description. All methods take `&self`;
/// state lives behind a mutex so devices can be shared between an mdraid
/// volume and a test harness.
///
/// # Examples
///
/// Overwrites eventually force GC (erase-block recycling); random
/// overwrites additionally force live-page copying (write amplification):
///
/// ```
/// use ftl::{ConvSsd, FtlConfig, BlockDevice};
/// use zns::WriteFlags;
/// use sim::SimTime;
///
/// let dev = ConvSsd::new(FtlConfig::small_test());
/// let page = vec![0u8; 4096];
/// let mut rng = sim::SimRng::new(1);
/// for lba in 0..dev.capacity_sectors() {
///     dev.write(SimTime::ZERO, lba, &page, WriteFlags::default()).unwrap();
/// }
/// for _ in 0..3 * dev.capacity_sectors() {
///     let lba = rng.gen_range(dev.capacity_sectors());
///     dev.write(SimTime::ZERO, lba, &page, WriteFlags::default()).unwrap();
/// }
/// let stats = dev.ftl_stats();
/// assert!(stats.erases > 0);
/// assert!(stats.waf() > 1.0);
/// ```
#[derive(Debug)]
pub struct ConvSsd {
    config: FtlConfig,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct FlashBlock {
    /// Logical page stored in each slot; [`NONE32`] = stale/unwritten.
    pages: Box<[u32]>,
    /// Write frontier within the block.
    next: u32,
    /// Count of valid (live) pages.
    valid: u32,
}

impl FlashBlock {
    fn new(ppb: u64) -> Self {
        FlashBlock {
            pages: vec![NONE32; ppb as usize].into_boxed_slice(),
            next: 0,
            valid: 0,
        }
    }

    fn is_full(&self, ppb: u64) -> bool {
        self.next as u64 == ppb
    }
}

#[derive(Debug)]
struct Inner {
    /// Logical page -> flash location (`block * ppb + slot`), or NONE32.
    l2p: Vec<u32>,
    blocks: Vec<FlashBlock>,
    free_list: Vec<u32>,
    /// Current write-frontier block.
    frontier: u32,
    /// Lazy min-heap of (valid_count, block) candidates for GC victim
    /// selection; entries are revalidated on pop.
    victims: BinaryHeap<Reverse<(u32, u32)>>,
    /// Flat stored payload bytes (only in store mode), lazily grown to
    /// cover the highest written sector. Invariant: bytes of unwritten or
    /// trimmed sectors are zero, so reads are single bulk copies.
    data: Vec<u8>,
    timing: OccupancyModel,
    stats: FtlStats,
    failed: bool,
    /// Span/counter handle (device-layer spans, GC-stall counters).
    /// Attached under the device lock, like everything else in here.
    tracer: obs::Tracer,
}

impl ConvSsd {
    /// Creates a fresh device.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`FtlConfig::validate`]).
    pub fn new(config: FtlConfig) -> Self {
        config.validate();
        let total_blocks = config.total_blocks();
        let blocks: Vec<FlashBlock> = (0..total_blocks)
            .map(|_| FlashBlock::new(config.pages_per_block))
            .collect();
        // Keep block 0 as the initial frontier; the rest are free.
        let free_list: Vec<u32> = (1..total_blocks as u32).rev().collect();
        let timing = OccupancyModel::new(config.latency.channels, 1, 1);
        ConvSsd {
            inner: Mutex::new(Inner {
                l2p: vec![NONE32; config.user_sectors as usize],
                blocks,
                free_list,
                frontier: 0,
                victims: BinaryHeap::new(),
                data: Vec::new(),
                timing,
                stats: FtlStats::default(),
                failed: false,
                tracer: obs::Tracer::new(),
            }),
            config,
        }
    }

    /// Attaches a trace recorder; every subsequent command emits spans
    /// tagged with `dev_id` (the device's index within its array). GC
    /// stalls are surfaced as [`obs::Counter::GcStalls`] /
    /// [`obs::Counter::GcStallNanos`].
    pub fn set_recorder(&self, recorder: std::sync::Arc<obs::Recorder>, dev_id: u32) {
        self.inner.lock().tracer.attach(recorder, dev_id);
    }

    /// The device configuration.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// FTL statistics (write amplification, GC stalls).
    pub fn ftl_stats(&self) -> FtlStats {
        self.inner.lock().stats
    }

    /// Marks the device failed; all subsequent IO returns
    /// [`ZnsError::DeviceFailed`].
    pub fn fail(&self) {
        self.inner.lock().failed = true;
    }

    /// Whether the device is failed.
    pub fn is_failed(&self) -> bool {
        self.inner.lock().failed
    }

    /// Number of currently free erase blocks (test observability).
    pub fn free_blocks(&self) -> usize {
        self.inner.lock().free_list.len()
    }

    fn check_range(&self, lba: Lba, sectors: u64) -> Result<()> {
        if sectors == 0 {
            return Err(ZnsError::InvalidArgument(
                "zero-length block IO".to_string(),
            ));
        }
        if lba + sectors > self.config.user_sectors {
            return Err(ZnsError::OutOfRange { lba, sectors });
        }
        Ok(())
    }

    fn sector_count(len: usize) -> Result<u64> {
        if len == 0 || !len.is_multiple_of(SECTOR_SIZE as usize) {
            return Err(ZnsError::InvalidArgument(format!(
                "buffer length {len} is not a positive multiple of the sector size"
            )));
        }
        Ok((len / SECTOR_SIZE as usize) as u64)
    }

    /// Invalidates the current mapping of logical page `lp`, if any.
    fn invalidate(inner: &mut Inner, ppb: u64, lp: u32) {
        let loc = inner.l2p[lp as usize];
        if loc == NONE32 {
            return;
        }
        let block = (loc as u64 / ppb) as u32;
        let slot = (loc as u64 % ppb) as usize;
        let b = &mut inner.blocks[block as usize];
        debug_assert_eq!(b.pages[slot], lp);
        b.pages[slot] = NONE32;
        b.valid -= 1;
        inner.l2p[lp as usize] = NONE32;
        // Only full blocks are GC candidates; the frontier is skipped at pop.
        if b.is_full(ppb) {
            let valid = b.valid;
            inner.victims.push(Reverse((valid, block)));
        }
    }

    /// Places logical page `lp` at the write frontier, advancing it and
    /// running GC if the free pool is exhausted. Returns GC work performed
    /// (pages copied, blocks erased) for timing attribution.
    fn place(inner: &mut Inner, ppb: u64, gc_low: u64, lp: u32) -> (u64, u64) {
        let mut gc_copied = 0u64;
        let mut gc_erased = 0u64;
        if inner.blocks[inner.frontier as usize].is_full(ppb) {
            // Seal the frontier as a GC candidate and pick a new one.
            let f = inner.frontier;
            let valid = inner.blocks[f as usize].valid;
            inner.victims.push(Reverse((valid, f)));
            // Safety valve: GC cannot usefully run more often than once
            // per block in the device; break on any no-progress round.
            let mut rounds = inner.blocks.len();
            while inner.free_list.len() as u64 <= gc_low && rounds > 0 {
                let (c, e) = Self::gc_one(inner, ppb);
                gc_copied += c;
                gc_erased += e;
                if e == 0 {
                    break; // no reclaimable victim right now
                }
                rounds -= 1;
            }
            // GC relocation may itself have installed a fresh frontier;
            // only allocate another when it is (still) full — otherwise a
            // partially written block would be orphaned.
            if inner.blocks[inner.frontier as usize].is_full(ppb) {
                inner.frontier = inner
                    .free_list
                    .pop()
                    .expect("free pool exhausted: GC made no progress");
            }
        }
        let f = inner.frontier;
        let b = &mut inner.blocks[f as usize];
        let slot = b.next;
        b.pages[slot as usize] = lp;
        b.next += 1;
        b.valid += 1;
        inner.l2p[lp as usize] = (f as u64 * ppb + slot as u64) as u32;
        (gc_copied, gc_erased)
    }

    /// Erases the best GC victim, relocating its valid pages to the
    /// frontier. Returns (pages copied, blocks erased).
    fn gc_one(inner: &mut Inner, ppb: u64) -> (u64, u64) {
        inner.stats.gc_runs += 1;
        // Pop lazily-invalidated heap entries until a live candidate
        // emerges: it must be a full, non-frontier block whose recorded
        // valid count is current.
        // Entries referring to the current frontier must not be selected
        // (the frontier cannot be erased) but must not be lost either —
        // the block becomes a legitimate victim once the frontier moves
        // on. Stash and re-push them.
        let mut stash: Vec<Reverse<(u32, u32)>> = Vec::new();
        let victim = loop {
            match inner.victims.pop() {
                None => {
                    inner.victims.extend(stash);
                    return (0, 0);
                }
                Some(Reverse((valid, block))) => {
                    if block == inner.frontier {
                        let b = &inner.blocks[block as usize];
                        if b.is_full(ppb) && b.valid == valid {
                            stash.push(Reverse((valid, block)));
                        }
                        continue;
                    }
                    let b = &inner.blocks[block as usize];
                    if !b.is_full(ppb) || b.valid != valid {
                        continue; // stale lazy-heap entry
                    }
                    if valid as u64 == ppb {
                        // Fully valid: erasing it reclaims nothing (the
                        // relocation consumes exactly what the erase
                        // frees). Min-heap order means no better victim
                        // exists right now; wait for more invalidations.
                        stash.push(Reverse((valid, block)));
                        inner.victims.extend(stash);
                        return (0, 0);
                    }
                    break block;
                }
            }
        };
        inner.victims.extend(stash);
        // Detach the victim's live pages (their data is tracked through
        // the logical store, so the copy can be modelled as: erase first,
        // then re-place — guaranteeing relocation always has at least the
        // just-freed block to draw from).
        let live: Vec<u32> = inner.blocks[victim as usize]
            .pages
            .iter()
            .copied()
            .filter(|p| *p != NONE32)
            .collect();
        for lp in &live {
            inner.l2p[*lp as usize] = NONE32;
        }
        {
            let b = &mut inner.blocks[victim as usize];
            b.valid = 0;
            b.next = 0;
            b.pages.fill(NONE32);
        }
        inner.free_list.push(victim);
        inner.stats.erases += 1;
        // Relocate the live pages to the write frontier.
        let mut copied = 0u64;
        for lp in live {
            if inner.blocks[inner.frontier as usize].is_full(ppb) {
                let f = inner.frontier;
                let valid = inner.blocks[f as usize].valid;
                inner.victims.push(Reverse((valid, f)));
                inner.frontier = inner
                    .free_list
                    .pop()
                    .expect("free pool exhausted during GC relocation");
            }
            let f = inner.frontier;
            let b = &mut inner.blocks[f as usize];
            let slot = b.next;
            b.pages[slot as usize] = lp;
            b.next += 1;
            b.valid += 1;
            inner.l2p[lp as usize] = (f as u64 * ppb + slot as u64) as u32;
            copied += 1;
        }
        inner.stats.gc_pages_copied += copied;
        (copied, 1)
    }
}

impl BlockDevice for ConvSsd {
    fn capacity_sectors(&self) -> u64 {
        self.config.user_sectors
    }

    fn read(&self, at: SimTime, lba: Lba, buf: &mut [u8]) -> Result<IoCompletion> {
        let sectors = Self::sector_count(buf.len())?;
        self.check_range(lba, sectors)?;
        let mut inner = self.inner.lock();
        if inner.failed {
            return Err(ZnsError::DeviceFailed);
        }
        if self.config.store_data {
            // Bulk copy of the stored prefix; anything beyond the lazily
            // grown store is zero by invariant.
            let off = (lba * SECTOR_SIZE) as usize;
            let avail = inner.data.len().saturating_sub(off).min(buf.len());
            if avail > 0 {
                buf[..avail].copy_from_slice(&inner.data[off..off + avail]);
            }
            buf[avail..].fill(0);
        } else {
            buf.fill(0);
        }
        let lat = &self.config.latency;
        let start = at + lat.command_overhead;
        let mut done = start;
        let mut remaining = sectors;
        while remaining > 0 {
            let chunk = remaining.min(lat.chunk_sectors);
            let dur = lat.read_per_sector.saturating_mul(chunk);
            done = done.max(inner.timing.occupy(start, dur));
            remaining -= chunk;
        }
        inner.stats.host_pages_read += sectors;
        inner.tracer.leaf(
            obs::Span::new(obs::OpClass::Read, obs::Stage::DeviceIo, at, done)
                .lba(lba)
                .sectors(sectors),
        );
        Ok(IoCompletion { done })
    }

    fn write(&self, at: SimTime, lba: Lba, data: &[u8], flags: WriteFlags) -> Result<IoCompletion> {
        let sectors = Self::sector_count(data.len())?;
        self.check_range(lba, sectors)?;
        let ppb = self.config.pages_per_block;
        let gc_low = self.config.gc_low_blocks;
        let mut inner = self.inner.lock();
        if inner.failed {
            return Err(ZnsError::DeviceFailed);
        }
        let store = self.config.store_data;
        let mut gc_copied = 0u64;
        let mut gc_erased = 0u64;
        for i in 0..sectors {
            let lp = (lba + i) as u32;
            Self::invalidate(&mut inner, ppb, lp);
            let (c, e) = Self::place(&mut inner, ppb, gc_low, lp);
            gc_copied += c;
            gc_erased += e;
        }
        if store {
            // One bulk copy for the whole request, growing the flat store
            // (zero filled) only when the write extends past it.
            let off = (lba * SECTOR_SIZE) as usize;
            let end = off + data.len();
            if inner.data.len() < end {
                inner.data.resize(end, 0);
            }
            inner.data[off..end].copy_from_slice(data);
        }
        inner.stats.host_pages_written += sectors;

        // Timing: GC work (reads + programs + erases) occupies the channels
        // before the host write's own chunks, so foreground GC directly
        // inflates this write's latency — the Fig. 10 mechanism.
        let lat = self.config.latency.clone();
        let start = at + lat.command_overhead;
        if gc_copied > 0 || gc_erased > 0 {
            let copy_cost = (lat.read_per_sector + lat.write_per_sector).saturating_mul(gc_copied);
            let erase_cost = lat.reset.saturating_mul(gc_erased);
            let gc_busy = copy_cost + erase_cost;
            // Spread the GC work over all channels.
            let per_channel = SimDuration::from_nanos(gc_busy.as_nanos() / lat.channels as u64);
            for _ in 0..lat.channels {
                inner.timing.occupy(start, per_channel);
            }
            inner.stats.gc_stall += gc_busy;
            inner.tracer.bump(obs::Counter::GcStalls);
            inner
                .tracer
                .add(obs::Counter::GcStallNanos, gc_busy.as_nanos());
        }
        let mut done = start;
        let mut remaining = sectors;
        while remaining > 0 {
            let chunk = remaining.min(lat.chunk_sectors);
            let dur = lat.write_per_sector.saturating_mul(chunk);
            done = done.max(inner.timing.occupy(start, dur));
            remaining -= chunk;
        }
        if flags.preflush || flags.fua {
            // Modelled as an extra cache-flush delay; conventional-side
            // crash consistency is out of scope (the paper benchmarks
            // mdraid without a journal).
            done += lat.flush;
            inner.tracer.bump(obs::Counter::CacheFlushes);
        }
        inner.tracer.leaf(
            obs::Span::new(obs::OpClass::Write, obs::Stage::DeviceIo, at, done)
                .lba(lba)
                .sectors(sectors),
        );
        Ok(IoCompletion { done })
    }

    fn trim(&self, at: SimTime, lba: Lba, sectors: u64) -> Result<IoCompletion> {
        self.check_range(lba, sectors)?;
        let ppb = self.config.pages_per_block;
        let mut inner = self.inner.lock();
        if inner.failed {
            return Err(ZnsError::DeviceFailed);
        }
        for i in 0..sectors {
            let lp = (lba + i) as u32;
            Self::invalidate(&mut inner, ppb, lp);
        }
        if self.config.store_data {
            // Zero the trimmed range to uphold the unwritten-is-zero
            // invariant of the flat store.
            let off = (lba * SECTOR_SIZE) as usize;
            let end = (((lba + sectors) * SECTOR_SIZE) as usize).min(inner.data.len());
            if off < end {
                inner.data[off..end].fill(0);
            }
        }
        let done = inner.timing.occupy(at, self.config.latency.zone_mgmt);
        inner.tracer.leaf(
            obs::Span::new(obs::OpClass::Reset, obs::Stage::DeviceIo, at, done)
                .lba(lba)
                .sectors(sectors),
        );
        Ok(IoCompletion { done })
    }

    fn flush(&self, at: SimTime) -> Result<IoCompletion> {
        let inner = self.inner.lock();
        if inner.failed {
            return Err(ZnsError::DeviceFailed);
        }
        let done = inner.timing.drained_at().max(at) + self.config.latency.flush;
        inner.tracer.bump(obs::Counter::CacheFlushes);
        inner.tracer.leaf(obs::Span::new(
            obs::OpClass::Flush,
            obs::Stage::Flush,
            at,
            done,
        ));
        Ok(IoCompletion { done })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; SECTOR_SIZE as usize]
    }

    #[test]
    fn write_read_roundtrip() {
        let d = ConvSsd::new(FtlConfig::small_test());
        d.write(SimTime::ZERO, 10, &page(7), WriteFlags::default())
            .unwrap();
        let mut out = page(0);
        d.read(SimTime::ZERO, 10, &mut out).unwrap();
        assert_eq!(out, page(7));
    }

    #[test]
    fn overwrite_in_place_allowed() {
        let d = ConvSsd::new(FtlConfig::small_test());
        d.write(SimTime::ZERO, 0, &page(1), WriteFlags::default())
            .unwrap();
        d.write(SimTime::ZERO, 0, &page(2), WriteFlags::default())
            .unwrap();
        let mut out = page(0);
        d.read(SimTime::ZERO, 0, &mut out).unwrap();
        assert_eq!(out, page(2));
    }

    #[test]
    fn unwritten_reads_zeros() {
        let d = ConvSsd::new(FtlConfig::small_test());
        let mut out = page(9);
        d.read(SimTime::ZERO, 100, &mut out).unwrap();
        assert!(out.iter().all(|b| *b == 0));
    }

    #[test]
    fn out_of_range_rejected() {
        let d = ConvSsd::new(FtlConfig::small_test());
        let cap = d.capacity_sectors();
        assert!(matches!(
            d.write(SimTime::ZERO, cap, &page(0), WriteFlags::default()),
            Err(ZnsError::OutOfRange { .. })
        ));
        let mut buf = page(0);
        assert!(matches!(
            d.read(SimTime::ZERO, cap, &mut buf),
            Err(ZnsError::OutOfRange { .. })
        ));
    }

    #[test]
    fn repeated_overwrites_trigger_gc() {
        // Random overwrites mix hot and cold pages into the same erase
        // blocks, so GC must copy live pages (WAF > 1). A purely
        // sequential overwrite would invalidate whole blocks at once and
        // legitimately keep WAF at 1.
        let d = ConvSsd::new(FtlConfig::small_test());
        let data = page(3);
        let mut rng = sim::SimRng::new(77);
        for lba in 0..d.capacity_sectors() {
            d.write(SimTime::ZERO, lba, &data, WriteFlags::default())
                .unwrap();
        }
        for _ in 0..4 * d.capacity_sectors() {
            let lba = rng.gen_range(d.capacity_sectors());
            d.write(SimTime::ZERO, lba, &data, WriteFlags::default())
                .unwrap();
        }
        let s = d.ftl_stats();
        assert!(s.erases > 0, "GC never ran: {s:?}");
        assert!(s.waf() > 1.0, "no GC copies: {s:?}");
        // Data still correct after GC relocations.
        let mut out = page(0);
        d.read(SimTime::ZERO, 123, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn sequential_overwrites_have_waf_one() {
        // The flip side: whole-device sequential overwrite invalidates
        // erase blocks wholesale, so GC never needs to copy.
        let d = ConvSsd::new(FtlConfig::small_test());
        let data = page(3);
        for _ in 0..6 {
            for lba in 0..d.capacity_sectors() {
                d.write(SimTime::ZERO, lba, &data, WriteFlags::default())
                    .unwrap();
            }
        }
        let s = d.ftl_stats();
        assert!(s.erases > 0, "blocks never recycled: {s:?}");
        assert!(
            s.waf() < 1.1,
            "sequential overwrite should be GC-copy free: {s:?}"
        );
    }

    #[test]
    fn sequential_fill_has_no_gc() {
        let d = ConvSsd::new(FtlConfig::small_test());
        for lba in 0..d.capacity_sectors() {
            d.write(SimTime::ZERO, lba, &page(1), WriteFlags::default())
                .unwrap();
        }
        // One pass fits in user capacity + OP; no GC copies needed.
        assert_eq!(d.ftl_stats().gc_pages_copied, 0);
    }

    #[test]
    fn trim_releases_pages_and_reads_zero() {
        let d = ConvSsd::new(FtlConfig::small_test());
        d.write(SimTime::ZERO, 5, &page(8), WriteFlags::default())
            .unwrap();
        d.trim(SimTime::ZERO, 5, 1).unwrap();
        let mut out = page(9);
        d.read(SimTime::ZERO, 5, &mut out).unwrap();
        assert!(out.iter().all(|b| *b == 0));
    }

    #[test]
    fn trim_reduces_gc_pressure() {
        // A workload that trims dead ranges before reusing them (like a
        // log-structured filesystem) causes far fewer GC copies than one
        // that blindly overwrites random pages.
        let run = |use_trim: bool| {
            let d = ConvSsd::new(FtlConfig::small_test());
            let data = page(1);
            let cap = d.capacity_sectors();
            let mut rng = sim::SimRng::new(9);
            for lba in 0..cap {
                d.write(SimTime::ZERO, lba, &data, WriteFlags::default())
                    .unwrap();
            }
            // Rewrite in half-device segments, random order across
            // passes; the trimming variant deallocates each segment
            // before rewriting it.
            for _ in 0..6 {
                if use_trim {
                    d.trim(SimTime::ZERO, 0, cap / 2).unwrap();
                    for lba in 0..cap / 2 {
                        d.write(SimTime::ZERO, lba, &data, WriteFlags::default())
                            .unwrap();
                    }
                } else {
                    for _ in 0..cap / 2 {
                        let lba = rng.gen_range(cap / 2);
                        d.write(SimTime::ZERO, lba, &data, WriteFlags::default())
                            .unwrap();
                    }
                }
            }
            d.ftl_stats().gc_pages_copied
        };
        let with_trim = run(true);
        let without = run(false);
        assert!(
            with_trim < without / 2 || (with_trim == 0 && without > 0),
            "trim did not help: {with_trim} vs {without}"
        );
    }

    #[test]
    fn failed_device_rejects_io() {
        let d = ConvSsd::new(FtlConfig::small_test());
        d.fail();
        assert!(d.is_failed());
        let mut buf = page(0);
        assert!(matches!(
            d.read(SimTime::ZERO, 0, &mut buf),
            Err(ZnsError::DeviceFailed)
        ));
        assert!(matches!(
            d.write(SimTime::ZERO, 0, &page(0), WriteFlags::default()),
            Err(ZnsError::DeviceFailed)
        ));
        assert!(matches!(
            d.flush(SimTime::ZERO),
            Err(ZnsError::DeviceFailed)
        ));
        assert!(matches!(
            d.trim(SimTime::ZERO, 0, 1),
            Err(ZnsError::DeviceFailed)
        ));
    }

    #[test]
    fn gc_inflates_write_latency() {
        // With realistic timing, writes during GC are much slower.
        let mut cfg = FtlConfig::small_test();
        cfg.latency = zns::LatencyConfig::conventional_ssd();
        cfg.store_data = false;
        let d = ConvSsd::new(cfg);
        let data = page(0);
        // Prime: fill the device twice to exhaust spare blocks.
        let mut t = SimTime::ZERO;
        let mut clean_lat = SimDuration::ZERO;
        for lba in 0..d.capacity_sectors() {
            let c = d.write(t, lba, &data, WriteFlags::default()).unwrap();
            clean_lat = c.done.since(t);
            t = c.done;
        }
        let mut dirty_lat = SimDuration::ZERO;
        for _ in 0..3 {
            for lba in 0..d.capacity_sectors() {
                let c = d.write(t, lba, &data, WriteFlags::default()).unwrap();
                dirty_lat = dirty_lat.max(c.done.since(t));
                t = c.done;
            }
        }
        assert!(
            dirty_lat.as_nanos() > 3 * clean_lat.as_nanos(),
            "GC stall not visible: clean={clean_lat} dirty={dirty_lat}"
        );
        assert!(d.ftl_stats().gc_stall > SimDuration::ZERO);
    }

    #[test]
    fn unaligned_buffers_rejected() {
        let d = ConvSsd::new(FtlConfig::small_test());
        assert!(matches!(
            d.write(SimTime::ZERO, 0, &[0u8; 5], WriteFlags::default()),
            Err(ZnsError::InvalidArgument(_))
        ));
    }

    #[test]
    fn recorder_sees_io_and_gc_stalls() {
        let d = ConvSsd::new(FtlConfig::small_test());
        let rec = obs::Recorder::new(256, 1);
        d.set_recorder(rec.clone(), 1);
        let data = page(3);
        let mut rng = sim::SimRng::new(5);
        for lba in 0..d.capacity_sectors() {
            d.write(SimTime::ZERO, lba, &data, WriteFlags::default())
                .unwrap();
        }
        for _ in 0..4 * d.capacity_sectors() {
            let lba = rng.gen_range(d.capacity_sectors());
            d.write(SimTime::ZERO, lba, &data, WriteFlags::default())
                .unwrap();
        }
        assert!(rec.count(obs::Counter::GcStalls) > 0, "GC never stalled");
        let evs = rec.events();
        assert!(evs
            .iter()
            .all(|e| e.device == 1 && e.stage == obs::Stage::DeviceIo));
        assert!(evs.iter().any(|e| e.op == obs::OpClass::Write));
    }

    #[test]
    fn valid_page_accounting_is_consistent() {
        let d = ConvSsd::new(FtlConfig::small_test());
        let data = page(1);
        let mut rng = sim::SimRng::new(42);
        for _ in 0..3000 {
            let lba = rng.gen_range(d.capacity_sectors());
            d.write(SimTime::ZERO, lba, &data, WriteFlags::default())
                .unwrap();
        }
        // Invariant: total valid pages across blocks == mapped L2P entries.
        let inner = d.inner.lock();
        let total_valid: u64 = inner.blocks.iter().map(|b| b.valid as u64).sum();
        let mapped = inner.l2p.iter().filter(|m| **m != NONE32).count() as u64;
        assert_eq!(total_valid, mapped);
    }
}
