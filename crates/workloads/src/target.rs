//! Target adapters: one IO interface over zoned and block volumes.

use sim::SimTime;
use std::sync::Arc;
use zns::{Lba, Result, WriteFlags, ZonedVolume, SECTOR_SIZE};

/// A benchmark target exposing a dense linear address space.
///
/// Zoned targets translate the dense space to zone-structured LBAs and
/// insert zone resets when a region is overwritten (like F2FS or fio's
/// zonemode=zbd); block targets pass through.
pub trait IoTarget: Send + Sync {
    /// Usable capacity in sectors (dense, gap-free).
    fn capacity_sectors(&self) -> u64;

    /// Reads `buf.len()` bytes at dense offset `off` (sectors).
    ///
    /// # Errors
    ///
    /// Propagates target IO failures.
    fn read(&self, at: SimTime, off: u64, buf: &mut [u8]) -> Result<SimTime>;

    /// Writes `data` at dense offset `off`, resetting the underlying zone
    /// first when the write re-enters a previously written zone at its
    /// start (overwrite semantics for zoned targets).
    ///
    /// # Errors
    ///
    /// Propagates target IO failures.
    fn write(&self, at: SimTime, off: u64, data: &[u8]) -> Result<SimTime>;

    /// Writes `segments` as one contiguous extent at dense offset `off`
    /// (gather write, used by coalescing schedulers). The default issues
    /// one sequential write per segment; zoned targets forward to the
    /// volume's batched path so full-stripe batches earn full-parity
    /// writes.
    ///
    /// # Errors
    ///
    /// Propagates target IO failures.
    fn write_vectored(&self, at: SimTime, off: u64, segments: &[&[u8]]) -> Result<SimTime> {
        let mut done = at;
        let mut cursor = off;
        for seg in segments {
            done = self.write(done, cursor, seg)?;
            cursor += seg.len() as u64 / SECTOR_SIZE;
        }
        Ok(done)
    }

    /// Makes everything durable.
    ///
    /// # Errors
    ///
    /// Propagates target IO failures.
    fn flush(&self, at: SimTime) -> Result<SimTime>;

    /// Executes a zone-management operation against `zone` (used by
    /// schedulers dispatching background lifecycle IO). Block targets
    /// have no zones; the default is a free no-op.
    ///
    /// # Errors
    ///
    /// Propagates target IO failures.
    fn manage_zone(&self, at: SimTime, zone: u32, op: zns::ZoneMgmtOp) -> Result<SimTime> {
        let _ = (zone, op);
        Ok(at)
    }

    /// Largest IO (sectors) that may start at dense offset `off` without
    /// crossing an internal boundary (zone capacity for zoned targets).
    fn max_io_at(&self, off: u64) -> u64;
}

/// Adapter for host-managed zoned volumes ([`ZonedVolume`]): RAIZN arrays
/// and raw ZNS devices.
///
/// Dense offset `z * zone_cap + o` maps to LBA `zone_start(z) + o`.
pub struct ZonedTarget<V> {
    volume: Arc<V>,
    auto_reset: bool,
}

impl<V: ZonedVolume> ZonedTarget<V> {
    /// Wraps a zoned volume.
    pub fn new(volume: Arc<V>) -> Self {
        ZonedTarget {
            volume,
            auto_reset: true,
        }
    }

    /// Wraps a volume with relaxed write semantics (a log-structured
    /// engine that remaps overwrites internally): re-entering a zone at
    /// offset 0 is a plain overwrite, never an implicit reset.
    pub fn overwriting(volume: Arc<V>) -> Self {
        ZonedTarget {
            volume,
            auto_reset: false,
        }
    }

    /// The wrapped volume.
    pub fn volume(&self) -> &Arc<V> {
        &self.volume
    }

    fn locate(&self, off: u64) -> (u32, u64) {
        let cap = self.volume.geometry().zone_cap();
        ((off / cap) as u32, off % cap)
    }

    fn to_lba(&self, off: u64) -> Lba {
        let (z, o) = self.locate(off);
        self.volume.geometry().zone_start(z) + o
    }

    /// Where a write at dense offset `off` re-enters a zone at its start,
    /// resets the zone first if it holds data (sequential-overwrite
    /// semantics). Returns when the write may issue.
    fn reset_on_reentry(&self, at: SimTime, off: u64) -> Result<SimTime> {
        let (zone, zoff) = self.locate(off);
        if !self.auto_reset || zoff != 0 {
            return Ok(at);
        }
        let info = self.volume.zone_info(zone)?;
        if info.write_pointer == info.start {
            return Ok(at);
        }
        Ok(self.volume.reset_zone(at, zone)?.done)
    }
}

impl<V: ZonedVolume> IoTarget for ZonedTarget<V> {
    fn capacity_sectors(&self) -> u64 {
        let g = self.volume.geometry();
        g.num_zones() as u64 * g.zone_cap()
    }

    fn read(&self, at: SimTime, off: u64, buf: &mut [u8]) -> Result<SimTime> {
        Ok(self.volume.read(at, self.to_lba(off), buf)?.done)
    }

    fn write(&self, at: SimTime, off: u64, data: &[u8]) -> Result<SimTime> {
        let t = self.reset_on_reentry(at, off)?;
        Ok(self
            .volume
            .write(t, self.to_lba(off), data, WriteFlags::default())?
            .done)
    }

    fn write_vectored(&self, at: SimTime, off: u64, segments: &[&[u8]]) -> Result<SimTime> {
        let t = self.reset_on_reentry(at, off)?;
        Ok(self
            .volume
            .write_vectored(t, self.to_lba(off), segments, WriteFlags::default())?
            .done)
    }

    fn flush(&self, at: SimTime) -> Result<SimTime> {
        Ok(self.volume.flush(at)?.done)
    }

    fn manage_zone(&self, at: SimTime, zone: u32, op: zns::ZoneMgmtOp) -> Result<SimTime> {
        Ok(self.volume.manage(at, zone, op)?.done)
    }

    fn max_io_at(&self, off: u64) -> u64 {
        let cap = self.volume.geometry().zone_cap();
        cap - (off % cap)
    }
}

/// Adapter for random-write block volumes ([`ftl::BlockDevice`]): mdraid
/// arrays and raw conventional SSDs.
pub struct BlockTarget<B> {
    device: Arc<B>,
}

impl<B: ftl::BlockDevice> BlockTarget<B> {
    /// Wraps a block device or volume.
    pub fn new(device: Arc<B>) -> Self {
        BlockTarget { device }
    }

    /// The wrapped device.
    pub fn device(&self) -> &Arc<B> {
        &self.device
    }
}

impl<B: ftl::BlockDevice> IoTarget for BlockTarget<B> {
    fn capacity_sectors(&self) -> u64 {
        self.device.capacity_sectors()
    }

    fn read(&self, at: SimTime, off: u64, buf: &mut [u8]) -> Result<SimTime> {
        Ok(self.device.read(at, off, buf)?.done)
    }

    fn write(&self, at: SimTime, off: u64, data: &[u8]) -> Result<SimTime> {
        Ok(self
            .device
            .write(at, off, data, WriteFlags::default())?
            .done)
    }

    fn flush(&self, at: SimTime) -> Result<SimTime> {
        Ok(self.device.flush(at)?.done)
    }

    fn max_io_at(&self, off: u64) -> u64 {
        self.device.capacity_sectors() - off
    }
}

/// Convenience: a zero-filled sector-aligned buffer.
pub(crate) fn io_buffer(sectors: u64) -> Vec<u8> {
    vec![0u8; (sectors * SECTOR_SIZE) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl::{ConvSsd, FtlConfig};
    use zns::{ZnsConfig, ZnsDevice};

    #[test]
    fn zoned_target_dense_mapping() {
        let dev = Arc::new(ZnsDevice::new(
            ZnsConfig::builder().zones(4, 64, 48).build(),
        ));
        let t = ZonedTarget::new(dev);
        assert_eq!(t.capacity_sectors(), 4 * 48);
        // Dense offset 48 is the start of zone 1 = LBA 64.
        assert_eq!(t.to_lba(48), 64);
        assert_eq!(t.max_io_at(40), 8);
    }

    #[test]
    fn zoned_target_overwrite_resets_zone() {
        let dev = Arc::new(ZnsDevice::new(ZnsConfig::small_test()));
        let t = ZonedTarget::new(dev.clone());
        let buf = io_buffer(64);
        t.write(SimTime::ZERO, 0, &buf).unwrap();
        // Second pass over the same zone: allowed because the target
        // resets the zone.
        t.write(SimTime::ZERO, 0, &buf).unwrap();
        assert_eq!(dev.stats().zone_resets, 1);
    }

    #[test]
    fn block_target_passthrough() {
        let dev = Arc::new(ConvSsd::new(FtlConfig::small_test()));
        let t = BlockTarget::new(dev);
        let mut buf = io_buffer(1);
        t.write(SimTime::ZERO, 5, &buf).unwrap();
        t.read(SimTime::ZERO, 5, &mut buf).unwrap();
        t.flush(SimTime::ZERO).unwrap();
        assert_eq!(t.max_io_at(0), t.capacity_sectors());
    }
}
