//! The zoned block interface shared by physical devices and logical volumes.

use crate::geometry::{Lba, ZoneGeometry};
use crate::zone::{ZoneInfo, ZoneMgmtOp};
use crate::Result;
use sim::SimTime;

/// Per-write flags mirroring the kernel block layer's `REQ_FUA` and
/// `REQ_PREFLUSH` (§5.3 of the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteFlags {
    /// Forced unit access: the write itself must be durable before the
    /// command completes (and, per ZNS ordering, everything before it in the
    /// same zone).
    pub fua: bool,
    /// Flush all previously cached writes before performing this write.
    pub preflush: bool,
}

impl WriteFlags {
    /// Flags for a FUA write.
    pub const FUA: WriteFlags = WriteFlags {
        fua: true,
        preflush: false,
    };

    /// Flags for a preflush + FUA write (full durability barrier).
    pub const PREFLUSH_FUA: WriteFlags = WriteFlags {
        fua: true,
        preflush: true,
    };
}

/// Completion record of a read, write or management command on the virtual
/// timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoCompletion {
    /// Virtual instant at which the command completed.
    pub done: SimTime,
}

/// Completion record of a zone append, carrying the LBA the device assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendCompletion {
    /// The LBA at which the appended data was placed.
    pub lba: Lba,
    /// Virtual instant at which the command completed.
    pub done: SimTime,
}

/// A host-managed zoned block target: either one physical
/// [`ZnsDevice`](crate::ZnsDevice) or a logical volume (RAIZN) that exposes
/// the same interface — the paper's key property that "any ZNS-compatible
/// application ... can run, unmodified, on a RAIZN volume" (§4).
///
/// All operations take the virtual issue instant `at` and report the
/// completion instant; implementations must be usable from `&self` (they
/// lock internally).
pub trait ZonedVolume: Send + Sync {
    /// The zone layout of this target.
    fn geometry(&self) -> ZoneGeometry;

    /// Reads `buf.len()` bytes starting at sector `lba`.
    ///
    /// # Errors
    ///
    /// Fails if the range crosses a zone boundary, touches unwritten
    /// sectors, or the target has failed.
    fn read(&self, at: SimTime, lba: Lba, buf: &mut [u8]) -> Result<IoCompletion>;

    /// Writes `data` at sector `lba`, which must equal the zone's write
    /// pointer.
    ///
    /// # Errors
    ///
    /// Fails on non-sequential writes, full zones, open/active-zone limit
    /// exhaustion, or target failure.
    fn write(&self, at: SimTime, lba: Lba, data: &[u8], flags: WriteFlags) -> Result<IoCompletion>;

    /// Writes `segments` as one logically contiguous extent starting at
    /// sector `lba` (gather write). The default issues one sequential
    /// write per segment; volumes that benefit from large extents (RAIZN
    /// full-stripe parity) override this to stage the segments and take
    /// their batched write path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ZonedVolume::write`].
    fn write_vectored(
        &self,
        at: SimTime,
        lba: Lba,
        segments: &[&[u8]],
        flags: WriteFlags,
    ) -> Result<IoCompletion> {
        let mut done = at;
        let mut cursor = lba;
        for seg in segments {
            done = self.write(done, cursor, seg, flags)?.done;
            cursor += seg.len() as u64 / crate::SECTOR_SIZE;
        }
        Ok(IoCompletion { done })
    }

    /// Appends `data` to `zone`, returning the assigned LBA.
    ///
    /// # Errors
    ///
    /// Fails if the zone lacks capacity or cannot be opened.
    fn append(
        &self,
        at: SimTime,
        zone: u32,
        data: &[u8],
        flags: WriteFlags,
    ) -> Result<AppendCompletion>;

    /// Resets `zone` to empty.
    ///
    /// # Errors
    ///
    /// Fails on read-only/offline zones or target failure.
    fn reset_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion>;

    /// Transitions `zone` to full, ending writes until the next reset.
    ///
    /// # Errors
    ///
    /// Fails on read-only/offline zones or target failure.
    fn finish_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion>;

    /// Explicitly opens `zone`.
    ///
    /// # Errors
    ///
    /// Fails when the open/active limits are exhausted or the state
    /// transition is invalid.
    fn open_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion>;

    /// Closes an open `zone`.
    ///
    /// # Errors
    ///
    /// Fails if the zone is not open.
    fn close_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion>;

    /// Issues the zone-management command `op` against `zone`.
    ///
    /// # Errors
    ///
    /// Those of the command `op` names.
    fn manage(&self, at: SimTime, zone: u32, op: ZoneMgmtOp) -> Result<IoCompletion> {
        match op {
            ZoneMgmtOp::Open => self.open_zone(at, zone),
            ZoneMgmtOp::Close => self.close_zone(at, zone),
            ZoneMgmtOp::Finish => self.finish_zone(at, zone),
            ZoneMgmtOp::Reset => self.reset_zone(at, zone),
        }
    }

    /// Makes all cached writes durable.
    ///
    /// # Errors
    ///
    /// Fails only if the target has failed.
    fn flush(&self, at: SimTime) -> Result<IoCompletion>;

    /// Reports the state of `zone`.
    ///
    /// # Errors
    ///
    /// Fails if `zone` is out of range.
    fn zone_info(&self, zone: u32) -> Result<ZoneInfo>;

    /// Reports all zones (default: per-zone query loop).
    ///
    /// # Errors
    ///
    /// Propagates the first per-zone query failure.
    fn zone_report(&self) -> Result<Vec<ZoneInfo>> {
        (0..self.geometry().num_zones())
            .map(|z| self.zone_info(z))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_constants() {
        let (fua, pf) = (WriteFlags::FUA, WriteFlags::PREFLUSH_FUA);
        assert!(fua.fua && !fua.preflush);
        assert!(pf.fua && pf.preflush);
        assert!(!WriteFlags::default().fua);
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_v: &dyn ZonedVolume) {}
    }
}
