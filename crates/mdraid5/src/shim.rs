//! Zone emulation over a block volume.
//!
//! The paper runs F2FS on both RAIZN (native zones) and mdraid
//! (conventional block). F2FS's sequential-logging discipline is what maps
//! zone-style IO onto the block device; [`ZonedBlockShim`] plays that role
//! here: it exposes the [`zns::ZonedVolume`] interface over any
//! [`ftl::BlockDevice`], enforcing write pointers in software and turning
//! zone resets into `TRIM`s — so the same application (the `zkv` store)
//! runs unmodified on either stack.

use ftl::BlockDevice;
use parking_lot::Mutex;
use sim::SimTime;
use std::sync::Arc;
use zns::{
    AppendCompletion, IoCompletion, Lba, Result, WriteFlags, ZnsError, ZoneGeometry, ZoneInfo,
    ZoneState, ZonedVolume,
};

/// A software zone layer over a block volume.
///
/// # Examples
///
/// ```
/// use ftl::{ConvSsd, FtlConfig};
/// use mdraid5::ZonedBlockShim;
/// use zns::{ZonedVolume, WriteFlags};
/// use sim::SimTime;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), zns::ZnsError> {
/// let dev = Arc::new(ConvSsd::new(FtlConfig::small_test()));
/// let shim = ZonedBlockShim::new(dev, 64)?;
/// let data = vec![1u8; 4096];
/// shim.write(SimTime::ZERO, 0, &data, WriteFlags::default())?;
/// shim.reset_zone(SimTime::ZERO, 0)?;
/// # Ok(())
/// # }
/// ```
pub struct ZonedBlockShim<B> {
    device: Arc<B>,
    geometry: ZoneGeometry,
    zones: Mutex<Vec<ShimZone>>,
}

#[derive(Debug, Clone, Copy)]
struct ShimZone {
    wp: u64,
    state: ZoneState,
}

impl<B: BlockDevice> ZonedBlockShim<B> {
    /// Builds a shim with `zone_sectors`-sized software zones.
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::InvalidArgument`] if the device holds less than
    /// one zone.
    pub fn new(device: Arc<B>, zone_sectors: u64) -> Result<Self> {
        if zone_sectors == 0 {
            return Err(ZnsError::InvalidArgument(
                "zone_sectors must be nonzero".to_string(),
            ));
        }
        let zones = device.capacity_sectors() / zone_sectors;
        if zones == 0 {
            return Err(ZnsError::InvalidArgument(
                "device smaller than one zone".to_string(),
            ));
        }
        let geometry = ZoneGeometry::new(zones as u32, zone_sectors, zone_sectors);
        Ok(ZonedBlockShim {
            device,
            geometry,
            zones: Mutex::new(vec![
                ShimZone {
                    wp: 0,
                    state: ZoneState::Empty
                };
                zones as usize
            ]),
        })
    }

    /// The wrapped block device.
    pub fn device(&self) -> &Arc<B> {
        &self.device
    }

    /// Writes `data` at offset `rel` of `zone` once the zone contract allows
    /// it, and moves the zone's software state only after the block device
    /// has taken the write. Returns the write's LBA.
    fn write_at(
        &self,
        at: SimTime,
        zone: u32,
        rel: Option<u64>,
        data: &[u8],
        flags: WriteFlags,
    ) -> Result<AppendCompletion> {
        let geo = self.geometry;
        let sectors = data.len() as u64 / zns::SECTOR_SIZE;
        let mut zones = self.zones.lock();
        let z = &mut zones[zone as usize];
        let rel = rel.unwrap_or(z.wp);
        z.state.check_write(&geo, zone, z.wp, rel, sectors)?;
        let lba = geo.zone_start(zone) + rel;
        let done = self.device.write(at, lba, data, flags)?.done;
        z.wp += sectors;
        z.state = z.state.after_write(z.wp, geo.zone_cap());
        Ok(AppendCompletion { lba, done })
    }
}

impl<B: BlockDevice> ZonedVolume for ZonedBlockShim<B> {
    fn geometry(&self) -> ZoneGeometry {
        self.geometry
    }

    fn read(&self, at: SimTime, lba: Lba, buf: &mut [u8]) -> Result<IoCompletion> {
        let (zone, rel, sectors) = self.geometry.check_io(lba, buf.len())?;
        let z = self.zones.lock()[zone as usize];
        z.state
            .check_read(&self.geometry, zone, z.wp, rel, sectors)?;
        self.device.read(at, lba, buf)
    }

    fn write(&self, at: SimTime, lba: Lba, data: &[u8], flags: WriteFlags) -> Result<IoCompletion> {
        let (zone, rel, _) = self.geometry.check_io(lba, data.len())?;
        let done = self.write_at(at, zone, Some(rel), data, flags)?.done;
        Ok(IoCompletion { done })
    }

    fn append(
        &self,
        at: SimTime,
        zone: u32,
        data: &[u8],
        flags: WriteFlags,
    ) -> Result<AppendCompletion> {
        self.geometry.check_append(zone, data.len())?;
        self.write_at(at, zone, None, data, flags)
    }

    fn reset_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.geometry.check_zone(zone)?;
        let mut zones = self.zones.lock();
        let z = &mut zones[zone as usize];
        let next = z.state.reset(zone)?;
        // TRIM the written extent so the FTL can drop the pages.
        let done = match z.wp {
            0 => at,
            wp => {
                self.device
                    .trim(at, self.geometry.zone_start(zone), wp)?
                    .done
            }
        };
        *z = ShimZone { wp: 0, state: next };
        Ok(IoCompletion { done })
    }

    fn finish_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.geometry.check_zone(zone)?;
        let mut zones = self.zones.lock();
        let z = &mut zones[zone as usize];
        z.state = z.state.finish(zone)?;
        Ok(IoCompletion { done: at })
    }

    fn open_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.geometry.check_zone(zone)?;
        let mut zones = self.zones.lock();
        let z = &mut zones[zone as usize];
        z.state = z.state.open(zone)?;
        Ok(IoCompletion { done: at })
    }

    fn close_zone(&self, at: SimTime, zone: u32) -> Result<IoCompletion> {
        self.geometry.check_zone(zone)?;
        let mut zones = self.zones.lock();
        let z = &mut zones[zone as usize];
        z.state = z.state.close(zone, z.wp)?;
        Ok(IoCompletion { done: at })
    }

    fn flush(&self, at: SimTime) -> Result<IoCompletion> {
        self.device.flush(at)
    }

    fn zone_info(&self, zone: u32) -> Result<ZoneInfo> {
        self.geometry.check_zone(zone)?;
        let z = self.zones.lock()[zone as usize];
        Ok(self.geometry.info(zone, z.state, z.wp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl::{ConvSsd, FtlConfig};

    fn shim() -> ZonedBlockShim<ConvSsd> {
        ZonedBlockShim::new(Arc::new(ConvSsd::new(FtlConfig::small_test())), 64).unwrap()
    }

    #[test]
    fn exposes_zone_geometry() {
        let s = shim();
        assert_eq!(s.geometry().num_zones(), 8); // 512 / 64
        assert_eq!(s.geometry().zone_cap(), 64);
    }

    #[test]
    fn enforces_sequential_writes() {
        let s = shim();
        let data = vec![0u8; 4096];
        s.write(SimTime::ZERO, 0, &data, WriteFlags::default())
            .unwrap();
        let err = s
            .write(SimTime::ZERO, 5, &data, WriteFlags::default())
            .unwrap_err();
        assert!(matches!(err, ZnsError::NotSequential { .. }));
    }

    #[test]
    fn read_write_roundtrip() {
        let s = shim();
        let data = vec![0x3Cu8; 8192];
        s.write(SimTime::ZERO, 0, &data, WriteFlags::default())
            .unwrap();
        let mut out = vec![0u8; 8192];
        s.read(SimTime::ZERO, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn reset_trims_and_reopens() {
        let s = shim();
        let data = vec![1u8; 4096];
        s.write(SimTime::ZERO, 0, &data, WriteFlags::default())
            .unwrap();
        s.reset_zone(SimTime::ZERO, 0).unwrap();
        assert_eq!(s.zone_info(0).unwrap().write_pointer, 0);
        s.write(SimTime::ZERO, 0, &data, WriteFlags::default())
            .unwrap();
    }

    #[test]
    fn append_tracks_wp() {
        let s = shim();
        let a = s
            .append(SimTime::ZERO, 1, &vec![0u8; 4096], WriteFlags::default())
            .unwrap();
        assert_eq!(a.lba, 64);
        let b = s
            .append(SimTime::ZERO, 1, &vec![0u8; 4096], WriteFlags::default())
            .unwrap();
        assert_eq!(b.lba, 65);
    }

    #[test]
    fn failed_device_write_leaves_zone_state() {
        let s = shim();
        let data = vec![0u8; 4096];
        s.write(SimTime::ZERO, 0, &data, WriteFlags::default())
            .unwrap();
        s.device().fail();
        s.write(SimTime::ZERO, 1, &data, WriteFlags::default())
            .unwrap_err();
        assert_eq!(s.zone_info(0).unwrap().write_pointer, 1);
    }

    #[test]
    fn full_zone_rejects_writes() {
        let s = shim();
        let data = vec![0u8; 64 * 4096];
        s.write(SimTime::ZERO, 0, &data, WriteFlags::default())
            .unwrap();
        let err = s
            .write(SimTime::ZERO, 0, &data[..4096], WriteFlags::default())
            .unwrap_err();
        assert!(matches!(
            err,
            ZnsError::ZoneFull { .. } | ZnsError::NotSequential { .. }
        ));
    }
}
