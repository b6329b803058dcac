//! Address-space geometry shared by zoned devices and volumes, and the
//! zone contract's argument rules (DESIGN.md "Zone contract").

use crate::error::ZnsError;
use crate::zone::{ZoneInfo, ZoneState};
use crate::Result;

/// A logical block address, i.e. a sector index into a device or volume.
pub type Lba = u64;

/// Sector (logical block) size in bytes. The evaluation devices in the
/// paper are formatted with 4 KiB sectors; every LBA in this repository
/// addresses one 4 KiB sector.
pub const SECTOR_SIZE: u64 = 4096;

/// The zone layout of a device or logical volume.
///
/// `zone_size` is the address-space stride between zone starts and
/// `zone_cap` is the writable capacity (the ZN540 exposes 2048 MiB-stride
/// zones with 1077 MiB usable capacity).
///
/// # Examples
///
/// ```
/// use zns::ZoneGeometry;
/// let geo = ZoneGeometry::new(8, 256, 192);
/// assert_eq!(geo.zone_of(300), 1);
/// assert_eq!(geo.zone_start(1), 256);
/// assert!(geo.contains(300));
/// assert_eq!(geo.total_sectors(), 8 * 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ZoneGeometry {
    num_zones: u32,
    zone_size: u64,
    zone_cap: u64,
}

impl ZoneGeometry {
    /// Creates a geometry of `num_zones` zones with `zone_size` sectors of
    /// address space and `zone_cap` writable sectors each.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero or if `zone_cap > zone_size`.
    pub fn new(num_zones: u32, zone_size: u64, zone_cap: u64) -> Self {
        assert!(num_zones > 0, "geometry requires at least one zone");
        assert!(zone_size > 0, "zone_size must be nonzero");
        assert!(
            (1..=zone_size).contains(&zone_cap),
            "zone_cap must be in 1..=zone_size (cap={zone_cap}, size={zone_size})"
        );
        ZoneGeometry {
            num_zones,
            zone_size,
            zone_cap,
        }
    }

    /// Number of zones.
    pub fn num_zones(&self) -> u32 {
        self.num_zones
    }

    /// Address-space sectors per zone.
    pub fn zone_size(&self) -> u64 {
        self.zone_size
    }

    /// Writable sectors per zone.
    pub fn zone_cap(&self) -> u64 {
        self.zone_cap
    }

    /// Sector size in bytes (fixed at [`SECTOR_SIZE`]).
    pub fn sector_size(&self) -> u64 {
        SECTOR_SIZE
    }

    /// Total address-space sectors (including unwritable cap/size gaps).
    pub fn total_sectors(&self) -> u64 {
        self.num_zones as u64 * self.zone_size
    }

    /// Total writable sectors.
    pub fn usable_sectors(&self) -> u64 {
        self.num_zones as u64 * self.zone_cap
    }

    /// Total writable bytes.
    pub fn usable_bytes(&self) -> u64 {
        self.usable_sectors() * SECTOR_SIZE
    }

    /// The zone containing `lba`.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is beyond the address space.
    pub fn zone_of(&self, lba: Lba) -> u32 {
        assert!(
            self.contains(lba),
            "lba {lba} out of range ({} zones of {})",
            self.num_zones,
            self.zone_size
        );
        (lba / self.zone_size) as u32
    }

    /// First LBA of `zone`.
    ///
    /// # Panics
    ///
    /// Panics if `zone >= num_zones`.
    pub fn zone_start(&self, zone: u32) -> Lba {
        assert!(zone < self.num_zones, "zone {zone} out of range");
        zone as u64 * self.zone_size
    }

    /// One past the last writable LBA of `zone`.
    pub fn zone_cap_end(&self, zone: u32) -> Lba {
        self.zone_start(zone) + self.zone_cap
    }

    /// Offset of `lba` within its zone.
    pub fn offset_in_zone(&self, lba: Lba) -> u64 {
        lba % self.zone_size
    }

    /// Whether `lba` is inside the address space.
    pub fn contains(&self, lba: Lba) -> bool {
        lba < self.total_sectors()
    }

    /// Whether the sector range `[lba, lba + sectors)` lies within a single
    /// zone's writable capacity.
    pub fn range_in_one_zone(&self, lba: Lba, sectors: u64) -> bool {
        if sectors == 0 || !self.contains(lba) {
            return false;
        }
        let zone = (lba / self.zone_size) as u32;
        lba + sectors <= self.zone_cap_end(zone)
    }

    /// Zone contract: `zone` names one of this geometry's zones.
    ///
    /// # Errors
    ///
    /// [`ZnsError::OutOfRange`] at the zone's would-be start.
    pub fn check_zone(&self, zone: u32) -> Result<()> {
        if zone >= self.num_zones {
            return Err(ZnsError::OutOfRange {
                lba: u64::from(zone) * self.zone_size,
                sectors: 0,
            });
        }
        Ok(())
    }

    /// Zone contract: the arguments of a read or write of `bytes` at `lba`
    /// — a positive whole number of sectors, inside the address space,
    /// inside one zone. Returns the zone, the offset in it and the length
    /// in sectors.
    ///
    /// # Errors
    ///
    /// [`ZnsError::InvalidArgument`], then [`ZnsError::OutOfRange`], then
    /// [`ZnsError::ZoneBoundary`].
    pub fn check_io(&self, lba: Lba, bytes: usize) -> Result<(u32, u64, u64)> {
        let sectors = sectors_of(bytes)?;
        if !self.contains(lba) {
            return Err(ZnsError::OutOfRange { lba, sectors });
        }
        let rel = self.offset_in_zone(lba);
        if rel + sectors > self.zone_size {
            return Err(ZnsError::ZoneBoundary { lba, sectors });
        }
        Ok(((lba / self.zone_size) as u32, rel, sectors))
    }

    /// Zone contract: the arguments of an append of `bytes` to `zone`.
    /// Returns the length in sectors; where it lands is the zone state's
    /// [`check_write`](ZoneState::check_write) at the write pointer.
    ///
    /// # Errors
    ///
    /// [`ZnsError::OutOfRange`], then [`ZnsError::InvalidArgument`].
    pub fn check_append(&self, zone: u32, bytes: usize) -> Result<u64> {
        self.check_zone(zone)?;
        sectors_of(bytes)
    }

    /// The zone report entry of `zone` in `state` with its write pointer
    /// `wp` sectors past the zone start.
    pub fn info(&self, zone: u32, state: ZoneState, wp: u64) -> ZoneInfo {
        let start = self.zone_start(zone);
        ZoneInfo {
            zone,
            state,
            start,
            write_pointer: start + wp,
            capacity: self.zone_cap,
        }
    }
}

fn sectors_of(bytes: usize) -> Result<u64> {
    if bytes == 0 || !bytes.is_multiple_of(SECTOR_SIZE as usize) {
        return Err(ZnsError::InvalidArgument(format!(
            "buffer length {bytes} is not a positive multiple of the sector size"
        )));
    }
    Ok(bytes as u64 / SECTOR_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_math() {
        let g = ZoneGeometry::new(4, 100, 80);
        assert_eq!(g.zone_of(0), 0);
        assert_eq!(g.zone_of(99), 0);
        assert_eq!(g.zone_of(100), 1);
        assert_eq!(g.zone_start(3), 300);
        assert_eq!(g.zone_cap_end(0), 80);
        assert_eq!(g.offset_in_zone(205), 5);
        assert_eq!(g.total_sectors(), 400);
        assert_eq!(g.usable_sectors(), 320);
        assert_eq!(g.usable_bytes(), 320 * SECTOR_SIZE);
    }

    #[test]
    fn range_checks() {
        let g = ZoneGeometry::new(2, 100, 80);
        assert!(g.range_in_one_zone(0, 80));
        assert!(!g.range_in_one_zone(0, 81)); // exceeds cap
        assert!(!g.range_in_one_zone(79, 2)); // crosses into cap gap
        assert!(g.range_in_one_zone(100, 80));
        assert!(!g.range_in_one_zone(0, 0)); // empty
        assert!(!g.range_in_one_zone(400, 1)); // out of range
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zone_of_out_of_range_panics() {
        ZoneGeometry::new(1, 10, 10).zone_of(10);
    }

    #[test]
    #[should_panic(expected = "zone_cap must be")]
    fn cap_larger_than_size_rejected() {
        ZoneGeometry::new(1, 10, 11);
    }
}
