//! Device configuration and latency parameters.

use crate::geometry::{ZoneGeometry, SECTOR_SIZE};
use sim::SimDuration;

/// Timing parameters of the device's latency model.
///
/// A request is charged a fixed command overhead, then split into
/// `chunk_sectors`-sized pieces that occupy flash channels in parallel at a
/// per-sector cost. The defaults approximate the paper's devices (ZNS write
/// ≈ 1052 MiB/s, read ≈ 3265 MiB/s on a 2 TB ZN540).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Number of parallel flash channels.
    pub channels: usize,
    /// Ways (dies per channel). With `planes`, multiplies the channel
    /// count into `channels × ways × planes` independent service units of
    /// the occupancy model. `1` preserves the original channel-only model
    /// (and its exact timings).
    pub ways: usize,
    /// Planes per die; see [`ways`](Self::ways).
    pub planes: usize,
    /// Channel-split granularity in sectors (models internal striping of
    /// large host IOs).
    pub chunk_sectors: u64,
    /// Per-request command/firmware overhead.
    pub command_overhead: SimDuration,
    /// Per-sector read service time on a channel.
    pub read_per_sector: SimDuration,
    /// Per-sector write (program) service time on a channel.
    pub write_per_sector: SimDuration,
    /// Zone reset (erase bookkeeping) duration. Charged as an occupancy
    /// hold on the zone's die group, so a reset delays foreground IO that
    /// lands on the same flash parallelism units (ConfZNS++'s
    /// `ZONE_RESET_LATENCY` behaviour).
    pub reset: SimDuration,
    /// Base zone finish duration (bookkeeping; charged after any fill
    /// writes, see [`finish_block_sectors`](Self::finish_block_sectors)).
    pub finish: SimDuration,
    /// Fill-write granularity of zone finish, in sectors. A finish pads
    /// the unwritten remainder of the zone with block-sized program
    /// operations against the occupancy model (ConfZNS++'s
    /// `FINISH_BLOCK_SIZE` approach), so finishing an early-sealed zone
    /// costs time proportional to its unwritten capacity. `0` disables
    /// fill modeling and charges only the flat [`finish`](Self::finish)
    /// duration (the pre-realism behaviour).
    pub finish_block_sectors: u64,
    /// Cache flush duration.
    pub flush: SimDuration,
    /// Explicit zone open / close duration.
    pub zone_mgmt: SimDuration,
}

impl LatencyConfig {
    /// Timing approximating the WD ZN540 ZNS SSD used in the paper.
    ///
    /// 8 channels × 4 KiB / 29.5 µs ≈ 1.06 GiB/s writes;
    /// 8 channels × 4 KiB / 9.5 µs ≈ 3.3 GiB/s reads.
    pub fn zns_ssd() -> Self {
        LatencyConfig {
            channels: 8,
            ways: 1,
            planes: 1,
            chunk_sectors: 4,
            command_overhead: SimDuration::from_micros(16),
            read_per_sector: SimDuration::from_nanos(9_500),
            write_per_sector: SimDuration::from_nanos(29_500),
            reset: SimDuration::from_millis(3),
            finish: SimDuration::from_millis(1),
            // 64 sectors = 256 KiB, ConfZNS++'s FINISH_BLOCK_SIZE.
            finish_block_sectors: 64,
            flush: SimDuration::from_micros(400),
            zone_mgmt: SimDuration::from_micros(10),
        }
    }

    /// Timing approximating the conventional SSDs in the paper, which are
    /// 2% faster at writes and 4% faster at reads thanks to more mature
    /// firmware (§6.1).
    pub fn conventional_ssd() -> Self {
        LatencyConfig {
            read_per_sector: SimDuration::from_nanos(9_120), // ~4% faster
            write_per_sector: SimDuration::from_nanos(28_900), // ~2% faster
            // Conventional block erase; the ZNS reset bump to 3 ms models
            // zone bookkeeping on top of the erase and does not apply here.
            reset: SimDuration::from_millis(2),
            // No zones, so no fill modeling.
            finish_block_sectors: 0,
            ..Self::zns_ssd()
        }
    }

    /// Near-instantaneous timing for pure-correctness tests: reads,
    /// writes and flushes are free so data-path tests never wait, but
    /// zone finish and reset keep a small nonzero cost. Physically free
    /// zone management let tests pass against timing that no device can
    /// deliver (the "free finish" modeling bug); keeping lifecycle
    /// operations visible on the virtual clock means a test that leans on
    /// them does so knowingly.
    pub fn instant() -> Self {
        LatencyConfig {
            channels: 1,
            ways: 1,
            planes: 1,
            chunk_sectors: 1,
            command_overhead: SimDuration::ZERO,
            read_per_sector: SimDuration::ZERO,
            write_per_sector: SimDuration::ZERO,
            reset: SimDuration::from_micros(30),
            finish: SimDuration::from_micros(10),
            finish_block_sectors: 0,
            flush: SimDuration::ZERO,
            zone_mgmt: SimDuration::ZERO,
        }
    }
}

/// Full configuration of a [`crate::ZnsDevice`].
///
/// Use [`ZnsConfig::builder`] for custom layouts or one of the presets
/// ([`ZnsConfig::small_test`], [`ZnsConfig::zn540_scaled`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ZnsConfig {
    pub(crate) geometry: ZoneGeometry,
    pub(crate) max_open_zones: u32,
    pub(crate) max_active_zones: u32,
    pub(crate) latency: LatencyConfig,
    pub(crate) store_data: bool,
}

impl ZnsConfig {
    /// Starts building a configuration.
    pub fn builder() -> ZnsConfigBuilder {
        ZnsConfigBuilder::new()
    }

    /// A tiny device for unit tests: 16 zones × 64 sectors (256 KiB) zones,
    /// full capacity, 4 open / 6 active, instant timing, data stored.
    pub fn small_test() -> Self {
        ZnsConfig::builder()
            .zones(16, 64, 64)
            .open_limits(4, 6)
            .latency(LatencyConfig::instant())
            .build()
    }

    /// A ZN540-like device scaled down by `scale` (1 = full size).
    ///
    /// At scale 1 this is ~2 TB: 1900 zones with 1077 MiB capacity in a
    /// 2048 MiB (524 288-sector) envelope, 14 max open zones. At larger
    /// scales the zone count shrinks; geometry per zone is preserved so
    /// metadata overheads stay faithful.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero or leaves no zones.
    pub fn zn540_scaled(scale: u32) -> Self {
        assert!(scale > 0, "scale must be nonzero");
        let zones = 1900 / scale;
        assert!(zones > 0, "scale {scale} leaves no zones");
        ZnsConfig::builder()
            .zones(zones, 524_288, 275_712) // 2048 MiB size, 1077 MiB cap
            .open_limits(14, 28)
            .latency(LatencyConfig::zns_ssd())
            .store_data(false)
            .build()
    }

    /// The device geometry.
    pub fn geometry(&self) -> ZoneGeometry {
        self.geometry
    }

    /// Maximum simultaneously open zones.
    pub fn max_open_zones(&self) -> u32 {
        self.max_open_zones
    }

    /// Maximum simultaneously active zones.
    pub fn max_active_zones(&self) -> u32 {
        self.max_active_zones
    }

    /// The latency model parameters.
    pub fn latency(&self) -> &LatencyConfig {
        &self.latency
    }

    /// Whether payload bytes are stored (false = accounting-only mode for
    /// large performance experiments).
    pub fn stores_data(&self) -> bool {
        self.store_data
    }
}

/// Builder for [`ZnsConfig`].
///
/// # Examples
///
/// ```
/// use zns::{ZnsConfig, LatencyConfig};
/// let cfg = ZnsConfig::builder()
///     .zones(32, 256, 192)
///     .open_limits(8, 12)
///     .latency(LatencyConfig::instant())
///     .build();
/// assert_eq!(cfg.geometry().num_zones(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct ZnsConfigBuilder {
    num_zones: u32,
    zone_size: u64,
    zone_cap: u64,
    max_open_zones: u32,
    max_active_zones: u32,
    latency: LatencyConfig,
    store_data: bool,
}

impl Default for ZnsConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ZnsConfigBuilder {
    /// Creates a builder with small-test defaults.
    pub fn new() -> Self {
        ZnsConfigBuilder {
            num_zones: 16,
            zone_size: 64,
            zone_cap: 64,
            max_open_zones: 4,
            max_active_zones: 6,
            latency: LatencyConfig::instant(),
            store_data: true,
        }
    }

    /// Sets the zone layout: `num` zones of `size` sectors with `cap`
    /// writable sectors.
    pub fn zones(&mut self, num: u32, size: u64, cap: u64) -> &mut Self {
        self.num_zones = num;
        self.zone_size = size;
        self.zone_cap = cap;
        self
    }

    /// Sets the open/active zone limits.
    pub fn open_limits(&mut self, open: u32, active: u32) -> &mut Self {
        self.max_open_zones = open;
        self.max_active_zones = active;
        self
    }

    /// Sets the latency model.
    pub fn latency(&mut self, latency: LatencyConfig) -> &mut Self {
        self.latency = latency;
        self
    }

    /// Chooses whether payload bytes are stored.
    pub fn store_data(&mut self, store: bool) -> &mut Self {
        self.store_data = store;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry or zero limits (`max_active` must be at
    /// least `max_open`).
    pub fn build(&self) -> ZnsConfig {
        let geometry = ZoneGeometry::new(self.num_zones, self.zone_size, self.zone_cap);
        assert!(self.max_open_zones > 0, "max_open_zones must be nonzero");
        assert!(
            self.max_active_zones >= self.max_open_zones,
            "max_active_zones ({}) must be >= max_open_zones ({})",
            self.max_active_zones,
            self.max_open_zones
        );
        assert!(
            self.latency.channels > 0,
            "latency.channels must be nonzero"
        );
        assert!(
            self.latency.ways > 0 && self.latency.planes > 0,
            "latency.ways and latency.planes must be nonzero"
        );
        assert!(
            self.latency.chunk_sectors > 0,
            "latency.chunk_sectors must be nonzero"
        );
        ZnsConfig {
            geometry,
            max_open_zones: self.max_open_zones,
            max_active_zones: self.max_active_zones,
            latency: self.latency.clone(),
            store_data: self.store_data,
        }
    }
}

/// Returns the number of bytes for `sectors` sectors.
pub(crate) fn sectors_to_bytes(sectors: u64) -> usize {
    (sectors * SECTOR_SIZE) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_build() {
        let cfg = ZnsConfig::builder().build();
        assert_eq!(cfg.geometry().num_zones(), 16);
        assert!(cfg.stores_data());
    }

    #[test]
    fn presets_are_sane() {
        let t = ZnsConfig::small_test();
        assert_eq!(t.max_open_zones(), 4);
        let z = ZnsConfig::zn540_scaled(100);
        assert_eq!(z.geometry().num_zones(), 19);
        assert_eq!(z.max_open_zones(), 14);
        assert!(!z.stores_data());
        // 1077 MiB capacity in sectors
        assert_eq!(z.geometry().zone_cap() * SECTOR_SIZE, 1077 * 1024 * 1024);
    }

    #[test]
    fn lifecycle_costs_are_never_free() {
        let t = LatencyConfig::instant();
        assert!(t.finish > SimDuration::ZERO, "finish must cost time");
        assert!(t.reset > SimDuration::ZERO, "reset must cost time");
        let z = LatencyConfig::zns_ssd();
        assert_eq!(z.finish_block_sectors, 64); // 256 KiB fill blocks
        assert_eq!(z.reset, SimDuration::from_millis(3));
        // Conventional SSDs have no zones: flat costs only.
        assert_eq!(LatencyConfig::conventional_ssd().finish_block_sectors, 0);
    }

    #[test]
    fn conventional_is_faster() {
        let z = LatencyConfig::zns_ssd();
        let c = LatencyConfig::conventional_ssd();
        assert!(c.read_per_sector < z.read_per_sector);
        assert!(c.write_per_sector < z.write_per_sector);
    }

    #[test]
    #[should_panic(expected = "max_active_zones")]
    fn active_below_open_rejected() {
        ZnsConfig::builder().open_limits(8, 4).build();
    }
}
