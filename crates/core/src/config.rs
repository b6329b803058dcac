//! RAIZN array configuration.

/// Metadata zones reserved at the start of every device (§4–5): general
/// metadata, the partial-parity log and one swap zone.
pub(crate) const MD_ZONES: u32 = 3;

/// When a logical zone holds more relocated stripe units than this on one
/// device, that device's physical zone is rewritten through a swap zone at
/// the next mount (§5.2).
pub const RELOCATION_THRESHOLD: usize = 16;

/// Configuration of a [`crate::RaiznVolume`].
///
/// The defaults mirror the paper's evaluation setup: 64 KiB stripe units
/// and single parity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaiznConfig {
    /// Stripe unit size in sectors (default 16 = 64 KiB).
    pub stripe_unit_sectors: u64,
    /// Rotating parity units per stripe: `1` (the paper's RAIZN, XOR
    /// parity P) or `2` (RAIZN-2, P plus a GF(2^8) Reed–Solomon Q —
    /// survives any two device failures). Q rotates with P: it always
    /// sits on the device after the parity device.
    pub parity: u32,
    /// Ablation: log the **full** running parity unit on every partial
    /// write instead of only the affected rows. The paper's design logs
    /// only the affected subset to minimize write amplification (§5.1);
    /// this switch quantifies that saving.
    pub pp_log_full_unit: bool,
    /// When the devices' active-zone budget is exhausted and a write
    /// needs to activate a fresh logical zone, inline-finish the most
    /// nearly full active logical zone to reclaim headroom instead of
    /// surfacing `TooManyActiveZones`. This is the *foreground* reclaim
    /// path: the triggering write eats the full finish cost (fill writes
    /// over the victim's remainder), which is exactly the write-stall
    /// cliff the `ZoneLifecycleManager` exists to prevent. Off by
    /// default; benches and tests enable it to reproduce the cliff.
    pub reclaim_on_exhaustion: bool,
}

impl Default for RaiznConfig {
    fn default() -> Self {
        RaiznConfig {
            stripe_unit_sectors: 16,
            parity: 1,
            pp_log_full_unit: false,
            reclaim_on_exhaustion: false,
        }
    }
}

impl RaiznConfig {
    /// A configuration for unit tests on [`zns::ZnsConfig::small_test`]
    /// devices (64-sector zones): 4-sector (16 KiB) stripe units.
    pub fn small_test() -> Self {
        RaiznConfig {
            stripe_unit_sectors: 4,
            ..Default::default()
        }
    }

    /// [`small_test`](Self::small_test) with dual (P+Q) parity.
    pub fn small_test_raizn2() -> Self {
        RaiznConfig {
            parity: 2,
            ..Self::small_test()
        }
    }

    /// Validates the configuration against a device geometry.
    ///
    /// # Panics
    ///
    /// Panics if the stripe unit does not divide the physical zone
    /// capacity or no data zones remain past the three metadata zones.
    pub fn validate(&self, geometry: &zns::ZoneGeometry) {
        assert!(self.stripe_unit_sectors > 0, "stripe unit must be nonzero");
        assert!(
            self.parity == 1 || self.parity == 2,
            "parity must be 1 (RAIZN) or 2 (RAIZN-2), got {}",
            self.parity
        );
        assert_eq!(
            geometry.zone_cap() % self.stripe_unit_sectors,
            0,
            "stripe unit ({}) must divide the physical zone capacity ({})",
            self.stripe_unit_sectors,
            geometry.zone_cap()
        );
        assert!(
            geometry.num_zones() > MD_ZONES,
            "no data zones left after reserving {MD_ZONES} metadata zones"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_papers() {
        let c = RaiznConfig::default();
        assert_eq!(c.stripe_unit_sectors * 4096, 64 * 1024);
        assert_eq!(c.parity, 1);
    }

    #[test]
    fn small_test_validates_against_small_device() {
        let geo = zns::ZnsConfig::small_test().geometry();
        RaiznConfig::small_test().validate(&geo);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn misaligned_stripe_unit_rejected() {
        let geo = zns::ZoneGeometry::new(8, 64, 62);
        RaiznConfig::small_test().validate(&geo);
    }

    #[test]
    #[should_panic(expected = "no data zones left")]
    fn no_data_zones_rejected() {
        let geo = zns::ZoneGeometry::new(MD_ZONES, 64, 64);
        RaiznConfig::small_test().validate(&geo);
    }
}
