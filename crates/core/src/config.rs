//! RAIZN array configuration.

/// Configuration of a [`crate::RaiznVolume`].
///
/// The defaults mirror the paper's evaluation setup: 64 KiB stripe units,
/// 3 reserved metadata zones per device (general metadata, partial-parity
/// log, one swap zone).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaiznConfig {
    /// Stripe unit size in sectors (default 16 = 64 KiB).
    pub stripe_unit_sectors: u64,
    /// Rotating parity units per stripe: `1` (the paper's RAIZN, XOR
    /// parity P) or `2` (RAIZN-2, P plus a GF(2^8) Reed–Solomon Q —
    /// survives any two device failures). Q rotates with P: it always
    /// sits on the device after the parity device.
    pub parity: u32,
    /// Metadata zones reserved at the start of every device (>= 3:
    /// general + partial-parity + at least one swap zone).
    pub md_zones_per_device: u32,
    /// When a logical zone accumulates more relocated stripe units than
    /// this, its physical zones are rewritten through a swap zone at the
    /// next mount.
    pub relocation_threshold: usize,
    /// Ablation: log the **full** running parity unit on every partial
    /// write instead of only the affected rows. The paper's design logs
    /// only the affected subset to minimize write amplification (§5.1);
    /// this switch quantifies that saving.
    pub pp_log_full_unit: bool,
    /// Extension (§5.4): use each device's Zone Random Write Area for
    /// in-place partial-parity updates instead of the partial-parity log.
    /// Requires devices built with `ZnsConfig::builder().zrwa(su)` where
    /// `su >= stripe_unit_sectors`. Uncommitted window contents are
    /// volatile in this model, so crash recovery of the final stripe falls
    /// back to data-extent rollback (a power-protected ZRWA would retain
    /// the paper's stronger guarantee).
    pub use_zrwa: bool,
    /// Ablation: model the §5.4 "logical block metadata" optimization —
    /// the 4 KiB metadata header travels in per-block metadata descriptors
    /// instead of a dedicated header sector, removing one sector of write
    /// amplification from every log append.
    pub lb_metadata_headers: bool,
    /// When the devices' active-zone budget is exhausted and a write
    /// needs to activate a fresh logical zone, inline-finish the most
    /// nearly full active logical zone to reclaim headroom instead of
    /// surfacing `TooManyActiveZones`. This is the *foreground* reclaim
    /// path: the triggering write eats the full finish cost (fill writes
    /// over the victim's remainder), which is exactly the write-stall
    /// cliff the `ZoneLifecycleManager` exists to prevent. Off by
    /// default; benches and tests enable it to reproduce the cliff.
    pub reclaim_on_exhaustion: bool,
    /// How many times a transient (injected) device error is retried
    /// before the command is declared failed and counted against the
    /// device's error budget.
    pub transient_retry_limit: u32,
    /// Unrecovered errors (retry-exhausted transients and latent media
    /// errors) a single device may accumulate before the array
    /// auto-degrades it, exactly as if `fail_device` had been called.
    pub device_error_budget: u64,
}

impl Default for RaiznConfig {
    fn default() -> Self {
        RaiznConfig {
            stripe_unit_sectors: 16,
            parity: 1,
            md_zones_per_device: 3,
            relocation_threshold: 16,
            pp_log_full_unit: false,
            use_zrwa: false,
            lb_metadata_headers: false,
            reclaim_on_exhaustion: false,
            transient_retry_limit: zns::array::TRANSIENT_RETRY_LIMIT,
            device_error_budget: zns::array::DEVICE_ERROR_BUDGET,
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
    /// capacity, fewer than 3 metadata zones are reserved, or no data
    /// zones remain.
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
            self.md_zones_per_device >= 3,
            "RAIZN reserves at least 3 metadata zones per device (got {})",
            self.md_zones_per_device
        );
        assert!(
            geometry.num_zones() > self.md_zones_per_device,
            "no data zones left after reserving {} metadata zones",
            self.md_zones_per_device
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
        assert_eq!(c.md_zones_per_device, 3);
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
    #[should_panic(expected = "at least 3 metadata zones")]
    fn too_few_md_zones_rejected() {
        let geo = zns::ZnsConfig::small_test().geometry();
        let mut c = RaiznConfig::small_test();
        c.md_zones_per_device = 2;
        c.validate(&geo);
    }
}
