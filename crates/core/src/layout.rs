//! RAIZN address arithmetic: logical zones, stripes and parity rotation.
//!
//! The paper's §4.1 layout: physical zones `0..M` of every device are
//! metadata zones; data zone `M + z` of every device together form
//! **logical zone z**. Within a logical zone, data is striped in
//! `stripe_unit` chunks with one parity unit per stripe; the parity device
//! rotates every stripe *and* every zone (the per-zone rotation also
//! spreads the zone-reset WAL write amplification, §5.2).
//!
//! RAIZN-2 (`parity = 2`) adds a second rotating parity column Q — a
//! GF(2^8) Reed–Solomon code word over the data units ([`sim::gf`]) —
//! on the device immediately after the P device, so the P/Q pair rotates
//! as one and any two device failures are survivable. Data unit `k` then
//! starts at `P + 2` instead of `P + 1`.

use crate::config::{RaiznConfig, MD_ZONES};
use zns::{Lba, ZoneGeometry};

/// Address arithmetic for a RAIZN array.
///
/// # Examples
///
/// ```
/// use raizn::{RaiznConfig, RaiznLayout};
/// let layout = RaiznLayout::new(5, RaiznConfig::small_test(),
///                               zns::ZnsConfig::small_test().geometry());
/// // 4 data units of 4 sectors per stripe.
/// assert_eq!(layout.stripe_data_sectors(), 16);
/// // The parity device differs from every data device of the same stripe.
/// let p = layout.parity_device(0, 0);
/// for k in 0..4 {
///     assert_ne!(layout.data_device(0, 0, k), p);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaiznLayout {
    n: u32,
    su: u64,
    parity: u32,
    phys: ZoneGeometry,
}

impl RaiznLayout {
    /// Builds the layout for `n` devices with physical geometry `phys`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two data units remain (`n < parity + 2`) or
    /// the configuration fails validation.
    pub fn new(n: u32, config: RaiznConfig, phys: ZoneGeometry) -> Self {
        config.validate(&phys);
        assert!(
            n >= config.parity + 2,
            "RAIZN requires at least {} devices with parity = {} (got {n})",
            config.parity + 2,
            config.parity
        );
        RaiznLayout {
            n,
            su: config.stripe_unit_sectors,
            parity: config.parity,
            phys,
        }
    }

    /// Number of array devices (data + parity).
    pub fn devices(&self) -> u32 {
        self.n
    }

    /// Rotating parity units per stripe (1 = P only, 2 = P + Q).
    pub fn parity_units(&self) -> u32 {
        self.parity
    }

    /// Data stripe units per stripe (`devices - parity_units`).
    pub fn data_units(&self) -> u64 {
        (self.n - self.parity) as u64
    }

    /// Stripe unit size in sectors.
    pub fn stripe_unit(&self) -> u64 {
        self.su
    }

    /// Logical sectors covered by one stripe (`data_units * stripe_unit`).
    pub fn stripe_data_sectors(&self) -> u64 {
        self.data_units() * self.su
    }

    /// The physical device geometry.
    pub fn phys_geometry(&self) -> ZoneGeometry {
        self.phys
    }

    /// Number of logical zones.
    pub fn logical_zones(&self) -> u32 {
        self.phys.num_zones() - MD_ZONES
    }

    /// Stripes per logical zone.
    pub fn stripes_per_zone(&self) -> u64 {
        self.phys.zone_cap() / self.su
    }

    /// The geometry of the exposed logical volume: each logical zone spans
    /// `data_units` physical zones' worth of address space and capacity.
    pub fn logical_geometry(&self) -> ZoneGeometry {
        ZoneGeometry::new(
            self.logical_zones(),
            self.data_units() * self.phys.zone_size(),
            self.data_units() * self.phys.zone_cap(),
        )
    }

    /// The physical zone index backing logical zone `lzone` (same on every
    /// device).
    pub fn phys_zone(&self, lzone: u32) -> u32 {
        debug_assert!(lzone < self.logical_zones());
        lzone + MD_ZONES
    }

    /// The device holding the (P) parity unit of `stripe` in `lzone`.
    /// Rotates per stripe and per zone.
    pub fn parity_device(&self, lzone: u32, stripe: u64) -> u32 {
        ((lzone as u64 + stripe) % self.n as u64) as u32
    }

    /// The device holding the Q (Reed–Solomon) parity unit of `stripe`
    /// in `lzone`, or `None` in single-parity mode. Q always sits on the
    /// device after P, so the P/Q pair rotates as one.
    pub fn q_device(&self, lzone: u32, stripe: u64) -> Option<u32> {
        if self.parity < 2 {
            return None;
        }
        let p = self.parity_device(lzone, stripe) as u64;
        Some(((p + 1) % self.n as u64) as u32)
    }

    /// The device holding data unit `k` of `stripe` in `lzone`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `k` is out of range.
    pub fn data_device(&self, lzone: u32, stripe: u64, k: u64) -> u32 {
        debug_assert!(k < self.data_units(), "data unit index out of range");
        let p = self.parity_device(lzone, stripe) as u64;
        ((p + self.parity as u64 + k) % self.n as u64) as u32
    }

    /// The inverse of [`data_device`](Self::data_device): which data unit
    /// index (or parity) device `dev` holds for `stripe` of `lzone`.
    /// Returns `None` when `dev` holds P or Q parity.
    pub fn unit_of_device(&self, lzone: u32, stripe: u64, dev: u32) -> Option<u64> {
        let p = self.parity_device(lzone, stripe);
        let n = self.n as u64;
        let k = (dev as u64 + n - p as u64) % n;
        if k < self.parity as u64 {
            return None; // k == 0 is P itself, k == 1 is Q in dual mode.
        }
        Some(k - self.parity as u64)
    }

    /// Sectors the slot `dev` holds for `stripe` of `lzone` must contain
    /// when the zone's logical fill is `fill` sectors: a data slot holds
    /// its share of the stripe's fill, a parity slot (P or Q) holds a full
    /// unit once the stripe is complete and nothing before.
    pub fn slot_extent(&self, lzone: u32, stripe: u64, dev: u32, fill: u64) -> u64 {
        let stripe_data = self.stripe_data_sectors();
        let stripe_fill = fill.saturating_sub(stripe * stripe_data).min(stripe_data);
        match self.unit_of_device(lzone, stripe, dev) {
            Some(k) => stripe_fill.saturating_sub(k * self.su).min(self.su),
            None if stripe_fill == stripe_data => self.su,
            None => 0,
        }
    }

    /// PBA (on whichever device) of `stripe`'s units within the backing
    /// physical zone of `lzone`: every unit of stripe `s` lives at the same
    /// per-device offset `s * stripe_unit`.
    pub fn stripe_pba(&self, lzone: u32, stripe: u64) -> Lba {
        self.phys.zone_start(self.phys_zone(lzone)) + stripe * self.su
    }

    /// Decomposes a logical LBA into `(logical zone, stripe, data unit,
    /// offset within unit)`.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is outside the logical address space or addresses
    /// the unwritable cap..size gap of a logical zone.
    pub fn locate(&self, lba: Lba) -> Location {
        let lgeo = self.logical_geometry();
        let lzone = lgeo.zone_of(lba);
        let off = lgeo.offset_in_zone(lba);
        assert!(
            off < lgeo.zone_cap(),
            "lba {lba} addresses the unwritable tail of logical zone {lzone}"
        );
        let stripe = off / self.stripe_data_sectors();
        let within_stripe = off % self.stripe_data_sectors();
        let unit = within_stripe / self.su;
        let within_unit = within_stripe % self.su;
        Location {
            lzone,
            stripe,
            unit,
            within_unit,
        }
    }

    /// Recomposes a [`Location`] into a logical LBA.
    pub fn lba_of(&self, loc: Location) -> Lba {
        self.logical_geometry().zone_start(loc.lzone)
            + loc.stripe * self.stripe_data_sectors()
            + loc.unit * self.su
            + loc.within_unit
    }

    /// The device and device-PBA of a located sector.
    pub fn device_pba(&self, loc: Location) -> (u32, Lba) {
        let dev = self.data_device(loc.lzone, loc.stripe, loc.unit);
        let pba = self.stripe_pba(loc.lzone, loc.stripe) + loc.within_unit;
        (dev, pba)
    }
}

/// A decomposed logical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// Logical zone index.
    pub lzone: u32,
    /// Stripe index within the zone.
    pub stripe: u64,
    /// Data unit index within the stripe.
    pub unit: u64,
    /// Sector offset within the unit.
    pub within_unit: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn layout() -> RaiznLayout {
        RaiznLayout::new(
            5,
            RaiznConfig::small_test(),
            zns::ZnsConfig::small_test().geometry(),
        )
    }

    #[test]
    fn logical_geometry_math() {
        let l = layout();
        let g = l.logical_geometry();
        // 16 phys zones - 3 md = 13 logical zones.
        assert_eq!(g.num_zones(), 13);
        // 4 data units * 64-sector zones.
        assert_eq!(g.zone_cap(), 256);
        assert_eq!(l.stripes_per_zone(), 16);
    }

    #[test]
    fn parity_rotates_per_stripe_and_zone() {
        let l = layout();
        // Within a zone, 5 consecutive stripes use 5 distinct parity devs.
        let mut devs: Vec<u32> = (0..5).map(|s| l.parity_device(0, s)).collect();
        devs.sort_unstable();
        assert_eq!(devs, vec![0, 1, 2, 3, 4]);
        // Zone rotation: stripe 0 parity differs across consecutive zones.
        assert_ne!(l.parity_device(0, 0), l.parity_device(1, 0));
    }

    #[test]
    fn unit_of_device_inverts_data_device() {
        let l = layout();
        for lz in 0..3u32 {
            for s in 0..7u64 {
                for k in 0..l.data_units() {
                    let d = l.data_device(lz, s, k);
                    assert_eq!(l.unit_of_device(lz, s, d), Some(k));
                }
                let p = l.parity_device(lz, s);
                assert_eq!(l.unit_of_device(lz, s, p), None);
            }
        }
    }

    #[test]
    fn dual_parity_geometry() {
        let l = RaiznLayout::new(
            5,
            RaiznConfig::small_test_raizn2(),
            zns::ZnsConfig::small_test().geometry(),
        );
        assert_eq!(l.parity_units(), 2);
        assert_eq!(l.data_units(), 3);
        // 3 data units * 64-sector zones.
        assert_eq!(l.logical_geometry().zone_cap(), 192);
        for lz in 0..3u32 {
            for s in 0..7u64 {
                let p = l.parity_device(lz, s);
                let q = l.q_device(lz, s).expect("dual mode has Q");
                assert_eq!(q, (p + 1) % 5, "Q trails P");
                assert_eq!(l.unit_of_device(lz, s, p), None);
                assert_eq!(l.unit_of_device(lz, s, q), None);
                for k in 0..l.data_units() {
                    let d = l.data_device(lz, s, k);
                    assert_ne!(d, p);
                    assert_ne!(d, q);
                    assert_eq!(l.unit_of_device(lz, s, d), Some(k));
                }
            }
        }
        // Single-parity mode exposes no Q device.
        assert_eq!(layout().q_device(0, 0), None);
    }

    /// Data / P / Q slot × empty / partial / complete stripe, on both
    /// parity levels (stripe unit 4; 4 resp. 3 data units).
    #[test]
    fn slot_extent_table() {
        let geo = zns::ZnsConfig::small_test().geometry();
        for config in [RaiznConfig::small_test(), RaiznConfig::small_test_raizn2()] {
            let l = RaiznLayout::new(5, config, geo);
            let sd = l.stripe_data_sectors();
            let (lz, stripe) = (2, 3);
            let data = |k| l.data_device(lz, stripe, k);
            let parity = [Some(l.parity_device(lz, stripe)), l.q_device(lz, stripe)];
            // (fill within the stripe, unit 0, unit 1, last unit, parity)
            let table = [
                (0, 0, 0, 0, 0),      // empty
                (3, 3, 0, 0, 0),      // inside unit 0
                (4, 4, 0, 0, 0),      // unit 0 exactly
                (6, 4, 2, 0, 0),      // into unit 1
                (sd - 1, 4, 4, 3, 0), // one sector short
                (sd, 4, 4, 4, 4),     // complete
            ];
            for (in_stripe, u0, u1, last, par) in table {
                let fill = stripe * sd + in_stripe;
                let got = |dev| l.slot_extent(lz, stripe, dev, fill);
                assert_eq!(got(data(0)), u0, "unit 0 at {in_stripe}");
                assert_eq!(got(data(1)), u1, "unit 1 at {in_stripe}");
                assert_eq!(
                    got(data(l.data_units() - 1)),
                    last,
                    "last unit at {in_stripe}"
                );
                for dev in parity.into_iter().flatten() {
                    assert_eq!(got(dev), par, "parity dev {dev} at {in_stripe}");
                }
            }
            // Stripes wholly below the fill are complete, above it empty.
            for dev in 0..5 {
                assert_eq!(l.slot_extent(lz, stripe - 1, dev, stripe * sd), 4);
                assert_eq!(l.slot_extent(lz, stripe + 1, dev, stripe * sd + 5), 0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 4 devices")]
    fn dual_parity_needs_four_devices() {
        RaiznLayout::new(
            3,
            RaiznConfig::small_test_raizn2(),
            zns::ZnsConfig::small_test().geometry(),
        );
    }

    #[test]
    fn locate_lba_roundtrip() {
        let l = layout();
        for lba in [0u64, 1, 4, 17, 255, 256 * 5 + 100] {
            let lgeo = l.logical_geometry();
            // Skip addresses in the cap..size gap.
            if lgeo.offset_in_zone(lba) >= lgeo.zone_cap() {
                continue;
            }
            let loc = l.locate(lba);
            assert_eq!(l.lba_of(loc), lba);
        }
    }

    #[test]
    fn stripe_pba_offsets() {
        let l = layout();
        // Logical zone 0 is physical zone 3; stripe 2 units live at
        // phys-zone offset 2 * 4.
        assert_eq!(l.stripe_pba(0, 2), 3 * 64 + 8);
    }

    #[test]
    #[should_panic(expected = "unwritable tail")]
    fn locate_rejects_cap_gap() {
        // Geometry with zone_size > zone_cap.
        let phys = ZoneGeometry::new(8, 64, 32);
        let l = RaiznLayout::new(3, RaiznConfig::small_test(), phys);
        let lgeo = l.logical_geometry();
        l.locate(lgeo.zone_cap()); // first unwritable sector of zone 0
    }

    proptest! {
        #[test]
        fn distinct_lbas_map_to_distinct_device_sectors(
            a in 0u64..(13 * 256),
            b in 0u64..(13 * 256)
        ) {
            let l = layout();
            let lgeo = l.logical_geometry();
            // Map capacity-index to address-space LBA (zones contiguous
            // here since zone_size == zone_cap per device => logical too).
            let to_lba = |x: u64| {
                let z = x / lgeo.zone_cap();
                let off = x % lgeo.zone_cap();
                lgeo.zone_start(z as u32) + off
            };
            let la = to_lba(a);
            let lb = to_lba(b);
            let ma = l.device_pba(l.locate(la));
            let mb = l.device_pba(l.locate(lb));
            if la != lb {
                prop_assert_ne!(ma, mb);
            } else {
                prop_assert_eq!(ma, mb);
            }
        }

        #[test]
        fn parity_never_collides_with_data(lz in 0u32..13, s in 0u64..16) {
            let l = layout();
            let p = l.parity_device(lz, s);
            for k in 0..l.data_units() {
                prop_assert_ne!(l.data_device(lz, s, k), p);
            }
        }
    }
}
