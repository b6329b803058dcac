//! RAIZN: a logical ZNS volume with RAID-5-style redundancy over an array
//! of ZNS SSDs — a reproduction of *RAIZN: Redundant Array of Independent
//! Zoned Namespaces* (Kim et al., ASPLOS 2023).
//!
//! A [`RaiznVolume`] aggregates N ZNS devices and exposes a single
//! host-managed zoned device ([`zns::ZonedVolume`]): each **logical zone**
//! is backed by one physical zone per device, data is striped into
//! **stripe units** with one rotating parity unit per stripe, and the
//! volume tolerates one device failure. The ZNS-specific problems the
//! paper identifies are all handled:
//!
//! - **Parity updates without overwrites** (§5.1): non-stripe-aligned
//!   writes buffer data in per-zone *stripe buffers* and log *partial
//!   parity* to a dedicated metadata zone on the device that will hold the
//!   stripe's parity; only the affected parity bytes are logged.
//! - **Stripe write atomicity** (§5.2): after a crash, write-pointer
//!   scanning detects *stripe holes*; missing units are rebuilt from
//!   (partial) parity when possible, otherwise the logical write pointer
//!   hides the torn suffix and future conflicting writes are *relocated*
//!   to a metadata zone through a persisted remap table.
//! - **Zone reset atomicity** (§5.2): resets are write-ahead logged on two
//!   devices (rotating per zone) so partially executed resets are finished
//!   on the next mount, and are disambiguated from partial stripe writes.
//! - **Write persistence** (§5.3): FUA/preflush writes complete only after
//!   every earlier write in the same logical zone is durable, tracked by a
//!   per-zone *persistence bitmap* (one bit per stripe unit).
//! - **Log-structured metadata with garbage collection** (§4.3):
//!   superblock, generation counters, reset logs, relocated stripe units
//!   and partial parity all live as log entries with 4 KiB headers in
//!   per-device metadata zones; a full zone is checkpointed into a *swap
//!   zone* and recycled, safely restartable across power loss thanks to
//!   per-logical-zone *generation counters*.
//! - **Fault tolerance** (§4.2): degraded reads reconstruct from parity;
//!   degraded writes omit the failed device; replaced devices are rebuilt
//!   zone by zone, active zones first, and **only valid data** is rebuilt
//!   (the Fig. 12 contrast with md's full resync).
//!
//! # Examples
//!
//! ```
//! use raizn::{RaiznConfig, RaiznVolume};
//! use zns::{ZnsConfig, ZnsDevice, WriteFlags, ZonedVolume};
//! use sim::SimTime;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), zns::ZnsError> {
//! let devices: Vec<Arc<ZnsDevice>> = (0..5)
//!     .map(|_| Arc::new(ZnsDevice::new(ZnsConfig::small_test())))
//!     .collect();
//! let vol = RaiznVolume::format(devices, RaiznConfig::small_test(), SimTime::ZERO)?;
//!
//! // The volume behaves like one big ZNS device.
//! let geo = vol.geometry();
//! assert_eq!(geo.zone_cap() % 4, 0);
//! let data = vec![0x42u8; 4096];
//! vol.write(SimTime::ZERO, 0, &data, WriteFlags::default())?;
//! let mut out = vec![0u8; 4096];
//! vol.read(SimTime::ZERO, 0, &mut out)?;
//! assert_eq!(out, data);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitmap;
mod config;
mod layout;
mod lifecycle;
mod metadata;
mod recovery;
mod stats;
mod stripe;
mod volume;

pub use bitmap::PersistenceBitmap;
pub use config::{RaiznConfig, RELOCATION_THRESHOLD};
pub use layout::{Location, RaiznLayout};
pub use lifecycle::{LifecycleStats, MgmtSink, ZoneLifecycleManager, FINISH_FILL_PERMILLE};
pub use metadata::{
    MdPayload, MdPayloadRef, MdRecord, MdRecordRef, MetadataHeader, MetadataType,
    GEN_COUNTERS_PER_PAGE, MD_HEADER_BYTES,
};
pub use stats::RaiznStats;
pub use stripe::StripeBuffer;
pub use volume::{RaiznVolume, ScrubReport};
pub use zns::array::RebuildReport;

/// Result alias re-exported from the device layer (RAIZN shares the ZNS
/// error type).
pub type Result<T> = zns::Result<T>;

/// The error type RAIZN operations return (an alias for the shared device
/// error type). Array-level conditions such as
/// [`RaiznError::TooManyFailures`] — marking more devices failed than the
/// configured parity tolerates — live here alongside the ZNS command
/// errors.
pub use zns::ZnsError as RaiznError;
