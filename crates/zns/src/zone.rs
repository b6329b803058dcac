//! Zone state machine: the zone contract's state rules (DESIGN.md "Zone
//! contract").

use crate::error::ZnsError;
use crate::geometry::{Lba, ZoneGeometry};
use crate::Result;
use std::fmt;

/// The state of a zone, per the NVMe ZNS state machine (§2.1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZoneState {
    /// Unwritten; write pointer at zone start.
    Empty,
    /// Opened by a write without an explicit open command.
    ImplicitlyOpen,
    /// Opened by an explicit zone-open command.
    ExplicitlyOpen,
    /// Open resources released but still partially written (active).
    Closed,
    /// Fully written or finished; no further writes until reset.
    Full,
    /// Media failure: readable but not writable.
    ReadOnly,
    /// Media failure: neither readable nor writable.
    Offline,
}

impl ZoneState {
    /// Whether the zone counts against the open-zone limit.
    pub fn is_open(self) -> bool {
        matches!(self, ZoneState::ImplicitlyOpen | ZoneState::ExplicitlyOpen)
    }

    /// Whether the zone counts against the active-zone limit
    /// (open or closed).
    pub fn is_active(self) -> bool {
        self.is_open() || self == ZoneState::Closed
    }

    /// Whether the zone may accept writes at its write pointer.
    pub fn is_writable(self) -> bool {
        matches!(
            self,
            ZoneState::Empty
                | ZoneState::ImplicitlyOpen
                | ZoneState::ExplicitlyOpen
                | ZoneState::Closed
        )
    }

    /// Short name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            ZoneState::Empty => "empty",
            ZoneState::ImplicitlyOpen => "implicitly-open",
            ZoneState::ExplicitlyOpen => "explicitly-open",
            ZoneState::Closed => "closed",
            ZoneState::Full => "full",
            ZoneState::ReadOnly => "read-only",
            ZoneState::Offline => "offline",
        }
    }

    /// The media failure states refuse every state change.
    fn check_media(self, zone: u32) -> Result<()> {
        match self {
            ZoneState::ReadOnly => Err(ZnsError::ZoneReadOnly { zone }),
            ZoneState::Offline => Err(ZnsError::ZoneOffline { zone }),
            _ => Ok(()),
        }
    }

    /// Zone contract: a read of `sectors` at offset `rel` of `zone`, whose
    /// write pointer is `wp`, touches only written sectors of a zone that
    /// still holds data.
    ///
    /// # Errors
    ///
    /// [`ZnsError::ZoneOffline`], then [`ZnsError::ReadUnwritten`].
    pub fn check_read(
        self,
        geo: &ZoneGeometry,
        zone: u32,
        wp: u64,
        rel: u64,
        sectors: u64,
    ) -> Result<()> {
        if self == ZoneState::Offline {
            return Err(ZnsError::ZoneOffline { zone });
        }
        if rel + sectors > wp {
            return Err(ZnsError::ReadUnwritten {
                lba: geo.zone_start(zone) + wp,
            });
        }
        Ok(())
    }

    /// Zone contract: a write of `sectors` at offset `rel` of `zone`, whose
    /// write pointer is `wp`, goes to a writable zone, at its write
    /// pointer, within its capacity.
    ///
    /// # Errors
    ///
    /// [`ZnsError::ZoneFull`], [`ZnsError::ZoneReadOnly`] or
    /// [`ZnsError::ZoneOffline`] by state, then
    /// [`ZnsError::NotSequential`], then [`ZnsError::ZoneFull`] past the
    /// capacity.
    pub fn check_write(
        self,
        geo: &ZoneGeometry,
        zone: u32,
        wp: u64,
        rel: u64,
        sectors: u64,
    ) -> Result<()> {
        self.check_media(zone)?;
        let start = geo.zone_start(zone);
        match self {
            ZoneState::Full => Err(ZnsError::ZoneFull { zone }),
            _ if rel != wp => Err(ZnsError::NotSequential {
                zone,
                expected: start + wp,
                got: start + rel,
            }),
            _ if wp + sectors > geo.zone_cap() => Err(ZnsError::ZoneFull { zone }),
            _ => Ok(()),
        }
    }

    /// Zone contract: the state after a write leaves the write pointer at
    /// `wp` — full at the capacity `cap`, otherwise an empty or closed
    /// zone is implicitly opened.
    #[must_use]
    pub fn after_write(self, wp: u64, cap: u64) -> ZoneState {
        match self {
            _ if wp == cap => ZoneState::Full,
            ZoneState::Empty | ZoneState::Closed => ZoneState::ImplicitlyOpen,
            s => s,
        }
    }

    /// Zone contract: an explicit open makes any writable zone explicitly
    /// open.
    ///
    /// # Errors
    ///
    /// [`ZnsError::ZoneFull`] (or the media error) on a zone that accepts
    /// no writes.
    pub fn open(self, zone: u32) -> Result<ZoneState> {
        self.check_media(zone)?;
        match self {
            ZoneState::Full => Err(ZnsError::ZoneFull { zone }),
            _ => Ok(ZoneState::ExplicitlyOpen),
        }
    }

    /// Zone contract: a close releases an open zone, back to empty when
    /// nothing was written (`wp == 0`).
    ///
    /// # Errors
    ///
    /// [`ZnsError::BadZoneState`] on a zone that is not open.
    pub fn close(self, zone: u32, wp: u64) -> Result<ZoneState> {
        match self {
            s if !s.is_open() => Err(ZnsError::BadZoneState {
                zone,
                state: s.name(),
                op: ZoneMgmtOp::Close.name(),
            }),
            _ if wp == 0 => Ok(ZoneState::Empty),
            _ => Ok(ZoneState::Closed),
        }
    }

    /// Zone contract: a finish seals the zone full; finishing a full zone
    /// changes nothing.
    ///
    /// # Errors
    ///
    /// The media error of a read-only or offline zone.
    pub fn finish(self, zone: u32) -> Result<ZoneState> {
        self.check_media(zone)?;
        Ok(ZoneState::Full)
    }

    /// Zone contract: a reset empties the zone.
    ///
    /// # Errors
    ///
    /// The media error of a read-only or offline zone.
    pub fn reset(self, zone: u32) -> Result<ZoneState> {
        self.check_media(zone)?;
        Ok(ZoneState::Empty)
    }
}

impl fmt::Display for ZoneState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A zone lifecycle management operation. Lifecycle managers and
/// schedulers route these beside data IO so management cost is paid
/// somewhere explicit instead of inline on the write path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZoneMgmtOp {
    /// Explicitly open the zone (reserves open-budget headroom).
    Open,
    /// Close the zone, releasing its open slot while staying active.
    Close,
    /// Finish the zone: seal the written prefix, pad the remainder.
    Finish,
    /// Reset the zone to empty.
    Reset,
}

impl ZoneMgmtOp {
    /// Short name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            ZoneMgmtOp::Open => "open",
            ZoneMgmtOp::Close => "close",
            ZoneMgmtOp::Finish => "finish",
            ZoneMgmtOp::Reset => "reset",
        }
    }
}

impl fmt::Display for ZoneMgmtOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A snapshot of one zone's externally visible state, as returned by zone
/// report queries (`ZnsDevice::zone_info` via [`crate::ZonedVolume`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneInfo {
    /// Zone index.
    pub zone: u32,
    /// Current state.
    pub state: ZoneState,
    /// First LBA of the zone.
    pub start: Lba,
    /// Write pointer (absolute LBA; equals `start` when empty).
    pub write_pointer: Lba,
    /// Writable capacity in sectors.
    pub capacity: u64,
}

impl ZoneInfo {
    /// Sectors written so far.
    pub fn written(&self) -> u64 {
        self.write_pointer - self.start
    }

    /// Sectors still writable.
    pub fn remaining(&self) -> u64 {
        self.capacity - self.written()
    }
}

/// Internal per-zone bookkeeping for the device model.
#[derive(Debug, Clone)]
pub(crate) struct Zone {
    pub state: ZoneState,
    /// Write pointer, relative to zone start, in sectors.
    pub wp: u64,
    /// Durable prefix length in sectors (<= wp). Data below this survived a
    /// flush/FUA; data in `[durable, wp)` sits in the volatile write cache.
    pub durable: u64,
    /// Zone payload, lazily allocated at `zone_cap * SECTOR_SIZE` bytes.
    /// `None` when the zone is empty-and-never-written or when the device
    /// runs in discard-data mode.
    pub data: Option<Box<[u8]>>,
    /// Monotonic stamp of the most recent write (for implicit-close LRU).
    pub last_write_seq: u64,
}

impl Zone {
    pub fn new() -> Self {
        Zone {
            state: ZoneState::Empty,
            wp: 0,
            durable: 0,
            data: None,
            last_write_seq: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_predicates() {
        assert!(ZoneState::ImplicitlyOpen.is_open());
        assert!(ZoneState::ExplicitlyOpen.is_open());
        assert!(!ZoneState::Closed.is_open());
        assert!(ZoneState::Closed.is_active());
        assert!(!ZoneState::Full.is_active());
        assert!(ZoneState::Empty.is_writable());
        assert!(!ZoneState::ReadOnly.is_writable());
        assert!(!ZoneState::Offline.is_writable());
    }

    #[test]
    fn info_accessors() {
        let info = ZoneInfo {
            zone: 2,
            state: ZoneState::ImplicitlyOpen,
            start: 200,
            write_pointer: 230,
            capacity: 80,
        };
        assert_eq!(info.written(), 30);
        assert_eq!(info.remaining(), 50);
    }

    #[test]
    fn display_names() {
        assert_eq!(ZoneState::Empty.to_string(), "empty");
        assert_eq!(ZoneState::ImplicitlyOpen.to_string(), "implicitly-open");
    }
}
