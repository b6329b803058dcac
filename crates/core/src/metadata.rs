//! Log-structured metadata records (§4.3 of the paper).
//!
//! Every persisted metadata update is a **record**: a 4 KiB header
//! (Fig. 3: magic, type, start/end LBA, generation counter, inline
//! payload) optionally followed by payload sectors (relocated stripe unit
//! data, partial parity bytes). Records are written with zone append into
//! per-device metadata zones and replayed at mount; validity is decided by
//! comparing the record's generation counter against the current counter
//! of the logical zone it describes.

use crate::Result;
use zns::{Lba, ZnsError, SECTOR_SIZE};

/// Magic value identifying a RAIZN metadata header.
pub const MD_MAGIC: u32 = 0x5A4E_AA55;

/// Size of a metadata header in bytes (one sector).
pub const MD_HEADER_BYTES: usize = SECTOR_SIZE as usize;

/// Generation counters per 4 KiB page: 32-byte header + 508 × 8-byte
/// counters (§4.3).
pub const GEN_COUNTERS_PER_PAGE: usize = 508;

/// Flag bit set on records written by the metadata garbage collector's
/// checkpoint pass, distinguishing them from normal updates (§4.3).
pub const MD_CHECKPOINT_FLAG: u32 = 0x8000_0000;

/// The type tag of a metadata record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum MetadataType {
    /// Array parameters; written once per device at format (and by GC).
    Superblock = 1,
    /// A page of per-logical-zone generation counters.
    GenCounters = 2,
    /// Write-ahead intent to reset a logical zone.
    ZoneResetLog = 3,
    /// A stripe unit redirected away from its arithmetic location.
    RelocatedStripeUnit = 4,
    /// Parity of a partially written stripe.
    PartialParity = 5,
    /// Q (Reed–Solomon) parity of a partially written stripe (RAIZN-2).
    /// Same wire format as [`PartialParity`](Self::PartialParity); a
    /// distinct tag keeps the record self-describing so recovery and
    /// metadata GC never have to infer the parity role from the device
    /// the record happens to live on.
    PartialParityQ = 6,
    /// Write-ahead record of a logical zone finish: the header's LBA
    /// range runs from the zone start to the sealed write pointer, so a
    /// remount knows the exact durable fill even when the devices
    /// witnessing the final stripe are gone.
    ZoneFinishLog = 7,
}

impl MetadataType {
    fn from_u32(v: u32) -> Option<MetadataType> {
        match v {
            1 => Some(MetadataType::Superblock),
            2 => Some(MetadataType::GenCounters),
            3 => Some(MetadataType::ZoneResetLog),
            4 => Some(MetadataType::RelocatedStripeUnit),
            5 => Some(MetadataType::PartialParity),
            6 => Some(MetadataType::PartialParityQ),
            7 => Some(MetadataType::ZoneFinishLog),
            _ => None,
        }
    }
}

/// The decoded header of a metadata record (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetadataHeader {
    /// Record type.
    pub md_type: MetadataType,
    /// Whether the record was written by a GC checkpoint.
    pub checkpoint: bool,
    /// First logical LBA described by the record.
    pub start_lba: Lba,
    /// One past the last logical LBA described.
    pub end_lba: Lba,
    /// Generation counter of the logical zone containing the LBA range at
    /// the time the record was written.
    pub generation: u64,
}

/// A full metadata record: header plus type-specific payload.
#[derive(Debug, Clone, PartialEq)]
pub struct MdRecord {
    /// The header.
    pub header: MetadataHeader,
    /// Decoded payload.
    pub payload: MdPayload,
}

/// Type-specific payload of a metadata record.
#[derive(Debug, Clone, PartialEq)]
pub enum MdPayload {
    /// Array parameters, stored inline.
    Superblock(Superblock),
    /// `(first logical zone index, counters)`, stored inline.
    GenCounters {
        /// Index of the logical zone whose counter is first in the page.
        first_zone: u32,
        /// Up to [`GEN_COUNTERS_PER_PAGE`] counters.
        counters: Vec<u64>,
    },
    /// Intent to reset the logical zone covering the header's LBA range.
    ZoneResetLog,
    /// Stripe unit data redirected to the metadata zone; the bytes follow
    /// the header on disk. The record always lives on the device whose
    /// slot was occupied, so the device index is implicit.
    RelocatedStripeUnit {
        /// Logical zone containing the relocated slot.
        lzone: u32,
        /// Stripe index of the slot within the zone.
        stripe: u64,
        /// Valid sectors at the start of `data` (the rest is zero fill).
        valid_sectors: u64,
        /// The unit's contents (full stripe unit, zero padded).
        data: Vec<u8>,
    },
    /// Partial parity rows; the bytes follow the header on disk.
    PartialParity {
        /// First parity row (sector within the stripe unit) covered.
        first_row: u64,
        /// Parity bytes for `rows = data.len() / SECTOR_SIZE` rows.
        data: Vec<u8>,
    },
    /// Partial Q-parity rows (RAIZN-2); the bytes follow the header on
    /// disk.
    PartialParityQ {
        /// First parity row (sector within the stripe unit) covered.
        first_row: u64,
        /// Q-parity bytes for `rows = data.len() / SECTOR_SIZE` rows.
        data: Vec<u8>,
    },
    /// The logical zone covering the header's LBA range was finished; the
    /// range's end is the sealed write pointer.
    ZoneFinishLog,
}

/// The array parameters persisted to every device (inline in a
/// [`MetadataType::Superblock`] record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Devices in the array.
    pub num_devices: u32,
    /// This copy's device index.
    pub device_index: u32,
    /// Stripe unit size in sectors.
    pub stripe_unit_sectors: u64,
    /// Metadata zones reserved per device.
    pub md_zones_per_device: u32,
    /// Physical zones per device.
    pub phys_zones: u32,
    /// Physical zone size (sectors).
    pub phys_zone_size: u64,
    /// Physical zone capacity (sectors).
    pub phys_zone_cap: u64,
}

fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn get<const N: usize>(buf: &[u8], off: usize) -> Result<[u8; N]> {
    buf.get(off..off + N)
        .and_then(|b| b.try_into().ok())
        .ok_or_else(|| {
            ZnsError::InvalidArgument(format!("metadata header truncated at byte offset {off}"))
        })
}

fn get_u32(buf: &[u8], off: usize) -> Result<u32> {
    get(buf, off).map(u32::from_le_bytes)
}

fn get_u64(buf: &[u8], off: usize) -> Result<u64> {
    get(buf, off).map(u64::from_le_bytes)
}

/// A borrowed view of a record payload: what every writer of the log
/// builds, so partial parity, relocated units and generation pages are
/// serialized straight out of live buffers (stripe buffer, relocation
/// cache, counter table). [`MdPayload`] is its owned twin, produced only
/// by [`MdRecord::decode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MdPayloadRef<'a> {
    /// Array parameters, stored inline.
    Superblock(Superblock),
    /// `(first logical zone index, counters)`, stored inline.
    GenCounters {
        /// Index of the logical zone whose counter is first in the page.
        first_zone: u32,
        /// Up to [`GEN_COUNTERS_PER_PAGE`] counters.
        counters: &'a [u64],
    },
    /// Intent to reset the logical zone covering the header's LBA range.
    ZoneResetLog,
    /// Stripe unit data redirected to the metadata zone.
    RelocatedStripeUnit {
        /// Logical zone containing the relocated slot.
        lzone: u32,
        /// Stripe index of the slot within the zone.
        stripe: u64,
        /// Valid sectors at the start of `data`.
        valid_sectors: u64,
        /// The unit's contents (full stripe unit, zero padded).
        data: &'a [u8],
    },
    /// Partial parity rows.
    PartialParity {
        /// First parity row (sector within the stripe unit) covered.
        first_row: u64,
        /// Parity bytes for `rows = data.len() / SECTOR_SIZE` rows.
        data: &'a [u8],
    },
    /// Partial Q-parity rows (RAIZN-2).
    PartialParityQ {
        /// First parity row (sector within the stripe unit) covered.
        first_row: u64,
        /// Q-parity bytes for `rows = data.len() / SECTOR_SIZE` rows.
        data: &'a [u8],
    },
    /// The logical zone covering the header's LBA range was finished.
    ZoneFinishLog,
}

/// A record built over a borrowed payload; see [`MdPayloadRef`]. Encodes
/// with [`MdRecordRef::encode_into`] into a caller-provided (typically
/// pooled) buffer — the only encoder of the on-disk format.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdRecordRef<'a> {
    /// The header.
    pub header: MetadataHeader,
    /// Borrowed payload.
    pub payload: MdPayloadRef<'a>,
}

impl<'a> MdRecordRef<'a> {
    /// Creates a record view with the given header fields. A generation
    /// page's LBA range is its zone range, whatever range is passed.
    pub fn new(
        payload: MdPayloadRef<'a>,
        checkpoint: bool,
        start_lba: Lba,
        end_lba: Lba,
        generation: u64,
    ) -> MdRecordRef<'a> {
        let md_type = match &payload {
            MdPayloadRef::Superblock(_) => MetadataType::Superblock,
            MdPayloadRef::GenCounters { .. } => MetadataType::GenCounters,
            MdPayloadRef::ZoneResetLog => MetadataType::ZoneResetLog,
            MdPayloadRef::RelocatedStripeUnit { .. } => MetadataType::RelocatedStripeUnit,
            MdPayloadRef::PartialParity { .. } => MetadataType::PartialParity,
            MdPayloadRef::PartialParityQ { .. } => MetadataType::PartialParityQ,
            MdPayloadRef::ZoneFinishLog => MetadataType::ZoneFinishLog,
        };
        let (start_lba, end_lba) = match &payload {
            MdPayloadRef::GenCounters {
                first_zone,
                counters,
            } => (
                *first_zone as u64,
                *first_zone as u64 + counters.len() as u64,
            ),
            _ => (start_lba, end_lba),
        };
        MdRecordRef {
            header: MetadataHeader {
                md_type,
                checkpoint,
                start_lba,
                end_lba,
                generation,
            },
            payload,
        }
    }

    /// Sectors [`encode_into`](Self::encode_into) produces: the header
    /// plus any payload sectors.
    pub fn encoded_sectors(&self) -> u64 {
        let payload = match &self.payload {
            MdPayloadRef::RelocatedStripeUnit { data, .. }
            | MdPayloadRef::PartialParity { data, .. }
            | MdPayloadRef::PartialParityQ { data, .. } => data.len(),
            _ => 0,
        };
        1 + payload as u64 / SECTOR_SIZE
    }

    /// Serializes the record into `out`, replacing its contents: one
    /// header sector plus any payload sectors. The result length is always
    /// a multiple of the sector size. `out` keeps its capacity, so a
    /// recycled scratch buffer makes steady-state encoding allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if a trailing payload is not sector-aligned.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.resize(MD_HEADER_BYTES, 0);
        let header = &mut out[..MD_HEADER_BYTES];
        let type_word = self.header.md_type as u32
            | if self.header.checkpoint {
                MD_CHECKPOINT_FLAG
            } else {
                0
            };
        put_u32(header, 0, MD_MAGIC);
        put_u32(header, 4, type_word);
        put_u64(header, 8, self.header.start_lba);
        put_u64(header, 16, self.header.end_lba);
        put_u64(header, 24, self.header.generation);
        match &self.payload {
            MdPayloadRef::Superblock(sb) => {
                put_u32(header, 32, sb.num_devices);
                put_u32(header, 36, sb.device_index);
                put_u64(header, 40, sb.stripe_unit_sectors);
                put_u32(header, 48, sb.md_zones_per_device);
                put_u32(header, 52, sb.phys_zones);
                put_u64(header, 56, sb.phys_zone_size);
                put_u64(header, 64, sb.phys_zone_cap);
            }
            MdPayloadRef::GenCounters {
                first_zone,
                counters,
            } => {
                assert!(
                    counters.len() <= GEN_COUNTERS_PER_PAGE,
                    "too many counters for one page"
                );
                // The header's LBA-range field doubles as the zone range
                // (32-byte header + 508 counters = exactly 4 KiB, §4.3).
                put_u64(header, 8, *first_zone as u64);
                put_u64(header, 16, *first_zone as u64 + counters.len() as u64);
                for (i, c) in counters.iter().enumerate() {
                    put_u64(header, 32 + i * 8, *c);
                }
            }
            MdPayloadRef::ZoneResetLog | MdPayloadRef::ZoneFinishLog => {}
            MdPayloadRef::RelocatedStripeUnit {
                lzone,
                stripe,
                valid_sectors,
                data,
            } => {
                assert_eq!(
                    data.len() % SECTOR_SIZE as usize,
                    0,
                    "relocated unit payload must be sector aligned"
                );
                put_u64(header, 32, (data.len() / SECTOR_SIZE as usize) as u64);
                put_u32(header, 40, *lzone);
                put_u64(header, 48, *stripe);
                put_u64(header, 56, *valid_sectors);
                out.extend_from_slice(data);
            }
            MdPayloadRef::PartialParity { first_row, data }
            | MdPayloadRef::PartialParityQ { first_row, data } => {
                assert_eq!(
                    data.len() % SECTOR_SIZE as usize,
                    0,
                    "partial parity payload must be sector aligned"
                );
                put_u64(header, 32, *first_row);
                put_u64(header, 40, (data.len() / SECTOR_SIZE as usize) as u64);
                out.extend_from_slice(data);
            }
        }
    }
}

impl MdPayload {
    /// Borrows this payload as an [`MdPayloadRef`].
    pub fn as_ref(&self) -> MdPayloadRef<'_> {
        match self {
            MdPayload::Superblock(sb) => MdPayloadRef::Superblock(*sb),
            MdPayload::GenCounters {
                first_zone,
                counters,
            } => MdPayloadRef::GenCounters {
                first_zone: *first_zone,
                counters,
            },
            MdPayload::ZoneResetLog => MdPayloadRef::ZoneResetLog,
            MdPayload::ZoneFinishLog => MdPayloadRef::ZoneFinishLog,
            MdPayload::RelocatedStripeUnit {
                lzone,
                stripe,
                valid_sectors,
                data,
            } => MdPayloadRef::RelocatedStripeUnit {
                lzone: *lzone,
                stripe: *stripe,
                valid_sectors: *valid_sectors,
                data,
            },
            MdPayload::PartialParity { first_row, data } => MdPayloadRef::PartialParity {
                first_row: *first_row,
                data,
            },
            MdPayload::PartialParityQ { first_row, data } => MdPayloadRef::PartialParityQ {
                first_row: *first_row,
                data,
            },
        }
    }
}

impl MdRecord {
    /// Borrows this record as an [`MdRecordRef`] (to re-encode or compare
    /// a decoded record).
    pub fn as_ref(&self) -> MdRecordRef<'_> {
        MdRecordRef {
            header: self.header,
            payload: self.payload.as_ref(),
        }
    }

    /// Number of payload sectors that follow a header, given its bytes.
    /// Returns `None` when the header is not a valid RAIZN header.
    pub fn payload_sectors(header: &[u8]) -> Option<u64> {
        if header.len() < MD_HEADER_BYTES || get_u32(header, 0).ok()? != MD_MAGIC {
            return None;
        }
        let ty = MetadataType::from_u32(get_u32(header, 4).ok()? & !MD_CHECKPOINT_FLAG)?;
        Some(match ty {
            MetadataType::Superblock
            | MetadataType::GenCounters
            | MetadataType::ZoneResetLog
            | MetadataType::ZoneFinishLog => 0,
            MetadataType::RelocatedStripeUnit => get_u64(header, 32).ok()?,
            MetadataType::PartialParity | MetadataType::PartialParityQ => {
                get_u64(header, 40).ok()?
            }
        })
    }

    /// Decodes a record from `header` bytes and its `payload` bytes (which
    /// must match [`payload_sectors`](Self::payload_sectors)).
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::InvalidArgument`] on bad magic, unknown type, or
    /// malformed lengths.
    pub fn decode(header: &[u8], payload: &[u8]) -> Result<MdRecord> {
        if header.len() < MD_HEADER_BYTES {
            return Err(ZnsError::InvalidArgument(
                "metadata header shorter than one sector".to_string(),
            ));
        }
        if get_u32(header, 0)? != MD_MAGIC {
            return Err(ZnsError::InvalidArgument("bad metadata magic".to_string()));
        }
        let type_word = get_u32(header, 4)?;
        let checkpoint = type_word & MD_CHECKPOINT_FLAG != 0;
        let md_type = MetadataType::from_u32(type_word & !MD_CHECKPOINT_FLAG).ok_or_else(|| {
            ZnsError::InvalidArgument(format!("unknown metadata type {type_word:#x}"))
        })?;
        let h = MetadataHeader {
            md_type,
            checkpoint,
            start_lba: get_u64(header, 8)?,
            end_lba: get_u64(header, 16)?,
            generation: get_u64(header, 24)?,
        };
        let payload = match md_type {
            MetadataType::Superblock => MdPayload::Superblock(Superblock {
                num_devices: get_u32(header, 32)?,
                device_index: get_u32(header, 36)?,
                stripe_unit_sectors: get_u64(header, 40)?,
                md_zones_per_device: get_u32(header, 48)?,
                phys_zones: get_u32(header, 52)?,
                phys_zone_size: get_u64(header, 56)?,
                phys_zone_cap: get_u64(header, 64)?,
            }),
            MetadataType::GenCounters => {
                let first_zone = get_u64(header, 8)? as u32;
                let count = (get_u64(header, 16)? - get_u64(header, 8)?) as usize;
                if count > GEN_COUNTERS_PER_PAGE {
                    return Err(ZnsError::InvalidArgument(format!(
                        "generation counter page claims {count} counters"
                    )));
                }
                let mut counters = Vec::with_capacity(count);
                for i in 0..count {
                    counters.push(get_u64(header, 32 + i * 8)?);
                }
                MdPayload::GenCounters {
                    first_zone,
                    counters,
                }
            }
            MetadataType::ZoneResetLog => MdPayload::ZoneResetLog,
            MetadataType::ZoneFinishLog => MdPayload::ZoneFinishLog,
            MetadataType::RelocatedStripeUnit => {
                let sectors = get_u64(header, 32)?;
                if payload.len() as u64 != sectors * SECTOR_SIZE {
                    return Err(ZnsError::InvalidArgument(
                        "relocated unit payload length mismatch".to_string(),
                    ));
                }
                MdPayload::RelocatedStripeUnit {
                    lzone: get_u32(header, 40)?,
                    stripe: get_u64(header, 48)?,
                    valid_sectors: get_u64(header, 56)?,
                    data: payload.to_vec(),
                }
            }
            MetadataType::PartialParity | MetadataType::PartialParityQ => {
                let first_row = get_u64(header, 32)?;
                let sectors = get_u64(header, 40)?;
                if payload.len() as u64 != sectors * SECTOR_SIZE {
                    return Err(ZnsError::InvalidArgument(
                        "partial parity payload length mismatch".to_string(),
                    ));
                }
                let data = payload.to_vec();
                if md_type == MetadataType::PartialParity {
                    MdPayload::PartialParity { first_row, data }
                } else {
                    MdPayload::PartialParityQ { first_row, data }
                }
            }
        };
        Ok(MdRecord { header: h, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(rec: MdRecordRef<'_>) -> Vec<u8> {
        let mut out = Vec::new();
        rec.encode_into(&mut out);
        out
    }

    fn roundtrip(rec: MdRecordRef<'_>) {
        let bytes = encode(rec);
        assert_eq!(bytes.len() as u64, rec.encoded_sectors() * SECTOR_SIZE);
        let (h, p) = bytes.split_at(MD_HEADER_BYTES);
        let sectors = MdRecord::payload_sectors(h).expect("valid header");
        assert_eq!(p.len() as u64, sectors * SECTOR_SIZE);
        let decoded = MdRecord::decode(h, p).expect("decodes");
        assert_eq!(decoded.as_ref(), rec);
    }

    #[test]
    fn superblock_roundtrip() {
        roundtrip(MdRecordRef::new(
            MdPayloadRef::Superblock(Superblock {
                num_devices: 5,
                device_index: 2,
                stripe_unit_sectors: 16,
                md_zones_per_device: 3,
                phys_zones: 1900,
                phys_zone_size: 524_288,
                phys_zone_cap: 275_712,
            }),
            false,
            0,
            0,
            0,
        ));
    }

    #[test]
    fn gen_counters_roundtrip() {
        let counters: Vec<u64> = (0..508).collect();
        roundtrip(MdRecordRef::new(
            MdPayloadRef::GenCounters {
                first_zone: 508,
                counters: &counters,
            },
            true,
            0,
            0,
            0,
        ));
    }

    #[test]
    fn zone_reset_log_roundtrip() {
        roundtrip(MdRecordRef::new(
            MdPayloadRef::ZoneResetLog,
            false,
            256,
            512,
            7,
        ));
    }

    #[test]
    fn zone_finish_log_roundtrip() {
        // End LBA is the sealed write pointer, not the zone cap.
        roundtrip(MdRecordRef::new(
            MdPayloadRef::ZoneFinishLog,
            false,
            256,
            280,
            7,
        ));
    }

    #[test]
    fn relocated_unit_roundtrip() {
        roundtrip(MdRecordRef::new(
            MdPayloadRef::RelocatedStripeUnit {
                lzone: 2,
                stripe: 9,
                valid_sectors: 3,
                data: &[0xCD; 4 * SECTOR_SIZE as usize],
            },
            false,
            100,
            104,
            3,
        ));
    }

    #[test]
    fn partial_parity_roundtrip() {
        roundtrip(MdRecordRef::new(
            MdPayloadRef::PartialParity {
                first_row: 2,
                data: &[0xEE; 2 * SECTOR_SIZE as usize],
            },
            false,
            40,
            48,
            11,
        ));
    }

    #[test]
    fn partial_parity_q_roundtrip() {
        roundtrip(MdRecordRef::new(
            MdPayloadRef::PartialParityQ {
                first_row: 1,
                data: &[0x5A; 3 * SECTOR_SIZE as usize],
            },
            false,
            40,
            48,
            11,
        ));
    }

    fn reset_log(checkpoint: bool, generation: u64) -> Vec<u8> {
        encode(MdRecordRef::new(
            MdPayloadRef::ZoneResetLog,
            checkpoint,
            0,
            1,
            generation,
        ))
    }

    #[test]
    fn truncated_header_is_an_error_not_a_panic() {
        let bytes = reset_log(false, 0);
        // Long enough to pass the length gate nowhere, short enough that a
        // naive slice would panic: decode must return InvalidArgument.
        assert!(MdRecord::decode(&bytes[..16], &[]).is_err());
        assert!(MdRecord::payload_sectors(&bytes[..16]).is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = reset_log(false, 0);
        bytes[0] ^= 0xFF;
        assert!(MdRecord::payload_sectors(&bytes).is_none());
        assert!(MdRecord::decode(&bytes, &[]).is_err());
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = reset_log(false, 0);
        bytes[4] = 99;
        assert!(MdRecord::decode(&bytes, &[]).is_err());
    }

    #[test]
    fn checkpoint_flag_roundtrips() {
        let decoded = MdRecord::decode(&reset_log(true, 5), &[]).unwrap();
        assert!(decoded.header.checkpoint);
        assert_eq!(decoded.header.generation, 5);
    }

    #[test]
    fn gen_counter_page_capacity_is_papers() {
        // 32-byte header + 508 counters of 8 bytes = exactly 4 KiB (§4.3).
        assert_eq!(GEN_COUNTERS_PER_PAGE, 508);
        assert_eq!(32 + GEN_COUNTERS_PER_PAGE * 8, MD_HEADER_BYTES);
    }

    #[test]
    fn payload_sector_counts() {
        let pp = encode(MdRecordRef::new(
            MdPayloadRef::PartialParity {
                first_row: 0,
                data: &[0; 3 * SECTOR_SIZE as usize],
            },
            false,
            0,
            12,
            0,
        ));
        assert_eq!(MdRecord::payload_sectors(&pp), Some(3));
        assert_eq!(MdRecord::payload_sectors(&reset_log(false, 0)), Some(0));
    }
}
