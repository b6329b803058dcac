//! Metadata-log record format for the log-structured RAID engine.
//!
//! The engine keeps two metadata slots (physical zone 0 and zone 1,
//! replicated on devices 0 and 1). A slot always starts with a full
//! `Checkpoint` record and is followed by an append-only sequence of
//! roll-forward records: `Summary` records carrying one entry per stripe
//! sealed by a log call (group-committed: one record per call, however
//! many stripes it sealed), stripe-group `GroupOpen`/`GroupFree`
//! transitions, and logical `ZoneReset`/`ZoneFinish` events. When the active slot cannot hold the
//! next record the log rotates: the other slot is reset, a fresh
//! checkpoint (higher epoch) is written there, and appends continue.
//!
//! Every record is padded to whole sectors and carries a checksum, so a
//! torn tail after a crash parses as a clean durable prefix.

use crate::fwdmap::FwdMap;
use zns::SECTOR_SIZE;

/// Sentinel word of the mapping state, in memory and on the log: an
/// unmapped logical sector, a garbage reverse-map slot.
pub(crate) const UNMAPPED: u32 = u32::MAX;

/// Record magic ("LSRD").
pub(crate) const MAGIC: u32 = 0x4C53_5244;

/// Record header size in bytes: magic, kind, epoch, seq, payload len,
/// checksum.
pub(crate) const HEADER_BYTES: usize = 32;

/// Record kinds.
pub(crate) mod kind {
    /// Full engine state: logical zones, group table, and the mapping
    /// table as runs ([`put_runs`](super::put_runs)).
    pub const CHECKPOINT: u32 = 1;
    /// Stripes sealed: one [`SummaryEntry`](super::SummaryEntry) per
    /// stripe, in seal order.
    pub const SUMMARY: u32 = 2;
    /// A stripe group was opened on a set of physical zones.
    pub const GROUP_OPEN: u32 = 3;
    /// A stripe group was reclaimed and returned to the free pool.
    pub const GROUP_FREE: u32 = 4;
    /// A logical zone was reset.
    pub const ZONE_RESET: u32 = 5;
    /// A logical zone was finished.
    pub const ZONE_FINISH: u32 = 6;
}

/// Cursor state of the replicated two-slot metadata log.
#[derive(Debug)]
pub(crate) struct MetaLog {
    /// Active slot (0 or 1); the slot index is also the physical zone.
    pub slot: usize,
    /// Sectors already written into the active slot.
    pub used: u64,
    /// Sequence number of the next record.
    pub seq: u64,
    /// Epoch of the active slot (bumped at every rotation).
    pub epoch: u64,
    /// Preallocated scratch for ordinary (non-checkpoint) records.
    pub rec_buf: Vec<u8>,
    /// Scratch for checkpoint records: empty until the first
    /// checkpoint, then as long as the longest one written.
    pub ckpt_buf: Vec<u8>,
    /// The `Summary` record under construction: [`HEADER_BYTES`] of
    /// reserved space, then one entry per stripe sealed since the last
    /// commit. Preallocated for the largest batch one call can stage.
    pub staged: Vec<u8>,
}

impl MetaLog {
    /// Whether any seal entry awaits its commit.
    pub fn has_staged(&self) -> bool {
        self.staged.len() > HEADER_BYTES
    }

    /// Moves the cursor past a record of `sectors` just written.
    pub fn advance(&mut self, sectors: u64) {
        self.used += sectors;
        self.seq += 1;
    }
}

/// One parsed record (mount path only; allocation is fine there).
#[derive(Debug, Clone)]
pub(crate) struct Record {
    pub kind: u32,
    pub epoch: u64,
    pub seq: u64,
    pub payload: Vec<u8>,
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("u32 slice"))
}

pub(crate) fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("u64 slice"))
}

/// Bytes one seal entry occupies in a `Summary` payload for stripes of
/// `kd` data slots: group, pad, stripe, then the reverse map.
pub(crate) fn summary_entry_bytes(kd: usize) -> usize {
    16 + kd * 4
}

/// Appends the seal entry of `stripe` in group `g` to a `Summary`
/// payload; `lbas` is the stripe's reverse map, a word per slot (`kd`).
pub(crate) fn put_summary_entry(
    buf: &mut Vec<u8>,
    g: u32,
    stripe: u64,
    lbas: impl IntoIterator<Item = u32>,
) {
    put_u32(buf, g);
    put_u32(buf, 0);
    put_u64(buf, stripe);
    for l in lbas {
        put_u32(buf, l);
    }
}

/// One stripe's seal entry inside a parsed `Summary` payload.
pub(crate) struct SummaryEntry<'a> {
    pub group: u32,
    pub stripe: u64,
    lbas: &'a [u8],
}

impl SummaryEntry<'_> {
    /// The logical sector each data slot of the stripe held at seal time
    /// ([`UNMAPPED`] for a pad or garbage slot).
    pub fn lbas(&self) -> impl Iterator<Item = u32> + '_ {
        self.lbas.chunks_exact(4).map(|b| get_u32(b, 0))
    }
}

/// Appends `map` as runs of `(len: u32, first: u32)`: `len` consecutive
/// entries that read `first, first + 1, …`, or that are all
/// [`UNMAPPED`], read off its chunks ([`FwdMap::runs`]). A counting run
/// stops short of the sentinel, so the worst case — no entry continuing
/// its neighbour — is 8 bytes per entry.
pub(crate) fn put_runs(buf: &mut Vec<u8>, map: &FwdMap) {
    for (first, len) in map.runs() {
        put_u32(buf, len as u32);
        put_u32(buf, first);
    }
}

/// Decodes runs written by [`put_runs`] into `map`'s chunks. `None` unless
/// the bytes are whole runs, none empty or counting into the sentinel,
/// that cover `map` exactly.
pub(crate) fn get_runs(bytes: &[u8], map: &mut FwdMap) -> Option<()> {
    if !bytes.len().is_multiple_of(8) {
        return None;
    }
    let mut at = 0u64;
    for run in bytes.chunks_exact(8) {
        let (len, first) = (u64::from(get_u32(run, 0)), get_u32(run, 4));
        if len == 0 || at + len > map.len() {
            return None;
        }
        if first == UNMAPPED {
            map.unmap_range(at, len, |_| true);
        } else if u64::from(first) + len <= u64::from(UNMAPPED) {
            map.map_run(at, first, len, |_, _| true);
        } else {
            return None;
        }
        at += len;
    }
    (at == map.len()).then_some(())
}

/// Iterates the entries of a `Summary` payload in seal order. The
/// payload is checksummed as a whole, so entries are never torn.
pub(crate) fn summary_entries(payload: &[u8], kd: usize) -> impl Iterator<Item = SummaryEntry<'_>> {
    payload
        .chunks_exact(summary_entry_bytes(kd))
        .map(|e| SummaryEntry {
            group: get_u32(e, 0),
            stripe: get_u64(e, 8),
            lbas: &e[16..],
        })
}

/// FNV-1a's xor-then-multiply over the payload, taken a little-endian
/// `u64` word per multiply (the tail that is left, a byte per multiply,
/// last), seeded with the header identity — kind, epoch, sequence number
/// and payload length — so a record copied to the wrong position fails
/// verification. A word per step instead of a byte is what keeps a
/// multi-megabyte checkpoint off the rotation's critical path: the
/// multiplies are a dependent chain either way.
fn checksum(kind: u32, epoch: u64, seq: u64, payload: &[u8]) -> u32 {
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    let mut h = [u64::from(kind), epoch, seq, payload.len() as u64]
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, mix);
    let mut words = payload.chunks_exact(8);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    for &b in words.remainder() {
        h = mix(h, u64::from(b));
    }
    (h ^ (h >> 32)) as u32
}

/// Seals a record under construction: `buf` holds [`HEADER_BYTES`] of
/// reserved space followed by the payload. Fills the header, stamps the
/// checksum, and zero-pads to a whole number of sectors. Returns the
/// record length in sectors.
pub(crate) fn finish_record(buf: &mut Vec<u8>, kind: u32, epoch: u64, seq: u64) -> u64 {
    let payload_len = buf.len() - HEADER_BYTES;
    let sum = checksum(kind, epoch, seq, &buf[HEADER_BYTES..]);
    buf[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    buf[4..8].copy_from_slice(&kind.to_le_bytes());
    buf[8..16].copy_from_slice(&epoch.to_le_bytes());
    buf[16..24].copy_from_slice(&seq.to_le_bytes());
    buf[24..28].copy_from_slice(&(payload_len as u32).to_le_bytes());
    buf[28..32].copy_from_slice(&sum.to_le_bytes());
    let sectors = record_sectors(payload_len);
    buf.resize((sectors * SECTOR_SIZE) as usize, 0);
    sectors
}

/// Sectors a record with the given payload occupies on the log.
pub(crate) fn record_sectors(payload_len: usize) -> u64 {
    ((HEADER_BYTES + payload_len) as u64).div_ceil(SECTOR_SIZE)
}

/// Parses the record starting at `bytes[0]`. `bytes` must hold at least
/// one sector. Returns the record and its length in sectors, or `None`
/// if the header or checksum is invalid (a torn or unwritten tail).
pub(crate) fn parse_record(bytes: &[u8]) -> Option<(Record, u64)> {
    if bytes.len() < HEADER_BYTES || get_u32(bytes, 0) != MAGIC {
        return None;
    }
    let kind = get_u32(bytes, 4);
    let epoch = get_u64(bytes, 8);
    let seq = get_u64(bytes, 16);
    let payload_len = get_u32(bytes, 24) as usize;
    let sum = get_u32(bytes, 28);
    let sectors = record_sectors(payload_len);
    if bytes.len() < (sectors * SECTOR_SIZE) as usize {
        return None;
    }
    let payload = &bytes[HEADER_BYTES..HEADER_BYTES + payload_len];
    if checksum(kind, epoch, seq, payload) != sum {
        return None;
    }
    Some((
        Record {
            kind,
            epoch,
            seq,
            payload: payload.to_vec(),
        },
        sectors,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_roundtrip() {
        let mut buf = vec![0u8; HEADER_BYTES];
        put_u32(&mut buf, 7);
        put_u64(&mut buf, 0xdead_beef);
        let sectors = finish_record(&mut buf, kind::SUMMARY, 3, 41);
        assert_eq!(sectors, 1);
        assert_eq!(buf.len() as u64, SECTOR_SIZE);
        let (rec, n) = parse_record(&buf).expect("valid record");
        assert_eq!(n, 1);
        assert_eq!(rec.kind, kind::SUMMARY);
        assert_eq!(rec.epoch, 3);
        assert_eq!(rec.seq, 41);
        assert_eq!(get_u32(&rec.payload, 0), 7);
        assert_eq!(get_u64(&rec.payload, 4), 0xdead_beef);
    }

    #[test]
    fn multi_entry_summary_roundtrip() {
        let kd = 64usize;
        let stripes: Vec<(u32, u64, Vec<u32>)> = (0..4u32)
            .map(|s| {
                let lbas = (0..kd as u32)
                    .map(|i| if i % 7 == 0 { UNMAPPED } else { s * 1000 + i })
                    .collect();
                (3 + s / 3, 125 + u64::from(s), lbas)
            })
            .collect();
        let mut buf = vec![0u8; HEADER_BYTES];
        for (g, stripe, lbas) in &stripes {
            put_summary_entry(&mut buf, *g, *stripe, lbas.iter().copied());
        }
        assert_eq!(buf.len(), HEADER_BYTES + 4 * summary_entry_bytes(kd));
        // Four 64-slot entries share one sector: that is the group commit.
        assert_eq!(finish_record(&mut buf, kind::SUMMARY, 2, 9), 1);
        let (rec, _) = parse_record(&buf).expect("valid record");
        let got: Vec<(u32, u64, Vec<u32>)> = summary_entries(&rec.payload, kd)
            .map(|e| (e.group, e.stripe, e.lbas().collect()))
            .collect();
        assert_eq!(got, stripes);
    }

    /// A chunk map holding `entries`, sector by sector.
    fn chunked(entries: &[u32]) -> FwdMap {
        let mut map = FwdMap::new(entries.len() as u64);
        for (l, &pa) in (0..).zip(entries) {
            map.map_run(l, pa, 1, |_, _| pa != UNMAPPED);
        }
        map
    }

    /// Runs of `map`, and the map they expand to over a map that held
    /// other entries.
    fn runs_of(map: &[u32]) -> (Vec<u8>, Vec<u32>) {
        let mut bytes = Vec::new();
        put_runs(&mut bytes, &chunked(map));
        let mut back = chunked(&vec![0x5A5A_5A5A; map.len()]);
        get_runs(&bytes, &mut back).expect("runs cover the map");
        (bytes, back.to_vec())
    }

    /// The stretches a map is made of: unmapped holes, counting runs (one
    /// of them up to one short of the sentinel) and scattered entries,
    /// which make runs of length 1.
    fn stretch() -> impl Strategy<Value = Vec<u32>> {
        prop_oneof![
            (1usize..40).prop_map(|n| vec![UNMAPPED; n]),
            (0u32..1000, 1u32..40).prop_map(|(a, n)| (a..a + n).collect()),
            (1u32..40).prop_map(|n| (UNMAPPED - n..UNMAPPED).collect()),
            proptest::collection::vec(any::<u32>(), 1..8),
        ]
    }

    fn map() -> impl Strategy<Value = Vec<u32>> {
        prop_oneof![
            proptest::collection::vec(stretch(), 0..12).prop_map(|s| s.concat()),
            (0usize..300).prop_map(|n| vec![UNMAPPED; n]),
            (0u32..1000, 1u32..300).prop_map(|(a, n)| (a..a + n).collect()),
        ]
    }

    proptest! {
        /// Runs expand back to the map they were written from, are as
        /// long as they can be, and never take more than the 8 bytes per
        /// entry `assemble` sizes the checkpoint for.
        #[test]
        fn runs_roundtrip_within_eight_bytes_an_entry(map in map()) {
            let (bytes, back) = runs_of(&map);
            prop_assert_eq!(&back, &map);
            prop_assert!(bytes.len() <= 8 * map.len());
            let runs: Vec<(u32, u32)> = bytes
                .chunks_exact(8)
                .map(|r| (get_u32(r, 0), get_u32(r, 4)))
                .collect();
            for w in runs.windows(2) {
                let ((len, first), (_, next)) = (w[0], w[1]);
                let joins = match first {
                    UNMAPPED => next == UNMAPPED,
                    _ => next != UNMAPPED && u64::from(next) == u64::from(first) + u64::from(len),
                };
                prop_assert!(!joins, "runs {:?} could be one", w);
            }
        }
    }

    #[test]
    fn uniform_maps_are_one_run() {
        for map in [vec![UNMAPPED; 5000], (7..5007).collect()] {
            assert_eq!(runs_of(&map).0.len(), 8);
        }
        // Counting ends one short of the sentinel: the sentinel after it is
        // a run of its own.
        let edge = [UNMAPPED - 2, UNMAPPED - 1, UNMAPPED, UNMAPPED];
        assert_eq!(runs_of(&edge).0.len(), 16);
        assert!(runs_of(&[]).0.is_empty());
    }

    #[test]
    fn malformed_runs_are_rejected() {
        let map: Vec<u32> = [vec![UNMAPPED; 3], (10..14).collect(), vec![2, 3]].concat();
        let (good, _) = runs_of(&map);
        assert_eq!(good.len(), 24);
        let run = |len: u32, first: u32| [len.to_le_bytes(), first.to_le_bytes()].concat();
        let with_len = |i: usize, len: u32| {
            let mut b = good.clone();
            b[i * 8..i * 8 + 4].copy_from_slice(&len.to_le_bytes());
            b
        };
        let cases = [
            ("zero length", [run(0, 5), good.clone()].concat()),
            ("overrun", with_len(2, 3)),
            ("under-cover", good[..16].to_vec()),
            ("ragged tail", [&good[..], &[0u8; 4]].concat()),
            ("torn last run", good[..20].to_vec()),
            (
                "counts into the sentinel",
                [&good[..16], &run(2, UNMAPPED - 1)].concat(),
            ),
        ];
        for (what, bytes) in cases {
            let mut out = FwdMap::new(map.len() as u64);
            assert!(get_runs(&bytes, &mut out).is_none(), "{what}");
        }
    }

    #[test]
    fn torn_record_rejected() {
        let mut buf = vec![0u8; HEADER_BYTES];
        put_u64(&mut buf, 99);
        finish_record(&mut buf, kind::GROUP_FREE, 1, 1);
        // Flip a payload byte: checksum must fail.
        buf[HEADER_BYTES] ^= 0xff;
        assert!(parse_record(&buf).is_none());
        // Zeroed (unwritten) sector: magic must fail.
        assert!(parse_record(&[0u8; 4096]).is_none());
    }

    /// The definition, spelled out the slow way: words assembled by
    /// shifts from a byte iterator, no slices, no `from_le_bytes`.
    fn checksum_reference(kind: u32, epoch: u64, seq: u64, payload: &[u8]) -> u32 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        for w in [u64::from(kind), epoch, seq, payload.len() as u64] {
            mix(w);
        }
        let mut bytes = payload.iter().copied();
        for _ in 0..payload.len() / 8 {
            let mut w = 0u64;
            for shift in (0..64).step_by(8) {
                w |= u64::from(bytes.next().unwrap()) << shift;
            }
            mix(w);
        }
        for b in bytes {
            mix(u64::from(b));
        }
        (h ^ (h >> 32)) as u32
    }

    #[test]
    fn checksum_matches_the_naive_reference_at_every_tail_length() {
        let mut payload = vec![0u8; 67];
        sim::SimRng::new(0xC5).fill_bytes(&mut payload);
        for len in 0..=payload.len() {
            let p = &payload[..len];
            assert_eq!(
                checksum(kind::SUMMARY, 7, 1234, p),
                checksum_reference(kind::SUMMARY, 7, 1234, p),
                "payload of {len} bytes"
            );
        }
    }

    /// Five whole words and a three-byte tail.
    fn sealed_record() -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_BYTES];
        buf.extend((0..43u8).map(|i| i.wrapping_mul(37) ^ 0x5A));
        finish_record(&mut buf, kind::SUMMARY, 3, 41);
        assert!(parse_record(&buf).is_some());
        buf
    }

    #[test]
    fn single_bit_flips_are_rejected_in_words_and_tail() {
        let buf = sealed_record();
        // First word, last whole word, each tail byte.
        for byte in [0usize, 7, 32, 39, 40, 41, 42] {
            for bit in 0..8 {
                let mut torn = buf.clone();
                torn[HEADER_BYTES + byte] ^= 1 << bit;
                assert!(
                    parse_record(&torn).is_none(),
                    "payload byte {byte} bit {bit} flipped"
                );
            }
        }
    }

    #[test]
    fn record_replayed_under_another_identity_is_rejected() {
        let buf = sealed_record();
        // kind, epoch, seq as the header holds them.
        for (field, other) in [(4..8, 4u64), (8..16, 4), (16..24, 42)] {
            let mut moved = buf.clone();
            let n = field.len();
            moved[field].copy_from_slice(&other.to_le_bytes()[..n]);
            assert!(parse_record(&moved).is_none());
        }
    }
}
