//! The RAID-5 logical volume.

use crate::cache::StripeCache;
use crate::layout::Md5Layout;
use ftl::BlockDevice;
use parking_lot::Mutex;
use sim::{SimDuration, SimTime};
use std::sync::Arc;
use zns::{IoCompletion, Lba, Result, WriteFlags, ZnsError, SECTOR_SIZE};

/// Configuration of an [`Md5Volume`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Md5Config {
    /// Stripe unit ("chunk") size in sectors. The paper sweeps 8–128 KiB
    /// and settles on 64 KiB (16 sectors).
    pub chunk_sectors: u64,
    /// Stripe cache budget in bytes (md maximum, used in the paper:
    /// 128 MiB).
    pub stripe_cache_bytes: u64,
}

impl Default for Md5Config {
    fn default() -> Self {
        Md5Config {
            chunk_sectors: 16,
            stripe_cache_bytes: 128 * 1024 * 1024,
        }
    }
}

/// Outcome of a full-array resync after device replacement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResyncReport {
    /// Virtual time the resync took.
    pub duration: SimDuration,
    /// Bytes written to the replacement device (always the full device
    /// for mdraid — the Fig. 12 contrast).
    pub bytes_written: u64,
}

/// An mdraid-style RAID-5 volume over conventional block devices.
///
/// See the crate documentation for the modelled behaviours and an example.
pub struct Md5Volume {
    layout: Md5Layout,
    state: Mutex<State>,
    /// Array-layer spans (full-stripe vs RMW vs RCW path attribution,
    /// journal appends). mdraid has no zones, so spans carry
    /// no zone and address the stripe via its device-space offset in
    /// `lba`.
    tracer: obs::Tracer,
}

struct State {
    devices: Vec<Arc<dyn BlockDevice>>,
    failed: Option<usize>,
    cache: StripeCache,
    /// Optional write journal (md's `--write-journal`): every write is
    /// persisted to this device first, closing the RAID-5 write hole at
    /// the cost of doubling the write path. The paper benchmarks without
    /// it ("ensuring maximum performance"); it exists here so that cost
    /// is measurable.
    journal: Option<Journal>,
}

struct Journal {
    device: Arc<dyn BlockDevice>,
    cursor: u64,
}

impl std::fmt::Debug for Md5Volume {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Md5Volume")
            .field("layout", &self.layout)
            .finish_non_exhaustive()
    }
}

// Parity arithmetic goes through the shared word-vectorized kernel in
// `sim::xor`, the same one RAIZN's stripe/recovery paths use.
use sim::xor_into;

impl Md5Volume {
    /// Assembles a volume from `devices` (all the same capacity class; the
    /// smallest bounds the layout).
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::InvalidArgument`] if fewer than 3 devices are
    /// given or a chunk size of zero is configured.
    pub fn new(devices: Vec<Arc<dyn BlockDevice>>, config: Md5Config) -> Result<Self> {
        if devices.len() < 3 {
            return Err(ZnsError::InvalidArgument(format!(
                "RAID-5 needs >= 3 devices, got {}",
                devices.len()
            )));
        }
        if config.chunk_sectors == 0 {
            return Err(ZnsError::InvalidArgument(
                "chunk_sectors must be nonzero".to_string(),
            ));
        }
        let dev_sectors = devices
            .iter()
            .map(|d| d.capacity_sectors())
            .min()
            .ok_or_else(|| {
                ZnsError::InvalidArgument("RAID-5 needs a nonempty device list".to_string())
            })?;
        let layout = Md5Layout::new(devices.len() as u32, config.chunk_sectors, dev_sectors);
        let chunk_bytes = (config.chunk_sectors * SECTOR_SIZE) as usize;
        let slots = devices.len(); // n-1 data + 1 parity
        let cache = StripeCache::with_byte_budget(config.stripe_cache_bytes, slots, chunk_bytes);
        Ok(Md5Volume {
            layout,
            state: Mutex::new(State {
                devices,
                failed: None,
                cache,
                journal: None,
            }),
            tracer: obs::Tracer::new(),
        })
    }

    /// Attaches a write-journal device (md's `--write-journal`): every
    /// write is appended to the journal and flushed before touching the
    /// array, closing the RAID-5 write hole.
    pub fn attach_journal(&self, device: Arc<dyn BlockDevice>) {
        let mut st = self.state.lock();
        st.journal = Some(Journal { device, cursor: 0 });
    }

    /// Whether a write journal is attached.
    pub fn has_journal(&self) -> bool {
        self.state.lock().journal.is_some()
    }

    /// Attaches an observability recorder: array-layer spans (full-stripe
    /// vs read-modify-write vs reconstruct-write path attribution, journal
    /// appends, degraded reads) land on it.
    pub fn set_recorder(&self, recorder: Arc<obs::Recorder>) {
        self.tracer.attach(recorder, obs::NONE);
    }

    /// The address arithmetic of this array.
    pub fn layout(&self) -> Md5Layout {
        self.layout
    }

    /// Marks device `index` failed (it stops receiving IO; reads
    /// reconstruct from parity).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or another device already failed.
    pub fn fail_device(&self, index: usize) {
        let mut st = self.state.lock();
        assert!(index < st.devices.len(), "device index out of range");
        assert!(st.failed.is_none(), "RAID-5 tolerates one failure");
        st.failed = Some(index);
        st.cache.clear();
    }

    /// The currently failed device index, if any.
    pub fn failed_device(&self) -> Option<usize> {
        self.state.lock().failed
    }

    /// Parity-slot convention: cache slot for data chunk `k` is `k`; the
    /// parity chunk uses the last slot.
    fn parity_slot(&self) -> usize {
        self.layout.data_chunks() as usize
    }

    /// Reads `rows` sectors at `row_off` within `stripe` from the device
    /// holding `slot` (data chunk `k` or parity), reconstructing from the
    /// other devices if that device failed. Returns the completion time and
    /// fills `out`.
    fn fetch_rows(
        &self,
        st: &mut State,
        at: SimTime,
        stripe: u64,
        slot: usize,
        row_off: u64,
        out: &mut [u8],
    ) -> Result<SimTime> {
        let rows = (out.len() as u64) / SECTOR_SIZE;
        let chunk_bytes = (self.layout.chunk_sectors() * SECTOR_SIZE) as usize;
        // Cache fast path (full chunks only).
        if let Some(cached) = st.cache.get(stripe, slot) {
            let off = (row_off * SECTOR_SIZE) as usize;
            out.copy_from_slice(&cached[off..off + out.len()]);
            return Ok(at);
        }
        let dev_index = if slot == self.parity_slot() {
            self.layout.parity_device(stripe) as usize
        } else {
            self.layout.data_device(stripe, slot as u64) as usize
        };
        let dev_lba = self.layout.stripe_offset(stripe) + row_off;
        if st.failed != Some(dev_index) {
            let done = st.devices[dev_index].read(at, dev_lba, out)?.done;
            if row_off == 0 && rows == self.layout.chunk_sectors() {
                st.cache.put(stripe, slot, out);
            }
            return Ok(done);
        }
        // Degraded: XOR of the same rows on every surviving device.
        out.fill(0);
        let mut tmp = vec![0u8; out.len()];
        let mut done = at;
        for (i, dev) in st.devices.iter().enumerate() {
            if i == dev_index {
                continue;
            }
            let c = dev.read(at, dev_lba, &mut tmp)?;
            done = done.max(c.done);
            xor_into(out, &tmp);
        }
        if row_off == 0 && rows == self.layout.chunk_sectors() && out.len() == chunk_bytes {
            st.cache.put(stripe, slot, out);
        }
        self.tracer.leaf(
            obs::Span::new(obs::OpClass::Read, obs::Stage::WholeOp, at, done)
                .path(obs::PathKind::Degraded)
                .lba(dev_lba)
                .sectors(rows),
        );
        Ok(done)
    }

    /// Writes `data` rows at `row_off` of `stripe` to the device holding
    /// `slot`, skipping failed devices. Updates the cache.
    #[allow(clippy::too_many_arguments)]
    fn store_rows(
        &self,
        st: &mut State,
        at: SimTime,
        stripe: u64,
        slot: usize,
        row_off: u64,
        data: &[u8],
        flags: WriteFlags,
    ) -> Result<SimTime> {
        let dev_index = if slot == self.parity_slot() {
            self.layout.parity_device(stripe) as usize
        } else {
            self.layout.data_device(stripe, slot as u64) as usize
        };
        let full_chunk =
            row_off == 0 && data.len() as u64 / SECTOR_SIZE == self.layout.chunk_sectors();
        if full_chunk {
            st.cache.put(stripe, slot, data);
        } else {
            st.cache
                .patch(stripe, slot, (row_off * SECTOR_SIZE) as usize, data);
        }
        if st.failed == Some(dev_index) {
            return Ok(at); // degraded write: the chunk lives only in parity
        }
        let dev_lba = self.layout.stripe_offset(stripe) + row_off;
        Ok(st.devices[dev_index].write(at, dev_lba, data, flags)?.done)
    }

    /// Handles the portion of a write that falls within one stripe.
    #[allow(clippy::too_many_arguments)]
    fn write_stripe(
        &self,
        st: &mut State,
        at: SimTime,
        stripe: u64,
        // (data chunk index, first row, data) per touched chunk
        touched: &[(u64, u64, &[u8])],
        flags: WriteFlags,
    ) -> Result<SimTime> {
        let chunk = self.layout.chunk_sectors();
        let chunk_bytes = (chunk * SECTOR_SIZE) as usize;
        let n_data = self.layout.data_chunks();
        let full_stripe = touched.len() as u64 == n_data
            && touched
                .iter()
                .all(|(_, row, d)| *row == 0 && d.len() == chunk_bytes);

        if full_stripe {
            // Full-stripe write: parity from the new data alone, no reads.
            let mut parity = vec![0u8; chunk_bytes];
            for (_, _, d) in touched {
                xor_into(&mut parity, d);
            }
            let mut done = at;
            for (k, row, d) in touched {
                done = done.max(self.store_rows(st, at, stripe, *k as usize, *row, d, flags)?);
            }
            done =
                done.max(self.store_rows(st, at, stripe, self.parity_slot(), 0, &parity, flags)?);
            self.tracer.leaf(
                obs::Span::new(obs::OpClass::Write, obs::Stage::Xor, at, done)
                    .path(obs::PathKind::FullStripe)
                    .lba(self.layout.stripe_offset(stripe))
                    .sectors(chunk * n_data),
            );
            return Ok(done);
        }

        // Partial stripe: parity must be updated over the union row range.
        let nonempty =
            || ZnsError::InvalidArgument("write_stripe requires a touched chunk".to_string());
        let u0 = touched
            .iter()
            .map(|(_, r, _)| *r)
            .min()
            .ok_or_else(nonempty)?;
        let u1 = touched
            .iter()
            .map(|(_, r, d)| r + d.len() as u64 / SECTOR_SIZE)
            .max()
            .ok_or_else(nonempty)?;
        let union_rows = u1 - u0;
        let union_bytes = (union_rows * SECTOR_SIZE) as usize;
        let parity_dev = self.layout.parity_device(stripe) as usize;
        let parity_failed = st.failed == Some(parity_dev);
        let touched_is_failed = |k: u64| {
            st.failed
                .is_some_and(|f| self.layout.data_device(stripe, k) as usize == f)
        };

        // Strategy choice by IO count, like md: read-modify-write touches
        // the old data + parity; reconstruct-write touches the untouched
        // chunks. A write to the failed chunk forces reconstruct-write.
        let rmw_reads = touched.len() + 1;
        let rcw_reads = (n_data as usize) - touched.len()
            + touched
                .iter()
                .filter(|(_, r, d)| !(*r == u0 && d.len() == union_bytes))
                .count();
        let must_rcw = touched.iter().any(|(k, _, _)| touched_is_failed(*k));
        let use_rmw = !must_rcw && rmw_reads <= rcw_reads && !parity_failed;

        let mut parity = vec![0u8; union_bytes];
        let mut reads_done = at;
        if use_rmw {
            self_read_parity(self, st, at, stripe, u0, &mut parity, &mut reads_done)?;
            for (k, row, d) in touched {
                let mut old = vec![0u8; d.len()];
                let done = self.fetch_rows(st, at, stripe, *k as usize, *row, &mut old)?;
                reads_done = reads_done.max(done);
                // parity ^= old ^ new over this chunk's rows.
                let off = ((*row - u0) * SECTOR_SIZE) as usize;
                xor_into(&mut parity[off..off + d.len()], &old);
                xor_into(&mut parity[off..off + d.len()], d);
            }
        } else {
            // Reconstruct-write: parity over the union = XOR of every data
            // chunk's union rows (new data where written, fetched
            // otherwise).
            for k in 0..n_data {
                let written = touched.iter().find(|(tk, _, _)| *tk == k);
                let mut col = vec![0u8; union_bytes];
                match written {
                    Some((_, row, d)) => {
                        let off = ((*row - u0) * SECTOR_SIZE) as usize;
                        col[off..off + d.len()].copy_from_slice(d);
                        // Rows of this chunk inside the union but outside
                        // the written range must be fetched.
                        if off > 0 {
                            let done =
                                self.fetch_rows(st, at, stripe, k as usize, u0, &mut col[..off])?;
                            reads_done = reads_done.max(done);
                        }
                        let tail = off + d.len();
                        if tail < union_bytes {
                            let done = self.fetch_rows(
                                st,
                                at,
                                stripe,
                                k as usize,
                                u0 + (tail as u64 / SECTOR_SIZE),
                                &mut col[tail..],
                            )?;
                            reads_done = reads_done.max(done);
                        }
                    }
                    None => {
                        let done = self.fetch_rows(st, at, stripe, k as usize, u0, &mut col)?;
                        reads_done = reads_done.max(done);
                    }
                }
                xor_into(&mut parity, &col);
            }
        }

        // Writes are issued once the reads they depend on completed.
        let wat = reads_done;
        let mut done = wat;
        for (k, row, d) in touched {
            done =
                done.max(self.store_rows(st, at.max(wat), stripe, *k as usize, *row, d, flags)?);
        }
        if !parity_failed {
            done = done.max(self.store_rows(
                st,
                wat,
                stripe,
                self.parity_slot(),
                u0,
                &parity,
                flags,
            )?);
        }
        let path = if use_rmw {
            obs::PathKind::Rmw
        } else {
            obs::PathKind::Rcw
        };
        self.tracer.leaf(
            obs::Span::new(obs::OpClass::Write, obs::Stage::Xor, at, done)
                .path(path)
                .lba(self.layout.stripe_offset(stripe) + u0)
                .sectors(union_rows),
        );
        Ok(done)
    }

    /// Rebuilds a replaced device: reads every stripe's surviving chunks,
    /// reconstructs the missing chunk and writes it out — over the **whole
    /// address space**, independent of how much data the volume holds.
    ///
    /// # Errors
    ///
    /// Returns [`ZnsError::InvalidArgument`] when no device is failed, or
    /// propagates device IO errors.
    pub fn resync(&self, at: SimTime, replacement: Arc<dyn BlockDevice>) -> Result<ResyncReport> {
        let mut st = self.state.lock();
        let failed = st.failed.ok_or_else(|| {
            ZnsError::InvalidArgument("resync requires a failed device".to_string())
        })?;
        let chunk = self.layout.chunk_sectors();
        let chunk_bytes = (chunk * SECTOR_SIZE) as usize;
        let mut cursor = at;
        let mut last_write = at;
        let mut bytes = 0u64;
        let mut buf = vec![0u8; chunk_bytes];
        let mut acc = vec![0u8; chunk_bytes];
        for stripe in 0..self.layout.stripes() {
            let dev_lba = self.layout.stripe_offset(stripe);
            acc.fill(0);
            let mut reads_done = cursor;
            for (i, dev) in st.devices.iter().enumerate() {
                if i == failed {
                    continue;
                }
                let c = dev.read(cursor, dev_lba, &mut buf)?;
                reads_done = reads_done.max(c.done);
                xor_into(&mut acc, &buf);
            }
            let w = replacement.write(reads_done, dev_lba, &acc, WriteFlags::default())?;
            last_write = last_write.max(w.done);
            bytes += chunk_bytes as u64;
            // Pipeline: issue the next stripe's reads immediately; the
            // device queues bound the actual rates.
            cursor = reads_done;
        }
        st.devices[failed] = replacement;
        st.failed = None;
        st.cache.clear();
        Ok(ResyncReport {
            duration: last_write.since(at),
            bytes_written: bytes,
        })
    }
}

/// Reads the union-range parity rows (helper split out of `write_stripe`
/// for borrow-checker clarity).
fn self_read_parity(
    vol: &Md5Volume,
    st: &mut State,
    at: SimTime,
    stripe: u64,
    u0: u64,
    parity: &mut [u8],
    reads_done: &mut SimTime,
) -> Result<()> {
    let slot = vol.parity_slot();
    let done = vol.fetch_rows(st, at, stripe, slot, u0, parity)?;
    *reads_done = (*reads_done).max(done);
    Ok(())
}

impl BlockDevice for Md5Volume {
    fn capacity_sectors(&self) -> u64 {
        self.layout.capacity_sectors()
    }

    fn read(&self, at: SimTime, lba: Lba, buf: &mut [u8]) -> Result<IoCompletion> {
        let sectors = buf.len() as u64 / SECTOR_SIZE;
        if buf.is_empty() || !buf.len().is_multiple_of(SECTOR_SIZE as usize) {
            return Err(ZnsError::InvalidArgument(format!(
                "buffer length {} is not a positive multiple of the sector size",
                buf.len()
            )));
        }
        if lba + sectors > self.capacity_sectors() {
            return Err(ZnsError::OutOfRange { lba, sectors });
        }
        let chunk = self.layout.chunk_sectors();
        let mut st = self.state.lock();
        let mut done = at;
        let mut cursor = lba;
        let mut off = 0usize;
        while cursor < lba + sectors {
            let (stripe, k, within) = self.layout.locate(cursor);
            let rows = (chunk - within).min(lba + sectors - cursor);
            let len = (rows * SECTOR_SIZE) as usize;
            let c = self.fetch_rows(
                &mut st,
                at,
                stripe,
                k as usize,
                within,
                &mut buf[off..off + len],
            )?;
            done = done.max(c);
            cursor += rows;
            off += len;
        }
        self.tracer.leaf(
            obs::Span::new(obs::OpClass::Read, obs::Stage::WholeOp, at, done)
                .lba(lba)
                .sectors(sectors),
        );
        Ok(IoCompletion { done })
    }

    fn write(&self, at: SimTime, lba: Lba, data: &[u8], flags: WriteFlags) -> Result<IoCompletion> {
        let sectors = data.len() as u64 / SECTOR_SIZE;
        if data.is_empty() || !data.len().is_multiple_of(SECTOR_SIZE as usize) {
            return Err(ZnsError::InvalidArgument(format!(
                "buffer length {} is not a positive multiple of the sector size",
                data.len()
            )));
        }
        if lba + sectors > self.capacity_sectors() {
            return Err(ZnsError::OutOfRange { lba, sectors });
        }
        let chunk = self.layout.chunk_sectors();
        let n_data = self.layout.data_chunks();
        let stripe_sectors = chunk * n_data;
        let mut st = self.state.lock();
        let mut at = at;
        // Journal-first: the data must be durable on the journal device
        // before the (non-atomic) multi-device stripe update begins.
        let journal_done = match st.journal.as_ref() {
            Some(j) => {
                let jcap = j.device.capacity_sectors();
                let mut cur = j.cursor;
                if cur + sectors > jcap {
                    cur = 0; // ring wrap
                }
                let c = j.device.write(at, cur, data, flags)?;
                let f = j.device.flush(c.done)?;
                Some((f.done, cur + sectors))
            }
            None => None,
        };
        if let Some((jdone, jcur)) = journal_done {
            if let Some(j) = st.journal.as_mut() {
                j.cursor = jcur;
            }
            self.tracer.leaf(
                obs::Span::new(obs::OpClass::Append, obs::Stage::MetaAppend, at, jdone)
                    .lba(lba)
                    .sectors(sectors),
            );
            at = jdone;
        }
        let mut done = at;
        let mut cursor = lba;
        let mut off = 0usize;
        while cursor < lba + sectors {
            let stripe = cursor / stripe_sectors;
            let stripe_end = (stripe + 1) * stripe_sectors;
            let span = (stripe_end - cursor).min(lba + sectors - cursor);
            // Collect the touched chunks of this stripe.
            let mut touched: Vec<(u64, u64, &[u8])> = Vec::new();
            let mut c2 = cursor;
            let mut o2 = off;
            while c2 < cursor + span {
                let (s2, k, within) = self.layout.locate(c2);
                debug_assert_eq!(s2, stripe);
                let rows = (chunk - within).min(cursor + span - c2);
                let len = (rows * SECTOR_SIZE) as usize;
                touched.push((k, within, &data[o2..o2 + len]));
                c2 += rows;
                o2 += len;
            }
            let c = self.write_stripe(&mut st, at, stripe, &touched, flags)?;
            done = done.max(c);
            cursor += span;
            off += (span * SECTOR_SIZE) as usize;
        }
        self.tracer.leaf(
            obs::Span::new(obs::OpClass::Write, obs::Stage::WholeOp, at, done)
                .lba(lba)
                .sectors(sectors),
        );
        Ok(IoCompletion { done })
    }

    fn trim(&self, at: SimTime, lba: Lba, sectors: u64) -> Result<IoCompletion> {
        if lba + sectors > self.capacity_sectors() {
            return Err(ZnsError::OutOfRange { lba, sectors });
        }
        let chunk = self.layout.chunk_sectors();
        let st = self.state.lock();
        let mut done = at;
        let mut cursor = lba;
        while cursor < lba + sectors {
            let (stripe, k, within) = self.layout.locate(cursor);
            let rows = (chunk - within).min(lba + sectors - cursor);
            let dev = self.layout.data_device(stripe, k) as usize;
            if st.failed != Some(dev) {
                let dev_lba = self.layout.stripe_offset(stripe) + within;
                let c = st.devices[dev].trim(at, dev_lba, rows)?;
                done = done.max(c.done);
            }
            cursor += rows;
        }
        // Like md passing down discards, parity is left stale; subsequent
        // writes recompute it.
        Ok(IoCompletion { done })
    }

    fn flush(&self, at: SimTime) -> Result<IoCompletion> {
        let st = self.state.lock();
        let mut done = at;
        for (i, dev) in st.devices.iter().enumerate() {
            if st.failed == Some(i) {
                continue;
            }
            done = done.max(dev.flush(at)?.done);
        }
        self.tracer.leaf(obs::Span::new(
            obs::OpClass::Flush,
            obs::Stage::Flush,
            at,
            done,
        ));
        Ok(IoCompletion { done })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftl::{ConvSsd, FtlConfig};

    fn make(n: usize) -> Md5Volume {
        let devs: Vec<Arc<dyn BlockDevice>> = (0..n)
            .map(|_| Arc::new(ConvSsd::new(FtlConfig::small_test())) as Arc<dyn BlockDevice>)
            .collect();
        Md5Volume::new(
            devs,
            Md5Config {
                chunk_sectors: 4,
                stripe_cache_bytes: 1024 * 1024,
            },
        )
        .unwrap()
    }

    fn bytes(sectors: u64, fill: u8) -> Vec<u8> {
        vec![fill; (sectors * SECTOR_SIZE) as usize]
    }

    #[test]
    fn small_write_read_roundtrip() {
        let v = make(3);
        let data = bytes(1, 0x5A);
        v.write(SimTime::ZERO, 7, &data, WriteFlags::default())
            .unwrap();
        let mut out = bytes(1, 0);
        v.read(SimTime::ZERO, 7, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn large_write_spans_stripes() {
        let v = make(5);
        // 3 full stripes + change: 4 data chunks * 4 sectors = 16/stripe.
        let mut data = bytes(40, 0);
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        v.write(SimTime::ZERO, 3, &data, WriteFlags::default())
            .unwrap();
        let mut out = bytes(40, 0);
        v.read(SimTime::ZERO, 3, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn degraded_read_reconstructs() {
        let v = make(4);
        let data: Vec<u8> = (0..(24 * SECTOR_SIZE)).map(|i| (i % 255) as u8).collect();
        v.write(SimTime::ZERO, 0, &data, WriteFlags::default())
            .unwrap();
        v.fail_device(1);
        let mut out = vec![0u8; data.len()];
        v.read(SimTime::ZERO, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn degraded_write_then_read_back() {
        let v = make(4);
        v.fail_device(2);
        let data: Vec<u8> = (0..(16 * SECTOR_SIZE as usize))
            .map(|i| (i * 7 % 253) as u8)
            .collect();
        v.write(SimTime::ZERO, 5, &data, WriteFlags::default())
            .unwrap();
        let mut out = vec![0u8; data.len()];
        v.read(SimTime::ZERO, 5, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn resync_restores_redundancy() {
        let v = make(3);
        let data: Vec<u8> = (0..(32 * SECTOR_SIZE as usize))
            .map(|i| (i % 249) as u8)
            .collect();
        v.write(SimTime::ZERO, 0, &data, WriteFlags::default())
            .unwrap();
        v.fail_device(0);
        let replacement: Arc<dyn BlockDevice> = Arc::new(ConvSsd::new(FtlConfig::small_test()));
        let report = v.resync(SimTime::ZERO, replacement).unwrap();
        assert!(report.bytes_written > 0);
        assert!(v.failed_device().is_none());
        // Fail a *different* device; reconstruction must still work, which
        // proves the replacement holds correct contents.
        v.fail_device(1);
        let mut out = vec![0u8; data.len()];
        v.read(SimTime::ZERO, 0, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn resync_covers_entire_device() {
        let v = make(3);
        // Write only a little data; resync must still cover all stripes.
        v.write(SimTime::ZERO, 0, &bytes(4, 1), WriteFlags::default())
            .unwrap();
        v.fail_device(2);
        let replacement: Arc<dyn BlockDevice> = Arc::new(ConvSsd::new(FtlConfig::small_test()));
        let report = v.resync(SimTime::ZERO, replacement).unwrap();
        let expected = v.layout().stripes() * v.layout().chunk_sectors() * SECTOR_SIZE;
        assert_eq!(report.bytes_written, expected);
    }

    #[test]
    fn overwrite_updates_parity() {
        let v = make(3);
        v.write(SimTime::ZERO, 0, &bytes(2, 1), WriteFlags::default())
            .unwrap();
        v.write(SimTime::ZERO, 0, &bytes(2, 9), WriteFlags::default())
            .unwrap();
        v.fail_device(0);
        let mut out = bytes(2, 0);
        v.read(SimTime::ZERO, 0, &mut out).unwrap();
        assert_eq!(out, bytes(2, 9));
    }

    #[test]
    fn capacity_and_bounds() {
        let v = make(3);
        let cap = v.capacity_sectors();
        assert!(cap > 0);
        assert!(matches!(
            v.write(SimTime::ZERO, cap, &bytes(1, 0), WriteFlags::default()),
            Err(ZnsError::OutOfRange { .. })
        ));
        let mut buf = bytes(1, 0);
        assert!(matches!(
            v.read(SimTime::ZERO, cap, &mut buf),
            Err(ZnsError::OutOfRange { .. })
        ));
    }

    #[test]
    fn two_device_array_rejected() {
        let devs: Vec<Arc<dyn BlockDevice>> = (0..2)
            .map(|_| Arc::new(ConvSsd::new(FtlConfig::small_test())) as Arc<dyn BlockDevice>)
            .collect();
        assert!(Md5Volume::new(devs, Md5Config::default()).is_err());
    }

    #[test]
    fn random_write_read_fuzz() {
        let v = make(5);
        let cap = v.capacity_sectors();
        let mut model = vec![0u8; (cap * SECTOR_SIZE) as usize];
        let mut rng = sim::SimRng::new(7);
        for _ in 0..300 {
            let sectors = 1 + rng.gen_range(12);
            let lba = rng.gen_range(cap - sectors);
            let mut data = bytes(sectors, 0);
            rng.fill_bytes(&mut data);
            v.write(SimTime::ZERO, lba, &data, WriteFlags::default())
                .unwrap();
            let off = (lba * SECTOR_SIZE) as usize;
            model[off..off + data.len()].copy_from_slice(&data);
        }
        let mut out = vec![0u8; model.len()];
        v.read(SimTime::ZERO, 0, &mut out).unwrap();
        assert_eq!(out, model);
    }

    #[test]
    fn journal_preserves_correctness() {
        let v = make(3);
        let journal: Arc<dyn BlockDevice> = Arc::new(ConvSsd::new(FtlConfig::small_test()));
        v.attach_journal(journal);
        assert!(v.has_journal());
        let data: Vec<u8> = (0..(24 * SECTOR_SIZE as usize))
            .map(|i| (i % 241) as u8)
            .collect();
        v.write(SimTime::ZERO, 0, &data, WriteFlags::default())
            .unwrap();
        let mut out = vec![0u8; data.len()];
        v.read(SimTime::ZERO, 0, &mut out).unwrap();
        assert_eq!(out, data);
        // Degraded reconstruction still works with the journal attached.
        v.fail_device(1);
        let mut out2 = vec![0u8; data.len()];
        v.read(SimTime::ZERO, 0, &mut out2).unwrap();
        assert_eq!(out2, data);
    }

    #[test]
    fn journal_costs_write_time() {
        let mk = |journal: bool| {
            let devs: Vec<Arc<dyn BlockDevice>> = (0..3)
                .map(|_| {
                    Arc::new(ConvSsd::new(FtlConfig {
                        latency: zns::LatencyConfig::conventional_ssd(),
                        store_data: false,
                        ..FtlConfig::small_test()
                    })) as Arc<dyn BlockDevice>
                })
                .collect();
            let v = Md5Volume::new(
                devs,
                Md5Config {
                    chunk_sectors: 4,
                    stripe_cache_bytes: 1024 * 1024,
                },
            )
            .unwrap();
            if journal {
                let j: Arc<dyn BlockDevice> = Arc::new(ConvSsd::new(FtlConfig {
                    latency: zns::LatencyConfig::conventional_ssd(),
                    store_data: false,
                    ..FtlConfig::small_test()
                }));
                v.attach_journal(j);
            }
            let data = vec![0u8; (8 * SECTOR_SIZE) as usize];
            let mut t = SimTime::ZERO;
            for i in 0..32u64 {
                t = v
                    .write(
                        t,
                        (i * 8) % v.capacity_sectors(),
                        &data,
                        WriteFlags::default(),
                    )
                    .unwrap()
                    .done;
            }
            t
        };
        let plain = mk(false);
        let journaled = mk(true);
        assert!(
            journaled > plain,
            "journal should cost write latency: {plain} vs {journaled}"
        );
    }

    #[test]
    fn degraded_random_fuzz() {
        let v = make(4);
        let cap = v.capacity_sectors();
        let mut model = vec![0u8; (cap * SECTOR_SIZE) as usize];
        let mut rng = sim::SimRng::new(13);
        // Fill fully so degraded reconstruction has defined parity
        // everywhere.
        let mut init = vec![0u8; model.len()];
        rng.fill_bytes(&mut init);
        v.write(SimTime::ZERO, 0, &init, WriteFlags::default())
            .unwrap();
        model.copy_from_slice(&init);
        v.fail_device(3);
        for _ in 0..200 {
            let sectors = 1 + rng.gen_range(9);
            let lba = rng.gen_range(cap - sectors);
            let mut data = bytes(sectors, 0);
            rng.fill_bytes(&mut data);
            v.write(SimTime::ZERO, lba, &data, WriteFlags::default())
                .unwrap();
            let off = (lba * SECTOR_SIZE) as usize;
            model[off..off + data.len()].copy_from_slice(&data);
        }
        let mut out = vec![0u8; model.len()];
        v.read(SimTime::ZERO, 0, &mut out).unwrap();
        assert_eq!(out, model);
    }
}
