//! Stripe buffers: in-memory staging for partially written stripes (§5.1).

use zns::array::unit_segments;
use zns::SECTOR_SIZE;

/// The in-memory buffer of one (possibly incomplete) stripe.
///
/// Logical zone writes are sequential, so a stripe fills strictly from its
/// beginning; the buffer tracks the fill frontier, keeps the data of every
/// unit, and maintains the *running parity* — the XOR of all data written
/// so far, with unwritten bytes treated as zero. Past the frontier the
/// data region is undefined (a recycled buffer keeps its last stripe's
/// bytes there; no accessor reaches them) and the parity columns are zero
/// (whole columns are logged and stored). When a non-stripe-aligned
/// write completes, the affected rows of the running parity are logged as
/// partial parity; when the stripe completes, the full parity column is
/// written to the parity device and the buffer is recycled.
///
/// # Examples
///
/// ```
/// use raizn::StripeBuffer;
/// let mut b = StripeBuffer::new(0, 2, 2); // 2 data units of 2 sectors
/// let data = vec![3u8; 4096];
/// let rows = b.fill(&data);
/// assert_eq!(rows, (0, 1));      // parity rows [0,1) affected
/// assert_eq!(b.filled_sectors(), 1);
/// assert!(!b.is_complete());
/// assert_eq!(b.parity()[0], 3);  // parity == lone contributor
/// ```
#[derive(Debug, Clone)]
pub struct StripeBuffer {
    stripe: u64,
    data_units: u64,
    unit_sectors: u64,
    data: Vec<u8>,
    parity: Vec<u8>,
    /// Running GF(2^8) Reed–Solomon parity (RAIZN-2); empty in
    /// single-parity mode so the dual-mode cost is opt-in.
    q: Vec<u8>,
    filled: u64,
}

impl StripeBuffer {
    /// Creates an empty buffer for `stripe` with `data_units` units of
    /// `unit_sectors` sectors.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(stripe: u64, data_units: u64, unit_sectors: u64) -> Self {
        Self::with_parity(stripe, data_units, unit_sectors, 1)
    }

    /// Creates an empty buffer maintaining `parity_units` running parity
    /// columns: 1 (XOR parity P) or 2 (P plus the GF(2^8) Q column).
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `parity_units` is not 1 or 2.
    pub fn with_parity(stripe: u64, data_units: u64, unit_sectors: u64, parity_units: u32) -> Self {
        assert!(data_units > 0 && unit_sectors > 0, "empty stripe shape");
        assert!(
            parity_units == 1 || parity_units == 2,
            "parity_units must be 1 or 2"
        );
        let col = (unit_sectors * SECTOR_SIZE) as usize;
        StripeBuffer {
            stripe,
            data_units,
            unit_sectors,
            data: vec![0u8; (data_units as usize) * col],
            parity: vec![0u8; col],
            q: vec![0u8; if parity_units == 2 { col } else { 0 }],
            filled: 0,
        }
    }

    /// The stripe index this buffer stages.
    pub fn stripe(&self) -> u64 {
        self.stripe
    }

    /// Sectors filled from the start of the stripe.
    pub fn filled_sectors(&self) -> u64 {
        self.filled
    }

    /// Whether every data unit is fully written.
    pub fn is_complete(&self) -> bool {
        self.filled == self.data_units * self.unit_sectors
    }

    /// Appends `data` at the fill frontier, XORs it into the running
    /// parity, and returns the affected parity row hull `(first, last+1)`
    /// in sectors — the range a partial-parity log entry must cover.
    ///
    /// The parity update is *not* per sector: the written range is split
    /// at stripe-unit boundaries, and each unit segment — whose sectors
    /// occupy contiguous parity rows — is folded into P (and Q) as one
    /// contiguous range by [`sim::codec::absorb`]. The row hull falls out
    /// of the same segment arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if the write overflows the stripe or is not sector aligned.
    pub fn fill(&mut self, data: &[u8]) -> (u64, u64) {
        assert_eq!(
            data.len() % SECTOR_SIZE as usize,
            0,
            "stripe fill must be sector aligned"
        );
        let sectors = data.len() as u64 / SECTOR_SIZE;
        assert!(
            self.filled + sectors <= self.data_units * self.unit_sectors,
            "stripe buffer overflow"
        );
        let start = self.filled;
        let off = (start * SECTOR_SIZE) as usize;
        self.data[off..off + data.len()].copy_from_slice(data);
        // Each unit segment lands on contiguous parity rows: fold it in
        // as a single contiguous range.
        let su = self.unit_sectors;
        let end = start + sectors;
        let (mut row_lo, mut row_hi) = (u64::MAX, 0u64);
        for (s, row, run) in unit_segments(start, end, su) {
            row_lo = row_lo.min(row);
            row_hi = row_hi.max(row + run);
            let d_off = (s * SECTOR_SIZE) as usize;
            let len = (run * SECTOR_SIZE) as usize;
            sim::codec::absorb(
                &mut self.parity,
                (!self.q.is_empty()).then_some(&mut self.q[..]),
                (s / su) as u32,
                (row * SECTOR_SIZE) as usize,
                &self.data[d_off..d_off + len],
            );
        }
        self.filled = end;
        // Convex hull of the touched rows (a superset of the paper's exact
        // union when a write wraps across units — harmless for recovery,
        // documented in DESIGN.md).
        (row_lo, row_hi)
    }

    /// The running parity column (`unit_sectors` sectors).
    pub fn parity(&self) -> &[u8] {
        &self.parity
    }

    /// How many running parity columns this buffer maintains (1 or 2).
    pub fn parity_units(&self) -> u32 {
        if self.q.is_empty() {
            1
        } else {
            2
        }
    }

    /// The running Q (GF(2^8) Reed–Solomon) parity column.
    ///
    /// # Panics
    ///
    /// Panics in single-parity mode (no Q column is maintained).
    pub fn q_parity(&self) -> &[u8] {
        assert!(!self.q.is_empty(), "no Q column in single-parity mode");
        &self.q
    }

    /// The written prefix of unit `k`: whole below the fill frontier,
    /// empty above it, and the frontier unit's sectors so far.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn unit_data(&self, k: u64) -> &[u8] {
        assert!(k < self.data_units, "unit index out of range");
        let start = k * self.unit_sectors;
        let end = self.filled.clamp(start, start + self.unit_sectors);
        &self.data[(start * SECTOR_SIZE) as usize..(end * SECTOR_SIZE) as usize]
    }

    /// The staged bytes for the sector range `[from, to)` within the
    /// stripe (zone reads of the incomplete stripe are served from here
    /// when a device is missing).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the fill frontier.
    pub fn read_range(&self, from: u64, to: u64) -> &[u8] {
        assert!(from <= to && to <= self.filled, "read beyond fill frontier");
        &self.data[(from * SECTOR_SIZE) as usize..(to * SECTOR_SIZE) as usize]
    }

    /// Resets the buffer for reuse on a new stripe, clearing only the
    /// dirty parity rows.
    ///
    /// Fills are strictly sequential from the start of the stripe, so the
    /// dirty parity is exactly the first `min(filled, unit_sectors)` rows;
    /// everything beyond is still zero from construction (or the previous
    /// recycle). The data region is left as it is: every reader stops at
    /// the fill frontier, below which the new stripe's fills overwrite it.
    pub fn recycle(&mut self, stripe: u64) {
        self.stripe = stripe;
        let parity_dirty = (self.filled.min(self.unit_sectors) * SECTOR_SIZE) as usize;
        self.parity[..parity_dirty].fill(0);
        if !self.q.is_empty() {
            self.q[..parity_dirty].fill(0);
        }
        self.filled = 0;
    }

    /// Whether this buffer stages stripes of the given shape, parity
    /// columns included (used by the volume to check a recycled buffer is
    /// interchangeable with a fresh one; a dual-parity zone must not be
    /// handed a single-parity buffer).
    pub fn shape_matches_parity(&self, data_units: u64, unit_sectors: u64, parity: u32) -> bool {
        self.data_units == data_units
            && self.unit_sectors == unit_sectors
            && self.parity_units() == parity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sector(fill: u8) -> Vec<u8> {
        vec![fill; SECTOR_SIZE as usize]
    }

    #[test]
    fn parity_is_xor_of_units() {
        let mut b = StripeBuffer::new(3, 2, 1);
        b.fill(&sector(0b1010));
        b.fill(&sector(0b0110));
        assert!(b.is_complete());
        assert!(b.parity().iter().all(|p| *p == 0b1100));
    }

    #[test]
    fn fill_reports_row_hull() {
        let mut b = StripeBuffer::new(0, 3, 4);
        // 2 sectors -> rows [0,2) of unit 0.
        assert_eq!(b.fill(&vec![1; 2 * 4096]), (0, 2));
        // 4 sectors: rows [2,4) of unit 0 + rows [0,2) of unit 1 -> hull [0,4).
        assert_eq!(b.fill(&vec![2; 4 * 4096]), (0, 4));
        // 1 sector: row [2,3) of unit 1.
        assert_eq!(b.fill(&vec![3; 4096]), (2, 3));
    }

    #[test]
    fn unit_data_extraction() {
        let mut b = StripeBuffer::new(0, 3, 2);
        b.fill(&vec![5; 3 * SECTOR_SIZE as usize]);
        // Whole below the frontier, the sectors so far at it, none above.
        assert_eq!(b.unit_data(0), &[sector(5), sector(5)].concat()[..]);
        assert_eq!(b.unit_data(1), &sector(5)[..]);
        assert!(b.unit_data(2).is_empty());
    }

    #[test]
    fn read_range_serves_written_prefix() {
        let mut b = StripeBuffer::new(0, 2, 2);
        b.fill(&sector(1));
        b.fill(&sector(2));
        let r = b.read_range(1, 2);
        assert!(r.iter().all(|x| *x == 2));
    }

    #[test]
    fn recycle_clears_state() {
        let mut b = StripeBuffer::new(0, 2, 1);
        b.fill(&sector(9));
        b.recycle(7);
        assert_eq!(b.stripe(), 7);
        assert_eq!(b.filled_sectors(), 0);
        assert!(b.parity().iter().all(|x| *x == 0));
    }

    #[test]
    fn q_column_tracks_rs_code() {
        let mut b = StripeBuffer::with_parity(0, 4, 4, 2);
        let mut rng = sim::SimRng::new(0x9A);
        let mut chunk = vec![0u8; 3 * SECTOR_SIZE as usize];
        for _ in 0..5 {
            rng.fill_bytes(&mut chunk);
            b.fill(&chunk);
        }
        rng.fill_bytes(&mut chunk[..SECTOR_SIZE as usize]);
        b.fill(&chunk[..SECTOR_SIZE as usize]);
        assert!(b.is_complete());
        let su_bytes = (4 * SECTOR_SIZE) as usize;
        let mut p = vec![0u8; su_bytes];
        let mut q = vec![0u8; su_bytes];
        for k in 0..4u64 {
            sim::xor_into(&mut p, b.unit_data(k));
            sim::gf_mul_into(&mut q, b.unit_data(k), sim::gf_pow(2, k as u32));
        }
        assert_eq!(&p[..], b.parity());
        assert_eq!(&q[..], b.q_parity());
        b.recycle(3);
        assert!(sim::is_zero(b.q_parity()));
        assert!(b.shape_matches_parity(4, 4, 2));
        assert!(!b.shape_matches_parity(4, 4, 1));
    }

    #[test]
    #[should_panic(expected = "no Q column")]
    fn single_parity_has_no_q() {
        StripeBuffer::new(0, 2, 2).q_parity();
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_rejected() {
        let mut b = StripeBuffer::new(0, 1, 1);
        b.fill(&sector(1));
        b.fill(&sector(2));
    }

    proptest! {
        #[test]
        fn parity_always_xor_of_written_data(
            chunks in prop::collection::vec(1u64..5, 1..6)
        ) {
            let mut b = StripeBuffer::new(0, 4, 4);
            let mut written = 0u64;
            let mut rng = sim::SimRng::new(99);
            let total: u64 = 16;
            for c in chunks {
                let n = c.min(total - written);
                if n == 0 { break; }
                let mut data = vec![0u8; (n * SECTOR_SIZE) as usize];
                rng.fill_bytes(&mut data);
                b.fill(&data);
                written += n;
            }
            // Recompute parity from the written prefix of every unit.
            let su_bytes = (4 * SECTOR_SIZE) as usize;
            let mut expect = vec![0u8; su_bytes];
            for k in 0..4 {
                let unit = b.unit_data(k);
                sim::xor_into(&mut expect[..unit.len()], unit);
            }
            prop_assert_eq!(&expect[..], b.parity());
        }

        /// A buffer recycled after an arbitrary fill — its data region
        /// still holding the last stripe's bytes — behaves exactly like a
        /// freshly allocated one through every accessor, at both parity
        /// levels, for any subsequent write sequence.
        #[test]
        fn recycled_buffer_indistinguishable_from_fresh(
            parity in 1u32..3,
            pre in prop::collection::vec(1u64..6, 0..8),
            post in prop::collection::vec(1u64..6, 1..8),
        ) {
            let total = 16u64; // 4 units x 4 sectors
            let mut recycled = StripeBuffer::with_parity(0, 4, 4, parity);
            let mut rng = sim::SimRng::new(1234);
            let mut written = 0u64;
            for c in pre {
                let n = c.min(total - written);
                if n == 0 { break; }
                let mut data = vec![0u8; (n * SECTOR_SIZE) as usize];
                rng.fill_bytes(&mut data);
                recycled.fill(&data);
                written += n;
            }
            recycled.recycle(7);
            let mut fresh = StripeBuffer::with_parity(7, 4, 4, parity);
            let mut written = 0u64;
            for c in post {
                let n = c.min(total - written);
                if n == 0 { break; }
                let mut data = vec![0u8; (n * SECTOR_SIZE) as usize];
                rng.fill_bytes(&mut data);
                let hull_r = recycled.fill(&data);
                let hull_f = fresh.fill(&data);
                prop_assert_eq!(hull_r, hull_f);
                written += n;
                prop_assert_eq!(recycled.parity(), fresh.parity());
                if parity == 2 {
                    prop_assert_eq!(recycled.q_parity(), fresh.q_parity());
                }
                prop_assert_eq!(recycled.read_range(0, written), fresh.read_range(0, written));
                for k in 0..4 {
                    prop_assert_eq!(recycled.unit_data(k), fresh.unit_data(k));
                }
            }
            prop_assert_eq!(recycled.stripe(), fresh.stripe());
            prop_assert_eq!(recycled.filled_sectors(), fresh.filled_sectors());
        }
    }
}
