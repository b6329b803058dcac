//! The forward map: the packed physical address of each logical sector
//! (`UNMAPPED` where none), for reads, remaps and the checkpoint.
//!
//! Logical zones are written sequentially into stripes, so the map is
//! mostly long runs: a chunk of [`CHUNK`] aligned sectors is usually all
//! unmapped or maps to consecutive addresses, and one word says which.
//! Only a chunk a run boundary cuts keeps a page of one word per sector.
//! Pages come from a slab with a free list, so a split after the first
//! ones allocates nothing, and a page whose entries turn uniform again
//! goes back to the list.

use crate::meta::UNMAPPED;

/// Logical sectors per chunk (a power of two).
pub(crate) const CHUNK: u64 = 64;
const N: usize = CHUNK as usize;

/// Logical sector → packed physical address, a word per chunk.
#[derive(Debug)]
pub(crate) struct FwdMap {
    /// Logical sectors (the last chunk may be short).
    len: u64,
    /// Per chunk: `UNMAPPED`, the address of its first sector (sector
    /// `i` holds that plus `i`), or, where `split` says so, its page.
    words: Vec<u32>,
    /// One bit per chunk: its word indexes `pages`.
    split: Vec<u64>,
    /// A word per sector of each split chunk.
    pages: Vec<[u32; N]>,
    /// Pages no chunk uses; never reallocates (capacity tracks `pages`).
    free: Vec<u32>,
}

/// Sector `off` of a chunk whose word is `w` (not split).
fn expand(w: u32, off: usize) -> u32 {
    match w {
        UNMAPPED => UNMAPPED,
        _ => w.wrapping_add(off as u32),
    }
}

/// Whether `e`, `n` sectors after a run starting at `first`, continues
/// it: both unmapped, or both mapped and `e` counts on from `first`.
fn continues(first: u32, n: u64, e: u32) -> bool {
    match first {
        UNMAPPED => e == UNMAPPED,
        _ => e != UNMAPPED && u64::from(first) + n == u64::from(e),
    }
}

/// The one word `entries` collapse to, if they are one run.
fn uniform(entries: &[u32]) -> Option<u32> {
    let first = entries[0];
    (0..)
        .zip(entries)
        .all(|(n, &e)| continues(first, n, e))
        .then_some(first)
}

impl FwdMap {
    /// A map of `len` logical sectors, all unmapped.
    pub fn new(len: u64) -> FwdMap {
        let chunks = len.div_ceil(CHUNK) as usize;
        FwdMap {
            len,
            words: vec![UNMAPPED; chunks],
            split: vec![0; chunks.div_ceil(64)],
            pages: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Logical sectors mapped.
    pub fn len(&self) -> u64 {
        self.len
    }

    fn is_split(&self, c: usize) -> bool {
        self.split[c / 64] & (1 << (c % 64)) != 0
    }

    /// Sectors of chunk `c`.
    fn chunk_len(&self, c: usize) -> usize {
        (self.len - c as u64 * CHUNK).min(CHUNK) as usize
    }

    /// The address of sector `l` (`UNMAPPED` if none).
    pub fn get(&self, l: u64) -> u32 {
        let (c, off) = ((l / CHUNK) as usize, (l % CHUNK) as usize);
        match self.is_split(c) {
            true => self.pages[self.words[c] as usize][off],
            false => expand(self.words[c], off),
        }
    }

    /// The address of sector `l` and how many sectors from `l`, at most
    /// `limit`, read on from it: all unmapped, or counting on from it
    /// (stopping short of the sentinel).
    pub fn run(&self, l: u64, limit: u64) -> (u32, u64) {
        let limit = limit.min(self.len - l);
        let first = self.get(l);
        let mut n = 0;
        while n < limit {
            let at = l + n;
            let (c, off) = ((at / CHUNK) as usize, (at % CHUNK) as usize);
            let end = self.chunk_len(c);
            if self.is_split(c) {
                let page = &self.pages[self.words[c] as usize];
                let more = page[off..end]
                    .iter()
                    .zip(n..limit)
                    .take_while(|&(&e, k)| continues(first, k, e))
                    .count();
                n += more as u64;
                if off + more < end {
                    break;
                }
            } else if continues(first, n, expand(self.words[c], off)) {
                n += (end - off) as u64;
            } else {
                break;
            }
        }
        (first, n.min(limit))
    }

    /// The map as maximal runs `(first, len)` in logical order, as
    /// [`Self::run`] reads them.
    pub fn runs(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        let mut l = 0;
        std::iter::from_fn(move || {
            (l < self.len).then(|| {
                let (first, n) = self.run(l, u64::MAX);
                l += n;
                (first, n)
            })
        })
    }

    /// Points sectors `l..l + len` at `pa, pa + 1, …`, each only where
    /// `take(i, old)` — called once per sector, in order, with its index
    /// in the run and its current address — says so.
    pub fn map_run(&mut self, l: u64, pa: u32, len: u64, mut take: impl FnMut(u64, u32) -> bool) {
        self.update(l, len, |i, old| match take(i, old) {
            true => pa + i as u32,
            false => old,
        });
    }

    /// Unmaps each mapped sector of `l..l + len` for which `unmap(old)`
    /// — called once per mapped sector, in order — says so.
    pub fn unmap_range(&mut self, l: u64, len: u64, mut unmap: impl FnMut(u32) -> bool) {
        self.update(l, len, |_, old| match old != UNMAPPED && unmap(old) {
            true => UNMAPPED,
            false => old,
        });
    }

    /// Sets each sector of `l..l + len` to `f(i, old)`, chunk by chunk:
    /// a chunk that ends up one run is one word, any other one a page.
    fn update(&mut self, l: u64, len: u64, mut f: impl FnMut(u64, u32) -> u32) {
        let end = l + len;
        assert!(end <= self.len, "sectors {l}..{end} past the map");
        let mut at = l;
        while at < end {
            let c = (at / CHUNK) as usize;
            let base = c as u64 * CHUNK;
            let (from, to) = ((at - base) as usize, ((end - base).min(CHUNK)) as usize);
            let mut set = |off: usize, old: u32| f(base + off as u64 - l, old);
            let n = self.chunk_len(c);
            if self.is_split(c) {
                let p = self.words[c] as usize;
                let page = &mut self.pages[p];
                for (off, e) in page.iter_mut().enumerate().take(to).skip(from) {
                    *e = set(off, *e);
                }
                if let Some(w) = uniform(&page[..n]) {
                    self.words[c] = w;
                    self.split[c / 64] &= !(1 << (c % 64));
                    self.free.push(p as u32);
                }
            } else {
                let w = self.words[c];
                let mut page = [0u32; N];
                let mut changed = false;
                for (off, e) in page.iter_mut().enumerate() {
                    let old = expand(w, off);
                    *e = if (from..to).contains(&off) {
                        set(off, old)
                    } else {
                        old
                    };
                    changed |= *e != old;
                }
                if changed {
                    match uniform(&page[..n]) {
                        Some(w) => self.words[c] = w,
                        None => {
                            let p = self.alloc_page();
                            self.pages[p] = page;
                            self.words[c] = p as u32;
                            self.split[c / 64] |= 1 << (c % 64);
                        }
                    }
                }
            }
            at = base + CHUNK;
        }
    }

    /// A page off the free list, or a new one; the free list grows with
    /// the slab, so handing a page back never allocates.
    fn alloc_page(&mut self) -> usize {
        if let Some(p) = self.free.pop() {
            return p as usize;
        }
        self.pages.push([UNMAPPED; N]);
        self.free.reserve(self.pages.len());
        self.pages.len() - 1
    }

    /// Chunks holding a page (memory shape).
    #[cfg(test)]
    pub fn split_chunks(&self) -> usize {
        self.pages.len() - self.free.len()
    }

    /// Every sector's address, in logical order.
    #[cfg(test)]
    pub fn to_vec(&self) -> Vec<u32> {
        (0..self.len).map(|l| self.get(l)).collect()
    }
}
