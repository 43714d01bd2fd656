//! The reference model: base-image content derived from each byte's offset,
//! and an overlay of the bytes one boot wrote, kept apart from the program.
//!
//! The expected bytes of every guest read come from here, never from a
//! saved copy of the program's own output.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use vmi_blockdev::{BlockDev, BlockError, Result};
use vmi_trace::SECTOR;

/// Period of the base pattern: a prime, so cluster-aligned offsets that
/// differ by less than `PERIOD * 512` bytes never read the same bytes.
const PERIOD: usize = 1_048_573;

/// splitmix64 finaliser.
pub fn mix(seed: u64, v: u64) -> u64 {
    let mut z = seed.wrapping_add(v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The byte at offset `p` is `table[p % PERIOD]`: non-zero, fixed, and the
/// same for every seed, so a read can be checked by slice comparison.
pub struct Pattern {
    table: Vec<u8>,
}

impl Pattern {
    pub fn new() -> Self {
        let table = (0..PERIOD as u64)
            .map(|i| (mix(0x5EED, i) % 255) as u8 + 1)
            .collect();
        Self { table }
    }

    /// The table slices covering `[off, off + len)` at shift `shift`, in order.
    fn spans(
        &self,
        off: u64,
        len: usize,
        shift: u64,
        mut f: impl FnMut(usize, &[u8]) -> bool,
    ) -> bool {
        let mut done = 0;
        while done < len {
            let at = ((off + shift + done as u64) % PERIOD as u64) as usize;
            let n = (PERIOD - at).min(len - done);
            if !f(done, &self.table[at..at + n]) {
                return false;
            }
            done += n;
        }
        true
    }

    /// Fill `buf` with the pattern at `off` shifted by `shift`.
    fn fill(&self, buf: &mut [u8], off: u64, shift: u64) {
        let len = buf.len();
        self.spans(off, len, shift, |at, src| {
            buf[at..at + src.len()].copy_from_slice(src);
            true
        });
    }

    /// Whether `buf` holds the pattern at `off` shifted by `shift`.
    fn matches(&self, buf: &[u8], off: u64, shift: u64) -> bool {
        self.spans(off, buf.len(), shift, |at, src| {
            &buf[at..at + src.len()] == src
        })
    }
}

/// The base image: a read-only device whose content is the [`Pattern`].
/// It counts the bytes read from it, which the checks use to show that
/// warm boots never reach the base.
pub struct PatternDev {
    pattern: Arc<Pattern>,
    len: u64,
    read_bytes: AtomicU64,
}

impl PatternDev {
    pub fn new(pattern: Arc<Pattern>, len: u64) -> Self {
        Self {
            pattern,
            len,
            read_bytes: AtomicU64::new(0),
        }
    }

    /// Bytes read so far.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes.load(Ordering::Relaxed)
    }
}

impl BlockDev for PatternDev {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        match off.checked_add(buf.len() as u64) {
            Some(end) if end <= self.len => {}
            _ => return Err(BlockError::out_of_bounds(off, buf.len(), self.len)),
        }
        self.pattern.fill(buf, off, 0);
        self.read_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn write_at(&self, _buf: &[u8], _off: u64) -> Result<()> {
        Err(BlockError::read_only("the base image is read-only"))
    }

    fn len(&self) -> u64 {
        self.len
    }

    fn set_len(&self, _len: u64) -> Result<()> {
        Err(BlockError::read_only("the base image is read-only"))
    }

    fn flush(&self) -> Result<()> {
        Ok(())
    }

    fn describe(&self) -> String {
        format!("pattern({} B)", self.len)
    }
}

/// What one boot wrote, sector by sector: the guest's expected view is the
/// base pattern except where this overlay names a later write.
pub struct Overlay {
    pattern: Arc<Pattern>,
    tag: u64,
    /// Sector index → generation of the last write that covered it.
    sectors: HashMap<u64, u64>,
    /// Sector span touched by any write, to skip lookups for other reads.
    lo: u64,
    hi: u64,
    writes: u64,
}

impl Overlay {
    /// An empty overlay; `tag` separates the written content of boots.
    pub fn new(pattern: Arc<Pattern>, tag: u64) -> Self {
        Self {
            pattern,
            tag,
            sectors: HashMap::new(),
            lo: u64::MAX,
            hi: 0,
            writes: 0,
        }
    }

    /// A non-zero shift for generation `generation`, so written data differs
    /// from the base bytes at the same offset.
    fn shift(&self, generation: u64) -> u64 {
        1 + mix(self.tag, generation) % (PERIOD as u64 - 1)
    }

    /// Record a write of `buf.len()` bytes at `off` and fill `buf` with the
    /// content the guest writes there. Offsets and lengths are whole sectors.
    pub fn write(&mut self, buf: &mut [u8], off: u64) {
        self.writes += 1;
        let generation = self.writes;
        self.pattern.fill(buf, off, self.shift(generation));
        let first = off / SECTOR;
        let last = (off + buf.len() as u64) / SECTOR;
        for s in first..last {
            self.sectors.insert(s, generation);
        }
        self.lo = self.lo.min(first);
        self.hi = self.hi.max(last);
    }

    /// Whether `buf`, read at `off`, holds what the guest should see.
    pub fn check(&self, buf: &[u8], off: u64) -> bool {
        let first = off / SECTOR;
        let last = (off + buf.len() as u64).div_ceil(SECTOR);
        if last <= self.lo || first >= self.hi {
            return self.pattern.matches(buf, off, 0);
        }
        (first..last).all(|s| {
            let start = (s * SECTOR).max(off);
            let end = ((s + 1) * SECTOR).min(off + buf.len() as u64);
            let part = &buf[(start - off) as usize..(end - off) as usize];
            let shift = self.sectors.get(&s).map_or(0, |&g| self.shift(g));
            self.pattern.matches(part, start, shift)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_nonzero_and_offset_derived() {
        let p = Arc::new(Pattern::new());
        let dev = PatternDev::new(p.clone(), 8 << 30);
        let mut a = vec![0u8; 4096];
        let mut b = vec![0u8; 4096];
        dev.read_at(&mut a, 0).unwrap();
        dev.read_at(&mut b, 512).unwrap();
        assert!(a.iter().all(|&x| x != 0));
        assert_eq!(a[512..], b[..3584], "content follows the offset");
        assert_ne!(a[..3584], b[..3584], "reads at other offsets differ");
        assert_ne!(&a[..4], b"QFI\xfb", "the base must not look like an image");
        assert!(p.matches(&a, 0, 0) && !p.matches(&a, 512, 0));
        assert_eq!(dev.read_bytes(), 8192);
        // Reads that wrap the period are still checked byte by byte.
        let off = PERIOD as u64 - 100;
        let mut c = vec![0u8; 300];
        dev.read_at(&mut c, off).unwrap();
        assert!(p.matches(&c, off, 0));
    }

    #[test]
    fn overlay_tracks_the_last_write() {
        let p = Arc::new(Pattern::new());
        let mut ov = Overlay::new(p.clone(), 7);
        let mut w1 = vec![0u8; 1024];
        ov.write(&mut w1, 4096);
        let mut w2 = vec![0u8; 512];
        ov.write(&mut w2, 4608);
        // Guest view of [3584, 5632): base, w1's first sector, w2, base.
        let mut view = vec![0u8; 2048];
        p.fill(&mut view[..512], 3584, 0);
        view[512..1024].copy_from_slice(&w1[..512]);
        view[1024..1536].copy_from_slice(&w2);
        p.fill(&mut view[1536..], 5120, 0);
        assert!(ov.check(&view, 3584));
        assert!(
            !ov.check(&view[512..1536], 4096 + 512),
            "misplaced bytes fail"
        );
        view[1030] ^= 1;
        assert!(!ov.check(&view, 3584), "a flipped bit fails");
    }
}
