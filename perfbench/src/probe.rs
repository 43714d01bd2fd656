//! Measurement from outside the program: a timing and counting decorator
//! for the `BlockDev` seam between layers, process counters read from
//! `/proc/self`, and the summary statistics the report uses.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use vmi_blockdev::{BlockDev, Result, SharedDev};
use vmi_obs::SpanId;

/// Totals of one layer boundary, shared by every [`Probe`] placed on it.
#[derive(Default)]
pub struct LayerStats {
    calls: AtomicU64,
    bytes: AtomicU64,
    flushes: AtomicU64,
    ns: AtomicU64,
}

/// A copy of [`LayerStats`] at one moment.
#[derive(Clone, Copy, Default, Debug)]
pub struct LayerTotals {
    /// Read and write calls.
    pub calls: u64,
    /// Bytes read and written.
    pub bytes: u64,
    pub flushes: u64,
    /// Wall time inside the layer, flushes included.
    pub ns: u64,
}

impl LayerStats {
    pub fn totals(&self) -> LayerTotals {
        LayerTotals {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }

    pub fn reset(&self) {
        for c in [&self.calls, &self.bytes, &self.flushes, &self.ns] {
            c.store(0, Ordering::Relaxed);
        }
    }

    fn io(&self, bytes: usize, t: Instant) {
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Times and counts every call that crosses into the wrapped device.
pub struct Probe {
    inner: SharedDev,
    stats: Arc<LayerStats>,
}

impl Probe {
    pub fn wrap(inner: SharedDev, stats: &Arc<LayerStats>) -> SharedDev {
        Arc::new(Self {
            inner,
            stats: stats.clone(),
        })
    }
}

impl BlockDev for Probe {
    fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.read_at(buf, off);
        self.stats.io(buf.len(), t);
        r
    }

    fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.write_at(buf, off);
        self.stats.io(buf.len(), t);
        r
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.inner.set_len(len)
    }

    fn flush(&self) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.flush();
        self.stats
            .ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        r
    }

    fn read_run_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.read_run_at(buf, off);
        self.stats.io(buf.len(), t);
        r
    }

    fn write_run_at(&self, buf: &[u8], off: u64) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.write_run_at(buf, off);
        self.stats.io(buf.len(), t);
        r
    }

    fn read_at_in(&self, buf: &mut [u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.read_at_in(buf, off, parent);
        self.stats.io(buf.len(), t);
        r
    }

    fn write_at_in(&self, buf: &[u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.write_at_in(buf, off, parent);
        self.stats.io(buf.len(), t);
        r
    }

    fn read_run_at_in(&self, buf: &mut [u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.read_run_at_in(buf, off, parent);
        self.stats.io(buf.len(), t);
        r
    }

    fn write_run_at_in(&self, buf: &[u8], off: u64, parent: Option<SpanId>) -> Result<()> {
        let t = Instant::now();
        let r = self.inner.write_run_at_in(buf, off, parent);
        self.stats.io(buf.len(), t);
        r
    }

    fn describe(&self) -> String {
        format!("probe({})", self.inner.describe())
    }

    fn inner_dev(&self) -> Option<&SharedDev> {
        Some(&self.inner)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Minor page faults of this process so far.
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; minflt is field 10.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; 0 for no samples.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Run `setup` at least [`SETUP_MIN_REPS`] times and until
/// [`SETUP_MIN_SECONDS`] have passed (at most [`SETUP_MAX_REPS`]); keep the
/// last result and return the median time of one set-up.
pub fn timed_setup<T>(
    mut setup: impl FnMut() -> std::result::Result<T, String>,
) -> std::result::Result<(f64, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS
        || (times.len() < SETUP_MAX_REPS && times.iter().sum::<f64>() < SETUP_MIN_SECONDS)
    {
        drop(last.take());
        let t = Instant::now();
        let v = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((median(&times), last.expect("at least one set-up")))
}

const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 1000;
const SETUP_MIN_SECONDS: f64 = 1.0;
