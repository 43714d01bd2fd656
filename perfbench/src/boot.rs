//! The two boot workloads: a CentOS 6.3 boot trace replayed, think time
//! skipped, through the real image stack.
//!
//! * `cold_boot_nbd` — `CoW ← cache (512 B, compute memory) ← NbdClient`,
//!   a fresh cold cache per boot, the base served over loopback NBD to two
//!   compute clients.
//! * `warm_boot_local` — `CoW ← warm cache in a file` opened by
//!   `vmi_cluster::build_chain` per boot; the base must see no reads.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vmi_blockdev::{BlockDev, SharedDev, SparseDev};
use vmi_cluster::{build_chain, ChainSpec, Mode, Placement};
use vmi_nbd::{NbdClient, NbdServer};
use vmi_obs::Obs;
use vmi_qcow::{create_cached_chain, MapResolver, QcowImage};
use vmi_trace::{BootTrace, OpKind, VmiProfile};

use crate::model::{mix, Overlay, Pattern, PatternDev};
use crate::probe::{self, timed_setup, LayerStats, LayerTotals, Probe};
use crate::{Args, Outcome, Res};

/// Cache quota: above the 85.2 MB working set plus its 512 B-cluster tables.
pub const QUOTA: u64 = 192 << 20;
/// The paper's cache cluster size, 512 B.
pub const CLUSTER_BITS: u32 = 9;
/// Untimed boots per client before the timed phase.
const WARMUP_BOOTS: usize = 2;
/// Load clients (threads, each with its own NBD connection) on
/// `cold_boot_nbd`. Two keep both CPUs of a small host busy; one client's
/// request-reply ping-pong is dominated by idle-CPU wake-ups.
const CLIENTS: usize = 2;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The layer boundaries a traced run probes; `None` in an untraced run.
#[derive(Default)]
struct Layers {
    /// Around the `NbdClient` on the compute side.
    nbd_client: Arc<LayerStats>,
    /// Around the device the server exports.
    served: Arc<LayerStats>,
    /// Around the cache image's container.
    cache_dev: Arc<LayerStats>,
    /// Around the CoW image's container.
    cow_dev: Arc<LayerStats>,
    /// Around the in-process base (`warm_boot_local`).
    base: Arc<LayerStats>,
}

impl Layers {
    fn all(&self) -> [&Arc<LayerStats>; 5] {
        [
            &self.nbd_client,
            &self.served,
            &self.cache_dev,
            &self.cow_dev,
            &self.base,
        ]
    }
}

struct Probes(Option<Layers>);

impl Probes {
    fn new(traced: bool) -> Self {
        Self(traced.then(Layers::default))
    }

    /// `dev` behind the probe `pick` selects, or `dev` itself untraced.
    fn wrap(&self, dev: SharedDev, pick: fn(&Layers) -> &Arc<LayerStats>) -> SharedDev {
        match &self.0 {
            Some(l) => Probe::wrap(dev, pick(l)),
            None => dev,
        }
    }

    fn reset(&self) {
        if let Some(l) = &self.0 {
            l.all().iter().for_each(|s| s.reset());
        }
    }

    fn totals(&self, pick: fn(&Layers) -> &Arc<LayerStats>) -> LayerTotals {
        self.0
            .as_ref()
            .map(|l| pick(l).totals())
            .unwrap_or_default()
    }
}

/// One boot's timings and operation counts.
#[derive(Default, Clone, Copy)]
struct Boot {
    connect_ns: u64,
    chain_ns: u64,
    io_ns: u64,
    ops: u64,
    failed: u64,
}

impl Boot {
    fn total_ns(&self) -> u64 {
        self.connect_ns + self.chain_ns + self.io_ns
    }

    /// A boot whose chain could not be built: every trace op fails.
    fn broken(trace: &BootTrace) -> Self {
        let ops = trace.ops.len() as u64;
        Self {
            ops,
            failed: ops,
            ..Self::default()
        }
    }
}

/// Counters read at the start and the end of the timed phase:
/// NBD requests served and the cache layer's copy-on-read hit, miss and
/// fill bytes.
#[derive(Default, Clone, Copy)]
struct Counters {
    served: u64,
    hit: u64,
    miss: u64,
    fill: u64,
}

impl Counters {
    fn since(self, before: Counters) -> Counters {
        Counters {
            served: self.served - before.served,
            hit: self.hit - before.hit,
            miss: self.miss - before.miss,
            fill: self.fill - before.fill,
        }
    }
}

/// Copy-on-read bytes of the per-boot cache layers, summed, plus the
/// cache container's size after the latest boot and the failed checks.
#[derive(Default)]
struct Tally {
    cor: Mutex<Counters>,
    cache_file: AtomicU64,
    problems: Mutex<Vec<String>>,
}

impl Tally {
    fn add_cor(&self, cache: &QcowImage) {
        let s = cache.cor_stats();
        let mut c = self.cor.lock().expect("tally lock");
        c.hit += s.hit_bytes;
        c.miss += s.miss_bytes;
        c.fill += s.fill_bytes;
    }

    fn problem(&self, p: String) {
        self.problems.lock().expect("tally lock").push(p);
    }
}

/// Inputs every boot workload shares, made from the seed.
struct Inputs {
    profile: VmiProfile,
    trace: BootTrace,
    unique_read: u64,
    pattern: Arc<Pattern>,
    base: Arc<PatternDev>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        Self::with_profile(VmiProfile::centos_6_3(), seed)
    }

    fn with_profile(profile: VmiProfile, seed: u64) -> Self {
        let trace = vmi_trace::generate(&profile, seed);
        let unique_read = vmi_trace::unique_read_bytes(&trace);
        let pattern = Arc::new(Pattern::new());
        let base = Arc::new(PatternDev::new(pattern.clone(), profile.virtual_size));
        Self {
            profile,
            trace,
            unique_read,
            pattern,
            base,
        }
    }
}

/// Replay the trace through `chain`, timing only the I/O calls and checking
/// every read against the reference model outside them.
fn replay(chain: &dyn BlockDev, inp: &Inputs, tag: u64, buf: &mut Vec<u8>) -> Boot {
    let mut overlay = Overlay::new(inp.pattern.clone(), tag);
    let mut boot = Boot {
        ops: inp.trace.ops.len() as u64,
        ..Boot::default()
    };
    for op in &inp.trace.ops {
        let n = op.len as usize;
        if buf.len() < n {
            buf.resize(n, 0);
        }
        let b = &mut buf[..n];
        let ok = match op.kind {
            OpKind::Read => {
                let t = Instant::now();
                let r = chain.read_at(b, op.offset);
                boot.io_ns += t.elapsed().as_nanos() as u64;
                r.is_ok() && overlay.check(b, op.offset)
            }
            OpKind::Write => {
                overlay.write(b, op.offset);
                let t = Instant::now();
                let r = chain.write_at(b, op.offset);
                boot.io_ns += t.elapsed().as_nanos() as u64;
                r.is_ok()
            }
        };
        boot.failed += u64::from(!ok);
    }
    boot
}

/// The cache image directly under a CoW top image.
fn cache_layer(cow: &QcowImage) -> Option<&QcowImage> {
    cow.backing()?.as_any()?.downcast_ref::<QcowImage>()
}

/// Fill a cache container by booting once over the base; the warm-up
/// boot's reads are checked like any other.
fn warm_cache(inp: &Inputs, container: SharedDev) -> Res<()> {
    let ns = MapResolver::new();
    ns.insert("base", inp.base.clone() as SharedDev);
    let cow = create_cached_chain(
        &ns,
        "base",
        "cache",
        container,
        Arc::new(SparseDev::new()),
        inp.profile.virtual_size,
        QUOTA,
        CLUSTER_BITS,
    )
    .map_err(err)?;
    let boot = replay(cow.as_ref(), inp, 0, &mut Vec::new());
    if boot.failed > 0 {
        return Err(format!(
            "warm-up boot failed {} of {} ops",
            boot.failed, boot.ops
        ));
    }
    Ok(())
}

/// What the timed phase of a boot workload leaves for the report.
struct Timed {
    boots: Vec<Boot>,
    /// Σ over clients of boots per second of that client's timed calls.
    boots_per_s: f64,
    minflt: u64,
    counters: Counters,
}

/// Boot in a closed loop on `clients` threads until `args.seconds` pass,
/// after [`WARMUP_BOOTS`] untimed boots per client. `boot(client, index)`
/// runs one whole boot; a boot started before the deadline runs to its end.
fn run_clients(
    args: &Args,
    clients: usize,
    probes: &Probes,
    counters: impl Fn() -> Counters,
    boot: impl Fn(usize, u64, &mut Vec<u8>) -> Boot + Sync,
) -> Timed {
    // One I/O buffer per client, reused by every boot.
    let mut bufs = vec![Vec::new(); clients];
    for (c, buf) in bufs.iter_mut().enumerate() {
        for i in 0..WARMUP_BOOTS {
            boot(c, u64::MAX - i as u64, buf);
        }
    }
    probes.reset();
    let before = counters();
    let faults = probe::minor_faults();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let per_client: Vec<Vec<Boot>> = std::thread::scope(|s| {
        let handles: Vec<_> = bufs
            .into_iter()
            .enumerate()
            .map(|(c, mut buf)| {
                let boot = &boot;
                s.spawn(move || {
                    let mut done = Vec::new();
                    while Instant::now() < deadline {
                        done.push(boot(c, done.len() as u64, &mut buf));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("boot client panicked"))
            .collect()
    });
    let minflt = probe::minor_faults() - faults;
    let boots_per_s = per_client
        .iter()
        .map(|b| {
            let busy: u64 = b.iter().map(Boot::total_ns).sum();
            b.len() as f64 / (busy.max(1) as f64 / 1e9)
        })
        .sum();
    Timed {
        boots: per_client.into_iter().flatten().collect(),
        boots_per_s,
        minflt,
        counters: counters().since(before),
    }
}

/// Turn a timed phase into the outcome: end-to-end metrics always,
/// per-layer metrics when probed. `qcow.self_ms_per_boot` is the replay
/// time less the time spent in the probes `below_replay` picks.
fn report(
    setup_s: f64,
    t: &Timed,
    probes: &Probes,
    tally: Tally,
    below_replay: &[fn(&Layers) -> &Arc<LayerStats>],
) -> Outcome {
    let mut out = Outcome {
        problems: tally.problems.into_inner().expect("tally lock"),
        ..Outcome::default()
    };
    let ms = |ns: u64| ns as f64 / 1e6;
    let good: Vec<&Boot> = t.boots.iter().filter(|b| b.failed == 0).collect();
    let totals: Vec<f64> = good.iter().map(|b| ms(b.total_ns())).collect();
    out.attempted = t.boots.iter().map(|b| b.ops).sum();
    out.failed = t.boots.iter().map(|b| b.failed).sum();
    out.set("op_p50_ms", probe::median(&totals));
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", probe::peak_rss_mib());
    if probes.0.is_none() {
        return out;
    }
    let n = t.boots.len().max(1) as f64;
    let client = probes.totals(|l| &l.nbd_client);
    let served = probes.totals(|l| &l.served);
    let cache = probes.totals(|l| &l.cache_dev);
    let cow = probes.totals(|l| &l.cow_dev);
    let io_ns: u64 = t.boots.iter().map(|b| b.io_ns).sum();
    let below: u64 = below_replay.iter().map(|&p| probes.totals(p).ns).sum();
    let connects: Vec<f64> = good
        .iter()
        .filter(|b| b.connect_ns > 0)
        .map(|b| ms(b.connect_ns))
        .collect();
    let chains: Vec<f64> = good.iter().map(|b| ms(b.chain_ns)).collect();
    let c = t.counters;
    const MIB: f64 = (1u64 << 20) as f64;
    out.set("traced.op_p50_ms", probe::median(&totals));
    out.set("traced.boots_per_s", t.boots_per_s);
    if totals.len() >= 100 {
        out.set("traced.boot_p90_ms", probe::quantile(&totals, 0.9));
    }
    out.set("nbd.connect_ms", probe::median(&connects));
    out.set("nbd.requests_per_boot", c.served as f64 / n);
    out.set("nbd.wire_mib_per_boot", served.bytes as f64 / MIB / n);
    out.set("nbd.client_ms_per_boot", ms(client.ns) / n);
    if c.served > 0 {
        out.set("nbd.rtt_us", client.ns as f64 / 1e3 / c.served as f64);
    }
    if served.calls > 0 {
        out.set(
            "nbd.server_us_per_req",
            served.ns as f64 / 1e3 / served.calls as f64,
        );
    }
    out.set("qcow.chain_ms", probe::median(&chains));
    out.set("qcow.self_ms_per_boot", ms(io_ns.saturating_sub(below)) / n);
    out.set("cache.dev_ms_per_boot", ms(cache.ns) / n);
    out.set("cache.dev_calls_per_boot", cache.calls as f64 / n);
    out.set("cache.flushes_per_boot", cache.flushes as f64 / n);
    out.set("cow.dev_ms_per_boot", ms(cow.ns) / n);
    out.set("cor.fill_mib_per_boot", c.fill as f64 / MIB / n);
    if c.hit + c.miss > 0 {
        out.set("cor.hit_ratio", c.hit as f64 / (c.hit + c.miss) as f64);
    }
    out.set("cache.file_mib", tally.cache_file.into_inner() as f64 / MIB);
    out.set("proc.minflt_per_boot", t.minflt as f64 / n);
    out
}

/// First boot: each of two compute clients boots one VM after another, each
/// over a fresh cold cache in compute memory filled over loopback NBD from
/// the storage node's base.
pub fn cold_boot_nbd(args: &Args) -> Res<Outcome> {
    let probes = Probes::new(args.trace);
    let (setup_s, (inp, server)) = timed_setup(|| {
        let inp = Inputs::new(args.seed);
        let server = NbdServer::start("127.0.0.1:0").map_err(err)?;
        server.add_export("base", probes.wrap(inp.base.clone(), |l| &l.served), true);
        Ok((inp, server))
    })?;
    let addr = server.addr().to_string();
    let tally = Tally::default();
    let boot = |_client: usize, i: u64, buf: &mut Vec<u8>| -> Boot {
        let wire_before = inp.base.read_bytes();
        let t = Instant::now();
        let Ok(client) = NbdClient::connect(&addr, "base") else {
            return Boot::broken(&inp.trace);
        };
        let connect_ns = t.elapsed().as_nanos() as u64;
        let ns = MapResolver::new();
        ns.insert("base", probes.wrap(Arc::new(client), |l| &l.nbd_client));
        let container: SharedDev = Arc::new(SparseDev::new());
        let t = Instant::now();
        let chain = create_cached_chain(
            &ns,
            "base",
            "cache",
            probes.wrap(container.clone(), |l| &l.cache_dev),
            probes.wrap(Arc::new(SparseDev::new()), |l| &l.cow_dev),
            inp.profile.virtual_size,
            QUOTA,
            CLUSTER_BITS,
        );
        let chain_ns = t.elapsed().as_nanos() as u64;
        let Ok(chain) = chain else {
            return Boot::broken(&inp.trace);
        };
        let mut b = replay(chain.as_ref(), &inp, mix(args.seed, i), buf);
        b.connect_ns = connect_ns;
        b.chain_ns = chain_ns;
        // Checks, outside the timed calls.
        let wire = inp.base.read_bytes() - wire_before;
        if wire < inp.unique_read {
            tally.problem(format!(
                "boot {i}: {wire} B on the wire < unique read set {} B",
                inp.unique_read
            ));
        }
        match cache_layer(&chain) {
            Some(cache) if cache.cache_used() <= QUOTA => tally.add_cor(cache),
            Some(cache) => tally.problem(format!(
                "boot {i}: cache used {} > quota {QUOTA}",
                cache.cache_used()
            )),
            None => tally.problem(format!("boot {i}: no cache layer under the CoW")),
        }
        tally.cache_file.store(container.len(), Ordering::Relaxed);
        b
    };
    let counters = || Counters {
        served: server.served_requests(),
        ..*tally.cor.lock().expect("tally lock")
    };
    let timed = run_clients(args, CLIENTS, &probes, counters, boot);
    Ok(report(
        setup_s,
        &timed,
        &probes,
        tally,
        &[|l| &l.nbd_client, |l| &l.cache_dev, |l| &l.cow_dev],
    ))
}

/// A directory of the checkout for this process's files, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Res<Self> {
        let dir = PathBuf::from(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Remove the parent too once no other run uses it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Steady state: every boot opens the node's warm cache file with
/// `build_chain` and gets a fresh CoW; the in-process base sees no reads.
pub fn warm_boot_local(args: &Args) -> Res<Outcome> {
    let probes = Probes::new(args.trace);
    let work = WorkDir::new()?;
    let path = work.0.join("warm-cache.img");
    let (setup_s, inp) = timed_setup(|| {
        let inp = Inputs::new(args.seed);
        // Warm in memory, then store the container as the node's file.
        let container = Arc::new(SparseDev::new());
        warm_cache(&inp, container.clone())?;
        let mut bytes = vec![0u8; container.len() as usize];
        container.read_at(&mut bytes, 0).map_err(err)?;
        std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(inp)
    })?;
    let tally = Tally::default();
    let boot = |_client: usize, i: u64, buf: &mut Vec<u8>| -> Boot {
        let base_before = inp.base.read_bytes();
        let t = Instant::now();
        let chain = vmi_blockdev::FileDev::open(&path).and_then(|file| {
            build_chain(ChainSpec {
                mode: Mode::WarmCache {
                    placement: Placement::ComputeDisk,
                    quota: QUOTA,
                    cluster_bits: CLUSTER_BITS,
                },
                profile: &inp.profile,
                base_dev: probes.wrap(inp.base.clone(), |l| &l.base),
                cache_dev: Some(probes.wrap(Arc::new(file), |l| &l.cache_dev)),
                cow_dev: probes.wrap(Arc::new(SparseDev::new()), |l| &l.cow_dev),
                cache_read_only: false,
                obs: Obs::disabled(),
            })
        });
        let chain_ns = t.elapsed().as_nanos() as u64;
        let Ok(chain) = chain else {
            return Boot::broken(&inp.trace);
        };
        let mut b = replay(chain.as_ref(), &inp, mix(args.seed, i), buf);
        b.chain_ns = chain_ns;
        let base_read = inp.base.read_bytes() - base_before;
        if base_read > 0 {
            tally.problem(format!("boot {i}: {base_read} B read from the base"));
        }
        match cache_layer(&chain) {
            Some(cache) => {
                tally.add_cor(cache);
                tally.cache_file.store(cache.file_size(), Ordering::Relaxed);
            }
            None => tally.problem(format!("boot {i}: warm cache was not adopted")),
        }
        b
    };
    let counters = || *tally.cor.lock().expect("tally lock");
    let timed = run_clients(args, 1, &probes, counters, boot);
    Ok(report(
        setup_s,
        &timed,
        &probes,
        tally,
        &[|l| &l.base, |l| &l.cache_dev, |l| &l.cow_dev],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmi_blockdev::Result;

    /// Flips the first byte of every read: a chain that returns wrong data.
    struct FlipDev(SharedDev);

    impl BlockDev for FlipDev {
        fn read_at(&self, buf: &mut [u8], off: u64) -> Result<()> {
            self.0.read_at(buf, off)?;
            if let Some(b) = buf.first_mut() {
                *b ^= 0x80;
            }
            Ok(())
        }

        fn write_at(&self, buf: &[u8], off: u64) -> Result<()> {
            self.0.write_at(buf, off)
        }

        fn len(&self) -> u64 {
            self.0.len()
        }

        fn set_len(&self, len: u64) -> Result<()> {
            self.0.set_len(len)
        }

        fn flush(&self) -> Result<()> {
            self.0.flush()
        }
    }

    fn cold_chain(inp: &Inputs) -> SharedDev {
        let ns = MapResolver::new();
        ns.insert("base", inp.base.clone() as SharedDev);
        create_cached_chain(
            &ns,
            "base",
            "cache",
            Arc::new(SparseDev::new()),
            Arc::new(SparseDev::new()),
            inp.profile.virtual_size,
            QUOTA,
            CLUSTER_BITS,
        )
        .unwrap()
    }

    #[test]
    fn a_correct_chain_fails_no_operation() {
        let inp = Inputs::with_profile(VmiProfile::tiny_test(), 5);
        let chain = cold_chain(&inp);
        let boot = replay(chain.as_ref(), &inp, 1, &mut Vec::new());
        assert_eq!(boot.ops, inp.trace.ops.len() as u64);
        assert_eq!(boot.failed, 0);
    }

    #[test]
    fn flipped_bytes_count_as_failed_operations() {
        let inp = Inputs::with_profile(VmiProfile::tiny_test(), 5);
        let flipped = FlipDev(cold_chain(&inp));
        let boot = replay(&flipped, &inp, 1, &mut Vec::new());
        let reads = inp.trace.read_ops() as u64;
        assert!(reads > 0);
        assert_eq!(boot.failed, reads, "every read returns a wrong byte");
        let timed = Timed {
            boots: vec![boot],
            boots_per_s: 1.0,
            minflt: 0,
            counters: Counters::default(),
        };
        let out = report(0.1, &timed, &Probes::new(false), Tally::default(), &[]);
        assert_eq!((out.attempted, out.failed), (boot.ops, reads));
    }
}
