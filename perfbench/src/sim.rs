//! The two simulation workloads: a grid of byte-exact figure points through
//! `vmi_cluster::run_experiment`, and the scale engine `run_scale`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use vmi_cluster::experiment::vmi_seed;
use vmi_cluster::{
    run_experiment, run_scale, ExperimentConfig, ExperimentOutcome, Mode, Placement, ScaleConfig,
    ScaleReport, Topology, WarmStore,
};
use vmi_trace::{BootTrace, VmiProfile};

use crate::boot::{CLUSTER_BITS, QUOTA};
use crate::probe::{self, timed_setup};
use crate::{Args, Outcome, Res};

/// Compute nodes of a grid point; each boots its own VMI.
const GRID_NODES: usize = 8;
/// A quota below the 85.2 MB working set: fills hit the space-error latch.
const LOW_QUOTA: u64 = 48 << 20;
/// Fleet size of the scale engine.
const SCALE_NODES: usize = 10_000;
/// Boot waves per scale run.
const SCALE_WAVES: usize = 20;

/// The grid, in run order, with the per-layer metric of each point.
fn grid() -> [(&'static str, Mode); 5] {
    let cold = |quota| Mode::ColdCache {
        placement: Placement::ComputeMem,
        quota,
        cluster_bits: CLUSTER_BITS,
    };
    let warm = |placement| Mode::WarmCache {
        placement,
        quota: QUOTA,
        cluster_bits: CLUSTER_BITS,
    };
    [
        ("sweep.qcow2_s", Mode::Qcow2),
        ("sweep.cold_mem_s", cold(QUOTA)),
        ("sweep.cold_quota_s", cold(LOW_QUOTA)),
        ("sweep.warm_disk_s", warm(Placement::ComputeDisk)),
        ("sweep.warm_smem_s", warm(Placement::StorageMem)),
    ]
}

/// The paper's claims one grid must show (Figs. 8–12).
fn check_grid(points: &[ExperimentOutcome], problems: &mut Vec<String>) {
    let [qcow2, cold, quota, warm_disk, warm_smem] = points else {
        problems.push("incomplete grid".into());
        return;
    };
    if warm_disk.storage_nic.bytes != 0 {
        problems.push(format!(
            "warm compute-disk moved {} B over the storage NIC",
            warm_disk.storage_nic.bytes
        ));
    }
    if cold.storage_nic.bytes as f64 > qcow2.storage_nic.bytes as f64 * 1.01 {
        problems.push(format!(
            "cold 512 B cache moved {} B, over 1 % above QCOW2's {} B",
            cold.storage_nic.bytes, qcow2.storage_nic.bytes
        ));
    }
    if let Some(size) = quota.cache_file_sizes.iter().find(|&&s| s > LOW_QUOTA) {
        problems.push(format!("quota-limited cache used {size} B > {LOW_QUOTA} B"));
    }
    if quota
        .telemetry
        .per_cache
        .iter()
        .all(|c| c.fill_rejects == 0)
    {
        problems.push("the quota-limited caches never hit the space error".into());
    }
    for (name, warm) in [("compute-disk", warm_disk), ("storage-memory", warm_smem)] {
        if warm.mean_boot_secs() >= qcow2.mean_boot_secs() {
            problems.push(format!(
                "warm {name} boots ({:.2} s) not faster than QCOW2 ({:.2} s)",
                warm.mean_boot_secs(),
                qcow2.mean_boot_secs()
            ));
        }
    }
}

/// Byte-exact figure points: each grid fills a fresh `WarmStore`, then runs
/// QCOW2, two cold caches and two warm caches at [`GRID_NODES`] nodes.
pub fn figure_grid(args: &Args) -> Res<Outcome> {
    let profile = VmiProfile::centos_6_3();
    // The grid's VMI traces, made once; warm-cache preparation needs them.
    let (setup_s, traces) = timed_setup(|| {
        Ok((0..GRID_NODES)
            .map(|v| vmi_trace::generate(&profile, vmi_seed(args.seed, v)))
            .collect::<Vec<BootTrace>>())
    })?;
    let sweep = |problems: &mut Vec<String>, times: &mut Vec<f64>| -> Res<Vec<ExperimentOutcome>> {
        let store = WarmStore::new();
        let t = Instant::now();
        for trace in &traces {
            store
                .get_or_prepare(&profile, trace, QUOTA, CLUSTER_BITS)
                .map_err(|e| e.to_string())?;
        }
        times.push(t.elapsed().as_secs_f64());
        let mut points = Vec::new();
        for (_, mode) in grid() {
            let mut cfg = ExperimentConfig::new(GRID_NODES, GRID_NODES);
            cfg.profile = profile.clone();
            cfg.mode = mode;
            cfg.seed = args.seed;
            cfg.warm_store = Some(Arc::clone(&store));
            let t = Instant::now();
            let out = run_experiment(&cfg).map_err(|e| e.to_string())?;
            times.push(t.elapsed().as_secs_f64());
            points.push(out);
        }
        check_grid(&points, problems);
        Ok(points)
    };
    let mut out = Outcome::default();
    let faults = probe::minor_faults();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut sweeps: Vec<Vec<f64>> = Vec::new();
    let mut boots = 0u64;
    while Instant::now() < deadline {
        let mut times = Vec::new();
        out.attempted += grid().len() as u64;
        match sweep(&mut out.problems, &mut times) {
            Ok(points) => boots += points.iter().map(|p| p.outcomes.len() as u64).sum::<u64>(),
            Err(e) => {
                out.failed += grid().len() as u64;
                eprintln!("perfbench: grid failed: {e}");
                continue;
            }
        }
        sweeps.push(times);
    }
    let minflt = probe::minor_faults() - faults;
    let walls: Vec<f64> = sweeps.iter().map(|t| t.iter().sum()).collect();
    out.set("op_p50_ms", probe::median(&walls) * 1e3);
    out.set("setup_s", setup_s);
    out.set("peak_rss_mb", probe::peak_rss_mib());
    if args.trace {
        out.set("traced.op_p50_ms", probe::median(&walls) * 1e3);
        let busy: f64 = walls.iter().sum();
        out.set("traced.boots_per_s", boots as f64 / busy.max(1e-9));
        let column = |k: usize| sweeps.iter().map(|t| t[k]).collect::<Vec<f64>>();
        out.set("sweep.warm_prep_s", probe::median(&column(0)));
        for (k, (name, _)) in grid().into_iter().enumerate() {
            out.set(name, probe::median(&column(k + 1)));
        }
        out.set("proc.minflt_per_boot", minflt as f64 / boots.max(1) as f64);
    }
    Ok(out)
}

/// The scale configurations: `flat` and `tiered_p2p` at [`SCALE_NODES`].
fn scale_configs(seed: u64, shards: usize) -> [(&'static str, ScaleConfig); 2] {
    let topologies = [
        ("scale.flat_s", Topology::flat(SCALE_NODES)),
        (
            "scale.tiered_p2p_s",
            Topology::tiered_p2p(SCALE_NODES, 1 << 30, 4 << 30),
        ),
    ];
    topologies.map(|(name, topo)| {
        let mut cfg = ScaleConfig::new(topo, 64);
        cfg.waves = SCALE_WAVES;
        cfg.seed = seed;
        cfg.shards = shards;
        cfg.degrade_ppm = 2_000;
        (name, cfg)
    })
}

/// Properties one scale round must have.
fn check_round(round: &[ScaleReport], problems: &mut Vec<String>) {
    for r in round {
        if r.boots != (SCALE_WAVES * SCALE_NODES) as u64 {
            problems.push(format!(
                "{}: {} boots != waves × nodes",
                r.topology, r.boots
            ));
        }
        if r.tier_bytes.iter().sum::<u64>() != r.fill_bytes {
            problems.push(format!(
                "{}: tier bytes do not sum to fill bytes",
                r.topology
            ));
        }
    }
    if let [flat, tiered] = round {
        if tiered.storage_link.bytes >= flat.storage_link.bytes {
            problems.push("tiered_p2p moved no fewer storage bytes than flat".into());
        }
    }
}

/// The scale engine, serial, at 10k nodes for `flat` and `tiered_p2p`.
pub fn scale_engine(args: &Args) -> Res<Outcome> {
    let (setup_s, configs) = timed_setup(|| Ok(scale_configs(args.seed, 0)))?;
    let mut out = Outcome::default();
    let mut digests = Vec::new();
    let mut round = |out: &mut Outcome, times: &mut Vec<f64>| -> u64 {
        let reports: Vec<ScaleReport> = configs
            .iter()
            .map(|(_, cfg)| {
                let t = Instant::now();
                let r = run_scale(cfg);
                times.push(t.elapsed().as_secs_f64());
                r
            })
            .collect();
        check_round(&reports, &mut out.problems);
        digests.push(reports.iter().map(|r| r.digest).collect::<Vec<u64>>());
        reports.iter().map(|r| r.boots).sum()
    };
    round(&mut out, &mut Vec::new());
    let faults = probe::minor_faults();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds: Vec<Vec<f64>> = Vec::new();
    let mut boots = 0u64;
    while Instant::now() < deadline {
        let mut times = Vec::new();
        out.attempted += configs.len() as u64;
        boots += round(&mut out, &mut times);
        rounds.push(times);
    }
    let minflt = probe::minor_faults() - faults;
    let walls: Vec<f64> = rounds.iter().map(|t| t.iter().sum()).collect();
    out.set("op_p50_ms", probe::median(&walls) * 1e3);
    out.set("setup_s", setup_s);
    // Read before the sharded reference runs below, whose worker threads
    // would set the peak.
    out.set("peak_rss_mb", probe::peak_rss_mib());
    if args.trace {
        out.set("traced.op_p50_ms", probe::median(&walls) * 1e3);
        let busy: f64 = walls.iter().sum();
        out.set("traced.boots_per_s", boots as f64 / busy.max(1e-9));
        for (k, (name, _)) in configs.iter().enumerate() {
            let column: Vec<f64> = rounds.iter().map(|t| t[k]).collect();
            out.set(name, probe::median(&column));
        }
        out.set("proc.minflt_per_boot", minflt as f64 / boots.max(1) as f64);
    }
    // Every serial round must reproduce a 2-shard run's digests.
    let sharded: Vec<u64> = scale_configs(args.seed, 2)
        .iter()
        .map(|(_, cfg)| run_scale(cfg).digest)
        .collect();
    if digests.iter().any(|d| *d != sharded) {
        out.problems
            .push("a serial digest differs from the 2-shard run".into());
    }
    Ok(out)
}
