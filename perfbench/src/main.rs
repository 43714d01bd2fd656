//! perfbench — end-to-end and per-layer benchmark of VM deployment.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds` of timed work, checks every output
//! against a reference model, and prints one JSON object as the last line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics (measured
//! by probes at the `BlockDev` seams) with `--trace 1`.

mod boot;
mod model;
mod probe;
mod sim;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, printed by an untraced run of every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by a traced run of every workload; a layer a
/// workload does not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("traced.op_p50_ms", "ms"),
    ("traced.boots_per_s", "1/s"),
    ("traced.boot_p90_ms", "ms"),
    ("nbd.connect_ms", "ms"),
    ("nbd.requests_per_boot", "count"),
    ("nbd.wire_mib_per_boot", "MiB"),
    ("nbd.client_ms_per_boot", "ms"),
    ("nbd.rtt_us", "us"),
    ("nbd.server_us_per_req", "us"),
    ("qcow.chain_ms", "ms"),
    ("qcow.self_ms_per_boot", "ms"),
    ("cache.dev_ms_per_boot", "ms"),
    ("cache.dev_calls_per_boot", "count"),
    ("cache.flushes_per_boot", "count"),
    ("cow.dev_ms_per_boot", "ms"),
    ("cor.fill_mib_per_boot", "MiB"),
    ("cor.hit_ratio", "ratio"),
    ("cache.file_mib", "MiB"),
    ("proc.minflt_per_boot", "count"),
    ("sweep.warm_prep_s", "s"),
    ("sweep.qcow2_s", "s"),
    ("sweep.cold_mem_s", "s"),
    ("sweep.cold_quota_s", "s"),
    ("sweep.warm_disk_s", "s"),
    ("sweep.warm_smem_s", "s"),
    ("scale.flat_s", "s"),
    ("scale.tiered_p2p_s", "s"),
];

/// A result whose error says why a workload could not run.
pub type Res<T> = Result<T, String>;

/// A workload: one run from the arguments.
type Workload = fn(&Args) -> Res<Outcome>;

const WORKLOADS: &[(&str, Workload)] = &[
    ("cold_boot_nbd", boot::cold_boot_nbd),
    ("warm_boot_local", boot::warm_boot_local),
    ("figure_grid", sim::figure_grid),
    ("scale_engine", sim::scale_engine),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => trace = value != "0",
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds}: must be in (0, 600]"));
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase, and how many failed
    /// (errored, or returned bytes the reference model does not expect).
    pub attempted: u64,
    pub failed: u64,
    /// Properties of the outputs that did not hold; any makes the run
    /// incorrect.
    pub problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line: every metric of `names`, in order.
    fn json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in names {
            let value = match (self.metrics.get(name), names == END_TO_END) {
                (Some(&v), _) if v.is_finite() => v,
                (None, false) => 0.0,
                _ => return Err(format!("metric {name} was not measured")),
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, run)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; one of {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for p in &outcome.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    match outcome.json(if args.trace { PER_LAYER } else { END_TO_END }) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
