//! `e2ebench`: end-to-end and per-layer benchmark of qclab requests.
//!
//! ```text
//! e2ebench --workload <toolbox-counts|noisy-sample|serve-stream> \
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run generates its inputs from the seed, warms up, measures for the
//! given number of seconds, checks every output against an independent
//! reference and prints one JSON object as its last line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See README.md for the workloads, metrics and reference figures.

mod check;
mod gen;
mod inproc;
mod serve;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Every request carries this deadline (library `ExecutionControl` or
/// the job's `timeout_ms`): a hung or misrouted request ends as a
/// counted failure instead of stalling the run. At least twenty times
/// the slowest request the workloads generate.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: u64 = 7;

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err("--seconds must be 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// Per-kind request accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindCount {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

/// What a workload run hands back for printing.
#[derive(Default)]
pub struct Outcome {
    pub kinds: BTreeMap<&'static str, KindCount>,
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer values by name (traced runs); absent names print 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn count(&mut self, kind: &'static str, failed: bool, wrong: bool) {
        let k = self.kinds.entry(kind).or_default();
        k.attempted += 1;
        k.failed += u64::from(failed);
        k.wrong += u64::from(wrong);
    }
}

/// The per-layer metrics of every workload, with units. A layer a
/// workload does not reach (or cannot observe from outside the server)
/// reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("qasm.busy_ms", "ms"),
    ("qasm.bytes", "B"),
    ("program.busy_ms", "ms"),
    ("program.cache_hits", "count"),
    ("program.cache_misses", "count"),
    ("program.cache_evictions", "count"),
    ("program.ops_out", "count"),
    ("bytecode.busy_ms", "ms"),
    ("bytecode.instrs", "count"),
    ("kernel.bytes_computed", "B"),
    ("kernel.gbps", "GB/s"),
    ("kernel.copy_gbps", "GB/s"),
    ("kernel.parallel_slowdown", "x"),
    ("sim.busy_ms", "ms"),
    ("sim.branches", "count"),
    ("sim.peak_branches", "count"),
    ("sim.branch_mib", "MiB"),
    ("sampler.busy_ms", "ms"),
    ("sampler.draws", "count"),
    ("trajectory.busy_ms", "ms"),
    ("trajectory.shots", "count"),
    ("trajectory.us_per_shot", "us"),
    ("trajectory.injected_errors", "count"),
    ("trajectory.renormalizations", "count"),
    ("trajectory.req_per_shot", "count"),
    ("trajectory.req_forked", "count"),
    ("trajectory.req_alias", "count"),
    ("trajectory.req_frame", "count"),
    ("frame.busy_ms", "ms"),
    ("frame.shots", "count"),
    ("service.queue_p50_ms", "ms"),
    ("service.run_p50_ms", "ms"),
    ("service.dedup_hits", "count"),
    ("service.coalesced_jobs", "count"),
    ("serve.wire_p50_ms", "ms"),
    ("serve.gen_late_p99_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// The six end-to-end metrics from a run's raw measurements.
pub fn end_to_end(
    setup_s: &[f64],
    latencies_ms: &[f64],
    tail_q: f64,
    phase_s: f64,
    usage: sys::Usage,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut lat = latencies_ms.to_vec();
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    let q = match stats::ten_beyond_percentile(n) {
        Some(rule) if rule < tail_q => {
            notes.push(format!(
                "only {n} requests: req_tail_ms falls back from p{tail_q} to p{rule}"
            ));
            rule
        }
        None => {
            notes.push(format!("only {n} requests: req_tail_ms is the median"));
            50.0
        }
        _ => tail_q,
    };
    notes.push(format!(
        "{n} timed requests; req_tail_ms is p{q} ({} beyond)",
        stats::beyond(n, q)
    ));
    vec![
        ("setup_s", stats::median(setup_s), "s"),
        ("req_p50_ms", stats::percentile(&lat, 50.0), "ms"),
        ("req_tail_ms", stats::percentile(&lat, q), "ms"),
        ("req_per_s", n as f64 / phase_s, "1/s"),
        ("cpu_ms_per_req", usage.cpu_s * 1e3 / n as f64, "ms"),
        ("peak_rss_mib", usage.peak_rss_mib, "MiB"),
    ]
}

/// Where a traced run writes its spans: under the build directory,
/// which the checkout ignores.
pub fn trace_path(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("e2ebench")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed))
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    let v = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "toolbox-counts" => inproc::run(&inproc::TOOLBOX, &args),
        "noisy-sample" => inproc::run(&inproc::NOISY, &args),
        "serve-stream" => serve::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(1);
        }
    };
    let (mut attempted, mut failed, mut wrong) = (0, 0, 0);
    println!("kind                 attempted  failed  wrong");
    for (kind, k) in &out.kinds {
        println!(
            "{kind:<20} {:>9} {:>7} {:>6}",
            k.attempted, k.failed, k.wrong
        );
        attempted += k.attempted;
        failed += k.failed;
        wrong += k.wrong;
    }
    for note in &out.notes {
        println!("{note}");
    }
    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                metric_json(name, out.layers.get(name).copied().unwrap_or(0.0), unit)
            })
            .collect()
    } else {
        out.end_to_end
            .iter()
            .map(|&(name, v, unit)| metric_json(name, v, unit))
            .collect()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        wrong == 0 && attempted > 0,
        metrics.join(",")
    );
    ExitCode::SUCCESS
}
