//! The in-process workloads: one caller in a closed loop, timing calls
//! into the public functions of each layer.
//!
//! - `toolbox-counts`: the paper's loop, `from_qasm` → `compile_with` →
//!   `bytecode` → `simulate_bitstring_with` → `Simulation::counts`, on
//!   noiseless circuits that are all distinct.
//! - `noisy-sample`: `from_qasm` → `compile_with` → `bytecode` or
//!   `frame_program` → `run_trajectories` under after-gate depolarizing
//!   noise.
//!
//! The layer calls made explicitly before `simulate_bitstring_with` and
//! `run_trajectories` are the ones those functions make internally; the
//! internal calls then hit the plan cache, so each layer's work is done
//! once and timed where it happens.

use crate::check::{self, Noise};
use crate::gen::{self, Expect, Request, Rng};
use crate::stats::{median, percentile};
use crate::sys::{self, Usage};
use crate::trace::{self, Tracer};
use crate::{Args, Outcome, REQUEST_TIMEOUT, SETUP_REPEATS};
use qclab_core::program::{self, PlanCacheStats, PlanOptions};
use qclab_core::sim::control::ExecutionControl;
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::sim::trajectory::{
    run_trajectories, NoiseSpec, PauliChannel, ShotPath, TrajectoryConfig,
};
use qclab_core::SimOptions;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// An in-process workload: how its rounds are generated, how its
/// requests run and which percentile its tail metric reports.
pub struct LibWorkload {
    /// Builds round `index` of input stream `stream` for `seed`. Every
    /// round has the same request kinds in the same order.
    round: fn(u64, u64, u64) -> Vec<Request>,
    noisy: bool,
    tail_q: f64,
    /// Rounds per warm-up: enough that set-up is not a handful of
    /// milliseconds at the mercy of scheduling noise.
    warmup_rounds: u64,
}

/// Input streams: warm-up rounds never repeat a timed input.
const STREAM_WARMUP: u64 = 1;
const STREAM_TIMED: u64 = 2;

/// Physical error rate of the noisy workload (hardware-realistic).
pub const NOISE_P: f64 = 0.002;

pub const TOOLBOX: LibWorkload = LibWorkload {
    round: toolbox_round,
    noisy: false,
    tail_q: 95.0,
    warmup_rounds: 3,
};

pub const NOISY: LibWorkload = LibWorkload {
    round: noisy_round,
    noisy: true,
    tail_q: 95.0,
    warmup_rounds: 3,
};

/// One toolbox round: two wide mirror bricks past the parallel-kernel
/// threshold, and paper-scale circuits where branching and sampling do
/// the work. Counts per kind are chosen so the median request is a
/// Grover search (ranks 5–8 of 12 by latency) and the 95th percentile
/// falls among the 19-qubit bricks.
fn toolbox_round(seed: u64, stream: u64, index: u64) -> Vec<Request> {
    let mut rng = Rng::derive(seed, stream, index);
    let mut out = Vec::new();
    let mut push = |kind, nb_qubits, shots, rng: &mut Rng, (qasm, expect): (String, Expect)| {
        out.push(Request {
            kind,
            qasm,
            nb_qubits,
            shots,
            seed: rng.next_u64() >> 1,
            expect,
            sites: 0,
        });
    };
    for (kind, n, layers) in [("wide18", 18, 3), ("wide19", 19, 2)] {
        let (qasm, expect, _) = gen::mirror_brick(&mut rng, n, layers, 3, false);
        push(kind, n, 1000, &mut rng, (qasm, expect));
    }
    for _ in 0..4 {
        let c = gen::grover(&mut rng, 6);
        push("grover", 10, 1000, &mut rng, c);
    }
    for _ in 0..2 {
        let t = 6 + rng.below(3);
        let c = gen::phase_estimation(&mut rng, t);
        push("qpe", t + 1, 1000, &mut rng, c);
        let (qasm, expect, _) = gen::brick(&mut rng, 9, 4, &(0..9).collect::<Vec<_>>());
        push("brick-all", 9, 1000, &mut rng, (qasm, expect));
    }
    let c = gen::teleport(&mut rng);
    push("teleport", 3, 1000, &mut rng, c);
    let rc = gen::repetition_code(&mut rng, 5, 3, true);
    let c = (rc.text, Expect::Dist(BTreeMap::from([(rc.noiseless, 1.0)])));
    push("repcode", 9, 1000, &mut rng, c);
    out
}

/// One noisy round: non-Clifford mirror bricks at 11–12 qubits with 128
/// shots (two full shot batches) on the trajectory engine, each with one
/// fixed noiseless record, so the Pauli-mixture bounds (at least ~40 of
/// the 128 shots on that record at 12 qubits) catch a wrong answer; a small brick checked
/// against the density-matrix backend, and a Clifford repetition-code
/// memory with 10⁴ shots for the Pauli-frame sampler. The median request
/// is an 11-qubit brick (ranks 3–7 of 8 by latency), well inside their
/// block, and the 95th percentile falls among the 12-qubit ones.
fn noisy_round(seed: u64, stream: u64, index: u64) -> Vec<Request> {
    let mut rng = Rng::derive(seed, stream, index);
    let mut out = Vec::new();
    for n in [11, 11, 11, 11, 11, 12] {
        let (qasm, expect, sites) = gen::mirror_brick(&mut rng, n, 3, 4, true);
        out.push(Request {
            kind: "noisy-brick",
            qasm,
            nb_qubits: n,
            shots: 128,
            seed: rng.next_u64() >> 1,
            expect,
            sites,
        });
    }
    let measured: Vec<usize> = (0..5).collect();
    let (qasm, expect, sites) = gen::brick(&mut rng, 5, 4, &measured);
    let expect = match expect {
        Expect::Kron { unitary, measured } => Expect::Density { unitary, measured },
        other => other,
    };
    out.push(Request {
        kind: "small-brick",
        qasm,
        nb_qubits: 5,
        shots: 2000,
        seed: rng.next_u64() >> 1,
        expect,
        sites,
    });
    let rc = gen::repetition_code(&mut rng, 5, 3, false);
    // a data bit flips iff an odd number of the X/Y errors on its sites
    // fired: each site does so with probability 2p/3
    let flip = rc
        .data_sites
        .iter()
        .map(|&g| (1.0 - (1.0 - 4.0 * NOISE_P / 3.0).powi(g as i32)) / 2.0)
        .collect();
    out.push(Request {
        kind: "frame-memory",
        qasm: rc.text,
        nb_qubits: 9,
        shots: 10_000,
        seed: rng.next_u64() >> 1,
        expect: Expect::Memory {
            data_pos: rc.data_pos,
            logical: rc.logical,
            flip,
        },
        sites: rc.sites,
    });
    out
}

/// What one executed request left behind.
#[derive(Default)]
struct Exec {
    timed: bool,
    traced: bool,
    lat_ms: f64,
    /// CPU seconds of the request's own calls (all threads).
    cpu_s: f64,
    qasm_bytes: usize,
    /// Why the request failed (error, timeout, partial result).
    failure: Option<String>,
    /// Why its answer is wrong.
    wrong: Option<String>,
    gates_out: u64,
    instrs: u64,
    branches: u64,
    path: Option<ShotPath>,
    shots_done: u64,
    injected: u64,
    renormalizations: u64,
    /// Amplitude bytes the dense kernels read and wrote, computed from
    /// op counts and register size (cache misses not included).
    kernel_bytes: f64,
    cache: [u64; 3],
}

fn cache_delta(a: &PlanCacheStats, b: &PlanCacheStats) -> [u64; 3] {
    [
        b.hits - a.hits,
        b.misses - a.misses,
        b.evictions - a.evictions,
    ]
}

fn amp_bytes(n: usize) -> f64 {
    2.0 * 16.0 * (1u64 << n) as f64
}

type Counts = Result<BTreeMap<String, u64>, String>;

/// Runs one request through the paper's loop or the trajectory engine,
/// with spans around every public call when the tracer is active.
fn execute(req: &Request, noisy: bool, tracer: &mut Tracer, rid: u64) -> (Exec, Counts) {
    let before = program::plan_cache_stats();
    let mut e = Exec {
        qasm_bytes: req.qasm.len(),
        ..Exec::default()
    };
    let t0 = Instant::now();
    let root = tracer.open("request", rid, None);
    let span = tracer.open("qasm", rid, root);
    let circuit = qclab_qasm::from_qasm(&req.qasm);
    tracer.close(span);
    let counts = match circuit {
        Err(err) => Err(format!("parse: {err}")),
        Ok(circuit) if !noisy => {
            let opts = SimOptions {
                control: ExecutionControl::with_timeout(REQUEST_TIMEOUT),
                ..SimOptions::default()
            };
            let span = tracer.open("program", rid, root);
            let plan = circuit.compile_with(&PlanOptions::from(&opts.kernel));
            tracer.close(span);
            let span = tracer.open("bytecode", rid, root);
            let bc = plan.bytecode();
            tracer.close(span);
            let span = tracer.open("sim", rid, root);
            let sim = circuit.simulate_bitstring_with(&"0".repeat(req.nb_qubits), &opts);
            tracer.close(span);
            e.gates_out = plan.stats().gates_out as u64;
            e.instrs = bc.stream_len() as u64;
            match sim {
                Err(err) => Err(format!("simulate: {err}")),
                Ok(sim) => {
                    let span = tracer.open("sampler", rid, root);
                    let counts = sim.counts(req.shots, req.seed);
                    tracer.close(span);
                    let sp = plan.shot_plan();
                    e.branches = sim.branches().len() as u64;
                    e.kernel_bytes = amp_bytes(req.nb_qubits)
                        * (sp.prefix_gates as f64 + sp.suffix_gates as f64 * e.branches as f64);
                    e.shots_done = req.shots;
                    Ok(counts.into_iter().collect())
                }
            }
        }
        Ok(circuit) => {
            let config = TrajectoryConfig {
                seed: req.seed,
                shots: req.shots,
                noise: NoiseSpec {
                    after_gate: Some(PauliChannel::Depolarizing(NOISE_P)),
                    ..NoiseSpec::default()
                },
                control: ExecutionControl::with_timeout(REQUEST_TIMEOUT),
                // serial shots: on a small shared host the two-thread
                // fan-out made run-to-run spread several times wider
                parallel: false,
                ..TrajectoryConfig::default()
            };
            // noisy runs lower unfused and unremapped: noise sites sit on
            // source gates
            let span = tracer.open("program", rid, root);
            let plan = circuit.compile_with(&PlanOptions::unfused());
            tracer.close(span);
            e.gates_out = plan.stats().gates_out as u64;
            if plan.stats().is_clifford {
                let span = tracer.open("frame", rid, root);
                let fp = plan.frame_program();
                tracer.close(span);
                e.instrs = fp.map_or(0, |f| f.len() as u64);
            } else {
                let span = tracer.open("bytecode", rid, root);
                e.instrs = plan.bytecode().stream_len() as u64;
                tracer.close(span);
            }
            let span = tracer.open("trajectory", rid, root);
            let run = run_trajectories(&circuit, &config);
            tracer.close(span);
            match run {
                Err(err) => Err(format!("run_trajectories: {err}")),
                Ok(r) => {
                    if r.path() == ShotPath::PauliFrame {
                        tracer.rename(span, "frame");
                    } else {
                        e.kernel_bytes =
                            amp_bytes(req.nb_qubits) * e.gates_out as f64 * r.shots() as f64;
                    }
                    e.path = Some(r.path());
                    e.shots_done = r.shots();
                    e.injected = r.injected_errors();
                    e.renormalizations = r.norm_stats().renormalizations;
                    if r.is_partial() {
                        Err(format!(
                            "stopped after {} of {} shots: {:?}",
                            r.shots(),
                            r.requested_shots(),
                            r.stop_cause()
                        ))
                    } else {
                        Ok(r.counts().clone())
                    }
                }
            }
        }
    };
    tracer.close(root);
    e.lat_ms = t0.elapsed().as_secs_f64() * 1e3;
    e.cache = cache_delta(&before, &program::plan_cache_stats());
    (e, counts)
}

/// Executes a request, then checks its answer outside the timed span
/// and keeps only the figures: memory held across the run does not grow
/// with its request count. The traced run keeps the wide requests'
/// sources for the serial rerun.
fn run_one(
    mut req: Request,
    noisy: bool,
    tracer: &mut Tracer,
    rid: u64,
    timed: bool,
    traced: bool,
) -> (Request, Exec) {
    let cpu0 = sys::self_usage().cpu_s;
    let (mut e, counts) = execute(&req, noisy, tracer, rid);
    e.cpu_s = sys::self_usage().cpu_s - cpu0;
    e.timed = timed;
    e.traced = traced;
    match counts {
        Ok(c) => e.wrong = verify(&req, &e, &c, noisy).err(),
        Err(msg) => e.failure = Some(msg),
    }
    if !(traced && req.nb_qubits >= qclab_core::sim::kernel::PARALLEL_THRESHOLD_QUBITS) {
        req.qasm = String::new();
    }
    (req, e)
}

fn verify(
    req: &Request,
    e: &Exec,
    counts: &BTreeMap<String, u64>,
    noisy: bool,
) -> Result<(), String> {
    let total: u64 = counts.values().sum();
    if total != req.shots {
        return Err(format!("{total} shots returned, {} requested", req.shots));
    }
    let noise = noisy.then_some(Noise {
        p: NOISE_P,
        sites: req.sites,
    });
    check::check(&req.expect, counts, noise)?;
    match noise {
        Some(nz) => check::injected_check(e.injected, e.shots_done, nz),
        None => Ok(()),
    }
}

/// Times the wide requests once more with parallel kernels off, the
/// plain single-threaded baseline, interleaved with the default; returns
/// the median of the per-request ratios default ÷ serial.
fn parallel_slowdown(wide: &[&Request]) -> Option<f64> {
    let mut ratios = Vec::new();
    for (i, req) in wide.iter().enumerate() {
        let circuit = qclab_qasm::from_qasm(&req.qasm).ok()?;
        let zeros = "0".repeat(req.nb_qubits);
        let serial = SimOptions {
            kernel: KernelConfig {
                allow_parallel: false,
                ..KernelConfig::default()
            },
            ..SimOptions::default()
        };
        let time = |opts: &SimOptions| {
            let t = Instant::now();
            let sim = circuit.simulate_bitstring_with(&zeros, opts);
            std::hint::black_box(&sim);
            t.elapsed().as_secs_f64()
        };
        let (d, s) = if i % 2 == 0 {
            let d = time(&SimOptions::default());
            (d, time(&serial))
        } else {
            let s = time(&serial);
            (time(&SimOptions::default()), s)
        };
        ratios.push(d / s);
    }
    (!ratios.is_empty()).then(|| median(&ratios))
}

pub fn run(w: &LibWorkload, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let mut done: Vec<(Request, Exec)> = Vec::new();
    let mut rid = 0u64;

    let mut setup_s = Vec::new();
    for i in 0..SETUP_REPEATS {
        program::clear_plan_cache();
        let reqs: Vec<Request> = (0..w.warmup_rounds)
            .flat_map(|r| (w.round)(args.seed, STREAM_WARMUP, i * w.warmup_rounds + r))
            .collect();
        // set-up time is the requests' own time; checks are excluded
        let mut t = 0.0;
        for req in reqs {
            let (req, e) = run_one(req, w.noisy, &mut tracer, rid, false, false);
            rid += 1;
            t += e.lat_ms / 1e3;
            done.push((req, e));
        }
        setup_s.push(t);
    }

    // the timed phase is the requests' own time (one caller, closed
    // loop); checks run between requests, outside it
    let end = Instant::now() + Duration::from_secs(args.seconds);
    let mut round = 0u64;
    while round == 0 || Instant::now() < end {
        let traced = args.trace && round.is_multiple_of(2);
        tracer.set_active(traced);
        for req in (w.round)(args.seed, STREAM_TIMED, round) {
            done.push(run_one(req, w.noisy, &mut tracer, rid, true, traced));
            rid += 1;
        }
        round += 1;
    }
    tracer.set_active(false);
    let timed = || done.iter().filter(|(_, e)| e.timed).map(|(_, e)| e);
    let usage = Usage {
        cpu_s: timed().map(|e| e.cpu_s).sum(),
        peak_rss_mib: sys::self_usage().peak_rss_mib,
    };
    let phase_s: f64 = timed().map(|e| e.lat_ms / 1e3).sum();
    out.notes.push(format!("{round} timed rounds"));

    for (req, e) in &done {
        if let Some(msg) = &e.failure {
            out.notes.push(format!("FAILED {}: {msg}", req.kind));
        }
        if let Some(msg) = &e.wrong {
            out.notes.push(format!("WRONG {}: {msg}", req.kind));
        }
        out.count(req.kind, e.failure.is_some(), e.wrong.is_some());
    }

    let timed_lat: Vec<f64> = done
        .iter()
        .filter(|(_, e)| e.timed)
        .map(|(_, e)| e.lat_ms)
        .collect();
    for kind in out.kinds.keys() {
        let lat: Vec<f64> = done
            .iter()
            .filter(|(r, e)| e.timed && r.kind == *kind)
            .map(|(_, e)| e.lat_ms)
            .collect();
        out.notes.push(format!(
            "{kind:<14} median latency {:>9.3} ms",
            median(&lat)
        ));
    }
    if !args.trace {
        out.end_to_end = crate::end_to_end(
            &setup_s,
            &timed_lat,
            w.tail_q,
            phase_s,
            usage,
            &mut out.notes,
        );
        return Ok(out);
    }
    layer_metrics(&mut out, &done, &tracer);
    if !w.noisy {
        let wide: Vec<&Request> = done
            .iter()
            .filter(|(r, e)| {
                e.traced && r.nb_qubits >= qclab_core::sim::kernel::PARALLEL_THRESHOLD_QUBITS
            })
            .map(|(r, _)| r)
            .take(12)
            .collect();
        if let Some(s) = parallel_slowdown(&wide) {
            out.notes.push(format!(
                "parallel kernels: {s:.2}x the single-threaded time on {} requests of >= 18 qubits",
                wide.len()
            ));
            out.layers.insert("kernel.parallel_slowdown", s);
        }
    }
    let probe = sys::copy_probe();
    out.notes.push(format!(
        "copy probe: {:.2} GB/s (read+write) over a {} MiB array; last-level cache {} MiB",
        probe.gbps,
        probe.array_bytes >> 20,
        probe.llc_bytes >> 20
    ));
    out.layers.insert("kernel.copy_gbps", probe.gbps);
    let path = crate::trace_path(args);
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    Ok(out)
}

/// Per-layer metrics over the traced rounds.
fn layer_metrics(out: &mut Outcome, done: &[(Request, Exec)], tracer: &Tracer) {
    let spans = tracer.spans();
    let self_ms: BTreeMap<&str, f64> = trace::self_time_by_name(spans)
        .into_iter()
        .map(|(k, v)| (k, v * 1e3))
        .collect();
    // per request: duration of its engine span (sim or trajectory)
    let mut engine_ms: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans {
        if matches!(s.name, "sim" | "trajectory") {
            *engine_ms.entry(s.request).or_insert(0.0) += (s.end - s.start) * 1e3;
        }
    }
    let request_ms: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end - s.start) * 1e3)
        .sum();
    let attributed = request_ms - self_ms.get("request").copied().unwrap_or(0.0);
    out.notes.push(format!(
        "traced requests: {:.1}% of {request_ms:.1} ms attributed to layers",
        100.0 * attributed / request_ms.max(1e-9)
    ));
    for (layer, ms) in &self_ms {
        out.notes
            .push(format!("  self time {layer:<11} {ms:>10.2} ms"));
    }

    let traced: Vec<(&Request, &Exec, u64)> = done
        .iter()
        .enumerate()
        .filter(|(_, (_, e))| e.traced)
        .map(|(i, (r, e))| (r, e, i as u64))
        .collect();
    let l = &mut out.layers;
    for name in [
        "qasm",
        "program",
        "bytecode",
        "sim",
        "sampler",
        "trajectory",
        "frame",
    ] {
        l.insert(
            match name {
                "qasm" => "qasm.busy_ms",
                "program" => "program.busy_ms",
                "bytecode" => "bytecode.busy_ms",
                "sim" => "sim.busy_ms",
                "sampler" => "sampler.busy_ms",
                "trajectory" => "trajectory.busy_ms",
                _ => "frame.busy_ms",
            },
            self_ms.get(name).copied().unwrap_or(0.0),
        );
    }
    let sum =
        |f: &dyn Fn(&Request, &Exec) -> f64| traced.iter().map(|(r, e, _)| f(r, e)).sum::<f64>();
    l.insert("qasm.bytes", sum(&|_, e| e.qasm_bytes as f64));
    l.insert("program.cache_hits", sum(&|_, e| e.cache[0] as f64));
    l.insert("program.cache_misses", sum(&|_, e| e.cache[1] as f64));
    l.insert("program.cache_evictions", sum(&|_, e| e.cache[2] as f64));
    l.insert("program.ops_out", sum(&|_, e| e.gates_out as f64));
    l.insert("bytecode.instrs", sum(&|_, e| e.instrs as f64));
    l.insert("kernel.bytes_computed", sum(&|_, e| e.kernel_bytes));
    l.insert(
        "sim.branches",
        sum(&|_, e| {
            if e.path.is_none() {
                e.branches as f64
            } else {
                0.0
            }
        }),
    );
    let peak = traced.iter().map(|(_, e, _)| e.branches).max().unwrap_or(0);
    l.insert("sim.peak_branches", peak as f64);
    let branch_mib = traced
        .iter()
        .map(|(r, e, _)| e.branches as f64 * 16.0 * (1u64 << r.nb_qubits) as f64)
        .fold(0.0, f64::max);
    l.insert("sim.branch_mib", branch_mib / (1u64 << 20) as f64);
    l.insert(
        "sampler.draws",
        sum(&|r, e| {
            if e.path.is_none() {
                r.shots as f64
            } else {
                0.0
            }
        }),
    );
    let by_path = |want: fn(&ShotPath) -> bool| {
        traced
            .iter()
            .filter(|(_, e, _)| e.path.as_ref().is_some_and(want))
            .count() as f64
    };
    let traj_shots = sum(&|_, e| match e.path {
        Some(p) if p != ShotPath::PauliFrame => e.shots_done as f64,
        _ => 0.0,
    });
    l.insert("trajectory.shots", traj_shots);
    let traj_ms = l.get("trajectory.busy_ms").copied().unwrap_or(0.0);
    l.insert(
        "trajectory.us_per_shot",
        if traj_shots > 0.0 {
            traj_ms * 1e3 / traj_shots
        } else {
            0.0
        },
    );
    l.insert("trajectory.injected_errors", sum(&|_, e| e.injected as f64));
    l.insert(
        "trajectory.renormalizations",
        sum(&|_, e| e.renormalizations as f64),
    );
    l.insert(
        "trajectory.req_per_shot",
        by_path(|p| *p == ShotPath::PerShot),
    );
    l.insert(
        "trajectory.req_forked",
        by_path(|p| matches!(p, ShotPath::Forked { .. })),
    );
    l.insert(
        "trajectory.req_alias",
        by_path(|p| {
            matches!(
                p,
                ShotPath::AliasSampled { .. } | ShotPath::SparseSampled { .. }
            )
        }),
    );
    l.insert(
        "trajectory.req_frame",
        by_path(|p| *p == ShotPath::PauliFrame),
    );
    l.insert(
        "frame.shots",
        sum(&|_, e| {
            if e.path == Some(ShotPath::PauliFrame) {
                e.shots_done as f64
            } else {
                0.0
            }
        }),
    );
    // kernel rate where the dense kernels do the work: the wide
    // requests of toolbox-counts, the state-vector shots of noisy-sample
    let (mut bytes, mut ms) = (0.0, 0.0);
    for (r, e, i) in &traced {
        let kernel_bound = match e.path {
            None => r.nb_qubits >= qclab_core::sim::kernel::PARALLEL_THRESHOLD_QUBITS,
            Some(p) => p != ShotPath::PauliFrame,
        };
        if kernel_bound {
            bytes += e.kernel_bytes;
            // request ids are handed out in execution order
            ms += engine_ms.get(i).copied().unwrap_or(0.0);
        }
    }
    l.insert(
        "kernel.gbps",
        if ms > 0.0 {
            bytes / (ms * 1e-3) / 1e9
        } else {
            0.0
        },
    );

    let lat = |want: bool| {
        let mut v: Vec<f64> = done
            .iter()
            .filter(|(_, e)| e.timed && e.traced == want)
            .map(|(_, e)| e.lat_ms)
            .collect();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            0.0
        } else {
            percentile(&v, 50.0)
        }
    };
    l.insert("trace.overhead_ms", lat(true) - lat(false));
}
