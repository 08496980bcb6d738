//! `serve-stream`: the real `qclab serve` process fed over its stdin
//! wire by one client that keeps a fixed number of jobs in flight.
//!
//! Most jobs repeat a few hot circuits (plan-cache reads, coalescing);
//! the rest are unique. The loop is closed: a job is written as soon as
//! an earlier one is answered, so a host stall delays only the jobs in
//! flight at the time, and latency runs from the write to the reply.

use crate::check::{self, kron_distribution};
use crate::gen::{self, Expect, Rng};
use crate::stats::{distribution_check, median, percentile};
use crate::sys::{self, Usage};
use crate::trace::Tracer;
use crate::{Args, Outcome, REQUEST_TIMEOUT, SETUP_REPEATS};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Jobs kept in flight: twice the workers, so a worker finishing one
/// group finds the next job queued, while the queue stays short.
fn in_flight() -> usize {
    2 * workers()
}
const SHOTS: u64 = 256;
/// Hot jobs draw their seed from `1..=HOT_SEEDS`, so identical jobs
/// recur and must return identical counts.
const HOT_SEEDS: u64 = 8;
/// p95 rather than the p99.9 the ten-beyond rule allows: over ten runs
/// p99 moved about twice as much as p95 with host scheduling stalls
/// (README, `serve-stream`).
const TAIL_Q: f64 = 95.0;
/// How long the client waits for any reply before it declares the
/// server hung: longer than any job's own deadline.
const REPLY_WAIT: Duration = Duration::from_secs(15);

const STREAM_SERVE: u64 = 3;

/// One job on the wire.
struct Job {
    kind: &'static str,
    /// Index into the hot set, or `None` for a unique job.
    hot: Option<usize>,
    seed: u64,
    /// Source of a unique job (a hot job's is in the hot set).
    qasm: Option<String>,
    /// Reference of a unique job.
    expect: Option<Expect>,
}

/// A parsed response line.
#[derive(Debug, Default)]
struct Reply {
    ok: bool,
    error: String,
    shots: u64,
    path: String,
    counts: BTreeMap<String, u64>,
    queue_ms: f64,
    run_ms: f64,
    wall_ms: f64,
    dedup_hit: bool,
    coalesced: u64,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn job_line(id: &str, qasm: &str, seed: u64) -> String {
    format!(
        "{{\"id\":\"{id}\",\"qasm\":\"{}\",\"shots\":{SHOTS},\"seed\":{seed},\"timeout_ms\":{}}}\n",
        json_escape(qasm),
        REQUEST_TIMEOUT.as_millis()
    )
}

/// The hot circuits: two terminal-measured bricks (alias path) and two
/// mid-circuit circuits (forked path).
fn hot_set(seed: u64) -> Vec<(&'static str, String, Expect)> {
    let mut rng = Rng::derive(seed, STREAM_SERVE, 0);
    let mut hot = Vec::new();
    let m = rng.choose(12, 4);
    let (q, e, _) = gen::brick(&mut rng, 12, 4, &m);
    hot.push(("hot-brick12", q, e));
    let m = rng.choose(14, 3);
    let (q, e, _) = gen::brick(&mut rng, 14, 3, &m);
    hot.push(("hot-brick14", q, e));
    let rc = gen::repetition_code(&mut rng, 3, 2, true);
    hot.push((
        "hot-repcode",
        rc.text,
        Expect::Dist(BTreeMap::from([(rc.noiseless, 1.0)])),
    ));
    let (q, e) = gen::teleport(&mut rng);
    hot.push(("hot-teleport", q, e));
    hot
}

/// Round `index` of the timed jobs: every hot circuit twice with a
/// random seed, then two unique mirror bricks (alias path; their
/// reference is closed-form, so checking thousands stays cheap), one unique
/// repetition code and one unique teleportation (forked path), in a
/// seeded order. Two thirds of the jobs are hot.
fn round(seed: u64, index: u64, hot: &[(&'static str, String, Expect)]) -> Vec<Job> {
    let mut rng = Rng::derive(seed, STREAM_SERVE, 1 + index);
    let mut jobs = Vec::with_capacity(2 * hot.len() + 4);
    for h in (0..hot.len()).chain(0..hot.len()) {
        let seed = 1 + rng.below(HOT_SEEDS as usize) as u64;
        jobs.push(Job {
            kind: hot[h].0,
            hot: Some(h),
            seed,
            qasm: None,
            expect: None,
        });
    }
    for k in 0..4 {
        let seed = rng.next_u64() >> 12;
        let (kind, qasm, expect) = match k {
            0 | 1 => {
                let n = 8 + rng.below(5);
                let (q, e, _) = gen::mirror_brick(&mut rng, n, 3, 3, false);
                ("unique-brick", q, e)
            }
            2 => {
                let d = 3 + rng.below(2);
                let rc = gen::repetition_code(&mut rng, d, 2, true);
                let e = Expect::Dist(BTreeMap::from([(rc.noiseless, 1.0)]));
                ("unique-repcode", rc.text, e)
            }
            _ => {
                let (q, e) = gen::teleport(&mut rng);
                ("unique-teleport", q, e)
            }
        };
        jobs.push(Job {
            kind,
            hot: None,
            seed,
            qasm: Some(qasm),
            expect: Some(expect),
        });
    }
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.below(i + 1));
    }
    jobs
}

// ---------------------------------------------------------------------
// a minimal JSON reader for response lines
// ---------------------------------------------------------------------

#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    /// Arrays are parsed and skipped: no reply field is one.
    Arr,
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(f) => f.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            _ => 0.0,
        }
    }
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => "",
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }
    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > 16 {
            return Err("nesting too deep".into());
        }
        self.ws();
        match self.b.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.b.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    fields.push((k, self.value(depth + 1)?));
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                self.ws();
                if self.b.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr);
                }
                loop {
                    self.value(depth + 1)?;
                    self.ws();
                    match self.b.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr);
                        }
                        _ => return Err(format!("bad array at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.b[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.b[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Json::Bool(false))
            }
            Some(b'n') if self.b[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Json::Null)
            }
            _ => {
                let start = self.i;
                while self.i < self.b.len()
                    && matches!(
                        self.b[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.b[start..self.i])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }
    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        while let Some(&c) = self.b.get(self.i) {
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let e = *self.b.get(self.i).ok_or("dangling escape")?;
                    self.i += 1;
                    out.push(match e {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        other => other,
                    });
                }
                c => out.push(c),
            }
        }
        Err("unterminated string".into())
    }
}

fn parse_json(line: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: line.as_bytes(),
        i: 0,
    };
    let v = p.value(0)?;
    p.ws();
    if p.i != p.b.len() {
        return Err("trailing bytes".into());
    }
    Ok(v)
}

/// Reads one response line into its id and content.
fn parse_reply(line: &str) -> Result<(String, Reply), String> {
    let v = parse_json(line)?;
    let id = v.get("id").map(Json::str).unwrap_or("").to_string();
    let mut r = Reply {
        ok: matches!(v.get("ok"), Some(Json::Bool(true))),
        ..Reply::default()
    };
    if !r.ok {
        r.error = v
            .get("error")
            .and_then(|e| e.get("message"))
            .map(|m| m.str().to_string())
            .unwrap_or_else(|| line.to_string());
        return Ok((id, r));
    }
    r.shots = v.get("shots").map_or(0.0, Json::num) as u64;
    r.path = v.get("path").map(Json::str).unwrap_or("").to_string();
    if let Some(Json::Obj(counts)) = v.get("counts") {
        r.counts = counts
            .iter()
            .map(|(k, n)| (k.clone(), n.num() as u64))
            .collect();
    }
    let t = v.get("telemetry").ok_or("reply without telemetry")?;
    r.queue_ms = t.get("queue_ms").map_or(0.0, Json::num);
    r.run_ms = t.get("run_ms").map_or(0.0, Json::num);
    r.wall_ms = t.get("wall_ms").map_or(0.0, Json::num);
    r.dedup_hit = matches!(t.get("dedup_hit"), Some(Json::Bool(true)));
    r.coalesced = t.get("coalesced").map_or(0.0, Json::num) as u64;
    Ok((id, r))
}

// ---------------------------------------------------------------------
// the server process
// ---------------------------------------------------------------------

/// Builds the `qclab` binary from the checkout and returns its path.
fn build_server() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "qclab-cli",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building qclab-cli failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let bin = PathBuf::from(target).join("release").join("qclab");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after build", bin.display()))
    }
}

struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<(Instant, String)>,
    reader: std::thread::JoinHandle<()>,
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Server {
    fn spawn(bin: &PathBuf) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--workers", &workers().to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Server {
            stdin: child.stdin.take(),
            child,
            lines,
            reader,
        })
    }

    /// Closes stdin, lets the server drain and exit, and returns its
    /// usage. Kills it first if `kill` is set.
    fn finish(mut self, kill: bool) -> Result<Usage, String> {
        drop(self.stdin.take());
        if kill {
            let _ = self.child.kill();
        }
        let (status, usage) =
            sys::wait_child(self.child.id()).map_err(|e| format!("waiting for the server: {e}"))?;
        let _ = self.reader.join();
        if status != 0 && !kill {
            return Err(format!("server exited with wait status {status}"));
        }
        Ok(usage)
    }
}

/// Sends one job per hot circuit to a fresh server and reads the
/// answers.
fn warm_up(
    s: &mut Server,
    hot: &[(&'static str, String, Expect)],
    round: u64,
) -> Result<Vec<Answer>, String> {
    let stdin = s.stdin.as_mut().expect("stdin is piped");
    for (h, (_, qasm, _)) in hot.iter().enumerate() {
        let line = job_line(&format!("w{round}-{h}"), qasm, 1000 + h as u64);
        stdin
            .write_all(line.as_bytes())
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("writing to the server: {e}"))?;
    }
    let mut answers = Vec::with_capacity(hot.len());
    for _ in 0..hot.len() {
        let (_, line) = s
            .lines
            .recv_timeout(REPLY_WAIT)
            .map_err(|_| "no answer to a warm-up job".to_string())?;
        let (id, reply) = parse_reply(&line)?;
        let h: usize = id
            .rsplit('-')
            .next()
            .and_then(|x| x.parse().ok())
            .filter(|&h| h < hot.len())
            .ok_or_else(|| format!("unexpected warm-up reply id {id:?}"))?;
        answers.push(Answer {
            kind: hot[h].0,
            hot: Some(h),
            seed: 1000 + h as u64,
            expect: None,
            reply: Some(reply),
        });
    }
    Ok(answers)
}

/// A job as the checks see it, with whatever came back.
struct Answer {
    kind: &'static str,
    hot: Option<usize>,
    seed: u64,
    expect: Option<Expect>,
    reply: Option<Reply>,
}

/// A timed job as the client saw it.
struct Sent {
    at: Instant,
    /// When the reply that freed this job's slot was read (`None` for
    /// the jobs that fill the window at the start).
    freed: Option<Instant>,
    qasm_bytes: usize,
    recv: Option<Instant>,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = build_server()?;
    let hot = hot_set(args.seed);
    let mut out = Outcome::default();
    let mut answers: Vec<Answer> = Vec::new();

    // set-up: start the server until it has answered one warm-up job per
    // hot circuit; repeated, and the last server stays up
    let mut setup_s = Vec::new();
    let mut server = None;
    for round in 0..SETUP_REPEATS {
        let t = Instant::now();
        let mut s = Server::spawn(&bin)?;
        match warm_up(&mut s, &hot, round) {
            Ok(warm) => answers.extend(warm),
            Err(e) => {
                let _ = s.finish(true);
                return Err(e);
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if round + 1 < SETUP_REPEATS {
            s.finish(false)?;
        } else {
            server = Some(s);
        }
    }
    let mut server = server.expect("at least one set-up round");

    // timed phase: whole rounds, a new job whenever one is answered,
    // until the time is up; then the jobs in flight drain
    let first_timed = answers.len();
    let window = in_flight();
    let mut tracer = Tracer::new();
    tracer.set_active(args.trace);
    let mut stdin = server.stdin.take().expect("stdin is piped");
    let mut sent: Vec<Sent> = Vec::new();
    let mut replies: Vec<Option<Reply>> = Vec::new();
    let mut queue: VecDeque<Job> = VecDeque::new();
    let mut rounds = 0u64;
    let (mut outstanding, mut stopping, mut hung) = (0usize, false, false);
    let mut protocol_error = None;
    let mut freed: Option<Instant> = None;
    let start = Instant::now();
    let end = start + Duration::from_secs(args.seconds);
    loop {
        while outstanding < window && !stopping {
            if queue.is_empty() {
                if rounds > 0 && Instant::now() >= end {
                    stopping = true;
                    break;
                }
                queue.extend(round(args.seed, rounds, &hot));
                rounds += 1;
            }
            let job = queue.pop_front().expect("a round is never empty");
            let i = sent.len();
            let qasm = job
                .qasm
                .as_deref()
                .unwrap_or_else(|| &hot[job.hot.expect("a job without source is hot")].1);
            let line = job_line(&format!("t{i}"), qasm, job.seed);
            let at = Instant::now();
            let written = stdin
                .write_all(line.as_bytes())
                .and_then(|_| stdin.flush())
                .is_ok();
            sent.push(Sent {
                at,
                freed: freed.take(),
                qasm_bytes: qasm.len(),
                recv: None,
            });
            replies.push(None);
            answers.push(Answer {
                kind: job.kind,
                hot: job.hot,
                seed: job.seed,
                expect: job.expect,
                reply: None,
            });
            if !written {
                hung = true;
                stopping = true;
                break;
            }
            outstanding += 1;
        }
        if outstanding == 0 || hung {
            break;
        }
        match server.lines.recv_timeout(REPLY_WAIT) {
            Ok((at, line)) => {
                let parsed = parse_reply(&line).and_then(|(id, reply)| {
                    id.strip_prefix('t')
                        .and_then(|x| x.parse().ok())
                        .filter(|&i: &usize| i < sent.len() && replies[i].is_none())
                        .map(|i| (i, reply))
                        .ok_or_else(|| format!("unexpected reply id {id:?}"))
                });
                let (i, reply) = match parsed {
                    Ok(r) => r,
                    Err(e) => {
                        protocol_error = Some(e);
                        hung = true;
                        break;
                    }
                };
                sent[i].recv = Some(at);
                replies[i] = Some(reply);
                // the traced run records every other job; the rest give
                // the tracing overhead
                if i.is_multiple_of(2) {
                    tracer.record("job", i as u64, sent[i].at, at);
                }
                outstanding -= 1;
                freed = Some(at);
            }
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                hung = true;
                break;
            }
        }
    }
    drop(stdin);
    let usage = server.finish(hung)?;
    if let Some(e) = protocol_error {
        return Err(e);
    }
    if hung {
        out.notes.push(format!(
            "server stopped answering: {outstanding} of {} jobs unanswered",
            sent.len()
        ));
    }
    let phase_end = sent.iter().filter_map(|s| s.recv).max().unwrap_or(start);

    let mut lat = Vec::new();
    let (mut late, mut wire, mut queue_ms, mut run_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut dedup, mut coalesced, mut qasm_bytes) = (0u64, 0u64, 0u64);
    let mut paths: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, r) in sent.iter().zip(&replies) {
        if let Some(f) = s.freed {
            late.push(s.at.saturating_duration_since(f).as_secs_f64() * 1e3);
        }
        let (Some(recv), Some(r)) = (s.recv, r) else {
            continue;
        };
        if !r.ok {
            continue;
        }
        let ms = recv.saturating_duration_since(s.at).as_secs_f64() * 1e3;
        lat.push(ms);
        wire.push(ms - r.wall_ms);
        queue_ms.push(r.queue_ms);
        run_ms.push(r.run_ms);
        qasm_bytes += s.qasm_bytes as u64;
        dedup += u64::from(r.dedup_hit);
        coalesced += u64::from(r.coalesced >= 2);
        let p = match r.path.split(' ').next().unwrap_or("") {
            "alias-sampled" | "sparse-sampled" => "trajectory.req_alias",
            "forked" => "trajectory.req_forked",
            "per-shot" => "trajectory.req_per_shot",
            "pauli-frame" => "trajectory.req_frame",
            _ => "trajectory.req_other",
        };
        *paths.entry(p).or_insert(0) += 1;
    }
    let traced_half = |parity: usize| {
        let v: Vec<f64> = sent
            .iter()
            .enumerate()
            .filter(|(i, s)| i % 2 == parity && s.recv.is_some())
            .map(|(_, s)| (s.recv.expect("filtered") - s.at).as_secs_f64() * 1e3)
            .collect();
        median(&v)
    };
    let trace_overhead = traced_half(0) - traced_half(1);
    for (a, r) in answers[first_timed..].iter_mut().zip(replies) {
        a.reply = r;
    }
    verify(&mut out, &hot, &answers);
    let phase_s = (phase_end - start).as_secs_f64();
    out.notes.push(format!(
        "{rounds} timed rounds of {} jobs, {window} in flight; workers busy {:.1}% of the phase",
        2 * hot.len() + 4,
        100.0 * run_ms.iter().sum::<f64>() / 1e3 / phase_s / workers() as f64
    ));

    if !args.trace {
        out.end_to_end = crate::end_to_end(&setup_s, &lat, TAIL_Q, phase_s, usage, &mut out.notes);
        out.notes
            .push("server CPU covers its whole life: start-up, warm-up and the timed jobs".into());
        return Ok(out);
    }
    let l = &mut out.layers;
    l.insert("qasm.bytes", qasm_bytes as f64);
    l.insert("service.queue_p50_ms", median(&queue_ms));
    l.insert("service.run_p50_ms", median(&run_ms));
    l.insert("service.dedup_hits", dedup as f64);
    l.insert("service.coalesced_jobs", coalesced as f64);
    l.insert("serve.wire_p50_ms", median(&wire));
    l.insert("serve.gen_late_p99_ms", sorted_pct(&late, 99.0));
    l.insert("trajectory.shots", SHOTS as f64 * lat.len() as f64);
    for (k, v) in paths {
        l.insert(k, v as f64);
    }
    l.insert("trace.overhead_ms", trace_overhead);
    let path = crate::trace_path(args);
    tracer
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    Ok(out)
}

fn sorted_pct(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else {
        percentile(&v, q)
    }
}

/// Checks every reply: success with the requested shots; identical
/// counts for identical (circuit, seed) jobs, across server processes
/// too; pooled counts of each hot circuit over distinct seeds against
/// its exact distribution; and each unique job against its own.
fn verify(out: &mut Outcome, hot: &[(&'static str, String, Expect)], answers: &[Answer]) {
    let mut first: BTreeMap<(usize, u64), &BTreeMap<String, u64>> = BTreeMap::new();
    let mut pooled: Vec<BTreeMap<String, u64>> = vec![BTreeMap::new(); hot.len()];
    for Answer {
        kind,
        hot: h,
        seed,
        expect,
        reply,
    } in answers
    {
        let Some(r) = reply.as_ref().filter(|r| r.ok) else {
            let why = reply.as_ref().map_or("no reply", |r| r.error.as_str());
            out.notes.push(format!("FAILED {kind}: {why}"));
            out.count(kind, true, false);
            continue;
        };
        let mut wrong = None;
        if r.shots != SHOTS || r.counts.values().sum::<u64>() != SHOTS {
            wrong = Some(format!("{} shots returned", r.shots));
        } else if let Some(h) = *h {
            match first.get(&(h, *seed)) {
                Some(prev) if **prev != r.counts => {
                    wrong = Some(format!("seed {seed}: counts differ between identical jobs"));
                }
                Some(_) => {}
                None => {
                    first.insert((h, *seed), &r.counts);
                    for (k, n) in &r.counts {
                        *pooled[h].entry(k.clone()).or_insert(0) += n;
                    }
                }
            }
        } else if let Some(e) = expect {
            wrong = check::check(e, &r.counts, None).err();
        }
        if let Some(msg) = &wrong {
            out.notes.push(format!("WRONG {kind}: {msg}"));
        }
        out.count(kind, false, wrong.is_some());
    }
    for (h, (kind, _, expect)) in hot.iter().enumerate() {
        let exact = match expect {
            Expect::Dist(d) => Ok(d.clone()),
            Expect::Kron { unitary, measured } => kron_distribution(unitary, measured),
            other => Err(format!("no pooled check for {other:?}")),
        };
        if let Err(msg) = exact.and_then(|d| distribution_check(&pooled[h], &d)) {
            out.notes
                .push(format!("WRONG {kind} (pooled over seeds): {msg}"));
            out.kinds.entry(kind).or_default().wrong += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_a_pure_function_of_the_seed() {
        let hot = hot_set(5);
        let a = round(5, 3, &hot);
        let b = round(5, 3, &hot_set(5));
        assert_eq!(a.len(), 2 * hot.len() + 4);
        for (ja, jb) in a.iter().zip(&b) {
            assert_eq!((ja.kind, ja.hot, ja.seed), (jb.kind, jb.hot, jb.seed));
            assert_eq!(ja.qasm, jb.qasm);
        }
        let c = round(5, 4, &hot);
        assert!(a.iter().zip(&c).any(|(ja, jc)| ja.seed != jc.seed));
        // every round has the same make-up
        let kinds = |r: &[Job]| {
            let mut k: Vec<&str> = r.iter().map(|j| j.kind).collect();
            k.sort_unstable();
            k
        };
        assert_eq!(kinds(&a), kinds(&c));
        assert_eq!(a.iter().filter(|j| j.hot.is_some()).count(), 2 * hot.len());
        assert!(a
            .iter()
            .filter(|j| j.hot.is_some())
            .all(|j| j.qasm.is_none() && (1..=HOT_SEEDS).contains(&j.seed)));
    }

    #[test]
    fn reply_lines_parse() {
        let line = r#"{"id":"t3","ok":true,"shots":256,"requested_shots":256,"path":"alias-sampled (prefix 3 ops)","injected_errors":0,"counts":{"00":100,"11":156},"telemetry":{"queue_ms":0.400,"run_ms":2.100,"wall_ms":2.500,"dedup_hit":true,"coalesced":3}}"#;
        let (id, r) = parse_reply(line).unwrap();
        assert_eq!(id, "t3");
        assert!(r.ok && r.dedup_hit);
        assert_eq!(r.coalesced, 3);
        assert_eq!(r.counts["11"], 156);
        assert_eq!(r.wall_ms, 2.5);
        let err = r#"{"id":"t4","ok":false,"error":{"kind":"timeout","code":7,"message":"stopped \"early\""},"partial":null}"#;
        let (_, r) = parse_reply(err).unwrap();
        assert!(!r.ok && r.error == "stopped \"early\"");
        assert!(parse_json("[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]]").is_err());
    }

    #[test]
    fn job_lines_escape_the_source() {
        let line = job_line("a", "include \"qelib1.inc\";\nh q[0];", 3);
        let v = parse_json(line.trim_end()).unwrap();
        assert_eq!(
            v.get("qasm").unwrap().str(),
            "include \"qelib1.inc\";\nh q[0];"
        );
        assert_eq!(v.get("seed").unwrap().num(), 3.0);
    }
}
