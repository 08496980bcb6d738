//! Seeded input generation: every request is OpenQASM 2.0 text built
//! here from the workload seed, together with what the benchmark knows
//! about its correct output. The program under test sees only the text.
//!
//! Qubit order follows QCLAB: qubit 0 is the most significant bit of a
//! basis index, and a measurement record lists outcomes in execution
//! order.

use std::collections::BTreeMap;
use std::f64::consts::PI;
use std::fmt::Write as _;

/// SplitMix64: small, seedable and stable across platforms and
/// releases, so a seed names the same inputs forever.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// A generator for sub-stream `(a, b)` of `seed`, independent of how
    /// many values other streams drew.
    pub fn derive(seed: u64, a: u64, b: u64) -> Self {
        let mut r = Rng(seed ^ a.wrapping_mul(0xA24B_AED4_963E_E407));
        r.0 ^= r.next_u64() ^ b.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        Rng(r.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.f64() * n as f64) as usize % n.max(1)
    }

    pub fn angle(&mut self) -> f64 {
        2.0 * PI * self.f64()
    }

    /// `k` distinct values of `0..n`, ascending.
    pub fn choose(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        let mut out = pool[..k].to_vec();
        out.sort_unstable();
        out
    }
}

/// What a correct run of a request returns.
#[derive(Clone, Debug)]
pub enum Expect {
    /// The exact distribution of the measurement record, known in
    /// closed form.
    Dist(BTreeMap<String, f64>),
    /// The distribution of the record equals the Born distribution of
    /// `unitary` (the same circuit without measurements) on `measured`,
    /// computed by the kron backend.
    Kron {
        unitary: String,
        measured: Vec<usize>,
    },
    /// Like [`Expect::Kron`] but under after-gate depolarizing noise,
    /// computed exactly by the density-matrix backend.
    Density {
        unitary: String,
        measured: Vec<usize>,
    },
    /// Repetition-code memory: record positions of the data bits, the
    /// encoded logical bit and each data bit's flip probability.
    Memory {
        data_pos: Vec<usize>,
        logical: u8,
        flip: Vec<f64>,
    },
}

/// One generated request.
#[derive(Clone, Debug)]
pub struct Request {
    pub kind: &'static str,
    pub qasm: String,
    pub nb_qubits: usize,
    pub shots: u64,
    /// Sampling seed handed to the program.
    pub seed: u64,
    pub expect: Expect,
    /// After-gate noise sites per shot (qubits touched, summed over
    /// gates).
    pub sites: u64,
}

/// OpenQASM text builder that also counts noise sites per qubit.
pub struct Qasm {
    body: String,
    n: usize,
    clbits: usize,
    measure: bool,
    touches: Vec<u64>,
}

impl Qasm {
    /// A circuit on `n` qubits; with `measure == false` measurement and
    /// reset lines are dropped (the unitary reference of a circuit).
    pub fn new(n: usize, measure: bool) -> Self {
        Qasm {
            body: String::new(),
            n,
            clbits: 0,
            measure,
            touches: vec![0; n],
        }
    }

    pub fn gate(&mut self, name: &str, params: &[f64], qubits: &[usize]) -> &mut Self {
        self.body.push_str(name);
        if !params.is_empty() {
            let p: Vec<String> = params.iter().map(|x| format!("{x}")).collect();
            let _ = write!(self.body, "({})", p.join(","));
        }
        let q: Vec<String> = qubits.iter().map(|q| format!("q[{q}]")).collect();
        let _ = writeln!(self.body, " {};", q.join(","));
        for &q in qubits {
            self.touches[q] += 1;
        }
        self
    }

    pub fn measure(&mut self, q: usize) -> &mut Self {
        if self.measure {
            let _ = writeln!(self.body, "measure q[{q}] -> c[{}];", self.clbits);
        }
        self.clbits += 1;
        self
    }

    pub fn reset(&mut self, q: usize) -> &mut Self {
        if self.measure {
            let _ = writeln!(self.body, "reset q[{q}];");
        }
        self
    }

    pub fn sites(&self) -> u64 {
        self.touches.iter().sum()
    }

    pub fn text(&self) -> String {
        let mut s = format!(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{}];\n",
            self.n
        );
        if self.measure && self.clbits > 0 {
            let _ = writeln!(s, "creg c[{}];", self.clbits);
        }
        s.push_str(&self.body);
        s
    }
}

/// One brick layer: `rx`,`rz` on every qubit, then `cx` on neighbouring
/// pairs starting at `layer % 2`. Returns the angles for mirroring.
fn brick_layer(c: &mut Qasm, rng: &mut Rng, n: usize, layer: usize) -> Vec<(f64, f64)> {
    let angles: Vec<(f64, f64)> = (0..n).map(|_| (rng.angle(), rng.angle())).collect();
    for (q, &(a, b)) in angles.iter().enumerate() {
        c.gate("rx", &[a], &[q]).gate("rz", &[b], &[q]);
    }
    for q in (layer % 2..n.saturating_sub(1)).step_by(2) {
        c.gate("cx", &[], &[q, q + 1]);
    }
    angles
}

/// A random brick circuit measured on `measured` (in that order); the
/// reference distribution comes from the kron backend.
pub fn brick(rng: &mut Rng, n: usize, layers: usize, measured: &[usize]) -> (String, Expect, u64) {
    let mut full = Qasm::new(n, true);
    let mut unitary = Qasm::new(n, false);
    for layer in 0..layers {
        let mut r = rng.clone();
        brick_layer(&mut full, rng, n, layer);
        brick_layer(&mut unitary, &mut r, n, layer);
    }
    for &q in measured {
        full.measure(q);
    }
    let sites = full.sites();
    (
        full.text(),
        Expect::Kron {
            unitary: unitary.text(),
            measured: measured.to_vec(),
        },
        sites,
    )
}

/// Product distribution of independent bits, bit `i` set with `p[i]`.
pub fn product_dist(p: &[f64]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for idx in 0..1usize << p.len() {
        let mut prob = 1.0;
        let mut rec = String::with_capacity(p.len());
        for (i, &pi) in p.iter().enumerate() {
            let bit = idx >> (p.len() - 1 - i) & 1;
            prob *= if bit == 1 { pi } else { 1.0 - pi };
            rec.push(if bit == 1 { '1' } else { '0' });
        }
        out.insert(rec, prob);
    }
    out
}

/// A wide mirror brick: `layers` random brick layers, their exact
/// inverse, then `ry(θ)` and a measurement on each of `m` random qubits.
/// The record is a product of Bernoulli(sin²(θ/2)) bits whatever the
/// random layers were. With `sharp`, θ is 0 or π, so the noiseless
/// record is one fixed string; the random layers stay non-Clifford.
pub fn mirror_brick(
    rng: &mut Rng,
    n: usize,
    layers: usize,
    m: usize,
    sharp: bool,
) -> (String, Expect, u64) {
    let mut c = Qasm::new(n, true);
    let mut history = Vec::with_capacity(layers);
    for layer in 0..layers {
        history.push(brick_layer(&mut c, rng, n, layer));
    }
    for (layer, angles) in history.iter().enumerate().rev() {
        for q in (layer % 2..n - 1).step_by(2) {
            c.gate("cx", &[], &[q, q + 1]);
        }
        for (q, &(a, b)) in angles.iter().enumerate() {
            c.gate("rz", &[-b], &[q]).gate("rx", &[-a], &[q]);
        }
    }
    let measured = rng.choose(n, m);
    let mut p = Vec::with_capacity(m);
    for &q in &measured {
        let theta = if sharp {
            PI * rng.below(2) as f64
        } else {
            rng.angle()
        };
        c.gate("ry", &[theta], &[q]);
        p.push((theta / 2.0).sin().powi(2));
    }
    for &q in &measured {
        c.measure(q);
    }
    (c.text(), Expect::Dist(product_dist(&p)), c.sites())
}

/// Multi-controlled X through a Toffoli ladder on clean ancillas
/// (`controls.len() - 2` of them, returned to |0⟩).
fn mcx(c: &mut Qasm, controls: &[usize], target: usize, anc: &[usize]) {
    match controls.len() {
        1 => {
            c.gate("cx", &[], &[controls[0], target]);
        }
        2 => {
            c.gate("ccx", &[], &[controls[0], controls[1], target]);
        }
        k => {
            let mut ladder = vec![(controls[0], controls[1], anc[0])];
            for i in 2..k - 1 {
                ladder.push((controls[i], anc[i - 2], anc[i - 1]));
            }
            for &(a, b, t) in &ladder {
                c.gate("ccx", &[], &[a, b, t]);
            }
            c.gate("ccx", &[], &[controls[k - 1], anc[k - 3], target]);
            for &(a, b, t) in ladder.iter().rev() {
                c.gate("ccx", &[], &[a, b, t]);
            }
        }
    }
}

/// Phase flip of the all-ones state of `qs`.
fn mcz(c: &mut Qasm, qs: &[usize], anc: &[usize]) {
    let (&t, controls) = qs.split_last().expect("mcz on at least one qubit");
    c.gate("h", &[], &[t]);
    mcx(c, controls, t, anc);
    c.gate("h", &[], &[t]);
}

/// Grover search over `s` qubits for a random marked item, with a random
/// iteration count up to the optimum. The marked record has probability
/// sin²((2k+1)θ), sin θ = 2^(-s/2); the rest share the remainder evenly.
pub fn grover(rng: &mut Rng, s: usize) -> (String, Expect) {
    let anc: Vec<usize> = (s..s + s.saturating_sub(2)).collect();
    let mut c = Qasm::new(s + anc.len(), true);
    let marked: Vec<u8> = (0..s).map(|_| rng.below(2) as u8).collect();
    let big_n = (1usize << s) as f64;
    let optimal = ((PI / 4.0) * big_n.sqrt()).floor() as usize;
    let k = 1 + rng.below(optimal.max(1));
    let search: Vec<usize> = (0..s).collect();
    for &q in &search {
        c.gate("h", &[], &[q]);
    }
    for _ in 0..k {
        for &q in &search {
            if marked[q] == 0 {
                c.gate("x", &[], &[q]);
            }
        }
        mcz(&mut c, &search, &anc);
        for &q in &search {
            if marked[q] == 0 {
                c.gate("x", &[], &[q]);
            }
        }
        for &q in &search {
            c.gate("h", &[], &[q]).gate("x", &[], &[q]);
        }
        mcz(&mut c, &search, &anc);
        for &q in &search {
            c.gate("x", &[], &[q]).gate("h", &[], &[q]);
        }
    }
    for &q in &search {
        c.measure(q);
    }
    let theta = (1.0 / big_n.sqrt()).asin();
    let p_marked = ((2 * k + 1) as f64 * theta).sin().powi(2);
    let rest = (1.0 - p_marked) / (big_n - 1.0);
    let target: String = marked.iter().map(|&b| char::from(b'0' + b)).collect();
    let mut dist = BTreeMap::new();
    for idx in 0..1usize << s {
        let rec = format!("{idx:0s$b}");
        let p = if rec == target { p_marked } else { rest };
        dist.insert(rec, p);
    }
    (c.text(), Expect::Dist(dist))
}

/// Phase estimation of `p(2πφ)` on its |1⟩ eigenstate with `t` counting
/// qubits and φ = k/2^t exactly representable: the record is k in
/// binary, most significant bit first, with probability one.
pub fn phase_estimation(rng: &mut Rng, t: usize) -> (String, Expect) {
    let mut c = Qasm::new(t + 1, true);
    let k = rng.below(1 << t);
    c.gate("x", &[], &[t]);
    for j in 0..t {
        c.gate("h", &[], &[j]);
    }
    for j in 0..t {
        // U^(2^j) on counting qubit j: phase 2π·k·2^j / 2^t, reduced
        let turns = ((k << j) % (1 << t)) as f64 / (1u64 << t) as f64;
        c.gate("cp", &[2.0 * PI * turns], &[j, t]);
    }
    // inverse QFT: qubit j ends holding bit t-1-j of k
    for j in (0..t).rev() {
        for p in (j + 1..t).rev() {
            c.gate("cp", &[-PI / (1u64 << (p - j)) as f64], &[p, j]);
        }
        c.gate("h", &[], &[j]);
    }
    for j in 0..t {
        c.measure(j);
    }
    let rec = format!("{k:0t$b}");
    (c.text(), Expect::Dist(BTreeMap::from([(rec, 1.0)])))
}

/// Teleportation of a random single-qubit state with mid-circuit
/// measurements and the corrections conditioned on the measured qubits.
/// Undoing the state preparation on the receiver makes its bit 0 with
/// probability one (teleportation fidelity 1); the two Bell-measurement
/// bits are uniform.
pub fn teleport(rng: &mut Rng) -> (String, Expect) {
    let (th, ph, la) = (rng.angle(), rng.angle(), rng.angle());
    let mut c = Qasm::new(3, true);
    c.gate("u3", &[th, ph, la], &[0])
        .gate("h", &[], &[1])
        .gate("cx", &[], &[1, 2])
        .gate("cx", &[], &[0, 1])
        .gate("h", &[], &[0]);
    c.measure(0).measure(1);
    c.gate("cx", &[], &[1, 2])
        .gate("cz", &[], &[0, 2])
        .gate("u3", &[-th, -la, -ph], &[2]);
    c.measure(2);
    (c.text(), Expect::Dist(product_dist(&[0.5, 0.5, 0.0])))
}

/// Distance-`d` bit-flip repetition code: encode a random logical bit,
/// run `rounds` rounds of syndrome extraction (measure and reset the
/// ancillas), optionally flip one data qubit between two rounds, and
/// measure the data. Record: every round's syndrome bits, then the data
/// bits. Returns the text, the data bits' record positions, the logical
/// bit, the expected record of a noiseless run, and each data qubit's
/// after-gate noise-site count.
pub struct RepCode {
    pub text: String,
    pub data_pos: Vec<usize>,
    pub logical: u8,
    pub noiseless: String,
    pub data_sites: Vec<u64>,
    pub sites: u64,
}

pub fn repetition_code(rng: &mut Rng, d: usize, rounds: usize, inject: bool) -> RepCode {
    let n = 2 * d - 1;
    let mut c = Qasm::new(n, true);
    let logical = rng.below(2) as u8;
    let error = inject.then(|| (rng.below(d), rng.below(rounds + 1)));
    let mut data = vec![logical; d];
    let mut record = String::new();
    if logical == 1 {
        for q in 0..d {
            c.gate("x", &[], &[q]);
        }
    }
    for round in 0..=rounds {
        if let Some((q, at)) = error {
            if at == round {
                c.gate("x", &[], &[q]);
                data[q] ^= 1;
            }
        }
        if round == rounds {
            break;
        }
        for i in 0..d - 1 {
            c.gate("cx", &[], &[i, d + i])
                .gate("cx", &[], &[i + 1, d + i]);
        }
        for i in 0..d - 1 {
            c.measure(d + i).reset(d + i);
            record.push(char::from(b'0' + (data[i] ^ data[i + 1])));
        }
    }
    let first_data = record.len();
    for (q, &bit) in data.iter().enumerate() {
        c.measure(q);
        record.push(char::from(b'0' + bit));
    }
    RepCode {
        text: c.text(),
        data_pos: (first_data..first_data + d).collect(),
        logical,
        noiseless: record,
        data_sites: c.touches[..d].to_vec(),
        sites: c.sites(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(5, 1, 2).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Rng::derive(5, 1, 2).next_u64(),
            Rng::derive(5, 1, 3).next_u64()
        );
        assert_ne!(
            Rng::derive(5, 1, 2).next_u64(),
            Rng::derive(6, 1, 2).next_u64()
        );
        let mut r = Rng::new(3);
        let picked = r.choose(10, 4);
        assert_eq!(picked.len(), 4);
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn brick_text_is_deterministic_and_reference_drops_measurements() {
        let (a, ea, _) = brick(&mut Rng::new(9), 5, 3, &[0, 2]);
        let (b, _, _) = brick(&mut Rng::new(9), 5, 3, &[0, 2]);
        assert_eq!(a, b);
        assert!(a.contains("measure q[2] -> c[1];"));
        match ea {
            Expect::Kron { unitary, measured } => {
                assert!(!unitary.contains("measure"));
                assert_eq!(measured, vec![0, 2]);
                assert_eq!(
                    unitary.lines().filter(|l| l.starts_with("rx")).count(),
                    a.lines().filter(|l| l.starts_with("rx")).count()
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sharp_mirror_bricks_have_one_noiseless_record() {
        for seed in 0..10 {
            let (text, e, _) = mirror_brick(&mut Rng::new(seed), 6, 2, 3, true);
            assert!(text.contains("rx("));
            match e {
                Expect::Dist(d) => {
                    assert_eq!(d.values().filter(|&&p| p > 1.0 - 1e-12).count(), 1);
                    assert!(d.values().all(|&p| !(1e-12..=1.0 - 1e-12).contains(&p)));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn product_distribution_orders_bits_by_record_position() {
        let d = product_dist(&[1.0, 0.0]);
        assert_eq!(d["10"], 1.0);
        assert_eq!(d["01"], 0.0);
        assert!((product_dist(&[0.3, 0.6, 0.1]).values().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn repetition_code_record_tracks_the_injected_flip() {
        for seed in 0..20 {
            let rc = repetition_code(&mut Rng::new(seed), 3, 2, true);
            assert_eq!(rc.noiseless.len(), 2 * 2 + 3);
            let data: Vec<u8> = rc
                .data_pos
                .iter()
                .map(|&i| rc.noiseless.as_bytes()[i] - b'0')
                .collect();
            let ones = data.iter().filter(|&&b| b == 1).count();
            // one flip at most: the majority still decodes the logical bit
            assert_eq!(u8::from(2 * ones > data.len()), rc.logical);
            assert_eq!(rc.data_sites.len(), 3);
        }
    }
}
