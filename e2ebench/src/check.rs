//! Correctness checks. Every reference comes from a computation kept
//! apart from the engine under test: closed forms built with the
//! inputs, the kron backend (QCLAB's sparse-Kronecker path) on the
//! circuit's unitary part, the density-matrix backend for noisy runs,
//! or exact binomial arithmetic.

use crate::gen::Expect;
use crate::stats::{
    binomial_consistent, distribution_check, majority_flip_probability, mixture_bounds_check,
};
use qclab_core::sim::density::{run_noisy, DensityState, NoiseChannel, NoiseModel};
use qclab_core::sim::kernel::KernelConfig;
use qclab_core::{Backend, SimOptions};
use qclab_math::vector::CVec;
use std::collections::BTreeMap;

/// After-gate depolarizing noise of a request: error probability per
/// site and sites per shot.
#[derive(Clone, Copy, Debug)]
pub struct Noise {
    pub p: f64,
    pub sites: u64,
}

/// Marginal distribution of the `measured` qubits (in record order)
/// from basis-state probabilities of an `n`-qubit register.
fn marginal(
    n: usize,
    probs: impl Iterator<Item = f64>,
    measured: &[usize],
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for idx in 0..1usize << measured.len() {
        out.insert(format!("{idx:0w$b}", w = measured.len()), 0.0);
    }
    for (i, p) in probs.enumerate() {
        let rec: String = measured
            .iter()
            .map(|&q| if i >> (n - 1 - q) & 1 == 1 { '1' } else { '0' })
            .collect();
        *out.get_mut(&rec).expect("every record is pre-seeded") += p;
    }
    out
}

fn parse(text: &str) -> Result<qclab_core::QCircuit, String> {
    qclab_qasm::from_qasm(text).map_err(|e| format!("reference circuit: {e}"))
}

/// Born distribution of `measured` after the unitary circuit `text`,
/// evolved on the kron backend without fusion.
pub fn kron_distribution(text: &str, measured: &[usize]) -> Result<BTreeMap<String, f64>, String> {
    let c = parse(text)?;
    let n = c.nb_qubits();
    let opts = SimOptions {
        backend: Backend::Kron,
        kernel: KernelConfig {
            fuse: false,
            remap: false,
            ..KernelConfig::default()
        },
        ..SimOptions::default()
    };
    let sim = c
        .simulate_bitstring_with(&"0".repeat(n), &opts)
        .map_err(|e| format!("kron reference: {e}"))?;
    let state: &CVec = sim.branches()[0].state();
    Ok(marginal(n, state.0.iter().map(|a| a.norm_sqr()), measured))
}

/// Distribution of `measured` after `text` under after-gate
/// depolarizing noise `p`, from the density-matrix backend.
pub fn density_distribution(
    text: &str,
    measured: &[usize],
    p: f64,
) -> Result<BTreeMap<String, f64>, String> {
    let c = parse(text)?;
    let n = c.nb_qubits();
    let zero = CVec::basis_state(1 << n, 0);
    let noise = NoiseModel {
        after_gate: Some(NoiseChannel::Depolarizing(p)),
    };
    let rho = run_noisy(&c, &DensityState::from_pure(&zero), &noise)
        .map_err(|e| format!("density reference: {e}"))?
        .to_density_matrix();
    let dim = 1usize << n;
    let m = rho.matrix().as_slice();
    Ok(marginal(n, (0..dim).map(|i| m[i * dim + i].re), measured))
}

/// Checks one request's counts against its expectation. `noise` is set
/// for noisy runs.
pub fn check(
    expect: &Expect,
    counts: &BTreeMap<String, u64>,
    noise: Option<Noise>,
) -> Result<(), String> {
    let exact = match expect {
        Expect::Dist(d) => d.clone(),
        Expect::Kron { unitary, measured } => kron_distribution(unitary, measured)?,
        Expect::Density { unitary, measured } => {
            let p = noise.ok_or("a density reference needs a noise rate")?.p;
            return distribution_check(counts, &density_distribution(unitary, measured, p)?);
        }
        Expect::Memory {
            data_pos,
            logical,
            flip,
        } => return memory_check(counts, data_pos, *logical, flip),
    };
    match noise {
        None => distribution_check(counts, &exact),
        // the noiseless distribution holds on the shots where no error
        // fired, probability (1-p)^sites
        Some(nz) => mixture_bounds_check(counts, &exact, (1.0 - nz.p).powf(nz.sites as f64)),
    }
}

/// Repetition-code memory: each data bit flips independently with its
/// analytic probability, and majority decoding fails with the exact
/// Poisson-binomial tail of those probabilities.
fn memory_check(
    counts: &BTreeMap<String, u64>,
    data_pos: &[usize],
    logical: u8,
    flip: &[f64],
) -> Result<(), String> {
    let shots: u64 = counts.values().sum();
    let mut flips = vec![0u64; data_pos.len()];
    let mut logical_errors = 0u64;
    for (rec, &k) in counts {
        let bytes = rec.as_bytes();
        let mut wrong = 0;
        for (i, &pos) in data_pos.iter().enumerate() {
            let bit = bytes
                .get(pos)
                .ok_or_else(|| format!("record {rec} shorter than the data register"))?;
            if bit - b'0' != logical {
                flips[i] += k;
                wrong += 1;
            }
        }
        if 2 * wrong > data_pos.len() {
            logical_errors += k;
        }
    }
    for (i, (&f, &p)) in flips.iter().zip(flip).enumerate() {
        if !binomial_consistent(f, shots, p, p) {
            return Err(format!(
                "data qubit {i} flipped in {f} of {shots} shots; analytic rate {p:.5}"
            ));
        }
    }
    let p_logical = majority_flip_probability(flip);
    if !binomial_consistent(logical_errors, shots, p_logical, p_logical) {
        return Err(format!(
            "{logical_errors} logical errors in {shots} shots; analytic rate {p_logical:.3e}"
        ));
    }
    Ok(())
}

/// Injected-error count of a noisy run: every site fires independently
/// with probability `p`.
pub fn injected_check(injected: u64, shots: u64, noise: Noise) -> Result<(), String> {
    let trials = shots * noise.sites;
    if binomial_consistent(injected, trials, noise.p, noise.p) {
        Ok(())
    } else {
        Err(format!(
            "{injected} injected errors over {trials} sites; expected {:.1}",
            trials as f64 * noise.p
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marginal_reads_qubit_zero_as_most_significant() {
        // |10⟩ on two qubits: index 2
        let probs = [0.0, 0.0, 1.0, 0.0];
        let m = marginal(2, probs.iter().copied(), &[0]);
        assert_eq!(m["1"], 1.0);
        let m = marginal(2, probs.iter().copied(), &[1, 0]);
        assert_eq!(m["01"], 1.0);
    }

    #[test]
    fn references_agree_on_a_noiseless_circuit() {
        let text =
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nx q[1];\n";
        let k = kron_distribution(text, &[0, 1]).unwrap();
        let d = density_distribution(text, &[0, 1], 0.0).unwrap();
        for (rec, p) in [("01", 0.5), ("10", 0.5), ("00", 0.0), ("11", 0.0)] {
            assert!(
                (k[rec] - p).abs() < 1e-12 && (d[rec] - p).abs() < 1e-12,
                "{rec}"
            );
        }
    }
}
