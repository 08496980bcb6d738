//! Summary statistics and the statistical acceptance thresholds of the
//! correctness checks.
//!
//! The thresholds are chosen so that a correct program trips a check by
//! chance with probability below about 1e-9 per check: a run makes at
//! most a few thousand checks, so a spurious failure across every run of
//! a benchmark campaign stays far below one in a thousand.

use std::collections::BTreeMap;

/// Standard percentiles offered for the tail metric, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie strictly beyond a tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `q` (in percent) among `n > 0`
/// samples; the slack absorbs the rounding of `q` itself (99.9 is not
/// a binary fraction).
fn rank(n: usize, q: f64) -> usize {
    let r = (q * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (`q` in percent).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, q)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` below forty samples, where no
/// percentile above the median is a tail.
pub fn ten_beyond_percentile(n: usize) -> Option<f64> {
    if n < 4 * TAIL_MIN_BEYOND {
        return None;
    }
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| beyond(n, q) >= TAIL_MIN_BEYOND)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// `ln(1/alpha)` of the per-check false-alarm probability.
pub const LN_INV_ALPHA: f64 = 20.723_265_836_946_41; // ln(1e9)

/// Two-sided Bernstein deviation bound for a sum of `n` independent
/// Bernoulli(`p`) draws: `P(|X - np| > t) <= 2 exp(-t² / (2(σ² + t/3)))`,
/// solved for the `t` that makes the right-hand side `2e-9`. Exact for
/// any `n` and `p` (no normal approximation), so it also holds for the
/// rare-event counts of noisy runs.
pub fn bernstein_margin(n: u64, p: f64) -> f64 {
    let var = n as f64 * p * (1.0 - p);
    let l = LN_INV_ALPHA;
    l / 3.0 + (l * l / 9.0 + 2.0 * var * l).sqrt()
}

/// Whether `k` successes in `n` trials are consistent with a success
/// probability somewhere in `[lo, hi]`.
pub fn binomial_consistent(k: u64, n: u64, lo: f64, hi: f64) -> bool {
    let (lo, hi) = (lo.clamp(0.0, 1.0), hi.clamp(0.0, 1.0));
    let k = k as f64;
    k >= n as f64 * lo - bernstein_margin(n, lo) && k <= n as f64 * hi + bernstein_margin(n, hi)
}

/// Whether `k` or more hits in `n` draws of an event of probability `p`
/// is plausible: the union bound `P(X >= k) <= (np)^k / k!` must stay
/// above the false-alarm level. Tight where Bernstein's constant slack
/// is not, for events that should (almost) never happen.
pub fn rare_count_plausible(k: u64, n: u64, p: f64) -> bool {
    if k == 0 {
        return true;
    }
    let np = n as f64 * p;
    if np <= 0.0 {
        return false;
    }
    let ln_factorial: f64 = (1..=k).map(|i| (i as f64).ln()).sum();
    k as f64 * np.ln() - ln_factorial > -LN_INV_ALPHA
}

/// Upper `z`-sigma quantile of the chi-square distribution with `df`
/// degrees of freedom (Wilson–Hilferty cube-root approximation).
pub fn chi_square_quantile(df: usize, z: f64) -> f64 {
    let k = df as f64;
    let a = 2.0 / (9.0 * k);
    k * (1.0 - a + z * a.sqrt()).powi(3)
}

/// Normal-deviate level of the chi-square threshold: one-sided tail
/// probability about 1e-9.
pub const CHI_SQUARE_Z: f64 = 6.0;

/// Minimum expected count per pooled chi-square cell.
pub const MIN_EXPECTED: f64 = 10.0;

/// Outcomes whose exact probability is below this are treated as
/// impossible: seeing one fails the check unless the whole impossible
/// set carries enough mass to be drawn by chance.
pub const IMPOSSIBLE: f64 = 1e-9;

/// Goodness-of-fit check of sampled `counts` against an exact outcome
/// distribution. Cells are pooled in order of decreasing probability
/// until each expects at least [`MIN_EXPECTED`] draws, and Pearson's
/// statistic is compared with the [`CHI_SQUARE_Z`] quantile. Returns a
/// description of the first violation.
pub fn distribution_check(
    counts: &BTreeMap<String, u64>,
    exact: &BTreeMap<String, f64>,
) -> Result<(), String> {
    let shots: u64 = counts.values().sum();
    if shots == 0 {
        return Err("no shots returned".into());
    }
    let total: f64 = exact.values().sum();
    if (total - 1.0).abs() > 1e-6 {
        return Err(format!("reference distribution sums to {total}"));
    }
    // impossible outcomes: drawn at all only with tiny probability
    let mut impossible_mass = 0.0;
    let mut impossible_seen = 0u64;
    for (record, &k) in counts {
        let p = exact.get(record).copied().unwrap_or(0.0);
        if p < IMPOSSIBLE {
            impossible_mass += p;
            impossible_seen += k;
        }
    }
    if !rare_count_plausible(impossible_seen, shots, impossible_mass) {
        return Err(format!(
            "{impossible_seen} of {shots} shots landed on outcomes of total probability \
             {impossible_mass:.3e}"
        ));
    }
    let mut cells: Vec<(f64, u64)> = exact
        .iter()
        .filter(|(_, &p)| p >= IMPOSSIBLE)
        .map(|(r, &p)| (p * shots as f64, counts.get(r).copied().unwrap_or(0)))
        .collect();
    cells.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut pooled: Vec<(f64, u64)> = Vec::new();
    let mut acc = (0.0, 0u64);
    for (e, o) in cells {
        acc.0 += e;
        acc.1 += o;
        if acc.0 >= MIN_EXPECTED {
            pooled.push(acc);
            acc = (0.0, 0);
        }
    }
    if acc.0 > 0.0 || acc.1 > 0 {
        match pooled.last_mut() {
            Some(last) => {
                last.0 += acc.0;
                last.1 += acc.1;
            }
            None => pooled.push(acc),
        }
    }
    if pooled.len() < 2 {
        return Ok(());
    }
    let stat: f64 = pooled
        .iter()
        .map(|&(e, o)| (o as f64 - e).powi(2) / e)
        .sum();
    let crit = chi_square_quantile(pooled.len() - 1, CHI_SQUARE_Z);
    if stat > crit {
        return Err(format!(
            "chi-square {stat:.1} over {} cells exceeds {crit:.1}",
            pooled.len()
        ));
    }
    Ok(())
}

/// Checks each outcome's count against a probability interval: its
/// exact noiseless probability `P` scaled into
/// `[q0·P, q0·P + (1 - q0)]`, where `q0` is the probability that no
/// Pauli error fired at all. Holds for any Pauli noise, whatever the
/// errors do to the state.
pub fn mixture_bounds_check(
    counts: &BTreeMap<String, u64>,
    exact: &BTreeMap<String, f64>,
    q0: f64,
) -> Result<(), String> {
    let shots: u64 = counts.values().sum();
    for (record, &p) in exact {
        let k = counts.get(record).copied().unwrap_or(0);
        if !binomial_consistent(k, shots, q0 * p, q0 * p + (1.0 - q0)) {
            return Err(format!(
                "outcome {record}: {k} of {shots} shots outside the noise bounds of \
                 noiseless probability {p:.4} (error-free share {q0:.3})"
            ));
        }
    }
    let unexpected: u64 = counts
        .iter()
        .filter(|(r, _)| !exact.contains_key(*r))
        .map(|(_, &k)| k)
        .sum();
    if !binomial_consistent(unexpected, shots, 0.0, 1.0 - q0) {
        return Err(format!(
            "{unexpected} shots on outcomes outside the register"
        ));
    }
    Ok(())
}

/// Probability that a majority of independent bits flip, bit `i` with
/// probability `flip[i]` (exact Poisson-binomial tail).
pub fn majority_flip_probability(flip: &[f64]) -> f64 {
    let mut dist = vec![1.0];
    for &p in flip {
        let mut next = vec![0.0; dist.len() + 1];
        for (k, &w) in dist.iter().enumerate() {
            next[k] += w * (1.0 - p);
            next[k + 1] += w * p;
        }
        dist = next;
    }
    dist.iter()
        .enumerate()
        .filter(|&(k, _)| 2 * k > flip.len())
        .map(|(_, &w)| w)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Rng;

    #[test]
    fn ten_beyond_rule_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(ten_beyond_percentile(39), None);
        assert_eq!(ten_beyond_percentile(40), Some(75.0));
        assert_eq!(ten_beyond_percentile(99), Some(75.0));
        assert_eq!(ten_beyond_percentile(100), Some(90.0));
        assert_eq!(ten_beyond_percentile(199), Some(90.0));
        assert_eq!(ten_beyond_percentile(200), Some(95.0));
        assert_eq!(ten_beyond_percentile(999), Some(95.0));
        assert_eq!(ten_beyond_percentile(1000), Some(99.0));
        assert_eq!(ten_beyond_percentile(10_000), Some(99.9));
        for n in 40..3000 {
            let q = ten_beyond_percentile(n).unwrap();
            assert!(beyond(n, q) >= TAIL_MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[3.0], 99.9), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn chi_square_quantile_matches_tables() {
        // z = 3.0902 is the one-sided 0.999 normal quantile
        for (df, table) in [(1, 10.828), (5, 20.515), (10, 29.588), (100, 149.449)] {
            let q = chi_square_quantile(df, 3.0902);
            assert!((q - table).abs() / table < 0.05, "df={df}: {q} vs {table}");
        }
    }

    #[test]
    fn bernstein_margin_is_wider_than_six_sigma_and_grows_with_variance() {
        for &(n, p) in &[(100u64, 0.5), (10_000, 0.008), (1_000_000, 1e-4)] {
            let sigma = (n as f64 * p * (1.0 - p)).sqrt();
            assert!(bernstein_margin(n, p) > 6.0 * sigma);
        }
        assert!(bernstein_margin(1000, 0.5) > bernstein_margin(1000, 0.01));
        // certain events leave only the constant slack 2·ln(1/α)/3
        assert!((bernstein_margin(1000, 0.0) - 2.0 * LN_INV_ALPHA / 3.0).abs() < 1e-12);
    }

    fn draw(rng: &mut Rng, probs: &[(String, f64)], shots: u64) -> BTreeMap<String, u64> {
        let mut counts = BTreeMap::new();
        for _ in 0..shots {
            let mut r = rng.f64();
            let mut pick = &probs[probs.len() - 1].0;
            for (rec, p) in probs {
                if r < *p {
                    pick = rec;
                    break;
                }
                r -= p;
            }
            *counts.entry(pick.clone()).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn thresholds_pass_correct_samples_and_catch_wrong_ones() {
        let mut rng = Rng::new(7);
        let exact: Vec<(String, f64)> = (0..8)
            .map(|i| {
                (
                    format!("{i:03b}"),
                    [0.3, 0.2, 0.15, 0.1, 0.1, 0.08, 0.05, 0.02][i],
                )
            })
            .collect();
        let map: BTreeMap<String, f64> = exact.iter().cloned().collect();
        for _ in 0..500 {
            let counts = draw(&mut rng, &exact, 1000);
            assert!(distribution_check(&counts, &map).is_ok());
            assert!(mixture_bounds_check(&counts, &map, 0.7).is_ok());
        }
        // a distribution with two cells swapped is caught
        let mut wrong = exact.clone();
        wrong[0].1 = 0.02;
        wrong[7].1 = 0.3;
        let counts = draw(&mut rng, &wrong, 1000);
        assert!(distribution_check(&counts, &map).is_err());
        assert!(mixture_bounds_check(&counts, &map, 1.0).is_err());
        // an impossible outcome is caught
        let mut counts = draw(&mut rng, &exact, 1000);
        counts.insert("111x".into(), 1);
        assert!(distribution_check(&counts, &map).is_err());
    }

    #[test]
    fn binomial_check_accepts_fair_counts_and_rejects_doubled_rates() {
        let mut rng = Rng::new(11);
        let (n, p) = (20_000u64, 0.004);
        for _ in 0..200 {
            let k = (0..n).filter(|_| rng.f64() < p).count() as u64;
            assert!(binomial_consistent(k, n, p, p));
        }
        assert!(!binomial_consistent((2.0 * n as f64 * p) as u64, n, p, p));
    }

    #[test]
    fn rare_counts() {
        assert!(rare_count_plausible(0, 1000, 0.0));
        assert!(!rare_count_plausible(1, 1000, 0.0));
        assert!(!rare_count_plausible(1, 1000, 1e-15));
        // a 1e-4 event seen once in 1000 draws happens 10% of the time
        assert!(rare_count_plausible(1, 1000, 1e-4));
        assert!(!rare_count_plausible(8, 1000, 1e-4));
    }

    #[test]
    fn majority_flip_matches_binomial_sum() {
        let p: f64 = 0.1;
        let exact = 10.0 * p.powi(3) * (1.0 - p).powi(2) + 5.0 * p.powi(4) * (1.0 - p) + p.powi(5);
        assert!((majority_flip_probability(&[p; 5]) - exact).abs() < 1e-15);
        assert_eq!(majority_flip_probability(&[0.0; 3]), 0.0);
    }
}
