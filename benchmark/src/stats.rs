//! Order statistics and the seeded request draw.

use loom_obs::SplitMix64;

/// Nearest-rank percentile (`p` in `(0, 100]`): the smallest sample
/// with at least `p`% of all samples at or below it. Always one of the
/// samples, never an interpolation.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The three quartile cut points, by the same "exclusive" method as
/// Python's `statistics.quantiles(xs, n=4)`, so spreads computed here
/// match spreads computed from the emitted JSON. Needs two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let (n, m) = (v.len(), v.len() + 1);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Median (the middle quartile), or the sample itself for one sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.len() == 1 {
        xs[0]
    } else {
        quartiles(xs)[1]
    }
}

/// Interquartile range as a share of the median (0 for one sample).
pub fn relative_spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of no values");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The request sequence over a pool of `n` inputs: consecutive
/// SplitMix64 shuffles of the pool. Every input recurs at the same rate
/// whatever the seed, so a seed changes the order, never the mix.
pub struct Draw {
    rng: SplitMix64,
    round: Vec<usize>,
    pos: usize,
}

impl Draw {
    /// The draw for `seed` over inputs `0..n` (`n > 0`).
    pub fn new(seed: u64, n: usize) -> Draw {
        assert!(n > 0, "empty input pool");
        let mut rng = SplitMix64::new(seed);
        let mut round: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut round);
        Draw { rng, round, pos: 0 }
    }
}

impl Iterator for Draw {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.pos == self.round.len() {
            self.rng.shuffle(&mut self.round);
            self.pos = 0;
        }
        self.pos += 1;
        Some(self.round[self.pos - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        // p90 of ten samples is the ninth smallest: one sample above it.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(percentile(&ten, 91.0), 10.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0]), 4.0);
        assert!((relative_spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn draw_is_seeded_and_keeps_the_mix() {
        let take = |seed, k| Draw::new(seed, 7).take(k).collect::<Vec<_>>();
        assert_eq!(take(1, 70), take(1, 70), "same seed, same sequence");
        assert_ne!(take(1, 70), take(2, 70), "another seed, another order");
        for seed in [1, 2] {
            let seq = take(seed, 70);
            // Every round of seven is a permutation of the pool.
            for round in seq.chunks(7) {
                let mut r = round.to_vec();
                r.sort();
                assert_eq!(r, (0..7).collect::<Vec<_>>());
            }
        }
    }
}
