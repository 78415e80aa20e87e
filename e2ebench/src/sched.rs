//! Seeded load schedules: Poisson arrival times for the open loop and a
//! Zipf popularity law over the query pool.

use eras_linalg::Rng;

/// Arrival offsets in seconds of `count` requests from a Poisson process
/// of `rate_per_s`: exponential gaps, cumulated.
pub fn poisson_arrivals(seed: u64, rate_per_s: f64, count: usize) -> Vec<f64> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = Rng::seed_from_u64(seed);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            // 1 - u lies in (0, 1], so the logarithm is finite.
            t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
            t
        })
        .collect()
}

/// Zipf law over ranks `0..n`: rank `i` has weight `1 / (i + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Tabulate the law for `n` ranks and exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf law needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += ((i + 1) as f64).powf(-s);
                acc
            })
            .collect();
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// `count` ranks drawn from a generator seeded with `seed`.
    pub fn ranks(&self, seed: u64, count: usize) -> Vec<usize> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..count).map(|_| self.sample(&mut rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_per_seed_and_differs_across_seeds() {
        let a = poisson_arrivals(7, 40.0, 500);
        assert_eq!(a, poisson_arrivals(7, 40.0, 500));
        assert_ne!(a, poisson_arrivals(8, 40.0, 500));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals must increase");
        // 500 arrivals at 40/s span about 12.5 s.
        let span = a[a.len() - 1];
        assert!((10.0..15.0).contains(&span), "span {span}");
    }

    #[test]
    fn zipf_schedule_repeats_per_seed_and_differs_across_seeds() {
        let z = Zipf::new(1000, 0.9);
        let a = z.ranks(3, 2000);
        assert_eq!(a, z.ranks(3, 2000));
        assert_ne!(a, z.ranks(4, 2000));
        assert!(a.iter().all(|&r| r < 1000));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 0.9);
        let ranks = z.ranks(11, 20_000);
        let count = |r: usize| ranks.iter().filter(|&&x| x == r).count();
        assert!(count(0) > count(1));
        assert!(count(1) > count(100));
        let top10 = ranks.iter().filter(|&&r| r < 10).count();
        let tail = ranks.iter().filter(|&&r| r >= 990).count();
        assert!(top10 > 10 * tail, "top10 {top10} tail {tail}");
    }
}
