//! Seeded inputs: sub-seed derivation and open-loop arrival schedules.
//!
//! Every schedule is generated up front, before any request is sent, so
//! a slow response can never change when later requests are due.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// An independent sub-seed for input stream `stream` of run seed `seed`
/// (SplitMix64 finalizer), so data, queries, schedules and samples never
/// share a random stream.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Arrival offsets of a Poisson process at `rate` per second, from time
/// zero up to `duration`: exponential gaps drawn from `seed`.
///
/// # Panics
/// Panics unless `rate` is positive and finite.
pub fn poisson(seed: u64, rate: f64, duration: Duration) -> Vec<Duration> {
    assert!(
        rate.is_finite() && rate > 0.0,
        "arrival rate must be positive"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let end = duration.as_secs_f64();
    let mut t = 0.0;
    let mut arrivals = Vec::with_capacity((rate * end * 1.1) as usize + 1);
    loop {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        let u: f64 = rng.gen_range(0.0..1.0f64);
        t += -(1.0 - u).ln() / rate;
        if t >= end {
            return arrivals;
        }
        arrivals.push(Duration::from_secs_f64(t));
    }
}

/// `count` distinct indices below `population`, drawn from `seed`, in
/// ascending order.
pub fn sample_indices(seed: u64, population: usize, count: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let count = count.min(population);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < count {
        picked.insert(rng.gen_range(0..population));
    }
    picked.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_for_a_seed_and_differ_across_seeds() {
        let a = poisson(5, 1000.0, Duration::from_secs(2));
        let b = poisson(5, 1000.0, Duration::from_secs(2));
        let c = poisson(6, 1000.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap() < &Duration::from_secs(2));
    }

    #[test]
    fn schedules_hold_the_offered_rate() {
        let a = poisson(11, 1000.0, Duration::from_secs(10));
        // 10 000 expected arrivals; a Poisson count's sd is 100.
        assert!((9_500..10_500).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn derived_seeds_and_samples_are_deterministic() {
        assert_eq!(derive(1, 2), derive(1, 2));
        assert_ne!(derive(1, 2), derive(1, 3));
        assert_ne!(derive(1, 2), derive(2, 2));
        let s = sample_indices(9, 100, 10);
        assert_eq!(s, sample_indices(9, 100, 10));
        assert_eq!(s.len(), 10);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sample_indices(9, 5, 10), vec![0, 1, 2, 3, 4]);
    }
}
