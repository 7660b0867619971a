//! Seeded random draws for the workload generators: Zipf ranks over a
//! fixed request pool. The same seed always gives the same sequence.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A seeded generator. Sub-seeds keep independent streams (search draws,
/// edge flips, segments) from shifting when one of them changes length.
pub fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Zipf(`s`) over ranks `0..n`: rank `i` is drawn with probability
/// proportional to `1 / (i + 1)^s`, by inverting the cumulative weights.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|i| {
                total += 1.0 / ((i + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let u = rng.gen_range(0.0..total);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}
