//! Seeded input generation.  The seed picks the inputs only; the program
//! under test never sees it.

use abft_tealeaf::{Deck, Geometry, State};

/// SplitMix64: a tiny, dependency-free generator for benchmark inputs.
#[derive(Debug, Clone)]
pub struct SeedRng(u64);

impl SeedRng {
    /// A generator for `seed` and a named input `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SeedRng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// The TeaLeaf deck of the `tealeaf_cg` workload: the standard problem on
/// `cells`² cells, one step, CG to `eps`, with the hot region's extent and
/// energy jittered by the seed.  The jitter is small (±10 % extent, ±4 %
/// energy) so every seed poses a problem of the same difficulty.
pub fn tealeaf_deck(seed: u64, cells: usize, eps: f64) -> Deck {
    let mut rng = SeedRng::new(seed, 1);
    let mut deck = Deck::standard(cells, cells, 1);
    deck.eps = eps;
    deck.max_iters = 5_000;
    let x_max = deck.x_max / 2.0 * rng.range(0.9, 1.1);
    let y_max = deck.y_max / 5.0 * rng.range(0.9, 1.1);
    let energy = 2.5 * rng.range(0.96, 1.04);
    deck.states = vec![
        State::background(0.2, 1.0),
        State {
            geometry: Geometry::Rectangle {
                x_min: 0.0,
                x_max,
                y_min: 0.0,
                y_max,
            },
            density: 1.0,
            energy,
        },
    ];
    deck
}

/// Right-hand side number `index` of the `serve_panels` workload: entries
/// uniform in `[0.5, 1.5)`.
pub fn serve_rhs(seed: u64, index: u64, rows: usize) -> Vec<f64> {
    let mut rng = SeedRng::new(seed, 2 + index);
    (0..rows).map(|_| rng.range(0.5, 1.5)).collect()
}

/// The fault-campaign seed of the `campaign_mix` workload.
pub fn campaign_seed(seed: u64) -> u64 {
    SeedRng::new(seed, 3).next_u64()
}
