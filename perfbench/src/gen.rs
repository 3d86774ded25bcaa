//! Seeded request streams. The system sees only the ids these produce,
//! never the seed.

use memcom_data::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{IdDist, Spec, ZIPF_EXPONENT};

/// Zipf ranks are spread over the id space by multiplying with a
/// prime coprime to every vocabulary size used here, so the hottest ids
/// are not simply `0, 1, 2, …`.
const RANK_STRIDE: usize = 7_919;

/// Independent streams of one seed, one per use.
pub mod stream {
    /// Wire: request ids.
    pub const WIRE_IDS: u64 = 10;
    /// Wire: picks from the score request pool.
    pub const POOL_PICKS: u64 = 11;
    /// Closed loop: the caller's warm-up.
    pub const WARM_CALLER: u64 = 100;
    /// Closed loop: the caller's timed window.
    pub const TIMED_CALLER: u64 = 200;
    /// The score request pool.
    pub const SCORE_POOL: u64 = 500;
    /// The `refresh` writer's deltas.
    pub const DELTAS: u64 = 1_000;
    /// Idle deltas after the run.
    pub const IDLE_DELTAS: u64 = 2_000;
    /// Ids of the traced run's store lookup replay.
    pub const REPLAY_IDS: u64 = 3_000;
}

pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// Draws request ids from a workload's id distribution.
pub struct IdStream {
    rng: StdRng,
    zipf: Option<Zipf>,
    vocab: usize,
    per_request: usize,
}

impl IdStream {
    pub fn new(spec: &Spec, seed: u64, stream: u64) -> IdStream {
        let zipf = match spec.ids {
            IdDist::Zipf => Some(Zipf::new(spec.vocab, ZIPF_EXPONENT).expect("zipf support")),
            IdDist::Uniform => None,
        };
        IdStream {
            rng: rng(seed, stream),
            zipf,
            vocab: spec.vocab,
            per_request: spec.ids_per_request,
        }
    }

    /// The next request's ids, written into `out`.
    pub fn next_into(&mut self, out: &mut Vec<usize>) {
        out.clear();
        for _ in 0..self.per_request {
            let id = match &self.zipf {
                Some(z) => (z.sample(&mut self.rng) * RANK_STRIDE) % self.vocab,
                None => self.rng.gen_range(0..self.vocab),
            };
            out.push(id);
        }
    }

    pub fn next(&mut self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.per_request);
        self.next_into(&mut out);
        out
    }
}
