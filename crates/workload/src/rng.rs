//! Seeded random number generation.
//!
//! All stochastic components of the reproduction (trace generation,
//! application sampling, topology cost jitter, the plan's bootstrap)
//! take explicit seeds so every experiment is replayable.
//!
//! # Who owns the generator
//!
//! [`SeededRng`] is a xoshiro256++ generator that owns its 256-bit
//! state. `SeededRng::new(seed)` expands the seed with SplitMix64 into
//! the four state words exactly as the `rand` shim's
//! `StdRng::seed_from_u64` does, and steps the state with the same
//! xoshiro256++ recurrence, so it yields the words the shim's generator
//! yields for that seed: every trace, plan and fingerprint drawn through
//! it is the one drawn before it held its own state. The shim's `StdRng`
//! stays the oracle of that claim in this module's tests. [`SeededRng`]
//! implements [`rand::RngCore`], so it can be passed to any rand-based
//! API.
//!
//! # Jumping ahead
//!
//! The state transition of xoshiro256++ is linear over GF(2): every
//! output bit of the state update is an XOR of input bits (shifts,
//! rotations and XORs only; the output scrambler reads the state and
//! does not feed back). So `k` steps are one 256 × 256 bit matrix,
//! `Tᵏ`, built by repeated squaring in `O(log k)` matrix products.
//! [`SeededRng::jump`] moves a generator `k` words forward with it.
//! The bootstrap uses one such operator per call: every class consumes
//! the same number of words, so stepping the operator class by class
//! hands each class the state the sequential loop would have reached,
//! and the classes can run on separate workers with unchanged bits.

use rand::RngCore;

/// A deterministic RNG with an explicit seed.
///
/// # Examples
///
/// ```
/// use vne_workload::rng::SeededRng;
/// use rand::Rng;
///
/// let mut a = SeededRng::new(7);
/// let mut b = SeededRng::new(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededRng {
    s: [u64; 4],
}

impl SeededRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 output is a bijection of its (distinct) successive
        // states, so at most one of the four words is zero: the
        // all-zero state xoshiro must avoid cannot arise.
        let mut state = seed;
        Self {
            s: std::array::from_fn(|_| splitmix64(&mut state)),
        }
    }

    /// Derives an independent child RNG for a named sub-stream, so that
    /// adding draws to one component does not perturb another.
    pub fn derive(&self, stream: u64) -> Self {
        // SplitMix-style mixing of the parent seed with the stream id.
        let mut z = stream.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let mix = z ^ (z >> 31);
        let base = self.clone().next_u64();
        Self::new(base ^ mix)
    }

    /// Moves the generator `words` words forward: afterwards it yields
    /// what it would have yielded after `words` calls of `next_u64`.
    /// Costs `O(log words)` products of 256 × 256 bit matrices.
    pub fn jump(&mut self, words: u64) {
        Jump::new(words).apply(self);
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One xoshiro256++ state transition (the output scrambler aside).
fn advance(s: &mut [u64; 4]) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

impl RngCore for SeededRng {
    #[allow(clippy::cast_possible_truncation)]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        advance(s);
        result
    }
}

/// `k` state transitions as one linear map: [`SeededRng::jump`]'s
/// operator, built once and applied to as many generators as share the
/// distance.
#[derive(Debug)]
pub(crate) struct Jump {
    map: Gf2Matrix,
}

impl Jump {
    /// The operator that moves a generator `words` words forward.
    pub(crate) fn new(words: u64) -> Self {
        let mut map = Gf2Matrix::identity();
        let mut power = Gf2Matrix::transition();
        let mut k = words;
        while k > 0 {
            if k & 1 == 1 {
                map = power.compose(&map);
            }
            k >>= 1;
            if k > 0 {
                power = power.compose(&power);
            }
        }
        Self { map }
    }

    /// Moves `rng` forward by the operator's distance.
    pub(crate) fn apply(&self, rng: &mut SeededRng) {
        rng.s = self.map.apply(&rng.s);
    }
}

/// A 256 × 256 matrix over GF(2) acting on xoshiro256 states; column
/// `i` is the image of state bit `i` (bit `i % 64` of word `i / 64`).
#[derive(Debug)]
struct Gf2Matrix {
    columns: Vec<[u64; 4]>,
}

impl Gf2Matrix {
    fn unit(i: usize) -> [u64; 4] {
        let mut v = [0; 4];
        v[i / 64] = 1 << (i % 64);
        v
    }

    fn identity() -> Self {
        Self {
            columns: (0..256).map(Self::unit).collect(),
        }
    }

    /// One step of the recurrence, read off its action on each state bit.
    fn transition() -> Self {
        Self {
            columns: (0..256)
                .map(|i| {
                    let mut v = Self::unit(i);
                    advance(&mut v);
                    v
                })
                .collect(),
        }
    }

    /// `M · v`: the XOR of the columns `v` selects.
    fn apply(&self, v: &[u64; 4]) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (w, &word) in v.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let column = &self.columns[64 * w + bits.trailing_zeros() as usize];
                for (o, c) in out.iter_mut().zip(column) {
                    *o ^= c;
                }
                bits &= bits - 1;
            }
        }
        out
    }

    /// `self · inner`: apply `inner`, then `self`.
    fn compose(&self, inner: &Self) -> Self {
        Self {
            columns: inner.columns.iter().map(|c| self.apply(c)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(1);
        for _ in 0..10 {
            assert_eq!(a.gen::<f64>(), b.gen::<f64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn derived_streams_are_independent_of_draw_count() {
        let parent1 = SeededRng::new(5);
        let parent2 = SeededRng::new(5);
        let mut d1 = parent1.derive(10);
        let mut d2 = parent2.derive(10);
        assert_eq!(d1.gen::<u64>(), d2.gen::<u64>());
        let mut d3 = parent1.derive(11);
        assert_ne!(d1.gen::<u64>(), d3.gen::<u64>());
    }

    #[test]
    fn streams_are_the_shim_std_rngs() {
        for seed in [0, 1, 7, 0x9e37_79b9_7f4a_7c15, u64::MAX] {
            let mut ours = SeededRng::new(seed);
            let mut shim = StdRng::seed_from_u64(seed);
            for _ in 0..1000 {
                assert_eq!(ours.next_u64(), shim.next_u64(), "seed {seed}");
            }
            assert_eq!(ours.next_u32(), shim.next_u32(), "seed {seed}");
            let (mut a, mut b) = ([0u8; 13], [0u8; 13]);
            ours.fill_bytes(&mut a);
            shim.fill_bytes(&mut b);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(
                ours.gen_range(0..1_000_003usize),
                shim.gen_range(0..1_000_003usize)
            );
        }
    }

    /// `jump(k)` against `k` calls of `next_u64`.
    fn assert_jump_is_stepping(seed: u64, k: u64) {
        let mut jumped = SeededRng::new(seed);
        let mut stepped = jumped.clone();
        jumped.jump(k);
        for _ in 0..k {
            stepped.next_u64();
        }
        assert_eq!(jumped, stepped, "seed {seed}, k = {k}");
        assert_eq!(jumped.next_u64(), stepped.next_u64());
    }

    #[test]
    fn jump_equals_stepping_at_the_edges() {
        // 0, one word, around a word boundary of the exponent's bits,
        // and one class of the benchmark's bootstrap (2 · 1000 slots ·
        // 100 replicates).
        for k in [0, 1, 2, 63, 64, 65, 255, 256, 257, 2 * 1000 * 100] {
            assert_jump_is_stepping(3, k);
        }
    }

    #[test]
    fn jumps_compose() {
        // Far beyond what stepping can check: T^a · T^b = T^(a+b).
        let (a, b) = (0x0123_4567_89ab_cdef_u64, 0x7654_3210_fedc_ba98_u64);
        let mut twice = SeededRng::new(11);
        let mut once = twice.clone();
        twice.jump(a);
        twice.jump(b);
        once.jump(a + b);
        assert_eq!(twice, once);
        // And one operator stepped class by class.
        let jump = Jump::new(a);
        let mut stepped = SeededRng::new(11);
        let mut direct = stepped.clone();
        for _ in 0..3 {
            jump.apply(&mut stepped);
        }
        direct.jump(3 * a);
        assert_eq!(stepped, direct);
    }

    proptest! {
        /// `jump(k)` equals `k` calls of `next_u64` for random seeds and
        /// distances.
        #[test]
        fn jump_is_k_steps(seed in any::<u64>(), k in 0u64..5000) {
            assert_jump_is_stepping(seed, k);
        }
    }
}
