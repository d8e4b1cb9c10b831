//! Stochastic cross-correlation (SCC, *Principles of Stochastic
//! Computing*, arXiv 2011.05153) between the streams ReSC needs
//! independent, for the pseudo-random sources the serving tiers seed:
//!
//! - a lane's data stream and the coefficient stream it draws next;
//! - the lanes of one 8-lane block;
//! - adjacent `mix_seed` items.
//!
//! For independent streams at probability `p ≤ 0.5` the overlap excess
//! `δ = p₁₂ − p²` has σ `p(1−p)/√N`, and SCC divides it by `p(1−p)`
//! when positive and by `p²` when negative, so SCC's σ is at most
//! `(1−p)/p · 1/√N`. Each pair must satisfy `|SCC| ≤ c/√N` with
//! `c = 4(1−p)/p`: 4σ. Two streams drawn from one reused seed are
//! identical (SCC = 1) and must fail the same bound — the check's own
//! mutation test.

use osc_core::batch::mix_seed;
use osc_stochastic::bitstream::BitStream;
use osc_stochastic::sng::{ChaoticLaserSng, StochasticNumberGenerator, XoshiroSng};

const N: usize = 8192;

/// Whether two streams at probability `p ≤ 0.5` pass the 4σ SCC bound.
fn independent(a: &BitStream, b: &BitStream, p: f64) -> bool {
    let c = 4.0 * (1.0 - p) / p;
    a.scc(b).unwrap().abs() <= c / (N as f64).sqrt()
}

/// Two consecutive streams per lane of one 8-lane block (the data and
/// first coefficient stream of the lane kernel), lane `l` seeded
/// `mix_seed(seed, first + l)`.
fn block_streams<S: StochasticNumberGenerator>(
    make: impl Fn(u64) -> S,
    seed: u64,
    first: u64,
    p: f64,
) -> [[BitStream; 8]; 2] {
    let mut lanes: [S; 8] = std::array::from_fn(|l| make(mix_seed(seed, first + l as u64)));
    std::array::from_fn(|_| {
        let mut words: [Vec<u64>; 8] = std::array::from_fn(|_| Vec::new());
        S::drain_lanes(&mut lanes, &[p; 8], N, |block, _| {
            for (w, &b) in words.iter_mut().zip(block) {
                w.push(b);
            }
        })
        .unwrap();
        words.map(|w| BitStream::from_words(w, N))
    })
}

fn assert_streams_independent<S: StochasticNumberGenerator>(make: impl Fn(u64) -> S, tag: &str) {
    for p in [0.5, 0.3] {
        let [data, coeff] = block_streams(&make, 0x5CC, 0, p);
        let [next_data, _] = block_streams(&make, 0x5CC, 8, p);
        for l in 0..8 {
            assert!(
                independent(&data[l], &coeff[l], p),
                "{tag} p={p}: lane {l} data vs coefficient stream"
            );
            for m in l + 1..8 {
                assert!(
                    independent(&data[l], &data[m], p),
                    "{tag} p={p}: lanes {l} and {m} of one block"
                );
            }
        }
        // Items 7 and 8 are adjacent mix_seed items in different blocks.
        assert!(
            independent(&data[7], &next_data[0], p),
            "{tag} p={p}: adjacent items 7 and 8"
        );
    }
    // Mutation check: one seed reused for two streams replays the stream.
    let mut a = make(mix_seed(0x5CC, 3));
    let mut b = make(mix_seed(0x5CC, 3));
    assert!(
        !independent(
            &a.generate(0.5, N).unwrap(),
            &b.generate(0.5, N).unwrap(),
            0.5
        ),
        "{tag}: a reused seed must fail the SCC bound"
    );
}

#[test]
fn xoshiro_streams_are_uncorrelated() {
    assert_streams_independent(XoshiroSng::new, "xoshiro");
}

#[test]
fn chaotic_laser_streams_are_uncorrelated() {
    assert_streams_independent(ChaoticLaserSng::seeded, "chaotic-laser");
}
