//! Locks `run_once_compact` — whose uniform d ≤ 16 fills run the fused
//! const-`D` round — against a round-by-round replay of the general
//! loop written out in `common/mod.rs`: block-sampled probes, a `sort_unstable`, one
//! tie key per tentative slot, a `select_nth_unstable_by` on
//! `(height, tie key)`, and a commit of `slots[..take]` in that order.
//!
//! The result and the final slab must be equal for every store kind,
//! for the d the fused round serves and for the cases that keep the
//! general loop (d = 17, Zipf probes), with and without a capacity map.

mod common;

use common::assert_same;
use kdchoice_core::{ProbeDistribution, RunConfig, StoreKind};

const KINDS: [StoreKind; 4] = [
    StoreKind::Exact,
    StoreKind::Packed4,
    StoreKind::Packed8,
    StoreKind::Sketch,
];

#[test]
fn fused_fill_matches_the_replay_for_every_store_kind() {
    for kind in KINDS {
        for d in [1usize, 2, 3, 4, 9, 16] {
            for k in [1, d.div_ceil(2), d] {
                // n = 6: probes repeat almost every round, and at 8n
                // balls the 4-bit window renormalizes. n = 256: mostly
                // distinct probes, heavy load (m = 16n).
                for (n, per_bin, seed) in [(6usize, 8u64, 3u64), (256, 16, 11)] {
                    let config = RunConfig::new(n, seed + d as u64).with_balls(per_bin * n as u64);
                    assert_same(kind, k, d, &ProbeDistribution::Uniform, None, &config);
                }
                // A ball count that is not a multiple of k: a short last round.
                let config = RunConfig::new(100, 5).with_balls(301);
                assert_same(kind, k, d, &ProbeDistribution::Uniform, None, &config);
            }
        }
    }
}

#[test]
fn general_loop_cases_match_the_replay() {
    let n = 300;
    let zipf = ProbeDistribution::zipf(n, 1.1).expect("valid zipf");
    for kind in KINDS {
        let config = RunConfig::new(n, 21).with_balls(8 * n as u64);
        // d = 17: one past the fused round.
        for k in [1, 8, 17] {
            assert_same(kind, k, 17, &ProbeDistribution::Uniform, None, &config);
        }
        // Zipf probes keep the general loop at any d.
        for (k, d) in [(1, 2), (2, 4), (4, 9)] {
            assert_same(kind, k, d, &zipf, None, &config);
        }
    }
}

#[test]
fn capacity_maps_match_the_replay() {
    let n = 200;
    let caps: Vec<u32> = (0..n).map(|i| if i % 10 == 0 { 10 } else { 1 }).collect();
    // A sketch slab rejects non-uniform capacities.
    for kind in [StoreKind::Exact, StoreKind::Packed4, StoreKind::Packed8] {
        let config = RunConfig::new(n, 8).with_balls(6 * n as u64);
        for (k, d) in [(1, 2), (2, 4), (3, 9), (2, 17)] {
            assert_same(
                kind,
                k,
                d,
                &ProbeDistribution::Uniform,
                Some(&caps),
                &config,
            );
        }
    }
}
