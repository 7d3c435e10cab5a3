//! The correctness checks every run makes. Each check is a pure function
//! of the program's outputs, so the self-tests below can feed it a
//! deliberately broken input and show that it fires.

use kdchoice_bench::table1_data::paper_value;
use kdchoice_core::{BinSlab, RunResult};
use kdchoice_theory::bounds::theorem2_gap_band;

/// Additive slack on the Theorem 2 gap band. Tighter than the repo's
/// envelope tests (3.0) so that a kernel which doubled the gap fails.
pub const GAP_SLACK: f64 = 1.0;

/// Tallies the checks a run makes; failures are kept with their detail.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Counts one check, recording `detail()` when it fails.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    /// Checks made so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks that failed so far.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The failure descriptions.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// A static fill conserves balls: the load histogram covers exactly `n`
/// bins and its weighted sum is the number of balls placed.
pub fn static_conserved(r: &RunResult) -> bool {
    histogram_holds(&r.load_histogram, r.n, r.balls_placed) && r.balls_placed == r.balls_thrown
}

/// A load histogram covers `n` bins holding `balls` balls in total.
pub fn histogram_holds(histogram: &[u64], n: usize, balls: u64) -> bool {
    let bins: u64 = histogram.iter().sum();
    let weighted: u64 = histogram
        .iter()
        .enumerate()
        .map(|(load, &count)| load as u64 * count)
        .sum();
    bins == n as u64 && weighted == balls
}

/// Churn conserves balls: placed = released + live, and the program's
/// own invariant check passed.
pub fn churn_conserved(placed: u64, released: u64, live: u64, invariants_ok: bool) -> bool {
    invariants_ok && placed == released + live
}

/// The distinct maxima Table 1 reports for cell `(k, d)`.
pub fn table1_set(k: usize, d: usize) -> Vec<u32> {
    paper_value(k, d)
        .unwrap_or_else(|| panic!("({k},{d}) is not a Table 1 cell"))
        .split(',')
        .map(|v| v.trim().parse().expect("Table 1 values are integers"))
        .collect()
}

/// One trial's maximum load lies within the Table 1 set widened by one
/// on each side (the paper's ten runs cannot show rarer values).
pub fn table1_trial_ok(k: usize, d: usize, max_load: u32) -> bool {
    let set = table1_set(k, d);
    let lo = set.iter().min().expect("non-empty") - 1;
    let hi = set.iter().max().expect("non-empty") + 1;
    (lo..=hi).contains(&max_load)
}

/// The most frequent maximum load over a run's trials of one cell is a
/// value Table 1 reports (any of several tied modes will do).
pub fn table1_mode_ok(k: usize, d: usize, maxima: &[u32]) -> bool {
    let set = table1_set(k, d);
    let Some(&top) = maxima.iter().max() else {
        return false;
    };
    let mut counts = vec![0usize; top as usize + 1];
    for &m in maxima {
        counts[m as usize] += 1;
    }
    let best = *counts.iter().max().expect("non-empty");
    counts
        .iter()
        .enumerate()
        .any(|(value, &c)| c == best && set.contains(&(value as u32)))
}

/// A heavily loaded gap (d ≥ 2k) lies inside the Theorem 2 band.
pub fn gap_in_band(k: usize, d: usize, n: usize, gap: f64) -> bool {
    theorem2_gap_band(k, d, n, GAP_SLACK).contains(gap)
}

/// A packed slab never clamped a counter, so its observables are exact.
pub fn lossless(slab: &BinSlab) -> bool {
    match slab {
        BinSlab::Packed(p) => p.is_lossless(),
        BinSlab::Exact(_) => true,
        BinSlab::Sketch(_) => false,
    }
}

/// Every sub-run saw the same open-loop event stream: the fingerprints
/// (arrivals, commits, releases, latency statistics) are all equal.
pub fn all_equal<T: PartialEq>(items: &[T]) -> bool {
    items.windows(2).all(|w| w[0] == w[1])
}

/// A replayed static fill reproduces the untraced run exactly: the same
/// load and height histograms, maximum load and balls placed.
pub fn same_fill(replay: &RunResult, untraced: &RunResult) -> bool {
    replay.load_histogram == untraced.load_histogram
        && replay.height_histogram == untraced.height_histogram
        && replay.max_load == untraced.max_load
        && replay.balls_placed == untraced.balls_placed
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdchoice_core::{run_once, KdChoice, RunConfig, StoreKind};

    fn fill(k: usize, d: usize) -> RunResult {
        run_once(&mut KdChoice::new(k, d).unwrap(), &RunConfig::new(4096, 9))
    }

    #[test]
    fn conservation_fires_on_a_lost_ball() {
        let good = fill(2, 3);
        assert!(static_conserved(&good));
        let mut bad = good.clone();
        bad.load_histogram[1] -= 1;
        bad.load_histogram[0] += 1;
        assert!(!static_conserved(&bad));
        assert!(churn_conserved(10, 4, 6, true));
        // A skipped release leaves one more ball live than the books say.
        assert!(!churn_conserved(10, 4, 7, true));
        assert!(!churn_conserved(10, 4, 6, false));
    }

    #[test]
    fn table1_checks_fire_off_the_paper() {
        assert!(table1_trial_ok(1, 2, 4));
        assert!(table1_trial_ok(4, 9, 2));
        assert!(!table1_trial_ok(2, 3, 6));
        assert!(table1_mode_ok(1, 2, &[3, 4, 4]));
        assert!(table1_mode_ok(8, 17, &[2, 3]));
        assert!(!table1_mode_ok(4, 9, &[2, 2, 3]));
        assert!(!table1_mode_ok(2, 3, &[]));
    }

    #[test]
    fn gap_band_fires_on_a_doubled_gap() {
        let n = 1 << 16;
        assert!(gap_in_band(2, 4, n, 2.09));
        assert!(!gap_in_band(2, 4, n, 2.0 * 2.5));
        assert!(!gap_in_band(2, 4, n, 0.5));
    }

    #[test]
    fn lossless_fires_on_a_saturated_counter() {
        let mut slab = StoreKind::Packed4.new_slab(2);
        assert!(lossless(&slab));
        for _ in 0..20 {
            slab.add_ball(0);
        }
        assert!(!lossless(&slab));
    }

    #[test]
    fn equality_checks_fire_on_a_wrong_replay() {
        assert!(all_equal(&[(1, 2.0), (1, 2.0), (1, 2.0)]));
        assert!(!all_equal(&[(1, 2.0), (1, 2.5)]));
        let a = fill(2, 4);
        assert!(same_fill(&a, &fill(2, 4)));
        // A (k, d-1) replay draws a different stream.
        assert!(!same_fill(&fill(2, 3), &a));
    }
}
