//! `table1_fill`: the paper's own experiment — static (k,d)-choice with
//! n = m = 3·2^16 on six Table 1 cells, three on the const-D
//! `round_small` path (d ≤ 16) and three on the lazy Vec path.

use std::hint::black_box;
use std::time::Instant;

use kdchoice_bench::TABLE1_N;
use kdchoice_core::{KdChoice, LoadVector, StaticScenario};
use kdchoice_prng::derive_seed;

use crate::checks::{same_fill, static_conserved, table1_mode_ok, table1_trial_ok, Checks};
use crate::common::{scenario_call, Layers, Ops, Rep, SubRun, Workload};
use crate::replay::{replay_kd, Observe};
use crate::trace::Tracer;

/// The Table 1 cells run, as `(k, d)`.
pub const CELLS: [(usize, usize); 6] = [(1, 2), (2, 3), (4, 9), (8, 17), (32, 65), (64, 193)];
/// Trials per cell per rep.
const TRIALS: usize = 4;
/// The largest `d` the `kd.rs` const-D `round_small` path serves.
const SMALL_D: usize = 16;

fn grid(k: usize, d: usize) -> String {
    format!("k={k} d={d} n={TABLE1_N} store=exact")
}

fn path(d: usize) -> &'static str {
    if d <= SMALL_D {
        "round_small"
    } else {
        "lazy_vec"
    }
}

/// The workload, with every trial's maximum load kept for the per-cell
/// Table 1 mode check at the end of the run.
#[derive(Debug, Default)]
pub struct Table1 {
    maxima: [Vec<u32>; 6],
}

impl Workload for Table1 {
    fn setup(&mut self, seed: u64) -> f64 {
        let start = Instant::now();
        for (k, d) in CELLS {
            let spec = kdchoice_expt::GridSpec::parse_str(&grid(k, d)).expect("static grid");
            let configs =
                kdchoice_expt::configs_from_grid(&StaticScenario, &spec, seed).expect("valid");
            black_box(LoadVector::new(configs[0].run.n));
            black_box(KdChoice::new(k, d).expect("valid (k,d)"));
        }
        start.elapsed().as_secs_f64()
    }

    fn rep(&mut self, seed: u64, checks: &mut Checks) -> Rep {
        let mut rep = Rep::default();
        for (cell, (k, d)) in CELLS.into_iter().enumerate() {
            let (runs, _, wall_s) = scenario_call(&StaticScenario, &grid(k, d), TRIALS, seed, None);
            let mut balls = 0;
            for run in &runs {
                let r = &run.record;
                checks.check("table1.conservation", static_conserved(r), || {
                    format!("({k},{d}) seed {} lost balls", run.seed)
                });
                checks.check("table1.band", table1_trial_ok(k, d, r.max_load), || {
                    format!("({k},{d}) seed {} max load {}", run.seed, r.max_load)
                });
                self.maxima[cell].push(r.max_load);
                rep.gaps.push(r.gap);
                balls += r.balls_placed;
            }
            rep.ops += balls;
            rep.subruns.push(SubRun {
                name: path(d),
                balls,
                wall_s,
            });
        }
        rep
    }

    fn finish(&mut self, _first_seed: u64, checks: &mut Checks) -> Ops {
        for (cell, (k, d)) in CELLS.into_iter().enumerate() {
            let maxima = &self.maxima[cell];
            checks.check("table1.mode", table1_mode_ok(k, d, maxima), || {
                format!("({k},{d}) maxima {maxima:?}")
            });
        }
        0
    }

    fn traced(
        &mut self,
        seed: u64,
        checks: &mut Checks,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Ops {
        let seed = derive_seed(seed, 0);
        let mut rep = Rep::default();
        let mut observe = Observe::default();
        let (mut rounds, mut replay_s) = (0u64, 0f64);
        for (k, d) in CELLS {
            let (runs, configs, wall_s) =
                scenario_call(&StaticScenario, &grid(k, d), TRIALS, seed, Some(tracer));
            let balls: u64 = runs.iter().map(|r| r.record.balls_placed).sum();
            rep.subruns.push(SubRun {
                name: path(d),
                balls,
                wall_s,
            });
            rep.ops += balls;
            let cfg = &configs[0].run;
            let span = tracer.enter("replay.table1");
            for run in &runs {
                let (replay, r) = replay_kd(k, d, cfg.n, cfg.balls, run.seed, tracer, &mut observe);
                rounds += r;
                checks.check("table1.replay", same_fill(&replay, &run.record), || {
                    format!("({k},{d}) seed {} replay differs", run.seed)
                });
            }
            replay_s += tracer.exit(span);
        }
        let kd_busy = tracer.busy_s("core.kd");
        layers.set("core.kd.rounds", rounds as f64);
        layers.set("core.kd.busy_s", kd_busy);
        layers.set("core.kd.ns_per_round", kd_busy * 1e9 / rounds as f64);
        layers.set("core.observe.calls", observe.calls as f64);
        layers.set("core.observe.busy_s", observe.busy_s);
        layers.set_expt(tracer);
        layers.set_subrun_rates(&rep);
        let untraced: f64 = rep.subruns.iter().map(|s| s.wall_s).sum();
        layers.set("trace.overhead_frac", replay_s / untraced - 1.0);
        rep.ops
    }
}
