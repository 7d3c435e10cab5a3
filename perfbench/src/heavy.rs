//! `heavy_fill`: Theorem 2's heavily loaded regime — (2,4)-choice,
//! n = 2^20, m = 8n — once on the exact store (the `kd.rs` engine,
//! 4 MiB of loads, past a 2 MiB L2) and once on `packed4`
//! (`run_once_compact` → `decide_k_least` → `PackedStore`, 0.5 MiB,
//! inside it).

use std::hint::black_box;
use std::time::Instant;

use kdchoice_core::{
    run_once_compact, BinSlab, ProbeDistribution, RunConfig, RunResult, StaticScenario, StoreKind,
};
use kdchoice_prng::derive_seed;

use crate::checks::{gap_in_band, lossless, same_fill, static_conserved, Checks};
use crate::common::{scenario_call, Layers, Ops, Rep, SubRun, Workload};
use crate::replay::{replay_compact, replay_kd, CompactTimers, Observe};
use crate::trace::Tracer;

const N: usize = 1 << 20;
const BALLS: u64 = 8 * N as u64;
const K: usize = 2;
const D: usize = 4;
const STORES: [(&str, StoreKind); 2] =
    [("exact", StoreKind::Exact), ("packed4", StoreKind::Packed4)];

fn grid(store: &str) -> String {
    format!("k={K} d={D} n={N} balls={BALLS} store={store}")
}

/// The workload, keeping rep 0's packed4 record for the end-of-run
/// losslessness check.
#[derive(Debug, Default)]
pub struct Heavy {
    first_packed: Option<RunResult>,
}

fn check_fill(name: &str, r: &RunResult, checks: &mut Checks) {
    checks.check("heavy.conservation", static_conserved(r), || {
        format!("{name} seed {} lost balls", r.seed)
    });
    checks.check("heavy.gap_band", gap_in_band(K, D, N, r.gap), || {
        format!("{name} seed {} gap {}", r.seed, r.gap)
    });
}

impl Workload for Heavy {
    fn setup(&mut self, seed: u64) -> f64 {
        let start = Instant::now();
        for (store, kind) in STORES {
            let spec = kdchoice_expt::GridSpec::parse_str(&grid(store)).expect("static grid");
            let configs =
                kdchoice_expt::configs_from_grid(&StaticScenario, &spec, seed).expect("valid");
            drop(black_box(kind.new_slab(configs[0].run.n)));
        }
        start.elapsed().as_secs_f64()
    }

    fn rep(&mut self, seed: u64, checks: &mut Checks) -> Rep {
        let mut rep = Rep::default();
        for (name, _) in STORES {
            let (runs, _, wall_s) = scenario_call(&StaticScenario, &grid(name), 1, seed, None);
            let r = &runs[0].record;
            check_fill(name, r, checks);
            rep.gaps.push(r.gap);
            rep.ops += r.balls_placed;
            rep.subruns.push(SubRun {
                name,
                balls: r.balls_placed,
                wall_s,
            });
            if name == "packed4" && self.first_packed.is_none() {
                self.first_packed = Some(r.clone());
            }
        }
        rep
    }

    fn finish(&mut self, _first_seed: u64, checks: &mut Checks) -> Ops {
        let Some(first) = self.first_packed.take() else {
            return 0;
        };
        let cfg = RunConfig::new(N, first.seed).with_balls(BALLS);
        let (again, slab) = run_once_compact(
            StoreKind::Packed4,
            K,
            D,
            &ProbeDistribution::Uniform,
            None,
            &cfg,
        );
        checks.check("heavy.packed4_lossless", lossless(&slab), || {
            format!("packed4 seed {} clamped a counter", first.seed)
        });
        checks.check(
            "heavy.packed4_repeatable",
            same_fill(&again, &first),
            || format!("packed4 seed {} differs between calls", first.seed),
        );
        again.balls_placed
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
        let mut timers = CompactTimers::default();
        let mut replay_s = 0.0;
        let mut rounds = 0;
        let mut slab = None;
        for (name, kind) in STORES {
            let (runs, _, wall_s) =
                scenario_call(&StaticScenario, &grid(name), 1, seed, Some(tracer));
            let untraced = &runs[0].record;
            check_fill(name, untraced, checks);
            rep.subruns.push(SubRun {
                name,
                balls: untraced.balls_placed,
                wall_s,
            });
            rep.ops += untraced.balls_placed;
            let span = tracer.enter("replay.heavy");
            let replay = if kind == StoreKind::Exact {
                let (replay, r) = replay_kd(K, D, N, BALLS, untraced.seed, tracer, &mut observe);
                rounds = r;
                replay
            } else {
                let (replay, s) = replay_compact(
                    kind,
                    K,
                    D,
                    N,
                    BALLS,
                    untraced.seed,
                    tracer,
                    &mut timers,
                    &mut observe,
                );
                slab = Some(s);
                replay
            };
            replay_s += tracer.exit(span);
            checks.check("heavy.replay", same_fill(&replay, untraced), || {
                format!("{name} seed {} replay differs", untraced.seed)
            });
        }
        let slab = slab.expect("the packed4 sub-run ran");
        checks.check("heavy.packed4_lossless", lossless(&slab), || {
            "packed4 replay clamped a counter".to_string()
        });

        let kd_busy = tracer.busy_s("core.kd");
        layers.set("core.kd.rounds", rounds as f64);
        layers.set("core.kd.busy_s", kd_busy);
        layers.set("core.kd.ns_per_round", kd_busy * 1e9 / rounds as f64);
        let (sample, decide, store) = (&timers.sample, &timers.decide, &timers.store);
        layers.set("prng.sample.draws", (sample.calls() * D as u64) as f64);
        layers.set("prng.sample.ns_per_draw", sample.mean_ns() / D as f64);
        layers.set("core.decide.calls", decide.calls() as f64);
        layers.set("core.decide.busy_s", decide.busy_s());
        layers.set("core.decide.ns_per_call", decide.mean_ns());
        layers.set("core.store.commits", (store.calls() * K as u64) as f64);
        layers.set("core.store.busy_s", store.busy_s());
        layers.set("core.store.ns_per_commit", store.mean_ns() / K as f64);
        if let BinSlab::Packed(p) = &slab {
            layers.set("core.store.bytes_per_bin", p.bytes_per_bin());
            layers.set("core.store.renormalizations", p.renormalizations() as f64);
        }
        layers.set("core.observe.calls", observe.calls as f64);
        layers.set("core.observe.busy_s", observe.busy_s);
        layers.set_expt(tracer);
        layers.set_subrun_rates(&rep);
        let untraced: f64 = rep.subruns.iter().map(|s| s.wall_s).sum();
        layers.set("trace.overhead_frac", replay_s / untraced - 1.0);
        rep.ops
    }
}
