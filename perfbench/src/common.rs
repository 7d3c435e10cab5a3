//! What every workload shares: the public scenario path, the per-rep
//! record, and the per-layer metric table.

use std::hint::black_box;
use std::time::Instant;

use kdchoice_core::StoreKind;
use kdchoice_expt::{
    configs_from_grid, GridSpec, ReportFormat, Scenario, SweepReport, SweepRunner, TrialRun,
};
use kdchoice_service::{AtomicStore, OwnedShardEngine, ServiceBackend, ShardedStore};

use crate::checks::Checks;
use crate::trace::Tracer;

/// Requests (or, for static fills, balls) a workload issues: the
/// operations `ops_failed_frac` is a share of, next to the checks.
pub type Ops = u64;

/// One sub-run of a rep: one scenario call through the public path.
#[derive(Debug, Clone)]
pub struct SubRun {
    /// Sub-run label, e.g. `packed4` or `lockfree`.
    pub name: &'static str,
    /// Balls placed by the call.
    pub balls: u64,
    /// Wall time of the whole call: grid parse, sweep, report.
    pub wall_s: f64,
}

impl SubRun {
    /// Balls placed per wall second.
    pub fn balls_per_s(&self) -> f64 {
        self.balls as f64 / self.wall_s
    }
}

/// The outcome of one untraced rep of a workload.
#[derive(Debug, Default)]
pub struct Rep {
    /// Every scenario call of the rep, in order.
    pub subruns: Vec<SubRun>,
    /// Quality samples (gaps), one per trial or sub-run.
    pub gaps: Vec<f64>,
    /// Operations attempted.
    pub ops: Ops,
}

impl Rep {
    /// Geometric mean over sub-runs of balls per second, so a change to
    /// any one sub-run moves the figure by the same share whatever that
    /// sub-run's wall time.
    pub fn balls_per_s(&self) -> f64 {
        let logs: f64 = self.subruns.iter().map(|s| s.balls_per_s().ln()).sum();
        (logs / self.subruns.len() as f64).exp()
    }

    /// Balls per second over every sub-run named `name`.
    pub fn balls_per_s_of(&self, name: &str) -> Option<f64> {
        let (balls, wall) = self
            .subruns
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0f64), |(b, w), s| (b + s.balls, w + s.wall_s));
        (balls > 0).then(|| balls as f64 / wall)
    }
}

/// A benchmark workload: set-up, untraced reps, and a traced replay.
pub trait Workload {
    /// One set-up pass: grid parse, store allocation and schedule
    /// generation for every sub-run, as a caller pays before its first
    /// placement. Returns seconds.
    fn setup(&mut self, seed: u64) -> f64;

    /// One untraced rep through the public scenario path.
    fn rep(&mut self, seed: u64, checks: &mut Checks) -> Rep;

    /// Checks made once per run over all reps (`first_seed` is rep 0's).
    fn finish(&mut self, _first_seed: u64, _checks: &mut Checks) -> Ops {
        0
    }

    /// The traced run: one untraced rep for reference, then replays of
    /// it through each layer's public calls, filling `layers`.
    fn traced(
        &mut self,
        seed: u64,
        checks: &mut Checks,
        tracer: &mut Tracer,
        layers: &mut Layers,
    ) -> Ops;
}

/// The trial records, the configs and the wall seconds of one scenario call.
pub type Call<S> = (
    Vec<TrialRun<<S as Scenario>::Record>>,
    Vec<<S as Scenario>::Config>,
    f64,
);

/// Runs one scenario grid through the public path every caller uses —
/// `configs_from_grid` → `SweepRunner::run_scenario` (single-threaded
/// sweep) → `SweepReport` — and returns the trial records, the configs
/// and the call's wall time. With a tracer, the three phases are spans.
pub fn scenario_call<S: Scenario>(
    scenario: &S,
    grid: &str,
    trials: usize,
    seed: u64,
    mut tracer: Option<&mut Tracer>,
) -> Call<S> {
    let start = Instant::now();
    let phase = |name: &'static str, tracer: &mut Option<&mut Tracer>| {
        tracer.as_deref_mut().map(|t| t.enter(name))
    };
    let close = |id: Option<u32>, tracer: &mut Option<&mut Tracer>| {
        if let (Some(id), Some(t)) = (id, tracer.as_deref_mut()) {
            t.exit(id);
        }
    };

    let span = phase("expt.parse", &mut tracer);
    let spec = GridSpec::parse_str(grid).unwrap_or_else(|e| panic!("grid `{grid}`: {e}"));
    let configs =
        configs_from_grid(scenario, &spec, seed).unwrap_or_else(|e| panic!("grid `{grid}`: {e}"));
    close(span, &mut tracer);

    let span = phase("expt.run", &mut tracer);
    let cells = SweepRunner::new()
        .with_threads(1)
        .run_scenario(scenario, &configs, trials);
    close(span, &mut tracer);

    let span = phase("expt.report", &mut tracer);
    let report = SweepReport::from_cells(scenario, &configs, &cells);
    let rendered = report.render(ReportFormat::JsonLines);
    assert_eq!(rendered.lines().count(), configs.len() * trials);
    close(span, &mut tracer);

    let wall = start.elapsed().as_secs_f64();
    let runs = cells.into_iter().flat_map(|c| c.runs).collect();
    (runs, configs, wall)
}

/// Allocates and drops the store a churn backend starts from — the
/// allocation part of a churn sub-run's set-up.
pub fn allocate_backend(
    backend: ServiceBackend,
    bins: usize,
    shards: usize,
    threads: usize,
    refresh: usize,
    store: StoreKind,
) {
    match backend {
        ServiceBackend::Striped => drop(black_box(ShardedStore::with_kind(bins, shards, store))),
        ServiceBackend::SharedNothing => drop(black_box(OwnedShardEngine::with_kind(
            bins, threads, refresh, store,
        ))),
        ServiceBackend::LockFree => drop(black_box(AtomicStore::with_kind(bins, store))),
    }
}

/// The per-layer metrics: name, unit, and whether higher is better.
/// Every traced run prints all of them; a layer a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("core.kd.rounds", "count", true),
    ("core.kd.busy_s", "s", false),
    ("core.kd.ns_per_round", "ns", false),
    ("prng.sample.draws", "count", true),
    ("prng.sample.ns_per_draw", "ns", false),
    ("core.decide.calls", "count", true),
    ("core.decide.busy_s", "s", false),
    ("core.decide.ns_per_call", "ns", false),
    ("core.store.commits", "count", true),
    ("core.store.busy_s", "s", false),
    ("core.store.ns_per_commit", "ns", false),
    ("core.store.bytes_per_bin", "B", false),
    ("core.store.renormalizations", "count", false),
    ("core.observe.calls", "count", true),
    ("core.observe.busy_s", "s", false),
    ("service.traffic.requests", "count", true),
    ("service.traffic.busy_s", "s", false),
    ("service.sharded.place_calls", "count", true),
    ("service.sharded.place_ns_p50", "ns", false),
    ("service.sharded.place_ns_p99", "ns", false),
    ("service.sharded.release_ns_p50", "ns", false),
    ("service.sharded.busy_s", "s", false),
    ("service.sharded.contention_s", "s", false),
    ("service.lockfree.place_ns_p50", "ns", false),
    ("service.lockfree.place_ns_p99", "ns", false),
    ("service.lockfree.lost_races", "count", false),
    ("service.lockfree.fallback_commits", "count", false),
    ("service.lockfree.commit_ratio", "frac", true),
    ("service.engine.decide_ns_p50", "ns", false),
    ("service.engine.drained", "count", true),
    ("service.engine.drain_busy_s", "s", false),
    ("service.pipeline.ticks", "count", true),
    ("service.pipeline.tick_us_p50", "us", false),
    ("service.pipeline.tick_us_p99", "us", false),
    ("service.pipeline.coord_s", "s", false),
    ("expt.parse_s", "s", false),
    ("expt.report_s", "s", false),
    ("trace.timer_ns", "ns", false),
    ("trace.overhead_frac", "frac", false),
    ("balls_per_s.round_small", "1/s", true),
    ("balls_per_s.lazy_vec", "1/s", true),
    ("balls_per_s.exact", "1/s", true),
    ("balls_per_s.packed4", "1/s", true),
    ("balls_per_s.striped_1t", "1/s", true),
    ("balls_per_s.striped", "1/s", true),
    ("balls_per_s.shared_nothing", "1/s", true),
    ("balls_per_s.lockfree", "1/s", true),
];

/// Values of the per-layer metrics, all starting at 0.
#[derive(Debug, Clone)]
pub struct Layers {
    values: Vec<f64>,
}

impl Default for Layers {
    fn default() -> Self {
        Self {
            values: vec![0.0; PER_LAYER.len()],
        }
    }
}

impl Layers {
    /// Sets metric `name`, which must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric `{name}`"));
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    /// Every metric with its unit, in [`PER_LAYER`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        PER_LAYER
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit, _), &v)| (name, unit, v))
    }

    /// Sets the sub-run throughputs found in `rep`.
    pub fn set_subrun_rates(&mut self, rep: &Rep) {
        for (name, _, _) in PER_LAYER {
            if let Some(sub) = name.strip_prefix("balls_per_s.") {
                if let Some(rate) = rep.balls_per_s_of(sub) {
                    self.set(name, rate);
                }
            }
        }
    }

    /// Sets `expt.parse_s` / `expt.report_s` from the tracer's spans.
    pub fn set_expt(&mut self, tracer: &Tracer) {
        self.set("expt.parse_s", tracer.busy_s("expt.parse"));
        self.set("expt.report_s", tracer.busy_s("expt.report"));
    }
}
