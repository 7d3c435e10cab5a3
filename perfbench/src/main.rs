//! The repository benchmark.
//!
//! ```sh
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1_fill --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the public
//! scenario path for `--seconds` seconds; `--trace 1` makes one
//! untraced rep and replays it through each layer's public calls for the
//! per-layer metrics. The last line of standard output is the result
//! object; the line before it holds provenance and per-metric
//! min/median/max. See `perfbench/README.md`.

mod checks;
mod closed_loop;
mod common;
mod heavy;
mod open_loop;
mod replay;
mod sys;
mod table1;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use kdchoice_prng::derive_seed;

use checks::Checks;
use common::{Layers, Workload};
use trace::Tracer;

/// Set-up passes run for at least this long (and at least
/// [`SETUP_MIN_REPS`] times, at most [`SETUP_MAX_REPS`]); `setup_s` is
/// their median.
const SETUP_SECONDS: f64 = 1.0;
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 201;
/// A seed kept out of tuning, for checking claims on unseen inputs.
const HELD_OUT_SEED: u64 = 0x5EED_0FF5;
/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "table1_fill",
    "heavy_fill",
    "open_loop_churn",
    "closed_loop_churn",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 25f64, false);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        let bad = || format!("{}: bad value `{value}`", argv[i]);
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (have: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn workload(name: &str) -> Box<dyn Workload> {
    match name {
        "table1_fill" => Box::<table1::Table1>::default(),
        "heavy_fill" => Box::<heavy::Heavy>::default(),
        "open_loop_churn" => Box::<open_loop::OpenLoop>::default(),
        _ => Box::<closed_loop::ClosedLoop>::default(),
    }
}

/// One end-to-end metric: the reported value and the per-rep values
/// behind it (for the min/median/max summary).
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    per_rep: Vec<f64>,
}

impl Metric {
    /// A metric reported as the median of its per-rep values.
    fn median_of(name: &'static str, unit: &'static str, per_rep: Vec<f64>) -> Self {
        Self {
            name,
            unit,
            value: median(&per_rep),
            per_rep,
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `--trace 0`: set-up passes, then reps until `seconds` have passed.
/// What `--trace 0` measured: the end-to-end metrics, each sub-run's
/// per-rep balls per second, the operations attempted and the rep count.
struct Measured {
    metrics: Vec<Metric>,
    subruns: Vec<(&'static str, Vec<f64>)>,
    ops: u64,
    reps: usize,
}

fn measure(args: &Args, w: &mut dyn Workload, checks: &mut Checks) -> Measured {
    let start = Instant::now();
    let mut setup = Vec::new();
    while setup.len() < SETUP_MIN_REPS
        || (setup.len() < SETUP_MAX_REPS && start.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        setup.push(w.setup(derive_seed(args.seed, setup.len() as u64)));
    }
    let start = Instant::now();
    let (mut rates, mut gaps, mut gap_means) = (Vec::new(), Vec::new(), Vec::new());
    let mut subruns: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut ops = 0;
    let mut reps = 0;
    while reps == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let rep = w.rep(derive_seed(args.seed, reps as u64), checks);
        rates.push(rep.balls_per_s());
        for sub in &rep.subruns {
            match subruns.iter_mut().find(|(name, _)| *name == sub.name) {
                Some((_, v)) => v.push(sub.balls_per_s()),
                None => subruns.push((sub.name, vec![sub.balls_per_s()])),
            }
        }
        gap_means.push(mean(&rep.gaps));
        gaps.extend_from_slice(&rep.gaps);
        ops += rep.ops;
        reps += 1;
    }
    ops += w.finish(derive_seed(args.seed, 0), checks);
    let ops_ok = 1.0 - checks.failed() as f64 / (ops + checks.attempted()) as f64;
    let metrics = vec![
        Metric::median_of("balls_per_s", "1/s", rates),
        // The mean over every trial (or sub-run) of the run.
        Metric {
            name: "gap_mean",
            unit: "balls",
            value: mean(&gaps),
            per_rep: gap_means,
        },
        Metric::median_of("setup_s", "s", setup),
        Metric::median_of("peak_rss_mb", "MB", vec![sys::peak_rss_mb()]),
        Metric::median_of("ops_ok_frac", "frac", vec![ops_ok]),
    ];
    Measured {
        metrics,
        subruns,
        ops,
        reps,
    }
}

/// `"name": {"min": .., "median": .., "max": .., "n": ..}` entries.
fn spread_json<'a>(entries: impl Iterator<Item = (&'a str, &'a [f64])>) -> String {
    let mut out = String::from("{");
    for (i, (name, values)) in entries.enumerate() {
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"min\": {}, \"median\": {}, \"max\": {}, \"n\": {}}}",
            json_str(name),
            json_num(min),
            json_num(median(values)),
            json_num(max),
            values.len()
        );
    }
    out.push('}');
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn provenance(args: &Args, reps: usize) -> String {
    let root = sys::repo_root();
    let (l2, l3) = sys::cache_bytes();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"seconds\": {}, \
         \"trace\": {}, \"reps\": {reps}, \"nproc\": {}, \"l2_bytes\": {l2}, \"l3_bytes\": {l3}, \
         \"git_revision\": {}, \"source_hash\": {}, \"rustc\": {}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        sys::nproc(),
        json_str(&sys::git_revision(&root)),
        json_str(&sys::source_hash(&root)),
        json_str(sys::rustc_version()),
    )
}

fn result_line(checks: &Checks, ops: u64, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed() == 0,
        (ops + checks.attempted()).max(1),
        checks.failed()
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(*value),
            json_str(unit)
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> String {
    let mut w = workload(&args.workload);
    let mut checks = Checks::default();
    let (line, detail, ops, reps) = if args.trace {
        let mut tracer = Tracer::new();
        let mut layers = Layers::default();
        layers.set("trace.timer_ns", trace::timer_ns());
        let ops = w.traced(args.seed, &mut checks, &mut tracer, &mut layers);
        let dir = sys::repo_root().join("perfbench").join("out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json()))
        {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        let metrics: Vec<_> = layers.iter().collect();
        let detail = format!("\"span_self_s\": {}", tracer.self_times_json());
        (result_line(&checks, ops, &metrics), detail, ops, 1)
    } else {
        let m = measure(args, w.as_mut(), &mut checks);
        let summary = spread_json(m.metrics.iter().map(|x| (x.name, &x.per_rep[..])));
        let subruns = spread_json(m.subruns.iter().map(|(name, v)| (*name, &v[..])));
        let metrics: Vec<_> = m
            .metrics
            .iter()
            .map(|x| (x.name, x.unit, x.value))
            .collect();
        let detail = format!("\"summary\": {summary}, \"subrun_balls_per_s\": {subruns}");
        (result_line(&checks, m.ops, &metrics), detail, m.ops, m.reps)
    };
    for failure in checks.failures() {
        eprintln!("perfbench: check failed: {failure}");
    }
    let failures: Vec<String> = checks.failures().iter().map(|f| json_str(f)).collect();
    println!(
        "{{\"provenance\": {}, {detail}, \"ops\": {ops}, \"checks\": {}, \"check_failures\": [{}]}}",
        provenance(args, reps),
        checks.attempted(),
        failures.join(", ")
    );
    line
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!(
                "perfbench: {msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::FAILURE;
        }
    };
    println!("{}", run(&args));
    ExitCode::SUCCESS
}
