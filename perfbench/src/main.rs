//! End-to-end pipeline benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dept-scale|bigco-churn|ingest-history> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets the workload up several times (reporting the median as
//! `setup_s`), then repeats identical timed passes until `--seconds`
//! have gone by. `--trace 0` prints the end-to-end metrics, measured
//! with no recorder attached and the system allocator. `--trace 1` runs
//! the same untraced passes, then one traced pass, and prints the
//! per-layer metrics. Every pass checks its outputs; the last stdout
//! line is the JSON result.

mod alloc;
mod engines;
mod ingest;
mod layers;
mod measure;
mod persist;

use engines::EngineLoad;
use ingest::IngestLoad;
use layers::Layers;
use measure::{git_rev, median, peak_rss_mb, secs, Metrics, Tally};
use persist::Pass;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static GLOBAL: alloc::SwitchAlloc = alloc::SwitchAlloc;

/// One day: the paper's observation window, used by every workload.
pub const DAY_MS: u64 = 86_400_000;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Where runs keep their stores, relative to the checkout root.
const STATE_ROOT: &str = ".bench_state";

const WORKLOADS: [&str; 3] = ["dept-scale", "bigco-churn", "ingest-history"];

enum Load {
    Engine(Box<EngineLoad>),
    Ingest(IngestLoad),
}

impl Load {
    fn setup(workload: &'static str, seed: u64, dir: &Path, tally: &mut Tally) -> Load {
        match workload {
            "ingest-history" => Load::Ingest(IngestLoad::setup(seed, dir, tally)),
            name => Load::Engine(Box::new(EngineLoad::setup(name, seed, dir, tally))),
        }
    }

    fn context(&self) -> Vec<(&'static str, String)> {
        match self {
            Load::Engine(l) => l.context(),
            Load::Ingest(l) => l.context(),
        }
    }

    fn pass(&mut self, dir: &Path, tally: &mut Tally) -> Pass {
        match self {
            Load::Engine(l) => l.pass(dir, tally),
            Load::Ingest(l) => l.pass(dir, tally),
        }
    }

    fn traced_pass(&mut self, dir: &Path, tally: &mut Tally) -> Layers {
        match self {
            Load::Engine(l) => l.traced_pass(dir, tally),
            Load::Ingest(l) => l.traced_pass(dir, tally),
        }
    }

    fn rand_index(&self, tally: &mut Tally) -> f64 {
        match self {
            Load::Engine(l) => l.rand_index(tally),
            Load::Ingest(l) => l.rand_index(),
        }
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                        format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                    })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let state = PathBuf::from(STATE_ROOT).join(format!("{}-{}", args.workload, std::process::id()));
    let (tally, metrics) = run(&args, &state);
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir(STATE_ROOT);

    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

fn run(args: &Args, state: &Path) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut load = None;
    for r in 0..reps {
        drop(load.take());
        let t0 = Instant::now();
        load = Some(Load::setup(
            args.workload,
            args.seed,
            &state.join(format!("setup-{r}")),
            &mut tally,
        ));
        setups.push(secs(t0));
    }
    let mut load = load.expect("at least one set-up");

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    // Another pass starts only when one more like the last still ends
    // within the budget, so a run's length stays bounded.
    let mut last = Duration::ZERO;
    while passes.is_empty() || started.elapsed() + last <= budget {
        let t0 = Instant::now();
        let dir = state.join(format!("pass-{}", passes.len()));
        passes.push(load.pass(&dir, &mut tally));
        let _ = std::fs::remove_dir_all(&dir);
        last = t0.elapsed();
    }
    let rand_index = load.rand_index(&mut tally);

    let windows: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.windows_s.iter().copied())
        .collect();
    let run_s: Vec<f64> = passes.iter().map(Pass::run_s).collect();
    let checkpoint_s: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.final_checkpoints_s.iter().copied())
        .collect();
    let history_s: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.final_reads_s.iter().map(|r| r.0 + r.1))
        .collect();

    let mut context = vec![
        ("workload", args.workload.to_string()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("git_rev", git_rev()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("allocator", alloc::mode().to_string()),
    ];
    context.extend(load.context());
    context.extend([
        ("passes", passes.len().to_string()),
        ("setup_samples", setups.len().to_string()),
        ("window_samples", windows.len().to_string()),
        ("checkpoint_samples", checkpoint_s.len().to_string()),
        ("history_read_samples", history_s.len().to_string()),
    ]);
    let stamp: Vec<String> = context
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    println!("context {{{}}}", stamp.join(", "));
    let spread = |xs: &[f64]| {
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let all: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
        format!("n={} min={lo:.6} max={hi:.6} [{}]", xs.len(), all.join(" "))
    };
    println!("setup_s samples: {}", spread(&setups));
    println!("window_s samples: {}", spread(&windows));
    println!("run_s samples: {}", spread(&run_s));

    let mut metrics = Metrics::default();
    if args.trace {
        let dir = state.join("traced");
        let layers = load.traced_pass(&dir, &mut tally);
        let _ = std::fs::remove_dir_all(&dir);
        println!(
            "traced pass: {} window(s), allocator counting",
            layers.windows
        );
        layers.emit(median(&run_s), &mut metrics);
    } else {
        metrics.push("setup_s", median(&setups), "s");
        metrics.push("window_s.p50", median(&windows), "s");
        metrics.push("run_s", median(&run_s), "s");
        metrics.push("checkpoint_s", median(&checkpoint_s), "s");
        metrics.push("history_read_s", median(&history_s), "s");
        metrics.push("peak_rss_mb", peak_rss_mb(), "MiB");
        metrics.push("rand_index", rand_index, "ratio");
    }
    println!(
        "failed_frac = {} ({} failed / {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    (tally, metrics)
}
